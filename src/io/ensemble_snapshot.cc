#include "io/ensemble_snapshot.h"

#include <bit>
#include <cstring>

#include "common/crc32.h"
#include "common/fault_injection.h"
#include "common/json.h"

namespace treewm::io {
namespace {

using predict::FlatEnsemble;
using predict::FlatNode;

enum SectionId : uint32_t {
  kMetaSection = 1,
  kRootsSection = 2,
  kNodesSection = 3,
  kLeafLabelsSection = 4,
  kLeafValuesSection = 5,
};

constexpr size_t kSnapshotHeaderBytes = 16;
constexpr size_t kSectionHeaderBytes = 12;  // u32 id + u64 length
constexpr size_t kMetaBytes = 49;

// ------------------------------------------------------------- primitives ----

void PutU32(uint32_t v, std::vector<uint8_t>* out) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void PutU64(uint64_t v, std::vector<uint8_t>* out) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void PutF64(double v, std::vector<uint8_t>* out) {
  PutU64(std::bit_cast<uint64_t>(v), out);
}

uint32_t ReadU32At(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

uint64_t ReadU64At(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

Status SnapshotError(const std::string& what) {
  return Status::ParseError("snapshot: " + what);
}

// ----------------------------------------------------------------- encode ----

void AppendSection(uint32_t id, std::span<const uint8_t> payload,
                   std::vector<uint8_t>* out) {
  PutU32(id, out);
  PutU64(payload.size(), out);
  out->insert(out->end(), payload.begin(), payload.end());
}

/// Everything after the 16-byte header, plus the section count — the bytes
/// the header CRC covers together with header bytes [4, 12).
std::pair<std::vector<uint8_t>, uint32_t> BuildSections(const FlatEnsemble& e) {
  std::vector<uint8_t> meta;
  meta.reserve(kMetaBytes);
  PutU64(e.num_features(), &meta);
  meta.push_back(e.is_regression() ? 1 : 0);
  PutF64(e.initial_score(), &meta);
  PutF64(e.learning_rate(), &meta);
  PutU64(e.num_internal_nodes(), &meta);
  PutU64(e.num_trees(), &meta);
  PutU64(e.num_leaves(), &meta);

  std::vector<uint8_t> roots;
  roots.reserve(8 * e.num_trees());
  for (size_t t = 0; t < e.num_trees(); ++t) {
    PutU64(static_cast<uint64_t>(e.root(t)), &roots);
  }

  std::vector<uint8_t> nodes;
  nodes.reserve(sizeof(FlatNode) * e.num_internal_nodes());
  for (size_t i = 0; i < e.num_internal_nodes(); ++i) {
    const FlatNode& n = e.nodes()[i];
    PutU64(n.ft, &nodes);
    PutU64(static_cast<uint64_t>(n.child[0]), &nodes);
    PutU64(static_cast<uint64_t>(n.child[1]), &nodes);
    PutU64(0, &nodes);  // pad word, kept zero so images are deterministic
  }

  std::vector<uint8_t> leaves;
  uint32_t section_count = 4;
  if (e.is_regression()) {
    leaves.reserve(8 * e.num_leaves());
    for (size_t i = 0; i < e.num_leaves(); ++i) PutF64(e.leaf_values()[i], &leaves);
  } else {
    leaves.reserve(e.num_leaves());
    for (size_t i = 0; i < e.num_leaves(); ++i) {
      leaves.push_back(static_cast<uint8_t>(e.leaf_labels()[i]));
    }
  }

  std::vector<uint8_t> out;
  out.reserve(4 * kSectionHeaderBytes + meta.size() + roots.size() +
              nodes.size() + leaves.size());
  AppendSection(kMetaSection, meta, &out);
  AppendSection(kRootsSection, roots, &out);
  AppendSection(kNodesSection, nodes, &out);
  AppendSection(e.is_regression() ? kLeafValuesSection : kLeafLabelsSection,
                leaves, &out);
  return {std::move(out), section_count};
}

uint32_t SnapshotCrc(uint32_t section_count, std::span<const uint8_t> sections) {
  std::vector<uint8_t> covered_header;
  PutU32(kSnapshotVersion, &covered_header);
  PutU32(section_count, &covered_header);
  uint32_t crc = Crc32Init();
  crc = Crc32Update(crc, covered_header);
  crc = Crc32Update(crc, sections);
  return Crc32Finish(crc);
}

}  // namespace

std::vector<uint8_t> EncodeEnsembleSnapshot(const FlatEnsemble& ensemble) {
  auto [sections, section_count] = BuildSections(ensemble);
  std::vector<uint8_t> out;
  out.reserve(kSnapshotHeaderBytes + sections.size());
  for (uint8_t b : kSnapshotMagic) out.push_back(b);
  PutU32(kSnapshotVersion, &out);
  PutU32(section_count, &out);
  PutU32(SnapshotCrc(section_count, sections), &out);
  out.insert(out.end(), sections.begin(), sections.end());
  return out;
}

uint32_t EnsembleChecksum(const FlatEnsemble& ensemble) {
  auto [sections, section_count] = BuildSections(ensemble);
  return SnapshotCrc(section_count, sections);
}

Result<FlatEnsemble> DecodeEnsembleSnapshot(std::span<const uint8_t> bytes) {
  if (bytes.size() < kSnapshotHeaderBytes) {
    return SnapshotError("file shorter than the header");
  }
  if (std::memcmp(bytes.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    return SnapshotError("bad magic");
  }
  const uint32_t version = ReadU32At(bytes.data() + 4);
  if (version != kSnapshotVersion) {
    return SnapshotError("unsupported format version " + std::to_string(version));
  }
  const uint32_t section_count = ReadU32At(bytes.data() + 8);
  const uint32_t expect_crc = ReadU32At(bytes.data() + 12);
  const std::span<const uint8_t> sections = bytes.subspan(kSnapshotHeaderBytes);
  if (SnapshotCrc(section_count, sections) != expect_crc) {
    return SnapshotError("checksum mismatch");
  }

  // The CRC proves the bytes arrived intact; everything below defends the
  // decoder against a snapshot that was CRAFTED malformed (a correct CRC
  // over hostile content costs an attacker nothing).
  std::span<const uint8_t> payloads[kLeafValuesSection + 1] = {};
  bool present[kLeafValuesSection + 1] = {};
  size_t pos = 0;
  for (uint32_t s = 0; s < section_count; ++s) {
    if (sections.size() - pos < kSectionHeaderBytes) {
      return SnapshotError("truncated section header");
    }
    const uint32_t id = ReadU32At(sections.data() + pos);
    const uint64_t len = ReadU64At(sections.data() + pos + 4);
    pos += kSectionHeaderBytes;
    if (len > sections.size() - pos) {
      return SnapshotError("section length exceeds file size");
    }
    if (id < kMetaSection || id > kLeafValuesSection) {
      return SnapshotError("unknown section id " + std::to_string(id));
    }
    if (present[id]) return SnapshotError("duplicate section");
    present[id] = true;
    payloads[id] = sections.subspan(pos, static_cast<size_t>(len));
    pos += static_cast<size_t>(len);
  }
  if (pos != sections.size()) return SnapshotError("trailing bytes after sections");
  for (uint32_t id : {kMetaSection, kRootsSection, kNodesSection}) {
    if (!present[id]) return SnapshotError("missing required section");
  }
  if (present[kLeafLabelsSection] == present[kLeafValuesSection]) {
    return SnapshotError("need exactly one leaf payload section");
  }

  const std::span<const uint8_t> meta = payloads[kMetaSection];
  if (meta.size() != kMetaBytes) return SnapshotError("meta section size mismatch");
  const uint64_t num_features = ReadU64At(meta.data());
  const uint8_t regression_byte = meta[8];
  if (regression_byte > 1) return SnapshotError("invalid is_regression byte");
  const bool is_regression = regression_byte == 1;
  const double initial_score = std::bit_cast<double>(ReadU64At(meta.data() + 9));
  const double learning_rate = std::bit_cast<double>(ReadU64At(meta.data() + 17));
  const uint64_t num_nodes = ReadU64At(meta.data() + 25);
  const uint64_t num_roots = ReadU64At(meta.data() + 33);
  const uint64_t num_leaves = ReadU64At(meta.data() + 41);

  // Counts are attacker-controlled: every section size must equal what the
  // meta promises (divide, never multiply, so nothing can overflow).
  const std::span<const uint8_t> roots_bytes = payloads[kRootsSection];
  if (roots_bytes.size() % 8 != 0 || roots_bytes.size() / 8 != num_roots) {
    return SnapshotError("roots section size mismatch");
  }
  const std::span<const uint8_t> nodes_bytes = payloads[kNodesSection];
  if (nodes_bytes.size() % sizeof(FlatNode) != 0 ||
      nodes_bytes.size() / sizeof(FlatNode) != num_nodes) {
    return SnapshotError("nodes section size mismatch");
  }
  if (is_regression) {
    const std::span<const uint8_t> values = payloads[kLeafValuesSection];
    if (!present[kLeafValuesSection] || values.size() % 8 != 0 ||
        values.size() / 8 != num_leaves) {
      return SnapshotError("leaf values section size mismatch");
    }
  } else {
    const std::span<const uint8_t> labels = payloads[kLeafLabelsSection];
    if (!present[kLeafLabelsSection] || labels.size() != num_leaves) {
      return SnapshotError("leaf labels section size mismatch");
    }
  }

  std::vector<int64_t> roots;
  roots.reserve(num_roots);
  for (uint64_t i = 0; i < num_roots; ++i) {
    roots.push_back(static_cast<int64_t>(ReadU64At(roots_bytes.data() + 8 * i)));
  }
  std::vector<FlatNode> nodes(num_nodes);
  for (uint64_t i = 0; i < num_nodes; ++i) {
    const uint8_t* rec = nodes_bytes.data() + sizeof(FlatNode) * i;
    nodes[i].ft = ReadU64At(rec);
    nodes[i].child[0] = static_cast<int64_t>(ReadU64At(rec + 8));
    nodes[i].child[1] = static_cast<int64_t>(ReadU64At(rec + 16));
    nodes[i].pad = 0;
  }
  std::vector<int8_t> leaf_labels;
  std::vector<double> leaf_values;
  if (is_regression) {
    leaf_values.reserve(num_leaves);
    for (uint64_t i = 0; i < num_leaves; ++i) {
      leaf_values.push_back(std::bit_cast<double>(
          ReadU64At(payloads[kLeafValuesSection].data() + 8 * i)));
    }
  } else {
    const std::span<const uint8_t> labels = payloads[kLeafLabelsSection];
    leaf_labels.reserve(num_leaves);
    for (uint8_t b : labels) leaf_labels.push_back(static_cast<int8_t>(b));
  }

  Result<FlatEnsemble> ensemble = FlatEnsemble::FromParts(
      std::move(nodes), std::move(roots), std::move(leaf_labels),
      std::move(leaf_values), static_cast<size_t>(num_features), is_regression,
      initial_score, learning_rate);
  if (!ensemble.ok()) {
    // Structural rejection of intact bytes is still a decode failure: the
    // snapshot API's whole contract is ParseError on any bad input.
    return SnapshotError("invalid arena: " + ensemble.status().message());
  }
  return ensemble;
}

Status SaveEnsembleSnapshot(const FlatEnsemble& ensemble, const std::string& path) {
  const std::vector<uint8_t> bytes = EncodeEnsembleSnapshot(ensemble);
  return WriteStringToFile(
      path, std::string_view(reinterpret_cast<const char*>(bytes.data()),
                             bytes.size()));
}

Result<FlatEnsemble> LoadEnsembleSnapshot(const std::string& path) {
  TREEWM_ASSIGN_OR_RETURN(std::string contents, ReadFileToString(path));
  std::vector<uint8_t> bytes(contents.begin(), contents.end());
  // Fault site: flip one bit of the file image between read and decode, so
  // the registry cold-start path can rehearse a corrupt model file without
  // one existing on disk.
  if (!bytes.empty() && TREEWM_FAULT_FIRED("serve.registry.snapshot.corrupt")) {
    bytes[bytes.size() / 2] ^= 0x10;
  }
  return DecodeEnsembleSnapshot(bytes);
}

}  // namespace treewm::io
