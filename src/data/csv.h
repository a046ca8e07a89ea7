// CSV import for Dataset.
//
// Format: one row per line, comma-separated floats, label in a designated
// column (default: last). Labels may be +1/-1 or 0/1 (0 maps to -1).

#ifndef TREEWM_DATA_CSV_H_
#define TREEWM_DATA_CSV_H_

#include <string>

#include "common/status.h"
#include "data/dataset.h"

namespace treewm::data {

/// Options controlling CSV parsing.
struct CsvOptions {
  /// If true, the first line is a header and is skipped.
  bool has_header = false;
  /// Column index holding the label; -1 means the last column.
  int label_column = -1;
};

/// Loads a dataset from `path`.
[[nodiscard]] Result<Dataset> LoadCsv(const std::string& path, const CsvOptions& options = {});

/// Parses a dataset from in-memory CSV `text`.
[[nodiscard]] Result<Dataset> ParseCsv(const std::string& text, const CsvOptions& options = {});

}  // namespace treewm::data

#endif  // TREEWM_DATA_CSV_H_
