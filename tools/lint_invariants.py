#!/usr/bin/env python3
"""treewm project-invariant linter.

Enforces repo-wide invariants that the compiler cannot (or that we only
enforce under clang, which not every build host has):

  naked-primitive   std::mutex / std::condition_variable / std::thread
                    outside src/common/. Concurrency primitives live behind
                    the annotated wrappers in src/common/mutex.h and
                    src/common/thread_pool.h so clang's -Wthread-safety
                    analysis sees every lock. (Scope: src/, tests/, bench/.)
  unseeded-random   rand()/srand()/std::random_device in src/. All
                    randomness flows through the seeded common/rng.h so
                    results are reproducible. (Exempt: src/common/rng.*.)
  fault-site        Every TREEWM_FAULT_FIRED site name is unique across
                    src/ (one name == one code site, so arming a fault has
                    one well-defined blast radius) and documented in the
                    fault-site catalog table in src/serve/README.md.
  sleep-in-test     std::this_thread::sleep_for/sleep_until in tests/.
                    Deadline logic is tested with FakeClock + Pump();
                    a sleep in a test is either flaky or slow.
  untagged-discard  A `(void)expr;` cast without a `// discard ok: <why>`
                    comment on the same line or the two lines above.
                    Status/Result are [[nodiscard]]; the cast is the
                    sanctioned suppression and must carry its reason.
  private-pool      A ThreadPool constructed with more than one worker in
                    src/ outside src/common/. The caller owns the pool a
                    call fans out on (a ThreadPool* in its config); the
                    library builds only one-worker pools, each a dedicated
                    thread (serve's dispatcher and poll loop).
  layer-include     A project #include that reaches above its file's layer.
                    In src/common/ it may name only common/; in src/data/
                    common/ and data/; in src/tree/ common/, data/ and
                    tree/. The layers the engines build on compile and
                    test without them, and no include cycle can form.
  isa-specific      CPU-specific code in src/ outside src/common/crc32.cc:
                    an x86 intrinsics header (<immintrin.h>, <x86intrin.h>,
                    <*mmintrin.h>), a target(...) function attribute, or a
                    __builtin_cpu_* query. The build is baseline x86-64;
                    the CRC's carry-less-multiply kernel is the one place
                    that compiles for a feature and checks the CPU at run
                    time, beside a portable path that computes the same
                    result. (Exempt: src/common/crc32.cc.)

Waiver: a `// lint ok: <reason>` comment on the offending line or within the
two lines above (so the reason can wrap) suppresses all rules for that line.
Use sparingly; the reason is mandatory and reviewed.

Usage:
  tools/lint_invariants.py [--root DIR]   lint the tree; exit 0 clean, 1 dirty
  tools/lint_invariants.py --self-test    run the fixtures in
                                          tools/lint_fixtures/ and verify each
                                          `// expect-lint: <rule-id>` marker
                                          fires exactly its rule

Output format (one finding per line):  path:line: [rule-id] message
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import Dict, List, NamedTuple, Optional, Tuple


class Finding(NamedTuple):
    path: str
    line: int  # 1-based
    rule: str
    message: str


# ---------------------------------------------------------------------------
# Source model: per line, the code with comments/strings blanked out, plus the
# comment text (where tags like `discard ok:` / `lint ok:` live).
# ---------------------------------------------------------------------------

class SourceLine(NamedTuple):
    raw: str
    code: str     # string/char literals replaced by "", comments removed
    comment: str  # concatenated comment text on this line


def split_lines(text: str) -> List[SourceLine]:
    """Single-pass scanner handling //, /* */, "..." and '...' well enough
    for this codebase (no raw strings, no trigraphs)."""
    out: List[SourceLine] = []
    in_block = False
    for raw in text.splitlines():
        code: List[str] = []
        comment: List[str] = []
        i, n = 0, len(raw)
        while i < n:
            c = raw[i]
            if in_block:
                end = raw.find("*/", i)
                if end < 0:
                    comment.append(raw[i:])
                    i = n
                else:
                    comment.append(raw[i:end])
                    i = end + 2
                    in_block = False
                continue
            if c == "/" and i + 1 < n and raw[i + 1] == "/":
                comment.append(raw[i + 2:])
                i = n
            elif c == "/" and i + 1 < n and raw[i + 1] == "*":
                in_block = True
                i += 2
            elif c == '"' or c == "'":
                quote = c
                i += 1
                while i < n:
                    if raw[i] == "\\":
                        i += 2
                    elif raw[i] == quote:
                        i += 1
                        break
                    else:
                        i += 1
                code.append('""' if quote == '"' else "''")
            else:
                code.append(c)
                i += 1
        out.append(SourceLine(raw, "".join(code), " ".join(comment)))
    return out


def has_tag(lines: List[SourceLine], idx: int, tag: str, lookback: int) -> bool:
    for j in range(max(0, idx - lookback), idx + 1):
        if tag in lines[j].comment:
            return True
    return False


def waived(lines: List[SourceLine], idx: int) -> bool:
    return has_tag(lines, idx, "lint ok:", lookback=2)


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

NAKED_PRIMITIVE_RE = re.compile(
    r"\bstd::(mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|condition_variable(?:_any)?|"
    r"thread|jthread)\b")
# std::thread::hardware_concurrency is a static query, not a thread.
HARDWARE_CONCURRENCY_RE = re.compile(r"std::thread::hardware_concurrency")

UNSEEDED_RANDOM_RE = re.compile(r"\bstd::random_device\b|\bs?rand\s*\(")

SLEEP_RE = re.compile(r"\bsleep_(for|until)\s*\(")

# A (void) cast applied to an expression (not a `f(void)` parameter list).
DISCARD_RE = re.compile(r"\(\s*void\s*\)\s*[A-Za-z_:(!~*]")

FAULT_SITE_RE = re.compile(r"TREEWM_FAULT_FIRED\s*\(\s*\"([^\"]+)\"")

# A project include's top directory, e.g. "predict" in "predict/vote_matrix.h".
PROJECT_INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"/]+)/')

# The bottom layers of src/ and the directories each may include.
LAYER_INCLUDES = {
    "common": ("common",),
    "data": ("common", "data"),
    "tree": ("common", "data", "tree"),
}

# CPU-specific code: an x86 intrinsics header, a target / target_clones
# function attribute (GNU or C++11 spelling), or a CPU feature query.
ISA_HEADER_RE = re.compile(r"^\s*#\s*include\s*<\s*(?:x86intrin|\w*mmintrin)\.h\s*>")
ISA_TARGET_RE = re.compile(
    r"(?:\b__attribute__\s*\(\(.*|\bgnu::)\b(?:__)?target(?:_clones)?(?:__)?\s*\(")
ISA_CPU_QUERY_RE = re.compile(r"\b__builtin_cpu_(?:supports|is|init)\b")

# The one file that may hold CPU-specific code.
ISA_EXEMPT = "src/common/crc32.cc"

# A ThreadPool construction and its worker-count argument: make_unique /
# make_shared, `new`, or a named variable.
POOL_CONSTRUCTION_RE = re.compile(
    r"\bmake_(?:unique|shared)\s*<\s*(?:treewm::)?ThreadPool\s*>\s*\(([^()]*)\)"
    r"|\bnew\s+(?:treewm::)?ThreadPool\s*[({]([^(){}]*)[)}]"
    r"|\bThreadPool\s+\w+\s*[({]([^(){}]*)[)}]")


def lint_file(path: str, rel: str, scopes: List[str],
              layer: Optional[str] = None) -> Tuple[List[Finding], List[Tuple[str, int]]]:
    """Returns (findings, fault_sites) for one file. `scopes` is the subset of
    {"concurrency", "random", "test", "discard", "fault", "pool", "isa"}
    that applies; `layer` is the LAYER_INCLUDES key whose includes it must
    keep, if any."""
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            lines = split_lines(f.read())
    except OSError as e:
        return [Finding(rel, 0, "io", f"unreadable: {e}")], []

    findings: List[Finding] = []
    fault_sites: List[Tuple[str, int]] = []
    for idx, ln in enumerate(lines):
        lineno = idx + 1
        if "fault" in scopes:
            # Match on raw (names live in string literals) but require the
            # macro in code so commented-out sites don't register.
            if "TREEWM_FAULT_FIRED" in ln.code:
                for m in FAULT_SITE_RE.finditer(ln.raw):
                    fault_sites.append((m.group(1), lineno))
        if waived(lines, idx):
            continue
        code = ln.code
        if "concurrency" in scopes:
            code_nc = HARDWARE_CONCURRENCY_RE.sub("", code)
            m = NAKED_PRIMITIVE_RE.search(code_nc)
            if m:
                findings.append(Finding(
                    rel, lineno, "naked-primitive",
                    f"naked std::{m.group(1)} outside src/common/ — use the "
                    "annotated wrappers in common/mutex.h / common/thread_pool.h"))
        if "random" in scopes and UNSEEDED_RANDOM_RE.search(code):
            findings.append(Finding(
                rel, lineno, "unseeded-random",
                "unseeded randomness in src/ — use the seeded treewm::Rng "
                "(common/rng.h) so runs are reproducible"))
        if "test" in scopes and SLEEP_RE.search(code):
            findings.append(Finding(
                rel, lineno, "sleep-in-test",
                "sleep_for/sleep_until in tests/ — drive time with FakeClock "
                "and Pump() instead"))
        if "pool" in scopes:
            for m in POOL_CONSTRUCTION_RE.finditer(code):
                workers = next(g for g in m.groups() if g is not None).strip()
                if workers != "1":
                    findings.append(Finding(
                        rel, lineno, "private-pool",
                        f"ThreadPool built with {workers or 'default'} workers "
                        "in src/ — take the caller's ThreadPool* instead; only "
                        "a one-worker pool (a dedicated thread) is allowed"))
        if "isa" in scopes and (ISA_HEADER_RE.search(code) or
                                ISA_TARGET_RE.search(code) or
                                ISA_CPU_QUERY_RE.search(code)):
            findings.append(Finding(
                rel, lineno, "isa-specific",
                f"CPU-specific code outside {ISA_EXEMPT} — src/ builds for "
                "baseline x86-64 and keeps one portable path"))
        if layer is not None and code.lstrip().startswith("#"):
            # Names live in string literals: match the raw line.
            m = PROJECT_INCLUDE_RE.match(ln.raw)
            if m and m.group(1) not in LAYER_INCLUDES[layer]:
                allowed = ", ".join(f"{d}/" for d in LAYER_INCLUDES[layer])
                findings.append(Finding(
                    rel, lineno, "layer-include",
                    f"src/{layer}/ includes {m.group(1)}/ — it may include "
                    f"only {allowed}"))
        if "discard" in scopes and DISCARD_RE.search(code):
            if not has_tag(lines, idx, "discard ok:", lookback=2):
                findings.append(Finding(
                    rel, lineno, "untagged-discard",
                    "(void) cast without a `// discard ok: <reason>` comment "
                    "on the same line or the two lines above"))
    return findings, fault_sites


def scopes_for(rel: str) -> List[str]:
    """Which rules apply to a repo-relative path."""
    rel = rel.replace(os.sep, "/")
    scopes: List[str] = ["discard"]
    in_src = rel.startswith("src/")
    in_common = rel.startswith("src/common/")
    if not in_common:
        scopes.append("concurrency")
        if in_src:
            scopes.append("pool")
    if in_src:
        scopes.append("fault")
        if rel not in ("src/common/rng.h", "src/common/rng.cc"):
            scopes.append("random")
        if rel != ISA_EXEMPT:
            scopes.append("isa")
    if rel.startswith("tests/"):
        scopes.append("test")
    return scopes


def layer_of(rel: str) -> Optional[str]:
    """The LAYER_INCLUDES key of a repo-relative path, or None."""
    parts = rel.replace(os.sep, "/").split("/")
    if len(parts) > 2 and parts[0] == "src" and parts[1] in LAYER_INCLUDES:
        return parts[1]
    return None


def check_fault_sites(sites: Dict[str, List[Tuple[str, int]]],
                      readme_path: str) -> List[Finding]:
    """sites: name -> [(rel, line), ...]. Uniqueness + catalog check."""
    findings: List[Finding] = []
    try:
        with open(readme_path, encoding="utf-8") as f:
            readme = f.read()
    except OSError:
        readme = None
    for name in sorted(sites):
        occurrences = sites[name]
        if len(occurrences) > 1:
            first = occurrences[0]
            for rel, line in occurrences[1:]:
                findings.append(Finding(
                    rel, line, "fault-site",
                    f'duplicate fault site "{name}" (first at '
                    f"{first[0]}:{first[1]}) — one name == one code site"))
        if readme is not None and f"`{name}`" not in readme:
            rel, line = occurrences[0]
            findings.append(Finding(
                rel, line, "fault-site",
                f'fault site "{name}" missing from the catalog table in '
                "src/serve/README.md"))
    if readme is None:
        findings.append(Finding(
            os.path.relpath(readme_path), 0, "fault-site",
            "src/serve/README.md (fault-site catalog) not found"))
    return findings


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------

SOURCE_EXTS = (".h", ".cc")
LINT_DIRS = ("src", "tests", "bench")


def iter_sources(root: str):
    for top in LINT_DIRS:
        base = os.path.join(root, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTS):
                    path = os.path.join(dirpath, name)
                    yield path, os.path.relpath(path, root)


def lint_tree(root: str) -> List[Finding]:
    findings: List[Finding] = []
    all_sites: Dict[str, List[Tuple[str, int]]] = {}
    for path, rel in iter_sources(root):
        file_findings, fault_sites = lint_file(path, rel, scopes_for(rel), layer_of(rel))
        findings.extend(file_findings)
        for name, line in fault_sites:
            all_sites.setdefault(name, []).append((rel, line))
    findings.extend(check_fault_sites(
        all_sites, os.path.join(root, "src", "serve", "README.md")))
    return findings


EXPECT_RE = re.compile(r"expect-lint:\s*([a-z-]+)")


def self_test(root: str) -> int:
    """Every fixture line marked `// expect-lint: rule` must fire exactly that
    rule; nothing else may fire; the clean fixture must be silent."""
    fixture_dir = os.path.join(root, "tools", "lint_fixtures")
    if not os.path.isdir(fixture_dir):
        print(f"self-test: fixture dir not found: {fixture_dir}")
        return 1
    failures = 0
    readme = os.path.join(root, "src", "serve", "README.md")
    for name in sorted(os.listdir(fixture_dir)):
        if not name.endswith(SOURCE_EXTS):
            continue
        path = os.path.join(fixture_dir, name)
        with open(path, encoding="utf-8") as f:
            lines = split_lines(f.read())
        expected: Dict[int, str] = {}
        for idx, ln in enumerate(lines):
            m = EXPECT_RE.search(ln.comment)
            if m:
                expected[idx + 1] = m.group(1)
        # Fixtures get every rule: they stand in for worst-placed code, and
        # for the layer rule they stand in for src/tree/ files.
        findings, fault_sites = lint_file(
            path, name,
            ["concurrency", "random", "test", "discard", "fault", "pool", "isa"],
            layer="tree")
        sites: Dict[str, List[Tuple[str, int]]] = {}
        for site, line in fault_sites:
            sites.setdefault(site, []).append((name, line))
        findings.extend(check_fault_sites(sites, readme))
        got: Dict[int, List[str]] = {}
        for f_ in findings:
            got.setdefault(f_.line, []).append(f_.rule)
        ok = True
        for line, rule in expected.items():
            if got.get(line) != [rule]:
                print(f"self-test FAIL {name}:{line}: expected [{rule}], "
                      f"got {got.get(line, [])}")
                ok = False
        for line, rules in got.items():
            if line not in expected:
                print(f"self-test FAIL {name}:{line}: unexpected {rules}")
                ok = False
        if ok:
            verdict = "clean" if not expected else f"{len(expected)} expected findings"
            print(f"self-test ok   {name}: {verdict}")
        else:
            failures += 1
    if failures:
        print(f"self-test: {failures} fixture(s) failed")
        return 1
    print("self-test: all fixtures behave")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of this script's dir)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the linter against tools/lint_fixtures/")
    args = parser.parse_args()
    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    if args.self_test:
        return self_test(root)
    findings = lint_tree(root)
    for f_ in sorted(findings):
        print(f"{f_.path}:{f_.line}: [{f_.rule}] {f_.message}")
    if findings:
        print(f"lint_invariants: {len(findings)} finding(s)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
