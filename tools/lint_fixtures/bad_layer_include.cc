// Fixture: a tree-layer file including the layers built on top of it. The
// self-test lints every fixture as a src/tree/ file; each marked line must
// fire exactly layer-include.
// NEVER compiled — consumed by tools/lint_invariants.py --self-test.

#include <memory>  // system headers are outside the rule

#include "common/status.h"
#include "data/dataset.h"
#include "tree/sorted_columns.h"
#include "predict/flat_cache.h"  // expect-lint: layer-include
#include "forest/random_forest.h"  // expect-lint: layer-include
#  include "serve/request.h"  // expect-lint: layer-include

// A commented-out include must NOT fire:
// #include "predict/batch_predictor.h"
