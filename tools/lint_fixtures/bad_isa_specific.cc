// Fixture: CPU-specific code outside src/common/crc32.cc, the one file that
// compiles a kernel for a CPU feature and checks for it at run time. Each
// marked line must fire exactly isa-specific.
// NEVER compiled — consumed by tools/lint_invariants.py --self-test.

#include <cstdint>  // a portable header is outside the rule
#include <immintrin.h>  // expect-lint: isa-specific
#include <x86intrin.h>  // expect-lint: isa-specific
#  include <wmmintrin.h>  // expect-lint: isa-specific

namespace fixture {

__attribute__((target("avx2"))) int Wide(int x) { return x; }  // expect-lint: isa-specific
__attribute__((hot, __target__("sse4.2"))) int Hot(int x) { return x; }  // expect-lint: isa-specific
[[gnu::target("pclmul")]] int Folded(int x) { return x; }  // expect-lint: isa-specific
__attribute__((target_clones("avx2", "default"))) int Cloned(int x) { return x; }  // expect-lint: isa-specific

inline bool HasAvx2() {
  __builtin_cpu_init();  // expect-lint: isa-specific
  return __builtin_cpu_supports("avx2");  // expect-lint: isa-specific
}

// None of these may fire: a comment naming <immintrin.h>, target("avx2") or
// __builtin_cpu_supports, a string holding one, and a variable named target.
inline int Plain(int target) { return target + 1; }
inline const char* Note() { return "__builtin_cpu_supports"; }
inline int Shifted(int x) {
  int target(x);
  return target << 1;
}

}  // namespace fixture
