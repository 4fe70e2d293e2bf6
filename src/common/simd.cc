#include "common/simd.h"

namespace spq::simd {

bool Avx2Available() {
#if defined(__x86_64__) || defined(__i386__)
  static const bool available = __builtin_cpu_supports("avx2");
  return available;
#else
  return false;
#endif
}

}  // namespace spq::simd
