#ifndef SPQ_COMMON_SIMD_H_
#define SPQ_COMMON_SIMD_H_

namespace spq::simd {

/// True when the running CPU reports AVX2. No library code branches on it;
/// benchmarks print it as a fact about the host they ran on.
bool Avx2Available();

}  // namespace spq::simd

#endif  // SPQ_COMMON_SIMD_H_
