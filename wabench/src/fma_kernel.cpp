// The FMA peak probe's kernels.  This file is compiled with AVX2+FMA
// code generation when the toolchain supports it -- the same flags the
// library gives its SIMD gemm -- and the caller runs the SIMD loop only
// on a CPU that reports both extensions.
#include "probes.hpp"

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif

namespace wabench {

#if defined(__AVX2__) && defined(__FMA__)
bool fma_simd_built() { return true; }

// Ten independent accumulator chains cover the FMA latency of two
// pipes; a = a * x + y converges, so no value overflows.
double fma_simd_loop(std::size_t iters) {
  const __m256d x = _mm256_set1_pd(0.999);
  const __m256d y = _mm256_set1_pd(0.001);
  __m256d a[10];
  for (int j = 0; j < 10; ++j) a[j] = _mm256_set1_pd(1.0 + 0.01 * j);
  for (std::size_t i = 0; i < iters; ++i) {
    for (int j = 0; j < 10; ++j) a[j] = _mm256_fmadd_pd(a[j], x, y);
  }
  __m256d s = a[0];
  for (int j = 1; j < 10; ++j) s = _mm256_add_pd(s, a[j]);
  double out[4];
  _mm256_storeu_pd(out, s);
  return out[0] + out[1] + out[2] + out[3];
}
#else
bool fma_simd_built() { return false; }
double fma_simd_loop(std::size_t) { return 0.0; }
#endif

}  // namespace wabench
