#ifndef REMAC_MATRIX_SIMD_LANES_H_
#define REMAC_MATRIX_SIMD_LANES_H_

#include <bit>
#include <cstdint>

/// \brief Vector-lane helpers shared by the dense multiply's register tiles
/// (gemm.cc) and the sparse x dense cores (sparse_dense.cc). Internal to
/// the kernel layer.
///
/// The AVX2 and AVX-512F code is compiled (behind a runtime CPU check,
/// ActiveGemmIsa) only for x86-64 GCC/Clang; everything else runs the
/// scalar paths. No helper contracts a multiply and an add into an FMA,
/// so every lane rounds exactly like the scalar `acc += v * b`.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define REMAC_KERNEL_X86 1
#include <immintrin.h>
#else
#define REMAC_KERNEL_X86 0
#endif

#if REMAC_KERNEL_X86
namespace remac {
namespace internal {

// Compiled for AVX2 via the target attribute instead of a TU-wide flag, so
// the rest of the build keeps the baseline ISA. AVX2 does not imply FMA,
// so nothing here can be contracted: every lane rounds exactly like the
// scalar `acc += v * b`.
#define REMAC_AVX2 __attribute__((target("avx2")))

/// Lanes [0, count) set: the mask of a partial vector (count in 1..4).
REMAC_AVX2 inline __m256i LaneMask(int64_t count) {
  return _mm256_cmpgt_epi64(_mm256_set1_epi64x(count),
                            _mm256_setr_epi64x(0, 1, 2, 3));
}

REMAC_AVX2 inline __m256d Load(const double* p, bool masked, __m256i mask) {
  return masked ? _mm256_maskload_pd(p, mask) : _mm256_loadu_pd(p);
}

REMAC_AVX2 inline void Store(double* p, __m256d v, bool masked, __m256i mask) {
  if (masked) {
    _mm256_maskstore_pd(p, mask, v);
  } else {
    _mm256_storeu_pd(p, v);
  }
}

/// Non-zero (`!= 0.0`: unordered compare, so NaN counts) lanes among the
/// first `lanes` of v.
REMAC_AVX2 inline int64_t NonZeroLanes(__m256d v, int64_t lanes) {
  const int bits = _mm256_movemask_pd(
      _mm256_cmp_pd(v, _mm256_setzero_pd(), _CMP_NEQ_UQ));
  return std::popcount(static_cast<unsigned>(bits) & ((1u << lanes) - 1u));
}

/// The reference kernel's `if (v == 0.0) continue; acc += v * b;` without
/// a branch, in separate mul and add (never FMA). Lanes whose left value is
/// ±0 add +0.0 instead of v * b, so 0 * Inf and 0 * NaN never reach acc,
/// and acc + (+0.0) == acc bit for bit because an accumulator is never
/// -0.0: it starts at +0.0, and under round-to-nearest a sum is -0.0 only
/// when both addends are. This masked addend measured about 20% faster on
/// the tall-skinny shapes than blendv(acc + v * b, acc, v == 0).
REMAC_AVX2 inline __m256d MulAddSkip(__m256d acc, __m256d v, __m256d b) {
  const __m256d skip = _mm256_cmp_pd(v, _mm256_setzero_pd(), _CMP_EQ_OQ);
  return _mm256_add_pd(acc, _mm256_andnot_pd(skip, _mm256_mul_pd(v, b)));
}

/// `acc += v * b` in every lane, as a separate mul and add.
REMAC_AVX2 inline __m256d MulAdd(__m256d acc, __m256d v, __m256d b) {
  return _mm256_add_pd(acc, _mm256_mul_pd(v, b));
}

// AVX-512F brings FMA with it, so here the rule that nothing contracts is
// kept by construction rather than by the ISA: every add is the masked-add
// builtin, which the compiler never fuses with the multiply feeding it.
// `_mm512_add_pd` is a plain vector `+` in GCC's headers, and under the
// default -ffp-contract=fast GCC does fuse it with a `_mm512_mul_pd`.
#define REMAC_AVX512 __attribute__((target("avx512f")))

/// Lanes [0, count) set (count in 1..8).
REMAC_AVX512 inline __mmask8 LaneMask8(int64_t count) {
  return static_cast<__mmask8>((1u << count) - 1u);
}

REMAC_AVX512 inline __m512d Load8(const double* p, bool masked,
                                  __mmask8 mask) {
  return masked ? _mm512_maskz_loadu_pd(mask, p) : _mm512_loadu_pd(p);
}

REMAC_AVX512 inline void Store8(double* p, __m512d v, bool masked,
                                __mmask8 mask) {
  if (masked) {
    _mm512_mask_storeu_pd(p, mask, v);
  } else {
    _mm512_storeu_pd(p, v);
  }
}

/// Lanes of v that are `!= 0.0` (unordered compare: NaN is non-zero).
REMAC_AVX512 inline __mmask8 NonZero8(__m512d v) {
  return _mm512_cmp_pd_mask(v, _mm512_setzero_pd(), _CMP_NEQ_UQ);
}

/// The reference kernel's `if (v == 0.0) continue; acc += v * b;` per
/// lane: the add is masked to the lanes whose left value is non-zero, so a
/// skipped lane keeps acc's exact bits (no +0.0 is added, and 0 * Inf or
/// 0 * NaN never reaches acc).
REMAC_AVX512 inline __m512d MulAddSkip8(__m512d acc, __mmask8 nonzero,
                                        __m512d v, __m512d b) {
  return _mm512_mask_add_pd(acc, nonzero, acc, _mm512_mul_pd(v, b));
}

/// `acc += v * b` in every lane: the masked-add builtin with a full mask,
/// so the add is never contracted with the multiply.
REMAC_AVX512 inline __m512d MulAdd8(__m512d acc, __m512d v, __m512d b) {
  return _mm512_mask_add_pd(acc, __mmask8{0xff}, acc, _mm512_mul_pd(v, b));
}

}  // namespace internal
}  // namespace remac
#endif  // REMAC_KERNEL_X86

#endif  // REMAC_MATRIX_SIMD_LANES_H_
