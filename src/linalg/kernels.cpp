#include "linalg/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>
#include <type_traits>
#include <vector>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define SPC_X86_MICROKERNELS 1
#endif

#include "support/error.hpp"
#include "support/sync.hpp"

namespace spc {
namespace {

// ---------------------------------------------------------------------------
// Packed GEMM core: C := C - A * B^T on column-major, lda/ldb/ldc-strided
// storage. Panels of A and B are packed into contiguous micro-tiles so the
// register micro-kernel streams them with unit stride regardless of the
// caller's leading dimensions.
//
// Tile sizes: the A panel (kMC x kKC doubles = 96 KiB max) lives in L2, the
// active B strip (kKC x kNR) and A strip (kKC x kMR) in L1; the kMR x kNR
// accumulator block stays in registers across the whole k-loop.
//
// The cache blocking constants are SHARED across every ISA path and element
// type: identical k-panel boundaries plus the one-FMA-per-element-per-rank
// micro-kernels below are what make the packed path's results bitwise
// identical under SPC_FORCE_ISA (kMC must stay divisible by every mr: 4, 8,
// 16, 32).
// ---------------------------------------------------------------------------
constexpr idx kMC = 96;
constexpr idx kKC = 128;
constexpr idx kNC = 512;

// Pack a rows x kc panel (top-left at `src`) into R-row strips, zero-padding
// the last strip to a full R rows. Packing A uses R = MR; packing B with the
// same routine effectively packs B^T in NR-row strips.
template <int R, typename T>
void pack_panel(const T* src, idx ld, idx rows, idx kc, T* dst) {
  for (idx i = 0; i < rows; i += R) {
    const idx r_count = std::min<idx>(R, rows - i);
    for (idx p = 0; p < kc; ++p) {
      const T* col = src + static_cast<std::size_t>(p) * ld + i;
      idx r = 0;
      for (; r < r_count; ++r) dst[r] = col[r];
      for (; r < R; ++r) dst[r] = T(0);
      dst += R;
    }
  }
}

// Transposing variant: logical operand row r lives in STORAGE COLUMN r of
// src (logical element (r, p) = src[r * ld + p]), so each packed strip row
// streams a contiguous storage column. This is how the NN/TN solve GEMMs
// feed the same micro-kernels: packing B (stored k x n) through this yields
// the B^T-by-NR-strips layout the kernel expects, and likewise for A^T.
template <int R, typename T>
void pack_panel_trans(const T* src, idx ld, idx rows, idx kc, T* dst) {
  for (idx i = 0; i < rows; i += R) {
    const idx r_count = std::min<idx>(R, rows - i);
    T* out = dst;
    for (idx r = 0; r < r_count; ++r) {
      const T* col = src + static_cast<std::size_t>(i + r) * ld;
      for (idx p = 0; p < kc; ++p) out[static_cast<std::size_t>(p) * R + r] = col[p];
    }
    for (idx r = r_count; r < R; ++r) {
      for (idx p = 0; p < kc; ++p) out[static_cast<std::size_t>(p) * R + r] = T(0);
    }
    dst += static_cast<std::size_t>(R) * kc;
  }
}

// Portable 4x4 micro-kernel: acc = sum_p a_strip(:,p) * b_strip(:,p)^T, then
// C(0:mr, 0:nr) -= acc (accumulate) or C = 0 - acc (overwrite, for callers
// whose C is uninitialized scratch). Each accumulator element advances with
// exactly ONE fused multiply-add per rank — the same per-element arithmetic
// as the SIMD kernels below. fma is exactly rounded, so libm fma, scalar
// vfmadd, and vector vfmadd all produce the same bits; together with the
// shared cache blocking this makes every packed GEMM bitwise identical
// across the scalar/avx2/avx512 paths. (Overwrite stores spell 0 - acc, not
// -acc, so a +0.0 accumulator lands as +0.0 on every path.)
template <typename T>
__attribute__((always_inline)) inline void micro_kernel_4x4_body(
    idx kc, const T* ap, const T* bp, T* c, idx ldc, idx mr, idx nr,
    bool accumulate) {
  T acc[16] = {};
  for (idx p = 0; p < kc; ++p) {
    const T a0 = ap[0], a1 = ap[1], a2 = ap[2], a3 = ap[3];
    const T b0 = bp[0], b1 = bp[1], b2 = bp[2], b3 = bp[3];
    acc[0] = std::fma(a0, b0, acc[0]);
    acc[1] = std::fma(a1, b0, acc[1]);
    acc[2] = std::fma(a2, b0, acc[2]);
    acc[3] = std::fma(a3, b0, acc[3]);
    acc[4] = std::fma(a0, b1, acc[4]);
    acc[5] = std::fma(a1, b1, acc[5]);
    acc[6] = std::fma(a2, b1, acc[6]);
    acc[7] = std::fma(a3, b1, acc[7]);
    acc[8] = std::fma(a0, b2, acc[8]);
    acc[9] = std::fma(a1, b2, acc[9]);
    acc[10] = std::fma(a2, b2, acc[10]);
    acc[11] = std::fma(a3, b2, acc[11]);
    acc[12] = std::fma(a0, b3, acc[12]);
    acc[13] = std::fma(a1, b3, acc[13]);
    acc[14] = std::fma(a2, b3, acc[14]);
    acc[15] = std::fma(a3, b3, acc[15]);
    ap += 4;
    bp += 4;
  }
  if (accumulate && mr == 4 && nr == 4) {
    for (idx jr = 0; jr < 4; ++jr) {
      T* cj = c + static_cast<std::size_t>(jr) * ldc;
      const T* aj = acc + jr * 4;
      cj[0] -= aj[0];
      cj[1] -= aj[1];
      cj[2] -= aj[2];
      cj[3] -= aj[3];
    }
  } else if (accumulate) {
    for (idx jr = 0; jr < nr; ++jr) {
      T* cj = c + static_cast<std::size_t>(jr) * ldc;
      for (idx ir = 0; ir < mr; ++ir) cj[ir] -= acc[jr * 4 + ir];
    }
  } else {
    for (idx jr = 0; jr < nr; ++jr) {
      T* cj = c + static_cast<std::size_t>(jr) * ldc;
      for (idx ir = 0; ir < mr; ++ir) cj[ir] = T(0) - acc[jr * 4 + ir];
    }
  }
}

void micro_kernel_4x4_d(idx kc, const double* ap, const double* bp, double* c,
                        idx ldc, idx mr, idx nr, bool accumulate) {
  micro_kernel_4x4_body<double>(kc, ap, bp, c, ldc, mr, nr, accumulate);
}

void micro_kernel_4x4_f(idx kc, const float* ap, const float* bp, float* c,
                        idx ldc, idx mr, idx nr, bool accumulate) {
  micro_kernel_4x4_body<float>(kc, ap, bp, c, ldc, mr, nr, accumulate);
}

#if SPC_X86_MICROKERNELS
// FMA-target clones of the portable kernel: std::fma inlines to vfmadd
// instead of the baseline libm call. Bitwise identical to the baseline
// clones (fma is exactly rounded), so the scalar table may pick these on
// FMA-capable hosts purely for speed.
__attribute__((target("avx,fma"))) void micro_kernel_4x4_d_fma(
    idx kc, const double* ap, const double* bp, double* c, idx ldc, idx mr,
    idx nr, bool accumulate) {
  micro_kernel_4x4_body<double>(kc, ap, bp, c, ldc, mr, nr, accumulate);
}

__attribute__((target("avx,fma"))) void micro_kernel_4x4_f_fma(
    idx kc, const float* ap, const float* bp, float* c, idx ldc, idx mr,
    idx nr, bool accumulate) {
  micro_kernel_4x4_body<float>(kc, ap, bp, c, ldc, mr, nr, accumulate);
}

// AVX2+FMA 8x4 micro-kernel, compiled with a target attribute and selected
// at runtime (the library itself is built for baseline x86-64). Eight ymm
// accumulators stay live across the whole k-loop; each iteration is two
// aligned loads of the packed A strip, four broadcasts from the packed B
// strip, and eight FMAs.
__attribute__((target("avx2,fma"))) void micro_kernel_8x4_avx2(
    idx kc, const double* ap, const double* bp, double* c, idx ldc, idx mr,
    idx nr, bool accumulate) {
  __m256d c00 = _mm256_setzero_pd(), c10 = _mm256_setzero_pd();
  __m256d c01 = _mm256_setzero_pd(), c11 = _mm256_setzero_pd();
  __m256d c02 = _mm256_setzero_pd(), c12 = _mm256_setzero_pd();
  __m256d c03 = _mm256_setzero_pd(), c13 = _mm256_setzero_pd();
  for (idx p = 0; p < kc; ++p) {
    const __m256d a0 = _mm256_loadu_pd(ap);
    const __m256d a1 = _mm256_loadu_pd(ap + 4);
    const __m256d b0 = _mm256_broadcast_sd(bp);
    c00 = _mm256_fmadd_pd(a0, b0, c00);
    c10 = _mm256_fmadd_pd(a1, b0, c10);
    const __m256d b1 = _mm256_broadcast_sd(bp + 1);
    c01 = _mm256_fmadd_pd(a0, b1, c01);
    c11 = _mm256_fmadd_pd(a1, b1, c11);
    const __m256d b2 = _mm256_broadcast_sd(bp + 2);
    c02 = _mm256_fmadd_pd(a0, b2, c02);
    c12 = _mm256_fmadd_pd(a1, b2, c12);
    const __m256d b3 = _mm256_broadcast_sd(bp + 3);
    c03 = _mm256_fmadd_pd(a0, b3, c03);
    c13 = _mm256_fmadd_pd(a1, b3, c13);
    ap += 8;
    bp += 4;
  }
  if (mr == 8 && nr == 4) {
    const __m256d z = _mm256_setzero_pd();
    double* cj = c;
    if (accumulate) {
      _mm256_storeu_pd(cj, _mm256_sub_pd(_mm256_loadu_pd(cj), c00));
      _mm256_storeu_pd(cj + 4, _mm256_sub_pd(_mm256_loadu_pd(cj + 4), c10));
      cj += ldc;
      _mm256_storeu_pd(cj, _mm256_sub_pd(_mm256_loadu_pd(cj), c01));
      _mm256_storeu_pd(cj + 4, _mm256_sub_pd(_mm256_loadu_pd(cj + 4), c11));
      cj += ldc;
      _mm256_storeu_pd(cj, _mm256_sub_pd(_mm256_loadu_pd(cj), c02));
      _mm256_storeu_pd(cj + 4, _mm256_sub_pd(_mm256_loadu_pd(cj + 4), c12));
      cj += ldc;
      _mm256_storeu_pd(cj, _mm256_sub_pd(_mm256_loadu_pd(cj), c03));
      _mm256_storeu_pd(cj + 4, _mm256_sub_pd(_mm256_loadu_pd(cj + 4), c13));
    } else {
      _mm256_storeu_pd(cj, _mm256_sub_pd(z, c00));
      _mm256_storeu_pd(cj + 4, _mm256_sub_pd(z, c10));
      cj += ldc;
      _mm256_storeu_pd(cj, _mm256_sub_pd(z, c01));
      _mm256_storeu_pd(cj + 4, _mm256_sub_pd(z, c11));
      cj += ldc;
      _mm256_storeu_pd(cj, _mm256_sub_pd(z, c02));
      _mm256_storeu_pd(cj + 4, _mm256_sub_pd(z, c12));
      cj += ldc;
      _mm256_storeu_pd(cj, _mm256_sub_pd(z, c03));
      _mm256_storeu_pd(cj + 4, _mm256_sub_pd(z, c13));
    }
  } else {
    double acc[32];
    _mm256_storeu_pd(acc + 0, c00);
    _mm256_storeu_pd(acc + 4, c10);
    _mm256_storeu_pd(acc + 8, c01);
    _mm256_storeu_pd(acc + 12, c11);
    _mm256_storeu_pd(acc + 16, c02);
    _mm256_storeu_pd(acc + 20, c12);
    _mm256_storeu_pd(acc + 24, c03);
    _mm256_storeu_pd(acc + 28, c13);
    if (accumulate) {
      for (idx jr = 0; jr < nr; ++jr) {
        double* cj = c + static_cast<std::size_t>(jr) * ldc;
        for (idx ir = 0; ir < mr; ++ir) cj[ir] -= acc[jr * 8 + ir];
      }
    } else {
      for (idx jr = 0; jr < nr; ++jr) {
        double* cj = c + static_cast<std::size_t>(jr) * ldc;
        for (idx ir = 0; ir < mr; ++ir) cj[ir] = 0.0 - acc[jr * 8 + ir];
      }
    }
  }
}

// AVX-512 16x4 micro-kernel: two zmm loads of the packed A strip, four
// broadcasts from the packed B strip, eight FMAs per rank. Edge tiles
// (mr < 16) use masked loads/stores, so only live C lanes are ever touched.
__attribute__((target("avx512f"))) void micro_kernel_16x4_avx512(
    idx kc, const double* ap, const double* bp, double* c, idx ldc, idx mr,
    idx nr, bool accumulate) {
  __m512d c00 = _mm512_setzero_pd(), c10 = _mm512_setzero_pd();
  __m512d c01 = _mm512_setzero_pd(), c11 = _mm512_setzero_pd();
  __m512d c02 = _mm512_setzero_pd(), c12 = _mm512_setzero_pd();
  __m512d c03 = _mm512_setzero_pd(), c13 = _mm512_setzero_pd();
  for (idx p = 0; p < kc; ++p) {
    const __m512d a0 = _mm512_loadu_pd(ap);
    const __m512d a1 = _mm512_loadu_pd(ap + 8);
    const __m512d b0 = _mm512_set1_pd(bp[0]);
    c00 = _mm512_fmadd_pd(a0, b0, c00);
    c10 = _mm512_fmadd_pd(a1, b0, c10);
    const __m512d b1 = _mm512_set1_pd(bp[1]);
    c01 = _mm512_fmadd_pd(a0, b1, c01);
    c11 = _mm512_fmadd_pd(a1, b1, c11);
    const __m512d b2 = _mm512_set1_pd(bp[2]);
    c02 = _mm512_fmadd_pd(a0, b2, c02);
    c12 = _mm512_fmadd_pd(a1, b2, c12);
    const __m512d b3 = _mm512_set1_pd(bp[3]);
    c03 = _mm512_fmadd_pd(a0, b3, c03);
    c13 = _mm512_fmadd_pd(a1, b3, c13);
    ap += 16;
    bp += 4;
  }
  const __mmask8 m0 = mr >= 8 ? static_cast<__mmask8>(0xFF)
                              : static_cast<__mmask8>((1u << mr) - 1);
  const __mmask8 m1 = mr > 8 ? static_cast<__mmask8>((1u << (mr - 8)) - 1)
                             : static_cast<__mmask8>(0);
  const __m512d z = _mm512_setzero_pd();
  const __m512d lo[4] = {c00, c01, c02, c03};
  const __m512d hi[4] = {c10, c11, c12, c13};
  for (idx jr = 0; jr < nr; ++jr) {
    double* cj = c + static_cast<std::size_t>(jr) * ldc;
    if (accumulate) {
      _mm512_mask_storeu_pd(
          cj, m0,
          _mm512_sub_pd(_mm512_mask_loadu_pd(z, m0, cj), lo[jr]));
      if (m1) {
        _mm512_mask_storeu_pd(
            cj + 8, m1,
            _mm512_sub_pd(_mm512_mask_loadu_pd(z, m1, cj + 8), hi[jr]));
      }
    } else {
      _mm512_mask_storeu_pd(cj, m0, _mm512_sub_pd(z, lo[jr]));
      if (m1) _mm512_mask_storeu_pd(cj + 8, m1, _mm512_sub_pd(z, hi[jr]));
    }
  }
}

// fp32 AVX2 16x4: two ymm of eight floats each; edge tiles spill the
// accumulators and finish with scalar loops (AVX2 has no cheap lane masks).
__attribute__((target("avx2,fma"))) void micro_kernel_16x4_f_avx2(
    idx kc, const float* ap, const float* bp, float* c, idx ldc, idx mr,
    idx nr, bool accumulate) {
  __m256 c00 = _mm256_setzero_ps(), c10 = _mm256_setzero_ps();
  __m256 c01 = _mm256_setzero_ps(), c11 = _mm256_setzero_ps();
  __m256 c02 = _mm256_setzero_ps(), c12 = _mm256_setzero_ps();
  __m256 c03 = _mm256_setzero_ps(), c13 = _mm256_setzero_ps();
  for (idx p = 0; p < kc; ++p) {
    const __m256 a0 = _mm256_loadu_ps(ap);
    const __m256 a1 = _mm256_loadu_ps(ap + 8);
    const __m256 b0 = _mm256_broadcast_ss(bp);
    c00 = _mm256_fmadd_ps(a0, b0, c00);
    c10 = _mm256_fmadd_ps(a1, b0, c10);
    const __m256 b1 = _mm256_broadcast_ss(bp + 1);
    c01 = _mm256_fmadd_ps(a0, b1, c01);
    c11 = _mm256_fmadd_ps(a1, b1, c11);
    const __m256 b2 = _mm256_broadcast_ss(bp + 2);
    c02 = _mm256_fmadd_ps(a0, b2, c02);
    c12 = _mm256_fmadd_ps(a1, b2, c12);
    const __m256 b3 = _mm256_broadcast_ss(bp + 3);
    c03 = _mm256_fmadd_ps(a0, b3, c03);
    c13 = _mm256_fmadd_ps(a1, b3, c13);
    ap += 16;
    bp += 4;
  }
  if (mr == 16 && nr == 4) {
    const __m256 z = _mm256_setzero_ps();
    float* cj = c;
    if (accumulate) {
      _mm256_storeu_ps(cj, _mm256_sub_ps(_mm256_loadu_ps(cj), c00));
      _mm256_storeu_ps(cj + 8, _mm256_sub_ps(_mm256_loadu_ps(cj + 8), c10));
      cj += ldc;
      _mm256_storeu_ps(cj, _mm256_sub_ps(_mm256_loadu_ps(cj), c01));
      _mm256_storeu_ps(cj + 8, _mm256_sub_ps(_mm256_loadu_ps(cj + 8), c11));
      cj += ldc;
      _mm256_storeu_ps(cj, _mm256_sub_ps(_mm256_loadu_ps(cj), c02));
      _mm256_storeu_ps(cj + 8, _mm256_sub_ps(_mm256_loadu_ps(cj + 8), c12));
      cj += ldc;
      _mm256_storeu_ps(cj, _mm256_sub_ps(_mm256_loadu_ps(cj), c03));
      _mm256_storeu_ps(cj + 8, _mm256_sub_ps(_mm256_loadu_ps(cj + 8), c13));
    } else {
      _mm256_storeu_ps(cj, _mm256_sub_ps(z, c00));
      _mm256_storeu_ps(cj + 8, _mm256_sub_ps(z, c10));
      cj += ldc;
      _mm256_storeu_ps(cj, _mm256_sub_ps(z, c01));
      _mm256_storeu_ps(cj + 8, _mm256_sub_ps(z, c11));
      cj += ldc;
      _mm256_storeu_ps(cj, _mm256_sub_ps(z, c02));
      _mm256_storeu_ps(cj + 8, _mm256_sub_ps(z, c12));
      cj += ldc;
      _mm256_storeu_ps(cj, _mm256_sub_ps(z, c03));
      _mm256_storeu_ps(cj + 8, _mm256_sub_ps(z, c13));
    }
  } else {
    float acc[64];
    _mm256_storeu_ps(acc + 0, c00);
    _mm256_storeu_ps(acc + 8, c10);
    _mm256_storeu_ps(acc + 16, c01);
    _mm256_storeu_ps(acc + 24, c11);
    _mm256_storeu_ps(acc + 32, c02);
    _mm256_storeu_ps(acc + 40, c12);
    _mm256_storeu_ps(acc + 48, c03);
    _mm256_storeu_ps(acc + 56, c13);
    if (accumulate) {
      for (idx jr = 0; jr < nr; ++jr) {
        float* cj = c + static_cast<std::size_t>(jr) * ldc;
        for (idx ir = 0; ir < mr; ++ir) cj[ir] -= acc[jr * 16 + ir];
      }
    } else {
      for (idx jr = 0; jr < nr; ++jr) {
        float* cj = c + static_cast<std::size_t>(jr) * ldc;
        for (idx ir = 0; ir < mr; ++ir) cj[ir] = 0.0f - acc[jr * 16 + ir];
      }
    }
  }
}

// fp32 AVX-512 32x4: two zmm of sixteen floats each, masked edges.
__attribute__((target("avx512f"))) void micro_kernel_32x4_f_avx512(
    idx kc, const float* ap, const float* bp, float* c, idx ldc, idx mr,
    idx nr, bool accumulate) {
  __m512 c00 = _mm512_setzero_ps(), c10 = _mm512_setzero_ps();
  __m512 c01 = _mm512_setzero_ps(), c11 = _mm512_setzero_ps();
  __m512 c02 = _mm512_setzero_ps(), c12 = _mm512_setzero_ps();
  __m512 c03 = _mm512_setzero_ps(), c13 = _mm512_setzero_ps();
  for (idx p = 0; p < kc; ++p) {
    const __m512 a0 = _mm512_loadu_ps(ap);
    const __m512 a1 = _mm512_loadu_ps(ap + 16);
    const __m512 b0 = _mm512_set1_ps(bp[0]);
    c00 = _mm512_fmadd_ps(a0, b0, c00);
    c10 = _mm512_fmadd_ps(a1, b0, c10);
    const __m512 b1 = _mm512_set1_ps(bp[1]);
    c01 = _mm512_fmadd_ps(a0, b1, c01);
    c11 = _mm512_fmadd_ps(a1, b1, c11);
    const __m512 b2 = _mm512_set1_ps(bp[2]);
    c02 = _mm512_fmadd_ps(a0, b2, c02);
    c12 = _mm512_fmadd_ps(a1, b2, c12);
    const __m512 b3 = _mm512_set1_ps(bp[3]);
    c03 = _mm512_fmadd_ps(a0, b3, c03);
    c13 = _mm512_fmadd_ps(a1, b3, c13);
    ap += 32;
    bp += 4;
  }
  const __mmask16 m0 = mr >= 16 ? static_cast<__mmask16>(0xFFFF)
                                : static_cast<__mmask16>((1u << mr) - 1);
  const __mmask16 m1 = mr > 16 ? static_cast<__mmask16>((1u << (mr - 16)) - 1)
                               : static_cast<__mmask16>(0);
  const __m512 z = _mm512_setzero_ps();
  const __m512 lo[4] = {c00, c01, c02, c03};
  const __m512 hi[4] = {c10, c11, c12, c13};
  for (idx jr = 0; jr < nr; ++jr) {
    float* cj = c + static_cast<std::size_t>(jr) * ldc;
    if (accumulate) {
      _mm512_mask_storeu_ps(
          cj, m0, _mm512_sub_ps(_mm512_mask_loadu_ps(z, m0, cj), lo[jr]));
      if (m1) {
        _mm512_mask_storeu_ps(
            cj + 16, m1,
            _mm512_sub_ps(_mm512_mask_loadu_ps(z, m1, cj + 16), hi[jr]));
      }
    } else {
      _mm512_mask_storeu_ps(cj, m0, _mm512_sub_ps(z, lo[jr]));
      if (m1) _mm512_mask_storeu_ps(cj + 16, m1, _mm512_sub_ps(z, hi[jr]));
    }
  }
}
#endif  // SPC_X86_MICROKERNELS

// Micro-kernel configuration per element type: tile shape plus function
// pointers for packing and the register kernel.
template <typename T>
struct MicroConfigT {
  idx mr;
  idx nr;
  void (*pack_a)(const T*, idx, idx, idx, T*);
  void (*pack_b)(const T*, idx, idx, idx, T*);
  void (*pack_a_t)(const T*, idx, idx, idx, T*);
  void (*pack_b_t)(const T*, idx, idx, idx, T*);
  void (*kernel)(idx, const T*, const T*, T*, idx, idx, idx, bool);
};

// Scratch for the packed panels. thread_local so parallel workers never
// contend and steady-state factorization does no allocation (the vectors
// keep their high-water capacity).
template <typename T>
struct PackBuffersT {
  std::vector<T> a;
  std::vector<T> b;
};
template <typename T>
PackBuffersT<T>& pack_buffers() {
  thread_local PackBuffersT<T> bufs;
  return bufs;
}

// When `overwrite` is set, C need not be initialized: the first k-panel
// writes C = -(A_panel B_panel^T) instead of accumulating, and later panels
// accumulate as usual. This saves a full zero-fill pass plus the first
// panel's C read when the caller's C is scratch (the two-phase BMOD path).
// The trans flags flip an operand's storage interpretation (logical rows in
// storage columns) by routing it through the transposing pack: with b_trans
// the op becomes C -= A * B for a k x n stored B, with a_trans additionally
// C -= A^T * B for a k x m stored A.
template <typename T>
void gemm_packed_t(const MicroConfigT<T>& cfg, idx m, idx n, idx k, const T* a,
                   idx lda, const T* b, idx ldb, T* c, idx ldc,
                   bool overwrite = false, bool a_trans = false,
                   bool b_trans = false) {
  PackBuffersT<T>& bufs = pack_buffers<T>();
  const idx mc_max = std::min<idx>(kMC, m);
  const idx nc_max = std::min<idx>(kNC, n);
  const idx kc_max = std::min<idx>(kKC, k);
  const idx a_strips = (mc_max + cfg.mr - 1) / cfg.mr;
  const idx b_strips = (nc_max + cfg.nr - 1) / cfg.nr;
  bufs.a.resize(static_cast<std::size_t>(a_strips) * cfg.mr * kc_max);
  bufs.b.resize(static_cast<std::size_t>(b_strips) * cfg.nr * kc_max);

  for (idx jc = 0; jc < n; jc += kNC) {
    const idx nc = std::min<idx>(kNC, n - jc);
    for (idx pc = 0; pc < k; pc += kKC) {
      const idx kc = std::min<idx>(kKC, k - pc);
      const bool accumulate = !overwrite || pc > 0;
      if (b_trans) {
        cfg.pack_b_t(b + static_cast<std::size_t>(jc) * ldb + pc, ldb, nc, kc,
                     bufs.b.data());
      } else {
        cfg.pack_b(b + static_cast<std::size_t>(pc) * ldb + jc, ldb, nc, kc,
                   bufs.b.data());
      }
      for (idx ic = 0; ic < m; ic += kMC) {
        const idx mc = std::min<idx>(kMC, m - ic);
        if (a_trans) {
          cfg.pack_a_t(a + static_cast<std::size_t>(ic) * lda + pc, lda, mc, kc,
                       bufs.a.data());
        } else {
          cfg.pack_a(a + static_cast<std::size_t>(pc) * lda + ic, lda, mc, kc,
                     bufs.a.data());
        }
        for (idx jr = 0; jr < nc; jr += cfg.nr) {
          const idx nr = std::min<idx>(cfg.nr, nc - jr);
          const T* bp =
              bufs.b.data() + static_cast<std::size_t>(jr / cfg.nr) * cfg.nr * kc;
          for (idx ir = 0; ir < mc; ir += cfg.mr) {
            const idx mr = std::min<idx>(cfg.mr, mc - ir);
            const T* ap =
                bufs.a.data() + static_cast<std::size_t>(ir / cfg.mr) * cfg.mr * kc;
            cfg.kernel(kc, ap, bp,
                       c + static_cast<std::size_t>(jc + jr) * ldc + ic + ir,
                       ldc, mr, nr, accumulate);
          }
        }
      }
    }
  }
}

// Register-blocked strided kernel (two C columns x four ranks), used for
// shapes too small to amortize packing. Also handles the single-column tail
// with a rank-4 unroll so tall-skinny updates read C only ~k/4 times.
// The body is an always_inline template helper compiled once per ISA table:
// baseline, AVX2+FMA, and AVX-512 clones,
// where the compiler auto-vectorizes the unit-stride i-loops. Unlike the
// packed path, these strided kernels are NOT bitwise identical across ISA
// paths (FP contraction differs per target).
template <typename T>
__attribute__((always_inline)) inline void gemm_blocked_body(
    idx m, idx n, idx k, const T* a, idx lda, const T* b, idx ldb, T* c,
    idx ldc) {
  idx j = 0;
  for (; j + 1 < n; j += 2) {
    T* c0 = c + static_cast<std::size_t>(j) * ldc;
    T* c1 = c + static_cast<std::size_t>(j + 1) * ldc;
    idx p = 0;
    for (; p + 3 < k; p += 4) {
      const T* a0 = a + static_cast<std::size_t>(p) * lda;
      const T* a1 = a0 + lda;
      const T* a2 = a1 + lda;
      const T* a3 = a2 + lda;
      const T* bj = b + j;
      const T b00 = bj[static_cast<std::size_t>(p) * ldb],
              b01 = bj[static_cast<std::size_t>(p + 1) * ldb],
              b02 = bj[static_cast<std::size_t>(p + 2) * ldb],
              b03 = bj[static_cast<std::size_t>(p + 3) * ldb];
      const T b10 = bj[static_cast<std::size_t>(p) * ldb + 1],
              b11 = bj[static_cast<std::size_t>(p + 1) * ldb + 1],
              b12 = bj[static_cast<std::size_t>(p + 2) * ldb + 1],
              b13 = bj[static_cast<std::size_t>(p + 3) * ldb + 1];
      for (idx i = 0; i < m; ++i) {
        const T v0 = a0[i], v1 = a1[i], v2 = a2[i], v3 = a3[i];
        c0[i] -= v0 * b00 + v1 * b01 + v2 * b02 + v3 * b03;
        c1[i] -= v0 * b10 + v1 * b11 + v2 * b12 + v3 * b13;
      }
    }
    for (; p < k; ++p) {
      const T* ap = a + static_cast<std::size_t>(p) * lda;
      const T b0 = b[static_cast<std::size_t>(p) * ldb + j];
      const T b1 = b[static_cast<std::size_t>(p) * ldb + j + 1];
      for (idx i = 0; i < m; ++i) {
        c0[i] -= ap[i] * b0;
        c1[i] -= ap[i] * b1;
      }
    }
  }
  if (j < n) {
    T* cj = c + static_cast<std::size_t>(j) * ldc;
    idx p = 0;
    for (; p + 3 < k; p += 4) {
      const T* a0 = a + static_cast<std::size_t>(p) * lda;
      const T* a1 = a0 + lda;
      const T* a2 = a1 + lda;
      const T* a3 = a2 + lda;
      const T b0 = b[static_cast<std::size_t>(p) * ldb + j],
              b1 = b[static_cast<std::size_t>(p + 1) * ldb + j],
              b2 = b[static_cast<std::size_t>(p + 2) * ldb + j],
              b3 = b[static_cast<std::size_t>(p + 3) * ldb + j];
      for (idx i = 0; i < m; ++i) {
        cj[i] -= a0[i] * b0 + a1[i] * b1 + a2[i] * b2 + a3[i] * b3;
      }
    }
    for (; p < k; ++p) {
      const T* ap = a + static_cast<std::size_t>(p) * lda;
      const T bjp = b[static_cast<std::size_t>(p) * ldb + j];
      for (idx i = 0; i < m; ++i) cj[i] -= ap[i] * bjp;
    }
  }
}

template <typename T>
void gemm_blocked_raw(idx m, idx n, idx k, const T* a, idx lda, const T* b,
                      idx ldb, T* c, idx ldc) {
  gemm_blocked_body<T>(m, n, k, a, lda, b, ldb, c, ldc);
}

#if SPC_X86_MICROKERNELS
template <typename T>
__attribute__((target("avx2,fma"))) void gemm_blocked_avx2(
    idx m, idx n, idx k, const T* a, idx lda, const T* b, idx ldb, T* c,
    idx ldc) {
  gemm_blocked_body<T>(m, n, k, a, lda, b, ldb, c, ldc);
}

template <typename T>
__attribute__((target("avx512f,avx2,fma"))) void gemm_blocked_avx512(
    idx m, idx n, idx k, const T* a, idx lda, const T* b, idx ldb, T* c,
    idx ldc) {
  gemm_blocked_body<T>(m, n, k, a, lda, b, ldb, c, ldc);
}
#endif

// True when the packed path's pack/write-back overhead is amortized. Tuned
// against gemm_blocked_raw on this machine (see bench/kernel_bench.cpp):
// packed wins from surprisingly small operands on (8x8x8 is already 1.7x),
// including tall-skinny updates down to n = 4 (one micro-tile wide, 1.4x at
// 200x4x48). It loses only on single/double-column updates, where the
// blocked kernel's rank-4 single-column path is the right tool, and on
// small-k updates without enough C area to amortize packing.
bool packed_profitable(idx m, idx n, idx k) {
  if (n < 4 || m < 8) return false;
  return k >= 8 || static_cast<i64>(m) * n >= 8192;
}

void check_gemm_shapes(const DenseMatrix& a, const DenseMatrix& b,
                       const DenseMatrix& c) {
  SPC_CHECK(a.cols() == b.cols(), "gemm_nt_minus: inner dimension mismatch");
  SPC_CHECK(c.rows() == a.rows() && c.cols() == b.rows(),
            "gemm_nt_minus: output shape mismatch");
}

// ---------------------------------------------------------------------------
// Scalar panel kernels on raw strided storage (shared by the unblocked entry
// points and the blocked panel algorithms). They read/write only the lower
// triangle; upper-triangle zeroing is the entry points' job.
// ---------------------------------------------------------------------------
// Pivots failing the control's test are replaced (never thrown on): the
// local column (base_col + j) is appended to `adjusted` and the first bad
// value recorded. The test is `!(d > thresh)` so NaN pivots (poisoned or
// propagated) are caught alongside non-positive ones. The test runs in
// double for both element types so the fp32 path keeps the fp64 policy
// thresholds.
template <typename T>
idx potrf_raw_t(idx n, T* a, idx lda, const PivotControl& pc, idx base_col,
                std::vector<idx>& adjusted, double* first_bad) {
  const double thresh = pc.policy == PivotPolicy::kPerturb ? pc.boost : 0.0;
  const double repl =
      pc.policy == PivotPolicy::kPerturb && pc.boost > 0.0 ? pc.boost : 1.0;
  idx replaced = 0;
  for (idx j = 0; j < n; ++j) {
    T* aj = a + static_cast<std::size_t>(j) * lda;
    T d = aj[j];
    for (idx p = 0; p < j; ++p) {
      const T v = a[static_cast<std::size_t>(p) * lda + j];
      d -= v * v;
    }
    if (!(static_cast<double>(d) > thresh)) {
      if (replaced == 0 && adjusted.empty() && first_bad != nullptr) {
        *first_bad = static_cast<double>(d);
      }
      adjusted.push_back(base_col + j);
      ++replaced;
      d = static_cast<T>(repl);
    }
    d = std::sqrt(d);
    aj[j] = d;
    const T inv_d = T(1) / d;
    for (idx i = j + 1; i < n; ++i) {
      T s = aj[i];
      for (idx p = 0; p < j; ++p) {
        const T* col = a + static_cast<std::size_t>(p) * lda;
        s -= col[i] * col[j];
      }
      aj[i] = s * inv_d;
    }
  }
  return replaced;
}

// Like the blocked GEMM above, the triangular solve body is compiled per ISA
// table: baseline (trsm_rlt_raw, which the unblocked reference entry point
// uses), AVX2+FMA, and AVX-512 clones. The axpy-style i-loops are unit
// stride, so the wide clones vectorize.
template <typename T>
__attribute__((always_inline)) inline void trsm_rlt_body(idx m, idx k,
                                                         const T* l, idx ldl,
                                                         T* b, idx ldb) {
  for (idx j = 0; j < k; ++j) {
    T* bj = b + static_cast<std::size_t>(j) * ldb;
    for (idx p = 0; p < j; ++p) {
      const T ljp = l[static_cast<std::size_t>(p) * ldl + j];
      if (ljp == T(0)) continue;
      const T* bp = b + static_cast<std::size_t>(p) * ldb;
      for (idx i = 0; i < m; ++i) bj[i] -= bp[i] * ljp;
    }
    const T inv = T(1) / l[static_cast<std::size_t>(j) * ldl + j];
    for (idx i = 0; i < m; ++i) bj[i] *= inv;
  }
}

template <typename T>
void trsm_rlt_raw(idx m, idx k, const T* l, idx ldl, T* b, idx ldb) {
  trsm_rlt_body<T>(m, k, l, ldl, b, ldb);
}

#if SPC_X86_MICROKERNELS
template <typename T>
__attribute__((target("avx2,fma"))) void trsm_rlt_avx2(idx m, idx k,
                                                       const T* l, idx ldl,
                                                       T* b, idx ldb) {
  trsm_rlt_body<T>(m, k, l, ldl, b, ldb);
}

template <typename T>
__attribute__((target("avx512f,avx2,fma"))) void trsm_rlt_avx512(
    idx m, idx k, const T* l, idx ldl, T* b, idx ldb) {
  trsm_rlt_body<T>(m, k, l, ldl, b, ldb);
}
#endif

// ---------------------------------------------------------------------------
// Solve-path small-shape kernels. Same per-table compile pattern as above.
// They cover the fragmented row segments (m or n too small for the packed
// core) of the panel triangular solves.
// ---------------------------------------------------------------------------

// C -= A * B, register-blocked two C columns x four ranks. Structurally the
// NT kernel above with B read down its stored columns (B is k x n here).
template <typename T>
__attribute__((always_inline)) inline void gemm_nn_body(
    idx m, idx n, idx k, const T* a, idx lda, const T* b, idx ldb, T* c,
    idx ldc) {
  idx j = 0;
  for (; j + 1 < n; j += 2) {
    T* c0 = c + static_cast<std::size_t>(j) * ldc;
    T* c1 = c + static_cast<std::size_t>(j + 1) * ldc;
    const T* b0col = b + static_cast<std::size_t>(j) * ldb;
    const T* b1col = b0col + ldb;
    idx p = 0;
    for (; p + 3 < k; p += 4) {
      const T* a0 = a + static_cast<std::size_t>(p) * lda;
      const T* a1 = a0 + lda;
      const T* a2 = a1 + lda;
      const T* a3 = a2 + lda;
      const T b00 = b0col[p], b01 = b0col[p + 1], b02 = b0col[p + 2],
              b03 = b0col[p + 3];
      const T b10 = b1col[p], b11 = b1col[p + 1], b12 = b1col[p + 2],
              b13 = b1col[p + 3];
      for (idx i = 0; i < m; ++i) {
        const T v0 = a0[i], v1 = a1[i], v2 = a2[i], v3 = a3[i];
        c0[i] -= v0 * b00 + v1 * b01 + v2 * b02 + v3 * b03;
        c1[i] -= v0 * b10 + v1 * b11 + v2 * b12 + v3 * b13;
      }
    }
    for (; p < k; ++p) {
      const T* ap = a + static_cast<std::size_t>(p) * lda;
      const T bv0 = b0col[p];
      const T bv1 = b1col[p];
      for (idx i = 0; i < m; ++i) {
        c0[i] -= ap[i] * bv0;
        c1[i] -= ap[i] * bv1;
      }
    }
  }
  if (j < n) {
    T* cj = c + static_cast<std::size_t>(j) * ldc;
    const T* bj = b + static_cast<std::size_t>(j) * ldb;
    idx p = 0;
    for (; p + 3 < k; p += 4) {
      const T* a0 = a + static_cast<std::size_t>(p) * lda;
      const T* a1 = a0 + lda;
      const T* a2 = a1 + lda;
      const T* a3 = a2 + lda;
      const T b0 = bj[p], b1 = bj[p + 1], b2 = bj[p + 2], b3 = bj[p + 3];
      for (idx i = 0; i < m; ++i) {
        cj[i] -= a0[i] * b0 + a1[i] * b1 + a2[i] * b2 + a3[i] * b3;
      }
    }
    for (; p < k; ++p) {
      const T* ap = a + static_cast<std::size_t>(p) * lda;
      const T bjp = bj[p];
      for (idx i = 0; i < m; ++i) cj[i] -= ap[i] * bjp;
    }
  }
}

void gemm_nn_small(idx m, idx n, idx k, const double* a, idx lda,
                   const double* b, idx ldb, double* c, idx ldc) {
  gemm_nn_body<double>(m, n, k, a, lda, b, ldb, c, ldc);
}

#if SPC_X86_MICROKERNELS
__attribute__((target("avx2,fma"))) void gemm_nn_small_avx2(
    idx m, idx n, idx k, const double* a, idx lda, const double* b, idx ldb,
    double* c, idx ldc) {
  gemm_nn_body<double>(m, n, k, a, lda, b, ldb, c, ldc);
}

__attribute__((target("avx512f,avx2,fma"))) void gemm_nn_small_avx512(
    idx m, idx n, idx k, const double* a, idx lda, const double* b, idx ldb,
    double* c, idx ldc) {
  gemm_nn_body<double>(m, n, k, a, lda, b, ldb, c, ldc);
}
#endif

// C -= A^T * B with A stored k x m: both operands stream contiguously down
// their stored columns, so this is four-way-split dot products.
template <typename T>
__attribute__((always_inline)) inline void gemm_tn_body(
    idx m, idx n, idx k, const T* a, idx lda, const T* b, idx ldb, T* c,
    idx ldc) {
  for (idx j = 0; j < n; ++j) {
    const T* bj = b + static_cast<std::size_t>(j) * ldb;
    T* cj = c + static_cast<std::size_t>(j) * ldc;
    for (idx i = 0; i < m; ++i) {
      const T* ai = a + static_cast<std::size_t>(i) * lda;
      T s0 = T(0), s1 = T(0), s2 = T(0), s3 = T(0);
      idx p = 0;
      for (; p + 3 < k; p += 4) {
        s0 += ai[p] * bj[p];
        s1 += ai[p + 1] * bj[p + 1];
        s2 += ai[p + 2] * bj[p + 2];
        s3 += ai[p + 3] * bj[p + 3];
      }
      T s = (s0 + s1) + (s2 + s3);
      for (; p < k; ++p) s += ai[p] * bj[p];
      cj[i] -= s;
    }
  }
}

void gemm_tn_small(idx m, idx n, idx k, const double* a, idx lda,
                   const double* b, idx ldb, double* c, idx ldc) {
  gemm_tn_body<double>(m, n, k, a, lda, b, ldb, c, ldc);
}

#if SPC_X86_MICROKERNELS
__attribute__((target("avx2,fma"))) void gemm_tn_small_avx2(
    idx m, idx n, idx k, const double* a, idx lda, const double* b, idx ldb,
    double* c, idx ldc) {
  gemm_tn_body<double>(m, n, k, a, lda, b, ldb, c, ldc);
}

__attribute__((target("avx512f,avx2,fma"))) void gemm_tn_small_avx512(
    idx m, idx n, idx k, const double* a, idx lda, const double* b, idx ldb,
    double* c, idx ldc) {
  gemm_tn_body<double>(m, n, k, a, lda, b, ldb, c, ldc);
}
#endif

// Scalar forward substitution on a k x n panel: X := L^{-1} X. Column p's
// pivot divide is a multiply by the reciprocal; the rank-1 update below the
// pivot streams L's stored column with unit stride, so the wide clones
// vectorize it.
template <typename T>
__attribute__((always_inline)) inline void trsm_ll_body(idx kdim, idx n,
                                                        const T* l, idx ldl,
                                                        T* x, idx ldx) {
  for (idx p = 0; p < kdim; ++p) {
    const T* lp = l + static_cast<std::size_t>(p) * ldl;
    const T inv = T(1) / lp[p];
    for (idx j = 0; j < n; ++j) {
      T* xj = x + static_cast<std::size_t>(j) * ldx;
      const T xp = xj[p] * inv;
      xj[p] = xp;
      for (idx i = p + 1; i < kdim; ++i) xj[i] -= lp[i] * xp;
    }
  }
}

void trsm_ll_raw(idx kdim, idx n, const double* l, idx ldl, double* x,
                 idx ldx) {
  trsm_ll_body<double>(kdim, n, l, ldl, x, ldx);
}

#if SPC_X86_MICROKERNELS
__attribute__((target("avx2,fma"))) void trsm_ll_avx2(idx kdim, idx n,
                                                      const double* l, idx ldl,
                                                      double* x, idx ldx) {
  trsm_ll_body<double>(kdim, n, l, ldl, x, ldx);
}

__attribute__((target("avx512f,avx2,fma"))) void trsm_ll_avx512(
    idx kdim, idx n, const double* l, idx ldl, double* x, idx ldx) {
  trsm_ll_body<double>(kdim, n, l, ldl, x, ldx);
}
#endif

// Scalar backward substitution: X := L^{-T} X. Row p of L^T is stored
// column p of L, so the inner dot streams contiguously.
template <typename T>
__attribute__((always_inline)) inline void trsm_llt_body(idx kdim, idx n,
                                                         const T* l, idx ldl,
                                                         T* x, idx ldx) {
  for (idx p = kdim - 1; p >= 0; --p) {
    const T* lp = l + static_cast<std::size_t>(p) * ldl;
    const T inv = T(1) / lp[p];
    for (idx j = 0; j < n; ++j) {
      T* xj = x + static_cast<std::size_t>(j) * ldx;
      T s = xj[p];
      for (idx i = p + 1; i < kdim; ++i) s -= lp[i] * xj[i];
      xj[p] = s * inv;
    }
  }
}

void trsm_llt_raw(idx kdim, idx n, const double* l, idx ldl, double* x,
                  idx ldx) {
  trsm_llt_body<double>(kdim, n, l, ldl, x, ldx);
}

#if SPC_X86_MICROKERNELS
__attribute__((target("avx2,fma"))) void trsm_llt_avx2(idx kdim, idx n,
                                                       const double* l, idx ldl,
                                                       double* x, idx ldx) {
  trsm_llt_body<double>(kdim, n, l, ldl, x, ldx);
}

__attribute__((target("avx512f,avx2,fma"))) void trsm_llt_avx512(
    idx kdim, idx n, const double* l, idx ldl, double* x, idx ldx) {
  trsm_llt_body<double>(kdim, n, l, ldl, x, ldx);
}
#endif

// ---------------------------------------------------------------------------
// ISA dispatch tables. One immutable table per path holds every function
// pointer the entry points route through: per element type, the packed
// micro-kernel configuration and the small-shape block-engine kernels; for
// fp64 also the solve-path kernels. The active table is a single atomic
// pointer, switchable at runtime (set_kernel_isa / SPC_FORCE_ISA) — which is
// why the old per-function `static const Fn fn = pick()` first-use caches
// are gone: they could never be re-pointed once resolved.
// ---------------------------------------------------------------------------
template <typename T>
using GemmRawFnT = void (*)(idx, idx, idx, const T*, idx, const T*, idx, T*, idx);
template <typename T>
using TrsmRawFnT = void (*)(idx, idx, const T*, idx, T*, idx);
using GemmRawFn = GemmRawFnT<double>;
using TrsmRawFn = TrsmRawFnT<double>;

// The block engine's kernels for one element type on one ISA path.
template <typename T>
struct EngineKernels {
  MicroConfigT<T> cfg;       // packed GEMM core
  GemmRawFnT<T> gemm_small;  // strided NT fallback
  TrsmRawFnT<T> trsm_rlt;    // right triangular solve (BDIV panels)
};

struct IsaTable {
  KernelIsa isa;
  EngineKernels<double> f64;
  EngineKernels<float> f32;
  GemmRawFn gemm_nn_small;
  GemmRawFn gemm_tn_small;
  TrsmRawFn trsm_ll;
  TrsmRawFn trsm_llt;
};

bool isa_supported_impl(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kScalar:
      return true;
    case KernelIsa::kAvx2:
#if SPC_X86_MICROKERNELS
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
      return false;
#endif
    case KernelIsa::kAvx512:
#if SPC_X86_MICROKERNELS
      return __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
      return false;
#endif
  }
  return false;
}

const IsaTable& scalar_table() {
  static const IsaTable t = [] {
    IsaTable s{KernelIsa::kScalar,
               {{4, 4, pack_panel<4, double>, pack_panel<4, double>,
                 pack_panel_trans<4, double>, pack_panel_trans<4, double>,
                 micro_kernel_4x4_d},
                gemm_blocked_raw<double>,
                trsm_rlt_raw<double>},
               {{4, 4, pack_panel<4, float>, pack_panel<4, float>,
                 pack_panel_trans<4, float>, pack_panel_trans<4, float>,
                 micro_kernel_4x4_f},
                gemm_blocked_raw<float>,
                trsm_rlt_raw<float>},
               gemm_nn_small,
               gemm_tn_small,
               trsm_ll_raw,
               trsm_llt_raw};
#if SPC_X86_MICROKERNELS
    // On FMA-capable hosts the portable micro-kernel's std::fma inlines to
    // vfmadd in the target clone — bitwise identical, much faster than the
    // baseline libm calls.
    if (__builtin_cpu_supports("avx") && __builtin_cpu_supports("fma")) {
      s.f64.cfg.kernel = micro_kernel_4x4_d_fma;
      s.f32.cfg.kernel = micro_kernel_4x4_f_fma;
    }
#endif
    return s;
  }();
  return t;
}

#if SPC_X86_MICROKERNELS
const IsaTable& avx2_table() {
  static const IsaTable t{KernelIsa::kAvx2,
                          {{8, 4, pack_panel<8, double>, pack_panel<4, double>,
                            pack_panel_trans<8, double>,
                            pack_panel_trans<4, double>, micro_kernel_8x4_avx2},
                           gemm_blocked_avx2<double>,
                           trsm_rlt_avx2<double>},
                          {{16, 4, pack_panel<16, float>, pack_panel<4, float>,
                            pack_panel_trans<16, float>,
                            pack_panel_trans<4, float>, micro_kernel_16x4_f_avx2},
                           gemm_blocked_avx2<float>,
                           trsm_rlt_avx2<float>},
                          gemm_nn_small_avx2,
                          gemm_tn_small_avx2,
                          trsm_ll_avx2,
                          trsm_llt_avx2};
  return t;
}

const IsaTable& avx512_table() {
  static const IsaTable t{
      KernelIsa::kAvx512,
      {{16, 4, pack_panel<16, double>, pack_panel<4, double>,
        pack_panel_trans<16, double>, pack_panel_trans<4, double>,
        micro_kernel_16x4_avx512},
       gemm_blocked_avx512<double>,
       trsm_rlt_avx512<double>},
      {{32, 4, pack_panel<32, float>, pack_panel<4, float>,
        pack_panel_trans<32, float>, pack_panel_trans<4, float>,
        micro_kernel_32x4_f_avx512},
       gemm_blocked_avx512<float>,
       trsm_rlt_avx512<float>},
      gemm_nn_small_avx512,
      gemm_tn_small_avx512,
      trsm_ll_avx512,
      trsm_llt_avx512};
  return t;
}
#endif  // SPC_X86_MICROKERNELS

const IsaTable& table_for(KernelIsa isa) {
#if SPC_X86_MICROKERNELS
  if (isa == KernelIsa::kAvx512) return avx512_table();
  if (isa == KernelIsa::kAvx2) return avx2_table();
#endif
  return scalar_table();
}

spc::atomic<const IsaTable*> g_isa{nullptr};

const IsaTable* resolve_initial_isa() {
  const char* env = std::getenv("SPC_FORCE_ISA");
  if (env != nullptr && env[0] != '\0') {
    const std::string s(env);
    KernelIsa want;
    if (s == "scalar") {
      want = KernelIsa::kScalar;
    } else if (s == "avx2") {
      want = KernelIsa::kAvx2;
    } else if (s == "avx512") {
      want = KernelIsa::kAvx512;
    } else {
      throw Error("SPC_FORCE_ISA: unknown value '" + s +
                      "' (expected scalar|avx2|avx512)",
                  ErrorKind::kMalformedInput);
    }
    if (!isa_supported_impl(want)) {
      throw Error("SPC_FORCE_ISA=" + s + ": ISA not supported on this host",
                  ErrorKind::kMalformedInput);
    }
    return &table_for(want);
  }
#if SPC_X86_MICROKERNELS
  if (isa_supported_impl(KernelIsa::kAvx512)) return &avx512_table();
  if (isa_supported_impl(KernelIsa::kAvx2)) return &avx2_table();
#endif
  return &scalar_table();
}

// Hot-path table fetch: one acquire load per kernel call (pairs with the
// release stores in set_kernel_isa / the first-use resolve below, publishing
// the pointee's static initialization to readers on other threads). A stale
// read runs one more call through the previous — equally correct — table.
const IsaTable& isa_table() {
  const IsaTable* t = g_isa.load(std::memory_order_acquire);
  if (t == nullptr) {
    static const IsaTable* initial = resolve_initial_isa();
    t = initial;
    g_isa.store(t, std::memory_order_release);
  }
  return *t;
}

// Panel width for the blocked potrf/trsm: big enough that the trailing
// GEMM dominates, small enough that the scalar panel stays in L1.
constexpr idx kPanel = 32;

// Column-panel width for the blocked right triangular solve.
constexpr idx kTrsmPanel = 16;

// The active table's block-engine kernels for element type T.
template <typename T>
const EngineKernels<T>& engine_kernels() {
  if constexpr (std::is_same_v<T, double>) {
    return isa_table().f64;
  } else {
    return isa_table().f32;
  }
}

}  // namespace

bool kernel_isa_supported(KernelIsa isa) { return isa_supported_impl(isa); }

const char* kernel_isa_name(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kScalar: return "scalar";
    case KernelIsa::kAvx2: return "avx2";
    case KernelIsa::kAvx512: return "avx512";
  }
  return "?";
}

bool set_kernel_isa(KernelIsa isa) {
  if (!isa_supported_impl(isa)) return false;
  g_isa.store(&table_for(isa));  // seq_cst: rare, test/CLI-driven switch
  return true;
}

KernelIsa kernel_isa() { return isa_table().isa; }

namespace {

// Shared strict wrapper: run the guarded factorization and convert the
// first replaced pivot into a structured NotPositiveDefinite error.
void throw_first_pivot(const std::vector<idx>& adjusted, double first_bad) {
  ErrorContext ctx;
  ctx.column = adjusted.front();
  ctx.pivot = first_bad;
  ctx.has_pivot = true;
  throw_not_spd("potrf_lower: matrix is not positive definite", ctx);
}

template <typename T>
void gemm_packed_raw(idx m, idx n, idx k, const T* a, idx lda, const T* b,
                     idx ldb, T* c, idx ldc, bool overwrite = false,
                     bool a_trans = false, bool b_trans = false) {
  gemm_packed_t<T>(engine_kernels<T>().cfg, m, n, k, a, lda, b, ldb, c, ldc,
                   overwrite, a_trans, b_trans);
}

void gemm_nn_small_raw(idx m, idx n, idx k, const double* a, idx lda,
                       const double* b, idx ldb, double* c, idx ldc) {
  isa_table().gemm_nn_small(m, n, k, a, lda, b, ldb, c, ldc);
}

void gemm_tn_small_raw(idx m, idx n, idx k, const double* a, idx lda,
                       const double* b, idx ldb, double* c, idx ldc) {
  isa_table().gemm_tn_small(m, n, k, a, lda, b, ldb, c, ldc);
}

void trsm_ll_fast(idx kdim, idx n, const double* l, idx ldl, double* x,
                  idx ldx) {
  isa_table().trsm_ll(kdim, n, l, ldl, x, ldx);
}

void trsm_llt_fast(idx kdim, idx n, const double* l, idx ldl, double* x,
                   idx ldx) {
  isa_table().trsm_llt(kdim, n, l, ldl, x, ldx);
}

}  // namespace

void potrf_lower_unblocked(DenseMatrix& a) {
  SPC_CHECK(a.rows() == a.cols(), "potrf_lower: matrix must be square");
  const idx n = a.rows();
  std::vector<idx> adjusted;
  double first_bad = 0.0;
  potrf_raw_t<double>(n, a.data(), n, PivotControl{}, 0, adjusted, &first_bad);
  if (!adjusted.empty()) throw_first_pivot(adjusted, first_bad);
  for (idx j = 1; j < n; ++j) {
    double* aj = a.col(j);
    for (idx i = 0; i < j; ++i) aj[i] = 0.0;
  }
}

template <typename T>
idx potrf_lower_guarded(idx n, T* a, idx lda, const PivotControl& pc,
                        idx base_col, std::vector<idx>& adjusted,
                        double* first_bad) {
  idx replaced = 0;
  if (n <= kPanel) {
    replaced = potrf_raw_t<T>(n, a, lda, pc, base_col, adjusted, first_bad);
  } else {
    for (idx j = 0; j < n; j += kPanel) {
      const idx nb = std::min<idx>(kPanel, n - j);
      T* diag = a + static_cast<std::size_t>(j) * lda + j;
      replaced += potrf_raw_t<T>(nb, diag, lda, pc, base_col + j, adjusted,
                                 first_bad);
      const idx below = n - j - nb;
      if (below == 0) continue;
      engine_kernels<T>().trsm_rlt(below, nb, diag, lda, diag + nb, lda);
      // Trailing update A22 -= L21 * L21^T, one block column at a time so
      // only the lower trapezoid is touched per step (the strict upper
      // triangle may accumulate garbage inside a block column; it is zeroed
      // below).
      const T* l21 = diag + nb;  // (n-j-nb) x nb at rows j+nb..
      for (idx c = j + nb; c < n; c += kPanel) {
        const idx w = std::min<idx>(kPanel, n - c);
        gemm_nt_minus_raw<T>(n - c, w, nb, l21 + (c - j - nb), lda,
                             l21 + (c - j - nb), lda,
                             a + static_cast<std::size_t>(c) * lda + c, lda);
      }
    }
  }
  for (idx j = 1; j < n; ++j) {
    T* aj = a + static_cast<std::size_t>(j) * lda;
    for (idx i = 0; i < j; ++i) aj[i] = T(0);
  }
  return replaced;
}

void potrf_lower(DenseMatrix& a) {
  SPC_CHECK(a.rows() == a.cols(), "potrf_lower: matrix must be square");
  std::vector<idx> adjusted;
  double first_bad = 0.0;
  potrf_lower_guarded<double>(a.rows(), a.data(), a.rows(), PivotControl{}, 0,
                              adjusted, &first_bad);
  if (!adjusted.empty()) throw_first_pivot(adjusted, first_bad);
}

void trsm_right_ltrans_unblocked(const DenseMatrix& l, DenseMatrix& b) {
  SPC_CHECK(l.rows() == l.cols(), "trsm_right_ltrans: L must be square");
  SPC_CHECK(b.cols() == l.rows(), "trsm_right_ltrans: dimension mismatch");
  trsm_rlt_raw<double>(b.rows(), l.rows(), l.data(), l.rows(), b.data(),
                       b.rows());
}

template <typename T>
void trsm_right_ltrans(idx m, idx k, const T* l, idx ldl, T* b, idx ldb) {
  if (m == 0 || k == 0) return;
  const EngineKernels<T>& kern = engine_kernels<T>();
  if (k <= kPanel || m < 4) {
    kern.trsm_rlt(m, k, l, ldl, b, ldb);
    return;
  }
  // Left-looking over column panels of B: the bulk of the solve becomes
  // B(:, jb..) -= B(:, 0..jb) * L(jb.., 0..jb)^T through the GEMM core.
  for (idx jb = 0; jb < k; jb += kTrsmPanel) {
    const idx nb = std::min<idx>(kTrsmPanel, k - jb);
    T* bj = b + static_cast<std::size_t>(jb) * ldb;
    if (jb > 0) gemm_nt_minus_raw<T>(m, nb, jb, b, ldb, l + jb, ldl, bj, ldb);
    kern.trsm_rlt(m, nb, l + static_cast<std::size_t>(jb) * ldl + jb, ldl, bj,
                  ldb);
  }
}

void trsm_right_ltrans(const DenseMatrix& l, DenseMatrix& b) {
  SPC_CHECK(l.rows() == l.cols(), "trsm_right_ltrans: L must be square");
  SPC_CHECK(b.cols() == l.rows(), "trsm_right_ltrans: dimension mismatch");
  trsm_right_ltrans<double>(b.rows(), l.rows(), l.data(), l.rows(), b.data(),
                            b.rows());
}

void gemm_nt_minus_naive(const DenseMatrix& a, const DenseMatrix& b, DenseMatrix& c) {
  check_gemm_shapes(a, b, c);
  const idx m = a.rows();
  const idx n = b.rows();
  const idx k = a.cols();
  // C(:,j) -= sum_p A(:,p) * B(j,p); column-major friendly loop order.
  for (idx j = 0; j < n; ++j) {
    double* cj = c.col(j);
    for (idx p = 0; p < k; ++p) {
      const double bjp = b(j, p);
      if (bjp == 0.0) continue;
      const double* ap = a.col(p);
      for (idx i = 0; i < m; ++i) cj[i] -= ap[i] * bjp;
    }
  }
}

void gemm_nt_minus_packed(const DenseMatrix& a, const DenseMatrix& b, DenseMatrix& c) {
  check_gemm_shapes(a, b, c);
  if (a.rows() == 0 || b.rows() == 0 || a.cols() == 0) return;
  gemm_packed_raw<double>(a.rows(), b.rows(), a.cols(), a.data(), a.rows(),
                          b.data(), b.rows(), c.data(), c.rows());
}

template <typename T>
void gemm_nt_minus_raw(idx m, idx n, idx k, const T* a, idx lda, const T* b,
                       idx ldb, T* c, idx ldc) {
  if (m == 0 || n == 0 || k == 0) return;
  if (packed_profitable(m, n, k)) {
    gemm_packed_raw<T>(m, n, k, a, lda, b, ldb, c, ldc);
  } else {
    engine_kernels<T>().gemm_small(m, n, k, a, lda, b, ldb, c, ldc);
  }
}

template <typename T>
void gemm_nt_neg_raw(idx m, idx n, idx k, const T* a, idx lda, const T* b,
                     idx ldb, T* c, idx ldc) {
  if (m == 0 || n == 0) return;
  if (k > 0 && packed_profitable(m, n, k)) {
    gemm_packed_raw<T>(m, n, k, a, lda, b, ldb, c, ldc, /*overwrite=*/true);
    return;
  }
  // Small shapes: zero C, then run the strided accumulate kernel. The
  // zero-fill is cheap relative to the kernel at these sizes.
  for (idx j = 0; j < n; ++j) {
    std::fill(c + static_cast<std::size_t>(j) * ldc,
              c + static_cast<std::size_t>(j) * ldc + m, T(0));
  }
  if (k > 0) engine_kernels<T>().gemm_small(m, n, k, a, lda, b, ldb, c, ldc);
}

void gemm_nn_minus_raw(idx m, idx n, idx k, const double* a, idx lda,
                       const double* b, idx ldb, double* c, idx ldc) {
  if (m == 0 || n == 0 || k == 0) return;
  if (packed_profitable(m, n, k)) {
    gemm_packed_raw<double>(m, n, k, a, lda, b, ldb, c, ldc, /*overwrite=*/false,
                    /*a_trans=*/false, /*b_trans=*/true);
  } else {
    gemm_nn_small_raw(m, n, k, a, lda, b, ldb, c, ldc);
  }
}

void gemm_nn_neg_raw(idx m, idx n, idx k, const double* a, idx lda,
                     const double* b, idx ldb, double* c, idx ldc) {
  if (m == 0 || n == 0) return;
  if (k > 0 && packed_profitable(m, n, k)) {
    gemm_packed_raw<double>(m, n, k, a, lda, b, ldb, c, ldc, /*overwrite=*/true,
                    /*a_trans=*/false, /*b_trans=*/true);
    return;
  }
  for (idx j = 0; j < n; ++j) {
    std::fill(c + static_cast<std::size_t>(j) * ldc,
              c + static_cast<std::size_t>(j) * ldc + m, 0.0);
  }
  if (k > 0) gemm_nn_small_raw(m, n, k, a, lda, b, ldb, c, ldc);
}

void gemm_tn_minus_raw(idx m, idx n, idx k, const double* a, idx lda,
                       const double* b, idx ldb, double* c, idx ldc) {
  if (m == 0 || n == 0 || k == 0) return;
  if (packed_profitable(m, n, k)) {
    gemm_packed_raw<double>(m, n, k, a, lda, b, ldb, c, ldc, /*overwrite=*/false,
                    /*a_trans=*/true, /*b_trans=*/true);
  } else {
    gemm_tn_small_raw(m, n, k, a, lda, b, ldb, c, ldc);
  }
}

void trsm_left_lower(idx k, idx n, const double* l, idx ldl, double* x,
                     idx ldx) {
  if (k == 0 || n == 0) return;
  if (k <= kPanel || n < 2) {
    trsm_ll_fast(k, n, l, ldl, x, ldx);
    return;
  }
  // Right-looking over diagonal panels: solve the panel, then push its
  // contribution into the rows below it through the GEMM core.
  for (idx jb = 0; jb < k; jb += kPanel) {
    const idx nb = std::min<idx>(kPanel, k - jb);
    const double* diag = l + static_cast<std::size_t>(jb) * ldl + jb;
    trsm_ll_fast(nb, n, diag, ldl, x + jb, ldx);
    const idx below = k - jb - nb;
    if (below > 0) {
      gemm_nn_minus_raw(below, n, nb, diag + nb, ldl, x + jb, ldx,
                        x + jb + nb, ldx);
    }
  }
}

void trsm_left_ltrans(idx k, idx n, const double* l, idx ldl, double* x,
                      idx ldx) {
  if (k == 0 || n == 0) return;
  if (k <= kPanel || n < 2) {
    trsm_llt_fast(k, n, l, ldl, x, ldx);
    return;
  }
  // Bottom-up over diagonal panels: subtract the already-solved tail's
  // contribution L(tail, panel)^T X(tail, :), then solve the panel.
  for (idx jb = ((k - 1) / kPanel) * kPanel;; jb -= kPanel) {
    const idx nb = std::min<idx>(kPanel, k - jb);
    const idx below = k - jb - nb;
    if (below > 0) {
      gemm_tn_minus_raw(nb, n, below, l + static_cast<std::size_t>(jb) * ldl + jb + nb,
                        ldl, x + jb + nb, ldx, x + jb, ldx);
    }
    trsm_llt_fast(nb, n, l + static_cast<std::size_t>(jb) * ldl + jb, ldl,
                  x + jb, ldx);
    if (jb == 0) break;
  }
}

void gemm_nt_minus(const DenseMatrix& a, const DenseMatrix& b, DenseMatrix& c) {
  check_gemm_shapes(a, b, c);
  const idx m = a.rows();
  const idx n = b.rows();
  const idx k = a.cols();
  if (m == 0 || n == 0 || k == 0) return;
  gemm_nt_minus_raw<double>(m, n, k, a.data(), m, b.data(), n, c.data(), m);
}

// The block engine's instantiations (numeric_factor.hpp): fp64 everywhere,
// fp32 for the fp32-refine factorization.
#define SPC_ENGINE_KERNELS(T)                                                  \
  template void gemm_nt_minus_raw<T>(idx, idx, idx, const T*, idx, const T*,  \
                                     idx, T*, idx);                           \
  template void gemm_nt_neg_raw<T>(idx, idx, idx, const T*, idx, const T*,    \
                                   idx, T*, idx);                             \
  template void trsm_right_ltrans<T>(idx, idx, const T*, idx, T*, idx);       \
  template idx potrf_lower_guarded<T>(idx, T*, idx, const PivotControl&, idx, \
                                      std::vector<idx>&, double*);
SPC_ENGINE_KERNELS(double)
SPC_ENGINE_KERNELS(float)
#undef SPC_ENGINE_KERNELS

i64 flops_bfac(idx k) {
  // k^3/3 + k^2/2 + k/6 == k(k+1)(2k+1)/6, exact in integer arithmetic
  // (it is the sum of the first k squares).
  const i64 kk = k;
  return kk * (kk + 1) * (2 * kk + 1) / 6;
}

i64 flops_bdiv(idx m, idx k) { return static_cast<i64>(m) * k * k; }

i64 flops_bmod(idx m, idx n, idx k) {
  return 2 * static_cast<i64>(m) * n * k;
}

}  // namespace spc
