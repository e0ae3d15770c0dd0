// Unit tests for the dense kernels (BFAC/BDIV/BMOD primitives).
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <utility>
#include <vector>

#include "linalg/dense_matrix.hpp"
#include "linalg/kernels.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace spc {
namespace {

DenseMatrix random_spd(idx n, Rng& rng) {
  // A = B B^T + n I is SPD.
  DenseMatrix b(n, n);
  for (idx c = 0; c < n; ++c) {
    for (idx r = 0; r < n; ++r) b(r, c) = rng.uniform(-1.0, 1.0);
  }
  DenseMatrix a(n, n);
  for (idx r = 0; r < n; ++r) {
    for (idx c = 0; c < n; ++c) {
      double s = r == c ? static_cast<double>(n) : 0.0;
      for (idx k = 0; k < n; ++k) s += b(r, k) * b(c, k);
      a(r, c) = s;
    }
  }
  return a;
}

TEST(DenseMatrix, ResizeZeroes) {
  DenseMatrix m(2, 3);
  m(1, 2) = 5.0;
  m.resize(3, 2);
  for (idx c = 0; c < 2; ++c) {
    for (idx r = 0; r < 3; ++r) EXPECT_EQ(m(r, c), 0.0);
  }
}

TEST(DenseMatrix, NormAndAxpy) {
  DenseMatrix a(2, 2), b(2, 2);
  a(0, 0) = 3.0;
  a(1, 1) = 4.0;
  EXPECT_DOUBLE_EQ(a.norm(), 5.0);
  b(0, 0) = 1.0;
  a.axpy(2.0, b);
  EXPECT_DOUBLE_EQ(a(0, 0), 5.0);
}

TEST(DenseMatrix, AxpyShapeMismatchThrows) {
  DenseMatrix a(2, 2), b(2, 3);
  EXPECT_THROW(a.axpy(1.0, b), Error);
}

TEST(DenseMatrix, AttachViewsExternalStorage) {
  // View mode: the matrix wraps caller-owned storage (the arena path in
  // factor/numeric_factor.cpp) without copying or freeing it.
  double buf[6] = {1, 2, 3, 4, 5, 6};
  DenseMatrix v;
  v.attach(buf, 3, 2);
  EXPECT_TRUE(v.is_view());
  EXPECT_EQ(v.rows(), 3);
  EXPECT_EQ(v.cols(), 2);
  EXPECT_EQ(v.data(), buf);
  EXPECT_DOUBLE_EQ(v(2, 1), 6.0);
  v(0, 0) = 42.0;
  EXPECT_DOUBLE_EQ(buf[0], 42.0);  // writes go straight through
  v.set_zero();
  for (double x : buf) EXPECT_DOUBLE_EQ(x, 0.0);
}

TEST(DenseMatrix, CopyOfViewDeepCopies) {
  double buf[4] = {1, 2, 3, 4};
  DenseMatrix v;
  v.attach(buf, 2, 2);
  DenseMatrix c = v;  // value semantics: the copy owns its elements
  EXPECT_FALSE(c.is_view());
  EXPECT_NE(c.data(), buf);
  c(0, 0) = 99.0;
  EXPECT_DOUBLE_EQ(buf[0], 1.0);
  DenseMatrix assigned;
  assigned = v;
  EXPECT_FALSE(assigned.is_view());
  EXPECT_DOUBLE_EQ(assigned(1, 1), 4.0);
}

TEST(DenseMatrix, MoveOfViewTransfersAndNullsSource) {
  double buf[4] = {1, 2, 3, 4};
  DenseMatrix v;
  v.attach(buf, 2, 2);
  DenseMatrix m = std::move(v);
  EXPECT_TRUE(m.is_view());
  EXPECT_EQ(m.data(), buf);
  EXPECT_EQ(v.rows(), 0);  // moved-from view is detached, not dangling
  EXPECT_EQ(v.data(), nullptr);
}

TEST(DenseMatrix, ResizeDetachesView) {
  double buf[4] = {1, 2, 3, 4};
  DenseMatrix v;
  v.attach(buf, 2, 2);
  v.resize(3, 3);  // becomes owning; external storage untouched
  EXPECT_FALSE(v.is_view());
  for (idx c = 0; c < 3; ++c) {
    for (idx r = 0; r < 3; ++r) EXPECT_DOUBLE_EQ(v(r, c), 0.0);
  }
  EXPECT_DOUBLE_EQ(buf[3], 4.0);
}

TEST(Potrf, FactorsIdentity) {
  DenseMatrix a(4, 4);
  for (idx i = 0; i < 4; ++i) a(i, i) = 1.0;
  potrf_lower(a);
  for (idx i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(a(i, i), 1.0);
}

TEST(Potrf, Known2x2) {
  // [[4, 2], [2, 5]] = [[2,0],[1,2]] [[2,1],[0,2]]
  DenseMatrix a(2, 2);
  a(0, 0) = 4.0;
  a(1, 0) = 2.0;
  a(0, 1) = 2.0;
  a(1, 1) = 5.0;
  potrf_lower(a);
  EXPECT_DOUBLE_EQ(a(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(a(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(a(1, 1), 2.0);
  EXPECT_DOUBLE_EQ(a(0, 1), 0.0);  // upper triangle zeroed
}

TEST(Potrf, ReconstructsRandomSpd) {
  Rng rng(5);
  for (idx n : {1, 3, 8, 17, 33}) {
    DenseMatrix a = random_spd(n, rng);
    DenseMatrix l = a;
    potrf_lower(l);
    for (idx r = 0; r < n; ++r) {
      for (idx c = 0; c <= r; ++c) {
        double s = 0.0;
        for (idx k = 0; k <= c; ++k) s += l(r, k) * l(c, k);
        EXPECT_NEAR(s, a(r, c), 1e-9 * n) << "n=" << n << " r=" << r << " c=" << c;
      }
    }
  }
}

TEST(Potrf, RejectsIndefinite) {
  DenseMatrix a(2, 2);
  a(0, 0) = 1.0;
  a(1, 0) = 3.0;
  a(1, 1) = 1.0;  // 1 - 9 < 0
  EXPECT_THROW(potrf_lower(a), Error);
}

TEST(Potrf, RejectsNonSquare) {
  DenseMatrix a(2, 3);
  EXPECT_THROW(potrf_lower(a), Error);
}

TEST(Trsm, SolvesAgainstFactor) {
  Rng rng(6);
  const idx k = 9, m = 5;
  DenseMatrix l = random_spd(k, rng);
  potrf_lower(l);
  // X true, B = X * L^T; trsm should recover X.
  DenseMatrix x(m, k);
  for (idx c = 0; c < k; ++c) {
    for (idx r = 0; r < m; ++r) x(r, c) = rng.uniform(-1.0, 1.0);
  }
  DenseMatrix b(m, k);
  for (idx r = 0; r < m; ++r) {
    for (idx c = 0; c < k; ++c) {
      double s = 0.0;
      for (idx p = 0; p <= c; ++p) s += x(r, p) * l(c, p);
      b(r, c) = s;
    }
  }
  trsm_right_ltrans(l, b);
  for (idx r = 0; r < m; ++r) {
    for (idx c = 0; c < k; ++c) EXPECT_NEAR(b(r, c), x(r, c), 1e-9);
  }
}

TEST(Trsm, DimensionMismatchThrows) {
  DenseMatrix l(3, 3), b(2, 4);
  EXPECT_THROW(trsm_right_ltrans(l, b), Error);
}

TEST(GemmNt, MatchesReference) {
  Rng rng(8);
  const idx m = 4, n = 6, k = 3;
  DenseMatrix a(m, k), b(n, k), c(m, n), ref(m, n);
  for (idx p = 0; p < k; ++p) {
    for (idx r = 0; r < m; ++r) a(r, p) = rng.uniform(-1.0, 1.0);
    for (idx r = 0; r < n; ++r) b(r, p) = rng.uniform(-1.0, 1.0);
  }
  for (idx r = 0; r < m; ++r) {
    for (idx cc = 0; cc < n; ++cc) {
      c(r, cc) = ref(r, cc) = rng.uniform(-1.0, 1.0);
      for (idx p = 0; p < k; ++p) ref(r, cc) -= a(r, p) * b(cc, p);
    }
  }
  gemm_nt_minus(a, b, c);
  for (idx r = 0; r < m; ++r) {
    for (idx cc = 0; cc < n; ++cc) EXPECT_NEAR(c(r, cc), ref(r, cc), 1e-12);
  }
}

// Exhaustive cross-check of every GEMM variant against the naive reference,
// over shapes spanning the micro-kernel edge cases: below/at/above the 8x4
// register tile, and straddling the packed-path profitability threshold
// (m,n,k around 48 hit the packed kernel with full tiles plus remainders).
TEST(GemmNt, AllVariantsMatchNaiveExhaustive) {
  Rng rng(1234);
  const idx sizes[] = {1, 2, 3, 4, 5, 7, 8, 47, 48, 49};
  for (idx m : sizes) {
    for (idx n : sizes) {
      for (idx k : sizes) {
        DenseMatrix a(m, k), b(n, k), c0(m, n);
        for (idx p = 0; p < k; ++p) {
          for (idx r = 0; r < m; ++r) a(r, p) = rng.uniform(-1.0, 1.0);
          for (idx r = 0; r < n; ++r) b(r, p) = rng.uniform(-1.0, 1.0);
        }
        for (idx r = 0; r < m; ++r) {
          for (idx cc = 0; cc < n; ++cc) c0(r, cc) = rng.uniform(-1.0, 1.0);
        }
        DenseMatrix c_packed = c0, c_dispatch = c0, c_neg(m, n);
        // Poison the overwrite destination: gemm_nt_neg_raw must not read C.
        for (idx r = 0; r < m; ++r) {
          for (idx cc = 0; cc < n; ++cc) c_neg(r, cc) = 1e30;
        }
        gemm_nt_minus_naive(a, b, c0);
        gemm_nt_minus_packed(a, b, c_packed);
        gemm_nt_minus(a, b, c_dispatch);
        gemm_nt_neg_raw(m, n, k, a.data(), m, b.data(), n, c_neg.data(), m);
        const double tol = 1e-12 * static_cast<double>(k);
        for (idx r = 0; r < m; ++r) {
          for (idx cc = 0; cc < n; ++cc) {
            const double ref = c0(r, cc);
            EXPECT_NEAR(c_packed(r, cc), ref, tol)
                << "packed m=" << m << " n=" << n << " k=" << k;
            EXPECT_NEAR(c_dispatch(r, cc), ref, tol)
                << "dispatch m=" << m << " n=" << n << " k=" << k;
            // c_neg holds -(A B^T) with no initial C contribution.
            double pure = 0.0;
            for (idx p = 0; p < k; ++p) pure -= a(r, p) * b(cc, p);
            EXPECT_NEAR(c_neg(r, cc), pure, tol)
                << "neg m=" << m << " n=" << n << " k=" << k;
          }
        }
      }
    }
  }
}

// Blocked potrf must agree with the scalar reference across sizes straddling
// the panel width (kPanel = 32) and the micro-kernel tile edges.
TEST(Potrf, BlockedMatchesUnblockedAcrossSizes) {
  Rng rng(77);
  for (idx n : {1, 2, 3, 5, 8, 31, 32, 33, 47, 48, 49, 64, 96, 130}) {
    DenseMatrix a = random_spd(n, rng);
    DenseMatrix l_ref = a, l_blk = a;
    potrf_lower_unblocked(l_ref);
    potrf_lower(l_blk);
    const double tol = 1e-12 * static_cast<double>(n);
    for (idx c = 0; c < n; ++c) {
      for (idx r = 0; r < n; ++r) {
        EXPECT_NEAR(l_blk(r, c), l_ref(r, c), tol)
            << "n=" << n << " r=" << r << " c=" << c;
      }
    }
  }
}

// Blocked trsm must agree with the scalar reference across panel-straddling
// k and both tall and short right-hand sides.
TEST(Trsm, BlockedMatchesUnblockedAcrossSizes) {
  Rng rng(78);
  for (idx k : {1, 2, 3, 5, 8, 31, 32, 33, 47, 48, 49, 64, 96, 130}) {
    for (idx m : {1, 3, 8, 50, 130}) {
      DenseMatrix l = random_spd(k, rng);
      potrf_lower_unblocked(l);
      DenseMatrix b(m, k);
      for (idx c = 0; c < k; ++c) {
        for (idx r = 0; r < m; ++r) b(r, c) = rng.uniform(-1.0, 1.0);
      }
      DenseMatrix b_ref = b, b_blk = b;
      trsm_right_ltrans_unblocked(l, b_ref);
      trsm_right_ltrans(l, b_blk);
      const double tol = 1e-12 * static_cast<double>(k);
      for (idx c = 0; c < k; ++c) {
        for (idx r = 0; r < m; ++r) {
          EXPECT_NEAR(b_blk(r, c), b_ref(r, c), tol)
              << "k=" << k << " m=" << m << " r=" << r << " c=" << c;
        }
      }
    }
  }
}

// resize_for_overwrite keeps the shape contract of resize without the
// zero-fill guarantee; within reserved capacity it must not reallocate.
TEST(DenseMatrix, ResizeForOverwriteKeepsShape) {
  DenseMatrix m;
  m.reserve(8, 8);
  const double* base = m.data();
  m.resize_for_overwrite(8, 8);
  EXPECT_EQ(m.rows(), 8);
  EXPECT_EQ(m.cols(), 8);
  EXPECT_EQ(m.data(), base);
  m.resize_for_overwrite(4, 6);
  EXPECT_EQ(m.rows(), 4);
  EXPECT_EQ(m.cols(), 6);
  EXPECT_EQ(m.data(), base);
}

TEST(GemmNt, ShapeMismatchThrows) {
  DenseMatrix a(2, 3), b(4, 2), c(2, 4);
  EXPECT_THROW(gemm_nt_minus(a, b, c), Error);
}

TEST(FlopCounts, MatchClosedForms) {
  // BFAC on k=1 is a single sqrt.
  EXPECT_EQ(flops_bfac(1), 1);
  // k(k+1)(2k+1)/6: 2*3*5/6 = 5.
  EXPECT_EQ(flops_bfac(2), 5);
  EXPECT_EQ(flops_bfac(48), 48LL * 49 * 97 / 6);
  EXPECT_EQ(flops_bdiv(10, 48), 10LL * 48 * 48);
  EXPECT_EQ(flops_bmod(3, 4, 5), 2LL * 3 * 4 * 5);
}

TEST(FlopCounts, MonotoneInDimensions) {
  EXPECT_LT(flops_bfac(10), flops_bfac(11));
  EXPECT_LT(flops_bdiv(10, 8), flops_bdiv(11, 8));
  EXPECT_LT(flops_bmod(2, 3, 4), flops_bmod(2, 3, 5));
}

// --- Solve-path kernels (gemm_nn / gemm_tn / triangular panel solves) ------

// Shapes straddle the register tiles and the packed-path profitability
// threshold, like the GemmNt exhaustive test above.
TEST(GemmSolve, NnVariantsMatchNaiveAcrossShapes) {
  Rng rng(17);
  for (idx m : {1, 3, 8, 13, 40, 96}) {
    for (idx n : {1, 2, 4, 9, 33}) {
      for (idx k : {1, 5, 16, 48}) {
        DenseMatrix a(m, k), b(k, n), c0(m, n);
        for (idx c = 0; c < k; ++c) {
          for (idx r = 0; r < m; ++r) a(r, c) = rng.uniform(-1.0, 1.0);
        }
        for (idx c = 0; c < n; ++c) {
          for (idx r = 0; r < k; ++r) b(r, c) = rng.uniform(-1.0, 1.0);
        }
        for (idx c = 0; c < n; ++c) {
          for (idx r = 0; r < m; ++r) c0(r, c) = rng.uniform(-1.0, 1.0);
        }
        DenseMatrix c1 = c0;
        DenseMatrix c2(m, n);
        // Naive C -= A*B.
        for (idx c = 0; c < n; ++c) {
          for (idx r = 0; r < m; ++r) {
            double s = c0(r, c);
            for (idx p = 0; p < k; ++p) s -= a(r, p) * b(p, c);
            c0(r, c) = s;
          }
        }
        gemm_nn_minus_raw(m, n, k, a.data(), m, b.data(), k, c1.data(), m);
        gemm_nn_neg_raw(m, n, k, a.data(), m, b.data(), k, c2.data(), m);
        for (idx c = 0; c < n; ++c) {
          for (idx r = 0; r < m; ++r) {
            EXPECT_NEAR(c1(r, c), c0(r, c), 1e-11)
                << "minus m=" << m << " n=" << n << " k=" << k;
            // c2 started from zero, so it should equal the pure -A*B part.
            double s = 0.0;
            for (idx p = 0; p < k; ++p) s -= a(r, p) * b(p, c);
            EXPECT_NEAR(c2(r, c), s, 1e-11)
                << "neg m=" << m << " n=" << n << " k=" << k;
          }
        }
      }
    }
  }
}

TEST(GemmSolve, TnMatchesNaiveAcrossShapes) {
  Rng rng(18);
  for (idx m : {1, 4, 9, 40}) {
    for (idx n : {1, 3, 8, 21}) {
      for (idx k : {1, 6, 16, 64}) {
        DenseMatrix a(k, m), b(k, n), c0(m, n);
        for (idx c = 0; c < m; ++c) {
          for (idx r = 0; r < k; ++r) a(r, c) = rng.uniform(-1.0, 1.0);
        }
        for (idx c = 0; c < n; ++c) {
          for (idx r = 0; r < k; ++r) b(r, c) = rng.uniform(-1.0, 1.0);
        }
        for (idx c = 0; c < n; ++c) {
          for (idx r = 0; r < m; ++r) c0(r, c) = rng.uniform(-1.0, 1.0);
        }
        DenseMatrix c1 = c0;
        // Naive C -= A^T*B.
        for (idx c = 0; c < n; ++c) {
          for (idx r = 0; r < m; ++r) {
            double s = c0(r, c);
            for (idx p = 0; p < k; ++p) s -= a(p, r) * b(p, c);
            c0(r, c) = s;
          }
        }
        gemm_tn_minus_raw(m, n, k, a.data(), k, b.data(), k, c1.data(), m);
        for (idx c = 0; c < n; ++c) {
          for (idx r = 0; r < m; ++r) {
            EXPECT_NEAR(c1(r, c), c0(r, c), 1e-11)
                << "tn m=" << m << " n=" << n << " k=" << k;
          }
        }
      }
    }
  }
}

TEST(TrsmLeft, LowerAndTransposeInvertAcrossSizes) {
  Rng rng(19);
  // Sizes straddle the kPanel=32 blocking of the panel solves.
  for (idx k : {1, 2, 7, 31, 32, 33, 80}) {
    for (idx n : {1, 2, 5, 17}) {
      const DenseMatrix a = random_spd(k, rng);
      DenseMatrix l = a;
      potrf_lower(l);
      DenseMatrix x0(k, n);
      for (idx c = 0; c < n; ++c) {
        for (idx r = 0; r < k; ++r) x0(r, c) = rng.uniform(-1.0, 1.0);
      }
      // Scalar reference forward solve.
      DenseMatrix ref = x0;
      for (idx c = 0; c < n; ++c) {
        for (idx r = 0; r < k; ++r) {
          double s = ref(r, c);
          for (idx p = 0; p < r; ++p) s -= l(r, p) * ref(p, c);
          ref(r, c) = s / l(r, r);
        }
      }
      DenseMatrix x1 = x0;
      trsm_left_lower(k, n, l.data(), k, x1.data(), k);
      for (idx c = 0; c < n; ++c) {
        for (idx r = 0; r < k; ++r) {
          EXPECT_NEAR(x1(r, c), ref(r, c), 1e-9) << "k=" << k << " n=" << n;
        }
      }
      // L^T solve applied after the L solve reconstructs A^{-1} x0; check
      // A * result == x0.
      trsm_left_ltrans(k, n, l.data(), k, x1.data(), k);
      for (idx c = 0; c < n; ++c) {
        for (idx r = 0; r < k; ++r) {
          double s = 0.0;
          for (idx p = 0; p < k; ++p) s += a(r, p) * x1(p, c);
          EXPECT_NEAR(s, x0(r, c), 1e-7) << "k=" << k << " n=" << n;
        }
      }
    }
  }
}

// --- Runtime ISA dispatch --------------------------------------------------

// Restores the active kernel table after a forced-path test so later tests
// (and other suites in this binary) run on the host's best path again.
struct IsaGuard {
  KernelIsa saved = kernel_isa();
  ~IsaGuard() { set_kernel_isa(saved); }
};

std::vector<KernelIsa> supported_isas() {
  std::vector<KernelIsa> out;
  for (KernelIsa isa :
       {KernelIsa::kScalar, KernelIsa::kAvx2, KernelIsa::kAvx512}) {
    if (kernel_isa_supported(isa)) out.push_back(isa);
  }
  return out;
}

TEST(KernelIsa, NamesAndScalarAlwaysSupported) {
  EXPECT_TRUE(kernel_isa_supported(KernelIsa::kScalar));
  EXPECT_STREQ(kernel_isa_name(KernelIsa::kScalar), "scalar");
  EXPECT_STREQ(kernel_isa_name(KernelIsa::kAvx2), "avx2");
  EXPECT_STREQ(kernel_isa_name(KernelIsa::kAvx512), "avx512");
}

TEST(KernelIsa, SetRefusesUnsupportedAndKeepsActivePath) {
  IsaGuard guard;
  const KernelIsa before = kernel_isa();
  for (KernelIsa isa : {KernelIsa::kAvx2, KernelIsa::kAvx512}) {
    if (!kernel_isa_supported(isa)) {
      EXPECT_FALSE(set_kernel_isa(isa));
      EXPECT_EQ(kernel_isa(), before);
    } else {
      EXPECT_TRUE(set_kernel_isa(isa));
      EXPECT_EQ(kernel_isa(), isa);
      ASSERT_TRUE(set_kernel_isa(before));
    }
  }
}

// The packed GEMM path promises bitwise-identical results on every ISA:
// shared cache blocking and exactly one correctly-rounded FMA per element
// per rank-1 update, whether that FMA comes from std::fma, a ymm, or a zmm.
// Run the same accumulate-and-overwrite GEMMs under every supported path
// and compare bit for bit. Shapes all satisfy the packed-path gate
// (m >= 8, n >= 4, and k >= 8 or m*n >= 8192), including ragged edges that
// exercise the masked AVX-512 tail lanes.
TEST(KernelIsa, PackedGemmBitwiseIdenticalAcrossPaths) {
  const std::vector<KernelIsa> isas = supported_isas();
  if (isas.size() < 2) GTEST_SKIP() << "only one ISA path on this host";
  IsaGuard guard;
  Rng rng(91);
  for (const auto& [m, n, k] :
       std::vector<std::tuple<idx, idx, idx>>{
           {64, 48, 48}, {96, 48, 129}, {33, 5, 9}, {130, 67, 31}}) {
    DenseMatrix a(m, k), b(n, k), c0(m, n);
    for (idx cc = 0; cc < k; ++cc) {
      for (idx r = 0; r < m; ++r) a(r, cc) = rng.uniform(-1.0, 1.0);
      for (idx r = 0; r < n; ++r) b(r, cc) = rng.uniform(-1.0, 1.0);
    }
    for (idx cc = 0; cc < n; ++cc) {
      for (idx r = 0; r < m; ++r) c0(r, cc) = rng.uniform(-1.0, 1.0);
    }
    std::vector<DenseMatrix> acc, over;
    for (KernelIsa isa : isas) {
      ASSERT_TRUE(set_kernel_isa(isa));
      DenseMatrix c1 = c0;
      gemm_nt_minus_raw(m, n, k, a.data(), m, b.data(), n, c1.data(), m);
      acc.push_back(std::move(c1));
      DenseMatrix c2(m, n);
      gemm_nt_neg_raw(m, n, k, a.data(), m, b.data(), n, c2.data(), m);
      over.push_back(std::move(c2));
    }
    for (std::size_t i = 1; i < isas.size(); ++i) {
      for (idx cc = 0; cc < n; ++cc) {
        for (idx r = 0; r < m; ++r) {
          ASSERT_EQ(acc[0](r, cc), acc[i](r, cc))
              << kernel_isa_name(isas[i]) << " accumulate m=" << m << " n=" << n
              << " k=" << k << " at (" << r << "," << cc << ")";
          ASSERT_EQ(over[0](r, cc), over[i](r, cc))
              << kernel_isa_name(isas[i]) << " overwrite m=" << m << " n=" << n
              << " k=" << k << " at (" << r << "," << cc << ")";
        }
      }
    }
  }
}

// Same bitwise contract for the fp32 packed path (the mixed-precision
// factorization's BMOD kernel).
TEST(KernelIsa, PackedGemmF32BitwiseIdenticalAcrossPaths) {
  const std::vector<KernelIsa> isas = supported_isas();
  if (isas.size() < 2) GTEST_SKIP() << "only one ISA path on this host";
  IsaGuard guard;
  Rng rng(92);
  const idx m = 100, n = 48, k = 65;
  std::vector<float> a(static_cast<std::size_t>(m) * k);
  std::vector<float> b(static_cast<std::size_t>(n) * k);
  std::vector<float> c0(static_cast<std::size_t>(m) * n);
  for (float& v : a) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (float& v : b) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (float& v : c0) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  std::vector<std::vector<float>> acc, over;
  for (KernelIsa isa : isas) {
    ASSERT_TRUE(set_kernel_isa(isa));
    std::vector<float> c1 = c0;
    gemm_nt_minus_raw(m, n, k, a.data(), m, b.data(), n, c1.data(), m);
    acc.push_back(std::move(c1));
    std::vector<float> c2(static_cast<std::size_t>(m) * n);
    gemm_nt_neg_raw(m, n, k, a.data(), m, b.data(), n, c2.data(), m);
    over.push_back(std::move(c2));
  }
  for (std::size_t i = 1; i < isas.size(); ++i) {
    for (std::size_t p = 0; p < acc[0].size(); ++p) {
      ASSERT_EQ(acc[0][p], acc[i][p]) << kernel_isa_name(isas[i]) << " acc " << p;
      ASSERT_EQ(over[0][p], over[i][p])
          << kernel_isa_name(isas[i]) << " over " << p;
    }
  }
}

// --- fp32 kernels ----------------------------------------------------------

// fp32 BFAC + BDIV against their fp64 counterparts: factor a random SPD
// block in both precisions and compare within single-precision tolerance.
TEST(KernelsF32, PotrfAndTrsmTrackFp64) {
  Rng rng(37);
  for (idx n : {1, 4, 17, 33, 48, 80}) {
    const DenseMatrix a = random_spd(n, rng);
    DenseMatrix l = a;
    potrf_lower(l);
    std::vector<float> lf(static_cast<std::size_t>(n) * n);
    for (idx c = 0; c < n; ++c) {
      for (idx r = 0; r < n; ++r) {
        lf[static_cast<std::size_t>(c) * n + r] = static_cast<float>(a(r, c));
      }
    }
    std::vector<idx> adjusted;
    double first_bad = 0.0;
    PivotControl pc;  // strict
    EXPECT_EQ(potrf_lower_guarded(n, lf.data(), n, pc, 0, adjusted, &first_bad),
              0);
    double scale = 0.0;
    for (idx c = 0; c < n; ++c) scale = std::max(scale, std::abs(l(c, c)));
    for (idx c = 0; c < n; ++c) {
      for (idx r = c; r < n; ++r) {
        EXPECT_NEAR(lf[static_cast<std::size_t>(c) * n + r], l(r, c),
                    2e-4 * scale * n)
            << "n=" << n << " (" << r << "," << c << ")";
      }
      for (idx r = 0; r < c; ++r) {
        EXPECT_EQ(lf[static_cast<std::size_t>(c) * n + r], 0.0f);
      }
    }

    // BDIV: B L^{-T} in both precisions.
    const idx m = 23;
    DenseMatrix bd(m, n);
    for (idx c = 0; c < n; ++c) {
      for (idx r = 0; r < m; ++r) bd(r, c) = rng.uniform(-1.0, 1.0);
    }
    std::vector<float> bf(static_cast<std::size_t>(m) * n);
    for (idx c = 0; c < n; ++c) {
      for (idx r = 0; r < m; ++r) {
        bf[static_cast<std::size_t>(c) * m + r] = static_cast<float>(bd(r, c));
      }
    }
    trsm_right_ltrans(l, bd);
    trsm_right_ltrans(m, n, lf.data(), n, bf.data(), m);
    double bscale = 0.0;
    for (idx c = 0; c < n; ++c) {
      for (idx r = 0; r < m; ++r) bscale = std::max(bscale, std::abs(bd(r, c)));
    }
    for (idx c = 0; c < n; ++c) {
      for (idx r = 0; r < m; ++r) {
        EXPECT_NEAR(bf[static_cast<std::size_t>(c) * m + r], bd(r, c),
                    1e-3 * std::max(1.0, bscale) * n)
            << "n=" << n << " (" << r << "," << c << ")";
      }
    }
  }
}

// fp32 strict breakdown: a pivot that survives in double but rounds to a
// non-positive Schur complement in float must be reported (this is the
// trigger for SparseCholesky's automatic fp64 retry).
TEST(KernelsF32, StrictBreakdownOnFp32RoundedPivot) {
  // [[1, b], [b, 1]] with b = 1 - 2^-25: b rounds to 1.0f, so the fp32
  // Schur complement is exactly 0 while the fp64 one is 2^-24 - 2^-50 > 0.
  const double b = 1.0 - std::ldexp(1.0, -25);
  std::vector<float> a = {1.0f, static_cast<float>(b), 0.0f, 1.0f};
  std::vector<idx> adjusted;
  double first_bad = 1.0;
  PivotControl pc;  // strict
  EXPECT_EQ(potrf_lower_guarded(2, a.data(), 2, pc, 10, adjusted, &first_bad),
            1);
  ASSERT_EQ(adjusted.size(), 1u);
  EXPECT_EQ(adjusted[0], 11);  // base_col + local
  EXPECT_LE(first_bad, 0.0);

  DenseMatrix ad(2, 2);
  ad(0, 0) = 1.0;
  ad(1, 0) = b;
  ad(1, 1) = 1.0;
  potrf_lower(ad);  // fp64 succeeds
  EXPECT_GT(ad(1, 1), 0.0);
}

}  // namespace
}  // namespace spc
