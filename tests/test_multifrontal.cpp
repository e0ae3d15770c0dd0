// Multifrontal engine tests: agreement with the right-looking block
// factorization and the shared-memory executor, residual accuracy across matrix families, and the
// working-set (stack peak) accounting.
#include <gtest/gtest.h>

#include <algorithm>

#include "cholesky/sparse_cholesky.hpp"
#include "factor/multifrontal.hpp"
#include "factor/parallel_factor.hpp"
#include "factor/residual.hpp"
#include "gen/dense_gen.hpp"
#include "gen/grid_gen.hpp"
#include "gen/mesh_gen.hpp"
#include "support/error.hpp"

namespace spc {
namespace {

double max_factor_diff(const BlockFactor& x, const BlockFactor& y) {
  double max_diff = 0.0;
  for (std::size_t j = 0; j < x.diag.size(); ++j) {
    for (idx c = 0; c < x.diag[j].cols(); ++c) {
      for (idx r = c; r < x.diag[j].rows(); ++r) {
        max_diff = std::max(max_diff, std::abs(x.diag[j](r, c) - y.diag[j](r, c)));
      }
    }
  }
  for (std::size_t e = 0; e < x.offdiag.size(); ++e) {
    for (idx c = 0; c < x.offdiag[e].cols(); ++c) {
      for (idx r = 0; r < x.offdiag[e].rows(); ++r) {
        max_diff =
            std::max(max_diff, std::abs(x.offdiag[e](r, c) - y.offdiag[e](r, c)));
      }
    }
  }
  return max_diff;
}

class EngineAgreement : public ::testing::TestWithParam<int> {};

TEST_P(EngineAgreement, AllThreeEnginesAgree) {
  SymSparse a;
  SolverOptions opt;
  opt.block_size = 10;
  switch (GetParam()) {
    case 0: a = make_grid2d(12, 14); break;
    case 1: a = make_grid3d(4, 5, 6); break;
    case 2:
      a = make_dense_spd(70);
      opt.ordering = SolverOptions::Ordering::kNatural;
      break;
    case 3: a = make_fem_mesh({70, 3, 2, 9.0, 99}); break;
  }
  SparseCholesky chol = SparseCholesky::analyze(a, opt);
  const BlockFactor right = block_factorize(chol.permuted_matrix(), chol.structure(),
                                            chol.task_graph());
  const BlockFactor par = block_factorize_parallel(
      chol.permuted_matrix(), chol.structure(), chol.task_graph(),
      ParallelFactorOptions{4});
  const BlockFactor mf = block_factorize_multifrontal(
      chol.permuted_matrix(), chol.structure(), chol.symbolic());
  EXPECT_LT(max_factor_diff(right, par), 1e-9);
  EXPECT_LT(max_factor_diff(right, mf), 1e-9);
  EXPECT_LT(factor_residual_probe(chol.permuted_matrix(), mf), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Families, EngineAgreement, ::testing::Range(0, 4));

TEST(Multifrontal, RejectsIndefinite) {
  const SymSparse a =
      SymSparse::from_entries(2, {1.0, 1.0}, {{1, 0}}, {3.0});
  SolverOptions opt;
  opt.ordering = SolverOptions::Ordering::kNatural;
  SparseCholesky chol = SparseCholesky::analyze(a, opt);
  EXPECT_THROW(block_factorize_multifrontal(chol.permuted_matrix(),
                                            chol.structure(), chol.symbolic()),
               Error);
}

TEST(Multifrontal, PeakStackBounds) {
  SparseCholesky chol = SparseCholesky::analyze(make_grid2d(20, 20));
  const i64 peak = multifrontal_peak_entries(chol.symbolic());
  // At least the largest front, at most all fronts together.
  i64 largest = 0, total = 0;
  const SymbolicFactor& sf = chol.symbolic();
  for (idx s = 0; s < sf.num_supernodes(); ++s) {
    const i64 nf = sf.sn.width(s) + sf.rows_below(s);
    largest = std::max(largest, nf * nf);
    total += nf * nf;
  }
  EXPECT_GE(peak, largest);
  EXPECT_LE(peak, total);
}

TEST(Multifrontal, DenseMatrixSingleFront) {
  // A dense matrix is one supernode: the front is the whole matrix and the
  // peak equals n^2.
  SolverOptions opt;
  opt.ordering = SolverOptions::Ordering::kNatural;
  SparseCholesky chol = SparseCholesky::analyze(make_dense_spd(30), opt);
  EXPECT_EQ(multifrontal_peak_entries(chol.symbolic()), 30 * 30);
}

TEST(Multifrontal, SolvesThroughFacadeFactorStorage) {
  // The multifrontal factor drops into the same solve path.
  const SymSparse a = make_grid2d(9, 9);
  SparseCholesky chol = SparseCholesky::analyze(a);
  const BlockFactor mf = block_factorize_multifrontal(
      chol.permuted_matrix(), chol.structure(), chol.symbolic());
  EXPECT_LT(factor_residual_dense(chol.permuted_matrix(), mf), 1e-12);
}

}  // namespace
}  // namespace spc
