// Numeric factorization and solve tests, including parameterized sweeps over
// matrix families, block sizes, and amalgamation settings (property-style:
// ||A - LL^T|| small and A x = b solved accurately for every configuration).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>

#include "cholesky/sparse_cholesky.hpp"
#include "factor/block_solve.hpp"
#include "factor/numeric_factor.hpp"
#include "factor/residual.hpp"
#include "gen/benchmark_suite.hpp"
#include "gen/dense_gen.hpp"
#include "gen/grid_gen.hpp"
#include "gen/lp_gen.hpp"
#include "gen/mesh_gen.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace spc {
namespace {

std::vector<double> random_vector(idx n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(static_cast<std::size_t>(n));
  for (double& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

TEST(NumericFactor, DenseMatchesDenseCholesky) {
  const SymSparse a = make_dense_spd(40);
  SolverOptions opt;
  opt.ordering = SolverOptions::Ordering::kNatural;
  opt.block_size = 12;
  SparseCholesky chol = SparseCholesky::analyze(a, opt);
  chol.factorize();
  EXPECT_LT(factor_residual_dense(chol.permuted_matrix(), chol.factor()), 1e-12);
}

TEST(NumericFactor, SmallGridExactResidual) {
  const SymSparse a = make_grid2d(7, 8);
  SparseCholesky chol = SparseCholesky::analyze(a);
  chol.factorize();
  EXPECT_LT(factor_residual_dense(chol.permuted_matrix(), chol.factor()), 1e-12);
}

TEST(NumericFactor, FactorEntryAccessor) {
  const SymSparse a = make_grid2d(5, 5);
  SparseCholesky chol = SparseCholesky::analyze(a);
  chol.factorize();
  const BlockFactor& f = chol.factor();
  // Diagonal entries of L are positive; upper queries rejected.
  for (idx i = 0; i < a.num_rows(); ++i) EXPECT_GT(f.entry(i, i), 0.0);
  EXPECT_THROW(f.entry(0, 1), Error);
}

TEST(NumericFactor, ThrowsOnIndefinite) {
  // -I is symmetric but not positive definite... our SymSparse validate
  // requires positive diagonal, so build an indefinite one with positive
  // diagonal: [[1, 3], [3, 1]].
  const SymSparse a = SymSparse::from_entries(2, {1.0, 1.0}, {{1, 0}}, {3.0});
  SolverOptions opt;
  opt.ordering = SolverOptions::Ordering::kNatural;
  SparseCholesky chol = SparseCholesky::analyze(a, opt);
  EXPECT_THROW(chol.factorize(), Error);
}

TEST(BlockSolve, ForwardBackwardAgainstMultiply) {
  const SymSparse a = make_grid2d(9, 6);
  SparseCholesky chol = SparseCholesky::analyze(a);
  chol.factorize();
  const std::vector<double> x_true = random_vector(a.num_rows(), 17);
  const std::vector<double> b = a.multiply(x_true);
  const std::vector<double> x = chol.solve(b);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(x[i], x_true[i], 1e-8);
}

TEST(BlockSolve, SolveBeforeFactorizeThrows) {
  const SymSparse a = make_grid2d(4, 4);
  SparseCholesky chol = SparseCholesky::analyze(a);
  EXPECT_THROW(chol.solve(std::vector<double>(16, 1.0)), Error);
}

TEST(BlockSolve, RhsSizeMismatchThrows) {
  const SymSparse a = make_grid2d(4, 4);
  SparseCholesky chol = SparseCholesky::analyze(a);
  chol.factorize();
  EXPECT_THROW(chol.solve(std::vector<double>(7, 1.0)), Error);
}

TEST(SolveSpd, OneShotHelper) {
  const SymSparse a = make_grid3d(4, 4, 4);
  const std::vector<double> x_true = random_vector(a.num_rows(), 23);
  const std::vector<double> b = a.multiply(x_true);
  const std::vector<double> x = solve_spd(a, b);
  EXPECT_LT(solve_residual(a, x, b), 1e-10);
}

// ---------------------------------------------------------------------------
// Parameterized sweep: family x block size x amalgamation.

enum class Family { kGrid2d, kGrid3d, kDense, kFem, kLp };

std::string family_name(Family f) {
  switch (f) {
    case Family::kGrid2d: return "grid2d";
    case Family::kGrid3d: return "grid3d";
    case Family::kDense: return "dense";
    case Family::kFem: return "fem";
    case Family::kLp: return "lp";
  }
  return "?";
}

SymSparse make_family(Family f) {
  switch (f) {
    case Family::kGrid2d: return make_grid2d(13, 11);
    case Family::kGrid3d: return make_grid3d(5, 4, 6);
    case Family::kDense: return make_dense_spd(70);
    case Family::kFem: return make_fem_mesh({60, 3, 3, 9.0, 11});
    case Family::kLp: {
      LpGenOptions o;
      o.n = 150;
      o.mean_overlap = 12.0;
      return make_lp_normal_equations(o);
    }
  }
  SPC_CHECK(false, "unknown family");
}

class FactorSweep
    : public ::testing::TestWithParam<std::tuple<Family, idx, bool>> {};

TEST_P(FactorSweep, ResidualSmallAndSolveAccurate) {
  const auto [family, block_size, amalg] = GetParam();
  const SymSparse a = make_family(family);
  SolverOptions opt;
  opt.block_size = block_size;
  opt.amalgamate = amalg;
  opt.ordering = family == Family::kDense ? SolverOptions::Ordering::kNatural
                                          : SolverOptions::Ordering::kMmd;
  SparseCholesky chol = SparseCholesky::analyze(a, opt);
  chol.factorize();
  EXPECT_LT(factor_residual_probe(chol.permuted_matrix(), chol.factor()), 1e-10);
  const std::vector<double> x_true = random_vector(a.num_rows(), 31);
  const std::vector<double> b = a.multiply(x_true);
  EXPECT_LT(solve_residual(a, chol.solve(b), b), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, FactorSweep,
    ::testing::Combine(::testing::Values(Family::kGrid2d, Family::kGrid3d,
                                         Family::kDense, Family::kFem, Family::kLp),
                       ::testing::Values<idx>(1, 4, 16, 48),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<Family, idx, bool>>& info) {
      return family_name(std::get<0>(info.param)) + "_B" +
             std::to_string(std::get<1>(info.param)) +
             (std::get<2>(info.param) ? "_amalg" : "_raw");
    });

// Small-scale benchmark-suite matrices must all factor accurately.
class SuiteFactor : public ::testing::TestWithParam<const char*> {};

TEST_P(SuiteFactor, FactorsAndSolves) {
  const BenchMatrix bm = make_bench_matrix(GetParam(), SuiteScale::kSmall);
  SolverOptions opt;
  opt.ordering = SolverOptions::Ordering::kNatural;
  SparseCholesky chol =
      SparseCholesky::analyze_ordered(bm.matrix, order_bench_matrix(bm), opt);
  chol.factorize();
  const std::vector<double> x_true = random_vector(bm.matrix.num_rows(), 41);
  const std::vector<double> b = bm.matrix.multiply(x_true);
  EXPECT_LT(solve_residual(bm.matrix, chol.solve(b), b), 1e-9) << bm.name;
}

INSTANTIATE_TEST_SUITE_P(Table1, SuiteFactor,
                         ::testing::Values("DENSE1024", "DENSE2048", "GRID150",
                                           "GRID300", "CUBE30", "CUBE35",
                                           "BCSSTK15", "BCSSTK29", "BCSSTK31",
                                           "BCSSTK33", "CUBE40", "DENSE4096",
                                           "COPTER2", "10FLEET"));

// --- BMOD placement on hand-built structures -------------------------------
//
// Three block columns K = [0,2), J = [2,8), I = [8,16) with entries
// e0 = L_JK, e1 = L_IK (column K) and e2 = L_IJ (column J). Block ids:
// diagonals 0..2, entries 3..5. The rows of each entry are chosen per test.
BlockStructure three_column_structure(const std::vector<idx>& rows_jk,
                                      const std::vector<idx>& rows_ik,
                                      const std::vector<idx>& rows_ij) {
  BlockStructure bs;
  bs.part.first_col = {0, 2, 8, 16};
  bs.part.sn_of_block = {0, 1, 2};
  for (idx b = 0; b < 3; ++b) {
    for (idx c = bs.part.first_col[b]; c < bs.part.first_col[b + 1]; ++c) {
      bs.part.block_of_col.push_back(b);
    }
  }
  bs.blkptr = {0, 2, 3, 3};
  bs.blkrow = {1, 2, 2};
  bs.rowptr.push_back(0);
  for (const std::vector<idx>* rows : {&rows_jk, &rows_ik, &rows_ij}) {
    bs.blkoff.push_back(static_cast<i64>(bs.rowidx.size()));
    bs.blkcnt.push_back(static_cast<idx>(rows->size()));
    bs.rowidx.insert(bs.rowidx.end(), rows->begin(), rows->end());
    if (rows != &rows_jk) bs.rowptr.push_back(static_cast<i64>(bs.rowidx.size()));
  }
  bs.rowptr.push_back(static_cast<i64>(bs.rowidx.size()));
  return bs;
}

constexpr BlockMod kModIJ{4, 3, 5, 0, 0};  // L_IJ -= L_IK L_JK^T
constexpr BlockMod kModJJ{3, 3, 1, 0, 0};  // L_JJ -= L_JK L_JK^T

DenseMatrix random_block(idx rows, idx cols, std::uint64_t seed) {
  Rng rng(seed);
  DenseMatrix m(rows, cols);
  for (idx c = 0; c < cols; ++c) {
    for (idx r = 0; r < rows; ++r) m(r, c) = rng.uniform(-1.0, 1.0);
  }
  return m;
}

// Applies `m` through apply_block_mod_to and checks every live entry of the
// destination against an element-by-element reference: for each source row
// r and source column c, dest(pos(r), c - first_j) -= sum_k L_IK(r,k) L_JK(c,k).
// Returns whether the update went in place.
bool expect_mod_matches_reference(const BlockStructure& bs, const BlockMod& m) {
  const idx nb = bs.num_block_cols();
  const i64 ei = m.src_a - nb;
  const i64 ej = m.src_b - nb;
  const bool diag = is_diag_block(bs, m.dest);
  const idx wj = bs.part.width(1);
  const idx wk = bs.part.width(0);
  const std::vector<idx> dest_rows =
      diag ? std::vector<idx>{2, 3, 4, 5, 6, 7}
           : std::vector<idx>(bs.entry_rows_begin(m.dest - nb),
                              bs.entry_rows_end(m.dest - nb));
  const DenseMatrix li = random_block(bs.blkcnt[ei], wk, 1);
  const DenseMatrix lj = random_block(bs.blkcnt[ej], wk, 2);
  DenseMatrix dest = random_block(static_cast<idx>(dest_rows.size()), wj, 3);
  DenseMatrix want = dest;
  for (idx a = 0; a < li.rows(); ++a) {
    const idx r = bs.entry_rows_begin(ei)[a];
    const idx pr = static_cast<idx>(
        std::find(dest_rows.begin(), dest_rows.end(), r) - dest_rows.begin());
    for (idx b = 0; b < lj.rows(); ++b) {
      const idx c = bs.entry_rows_begin(ej)[b] - bs.part.first_col[1];
      for (idx k = 0; k < wk; ++k) want(pr, c) -= li(a, k) * lj(b, k);
    }
  }
  UpdateScratch update;
  std::vector<idx> rel_rows;
  apply_block_mod_to(bs, m, li.data(), lj.data(), dest.data(), update, rel_rows);
  for (idx c = 0; c < wj; ++c) {
    // A diagonal destination's strict upper triangle is dead storage.
    for (idx r = diag ? c : 0; r < dest.rows(); ++r) {
      EXPECT_NEAR(dest(r, c), want(r, c), 1e-14) << "(" << r << ", " << c << ")";
    }
  }
  return place_block_mod(bs, m).in_place;
}

TEST(BmodPlacement, ContiguousRectangleGoesInPlace) {
  const BlockStructure bs = three_column_structure({3, 4, 5}, {9, 10, 11}, {8, 9, 10, 11, 13});
  const BmodPlacement p = place_block_mod(bs, kModIJ);
  EXPECT_TRUE(p.in_place);
  EXPECT_EQ(p.r0, 1);
  EXPECT_EQ(p.c0, 1);
  EXPECT_TRUE(expect_mod_matches_reference(bs, kModIJ));
}

TEST(BmodPlacement, GappedSourceWithMatchingEndpointsIsScattered) {
  // Source rows {9, 11, 13} against destination rows {9, 12, 13}: the ends
  // line up with a destination run of length 3, the middle row does not.
  const BlockStructure bs = three_column_structure({3, 4}, {9, 11, 13}, {9, 12, 13});
  EXPECT_FALSE(place_block_mod(bs, kModIJ).in_place);
  // Row 11 is not a destination row at all: the scatter path's containment
  // check must reject it instead of writing it into row 12.
  const DenseMatrix li = random_block(3, 2, 1);
  const DenseMatrix lj = random_block(2, 2, 2);
  DenseMatrix dest(3, 6);
  UpdateScratch update;
  std::vector<idx> rel_rows;
  EXPECT_THROW(apply_block_mod_to(bs, kModIJ, li.data(), lj.data(), dest.data(),
                                  update, rel_rows),
               Error);
}

TEST(BmodPlacement, GappedRowsAndColumnsAreScatteredCorrectly) {
  // Rows {9, 13} are two runs of destination rows {9, 10, 13}.
  const BlockStructure rows = three_column_structure({3, 4}, {9, 13}, {9, 10, 13});
  EXPECT_FALSE(place_block_mod(rows, kModIJ).in_place);
  EXPECT_FALSE(expect_mod_matches_reference(rows, kModIJ));
  // Columns {2, 4, 5}: the rows are contiguous, the columns are not.
  const BlockStructure cols = three_column_structure({2, 4, 5}, {9, 10}, {9, 10, 13});
  EXPECT_FALSE(place_block_mod(cols, kModIJ).in_place);
  EXPECT_FALSE(expect_mod_matches_reference(cols, kModIJ));
}

TEST(BmodPlacement, DiagonalDestinationIsPlacedOnTheDiagonal) {
  const BlockStructure bs = three_column_structure({4, 5, 6}, {9}, {9});
  const BmodPlacement p = place_block_mod(bs, kModJJ);
  EXPECT_TRUE(p.in_place);
  EXPECT_EQ(p.r0, 2);
  EXPECT_EQ(p.c0, 2);
  EXPECT_TRUE(expect_mod_matches_reference(bs, kModJJ));
  const BlockStructure gapped = three_column_structure({2, 5, 6}, {9}, {9});
  EXPECT_FALSE(place_block_mod(gapped, kModJJ).in_place);
  EXPECT_FALSE(expect_mod_matches_reference(gapped, kModJJ));
}

TEST(BmodPlacement, OneRowAndOneColumnUpdatesArePlaced) {
  const BlockStructure row = three_column_structure({3, 4, 5, 6}, {12}, {9, 12, 13});
  const BmodPlacement pr = place_block_mod(row, kModIJ);
  EXPECT_TRUE(pr.in_place);
  EXPECT_EQ(pr.r0, 1);
  EXPECT_EQ(pr.c0, 1);
  EXPECT_TRUE(expect_mod_matches_reference(row, kModIJ));
  const BlockStructure col = three_column_structure({7}, {12, 13}, {9, 12, 13});
  const BmodPlacement pc = place_block_mod(col, kModIJ);
  EXPECT_TRUE(pc.in_place);
  EXPECT_EQ(pc.r0, 1);
  EXPECT_EQ(pc.c0, 5);
  EXPECT_TRUE(expect_mod_matches_reference(col, kModIJ));
  const BlockStructure diag = three_column_structure({7}, {9}, {9});
  EXPECT_TRUE(expect_mod_matches_reference(diag, kModJJ));
}

}  // namespace
}  // namespace spc
