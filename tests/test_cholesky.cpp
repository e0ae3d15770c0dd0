// Facade-level tests: SparseCholesky analysis products, parallel planning,
// and cross-module consistency (integration tests).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cholesky/sparse_cholesky.hpp"
#include "factor/residual.hpp"
#include "gen/benchmark_suite.hpp"
#include "gen/grid_gen.hpp"
#include "gen/lp_gen.hpp"
#include "gen/mesh_gen.hpp"
#include "graph/permutation.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "symbolic/colcount.hpp"
#include "symbolic/etree.hpp"

namespace spc {
namespace {

TEST(Facade, OrderingIsValidPermutation) {
  SparseCholesky chol = SparseCholesky::analyze(make_grid2d(10, 12));
  EXPECT_TRUE(is_permutation(chol.ordering()));
  EXPECT_EQ(chol.num_rows(), 120);
}

TEST(Facade, PermutedMatrixConsistentWithOrdering) {
  const SymSparse a = make_fem_mesh({40, 2, 2, 8.0, 2});
  SparseCholesky chol = SparseCholesky::analyze(a);
  // a.permuted(ordering) must equal the stored permuted matrix.
  const SymSparse manual = a.permuted(chol.ordering());
  EXPECT_EQ(manual.col_ptr(), chol.permuted_matrix().col_ptr());
  EXPECT_EQ(manual.row_idx(), chol.permuted_matrix().row_idx());
}

TEST(Facade, FactorStatsMatchDirectComputation) {
  const SymSparse a = make_grid2d(14, 14);
  SparseCholesky chol = SparseCholesky::analyze(a);
  const std::vector<i64> counts =
      factor_col_counts(chol.permuted_matrix(), chol.etree_parent());
  EXPECT_EQ(chol.factor_nnz_exact(), factor_nnz(counts));
  EXPECT_EQ(chol.factor_flops_exact(), factor_flops(counts));
}

TEST(Facade, FactorizedFlag) {
  SparseCholesky chol = SparseCholesky::analyze(make_grid2d(5, 5));
  EXPECT_FALSE(chol.factorized());
  EXPECT_THROW(chol.factor(), Error);
  chol.factorize();
  EXPECT_TRUE(chol.factorized());
}

TEST(Facade, SolveInOriginalOrder) {
  // The facade must hide the internal permutation completely: solve with a
  // b whose entries identify their index.
  const SymSparse a = make_grid2d(6, 7);
  SparseCholesky chol = SparseCholesky::analyze(a);
  chol.factorize();
  std::vector<double> x_true(static_cast<std::size_t>(a.num_rows()));
  for (std::size_t i = 0; i < x_true.size(); ++i) x_true[i] = static_cast<double>(i);
  const std::vector<double> b = a.multiply(x_true);
  const std::vector<double> x = chol.solve(b);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(x[i], x_true[i], 1e-7);
}

TEST(Facade, BlockSizeOptionRespected) {
  SolverOptions opt;
  opt.block_size = 5;
  SparseCholesky chol = SparseCholesky::analyze(make_grid2d(12, 12), opt);
  for (idx b = 0; b < chol.structure().num_block_cols(); ++b) {
    EXPECT_LE(chol.structure().part.width(b), 5);
  }
}

TEST(Facade, AnalyzeOrderedRejectsBadPermutation) {
  EXPECT_THROW(
      SparseCholesky::analyze_ordered(make_grid2d(4, 4), std::vector<idx>{0, 1}),
      Error);
}

TEST(Plan, BalanceStatsPopulated) {
  SparseCholesky chol = SparseCholesky::analyze(make_grid2d(20, 20));
  const ParallelPlan plan = chol.plan_parallel(
      16, RemapHeuristic::kDecreasingWork, RemapHeuristic::kIncreasingDepth);
  EXPECT_GT(plan.balance.overall, 0.0);
  EXPECT_LE(plan.balance.overall, 1.0);
  plan.map.validate();
  EXPECT_EQ(plan.map.num_blocks(), chol.structure().num_block_cols());
}

TEST(Plan, DomainsToggle) {
  SparseCholesky chol = SparseCholesky::analyze(make_grid2d(24, 24));
  const ParallelPlan with = chol.plan_parallel(
      8, RemapHeuristic::kCyclic, RemapHeuristic::kCyclic, true);
  const ParallelPlan without = chol.plan_parallel(
      8, RemapHeuristic::kCyclic, RemapHeuristic::kCyclic, false);
  EXPECT_GT(with.domains.num_domains, 0);
  EXPECT_EQ(without.domains.num_domains, 0);
  // Domain work appears only in the domain plan.
  const i64 dom_work = std::accumulate(with.root_work.domain_work.begin(),
                                       with.root_work.domain_work.end(), i64{0});
  EXPECT_GT(dom_work, 0);
}

TEST(Plan, TotalWorkInvariantAcrossMappings) {
  SparseCholesky chol = SparseCholesky::analyze(make_grid2d(18, 18));
  const ParallelPlan a = chol.plan_parallel(
      4, RemapHeuristic::kCyclic, RemapHeuristic::kCyclic, false);
  const ParallelPlan b = chol.plan_parallel(
      4, RemapHeuristic::kDecreasingWork, RemapHeuristic::kIncreasingDepth, false);
  EXPECT_EQ(a.root_work.total, b.root_work.total);
}

TEST(Integration, BalanceBoundsSimulatedEfficiency) {
  // The paper's central inequality: efficiency <= overall balance (modulo
  // communication/scheduling, which only lower efficiency further). Verified
  // without domains where the bound's attribution is exact.
  SparseCholesky chol = SparseCholesky::analyze(make_grid2d(28, 28));
  for (RemapHeuristic h : {RemapHeuristic::kCyclic, RemapHeuristic::kDecreasingWork}) {
    const ParallelPlan plan =
        chol.plan_parallel(16, h, RemapHeuristic::kCyclic, /*use_domains=*/false);
    const SimResult r = chol.simulate(plan);
    EXPECT_LE(r.efficiency(), plan.balance.overall * 1.15 + 0.02)
        << heuristic_name(h);
  }
}

TEST(Integration, HeuristicRemappingImprovesMeanSimulatedPerformance) {
  // End-to-end version of the paper's Table 5 claim: remapping improves
  // MEAN performance across the suite (individual small matrices are noisy).
  double ratio_sum = 0.0;
  double balance_gain_sum = 0.0;
  int count = 0;
  for (const BenchMatrix& bm : standard_suite(SuiteScale::kSmall)) {
    SolverOptions opt;
    opt.ordering = SolverOptions::Ordering::kNatural;
    SparseCholesky chol =
        SparseCholesky::analyze_ordered(bm.matrix, order_bench_matrix(bm), opt);
    const ParallelPlan cy = chol.plan_parallel(
        16, RemapHeuristic::kCyclic, RemapHeuristic::kCyclic);
    const ParallelPlan id = chol.plan_parallel(
        16, RemapHeuristic::kIncreasingDepth, RemapHeuristic::kCyclic);
    ratio_sum += chol.simulate(cy).runtime_s / chol.simulate(id).runtime_s;
    balance_gain_sum += id.balance.overall - cy.balance.overall;
    ++count;
  }
  EXPECT_GT(ratio_sum / count, 1.0) << "mean speedup of ID over cyclic";
  EXPECT_GT(balance_gain_sum / count, 0.05) << "mean overall-balance gain";
}

// --- Mixed precision (fp32 factorization + fp64 refinement) ----------------

TEST(Precision, Fp32RefineReachesFp64BackwardError) {
  // The fp32 engine carries roughly half the significand, so the raw factor
  // is only good to ~1e-7; the automatic fp64 refinement steps applied by
  // solve() must pull the normwise backward error back to fp64 levels.
  LpGenOptions lpo;
  lpo.n = 400;
  const SymSparse cases[] = {make_grid3d(8, 8, 8),
                             make_lp_normal_equations(lpo)};
  for (const SymSparse& a : cases) {
    SolverOptions opt;
    opt.precision = SolverOptions::Precision::kFp32Refine;
    SparseCholesky chol = SparseCholesky::analyze(a, opt);
    chol.factorize();
    EXPECT_TRUE(chol.factorize_info().fp32);
    EXPECT_FALSE(chol.factorize_info().fp32_fallback);

    Rng rng(31);
    std::vector<double> b(static_cast<std::size_t>(a.num_rows()));
    for (double& v : b) v = rng.uniform(-1.0, 1.0);
    const std::vector<double> x = chol.solve(b);
    EXPECT_LE(solve_residual(a, x, b), 1e-10) << "n=" << a.num_rows();
  }
}

TEST(Precision, Fp32RefineWithPerturbedPivotsStaysBackwardStable) {
  // A pivot perturbed during the fp32 pass composes with mixed precision:
  // both sources of factor error are absorbed by the fp64 refinement.
  // Case 1 is an SPD mesh with the threshold a relative 1e-4 above its
  // smallest fp64 pivot, so that pivot is boosted by about 1e-4 of itself.
  const SymSparse spd = make_fem_mesh(
      {.nodes = 50, .dof = 2, .dim = 3, .avg_node_degree = 8.0, .seed = 5});
  const idx n = spd.num_rows();
  {
    SparseCholesky exact = SparseCholesky::analyze(spd);
    exact.factorize();
    double min_pivot = std::numeric_limits<double>::infinity();
    double max_diag = 0.0;
    for (idx j = 0; j < n; ++j) {
      const double l = exact.factor().entry(j, j);
      min_pivot = std::min(min_pivot, l * l);
      // Canonical columns store the diagonal entry first.
      max_diag = std::max(
          max_diag, std::abs(spd.values()[static_cast<std::size_t>(
                        spd.col_ptr()[static_cast<std::size_t>(j)])]));
    }
    SolverOptions opt;
    opt.precision = SolverOptions::Precision::kFp32Refine;
    opt.pivot_policy = PivotPolicy::kPerturb;
    opt.pivot_delta = min_pivot / max_diag * (1.0 + 1e-4);
    SparseCholesky chol = SparseCholesky::analyze(spd, opt);
    chol.factorize();
    EXPECT_TRUE(chol.factorize_info().fp32);
    EXPECT_GE(chol.factorize_info().perturbed_pivots, 1);

    Rng rng(7);
    std::vector<double> b(static_cast<std::size_t>(n));
    for (double& v : b) v = rng.uniform(-1.0, 1.0);
    const std::vector<double> x = chol.solve(b);
    EXPECT_LE(solve_residual(spd, x, b), 1e-10);
  }

  // Case 2 sets one diagonal entry of the same mesh to 1e-30. With its
  // off-diagonal couplings kept, the matrix is indefinite (a 2x2 principal
  // minor is negative): the boosted pivots cascade until the factor
  // overflows, and no refinement of an SPD factor solves an indefinite
  // system. The solve must say so with a typed error, not return NaN.
  std::vector<double> diag(static_cast<std::size_t>(n));
  std::vector<std::pair<idx, idx>> pos;
  std::vector<double> val;
  const auto& ptr = spd.col_ptr();
  for (idx c = 0; c < n; ++c) {
    for (i64 k = ptr[static_cast<std::size_t>(c)];
         k < ptr[static_cast<std::size_t>(c) + 1]; ++k) {
      const idx r = spd.row_idx()[static_cast<std::size_t>(k)];
      const double v = spd.values()[static_cast<std::size_t>(k)];
      if (r == c) {
        diag[static_cast<std::size_t>(c)] = v;
      } else {
        pos.emplace_back(r, c);
        val.push_back(v);
      }
    }
  }
  diag[static_cast<std::size_t>(n / 2)] = 1e-30;
  const SymSparse a = SymSparse::from_entries(n, diag, pos, val);

  SolverOptions opt;
  opt.precision = SolverOptions::Precision::kFp32Refine;
  opt.pivot_policy = PivotPolicy::kPerturb;
  SparseCholesky chol = SparseCholesky::analyze(a, opt);
  chol.factorize();
  EXPECT_TRUE(chol.factorize_info().fp32);
  EXPECT_GE(chol.factorize_info().perturbed_pivots, 1);

  Rng rng(7);
  std::vector<double> b(static_cast<std::size_t>(n));
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  try {
    const std::vector<double> x = chol.solve(b);
    ADD_FAILURE() << "indefinite solve returned, residual "
                  << solve_residual(a, x, b);
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kNotPositiveDefinite) << e.what();
    EXPECT_STREQ(e.context().phase, "solve");
  }
}

TEST(Precision, Fp32BreakdownFallsBackToFp64) {
  // b = 1 - 2^-25 rounds to exactly 1.0f, so the fp32 Schur complement of
  // the trailing pivot is 0 (strict breakdown) while the fp64 complement
  // stays positive. The facade must retry in fp64 transparently.
  const double b01 = 1.0 - std::ldexp(1.0, -25);
  const SymSparse a = SymSparse::from_entries(2, {1.0, 1.0}, {{1, 0}}, {b01});

  SolverOptions opt;
  opt.precision = SolverOptions::Precision::kFp32Refine;
  opt.ordering = SolverOptions::Ordering::kNatural;
  SparseCholesky chol = SparseCholesky::analyze(a, opt);
  chol.factorize();
  EXPECT_FALSE(chol.factorize_info().fp32);
  EXPECT_TRUE(chol.factorize_info().fp32_fallback);
  EXPECT_EQ(chol.factorize_info().perturbed_pivots, 0);

  const std::vector<double> b = {1.0, -1.0};
  const std::vector<double> x = chol.solve(b);
  EXPECT_LE(solve_residual(a, x, b), 1e-12);
}

// --- Same-pattern refactorization (with_values) ------------------------------

// Same pattern, new values: every diagonal entry (the first of its column)
// grows by a seeded 1-10%.
SymSparse shift_diagonal(const SymSparse& a, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> val = a.values();
  for (idx j = 0; j < a.num_rows(); ++j) {
    val[static_cast<std::size_t>(a.col_ptr()[j])] *= 1.0 + rng.uniform(0.01, 0.1);
  }
  return SymSparse::from_canonical(a.num_rows(), a.col_ptr(), a.row_idx(), std::move(val));
}

bool same_bits(const double* x, const double* y, std::size_t count) {
  return count == 0 || std::memcmp(x, y, count * sizeof(double)) == 0;
}

bool same_bits(const std::vector<double>& x, const std::vector<double>& y) {
  return x.size() == y.size() && same_bits(x.data(), y.data(), x.size());
}

bool same_block(const DenseMatrix& x, const DenseMatrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         same_bits(x.data(), y.data(),
                   static_cast<std::size_t>(x.rows()) * static_cast<std::size_t>(x.cols()));
}

void expect_same_factor(const BlockFactor& x, const BlockFactor& y, const std::string& what) {
  ASSERT_EQ(x.diag.size(), y.diag.size()) << what;
  ASSERT_EQ(x.offdiag.size(), y.offdiag.size()) << what;
  for (std::size_t k = 0; k < x.diag.size(); ++k) {
    ASSERT_TRUE(same_block(x.diag[k], y.diag[k])) << what << " diagonal block " << k;
  }
  for (std::size_t k = 0; k < x.offdiag.size(); ++k) {
    ASSERT_TRUE(same_block(x.offdiag[k], y.offdiag[k])) << what << " entry " << k;
  }
}

TEST(SamePattern, WithValuesBitwiseMatchesColdAnalyze) {
  LpGenOptions lp;  // LP3000, the lp_cold base parameters
  lp.n = 3000;
  lp.mean_overlap = 60.0;
  lp.hubs = 280;
  lp.hub_span = 0.10;
  lp.seed = 1;
  SolverOptions nd;
  nd.ordering = SolverOptions::Ordering::kNd;
  const std::vector<std::tuple<std::string, SymSparse, SolverOptions>> cases = {
      {"LP3000", make_lp_normal_equations(lp), SolverOptions{}},
      {"BCSSTK31", make_bench_matrix("BCSSTK31", SuiteScale::kMedium).matrix,
       SolverOptions{}},
      {"CUBE40 ND", make_bench_matrix("CUBE40", SuiteScale::kMedium).matrix, nd}};
  for (const auto& [name, base, opt] : cases) {
    const SymSparse write = shift_diagonal(base, 17);
    const SparseCholesky registered = SparseCholesky::analyze(base, opt);
    SparseCholesky reused = registered.with_values(write);
    SparseCholesky cold = SparseCholesky::analyze(write, opt);
    EXPECT_EQ(reused.analysis(), registered.analysis()) << name;
    EXPECT_EQ(reused.ordering(), cold.ordering()) << name;
    EXPECT_EQ(reused.factor_nnz_exact(), cold.factor_nnz_exact()) << name;
    EXPECT_EQ(reused.factor_flops_exact(), cold.factor_flops_exact()) << name;
    EXPECT_FALSE(reused.factorized()) << name;
    reused.factorize_governed(1);
    cold.factorize_governed(1);
    expect_same_factor(reused.factor(), cold.factor(), name);
    Rng rng(5);
    std::vector<double> b(static_cast<std::size_t>(write.num_rows()));
    for (double& v : b) v = rng.uniform(-1.0, 1.0);
    const std::vector<double> x = reused.solve(b);
    EXPECT_TRUE(same_bits(x, cold.solve(b))) << name;
    EXPECT_LE(solve_residual(write, x, b), 1e-10) << name;
  }
}

TEST(SamePattern, MovedRowIndexIsMalformedInput) {
  const SymSparse a = make_grid2d(12, 12);
  const SparseCholesky chol = SparseCholesky::analyze(a);
  // Same n and nnz, one row index moved: column 0 holds rows {0, 1, 12} in
  // the natural grid order, and (1, 0) becomes (2, 0).
  std::vector<idx> row = a.row_idx();
  ASSERT_EQ(row[1], 1);
  row[1] = 2;
  const SymSparse b = SymSparse::from_canonical(a.num_rows(), a.col_ptr(), row, a.values());
  try {
    (void)chol.with_values(b);
    FAIL() << "a different pattern was accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kMalformedInput);
  }
  try {
    (void)chol.with_values(make_grid2d(12, 13));
    FAIL() << "a different dimension was accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kMalformedInput);
  }
}

TEST(SamePattern, LadderRungOnSharingSolverLeavesPeerUnchanged) {
  const SymSparse a = make_fem_mesh({600, 3, 3, 12.0, 7});
  const SolverOptions opt;
  SparseCholesky peer = SparseCholesky::analyze(a, opt);
  peer.factorize_governed(1);
  Rng rng(9);
  std::vector<double> b(static_cast<std::size_t>(a.num_rows()));
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  const std::vector<double> x_before = peer.solve(b);
  const std::shared_ptr<const SparseCholesky::Analysis> shared = peer.analysis();
  const BlockPartition part_before = peer.structure().part;

  // A budget below the parallel estimate: admission fails before numeric
  // work, and the ladder falls back to the serial engine over the shared
  // analysis. No rung replaces an analysis.
  SolverOptions tight = opt;
  tight.mem_budget_bytes = peer.estimate_factor_bytes(2) - 1;
  const SymSparse write = shift_diagonal(a, 3);
  SparseCholesky degraded = SparseCholesky::with_values(shared, write, tight);
  degraded.factorize_governed(2);
  const std::vector<governor::DegradeRung> want = {
      governor::DegradeRung::kParallelToSerial};
  EXPECT_EQ(degraded.factorize_info().degrade_path, want);
  EXPECT_EQ(degraded.analysis(), shared);
  EXPECT_LE(solve_residual(write, degraded.solve(b), b), 1e-10);

  EXPECT_EQ(peer.analysis(), shared);
  EXPECT_EQ(&peer.structure(), &shared->bs);
  EXPECT_EQ(peer.structure().part.first_col, part_before.first_col);
  EXPECT_TRUE(same_bits(peer.solve(b), x_before));
  // A later write over the shared analysis gets the same blocking.
  const SparseCholesky later = SparseCholesky::with_values(shared, write, opt);
  EXPECT_EQ(later.structure().part.first_col, part_before.first_col);
}

// The factor points at its block structure. Moving or copying a factored
// facade out of the scope that built it, then letting the original die, must
// leave that pointer valid (an ASan battery target).
struct MovedFacades {
  std::unique_ptr<SparseCholesky> moved, copied;
  std::vector<double> x_before;
};

MovedFacades move_out_of_scope(const SymSparse& a, const std::vector<double>& b) {
  MovedFacades out;
  SparseCholesky chol = SparseCholesky::analyze(a);
  chol.factorize_parallel(2);
  out.x_before = chol.solve(b);
  out.copied = std::make_unique<SparseCholesky>(chol);
  out.moved = std::make_unique<SparseCholesky>(std::move(chol));
  return out;
}

TEST(Facade, MovedAndCopiedFactoredFacadeSolvesAfterOriginalDies) {
  const SymSparse a = make_grid2d(24, 24);
  Rng rng(4);
  std::vector<double> b(static_cast<std::size_t>(a.num_rows()));
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  const MovedFacades f = move_out_of_scope(a, b);
  EXPECT_TRUE(same_bits(f.moved->solve(b), f.x_before));
  EXPECT_TRUE(same_bits(f.copied->solve(b), f.x_before));
  // A 2-thread solve (the multi-thread path of the original report, now
  // two column slices) reads the same factor.
  SolveOptions so;
  so.threads = 2;
  DenseMatrix panel(a.num_rows(), 2);
  for (idx c = 0; c < 2; ++c) std::copy(b.begin(), b.end(), panel.col(c));
  for (const SparseCholesky* chol : {f.moved.get(), f.copied.get()}) {
    DenseMatrix x = panel;
    chol->solve_multi(x, so);
    EXPECT_LE(solve_residual_multi(a, x, panel), 1e-12);
  }
}

TEST(Integration, NumericFactorUnaffectedByMappingAnalysis) {
  // plan_parallel/simulate are const and must not touch numeric state.
  const SymSparse a = make_grid2d(10, 10);
  SparseCholesky chol = SparseCholesky::analyze(a);
  chol.factorize();
  const double before = factor_residual_probe(chol.permuted_matrix(), chol.factor());
  const ParallelPlan plan =
      chol.plan_parallel(4, RemapHeuristic::kCyclic, RemapHeuristic::kCyclic);
  (void)chol.simulate(plan);
  const double after = factor_residual_probe(chol.permuted_matrix(), chol.factor());
  EXPECT_EQ(before, after);
}

}  // namespace
}  // namespace spc
