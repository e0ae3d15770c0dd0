// Tests for the extension features: RCM and AMD orderings, variable block
// partitions, multi-RHS solve, iterative refinement, priority scheduling,
// and facade ordering options — plus edge cases (n=1, disconnected input).
#include <gtest/gtest.h>

#include <algorithm>

#include "cholesky/sparse_cholesky.hpp"
#include "factor/block_solve.hpp"
#include "factor/parallel_solve.hpp"
#include "factor/residual.hpp"
#include "gen/dense_gen.hpp"
#include "gen/grid_gen.hpp"
#include "gen/mesh_gen.hpp"
#include "graph/permutation.hpp"
#include "ordering/mmd.hpp"
#include "ordering/rcm.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "symbolic/colcount.hpp"
#include "symbolic/etree.hpp"

namespace spc {
namespace {

i64 fill_under(const SymSparse& a, const std::vector<idx>& perm) {
  const SymSparse p = a.permuted(perm);
  return factor_nnz(factor_col_counts(p, elimination_tree(p)));
}

TEST(Rcm, ValidPermutation) {
  const SymSparse a = make_grid2d(13, 9);
  EXPECT_TRUE(is_permutation(rcm_order(a.pattern())));
}

TEST(Rcm, ReducesGridBandwidth) {
  // Natural order of an nx x ny grid has bandwidth nx; RCM should be near
  // min(nx, ny) even when the grid is indexed the long way.
  const idx nx = 40, ny = 6;
  const SymSparse a = make_grid2d(nx, ny);
  const Graph g = a.pattern();
  const idx bw_nat = bandwidth_under(g, identity_permutation(a.num_rows()));
  const idx bw_rcm = bandwidth_under(g, rcm_order(g));
  EXPECT_EQ(bw_nat, nx);
  EXPECT_LE(bw_rcm, 2 * ny);
}

TEST(Rcm, HandlesDisconnected) {
  const Graph g = Graph::from_edges(6, {{0, 1}, {2, 3}});
  EXPECT_TRUE(is_permutation(rcm_order(g)));
}

TEST(Rcm, PathBandwidthOne) {
  std::vector<std::pair<idx, idx>> edges;
  for (idx i = 0; i + 1 < 20; ++i) edges.emplace_back(i, i + 1);
  const Graph g = Graph::from_edges(20, edges);
  EXPECT_EQ(bandwidth_under(g, rcm_order(g)), 1);
}

TEST(Amd, ValidAndDeterministic) {
  const SymSparse a = make_fem_mesh({150, 2, 2, 9.0, 21});
  const std::vector<idx> p1 = amd_order(a.pattern());
  EXPECT_TRUE(is_permutation(p1));
  EXPECT_EQ(p1, amd_order(a.pattern()));
}

TEST(Amd, FillComparableToMmd) {
  // AMD's approximate degrees cost at most a modest fill penalty.
  const SymSparse a = make_grid2d(24, 24);
  const i64 fill_amd = fill_under(a, amd_order(a.pattern()));
  const i64 fill_mmd = fill_under(a, mmd_order(a.pattern()));
  EXPECT_LT(fill_amd, fill_mmd * 3 / 2);
  // And both far better than natural order.
  EXPECT_LT(fill_amd, fill_under(a, identity_permutation(a.num_rows())) / 2);
}

TEST(Amd, PathGraphFillFree) {
  std::vector<std::pair<idx, idx>> edges;
  std::vector<double> diag(30, 3.0), val(29, -1.0);
  for (idx i = 0; i + 1 < 30; ++i) edges.emplace_back(i, i + 1);
  const SymSparse a = SymSparse::from_entries(30, diag, edges, val);
  EXPECT_EQ(fill_under(a, amd_order(a.pattern())), 29);
}

TEST(FacadeOrderings, AllOptionsFactorCorrectly) {
  const SymSparse a = make_fem_mesh({80, 2, 2, 8.0, 33});
  Rng rng(5);
  std::vector<double> b(static_cast<std::size_t>(a.num_rows()));
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  for (auto ord : {SolverOptions::Ordering::kMmd, SolverOptions::Ordering::kAmd,
                   SolverOptions::Ordering::kNd, SolverOptions::Ordering::kNatural}) {
    SolverOptions opt;
    opt.ordering = ord;
    SparseCholesky chol = SparseCholesky::analyze(a, opt);
    chol.factorize();
    EXPECT_LT(solve_residual(a, chol.solve(b), b), 1e-9)
        << "ordering " << static_cast<int>(ord);
  }
}

TEST(MultiRhs, MatchesSingleSolve) {
  const SymSparse a = make_grid2d(8, 9);
  SparseCholesky chol = SparseCholesky::analyze(a);
  chol.factorize();
  const idx n = a.num_rows();
  Rng rng(7);
  DenseMatrix rhs(n, 3);
  for (idx c = 0; c < 3; ++c) {
    for (idx r = 0; r < n; ++r) rhs(r, c) = rng.uniform(-1.0, 1.0);
  }
  DenseMatrix multi = rhs;
  block_solve_multi_parallel(chol.factor(), multi);
  for (idx c = 0; c < 3; ++c) {
    std::vector<double> b(static_cast<std::size_t>(n));
    for (idx r = 0; r < n; ++r) b[static_cast<std::size_t>(r)] = rhs(r, c);
    // block_solve works in the permuted space; compare against it directly.
    // A 3-column panel may take different kernel paths than a 1-column one,
    // so compare to tolerance rather than bitwise.
    const std::vector<double> x = block_solve(chol.factor(), b);
    for (idx r = 0; r < n; ++r) {
      EXPECT_NEAR(multi(r, c), x[static_cast<std::size_t>(r)], 1e-12);
    }
  }
}

TEST(MultiRhs, RowMismatchThrows) {
  const SymSparse a = make_grid2d(5, 5);
  SparseCholesky chol = SparseCholesky::analyze(a);
  chol.factorize();
  DenseMatrix wrong(7, 2);
  EXPECT_THROW(block_solve_multi_parallel(chol.factor(), wrong), Error);
}

TEST(Refinement, ReducesResidual) {
  const SymSparse a = make_fem_mesh({100, 3, 3, 10.0, 55});
  SparseCholesky chol = SparseCholesky::analyze(a);
  chol.factorize();
  Rng rng(9);
  std::vector<double> x_true(static_cast<std::size_t>(a.num_rows()));
  for (double& v : x_true) v = rng.uniform(-1.0, 1.0);
  const std::vector<double> b = a.multiply(x_true);
  const std::vector<double> x0 = chol.solve(b);
  const std::vector<double> x1 = chol.solve_refined(b);
  EXPECT_LE(solve_residual(a, x1, b), solve_residual(a, x0, b) * 1.000001);
  EXPECT_LT(solve_residual(a, x1, b), 1e-12);
}

TEST(Refinement, RefineOnceConverges) {
  const SymSparse a = make_grid2d(10, 10);
  SparseCholesky chol = SparseCholesky::analyze(a);
  chol.factorize();
  Rng rng(11);
  std::vector<double> pb(static_cast<std::size_t>(a.num_rows()));
  for (double& v : pb) v = rng.uniform(-1.0, 1.0);
  // Work in the permuted space directly.
  std::vector<double> x = block_solve(chol.factor(), pb);
  const double c1 = refine_once(chol.permuted_matrix(), chol.factor(), pb, x);
  const double c2 = refine_once(chol.permuted_matrix(), chol.factor(), pb, x);
  EXPECT_LE(c2, c1 + 1e-15);  // corrections shrink
  EXPECT_LT(c2, 1e-10);
}

TEST(PriorityScheduling, ConservesOpsAndRespectsBounds) {
  SolverOptions opt;
  opt.block_size = 12;
  SparseCholesky chol = SparseCholesky::analyze(make_grid2d(20, 20), opt);
  const ParallelPlan plan = chol.plan_parallel(
      9, RemapHeuristic::kIncreasingDepth, RemapHeuristic::kCyclic);
  const SimResult fifo = chol.simulate(plan, CostModel{}, SchedulingPolicy::kDataDriven);
  const SimResult prio = chol.simulate(plan, CostModel{}, SchedulingPolicy::kPriority);
  i64 fifo_ops = 0, prio_ops = 0;
  for (const ProcStats& p : fifo.procs) fifo_ops += p.ops_completion + p.ops_mod;
  for (const ProcStats& p : prio.procs) prio_ops += p.ops_completion + p.ops_mod;
  EXPECT_EQ(fifo_ops, prio_ops);
  EXPECT_GE(prio.runtime_s, prio.seq_runtime_s / 9 - 1e-12);  // work bound holds
}

TEST(PriorityScheduling, MeanAtLeastAsFastOnSuite) {
  // Priority scheduling should not lose on average (it usually wins).
  double ratio = 0.0;
  int count = 0;
  for (idx k : {14, 18, 22}) {
    SparseCholesky chol = SparseCholesky::analyze(make_grid2d(k, k));
    const ParallelPlan plan = chol.plan_parallel(
        8, RemapHeuristic::kIncreasingDepth, RemapHeuristic::kCyclic);
    const double t_fifo =
        chol.simulate(plan, CostModel{}, SchedulingPolicy::kDataDriven).runtime_s;
    const double t_prio =
        chol.simulate(plan, CostModel{}, SchedulingPolicy::kPriority).runtime_s;
    ratio += t_fifo / t_prio;
    ++count;
  }
  EXPECT_GT(ratio / count, 0.97);
}

TEST(EdgeCases, SingleEquation) {
  const SymSparse a = SymSparse::from_entries(1, {4.0}, {}, {});
  SparseCholesky chol = SparseCholesky::analyze(a);
  chol.factorize();
  const std::vector<double> x = chol.solve({8.0});
  EXPECT_DOUBLE_EQ(x[0], 2.0);
  const ParallelPlan plan =
      chol.plan_parallel(4, RemapHeuristic::kCyclic, RemapHeuristic::kCyclic);
  const SimResult r = chol.simulate(plan);
  EXPECT_GT(r.runtime_s, 0.0);
}

TEST(EdgeCases, DisconnectedSystem) {
  // Two independent subsystems in one matrix (etree forest with two roots).
  std::vector<std::pair<idx, idx>> edges = {{0, 1}, {1, 2}, {3, 4}, {4, 5}};
  std::vector<double> diag(6, 3.0), val(4, -1.0);
  const SymSparse a = SymSparse::from_entries(6, diag, edges, val);
  SparseCholesky chol = SparseCholesky::analyze(a);
  chol.factorize();
  Rng rng(13);
  std::vector<double> b(6);
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  EXPECT_LT(solve_residual(a, chol.solve(b), b), 1e-12);
}

TEST(EdgeCases, BlockSizeLargerThanMatrix) {
  SolverOptions opt;
  opt.block_size = 1000;
  const SymSparse a = make_grid2d(6, 6);
  SparseCholesky chol = SparseCholesky::analyze(a, opt);
  chol.factorize();
  EXPECT_LT(factor_residual_probe(chol.permuted_matrix(), chol.factor()), 1e-10);
}

TEST(VariablePartition, ValidStructureAndFactor) {
  // Depth-varying block sizes must still produce a correct factorization.
  const SymSparse a0 = make_grid2d(15, 15);
  SparseCholesky base = SparseCholesky::analyze(a0);
  const SymbolicFactor& sf = base.symbolic();
  const std::vector<idx> sizes = block_sizes_by_depth(sf.sn_parent, 32, 4);
  for (idx s : sizes) EXPECT_GE(s, 4);
  const BlockStructure bs =
      build_block_structure(sf, make_block_partition_variable(sf.sn, sizes));
  bs.validate();
  const BlockFactor f = block_factorize(base.permuted_matrix(), bs);
  EXPECT_LT(factor_residual_probe(base.permuted_matrix(), f), 1e-10);
}

TEST(VariablePartition, DepthSizesInterpolate) {
  // Chain of 5 supernodes: parent = next.
  const std::vector<idx> parent = {1, 2, 3, 4, kNone};
  const std::vector<idx> sizes = block_sizes_by_depth(parent, 40, 8);
  EXPECT_EQ(sizes[4], 8);   // root
  EXPECT_EQ(sizes[0], 40);  // deepest
  for (std::size_t i = 1; i < sizes.size(); ++i) EXPECT_LE(sizes[i], sizes[i - 1]);
}

}  // namespace
}  // namespace spc
