// Tests for the shared-memory parallel block fan-out executor: numeric
// agreement with the sequential factorization across thread counts, matrix
// families, block sizes and element types (fp64 and the fp32-refine
// instantiation); error propagation from worker threads.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <tuple>

#include "cholesky/sparse_cholesky.hpp"
#include "factor/block_solve.hpp"
#include "factor/parallel_factor.hpp"
#include "factor/parallel_solve.hpp"
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

enum class Problem { kGrid2d, kGrid3d, kDense, kFem };

SymSparse make_problem(Problem p) {
  switch (p) {
    case Problem::kGrid2d: return make_grid2d(15, 13);
    case Problem::kGrid3d: return make_grid3d(5, 5, 5);
    case Problem::kDense: return make_dense_spd(90);
    case Problem::kFem: return make_fem_mesh({80, 3, 3, 9.0, 77});
  }
  return make_grid2d(4, 4);
}

class ParallelFactorSweep
    : public ::testing::TestWithParam<std::tuple<Problem, int, idx>> {};

TEST_P(ParallelFactorSweep, MatchesSequentialFactor) {
  const auto [problem, threads, block_size] = GetParam();
  const SymSparse a = make_problem(problem);
  SolverOptions opt;
  opt.block_size = block_size;
  opt.ordering = problem == Problem::kDense ? SolverOptions::Ordering::kNatural
                                            : SolverOptions::Ordering::kMmd;
  SparseCholesky chol = SparseCholesky::analyze(a, opt);
  const BlockFactor seq = block_factorize(chol.permuted_matrix(), chol.structure(),
                                          chol.task_graph());
  ParallelFactorOptions popt;
  popt.num_threads = threads;
  const BlockFactor par = block_factorize_parallel(
      chol.permuted_matrix(), chol.structure(), chol.task_graph(), popt);
  // Same structure, same values up to summation order.
  ASSERT_EQ(seq.diag.size(), par.diag.size());
  ASSERT_EQ(seq.offdiag.size(), par.offdiag.size());
  double max_diff = 0.0;
  for (std::size_t j = 0; j < seq.diag.size(); ++j) {
    DenseMatrix d = seq.diag[j];
    d.axpy(-1.0, par.diag[j]);
    max_diff = std::max(max_diff, d.norm());
  }
  for (std::size_t e = 0; e < seq.offdiag.size(); ++e) {
    DenseMatrix d = seq.offdiag[e];
    d.axpy(-1.0, par.offdiag[e]);
    max_diff = std::max(max_diff, d.norm());
  }
  EXPECT_LT(max_diff, 1e-8);
  EXPECT_LT(factor_residual_probe(chol.permuted_matrix(), par), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParallelFactorSweep,
    ::testing::Combine(::testing::Values(Problem::kGrid2d, Problem::kGrid3d,
                                         Problem::kDense, Problem::kFem),
                       ::testing::Values(1, 2, 4, 8),
                       ::testing::Values<idx>(8, 32)),
    [](const ::testing::TestParamInfo<std::tuple<Problem, int, idx>>& info) {
      const Problem pr = std::get<0>(info.param);
      const char* name = pr == Problem::kGrid2d
                             ? "grid2d"
                             : (pr == Problem::kGrid3d
                                    ? "grid3d"
                                    : (pr == Problem::kDense ? "dense" : "fem"));
      return std::string(name) + "_t" + std::to_string(std::get<1>(info.param)) +
             "_B" + std::to_string(std::get<2>(info.param));
    });

TEST(ParallelFactor, FacadeIntegration) {
  const SymSparse a = make_grid2d(12, 12);
  SparseCholesky chol = SparseCholesky::analyze(a);
  chol.factorize_parallel(3);
  Rng rng(5);
  std::vector<double> b(static_cast<std::size_t>(a.num_rows()));
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  EXPECT_LT(solve_residual(a, chol.solve(b), b), 1e-10);
}

TEST(ParallelFactor, PropagatesIndefiniteError) {
  // Indefinite matrix: a worker's potrf throws; the error must surface on
  // the calling thread and the executor must shut down cleanly.
  const SymSparse a = SymSparse::from_entries(
      3, {1.0, 1.0, 1.0}, {{1, 0}, {2, 1}}, {3.0, 3.0});
  SolverOptions opt;
  opt.ordering = SolverOptions::Ordering::kNatural;
  SparseCholesky chol = SparseCholesky::analyze(a, opt);
  EXPECT_THROW(chol.factorize_parallel(4), Error);
}

double max_factor_diff(const BlockFactor& seq, const BlockFactor& par) {
  double max_diff = 0.0;
  for (std::size_t j = 0; j < seq.diag.size(); ++j) {
    DenseMatrix d = seq.diag[j];
    d.axpy(-1.0, par.diag[j]);
    max_diff = std::max(max_diff, d.norm());
  }
  for (std::size_t e = 0; e < seq.offdiag.size(); ++e) {
    DenseMatrix d = seq.offdiag[e];
    d.axpy(-1.0, par.offdiag[e]);
    max_diff = std::max(max_diff, d.norm());
  }
  return max_diff;
}

// Stress the work-stealing executor: repeated runs at every thread count
// 1..8 must agree with the sequential factorization, and so must the fp32
// instantiations of both engines (to single precision).
// Catches scheduling-dependent races (lost wakeups, scatter under the wrong
// lock, scratch reuse between tasks) that a single run can miss; also the
// body of the `tsan`-labeled ctest run (see tests/CMakeLists.txt).
TEST(ParallelFactor, StressAllThreadCountsMatchSequential) {
  const SymSparse a = make_fem_mesh({120, 4, 3, 9.0, 91});
  SparseCholesky chol = SparseCholesky::analyze(a);
  const SymSparse& ap = chol.permuted_matrix();
  const BlockFactor seq = block_factorize(ap, chol.structure(), chol.task_graph());
  EXPECT_LT(factor_residual_probe(
                ap, block_factorize<float>(ap, chol.structure(), chol.task_graph())),
            1e-3);
  const int reps = 3;
  for (int threads = 1; threads <= 8; ++threads) {
    for (int rep = 0; rep < reps; ++rep) {
      const BlockFactor par = block_factorize_parallel(
          ap, chol.structure(), chol.task_graph(), ParallelFactorOptions{threads});
      ASSERT_EQ(seq.diag.size(), par.diag.size());
      ASSERT_EQ(seq.offdiag.size(), par.offdiag.size());
      EXPECT_LT(max_factor_diff(seq, par), 1e-8)
          << "threads=" << threads << " rep=" << rep;
      EXPECT_LT(factor_residual_probe(
                    ap, block_factorize_parallel<float>(
                            ap, chol.structure(), chol.task_graph(),
                            ParallelFactorOptions{threads})),
                1e-3)
          << "fp32 threads=" << threads << " rep=" << rep;
    }
  }
}

// The serial sweep, the executor and the fp32 executor agree on one factor
// (fp32 to single precision) across matrix families.
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
  const SymSparse& ap = chol.permuted_matrix();
  const BlockFactor right = block_factorize(ap, chol.structure(), chol.task_graph());
  const BlockFactor par = block_factorize_parallel(
      ap, chol.structure(), chol.task_graph(), ParallelFactorOptions{4});
  const BlockFactor par32 = block_factorize_parallel<float>(
      ap, chol.structure(), chol.task_graph(), ParallelFactorOptions{4});
  EXPECT_LT(max_factor_diff(right, par), 1e-9);
  EXPECT_LT(factor_residual_probe(ap, par), 1e-10);
  EXPECT_LT(max_factor_diff(right, par32), 1e-4);
  EXPECT_LT(factor_residual_probe(ap, par32), 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Families, EngineAgreement, ::testing::Range(0, 4));

// Stress the drain and arena paths specifically: a regular 3-D
// cube and an irregular LP normal-equations matrix (the two families of the
// paper's test set), every thread count 1..8, all runs through ONE reused
// workspace, each compared against the serial right-looking reference.
// Exercises multi-mod drain batches (cube supernodes receive many updates),
// single-mod direct scatters, and first-touch arena init under every worker
// count. Runs under tsan via the test binary's ctest label.
TEST(ParallelFactor, StressAggregatedScatterCubeAndLpAllThreadCounts) {
  struct Case {
    const char* name;
    SymSparse a;
  };
  LpGenOptions lp;
  lp.n = 700;
  lp.mean_overlap = 40;
  lp.hubs = 12;
  lp.hub_span = 0.05;
  Case cases[] = {{"CUBE7", make_grid3d(7, 7, 7)},
                  {"LP700", make_lp_normal_equations(lp)}};
  for (const Case& c : cases) {
    SolverOptions opt;
    opt.block_size = 16;  // small blocks => deep graph, many mods per dest
    SparseCholesky chol = SparseCholesky::analyze(c.a, opt);
    const BlockFactor seq =
        block_factorize(chol.permuted_matrix(), chol.structure(), chol.task_graph());
    ParallelWorkspace ws(chol.structure(), chol.task_graph());
    for (int threads = 1; threads <= 8; ++threads) {
      const BlockFactor par = block_factorize_parallel(
          chol.permuted_matrix(), chol.structure(), chol.task_graph(),
          ParallelFactorOptions{threads}, &ws);
      ASSERT_EQ(seq.diag.size(), par.diag.size());
      ASSERT_EQ(seq.offdiag.size(), par.offdiag.size());
      EXPECT_LT(max_factor_diff(seq, par), 1e-8)
          << c.name << " threads=" << threads;
      EXPECT_LT(factor_residual_probe(chol.permuted_matrix(), par), 1e-10)
          << c.name << " threads=" << threads;
    }
  }
}

// With one worker there is no scheduling nondeterminism: the deque drains in
// a fixed order, so repeated 1-thread runs must agree BIT FOR BIT. (At >1
// threads only a tolerance can hold — update order depends on the schedule
// and floating-point addition does not commute across orders.)
TEST(ParallelFactor, SingleThreadRunsAreBitwiseDeterministic) {
  const SymSparse a = make_grid3d(6, 6, 6);
  SparseCholesky chol = SparseCholesky::analyze(a);
  ParallelWorkspace ws(chol.structure(), chol.task_graph());
  const auto run = [&] {
    return block_factorize_parallel(chol.permuted_matrix(), chol.structure(),
                                    chol.task_graph(),
                                    ParallelFactorOptions{1}, &ws);
  };
  const BlockFactor f1 = run();
  const BlockFactor f2 = run();
  for (std::size_t j = 0; j < f1.diag.size(); ++j) {
    const DenseMatrix& x = f1.diag[j];
    const DenseMatrix& y = f2.diag[j];
    for (idx c = 0; c < x.cols(); ++c) {
      for (idx r = c; r < x.rows(); ++r) {
        ASSERT_EQ(x(r, c), y(r, c)) << "diag " << j;
      }
    }
  }
  for (std::size_t e = 0; e < f1.offdiag.size(); ++e) {
    const DenseMatrix& x = f1.offdiag[e];
    const DenseMatrix& y = f2.offdiag[e];
    for (idx c = 0; c < x.cols(); ++c) {
      for (idx r = 0; r < x.rows(); ++r) {
        ASSERT_EQ(x(r, c), y(r, c)) << "offdiag " << e;
      }
    }
  }
}

// The profile's task tallies are exact invariants of the task graph: every
// block completes once, and every BMOD is released and drained exactly once
// no matter how drains batch up.
TEST(ParallelFactor, ProfileCountsMatchTaskGraph) {
  const SymSparse a = make_grid3d(6, 6, 6);
  SparseCholesky chol = SparseCholesky::analyze(a);
  const TaskGraph& tg = chol.task_graph();
  for (int threads : {1, 4}) {
    ParallelProfile prof;
    ParallelFactorOptions popt{threads};
    popt.profile = &prof;
    const BlockFactor f = block_factorize_parallel(
        chol.permuted_matrix(), chol.structure(), tg, popt);
    ASSERT_EQ(static_cast<int>(prof.workers.size()), threads);
    const ParallelProfile::Worker t = prof.total();
    EXPECT_EQ(t.bfacs, static_cast<i64>(chol.structure().num_block_cols()));
    EXPECT_EQ(t.bfacs + t.bdivs, tg.num_blocks());
    EXPECT_EQ(t.mods, static_cast<i64>(tg.mods.size()));
    EXPECT_LE(t.batches, t.mods);
    EXPECT_GT(prof.wall_s, 0.0);
    EXPECT_LT(factor_residual_probe(chol.permuted_matrix(), f), 1e-10);
  }
}

// The facade caches its workspace: repeated factorize_parallel() calls on
// one analyzed object must keep producing a correct factor (and exercise the
// prepare_run / arena re-attach path rather than a fresh workspace).
TEST(ParallelFactor, FacadeRepeatedFactorizeReusesWorkspace) {
  const SymSparse a = make_grid2d(14, 11);
  SparseCholesky chol = SparseCholesky::analyze(a);
  Rng rng(7);
  std::vector<double> b(static_cast<std::size_t>(a.num_rows()));
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  for (int run = 0; run < 3; ++run) {
    chol.factorize_parallel(run + 1);
    EXPECT_LT(solve_residual(a, chol.solve(b), b), 1e-10) << run;
  }
}

TEST(ParallelFactor, RepeatedRunsDeterministicStructure) {
  // Values may differ in last bits across runs (scheduling), but the
  // residual must always be tiny — run several times to shake out races.
  const SymSparse a = make_fem_mesh({60, 3, 2, 9.0, 88});
  SparseCholesky chol = SparseCholesky::analyze(a);
  for (int run = 0; run < 5; ++run) {
    const BlockFactor f = block_factorize_parallel(
        chol.permuted_matrix(), chol.structure(), chol.task_graph(),
        ParallelFactorOptions{4});
    EXPECT_LT(factor_residual_probe(chol.permuted_matrix(), f), 1e-10) << run;
  }
}

// --- Subtree-affinity scheduling -------------------------------------------

// Subtree-affinity scheduling must agree with the sequential factor within
// summation-order tolerance at every thread count, on problems whose
// elimination forests exercise multi-subtree pinning.
TEST(ParallelFactor, AffinityPoliciesMatchSequentialAcrossThreads) {
  for (Problem problem : {Problem::kGrid3d, Problem::kFem}) {
    const SymSparse a = make_problem(problem);
    SparseCholesky chol = SparseCholesky::analyze(a);
    const BlockFactor seq =
        block_factorize(chol.permuted_matrix(), chol.structure(), chol.task_graph());
    ParallelWorkspace ws(chol.structure(), chol.task_graph());
    for (int threads : {2, 4, 8}) {
      const BlockFactor par =
          block_factorize_parallel(chol.permuted_matrix(), chol.structure(),
                                   chol.task_graph(), ParallelFactorOptions{threads},
                                   &ws);
      double max_diff = 0.0;
      for (std::size_t j = 0; j < seq.diag.size(); ++j) {
        DenseMatrix d = seq.diag[j];
        d.axpy(-1.0, par.diag[j]);
        max_diff = std::max(max_diff, d.norm());
      }
      for (std::size_t e = 0; e < seq.offdiag.size(); ++e) {
        DenseMatrix d = seq.offdiag[e];
        d.axpy(-1.0, par.offdiag[e]);
        max_diff = std::max(max_diff, d.norm());
      }
      EXPECT_LT(max_diff, 1e-8) << "threads=" << threads;
    }
  }
}

// The affinity counters obey the steal-exclusion protocol: pinned tasks are
// only released by their owner (no spills), so no steal can ever claim a
// below-frontier task; and at >= 2 threads the pinned bottom of the tree is
// where most tasks live, so private-stack acquires must actually happen.
TEST(ParallelFactor, AffinityProfileObeysFrontierProtocol) {
  const SymSparse a = make_grid3d(7, 7, 7);
  SparseCholesky chol = SparseCholesky::analyze(a);
  ParallelWorkspace ws(chol.structure(), chol.task_graph());
  for (int threads : {2, 4}) {
    ParallelProfile prof;
    ParallelFactorOptions popt{threads};
    popt.profile = &prof;
    const BlockFactor f = block_factorize_parallel(
        chol.permuted_matrix(), chol.structure(), chol.task_graph(), popt, &ws);
    EXPECT_LT(factor_residual_probe(chol.permuted_matrix(), f), 1e-10);
    const ParallelProfile::Worker t = prof.total();
    EXPECT_GT(t.affinity_hits, 0) << threads;
    EXPECT_EQ(t.affinity_spills, 0) << threads;
    EXPECT_EQ(t.below_frontier_steals, 0) << threads;
  }
}

// Factors with fn, expecting a strict breakdown; returns its global column.
template <typename Fn>
idx strict_breakdown_column(Fn&& fn) {
  try {
    fn();
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kNotPositiveDefinite) << e.what();
    return e.context().column;
  }
  ADD_FAILURE() << "indefinite matrix factored without error";
  return kNone;
}

// In-place and fragmented BMODs give the same answers on every engine.
// CUBE40 medium under its geometric nested dissection puts 99% of update
// elements in place; LP3000 under MMD scatters most of them. Serial and the
// executor at 1/2/4 threads must meet one
// backward-error bound, leave every diagonal block's strict upper triangle
// exactly 0 (an in-place GEMM into a diagonal block writes it, BFAC clears
// it), and report the same breakdown column once the diagonal is shifted
// past the smallest pivot. The fp32 rows (serial, and the executor at
// 1/2/4 threads) apply their mods through the same apply_block_mod_to, so
// the same share lands in place; their bound is the backward error after
// two fp64 refinement steps.
TEST(ParallelFactor, InPlaceAndScatteredModsAgreeAcrossEngines) {
  LpGenOptions lp;  // LP3000, the lp_cold base parameters
  lp.n = 3000;
  lp.mean_overlap = 60.0;
  lp.hubs = 280;
  lp.hub_span = 0.10;
  lp.seed = 1;
  const BenchMatrix cube = make_bench_matrix("CUBE40", SuiteScale::kMedium);
  struct Case {
    const char* name;
    SparseCholesky chol;
    double min_in_place, max_in_place;  // share of update elements
  };
  const Case cases[] = {
      {"CUBE40 ND", SparseCholesky::analyze_ordered(cube.matrix, order_bench_matrix(cube)),
       0.95, 1.0},
      {"LP3000 MMD", SparseCholesky::analyze(make_lp_normal_equations(lp)), 0.2, 0.6}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const SparseCholesky& chol = c.chol;
    const SymSparse& ap = chol.permuted_matrix();
    const BlockStructure& bs = chol.structure();
    const TaskGraph& tg = chol.task_graph();
    double in_place = 0, total = 0;
    for (const BlockMod& m : tg.mods) {
      const double elems =
          static_cast<double>(tg.rows_of_block[static_cast<std::size_t>(m.src_a)]) *
          tg.rows_of_block[static_cast<std::size_t>(m.src_b)];
      total += elems;
      if (place_block_mod(bs, m).in_place) in_place += elems;
    }
    EXPECT_GE(in_place / total, c.min_in_place);
    EXPECT_LE(in_place / total, c.max_in_place);

    // Engine 0 is the serial sweep; the rest are the executor at 1/2/4
    // threads.
    ParallelWorkspace ws(bs, tg);
    std::vector<std::function<BlockFactor(const SymSparse&)>> engines = {
        [&](const SymSparse& m) { return block_factorize(m, bs, tg); }};
    std::vector<std::string> names = {"serial"};
    for (int threads : {1, 2, 4}) {
      engines.push_back([&, threads](const SymSparse& m) {
        return block_factorize_parallel(m, bs, tg, ParallelFactorOptions{threads}, &ws);
      });
      names.push_back("threads=" + std::to_string(threads));
    }
    const std::size_t first_fp32 = engines.size();
    engines.push_back([&](const SymSparse& m) { return block_factorize<float>(m, bs, tg); });
    names.push_back("fp32 serial");
    for (int threads : {1, 2, 4}) {
      engines.push_back([&, threads](const SymSparse& m) {
        return block_factorize_parallel<float>(m, bs, tg, ParallelFactorOptions{threads},
                                               &ws);
      });
      names.push_back("fp32 threads=" + std::to_string(threads));
    }
    Rng rng(3);
    std::vector<double> b(static_cast<std::size_t>(ap.num_rows()));
    for (double& v : b) v = rng.uniform(-1.0, 1.0);
    double min_pivot = 0;
    for (std::size_t e = 0; e < engines.size(); ++e) {
      SCOPED_TRACE(names[e]);
      const BlockFactor f = engines[e](ap);
      std::vector<double> x = block_solve(f, b);
      if (e < first_fp32) {
        EXPECT_LE(solve_residual(ap, x, b), 1e-12);
      } else {
        for (int step = 0; step < 2; ++step) refine_once(ap, f, b, x);
        EXPECT_LE(solve_residual(ap, x, b), 1e-10);
      }
      for (const DenseMatrix& d : f.diag) {
        for (idx col = 1; col < d.cols(); ++col) {
          for (idx r = 0; r < col; ++r) ASSERT_EQ(d(r, col), 0.0) << r << ", " << col;
        }
      }
      if (e == 0) {
        min_pivot = std::numeric_limits<double>::infinity();
        for (const DenseMatrix& d : f.diag) {
          for (idx k = 0; k < d.cols(); ++k) {
            min_pivot = std::min(min_pivot, d(k, k) * d(k, k));
          }
        }
      }
    }
    // Shifting the diagonal by more than the smallest pivot d_j makes pivot
    // j (or an earlier one) non-positive: d_j(s) <= d_j - s.
    std::vector<double> shifted = ap.values();
    for (idx col = 0; col < ap.num_rows(); ++col) {
      const i64 k = ap.col_ptr()[static_cast<std::size_t>(col)];
      ASSERT_EQ(ap.row_idx()[static_cast<std::size_t>(k)], col);
      shifted[static_cast<std::size_t>(k)] -= 1.01 * min_pivot;
    }
    const SymSparse indefinite =
        SymSparse::from_canonical(ap.num_rows(), ap.col_ptr(), ap.row_idx(), shifted);
    const idx col = strict_breakdown_column([&] { engines[0](indefinite); });
    EXPECT_GE(col, 0);
    for (std::size_t e = 1; e < engines.size(); ++e) {
      EXPECT_EQ(strict_breakdown_column([&] { engines[e](indefinite); }), col) << names[e];
    }
  }
}

// fp32-refine holds on every factorization path: the executor runs the fp32
// instantiation at every thread count (0 = hardware concurrency), through
// factorize_parallel and through the governed ladder, and the solve's two
// automatic fp64 refinement steps recover fp64 backward error.
TEST(Precision, Fp32RefineHoldsAtEveryThreadCount) {
  LpGenOptions lp;  // LP3000, the lp_cold base parameters
  lp.n = 3000;
  lp.mean_overlap = 60.0;
  lp.hubs = 280;
  lp.hub_span = 0.10;
  lp.seed = 1;
  struct Case {
    const char* name;
    SymSparse a;
  };
  const Case cases[] = {
      {"CUBE30 medium", make_bench_matrix("CUBE30", SuiteScale::kMedium).matrix},
      {"LP3000", make_lp_normal_equations(lp)},
      {"BCSSTK31 medium", make_bench_matrix("BCSSTK31", SuiteScale::kMedium).matrix}};
  SolverOptions opt;
  opt.precision = SolverOptions::Precision::kFp32Refine;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    SparseCholesky chol = SparseCholesky::analyze(c.a, opt);
    Rng rng(17);
    std::vector<double> b(static_cast<std::size_t>(c.a.num_rows()));
    for (double& v : b) v = rng.uniform(-1.0, 1.0);
    for (const bool governed : {false, true}) {
      for (const int threads : {1, 2, 4, 0}) {
        SCOPED_TRACE(std::string(governed ? "factorize_governed(" : "factorize_parallel(") +
                     std::to_string(threads) + ")");
        if (governed) {
          chol.factorize_governed(threads);
        } else {
          chol.factorize_parallel(threads);
        }
        EXPECT_TRUE(chol.factorize_info().fp32);
        EXPECT_FALSE(chol.factorize_info().fp32_fallback);
        EXPECT_LE(solve_residual(c.a, chol.solve(b), b), 1e-10);
      }
    }
  }

  // b = 1 - 2^-25 rounds to exactly 1.0f: the fp32 Schur complement of the
  // trailing pivot is 0 (strict breakdown) while fp64 stays positive, so
  // the executor's fp32 pass breaks down and the facade refactors in fp64.
  const double b01 = 1.0 - std::ldexp(1.0, -25);
  const SymSparse a = SymSparse::from_entries(2, {1.0, 1.0}, {{1, 0}}, {b01});
  opt.ordering = SolverOptions::Ordering::kNatural;
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SparseCholesky chol = SparseCholesky::analyze(a, opt);
    chol.factorize_parallel(threads);
    EXPECT_FALSE(chol.factorize_info().fp32);
    EXPECT_TRUE(chol.factorize_info().fp32_fallback);
    const std::vector<double> rhs = {1.0, -1.0};
    EXPECT_LE(solve_residual(a, chol.solve(rhs), rhs), 1e-12);

    SparseCholesky governed = SparseCholesky::analyze(a, opt);
    governed.factorize_governed(threads);
    ASSERT_EQ(governed.factorize_info().degrade_path.size(), 1u);
    EXPECT_EQ(governed.factorize_info().degrade_path[0],
              governor::DegradeRung::kFp32ToFp64);
    EXPECT_TRUE(governed.factorize_info().fp32_fallback);
    EXPECT_FALSE(governed.factorize_info().fp32);
  }
}

}  // namespace
}  // namespace spc
