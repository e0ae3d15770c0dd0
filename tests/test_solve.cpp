// Tests for the DAG-scheduled / panel triangular solve path
// (factor/parallel_solve.hpp, docs/SOLVE.md): serial-vs-parallel parity,
// panel-width parity, workspace reuse and budget accounting, cancellation
// and fault-injection teardown, the facade's solve overloads, the solve-DAG
// validator, and the profile counters. Runs under
// the `tsan` and `fault` ctest labels (tools/run_analysis.sh).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>

#include "support/sync.hpp"
#include <cmath>
#include <limits>
#include <vector>

#include "check/check.hpp"
#include "cholesky/sparse_cholesky.hpp"
#include "factor/block_solve.hpp"
#include "factor/condest.hpp"
#include "factor/parallel_solve.hpp"
#include "factor/residual.hpp"
#include "gen/grid_gen.hpp"
#include "gen/lp_gen.hpp"
#include "gen/mesh_gen.hpp"
#include "support/error.hpp"
#include "support/fault.hpp"
#include "support/rng.hpp"

namespace spc {
namespace {

SparseCholesky factorized(const SymSparse& a) {
  SparseCholesky chol = SparseCholesky::analyze(a);
  chol.factorize();
  return chol;
}

DenseMatrix random_rhs(idx n, idx nrhs, std::uint64_t seed) {
  Rng rng(seed);
  DenseMatrix b(n, nrhs);
  for (idx c = 0; c < nrhs; ++c) {
    for (idx r = 0; r < n; ++r) b(r, c) = rng.uniform(-1.0, 1.0);
  }
  return b;
}

void expect_close(const DenseMatrix& got, const DenseMatrix& want, double tol,
                  const char* what) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (idx c = 0; c < got.cols(); ++c) {
    for (idx r = 0; r < got.rows(); ++r) {
      const double scale = std::max(1.0, std::abs(want(r, c)));
      EXPECT_NEAR(got(r, c), want(r, c), tol * scale)
          << what << " at (" << r << "," << c << ")";
    }
  }
}

// The serial reference: the 1-thread panel sweeps, nrhs_block columns at a
// time.
void solve_serial(const BlockFactor& f, DenseMatrix& b, idx nrhs_block = 32) {
  SolveOptions opt;
  opt.nrhs_block = nrhs_block;
  block_solve_multi_parallel(f, b, opt);
}

// The column-at-a-time reference: one block_solve per RHS column.
DenseMatrix solve_columns_one_by_one(const BlockFactor& f, const DenseMatrix& b) {
  DenseMatrix x = b;
  for (idx c = 0; c < b.cols(); ++c) {
    std::vector<double> col(static_cast<std::size_t>(b.rows()));
    for (idx r = 0; r < b.rows(); ++r) col[static_cast<std::size_t>(r)] = b(r, c);
    col = block_solve(f, col);
    for (idx r = 0; r < b.rows(); ++r) x(r, c) = col[static_cast<std::size_t>(r)];
  }
  return x;
}

// --- Panels vs column-at-a-time solves ---------------------------------------

TEST(SolvePanel, PanelsMatchScalarColumnSweeps) {
  const SparseCholesky chol = factorized(make_grid2d(24, 25));
  const idx n = chol.num_rows();
  for (idx nrhs : {1, 3, 8, 40}) {
    const DenseMatrix b = random_rhs(n, nrhs, 100 + static_cast<std::uint64_t>(nrhs));
    const DenseMatrix want = solve_columns_one_by_one(chol.factor(), b);
    DenseMatrix got = b;
    solve_serial(chol.factor(), got);
    expect_close(got, want, 1e-11, "panel vs columns");
  }
}

TEST(SolvePanel, PanelWidthDoesNotChangeColumns) {
  const SparseCholesky chol = factorized(make_grid2d(20, 20));
  const DenseMatrix b = random_rhs(chol.num_rows(), 10, 4);
  DenseMatrix wide = b;
  solve_serial(chol.factor(), wide, /*nrhs_block=*/64);
  for (idx nb : {1, 3, 7}) {
    DenseMatrix narrow = b;
    solve_serial(chol.factor(), narrow, nb);
    expect_close(narrow, wide, 1e-12, "panel width");
  }
}

// --- Parallel executor parity ----------------------------------------------

TEST(SolveParallel, OneThreadIsBitwiseSerial) {
  // The 1-thread path is the serial panel sweeps whatever the workspace has
  // seen before: a fresh temporary workspace and one left behind by a
  // 4-thread DAG run give bitwise-identical answers.
  const SparseCholesky chol = factorized(make_grid2d(22, 23));
  const idx n = chol.num_rows();
  SolveWorkspace ws(chol.structure());
  for (idx nrhs : {1, 5}) {
    DenseMatrix serial = random_rhs(n, nrhs, 7);
    DenseMatrix warm = serial;
    DenseMatrix reused = serial;
    solve_serial(chol.factor(), serial, nrhs);
    SolveOptions opt;
    opt.threads = 4;
    opt.nrhs_block = nrhs;
    block_solve_multi_parallel(chol.factor(), warm, opt, &ws);
    opt.threads = 1;
    block_solve_multi_parallel(chol.factor(), reused, opt, &ws);
    for (idx c = 0; c < nrhs; ++c) {
      for (idx r = 0; r < n; ++r) {
        EXPECT_EQ(reused(r, c), serial(r, c)) << "(" << r << "," << c << ")";
      }
    }
  }
}

TEST(SolveParallel, MatchesSerialAcrossThreadCounts) {
  const SparseCholesky chol = factorized(make_grid2d(30, 30));
  const idx n = chol.num_rows();
  SolveWorkspace ws(chol.structure());
  for (idx nrhs : {1, 6}) {
    DenseMatrix serial = random_rhs(n, nrhs, 11);
    DenseMatrix b = serial;
    solve_serial(chol.factor(), serial, nrhs);
    for (int threads : {2, 3, 4, 8}) {
      DenseMatrix x = b;
      SolveOptions opt;
      opt.threads = threads;
      opt.nrhs_block = nrhs;
      block_solve_multi_parallel(chol.factor(), x, opt, &ws);
      expect_close(x, serial, 1e-10, "parallel vs serial");
    }
  }
}

TEST(SolveParallel, RandomizedDagStress) {
  // Varied structures, repeated solves on a shared workspace: exercises the
  // two-sweep barrier handoff, cross-deque seeding, and accumulator
  // recycling. Runs under -L tsan in the thread-sanitized build.
  std::vector<SymSparse> mats;
  mats.push_back(make_grid2d(17, 19));
  MeshGenOptions mesh;
  mesh.nodes = 120;
  mesh.dof = 3;
  mats.push_back(make_fem_mesh(mesh));
  LpGenOptions lp;
  lp.n = 300;
  mats.push_back(make_lp_normal_equations(lp));
  for (std::size_t mi = 0; mi < mats.size(); ++mi) {
    const SparseCholesky chol = factorized(mats[mi]);
    const idx n = chol.num_rows();
    SolveWorkspace ws(chol.structure());
    for (int rep = 0; rep < 4; ++rep) {
      const idx nrhs = 1 + (rep * 3) % 5;
      DenseMatrix serial =
          random_rhs(n, nrhs, 1000 * mi + static_cast<std::uint64_t>(rep));
      DenseMatrix b = serial;
      solve_serial(chol.factor(), serial, nrhs);
      SolveOptions opt;
      opt.threads = 4;
      opt.nrhs_block = nrhs;
      block_solve_multi_parallel(chol.factor(), b, opt, &ws);
      expect_close(b, serial, 1e-10, "stress");
    }
  }
}

TEST(SolveParallel, SolvesActualSystem) {
  // End-to-end: both sweeps must be right for A x = b to hold.
  const SymSparse a = make_grid2d(26, 26);
  const SparseCholesky chol = factorized(a);
  const DenseMatrix b = random_rhs(chol.num_rows(), 4, 21);
  DenseMatrix x = b;
  SolveOptions opt;
  opt.threads = 4;
  chol.solve_multi(x, opt);
  EXPECT_LT(solve_residual_multi(a, x, b), 1e-12);
}

// --- Workspace reuse --------------------------------------------------------

TEST(SolveWorkspaceTest, SecondSolveAllocatesNothing) {
  const SparseCholesky chol = factorized(make_grid2d(25, 25));
  const idx n = chol.num_rows();
  SolveWorkspace ws(chol.structure());
  SolveOptions opt;
  opt.threads = 4;
  DenseMatrix b = random_rhs(n, 8, 3);
  block_solve_multi_parallel(chol.factor(), b, opt, &ws);
  const i64 high_water = ws.scratch_bytes();
  EXPECT_GT(high_water, 0);
  for (int rep = 0; rep < 3; ++rep) {
    DenseMatrix b2 = random_rhs(n, 8, 4 + static_cast<std::uint64_t>(rep));
    block_solve_multi_parallel(chol.factor(), b2, opt, &ws);
    EXPECT_EQ(ws.scratch_bytes(), high_water) << "rep " << rep;
  }
  // A narrower solve must also fit in the reserved scratch.
  DenseMatrix b3 = random_rhs(n, 2, 9);
  block_solve_multi_parallel(chol.factor(), b3, opt, &ws);
  EXPECT_EQ(ws.scratch_bytes(), high_water);
}

TEST(SolveWorkspaceTest, SerialSolveChargesItsScratch) {
  // The 1-thread sweeps reserve their update panel under the same charge as
  // the DAG executor's scratch, so the budget holds exactly what the
  // workspace reports.
  const SparseCholesky chol = factorized(make_grid2d(25, 25));
  SolveWorkspace ws(chol.structure());
  auto budget = std::make_shared<governor::MemoryBudget>(0);
  SolveOptions opt;
  opt.budget = budget;
  DenseMatrix b = random_rhs(chol.num_rows(), 32, 5);
  block_solve_multi_parallel(chol.factor(), b, opt, &ws);
  EXPECT_GT(ws.scratch_bytes(), 0);
  EXPECT_EQ(budget->in_use_bytes(), ws.scratch_bytes());
}

TEST(SolveWorkspaceTest, RejectsForeignStructure) {
  const SparseCholesky a = factorized(make_grid2d(10, 10));
  const SparseCholesky b = factorized(make_grid2d(11, 11));
  SolveWorkspace ws(a.structure());
  std::vector<double> x(static_cast<std::size_t>(b.num_rows()), 1.0);
  EXPECT_THROW(block_solve_panel(b.factor(), x.data(), 1, {}, &ws), Error);
}

// --- Cancellation and fault injection ---------------------------------------

TEST(SolveTeardown, CancellationDrainsCleanly) {
  const SparseCholesky chol = factorized(make_grid2d(20, 21));
  const idx n = chol.num_rows();
  SolveWorkspace ws(chol.structure());
  spc::atomic<bool> cancel{true};
  for (int threads : {1, 4}) {
    DenseMatrix b = random_rhs(n, 3, 5);
    SolveOptions opt;
    opt.threads = threads;
    opt.cancel = &cancel;
    try {
      block_solve_multi_parallel(chol.factor(), b, opt, &ws);
      FAIL() << "expected cancellation at threads=" << threads;
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kCancelled);
    }
  }
  // The workspace must be reusable after a cancelled run.
  DenseMatrix serial = random_rhs(n, 3, 6);
  DenseMatrix b = serial;
  solve_serial(chol.factor(), serial, 3);
  SolveOptions opt;
  opt.threads = 4;
  opt.nrhs_block = 3;
  block_solve_multi_parallel(chol.factor(), b, opt, &ws);
  expect_close(b, serial, 1e-10, "post-cancel");
}

class SolveFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::clear(); }
  void TearDown() override { fault::clear(); }
};

TEST_F(SolveFaultTest, KernelFaultSurfacesAndWorkspaceRecovers) {
  if (!fault::compiled_in()) {
    GTEST_SKIP() << "fault sites not compiled in (-DSPC_FAULTS=ON)";
  }
  const SparseCholesky chol = factorized(make_grid2d(18, 18));
  const idx n = chol.num_rows();
  SolveWorkspace ws(chol.structure());
  fault::FaultPlan plan;
  plan.site[static_cast<int>(fault::Site::kKernel)] = {1.0, 13, -1};
  for (int threads : {1, 4}) {
    fault::set_plan(plan);
    DenseMatrix b = random_rhs(n, 2, 8);
    SolveOptions opt;
    opt.threads = threads;
    try {
      block_solve_multi_parallel(chol.factor(), b, opt, &ws);
      FAIL() << "expected injected fault at threads=" << threads;
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kInjectedFault);
    }
    // Clean retry on the same (dirty) workspace must succeed and agree
    // with the serial solve.
    fault::clear();
    DenseMatrix serial = random_rhs(n, 2, 9);
    DenseMatrix retry = serial;
    solve_serial(chol.factor(), serial, 2);
    opt.nrhs_block = 2;
    block_solve_multi_parallel(chol.factor(), retry, opt, &ws);
    expect_close(retry, serial, 1e-10, "post-fault retry");
  }
}

// --- Facade -----------------------------------------------------------------

TEST(CholeskySolveOpts, MatchesPlainSolve) {
  const SymSparse a = make_grid2d(23, 24);
  const SparseCholesky chol = factorized(a);
  Rng rng(31);
  std::vector<double> b(static_cast<std::size_t>(a.num_rows()));
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  const std::vector<double> want = chol.solve(b);
  for (int threads : {1, 2, 4}) {
    SolveOptions opt;
    opt.threads = threads;
    const std::vector<double> got = chol.solve(b, opt);
    for (std::size_t i = 0; i < b.size(); ++i) {
      EXPECT_NEAR(got[i], want[i], 1e-10 * std::max(1.0, std::abs(want[i])));
    }
    EXPECT_LT(solve_residual(a, got, b), 1e-12);
  }
}

TEST(CholeskySolveOpts, OverloadsAgreeBitwiseOnOneRhs) {
  // Every facade solve overload is one call into the same solve core, so at
  // one thread and one RHS they agree bitwise: for a clean factor, a
  // perturbed-pivot factor (one automatic refinement step) and an fp32
  // factor (two steps).
  // The perturbed case boosts every pivot below 0.3 * max|diag(A)| of an
  // SPD mesh: a few well-scaled perturbations, so the answers stay finite.
  struct Case {
    const char* name;
    PivotPolicy pivots;
    double pivot_delta;
    SolverOptions::Precision precision;
  };
  const Case cases[] = {
      {"clean", PivotPolicy::kStrict, kDefaultPivotDelta,
       SolverOptions::Precision::kFp64},
      {"perturb", PivotPolicy::kPerturb, 0.3, SolverOptions::Precision::kFp64},
      {"fp32", PivotPolicy::kStrict, kDefaultPivotDelta,
       SolverOptions::Precision::kFp32Refine},
  };
  MeshGenOptions mesh;
  mesh.nodes = 80;
  mesh.dof = 2;
  const SymSparse a = make_fem_mesh(mesh);
  for (const Case& c : cases) {
    SolverOptions sopt;
    sopt.pivot_policy = c.pivots;
    sopt.pivot_delta = c.pivot_delta;
    sopt.precision = c.precision;
    SparseCholesky chol = SparseCholesky::analyze(a, sopt);
    chol.factorize();
    const FactorizeInfo& info = chol.factorize_info();
    if (c.pivots == PivotPolicy::kPerturb) {
      ASSERT_GT(info.perturbed_pivots, 0);
    }
    ASSERT_EQ(info.fp32, c.precision == SolverOptions::Precision::kFp32Refine);
    const idx n = chol.num_rows();
    const DenseMatrix rhs = random_rhs(n, 1, 81);
    const std::vector<double> b(rhs.col(0), rhs.col(0) + n);
    const std::vector<double> want = chol.solve(b);
    DenseMatrix multi = rhs;
    chol.solve_multi(multi);
    const std::vector<std::vector<double>> got = {
        chol.solve(b, SolveOptions{}),
        chol.solve_refined(b, SolveOptions{}, 0),
        std::vector<double>(multi.col(0), multi.col(0) + n)};
    for (std::size_t g = 0; g < got.size(); ++g) {
      for (idx r = 0; r < n; ++r) {
        ASSERT_EQ(got[g][static_cast<std::size_t>(r)],
                  want[static_cast<std::size_t>(r)])
            << c.name << " overload " << g << " row " << r;
      }
    }
  }
}

TEST(CholeskySolveOpts, SolveMultiMatchesColumnSolves) {
  const SymSparse a = make_grid2d(21, 22);
  const SparseCholesky chol = factorized(a);
  const idx n = a.num_rows();
  const DenseMatrix b = random_rhs(n, 7, 41);
  SolveOptions opt;
  opt.threads = 2;
  opt.nrhs_block = 3;
  DenseMatrix x = b;
  chol.solve_multi(x, opt);
  for (idx c = 0; c < b.cols(); ++c) {
    std::vector<double> bc(static_cast<std::size_t>(n));
    for (idx r = 0; r < n; ++r) bc[static_cast<std::size_t>(r)] = b(r, c);
    const std::vector<double> want = chol.solve(bc);
    for (idx r = 0; r < n; ++r) {
      EXPECT_NEAR(x(r, c), want[static_cast<std::size_t>(r)],
                  1e-10 * std::max(1.0, std::abs(want[static_cast<std::size_t>(r)])));
    }
  }
}

TEST(CholeskySolveOpts, RepeatedFacadeSolvesReuseWorkspace) {
  const SymSparse a = make_grid2d(19, 19);
  const SparseCholesky chol = factorized(a);
  Rng rng(51);
  std::vector<double> b(static_cast<std::size_t>(a.num_rows()));
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  SolveOptions opt;
  opt.threads = 2;
  // First call builds the cached workspace; later calls must hit it (this
  // just exercises the cache path — the allocates-nothing assertion lives in
  // SolveWorkspaceTest where the workspace is directly observable).
  for (int rep = 0; rep < 3; ++rep) {
    const std::vector<double> x = chol.solve(b, opt);
    EXPECT_LT(solve_residual(a, x, b), 1e-12) << "rep " << rep;
  }
}

TEST(CholeskySolveOpts, RefinedSolveReachesWorkingAccuracy) {
  const SymSparse a = make_grid2d(20, 20);
  const SparseCholesky chol = factorized(a);
  Rng rng(61);
  std::vector<double> b(static_cast<std::size_t>(a.num_rows()));
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  SolveOptions opt;
  opt.threads = 2;
  const std::vector<double> x = chol.solve_refined(b, opt);
  EXPECT_LT(solve_residual(a, x, b), 1e-13);
}

TEST(CholeskySolveOpts, PerturbedPivotSolveRefinesThroughPanelPath) {
  // Perturbed pivots under kPerturb: solve(b, opt) must run the
  // perturbed-pivot refinement step through the panel path and still deliver
  // a small backward error (docs/ROBUSTNESS.md). Boosting every pivot below
  // 0.3 * max|diag(A)| of an SPD mesh perturbs a few pivots and keeps the
  // answers finite, so the residual comparison below is not vacuous.
  MeshGenOptions mesh;
  mesh.nodes = 80;
  mesh.dof = 2;
  const SymSparse a = make_fem_mesh(mesh);
  SolverOptions sopt;
  sopt.pivot_policy = PivotPolicy::kPerturb;
  sopt.pivot_delta = 0.3;
  SparseCholesky chol = SparseCholesky::analyze(a, sopt);
  chol.factorize();
  ASSERT_GT(chol.factorize_info().perturbed_pivots, 0);
  Rng rng(71);
  std::vector<double> b(static_cast<std::size_t>(a.num_rows()));
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  const std::vector<double> plain = chol.solve(b);
  ASSERT_TRUE(std::isfinite(solve_residual(a, plain, b)));
  for (int threads : {1, 4}) {
    SolveOptions opt;
    opt.threads = threads;
    const std::vector<double> x = chol.solve(b, opt);
    for (double v : x) ASSERT_TRUE(std::isfinite(v)) << "threads " << threads;
    EXPECT_LE(solve_residual(a, x, b),
              10.0 * std::max(solve_residual(a, plain, b), 1e-12));
  }
}

TEST(SolveResidual, NonFiniteSolutionNeverPassesABound) {
  // std::max(err, NaN) keeps err, so a naive max-reduction scores an all-NaN
  // solution 0. The residual must come back non-finite instead.
  const SymSparse a = make_grid2d(6, 6);
  const std::size_t n = static_cast<std::size_t>(a.num_rows());
  const std::vector<double> b = a.multiply(std::vector<double>(n, 1.0));
  EXPECT_LE(solve_residual(a, std::vector<double>(n, 1.0), b), 1e-12);
  for (double bad : {std::nan(""), std::numeric_limits<double>::infinity()}) {
    const std::vector<double> all(n, bad);
    EXPECT_FALSE(solve_residual(a, all, b) <= 1e-9) << bad;
    std::vector<double> one(n, 1.0);
    one[n / 2] = bad;
    EXPECT_FALSE(std::isfinite(solve_residual(a, one, b))) << bad;
    // One bad column poisons the multi-RHS maximum wherever it sits.
    DenseMatrix x(static_cast<idx>(n), 3), bb(static_cast<idx>(n), 3);
    for (idx c = 0; c < 3; ++c) {
      std::copy(b.begin(), b.end(), bb.col(c));
      std::fill(x.col(c), x.col(c) + n, 1.0);
    }
    x.col(1)[0] = bad;
    EXPECT_FALSE(solve_residual_multi(a, x, bb) <= 1e-9) << bad;
  }
}

// --- condest / residual overloads -------------------------------------------

TEST(SolveCondest, PanelOverloadMatchesScalarEstimate) {
  const SymSparse a = make_grid2d(16, 16);
  const SparseCholesky chol = factorized(a);
  const SymSparse& ap = chol.permuted_matrix();
  const double want = estimate_inv_norm2(ap, chol.factor());
  SolveWorkspace ws(chol.structure());
  for (int threads : {1, 4}) {
    SolveOptions opt;
    opt.threads = threads;
    const double got = estimate_inv_norm2(ap, chol.factor(), opt, &ws);
    EXPECT_NEAR(got, want, 1e-6 * want);
  }
  SolveOptions opt;
  opt.threads = 2;
  const double cond = estimate_condition(ap, chol.factor(), opt, &ws);
  EXPECT_NEAR(cond, estimate_condition(ap, chol.factor()), 1e-6 * cond);
}

// --- Solve DAG validator -----------------------------------------------------

TEST(SolveDag, AcceptsRealStructures) {
  for (const SymSparse& a :
       {make_grid2d(15, 17), make_lp_normal_equations({200})}) {
    const SparseCholesky chol = SparseCholesky::analyze(a);
    const check::Report r = check::check_solve_dag(chol.structure());
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.errors(), 0);
  }
}

TEST(SolveDag, FlagsEntryAboveDiagonal) {
  const SparseCholesky chol = SparseCholesky::analyze(make_grid2d(12, 12));
  BlockStructure bad = chol.structure();
  ASSERT_GT(bad.num_entries(), 0);
  // Point the first entry of the first non-empty column at the column
  // itself: no longer strictly below the diagonal.
  for (idx k = 0; k < bad.num_block_cols(); ++k) {
    if (bad.blkptr[static_cast<std::size_t>(k)] <
        bad.blkptr[static_cast<std::size_t>(k) + 1]) {
      bad.blkrow[static_cast<std::size_t>(
          bad.blkptr[static_cast<std::size_t>(k)])] = k;
      break;
    }
  }
  const check::Report r = check::check_solve_dag(bad);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has("solve.blkrow-range"));
}

TEST(SolveDag, FlagsUnconsumedEntries) {
  const SparseCholesky chol = SparseCholesky::analyze(make_grid2d(12, 13));
  BlockStructure bad = chol.structure();
  // Drop the first column's entries from its blkptr range (monotonicity is
  // preserved): the forward sweep can then never release their block rows.
  idx k0 = -1;
  for (idx k = 0; k < bad.num_block_cols(); ++k) {
    if (bad.blkptr[static_cast<std::size_t>(k)] <
        bad.blkptr[static_cast<std::size_t>(k) + 1]) {
      k0 = k;
      break;
    }
  }
  ASSERT_GE(k0, 0);
  for (idx k = 0; k <= k0; ++k) {
    bad.blkptr[static_cast<std::size_t>(k)] =
        bad.blkptr[static_cast<std::size_t>(k0) + 1];
  }
  const check::Report r = check::check_solve_dag(bad);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has("solve.fwd-stuck") || r.has("solve.structure"));
}

// --- Profile counters --------------------------------------------------------

TEST(SolveProfileTest, CountersMatchStructure) {
  const SparseCholesky chol = factorized(make_grid2d(22, 22));
  const BlockStructure& bs = chol.structure();
  const idx n = chol.num_rows();
  SolveWorkspace ws(chol.structure());
  for (int threads : {1, 3}) {
    SolveProfile prof;
    SolveOptions opt;
    opt.threads = threads;
    opt.profile = &prof;
    DenseMatrix b = random_rhs(n, 4, 81);
    block_solve_multi_parallel(chol.factor(), b, opt, &ws);
    ASSERT_EQ(static_cast<int>(prof.workers.size()), threads);
    const SolveProfile::Worker t = prof.total();
    EXPECT_EQ(t.cols, 2 * static_cast<i64>(bs.num_block_cols()));
    EXPECT_EQ(t.updates, 2 * bs.num_entries());
    EXPECT_EQ(prof.nrhs, 4);
    EXPECT_GE(prof.wall_s, 0.0);
  }
}

// --- Workspace DAG metadata --------------------------------------------------

TEST(SolveWorkspaceTest, LevelSetsAndPrioritiesAreConsistent) {
  const SparseCholesky chol = SparseCholesky::analyze(make_grid2d(18, 20));
  const BlockStructure& bs = chol.structure();
  const SolveWorkspace ws(bs);
  const idx nb = bs.num_block_cols();
  ASSERT_EQ(static_cast<idx>(ws.fwd_level.size()), nb);
  for (idx k = 0; k < nb; ++k) {
    EXPECT_GT(ws.fwd_prio[static_cast<std::size_t>(k)], 0);
    EXPECT_GT(ws.bwd_prio[static_cast<std::size_t>(k)], 0);
    EXPECT_LT(ws.fwd_level[static_cast<std::size_t>(k)], ws.fwd_levels);
    EXPECT_LT(ws.bwd_level[static_cast<std::size_t>(k)], ws.bwd_levels);
    // An edge J -> blkrow[e] must increase forward depth and priority
    // ordering must follow the critical path: a successor's height is
    // strictly below its source's.
    for (i64 e = bs.blkptr[static_cast<std::size_t>(k)];
         e < bs.blkptr[static_cast<std::size_t>(k) + 1]; ++e) {
      const idx dst = bs.blkrow[static_cast<std::size_t>(e)];
      EXPECT_GT(ws.fwd_level[static_cast<std::size_t>(dst)],
                ws.fwd_level[static_cast<std::size_t>(k)]);
      EXPECT_GT(ws.fwd_prio[static_cast<std::size_t>(k)],
                ws.fwd_prio[static_cast<std::size_t>(dst)]);
      EXPECT_GT(ws.bwd_level[static_cast<std::size_t>(k)],
                ws.bwd_level[static_cast<std::size_t>(dst)]);
    }
  }
}

}  // namespace
}  // namespace spc
