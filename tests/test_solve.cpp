// Tests for the panel triangular solve path (factor/parallel_solve.hpp,
// docs/SOLVE.md): column-slice vs serial parity, panel-width parity,
// workspace reuse and budget accounting, cancellation and fault-injection
// teardown (before and mid-slice), and the facade's solve overloads. Runs
// under the `tsan` and `fault` ctest labels (tools/run_analysis.sh).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <thread>
#include <vector>

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
#include "support/sync.hpp"

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

// --- Column-slice parity ----------------------------------------------------

TEST(SolveParallel, OneThreadIsBitwiseSerial) {
  // The 1-thread path is the serial panel sweep whatever the workspace has
  // seen before: a fresh temporary workspace and one left behind by a
  // 4-thread slice run give bitwise-identical answers.
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
  // One RHS runs inline at any thread count; nrhs 3 at 4 or 8 threads gets
  // fewer slices than threads; nrhs 7 cuts uneven slices; nrhs_block 5 is a
  // multiple of no thread count here, so the panels split unevenly too.
  const SparseCholesky chol = factorized(make_grid2d(30, 30));
  const idx n = chol.num_rows();
  SolveWorkspace ws(chol.structure());
  for (idx nrhs : {1, 3, 6, 7}) {
    DenseMatrix serial = random_rhs(n, nrhs, 11);
    DenseMatrix b = serial;
    solve_serial(chol.factor(), serial, nrhs);
    for (int threads : {2, 3, 4, 8}) {
      for (idx nrhs_block : {nrhs, idx{5}}) {
        DenseMatrix x = b;
        SolveOptions opt;
        opt.threads = threads;
        opt.nrhs_block = nrhs_block;
        block_solve_multi_parallel(chol.factor(), x, opt, &ws);
        expect_close(x, serial, 1e-10, "parallel vs serial");
      }
    }
  }
}

TEST(SolveParallel, RandomizedDagStress) {
  // Varied structures, repeated solves on a shared workspace at 4 threads:
  // fewer columns than threads, uneven slices, and panel widths that are
  // not a multiple of the thread count, so slices of different widths reuse
  // the same update panels. Runs under -L tsan in the thread-sanitized
  // build.
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
    const idx shapes[][2] = {{1, 1}, {3, 3}, {7, 7}, {4, 4}, {9, 5}, {7, 6}};
    for (int rep = 0; rep < 6; ++rep) {
      const idx nrhs = shapes[rep][0];
      DenseMatrix serial =
          random_rhs(n, nrhs, 1000 * mi + static_cast<std::uint64_t>(rep));
      DenseMatrix b = serial;
      solve_serial(chol.factor(), serial, nrhs);
      SolveOptions opt;
      opt.threads = 4;
      opt.nrhs_block = shapes[rep][1];
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
  // Repeated 4-thread solves reuse the per-slice update panels: the
  // reservation, and the budget charge that mirrors it, stay where the
  // first solve left them, also when the panels split into slices of
  // different widths (nrhs_block 5 over 8 columns: slices 2/1/1/1 then
  // 1/1/1).
  const SparseCholesky chol = factorized(make_grid2d(25, 25));
  const idx n = chol.num_rows();
  SolveWorkspace ws(chol.structure());
  auto budget = std::make_shared<governor::MemoryBudget>(0);
  SolveOptions opt;
  opt.threads = 4;
  opt.budget = budget;
  DenseMatrix b = random_rhs(n, 8, 3);
  block_solve_multi_parallel(chol.factor(), b, opt, &ws);
  const i64 high_water = ws.scratch_bytes();
  EXPECT_GT(high_water, 0);
  EXPECT_EQ(ws.update.size(), 4u);
  for (idx nrhs_block : {idx{32}, idx{5}, idx{3}}) {
    opt.nrhs_block = nrhs_block;
    for (int rep = 0; rep < 3; ++rep) {
      DenseMatrix b2 = random_rhs(n, 8, 4 + static_cast<std::uint64_t>(rep));
      block_solve_multi_parallel(chol.factor(), b2, opt, &ws);
      EXPECT_EQ(ws.scratch_bytes(), high_water)
          << "nrhs_block " << nrhs_block << " rep " << rep;
      EXPECT_EQ(budget->in_use_bytes(), high_water);
    }
  }
  // A narrower solve must also fit in the reserved scratch.
  DenseMatrix b3 = random_rhs(n, 2, 9);
  block_solve_multi_parallel(chol.factor(), b3, opt, &ws);
  EXPECT_EQ(ws.scratch_bytes(), high_water);
}

TEST(SolveWorkspaceTest, SerialSolveChargesItsScratch) {
  // The 1-thread sweep reserves its update panel under the same charge as
  // the column slices' panels, so the budget holds exactly what the
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

TEST(SolveTeardown, MidSliceCancellationDrainsCleanly) {
  // A timer thread raises the flag while the 4 slices sweep. A run the
  // flag misses must still be right; the test needs at least one run that
  // it cancels, and each cancelled run is followed by a clean solve on the
  // same workspace.
  const SparseCholesky chol = factorized(make_grid2d(60, 60));
  const idx n = chol.num_rows();
  SolveWorkspace ws(chol.structure());
  DenseMatrix serial = random_rhs(n, 8, 15);
  const DenseMatrix b = serial;
  solve_serial(chol.factor(), serial, 8);
  int cancelled = 0;
  for (int attempt = 0; attempt < 40 && cancelled < 3; ++attempt) {
    spc::atomic<bool> cancel{false};
    std::thread timer([&cancel, attempt] {
      std::this_thread::sleep_for(std::chrono::microseconds(50 * (attempt % 8)));
      cancel.store(true);
    });
    SolveOptions opt;
    opt.threads = 4;
    opt.cancel = &cancel;
    DenseMatrix x = b;
    bool threw = false;
    try {
      block_solve_multi_parallel(chol.factor(), x, opt, &ws);
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kCancelled) << e.what();
      threw = true;
    }
    timer.join();
    if (!threw) {
      expect_close(x, serial, 1e-10, "uncancelled run");
      continue;
    }
    ++cancelled;
    DenseMatrix retry = b;
    SolveOptions clean;
    clean.threads = 4;
    block_solve_multi_parallel(chol.factor(), retry, clean, &ws);
    expect_close(retry, serial, 1e-10, "post-cancel");
  }
  EXPECT_GT(cancelled, 0);
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

TEST_F(SolveFaultTest, MidSliceKernelFaultStopsTheOtherSlices) {
  if (!fault::compiled_in()) {
    GTEST_SKIP() << "fault sites not compiled in (-DSPC_FAULTS=ON)";
  }
  // One kernel fault (budget 1) at a column in the middle of the forward
  // sweep: one slice throws there, the other three stop at their next
  // column, and the call rethrows the fault after the join. The fault keys
  // are column ids, the same in every slice, so a seed is picked whose first
  // firing key lies in the middle third of the forward sweep.
  const SparseCholesky chol = factorized(make_grid2d(30, 30));
  const idx n = chol.num_rows();
  const idx nb = chol.structure().num_block_cols();
  ASSERT_GE(nb, 6);
  fault::FaultPlan plan;
  idx first_key = -1;
  for (std::uint64_t seed = 1; seed < 1000 && first_key < 0; ++seed) {
    plan.site[static_cast<int>(fault::Site::kKernel)] = {0.05, seed, 1};
    fault::set_plan(plan);
    idx k = 0;
    while (k < 2 * nb &&
           !fault::should_inject(fault::Site::kKernel, static_cast<std::uint64_t>(k))) {
      ++k;
    }
    if (k >= nb / 3 && k < 2 * nb / 3) first_key = k;
  }
  ASSERT_GE(first_key, 0) << "no seed fires mid-sweep";
  SolveWorkspace ws(chol.structure());
  DenseMatrix serial = random_rhs(n, 8, 10);
  const DenseMatrix b = serial;
  solve_serial(chol.factor(), serial, 8);
  for (int rep = 0; rep < 3; ++rep) {
    fault::set_plan(plan);  // resets the injection budget
    SolveOptions opt;
    opt.threads = 4;
    DenseMatrix x = b;
    try {
      block_solve_multi_parallel(chol.factor(), x, opt, &ws);
      FAIL() << "expected an injected fault at column " << first_key;
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kInjectedFault) << e.what();
    }
    EXPECT_EQ(fault::injected(fault::Site::kKernel), 1);
    fault::clear();
    DenseMatrix retry = b;
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

}  // namespace
}  // namespace spc
