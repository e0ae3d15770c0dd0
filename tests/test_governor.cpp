// Tests for the resource-governance layer (support/governor.hpp,
// docs/ROBUSTNESS.md §7): MemoryBudget accounting and breach refunds,
// BudgetCharge RAII, Deadline / DeadlinePoller semantics, the SparseCholesky
// degradation ladder (every rung reached deterministically), admission
// control against estimate_factor_bytes(), drain-to-zero accounting, and
// external timer-thread cancellation. The ladder tests that need injected
// memory pressure use the SPC_FAULT `budget` site and GTEST_SKIP unless the
// library was built with -DSPC_FAULTS=ON; everything else runs in every
// build. Runs under the `fault`, `tsan`, and `governance` ctest labels.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cholesky/sparse_cholesky.hpp"
#include "factor/parallel_factor.hpp"
#include "factor/parallel_solve.hpp"
#include "factor/residual.hpp"
#include "gen/mesh_gen.hpp"
#include "support/error.hpp"
#include "support/fault.hpp"
#include "support/governor.hpp"
#include "support/rng.hpp"
#include "support/sync.hpp"

namespace spc {
namespace {

using governor::BudgetCharge;
using governor::Deadline;
using governor::DeadlinePoller;
using governor::DegradeRung;
using governor::MemoryBudget;

// Every test leaves the process-global fault plan disabled.
class GovernorTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::clear(); }
  void TearDown() override { fault::clear(); }
};

fault::FaultPlan single_site(fault::Site site, double prob, std::uint64_t seed,
                             std::int64_t budget = -1) {
  fault::FaultPlan plan;
  plan.site[static_cast<int>(site)] = {prob, seed, budget};
  return plan;
}

void expect_kind(ErrorKind kind, const char* what_contains,
                 const std::function<void()>& fn) {
  try {
    fn();
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), kind) << e.what();
    if (what_contains != nullptr) {
      EXPECT_NE(std::string(e.what()).find(what_contains), std::string::npos)
          << e.what();
    }
    return;
  }
  ADD_FAILURE() << "expected " << error_kind_name(kind);
}

SymSparse governed_mesh(std::uint64_t seed = 77) {
  return make_fem_mesh({80, 3, 3, 9.0, seed});
}

DenseMatrix random_rhs(idx n, idx nrhs, std::uint64_t seed) {
  Rng rng(seed);
  DenseMatrix b(n, nrhs);
  for (idx c = 0; c < nrhs; ++c) {
    for (idx r = 0; r < n; ++r) b(r, c) = rng.uniform(-1.0, 1.0);
  }
  return b;
}

// --- MemoryBudget / BudgetCharge -------------------------------------------

TEST_F(GovernorTest, BudgetAccountsChargesReleasesAndPeak) {
  MemoryBudget b;  // 0 = unlimited, account only
  EXPECT_EQ(b.budget_bytes(), 0);
  b.charge(100, "factorize");
  b.charge(50, "factorize");
  EXPECT_EQ(b.in_use_bytes(), 150);
  EXPECT_EQ(b.peak_bytes(), 150);
  b.release(100);
  EXPECT_EQ(b.in_use_bytes(), 50);
  EXPECT_EQ(b.peak_bytes(), 150);  // peak is sticky
  b.reset_peak();
  EXPECT_EQ(b.peak_bytes(), 50);  // rearm at current in-use
  b.release(50);
  EXPECT_EQ(b.in_use_bytes(), 0);
}

TEST_F(GovernorTest, BudgetBreachRefundsAndCarriesTypedContext) {
  MemoryBudget b(1000);
  b.charge(600, "factorize");
  try {
    b.charge(500, "factorize");
    FAIL() << "expected kResourceExhausted";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kResourceExhausted) << e.what();
    const ErrorContext& c = e.context();
    EXPECT_TRUE(c.has_budget);
    EXPECT_EQ(c.bytes_requested, 500);
    EXPECT_EQ(c.bytes_in_use, 600);
    EXPECT_EQ(c.budget_bytes, 1000);
    ASSERT_NE(c.phase, nullptr);
    EXPECT_STREQ(c.phase, "factorize");
  }
  // The failed charge was refunded: accounting never stays above the cap.
  EXPECT_EQ(b.in_use_bytes(), 600);
  b.charge(400, "factorize");  // exactly at the cap is allowed
  EXPECT_EQ(b.in_use_bytes(), 1000);
  b.release(1000);
}

TEST_F(GovernorTest, BudgetChargeRaiiReleasesOnDestructionAndMove) {
  auto b = std::make_shared<MemoryBudget>();
  {
    BudgetCharge c(b);
    c.add(256, "solve");
    c.add(0, "solve");  // no-ops stay no-ops
    EXPECT_EQ(c.bytes(), 256);
    EXPECT_EQ(b->in_use_bytes(), 256);
    BudgetCharge moved = std::move(c);
    EXPECT_EQ(moved.bytes(), 256);
    EXPECT_EQ(c.bytes(), 0);             // NOLINT: inspect moved-from state
    EXPECT_EQ(b->in_use_bytes(), 256);   // one owner, no double accounting
  }
  EXPECT_EQ(b->in_use_bytes(), 0);  // destructor drained the charge

  // Rebinding releases against the old budget before switching.
  auto b2 = std::make_shared<MemoryBudget>();
  BudgetCharge c(b);
  c.add(64, "solve");
  c.rebind(b2);
  EXPECT_EQ(b->in_use_bytes(), 0);
  EXPECT_EQ(c.bytes(), 0);
  c.add(32, "solve");
  EXPECT_EQ(b2->in_use_bytes(), 32);
  c.release();
  EXPECT_EQ(b2->in_use_bytes(), 0);

  // A default-constructed token is a no-op at every call site.
  BudgetCharge none;
  none.add(1 << 20, "solve");
  EXPECT_EQ(none.bytes(), 0);
}

// --- Deadline / DeadlinePoller ---------------------------------------------

TEST_F(GovernorTest, DeadlineZeroIsArmedAndAlreadyExpired) {
  const Deadline unarmed;
  EXPECT_FALSE(unarmed.armed());
  EXPECT_FALSE(unarmed.expired());
  Deadline::check(&unarmed, "factorize");  // no-op
  Deadline::check(nullptr, "factorize");   // safe with no deadline at all

  const Deadline zero(0.0);
  EXPECT_TRUE(zero.armed());
  EXPECT_TRUE(zero.expired());
  try {
    Deadline::check(&zero, "factorize");
    FAIL() << "expected kDeadlineExceeded";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kDeadlineExceeded) << e.what();
    const ErrorContext& c = e.context();
    EXPECT_TRUE(c.has_deadline);
    EXPECT_DOUBLE_EQ(c.limit_s, 0.0);
    EXPECT_GE(c.elapsed_s, 0.0);
    ASSERT_NE(c.phase, nullptr);
    EXPECT_STREQ(c.phase, "factorize");
  }

  const Deadline generous(1e6);
  EXPECT_FALSE(generous.expired());
  EXPECT_GT(generous.remaining_s(), 1e5);
}

TEST_F(GovernorTest, PollerThrowsOnExpiryAndIsQuietOtherwise) {
  DeadlinePoller none(nullptr);
  for (int i = 0; i < 100; ++i) none.poll("factorize");  // never throws

  const Deadline generous(1e6);
  DeadlinePoller far(&generous);
  for (int i = 0; i < 10 * DeadlinePoller::kFarStride; ++i) {
    far.poll("factorize");  // far from expiry: amortized, never throws
  }

  const Deadline zero(0.0);
  DeadlinePoller p(&zero);
  expect_kind(ErrorKind::kDeadlineExceeded, "deadline",
              [&] { p.poll("factorize"); });
}

TEST_F(GovernorTest, DegradeRungNamesAreStable) {
  EXPECT_STREQ(degrade_rung_name(DegradeRung::kRetryTransient),
               "retry-transient");
  EXPECT_STREQ(degrade_rung_name(DegradeRung::kFp32ToFp64), "fp32-to-fp64");
  EXPECT_STREQ(degrade_rung_name(DegradeRung::kParallelToSerial),
               "parallel-to-serial");
}

// --- Governed factorization: clean path and accounting ---------------------

TEST_F(GovernorTest, CleanGovernedRunHasEmptyPathAndDrainsAccounting) {
  const SymSparse a = governed_mesh();
  std::shared_ptr<MemoryBudget> budget;
  {
    SparseCholesky chol = SparseCholesky::analyze(a);
    budget = chol.memory_budget();
    ASSERT_NE(budget, nullptr);
    chol.factorize_governed(2);
    EXPECT_TRUE(chol.factorize_info().degrade_path.empty());
    EXPECT_FALSE(chol.factorize_info().fp32_fallback);

    // The analyze-time estimate must bound the measured parallel peak: it is
    // the admission-control oracle, so if the workspace ever out-allocates
    // it, infeasible runs would be admitted.
    EXPECT_GT(budget->peak_bytes(), 0);
    EXPECT_GE(chol.estimate_factor_bytes(2), budget->peak_bytes());

    Rng rng(5);
    std::vector<double> b(static_cast<std::size_t>(chol.num_rows()));
    for (double& v : b) v = rng.uniform(-1.0, 1.0);
    const std::vector<double> x = chol.solve(b);
    EXPECT_LE(solve_residual(a, x, b), 1e-10);
    EXPECT_GT(budget->in_use_bytes(), 0);  // live factor + workspaces
  }
  // Facade destruction releases every charge: the shared budget outlives it
  // and must read exactly zero.
  EXPECT_EQ(budget->in_use_bytes(), 0);
}

TEST_F(GovernorTest, Fp32EstimateCountsBothArenas) {
  // An fp32 run ends with its float arena and the promoted double arena both
  // live, so the admission estimate must bound that peak too — and the fp64
  // estimate alone does not.
  const SymSparse a = governed_mesh();
  SolverOptions opt;
  opt.precision = SolverOptions::Precision::kFp32Refine;
  for (const int threads : {2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SparseCholesky chol = SparseCholesky::analyze(a, opt);
    const std::shared_ptr<MemoryBudget>& budget = chol.memory_budget();
    chol.factorize_governed(threads);
    EXPECT_TRUE(chol.factorize_info().fp32);
    EXPECT_TRUE(chol.factorize_info().degrade_path.empty());
    EXPECT_GE(chol.estimate_factor_bytes(threads), budget->peak_bytes());
    EXPECT_LT(estimate_parallel_factor_bytes(chol.structure(), chol.task_graph(),
                                             threads),
              budget->peak_bytes());
  }
}

TEST_F(GovernorTest, AdmissionControlRejectsInfeasibleParallelRun) {
  const SymSparse a = governed_mesh();
  SolverOptions opt;
  opt.mem_budget_bytes = 4096;  // far below any feasible factor footprint
  SparseCholesky chol = SparseCholesky::analyze(a, opt);
  try {
    chol.factorize_governed(4);
    FAIL() << "expected kResourceExhausted";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kResourceExhausted) << e.what();
    EXPECT_TRUE(e.context().has_budget);
  }
  // The ladder gave up the parallel workspace before surrendering, and the
  // rungs taken are on record even though the run failed.
  const std::vector<DegradeRung>& path = chol.factorize_info().degrade_path;
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path.back(), DegradeRung::kParallelToSerial);
  EXPECT_EQ(chol.memory_budget()->in_use_bytes(), 0);  // breach fully refunded
}

TEST_F(GovernorTest, NoDegradePolicySurfacesTheFirstBreach) {
  const SymSparse a = governed_mesh();
  SolverOptions opt;
  opt.mem_budget_bytes = 4096;
  opt.retry.allow_degrade = false;
  SparseCholesky chol = SparseCholesky::analyze(a, opt);
  expect_kind(ErrorKind::kResourceExhausted, "budget",
              [&] { chol.factorize_governed(4); });
  EXPECT_TRUE(chol.factorize_info().degrade_path.empty());
}

TEST_F(GovernorTest, Fp32BreakdownTakesTheFp32Rung) {
  // b = 1 - 2^-25 rounds to exactly 1.0f: the fp32 Schur complement of the
  // trailing pivot is 0 (strict breakdown) while fp64 stays positive. The
  // governed ladder must retry in fp64 and record the rung.
  const double b01 = 1.0 - std::ldexp(1.0, -25);
  const SymSparse a = SymSparse::from_entries(2, {1.0, 1.0}, {{1, 0}}, {b01});
  SolverOptions opt;
  opt.precision = SolverOptions::Precision::kFp32Refine;
  opt.ordering = SolverOptions::Ordering::kNatural;
  SparseCholesky chol = SparseCholesky::analyze(a, opt);
  chol.factorize_governed(1);
  ASSERT_EQ(chol.factorize_info().degrade_path.size(), 1u);
  EXPECT_EQ(chol.factorize_info().degrade_path[0], DegradeRung::kFp32ToFp64);
  EXPECT_TRUE(chol.factorize_info().fp32_fallback);
  EXPECT_FALSE(chol.factorize_info().fp32);
  // The degraded configuration sticks for later refactorizations.
  EXPECT_EQ(chol.options().precision, SolverOptions::Precision::kFp64);

  const std::vector<double> b = {1.0, -1.0};
  const std::vector<double> x = chol.solve(b);
  EXPECT_LE(solve_residual(a, x, b), 1e-12);
}

// --- Governed factorization: injected pressure walks the ladder ------------

TEST_F(GovernorTest, MemoryPressureWalksLadderDownToSerial) {
  if (!fault::compiled_in()) GTEST_SKIP() << "built with SPC_FAULTS=OFF";
  const SymSparse a = governed_mesh();
  SparseCholesky chol = SparseCholesky::analyze(a);
  const std::shared_ptr<const SparseCholesky::Analysis> before = chol.analysis();

  // One forced breach (the budget site fires on the first charge of the
  // attempt): the ladder's only memory rung gives up the parallel
  // workspace, and the serial attempt runs clean over the same analysis.
  fault::set_plan(single_site(fault::Site::kBudget, 1.0, 3, /*budget=*/1));
  chol.factorize_governed(4);
  EXPECT_EQ(fault::injected(fault::Site::kBudget), 1);

  const std::vector<DegradeRung> want = {DegradeRung::kParallelToSerial};
  EXPECT_EQ(chol.factorize_info().degrade_path, want);
  EXPECT_EQ(chol.analysis(), before);

  fault::clear();
  Rng rng(11);
  std::vector<double> b(static_cast<std::size_t>(chol.num_rows()));
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  const std::vector<double> x = chol.solve(b);
  EXPECT_LE(solve_residual(a, x, b), 1e-10);
}

TEST_F(GovernorTest, TransientFaultGetsOneRetryThenSucceeds) {
  if (!fault::compiled_in()) GTEST_SKIP() << "built with SPC_FAULTS=OFF";
  const SymSparse a = governed_mesh();
  SparseCholesky chol = SparseCholesky::analyze(a);
  // Exactly one injected kernel fault: attempt 1 fails, the transient retry
  // runs clean in the same configuration.
  fault::set_plan(single_site(fault::Site::kKernel, 1.0, 13, /*budget=*/1));
  chol.factorize_governed(2);
  const std::vector<DegradeRung> want = {DegradeRung::kRetryTransient};
  EXPECT_EQ(chol.factorize_info().degrade_path, want);
  fault::clear();
  EXPECT_LT(factor_residual_probe(chol.permuted_matrix(), chol.factor()),
            1e-10);
}

TEST_F(GovernorTest, PersistentFaultExhaustsLadderWithPathOnRecord) {
  if (!fault::compiled_in()) GTEST_SKIP() << "built with SPC_FAULTS=OFF";
  const SymSparse a = governed_mesh();
  std::shared_ptr<MemoryBudget> budget;
  {
    SparseCholesky chol = SparseCholesky::analyze(a);
    budget = chol.memory_budget();
    // Unlimited injections: every attempt fails. The ladder takes its one
    // transient retry, falls back to serial, and the serial failure surfaces
    // with both rungs recorded.
    fault::set_plan(single_site(fault::Site::kKernel, 1.0, 17));
    expect_kind(ErrorKind::kInjectedFault, nullptr,
                [&] { chol.factorize_governed(2); });
    const std::vector<DegradeRung> want = {DegradeRung::kRetryTransient,
                                           DegradeRung::kParallelToSerial};
    EXPECT_EQ(chol.factorize_info().degrade_path, want);
  }
  // Even after a fully failed ladder, destroying the facade (and its cached
  // workspaces) drains the accounting to zero.
  EXPECT_EQ(budget->in_use_bytes(), 0);
}

TEST_F(GovernorTest, RetryBoundCapsTheLadder) {
  if (!fault::compiled_in()) GTEST_SKIP() << "built with SPC_FAULTS=OFF";
  const SymSparse a = governed_mesh();
  SolverOptions opt;
  opt.retry.max_attempts = 2;  // one degradation, then surface
  SparseCholesky chol = SparseCholesky::analyze(a, opt);
  // Every attempt faults. Unbounded, the ladder takes two rungs
  // (PersistentFaultExhaustsLadderWithPathOnRecord); a memory breach could
  // not show the bound, since the serial engine has no rung left to take.
  fault::set_plan(single_site(fault::Site::kKernel, 1.0, 19));
  expect_kind(ErrorKind::kInjectedFault, nullptr,
              [&] { chol.factorize_governed(4); });
  // Attempt 1 faulted (rung recorded), attempt 2 faulted and hit the
  // bound: exactly one rung taken.
  EXPECT_EQ(chol.factorize_info().degrade_path.size(), 1u);
}

// --- Deadlines through the facade ------------------------------------------

TEST_F(GovernorTest, ExpiredDeadlineSurfacesPromptlyAtEveryThreadCount) {
  const SymSparse a = governed_mesh();
  SolverOptions opt;
  opt.deadline_s = 1e-6;  // expires before the first poll boundary
  std::shared_ptr<MemoryBudget> budget;
  {
    SparseCholesky chol = SparseCholesky::analyze(a, opt);
    budget = chol.memory_budget();
    for (int threads : {1, 2, 4, 8}) {
      try {
        chol.factorize_governed(threads);
        FAIL() << "expected kDeadlineExceeded at threads=" << threads;
      } catch (const Error& e) {
        EXPECT_EQ(e.kind(), ErrorKind::kDeadlineExceeded) << e.what();
        const ErrorContext& c = e.context();
        EXPECT_TRUE(c.has_deadline);
        EXPECT_DOUBLE_EQ(c.limit_s, 1e-6);
        // Overshoot is bounded by one task's duration plus scheduling
        // noise; a sub-millisecond matrix must never run anywhere near to
        // completion before the breach is noticed. Generous CI bound.
        EXPECT_LE(c.elapsed_s, c.limit_s + 1.0);
      }
      // Deadlines never trigger degradation: time already spent cannot be
      // won back by a cheaper configuration.
      EXPECT_TRUE(chol.factorize_info().degrade_path.empty());
    }
  }
  EXPECT_EQ(budget->in_use_bytes(), 0);
}

TEST_F(GovernorTest, SolveDeadlineDrainsAndWorkspaceStaysReusable) {
  const SymSparse a = governed_mesh();
  SparseCholesky chol = SparseCholesky::analyze(a);
  chol.factorize();
  const idx n = chol.num_rows();
  SolveWorkspace ws(chol.structure());
  for (int threads : {1, 4}) {
    const Deadline zero(0.0);
    SolveOptions opt;
    opt.threads = threads;
    opt.deadline = &zero;
    DenseMatrix b = random_rhs(n, 2, 23);
    expect_kind(ErrorKind::kDeadlineExceeded, "deadline", [&] {
      block_solve_multi_parallel(chol.factor(), b, opt, &ws);
    });
    // Clean retry on the same workspace must agree with the serial solve.
    DenseMatrix serial = random_rhs(n, 2, 24);
    DenseMatrix retry = serial;
    block_solve_multi_parallel(chol.factor(), serial);
    SolveOptions clean;
    clean.threads = threads;
    clean.nrhs_block = 2;
    block_solve_multi_parallel(chol.factor(), retry, clean, &ws);
    for (idx c = 0; c < retry.cols(); ++c) {
      for (idx r = 0; r < retry.rows(); ++r) {
        EXPECT_NEAR(retry(r, c), serial(r, c), 1e-10) << threads;
      }
    }
  }
}

TEST_F(GovernorTest, SolveBudgetBreachIsTypedAndFullyRefunded) {
  const SymSparse a = governed_mesh();
  SparseCholesky chol = SparseCholesky::analyze(a);
  chol.factorize();
  auto tiny = std::make_shared<MemoryBudget>(64);  // workspace can't fit
  {
    SolveWorkspace ws(chol.structure());
    SolveOptions opt;
    opt.threads = 4;
    opt.budget = tiny;
    DenseMatrix b = random_rhs(chol.num_rows(), 2, 29);
    try {
      block_solve_multi_parallel(chol.factor(), b, opt, &ws);
      FAIL() << "expected kResourceExhausted";
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kResourceExhausted) << e.what();
      EXPECT_TRUE(e.context().has_budget);
      ASSERT_NE(e.context().phase, nullptr);
      EXPECT_STREQ(e.context().phase, "solve");
    }
    // Rebinding to an uncapped budget must release the partial charge and
    // let the same workspace complete.
    SolveOptions retry;
    retry.threads = 4;
    DenseMatrix b2 = random_rhs(chol.num_rows(), 2, 30);
    block_solve_multi_parallel(chol.factor(), b2, retry, &ws);
  }
  EXPECT_EQ(tiny->in_use_bytes(), 0);
}

// --- External timer-thread cancellation ------------------------------------

TEST_F(GovernorTest, TimerThreadCancelsFactorizationMidRun) {
  const SymSparse a = governed_mesh(31);
  const SparseCholesky chol = SparseCholesky::analyze(a);
  const SymSparse& ap = chol.permuted_matrix();
  ParallelWorkspace ws(chol.structure(), chol.task_graph());

  ParallelFactorOptions one;
  one.num_threads = 1;
  const BlockFactor ref = block_factorize_parallel(
      ap, chol.structure(), chol.task_graph(), one, &ws);

  for (int threads : {1, 2, 4, 8}) {
    spc::atomic<bool> cancel{false};
    std::thread timer([&cancel] {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      cancel.store(true);
    });
    ParallelFactorOptions popt;
    popt.num_threads = threads;
    popt.cancel = &cancel;
    bool cancelled = false;
    try {
      block_factorize_parallel(ap, chol.structure(), chol.task_graph(), popt,
                               &ws);
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kCancelled) << e.what();
      cancelled = true;
    }
    timer.join();
    // Whether the timer won the race or not, the drained teardown must leave
    // the workspace reusable; at one thread the retry is bitwise identical.
    ParallelFactorOptions clean;
    clean.num_threads = 1;
    const BlockFactor retry = block_factorize_parallel(
        ap, chol.structure(), chol.task_graph(), clean, &ws);
    ASSERT_EQ(retry.diag.size(), ref.diag.size());
    for (std::size_t j = 0; j < ref.diag.size(); ++j) {
      for (idx c = 0; c < ref.diag[j].cols(); ++c) {
        for (idx r = 0; r < ref.diag[j].rows(); ++r) {
          ASSERT_EQ(retry.diag[j](r, c), ref.diag[j](r, c))
              << "threads=" << threads << " cancelled=" << cancelled;
        }
      }
    }
    EXPECT_LT(factor_residual_probe(ap, retry), 1e-10);
  }
}

TEST_F(GovernorTest, TimerThreadCancelsSolveMidSweep) {
  const SymSparse a = governed_mesh(37);
  SparseCholesky chol = SparseCholesky::analyze(a);
  chol.factorize();
  const idx n = chol.num_rows();
  SolveWorkspace ws(chol.structure());
  for (int threads : {2, 4, 8}) {
    spc::atomic<bool> cancel{false};
    std::thread timer([&cancel] {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      cancel.store(true);
    });
    SolveOptions opt;
    opt.threads = threads;
    opt.cancel = &cancel;
    DenseMatrix b = random_rhs(n, 4, 41);
    try {
      block_solve_multi_parallel(chol.factor(), b, opt, &ws);
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kCancelled) << e.what();
    }
    timer.join();
    DenseMatrix serial = random_rhs(n, 4, 42);
    DenseMatrix retry = serial;
    block_solve_multi_parallel(chol.factor(), serial);
    SolveOptions clean;
    clean.threads = threads;
    clean.nrhs_block = 4;
    block_solve_multi_parallel(chol.factor(), retry, clean, &ws);
    for (idx c = 0; c < retry.cols(); ++c) {
      for (idx r = 0; r < retry.rows(); ++r) {
        EXPECT_NEAR(retry(r, c), serial(r, c), 1e-10) << threads;
      }
    }
  }
}

}  // namespace
}  // namespace spc
