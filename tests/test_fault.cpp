// Fault-injection tests (ctest label `fault`). The plan-grammar and
// decision-function tests run in every build; the injection integration
// tests need the sites compiled in and GTEST_SKIP unless the library was
// built with -DSPC_FAULTS=ON (run_analysis.sh's `faults` and `tsan` steps).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "cholesky/sparse_cholesky.hpp"
#include "factor/parallel_factor.hpp"
#include "factor/parallel_solve.hpp"
#include "factor/residual.hpp"
#include "gen/mesh_gen.hpp"
#include "support/error.hpp"
#include "support/fault.hpp"
#include "support/rng.hpp"

namespace spc {
namespace {

using fault::FaultPlan;
using fault::Site;

// Every test leaves the process-global plan disabled.
class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::clear(); }
  void TearDown() override { fault::clear(); }
};

FaultPlan single_site(Site site, double prob, std::uint64_t seed,
                      std::int64_t budget = -1) {
  FaultPlan plan;
  plan.site[static_cast<int>(site)] = {prob, seed, budget};
  return plan;
}

// --- Plan grammar (all builds) ---------------------------------------------

TEST_F(FaultTest, ParsePlanGrammar) {
  FaultPlan plan;
  ASSERT_TRUE(fault::parse_plan("kernel:0.5:42", &plan));
  EXPECT_DOUBLE_EQ(plan.site[static_cast<int>(Site::kKernel)].prob, 0.5);
  EXPECT_EQ(plan.site[static_cast<int>(Site::kKernel)].seed, 42u);
  EXPECT_EQ(plan.site[static_cast<int>(Site::kKernel)].budget, -1);
  EXPECT_DOUBLE_EQ(plan.site[static_cast<int>(Site::kAlloc)].prob, 0.0);

  ASSERT_TRUE(fault::parse_plan("alloc:1:7:3", &plan));
  EXPECT_DOUBLE_EQ(plan.site[static_cast<int>(Site::kAlloc)].prob, 1.0);
  EXPECT_EQ(plan.site[static_cast<int>(Site::kAlloc)].budget, 3);

  ASSERT_TRUE(fault::parse_plan("input:0.25:9,kernel:1:2:1", &plan));
  EXPECT_DOUBLE_EQ(plan.site[static_cast<int>(Site::kInput)].prob, 0.25);
  EXPECT_DOUBLE_EQ(plan.site[static_cast<int>(Site::kKernel)].prob, 1.0);
  EXPECT_EQ(plan.site[static_cast<int>(Site::kKernel)].budget, 1);
}

TEST_F(FaultTest, ParsePlanRejectsBadSpecs) {
  FaultPlan plan = single_site(Site::kKernel, 0.5, 1);
  const FaultPlan before = plan;
  for (const char* bad :
       {"bogus:1:2", "kernel", "kernel:1", "kernel:x:2", "kernel:0.5:y",
        "kernel:0.5:2:z", "kernel:1.5:2", "kernel:-0.1:2", "kernel:1:2:3:4"}) {
    EXPECT_FALSE(fault::parse_plan(bad, &plan)) << bad;
    // A failed parse must leave the plan untouched.
    EXPECT_DOUBLE_EQ(plan.site[static_cast<int>(Site::kKernel)].prob,
                     before.site[static_cast<int>(Site::kKernel)].prob)
        << bad;
  }
}

TEST_F(FaultTest, ConfigureFromEnvInstallsOrIgnores) {
  ::setenv("SPC_FAULT", "kernel:1:5", 1);
  fault::configure_from_env();
  EXPECT_TRUE(fault::should_inject(Site::kKernel, 0));
  fault::clear();
  ::setenv("SPC_FAULT", "not a plan", 1);
  fault::configure_from_env();  // malformed: must be a no-op
  EXPECT_FALSE(fault::should_inject(Site::kKernel, 0));
  ::unsetenv("SPC_FAULT");
}

// --- Decision function (all builds) ----------------------------------------

TEST_F(FaultTest, DecisionsAreDeterministicPerSeedAndKey) {
  auto draw = [](std::uint64_t seed) {
    fault::set_plan(single_site(Site::kKernel, 0.5, seed));
    std::vector<bool> d;
    for (std::uint64_t key = 0; key < 64; ++key) {
      d.push_back(fault::should_inject(Site::kKernel, key));
    }
    return d;
  };
  const std::vector<bool> a = draw(42);
  const std::vector<bool> b = draw(42);
  EXPECT_EQ(a, b);  // same plan, same decisions — independent of history
  EXPECT_NE(a, draw(43));  // different seed, different fault set
}

TEST_F(FaultTest, BudgetBoundsInjections) {
  fault::set_plan(single_site(Site::kInput, 1.0, 0, /*budget=*/3));
  int fired = 0;
  for (std::uint64_t key = 0; key < 10; ++key) {
    if (fault::should_inject(Site::kInput, key)) ++fired;
  }
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(fault::injected(Site::kInput), 3);
  EXPECT_FALSE(fault::should_inject(Site::kInput, 99));  // budget spent
  fault::clear();
  EXPECT_EQ(fault::injected(Site::kInput), 0);  // counters reset
}

// --- Integration: factorization under injection ----------------------------

struct Analyzed {
  SymSparse a;
  SparseCholesky chol;
};

Analyzed analyzed_mesh(std::uint64_t seed = 77) {
  SymSparse a = make_fem_mesh({80, 3, 3, 9.0, seed});
  SparseCholesky chol = SparseCholesky::analyze(a);
  return {std::move(a), std::move(chol)};
}

TEST_F(FaultTest, DisabledBuildIgnoresArmedPlan) {
  if (fault::compiled_in()) GTEST_SKIP() << "sites compiled in";
  // With SPC_FAULTS=OFF the macros expand to nothing: an armed plan must not
  // perturb the factorization in any way.
  fault::set_plan(single_site(Site::kKernel, 1.0, 1));
  const Analyzed p = analyzed_mesh();
  const BlockFactor f =
      block_factorize(p.chol.permuted_matrix(), p.chol.structure(), p.chol.task_graph());
  EXPECT_LT(factor_residual_probe(p.chol.permuted_matrix(), f), 1e-10);
  EXPECT_EQ(fault::injected(Site::kKernel), 0);
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

TEST_F(FaultTest, KernelFaultSurfacesFromEveryEngine) {
  if (!fault::compiled_in()) GTEST_SKIP() << "built with SPC_FAULTS=OFF";
  const Analyzed p = analyzed_mesh();
  const SymSparse& ap = p.chol.permuted_matrix();

  fault::set_plan(single_site(Site::kKernel, 1.0, 3));
  expect_kind(ErrorKind::kInjectedFault, "injected fault",
              [&] { block_factorize(ap, p.chol.structure(), p.chol.task_graph()); });
  EXPECT_GE(fault::injected(Site::kKernel), 1);

  for (int threads : {1, 2, 4, 8}) {
    ParallelFactorOptions popt;
    popt.num_threads = threads;
    fault::set_plan(single_site(Site::kKernel, 1.0, 3));
    expect_kind(ErrorKind::kInjectedFault, nullptr, [&] {
      block_factorize_parallel(ap, p.chol.structure(), p.chol.task_graph(),
                               popt);
    });
    // The fp32 executor fires the same sites.
    fault::set_plan(single_site(Site::kKernel, 1.0, 3));
    expect_kind(ErrorKind::kInjectedFault, nullptr, [&] {
      block_factorize_parallel<float>(ap, p.chol.structure(),
                                      p.chol.task_graph(), popt);
    });
  }
}

TEST_F(FaultTest, Fp32EngineSharesTheFaultSites) {
  if (!fault::compiled_in()) GTEST_SKIP() << "built with SPC_FAULTS=OFF";
  // The fp32 instantiation of the engine fires the fp64 engine's site keys
  // (kKernel per task, kInput per scattered value), so the same armed plan
  // must surface from both — and from the facade's fp32-refine path, where
  // an injected kernel fault must NOT be confused with a numeric breakdown
  // (no silent fp64 retry: kInjectedFault propagates).
  const Analyzed p = analyzed_mesh();
  const SymSparse& ap = p.chol.permuted_matrix();

  fault::set_plan(single_site(Site::kKernel, 1.0, 3));
  expect_kind(ErrorKind::kInjectedFault, "injected fault", [&] {
    block_factorize<float>(ap, p.chol.structure(), p.chol.task_graph());
  });
  EXPECT_GE(fault::injected(Site::kKernel), 1);

  fault::set_plan(single_site(Site::kInput, 1.0, 21));
  expect_kind(ErrorKind::kNotPositiveDefinite, nullptr, [&] {
    block_factorize<float>(ap, p.chol.structure(), p.chol.task_graph());
  });

  fault::set_plan(single_site(Site::kKernel, 1.0, 3));
  SolverOptions opt;
  opt.precision = SolverOptions::Precision::kFp32Refine;
  SparseCholesky chol = SparseCholesky::analyze(p.a, opt);
  expect_kind(ErrorKind::kInjectedFault, nullptr, [&] { chol.factorize(); });
}

TEST_F(FaultTest, AllocFaultRaisesInjectedFault) {
  if (!fault::compiled_in()) GTEST_SKIP() << "built with SPC_FAULTS=OFF";
  const Analyzed p = analyzed_mesh();
  fault::set_plan(single_site(Site::kAlloc, 1.0, 9));
  expect_kind(ErrorKind::kInjectedFault, "arena", [&] {
    block_factorize(p.chol.permuted_matrix(), p.chol.structure(), p.chol.task_graph());
  });
  EXPECT_GE(fault::injected(Site::kAlloc), 1);
}

TEST_F(FaultTest, Fp32ArenaAllocFaultSurfacesAndRetryRecovers) {
  if (!fault::compiled_in()) GTEST_SKIP() << "built with SPC_FAULTS=OFF";
  const Analyzed p = analyzed_mesh();
  const SymSparse& ap = p.chol.permuted_matrix();
  fault::set_plan(single_site(Site::kAlloc, 1.0, 15));
  expect_kind(ErrorKind::kInjectedFault, "fp32 arena", [&] {
    block_factorize<float>(ap, p.chol.structure(), p.chol.task_graph());
  });
  EXPECT_GE(fault::injected(Site::kAlloc), 1);
  // The failed allocation left nothing behind: the same plan factorizes
  // cleanly (and accurately) once the plan is disarmed.
  fault::clear();
  FactorizeInfo info;
  const BlockFactor f =
      block_factorize<float>(ap, p.chol.structure(), p.chol.task_graph(), {},
                             &info);
  EXPECT_TRUE(info.fp32);
  EXPECT_LT(factor_residual_probe(ap, f), 1e-3);  // fp32 accuracy
}

TEST_F(FaultTest, SolveWorkspaceAllocFaultLeavesWorkspaceReusable) {
  if (!fault::compiled_in()) GTEST_SKIP() << "built with SPC_FAULTS=OFF";
  const Analyzed p = analyzed_mesh();
  SparseCholesky chol = SparseCholesky::analyze(p.a);
  chol.factorize();
  const idx n = chol.num_rows();
  SolveWorkspace ws(chol.structure());
  Rng rng(33);
  DenseMatrix b(n, 2);
  for (idx c = 0; c < 2; ++c) {
    for (idx r = 0; r < n; ++r) b(r, c) = rng.uniform(-1.0, 1.0);
  }
  // First parallel solve on a fresh workspace must grow the per-worker
  // scratch — exactly where the alloc site sits.
  fault::set_plan(single_site(Site::kAlloc, 1.0, 25));
  SolveOptions opt;
  opt.threads = 4;
  expect_kind(ErrorKind::kInjectedFault, "solve workspace", [&] {
    DenseMatrix x = b;
    block_solve_multi_parallel(chol.factor(), x, opt, &ws);
  });
  EXPECT_GE(fault::injected(Site::kAlloc), 1);
  // Clean retry on the same workspace agrees with the serial sweep.
  fault::clear();
  DenseMatrix serial = b;
  block_solve_multi_parallel(chol.factor(), serial);
  DenseMatrix retry = b;
  opt.nrhs_block = 2;
  block_solve_multi_parallel(chol.factor(), retry, opt, &ws);
  for (idx c = 0; c < retry.cols(); ++c) {
    for (idx r = 0; r < retry.rows(); ++r) {
      EXPECT_NEAR(retry(r, c), serial(r, c), 1e-10);
    }
  }
}

TEST_F(FaultTest, InputPoisoningTripsStrictPivotCheck) {
  if (!fault::compiled_in()) GTEST_SKIP() << "built with SPC_FAULTS=OFF";
  const Analyzed p = analyzed_mesh();
  // Poison every scattered value: the first diagonal block sees NaN or a
  // sign-flipped entry and the guarded potrf reports NotPositiveDefinite —
  // poisoned data is a numeric condition, not an internal error.
  fault::set_plan(single_site(Site::kInput, 1.0, 21));
  expect_kind(ErrorKind::kNotPositiveDefinite, nullptr, [&] {
    block_factorize(p.chol.permuted_matrix(), p.chol.structure(), p.chol.task_graph());
  });
  EXPECT_GE(fault::injected(Site::kInput), 1);
}

TEST_F(FaultTest, SparsePlansFireIndependentOfThreadCount) {
  if (!fault::compiled_in()) GTEST_SKIP() << "built with SPC_FAULTS=OFF";
  // Decisions are keyed by task id, not by schedule or element type: for
  // any seed, the serial sweep and the executor in fp64 and fp32 see the
  // same fault set, so they agree on whether the factorization fails at all.
  // At p = 0.002 some of the seeds fire in the serial sweep and some fire
  // nowhere, so both halves of the claim are checked: every engine fails
  // with the first kind of seed and runs clean with the second.
  const Analyzed p = analyzed_mesh();
  const SymSparse& ap = p.chol.permuted_matrix();
  // Runs fn under the seed's plan; true when it failed with an injected fault.
  const auto fails = [](std::uint64_t seed, const std::function<void()>& fn) {
    fault::set_plan(single_site(Site::kKernel, 0.002, seed));
    try {
      fn();
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kInjectedFault);
      return true;
    }
    return false;
  };
  const std::vector<std::uint64_t> seeds = {1, 2, 3, 4, 5, 6, 7, 8};
  std::size_t serial_failures = 0;
  for (std::uint64_t seed : seeds) {
    const bool serial_failed = fails(seed, [&] {
      block_factorize(ap, p.chol.structure(), p.chol.task_graph());
    });
    if (serial_failed) ++serial_failures;
    EXPECT_EQ(fails(seed,
                    [&] {
                      block_factorize<float>(ap, p.chol.structure(),
                                             p.chol.task_graph());
                    }),
              serial_failed)
        << "seed=" << seed << " serial fp32";
    for (int threads : {1, 4}) {
      ParallelFactorOptions popt;
      popt.num_threads = threads;
      EXPECT_EQ(fails(seed,
                      [&] {
                        block_factorize_parallel(ap, p.chol.structure(),
                                                 p.chol.task_graph(), popt);
                      }),
                serial_failed)
          << "seed=" << seed << " threads=" << threads;
      EXPECT_EQ(fails(seed,
                      [&] {
                        block_factorize_parallel<float>(
                            ap, p.chol.structure(), p.chol.task_graph(), popt);
                      }),
                serial_failed)
          << "seed=" << seed << " threads=" << threads << " fp32";
    }
  }
  EXPECT_GT(serial_failures, 0u) << "no seed fired";
  EXPECT_LT(serial_failures, seeds.size()) << "every seed fired";
}

bool bitwise_equal(const BlockFactor& x, const BlockFactor& y) {
  if (x.diag.size() != y.diag.size() || x.offdiag.size() != y.offdiag.size()) {
    return false;
  }
  auto eq = [](const DenseMatrix& a, const DenseMatrix& b) {
    if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
    for (idx c = 0; c < a.cols(); ++c) {
      for (idx r = 0; r < a.rows(); ++r) {
        if (a(r, c) != b(r, c)) return false;
      }
    }
    return true;
  };
  for (std::size_t j = 0; j < x.diag.size(); ++j) {
    if (!eq(x.diag[j], y.diag[j])) return false;
  }
  for (std::size_t e = 0; e < x.offdiag.size(); ++e) {
    if (!eq(x.offdiag[e], y.offdiag[e])) return false;
  }
  return true;
}

double max_block_diff(const BlockFactor& x, const BlockFactor& y) {
  double m = 0.0;
  for (std::size_t j = 0; j < x.diag.size(); ++j) {
    DenseMatrix d = x.diag[j];
    d.axpy(-1.0, y.diag[j]);
    m = std::max(m, d.norm());
  }
  for (std::size_t e = 0; e < x.offdiag.size(); ++e) {
    DenseMatrix d = x.offdiag[e];
    d.axpy(-1.0, y.offdiag[e]);
    m = std::max(m, d.norm());
  }
  return m;
}

TEST_F(FaultTest, InjectFailThenRetryOnSameWorkspace) {
  if (!fault::compiled_in()) GTEST_SKIP() << "built with SPC_FAULTS=OFF";
  const Analyzed p = analyzed_mesh();
  const SymSparse& ap = p.chol.permuted_matrix();
  ParallelWorkspace ws(p.chol.structure(), p.chol.task_graph());

  ParallelFactorOptions one;
  one.num_threads = 1;
  const BlockFactor ref =
      block_factorize_parallel(ap, p.chol.structure(), p.chol.task_graph(),
                               one, &ws);

  // Attempt 1 at one thread fails on an injected kernel fault; attempt 2 on
  // the SAME workspace must reproduce the reference factor bit for bit —
  // proof that the drained teardown left no residue in the counters or
  // scratch.
  fault::set_plan(single_site(Site::kKernel, 1.0, 11, /*budget=*/1));
  expect_kind(ErrorKind::kInjectedFault, nullptr, [&] {
    block_factorize_parallel(ap, p.chol.structure(), p.chol.task_graph(), one,
                             &ws);
  });
  EXPECT_EQ(fault::injected(Site::kKernel), 1);
  fault::clear();
  const BlockFactor retry1 =
      block_factorize_parallel(ap, p.chol.structure(), p.chol.task_graph(),
                               one, &ws);
  EXPECT_TRUE(bitwise_equal(ref, retry1));

  // Same exercise at 8 threads: summation order may differ, so compare to
  // the reference within the executor's usual tolerance.
  ParallelFactorOptions eight;
  eight.num_threads = 8;
  fault::set_plan(single_site(Site::kKernel, 1.0, 11, /*budget=*/1));
  expect_kind(ErrorKind::kInjectedFault, nullptr, [&] {
    block_factorize_parallel(ap, p.chol.structure(), p.chol.task_graph(),
                             eight, &ws);
  });
  fault::clear();
  const BlockFactor retry8 =
      block_factorize_parallel(ap, p.chol.structure(), p.chol.task_graph(),
                               eight, &ws);
  EXPECT_LT(max_block_diff(ref, retry8), 1e-8);
  EXPECT_LT(factor_residual_probe(ap, retry8), 1e-10);
}

TEST_F(FaultTest, ManyConcurrentFailuresTerminateCleanly) {
  if (!fault::compiled_in()) GTEST_SKIP() << "built with SPC_FAULTS=OFF";
  // Unlimited budget at probability 1: many workers can fail at once. The
  // executor must surface exactly one InjectedFault, join cleanly, and the
  // workspace must factor correctly on the next run.
  const Analyzed p = analyzed_mesh(91);
  const SymSparse& ap = p.chol.permuted_matrix();
  ParallelWorkspace ws(p.chol.structure(), p.chol.task_graph());
  for (int rep = 0; rep < 3; ++rep) {
    fault::set_plan(single_site(Site::kKernel, 1.0, 7));
    ParallelFactorOptions popt;
    popt.num_threads = 8;
    expect_kind(ErrorKind::kInjectedFault, nullptr, [&] {
      block_factorize_parallel(ap, p.chol.structure(), p.chol.task_graph(),
                               popt, &ws);
    });
    fault::clear();
    const BlockFactor f =
        block_factorize_parallel(ap, p.chol.structure(), p.chol.task_graph(),
                                 popt, &ws);
    EXPECT_LT(factor_residual_probe(ap, f), 1e-10);
  }
}

}  // namespace
}  // namespace spc
