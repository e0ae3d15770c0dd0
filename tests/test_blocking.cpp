// Tests for the structure-aware blocking policy (blocks/blocking.hpp) and
// its validators (check_blocking, rules blocks.cover / blocks.nesting /
// blocks.width-cap).
//
// Property tests derive the partition on real pipelines (3-D mesh and LP
// normal equations) and assert the policy contract: every supernode is
// tiled exactly by consecutive blocks, no block exceeds the width cap, and
// kUniform is bit-for-bit the historical make_block_partition result.
// Parity tests factor under both policies, serially and at 1..8 threads,
// and require identical numerics. Negative tests seed one corruption each
// and assert the responsible rule is pinpointed, mirroring test_check.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>
#include <thread>
#include <vector>

#include "blocks/blocking.hpp"
#include "check/check.hpp"
#include "cholesky/sparse_cholesky.hpp"
#include "factor/parallel_factor.hpp"
#include "factor/residual.hpp"
#include "gen/grid_gen.hpp"
#include "gen/lp_gen.hpp"
#include "support/error.hpp"

namespace spc {
namespace {

SparseCholesky analyzed(const SymSparse& a, BlockingPolicy policy,
                        idx block_size = 24, idx block_cap = 64) {
  SolverOptions opt;
  opt.block_size = block_size;
  opt.block_cap = block_cap;
  opt.blocking = policy;
  return SparseCholesky::analyze(a, opt);
}

// --- Boundary derivation properties ----------------------------------------

void expect_tiles_exactly(const SymbolicFactor& sf, const BlockPartition& part,
                          idx width_cap) {
  // Every supernode is covered by a consecutive run of blocks that starts
  // and ends on its boundaries, and every block is at most width_cap wide.
  idx b = 0;
  for (idx s = 0; s < sf.num_supernodes(); ++s) {
    const idx sn_first = sf.sn.first_col[static_cast<std::size_t>(s)];
    const idx sn_end = sf.sn.first_col[static_cast<std::size_t>(s) + 1];
    ASSERT_LT(b, part.count());
    EXPECT_EQ(part.first_col[static_cast<std::size_t>(b)], sn_first);
    idx col = sn_first;
    while (col < sn_end) {
      ASSERT_LT(b, part.count());
      EXPECT_EQ(part.sn_of_block[static_cast<std::size_t>(b)], s);
      EXPECT_LE(part.width(b), width_cap);
      EXPECT_GE(part.width(b), 1);
      col = part.first_col[static_cast<std::size_t>(b) + 1];
      EXPECT_LE(col, sn_end);
      ++b;
    }
    EXPECT_EQ(col, sn_end);
  }
  EXPECT_EQ(b, part.count());
}

TEST(Blocking, SupernodePolicyTilesEverySupernode) {
  LpGenOptions lp;
  lp.n = 300;
  lp.mean_overlap = 20;
  for (const SymSparse& a : {make_grid3d(9, 9, 9), make_lp_normal_equations(lp)}) {
    const SparseCholesky chol = analyzed(a, BlockingPolicy::kSupernode);
    const BlockingOptions opt = chol.options().blocking_options();
    expect_tiles_exactly(chol.symbolic(), chol.structure().part,
                         opt.width_cap());
  }
}

TEST(Blocking, UniformPolicyMatchesHistoricalPartitionBitwise) {
  const SymSparse a = make_grid3d(8, 8, 8);
  const SparseCholesky chol = analyzed(a, BlockingPolicy::kUniform);
  const SymbolicFactor& sf = chol.symbolic();
  const BlockPartition expect = make_block_partition(sf.sn, 24);
  const BlockPartition& got = chol.structure().part;
  EXPECT_EQ(got.first_col, expect.first_col);
  EXPECT_EQ(got.block_of_col, expect.block_of_col);
  EXPECT_EQ(got.sn_of_block, expect.sn_of_block);
}

TEST(Blocking, WidthsRespectCapAndTaperDown) {
  const SymSparse a = make_grid3d(10, 10, 10);
  SolverOptions sopt;
  sopt.block_size = 16;
  sopt.block_cap = 48;
  sopt.blocking = BlockingPolicy::kSupernode;
  const SparseCholesky chol = SparseCholesky::analyze(a, sopt);
  const SymbolicFactor& sf = chol.symbolic();
  const std::vector<idx> widths =
      supernode_block_widths(sf, sopt.blocking_options());
  ASSERT_EQ(static_cast<idx>(widths.size()), sf.num_supernodes());
  for (idx w : widths) {
    EXPECT_GE(w, 1);
    EXPECT_LE(w, 48);
  }
}

TEST(Blocking, UniformWidthCapIsBlockSize) {
  BlockingOptions opt;
  opt.block_size = 32;
  opt.block_cap = 128;
  EXPECT_EQ(opt.width_cap(), 32);
  opt.policy = BlockingPolicy::kSupernode;
  EXPECT_EQ(opt.width_cap(), 128);
}

TEST(Blocking, PolicyNames) {
  EXPECT_STREQ(blocking_policy_name(BlockingPolicy::kUniform), "uniform");
  EXPECT_STREQ(blocking_policy_name(BlockingPolicy::kSupernode), "supernode");
}

// --- Factorization parity under both policies ------------------------------

double max_factor_diff(const BlockFactor& x, const BlockFactor& y) {
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

TEST(Blocking, SerialAndParallelFactorsAgreeUnderBothPolicies) {
  const SymSparse a = make_grid3d(9, 9, 9);
  for (BlockingPolicy policy :
       {BlockingPolicy::kUniform, BlockingPolicy::kSupernode}) {
    const SparseCholesky chol = analyzed(a, policy);
    const SymSparse& ap = chol.permuted_matrix();
    const BlockStructure& bs = chol.structure();
    const TaskGraph& tg = chol.task_graph();
    const BlockFactor serial = block_factorize(ap, bs, tg);
    EXPECT_LT(factor_residual_probe(ap, serial), 1e-10);
    for (int threads : {1, 2, 4, 8}) {
      const BlockFactor par = block_factorize_parallel(
          ap, bs, tg, ParallelFactorOptions{threads});
      EXPECT_LT(max_factor_diff(serial, par), 1e-8)
          << blocking_policy_name(policy) << " @ " << threads << " threads";
    }
  }
}

TEST(Blocking, SolveMatchesAcrossPolicies) {
  LpGenOptions lp;
  lp.n = 250;
  lp.mean_overlap = 18;
  const SymSparse a = make_lp_normal_equations(lp);
  std::vector<double> b(static_cast<std::size_t>(a.num_rows()));
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = 1.0 + 0.01 * static_cast<double>(i % 17);
  }
  SparseCholesky u = analyzed(a, BlockingPolicy::kUniform);
  SparseCholesky s = analyzed(a, BlockingPolicy::kSupernode);
  u.factorize();
  s.factorize();
  const std::vector<double> xu = u.solve(b);
  const std::vector<double> xs = s.solve(b);
  ASSERT_EQ(xu.size(), xs.size());
  for (std::size_t i = 0; i < xu.size(); ++i) {
    EXPECT_NEAR(xu[i], xs[i], 1e-8 * (1.0 + std::abs(xu[i])));
  }
}

// Multi-thread wall-clock scaling is asserted only when the host actually
// has the cores; on a 1-core container "2 threads faster than 1" is an
// oversubscription coin flip, so the assertion (not the parity checks
// above) is skipped.
TEST(Blocking, ParallelFactorScalesWhenHostHasCores) {
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw < 4) {
    GTEST_SKIP() << "host reports " << hw
                 << " hardware thread(s); scaling wall-clock assertions need "
                    ">= 4";
  }
  const SymSparse a = make_grid3d(14, 14, 14);
  const SparseCholesky chol = analyzed(a, BlockingPolicy::kSupernode, 32, 96);
  const SymSparse& ap = chol.permuted_matrix();
  const BlockStructure& bs = chol.structure();
  const TaskGraph& tg = chol.task_graph();
  ParallelWorkspace ws(bs, tg);
  const auto time_at = [&](int threads) {
    const auto t0 = std::chrono::steady_clock::now();
    (void)block_factorize_parallel(ap, bs, tg, ParallelFactorOptions{threads},
                                   &ws);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  };
  (void)time_at(1);  // warm-up
  double t1 = 1e300, t4 = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    t1 = std::min(t1, time_at(1));
    t4 = std::min(t4, time_at(4));
  }
  EXPECT_LT(t4, t1) << "4-thread factor slower than 1-thread on a " << hw
                    << "-core host";
}

// --- Seeded corruption: the blocks.* rules pinpoint their defect -----------

void expect_only(const check::Report& r, const char* rule) {
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has(rule)) << "expected rule " << rule << "; report:\n"
                           << [&] {
                                std::ostringstream os;
                                r.print(os);
                                return os.str();
                              }();
  for (const check::Finding& f : r.findings()) {
    if (f.severity == check::Severity::kError) {
      EXPECT_EQ(f.rule, rule) << f.detail;
    }
  }
}

struct CheckFixture {
  SparseCholesky chol;
  BlockPartition part;
  idx cap;
  CheckFixture()
      : chol(analyzed(make_grid3d(7, 7, 7), BlockingPolicy::kSupernode)),
        part(chol.structure().part),
        cap(chol.options().blocking_options().width_cap()) {}
  check::Report run() const {
    return check::check_blocking(chol.symbolic(), part, cap);
  }
};

TEST(CheckBlocking, CleanPipelinePasses) {
  const CheckFixture f;
  const check::Report r = f.run();
  std::ostringstream os;
  r.print(os);
  EXPECT_TRUE(r.ok()) << os.str();
}

TEST(CheckBlocking, DetectsMissingCoverage) {
  CheckFixture f;
  f.part.first_col.back()--;  // partition stops one column short of n
  expect_only(f.run(), "blocks.cover");
}

TEST(CheckBlocking, DetectsNonAdvancingBoundary) {
  CheckFixture f;
  ASSERT_GE(f.part.count(), 2);
  f.part.first_col[1] = f.part.first_col[0];  // empty first block
  expect_only(f.run(), "blocks.cover");
}

TEST(CheckBlocking, DetectsWidthCapViolation) {
  CheckFixture f;
  // Re-validate with a cap below the widest block the policy produced.
  idx widest = 0;
  for (idx b = 0; b < f.part.count(); ++b) {
    widest = std::max(widest, f.part.width(b));
  }
  const check::Report r =
      check::check_blocking(f.chol.symbolic(), f.part, widest - 1);
  expect_only(r, "blocks.width-cap");
}

TEST(CheckBlocking, DetectsBoundaryCrossingSupernode) {
  CheckFixture f;
  // Find a supernode boundary that is also a block boundary and shift the
  // block cut past it, so one block straddles two supernodes.
  const SymbolicFactor& sf = f.chol.symbolic();
  bool corrupted = false;
  for (idx b = 1; b + 1 < f.part.count() && !corrupted; ++b) {
    const idx cut = f.part.first_col[static_cast<std::size_t>(b)];
    for (idx s = 1; s < sf.num_supernodes(); ++s) {
      if (sf.sn.first_col[static_cast<std::size_t>(s)] == cut &&
          f.part.first_col[static_cast<std::size_t>(b) + 1] > cut + 1) {
        f.part.first_col[static_cast<std::size_t>(b)] = cut + 1;
        corrupted = true;
        break;
      }
    }
  }
  ASSERT_TRUE(corrupted);
  expect_only(f.run(), "blocks.nesting");
}

TEST(CheckBlocking, DetectsWrongSupernodeClaim) {
  CheckFixture f;
  ASSERT_GE(f.part.count(), 1);
  f.part.sn_of_block[0] += 1;
  expect_only(f.run(), "blocks.nesting");
}

TEST(CheckBlocking, RejectsBadCap) {
  const CheckFixture f;
  const check::Report r = check::check_blocking(f.chol.symbolic(), f.part, 0);
  expect_only(r, "blocks.width-cap");
}

// The full analysis checker runs the blocking rules as part of
// check_analysis, under both policies.
TEST(CheckBlocking, AnalysisReportIncludesBlockingRulesClean) {
  for (BlockingPolicy policy :
       {BlockingPolicy::kUniform, BlockingPolicy::kSupernode}) {
    const SparseCholesky chol = analyzed(make_grid3d(8, 8, 8), policy);
    const check::Report r = chol.check_analysis();
    std::ostringstream os;
    r.print(os);
    EXPECT_TRUE(r.ok()) << blocking_policy_name(policy) << ":\n" << os.str();
  }
}

}  // namespace
}  // namespace spc
