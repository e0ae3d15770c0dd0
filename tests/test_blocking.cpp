// Tests for the block partition (blocks/blocking.hpp, blocks/partition.hpp)
// and its validators (check_blocking, rules blocks.cover / blocks.nesting /
// blocks.width-cap).
//
// The analysis cuts every supernode at one global B; the tests pin that
// make_blocking is make_block_partition bit for bit. Every consumer reads
// per-block widths, so irregular widths are covered by a seeded
// make_block_partition_variable partition (some blocks wider than 48) run
// through the serial sweep, the executor at 1/2/4 threads, the fp32
// executor, and the panel solve serially and in column slices. Negative
// tests seed one corruption each and assert the responsible rule is
// pinpointed, mirroring test_check.cpp.
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
#include "factor/parallel_solve.hpp"
#include "factor/residual.hpp"
#include "gen/grid_gen.hpp"
#include "gen/lp_gen.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace spc {
namespace {

SparseCholesky analyzed(const SymSparse& a, idx block_size = 24) {
  SolverOptions opt;
  opt.block_size = block_size;
  return SparseCholesky::analyze(a, opt);
}

// Widest block the seeded irregular partition may cut.
constexpr idx kIrregularCap = 96;

// An analysis' matrix and supernodes re-cut at seeded per-supernode widths
// in [8, kIrregularCap] (kIrregularCap on the widest supernode), then built into a block structure and task graph
// like analyze() builds the uniform one.
struct Irregular {
  SparseCholesky chol;
  BlockStructure bs;
  TaskGraph tg;
  explicit Irregular(const SymSparse& a, std::uint64_t seed = 5)
      : chol(analyzed(a)) {
    const SymbolicFactor& sf = chol.symbolic();
    Rng rng(seed);
    std::vector<idx> widths(static_cast<std::size_t>(sf.num_supernodes()));
    for (idx& w : widths) w = rng.uniform_int(8, kIrregularCap);
    // Cut the widest supernode as wide as allowed, so a block is wider
    // than 48 whenever a supernode is.
    idx widest_sn = 0;
    for (idx s = 1; s < sf.num_supernodes(); ++s) {
      if (sf.sn.width(s) > sf.sn.width(widest_sn)) widest_sn = s;
    }
    widths[static_cast<std::size_t>(widest_sn)] = kIrregularCap;
    bs = build_block_structure(sf, make_block_partition_variable(sf.sn, widths));
    tg = build_task_graph(bs);
  }
  idx widest() const {
    idx w = 0;
    for (idx b = 0; b < bs.part.count(); ++b) w = std::max(w, bs.part.width(b));
    return w;
  }
};

TEST(Blocking, UniformPolicyMatchesHistoricalPartitionBitwise) {
  const SymSparse a = make_grid3d(8, 8, 8);
  const SparseCholesky chol = analyzed(a);
  const SymbolicFactor& sf = chol.symbolic();
  const BlockPartition expect = make_block_partition(sf.sn, 24);
  const BlockPartition& got = chol.structure().part;
  EXPECT_EQ(got.first_col, expect.first_col);
  EXPECT_EQ(got.block_of_col, expect.block_of_col);
  EXPECT_EQ(got.sn_of_block, expect.sn_of_block);
  EXPECT_EQ(make_blocking(sf, BlockingOptions{24}).first_col, expect.first_col);
}

TEST(Blocking, UniformWidthCapIsBlockSize) {
  const SparseCholesky chol = analyzed(make_grid3d(10, 10, 10), 32);
  const BlockPartition& part = chol.structure().part;
  idx widest = 0;
  for (idx b = 0; b < part.count(); ++b) widest = std::max(widest, part.width(b));
  EXPECT_LE(widest, 32);
  EXPECT_GT(widest, 16);
  EXPECT_TRUE(check::check_blocking(chol.symbolic(), part, 32).ok());
}

// --- Irregular widths through every engine ---------------------------------

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
  const Irregular irr(make_grid3d(9, 9, 9));
  ASSERT_GT(irr.widest(), 48);
  const SymSparse& ap = irr.chol.permuted_matrix();
  const BlockFactor serial = block_factorize(ap, irr.bs, irr.tg);
  EXPECT_LT(factor_residual_probe(ap, serial), 1e-10);
  for (int threads : {1, 2, 4}) {
    const BlockFactor par = block_factorize_parallel(
        ap, irr.bs, irr.tg, ParallelFactorOptions{threads});
    EXPECT_LT(max_factor_diff(serial, par), 1e-8) << threads << " threads";
  }
  ParallelFactorOptions fopt{2};
  FactorizeInfo info;
  fopt.info = &info;
  const BlockFactor f32 =
      block_factorize_parallel<float>(ap, irr.bs, irr.tg, fopt);
  EXPECT_TRUE(info.fp32);
  EXPECT_LT(factor_residual_probe(ap, f32), 1e-5);
}

TEST(Blocking, SolveMatchesAcrossPolicies) {
  LpGenOptions lp;
  lp.n = 250;
  lp.mean_overlap = 80;  // a trailing supernode wider than 48
  const Irregular irr(make_lp_normal_equations(lp));
  ASSERT_GT(irr.widest(), 48);
  SparseCholesky uniform = irr.chol;
  uniform.factorize();
  const BlockFactor f = block_factorize(irr.chol.permuted_matrix(), irr.bs, irr.tg);
  const idx n = uniform.num_rows();
  for (idx nrhs : {1, 16}) {
    DenseMatrix b(n, nrhs);
    Rng rng(static_cast<std::uint64_t>(nrhs));
    for (idx c = 0; c < nrhs; ++c) {
      for (idx i = 0; i < n; ++i) b(i, c) = rng.uniform(-1.0, 1.0);
    }
    DenseMatrix want = b;
    block_solve_multi_parallel(uniform.factor(), want);
    for (int threads : {1, 2, 4}) {  // 1 = one sweep, >= 2 = column slices
      SolveOptions sopt;
      sopt.threads = threads;
      DenseMatrix got = b;
      block_solve_multi_parallel(f, got, sopt);
      for (idx c = 0; c < nrhs; ++c) {
        for (idx i = 0; i < n; ++i) {
          ASSERT_NEAR(got(i, c), want(i, c), 1e-8 * (1.0 + std::abs(want(i, c))))
              << "nrhs " << nrhs << ", " << threads << " threads";
        }
      }
    }
  }
}

// Multi-thread wall-clock scaling is asserted only when the host actually
// has the cores; on a 1-core container "2 threads faster than 1" is an
// oversubscription coin flip, so the assertion (not the parity checks
// above) is skipped. The problem is sized so one 1-thread factor takes
// well over 50 ms in a release build, and each side keeps its best of 5
// runs: a neighbour's burst of load then has to cover five whole 4-thread
// runs, not one short one, to flip the comparison.
TEST(Blocking, ParallelFactorScalesWhenHostHasCores) {
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw < 4) {
    GTEST_SKIP() << "host reports " << hw
                 << " hardware thread(s); scaling wall-clock assertions need "
                    ">= 4";
  }
  const Irregular irr(make_grid3d(24, 24, 24));
  const SymSparse& ap = irr.chol.permuted_matrix();
  ParallelWorkspace ws(irr.bs, irr.tg);
  const auto time_at = [&](int threads) {
    const auto t0 = std::chrono::steady_clock::now();
    (void)block_factorize_parallel(ap, irr.bs, irr.tg,
                                   ParallelFactorOptions{threads}, &ws);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  };
  (void)time_at(1);  // warm-up
  double t1 = 1e300, t4 = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
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
  Irregular irr;
  BlockPartition part;
  idx cap = kIrregularCap;
  CheckFixture() : irr(make_grid3d(7, 7, 7)), part(irr.bs.part) {}
  const SymbolicFactor& symbolic() const { return irr.chol.symbolic(); }
  check::Report run() const {
    return check::check_blocking(symbolic(), part, cap);
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
  // Re-validate with a cap below the widest block of the partition.
  idx widest = 0;
  for (idx b = 0; b < f.part.count(); ++b) {
    widest = std::max(widest, f.part.width(b));
  }
  const check::Report r =
      check::check_blocking(f.symbolic(), f.part, widest - 1);
  expect_only(r, "blocks.width-cap");
}

TEST(CheckBlocking, DetectsBoundaryCrossingSupernode) {
  CheckFixture f;
  // Find a supernode boundary that is also a block boundary and shift the
  // block cut past it, so one block straddles two supernodes.
  const SymbolicFactor& sf = f.symbolic();
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
  const check::Report r = check::check_blocking(f.symbolic(), f.part, 0);
  expect_only(r, "blocks.width-cap");
}

// The full analysis checker runs the blocking rules as part of
// check_analysis, at the default B and a narrower one.
TEST(CheckBlocking, AnalysisReportIncludesBlockingRulesClean) {
  for (idx block_size : {24, 48}) {
    const SparseCholesky chol = analyzed(make_grid3d(8, 8, 8), block_size);
    const check::Report r = chol.check_analysis();
    std::ostringstream os;
    r.print(os);
    EXPECT_TRUE(r.ok()) << "B=" << block_size << ":\n" << os.str();
  }
}

}  // namespace
}  // namespace spc
