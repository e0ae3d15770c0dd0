// Shim-parity guard for the synchronization layer (support/sync.hpp).
//
// The contract: in normal builds (SPC_MODEL=OFF) the spc::atomic / spc::Mutex
// aliases must be bitwise-free of behavior — spc::atomic<T> IS std::atomic<T>
// (checked at compile time below, which pins codegen/layout/ABI identity),
// and the annotated Mutex/LockGuard/CondVar wrappers add no semantics beyond
// the std primitives they forward to. Runtime checks pin the numeric
// consequences on CUBE30:
//
//   * 1 thread — the parallel factorization is fully deterministic (one
//     worker drains the DAG in priority order), so two runs must agree
//     BITWISE. (The 1-thread solve is the serial panel sweeps by
//     construction; test_solve.cpp pins that its entry points agree
//     BITWISE.)
//   * 8 threads — update order into a destination block is scheduling-
//     dependent, so agreement with the sequential factor is up to summation
//     order (tight tolerance), exactly as before the shim retrofit.
//
// Under -DSPC_MODEL=ON the aliases intentionally resolve to the instrumented
// types; the compile-time identity checks invert, and the runtime checks
// still hold because unregistered threads pass through to the real
// primitives.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <type_traits>
#include <vector>

#include "cholesky/sparse_cholesky.hpp"
#include "factor/block_solve.hpp"
#include "factor/parallel_factor.hpp"
#include "factor/parallel_solve.hpp"
#include "factor/residual.hpp"
#include "gen/benchmark_suite.hpp"
#include "support/sync.hpp"
#include "support/types.hpp"

namespace spc {
namespace {

#if !defined(SPC_MODEL_ENABLED)
// The alias must be the std type itself, not a wrapper: a type alias cannot
// change layout, codegen, or ABI, so SPC_MODEL=OFF builds are bitwise
// identical to spelling std::atomic directly.
static_assert(std::is_same_v<spc::atomic<int>, std::atomic<int>>);
static_assert(std::is_same_v<spc::atomic<i64>, std::atomic<i64>>);
static_assert(std::is_same_v<spc::atomic<bool>, std::atomic<bool>>);
static_assert(std::is_same_v<spc::atomic<double*>, std::atomic<double*>>);
// The annotated mutex is exactly a std::mutex in disguise.
static_assert(sizeof(Mutex) == sizeof(std::mutex));
#else
// Model builds deliberately swap in the instrumented types.
static_assert(std::is_same_v<spc::atomic<int>, model::Atomic<int>>);
#endif

struct Cube {
  SparseCholesky chol;
  explicit Cube()
      : chol(SparseCholesky::analyze(
            make_bench_matrix("CUBE30", SuiteScale::kSmall).matrix)) {}
};

// Bitwise max |a - b| == 0 check over two factors' blocks.
bool factors_bitwise_equal(const BlockFactor& a, const BlockFactor& b) {
  if (a.diag.size() != b.diag.size() || a.offdiag.size() != b.offdiag.size()) {
    return false;
  }
  auto block_eq = [](const DenseMatrix& x, const DenseMatrix& y) {
    if (x.rows() != y.rows() || x.cols() != y.cols()) return false;
    for (idx j = 0; j < x.cols(); ++j) {
      for (idx i = 0; i < x.rows(); ++i) {
        if (x(i, j) != y(i, j)) return false;
      }
    }
    return true;
  };
  for (std::size_t j = 0; j < a.diag.size(); ++j) {
    if (!block_eq(a.diag[j], b.diag[j])) return false;
  }
  for (std::size_t e = 0; e < a.offdiag.size(); ++e) {
    if (!block_eq(a.offdiag[e], b.offdiag[e])) return false;
  }
  return true;
}

double factor_max_diff(const BlockFactor& a, const BlockFactor& b) {
  double max_diff = 0.0;
  for (std::size_t j = 0; j < a.diag.size(); ++j) {
    DenseMatrix d = a.diag[j];
    d.axpy(-1.0, b.diag[j]);
    max_diff = std::max(max_diff, d.norm());
  }
  for (std::size_t e = 0; e < a.offdiag.size(); ++e) {
    DenseMatrix d = a.offdiag[e];
    d.axpy(-1.0, b.offdiag[e]);
    max_diff = std::max(max_diff, d.norm());
  }
  return max_diff;
}

TEST(ShimParity, SingleThreadFactorIsBitwiseDeterministic) {
  Cube c;
  ParallelFactorOptions opt;
  opt.num_threads = 1;
  const BlockFactor run1 = block_factorize_parallel(
      c.chol.permuted_matrix(), c.chol.structure(), c.chol.task_graph(), opt);
  const BlockFactor run2 = block_factorize_parallel(
      c.chol.permuted_matrix(), c.chol.structure(), c.chol.task_graph(), opt);
  EXPECT_TRUE(factors_bitwise_equal(run1, run2))
      << "1-thread factorization must be bitwise reproducible";
  // And numerically the same factor as the sequential engine (summation
  // order may differ, so tolerance — identical to the pre-shim contract).
  const BlockFactor seq =
      block_factorize(c.chol.permuted_matrix(), c.chol.structure(), c.chol.task_graph());
  EXPECT_LT(factor_max_diff(seq, run1), 1e-8);
}

TEST(ShimParity, EightThreadFactorMatchesSequential) {
  Cube c;
  ParallelFactorOptions opt;
  opt.num_threads = 8;
  const BlockFactor par = block_factorize_parallel(
      c.chol.permuted_matrix(), c.chol.structure(), c.chol.task_graph(), opt);
  const BlockFactor seq =
      block_factorize(c.chol.permuted_matrix(), c.chol.structure(), c.chol.task_graph());
  EXPECT_LT(factor_max_diff(seq, par), 1e-8);
  EXPECT_LT(factor_residual_probe(c.chol.permuted_matrix(), par), 1e-10);
}

TEST(ShimParity, EightThreadSolveMatchesSerial) {
  // Eight columns at eight threads: one column slice per thread, each
  // swept against the shared factor, must match the serial one-column
  // solves.
  Cube c;
  const BlockFactor f =
      block_factorize(c.chol.permuted_matrix(), c.chol.structure(), c.chol.task_graph());
  const idx n = c.chol.permuted_matrix().num_rows();
  constexpr idx kCols = 8;
  std::vector<double> x(static_cast<std::size_t>(n) * kCols);
  for (idx j = 0; j < kCols; ++j) {
    for (idx i = 0; i < n; ++i) {
      x[static_cast<std::size_t>(j * n + i)] =
          std::cos(0.3 * static_cast<double>(i) + static_cast<double>(j));
    }
  }
  const std::vector<double> b = x;
  SolveOptions sopt;
  sopt.threads = 8;
  block_solve_panel(f, x.data(), kCols, sopt);
  double max_diff = 0.0, max_mag = 0.0;
  for (idx j = 0; j < kCols; ++j) {
    const auto col = b.begin() + static_cast<std::ptrdiff_t>(j * n);
    const std::vector<double> serial =
        block_solve(f, std::vector<double>(col, col + n));
    for (idx i = 0; i < n; ++i) {
      const double got = x[static_cast<std::size_t>(j * n + i)];
      max_diff = std::max(max_diff, std::abs(serial[static_cast<std::size_t>(i)] - got));
      max_mag = std::max(max_mag, std::abs(serial[static_cast<std::size_t>(i)]));
    }
  }
  EXPECT_LT(max_diff, 1e-10 * std::max(1.0, max_mag));
}

}  // namespace
}  // namespace spc
