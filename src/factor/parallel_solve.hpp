// Triangular solves with the block factor (docs/SOLVE.md).
//
// One serial panel sweep: the forward sweep L y = b walks the block columns
// in order (TRSM on the diagonal block, one GEMM per off-diagonal entry,
// scattered into the RHS rows it lands in), and the backward sweep
// L^T x = y walks them in reverse. Each block op is one level-3 kernel call
// on the whole panel, so the factor is walked once per panel.
//
// threads >= 2 with nrhs >= 2 cuts the panel into min(threads, nrhs)
// contiguous column slices and runs the same sweep on each, slice 0 on the
// calling thread and the rest on threads joined before return. Slices share
// only the read-only factor, so nothing guards the RHS. nrhs == 1 runs the
// sweep inline at any thread count: a one-column solve has no column-level
// parallelism, and block-column tasks are too fine to amortize scheduling.
//
// This is the library's one solve path: block_solve
// (factor/block_solve.hpp), every SparseCholesky solve overload and the
// spcd batcher all land here.
#pragma once

#include <memory>
#include <vector>

#include "blocks/block_structure.hpp"
#include "factor/numeric_factor.hpp"
#include "graph/graph.hpp"
#include "linalg/dense_matrix.hpp"
#include "support/sync.hpp"
#include "support/types.hpp"

namespace spc {

struct SolveOptions {
  // 1 = one serial sweep over the whole panel (the default); >= 2 = up to
  // that many column slices of a multi-RHS panel, each swept on its own
  // thread; 0 = hardware concurrency.
  int threads = 1;
  // RHS panel width for multi-RHS solves: B is processed nrhs_block columns
  // at a time so the factor is walked once per panel.
  idx nrhs_block = 32;
  // Cooperative cancellation: when non-null and set true (from any thread),
  // every slice stops at its next block column and the call throws
  // Error(kCancelled) after a clean join. The workspace stays reusable.
  const spc::atomic<bool>* cancel = nullptr;

  // Resource governance (docs/ROBUSTNESS.md §7): `budget` meters workspace
  // scratch growth; `deadline` is polled per block column in every slice,
  // throwing Error(kDeadlineExceeded) on breach with the same teardown as
  // cancellation.
  std::shared_ptr<governor::MemoryBudget> budget = nullptr;
  const governor::Deadline* deadline = nullptr;
};

// Reusable solve state for one BlockStructure: one GEMM update panel per
// column slice and the permuted-RHS staging buffer. Constructing it is
// O(structure); at steady state prepare() allocates nothing. Not
// thread-safe: one workspace drives one solve at a time.
struct SolveWorkspace {
  explicit SolveWorkspace(const BlockStructure& bs);
  SolveWorkspace(const SolveWorkspace&) = delete;
  SolveWorkspace& operator=(const SolveWorkspace&) = delete;

  const BlockStructure* bs;
  i64 max_entry_rows = 0;  // widest off-diagonal entry (dense rows)

  // Per slice: one entry's GEMM result. Slices touch only the storage, not
  // the vector headers, which share cache lines.
  std::vector<std::vector<double>> update;
  std::vector<double> rhs;  // permuted-RHS staging for SparseCholesky

  // Governed accounting, mirroring ParallelWorkspace: scratch growth is
  // charged against the budget handed to prepare / stage_rhs before the
  // allocation happens; the charge is released when the workspace dies and
  // rebound when a run arrives under a different budget.
  governor::BudgetCharge charge;

  // Reserves one update panel per slice, each sized for `slice_width`
  // columns of the widest entry. Growth is charged against `budget` when
  // one is given, before it is allocated; the SPC_FAULT `alloc` site covers
  // the growth allocation.
  void prepare(idx slices, idx slice_width,
               const std::shared_ptr<governor::MemoryBudget>& budget =
                   nullptr);

  // Grows the permuted-RHS staging buffer to `elems` doubles under the same
  // governed-allocation protocol (charge first, alloc-site fault hook).
  void stage_rhs(i64 elems,
                 const std::shared_ptr<governor::MemoryBudget>& budget =
                     nullptr);

  // Rebinds the charge token when the governing budget changes, re-charging
  // the bytes the workspace already holds. Called by prepare/stage_rhs.
  void bind_budget(const std::shared_ptr<governor::MemoryBudget>& budget);

  // Bytes of backing scratch currently reserved (update panels, RHS
  // staging). A second solve of the same shape leaves this unchanged — the
  // allocates-nothing tests assert on it.
  i64 scratch_bytes() const;
};

// Solves L L^T X = B in place for one panel of `nrhs` columns stored
// column-major at `x` with leading dimension n (= number of matrix columns).
// When `ws` is non-null it must have been built from f's structure and is
// reused across calls; otherwise a temporary workspace is built. On failure
// (cancel, deadline, injected fault) the first failure stops every slice at
// its next block column and is rethrown after the join; the workspace stays
// reusable and the panel's contents are unspecified.
void block_solve_panel(const BlockFactor& f, double* x, idx nrhs,
                       const SolveOptions& opt = {},
                       SolveWorkspace* ws = nullptr);

// Multi-RHS convenience: solves the columns of B in place, nrhs_block
// columns at a time.
void block_solve_multi_parallel(const BlockFactor& f, DenseMatrix& b,
                                const SolveOptions& opt = {},
                                SolveWorkspace* ws = nullptr);

// One step of iterative refinement: x += A^{-1} (b - A x), the correction
// solved through block_solve_panel. Returns the inf-norm of the correction
// (a convergence indicator). `a` must be the SAME (permuted) matrix the
// factor was computed from.
double refine_once(const SymSparse& a, const BlockFactor& f,
                   const std::vector<double>& b, std::vector<double>& x,
                   const SolveOptions& opt = {}, SolveWorkspace* ws = nullptr);

}  // namespace spc
