// DAG-scheduled parallel triangular solves with the block factor
// (docs/SOLVE.md).
//
// The block fan-out structure gives the solve an explicit dependency DAG for
// free: in the forward sweep L y = b, block column J becomes ready when every
// off-diagonal entry landing in J's row range has been applied, and finishing
// J releases one dependency of each block row its own entries touch. The
// backward sweep L^T x = y runs the same DAG reversed. Both sweeps execute on
// the work-stealing deques of support/work_queue.hpp with the release
// protocol of parallel_factor.cpp: per-task atomic dependency counters, the
// last decrement pushes the task, ready batches pushed in critical-path
// priority order. Workers accumulate their entry updates into per-worker
// n x nrhs scratch panels and the destination column gathers them on entry
// (aggregated scatter), so no lock ever guards the RHS.
//
// This is the library's one solve path. threads == 1 (the default) runs the
// two sweeps serially in-process over the same per-column kernels, with no
// queues and no scheduling overhead; block_solve (factor/block_solve.hpp),
// every SparseCholesky solve overload and the spcd batcher all land here.
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

// Per-worker phase breakdown of one panel solve (both sweeps). Filled when
// SolveOptions::profile is set.
struct SolveProfile {
  struct Worker {
    double forward_s = 0;   // forward sweep: TRSM + entry GEMMs
    double backward_s = 0;  // backward sweep: gathers + GEMM^T + TRSM^T
    double scatter_s = 0;   // accumulator gathers and update scatters
    double idle_s = 0;      // time inside the scheduler (pop/steal/park)
    i64 cols = 0;           // column tasks executed (both sweeps)
    i64 updates = 0;        // off-diagonal entry updates applied (both sweeps)
  };
  std::vector<Worker> workers;
  double wall_s = 0;
  i64 steals = 0;
  int nrhs = 0;

  Worker total() const;  // element-wise sum over workers
};

struct SolveOptions {
  // 1 = serial panel sweeps (the default: on small RHS the DAG overhead is
  // pure loss); >= 2 = DAG executor; 0 = hardware concurrency.
  int threads = 1;
  // RHS panel width for multi-RHS solves: B is processed nrhs_block columns
  // at a time so the factor is walked once per panel.
  idx nrhs_block = 32;
  SolveProfile* profile = nullptr;
  // Cooperative cancellation: when non-null and set true (from any thread),
  // workers stop computing, the remaining DAG drains as no-ops, and the call
  // throws Error(kCancelled) after a clean join. The workspace stays
  // reusable.
  const spc::atomic<bool>* cancel = nullptr;

  // Resource governance (docs/ROBUSTNESS.md §7): `budget` meters workspace
  // scratch growth; `deadline` is polled per column in the serial sweeps and
  // at task-acquire boundaries (amortized) in the DAG executor, throwing
  // Error(kDeadlineExceeded) on breach with the same drain-as-no-op teardown
  // as cancellation.
  std::shared_ptr<governor::MemoryBudget> budget = nullptr;
  const governor::Deadline* deadline = nullptr;
};

// Reusable solve state for one BlockStructure, mirroring ParallelWorkspace:
// the solve DAG (entries-by-block-row CSR), critical-path priorities and
// level sets for both sweeps, and the per-run counter/scratch arrays.
// Constructing it is O(structure); prepare_run() between solves only
// re-initializes counters and, at steady state, allocates nothing. Not
// thread-safe: one workspace drives one solve at a time.
struct SolveWorkspace {
  explicit SolveWorkspace(const BlockStructure& bs);
  SolveWorkspace(const SolveWorkspace&) = delete;
  SolveWorkspace& operator=(const SolveWorkspace&) = delete;

  const BlockStructure* bs;

  // --- static per-plan data (computed once in the constructor) -------------
  // CSR of off-diagonal entries grouped by BLOCK ROW: the forward DAG's
  // in-edges of a column, and the backward DAG's task work lists.
  std::vector<i64> row_ptr;
  std::vector<i64> row_entries;
  std::vector<idx> col_of_entry;  // owning block column of each entry
  // Critical-path heights (per-RHS flops to the sweep's end), the deque
  // priorities; and DAG depth level sets, for stats and the stress tests.
  std::vector<i64> fwd_prio, bwd_prio;
  std::vector<idx> fwd_level, bwd_level;
  idx fwd_levels = 0, bwd_levels = 0;
  i64 max_entry_rows = 0;  // widest off-diagonal entry (dense rows)

  // --- per-run state (allocated once, re-initialized by prepare_run) -------
  std::unique_ptr<spc::atomic<i64>[]> deps;  // per block column
  struct WorkerScratch {
    std::vector<double> accum;  // n x nrhs accumulation panel (ld = n)
    DenseMatrix update;         // one entry's GEMM result / gathered rows
    std::vector<i64> ready;     // ready-task batch buffer
  };
  std::vector<WorkerScratch> scratch;
  std::vector<double> rhs;  // permuted-RHS staging for SparseCholesky

  // Governed accounting, mirroring ParallelWorkspace: scratch growth is
  // charged against the budget handed to prepare_run / stage_rhs before the
  // allocation happens; the charge is released when the workspace dies and
  // rebound when a run arrives under a different budget.
  governor::BudgetCharge charge;

  // Re-initializes the forward dependency counters, grows the per-worker
  // scratch to `num_threads` entries sized for `nrhs` columns, and re-zeroes
  // accumulators left dirty by a failed/cancelled run. Scratch growth is
  // charged against `budget` when one is given; the SPC_FAULT `alloc` site
  // covers the growth allocation.
  void prepare_run(int num_threads, idx nrhs,
                   const std::shared_ptr<governor::MemoryBudget>& budget =
                       nullptr);

  // The serial sweeps' share of prepare_run: they use no counters and no
  // accumulators, only worker 0's update panel, which is reserved for
  // `nrhs` columns under the same governed-allocation protocol.
  void prepare_serial(idx nrhs,
                      const std::shared_ptr<governor::MemoryBudget>& budget =
                          nullptr);

  // Grows the permuted-RHS staging buffer to `elems` doubles under the same
  // governed-allocation protocol (charge first, alloc-site fault hook).
  void stage_rhs(i64 elems,
                 const std::shared_ptr<governor::MemoryBudget>& budget =
                     nullptr);

  // Rebinds the charge token when the governing budget changes, re-charging
  // the bytes the workspace already holds. Called by prepare_run/stage_rhs.
  void bind_budget(const std::shared_ptr<governor::MemoryBudget>& budget);

  // Bytes of backing scratch currently reserved (accumulators, update
  // panels, RHS staging). A second solve of the same shape leaves this
  // unchanged — the allocates-nothing tests assert on it.
  i64 scratch_bytes() const;

  bool accum_dirty = false;  // accumulators may hold partial sums
  i64 update_reserved = 0;   // per-worker update-panel reservation (elements)
};

// Solves L L^T X = B in place for one panel of `nrhs` columns stored
// column-major at `x` with leading dimension n (= number of matrix columns).
// When `ws` is non-null it must have been built from f's structure and is
// reused across calls; otherwise a temporary workspace is built. Failure
// semantics match block_factorize_parallel: first failure cancels, the DAG
// drains as no-ops, the first failure is rethrown after a clean join, and
// the workspace stays reusable.
void block_solve_panel(const BlockFactor& f, double* x, idx nrhs,
                       const SolveOptions& opt = {},
                       SolveWorkspace* ws = nullptr);

// Multi-RHS convenience: solves the columns of B in place, nrhs_block
// columns at a time. Profile data (when requested) accumulates over panels.
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
