// Shared-memory parallel block fan-out factorization.
//
// This executes the same BFAC/BDIV/BMOD task graph as the sequential
// factorization and the Paragon simulator, but with real std::thread workers
// and the data-driven readiness protocol of §2.3: a block operation becomes
// ready when its sources are complete; updates into one destination block
// are applied by one drain task at a time; a block's completion op (BFAC or
// BDIV) fires when its last modification lands (plus, for off-diagonal
// blocks, its factored diagonal block).
//
// Scheduling: lock-free dependency resolution over per-worker Chase–Lev
// deques (support/work_queue.hpp). The last atomic decrement of a task's
// dependency counter pushes it straight onto the releasing worker's deque,
// ready batches are pushed in critical-path priority order
// (factor/scheduler.hpp), and BMODs into one destination block are drained
// in batches by a single drain task that runs each GEMM straight into the
// block, with no lock (in-place drain — the shared-memory analogue of the
// paper's fan-out update aggregation). The bottom of the elimination tree
// is pinned to workers by subtree_affinity_partition (mapping/subcube.hpp):
// each worker runs its own subtrees' tasks from a private stack thieves
// cannot reach, so steals happen only above the subtree frontier. At 1
// thread the partition is all-shared. Factor blocks live in one pooled
// arena (numeric_factor.hpp), first-touch initialized in parallel by the
// same ownership. See docs/PARALLEL_EXECUTOR.md.
//
// The numeric result is the exact same factor as block_factorize up to
// floating-point summation order (updates may apply in any order). Like the
// serial sweep, the executor is a template on the element type of the block
// storage: block_factorize_parallel<float> is the fp32-refine factorization
// on every thread count.
#pragma once

#include <memory>
#include <vector>

#include "blocks/block_structure.hpp"
#include "blocks/task_graph.hpp"
#include "factor/numeric_factor.hpp"
#include "factor/scheduler.hpp"
#include "graph/graph.hpp"
#include "mapping/subcube.hpp"
#include "linalg/dense_matrix.hpp"
#include "support/sync.hpp"
#include "support/types.hpp"

namespace spc {

// First-failure record for a parallel run. The first worker to fail claims
// the slot with a single CAS and stores its exception together with the
// failing task id and phase; later failures never clobber it — they are
// only counted. After the workers have joined, first() returns the winning
// exception (joining establishes the happens-before for the payload).
class FailureSlot {
 public:
  enum class Phase { kInit, kCompletion, kDrain, kCancel };

  // Returns true when this call recorded the first failure.
  bool record(std::exception_ptr e, i64 task, Phase phase) {
    int expected = 0;
    if (!state_.compare_exchange_strong(expected, 1,
                                        std::memory_order_acq_rel)) {
      // relaxed: pure count of losing racers, read after the workers join.
      later_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    error_ = std::move(e);
    task_ = task;
    phase_ = phase;
    state_.store(2, std::memory_order_release);
    return true;
  }

  bool failed() const { return state_.load(std::memory_order_acquire) != 0; }
  i64 later_failures() const { return later_.load(std::memory_order_relaxed); }

  // The recorded failure; call only after the failing threads joined.
  std::exception_ptr first() const {
    return state_.load(std::memory_order_acquire) == 2 ? error_ : nullptr;
  }
  i64 task() const { return task_; }
  Phase phase() const { return phase_; }

 private:
  spc::atomic<int> state_{0};  // 0 = empty, 1 = claiming, 2 = recorded
  spc::atomic<i64> later_{0};
  std::exception_ptr error_;
  i64 task_ = -1;
  Phase phase_ = Phase::kInit;
};

// Per-worker phase breakdown of one parallel factorization, filled when
// ParallelFactorOptions::profile is set.
struct ParallelProfile {
  struct Worker {
    double bfac_s = 0;          // time in potrf (BFAC)
    double bdiv_s = 0;          // time in trsm (BDIV)
    double bmod_compute_s = 0;  // BMOD GEMMs, in place or into scratch
    double scatter_s = 0;       // scatters of fragmented BMODs
    double init_s = 0;          // first-touch arena init (zero + A scatter)
    double idle_s = 0;          // time inside the scheduler (pop/steal/park)
    i64 bfacs = 0, bdivs = 0, mods = 0, batches = 0;
    // Subtree-affinity counters (zero at 1 thread, where nothing is pinned):
    i64 affinity_hits = 0;     // tasks acquired from the private pinned stack
    i64 affinity_spills = 0;   // pinned tasks released by a non-owner (pushed
                               // to the releaser's public deque instead)
    i64 below_frontier_steals = 0;  // steals that claimed a pinned (spilled)
                                    // task — 0 unless spills happened
  };
  std::vector<Worker> workers;
  double wall_s = 0;
  i64 steals = 0;

  Worker total() const;  // element-wise sum over workers
};

// Reusable execution state for repeated factorizations of one analyzed plan
// (one BlockStructure + TaskGraph): critical-path priorities, the
// mods-by-source CSR, the arena layout, scratch high-water sizes, and the
// atomic counter arrays. Constructing it is O(plan); prepare_run() between
// factorizations only re-initializes counters and allocates nothing, so a
// solver that factorizes the same structure repeatedly (e.g. per time step)
// pays the set-up cost once. Not thread-safe: one workspace drives one
// factorization at a time.
struct ParallelWorkspace {
  ParallelWorkspace(const BlockStructure& bs, const TaskGraph& tg);
  ParallelWorkspace(const ParallelWorkspace&) = delete;
  ParallelWorkspace& operator=(const ParallelWorkspace&) = delete;

  const BlockStructure* bs;
  const TaskGraph* tg;

  // --- static per-plan data (computed once in the constructor) -------------
  TaskPriorities prio;
  std::vector<i64> dest_prio;  // per block: max critical-path height of the
                               // BMODs into it (drain-task steal priority)
  std::vector<i64> src_ptr;    // CSR of mods by source block id
  std::vector<i64> src_mods;
  BlockArenaLayout layout;     // pooled factor storage layout
  i64 max_update_elems = 0;    // high-water GEMM scratch (elements)

  // --- per-run state (allocated once, re-initialized by prepare_run) -------
  std::unique_ptr<spc::atomic<i64>[]> deps;       // per block: pending mods
  std::unique_ptr<spc::atomic<int>[]> pending;    // per mod: sources left
  std::unique_ptr<spc::atomic<i64>[]> mod_next;   // per mod: dest-list link
  std::unique_ptr<spc::atomic<i64>[]> dest_head;  // per block: ready-mod list
  std::unique_ptr<spc::atomic<int>[]> dest_state; // per block: drain flag

  // Per-worker scratch, persisted across runs and reserved to the high-water
  // sizes above, so steady-state BMODs of repeated factorizations allocate
  // nothing. The update buffer is reserved in doubles and serves a float run
  // within the same bytes.
  struct WorkerScratch {
    UpdateScratch update;       // a fragmented BMOD's GEMM result
    std::vector<idx> rel_rows;  // its scatter row map
    std::vector<i64> ready;     // ready-task batch buffer
  };
  std::vector<WorkerScratch> scratch;

  // Subtree-affinity partition (mapping/subcube.hpp), cached per thread
  // count: prepare_run(n) recomputes it only when n changes, so repeated
  // factorizations with a stable thread count pay the partition cost once.
  // All-shared when n <= 1.
  AffinityPartition affinity;
  int affinity_threads = 0;  // thread count the cached partition was built for

  // Governed accounting (docs/ROBUSTNESS.md §7): bytes this workspace holds
  // — counter arrays plus reserved per-worker scratch — tracked in
  // footprint_bytes and charged against the budget handed to prepare_run.
  // The charge follows the workspace's lifetime: released when it dies,
  // rebound (and re-charged) when a run arrives under a different budget.
  governor::BudgetCharge charge;
  i64 footprint_bytes = 0;

  // Re-initializes the atomic counters for a fresh run and grows the
  // per-worker scratch to `num_threads` entries (existing entries, and any
  // run with the same or fewer threads, reuse their buffers), and (re)builds
  // the cached affinity partition when the thread count changed. With a
  // budget, allocations are charged before they happen and a breach throws
  // Error(kResourceExhausted) with typed context.
  void prepare_run(int num_threads,
                   const std::shared_ptr<governor::MemoryBudget>& budget =
                       nullptr);
};

struct ParallelFactorOptions {
  int num_threads = 0;  // 0 = std::thread::hardware_concurrency()

  // When non-null, filled with the per-worker phase breakdown of this run.
  ParallelProfile* profile = nullptr;

  // Pivot handling (numeric_factor.hpp). Strict breakdowns run in
  // continue-mode: the failing pivot is boosted, the DAG runs to
  // completion, and the call throws Error(kNotPositiveDefinite) carrying
  // the minimal failing global column — the same column every sequential
  // engine reports.
  PivotPolicy pivot_policy = PivotPolicy::kStrict;
  double pivot_delta = kDefaultPivotDelta;

  // When non-null, filled with the run's perturbation/breakdown accounting.
  FactorizeInfo* info = nullptr;

  // Cooperative cancellation: when non-null and set true (from any thread),
  // workers stop computing, the remaining DAG drains as no-ops, and the
  // call throws Error(kCancelled) after a clean join. The workspace stays
  // reusable.
  const spc::atomic<bool>* cancel = nullptr;

  // Resource governance (docs/ROBUSTNESS.md §7). `budget` meters the factor
  // arena and workspace allocations; `deadline` is polled at task-acquire
  // boundaries with amortized clock reads (governor::DeadlinePoller) — a
  // breach tears the run down exactly like cancellation (DAG drains as
  // no-ops, workspace stays reusable) but throws Error(kDeadlineExceeded).
  std::shared_ptr<governor::MemoryBudget> budget = nullptr;
  const governor::Deadline* deadline = nullptr;
};

// Factors `a` over the given block structure / task graph in element type T
// (see block_factorize in numeric_factor.hpp) and returns the double factor;
// opt.info->fp32 records a float run. When `ws` is non-null it must have
// been constructed from the same (bs, tg) and is reused across calls and
// element types (no per-call analysis or scratch allocation); otherwise a
// temporary workspace is built internally.
//
// Failure semantics (docs/ROBUSTNESS.md): on the first task failure —
// injected fault, allocation failure, internal error — the executor flips a
// cancellation flag, remaining tasks drain as no-ops (dependency counters
// are still consumed so the DAG terminates), all workers join, and the
// *first* failure is rethrown with its context. A subsequent call on the
// same workspace starts from a fully reset state and succeeds.
template <typename T = double>
BlockFactor block_factorize_parallel(const SymSparse& a, const BlockStructure& bs,
                                     const TaskGraph& tg,
                                     const ParallelFactorOptions& opt = {},
                                     ParallelWorkspace* ws = nullptr);

// Predicted governed bytes of a `num_threads`-way fp64 parallel
// factorization of this plan: factor arena + workspace static arrays +
// per-run counters + reserved per-worker scratch — every allocation
// block_factorize_parallel<double> charges against a MemoryBudget.
// Conservative upper bound on the measured peak (it assumes full scratch
// reservation); the facade uses it for admission control before numeric
// work starts, adding the float arena of an fp32 run. 0 threads = hardware
// concurrency.
i64 estimate_parallel_factor_bytes(const BlockStructure& bs, const TaskGraph& tg,
                                   int num_threads);

}  // namespace spc
