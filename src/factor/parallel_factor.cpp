#include "factor/parallel_factor.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "factor/scheduler.hpp"
#include "support/error.hpp"
#include "support/sync.hpp"
#include "support/work_queue.hpp"

namespace spc {
namespace {

using Clock = std::chrono::steady_clock;

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr i64 kEmptyList = -1;  // sentinel for the per-destination mod lists

}  // namespace

ParallelProfile::Worker ParallelProfile::total() const {
  Worker t;
  for (const Worker& w : workers) {
    t.bfac_s += w.bfac_s;
    t.bdiv_s += w.bdiv_s;
    t.bmod_compute_s += w.bmod_compute_s;
    t.scatter_s += w.scatter_s;
    t.init_s += w.init_s;
    t.idle_s += w.idle_s;
    t.bfacs += w.bfacs;
    t.bdivs += w.bdivs;
    t.mods += w.mods;
    t.batches += w.batches;
    t.affinity_hits += w.affinity_hits;
    t.affinity_spills += w.affinity_spills;
    t.below_frontier_steals += w.below_frontier_steals;
  }
  return t;
}

ParallelWorkspace::ParallelWorkspace(const BlockStructure& bs_in,
                                     const TaskGraph& tg_in)
    : bs(&bs_in),
      tg(&tg_in),
      prio(compute_task_priorities(bs_in, tg_in)),
      layout(compute_block_arena_layout(bs_in)) {
  const i64 num_blocks = tg_in.num_blocks();
  const i64 num_mods = static_cast<i64>(tg_in.mods.size());

  // Drain-task priority: the most critical BMOD waiting on that destination.
  dest_prio.assign(static_cast<std::size_t>(num_blocks), 0);
  for (i64 m = 0; m < num_mods; ++m) {
    i64& p = dest_prio[static_cast<std::size_t>(
        tg_in.mods[static_cast<std::size_t>(m)].dest)];
    p = std::max(p, prio.mod[static_cast<std::size_t>(m)]);
  }

  // CSR of mods by source block.
  src_ptr.assign(static_cast<std::size_t>(num_blocks) + 1, 0);
  for (const BlockMod& mod : tg_in.mods) {
    ++src_ptr[static_cast<std::size_t>(mod.src_a) + 1];
    if (mod.src_b != mod.src_a) ++src_ptr[static_cast<std::size_t>(mod.src_b) + 1];
  }
  for (block_id b = 0; b < num_blocks; ++b) {
    src_ptr[static_cast<std::size_t>(b) + 1] += src_ptr[static_cast<std::size_t>(b)];
  }
  src_mods.resize(static_cast<std::size_t>(src_ptr[static_cast<std::size_t>(num_blocks)]));
  std::vector<i64> cursor(src_ptr.begin(), src_ptr.end() - 1);
  for (i64 m = 0; m < num_mods; ++m) {
    const BlockMod& mod = tg_in.mods[static_cast<std::size_t>(m)];
    src_mods[static_cast<std::size_t>(cursor[static_cast<std::size_t>(mod.src_a)]++)] = m;
    if (mod.src_b != mod.src_a) {
      src_mods[static_cast<std::size_t>(cursor[static_cast<std::size_t>(mod.src_b)]++)] = m;
    }
  }

  // Scratch high-water mark (hoisted here so repeated factorizations of the
  // same plan never recompute or reallocate it).
  for (const BlockMod& m : tg_in.mods) {
    max_update_elems = std::max(
        max_update_elems,
        static_cast<i64>(tg_in.rows_of_block[static_cast<std::size_t>(m.src_a)]) *
            tg_in.rows_of_block[static_cast<std::size_t>(m.src_b)]);
  }

  // Static footprint (charged retroactively when prepare_run first sees a
  // budget): the per-plan arrays built above.
  footprint_bytes =
      static_cast<i64>((prio.completion.size() + prio.mod.size() +
                        dest_prio.size() + src_ptr.size() + src_mods.size() +
                        layout.diag_off.size() + layout.entry_off.size()) *
                       sizeof(i64));
}

void ParallelWorkspace::prepare_run(
    int num_threads, const std::shared_ptr<governor::MemoryBudget>& budget) {
  // Bind (or re-bind) the governed accounting. A budget change re-charges
  // the bytes this workspace already holds under the new budget, so a cached
  // workspace handed to a governed facade is metered from the first run.
  if (budget != charge.budget()) {
    charge.rebind(budget);
    charge.add(footprint_bytes, "factorize");
  }
  if (affinity.empty() || affinity_threads != num_threads) {
    affinity = subtree_affinity_partition(num_threads, *bs, *tg);
    affinity_threads = num_threads;
  }
  const i64 num_blocks = tg->num_blocks();
  const i64 num_mods = static_cast<i64>(tg->mods.size());
  if (!deps) {
    const i64 counter_bytes =
        num_blocks * static_cast<i64>(2 * sizeof(spc::atomic<i64>) +
                                      2 * sizeof(spc::atomic<int>)) +
        num_mods * static_cast<i64>(sizeof(spc::atomic<i64>) +
                                    sizeof(spc::atomic<int>));
    charge.add(counter_bytes, "factorize");  // charge before allocating
    footprint_bytes += counter_bytes;
    deps = std::make_unique<spc::atomic<i64>[]>(static_cast<std::size_t>(num_blocks));
    pending = std::make_unique<spc::atomic<int>[]>(static_cast<std::size_t>(num_mods));
    mod_next = std::make_unique<spc::atomic<i64>[]>(static_cast<std::size_t>(num_mods));
    dest_head = std::make_unique<spc::atomic<i64>[]>(static_cast<std::size_t>(num_blocks));
    dest_state = std::make_unique<spc::atomic<int>[]>(static_cast<std::size_t>(num_blocks));
  }
  // All counter resets below are relaxed: prepare_run executes on the
  // calling thread before any worker spawns, and std::thread creation
  // publishes everything sequenced before it to the new thread.
  const idx nb = bs->num_block_cols();
  for (block_id b = 0; b < num_blocks; ++b) {
    deps[static_cast<std::size_t>(b)].store(
        tg->mods_into[static_cast<std::size_t>(b)] + (b >= nb ? 1 : 0),
        std::memory_order_relaxed);
    dest_head[static_cast<std::size_t>(b)].store(kEmptyList, std::memory_order_relaxed);
    dest_state[static_cast<std::size_t>(b)].store(0, std::memory_order_relaxed);
  }
  for (i64 m = 0; m < num_mods; ++m) {
    pending[static_cast<std::size_t>(m)].store(
        tg->mods[static_cast<std::size_t>(m)].src_a ==
                tg->mods[static_cast<std::size_t>(m)].src_b
            ? 1
            : 2,
        std::memory_order_relaxed);
    mod_next[static_cast<std::size_t>(m)].store(kEmptyList, std::memory_order_relaxed);
  }
  // High-water scratch reservation (capped at 32 MiB for safety; a vector
  // that once grew past the cap keeps its capacity, so even outsized blocks
  // allocate at most once over the workspace lifetime).
  const idx update_cap =
      static_cast<idx>(std::min<i64>(max_update_elems, i64{1} << 22));
  if (static_cast<int>(scratch.size()) < num_threads) {
    // Per-worker scratch growth is the other big workspace allocation:
    // charge the new workers' reserved buffers before they materialize.
    const i64 grow = num_threads - static_cast<i64>(scratch.size());
    const i64 scratch_bytes =
        grow * static_cast<i64>(update_cap) * static_cast<i64>(sizeof(double));
    charge.add(scratch_bytes, "factorize");
    footprint_bytes += scratch_bytes;
    scratch.resize(static_cast<std::size_t>(num_threads));
  }
  for (WorkerScratch& s : scratch) {
    s.update.reserve_bytes(static_cast<i64>(update_cap) *
                           static_cast<i64>(sizeof(double)));
  }
}

namespace {

// ---------------------------------------------------------------------------
// Work-stealing executor over block storage of element type T.
//
// Task ids: [0, num_blocks) are completions (BFAC/BDIV of block b);
// num_blocks + d is "drain destination block d" — apply every BMOD currently
// queued on d's ready-mod list straight into d, which the drain flag makes
// single-writer. Priorities are the critical-path heights from
// factor/scheduler.hpp; ready batches are pushed in ascending priority so
// each deque's LIFO end holds its most critical task, and thieves pick
// victims by the deques' priority hints.
// ---------------------------------------------------------------------------
template <typename T>
class WorkStealingExecutor {
 public:
  // `ws` must already be prepared for this run (prepare_run).
  WorkStealingExecutor(const SymSparse& a, const BlockStructure& bs,
                       const TaskGraph& tg, int num_threads,
                       ParallelWorkspace& ws, ParallelProfile* prof,
                       PivotEnv& pivots, const spc::atomic<bool>* cancel,
                       const std::shared_ptr<governor::MemoryBudget>& budget,
                       const governor::Deadline* deadline)
      : a_(a),
        bs_(bs),
        tg_(tg),
        ws_(ws),
        arena_(bs, ws.layout, budget),
        f_(arena_.blocks()),
        threads_(num_threads),
        queues_(num_threads),
        barrier_remaining_(num_threads),
        prof_(prof),
        pivots_(pivots),
        cancel_(cancel),
        deadline_(deadline) {
    if (prof_) {
      prof_->workers.assign(static_cast<std::size_t>(num_threads), {});
      prof_->wall_s = 0;
      prof_->steals = 0;
    }
  }

  BlockFactor run() {
    const auto t0 = Clock::now();
    seed_initial_tasks();
    if (tg_.num_blocks() == 0) queues_.shutdown();  // nothing will ever fire
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(threads_));
    for (int t = 0; t < threads_; ++t) {
      workers.emplace_back([this, t] { worker(t); });
    }
    for (std::thread& w : workers) w.join();
    rethrow_if_failed();
    SPC_CHECK(completed_.load() == tg_.num_blocks(),
              "block_factorize_parallel: not all blocks completed");
    if (prof_) {
      prof_->wall_s = secs_since(t0);
      prof_->steals = queues_.steals();
    }
    return arena_.release();
  }

  const FailureSlot& failure() const { return slot_; }

 private:
  i64 task_priority(i64 task) const {
    return task < tg_.num_blocks()
               ? ws_.prio.completion[static_cast<std::size_t>(task)]
               : ws_.dest_prio[static_cast<std::size_t>(task - tg_.num_blocks())];
  }

  // Pinning worker of a task (completion of block b, or drain of block d),
  // from its block column's affinity owner; kShared (-1) when unpinned.
  int task_owner(i64 task) const {
    const block_id b =
        task < tg_.num_blocks() ? task : task - tg_.num_blocks();
    return ws_.affinity.owner[static_cast<std::size_t>(
        tg_.col_of_block[static_cast<std::size_t>(b)])];
  }

  void seed_initial_tasks() {
    std::vector<i64> ready;
    for (block_id b = 0; b < tg_.num_blocks(); ++b) {
      // relaxed: still single-threaded (runs before the workers spawn).
      if (ws_.deps[static_cast<std::size_t>(b)].load(std::memory_order_relaxed) ==
          0) {
        ready.push_back(b);
      }
    }
    // Deal in ascending priority so every deque (and private stack) ends
    // with its most critical task on top (workers pop LIFO). Safe before the
    // workers spawn. Pinned tasks go straight to their owner's private
    // stack; shared ones are dealt round-robin over the public deques.
    std::sort(ready.begin(), ready.end(), [this](i64 x, i64 y) {
      return task_priority(x) < task_priority(y);
    });
    std::size_t shared = 0;
    for (std::size_t i = 0; i < ready.size(); ++i) {
      const WorkItem item{ready[i], task_priority(ready[i])};
      const int o = task_owner(ready[i]);
      if (o >= 0) {
        queues_.push_private(o, item);
      } else {
        queues_.push(static_cast<int>(shared++) % threads_, item);
      }
    }
  }

  void worker(int id) {
    ParallelProfile::Worker* pw =
        prof_ ? &prof_->workers[static_cast<std::size_t>(id)] : nullptr;
    // Phase 0: first-touch initialization. Each worker zeroes and scatters A
    // into the block columns it is dealt, so a column's arena pages are
    // mapped by a worker that will likely keep updating them. Each worker
    // initializes exactly its own subtrees' columns (the columns it will
    // factor and update); shared columns are dealt round-robin by their
    // ordinal.
    {
      const auto t0 = pw ? Clock::now() : Clock::time_point{};
      try {
        idx shared = 0;
        for (idx j = 0; j < bs_.num_block_cols(); ++j) {
          const int o = ws_.affinity.owner[static_cast<std::size_t>(j)];
          const bool mine =
              o >= 0 ? o == id
                     : static_cast<int>(shared % threads_) == id;
          if (o < 0) ++shared;
          if (mine) init_block_column(a_, bs_, j, f_);
        }
      } catch (...) {
        fail(std::current_exception(), static_cast<i64>(id),
             FailureSlot::Phase::kInit);
      }
      if (pw) pw->init_s += secs_since(t0);
    }
    barrier_arrive();
    // After a failure the loop keeps running: remaining tasks drain as
    // no-ops (run_completion / run_dest skip the numeric work but still
    // perform every counter decrement), so the DAG terminates through the
    // normal completed_ == num_blocks path and the workspace counters are
    // left fully consumed — ready for the next prepare_run.
    ParallelWorkspace::WorkerScratch& s =
        ws_.scratch[static_cast<std::size_t>(id)];
    // Per-worker amortized deadline polling: a clock read only every few
    // tasks when far from expiry, every task inside the near window, so
    // overshoot is bounded by one task's duration.
    governor::DeadlinePoller deadline_poll(deadline_);
    WorkItem item;
    for (;;) {
      // relaxed polls: cancellation is advisory — a worker that misses the
      // flag for one iteration just runs one more task; fail() below does
      // the synchronized first-failure recording.
      if (cancel_ != nullptr &&
          !cancelled_.load(std::memory_order_relaxed) &&
          cancel_->load(std::memory_order_relaxed)) {
        fail(std::make_exception_ptr(
                 Error("factorization cancelled", ErrorKind::kCancelled)),
             -1, FailureSlot::Phase::kCancel);
      }
      // A deadline breach tears down exactly like cancellation: record the
      // failure, then keep draining the DAG as no-ops. (relaxed guard: same
      // advisory pattern as the cancel poll above.)
      if (deadline_ != nullptr &&
          !cancelled_.load(std::memory_order_relaxed)) {
        try {
          deadline_poll.poll("factorize");
        } catch (...) {
          fail(std::current_exception(), -1, FailureSlot::Phase::kCancel);
        }
      }
      const auto ti = pw ? Clock::now() : Clock::time_point{};
      AcquireSource src = AcquireSource::kOwn;
      const bool got = queues_.acquire(id, item, &src);
      if (pw) {
        pw->idle_s += secs_since(ti);
        if (got) {
          if (src == AcquireSource::kPrivate) ++pw->affinity_hits;
          // A stolen task with an owner is a spilled pinned task crossing
          // the frontier — the structural argument says this stays 0.
          if (src == AcquireSource::kSteal && task_owner(item.id) >= 0) {
            ++pw->below_frontier_steals;
          }
        }
      }
      if (!got) break;
      try {
        if (item.id < tg_.num_blocks()) {
          run_completion(id, item.id, pw);
        } else {
          run_dest(id, item.id - tg_.num_blocks(), s, pw);
        }
      } catch (...) {
        // Bookkeeping itself threw (never expected): the drain protocol is
        // broken, so force the queues down to guarantee the join.
        fail(std::current_exception(), item.id, FailureSlot::Phase::kDrain);
        queues_.shutdown();
        return;
      }
    }
  }

  // One-shot barrier between the init phase and the task phase: every block
  // must be scattered before any BFAC can run.
  void barrier_arrive() {
    LockGuard lock(barrier_mutex_);
    --barrier_remaining_;
    if (barrier_remaining_ == 0) {
      barrier_cv_.notify_all();
    } else {
      while (barrier_remaining_ > 0) barrier_cv_.wait(barrier_mutex_);
    }
  }

  void run_completion(int id, block_id b, ParallelProfile::Worker* pw) {
    // The numeric work is fenced off from the release bookkeeping below:
    // whether it succeeds, throws (recorded, cancels the run), or is skipped
    // because the run is already cancelled, every dependent counter is still
    // decremented so the DAG drains to completion.
    if (!cancelled_.load(std::memory_order_acquire)) {
      const auto t0 = pw ? Clock::now() : Clock::time_point{};
      try {
        complete_block(bs_, b, f_, pivots_);
      } catch (...) {
        fail(std::current_exception(), b, FailureSlot::Phase::kCompletion);
      }
      if (pw) {
        if (is_diag_block(bs_, b)) {
          pw->bfac_s += secs_since(t0);
          ++pw->bfacs;
        } else {
          pw->bdiv_s += secs_since(t0);
          ++pw->bdivs;
        }
      }
    }
    // Fire the BMODs this block sources: the last pending-source decrement
    // appends the mod to its destination's ready list, and the first append
    // to an idle destination enqueues that destination's drain task.
    std::vector<i64>& ready = ws_.scratch[static_cast<std::size_t>(id)].ready;
    ready.clear();
    for (i64 k = ws_.src_ptr[static_cast<std::size_t>(b)];
         k < ws_.src_ptr[static_cast<std::size_t>(b) + 1]; ++k) {
      const i64 m = ws_.src_mods[static_cast<std::size_t>(k)];
      if (ws_.pending[static_cast<std::size_t>(m)].fetch_sub(
              1, std::memory_order_acq_rel) == 1) {
        release_mod(m, ready);
      }
    }
    // A factored diagonal block releases its column's BDIVs.
    if (is_diag_block(bs_, b)) {
      const idx col = static_cast<idx>(b);
      for (i64 e = bs_.blkptr[col]; e < bs_.blkptr[col + 1]; ++e) {
        const block_id bd = bs_.num_block_cols() + e;
        if (ws_.deps[static_cast<std::size_t>(bd)].fetch_sub(
                1, std::memory_order_acq_rel) == 1) {
          ready.push_back(bd);
        }
      }
    }
    push_ready(id, ready);
    if (completed_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        tg_.num_blocks()) {
      queues_.shutdown();
    }
  }

  // A mod whose sources are both complete: push it onto the destination's
  // lock-free ready list (atomic head + per-mod next links — no allocation),
  // and enqueue the destination's drain task if nobody holds it. The
  // release/seq_cst pair with run_dest's retire protocol guarantees every
  // pushed mod is drained by exactly one task.
  void release_mod(i64 m, std::vector<i64>& ready) {
    const block_id d = tg_.mods[static_cast<std::size_t>(m)].dest;
    // Treiber push. relaxed head load + relaxed next store are safe because
    // only the release CAS publishes the node: a drainer that acquires the
    // head sees the next link (sequenced before the CAS), and a failed CAS
    // just retries with the refreshed head value.
    i64 old = ws_.dest_head[static_cast<std::size_t>(d)].load(std::memory_order_relaxed);
    do {
      ws_.mod_next[static_cast<std::size_t>(m)].store(old, std::memory_order_relaxed);
    } while (!ws_.dest_head[static_cast<std::size_t>(d)].compare_exchange_weak(
        old, m, std::memory_order_release, std::memory_order_relaxed));
    if (ws_.dest_state[static_cast<std::size_t>(d)].exchange(
            1, std::memory_order_seq_cst) == 0) {
      ready.push_back(tg_.num_blocks() + d);
    }
  }

  // Drain destination block d: grab its entire ready-mod list and apply every
  // mod straight into the block, with no lock. The drain flag (dest_state)
  // keeps at most one drain task per destination in flight, and its seq_cst
  // hand-off orders one drainer's writes before the next one's. Loops until
  // the list stays empty across the state hand-off, so no released mod is
  // stranded.
  void run_dest(int id, block_id d, ParallelWorkspace::WorkerScratch& s,
                ParallelProfile::Worker* pw) {
    T* dest = f_.block(d);
    i64 processed = 0;
    for (;;) {
      i64 chain = ws_.dest_head[static_cast<std::size_t>(d)].exchange(
          kEmptyList, std::memory_order_acquire);
      // The acquire exchange synchronizes with every pusher's release CAS,
      // so the relaxed mod_next loads walking the chain see the links (and
      // the mods see the sources' panels). Every mod is *counted* (the
      // completion gate below must see each released mod exactly once), but
      // *computed* only while the run is live.
      i64 cnt = 0;
      for (i64 m = chain; m != kEmptyList;
           m = ws_.mod_next[static_cast<std::size_t>(m)].load(
               std::memory_order_relaxed)) {
        ++cnt;
        if (cancelled_.load(std::memory_order_acquire)) continue;
        try {
          apply_mod(m, dest, s, pw);
        } catch (...) {
          fail(std::current_exception(), tg_.num_blocks() + d,
               FailureSlot::Phase::kDrain);
        }
      }
      if (cnt > 0) {
        processed += cnt;
        if (pw) {
          ++pw->batches;
          pw->mods += cnt;
        }
      }
      // Retire: release the drain flag, then re-check the list. A releaser
      // that saw our flag set has already pushed its mod; whoever wins the
      // flag next (us below, or its exchange) drains it.
      ws_.dest_state[static_cast<std::size_t>(d)].store(0, std::memory_order_seq_cst);
      if (ws_.dest_head[static_cast<std::size_t>(d)].load(
              std::memory_order_seq_cst) == kEmptyList) {
        break;
      }
      if (ws_.dest_state[static_cast<std::size_t>(d)].exchange(
              1, std::memory_order_seq_cst) != 0) {
        break;  // a releaser reclaimed it and enqueued a fresh drain task
      }
    }
    // Count the batch against the destination's completion gate only after
    // every update landed. The acq_rel RMW chain on deps hands our scatter
    // writes to whichever worker runs the completion.
    if (processed > 0 &&
        ws_.deps[static_cast<std::size_t>(d)].fetch_sub(
            processed, std::memory_order_acq_rel) == processed) {
      std::vector<i64>& ready = ws_.scratch[static_cast<std::size_t>(id)].ready;
      ready.clear();
      ready.push_back(d);
      push_ready(id, ready);
    }
  }

  void apply_mod(i64 m, T* dest, ParallelWorkspace::WorkerScratch& s,
                 ParallelProfile::Worker* pw) {
    const BlockMod& mod = tg_.mods[static_cast<std::size_t>(m)];
    const T* li = f_.block(mod.src_a);
    const T* lj = f_.block(mod.src_b);
    if (pw == nullptr) {
      apply_block_mod_to(bs_, mod, li, lj, dest, s.update, s.rel_rows);
      return;
    }
    const auto t0 = Clock::now();
    double scatter_s = 0;
    apply_block_mod_to(bs_, mod, li, lj, dest, s.update, s.rel_rows, &scatter_s);
    pw->bmod_compute_s += secs_since(t0) - scatter_s;
    pw->scatter_s += scatter_s;
  }

  // Routes a ready batch: tasks pinned to this worker go onto its private
  // stack (thieves never see them — the frontier steal exclusion), shared
  // tasks onto its public deque. A pinned task released by a NON-owner can
  // only reach another worker's work through a public deque — push() is
  // owner-only at runtime, so the task spills to the releaser's own public
  // deque and is counted. Structurally this does not happen (a below-
  // frontier task's sources live in the same subtree, so its releaser is its
  // owner); the spill path keeps the protocol correct even if a pinned task
  // leaks out via a stolen spill.
  void push_ready(int id, std::vector<i64>& buf) {
    if (buf.empty()) return;
    std::sort(buf.begin(), buf.end(), [this](i64 x, i64 y) {
      return task_priority(x) < task_priority(y);
    });
    ParallelProfile::Worker* pw =
        prof_ ? &prof_->workers[static_cast<std::size_t>(id)] : nullptr;
    for (i64 task : buf) {
      const WorkItem item{task, task_priority(task)};
      const int o = task_owner(task);
      if (o == id) {
        queues_.push_private(id, item);
      } else {
        if (pw && o >= 0) ++pw->affinity_spills;
        queues_.push(id, item);
      }
    }
    buf.clear();
  }

  // Records the failure (first one wins, later ones are only counted) and
  // flips the run into drain mode. Deliberately does NOT shut the queues
  // down: the outstanding tasks drain as no-ops through the normal
  // completion protocol, which is what leaves the workspace reusable.
  void fail(std::exception_ptr e, i64 task, FailureSlot::Phase phase) {
    slot_.record(std::move(e), task, phase);
    cancelled_.store(true, std::memory_order_release);
  }

  // Called after the workers joined; the join established the happens-before
  // for the slot payload.
  void rethrow_if_failed() {
    if (std::exception_ptr e = slot_.first()) std::rethrow_exception(e);
  }

  const SymSparse& a_;
  const BlockStructure& bs_;
  const TaskGraph& tg_;
  ParallelWorkspace& ws_;
  FactorArena<T> arena_;
  const BlockArena<T>& f_;
  int threads_;
  WorkStealingQueues queues_;
  Mutex barrier_mutex_;
  CondVar barrier_cv_;
  int barrier_remaining_ SPC_GUARDED_BY(barrier_mutex_);
  ParallelProfile* prof_;
  PivotEnv& pivots_;
  const spc::atomic<bool>* cancel_;
  const governor::Deadline* deadline_;
  FailureSlot slot_;
  spc::atomic<bool> cancelled_{false};
  spc::atomic<i64> completed_{0};
};

}  // namespace

template <typename T>
BlockFactor block_factorize_parallel(const SymSparse& a, const BlockStructure& bs,
                                     const TaskGraph& tg,
                                     const ParallelFactorOptions& opt,
                                     ParallelWorkspace* ws) {
  int threads = opt.num_threads;
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 1;
  }
  if (opt.info != nullptr) opt.info->reset();
  // The executor runs pivots in deferred (continue) mode: a strict-policy
  // breakdown boosts the failing pivot, records the minimal failing column,
  // and lets the DAG finish, so the reported column matches the sequential
  // engines regardless of task interleaving. A task failure (injected fault,
  // allocation failure, cancellation) takes precedence over the deferred
  // breakdown — it is rethrown from inside run().
  FactorizeOptions fopt;
  fopt.pivot_policy = opt.pivot_policy;
  fopt.pivot_delta = opt.pivot_delta;
  PivotEnv pivots(bs, make_pivot_control(a, fopt), /*deferred=*/true);
  std::unique_ptr<ParallelWorkspace> local;
  if (ws == nullptr) {
    local = std::make_unique<ParallelWorkspace>(bs, tg);
    ws = local.get();
  }
  SPC_CHECK(ws->bs == &bs && ws->tg == &tg,
            "block_factorize_parallel: workspace built for another plan");
  ws->prepare_run(threads, opt.budget);
  WorkStealingExecutor<T> exec(a, bs, tg, threads, *ws, opt.profile, pivots,
                               opt.cancel, opt.budget, opt.deadline);
  BlockFactor f;
  try {
    f = exec.run();
  } catch (...) {
    pivots.export_info(opt.info);
    throw;
  }
  pivots.export_info(opt.info);
  if (pivots.has_breakdown()) pivots.throw_breakdown();
  if (opt.info != nullptr) opt.info->fp32 = std::is_same_v<T, float>;
  return f;
}

template BlockFactor block_factorize_parallel<double>(
    const SymSparse&, const BlockStructure&, const TaskGraph&,
    const ParallelFactorOptions&, ParallelWorkspace*);
template BlockFactor block_factorize_parallel<float>(
    const SymSparse&, const BlockStructure&, const TaskGraph&,
    const ParallelFactorOptions&, ParallelWorkspace*);

i64 estimate_parallel_factor_bytes(const BlockStructure& bs, const TaskGraph& tg,
                                   int num_threads) {
  int threads = num_threads;
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 1;
  }
  const BlockArenaLayout layout = compute_block_arena_layout(bs);
  const i64 num_blocks = tg.num_blocks();
  const i64 num_mods = static_cast<i64>(tg.mods.size());
  // Mirror of ParallelWorkspace's governed accounting (constructor +
  // prepare_run): the static per-plan arrays, the per-run counters, and the
  // reserved per-worker scratch. The peak-accounting test pins this mirror
  // against the budget's measured peak.
  i64 src_entries = 0;
  i64 max_update = 0;
  for (const BlockMod& m : tg.mods) {
    src_entries += m.src_a == m.src_b ? 1 : 2;
    max_update = std::max(
        max_update,
        static_cast<i64>(tg.rows_of_block[static_cast<std::size_t>(m.src_a)]) *
            tg.rows_of_block[static_cast<std::size_t>(m.src_b)]);
  }
  const i64 update_cap = std::min<i64>(max_update, i64{1} << 22);
  i64 bytes = layout.total * static_cast<i64>(sizeof(double));  // factor arena
  bytes += static_cast<i64>(layout.diag_off.size() + layout.entry_off.size() +
                            // completion + mod priorities, dest_prio, src CSR
                            num_blocks + num_mods + num_blocks +
                            (num_blocks + 1) + src_entries) *
           static_cast<i64>(sizeof(i64));
  bytes += num_blocks * static_cast<i64>(2 * sizeof(spc::atomic<i64>) +
                                         2 * sizeof(spc::atomic<int>)) +
           num_mods * static_cast<i64>(sizeof(spc::atomic<i64>) +
                                       sizeof(spc::atomic<int>));
  bytes += static_cast<i64>(threads) * update_cap * static_cast<i64>(sizeof(double));
  return bytes;
}

}  // namespace spc
