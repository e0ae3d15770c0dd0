#include "factor/parallel_solve.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <thread>

#include "factor/parallel_factor.hpp"  // FailureSlot
#include "linalg/kernels.hpp"
#include "support/error.hpp"
#include "support/fault.hpp"
#include "support/sync.hpp"
#include "support/work_queue.hpp"

namespace spc {
namespace {

using Clock = std::chrono::steady_clock;

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Per-RHS-column flop cost of one column task, the unit of the critical-path
// priorities: the diagonal TRSM plus this task's entry GEMMs. Forward and
// backward tasks of a column do the same arithmetic, just against different
// entry sets (own column vs own block row).
i64 trsm_cost(idx w) { return static_cast<i64>(w) * w; }
i64 gemm_cost(idx cnt, idx w) { return 2 * static_cast<i64>(cnt) * w; }

}  // namespace

SolveProfile::Worker SolveProfile::total() const {
  Worker t;
  for (const Worker& w : workers) {
    t.forward_s += w.forward_s;
    t.backward_s += w.backward_s;
    t.scatter_s += w.scatter_s;
    t.idle_s += w.idle_s;
    t.cols += w.cols;
    t.updates += w.updates;
  }
  return t;
}

SolveWorkspace::SolveWorkspace(const BlockStructure& bs_in) : bs(&bs_in) {
  const idx nb = bs_in.num_block_cols();
  const i64 ne = bs_in.num_entries();

  // Entries grouped by block row (counting sort over blkrow).
  row_ptr.assign(static_cast<std::size_t>(nb) + 1, 0);
  col_of_entry.assign(static_cast<std::size_t>(ne), 0);
  for (idx k = 0; k < nb; ++k) {
    for (i64 e = bs_in.blkptr[k]; e < bs_in.blkptr[k + 1]; ++e) {
      col_of_entry[static_cast<std::size_t>(e)] = k;
      ++row_ptr[static_cast<std::size_t>(bs_in.blkrow[e]) + 1];
    }
  }
  for (idx k = 0; k < nb; ++k) {
    row_ptr[static_cast<std::size_t>(k) + 1] += row_ptr[static_cast<std::size_t>(k)];
  }
  row_entries.resize(static_cast<std::size_t>(ne));
  {
    std::vector<i64> cursor(row_ptr.begin(), row_ptr.end() - 1);
    for (i64 e = 0; e < ne; ++e) {
      const idx i = bs_in.blkrow[e];
      row_entries[static_cast<std::size_t>(cursor[static_cast<std::size_t>(i)]++)] = e;
    }
  }

  fwd_prio.assign(static_cast<std::size_t>(nb), 0);
  bwd_prio.assign(static_cast<std::size_t>(nb), 0);
  fwd_level.assign(static_cast<std::size_t>(nb), 0);
  bwd_level.assign(static_cast<std::size_t>(nb), 0);

  // Forward critical path: column J's edges point at blkrow[e] > J, so a
  // descending pass sees every successor's height first. A column's cost is
  // its TRSM plus its own entry GEMMs.
  for (idx j = nb - 1; j >= 0; --j) {
    i64 cost = trsm_cost(bs_in.part.width(j));
    i64 succ = 0;
    for (i64 e = bs_in.blkptr[j]; e < bs_in.blkptr[j + 1]; ++e) {
      cost += gemm_cost(bs_in.blkcnt[e], bs_in.part.width(j));
      succ = std::max(succ, fwd_prio[static_cast<std::size_t>(bs_in.blkrow[e])]);
      max_entry_rows = std::max<i64>(max_entry_rows, bs_in.blkcnt[e]);
    }
    fwd_prio[static_cast<std::size_t>(j)] = cost + succ;
  }
  // Forward level sets (DAG depth), ascending: a column is one deeper than
  // its deepest in-edge source.
  for (idx j = 0; j < nb; ++j) {
    idx lvl = 0;
    for (i64 t = row_ptr[static_cast<std::size_t>(j)];
         t < row_ptr[static_cast<std::size_t>(j) + 1]; ++t) {
      const idx src = col_of_entry[static_cast<std::size_t>(row_entries[static_cast<std::size_t>(t)])];
      lvl = std::max(lvl, fwd_level[static_cast<std::size_t>(src)] + 1);
    }
    fwd_level[static_cast<std::size_t>(j)] = lvl;
    fwd_levels = std::max(fwd_levels, lvl + 1);
  }

  // Backward critical path: task I's edges point at the owning columns of
  // its block-row entries (all < I), so an ascending pass works. Task I's
  // GEMMs are those entries (L_e^T panels of width w_K).
  for (idx i = 0; i < nb; ++i) {
    i64 cost = trsm_cost(bs_in.part.width(i));
    i64 succ = 0;
    for (i64 t = row_ptr[static_cast<std::size_t>(i)];
         t < row_ptr[static_cast<std::size_t>(i) + 1]; ++t) {
      const i64 e = row_entries[static_cast<std::size_t>(t)];
      const idx src = col_of_entry[static_cast<std::size_t>(e)];
      cost += gemm_cost(bs_in.blkcnt[e], bs_in.part.width(src));
      succ = std::max(succ, bwd_prio[static_cast<std::size_t>(src)]);
    }
    bwd_prio[static_cast<std::size_t>(i)] = cost + succ;
  }
  // Backward level sets, descending: column K waits on blkrow[e] > K for
  // each of its own entries.
  for (idx k = nb - 1; k >= 0; --k) {
    idx lvl = 0;
    for (i64 e = bs_in.blkptr[k]; e < bs_in.blkptr[k + 1]; ++e) {
      lvl = std::max(lvl, bwd_level[static_cast<std::size_t>(bs_in.blkrow[e])] + 1);
    }
    bwd_level[static_cast<std::size_t>(k)] = lvl;
    bwd_levels = std::max(bwd_levels, lvl + 1);
  }
  if (nb == 0) fwd_levels = bwd_levels = 0;
}

void SolveWorkspace::bind_budget(
    const std::shared_ptr<governor::MemoryBudget>& budget) {
  if (budget == charge.budget()) return;
  // Budget change: re-charge what the workspace already holds so a cached
  // workspace handed to a governed facade is metered from the first run.
  charge.rebind(budget);
  i64 held = scratch_bytes();
  if (deps) {
    held += static_cast<i64>(bs->num_block_cols()) *
            static_cast<i64>(sizeof(spc::atomic<i64>));
  }
  charge.add(held, "solve");
}

void SolveWorkspace::stage_rhs(
    i64 elems, const std::shared_ptr<governor::MemoryBudget>& budget) {
  bind_budget(budget);
  if (static_cast<i64>(rhs.size()) >= elems) return;
  const i64 grow_bytes =
      (elems - static_cast<i64>(rhs.size())) * static_cast<i64>(sizeof(double));
  SPC_FAULT_POINT(fault::Site::kAlloc, elems, "solve RHS staging allocation");
  charge.add(grow_bytes, "solve");
  rhs.resize(static_cast<std::size_t>(elems));
}

void SolveWorkspace::prepare_run(
    int num_threads, idx nrhs,
    const std::shared_ptr<governor::MemoryBudget>& budget) {
  bind_budget(budget);
  const idx nb = bs->num_block_cols();
  const idx n = bs->part.num_cols();

  // Governed growth: everything this call may allocate — the dependency
  // counters, new workers' scratch, and per-worker accumulator/update-panel
  // growth — is summed and charged before any allocation happens. The alloc
  // fault site covers the growth path, so tests can prove the workspace
  // stays reusable after an injected workspace-allocation failure.
  {
    const i64 accum_elems = static_cast<i64>(n) * nrhs;
    const i64 new_update_res =
        std::max(update_reserved, max_entry_rows * nrhs);
    i64 grow_bytes = 0;
    if (!deps) {
      grow_bytes +=
          static_cast<i64>(nb) * static_cast<i64>(sizeof(spc::atomic<i64>));
    }
    for (const WorkerScratch& s : scratch) {
      if (static_cast<i64>(s.accum.size()) < accum_elems) {
        grow_bytes += (accum_elems - static_cast<i64>(s.accum.size())) *
                      static_cast<i64>(sizeof(double));
      }
      grow_bytes +=
          (new_update_res - update_reserved) * static_cast<i64>(sizeof(double));
      if (static_cast<i64>(s.ready.capacity()) < nb) {
        grow_bytes += (nb - static_cast<i64>(s.ready.capacity())) *
                      static_cast<i64>(sizeof(i64));
      }
    }
    if (static_cast<int>(scratch.size()) < num_threads) {
      grow_bytes += (num_threads - static_cast<i64>(scratch.size())) *
                    ((accum_elems + new_update_res) *
                         static_cast<i64>(sizeof(double)) +
                     static_cast<i64>(nb) * static_cast<i64>(sizeof(i64)));
    }
    if (grow_bytes > 0) {
      SPC_FAULT_POINT(fault::Site::kAlloc, grow_bytes,
                      "solve workspace allocation");
      charge.add(grow_bytes, "solve");
    }
  }
  if (!deps) {
    deps = std::make_unique<spc::atomic<i64>[]>(static_cast<std::size_t>(nb));
  }
  // Forward in-degrees; the executor re-initializes for the backward sweep
  // at the inter-sweep barrier. relaxed: prepare_run executes before the
  // workers spawn, and thread creation publishes the stores.
  for (idx j = 0; j < nb; ++j) {
    deps[static_cast<std::size_t>(j)].store(
        row_ptr[static_cast<std::size_t>(j) + 1] - row_ptr[static_cast<std::size_t>(j)],
        std::memory_order_relaxed);
  }
  if (static_cast<int>(scratch.size()) < num_threads) {
    scratch.resize(static_cast<std::size_t>(num_threads));
  }
  const std::size_t accum_elems =
      static_cast<std::size_t>(n) * static_cast<std::size_t>(nrhs);
  update_reserved = std::max(update_reserved, max_entry_rows * nrhs);
  for (WorkerScratch& s : scratch) {
    if (accum_dirty) std::fill(s.accum.begin(), s.accum.end(), 0.0);
    if (s.accum.size() < accum_elems) s.accum.resize(accum_elems, 0.0);
    s.update.reserve(std::max<i64>(max_entry_rows, 1), nrhs);
    // One task can release at most nb dependents; reserving up front keeps
    // the executor allocation-free (and scratch_bytes() deterministic).
    s.ready.reserve(static_cast<std::size_t>(nb));
  }
  accum_dirty = false;
}

void SolveWorkspace::prepare_serial(
    idx nrhs, const std::shared_ptr<governor::MemoryBudget>& budget) {
  bind_budget(budget);
  const i64 workers = std::max<i64>(static_cast<i64>(scratch.size()), 1);
  const i64 new_update_res = std::max(update_reserved, max_entry_rows * nrhs);
  const i64 grow_bytes =
      (new_update_res * workers -
       update_reserved * static_cast<i64>(scratch.size())) *
      static_cast<i64>(sizeof(double));
  if (grow_bytes > 0) {
    SPC_FAULT_POINT(fault::Site::kAlloc, grow_bytes,
                    "solve workspace allocation");
    charge.add(grow_bytes, "solve");
  }
  if (scratch.empty()) scratch.resize(1);
  update_reserved = new_update_res;
  scratch[0].update.reserve(std::max<i64>(max_entry_rows, 1), nrhs);
}

i64 SolveWorkspace::scratch_bytes() const {
  i64 bytes = static_cast<i64>(rhs.capacity()) * static_cast<i64>(sizeof(double));
  for (const WorkerScratch& s : scratch) {
    bytes += static_cast<i64>(s.accum.capacity()) * static_cast<i64>(sizeof(double));
    bytes += static_cast<i64>(s.ready.capacity()) * static_cast<i64>(sizeof(i64));
    bytes += update_reserved * static_cast<i64>(sizeof(double));
  }
  return bytes;
}

namespace {

// ---------------------------------------------------------------------------
// Serial panel path (threads == 1): both sweeps column by column in block
// order, with the executor's cancellation check, deadline poll and
// fault-injection sites per column. Each block op is one level-3 kernel call
// on the whole panel (trsm_left_* on the diagonal block, gemm_nn / gemm_tn on
// each off-diagonal entry), so the factor is walked once per panel.
// ---------------------------------------------------------------------------
void check_cancel(const spc::atomic<bool>* cancel) {
  // relaxed: cancellation is advisory — a stale read costs one extra column.
  if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
    throw Error("solve cancelled", ErrorKind::kCancelled);
  }
}

void run_serial_panel(const BlockFactor& f, double* x, idx nrhs,
                      const SolveOptions& opt, SolveWorkspace& ws,
                      SolveProfile* prof) {
  const BlockStructure& bs = *f.structure;
  const idx nb = bs.num_block_cols();
  const idx n = bs.part.num_cols();
  ws.prepare_serial(nrhs, opt.budget);
  DenseMatrix& scratch = ws.scratch[0].update;
  SolveProfile::Worker* pw = nullptr;
  if (prof != nullptr) {
    prof->workers.assign(1, {});
    prof->steals = 0;
    prof->nrhs = static_cast<int>(nrhs);
    pw = &prof->workers[0];
  }
  const auto t0 = Clock::now();
  for (idx k = 0; k < nb; ++k) {
    check_cancel(opt.cancel);
    // Per-column deadline check: one clock read per block column.
    governor::Deadline::check(opt.deadline, "solve");
    SPC_FAULT_POINT(fault::Site::kKernel, k, "solve forward column");
    const idx first = bs.part.first_col[k];
    const idx w = bs.part.width(k);
    trsm_left_lower(w, nrhs, f.diag[static_cast<std::size_t>(k)].data(), w,
                    x + first, n);
    for (i64 e = bs.blkptr[k]; e < bs.blkptr[k + 1]; ++e) {
      const DenseMatrix& l = f.offdiag[static_cast<std::size_t>(e)];
      const idx cnt = l.rows();
      scratch.resize_for_overwrite(cnt, nrhs);
      gemm_nn_neg_raw(cnt, nrhs, w, l.data(), cnt, x + first, n,
                      scratch.data(), cnt);
      const idx* rows = bs.entry_rows_begin(e);
      for (idx c = 0; c < nrhs; ++c) {
        double* xc = x + static_cast<std::size_t>(c) * n;
        const double* u = scratch.col(c);
        for (idx r = 0; r < cnt; ++r) xc[rows[r]] += u[r];
      }
      if (pw) ++pw->updates;
    }
    if (pw) ++pw->cols;
  }
  if (pw) pw->forward_s = secs_since(t0);
  const auto t1 = Clock::now();
  for (idx k = nb - 1; k >= 0; --k) {
    check_cancel(opt.cancel);
    governor::Deadline::check(opt.deadline, "solve");
    SPC_FAULT_POINT(fault::Site::kKernel, nb + k, "solve backward column");
    const idx first = bs.part.first_col[k];
    const idx w = bs.part.width(k);
    for (i64 e = bs.blkptr[k]; e < bs.blkptr[k + 1]; ++e) {
      const DenseMatrix& l = f.offdiag[static_cast<std::size_t>(e)];
      const idx cnt = l.rows();
      const idx* rows = bs.entry_rows_begin(e);
      scratch.resize_for_overwrite(cnt, nrhs);
      for (idx c = 0; c < nrhs; ++c) {
        const double* xc = x + static_cast<std::size_t>(c) * n;
        double* g = scratch.col(c);
        for (idx r = 0; r < cnt; ++r) g[r] = xc[rows[r]];
      }
      gemm_tn_minus_raw(w, nrhs, cnt, l.data(), cnt, scratch.data(), cnt,
                        x + first, n);
      if (pw) ++pw->updates;
    }
    trsm_left_ltrans(w, nrhs, f.diag[static_cast<std::size_t>(k)].data(), w,
                     x + first, n);
    if (pw) ++pw->cols;
  }
  if (pw) pw->backward_s = secs_since(t1);
  if (prof != nullptr) prof->wall_s = secs_since(t0);
}

// ---------------------------------------------------------------------------
// DAG executor (threads >= 2). Two work-stealing queue sets, one per sweep
// (shutdown() is terminal, so the sweeps cannot share one); the sweeps are
// separated by a reusable counting barrier, at which worker 0 re-initializes
// the dependency counters and seeds the backward leaves.
//
// Push model with aggregated scatters: a forward column task TRSMs its own
// RHS rows, GEMMs each of its entries into per-worker scratch, and
// scatter-adds the result into ITS OWN accumulation panel — never into the
// shared RHS. The destination column, when it becomes ready, gathers the
// accumulated rows from every worker's panel into the RHS (and re-zeroes
// them, keeping the panels clean for the next run). Visibility rides the
// acq_rel RMW chain on the dependency counters, exactly like the
// factorization executor. The backward sweep is the mirror image: task I
// gathers its entries' RHS rows, applies L_e^T, and accumulates into the
// owning columns' row ranges.
//
// Failure semantics are parallel_factor.cpp's: first failure flips
// cancelled_, numerics are skipped but every counter decrement still runs,
// both sweeps drain, workers join, the first failure is rethrown.
// ---------------------------------------------------------------------------
class SolveExecutor {
 public:
  SolveExecutor(const BlockFactor& f, double* x, idx nrhs, int threads,
                SolveWorkspace& ws, SolveProfile* prof,
                const spc::atomic<bool>* cancel,
                const std::shared_ptr<governor::MemoryBudget>& budget,
                const governor::Deadline* deadline)
      : f_(f),
        bs_(*f.structure),
        ws_(ws),
        x_(x),
        n_(bs_.part.num_cols()),
        nb_(bs_.num_block_cols()),
        nrhs_(nrhs),
        threads_(threads),
        fwd_queues_(threads),
        bwd_queues_(threads),
        barrier_remaining_(threads),
        prof_(prof),
        cancel_(cancel),
        deadline_(deadline) {
    ws_.prepare_run(threads, nrhs, budget);
    if (prof_ != nullptr) {
      prof_->workers.assign(static_cast<std::size_t>(threads), {});
      prof_->nrhs = static_cast<int>(nrhs);
    }
  }

  void run() {
    const auto t0 = Clock::now();
    // Until the run completes cleanly, the accumulators must be treated as
    // dirty (a failure can strand partial sums in them).
    ws_.accum_dirty = true;
    if (nb_ == 0) {
      fwd_queues_.shutdown();
      bwd_queues_.shutdown();
    } else {
      seed_forward();
    }
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(threads_));
    for (int t = 0; t < threads_; ++t) {
      workers.emplace_back([this, t] { worker(t); });
    }
    for (std::thread& t : workers) t.join();
    if (!slot_.failed()) ws_.accum_dirty = false;
    if (std::exception_ptr e = slot_.first()) std::rethrow_exception(e);
    SPC_CHECK(nb_ == 0 || bwd_completed_.load(std::memory_order_acquire) == nb_,
              "block_solve_panel: executor finished with columns pending");
    if (prof_ != nullptr) {
      prof_->wall_s = secs_since(t0);
      prof_->steals = fwd_queues_.steals() + bwd_queues_.steals();
    }
  }

 private:
  void seed_forward() {
    std::vector<i64> ready;
    for (idx j = 0; j < nb_; ++j) {
      // relaxed: still single-threaded (runs before the workers spawn).
      if (ws_.deps[static_cast<std::size_t>(j)].load(std::memory_order_relaxed) == 0) {
        ready.push_back(j);
      }
    }
    // Ascending priority so every deque ends with its most critical task on
    // top (LIFO pop). Safe before the workers spawn.
    std::sort(ready.begin(), ready.end(), [this](i64 a, i64 b) {
      return ws_.fwd_prio[static_cast<std::size_t>(a)] <
             ws_.fwd_prio[static_cast<std::size_t>(b)];
    });
    for (std::size_t i = 0; i < ready.size(); ++i) {
      fwd_queues_.push(static_cast<int>(i) % threads_,
                       WorkItem{ready[i], ws_.fwd_prio[static_cast<std::size_t>(ready[i])]});
    }
  }

  void worker(int id) {
    SolveProfile::Worker* pw =
        prof_ ? &prof_->workers[static_cast<std::size_t>(id)] : nullptr;
    SolveWorkspace::WorkerScratch& s = ws_.scratch[static_cast<std::size_t>(id)];
    run_sweep(id, /*forward=*/true, s, pw);
    barrier_arrive();
    if (id == 0 && nb_ > 0) {
      // Re-arm the counters with the backward in-degrees and seed its
      // leaves. Every other worker is parked at the barrier below, so
      // dealing onto their deques is as safe as pre-spawn seeding, and the
      // barrier handoff publishes the stores.
      std::vector<i64> ready;
      for (idx k = 0; k < nb_; ++k) {
        const i64 d = bs_.blkptr[k + 1] - bs_.blkptr[k];
        ws_.deps[static_cast<std::size_t>(k)].store(d, std::memory_order_relaxed);
        if (d == 0) ready.push_back(k);
      }
      std::sort(ready.begin(), ready.end(), [this](i64 a, i64 b) {
        return ws_.bwd_prio[static_cast<std::size_t>(a)] <
               ws_.bwd_prio[static_cast<std::size_t>(b)];
      });
      for (std::size_t i = 0; i < ready.size(); ++i) {
        bwd_queues_.push(static_cast<int>(i) % threads_,
                         WorkItem{ready[i], ws_.bwd_prio[static_cast<std::size_t>(ready[i])]});
      }
    }
    barrier_arrive();
    run_sweep(id, /*forward=*/false, s, pw);
  }

  // Reusable counting barrier (two arrivals per worker per run).
  void barrier_arrive() {
    LockGuard lock(barrier_mutex_);
    if (--barrier_remaining_ == 0) {
      barrier_remaining_ = threads_;
      ++barrier_generation_;
      barrier_cv_.notify_all();
    } else {
      const i64 gen = barrier_generation_;
      while (barrier_generation_ == gen) barrier_cv_.wait(barrier_mutex_);
    }
  }

  void run_sweep(int id, bool forward, SolveWorkspace::WorkerScratch& s,
                 SolveProfile::Worker* pw) {
    WorkStealingQueues& q = forward ? fwd_queues_ : bwd_queues_;
    // Per-worker amortized deadline polling (same bound as the factor
    // executor: one task's duration of overshoot near expiry).
    governor::DeadlinePoller deadline_poll(deadline_);
    WorkItem item;
    for (;;) {
      // relaxed polls: advisory cancellation — a missed flag runs at most
      // one more column; fail() does the synchronized recording.
      if (cancel_ != nullptr && !cancelled_.load(std::memory_order_relaxed) &&
          cancel_->load(std::memory_order_relaxed)) {
        fail(std::make_exception_ptr(
                 Error("solve cancelled", ErrorKind::kCancelled)),
             -1, FailureSlot::Phase::kCancel);
      }
      // Deadline breach = cancellation with a typed error; the DAG drains
      // as no-ops. (relaxed guard: advisory, same as the cancel poll.)
      if (deadline_ != nullptr &&
          !cancelled_.load(std::memory_order_relaxed)) {
        try {
          deadline_poll.poll("solve");
        } catch (...) {
          fail(std::current_exception(), -1, FailureSlot::Phase::kCancel);
        }
      }
      const auto ti = pw ? Clock::now() : Clock::time_point{};
      const bool got = q.acquire(id, item);
      if (pw) pw->idle_s += secs_since(ti);
      if (!got) return;
      try {
        if (forward) {
          run_forward_column(id, static_cast<idx>(item.id), s, pw);
        } else {
          run_backward_column(id, static_cast<idx>(item.id), s, pw);
        }
      } catch (...) {
        // Bookkeeping itself threw (never expected): the drain protocol is
        // broken, so force this sweep's queues down to guarantee the join.
        // The other sweep still drains through its own freshly armed
        // counters (numerics skipped via cancelled_).
        fail(std::current_exception(), item.id, FailureSlot::Phase::kDrain);
        q.shutdown();
        return;
      }
    }
  }

  // x rows [first, first+w) += every worker's accumulated rows; the read
  // rows are re-zeroed so the panels are clean for the next run.
  void gather_accum(idx first, idx w) {
    for (int t = 0; t < threads_; ++t) {
      std::vector<double>& acc = ws_.scratch[static_cast<std::size_t>(t)].accum;
      for (idx c = 0; c < nrhs_; ++c) {
        double* ac = acc.data() + static_cast<std::size_t>(c) * n_ + first;
        double* xc = x_ + static_cast<std::size_t>(c) * n_ + first;
        for (idx r = 0; r < w; ++r) {
          xc[r] += ac[r];
          ac[r] = 0.0;
        }
      }
    }
  }

  void run_forward_column(int id, idx j, SolveWorkspace::WorkerScratch& s,
                          SolveProfile::Worker* pw) {
    const idx first = bs_.part.first_col[j];
    const idx w = bs_.part.width(j);
    if (!cancelled_.load(std::memory_order_acquire)) {
      try {
        SPC_FAULT_POINT(fault::Site::kKernel, j, "solve forward column");
        if (ws_.row_ptr[static_cast<std::size_t>(j) + 1] >
            ws_.row_ptr[static_cast<std::size_t>(j)]) {
          const auto tg = pw ? Clock::now() : Clock::time_point{};
          gather_accum(first, w);
          if (pw) pw->scatter_s += secs_since(tg);
        }
        const auto t0 = pw ? Clock::now() : Clock::time_point{};
        trsm_left_lower(w, nrhs_, f_.diag[static_cast<std::size_t>(j)].data(), w,
                        x_ + first, n_);
        for (i64 e = bs_.blkptr[j]; e < bs_.blkptr[j + 1]; ++e) {
          const DenseMatrix& l = f_.offdiag[static_cast<std::size_t>(e)];
          const idx cnt = l.rows();
          s.update.resize_for_overwrite(cnt, nrhs_);
          gemm_nn_neg_raw(cnt, nrhs_, w, l.data(), cnt, x_ + first, n_,
                          s.update.data(), cnt);
          const idx* rows = bs_.entry_rows_begin(e);
          for (idx c = 0; c < nrhs_; ++c) {
            double* ac = s.accum.data() + static_cast<std::size_t>(c) * n_;
            const double* u = s.update.col(c);
            for (idx r = 0; r < cnt; ++r) ac[rows[r]] += u[r];
          }
          if (pw) ++pw->updates;
        }
        if (pw) pw->forward_s += secs_since(t0);
      } catch (...) {
        fail(std::current_exception(), j, FailureSlot::Phase::kCompletion);
      }
    }
    if (pw) ++pw->cols;
    // Release dependents — unconditionally, so the DAG drains after a
    // failure too.
    std::vector<i64>& ready = s.ready;
    ready.clear();
    for (i64 e = bs_.blkptr[j]; e < bs_.blkptr[j + 1]; ++e) {
      const idx dest = bs_.blkrow[e];
      if (ws_.deps[static_cast<std::size_t>(dest)].fetch_sub(
              1, std::memory_order_acq_rel) == 1) {
        ready.push_back(dest);
      }
    }
    push_ready(id, ready, ws_.fwd_prio, fwd_queues_);
    if (fwd_completed_.fetch_add(1, std::memory_order_acq_rel) + 1 == nb_) {
      fwd_queues_.shutdown();
    }
  }

  void run_backward_column(int id, idx i, SolveWorkspace::WorkerScratch& s,
                           SolveProfile::Worker* pw) {
    const idx first = bs_.part.first_col[i];
    const idx w = bs_.part.width(i);
    if (!cancelled_.load(std::memory_order_acquire)) {
      try {
        SPC_FAULT_POINT(fault::Site::kKernel, nb_ + i, "solve backward column");
        if (bs_.blkptr[i + 1] > bs_.blkptr[i]) {
          const auto tg = pw ? Clock::now() : Clock::time_point{};
          gather_accum(first, w);
          if (pw) pw->scatter_s += secs_since(tg);
        }
        const auto t0 = pw ? Clock::now() : Clock::time_point{};
        trsm_left_ltrans(w, nrhs_, f_.diag[static_cast<std::size_t>(i)].data(),
                         w, x_ + first, n_);
        for (i64 t = ws_.row_ptr[static_cast<std::size_t>(i)];
             t < ws_.row_ptr[static_cast<std::size_t>(i) + 1]; ++t) {
          const i64 e = ws_.row_entries[static_cast<std::size_t>(t)];
          const idx src = ws_.col_of_entry[static_cast<std::size_t>(e)];
          const DenseMatrix& l = f_.offdiag[static_cast<std::size_t>(e)];
          const idx cnt = l.rows();
          const idx* rows = bs_.entry_rows_begin(e);
          s.update.resize_for_overwrite(cnt, nrhs_);
          for (idx c = 0; c < nrhs_; ++c) {
            const double* xc = x_ + static_cast<std::size_t>(c) * n_;
            double* g = s.update.col(c);
            for (idx r = 0; r < cnt; ++r) g[r] = xc[rows[r]];
          }
          // accum rows of the owning column -= L_e^T * gathered rows.
          gemm_tn_minus_raw(bs_.part.width(src), nrhs_, cnt, l.data(), cnt,
                            s.update.data(), cnt,
                            s.accum.data() + bs_.part.first_col[src], n_);
          if (pw) ++pw->updates;
        }
        if (pw) pw->backward_s += secs_since(t0);
      } catch (...) {
        fail(std::current_exception(), nb_ + i, FailureSlot::Phase::kCompletion);
      }
    }
    if (pw) ++pw->cols;
    std::vector<i64>& ready = s.ready;
    ready.clear();
    for (i64 t = ws_.row_ptr[static_cast<std::size_t>(i)];
         t < ws_.row_ptr[static_cast<std::size_t>(i) + 1]; ++t) {
      const idx src = ws_.col_of_entry[static_cast<std::size_t>(
          ws_.row_entries[static_cast<std::size_t>(t)])];
      if (ws_.deps[static_cast<std::size_t>(src)].fetch_sub(
              1, std::memory_order_acq_rel) == 1) {
        ready.push_back(src);
      }
    }
    push_ready(id, ready, ws_.bwd_prio, bwd_queues_);
    if (bwd_completed_.fetch_add(1, std::memory_order_acq_rel) + 1 == nb_) {
      bwd_queues_.shutdown();
    }
  }

  void push_ready(int id, std::vector<i64>& buf, const std::vector<i64>& prio,
                  WorkStealingQueues& q) {
    if (buf.empty()) return;
    std::sort(buf.begin(), buf.end(), [&prio](i64 a, i64 b) {
      return prio[static_cast<std::size_t>(a)] < prio[static_cast<std::size_t>(b)];
    });
    for (i64 task : buf) {
      q.push(id, WorkItem{task, prio[static_cast<std::size_t>(task)]});
    }
    buf.clear();
  }

  void fail(std::exception_ptr e, i64 task, FailureSlot::Phase phase) {
    slot_.record(std::move(e), task, phase);
    cancelled_.store(true, std::memory_order_release);
  }

  const BlockFactor& f_;
  const BlockStructure& bs_;
  SolveWorkspace& ws_;
  double* x_;
  idx n_;
  idx nb_;
  idx nrhs_;
  int threads_;
  WorkStealingQueues fwd_queues_;
  WorkStealingQueues bwd_queues_;
  Mutex barrier_mutex_;
  CondVar barrier_cv_;
  int barrier_remaining_ SPC_GUARDED_BY(barrier_mutex_);
  i64 barrier_generation_ SPC_GUARDED_BY(barrier_mutex_) = 0;
  SolveProfile* prof_;
  const spc::atomic<bool>* cancel_;
  const governor::Deadline* deadline_;
  FailureSlot slot_;
  spc::atomic<bool> cancelled_{false};
  spc::atomic<i64> fwd_completed_{0};
  spc::atomic<i64> bwd_completed_{0};
};

int resolve_threads(int threads) {
  if (threads > 0) return threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

}  // namespace

void block_solve_panel(const BlockFactor& f, double* x, idx nrhs,
                       const SolveOptions& opt, SolveWorkspace* ws) {
  SPC_CHECK(nrhs >= 0, "block_solve_panel: negative nrhs");
  if (nrhs == 0) return;
  SPC_CHECK(x != nullptr, "block_solve_panel: null RHS");
  const BlockStructure& bs = *f.structure;
  std::unique_ptr<SolveWorkspace> local;
  if (ws == nullptr) {
    local = std::make_unique<SolveWorkspace>(bs);
    ws = local.get();
  }
  SPC_CHECK(ws->bs == &bs,
            "block_solve_panel: workspace built for a different structure");
  const int threads = resolve_threads(opt.threads);

  if (threads <= 1) {
    run_serial_panel(f, x, nrhs, opt, *ws, opt.profile);
  } else {
    SolveExecutor ex(f, x, nrhs, threads, *ws, opt.profile, opt.cancel,
                     opt.budget, opt.deadline);
    ex.run();
  }
}

void block_solve_multi_parallel(const BlockFactor& f, DenseMatrix& b,
                                const SolveOptions& opt, SolveWorkspace* ws) {
  const idx n = f.structure->part.num_cols();
  SPC_CHECK(b.rows() == n, "block_solve_multi_parallel: row count mismatch");
  SPC_CHECK(opt.nrhs_block >= 1,
            "block_solve_multi_parallel: nrhs_block must be >= 1");
  std::unique_ptr<SolveWorkspace> local;
  if (ws == nullptr && b.cols() > 0) {
    local = std::make_unique<SolveWorkspace>(*f.structure);
    ws = local.get();
  }
  SolveProfile panel_prof;
  SolveOptions popt = opt;
  if (opt.profile != nullptr) {
    opt.profile->workers.clear();
    opt.profile->wall_s = 0;
    opt.profile->steals = 0;
    opt.profile->nrhs = static_cast<int>(b.cols());
    popt.profile = &panel_prof;
  }
  for (idx c0 = 0; c0 < b.cols(); c0 += opt.nrhs_block) {
    const idx nc = std::min<idx>(opt.nrhs_block, b.cols() - c0);
    block_solve_panel(f, b.col(c0), nc, popt, ws);
    if (opt.profile != nullptr) {
      SolveProfile& acc = *opt.profile;
      if (acc.workers.size() < panel_prof.workers.size()) {
        acc.workers.resize(panel_prof.workers.size());
      }
      for (std::size_t t = 0; t < panel_prof.workers.size(); ++t) {
        SolveProfile::Worker& dst = acc.workers[t];
        const SolveProfile::Worker& src = panel_prof.workers[t];
        dst.forward_s += src.forward_s;
        dst.backward_s += src.backward_s;
        dst.scatter_s += src.scatter_s;
        dst.idle_s += src.idle_s;
        dst.cols += src.cols;
        dst.updates += src.updates;
      }
      acc.wall_s += panel_prof.wall_s;
      acc.steals += panel_prof.steals;
    }
  }
}

double refine_once(const SymSparse& a, const BlockFactor& f,
                   const std::vector<double>& b, std::vector<double>& x,
                   const SolveOptions& opt, SolveWorkspace* ws) {
  SPC_CHECK(a.num_rows() == f.structure->part.num_cols(),
            "refine_once: matrix/factor mismatch");
  SPC_CHECK(b.size() == x.size() && static_cast<idx>(x.size()) == a.num_rows(),
            "refine_once: vector size mismatch");
  const std::vector<double> ax = a.multiply(x);
  std::vector<double> r(b.size());
  for (std::size_t i = 0; i < b.size(); ++i) r[i] = b[i] - ax[i];
  // In place: r becomes the correction dx.
  block_solve_panel(f, r.data(), 1, opt, ws);
  double norm = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] += r[i];
    norm = std::max(norm, std::abs(r[i]));
  }
  return norm;
}

}  // namespace spc
