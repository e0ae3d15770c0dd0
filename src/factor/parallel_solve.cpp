#include "factor/parallel_solve.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <thread>

#include "factor/parallel_factor.hpp"  // FailureSlot
#include "linalg/kernels.hpp"
#include "support/error.hpp"
#include "support/fault.hpp"
#include "support/sync.hpp"

namespace spc {

SolveWorkspace::SolveWorkspace(const BlockStructure& bs_in) : bs(&bs_in) {
  for (const idx cnt : bs_in.blkcnt) {
    max_entry_rows = std::max<i64>(max_entry_rows, cnt);
  }
}

void SolveWorkspace::bind_budget(
    const std::shared_ptr<governor::MemoryBudget>& budget) {
  if (budget == charge.budget()) return;
  // Budget change: re-charge what the workspace already holds so a cached
  // workspace handed to a governed facade is metered from the first run.
  charge.rebind(budget);
  charge.add(scratch_bytes(), "solve");
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

void SolveWorkspace::prepare(
    idx slices, idx slice_width,
    const std::shared_ptr<governor::MemoryBudget>& budget) {
  bind_budget(budget);
  // Governed growth: the new panels and the widening of the old ones are
  // summed and charged before any allocation happens. The alloc fault site
  // covers the growth path, so tests can prove the workspace stays reusable
  // after an injected workspace-allocation failure.
  // Every panel has the same size, the widest any solve has needed.
  const i64 held = static_cast<i64>(update.size());
  const i64 old_size = update.empty() ? 0 : static_cast<i64>(update[0].size());
  const i64 panels = std::max<i64>(held, slices);
  const i64 per_panel = std::max(old_size, max_entry_rows * slice_width);
  const i64 grow_bytes = (per_panel * panels - old_size * held) *
                         static_cast<i64>(sizeof(double));
  if (grow_bytes > 0) {
    SPC_FAULT_POINT(fault::Site::kAlloc, grow_bytes,
                    "solve workspace allocation");
    charge.add(grow_bytes, "solve");
  }
  update.resize(static_cast<std::size_t>(panels));
  for (std::vector<double>& u : update) {
    u.resize(static_cast<std::size_t>(per_panel));
  }
}

i64 SolveWorkspace::scratch_bytes() const {
  i64 elems = static_cast<i64>(rhs.capacity());
  for (const std::vector<double>& u : update) {
    elems += static_cast<i64>(u.size());
  }
  return elems * static_cast<i64>(sizeof(double));
}

namespace {

// ---------------------------------------------------------------------------
// The one sweep: both triangular solves column by column in block order,
// with the cancellation check, deadline poll and fault-injection sites per
// column. Each block op is one level-3 kernel call on the whole panel
// (trsm_left_* on the diagonal block, gemm_nn / gemm_tn on each off-diagonal
// entry), so the factor is walked once per panel. `scratch` holds one
// entry's GEMM result (at least the widest entry times nrhs). `stop` is set
// when a sibling slice failed; the sweep then returns early and leaves its
// columns unspecified (the sibling's failure is what the call throws).
// ---------------------------------------------------------------------------
void check_cancel(const spc::atomic<bool>* cancel) {
  // relaxed: cancellation is advisory — a stale read costs one extra column.
  if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
    throw Error("solve cancelled", ErrorKind::kCancelled);
  }
}

bool stopped(const spc::atomic<bool>* stop) {
  // relaxed: advisory, like the cancel poll — a stale read costs one extra
  // column; the failure itself is recorded through the FailureSlot and
  // published to the caller by the join.
  return stop != nullptr && stop->load(std::memory_order_relaxed);
}

void run_serial_panel(const BlockFactor& f, double* x, idx nrhs,
                      const SolveOptions& opt, double* scratch,
                      const spc::atomic<bool>* stop) {
  const BlockStructure& bs = *f.structure;
  const idx nb = bs.num_block_cols();
  const idx n = bs.part.num_cols();
  for (idx k = 0; k < nb; ++k) {
    if (stopped(stop)) return;
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
      gemm_nn_neg_raw(cnt, nrhs, w, l.data(), cnt, x + first, n, scratch,
                      cnt);
      const idx* rows = bs.entry_rows_begin(e);
      for (idx c = 0; c < nrhs; ++c) {
        double* xc = x + static_cast<std::size_t>(c) * n;
        const double* u = scratch + static_cast<std::size_t>(c) * cnt;
        for (idx r = 0; r < cnt; ++r) xc[rows[r]] += u[r];
      }
    }
  }
  for (idx k = nb - 1; k >= 0; --k) {
    if (stopped(stop)) return;
    check_cancel(opt.cancel);
    governor::Deadline::check(opt.deadline, "solve");
    SPC_FAULT_POINT(fault::Site::kKernel, nb + k, "solve backward column");
    const idx first = bs.part.first_col[k];
    const idx w = bs.part.width(k);
    for (i64 e = bs.blkptr[k]; e < bs.blkptr[k + 1]; ++e) {
      const DenseMatrix& l = f.offdiag[static_cast<std::size_t>(e)];
      const idx cnt = l.rows();
      const idx* rows = bs.entry_rows_begin(e);
      for (idx c = 0; c < nrhs; ++c) {
        const double* xc = x + static_cast<std::size_t>(c) * n;
        double* g = scratch + static_cast<std::size_t>(c) * cnt;
        for (idx r = 0; r < cnt; ++r) g[r] = xc[rows[r]];
      }
      gemm_tn_minus_raw(w, nrhs, cnt, l.data(), cnt, scratch, cnt, x + first,
                        n);
    }
    trsm_left_ltrans(w, nrhs, f.diag[static_cast<std::size_t>(k)].data(), w,
                     x + first, n);
  }
}

// Column slices (threads >= 2, nrhs >= 2): slice s owns columns
// [c0(s), c0(s+1)) of the panel, widths differing by at most one, and runs
// the sweep above on them with its own update panel. The first failure is
// recorded in the FailureSlot and raises `stop`, which the other slices poll
// per column; the join publishes the record and the call rethrows it.
void run_column_slices(const BlockFactor& f, double* x, idx nrhs, idx slices,
                       const SolveOptions& opt, SolveWorkspace& ws) {
  const idx n = f.structure->part.num_cols();
  const idx base = nrhs / slices;
  const idx extra = nrhs % slices;
  ws.prepare(slices, base + (extra > 0 ? 1 : 0), opt.budget);
  FailureSlot slot;
  spc::atomic<bool> stop{false};
  const auto fail = [&](i64 slice) {
    slot.record(std::current_exception(), slice,
                FailureSlot::Phase::kCompletion);
    // relaxed: the flag only cuts the other slices short; the record
    // reaches the caller through the slot and the join, not through it.
    stop.store(true, std::memory_order_relaxed);
  };
  const auto run_slice = [&](idx s) {
    const idx c0 = s * base + std::min(s, extra);
    const idx width = base + (s < extra ? 1 : 0);
    try {
      run_serial_panel(f, x + static_cast<std::size_t>(c0) * n, width, opt,
                       ws.update[static_cast<std::size_t>(s)].data(), &stop);
    } catch (...) {
      fail(s);
    }
  };
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(slices) - 1);
  try {
    for (idx s = 1; s < slices; ++s) workers.emplace_back(run_slice, s);
  } catch (...) {
    // Thread creation failed: the slices already started stop at their
    // next column, and the spawn error is what the call throws.
    fail(-1);
  }
  run_slice(0);
  for (std::thread& t : workers) t.join();
  if (std::exception_ptr e = slot.first()) std::rethrow_exception(e);
}

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
  const idx slices = std::min<idx>(resolve_threads(opt.threads), nrhs);

  if (slices <= 1) {
    ws->prepare(1, nrhs, opt.budget);
    run_serial_panel(f, x, nrhs, opt, ws->update[0].data(), nullptr);
  } else {
    run_column_slices(f, x, nrhs, slices, opt, *ws);
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
  for (idx c0 = 0; c0 < b.cols(); c0 += opt.nrhs_block) {
    const idx nc = std::min<idx>(opt.nrhs_block, b.cols() - c0);
    block_solve_panel(f, b.col(c0), nc, opt, ws);
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
