#include "factor/numeric_factor.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <new>

#include "linalg/kernels.hpp"
#include "support/error.hpp"
#include "support/fault.hpp"

namespace spc {
namespace {

// Positions of each element of `sub` (ascending) within `super` (ascending,
// superset of sub). Used to scatter update rows into destination rows.
void relative_positions(const idx* sub_begin, const idx* sub_end,
                        const idx* super_begin, const idx* super_end,
                        std::vector<idx>& out) {
  out.clear();
  const idx* s = super_begin;
  for (const idx* p = sub_begin; p != sub_end; ++p) {
    while (s != super_end && *s < *p) ++s;
    SPC_CHECK(s != super_end && *s == *p,
              "relative_positions: row missing from destination (containment violated)");
    out.push_back(static_cast<idx>(s - super_begin));
  }
}

}  // namespace

PivotControl make_pivot_control(const SymSparse& a, const FactorizeOptions& opt) {
  PivotControl pc;
  pc.policy = opt.pivot_policy;
  if (opt.pivot_policy == PivotPolicy::kPerturb) {
    // boost = delta * max|diag(A)|, computed once so every engine and every
    // schedule applies the identical absolute test.
    double max_diag = 0.0;
    const auto& ptr = a.col_ptr();
    const auto& rows = a.row_idx();
    const auto& val = a.values();
    for (idx c = 0; c < a.num_rows(); ++c) {
      for (i64 k = ptr[static_cast<std::size_t>(c)];
           k < ptr[static_cast<std::size_t>(c) + 1]; ++k) {
        if (rows[static_cast<std::size_t>(k)] == c) {
          max_diag = std::max(max_diag, std::abs(val[static_cast<std::size_t>(k)]));
          break;
        }
      }
    }
    pc.boost = opt.pivot_delta * max_diag;
    // Degenerate scale (zero/NaN diagonal): fall back to an absolute floor
    // so the boost value stays positive and the factorization can complete.
    if (!(pc.boost > 0.0)) {
      pc.boost = opt.pivot_delta > 0.0 ? opt.pivot_delta : kDefaultPivotDelta;
    }
  }
  return pc;
}

void PivotEnv::on_block_pivots(block_id b, const std::vector<idx>& adjusted,
                               double first_bad) {
  const idx first = bs_.part.first_col[static_cast<std::size_t>(b)];
  if (control_.policy == PivotPolicy::kPerturb) {
    LockGuard lock(mutex_);
    for (const idx local : adjusted) perturbed_.push_back(first + local);
    return;
  }
  ErrorContext ctx;
  ctx.column = first + adjusted.front();
  ctx.supernode = bs_.part.sn_of_block[static_cast<std::size_t>(b)];
  ctx.block_i = static_cast<std::int32_t>(b);
  ctx.block_j = static_cast<std::int32_t>(b);
  ctx.pivot = first_bad;
  ctx.has_pivot = true;
  if (!deferred_) {
    throw_not_spd("factorize: matrix is not positive definite", ctx);
  }
  LockGuard lock(mutex_);
  if (breakdown_col_ == kNone || ctx.column < breakdown_col_) {
    breakdown_col_ = ctx.column;
    breakdown_ctx_ = ctx;
  }
}

bool PivotEnv::has_breakdown() const {
  LockGuard lock(mutex_);
  return breakdown_col_ != kNone;
}

void PivotEnv::throw_breakdown() const {
  ErrorContext ctx;
  {
    LockGuard lock(mutex_);
    SPC_CHECK(breakdown_col_ != kNone, "PivotEnv: no breakdown recorded");
    ctx = breakdown_ctx_;
  }
  throw_not_spd("factorize: matrix is not positive definite", ctx);
}

void PivotEnv::export_info(FactorizeInfo* info) const {
  if (info == nullptr) return;
  LockGuard lock(mutex_);
  info->perturbed_cols = perturbed_;
  std::sort(info->perturbed_cols.begin(), info->perturbed_cols.end());
  info->perturbed_pivots = static_cast<i64>(info->perturbed_cols.size());
  info->breakdown_col = breakdown_col_;
}

double BlockFactor::entry(idx r, idx c) const {
  const BlockStructure& bs = *structure;
  SPC_CHECK(r >= c, "BlockFactor::entry: upper triangle requested");
  const idx j = bs.part.block_of_col[c];
  const idx cj = c - bs.part.first_col[j];
  if (bs.part.block_of_col[r] == j) {
    return diag[static_cast<std::size_t>(j)](r - bs.part.first_col[j], cj);
  }
  const i64 e = bs.find_entry(j, bs.part.block_of_col[r]);
  if (e == kNone) return 0.0;
  const idx* rows = bs.entry_rows_begin(e);
  const idx* end = bs.entry_rows_end(e);
  const idx* it = std::lower_bound(rows, end, r);
  if (it == end || *it != r) return 0.0;
  return offdiag[static_cast<std::size_t>(e)](static_cast<idx>(it - rows), cj);
}

BlockArenaLayout compute_block_arena_layout(const BlockStructure& bs) {
  // Round every segment up to a cache line (8 doubles) so no two blocks
  // share one — scatters into adjacent destination blocks never false-share.
  constexpr i64 kLine = 8;
  const idx nb = bs.num_block_cols();
  BlockArenaLayout layout;
  layout.diag_off.resize(static_cast<std::size_t>(nb));
  layout.entry_off.resize(static_cast<std::size_t>(bs.num_entries()));
  i64 off = 0;
  for (idx j = 0; j < nb; ++j) {
    const i64 w = bs.part.width(j);
    layout.diag_off[static_cast<std::size_t>(j)] = off;
    off += (w * w + kLine - 1) / kLine * kLine;
    for (i64 e = bs.blkptr[j]; e < bs.blkptr[j + 1]; ++e) {
      layout.entry_off[static_cast<std::size_t>(e)] = off;
      off += (static_cast<i64>(bs.blkcnt[e]) * w + kLine - 1) / kLine * kLine;
    }
  }
  layout.total = off;
  return layout;
}

namespace {

std::shared_ptr<double[]> allocate_arena(
    i64 elems, const std::shared_ptr<governor::MemoryBudget>& budget,
    const char* phase) {
  constexpr std::align_val_t kAlign{64};
  if (elems <= 0) return nullptr;
  // Charge before allocating: a breach surfaces as kResourceExhausted with
  // the full accounting instead of bad_alloc. The deleter refunds the bytes
  // when the last factor reference drops, so the budget tracks live arenas.
  const i64 bytes = elems * static_cast<i64>(sizeof(double));
  SPC_FAULT_POINT(fault::Site::kAlloc, elems, "factor arena allocation");
  if (budget != nullptr) budget->charge(bytes, phase);
  double* p = nullptr;
  try {
    p = static_cast<double*>(::operator new[](
        static_cast<std::size_t>(elems) * sizeof(double), kAlign));
  } catch (const std::bad_alloc&) {
    if (budget != nullptr) budget->release(bytes);
    throw Error("factor arena allocation of " + std::to_string(elems) +
                    " doubles failed",
                ErrorKind::kResourceExhausted);
  } catch (...) {
    if (budget != nullptr) budget->release(bytes);
    throw;
  }
  return std::shared_ptr<double[]>(p, [budget, bytes](double* q) {
    ::operator delete[](q, kAlign);
    if (budget != nullptr) budget->release(bytes);
  });
}

}  // namespace

void attach_block_arena(const BlockStructure& bs, const BlockArenaLayout& layout,
                        BlockFactor& f,
                        const std::shared_ptr<governor::MemoryBudget>& budget,
                        const char* phase) {
  const idx nb = bs.num_block_cols();
  SPC_CHECK(static_cast<idx>(layout.diag_off.size()) == nb &&
                static_cast<i64>(layout.entry_off.size()) == bs.num_entries(),
            "attach_block_arena: layout/structure mismatch");
  f.structure = &bs;
  f.arena = allocate_arena(layout.total, budget, phase);
  f.arena_elems = layout.total;
  f.diag.resize(static_cast<std::size_t>(nb));
  f.offdiag.resize(static_cast<std::size_t>(bs.num_entries()));
  double* base = f.arena.get();
  for (idx j = 0; j < nb; ++j) {
    const idx w = bs.part.width(j);
    f.diag[static_cast<std::size_t>(j)].attach(
        base + layout.diag_off[static_cast<std::size_t>(j)], w, w);
    for (i64 e = bs.blkptr[j]; e < bs.blkptr[j + 1]; ++e) {
      f.offdiag[static_cast<std::size_t>(e)].attach(
          base + layout.entry_off[static_cast<std::size_t>(e)], bs.blkcnt[e], w);
    }
  }
}

void init_block_column(const SymSparse& a, const BlockStructure& bs, idx j,
                       BlockFactor& f) {
  f.diag[static_cast<std::size_t>(j)].set_zero();
  for (i64 e = bs.blkptr[j]; e < bs.blkptr[j + 1]; ++e) {
    f.offdiag[static_cast<std::size_t>(e)].set_zero();
  }

  // Scatter A's columns of block column j. Rows within a column are (almost
  // always) ascending, so consecutive entries tend to hit the same
  // destination block: cache the entry lookup per (column, block-row)
  // segment and advance a moving cursor through the entry's row list instead
  // of a fresh binary search per nonzero. Falls back to a full search when
  // the input is not sorted, so correctness never depends on the ordering.
  const auto& ptr = a.col_ptr();
  const auto& rowv = a.row_idx();
  const auto& val = a.values();
  const idx first = bs.part.first_col[j];
  const idx last = first + bs.part.width(j);
  for (idx c = first; c < last; ++c) {
    const idx cj = c - first;
    idx cur_bi = -1;
    i64 e = kNone;
    const idx* rows = nullptr;
    const idx* end = nullptr;
    const idx* cursor = nullptr;
    for (i64 k = ptr[static_cast<std::size_t>(c)]; k < ptr[static_cast<std::size_t>(c) + 1]; ++k) {
      const idx r = rowv[static_cast<std::size_t>(k)];
      const double v = SPC_FAULT_POISON(
          (static_cast<std::uint64_t>(c) << 32) | static_cast<std::uint32_t>(r),
          val[static_cast<std::size_t>(k)]);
      if (bs.part.block_of_col[r] == j) {
        f.diag[static_cast<std::size_t>(j)](r - first, cj) = v;
        continue;
      }
      const idx bi = bs.part.block_of_col[r];
      if (bi != cur_bi) {
        e = bs.find_entry(j, bi);
        SPC_CHECK(e != kNone, "init_block_factor: A entry outside factor structure");
        rows = bs.entry_rows_begin(e);
        end = bs.entry_rows_end(e);
        cursor = rows;
        cur_bi = bi;
      }
      const idx* it = std::lower_bound(cursor, end, r);
      if (it == end || *it != r) it = std::lower_bound(rows, end, r);
      SPC_CHECK(it != end && *it == r, "init_block_factor: A row outside block rows");
      f.offdiag[static_cast<std::size_t>(e)](static_cast<idx>(it - rows), cj) = v;
      cursor = it;
    }
  }
}

BlockFactor init_block_factor(
    const SymSparse& a, const BlockStructure& bs,
    const std::shared_ptr<governor::MemoryBudget>& budget) {
  SPC_CHECK(a.num_rows() == bs.part.num_cols(),
            "init_block_factor: matrix/structure size mismatch");
  BlockFactor f;
  attach_block_arena(bs, compute_block_arena_layout(bs), f, budget);
  for (idx j = 0; j < bs.num_block_cols(); ++j) init_block_column(a, bs, j, f);
  return f;
}

BmodPlacement place_block_mod(const BlockStructure& bs, const BlockMod& m) {
  const idx nb = bs.num_block_cols();
  const i64 ei = m.src_a - nb;
  const i64 ej = m.src_b - nb;
  const idx* ri = bs.entry_rows_begin(ei);
  const idx* rj = bs.entry_rows_begin(ej);
  const idx mi = bs.blkcnt[static_cast<std::size_t>(ei)];
  const idx mj = bs.blkcnt[static_cast<std::size_t>(ej)];
  // Row ids ascend, so equal endpoint distance means one run of columns.
  if (rj[mj - 1] - rj[0] != mj - 1) return {};
  const idx first_j = bs.part.first_col[bs.blkrow[static_cast<std::size_t>(ej)]];
  const idx c0 = rj[0] - first_j;
  if (is_diag_block(bs, m.dest)) return {true, c0, c0};  // I == J: rows are rj
  // The source rows must match a run of destination rows element by element:
  // an endpoint compare would accept a gapped source whose ends line up.
  const i64 ed = m.dest - nb;
  const idx* dbeg = bs.entry_rows_begin(ed);
  const idx* dend = bs.entry_rows_end(ed);
  const idx* run = std::lower_bound(dbeg, dend, ri[0]);
  if (dend - run < mi || !std::equal(ri, ri + mi, run)) return {};
  return {true, static_cast<idx>(run - dbeg), c0};
}

namespace {

// Scatters a finished update into `dest` through the destination row
// positions of its source rows (fragmented mods only).
void scatter_block_mod(const BlockStructure& bs, const BlockMod& m,
                       const DenseMatrix& update, const std::vector<idx>& rel_rows,
                       DenseMatrix& dest) {
  const idx nb = bs.num_block_cols();
  const i64 ei = m.src_a - nb;
  const i64 ej = m.src_b - nb;
  const idx* src_rows_i = bs.entry_rows_begin(ei);
  const idx* src_rows_j = bs.entry_rows_begin(ej);
  const idx first_j = bs.part.first_col[bs.blkrow[static_cast<std::size_t>(ej)]];
  if (is_diag_block(bs, m.dest)) {
    // Destination is the diagonal block L_JJ (lower triangle only). A BMOD
    // into a diagonal block has I == J, so src_a == src_b and the row/column
    // index lists coincide: the lower triangle of the destination is exactly
    // rr >= cc, no per-element test needed.
    for (idx cc = 0; cc < update.cols(); ++cc) {
      const idx dest_c = src_rows_j[cc] - first_j;
      double* dcol = dest.col(dest_c);
      const double* ucol = update.col(cc);
      for (idx rr = cc; rr < update.rows(); ++rr) {
        dcol[src_rows_i[rr] - first_j] += ucol[rr];
      }
    }
    return;
  }
  // The source rows usually land in a few contiguous runs of destination
  // rows (a handful even on irregular problems). Decompose rel_rows into
  // runs once per mod, then scatter each column with plain vector adds per
  // run — these vectorize, unlike the indexed fallback below.
  constexpr int kMaxRuns = 48;
  idx run_start[kMaxRuns];  // first source row of the run
  idx run_len[kMaxRuns];
  idx run_dst[kMaxRuns];  // destination row of the run's first source row
  const idx rows = update.rows();
  int nruns = 0;
  for (idx rr = 0; rr < rows && nruns >= 0;) {
    const idx start = rr;
    idx prev = rel_rows[static_cast<std::size_t>(rr)];
    for (++rr; rr < rows && rel_rows[static_cast<std::size_t>(rr)] == prev + 1;
         ++rr) {
      prev = rel_rows[static_cast<std::size_t>(rr)];
    }
    if (nruns == kMaxRuns) {
      nruns = -1;  // too fragmented; use the indexed loop
      break;
    }
    run_start[nruns] = start;
    run_len[nruns] = rr - start;
    run_dst[nruns] = rel_rows[static_cast<std::size_t>(start)];
    ++nruns;
  }
  for (idx cc = 0; cc < update.cols(); ++cc) {
    double* dcol = dest.col(src_rows_j[cc] - first_j);
    const double* ucol = update.col(cc);
    if (nruns >= 0) {
      for (int r = 0; r < nruns; ++r) {
        double* d = dcol + run_dst[r];
        const double* u = ucol + run_start[r];
        const idx len = run_len[r];
        for (idx i = 0; i < len; ++i) d[i] += u[i];
      }
    } else {
      for (idx rr = 0; rr < rows; ++rr) {
        dcol[rel_rows[static_cast<std::size_t>(rr)]] += ucol[rr];
      }
    }
  }
}

}  // namespace

void apply_block_mod_to(const BlockStructure& bs, const BlockMod& m,
                        const DenseMatrix& src_i, const DenseMatrix& src_j,
                        DenseMatrix& dest, DenseMatrix& update,
                        std::vector<idx>& rel_rows, double* scatter_s) {
  // Key the BMOD injection site on the mod's (dest, src_a, src_b) triple so
  // the decision is identical across engines, thread counts and placements.
  SPC_FAULT_POINT(fault::Site::kKernel,
                  (static_cast<std::uint64_t>(m.dest) << 42) ^
                      (static_cast<std::uint64_t>(m.src_a) << 21) ^
                      static_cast<std::uint64_t>(m.src_b),
                  "BMOD");
  const BmodPlacement p = place_block_mod(bs, m);
  if (p.in_place) {
    gemm_nt_minus_raw(src_i.rows(), src_j.rows(), src_i.cols(), src_i.data(),
                      src_i.rows(), src_j.data(), src_j.rows(),
                      dest.col(p.c0) + p.r0, dest.rows());
    return;
  }
  update.resize_for_overwrite(src_i.rows(), src_j.rows());
  gemm_nt_neg_raw(src_i.rows(), src_j.rows(), src_i.cols(), src_i.data(),
                  src_i.rows(), src_j.data(), src_j.rows(), update.data(),
                  update.rows());  // update = -L_IK L_JK^T
  const auto t0 = scatter_s ? std::chrono::steady_clock::now()
                            : std::chrono::steady_clock::time_point{};
  if (!is_diag_block(bs, m.dest)) {
    const idx nb = bs.num_block_cols();
    relative_positions(bs.entry_rows_begin(m.src_a - nb), bs.entry_rows_end(m.src_a - nb),
                       bs.entry_rows_begin(m.dest - nb), bs.entry_rows_end(m.dest - nb),
                       rel_rows);
  }
  scatter_block_mod(bs, m, update, rel_rows, dest);
  if (scatter_s) {
    *scatter_s +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  }
}

void complete_block(const BlockStructure& bs, block_id b, BlockFactor& f,
                    PivotEnv* pivots) {
  if (is_diag_block(bs, b)) {
    SPC_FAULT_POINT(fault::Site::kKernel, b, "BFAC");
    DenseMatrix& d = f.diag[static_cast<std::size_t>(b)];
    if (pivots == nullptr) {
      potrf_lower(d);  // BFAC
    } else {
      std::vector<idx> adjusted;
      double first_bad = 0.0;
      if (potrf_lower_guarded(d, pivots->control(), adjusted, &first_bad) > 0) {
        pivots->on_block_pivots(b, adjusted, first_bad);
      }
    }
  } else {
    SPC_FAULT_POINT(fault::Site::kKernel, b, "BDIV");
    const i64 e = b - bs.num_block_cols();
    // Recover the owning column of entry e by binary search over blkptr.
    idx lo = 0, hi = bs.num_block_cols();
    while (lo + 1 < hi) {
      const idx mid = (lo + hi) / 2;
      if (bs.blkptr[mid] <= e) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    trsm_right_ltrans(f.diag[static_cast<std::size_t>(lo)],
                      f.offdiag[static_cast<std::size_t>(e)]);  // BDIV
  }
}

namespace {

// BFAC for the serial engine: guarded blocked potrf (arithmetic-identical
// to potrf_lower on clean SPD input), with failures routed through the
// run's PivotEnv. The sequential sweep completes block columns in ascending
// order, so the first strict failure is the minimal failing column.
void bfac_guarded(idx k, BlockFactor& f, PivotEnv& pivots,
                  std::vector<idx>& adjusted) {
  SPC_FAULT_POINT(fault::Site::kKernel, k, "BFAC");
  adjusted.clear();
  double first_bad = 0.0;
  if (potrf_lower_guarded(f.diag[static_cast<std::size_t>(k)], pivots.control(),
                          adjusted, &first_bad) > 0) {
    pivots.on_block_pivots(k, adjusted, first_bad);
  }
}

}  // namespace

BlockFactor block_factorize(const SymSparse& a, const BlockStructure& bs,
                            const TaskGraph& tg, const FactorizeOptions& opt,
                            FactorizeInfo* info) {
  if (info != nullptr) info->reset();
  BlockFactor f = init_block_factor(a, bs, opt.budget);
  const idx nb = bs.num_block_cols();

  // Right-looking sweep: factor column K, then push its updates.
  DenseMatrix update;
  std::vector<idx> rel_rows;
  std::vector<idx> adjusted;
  PivotEnv pivots(bs, make_pivot_control(a, opt), /*deferred=*/false);
  std::size_t cursor = 0;
  for (idx k = 0; k < nb; ++k) {
    // Supernode-boundary deadline check: one clock read per block column.
    governor::Deadline::check(opt.deadline, "factorize");
    bfac_guarded(k, f, pivots, adjusted);  // BFAC(K,K)
    for (i64 e = bs.blkptr[k]; e < bs.blkptr[k + 1]; ++e) {
      SPC_FAULT_POINT(fault::Site::kKernel, nb + e, "BDIV");
      trsm_right_ltrans(f.diag[static_cast<std::size_t>(k)],
                        f.offdiag[static_cast<std::size_t>(e)]);  // BDIV(I,K)
    }
    for (; cursor < tg.mods.size() && tg.mods[cursor].col_k == k; ++cursor) {
      const BlockMod& m = tg.mods[cursor];
      DenseMatrix& dest = is_diag_block(bs, m.dest)
                              ? f.diag[static_cast<std::size_t>(m.dest)]
                              : f.offdiag[static_cast<std::size_t>(m.dest - nb)];
      apply_block_mod_to(bs, m, f.offdiag[static_cast<std::size_t>(m.src_a - nb)],
                         f.offdiag[static_cast<std::size_t>(m.src_b - nb)], dest,
                         update, rel_rows);  // BMOD(I,J,K)
    }
  }
  SPC_CHECK(cursor == tg.mods.size(), "block_factorize: mods not consumed");
  pivots.export_info(info);
  return f;
}

}  // namespace spc
