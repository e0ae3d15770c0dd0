#include "factor/numeric_factor.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <new>
#include <type_traits>

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
  // Round every segment up to 8 elements — a cache line of doubles — so no
  // two blocks share one: scatters into adjacent destination blocks never
  // false-share.
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

template <typename T>
std::shared_ptr<T[]> allocate_arena(
    i64 elems, const std::shared_ptr<governor::MemoryBudget>& budget) {
  constexpr std::align_val_t kAlign{64};
  constexpr bool kFp32 = std::is_same_v<T, float>;
  if (elems <= 0) return nullptr;
  // Charge before allocating: a breach surfaces as kResourceExhausted with
  // the full accounting instead of bad_alloc. The deleter refunds the bytes
  // when the last reference drops, so the budget tracks live arenas.
  const i64 bytes = elems * static_cast<i64>(sizeof(T));
  SPC_FAULT_POINT(fault::Site::kAlloc, elems,
                  kFp32 ? "fp32 arena allocation" : "factor arena allocation");
  if (budget != nullptr) budget->charge(bytes, "factorize");
  T* p = nullptr;
  try {
    p = static_cast<T*>(
        ::operator new[](static_cast<std::size_t>(bytes), kAlign));
  } catch (const std::bad_alloc&) {
    if (budget != nullptr) budget->release(bytes);
    throw Error(std::string(kFp32 ? "fp32" : "factor") + " arena allocation of " +
                    std::to_string(elems) + (kFp32 ? " floats" : " doubles") +
                    " failed",
                ErrorKind::kResourceExhausted);
  } catch (...) {
    if (budget != nullptr) budget->release(bytes);
    throw;
  }
  return std::shared_ptr<T[]>(p, [budget, bytes](T* q) {
    ::operator delete[](q, kAlign);
    if (budget != nullptr) budget->release(bytes);
  });
}

}  // namespace

template <typename T>
FactorArena<T>::FactorArena(const BlockStructure& bs,
                            const BlockArenaLayout& layout,
                            const std::shared_ptr<governor::MemoryBudget>& budget)
    : bs_(bs), budget_(budget), data_(allocate_arena<T>(layout.total, budget)) {
  SPC_CHECK(static_cast<idx>(layout.diag_off.size()) == bs.num_block_cols() &&
                static_cast<i64>(layout.entry_off.size()) == bs.num_entries(),
            "FactorArena: layout/structure mismatch");
  blocks_ = {&layout, data_.get(), bs.num_block_cols()};
}

template <typename T>
BlockFactor FactorArena<T>::release() {
  const BlockArenaLayout& layout = *blocks_.layout;
  BlockFactor f;
  if constexpr (std::is_same_v<T, double>) {
    f.arena = std::move(data_);
  } else {
    // Promotion is exact: the layouts share element offsets, so it is one
    // linear pass, and the float arena is refunded right after.
    f.arena = allocate_arena<double>(layout.total, budget_);
    std::copy(data_.get(), data_.get() + layout.total, f.arena.get());
    data_.reset();
  }
  blocks_.base = nullptr;
  const idx nb = bs_.num_block_cols();
  f.structure = &bs_;
  f.arena_elems = layout.total;
  f.diag.resize(static_cast<std::size_t>(nb));
  f.offdiag.resize(static_cast<std::size_t>(bs_.num_entries()));
  double* base = f.arena.get();
  for (idx j = 0; j < nb; ++j) {
    const idx w = bs_.part.width(j);
    f.diag[static_cast<std::size_t>(j)].attach(
        base + layout.diag_off[static_cast<std::size_t>(j)], w, w);
    for (i64 e = bs_.blkptr[j]; e < bs_.blkptr[j + 1]; ++e) {
      f.offdiag[static_cast<std::size_t>(e)].attach(
          base + layout.entry_off[static_cast<std::size_t>(e)], bs_.blkcnt[e], w);
    }
  }
  return f;
}

template <typename T>
void init_block_column(const SymSparse& a, const BlockStructure& bs, idx j,
                       const BlockArena<T>& f) {
  // Column j's blocks are one contiguous arena segment (padding included).
  const std::size_t uj = static_cast<std::size_t>(j);
  T* diag = f.block(j);
  T* seg_end = f.base + (uj + 1 < f.layout->diag_off.size()
                             ? f.layout->diag_off[uj + 1]
                             : f.layout->total);
  std::fill(diag, seg_end, T(0));

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
  const idx w = bs.part.width(j);
  const idx last = first + w;
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
        diag[static_cast<std::size_t>(cj) * w + (r - first)] = static_cast<T>(v);
        continue;
      }
      const idx bi = bs.part.block_of_col[r];
      if (bi != cur_bi) {
        e = bs.find_entry(j, bi);
        SPC_CHECK(e != kNone, "init_block_column: A entry outside factor structure");
        rows = bs.entry_rows_begin(e);
        end = bs.entry_rows_end(e);
        cursor = rows;
        cur_bi = bi;
      }
      const idx* it = std::lower_bound(cursor, end, r);
      if (it == end || *it != r) it = std::lower_bound(rows, end, r);
      SPC_CHECK(it != end && *it == r, "init_block_column: A row outside block rows");
      f.block(bs.num_block_cols() + e)[static_cast<std::size_t>(cj) * bs.blkcnt[e] +
                                       static_cast<idx>(it - rows)] =
          static_cast<T>(v);
      cursor = it;
    }
  }
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

void UpdateScratch::reserve_bytes(i64 bytes) {
  if (bytes <= cap_bytes_) return;
  buf_.reset(::operator new(static_cast<std::size_t>(bytes)));
  cap_bytes_ = bytes;
}

namespace {

// Scatters a finished mi x mj update (leading dimension mi) into `dest`
// (leading dimension ldd) through the destination row positions of its
// source rows (fragmented mods only).
template <typename T>
void scatter_block_mod(const BlockStructure& bs, const BlockMod& m,
                       const T* update, idx mi, idx mj,
                       const std::vector<idx>& rel_rows, T* dest, idx ldd) {
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
    for (idx cc = 0; cc < mj; ++cc) {
      T* dcol = dest + static_cast<std::size_t>(src_rows_j[cc] - first_j) * ldd;
      const T* ucol = update + static_cast<std::size_t>(cc) * mi;
      for (idx rr = cc; rr < mi; ++rr) {
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
  int nruns = 0;
  for (idx rr = 0; rr < mi && nruns >= 0;) {
    const idx start = rr;
    idx prev = rel_rows[static_cast<std::size_t>(rr)];
    for (++rr; rr < mi && rel_rows[static_cast<std::size_t>(rr)] == prev + 1;
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
  for (idx cc = 0; cc < mj; ++cc) {
    T* dcol = dest + static_cast<std::size_t>(src_rows_j[cc] - first_j) * ldd;
    const T* ucol = update + static_cast<std::size_t>(cc) * mi;
    if (nruns >= 0) {
      for (int r = 0; r < nruns; ++r) {
        T* d = dcol + run_dst[r];
        const T* u = ucol + run_start[r];
        const idx len = run_len[r];
        for (idx i = 0; i < len; ++i) d[i] += u[i];
      }
    } else {
      for (idx rr = 0; rr < mi; ++rr) {
        dcol[rel_rows[static_cast<std::size_t>(rr)]] += ucol[rr];
      }
    }
  }
}

}  // namespace

template <typename T>
void apply_block_mod_to(const BlockStructure& bs, const BlockMod& m,
                        const T* src_i, const T* src_j, T* dest,
                        UpdateScratch& update, std::vector<idx>& rel_rows,
                        double* scatter_s) {
  // Key the BMOD injection site on the mod's (dest, src_a, src_b) triple so
  // the decision is identical across engines, thread counts, placements and
  // element types.
  SPC_FAULT_POINT(fault::Site::kKernel,
                  (static_cast<std::uint64_t>(m.dest) << 42) ^
                      (static_cast<std::uint64_t>(m.src_a) << 21) ^
                      static_cast<std::uint64_t>(m.src_b),
                  "BMOD");
  const idx nb = bs.num_block_cols();
  const idx mi = bs.blkcnt[static_cast<std::size_t>(m.src_a - nb)];
  const idx mj = bs.blkcnt[static_cast<std::size_t>(m.src_b - nb)];
  const idx w = bs.part.width(m.col_k);
  const bool diag = is_diag_block(bs, m.dest);
  const idx ldd = diag ? bs.part.width(static_cast<idx>(m.dest))
                       : bs.blkcnt[static_cast<std::size_t>(m.dest - nb)];
  const BmodPlacement p = place_block_mod(bs, m);
  if (p.in_place) {
    gemm_nt_minus_raw<T>(mi, mj, w, src_i, mi, src_j, mj,
                         dest + static_cast<std::size_t>(p.c0) * ldd + p.r0, ldd);
    return;
  }
  T* u = update.get<T>(static_cast<i64>(mi) * mj);
  gemm_nt_neg_raw<T>(mi, mj, w, src_i, mi, src_j, mj, u, mi);  // u = -L_IK L_JK^T
  const auto t0 = scatter_s ? std::chrono::steady_clock::now()
                            : std::chrono::steady_clock::time_point{};
  if (!diag) {
    relative_positions(bs.entry_rows_begin(m.src_a - nb), bs.entry_rows_end(m.src_a - nb),
                       bs.entry_rows_begin(m.dest - nb), bs.entry_rows_end(m.dest - nb),
                       rel_rows);
  }
  scatter_block_mod<T>(bs, m, u, mi, mj, rel_rows, dest, ldd);
  if (scatter_s) {
    *scatter_s +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  }
}

template <typename T>
void complete_block(const BlockStructure& bs, block_id b, const BlockArena<T>& f,
                    PivotEnv& pivots) {
  if (is_diag_block(bs, b)) {
    SPC_FAULT_POINT(fault::Site::kKernel, b, "BFAC");
    const idx w = bs.part.width(static_cast<idx>(b));
    std::vector<idx> adjusted;
    double first_bad = 0.0;
    if (potrf_lower_guarded<T>(w, f.block(b), w, pivots.control(), 0, adjusted,
                               &first_bad) > 0) {
      pivots.on_block_pivots(b, adjusted, first_bad);
    }
    return;
  }
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
  const idx w = bs.part.width(lo);
  const idx rows = bs.blkcnt[static_cast<std::size_t>(e)];
  trsm_right_ltrans<T>(rows, w, f.block(lo), w, f.block(b), rows);  // BDIV
}

template <typename T>
BlockFactor block_factorize(const SymSparse& a, const BlockStructure& bs,
                            const TaskGraph& tg, const FactorizeOptions& opt,
                            FactorizeInfo* info) {
  SPC_CHECK(a.num_rows() == bs.part.num_cols(),
            "block_factorize: matrix/structure size mismatch");
  if (info != nullptr) info->reset();
  const idx nb = bs.num_block_cols();
  const BlockArenaLayout layout = compute_block_arena_layout(bs);
  FactorArena<T> arena(bs, layout, opt.budget);
  const BlockArena<T>& f = arena.blocks();
  for (idx j = 0; j < nb; ++j) init_block_column(a, bs, j, f);

  // Right-looking sweep: factor column K, then push its updates. The sweep
  // completes block columns in ascending order, so the first strict pivot
  // failure is the minimal failing column.
  UpdateScratch update;
  std::vector<idx> rel_rows;
  PivotEnv pivots(bs, make_pivot_control(a, opt), /*deferred=*/false);
  std::size_t cursor = 0;
  for (idx k = 0; k < nb; ++k) {
    // Supernode-boundary deadline check: one clock read per block column.
    governor::Deadline::check(opt.deadline, "factorize");
    complete_block(bs, k, f, pivots);  // BFAC(K,K)
    for (i64 e = bs.blkptr[k]; e < bs.blkptr[k + 1]; ++e) {
      complete_block(bs, nb + e, f, pivots);  // BDIV(I,K)
    }
    for (; cursor < tg.mods.size() && tg.mods[cursor].col_k == k; ++cursor) {
      const BlockMod& m = tg.mods[cursor];
      apply_block_mod_to(bs, m, f.block(m.src_a), f.block(m.src_b),
                         f.block(m.dest), update, rel_rows);  // BMOD(I,J,K)
    }
  }
  SPC_CHECK(cursor == tg.mods.size(), "block_factorize: mods not consumed");
  pivots.export_info(info);
  if (info != nullptr) info->fp32 = std::is_same_v<T, float>;
  return arena.release();
}

// The two element types of the block engine.
#define SPC_BLOCK_ENGINE(T)                                                    \
  template class FactorArena<T>;                                               \
  template void init_block_column<T>(const SymSparse&, const BlockStructure&,  \
                                     idx, const BlockArena<T>&);               \
  template void apply_block_mod_to<T>(const BlockStructure&, const BlockMod&,  \
                                      const T*, const T*, T*, UpdateScratch&,  \
                                      std::vector<idx>&, double*);             \
  template void complete_block<T>(const BlockStructure&, block_id,            \
                                  const BlockArena<T>&, PivotEnv&);            \
  template BlockFactor block_factorize<T>(const SymSparse&,                    \
                                          const BlockStructure&,               \
                                          const TaskGraph&,                    \
                                          const FactorizeOptions&,             \
                                          FactorizeInfo*);
SPC_BLOCK_ENGINE(double)
SPC_BLOCK_ENGINE(float)
#undef SPC_BLOCK_ENGINE

}  // namespace spc
