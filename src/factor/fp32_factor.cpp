#include "factor/fp32_factor.hpp"

#include <algorithm>
#include <vector>

#include "linalg/kernels.hpp"
#include "support/error.hpp"
#include "support/fault.hpp"

namespace spc {
namespace {

// Positions of each element of `sub` (ascending) within `super` (ascending,
// superset of sub) — same containment contract as the fp64 engine.
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

// Flat fp32 factor storage over the SAME element offsets as the double
// arena (compute_block_arena_layout counts elements, not bytes). Blocks are
// addressed as column-major views with leading dimension = row count,
// matching the DenseMatrix views attach_block_arena would create.
struct F32Arena {
  explicit F32Arena(const BlockArenaLayout& l,
                    const std::shared_ptr<governor::MemoryBudget>& budget)
      : layout(l) {
    // Same governed-allocation protocol as the fp64 arena: the fault site
    // can simulate failure, and the bytes are charged before allocation so
    // a breach is a typed kResourceExhausted. The charge token releases on
    // destruction (the fp32 arena dies when promotion finishes).
    SPC_FAULT_POINT(fault::Site::kAlloc, l.total, "fp32 arena allocation");
    charge_ = governor::BudgetCharge(budget);
    charge_.add(l.total * static_cast<i64>(sizeof(float)), "factorize");
    try {
      data.assign(static_cast<std::size_t>(l.total), 0.0f);
    } catch (const std::bad_alloc&) {
      throw Error("fp32 arena allocation of " + std::to_string(l.total) +
                      " floats failed",
                  ErrorKind::kResourceExhausted);
    }
  }

  const BlockArenaLayout& layout;
  governor::BudgetCharge charge_;
  std::vector<float> data;  // zero-initialized: init only scatters A

  float* diag(idx j) {
    return data.data() + layout.diag_off[static_cast<std::size_t>(j)];
  }
  float* entry(i64 e) {
    return data.data() + layout.entry_off[static_cast<std::size_t>(e)];
  }
};

// Scatters A's columns of block column j into the (pre-zeroed) fp32 arena.
// Same moving-cursor entry lookup as init_block_column; values are rounded
// to float at the single point they enter the arena.
void init_block_column_f32(const SymSparse& a, const BlockStructure& bs, idx j,
                           F32Arena& f) {
  const auto& ptr = a.col_ptr();
  const auto& rowv = a.row_idx();
  const auto& val = a.values();
  const idx first = bs.part.first_col[j];
  const idx w = bs.part.width(j);
  const idx last = first + w;
  float* diag = f.diag(j);
  for (idx c = first; c < last; ++c) {
    const idx cj = c - first;
    idx cur_bi = -1;
    i64 e = kNone;
    const idx* rows = nullptr;
    const idx* end = nullptr;
    const idx* cursor = nullptr;
    for (i64 k = ptr[static_cast<std::size_t>(c)];
         k < ptr[static_cast<std::size_t>(c) + 1]; ++k) {
      const idx r = rowv[static_cast<std::size_t>(k)];
      const double v = SPC_FAULT_POISON(
          (static_cast<std::uint64_t>(c) << 32) | static_cast<std::uint32_t>(r),
          val[static_cast<std::size_t>(k)]);
      if (bs.part.block_of_col[r] == j) {
        diag[static_cast<std::size_t>(cj) * w + (r - first)] =
            static_cast<float>(v);
        continue;
      }
      const idx bi = bs.part.block_of_col[r];
      if (bi != cur_bi) {
        e = bs.find_entry(j, bi);
        SPC_CHECK(e != kNone, "fp32 factorize: A entry outside factor structure");
        rows = bs.entry_rows_begin(e);
        end = bs.entry_rows_end(e);
        cursor = rows;
        cur_bi = bi;
      }
      const idx* it = std::lower_bound(cursor, end, r);
      if (it == end || *it != r) it = std::lower_bound(rows, end, r);
      SPC_CHECK(it != end && *it == r, "fp32 factorize: A row outside block rows");
      f.entry(e)[static_cast<std::size_t>(cj) * bs.blkcnt[e] +
                 static_cast<idx>(it - rows)] = static_cast<float>(v);
      cursor = it;
    }
  }
}

// One BMOD in fp32: GEMM into scratch, scatter into the destination block.
// Mirrors the fragmented path of apply_block_mod_to (every fp32 mod scatters).
void apply_block_mod_f32(const BlockStructure& bs, const TaskGraph& tg,
                         const BlockMod& m, F32Arena& f,
                         std::vector<float>& update,
                         std::vector<idx>& rel_rows) {
  SPC_FAULT_POINT(fault::Site::kKernel,
                  (static_cast<std::uint64_t>(m.dest) << 42) ^
                      (static_cast<std::uint64_t>(m.src_a) << 21) ^
                      static_cast<std::uint64_t>(m.src_b),
                  "BMOD");
  const idx nb = bs.num_block_cols();
  const i64 ei = m.src_a - nb;
  const i64 ej = m.src_b - nb;
  const idx mi = bs.blkcnt[ei];
  const idx mj = bs.blkcnt[ej];
  const idx w = bs.part.width(tg.col_of_block[static_cast<std::size_t>(m.src_a)]);
  update.resize(static_cast<std::size_t>(mi) * mj);
  // update = -(L_IK * L_JK^T), overwriting the scratch.
  gemm_nt_neg_raw_f32(mi, mj, w, f.entry(ei), mi, f.entry(ej), mj,
                      update.data(), mi);

  const idx* src_rows_i = bs.entry_rows_begin(ei);
  const idx* src_rows_j = bs.entry_rows_begin(ej);
  const idx j = tg.col_of_block[static_cast<std::size_t>(m.dest)];
  const idx first_j = bs.part.first_col[j];
  if (is_diag_block(bs, m.dest)) {
    // I == J: the lower triangle of the destination is exactly rr >= cc.
    const idx wd = bs.part.width(j);
    float* dest = f.diag(j);
    for (idx cc = 0; cc < mj; ++cc) {
      const idx dest_c = src_rows_j[cc] - first_j;
      float* dcol = dest + static_cast<std::size_t>(dest_c) * wd;
      const float* ucol = update.data() + static_cast<std::size_t>(cc) * mi;
      for (idx rr = cc; rr < mi; ++rr) {
        dcol[src_rows_i[rr] - first_j] += ucol[rr];
      }
    }
    return;
  }
  const i64 ed = m.dest - nb;
  relative_positions(src_rows_i, bs.entry_rows_end(ei),
                     bs.entry_rows_begin(ed), bs.entry_rows_end(ed), rel_rows);
  const idx cnt = bs.blkcnt[ed];
  float* dest = f.entry(ed);
  for (idx cc = 0; cc < mj; ++cc) {
    const idx dest_c = src_rows_j[cc] - first_j;
    float* dcol = dest + static_cast<std::size_t>(dest_c) * cnt;
    const float* ucol = update.data() + static_cast<std::size_t>(cc) * mi;
    for (idx rr = 0; rr < mi; ++rr) {
      dcol[rel_rows[static_cast<std::size_t>(rr)]] += ucol[rr];
    }
  }
}

}  // namespace

BlockFactor block_factorize_fp32(const SymSparse& a, const BlockStructure& bs,
                                 const TaskGraph& tg,
                                 const FactorizeOptions& opt,
                                 FactorizeInfo* info) {
  SPC_CHECK(a.num_rows() == bs.part.num_cols(),
            "fp32 factorize: matrix/structure size mismatch");
  if (info != nullptr) info->reset();
  const idx nb = bs.num_block_cols();
  const BlockArenaLayout layout = compute_block_arena_layout(bs);
  F32Arena f(layout, opt.budget);
  for (idx j = 0; j < nb; ++j) init_block_column_f32(a, bs, j, f);

  // Right-looking sweep, structurally identical to block_factorize: BFAC(K),
  // BDIV(I,K) per entry, then every BMOD sourced in column K.
  std::vector<float> update;
  std::vector<idx> rel_rows;
  std::vector<idx> adjusted;
  PivotEnv pivots(bs, make_pivot_control(a, opt), /*deferred=*/false);
  std::size_t cursor = 0;
  for (idx k = 0; k < nb; ++k) {
    // Supernode-boundary deadline check: one clock read per block column.
    governor::Deadline::check(opt.deadline, "factorize");
    SPC_FAULT_POINT(fault::Site::kKernel, k, "BFAC");
    adjusted.clear();
    double first_bad = 0.0;
    const idx w = bs.part.width(k);
    if (potrf_lower_guarded_f32(w, f.diag(k), w, pivots.control(),
                                /*base_col=*/0, adjusted, &first_bad) > 0) {
      pivots.on_block_pivots(k, adjusted, first_bad);
    }
    for (i64 e = bs.blkptr[k]; e < bs.blkptr[k + 1]; ++e) {
      SPC_FAULT_POINT(fault::Site::kKernel, nb + e, "BDIV");
      trsm_right_ltrans_f32(bs.blkcnt[e], w, f.diag(k), w, f.entry(e),
                            bs.blkcnt[e]);
    }
    while (cursor < tg.mods.size() && tg.mods[cursor].col_k == k) {
      apply_block_mod_f32(bs, tg, tg.mods[cursor], f, update, rel_rows);
      ++cursor;
    }
  }
  SPC_CHECK(cursor == tg.mods.size(), "fp32 factorize: mods not consumed");
  pivots.export_info(info);

  // Promote to the standard double factor (exact: float -> double). The
  // arena layouts share element offsets, so promotion is one linear pass.
  BlockFactor out;
  attach_block_arena(bs, layout, out, opt.budget);
  double* dst = out.arena.get();
  for (i64 i = 0; i < layout.total; ++i) {
    dst[i] = static_cast<double>(f.data[static_cast<std::size_t>(i)]);
  }
  if (info != nullptr) info->fp32 = true;
  return out;
}

}  // namespace spc
