#include "blocks/block_structure.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace spc {

i64 BlockStructure::find_entry(idx j, idx i) const {
  SPC_CHECK(i > j, "find_entry: diagonal blocks are implicit");
  const idx* begin = blkrow.data() + blkptr[j];
  const idx* end = blkrow.data() + blkptr[j + 1];
  const idx* it = std::lower_bound(begin, end, i);
  if (it == end || *it != i) return kNone;
  return blkptr[j] + (it - begin);
}

i64 BlockStructure::stored_entries() const {
  i64 total = 0;
  for (idx j = 0; j < num_block_cols(); ++j) {
    const i64 w = part.width(j);
    total += w * (w + 1) / 2 + w * (rowptr[j + 1] - rowptr[j]);
  }
  return total;
}

void BlockStructure::validate() const {
  const idx nb = num_block_cols();
  SPC_CHECK(static_cast<idx>(rowptr.size()) == nb + 1 &&
                static_cast<idx>(blkptr.size()) == nb + 1,
            "BlockStructure: bad pointer array sizes");
  for (idx j = 0; j < nb; ++j) {
    idx prev_row = kNone;
    for (i64 r = rowptr[j]; r < rowptr[j + 1]; ++r) {
      SPC_CHECK(rowidx[r] > prev_row, "BlockStructure: rows not ascending");
      SPC_CHECK(rowidx[r] >= part.first_col[j + 1], "BlockStructure: row above block");
      prev_row = rowidx[r];
    }
    i64 covered = 0;
    idx prev_blk = kNone;
    for (i64 e = blkptr[j]; e < blkptr[j + 1]; ++e) {
      SPC_CHECK(blkrow[e] > prev_blk && blkrow[e] > j,
                "BlockStructure: block rows not ascending");
      SPC_CHECK(blkcnt[e] > 0, "BlockStructure: empty block entry");
      SPC_CHECK(blkoff[e] == rowptr[j] + covered, "BlockStructure: bad offsets");
      SPC_CHECK(covered + blkcnt[e] <= rowptr[j + 1] - rowptr[j],
                "BlockStructure: block entries overrun the column's rows");
      for (idx k = 0; k < blkcnt[e]; ++k) {
        SPC_CHECK(part.block_of_col[rowidx[blkoff[e] + k]] == blkrow[e],
                  "BlockStructure: row in wrong block");
      }
      covered += blkcnt[e];
      prev_blk = blkrow[e];
    }
    SPC_CHECK(covered == rowptr[j + 1] - rowptr[j],
              "BlockStructure: rows not fully covered by blocks");
  }
}

BlockStructure build_block_structure(const SymbolicFactor& sf, idx block_size) {
  return build_block_structure(sf, make_block_partition(sf.sn, block_size));
}

BlockStructure build_block_structure(const SymbolicFactor& sf, BlockPartition part) {
  SPC_CHECK(part.num_cols() == sf.sn.num_cols(),
            "build_block_structure: partition does not cover the matrix");
  BlockStructure bs;
  bs.part = std::move(part);
  const idx nb = bs.part.count();

  bs.rowptr.assign(static_cast<std::size_t>(nb) + 1, 0);
  bs.blkptr.assign(static_cast<std::size_t>(nb) + 1, 0);

  // First pass: count rows per block column.
  for (idx j = 0; j < nb; ++j) {
    const idx s = bs.part.sn_of_block[j];
    const idx sn_end = sf.sn.first_col[s + 1];
    const i64 later_cols = sn_end - bs.part.first_col[j + 1];
    bs.rowptr[static_cast<std::size_t>(j) + 1] =
        bs.rowptr[static_cast<std::size_t>(j)] + later_cols + sf.rows_below(s);
  }
  bs.rowidx.resize(static_cast<std::size_t>(bs.rowptr[static_cast<std::size_t>(nb)]));

  // Second pass: fill rows and group into block entries.
  for (idx j = 0; j < nb; ++j) {
    const idx s = bs.part.sn_of_block[j];
    const idx sn_end = sf.sn.first_col[s + 1];
    i64 w = bs.rowptr[j];
    for (idx c = bs.part.first_col[j + 1]; c < sn_end; ++c) bs.rowidx[w++] = c;
    for (const idx* r = sf.rows_begin(s); r != sf.rows_end(s); ++r) bs.rowidx[w++] = *r;
    SPC_CHECK(w == bs.rowptr[j + 1], "build_block_structure: row fill mismatch");

    // Group consecutive rows by their block row.
    i64 e = bs.rowptr[j];
    while (e < bs.rowptr[j + 1]) {
      const idx i = bs.part.block_of_col[bs.rowidx[e]];
      i64 end = e;
      while (end < bs.rowptr[j + 1] && bs.part.block_of_col[bs.rowidx[end]] == i) ++end;
      bs.blkrow.push_back(i);
      bs.blkoff.push_back(e);
      bs.blkcnt.push_back(static_cast<idx>(end - e));
      e = end;
    }
    bs.blkptr[static_cast<std::size_t>(j) + 1] = static_cast<i64>(bs.blkrow.size());
  }
  return bs;
}

}  // namespace spc
