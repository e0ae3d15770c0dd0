// Block-partition validators (rules "blocks.cover", "blocks.nesting",
// "blocks.width-cap").
//
// check_block_structure (check_symbolic.cpp) validates the assembled
// BlockStructure against the symbolic factor; the rules here validate the
// *partition* against the contract every downstream consumer relies on,
// whichever builder produced the boundaries. Staged like every validator in
// this directory: sizes first, then ranges, then the cross-derivations, with
// early returns so corrupt input never faults the checker.
#include <sstream>

#include "check/check.hpp"

namespace spc::check {

Report check_blocking(const SymbolicFactor& sf, const BlockPartition& part,
                      idx width_cap) {
  Report r;
  const idx n = sf.sn.num_cols();

  if (width_cap < 1) {
    r.error("blocks.width-cap", "width cap must be >= 1, got " +
                                    std::to_string(width_cap));
    return r;
  }

  // Stage 1: the boundaries cover [0, n) with strictly increasing cuts.
  if (part.first_col.empty() || part.first_col.front() != 0 ||
      part.first_col.back() != n) {
    std::ostringstream os;
    os << "block boundaries do not cover [0, " << n << ")";
    r.error("blocks.cover", os.str());
    return r;
  }
  const idx nb = part.count();
  for (idx b = 0; b < nb; ++b) {
    if (part.first_col[static_cast<std::size_t>(b) + 1] <=
        part.first_col[static_cast<std::size_t>(b)]) {
      std::ostringstream os;
      os << "boundary " << b + 1 << " does not advance ("
         << part.first_col[static_cast<std::size_t>(b)] << " -> "
         << part.first_col[static_cast<std::size_t>(b) + 1] << ")";
      r.error("blocks.cover", os.str());
      return r;
    }
  }
  if (static_cast<idx>(part.sn_of_block.size()) != nb) {
    r.error("blocks.cover", "sn_of_block not sized to the block count");
    return r;
  }

  // Stage 2: no block wider than the policy's cap.
  for (idx b = 0; b < nb; ++b) {
    if (part.width(b) > width_cap) {
      std::ostringstream os;
      os << "block " << b << " is " << part.width(b)
         << " columns wide, cap is " << width_cap;
      r.error("blocks.width-cap", os.str());
      return r;
    }
  }

  // Stage 3: every supernode is tiled exactly by a consecutive run of
  // blocks — each block nests inside the supernode it claims, and the
  // supernode boundaries themselves are block boundaries.
  idx b = 0;
  for (idx s = 0; s < sf.num_supernodes(); ++s) {
    const idx sn_first = sf.sn.first_col[static_cast<std::size_t>(s)];
    const idx sn_end = sf.sn.first_col[static_cast<std::size_t>(s) + 1];
    idx col = sn_first;
    if (b >= nb || part.first_col[static_cast<std::size_t>(b)] != sn_first) {
      std::ostringstream os;
      os << "supernode " << s << " does not start on a block boundary at "
         << "column " << sn_first;
      r.error("blocks.nesting", os.str());
      return r;
    }
    while (col < sn_end) {
      if (b >= nb) {
        std::ostringstream os;
        os << "blocks run out before supernode " << s << " is covered";
        r.error("blocks.nesting", os.str());
        return r;
      }
      if (part.sn_of_block[static_cast<std::size_t>(b)] != s) {
        std::ostringstream os;
        os << "block " << b << " claims supernode "
           << part.sn_of_block[static_cast<std::size_t>(b)]
           << " while tiling supernode " << s;
        r.error("blocks.nesting", os.str());
        return r;
      }
      const idx block_end = part.first_col[static_cast<std::size_t>(b) + 1];
      if (block_end > sn_end) {
        std::ostringstream os;
        os << "block " << b << " ends at column " << block_end
           << ", crossing the boundary of supernode " << s << " at "
           << sn_end;
        r.error("blocks.nesting", os.str());
        return r;
      }
      col = block_end;
      ++b;
    }
  }
  if (b != nb) {
    std::ostringstream os;
    os << nb - b << " trailing block(s) past the last supernode";
    r.error("blocks.nesting", os.str());
    return r;
  }
  return r;
}

}  // namespace spc::check
