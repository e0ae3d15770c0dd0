// The analysis' blocking step: every supernode cut at one global B "as close
// to B as possible" (§2.1), the partition of the paper's experiments. An
// analysis is cut once, at construction, and never re-blocked. Variable
// per-supernode widths exist only as make_block_partition_variable
// (blocks/partition.hpp), for the §5 stage-varying experiment. See
// docs/BLOCKING.md.
#pragma once

#include "blocks/partition.hpp"
#include "support/types.hpp"
#include "symbolic/symbolic_factor.hpp"

namespace spc {

struct BlockingOptions {
  idx block_size = 48;  // the paper's B
};

// make_block_partition(sf.sn, opt.block_size): the uniform-B partition.
inline BlockPartition make_blocking(const SymbolicFactor& sf,
                                    const BlockingOptions& opt) {
  return make_block_partition(sf.sn, opt.block_size);
}

}  // namespace spc
