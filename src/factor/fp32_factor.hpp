// Mixed-precision factorization: the numeric factor is computed entirely in
// fp32 (same block structure, same right-looking BFAC/BDIV/BMOD sweep as
// block_factorize, fp32 kernels from linalg/kernels.hpp), then promoted to
// the standard double-precision BlockFactor. Every float is exactly
// representable in double, so the promoted factor is the fp32 factor — the
// existing fp64 solve and iterative-refinement machinery (parallel_solve.hpp)
// applies unchanged, and one or two refinement sweeps against the original
// fp64 matrix recover working double accuracy (docs/ROBUSTNESS.md).
//
// The payoff is factorization speed: fp32 GEMM moves half the bytes and
// packs twice the lanes per vector op, so the dominant BMOD phase runs up
// to ~2x faster on the AVX2/AVX-512 paths.
#pragma once

#include "blocks/block_structure.hpp"
#include "blocks/task_graph.hpp"
#include "factor/numeric_factor.hpp"
#include "graph/graph.hpp"

namespace spc {

// Factors `a` (already permuted to the structure's ordering) in fp32 and
// returns the promoted double BlockFactor. Pivot semantics match
// block_factorize — same threshold (computed in double), same strict /
// perturb policies — but the pivot *values* are fp32 partial results, so a
// barely-SPD matrix can break down here and still factor in fp64; callers
// wanting transparent robustness catch Error(kNotPositiveDefinite) and
// retry with block_factorize (SparseCholesky::factorize does exactly this).
// On success sets info->fp32 (when info is non-null).
BlockFactor block_factorize_fp32(const SymSparse& a, const BlockStructure& bs,
                                 const TaskGraph& tg,
                                 const FactorizeOptions& opt = {},
                                 FactorizeInfo* info = nullptr);

}  // namespace spc
