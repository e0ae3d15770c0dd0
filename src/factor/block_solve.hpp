// One-shot solve with the block factor: A x = b given A = L L^T, in the
// factor's (permuted) ordering. A thin call into the one solve path,
// block_solve_panel of factor/parallel_solve.hpp, run serially on a
// temporary workspace; callers that solve repeatedly keep a SolveWorkspace
// and call block_solve_panel themselves.
#pragma once

#include <vector>

#include "factor/numeric_factor.hpp"

namespace spc {

std::vector<double> block_solve(const BlockFactor& f, const std::vector<double>& b);

}  // namespace spc
