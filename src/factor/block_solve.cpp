#include "factor/block_solve.hpp"

#include "factor/parallel_solve.hpp"
#include "support/error.hpp"

namespace spc {

std::vector<double> block_solve(const BlockFactor& f, const std::vector<double>& b) {
  SPC_CHECK(static_cast<idx>(b.size()) == f.structure->part.num_cols(),
            "block_solve: size mismatch");
  std::vector<double> x = b;
  block_solve_panel(f, x.data(), 1);
  return x;
}

}  // namespace spc
