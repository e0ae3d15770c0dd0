// Shared helpers for the table/figure reproduction benches.
//
// Scale control: benches default to SuiteScale::kMedium (minutes on one
// core); set SPC_FULL=1 in the environment to run the paper's exact problem
// dimensions, or SPC_SMALL=1 for a fast sanity pass.
#pragma once

#include <string>
#include <vector>

#include "cholesky/sparse_cholesky.hpp"
#include "gen/benchmark_suite.hpp"

namespace spc::bench {

struct Prepared {
  std::string name;
  SymSparse a;
  SparseCholesky chol;
};

// Runs the analysis pipeline (paper ordering + B=48 blocks) for one matrix.
Prepared prepare(BenchMatrix bm, idx block_size = 48);

// The Table 1 suite / Table 6 suite, analyzed.
std::vector<Prepared> prepare_standard_suite(SuiteScale scale, idx block_size = 48);
std::vector<Prepared> prepare_large_suite(SuiteScale scale, idx block_size = 48);

// Banner describing the active scale.
void print_scale_banner(SuiteScale scale);

}  // namespace spc::bench
