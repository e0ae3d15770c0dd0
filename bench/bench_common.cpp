#include "bench_common.hpp"

#include <cstdio>
#include <utility>

namespace spc::bench {

Prepared prepare(BenchMatrix bm, idx block_size) {
  SolverOptions opt;
  opt.block_size = block_size;
  opt.ordering = SolverOptions::Ordering::kNatural;  // ordering given below
  std::vector<idx> perm = order_bench_matrix(bm);
  SparseCholesky chol = SparseCholesky::analyze_ordered(bm.matrix, std::move(perm), opt);
  return Prepared{std::move(bm.name), std::move(bm.matrix), std::move(chol)};
}

std::vector<Prepared> prepare_standard_suite(SuiteScale scale, idx block_size) {
  std::vector<Prepared> out;
  for (BenchMatrix& bm : standard_suite(scale)) {
    out.push_back(prepare(std::move(bm), block_size));
  }
  return out;
}

std::vector<Prepared> prepare_large_suite(SuiteScale scale, idx block_size) {
  std::vector<Prepared> out;
  for (BenchMatrix& bm : large_suite(scale)) {
    out.push_back(prepare(std::move(bm), block_size));
  }
  return out;
}

void print_scale_banner(SuiteScale scale) {
  const char* s = scale == SuiteScale::kFull
                      ? "FULL (paper dimensions)"
                      : (scale == SuiteScale::kMedium ? "MEDIUM (scaled down; set SPC_FULL=1 for paper dims)"
                                                      : "SMALL (sanity sizes)");
  std::printf("suite scale: %s\n\n", s);
}

}  // namespace spc::bench
