// Factorization engine comparison in the spirit of the authors' earlier
// study ("An evaluation of left-looking, right-looking, and multifrontal
// approaches to sparse Cholesky factorization", paper ref [13]): host
// wall-clock of the right-looking and multifrontal engines and the
// shared-memory executor at 4 threads over the benchmark suite, plus the
// multifrontal working-set peak.
#include <chrono>
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "factor/multifrontal.hpp"
#include "factor/parallel_factor.hpp"
#include "factor/residual.hpp"
#include "support/table.hpp"

namespace {

template <typename F>
double time_seconds(F&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace

int main() {
  using namespace spc;
  // Numeric factorization at full paper scale takes minutes per matrix on
  // one host core; this bench always uses the scaled suite unless SPC_FULL
  // is set explicitly.
  const SuiteScale scale = suite_scale_from_env();
  std::printf("Numeric factorization engines (host wall-clock)\n");
  bench::print_scale_banner(scale);

  Table t({"Matrix", "right-look (s)", "multifrontal (s)",
           "threads=4 (s)", "mf peak (MB)", "residual"});
  for (const char* name : {"GRID150", "CUBE30", "BCSSTK15", "BCSSTK29"}) {
    const bench::Prepared p = bench::prepare(make_bench_matrix(name, scale));
    const SymSparse& a = p.chol.permuted_matrix();
    const BlockStructure& bs = p.chol.structure();
    BlockFactor f;
    const double t_right =
        time_seconds([&] { f = block_factorize(a, bs, p.chol.task_graph()); });
    const double t_mf = time_seconds(
        [&] { f = block_factorize_multifrontal(a, bs, p.chol.symbolic()); });
    const double t_par = time_seconds([&] {
      f = block_factorize_parallel(a, bs, p.chol.task_graph(),
                                   ParallelFactorOptions{4});
    });
    t.new_row();
    t.add(p.name);
    t.add(t_right, 3);
    t.add(t_mf, 3);
    t.add(t_par, 3);
    t.add(static_cast<double>(multifrontal_peak_entries(p.chol.symbolic())) * 8 / 1e6,
          1);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1e", factor_residual_probe(a, f));
    t.add(std::string(buf));
  }
  t.print(std::cout);
  std::printf(
      "\nAll engines produce the same factor (see tests); they differ in\n"
      "schedule and working set. The simulator's timing model is calibrated\n"
      "to the paper's Paragon, not to these host timings.\n");
  return 0;
}
