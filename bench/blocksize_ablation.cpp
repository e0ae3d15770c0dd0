// Block size ablation: reproduces the §3.1/§5 uniform block size
// discussion. B=48 balances single-node efficiency (bigger blocks amortize
// the fixed per-op cost) against concurrency (smaller blocks expose more
// parallel tasks). It sweeps B and reports simulated performance, plus the
// critical path that shows the concurrency loss at large B.
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "gen/benchmark_suite.hpp"
#include "sim/critical_path.hpp"
#include "support/table.hpp"

namespace {

using namespace spc;

void uniform_sweep(SuiteScale scale) {
  std::printf("Uniform block size ablation (S3.1/S5), P=64, ID/CY mapping\n");
  for (const char* name : {"GRID300", "CUBE30"}) {
    std::printf("%s\n", name);
    Table t({"B", "block cols", "MF (P=64)", "efficiency", "t_cp (s)",
             "overall bal."});
    for (idx b : {8, 16, 24, 48, 96, 144}) {
      const bench::Prepared p =
          bench::prepare(make_bench_matrix(name, scale), b);
      const ParallelPlan plan = p.chol.plan_parallel(
          64, RemapHeuristic::kIncreasingDepth, RemapHeuristic::kCyclic);
      const SimResult r = p.chol.simulate(plan);
      const CriticalPathResult cp =
          critical_path(p.chol.structure(), p.chol.task_graph());
      t.new_row();
      t.add(static_cast<long long>(b));
      t.add(static_cast<long long>(p.chol.structure().num_block_cols()));
      t.add(r.mflops(p.chol.factor_flops_exact()), 0);
      t.add(r.efficiency(), 2);
      t.add(cp.critical_path_s, 4);
      t.add(plan.balance.overall, 2);
    }
    t.print(std::cout);
    std::printf("\n");
  }
  std::printf(
      "Expected shape: performance peaks at an intermediate B (the paper uses\n"
      "48); small B loses to per-op overhead, large B loses concurrency (the\n"
      "critical path grows) and load balance.\n\n");
}

}  // namespace

int main() {
  const SuiteScale scale = suite_scale_from_env();
  bench::print_scale_banner(scale);
  uniform_sweep(scale);
  return 0;
}
