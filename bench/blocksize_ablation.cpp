// Block size / blocking policy ablation.
//
// Part 1 reproduces the §3.1/§5 uniform block size discussion: B=48 balances
// single-node efficiency (bigger blocks amortize the fixed per-op cost)
// against concurrency (smaller blocks expose more parallel tasks). It sweeps
// B and reports simulated performance, plus the critical path that shows the
// concurrency loss at large B.
//
// Part 2 measures the structure-aware blocking policy (blocks/blocking.hpp,
// docs/BLOCKING.md) against uniform B=48/64 on the two matrix families of
// the paper's suite: real numeric-factor wall clock at 1 thread (the kernel
// throughput story), a host-gated multi-thread sweep, and the recomputed
// balance statistics of a P=64 ID/CY plan (the load-distribution story).
// Writes BENCH_blocking.json to the repo root (override with
// --json-out=PATH); host thread count is recorded so multicore reruns are
// comparable.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "factor/parallel_factor.hpp"
#include "factor/residual.hpp"
#include "gen/benchmark_suite.hpp"
#include "sim/critical_path.hpp"
#include "support/table.hpp"

#ifndef SPC_REPO_ROOT
#define SPC_REPO_ROOT "."
#endif

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

// --- Part 2: blocking policy ablation + BENCH_blocking.json -----------------

struct ThreadRun {
  int threads;
  double factor_s;
};

struct ConfigResult {
  std::string label;
  BlockingPolicy policy;
  idx block_size, block_cap;
  idx block_cols;
  i64 block_ops;
  double analyze_s;
  double serial_s;   // sequential block_factorize
  double par1_s;     // work-stealing executor, 1 thread (production path)
  double mflops_1t;  // factor flops / par1_s
  BalanceStats balance;
  std::vector<ThreadRun> runs;  // host-gated >= 2-thread sweep
};

struct MatrixBlockingResult {
  std::string name;
  idx n;
  i64 flops;
  std::vector<ConfigResult> configs;
};

// One prepared configuration plus its timing samples. Wall-clock reps are
// interleaved ACROSS configurations (rep 0 of every config, then rep 1, ...)
// so slow drift in the host's available cycles — this runs on shared,
// oversubscribed machines — biases every config equally instead of
// penalizing whichever one happens to run last.
struct ConfigCtx {
  ConfigResult c;
  bench::Prepared p;
  std::vector<double> serial_t, par1_t;
  std::vector<std::vector<double>> thread_t;  // parallel [gated thread idx]

  ConfigCtx(const char* label, const BenchMatrix& bm, SolverOptions opt)
      : p([&] {
          BenchMatrix copy = bm;  // prepare_opt consumes the matrix
          return bench::prepare_opt(std::move(copy), opt);
        }()) {
    c.label = label;
    c.policy = opt.blocking;
    c.block_size = opt.block_size;
    c.block_cap = opt.blocking_options().width_cap();
    c.block_cols = p.chol.structure().num_block_cols();
    c.block_ops = p.chol.task_graph().total_ops();
  }
};

double median_of(std::vector<double> t) {
  std::sort(t.begin(), t.end());
  return t[t.size() / 2];
}

template <typename F>
double time_once(F&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::vector<ConfigResult> bench_configs(
    const BenchMatrix& bm,
    const std::vector<std::pair<const char*, SolverOptions>>& specs, int reps,
    const std::vector<int>& gated_threads) {
  std::vector<ConfigCtx> ctx;
  for (const auto& [label, opt] : specs) {
    const auto t0 = std::chrono::steady_clock::now();
    ctx.emplace_back(label, bm, opt);
    ctx.back().c.analyze_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  }

  std::vector<int> multi_threads;
  for (int t : gated_threads)
    if (t > 1) multi_threads.push_back(t);

  std::vector<BlockFactor> f(ctx.size());
  std::vector<std::unique_ptr<ParallelWorkspace>> ws;
  for (ConfigCtx& x : ctx) {
    x.thread_t.resize(multi_threads.size());
    ws.push_back(std::make_unique<ParallelWorkspace>(x.p.chol.structure(),
                                                     x.p.chol.task_graph()));
  }

  for (int rep = 0; rep < reps; ++rep) {
    for (std::size_t i = 0; i < ctx.size(); ++i) {
      ConfigCtx& x = ctx[i];
      const SymSparse& ap = x.p.chol.permuted_matrix();
      const BlockStructure& bs = x.p.chol.structure();
      const TaskGraph& tg = x.p.chol.task_graph();
      x.serial_t.push_back(time_once([&] { f[i] = block_factorize(ap, bs, tg); }));
      x.par1_t.push_back(time_once([&] {
        f[i] = block_factorize_parallel(ap, bs, tg, ParallelFactorOptions{1},
                                        ws[i].get());
      }));
      for (std::size_t k = 0; k < multi_threads.size(); ++k) {
        x.thread_t[k].push_back(time_once([&] {
          f[i] = block_factorize_parallel(
              ap, bs, tg, ParallelFactorOptions{multi_threads[k]}, ws[i].get());
        }));
      }
    }
  }

  std::vector<ConfigResult> out;
  for (std::size_t i = 0; i < ctx.size(); ++i) {
    ConfigCtx& x = ctx[i];
    ConfigResult& c = x.c;
    c.serial_s = median_of(x.serial_t);
    c.par1_s = median_of(x.par1_t);
    c.mflops_1t =
        static_cast<double>(x.p.chol.factor_flops_exact()) / c.par1_s / 1e6;
    const double residual = factor_residual_probe(x.p.chol.permuted_matrix(), f[i]);
    for (std::size_t k = 0; k < multi_threads.size(); ++k) {
      c.runs.push_back(ThreadRun{multi_threads[k], median_of(x.thread_t[k])});
    }
    const ParallelPlan plan = x.p.chol.plan_parallel(
        64, RemapHeuristic::kIncreasingDepth, RemapHeuristic::kCyclic);
    c.balance = plan.balance;

    std::printf(
        "  %-22s cols=%-5lld ops=%-7lld analyze %.3fs  serial %.3fs  1t %.3fs "
        "(%.0f MF/s)  bal %.3f  residual %.1e\n",
        c.label.c_str(), static_cast<long long>(c.block_cols),
        static_cast<long long>(c.block_ops), c.analyze_s, c.serial_s, c.par1_s,
        c.mflops_1t, c.balance.overall, residual);
    for (const ThreadRun& run : c.runs) {
      std::printf("    %d threads: %.3fs (speedup %.2fx)\n", run.threads,
                  run.factor_s, c.par1_s / run.factor_s);
    }
    out.push_back(std::move(c));
  }
  return out;
}

void write_json(const std::string& path, SuiteScale scale,
                const std::vector<MatrixBlockingResult>& results) {
  std::FILE* jf = std::fopen(path.c_str(), "w");
  if (!jf) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return;
  }
  std::fprintf(jf, "{\n  \"bench\": \"blocking_ablation\",\n");
  std::fprintf(jf, "  \"host_hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(jf, "  \"scale\": \"%s\",\n",
               scale == SuiteScale::kFull
                   ? "full"
                   : (scale == SuiteScale::kMedium ? "medium" : "small"));
  std::fprintf(jf, "  \"matrices\": [\n");
  double log_speedup48 = 0, log_speedup64 = 0;
  int speedup_count = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const MatrixBlockingResult& m = results[i];
    std::fprintf(jf,
                 "    {\"name\": \"%s\", \"n\": %lld, \"factor_flops\": %lld,\n"
                 "     \"configs\": [\n",
                 m.name.c_str(), static_cast<long long>(m.n),
                 static_cast<long long>(m.flops));
    const ConfigResult* u48 = nullptr;
    const ConfigResult* u64 = nullptr;
    const ConfigResult* sn = nullptr;
    for (std::size_t k = 0; k < m.configs.size(); ++k) {
      const ConfigResult& c = m.configs[k];
      if (c.policy == BlockingPolicy::kUniform && c.block_size == 48) u48 = &c;
      if (c.policy == BlockingPolicy::kUniform && c.block_size == 64) u64 = &c;
      if (c.policy == BlockingPolicy::kSupernode) sn = &c;
      std::fprintf(
          jf,
          "       {\"policy\": \"%s\", \"block_size\": %lld, \"block_cap\": "
          "%lld, \"block_cols\": %lld, \"block_ops\": %lld,\n"
          "        \"analyze_s\": %.4f, \"serial_factor_s\": %.4f, "
          "\"parallel1_factor_s\": %.4f, \"mflops_1t\": %.1f,\n"
          "        \"balance\": {\"row\": %.4f, \"col\": %.4f, \"diag\": "
          "%.4f, \"overall\": %.4f},\n"
          "        \"runs\": [",
          blocking_policy_name(c.policy), static_cast<long long>(c.block_size),
          static_cast<long long>(c.block_cap),
          static_cast<long long>(c.block_cols),
          static_cast<long long>(c.block_ops), c.analyze_s, c.serial_s,
          c.par1_s, c.mflops_1t, c.balance.row, c.balance.col, c.balance.diag,
          c.balance.overall);
      for (std::size_t r = 0; r < c.runs.size(); ++r) {
        std::fprintf(jf, "{\"threads\": %d, \"factor_s\": %.4f}%s",
                     c.runs[r].threads, c.runs[r].factor_s,
                     r + 1 < c.runs.size() ? ", " : "");
      }
      std::fprintf(jf, "]}%s\n", k + 1 < m.configs.size() ? "," : "");
    }
    std::fprintf(jf, "     ]");
    if (u48 != nullptr && u64 != nullptr && sn != nullptr) {
      const double s48 = u48->par1_s / sn->par1_s;
      const double s64 = u64->par1_s / sn->par1_s;
      std::fprintf(jf,
                   ",\n     \"supernode_speedup_1t_vs_b48\": %.3f,\n"
                   "     \"supernode_speedup_1t_vs_b64\": %.3f,\n"
                   "     \"supernode_balance_gain_vs_b48\": %.4f",
                   s48, s64, sn->balance.overall - u48->balance.overall);
      log_speedup48 += std::log(s48);
      log_speedup64 += std::log(s64);
      ++speedup_count;
    }
    std::fprintf(jf, "}%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(jf, "  ]");
  if (speedup_count > 0) {
    std::fprintf(jf,
                 ",\n  \"supernode_speedup_1t_geomean_vs_b48\": %.3f,\n"
                 "  \"supernode_speedup_1t_geomean_vs_b64\": %.3f",
                 std::exp(log_speedup48 / speedup_count),
                 std::exp(log_speedup64 / speedup_count));
  }
  std::fprintf(jf, "\n}\n");
  std::fclose(jf);
  std::printf("wrote %s\n", path.c_str());
}

void policy_ablation(SuiteScale scale, const std::string& json_path) {
  std::printf("Blocking policy ablation: uniform B vs structure-aware "
              "supernode blocking\n");
  // Medium-scale factors run ~10ms, where shared-host noise needs many
  // interleaved reps; full-scale runs are seconds and stable.
  const int reps = scale == SuiteScale::kSmall
                       ? 1
                       : (scale == SuiteScale::kMedium ? 25 : 5);
  const std::vector<int> gated_threads =
      bench::gated_thread_counts({1, 2, 4, 8});

  std::vector<MatrixBlockingResult> results;
  for (const char* name : {"CUBE30", "10FLEET"}) {
    const BenchMatrix bm = make_bench_matrix(name, scale);
    MatrixBlockingResult mr;
    mr.name = name;
    mr.n = bm.matrix.num_rows();
    std::printf("%s (%lld equations)\n", name, static_cast<long long>(mr.n));

    SolverOptions u48;
    u48.block_size = 48;
    SolverOptions u64o;
    u64o.block_size = 64;
    SolverOptions sn;
    sn.block_size = 48;
    sn.blocking = BlockingPolicy::kSupernode;
    sn.block_cap = 160;

    mr.configs = bench_configs(bm,
                               {{"uniform B=48", u48},
                                {"uniform B=64", u64o},
                                {"supernode (48..160)", sn}},
                               reps, gated_threads);
    {
      // factor_flops is ordering-dependent; recompute once per matrix.
      BenchMatrix copy = bm;
      mr.flops = bench::prepare_opt(std::move(copy), u48).chol.factor_flops_exact();
    }
    results.push_back(std::move(mr));
    std::printf("\n");
  }
  write_json(json_path, scale, results);
}

}  // namespace

int main(int argc, char** argv) {
  const SuiteScale scale = suite_scale_from_env();
  std::string json_path = std::string(SPC_REPO_ROOT) + "/BENCH_blocking.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json-out=", 11) == 0) json_path = argv[i] + 11;
  }
  bench::print_scale_banner(scale);
  uniform_sweep(scale);
  policy_ablation(scale, json_path);
  return 0;
}
