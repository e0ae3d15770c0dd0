// Shared-memory parallel factorization scaling: the work-stealing executor
// across thread counts, with and without subtree affinity, against the
// serial right-looking engine, on a regular 3-D grid problem and an
// irregular LP normal-equations problem (the two families of the paper's
// test suite), at block sizes B = 48 and 64. The executor runs through one
// reused ParallelWorkspace.
//
// Reported per matrix: the analyze (symbolic) time separately from numeric
// factorization, the executor's speedup over the serial engine, its parallel
// efficiency t1/(tP*P), and the per-phase breakdown
// (BFAC/BDIV/BMOD-compute/scatter/init/idle) at each thread count.
//
// Thread counts default to 1,2,4,8; override with SPC_THREADS=N[,N...].
// Writes BENCH_parallel.json to the repo root (override with
// --json-out=PATH). SPC_SMALL=1 shrinks the problems for a sanity pass.
//
// On a host pinned to one core the thread sweep measures scheduling +
// locking overhead and kernel speed, not true parallel speedup; the host's
// core count is recorded in the JSON for exactly that reason.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "cholesky/sparse_cholesky.hpp"
#include "factor/parallel_factor.hpp"
#include "factor/residual.hpp"
#include "gen/grid_gen.hpp"
#include "gen/lp_gen.hpp"
#include "linalg/kernels.hpp"

#ifndef SPC_REPO_ROOT
#define SPC_REPO_ROOT "."
#endif

namespace {

using namespace spc;

template <typename F>
double median_seconds(F&& fn, int reps) {
  std::vector<double> t(reps);
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    t[r] = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
               .count();
  }
  std::sort(t.begin(), t.end());
  return t[reps / 2];
}

std::vector<int> thread_counts_from_env() {
  std::vector<int> counts;
  if (const char* env = std::getenv("SPC_THREADS")) {
    int v = 0;
    for (const char* p = env;; ++p) {
      if (*p >= '0' && *p <= '9') {
        v = v * 10 + (*p - '0');
      } else {
        if (v > 0) counts.push_back(v);
        v = 0;
        if (*p == '\0') break;
      }
    }
  }
  // The default sweep is host-gated: counts above the hardware thread count
  // are oversubscription noise (an explicit SPC_THREADS list is honored
  // verbatim for deliberate oversubscription runs).
  if (counts.empty()) counts = bench::gated_thread_counts({1, 2, 4, 8});
  return counts;
}

struct Run {
  int threads;
  double none_s;      // executor, affinity off (pure work stealing)
  double new_s;       // executor, subtree affinity (the default)
  double efficiency;  // t1 / (tP * P) of the executor (affinity on)
  ParallelProfile::Worker phases;       // summed over workers (affinity on)
  ParallelProfile::Worker phases_none;  // summed over workers (affinity off)
  i64 steals;                           // affinity on
  i64 steals_none;                      // affinity off
  i64 affinity_hits;
  i64 below_frontier_steals;
};

struct MatrixResult {
  std::string name;
  idx n;
  idx block_size;
  i64 flops;
  double analyze_s;  // symbolic phase (ordering..task graph), once
  double serial_s;   // sequential block_factorize
  std::vector<Run> runs;
};

MatrixResult bench_matrix(const std::string& name, const SymSparse& a,
                          idx block_size, const std::vector<int>& threads_list,
                          int reps) {
  SolverOptions sopt;
  sopt.block_size = block_size;

  MatrixResult res;
  res.name = name;
  res.n = a.num_rows();
  res.block_size = block_size;

  // Analyze (symbolic) time, reported separately from numeric factorization.
  SparseCholesky chol = SparseCholesky::analyze(a, sopt);
  res.analyze_s =
      median_seconds([&] { chol = SparseCholesky::analyze(a, sopt); }, reps);
  const SymSparse& ap = chol.permuted_matrix();
  const BlockStructure& bs = chol.structure();
  const TaskGraph& tg = chol.task_graph();
  res.flops = chol.factor_flops_exact();

  BlockFactor f;
  res.serial_s = median_seconds([&] { f = block_factorize(ap, bs, tg); }, reps);
  const double residual = factor_residual_probe(ap, f);

  std::printf(
      "%-10s B=%-3lld n=%-7lld flops=%.3g  analyze %.3fs  serial %.3fs  "
      "residual %.1e\n",
      name.c_str(), static_cast<long long>(block_size),
      static_cast<long long>(res.n), static_cast<double>(res.flops),
      res.analyze_s, res.serial_s, residual);

  // One workspace for the whole sweep: after the first run at the largest
  // thread count has grown the scratch, repeated factorizations reuse it.
  ParallelWorkspace ws(bs, tg);

  double new_1t = 0;
  for (int threads : threads_list) {
    Run run{};
    run.threads = threads;

    // Affinity off: pure work stealing, what the subtree partition is
    // measured against.
    ParallelFactorOptions none_opt{threads};
    none_opt.affinity = ParallelFactorOptions::Affinity::kNone;
    run.none_s = median_seconds(
        [&] { f = block_factorize_parallel(ap, bs, tg, none_opt, &ws); }, reps);
    {
      ParallelProfile prof;
      none_opt.profile = &prof;
      f = block_factorize_parallel(ap, bs, tg, none_opt, &ws);
      run.phases_none = prof.total();
      run.steals_none = prof.steals;
    }

    // Subtree affinity (the default policy).
    ParallelFactorOptions new_opt{threads};
    run.new_s = median_seconds(
        [&] { f = block_factorize_parallel(ap, bs, tg, new_opt, &ws); }, reps);

    // One profiled run for the phase breakdown (timer overhead excluded from
    // the timings above).
    ParallelProfile prof;
    new_opt.profile = &prof;
    f = block_factorize_parallel(ap, bs, tg, new_opt, &ws);
    run.phases = prof.total();
    run.steals = prof.steals;
    run.affinity_hits = run.phases.affinity_hits;
    run.below_frontier_steals = run.phases.below_frontier_steals;

    if (threads == 1) new_1t = run.new_s;
    run.efficiency =
        (new_1t > 0 && run.new_s > 0) ? new_1t / (run.new_s * threads) : 0.0;

    std::printf(
        "  threads=%d  affinity-off %.3fs  affinity %.3fs  "
        "speedup-over-serial %.2fx  eff %.2f\n"
        "    [gemm %.3fs (off: %.3fs) scatter %.3fs idle %.3fs  "
        "steals %lld (off: %lld)  "
        "pinned-hits %lld  frontier-violations %lld]\n",
        threads, run.none_s, run.new_s, res.serial_s / run.new_s,
        run.efficiency, run.phases.bmod_compute_s,
        run.phases_none.bmod_compute_s, run.phases.scatter_s,
        run.phases.idle_s, static_cast<long long>(run.steals),
        static_cast<long long>(run.steals_none),
        static_cast<long long>(run.affinity_hits),
        static_cast<long long>(run.below_frontier_steals));
    res.runs.push_back(run);
  }
  return res;
}

void write_json(const std::string& path,
                const std::vector<MatrixResult>& results) {
  std::FILE* jf = std::fopen(path.c_str(), "w");
  if (!jf) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return;
  }
  std::fprintf(jf, "{\n  \"bench\": \"parallel_scaling\",\n");
  std::fprintf(jf, "  \"host_hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(jf, "  \"isa\": \"%s\",\n", kernel_isa_name(kernel_isa()));
  std::fprintf(jf, "  \"affinity\": \"subtree\",\n");
  std::fprintf(jf,
               "  \"impl\": \"work-stealing executor (lock-free deques, "
               "arena storage, in-place drains) + packed/tiled "
               "kernels\",\n");
  std::fprintf(jf, "  \"matrices\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const MatrixResult& m = results[i];
    std::fprintf(jf,
                 "    {\"name\": \"%s\", \"n\": %lld, \"block_size\": %lld, "
                 "\"factor_flops\": %lld, \"analyze_s\": %.4f, "
                 "\"serial_s\": %.4f,\n     \"runs\": [\n",
                 m.name.c_str(), static_cast<long long>(m.n),
                 static_cast<long long>(m.block_size),
                 static_cast<long long>(m.flops), m.analyze_s, m.serial_s);
    for (std::size_t r = 0; r < m.runs.size(); ++r) {
      const Run& run = m.runs[r];
      std::fprintf(
          jf,
          "       {\"threads\": %d, "
          "\"affinity_none_s\": %.4f, \"new_s\": %.4f, "
          "\"speedup_over_serial\": %.3f, \"efficiency\": %.3f,\n"
          "        \"phases\": "
          "{\"init_s\": %.4f, \"bfac_s\": %.4f, \"bdiv_s\": %.4f, "
          "\"bmod_compute_s\": %.4f, \"scatter_s\": %.4f, \"idle_s\": %.4f, "
          "\"batches\": %lld, \"mods\": %lld, \"steals\": %lld, "
          "\"steals_affinity_none\": %lld, "
          "\"bmod_compute_affinity_none_s\": %.4f, \"affinity_hits\": %lld, "
          "\"below_frontier_steals\": %lld}}%s\n",
          run.threads, run.none_s, run.new_s, m.serial_s / run.new_s,
          run.efficiency, run.phases.init_s,
          run.phases.bfac_s, run.phases.bdiv_s, run.phases.bmod_compute_s,
          run.phases.scatter_s, run.phases.idle_s,
          static_cast<long long>(run.phases.batches),
          static_cast<long long>(run.phases.mods),
          static_cast<long long>(run.steals),
          static_cast<long long>(run.steals_none),
          run.phases_none.bmod_compute_s,
          static_cast<long long>(run.affinity_hits),
          static_cast<long long>(run.below_frontier_steals),
          r + 1 < m.runs.size() ? "," : "");
    }
    std::fprintf(jf, "     ]}%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(jf, "  ]\n}\n");
  std::fclose(jf);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = std::string(SPC_REPO_ROOT) + "/BENCH_parallel.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json-out=", 11) == 0) json_path = argv[i] + 11;
  }
  const bool small = std::getenv("SPC_SMALL") != nullptr;
  const int reps = small ? 1 : 3;
  const idx cube = small ? 12 : 30;
  LpGenOptions lp;
  lp.n = small ? 1500 : 10000;
  lp.mean_overlap = small ? 60 : 200;
  lp.hubs = small ? 20 : 80;
  lp.hub_span = 0.05;

  const std::vector<int> threads_list = thread_counts_from_env();
  std::string tl;
  for (int t : threads_list) {
    if (!tl.empty()) tl += ',';
    tl += std::to_string(t);
  }
  std::printf("Parallel factorization scaling (threads %s, host cores %u)\n%s\n",
              tl.c_str(), std::thread::hardware_concurrency(),
              small ? "scale: SMALL (sanity)" : "scale: default");

  const SymSparse cube_m = make_grid3d(cube, cube, cube);
  const SymSparse lp_m = make_lp_normal_equations(lp);
  const std::string cube_name =
      "CUBE" + std::to_string(cube) + "x" + std::to_string(cube) + "x" +
      std::to_string(cube);
  const std::string lp_name = "LP" + std::to_string(lp.n);

  std::vector<MatrixResult> results;
  for (idx b : {idx{48}, idx{64}}) {
    results.push_back(bench_matrix(cube_name, cube_m, b, threads_list, reps));
    results.push_back(bench_matrix(lp_name, lp_m, b, threads_list, reps));
  }

  write_json(json_path, results);
  return 0;
}
