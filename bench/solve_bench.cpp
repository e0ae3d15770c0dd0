// Triangular-solve throughput of the one solve path
// (factor/parallel_solve.hpp): block_solve_multi_parallel on the regular CUBE
// and irregular LP families, across RHS counts 1/4/16/64 and a thread sweep.
// threads = 1 is the serial panel sweeps (the default path of every facade
// solve); >= 2 is the DAG-scheduled executor. Each count reuses one
// SolveWorkspace, and a separately profiled run reports the
// forward/backward/scatter/idle phase split.
//
// Thread counts default to 1,2,4,8; override with SPC_THREADS=N[,N...].
// Writes BENCH_solve.json to the repo root (override with --json-out=PATH).
// SPC_SMALL=1 shrinks the problems for a sanity pass. The host's core count
// is recorded in the JSON: on a host pinned to one core the thread sweep
// measures scheduling overhead, not parallel speedup.
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
#include "factor/parallel_solve.hpp"
#include "factor/residual.hpp"
#include "gen/grid_gen.hpp"
#include "gen/lp_gen.hpp"
#include "support/rng.hpp"

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

struct ThreadRun {
  int threads;
  double par_s;
  double efficiency;  // t1 / (tP * P) of the parallel path
  SolveProfile::Worker phases;
  i64 steals;
};

struct RhsResult {
  idx nrhs;
  double residual;  // of the last solve of the sweep
  std::vector<ThreadRun> runs;
};

struct MatrixResult {
  std::string name;
  idx n;
  i64 flops;
  std::vector<RhsResult> rhs;
};

MatrixResult bench_matrix(const std::string& name, const SymSparse& a,
                          const std::vector<idx>& nrhs_list,
                          const std::vector<int>& threads_list, int reps) {
  MatrixResult res;
  res.name = name;
  res.n = a.num_rows();

  SparseCholesky chol = SparseCholesky::analyze(a);
  chol.factorize();
  res.flops = chol.factor_flops_exact();
  const BlockFactor& f = chol.factor();
  const idx n = res.n;

  std::printf("%-10s n=%-7lld factor flops=%.3g\n", name.c_str(),
              static_cast<long long>(n), static_cast<double>(res.flops));

  Rng rng(314159);
  const idx max_nrhs = *std::max_element(nrhs_list.begin(), nrhs_list.end());
  DenseMatrix b_full(n, max_nrhs);
  for (idx c = 0; c < max_nrhs; ++c) {
    for (idx r = 0; r < n; ++r) b_full(r, c) = rng.uniform(-1.0, 1.0);
  }

  SolveWorkspace ws(chol.structure());
  for (idx nrhs : nrhs_list) {
    RhsResult rr{};
    rr.nrhs = nrhs;
    DenseMatrix b(n, nrhs);
    for (idx c = 0; c < nrhs; ++c) {
      const double* src = b_full.col(c);
      std::copy(src, src + n, b.col(c));
    }

    DenseMatrix x = b;
    double par_1t = 0;
    for (int threads : threads_list) {
      ThreadRun run{};
      run.threads = threads;
      SolveOptions opt;
      opt.threads = threads;
      run.par_s = median_seconds(
          [&] {
            x = b;
            block_solve_multi_parallel(f, x, opt, &ws);
          },
          reps);
      if (threads == 1) par_1t = run.par_s;
      // One profiled run for the phase split (timer overhead kept out of
      // the timings above).
      SolveProfile prof;
      opt.profile = &prof;
      x = b;
      block_solve_multi_parallel(f, x, opt, &ws);
      run.phases = prof.total();
      run.steals = prof.steals;
      run.efficiency =
          (par_1t > 0 && run.par_s > 0) ? par_1t / (run.par_s * threads) : 0.0;
      std::printf(
          "  nrhs=%-3lld threads=%d  %.4fs  eff %.2f  [fwd %.4fs bwd %.4fs "
          "scatter %.4fs idle %.4fs steals %lld]\n",
          static_cast<long long>(nrhs), threads, run.par_s, run.efficiency,
          run.phases.forward_s, run.phases.backward_s, run.phases.scatter_s,
          run.phases.idle_s, static_cast<long long>(run.steals));
      rr.runs.push_back(run);
    }
    rr.residual = solve_residual_multi(chol.permuted_matrix(), x, b);
    std::printf("    residual %.1e\n", rr.residual);
    res.rhs.push_back(rr);
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
  std::fprintf(jf, "{\n  \"bench\": \"solve\",\n");
  std::fprintf(jf, "  \"host_hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(jf,
               "  \"parallel_impl\": \"DAG-scheduled executor on "
               "work-stealing deques, per-worker accumulators\",\n");
  std::fprintf(jf, "  \"matrices\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const MatrixResult& m = results[i];
    std::fprintf(jf,
                 "    {\"name\": \"%s\", \"n\": %lld, \"factor_flops\": "
                 "%lld,\n     \"rhs\": [\n",
                 m.name.c_str(), static_cast<long long>(m.n),
                 static_cast<long long>(m.flops));
    for (std::size_t r = 0; r < m.rhs.size(); ++r) {
      const RhsResult& rr = m.rhs[r];
      std::fprintf(jf,
                   "       {\"nrhs\": %lld, \"residual\": %.2e,\n"
                   "        \"runs\": [\n",
                   static_cast<long long>(rr.nrhs), rr.residual);
      for (std::size_t t = 0; t < rr.runs.size(); ++t) {
        const ThreadRun& run = rr.runs[t];
        std::fprintf(
            jf,
            "          {\"threads\": %d, \"par_s\": %.5f, \"efficiency\": "
            "%.3f, \"phases\": {\"forward_s\": %.5f, \"backward_s\": %.5f, "
            "\"scatter_s\": %.5f, \"idle_s\": %.5f, \"steals\": %lld}}%s\n",
            run.threads, run.par_s, run.efficiency, run.phases.forward_s,
            run.phases.backward_s, run.phases.scatter_s, run.phases.idle_s,
            static_cast<long long>(run.steals),
            t + 1 < rr.runs.size() ? "," : "");
      }
      std::fprintf(jf, "        ]}%s\n", r + 1 < m.rhs.size() ? "," : "");
    }
    std::fprintf(jf, "     ]}%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(jf, "  ]\n}\n");
  std::fclose(jf);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = std::string(SPC_REPO_ROOT) + "/BENCH_solve.json";
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
  std::printf("Triangular solve throughput (threads %s, host cores %u)\n%s\n",
              tl.c_str(), std::thread::hardware_concurrency(),
              small ? "scale: SMALL (sanity)" : "scale: default");

  const SymSparse cube_m = make_grid3d(cube, cube, cube);
  const SymSparse lp_m = make_lp_normal_equations(lp);
  const std::string cube_name = "CUBE" + std::to_string(cube) + "x" +
                                std::to_string(cube) + "x" +
                                std::to_string(cube);
  const std::string lp_name = "LP" + std::to_string(lp.n);

  const std::vector<idx> nrhs_list = {1, 4, 16, 64};
  std::vector<MatrixResult> results;
  results.push_back(
      bench_matrix(cube_name, cube_m, nrhs_list, threads_list, reps));
  results.push_back(bench_matrix(lp_name, lp_m, nrhs_list, threads_list, reps));

  write_json(json_path, results);
  return 0;
}
