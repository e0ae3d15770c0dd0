// Microbenchmarks of the dense block kernels (google-benchmark): the
// BFAC / BDIV / BMOD primitives at the block sizes the factorization uses.
// These are OUR kernels' wall-clock rates on the host machine — the
// simulator uses the calibrated Paragon cost model, not these timings (see
// DESIGN.md §2), but the shared-memory executor runs on exactly these
// kernels, so their rates decide real factorization throughput.
//
// Before the interactive google-benchmark run, main() times the BFAC / BDIV
// kernels (blocked potrf/trsm) and the fp32-vs-fp64 packed GEMM ratio per ISA
// path, and writes them with the host's thread count to BENCH_kernels.json in
// the repo root (override the path with argv[1] of the form --json-out=PATH)
// — the machine-readable perf trajectory record. The fp64 B=48 GEMM rate at
// 1 and 2 threads is perfbench's linalg.gemm48_mflops_1t / _2t.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "linalg/dense_matrix.hpp"
#include "linalg/kernels.hpp"
#include "support/rng.hpp"

namespace {

using spc::DenseMatrix;
using spc::idx;

DenseMatrix random_spd(idx n, std::uint64_t seed) {
  spc::Rng rng(seed);
  DenseMatrix a(n, n);
  for (idx c = 0; c < n; ++c) {
    for (idx r = 0; r < n; ++r) a(r, c) = rng.uniform(-1.0, 1.0);
    a(c, c) += static_cast<double>(2 * n);
  }
  // Symmetrize the lower triangle (potrf only reads the lower part).
  for (idx c = 0; c < n; ++c) {
    for (idx r = c; r < n; ++r) a(r, c) = (a(r, c) + a(c, r)) / 2;
  }
  return a;
}

DenseMatrix random_matrix(idx rows, idx cols, std::uint64_t seed) {
  spc::Rng rng(seed);
  DenseMatrix m(rows, cols);
  for (idx c = 0; c < cols; ++c) {
    for (idx r = 0; r < rows; ++r) m(r, c) = rng.uniform(-1.0, 1.0);
  }
  return m;
}

void BM_Bfac(benchmark::State& state) {
  const idx k = static_cast<idx>(state.range(0));
  const DenseMatrix a = random_spd(k, 1);
  for (auto _ : state) {
    DenseMatrix l = a;
    spc::potrf_lower(l);
    benchmark::DoNotOptimize(l.data());
  }
  state.counters["Mflops"] = benchmark::Counter(
      static_cast<double>(spc::flops_bfac(k)) * state.iterations() / 1e6,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Bfac)->Arg(16)->Arg(48)->Arg(96);

void BM_Bdiv(benchmark::State& state) {
  const idx k = static_cast<idx>(state.range(0));
  const idx m = 4 * k;
  DenseMatrix l = random_spd(k, 2);
  spc::potrf_lower(l);
  const DenseMatrix b0 = random_matrix(m, k, 3);
  for (auto _ : state) {
    DenseMatrix b = b0;
    spc::trsm_right_ltrans(l, b);
    benchmark::DoNotOptimize(b.data());
  }
  state.counters["Mflops"] = benchmark::Counter(
      static_cast<double>(spc::flops_bdiv(m, k)) * state.iterations() / 1e6,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Bdiv)->Arg(16)->Arg(48)->Arg(96);

template <void (*Gemm)(const DenseMatrix&, const DenseMatrix&, DenseMatrix&)>
void BM_BmodKernel(benchmark::State& state) {
  const idx k = static_cast<idx>(state.range(0));
  const idx m = 2 * k, n = 2 * k;
  const DenseMatrix a = random_matrix(m, k, 4);
  const DenseMatrix b = random_matrix(n, k, 5);
  DenseMatrix c = random_matrix(m, n, 6);
  for (auto _ : state) {
    Gemm(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["Mflops"] = benchmark::Counter(
      static_cast<double>(spc::flops_bmod(m, n, k)) * state.iterations() / 1e6,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BmodKernel<spc::gemm_nt_minus>)->Name("BM_Bmod")->Arg(16)->Arg(48)->Arg(96);
BENCHMARK(BM_BmodKernel<spc::gemm_nt_minus_naive>)->Name("BM_BmodNaive")->Arg(48)->Arg(96);
BENCHMARK(BM_BmodKernel<spc::gemm_nt_minus_packed>)->Name("BM_BmodPacked")->Arg(48)->Arg(96);

// --- BENCH_kernels.json ------------------------------------------------------

// Best-of-reps wall-clock of `fn` (called `iters` times per rep), in seconds
// per call. Best-of defends against the noisy shared-host clock.
template <class F>
double time_best(F fn, int iters, int reps = 5) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) fn();
    const double dt =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count() /
        iters;
    best = std::min(best, dt);
  }
  return best;
}

double bench_bfac(idx n) {
  const DenseMatrix a = random_spd(n, 1);
  const double flops = static_cast<double>(spc::flops_bfac(n));
  const int iters = std::max(1, static_cast<int>(5e7 / flops));
  return flops /
         time_best(
             [&] {
               DenseMatrix l = a;
               spc::potrf_lower(l);
             },
             iters) /
         1e6;
}

double bench_bdiv(idx k) {
  const idx m = 4 * k;
  DenseMatrix l = random_spd(k, 2);
  spc::potrf_lower(l);
  const DenseMatrix b0 = random_matrix(m, k, 3);
  const double flops = static_cast<double>(spc::flops_bdiv(m, k));
  const int iters = std::max(1, static_cast<int>(5e7 / flops));
  return flops /
         time_best(
             [&] {
               DenseMatrix b = b0;
               spc::trsm_right_ltrans(l, b);
             },
             iters) /
         1e6;
}

// fp32 vs fp64 packed GEMM at the factorization's block size, per ISA path:
// the mixed-precision factorization (SolverOptions::Precision::kFp32Refine)
// rides on exactly this ratio.
struct F32Pair {
  spc::KernelIsa isa;
  double fp64_mflops = 0;
  double fp32_mflops = 0;
  double ratio() const { return fp32_mflops / fp64_mflops; }
};

std::vector<F32Pair> bench_f32_gemm(idx b) {
  const idx m = 2 * b, n = 2 * b, k = b;
  const double flops = static_cast<double>(spc::flops_bmod(m, n, k));
  const int iters = std::max(1, static_cast<int>(2e8 / flops));
  std::vector<double> a64(static_cast<std::size_t>(m * k));
  std::vector<double> b64(static_cast<std::size_t>(n * k));
  std::vector<double> c64(static_cast<std::size_t>(m * n));
  spc::Rng rng(7);
  for (double& v : a64) v = rng.uniform(-1.0, 1.0);
  for (double& v : b64) v = rng.uniform(-1.0, 1.0);
  std::vector<float> a32(a64.begin(), a64.end());
  std::vector<float> b32(b64.begin(), b64.end());
  std::vector<float> c32(static_cast<std::size_t>(m * n));

  const spc::KernelIsa saved = spc::kernel_isa();
  std::vector<F32Pair> out;
  for (const spc::KernelIsa isa :
       {spc::KernelIsa::kScalar, spc::KernelIsa::kAvx2,
        spc::KernelIsa::kAvx512}) {
    if (!spc::set_kernel_isa(isa)) continue;
    F32Pair p;
    p.isa = isa;
    p.fp64_mflops =
        flops /
        time_best(
            [&] {
              spc::gemm_nt_neg_raw(m, n, k, a64.data(), m, b64.data(), n,
                                   c64.data(), m);
            },
            iters) /
        1e6;
    p.fp32_mflops =
        flops /
        time_best(
            [&] {
              spc::gemm_nt_neg_raw(m, n, k, a32.data(), m, b32.data(), n,
                                   c32.data(), m);
            },
            iters) /
        1e6;
    out.push_back(p);
  }
  spc::set_kernel_isa(saved);
  return out;
}

#ifndef SPC_REPO_ROOT
#define SPC_REPO_ROOT "."
#endif

void write_json(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"kernels\",\n  \"units\": \"Mflop/s\",\n");
  std::fprintf(f,
               "  \"impl\": \"blocked potrf/trsm + packed/tiled gemm "
               "(runtime scalar/AVX2/AVX-512 micro-kernels)\",\n");
  std::fprintf(f, "  \"isa\": \"%s\",\n",
               spc::kernel_isa_name(spc::kernel_isa()));
  std::fprintf(f, "  \"host_hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"results\": [\n");
  for (idx b : {idx{48}, idx{96}}) {
    const struct {
      const char* op;
      idx m, n;
      double mflops;
    } rows[] = {{"bfac", b, b, bench_bfac(b)},
                {"bdiv", 4 * b, b, bench_bdiv(b)}};
    for (const auto& r : rows) {
      const bool last = b == 96 && &r == &rows[1];
      std::fprintf(f,
                   "    {\"op\": \"%s\", \"B\": %d, \"m\": %d, \"n\": %d, "
                   "\"k\": %d, \"mflops\": %.1f}%s\n",
                   r.op, b, r.m, r.n, b, r.mflops, last ? "" : ",");
      std::printf("%s  B=%-3d  %8.1f Mflop/s\n", r.op, b, r.mflops);
    }
  }
  std::fprintf(f, "  ],\n  \"fp32_gemm\": [\n");
  const std::vector<F32Pair> f32 = bench_f32_gemm(48);
  for (std::size_t i = 0; i < f32.size(); ++i) {
    const F32Pair& p = f32[i];
    std::fprintf(f,
                 "    {\"op\": \"gemm\", \"B\": 48, \"isa\": \"%s\", "
                 "\"fp64_mflops\": %.1f, \"fp32_mflops\": %.1f, "
                 "\"fp32_over_fp64\": %.3f}%s\n",
                 spc::kernel_isa_name(p.isa), p.fp64_mflops, p.fp32_mflops,
                 p.ratio(), i + 1 < f32.size() ? "," : "");
    std::printf("gemm  B=48   %-6s fp64 %8.1f  fp32 %8.1f  ratio %.2fx\n",
                spc::kernel_isa_name(p.isa), p.fp64_mflops, p.fp32_mflops,
                p.ratio());
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = std::string(SPC_REPO_ROOT) + "/BENCH_kernels.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json-out=", 11) == 0) json_path = argv[i] + 11;
  }
  write_json(json_path);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
