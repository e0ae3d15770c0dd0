// spc — command-line front end for the sparsechol library.
//
//   spc stats    <matrix> [--ordering mmd|amd|nd|natural] [--block B]
//   spc solve    <matrix> [--ordering ...] [--refine]
//                [--pivot-policy strict|perturb] [--pivot-delta D] [--raw]
//                [--precision fp64|fp32-refine]
//                [--mem-budget-mb MB] [--deadline-ms MS] [--retries N]
//                [--no-degrade]
//                (governed execution, docs/ROBUSTNESS.md §7: budget breaches
//                and deadline overruns surface as exit 5 / exit 8, and the
//                degradation ladder logs every rung it takes)
//                [--nrhs N] [--threads N[,N...]] [--nrhs-block B]
//                (--nrhs/--threads switch to a multi-RHS sweep through the
//                panel/parallel solve path and print a timing table)
//   spc simulate <matrix> [--procs P] [--rows CY|DW|IN|DN|ID] [--cols ...]
//                [--no-domains] [--priority] [--timeline]
//   spc engines  <matrix> [--threads N[,N...]]   (a list sweeps the parallel
//                executor over the thread counts and prints a timing table)
//   spc suite    [--scale small|medium|full]
//   spc soak     <matrix> [--iters N] [--seed S] [--mem-budget-mb MB]
//                [--deadline-ms MS]   (N randomized governed requests
//                against one cached workspace; verifies the byte accounting
//                drains to zero when the solver dies)
//   spc soak     --server [--iters N] [--seed S] [--mem-budget-mb MB]
//                (in-process spcd engine: registry + batcher + workers under
//                a tight budget and entry cap; randomized admits/solves/
//                evicts, then asserts the registry accounting drains to zero)
//
// <matrix> is a MatrixMarket (.mtx) or Harwell-Boeing (.rsa/.rb/.psa) file,
// or the name of a generated benchmark matrix (e.g. CUBE30, BCSSTK31).
//
// Both thread sweeps time each entry warm: one untimed run, then the median
// of three timed runs; efficiency is against the sweep's 1-thread median.
//
// Exit codes (docs/ROBUSTNESS.md): 0 success, 1 internal error, 2 usage,
// 3 malformed input, 4 not positive definite, 5 resource exhausted,
// 6 cancelled, 7 injected fault, 8 deadline exceeded, 9 protocol error.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "cli_common.hpp"
#include "factor/parallel_factor.hpp"
#include "factor/residual.hpp"
#include "server/server.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace {

using namespace spc;
using cli::Args;
using cli::analyze_from_args;
using cli::heuristic_from;
using cli::load_matrix;
using cli::Loaded;

// One untimed warm-up call (workspace growth, first-touch pages, the
// affinity partition), then three timed calls; returns the median seconds.
// `last` takes the final call's result. The previous result is freed before
// each timer starts, so only one is alive at a time and its release is not
// timed.
template <class Fn, class R>
double warm_median_secs(Fn&& fn, R& last) {
  last = fn();
  double secs[3];
  for (double& s : secs) {
    last = R{};
    const auto t0 = std::chrono::steady_clock::now();
    R r = fn();
    s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    last = std::move(r);
  }
  std::sort(std::begin(secs), std::end(secs));
  return secs[1];
}

// One row of a thread sweep, printed once every entry is timed so each
// efficiency can use the 1-thread median wherever it sits in the list.
struct SweepRow {
  int threads;
  double secs;
  double residual;
};

void print_sweep(const char* engine, int digits,
                 const std::vector<SweepRow>& rows) {
  const auto one = std::find_if(rows.begin(), rows.end(),
                                [](const SweepRow& r) { return r.threads == 1; });
  const double t1 = one != rows.end() ? one->secs : 0;
  for (const SweepRow& r : rows) {
    char label[64];
    std::snprintf(label, sizeof(label), "%s (%d threads)", engine, r.threads);
    std::printf("  %-22s %8.*f s   residual %.1e", label, digits, r.secs,
                r.residual);
    if (rows.size() > 1 && t1 > 0 && r.secs > 0) {
      std::printf("   efficiency %.2f", t1 / (r.secs * r.threads));
    }
    std::printf("\n");
  }
}

int cmd_stats(const Args& args) {
  const Loaded m = load_matrix(args);
  const SparseCholesky chol = analyze_from_args(args, m);
  std::printf("%s: %d equations, %lld nonzeros (lower)\n", m.bench.name.c_str(),
              m.bench.matrix.num_rows(),
              static_cast<long long>(m.bench.matrix.nnz_lower()));
  std::printf("factor:      %lld nonzeros, %.1f Mops\n",
              static_cast<long long>(chol.factor_nnz_exact()),
              static_cast<double>(chol.factor_flops_exact()) / 1e6);
  std::printf("supernodes:  %d (stored entries incl. amalgamation padding: %lld)\n",
              chol.symbolic().num_supernodes(),
              static_cast<long long>(chol.symbolic().total_stored_entries()));
  std::printf("blocking:    %s\n", cli::blocking_summary(chol.options()).c_str());
  std::printf("blocks:      %d block columns, %lld off-diagonal blocks, "
              "%lld block ops\n",
              chol.structure().num_block_cols(),
              static_cast<long long>(chol.structure().num_entries()),
              static_cast<long long>(chol.task_graph().total_ops()));
  return 0;
}

// Multi-RHS sweep through the panel/parallel solve path: one random B,
// solved per thread count on the facade's cached workspace.
int cmd_solve_sweep(const Args& args, const Loaded& m,
                    const SparseCholesky& chol) {
  const idx n = m.bench.matrix.num_rows();
  const idx nrhs = static_cast<idx>(std::stoi(args.get("nrhs", "8")));
  const std::vector<int> threads_list =
      cli::parse_int_list(args.get("threads", "1"));
  Rng rng(12345);
  DenseMatrix b(n, nrhs);
  for (idx c = 0; c < nrhs; ++c) {
    for (idx r = 0; r < n; ++r) b(r, c) = rng.uniform(-1.0, 1.0);
  }
  std::printf("%s: solving %d equations, %lld right-hand sides\n",
              m.bench.name.c_str(), n, static_cast<long long>(nrhs));
  SolveOptions opt;
  opt.nrhs_block = static_cast<idx>(std::stoi(args.get("nrhs-block", "32")));
  std::vector<SweepRow> rows;
  for (int threads : threads_list) {
    opt.threads = threads;
    DenseMatrix x;
    const double secs = warm_median_secs(
        [&] {
          DenseMatrix y = b;
          chol.solve_multi(y, opt);
          return y;
        },
        x);
    rows.push_back({threads, secs, solve_residual_multi(m.bench.matrix, x, b)});
  }
  print_sweep("panel", 4, rows);
  return 0;
}

// Prints the ladder rungs the most recent governed run took, if any.
void print_degrade_path(const SparseCholesky& chol) {
  const std::vector<governor::DegradeRung>& path =
      chol.factorize_info().degrade_path;
  if (path.empty()) return;
  std::fprintf(stderr, "degradation:");
  for (const governor::DegradeRung r : path) {
    std::fprintf(stderr, " %s", governor::degrade_rung_name(r));
  }
  std::fprintf(stderr, "\n");
}

int cmd_solve(const Args& args) {
  const Loaded m = load_matrix(args);
  SparseCholesky chol = analyze_from_args(args, m);
  try {
    // Serial start (matching the historical `spc solve` engine); the ladder
    // still recovers fp32 breakdowns and transient faults.
    chol.factorize_governed(1);
  } catch (...) {
    print_degrade_path(chol);
    throw;
  }
  print_degrade_path(chol);
  if (args.has("nrhs") || args.has("threads")) {
    return cmd_solve_sweep(args, m, chol);
  }
  Rng rng(12345);
  std::vector<double> b(static_cast<std::size_t>(m.bench.matrix.num_rows()));
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  const std::vector<double> x =
      args.has("refine") ? chol.solve_refined(b) : chol.solve(b);
  std::printf("%s: solved %d equations, residual %.2e%s\n", m.bench.name.c_str(),
              m.bench.matrix.num_rows(), solve_residual(m.bench.matrix, x, b),
              args.has("refine") ? " (with refinement)" : "");
  if (chol.factorize_info().fp32) {
    std::printf("precision: factored in fp32; solve applied fp64 refinement\n");
  } else if (chol.factorize_info().fp32_fallback) {
    std::printf("precision: fp32 factorization broke down; retried in fp64\n");
  }
  if (chol.factorize_info().perturbed_pivots > 0) {
    std::printf("pivots: %lld perturbed (delta policy; solve applied one "
                "refinement step)\n",
                static_cast<long long>(chol.factorize_info().perturbed_pivots));
  }
  return 0;
}

int cmd_simulate(const Args& args) {
  const Loaded m = load_matrix(args);
  const SparseCholesky chol = analyze_from_args(args, m);
  const idx procs = static_cast<idx>(std::stoi(args.get("procs", "64")));
  const RemapHeuristic row_h = heuristic_from(args.get("rows", "ID"));
  const RemapHeuristic col_h = heuristic_from(args.get("cols", "CY"));
  const bool domains = !args.has("no-domains");
  const SchedulingPolicy policy = args.has("priority")
                                      ? SchedulingPolicy::kPriority
                                      : SchedulingPolicy::kDataDriven;
  const ParallelPlan plan = chol.plan_parallel(procs, row_h, col_h, domains);
  SimTrace trace;
  const SimResult r = chol.simulate(plan, CostModel{}, policy,
                                    args.has("timeline") ? &trace : nullptr);
  std::printf("%s on P=%d (%dx%d), rows=%s cols=%s domains=%s scheduling=%s\n",
              m.bench.name.c_str(), procs, plan.map.grid.rows, plan.map.grid.cols,
              heuristic_name(row_h).c_str(), heuristic_name(col_h).c_str(),
              domains ? "on" : "off",
              policy == SchedulingPolicy::kPriority ? "priority" : "data-driven");
  std::printf("blocking: %s, %d block columns\n",
              cli::blocking_summary(chol.options()).c_str(),
              chol.structure().num_block_cols());
  std::printf("balance: row %.2f col %.2f diag %.2f overall %.2f\n",
              plan.balance.row, plan.balance.col, plan.balance.diag,
              plan.balance.overall);
  const double denom = static_cast<double>(procs) * r.runtime_s;
  std::printf("simulated: %.4f s, %.0f Mflops, efficiency %.2f\n", r.runtime_s,
              r.mflops(chol.factor_flops_exact()), r.efficiency());
  std::printf("breakdown: compute %.0f%%, comm %.0f%%, idle %.0f%%; %lld msgs, %.1f MB\n",
              100.0 * r.total_compute_s() / denom, 100.0 * r.total_comm_s() / denom,
              100.0 * r.total_idle_s() / denom,
              static_cast<long long>(r.total_msgs()),
              static_cast<double>(r.total_bytes()) / 1e6);
  if (args.has("timeline")) {
    trace.print_timeline(std::cout, procs, r.runtime_s);
  }
  return 0;
}

int cmd_engines(const Args& args) {
  const Loaded m = load_matrix(args);
  const SparseCholesky chol = analyze_from_args(args, m);
  const std::vector<int> threads_list =
      cli::parse_int_list(args.get("threads", "4"));
  std::printf("%s: comparing numeric engines (%d equations, %.1f Mops)\n",
              m.bench.name.c_str(), m.bench.matrix.num_rows(),
              static_cast<double>(chol.factor_flops_exact()) / 1e6);
  BlockFactor f;
  const double serial_s = warm_median_secs(
      [&] {
        return block_factorize(chol.permuted_matrix(), chol.structure(),
                               chol.task_graph());
      },
      f);
  std::printf("  %-22s %8.3f s   residual %.1e\n", "right-looking", serial_s,
              factor_residual_probe(chol.permuted_matrix(), f));
  // Thread sweep over the parallel executor, reusing one workspace across
  // every run.
  ParallelWorkspace ws(chol.structure(), chol.task_graph());
  std::vector<SweepRow> rows;
  for (int threads : threads_list) {
    const double secs = warm_median_secs(
        [&] {
          return block_factorize_parallel(chol.permuted_matrix(),
                                          chol.structure(), chol.task_graph(),
                                          ParallelFactorOptions{threads}, &ws);
        },
        f);
    rows.push_back(
        {threads, secs, factor_residual_probe(chol.permuted_matrix(), f)});
  }
  print_sweep("parallel", 3, rows);
  return 0;
}

// Same pattern, new values: every diagonal entry (the first of its column)
// grows by a seeded 1-10%, as between interior-point iterations.
SymSparse shift_diagonal(const SymSparse& a, Rng& rng) {
  std::vector<double> val = a.values();
  for (idx j = 0; j < a.num_rows(); ++j) {
    val[static_cast<std::size_t>(a.col_ptr()[j])] *= 1.0 + rng.uniform(0.01, 0.1);
  }
  return SymSparse::from_canonical(a.num_rows(), a.col_ptr(), a.row_idx(), std::move(val));
}

// Server soak (`spc soak --server`): drives the spcd request engine
// in-process — factor registry under a deliberately tight MemoryBudget and
// entry cap, solve batcher, worker pool — with randomized admits, batched
// solves (some with already-expired deadlines), and explicit evicts across
// several distinct matrices, a third of them same-pattern writes (a seeded
// diagonal shift) that share a resident entry's analysis. Budget breaches
// and deadline rejects are recoverable and counted; what must hold is that
// writes reused an analysis and that after shutdown + clear() the
// registry's byte accounting is EXACTLY zero (docs/SERVING.md §5).
int cmd_soak_server(const Args& args) {
  const int iters = std::stoi(args.get("iters", "48"));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(std::stoull(args.get("seed", "1")));
  const i64 budget_mb = std::stoll(args.get("mem-budget-mb", "24"));

  server::ServerConfig cfg;
  cfg.registry.budget_bytes = budget_mb * (i64{1} << 20);
  cfg.registry.max_entries = 2;  // forces LRU churn across the matrix pool
  cfg.batch.nrhs_block = 4;
  cfg.batch.window_s = 1e-3;
  cfg.workers = 2;

  // Distinct problems -> distinct fingerprints; with max_entries = 2 the
  // rotation below keeps evicting whichever key is least recently used.
  const char* pool[] = {"CUBE30", "GRID150", "BCSSTK15"};
  std::vector<SymSparse> mats;
  for (const char* name : pool) {
    mats.push_back(make_bench_matrix(name, SuiteScale::kSmall).matrix);
  }

  int failures = 0;
  int deadline_rejects = 0;
  i64 peak = 0;
  i64 evictions = 0;
  i64 reuses = 0;
  i64 leak = -1;
  {
    server::Server srv(cfg);
    SolverOptions opt;
    Rng rng(seed);
    for (int i = 0; i < iters; ++i) {
      const std::size_t which =
          static_cast<std::size_t>(rng.uniform_int(0, 2));
      const SymSparse a =
          rng.bernoulli(1.0 / 3.0) ? shift_diagonal(mats[which], rng) : mats[which];
      try {
        const server::AnalyzeReply ar = srv.analyze(a, opt);
        const idx n = a.num_rows();
        std::vector<double> rhs(static_cast<std::size_t>(n));
        for (double& v : rhs) v = rng.uniform(-1.0, 1.0);
        // One request in ~6 arrives already expired; it must fail alone with
        // DeadlineExceeded and never poison the entry or the batch.
        const double deadline_s = rng.bernoulli(1.0 / 6.0) ? 0.0 : -1.0;
        srv.solve(ar.key, std::move(rhs), deadline_s);
        if (rng.bernoulli(0.2)) srv.evict(ar.key);
      } catch (const Error& e) {
        if (e.kind() == ErrorKind::kDeadlineExceeded) {
          ++deadline_rejects;
        } else {
          ++failures;
          std::fprintf(stderr, "  iteration %d: recoverable failure [%s]\n", i,
                       error_kind_name(e.kind()));
        }
      }
    }
    const server::StatsReply st = srv.stats();
    srv.shutdown();
    srv.registry().clear();
    peak = srv.registry().peak_bytes();
    evictions = srv.registry().evictions();
    reuses = srv.registry().analysis_reuses();
    leak = srv.registry().in_use_bytes();
    std::printf(
        "soak --server: %d iterations, %d failures, %d deadline rejects, "
        "%lld batches (%lld cols), %lld evictions, %lld analysis reuses, "
        "peak %lld bytes\n",
        iters, failures, deadline_rejects, static_cast<long long>(st.batches),
        static_cast<long long>(st.batched_cols),
        static_cast<long long>(evictions), static_cast<long long>(reuses),
        static_cast<long long>(peak));
  }
  if (evictions == 0) {
    std::fprintf(stderr, "soak --server: expected LRU evictions under "
                         "max_entries=2, saw none\n");
    return 1;
  }
  if (reuses == 0) {
    std::fprintf(stderr, "soak --server: expected same-pattern writes to "
                         "reuse an analysis, saw none\n");
    return 1;
  }
  if (leak != 0) {
    std::fprintf(stderr,
                 "soak --server: LEAK — %lld bytes still charged after "
                 "shutdown + clear\n",
                 static_cast<long long>(leak));
    return 1;
  }
  std::printf("soak --server: registry accounting drained to zero\n");
  return 0;
}

// Governed soak: N randomized factorize+solve requests against ONE analyzed
// plan and its cached workspaces, mixing thread counts, RHS widths, and solve
// paths. Recoverable failures (budget/deadline under tight caps) are counted,
// not fatal; what must hold is that the byte accounting drains to zero when
// the solver and its workspaces die. tools/soak.sh drives this under ASan.
int cmd_soak(const Args& args) {
  if (args.has("server")) return cmd_soak_server(args);
  const Loaded m = load_matrix(args);
  const int iters = std::stoi(args.get("iters", "8"));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(std::stoull(args.get("seed", "1")));
  int failures = 0;
  i64 peak = 0;
  std::shared_ptr<governor::MemoryBudget> budget;
  {
    SparseCholesky chol = analyze_from_args(args, m);
    budget = chol.memory_budget();
    Rng rng(seed);
    const idx n = m.bench.matrix.num_rows();
    for (int i = 0; i < iters; ++i) {
      const int threads = static_cast<int>(rng.uniform_int(1, 4));
      try {
        chol.factorize_governed(threads);
        const idx nrhs = rng.uniform_int(1, 4);
        DenseMatrix b(n, nrhs);
        for (idx c = 0; c < nrhs; ++c) {
          for (idx r = 0; r < n; ++r) b(r, c) = rng.uniform(-1.0, 1.0);
        }
        SolveOptions sopt;
        sopt.threads = rng.bernoulli(0.5) ? 1 : threads;
        chol.solve_multi(b, sopt);
      } catch (const Error& e) {
        ++failures;
        std::fprintf(stderr, "  iteration %d: recoverable failure [%s]\n", i,
                     error_kind_name(e.kind()));
      }
    }
    peak = budget->peak_bytes();
    std::printf("soak: %d iterations, %d failures, peak %lld bytes, "
                "%lld bytes cached across runs\n",
                iters, failures, static_cast<long long>(peak),
                static_cast<long long>(budget->in_use_bytes()));
  }
  if (budget->in_use_bytes() != 0) {
    std::fprintf(stderr,
                 "soak: LEAK — %lld bytes still charged after teardown\n",
                 static_cast<long long>(budget->in_use_bytes()));
    return 1;
  }
  std::printf("soak: accounting drained to zero after teardown\n");
  return 0;
}

int cmd_suite(const Args& args) {
  const std::string s = args.get("scale", "medium");
  const SuiteScale scale = s == "full" ? SuiteScale::kFull
                                       : (s == "small" ? SuiteScale::kSmall
                                                       : SuiteScale::kMedium);
  Table t({"Name", "Equations", "nnz(A) lower", "Ordering"});
  auto add = [&](const BenchMatrix& bm) {
    t.new_row();
    t.add(bm.name);
    t.add(static_cast<long long>(bm.matrix.num_rows()));
    t.add(static_cast<long long>(bm.matrix.nnz_lower()));
    switch (bm.ordering) {
      case OrderingKind::kNatural: t.add("natural"); break;
      case OrderingKind::kGeometricNd2d: t.add("geometric ND (2-D)"); break;
      case OrderingKind::kGeometricNd3d: t.add("geometric ND (3-D)"); break;
      case OrderingKind::kMmd: t.add("MMD"); break;
    }
  };
  for (const BenchMatrix& bm : standard_suite(scale)) add(bm);
  for (const char* name : {"DENSE4096", "CUBE40", "COPTER2", "10FLEET"}) {
    add(make_bench_matrix(name, scale));
  }
  t.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args =
        cli::parse_args(argc, argv, "usage: spc <stats|solve|simulate|engines|suite|soak> ...");
    if (args.command == "stats") return cmd_stats(args);
    if (args.command == "solve") return cmd_solve(args);
    if (args.command == "simulate") return cmd_simulate(args);
    if (args.command == "engines") return cmd_engines(args);
    if (args.command == "suite") return cmd_suite(args);
    if (args.command == "soak") return cmd_soak(args);
    std::fprintf(stderr, "unknown command '%s'\n", args.command.c_str());
    return 2;
  } catch (const spc::Error& e) {
    // Exit-code contract (docs/ROBUSTNESS.md): Internal=1, usage=2,
    // MalformedInput=3, NotPositiveDefinite=4, ResourceExhausted=5,
    // Cancelled=6, InjectedFault=7, DeadlineExceeded=8, ProtocolError=9.
    std::fprintf(stderr, "error [%s]: %s\n", spc::error_kind_name(e.kind()),
                 e.what());
    // Typed governed context, when the failure carries it.
    const spc::ErrorContext& c = e.context();
    if (c.has_budget) {
      std::fprintf(stderr,
                   "  budget: %lld bytes requested, %lld in use, cap %lld%s%s\n",
                   static_cast<long long>(c.bytes_requested),
                   static_cast<long long>(c.bytes_in_use),
                   static_cast<long long>(c.budget_bytes),
                   c.phase != nullptr ? ", phase " : "",
                   c.phase != nullptr ? c.phase : "");
    }
    if (c.has_deadline) {
      std::fprintf(stderr, "  deadline: %.3f s elapsed, limit %.3f s%s%s\n",
                   c.elapsed_s, c.limit_s,
                   c.phase != nullptr ? ", phase " : "",
                   c.phase != nullptr ? c.phase : "");
    }
    return spc::exit_code_for(e.kind());
  }
}
