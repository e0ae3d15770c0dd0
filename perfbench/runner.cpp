// perfbench_runner: one benchmark run of one workload (see README.md).
//
//   perfbench_runner --workload lp_cold|cube_factor|serve_mix --seed N
//                    --seconds S --trace 0|1 [--socket PATH] [--trace-out PATH]
//
// A run sets up three times (inputs, in-process spcd Server + EventLoop,
// registered base factors, warm-up) and keeps the last set-up; builds the
// checker's in-process reference solutions; then measures for about S
// seconds: cold library requests with repeat factorizations and warm solves
// through the SparseCholesky facade, followed by two closed-loop daemon
// phases: depth 1, then depth 16 with paced writes. Every answer is
// checked. With --trace 1 the run additionally drives each layer directly,
// records spans around the calls and reports the per-layer metrics instead
// of the end-to-end ones.
//
// Output: '#' lines (run metadata and a metric table) followed by one JSON
// line {"correct", "attempted", "failed", "metrics"}. Exit code 0 only when
// every check passed.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "blocks/blocking.hpp"
#include "blocks/block_structure.hpp"
#include "blocks/task_graph.hpp"
#include "cholesky/sparse_cholesky.hpp"
#include "client.hpp"
#include "factor/block_solve.hpp"
#include "factor/numeric_factor.hpp"
#include "factor/parallel_factor.hpp"
#include "factor/parallel_solve.hpp"
#include "factor/residual.hpp"
#include "gen/benchmark_suite.hpp"
#include "gen/lp_gen.hpp"
#include "graph/permutation.hpp"
#include "linalg/dense_matrix.hpp"
#include "linalg/kernels.hpp"
#include "server/event_loop.hpp"
#include "server/server.hpp"
#include "support/rng.hpp"
#include "symbolic/amalgamate.hpp"
#include "symbolic/colcount.hpp"
#include "symbolic/etree.hpp"
#include "symbolic/supernode.hpp"
#include "symbolic/symbolic_factor.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using spc::BenchMatrix;
using spc::i64;
using spc::idx;
using spc::SymSparse;

// The benchmark never runs more than this many compute threads at once
// (the traced run's 4-thread executor figure is the one, labelled, exception).
constexpr int kComputeThreads = 2;
constexpr int kSetupReps = 3;
// Measurement rounds per run; each round runs every phase once.
constexpr int kRounds = 5;
constexpr int kConnections = 4;  // 3 solve connections + 1 write connection
constexpr int kRhsPool = 4;
constexpr std::uint64_t kBaseLpSeed = 11;  // lp_cold's daemon base
// Solves completed between the starts of two writes, on every workload. No
// traffic source sets this ratio: it is a chosen operating point (README.md).
constexpr i64 kWriteEvery = 32;
// Bounds of the correctness gate.
constexpr double kResidualTol = 1e-9;        // solve_residual of any answer
constexpr double kFactorResidualTol = 1e-9;  // factor_residual_probe

// ---------------------------------------------------------------------------
// Inputs

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9e3779b97f4a7c15ULL + b + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Same pattern, new values: each diagonal entry grows by a seeded 1-10% of
// itself, as the barrier term does between interior-point iterations.
SymSparse shift_diagonal(const SymSparse& a, std::uint64_t seed) {
  spc::Rng rng(seed);
  const idx n = a.num_rows();
  std::vector<double> diag(static_cast<std::size_t>(n));
  std::vector<std::pair<idx, idx>> pos;
  std::vector<double> val;
  pos.reserve(static_cast<std::size_t>(a.nnz_lower()));
  val.reserve(static_cast<std::size_t>(a.nnz_lower()));
  for (idx j = 0; j < n; ++j) {
    for (i64 p = a.col_ptr()[j]; p < a.col_ptr()[j + 1]; ++p) {
      const idx i = a.row_idx()[static_cast<std::size_t>(p)];
      const double v = a.values()[static_cast<std::size_t>(p)];
      if (i == j) {
        diag[static_cast<std::size_t>(j)] = v + std::fabs(v) * rng.uniform(0.01, 0.1);
      } else {
        pos.emplace_back(i, j);
        val.push_back(v);
      }
    }
  }
  return SymSparse::from_entries(n, diag, pos, val);
}

std::vector<double> make_rhs(const SymSparse& a, std::uint64_t seed) {
  spc::Rng rng(seed);
  std::vector<double> x(static_cast<std::size_t>(a.num_rows()));
  for (double& v : x) v = rng.uniform(-1.0, 1.0);
  return a.multiply(x);
}

// ---------------------------------------------------------------------------
// Workloads: absolute sizes, depths and write ratios, never calibrated.

struct Base {
  std::string name;
  SymSparse a;
  spc::SolverOptions opt;
  int weight = 1;
};

struct Workload {
  std::string name;
  // Cold request k: the matrix and the ordering the gen layer prescribes.
  std::function<BenchMatrix(std::uint64_t seed, i64 k)> request;
  // Factors registered in the daemon at set-up (fixed structure and values;
  // the seed drives the writes' values and the right-hand sides).
  std::function<std::vector<Base>()> bases;
  int refactors_per_request = 3;
  int solves_per_request = 8;
  double lib_share = 0.5;  // of --seconds: cold requests (+ refactors, solves)
  int requests_per_round = 1;  // at least this many cold requests per round
  double d1_share = 0.2;   // depth-1 daemon phase; depth 16 gets the rest
};

BenchMatrix lp_instance(std::uint64_t seed) {
  // The medium 10FLEET parameters of gen/benchmark_suite.cpp.
  spc::LpGenOptions o;
  o.n = 3000;
  o.mean_overlap = 60.0;
  o.hubs = 280;
  o.hub_span = 0.10;
  o.seed = seed;
  BenchMatrix m;
  m.name = "LP3000";
  m.matrix = spc::make_lp_normal_equations(o);
  m.ordering = spc::OrderingKind::kMmd;
  return m;
}

BenchMatrix shifted_bench(const std::string& name, spc::SuiteScale scale,
                          std::uint64_t seed) {
  BenchMatrix m = spc::make_bench_matrix(name, scale);
  m.matrix = shift_diagonal(m.matrix, seed);
  return m;
}

Workload make_workload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "lp_cold") {
    w.request = [](std::uint64_t seed, i64 k) {
      return lp_instance(mix(seed, static_cast<std::uint64_t>(k)));
    };
    w.bases = [] {
      // Fixed structure, so every run's writes order the same pattern; the
      // seed drives the values of the writes.
      return std::vector<Base>{{"LP3000", lp_instance(kBaseLpSeed).matrix, {}, 1}};
    };
    w.refactors_per_request = 8;
    w.solves_per_request = 24;
    // Instances differ in MMD cost by up to ~1.6x: ten per run keep the
    // median steady.
    w.requests_per_round = 2;
    // Two requests (~6 s) exceed the 2.5 s share: this slice is count-bound.
    w.lib_share = 0.5;
    w.d1_share = 0.2;
  } else if (name == "cube_factor") {
    w.request = [](std::uint64_t seed, i64 k) {
      return shifted_bench("CUBE30", spc::SuiteScale::kFull,
                           mix(seed, static_cast<std::uint64_t>(k)));
    };
    // The daemon serves a smaller cube: every single-RHS solve streams the
    // whole factor, and CUBE30's (~100 MB) solve latency at depth 1 followed
    // how much of it the shared L3 held, spreading up to 0.22 over ten runs.
    w.bases = [] {
      spc::SolverOptions nd;
      nd.ordering = spc::SolverOptions::Ordering::kNd;
      return std::vector<Base>{
          {"CUBE40", spc::make_bench_matrix("CUBE40", spc::SuiteScale::kMedium).matrix, nd, 1}};
    };
    w.refactors_per_request = 2;
    w.solves_per_request = 8;
    w.lib_share = 0.6;
    w.d1_share = 0.25;
  } else if (name == "serve_mix") {
    w.request = [](std::uint64_t seed, i64 k) {
      return shifted_bench("BCSSTK31", spc::SuiteScale::kMedium,
                           mix(seed, static_cast<std::uint64_t>(k)));
    };
    w.bases = [] {
      return std::vector<Base>{
          {"BCSSTK31", spc::make_bench_matrix("BCSSTK31", spc::SuiteScale::kMedium).matrix, {}, 3},
          {"GRID300", spc::make_bench_matrix("GRID300", spc::SuiteScale::kMedium).matrix, {}, 1}};
    };
    w.refactors_per_request = 6;
    w.solves_per_request = 16;
    w.lib_share = 0.2;
    w.d1_share = 0.3;
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (lp_cold, cube_factor, serve_mix)");
  }
  return w;
}

// ---------------------------------------------------------------------------
// Statistics and host data

double quantile(std::vector<double> v, double q) {
  if (v.empty()) throw std::runtime_error("quantile of an empty sample");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double since(Clock::time_point t0) { return seconds_between(t0, Clock::now()); }

struct CpuTimes {
  long long steal = 0, total = 0;
};
// Aggregate "cpu" line of /proc/stat: user nice system idle iowait irq
// softirq steal. Zeros when unreadable.
CpuTimes read_cpu_times() {
  std::ifstream in("/proc/stat");
  std::string tag;
  CpuTimes c;
  if (!(in >> tag) || tag != "cpu") return c;
  long long v[8] = {};
  for (long long& x : v) in >> x;
  for (long long x : v) c.total += x;
  c.steal = v[7];
  return c;
}

// Peak RSS so far. Printed for context only: under glibc's adaptive mmap
// threshold it depends on allocation history and varied by 25% between runs.
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------------
// Set-up: the daemon, its registered factors, the client

struct Env {
  std::vector<Base> bases;
  std::unique_ptr<spc::server::Server> server;
  std::unique_ptr<spc::server::EventLoop> loop;
  std::thread loop_thread;
  std::exception_ptr loop_error;  // written by loop_thread, read after join
  std::unique_ptr<DaemonClient> client;
  std::vector<Target> targets;

  Env() = default;
  Env(const Env&) = delete;
  Env& operator=(const Env&) = delete;
  ~Env() { stop(); }

  // Disconnects, stops and joins the event loop, drains the server; then
  // rethrows what the loop thread threw, if anything.
  void shut_down() {
    stop();
    if (loop_error) std::rethrow_exception(std::exchange(loop_error, nullptr));
  }

 private:
  void stop() {
    client.reset();
    if (loop) loop->stop();
    if (loop_thread.joinable()) loop_thread.join();
    loop.reset();
    server.reset();
  }
};

srv::Frame expect(const srv::Frame& f, srv::MsgType type, const char* what) {
  if (f.type != type) {
    std::string msg = std::string("set-up: ") + what + " failed";
    if (f.type == srv::MsgType::kError) msg += ": " + srv::decode_error_reply(f.payload).message;
    throw std::runtime_error(msg);
  }
  return f;
}

std::unique_ptr<Env> set_up(const Workload& w, std::uint64_t seed, const std::string& sock) {
  auto env = std::make_unique<Env>();
  env->bases = w.bases();
  spc::server::ServerConfig cfg;
  cfg.workers = kComputeThreads;
  cfg.solve_threads = 1;
  cfg.factor_threads = 1;
  // Room for the bases plus two written entries: older writes are evicted.
  cfg.registry.max_entries = env->bases.size() + 2;
  env->server = std::make_unique<spc::server::Server>(cfg);
  spc::server::EventLoopConfig lcfg;
  lcfg.unix_path = sock;
  env->loop = std::make_unique<spc::server::EventLoop>(*env->server, lcfg);
  Env* e = env.get();
  env->loop_thread = std::thread([e] {
    try {
      e->loop->run();
    } catch (...) {
      e->loop_error = std::current_exception();
    }
  });
  env->client = std::make_unique<DaemonClient>(sock, kConnections);
  DaemonClient& c = *env->client;
  expect(c.call(srv::Frame{srv::MsgType::kPing, 0, {}}), srv::MsgType::kPong, "ping");

  for (std::size_t b = 0; b < env->bases.size(); ++b) {
    const Base& base = env->bases[b];
    Target t;
    t.a = &base.a;
    t.opt = base.opt;
    t.weight = base.weight;
    const srv::Frame ar = expect(
        c.call(srv::Frame{srv::MsgType::kAnalyze, 0,
                          srv::encode_analyze_request({base.a, base.opt})}),
        srv::MsgType::kAnalyzeOk, "analyze");
    t.reg = srv::decode_analyze_reply(ar.payload);
    expect(c.call(srv::Frame{srv::MsgType::kFactorize, 0,
                             srv::encode_factorize_request({t.reg.key, 1})}),
           srv::MsgType::kFactorizeOk, "factorize");
    for (int r = 0; r < kRhsPool; ++r) {
      t.rhs.push_back(make_rhs(base.a, mix(seed, 1000 + b * kRhsPool + static_cast<std::uint64_t>(r))));
      srv::SolveRequest sr;
      sr.key = t.reg.key;
      sr.rhs = t.rhs.back();
      t.solve_payloads.push_back(srv::encode_solve_request(sr));
      // Warm-up: the first solve builds the entry's solve workspace.
      const srv::Frame sf = expect(
          c.call(srv::Frame{srv::MsgType::kSolve, 0, t.solve_payloads.back()}),
          srv::MsgType::kSolveOk, "warm-up solve");
      if (spc::solve_residual(base.a, srv::decode_solve_reply(sf.payload).x, t.rhs.back()) >
          kResidualTol) {
        throw std::runtime_error("set-up: warm-up solve residual above bound");
      }
    }
    env->targets.push_back(std::move(t));
  }
  return env;
}

// Checker preparation (not part of set-up time): in-process reference
// solutions for the RHS pool, each verified with solve_residual. AMD keeps
// this cheap on the LP base, so the reference and the daemon (MMD or ND)
// order differently; the daemon's answers matched it within the client's
// 1e-8 tolerance on every base in every run so far (the largest distance a
// run saw is printed on its `# check` line).
void prepare_references(Env& env) {
  for (Target& t : env.targets) {
    spc::SolverOptions opt = t.opt;
    opt.ordering = spc::SolverOptions::Ordering::kAmd;
    spc::SparseCholesky ref = spc::SparseCholesky::analyze(*t.a, opt);
    ref.factorize_parallel(1);
    t.xref.clear();
    for (const std::vector<double>& b : t.rhs) {
      t.xref.push_back(ref.solve(b));
      if (spc::solve_residual(*t.a, t.xref.back(), b) > kResidualTol) {
        throw std::runtime_error("reference solve residual above bound");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Measurement

struct Tally {
  i64 attempted = 0;
  i64 failed = 0;
  void check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

std::function<SymSparse(int, std::int64_t)> write_maker(const Env& env, std::uint64_t seed) {
  const Env* e = &env;
  return [e, seed](int base, std::int64_t k) {
    return shift_diagonal(e->bases[static_cast<std::size_t>(base)].a,
                          mix(seed, 5000 + static_cast<std::uint64_t>(k)));
  };
}

// One cold request through the facade: matrix in, verified solution out.
struct ColdResult {
  double wall_s = 0;
  double governed_peak_mb = 0;
  std::unique_ptr<spc::SparseCholesky> chol;
};
ColdResult cold_request(const BenchMatrix& m, const std::vector<double>& b, Tally* tally) {
  ColdResult r;
  const Clock::time_point t0 = Clock::now();
  spc::SparseCholesky chol =
      m.ordering == spc::OrderingKind::kMmd
          ? spc::SparseCholesky::analyze(m.matrix)
          : spc::SparseCholesky::analyze_ordered(m.matrix, spc::order_bench_matrix(m));
  chol.factorize_parallel(kComputeThreads);
  const std::vector<double> x = chol.solve(b);
  const bool ok = spc::solve_residual(m.matrix, x, b) <= kResidualTol;
  r.wall_s = since(t0);
  tally->check(ok);
  r.governed_peak_mb = static_cast<double>(chol.memory_budget()->peak_bytes()) / (1 << 20);
  r.chol = std::make_unique<spc::SparseCholesky>(std::move(chol));
  return r;
}

struct LibSamples {
  std::vector<double> request_s, factor_s, solve_ms, governed_peak_mb;
};

// Repeat factorizations and warm solves on an analyzed request. The solves
// are spread over the factorizations because each factorization allocates a
// new factor arena, and the solve time depends on where it lands: on a
// 4-vCPU Xeon VM, solves of one BCSSTK31 pattern took ~2.4 ms on some arenas
// and ~4 ms on others. With every solve on the request's last arena,
// solve_ms was a median over too few arenas to repeat from run to run.
void warm_work(const Workload& w, const BenchMatrix& m, spc::SparseCholesky& chol,
               const std::vector<std::vector<double>>& rhs, LibSamples* s, Tally* tally) {
  const int nf = w.refactors_per_request, ns = w.solves_per_request;
  for (int r = 0; r < nf; ++r) {
    const Clock::time_point t0 = Clock::now();
    chol.factorize_parallel(kComputeThreads);
    s->factor_s.push_back(since(t0));
    tally->check(spc::factor_residual_probe(chol.permuted_matrix(), chol.factor()) <=
                 kFactorResidualTol);
    for (int k = r * ns / nf; k < (r + 1) * ns / nf; ++k) {
      const std::vector<double>& b = rhs[static_cast<std::size_t>(k) % rhs.size()];
      const Clock::time_point t1 = Clock::now();
      const std::vector<double> x = chol.solve(b);
      s->solve_ms.push_back(since(t1) * 1e3);
      tally->check(spc::solve_residual(m.matrix, x, b) <= kResidualTol);
    }
  }
}

std::vector<std::vector<double>> request_rhs(const BenchMatrix& m, std::uint64_t seed, i64 k) {
  return {make_rhs(m.matrix, mix(seed, 2000 + 2 * static_cast<std::uint64_t>(k))),
          make_rhs(m.matrix, mix(seed, 2001 + 2 * static_cast<std::uint64_t>(k)))};
}

using Metrics = std::vector<std::pair<std::string, std::pair<double, std::string>>>;

// --- the layer-by-layer request of the traced run ---------------------------

struct LayerRequest {
  double wall_s = 0;       // the traced request, root span
  double children_s = 0;  // ordering + symbolic + blocks + factor + solve + check
  double ordering_s = 0, symbolic_s = 0, blocks_s = 0;
  i64 tasks = 0, mods = 0;
  // Kept for the executor measurements.
  SymSparse a_perm;
  spc::BlockStructure bs;
  spc::TaskGraph tg;
};

// Replays SparseCholesky's analyze/factorize/solve pipeline by calling each
// layer directly, with one span per layer call.
LayerRequest layer_request(const BenchMatrix& m, const std::vector<double>& b, i64 req,
                           Tracer& tr, Tally* tally) {
  LayerRequest out;
  const spc::SolverOptions opt;
  const std::int64_t root = tr.open();
  const Clock::time_point t_req = Clock::now();
  auto span = [&](const char* name, const std::function<void()>& fn) {
    const Clock::time_point t0 = Clock::now();
    fn();
    const Clock::time_point t1 = Clock::now();
    tr.record(name, "layer", t0, t1, root, req);
    out.children_s += seconds_between(t0, t1);
    return seconds_between(t0, t1);
  };
  std::vector<idx> perm;
  out.ordering_s = span("ordering", [&] { perm = spc::order_bench_matrix(m); });
  std::vector<idx> parent;
  spc::SymbolicFactor sf;
  std::vector<idx> full_perm;
  out.symbolic_s = span("symbolic", [&] {
    SymSparse a1 = m.matrix.permuted(perm);
    const std::vector<idx> parent1 = spc::elimination_tree(a1);
    const std::vector<idx> post = spc::etree_postorder(parent1);
    full_perm = spc::compose_permutations(perm, post);
    out.a_perm = a1.permuted(post);
    parent = spc::relabel_parent(parent1, post);
    const std::vector<i64> counts = spc::factor_col_counts(out.a_perm, parent);
    spc::SupernodePartition sn = spc::find_supernodes(parent, counts);
    if (opt.amalgamate) {
      sn = spc::amalgamate_supernodes(sn, parent, counts, opt.amalgamation);
    }
    sf = spc::symbolic_factorize(out.a_perm, parent, sn);
  });
  out.blocks_s = span("blocks", [&] {
    out.bs = spc::build_block_structure(sf, spc::make_blocking(sf, opt.blocking_options()));
    out.tg = spc::build_task_graph(out.bs);
  });
  out.tasks = out.tg.total_ops();
  out.mods = static_cast<i64>(out.tg.mods.size());
  std::optional<spc::BlockFactor> f;
  span("factor", [&] {
    spc::ParallelFactorOptions po;
    po.num_threads = kComputeThreads;
    f = spc::block_factorize_parallel(out.a_perm, out.bs, out.tg, po);
  });
  std::vector<double> x(b.size());
  span("solve", [&] {
    std::vector<double> pb(b.size());
    for (std::size_t k = 0; k < b.size(); ++k) pb[k] = b[static_cast<std::size_t>(full_perm[k])];
    const std::vector<double> px = spc::block_solve(*f, pb);
    for (std::size_t k = 0; k < b.size(); ++k) x[static_cast<std::size_t>(full_perm[k])] = px[k];
  });
  bool ok = false;
  span("check", [&] { ok = spc::solve_residual(m.matrix, x, b) <= kResidualTol; });
  const Clock::time_point t_end = Clock::now();
  tr.close(root, "request", "request", t_req, t_end, 0, req);
  out.wall_s = seconds_between(t_req, t_end);
  tally->check(ok);
  return out;
}

// Aggregate Mflop/s of `threads` threads each running the B=48 packed GEMM
// on private operands for `seconds` (the machine ceiling of a BMOD).
double gemm48_mflops(int threads, double seconds) {
  constexpr idx kB = 48;
  std::vector<i64> calls(static_cast<std::size_t>(threads), 0);
  std::vector<std::thread> pool;
  const Clock::time_point t0 = Clock::now();
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&calls, t, seconds, t0] {
      spc::Rng rng(static_cast<std::uint64_t>(t) + 1);
      spc::DenseMatrix a(kB, kB), b(kB, kB), c(kB, kB);
      for (idx j = 0; j < kB; ++j) {
        for (idx i = 0; i < kB; ++i) {
          a(i, j) = rng.uniform(-1, 1) * 1e-3;
          b(i, j) = rng.uniform(-1, 1) * 1e-3;
        }
      }
      i64 n = 0;
      while (seconds_between(t0, Clock::now()) < seconds) {
        for (int k = 0; k < 16; ++k) spc::gemm_nt_minus_packed(a, b, c);
        n += 16;
      }
      calls[static_cast<std::size_t>(t)] = n;
    });
  }
  for (std::thread& th : pool) th.join();
  const double wall = since(t0);
  i64 total = 0;
  for (i64 n : calls) total += n;
  return static_cast<double>(total) * 2.0 * kB * kB * kB / wall / 1e6;
}

template <class F>
double median_seconds(int reps, F&& fn) {
  std::vector<double> s;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point t0 = Clock::now();
    fn();
    s.push_back(since(t0));
  }
  return median(s);
}

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string socket;
  std::string trace_out;
};

int run(const RunConfig& rc) {
  const Workload w = make_workload(rc.workload);
  const CpuTimes cpu0 = read_cpu_times();
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  Tally tally;

  // --- set-up, kSetupReps times; the last one is kept ----------------------
  std::vector<double> setup_s;
  std::unique_ptr<Env> env;
  for (int r = 0; r < kSetupReps; ++r) {
    if (env) env->shut_down();
    const Clock::time_point t0 = Clock::now();
    env = set_up(w, rc.seed, rc.socket);
    setup_s.push_back(since(t0));
  }
  prepare_references(*env);
  env->client->configure(&env->targets, write_maker(*env, rc.seed), kWriteEvery, 16);

  Tracer tracer;
  Tracer* tr = rc.trace ? &tracer : nullptr;
  Metrics metrics;
  auto put = [&metrics](const std::string& name, double v, const std::string& unit) {
    metrics.push_back({name, {v, unit}});
  };

  // --- measurement: kRounds rounds of (library slice, depth-1 slice,
  // depth-16 slice), so every metric samples the whole run ------------------
  LibSamples lib;
  std::vector<double> overhead_us, self_s;
  std::vector<double> ordering_s, symbolic_s, blocks_s;
  LayerRequest last_layer;
  TrafficStats d1, d16;
  spc::server::Server& server = *env->server;
  i64 batches = 0, batched_cols = 0;
  double lib_wall = 0, d1_wall = 0, d16_wall = 0;
  const double round_s = rc.seconds / kRounds;
  const double lib_s = w.lib_share * round_s;
  const double d1_s = w.d1_share * (round_s - lib_s);
  const double d16_s = round_s - lib_s - d1_s;
  const auto warm = [](double s) { return std::min(0.25, 0.1 * s); };
  i64 k = 0;
  for (int round = 0; round < kRounds; ++round) {
    Clock::time_point lib_start = Clock::now();
    // The traced run does each input twice (facade, then layer by layer).
    const int min_requests = rc.trace ? 1 : w.requests_per_round;
    for (int n = 0; n < min_requests || since(lib_start) < lib_s; ++n) {
      const BenchMatrix m = w.request(rc.seed, k);
      const std::vector<std::vector<double>> rhs = request_rhs(m, rc.seed, k);
      ++k;
      ColdResult cold = cold_request(m, rhs[0], &tally);
      lib.request_s.push_back(cold.wall_s);
      lib.governed_peak_mb.push_back(cold.governed_peak_mb);
      if (!rc.trace) {
        warm_work(w, m, *cold.chol, rhs, &lib, &tally);
        continue;
      }
      // Traced: the same input once more, layer by layer.
      cold.chol.reset();
      LayerRequest lr = layer_request(m, rhs[0], k, tracer, &tally);
      // Tracing cost: the traced request's time outside its layer calls.
      overhead_us.push_back((lr.wall_s - lr.children_s) * 1e6);
      self_s.push_back(cold.wall_s - lr.children_s);
      ordering_s.push_back(lr.ordering_s);
      symbolic_s.push_back(lr.symbolic_s);
      blocks_s.push_back(lr.blocks_s);
      last_layer = std::move(lr);
    }
    lib_wall += since(lib_start);
    Clock::time_point t0 = Clock::now();
    // Depth 1 runs without writes: a write overlapping part of the slice
    // would split its latencies into two populations and put the median
    // between them.
    env->client->run(1, d1_s, warm(d1_s), false, &d1, tr);
    d1_wall += since(t0);
    const srv::StatsReply s0 = server.stats();
    t0 = Clock::now();
    env->client->run(16, d16_s, warm(d16_s), true, &d16, tr);
    d16_wall += since(t0);
    const srv::StatsReply s1 = server.stats();
    batches += s1.batches - s0.batches;
    batched_cols += s1.batched_cols - s0.batched_cols;
  }
  for (const TrafficStats* t : {&d1, &d16}) {
    tally.attempted += t->attempted;
    tally.failed += t->failed;
  }
  // Writes to different bases differ in cost: average the per-base medians.
  std::map<int, std::vector<double>> admin = d1.admin_ms;
  for (const auto& kv : d16.admin_ms) {
    admin[kv.first].insert(admin[kv.first].end(), kv.second.begin(), kv.second.end());
  }
  if (admin.size() != env->targets.size()) {
    throw std::runtime_error("a base got no measured write; the run is too short");
  }
  double admin_ms = 0;
  i64 measured_writes = 0;
  std::string writes_per_base;
  for (const auto& kv : admin) {
    admin_ms += median(kv.second) / static_cast<double>(admin.size());
    measured_writes += static_cast<i64>(kv.second.size());
    writes_per_base += (writes_per_base.empty() ? "" : ",") + std::to_string(kv.second.size());
  }
  // Governed memory: the registry's peak (every resident factor, mirrored)
  // plus the largest governed peak of one cold request, which runs while the
  // registry holds its entries.
  const double registry_peak_mb =
      static_cast<double>(server.stats().registry_peak_bytes) / (1 << 20);
  const double peak_mem_mb =
      registry_peak_mb +
      *std::max_element(lib.governed_peak_mb.begin(), lib.governed_peak_mb.end());

  if (!rc.trace) {
    put("setup_s", median(setup_s), "s");
    put("request_s", median(lib.request_s), "s");
    put("factor_s", median(lib.factor_s), "s");
    put("solve_ms", median(lib.solve_ms), "ms");
    put("solves_per_s", static_cast<double>(d16.window_solves) / d16.window_s, "1/s");
    put("serve_p50_ms", median(d1.lat_ms), "ms");
    put("serve_p90_ms", quantile(d16.lat_ms, 0.9), "ms");
    put("admin_ms", admin_ms, "ms");
    put("peak_mem_mb", peak_mem_mb, "MB");
  } else {
    // --- layer measurements on the last request's structure ----------------
    const LayerRequest& L = last_layer;
    put("ordering.order_s", median(ordering_s), "s");
    put("symbolic.s", median(symbolic_s), "s");
    put("blocks.s", median(blocks_s), "s");
    put("blocks.tasks", static_cast<double>(L.tasks), "count");
    put("blocks.mods", static_cast<double>(L.mods), "count");
    put("cholesky.self_s", median(self_s), "s");
    put("cholesky.governed_peak_mb", median(lib.governed_peak_mb), "MB");
    put("trace.overhead_us", median(overhead_us), "us");

    const double mf1 = median({gemm48_mflops(1, 0.3), gemm48_mflops(1, 0.3), gemm48_mflops(1, 0.3)});
    const double mf2 = median({gemm48_mflops(2, 0.3), gemm48_mflops(2, 0.3), gemm48_mflops(2, 0.3)});
    put("linalg.gemm48_mflops_1t", mf1, "Mflop/s");
    put("linalg.gemm48_mflops_2t", mf2, "Mflop/s");

    spc::ParallelWorkspace ws(L.bs, L.tg);
    std::optional<spc::BlockFactor> f;
    auto exec = [&](int threads, spc::ParallelProfile* prof) {
      spc::ParallelFactorOptions po;
      po.num_threads = threads;
      po.profile = prof;
      f = spc::block_factorize_parallel(L.a_perm, L.bs, L.tg, po, &ws);
    };
    exec(kComputeThreads, nullptr);  // warm the workspace
    const int reps = 3;
    const double ex2 = median_seconds(reps, [&] { exec(kComputeThreads, nullptr); });
    const double ex1 = median_seconds(reps, [&] { exec(1, nullptr); });
    const double ser = median_seconds(reps, [&] { f = spc::block_factorize(L.a_perm, L.bs); });
    const double ex4 = median_seconds(reps, [&] { exec(static_cast<int>(std::min(4u, nproc)), nullptr); });
    spc::ParallelProfile prof;
    exec(kComputeThreads, &prof);
    tally.check(spc::factor_residual_probe(L.a_perm, *f) <= kFactorResidualTol);
    const spc::ParallelProfile::Worker tot = prof.total();
    double bmod_flops = 0;
    for (const spc::BlockMod& bm : L.tg.mods) bmod_flops += static_cast<double>(bm.flops);
    put("factor.executor_s", ex2, "s");
    put("factor.executor_1t_s", ex1, "s");
    put("factor.serial_s", ser, "s");
    put("factor.executor_4t_s", ex4, "s");
    put("factor.bmod_s", tot.bmod_compute_s, "s");
    put("factor.scatter_s", tot.scatter_s, "s");
    put("factor.init_s", tot.init_s, "s");
    put("factor.idle_s", tot.idle_s, "s");
    put("factor.steals", static_cast<double>(prof.steals), "count");
    put("factor.bmod_mflops", tot.bmod_compute_s > 0 ? bmod_flops / tot.bmod_compute_s / 1e6 : 0,
        "Mflop/s");
    put("factor.ceiling_frac",
        static_cast<double>(L.tg.total_flops()) / ex2 / 1e6 / mf2, "ratio");

    spc::SolveWorkspace sws(L.bs);
    spc::SolveOptions so;
    so.threads = 1;
    const idx n = L.a_perm.num_rows();
    std::vector<double> panel(static_cast<std::size_t>(n) * 16);
    auto solve_panel = [&](idx nrhs) {
      for (std::size_t i = 0; i < static_cast<std::size_t>(n * nrhs); ++i) panel[i] = 1.0;
      spc::block_solve_panel(*f, panel.data(), nrhs, so, &sws);
    };
    solve_panel(16);  // warm the workspace
    put("factor.solve1_ms", median_seconds(8, [&] { solve_panel(1); }) * 1e3, "ms");
    put("factor.solve16_ms", median_seconds(8, [&] { solve_panel(16); }) * 1e3, "ms");
    {
      std::vector<double> ones(static_cast<std::size_t>(n), 1.0);
      std::vector<double> b = L.a_perm.multiply(ones);
      spc::block_solve_panel(*f, b.data(), 1, so, &sws);
      tally.check(spc::solve_residual(L.a_perm, b, L.a_perm.multiply(ones)) <= kResidualTol);
    }

    // Protocol codecs: one analyze frame and one solve frame of the first base.
    const Target& t0 = env->targets[0];
    std::vector<double> enc_us, dec_us;
    for (int r = 0; r < 10; ++r) {
      Clock::time_point c0 = Clock::now();
      const std::vector<srv::u8> ap = srv::encode_analyze_request({*t0.a, t0.opt});
      srv::SolveRequest sr;
      sr.key = t0.reg.key;
      sr.rhs = t0.rhs[0];
      const std::vector<srv::u8> sp = srv::encode_solve_request(sr);
      enc_us.push_back(since(c0) * 1e6);
      c0 = Clock::now();
      const srv::AnalyzeRequest ad = srv::decode_analyze_request(ap);
      const srv::SolveRequest sd = srv::decode_solve_request(sp);
      dec_us.push_back(since(c0) * 1e6);
      if (r == 0) tally.check(ad.matrix.nnz_lower() == t0.a->nnz_lower() && sd.rhs == t0.rhs[0]);
    }
    put("protocol.encode_us", median(enc_us), "us");
    put("protocol.decode_us", median(dec_us), "us");

    // The typed Server API on an idle daemon: solve, analyze, factorize.
    std::vector<double> typed_solve_ms;
    for (int r = 0; r < 16; ++r) {
      const Clock::time_point c0 = Clock::now();
      const std::vector<double> x = server.solve(t0.reg.key, t0.rhs[r % kRhsPool]);
      typed_solve_ms.push_back(since(c0) * 1e3);
      tally.check(spc::solve_residual(*t0.a, x, t0.rhs[r % kRhsPool]) <= kResidualTol);
    }
    std::vector<double> an_ms, fa_ms;
    const auto make_write = write_maker(*env, rc.seed ^ 0x5eedULL);
    const Clock::time_point typed0 = Clock::now();
    for (std::int64_t j = 0; j < 1 || (j < 8 && since(typed0) < 0.05 * rc.seconds); ++j) {
      const SymSparse wa = make_write(0, j);
      Clock::time_point c0 = Clock::now();
      const srv::AnalyzeReply ar = server.analyze(wa, t0.opt);
      an_ms.push_back(since(c0) * 1e3);
      c0 = Clock::now();
      const srv::FactorizeReply fr = server.factorize(ar.key, 1);
      fa_ms.push_back(since(c0) * 1e3);
      tally.check(ar.factor_nnz == t0.reg.factor_nnz && fr.perturbed_pivots == 0);
      server.evict(ar.key);
    }
    put("server.analyze_ms", median(an_ms), "ms");
    put("server.factorize_ms", median(fa_ms), "ms");

    const srv::StatsReply st = server.stats();
    put("server.wire_ms", median(d1.lat_ms) - median(typed_solve_ms), "ms");
    put("server.batch_cols_mean",
        batches > 0 ? static_cast<double>(batched_cols) / static_cast<double>(batches) : 0.0,
        "cols");
    put("registry.entries", static_cast<double>(st.registry_entries), "count");
    put("registry.evictions", static_cast<double>(st.registry_evictions), "count");
    put("registry.peak_mb", static_cast<double>(st.registry_peak_bytes) / (1 << 20), "MB");
  }
  std::string base_names;
  for (const Base& b : env->bases) base_names += (base_names.empty() ? "" : ",") + b.name;
  env->shut_down();

  const CpuTimes cpu1 = read_cpu_times();
  const double steal_frac =
      cpu1.total > cpu0.total
          ? static_cast<double>(cpu1.steal - cpu0.steal) / static_cast<double>(cpu1.total - cpu0.total)
          : 0.0;
  if (rc.trace) {
    put("host.steal_frac", steal_frac, "ratio");
    const Clock::time_point t0 = Clock::now();
    const std::string json = tracer.chrome_json();
    put("trace.write_ms", since(t0) * 1e3, "ms");
    if (!rc.trace_out.empty()) {
      std::ofstream out(rc.trace_out, std::ios::binary);
      if (!(out << json) || !out.flush()) {
        throw std::runtime_error("cannot write trace file " + rc.trace_out);
      }
    }
  }

  const double fail_frac = static_cast<double>(tally.failed) / static_cast<double>(tally.attempted);
  std::printf("# run workload=%s seed=%llu seconds=%g trace=%d nproc=%u isa=%s "
              "compute_threads=%d steal_frac=%.5f spans=%zu bases=%s\n",
              w.name.c_str(), static_cast<unsigned long long>(rc.seed), rc.seconds,
              rc.trace ? 1 : 0, nproc, spc::kernel_isa_name(spc::kernel_isa()),
              kComputeThreads, steal_frac, tracer.size(), base_names.c_str());
  std::printf("# phases lib_s=%.2f d1_s=%.2f d16_s=%.2f cold_requests=%zu refactors=%zu "
              "warm_solves=%zu d1_solves=%zu d16_solves=%zu writes=%lld writes_per_base=%s "
              "solves_per_write=%.1f\n",
              lib_wall, d1_wall, d16_wall, lib.request_s.size(), lib.factor_s.size(),
              lib.solve_ms.size(), d1.lat_ms.size(), d16.lat_ms.size(),
              static_cast<long long>(measured_writes), writes_per_base.c_str(),
              static_cast<double>(d1.lat_ms.size() + d16.lat_ms.size()) /
                  static_cast<double>(std::max<i64>(1, measured_writes)));
  std::printf("# check max_rel_diff=%.3g (bound 1e-8) rss_mb=%.1f registry_peak_mb=%.1f\n",
              std::max(d1.max_rel_diff, d16.max_rel_diff), peak_rss_mb(), registry_peak_mb);
  if (rc.trace && !rc.trace_out.empty()) std::printf("# trace %s\n", rc.trace_out.c_str());
  for (const auto& m : metrics) {
    std::printf("# %-28s %14.6f %s\n", m.first.c_str(), m.second.first, m.second.second.c_str());
  }
  std::printf("# %-28s %14.6f %s (%lld of %lld)\n", "fail_frac", fail_frac, "ratio",
              static_cast<long long>(tally.failed), static_cast<long long>(tally.attempted));
  std::ostringstream js;
  js.precision(17);
  js << "{\"correct\": " << (tally.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << tally.attempted << ", \"failed\": " << tally.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    js << (i ? ", " : "") << "\"" << metrics[i].first << "\": {\"value\": "
       << metrics[i].second.first << ", \"unit\": \"" << metrics[i].second.second << "\"}";
  }
  js << "}}";
  std::printf("%s\n", js.str().c_str());
  std::fflush(stdout);
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::RunConfig rc;
  rc.socket = "spcd-" + std::to_string(::getpid()) + ".sock";
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
      const std::string v = argv[++i];
      if (a == "--workload") rc.workload = v;
      else if (a == "--seed") rc.seed = std::stoull(v);
      else if (a == "--seconds") rc.seconds = std::stod(v);
      else if (a == "--trace") rc.trace = v != "0";
      else if (a == "--socket") rc.socket = v;
      else if (a == "--trace-out") rc.trace_out = v;
      else throw std::invalid_argument("unknown argument " + a);
    }
    if (rc.workload.empty()) throw std::invalid_argument("--workload is required");
    if (!(rc.seconds > 0)) throw std::invalid_argument("--seconds must be positive");
    return perfbench::run(rc);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
    return 2;
  }
}
