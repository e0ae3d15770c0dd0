// spcd — the sparse-Cholesky solver daemon and its client commands
// (docs/SERVING.md).
//
//   spcd serve <--socket PATH> [--tcp [--port N]] [--workers N]
//        [--solve-threads N] [--factor-threads N] [--nrhs-block N]
//        [--window-ms X] [--mem-budget-mb X] [--max-entries N]
//     Runs the daemon: poll() event loop feeding the batching solve engine.
//     Stops on SIGINT/SIGTERM or a kShutdown frame. With --tcp --port 0 the
//     bound ephemeral port is printed as "port: N".
//
//   spcd ping|stats|shutdown --socket PATH [--tcp-port N]
//   spcd analyze <matrix> --socket PATH [matrix/options flags]
//     Registers and factors the matrix, prints its fingerprint and the
//     factor's fp32 / fp32_fallback flags.
//   spcd solve <matrix> --socket PATH [--nrhs N] [--deadline-ms X]
//     Analyze + N single-RHS solves (b = A * ones), verifying each solution
//     client-side against the known x = ones; prints the factor's flags.
//
// Exit codes follow the spc contract (docs/ROBUSTNESS.md): a typed kError
// reply from the daemon maps back to its ErrorKind's exit code, so e.g. a
// protocol violation exits 9 and an expired deadline exits 8.
#include <sys/socket.h>
#include <sys/un.h>
#include <netinet/in.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "cli_common.hpp"
#include "server/event_loop.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"

namespace spc {
namespace {

using cli::Args;
using server::Frame;
using server::MsgType;

// --- client ----------------------------------------------------------------

class Client {
 public:
  Client(const std::string& unix_path, int tcp_port) {
    if (tcp_port > 0) {
      fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
      SPC_CHECK(fd_ >= 0, "spcd: socket() failed");
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = htons(static_cast<std::uint16_t>(tcp_port));
      SPC_CHECK(::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                          sizeof(addr)) == 0,
                "spcd: cannot connect to 127.0.0.1:" + std::to_string(tcp_port));
    } else {
      fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
      SPC_CHECK(fd_ >= 0, "spcd: socket() failed");
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      SPC_CHECK(unix_path.size() < sizeof(addr.sun_path),
                "spcd: socket path too long");
      std::strncpy(addr.sun_path, unix_path.c_str(), sizeof(addr.sun_path) - 1);
      SPC_CHECK(::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                          sizeof(addr)) == 0,
                "spcd: cannot connect to " + unix_path +
                    " (is the daemon running?)");
    }
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // Sends one request and blocks for its reply. A kError reply is rethrown
  // as the typed spc::Error it carries.
  Frame call(MsgType type, std::vector<server::u8> payload) {
    Frame req;
    req.type = type;
    req.request_id = next_id_++;
    req.payload = std::move(payload);
    const std::vector<server::u8> bytes = server::encode_frame(req);
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t put = ::write(fd_, bytes.data() + sent, bytes.size() - sent);
      SPC_CHECK(put > 0, "spcd: connection lost while sending");
      sent += static_cast<std::size_t>(put);
    }
    Frame reply;
    while (!decoder_.next(&reply)) {
      char buf[65536];
      const ssize_t got = ::read(fd_, buf, sizeof(buf));
      SPC_CHECK(got > 0, "spcd: connection closed before a reply arrived");
      decoder_.feed(buf, static_cast<std::size_t>(got));
    }
    if (reply.type == MsgType::kError) {
      const server::ErrorReply e = server::decode_error_reply(reply.payload);
      throw Error("daemon: " + e.message, e.kind);
    }
    SPC_CHECK(reply.request_id == req.request_id,
              "spcd: reply id does not match request");
    return reply;
  }

 private:
  int fd_ = -1;
  server::FrameDecoder decoder_;
  server::u64 next_id_ = 1;
};

Client connect_from(const Args& args) {
  const int tcp_port = std::stoi(args.get("tcp-port", "0"));
  const std::string path = args.get("socket", "");
  SPC_CHECK(tcp_port > 0 || !path.empty(),
            "spcd: pass --socket PATH or --tcp-port N");
  return Client(path, tcp_port);
}

// The analyze-relevant options subset shared by the client commands
// (mirrors tools/cli_common.hpp's analyze_from_args flags).
SolverOptions options_from(const Args& args) {
  SolverOptions opt;
  opt.block_size = static_cast<idx>(std::stoi(args.get("block", "48")));
  if (args.get("pivot-policy", "strict") == "perturb") {
    opt.pivot_policy = PivotPolicy::kPerturb;
  }
  if (args.get("precision", "fp64") == "fp32-refine") {
    opt.precision = SolverOptions::Precision::kFp32Refine;
  }
  const std::string ord = args.get("ordering", "mmd");
  if (ord == "amd") opt.ordering = SolverOptions::Ordering::kAmd;
  else if (ord == "nd") opt.ordering = SolverOptions::Ordering::kNd;
  else if (ord == "natural") opt.ordering = SolverOptions::Ordering::kNatural;
  return opt;
}

// --- serve -----------------------------------------------------------------

server::EventLoop* g_loop = nullptr;

void on_signal(int) {
  if (g_loop != nullptr) g_loop->stop();  // async-signal-safe: store + write
}

int cmd_serve(const Args& args) {
  server::ServerConfig cfg;
  cfg.workers = std::stoi(args.get("workers", "2"));
  cfg.solve_threads = std::stoi(args.get("solve-threads", "1"));
  cfg.factor_threads = std::stoi(args.get("factor-threads", "0"));
  cfg.batch.nrhs_block = static_cast<idx>(std::stoi(args.get("nrhs-block", "16")));
  cfg.batch.window_s = std::stod(args.get("window-ms", "2")) / 1000.0;
  cfg.registry.budget_bytes = static_cast<i64>(
      std::stod(args.get("mem-budget-mb", "0")) * 1024.0 * 1024.0);
  cfg.registry.max_entries =
      static_cast<std::size_t>(std::stoi(args.get("max-entries", "64")));

  server::EventLoopConfig lc;
  lc.unix_path = args.get("socket", "");
  lc.tcp = args.has("tcp");
  lc.tcp_port = std::stoi(args.get("port", "0"));
  SPC_CHECK(!lc.unix_path.empty() || lc.tcp,
            "spcd serve: pass --socket PATH and/or --tcp");

  server::Server srv(cfg);
  server::EventLoop loop(srv, lc);
  g_loop = &loop;
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGPIPE, SIG_IGN);  // peer resets surface as write errors

  if (!lc.unix_path.empty()) {
    std::printf("socket: %s\n", lc.unix_path.c_str());
  }
  if (lc.tcp) std::printf("port: %d\n", loop.tcp_port());
  std::printf("serving (workers=%d, nrhs-block=%d, window=%.1f ms, "
              "budget=%lld MB)\n",
              cfg.workers, static_cast<int>(cfg.batch.nrhs_block),
              cfg.batch.window_s * 1e3,
              static_cast<long long>(cfg.registry.budget_bytes >> 20));
  std::fflush(stdout);

  loop.run();
  g_loop = nullptr;

  const server::StatsReply s = srv.stats();
  std::printf("served %lld requests, %lld solves in %lld batches "
              "(%.2f cols/batch), %lld evictions\n",
              static_cast<long long>(s.requests),
              static_cast<long long>(s.solves_completed),
              static_cast<long long>(s.batches),
              s.batches > 0 ? static_cast<double>(s.batched_cols) /
                                  static_cast<double>(s.batches)
                            : 0.0,
              static_cast<long long>(s.registry_evictions));
  return 0;
}

// --- client commands -------------------------------------------------------

int cmd_ping(const Args& args) {
  Client c = connect_from(args);
  c.call(MsgType::kPing, {});
  std::printf("pong\n");
  return 0;
}

int cmd_stats(const Args& args) {
  Client c = connect_from(args);
  const Frame f = c.call(MsgType::kStats, {});
  const server::StatsReply s = server::decode_stats_reply(f.payload);
  std::printf("requests:           %lld\n", static_cast<long long>(s.requests));
  std::printf("solves_completed:   %lld\n",
              static_cast<long long>(s.solves_completed));
  std::printf("solve_errors:       %lld\n",
              static_cast<long long>(s.solve_errors));
  std::printf("batches:            %lld\n", static_cast<long long>(s.batches));
  std::printf("batched_cols:       %lld\n",
              static_cast<long long>(s.batched_cols));
  std::printf("deadline_rejects:   %lld\n",
              static_cast<long long>(s.deadline_rejects));
  std::printf("protocol_errors:    %lld\n",
              static_cast<long long>(s.protocol_errors));
  std::printf("registry_entries:   %lld\n",
              static_cast<long long>(s.registry_entries));
  std::printf("registry_evictions: %lld\n",
              static_cast<long long>(s.registry_evictions));
  std::printf("registry_bytes:     %lld\n",
              static_cast<long long>(s.registry_bytes));
  std::printf("registry_peak:      %lld\n",
              static_cast<long long>(s.registry_peak_bytes));
  return 0;
}

int cmd_shutdown(const Args& args) {
  Client c = connect_from(args);
  c.call(MsgType::kShutdown, {});
  std::printf("daemon shutting down\n");
  return 0;
}

// Sends kFactorize for `key` at 0 threads, the hardware concurrency (a no-op
// on an entry already factored) and prints the factor's precision flags.
void print_factor_flags(Client& c, const Fingerprint& key) {
  server::FactorizeRequest rq;
  rq.key = key;
  rq.threads = 0;
  const server::FactorizeReply r = server::decode_factorize_reply(
      c.call(MsgType::kFactorize, server::encode_factorize_request(rq)).payload);
  std::printf("factor:      fp32=%d fp32_fallback=%d\n", r.fp32 ? 1 : 0,
              r.fp32_fallback ? 1 : 0);
}

int cmd_analyze(const Args& args) {
  const cli::Loaded m = cli::load_matrix(args);
  Client c = connect_from(args);
  server::AnalyzeRequest rq;
  rq.matrix = m.bench.matrix;
  rq.options = options_from(args);
  const Frame f =
      c.call(MsgType::kAnalyze, server::encode_analyze_request(rq));
  const server::AnalyzeReply r = server::decode_analyze_reply(f.payload);
  std::printf("matrix:      %s (n=%d)\n", m.bench.name.c_str(),
              static_cast<int>(r.n));
  std::printf("fingerprint: %s\n", r.key.to_hex().c_str());
  std::printf("factor nnz:  %lld, flops: %lld\n",
              static_cast<long long>(r.factor_nnz),
              static_cast<long long>(r.factor_flops));
  print_factor_flags(c, r.key);
  return 0;
}

int cmd_solve(const Args& args) {
  const cli::Loaded m = cli::load_matrix(args);
  const idx n = m.bench.matrix.num_rows();
  const int nrhs = std::stoi(args.get("nrhs", "1"));
  const double deadline_s =
      args.has("deadline-ms") ? std::stod(args.get("deadline-ms", "0")) / 1e3
                              : -1.0;
  Client c = connect_from(args);
  server::AnalyzeRequest arq;
  arq.matrix = m.bench.matrix;
  arq.options = options_from(args);
  const server::AnalyzeReply a = server::decode_analyze_reply(
      c.call(MsgType::kAnalyze, server::encode_analyze_request(arq)).payload);

  // b = A * ones, so the expected solution is exactly ones.
  const std::vector<double> ones(static_cast<std::size_t>(n), 1.0);
  const std::vector<double> b = m.bench.matrix.multiply(ones);
  double worst = 0.0;
  for (int r = 0; r < nrhs; ++r) {
    server::SolveRequest srq;
    srq.key = a.key;
    srq.deadline_s = deadline_s;
    srq.rhs = b;
    const server::SolveReply sol = server::decode_solve_reply(
        c.call(MsgType::kSolve, server::encode_solve_request(srq)).payload);
    SPC_CHECK(sol.x.size() == ones.size(), "spcd solve: bad solution size");
    double err = 0.0;
    for (std::size_t i = 0; i < sol.x.size(); ++i) {
      err = std::max(err, std::abs(sol.x[i] - 1.0));
    }
    worst = std::max(worst, err);
  }
  std::printf("%s: %d solve(s) through %s, max |x - 1| = %.3e\n",
              m.bench.name.c_str(), nrhs, a.key.to_hex().c_str(), worst);
  print_factor_flags(c, a.key);
  SPC_CHECK(worst < 1e-6, "spcd solve: solution error too large");
  return 0;
}

int run(int argc, char** argv) {
  const Args args = cli::parse_args(
      argc, argv,
      "usage: spcd <serve|ping|analyze|solve|stats|shutdown> ...");
  if (args.command == "serve") return cmd_serve(args);
  if (args.command == "ping") return cmd_ping(args);
  if (args.command == "analyze") return cmd_analyze(args);
  if (args.command == "solve") return cmd_solve(args);
  if (args.command == "stats") return cmd_stats(args);
  if (args.command == "shutdown") return cmd_shutdown(args);
  std::fprintf(stderr, "unknown command '%s'\n", args.command.c_str());
  return 2;
}

}  // namespace
}  // namespace spc

int main(int argc, char** argv) {
  try {
    return spc::run(argc, argv);
  } catch (const spc::Error& e) {
    // Exit-code contract (docs/ROBUSTNESS.md): Internal=1, usage=2,
    // MalformedInput=3, NotPositiveDefinite=4, ResourceExhausted=5,
    // Cancelled=6, InjectedFault=7, DeadlineExceeded=8, ProtocolError=9.
    std::fprintf(stderr, "error [%s]: %s\n", spc::error_kind_name(e.kind()),
                 e.what());
    return spc::exit_code_for(e.kind());
  }
}
