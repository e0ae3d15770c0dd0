// Closed-loop spcd client of the benchmark: one thread, poll() over a few
// Unix-socket connections to an in-process EventLoop.
//
// Connections [0, conns-1) carry single-RHS solves against the registered
// base factors; the last connection carries "writes": an analyze plus
// factorize of a same-pattern matrix with new values, issued whenever the
// write channel is idle and `write_every` solves have completed since the
// previous write started. Every solve answer is compared with an in-process
// reference solution that was itself checked with solve_residual, and every
// `residual_every`-th answer is also checked with solve_residual directly.
// Every write is checked against the base's analyze reply (same pattern,
// hence the same n, NZ(L) and flop count) and must factor without
// perturbed pivots.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/graph.hpp"
#include "server/protocol.hpp"
#include "trace.hpp"

namespace perfbench {

namespace srv = spc::server;

// One registered factor that solves are sent to.
struct Target {
  const spc::SymSparse* a = nullptr;
  spc::SolverOptions opt;
  srv::AnalyzeReply reg;                     // reply to the base's analyze
  std::vector<std::vector<double>> rhs;      // RHS pool, cycled
  std::vector<std::vector<double>> xref;     // verified in-process solutions
  std::vector<std::vector<srv::u8>> solve_payloads;  // encoded per pool RHS
  int weight = 1;                            // share of the solve traffic
};

// What one traffic run measured. Latencies and counts cover only requests
// sent inside the measured window (after the warm-up).
struct TrafficStats {
  std::vector<double> lat_ms;    // solve round trips
  // Write round trips (analyze + factorize), per target.
  std::map<int, std::vector<double>> admin_ms;
  double window_s = 0;
  std::int64_t window_solves = 0;
  std::int64_t attempted = 0;  // solves and writes answered, all windows
  std::int64_t failed = 0;     // errors and wrong answers among them
  double max_rel_diff = 0;     // largest distance of an answer from its reference
};

class DaemonClient {
 public:
  // Connects `conns` (>= 2) sockets to the daemon at `path`.
  DaemonClient(const std::string& path, int conns);
  ~DaemonClient();
  DaemonClient(const DaemonClient&) = delete;
  DaemonClient& operator=(const DaemonClient&) = delete;

  // Synchronous request/reply on connection `conn` (set-up and stats only;
  // nothing else may be in flight on that connection).
  srv::Frame call(const srv::Frame& req, int conn = 0);

  // Traffic inputs. `make_write(base, k)` returns the k-th write matrix for
  // target `base`; targets and the function must outlive the client's use.
  void configure(std::vector<Target>* targets,
                 std::function<spc::SymSparse(int, std::int64_t)> make_write,
                 std::int64_t write_every, int residual_every);

  // Closed loop at `depth` outstanding solves for `seconds`. Solves sent in
  // the first `warm_s` seconds are not measured. With `writes`, writes are
  // paced alongside, starting only after the warm-up and before `seconds`;
  // a write in flight at `seconds` keeps the loop loaded, and measured,
  // until it is answered. Either way the run returns with nothing in
  // flight. With `tr` set, every request becomes a span.
  void run(int depth, double seconds, double warm_s, bool writes,
           TrafficStats* out, Tracer* tr);

 private:
  enum class Kind { kSolve, kAnalyze, kFactorize };
  struct Pending {
    Kind kind = Kind::kSolve;
    int conn = 0;
    int target = 0;
    std::size_t rhs = 0;
    Clock::time_point sent;
    bool measured = false;
  };

  void send(int conn, const srv::Frame& f);
  void send_solve(int conn, bool measured);
  void start_write(Tracer* tr);
  // Polls once (up to `timeout_ms`) and handles every complete reply.
  void pump(int timeout_ms, TrafficStats* out, Tracer* tr,
            std::vector<int>* freed_conns);
  void handle(const srv::Frame& f, TrafficStats* out, Tracer* tr,
              std::vector<int>* freed_conns);
  void check_answers(TrafficStats* out);

  std::vector<int> fds_;
  std::vector<srv::FrameDecoder> decoders_;
  std::vector<srv::u8> rbuf_ = std::vector<srv::u8>(1 << 20);
  std::unordered_map<std::uint64_t, Pending> pending_;
  std::uint64_t next_id_ = 1;

  std::vector<Target>* targets_ = nullptr;
  std::function<spc::SymSparse(int, std::int64_t)> make_write_;
  std::int64_t write_every_ = 0;
  int residual_every_ = 16;
  std::vector<int> schedule_;  // weighted round-robin over targets
  std::size_t sched_pos_ = 0;
  std::vector<std::size_t> rhs_pos_;
  std::int64_t solves_done_ = 0;

  struct Answer {
    int target = 0;
    std::size_t rhs = 0;
    std::vector<double> x;
  };
  std::vector<Answer> unchecked_;
  std::int64_t checked_ = 0;

  // Write channel state.
  bool write_busy_ = false;
  std::int64_t writes_started_ = 0;
  std::int64_t solves_at_write_ = 0;
  int write_target_ = 0;
  Clock::time_point write_sent_;
  std::int64_t write_span_ = 0;
};

}  // namespace perfbench
