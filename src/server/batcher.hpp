// Coalesces queued single-RHS solve requests against the same cached factor
// into one multi-RHS panel sweep (docs/SERVING.md).
//
// The parallel solve path amortizes its factor walk across RHS columns
// (perfbench's factor.solve16_ms against factor.solve1_ms: one 16-column
// panel costs four to seven single-RHS solves), so a serving workload of
// independent 1-column solves leaves most of that bandwidth unused. The
// batcher holds each solve request in a per-fingerprint queue and releases a
// batch when either
//
//   * the queue reaches nrhs_block columns (a full panel), or
//   * the OLDEST queued request has waited window_s seconds,
//
// bounding added latency by window_s while letting bursts fill panels. A
// batch takes at most nrhs_block requests; the remainder stays queued and is
// immediately due again.
//
// The batcher is externally synchronized: the server drives every method
// under its own mutex (the state is pure bookkeeping — the expensive panel
// solve runs outside the lock on the popped Batch). Completion callbacks are
// invoked by the server after the panel, one per request, with either the
// solution column or the per-request error — a request that expired before
// its panel ran fails alone, never the whole batch.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "factor/serialize.hpp"
#include "server/registry.hpp"
#include "support/governor.hpp"
#include "support/types.hpp"

namespace spc::server {

// One queued solve. `done` is called exactly once, from a server worker:
// with a solution vector on success, or with a non-null exception_ptr
// (holding an spc::Error) on failure.
struct PendingSolve {
  std::uint64_t request_id = 0;
  std::vector<double> rhs;
  governor::Deadline deadline;  // unarmed = no deadline
  std::function<void(std::vector<double>, std::exception_ptr)> done;
  std::chrono::steady_clock::time_point enqueued{};
};

struct SolveBatch {
  std::shared_ptr<FactorRegistry::Entry> entry;
  std::vector<PendingSolve> requests;
};

class SolveBatcher {
 public:
  struct Config {
    idx nrhs_block = 16;    // flush at a full panel
    double window_s = 2e-3;  // ... or when the oldest request is this stale
  };

  explicit SolveBatcher(const Config& cfg) : cfg_(cfg) {}

  const Config& config() const { return cfg_; }

  // Queues one request (stamps `enqueued` now).
  void enqueue(std::shared_ptr<FactorRegistry::Entry> entry, PendingSolve req);

  // Pops the next batch that is ready at time `now`. A queue is due when its
  // panel is full or its oldest request has aged past the window; of the
  // due queues, the one whose oldest request is oldest goes first. With
  // `drain`, every non-empty queue is due regardless of age (shutdown
  // flush). Returns false when nothing is due; then *wait_s is the time
  // until the earliest deadline-window expiry (infinity when idle).
  bool pop_due(std::chrono::steady_clock::time_point now, bool drain,
               SolveBatch* out, double* wait_s);

  std::size_t pending() const { return pending_; }
  bool empty() const { return pending_ == 0; }

 private:
  struct Queue {
    std::shared_ptr<FactorRegistry::Entry> entry;
    std::vector<PendingSolve> requests;
  };

  const Config cfg_;
  std::map<Fingerprint, Queue> queues_;
  std::size_t pending_ = 0;
};

}  // namespace spc::server
