// Resource governance: memory budgets, wall-clock deadlines, and the
// degradation ladder walked by the SparseCholesky facade.
//
// Three coupled pieces (docs/ROBUSTNESS.md §7):
//
//  * MemoryBudget — atomic byte accounting threaded through every large
//    allocation (block arenas, ParallelWorkspace, SolveWorkspace, fp32
//    arena, per-worker scratch). Charges happen *before* the allocation;
//    a breach surfaces as Error(kResourceExhausted) with typed context
//    (phase, bytes requested, bytes in use, budget) instead of bad_alloc.
//    peak_bytes() lets analyze report a memory estimate up front so the
//    facade can reject infeasible requests before numeric work starts.
//
//  * Deadline — a steady-clock limit polled at task-acquire boundaries in
//    the parallel executors and at block-column boundaries in the serial
//    engines and the solve sweep. Clock reads are amortized
//    (DeadlinePoller): far from expiry a worker reads the clock only every
//    few tasks; within the near window it checks every task, so overshoot
//    is bounded by one task's duration. Breaches throw
//    Error(kDeadlineExceeded).
//
//  * RetryPolicy / DegradeRung — the facade's explicit, logged ladder:
//    fp32→fp64 and parallel→serial, plus bounded transient retries. Every
//    rung taken is recorded in FactorizeInfo::degrade_path.
//
// Fault-injection sites `budget` and `deadline` (src/support/fault.hpp)
// simulate memory and time pressure so every rung is deterministically
// reachable in tests without real OOM or slow matrices.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <utility>

#include "support/sync.hpp"

namespace spc::governor {

using i64 = std::int64_t;

// ---------------------------------------------------------------------------
// MemoryBudget
// ---------------------------------------------------------------------------

// Thread-safe byte accounting with an optional hard cap. budget_bytes == 0
// means "account only, never breach" — peak/in-use tracking still works, so
// an ungoverned run can be used to measure a workload before capping it.
class MemoryBudget {
 public:
  explicit MemoryBudget(i64 budget_bytes = 0) : budget_(budget_bytes) {}

  // Charges `bytes` against the budget, tagged with a static phase string
  // ("factorize", "solve", ...). Throws Error(kResourceExhausted) with the
  // full accounting in its ErrorContext when the charge would exceed the
  // budget; the failed charge is refunded before throwing, so in_use_bytes()
  // never stays above the budget. The SPC_FAULT `budget` site can force a
  // breach regardless of the cap.
  void charge(i64 bytes, const char* phase);

  // Returns bytes to the budget. Must match a prior successful charge.
  void release(i64 bytes);

  i64 in_use_bytes() const { return in_use_.load(std::memory_order_relaxed); }
  i64 peak_bytes() const { return peak_.load(std::memory_order_relaxed); }
  i64 budget_bytes() const { return budget_; }

  // Rearm for a fresh measurement (does not touch in-use accounting).
  void reset_peak() { peak_.store(in_use_bytes(), std::memory_order_relaxed); }

 private:
  const i64 budget_;  // 0 = unlimited (account only)
  // memory-order audit: both counters are pure accounting scalars — no
  // charge publishes memory to another thread through them (allocations are
  // handed off via the usual ownership channels), so relaxed RMWs suffice.
  // The fetch_add-then-refund protocol in charge() keeps the accounting
  // exact under contention (see the Litmus budget twin in test_model.cpp).
  spc::atomic<i64> in_use_{0};
  spc::atomic<i64> peak_{0};
};

// RAII charge token: accumulates charges against a shared budget and
// releases the total on destruction. A default-constructed (or nullptr-
// budget) token is a no-op, so call sites stay unconditional. Holding the
// budget by shared_ptr keeps the accounting alive even if the owning facade
// is destroyed before a cached workspace.
class BudgetCharge {
 public:
  BudgetCharge() = default;
  explicit BudgetCharge(std::shared_ptr<MemoryBudget> budget)
      : budget_(std::move(budget)) {}
  ~BudgetCharge() { release(); }

  BudgetCharge(const BudgetCharge&) = delete;
  BudgetCharge& operator=(const BudgetCharge&) = delete;
  BudgetCharge(BudgetCharge&& o) noexcept
      : budget_(std::move(o.budget_)), bytes_(o.bytes_) {
    o.bytes_ = 0;
  }
  BudgetCharge& operator=(BudgetCharge&& o) noexcept {
    if (this != &o) {
      release();
      budget_ = std::move(o.budget_);
      bytes_ = o.bytes_;
      o.bytes_ = 0;
    }
    return *this;
  }

  // Rebinds the token to another budget. Any bytes charged so far are
  // released against the old budget first.
  void rebind(std::shared_ptr<MemoryBudget> budget) {
    release();
    budget_ = std::move(budget);
  }

  // Charges `bytes` more (throws on breach; nothing is retained on throw).
  void add(i64 bytes, const char* phase) {
    if (budget_ == nullptr || bytes <= 0) return;
    budget_->charge(bytes, phase);
    bytes_ += bytes;
  }

  // Releases everything charged so far (idempotent).
  void release() {
    if (budget_ != nullptr && bytes_ > 0) budget_->release(bytes_);
    bytes_ = 0;
  }

  i64 bytes() const { return bytes_; }
  const std::shared_ptr<MemoryBudget>& budget() const { return budget_; }

 private:
  std::shared_ptr<MemoryBudget> budget_;
  i64 bytes_ = 0;
};

// ---------------------------------------------------------------------------
// Deadline
// ---------------------------------------------------------------------------

// A steady-clock wall deadline. Immutable after construction, so concurrent
// workers may poll one instance without synchronization. A limit of exactly
// 0 seconds is armed-and-already-expired (deterministic for CLI tests).
class Deadline {
 public:
  Deadline() = default;  // unarmed: never expires
  explicit Deadline(double limit_s)
      : armed_(true),
        limit_s_(limit_s),
        start_(std::chrono::steady_clock::now()) {}

  bool armed() const { return armed_; }
  double limit_s() const { return limit_s_; }

  double elapsed_s() const {
    if (!armed_) return 0.0;
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

  // Seconds until expiry; <= 0 once expired. Unarmed deadlines report +inf
  // via a large sentinel. The SPC_FAULT `deadline` site can force expiry.
  double remaining_s() const;

  bool expired() const { return armed_ && remaining_s() <= 0.0; }

  // Throws Error(kDeadlineExceeded) with elapsed/limit and the given phase
  // when expired; otherwise a no-op. Safe to call with deadline == nullptr.
  // Evaluates remaining_s() exactly once (a forced expiry from the
  // SPC_FAULT `deadline` site consumes its injection budget on that read).
  static void check(const Deadline* deadline, const char* phase);

  // Unconditionally reports this deadline as breached. Used by pollers that
  // already observed remaining_s() <= 0 and must not re-read the clock.
  [[noreturn]] void throw_expired(const char* phase) const;

 private:
  bool armed_ = false;
  double limit_s_ = 0.0;
  std::chrono::steady_clock::time_point start_{};
};

// Amortized per-worker deadline polling. Call poll() at every task-acquire
// boundary: far from expiry the clock is read only every kFarStride tasks;
// within kNearWindowS of expiry it is read every task, so the overshoot
// after the deadline passes is bounded by a single task's duration.
class DeadlinePoller {
 public:
  explicit DeadlinePoller(const Deadline* deadline = nullptr)
      : deadline_(deadline) {}

  // Throws Error(kDeadlineExceeded) once the deadline has passed.
  void poll(const char* phase) {
    if (deadline_ == nullptr || !deadline_->armed()) return;
    if (countdown_ > 0) {
      --countdown_;
      return;
    }
    const double remain = deadline_->remaining_s();
    if (remain <= 0.0) deadline_->throw_expired(phase);
    countdown_ = remain > kNearWindowS ? kFarStride : 0;
  }

  static constexpr int kFarStride = 16;        // tasks between far clock reads
  static constexpr double kNearWindowS = 0.01;  // per-task checks inside this

 private:
  const Deadline* deadline_;
  int countdown_ = 0;
};

// ---------------------------------------------------------------------------
// Degradation ladder
// ---------------------------------------------------------------------------

// One rung of the facade's graceful-degradation ladder, recorded in
// FactorizeInfo::degrade_path in the order taken.
enum class DegradeRung {
  kRetryTransient,    // transient fault: same configuration retried
  kFp32ToFp64,        // fp32 breakdown: refactorize in full precision
  kParallelToSerial,  // executor fault / pressure: serial engine
};

const char* degrade_rung_name(DegradeRung rung);

// Bounds for the facade's governed retry loop (SparseCholesky::
// factorize_governed). max_attempts counts every factorization attempt
// including the first; allow_degrade == false restricts the ladder to
// transient same-configuration retries.
struct RetryPolicy {
  int max_attempts = 6;
  bool allow_degrade = true;
  double backoff_s = 0.0;  // sleep before retrying a transient fault
};

}  // namespace spc::governor
