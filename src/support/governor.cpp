#include "support/governor.hpp"

#include <limits>

#include "support/error.hpp"
#include "support/fault.hpp"

namespace spc::governor {

void MemoryBudget::charge(i64 bytes, const char* phase) {
  if (bytes <= 0) return;
  // fetch_add first, check after: a racing pair of charges may transiently
  // overshoot the cap, but the loser refunds before throwing, so the budget
  // is never *admitted* over cap. The naive load-check-store protocol lets
  // both racers pass the check (the seeded-bug litmus twin in
  // tests/test_model.cpp demonstrates exactly that overcharge).
  const i64 now = in_use_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  i64 p = peak_.load(std::memory_order_relaxed);
  while (now > p &&
         !peak_.compare_exchange_weak(p, now, std::memory_order_relaxed)) {
  }
  bool breach = budget_ > 0 && now > budget_;
#if SPC_FAULTS_ENABLED
  if (!breach &&
      fault::should_inject(fault::Site::kBudget,
                           static_cast<std::uint64_t>(bytes))) {
    breach = true;
  }
#endif
  if (breach) {
    in_use_.fetch_sub(bytes, std::memory_order_relaxed);
    ErrorContext ctx;
    ctx.bytes_requested = bytes;
    ctx.bytes_in_use = now - bytes;
    ctx.budget_bytes = budget_;
    ctx.has_budget = true;
    ctx.phase = phase;
    throw_budget_exceeded("memory budget exceeded", ctx);
  }
}

void MemoryBudget::release(i64 bytes) {
  if (bytes <= 0) return;
  in_use_.fetch_sub(bytes, std::memory_order_relaxed);
}

double Deadline::remaining_s() const {
  if (!armed_) return std::numeric_limits<double>::infinity();
#if SPC_FAULTS_ENABLED
  if (fault::should_inject(fault::Site::kDeadline, 0)) return 0.0;
#endif
  return limit_s_ - elapsed_s();
}

void Deadline::check(const Deadline* deadline, const char* phase) {
  if (deadline == nullptr || !deadline->expired()) return;
  deadline->throw_expired(phase);
}

void Deadline::throw_expired(const char* phase) const {
  ErrorContext ctx;
  ctx.elapsed_s = elapsed_s();
  ctx.limit_s = limit_s();
  ctx.has_deadline = true;
  ctx.phase = phase;
  throw_deadline_exceeded("deadline exceeded", ctx);
}

const char* degrade_rung_name(DegradeRung rung) {
  switch (rung) {
    case DegradeRung::kRetryTransient: return "retry-transient";
    case DegradeRung::kFp32ToFp64: return "fp32-to-fp64";
    case DegradeRung::kParallelToSerial: return "parallel-to-serial";
  }
  return "unknown";
}

}  // namespace spc::governor
