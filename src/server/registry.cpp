#include "server/registry.hpp"

#include <string>
#include <utility>

#include "support/error.hpp"

namespace spc::server {

FactorRegistry::FactorRegistry(const Config& cfg)
    : cfg_(cfg),
      budget_(std::make_shared<governor::MemoryBudget>(cfg.budget_bytes)) {}

FactorRegistry::~FactorRegistry() { clear(); }

void FactorRegistry::touch_locked(Entry& e) { e.last_used = ++clock_; }

void FactorRegistry::evict_locked(Entry& e) {
  if (!e.resident) return;
  e.resident = false;
  if (e.charged_bytes > 0) budget_->release(e.charged_bytes);
  e.charged_bytes = 0;
  // Copy the key out: erasing may drop the map's (possibly last) reference
  // to the entry, and the lookup key must outlive the erase.
  const Fingerprint key = e.key;
  entries_.erase(key);
  ++evictions_;
}

bool FactorRegistry::evict_lru_locked(const Entry* protect) {
  Entry* victim = nullptr;
  for (auto& [key, e] : entries_) {
    if (e.get() == protect) continue;
    if (victim == nullptr || e->last_used < victim->last_used) {
      victim = e.get();
    }
  }
  if (victim == nullptr) return false;
  evict_locked(*victim);
  return true;
}

void FactorRegistry::reserve_locked(Entry& protect, i64 bytes,
                                    const char* phase) {
  if (cfg_.budget_bytes == 0 || bytes <= 0) return;
  // Free space until `bytes` more (on top of what `protect` already mirrors)
  // fits; everything except the protected entry is fair game, oldest first.
  while (budget_->in_use_bytes() + bytes > cfg_.budget_bytes) {
    if (!evict_lru_locked(&protect)) break;
  }
  if (budget_->in_use_bytes() + bytes > cfg_.budget_bytes) {
    ErrorContext ctx;
    ctx.bytes_requested = bytes;
    ctx.bytes_in_use = budget_->in_use_bytes();
    ctx.budget_bytes = cfg_.budget_bytes;
    ctx.has_budget = true;
    ctx.phase = phase;
    throw_budget_exceeded(
        "factor registry: request does not fit the registry budget even "
        "after evicting every other entry",
        ctx);
  }
}

std::shared_ptr<FactorRegistry::Entry> FactorRegistry::admit(
    const SymSparse& a, const SolverOptions& opt) {
  Fingerprint key;
  const Fingerprint structure_key = fingerprint_structure(a, opt, &key);
  std::shared_ptr<const SparseCholesky::Analysis> shared;
  {
    spc::LockGuard lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      touch_locked(*it->second);
      return it->second;
    }
    for (const auto& [k, e] : entries_) {
      if (e->structure_key == structure_key) {
        // Written only at construction, so reading it beside an in-flight
        // factorize on the entry (under Entry::mu) is race-free.
        shared = e->solver.analysis();
        break;
      }
    }
  }
  // Miss: build outside the registry lock (symbolic analysis of a large
  // matrix is milliseconds to seconds — other requests must keep flowing).
  // Server-side governance lives in the registry, not the per-entry solver:
  // its own budget stays account-only so settle() can mirror it.
  SolverOptions server_opt = opt;
  server_opt.mem_budget_bytes = 0;
  server_opt.deadline_s = -1.0;
  std::shared_ptr<Entry> fresh;
  if (shared != nullptr) {
    try {
      fresh = std::make_shared<Entry>(SparseCholesky::with_values(shared, a, server_opt));
    } catch (const Error& e) {
      // A structure-key collision: the exact compare failed, analyze cold.
      if (e.kind() != ErrorKind::kMalformedInput) throw;
    }
  }
  const bool reused = fresh != nullptr;
  if (!reused) fresh = std::make_shared<Entry>(SparseCholesky::analyze(a, server_opt));
  fresh->key = key;
  fresh->structure_key = structure_key;
  {
    spc::LockGuard lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      // Lost the race; the first entry wins and ours is dropped.
      touch_locked(*it->second);
      return it->second;
    }
    const i64 bytes = fresh->solver.memory_budget()->in_use_bytes();
    reserve_locked(*fresh, bytes, "analyze");
    while (entries_.size() >= cfg_.max_entries) {
      if (!evict_lru_locked(fresh.get())) break;
    }
    if (bytes > 0) budget_->charge(bytes, "analyze");
    fresh->charged_bytes = bytes;
    fresh->resident = true;
    if (reused) ++analysis_reuses_;
    entries_.emplace(key, fresh);
    touch_locked(*fresh);
  }
  return fresh;
}

std::shared_ptr<FactorRegistry::Entry> FactorRegistry::find(
    const Fingerprint& key) {
  spc::LockGuard lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return nullptr;
  touch_locked(*it->second);
  return it->second;
}

bool FactorRegistry::evict(const Fingerprint& key) {
  spc::LockGuard lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  evict_locked(*it->second);
  return true;
}

void FactorRegistry::ensure_headroom(const std::shared_ptr<Entry>& protect,
                                     i64 estimated_bytes, const char* phase) {
  spc::LockGuard lock(mu_);
  if (!protect->resident) return;  // evicted meanwhile: nothing to admit into
  // The estimate covers the entry's full post-operation footprint; only the
  // growth beyond what is already mirrored needs new headroom.
  const i64 delta = estimated_bytes - protect->charged_bytes;
  reserve_locked(*protect, delta, phase);
}

void FactorRegistry::settle(const std::shared_ptr<Entry>& e,
                            const char* phase) {
  spc::LockGuard lock(mu_);
  if (!e->resident) return;  // evicted while the operation ran
  const i64 now = e->solver.memory_budget()->in_use_bytes();
  if (now > e->charged_bytes) {
    const i64 delta = now - e->charged_bytes;
    reserve_locked(*e, delta, phase);
    budget_->charge(delta, phase);
  } else if (now < e->charged_bytes) {
    budget_->release(e->charged_bytes - now);
  }
  e->charged_bytes = now;
  touch_locked(*e);
}

void FactorRegistry::clear() {
  spc::LockGuard lock(mu_);
  while (!entries_.empty()) evict_locked(*entries_.begin()->second);
}

i64 FactorRegistry::entries() const {
  spc::LockGuard lock(mu_);
  return static_cast<i64>(entries_.size());
}

i64 FactorRegistry::evictions() const {
  spc::LockGuard lock(mu_);
  return evictions_;
}

i64 FactorRegistry::analysis_reuses() const {
  spc::LockGuard lock(mu_);
  return analysis_reuses_;
}

std::vector<Fingerprint> FactorRegistry::keys() const {
  spc::LockGuard lock(mu_);
  std::vector<Fingerprint> out;
  out.reserve(entries_.size());
  for (const auto& [key, e] : entries_) out.push_back(key);
  return out;
}

}  // namespace spc::server
