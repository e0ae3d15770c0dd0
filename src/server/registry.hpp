// The daemon's factor cache: analyzed structures, numeric factors, and their
// warm workspaces, keyed by problem fingerprint and governed by one shared
// MemoryBudget (docs/SERVING.md).
//
// Each entry owns a full SparseCholesky facade. The facade already accounts
// every governed allocation (factor arena, ParallelWorkspace, SolveWorkspace,
// staging) against its own per-solver budget; the registry mirrors that
// steady-state footprint into the shared registry budget with settle(), so
// `in_use_bytes()` is the sum of what the cached entries really hold and
// eviction is governed deallocation: the evicted entry's mirrored bytes are
// released immediately, and the memory itself dies with the last in-flight
// reference. Admission control runs BEFORE numeric work: ensure_headroom()
// evicts least-recently-used peers until a requested estimate fits, and
// throws Error(kResourceExhausted) when even an empty cache could not hold
// it.
//
// Entries with one pattern share one refcounted analysis (see admit), so
// evicting the entry that built it never strands the others.
//
// Locking: the registry mutex guards the map, the LRU ticks, and all byte
// mirroring. Each entry carries its own mutex serializing factorize/solve on
// that entry. The only nesting ever used is entry.mu -> registry mutex
// (settle under an in-flight operation); the registry never locks an entry,
// so the order is acyclic.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "cholesky/sparse_cholesky.hpp"
#include "factor/serialize.hpp"
#include "support/governor.hpp"
#include "support/sync.hpp"
#include "support/types.hpp"

namespace spc::server {

class FactorRegistry {
 public:
  struct Config {
    i64 budget_bytes = 0;        // 0 = account only, never evict for space
    std::size_t max_entries = 64;  // LRU count cap, independent of bytes
  };

  struct Entry {
    Fingerprint key;
    Fingerprint structure_key;
    SparseCholesky solver;
    // Serializes numeric work on this entry (factorize, solve_multi, and the
    // lazy workspace builds inside them). Held across whole operations, so
    // two batches against one factor never interleave.
    spc::Mutex mu;
    bool factored SPC_GUARDED_BY(mu) = false;

    // Registry-lock-guarded bookkeeping (not Entry::mu).
    i64 charged_bytes = 0;  // bytes mirrored into the registry budget
    std::uint64_t last_used = 0;
    bool resident = false;  // false once evicted; settle() stops mirroring

    explicit Entry(SparseCholesky s) : solver(std::move(s)) {}
  };

  explicit FactorRegistry(const Config& cfg);
  ~FactorRegistry();

  FactorRegistry(const FactorRegistry&) = delete;
  FactorRegistry& operator=(const FactorRegistry&) = delete;

  // Returns the cached entry for (matrix, options), inserting one on a miss:
  // built by with_values over a resident entry's analysis when the structure
  // keys match, by a cold analyze otherwise or when the exact compare fails
  // (a key collision). Built outside the registry lock; a lost insertion
  // race keeps the first entry. Admission may evict LRU peers.
  std::shared_ptr<Entry> admit(const SymSparse& a, const SolverOptions& opt);

  // Cache lookup; bumps the LRU clock. Null when absent.
  std::shared_ptr<Entry> find(const Fingerprint& key);

  // Governed deallocation of one entry: releases its mirrored bytes and
  // unmaps it. In-flight holders of the shared_ptr finish unaffected (their
  // settle() becomes a no-op on the non-resident entry). Returns false when
  // the key is unknown.
  bool evict(const Fingerprint& key);

  // Evicts LRU entries until `estimated_bytes` MORE than entry's current
  // mirror would fit the byte budget (no-op when budget_bytes == 0). The
  // protected entry is never evicted. Throws Error(kResourceExhausted) when
  // the estimate cannot fit even an otherwise-empty registry.
  void ensure_headroom(const std::shared_ptr<Entry>& protect,
                       i64 estimated_bytes, const char* phase);

  // Re-mirrors `e`'s real footprint (its solver budget's in_use_bytes) into
  // the registry budget, evicting LRU peers if the entry grew past the
  // remaining headroom. Call after any operation that may have allocated or
  // freed on the entry. No-op for evicted entries.
  void settle(const std::shared_ptr<Entry>& e, const char* phase);

  // Drops every entry and releases all mirrored bytes (accounting returns to
  // exactly zero — asserted by `spc soak --server`).
  void clear();

  i64 in_use_bytes() const { return budget_->in_use_bytes(); }
  i64 peak_bytes() const { return budget_->peak_bytes(); }
  i64 budget_bytes() const { return cfg_.budget_bytes; }
  i64 entries() const;
  i64 evictions() const;
  // Entries admitted by sharing a resident entry's analysis.
  i64 analysis_reuses() const;
  std::vector<Fingerprint> keys() const;

 private:
  // All four require mu_.
  void touch_locked(Entry& e) SPC_REQUIRES(mu_);
  void evict_locked(Entry& e) SPC_REQUIRES(mu_);
  bool evict_lru_locked(const Entry* protect) SPC_REQUIRES(mu_);
  void reserve_locked(Entry& protect, i64 bytes, const char* phase)
      SPC_REQUIRES(mu_);

  const Config cfg_;
  std::shared_ptr<governor::MemoryBudget> budget_;
  mutable spc::Mutex mu_;
  std::map<Fingerprint, std::shared_ptr<Entry>> entries_ SPC_GUARDED_BY(mu_);
  std::uint64_t clock_ SPC_GUARDED_BY(mu_) = 0;
  i64 evictions_ SPC_GUARDED_BY(mu_) = 0;
  i64 analysis_reuses_ SPC_GUARDED_BY(mu_) = 0;
};

}  // namespace spc::server
