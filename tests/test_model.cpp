// Litmus suite for the concurrency model checker (src/model/).
//
// Two layers:
//
//  1. Protocol twins — compact models of the library's lock-free protocols
//     written directly against model::Atomic / model::Cell, each with a
//     seeded-bug variant (template parameter) that mutates exactly the step
//     the real code gets right. The correct twin must pass exhaustive
//     exploration; the buggy twin must be caught (assertion, data race, or
//     deadlock) with a replayable trace. Twins are instrumented in EVERY
//     build — explore() registers its threads, and the shim types are
//     always compiled — so this file guards the gate in the plain tier-1
//     run too, not only under -DSPC_MODEL=ON.
//
//  2. Real-class litmus — drives the actual WorkStealingQueues and
//     FailureSlot through explored schedules. Only meaningful when the
//     library itself was built against the shims, so these are compiled
//     under SPC_MODEL_ENABLED (the `model` step of tools/run_analysis.sh).
//
// SPC_MODEL_SCHEDULES scales the PCT budgets (default kept small so the
// tier-1 suite stays fast; the battery passes 10000).
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "model/shim.hpp"
#include "support/sync.hpp"

#if defined(SPC_MODEL_ENABLED)
#include "factor/parallel_factor.hpp"
#include "support/error.hpp"
#include "support/work_queue.hpp"
#endif

namespace spc::model {
namespace {

using Mode = Options::Mode;

long pct_budget(long dflt) {
  if (const char* env = std::getenv("SPC_MODEL_SCHEDULES")) {
    const long v = std::atol(env);
    if (v > 0) return v;
  }
  return dflt;
}

Options exhaustive_opts(long max_schedules = 50000) {
  Options opt;
  opt.mode = Mode::kExhaustive;
  opt.max_schedules = max_schedules;
  return opt;
}

Options pct_opts(long schedules, std::uint64_t seed = 12345) {
  Options opt;
  opt.mode = Mode::kPct;
  opt.pct_schedules = schedules;
  opt.seed = seed;
  return opt;
}

// ---------------------------------------------------------------------------
// Checker sanity: the violations it exists to catch, plus replayability.
// ---------------------------------------------------------------------------

TEST(ModelChecker, CellRaceIsDetectedAndReplayable) {
  auto body = [](Exec& ex) {
    Cell<int> data(0, "data");
    ex.spawn([&] { data.write(1); });
    ex.spawn([&] { (void)data.read(); });
    ex.join_all();
  };
  Result res = explore(exhaustive_opts(), body);
  ASSERT_FALSE(res.ok) << res.report();
  EXPECT_NE(res.error.find("data race"), std::string::npos) << res.error;
  EXPECT_NE(res.error.find("data"), std::string::npos);
  EXPECT_FALSE(res.trace.empty());

  // The dumped schedule must reproduce the exact same violation.
  Result rep = replay(res.trace, body);
  ASSERT_FALSE(rep.ok);
  EXPECT_EQ(rep.error, res.error);
  EXPECT_EQ(rep.schedules, 1);
}

TEST(ModelChecker, ReleaseAcquirePublishes) {
  // Message passing done right: no schedule may flag a race, and both
  // branches (flag seen / not seen) are explored.
  auto body = [](Exec& ex) {
    Cell<int> payload(0, "payload");
    Atomic<int> flag{0};
    ex.spawn([&] {
      payload.write(42);
      flag.store(1, std::memory_order_release);
    });
    ex.spawn([&] {
      if (flag.load(std::memory_order_acquire) == 1) {
        SPC_MODEL_ASSERT(payload.read() == 42, "published payload visible");
      }
    });
    ex.join_all();
  };
  Result res = explore(exhaustive_opts(), body);
  EXPECT_TRUE(res.ok) << res.report();
  EXPECT_TRUE(res.exhausted);
  EXPECT_GT(res.schedules, 1);
}

TEST(ModelChecker, RelaxedPublishIsARace) {
  // Same shape, but the flag store is relaxed: the consumer's payload read
  // has no happens-before edge — the vector clocks must flag it even though
  // the SC interleaving delivered the right value.
  auto body = [](Exec& ex) {
    Cell<int> payload(0, "payload");
    Atomic<int> flag{0};
    ex.spawn([&] {
      payload.write(42);
      flag.store(1, std::memory_order_relaxed);
    });
    ex.spawn([&] {
      if (flag.load(std::memory_order_acquire) == 1) {
        (void)payload.read();
      }
    });
    ex.join_all();
  };
  Result res = explore(exhaustive_opts(), body);
  ASSERT_FALSE(res.ok) << res.report();
  EXPECT_NE(res.error.find("data race"), std::string::npos) << res.error;
  EXPECT_NE(res.error.find("payload"), std::string::npos) << res.error;
}

TEST(ModelChecker, LockOrderDeadlockIsDetected) {
  auto body = [](Exec& ex) {
    Mutex a, b;
    ex.spawn([&] {
      LockGuard la(a);
      LockGuard lb(b);
    });
    ex.spawn([&] {
      LockGuard lb(b);
      LockGuard la(a);
    });
    ex.join_all();
  };
  Result res = explore(exhaustive_opts(), body);
  ASSERT_FALSE(res.ok) << res.report();
  EXPECT_NE(res.error.find("deadlock"), std::string::npos) << res.error;
  EXPECT_FALSE(res.trace.empty());
}

TEST(ModelChecker, SeqCstForbidsBothZeros) {
  // Dekker/store-buffering sanity: under sequentially consistent
  // interleavings (what the explorer enumerates) r1 == r2 == 0 is
  // impossible; exhaustive search must agree across every schedule.
  auto body = [](Exec& ex) {
    Atomic<int> x{0}, y{0};
    Cell<int> r1(-1, "r1"), r2(-1, "r2");
    ex.spawn([&] {
      x.store(1, std::memory_order_seq_cst);
      r1.write(y.load(std::memory_order_seq_cst));
    });
    ex.spawn([&] {
      y.store(1, std::memory_order_seq_cst);
      r2.write(x.load(std::memory_order_seq_cst));
    });
    ex.join_all();
    SPC_MODEL_ASSERT(!(r1.read() == 0 && r2.read() == 0),
                     "seq_cst forbids r1 == r2 == 0");
  };
  Result res = explore(exhaustive_opts(), body);
  EXPECT_TRUE(res.ok) << res.report();
  EXPECT_TRUE(res.exhausted);
  EXPECT_GT(res.schedules, 3);
}

TEST(ModelChecker, LostUpdateFoundByPctToo) {
  // A classic lost update (load; ++; store instead of fetch_add). Both the
  // exhaustive and the PCT explorer must find the interleaving.
  auto body = [](Exec& ex) {
    Atomic<int> n{0};
    ex.spawn([&] {
      const int v = n.load(std::memory_order_relaxed);
      n.store(v + 1, std::memory_order_relaxed);
    });
    ex.spawn([&] {
      const int v = n.load(std::memory_order_relaxed);
      n.store(v + 1, std::memory_order_relaxed);
    });
    ex.join_all();
    SPC_MODEL_ASSERT(n.load() == 2, "both increments must land");
  };
  Result ex_res = explore(exhaustive_opts(), body);
  ASSERT_FALSE(ex_res.ok) << ex_res.report();
  EXPECT_NE(ex_res.error.find("both increments"), std::string::npos);

  Result pct_res = explore(pct_opts(pct_budget(500)), body);
  ASSERT_FALSE(pct_res.ok) << pct_res.report();
  Result rep = replay(pct_res.trace, body);
  ASSERT_FALSE(rep.ok);
  EXPECT_EQ(rep.error, pct_res.error);
}

// ---------------------------------------------------------------------------
// Litmus 1: Chase–Lev deque bottom/top arbitration (work_queue.cpp).
// The modelled step: pop_bottom on the LAST item must win a CAS on top
// against a racing thief. The seeded bug skips the arbitration and takes
// the item unconditionally — owner and thief then consume it twice.
// ---------------------------------------------------------------------------

template <bool kBuggy>
struct MiniDeque {
  Atomic<long> top{0};
  Atomic<long> bottom{0};
  Atomic<long> cells[4] = {};

  void push(long id) {
    const long b = bottom.load(std::memory_order_relaxed);
    cells[b & 3].store(id, std::memory_order_relaxed);
    bottom.store(b + 1, std::memory_order_release);
  }

  bool pop(long& id) {
    const long b = bottom.load(std::memory_order_relaxed) - 1;
    bottom.store(b, std::memory_order_seq_cst);
    long t = top.load(std::memory_order_seq_cst);
    if (t > b) {
      bottom.store(b + 1, std::memory_order_relaxed);
      return false;
    }
    id = cells[b & 3].load(std::memory_order_relaxed);
    if (t == b) {
      bool won = true;
      if (!kBuggy) {
        won = top.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                          std::memory_order_relaxed);
      }
      bottom.store(b + 1, std::memory_order_relaxed);
      return won;
    }
    return true;
  }

  bool steal(long& id) {
    long t = top.load(std::memory_order_seq_cst);
    const long b = bottom.load(std::memory_order_seq_cst);
    if (t >= b) return false;
    id = cells[t & 3].load(std::memory_order_relaxed);
    return top.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                       std::memory_order_relaxed);
  }
};

template <bool kBuggy>
void deque_body(Exec& ex) {
  // Static storage is unsafe across schedules, so the body owns the state.
  auto d = std::make_unique<MiniDeque<kBuggy>>();
  Cell<int> consumed(0, "consumed");  // per-item consume marker (1 item)
  d->push(7);
  ex.spawn([&] {  // owner pops its own bottom
    long id = 0;
    if (d->pop(id)) {
      SPC_MODEL_ASSERT(id == 7, "owner popped the pushed id");
      consumed.write(consumed.read() + 1);
    }
  });
  ex.spawn([&] {  // thief races for the same (last) item
    long id = 0;
    if (d->steal(id)) {
      SPC_MODEL_ASSERT(id == 7, "thief stole the pushed id");
      consumed.write(consumed.read() + 1);
    }
  });
  ex.join_all();
  SPC_MODEL_ASSERT(consumed.read() == 1, "last item consumed exactly once");
}

TEST(Litmus, DequeLastItemArbitrationHolds) {
  Result res = explore(exhaustive_opts(), deque_body<false>);
  EXPECT_TRUE(res.ok) << res.report();
  EXPECT_TRUE(res.exhausted);
}

TEST(Litmus, DequeSkippedCasIsCaught) {
  Result res = explore(exhaustive_opts(), deque_body<true>);
  ASSERT_FALSE(res.ok) << "seeded bug escaped " << res.schedules
                       << " schedules";
  // Double consume shows up as the consume-marker race or the final count.
  EXPECT_TRUE(res.error.find("data race") != std::string::npos ||
              res.error.find("exactly once") != std::string::npos)
      << res.error;
  Result rep = replay(res.trace, deque_body<true>);
  ASSERT_FALSE(rep.ok);
  EXPECT_EQ(rep.error, res.error);
}

// ---------------------------------------------------------------------------
// Litmus 2: last-decrementer release (the factor executor's deps
// fetch_sub acq_rel, parallel_factor.cpp). Workers publish a contribution,
// then decrement; the worker that drops the counter to zero gathers every
// contribution. Seeded bugs:
//  * kLostUpdate — load/store instead of fetch_sub (a decrement vanishes,
//    the release never fires);
//  * kRelaxed — fetch_sub(relaxed) (the gather reads unpublished panels:
//    a data race even on schedules where the values happen to be there).
// ---------------------------------------------------------------------------

enum class CounterBug { kNone, kLostUpdate, kRelaxed };

template <CounterBug kBug>
void counter_body(Exec& ex) {
  Atomic<int> deps{2};
  Cell<int> panel0(0, "panel0");
  Cell<int> panel1(0, "panel1");
  Cell<int> released(0, "released");
  auto worker = [&](int id) {
    (id == 0 ? panel0 : panel1).write(id + 1);
    int old;
    if (kBug == CounterBug::kLostUpdate) {
      old = deps.load(std::memory_order_acquire);
      deps.store(old - 1, std::memory_order_release);
    } else {
      old = deps.fetch_sub(1, kBug == CounterBug::kRelaxed
                                  ? std::memory_order_relaxed
                                  : std::memory_order_acq_rel);
    }
    if (old == 1) {
      SPC_MODEL_ASSERT(panel0.read() == 1 && panel1.read() == 2,
                       "release sees every contribution");
      released.write(released.read() + 1);
    }
  };
  ex.spawn([&, worker] { worker(0); });
  ex.spawn([&, worker] { worker(1); });
  ex.join_all();
  SPC_MODEL_ASSERT(released.read() == 1, "exactly one releaser");
}

TEST(Litmus, LastDecrementerReleaseHolds) {
  Result res = explore(exhaustive_opts(), counter_body<CounterBug::kNone>);
  EXPECT_TRUE(res.ok) << res.report();
  EXPECT_TRUE(res.exhausted);
}

TEST(Litmus, LostDecrementIsCaught) {
  Result res =
      explore(exhaustive_opts(), counter_body<CounterBug::kLostUpdate>);
  ASSERT_FALSE(res.ok) << "seeded bug escaped " << res.schedules
                       << " schedules";
  EXPECT_NE(res.error.find("exactly one releaser"), std::string::npos)
      << res.error;
  Result rep = replay(res.trace, counter_body<CounterBug::kLostUpdate>);
  ASSERT_FALSE(rep.ok);
  EXPECT_EQ(rep.error, res.error);
}

TEST(Litmus, RelaxedDecrementGatherRaceIsCaught) {
  Result res = explore(exhaustive_opts(), counter_body<CounterBug::kRelaxed>);
  ASSERT_FALSE(res.ok) << "seeded bug escaped " << res.schedules
                       << " schedules";
  EXPECT_NE(res.error.find("data race"), std::string::npos) << res.error;
}

// ---------------------------------------------------------------------------
// Litmus 3: BMOD Treiber-list drain commit (release_mod / run_dest in
// parallel_factor.cpp). Pushers CAS mods onto dest_head (release) and try
// to claim the drain flag; the drainer exchanges the whole chain (acquire)
// and retires by clearing the flag BEFORE re-checking the head. Every drain
// applies its mods straight into the destination block with no lock, so the
// block is one plain Cell that each drainer reads and writes: the drain
// flag's seq_cst hand-off alone must order successive drainers.
//
// Seeded bugs:
//  - kSwappedRetire re-checks the list before releasing the flag: a mod
//    pushed between the two steps is stranded — its pusher saw the flag
//    still set, and the drainer saw an empty head.
//  - kNoDrainFlag drains on every push without claiming the flag: two
//    drainers write the block concurrently, a data race on the block Cell.
// ---------------------------------------------------------------------------

enum class DrainBug { kNone, kSwappedRetire, kNoDrainFlag };

template <DrainBug kBug>
void drain_body(Exec& ex) {
  constexpr long kEmpty = -1;
  Atomic<long> dest_head{kEmpty};
  Atomic<long> mod_next[2] = {{kEmpty}, {kEmpty}};
  Atomic<int> dest_state{0};
  Cell<int> drained0(0, "drained0");
  Cell<int> drained1(0, "drained1");
  Cell<int> block(0, "dest_block");  // the destination's storage

  auto drain = [&] {
    for (;;) {
      long chain = dest_head.exchange(kEmpty, std::memory_order_acquire);
      for (long m = chain; m != kEmpty;
           m = mod_next[m].load(std::memory_order_relaxed)) {
        Cell<int>& mark = (m == 0 ? drained0 : drained1);
        mark.write(mark.read() + 1);
        block.write(block.read() + 1);  // in-place BMOD, no lock
      }
      if (kBug == DrainBug::kSwappedRetire) {
        // Seeded bug: re-check the list before releasing the drain flag.
        if (dest_head.load(std::memory_order_seq_cst) == kEmpty) {
          dest_state.store(0, std::memory_order_seq_cst);
          break;
        }
        continue;
      }
      if (kBug == DrainBug::kNoDrainFlag) break;
      dest_state.store(0, std::memory_order_seq_cst);
      if (dest_head.load(std::memory_order_seq_cst) == kEmpty) break;
      if (dest_state.exchange(1, std::memory_order_seq_cst) != 0) break;
    }
  };
  auto push_mod = [&](long m) {
    long old = dest_head.load(std::memory_order_relaxed);
    do {
      mod_next[m].store(old, std::memory_order_relaxed);
    } while (!dest_head.compare_exchange_weak(old, m,
                                              std::memory_order_release,
                                              std::memory_order_relaxed));
    if (kBug == DrainBug::kNoDrainFlag ||
        dest_state.exchange(1, std::memory_order_seq_cst) == 0) {
      drain();
    }
  };
  ex.spawn([&] { push_mod(0); });
  ex.spawn([&] { push_mod(1); });
  ex.join_all();
  SPC_MODEL_ASSERT(drained0.read() == 1, "mod 0 drained exactly once");
  SPC_MODEL_ASSERT(drained1.read() == 1, "mod 1 drained exactly once");
  SPC_MODEL_ASSERT(block.read() == 2, "block holds both updates");
}

TEST(Litmus, TreiberDrainRetireHolds) {
  Result res = explore(exhaustive_opts(), drain_body<DrainBug::kNone>);
  EXPECT_TRUE(res.ok) << res.report();
  EXPECT_TRUE(res.exhausted);
}

TEST(Litmus, SwappedRetireOrderStrandsAMod) {
  Result res = explore(exhaustive_opts(), drain_body<DrainBug::kSwappedRetire>);
  ASSERT_FALSE(res.ok) << "seeded bug escaped " << res.schedules
                       << " schedules";
  EXPECT_NE(res.error.find("drained exactly once"), std::string::npos)
      << res.error;
  Result rep = replay(res.trace, drain_body<DrainBug::kSwappedRetire>);
  ASSERT_FALSE(rep.ok);
  EXPECT_EQ(rep.error, res.error);
}

TEST(Litmus, LocklessDrainWithoutFlagRacesOnTheBlock) {
  Result res = explore(exhaustive_opts(), drain_body<DrainBug::kNoDrainFlag>);
  ASSERT_FALSE(res.ok) << "seeded bug escaped " << res.schedules
                       << " schedules";
  EXPECT_NE(res.error.find("data race"), std::string::npos) << res.error;
  EXPECT_NE(res.error.find("dest_block"), std::string::npos) << res.error;
}

// ---------------------------------------------------------------------------
// Litmus 3b: subtree-affinity frontier steal-exclusion (push_private /
// acquire in work_queue.cpp). Below-frontier tasks sit on the owner's
// PRIVATE stack — plain, unsynchronized memory — which is sound only
// because thieves never look at it: steals are confined to the public
// Chase-Lev deques above the frontier. The seeded bug lets an idle thief
// scan the victim's private stack before stealing; the model flags the
// unsynchronized read as a data race on the stack cells (and the take as
// a double consume of the pinned task).
// ---------------------------------------------------------------------------

template <bool kBuggy>
void affinity_body(Exec& ex) {
  auto d = std::make_unique<MiniDeque<false>>();  // public deque, correct
  Cell<long> priv_task(9, "private_stack_cell");  // one-slot private stack
  Cell<int> priv_size(1, "private_stack_size");
  Cell<int> pinned_consumed(0, "pinned_consumed");
  Cell<int> shared_consumed(0, "shared_consumed");
  d->push(7);  // the shared (above-frontier) task

  ex.spawn([&] {  // owner: private stack first, then its own deque bottom
    if (priv_size.read() > 0) {
      priv_size.write(priv_size.read() - 1);
      SPC_MODEL_ASSERT(priv_task.read() == 9, "owner sees its pinned task");
      pinned_consumed.write(pinned_consumed.read() + 1);
    }
    long id = 0;
    if (d->pop(id)) shared_consumed.write(shared_consumed.read() + 1);
  });
  ex.spawn([&] {  // thief: public deques only — unless seeded buggy
    if (kBuggy) {
      if (priv_size.read() > 0) {
        priv_size.write(priv_size.read() - 1);
        pinned_consumed.write(pinned_consumed.read() + 1);
        return;
      }
    }
    long id = 0;
    if (d->steal(id)) {
      SPC_MODEL_ASSERT(id == 7, "steals only reach the public deque");
      shared_consumed.write(shared_consumed.read() + 1);
    }
  });
  ex.join_all();
  SPC_MODEL_ASSERT(pinned_consumed.read() == 1,
                   "pinned task ran exactly once, on its owner");
  SPC_MODEL_ASSERT(shared_consumed.read() == 1,
                   "shared task consumed exactly once");
}

TEST(Litmus, AffinityPrivateStackIsThiefProof) {
  Result res = explore(exhaustive_opts(), affinity_body<false>);
  EXPECT_TRUE(res.ok) << res.report();
  EXPECT_TRUE(res.exhausted);
}

TEST(Litmus, ThiefTouchingPrivateStackIsCaught) {
  Result res = explore(exhaustive_opts(), affinity_body<true>);
  ASSERT_FALSE(res.ok) << "seeded bug escaped " << res.schedules
                       << " schedules";
  EXPECT_TRUE(res.error.find("data race") != std::string::npos ||
              res.error.find("exactly once") != std::string::npos)
      << res.error;
  Result rep = replay(res.trace, affinity_body<true>);
  ASSERT_FALSE(rep.ok);
  EXPECT_EQ(rep.error, res.error);
}

// ---------------------------------------------------------------------------
// Litmus 4: FailureSlot first-failure claim. One CAS 0->1 elects the
// recorder; the seeded bug claims with load-then-store, so two racing
// failures both write the payload — a write-write race on the slot.
// ---------------------------------------------------------------------------

template <bool kBuggy>
void failure_slot_body(Exec& ex) {
  Atomic<int> state{0};
  Cell<int> payload(-1, "failure_payload");
  Atomic<int> winners{0};
  auto record = [&](int id) {
    bool claimed;
    if (kBuggy) {
      claimed = state.load(std::memory_order_acquire) == 0;
      if (claimed) state.store(1, std::memory_order_release);
    } else {
      int expected = 0;
      claimed = state.compare_exchange_strong(expected, 1,
                                              std::memory_order_acq_rel);
    }
    if (claimed) {
      payload.write(id);
      state.store(2, std::memory_order_release);
      winners.fetch_add(1, std::memory_order_acq_rel);
    }
  };
  ex.spawn([&, record] { record(1); });
  ex.spawn([&, record] { record(2); });
  ex.join_all();
  SPC_MODEL_ASSERT(winners.load() == 1, "exactly one failure recorded");
  SPC_MODEL_ASSERT(state.load() == 2, "slot sealed");
  SPC_MODEL_ASSERT(payload.read() == 1 || payload.read() == 2,
                   "payload is the winner's");
}

TEST(Litmus, FailureSlotSingleClaimHolds) {
  Result res = explore(exhaustive_opts(), failure_slot_body<false>);
  EXPECT_TRUE(res.ok) << res.report();
  EXPECT_TRUE(res.exhausted);
}

TEST(Litmus, NonAtomicClaimIsCaught) {
  Result res = explore(exhaustive_opts(), failure_slot_body<true>);
  ASSERT_FALSE(res.ok) << "seeded bug escaped " << res.schedules
                       << " schedules";
  EXPECT_TRUE(res.error.find("data race") != std::string::npos ||
              res.error.find("exactly one failure") != std::string::npos)
      << res.error;
}

// ---------------------------------------------------------------------------
// Litmus 5: MemoryBudget charge/refund (support/governor.cpp). The real
// protocol reserves optimistically with fetch_add, checks the cap on the
// *reserved* total, and refunds on breach — so two racing charges can never
// both be admitted past the budget, and the accounting stays exact. The
// seeded bug uses the classic load-check-store: both threads read the old
// in-use value, both pass the cap check, and the second store loses the
// first thread's reservation (over-admission + inexact accounting).
// ---------------------------------------------------------------------------

template <bool kBuggy>
void budget_charge_body(Exec& ex) {
  constexpr long kCap = 100;
  constexpr long kBytes = 60;  // two admissions would breach the cap
  Atomic<long> in_use{0};
  Atomic<int> admitted{0};
  auto charge = [&] {
    bool ok;
    if (kBuggy) {
      const long cur = in_use.load(std::memory_order_relaxed);
      ok = cur + kBytes <= kCap;
      if (ok) in_use.store(cur + kBytes, std::memory_order_relaxed);
    } else {
      const long reserved =
          in_use.fetch_add(kBytes, std::memory_order_relaxed) + kBytes;
      ok = reserved <= kCap;
      if (!ok) in_use.fetch_sub(kBytes, std::memory_order_relaxed);  // refund
    }
    if (ok) admitted.fetch_add(1, std::memory_order_relaxed);
  };
  ex.spawn([&, charge] { charge(); });
  ex.spawn([&, charge] { charge(); });
  ex.join_all();
  // Exactly the admitted charges are on the books, and never past the cap.
  SPC_MODEL_ASSERT(in_use.load() == admitted.load() * kBytes,
                   "accounting is exact");
  SPC_MODEL_ASSERT(in_use.load() <= kCap, "cap never exceeded");
}

TEST(Litmus, BudgetChargeRefundProtocolHolds) {
  Result res = explore(exhaustive_opts(), budget_charge_body<false>);
  EXPECT_TRUE(res.ok) << res.report();
  EXPECT_TRUE(res.exhausted);
}

TEST(Litmus, BudgetLoadCheckStoreIsCaught) {
  Result res = explore(exhaustive_opts(), budget_charge_body<true>);
  ASSERT_FALSE(res.ok) << "seeded bug escaped " << res.schedules
                       << " schedules";
  EXPECT_TRUE(res.error.find("accounting is exact") != std::string::npos ||
              res.error.find("cap never exceeded") != std::string::npos)
      << res.error;
  Result rep = replay(res.trace, budget_charge_body<true>);
  ASSERT_FALSE(rep.ok);
  EXPECT_EQ(rep.error, res.error);
}

#if defined(SPC_MODEL_ENABLED)

// ---------------------------------------------------------------------------
// Real-class litmus (only under -DSPC_MODEL=ON: the library's own atomics
// route through the scheduler). These drive the production code, not twins.
// ---------------------------------------------------------------------------

TEST(LitmusReal, WorkStealingQueuesConsumeExactlyOnce) {
  // Two workers drain a two-item queue seeded onto worker 0: exercises
  // push/pop/steal arbitration plus the sleeper protocol (queued_ /
  // sleepers_ / condvar) and shutdown. Every item must be consumed exactly
  // once — a double consume trips the per-item Cell race detector.
  auto body = [](Exec& ex) {
    WorkStealingQueues q(2);
    Cell<int> consumed[2] = {};
    consumed[0].set_name("item0");
    consumed[1].set_name("item1");
    Atomic<int> remaining{2};
    q.push(0, WorkItem{0, 0});
    q.push(0, WorkItem{1, 1});
    auto worker = [&](int id) {
      WorkItem item;
      while (q.acquire(id, item)) {
        Cell<int>& mark = consumed[item.id];
        mark.write(mark.read() + 1);
        if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          q.shutdown();
        }
      }
    };
    ex.spawn([&, worker] { worker(0); });
    ex.spawn([&, worker] { worker(1); });
    ex.join_all();
    SPC_MODEL_ASSERT(consumed[0].read() == 1, "item 0 consumed exactly once");
    SPC_MODEL_ASSERT(consumed[1].read() == 1, "item 1 consumed exactly once");
    SPC_MODEL_ASSERT(remaining.load() == 0, "all items consumed");
  };
  // The protocol is too large to exhaust; bounded DFS plus a seeded PCT
  // sweep. Any violation would come with a replayable trace.
  Result dfs = explore(exhaustive_opts(/*max_schedules=*/400), body);
  EXPECT_TRUE(dfs.ok) << dfs.report();
  Result pct = explore(pct_opts(pct_budget(200), 99), body);
  EXPECT_TRUE(pct.ok) << pct.report();
}

TEST(LitmusReal, PrivateStackTasksStayWithOwner) {
  // Drives the production WorkStealingQueues with a pinned item on worker
  // 0's private stack and a public item on its deque: the pinned item must
  // always be acquired by worker 0, from the private source, regardless of
  // how the thief's steals interleave.
  auto body = [](Exec& ex) {
    WorkStealingQueues q(2);
    Cell<int> consumed[2] = {};
    consumed[0].set_name("pinned_item");
    consumed[1].set_name("public_item");
    Atomic<int> remaining{2};
    q.push_private(0, WorkItem{0, 0});
    q.push(0, WorkItem{1, 1});
    auto worker = [&](int id) {
      WorkItem item;
      AcquireSource src;
      while (q.acquire(id, item, &src)) {
        if (item.id == 0) {
          SPC_MODEL_ASSERT(id == 0, "pinned item acquired by its owner");
          SPC_MODEL_ASSERT(src == AcquireSource::kPrivate,
                           "pinned item came off the private stack");
        }
        Cell<int>& mark = consumed[item.id];
        mark.write(mark.read() + 1);
        if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          q.shutdown();
        }
      }
    };
    ex.spawn([&, worker] { worker(0); });
    ex.spawn([&, worker] { worker(1); });
    ex.join_all();
    SPC_MODEL_ASSERT(consumed[0].read() == 1, "pinned consumed exactly once");
    SPC_MODEL_ASSERT(consumed[1].read() == 1, "public consumed exactly once");
  };
  Result dfs = explore(exhaustive_opts(/*max_schedules=*/400), body);
  EXPECT_TRUE(dfs.ok) << dfs.report();
  Result pct = explore(pct_opts(pct_budget(200), 41), body);
  EXPECT_TRUE(pct.ok) << pct.report();
}

TEST(LitmusReal, FailureSlotFirstFailureAndDrain) {
  auto body = [](Exec& ex) {
    FailureSlot slot;
    Atomic<int> winners{0};
    auto fail_from = [&](int id) {
      const bool won = slot.record(
          std::make_exception_ptr(Error("boom " + std::to_string(id),
                                        ErrorKind::kInternal)),
          id, FailureSlot::Phase::kCompletion);
      if (won) winners.fetch_add(1, std::memory_order_acq_rel);
      // Post-failure work drains as a no-op — recording again must not
      // clobber the first exception.
      if (slot.failed() && !won) {
        (void)slot.record(std::make_exception_ptr(
                              Error("late", ErrorKind::kInternal)),
                          id + 10, FailureSlot::Phase::kDrain);
      }
    };
    ex.spawn([&, fail_from] { fail_from(1); });
    ex.spawn([&, fail_from] { fail_from(2); });
    ex.join_all();
    SPC_MODEL_ASSERT(winners.load() == 1, "exactly one recorded failure");
    SPC_MODEL_ASSERT(slot.first() != nullptr, "winning exception retrievable");
    SPC_MODEL_ASSERT(slot.later_failures() >= 1, "losers were counted");
  };
  Result dfs = explore(exhaustive_opts(/*max_schedules=*/2000), body);
  EXPECT_TRUE(dfs.ok) << dfs.report();
  Result pct = explore(pct_opts(pct_budget(200), 7), body);
  EXPECT_TRUE(pct.ok) << pct.report();
}

#endif  // SPC_MODEL_ENABLED

}  // namespace
}  // namespace spc::model
