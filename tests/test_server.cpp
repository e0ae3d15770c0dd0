// spcd serving stack tests (docs/SERVING.md): wire protocol round-trips and
// the malformed-frame corpus, factor-registry LRU/budget accounting, solve
// batcher invariants (bitwise parity with solo solves, per-request deadline
// isolation), and socket end-to-end runs against the poll event loop —
// including the slow-loris property that one stalled client never blocks
// another.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <exception>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "factor/residual.hpp"
#include "gen/grid_gen.hpp"
#include "server/batcher.hpp"
#include "server/event_loop.hpp"
#include "server/protocol.hpp"
#include "server/registry.hpp"
#include "server/server.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace spc::server {
namespace {

SymSparse test_matrix() { return make_grid2d(12, 12); }

std::vector<double> random_rhs(idx n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> b(static_cast<std::size_t>(n));
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  return b;
}

ErrorKind kind_of(const std::exception_ptr& err) {
  try {
    std::rethrow_exception(err);
  } catch (const Error& e) {
    return e.kind();
  }
}

// --- protocol: framing ------------------------------------------------------

TEST(Protocol, FrameRoundTripsByteAtATime) {
  AnalyzeRequest req;
  req.matrix = test_matrix();
  req.options.block_size = 32;
  req.options.ordering = SolverOptions::Ordering::kNd;

  Frame f;
  f.type = MsgType::kAnalyze;
  f.request_id = 0xdeadbeef12345678ULL;
  f.payload = encode_analyze_request(req);
  const std::vector<u8> wire = encode_frame(f);

  // A slow-loris client: one byte per feed. The decoder must never produce a
  // frame early, never block, and reassemble exactly the original.
  FrameDecoder dec;
  Frame out;
  for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
    dec.feed(&wire[i], 1);
    EXPECT_FALSE(dec.next(&out));
  }
  dec.feed(&wire[wire.size() - 1], 1);
  ASSERT_TRUE(dec.next(&out));
  EXPECT_EQ(out.type, MsgType::kAnalyze);
  EXPECT_EQ(out.request_id, f.request_id);

  const AnalyzeRequest got = decode_analyze_request(out.payload);
  EXPECT_EQ(got.matrix.num_rows(), req.matrix.num_rows());
  EXPECT_EQ(got.matrix.col_ptr(), req.matrix.col_ptr());
  EXPECT_EQ(got.matrix.row_idx(), req.matrix.row_idx());
  EXPECT_EQ(got.matrix.values(), req.matrix.values());
  EXPECT_EQ(got.options.block_size, 32);
  EXPECT_EQ(got.options.ordering, SolverOptions::Ordering::kNd);
  EXPECT_FALSE(dec.next(&out));
  EXPECT_EQ(dec.buffered_bytes(), 0);
}

TEST(Protocol, TwoFramesInOneChunk) {
  Frame a;
  a.type = MsgType::kPing;
  a.request_id = 1;
  Frame b;
  b.type = MsgType::kStats;
  b.request_id = 2;
  std::vector<u8> wire = encode_frame(a);
  const std::vector<u8> wb = encode_frame(b);
  wire.insert(wire.end(), wb.begin(), wb.end());

  FrameDecoder dec;
  dec.feed(wire.data(), wire.size());
  Frame out;
  ASSERT_TRUE(dec.next(&out));
  EXPECT_EQ(out.request_id, 1u);
  ASSERT_TRUE(dec.next(&out));
  EXPECT_EQ(out.request_id, 2u);
  EXPECT_FALSE(dec.next(&out));
}

// Corrupts one header field of an otherwise valid frame and expects the
// typed framing rejection.
void expect_framing_rejected(std::vector<u8> wire, const char* what) {
  FrameDecoder dec;
  dec.feed(wire.data(), wire.size());
  Frame out;
  try {
    dec.next(&out);
    FAIL() << what << ": framing violation was accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kProtocolError) << what;
  }
  EXPECT_TRUE(dec.poisoned()) << what;
  // Poisoning is permanent: even a pristine frame afterwards rethrows,
  // because a stream without trusted boundaries cannot resynchronize.
  const std::vector<u8> good = encode_frame(Frame{});
  try {
    dec.feed(good.data(), good.size());
    dec.next(&out);
    FAIL() << what << ": poisoned decoder produced a frame";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kProtocolError) << what;
  }
}

TEST(Protocol, MalformedFrameCorpus) {
  Frame f;
  f.type = MsgType::kPing;
  f.request_id = 7;
  const std::vector<u8> good = encode_frame(f);

  {
    std::vector<u8> bad = good;  // magic
    bad[0] ^= 0xff;
    expect_framing_rejected(bad, "bad magic");
  }
  {
    std::vector<u8> bad = good;  // version
    bad[4] = 0x7f;
    expect_framing_rejected(bad, "bad version");
  }
  {
    std::vector<u8> bad = good;  // reserved must be zero
    bad[10] = 1;
    expect_framing_rejected(bad, "nonzero reserved");
  }
  {
    std::vector<u8> bad = good;  // hostile payload length
    const u64 huge = u64{1} << 62;
    std::memcpy(&bad[20], &huge, sizeof(huge));
    expect_framing_rejected(bad, "oversized payload");
  }
  {
    // Pure garbage: not even a magic number.
    std::vector<u8> bad(64, 0xa5);
    expect_framing_rejected(bad, "garbage stream");
  }
}

TEST(Protocol, OversizedPayloadRejectedBeforeBuffering) {
  // A header announcing a payload over the decoder's cap must be rejected
  // from the header alone — no buffering of hostile lengths.
  FrameDecoder dec(/*max_payload_bytes=*/1024);
  Frame f;
  f.type = MsgType::kSolve;
  f.payload.assign(2048, 0);
  const std::vector<u8> wire = encode_frame(f);
  dec.feed(wire.data(), kHeaderBytes);  // header only, payload never sent
  Frame out;
  try {
    dec.next(&out);
    FAIL() << "oversized payload accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kProtocolError);
  }
}

TEST(Protocol, TruncatedFrameIsPendingNotPoisoned) {
  Frame f;
  f.type = MsgType::kPing;
  const std::vector<u8> wire = encode_frame(f);
  FrameDecoder dec;
  dec.feed(wire.data(), wire.size() - 1);
  Frame out;
  EXPECT_FALSE(dec.next(&out));  // incomplete, but a legal prefix
  EXPECT_FALSE(dec.poisoned());
}

// --- protocol: payload codecs ----------------------------------------------

TEST(Protocol, MessageBodiesRoundTrip) {
  {
    AnalyzeReply r;
    r.key = {0x0123456789abcdefULL, 0xfedcba9876543210ULL};
    r.n = 144;
    r.factor_nnz = 4242;
    r.factor_flops = 123456;
    const AnalyzeReply g = decode_analyze_reply(encode_analyze_reply(r));
    EXPECT_EQ(g.key, r.key);
    EXPECT_EQ(g.n, r.n);
    EXPECT_EQ(g.factor_nnz, r.factor_nnz);
    EXPECT_EQ(g.factor_flops, r.factor_flops);
  }
  {
    FactorizeRequest r;
    r.key = {1, 2};
    r.threads = 3;
    const FactorizeRequest g =
        decode_factorize_request(encode_factorize_request(r));
    EXPECT_EQ(g.key, r.key);
    EXPECT_EQ(g.threads, 3);
  }
  {
    FactorizeReply r;
    r.key = {3, 4};
    r.perturbed_pivots = 5;
    r.fp32_fallback = true;
    const FactorizeReply g = decode_factorize_reply(encode_factorize_reply(r));
    EXPECT_EQ(g.key, r.key);
    EXPECT_EQ(g.perturbed_pivots, 5);
    EXPECT_TRUE(g.fp32_fallback);
  }
  {
    SolveRequest r;
    r.key = {5, 6};
    r.deadline_s = 0.125;
    r.rhs = {1.0, -2.0, 3.5};
    const SolveRequest g = decode_solve_request(encode_solve_request(r));
    EXPECT_EQ(g.key, r.key);
    EXPECT_EQ(g.deadline_s, 0.125);
    EXPECT_EQ(g.rhs, r.rhs);
  }
  {
    SolveReply r;
    r.x = {9.0, -8.0};
    EXPECT_EQ(decode_solve_reply(encode_solve_reply(r)).x, r.x);
  }
  {
    EvictRequest r;
    r.key = {7, 8};
    EXPECT_EQ(decode_evict_request(encode_evict_request(r)).key, r.key);
  }
  {
    ErrorReply r;
    r.kind = ErrorKind::kDeadlineExceeded;
    r.message = "too slow";
    const ErrorReply g = decode_error_reply(encode_error_reply(r));
    EXPECT_EQ(g.kind, ErrorKind::kDeadlineExceeded);
    EXPECT_EQ(g.message, "too slow");
  }
  {
    StatsReply r;
    r.requests = 1;
    r.solves_completed = 2;
    r.solve_errors = 3;
    r.batches = 4;
    r.batched_cols = 5;
    r.deadline_rejects = 6;
    r.protocol_errors = 7;
    r.registry_entries = 8;
    r.registry_evictions = 9;
    r.registry_bytes = 10;
    r.registry_peak_bytes = 11;
    const StatsReply g = decode_stats_reply(encode_stats_reply(r));
    EXPECT_EQ(g.requests, 1);
    EXPECT_EQ(g.registry_peak_bytes, 11);
  }
}

TEST(Protocol, FactorizeReplyCarriesFp32) {
  FactorizeReply r;
  r.key = {9, 10};
  r.perturbed_pivots = 2;
  r.fp32 = true;
  const std::vector<u8> p = encode_factorize_reply(r);
  const FactorizeReply g = decode_factorize_reply(p);
  EXPECT_EQ(g.key, r.key);
  EXPECT_EQ(g.perturbed_pivots, 2);
  EXPECT_TRUE(g.fp32);
  EXPECT_FALSE(g.fp32_fallback);

  // A reply cut anywhere, even just before its last flag, is malformed.
  for (std::size_t cut : {std::size_t{0}, p.size() / 2, p.size() - 1}) {
    try {
      decode_factorize_reply({p.begin(), p.begin() + static_cast<std::ptrdiff_t>(cut)});
      FAIL() << "truncated reply of " << cut << " bytes accepted";
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kMalformedInput) << cut;
    }
  }

  // A version-1 peer sends replies without the fp32 byte: its frames are
  // refused at the header, before any payload is decoded.
  Frame f;
  f.type = MsgType::kFactorizeOk;
  f.payload = p;
  std::vector<u8> wire = encode_frame(f);
  const u32 v1 = 1;
  std::memcpy(&wire[4], &v1, sizeof(v1));
  FrameDecoder dec;
  dec.feed(wire.data(), wire.size());
  Frame out;
  try {
    dec.next(&out);
    FAIL() << "version-1 frame accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kProtocolError);
  }
}

void expect_malformed_payload(const std::vector<u8>& payload,
                              AnalyzeRequest (*dec)(const std::vector<u8>&),
                              const char* what) {
  try {
    dec(payload);
    FAIL() << what << ": malformed payload accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kMalformedInput) << what;
  }
}

TEST(Protocol, MalformedPayloadCorpus) {
  AnalyzeRequest req;
  req.matrix = test_matrix();
  const std::vector<u8> good = encode_analyze_request(req);

  {
    // Truncated payload: every prefix must reject, never read past the end.
    for (std::size_t cut : {std::size_t{0}, std::size_t{3}, good.size() / 2,
                            good.size() - 1}) {
      expect_malformed_payload({good.begin(), good.begin() + cut},
                               decode_analyze_request, "truncated payload");
    }
  }
  {
    std::vector<u8> bad = good;  // trailing garbage after a valid body
    bad.push_back(0);
    expect_malformed_payload(bad, decode_analyze_request, "trailing bytes");
  }
  {
    // A count field larger than the remaining bytes could ask the reader to
    // allocate wildly — it must be capped by what is actually present.
    PayloadWriter w;
    w.put_i64(i64{1} << 40);  // "array length"
    expect_malformed_payload(w.take(), [](const std::vector<u8>& p) {
      PayloadReader r(p);
      r.get_doubles();
      return AnalyzeRequest{};
    }, "count exceeds payload");
  }
  {
    // Well-framed, decodes as a matrix — but the matrix itself is nonsense
    // (zero diagonal). Same taxonomy as a corrupt .mtx file.
    AnalyzeRequest bad_m;
    const std::vector<double> diag = {1.0, 0.0};
    bad_m.matrix = SymSparse::from_entries(2, diag, {{1, 0}}, {-0.25});
    std::vector<u8> p = encode_analyze_request(bad_m);
    expect_malformed_payload(p, decode_analyze_request, "zero diagonal");
  }
  {
    // An out-of-range row index in the wire CSC arrays is caught by the
    // decoder's field checks, before the matrix builder sees it. Layout:
    // n, then the col_ptr count and n+1 entries, then the row_idx count.
    const idx n = req.matrix.num_rows();
    const std::size_t row1 = 8 + 8 + 8 * (static_cast<std::size_t>(n) + 1) + 8 + sizeof(idx);
    for (idx bad : {n, idx{-1}, std::numeric_limits<idx>::max()}) {
      std::vector<u8> p = good;
      std::memcpy(&p[row1], &bad, sizeof(idx));
      expect_malformed_payload(p, decode_analyze_request, "row index out of range");
    }
  }
  {
    SolveRequest sr;
    sr.key = {1, 1};
    sr.rhs = {1.0};
    std::vector<u8> p = encode_solve_request(sr);
    // Corrupt the rhs with a NaN bit pattern: solver inputs must be finite.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    std::memcpy(&p[p.size() - sizeof(double)], &nan, sizeof(double));
    try {
      decode_solve_request(p);
      FAIL() << "NaN rhs accepted";
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kMalformedInput);
    }
  }
}

TEST(Protocol, RequestTypePredicate) {
  EXPECT_TRUE(is_request_type(static_cast<u16>(MsgType::kPing)));
  EXPECT_TRUE(is_request_type(static_cast<u16>(MsgType::kShutdown)));
  EXPECT_FALSE(is_request_type(static_cast<u16>(MsgType::kPong)));
  EXPECT_FALSE(is_request_type(static_cast<u16>(MsgType::kError)));
  EXPECT_FALSE(is_request_type(0));
  EXPECT_FALSE(is_request_type(999));
}

// --- registry ---------------------------------------------------------------

TEST(Registry, LruEvictsUnderEntryCap) {
  FactorRegistry::Config cfg;
  cfg.max_entries = 2;
  FactorRegistry reg(cfg);
  SolverOptions opt;

  const SymSparse m1 = make_grid2d(8, 8);
  const SymSparse m2 = make_grid2d(9, 9);
  const SymSparse m3 = make_grid2d(10, 10);
  auto e1 = reg.admit(m1, opt);
  auto e2 = reg.admit(m2, opt);
  // Touch e1 so e2 is the LRU victim when m3 arrives.
  EXPECT_EQ(reg.find(e1->key), e1);
  auto e3 = reg.admit(m3, opt);

  EXPECT_EQ(reg.entries(), 2);
  EXPECT_EQ(reg.evictions(), 1);
  EXPECT_EQ(reg.find(e2->key), nullptr);  // evicted
  EXPECT_NE(reg.find(e1->key), nullptr);
  EXPECT_NE(reg.find(e3->key), nullptr);

  // A second admit of the same matrix is a cache hit, not a new entry.
  EXPECT_EQ(reg.admit(m3, opt), e3);
  EXPECT_EQ(reg.entries(), 2);
}

TEST(Registry, EvictionDrainsAccountingToZero) {
  FactorRegistry::Config cfg;
  cfg.budget_bytes = 64 << 20;
  FactorRegistry reg(cfg);
  SolverOptions opt;

  auto e = reg.admit(test_matrix(), opt);
  // Symbolic analysis is ungoverned (only factor/workspace allocations are
  // charged), so a freshly admitted entry mirrors nothing yet.
  EXPECT_EQ(reg.in_use_bytes(), 0);
  {
    spc::LockGuard lock(e->mu);
    reg.ensure_headroom(e, e->solver.estimate_factor_bytes(), "factorize");
    e->solver.factorize_governed(1);
    e->factored = true;
    reg.settle(e, "factorize");
  }
  const i64 resident = reg.in_use_bytes();
  EXPECT_GT(resident, 0);
  EXPECT_LE(resident, reg.budget_bytes());

  EXPECT_TRUE(reg.evict(e->key));
  EXPECT_EQ(reg.in_use_bytes(), 0);  // governed deallocation: bytes released
  EXPECT_FALSE(reg.evict(e->key));   // unknown key now
  EXPECT_EQ(reg.entries(), 0);
  EXPECT_GE(reg.peak_bytes(), resident);

  // The evicted entry is still usable by in-flight holders; settle() on it
  // is a no-op and must not resurrect charges.
  reg.settle(e, "late");
  EXPECT_EQ(reg.in_use_bytes(), 0);
}

TEST(Registry, AdmissionRejectsWhatCanNeverFit) {
  FactorRegistry::Config cfg;
  cfg.budget_bytes = 4096;  // absurdly tight: no factor could ever fit
  FactorRegistry reg(cfg);
  SolverOptions opt;
  // Admission control runs before numeric work: the pre-factorization
  // headroom check must reject with the full accounting in the typed
  // context, leaving the registry uncharged.
  auto e = reg.admit(make_grid2d(32, 32), opt);
  try {
    spc::LockGuard lock(e->mu);
    reg.ensure_headroom(e, e->solver.estimate_factor_bytes(), "factorize");
    FAIL() << "admission over budget succeeded";
  } catch (const Error& err) {
    EXPECT_EQ(err.kind(), ErrorKind::kResourceExhausted);
    EXPECT_TRUE(err.context().has_budget);
    EXPECT_EQ(err.context().budget_bytes, 4096);
  }
  EXPECT_EQ(reg.in_use_bytes(), 0);  // failed admission leaves no residue
}

TEST(Registry, ByteBudgetEvictsLruPeers) {
  SolverOptions opt;
  // Size the budget to hold one factored entry but not two. Admission is
  // driven by the (conservative) pre-factorization estimate, so the budget
  // is anchored on the estimate of the larger matrix plus half the settled
  // footprint of the smaller one: the second ensure_headroom overflows and
  // must evict, after which the request fits.
  i64 actual16 = 0;
  i64 est17 = 0;
  {
    FactorRegistry reg(FactorRegistry::Config{});
    auto p1 = reg.admit(make_grid2d(16, 16), opt);
    {
      spc::LockGuard lock(p1->mu);
      p1->solver.factorize_governed(1);
      reg.settle(p1, "probe");
    }
    actual16 = reg.in_use_bytes();
    auto p2 = reg.admit(make_grid2d(17, 17), opt);
    est17 = p2->solver.estimate_factor_bytes();
  }
  ASSERT_GT(actual16, 0);
  FactorRegistry::Config cfg;
  cfg.budget_bytes = est17 + actual16 / 2;
  FactorRegistry reg(cfg);

  auto e1 = reg.admit(make_grid2d(16, 16), opt);
  {
    spc::LockGuard lock(e1->mu);
    reg.ensure_headroom(e1, e1->solver.estimate_factor_bytes(), "factorize");
    e1->solver.factorize_governed(1);
    reg.settle(e1, "factorize");
  }
  auto e2 = reg.admit(make_grid2d(17, 17), opt);
  {
    spc::LockGuard lock(e2->mu);
    // Admitting the second factor must push the first out, not overflow.
    reg.ensure_headroom(e2, e2->solver.estimate_factor_bytes(), "factorize");
    e2->solver.factorize_governed(1);
    reg.settle(e2, "factorize");
  }
  EXPECT_GE(reg.evictions(), 1);
  EXPECT_EQ(reg.find(e1->key), nullptr);
  EXPECT_LE(reg.in_use_bytes(), cfg.budget_bytes);

  reg.clear();
  EXPECT_EQ(reg.in_use_bytes(), 0);
}

// --- registry: same-pattern writes share one analysis ------------------------

// Same pattern, new values: every diagonal entry (the first of its column)
// grows by a seeded 1-10%.
SymSparse shift_diagonal(const SymSparse& a, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> val = a.values();
  for (idx j = 0; j < a.num_rows(); ++j) {
    val[static_cast<std::size_t>(a.col_ptr()[j])] *= 1.0 + rng.uniform(0.01, 0.1);
  }
  return SymSparse::from_canonical(a.num_rows(), a.col_ptr(), a.row_idx(), std::move(val));
}

// Factorizes a registry entry the way the server does, then checks a solve.
void factor_and_check(FactorRegistry& reg, const std::shared_ptr<FactorRegistry::Entry>& e,
                      const SymSparse& a) {
  spc::LockGuard lock(e->mu);
  reg.ensure_headroom(e, e->solver.estimate_factor_bytes(1), "factorize");
  e->solver.factorize_governed(1);
  e->factored = true;
  reg.settle(e, "factorize");
  const std::vector<double> b = random_rhs(a.num_rows(), 31);
  EXPECT_LE(solve_residual(a, e->solver.solve(b), b), 1e-10);
}

TEST(Registry, SamePatternWriteSharesTheAnalysis) {
  FactorRegistry::Config cfg;
  cfg.max_entries = 4;
  FactorRegistry reg(cfg);
  SolverOptions opt;
  const SymSparse base = make_grid2d(16, 16);
  auto e0 = reg.admit(base, opt);
  EXPECT_EQ(reg.analysis_reuses(), 0);

  const SymSparse w1 = shift_diagonal(base, 1);
  auto e1 = reg.admit(w1, opt);
  EXPECT_NE(e1->key, e0->key);
  EXPECT_EQ(e1->structure_key, e0->structure_key);
  EXPECT_EQ(e1->solver.analysis(), e0->solver.analysis());
  EXPECT_EQ(e1->solver.num_rows(), e0->solver.num_rows());
  EXPECT_EQ(e1->solver.factor_nnz_exact(), e0->solver.factor_nnz_exact());
  EXPECT_EQ(e1->solver.factor_flops_exact(), e0->solver.factor_flops_exact());
  EXPECT_EQ(reg.analysis_reuses(), 1);
  EXPECT_EQ(reg.admit(w1, opt), e1);  // a full-key hit is not a reuse
  EXPECT_EQ(reg.analysis_reuses(), 1);

  // Evicting the entry that built the analysis strands nobody: the write
  // keeps it alive, factors and solves, and later writes share it too.
  ASSERT_TRUE(reg.evict(e0->key));
  e0.reset();
  factor_and_check(reg, e1, w1);
  const SymSparse w2 = shift_diagonal(base, 2);
  auto e2 = reg.admit(w2, opt);
  EXPECT_EQ(e2->solver.analysis(), e1->solver.analysis());
  EXPECT_EQ(reg.analysis_reuses(), 2);
  factor_and_check(reg, e2, w2);

  // Other analyze options are another structure key: analyzed cold.
  SolverOptions other = opt;
  other.block_size = 32;
  auto e3 = reg.admit(w2, other);
  EXPECT_NE(e3->structure_key, e2->structure_key);
  EXPECT_NE(e3->solver.analysis(), e2->solver.analysis());
  EXPECT_EQ(reg.analysis_reuses(), 2);
  reg.clear();
  EXPECT_EQ(reg.in_use_bytes(), 0);
}

TEST(Registry, StructureKeyCollisionTakesTheColdPath) {
  FactorRegistry reg(FactorRegistry::Config{});
  SolverOptions opt;
  const SymSparse base = make_grid2d(12, 12);
  // Same n and nnz, one row index moved: column 0 holds rows {0, 1, 12} in
  // the natural grid order, and (1, 0) becomes (2, 0).
  std::vector<idx> row = base.row_idx();
  ASSERT_EQ(row[1], 1);
  row[1] = 2;
  const SymSparse moved =
      SymSparse::from_canonical(base.num_rows(), base.col_ptr(), row, base.values());

  auto e0 = reg.admit(base, opt);
  // Forge the collision a 128-bit hash practically never produces: the
  // registered entry now claims the other pattern's structure key.
  e0->structure_key = fingerprint_structure(moved, opt);
  auto e1 = reg.admit(moved, opt);
  EXPECT_EQ(reg.analysis_reuses(), 0);  // the exact compare refused it
  EXPECT_NE(e1->solver.analysis(), e0->solver.analysis());
  EXPECT_EQ(e1->solver.factor_nnz_exact(),
            SparseCholesky::analyze(moved, opt).factor_nnz_exact());
  factor_and_check(reg, e1, moved);
}

// --- server + batcher -------------------------------------------------------

// The core batching invariant: coalescing K clients' single-RHS requests
// into one panel must be invisible in the bits of each client's solution.
// Baseline = the same server configuration serving each request alone.
TEST(Batcher, OldestDueQueueGoesFirst) {
  FactorRegistry reg(FactorRegistry::Config{});
  auto e1 = reg.admit(make_grid2d(6, 6), SolverOptions{});
  auto e2 = reg.admit(make_grid2d(7, 7), SolverOptions{});
  // The queue map is ordered by fingerprint; let the larger key hold the
  // older request, so key order and age disagree.
  if (e2->key < e1->key) std::swap(e1, e2);
  SolveBatcher::Config cfg;
  cfg.window_s = 0.0;  // every non-empty queue is due at once
  SolveBatcher batcher(cfg);
  batcher.enqueue(e2, PendingSolve{});
  std::this_thread::sleep_for(std::chrono::milliseconds(1));  // strictly older
  batcher.enqueue(e1, PendingSolve{});
  SolveBatch batch;
  ASSERT_TRUE(batcher.pop_due(std::chrono::steady_clock::now(), false, &batch, nullptr));
  EXPECT_EQ(batch.entry, e2);
  ASSERT_TRUE(batcher.pop_due(std::chrono::steady_clock::now(), false, &batch, nullptr));
  EXPECT_EQ(batch.entry, e1);
  EXPECT_TRUE(batcher.empty());
}

TEST(Server, BatchedSolveBitwiseMatchesSolo) {
  const SymSparse a = test_matrix();
  const idx n = a.num_rows();
  const int k = 8;
  std::vector<std::vector<double>> rhs;
  rhs.reserve(k);
  for (int i = 0; i < k; ++i) rhs.push_back(random_rhs(n, 100 + i));

  ServerConfig solo_cfg;
  solo_cfg.batch.nrhs_block = 1;  // every request its own panel
  solo_cfg.batch.window_s = 0;
  solo_cfg.workers = 1;
  solo_cfg.solve_threads = 1;
  solo_cfg.factor_threads = 1;
  std::vector<std::vector<double>> solo(k);
  {
    Server srv(solo_cfg);
    const AnalyzeReply ar = srv.analyze(a, SolverOptions());
    for (int i = 0; i < k; ++i) solo[i] = srv.solve(ar.key, rhs[i]);
  }

  ServerConfig batched_cfg = solo_cfg;
  batched_cfg.batch.nrhs_block = k;   // all requests coalesce...
  batched_cfg.batch.window_s = 10.0;  // ...and only the full panel flushes
  {
    Server srv(batched_cfg);
    const AnalyzeReply ar = srv.analyze(a, SolverOptions());
    spc::Mutex mu;
    spc::CondVar cv;
    int done = 0;
    std::vector<std::vector<double>> batched(k);
    for (int i = 0; i < k; ++i) {
      srv.solve_async(ar.key, rhs[i], -1.0,
                      [&, i](std::vector<double> x, std::exception_ptr err) {
                        ASSERT_EQ(err, nullptr);
                        spc::LockGuard lock(mu);
                        batched[i] = std::move(x);
                        ++done;
                        cv.notify_all();
                      });
    }
    mu.lock();
    while (done < k) cv.wait(mu);
    mu.unlock();

    const StatsReply st = srv.stats();
    EXPECT_EQ(st.batches, 1);  // genuinely one panel, not k accidental solos
    EXPECT_EQ(st.batched_cols, k);
    for (int i = 0; i < k; ++i) {
      ASSERT_EQ(batched[i].size(), solo[i].size());
      EXPECT_EQ(0, std::memcmp(batched[i].data(), solo[i].data(),
                               solo[i].size() * sizeof(double)))
          << "solution " << i << " changed bits when batched";
    }
  }
}

// Same-pattern writes beside depth-16 solves on their base, with the base
// evicted under them (a tsan-labeled test). Every answer is checked, the
// writes must reuse the analysis, and the accounting drains to zero.
TEST(Server, SamePatternWritesBesideSolvesAndBaseEvictions) {
  ServerConfig cfg;
  cfg.workers = 2;
  cfg.solve_threads = 1;
  cfg.factor_threads = 1;
  cfg.batch.nrhs_block = 8;
  cfg.batch.window_s = 1e-3;
  cfg.registry.max_entries = 3;
  Server srv(cfg);
  const SymSparse base = make_grid2d(20, 20);
  const idx n = base.num_rows();
  const Fingerprint base_key = srv.analyze(base, SolverOptions()).key;
  srv.factorize(base_key, 1);

  int solve_failures = 0;
  std::thread solver([&] {
    for (int round = 0; round < 12; ++round) {
      // Re-admits the base when a write evicted it (a reuse when a write is
      // resident, a cache hit otherwise).
      const Fingerprint key = srv.analyze(base, SolverOptions()).key;
      spc::Mutex mu;
      spc::CondVar cv;
      int done = 0, submitted = 0;
      std::vector<std::vector<double>> rhs, xs(16);
      std::vector<std::exception_ptr> errs(16);
      for (int d = 0; d < 16; ++d) rhs.push_back(random_rhs(n, 1000 + 16 * round + d));
      for (int d = 0; d < 16; ++d) {
        try {
          srv.solve_async(key, rhs[static_cast<std::size_t>(d)], -1.0,
                          [&, d](std::vector<double> x, std::exception_ptr err) {
                            spc::LockGuard lock(mu);
                            xs[static_cast<std::size_t>(d)] = std::move(x);
                            errs[static_cast<std::size_t>(d)] = err;
                            ++done;
                            cv.notify_all();
                          });
          ++submitted;
        } catch (const Error& e) {
          // Evicted between analyze and submit: the key is unknown now.
          if (e.kind() != ErrorKind::kProtocolError) ++solve_failures;
          break;
        }
      }
      mu.lock();
      while (done < submitted) cv.wait(mu);
      mu.unlock();
      for (int d = 0; d < submitted; ++d) {
        const auto k = static_cast<std::size_t>(d);
        if (errs[k] != nullptr || solve_residual(base, xs[k], rhs[k]) > 1e-10) {
          ++solve_failures;
        }
      }
    }
  });
  int write_failures = 0;
  for (int w = 0; w < 8; ++w) {
    const SymSparse a = shift_diagonal(base, 50 + static_cast<std::uint64_t>(w));
    try {
      const AnalyzeReply ar = srv.analyze(a, SolverOptions());
      srv.factorize(ar.key, 1);
      const std::vector<double> b = random_rhs(n, 77 + static_cast<std::uint64_t>(w));
      if (solve_residual(a, srv.solve(ar.key, b), b) > 1e-10) ++write_failures;
      if (w % 2 == 1) srv.evict(base_key);
    } catch (const Error& e) {
      // A later write may evict this one between its analyze and its solve.
      if (e.kind() != ErrorKind::kProtocolError) ++write_failures;
    }
  }
  solver.join();
  EXPECT_EQ(solve_failures, 0);
  EXPECT_EQ(write_failures, 0);
  EXPECT_GT(srv.registry().analysis_reuses(), 0);
  srv.shutdown();
  srv.registry().clear();
  EXPECT_EQ(srv.registry().in_use_bytes(), 0);
}

TEST(Server, MixedDeadlineBatchIsolatesTheExpiredRequest) {
  const SymSparse a = test_matrix();
  const idx n = a.num_rows();

  ServerConfig cfg;
  cfg.batch.nrhs_block = 4;
  cfg.batch.window_s = 10.0;  // flush only when all four are queued
  cfg.workers = 1;
  cfg.solve_threads = 1;
  cfg.factor_threads = 1;
  Server srv(cfg);
  const AnalyzeReply ar = srv.analyze(a, SolverOptions());
  srv.factorize(ar.key, 1);  // pre-factor so the batch is pure solve

  spc::Mutex mu;
  spc::CondVar cv;
  int done = 0;
  std::vector<std::exception_ptr> errs(4);
  std::vector<std::vector<double>> xs(4);
  for (int i = 0; i < 4; ++i) {
    // Request 2 arrives already expired; its three peers have no deadline.
    const double deadline_s = i == 2 ? 0.0 : -1.0;
    srv.solve_async(ar.key, random_rhs(n, 200 + i), deadline_s,
                    [&, i](std::vector<double> x, std::exception_ptr err) {
                      spc::LockGuard lock(mu);
                      xs[i] = std::move(x);
                      errs[i] = err;
                      ++done;
                      cv.notify_all();
                    });
  }
  mu.lock();
  while (done < 4) cv.wait(mu);
  mu.unlock();

  for (int i = 0; i < 4; ++i) {
    if (i == 2) {
      ASSERT_NE(errs[i], nullptr) << "expired request succeeded";
      EXPECT_EQ(kind_of(errs[i]), ErrorKind::kDeadlineExceeded);
    } else {
      ASSERT_EQ(errs[i], nullptr) << "peer " << i << " poisoned by the reject";
      EXPECT_EQ(xs[i].size(), static_cast<std::size_t>(n));
    }
  }
  const StatsReply st = srv.stats();
  EXPECT_EQ(st.deadline_rejects, 1);
  EXPECT_EQ(st.solves_completed, 3);
  EXPECT_EQ(st.solve_errors, 1);
}

TEST(Server, SolveAgainstUnknownKeyThrowsSynchronously) {
  Server srv(ServerConfig{});
  EXPECT_THROW(srv.solve({1, 2}, {1.0, 2.0}), Error);
}

TEST(Server, HandleFrameSpeaksTheTaxonomy) {
  Server srv(ServerConfig{});
  // A solve for an unknown fingerprint over the wire surface: the reply is
  // a kError frame with the request_id echoed, carrying kProtocolError —
  // the frame was well-formed, but the client broke the analyze-first
  // protocol.
  SolveRequest sr;
  sr.key = {42, 42};
  sr.rhs = {1.0};
  Frame f;
  f.type = MsgType::kSolve;
  f.request_id = 77;
  f.payload = encode_solve_request(sr);

  spc::Mutex mu;
  spc::CondVar cv;
  bool got = false;
  Frame reply;
  srv.handle_frame(f, [&](Frame r) {
    spc::LockGuard lock(mu);
    reply = std::move(r);
    got = true;
    cv.notify_all();
  });
  mu.lock();
  while (!got) cv.wait(mu);
  mu.unlock();

  EXPECT_EQ(reply.type, MsgType::kError);
  EXPECT_EQ(reply.request_id, 77u);
  const ErrorReply er = decode_error_reply(reply.payload);
  EXPECT_EQ(er.kind, ErrorKind::kProtocolError);
}

// --- sockets: the event loop ------------------------------------------------

class UnixClient {
 public:
  explicit UnixClient(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~UnixClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool ok() const { return fd_ >= 0; }

  void send_bytes(const void* p, std::size_t n) {
    const u8* b = static_cast<const u8*>(p);
    while (n > 0) {
      const ssize_t w = ::write(fd_, b, n);
      ASSERT_GT(w, 0);
      b += w;
      n -= static_cast<std::size_t>(w);
    }
  }
  void send_frame(const Frame& f) {
    const std::vector<u8> wire = encode_frame(f);
    send_bytes(wire.data(), wire.size());
  }
  // Blocking read of the next reply frame (false on orderly close).
  bool recv_frame(Frame* out) {
    u8 chunk[4096];
    Frame f;
    while (true) {
      if (dec_.next(&f)) {
        *out = std::move(f);
        return true;
      }
      const ssize_t r = ::read(fd_, chunk, sizeof(chunk));
      if (r <= 0) return false;
      dec_.feed(chunk, static_cast<std::size_t>(r));
    }
  }
  // True once the server closed its end (read returns 0 after draining).
  bool closed_by_server() {
    Frame f;
    while (recv_frame(&f)) {
    }
    return true;
  }

 private:
  int fd_ = -1;
  FrameDecoder dec_;
};

struct LoopFixture {
  ServerConfig scfg;
  std::unique_ptr<Server> server;
  std::unique_ptr<EventLoop> loop;
  std::thread thread;
  std::string path;

  explicit LoopFixture(i64 max_payload = kDefaultMaxPayloadBytes) {
    path = "/tmp/spc_test_server_" + std::to_string(::getpid()) + "_" +
           std::to_string(reinterpret_cast<std::uintptr_t>(this)) + ".sock";
    scfg.workers = 2;
    scfg.factor_threads = 1;
    server = std::make_unique<Server>(scfg);
    EventLoopConfig lcfg;
    lcfg.unix_path = path;
    lcfg.max_payload_bytes = max_payload;
    loop = std::make_unique<EventLoop>(*server, lcfg);
    thread = std::thread([this] { loop->run(); });
  }
  ~LoopFixture() {
    if (thread.joinable()) {
      loop->stop();
      thread.join();
    }
    ::unlink(path.c_str());
  }
};

TEST(EventLoop, SlowLorisDoesNotStallOtherClients) {
  LoopFixture fx;

  // Client A dribbles half a solve frame and then just... stops.
  UnixClient loris(fx.path);
  ASSERT_TRUE(loris.ok());
  Frame big;
  big.type = MsgType::kSolve;
  big.request_id = 13;
  SolveRequest sr;
  sr.key = {9, 9};
  sr.rhs.assign(4096, 1.0);
  big.payload = encode_solve_request(sr);
  const std::vector<u8> wire = encode_frame(big);
  loris.send_bytes(wire.data(), wire.size() / 2);

  // Client B meanwhile runs a full analyze+solve conversation. If the loop
  // ever blocked on A's half-frame, these replies would never arrive.
  UnixClient b(fx.path);
  ASSERT_TRUE(b.ok());
  const SymSparse a = test_matrix();
  Frame req;
  req.type = MsgType::kAnalyze;
  req.request_id = 1;
  AnalyzeRequest areq;
  areq.matrix = a;
  req.payload = encode_analyze_request(areq);
  b.send_frame(req);
  Frame reply;
  ASSERT_TRUE(b.recv_frame(&reply));
  ASSERT_EQ(reply.type, MsgType::kAnalyzeOk);
  const AnalyzeReply ar = decode_analyze_reply(reply.payload);

  SolveRequest bs;
  bs.key = ar.key;
  bs.rhs = random_rhs(a.num_rows(), 5);
  Frame solve;
  solve.type = MsgType::kSolve;
  solve.request_id = 2;
  solve.payload = encode_solve_request(bs);
  b.send_frame(solve);
  ASSERT_TRUE(b.recv_frame(&reply));
  EXPECT_EQ(reply.type, MsgType::kSolveOk);
  EXPECT_EQ(reply.request_id, 2u);
  EXPECT_EQ(decode_solve_reply(reply.payload).x.size(),
            static_cast<std::size_t>(a.num_rows()));

  // The loris finally completes its frame and still gets served (a slow
  // client is slow, not broken).
  loris.send_bytes(wire.data() + wire.size() / 2,
                   wire.size() - wire.size() / 2);
  ASSERT_TRUE(loris.recv_frame(&reply));
  EXPECT_EQ(reply.type, MsgType::kError);  // unknown key, but a real reply
  EXPECT_EQ(reply.request_id, 13u);
}

TEST(EventLoop, GarbageEarnsProtocolErrorAndClose) {
  LoopFixture fx;
  UnixClient c(fx.path);
  ASSERT_TRUE(c.ok());
  const char junk[] = "GET / HTTP/1.1\r\n\r\n";
  c.send_bytes(junk, sizeof(junk) - 1);
  Frame reply;
  ASSERT_TRUE(c.recv_frame(&reply));
  EXPECT_EQ(reply.type, MsgType::kError);
  EXPECT_EQ(decode_error_reply(reply.payload).kind, ErrorKind::kProtocolError);
  EXPECT_TRUE(c.closed_by_server());

  // The daemon survives: a fresh client still gets answered.
  UnixClient c2(fx.path);
  ASSERT_TRUE(c2.ok());
  Frame ping;
  ping.type = MsgType::kPing;
  ping.request_id = 3;
  c2.send_frame(ping);
  ASSERT_TRUE(c2.recv_frame(&reply));
  EXPECT_EQ(reply.type, MsgType::kPong);
  const StatsReply st = fx.server->stats();
  EXPECT_GE(st.protocol_errors, 1);
}

TEST(EventLoop, OversizedFrameRejectedWithoutBuffering) {
  LoopFixture fx(/*max_payload=*/1 << 16);
  UnixClient c(fx.path);
  ASSERT_TRUE(c.ok());
  // Header only: announces 1 GB. The reply must arrive although the payload
  // is never sent — proof the server rejected from the header alone.
  Frame f;
  f.type = MsgType::kSolve;
  f.request_id = 4;
  std::vector<u8> wire = encode_frame(f);
  const u64 huge = u64{1} << 30;
  std::memcpy(&wire[20], &huge, sizeof(huge));
  c.send_bytes(wire.data(), kHeaderBytes);
  Frame reply;
  ASSERT_TRUE(c.recv_frame(&reply));
  EXPECT_EQ(reply.type, MsgType::kError);
  EXPECT_EQ(decode_error_reply(reply.payload).kind, ErrorKind::kProtocolError);
  EXPECT_TRUE(c.closed_by_server());
}

TEST(EventLoop, ShutdownFrameDrainsAndExits) {
  LoopFixture fx;
  UnixClient c(fx.path);
  ASSERT_TRUE(c.ok());
  Frame f;
  f.type = MsgType::kShutdown;
  f.request_id = 9;
  c.send_frame(f);
  Frame reply;
  ASSERT_TRUE(c.recv_frame(&reply));
  EXPECT_EQ(reply.type, MsgType::kShutdownOk);
  fx.thread.join();  // run() must return on its own after the frame
  EXPECT_TRUE(fx.server->shutdown_requested());
}

}  // namespace
}  // namespace spc::server
