// Wire protocol of the spcd solver daemon (docs/SERVING.md).
//
// Length-prefixed binary frames, little-endian POD payloads in the idiom of
// factor/serialize.cpp. One frame is:
//
//   u32 magic        'SPCD' (0x53504344)
//   u32 version      2
//   u16 type         MsgType
//   u16 reserved     0
//   u64 request_id   echoed verbatim in the response frame
//   u64 payload_len  bytes following the header
//   u8  payload[payload_len]
//
// The framing layer is socket-free: FrameDecoder consumes raw bytes in
// arbitrary chunk sizes (so a partial frame is just pending per-connection
// state, never a blocking read — the slow-loris property of the event loop),
// and encode_frame produces a contiguous byte buffer. Framing violations —
// bad magic/version, an oversized or negative payload length, an unknown
// type where one is required — throw Error(kProtocolError); payloads that
// frame correctly but decode to nonsense (size mismatches, out-of-range
// indices, non-finite values) throw Error(kMalformedInput), exactly like the
// matrix readers. Neither ever crashes or hangs the server: the connection
// gets a kError reply and is closed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cholesky/sparse_cholesky.hpp"
#include "factor/serialize.hpp"
#include "graph/graph.hpp"
#include "support/types.hpp"

namespace spc::server {

using u8 = std::uint8_t;
using u16 = std::uint16_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;

constexpr u32 kMagic = 0x53504344;  // "SPCD"
constexpr u32 kVersion = 2;
constexpr std::size_t kHeaderBytes = 28;
// Default cap on one frame's payload; a length field above the decoder's cap
// is rejected before any buffering, so a hostile header cannot reserve
// memory.
constexpr i64 kDefaultMaxPayloadBytes = i64{1} << 30;

enum class MsgType : u16 {
  // Requests.
  kPing = 1,
  kAnalyze = 2,    // matrix + options -> registry entry, returns fingerprint
  kFactorize = 3,  // fingerprint + threads -> numeric factor materialized
  kSolve = 4,      // fingerprint + rhs -> solution (batched server-side)
  kStats = 5,
  kEvict = 6,      // fingerprint -> entry dropped from the registry
  kShutdown = 7,
  // Responses.
  kPong = 65,
  kAnalyzeOk = 66,
  kFactorizeOk = 67,
  kSolveOk = 68,
  kStatsOk = 69,
  kEvictOk = 70,
  kShutdownOk = 71,
  kError = 127,
};

// True for the types a client may send (the server rejects response types).
bool is_request_type(u16 type);

struct Frame {
  MsgType type = MsgType::kPing;
  u64 request_id = 0;
  std::vector<u8> payload;
};

// Serializes header + payload into one contiguous buffer.
std::vector<u8> encode_frame(const Frame& f);

// Incremental frame parser over a byte stream. feed() appends raw bytes;
// next() extracts the following complete frame, returning false when more
// bytes are needed. Framing violations throw Error(kProtocolError); the
// decoder is then poisoned (every later call rethrows) because a stream
// without frame boundaries cannot be resynchronized.
class FrameDecoder {
 public:
  explicit FrameDecoder(i64 max_payload_bytes = kDefaultMaxPayloadBytes);

  void feed(const void* data, std::size_t bytes);
  bool next(Frame* out);

  i64 buffered_bytes() const { return static_cast<i64>(buf_.size() - pos_); }
  bool poisoned() const { return poisoned_; }

 private:
  void check_header();

  i64 max_payload_bytes_;
  std::vector<u8> buf_;
  std::size_t pos_ = 0;  // consumed prefix of buf_
  bool poisoned_ = false;
};

// --- payload codecs --------------------------------------------------------

// Append-only little-endian payload builder.
class PayloadWriter {
 public:
  void put_u8(u8 v) { buf_.push_back(v); }
  void put_u16(u16 v) { put_raw(&v, sizeof(v)); }
  void put_u32(u32 v) { put_raw(&v, sizeof(v)); }
  void put_u64(u64 v) { put_raw(&v, sizeof(v)); }
  void put_i64(i64 v) { put_raw(&v, sizeof(v)); }
  void put_f64(double v) { put_raw(&v, sizeof(v)); }
  void put_string(const std::string& s);           // u32 length + bytes
  void put_doubles(const std::vector<double>& v);  // i64 count + raw array
  void put_i64s(const std::vector<i64>& v);
  void put_idxs(const std::vector<idx>& v);

  std::vector<u8> take() { return std::move(buf_); }

 private:
  void put_raw(const void* p, std::size_t n);
  std::vector<u8> buf_;
};

// Bounds-checked payload reader; overruns and corrupt counts throw
// Error(kMalformedInput).
class PayloadReader {
 public:
  PayloadReader(const u8* data, std::size_t bytes)
      : p_(data), end_(data + bytes) {}
  explicit PayloadReader(const std::vector<u8>& payload)
      : PayloadReader(payload.data(), payload.size()) {}

  u8 get_u8();
  u16 get_u16();
  u32 get_u32();
  u64 get_u64();
  i64 get_i64();
  double get_f64();
  std::string get_string(std::size_t max_bytes = 1 << 20);
  std::vector<double> get_doubles();
  std::vector<i64> get_i64s();
  std::vector<idx> get_idxs();

  std::size_t remaining() const { return static_cast<std::size_t>(end_ - p_); }
  // A payload with trailing garbage is rejected like a matrix file with
  // trailing garbage would be.
  void expect_end() const;

 private:
  void get_raw(void* out, std::size_t n);
  i64 get_count(std::size_t elem_bytes);
  const u8* p_;
  const u8* end_;
};

// --- message bodies --------------------------------------------------------

// kAnalyze: the matrix (canonical lower-triangular CSC, diagonal first per
// column, exactly as SymSparse stores it) plus the analyze/factorize options
// that shape the cached factorization. The reply echoes the registry key.
struct AnalyzeRequest {
  SymSparse matrix;
  SolverOptions options;  // governance fields ignored server-side
};
std::vector<u8> encode_analyze_request(const AnalyzeRequest& r);
AnalyzeRequest decode_analyze_request(const std::vector<u8>& payload);

struct AnalyzeReply {
  Fingerprint key;
  idx n = 0;
  i64 factor_nnz = 0;
  i64 factor_flops = 0;
};
std::vector<u8> encode_analyze_reply(const AnalyzeReply& r);
AnalyzeReply decode_analyze_reply(const std::vector<u8>& payload);

struct FactorizeRequest {
  Fingerprint key;
  std::int32_t threads = 1;
};
std::vector<u8> encode_factorize_request(const FactorizeRequest& r);
FactorizeRequest decode_factorize_request(const std::vector<u8>& payload);

// FactorizeInfo's flags: fp32 is set when the factor was computed in fp32,
// fp32_fallback when an fp32 breakdown was retried in fp64.
struct FactorizeReply {
  Fingerprint key;
  i64 perturbed_pivots = 0;
  bool fp32 = false;
  bool fp32_fallback = false;
};
std::vector<u8> encode_factorize_reply(const FactorizeReply& r);
FactorizeReply decode_factorize_reply(const std::vector<u8>& payload);

// kSolve: one right-hand side against a registered factor. deadline_s < 0
// means no deadline; the server arms it at admission (docs/SERVING.md
// describes the batching-window semantics of the deadline).
struct SolveRequest {
  Fingerprint key;
  double deadline_s = -1.0;
  std::vector<double> rhs;
};
std::vector<u8> encode_solve_request(const SolveRequest& r);
SolveRequest decode_solve_request(const std::vector<u8>& payload);

struct SolveReply {
  std::vector<double> x;
};
std::vector<u8> encode_solve_reply(const SolveReply& r);
SolveReply decode_solve_reply(const std::vector<u8>& payload);

struct EvictRequest {
  Fingerprint key;
};
std::vector<u8> encode_evict_request(const EvictRequest& r);
EvictRequest decode_evict_request(const std::vector<u8>& payload);

// kError reply: the typed taxonomy over the wire. A client can map `kind`
// straight back to an ErrorKind / exit code.
struct ErrorReply {
  ErrorKind kind = ErrorKind::kInternal;
  std::string message;
};
std::vector<u8> encode_error_reply(const ErrorReply& r);
ErrorReply decode_error_reply(const std::vector<u8>& payload);

// kStatsOk reply: the server-side counters the bench and smoke tests read.
struct StatsReply {
  i64 requests = 0;          // frames accepted
  i64 solves_completed = 0;  // solve requests answered with kSolveOk
  i64 solve_errors = 0;      // solve requests answered with kError
  i64 batches = 0;           // panel sweeps executed
  i64 batched_cols = 0;      // RHS columns carried by those sweeps
  i64 deadline_rejects = 0;  // solves expired before their panel ran
  i64 protocol_errors = 0;   // frames rejected with kProtocolError
  i64 registry_entries = 0;
  i64 registry_evictions = 0;
  i64 registry_bytes = 0;
  i64 registry_peak_bytes = 0;
};
std::vector<u8> encode_stats_reply(const StatsReply& r);
StatsReply decode_stats_reply(const std::vector<u8>& payload);

}  // namespace spc::server
