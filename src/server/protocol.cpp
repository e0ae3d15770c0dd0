#include "server/protocol.hpp"

#include <cmath>
#include <cstring>
#include <utility>

#include "support/error.hpp"

namespace spc::server {

namespace {

[[noreturn]] void throw_protocol(const std::string& msg) {
  throw Error("protocol: " + msg, ErrorKind::kProtocolError);
}

[[noreturn]] void throw_payload(const std::string& msg) {
  throw Error("payload: " + msg, ErrorKind::kMalformedInput);
}

}  // namespace

bool is_request_type(u16 type) {
  switch (static_cast<MsgType>(type)) {
    case MsgType::kPing:
    case MsgType::kAnalyze:
    case MsgType::kFactorize:
    case MsgType::kSolve:
    case MsgType::kStats:
    case MsgType::kEvict:
    case MsgType::kShutdown:
      return true;
    default:
      return false;
  }
}

std::vector<u8> encode_frame(const Frame& f) {
  u8 header[kHeaderBytes];
  const u32 magic = kMagic;
  const u32 version = kVersion;
  const u16 type = static_cast<u16>(f.type);
  const u16 reserved = 0;
  const u64 payload_len = f.payload.size();
  std::memcpy(header, &magic, 4);
  std::memcpy(header + 4, &version, 4);
  std::memcpy(header + 8, &type, 2);
  std::memcpy(header + 10, &reserved, 2);
  std::memcpy(header + 12, &f.request_id, 8);
  std::memcpy(header + 20, &payload_len, 8);
  std::vector<u8> out(kHeaderBytes + f.payload.size());
  std::memcpy(out.data(), header, kHeaderBytes);
  if (!f.payload.empty()) {
    std::memcpy(out.data() + kHeaderBytes, f.payload.data(), f.payload.size());
  }
  return out;
}

FrameDecoder::FrameDecoder(i64 max_payload_bytes)
    : max_payload_bytes_(max_payload_bytes) {}

void FrameDecoder::feed(const void* data, std::size_t bytes) {
  if (poisoned_) throw_protocol("stream already failed, connection must close");
  const auto* p = static_cast<const u8*>(data);
  buf_.insert(buf_.end(), p, p + bytes);
}

void FrameDecoder::check_header() {
  // Validates every header field whose bytes have arrived — a garbage stream
  // is rejected from its first 4 bytes instead of waiting for a full header
  // that will never come, and a hostile length field is rejected without
  // buffering a single payload byte.
  const u8* h = buf_.data() + pos_;
  const std::size_t have = buf_.size() - pos_;
  if (have >= 4) {
    u32 magic;
    std::memcpy(&magic, h, 4);
    if (magic != kMagic) {
      poisoned_ = true;
      throw_protocol("bad magic (not an spcd stream)");
    }
  }
  if (have >= 8) {
    u32 version;
    std::memcpy(&version, h + 4, 4);
    if (version != kVersion) {
      poisoned_ = true;
      throw_protocol("unsupported protocol version " + std::to_string(version));
    }
  }
  if (have >= 12) {
    u16 reserved;
    std::memcpy(&reserved, h + 10, 2);
    if (reserved != 0) {
      poisoned_ = true;
      throw_protocol("nonzero reserved header field");
    }
  }
  if (have >= kHeaderBytes) {
    u64 payload_len;
    std::memcpy(&payload_len, h + 20, 8);
    if (payload_len > static_cast<u64>(max_payload_bytes_)) {
      poisoned_ = true;
      throw_protocol("frame payload of " + std::to_string(payload_len) +
                     " bytes exceeds the " +
                     std::to_string(max_payload_bytes_) + "-byte cap");
    }
  }
}

bool FrameDecoder::next(Frame* out) {
  if (poisoned_) throw_protocol("stream already failed, connection must close");
  check_header();
  if (buf_.size() - pos_ < kHeaderBytes) return false;
  const u8* h = buf_.data() + pos_;
  u16 type;
  u64 request_id, payload_len;
  std::memcpy(&type, h + 8, 2);
  std::memcpy(&request_id, h + 12, 8);
  std::memcpy(&payload_len, h + 20, 8);
  if (buf_.size() - pos_ - kHeaderBytes < payload_len) return false;
  out->type = static_cast<MsgType>(type);
  out->request_id = request_id;
  out->payload.assign(h + kHeaderBytes, h + kHeaderBytes + payload_len);
  pos_ += kHeaderBytes + static_cast<std::size_t>(payload_len);
  // Compact once the consumed prefix dominates, so a long-lived connection
  // does not grow its buffer without bound.
  if (pos_ > buf_.size() / 2 && pos_ > 4096) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  return true;
}

// --- payload codecs --------------------------------------------------------

void PayloadWriter::put_raw(const void* p, std::size_t n) {
  const auto* b = static_cast<const u8*>(p);
  buf_.insert(buf_.end(), b, b + n);
}

void PayloadWriter::put_string(const std::string& s) {
  put_u32(static_cast<u32>(s.size()));
  put_raw(s.data(), s.size());
}

void PayloadWriter::put_doubles(const std::vector<double>& v) {
  put_i64(static_cast<i64>(v.size()));
  put_raw(v.data(), v.size() * sizeof(double));
}

void PayloadWriter::put_i64s(const std::vector<i64>& v) {
  put_i64(static_cast<i64>(v.size()));
  put_raw(v.data(), v.size() * sizeof(i64));
}

void PayloadWriter::put_idxs(const std::vector<idx>& v) {
  put_i64(static_cast<i64>(v.size()));
  put_raw(v.data(), v.size() * sizeof(idx));
}

void PayloadReader::get_raw(void* out, std::size_t n) {
  if (static_cast<std::size_t>(end_ - p_) < n) {
    throw_payload("truncated payload");
  }
  std::memcpy(out, p_, n);
  p_ += n;
}

u8 PayloadReader::get_u8() {
  u8 v;
  get_raw(&v, sizeof(v));
  return v;
}
u16 PayloadReader::get_u16() {
  u16 v;
  get_raw(&v, sizeof(v));
  return v;
}
u32 PayloadReader::get_u32() {
  u32 v;
  get_raw(&v, sizeof(v));
  return v;
}
u64 PayloadReader::get_u64() {
  u64 v;
  get_raw(&v, sizeof(v));
  return v;
}
i64 PayloadReader::get_i64() {
  i64 v;
  get_raw(&v, sizeof(v));
  return v;
}
double PayloadReader::get_f64() {
  double v;
  get_raw(&v, sizeof(v));
  return v;
}

std::string PayloadReader::get_string(std::size_t max_bytes) {
  const u32 n = get_u32();
  if (n > max_bytes) throw_payload("string length exceeds cap");
  if (static_cast<std::size_t>(end_ - p_) < n) {
    throw_payload("truncated string");
  }
  std::string s(reinterpret_cast<const char*>(p_), n);
  p_ += n;
  return s;
}

i64 PayloadReader::get_count(std::size_t elem_bytes) {
  const i64 n = get_i64();
  if (n < 0) throw_payload("negative array length");
  // The remaining bytes bound the plausible count, so a corrupt length can
  // never drive a huge allocation.
  if (static_cast<u64>(n) * elem_bytes > static_cast<u64>(end_ - p_)) {
    throw_payload("array length exceeds payload");
  }
  return n;
}

std::vector<double> PayloadReader::get_doubles() {
  const i64 n = get_count(sizeof(double));
  std::vector<double> v(static_cast<std::size_t>(n));
  get_raw(v.data(), v.size() * sizeof(double));
  return v;
}

std::vector<i64> PayloadReader::get_i64s() {
  const i64 n = get_count(sizeof(i64));
  std::vector<i64> v(static_cast<std::size_t>(n));
  get_raw(v.data(), v.size() * sizeof(i64));
  return v;
}

std::vector<idx> PayloadReader::get_idxs() {
  const i64 n = get_count(sizeof(idx));
  std::vector<idx> v(static_cast<std::size_t>(n));
  get_raw(v.data(), v.size() * sizeof(idx));
  return v;
}

void PayloadReader::expect_end() const {
  if (p_ != end_) throw_payload("trailing bytes after message body");
}

// --- message bodies --------------------------------------------------------

namespace {

void put_fingerprint(PayloadWriter& w, const Fingerprint& f) {
  w.put_u64(f.hi);
  w.put_u64(f.lo);
}

Fingerprint get_fingerprint(PayloadReader& r) {
  Fingerprint f;
  f.hi = r.get_u64();
  f.lo = r.get_u64();
  return f;
}

void put_matrix(PayloadWriter& w, const SymSparse& a) {
  w.put_i64(static_cast<i64>(a.num_rows()));
  w.put_i64s(a.col_ptr());
  w.put_idxs(a.row_idx());
  w.put_doubles(a.values());
}

// Validates the transmitted CSC arrays field by field (every violation is
// kMalformedInput, never UB). Arrays that pass are exactly the canonical
// form, so the SymSparse adopts them as they are.
SymSparse get_matrix(PayloadReader& r) {
  const i64 n64 = r.get_i64();
  if (n64 < 0 || n64 > (i64{1} << 31) - 2) throw_payload("matrix dimension out of range");
  const idx n = static_cast<idx>(n64);
  std::vector<i64> ptr = r.get_i64s();
  std::vector<idx> row = r.get_idxs();
  std::vector<double> val = r.get_doubles();
  if (static_cast<i64>(ptr.size()) != n64 + 1) throw_payload("matrix col_ptr size mismatch");
  if (row.size() != val.size()) throw_payload("matrix row/value size mismatch");
  if (ptr.front() != 0 || ptr.back() != static_cast<i64>(row.size())) {
    throw_payload("matrix col_ptr endpoints corrupt");
  }
  for (idx j = 0; j < n; ++j) {
    const i64 b = ptr[static_cast<std::size_t>(j)];
    const i64 e = ptr[static_cast<std::size_t>(j) + 1];
    if (b > e || b < 0) throw_payload("matrix col_ptr not monotone");
    if (b == e) throw_payload("matrix column missing its diagonal");
    if (row[static_cast<std::size_t>(b)] != j) {
      throw_payload("matrix diagonal not first in column");
    }
    for (i64 k = b; k < e; ++k) {
      const idx i = row[static_cast<std::size_t>(k)];
      const double v = val[static_cast<std::size_t>(k)];
      if (i < j || i >= n) throw_payload("matrix row index out of range");
      if (!std::isfinite(v)) throw_payload("matrix value not finite");
      if (k > b && i <= row[static_cast<std::size_t>(k - 1)]) {
        throw_payload("matrix row indices not strictly increasing");
      }
      if (i == j && v <= 0.0) throw_payload("matrix diagonal not positive");
    }
  }
  return SymSparse::from_canonical(n, std::move(ptr), std::move(row), std::move(val));
}

void put_options(PayloadWriter& w, const SolverOptions& o) {
  w.put_u8(static_cast<u8>(o.ordering));
  w.put_i64(static_cast<i64>(o.block_size));
  w.put_u8(o.amalgamate ? 1 : 0);
  w.put_f64(o.amalgamation.max_zero_fraction);
  w.put_i64(static_cast<i64>(o.amalgamation.max_width));
  w.put_i64(static_cast<i64>(o.amalgamation.always_merge_width));
  w.put_i64(o.amalgamation.max_small_zeros);
  w.put_u8(static_cast<u8>(o.pivot_policy));
  w.put_f64(o.pivot_delta);
  w.put_u8(static_cast<u8>(o.precision));
}

idx get_bounded_idx(PayloadReader& r, const char* what, i64 lo, i64 hi) {
  const i64 v = r.get_i64();
  if (v < lo || v > hi) {
    throw_payload(std::string(what) + " out of range");
  }
  return static_cast<idx>(v);
}

SolverOptions get_options(PayloadReader& r) {
  SolverOptions o;
  const u8 ordering = r.get_u8();
  if (ordering > static_cast<u8>(SolverOptions::Ordering::kNatural)) {
    throw_payload("unknown ordering");
  }
  o.ordering = static_cast<SolverOptions::Ordering>(ordering);
  o.block_size = get_bounded_idx(r, "block_size", 1, 1 << 20);
  o.amalgamate = r.get_u8() != 0;
  o.amalgamation.max_zero_fraction = r.get_f64();
  if (!std::isfinite(o.amalgamation.max_zero_fraction) ||
      o.amalgamation.max_zero_fraction < 0.0 ||
      o.amalgamation.max_zero_fraction > 1.0) {
    throw_payload("amalgamation.max_zero_fraction out of range");
  }
  o.amalgamation.max_width = get_bounded_idx(r, "amalgamation.max_width", 1, 1 << 20);
  o.amalgamation.always_merge_width =
      get_bounded_idx(r, "amalgamation.always_merge_width", 0, 1 << 20);
  o.amalgamation.max_small_zeros = r.get_i64();
  if (o.amalgamation.max_small_zeros < 0) {
    throw_payload("amalgamation.max_small_zeros negative");
  }
  const u8 pivot = r.get_u8();
  if (pivot > static_cast<u8>(PivotPolicy::kPerturb)) {
    throw_payload("unknown pivot policy");
  }
  o.pivot_policy = static_cast<PivotPolicy>(pivot);
  o.pivot_delta = r.get_f64();
  if (!std::isfinite(o.pivot_delta) || o.pivot_delta < 0.0) {
    throw_payload("pivot_delta out of range");
  }
  const u8 precision = r.get_u8();
  if (precision > static_cast<u8>(SolverOptions::Precision::kFp32Refine)) {
    throw_payload("unknown precision");
  }
  o.precision = static_cast<SolverOptions::Precision>(precision);
  return o;
}

}  // namespace

std::vector<u8> encode_analyze_request(const AnalyzeRequest& r) {
  PayloadWriter w;
  put_matrix(w, r.matrix);
  put_options(w, r.options);
  return w.take();
}

AnalyzeRequest decode_analyze_request(const std::vector<u8>& payload) {
  PayloadReader r(payload);
  AnalyzeRequest out;
  out.matrix = get_matrix(r);
  out.options = get_options(r);
  r.expect_end();
  return out;
}

std::vector<u8> encode_analyze_reply(const AnalyzeReply& r) {
  PayloadWriter w;
  put_fingerprint(w, r.key);
  w.put_i64(static_cast<i64>(r.n));
  w.put_i64(r.factor_nnz);
  w.put_i64(r.factor_flops);
  return w.take();
}

AnalyzeReply decode_analyze_reply(const std::vector<u8>& payload) {
  PayloadReader r(payload);
  AnalyzeReply out;
  out.key = get_fingerprint(r);
  out.n = static_cast<idx>(r.get_i64());
  out.factor_nnz = r.get_i64();
  out.factor_flops = r.get_i64();
  r.expect_end();
  return out;
}

std::vector<u8> encode_factorize_request(const FactorizeRequest& r) {
  PayloadWriter w;
  put_fingerprint(w, r.key);
  w.put_i64(r.threads);
  return w.take();
}

FactorizeRequest decode_factorize_request(const std::vector<u8>& payload) {
  PayloadReader r(payload);
  FactorizeRequest out;
  out.key = get_fingerprint(r);
  const i64 threads = r.get_i64();
  if (threads < 0 || threads > 4096) throw_payload("threads out of range");
  out.threads = static_cast<std::int32_t>(threads);
  r.expect_end();
  return out;
}

std::vector<u8> encode_factorize_reply(const FactorizeReply& r) {
  PayloadWriter w;
  put_fingerprint(w, r.key);
  w.put_i64(r.perturbed_pivots);
  w.put_u8(r.fp32 ? 1 : 0);
  w.put_u8(r.fp32_fallback ? 1 : 0);
  return w.take();
}

FactorizeReply decode_factorize_reply(const std::vector<u8>& payload) {
  PayloadReader r(payload);
  FactorizeReply out;
  out.key = get_fingerprint(r);
  out.perturbed_pivots = r.get_i64();
  out.fp32 = r.get_u8() != 0;
  out.fp32_fallback = r.get_u8() != 0;
  r.expect_end();
  return out;
}

std::vector<u8> encode_solve_request(const SolveRequest& r) {
  PayloadWriter w;
  put_fingerprint(w, r.key);
  w.put_f64(r.deadline_s);
  w.put_doubles(r.rhs);
  return w.take();
}

SolveRequest decode_solve_request(const std::vector<u8>& payload) {
  PayloadReader r(payload);
  SolveRequest out;
  out.key = get_fingerprint(r);
  out.deadline_s = r.get_f64();
  if (std::isnan(out.deadline_s)) throw_payload("deadline not a number");
  out.rhs = r.get_doubles();
  for (double v : out.rhs) {
    if (!std::isfinite(v)) throw_payload("rhs value not finite");
  }
  r.expect_end();
  return out;
}

std::vector<u8> encode_solve_reply(const SolveReply& r) {
  PayloadWriter w;
  w.put_doubles(r.x);
  return w.take();
}

SolveReply decode_solve_reply(const std::vector<u8>& payload) {
  PayloadReader r(payload);
  SolveReply out;
  out.x = r.get_doubles();
  r.expect_end();
  return out;
}

std::vector<u8> encode_evict_request(const EvictRequest& r) {
  PayloadWriter w;
  put_fingerprint(w, r.key);
  return w.take();
}

EvictRequest decode_evict_request(const std::vector<u8>& payload) {
  PayloadReader r(payload);
  EvictRequest out;
  out.key = get_fingerprint(r);
  r.expect_end();
  return out;
}

std::vector<u8> encode_error_reply(const ErrorReply& r) {
  PayloadWriter w;
  w.put_u8(static_cast<u8>(r.kind));
  w.put_string(r.message);
  return w.take();
}

ErrorReply decode_error_reply(const std::vector<u8>& payload) {
  PayloadReader r(payload);
  ErrorReply out;
  const u8 kind = r.get_u8();
  if (kind > static_cast<u8>(ErrorKind::kProtocolError)) {
    throw_payload("unknown error kind");
  }
  out.kind = static_cast<ErrorKind>(kind);
  out.message = r.get_string();
  r.expect_end();
  return out;
}

std::vector<u8> encode_stats_reply(const StatsReply& r) {
  PayloadWriter w;
  w.put_i64(r.requests);
  w.put_i64(r.solves_completed);
  w.put_i64(r.solve_errors);
  w.put_i64(r.batches);
  w.put_i64(r.batched_cols);
  w.put_i64(r.deadline_rejects);
  w.put_i64(r.protocol_errors);
  w.put_i64(r.registry_entries);
  w.put_i64(r.registry_evictions);
  w.put_i64(r.registry_bytes);
  w.put_i64(r.registry_peak_bytes);
  return w.take();
}

StatsReply decode_stats_reply(const std::vector<u8>& payload) {
  PayloadReader r(payload);
  StatsReply out;
  out.requests = r.get_i64();
  out.solves_completed = r.get_i64();
  out.solve_errors = r.get_i64();
  out.batches = r.get_i64();
  out.batched_cols = r.get_i64();
  out.deadline_rejects = r.get_i64();
  out.protocol_errors = r.get_i64();
  out.registry_entries = r.get_i64();
  out.registry_evictions = r.get_i64();
  out.registry_bytes = r.get_i64();
  out.registry_peak_bytes = r.get_i64();
  r.expect_end();
  return out;
}

}  // namespace spc::server
