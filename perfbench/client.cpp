#include "client.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <optional>
#include <stdexcept>

#include "factor/residual.hpp"

namespace perfbench {

namespace {

// Answers must match the verified in-process solution to this relative
// inf-norm distance. The reference is ordered with AMD and the daemon with
// MMD or ND, so the two solutions differ by rounding amplified by the
// conditioning of the base, not only by summation order; the bound was
// checked on the benchmark's bases, and each run prints the largest distance
// it saw.
constexpr double kMatchTol = 1e-8;
// Bound on solve_residual for a daemon answer.
constexpr double kResidualTol = 1e-9;

double rel_diff(const std::vector<double>& x, const std::vector<double>& ref) {
  if (x.size() != ref.size()) return INFINITY;
  double num = 0, den = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    num = std::max(num, std::fabs(x[i] - ref[i]));
    den = std::max(den, std::fabs(ref[i]));
  }
  return den > 0 ? num / den : num;
}

[[noreturn]] void fail_errno(const char* what) {
  throw std::runtime_error(std::string("client: ") + what + ": " +
                           std::strerror(errno));
}

}  // namespace

DaemonClient::DaemonClient(const std::string& path, int conns) {
  if (conns < 2) throw std::runtime_error("client: need at least 2 connections");
  for (int c = 0; c < conns; ++c) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) fail_errno("socket");
    fds_.push_back(fd);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      fail_errno("connect");
    }
    decoders_.emplace_back();
  }
}

DaemonClient::~DaemonClient() {
  for (int fd : fds_) ::close(fd);
}

void DaemonClient::send(int conn, const srv::Frame& f) {
  const std::vector<srv::u8> bytes = srv::encode_frame(f);
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t k = ::send(fds_[static_cast<std::size_t>(conn)], bytes.data() + off,
                             bytes.size() - off, MSG_NOSIGNAL);
    if (k < 0) {
      if (errno == EINTR) continue;
      fail_errno("send");
    }
    off += static_cast<std::size_t>(k);
  }
}

srv::Frame DaemonClient::call(const srv::Frame& req, int conn) {
  srv::Frame f = req;
  f.request_id = next_id_++;
  send(conn, f);
  srv::FrameDecoder& dec = decoders_[static_cast<std::size_t>(conn)];
  srv::Frame out;
  while (!dec.next(&out)) {
    const ssize_t k = ::recv(fds_[static_cast<std::size_t>(conn)], rbuf_.data(), rbuf_.size(), 0);
    if (k < 0 && errno == EINTR) continue;
    if (k <= 0) fail_errno("recv");
    dec.feed(rbuf_.data(), static_cast<std::size_t>(k));
  }
  if (out.request_id != f.request_id) {
    throw std::runtime_error("client: reply id mismatch");
  }
  return out;
}

void DaemonClient::configure(std::vector<Target>* targets,
                             std::function<spc::SymSparse(int, std::int64_t)> make_write,
                             std::int64_t write_every, int residual_every) {
  targets_ = targets;
  make_write_ = std::move(make_write);
  write_every_ = write_every;
  residual_every_ = residual_every;
  schedule_.clear();
  for (std::size_t t = 0; t < targets->size(); ++t) {
    for (int w = 0; w < (*targets)[t].weight; ++w) schedule_.push_back(static_cast<int>(t));
  }
  rhs_pos_.assign(targets->size(), 0);
}

void DaemonClient::send_solve(int conn, bool measured) {
  const int t = schedule_[sched_pos_++ % schedule_.size()];
  Target& tg = (*targets_)[static_cast<std::size_t>(t)];
  const std::size_t r = rhs_pos_[static_cast<std::size_t>(t)]++ % tg.rhs.size();
  srv::Frame f;
  f.type = srv::MsgType::kSolve;
  f.request_id = next_id_++;
  f.payload = tg.solve_payloads[r];
  Pending p;
  p.kind = Kind::kSolve;
  p.conn = conn;
  p.target = t;
  p.rhs = r;
  p.measured = measured;
  p.sent = Clock::now();
  pending_[f.request_id] = p;
  send(conn, f);
}

void DaemonClient::start_write(Tracer* tr) {
  const int conn = static_cast<int>(fds_.size()) - 1;
  write_target_ = static_cast<int>(writes_started_ % static_cast<std::int64_t>(targets_->size()));
  const Target& tg = (*targets_)[static_cast<std::size_t>(write_target_)];
  srv::AnalyzeRequest req;
  req.matrix = make_write_(write_target_, writes_started_);
  req.options = tg.opt;
  srv::Frame f;
  f.type = srv::MsgType::kAnalyze;
  f.request_id = next_id_++;
  f.payload = srv::encode_analyze_request(req);
  Pending p;
  p.kind = Kind::kAnalyze;
  p.conn = conn;
  p.target = write_target_;
  p.measured = true;
  p.sent = Clock::now();
  pending_[f.request_id] = p;
  write_busy_ = true;
  write_sent_ = p.sent;
  write_span_ = tr != nullptr ? tr->open() : 0;
  solves_at_write_ = solves_done_;
  ++writes_started_;
  send(conn, f);
}

void DaemonClient::handle(const srv::Frame& f, TrafficStats* out, Tracer* tr,
                          std::vector<int>* freed_conns) {
  auto it = pending_.find(f.request_id);
  if (it == pending_.end()) throw std::runtime_error("client: unexpected reply id");
  const Pending p = it->second;
  pending_.erase(it);
  const Clock::time_point now = Clock::now();
  const Target& tg = (*targets_)[static_cast<std::size_t>(p.target)];
  bool ok = false;
  switch (p.kind) {
    case Kind::kSolve: {
      ++solves_done_;
      if (tr != nullptr) {
        tr->record("daemon.solve", "serve", p.sent, now, 0,
                   static_cast<std::int64_t>(f.request_id), true);
      }
      if (p.measured) out->lat_ms.push_back(seconds_between(p.sent, now) * 1e3);
      freed_conns->push_back(p.conn);
      if (f.type == srv::MsgType::kSolveOk) {
        // Checked and counted by check_answers() once the connection has
        // its next request, so the check overlaps the daemon's work.
        unchecked_.push_back({p.target, p.rhs, srv::decode_solve_reply(f.payload).x});
        return;
      }
      break;
    }
    case Kind::kAnalyze: {
      if (tr != nullptr) {
        tr->record("daemon.analyze", "serve", p.sent, now, write_span_,
                   static_cast<std::int64_t>(f.request_id), true);
      }
      if (f.type == srv::MsgType::kAnalyzeOk) {
        const srv::AnalyzeReply r = srv::decode_analyze_reply(f.payload);
        ok = r.n == tg.reg.n && r.factor_nnz == tg.reg.factor_nnz &&
             r.factor_flops == tg.reg.factor_flops && r.key != tg.reg.key;
        if (ok) {
          srv::FactorizeRequest fr;
          fr.key = r.key;
          fr.threads = 1;
          srv::Frame ff;
          ff.type = srv::MsgType::kFactorize;
          ff.request_id = next_id_++;
          ff.payload = srv::encode_factorize_request(fr);
          Pending q = p;
          q.kind = Kind::kFactorize;
          q.sent = Clock::now();
          pending_[ff.request_id] = q;
          send(p.conn, ff);
          return;  // the write is counted once, at its factorize reply
        }
      }
      if (tr != nullptr) {
        tr->close(write_span_, "daemon.write", "serve", write_sent_, now, 0,
                  static_cast<std::int64_t>(f.request_id), true);
      }
      write_busy_ = false;
      break;
    }
    case Kind::kFactorize: {
      if (tr != nullptr) {
        tr->record("daemon.factorize", "serve", p.sent, now, write_span_,
                   static_cast<std::int64_t>(f.request_id), true);
        tr->close(write_span_, "daemon.write", "serve", write_sent_, now, 0,
                  static_cast<std::int64_t>(f.request_id), true);
      }
      if (f.type == srv::MsgType::kFactorizeOk) {
        const srv::FactorizeReply r = srv::decode_factorize_reply(f.payload);
        ok = r.perturbed_pivots == 0 && !r.fp32_fallback;
      }
      out->admin_ms[p.target].push_back(seconds_between(write_sent_, now) * 1e3);
      write_busy_ = false;
      break;
    }
  }
  ++out->attempted;
  if (!ok) ++out->failed;
}

void DaemonClient::check_answers(TrafficStats* out) {
  for (Answer& ans : unchecked_) {
    ++out->attempted;
    const Target& tg = (*targets_)[static_cast<std::size_t>(ans.target)];
    const double d = rel_diff(ans.x, tg.xref[ans.rhs]);
    out->max_rel_diff = std::max(out->max_rel_diff, d);
    bool ok = d <= kMatchTol;
    if (ok && ++checked_ % residual_every_ == 0) {
      ok = spc::solve_residual(*tg.a, ans.x, tg.rhs[ans.rhs]) <= kResidualTol;
    }
    if (!ok) ++out->failed;
  }
  unchecked_.clear();
}

void DaemonClient::pump(int timeout_ms, TrafficStats* out, Tracer* tr,
                        std::vector<int>* freed_conns) {
  std::vector<pollfd> pfds(fds_.size());
  for (std::size_t c = 0; c < fds_.size(); ++c) pfds[c] = pollfd{fds_[c], POLLIN, 0};
  const int n = ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), timeout_ms);
  if (n < 0) {
    if (errno == EINTR) return;
    fail_errno("poll");
  }
  for (std::size_t c = 0; c < fds_.size(); ++c) {
    if ((pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    const ssize_t k = ::recv(fds_[c], rbuf_.data(), rbuf_.size(), 0);
    if (k < 0 && errno == EINTR) continue;
    if (k <= 0) fail_errno("recv (daemon closed the connection)");
    decoders_[c].feed(rbuf_.data(), static_cast<std::size_t>(k));
    srv::Frame f;
    while (decoders_[c].next(&f)) handle(f, out, tr, freed_conns);
  }
}

void DaemonClient::run(int depth, double seconds, double warm_s, bool writes,
                       TrafficStats* out, Tracer* tr) {
  const int solve_conns = static_cast<int>(fds_.size()) - 1;
  const Clock::time_point start = Clock::now();
  const auto at = [&](double s) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(s));
  };
  const Clock::time_point window_start = at(warm_s);
  const Clock::time_point stop = at(seconds);
  const std::size_t measured_before = out->lat_ms.size();
  std::optional<Clock::time_point> load_end;  // when the loading stopped
  std::vector<int> freed;
  for (int d = 0; d < depth; ++d) send_solve(d % solve_conns, warm_s <= 0);
  while (true) {
    const Clock::time_point now = Clock::now();
    // Writes start only inside the measured window, so every write is
    // measured.
    if (writes && now >= window_start && now < stop && !write_busy_ &&
        solves_done_ - solves_at_write_ >= write_every_) {
      start_write(tr);
    }
    freed.clear();
    pump(5, out, tr, &freed);
    const Clock::time_point t = Clock::now();
    // Closed loop: every answered solve is replaced on its connection while
    // the slice runs, and past its end while a write is still in flight.
    // That extension carries the same load as the window, so it is measured
    // too. The answers are checked after the replacements went out,
    // overlapping the daemon.
    const bool keep_loading = t < stop || write_busy_;
    for (int c : freed) {
      if (keep_loading) send_solve(c, t >= window_start);
    }
    check_answers(out);
    if (!keep_loading) {
      if (!load_end) load_end = t;
      bool solves_left = false;
      for (const auto& kv : pending_) solves_left |= kv.second.kind == Kind::kSolve;
      if (!solves_left) break;
    }
  }
  out->window_s += seconds_between(window_start, *load_end);
  out->window_solves += static_cast<std::int64_t>(out->lat_ms.size() - measured_before);
}

}  // namespace perfbench
