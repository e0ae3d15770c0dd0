#include "server/server.hpp"

#include <chrono>
#include <cmath>
#include <cstring>
#include <utility>

#include "support/error.hpp"

namespace spc::server {

// memory-order audit (tools/sync_lint_allow.txt): every relaxed site in this
// file touches one of the monotonic stats counters declared in server.hpp.
// They publish nothing — results travel through the completion callbacks and
// the mutex-guarded queues — and stats() is an advisory snapshot, so relaxed
// increments and loads suffice.
Server::Server(const ServerConfig& cfg)
    : cfg_(cfg), registry_(cfg.registry), batcher_(cfg.batch) {
  const int n = cfg_.workers > 0 ? cfg_.workers : 1;
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Server::~Server() { shutdown(); }

void Server::shutdown() {
  {
    spc::LockGuard lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
  workers_.clear();
}

bool Server::shutdown_requested() const { return shutdown_requested_.load(); }

void Server::enqueue_job(std::function<void()> job) {
  {
    spc::LockGuard lock(mu_);
    if (stopping_) {
      throw Error("server is shutting down", ErrorKind::kCancelled);
    }
    jobs_.push_back(std::move(job));
  }
  cv_.notify_one();
}

void Server::worker_loop() {
  mu_.lock();
  for (;;) {
    if (!jobs_.empty()) {
      std::function<void()> job = std::move(jobs_.front());
      jobs_.erase(jobs_.begin());
      mu_.unlock();
      job();
      mu_.lock();
      continue;
    }
    SolveBatch batch;
    double wait_s = 0.0;
    if (batcher_.pop_due(std::chrono::steady_clock::now(), stopping_, &batch,
                         &wait_s)) {
      mu_.unlock();
      run_batch(std::move(batch));
      mu_.lock();
      continue;
    }
    // Nothing runnable. With stopping_ set the drain above already flushed
    // every pending batch, so empty queues mean this worker is done.
    if (stopping_) break;
    if (std::isinf(wait_s)) {
      cv_.wait(mu_);
    } else {
      cv_.wait_for(mu_, wait_s);
    }
  }
  mu_.unlock();
}

// --- typed API -------------------------------------------------------------

AnalyzeReply Server::analyze(const SymSparse& a, const SolverOptions& opt) {
  std::shared_ptr<FactorRegistry::Entry> entry = registry_.admit(a, opt);
  AnalyzeReply r;
  r.key = entry->key;
  r.n = entry->solver.num_rows();
  r.factor_nnz = entry->solver.factor_nnz_exact();
  r.factor_flops = entry->solver.factor_flops_exact();
  return r;
}

FactorizeReply Server::factorize(const Fingerprint& key, int threads) {
  std::shared_ptr<FactorRegistry::Entry> entry = registry_.find(key);
  if (entry == nullptr) {
    throw Error("protocol: unknown fingerprint " + key.to_hex() +
                    " (analyze first)",
                ErrorKind::kProtocolError);
  }
  FactorizeReply r;
  r.key = key;
  {
    spc::LockGuard lock(entry->mu);
    if (!entry->factored) {
      registry_.ensure_headroom(
          entry, entry->solver.estimate_factor_bytes(threads), "factorize");
      entry->solver.factorize_governed(threads);
      entry->factored = true;
    }
    registry_.settle(entry, "factorize");
    r.perturbed_pivots = entry->solver.factorize_info().perturbed_pivots;
    r.fp32 = entry->solver.factorize_info().fp32;
    r.fp32_fallback = entry->solver.factorize_info().fp32_fallback;
  }
  return r;
}

void Server::solve_async(
    const Fingerprint& key, std::vector<double> rhs, double deadline_s,
    std::function<void(std::vector<double>, std::exception_ptr)> done) {
  std::shared_ptr<FactorRegistry::Entry> entry = registry_.find(key);
  if (entry == nullptr) {
    throw Error("protocol: unknown fingerprint " + key.to_hex() +
                    " (analyze first)",
                ErrorKind::kProtocolError);
  }
  if (static_cast<idx>(rhs.size()) != entry->solver.num_rows()) {
    throw Error("payload: rhs length " + std::to_string(rhs.size()) +
                    " does not match matrix dimension " +
                    std::to_string(entry->solver.num_rows()),
                ErrorKind::kMalformedInput);
  }
  PendingSolve p;
  p.rhs = std::move(rhs);
  if (deadline_s >= 0.0) p.deadline = governor::Deadline(deadline_s);
  p.done = std::move(done);
  {
    spc::LockGuard lock(mu_);
    if (stopping_) {
      throw Error("server is shutting down", ErrorKind::kCancelled);
    }
    batcher_.enqueue(std::move(entry), std::move(p));
  }
  cv_.notify_one();
}

std::vector<double> Server::solve(const Fingerprint& key,
                                  std::vector<double> rhs, double deadline_s) {
  // Blocking wrapper for EXTERNAL threads (a worker calling it would wait on
  // its own pool). Tests, the bench clients, and soak drive it.
  struct Waiter {
    spc::Mutex mu;
    spc::CondVar cv;
    bool done = false;
    std::vector<double> x;
    std::exception_ptr err;
  };
  auto w = std::make_shared<Waiter>();
  solve_async(key, std::move(rhs), deadline_s,
              [w](std::vector<double> x, std::exception_ptr err) {
                spc::LockGuard lock(w->mu);
                w->x = std::move(x);
                w->err = err;
                w->done = true;
                w->cv.notify_one();
              });
  w->mu.lock();
  while (!w->done) w->cv.wait(w->mu);
  w->mu.unlock();
  if (w->err != nullptr) std::rethrow_exception(w->err);
  return std::move(w->x);
}

bool Server::evict(const Fingerprint& key) { return registry_.evict(key); }

StatsReply Server::stats() const {
  StatsReply s;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.solves_completed = solves_completed_.load(std::memory_order_relaxed);
  s.solve_errors = solve_errors_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.batched_cols = batched_cols_.load(std::memory_order_relaxed);
  s.deadline_rejects = deadline_rejects_.load(std::memory_order_relaxed);
  s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  s.registry_entries = registry_.entries();
  s.registry_evictions = registry_.evictions();
  s.registry_bytes = registry_.in_use_bytes();
  s.registry_peak_bytes = registry_.peak_bytes();
  return s;
}

// --- batch execution -------------------------------------------------------

void Server::run_batch(SolveBatch batch) {
  std::shared_ptr<FactorRegistry::Entry> entry = std::move(batch.entry);
  const idx n = entry->solver.num_rows();

  // Deadline admission at panel assembly: a request that expired while it
  // waited fails ALONE — it never drags the rest of the panel down, and an
  // unexpired peer never pays for it.
  std::vector<PendingSolve> live;
  live.reserve(batch.requests.size());
  for (PendingSolve& r : batch.requests) {
    if (r.deadline.expired()) {
      deadline_rejects_.fetch_add(1, std::memory_order_relaxed);
      solve_errors_.fetch_add(1, std::memory_order_relaxed);
      ErrorContext ctx;
      ctx.elapsed_s = r.deadline.elapsed_s();
      ctx.limit_s = r.deadline.limit_s();
      ctx.has_deadline = true;
      ctx.phase = "solve";
      r.done({}, std::make_exception_ptr(Error(
                     "solve request expired in the batching queue",
                     ErrorKind::kDeadlineExceeded, ctx)));
      continue;
    }
    live.push_back(std::move(r));
  }
  if (live.empty()) return;

  const idx k = static_cast<idx>(live.size());
  std::vector<std::vector<double>> results;
  try {
    spc::LockGuard lock(entry->mu);
    if (!entry->factored) {
      // Lazy numeric factorization on first solve, admitted through the
      // registry budget before any numeric work (estimate_factor_bytes).
      registry_.ensure_headroom(
          entry, entry->solver.estimate_factor_bytes(cfg_.factor_threads),
          "factorize");
      entry->solver.factorize_governed(cfg_.factor_threads);
      entry->factored = true;
      registry_.settle(entry, "factorize");
    }
    DenseMatrix b(n, k);
    for (idx c = 0; c < k; ++c) {
      std::memcpy(b.col(c), live[static_cast<std::size_t>(c)].rhs.data(),
                  static_cast<std::size_t>(n) * sizeof(double));
    }
    SolveOptions so;
    so.threads = cfg_.solve_threads;
    so.nrhs_block = cfg_.batch.nrhs_block;
    // The panel runs deadline-free: deadlines were enforced at admission and
    // at assembly just above, so overshoot is bounded by one panel sweep
    // (docs/SERVING.md). A mid-panel abort would throw away every peer's
    // work to enforce one request's limit.
    entry->solver.solve_multi(b, so);
    registry_.settle(entry, "solve");
    results.reserve(static_cast<std::size_t>(k));
    for (idx c = 0; c < k; ++c) {
      results.emplace_back(b.col(c), b.col(c) + n);
    }
  } catch (...) {
    // Numeric/registry failure (not-SPD, budget, internal): the whole panel
    // shares the outcome, delivered per request.
    std::exception_ptr err = std::current_exception();
    solve_errors_.fetch_add(static_cast<i64>(live.size()), std::memory_order_relaxed);
    for (PendingSolve& r : live) r.done({}, err);
    return;
  }
  batches_.fetch_add(1, std::memory_order_relaxed);
  batched_cols_.fetch_add(static_cast<i64>(k), std::memory_order_relaxed);
  solves_completed_.fetch_add(static_cast<i64>(k), std::memory_order_relaxed);
  for (idx c = 0; c < k; ++c) {
    live[static_cast<std::size_t>(c)].done(
        std::move(results[static_cast<std::size_t>(c)]), nullptr);
  }
}

// --- wire surface ----------------------------------------------------------

void Server::note_protocol_error() {
  // memory-order audit: monotonic stats counter, nothing published through
  // it (see the file-top comment).
  protocol_errors_.fetch_add(1, std::memory_order_relaxed);
}

Frame Server::error_frame(u64 request_id, const Error& e) {
  if (e.kind() == ErrorKind::kProtocolError) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
  }
  Frame f;
  f.type = MsgType::kError;
  f.request_id = request_id;
  ErrorReply r;
  r.kind = e.kind();
  r.message = e.what();
  f.payload = encode_error_reply(r);
  return f;
}

void Server::handle_frame(const Frame& frame, std::function<void(Frame)> reply) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  const u64 id = frame.request_id;
  try {
    switch (frame.type) {
      case MsgType::kPing: {
        Frame f;
        f.type = MsgType::kPong;
        f.request_id = id;
        reply(std::move(f));
        return;
      }
      case MsgType::kStats: {
        Frame f;
        f.type = MsgType::kStatsOk;
        f.request_id = id;
        f.payload = encode_stats_reply(stats());
        reply(std::move(f));
        return;
      }
      case MsgType::kEvict: {
        const EvictRequest rq = decode_evict_request(frame.payload);
        if (!evict(rq.key)) {
          throw Error("protocol: unknown fingerprint " + rq.key.to_hex(),
                      ErrorKind::kProtocolError);
        }
        Frame f;
        f.type = MsgType::kEvictOk;
        f.request_id = id;
        reply(std::move(f));
        return;
      }
      case MsgType::kShutdown: {
        shutdown_requested_.store(true);
        Frame f;
        f.type = MsgType::kShutdownOk;
        f.request_id = id;
        reply(std::move(f));
        return;
      }
      case MsgType::kAnalyze: {
        // Decode on the transport thread (errors report synchronously), run
        // the expensive analysis on the worker pool.
        auto rq = std::make_shared<AnalyzeRequest>(
            decode_analyze_request(frame.payload));
        enqueue_job([this, rq, id, reply]() {
          try {
            Frame f;
            f.type = MsgType::kAnalyzeOk;
            f.request_id = id;
            f.payload = encode_analyze_reply(analyze(rq->matrix, rq->options));
            reply(std::move(f));
          } catch (const Error& e) {
            reply(error_frame(id, e));
          } catch (const std::exception& e) {
            reply(error_frame(id, Error(e.what())));
          }
        });
        return;
      }
      case MsgType::kFactorize: {
        const FactorizeRequest rq = decode_factorize_request(frame.payload);
        enqueue_job([this, rq, id, reply]() {
          try {
            Frame f;
            f.type = MsgType::kFactorizeOk;
            f.request_id = id;
            f.payload =
                encode_factorize_reply(factorize(rq.key, rq.threads));
            reply(std::move(f));
          } catch (const Error& e) {
            reply(error_frame(id, e));
          } catch (const std::exception& e) {
            reply(error_frame(id, Error(e.what())));
          }
        });
        return;
      }
      case MsgType::kSolve: {
        SolveRequest rq = decode_solve_request(frame.payload);
        solve_async(rq.key, std::move(rq.rhs), rq.deadline_s,
                    [this, id, reply](std::vector<double> x,
                                      std::exception_ptr err) {
                      if (err != nullptr) {
                        try {
                          std::rethrow_exception(err);
                        } catch (const Error& e) {
                          reply(error_frame(id, e));
                        } catch (const std::exception& e) {
                          reply(error_frame(id, Error(e.what())));
                        }
                        return;
                      }
                      Frame f;
                      f.type = MsgType::kSolveOk;
                      f.request_id = id;
                      f.payload = encode_solve_reply({std::move(x)});
                      reply(std::move(f));
                    });
        return;
      }
      default:
        throw Error("protocol: frame type " +
                        std::to_string(static_cast<u16>(frame.type)) +
                        " is not a request",
                    ErrorKind::kProtocolError);
    }
  } catch (const Error& e) {
    reply(error_frame(id, e));
  } catch (const std::exception& e) {
    reply(error_frame(id, Error(e.what())));
  }
}

}  // namespace spc::server
