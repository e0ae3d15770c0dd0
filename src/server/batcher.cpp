#include "server/batcher.hpp"

#include <algorithm>
#include <iterator>
#include <limits>
#include <utility>

namespace spc::server {

void SolveBatcher::enqueue(std::shared_ptr<FactorRegistry::Entry> entry,
                           PendingSolve req) {
  req.enqueued = std::chrono::steady_clock::now();
  Queue& q = queues_[entry->key];
  if (q.entry == nullptr) q.entry = std::move(entry);
  q.requests.push_back(std::move(req));
  ++pending_;
}

bool SolveBatcher::pop_due(std::chrono::steady_clock::time_point now,
                          bool drain, SolveBatch* out, double* wait_s) {
  const std::size_t panel = static_cast<std::size_t>(cfg_.nrhs_block);
  Queue* due = nullptr;
  double earliest = std::numeric_limits<double>::infinity();
  for (auto& [key, q] : queues_) {
    if (q.requests.empty()) continue;
    // Requests append in arrival order, so front() is the oldest.
    const auto front = q.requests.front().enqueued;
    const double age = std::chrono::duration<double>(now - front).count();
    if (q.requests.size() < panel && !drain && age < cfg_.window_s) {
      earliest = std::min(earliest, cfg_.window_s - age);
      continue;
    }
    // Of the due queues, the one holding the oldest request goes first: the
    // map's key order is a hash order, and taking the first due key let a
    // busy factor that refills its panel starve the others.
    if (due == nullptr || front < due->requests.front().enqueued) due = &q;
  }
  if (due == nullptr) {
    if (wait_s != nullptr) *wait_s = earliest;
    return false;
  }
  out->entry = due->entry;
  out->requests.clear();
  const std::size_t take = std::min(due->requests.size(), panel);
  out->requests.assign(std::make_move_iterator(due->requests.begin()),
                       std::make_move_iterator(due->requests.begin() +
                                               static_cast<std::ptrdiff_t>(take)));
  due->requests.erase(due->requests.begin(),
                      due->requests.begin() + static_cast<std::ptrdiff_t>(take));
  pending_ -= take;
  if (due->requests.empty()) queues_.erase(out->entry->key);
  if (wait_s != nullptr) *wait_s = 0.0;
  return true;
}

}  // namespace spc::server
