// Span recorder for the traced benchmark run.
//
// Spans are recorded by the benchmark around its calls into the library's
// layers (nothing inside the library is instrumented). They live in memory
// and are written once, at the end of the run, as Chrome trace-event JSON
// (load the file in chrome://tracing or Perfetto). Spans that nest are
// written as "X" complete events; spans that overlap on the same thread,
// such as concurrent daemon requests, as async "b"/"e" pairs keyed by the
// span id. Every span carries its own id, the id of the span that caused it,
// and the id of the request it belongs to, so one request's spans can be
// grouped. Only the benchmark's main thread records spans.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

class Tracer {
 public:
  struct Event {
    std::string name;
    std::string cat;
    double start_us = 0;
    double dur_us = 0;
    std::int64_t id = 0;
    std::int64_t parent = 0;  // 0 = root span
    std::int64_t req = 0;     // request the span belongs to (0 = none)
    bool async = false;       // may overlap other spans on the thread
  };

  Tracer() : origin_(Clock::now()) {}

  // Records a finished span and returns its id.
  std::int64_t record(const std::string& name, const std::string& cat,
                      Clock::time_point start, Clock::time_point end,
                      std::int64_t parent, std::int64_t req, bool async = false) {
    Event e;
    e.async = async;
    e.name = name;
    e.cat = cat;
    e.start_us = seconds_between(origin_, start) * 1e6;
    e.dur_us = seconds_between(start, end) * 1e6;
    e.id = static_cast<std::int64_t>(events_.size()) + 1;
    e.parent = parent;
    e.req = req;
    events_.push_back(e);
    return e.id;
  }

  // Reserves an id for a span whose children finish before it does (the
  // parent is recorded afterwards under the reserved id via close()).
  std::int64_t open() {
    events_.emplace_back();
    return static_cast<std::int64_t>(events_.size());
  }
  void close(std::int64_t id, const std::string& name, const std::string& cat,
             Clock::time_point start, Clock::time_point end,
             std::int64_t parent, std::int64_t req, bool async = false) {
    Event& e = events_[static_cast<std::size_t>(id - 1)];
    e.async = async;
    e.name = name;
    e.cat = cat;
    e.start_us = seconds_between(origin_, start) * 1e6;
    e.dur_us = seconds_between(start, end) * 1e6;
    e.id = id;
    e.parent = parent;
    e.req = req;
  }

  std::size_t size() const { return events_.size(); }

  // The spans as Chrome trace-event JSON: {"traceEvents": [...]}.
  std::string chrome_json() const {
    std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    char buf[1024];
    for (std::size_t i = 0; i < events_.size(); ++i) {
      const Event& e = events_[i];
      const char* sep = i + 1 < events_.size() ? "," : "";
      const long long id = e.id, parent = e.parent, req = e.req;
      if (!e.async) {
        std::snprintf(buf, sizeof(buf),
                      "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                      "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                      "\"args\": {\"id\": %lld, \"parent\": %lld, \"req\": %lld}}%s\n",
                      e.name.c_str(), e.cat.c_str(), e.start_us, e.dur_us, id, parent,
                      req, sep);
      } else {
        std::snprintf(buf, sizeof(buf),
                      "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"b\", "
                      "\"id\": %lld, \"ts\": %.3f, \"pid\": 1, \"tid\": 1, "
                      "\"args\": {\"id\": %lld, \"parent\": %lld, \"req\": %lld}},\n"
                      "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"e\", "
                      "\"id\": %lld, \"ts\": %.3f, \"pid\": 1, \"tid\": 1}%s\n",
                      e.name.c_str(), e.cat.c_str(), id, e.start_us, id, parent, req,
                      e.name.c_str(), e.cat.c_str(), id, e.start_us + e.dur_us, sep);
      }
      out += buf;
    }
    out += "]}\n";
    return out;
  }

 private:
  Clock::time_point origin_;
  std::vector<Event> events_;
};

}  // namespace perfbench
