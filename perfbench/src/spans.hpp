// In-memory span recording for the traced run.
//
// The benchmark's own code opens a span around each call into a layer:
// name, start, end, the enclosing span on the same thread, a request id
// shared by every span of one operation, and the work count (cells,
// bytes, requests) crossing that boundary.  Spans stay in memory and are
// written out once, as a Chrome/Perfetto trace, when the run ends.  A
// disabled tracer records nothing, which is how the traced run measures
// its own overhead.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "util/mutex.hpp"

namespace perfbench {

struct SpanRecord {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   // 0: a root span
  std::uint64_t request = 0;  // operation the span belongs to
  std::uint64_t tid = 0;
  std::int64_t start_ns = 0;  // since the tracer was made
  std::int64_t end_ns = 0;
  double count = 0.0;
};

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  class Scope {
   public:
    Scope(Tracer& t, const char* name, std::uint64_t request, double count);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    SpanRecord rec_;
    std::uint64_t saved_parent_ = 0;
  };

  /// Open a span that closes when the returned scope ends.
  Scope span(const char* name, std::uint64_t request = 0,
             double count = 0.0) {
    return Scope(*this, name, request, count);
  }

  void set_enabled(bool on) { enabled_ = on; }
  std::uint64_t new_request() { return ++next_request_; }

  std::vector<SpanRecord> spans() const FINEHMM_EXCLUDES(mu_);
  /// Sum per span name of the span's duration minus the part of it its
  /// child spans cover, in seconds.
  std::map<std::string, double> self_seconds() const FINEHMM_EXCLUDES(mu_);
  void write_chrome_trace(std::ostream& os) const FINEHMM_EXCLUDES(mu_);

 private:
  std::int64_t now_ns() const;

  bool enabled_ = true;
  const std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::uint64_t next_request_ = 0;
  mutable finehmm::Mutex mu_;
  std::uint64_t next_id_ FINEHMM_GUARDED_BY(mu_) = 0;
  std::vector<SpanRecord> spans_ FINEHMM_GUARDED_BY(mu_);
};

}  // namespace perfbench
