#include "spans.hpp"

#include <algorithm>
#include <functional>
#include <thread>
#include <unordered_map>

namespace perfbench {

namespace {
// The innermost open span on this thread: the parent of the next one.
thread_local std::uint64_t t_current = 0;
}  // namespace

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

Tracer::Scope::Scope(Tracer& t, const char* name, std::uint64_t request,
                     double count)
    : t_(t) {
  if (!t_.enabled_) return;
  rec_.name = name;
  rec_.request = request;
  rec_.count = count;
  rec_.parent = t_current;
  rec_.tid = std::hash<std::thread::id>{}(std::this_thread::get_id());
  {
    finehmm::MutexLock lock(t_.mu_);
    rec_.id = ++t_.next_id_;
  }
  saved_parent_ = t_current;
  t_current = rec_.id;
  rec_.start_ns = t_.now_ns();
}

Tracer::Scope::~Scope() {
  if (rec_.id == 0) return;
  rec_.end_ns = t_.now_ns();
  t_current = saved_parent_;
  finehmm::MutexLock lock(t_.mu_);
  t_.spans_.push_back(std::move(rec_));
}

std::vector<SpanRecord> Tracer::spans() const {
  finehmm::MutexLock lock(mu_);
  return spans_;
}

std::map<std::string, double> Tracer::self_seconds() const {
  const std::vector<SpanRecord> all = spans();
  std::unordered_map<std::uint64_t, std::int64_t> child_ns;
  for (const SpanRecord& s : all)
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  std::map<std::string, double> out;
  for (const SpanRecord& s : all) {
    const auto it = child_ns.find(s.id);
    const std::int64_t covered = it == child_ns.end() ? 0 : it->second;
    out[s.name] +=
        static_cast<double>(std::max<std::int64_t>(
            0, s.end_ns - s.start_ns - covered)) * 1e-9;
  }
  return out;
}

void Tracer::write_chrome_trace(std::ostream& os) const {
  std::vector<SpanRecord> all = spans();
  std::sort(all.begin(), all.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_ns < b.start_ns;
            });
  std::unordered_map<std::uint64_t, int> tids;
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    const int tid = tids.emplace(s.tid, static_cast<int>(tids.size()) + 1)
                        .first->second;
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "\"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f, "
                  "\"dur\": %.3f",
                  tid, static_cast<double>(s.start_ns) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    os << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name << "\", " << buf
       << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
       << ", \"request\": " << s.request << ", \"count\": " << s.count
       << "}}";
  }
  os << "\n]}\n";
}

}  // namespace perfbench
