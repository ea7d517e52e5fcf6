#include "load.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>
#include <thread>

#include "server/client.hpp"
#include "server/tcp.hpp"
#include "util/error.hpp"

namespace perfbench {

using namespace finehmm;
using Clock = std::chrono::steady_clock;

namespace {

// SCANs sent before the timed phase: the first scan in a fresh daemon
// runs several times slower than later ones.
constexpr int kWarmup = 2;

Clock::time_point after(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

}  // namespace

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const std::size_t i = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return sorted[std::min(i, sorted.size() - 1)];
}

ScanReport run_scans(const ScanLoad& spec) {
  server::BlockingClient client(server::tcp_connect("127.0.0.1", spec.port));
  ScanReport r;

  // One SCAN: false once the connection is gone.
  auto request = [&](bool timed) {
    const Clock::time_point t0 = Clock::now();
    const server::RemoteScanResult reply = client.scan(0);
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    const Outcome o = classify(reply, spec.reference);
    r.tally.add(o);
    if (timed) {
      ++r.timed;
      if (o == Outcome::kOk) {
        r.latency_ms.push_back(ms);
        r.op_gcups.push_back(spec.cells / (ms * 1e-3) / 1e9);
        if (ms <= spec.limit_ms) ++r.within_limit;
      }
    }
    return o != Outcome::kDropped;
  };

  bool alive = true;
  for (int i = 0; alive && i < kWarmup; ++i) alive = request(false);
  const Clock::time_point end = after(spec.seconds);
  while (alive && (r.timed == 0 || Clock::now() < end)) alive = request(true);

  std::sort(r.latency_ms.begin(), r.latency_ms.end());
  std::sort(r.op_gcups.begin(), r.op_gcups.end());
  return r;
}

std::string to_json(const ScanReport& r) {
  std::ostringstream os;
  os.precision(10);
  os << "{\"attempted\": " << r.tally.attempted
     << ", \"failed\": " << r.tally.failed() << ", \"outcomes\": {";
  for (std::size_t i = 0; i < kOutcomes; ++i)
    os << (i ? ", " : "") << "\"" << outcome_name(static_cast<Outcome>(i))
       << "\": " << r.tally.counts[i];
  os << "}, \"timed\": " << r.timed << ", \"within_limit\": " << r.within_limit
     << ", \"samples\": " << r.latency_ms.size()
     << ", \"latency_p50_ms\": " << percentile(r.latency_ms, 50)
     << ", \"latency_p99_ms\": " << percentile(r.latency_ms, 99)
     << ", \"op_gcups_p50\": " << percentile(r.op_gcups, 50) << "}";
  return os.str();
}

bool wait_for_pong(std::uint16_t port, double seconds) {
  const Clock::time_point end = after(seconds);
  for (;;) {
    try {
      if (server::BlockingClient(server::tcp_connect("127.0.0.1", port)).ping())
        return true;
    } catch (const Error&) {
      // Not listening yet.
    }
    if (Clock::now() >= end) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

}  // namespace perfbench
