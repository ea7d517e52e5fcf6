// The SCAN client of hmmscan_pfam: one connection, one request in flight,
// SCAN requests back to back.  A few warm-up requests come first and are
// never timed.  Every reply is verified (verify.hpp); failures count per
// outcome.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "verify.hpp"

namespace perfbench {

struct ScanLoad {
  std::uint16_t port = 0;               // finehmmd on 127.0.0.1
  std::vector<std::uint8_t> reference;  // normalized SCAN reply
  double cells = 0.0;                   // nominal cells of one SCAN
  double seconds = 10.0;   // timed phase
  double limit_ms = 0.0;   // goodput latency limit
};

struct ScanReport {
  Tally tally;                      // every SCAN, warm-up included
  std::uint64_t timed = 0;          // requests sent in the timed phase
  std::uint64_t within_limit = 0;   // ok and latency <= limit
  std::vector<double> latency_ms;   // timed ok replies, sorted
  std::vector<double> op_gcups;     // per timed ok reply, sorted
};

ScanReport run_scans(const ScanLoad& spec);
std::string to_json(const ScanReport& r);

/// Nearest-rank percentile of sorted values (0 when empty).
double percentile(const std::vector<double>& sorted, double p);

/// PING 127.0.0.1:port until it answers PONG; false after `seconds`.
bool wait_for_pong(std::uint16_t port, double seconds);

}  // namespace perfbench
