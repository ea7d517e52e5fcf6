// Checking every operation of a run against its serial-engine reference
// and counting the ones that fail.
//
// A reply is compared bit for bit: both sides are re-encoded with the
// wire encoders after the fields that legitimately differ between two
// correct replies are cleared (the server-assigned trace id, and for SCAN
// the fuse-plan description), so equal bytes mean every carried score,
// count and name is identical.  A mismatch, OVERLOAD, deadline expiry,
// error reply, degraded merge, or a reply that never came (disconnect)
// each count as one failed operation.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "bio/seq_db_io.hpp"
#include "pipeline/pipeline.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"

namespace perfbench {

enum class Outcome : int {
  kOk = 0,
  kMismatch,    // reply decoded but differs from the reference
  kOverload,    // OVERLOAD frame: shed at admission
  kDeadline,    // ERROR kDeadlineExpired
  kError,       // any other ERROR frame
  kDegraded,    // merged cluster reply with a shard missing
  kDropped,     // no reply: the stream died or answered unframeable bytes
};
inline constexpr std::size_t kOutcomes = 7;
const char* outcome_name(Outcome o);

/// The SEARCH reply the daemon would send for `result` over `db`.
finehmm::server::SearchResultWire reference_reply(
    const finehmm::pipeline::SearchResult& result,
    const finehmm::bio::MappedSeqDb& db);

std::vector<std::uint8_t> normalized_search(
    finehmm::server::SearchResultWire w);
std::vector<std::uint8_t> normalized_scan(finehmm::server::ScanResultWire w);

/// Classify one reply, as the blocking client returned it, against the
/// expected normalized bytes.
Outcome classify(const finehmm::server::RemoteResult& reply,
                 const std::vector<std::uint8_t>& expected);
Outcome classify(const finehmm::server::RemoteScanResult& reply,
                 const std::vector<std::uint8_t>& expected);

/// Operations attempted and their outcomes.
struct Tally {
  std::uint64_t attempted = 0;
  std::array<std::uint64_t, kOutcomes> counts{};

  void add(Outcome o) {
    ++attempted;
    ++counts[static_cast<int>(o)];
  }
  std::uint64_t failed() const {
    return attempted - counts[static_cast<int>(Outcome::kOk)];
  }
};

}  // namespace perfbench
