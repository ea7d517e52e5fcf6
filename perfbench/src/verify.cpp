#include "verify.hpp"

namespace perfbench {

using namespace finehmm;

namespace {

template <typename Reply, typename Normalize>
Outcome classify_reply(const Reply& r,
                       const std::vector<std::uint8_t>& expected,
                       Normalize normalize) {
  switch (r.status) {
    case server::ClientStatus::kOk:
      if (r.result.flags & server::kResultDegraded) return Outcome::kDegraded;
      return normalize(r.result) == expected ? Outcome::kOk
                                             : Outcome::kMismatch;
    case server::ClientStatus::kOverloaded:
      return Outcome::kOverload;
    case server::ClientStatus::kError:
      return r.error.code == server::ErrorCode::kDeadlineExpired
                 ? Outcome::kDeadline
                 : Outcome::kError;
    case server::ClientStatus::kDisconnected:
      break;
  }
  return Outcome::kDropped;
}

}  // namespace

const char* outcome_name(Outcome o) {
  static const char* const kNames[kOutcomes] = {
      "ok", "mismatch", "overload", "deadline", "error", "degraded",
      "dropped"};
  return kNames[static_cast<int>(o)];
}

server::SearchResultWire reference_reply(const pipeline::SearchResult& r,
                                         const bio::MappedSeqDb& db) {
  server::SearchResultWire w;
  w.db_sequences = db.size();
  w.db_residues = db.total_residues();
  w.ssv = r.ssv;
  w.msv = r.msv;
  w.vit = r.vit;
  w.fwd = r.fwd;
  w.bwd = r.bwd;
  w.hits = r.hits;
  return w;
}

std::vector<std::uint8_t> normalized_search(server::SearchResultWire w) {
  w.trace_id = 0;
  return server::encode_search_result(w);
}

std::vector<std::uint8_t> normalized_scan(server::ScanResultWire w) {
  w.trace_id = 0;
  w.fuse_groups = 0;
  w.fused_models = 0;
  w.lane_occupancy = 0.0;
  return server::encode_scan_result(w);
}

Outcome classify(const server::RemoteResult& reply,
                 const std::vector<std::uint8_t>& expected) {
  return classify_reply(reply, expected, normalized_search);
}

Outcome classify(const server::RemoteScanResult& reply,
                 const std::vector<std::uint8_t>& expected) {
  return classify_reply(reply, expected, normalized_scan);
}

}  // namespace perfbench
