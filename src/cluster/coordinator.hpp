// The cluster front end: a daemon that speaks the finehmmd wire protocol
// to clients and scatters every SEARCH/SCAN across the shard workers via
// ClusterClient (docs/cluster.md).
//
// To a client the coordinator IS a finehmmd — same frames, same verbs,
// same error codes — except that its PONG announces role kCoordinator
// and its STATS payload is "finehmm.cluster_stats.v1" (cluster counters,
// per-shard latency quantiles, straggler tracking) instead of the
// single-daemon server stats.  Because the merge is bit-identical to an
// unsharded scan, a client cannot tell the difference from the results.
//
// The shell (server/node.hpp) runs the accept loop and one session
// thread per open connection, exactly as for SearchServer.  There is no
// admission queue and no coalescer here — a request's whole life is the
// scatter-gather inside its session thread, and the shard daemons do the
// coalescing where the DP work actually runs.  Drain closes the listener
// and shuts the sockets down; in-flight scatters finish on their own
// (their shard legs carry deadlines).
#pragma once

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster_client.hpp"
#include "obs/histogram.hpp"
#include "server/node.hpp"

namespace finehmm::cluster {

class ClusterCoordinator final : public server::Node {
 public:
  ClusterCoordinator(ClusterConfig cfg, ConnectFn connect);

  /// The scatter-gather engine (exposed for startup probes and tests).
  ClusterClient& client() { return client_; }

  // --- Observability --------------------------------------------------
  /// The STATS verb's payload: "finehmm.cluster_stats.v1" — coordinator
  /// counters, ClusterClient counters, per-shard latency quantiles and
  /// the straggler (max − min shard time) histogram.
  std::string stats_json() const override;
  std::string metrics_text() const override;
  std::string statusz_text() const override;

 private:
  void on_search(const std::shared_ptr<Session>& session,
                 std::uint32_t request_id, server::SearchRequest req) override;
  void on_scan(const std::shared_ptr<Session>& session,
               std::uint32_t request_id, server::ScanRequest req) override;
  /// Answer one scatter's outcome and record its latency.
  template <class Result, class Wire>
  void answer(Session& session, std::uint32_t request_id, Result res,
              server::MsgType ok_type,
              std::vector<std::uint8_t> (*encode)(const Wire&),
              std::chrono::steady_clock::time_point started);

  ClusterClient client_;
  /// End-to-end coordinator latency (scatter to reply written), ns.
  obs::ConcurrentHistogram e2e_hist_;
};

}  // namespace finehmm::cluster
