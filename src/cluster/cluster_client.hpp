// Scatter-gather client over N shard finehmmd workers (docs/cluster.md).
//
// ClusterClient owns the cluster-side failure semantics; the protocol it
// speaks per shard is exactly BlockingClient's.  Per request it:
//
//   * connects to every shard concurrently (one scatter thread each; a
//     fresh connection per request keeps shard daemons free to coalesce
//     concurrent coordinator requests exactly like direct clients);
//   * health-checks each connection with the PING handshake first — wire
//     revision and node role are verified before any payload frame, with
//     retry + exponential backoff on connect failure;
//   * forwards the request with z_override = cluster-total sequences and
//     the REMAINING deadline (end-to-end budget: time already burned on
//     connect/retry is subtracted from every shard's allowance);
//   * enforces the deadline coordinator-side too: at the deadline,
//     laggard connections are shut down, unblocking their scatter
//     threads — a hung or frozen shard cannot hold the request past it;
//   * aggregates: any shard OVERLOAD ⇒ the whole request sheds (the
//     merge needs every range, and retrying a shed is cheaper than
//     serving a wrong subset silently); any shard past the deadline ⇒
//     kDeadlineExpired, matching single-daemon semantics; shard death ⇒
//     a degraded merge of the surviving ranges, flagged as such.
//
// Observability: per-shard roundtrip histograms, a straggler histogram
// (max − min shard time per fully-answered request), and monotonic
// counters — all surfaced as "finehmm.cluster_stats.v1" by the
// coordinator.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cluster/shard_map.hpp"
#include "obs/histogram.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/transport.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace finehmm::cluster {

/// Opens a connection to shard i (TCP in production, loopback in tests).
/// Must be callable concurrently; returns nullptr/throws on failure.
using ConnectFn =
    std::function<std::unique_ptr<server::Connection>(std::size_t shard)>;

struct ClusterConfig {
  ShardManifest manifest;
  /// The database id every shard daemon serves its shard file under.
  std::uint32_t db_id = 0;
  /// Connect attempts per shard per request beyond the first.
  std::uint32_t connect_retries = 2;
  /// Backoff before re-attempt k is retry_backoff_ms << k.
  std::uint32_t retry_backoff_ms = 5;
  /// Serve a flagged partial merge when >= 1 shard is unreachable; when
  /// false, shard death fails the request instead.
  bool allow_degraded = true;
  /// Insist peers answer the handshake with role kShard (production
  /// coordinators; tests drive plain SearchServers as standalone).
  bool require_shard_role = false;
};

enum class ShardState : std::uint8_t {
  kOk = 0,
  kOverloaded,  // shard shed at admission
  kError,       // shard answered a structured error
  kDead,        // unreachable / stream died mid-request
  kDeadline,    // no answer by the request deadline
};

struct ShardOutcome {
  ShardState state = ShardState::kDead;
  double roundtrip_seconds = 0.0;
  server::ErrorInfo error;        // kError only
  server::OverloadInfo overload;  // kOverloaded only
};

struct ShardCounters {
  std::uint64_t requests = 0;
  std::uint64_t ok = 0;
  std::uint64_t overloaded = 0;
  std::uint64_t errors = 0;
  std::uint64_t deaths = 0;
  std::uint64_t deadline = 0;
  bool healthy = false;  // did the last contact succeed?
};

struct ClusterStats {
  std::uint64_t requests = 0;
  std::uint64_t merged_ok = 0;
  std::uint64_t coordinator_sheds = 0;   // a shard OVERLOAD propagated
  std::uint64_t degraded_results = 0;    // merges served with shards missing
  std::uint64_t deadline_expired = 0;
  std::uint64_t failures = 0;            // failed for non-deadline reasons
  std::vector<ShardCounters> shards;
};

struct ClusterSearchResult {
  server::ClientStatus status = server::ClientStatus::kDisconnected;
  server::SearchResultWire result;  // kOk only (flags may say degraded)
  server::ErrorInfo error;          // kError only
  server::OverloadInfo overload;    // kOverloaded only
  bool degraded = false;
  std::vector<ShardOutcome> shards;  // one per manifest shard
};

struct ClusterScanResult {
  server::ClientStatus status = server::ClientStatus::kDisconnected;
  server::ScanResultWire result;
  server::ErrorInfo error;
  server::OverloadInfo overload;
  bool degraded = false;
  std::vector<ShardOutcome> shards;
};

class ClusterClient {
 public:
  ClusterClient(ClusterConfig cfg, ConnectFn connect);

  ClusterClient(const ClusterClient&) = delete;
  ClusterClient& operator=(const ClusterClient&) = delete;

  std::size_t shard_count() const { return cfg_.manifest.shards.size(); }
  const ShardManifest& manifest() const { return cfg_.manifest; }

  /// Health-check every shard once (connect + PING handshake) and update
  /// the per-shard healthy flags; returns how many answered.  The
  /// coordinator calls this at startup and logs the topology.
  std::size_t probe_all();

  /// Scatter a SEARCH.  The caller's evalue/deadline are honored; the
  /// caller's z_override is overwritten with the cluster-total Z (the
  /// coordinator owns that correction, clients cannot skew it).
  ClusterSearchResult search(const server::SearchRequest& req);

  /// Scatter a SCAN (same semantics; per-model merge).
  ClusterScanResult scan(const server::ScanRequest& req);

  ClusterStats stats() const FINEHMM_EXCLUDES(stats_mu_);

  obs::Histogram shard_histogram(std::size_t shard) const {
    return shard_hists_[shard]->snapshot();
  }
  obs::Histogram straggler_histogram() const {
    return straggler_hist_.snapshot();
  }

 private:
  /// Per-request scatter bookkeeping: live connections (for the deadline
  /// watchdog's shutdown) and the completion count the request thread
  /// waits on.
  struct FanState {
    Mutex mu;
    std::vector<server::Connection*> live FINEHMM_GUARDED_BY(mu);
    std::size_t done FINEHMM_GUARDED_BY(mu) = 0;

    CondVar cv;  // signaled per completion; waited on under mu
  };

  /// Re-encodes the request with a given remaining-deadline budget (ms);
  /// called per shard right before send, after connect/handshake burned
  /// their share of the deadline.
  using EncodeFn = std::function<std::vector<std::uint8_t>(std::uint32_t)>;

  /// The handshake every shard connection starts with: PING carrying
  /// this build's wire revision (checked server-side), then the role
  /// check here.  kOk when the peer may serve a leg; kError (with
  /// `error`) when it refused or is not a shard worker; kDead when the
  /// stream died or answered garbage.
  ShardState handshake(server::Connection& conn,
                       server::ErrorInfo& error) const;

  /// One shard's whole scatter leg: connect (with retry/backoff and the
  /// deadline in view), handshake, send, receive, classify.  kOk stores
  /// the undecoded reply payload in `reply`.
  ShardOutcome shard_leg(std::size_t shard, server::MsgType verb,
                         server::MsgType expected_reply,
                         const EncodeFn& encode,
                         std::chrono::steady_clock::time_point start,
                         std::uint32_t deadline_ms, FanState& fan,
                         std::vector<std::uint8_t>& reply)
      FINEHMM_EXCLUDES(fan.mu);

  /// Scatter to every shard concurrently, enforce the deadline
  /// (shutting down laggard connections at expiry), join every leg.
  std::vector<ShardOutcome> scatter(
      server::MsgType verb, server::MsgType expected_reply,
      const EncodeFn& encode, std::uint32_t deadline_ms,
      std::vector<std::vector<std::uint8_t>>& replies);

  /// Fold per-shard outcomes into the cluster counters.
  /// SEARCH and SCAN share one path: re-address the request to the
  /// shards, scatter it, decode the answers, settle, merge, account.
  template <class Out, class Request, class Wire>
  Out fan_out(const Request& req, server::MsgType verb,
              server::MsgType ok_type,
              std::vector<std::uint8_t> (*encode)(const Request&),
              Wire (*decode)(const std::vector<std::uint8_t>&),
              Wire (*merge)(std::vector<Wire>,
                            const std::vector<std::size_t>&,
                            const ShardManifest&, double));

  void account(const std::vector<ShardOutcome>& outcomes,
               server::ClientStatus status, bool degraded)
      FINEHMM_EXCLUDES(stats_mu_);

  ClusterConfig cfg_;
  ConnectFn connect_;

  mutable Mutex stats_mu_;
  ClusterStats stats_ FINEHMM_GUARDED_BY(stats_mu_);

  // Lock-free latency surfaces (obs::ConcurrentHistogram is not movable,
  // hence the unique_ptr indirection for the per-shard vector).
  std::vector<std::unique_ptr<obs::ConcurrentHistogram>> shard_hists_;
  obs::ConcurrentHistogram straggler_hist_;
};

}  // namespace finehmm::cluster
