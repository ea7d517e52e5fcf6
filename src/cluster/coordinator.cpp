#include "cluster/coordinator.hpp"

#include <chrono>
#include <sstream>

#include "obs/log.hpp"
#include "obs/request_trace.hpp"

namespace finehmm::cluster {

using server::MsgType;

namespace {

/// The monotonic counters, in the order STATS and
/// finehmm_cluster_events_total both list them.
std::vector<std::pair<const char*, std::uint64_t>> events(
    const server::NodeStats& c, const ClusterStats& s) {
  return {
      {"connections_accepted", c.connections_accepted},
      {"requests_bad", c.requests_bad},
      {"requests_rejected_draining", c.requests_rejected_draining},
      {"frames_malformed", c.frames_malformed},
      {"requests", s.requests},
      {"merged_ok", s.merged_ok},
      {"coordinator_sheds", s.coordinator_sheds},
      {"degraded_results", s.degraded_results},
      {"deadline_expired", s.deadline_expired},
      {"failures", s.failures},
  };
}

}  // namespace

ClusterCoordinator::ClusterCoordinator(ClusterConfig cfg, ConnectFn connect)
    : Node(server::NodeRole::kCoordinator, 0),
      client_(std::move(cfg), std::move(connect)) {}

template <class Result, class Wire>
void ClusterCoordinator::answer(
    Session& session, std::uint32_t id, Result res, MsgType ok_type,
    std::vector<std::uint8_t> (*encode)(const Wire&),
    std::chrono::steady_clock::time_point started) {
  switch (res.status) {
    case server::ClientStatus::kOk:
      res.result.trace_id = obs::next_trace_id();
      send_reply(session, ok_type, id, encode(res.result));
      break;
    case server::ClientStatus::kOverloaded:
      send_reply(session, MsgType::kOverload, id,
                 encode_overload(res.overload));
      break;
    case server::ClientStatus::kError:
      send_error(session, id, res.error.code, res.error.message);
      break;
    case server::ClientStatus::kDisconnected:
      send_error(session, id, server::ErrorCode::kInternal,
                 "no shard answered the scatter");
      break;
  }
  e2e_hist_.record(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - started)
          .count()));
}

void ClusterCoordinator::on_search(const std::shared_ptr<Session>& session,
                                   std::uint32_t id,
                                   server::SearchRequest req) {
  const auto started = std::chrono::steady_clock::now();
  answer(*session, id, client_.search(req), MsgType::kResult,
         server::encode_search_result, started);
}

void ClusterCoordinator::on_scan(const std::shared_ptr<Session>& session,
                                 std::uint32_t id, server::ScanRequest req) {
  const auto started = std::chrono::steady_clock::now();
  answer(*session, id, client_.scan(req), MsgType::kScanResult,
         server::encode_scan_result, started);
}

// --- Observability -------------------------------------------------------

std::string ClusterCoordinator::stats_json() const {
  const server::NodeStats c = node_stats();
  const ClusterStats s = client_.stats();
  const ShardManifest& m = client_.manifest();

  std::ostringstream os;
  os << "{\n";
  os << "  \"schema\": \"finehmm.cluster_stats.v1\",\n";
  os << "  \"uptime_seconds\": " << uptime_seconds() << ",\n";
  os << "  \"draining\": " << (draining() ? "true" : "false") << ",\n";
  os << "  \"shard_count\": " << m.shards.size() << ",\n";
  os << "  \"total_sequences\": " << m.total_sequences << ",\n";
  os << "  \"total_residues\": " << m.total_residues << ",\n";
  os << "  \"connections_open\": " << c.connections_open << ",\n";
  for (const auto& [name, value] : events(c, s))
    os << "  \"" << name << "\": " << value << ",\n";
  os << "  \"latency\": {\n    \"e2e\": ";
  obs::write_latency_json(os, e2e_hist_.snapshot());
  os << ",\n    \"straggler\": ";
  obs::write_latency_json(os, client_.straggler_histogram());
  os << "\n  },\n";
  os << "  \"shards\": [";
  for (std::size_t i = 0; i < s.shards.size(); ++i) {
    const ShardCounters& sc = s.shards[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\"shard\": " << i << ", \"path\": \""
       << obs::json_escape(m.shards[i].path) << "\", \"seq_base\": "
       << m.shards[i].seq_base << ", \"sequences\": " << m.shards[i].sequences
       << ", \"healthy\": " << (sc.healthy ? "true" : "false")
       << ", \"requests\": " << sc.requests << ", \"ok\": " << sc.ok
       << ", \"overloaded\": " << sc.overloaded
       << ", \"errors\": " << sc.errors << ", \"deaths\": " << sc.deaths
       << ", \"deadline\": " << sc.deadline << ", \"latency\": ";
    obs::write_latency_json(os, client_.shard_histogram(i));
    os << "}";
  }
  os << (s.shards.empty() ? "" : "\n  ") << "]\n";
  os << "}\n";
  return os.str();
}

std::string ClusterCoordinator::metrics_text() const {
  const server::NodeStats c = node_stats();
  const ClusterStats s = client_.stats();

  std::size_t healthy = 0;
  for (const ShardCounters& sc : s.shards)
    if (sc.healthy) ++healthy;

  std::ostringstream os;
  using obs::write_prometheus_family;
  using obs::write_prometheus_gauge;
  write_prometheus_gauge(os, "finehmm_cluster_up",
                         "Whether the coordinator is serving (drain flips "
                         "to 0).",
                         draining() ? 0 : 1);
  write_prometheus_gauge(os, "finehmm_cluster_uptime_seconds",
                         "Seconds since the coordinator started.",
                         uptime_seconds());
  write_prometheus_gauge(os, "finehmm_cluster_shards",
                         "Shards in the manifest.", s.shards.size());
  write_prometheus_gauge(os, "finehmm_cluster_shards_healthy",
                         "Shards whose last contact succeeded.", healthy);
  write_prometheus_gauge(os, "finehmm_cluster_connections_open",
                         "Client connections open right now.",
                         c.connections_open);

  write_prometheus_family(os, "finehmm_cluster_events_total", "counter",
                          "Monotonic coordinator counters by event.");
  for (const auto& [name, value] : events(c, s))
    os << "finehmm_cluster_events_total{event=\"" << name << "\"} " << value
       << "\n";

  write_prometheus_family(os, "finehmm_cluster_shard_events_total", "counter",
                          "Monotonic per-shard scatter-leg counters by "
                          "event.");
  for (std::size_t i = 0; i < s.shards.size(); ++i) {
    const ShardCounters& sc = s.shards[i];
    const std::pair<const char*, std::uint64_t> shard_events[] = {
        {"requests", sc.requests}, {"ok", sc.ok},
        {"overloaded", sc.overloaded}, {"errors", sc.errors},
        {"deaths", sc.deaths}, {"deadline", sc.deadline},
    };
    for (const auto& [name, value] : shard_events)
      os << "finehmm_cluster_shard_events_total{shard=\"" << i
         << "\",event=\"" << name << "\"} " << value << "\n";
  }

  write_prometheus_family(os, "finehmm_cluster_shard_healthy", "gauge",
                          "Whether the shard's last contact succeeded.");
  for (std::size_t i = 0; i < s.shards.size(); ++i)
    os << "finehmm_cluster_shard_healthy{shard=\"" << i << "\"} "
       << (s.shards[i].healthy ? 1 : 0) << "\n";

  write_prometheus_family(
      os, "finehmm_cluster_request_latency_seconds", "summary",
      "End-to-end coordinator latency (scatter to reply written).");
  obs::write_latency_prometheus(os, "finehmm_cluster_request_latency_seconds",
                                "", e2e_hist_.snapshot());
  write_prometheus_family(os, "finehmm_cluster_shard_latency_seconds",
                          "summary", "Per-shard scatter leg roundtrip.");
  for (std::size_t i = 0; i < s.shards.size(); ++i)
    obs::write_latency_prometheus(os, "finehmm_cluster_shard_latency_seconds",
                                  "shard=\"" + std::to_string(i) + "\"",
                                  client_.shard_histogram(i));
  write_prometheus_family(
      os, "finehmm_cluster_straggler_seconds", "summary",
      "Max minus min shard time per fully-answered request.");
  obs::write_latency_prometheus(os, "finehmm_cluster_straggler_seconds", "",
                                client_.straggler_histogram());
  return os.str();
}

std::string ClusterCoordinator::statusz_text() const {
  const ClusterStats s = client_.stats();
  const ShardManifest& m = client_.manifest();

  std::ostringstream os;
  os << "finehmm_clusterd status\n";
  os << "=======================\n";
  os << "uptime_seconds:   " << uptime_seconds() << "\n";
  os << "state:            " << (draining() ? "draining" : "serving") << "\n";
  os << "database:         " << m.source << " (" << m.total_sequences
     << " sequences, " << m.total_residues << " residues, "
     << m.shards.size() << " shards)\n";
  os << "requests:         " << s.requests << " (" << s.merged_ok << " ok, "
     << s.coordinator_sheds << " shed, " << s.degraded_results
     << " degraded, " << s.deadline_expired << " deadline, " << s.failures
     << " failed)\n";
  for (std::size_t i = 0; i < s.shards.size(); ++i) {
    const ShardCounters& sc = s.shards[i];
    const obs::LatencyQuantiles q =
        obs::latency_quantiles(client_.shard_histogram(i));
    os << "shard " << i << ":          "
       << (sc.healthy ? "healthy" : "UNHEALTHY") << "  ok=" << sc.ok
       << " overloaded=" << sc.overloaded << " errors=" << sc.errors
       << " deaths=" << sc.deaths << " deadline=" << sc.deadline
       << " p99=" << static_cast<double>(q.p99) * 1e-9 << "s\n";
  }
  return os.str();
}

}  // namespace finehmm::cluster
