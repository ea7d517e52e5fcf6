#include "cluster/cluster_client.hpp"

#include <algorithm>
#include <thread>
#include <utility>

#include "cluster/merge.hpp"
#include "util/error.hpp"

namespace finehmm::cluster {

using server::ClientStatus;
using server::Connection;
using server::ErrorCode;
using server::ErrorInfo;
using server::Frame;
using server::MsgType;
using server::PingInfo;
using server::ProtocolError;
using server::RecvStatus;

using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t to_ns(double seconds) {
  return seconds <= 0.0 ? 0 : static_cast<std::uint64_t>(seconds * 1e9);
}

}  // namespace

ClusterClient::ClusterClient(ClusterConfig cfg, ConnectFn connect)
    : cfg_(std::move(cfg)), connect_(std::move(connect)) {
  FH_REQUIRE(!cfg_.manifest.shards.empty(),
             "cluster client needs a manifest with >= 1 shard");
  FH_REQUIRE(connect_ != nullptr, "cluster client needs a connect function");
  {
    MutexLock lock(stats_mu_);
    stats_.shards.resize(cfg_.manifest.shards.size());
  }
  shard_hists_.reserve(cfg_.manifest.shards.size());
  for (std::size_t i = 0; i < cfg_.manifest.shards.size(); ++i)
    shard_hists_.push_back(std::make_unique<obs::ConcurrentHistogram>());
}

std::size_t ClusterClient::probe_all() {
  std::size_t healthy = 0;
  for (std::size_t i = 0; i < shard_count(); ++i) {
    bool up = false;
    std::unique_ptr<Connection> conn;
    try {
      conn = connect_(i);
    } catch (const Error&) {
      conn = nullptr;
    }
    if (conn) {
      ErrorInfo refused;
      up = handshake(*conn, refused) == ShardState::kOk;
      conn->shutdown();
    }
    if (up) ++healthy;
    MutexLock lock(stats_mu_);
    stats_.shards[i].healthy = up;
  }
  return healthy;
}

ShardState ClusterClient::handshake(Connection& conn,
                                    ErrorInfo& error) const {
  if (!server::send_frame(conn, MsgType::kPing, 1,
                          server::encode_ping(PingInfo{})))
    return ShardState::kDead;
  Frame pong;
  if (server::recv_frame(conn, pong) != RecvStatus::kFrame)
    return ShardState::kDead;
  try {
    if (pong.type() == MsgType::kError) {
      error = server::decode_error(pong.payload);
      return ShardState::kError;
    }
    if (pong.type() != MsgType::kPong) return ShardState::kDead;
    const PingInfo info = server::decode_ping(pong.payload);
    if (info.role == server::NodeRole::kCoordinator ||
        (cfg_.require_shard_role && info.role != server::NodeRole::kShard)) {
      error = {ErrorCode::kBadRequest,
               "peer is not a shard worker (role " +
                   std::to_string(static_cast<int>(info.role)) + ")"};
      return ShardState::kError;
    }
  } catch (const ProtocolError&) {
    return ShardState::kDead;
  }
  return ShardState::kOk;
}

ShardOutcome ClusterClient::shard_leg(std::size_t shard, MsgType verb,
                                      MsgType expected_reply,
                                      const EncodeFn& encode,
                                      Clock::time_point start,
                                      std::uint32_t deadline_ms, FanState& fan,
                                      std::vector<std::uint8_t>& reply) {
  ShardOutcome out;
  const Clock::time_point leg_start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::milliseconds(deadline_ms);
  const auto past_deadline = [&] {
    return deadline_ms != 0 && Clock::now() >= deadline;
  };
  const auto classify_drop = [&] {
    out.state = past_deadline() ? ShardState::kDeadline : ShardState::kDead;
  };

  // Connect, with retry + exponential backoff.  The deadline bounds the
  // whole ladder: once it passes, the leg stops trying.
  std::unique_ptr<Connection> conn;
  for (std::uint32_t attempt = 0;; ++attempt) {
    try {
      conn = connect_(shard);
    } catch (const Error&) {
      conn = nullptr;
    }
    if (conn) break;
    if (attempt >= cfg_.connect_retries || past_deadline()) {
      classify_drop();
      out.roundtrip_seconds = seconds_since(leg_start);
      return out;
    }
    std::this_thread::sleep_for(
        std::chrono::milliseconds(cfg_.retry_backoff_ms << attempt));
  }

  // Publish the connection so the deadline watchdog can shut it down;
  // it MUST be withdrawn (under the same lock) before `conn` dies.
  {
    MutexLock lock(fan.mu);
    fan.live[shard] = conn.get();
  }

  // The leg body never early-returns: `state` is settled by fall-through
  // so the live-pointer withdrawal below always runs.
  [&] {
    out.state = handshake(*conn, out.error);
    if (out.state == ShardState::kDead) return classify_drop();
    if (out.state != ShardState::kOk) return;

    // Per-shard budget = remaining deadline: connect/handshake time is
    // burned from every shard's allowance, never added to it.
    std::uint32_t remaining_ms = 0;
    if (deadline_ms != 0) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      if (left.count() <= 0) {
        out.state = ShardState::kDeadline;
        return;
      }
      remaining_ms = static_cast<std::uint32_t>(left.count());
    }

    if (!server::send_frame(*conn, verb, 2, encode(remaining_ms)))
      return classify_drop();
    Frame resp;
    if (server::recv_frame(*conn, resp) != RecvStatus::kFrame)
      return classify_drop();
    if (resp.type() == expected_reply) {
      out.state = ShardState::kOk;
      reply = std::move(resp.payload);
      return;
    }
    try {
      if (resp.type() == MsgType::kOverload) {
        out.overload = server::decode_overload(resp.payload);
        out.state = ShardState::kOverloaded;
        return;
      }
      if (resp.type() == MsgType::kError) {
        out.error = server::decode_error(resp.payload);
        out.state = out.error.code == ErrorCode::kDeadlineExpired
                        ? ShardState::kDeadline
                        : ShardState::kError;
        return;
      }
    } catch (const ProtocolError&) {
    }
    out.state = ShardState::kDead;
  }();

  {
    MutexLock lock(fan.mu);
    fan.live[shard] = nullptr;
  }
  conn->shutdown();
  out.roundtrip_seconds = seconds_since(leg_start);
  return out;
}

std::vector<ShardOutcome> ClusterClient::scatter(
    MsgType verb, MsgType expected_reply, const EncodeFn& encode,
    std::uint32_t deadline_ms,
    std::vector<std::vector<std::uint8_t>>& replies) {
  const std::size_t n = shard_count();
  const Clock::time_point start = Clock::now();

  std::vector<ShardOutcome> outcomes(n);
  replies.assign(n, {});

  FanState fan;
  {
    MutexLock lock(fan.mu);
    fan.live.assign(n, nullptr);
  }

  std::vector<std::thread> legs;
  legs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    legs.emplace_back([&, i] {
      outcomes[i] = shard_leg(i, verb, expected_reply, encode, start,
                              deadline_ms, fan, replies[i]);
      {
        MutexLock lock(fan.mu);
        ++fan.done;
      }
      fan.cv.notify_all();
    });
  }

  if (deadline_ms != 0) {
    // Coordinator-side deadline enforcement: a hung shard never answers,
    // so at expiry the watchdog shuts the laggards' connections down
    // (unblocking their recv) and keeps sweeping until every leg is in —
    // a leg that registered after a sweep gets caught by the next one.
    const Clock::time_point deadline =
        start + std::chrono::milliseconds(deadline_ms);
    MutexLock lock(fan.mu);
    while (fan.done < n) {
      if (fan.cv.wait_until(fan.mu, deadline) == std::cv_status::timeout &&
          Clock::now() >= deadline)
        break;
    }
    while (fan.done < n) {
      for (Connection* c : fan.live)
        if (c != nullptr) c->shutdown();
      fan.cv.wait_for(fan.mu, std::chrono::milliseconds(10));
    }
  }
  for (std::thread& t : legs) t.join();
  return outcomes;
}

void ClusterClient::account(const std::vector<ShardOutcome>& outcomes,
                            ClientStatus status, bool degraded) {
  // Lock-free surfaces first: per-shard roundtrips for answered legs and
  // the straggler spread (max - min) when every shard answered.
  double min_rt = 0.0, max_rt = 0.0;
  std::size_t ok = 0;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (outcomes[i].state != ShardState::kOk) continue;
    shard_hists_[i]->record(to_ns(outcomes[i].roundtrip_seconds));
    if (ok == 0) {
      min_rt = max_rt = outcomes[i].roundtrip_seconds;
    } else {
      min_rt = std::min(min_rt, outcomes[i].roundtrip_seconds);
      max_rt = std::max(max_rt, outcomes[i].roundtrip_seconds);
    }
    ++ok;
  }
  if (ok >= 2) straggler_hist_.record(to_ns(max_rt - min_rt));

  MutexLock lock(stats_mu_);
  ++stats_.requests;
  if (status == ClientStatus::kOk) ++stats_.merged_ok;
  if (status == ClientStatus::kOverloaded) ++stats_.coordinator_sheds;
  if (degraded) ++stats_.degraded_results;
  if (status == ClientStatus::kError ||
      status == ClientStatus::kDisconnected) {
    bool deadline = false;
    for (const ShardOutcome& o : outcomes)
      if (o.state == ShardState::kDeadline) deadline = true;
    if (deadline)
      ++stats_.deadline_expired;
    else
      ++stats_.failures;
  }
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    ShardCounters& c = stats_.shards[i];
    ++c.requests;
    switch (outcomes[i].state) {
      case ShardState::kOk:
        ++c.ok;
        c.healthy = true;
        break;
      case ShardState::kOverloaded:
        ++c.overloaded;
        c.healthy = true;  // alive, just shedding
        break;
      case ShardState::kError:
        ++c.errors;
        c.healthy = true;  // answered, structurally
        break;
      case ShardState::kDead:
        ++c.deaths;
        c.healthy = false;
        break;
      case ShardState::kDeadline:
        ++c.deadline;
        break;
    }
  }
}

namespace {

/// Shared aggregation policy for SEARCH and SCAN (docs/cluster.md):
/// OVERLOAD beats everything (retry is cheap and correct), then the
/// deadline (a partial on-time answer is still a miss), then the
/// degraded-or-fail decision.
template <typename ResultT>
ClientStatus settle(const std::vector<ShardOutcome>& outcomes,
                    bool allow_degraded, std::size_t total_shards,
                    ResultT& out) {
  for (const ShardOutcome& o : outcomes)
    if (o.state == ShardState::kOverloaded) {
      out.overload = o.overload;
      return ClientStatus::kOverloaded;
    }
  for (const ShardOutcome& o : outcomes)
    if (o.state == ShardState::kDeadline) {
      out.error = {ErrorCode::kDeadlineExpired,
                   "a shard missed the request deadline"};
      return ClientStatus::kError;
    }
  std::size_t ok = 0;
  for (const ShardOutcome& o : outcomes)
    if (o.state == ShardState::kOk) ++ok;
  if (ok == total_shards) return ClientStatus::kOk;
  if (ok > 0 && allow_degraded) {
    out.degraded = true;
    return ClientStatus::kOk;
  }
  for (const ShardOutcome& o : outcomes)
    if (o.state == ShardState::kError) {
      out.error = o.error;
      return ClientStatus::kError;
    }
  out.error = {ErrorCode::kInternal, "no shard was reachable"};
  return ClientStatus::kError;
}

}  // namespace

template <class Out, class Request, class Wire>
Out ClusterClient::fan_out(
    const Request& req, MsgType verb, MsgType ok_type,
    std::vector<std::uint8_t> (*encode)(const Request&),
    Wire (*decode)(const std::vector<std::uint8_t>&),
    Wire (*merge)(std::vector<Wire>, const std::vector<std::size_t>&,
                  const ShardManifest&, double)) {
  Request fwd = req;
  fwd.db_id = cfg_.db_id;
  // The coordinator owns the Z correction: every shard scores against
  // the cluster total, whatever the caller put here.
  fwd.z_override = cfg_.manifest.total_sequences;

  const EncodeFn encode_leg = [&fwd, encode](std::uint32_t remaining_ms) {
    Request leg = fwd;
    leg.deadline_ms = remaining_ms;
    return encode(leg);
  };

  std::vector<std::vector<std::uint8_t>> replies;
  std::vector<ShardOutcome> outcomes =
      scatter(verb, ok_type, encode_leg, req.deadline_ms, replies);

  // Decode before settling: an undecodable "success" is a dead shard.
  std::vector<Wire> parts;
  std::vector<std::size_t> part_shards;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (outcomes[i].state != ShardState::kOk) continue;
    try {
      parts.push_back(decode(replies[i]));
      part_shards.push_back(i);
    } catch (const ProtocolError&) {
      outcomes[i].state = ShardState::kDead;
    }
  }

  Out out;
  out.status = settle(outcomes, cfg_.allow_degraded, shard_count(), out);
  if (out.status == ClientStatus::kOk)
    out.result =
        merge(std::move(parts), part_shards, cfg_.manifest, req.evalue);
  out.shards = outcomes;
  account(outcomes, out.status, out.degraded);
  return out;
}

ClusterSearchResult ClusterClient::search(const server::SearchRequest& req) {
  return fan_out<ClusterSearchResult>(
      req, MsgType::kSearch, MsgType::kResult, server::encode_search_request,
      server::decode_search_result, merge_search_results);
}

ClusterScanResult ClusterClient::scan(const server::ScanRequest& req) {
  return fan_out<ClusterScanResult>(
      req, MsgType::kScan, MsgType::kScanResult, server::encode_scan_request,
      server::decode_scan_result, merge_scan_results);
}

ClusterStats ClusterClient::stats() const {
  MutexLock lock(stats_mu_);
  return stats_;
}

}  // namespace finehmm::cluster
