// Blocking client for the finehmmd protocol.
//
// One request in flight at a time, over any Connection (loopback in
// tests, TCP in tools/finehmm_client and hmmsearch_tool --connect).
// Floats arrive as the exact bit patterns the daemon computed, so a
// RemoteResult renders the same report a local run_cpu would.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "hmm/plan7.hpp"
#include "server/protocol.hpp"
#include "server/transport.hpp"
#include "stats/calibrate.hpp"

namespace finehmm::server {

enum class ClientStatus {
  kOk,            // result holds the hits
  kError,         // daemon answered with an ErrorInfo (see error)
  kOverloaded,    // daemon shed the request at admission (see overload)
  kDisconnected,  // stream died or answered with unframeable bytes
};

struct RemoteResult {
  ClientStatus status = ClientStatus::kDisconnected;
  SearchResultWire result;  // kOk only
  ErrorInfo error;          // kError only
  OverloadInfo overload;    // kOverloaded only
};

struct RemoteScanResult {
  ClientStatus status = ClientStatus::kDisconnected;
  ScanResultWire result;  // kOk only
  ErrorInfo error;        // kError only
  OverloadInfo overload;  // kOverloaded only
};

class BlockingClient {
 public:
  explicit BlockingClient(std::unique_ptr<Connection> conn);
  ~BlockingClient();

  BlockingClient(const BlockingClient&) = delete;
  BlockingClient& operator=(const BlockingClient&) = delete;

  /// Search with an inline model: the profile (and its calibration, when
  /// given — strongly recommended, it spares the daemon a deterministic
  /// recalibration) is serialized losslessly into the request.
  RemoteResult search(std::uint32_t db_id, const hmm::Plan7Hmm& model,
                      const stats::ModelStats* model_stats,
                      double evalue = 10.0, std::uint32_t deadline_ms = 0);

  /// Search referencing a model pressed into the daemon's libraries.
  /// z_override != 0 makes the daemon score E-values against that
  /// effective database size instead of its resident one (the cluster
  /// coordinator passes the cluster-total Z; docs/cluster.md).
  RemoteResult search_pressed(std::uint32_t db_id,
                              const std::string& model_name,
                              double evalue = 10.0,
                              std::uint32_t deadline_ms = 0,
                              std::uint64_t z_override = 0);

  /// Raw variant: a pre-serialized hmm/binary_io blob.
  RemoteResult search_blob(std::uint32_t db_id,
                           std::vector<std::uint8_t> blob,
                           double evalue = 10.0,
                           std::uint32_t deadline_ms = 0,
                           std::uint64_t z_override = 0);

  /// The SCAN verb: score resident database db_id against every model in
  /// the daemon's loaded .fhpdb libraries (one fused many-model sweep
  /// server-side; hits bit-identical to per-model SEARCHes).  The evalue
  /// can only tighten the daemon's resident E <= 10 threshold.
  RemoteScanResult scan(std::uint32_t db_id, double evalue = 10.0,
                        std::uint32_t deadline_ms = 0,
                        std::uint64_t z_override = 0);

  /// PING/PONG health check (sends this build's wire revision).
  bool ping();

  /// PING returning the peer's handshake metadata (wire revision, node
  /// role, shard id) — nullopt when the stream died or the peer rejected
  /// the handshake (e.g. kVersionMismatch).  The cluster layer uses this
  /// to verify each endpoint really is the shard it expects.
  std::optional<PingInfo> ping_info();

  /// The STATS verb: the daemon's "finehmm.server_stats.v2" JSON
  /// (counters + latency histogram quantiles + recent request traces),
  /// or nullopt when the stream died.
  std::optional<std::string> stats_json();

  /// The underlying stream (tests use it to inject malformed bytes and
  /// to sever mid-request).
  Connection& connection() { return *conn_; }

 private:
  /// Send one request frame and decode its reply into a Remote*Result.
  template <class Out, class Wire>
  Out exchange(MsgType verb, const std::vector<std::uint8_t>& payload,
               MsgType ok_type,
               Wire (*decode)(const std::vector<std::uint8_t>&));

  std::unique_ptr<Connection> conn_;
  std::uint32_t next_id_ = 1;
};

}  // namespace finehmm::server
