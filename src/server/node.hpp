// The daemon shell shared by finehmmd (SearchServer) and finehmm_clusterd
// (ClusterCoordinator): one accept loop, one session model, one framed
// verb dispatch, one drain, one HTTP router, and one daemon main.
//
// A Node speaks the finehmmd wire protocol.  It answers PING (the
// wire-revision handshake, with the node's role and shard id) and STATS
// itself, turns an undecodable SEARCH/SCAN into kBadRequest and any
// SEARCH/SCAN that arrives after begin_drain() into kShuttingDown, and
// hands every other SEARCH/SCAN to the subclass.  A subclass supplies
// only its SEARCH/SCAN handling, its STATS / /metrics / /statusz text,
// and after_accept_loop(), which runs once the listener has closed and
// before the connections are shut down.
//
// Threading model:
//   * accept loop — serve()'s calling thread; exits when the listener
//     closes (begin_drain).
//   * session threads — one per open connection: read frames, dispatch
//     them, reply.  A thread that ends reaps the previously ended one,
//     so at most one finished thread is ever left unjoined and a
//     closed connection costs nothing until drain.
// Replies from any thread serialize on the session's write_mu.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "server/http.hpp"
#include "server/protocol.hpp"
#include "server/transport.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace finehmm::server {

/// The shell's connection and request accounting, common to every node.
struct NodeStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_open = 0;            // gauge: live sessions
  std::uint64_t frames_malformed = 0;  // connections torn down on bad bytes
  std::uint64_t requests_bad = 0;      // undecodable / unknown db or model
  std::uint64_t requests_rejected_draining = 0;  // arrived after drain began
};

class Node {
 public:
  virtual ~Node() = default;

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Run the accept loop on the calling thread; returns after
  /// begin_drain() once after_accept_loop() returned and every session
  /// thread joined.  Call at most once.
  void serve(Listener& listener) FINEHMM_EXCLUDES(state_mu_, stats_mu_);

  /// Graceful shutdown: stop accepting and answer new SEARCH/SCAN
  /// frames with kShuttingDown.  Idempotent; safe from any thread.
  void begin_drain() FINEHMM_EXCLUDES(state_mu_);
  bool draining() const FINEHMM_EXCLUDES(state_mu_);

  /// Seconds since construction (monotonic).
  double uptime_seconds() const;

  /// The shell counters, with connections_open read from the session
  /// registry.
  NodeStats node_stats() const FINEHMM_EXCLUDES(state_mu_, stats_mu_);

  /// Session threads started and not yet joined: the open sessions plus
  /// at most one that ended and waits to be reaped.
  std::size_t unjoined_threads() const FINEHMM_EXCLUDES(state_mu_);

  /// The STATS verb's payload.
  virtual std::string stats_json() const = 0;
  /// /metrics (Prometheus text) and /statusz (human-readable) bodies.
  virtual std::string metrics_text() const = 0;
  virtual std::string statusz_text() const = 0;

  /// The HTTP endpoint's router: /metrics, /healthz (200 while serving,
  /// 503 once draining), /statusz.  Safe from any thread.
  HttpResponse handle_http(const std::string& path) const;

 protected:
  Node(NodeRole role, std::uint32_t shard_id);

  /// One client connection.  Its session thread is the only reader of
  /// conn; replies (from it or from another thread) serialize on
  /// write_mu.  `thread` is touched only under Node::state_mu_.  On the
  /// registered lock order write_mu sits below state_mu_: serve() holds
  /// state_mu_ while calling conn->shutdown(), which never takes write_mu.
  struct Session {
    std::unique_ptr<Connection> conn;
    std::thread thread;

    Mutex write_mu;
  };

  /// A decoded SEARCH / SCAN that passed the shell's checks.
  virtual void on_search(const std::shared_ptr<Session>& session,
                         std::uint32_t request_id, SearchRequest req) = 0;
  virtual void on_scan(const std::shared_ptr<Session>& session,
                       std::uint32_t request_id, ScanRequest req) = 0;
  /// Runs on serve()'s thread after the listener closed, before the
  /// open connections are shut down: finish in-flight work here.
  virtual void after_accept_loop() {}

  bool send_reply(Session& session, MsgType type, std::uint32_t request_id,
                  const std::vector<std::uint8_t>& payload)
      FINEHMM_EXCLUDES(session.write_mu);
  void send_error(Session& session, std::uint32_t request_id, ErrorCode code,
                  const std::string& message)
      FINEHMM_EXCLUDES(session.write_mu);
  /// Count a bad request and answer it with `code`.
  void reject(Session& session, std::uint32_t request_id, ErrorCode code,
              const std::string& message) FINEHMM_EXCLUDES(stats_mu_);

  const std::chrono::steady_clock::time_point start_time_ =
      std::chrono::steady_clock::now();

  /// Lifecycle lock (registry rank 1, docs/static_analysis.md).  A
  /// subclass may guard its own lifecycle flags with it.
  mutable Mutex state_mu_;
  bool draining_ FINEHMM_GUARDED_BY(state_mu_) = false;

  /// Counter lock (registry rank 4); a subclass guards its own
  /// aggregates with it too.
  mutable Mutex stats_mu_;
  NodeStats shell_ FINEHMM_GUARDED_BY(stats_mu_);

 private:
  void run_session(const std::shared_ptr<Session>& session)
      FINEHMM_EXCLUDES(state_mu_, stats_mu_);
  void dispatch(const std::shared_ptr<Session>& session, const Frame& frame)
      FINEHMM_EXCLUDES(state_mu_, stats_mu_);
  /// Decode a SEARCH/SCAN payload; on failure, or while draining, answer
  /// the error here and return nothing.
  template <class Request>
  std::optional<Request> open_request(
      Session& session, const Frame& frame,
      Request (*decode)(const std::vector<std::uint8_t>&))
      FINEHMM_EXCLUDES(state_mu_, stats_mu_);

  const NodeRole role_;
  const std::uint32_t shard_id_;

  Listener* listener_ FINEHMM_GUARDED_BY(state_mu_) = nullptr;
  std::set<std::shared_ptr<Session>> sessions_ FINEHMM_GUARDED_BY(state_mu_);
  /// The last session thread that ended; the next one to end joins it.
  std::thread ended_ FINEHMM_GUARDED_BY(state_mu_);
};

/// What run_daemon takes from a daemon's command line.  The flags every
/// daemon shares:
///   --host <addr>       IPv4 address to bind (default 127.0.0.1)
///   --port <n>          TCP port; 0 lets the kernel pick (default 0).
///                       The bound port is printed as "NAME: listening on
///                       HOST:PORT" either way, so scripts can scrape it.
///   --metrics-port <n>  serve HTTP /metrics, /healthz, /statusz on this
///                       port (0 = ephemeral; printed as "NAME: metrics
///                       on HOST:PORT").  Omit to disable the endpoint.
///   --pid-file <f>      write the pid to f (removed on clean exit)
///   --log <level>       structured JSON log level on stderr:
///                       debug|info|warn|error|off (default info;
///                       FINEHMM_LOG overrides)
struct DaemonArgs {
  std::string name;  // stdout/stderr prefix: "finehmmd"
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::optional<std::uint16_t> metrics_port;
  std::string pid_file;
  std::string log_level = "info";

  /// Consume argv[i] (and its value) when it is one of the shared flags.
  bool parse_flag(int argc, char** argv, int& i);
};

/// A daemon's whole life after flag parsing.  Blocks SIGTERM/SIGINT in
/// every thread, sets the log level, builds the node with `make_node`,
/// prints "NAME: listening on HOST:PORT" (and "NAME: metrics on
/// HOST:PORT"), writes the pid file, drains on the first signal, then
/// prints the final STATS JSON and "NAME: drained, bye".  Returns after
/// a clean drain; start-up failures throw.
void run_daemon(const DaemonArgs& args,
                const std::function<std::unique_ptr<Node>()>& make_node);

}  // namespace finehmm::server
