#include "server/node.hpp"

#include <pthread.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <utility>

#include "obs/log.hpp"
#include "server/tcp.hpp"
#include "util/error.hpp"

namespace finehmm::server {

Node::Node(NodeRole role, std::uint32_t shard_id)
    : role_(role), shard_id_(shard_id) {}

void Node::serve(Listener& listener) {
  {
    MutexLock lock(state_mu_);
    FH_REQUIRE(listener_ == nullptr, "serve() is already running");
    listener_ = &listener;
    if (draining_) listener.close();  // drained before we even started
  }

  for (;;) {
    std::unique_ptr<Connection> conn = listener.accept();
    if (!conn) break;  // listener closed: drain has begun
    auto session = std::make_shared<Session>();
    session->conn = std::move(conn);
    {
      MutexLock lock(stats_mu_);
      ++shell_.connections_accepted;
    }
    // The thread is stored under state_mu_, which run_session takes
    // before it touches session->thread, so it never sees it unset.
    MutexLock lock(state_mu_);
    sessions_.insert(session);
    session->thread = std::thread([this, session] { run_session(session); });
  }

  after_accept_loop();

  // Unblock every session reader (clients may be idle, not sending) and
  // join the open sessions plus the last ended one.
  std::vector<std::thread> threads;
  {
    MutexLock lock(state_mu_);
    for (const std::shared_ptr<Session>& s : sessions_) {
      s->conn->shutdown();
      threads.push_back(std::move(s->thread));
    }
    threads.push_back(std::move(ended_));
  }
  for (std::thread& t : threads)
    if (t.joinable()) t.join();

  MutexLock lock(state_mu_);
  listener_ = nullptr;
}

void Node::begin_drain() {
  MutexLock lock(state_mu_);
  if (!draining_)
    obs::log(obs::LogLevel::kInfo,
             role_ == NodeRole::kCoordinator ? "cluster.drain_begin"
                                             : "server.drain_begin",
             {{"connections_open",
               static_cast<std::uint64_t>(sessions_.size())}});
  draining_ = true;
  if (listener_ != nullptr) listener_->close();
}

bool Node::draining() const {
  MutexLock lock(state_mu_);
  return draining_;
}

double Node::uptime_seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_time_)
      .count();
}

NodeStats Node::node_stats() const {
  std::uint64_t open = 0;
  {
    MutexLock lock(state_mu_);
    open = sessions_.size();
  }
  MutexLock lock(stats_mu_);
  NodeStats s = shell_;
  s.connections_open = open;
  return s;
}

std::size_t Node::unjoined_threads() const {
  MutexLock lock(state_mu_);
  return sessions_.size() + (ended_.joinable() ? 1 : 0);
}

// --- Sessions ------------------------------------------------------------

void Node::run_session(const std::shared_ptr<Session>& session) {
  Frame frame;
  for (;;) {
    const RecvStatus st = recv_frame(*session->conn, frame);
    if (st == RecvStatus::kEof) break;
    if (st == RecvStatus::kMalformed) {
      // Unframeable bytes: this connection cannot be re-synchronized, so
      // it closes — the node itself keeps running (tested).
      MutexLock lock(stats_mu_);
      ++shell_.frames_malformed;
      break;
    }
    dispatch(session, frame);
  }
  session->conn->shutdown();

  // Leave the registry and become the ended thread; join the previous
  // one.  A thread cannot join itself, so the last one to end waits for
  // the next, or for serve() at drain.
  std::thread previous;
  {
    MutexLock lock(state_mu_);
    sessions_.erase(session);
    previous = std::exchange(ended_, std::move(session->thread));
  }
  if (previous.joinable()) previous.join();
}

template <class Request>
std::optional<Request> Node::open_request(
    Session& session, const Frame& frame,
    Request (*decode)(const std::vector<std::uint8_t>&)) {
  const std::uint32_t id = frame.header.request_id;
  std::optional<Request> req;
  try {
    req = decode(frame.payload);
  } catch (const ProtocolError& e) {
    // The framing layer consumed the whole payload, so the connection is
    // still in sync — answer with an error and keep serving it.
    reject(session, id, ErrorCode::kBadRequest, e.what());
    return std::nullopt;
  }
  if (draining()) {
    {
      MutexLock lock(stats_mu_);
      ++shell_.requests_rejected_draining;
    }
    send_error(session, id, ErrorCode::kShuttingDown,
               "draining; no new requests accepted");
    return std::nullopt;
  }
  return req;
}

void Node::dispatch(const std::shared_ptr<Session>& session,
                    const Frame& frame) {
  const std::uint32_t id = frame.header.request_id;
  switch (frame.type()) {
    case MsgType::kPing: {
      // Revision handshake (docs/cluster.md): the PING payload carries
      // the peer's wire revision; an incompatible peer would misparse the
      // optional cluster fields, so reject it here with a structured
      // error instead of failing on a later frame.
      PingInfo peer;
      try {
        peer = decode_ping(frame.payload);
      } catch (const ProtocolError& e) {
        send_error(*session, id, ErrorCode::kBadRequest, e.what());
        break;
      }
      if (peer.wire_revision != kWireRevision) {
        send_error(*session, id, ErrorCode::kVersionMismatch,
                   "peer wire revision " +
                       std::to_string(peer.wire_revision) +
                       " incompatible with " + std::to_string(kWireRevision));
        break;
      }
      send_reply(*session, MsgType::kPong, id,
                 encode_ping(PingInfo{.role = role_, .shard_id = shard_id_}));
      break;
    }
    case MsgType::kStats: {
      const std::string json = stats_json();
      send_reply(*session, MsgType::kStatsResult, id,
                 std::vector<std::uint8_t>(json.begin(), json.end()));
      break;
    }
    case MsgType::kSearch:
      if (auto req = open_request(*session, frame, decode_search_request))
        on_search(session, id, std::move(*req));
      break;
    case MsgType::kScan:
      if (auto req = open_request(*session, frame, decode_scan_request))
        on_scan(session, id, std::move(*req));
      break;
    default:
      send_error(*session, id, ErrorCode::kBadRequest,
                 "unexpected message type " +
                     std::to_string(frame.header.type));
      break;
  }
}

bool Node::send_reply(Session& session, MsgType type,
                      std::uint32_t request_id,
                      const std::vector<std::uint8_t>& payload) {
  MutexLock lock(session.write_mu);
  return send_frame(*session.conn, type, request_id, payload);
}

void Node::send_error(Session& session, std::uint32_t request_id,
                      ErrorCode code, const std::string& message) {
  send_reply(session, MsgType::kError, request_id,
             encode_error(ErrorInfo{code, message}));
}

void Node::reject(Session& session, std::uint32_t request_id, ErrorCode code,
                  const std::string& message) {
  {
    MutexLock lock(stats_mu_);
    ++shell_.requests_bad;
  }
  send_error(session, request_id, code, message);
}

HttpResponse Node::handle_http(const std::string& path) const {
  HttpResponse r;
  if (path == "/metrics") {
    r.content_type = "text/plain; version=0.0.4; charset=utf-8";
    r.body = metrics_text();
  } else if (path == "/healthz") {
    // Drain-aware: flip unhealthy the moment drain begins, so a load
    // balancer stops routing before the listener actually closes.
    if (draining()) {
      r.status = 503;
      r.body = "draining\n";
    } else {
      r.body = "ok\n";
    }
  } else if (path == "/statusz") {
    r.body = statusz_text();
  } else {
    r.status = 404;
    r.body = "not found; routes: /metrics /healthz /statusz\n";
  }
  return r;
}

// --- Daemon main -----------------------------------------------------------

bool DaemonArgs::parse_flag(int argc, char** argv, int& i) {
  const std::string arg = argv[i];
  if (i + 1 >= argc) return false;
  const char* value = argv[i + 1];
  if (arg == "--host") {
    host = value;
  } else if (arg == "--port") {
    port = static_cast<std::uint16_t>(std::atoi(value));
  } else if (arg == "--metrics-port") {
    metrics_port = static_cast<std::uint16_t>(std::atoi(value));
  } else if (arg == "--pid-file") {
    pid_file = value;
  } else if (arg == "--log") {
    log_level = value;
  } else {
    return false;
  }
  ++i;
  return true;
}

void run_daemon(const DaemonArgs& args,
                const std::function<std::unique_ptr<Node>()>& make_node) {
  // Block the shutdown signals in EVERY thread before ANY thread exists
  // (the scan pool spawns inside make_node; the mask inherits), so only
  // the watcher below ever sees them — begin_drain then runs in normal
  // thread context, no async-signal-safety contortions.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGTERM);
  sigaddset(&sigs, SIGINT);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  // The library defaults to silent; a daemon is a long-running service
  // and speaks structured JSON on stderr (FINEHMM_LOG still overrides).
  obs::set_log_level(obs::parse_log_level(args.log_level));

  const std::unique_ptr<Node> node = make_node();
  const char* name = args.name.c_str();

  TcpListener listener(args.host, args.port);
  std::printf("%s: listening on %s:%u\n", name, args.host.c_str(),
              listener.port());

  // The observability endpoint rides a second listener and its own
  // thread; scrapes never touch the search data plane.
  std::unique_ptr<HttpEndpoint> endpoint;
  if (args.metrics_port) {
    auto http_listener =
        std::make_unique<TcpListener>(args.host, *args.metrics_port);
    std::printf("%s: metrics on %s:%u\n", name, args.host.c_str(),
                http_listener->port());
    endpoint = std::make_unique<HttpEndpoint>(
        std::move(http_listener),
        [&node](const std::string& path) { return node->handle_http(path); });
  }
  std::fflush(stdout);  // scripts scrape the lines while we serve

  obs::log(obs::LogLevel::kInfo, "daemon.start",
           {{"name", args.name},
            {"host", args.host},
            {"port", static_cast<std::uint64_t>(listener.port())}});

  if (!args.pid_file.empty()) {
    std::ofstream pf(args.pid_file);
    if (!pf.good()) throw IoError("cannot open pid file: " + args.pid_file);
    pf << ::getpid() << "\n";
  }

  std::thread watcher([&sigs, &node, name] {
    int sig = 0;
    sigwait(&sigs, &sig);
    std::fprintf(stderr, "%s: signal %d, draining\n", name, sig);
    node->begin_drain();
  });

  node->serve(listener);  // returns once drained and joined
  watcher.join();
  // Keep /healthz answering 503 "draining" while in-flight requests
  // finish; stop only after the data plane has fully drained.
  if (endpoint) endpoint->stop();
  obs::log(obs::LogLevel::kInfo, "daemon.stop",
           {{"name", args.name}, {"uptime_seconds", node->uptime_seconds()}});

  // Flush telemetry: the final stats snapshot is the daemon's last
  // stdout output, so a supervisor's log ends with the full accounting.
  std::cout << node->stats_json();
  if (!args.pid_file.empty()) std::remove(args.pid_file.c_str());
  std::printf("%s: drained, bye\n", name);
}

}  // namespace finehmm::server
