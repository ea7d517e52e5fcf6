// POSIX TCP implementation of the transport contract — the path
// finehmmd and finehmm_client actually ship over.  On non-POSIX builds
// these entry points throw Error so the rest of the library (and the
// loopback-based tests) stay portable.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "server/transport.hpp"

namespace finehmm::server {

class TcpListener final : public Listener {
 public:
  /// Bind + listen on `host:port`.  Pass port 0 to let the kernel pick;
  /// port() reports the bound port either way (how the CI smoke test
  /// avoids collisions).
  TcpListener(const std::string& host, std::uint16_t port);
  ~TcpListener() override;

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  std::unique_ptr<Connection> accept() override;
  void close() override;

  std::uint16_t port() const { return port_; }

 private:
  // close() runs on the drain thread while accept() blocks on the fd
  // from the serve thread; the exchange in close() is what keeps that
  // cross-thread teardown race-free (and close() idempotent).  Lock-free
  // by design — the atomic IS the synchronization, so there is no
  // capability to annotate here (docs/static_analysis.md §lock-free).
  std::atomic<int> fd_{-1};
  std::uint16_t port_ = 0;
};

/// Split "HOST:PORT"; false when either part is missing or the port is
/// not a number in [1, 65535].
bool parse_host_port(const std::string& s, std::string& host,
                     std::uint16_t& port);

/// Dial `host:port`; throws Error on failure.
std::unique_ptr<Connection> tcp_connect(const std::string& host,
                                        std::uint16_t port);

}  // namespace finehmm::server
