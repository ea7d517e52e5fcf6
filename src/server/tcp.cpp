#include "server/tcp.hpp"

#include <cstdlib>

#if defined(__unix__) || defined(__APPLE__)
#define FINEHMM_HAVE_POSIX_SOCKETS 1
#else
#define FINEHMM_HAVE_POSIX_SOCKETS 0
#endif

#if FINEHMM_HAVE_POSIX_SOCKETS
#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstring>
#endif

namespace finehmm::server {

#if FINEHMM_HAVE_POSIX_SOCKETS

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw IoError(what + ": " + std::strerror(errno));
}

class TcpConnection final : public Connection {
 public:
  explicit TcpConnection(int fd) : fd_(fd) {
    // Request/response frames are small; Nagle only adds latency here.
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }

  ~TcpConnection() override {
    if (fd_ >= 0) ::close(fd_);
  }

  bool send_all(const void* data, std::size_t n) override {
    const std::uint8_t* p = static_cast<const std::uint8_t*>(data);
    std::size_t sent = 0;
    while (sent < n) {
      // MSG_NOSIGNAL: a dead peer yields EPIPE, not a process-killing
      // SIGPIPE, so the daemon survives clients vanishing mid-reply.
      const ssize_t r = ::send(fd_, p + sent, n - sent, MSG_NOSIGNAL);
      if (r < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      sent += static_cast<std::size_t>(r);
    }
    return true;
  }

  std::size_t recv_some(void* buf, std::size_t n) override {
    for (;;) {
      const ssize_t r = ::recv(fd_, buf, n, 0);
      if (r < 0) {
        if (errno == EINTR) continue;
        return 0;  // error == EOF for the framing layer
      }
      return static_cast<std::size_t>(r);
    }
  }

  void shutdown() override { ::shutdown(fd_, SHUT_RDWR); }

 private:
  int fd_;
};

}  // namespace

TcpListener::TcpListener(const std::string& host, std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw_errno("socket");

  int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd_);
    fd_ = -1;
    throw Error("tcp listen: bad IPv4 address '" + host + "'");
  }
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    const int e = errno;
    ::close(fd_);
    fd_ = -1;
    errno = e;
    throw_errno("bind " + host + ":" + std::to_string(port));
  }
  if (::listen(fd_, 64) < 0) {
    const int e = errno;
    ::close(fd_);
    fd_ = -1;
    errno = e;
    throw_errno("listen");
  }

  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0)
    port_ = ntohs(bound.sin_port);
}

TcpListener::~TcpListener() { close(); }

std::unique_ptr<Connection> TcpListener::accept() {
  for (;;) {
    const int client = ::accept(fd_.load(std::memory_order_acquire),
                                nullptr, nullptr);
    if (client >= 0) return std::make_unique<TcpConnection>(client);
    if (errno == EINTR) continue;
    return nullptr;  // listener closed (EBADF) or fatal — accept loop exits
  }
}

void TcpListener::close() {
  // Claim the fd exactly once, even if the drain thread and the
  // destructor both get here.
  const int fd = fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) {
    // shutdown() unblocks a thread parked in accept(); close() alone
    // does not reliably do that on Linux.
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

std::unique_ptr<Connection> tcp_connect(const std::string& host,
                                        std::uint16_t port) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const int rc =
      ::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints, &res);
  if (rc != 0)
    throw IoError("resolve '" + host + "': " + ::gai_strerror(rc));

  int fd = -1;
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd < 0)
    throw IoError("connect " + host + ":" + std::to_string(port) + ": " +
                std::strerror(errno));
  return std::make_unique<TcpConnection>(fd);
}

#else  // !FINEHMM_HAVE_POSIX_SOCKETS

TcpListener::TcpListener(const std::string&, std::uint16_t) {
  throw Error("TCP transport requires POSIX sockets on this platform");
}
TcpListener::~TcpListener() = default;
std::unique_ptr<Connection> TcpListener::accept() { return nullptr; }
void TcpListener::close() {}

std::unique_ptr<Connection> tcp_connect(const std::string&, std::uint16_t) {
  throw Error("TCP transport requires POSIX sockets on this platform");
}

#endif

bool parse_host_port(const std::string& s, std::string& host,
                     std::uint16_t& port) {
  const std::size_t colon = s.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= s.size())
    return false;
  const long p = std::atol(s.c_str() + colon + 1);
  if (p < 1 || p > 65535) return false;
  host = s.substr(0, colon);
  port = static_cast<std::uint16_t>(p);
  return true;
}

}  // namespace finehmm::server
