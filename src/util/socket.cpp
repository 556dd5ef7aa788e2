#include "util/socket.hpp"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <stdexcept>

#include "obs/obs.hpp"

namespace haste::util {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + ::strerror(errno));
}

void set_nonblocking(int fd, bool enable) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return;
  ::fcntl(fd, F_SETFL, enable ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK));
}

/// Waits for `events` on `fd` up to `timeout_ms`; returns the revents mask
/// (0 on timeout). Restarts on EINTR.
short poll_one(int fd, short events, int timeout_ms) {
  struct pollfd entry = {fd, events, 0};
  int n;
  do {
    n = ::poll(&entry, 1, timeout_ms);
  } while (n < 0 && errno == EINTR);
  return n > 0 ? entry.revents : 0;
}

std::string endpoint_string(const struct sockaddr_in& addr) {
  char ip[INET_ADDRSTRLEN] = {0};
  ::inet_ntop(AF_INET, &addr.sin_addr, ip, sizeof(ip));
  return std::string(ip) + ":" + std::to_string(ntohs(addr.sin_port));
}

/// Resolves "host" to an IPv4 address (numeric or via getaddrinfo).
struct sockaddr_in resolve(const SocketAddress& address) {
  struct sockaddr_in out;
  ::memset(&out, 0, sizeof(out));
  out.sin_family = AF_INET;
  out.sin_port = htons(address.port);
  if (::inet_pton(AF_INET, address.host.c_str(), &out.sin_addr) == 1) return out;
  struct addrinfo hints;
  ::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  struct addrinfo* info = nullptr;
  const int rc = ::getaddrinfo(address.host.c_str(), nullptr, &hints, &info);
  if (rc != 0 || info == nullptr) {
    throw std::runtime_error("cannot resolve host \"" + address.host +
                             "\": " + ::gai_strerror(rc));
  }
  out.sin_addr = reinterpret_cast<struct sockaddr_in*>(info->ai_addr)->sin_addr;
  ::freeaddrinfo(info);
  return out;
}

}  // namespace

SocketAddress parse_socket_address(const std::string& text) {
  const std::size_t colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0) {
    throw std::invalid_argument("socket address must look like host:port, got \"" +
                                text + "\"");
  }
  SocketAddress address;
  address.host = text.substr(0, colon);
  const std::string port_text = text.substr(colon + 1);
  std::size_t consumed = 0;
  unsigned long port = 0;
  try {
    port = std::stoul(port_text, &consumed, 10);
  } catch (const std::exception&) {
    throw std::invalid_argument("malformed port in \"" + text + "\"");
  }
  if (consumed != port_text.size() || port > 65535) {
    throw std::invalid_argument("malformed port in \"" + text + "\"");
  }
  address.port = static_cast<std::uint16_t>(port);
  return address;
}

// --- TcpSocket ---------------------------------------------------------------

TcpSocket::TcpSocket(TcpSocket&& other) noexcept { *this = std::move(other); }

TcpSocket& TcpSocket::operator=(TcpSocket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    peer_ = std::move(other.peer_);
    outbox_ = std::move(other.outbox_);
    max_outbox_bytes_ = other.max_outbox_bytes_;
    other.fd_ = -1;
  }
  return *this;
}

TcpSocket::~TcpSocket() { close(); }

TcpSocket TcpSocket::connect(const std::string& address, int timeout_ms) {
  const SocketAddress parsed = parse_socket_address(address);
  const struct sockaddr_in target = resolve(parsed);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  ::fcntl(fd, F_SETFD, FD_CLOEXEC);

  // Non-blocking connect so an unreachable host honors timeout_ms instead of
  // the kernel's minutes-long default.
  set_nonblocking(fd, true);
  int rc = ::connect(fd, reinterpret_cast<const struct sockaddr*>(&target),
                     sizeof(target));
  if (rc != 0 && errno != EINPROGRESS) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("connect to " + address);
  }
  if (rc != 0) {
    const short revents = poll_one(fd, POLLOUT, timeout_ms);
    int error = 0;
    socklen_t len = sizeof(error);
    if (revents == 0 ||
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &error, &len) != 0 || error != 0) {
      ::close(fd);
      throw std::runtime_error("connect to " + address + ": " +
                               (revents == 0 ? "timed out" : ::strerror(error)));
    }
  }
  set_nonblocking(fd, false);  // worker-side sockets stay blocking

  TcpSocket socket;
  socket.fd_ = fd;
  struct sockaddr_in peer;
  socklen_t peer_len = sizeof(peer);
  if (::getpeername(fd, reinterpret_cast<struct sockaddr*>(&peer), &peer_len) == 0) {
    socket.peer_ = endpoint_string(peer);
  } else {
    socket.peer_ = address;
  }
  return socket;
}

bool TcpSocket::send_line(const std::string& line) {
  if (fd_ < 0) return false;
  outbox_.append(line);
  outbox_.push_back('\n');
  if (!flush(0)) return false;
  if (max_outbox_bytes_ > 0 && outbox_.size() > max_outbox_bytes_) {
    // The peer stopped draining its socket; an unbounded backlog here is
    // driver memory held hostage by one stalled worker. Kill the connection.
    // The overflow kill is contract: shard manifests surface this counter.
    HASTE_OBS_COUNTER_ADD("net.overflow", 1);
    close();
    return false;
  }
  return true;
}

bool TcpSocket::flush(int timeout_ms) {
  if (fd_ < 0) return false;
  while (!outbox_.empty()) {
    // MSG_NOSIGNAL: a dead peer yields EPIPE rather than killing the process.
    const ssize_t n = ::send(fd_, outbox_.data(), outbox_.size(), MSG_NOSIGNAL);
    if (n > 0) {
      outbox_.erase(0, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (timeout_ms <= 0) return true;  // peer is slow, not dead
      if (poll_one(fd_, POLLOUT, timeout_ms) == 0) return true;
      timeout_ms = 0;  // one poll round, then hand what fits to the kernel
      continue;
    }
    return false;  // EPIPE / ECONNRESET: the connection is gone
  }
  return true;
}

bool TcpSocket::write_all(const char* data, std::size_t size) {
  if (fd_ < 0) return false;
  std::size_t written = 0;
  while (written < size) {
    const ssize_t n = ::send(fd_, data + written, size - written, MSG_NOSIGNAL);
    if (n > 0) {
      written += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      poll_one(fd_, POLLOUT, 1000);
      continue;
    }
    return false;
  }
  return true;
}

void TcpSocket::shutdown_write() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

void TcpSocket::close(bool reset) {
  if (fd_ < 0) return;
  if (reset) {
    // SO_LINGER with zero timeout turns close() into an RST.
    struct linger hard = {1, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
  }
  ::close(fd_);
  fd_ = -1;
  outbox_.clear();
}

// --- TcpListener -------------------------------------------------------------

TcpListener::TcpListener(TcpListener&& other) noexcept { *this = std::move(other); }

TcpListener& TcpListener::operator=(TcpListener&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    host_ = std::move(other.host_);
    port_ = other.port_;
    other.fd_ = -1;
  }
  return *this;
}

TcpListener::~TcpListener() {
  if (fd_ >= 0) ::close(fd_);
}

TcpListener TcpListener::listen(const std::string& address, int backlog) {
  const SocketAddress parsed = parse_socket_address(address);
  const struct sockaddr_in local = resolve(parsed);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  ::fcntl(fd, F_SETFD, FD_CLOEXEC);
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<const struct sockaddr*>(&local), sizeof(local)) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("bind " + address);
  }
  if (::listen(fd, backlog) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("listen " + address);
  }

  TcpListener listener;
  listener.fd_ = fd;
  listener.host_ = parsed.host;
  struct sockaddr_in bound;
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&bound), &len) == 0) {
    listener.port_ = ntohs(bound.sin_port);
  } else {
    listener.port_ = parsed.port;
  }
  return listener;
}

std::string TcpListener::local_address() const {
  return host_ + ":" + std::to_string(port_);
}

std::optional<TcpSocket> TcpListener::accept(int timeout_ms) {
  if (fd_ < 0) return std::nullopt;
  if ((poll_one(fd_, POLLIN, timeout_ms) & POLLIN) == 0) return std::nullopt;
  struct sockaddr_in peer;
  socklen_t peer_len = sizeof(peer);
  int fd;
  do {
    fd = ::accept(fd_, reinterpret_cast<struct sockaddr*>(&peer), &peer_len);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) return std::nullopt;
  ::fcntl(fd, F_SETFD, FD_CLOEXEC);
  // Driver-side sockets are non-blocking: the runner polls before reading
  // and drains outboxes opportunistically, so nothing may ever stall it.
  set_nonblocking(fd, true);
  TcpSocket socket;
  socket.fd_ = fd;
  socket.peer_ = endpoint_string(peer);
  return socket;
}

}  // namespace haste::util
