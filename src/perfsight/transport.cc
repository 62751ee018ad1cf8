#include "perfsight/transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstddef>
#include <cstring>

#include "perfsight/wire.h"

namespace perfsight::transport {

int64_t span_clock_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

namespace {

// Remaining milliseconds until `until`, rounded up and clamped to >= 0 for
// poll(): a truncated timeout would wake up to 1 ms before the deadline.
// time_point::max() is the "no deadline" sentinel (the subtraction would
// overflow); it polls in hour-long slices.
int remaining_ms(Clock::time_point until) {
  constexpr int kSliceMs = 1000 * 60 * 60;
  if (until == Clock::time_point::max()) return kSliceMs;
  const int64_t left =
      std::chrono::ceil<std::chrono::milliseconds>(until - Clock::now())
          .count();
  return static_cast<int>(std::clamp<int64_t>(left, 0, kSliceMs));
}

// Waits until fd is ready for `events`; false once the deadline has passed.
// EINTR and a timeout that fires before `until` retry against the same
// absolute deadline, so the wait never ends early.
bool poll_until(int fd, short events, Clock::time_point until) {
  for (;;) {
    pollfd p{fd, events, 0};
    int rc = ::poll(&p, 1, remaining_ms(until));
    if (rc > 0) return true;
    if (rc == 0) {
      if (Clock::now() >= until) return false;
      continue;
    }
    if (errno != EINTR) return false;
  }
}

// The most one recv reads when the kernel holds more than a call owes: a
// whole fleet batch reply fits, so its frames are then served from
// held-back bytes, and a peer flooding the socket cannot grow the buffer
// without bound.
constexpr size_t kReadAhead = 64 * 1024;

void set_fd_nonblocking(int fd, bool on) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return;
  if (on) {
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  } else {
    ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
  }
}

void tune_stream(int fd, const Endpoint& ep) {
  if (ep.kind == Endpoint::Kind::kTcp) {
    int one = 1;
    // Request/response framing: batch replies must not sit in Nagle's
    // buffer waiting for a payload that is never coming.
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
}

Status errno_status(const std::string& what) {
  return Status::unavailable(what + ": " + std::strerror(errno));
}

struct SockAddr {
  sockaddr_storage storage = {};
  socklen_t len = 0;
  int family = AF_INET;
};

Result<SockAddr> to_sockaddr(const Endpoint& ep) {
  SockAddr sa;
  if (ep.kind == Endpoint::Kind::kTcp) {
    auto* in = reinterpret_cast<sockaddr_in*>(&sa.storage);
    in->sin_family = AF_INET;
    in->sin_port = htons(ep.port);
    if (::inet_pton(AF_INET, ep.host.c_str(), &in->sin_addr) != 1) {
      return Status::invalid_argument("transport: bad IPv4 address: " +
                                      ep.host);
    }
    sa.len = sizeof(sockaddr_in);
    sa.family = AF_INET;
    return sa;
  }
  auto* un = reinterpret_cast<sockaddr_un*>(&sa.storage);
  un->sun_family = AF_UNIX;
  if (ep.path.size() + 1 > sizeof(un->sun_path)) {
    return Status::invalid_argument("transport: unix path too long: " +
                                    ep.path);
  }
  std::memcpy(un->sun_path, ep.path.c_str(), ep.path.size() + 1);
  sa.len = static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) +
                                  ep.path.size() + 1);
  sa.family = AF_UNIX;
  return sa;
}

}  // namespace

// --- Endpoint ----------------------------------------------------------------

Endpoint Endpoint::tcp(std::string host, uint16_t port) {
  Endpoint ep;
  ep.kind = Kind::kTcp;
  ep.host = std::move(host);
  ep.port = port;
  return ep;
}

Endpoint Endpoint::unix_path(std::string path) {
  Endpoint ep;
  ep.kind = Kind::kUnix;
  ep.path = std::move(path);
  return ep;
}

Result<Endpoint> Endpoint::parse(const std::string& spec) {
  if (spec.rfind("unix:", 0) == 0) {
    std::string path = spec.substr(5);
    if (path.empty()) {
      return Status::invalid_argument("transport: empty unix path in '" +
                                      spec + "'");
    }
    return unix_path(std::move(path));
  }
  if (spec.rfind("tcp:", 0) == 0) {
    size_t colon = spec.rfind(':');
    if (colon == 3) {
      return Status::invalid_argument("transport: missing port in '" + spec +
                                      "'");
    }
    std::string host = spec.substr(4, colon - 4);
    std::string_view port_sv(spec.data() + colon + 1,
                             spec.size() - colon - 1);
    uint16_t port = 0;
    auto [ptr, ec] = std::from_chars(port_sv.data(),
                                     port_sv.data() + port_sv.size(), port);
    if (ec != std::errc() || ptr != port_sv.data() + port_sv.size() ||
        host.empty()) {
      return Status::invalid_argument("transport: bad tcp endpoint '" + spec +
                                      "' (want tcp:<host>:<port>)");
    }
    return tcp(std::move(host), port);
  }
  return Status::invalid_argument(
      "transport: unknown endpoint scheme in '" + spec +
      "' (want tcp:<host>:<port> or unix:<path>)");
}

std::string Endpoint::to_string() const {
  if (kind == Kind::kUnix) return "unix:" + path;
  return "tcp:" + host + ":" + std::to_string(port);
}

// --- Socket ------------------------------------------------------------------

Socket::Socket(Socket&& o) noexcept
    : fd_(o.fd_), held_(std::move(o.held_)), held_at_(o.held_at_) {
  o.fd_ = -1;
  o.drop_held();
}

Socket& Socket::operator=(Socket&& o) noexcept {
  if (this != &o) {
    close();
    fd_ = o.fd_;
    held_ = std::move(o.held_);
    held_at_ = o.held_at_;
    o.fd_ = -1;
    o.drop_held();
  }
  return *this;
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  drop_held();
}

size_t Socket::take_held(size_t n, std::string* out) {
  const size_t k = std::min(n, held_bytes());
  if (k == 0) return 0;
  out->append(held_, held_at_, k);
  held_at_ += k;
  if (held_at_ == held_.size()) drop_held();
  return k;
}

void Socket::drop_held() {
  std::string().swap(held_);  // a drained reply gives its storage back
  held_at_ = 0;
}

void Socket::set_nonblocking(bool on) {
  if (fd_ >= 0) set_fd_nonblocking(fd_, on);
}

Status Socket::send_all(std::string_view bytes) {
  return send_all_until(bytes, Clock::time_point::max());
}

Status Socket::send_all(std::string_view bytes, WallDuration deadline) {
  return send_all_until(bytes, Clock::now() + deadline);
}

Status Socket::send_all_until(std::string_view bytes,
                              Clock::time_point until) {
  if (fd_ < 0) return Status::unavailable("transport: send on closed socket");
  size_t off = 0;
  while (off < bytes.size()) {
    // MSG_DONTWAIT: a blocking socket must not park us in the kernel past
    // the deadline; EAGAIN routes through the deadline-aware poll below.
    ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                       MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // The peer's receive window (or our send buffer) is full.  Wait for
      // space, but only until the deadline: a peer that never drains must
      // cost a bounded wait, not a wedged thread.
      if (!poll_until(fd_, POLLOUT, until)) {
        return Status::deadline_exceeded("transport: send deadline after " +
                                         std::to_string(off) + "/" +
                                         std::to_string(bytes.size()) +
                                         " bytes");
      }
      continue;
    }
    return errno_status("transport: send");
  }
  return Status::ok();
}

Status Socket::recv_exact(size_t n, std::string* out, WallDuration deadline) {
  return recv_exact_until(n, out, Clock::now() + deadline);
}

Status Socket::recv_exact_until(size_t n, std::string* out,
                                Clock::time_point until) {
  const size_t base = out->size();
  Status st = recv_at_least_until(n, out, until);
  if (st.is_ok()) hold_back(base + n, out);
  return st;
}

Status Socket::recv_at_least_until(size_t n, std::string* out,
                                   Clock::time_point until) {
  if (fd_ < 0) return Status::unavailable("transport: recv on closed socket");
  const size_t base = out->size();
  size_t got = take_held(n, out);
  while (got < n) {
    // Straight into the caller's buffer: what is still owed, or everything
    // the kernel has queued when that is more (up to kReadAhead), so a
    // reply takes a few recvs rather than two per frame and the buffer
    // grows only by what arrived.  MSG_DONTWAIT keeps a blocking socket
    // from parking us in the kernel past the deadline; only EAGAIN polls.
    int queued = 0;
    if (::ioctl(fd_, FIONREAD, &queued) < 0) queued = 0;
    const size_t room = std::max(
        n - got, std::min(static_cast<size_t>(std::max(queued, 0)), kReadAhead));
    if (out->size() < base + got + room) out->resize(base + got + room);
    ssize_t r = ::recv(fd_, out->data() + base + got, room, MSG_DONTWAIT);
    if (r > 0) {
      got += static_cast<size_t>(r);
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    Status st = Status::ok();
    if (r < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
      st = errno_status("transport: recv");
    } else if (r < 0) {
      if (poll_until(fd_, POLLIN, until)) continue;
      st = Status::deadline_exceeded("transport: read deadline after " +
                                     std::to_string(got) + "/" +
                                     std::to_string(n) + " bytes");
    } else {
      st = Status::unavailable("transport: peer closed after " +
                               std::to_string(got) + "/" +
                               std::to_string(n) + " bytes");
    }
    out->resize(base + got);
    return st;
  }
  out->resize(base + got);
  return Status::ok();
}

void Socket::hold_back(size_t from, std::string* out) {
  if (out->size() <= from) return;
  // Surplus only comes off the fd, which is read once the held-back bytes
  // are drained, so there is nothing held to keep in front of it.
  PS_CHECK(held_bytes() == 0);
  held_.assign(*out, from);
  held_at_ = 0;
  out->resize(from);
}

Result<size_t> Socket::read_some(std::string* out) {
  if (fd_ < 0) return Status::unavailable("transport: recv on closed socket");
  if (held_bytes() > 0) return take_held(held_bytes(), out);
  char buf[65536];
  for (;;) {
    ssize_t r = ::recv(fd_, buf, sizeof(buf), 0);
    if (r > 0) {
      out->append(buf, static_cast<size_t>(r));
      return static_cast<size_t>(r);
    }
    if (r == 0) return Status::unavailable("transport: peer closed");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return size_t{0};
    return errno_status("transport: recv");
  }
}

Result<size_t> Socket::write_some(std::string_view bytes) {
  if (fd_ < 0) return Status::unavailable("transport: send on closed socket");
  for (;;) {
    ssize_t n = ::send(fd_, bytes.data(), bytes.size(),
                       MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n >= 0) return static_cast<size_t>(n);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return size_t{0};
    return errno_status("transport: send");
  }
}

// --- Listener ----------------------------------------------------------------

Listener::~Listener() { close(); }

Listener::Listener(Listener&& o) noexcept : fd_(o.fd_), ep_(std::move(o.ep_)) {
  o.fd_ = -1;
}

Listener& Listener::operator=(Listener&& o) noexcept {
  if (this != &o) {
    close();
    fd_ = o.fd_;
    ep_ = std::move(o.ep_);
    o.fd_ = -1;
  }
  return *this;
}

void Listener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
    if (ep_.kind == Endpoint::Kind::kUnix) ::unlink(ep_.path.c_str());
  }
}

Result<Listener> Listener::listen(const Endpoint& ep) {
  Result<SockAddr> sa = to_sockaddr(ep);
  if (!sa.ok()) return sa.status();

  int fd = ::socket(sa.value().family, SOCK_STREAM, 0);
  if (fd < 0) return errno_status("transport: socket");

  if (ep.kind == Endpoint::Kind::kTcp) {
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  } else {
    // A previous run that died without cleanup leaves the socket file
    // behind; bind would fail EADDRINUSE on a path nobody is listening on.
    ::unlink(ep.path.c_str());
  }

  if (::bind(fd, reinterpret_cast<const sockaddr*>(&sa.value().storage),
             sa.value().len) < 0) {
    Status st = errno_status("transport: bind " + ep.to_string());
    ::close(fd);
    return st;
  }
  if (::listen(fd, 16) < 0) {
    Status st = errno_status("transport: listen");
    ::close(fd);
    return st;
  }

  Listener l;
  l.fd_ = fd;
  l.ep_ = ep;
  if (ep.kind == Endpoint::Kind::kTcp && ep.port == 0) {
    sockaddr_in bound = {};
    socklen_t blen = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &blen) == 0) {
      l.ep_.port = ntohs(bound.sin_port);
    }
  }
  return l;
}

Result<Socket> Listener::accept(WallDuration deadline) {
  if (fd_ < 0) return Status::unavailable("transport: accept on closed listener");
  const Clock::time_point until = Clock::now() + deadline;
  for (;;) {
    if (!poll_until(fd_, POLLIN, until)) {
      return Status::deadline_exceeded("transport: accept deadline on " +
                                       ep_.to_string());
    }
    int cfd = ::accept(fd_, nullptr, nullptr);
    if (cfd >= 0) {
      tune_stream(cfd, ep_);
      return Socket(cfd);
    }
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
    return errno_status("transport: accept");
  }
}

// --- connect -----------------------------------------------------------------

Result<Socket> connect(const Endpoint& ep, WallDuration deadline) {
  Result<SockAddr> sa = to_sockaddr(ep);
  if (!sa.ok()) return sa.status();

  int fd = ::socket(sa.value().family, SOCK_STREAM, 0);
  if (fd < 0) return errno_status("transport: socket");

  // Non-blocking connect: a black-holed SYN must respect the deadline, not
  // the kernel's multi-minute default.
  set_fd_nonblocking(fd, true);
  int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&sa.value().storage),
                     sa.value().len);
  if (rc < 0 && errno != EINPROGRESS) {
    Status st = errno_status("transport: connect " + ep.to_string());
    ::close(fd);
    return st;
  }
  if (rc < 0) {
    if (!poll_until(fd, POLLOUT, Clock::now() + deadline)) {
      ::close(fd);
      return Status::deadline_exceeded("transport: connect deadline to " +
                                       ep.to_string());
    }
    int err = 0;
    socklen_t elen = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &elen) < 0 || err != 0) {
      ::close(fd);
      return Status::unavailable("transport: connect " + ep.to_string() +
                                 ": " + std::strerror(err != 0 ? err : errno));
    }
  }
  set_fd_nonblocking(fd, false);
  tune_stream(fd, ep);
  return Socket(fd);
}

// --- framed reads ------------------------------------------------------------

BatchReadResult read_batch(Socket& s, WallDuration deadline) {
  BatchReadResult out;
  std::string& bytes = out.bytes;
  // ONE absolute deadline for the whole length-chain walk.  Passing the
  // relative `deadline` to every recv would restart the budget per step — a
  // peer trickling a frame at a time could then hold the reader for
  // frames × deadline instead of one.
  const Clock::time_point until = Clock::now() + deadline;
  // The walk runs over `bytes` in place: each step reads only when the
  // chain needs bytes that have not arrived yet, and whatever arrived with
  // them stays where it landed.
  auto need = [&](size_t total) {
    return bytes.size() >= total
               ? Status::ok()
               : s.recv_at_least_until(total - bytes.size(), &bytes, until);
  };

  // Header first: it carries the frame count the length chain hangs off.
  size_t end = wire::kBatchHeaderSize;
  Status st = need(end);
  if (!st.is_ok()) {
    out.status = st;
    return out;
  }
  size_t at = 0;
  uint32_t magic = 0, count = 0;
  if (!wire::get_u32(bytes, at, &magic) || magic != wire::kMagic ||
      !wire::get_u32(bytes, at, &count)) {
    out.status = Status::invalid_argument("transport: stream is not a PSB1 batch");
    return out;
  }

  for (uint32_t i = 0; i < count; ++i) {
    // Frame prefix: payload_len + checksum.
    st = need(end + wire::kFramePrefixSize);
    if (!st.is_ok()) {
      out.status = st;
      return out;
    }
    size_t fat = end;
    uint32_t payload_len = 0;
    wire::get_u32(bytes, fat, &payload_len);
    if (payload_len > wire::kMaxPayload) {
      // The chain is lying; anything further would be read at a wrong
      // offset.  Stop and let decode_batch/reconcile mark the loss.
      out.status = Status::invalid_argument(
          "transport: frame length " + std::to_string(payload_len) +
          " exceeds cap; stream corrupt");
      return out;
    }
    end += wire::kFramePrefixSize + payload_len;
    st = need(end);
    if (!st.is_ok()) {
      out.status = st;
      return out;
    }
  }
  // Whatever arrived behind the batch is the next read's.
  s.hold_back(end, &bytes);
  return out;
}

bool wait_readable(const Socket& s, WallDuration deadline) {
  if (s.fd() < 0) return false;
  if (s.held_bytes() > 0) return true;
  return poll_until(s.fd(), POLLIN, Clock::now() + deadline);
}

Result<std::string> read_message_bytes(Socket& s, WallDuration deadline) {
  std::string bytes;
  // Prefix and body share one absolute budget (same rationale as
  // read_batch: the deadline bounds the message, not each step).
  const Clock::time_point until = Clock::now() + deadline;
  Status st = s.recv_exact_until(wire::kMessagePrefixSize, &bytes, until);
  if (!st.is_ok()) return st;
  size_t at = 0;
  uint32_t magic = 0, len = 0;
  uint8_t kind = 0;
  if (!wire::get_u32(bytes, at, &magic) || magic != wire::kMessageMagic ||
      !wire::get_u8(bytes, at, &kind) || !wire::get_u32(bytes, at, &len) ||
      len > wire::kMaxPayload) {
    return Status::invalid_argument("transport: stream is not a PSM1 message");
  }
  st = s.recv_exact_until(len, &bytes, until);
  if (!st.is_ok()) return st;
  return bytes;
}

}  // namespace perfsight::transport
