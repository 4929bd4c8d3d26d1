#include "load_client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <strings.h>

#include "spans.h"

namespace e2ebench {

namespace {

struct Conn {
  int fd = -1;
  bool busy = false;
  std::string out;
  size_t out_off = 0;
  std::string in;
  int64_t tag = 0;
  int64_t start_ns = 0;  // send or due time, whichever latency counts from
};

cold::Result<int> Connect(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return cold::Status::IOError("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return cold::Status::IOError(std::string("connect: ") +
                                 std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

/// Parses one complete response off the front of `in`. Returns false when
/// more bytes are needed; `*status` is -1 on a malformed response.
bool TakeResponse(std::string* in, int* status, std::string* body) {
  const size_t head_end = in->find("\r\n\r\n");
  if (head_end == std::string::npos) return false;
  *status = -1;
  if (in->compare(0, 7, "HTTP/1.") == 0 && in->size() > 12) {
    *status = std::atoi(in->c_str() + 9);
  }
  size_t content_length = 0;
  size_t line = in->find("\r\n");
  while (line != std::string::npos && line < head_end) {
    const size_t next = in->find("\r\n", line + 2);
    constexpr char kName[] = "content-length:";
    if (strncasecmp(in->c_str() + line + 2, kName, sizeof(kName) - 1) == 0) {
      content_length = static_cast<size_t>(
          std::strtoull(in->c_str() + line + 2 + sizeof(kName) - 1, nullptr,
                        10));
    }
    line = next;
  }
  const size_t total = head_end + 4 + content_length;
  if (in->size() < total) return false;
  body->assign(*in, head_end + 4, content_length);
  in->erase(0, total);
  return true;
}

bool Flush(Conn* c) {
  while (c->out_off < c->out.size()) {
    const ssize_t n = ::send(c->fd, c->out.data() + c->out_off,
                             c->out.size() - c->out_off, MSG_NOSIGNAL);
    if (n > 0) {
      c->out_off += static_cast<size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return true;
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

Connection::~Connection() { Close(); }

void Connection::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  in_.clear();
}

cold::Status Connection::Exchange(const std::string& request, int* status,
                                  std::string* body) {
  const bool reused = fd_ >= 0;
  cold::Status st = ExchangeOnce(request, status, body);
  if (!st.ok() && reused) {
    Close();
    st = ExchangeOnce(request, status, body);
  }
  if (!st.ok()) Close();
  return st;
}

cold::Status Connection::ExchangeOnce(const std::string& request, int* status,
                                      std::string* body) {
  if (fd_ < 0) {
    auto fd = Connect(port_);
    if (!fd.ok()) return fd.status();
    fd_ = *fd;
  }
  Conn c;
  c.fd = fd_;
  c.out = request;
  pollfd pfd{fd_, 0, 0};
  while (true) {
    if (!Flush(&c)) return cold::Status::IOError("send failed");
    if (TakeResponse(&in_, status, body)) return cold::Status::OK();
    pfd.events = POLLIN;
    if (c.out_off < c.out.size()) pfd.events |= POLLOUT;
    if (::poll(&pfd, 1, 10'000) <= 0) {
      return cold::Status::IOError("no answer within 10 s");
    }
    char buf[16384];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n == 0) return cold::Status::IOError("connection closed");
    if (n > 0) {
      in_.append(buf, static_cast<size_t>(n));
    } else if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      return cold::Status::IOError("recv failed");
    }
  }
}

std::string PostRequest(const std::string& path, const std::string& body) {
  std::string r = "POST " + path +
                  " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: "
                  "application/json\r\nContent-Length: ";
  r += std::to_string(body.size());
  r += "\r\n\r\n";
  r += body;
  return r;
}

int ReserveClientCpu() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (::sched_getaffinity(0, sizeof(mask), &mask) != 0 ||
      CPU_COUNT(&mask) < 3) {
    return -1;
  }
  int last = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &mask)) last = cpu;
  }
  CPU_CLR(last, &mask);
  return ::sched_setaffinity(0, sizeof(mask), &mask) == 0 ? last : -1;
}

IdleSpinners::IdleSpinners() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (::sched_getaffinity(0, sizeof(mask), &mask) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &mask)) continue;
    threads_.emplace_back([this, cpu] {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      sched_param param{};
      // A spinner that cannot be confined to its CPU at the lowest priority
      // would take time from the threads it is meant to serve; it ends.
      if (::pthread_setaffinity_np(::pthread_self(), sizeof(one), &one) != 0 ||
          ::pthread_setschedparam(::pthread_self(), SCHED_IDLE, &param) != 0) {
        return;
      }
      while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      }
    });
  }
}

IdleSpinners::~IdleSpinners() {
  stop_.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads_) t.join();
}

namespace {

/// Pins the calling thread to one CPU for its lifetime, then restores the
/// previous affinity.
class PinnedThread {
 public:
  explicit PinnedThread(int cpu) : pinned_(false) {
    if (cpu < 0 || ::sched_getaffinity(0, sizeof(saved_), &saved_) != 0) {
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = ::sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  ~PinnedThread() {
    if (pinned_) ::sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  PinnedThread(const PinnedThread&) = delete;
  PinnedThread& operator=(const PinnedThread&) = delete;

 private:
  bool pinned_;
  cpu_set_t saved_;
};

}  // namespace

cold::Status RunLoad(const LoadOptions& options, const NextRequest& next,
                     const OnAnswer& on_answer, LoadResult* result) {
  PinnedThread pin(options.client_cpu);
  std::vector<Conn> conns(static_cast<size_t>(std::max(1, options.connections)));
  for (Conn& c : conns) {
    auto fd = Connect(options.port);
    if (!fd.ok()) {
      for (Conn& open : conns) {
        if (open.fd >= 0) ::close(open.fd);
      }
      return fd.status();
    }
    c.fd = *fd;
  }
  const bool open_loop = options.rate > 0.0;
  const int64_t interval_ns =
      open_loop ? static_cast<int64_t>(1e9 / options.rate) : 0;
  const int64_t t0 = NowNs();
  const int64_t stop_ns = t0 + static_cast<int64_t>(options.seconds * 1e9);
  int64_t next_due = t0;
  int64_t seq = 0;
  int64_t last_done = t0;
  std::vector<pollfd> fds(conns.size());
  std::string body;
  int live = static_cast<int>(conns.size());

  auto send_on = [&](Conn* c, int64_t start_ns) -> bool {
    int64_t tag = 0;
    const std::string* bytes = next(seq, &tag);
    ++seq;
    if (bytes == nullptr) return false;
    c->out.assign(*bytes);
    c->out_off = 0;
    c->tag = tag;
    c->busy = true;
    c->start_ns = start_ns;
    result->sent++;
    if (!Flush(c)) {
      result->failed++;
      c->busy = false;
      ::close(c->fd);
      c->fd = -1;
      --live;
    }
    return true;
  };

  // The open loop sends every request due before the stop time, however
  // late; the closed loop stops sending at the stop time.
  bool exhausted = false;
  auto issuing_at = [&](int64_t now) {
    return !exhausted && (open_loop ? next_due : now) < stop_ns &&
           (options.max_requests == 0 || seq < options.max_requests);
  };
  while (true) {
    int64_t now = NowNs();
    const bool issuing = issuing_at(now);
    int busy = 0;
    if (issuing) {
      for (Conn& c : conns) {
        if (c.fd < 0 || c.busy) continue;
        if (open_loop) {
          if (next_due > now) break;
          result->lateness_s.push_back(static_cast<double>(now - next_due) *
                                       1e-9);
          if (!send_on(&c, next_due)) {
            exhausted = true;
            break;
          }
          next_due += interval_ns;
        } else if (!send_on(&c, now)) {
          exhausted = true;
          break;
        }
        if (options.max_requests > 0 && seq >= options.max_requests) break;
      }
    }
    for (const Conn& c : conns) busy += c.busy ? 1 : 0;
    if (live == 0) {
      return cold::Status::IOError("every load connection was lost");
    }
    const bool still_issuing = issuing_at(NowNs());
    if (!still_issuing && busy == 0) break;

    const int64_t wait_ns = 0;
    for (size_t i = 0; i < conns.size(); ++i) {
      fds[i].fd = conns[i].fd;
      fds[i].events = POLLIN;
      if (conns[i].fd >= 0 && conns[i].out_off < conns[i].out.size()) {
        fds[i].events |= POLLOUT;
      }
      fds[i].revents = 0;
    }
    timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                static_cast<long>(wait_ns % 1'000'000'000)};
    const int ready =
        ::ppoll(fds.data(), static_cast<nfds_t>(fds.size()), &ts, nullptr);
    if (ready < 0 && errno != EINTR) {
      return cold::Status::IOError("ppoll failed");
    }
    if (ready <= 0) continue;
    for (size_t i = 0; i < conns.size(); ++i) {
      Conn& c = conns[i];
      if (c.fd < 0 || fds[i].revents == 0) continue;
      bool lost = (fds[i].revents & (POLLERR | POLLNVAL)) != 0;
      if (!lost && (fds[i].revents & POLLOUT)) lost = !Flush(&c);
      if (!lost && (fds[i].revents & (POLLIN | POLLHUP))) {
        char buf[16384];
        while (true) {
          const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
          if (n > 0) {
            c.in.append(buf, static_cast<size_t>(n));
          } else if (n < 0 && errno == EINTR) {
            continue;
          } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            break;
          } else {
            lost = true;
            break;
          }
        }
        int status = 0;
        while (c.busy && TakeResponse(&c.in, &status, &body)) {
          const int64_t done = NowNs();
          c.busy = false;
          last_done = done;
          result->completed++;
          result->latency_s.push_back(static_cast<double>(done - c.start_ns) *
                                      1e-9);
          result->start_s.push_back(static_cast<double>(c.start_ns - t0) *
                                    1e-9);
          if (status != 200) result->failed++;
          on_answer(c.tag, status, body);
        }
      }
      if (lost) {
        if (c.busy) result->failed++;
        c.busy = false;
        ::close(c.fd);
        c.fd = -1;
        --live;
      }
    }
  }
  for (Conn& c : conns) {
    if (c.fd >= 0) ::close(c.fd);
  }
  result->elapsed_s = static_cast<double>(last_done - t0) * 1e-9;
  return cold::Status::OK();
}

}  // namespace e2ebench
