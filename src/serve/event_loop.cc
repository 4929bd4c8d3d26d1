// HttpServer's serving core: a listener thread accepts and round-robins
// connections across N reactor threads. Each reactor owns one
// edge-triggered epoll fd and the full state of every connection assigned
// to it — read buffer, write buffer, parser position — so no lock is ever
// taken on the request path and a connection costs two strings instead of
// a parked thread.
//
// Per-connection state machine, driven by readiness edges:
//
//   readable  -> recv until EAGAIN into `in`
//             -> parse complete requests off the front of `in`
//                (serve/http.h's incremental parser), run the handler,
//                append each response to `out` while fewer than
//                max_buffered_out_bytes are unflushed (backpressure)
//             -> send `out` until EAGAIN; arm EPOLLOUT only while bytes
//                remain (edge-triggered writes are otherwise free)
//   writable  -> resume the same flush/process loop
//   idle      -> reaped by a periodic sweep once no byte has been read or
//                flushed for idle_timeout_seconds, which also bounds a
//                client that stopped reading (cold/serve/idle_closes)
//   drain     -> responses flip to Connection: close, idle connections
//                close immediately, stragglers are force-closed at the
//                drain deadline (cold/serve/connections_force_closed)
//
// Handlers run on the reactor thread: they are expected to be CPU-short
// (the ModelService fast path is microseconds), so reactor count bounds
// handler parallelism, not connection count.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "serve/http_server.h"
#include "util/logging.h"

namespace cold::serve {

namespace {

using Clock = std::chrono::steady_clock;

struct LoopMetrics {
  obs::Counter* connections;
  obs::Counter* malformed_requests;
  obs::Counter* dropped_at_shutdown;
  obs::Counter* shed;
  obs::Counter* idle_closes;
};

LoopMetrics& Metrics() {
  auto& registry = obs::Registry::Global();
  static LoopMetrics metrics{
      registry.GetCounter("cold/serve/connections"),
      registry.GetCounter("cold/serve/malformed_requests"),
      registry.GetCounter("cold/serve/connections_force_closed"),
      registry.GetCounter("cold/serve/shed_total"),
      registry.GetCounter("cold/serve/idle_closes")};
  return metrics;
}

/// Opens, binds and listens on 127.0.0.1:`port` (0 = ephemeral); returns
/// the fd and writes the bound port to `*bound_port`.
cold::Result<int> OpenListener(int port, int* bound_port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return cold::Status::IOError(std::string("socket: ") +
                                 std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    cold::Status st =
        cold::Status::IOError(std::string("bind: ") + std::strerror(errno));
    ::close(fd);
    return st;
  }
  if (::listen(fd, 512) != 0) {
    cold::Status st =
        cold::Status::IOError(std::string("listen: ") + std::strerror(errno));
    ::close(fd);
    return st;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    *bound_port = ntohs(addr.sin_port);
  }
  return fd;
}

}  // namespace

class HttpServer::Reactor {
 public:
  Reactor(const HttpServerOptions* options, const HttpHandler* handler,
          std::atomic<int>* active)
      : options_(options), handler_(handler), active_(active) {}

  ~Reactor() {
    if (event_fd_ >= 0) ::close(event_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
  }

  cold::Status Init() {
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) {
      return cold::Status::IOError(std::string("epoll_create1: ") +
                                   std::strerror(errno));
    }
    event_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (event_fd_ < 0) {
      return cold::Status::IOError(std::string("eventfd: ") +
                                   std::strerror(errno));
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = nullptr;  // The wakeup marker; connections carry a ptr.
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, event_fd_, &ev) != 0) {
      return cold::Status::IOError(std::string("epoll_ctl eventfd: ") +
                                   std::strerror(errno));
    }
    return cold::Status::OK();
  }

  void StartThread() {
    thread_ = std::thread([this] { Loop(); });
  }

  /// Hands a freshly accepted (already non-blocking) fd to this reactor.
  /// Called from the listener thread; the fd crosses threads through the
  /// mutexed queue and an eventfd poke.
  void Enqueue(int fd) {
    {
      std::lock_guard<std::mutex> lock(incoming_mutex_);
      incoming_.push_back(fd);
    }
    Wake();
  }

  void BeginDrain() {
    draining_.store(true, std::memory_order_release);
    Wake();
  }

  void RequestExit() {
    exiting_.store(true, std::memory_order_release);
    Wake();
  }

  void Join() {
    if (thread_.joinable()) thread_.join();
  }

  /// After Join(): force-close whatever outlived the drain deadline,
  /// including accepted fds never adopted into the loop.
  void CloseRemaining() {
    for (auto& [fd, conn] : conns_) {
      Metrics().dropped_at_shutdown->Increment();
      ::close(fd);
      active_->fetch_sub(1, std::memory_order_relaxed);
    }
    conns_.clear();
    std::lock_guard<std::mutex> lock(incoming_mutex_);
    for (int fd : incoming_) {
      Metrics().dropped_at_shutdown->Increment();
      ::close(fd);
      active_->fetch_sub(1, std::memory_order_relaxed);
    }
    incoming_.clear();
  }

 private:
  struct Connection {
    int fd = -1;
    std::string in;       // Unparsed request bytes.
    std::string out;      // Serialized, not-yet-flushed response bytes.
    size_t out_off = 0;   // Prefix of `out` already written to the socket.
    Clock::time_point last_active;
    bool want_close = false;   // Close once `out` is flushed.
    bool saw_eof = false;      // Peer half-closed; answer then close.
    bool write_armed = false;  // EPOLLOUT currently requested.
  };

  enum class ProcessResult { kNeedMore, kBlocked };
  enum class FlushResult { kDone, kPending, kError };

  void Wake() {
    uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(event_fd_, &one, sizeof(one));
  }

  void Loop() {
    constexpr int kMaxEvents = 64;
    epoll_event events[kMaxEvents];
    while (!exiting_.load(std::memory_order_acquire)) {
      int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, 100);
      if (n < 0) {
        if (errno == EINTR) continue;
        COLD_LOG(kWarning) << "epoll_wait: " << std::strerror(errno);
        break;
      }
      AdoptIncoming();
      for (int i = 0; i < n; ++i) {
        if (events[i].data.ptr == nullptr) {
          uint64_t buf;
          while (::read(event_fd_, &buf, sizeof(buf)) > 0) {
          }
          continue;
        }
        HandleEvent(static_cast<Connection*>(events[i].data.ptr),
                    events[i].events);
      }
      if (draining_.load(std::memory_order_acquire)) {
        DrainSweep();
      } else {
        SweepIdle();
      }
    }
  }

  void AdoptIncoming() {
    std::vector<int> fds;
    {
      std::lock_guard<std::mutex> lock(incoming_mutex_);
      fds.swap(incoming_);
    }
    for (int fd : fds) {
      auto conn = std::make_unique<Connection>();
      conn->fd = fd;
      conn->last_active = Clock::now();
      Connection* c = conn.get();
      epoll_event ev{};
      ev.events = EPOLLIN | EPOLLRDHUP | EPOLLET;
      ev.data.ptr = c;
      if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
        ::close(fd);
        active_->fetch_sub(1, std::memory_order_relaxed);
        continue;
      }
      conns_.emplace(fd, std::move(conn));
      // Edge-triggered: bytes that raced the EPOLL_CTL_ADD would otherwise
      // never edge again, so poke the read path once.
      HandleEvent(c, EPOLLIN);
    }
  }

  void HandleEvent(Connection* c, uint32_t ev) {
    if ((ev & (EPOLLERR | EPOLLHUP)) != 0) {
      Close(c);
      return;
    }
    if ((ev & (EPOLLIN | EPOLLRDHUP)) != 0 && !ReadInto(c)) {
      Close(c);
      return;
    }
    // Alternate parse/handle and flush until the connection is waiting on
    // the peer again. A full flush lifts write backpressure, which is the
    // one case where Process() must run again in the same pass.
    for (;;) {
      ProcessResult pr = Process(c);
      FlushResult fr = Flush(c);
      if (fr == FlushResult::kError) {
        Close(c);
        return;
      }
      if (fr == FlushResult::kPending) return;  // EPOLLOUT will resume us.
      if (c->want_close) {
        Close(c);
        return;
      }
      if (pr != ProcessResult::kBlocked) break;
    }
    if (c->saw_eof) Close(c);  // Half-closed and fully answered.
  }

  /// Reads until EAGAIN (edge-triggered contract). Returns false on a
  /// fatal socket error; EOF is recorded, not fatal, so a half-closing
  /// client still gets its last response.
  bool ReadInto(Connection* c) {
    char chunk[16384];
    for (;;) {
      ssize_t n = ::recv(c->fd, chunk, sizeof(chunk), 0);
      if (n > 0) {
        c->in.append(chunk, static_cast<size_t>(n));
        c->last_active = Clock::now();
        // A flood of pipelined bytes the handler can't keep up with is
        // protocol abuse, not load; cap the backlog at two max requests.
        if (c->in.size() >
            2 * (options_->limits.max_header_bytes +
                 options_->limits.max_body_bytes)) {
          return false;
        }
        continue;
      }
      if (n == 0) {
        c->saw_eof = true;
        return true;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      return false;
    }
  }

  ProcessResult Process(Connection* c) {
    while (!c->want_close) {
      // Backpressure: stop producing responses a slow reader isn't
      // consuming; the unparsed requests stay in `in` until `out` drains.
      if (c->out.size() - c->out_off >= options_->max_buffered_out_bytes) {
        return ProcessResult::kBlocked;
      }
      HttpRequest request;
      auto parsed = ParseHttpRequest(&c->in, &request, options_->limits);
      if (!parsed.ok()) {
        Metrics().malformed_requests->Increment();
        AppendHttpResponse(
            &c->out, HttpResponse::Error(400, parsed.status().message()),
            /*close_connection=*/true);
        c->want_close = true;
        break;
      }
      if (*parsed == HttpParseState::kNeedMore) break;
      c->last_active = Clock::now();
      HttpResponse response = (*handler_)(request);
      bool keep = request.keep_alive() &&
                  !draining_.load(std::memory_order_relaxed);
      AppendHttpResponse(&c->out, response, !keep);
      if (!keep) c->want_close = true;
    }
    return ProcessResult::kNeedMore;
  }

  FlushResult Flush(Connection* c) {
    while (c->out_off < c->out.size()) {
      ssize_t n = ::send(c->fd, c->out.data() + c->out_off,
                         c->out.size() - c->out_off, MSG_NOSIGNAL);
      if (n > 0) {
        c->out_off += static_cast<size_t>(n);
        c->last_active = Clock::now();
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        ArmWrite(c, true);
        return FlushResult::kPending;
      }
      return FlushResult::kError;
    }
    c->out.clear();
    c->out_off = 0;
    if (c->write_armed) ArmWrite(c, false);
    return FlushResult::kDone;
  }

  void ArmWrite(Connection* c, bool enable) {
    if (c->write_armed == enable) return;
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLRDHUP | EPOLLET | (enable ? EPOLLOUT : 0u);
    ev.data.ptr = c;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c->fd, &ev) == 0) {
      c->write_armed = enable;
    }
  }

  void Close(Connection* c) {
    ::close(c->fd);  // Also removes the fd from the epoll set.
    conns_.erase(c->fd);
    active_->fetch_sub(1, std::memory_order_relaxed);
  }

  void SweepIdle() {
    if (options_->idle_timeout_seconds <= 0) return;
    Clock::time_point now = Clock::now();
    if (now < next_sweep_) return;
    next_sweep_ = now + std::chrono::milliseconds(250);
    const auto limit = std::chrono::seconds(options_->idle_timeout_seconds);
    std::vector<Connection*> victims;
    for (auto& [fd, conn] : conns_) {
      if (now - conn->last_active > limit) victims.push_back(conn.get());
    }
    for (Connection* c : victims) {
      Metrics().idle_closes->Increment();
      Close(c);
    }
  }

  /// Drain: anything with no unflushed bytes can go now; connections
  /// mid-flush get until the drain deadline (then CloseRemaining).
  void DrainSweep() {
    std::vector<Connection*> victims;
    for (auto& [fd, conn] : conns_) {
      if (conn->out_off == conn->out.size()) victims.push_back(conn.get());
    }
    for (Connection* c : victims) Close(c);
  }

  const HttpServerOptions* options_;
  const HttpHandler* handler_;
  std::atomic<int>* active_;

  int epoll_fd_ = -1;
  int event_fd_ = -1;
  std::thread thread_;

  std::mutex incoming_mutex_;
  std::vector<int> incoming_;

  // Owned exclusively by the reactor thread (listener only touches the
  // incoming queue), so no lock guards them.
  std::unordered_map<int, std::unique_ptr<Connection>> conns_;
  std::atomic<bool> draining_{false};
  std::atomic<bool> exiting_{false};
  Clock::time_point next_sweep_ = Clock::now();
};

HttpServer::HttpServer(HttpServerOptions options, HttpHandler handler)
    : options_(std::move(options)), handler_(std::move(handler)) {}

HttpServer::~HttpServer() { Stop(); }

cold::Status HttpServer::Start() {
  if (running_.load()) {
    return cold::Status::FailedPrecondition("already running");
  }
  COLD_ASSIGN_OR_RETURN(listen_fd_, OpenListener(options_.port, &port_));
  // Non-blocking listener: the accept loop drains the whole backlog per
  // poll() wakeup and must get EAGAIN, not block, when it runs dry
  // (accepted fds do not inherit the flag and start out blocking).
  int lflags = ::fcntl(listen_fd_, F_GETFL, 0);
  ::fcntl(listen_fd_, F_SETFL, lflags | O_NONBLOCK);
  int num_reactors = options_.num_reactors;
  if (num_reactors <= 0) {
    unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    num_reactors = static_cast<int>(std::min(hw, 16u));
  }
  reactors_.clear();
  for (int r = 0; r < num_reactors; ++r) {
    auto reactor =
        std::make_unique<Reactor>(&options_, &handler_, &active_connections_);
    if (cold::Status st = reactor->Init(); !st.ok()) {
      reactors_.clear();
      ::close(listen_fd_);
      listen_fd_ = -1;
      return st;
    }
    reactors_.push_back(std::move(reactor));
  }
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  for (auto& r : reactors_) r->StartThread();
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  COLD_LOG(kInfo) << "cold_serve listening on 127.0.0.1:" << port_ << " ("
                  << num_reactors << " reactors)";
  return cold::Status::OK();
}

void HttpServer::Stop() {
  if (!running_.exchange(false)) return;
  stopping_.store(true, std::memory_order_release);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (auto& r : reactors_) r->BeginDrain();
  const Clock::time_point deadline =
      Clock::now() + std::chrono::seconds(options_.drain_timeout_seconds);
  while (active_connections_.load(std::memory_order_relaxed) > 0 &&
         Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (auto& r : reactors_) r->RequestExit();
  for (auto& r : reactors_) r->Join();
  for (auto& r : reactors_) r->CloseRemaining();
  reactors_.clear();
  COLD_LOG(kInfo) << "cold_serve stopped";
}

void HttpServer::AcceptLoop() {
  size_t next_reactor = 0;
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    int ready = ::poll(&pfd, 1, 200);
    if (ready < 0 && errno != EINTR) {
      COLD_LOG(kWarning) << "accept poll: " << std::strerror(errno);
    }
    if (ready <= 0) continue;
    // Drain the whole accept backlog per readiness wakeup.
    for (;;) {
      int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        break;  // EAGAIN (empty backlog) or a transient error.
      }
      if (stopping_.load(std::memory_order_acquire)) {
        ::close(fd);
        return;
      }
      Metrics().connections->Increment();

      // Load shedding: telling the client to back off now (503 +
      // Retry-After, answered from the listener thread while the fd is
      // still in blocking mode) beats queueing it behind the pile-up.
      if (options_.max_inflight_requests > 0 &&
          static_cast<size_t>(active_connections_.load(
              std::memory_order_relaxed)) >= options_.max_inflight_requests) {
        Metrics().shed->Increment();
        HttpResponse response =
            HttpResponse::Error(503, "server overloaded, retry later");
        response.headers.emplace("Retry-After", "1");
        WriteHttpResponse(fd, response, /*close_connection=*/true);
        ::close(fd);
        continue;
      }

      int flags = ::fcntl(fd, F_GETFL, 0);
      ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

      active_connections_.fetch_add(1, std::memory_order_relaxed);
      reactors_[next_reactor % reactors_.size()]->Enqueue(fd);
      ++next_reactor;
    }
  }
}

}  // namespace cold::serve
