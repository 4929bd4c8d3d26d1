// HTTP/1.1 server front for the prediction service: a non-blocking epoll
// event loop (src/serve/event_loop.cc). The listener thread accepts and
// round-robins connections across N reactor threads; each reactor owns
// one edge-triggered epoll fd plus the read/write buffers and parser
// state machine of every connection assigned to it, so thousands of
// keep-alive connections cost two buffers each instead of a parked
// thread.
//
// Slow and idle clients are bounded by the loop itself: a connection's
// unflushed response bytes are capped (max_buffered_out_bytes; further
// pipelined requests wait unparsed), a connection that makes no progress
// for idle_timeout_seconds is reaped (cold/serve/idle_closes), overload
// is shed at accept with 503 + Retry-After, and Stop() drains in-flight
// responses before closing.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/http.h"
#include "util/status.h"

namespace cold::serve {

/// \brief Server knobs; defaults favor tests (ephemeral port, loopback).
struct HttpServerOptions {
  /// 0 picks an ephemeral port; read it back via port() after Start().
  int port = 0;
  /// Reactor threads; 0 sizes to min(hardware threads, 16).
  int num_reactors = 0;
  /// Seconds a connection may go without reading a byte or flushing one
  /// before the reactor's sweep closes it: an idle keep-alive client and a
  /// client that stopped reading its responses alike. Counted by
  /// cold/serve/idle_closes.
  int idle_timeout_seconds = 5;
  /// Seconds Stop() waits for in-flight requests before force-closing.
  int drain_timeout_seconds = 10;
  /// Load shedding: when more than this many connections are already being
  /// serviced, new ones are answered straight from the accept path with
  /// 503 + Retry-After (0 = no shedding). Counted by cold/serve/shed_total.
  size_t max_inflight_requests = 0;
  /// Cap on a connection's unflushed response bytes; while above it,
  /// further pipelined requests are left unparsed in the read buffer
  /// (backpressure on slow readers).
  size_t max_buffered_out_bytes = 4u << 20;
  HttpLimits limits;
};

/// \brief The request handler: pure function of the parsed request.
/// Invoked concurrently from reactor threads; must be thread-safe.
using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

class HttpServer {
 public:
  HttpServer(HttpServerOptions options, HttpHandler handler);
  /// Stops the server if still running.
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// \brief Binds 127.0.0.1:port and starts the listener and reactors.
  cold::Status Start();

  /// \brief Graceful shutdown: stops accepting, waits up to
  /// drain_timeout_seconds for open connections to finish their in-flight
  /// request, then force-closes stragglers and joins all threads.
  /// Idempotent.
  void Stop();

  /// The bound port (valid after a successful Start()).
  int port() const { return port_; }

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Connections currently being serviced (observability/tests).
  int active_connections() const {
    return active_connections_.load(std::memory_order_relaxed);
  }

 private:
  class Reactor;  // One epoll thread and its connections (event_loop.cc).

  void AcceptLoop();

  const HttpServerOptions options_;
  const HttpHandler handler_;

  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<int> active_connections_{0};

  std::vector<std::unique_ptr<Reactor>> reactors_;
  std::thread accept_thread_;  // Uses reactors_, so declared after them.
};

}  // namespace cold::serve
