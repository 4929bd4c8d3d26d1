// cold_serve — the COLD prediction server (the online half of §5.2's
// offline/online split): maps the COLDARN1 arena that cold_train writes,
// builds one zero-copy ColdPredictor over it, and serves the JSON
// inference API over HTTP/1.1 from an epoll event loop. Any other file
// fails startup with exit code 1. TopComm rows come baked into the arena.
//
// Usage: cold_serve <model> [--port N] [--reactors N]
//                   [--idle-timeout-seconds N] [--cache N]
//                   [--max-inflight N] [--slow-request-ms N]
//
// --reactors picks the event-loop thread count (0 = one per hardware
// thread, capped at 16). --idle-timeout-seconds closes a connection on
// which no byte has moved either way for N seconds (0 = never): a
// keep-alive client idle between requests, or one that stopped reading its
// responses. Every request is answered on the thread that parsed it; a
// /v1/diffusion fan-out computes its post's topic posterior once and
// scores each candidate against it.
// Posteriors are kept per snapshot generation in one LRU of --cache
// entries, split over 8 mutex shards by key hash.
//
// --max-inflight enables load shedding: connections beyond N concurrently
// serviced ones are answered 503 + Retry-After instead of queueing (0 =
// accept everything; counted by the serve_shed_total metric).
//
// --slow-request-ms N logs any request slower than N ms with its method,
// path, latency and diffusion candidate count, logged as candidates (0
// disables the log).
//
// Endpoints: POST /v1/diffusion, /v1/topic_posterior, /v1/link,
// /v1/timestamp; GET /v1/influential_communities, /healthz, /metrics
// (Prometheus), /debug/vars (JSON telemetry snapshot with estimated
// latency quantiles); POST /admin/reload. SIGHUP also hot-reloads the snapshot
// from <model>; SIGINT/SIGTERM drain in-flight requests and exit.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "serve/http_server.h"
#include "serve/model_service.h"
#include "util/logging.h"

namespace {

volatile std::sig_atomic_t g_shutdown = 0;
volatile std::sig_atomic_t g_reload = 0;

void OnSignal(int sig) {
  if (sig == SIGHUP) {
    g_reload = 1;
  } else {
    g_shutdown = 1;
  }
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <model> [--port N=8080] [--reactors N=0] "
               "[--idle-timeout-seconds N=5] [--cache N=4096] "
               "[--max-inflight N=0] [--slow-request-ms N=0]\n",
               argv0);
  return 2;
}

bool ParseInt(const char* s, int min_value, int max_value, int* out) {
  if (s == nullptr || *s == '\0') return false;
  errno = 0;
  char* end = nullptr;
  long v = std::strtol(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || v < min_value ||
      v > max_value) {
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cold;
  if (argc < 2) return Usage(argv[0]);

  std::string model_path = argv[1];
  int port = 8080;
  int reactors = 0;
  int idle_timeout = 5;
  int cache = 4096;
  int max_inflight = 0;
  int slow_request_ms = 0;

  for (int i = 2; i < argc; ++i) {
    const char* arg = argv[i];
    auto next = [&](int min_value, int max_value, int* out) {
      return i + 1 < argc && ParseInt(argv[++i], min_value, max_value, out);
    };
    if (std::strcmp(arg, "--port") == 0) {
      if (!next(0, 65535, &port)) return Usage(argv[0]);
    } else if (std::strcmp(arg, "--reactors") == 0) {
      if (!next(0, 1024, &reactors)) return Usage(argv[0]);
    } else if (std::strcmp(arg, "--idle-timeout-seconds") == 0) {
      if (!next(0, 86400, &idle_timeout)) return Usage(argv[0]);
    } else if (std::strcmp(arg, "--cache") == 0) {
      if (!next(0, 1 << 24, &cache)) return Usage(argv[0]);
    } else if (std::strcmp(arg, "--max-inflight") == 0) {
      if (!next(0, 1 << 20, &max_inflight)) return Usage(argv[0]);
    } else if (std::strcmp(arg, "--slow-request-ms") == 0) {
      if (!next(0, 1 << 30, &slow_request_ms)) return Usage(argv[0]);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg);
      return Usage(argv[0]);
    }
  }

  serve::ModelServiceOptions service_options;
  service_options.model_path = model_path;
  service_options.posterior_cache_capacity = static_cast<size_t>(cache);
  service_options.slow_request_ms = slow_request_ms;

  serve::ModelService service(service_options);
  if (auto st = service.LoadFromFile(model_path); !st.ok()) {
    std::fprintf(stderr, "load: %s\n", st.ToString().c_str());
    return 1;
  }

  serve::HttpServerOptions server_options;
  server_options.port = port;
  server_options.num_reactors = reactors;
  server_options.idle_timeout_seconds = idle_timeout;
  server_options.max_inflight_requests = static_cast<size_t>(max_inflight);
  serve::HttpServer server(
      server_options,
      [&service](const serve::HttpRequest& request) {
        return service.Handle(request);
      });
  if (auto st = server.Start(); !st.ok()) {
    std::fprintf(stderr, "start: %s\n", st.ToString().c_str());
    return 1;
  }
  // The startup line tests/scripts parse to find the bound port.
  std::printf("cold_serve listening on 127.0.0.1:%d\n", server.port());
  std::fflush(stdout);

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  std::signal(SIGHUP, OnSignal);

  while (!g_shutdown) {
    if (g_reload) {
      g_reload = 0;
      if (auto st = service.Reload(); !st.ok()) {
        COLD_LOG(kError) << "SIGHUP reload failed (still serving previous "
                            "snapshot): "
                         << st.ToString();
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  COLD_LOG(kInfo) << "shutting down";
  server.Stop();
  return 0;
}
