// serve_load — the serving-core load benchmark behind BENCH_serve.json
// and the bench_regression gate (DESIGN.md §11, §14).
//
// Starts the real ModelService + HttpServer in-process over a COLDARN1
// arena snapshot and drives it with a poll()-multiplexed non-blocking
// client: N keep-alive connections issuing single-candidate /v1/diffusion
// requests back to back. Scenarios sweep connection count, then two
// targeted runs:
//
//   reload — load with /admin-style hot reloads every 50ms; reports
//            sustained reload rate and the swap-stall quantiles from
//            cold/serve/reload_swap_seconds (the O(1) pointer-swap claim).
//   shed   — offered connections over max_inflight; reports the shed rate
//            and the surviving throughput.
//
// Emits: requests_per_sec + p50/p99/p999 latency per scenario (the
// *_per_sec keys are what bench_compare gates against
// bench/baselines/serve.json), reload stall, shed rate, and the host's
// hardware thread count. Latencies are also observed into the
// cold/bench/serve_latency_seconds histogram family (labels
// scenario/connections) so COLD_BENCH_METRICS snapshots carry them.
//
// Usage: serve_load [--smoke] [--out BENCH_serve.json]
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "core/model_io.h"
#include "core/predictor.h"
#include "serve/http_server.h"
#include "serve/model_service.h"

namespace cold::bench {
namespace {

using Clock = std::chrono::steady_clock;

struct LoadOptions {
  bool smoke = false;
  std::string out_path = "BENCH_serve.json";
};

core::ColdEstimates RandomEstimates(uint64_t seed, int U, int C, int K, int T,
                                    int V) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  core::ColdEstimates est;
  est.U = U;
  est.C = C;
  est.K = K;
  est.T = T;
  est.V = V;
  auto fill_rows = [&](std::vector<double>* out, int rows, int cols) {
    out->resize(static_cast<size_t>(rows) * static_cast<size_t>(cols));
    for (int r = 0; r < rows; ++r) {
      double sum = 0.0;
      for (int c = 0; c < cols; ++c) {
        double v = 0.05 + uniform(rng);
        (*out)[static_cast<size_t>(r) * cols + c] = v;
        sum += v;
      }
      for (int c = 0; c < cols; ++c) {
        (*out)[static_cast<size_t>(r) * cols + c] /= sum;
      }
    }
  };
  fill_rows(&est.pi, U, C);
  fill_rows(&est.theta, C, K);
  fill_rows(&est.eta, C, C);
  fill_rows(&est.phi, K, V);
  fill_rows(&est.psi, K * C, T);
  return est;
}

/// Pre-serialized keep-alive request pool: distinct (publisher, candidate,
/// words) tuples so the posterior cache sees realistic repeat traffic
/// rather than one key.
std::vector<std::string> BuildRequestPool(int U, int V, int pool_size) {
  std::mt19937_64 rng(7);
  std::vector<std::string> pool;
  pool.reserve(static_cast<size_t>(pool_size));
  for (int i = 0; i < pool_size; ++i) {
    int publisher = static_cast<int>(rng() % static_cast<uint64_t>(U));
    int candidate = static_cast<int>(rng() % static_cast<uint64_t>(U));
    std::string body = "{\"publisher\":" + std::to_string(publisher) +
                       ",\"candidate\":" + std::to_string(candidate) +
                       ",\"words\":[";
    for (int w = 0; w < 4; ++w) {
      if (w > 0) body += ',';
      body += std::to_string(rng() % static_cast<uint64_t>(V));
    }
    body += "]}";
    std::string request = "POST /v1/diffusion HTTP/1.1\r\nHost: l\r\n";
    request += "Content-Type: application/json\r\nContent-Length: " +
               std::to_string(body.size()) + "\r\n\r\n" + body;
    pool.push_back(std::move(request));
  }
  return pool;
}

struct ScenarioResult {
  std::string name;
  int connections = 0;
  double duration_seconds = 0.0;
  int64_t completed = 0;
  int64_t errors = 0;       // Non-200 responses (503s under shedding).
  int64_t reconnects = 0;   // Server-closed connections reopened.
  double requests_per_sec = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
};

class LoadClient {
 public:
  LoadClient(int port, const std::vector<std::string>* pool)
      : port_(port), pool_(pool) {}

  /// Runs `connections` keep-alive request loops for `seconds`, calling
  /// `tick` (may be empty) once per poll round — the reload scenario's
  /// hook. Returns latencies in milliseconds.
  ScenarioResult Run(int connections, double seconds,
                     const std::function<void()>& tick = {}) {
    std::vector<Conn> conns(static_cast<size_t>(connections));
    for (Conn& c : conns) Open(&c);
    latencies_.clear();
    latencies_.reserve(1 << 16);
    completed_ = errors_ = reconnects_ = 0;

    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    std::vector<pollfd> pfds(conns.size());
    while (Clock::now() < deadline) {
      if (tick) tick();
      for (size_t i = 0; i < conns.size(); ++i) {
        pfds[i].fd = conns[i].fd;
        pfds[i].events = conns[i].WantWrite() ? POLLOUT : POLLIN;
        pfds[i].revents = 0;
      }
      int ready = ::poll(pfds.data(), pfds.size(), 50);
      if (ready < 0 && errno != EINTR) break;
      for (size_t i = 0; i < conns.size(); ++i) {
        if (pfds[i].revents == 0) continue;
        if (!Step(&conns[i], pfds[i].revents)) {
          // Server closed (shed 503s close; drains close): reconnect and
          // keep offering load.
          ::close(conns[i].fd);
          conns[i] = Conn();
          ++reconnects_;
          Open(&conns[i]);
        }
      }
    }
    for (Conn& c : conns) {
      if (c.fd >= 0) ::close(c.fd);
    }

    ScenarioResult result;
    result.connections = connections;
    result.duration_seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    result.completed = completed_;
    result.errors = errors_;
    result.reconnects = reconnects_;
    result.requests_per_sec =
        static_cast<double>(completed_) / result.duration_seconds;
    std::sort(latencies_.begin(), latencies_.end());
    result.p50_ms = Percentile(0.50);
    result.p99_ms = Percentile(0.99);
    result.p999_ms = Percentile(0.999);
    return result;
  }

 private:
  struct Conn {
    int fd = -1;
    bool connecting = false;
    size_t out_off = 0;      // Progress through the current request.
    std::string in;          // Accumulated response bytes.
    size_t next_request = 0;
    Clock::time_point sent_at;
    bool awaiting_response = false;

    bool WantWrite() const { return connecting || !awaiting_response; }
  };

  void Open(Conn* c) {
    c->fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (c->fd < 0) return;
    int flags = ::fcntl(c->fd, F_GETFL, 0);
    ::fcntl(c->fd, F_SETFL, flags | O_NONBLOCK);
    int one = 1;
    ::setsockopt(c->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port_));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    int rc = ::connect(c->fd, reinterpret_cast<sockaddr*>(&addr),
                       sizeof(addr));
    c->connecting = rc != 0 && errno == EINPROGRESS;
    c->next_request = next_seed_++ % pool_->size();
  }

  /// Advances one connection; false means the connection died.
  bool Step(Conn* c, short revents) {
    if ((revents & (POLLERR | POLLHUP | POLLNVAL)) != 0 && !c->connecting) {
      return false;
    }
    if (c->connecting) {
      int err = 0;
      socklen_t len = sizeof(err);
      if (::getsockopt(c->fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
          err != 0) {
        return false;
      }
      c->connecting = false;
    }
    if (!c->awaiting_response) {
      const std::string& request = (*pool_)[c->next_request];
      if (c->out_off == 0) c->sent_at = Clock::now();
      while (c->out_off < request.size()) {
        ssize_t n = ::send(c->fd, request.data() + c->out_off,
                           request.size() - c->out_off, MSG_NOSIGNAL);
        if (n > 0) {
          c->out_off += static_cast<size_t>(n);
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
        if (n < 0 && errno == EINTR) continue;
        return false;
      }
      c->out_off = 0;
      c->awaiting_response = true;
    }
    // Read until the response (headers + Content-Length body) is whole.
    char chunk[8192];
    for (;;) {
      ssize_t n = ::recv(c->fd, chunk, sizeof(chunk), 0);
      if (n > 0) {
        c->in.append(chunk, static_cast<size_t>(n));
        continue;
      }
      if (n == 0) return false;  // Server closed mid-response or idle.
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return false;
    }
    size_t header_end = c->in.find("\r\n\r\n");
    if (header_end == std::string::npos) return true;
    size_t body_len = 0;
    {
      // Lowercased server emits "Content-Length:"; match either case.
      size_t pos = c->in.find("Content-Length:");
      if (pos == std::string::npos) pos = c->in.find("content-length:");
      if (pos != std::string::npos && pos < header_end) {
        body_len = static_cast<size_t>(
            std::strtol(c->in.c_str() + pos + 15, nullptr, 10));
      }
    }
    const size_t total = header_end + 4 + body_len;
    if (c->in.size() < total) return true;

    const bool ok = c->in.compare(9, 3, "200") == 0;
    double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - c->sent_at)
            .count();
    latencies_.push_back(ms);
    ++completed_;
    if (!ok) ++errors_;
    if (latency_hist_ != nullptr) latency_hist_->Observe(ms / 1000.0);
    c->in.erase(0, total);
    c->awaiting_response = false;
    c->next_request = next_seed_++ % pool_->size();
    return true;
  }

  double Percentile(double q) const {
    if (latencies_.empty()) return 0.0;
    size_t idx = static_cast<size_t>(q * (latencies_.size() - 1));
    return latencies_[idx];
  }

 public:
  void set_latency_histogram(obs::Histogram* hist) { latency_hist_ = hist; }

 private:
  int port_;
  const std::vector<std::string>* pool_;
  std::vector<double> latencies_;
  int64_t completed_ = 0;
  int64_t errors_ = 0;
  int64_t reconnects_ = 0;
  size_t next_seed_ = 0;
  obs::Histogram* latency_hist_ = nullptr;
};

serve::Json ScenarioJson(const ScenarioResult& r) {
  serve::Json obj = serve::Json::MakeObject();
  obj.Set("name", r.name);
  obj.Set("connections", r.connections);
  obj.Set("duration_seconds", r.duration_seconds);
  obj.Set("requests", r.completed);
  obj.Set("errors", r.errors);
  obj.Set("reconnects", r.reconnects);
  obj.Set("requests_per_sec", r.requests_per_sec);
  obj.Set("p50_ms", r.p50_ms);
  obj.Set("p99_ms", r.p99_ms);
  obj.Set("p999_ms", r.p999_ms);
  return obj;
}

ScenarioResult RunScenario(const std::string& name,
                           serve::ModelService* service, int connections,
                           double seconds,
                           const std::vector<std::string>* pool,
                           size_t max_inflight = 0,
                           const std::function<void()>& tick = {}) {
  serve::HttpServerOptions options;
  options.idle_timeout_seconds = 30;
  options.max_inflight_requests = max_inflight;
  serve::HttpServer server(options, [service](const serve::HttpRequest& req) {
    return service->Handle(req);
  });
  if (auto st = server.Start(); !st.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", st.ToString().c_str());
    std::exit(1);
  }

  LoadClient client(server.port(), pool);
  obs::Labels labels{{"scenario", name},
                     {"connections", std::to_string(connections)}};
  client.set_latency_histogram(obs::Registry::Global().GetHistogram(
      "cold/bench/serve_latency_seconds", labels));
  ScenarioResult result = client.Run(connections, seconds, tick);
  result.name = name;
  server.Stop();
  std::printf(
      "%-22s conns=%-4d  %9.0f req/s  p50 %6.2fms  p99 %6.2fms  "
      "p999 %6.2fms  errors=%lld\n",
      result.name.c_str(), connections,
      result.requests_per_sec, result.p50_ms, result.p99_ms, result.p999_ms,
      static_cast<long long>(result.errors));
  return result;
}

/// p-quantile of a live registry histogram, in seconds (NaN-safe: 0 when
/// empty).
double HistQuantile(const char* name, double q) {
  obs::Histogram* hist = obs::Registry::Global().GetHistogram(name);
  double value = obs::EstimateQuantile(hist->upper_bounds(),
                                       hist->bucket_counts(), q);
  return value == value ? value : 0.0;
}

int Run(const LoadOptions& options) {
  QuietLogs();
  const bool smoke = options.smoke;

  // Model scale: big enough that Eq. (5) is real work, small enough that
  // a smoke run stays under a second of setup on one core.
  const int U = smoke ? 200 : 1500;
  const int C = 8;
  const int K = smoke ? 8 : 12;
  const int T = smoke ? 8 : 16;
  const int V = smoke ? 500 : 4000;
  core::ColdEstimates estimates = RandomEstimates(11, U, C, K, T, V);

  // Serve from the COLDARN1 arena — the bench measures the production
  // zero-copy path, and the reload scenario needs the file anyway.
  std::string arena_path = "/tmp/cold_serve_load_" +
                           std::to_string(::getpid()) + ".arena";
  if (auto st = core::SaveArenaSnapshot(estimates, 5, arena_path); !st.ok()) {
    std::fprintf(stderr, "arena save failed: %s\n", st.ToString().c_str());
    return 1;
  }

  serve::ModelServiceOptions service_options;
  service_options.model_path = arena_path;
  service_options.posterior_cache_capacity = 4096;
  serve::ModelService service(service_options);
  if (auto st = service.LoadFromFile(arena_path); !st.ok()) {
    std::fprintf(stderr, "arena load failed: %s\n", st.ToString().c_str());
    ::unlink(arena_path.c_str());
    return 1;
  }

  std::vector<std::string> pool = BuildRequestPool(U, V, 64);
  const double seconds = smoke ? 0.3 : 1.2;
  const std::vector<int> conn_counts =
      smoke ? std::vector<int>{4, 16} : std::vector<int>{8, 64, 512};

  PrintHeader("serve_load: connection sweep");
  std::vector<ScenarioResult> scenarios;
  for (int conns : conn_counts) {
    scenarios.push_back(RunScenario("sweep", &service, conns, seconds, &pool));
  }

  PrintHeader("serve_load: hot reload under load");
  Clock::time_point next_reload = Clock::now();
  int64_t reloads = 0;
  const Clock::time_point reload_start = Clock::now();
  ScenarioResult reload_run = RunScenario(
      "reload", &service, smoke ? 4 : 64, seconds, &pool, 0, [&] {
        if (Clock::now() < next_reload) return;
        next_reload = Clock::now() + std::chrono::milliseconds(50);
        if (service.LoadFromFile(arena_path).ok()) ++reloads;
      });
  const double reload_elapsed =
      std::chrono::duration<double>(Clock::now() - reload_start).count();
  const double swap_p50_us =
      HistQuantile("cold/serve/reload_swap_seconds", 0.50) * 1e6;
  const double swap_p99_us =
      HistQuantile("cold/serve/reload_swap_seconds", 0.99) * 1e6;
  std::printf("reloads=%lld  swap stall p50 %.1fus  p99 %.1fus\n",
              static_cast<long long>(reloads), swap_p50_us, swap_p99_us);

  PrintHeader("serve_load: load shedding");
  // Shed rate comes from the server's own counter: shed connections are
  // usually closed before the client finishes parsing the 503, so the
  // client-side error count undercounts.
  obs::Counter* shed_counter =
      obs::Registry::Global().GetCounter("cold/serve/shed_total");
  const int64_t sheds_before = shed_counter->Value();
  const int shed_conns = smoke ? 8 : 64;
  ScenarioResult shed_run =
      RunScenario("shed", &service, shed_conns, seconds, &pool,
                  static_cast<size_t>(shed_conns) / 4);
  const int64_t sheds = shed_counter->Value() - sheds_before;
  const double offered =
      static_cast<double>(shed_run.completed) + static_cast<double>(sheds);
  const double shed_rate =
      offered > 0.0 ? static_cast<double>(sheds) / offered : 0.0;
  std::printf("shed rate %.3f (%lld shed of %.0f offered)\n", shed_rate,
              static_cast<long long>(sheds), offered);

  ::unlink(arena_path.c_str());

  serve::Json root = serve::Json::MakeObject();
  root.Set("bench", "serve_load");
  serve::Json model = serve::Json::MakeObject();
  model.Set("users", U);
  model.Set("vocab", V);
  root.Set("model", std::move(model));
  const unsigned hw_threads = std::max(1u, std::thread::hardware_concurrency());
  root.Set("hardware_threads", static_cast<double>(hw_threads));
  serve::Json arr = serve::Json::MakeArray();
  for (const ScenarioResult& r : scenarios) arr.Append(ScenarioJson(r));
  root.Set("scenarios", std::move(arr));
  serve::Json reload_obj = ScenarioJson(reload_run);
  reload_obj.Set("reloads", reloads);
  reload_obj.Set("reloads_per_sec",
                 reload_elapsed > 0.0
                     ? static_cast<double>(reloads) / reload_elapsed
                     : 0.0);
  reload_obj.Set("swap_stall_p50_us", swap_p50_us);
  reload_obj.Set("swap_stall_p99_us", swap_p99_us);
  root.Set("reload", std::move(reload_obj));
  serve::Json shed_obj = ScenarioJson(shed_run);
  shed_obj.Set("sheds", sheds);
  shed_obj.Set("shed_rate", shed_rate);
  root.Set("shed", std::move(shed_obj));

  if (!WriteJsonFile(root, options.out_path)) return 1;
  std::printf("results written to %s\n", options.out_path.c_str());

  if (smoke) {
    // Validation pass: reparse and sanity-check the emitted numbers.
    auto reparsed = LoadJsonFile(options.out_path);
    if (!reparsed.ok()) {
      std::fprintf(stderr, "smoke: %s\n",
                   reparsed.status().ToString().c_str());
      return 1;
    }
    const serve::Json* scen = reparsed->Find("scenarios");
    if (scen == nullptr || !scen->is_array() || scen->as_array().empty()) {
      std::fprintf(stderr, "smoke: no scenarios emitted\n");
      return 1;
    }
    for (const serve::Json& s : scen->as_array()) {
      const serve::Json* rps = s.Find("requests_per_sec");
      if (rps == nullptr || !rps->is_number() || rps->as_number() <= 0.0) {
        std::fprintf(stderr, "smoke: scenario with no throughput\n");
        return 1;
      }
    }
    // The headline claim: a hot reload stalls serving for microseconds,
    // not milliseconds. 1ms bound with slack for a loaded smoke box.
    const serve::Json* reload_node = reparsed->Find("reload");
    const serve::Json* stall =
        reload_node != nullptr ? reload_node->Find("swap_stall_p99_us")
                               : nullptr;
    if (stall == nullptr || !stall->is_number() ||
        stall->as_number() >= 1000.0) {
      std::fprintf(stderr, "smoke: reload swap stall p99 not under 1ms\n");
      return 1;
    }
    std::printf("smoke validation passed\n");
  }
  DumpTelemetryIfRequested();
  return 0;
}

}  // namespace
}  // namespace cold::bench

int main(int argc, char** argv) {
  cold::bench::LoadOptions options;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      options.smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      options.out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out PATH]\n", argv[0]);
      return 2;
    }
  }
  return cold::bench::Run(options);
}
