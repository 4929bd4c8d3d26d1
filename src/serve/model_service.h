// The COLD prediction service: JSON endpoints over a hot-swappable
// ColdPredictor snapshot (§5.2's online half).
//
//   POST /v1/diffusion                Eq. (7)  P(candidate retweets post)
//   POST /v1/topic_posterior          Eq. (5)  P(k | words, author)
//   POST /v1/link                     §6.2     link score P_{i->i'}
//   POST /v1/timestamp                §6.3     time-slice distribution
//   GET  /v1/influential_communities  §6.6     top communities per topic
//   GET  /healthz                     liveness + model dimensions
//   GET  /metrics                     Prometheus text exposition (src/obs)
//   GET  /debug/vars                  full JSON telemetry snapshot
//   POST /admin/reload                atomic snapshot hot-reload
//
// Posterior cache: the service holds one ColdPredictor per generation (a
// zero-copy view of the mapped COLDARN1 arena, or the in-memory predictor
// SetPredictor installs) and one ShardedLruCache of Eq. (5) posteriors
// keyed by (generation, author, words). The cache's kCacheShards mutexes
// spread reactor threads by key hash, so concurrent requests contend per
// shard, never on one global lock.
//
// Hot reload is an O(1) generation pointer swap: the new RouterState is
// fully constructed off to the side (its predictor is a zero-copy view
// into a fresh mmap of the COLDARN1 arena), then installed with
// one pointer swap under router_mutex_, which requests hold only to copy
// the pointer — cold/serve/reload_swap_seconds measures exactly that swap,
// which is why the p99 reload stall is microseconds. Requests pin the
// RouterState they copied, so a reload never invalidates an in-flight
// computation and old snapshots free themselves when their last request
// completes.
//
// Every /v1/diffusion request, single candidate or fan-out, computes inline
// on the thread that called Handle (an HttpServer reactor thread): one
// cache-assisted Eq. (5) posterior per post, then one
// DiffusionFromPosterior per candidate, so the O(K |w_d|) posterior is
// computed once per request and shared across its candidates.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/predictor.h"
#include "obs/metrics.h"
#include "serve/http.h"
#include "serve/lru_cache.h"
#include "util/status.h"

namespace cold::serve {

struct ModelServiceOptions {
  /// COLDARN1 arena reloaded by POST /admin/reload (without a "path"
  /// override) and by SIGHUP in the cold_serve tool. May be empty for
  /// in-process services constructed from estimates directly.
  std::string model_path;
  /// Nothing reads this: an arena's TopComm width is fixed in its header
  /// when it is saved. Kept only because e2ebench still sets it.
  int top_communities = 5;
  /// Nothing reads this: the service holds one predictor and one cache.
  /// Kept only because e2ebench still sets it.
  int num_replicas = 1;
  /// Entries in the posterior LRU; 0 disables caching.
  size_t posterior_cache_capacity = 4096;
  /// Requests slower than this are logged with method/path/latency and
  /// diffusion candidate count (the slow-request log); 0 disables it.
  int slow_request_ms = 0;
};

class ModelService {
 public:
  explicit ModelService(ModelServiceOptions options);

  ModelService(const ModelService&) = delete;
  ModelService& operator=(const ModelService&) = delete;

  /// \brief Maps and validates the COLDARN1 arena at `path`, builds one
  /// view predictor over it, and swaps it in atomically. Any other file is
  /// rejected, and on failure the previous model keeps serving.
  cold::Status LoadFromFile(const std::string& path);

  /// \brief Reloads from options.model_path (the SIGHUP path).
  cold::Status Reload() { return LoadFromFile(options_.model_path); }

  /// \brief Installs an in-memory predictor (tests, examples).
  void SetPredictor(std::shared_ptr<const core::ColdPredictor> predictor);

  /// \brief The current snapshot's predictor; nullptr before the first
  /// load.
  std::shared_ptr<const core::ColdPredictor> predictor() const;

  /// Number of successful swaps (initial load counts).
  int64_t generation() const {
    return generation_.load(std::memory_order_relaxed);
  }

  /// \brief The HTTP entry point, safe for concurrent calls; wire this
  /// into HttpServer as the handler.
  HttpResponse Handle(const HttpRequest& request);

 private:
  /// Mutex shards of the posterior cache.
  static constexpr size_t kCacheShards = 8;
  /// Monte-Carlo IC trials for /v1/influential_communities (§6.6) when the
  /// query sets no "trials".
  static constexpr int kInfluenceTrials = 64;

  /// One immutable generation of the service. Swapped wholesale by
  /// reloads.
  struct RouterState {
    int64_t generation = 0;
    /// "coldarn1" (mmap arena) or "in_memory" (SetPredictor).
    std::string format;
    std::shared_ptr<const core::ColdPredictor> predictor;
  };

  /// Per-shard cache counters exported as
  /// cold/serve/cache_{hits,misses,evictions}{shard=..}.
  struct ShardMetrics {
    obs::Counter* hits;
    obs::Counter* misses;
    obs::Counter* evictions;
  };

  HttpResponse Route(const HttpRequest& request, const char** endpoint);
  HttpResponse HandleDiffusion(const HttpRequest& request);
  HttpResponse HandleTopicPosterior(const HttpRequest& request);
  HttpResponse HandleLink(const HttpRequest& request);
  HttpResponse HandleTimestamp(const HttpRequest& request);
  HttpResponse HandleInfluentialCommunities(const HttpRequest& request);
  HttpResponse HandleHealth();
  HttpResponse HandleMetrics();
  HttpResponse HandleDebugVars();
  HttpResponse HandleReload(const HttpRequest& request);

  std::shared_ptr<const RouterState> state() const {
    std::lock_guard<std::mutex> lock(router_mutex_);
    return router_;
  }

  /// Builds the next generation around `predictor` and installs it with
  /// one pointer swap (timed by cold/serve/reload_swap_seconds).
  void Install(std::shared_ptr<const core::ColdPredictor> predictor,
               std::string format);

  /// Cache-assisted Eq. (5); never nullptr for validated inputs.
  std::shared_ptr<const std::vector<double>> PosteriorFor(
      const core::ColdPredictor& model, int64_t generation,
      text::UserId author, const std::vector<text::WordId>& words);

  const ModelServiceOptions options_;

  /// Held only to copy or swap router_. Not std::atomic<std::shared_ptr>:
  /// libstdc++ 12's load() releases that type's internal lock with a
  /// relaxed store, which orders the reader's pointer read before nothing,
  /// and ThreadSanitizer reports the next reload's write as a race.
  mutable std::mutex router_mutex_;
  std::shared_ptr<const RouterState> router_;
  std::atomic<int64_t> generation_{0};
  /// Serializes reloads (the swap itself is one pointer swap).
  std::mutex reload_mutex_;

  /// Stable across reloads (entries are generation-keyed, so stale hits
  /// are impossible).
  ShardedLruCache<std::vector<double>> cache_;
  std::vector<ShardMetrics> shard_metrics_;
};

}  // namespace cold::serve
