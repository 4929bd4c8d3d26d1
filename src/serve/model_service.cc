#include "serve/model_service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "apps/influence.h"
#include "obs/trace.h"
#include "serve/json.h"
#include "serve/snapshot_arena.h"
#include "util/logging.h"

namespace cold::serve {

namespace {

/// Diffusion candidates scored by the request currently handled on this
/// thread, logged as its batch size by the slow-request log (set by
/// HandleDiffusion, consumed by Handle; 0 for every other endpoint).
thread_local int tls_request_batch_size = 0;

/// Per-endpoint request counter + latency histogram + error counter, all
/// label-addressed members of three metric families.
struct EndpointMetrics {
  obs::Counter* requests;
  obs::Histogram* latency;
  obs::Counter* errors;
};

const EndpointMetrics& MetricsFor(const char* endpoint) {
  static std::mutex mutex;
  static std::unordered_map<std::string, EndpointMetrics> by_endpoint;
  std::lock_guard<std::mutex> lock(mutex);
  auto it = by_endpoint.find(endpoint);
  if (it == by_endpoint.end()) {
    auto& registry = obs::Registry::Global();
    obs::Labels labels{{"endpoint", endpoint}};
    it = by_endpoint
             .emplace(endpoint,
                      EndpointMetrics{
                          registry.GetCounter("cold/serve/requests", labels),
                          registry.GetHistogram("cold/serve/request_seconds",
                                                labels),
                          registry.GetCounter("cold/serve/errors", labels)})
             .first;
  }
  return it->second;
}

struct ServiceCounters {
  obs::Counter* hits;
  obs::Counter* misses;
  obs::Counter* reloads;
  obs::Counter* reload_failures;
  /// Duration of the RouterState pointer swap — the serving stall a
  /// hot-reload actually imposes (snapshot load/validate runs beforehand,
  /// off to the side).
  obs::Histogram* reload_swap;
};

ServiceCounters& ServiceMetrics() {
  auto& registry = obs::Registry::Global();
  static ServiceCounters metrics{
      registry.GetCounter("cold/serve/posterior_cache_hits"),
      registry.GetCounter("cold/serve/posterior_cache_misses"),
      registry.GetCounter("cold/serve/reloads"),
      registry.GetCounter("cold/serve/reload_failures"),
      registry.GetHistogram("cold/serve/reload_swap_seconds")};
  return metrics;
}

std::string PosteriorKey(int64_t generation, text::UserId author,
                         const std::vector<text::WordId>& words) {
  std::string key;
  key.reserve(16 + words.size() * 6);
  key += std::to_string(generation);
  key += ':';
  key += std::to_string(author);
  for (text::WordId w : words) {
    key += ',';
    key += std::to_string(w);
  }
  return key;
}

std::vector<text::WordId> ToWordIds(const std::vector<int>& ids) {
  return std::vector<text::WordId>(ids.begin(), ids.end());
}

Json DoubleArray(const std::vector<double>& values) {
  Json arr = Json::MakeArray();
  for (double v : values) arr.Append(v);
  return arr;
}

HttpResponse JsonResponse(int code, const Json& payload) {
  HttpResponse r;
  r.status_code = code;
  r.body = payload.Dump();
  return r;
}

}  // namespace

ModelService::ModelService(ModelServiceOptions options)
    : options_(std::move(options)),
      num_replicas_(std::max(1, options_.num_replicas)) {
  const size_t shards = std::max<size_t>(1, options_.cache_shards);
  const size_t per_replica =
      options_.posterior_cache_capacity == 0
          ? 0
          : (options_.posterior_cache_capacity +
             static_cast<size_t>(num_replicas_) - 1) /
                static_cast<size_t>(num_replicas_);
  auto& registry = obs::Registry::Global();
  caches_.reserve(static_cast<size_t>(num_replicas_));
  shard_metrics_.reserve(static_cast<size_t>(num_replicas_));
  for (int r = 0; r < num_replicas_; ++r) {
    caches_.push_back(std::make_unique<ShardedLruCache<std::vector<double>>>(
        per_replica, shards));
    std::vector<ShardMetrics> per_shard;
    per_shard.reserve(shards);
    for (size_t s = 0; s < shards; ++s) {
      obs::Labels labels{{"replica", std::to_string(r)},
                         {"shard", std::to_string(s)}};
      per_shard.push_back(
          ShardMetrics{registry.GetCounter("cold/serve/cache_hits", labels),
                       registry.GetCounter("cold/serve/cache_misses", labels),
                       registry.GetCounter("cold/serve/cache_evictions",
                                           labels)});
    }
    shard_metrics_.push_back(std::move(per_shard));
  }
}

cold::Status ModelService::LoadFromFile(const std::string& path) {
  if (path.empty()) {
    return cold::Status::InvalidArgument("no model path configured");
  }
  // Mapping and validation run before the swap, so serving continues at
  // full speed during a reload.
  auto mapped = ArenaSnapshot::Map(path);
  if (!mapped.ok()) {
    ServiceMetrics().reload_failures->Increment();
    return mapped.status();
  }
  std::shared_ptr<const ArenaSnapshot> snapshot =
      std::move(mapped).ValueOrDie();
  // Every replica is a zero-copy view pinning the same mmap; replica
  // count buys cache partitioning, not memory.
  std::vector<std::shared_ptr<const core::ColdPredictor>> replicas;
  replicas.reserve(static_cast<size_t>(num_replicas_));
  for (int r = 0; r < num_replicas_; ++r) {
    replicas.push_back(ViewPredictor(snapshot));
  }
  InstallReplicas(std::move(replicas), "coldarn1");
  COLD_LOG(kInfo) << "cold_serve loaded snapshot " << path << " (generation "
                  << generation() << ", " << num_replicas_ << " replicas)";
  return cold::Status::OK();
}

void ModelService::SetPredictor(
    std::shared_ptr<const core::ColdPredictor> predictor) {
  std::vector<std::shared_ptr<const core::ColdPredictor>> replicas(
      static_cast<size_t>(num_replicas_), std::move(predictor));
  InstallReplicas(std::move(replicas), "in_memory");
}

void ModelService::InstallReplicas(
    std::vector<std::shared_ptr<const core::ColdPredictor>> replicas,
    std::string format) {
  std::lock_guard<std::mutex> lock(reload_mutex_);
  auto next = std::make_shared<RouterState>();
  next->generation = generation_.load(std::memory_order_relaxed) + 1;
  next->format = std::move(format);
  next->replicas = std::move(replicas);

  // The previous generation is released after the lock, not under it.
  std::shared_ptr<const RouterState> previous;
  auto swap_start = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> router_lock(router_mutex_);
    previous = std::exchange(router_, std::move(next));
  }
  ServiceMetrics().reload_swap->Observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    swap_start)
          .count());

  generation_.fetch_add(1, std::memory_order_relaxed);
  // Posteriors are keyed by generation, so stale entries can never be
  // served; clearing just returns their memory promptly.
  for (auto& cache : caches_) cache->Clear();
  ServiceMetrics().reloads->Increment();
}

std::shared_ptr<const core::ColdPredictor> ModelService::predictor() const {
  auto current = state();
  if (current == nullptr || current->replicas.empty()) return nullptr;
  return current->replicas.front();
}

int ModelService::ReplicaFor(const RouterState& state, text::UserId author) {
  if (state.replicas.size() <= 1) return 0;
  // Home community: the author's strongest membership. TopComm is the
  // same on every replica (they view one snapshot), so replica 0 answers.
  auto top = state.replicas.front()->TopComm(author);
  int home = top.empty() ? 0 : top.front();
  if (home < 0) home = 0;
  return home % static_cast<int>(state.replicas.size());
}

int ModelService::ReplicaForAuthor(text::UserId author) const {
  auto current = state();
  if (current == nullptr || current->replicas.empty()) return 0;
  return ReplicaFor(*current, author);
}

HttpResponse ModelService::Handle(const HttpRequest& request) {
  auto start = std::chrono::steady_clock::now();
  const char* endpoint = "unknown";
  tls_request_batch_size = 0;
  HttpResponse response = Route(request, &endpoint);
  double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const EndpointMetrics& metrics = MetricsFor(endpoint);
  metrics.requests->Increment();
  metrics.latency->Observe(seconds);
  if (response.status_code >= 400) metrics.errors->Increment();
  if (options_.slow_request_ms > 0 &&
      seconds * 1000.0 >= static_cast<double>(options_.slow_request_ms)) {
    static obs::Counter* slow_requests =
        obs::Registry::Global().GetCounter("cold/serve/slow_requests");
    slow_requests->Increment();
    COLD_LOG(kWarning) << "slow request: " << request.method << " "
                       << request.path << " took "
                       << static_cast<int64_t>(seconds * 1000.0)
                       << "ms (status " << response.status_code
                       << ", batch_size " << tls_request_batch_size << ")";
  }
  return response;
}

HttpResponse ModelService::Route(const HttpRequest& request,
                                 const char** endpoint) {
  const std::string& path = request.path;
  const bool is_get = request.method == "GET";
  const bool is_post = request.method == "POST";

  if (path == "/healthz") {
    *endpoint = "healthz";
    if (!is_get) return HttpResponse::Error(405, "use GET");
    return HandleHealth();
  }
  if (path == "/metrics") {
    *endpoint = "metrics";
    if (!is_get) return HttpResponse::Error(405, "use GET");
    return HandleMetrics();
  }
  if (path == "/debug/vars") {
    *endpoint = "debug_vars";
    if (!is_get) return HttpResponse::Error(405, "use GET");
    return HandleDebugVars();
  }
  if (path == "/admin/reload") {
    *endpoint = "reload";
    if (!is_post) return HttpResponse::Error(405, "use POST");
    return HandleReload(request);
  }
  if (path == "/v1/influential_communities") {
    *endpoint = "influential_communities";
    if (!is_get) return HttpResponse::Error(405, "use GET");
    return HandleInfluentialCommunities(request);
  }
  if (path == "/v1/diffusion") {
    *endpoint = "diffusion";
    if (!is_post) return HttpResponse::Error(405, "use POST");
    return HandleDiffusion(request);
  }
  if (path == "/v1/topic_posterior") {
    *endpoint = "topic_posterior";
    if (!is_post) return HttpResponse::Error(405, "use POST");
    return HandleTopicPosterior(request);
  }
  if (path == "/v1/link") {
    *endpoint = "link";
    if (!is_post) return HttpResponse::Error(405, "use POST");
    return HandleLink(request);
  }
  if (path == "/v1/timestamp") {
    *endpoint = "timestamp";
    if (!is_post) return HttpResponse::Error(405, "use POST");
    return HandleTimestamp(request);
  }
  return HttpResponse::Error(404, "no such endpoint: " + path);
}

std::shared_ptr<const std::vector<double>> ModelService::PosteriorFor(
    const core::ColdPredictor& model, int replica, int64_t generation,
    text::UserId author, const std::vector<text::WordId>& words) {
  const std::string key = PosteriorKey(generation, author, words);
  auto& cache = *caches_[static_cast<size_t>(replica)];
  const ShardMetrics& shard =
      shard_metrics_[static_cast<size_t>(replica)][cache.ShardOf(key)];
  if (auto cached = cache.Get(key)) {
    ServiceMetrics().hits->Increment();
    shard.hits->Increment();
    return cached;
  }
  ServiceMetrics().misses->Increment();
  shard.misses->Increment();
  auto posterior = std::make_shared<const std::vector<double>>(
      model.TopicPosterior(words, author));
  if (cache.Put(key, posterior)) shard.evictions->Increment();
  return posterior;
}

HttpResponse ModelService::HandleDiffusion(const HttpRequest& request) {
  auto current = state();
  if (current == nullptr || current->replicas.empty()) {
    return HttpResponse::Error(503, "no model loaded");
  }
  const int64_t gen = current->generation;
  const auto& est = current->replicas.front()->estimates();

  // Sequential request phases as trace spans: emplace ends the previous
  // phase before the next begins, so the timeline shows parse -> predict
  // -> serialize back to back on this thread.
  std::optional<obs::TraceSpan> phase;
  phase.emplace("serve/parse");

  auto parsed = Json::Parse(request.body);
  if (!parsed.ok()) return HttpResponse::FromStatus(parsed.status());
  const Json& body = *parsed;

  auto publisher = body.GetInt("publisher", 0, est.U - 1);
  if (!publisher.ok()) return HttpResponse::FromStatus(publisher.status());
  auto word_ids = body.GetIntArray("words", est.V);
  if (!word_ids.ok()) return HttpResponse::FromStatus(word_ids.status());
  std::vector<text::WordId> words = ToWordIds(*word_ids);
  auto author = static_cast<text::UserId>(*publisher);

  // All candidates share the author, whose home community picks the
  // replica (and therefore the posterior cache) for the whole request.
  const int replica = ReplicaFor(*current, author);
  const auto& model = current->replicas[static_cast<size_t>(replica)];

  // Either one "candidate" or a fan-out "candidates" array.
  std::vector<text::UserId> candidates;
  bool single = body.Find("candidates") == nullptr;
  if (single) {
    auto candidate = body.GetInt("candidate", 0, est.U - 1);
    if (!candidate.ok()) return HttpResponse::FromStatus(candidate.status());
    candidates.push_back(static_cast<text::UserId>(*candidate));
  } else {
    auto ids = body.GetIntArray("candidates", est.U);
    if (!ids.ok()) return HttpResponse::FromStatus(ids.status());
    if (ids->empty()) {
      return HttpResponse::Error(400, "'candidates' must not be empty");
    }
    candidates.assign(ids->begin(), ids->end());
  }
  tls_request_batch_size = static_cast<int>(candidates.size());

  // Inline on this thread for one candidate or many: one cache-assisted
  // Eq. (5) posterior for the post, then one Eq. (7) dot product per
  // candidate over it.
  phase.emplace("serve/predict");
  auto posterior = PosteriorFor(*model, replica, gen, author, words);
  std::vector<double> probabilities;
  probabilities.reserve(candidates.size());
  for (text::UserId candidate : candidates) {
    double p = model->DiffusionFromPosterior(author, candidate, *posterior);
    if (std::isnan(p)) return HttpResponse::Error(500, "prediction failed");
    probabilities.push_back(p);
  }

  phase.emplace("serve/serialize");
  Json payload = Json::MakeObject();
  if (single) {
    payload.Set("probability", probabilities.front());
  } else {
    payload.Set("probabilities", DoubleArray(probabilities));
  }
  return JsonResponse(200, payload);
}

HttpResponse ModelService::HandleTopicPosterior(const HttpRequest& request) {
  auto current = state();
  if (current == nullptr || current->replicas.empty()) {
    return HttpResponse::Error(503, "no model loaded");
  }
  const auto& est = current->replicas.front()->estimates();

  auto parsed = Json::Parse(request.body);
  if (!parsed.ok()) return HttpResponse::FromStatus(parsed.status());
  auto author = parsed->GetInt("author", 0, est.U - 1);
  if (!author.ok()) return HttpResponse::FromStatus(author.status());
  auto word_ids = parsed->GetIntArray("words", est.V);
  if (!word_ids.ok()) return HttpResponse::FromStatus(word_ids.status());

  auto author_id = static_cast<text::UserId>(*author);
  const int replica = ReplicaFor(*current, author_id);
  auto posterior =
      PosteriorFor(*current->replicas[static_cast<size_t>(replica)], replica,
                   current->generation, author_id, ToWordIds(*word_ids));
  Json payload = Json::MakeObject();
  payload.Set("posterior", DoubleArray(*posterior));
  return JsonResponse(200, payload);
}

HttpResponse ModelService::HandleLink(const HttpRequest& request) {
  auto current = state();
  if (current == nullptr || current->replicas.empty()) {
    return HttpResponse::Error(503, "no model loaded");
  }
  const auto& est = current->replicas.front()->estimates();

  auto parsed = Json::Parse(request.body);
  if (!parsed.ok()) return HttpResponse::FromStatus(parsed.status());
  auto source = parsed->GetInt("source", 0, est.U - 1);
  if (!source.ok()) return HttpResponse::FromStatus(source.status());
  auto target = parsed->GetInt("target", 0, est.U - 1);
  if (!target.ok()) return HttpResponse::FromStatus(target.status());

  auto source_id = static_cast<text::UserId>(*source);
  const auto& model =
      current->replicas[static_cast<size_t>(ReplicaFor(*current, source_id))];
  Json payload = Json::MakeObject();
  payload.Set("probability",
              model->LinkProbability(source_id,
                                     static_cast<text::UserId>(*target)));
  return JsonResponse(200, payload);
}

HttpResponse ModelService::HandleTimestamp(const HttpRequest& request) {
  auto current = state();
  if (current == nullptr || current->replicas.empty()) {
    return HttpResponse::Error(503, "no model loaded");
  }
  const auto& est = current->replicas.front()->estimates();

  auto parsed = Json::Parse(request.body);
  if (!parsed.ok()) return HttpResponse::FromStatus(parsed.status());
  auto author = parsed->GetInt("author", 0, est.U - 1);
  if (!author.ok()) return HttpResponse::FromStatus(author.status());
  auto word_ids = parsed->GetIntArray("words", est.V);
  if (!word_ids.ok()) return HttpResponse::FromStatus(word_ids.status());

  auto author_id = static_cast<text::UserId>(*author);
  const auto& model =
      current->replicas[static_cast<size_t>(ReplicaFor(*current, author_id))];
  std::vector<text::WordId> words = ToWordIds(*word_ids);
  std::vector<double> scores = model->TimestampScores(words, author_id);
  if (scores.empty()) return HttpResponse::Error(500, "prediction failed");
  int predicted = static_cast<int>(
      std::max_element(scores.begin(), scores.end()) - scores.begin());

  Json payload = Json::MakeObject();
  payload.Set("predicted", predicted);
  payload.Set("scores", DoubleArray(scores));
  return JsonResponse(200, payload);
}

HttpResponse ModelService::HandleInfluentialCommunities(
    const HttpRequest& request) {
  auto model = predictor();
  if (model == nullptr) return HttpResponse::Error(503, "no model loaded");
  const auto& est = model->estimates();

  int topic = request.QueryInt("topic", 0);
  if (topic < 0 || topic >= est.K) {
    return HttpResponse::Error(
        422, "topic must be in [0, " + std::to_string(est.K) + ")");
  }
  int n = request.QueryInt("n", 5);
  if (n < 1) n = 1;
  if (n > est.C) n = est.C;
  int trials = request.QueryInt("trials", options_.influence_trials);
  if (trials < 1) trials = 1;
  if (trials > 100000) trials = 100000;

  // Deterministic seed: identical queries return identical rankings.
  auto ranked = apps::RankCommunitiesByInfluence(est, topic, trials,
                                                 /*seed=*/0x5EEDC01Dull);
  Json communities = Json::MakeArray();
  for (int i = 0; i < n && i < static_cast<int>(ranked.size()); ++i) {
    Json entry = Json::MakeObject();
    entry.Set("community", ranked[static_cast<size_t>(i)].community);
    entry.Set("influence_degree",
              ranked[static_cast<size_t>(i)].influence_degree);
    entry.Set("topic_interest",
              ranked[static_cast<size_t>(i)].topic_interest);
    communities.Append(std::move(entry));
  }
  Json payload = Json::MakeObject();
  payload.Set("topic", topic);
  payload.Set("trials", trials);
  payload.Set("communities", std::move(communities));
  return JsonResponse(200, payload);
}

HttpResponse ModelService::HandleHealth() {
  auto current = state();
  Json payload = Json::MakeObject();
  if (current == nullptr || current->replicas.empty()) {
    payload.Set("status", "no_model");
    return JsonResponse(503, payload);
  }
  const auto& est = current->replicas.front()->estimates();
  payload.Set("status", "ok");
  payload.Set("generation", generation());
  payload.Set("replicas", static_cast<int64_t>(current->replicas.size()));
  payload.Set("snapshot_format", current->format);
  Json dims = Json::MakeObject();
  dims.Set("users", est.U);
  dims.Set("communities", est.C);
  dims.Set("topics", est.K);
  dims.Set("time_slices", est.T);
  dims.Set("vocabulary", est.V);
  payload.Set("model", std::move(dims));
  return JsonResponse(200, payload);
}

HttpResponse ModelService::HandleMetrics() {
  std::ostringstream os;
  obs::Registry::Global().DumpPrometheusText(os);
  return HttpResponse::Text(200, os.str(),
                            "text/plain; version=0.0.4; charset=utf-8");
}

HttpResponse ModelService::HandleDebugVars() {
  // The full telemetry snapshot as JSON (histograms include estimated
  // p50/p90/p99), expvar-style, plus a couple of service-level fields.
  auto current = state();
  std::ostringstream vars;
  obs::Registry::Global().DumpJson(vars);
  std::ostringstream os;
  os << "{\"generation\":" << generation()
     << ",\"model_loaded\":" << (current != nullptr ? "true" : "false")
     << ",\"replicas\":" << num_replicas_ << ",\"snapshot_format\":\""
     << (current != nullptr ? current->format : "none")
     << "\",\"telemetry\":" << vars.str() << "}";
  HttpResponse r;
  r.status_code = 200;
  r.body = os.str();
  return r;
}

HttpResponse ModelService::HandleReload(const HttpRequest& request) {
  std::string path = options_.model_path;
  if (!request.body.empty()) {
    auto parsed = Json::Parse(request.body);
    if (!parsed.ok()) return HttpResponse::FromStatus(parsed.status());
    if (const Json* override_path = parsed->Find("path")) {
      if (!override_path->is_string()) {
        return HttpResponse::Error(400, "'path' must be a string");
      }
      path = override_path->as_string();
    }
  }
  if (cold::Status st = LoadFromFile(path); !st.ok()) {
    return HttpResponse::FromStatus(st);
  }
  return HandleHealth();
}

}  // namespace cold::serve
