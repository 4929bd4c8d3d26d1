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
/// thread, logged by the slow-request log (set by HandleDiffusion, consumed
/// by Handle; 0 for every other endpoint).
thread_local int tls_request_candidates = 0;

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
      cache_(options_.posterior_cache_capacity, kCacheShards) {
  auto& registry = obs::Registry::Global();
  shard_metrics_.reserve(kCacheShards);
  for (size_t s = 0; s < kCacheShards; ++s) {
    obs::Labels labels{{"shard", std::to_string(s)}};
    shard_metrics_.push_back(
        ShardMetrics{registry.GetCounter("cold/serve/cache_hits", labels),
                     registry.GetCounter("cold/serve/cache_misses", labels),
                     registry.GetCounter("cold/serve/cache_evictions",
                                         labels)});
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
  Install(ViewPredictor(std::move(snapshot)), "coldarn1");
  COLD_LOG(kInfo) << "cold_serve loaded snapshot " << path << " (generation "
                  << generation() << ")";
  return cold::Status::OK();
}

void ModelService::SetPredictor(
    std::shared_ptr<const core::ColdPredictor> predictor) {
  Install(std::move(predictor), "in_memory");
}

void ModelService::Install(
    std::shared_ptr<const core::ColdPredictor> predictor,
    std::string format) {
  std::lock_guard<std::mutex> lock(reload_mutex_);
  auto next = std::make_shared<RouterState>();
  next->generation = generation_.load(std::memory_order_relaxed) + 1;
  next->format = std::move(format);
  next->predictor = std::move(predictor);

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
  cache_.Clear();
  ServiceMetrics().reloads->Increment();
}

std::shared_ptr<const core::ColdPredictor> ModelService::predictor() const {
  auto current = state();
  return current == nullptr ? nullptr : current->predictor;
}

HttpResponse ModelService::Handle(const HttpRequest& request) {
  auto start = std::chrono::steady_clock::now();
  const char* endpoint = "unknown";
  tls_request_candidates = 0;
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
                       << ", candidates " << tls_request_candidates << ")";
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
    const core::ColdPredictor& model, int64_t generation,
    text::UserId author, const std::vector<text::WordId>& words) {
  const std::string key = PosteriorKey(generation, author, words);
  const ShardMetrics& shard = shard_metrics_[cache_.ShardOf(key)];
  if (auto cached = cache_.Get(key)) {
    ServiceMetrics().hits->Increment();
    shard.hits->Increment();
    return cached;
  }
  ServiceMetrics().misses->Increment();
  shard.misses->Increment();
  auto posterior = std::make_shared<const std::vector<double>>(
      model.TopicPosterior(words, author));
  if (cache_.Put(key, posterior)) shard.evictions->Increment();
  return posterior;
}

HttpResponse ModelService::HandleDiffusion(const HttpRequest& request) {
  auto current = state();
  if (current == nullptr) return HttpResponse::Error(503, "no model loaded");
  const core::ColdPredictor& model = *current->predictor;
  const auto& est = model.estimates();

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
  tls_request_candidates = static_cast<int>(candidates.size());

  // Inline on this thread for one candidate or many: one cache-assisted
  // Eq. (5) posterior for the post, then one Eq. (7) dot product per
  // candidate over it.
  phase.emplace("serve/predict");
  auto posterior = PosteriorFor(model, current->generation, author, words);
  std::vector<double> probabilities;
  probabilities.reserve(candidates.size());
  for (text::UserId candidate : candidates) {
    double p = model.DiffusionFromPosterior(author, candidate, *posterior);
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
  if (current == nullptr) return HttpResponse::Error(503, "no model loaded");
  const core::ColdPredictor& model = *current->predictor;
  const auto& est = model.estimates();

  auto parsed = Json::Parse(request.body);
  if (!parsed.ok()) return HttpResponse::FromStatus(parsed.status());
  auto author = parsed->GetInt("author", 0, est.U - 1);
  if (!author.ok()) return HttpResponse::FromStatus(author.status());
  auto word_ids = parsed->GetIntArray("words", est.V);
  if (!word_ids.ok()) return HttpResponse::FromStatus(word_ids.status());

  auto posterior =
      PosteriorFor(model, current->generation,
                   static_cast<text::UserId>(*author), ToWordIds(*word_ids));
  Json payload = Json::MakeObject();
  payload.Set("posterior", DoubleArray(*posterior));
  return JsonResponse(200, payload);
}

HttpResponse ModelService::HandleLink(const HttpRequest& request) {
  auto current = state();
  if (current == nullptr) return HttpResponse::Error(503, "no model loaded");
  const core::ColdPredictor& model = *current->predictor;
  const auto& est = model.estimates();

  auto parsed = Json::Parse(request.body);
  if (!parsed.ok()) return HttpResponse::FromStatus(parsed.status());
  auto source = parsed->GetInt("source", 0, est.U - 1);
  if (!source.ok()) return HttpResponse::FromStatus(source.status());
  auto target = parsed->GetInt("target", 0, est.U - 1);
  if (!target.ok()) return HttpResponse::FromStatus(target.status());

  Json payload = Json::MakeObject();
  payload.Set("probability",
              model.LinkProbability(static_cast<text::UserId>(*source),
                                    static_cast<text::UserId>(*target)));
  return JsonResponse(200, payload);
}

HttpResponse ModelService::HandleTimestamp(const HttpRequest& request) {
  auto current = state();
  if (current == nullptr) return HttpResponse::Error(503, "no model loaded");
  const core::ColdPredictor& model = *current->predictor;
  const auto& est = model.estimates();

  auto parsed = Json::Parse(request.body);
  if (!parsed.ok()) return HttpResponse::FromStatus(parsed.status());
  auto author = parsed->GetInt("author", 0, est.U - 1);
  if (!author.ok()) return HttpResponse::FromStatus(author.status());
  auto word_ids = parsed->GetIntArray("words", est.V);
  if (!word_ids.ok()) return HttpResponse::FromStatus(word_ids.status());

  std::vector<double> scores = model.TimestampScores(
      ToWordIds(*word_ids), static_cast<text::UserId>(*author));
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
  int trials = request.QueryInt("trials", kInfluenceTrials);
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
  if (current == nullptr) {
    payload.Set("status", "no_model");
    return JsonResponse(503, payload);
  }
  const auto& est = current->predictor->estimates();
  payload.Set("status", "ok");
  payload.Set("generation", generation());
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
     << ",\"snapshot_format\":\""
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
