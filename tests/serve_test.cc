// Serving-layer tests: JSON parse/serialize, the LRU cache, and the HTTP
// server driven over a loopback socket — endpoint correctness against
// direct ColdPredictor calls, concurrent load, hot-reload under load,
// malformed input handling, and the event loop's slow-reader defences
// (pipelining backpressure, reaping a client that stopped reading).
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/cold.h"
#include "core/model_io.h"
#include "obs/metrics.h"
#include "serve/http.h"
#include "serve/http_server.h"
#include "serve/json.h"
#include "serve/lru_cache.h"
#include "serve/model_service.h"
#include "util/logging.h"
#include "util/net_io.h"
#include "util/rng.h"

namespace cold::serve {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Json

TEST(JsonTest, ParsesScalars) {
  EXPECT_TRUE(Json::Parse("null")->is_null());
  EXPECT_EQ(Json::Parse("true")->as_bool(), true);
  EXPECT_EQ(Json::Parse("false")->as_bool(), false);
  EXPECT_DOUBLE_EQ(Json::Parse("3.25")->as_number(), 3.25);
  EXPECT_DOUBLE_EQ(Json::Parse("-17")->as_number(), -17.0);
  EXPECT_DOUBLE_EQ(Json::Parse("1e3")->as_number(), 1000.0);
  EXPECT_EQ(Json::Parse("\"hi\"")->as_string(), "hi");
}

TEST(JsonTest, ParsesNested) {
  auto parsed = Json::Parse(
      R"({"a": [1, 2, {"b": "c"}], "d": {"e": null}, "f": true})");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Json* a = parsed->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  EXPECT_EQ(a->as_array().size(), 3u);
  EXPECT_EQ(a->as_array()[2].Find("b")->as_string(), "c");
  EXPECT_TRUE(parsed->Find("d")->Find("e")->is_null());
}

TEST(JsonTest, StringEscapesRoundTrip) {
  Json value(std::string("line\n\"quoted\"\tback\\slash\x01"));
  auto reparsed = Json::Parse(value.Dump());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->as_string(), value.as_string());
}

TEST(JsonTest, UnicodeEscapes) {
  auto parsed = Json::Parse(R"("é中😀")");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->as_string(), "\xC3\xA9\xE4\xB8\xAD\xF0\x9F\x98\x80");
  EXPECT_FALSE(Json::Parse(R"("\ud83d")").ok());  // unpaired surrogate
}

TEST(JsonTest, RejectsMalformed) {
  const char* bad[] = {"",       "{",        "[1,",    "{\"a\":}",
                       "tru",    "01",       "1.",     "\"unterminated",
                       "[1] []", "{\"a\" 1}", "nan",    "[1,]"};
  for (const char* text : bad) {
    EXPECT_FALSE(Json::Parse(text).ok()) << text;
  }
}

TEST(JsonTest, RejectsDeepNesting) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_FALSE(Json::Parse(deep).ok());
}

TEST(JsonTest, DumpRoundTripsStructure) {
  Json obj = Json::MakeObject();
  obj.Set("id", 42);
  obj.Set("score", 0.125);
  Json arr = Json::MakeArray();
  arr.Append(1);
  arr.Append("two");
  obj.Set("items", std::move(arr));
  auto reparsed = Json::Parse(obj.Dump());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_DOUBLE_EQ(reparsed->Find("id")->as_number(), 42.0);
  EXPECT_DOUBLE_EQ(reparsed->Find("score")->as_number(), 0.125);
  EXPECT_EQ(reparsed->Find("items")->as_array()[1].as_string(), "two");
}

TEST(JsonTest, GetIntValidates) {
  Json obj = *Json::Parse(R"({"a": 5, "b": 1.5, "c": "x"})");
  EXPECT_EQ(*obj.GetInt("a", 0, 10), 5);
  EXPECT_FALSE(obj.GetInt("a", 0, 4).ok());   // out of range
  EXPECT_FALSE(obj.GetInt("b", 0, 10).ok());  // not integral
  EXPECT_FALSE(obj.GetInt("c", 0, 10).ok());  // not a number
  EXPECT_FALSE(obj.GetInt("missing", 0, 10).ok());
}

// ---------------------------------------------------------------------------
// LruCache

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache<int> cache(2);
  cache.Put("a", std::make_shared<const int>(1));
  cache.Put("b", std::make_shared<const int>(2));
  ASSERT_NE(cache.Get("a"), nullptr);        // refresh "a"
  cache.Put("c", std::make_shared<const int>(3));
  EXPECT_EQ(cache.Get("b"), nullptr);        // "b" was LRU
  EXPECT_EQ(*cache.Get("a"), 1);
  EXPECT_EQ(*cache.Get("c"), 3);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(LruCacheTest, ZeroCapacityDisables) {
  LruCache<int> cache(0);
  cache.Put("a", std::make_shared<const int>(1));
  EXPECT_EQ(cache.Get("a"), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(LruCacheTest, ClearEmpties) {
  LruCache<int> cache(4);
  cache.Put("a", std::make_shared<const int>(1));
  cache.Clear();
  EXPECT_EQ(cache.Get("a"), nullptr);
}

// ---------------------------------------------------------------------------
// Server fixture: a small synthetic model served over loopback.

/// Deterministic random (normalized-where-it-matters) estimates — no Gibbs
/// training needed for endpoint equivalence checks.
core::ColdEstimates RandomEstimates(uint64_t seed, int U = 12, int C = 3,
                                    int K = 4, int T = 5, int V = 20) {
  RandomSampler rng(seed);
  core::ColdEstimates est;
  est.U = U;
  est.C = C;
  est.K = K;
  est.T = T;
  est.V = V;
  auto fill_rows = [&rng](std::vector<double>* out, int rows, int cols) {
    out->resize(static_cast<size_t>(rows) * cols);
    for (int r = 0; r < rows; ++r) {
      double sum = 0.0;
      for (int c = 0; c < cols; ++c) {
        double v = 0.05 + rng.Uniform();
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

/// The answers a /v1/diffusion response body carries: its "probability"
/// for one candidate or its "probabilities" for a fan-out; empty when the
/// body holds neither.
std::vector<double> DiffusionAnswers(const std::string& response_body) {
  std::vector<double> answers;
  auto body = Json::Parse(response_body);
  if (!body.ok()) return answers;
  const Json* one = body->Find("probability");
  const Json* many = body->Find("probabilities");
  if (one != nullptr && one->is_number()) {
    answers.push_back(one->as_number());
  } else if (many != nullptr && many->is_array()) {
    for (const Json& v : many->as_array()) {
      if (v.is_number()) answers.push_back(v.as_number());
    }
  }
  return answers;
}

/// True when `got` and `want` have one length and agree to 1e-9 throughout.
bool SameAnswers(const std::vector<double>& got,
                 const std::vector<double>& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < want.size(); ++i) {
    if (std::fabs(got[i] - want[i]) > 1e-9) return false;
  }
  return true;
}

// Endpoint/concurrency/reload/shutdown tests: each compares what the
// server answers over a loopback socket with the direct predictor.
class ServeTest : public ::testing::Test {
 protected:
  void StartServer(ModelServiceOptions service_options = {},
                   uint64_t seed = 7) {
    estimates_ = RandomEstimates(seed);
    service_ = std::make_unique<ModelService>(service_options);
    service_->SetPredictor(
        std::make_shared<const core::ColdPredictor>(estimates_, 3));
    server_ = std::make_unique<HttpServer>(
        HttpServerOptions{}, [this](const HttpRequest& request) {
          return service_->Handle(request);
        });
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_TRUE(client_.Connect(server_->port()).ok());
  }

  void TearDown() override {
    client_.Close();
    if (server_ != nullptr) server_->Stop();
    server_.reset();
    service_.reset();
  }

  Json PostJson(const std::string& target, const std::string& body,
                int expect_status = 200) {
    auto response = client_.Post(target, body);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->status_code, expect_status) << response->body;
    auto parsed = Json::Parse(response->body);
    EXPECT_TRUE(parsed.ok()) << response->body;
    return parsed.ok() ? *parsed : Json();
  }

  core::ColdEstimates estimates_;
  std::unique_ptr<ModelService> service_;
  std::unique_ptr<HttpServer> server_;
  HttpClient client_;
};

TEST_F(ServeTest, HealthzReportsModelDimensions) {
  StartServer();
  auto response = client_.Get("/healthz");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status_code, 200);
  Json body = *Json::Parse(response->body);
  EXPECT_EQ(body.Find("status")->as_string(), "ok");
  EXPECT_EQ(body.Find("model")->Find("users")->as_number(), estimates_.U);
  EXPECT_EQ(body.Find("model")->Find("vocabulary")->as_number(),
            estimates_.V);
}

TEST_F(ServeTest, DiffusionMatchesDirectPredictor) {
  StartServer();
  core::ColdPredictor direct(estimates_, 3);
  std::vector<text::WordId> words = {1, 5, 9};
  for (int i = 0; i < 4; ++i) {
    for (int j = 4; j < 8; ++j) {
      Json body = PostJson(
          "/v1/diffusion",
          "{\"publisher\": " + std::to_string(i) +
              ", \"candidate\": " + std::to_string(j) +
              ", \"words\": [1, 5, 9]}");
      ASSERT_NE(body.Find("probability"), nullptr);
      EXPECT_NEAR(body.Find("probability")->as_number(),
                  direct.DiffusionProbability(i, j, words), 1e-9);
    }
  }
}

TEST_F(ServeTest, DiffusionFanOutMatchesDirectPredictor) {
  StartServer();
  core::ColdPredictor direct(estimates_, 3);
  std::vector<text::WordId> words = {0, 3};
  Json body = PostJson(
      "/v1/diffusion",
      R"({"publisher": 2, "candidates": [4, 5, 6], "words": [0, 3]})");
  const Json* probs = body.Find("probabilities");
  ASSERT_NE(probs, nullptr);
  ASSERT_EQ(probs->as_array().size(), 3u);
  for (int n = 0; n < 3; ++n) {
    EXPECT_NEAR(probs->as_array()[static_cast<size_t>(n)].as_number(),
                direct.DiffusionProbability(2, 4 + n, words), 1e-9);
  }
}

TEST_F(ServeTest, TopicPosteriorMatchesDirectPredictor) {
  StartServer();
  core::ColdPredictor direct(estimates_, 3);
  std::vector<text::WordId> words = {2, 7, 11};
  Json body = PostJson("/v1/topic_posterior",
                       R"({"author": 3, "words": [2, 7, 11]})");
  const Json* posterior = body.Find("posterior");
  ASSERT_NE(posterior, nullptr);
  std::vector<double> expected = direct.TopicPosterior(words, 3);
  ASSERT_EQ(posterior->as_array().size(), expected.size());
  for (size_t k = 0; k < expected.size(); ++k) {
    EXPECT_NEAR(posterior->as_array()[k].as_number(), expected[k], 1e-9);
  }
}

TEST_F(ServeTest, LinkMatchesDirectPredictor) {
  StartServer();
  core::ColdPredictor direct(estimates_, 3);
  Json body = PostJson("/v1/link", R"({"source": 1, "target": 9})");
  EXPECT_NEAR(body.Find("probability")->as_number(),
              direct.LinkProbability(1, 9), 1e-9);
}

TEST_F(ServeTest, TimestampMatchesDirectPredictor) {
  StartServer();
  core::ColdPredictor direct(estimates_, 3);
  std::vector<text::WordId> words = {4, 8};
  Json body =
      PostJson("/v1/timestamp", R"({"author": 5, "words": [4, 8]})");
  std::vector<double> expected = direct.TimestampScores(words, 5);
  EXPECT_EQ(static_cast<int>(body.Find("predicted")->as_number()),
            direct.PredictTimestamp(words, 5));
  ASSERT_EQ(body.Find("scores")->as_array().size(), expected.size());
  for (size_t t = 0; t < expected.size(); ++t) {
    EXPECT_NEAR(body.Find("scores")->as_array()[t].as_number(), expected[t],
                1e-9);
  }
}

TEST_F(ServeTest, InfluentialCommunitiesRanksAll) {
  StartServer();
  auto response =
      client_.Get("/v1/influential_communities?topic=1&n=3&trials=16");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status_code, 200);
  Json body = *Json::Parse(response->body);
  ASSERT_EQ(body.Find("communities")->as_array().size(), 3u);
  // Descending influence order.
  const auto& list = body.Find("communities")->as_array();
  for (size_t i = 1; i < list.size(); ++i) {
    EXPECT_GE(list[i - 1].Find("influence_degree")->as_number(),
              list[i].Find("influence_degree")->as_number());
  }
  auto bad = client_.Get("/v1/influential_communities?topic=99");
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->status_code, 422);
}

TEST_F(ServeTest, MalformedInputsReturn4xxNotCrash) {
  StartServer();
  // Malformed JSON body.
  auto r1 = client_.Post("/v1/diffusion", "{not json");
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->status_code, 400);
  // Missing fields.
  auto r2 = client_.Post("/v1/diffusion", "{}");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->status_code, 400);
  // Out-of-range ids.
  auto r3 = client_.Post("/v1/diffusion",
                         R"({"publisher": 9999, "candidate": 1, "words": []})");
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(r3->status_code, 422);
  auto r4 = client_.Post("/v1/topic_posterior",
                         R"({"author": 0, "words": [99999]})");
  ASSERT_TRUE(r4.ok());
  EXPECT_EQ(r4->status_code, 422);
  // Unknown endpoint and wrong method.
  auto r5 = client_.Get("/v1/nope");
  ASSERT_TRUE(r5.ok());
  EXPECT_EQ(r5->status_code, 404);
  auto r6 = client_.Get("/v1/diffusion");
  ASSERT_TRUE(r6.ok());
  EXPECT_EQ(r6->status_code, 405);
  // Raw garbage on the socket: server answers 400 and closes; the
  // connection used by client_ stays usable because garbage goes over a
  // fresh connection.
  HttpClient raw;
  ASSERT_TRUE(raw.Connect(server_->port()).ok());
  auto bad = raw.Request("NOT_A_METHOD_AT_ALL", "/");
  // Either a 400 response or a closed connection is acceptable; the
  // server must keep serving either way.
  (void)bad;
  auto still_ok = client_.Get("/healthz");
  ASSERT_TRUE(still_ok.ok());
  EXPECT_EQ(still_ok->status_code, 200);
}

TEST_F(ServeTest, MetricsEndpointExposesServeFamilies) {
  StartServer();
  (void)PostJson("/v1/diffusion",
                 R"({"publisher": 0, "candidate": 1, "words": [2]})");
  (void)PostJson("/v1/topic_posterior", R"({"author": 0, "words": [2]})");
  auto response = client_.Get("/metrics");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status_code, 200);
  EXPECT_NE(response->headers["content-type"].find("text/plain"),
            std::string::npos);
  const std::string& text = response->body;
  EXPECT_NE(text.find("cold_serve_requests"), std::string::npos);
  EXPECT_NE(text.find("cold_serve_request_seconds"), std::string::npos);
  EXPECT_NE(text.find("endpoint=\"diffusion\""), std::string::npos);
  EXPECT_NE(text.find("cold_serve_posterior_cache_misses"),
            std::string::npos);
}

TEST_F(ServeTest, DebugVarsExposesTelemetryWithQuantiles) {
  StartServer();
  // Prime the request-latency histograms so quantiles have mass.
  for (int i = 0; i < 20; ++i) {
    (void)PostJson("/v1/diffusion",
                   R"({"publisher": 0, "candidate": 1, "words": [2]})");
  }
  auto response = client_.Get("/debug/vars");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status_code, 200);
  EXPECT_NE(response->headers["content-type"].find("application/json"),
            std::string::npos);
  auto body = Json::Parse(response->body);
  ASSERT_TRUE(body.ok()) << response->body;
  EXPECT_NE(body->Find("generation"), nullptr);
  ASSERT_NE(body->Find("model_loaded"), nullptr);
  EXPECT_TRUE(body->Find("model_loaded")->as_bool());

  // The embedded telemetry dump carries the serve histograms with their
  // p50/p90/p99 summaries.
  const Json* telemetry = body->Find("telemetry");
  ASSERT_NE(telemetry, nullptr);
  const Json* histograms = telemetry->Find("histograms");
  ASSERT_NE(histograms, nullptr);
  ASSERT_TRUE(histograms->is_array());
  bool found_request_seconds = false;
  for (const Json& hist : histograms->as_array()) {
    const Json* name = hist.Find("name");
    ASSERT_NE(name, nullptr);
    const Json* quantiles = hist.Find("quantiles");
    ASSERT_NE(quantiles, nullptr) << name->as_string();
    EXPECT_NE(quantiles->Find("p50"), nullptr);
    EXPECT_NE(quantiles->Find("p90"), nullptr);
    EXPECT_NE(quantiles->Find("p99"), nullptr);
    if (name->as_string() == "cold/serve/request_seconds") {
      found_request_seconds = true;
      // 20 requests just landed: the quantiles must be real numbers.
      EXPECT_TRUE(quantiles->Find("p99")->is_number());
      EXPECT_GT(quantiles->Find("p99")->as_number(), 0.0);
    }
  }
  EXPECT_TRUE(found_request_seconds);
}

TEST_F(ServeTest, SlowRequestLogRecordsMethodPathLatencyAndCandidates) {
  ModelServiceOptions options;
  options.slow_request_ms = 1;  // lowest enabled threshold
  StartServer(options);

  // Capture warning lines; the sink runs serialized so a plain string
  // under a mutex-free append is safe here.
  static std::mutex log_mutex;
  static std::vector<std::string> warnings;
  {
    std::lock_guard<std::mutex> lock(log_mutex);
    warnings.clear();
  }
  Logger::SetSink([](LogLevel level, const std::string& line) {
    std::lock_guard<std::mutex> lock(log_mutex);
    if (level == LogLevel::kWarning) warnings.push_back(line);
  });

  // A max-trials influence scan burns well past 1ms of CPU, and a
  // diffusion fan-out records its candidate count; at least one of the two
  // must cross the threshold and the logged line must carry method, path,
  // latency and candidate count.
  auto slow =
      client_.Get("/v1/influential_communities?topic=1&n=3&trials=100000");
  ASSERT_TRUE(slow.ok());
  EXPECT_EQ(slow->status_code, 200);
  (void)PostJson("/v1/diffusion",
                 R"({"publisher": 2, "candidates": [4, 5, 6], "words": [0]})");
  Logger::SetSink(nullptr);

  std::vector<std::string> captured;
  {
    std::lock_guard<std::mutex> lock(log_mutex);
    captured = warnings;
  }
  bool found_slow = false;
  for (const std::string& line : captured) {
    if (line.find("slow request") == std::string::npos) continue;
    found_slow = true;
    const bool has_method_and_path =
        line.find("GET /v1/influential_communities") != std::string::npos ||
        line.find("POST /v1/diffusion") != std::string::npos;
    EXPECT_TRUE(has_method_and_path) << line;
    EXPECT_NE(line.find("ms (status"), std::string::npos) << line;
    EXPECT_NE(line.find("candidates"), std::string::npos) << line;
  }
  EXPECT_TRUE(found_slow) << "no slow-request warning captured";

  // The slow-request counter ticked at least once.
  EXPECT_GE(obs::Registry::Global()
                .GetCounter("cold/serve/slow_requests")
                ->Value(),
            1);
}

TEST_F(ServeTest, SlowRequestLogDisabledByDefault) {
  StartServer();  // slow_request_ms = 0: never logs
  static std::mutex log_mutex;
  static bool saw_slow = false;
  {
    std::lock_guard<std::mutex> lock(log_mutex);
    saw_slow = false;
  }
  Logger::SetSink([](LogLevel, const std::string& line) {
    std::lock_guard<std::mutex> lock(log_mutex);
    if (line.find("slow request") != std::string::npos) saw_slow = true;
  });
  auto response = client_.Get("/v1/influential_communities?topic=1&trials=512");
  ASSERT_TRUE(response.ok());
  Logger::SetSink(nullptr);
  std::lock_guard<std::mutex> lock(log_mutex);
  EXPECT_FALSE(saw_slow);
}

TEST_F(ServeTest, PosteriorCacheHitsOnRepeatQueries) {
  ModelServiceOptions options;
  options.posterior_cache_capacity = 64;
  StartServer(options);
  auto& registry = obs::Registry::Global();
  auto* hits = registry.GetCounter("cold/serve/posterior_cache_hits");
  int64_t before = hits->Value();
  for (int i = 0; i < 5; ++i) {
    (void)PostJson("/v1/topic_posterior", R"({"author": 2, "words": [1, 2]})");
  }
  EXPECT_GE(hits->Value() - before, 4);
}

TEST_F(ServeTest, ConcurrentRequestsAllSucceedAndAgree) {
  StartServer();
  core::ColdPredictor direct(estimates_, 3);
  std::vector<text::WordId> words = {1, 2, 3};
  // Odd clients fan out to three candidates, so inline fan-outs run
  // concurrently with single-candidate requests over the posterior cache's
  // shards.
  const std::string single =
      R"({"publisher": 1, "candidate": 2, "words": [1, 2, 3]})";
  const std::string fan_out =
      R"({"publisher": 1, "candidates": [2, 5, 9], "words": [1, 2, 3]})";
  const std::vector<double> expect_single = {
      direct.DiffusionProbability(1, 2, words)};
  const std::vector<double> expect_fan_out = {
      direct.DiffusionProbability(1, 2, words),
      direct.DiffusionProbability(1, 5, words),
      direct.DiffusionProbability(1, 9, words)};

  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    const bool fans_out = t % 2 == 1;
    const std::string& body = fans_out ? fan_out : single;
    const std::vector<double>& expected =
        fans_out ? expect_fan_out : expect_single;
    threads.emplace_back([this, &body, &expected, &failures] {
      HttpClient client;
      if (!client.Connect(server_->port()).ok()) {
        failures.fetch_add(kPerThread);
        return;
      }
      for (int n = 0; n < kPerThread; ++n) {
        auto response = client.Post("/v1/diffusion", body);
        if (!response.ok() || response->status_code != 200 ||
            !SameAnswers(DiffusionAnswers(response->body), expected)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(ServeTest, HotReloadUnderLoadServesOneOfTwoModels) {
  StartServer();
  // Two distinct arenas on disk, named per process so that concurrent runs
  // of this case (ctest -j across build trees) never share the files each
  // one rewrites and deletes.
  core::ColdEstimates model_a = RandomEstimates(7);   // == estimates_
  core::ColdEstimates model_b = RandomEstimates(99);
  const std::string pid = std::to_string(::getpid());
  std::string path_a =
      (fs::temp_directory_path() / ("cold_serve_model_a_" + pid + ".arena"))
          .string();
  std::string path_b =
      (fs::temp_directory_path() / ("cold_serve_model_b_" + pid + ".arena"))
          .string();
  ASSERT_TRUE(core::SaveArenaSnapshot(model_a, 5, path_a).ok());
  ASSERT_TRUE(core::SaveArenaSnapshot(model_b, 5, path_b).ok());
  core::ColdPredictor direct_a(model_a, 5);
  core::ColdPredictor direct_b(model_b, 5);
  std::vector<text::WordId> words = {1, 2, 3};
  auto answers = [&words](const core::ColdPredictor& direct,
                          const std::vector<text::UserId>& candidates) {
    std::vector<double> out;
    for (text::UserId c : candidates) {
      out.push_back(direct.DiffusionProbability(1, c, words));
    }
    return out;
  };
  const std::vector<text::UserId> fan_out = {2, 6, 10};

  // Four single-candidate clients and one fan-out client. Every answer
  // must be exactly one of the two snapshots' answers — never a torn
  // mixture, and a fan-out's whole vector comes from one snapshot.
  struct Client {
    std::string body;
    std::vector<double> expect_a;
    std::vector<double> expect_b;
  };
  std::vector<Client> clients(
      4, Client{R"({"publisher": 1, "candidate": 2, "words": [1, 2, 3]})",
                answers(direct_a, {2}), answers(direct_b, {2})});
  clients.push_back(Client{
      R"({"publisher": 1, "candidates": [2, 6, 10], "words": [1, 2, 3]})",
      answers(direct_a, fan_out), answers(direct_b, fan_out)});
  ASSERT_FALSE(SameAnswers(clients.back().expect_a, clients.back().expect_b));

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::atomic<int> served{0};
  std::atomic<int> served_fan_outs{0};
  std::vector<std::thread> load;
  for (const Client& c : clients) {
    load.emplace_back([this, &c, &stop, &failures, &served, &served_fan_outs] {
      HttpClient client;
      if (!client.Connect(server_->port()).ok()) {
        failures.fetch_add(1);
        return;
      }
      while (!stop.load()) {
        auto response = client.Post("/v1/diffusion", c.body);
        if (!response.ok() || response->status_code != 200) {
          failures.fetch_add(1);
          return;
        }
        std::vector<double> got = DiffusionAnswers(response->body);
        if (!SameAnswers(got, c.expect_a) && !SameAnswers(got, c.expect_b)) {
          failures.fetch_add(1);
          return;
        }
        served.fetch_add(1);
        if (got.size() > 1) served_fan_outs.fetch_add(1);
      }
    });
  }

  // Flip snapshots while the load runs. With C=3, the fixture's predictor,
  // both arenas and direct_a/b all hold min(top_communities, C) = 3 TopComm
  // entries per user, so every generation answers like direct_a or b.
  HttpClient admin;
  ASSERT_TRUE(admin.Connect(server_->port()).ok());
  for (int flip = 0; flip < 6; ++flip) {
    const std::string& path = (flip % 2 == 0) ? path_a : path_b;
    auto response =
        admin.Post("/admin/reload", "{\"path\": \"" + path + "\"}");
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->status_code, 200) << response->body;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  stop.store(true);
  for (auto& thread : load) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(served.load(), 0);
  EXPECT_GT(served_fan_outs.load(), 0);

  // Reload of a corrupt snapshot fails and keeps serving. Replace the file
  // via rename, like every writer does: truncating the inode in place would
  // pull the pages out from under the live mapping.
  {
    const std::string tmp = path_a + ".garbage";
    std::ofstream(tmp, std::ios::binary | std::ios::trunc) << "garbage";
    fs::rename(tmp, path_a);
  }
  auto bad = admin.Post("/admin/reload", "{\"path\": \"" + path_a + "\"}");
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->status_code, 500);
  auto health = admin.Get("/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->status_code, 200);
  fs::remove(path_a);
  fs::remove(path_b);
}

TEST(LoadSheddingTest, ExcessConnectionsGet503WithRetryAfter) {
  HttpServerOptions options;
  options.max_inflight_requests = 1;
  HttpServer server(options, [](const HttpRequest&) {
    return HttpResponse::Text(200, "{\"ok\": true}", "application/json");
  });
  ASSERT_TRUE(server.Start().ok());
  auto* shed = obs::Registry::Global().GetCounter("cold/serve/shed_total");
  const int64_t shed_before = shed->Value();

  // The first keep-alive connection occupies the single in-flight slot.
  HttpClient first;
  ASSERT_TRUE(first.Connect(server.port()).ok());
  auto ok = first.Get("/");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->status_code, 200);
  for (int i = 0; i < 400 && server.active_connections() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(server.active_connections(), 1);

  // The next connection is shed straight from the accept thread: 503 with
  // a Retry-After hint, and the shed counter ticks.
  HttpClient second;
  ASSERT_TRUE(second.Connect(server.port()).ok());
  auto rejected = second.Get("/");
  ASSERT_TRUE(rejected.ok()) << rejected.status().ToString();
  EXPECT_EQ(rejected->status_code, 503);
  EXPECT_EQ(rejected->headers["retry-after"], "1");
  EXPECT_EQ(shed->Value() - shed_before, 1);

  // Releasing the slot restores service for new connections.
  second.Close();
  first.Close();
  for (int i = 0; i < 400 && server.active_connections() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(server.active_connections(), 0);
  HttpClient third;
  ASSERT_TRUE(third.Connect(server.port()).ok());
  auto recovered = third.Get("/");
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->status_code, 200);
  server.Stop();
}

TEST_F(ServeTest, GracefulShutdownDrainsInFlight) {
  StartServer();
  std::atomic<int> completed{0};
  std::thread load([this, &completed] {
    HttpClient client;
    if (!client.Connect(server_->port()).ok()) return;
    for (int n = 0; n < 20; ++n) {
      auto response = client.Post(
          "/v1/diffusion",
          R"({"publisher": 0, "candidate": 1, "words": [1]})");
      if (!response.ok()) break;  // server stopped: connection closes.
      if (response->status_code == 200) completed.fetch_add(1);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  server_->Stop();
  load.join();
  // Whatever was in flight finished cleanly; no hangs, no crashes.
  EXPECT_GE(completed.load(), 1);
  EXPECT_EQ(server_->active_connections(), 0);
}


// ---------------------------------------------------------------------------
// ModelService::Handle without a socket

TEST(ModelServiceTest, FanOutComputesOnePosteriorAndMatchesEq7Exactly) {
  const core::ColdEstimates estimates = RandomEstimates(31);
  const std::vector<text::WordId> words = {3, 8, 8, 15};
  const std::vector<text::UserId> candidates = {0, 2, 5, 7, 11};
  auto* misses =
      obs::Registry::Global().GetCounter("cold/serve/posterior_cache_misses");
  // Cache off, then the default cache: either way a fan-out computes its
  // post's Eq. (5) posterior once and scores every candidate against it.
  const size_t default_capacity =
      ModelServiceOptions{}.posterior_cache_capacity;
  for (size_t capacity : {size_t{0}, default_capacity}) {
    SCOPED_TRACE("posterior_cache_capacity = " + std::to_string(capacity));
    ModelServiceOptions options;
    options.posterior_cache_capacity = capacity;
    ModelService service(options);
    service.SetPredictor(
        std::make_shared<const core::ColdPredictor>(estimates, 3));
    const auto model = service.predictor();
    ASSERT_NE(model, nullptr);

    HttpRequest request;
    request.method = "POST";
    request.path = "/v1/diffusion";
    request.body = R"({"publisher": 4, "candidates": [0, 2, 5, 7, 11], )"
                   R"("words": [3, 8, 8, 15]})";
    const std::vector<double> posterior = model->TopicPosterior(words, 4);
    // The writer prints %.17g, so every double round-trips exactly.
    std::vector<double> expected;
    for (text::UserId c : candidates) {
      expected.push_back(model->DiffusionFromPosterior(4, c, posterior));
    }

    for (int repeat = 0; repeat < 2; ++repeat) {
      const int64_t misses_before = misses->Value();
      HttpResponse response = service.Handle(request);
      ASSERT_EQ(response.status_code, 200) << response.body;
      // The first request is a cold key; a repeat hits the cache when it
      // is on and recomputes the one posterior when it is off.
      const int64_t expected_misses = repeat == 0 || capacity == 0 ? 1 : 0;
      EXPECT_EQ(misses->Value() - misses_before, expected_misses);
      const std::vector<double> got = DiffusionAnswers(response.body);
      ASSERT_EQ(got.size(), expected.size()) << response.body;
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(got[i], expected[i]) << "candidate " << candidates[i];
      }
    }
  }
}

TEST(ModelServiceTest, ShardCountersSumToServiceCounters) {
  ModelService service{ModelServiceOptions{}};
  service.SetPredictor(
      std::make_shared<const core::ColdPredictor>(RandomEstimates(41), 3));
  auto& registry = obs::Registry::Global();
  obs::Counter* hits = registry.GetCounter("cold/serve/posterior_cache_hits");
  obs::Counter* misses =
      registry.GetCounter("cold/serve/posterior_cache_misses");
  // The per-shard family is registered for shards 0..7 by the service.
  std::vector<obs::Counter*> shard_hits, shard_misses;
  for (int s = 0; s < 8; ++s) {
    const obs::Labels labels{{"shard", std::to_string(s)}};
    shard_hits.push_back(registry.GetCounter("cold/serve/cache_hits", labels));
    shard_misses.push_back(
        registry.GetCounter("cold/serve/cache_misses", labels));
  }
  auto sum = [](const std::vector<obs::Counter*>& counters) {
    int64_t total = 0;
    for (const obs::Counter* c : counters) total += c->Value();
    return total;
  };
  const int64_t hits0 = hits->Value(), misses0 = misses->Value();
  const int64_t shard_hits0 = sum(shard_hits);
  const int64_t shard_misses0 = sum(shard_misses);

  // 36 queries over 12 distinct (author, words) keys: each key misses once
  // and then hits, spread over the shards by key hash.
  for (int i = 0; i < 36; ++i) {
    HttpRequest request;
    request.method = "POST";
    request.path = "/v1/topic_posterior";
    request.body = "{\"author\": " + std::to_string(i % 12) +
                   ", \"words\": [" + std::to_string(i % 12) + ", 3]}";
    ASSERT_EQ(service.Handle(request).status_code, 200);
  }
  const int64_t hit_delta = hits->Value() - hits0;
  const int64_t miss_delta = misses->Value() - misses0;
  EXPECT_EQ(miss_delta, 12);
  EXPECT_EQ(hit_delta, 24);
  EXPECT_EQ(sum(shard_hits) - shard_hits0, hit_delta);
  EXPECT_EQ(sum(shard_misses) - shard_misses0, miss_delta);
}

// ---------------------------------------------------------------------------
// ShardedLruCache

TEST(ShardedLruCacheTest, KeyAlwaysMapsToSameShard) {
  ShardedLruCache<int> cache(64, 8);
  EXPECT_EQ(cache.num_shards(), 8u);
  for (int i = 0; i < 100; ++i) {
    std::string key = "key-" + std::to_string(i);
    size_t shard = cache.ShardOf(key);
    EXPECT_LT(shard, 8u);
    EXPECT_EQ(cache.ShardOf(key), shard);  // Stable across calls.
  }
}

TEST(ShardedLruCacheTest, GetPutRoundTripAcrossShards) {
  ShardedLruCache<int> cache(64, 4);
  for (int i = 0; i < 32; ++i) {
    cache.Put("k" + std::to_string(i), std::make_shared<int>(i));
  }
  EXPECT_EQ(cache.size(), 32u);
  for (int i = 0; i < 32; ++i) {
    auto hit = cache.Get("k" + std::to_string(i));
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(*hit, i);
  }
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Get("k0"), nullptr);
}

TEST(ShardedLruCacheTest, EvictionIsPerShardAndReported) {
  // 8 total entries over 4 shards = 2 per shard: overfilling one shard
  // evicts there without touching the others.
  ShardedLruCache<int> cache(8, 4);
  std::vector<std::string> same_shard;
  size_t target = cache.ShardOf("probe");
  for (int i = 0; same_shard.size() < 3; ++i) {
    std::string key = "k" + std::to_string(i);
    if (cache.ShardOf(key) == target) same_shard.push_back(key);
  }
  EXPECT_FALSE(cache.Put(same_shard[0], std::make_shared<int>(0)));
  EXPECT_FALSE(cache.Put(same_shard[1], std::make_shared<int>(1)));
  EXPECT_TRUE(cache.Put(same_shard[2], std::make_shared<int>(2)));
  EXPECT_EQ(cache.Get(same_shard[0]), nullptr);  // LRU within the shard.
  EXPECT_NE(cache.Get(same_shard[2]), nullptr);
}

TEST(ShardedLruCacheTest, ZeroCapacityAndZeroShardsAreSafe) {
  ShardedLruCache<int> disabled(0, 4);
  EXPECT_FALSE(disabled.Put("a", std::make_shared<int>(1)));
  EXPECT_EQ(disabled.Get("a"), nullptr);
  ShardedLruCache<int> clamped(16, 0);  // Shards clamp to 1.
  EXPECT_EQ(clamped.num_shards(), 1u);
  clamped.Put("a", std::make_shared<int>(1));
  EXPECT_NE(clamped.Get("a"), nullptr);
}

// ---------------------------------------------------------------------------
// Arena snapshots in the service: mmap serving, corruption fallback.

class ArenaServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    estimates_ = RandomEstimates(21);
    arena_path_ = (fs::temp_directory_path() /
                   ("cold_serve_arena_" + std::to_string(::getpid()) + ".arena"))
                      .string();
    ASSERT_TRUE(core::SaveArenaSnapshot(estimates_, 3, arena_path_).ok());
  }

  void TearDown() override { fs::remove(arena_path_); }

  core::ColdEstimates estimates_;
  std::string arena_path_;
};

TEST_F(ArenaServeTest, ServesFromArenaIdenticallyToInMemory) {
  ModelServiceOptions options;
  ModelService arena_service(options);
  ASSERT_TRUE(arena_service.LoadFromFile(arena_path_).ok());
  ModelService memory_service(options);
  memory_service.SetPredictor(
      std::make_shared<const core::ColdPredictor>(estimates_, 3));

  for (int i = 0; i < 6; ++i) {
    HttpRequest request;
    request.method = "POST";
    request.path = "/v1/diffusion";
    request.body = "{\"publisher\": " + std::to_string(i) +
                   ", \"candidate\": " + std::to_string(11 - i) +
                   ", \"words\": [1, 5, 9]}";
    HttpResponse from_arena = arena_service.Handle(request);
    HttpResponse from_memory = memory_service.Handle(request);
    ASSERT_EQ(from_arena.status_code, 200) << from_arena.body;
    EXPECT_EQ(from_arena.body, from_memory.body);
  }
}

TEST_F(ArenaServeTest, CrcCorruptionFailsReloadAndKeepsServing) {
  ModelService service{ModelServiceOptions{}};
  ASSERT_TRUE(service.LoadFromFile(arena_path_).ok());
  const int64_t generation = service.generation();

  HttpRequest request;
  request.method = "POST";
  request.path = "/v1/diffusion";
  request.body = R"({"publisher": 1, "candidate": 2, "words": [1, 2]})";
  HttpResponse before = service.Handle(request);
  ASSERT_EQ(before.status_code, 200);

  // Flip one payload byte past the header: the payload CRC must catch it.
  // The corrupted file replaces the original via rename — a fresh inode,
  // like every real writer (SaveArenaSnapshot is tmp + fsync + rename).
  // Modifying the mapped inode in place would corrupt the live snapshot.
  {
    std::ifstream in(arena_path_, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    bytes[128] = static_cast<char>(bytes[128] ^ 0x5a);
    const std::string tmp = arena_path_ + ".corrupt";
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.close();
    fs::rename(tmp, arena_path_);
  }
  EXPECT_FALSE(service.LoadFromFile(arena_path_).ok());
  EXPECT_EQ(service.generation(), generation);  // No new generation.
  HttpResponse after = service.Handle(request);
  EXPECT_EQ(after.status_code, 200);
  EXPECT_EQ(after.body, before.body);  // Previous snapshot still serving.
}

TEST_F(ArenaServeTest, TornWriteIsDetected) {
  // A torn write manifests as a file shorter than the header promises.
  const auto full_size = fs::file_size(arena_path_);
  fs::resize_file(arena_path_, full_size - 64);
  ModelService service{ModelServiceOptions{}};
  cold::Status status = service.LoadFromFile(arena_path_);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("arena size mismatch"), std::string::npos)
      << status.ToString();
}

// ---------------------------------------------------------------------------
// Idle connection reaping (epoll event loop)

TEST(IdleTimeoutTest, EventLoopReapsIdleConnections) {
  HttpServerOptions options;
  options.idle_timeout_seconds = 1;
  HttpServer server(options, [](const HttpRequest&) {
    return HttpResponse::Text(200, "{}", "application/json");
  });
  ASSERT_TRUE(server.Start().ok());
  auto* idle_closes =
      obs::Registry::Global().GetCounter("cold/serve/idle_closes");
  const int64_t before = idle_closes->Value();

  HttpClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  auto first = client.Get("/");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->status_code, 200);

  // Sit idle past the timeout: the sweep closes the connection and the
  // counter ticks.
  bool reaped = false;
  for (int i = 0; i < 600 && !reaped; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    reaped = idle_closes->Value() > before && server.active_connections() == 0;
  }
  EXPECT_TRUE(reaped);
  EXPECT_GE(idle_closes->Value() - before, 1);

  // The next request on the reaped connection fails; a fresh connection
  // works.
  auto stale = client.Get("/");
  EXPECT_FALSE(stale.ok());
  HttpClient fresh;
  ASSERT_TRUE(fresh.Connect(server.port()).ok());
  auto recovered = fresh.Get("/");
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->status_code, 200);
  server.Stop();
}

// ---------------------------------------------------------------------------
// Slow readers: a client that pipelines requests but does not read its
// responses is held to max_buffered_out_bytes of queued output, and a
// client that never reads again is reaped by the idle sweep.

constexpr int kPipelined = 400;
constexpr size_t kResponsePadding = 32 * 1024;

/// One reactor, a 64 KiB output cap, and a handler whose 32 KiB responses
/// echo the request path; counts every request it answers.
class SlowReaderTest : public ::testing::Test {
 protected:
  void StartServer(int idle_timeout_seconds) {
    HttpServerOptions options;
    options.num_reactors = 1;
    options.max_buffered_out_bytes = 64 * 1024;
    options.idle_timeout_seconds = idle_timeout_seconds;
    server_ = std::make_unique<HttpServer>(
        options, [this](const HttpRequest& request) {
          handled_.fetch_add(1);
          return HttpResponse::Text(
              200, request.path + std::string(kResponsePadding, 'x'));
        });
    ASSERT_TRUE(server_->Start().ok());
  }

  /// Connects with a 4 KiB receive buffer (set before connect, so the
  /// advertised window stays small) and writes kPipelined GETs, /r0 ..
  /// /r399, without reading anything back.
  void ConnectAndPipeline() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd_, 0);
    int rcvbuf = 4096;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    timeval tv{};
    tv.tv_sec = 5;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(server_->port()));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    std::string requests;
    for (int i = 0; i < kPipelined; ++i) {
      requests += "GET /r";
      requests += std::to_string(i);
      requests += " HTTP/1.1\r\nHost: l\r\n\r\n";
    }
    ASSERT_TRUE(cold::WriteFull(fd_, requests.data(), requests.size()).ok());
  }

  /// Polls the handler count until it has not moved for 300 ms.
  int SettledHandledCount() {
    int last = -1;
    int stable_polls = 0;
    for (int i = 0; i < 500 && stable_polls < 15; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      const int now = handled_.load();
      stable_polls = (now == last && now > 0) ? stable_polls + 1 : 0;
      last = now;
    }
    return last;
  }

  /// Receives until `*in` holds one whole response, then erases it from
  /// `*in` and returns its body; nullopt when the socket ends first.
  std::optional<std::string> NextResponseBody(std::string* in) {
    char chunk[16384];
    for (;;) {
      const size_t head_end = in->find("\r\n\r\n");
      if (head_end != std::string::npos) {
        const size_t length_at = in->find("Content-Length: ") + 16;
        const size_t body_size = static_cast<size_t>(
            std::strtoul(in->c_str() + length_at, nullptr, 10));
        if (in->size() >= head_end + 4 + body_size) {
          std::string body = in->substr(head_end + 4, body_size);
          in->erase(0, head_end + 4 + body_size);
          return body;
        }
      }
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return std::nullopt;
      in->append(chunk, static_cast<size_t>(n));
    }
  }

  void TearDown() override {
    if (fd_ >= 0) ::close(fd_);
    if (server_ != nullptr) server_->Stop();
  }

  std::atomic<int> handled_{0};  // Outlives server_, whose handler bumps it.
  std::unique_ptr<HttpServer> server_;
  int fd_ = -1;
};

TEST_F(SlowReaderTest, PipelinedRequestsWaitBehindTheOutputCapUntilRead) {
  ASSERT_NO_FATAL_FAILURE(StartServer(/*idle_timeout_seconds=*/30));
  ASSERT_NO_FATAL_FAILURE(ConnectAndPipeline());

  // Nothing is read, so the socket buffers fill and the connection's
  // output reaches the cap: the remaining requests stay unparsed. (The 12.5
  // MiB of responses exceed what the kernel buffers, whose send side grows
  // to at most tcp_wmem's 4 MiB by default.)
  const int parked = SettledHandledCount();
  EXPECT_GT(parked, 0);
  EXPECT_LT(parked, kPipelined);

  // Reading releases them: every response arrives, in request order.
  std::string in;
  for (int i = 0; i < kPipelined; ++i) {
    std::optional<std::string> body = NextResponseBody(&in);
    ASSERT_TRUE(body.has_value()) << "connection ended after " << i;
    ASSERT_EQ(*body, "/r" + std::to_string(i) +
                         std::string(kResponsePadding, 'x'));
  }
  EXPECT_TRUE(in.empty());
  EXPECT_EQ(handled_.load(), kPipelined);
}

TEST_F(SlowReaderTest, ClientThatStopsReadingIsReaped) {
  ASSERT_NO_FATAL_FAILURE(StartServer(/*idle_timeout_seconds=*/1));
  auto* idle_closes =
      obs::Registry::Global().GetCounter("cold/serve/idle_closes");
  const int64_t before = idle_closes->Value();
  ASSERT_NO_FATAL_FAILURE(ConnectAndPipeline());

  // The stalled flush makes no progress, so the idle sweep closes the
  // connection; its unparsed requests are never answered.
  bool reaped = false;
  for (int i = 0; i < 500 && !reaped; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    reaped =
        idle_closes->Value() > before && server_->active_connections() == 0;
  }
  EXPECT_TRUE(reaped);
  EXPECT_GE(idle_closes->Value() - before, 1);
  EXPECT_EQ(server_->active_connections(), 0);
  EXPECT_LT(handled_.load(), kPipelined);
}

}  // namespace
}  // namespace cold::serve
