// Shared helpers for the per-figure benchmark harnesses.
//
// Every bench regenerates one table/figure of the paper's evaluation (§5-§6)
// on the synthetic Weibo substitute (DESIGN.md §1). Sizes default to a
// single-core-friendly scale; set COLD_BENCH_SCALE=N to multiply the user
// count (and proportionally the posts/links), and COLD_BENCH_FOLDS to raise
// the cross-validation fold count (default 1 fold for speed; the paper uses
// 5).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <fstream>

#include "core/cold.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "serve/json.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace cold::bench {

inline double ScaleFactor() {
  const char* env = std::getenv("COLD_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  double scale = std::atof(env);
  return scale > 0.0 ? scale : 1.0;
}

inline int NumFolds() {
  const char* env = std::getenv("COLD_BENCH_FOLDS");
  if (env == nullptr) return 1;
  int folds = std::atoi(env);
  return folds >= 1 ? std::min(folds, 5) : 1;
}

/// The default benchmark dataset: ~800 users, ~10K posts at scale 1.
inline data::SyntheticConfig BenchDataConfig(uint64_t seed = 42) {
  data::SyntheticConfig config;
  double s = ScaleFactor();
  config.num_users = static_cast<int>(800 * s);
  config.num_communities = 8;
  config.num_topics = 12;
  config.num_time_slices = 24;
  config.core_words_per_topic = 25;
  config.background_words = 400;
  // Realistic microblog noise (~40% background tokens) and a Weibo-like
  // network density relative to posting volume.
  config.core_mass = 0.6;
  config.posts_per_user = 12.0;
  config.words_per_post = 9.0;
  config.follows_per_user = 18;
  // Sharp community structure, as in the paper's Weibo communities (each
  // community has a distinct interest profile; Fig 5): concentrated topic
  // mixtures and strong block contrast in eta.
  config.pi_concentration = 0.06;
  config.theta_concentration = 0.3;
  config.eta_within = 0.5;
  config.eta_base = 0.004;
  config.seed = seed;
  return config;
}

inline data::SocialDataset GenerateBenchData(
    const data::SyntheticConfig& config) {
  data::SyntheticSocialGenerator gen(config);
  auto result = gen.Generate();
  if (!result.ok()) {
    std::fprintf(stderr, "data generation failed: %s\n",
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).ValueOrDie();
}

/// Default COLD config matched to the bench data scale (rho is set for
/// ~12 posts/user rather than the paper's Weibo-scale 50/C; see DESIGN.md).
inline core::ColdConfig BenchColdConfig(int num_communities = 8,
                                        int num_topics = 12,
                                        int iterations = 150) {
  core::ColdConfig config;
  config.num_communities = num_communities;
  config.num_topics = num_topics;
  config.rho = 0.5;
  config.alpha = 0.5;
  // kappa scales lambda_0 so the Beta prior's negative-link mass stays
  // comparable to typical block counts at this data scale (§3.3 calls it a
  // tunable weight).
  config.kappa = 10.0;
  config.iterations = iterations;
  config.burn_in = iterations * 3 / 4;
  config.sample_lag = 5;
  config.seed = 91;
  return config;
}

/// Prints `what` with the error and exits 1 unless `st` is OK.
inline void CheckOk(const cold::Status& st, const char* what) {
  if (st.ok()) return;
  std::fprintf(stderr, "%s failed: %s\n", what, st.ToString().c_str());
  std::exit(1);
}

/// Trains serial COLD and returns averaged estimates; exits on error.
inline core::ColdEstimates TrainCold(const core::ColdConfig& config,
                                     const text::PostStore& posts,
                                     const graph::Digraph* links,
                                     double* train_seconds = nullptr) {
  core::ColdGibbsSampler sampler(config, posts, links);
  Stopwatch watch;
  auto st = sampler.Init();
  if (st.ok()) st = sampler.Train();
  if (!st.ok()) {
    std::fprintf(stderr, "COLD training failed: %s\n", st.ToString().c_str());
    std::exit(1);
  }
  if (train_seconds != nullptr) *train_seconds = watch.ElapsedSeconds();
  return sampler.AveragedEstimates();
}

/// Scores held-out links with `score(i, i2)`; returns ROC-AUC.
template <typename ScoreFn>
double LinkAuc(const data::LinkSplit& split, const ScoreFn& score) {
  std::vector<double> pos, neg;
  pos.reserve(split.test_positive.size());
  neg.reserve(split.test_negative.size());
  for (const auto& [a, b] : split.test_positive) pos.push_back(score(a, b));
  for (const auto& [a, b] : split.test_negative) neg.push_back(score(a, b));
  return eval::RocAuc(pos, neg);
}

/// Scores held-out retweet tuples with `score(author, candidate, words)`;
/// returns the averaged per-tuple AUC of §6.3.
template <typename ScoreFn>
double DiffusionAuc(const std::vector<data::RetweetTuple>& tuples,
                    const text::PostStore& posts, const ScoreFn& score,
                    size_t max_tuples = 400) {
  std::vector<eval::ScoredTuple> scored;
  for (const data::RetweetTuple& tuple : tuples) {
    if (scored.size() >= max_tuples) break;
    eval::ScoredTuple st;
    auto words = posts.words(tuple.post);
    for (text::UserId u : tuple.retweeters) {
      st.positive_scores.push_back(score(tuple.author, u, words));
    }
    for (text::UserId u : tuple.ignorers) {
      st.negative_scores.push_back(score(tuple.author, u, words));
    }
    scored.push_back(std::move(st));
  }
  return eval::AveragedTupleAuc(scored);
}

/// Predicts time stamps for test posts with `predict(words, author)`;
/// returns the accuracy-vs-tolerance curve up to `max_tolerance`.
template <typename PredictFn>
std::vector<double> TimestampCurve(const text::PostStore& test_posts,
                                   const PredictFn& predict,
                                   int max_tolerance) {
  std::vector<int> predicted, actual;
  for (text::PostId d = 0; d < test_posts.num_posts(); ++d) {
    if (test_posts.length(d) == 0) continue;
    predicted.push_back(predict(test_posts.words(d), test_posts.author(d)));
    actual.push_back(test_posts.time(d));
  }
  return eval::ToleranceCurve(predicted, actual, max_tolerance);
}

// --- BENCH_*.json emission --------------------------------------------------
//
// Shared by the persistent-result benches (sampler_hotpath,
// parallel_scaling). These reuse the serving layer's JSON value type, so
// callers must link cold_serve; benches that never emit JSON never
// instantiate them and link as before.

inline serve::Json ToJsonArray(const std::vector<double>& values) {
  serve::Json arr = serve::Json::MakeArray();
  for (double v : values) arr.Append(v);
  return arr;
}

/// Writes `root` to `path` (trailing newline included); logs and returns
/// false on I/O failure.
inline bool WriteJsonFile(const serve::Json& root, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << root.Dump() << "\n";
  return true;
}

/// Reparses an emitted result file — the first step of every --smoke
/// validation pass.
inline cold::Result<serve::Json> LoadJsonFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return cold::Status::IOError("cannot reopen " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return serve::Json::Parse(buffer.str());
}

/// Prints "name: v1 v2 v3 ..." rows for series output.
inline void PrintSeries(const std::string& name,
                        const std::vector<double>& values,
                        const char* fmt = "%.4f") {
  std::printf("%-16s", name.c_str());
  for (double v : values) {
    std::printf(" ");
    std::printf(fmt, v);
  }
  std::printf("\n");
}

inline void PrintHeader(const std::string& title) {
  std::printf("== %s ==\n", title.c_str());
}

/// Silences training INFO chatter for clean bench output. Every bench
/// calls this first, so it doubles as the hook point for the COLD_PROFILE
/// env switch: any bench run can self-profile into folded stacks without
/// new flags (see src/obs/profiler.h).
inline void QuietLogs() {
  Logger::SetLevel(LogLevel::kWarning);
  obs::StartProfilerFromEnv();
}

/// \brief Telemetry hook for bench harnesses: when COLD_BENCH_METRICS=FILE
/// is set, writes a final registry snapshot (JSON) there so bench runs can
/// be compared offline (phase seconds, comm bytes, tokens resampled, span
/// histograms — see DESIGN.md §Observability). Call at the end of main().
inline void DumpTelemetryIfRequested() {
  const char* path = std::getenv("COLD_BENCH_METRICS");
  if (path == nullptr || *path == '\0') return;
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write COLD_BENCH_METRICS file %s\n", path);
    return;
  }
  obs::Registry::Global().DumpJson(out);
  out << "\n";
  std::printf("telemetry snapshot written to %s\n", path);
}

}  // namespace cold::bench
