// Persistent throughput benchmark for the collapsed Gibbs hot path
// (tentpole of the sampler-performance PR; DESIGN.md §9).
//
// Measures, at two data scales:
//   - the topic kernel in isolation: the lgamma-collapsed TopicLogWeights
//     vs a per-token-log reference evaluated over every post, with the
//     max-abs log-weight disagreement (guard: they must agree to ~1e-9);
//   - the sparse (alias + MH) topic draw vs the dense draw (row scan +
//     LogCategorical) at the base topic count and at K=48, with the worst
//     single-topic-evaluator disagreement;
//   - serial full sweeps: per-sweep seconds, tokens/sec, links/sec series,
//     with non-steady-state (stalled) sweeps excluded from the per-second
//     series and counted separately;
//   - the parallel trainer: per-superstep seconds and tokens/sec series,
//     with the same stall treatment.
//
// Results land as JSON in --out (default BENCH_sampler.json) so runs can
// be diffed across commits. --smoke shrinks everything to seconds of
// runtime, re-parses the emitted JSON and fails (exit 1) unless it is
// well-formed with positive throughput — wired up as the `bench_smoke`
// ctest.
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common.h"
#include "core/alias_table.h"
#include "core/parallel_sampler.h"
#include "core/sparse_topic_kernel.h"
#include "serve/json.h"
#include "util/math_util.h"
#include "util/simd.h"

namespace {

using namespace cold;

/// Per-token-log reference for Eq. (3), matching the pre-optimization
/// kernel: every community/time term is a live std::log and the word and
/// length Dirichlet-multinomial terms are explicit ascending-factorial
/// loops. Evaluated against the sampler's current counters (including post
/// d), exactly like ColdGibbsSampler::TopicLogWeights.
void BaselineTopicLogWeights(const core::ColdGibbsSampler& sampler,
                             const text::PostStore& posts, text::PostId d,
                             int community, std::span<double> log_weights) {
  const core::ColdState& state = sampler.state();
  const core::ColdConfig& config = sampler.config();
  const int K = config.num_topics;
  const int T = posts.num_time_slices();
  const int V = state.V();
  const double alpha = config.ResolvedAlpha();
  const double beta = config.beta;
  const double epsilon = config.epsilon;
  const int t = posts.time(d);
  const int len = posts.length(d);
  auto word_counts = posts.WordCounts(d);

  for (int k = 0; k < K; ++k) {
    double lw = std::log(state.n_ck(community, k) + alpha) +
                std::log(state.n_ckt(community, k, t) + epsilon) -
                std::log(state.n_ck(community, k) + T * epsilon);
    for (const auto& [w, cnt] : word_counts) {
      double base = state.n_kv(k, w) + beta;
      for (int q = 0; q < cnt; ++q) lw += std::log(base + q);
    }
    double denom = state.n_k(k) + V * beta;
    for (int q = 0; q < len; ++q) lw -= std::log(denom + q);
    log_weights[static_cast<size_t>(k)] = lw;
  }
}

struct KernelResult {
  double optimized_tokens_per_sec = 0.0;
  double baseline_tokens_per_sec = 0.0;
  double speedup = 0.0;
  double max_abs_diff = 0.0;
};

/// Times one full pass of the topic kernel over every post (x `reps`),
/// optimized vs baseline, and records the worst log-weight disagreement.
KernelResult BenchKernel(core::ColdGibbsSampler* sampler,
                         const text::PostStore& posts, int reps) {
  const int K = sampler->config().num_topics;
  std::vector<double> lw_opt(static_cast<size_t>(K));
  std::vector<double> lw_ref(static_cast<size_t>(K));
  int64_t tokens = 0;
  for (text::PostId d = 0; d < posts.num_posts(); ++d) {
    tokens += posts.length(d);
  }

  KernelResult result;
  // Checksums defeat dead-code elimination of the timed loops.
  double sink = 0.0;
  double opt_seconds = 0.0, ref_seconds = 0.0;
  {
    ScopedTimer timer(opt_seconds);
    for (int r = 0; r < reps; ++r) {
      for (text::PostId d = 0; d < posts.num_posts(); ++d) {
        int c = sampler->state().post_community[static_cast<size_t>(d)];
        sampler->TopicLogWeights(d, c, lw_opt);
        sink += lw_opt[0];
      }
    }
  }
  {
    ScopedTimer timer(ref_seconds);
    for (int r = 0; r < reps; ++r) {
      for (text::PostId d = 0; d < posts.num_posts(); ++d) {
        int c = sampler->state().post_community[static_cast<size_t>(d)];
        BaselineTopicLogWeights(*sampler, posts, d, c, lw_ref);
        sink += lw_ref[0];
      }
    }
  }
  for (text::PostId d = 0; d < posts.num_posts(); ++d) {
    int c = sampler->state().post_community[static_cast<size_t>(d)];
    sampler->TopicLogWeights(d, c, lw_opt);
    BaselineTopicLogWeights(*sampler, posts, d, c, lw_ref);
    for (int k = 0; k < K; ++k) {
      result.max_abs_diff = std::max(
          result.max_abs_diff,
          std::abs(lw_opt[static_cast<size_t>(k)] -
                   lw_ref[static_cast<size_t>(k)]));
    }
  }
  if (sink == 12345.6789) std::printf(" ");  // keep `sink` observable
  double total = static_cast<double>(tokens) * reps;
  if (opt_seconds > 0.0) result.optimized_tokens_per_sec = total / opt_seconds;
  if (ref_seconds > 0.0) result.baseline_tokens_per_sec = total / ref_seconds;
  if (result.baseline_tokens_per_sec > 0.0) {
    result.speedup =
        result.optimized_tokens_per_sec / result.baseline_tokens_per_sec;
  }
  return result;
}

struct SparseKernelResult {
  int num_topics = 0;
  double dense_draw_tokens_per_sec = 0.0;
  double sparse_draw_tokens_per_sec = 0.0;
  double speedup = 0.0;
  double max_abs_diff = 0.0;
};

/// Times a full *topic draw* per post, dense vs sparse, at `num_topics`:
///   - dense: the PR-4 kernel — TopicLogWeights row scan (O(K * length))
///     followed by the softmax LogCategorical draw;
///   - sparse: per-(community, time) alias proposal + MH accept against the
///     exact O(length) single-topic evaluator, with the alias rows rebuilt
///     once per pass (the amortized cost the budgeted-lazy policy pays in a
///     real sweep).
/// Both run on the same burnt-in sparse-configured sampler (so the
/// single-topic evaluator has its lgamma table, exactly as in a sweep) and
/// neither mutates sampler state. Also records the worst disagreement
/// between the single-topic evaluator and the dense row — the 1e-9
/// exactness evidence at bench scale.
SparseKernelResult BenchSparseDraw(const core::ColdConfig& base_config,
                                   data::SocialDataset* dataset,
                                   int num_topics, int warmup, int reps) {
  core::ColdConfig config = base_config;
  config.num_topics = num_topics;
  config.topic_sampling = core::TopicSampling::kSparse;
  core::ColdGibbsSampler sampler(config, dataset->posts,
                                 &dataset->interactions);
  if (auto st = sampler.Init(); !st.ok()) {
    std::fprintf(stderr, "sparse init: %s\n", st.ToString().c_str());
    std::exit(1);
  }
  for (int i = 0; i < warmup; ++i) sampler.RunIteration();

  const text::PostStore& posts = dataset->posts;
  const core::ColdState& state = sampler.state();
  const int K = num_topics;
  const int C = config.num_communities;
  const int T = posts.num_time_slices();
  const double alpha = config.ResolvedAlpha();
  const double epsilon = config.epsilon;
  int64_t tokens = 0;
  for (text::PostId d = 0; d < posts.num_posts(); ++d) {
    tokens += posts.length(d);
  }

  SparseKernelResult result;
  result.num_topics = K;
  double sink = 0.0;

  RandomSampler dense_rng(2024, 7);
  std::vector<double> lw(static_cast<size_t>(K));
  double dense_seconds = 0.0;
  {
    ScopedTimer timer(dense_seconds);
    for (int r = 0; r < reps; ++r) {
      for (text::PostId d = 0; d < posts.num_posts(); ++d) {
        int c = state.post_community[static_cast<size_t>(d)];
        sampler.TopicLogWeights(d, c, lw);
        sink += dense_rng.LogCategorical(lw);
      }
    }
  }

  RandomSampler sparse_rng(2024, 9);
  std::vector<core::AliasTable> rows(static_cast<size_t>(C * T));
  std::vector<double> wts(static_cast<size_t>(K));
  double sparse_seconds = 0.0;
  {
    ScopedTimer timer(sparse_seconds);
    for (int r = 0; r < reps; ++r) {
      for (int c = 0; c < C; ++c) {
        for (int t = 0; t < T; ++t) {
          for (int k = 0; k < K; ++k) {
            double nck = state.n_ck(c, k);
            wts[static_cast<size_t>(k)] =
                (nck + alpha) * (state.n_ckt(c, k, t) + epsilon) /
                (nck + T * epsilon);
          }
          rows[static_cast<size_t>(c * T + t)].Build(wts);
        }
      }
      for (text::PostId d = 0; d < posts.num_posts(); ++d) {
        int c = state.post_community[static_cast<size_t>(d)];
        int t = posts.time(d);
        int k0 = state.post_topic[static_cast<size_t>(d)];
        sink += core::MhTopicDraw(
            rows[static_cast<size_t>(c * T + t)], k0, core::kSparseMhSteps,
            sparse_rng,
            [&](int k) { return sampler.TopicLogWeightOne(d, c, k); });
      }
    }
  }

  for (text::PostId d = 0; d < posts.num_posts(); ++d) {
    int c = state.post_community[static_cast<size_t>(d)];
    sampler.TopicLogWeights(d, c, lw);
    for (int k = 0; k < K; ++k) {
      result.max_abs_diff =
          std::max(result.max_abs_diff,
                   std::abs(lw[static_cast<size_t>(k)] -
                            sampler.TopicLogWeightOne(d, c, k)));
    }
  }
  if (sink == 12345.6789) std::printf(" ");  // keep `sink` observable
  double total = static_cast<double>(tokens) * reps;
  if (dense_seconds > 0.0) {
    result.dense_draw_tokens_per_sec = total / dense_seconds;
  }
  if (sparse_seconds > 0.0) {
    result.sparse_draw_tokens_per_sec = total / sparse_seconds;
  }
  if (result.dense_draw_tokens_per_sec > 0.0) {
    result.speedup =
        result.sparse_draw_tokens_per_sec / result.dense_draw_tokens_per_sec;
  }
  return result;
}

using bench::ToJsonArray;

/// Marks sweeps whose wall time exceeds 1.25x the median as non-steady
/// (checkpoint/observer hiccups, CPU contention). The per-second series are
/// computed from steady sweeps only — a handful of stalled sweeps would
/// otherwise drag the recorded throughput and skew the regression gate —
/// while the raw seconds and the stall count are kept alongside.
std::vector<char> SteadyMask(const std::vector<double>& seconds) {
  std::vector<char> mask(seconds.size(), 1);
  if (seconds.size() < 3) return mask;  // too short to call anything a stall
  const double med = Median(seconds);
  if (!(med > 0.0)) return mask;
  const double cutoff = 1.25 * med;
  for (size_t i = 0; i < seconds.size(); ++i) {
    mask[i] = seconds[i] <= cutoff ? 1 : 0;
  }
  return mask;
}

/// One benchmark scale: dataset size multiplier + sweep/superstep counts.
struct Scale {
  const char* name;
  double data_scale;   // multiplies BenchDataConfig user count
  int serial_sweeps;
  int parallel_supersteps;
  int kernel_reps;
};

serve::Json RunScale(const Scale& scale) {
  data::SyntheticConfig data_config = bench::BenchDataConfig();
  data_config.num_users =
      std::max(20, static_cast<int>(data_config.num_users * scale.data_scale));
  data::SocialDataset dataset = bench::GenerateBenchData(data_config);
  int64_t tokens = 0;
  for (text::PostId d = 0; d < dataset.posts.num_posts(); ++d) {
    tokens += dataset.posts.length(d);
  }

  core::ColdConfig config = bench::BenchColdConfig(8, 12, /*iterations=*/200);
  config.vocab_size = dataset.vocabulary.size();

  serve::Json out = serve::Json::MakeObject();
  out.Set("name", scale.name);
  out.Set("num_posts", dataset.posts.num_posts());
  out.Set("num_links", static_cast<int64_t>(dataset.interactions.num_edges()));
  out.Set("tokens", tokens);

  // Serial: warm-up sweeps (so the counters reflect a burnt-in state, not
  // the uniform random init), then timed sweeps.
  core::ColdGibbsSampler sampler(config, dataset.posts, &dataset.interactions);
  if (auto st = sampler.Init(); !st.ok()) {
    std::fprintf(stderr, "init: %s\n", st.ToString().c_str());
    std::exit(1);
  }
  const int warmup = std::max(1, scale.serial_sweeps / 4);
  for (int i = 0; i < warmup; ++i) sampler.RunIteration();

  serve::Json kernel = serve::Json::MakeObject();
  KernelResult kr = BenchKernel(&sampler, dataset.posts, scale.kernel_reps);
  kernel.Set("optimized_tokens_per_sec", kr.optimized_tokens_per_sec);
  kernel.Set("baseline_tokens_per_sec", kr.baseline_tokens_per_sec);
  kernel.Set("speedup", kr.speedup);
  kernel.Set("max_abs_log_weight_diff", kr.max_abs_diff);
  out.Set("kernel", kernel);
  std::printf(
      "%-8s kernel: %.3g tok/s optimized, %.3g tok/s baseline "
      "(%.2fx, max |dlw| %.2e)\n",
      scale.name, kr.optimized_tokens_per_sec, kr.baseline_tokens_per_sec,
      kr.speedup, kr.max_abs_diff);

  // Sparse draw vs dense draw, at the base topic count and at a topic count
  // in the regime the sparse path targets (K >= 32, where the dense
  // O(K * length) row scan dominates). The sparse draw cost is ~flat in K —
  // the sub-linearity claim the pair of rows demonstrates.
  serve::Json sparse_array = serve::Json::MakeArray();
  for (int k_topics : {config.num_topics, 48}) {
    SparseKernelResult sr = BenchSparseDraw(config, &dataset, k_topics, warmup,
                                            scale.kernel_reps);
    serve::Json sparse_json = serve::Json::MakeObject();
    sparse_json.Set("num_topics", static_cast<int64_t>(sr.num_topics));
    sparse_json.Set("dense_draw_tokens_per_sec", sr.dense_draw_tokens_per_sec);
    sparse_json.Set("sparse_draw_tokens_per_sec",
                    sr.sparse_draw_tokens_per_sec);
    sparse_json.Set("speedup", sr.speedup);
    sparse_json.Set("max_abs_log_weight_diff", sr.max_abs_diff);
    sparse_array.Append(sparse_json);
    std::printf(
        "%-8s sparse K=%-3d %.3g tok/s sparse draw, %.3g tok/s dense draw "
        "(%.2fx, max |dlw| %.2e)\n",
        scale.name, sr.num_topics, sr.sparse_draw_tokens_per_sec,
        sr.dense_draw_tokens_per_sec, sr.speedup, sr.max_abs_diff);
  }
  out.Set("sparse_kernel", sparse_array);

  std::vector<double> sweep_seconds, tokens_per_sec, links_per_sec;
  for (int i = 0; i < scale.serial_sweeps; ++i) {
    double seconds = 0.0;
    {
      ScopedTimer timer(seconds);
      sampler.RunIteration();
    }
    sweep_seconds.push_back(seconds);
  }
  std::vector<char> steady = SteadyMask(sweep_seconds);
  int64_t stalled_sweeps = 0;
  for (size_t i = 0; i < sweep_seconds.size(); ++i) {
    if (!steady[i]) {
      ++stalled_sweeps;
      continue;
    }
    if (sweep_seconds[i] > 0.0) {
      tokens_per_sec.push_back(static_cast<double>(tokens) / sweep_seconds[i]);
      links_per_sec.push_back(
          static_cast<double>(dataset.interactions.num_edges()) /
          sweep_seconds[i]);
    }
  }
  serve::Json serial = serve::Json::MakeObject();
  serial.Set("sweep_seconds", ToJsonArray(sweep_seconds));
  serial.Set("stalled_sweeps", stalled_sweeps);
  serial.Set("tokens_per_second", ToJsonArray(tokens_per_sec));
  serial.Set("links_per_second", ToJsonArray(links_per_sec));
  out.Set("serial", serial);
  std::printf(
      "%-8s serial: %.3g tok/s, %.3g links/s over %zu sweeps "
      "(%lld stalled, excluded)\n",
      scale.name, tokens_per_sec.empty() ? 0.0 : Mean(tokens_per_sec),
      links_per_sec.empty() ? 0.0 : Mean(links_per_sec), sweep_seconds.size(),
      static_cast<long long>(stalled_sweeps));

  // Parallel: wall-clock per superstep of the multi-threaded trainer.
  core::ColdConfig parallel_config = config;
  parallel_config.iterations = scale.parallel_supersteps;
  parallel_config.burn_in = std::max(0, scale.parallel_supersteps - 1);
  engine::EngineOptions options;
  options.threads_per_node = 4;
  core::ParallelColdTrainer trainer(parallel_config, dataset.posts,
                                    &dataset.interactions, options);
  if (auto st = trainer.Init(); !st.ok()) {
    std::fprintf(stderr, "parallel init: %s\n", st.ToString().c_str());
    std::exit(1);
  }
  std::vector<double> superstep_seconds, parallel_tokens_per_sec;
  Stopwatch superstep_watch;
  trainer.SetSuperstepCallback([&](int) {
    double seconds = superstep_watch.ElapsedSeconds();
    superstep_watch.Restart();
    superstep_seconds.push_back(seconds);
  });
  if (auto st = trainer.Train(); !st.ok()) {
    std::fprintf(stderr, "parallel train: %s\n", st.ToString().c_str());
    std::exit(1);
  }
  std::vector<char> parallel_steady = SteadyMask(superstep_seconds);
  int64_t stalled_supersteps = 0;
  for (size_t i = 0; i < superstep_seconds.size(); ++i) {
    if (!parallel_steady[i]) {
      ++stalled_supersteps;
      continue;
    }
    if (superstep_seconds[i] > 0.0) {
      parallel_tokens_per_sec.push_back(static_cast<double>(tokens) /
                                        superstep_seconds[i]);
    }
  }
  serve::Json parallel = serve::Json::MakeObject();
  parallel.Set("superstep_seconds", ToJsonArray(superstep_seconds));
  parallel.Set("stalled_supersteps", stalled_supersteps);
  parallel.Set("tokens_per_second", ToJsonArray(parallel_tokens_per_sec));
  out.Set("parallel", parallel);
  std::printf("%-8s parallel: %.3g tok/s over %zu supersteps\n", scale.name,
              parallel_tokens_per_sec.empty() ? 0.0
                                              : Mean(parallel_tokens_per_sec),
              superstep_seconds.size());
  return out;
}

/// Smoke validation: the emitted file must parse as JSON with the expected
/// shape and strictly positive kernel + sweep throughput.
bool ValidateJson(const std::string& path) {
  auto parsed = bench::LoadJsonFile(path);
  if (!parsed.ok()) {
    std::fprintf(stderr, "smoke: invalid JSON: %s\n",
                 parsed.status().ToString().c_str());
    return false;
  }
  const serve::Json& root = parsed.ValueOrDie();
  const serve::Json* scales = root.Find("scales");
  if (scales == nullptr || !scales->is_array() || scales->as_array().empty()) {
    std::fprintf(stderr, "smoke: missing scales array\n");
    return false;
  }
  for (const serve::Json& scale : scales->as_array()) {
    const serve::Json* kernel = scale.Find("kernel");
    const serve::Json* serial = scale.Find("serial");
    if (kernel == nullptr || serial == nullptr) {
      std::fprintf(stderr, "smoke: scale missing kernel/serial\n");
      return false;
    }
    const serve::Json* opt = kernel->Find("optimized_tokens_per_sec");
    if (opt == nullptr || !opt->is_number() || !(opt->as_number() > 0.0)) {
      std::fprintf(stderr, "smoke: kernel tokens/sec not > 0\n");
      return false;
    }
    const serve::Json* tps = serial->Find("tokens_per_second");
    if (tps == nullptr || !tps->is_array() || tps->as_array().empty() ||
        !(tps->as_array()[0].as_number() > 0.0)) {
      std::fprintf(stderr, "smoke: serial tokens/sec series not > 0\n");
      return false;
    }
    const serve::Json* sparse = scale.Find("sparse_kernel");
    if (sparse == nullptr || !sparse->is_array() ||
        sparse->as_array().empty()) {
      std::fprintf(stderr, "smoke: missing sparse_kernel array\n");
      return false;
    }
    for (const serve::Json& row : sparse->as_array()) {
      const serve::Json* sps = row.Find("sparse_draw_tokens_per_sec");
      if (sps == nullptr || !sps->is_number() || !(sps->as_number() > 0.0)) {
        std::fprintf(stderr, "smoke: sparse draw tokens/sec not > 0\n");
        return false;
      }
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cold;
  bench::QuietLogs();

  std::string out_path = "BENCH_sampler.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out FILE]\n", argv[0]);
      return 1;
    }
  }
  bench::PrintHeader("Sampler hot path: tokens/sec and sweep seconds");

  std::vector<Scale> scales;
  if (smoke) {
    scales.push_back({"smoke", 0.05, 3, 2, 1});
  } else {
    scales.push_back({"small", 0.25, 12, 6, 3});
    scales.push_back({"medium", 1.0, 8, 4, 2});
  }

  serve::Json root = serve::Json::MakeObject();
  root.Set("bench", "sampler_hotpath");
  root.Set("simd", simd::DispatchName());
  serve::Json scale_array = serve::Json::MakeArray();
  for (const Scale& scale : scales) scale_array.Append(RunScale(scale));
  root.Set("scales", scale_array);

  if (!bench::WriteJsonFile(root, out_path)) return 1;
  std::printf("results written to %s\n", out_path.c_str());

  if (smoke && !ValidateJson(out_path)) return 1;
  bench::DumpTelemetryIfRequested();
  return 0;
}
