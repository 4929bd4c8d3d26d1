// Strong-scaling benchmark for the parallel trainer (tentpole of the
// parallel-scalability PR; DESIGN.md §10).
//
// Measures, at two data scales:
//   - a strong-scaling thread series (1 .. hardware threads): per-superstep
//     tokens/sec and links/sec plus speedup over the 1-thread run;
//   - the serial sampler on the same data, so the parallel numbers are
//     anchored to the single-core baseline.
//
// Results land as JSON in --out (default BENCH_parallel.json) so runs can
// be diffed across commits. --smoke shrinks everything to seconds of
// runtime, re-parses the emitted JSON and fails (exit 1) unless it is
// well-formed with positive throughput — wired up as the
// `bench_parallel_smoke` ctest.
#include <algorithm>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "core/parallel_sampler.h"
#include "serve/json.h"
#include "util/stopwatch.h"

namespace {

using namespace cold;

int HardwareThreads() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

/// Top of the strong-scaling thread series: hardware threads by default,
/// or the COLD_BENCH_THREADS override. On constrained machines (CI boxes
/// report 1 core, making speedup_vs_1 vacuous) the override lets the
/// series exercise multi-worker code paths by oversubscribing — the run is
/// then a code-path benchmark, not a throughput claim, which is why the
/// emitted JSON records requested-vs-available and flags each
/// oversubscribed point.
int BenchThreads() {
  const char* env = std::getenv("COLD_BENCH_THREADS");
  if (env == nullptr || *env == '\0') return HardwareThreads();
  int threads = std::atoi(env);
  if (threads < 1 || threads > 256) {
    std::fprintf(stderr, "ignoring invalid COLD_BENCH_THREADS '%s'\n", env);
    return HardwareThreads();
  }
  return threads;
}

/// One benchmark scale: dataset size multiplier + superstep counts.
struct Scale {
  const char* name;
  double data_scale;  // multiplies BenchDataConfig user count
  int supersteps;
};

/// Trains `config.iterations` supersteps and returns the fastest single
/// superstep's seconds — the noise-robust throughput basis on a shared
/// machine (slow outliers are scheduler preemption, not sampler cost).
double MinSuperstepSeconds(const core::ColdConfig& config,
                           const data::SocialDataset& ds,
                           engine::EngineOptions options) {
  core::ParallelColdTrainer trainer(config, ds.posts, &ds.interactions,
                                    options);
  auto st = trainer.Init();
  if (!st.ok()) {
    std::fprintf(stderr, "parallel init failed: %s\n", st.ToString().c_str());
    std::exit(1);
  }
  double min_seconds = 0.0;
  for (int step = 0; step < config.iterations; ++step) {
    Stopwatch watch;
    trainer.RunSuperstep();
    double seconds = watch.ElapsedSeconds();
    if (step == 0 || seconds < min_seconds) min_seconds = seconds;
  }
  return min_seconds;
}

serve::Json RunScale(const Scale& scale) {
  data::SyntheticConfig data_config = bench::BenchDataConfig();
  data_config.num_users =
      std::max(20, static_cast<int>(data_config.num_users * scale.data_scale));
  const data::SocialDataset ds = bench::GenerateBenchData(data_config);

  int64_t tokens = 0;
  for (text::PostId d = 0; d < ds.posts.num_posts(); ++d) {
    tokens += ds.posts.length(d);
  }
  const int64_t links = ds.interactions.num_edges();

  core::ColdConfig config = bench::BenchColdConfig(8, 12, scale.supersteps);
  config.burn_in = 0;
  config.sample_lag = 1;

  bench::PrintHeader(std::string("parallel_scaling: ") + scale.name);
  std::printf("posts=%d links=%lld tokens=%lld supersteps=%d\n",
              ds.posts.num_posts(), static_cast<long long>(links),
              static_cast<long long>(tokens), scale.supersteps);

  serve::Json out = serve::Json::MakeObject();
  out.Set("name", scale.name);
  out.Set("num_posts", static_cast<double>(ds.posts.num_posts()));
  out.Set("num_links", static_cast<double>(links));
  out.Set("tokens", static_cast<double>(tokens));

  auto rate = [](double step_seconds, int64_t units) {
    return step_seconds > 0.0 ? static_cast<double>(units) / step_seconds
                              : 0.0;
  };

  // --- strong-scaling thread series ---
  const int hw_threads = HardwareThreads();
  const int max_threads = BenchThreads();
  serve::Json thread_series = serve::Json::MakeArray();
  std::vector<double> tokens_per_sec_series;
  double max_threads_tps = 0.0;
  for (int threads = 1; threads <= max_threads; ++threads) {
    engine::EngineOptions options;
    options.threads_per_node = threads;
    options.oversubscribe = threads > hw_threads;
    double min_seconds = MinSuperstepSeconds(config, ds, options);
    double tps = rate(min_seconds, tokens);
    double lps = rate(min_seconds, links);
    tokens_per_sec_series.push_back(tps);
    max_threads_tps = tps;
    serve::Json point = serve::Json::MakeObject();
    point.Set("threads", static_cast<double>(threads));
    point.Set("tokens_per_sec", tps);
    point.Set("links_per_sec", lps);
    point.Set("speedup_vs_1",
              tokens_per_sec_series[0] > 0.0 ? tps / tokens_per_sec_series[0]
                                             : 0.0);
    // Oversubscribed points share cores: their speedup_vs_1 measures code
    // paths, not scaling.
    point.Set("oversubscribed", threads > hw_threads);
    thread_series.Append(point);
  }
  out.Set("threads", thread_series);
  bench::PrintSeries("tokens/sec", tokens_per_sec_series, "%.0f");

  // --- serial sampler anchor ---
  {
    core::ColdGibbsSampler serial(config, ds.posts, &ds.interactions);
    auto st = serial.Init();
    if (!st.ok()) {
      std::fprintf(stderr, "serial init failed: %s\n", st.ToString().c_str());
      std::exit(1);
    }
    double min_sweep = 0.0;
    for (int sweep = 0; sweep < scale.supersteps; ++sweep) {
      Stopwatch watch;
      serial.RunIteration();
      double seconds = watch.ElapsedSeconds();
      if (sweep == 0 || seconds < min_sweep) min_sweep = seconds;
    }
    double serial_tps = rate(min_sweep, tokens);
    out.Set("serial_tokens_per_sec", serial_tps);
    out.Set("speedup_vs_serial",
            serial_tps > 0.0 ? max_threads_tps / serial_tps : 0.0);
    std::printf("serial sampler %.0f tokens/sec\n", serial_tps);
  }
  return out;
}

/// Smoke validation: the emitted file must parse as JSON with the expected
/// shape and strictly positive throughput everywhere.
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
    const serve::Json* threads = scale.Find("threads");
    if (threads == nullptr || !threads->is_array() ||
        threads->as_array().empty()) {
      std::fprintf(stderr, "smoke: missing threads series\n");
      return false;
    }
    for (const serve::Json& point : threads->as_array()) {
      const serve::Json* tps = point.Find("tokens_per_sec");
      if (tps == nullptr || !tps->is_number() || !(tps->as_number() > 0.0)) {
        std::fprintf(stderr, "smoke: tokens/sec not > 0\n");
        return false;
      }
    }
    const serve::Json* serial = scale.Find("serial_tokens_per_sec");
    if (serial == nullptr || !serial->is_number() ||
        !(serial->as_number() > 0.0)) {
      std::fprintf(stderr, "smoke: serial_tokens_per_sec not > 0\n");
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cold;
  bench::QuietLogs();

  std::string out_path = "BENCH_parallel.json";
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
  bench::PrintHeader("Parallel trainer: strong scaling");

  std::vector<Scale> scales;
  if (smoke) {
    scales.push_back({"smoke", 0.05, 3});
  } else {
    scales.push_back({"small", 0.25, 10});
    scales.push_back({"medium", 1.0, 5});
  }

  serve::Json root = serve::Json::MakeObject();
  root.Set("bench", "parallel_scaling");
  root.Set("hardware_threads", static_cast<double>(HardwareThreads()));
  // Requested-vs-available: bench_threads is the top of the thread series
  // (COLD_BENCH_THREADS override, else hardware_threads). When overridden
  // past the hardware, points are explicitly flagged "oversubscribed".
  root.Set("bench_threads", static_cast<double>(BenchThreads()));
  root.Set("threads_overridden", std::getenv("COLD_BENCH_THREADS") != nullptr);
  serve::Json scale_array = serve::Json::MakeArray();
  for (const Scale& scale : scales) scale_array.Append(RunScale(scale));
  root.Set("scales", scale_array);

  if (!bench::WriteJsonFile(root, out_path)) return 1;
  std::printf("results written to %s\n", out_path.c_str());

  if (smoke && !ValidateJson(out_path)) return 1;
  bench::DumpTelemetryIfRequested();
  return 0;
}
