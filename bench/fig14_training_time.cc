// Figure 14: training time of all methods (C = K at the bench scale).
// COLD models text+network+time jointly, so its serial cost exceeds the
// partial-feature baselines. "COLD (N thr)" is the measured parallel
// trainer at this host's hardware thread count N; the paper's 8-machine
// cluster run is not reproduced here.
#include <algorithm>
#include <string>
#include <thread>

#include "baselines/eutb.h"
#include "baselines/mmsb.h"
#include "baselines/pipeline.h"
#include "baselines/pmtlm.h"
#include "baselines/ti.h"
#include "baselines/wtm.h"
#include "common.h"
#include "core/parallel_sampler.h"

int main() {
  using namespace cold;
  bench::QuietLogs();
  bench::PrintHeader("Fig 14: training time per method");

  data::SocialDataset dataset =
      bench::GenerateBenchData(bench::BenchDataConfig());
  data::RetweetSplit retweet_split = data::SplitRetweets(dataset, 0.2, 81, 0);
  const int iterations = 60;

  std::printf("%-12s %10s\n", "method", "seconds");
  auto report = [](const char* name, double seconds) {
    std::printf("%-12s %10.3f\n", name, seconds);
  };

  {
    double seconds = 0.0;
    bench::TrainCold(bench::BenchColdConfig(8, 12, iterations), dataset.posts,
                     &dataset.interactions, &seconds);
    report("COLD", seconds);
  }
  {
    // Same config as the serial run above — a burn_in override here would
    // give the parallel trainer a different schedule and skew the
    // comparison.
    core::ColdConfig config = bench::BenchColdConfig(8, 12, iterations);
    engine::EngineOptions options;
    options.threads_per_node =
        std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
    core::ParallelColdTrainer trainer(config, dataset.posts,
                                      &dataset.interactions, options);
    Stopwatch watch;
    if (!trainer.Init().ok() || !trainer.Train().ok()) return 1;
    const std::string label =
        "COLD (" + std::to_string(options.threads_per_node) + " thr)";
    report(label.c_str(), watch.ElapsedSeconds());
  }
  {
    Stopwatch watch;
    baselines::PmtlmConfig pc;
    pc.num_factors = 12;
    pc.alpha = 0.5;
    pc.iterations = iterations;
    baselines::PmtlmModel pmtlm(pc, dataset.posts, dataset.interactions);
    if (!pmtlm.Train().ok()) return 1;
    report("PMTLM", watch.ElapsedSeconds());
  }
  {
    Stopwatch watch;
    baselines::MmsbConfig mc;
    mc.num_communities = 8;
    mc.rho = 0.5;
    mc.iterations = iterations;
    baselines::MmsbModel mmsb(mc, dataset.interactions, dataset.num_users());
    if (!mmsb.Train().ok()) return 1;
    report("MMSB", watch.ElapsedSeconds());
  }
  {
    Stopwatch watch;
    baselines::EutbConfig ec;
    ec.num_topics = 12;
    ec.alpha = 0.5;
    ec.iterations = iterations;
    baselines::EutbModel eutb(ec, dataset.posts);
    if (!eutb.Train().ok()) return 1;
    report("EUTB", watch.ElapsedSeconds());
  }
  {
    Stopwatch watch;
    baselines::PipelineConfig pc;
    pc.mmsb.num_communities = 8;
    pc.mmsb.rho = 0.5;
    pc.mmsb.iterations = iterations;
    pc.tot.num_topics = 12;
    pc.tot.alpha = 0.5;
    pc.tot.iterations = iterations / 2;
    baselines::PipelineModel pipeline(pc, dataset.posts, dataset.interactions);
    if (!pipeline.Train().ok()) return 1;
    report("Pipeline", watch.ElapsedSeconds());
  }
  {
    Stopwatch watch;
    baselines::TiConfig tc;
    tc.lda.num_topics = 12;
    tc.lda.alpha = 0.5;
    tc.lda.iterations = iterations;
    baselines::TiModel ti(tc, dataset.posts, retweet_split.train);
    if (!ti.Train().ok()) return 1;
    report("TI", watch.ElapsedSeconds());
  }
  {
    Stopwatch watch;
    baselines::WtmModel wtm(baselines::WtmConfig{}, dataset.posts,
                            retweet_split.train_interactions,
                            retweet_split.train);
    if (!wtm.Train().ok()) return 1;
    report("WTM", watch.ElapsedSeconds());
  }
  std::printf(
      "\n(paper shape: serial COLD costs more than partial-feature\n"
      " baselines; the paper's 8-machine COLD run is competitive)\n");
  bench::DumpTelemetryIfRequested();
  return 0;
}
