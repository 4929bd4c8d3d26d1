// Engine-mode ablation: GraphLab offers synchronous (barriered GAS
// supersteps) and asynchronous (barrier-free, dynamically scheduled)
// execution. COLD's sampler tolerates both (atomic counters, approximate
// Gibbs). This bench compares per-sweep cost and fit quality between the
// modes.
#include "common.h"
#include "core/parallel_sampler.h"
#include "core/predictor.h"

int main() {
  using namespace cold;
  bench::QuietLogs();
  bench::PrintHeader("Ablation: sync supersteps vs async sweeps");

  data::SocialDataset dataset =
      bench::GenerateBenchData(bench::BenchDataConfig());
  const int sweeps = 40;

  std::printf("%-8s %14s %14s\n", "mode", "seconds", "perplexity");
  for (auto mode :
       {engine::ExecutionMode::kSync, engine::ExecutionMode::kAsync}) {
    core::ColdConfig config = bench::BenchColdConfig(8, 12, sweeps);
    config.burn_in = 0;
    engine::EngineOptions options;
    options.threads_per_node = 4;
    options.execution = mode;
    core::ParallelColdTrainer trainer(config, dataset.posts,
                                      &dataset.interactions, options);
    if (!trainer.Init().ok() || !trainer.Train().ok()) return 1;
    core::ColdPredictor predictor(trainer.Estimates());
    std::printf("%-8s %14.3f %14.1f\n",
                mode == engine::ExecutionMode::kSync ? "sync" : "async",
                trainer.engine_stats().total_seconds(),
                predictor.Perplexity(dataset.posts));
  }
  std::printf(
      "\n(expected: equivalent fit; async skips the gather/apply pass,\n"
      " trading bulk sync for fine-grained updates)\n");
  return 0;
}
