// Scenario: training at scale on the GAS engine (§4.3). Shows the Fig-4
// graph abstraction in action: supersteps and engine statistics across
// worker counts, next to a serial run for reference.
#include <cstdio>

#include "core/cold.h"
#include "data/synthetic.h"
#include "util/logging.h"
#include "util/stopwatch.h"

int main() {
  using namespace cold;
  Logger::SetLevel(LogLevel::kWarning);

  data::SyntheticConfig data_config;
  data_config.num_users = 800;
  data_config.num_communities = 8;
  data_config.num_topics = 12;
  auto dataset = std::move(
      data::SyntheticSocialGenerator(data_config).Generate()).ValueOrDie();
  std::printf("dataset: %d users, %d posts, %lld links\n",
              dataset.num_users(), dataset.posts.num_posts(),
              static_cast<long long>(dataset.interactions.num_edges()));

  core::ColdConfig config;
  config.num_communities = 8;
  config.num_topics = 12;
  config.rho = 0.5;
  config.alpha = 0.5;
  config.kappa = 10.0;
  config.iterations = 60;
  config.burn_in = 0;

  // Serial reference.
  double serial_perplexity = 0.0;
  {
    Stopwatch watch;
    core::ColdGibbsSampler sampler(config, dataset.posts,
                                   &dataset.interactions);
    if (!sampler.Init().ok() || !sampler.Train().ok()) return 1;
    core::ColdPredictor predictor(sampler.AveragedEstimates());
    serial_perplexity = predictor.Perplexity(dataset.posts);
    std::printf("\nserial sampler: %.2fs, perplexity %.1f\n",
                watch.ElapsedSeconds(), serial_perplexity);
  }

  // Parallel GAS runs across worker counts (capped at the host's cores).
  std::printf("\n%-8s %-12s %-12s\n", "workers", "measured(s)",
              "perplexity");
  for (int workers : {1, 4, 8}) {
    engine::EngineOptions options;
    options.threads_per_node = workers;
    core::ParallelColdTrainer trainer(config, dataset.posts,
                                      &dataset.interactions, options);
    if (!trainer.Init().ok() || !trainer.Train().ok()) return 1;
    core::ColdPredictor predictor(trainer.Estimates());
    std::printf("%-8d %-12.2f %-12.1f\n", workers,
                trainer.engine_stats().total_seconds(),
                predictor.Perplexity(dataset.posts));
  }
  std::printf(
      "\n(a fixed seed gives the same model, hence the same perplexity, at\n"
      " every worker count; the serial run is a different chain — it draws\n"
      " against live counts and averages its samples — so its perplexity\n"
      " differs)\n");
  return 0;
}
