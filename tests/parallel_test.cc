#include <gtest/gtest.h>

#include <cmath>

#include "core/cold.h"
#include "data/synthetic.h"
#include "obs/metrics.h"
#include "util/math_util.h"

namespace cold::core {
namespace {

data::SyntheticConfig TestDataConfig() {
  data::SyntheticConfig config;
  config.num_users = 150;
  config.num_communities = 4;
  config.num_topics = 6;
  config.num_time_slices = 12;
  config.core_words_per_topic = 12;
  config.background_words = 60;
  config.posts_per_user = 10.0;
  config.words_per_post = 8.0;
  config.follows_per_user = 8;
  config.seed = 11;
  return config;
}

const data::SocialDataset& TestData() {
  static const data::SocialDataset* dataset = [] {
    data::SyntheticSocialGenerator gen(TestDataConfig());
    return new data::SocialDataset(std::move(gen.Generate()).ValueOrDie());
  }();
  return *dataset;
}

ColdConfig TestModelConfig() {
  ColdConfig config;
  config.num_communities = 4;
  config.num_topics = 6;
  config.iterations = 40;
  config.burn_in = 30;
  config.seed = 17;
  // The paper's rho = 50/C targets Weibo-scale user activity; at this test
  // scale (~10 posts/user) it would swamp the membership signal.
  config.rho = 0.5;
  return config;
}

TEST(ParallelStateTest, SnapshotRoundTrip) {
  ParallelColdState state(3, 2, 2, 4, 5, 6, 2);
  state.post_community = {0, 1, 0, 1, 0, 1};
  state.post_topic = {1, 1, 0, 0, 1, 0};
  state.n_ic(1, 0) = 3;
  state.n_ckt(1, 0, 2) = 4;
  state.n_kv(1, 4) = 5;
  state.n_cc(0, 1) = 6;
  ColdState snapshot = state;
  EXPECT_EQ(snapshot.post_community, state.post_community);
  EXPECT_EQ(snapshot.n_ic(1, 0), 3);
  EXPECT_EQ(snapshot.n_ckt(1, 0, 2), 4);
  EXPECT_EQ(snapshot.n_kv(1, 4), 5);
  EXPECT_EQ(snapshot.n_cc(0, 1), 6);
  EXPECT_EQ(snapshot.n_ic(0, 0), 0);
}

TEST(ParallelTrainerTest, InitBuildsConsistentCounters) {
  const auto& ds = TestData();
  ParallelColdTrainer trainer(TestModelConfig(), ds.posts, &ds.interactions);
  ASSERT_TRUE(trainer.Init().ok());
  ColdState snapshot = trainer.StateSnapshot();
  auto status = snapshot.CheckInvariants(ds.posts, &ds.interactions, true);
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST(ParallelTrainerTest, CountersConsistentAfterSupersteps) {
  const auto& ds = TestData();
  ParallelColdTrainer trainer(TestModelConfig(), ds.posts, &ds.interactions);
  ASSERT_TRUE(trainer.Init().ok());
  for (int s = 0; s < 3; ++s) trainer.RunSuperstep();
  ColdState snapshot = trainer.StateSnapshot();
  auto status = snapshot.CheckInvariants(ds.posts, &ds.interactions, true);
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST(ParallelTrainerTest, TrainRequiresInit) {
  const auto& ds = TestData();
  ParallelColdTrainer trainer(TestModelConfig(), ds.posts, &ds.interactions);
  EXPECT_EQ(trainer.Train().code(), cold::StatusCode::kFailedPrecondition);
}

TEST(ParallelTrainerTest, SuperstepRequiresInit) {
  const auto& ds = TestData();
  ParallelColdTrainer trainer(TestModelConfig(), ds.posts, &ds.interactions);
  EXPECT_EQ(trainer.RunSuperstep().code(),
            cold::StatusCode::kFailedPrecondition);
  EXPECT_EQ(trainer.supersteps_run(), 0);
}

TEST(ParallelTrainerTest, EstimatesNormalized) {
  const auto& ds = TestData();
  ParallelColdTrainer trainer(TestModelConfig(), ds.posts, &ds.interactions);
  ASSERT_TRUE(trainer.Init().ok());
  ASSERT_TRUE(trainer.Train().ok());
  ColdEstimates est = trainer.Estimates();
  for (int c = 0; c < est.C; ++c) {
    double total = 0.0;
    for (int k = 0; k < est.K; ++k) total += est.Theta(c, k);
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
  for (int k = 0; k < est.K; ++k) {
    double total = 0.0;
    for (int v = 0; v < est.V; ++v) total += est.Phi(k, v);
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(ParallelTrainerTest, ConvergesLikeSerialSampler) {
  // The parallel sampler is an approximation of the serial chain; after the
  // same number of sweeps both should reach a comparable training
  // log-likelihood (within a few percent), far above the random-init value.
  const auto& ds = TestData();
  ColdConfig config = TestModelConfig();

  ColdGibbsSampler serial(config, ds.posts, &ds.interactions);
  ASSERT_TRUE(serial.Init().ok());
  double ll_init = serial.TrainingLogLikelihood();
  ASSERT_TRUE(serial.Train().ok());
  double ll_serial = serial.TrainingLogLikelihood();

  ParallelColdTrainer parallel(config, ds.posts, &ds.interactions);
  ASSERT_TRUE(parallel.Init().ok());
  ASSERT_TRUE(parallel.Train().ok());
  // Evaluate the parallel chain's fit through the same likelihood function:
  // transplant its state into a serial sampler via estimates comparison.
  ColdEstimates est = parallel.Estimates();
  // Compute the same joint likelihood directly.
  double ll_parallel = 0.0;
  {
    std::vector<double> joint(static_cast<size_t>(est.C) * est.K);
    std::vector<double> log_word(static_cast<size_t>(est.K));
    for (text::PostId d = 0; d < ds.posts.num_posts(); ++d) {
      text::UserId i = ds.posts.author(d);
      int t = ds.posts.time(d);
      for (int k = 0; k < est.K; ++k) {
        double lw = 0.0;
        for (text::WordId w : ds.posts.words(d)) {
          lw += std::log(est.Phi(k, w));
        }
        log_word[static_cast<size_t>(k)] = lw;
      }
      for (int c = 0; c < est.C; ++c) {
        for (int k = 0; k < est.K; ++k) {
          joint[static_cast<size_t>(c) * est.K + k] =
              std::log(est.Pi(i, c)) + std::log(est.Theta(c, k)) +
              log_word[static_cast<size_t>(k)] + std::log(est.Psi(k, c, t));
        }
      }
      ll_parallel += LogSumExp(joint);
    }
    for (graph::EdgeId e = 0; e < ds.interactions.num_edges(); ++e) {
      const graph::Edge& edge = ds.interactions.edge(e);
      double p = 0.0;
      for (int c = 0; c < est.C; ++c) {
        for (int c2 = 0; c2 < est.C; ++c2) {
          p += est.Pi(edge.src, c) * est.Pi(edge.dst, c2) * est.Eta(c, c2);
        }
      }
      ll_parallel += std::log(std::max(p, 1e-300));
    }
  }
  // Both runs must improve massively over random init...
  EXPECT_GT(ll_serial, ll_init + 0.5 * std::abs(ll_init) * 0.01);
  EXPECT_GT(ll_parallel, ll_init);
  // ...and land within 5% of each other.
  EXPECT_NEAR(ll_parallel, ll_serial, std::abs(ll_serial) * 0.05);
}

TEST(ParallelTrainerTest, EngineStatsPopulated) {
  const auto& ds = TestData();
  ColdConfig config = TestModelConfig();
  config.iterations = 3;
  config.burn_in = 0;
  engine::EngineOptions options;
  options.threads_per_node = 4;
  ParallelColdTrainer trainer(config, ds.posts, &ds.interactions, options);
  ASSERT_TRUE(trainer.Init().ok());
  ASSERT_TRUE(trainer.Train().ok());
  const engine::EngineStats& stats = trainer.engine_stats();
  EXPECT_EQ(stats.supersteps, 3);
  EXPECT_EQ(stats.gather_seconds, 0.0);
  EXPECT_EQ(stats.apply_seconds, 0.0);
  EXPECT_GT(stats.scatter_seconds, 0.0);
}

TEST(ParallelTrainerTest, RegistryMetricsMatchEngineStats) {
  // The trainer adds the exact same deltas, in the same order, to both its
  // EngineStats accumulators and the telemetry registry — so after a train
  // the two views must agree bit-for-bit.
  obs::Registry::Enable();
  auto& registry = obs::Registry::Global();
  registry.Reset();
  const auto& ds = TestData();
  ColdConfig config = TestModelConfig();
  config.iterations = 3;
  config.burn_in = 0;
  engine::EngineOptions options;
  options.threads_per_node = 4;
  ParallelColdTrainer trainer(config, ds.posts, &ds.interactions, options);
  ASSERT_TRUE(trainer.Init().ok());
  int supersteps_seen = 0;
  trainer.SetSuperstepCallback([&](int s) { supersteps_seen = s; });
  ASSERT_TRUE(trainer.Train().ok());
  EXPECT_EQ(supersteps_seen, 3);

  const engine::EngineStats& stats = trainer.engine_stats();
  EXPECT_DOUBLE_EQ(registry.GetGauge("cold/engine/scatter_seconds")->Value(),
                   stats.scatter_seconds);
  EXPECT_DOUBLE_EQ(registry.GetGauge("cold/engine/merge_seconds")->Value(),
                   stats.merge_seconds);
  EXPECT_EQ(registry.GetCounter("cold/engine/supersteps")->Value(),
            stats.supersteps);
  // Each superstep ran under a trace span.
  EXPECT_EQ(registry.GetHistogram("cold/trace/engine/superstep")->count(),
            stats.supersteps);
}

TEST(ParallelTrainerTest, NoLinkMode) {
  const auto& ds = TestData();
  ColdConfig config = TestModelConfig();
  config.use_network = false;
  config.iterations = 3;
  config.burn_in = 0;
  ParallelColdTrainer trainer(config, ds.posts, &ds.interactions);
  ASSERT_TRUE(trainer.Init().ok());
  ASSERT_TRUE(trainer.Train().ok());
  ColdState snapshot = trainer.StateSnapshot();
  EXPECT_TRUE(snapshot.CheckInvariants(ds.posts, nullptr, false).ok());
}

// --- delta-table determinism and observability ----------------------------

TEST(ParallelTrainerTest, MultiWorkerFixedSeedRunsAreBitIdentical) {
  // Scatter reads canonical counters frozen for the phase and keys every
  // RNG draw by (superstep, chunk), so repeated runs with the same seed and
  // worker count -- and runs with DIFFERENT worker counts -- must land on
  // byte-identical state.
  const auto& ds = TestData();
  auto run = [&](int threads) {
    ColdConfig config = TestModelConfig();
    config.iterations = 5;
    config.burn_in = 0;
    engine::EngineOptions options;
    options.threads_per_node = threads;
    options.oversubscribe = true;
    ParallelColdTrainer trainer(config, ds.posts, &ds.interactions, options);
    EXPECT_TRUE(trainer.Init().ok());
    EXPECT_TRUE(trainer.Train().ok());
    return trainer.StateSnapshot();
  };
  ColdState a = run(4);
  ColdState b = run(4);
  EXPECT_EQ(a.post_community, b.post_community);
  EXPECT_EQ(a.post_topic, b.post_topic);
  EXPECT_EQ(a.link_src_community, b.link_src_community);
  EXPECT_EQ(a.link_dst_community, b.link_dst_community);
  // Worker count must not matter either: chunk boundaries depend only on
  // the edge count, and the per-cell merge order is fixed.
  ColdState c = run(1);
  EXPECT_EQ(a.post_community, c.post_community);
  EXPECT_EQ(a.post_topic, c.post_topic);
  EXPECT_EQ(a.link_src_community, c.link_src_community);
  EXPECT_EQ(a.link_dst_community, c.link_dst_community);
}

TEST(ParallelTrainerTest, StaleClampStaysZeroUnderDeltaMode) {
  // The kernels read frozen counts with exact own-contribution exclusion,
  // so the negative-count clamp must never fire.
  obs::Registry::Enable();
  auto& registry = obs::Registry::Global();
  registry.Reset();
  const auto& ds = TestData();
  ColdConfig config = TestModelConfig();
  config.iterations = 5;
  config.burn_in = 0;
  engine::EngineOptions options;
  options.threads_per_node = 4;
  options.oversubscribe = true;
  ParallelColdTrainer trainer(config, ds.posts, &ds.interactions, options);
  ASSERT_TRUE(trainer.Init().ok());
  ASSERT_TRUE(trainer.Train().ok());
  EXPECT_EQ(registry.GetCounter("cold/parallel/stale_clamp_total")->Value(),
            0);
}

}  // namespace
}  // namespace cold::core
