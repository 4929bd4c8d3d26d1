// Stress test for the parallel trainer's delta-table scatter: many
// oversubscribed workers hammering one dataset for hundreds of supersteps.
// Three communities and four topics keep the count tables tiny, so every
// worker touches every counter region, and the dataset spans more scatter
// chunks than there are workers, so every worker scatters in every
// superstep. That makes this the test that gives TSan the best shot at the
// merge/freeze protocol — run it under the tsan preset (see README
// "Testing"). It also re-checks determinism after a long run, where any
// scheduling-dependent divergence would have compounded.
#include <gtest/gtest.h>

#include "core/cold.h"
#include "data/synthetic.h"

namespace cold::core {
namespace {

const data::SocialDataset& StressData() {
  static const data::SocialDataset* dataset = [] {
    data::SyntheticConfig config;
    config.num_users = 400;
    config.num_communities = 3;
    config.num_topics = 4;
    config.num_time_slices = 12;
    config.core_words_per_topic = 8;
    config.background_words = 30;
    config.posts_per_user = 8.0;
    config.words_per_post = 6.0;
    config.follows_per_user = 6;
    config.seed = 23;
    data::SyntheticSocialGenerator gen(config);
    return new data::SocialDataset(std::move(gen.Generate()).ValueOrDie());
  }();
  return *dataset;
}

ColdConfig StressModelConfig() {
  ColdConfig config;
  config.num_communities = 3;
  config.num_topics = 4;
  config.iterations = 200;
  config.burn_in = 150;
  config.seed = 31;
  config.rho = 0.5;
  return config;
}

engine::EngineOptions StressOptions() {
  engine::EngineOptions options;
  options.threads_per_node = 8;
  options.oversubscribe = true;
  return options;
}

TEST(ParallelStressTest, ManyWorkersManySuperstepsStayConsistent) {
  const auto& ds = StressData();
  ParallelColdTrainer trainer(StressModelConfig(), ds.posts,
                              &ds.interactions, StressOptions());
  ASSERT_TRUE(trainer.Init().ok());
  // A chunk is the unit of scatter work; with fewer chunks than workers
  // some workers would never run a draw concurrently with another.
  ASSERT_GT(trainer.NumScatterChunks(), StressOptions().threads_per_node);
  ASSERT_TRUE(trainer.Train().ok());
  EXPECT_EQ(trainer.supersteps_run(), 200);
  ColdState snapshot = trainer.StateSnapshot();
  auto status = snapshot.CheckInvariants(ds.posts, &ds.interactions, true);
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST(ParallelStressTest, LongRunStaysDeterministic) {
  // Divergence from a scheduling race would compound over 200 supersteps;
  // two oversubscribed 8-worker runs must still agree exactly.
  const auto& ds = StressData();
  auto run = [&] {
    ParallelColdTrainer trainer(StressModelConfig(), ds.posts,
                                &ds.interactions, StressOptions());
    EXPECT_TRUE(trainer.Init().ok());
    EXPECT_TRUE(trainer.Train().ok());
    return trainer.StateSnapshot();
  };
  ColdState a = run();
  ColdState b = run();
  EXPECT_EQ(a.post_community, b.post_community);
  EXPECT_EQ(a.post_topic, b.post_topic);
  EXPECT_EQ(a.link_src_community, b.link_src_community);
  EXPECT_EQ(a.link_dst_community, b.link_dst_community);
}

}  // namespace
}  // namespace cold::core
