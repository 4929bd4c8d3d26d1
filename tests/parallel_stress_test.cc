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

#include <vector>

#include "core/cold.h"
#include "data/synthetic.h"
#include "text/post_store.h"

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

/// 2,000 users, each writing one three-word post in 34 of 40 time slices:
/// 68,000 user-time edges (266 scatter chunks) over tiny count tables, so
/// even a pool of a few hundred workers keeps small delta buffers.
const text::PostStore& ManyChunkPosts() {
  static const text::PostStore* posts = [] {
    auto* store = new text::PostStore;
    for (int i = 0; i < 2000; ++i) {
      for (int j = 0; j < 34; ++j) {
        const std::vector<text::WordId> words = {
            (i * 31 + j * 17) % 60, (i + j) % 60, (i * 7 + j * 5) % 60};
        store->Add(i, (i + j) % 40, words);
      }
    }
    store->Finalize();
    return store;
  }();
  return *posts;
}

TEST(ParallelStressTest, PoolPast256WorkersMatchesOneWorker) {
  // Per-worker scatter scratch is sized from the trainer's pool, so every
  // worker of a pool past 256 (a fixed 256-entry scratch overflowed here)
  // draws in bounds. More chunks than workers give every worker a chance
  // to draw; run it under the asan preset too.
  const text::PostStore& posts = ManyChunkPosts();
  ColdConfig config;
  config.num_communities = 3;
  config.num_topics = 4;
  config.iterations = 3;
  config.burn_in = 2;
  config.seed = 41;
  config.rho = 0.5;
  auto run = [&](int threads) {
    engine::EngineOptions options;
    options.threads_per_node = threads;
    options.oversubscribe = true;
    ParallelColdTrainer trainer(config, posts, nullptr, options);
    EXPECT_TRUE(trainer.Init().ok());
    EXPECT_GT(trainer.NumScatterChunks(), threads);
    EXPECT_TRUE(trainer.Train().ok());
    return trainer.StateSnapshot();
  };
  const ColdState many = run(260);
  const ColdState one = run(1);
  EXPECT_EQ(many.post_community, one.post_community);
  EXPECT_EQ(many.post_topic, one.post_topic);
  EXPECT_EQ(many.n_ic_flat(), one.n_ic_flat());
  EXPECT_EQ(many.n_ck_flat(), one.n_ck_flat());
  EXPECT_EQ(many.n_c_flat(), one.n_c_flat());
  EXPECT_EQ(many.n_ckt_flat(), one.n_ckt_flat());
  EXPECT_EQ(many.n_kv_flat(), one.n_kv_flat());
  EXPECT_EQ(many.n_k_flat(), one.n_k_flat());
  EXPECT_TRUE(many.CheckInvariants(posts, nullptr, false).ok());
}

}  // namespace
}  // namespace cold::core
