// Property sweeps over both serialization formats: dataset flat files and
// COLDARN1 model arenas must round-trip exactly across a grid of shapes,
// including degenerate ones (a model with no users).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <utility>

#include "core/checkpoint.h"
#include "core/model_io.h"
#include "data/serialize.h"
#include "data/synthetic.h"
#include "serve/snapshot_arena.h"
#include "util/rng.h"

namespace cold {
namespace {

namespace fs = std::filesystem;

// ----------------------------------------------- dataset round-trip grid --

struct DatasetShape {
  int users;
  int communities;
  int topics;
  int slices;
};

class DatasetRoundTrip : public ::testing::TestWithParam<DatasetShape> {};

TEST_P(DatasetRoundTrip, ExactRoundTrip) {
  const DatasetShape& shape = GetParam();
  data::SyntheticConfig config;
  config.num_users = shape.users;
  config.num_communities = shape.communities;
  config.num_topics = shape.topics;
  config.num_time_slices = shape.slices;
  config.core_words_per_topic = 4;
  config.background_words = 10;
  config.posts_per_user = 3.0;
  config.words_per_post = 4.0;
  config.follows_per_user = 2;
  config.seed = static_cast<uint64_t>(shape.users) * 7 + shape.topics;
  auto ds = std::move(data::SyntheticSocialGenerator(config).Generate())
                .ValueOrDie();

  std::string dir =
      (fs::temp_directory_path() /
       ("cold_ds_rt_" + std::to_string(shape.users) + "_" +
        std::to_string(shape.topics)))
          .string();
  ASSERT_TRUE(data::SaveDataset(ds, dir).ok());
  auto loaded = data::LoadDataset(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  // Every field, so the loaded dataset is the saved one byte for byte.
  ASSERT_EQ(loaded->vocabulary.size(), ds.vocabulary.size());
  for (text::WordId w = 0; w < ds.vocabulary.size(); ++w) {
    EXPECT_EQ(loaded->vocabulary.word(w), ds.vocabulary.word(w));
  }
  EXPECT_EQ(loaded->num_users(), ds.num_users());
  EXPECT_EQ(loaded->num_time_slices(), ds.num_time_slices());
  ASSERT_EQ(loaded->posts.num_posts(), ds.posts.num_posts());
  for (text::PostId d = 0; d < ds.posts.num_posts(); ++d) {
    EXPECT_EQ(loaded->posts.author(d), ds.posts.author(d));
    EXPECT_EQ(loaded->posts.time(d), ds.posts.time(d));
    EXPECT_TRUE(std::ranges::equal(loaded->posts.words(d), ds.posts.words(d)))
        << "post " << d;
  }
  const std::pair<const graph::Digraph*, const graph::Digraph*> graphs[] = {
      {&loaded->followers, &ds.followers},
      {&loaded->interactions, &ds.interactions}};
  for (auto [got, want] : graphs) {
    EXPECT_EQ(got->num_nodes(), want->num_nodes());
    ASSERT_EQ(got->num_edges(), want->num_edges());
    for (graph::EdgeId e = 0; e < want->num_edges(); ++e) {
      EXPECT_EQ(got->edge(e).src, want->edge(e).src) << "edge " << e;
      EXPECT_EQ(got->edge(e).dst, want->edge(e).dst) << "edge " << e;
    }
  }
  ASSERT_EQ(loaded->retweets.size(), ds.retweets.size());
  for (size_t i = 0; i < ds.retweets.size(); ++i) {
    EXPECT_EQ(loaded->retweets[i].author, ds.retweets[i].author);
    EXPECT_EQ(loaded->retweets[i].post, ds.retweets[i].post);
    EXPECT_EQ(loaded->retweets[i].retweeters, ds.retweets[i].retweeters);
    EXPECT_EQ(loaded->retweets[i].ignorers, ds.retweets[i].ignorers);
  }
  // A checkpoint records this fingerprint, so one written before a loader
  // change still resumes after it.
  EXPECT_EQ(core::DataFingerprint(loaded->posts, &loaded->interactions),
            core::DataFingerprint(ds.posts, &ds.interactions));
  fs::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Shapes, DatasetRoundTrip,
                         ::testing::Values(DatasetShape{10, 2, 2, 2},
                                           DatasetShape{40, 3, 5, 8},
                                           DatasetShape{80, 6, 3, 4},
                                           DatasetShape{25, 1, 1, 2}));

// ------------------------------------------------- model round-trip grid --

struct ModelShape {
  int U, C, K, T, V;
};

class ModelRoundTrip : public ::testing::TestWithParam<ModelShape> {};

TEST_P(ModelRoundTrip, ExactRoundTrip) {
  const ModelShape& shape = GetParam();
  core::ColdEstimates est;
  est.U = shape.U;
  est.C = shape.C;
  est.K = shape.K;
  est.T = shape.T;
  est.V = shape.V;
  RandomSampler sampler(static_cast<uint64_t>(shape.U + shape.V));
  auto fill = [&](std::vector<double>* v, size_t n) {
    v->resize(n);
    for (double& x : *v) x = sampler.Uniform();
  };
  fill(&est.pi, static_cast<size_t>(shape.U) * shape.C);
  fill(&est.theta, static_cast<size_t>(shape.C) * shape.K);
  fill(&est.eta, static_cast<size_t>(shape.C) * shape.C);
  fill(&est.phi, static_cast<size_t>(shape.K) * shape.V);
  fill(&est.psi, static_cast<size_t>(shape.K) * shape.C * shape.T);

  std::string path =
      (fs::temp_directory_path() /
       ("cold_model_rt_" + std::to_string(shape.U) + "_" +
        std::to_string(shape.K) + ".arena"))
          .string();
  // Save, then map: mapping validates every CRC, size and value check.
  ASSERT_TRUE(core::SaveArenaSnapshot(est, 5, path).ok());
  auto mapped = serve::ArenaSnapshot::Map(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  const core::EstimatesView& view = (*mapped)->view();
  ASSERT_EQ(view.U, est.U);
  ASSERT_EQ(view.C, est.C);
  ASSERT_EQ(view.K, est.K);
  ASSERT_EQ(view.T, est.T);
  ASSERT_EQ(view.V, est.V);
  auto same_bytes = [](const double* mapped_array,
                       const std::vector<double>& saved) {
    return saved.empty() || std::memcmp(mapped_array, saved.data(),
                                        saved.size() * sizeof(double)) == 0;
  };
  EXPECT_TRUE(same_bytes(view.pi, est.pi));
  EXPECT_TRUE(same_bytes(view.theta, est.theta));
  EXPECT_TRUE(same_bytes(view.eta, est.eta));
  EXPECT_TRUE(same_bytes(view.phi, est.phi));
  EXPECT_TRUE(same_bytes(view.psi, est.psi));
  fs::remove(path);
}

INSTANTIATE_TEST_SUITE_P(Shapes, ModelRoundTrip,
                         ::testing::Values(ModelShape{1, 1, 1, 1, 1},
                                           ModelShape{10, 3, 4, 5, 20},
                                           ModelShape{0, 2, 2, 2, 3},
                                           ModelShape{100, 8, 12, 24, 700}));

}  // namespace
}  // namespace cold
