// End-to-end integration: generate → split → train (serial and parallel) →
// predict → apply. Mirrors what the examples and benches do, with quality
// assertions, so a regression anywhere in the stack surfaces here even if
// the per-module tests still pass.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <memory>

#include "apps/influence.h"
#include "apps/patterns.h"
#include "core/cold.h"
#include "core/model_io.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
#include "serve/snapshot_arena.h"

namespace cold {
namespace {

class EndToEnd : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::SyntheticConfig config;
    config.num_users = 300;
    config.num_communities = 5;
    config.num_topics = 8;
    config.num_time_slices = 16;
    config.core_words_per_topic = 15;
    config.background_words = 100;
    config.posts_per_user = 12.0;
    config.words_per_post = 8.0;
    config.follows_per_user = 12;
    config.seed = 101;
    dataset_ = new data::SocialDataset(
        std::move(data::SyntheticSocialGenerator(config).Generate())
            .ValueOrDie());

    core::ColdConfig model;
    model.num_communities = 5;
    model.num_topics = 8;
    model.rho = 0.5;
    model.alpha = 0.5;
    model.kappa = 10.0;
    model.iterations = 80;
    model.burn_in = 60;
    model.seed = 103;
    auto* sampler = new core::ColdGibbsSampler(model, dataset_->posts,
                                               &dataset_->interactions);
    ASSERT_TRUE(sampler->Init().ok());
    ASSERT_TRUE(sampler->Train().ok());
    estimates_ = new core::ColdEstimates(sampler->AveragedEstimates());
    delete sampler;
  }
  static void TearDownTestSuite() {
    delete estimates_;
    delete dataset_;
    estimates_ = nullptr;
    dataset_ = nullptr;
  }

  static data::SocialDataset* dataset_;
  static core::ColdEstimates* estimates_;
};

data::SocialDataset* EndToEnd::dataset_ = nullptr;
core::ColdEstimates* EndToEnd::estimates_ = nullptr;

TEST_F(EndToEnd, TopicsAreThemePure) {
  // Each extracted topic's top words should come overwhelmingly from one
  // planted theme (the vocabulary names encode it).
  int pure = 0;
  for (int k = 0; k < estimates_->K; ++k) {
    auto top = estimates_->TopWords(k, 8);
    // The planted theme of a core word id w is w / core_words_per_topic.
    std::vector<int> votes(9, 0);
    for (int w : top) {
      int theme = w / 15;
      if (theme < 8) votes[static_cast<size_t>(theme)]++;
      else votes[8]++;  // background
    }
    int best = *std::max_element(votes.begin(), votes.begin() + 8);
    if (best >= 6) ++pure;
  }
  EXPECT_GE(pure, 6) << "at least 6 of 8 topics should be theme-pure";
}

TEST_F(EndToEnd, DiffusionPredictionBeatsRandomOnHeldOut) {
  data::RetweetSplit split = data::SplitRetweets(*dataset_, 0.2, 107, 0);
  // Retrain on the split's network to avoid leakage.
  core::ColdConfig model;
  model.num_communities = 5;
  model.num_topics = 8;
  model.rho = 0.5;
  model.alpha = 0.5;
  model.kappa = 10.0;
  model.iterations = 80;
  model.burn_in = 60;
  core::ColdGibbsSampler sampler(model, dataset_->posts,
                                 &split.train_interactions);
  ASSERT_TRUE(sampler.Init().ok());
  ASSERT_TRUE(sampler.Train().ok());
  core::ColdPredictor predictor(sampler.AveragedEstimates(), 5);

  std::vector<eval::ScoredTuple> scored;
  for (const data::RetweetTuple& tuple : split.test) {
    eval::ScoredTuple st;
    auto words = dataset_->posts.words(tuple.post);
    for (text::UserId u : tuple.retweeters) {
      st.positive_scores.push_back(
          predictor.DiffusionProbability(tuple.author, u, words));
    }
    for (text::UserId u : tuple.ignorers) {
      st.negative_scores.push_back(
          predictor.DiffusionProbability(tuple.author, u, words));
    }
    scored.push_back(std::move(st));
  }
  EXPECT_GT(eval::AveragedTupleAuc(scored), 0.58);
}

TEST_F(EndToEnd, SerialAndParallelAgreeOnTopicQuality) {
  core::ColdConfig model;
  model.num_communities = 5;
  model.num_topics = 8;
  model.rho = 0.5;
  model.alpha = 0.5;
  model.iterations = 60;
  model.burn_in = 0;
  model.seed = 103;
  core::ParallelColdTrainer trainer(model, dataset_->posts,
                                    &dataset_->interactions);
  ASSERT_TRUE(trainer.Init().ok());
  ASSERT_TRUE(trainer.Train().ok());
  core::ColdEstimates parallel_est = trainer.Estimates();
  core::ColdPredictor serial(*estimates_);
  core::ColdPredictor parallel(parallel_est);

  data::PostSplit split = data::SplitPosts(dataset_->posts, 0.2, 113, 0);
  double serial_perp = serial.Perplexity(split.test);
  double parallel_perp = parallel.Perplexity(split.test);
  // Both far below a uniform model (V ~ 220) and within 20% of each other.
  EXPECT_LT(serial_perp, 120.0);
  EXPECT_LT(parallel_perp, 120.0);
  EXPECT_NEAR(parallel_perp, serial_perp, serial_perp * 0.2);
}

TEST_F(EndToEnd, ModelShipsThroughSerialization) {
  std::string path =
      (std::filesystem::temp_directory_path() / "cold_e2e_model.arena")
          .string();
  ASSERT_TRUE(core::SaveArenaSnapshot(*estimates_, 5, path).ok());
  auto mapped = serve::ArenaSnapshot::Map(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  std::shared_ptr<const core::ColdPredictor> shipped =
      serve::ViewPredictor(std::move(mapped).ValueOrDie());
  core::ColdPredictor in_memory(*estimates_, 5);
  std::vector<text::WordId> message = {0, 1, 2};
  EXPECT_GT(shipped->DiffusionProbability(0, 1, message), 0.0);
  EXPECT_EQ(shipped->DiffusionProbability(0, 1, message),
            in_memory.DiffusionProbability(0, 1, message));
  std::filesystem::remove(path);
}

TEST_F(EndToEnd, InfluenceApplicationRunsOnExtractedModel) {
  auto ranked = apps::RankCommunitiesByInfluence(*estimates_, /*topic=*/0,
                                                 /*trials=*/500, 127);
  ASSERT_EQ(ranked.size(), 5u);
  EXPECT_GE(ranked.front().influence_degree, ranked.back().influence_degree);
  // Every community's single-seed spread includes at least itself.
  for (const auto& ci : ranked) {
    EXPECT_GE(ci.influence_degree, 1.0);
    EXPECT_LE(ci.influence_degree, 5.0);
  }
  auto user_influence = apps::UserInfluenceDegrees(*estimates_, ranked);
  EXPECT_EQ(user_influence.size(), 300u);
}

TEST_F(EndToEnd, PatternAnalyticsProduceFiniteResults) {
  auto points = apps::FluctuationScatter(*estimates_);
  EXPECT_EQ(points.size(), 40u);  // K * C
  for (const auto& p : points) {
    EXPECT_TRUE(std::isfinite(p.fluctuation));
    EXPECT_TRUE(std::isfinite(p.interest));
  }
  auto lag = apps::MeasureTimeLag(*estimates_, 0, 2, 1e-3);
  EXPECT_EQ(lag.high_curve.size(), 16u);
  EXPECT_TRUE(std::isfinite(lag.mass_lag));
}

}  // namespace
}  // namespace cold
