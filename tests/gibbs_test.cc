#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "core/cold.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
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
  config.iterations = 60;
  config.burn_in = 40;
  config.sample_lag = 5;
  config.seed = 17;
  // The paper's rho = 50/C targets Weibo-scale user activity; at this test
  // scale (~10 posts/user) it would swamp the membership signal.
  config.rho = 0.5;
  return config;
}

// ------------------------------------------------------------ ColdConfig --

TEST(ColdConfigTest, DefaultsResolve) {
  ColdConfig config;
  config.num_communities = 25;
  config.num_topics = 50;
  EXPECT_DOUBLE_EQ(config.ResolvedRho(), 2.0);
  EXPECT_DOUBLE_EQ(config.ResolvedAlpha(), 1.0);
  config.rho = 0.3;
  EXPECT_DOUBLE_EQ(config.ResolvedRho(), 0.3);
  EXPECT_TRUE(config.Validate().ok());
}

TEST(ColdConfigTest, RejectsBadValues) {
  ColdConfig config;
  config.num_communities = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = ColdConfig();
  config.burn_in = config.iterations;
  EXPECT_FALSE(config.Validate().ok());
  config = ColdConfig();
  config.beta = 0.0;
  EXPECT_FALSE(config.Validate().ok());
  config = ColdConfig();
  config.top_communities = 0;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(ColdConfigTest, Lambda0FromNegativeLinks) {
  ColdConfig config;
  config.num_communities = 10;
  // 1000 users, 5000 links: n_neg ~ 1e6, ratio ~ 1e4, ln ~ 9.2.
  double lambda0 = ComputeLambda0(config, 1000, 5000);
  EXPECT_NEAR(lambda0, std::log((1000.0 * 999 - 5000) / 100.0), 1e-9);
  // Dense tiny graph: floored at lambda1.
  EXPECT_DOUBLE_EQ(ComputeLambda0(config, 3, 6), config.lambda1);
}

// ------------------------------------------------------------- ColdState --

TEST(ColdStateTest, StartsZeroed) {
  ColdState state(5, 3, 4, 6, 10, 7, 2);
  EXPECT_EQ(state.n_ic(4, 2), 0);
  EXPECT_EQ(state.n_ck(2, 3), 0);
  EXPECT_EQ(state.n_ckt(2, 3, 5), 0);
  EXPECT_EQ(state.n_kv(3, 9), 0);
  EXPECT_EQ(state.n_cc(2, 2), 0);
  EXPECT_EQ(state.post_community.size(), 7u);
  EXPECT_EQ(state.link_src_community.size(), 2u);
}

// ----------------------------------------------------------- Gibbs basics --

TEST(GibbsSamplerTest, InitValidates) {
  const auto& ds = TestData();
  ColdConfig bad = TestModelConfig();
  bad.num_topics = 0;
  ColdGibbsSampler sampler(bad, ds.posts, &ds.interactions);
  EXPECT_FALSE(sampler.Init().ok());

  text::PostStore unfinalized;
  ColdGibbsSampler sampler2(TestModelConfig(), unfinalized, nullptr);
  EXPECT_FALSE(sampler2.Init().ok());
}

TEST(GibbsSamplerTest, TrainRequiresInit) {
  const auto& ds = TestData();
  ColdGibbsSampler sampler(TestModelConfig(), ds.posts, &ds.interactions);
  EXPECT_EQ(sampler.Train().code(), cold::StatusCode::kFailedPrecondition);
}

TEST(GibbsSamplerTest, SweepRequiresInit) {
  const auto& ds = TestData();
  ColdGibbsSampler sampler(TestModelConfig(), ds.posts, &ds.interactions);
  EXPECT_EQ(sampler.RunIteration().code(),
            cold::StatusCode::kFailedPrecondition);
  EXPECT_EQ(sampler.iterations_run(), 0);
}

TEST(GibbsSamplerTest, CountersConsistentAfterInit) {
  const auto& ds = TestData();
  ColdGibbsSampler sampler(TestModelConfig(), ds.posts, &ds.interactions);
  ASSERT_TRUE(sampler.Init().ok());
  EXPECT_TRUE(sampler.state()
                  .CheckInvariants(ds.posts, &ds.interactions, true)
                  .ok());
}

TEST(GibbsSamplerTest, CountersConsistentAfterSweeps) {
  const auto& ds = TestData();
  ColdGibbsSampler sampler(TestModelConfig(), ds.posts, &ds.interactions);
  ASSERT_TRUE(sampler.Init().ok());
  for (int it = 0; it < 3; ++it) sampler.RunIteration();
  auto status =
      sampler.state().CheckInvariants(ds.posts, &ds.interactions, true);
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST(GibbsSamplerTest, CountersConsistentWithJointLinkSampling) {
  const auto& ds = TestData();
  ColdConfig config = TestModelConfig();
  config.link_sampling = LinkSampling::kJoint;
  ColdGibbsSampler sampler(config, ds.posts, &ds.interactions);
  ASSERT_TRUE(sampler.Init().ok());
  sampler.RunIteration();
  EXPECT_TRUE(sampler.state()
                  .CheckInvariants(ds.posts, &ds.interactions, true)
                  .ok());
}

TEST(GibbsSamplerTest, CountersConsistentWithAlternatingLinkSampling) {
  const auto& ds = TestData();
  ColdConfig config = TestModelConfig();
  config.link_sampling = LinkSampling::kAlternating;
  ColdGibbsSampler sampler(config, ds.posts, &ds.interactions);
  ASSERT_TRUE(sampler.Init().ok());
  sampler.RunIteration();
  EXPECT_TRUE(sampler.state()
                  .CheckInvariants(ds.posts, &ds.interactions, true)
                  .ok());
}

TEST(GibbsSamplerTest, NoLinkModeIgnoresNetwork) {
  const auto& ds = TestData();
  ColdConfig config = TestModelConfig();
  config.use_network = false;
  ColdGibbsSampler sampler(config, ds.posts, &ds.interactions);
  ASSERT_TRUE(sampler.Init().ok());
  sampler.RunIteration();
  auto status = sampler.state().CheckInvariants(ds.posts, nullptr, false);
  EXPECT_TRUE(status.ok()) << status.ToString();
  // No link assignments were made.
  EXPECT_TRUE(sampler.state().link_src_community.empty());
}

TEST(GibbsSamplerTest, LikelihoodImprovesOverTraining) {
  const auto& ds = TestData();
  ColdGibbsSampler sampler(TestModelConfig(), ds.posts, &ds.interactions);
  ASSERT_TRUE(sampler.Init().ok());
  double ll_initial = sampler.TrainingLogLikelihood();
  for (int it = 0; it < 25; ++it) sampler.RunIteration();
  double ll_trained = sampler.TrainingLogLikelihood();
  EXPECT_GT(ll_trained, ll_initial);
}

TEST(GibbsSamplerTest, DeterministicForFixedSeed) {
  const auto& ds = TestData();
  ColdGibbsSampler a(TestModelConfig(), ds.posts, &ds.interactions);
  ColdGibbsSampler b(TestModelConfig(), ds.posts, &ds.interactions);
  ASSERT_TRUE(a.Init().ok());
  ASSERT_TRUE(b.Init().ok());
  for (int it = 0; it < 5; ++it) {
    a.RunIteration();
    b.RunIteration();
  }
  EXPECT_EQ(a.state().post_topic, b.state().post_topic);
  EXPECT_EQ(a.state().post_community, b.state().post_community);
  EXPECT_EQ(a.state().link_src_community, b.state().link_src_community);
}

// --------------------------------------------------------------- Estimates --

class TrainedCold : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const auto& ds = TestData();
    sampler_ = new ColdGibbsSampler(TestModelConfig(), ds.posts,
                                    &ds.interactions);
    ASSERT_TRUE(sampler_->Init().ok());
    ASSERT_TRUE(sampler_->Train().ok());
    estimates_ = new ColdEstimates(sampler_->AveragedEstimates());
  }
  static void TearDownTestSuite() {
    delete estimates_;
    delete sampler_;
    estimates_ = nullptr;
    sampler_ = nullptr;
  }

  static ColdGibbsSampler* sampler_;
  static ColdEstimates* estimates_;
};

ColdGibbsSampler* TrainedCold::sampler_ = nullptr;
ColdEstimates* TrainedCold::estimates_ = nullptr;

TEST_F(TrainedCold, EstimatesAreNormalizedDistributions) {
  const ColdEstimates& est = *estimates_;
  for (int i = 0; i < est.U; i += 13) {
    double total = 0.0;
    for (int c = 0; c < est.C; ++c) total += est.Pi(i, c);
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
  for (int c = 0; c < est.C; ++c) {
    double total = 0.0;
    for (int k = 0; k < est.K; ++k) total += est.Theta(c, k);
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
  for (int k = 0; k < est.K; ++k) {
    double total = 0.0;
    for (int v = 0; v < est.V; ++v) total += est.Phi(k, v);
    EXPECT_NEAR(total, 1.0, 1e-9);
    for (int c = 0; c < est.C; ++c) {
      double pt = 0.0;
      for (int t = 0; t < est.T; ++t) pt += est.Psi(k, c, t);
      EXPECT_NEAR(pt, 1.0, 1e-9);
    }
  }
  // eta entries are probabilities.
  for (int c = 0; c < est.C; ++c) {
    for (int c2 = 0; c2 < est.C; ++c2) {
      EXPECT_GT(est.Eta(c, c2), 0.0);
      EXPECT_LT(est.Eta(c, c2), 1.0);
    }
  }
}

TEST_F(TrainedCold, ZetaMatchesDefinition) {
  const ColdEstimates& est = *estimates_;
  for (int k = 0; k < est.K; ++k) {
    for (int c = 0; c < est.C; ++c) {
      for (int c2 = 0; c2 < est.C; ++c2) {
        EXPECT_DOUBLE_EQ(est.Zeta(k, c, c2),
                         est.Theta(c, k) * est.Theta(c2, k) * est.Eta(c, c2));
      }
    }
  }
}

TEST_F(TrainedCold, RecoversPlantedTopics) {
  // Every planted topic should align with some learned topic: cosine
  // similarity of word distributions above 0.5 (random pairs score ~0.05).
  const auto& truth = TestData().truth;
  const ColdEstimates& est = *estimates_;
  int matched = 0;
  for (size_t kt = 0; kt < truth.phi.size(); ++kt) {
    double best = 0.0;
    for (int k = 0; k < est.K; ++k) {
      std::vector<double> learned(static_cast<size_t>(est.V));
      for (int v = 0; v < est.V; ++v) learned[static_cast<size_t>(v)] = est.Phi(k, v);
      best = std::max(best, cold::CosineSimilarity(truth.phi[kt], learned));
    }
    if (best > 0.5) ++matched;
  }
  EXPECT_GE(matched, static_cast<int>(truth.phi.size()) - 1)
      << "planted topics not recovered";
}

TEST_F(TrainedCold, RecoversCommunitiesBetterThanChance) {
  // Learned memberships should separate users grouped by their planted
  // dominant community: same-planted-community user pairs must look more
  // similar (cosine of pi rows) than different-community pairs.
  const auto& ds = TestData();
  const ColdEstimates& est = *estimates_;
  auto dominant = [&](int i) {
    const auto& row = ds.truth.pi[static_cast<size_t>(i)];
    return static_cast<int>(std::max_element(row.begin(), row.end()) -
                            row.begin());
  };
  auto pi_row = [&](int i) {
    std::vector<double> row(static_cast<size_t>(est.C));
    for (int c = 0; c < est.C; ++c) row[static_cast<size_t>(c)] = est.Pi(i, c);
    return row;
  };
  double same_total = 0.0, diff_total = 0.0;
  int same_n = 0, diff_n = 0;
  for (int i = 0; i < est.U; i += 3) {
    for (int j = i + 1; j < est.U; j += 7) {
      auto a = pi_row(i);
      auto b = pi_row(j);
      double sim = cold::CosineSimilarity(a, b);
      if (dominant(i) == dominant(j)) {
        same_total += sim;
        ++same_n;
      } else {
        diff_total += sim;
        ++diff_n;
      }
    }
  }
  ASSERT_GT(same_n, 0);
  ASSERT_GT(diff_n, 0);
  EXPECT_GT(same_total / same_n, diff_total / diff_n + 0.1);
}

TEST_F(TrainedCold, TopHelpersReturnOrderedResults) {
  const ColdEstimates& est = *estimates_;
  auto words = est.TopWords(0, 5);
  ASSERT_EQ(words.size(), 5u);
  for (size_t i = 1; i < words.size(); ++i) {
    EXPECT_GE(est.Phi(0, words[i - 1]), est.Phi(0, words[i]));
  }
  auto comms = est.TopCommunitiesForUser(0, est.C);
  ASSERT_EQ(comms.size(), static_cast<size_t>(est.C));
  for (size_t i = 1; i < comms.size(); ++i) {
    EXPECT_GE(est.Pi(0, comms[i - 1]), est.Pi(0, comms[i]));
  }
}

TEST(ColdEstimatesTest, AccumulateAndScale) {
  ColdEstimates a, b;
  a.U = b.U = 1;
  a.C = b.C = 2;
  a.K = b.K = 1;
  a.T = b.T = 1;
  a.V = b.V = 1;
  a.pi = {0.2, 0.8};
  b.pi = {0.4, 0.6};
  a.theta = {1.0, 1.0};
  b.theta = {1.0, 1.0};
  a.eta = {0.1, 0.1, 0.1, 0.1};
  b.eta = a.eta;
  a.phi = {1.0};
  b.phi = {1.0};
  a.psi = {1.0, 1.0};
  b.psi = {1.0, 1.0};
  ASSERT_TRUE(a.Accumulate(b).ok());
  a.Scale(0.5);
  EXPECT_NEAR(a.pi[0], 0.3, 1e-12);
  EXPECT_NEAR(a.pi[1], 0.7, 1e-12);

  ColdEstimates mismatched = b;
  mismatched.C = 3;
  EXPECT_FALSE(a.Accumulate(mismatched).ok());
}

}  // namespace
}  // namespace cold::core
