// Parameterized property tests: invariants that must hold across whole
// configuration grids, not just single examples.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <ostream>

#include "core/cold.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
#include "util/math_util.h"
#include "util/rng.h"

namespace cold {
namespace {

data::SocialDataset MakeTinyDataset(uint64_t seed) {
  data::SyntheticConfig config;
  config.num_users = 60;
  config.num_communities = 3;
  config.num_topics = 4;
  config.num_time_slices = 8;
  config.core_words_per_topic = 8;
  config.background_words = 30;
  config.posts_per_user = 6.0;
  config.words_per_post = 6.0;
  config.follows_per_user = 5;
  config.seed = seed;
  return std::move(data::SyntheticSocialGenerator(config).Generate())
      .ValueOrDie();
}

const data::SocialDataset& TinyDataset() {
  static const data::SocialDataset* ds =
      new data::SocialDataset(MakeTinyDataset(5));
  return *ds;
}

// ------------------------------------------------- Gibbs invariant sweep --

struct GibbsCase {
  int C;
  int K;
  bool use_network;
  core::LinkSampling link_sampling;
};

// Prints a case as e.g. C3_K4_net_joint, which gtest_discover_tests puts
// in the ctest name. gtest would otherwise print the struct's bytes,
// padding included, so the names would change between builds. (A name
// generator alone would not do: gtest_discover_tests keeps a generated
// name and appends the printed bytes to it.)
void PrintTo(const GibbsCase& p, std::ostream* os) {
  const char* kLinks[] = {"auto", "joint", "alternating"};
  *os << 'C' << p.C << "_K" << p.K << (p.use_network ? "_net_" : "_nonet_")
      << kLinks[static_cast<int>(p.link_sampling)];
}

class GibbsSweep : public ::testing::TestWithParam<GibbsCase> {};

TEST_P(GibbsSweep, CountersStayConsistentAndEstimatesNormalize) {
  const GibbsCase& p = GetParam();
  const auto& ds = TinyDataset();
  core::ColdConfig config;
  config.num_communities = p.C;
  config.num_topics = p.K;
  config.use_network = p.use_network;
  config.link_sampling = p.link_sampling;
  config.rho = 0.5;
  config.alpha = 0.5;
  config.iterations = 4;
  config.burn_in = 2;
  config.sample_lag = 1;
  config.seed = 23;

  core::ColdGibbsSampler sampler(config, ds.posts, &ds.interactions);
  ASSERT_TRUE(sampler.Init().ok());
  ASSERT_TRUE(sampler.Train().ok());
  auto status = sampler.state().CheckInvariants(
      ds.posts, p.use_network ? &ds.interactions : nullptr, p.use_network);
  EXPECT_TRUE(status.ok()) << status.ToString();

  core::ColdEstimates est = sampler.AveragedEstimates();
  for (int i = 0; i < est.U; i += 7) {
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
}

INSTANTIATE_TEST_SUITE_P(
    Grid, GibbsSweep,
    ::testing::Values(
        GibbsCase{1, 1, true, core::LinkSampling::kAuto},
        GibbsCase{1, 4, true, core::LinkSampling::kJoint},
        GibbsCase{3, 1, true, core::LinkSampling::kAlternating},
        GibbsCase{3, 4, true, core::LinkSampling::kJoint},
        GibbsCase{3, 4, true, core::LinkSampling::kAlternating},
        GibbsCase{3, 4, false, core::LinkSampling::kAuto},
        GibbsCase{6, 8, true, core::LinkSampling::kAuto},
        GibbsCase{6, 8, false, core::LinkSampling::kAuto}));

// ---------------------------------------------- Parallel trainer sweep ----

class ParallelSweep : public ::testing::TestWithParam<int> {};

// Sweeps the engine's worker count (oversubscribed, so every count really
// runs that many threads).
TEST_P(ParallelSweep, InvariantsHoldForAnyNodeCount) {
  int workers = GetParam();
  const auto& ds = TinyDataset();
  core::ColdConfig config;
  config.num_communities = 3;
  config.num_topics = 4;
  config.rho = 0.5;
  config.alpha = 0.5;
  config.iterations = 3;
  config.burn_in = 0;
  engine::EngineOptions options;
  options.threads_per_node = workers;
  options.oversubscribe = true;
  core::ParallelColdTrainer trainer(config, ds.posts, &ds.interactions,
                                    options);
  ASSERT_TRUE(trainer.Init().ok());
  ASSERT_TRUE(trainer.Train().ok());
  core::ColdState snapshot = trainer.StateSnapshot();
  auto status = snapshot.CheckInvariants(ds.posts, &ds.interactions, true);
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(trainer.engine_stats().supersteps, config.iterations);
}

INSTANTIATE_TEST_SUITE_P(Nodes, ParallelSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 16));

// --------------------------------------------------------- Split sweeps ---

class SplitFractionSweep : public ::testing::TestWithParam<double> {};

TEST_P(SplitFractionSweep, PostSplitPartitionsExactly) {
  double fraction = GetParam();
  const auto& ds = TinyDataset();
  int folds = static_cast<int>(std::lround(1.0 / fraction));
  size_t total_test = 0;
  for (int fold = 0; fold < folds; ++fold) {
    data::PostSplit split = data::SplitPosts(ds.posts, fraction, 9, fold);
    EXPECT_EQ(split.train.num_posts() + split.test.num_posts(),
              ds.posts.num_posts());
    total_test += static_cast<size_t>(split.test.num_posts());
  }
  EXPECT_EQ(total_test, static_cast<size_t>(ds.posts.num_posts()));
}

TEST_P(SplitFractionSweep, LinkSplitNeverLeaksPositives) {
  double fraction = GetParam();
  const auto& ds = TinyDataset();
  data::LinkSplit split =
      data::SplitLinks(ds.interactions, fraction, 1.0, 11, 0);
  EXPECT_EQ(split.train.num_edges() +
                static_cast<int64_t>(split.test_positive.size()),
            ds.interactions.num_edges());
  for (const auto& [a, b] : split.test_positive) {
    EXPECT_FALSE(split.train.HasEdge(a, b));
  }
}

INSTANTIATE_TEST_SUITE_P(Fractions, SplitFractionSweep,
                         ::testing::Values(0.1, 0.2, 0.25, 0.5));

// ------------------------------------------------------------ RNG sweeps --

class GammaSweep : public ::testing::TestWithParam<double> {};

TEST_P(GammaSweep, MeanAndVarianceMatchTheory) {
  double shape = GetParam();
  RandomSampler sampler(77);
  const int n = 30000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    double x = sampler.Gamma(shape);
    EXPECT_GT(x, 0.0);
    sum += x;
    sum_sq += x * x;
  }
  double mean = sum / n;
  double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, shape, std::max(0.03, shape * 0.05));
  EXPECT_NEAR(var, shape, std::max(0.08, shape * 0.12));
}

INSTANTIATE_TEST_SUITE_P(Shapes, GammaSweep,
                         ::testing::Values(0.1, 0.3, 1.0, 2.5, 8.0, 30.0));

class DirichletSweep : public ::testing::TestWithParam<int> {};

TEST_P(DirichletSweep, ComponentMeansAreUniform) {
  int dim = GetParam();
  RandomSampler sampler(13);
  std::vector<double> mean(static_cast<size_t>(dim), 0.0);
  const int reps = 4000;
  for (int r = 0; r < reps; ++r) {
    auto x = sampler.SymmetricDirichlet(0.4, dim);
    for (int i = 0; i < dim; ++i) mean[static_cast<size_t>(i)] += x[static_cast<size_t>(i)];
  }
  for (double& m : mean) m /= reps;
  for (double m : mean) EXPECT_NEAR(m, 1.0 / dim, 0.35 / dim);
}

INSTANTIATE_TEST_SUITE_P(Dims, DirichletSweep, ::testing::Values(2, 3, 8, 20));

// ------------------------------------------------------------ AUC sweeps --

class AucSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AucSweep, ComplementAndMonotoneInvariance) {
  RandomSampler sampler(GetParam());
  std::vector<double> pos, neg;
  for (int i = 0; i < 200; ++i) {
    pos.push_back(sampler.Normal() + 0.4);
    neg.push_back(sampler.Normal());
  }
  double auc = eval::RocAuc(pos, neg);
  // Complement: swapping classes reflects around 1/2.
  EXPECT_NEAR(eval::RocAuc(neg, pos), 1.0 - auc, 1e-12);
  // Invariance under strictly monotone transforms.
  auto squash = [](std::vector<double> v) {
    for (double& x : v) x = std::tanh(0.3 * x) * 5.0 + 1e-3 * x;
    return v;
  };
  EXPECT_NEAR(eval::RocAuc(squash(pos), squash(neg)), auc, 1e-12);
  EXPECT_GE(auc, 0.0);
  EXPECT_LE(auc, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AucSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// ------------------------------------------ Categorical property sweeps ---

class CategoricalSweep : public ::testing::TestWithParam<int> {};

TEST_P(CategoricalSweep, NeverDrawsZeroWeightOption) {
  int dim = GetParam();
  RandomSampler sampler(static_cast<uint64_t>(dim) * 31);
  std::vector<double> weights(static_cast<size_t>(dim), 0.0);
  // Only odd indices get mass.
  for (int i = 1; i < dim; i += 2) weights[static_cast<size_t>(i)] = 1.0;
  if (dim == 1) weights[0] = 1.0;
  for (int r = 0; r < 2000; ++r) {
    int pick = sampler.Categorical(weights);
    EXPECT_GT(weights[static_cast<size_t>(pick)], 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, CategoricalSweep,
                         ::testing::Values(1, 2, 3, 7, 16, 64));

// ------------------------------------------------------- TopK vs sorting --

class TopKSweep : public ::testing::TestWithParam<int> {};

TEST_P(TopKSweep, MatchesFullSort) {
  int k = GetParam();
  RandomSampler sampler(static_cast<uint64_t>(k) + 100);
  std::vector<double> values(50);
  for (double& v : values) v = sampler.Uniform();
  auto top = TopKIndices(values, k);
  // Reference: stable sort by (value desc, index asc).
  std::vector<int> reference(values.size());
  std::iota(reference.begin(), reference.end(), 0);
  std::stable_sort(reference.begin(), reference.end(), [&](int a, int b) {
    return values[static_cast<size_t>(a)] > values[static_cast<size_t>(b)];
  });
  reference.resize(top.size());
  EXPECT_EQ(top, reference);
}

INSTANTIATE_TEST_SUITE_P(Ks, TopKSweep, ::testing::Values(1, 3, 10, 50, 80));

// ----------------------------------------- Zeta decomposition invariants --

TEST(ZetaProperty, SymmetryAndScaling) {
  // zeta's community symmetry comes only from eta: for fixed k, swapping
  // (c, c') multiplies by eta_c'c / eta_cc'.
  core::ColdEstimates est;
  est.U = 1;
  est.C = 3;
  est.K = 2;
  est.T = 2;
  est.V = 2;
  RandomSampler sampler(3);
  est.pi = sampler.SymmetricDirichlet(1.0, 3);
  est.theta.resize(6);
  for (double& v : est.theta) v = sampler.Uniform(0.05, 1.0);
  est.eta.resize(9);
  for (double& v : est.eta) v = sampler.Uniform(0.01, 0.9);
  est.phi.assign(4, 0.5);
  est.psi.assign(12, 0.5);
  for (int k = 0; k < 2; ++k) {
    for (int c = 0; c < 3; ++c) {
      for (int c2 = 0; c2 < 3; ++c2) {
        double forward = est.Zeta(k, c, c2);
        double backward = est.Zeta(k, c2, c);
        EXPECT_NEAR(forward * est.Eta(c2, c), backward * est.Eta(c, c2),
                    1e-12);
        EXPECT_GE(forward, 0.0);
      }
    }
  }
}

// ------------------------------------------------ Timestamp curve sweep ---

class ToleranceSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ToleranceSweep, CurvesAreMonotoneAndBounded) {
  RandomSampler sampler(GetParam());
  std::vector<int> predicted, actual;
  for (int i = 0; i < 300; ++i) {
    predicted.push_back(static_cast<int>(sampler.UniformInt(24)));
    actual.push_back(static_cast<int>(sampler.UniformInt(24)));
  }
  auto curve = eval::ToleranceCurve(predicted, actual, 23);
  for (size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i], curve[i - 1]);
    EXPECT_GE(curve[i], 0.0);
    EXPECT_LE(curve[i], 1.0);
  }
  EXPECT_DOUBLE_EQ(curve.back(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ToleranceSweep,
                         ::testing::Values(11u, 22u, 33u));

// --------------------------------------- Generator scaling property sweep --

class GeneratorSweep : public ::testing::TestWithParam<int> {};

TEST_P(GeneratorSweep, OutputsScaleWithUsers) {
  int users = GetParam();
  data::SyntheticConfig config;
  config.num_users = users;
  config.num_communities = 3;
  config.num_topics = 4;
  config.num_time_slices = 8;
  config.core_words_per_topic = 6;
  config.background_words = 20;
  config.posts_per_user = 5.0;
  config.words_per_post = 5.0;
  config.follows_per_user = 4;
  config.seed = 3;
  auto ds = std::move(data::SyntheticSocialGenerator(config).Generate())
                .ValueOrDie();
  EXPECT_EQ(ds.num_users(), users);
  EXPECT_GE(ds.posts.num_posts(), users);
  EXPECT_LE(ds.posts.num_posts(), users * 25);
  // Ground-truth assignments cover every post.
  EXPECT_EQ(ds.truth.post_topic.size(),
            static_cast<size_t>(ds.posts.num_posts()));
  for (int k : ds.truth.post_topic) {
    EXPECT_GE(k, 0);
    EXPECT_LT(k, 4);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, GeneratorSweep,
                         ::testing::Values(20, 60, 150, 400));

}  // namespace
}  // namespace cold
