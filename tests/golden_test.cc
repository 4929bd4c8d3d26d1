// Golden trajectories: small fixed-seed training runs pinned to hash
// constants recorded from an earlier build.
//
// The equivalence and bit-identity suites compare two runs of one build, or
// worker and node counts with each other, so a change that moves every chain
// the same way (a shifted RNG stream, a skipped chunk) passes them all.
// These constants do not move with the build.
//
// Each constant is a 64-bit FNV-1a hash of the integer state only: the four
// assignment arrays and the eight count tables. No double is hashed, so an
// ULP-level libm difference on another host almost never changes one. A
// constant may change only with a change that is meant to alter the chains;
// the failure message prints the new value.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/cold.h"
#include "data/synthetic.h"
#include "dist/dist_trainer.h"

namespace cold::core {
namespace {

// Dense topic kernel below 32 topics, alias+MH at 32 and above (`auto`).
constexpr int kDenseK = 8;
constexpr int kSparseK = 32;

constexpr uint64_t kSerialDense = 0x75ab5fdd376c5614;
constexpr uint64_t kSerialSparse = 0x5d1c832444827d81;
constexpr uint64_t kParallelDense = 0x6c50c5f82f0c95a4;
constexpr uint64_t kParallelSparse = 0x26140154d3b03139;
constexpr uint64_t kChunkOwners2 = 0x7b8f68f2e7855ef3;
constexpr uint64_t kChunkOwners4 = 0x286e24e46ce93822;

/// 64-bit FNV-1a over int32 values, each fed as 4 little-endian bytes, with
/// every array prefixed by its length.
class Fnv1a {
 public:
  void Add(const std::vector<int32_t>& values) {
    AddWord(static_cast<uint32_t>(values.size()));
    for (int32_t v : values) AddWord(static_cast<uint32_t>(v));
  }
  uint64_t value() const { return hash_; }

 private:
  void AddWord(uint32_t word) {
    for (int byte = 0; byte < 4; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xffu;
      hash_ *= 0x100000001b3ULL;
    }
  }
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

uint64_t HashState(const ColdState& s) {
  Fnv1a h;
  for (const std::vector<int32_t>* table :
       {&s.post_community, &s.post_topic, &s.link_src_community,
        &s.link_dst_community, &s.n_ic_flat(), &s.n_i_flat(), &s.n_ck_flat(),
        &s.n_c_flat(), &s.n_ckt_flat(), &s.n_kv_flat(), &s.n_k_flat(),
        &s.n_cc_flat()}) {
    h.Add(*table);
  }
  return h.value();
}

std::string Hex(uint64_t value) {
  std::ostringstream out;
  out << "0x" << std::hex << value;
  return out.str();
}

const data::SocialDataset& GoldenData() {
  static const data::SocialDataset* dataset = [] {
    data::SyntheticConfig config;
    config.num_users = 400;
    config.num_communities = 4;
    config.num_topics = 8;
    config.num_time_slices = 8;
    config.core_words_per_topic = 10;
    config.background_words = 60;
    config.posts_per_user = 6.0;
    config.words_per_post = 6.0;
    config.follows_per_user = 4;
    config.seed = 29;
    data::SyntheticSocialGenerator gen(config);
    return new data::SocialDataset(std::move(gen.Generate()).ValueOrDie());
  }();
  return *dataset;
}

ColdConfig GoldenConfig(int num_topics) {
  ColdConfig config;
  config.num_communities = 4;
  config.num_topics = num_topics;
  config.iterations = 6;
  config.burn_in = 4;
  config.seed = 23;
  config.rho = 0.5;
  return config;
}

uint64_t SerialHash(int num_topics) {
  const auto& ds = GoldenData();
  ColdGibbsSampler sampler(GoldenConfig(num_topics), ds.posts,
                           &ds.interactions);
  EXPECT_TRUE(sampler.Init().ok());
  EXPECT_TRUE(sampler.Train().ok());
  return HashState(sampler.state());
}

uint64_t ParallelHash(int num_topics, int threads) {
  const auto& ds = GoldenData();
  engine::EngineOptions options;
  options.threads_per_node = threads;
  options.oversubscribe = true;
  ParallelColdTrainer trainer(GoldenConfig(num_topics), ds.posts,
                              &ds.interactions, options);
  EXPECT_TRUE(trainer.Init().ok());
  EXPECT_TRUE(trainer.Train().ok());
  return HashState(trainer.StateSnapshot());
}

TEST(GoldenTrajectoryTest, SerialDense) {
  const uint64_t hash = SerialHash(kDenseK);
  EXPECT_EQ(hash, kSerialDense) << Hex(hash);
}

TEST(GoldenTrajectoryTest, SerialSparse) {
  const uint64_t hash = SerialHash(kSparseK);
  EXPECT_EQ(hash, kSerialSparse) << Hex(hash);
}

TEST(GoldenTrajectoryTest, ParallelDenseAtOneAndThreeWorkers) {
  for (int threads : {1, 3}) {
    const uint64_t hash = ParallelHash(kDenseK, threads);
    EXPECT_EQ(hash, kParallelDense) << threads << " workers: " << Hex(hash);
  }
}

TEST(GoldenTrajectoryTest, ParallelSparseAtOneAndThreeWorkers) {
  for (int threads : {1, 3}) {
    const uint64_t hash = ParallelHash(kSparseK, threads);
    EXPECT_EQ(hash, kParallelSparse) << threads << " workers: " << Hex(hash);
  }
}

TEST(GoldenTrajectoryTest, TwoNodeClusterGivesTheParallelConstant) {
  const auto& ds = GoldenData();
  std::vector<std::unique_ptr<dist::DistTrainer>> nodes;
  for (int rank = 0; rank < 2; ++rank) {
    dist::DistConfig config;
    config.num_nodes = 2;
    config.node_rank = rank;
    config.cold = GoldenConfig(kDenseK);
    nodes.push_back(std::make_unique<dist::DistTrainer>(config, ds.posts,
                                                        &ds.interactions));
  }
  cold::Status st =
      dist::DistTrainer::RunLocalCluster({nodes[0].get(), nodes[1].get()});
  ASSERT_TRUE(st.ok()) << st.ToString();
  for (int rank = 0; rank < 2; ++rank) {
    const uint64_t hash = HashState(nodes[rank]->StateSnapshot());
    EXPECT_EQ(hash, kParallelDense) << "rank " << rank << ": " << Hex(hash);
  }
}

TEST(GoldenTrajectoryTest, ChunkOwners) {
  const auto& ds = GoldenData();
  ParallelColdTrainer trainer(GoldenConfig(kDenseK), ds.posts,
                              &ds.interactions);
  ASSERT_TRUE(trainer.Init().ok());
  // Enough chunks for every node to own some.
  ASSERT_GT(trainer.NumScatterChunks(), 4);
  for (auto [nodes, expected] :
       {std::pair{2, kChunkOwners2}, std::pair{4, kChunkOwners4}}) {
    Fnv1a h;
    h.Add(trainer.ComputeChunkOwners(nodes));
    EXPECT_EQ(h.value(), expected) << nodes << " nodes: " << Hex(h.value());
  }
}

}  // namespace
}  // namespace cold::core
