#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string_view>

#include "core/cold.h"
#include "core/model_io.h"
#include "data/synthetic.h"
#include "serve/snapshot_arena.h"
#include "util/fileio.h"

namespace cold::core {
namespace {

namespace fs = std::filesystem;
using serve::ArenaSnapshot;

// COLDARN1 header fields the corruption cases rewrite (layout in
// core/model_io.cc): [8,12) version, [12,32) dims U C K T V, [36,40)
// payload CRC-32, [48,52) header CRC-32 over [0,48).
constexpr size_t kOffVersion = 8;
constexpr size_t kOffDims = 12;
constexpr size_t kOffPayloadCrc = 36;
constexpr size_t kOffHeaderCrc = 48;
constexpr int kTopM = 3;

std::string TempPath(const char* name) {
  return (fs::temp_directory_path() / name).string();
}

ColdEstimates SmallEstimates() {
  data::SyntheticConfig config;
  config.num_users = 50;
  config.num_communities = 3;
  config.num_topics = 4;
  config.num_time_slices = 6;
  config.core_words_per_topic = 5;
  config.background_words = 15;
  config.posts_per_user = 4.0;
  config.words_per_post = 5.0;
  config.follows_per_user = 3;
  auto ds = std::move(data::SyntheticSocialGenerator(config).Generate())
                .ValueOrDie();
  ColdConfig model;
  model.num_communities = 3;
  model.num_topics = 4;
  model.iterations = 10;
  model.burn_in = 5;
  ColdGibbsSampler sampler(model, ds.posts, &ds.interactions);
  EXPECT_TRUE(sampler.Init().ok());
  EXPECT_TRUE(sampler.Train().ok());
  return sampler.AveragedEstimates();
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Recomputes both CRCs after an edit, so validation gets past them to the
/// check the edit targets.
void Reseal(std::string* bytes) {
  uint32_t crc = Crc32(std::string_view(bytes->data() + kArenaHeaderBytes,
                                        bytes->size() - kArenaHeaderBytes));
  std::memcpy(bytes->data() + kOffPayloadCrc, &crc, sizeof(crc));
  crc = Crc32(std::string_view(bytes->data(), kOffHeaderCrc));
  std::memcpy(bytes->data() + kOffHeaderCrc, &crc, sizeof(crc));
}

/// Maps `path`, expecting failure with `needle` in the message.
void ExpectRejected(const std::string& path, const std::string& needle) {
  auto mapped = ArenaSnapshot::Map(path);
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kIOError);
  EXPECT_NE(mapped.status().message().find(needle), std::string::npos)
      << mapped.status().ToString();
}

bool SameDoubles(const double* mapped, const std::vector<double>& saved) {
  return saved.empty() ||
         std::memcmp(mapped, saved.data(), saved.size() * sizeof(double)) == 0;
}

TEST(ModelIoTest, RoundTripPreservesEverything) {
  ColdEstimates original = SmallEstimates();
  std::string path = TempPath("cold_model_io_roundtrip.arena");
  ASSERT_TRUE(SaveArenaSnapshot(original, kTopM, path).ok());
  auto mapped = ArenaSnapshot::Map(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  const EstimatesView& view = (*mapped)->view();

  EXPECT_EQ(view.U, original.U);
  EXPECT_EQ(view.C, original.C);
  EXPECT_EQ(view.K, original.K);
  EXPECT_EQ(view.T, original.T);
  EXPECT_EQ(view.V, original.V);
  EXPECT_TRUE(SameDoubles(view.pi, original.pi));
  EXPECT_TRUE(SameDoubles(view.theta, original.theta));
  EXPECT_TRUE(SameDoubles(view.eta, original.eta));
  EXPECT_TRUE(SameDoubles(view.phi, original.phi));
  EXPECT_TRUE(SameDoubles(view.psi, original.psi));
  // TopComm is baked at save time: each row is the top of the user's pi.
  ASSERT_EQ((*mapped)->top_m(), kTopM);
  for (int i = 0; i < original.U; ++i) {
    std::vector<int> top = original.TopCommunitiesForUser(i, kTopM);
    for (int j = 0; j < kTopM; ++j) {
      EXPECT_EQ((*mapped)->top_comm()[i * kTopM + j], top[j]);
    }
  }
  fs::remove(path);
}

TEST(ModelIoTest, LoadedModelPredictsIdentically) {
  ColdEstimates original = SmallEstimates();
  std::string path = TempPath("cold_model_io_predict.arena");
  ASSERT_TRUE(SaveArenaSnapshot(original, kTopM, path).ok());
  auto mapped = ArenaSnapshot::Map(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

  ColdPredictor owned(original, kTopM);
  std::shared_ptr<const ColdPredictor> view =
      serve::ViewPredictor(std::move(mapped).ValueOrDie());
  std::vector<text::WordId> message = {0, 1, 2};
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(owned.TopicPosterior(message, i),
              view->TopicPosterior(message, i));
    EXPECT_EQ(owned.TimestampScores(message, i),
              view->TimestampScores(message, i));
    for (int j = 5; j < 10; ++j) {
      EXPECT_EQ(owned.DiffusionProbability(i, j, message),
                view->DiffusionProbability(i, j, message));
      EXPECT_EQ(owned.LinkProbability(i, j), view->LinkProbability(i, j));
    }
  }
  fs::remove(path);
}

TEST(ModelIoTest, MissingFileFails) {
  ExpectRejected("/nonexistent/cold_model.arena", "open");
}

TEST(ModelIoTest, BadMagicFails) {
  std::string path = TempPath("cold_model_io_badmagic.arena");
  WriteBytes(path, std::string(2 * kArenaHeaderBytes, 'x'));
  ExpectRejected(path, "magic");

  // A model in the removed COLDEST1 format: its magic, five int32 dims and
  // the five arrays as raw doubles. It is rejected like any other file.
  ColdEstimates original = SmallEstimates();
  std::string legacy = "COLDEST1";
  const int32_t dims[5] = {original.U, original.C, original.K, original.T,
                           original.V};
  legacy.append(reinterpret_cast<const char*>(dims), sizeof(dims));
  for (const std::vector<double>* array :
       {&original.pi, &original.theta, &original.eta, &original.phi,
        &original.psi}) {
    legacy.append(reinterpret_cast<const char*>(array->data()),
                  array->size() * sizeof(double));
  }
  WriteBytes(path, legacy);
  ExpectRejected(path, "magic");
  fs::remove(path);
}

TEST(ModelIoTest, TruncatedFileFails) {
  ColdEstimates original = SmallEstimates();
  std::string path = TempPath("cold_model_io_trunc.arena");
  ASSERT_TRUE(SaveArenaSnapshot(original, kTopM, path).ok());
  // Chop the file in half; the header survives and promises more.
  fs::resize_file(path, fs::file_size(path) / 2);
  ExpectRejected(path, "size mismatch");
  fs::resize_file(path, kArenaHeaderBytes / 2);
  ExpectRejected(path, "shorter than its header");
  fs::remove(path);
}

TEST(ModelIoTest, TrailingGarbageFails) {
  ColdEstimates original = SmallEstimates();
  std::string path = TempPath("cold_model_io_trailing.arena");
  ASSERT_TRUE(SaveArenaSnapshot(original, kTopM, path).ok());
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "extra";
  }
  ExpectRejected(path, "size mismatch");
  fs::remove(path);
}

TEST(ModelIoTest, RejectsNonFinitePayload) {
  ColdEstimates original = SmallEstimates();
  std::string path = TempPath("cold_model_io_nonfinite.arena");
  ASSERT_TRUE(SaveArenaSnapshot(original, kTopM, path).ok());
  const std::string clean = ReadBytes(path);
  const ArenaLayout layout = ComputeArenaLayout(
      original.U, original.C, original.K, original.T, original.V, kTopM);

  // A NaN or infinity smuggled into theta, with both CRCs resealed, must
  // be caught by the finiteness check itself.
  for (double poison :
       {std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity()}) {
    std::string bytes = clean;
    std::memcpy(bytes.data() + kArenaHeaderBytes + layout.theta, &poison,
                sizeof(poison));
    Reseal(&bytes);
    WriteBytes(path, bytes);
    ExpectRejected(path, "non-finite");
    ExpectRejected(path, "theta");
  }

  // The clean file still maps (the check does not reject legitimate
  // payloads).
  WriteBytes(path, clean);
  auto mapped = ArenaSnapshot::Map(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_TRUE(SameDoubles((*mapped)->view().theta, original.theta));
  fs::remove(path);
}

TEST(ModelIoTest, RejectsOutOfRangeTopComm) {
  ColdEstimates original = SmallEstimates();
  std::string path = TempPath("cold_model_io_topcomm.arena");
  ASSERT_TRUE(SaveArenaSnapshot(original, kTopM, path).ok());
  std::string bytes = ReadBytes(path);
  const ArenaLayout layout = ComputeArenaLayout(
      original.U, original.C, original.K, original.T, original.V, kTopM);
  const int32_t past_end = original.C;
  std::memcpy(bytes.data() + kArenaHeaderBytes + layout.top_comm, &past_end,
              sizeof(past_end));
  Reseal(&bytes);
  WriteBytes(path, bytes);
  ExpectRejected(path, "TopComm entry out of range");
  fs::remove(path);
}

TEST(ModelIoTest, RejectsUnsupportedVersion) {
  ColdEstimates original = SmallEstimates();
  std::string path = TempPath("cold_model_io_version.arena");
  ASSERT_TRUE(SaveArenaSnapshot(original, kTopM, path).ok());
  std::string bytes = ReadBytes(path);
  const uint32_t version = 2;
  std::memcpy(bytes.data() + kOffVersion, &version, sizeof(version));
  Reseal(&bytes);
  WriteBytes(path, bytes);
  ExpectRejected(path, "unsupported arena version 2");
  fs::remove(path);
}

TEST(ModelIoTest, RejectsHeaderCrcMismatch) {
  ColdEstimates original = SmallEstimates();
  std::string path = TempPath("cold_model_io_headercrc.arena");
  ASSERT_TRUE(SaveArenaSnapshot(original, kTopM, path).ok());
  std::string bytes = ReadBytes(path);
  // One more user in the header, not resealed.
  const int32_t users = original.U + 1;
  std::memcpy(bytes.data() + kOffDims, &users, sizeof(users));
  WriteBytes(path, bytes);
  ExpectRejected(path, "header CRC mismatch");
  fs::remove(path);
}

TEST(ModelIoTest, RejectsInvalidDimensionsOnSave) {
  ColdEstimates bad;
  bad.U = 1;
  bad.C = 0;  // invalid
  bad.K = 1;
  bad.T = 1;
  bad.V = 1;
  const std::string path = TempPath("cold_model_io_invalid.arena");
  EXPECT_EQ(SaveArenaSnapshot(bad, kTopM, path).code(),
            StatusCode::kInvalidArgument);
  // Valid dimensions over arrays of other sizes would copy past the arena.
  bad.C = 1;
  bad.pi.assign(2, 0.5);
  EXPECT_EQ(SaveArenaSnapshot(bad, kTopM, path).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(fs::exists(path));
}

}  // namespace
}  // namespace cold::core
