// Failure-injection and edge-case tests: malformed inputs, degenerate
// datasets, and boundary configurations must produce clean Status errors or
// well-defined behaviour, never crashes or silent corruption.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/eutb.h"
#include "baselines/lda.h"
#include "baselines/pmtlm.h"
#include "baselines/tot.h"
#include "core/checkpoint.h"
#include "core/cold.h"
#include "data/serialize.h"
#include "data/synthetic.h"
#include "text/tokenizer.h"
#include "util/fileio.h"
#include "util/rng.h"

namespace cold {
namespace {

namespace fs = std::filesystem;

// ------------------------------------------------ serialization attacks --

class CorruptDatasetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Pid-suffixed so concurrent ctest processes cannot clobber each other.
    dir_ = (fs::temp_directory_path() /
            ("cold_corrupt_test." + std::to_string(::getpid())))
               .string();
    data::SyntheticConfig config;
    config.num_users = 30;
    config.num_communities = 2;
    config.num_topics = 2;
    config.num_time_slices = 4;
    config.core_words_per_topic = 4;
    config.background_words = 10;
    config.posts_per_user = 3.0;
    config.words_per_post = 4.0;
    config.follows_per_user = 3;
    auto ds = std::move(data::SyntheticSocialGenerator(config).Generate())
                  .ValueOrDie();
    ASSERT_TRUE(data::SaveDataset(ds, dir_).ok());
  }
  void TearDown() override { fs::remove_all(dir_); }

  void Overwrite(const std::string& file, const std::string& content) {
    std::ofstream out(dir_ + "/" + file);
    out << content;
  }

  std::string Read(const std::string& file) const {
    auto text = ReadFileToString(dir_ + "/" + file);
    EXPECT_TRUE(text.ok()) << text.status().ToString();
    return text.ok() ? *text : std::string();
  }

  std::string dir_;
};

/// `text` with tab-separated field `field` of line `line` (from 1) set to
/// `value`; a field one past the last is appended.
std::string ReplaceField(const std::string& text, int line, size_t field,
                         const std::string& value) {
  std::stringstream in(text);
  std::string out, row;
  for (int n = 1; std::getline(in, row); ++n) {
    if (n == line) {
      std::vector<std::string> fields;
      std::stringstream cells(row);
      for (std::string cell; std::getline(cells, cell, '\t');) {
        fields.push_back(cell);
      }
      fields.resize(std::max(fields.size(), field + 1));
      fields[field] = value;
      row.clear();
      for (size_t f = 0; f < fields.size(); ++f) {
        row += (f > 0 ? "\t" : "") + fields[f];
      }
    }
    out += row + "\n";
  }
  return out;
}

/// Every id a loaded dataset hands the trainers is in range.
void ExpectIdsInRange(const data::SocialDataset& ds) {
  const int U = ds.num_users(), D = ds.posts.num_posts();
  const int V = ds.vocabulary.size(), T = ds.num_time_slices();
  auto in = [](int id, int limit) { return id >= 0 && id < limit; };
  for (text::PostId d = 0; d < D; ++d) {
    EXPECT_TRUE(in(ds.posts.author(d), U)) << "post " << d;
    EXPECT_TRUE(in(ds.posts.time(d), T)) << "post " << d;
    for (text::WordId w : ds.posts.words(d)) {
      EXPECT_TRUE(in(w, V)) << "post " << d;
    }
  }
  for (const graph::Digraph* g : {&ds.followers, &ds.interactions}) {
    EXPECT_EQ(g->num_nodes(), U);
    for (graph::EdgeId e = 0; e < g->num_edges(); ++e) {
      EXPECT_TRUE(in(g->edge(e).src, U) && in(g->edge(e).dst, U));
    }
  }
  for (const data::RetweetTuple& t : ds.retweets) {
    EXPECT_TRUE(in(t.author, U) && in(t.post, D));
    for (text::UserId i : t.retweeters) EXPECT_TRUE(in(i, U));
    for (text::UserId i : t.ignorers) EXPECT_TRUE(in(i, U));
  }
}

/// Posts, both graphs and every retweet tuple of `a` and `b` agree.
void ExpectSameDataset(const data::SocialDataset& a,
                       const data::SocialDataset& b) {
  EXPECT_EQ(core::DataFingerprint(a.posts, &a.interactions),
            core::DataFingerprint(b.posts, &b.interactions));
  EXPECT_EQ(core::DataFingerprint(a.posts, &a.followers),
            core::DataFingerprint(b.posts, &b.followers));
  ASSERT_EQ(a.retweets.size(), b.retweets.size());
  for (size_t i = 0; i < a.retweets.size(); ++i) {
    EXPECT_EQ(a.retweets[i].author, b.retweets[i].author);
    EXPECT_EQ(a.retweets[i].post, b.retweets[i].post);
    EXPECT_EQ(a.retweets[i].retweeters, b.retweets[i].retweeters);
    EXPECT_EQ(a.retweets[i].ignorers, b.retweets[i].ignorers);
  }
}

TEST_F(CorruptDatasetTest, IntactRoundTripLoads) {
  EXPECT_TRUE(data::LoadDataset(dir_).ok());
}

TEST_F(CorruptDatasetTest, MissingFileFails) {
  fs::remove(dir_ + "/posts.tsv");
  auto result = data::LoadDataset(dir_);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
}

TEST_F(CorruptDatasetTest, MalformedRetweetLineFails) {
  Overwrite("retweets.tsv", "0\t1\tgarbage\tn:2\n");
  auto result = data::LoadDataset(dir_);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
}

TEST_F(CorruptDatasetTest, EmptyRetweetsFileIsValid) {
  Overwrite("retweets.tsv", "");
  auto result = data::LoadDataset(dir_);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->retweets.empty());
}

TEST_F(CorruptDatasetTest, SelfLoopLinkFails) {
  Overwrite("links.tsv", "3\t3\n");
  auto result = data::LoadDataset(dir_);
  EXPECT_FALSE(result.ok());
}

TEST_F(CorruptDatasetTest, EmptyLinesInPostsAreSkipped) {
  std::ifstream in(dir_ + "/posts.tsv");
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  Overwrite("posts.tsv", "\n" + content + "\n\n");
  EXPECT_TRUE(data::LoadDataset(dir_).ok());
}

// One field of line 2 of one file, replaced. Before the loader checked
// ranges, the first six crashed cold_train (SIGSEGV, or std::stol throwing)
// or trained on an uninitialized or out-of-range value.
TEST_F(CorruptDatasetTest, HostileFieldIsRejectedWithFileAndLine) {
  struct Edit {
    const char* file;
    size_t field;
    const char* value;
    const char* reason;
  };
  const Edit kEdits[] = {
      {"links.tsv", 1, "50000000", "dst 50000000 outside [0, 30)"},
      {"posts.tsv", 2, "-7000000", "word id -7000000 outside"},
      {"retweets.tsv", 2, "r:abc", "retweeter 'abc' is not a number"},
      {"retweets.tsv", 2, "r:99999999999999999999", "overflows int32"},
      {"posts.tsv", 0, "x", "author 'x' is not a number"},
      {"posts.tsv", 1, "-2", "time -2 outside"},
      {"posts.tsv", 2, "1000000", "word id 1000000 outside"},
      {"followers.tsv", 0, "30", "src 30 outside [0, 30)"},
      {"retweets.tsv", 0, "30", "author 30 outside [0, 30)"},
      {"retweets.tsv", 1, "100000", "post 100000 outside"},
      {"retweets.tsv", 3, "n:1,30", "ignorer 30 outside [0, 30)"},
      {"retweets.tsv", 2, "1,2", "'1,2' lacks the r: prefix"},
      {"retweets.tsv", 3, "2", "'2' lacks the n: prefix"},
      {"retweets.tsv", 4, "n:3", "extra field 'n:3'"},
      {"links.tsv", 2, "7", "extra field '7'"},
  };
  for (const Edit& edit : kEdits) {
    SCOPED_TRACE(std::string(edit.file) + " field " +
                 std::to_string(edit.field) + " = " + edit.value);
    const std::string original = Read(edit.file);
    Overwrite(edit.file, ReplaceField(original, 2, edit.field, edit.value));
    auto result = data::LoadDataset(dir_);
    Overwrite(edit.file, original);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kIOError);
    const std::string& message = result.status().message();
    EXPECT_EQ(message.rfind(dir_ + "/" + edit.file + ":2: ", 0), 0u)
        << message;
    EXPECT_NE(message.find(edit.reason), std::string::npos) << message;
  }
}

// Layouts the loader has always accepted: runs of spaces and tabs, CRLF
// line ends, blank and whitespace-only lines, empty id lists, and vocab
// lines kept verbatim.
TEST_F(CorruptDatasetTest, LenientLayoutsLoadTheSameDataset) {
  auto want = data::LoadDataset(dir_);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  for (const char* file :
       {"posts.tsv", "followers.tsv", "links.tsv", "retweets.tsv"}) {
    std::string loose = "\n \t\r\n";
    for (char c : Read(file)) {
      if (c == '\t') {
        loose += "  \t ";
      } else if (c == '\n') {
        loose += "\r\n";
      } else {
        loose += c;
      }
    }
    Overwrite(file, loose + "\n");
  }
  auto got = data::LoadDataset(dir_);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectSameDataset(*want, *got);

  Overwrite("retweets.tsv", "0\t1\tr:\tn:\n1\t2\tr:,\tn:3,,4,\n");
  Overwrite("vocab.tsv", Read("vocab.tsv") + "two words\r\n");
  got = data::LoadDataset(dir_);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got->retweets.size(), 2u);
  EXPECT_TRUE(got->retweets[0].retweeters.empty());
  EXPECT_TRUE(got->retweets[0].ignorers.empty());
  EXPECT_TRUE(got->retweets[1].retweeters.empty());
  EXPECT_EQ(got->retweets[1].ignorers, (std::vector<text::UserId>{3, 4}));
  EXPECT_EQ(got->vocabulary.size(), want->vocabulary.size() + 1);
  EXPECT_EQ(got->vocabulary.word(want->vocabulary.size()), "two words\r");
}

/// `text` with one random edit: a bit flip, a truncation, a digit turned
/// into a letter or '-', a number lengthened past INT32_MAX, or a line
/// duplicated or dropped. Returns the edit's name.
const char* Mutate(RandomSampler* rng, std::string* text) {
  if (text->empty()) return "none (empty file)";
  auto pick = [&](size_t n) {
    return static_cast<size_t>(rng->UniformInt(static_cast<uint32_t>(n)));
  };
  const size_t at = pick(text->size());
  const size_t digit = text->find_first_of("0123456789", at);
  // The line holding `at`, as [line, line_end], its '\n' included.
  const size_t before = at == 0 ? std::string::npos : text->rfind('\n', at - 1);
  const size_t line = before == std::string::npos ? 0 : before + 1;
  const size_t line_end = std::min(text->find('\n', at), text->size() - 1);
  switch (rng->UniformInt(6)) {
    case 0:
      (*text)[at] = static_cast<char>((*text)[at] ^ (1 << rng->UniformInt(8)));
      return "bit flip";
    case 1:
      text->resize(at);
      return "truncation";
    case 2:
      if (digit == std::string::npos) return "none (no digit)";
      (*text)[digit] = rng->Bernoulli(0.25)
                           ? '-'
                           : static_cast<char>('a' + rng->UniformInt(26));
      return "digit to letter or '-'";
    case 3:
      if (digit == std::string::npos) return "none (no digit)";
      text->insert(digit, "99999999999");
      return "number past INT32_MAX";
    case 4:
      text->insert(line, text->substr(line, line_end + 1 - line));
      return "line duplicated";
    default:
      text->erase(line, line_end + 1 - line);
      return "line dropped";
  }
}

// A fixed-seed mutation run over all five files: every load returns OK or
// kIOError, never throws or crashes (the asan preset checks the memory
// side), and an OK load only ever holds in-range ids.
TEST_F(CorruptDatasetTest, MutatedFilesLoadCleanlyOrFail) {
  const char* kFiles[] = {"vocab.tsv", "posts.tsv", "followers.tsv",
                          "links.tsv", "retweets.tsv"};
  std::vector<std::string> originals;
  for (const char* file : kFiles) originals.push_back(Read(file));
  RandomSampler rng(2024);
  int loaded = 0, rejected = 0;
  for (int i = 0; i < 3000 && !HasFailure(); ++i) {
    const size_t f = rng.UniformInt(5);
    std::string text = originals[f];
    const char* what = Mutate(&rng, &text);
    SCOPED_TRACE("mutation " + std::to_string(i) + ": " + what + " in " +
                 kFiles[f]);
    Overwrite(kFiles[f], text);
    try {
      auto result = data::LoadDataset(dir_);
      if (result.ok()) {
        ++loaded;
        ExpectIdsInRange(*result);
      } else {
        ++rejected;
        EXPECT_EQ(result.status().code(), StatusCode::kIOError)
            << result.status().ToString();
      }
    } catch (const std::exception& e) {
      ADD_FAILURE() << "LoadDataset threw " << e.what();
    }
    Overwrite(kFiles[f], originals[f]);
  }
  // Both outcomes are common (about 1.4k loads and 1.6k rejections), so a
  // loader that rejects too much fails here too, not only one that
  // accepts too much.
  EXPECT_GT(loaded, 500);
  EXPECT_GT(rejected, 500);
}

// ----------------------------------------------------- degenerate inputs --

text::PostStore SinglePostStore() {
  text::PostStore posts;
  posts.Add(0, 0, std::vector<text::WordId>{0, 1, 0});
  posts.Finalize(2, 2);
  return posts;
}

TEST(DegenerateDataTest, ColdTrainsOnSinglePost) {
  text::PostStore posts = SinglePostStore();
  core::ColdConfig config;
  config.num_communities = 2;
  config.num_topics = 2;
  config.iterations = 5;
  config.burn_in = 2;
  core::ColdGibbsSampler sampler(config, posts, nullptr);
  ASSERT_TRUE(sampler.Init().ok());
  EXPECT_TRUE(sampler.Train().ok());
  core::ColdEstimates est = sampler.AveragedEstimates();
  EXPECT_EQ(est.U, 2);
  EXPECT_EQ(est.V, 2);
}

TEST(DegenerateDataTest, ColdHandlesEmptyWordPosts) {
  text::PostStore posts;
  posts.Add(0, 0, std::vector<text::WordId>{});
  posts.Add(0, 1, std::vector<text::WordId>{0});
  posts.Finalize();
  core::ColdConfig config;
  config.num_communities = 2;
  config.num_topics = 2;
  config.iterations = 4;
  config.burn_in = 1;
  core::ColdGibbsSampler sampler(config, posts, nullptr);
  ASSERT_TRUE(sampler.Init().ok());
  EXPECT_TRUE(sampler.Train().ok());
  auto st = sampler.state().CheckInvariants(posts, nullptr, false);
  EXPECT_TRUE(st.ok()) << st.ToString();
}

TEST(DegenerateDataTest, ColdRejectsEmptyStore) {
  text::PostStore posts;
  posts.Finalize(1, 1);
  core::ColdConfig config;
  core::ColdGibbsSampler sampler(config, posts, nullptr);
  EXPECT_FALSE(sampler.Init().ok());
}

TEST(DegenerateDataTest, ParallelTrainerOnSingleUser) {
  text::PostStore posts;
  posts.Add(0, 0, std::vector<text::WordId>{0, 1});
  posts.Add(0, 1, std::vector<text::WordId>{1, 2});
  posts.Finalize(1, 2);
  core::ColdConfig config;
  config.num_communities = 2;
  config.num_topics = 2;
  config.iterations = 3;
  config.burn_in = 0;
  core::ParallelColdTrainer trainer(config, posts, nullptr);
  ASSERT_TRUE(trainer.Init().ok());
  EXPECT_TRUE(trainer.Train().ok());
  auto snapshot = trainer.StateSnapshot();
  EXPECT_TRUE(snapshot.CheckInvariants(posts, nullptr, false).ok());
}

TEST(DegenerateDataTest, BaselinesRejectEmptyCorpora) {
  text::PostStore empty;
  empty.Finalize(1, 1);
  baselines::LdaConfig lc;
  EXPECT_FALSE(baselines::LdaModel(lc, empty).Train().ok());
  baselines::EutbConfig ec;
  EXPECT_FALSE(baselines::EutbModel(ec, empty).Train().ok());
  baselines::TotConfig tc;
  EXPECT_FALSE(baselines::TotModel(tc, empty).Train().ok());
}

TEST(DegenerateDataTest, PredictorHandlesEmptyMessage) {
  text::PostStore posts = SinglePostStore();
  core::ColdConfig config;
  config.num_communities = 2;
  config.num_topics = 2;
  config.iterations = 4;
  config.burn_in = 1;
  core::ColdGibbsSampler sampler(config, posts, nullptr);
  ASSERT_TRUE(sampler.Init().ok());
  ASSERT_TRUE(sampler.Train().ok());
  core::ColdPredictor predictor(sampler.AveragedEstimates());

  std::vector<text::WordId> empty;
  auto posterior = predictor.TopicPosterior(empty, 0);
  double total = 0.0;
  for (double p : posterior) total += p;
  EXPECT_NEAR(total, 1.0, 1e-9);
  double prob = predictor.DiffusionProbability(0, 1, empty);
  EXPECT_GE(prob, 0.0);
  int t = predictor.PredictTimestamp(empty, 0);
  EXPECT_GE(t, 0);
  EXPECT_LT(t, 2);
}

TEST(DegenerateDataTest, PerplexityOfEmptyTestSetIsZero) {
  text::PostStore posts = SinglePostStore();
  core::ColdConfig config;
  config.num_communities = 2;
  config.num_topics = 2;
  config.iterations = 3;
  config.burn_in = 1;
  core::ColdGibbsSampler sampler(config, posts, nullptr);
  ASSERT_TRUE(sampler.Init().ok());
  ASSERT_TRUE(sampler.Train().ok());
  core::ColdPredictor predictor(sampler.AveragedEstimates());
  text::PostStore empty;
  empty.Finalize(2, 2);
  EXPECT_DOUBLE_EQ(predictor.Perplexity(empty), 0.0);
}

// ------------------------------------------------------ tokenizer abuse ---

TEST(TokenizerRobustnessTest, HandlesBinaryAndUnicodeBytes) {
  text::Tokenizer tokenizer;
  std::string nasty = "caf\xc3\xa9 \x01\x02 na\xc3\xafve \xff\xfe tail";
  auto tokens = tokenizer.Tokenize(nasty);
  // Multi-byte sequences are kept inside tokens; control bytes split.
  EXPECT_FALSE(tokens.empty());
  for (const std::string& t : tokens) EXPECT_FALSE(t.empty());
}

TEST(TokenizerRobustnessTest, VeryLongToken) {
  text::Tokenizer tokenizer;
  std::string long_word(10000, 'a');
  auto tokens = tokenizer.Tokenize(long_word);
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].size(), 10000u);
}

// ------------------------------------------------- config boundary grid ---

TEST(ConfigBoundaryTest, MinimalLegalColdConfig) {
  core::ColdConfig config;
  config.num_communities = 1;
  config.num_topics = 1;
  config.iterations = 1;
  config.burn_in = 0;
  config.sample_lag = 1;
  EXPECT_TRUE(config.Validate().ok());
}

TEST(ConfigBoundaryTest, PmtlmRejectsZeroFactors) {
  text::PostStore posts = SinglePostStore();
  graph::Digraph::Builder b;
  ASSERT_TRUE(b.AddEdge(0, 1).ok());
  graph::Digraph links = std::move(b).Build(2);
  baselines::PmtlmConfig config;
  config.num_factors = 0;
  EXPECT_FALSE(baselines::PmtlmModel(config, posts, links).Train().ok());
}

TEST(ConfigBoundaryTest, EutbLambdaStaysClamped) {
  // All posts from one user: the learned switch must stay inside (0, 1).
  text::PostStore posts;
  for (int j = 0; j < 30; ++j) {
    posts.Add(0, j % 3, std::vector<text::WordId>{0, 1});
  }
  posts.Finalize();
  baselines::EutbConfig config;
  config.num_topics = 2;
  config.iterations = 10;
  baselines::EutbModel model(config, posts);
  ASSERT_TRUE(model.Train().ok());
  EXPECT_GT(model.estimates().lambda_user, 0.0);
  EXPECT_LT(model.estimates().lambda_user, 1.0);
}

// ---------------------------------------------- checkpoint corruption ----
//
// Every corruption flavor must be *detected* (clear IOError, never a crash
// or silent misparse) and *survivable*: LoadLatest falls back to the next
// rotation entry when the newest file is damaged.

class CorruptCheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Pid-suffixed so concurrent ctest processes cannot clobber each other.
    dir_ = (fs::temp_directory_path() /
            ("cold_corrupt_ckpt_test." + std::to_string(::getpid())))
               .string();
    fs::remove_all(dir_);
    mgr_ = std::make_unique<core::CheckpointManager>(
        core::CheckpointOptions{dir_, /*every=*/1, /*keep_last=*/3});
    ASSERT_TRUE(mgr_->Init().ok());
    // Two healthy rotation entries: sweep 10 (fallback) and sweep 20
    // (newest, the one the tests damage).
    for (int sweep : {10, 20}) {
      core::CheckpointMeta meta;
      meta.sweep = sweep;
      meta.data_fingerprint = 42;
      ASSERT_TRUE(
          mgr_->Write(meta, "payload for sweep " + std::to_string(sweep))
              .ok());
    }
    newest_ = (fs::path(dir_) / core::CheckpointManager::FileName(20))
                  .string();
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string ReadNewest() {
    return std::move(ReadFileToString(newest_)).ValueOrDie();
  }
  void WriteNewest(const std::string& bytes) {
    std::ofstream out(newest_, std::ios::binary | std::ios::trunc);
    out << bytes;
  }

  /// The corrupted newest file must fail with kIOError on direct read,
  /// while LoadLatest still recovers the sweep-10 entry.
  void ExpectDetectedAndFellBack() {
    auto direct = core::CheckpointManager::ReadFile(newest_);
    ASSERT_FALSE(direct.ok());
    EXPECT_EQ(direct.status().code(), StatusCode::kIOError)
        << direct.status().ToString();
    EXPECT_FALSE(direct.status().message().empty());

    auto latest = mgr_->LoadLatest();
    ASSERT_TRUE(latest.ok()) << latest.status().ToString();
    EXPECT_EQ(latest->meta.sweep, 10);
    EXPECT_EQ(latest->payload, "payload for sweep 10");
  }

  std::string dir_;
  std::string newest_;
  std::unique_ptr<core::CheckpointManager> mgr_;
};

TEST_F(CorruptCheckpointTest, TruncatedFileDetectedAndSkipped) {
  std::string bytes = ReadNewest();
  WriteNewest(bytes.substr(0, bytes.size() - 7));
  ExpectDetectedAndFellBack();
}

TEST_F(CorruptCheckpointTest, TruncatedToPartialHeaderDetected) {
  WriteNewest(ReadNewest().substr(0, 20));
  ExpectDetectedAndFellBack();
}

TEST_F(CorruptCheckpointTest, BitFlippedPayloadDetectedAndSkipped) {
  std::string bytes = ReadNewest();
  bytes[bytes.size() - 3] ^= 0x10;  // inside the payload
  WriteNewest(bytes);
  ExpectDetectedAndFellBack();
}

TEST_F(CorruptCheckpointTest, BitFlippedHeaderDetectedAndSkipped) {
  std::string bytes = ReadNewest();
  bytes[16] ^= 0x01;  // sweep field, covered by the header CRC
  WriteNewest(bytes);
  ExpectDetectedAndFellBack();
}

TEST_F(CorruptCheckpointTest, WrongMagicDetectedAndSkipped) {
  std::string bytes = ReadNewest();
  bytes[0] = 'X';
  WriteNewest(bytes);
  ExpectDetectedAndFellBack();
}

TEST_F(CorruptCheckpointTest, WrongVersionDetectedAndSkipped) {
  // Flip the version field *and* refresh the header CRC, simulating a
  // well-formed file from a future format rather than random damage.
  std::string bytes = ReadNewest();
  const uint32_t version = 99;
  std::memcpy(bytes.data() + 8, &version, sizeof version);
  const uint32_t crc = Crc32(std::string_view(bytes.data(), 44));
  std::memcpy(bytes.data() + 44, &crc, sizeof crc);
  WriteNewest(bytes);

  auto direct = core::CheckpointManager::ReadFile(newest_);
  ASSERT_FALSE(direct.ok());
  EXPECT_NE(direct.status().message().find("version"), std::string::npos)
      << direct.status().ToString();
  ExpectDetectedAndFellBack();
}

TEST_F(CorruptCheckpointTest, AllEntriesCorruptIsNotFound) {
  for (const auto& [sweep, path] : mgr_->ListFiles()) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "garbage";
  }
  auto latest = mgr_->LoadLatest();
  ASSERT_FALSE(latest.ok());
  EXPECT_EQ(latest.status().code(), StatusCode::kNotFound);
}

TEST_F(CorruptCheckpointTest, CorruptPayloadRejectedBySamplerToo) {
  // Belt and braces: even if a damaged payload slipped past the file CRC,
  // RestoreState's structural validation must refuse it.
  data::SyntheticConfig config;
  config.num_users = 20;
  config.num_communities = 2;
  config.num_topics = 2;
  config.num_time_slices = 3;
  config.core_words_per_topic = 3;
  config.background_words = 8;
  config.posts_per_user = 3.0;
  config.words_per_post = 4.0;
  config.follows_per_user = 2;
  auto ds = std::move(data::SyntheticSocialGenerator(config).Generate())
                .ValueOrDie();
  core::ColdConfig model;
  model.num_communities = 2;
  model.num_topics = 2;
  model.iterations = 4;
  model.burn_in = 2;
  model.sample_lag = 1;
  core::ColdGibbsSampler sampler(model, ds.posts, &ds.interactions);
  ASSERT_TRUE(sampler.Init().ok());
  std::string payload;
  ASSERT_TRUE(sampler.SerializeState(&payload).ok());

  std::string truncated = payload.substr(0, payload.size() / 2);
  EXPECT_FALSE(sampler.RestoreState(truncated).ok());
  // The failed restore must not have clobbered the sampler.
  std::string after;
  ASSERT_TRUE(sampler.SerializeState(&after).ok());
  EXPECT_EQ(after, payload);
}

}  // namespace
}  // namespace cold
