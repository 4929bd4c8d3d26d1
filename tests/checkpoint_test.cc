// Checkpoint/resume tests: payload round-trips, rotation, deterministic
// resume for both trainers, fault-injector spec parsing, and the full
// crash-recovery integration test (fork + SIGKILL mid-training, resume,
// bit-identical final estimates).
#include <gtest/gtest.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstring>
#include <filesystem>
#include <string>

#include "core/checkpoint.h"
#include "core/cold.h"
#include "data/synthetic.h"
#include "util/fault_injector.h"
#include "util/fileio.h"

namespace cold {
namespace {

namespace fs = std::filesystem;
using core::CheckpointFlavor;
using core::CheckpointManager;
using core::CheckpointMeta;
using core::CheckpointOptions;

const data::SocialDataset& TestData() {
  static const data::SocialDataset* ds = [] {
    data::SyntheticConfig config;
    config.num_users = 40;
    config.num_communities = 3;
    config.num_topics = 4;
    config.num_time_slices = 6;
    config.core_words_per_topic = 5;
    config.background_words = 12;
    config.posts_per_user = 4.0;
    config.words_per_post = 5.0;
    config.follows_per_user = 4;
    auto generated = data::SyntheticSocialGenerator(config).Generate();
    return new data::SocialDataset(std::move(generated).ValueOrDie());
  }();
  return *ds;
}

core::ColdConfig TestConfig() {
  core::ColdConfig config;
  config.num_communities = 3;
  config.num_topics = 4;
  config.iterations = 20;
  config.burn_in = 10;
  config.sample_lag = 2;
  config.seed = 7;
  return config;
}

class CheckpointDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("cold_ckpt_test_" + std::to_string(::getpid())))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

// ------------------------------------------------------ manager basics --

TEST_F(CheckpointDirTest, WriteThenLoadLatestRoundTrips) {
  CheckpointManager mgr({dir_, /*every=*/1, /*keep_last=*/3});
  ASSERT_TRUE(mgr.Init().ok());
  CheckpointMeta meta;
  meta.flavor = CheckpointFlavor::kSerial;
  meta.sweep = 12;
  meta.data_fingerprint = 0xdeadbeefcafef00dULL;
  const std::string payload = "not a real payload, but faithfully stored";
  ASSERT_TRUE(mgr.Write(meta, payload).ok());

  auto loaded = mgr.LoadLatest();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->meta.sweep, 12);
  EXPECT_EQ(loaded->meta.flavor, CheckpointFlavor::kSerial);
  EXPECT_EQ(loaded->meta.data_fingerprint, 0xdeadbeefcafef00dULL);
  EXPECT_EQ(loaded->payload, payload);
  EXPECT_EQ(loaded->meta.format_version, core::kCheckpointFormatVersion);
}

TEST_F(CheckpointDirTest, RotationKeepsNewestN) {
  CheckpointManager mgr({dir_, 1, /*keep_last=*/3});
  ASSERT_TRUE(mgr.Init().ok());
  for (int sweep = 1; sweep <= 5; ++sweep) {
    CheckpointMeta meta;
    meta.sweep = sweep;
    ASSERT_TRUE(mgr.Write(meta, "payload").ok());
  }
  auto files = mgr.ListFiles();
  ASSERT_EQ(files.size(), 3u);
  EXPECT_EQ(files[0].first, 3);
  EXPECT_EQ(files[1].first, 4);
  EXPECT_EQ(files[2].first, 5);
}

TEST_F(CheckpointDirTest, LoadLatestOnEmptyDirIsNotFound) {
  CheckpointManager mgr({dir_, 1, 3});
  ASSERT_TRUE(mgr.Init().ok());
  auto loaded = mgr.LoadLatest();
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST_F(CheckpointDirTest, AtomicWriteLeavesNoTempFiles) {
  CheckpointManager mgr({dir_, 1, 3});
  ASSERT_TRUE(mgr.Init().ok());
  CheckpointMeta meta;
  meta.sweep = 1;
  ASSERT_TRUE(mgr.Write(meta, "payload").ok());
  for (const auto& entry : fs::directory_iterator(dir_)) {
    EXPECT_EQ(entry.path().extension(), ".cold") << entry.path();
  }
}

// ------------------------------------------------- serial bit-identity --

TEST_F(CheckpointDirTest, SerialResumeIsBitIdentical) {
  const auto& ds = TestData();
  const core::ColdConfig config = TestConfig();

  // Uninterrupted reference run.
  core::ColdGibbsSampler reference(config, ds.posts, &ds.interactions);
  ASSERT_TRUE(reference.Init().ok());
  ASSERT_TRUE(reference.Train().ok());
  const core::ColdEstimates expected = reference.AveragedEstimates();

  // Same run, but snapshot the complete state mid-schedule (after the
  // burn-in boundary so the sample accumulator is non-trivial).
  core::ColdGibbsSampler first(config, ds.posts, &ds.interactions);
  ASSERT_TRUE(first.Init().ok());
  std::string snapshot;
  first.SetSweepCallback([&](int sweep) {
    if (sweep == 13) {
      ASSERT_TRUE(first.SerializeState(&snapshot).ok());
    }
  });
  ASSERT_TRUE(first.Train().ok());
  ASSERT_FALSE(snapshot.empty());

  // Fresh sampler restored from the snapshot finishes the schedule and
  // reproduces the reference estimates exactly.
  core::ColdGibbsSampler resumed(config, ds.posts, &ds.interactions);
  ASSERT_TRUE(resumed.Init().ok());
  ASSERT_TRUE(resumed.RestoreState(snapshot).ok());
  EXPECT_EQ(resumed.iterations_run(), 13);
  ASSERT_TRUE(resumed.Train().ok());
  const core::ColdEstimates actual = resumed.AveragedEstimates();

  EXPECT_EQ(actual.pi, expected.pi);
  EXPECT_EQ(actual.theta, expected.theta);
  EXPECT_EQ(actual.eta, expected.eta);
  EXPECT_EQ(actual.phi, expected.phi);
  EXPECT_EQ(actual.psi, expected.psi);
}

TEST_F(CheckpointDirTest, SerialSerializeRestoreSerializeIsStable) {
  const auto& ds = TestData();
  core::ColdGibbsSampler sampler(TestConfig(), ds.posts, &ds.interactions);
  ASSERT_TRUE(sampler.Init().ok());
  for (int i = 0; i < 5; ++i) sampler.RunIteration();
  std::string snapshot;
  ASSERT_TRUE(sampler.SerializeState(&snapshot).ok());

  core::ColdGibbsSampler restored(TestConfig(), ds.posts, &ds.interactions);
  ASSERT_TRUE(restored.Init().ok());
  ASSERT_TRUE(restored.RestoreState(snapshot).ok());
  std::string again;
  ASSERT_TRUE(restored.SerializeState(&again).ok());
  EXPECT_EQ(snapshot, again);
}

TEST_F(CheckpointDirTest, SerialRestoreRejectsDifferentSchedule) {
  const auto& ds = TestData();
  core::ColdGibbsSampler sampler(TestConfig(), ds.posts, &ds.interactions);
  ASSERT_TRUE(sampler.Init().ok());
  std::string snapshot;
  ASSERT_TRUE(sampler.SerializeState(&snapshot).ok());

  core::ColdConfig other = TestConfig();
  other.seed = 8;
  core::ColdGibbsSampler mismatched(other, ds.posts, &ds.interactions);
  ASSERT_TRUE(mismatched.Init().ok());
  auto st = mismatched.RestoreState(snapshot);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST_F(CheckpointDirTest, SerialRestoreRejectsDifferentShape) {
  const auto& ds = TestData();
  core::ColdGibbsSampler sampler(TestConfig(), ds.posts, &ds.interactions);
  ASSERT_TRUE(sampler.Init().ok());
  std::string snapshot;
  ASSERT_TRUE(sampler.SerializeState(&snapshot).ok());

  core::ColdConfig other = TestConfig();
  other.num_communities = 5;
  core::ColdGibbsSampler mismatched(other, ds.posts, &ds.interactions);
  ASSERT_TRUE(mismatched.Init().ok());
  auto st = mismatched.RestoreState(snapshot);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

// ----------------------------------------------- parallel bit-identity --

TEST_F(CheckpointDirTest, ParallelSingleWorkerResumeIsBitIdentical) {
  // With one worker the GAS engine is fully deterministic, so resume must
  // be exact. (Multi-worker runs interleave relaxed-atomic counter updates
  // non-deterministically; see DESIGN.md.)
  const auto& ds = TestData();
  const core::ColdConfig config = TestConfig();
  engine::EngineOptions options;
  options.threads_per_node = 1;

  core::ParallelColdTrainer reference(config, ds.posts, &ds.interactions,
                                      options);
  ASSERT_TRUE(reference.Init().ok());
  ASSERT_TRUE(reference.Train().ok());
  const core::ColdEstimates expected = reference.Estimates();

  core::ParallelColdTrainer first(config, ds.posts, &ds.interactions,
                                  options);
  ASSERT_TRUE(first.Init().ok());
  std::string snapshot;
  first.SetSuperstepCallback([&](int sweep) {
    if (sweep == 11) {
      ASSERT_TRUE(first.SerializeState(&snapshot).ok());
    }
  });
  ASSERT_TRUE(first.Train().ok());
  ASSERT_FALSE(snapshot.empty());

  core::ParallelColdTrainer resumed(config, ds.posts, &ds.interactions,
                                    options);
  ASSERT_TRUE(resumed.Init().ok());
  ASSERT_TRUE(resumed.RestoreState(snapshot).ok());
  EXPECT_EQ(resumed.supersteps_run(), 11);
  ASSERT_TRUE(resumed.Train().ok());
  const core::ColdEstimates actual = resumed.Estimates();

  EXPECT_EQ(actual.pi, expected.pi);
  EXPECT_EQ(actual.theta, expected.theta);
  EXPECT_EQ(actual.eta, expected.eta);
  EXPECT_EQ(actual.phi, expected.phi);
  EXPECT_EQ(actual.psi, expected.psi);
}

TEST_F(CheckpointDirTest, ParallelMultiWorkerResumeIsBitIdentical) {
  // Delta-table scatter keys every draw by (superstep, chunk) and merges
  // counters in fixed per-cell order, so resume is exact even with several
  // workers (oversubscribed so the path is real on any host).
  const auto& ds = TestData();
  const core::ColdConfig config = TestConfig();
  engine::EngineOptions options;
  options.threads_per_node = 4;
  options.oversubscribe = true;

  core::ParallelColdTrainer reference(config, ds.posts, &ds.interactions,
                                      options);
  ASSERT_TRUE(reference.Init().ok());
  ASSERT_TRUE(reference.Train().ok());
  std::string expected;
  ASSERT_TRUE(reference.SerializeState(&expected).ok());

  core::ParallelColdTrainer first(config, ds.posts, &ds.interactions,
                                  options);
  ASSERT_TRUE(first.Init().ok());
  std::string snapshot;
  first.SetSuperstepCallback([&](int sweep) {
    if (sweep == 11) {
      ASSERT_TRUE(first.SerializeState(&snapshot).ok());
    }
  });
  ASSERT_TRUE(first.Train().ok());
  ASSERT_FALSE(snapshot.empty());

  core::ParallelColdTrainer resumed(config, ds.posts, &ds.interactions,
                                    options);
  ASSERT_TRUE(resumed.Init().ok());
  ASSERT_TRUE(resumed.RestoreState(snapshot).ok());
  EXPECT_EQ(resumed.supersteps_run(), 11);
  ASSERT_TRUE(resumed.Train().ok());
  std::string actual;
  ASSERT_TRUE(resumed.SerializeState(&actual).ok());
  EXPECT_EQ(actual, expected);
}

TEST_F(CheckpointDirTest, ParallelRestoreKeepsCountersConsistent) {
  // Multi-worker restore cannot promise bit-identity, but the restored
  // counters must still agree with a recount from the assignments.
  const auto& ds = TestData();
  engine::EngineOptions options;
  options.threads_per_node = 4;

  core::ParallelColdTrainer trainer(TestConfig(), ds.posts, &ds.interactions,
                                    options);
  ASSERT_TRUE(trainer.Init().ok());
  for (int s = 0; s < 4; ++s) trainer.RunSuperstep();
  std::string snapshot;
  ASSERT_TRUE(trainer.SerializeState(&snapshot).ok());

  core::ParallelColdTrainer restored(TestConfig(), ds.posts,
                                     &ds.interactions, options);
  ASSERT_TRUE(restored.Init().ok());
  ASSERT_TRUE(restored.RestoreState(snapshot).ok());
  EXPECT_EQ(restored.supersteps_run(), 4);
  auto st = restored.StateSnapshot().CheckInvariants(ds.posts,
                                                     &ds.interactions, true);
  EXPECT_TRUE(st.ok()) << st.ToString();
}

TEST_F(CheckpointDirTest, ParallelRestoreRejectsWorkerCountMismatch) {
  // The engine caps its pool at the host's core count, so a different
  // --threads setting cannot reliably produce a different worker count
  // here. Instead, forge a payload with one extra RNG stream: the
  // tail of a parallel payload is [worker count u32][count x 25-byte
  // RngState], so duplicating the last stream and bumping the count yields
  // a structurally valid checkpoint from a larger pool.
  const auto& ds = TestData();
  engine::EngineOptions options;
  options.threads_per_node = 1;
  core::ParallelColdTrainer trainer(TestConfig(), ds.posts, &ds.interactions,
                                    options);
  ASSERT_TRUE(trainer.Init().ok());
  std::string snapshot;
  ASSERT_TRUE(trainer.SerializeState(&snapshot).ok());

  constexpr size_t kRngStateBytes = 8 + 8 + 1 + 8;
  size_t count_offset = 0;
  uint32_t workers = 0;
  for (uint32_t n = 1; n <= 4096; ++n) {
    const size_t offset = snapshot.size() - 4 - kRngStateBytes * n;
    uint32_t stored = 0;
    std::memcpy(&stored, snapshot.data() + offset, sizeof stored);
    if (stored == n) {
      count_offset = offset;
      workers = n;
      break;
    }
  }
  ASSERT_GT(workers, 0u) << "could not locate the worker-count field";

  std::string forged = snapshot;
  const uint32_t bumped = workers + 1;
  std::memcpy(forged.data() + count_offset, &bumped, sizeof bumped);
  forged += snapshot.substr(snapshot.size() - kRngStateBytes);

  core::ParallelColdTrainer same(TestConfig(), ds.posts, &ds.interactions,
                                 options);
  ASSERT_TRUE(same.Init().ok());
  auto st = same.RestoreState(forged);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("worker"), std::string::npos) << st.ToString();
  // The unmodified payload still restores into the same layout.
  EXPECT_TRUE(same.RestoreState(snapshot).ok());
}

TEST_F(CheckpointDirTest, SerialAndParallelPayloadsAreNotInterchangeable) {
  const auto& ds = TestData();
  core::ColdGibbsSampler serial(TestConfig(), ds.posts, &ds.interactions);
  ASSERT_TRUE(serial.Init().ok());
  std::string snapshot;
  ASSERT_TRUE(serial.SerializeState(&snapshot).ok());

  engine::EngineOptions options;
  options.threads_per_node = 1;
  core::ParallelColdTrainer parallel(TestConfig(), ds.posts,
                                     &ds.interactions, options);
  ASSERT_TRUE(parallel.Init().ok());
  // The serial payload lacks the worker RNG section; the parallel reader
  // must fail cleanly rather than misinterpret bytes.
  EXPECT_FALSE(parallel.RestoreState(snapshot).ok());
}

// ------------------------------------------------------- fault injector --

TEST(FaultInjectorTest, ParsesWellFormedSpec) {
  FaultInjector injector;
  ASSERT_TRUE(injector.Configure("after_sweep:5").ok());
  EXPECT_TRUE(injector.armed());
  injector.Disarm();
  EXPECT_FALSE(injector.armed());
}

TEST(FaultInjectorTest, RejectsMalformedSpecs) {
  FaultInjector injector;
  EXPECT_FALSE(injector.Configure("after_sweep").ok());
  EXPECT_FALSE(injector.Configure("after_sweep:").ok());
  EXPECT_FALSE(injector.Configure("after_sweep:abc").ok());
  EXPECT_FALSE(injector.Configure("after_sweep:-3").ok());
  EXPECT_FALSE(injector.Configure(":5").ok());
  EXPECT_FALSE(injector.armed());
}

TEST(FaultInjectorTest, EmptySpecDisarms) {
  FaultInjector injector;
  ASSERT_TRUE(injector.Configure("after_sweep:5").ok());
  EXPECT_TRUE(injector.armed());
  EXPECT_TRUE(injector.Configure("").ok());
  EXPECT_FALSE(injector.armed());
}

TEST(FaultInjectorTest, DisarmedInjectorNeverFires) {
  FaultInjector injector;
  // Would SIGKILL the test binary if it fired.
  injector.MaybeCrash("after_sweep", 1);
  ASSERT_TRUE(injector.Configure("after_sweep:5").ok());
  injector.MaybeCrash("after_sweep", 4);
  injector.MaybeCrash("other_point", 5);
  injector.Disarm();
  injector.MaybeCrash("after_sweep", 5);
}

// ------------------------------------------- crash/recovery integration --

/// The acceptance test of the fault-tolerance design: a child process
/// trains with periodic checkpoints and is SIGKILLed mid-run by the fault
/// injector (no destructors, no flushes — exactly like kill -9). The
/// parent then resumes from the surviving checkpoint directory and must
/// reproduce the uninterrupted run's estimates bit-for-bit.
TEST_F(CheckpointDirTest, KilledTrainingResumesBitIdentical) {
  const auto& ds = TestData();
  const core::ColdConfig config = TestConfig();

  core::ColdGibbsSampler reference(config, ds.posts, &ds.interactions);
  ASSERT_TRUE(reference.Init().ok());
  ASSERT_TRUE(reference.Train().ok());
  const core::ColdEstimates expected = reference.AveragedEstimates();

  const uint64_t fingerprint =
      core::DataFingerprint(ds.posts, &ds.interactions);
  const CheckpointOptions ckpt_options{dir_, /*every=*/2, /*keep_last=*/3};

  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: checkpoint every 2 sweeps, die at sweep 13.
    CheckpointManager mgr(ckpt_options);
    if (!mgr.Init().ok()) ::_exit(3);
    core::ColdGibbsSampler sampler(config, ds.posts, &ds.interactions);
    if (!sampler.Init().ok()) ::_exit(4);
    sampler.SetSweepCallback([&](int sweep) {
      if (!mgr.ShouldCheckpoint(sweep)) return;
      std::string payload;
      if (!sampler.SerializeState(&payload).ok()) ::_exit(5);
      CheckpointMeta meta;
      meta.sweep = sweep;
      meta.data_fingerprint = fingerprint;
      if (!mgr.Write(meta, payload).ok()) ::_exit(6);
    });
    if (!FaultInjector::Global().Configure("after_sweep:13").ok()) ::_exit(7);
    (void)sampler.Train();
    ::_exit(8);  // unreachable: the injector must have killed us
  }

  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(wstatus))
      << "child exited with " << WEXITSTATUS(wstatus)
      << " instead of being killed";
  ASSERT_EQ(WTERMSIG(wstatus), SIGKILL);

  // Recover exactly as cold_train --resume does.
  CheckpointManager mgr(ckpt_options);
  auto loaded = mgr.LoadLatest();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->meta.sweep, 12);
  ASSERT_EQ(loaded->meta.data_fingerprint, fingerprint);

  core::ColdGibbsSampler resumed(config, ds.posts, &ds.interactions);
  ASSERT_TRUE(resumed.Init().ok());
  ASSERT_TRUE(resumed.RestoreState(loaded->payload).ok());
  ASSERT_TRUE(resumed.Train().ok());
  const core::ColdEstimates actual = resumed.AveragedEstimates();

  EXPECT_EQ(actual.pi, expected.pi);
  EXPECT_EQ(actual.theta, expected.theta);
  EXPECT_EQ(actual.eta, expected.eta);
  EXPECT_EQ(actual.phi, expected.phi);
  EXPECT_EQ(actual.psi, expected.psi);
}

}  // namespace
}  // namespace cold
