// Tests for the multi-process distributed trainer (src/dist): wire codec,
// deterministic chunk ownership, the bit-identity guarantee across node
// counts (DESIGN.md §12), checkpoint byte-identity, the node-death /
// resume drill (fork + SIGKILL, then a negotiated checkpoint resume that
// must byte-match the uninterrupted run), heartbeat liveness detection,
// and the network fault injector's spec grammar.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint.h"
#include "core/cold.h"
#include "data/synthetic.h"
#include "dist/delta_codec.h"
#include "dist/dist_trainer.h"
#include "dist/net_fault.h"
#include "dist/transport.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/fault_injector.h"
#include "util/fileio.h"

namespace cold::dist {
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

core::ColdConfig TestModelConfig(int iterations = 8) {
  core::ColdConfig config;
  config.num_communities = 4;
  config.num_topics = 6;
  config.iterations = iterations;
  config.burn_in = iterations * 3 / 4;
  config.seed = 17;
  config.rho = 0.5;
  return config;
}

DistConfig TestDistConfig(int num_nodes, int rank, int iterations = 8) {
  DistConfig config;
  config.num_nodes = num_nodes;
  config.node_rank = rank;
  config.cold = TestModelConfig(iterations);
  config.engine.threads_per_node = 1;
  return config;
}

/// Byte-level equality over the complete model state.
void ExpectStatesEqual(const core::ColdState& a, const core::ColdState& b) {
  EXPECT_EQ(a.post_community, b.post_community);
  EXPECT_EQ(a.post_topic, b.post_topic);
  EXPECT_EQ(a.link_src_community, b.link_src_community);
  EXPECT_EQ(a.link_dst_community, b.link_dst_community);
  EXPECT_EQ(a.n_ic_flat(), b.n_ic_flat());
  EXPECT_EQ(a.n_i_flat(), b.n_i_flat());
  EXPECT_EQ(a.n_ck_flat(), b.n_ck_flat());
  EXPECT_EQ(a.n_c_flat(), b.n_c_flat());
  EXPECT_EQ(a.n_ckt_flat(), b.n_ckt_flat());
  EXPECT_EQ(a.n_kv_flat(), b.n_kv_flat());
  EXPECT_EQ(a.n_k_flat(), b.n_k_flat());
  EXPECT_EQ(a.n_cc_flat(), b.n_cc_flat());
}

// ------------------------------------------------------------- codec ----

core::SuperstepUpdate SampleUpdate() {
  core::SuperstepUpdate update;
  update.count_deltas = {{0, 1}, {7, -2}, {1u << 20, 3}};
  update.post_updates = {{4, 1, 2}, {9, 0, 5}};
  update.link_updates = {{2, 3, 0}};
  return update;
}

TEST(DeltaCodecTest, UpdateRoundTrip) {
  const core::SuperstepUpdate update = SampleUpdate();
  core::SuperstepUpdate decoded;
  ASSERT_TRUE(DecodeUpdate(EncodeUpdate(update), &decoded).ok());
  EXPECT_EQ(decoded.count_deltas, update.count_deltas);
  EXPECT_EQ(decoded.post_updates, update.post_updates);
  EXPECT_EQ(decoded.link_updates, update.link_updates);
}

TEST(DeltaCodecTest, HelloRoundTrip) {
  HelloPayload hello;
  hello.rank = 3;
  hello.num_nodes = 4;
  hello.seed = 0xdeadbeefcafe;
  hello.iterations = 150;
  hello.num_communities = 8;
  hello.num_topics = 12;
  hello.data_fingerprint = 0x123456789abcdef0;
  hello.checkpoint_sweeps = {2, 4, 6};
  HelloPayload decoded;
  ASSERT_TRUE(DecodeHello(EncodeHello(hello), &decoded).ok());
  EXPECT_EQ(decoded.rank, hello.rank);
  EXPECT_EQ(decoded.num_nodes, hello.num_nodes);
  EXPECT_EQ(decoded.seed, hello.seed);
  EXPECT_EQ(decoded.iterations, hello.iterations);
  EXPECT_EQ(decoded.num_communities, hello.num_communities);
  EXPECT_EQ(decoded.num_topics, hello.num_topics);
  EXPECT_EQ(decoded.data_fingerprint, hello.data_fingerprint);
  EXPECT_EQ(decoded.checkpoint_sweeps, hello.checkpoint_sweeps);
}

TEST(DeltaCodecTest, TruncatedPayloadRejected) {
  std::string payload = EncodeUpdate(SampleUpdate());
  core::SuperstepUpdate decoded;
  for (size_t cut : {size_t{0}, size_t{4}, payload.size() - 1}) {
    EXPECT_FALSE(
        DecodeUpdate(std::string_view(payload).substr(0, cut), &decoded)
            .ok());
  }
  // Trailing garbage is rejected too (exhaustion check).
  EXPECT_FALSE(DecodeUpdate(payload + "x", &decoded).ok());
}

/// A count field claims far more entries than the payload holds. Each
/// decoder must call the payload truncated before it reserves anything: a
/// reserve sized straight from the wire throws std::length_error.
TEST(DeltaCodecTest, HostileCountsAreTruncatedNotReserved) {
  auto append_u64 = [](std::string* out, uint64_t v) {
    out->append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  // A hello whose trailing checkpoint-sweep count is 2^62.
  std::string hello = EncodeHello(HelloPayload{});
  hello.resize(hello.size() - sizeof(uint64_t));
  append_u64(&hello, uint64_t{1} << 62);
  HelloPayload decoded_hello;
  cold::Status st = DecodeHello(hello, &decoded_hello);
  EXPECT_EQ(st.code(), StatusCode::kIOError) << st.ToString();
  EXPECT_NE(st.message().find("truncated"), std::string::npos);

  // An update with 2^61 in each of its three counts in turn (the earlier
  // sections empty), and nothing after it.
  for (int hostile = 0; hostile < 3; ++hostile) {
    SCOPED_TRACE("hostile count " + std::to_string(hostile));
    std::string update;
    for (int section = 0; section <= hostile; ++section) {
      append_u64(&update, section == hostile ? uint64_t{1} << 61 : 0);
    }
    core::SuperstepUpdate decoded;
    st = DecodeUpdate(update, &decoded);
    EXPECT_EQ(st.code(), StatusCode::kIOError) << st.ToString();
    EXPECT_NE(st.message().find("truncated"), std::string::npos);
  }
}

TEST(DeltaCodecTest, FrameRoundTripOverLoopback) {
  std::unique_ptr<Transport> a, b;
  ASSERT_TRUE(LoopbackPair(&a, &b).ok());
  const std::string payload = EncodeUpdate(SampleUpdate());
  ASSERT_TRUE(WriteFrame(a.get(), FrameType::kDelta, 2, 41, payload).ok());
  auto frame = ReadFrame(b.get());
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->type, FrameType::kDelta);
  EXPECT_EQ(frame->sender_rank, 2);
  EXPECT_EQ(frame->superstep, 41u);
  EXPECT_EQ(frame->payload, payload);
  EXPECT_GT(a->bytes_sent(), 0);
  EXPECT_EQ(a->bytes_sent(), b->bytes_received());
}

TEST(DeltaCodecTest, CorruptedPayloadFailsCrc) {
  std::unique_ptr<Transport> a, b;
  ASSERT_TRUE(LoopbackPair(&a, &b).ok());
  // Hand-build a frame whose CRC field does not match the payload.
  const std::string payload = "not the bytes the crc covers";
  auto append32 = [](std::string* out, uint32_t v) {
    out->append(reinterpret_cast<const char*>(&v), 4);
  };
  auto append64 = [](std::string* out, uint64_t v) {
    out->append(reinterpret_cast<const char*>(&v), 8);
  };
  std::string raw;
  append32(&raw, kWireMagic);
  append32(&raw, kWireVersion);
  append32(&raw, static_cast<uint32_t>(FrameType::kDelta));
  append32(&raw, 1);
  append64(&raw, 0);
  append64(&raw, payload.size());
  append32(&raw, 0xbadc0de);
  raw += payload;
  ASSERT_TRUE(a->Send(raw.data(), raw.size()).ok());
  auto frame = ReadFrame(b.get());
  EXPECT_FALSE(frame.ok());
}

TEST(DeltaCodecTest, BadMagicRejected) {
  std::unique_ptr<Transport> a, b;
  ASSERT_TRUE(LoopbackPair(&a, &b).ok());
  std::string raw(36, '\0');
  ASSERT_TRUE(a->Send(raw.data(), raw.size()).ok());
  EXPECT_FALSE(ReadFrame(b.get()).ok());
}

/// A version-1 peer's hello (its payload still carries a thread count) is
/// refused at the frame header, before any payload is decoded.
TEST(DeltaCodecTest, VersionOneFrameRejected) {
  std::unique_ptr<Transport> a, b;
  ASSERT_TRUE(LoopbackPair(&a, &b).ok());
  auto append32 = [](std::string* out, uint32_t v) {
    out->append(reinterpret_cast<const char*>(&v), 4);
  };
  auto append64 = [](std::string* out, uint64_t v) {
    out->append(reinterpret_cast<const char*>(&v), 8);
  };
  std::string payload;
  append32(&payload, 1);   // rank
  append32(&payload, 2);   // num_nodes
  append64(&payload, 17);  // seed
  append32(&payload, 8);   // iterations
  append32(&payload, 4);   // num_communities
  append32(&payload, 6);   // num_topics
  append32(&payload, 2);   // threads (version 1 only)
  append64(&payload, 0);   // data_fingerprint
  append64(&payload, 0);   // no checkpoint sweeps
  std::string raw;
  append32(&raw, kWireMagic);
  append32(&raw, 1);
  append32(&raw, static_cast<uint32_t>(FrameType::kHello));
  append32(&raw, 1);
  append64(&raw, 0);
  append64(&raw, payload.size());
  append32(&raw, cold::Crc32(payload));
  raw += payload;
  ASSERT_TRUE(a->Send(raw.data(), raw.size()).ok());
  auto frame = ReadFrame(b.get());
  ASSERT_FALSE(frame.ok());
  EXPECT_NE(frame.status().message().find("unsupported wire version 1"),
            std::string::npos)
      << frame.status().ToString();
}

TEST(DeltaCodecTest, HeartbeatFrameRoundTrip) {
  std::unique_ptr<Transport> a, b;
  ASSERT_TRUE(LoopbackPair(&a, &b).ok());
  ASSERT_TRUE(WriteFrame(a.get(), FrameType::kHeartbeat, 3, 0, {}).ok());
  auto frame = ReadFrame(b.get());
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->type, FrameType::kHeartbeat);
  EXPECT_EQ(frame->sender_rank, 3);
  EXPECT_TRUE(frame->payload.empty());
}

TEST(TransportTest, RecvOnClosedPeerFails) {
  std::unique_ptr<Transport> a, b;
  ASSERT_TRUE(LoopbackPair(&a, &b).ok());
  a.reset();  // closes the peer
  char byte = 0;
  EXPECT_FALSE(b->Recv(&byte, 1).ok());
}

// -------------------------------------------------------- net faults ----

TEST(NetFaultInjectorTest, ParsesValidSpecsAndDisarmsOnEmpty) {
  NetFaultInjector injector;
  EXPECT_TRUE(injector.Configure("drop:1:5").ok());
  EXPECT_TRUE(injector.armed());
  EXPECT_TRUE(injector.Configure("corrupt:0:3:42").ok());
  EXPECT_TRUE(injector.armed());
  EXPECT_TRUE(injector.Configure("").ok());
  EXPECT_FALSE(injector.armed());
}

TEST(NetFaultInjectorTest, RejectsMalformedSpecs) {
  NetFaultInjector injector;
  for (const char* spec :
       {"bogus:1:2", "drop:1", "drop:x:2", "drop:1:y", "drop:1:2:z",
        "drop:1:2:3:4", "drop:-1:2"}) {
    SCOPED_TRACE(spec);
    EXPECT_FALSE(injector.Configure(spec).ok());
    EXPECT_FALSE(injector.armed());
  }
}

TEST(NetFaultInjectorTest, SetNodeRankScopesTheFault) {
  NetFaultInjector injector;
  ASSERT_TRUE(injector.Configure("delay:2:5").ok());
  injector.SetNodeRank(1);  // some other node's fault: disarm
  EXPECT_FALSE(injector.armed());
  ASSERT_TRUE(injector.Configure("delay:2:5").ok());
  injector.SetNodeRank(2);  // ours: stay armed
  EXPECT_TRUE(injector.armed());
}

TEST(NetFaultInjectorTest, DropFiresExactlyOnceAtItsSuperstep) {
  NetFaultInjector injector;
  ASSERT_TRUE(injector.Configure("drop:0:3").ok());
  std::string wire(64, 'w');
  EXPECT_EQ(injector.OnDataFrame(2, &wire, 36), NetFaultMode::kNone);
  EXPECT_EQ(injector.OnDataFrame(3, &wire, 36), NetFaultMode::kDrop);
  // One fault spec models ONE failure event; the retry after recovery
  // must sail through.
  EXPECT_EQ(injector.OnDataFrame(3, &wire, 36), NetFaultMode::kNone);
}

TEST(NetFaultInjectorTest, CorruptFlipsExactlyOnePayloadByte) {
  NetFaultInjector injector;
  ASSERT_TRUE(injector.Configure("corrupt:0:1:5").ok());
  const size_t header_bytes = 36;
  std::string wire(header_bytes, 'h');
  wire += "payload-bytes";
  const std::string original = wire;
  EXPECT_EQ(injector.OnDataFrame(1, &wire, header_bytes),
            NetFaultMode::kCorrupt);
  ASSERT_EQ(wire.size(), original.size());
  size_t diffs = 0;
  size_t diff_at = 0;
  for (size_t i = 0; i < wire.size(); ++i) {
    if (wire[i] != original[i]) {
      ++diffs;
      diff_at = i;
    }
  }
  EXPECT_EQ(diffs, 1u);
  // The flip must land in the payload, never the header: a header flip
  // would fail magic/length validation instead of exercising the CRC.
  EXPECT_GE(diff_at, header_bytes);
}

// -------------------------------------------------------- partitioning --

TEST(DistPartitionTest, ChunkOwnersTileTheChunkSpace) {
  const auto& ds = TestData();
  core::ParallelColdTrainer trainer(TestModelConfig(), ds.posts,
                                    &ds.interactions);
  ASSERT_TRUE(trainer.Init().ok());
  ASSERT_GT(trainer.NumScatterChunks(), 0);
  for (int nodes : {1, 2, 4}) {
    std::vector<int32_t> owners = trainer.ComputeChunkOwners(nodes);
    ASSERT_EQ(static_cast<int64_t>(owners.size()),
              trainer.NumScatterChunks());
    for (int32_t owner : owners) {
      EXPECT_GE(owner, 0);
      EXPECT_LT(owner, nodes);
    }
  }
  // Single node owns everything.
  for (int32_t owner : trainer.ComputeChunkOwners(1)) EXPECT_EQ(owner, 0);
}

TEST(DistPartitionTest, OwnerTableIsReproducible) {
  const auto& ds = TestData();
  core::ParallelColdTrainer a(TestModelConfig(), ds.posts, &ds.interactions);
  core::ParallelColdTrainer b(TestModelConfig(), ds.posts, &ds.interactions);
  ASSERT_TRUE(a.Init().ok());
  ASSERT_TRUE(b.Init().ok());
  EXPECT_EQ(a.ComputeChunkOwners(3), b.ComputeChunkOwners(3));
}

// -------------------------------------------------------- determinism ---

/// The tentpole guarantee: for a fixed seed, N distributed processes (here
/// in-process nodes over loopback) finish with byte-identical state to the
/// single-process parallel trainer, for every node count.
TEST(DistTrainerTest, BitIdenticalAcrossNodeCounts) {
  const auto& ds = TestData();
  core::ParallelColdTrainer reference(TestModelConfig(), ds.posts,
                                      &ds.interactions);
  ASSERT_TRUE(reference.Init().ok());
  ASSERT_TRUE(reference.Train().ok());
  const core::ColdState expected = reference.StateSnapshot();

  for (int num_nodes : {1, 2, 4}) {
    SCOPED_TRACE("num_nodes=" + std::to_string(num_nodes));
    std::vector<std::unique_ptr<DistTrainer>> owned;
    std::vector<DistTrainer*> nodes;
    for (int rank = 0; rank < num_nodes; ++rank) {
      owned.push_back(std::make_unique<DistTrainer>(
          TestDistConfig(num_nodes, rank), ds.posts, &ds.interactions));
      nodes.push_back(owned.back().get());
    }
    cold::Status st = DistTrainer::RunLocalCluster(nodes);
    ASSERT_TRUE(st.ok()) << st.ToString();
    // Every replica — not just rank 0 — must equal the reference.
    for (int rank = 0; rank < num_nodes; ++rank) {
      SCOPED_TRACE("rank=" + std::to_string(rank));
      ExpectStatesEqual(expected, nodes[rank]->StateSnapshot());
    }
    EXPECT_EQ(nodes[0]->stats().supersteps_run,
              TestModelConfig().iterations);
  }
}

/// Worker threads are a per-process choice: ranks running different
/// thread counts join one cluster and still match the reference.
TEST(DistTrainerTest, RanksWithDifferentThreadCountsMatchTheReference) {
  const auto& ds = TestData();
  core::ParallelColdTrainer reference(TestModelConfig(), ds.posts,
                                      &ds.interactions);
  ASSERT_TRUE(reference.Init().ok());
  ASSERT_TRUE(reference.Train().ok());
  const core::ColdState expected = reference.StateSnapshot();

  DistConfig config0 = TestDistConfig(2, 0);
  DistConfig config1 = TestDistConfig(2, 1);
  config1.engine.threads_per_node = 2;
  config1.engine.oversubscribe = true;  // Two real workers on any host.
  DistTrainer node0(config0, ds.posts, &ds.interactions);
  DistTrainer node1(config1, ds.posts, &ds.interactions);
  cold::Status st = DistTrainer::RunLocalCluster({&node0, &node1});
  ASSERT_TRUE(st.ok()) << st.ToString();
  ExpectStatesEqual(expected, node0.StateSnapshot());
  ExpectStatesEqual(expected, node1.StateSnapshot());
}

// ----------------------------------------------------------- liveness ---

/// Heartbeats interleave arbitrarily with data frames at a 10ms cadence;
/// the read path must skip every one of them without desyncing, and the
/// beacons themselves must never perturb the model (bit-identity vs the
/// single-process reference is the proof).
TEST(DistLivenessTest, HeartbeatsFlowWithoutPerturbingTheModel) {
  const auto& ds = TestData();
  core::ParallelColdTrainer reference(TestModelConfig(), ds.posts,
                                      &ds.interactions);
  ASSERT_TRUE(reference.Init().ok());
  ASSERT_TRUE(reference.Train().ok());

  obs::Counter* heartbeats =
      obs::Registry::Global().GetCounter("cold/dist/heartbeats_total");
  const int64_t beats_before = heartbeats->Value();

  std::vector<std::unique_ptr<DistTrainer>> owned;
  std::vector<DistTrainer*> nodes;
  for (int rank = 0; rank < 2; ++rank) {
    DistConfig config = TestDistConfig(2, rank);
    config.heartbeat_interval_ms = 10;
    config.heartbeat_timeout_ms = 30000;
    owned.push_back(std::make_unique<DistTrainer>(config, ds.posts,
                                                  &ds.interactions));
    nodes.push_back(owned.back().get());
  }
  cold::Status st = DistTrainer::RunLocalCluster(nodes);
  ASSERT_TRUE(st.ok()) << st.ToString();
  for (DistTrainer* node : nodes) {
    ExpectStatesEqual(reference.StateSnapshot(), node->StateSnapshot());
  }
  // Every node beats each peer once immediately at startup, so even an
  // instant run moves the counter.
  EXPECT_GT(heartbeats->Value(), beats_before);
}

/// A peer that connects and then never says anything must not wedge the
/// coordinator: the handshake read is bounded by the progress deadline.
TEST(DistLivenessTest, SilentPeerTripsTheHandshakeDeadline) {
  const auto& ds = TestData();
  std::unique_ptr<Transport> coord_end, silent_end;
  ASSERT_TRUE(LoopbackPair(&coord_end, &silent_end).ok());

  DistConfig config = TestDistConfig(2, 0);
  config.heartbeat_timeout_ms = 200;
  config.progress_timeout_ms = 500;
  DistTrainer coordinator(config, ds.posts, &ds.interactions);
  std::vector<std::unique_ptr<Transport>> peers;
  peers.push_back(std::move(coord_end));

  const auto start = std::chrono::steady_clock::now();
  cold::Status st = coordinator.Run(std::move(peers));
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded) << st.ToString();
  EXPECT_GE(elapsed_ms, 400);
  EXPECT_LT(elapsed_ms, 30000) << "read must not block indefinitely";
}

/// The acceptance drill's detection half, in-process-assertable form: a
/// forked worker completes the handshake, trains a couple of sweeps, then
/// a stall fault freezes every one of its sends — heartbeats included. A
/// TCP connection this quiet looks perfectly healthy to the kernel;
/// ONLY the coordinator's liveness deadline can call it dead, and it must
/// do so within heartbeat_timeout_ms (plus scheduling slack), bumping
/// cold/dist/frame_timeouts_total on the way out.
TEST(DistLivenessTest, HungPeerDetectedWithinTheLivenessDeadline) {
  const auto& ds = TestData();

  auto make_config = [&](int rank) {
    DistConfig config = TestDistConfig(2, rank);
    config.heartbeat_interval_ms = 50;
    config.heartbeat_timeout_ms = 500;
    config.progress_timeout_ms = 20000;
    return config;
  };

  std::unique_ptr<Transport> coord_end, worker_end;
  ASSERT_TRUE(LoopbackPair(&coord_end, &worker_end).ok());
  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    coord_end.reset();
    if (!NetFaultInjector::Global().Configure("stall:1:2").ok()) ::_exit(7);
    NetFaultInjector::Global().SetNodeRank(1);
    DistTrainer worker(make_config(1), ds.posts, &ds.interactions);
    std::vector<std::unique_ptr<Transport>> peers;
    peers.push_back(std::move(worker_end));
    // The stall fires at superstep 2 and never returns; reaching _exit
    // means the fault failed to arm.
    cold::Status ignored = worker.Run(std::move(peers));
    (void)ignored;
    ::_exit(8);
  }
  worker_end.reset();

  obs::Counter* frame_timeouts =
      obs::Registry::Global().GetCounter("cold/dist/frame_timeouts_total");
  const int64_t timeouts_before = frame_timeouts->Value();

  DistTrainer coordinator(make_config(0), ds.posts, &ds.interactions);
  std::vector<std::unique_ptr<Transport>> peers;
  peers.push_back(std::move(coord_end));
  const auto start = std::chrono::steady_clock::now();
  cold::Status st = coordinator.Run(std::move(peers));
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count();

  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded) << st.ToString();
  EXPECT_NE(st.ToString().find("liveness deadline"), std::string::npos)
      << st.ToString();
  EXPECT_GT(frame_timeouts->Value(), timeouts_before);
  EXPECT_LT(elapsed_ms, 15000) << "hung peer took too long to detect";

  // The stalled child sleeps forever by design; it is the supervisor's
  // (here: the test's) job to put it down.
  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(wstatus));
}

/// A fake rank 1 completes a valid handshake, then sends a CRC-valid delta
/// frame whose count index lies far outside the delta table. The
/// coordinator must refuse it with an error naming the rank instead of
/// folding the index into its accumulator.
TEST(DistTrainerTest, CoordinatorRejectsOutOfRangeDeltaIndex) {
  const auto& ds = TestData();
  const DistConfig config = TestDistConfig(2, 0);
  std::unique_ptr<Transport> coord_end, fake_end;
  ASSERT_TRUE(LoopbackPair(&coord_end, &fake_end).ok());

  cold::Status hello_sent, welcome_read, delta_sent;
  std::thread fake_worker([&] {
    HelloPayload hello;
    hello.rank = 1;
    hello.num_nodes = 2;
    hello.seed = config.cold.seed;
    hello.iterations = config.cold.iterations;
    hello.num_communities = config.cold.num_communities;
    hello.num_topics = config.cold.num_topics;
    hello.data_fingerprint = core::DataFingerprint(ds.posts, &ds.interactions);
    hello_sent = WriteFrame(fake_end.get(), FrameType::kHello, 1, 0,
                            EncodeHello(hello), 10000);
    welcome_read = ReadFrame(fake_end.get(), 1 << 20, 10000).status();
    core::SuperstepUpdate hostile;
    hostile.count_deltas = {{0xFFFFFF00u, 1}};
    delta_sent = WriteFrame(fake_end.get(), FrameType::kDelta, 1, 0,
                            EncodeUpdate(hostile), 10000);
  });

  DistTrainer coordinator(config, ds.posts, &ds.interactions);
  std::vector<std::unique_ptr<Transport>> peers;
  peers.push_back(std::move(coord_end));
  const cold::Status st = coordinator.Run(std::move(peers));
  fake_worker.join();

  ASSERT_TRUE(hello_sent.ok()) << hello_sent.ToString();
  ASSERT_TRUE(welcome_read.ok()) << welcome_read.ToString();
  ASSERT_TRUE(delta_sent.ok()) << delta_sent.ToString();
  EXPECT_EQ(st.code(), StatusCode::kIOError) << st.ToString();
  EXPECT_NE(st.message().find("rank 1"), std::string::npos) << st.ToString();
  EXPECT_NE(st.message().find("delta index"), std::string::npos)
      << st.ToString();
}

TEST(DistTrainerTest, RejectsBadPeerCount) {
  const auto& ds = TestData();
  DistTrainer trainer(TestDistConfig(3, 1), ds.posts, &ds.interactions);
  // Rank 1 of 3 needs exactly one transport.
  EXPECT_FALSE(trainer.Run({}).ok());
}

// -------------------------------------------------------- checkpoints ---

class DistCheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("cold_dist_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string NodeDir(const std::string& run, int rank) const {
    return (dir_ / run / ("node-" + std::to_string(rank))).string();
  }

  static std::string Slurp(const std::filesystem::path& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << path;
    return std::string(std::istreambuf_iterator<char>(in), {});
  }

  std::filesystem::path dir_;
};

TEST_F(DistCheckpointTest, CheckpointsByteIdenticalAcrossNodeCounts) {
  const auto& ds = TestData();
  for (int num_nodes : {1, 2}) {
    std::string run_name = "n";
    run_name += std::to_string(num_nodes);
    std::vector<std::unique_ptr<DistTrainer>> owned;
    std::vector<DistTrainer*> nodes;
    for (int rank = 0; rank < num_nodes; ++rank) {
      DistConfig config = TestDistConfig(num_nodes, rank, /*iterations=*/6);
      config.checkpoint.dir = NodeDir(run_name, rank);
      config.checkpoint.every = 2;
      owned.push_back(std::make_unique<DistTrainer>(config, ds.posts,
                                                    &ds.interactions));
      nodes.push_back(owned.back().get());
    }
    cold::Status st = DistTrainer::RunLocalCluster(nodes);
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
  // Any rank's checkpoint IS the global state: rank 0 and rank 1 of the
  // 2-node run match each other and the 1-node run, byte for byte.
  const std::string name = core::CheckpointManager::FileName(6);
  auto ckpt = [&](const char* run, int rank) {
    return Slurp(std::filesystem::path(NodeDir(run, rank)) / name);
  };
  const std::string single = ckpt("n1", 0);
  ASSERT_FALSE(single.empty());
  EXPECT_EQ(single, ckpt("n2", 0));
  EXPECT_EQ(single, ckpt("n2", 1));
}

/// Node-death drill: rank 1 (a forked child process, talking to rank 0
/// over a pre-forked socketpair) is SIGKILLed by the fault injector after
/// sweep 4. Rank 0's run must fail (fail-stop), and a full restart with
/// resume=true must negotiate sweep 4 and finish byte-identical to an
/// uninterrupted single-process run.
TEST_F(DistCheckpointTest, KilledNodeResumesBitIdentical) {
  const auto& ds = TestData();
  constexpr int kIterations = 10;

  auto make_config = [&](int rank, bool resume) {
    DistConfig config = TestDistConfig(2, rank, kIterations);
    config.checkpoint.dir = NodeDir("run", rank);
    config.checkpoint.every = 2;
    config.resume = resume;
    return config;
  };

  auto run_child = [&](bool resume, bool arm_fault,
                       std::unique_ptr<Transport> transport) {
    // Child process: never returns. Exit codes diagnose failures.
    if (arm_fault &&
        !FaultInjector::Global().Configure("after_sweep:4").ok()) {
      ::_exit(7);
    }
    DistTrainer trainer(make_config(1, resume), ds.posts, &ds.interactions);
    std::vector<std::unique_ptr<Transport>> peers;
    peers.push_back(std::move(transport));
    ::_exit(trainer.Run(std::move(peers)).ok() ? 0 : 8);
  };

  // Leg 1: worker dies at sweep 4; the coordinator's run must fail.
  {
    std::unique_ptr<Transport> coord_end, worker_end;
    ASSERT_TRUE(LoopbackPair(&coord_end, &worker_end).ok());
    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      coord_end.reset();
      run_child(/*resume=*/false, /*arm_fault=*/true,
                std::move(worker_end));
    }
    worker_end.reset();
    DistTrainer coordinator(make_config(0, false), ds.posts,
                            &ds.interactions);
    std::vector<std::unique_ptr<Transport>> peers;
    peers.push_back(std::move(coord_end));
    cold::Status st = coordinator.Run(std::move(peers));
    EXPECT_FALSE(st.ok()) << "coordinator must fail when a node dies";
    int wstatus = 0;
    ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(wstatus));
    ASSERT_EQ(WTERMSIG(wstatus), SIGKILL);
  }

  // Leg 2: full restart with resume; must pick up the common sweep 4.
  // The successful resume is also the observability fixture: it must bump
  // cold/dist/restarts_total and record a dist/recovery trace span.
  obs::Counter* restarts =
      obs::Registry::Global().GetCounter("cold/dist/restarts_total");
  const int64_t restarts_before = restarts->Value();
  obs::TraceRing::Enable();
  int resumed_sweep = -1;
  core::ColdState resumed_state(0, 0, 0, 0, 0, 0, 0);
  {
    std::unique_ptr<Transport> coord_end, worker_end;
    ASSERT_TRUE(LoopbackPair(&coord_end, &worker_end).ok());
    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      coord_end.reset();
      run_child(/*resume=*/true, /*arm_fault=*/false,
                std::move(worker_end));
    }
    worker_end.reset();
    DistTrainer coordinator(make_config(0, true), ds.posts,
                            &ds.interactions);
    std::vector<std::unique_ptr<Transport>> peers;
    peers.push_back(std::move(coord_end));
    cold::Status st = coordinator.Run(std::move(peers));
    ASSERT_TRUE(st.ok()) << st.ToString();
    int wstatus = 0;
    ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
    ASSERT_TRUE(WIFEXITED(wstatus));
    ASSERT_EQ(WEXITSTATUS(wstatus), 0);
    resumed_sweep = coordinator.stats().resumed_sweep;
    resumed_state = coordinator.StateSnapshot();
  }
  EXPECT_EQ(resumed_sweep, 4);
  EXPECT_EQ(restarts->Value(), restarts_before + 1);
  bool saw_recovery_span = false;
  for (const obs::TraceEvent& event : obs::TraceRing::Events()) {
    if (event.name == "dist/recovery") saw_recovery_span = true;
  }
  obs::TraceRing::Disable();
  EXPECT_TRUE(saw_recovery_span)
      << "resume must record a dist/recovery trace span";

  // Reference: the uninterrupted run (computed last so no pool threads
  // exist in this process at fork time).
  core::ParallelColdTrainer reference(TestModelConfig(kIterations),
                                      ds.posts, &ds.interactions);
  ASSERT_TRUE(reference.Init().ok());
  ASSERT_TRUE(reference.Train().ok());
  ExpectStatesEqual(reference.StateSnapshot(), resumed_state);
}

}  // namespace
}  // namespace cold::dist
