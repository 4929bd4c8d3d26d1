#include "dist/dist_trainer.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "dist/delta_codec.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/fault_injector.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace cold::dist {

namespace {

/// cold/dist/* telemetry: real bytes on the wire, frame counts, and the
/// barrier-wait distribution.
struct DistMetrics {
  obs::Counter* comm_bytes;
  obs::Counter* frames;
  obs::Counter* heartbeats;
  obs::Counter* frame_timeouts;
  obs::Counter* restarts;
  obs::Histogram* barrier_wait_seconds;
  obs::Gauge* superstep;
};

DistMetrics& Metrics() {
  auto& registry = obs::Registry::Global();
  static DistMetrics metrics{
      registry.GetCounter("cold/dist/comm_bytes"),
      registry.GetCounter("cold/dist/frames_total"),
      registry.GetCounter("cold/dist/heartbeats_total"),
      registry.GetCounter("cold/dist/frame_timeouts_total"),
      registry.GetCounter("cold/dist/restarts_total"),
      registry.GetHistogram("cold/dist/barrier_wait_seconds"),
      registry.GetGauge("cold/dist/superstep")};
  return metrics;
}

using LivenessClock = std::chrono::steady_clock;

/// Milliseconds left until `deadline`, clamped at 0.
int RemainingMs(LivenessClock::time_point deadline) {
  auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                  deadline - LivenessClock::now())
                  .count();
  return left < 0 ? 0 : static_cast<int>(left);
}

cold::Status ExpectFrame(const Frame& frame, FrameType want,
                         uint64_t want_superstep) {
  if (frame.type == FrameType::kAbort) {
    return cold::Status::FailedPrecondition(
        "peer " + std::to_string(frame.sender_rank) +
        " aborted: " + frame.payload);
  }
  if (frame.type != want) {
    return cold::Status::IOError(
        "unexpected frame type " +
        std::to_string(static_cast<uint32_t>(frame.type)) + " from rank " +
        std::to_string(frame.sender_rank));
  }
  if (frame.superstep != want_superstep) {
    return cold::Status::IOError(
        "superstep desync: rank " + std::to_string(frame.sender_rank) +
        " is at " + std::to_string(frame.superstep) + ", expected " +
        std::to_string(want_superstep));
  }
  return cold::Status::OK();
}

/// Best-effort abort notification; the peer may already be gone, and a
/// hung peer must not be allowed to wedge our own teardown, so the send is
/// bounded by a short deadline.
void SendAbort(Transport* peer, int32_t rank, const std::string& reason) {
  cold::Status ignored = WriteFrame(peer, FrameType::kAbort, rank, 0, reason,
                                    /*timeout_ms=*/2000);
  (void)ignored;
}

}  // namespace

DistTrainer::DistTrainer(DistConfig config, const text::PostStore& posts,
                         const graph::Digraph* links)
    : config_(std::move(config)), posts_(posts), links_(links) {}

DistTrainer::~DistTrainer() { StopHeartbeats(); }

int DistTrainer::FrameTimeoutMs() const {
  if (config_.heartbeat_timeout_ms <= 0) return -1;
  return config_.progress_timeout_ms > 0 ? config_.progress_timeout_ms : -1;
}

cold::Result<Frame> DistTrainer::ReadFrameLive(Transport* transport) {
  constexpr uint64_t kMaxPayload = uint64_t{1} << 31;
  if (config_.heartbeat_timeout_ms <= 0) {
    for (;;) {
      COLD_ASSIGN_OR_RETURN(Frame frame, ReadFrame(transport, kMaxPayload));
      if (frame.type != FrameType::kHeartbeat) return frame;
    }
  }
  const bool bounded_progress = config_.progress_timeout_ms > 0;
  const LivenessClock::time_point progress_deadline =
      LivenessClock::now() +
      std::chrono::milliseconds(bounded_progress ? config_.progress_timeout_ms
                                                 : 0);
  for (;;) {
    // The tighter of the two deadlines bounds this wait: silence for
    // heartbeat_timeout_ms means a dead/hung peer; heartbeats without a
    // data frame for progress_timeout_ms means a lost frame.
    int budget = config_.heartbeat_timeout_ms;
    bool progress_is_tighter = false;
    if (bounded_progress) {
      const int left = RemainingMs(progress_deadline);
      if (left <= budget) {
        budget = left;
        progress_is_tighter = true;
      }
    }
    auto frame = ReadFrame(transport, kMaxPayload, budget);
    if (!frame.ok()) {
      if (frame.status().code() == cold::StatusCode::kDeadlineExceeded) {
        Metrics().frame_timeouts->Increment();
        return progress_is_tighter
                   ? cold::Status::DeadlineExceeded(
                         "no data frame within the progress deadline of " +
                         std::to_string(config_.progress_timeout_ms) +
                         "ms (peer may have dropped a frame)")
                   : cold::Status::DeadlineExceeded(
                         "peer silent past the liveness deadline of " +
                         std::to_string(config_.heartbeat_timeout_ms) +
                         "ms (dead or hung)");
      }
      return frame.status();
    }
    if (frame->type == FrameType::kHeartbeat) continue;
    return std::move(*frame);
  }
}

void DistTrainer::StartHeartbeats(
    const std::vector<std::unique_ptr<Transport>>& peers) {
  if (config_.heartbeat_timeout_ms <= 0 || peers.empty() ||
      heartbeat_thread_.joinable()) {
    return;
  }
  stop_heartbeats_ = false;
  std::vector<Transport*> targets;
  targets.reserve(peers.size());
  for (const auto& peer : peers) targets.push_back(peer.get());
  heartbeat_thread_ = std::thread([this, targets] {
    const int32_t rank = config_.node_rank;
    // `alive` goes false per peer on the first send error (EPIPE after the
    // peer exits is routine at teardown) so a dead peer is not re-poked
    // every interval.
    std::vector<bool> alive(targets.size(), true);
    for (;;) {
      for (size_t i = 0; i < targets.size(); ++i) {
        if (!alive[i]) continue;
        cold::Status st =
            WriteFrame(targets[i], FrameType::kHeartbeat, rank, 0, {},
                       config_.heartbeat_timeout_ms);
        if (st.ok()) {
          Metrics().heartbeats->Increment();
        } else {
          alive[i] = false;
        }
      }
      std::unique_lock<std::mutex> lock(heartbeat_mutex_);
      heartbeat_cv_.wait_for(
          lock, std::chrono::milliseconds(config_.heartbeat_interval_ms),
          [this] { return stop_heartbeats_; });
      if (stop_heartbeats_) return;
    }
  });
}

void DistTrainer::StopHeartbeats() {
  if (!heartbeat_thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(heartbeat_mutex_);
    stop_heartbeats_ = true;
  }
  heartbeat_cv_.notify_all();
  heartbeat_thread_.join();
}

cold::Status DistTrainer::Validate(size_t num_peers) const {
  if (config_.num_nodes < 1) {
    return cold::Status::InvalidArgument("num_nodes must be >= 1");
  }
  if (config_.node_rank < 0 || config_.node_rank >= config_.num_nodes) {
    return cold::Status::InvalidArgument(
        "node_rank " + std::to_string(config_.node_rank) +
        " outside [0, " + std::to_string(config_.num_nodes) + ")");
  }
  const size_t want =
      config_.num_nodes == 1
          ? 0
          : (config_.node_rank == 0
                 ? static_cast<size_t>(config_.num_nodes - 1)
                 : 1);
  if (num_peers != want) {
    return cold::Status::InvalidArgument(
        "rank " + std::to_string(config_.node_rank) + " of " +
        std::to_string(config_.num_nodes) + " needs " +
        std::to_string(want) + " peer transports, got " +
        std::to_string(num_peers));
  }
  return cold::Status::OK();
}

std::vector<int32_t> DistTrainer::ValidatedSweeps() const {
  std::vector<int32_t> sweeps;
  if (!config_.resume || checkpoints_ == nullptr ||
      checkpoints_->options().dir.empty()) {
    return sweeps;
  }
  for (const auto& [sweep, path] : checkpoints_->ListFiles()) {
    auto loaded = core::CheckpointManager::ReadFile(path);
    if (!loaded.ok()) {
      COLD_LOG(kWarning) << "skipping unreadable checkpoint " << path << ": "
                        << loaded.status().ToString();
      continue;
    }
    if (loaded->meta.flavor != core::CheckpointFlavor::kParallel ||
        loaded->meta.data_fingerprint != fingerprint_) {
      continue;
    }
    sweeps.push_back(sweep);
  }
  return sweeps;
}

cold::Status DistTrainer::Handshake(
    std::vector<std::unique_ptr<Transport>>* peers, int32_t* resume_sweep) {
  std::vector<int32_t> local_sweeps = ValidatedSweeps();
  if (config_.num_nodes == 1) {
    *resume_sweep = local_sweeps.empty()
                        ? -1
                        : *std::max_element(local_sweeps.begin(),
                                            local_sweeps.end());
    return cold::Status::OK();
  }

  HelloPayload self;
  self.rank = config_.node_rank;
  self.num_nodes = config_.num_nodes;
  self.seed = config_.cold.seed;
  self.iterations = config_.cold.iterations;
  self.num_communities = config_.cold.num_communities;
  self.num_topics = config_.cold.num_topics;
  self.data_fingerprint = fingerprint_;
  self.checkpoint_sweeps = local_sweeps;

  // Handshake frames flow before heartbeats start, so they are bounded by
  // the (generous) progress deadline alone: the coordinator answers only
  // after hearing from every worker, and workers may spend a while
  // validating local checkpoints first.
  constexpr uint64_t kMaxPayload = uint64_t{1} << 31;
  const int handshake_timeout_ms = FrameTimeoutMs();

  if (config_.node_rank != 0) {
    Transport* coord = (*peers)[0].get();
    COLD_RETURN_NOT_OK(WriteFrame(coord, FrameType::kHello, self.rank, 0,
                                  EncodeHello(self), handshake_timeout_ms));
    COLD_ASSIGN_OR_RETURN(
        Frame frame, ReadFrame(coord, kMaxPayload, handshake_timeout_ms));
    COLD_RETURN_NOT_OK(ExpectFrame(frame, FrameType::kWelcome, 0));
    WelcomePayload welcome;
    COLD_RETURN_NOT_OK(DecodeWelcome(frame.payload, &welcome));
    *resume_sweep = welcome.resume_sweep;
    return cold::Status::OK();
  }

  // Coordinator: collect one hello per connection (TCP accept order is
  // arbitrary), verify cluster-wide config consistency, and re-index the
  // peer table by the rank each hello carries.
  std::vector<std::unique_ptr<Transport>> by_rank(peers->size());
  std::vector<HelloPayload> hellos;
  for (auto& peer : *peers) {
    COLD_ASSIGN_OR_RETURN(
        Frame frame,
        ReadFrame(peer.get(), kMaxPayload, handshake_timeout_ms));
    COLD_RETURN_NOT_OK(ExpectFrame(frame, FrameType::kHello, 0));
    HelloPayload hello;
    COLD_RETURN_NOT_OK(DecodeHello(frame.payload, &hello));
    std::string problem;
    if (hello.rank < 1 || hello.rank >= config_.num_nodes) {
      problem = "rank outside [1, num_nodes)";
    } else if (by_rank[static_cast<size_t>(hello.rank - 1)] != nullptr) {
      problem = "duplicate rank " + std::to_string(hello.rank);
    } else if (hello.num_nodes != self.num_nodes ||
               hello.seed != self.seed ||
               hello.iterations != self.iterations ||
               hello.num_communities != self.num_communities ||
               hello.num_topics != self.num_topics) {
      problem = "run configuration differs from the coordinator's";
    } else if (hello.data_fingerprint != self.data_fingerprint) {
      problem = "training data fingerprint differs from the coordinator's";
    }
    if (!problem.empty()) {
      for (auto& p : *peers) {
        if (p != nullptr) SendAbort(p.get(), 0, problem);
      }
      return cold::Status::FailedPrecondition(
          "handshake with rank " + std::to_string(hello.rank) +
          " failed: " + problem);
    }
    by_rank[static_cast<size_t>(hello.rank - 1)] = std::move(peer);
    hellos.push_back(std::move(hello));
  }
  *peers = std::move(by_rank);

  // Resume from the newest sweep EVERY node can load; rotation keeps the
  // last few, so nodes that checkpointed ahead of a crashed peer roll back
  // to the common sweep instead of poisoning the run.
  std::vector<int32_t> common = local_sweeps;
  std::sort(common.begin(), common.end());
  for (const HelloPayload& hello : hellos) {
    std::vector<int32_t> theirs = hello.checkpoint_sweeps;
    std::sort(theirs.begin(), theirs.end());
    std::vector<int32_t> both;
    std::set_intersection(common.begin(), common.end(), theirs.begin(),
                          theirs.end(), std::back_inserter(both));
    common = std::move(both);
  }
  *resume_sweep = common.empty() ? -1 : common.back();

  WelcomePayload welcome;
  welcome.resume_sweep = *resume_sweep;
  const std::string payload = EncodeWelcome(welcome);
  for (auto& peer : *peers) {
    COLD_RETURN_NOT_OK(WriteFrame(peer.get(), FrameType::kWelcome, 0, 0,
                                  payload, handshake_timeout_ms));
  }
  return cold::Status::OK();
}

cold::Status DistTrainer::LoadResumeSweep(int32_t resume_sweep) {
  if (resume_sweep < 0) return cold::Status::OK();
  COLD_TRACE_SPAN("dist/recovery");
  const std::string path =
      checkpoints_->options().dir + "/" +
      core::CheckpointManager::FileName(resume_sweep);
  COLD_ASSIGN_OR_RETURN(core::LoadedCheckpoint loaded,
                        core::CheckpointManager::ReadFile(path));
  if (loaded.meta.flavor != core::CheckpointFlavor::kParallel ||
      loaded.meta.data_fingerprint != fingerprint_) {
    return cold::Status::FailedPrecondition(
        "negotiated checkpoint " + path + " does not match this run");
  }
  COLD_RETURN_NOT_OK(trainer_->RestoreState(loaded.payload));
  if (trainer_->supersteps_run() != resume_sweep) {
    return cold::Status::Internal(
        "checkpoint " + path + " restored to sweep " +
        std::to_string(trainer_->supersteps_run()) + ", expected " +
        std::to_string(resume_sweep));
  }
  stats_.resumed_sweep = resume_sweep;
  Metrics().restarts->Increment();
  COLD_LOG(kInfo) << "dist rank " << config_.node_rank
                 << " resumed from sweep " << resume_sweep;
  return cold::Status::OK();
}

cold::Status DistTrainer::ExchangeUpdates(
    const std::vector<std::unique_ptr<Transport>>& peers, uint64_t sweep,
    const core::SuperstepUpdate& local, core::SuperstepUpdate* global) {
  COLD_TRACE_SPAN("dist/exchange");
  if (config_.num_nodes == 1) {
    *global = local;
    return cold::Status::OK();
  }

  if (config_.node_rank != 0) {
    Transport* coord = peers[0].get();
    COLD_RETURN_NOT_OK(WriteFrame(coord, FrameType::kDelta,
                                  config_.node_rank, sweep,
                                  EncodeUpdate(local), FrameTimeoutMs()));
    Frame frame;
    {
      cold::ScopedTimer timer(stats_.barrier_wait_seconds);
      COLD_ASSIGN_OR_RETURN(frame, ReadFrameLive(coord));
    }
    COLD_RETURN_NOT_OK(ExpectFrame(frame, FrameType::kGlobal, sweep));
    COLD_RETURN_NOT_OK(DecodeUpdate(frame.payload, global));
    Metrics().frames->Increment(2);
    return cold::Status::OK();
  }

  // Coordinator: fold every node's counts into the dense accumulator (the
  // per-cell sums commute, so this equals the single-process merge) and
  // concatenate assignment rewrites in rank order — each edge is owned by
  // exactly one node, so the lists are disjoint.
  merge_acc_.assign(trainer_->DeltaTableSize(), 0);
  merge_touched_.clear();
  *global = core::SuperstepUpdate{};
  auto fold = [this, global](const core::SuperstepUpdate& update) {
    for (const auto& [idx, delta] : update.count_deltas) {
      if (merge_acc_[idx] == 0) merge_touched_.push_back(idx);
      merge_acc_[idx] += delta;
    }
    global->post_updates.insert(global->post_updates.end(),
                                update.post_updates.begin(),
                                update.post_updates.end());
    global->link_updates.insert(global->link_updates.end(),
                                update.link_updates.begin(),
                                update.link_updates.end());
  };
  fold(local);
  for (size_t r = 0; r < peers.size(); ++r) {
    Frame frame;
    {
      cold::ScopedTimer timer(stats_.barrier_wait_seconds);
      COLD_ASSIGN_OR_RETURN(frame, ReadFrameLive(peers[r].get()));
    }
    COLD_RETURN_NOT_OK(ExpectFrame(frame, FrameType::kDelta, sweep));
    if (frame.sender_rank != static_cast<int32_t>(r + 1)) {
      return cold::Status::IOError(
          "peer slot " + std::to_string(r + 1) + " spoke as rank " +
          std::to_string(frame.sender_rank));
    }
    core::SuperstepUpdate update;
    COLD_RETURN_NOT_OK(DecodeUpdate(frame.payload, &update));
    for (const auto& entry : update.count_deltas) {
      if (entry.first >= merge_acc_.size()) {
        return cold::Status::IOError(
            "rank " + std::to_string(r + 1) + " sent delta index " +
            std::to_string(entry.first) + " outside the " +
            std::to_string(merge_acc_.size()) + "-cell delta table");
      }
    }
    fold(update);
  }
  // Re-sparsify ascending — the canonical delta order (DrainDeltas emits
  // ascending too, so the 1-node wire form and the merged form agree).
  // Dedup: a cell whose running sum transiently cancels to zero gets
  // recorded once per zero-crossing above.
  std::sort(merge_touched_.begin(), merge_touched_.end());
  merge_touched_.erase(
      std::unique(merge_touched_.begin(), merge_touched_.end()),
      merge_touched_.end());
  global->count_deltas.reserve(merge_touched_.size());
  for (uint32_t idx : merge_touched_) {
    if (merge_acc_[idx] != 0) {
      global->count_deltas.emplace_back(idx, merge_acc_[idx]);
    }
  }
  const std::string payload = EncodeUpdate(*global);
  for (const auto& peer : peers) {
    COLD_RETURN_NOT_OK(WriteFrame(peer.get(), FrameType::kGlobal, 0, sweep,
                                  payload, FrameTimeoutMs()));
  }
  Metrics().frames->Increment(static_cast<int64_t>(2 * peers.size()));
  return cold::Status::OK();
}

cold::Status DistTrainer::MaybeCheckpoint(int sweep) const {
  if (checkpoints_ == nullptr || !checkpoints_->ShouldCheckpoint(sweep)) {
    return cold::Status::OK();
  }
  core::CheckpointMeta meta;
  meta.flavor = core::CheckpointFlavor::kParallel;
  meta.sweep = sweep;
  meta.data_fingerprint = fingerprint_;
  std::string payload;
  COLD_RETURN_NOT_OK(trainer_->SerializeState(&payload));
  return checkpoints_->Write(meta, payload);
}

cold::Status DistTrainer::Run(
    std::vector<std::unique_ptr<Transport>> peers) {
  COLD_RETURN_NOT_OK(Validate(peers.size()));
  fingerprint_ = core::DataFingerprint(posts_, links_);

  trainer_ = std::make_unique<core::ParallelColdTrainer>(
      config_.cold, posts_, links_, config_.engine);
  COLD_RETURN_NOT_OK(trainer_->Init());
  if (!config_.checkpoint.dir.empty()) {
    checkpoints_ =
        std::make_unique<core::CheckpointManager>(config_.checkpoint);
    COLD_RETURN_NOT_OK(checkpoints_->Init());
  }

  int32_t resume_sweep = -1;
  COLD_RETURN_NOT_OK(Handshake(&peers, &resume_sweep));

  // Heartbeats start the moment the handshake settles, so even a slow
  // checkpoint load (below) keeps every peer's liveness deadline fed.
  StartHeartbeats(peers);
  cold::Status st = LoadResumeSweep(resume_sweep);
  if (st.ok()) st = TrainLoop(peers);
  StopHeartbeats();
  if (!st.ok() && config_.num_nodes > 1) {
    // Let the survivors exit promptly (checkpoints intact) instead of
    // each burning a full liveness deadline discovering the failure.
    for (const auto& peer : peers) {
      if (peer != nullptr) {
        SendAbort(peer.get(), config_.node_rank, st.ToString());
      }
    }
  }
  return st;
}

cold::Status DistTrainer::TrainLoop(
    const std::vector<std::unique_ptr<Transport>>& peers) {
  // Deterministic chunk ownership: every node computes the identical
  // owner table, so the masks tile the chunk space exactly.
  const std::vector<int32_t> owners =
      trainer_->ComputeChunkOwners(config_.num_nodes);
  std::vector<uint8_t> mask(owners.size(), 0);
  for (size_t chunk = 0; chunk < owners.size(); ++chunk) {
    if (owners[chunk] == config_.node_rank) mask[chunk] = 1;
  }
  stats_.total_chunks = static_cast<int64_t>(owners.size());
  stats_.owned_chunks = static_cast<int64_t>(
      std::count(mask.begin(), mask.end(), uint8_t{1}));

  core::SuperstepUpdate local;
  core::SuperstepUpdate global;
  while (trainer_->supersteps_run() < config_.cold.iterations) {
    COLD_TRACE_SPAN("dist/superstep");
    cold::ScopedTimer timer(stats_.superstep_seconds);
    const auto sweep0 =
        static_cast<uint64_t>(trainer_->supersteps_run());
    COLD_RETURN_NOT_OK(trainer_->RunSuperstepSharded(mask, &local));
    COLD_RETURN_NOT_OK(ExchangeUpdates(peers, sweep0, local, &global));
    COLD_RETURN_NOT_OK(trainer_->ApplyGlobalUpdate(global));
    const int sweep = trainer_->supersteps_run();
    stats_.supersteps_run = sweep;

    int64_t wire_bytes = 0;
    for (const auto& peer : peers) {
      wire_bytes += peer->bytes_sent() + peer->bytes_received();
    }
    DistMetrics& metrics = Metrics();
    metrics.comm_bytes->Increment(
        wire_bytes - (stats_.bytes_sent + stats_.bytes_received));
    stats_.bytes_sent = 0;
    stats_.bytes_received = 0;
    for (const auto& peer : peers) {
      stats_.bytes_sent += peer->bytes_sent();
      stats_.bytes_received += peer->bytes_received();
    }
    metrics.superstep->Set(static_cast<double>(sweep));

    // Durable before the fault point, mirroring the single-process Train()
    // ordering: an injected crash after sweep K must leave sweep K's
    // checkpoint on disk.
    COLD_RETURN_NOT_OK(MaybeCheckpoint(sweep));
    if (superstep_callback_) superstep_callback_(sweep);
    cold::FaultInjector::Global().MaybeCrash("after_sweep", sweep);
  }
  return cold::Status::OK();
}

core::ColdEstimates DistTrainer::Estimates() const {
  return trainer_->Estimates();
}

core::ColdState DistTrainer::StateSnapshot() const {
  return trainer_->StateSnapshot();
}

cold::Status DistTrainer::SerializeState(std::string* out) const {
  return trainer_->SerializeState(out);
}

cold::Status DistTrainer::RunLocalCluster(
    const std::vector<DistTrainer*>& nodes) {
  if (nodes.empty()) {
    return cold::Status::InvalidArgument("no nodes");
  }
  const int n = static_cast<int>(nodes.size());
  std::vector<std::vector<std::unique_ptr<Transport>>> peer_sets(
      static_cast<size_t>(n));
  for (int rank = 1; rank < n; ++rank) {
    std::unique_ptr<Transport> coord_end;
    std::unique_ptr<Transport> worker_end;
    COLD_RETURN_NOT_OK(LoopbackPair(&coord_end, &worker_end));
    peer_sets[0].push_back(std::move(coord_end));
    peer_sets[static_cast<size_t>(rank)].push_back(std::move(worker_end));
  }
  std::vector<cold::Status> results(static_cast<size_t>(n),
                                    cold::Status::OK());
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(n - 1));
  for (int rank = 1; rank < n; ++rank) {
    threads.emplace_back([&, rank] {
      results[static_cast<size_t>(rank)] =
          nodes[static_cast<size_t>(rank)]->Run(
              std::move(peer_sets[static_cast<size_t>(rank)]));
    });
  }
  results[0] = nodes[0]->Run(std::move(peer_sets[0]));
  for (std::thread& t : threads) t.join();
  for (const cold::Status& s : results) {
    if (!s.ok()) return s;
  }
  return cold::Status::OK();
}

}  // namespace cold::dist
