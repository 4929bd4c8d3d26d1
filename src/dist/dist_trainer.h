// Multi-process distributed COLD training (DESIGN.md §12).
//
// Execution model: every node replicates the full model state; scatter is
// sharded by chunk ownership derived from the greedy vertex partition. Each superstep every node exports its sparse
// count deltas + assignment rewrites; the rank-0 coordinator collects them
// in rank order, merges (per-cell int32 sums commute, so the merged table
// equals the single-process superstep-boundary merge exactly), and
// broadcasts the global update, which every node — including rank 0 —
// applies identically. The replicas therefore stay in lockstep, a fixed
// seed is bit-identical across node counts, and any node's checkpoint IS
// the global model state.
//
// Failure model: fail-stop with active liveness detection (DESIGN.md
// §12). Every node runs a heartbeat thread that beats each peer every
// heartbeat_interval_ms; every receive is bounded by two deadlines — a
// liveness deadline (no frame at all, heartbeats included, for
// heartbeat_timeout_ms means the peer is dead or hung) and a progress
// deadline (no DATA frame for progress_timeout_ms means the stream lost a
// frame even though the peer is alive). A detected failure aborts this
// node, which broadcasts kAbort so survivors exit promptly with their
// checkpoints intact; the supervisor (tools/cold_train --nodes) then
// restarts the job from the newest checkpoint sweep common to all nodes,
// negotiated by the handshake, so the rerun continues bit-identically.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint.h"
#include "core/cold_config.h"
#include "core/cold_estimates.h"
#include "core/parallel_sampler.h"
#include "dist/delta_codec.h"
#include "dist/transport.h"
#include "graph/digraph.h"
#include "text/post_store.h"
#include "util/status.h"

namespace cold::dist {

struct DistConfig {
  /// Cluster size (1 degenerates to a plain local run, no peers needed).
  int num_nodes = 1;
  /// This process's rank; rank 0 coordinates.
  int node_rank = 0;
  core::ColdConfig cold;
  /// Per-node engine options (`threads_per_node` workers in this process).
  /// Models and checkpoints are byte-identical across cluster sizes and
  /// worker counts.
  engine::EngineOptions engine;
  /// Per-node checkpoint rotation (give every rank its own directory).
  core::CheckpointOptions checkpoint;
  /// Negotiate and load the newest checkpoint sweep common to all nodes.
  bool resume = false;
  /// Heartbeat cadence: every node beats every peer this often so silence
  /// is always meaningful.
  int heartbeat_interval_ms = 1000;
  /// Liveness deadline: a peer that delivers NO frame (heartbeats
  /// included) for this long is declared dead/hung and the job aborts.
  /// <= 0 disables the liveness layer entirely: no heartbeat thread and
  /// unbounded blocking receives (single-node runs need neither).
  int heartbeat_timeout_ms = 10000;
  /// Progress deadline: a DATA frame must arrive within this budget even
  /// while heartbeats keep flowing — a dropped delta on a live connection
  /// must not deadlock the superstep forever. <= 0 disables.
  int progress_timeout_ms = 120000;
};

struct DistStats {
  int supersteps_run = 0;
  /// Sweep the cluster resumed from (-1 = fresh start).
  int resumed_sweep = -1;
  int64_t bytes_sent = 0;
  int64_t bytes_received = 0;
  /// Wall time blocked on peers (the recv side of every exchange).
  double barrier_wait_seconds = 0.0;
  /// Wall time across all supersteps (compute + exchange + apply).
  double superstep_seconds = 0.0;
  int64_t owned_chunks = 0;
  int64_t total_chunks = 0;
};

/// \brief One node of the distributed trainer. Construct with this node's
/// rank and transports to its peers, then Run() to completion.
class DistTrainer {
 public:
  DistTrainer(DistConfig config, const text::PostStore& posts,
              const graph::Digraph* links);
  ~DistTrainer();

  /// \brief Runs training to completion. For rank 0, `peers` holds one
  /// transport per worker (any order; the handshake sorts them by rank);
  /// for workers, exactly one transport to the coordinator; for
  /// num_nodes == 1, empty.
  cold::Status Run(std::vector<std::unique_ptr<Transport>> peers);

  /// Observer invoked after every applied superstep (1-based sweep).
  void SetSuperstepCallback(std::function<void(int)> callback) {
    superstep_callback_ = std::move(callback);
  }

  core::ColdEstimates Estimates() const;
  core::ColdState StateSnapshot() const;
  cold::Status SerializeState(std::string* out) const;

  const DistStats& stats() const { return stats_; }

  /// \brief Test/bench helper: runs `nodes` (ranks 0..N-1 over the same
  /// dataset) as one in-process cluster over loopback transports, one
  /// thread per node. Returns the first non-OK status. Must be called
  /// while no thread pools are live in the process.
  static cold::Status RunLocalCluster(const std::vector<DistTrainer*>& nodes);

 private:
  cold::Status Validate(size_t num_peers) const;

  /// Lists the sweeps of every locally readable, fully verified checkpoint
  /// matching this run's flavor and data fingerprint.
  std::vector<int32_t> ValidatedSweeps() const;

  cold::Status Handshake(std::vector<std::unique_ptr<Transport>>* peers,
                         int32_t* resume_sweep);
  cold::Status LoadResumeSweep(int32_t resume_sweep);
  cold::Status ExchangeUpdates(
      const std::vector<std::unique_ptr<Transport>>& peers, uint64_t sweep,
      const core::SuperstepUpdate& local, core::SuperstepUpdate* global);
  cold::Status MaybeCheckpoint(int sweep) const;
  cold::Status TrainLoop(
      const std::vector<std::unique_ptr<Transport>>& peers);

  /// Effective per-send deadline for data/handshake frames (-1 when the
  /// liveness layer is disabled).
  int FrameTimeoutMs() const;

  /// \brief Receives the next DATA frame, silently consuming heartbeats.
  /// kDeadlineExceeded when the peer goes silent past the liveness
  /// deadline or delivers no data frame within the progress deadline
  /// (each expiry also bumps cold/dist/frame_timeouts_total).
  cold::Result<Frame> ReadFrameLive(Transport* transport);

  /// Starts/stops the heartbeat thread beating every transport in
  /// `peers`. Idempotent no-ops when the liveness layer is disabled or
  /// there are no peers.
  void StartHeartbeats(const std::vector<std::unique_ptr<Transport>>& peers);
  void StopHeartbeats();

  DistConfig config_;
  const text::PostStore& posts_;
  const graph::Digraph* links_;
  uint64_t fingerprint_ = 0;
  std::unique_ptr<core::ParallelColdTrainer> trainer_;
  std::unique_ptr<core::CheckpointManager> checkpoints_;
  DistStats stats_;
  std::function<void(int)> superstep_callback_;

  // Coordinator-side dense merge accumulator (delta-table sized), reused
  // across supersteps.
  std::vector<int32_t> merge_acc_;
  std::vector<uint32_t> merge_touched_;

  // Heartbeat sender (liveness beacons to every peer).
  std::thread heartbeat_thread_;
  std::mutex heartbeat_mutex_;
  std::condition_variable heartbeat_cv_;
  bool stop_heartbeats_ = false;
};

}  // namespace cold::dist
