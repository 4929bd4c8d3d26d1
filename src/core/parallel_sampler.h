// Parallel COLD inference (§4.3, Fig 4, Alg 2).
//
// Graph abstraction (exactly the paper's): a bipartite graph connecting each
// user with each time slice — the edge (i, t) carries the posts user i wrote
// at time t together with their community/topic indicators — plus user-user
// edges carrying the link community indicators (s, s').
//
// A superstep is Alg 2's scatter: it draws new assignments with Eqs. (1)-(3)
// over those edges. Every count table stays frozen for the whole phase: each
// worker reads them contention-free, records its +/- updates in a private
// delta buffer, and the buffers are merged at the superstep boundary —
// deterministic for a fixed seed regardless of worker count. The merge keeps
// every table exact, the vertex-owned n_ic and n_ckt included, so it also
// does the job of Alg 2's gather/apply (which rebuilds those two from the
// assignments on GraphLab). Derived log/lgamma caches are rebuilt once per
// superstep from the frozen counts (DESIGN.md §10).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "core/cold_config.h"
#include "core/cold_estimates.h"
#include "core/parallel_state.h"
#include "engine/property_graph.h"
#include "engine/superstep.h"
#include "graph/digraph.h"
#include "text/post_store.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace cold::core {

/// \brief One node's contribution to a distributed superstep: the sparse
/// count deltas its owned scatter chunks produced (flat delta-table indices,
/// see ParallelColdState::dx_n_*) plus the assignment rewrites for its own
/// edges. Per-cell int32 sums commute, so the union over nodes applied to
/// replicated frozen state reproduces the single-process superstep exactly
/// (DESIGN.md §12).
struct SuperstepUpdate {
  std::vector<std::pair<uint32_t, int32_t>> count_deltas;
  std::vector<std::array<int32_t, 3>> post_updates;  // {post, community, topic}
  std::vector<std::array<int32_t, 3>> link_updates;  // {link, s, s2}
};

struct ColdEdge;       // defined in parallel_sampler.cc
class ScatterKernel;   // defined in parallel_sampler.cc

/// \brief Parallel trainer: builds the Fig-4 graph, runs `iterations`
/// supersteps on a pool of `threads_per_node` workers it owns, and exposes
/// estimates plus superstep statistics for the scalability experiments
/// (Figs 13-14).
class ParallelColdTrainer {
 public:
  ParallelColdTrainer(ColdConfig config, const text::PostStore& posts,
                      const graph::Digraph* links,
                      engine::EngineOptions engine_options = {});
  ~ParallelColdTrainer();

  /// \brief Builds the graph abstraction and the random initial assignment.
  cold::Status Init();

  /// \brief Runs the remaining supersteps (config.iterations minus
  /// supersteps_run()), so a trainer restored via RestoreState() picks up
  /// where the checkpoint left off.
  cold::Status Train();

  /// \brief Serializes the complete trainer state — counters, assignments
  /// and superstep index — for the checkpoint layer (checkpoint.h). Defined
  /// in checkpoint.cc.
  cold::Status SerializeState(std::string* out) const;

  /// \brief Restores state captured by SerializeState(). Requires the same
  /// dataset, seed and schedule, but not the same worker count: scatter
  /// draws are keyed by superstep and chunk, so a resumed run is
  /// bit-identical at any worker count. Validated before anything takes
  /// effect. Defined in checkpoint.cc.
  cold::Status RestoreState(const std::string& payload);

  /// 1-based count of completed supersteps.
  int supersteps_run() const { return supersteps_run_; }

  /// \brief Observer invoked by Train() after every superstep with the
  /// 1-based superstep number (the per-sweep telemetry snapshot hook).
  void SetSuperstepCallback(std::function<void(int)> callback) {
    superstep_callback_ = std::move(callback);
  }

  /// \brief Runs a single superstep (one full Gibbs sweep).
  void RunSuperstep();

  // --- distributed execution hooks (src/dist) -----------------------------
  //
  // A distributed node replicates the full model state and scatters only
  // the chunks it owns. RunSuperstepSharded skips the delta merge and
  // exports the node's sparse update; after the coordinator merges all
  // nodes' updates in rank order, ApplyGlobalUpdate installs the merged
  // result on every node, keeping the replicas in lockstep. Chunk RNG
  // streams are keyed by (superstep, chunk), so a node scattering exactly
  // its owned chunks draws bit-identically to the single-process run.

  /// Number of fixed-size scatter chunks (the distributed ownership unit).
  int64_t NumScatterChunks() const;

  /// Flat delta-table size (bounds the indices in SuperstepUpdate).
  size_t DeltaTableSize() const;

  /// \brief Deterministic chunk → node assignment: greedy vertex partition
  /// (engine::GreedyAssignment over edge work units) lifted to chunks by
  /// work-unit plurality of each chunk's edges, ties to the lowest node id.
  /// Every node computes the identical table. Requires Init().
  std::vector<int32_t> ComputeChunkOwners(int num_nodes) const;

  /// \brief Runs one superstep scattering only chunks with a nonzero mask
  /// byte (mask size must equal NumScatterChunks()), leaving the canonical
  /// counters untouched, and fills `out` with this node's sparse update.
  /// Does not advance supersteps_run(); pair with ApplyGlobalUpdate.
  cold::Status RunSuperstepSharded(const std::vector<uint8_t>& chunk_mask,
                                   SuperstepUpdate* out);

  /// \brief Installs the merged cluster-wide update (counts + assignment
  /// rewrites) and advances supersteps_run(). Rewrites for this node's own
  /// edges are idempotent re-writes of values scatter already stored.
  cold::Status ApplyGlobalUpdate(const SuperstepUpdate& update);

  /// \brief Appendix-A estimates from the current counters.
  ColdEstimates Estimates() const;

  /// \brief Snapshot of the shared state as a plain ColdState.
  ColdState StateSnapshot() const;

  const engine::EngineStats& engine_stats() const { return stats_; }

  double lambda0() const { return lambda0_; }

 private:
  using Graph = engine::PropertyGraph<ColdEdge>;

  /// \brief The superstep, on counts frozen for its duration: rebuild the
  /// derived caches, scatter every chunk (only the chunks with a nonzero
  /// `chunk_mask` byte, when one is given), then merge the per-worker
  /// deltas into the canonical tables. Under a mask the deltas stay in the
  /// buffers for RunSuperstepSharded to drain. Chunk c draws from RNG
  /// stream kChunkStreamBase + supersteps_run_ * chunks + c. Does not
  /// advance supersteps_run_.
  void Superstep(const std::vector<uint8_t>* chunk_mask);

  ColdConfig config_;
  const text::PostStore& posts_;
  const graph::Digraph* links_;
  bool use_network_;
  double lambda0_ = 0.1;
  engine::EngineOptions engine_options_;
  cold::ThreadPool pool_;
  engine::EngineStats stats_;

  std::unique_ptr<ParallelColdState> state_;
  std::unique_ptr<Graph> graph_;
  std::unique_ptr<ScatterKernel> kernel_;
  int supersteps_run_ = 0;
  bool initialized_ = false;
  std::function<void(int)> superstep_callback_;

  // Pre-superstep assignment snapshots used by RunSuperstepSharded to diff
  // out this node's assignment rewrites.
  std::vector<int32_t> prev_post_community_;
  std::vector<int32_t> prev_post_topic_;
  std::vector<int32_t> prev_link_src_community_;
  std::vector<int32_t> prev_link_dst_community_;
};

}  // namespace cold::core
