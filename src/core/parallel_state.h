// Counter state for the parallel sampler: a ColdState (the canonical
// assignments and count tables, laid out exactly as the serial sampler's)
// plus one plain int32 delta buffer per worker.
//
// Scatter reads the canonical counts, which are FROZEN for the whole phase,
// and accumulates its +/-1 updates into its worker's private delta buffer;
// the engine merges all buffers into the canonical tables at the superstep
// boundary (MergeDeltaRange, striped across the pool). Counter sums are
// integer and per-cell, so the merged result is independent of worker count
// and chunk scheduling — the basis of the trainer's multi-worker determinism
// guarantee (DESIGN.md §10).
//
// Nothing here is atomic because no cell is ever written by two threads at
// once: apply writes cells owned by one vertex, scatter writes only its own
// edge's assignments and its worker's buffer, each merge task owns a
// disjoint range of cells, and the thread pool joins between phases.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/cold_state.h"
#include "util/status.h"

namespace cold::core {

/// \brief Canonical sampler state shared by the GAS sampler's workers, plus
/// their per-worker delta tables.
class ParallelColdState : public ColdState {
 public:
  ParallelColdState(int num_users, int num_communities, int num_topics,
                    int num_time_slices, int vocab_size, int num_posts,
                    int64_t num_links);

  // --- per-worker delta tables --------------------------------------------
  //
  // Flat layout covering every counter table that scatter mutates (n_i never
  // changes mid-superstep: community moves preserve each user's indicator
  // total). Index helpers map (table, coordinates) to a flat offset shared
  // by all workers' buffers.

  /// Number of int32 cells in one worker's delta buffer.
  size_t delta_size() const { return delta_size_; }

  /// \brief Allocates (and zeroes) delta buffers so at least `num_workers`
  /// exist. Already-allocated buffers are preserved — they are zero between
  /// supersteps by the merge contract. Not thread-safe; call between phases.
  void EnsureDeltaBuffers(size_t num_workers);

  /// Worker `w`'s delta buffer (EnsureDeltaBuffers must cover w).
  int32_t* delta(size_t w) { return deltas_[w].data(); }

  size_t dx_n_ic(int i, int c) const {
    return off_ic_ + static_cast<size_t>(i) * C() + c;
  }
  size_t dx_n_ck(int c, int k) const {
    return off_ck_ + static_cast<size_t>(c) * K() + k;
  }
  size_t dx_n_c(int c) const { return off_c_ + static_cast<size_t>(c); }
  size_t dx_n_ckt(int c, int k, int t) const {
    return off_ckt_ + (static_cast<size_t>(c) * K() + k) * T() + t;
  }
  size_t dx_n_kv(int k, int v) const {
    return off_kv_ + static_cast<size_t>(k) * V() + v;
  }
  size_t dx_n_k(int k) const { return off_k_ + static_cast<size_t>(k); }
  size_t dx_n_cc(int c, int c2) const {
    return off_cc_ + static_cast<size_t>(c) * C() + c2;
  }

  /// \brief Folds every worker's deltas for flat cells [begin, end) into the
  /// canonical tables and zeroes those delta cells. Each cell is summed over
  /// workers in fixed order, so the result does not depend on how the range
  /// is striped across merge tasks or on chunk scheduling during scatter.
  /// Distinct ranges may merge concurrently; ranges must not overlap.
  void MergeDeltaRange(size_t begin, size_t end);

  /// \brief Drains every worker's delta buffer into a sparse ascending
  /// (flat index, delta) list — the distributed exchange payload — WITHOUT
  /// touching the canonical tables (the caller installs the cluster-wide
  /// merge via ApplyDeltaEntries). Cells are summed over workers in fixed
  /// order and zeroed, preserving the between-superstep all-zero contract.
  /// Not thread-safe; call between phases.
  void DrainDeltas(std::vector<std::pair<uint32_t, int32_t>>* out);

  /// \brief Adds sparse count deltas (e.g. the merged cluster-wide update)
  /// into the canonical tables. Indices past delta_size() are rejected.
  cold::Status ApplyDeltaEntries(
      const std::vector<std::pair<uint32_t, int32_t>>& entries);

 private:
  /// The canonical counter cell holding flat delta cell `idx`.
  int32_t& CanonicalAt(size_t idx);

  // Segment offsets into the flat delta index space, in storage order.
  size_t off_ic_ = 0;
  size_t off_ck_ = 0;
  size_t off_c_ = 0;
  size_t off_ckt_ = 0;
  size_t off_kv_ = 0;
  size_t off_k_ = 0;
  size_t off_cc_ = 0;
  size_t delta_size_ = 0;

  std::vector<std::vector<int32_t>> deltas_;
};

}  // namespace cold::core
