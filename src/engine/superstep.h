// The superstep contract of the parallel trainer (§4.3, Alg 2), shared by
// the distributed layer, the tools, the benches and the tests: the engine
// options, the per-phase statistics, and the fixed scatter chunking whose
// per-chunk RNG streams make a superstep bit-identical across worker and
// node counts. The superstep itself is ParallelColdTrainer's
// (core/parallel_sampler.h).
#pragma once

#include <cstdint>

namespace cold::engine {

/// Edges per scatter chunk. Small enough for dynamic scheduling to even
/// out skew, large enough that the per-chunk RNG construction is noise.
/// Chunks are also the unit of distributed work ownership.
inline constexpr int64_t kScatterChunkEdges = 256;
/// Chunk RNG streams start far above the small stream ids the trainers use
/// elsewhere (e.g. their init stream), so no sequence is reused across
/// purposes. Chunk c of superstep s draws from stream
/// kChunkStreamBase + s * num_chunks + c.
inline constexpr uint64_t kChunkStreamBase = uint64_t{1} << 32;

/// \brief Engine configuration.
struct EngineOptions {
  /// Worker threads of the trainer's pool (a distributed node is one
  /// process, so this is also the per-node count), capped at hardware
  /// concurrency unless `oversubscribe` is set.
  int threads_per_node = 1;
  /// Base seed for the per-chunk scatter RNG streams.
  uint64_t seed = 42;
  /// Run threads_per_node real threads even beyond the host's hardware
  /// concurrency. Results are thread-count-invariant, so this is
  /// for exercising multi-worker code paths (tests, TSan) on small hosts,
  /// not for throughput.
  bool oversubscribe = false;
};

/// \brief Superstep statistics. They accumulate over every superstep since
/// the trainer's Init().
struct EngineStats {
  int supersteps = 0;
  /// Always 0: no phase recounts vertex state (the delta merge keeps every
  /// count table exact) and no apply phase exists. The pipeline benchmark
  /// (e2ebench/) is the only reader of both fields.
  double gather_seconds = 0.0;
  double apply_seconds = 0.0;
  /// The whole superstep: derived-cache rebuild, chunked scatter and merge.
  double scatter_seconds = 0.0;
  /// Time in the delta-table merge; a subset of scatter_seconds, reported
  /// separately for the scaling bench.
  double merge_seconds = 0.0;

  double total_seconds() const {
    return gather_seconds + apply_seconds + scatter_seconds;
  }
};

}  // namespace cold::engine
