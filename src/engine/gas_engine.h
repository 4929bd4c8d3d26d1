// Gather-Apply-Scatter execution engine: a from-scratch shared-memory
// re-implementation of distributed GraphLab's synchronous engine (Low et
// al., PVLDB 2012), the substrate the COLD paper runs its parallel Gibbs
// sampler on (§4.3, Alg 2).
//
// A superstep runs three phases:
//   gather  — per vertex, a commutative-associative reduction over incident
//             edges (parallel over vertices);
//   apply   — per vertex, folds the gathered value into vertex state;
//   scatter — per edge, may mutate edge state (this is where COLD samples
//             new latent assignments); parallel over fixed-size edge chunks
//             pulled from an atomic cursor (dynamic scheduling kills the
//             work-skew tail), each chunk drawing from its own RNG stream
//             keyed by (superstep, chunk) so results are bit-identical
//             across repeats AND worker counts.
//
// Programs may additionally provide two optional phase hooks, detected by
// duck typing:
//   void PreScatter(cold::ThreadPool*);   // after apply, before scatter —
//                                         // e.g. rebuild derived caches
//   void PostScatter(cold::ThreadPool*);  // after scatter, before the
//                                         // superstep ends — e.g. merge
//                                         // per-worker delta tables
//
// Phases execute on `threads_per_node` real threads (capped at the host's
// hardware concurrency). Multi-machine execution is src/dist: one engine per
// process, each scattering the chunks its node owns.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "engine/property_graph.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace cold::engine {

namespace internal {

/// Registry handles for the engine's exported metrics (cached once; the
/// per-superstep updates are a handful of relaxed atomics). The same
/// quantities stay available through EngineStats for callers that hold the
/// engine; the registry view is for telemetry snapshots.
struct EngineMetrics {
  obs::Gauge* gather_seconds;
  obs::Gauge* scatter_seconds;
  obs::Gauge* merge_seconds;
  obs::Counter* supersteps;
};

inline EngineMetrics& GetEngineMetrics() {
  auto& registry = obs::Registry::Global();
  static EngineMetrics metrics{
      registry.GetGauge("cold/engine/gather_seconds"),
      registry.GetGauge("cold/engine/scatter_seconds"),
      registry.GetGauge("cold/engine/merge_seconds"),
      registry.GetCounter("cold/engine/supersteps")};
  return metrics;
}

/// Detects the optional PreScatter/PostScatter program hooks.
template <typename Program>
concept HasPreScatter = requires(Program p, cold::ThreadPool* pool) {
  p.PreScatter(pool);
};
template <typename Program>
concept HasPostScatter = requires(Program p, cold::ThreadPool* pool) {
  p.PostScatter(pool);
};

}  // namespace internal

/// Edges per scatter chunk. Small enough for dynamic scheduling to even
/// out skew, large enough that the per-chunk RNG construction is noise.
/// Public (namespace scope) so the distributed layer can compute chunk
/// ownership that matches the engine's scatter chunking exactly.
inline constexpr int64_t kScatterChunkEdges = 256;
/// Chunk RNG streams start far above the small stream ids the trainers use
/// elsewhere (e.g. their init stream), so no sequence is reused across
/// purposes.
inline constexpr uint64_t kChunkStreamBase = uint64_t{1} << 32;

/// \brief Which incident edges the gather phase visits.
enum class GatherEdges { kNone, kIn, kOut, kAll };

/// \brief Engine configuration.
struct EngineOptions {
  /// Worker threads of this engine (a distributed node is one process, so
  /// this is also the per-node count), capped at hardware concurrency
  /// unless `oversubscribe` is set.
  int threads_per_node = 1;
  /// Base seed for the per-chunk scatter RNG streams.
  uint64_t seed = 42;
  /// Run threads_per_node real threads even beyond the host's hardware
  /// concurrency. Results are thread-count-invariant, so this is
  /// for exercising multi-worker code paths (tests, TSan) on small hosts,
  /// not for throughput.
  bool oversubscribe = false;
};

/// \brief Engine execution statistics, reset by each Run call.
struct EngineStats {
  int supersteps = 0;
  /// The fused gather+apply pass (one parallel sweep over vertices).
  double gather_seconds = 0.0;
  /// Always 0: apply runs inside gather's pass and is booked there. Kept
  /// because the pipeline benchmark (e2ebench/) reads it.
  double apply_seconds = 0.0;
  double scatter_seconds = 0.0;
  /// Time inside the program's PostScatter hook (delta-table merge); a
  /// subset of scatter_seconds, reported separately for the scaling bench.
  double merge_seconds = 0.0;

  double total_seconds() const {
    return gather_seconds + apply_seconds + scatter_seconds;
  }
};

/// \brief Worker-local context handed to scatter: a deterministic RNG stream
/// plus the worker index for per-worker scratch state.
struct WorkerContext {
  cold::RandomSampler* sampler;
  size_t worker_index;
};

/// \brief Synchronous GAS engine over a PropertyGraph.
///
/// `Program` is a duck-typed vertex program providing:
///
///   using GatherType = ...;                 // commutative monoid
///   static constexpr GatherEdges kGatherEdges = ...;
///   GatherType GatherInit() const;
///   void Gather(const Graph&, VertexId, EdgeId, GatherType*) const;
///   void Apply(Graph*, VertexId, const GatherType&);
///   void Scatter(Graph*, EdgeId, WorkerContext*) ;
///   void PostSuperstep(Graph*, int superstep);   // global sync point
///
/// Phases are separated by the pool's join, so a phase only races with
/// itself. Gather and Apply share one pass over the vertices: Apply may
/// write only state owned by its vertex that no Gather reads. Scatter runs
/// in parallel over edge chunks and may write only its own edge's state and
/// worker-private scratch (COLD buffers its count updates in per-worker
/// delta tables and merges them in PostScatter). Under that discipline no
/// program state needs to be atomic.
template <typename VData, typename EData, typename Program>
class GasEngine {
 public:
  using Graph = PropertyGraph<VData, EData>;

  GasEngine(Graph* graph, Program* program, EngineOptions options = {})
      : graph_(graph),
        program_(program),
        options_(options),
        pool_(ComputeThreads(options)) {}

  const EngineStats& stats() const { return stats_; }
  size_t num_threads() const { return pool_.num_threads(); }

  /// \brief Sets the superstep index that keys the per-chunk scatter RNG
  /// streams. The engine advances it after every scatter; a checkpoint
  /// restore must reinstall the saved value so resumed supersteps draw from
  /// the streams an uninterrupted run would have used.
  void set_superstep_index(int64_t index) { superstep_index_ = index; }
  int64_t superstep_index() const { return superstep_index_; }

  /// Scatter chunk count for the current graph (the unit of distributed
  /// work ownership).
  int64_t num_scatter_chunks() const {
    return (graph_->num_edges() + kScatterChunkEdges - 1) / kScatterChunkEdges;
  }

  /// \brief Restricts scatter to chunks with mask[chunk] != 0 (nullptr
  /// runs them all). The distributed trainer hands each node the chunks it
  /// owns; masked-out chunks are skipped whole, so the surviving chunks
  /// draw from exactly the RNG streams — keyed by (superstep, chunk id) —
  /// that a full single-process run would use. The mask must outlive the
  /// supersteps run under it and cover num_scatter_chunks() entries.
  void set_scatter_chunk_mask(const std::vector<uint8_t>* mask) {
    scatter_chunk_mask_ = mask;
  }

  /// \brief Runs `supersteps` supersteps, accumulating stats.
  void Run(int supersteps) {
    for (int s = 0; s < supersteps; ++s) RunSuperstep();
  }

  /// \brief Runs one gather/apply/scatter superstep.
  void RunSuperstep() {
    COLD_TRACE_SPAN("engine/superstep");
    auto& metrics = internal::GetEngineMetrics();

    // Gather + Apply. Each vertex's reduction is independent, so one
    // parallel sweep covers both phases (GraphLab fuses them the same way
    // for synchronous execution); the pass is booked once, as gather.
    double ga = 0.0;
    if constexpr (Program::kGatherEdges != GatherEdges::kNone) {
      cold::ScopedTimer timer(ga);
      size_t nv = static_cast<size_t>(graph_->num_vertices());
      pool_.ParallelFor(nv, [this](size_t begin, size_t end, size_t) {
        for (size_t v = begin; v < end; ++v) {
          auto vid = static_cast<VertexId>(v);
          auto acc = program_->GatherInit();
          if constexpr (Program::kGatherEdges == GatherEdges::kIn ||
                        Program::kGatherEdges == GatherEdges::kAll) {
            for (EdgeId e : graph_->in_edges(vid)) {
              program_->Gather(*graph_, vid, e, &acc);
            }
          }
          if constexpr (Program::kGatherEdges == GatherEdges::kOut ||
                        Program::kGatherEdges == GatherEdges::kAll) {
            for (EdgeId e : graph_->out_edges(vid)) {
              program_->Gather(*graph_, vid, e, &acc);
            }
          }
          program_->Apply(graph_, vid, acc);
        }
      });
    }
    stats_.gather_seconds += ga;
    metrics.gather_seconds->Add(ga);

    // Scatter.
    RunScatterPhase(metrics);

    program_->PostSuperstep(graph_, stats_.supersteps);
    stats_.supersteps++;
    metrics.supersteps->Increment();
  }

 private:
  static size_t ComputeThreads(const EngineOptions& options) {
    size_t want = static_cast<size_t>(options.threads_per_node);
    if (options.oversubscribe) return std::max<size_t>(1, want);
    size_t hw = std::max<size_t>(1, std::thread::hardware_concurrency());
    return std::max<size_t>(1, std::min(want, hw));
  }

  /// \brief The scatter phase: optional PreScatter hook, chunked dynamic
  /// execution over edges, and the optional PostScatter hook (timed
  /// separately as merge_seconds).
  ///
  /// Determinism: chunk boundaries depend only on the edge count and each
  /// chunk owns RNG stream (superstep * num_chunks + chunk), so the drawn
  /// assignments are identical no matter which worker ends up executing a
  /// chunk — repeat runs and different thread counts produce bit-identical
  /// state (provided the program's own updates commute, as the delta-table
  /// program's do).
  void RunScatterPhase(internal::EngineMetrics& metrics) {
    double scatter_s = 0.0;
    double merge_s = 0.0;
    {
      COLD_TRACE_SPAN("engine/scatter");
      cold::ScopedTimer timer(scatter_s);
      if constexpr (internal::HasPreScatter<Program>) {
        program_->PreScatter(&pool_);
      }
      const int64_t ne = graph_->num_edges();
      const int64_t num_chunks = num_scatter_chunks();
      const uint64_t stream_base =
          kChunkStreamBase + static_cast<uint64_t>(superstep_index_) *
                                 static_cast<uint64_t>(num_chunks);
      std::atomic<int64_t> cursor{0};
      size_t workers = pool_.num_threads();
      // One long-running task per worker, each pulling chunks dynamically.
      pool_.ParallelFor(
          workers, [this, ne, num_chunks, stream_base, &cursor](
                       size_t, size_t, size_t worker) {
            // One span per worker per superstep: the trace timeline shows
            // each pool thread's share of the scatter phase.
            COLD_TRACE_SPAN("engine/scatter_worker");
            while (true) {
              int64_t chunk = cursor.fetch_add(1, std::memory_order_relaxed);
              if (chunk >= num_chunks) break;
              if (scatter_chunk_mask_ != nullptr &&
                  (*scatter_chunk_mask_)[static_cast<size_t>(chunk)] == 0) {
                continue;
              }
              cold::RandomSampler sampler(
                  options_.seed, stream_base + static_cast<uint64_t>(chunk));
              WorkerContext ctx{&sampler, worker};
              int64_t stop = std::min(ne, (chunk + 1) * kScatterChunkEdges);
              for (int64_t e = chunk * kScatterChunkEdges; e < stop; ++e) {
                program_->Scatter(graph_, static_cast<EdgeId>(e), &ctx);
              }
            }
          });
      if constexpr (internal::HasPostScatter<Program>) {
        cold::ScopedTimer merge_timer(merge_s);
        program_->PostScatter(&pool_);
      }
    }
    superstep_index_++;
    stats_.scatter_seconds += scatter_s;
    stats_.merge_seconds += merge_s;
    metrics.scatter_seconds->Add(scatter_s);
    metrics.merge_seconds->Add(merge_s);
  }

  Graph* graph_;
  Program* program_;
  EngineOptions options_;
  cold::ThreadPool pool_;
  EngineStats stats_;
  int64_t superstep_index_ = 0;
  const std::vector<uint8_t>* scatter_chunk_mask_ = nullptr;
};

}  // namespace cold::engine
