#include "core/parallel_sampler.h"

#include <algorithm>
#include <cmath>

#include "core/gibbs_sampler.h"
#include "core/sparse_topic_kernel.h"
#include "engine/partitioner.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/fault_injector.h"
#include "util/math_util.h"
#include "util/simd.h"
#include "util/stopwatch.h"

namespace cold::core {

namespace {
constexpr size_t kMaxWorkers = 256;

/// Per-superstep throughput telemetry for the parallel trainer, mirroring
/// the serial sampler's cold/gibbs/* gauges. stale_clamp_total counts every
/// negative-count clamp in the sampling kernels: nonzero only when the
/// legacy shared-counter mode races (the delta-table mode reads frozen
/// counts whose own-contribution exclusion is exact, so it stays at zero).
struct ParallelMetrics {
  obs::Counter* supersteps;
  obs::Gauge* superstep_seconds;
  obs::Gauge* tokens_per_second;
  obs::Counter* stale_clamps;
};

ParallelMetrics& Metrics() {
  auto& registry = obs::Registry::Global();
  static ParallelMetrics metrics{
      registry.GetCounter("cold/parallel/supersteps"),
      registry.GetGauge("cold/parallel/superstep_seconds"),
      registry.GetGauge("cold/parallel/tokens_per_second"),
      registry.GetCounter("cold/parallel/stale_clamp_total")};
  return metrics;
}

}  // namespace

/// Vertex program implementing Alg 2. See file header of
/// parallel_sampler.h for the counter-placement discussion.
class ColdVertexProgram {
 public:
  using Graph = engine::PropertyGraph<ColdVertex, ColdEdge>;
  using GatherType = std::vector<int32_t>;
  static constexpr engine::GatherEdges kGatherEdges = engine::GatherEdges::kAll;

  ColdVertexProgram(const ColdConfig& config, const text::PostStore& posts,
                    const graph::Digraph* links, ParallelColdState* state,
                    const Graph* graph, bool use_network, double lambda0,
                    bool legacy_shared_counters)
      : config_(config),
        posts_(posts),
        links_(links),
        state_(state),
        graph_(graph),
        use_network_(use_network),
        legacy_(legacy_shared_counters),
        lambda0_(lambda0),
        // Derived prior constants hoisted once — the scatter kernels run per
        // token per superstep and should not re-resolve them.
        rho_(config.ResolvedRho()),
        alpha_(config.ResolvedAlpha()),
        kalpha_(config.num_topics * config.ResolvedAlpha()),
        teps_(posts.num_time_slices() * config.epsilon),
        vbeta_(state->V() * config.beta),
        scratch_(kMaxWorkers) {
    if (legacy_) return;
    const size_t C = static_cast<size_t>(config.num_communities);
    const size_t K = static_cast<size_t>(config.num_topics);
    const size_t T = static_cast<size_t>(posts.num_time_slices());
    const size_t V = static_cast<size_t>(state->V());
    comm_factor_.resize(K * C);
    topic_ck_.resize(C * K);
    log_nckt_eps_.resize(C * T * K);
    log_nkv_beta_.resize(V * K);
    lgamma_nk_vbeta_.resize(K);
    for (text::PostId d = 0; d < posts_.num_posts(); ++d) {
      max_post_len_ = std::max(max_post_len_, posts_.length(d));
    }
    denom_.resize(static_cast<size_t>(max_post_len_ + 1) * K);
    if (use_network_) {
      w_link_.resize(C * C);
      w_link_in_.resize(C * C);
    }
    // Sparse topic path: alias rows live only within a superstep (rebuilt
    // eagerly from the frozen counters in PreScatter, so their content is
    // independent of worker count), and the integer-indexed lgamma table
    // serves the single-topic MH evaluations.
    sparse_ = config.UseSparseTopicSampling();
    if (sparse_) {
      sparse_mh_steps_ = config.sparse_mh_steps;
      alias_bank_.Reset(static_cast<int>(C), static_cast<int>(T),
                        static_cast<int>(K), /*rebuild_budget=*/1);
      lgamma_tab_.Build(vbeta_, posts.num_tokens() + max_post_len_);
    }
  }

  GatherType GatherInit() const { return {}; }

  // Gather: lines 1-10 of Alg 2 — community counts for user vertices,
  // community-topic counts for time vertices.
  void Gather(const Graph& g, engine::VertexId v, engine::EdgeId e,
              GatherType* acc) const {
    const ColdVertex& vd = g.vertex_data(v);
    const ColdEdge& ed = g.edge_data(e);
    const int C = config_.num_communities;
    if (vd.is_user) {
      if (acc->empty()) acc->assign(static_cast<size_t>(C), 0);
      if (ed.type == ColdEdge::Type::kUserTime) {
        // Only the user-side endpoint gathers posts.
        if (g.src(e) == v) {
          for (text::PostId d : ed.posts) {
            (*acc)[static_cast<size_t>(
                state_->post_community[static_cast<size_t>(d)])]++;
          }
        }
      } else {
        // A user-user edge contributes s to its src and s' to its dst.
        if (g.src(e) == v) {
          (*acc)[static_cast<size_t>(
              state_->link_src_community[static_cast<size_t>(ed.link)])]++;
        } else {
          (*acc)[static_cast<size_t>(
              state_->link_dst_community[static_cast<size_t>(ed.link)])]++;
        }
      }
    } else {
      // Time vertex: count (c, k) pairs of incident posts.
      const int K = config_.num_topics;
      if (acc->empty()) acc->assign(static_cast<size_t>(C) * K, 0);
      if (ed.type == ColdEdge::Type::kUserTime) {
        for (text::PostId d : ed.posts) {
          int c = state_->post_community[static_cast<size_t>(d)];
          int k = state_->post_topic[static_cast<size_t>(d)];
          (*acc)[static_cast<size_t>(c) * K + k]++;
        }
      }
    }
  }

  // Apply: lines 12-17 of Alg 2 — write the rebuilt vertex-owned counters.
  void Apply(Graph* g, engine::VertexId v, const GatherType& acc) {
    const ColdVertex& vd = g->vertex_data(v);
    const int C = config_.num_communities;
    if (vd.is_user) {
      for (int c = 0; c < C; ++c) {
        int32_t value = acc.empty() ? 0 : acc[static_cast<size_t>(c)];
        state_->n_ic(vd.index, c).store(value, std::memory_order_relaxed);
      }
    } else {
      const int K = config_.num_topics;
      for (int c = 0; c < C; ++c) {
        for (int k = 0; k < K; ++k) {
          int32_t value =
              acc.empty() ? 0 : acc[static_cast<size_t>(c) * K + k];
          state_->n_ckt(c, k, vd.index)
              .store(value, std::memory_order_relaxed);
        }
      }
    }
  }

  // Scatter: lines 19-26 of Alg 2 — draw new assignments.
  void Scatter(Graph* g, engine::EdgeId e, engine::WorkerContext* ctx) {
    ColdEdge& ed = g->edge_data(e);
    Scratch& scratch = GetScratch(ctx->worker_index);
    if (legacy_) {
      if (ed.type == ColdEdge::Type::kUserTime) {
        for (text::PostId d : ed.posts) {
          SamplePostCommunity(d, &scratch, ctx->sampler);
          SamplePostTopic(d, &scratch, ctx->sampler);
        }
      } else if (use_network_) {
        SampleLink(ed.link, &scratch, ctx->sampler);
      }
      return;
    }
    int32_t* delta = state_->delta(ctx->worker_index);
    if (ed.type == ColdEdge::Type::kUserTime) {
      for (text::PostId d : ed.posts) {
        SamplePostDelta(d, delta, &scratch, ctx->sampler);
      }
    } else if (use_network_) {
      SampleLinkDelta(ed.link, delta, &scratch, ctx->sampler);
    }
  }

  /// Delta mode setup, run after apply under the superstep barrier: the
  /// canonical counters are final for this superstep, so rebuild the
  /// derived log/lgamma caches from them and make sure every pool worker
  /// has a delta buffer.
  void PreScatter(cold::ThreadPool* pool) {
    if (legacy_) return;
    state_->EnsureDeltaBuffers(pool->num_threads());
    RebuildDerivedCaches(pool);
  }

  /// Superstep-boundary reduction: folds every worker's delta buffer into
  /// the canonical tables (striped across the pool; each cell is summed
  /// over workers in fixed order, so the merged counts are deterministic)
  /// and flushes the per-worker clamp tallies to the registry counter.
  void PostScatter(cold::ThreadPool* pool) {
    int64_t clamps = 0;
    for (Scratch& s : scratch_) {
      clamps += s.clamps;
      s.clamps = 0;
    }
    if (clamps > 0) Metrics().stale_clamps->Increment(clamps);
    if (legacy_ || defer_merge_) return;
    COLD_TRACE_SPAN("parallel/merge");
    const size_t n = state_->delta_size();
    pool->ParallelFor(n, [this](size_t begin, size_t end, size_t) {
      state_->MergeDeltaRange(begin, end);
    });
  }

  void PostSuperstep(Graph*, int) {}

  /// \brief Distributed mode: leave scattered deltas in the per-worker
  /// buffers at the superstep boundary instead of merging them, so the
  /// trainer can drain them into the node's exchange payload
  /// (RunSuperstepSharded). Delta mode only.
  void set_defer_delta_merge(bool defer) { defer_merge_ = defer; }

  /// Work units: tokens plus per-post sampling cost for post edges; the
  /// link-table cost for link edges (the vertex weights of
  /// ComputeChunkOwners' greedy placement).
  int64_t EdgeWorkUnits(engine::EdgeId e) const {
    const ColdEdge& ed = graph_->edge_data(e);
    const int64_t C = config_.num_communities;
    const int64_t K = config_.num_topics;
    if (ed.type == ColdEdge::Type::kUserTime) {
      int64_t units = 0;
      for (text::PostId d : ed.posts) {
        units += posts_.length(d) + C + K;
      }
      return units;
    }
    return 2 * C;
  }

 private:
  struct Scratch {
    std::vector<double> weights_c;
    std::vector<double> log_weights_k;
    /// Negative-count clamps observed by this worker since the last flush
    /// (PostScatter). Kept worker-local so the hot path never touches a
    /// shared counter.
    int64_t clamps = 0;
  };

  Scratch& GetScratch(size_t worker) {
    Scratch& s = scratch_[worker];
    if (s.weights_c.empty()) {
      s.weights_c.resize(static_cast<size_t>(config_.num_communities));
      s.log_weights_k.resize(static_cast<size_t>(config_.num_topics));
    }
    return s;
  }

  /// Floors a count at zero, tallying the clamp (stale-count observability;
  /// see cold/parallel/stale_clamp_total).
  static double ClampNonNeg(double v, Scratch* scratch) {
    if (v < 0.0) {
      scratch->clamps++;
      return 0.0;
    }
    return v;
  }

  /// \brief Rebuilds the derived-value caches from the canonical counters
  /// (the parallel analogue of the serial sampler's RebuildDerivedTables).
  /// Runs under the superstep barrier while the counters are stable; only
  /// the K*V word-log table is big enough to parallelize.
  void RebuildDerivedCaches(cold::ThreadPool* pool) {
    COLD_TRACE_SPAN("parallel/cache_rebuild");
    const int C = config_.num_communities;
    const int K = config_.num_topics;
    const int T = posts_.num_time_slices();
    const int V = state_->V();
    const double epsilon = config_.epsilon;
    for (int c = 0; c < C; ++c) {
      for (int k = 0; k < K; ++k) {
        const double n_ck = state_->r_n_ck(c, k);
        const double n_c = state_->r_n_c(c);
        // Transposed [k*C + c]: the community kernel scans c for a fixed k.
        comm_factor_[static_cast<size_t>(k) * C + c] =
            (n_ck + alpha_) / ((n_c + kalpha_) * (n_ck + teps_));
        topic_ck_[static_cast<size_t>(c) * K + k] =
            std::log(n_ck + alpha_) - std::log(n_ck + teps_);
        // Transposed [(c*T + t)*K + k]: the topic kernel scans k for a
        // fixed (c, t).
        for (int t = 0; t < T; ++t) {
          log_nckt_eps_[(static_cast<size_t>(c) * T + t) * K + k] =
              std::log(state_->r_n_ckt(c, k, t) + epsilon);
        }
      }
    }
    // Transposed [v*K + k]: the word loop adds one contiguous K-row per
    // token instead of K scattered loads — the hottest reads of the topic
    // kernel.
    pool->ParallelFor(static_cast<size_t>(V),
                      [this, K](size_t begin, size_t end, size_t) {
                        for (size_t v = begin; v < end; ++v) {
                          for (int k = 0; k < K; ++k) {
                            log_nkv_beta_[v * K + k] = std::log(
                                state_->r_n_kv(k, static_cast<int>(v)) +
                                config_.beta);
                          }
                        }
                      });
    // Length-denominator table, transposed [len*K + k]: log ascending
    // factorial of (n_k + V*beta) over `len` steps, built incrementally so
    // the whole table costs one log per cell. Makes the per-post length
    // term a contiguous K-row lookup for every topic except the post's own.
    for (int k = 0; k < K; ++k) {
      const double base = state_->r_n_k(k) + vbeta_;
      lgamma_nk_vbeta_[k] = cold::LGamma(base);
      double acc = 0.0;
      denom_[static_cast<size_t>(k)] = 0.0;
      for (int len = 1; len <= max_post_len_; ++len) {
        acc += std::log(base + (len - 1));
        denom_[static_cast<size_t>(len) * K + k] = acc;
      }
    }
    if (use_network_) {
      const double lambda1 = config_.lambda1;
      for (int c = 0; c < C; ++c) {
        for (int c2 = 0; c2 < C; ++c2) {
          const double n = state_->r_n_cc(c, c2);
          const double w = (n + lambda1) / (n + lambda0_ + lambda1);
          // Row-major for the s'|s scan (fixed src community s1), column-
          // major copy for the s|s' scan (fixed dst community s').
          w_link_[static_cast<size_t>(c) * C + c2] = w;
          w_link_in_[static_cast<size_t>(c2) * C + c] = w;
        }
      }
    }
    // Sparse path: rebuild every (c, t) alias row from the same frozen
    // counters. Rows are independent, so the rebuild parallelizes freely
    // and the result is identical at any worker count.
    if (sparse_) {
      pool->ParallelFor(
          static_cast<size_t>(C) * static_cast<size_t>(T),
          [this, T, K, epsilon](size_t begin, size_t end, size_t) {
            std::vector<double> wts(static_cast<size_t>(K));
            for (size_t r = begin; r < end; ++r) {
              const int c = static_cast<int>(r / static_cast<size_t>(T));
              const int t = static_cast<int>(r % static_cast<size_t>(T));
              for (int k = 0; k < K; ++k) {
                const double nck = state_->r_n_ck(c, k);
                wts[static_cast<size_t>(k)] =
                    (nck + alpha_) *
                    (state_->r_n_ckt(c, k, t) + epsilon) / (nck + teps_);
              }
              alias_bank_.RebuildRow(c, t, wts);
            }
          });
    }
  }

  // Eq. (1) with own-contribution exclusion against shared counters.
  void SamplePostCommunity(text::PostId d, Scratch* scratch,
                           cold::RandomSampler* sampler) {
    const int C = config_.num_communities;
    const double epsilon = config_.epsilon;
    const int c0 = state_->post_community[static_cast<size_t>(d)];
    const int k = state_->post_topic[static_cast<size_t>(d)];
    const int t = posts_.time(d);
    const text::UserId i = posts_.author(d);

    for (int c = 0; c < C; ++c) {
      int own = (c == c0) ? 1 : 0;
      double n_ick = state_->r_n_ic(i, c) - own;
      double n_ck = state_->r_n_ck(c, k) - own;
      double n_c = state_->r_n_c(c) - own;
      double n_ckt = state_->r_n_ckt(c, k, t) - own;
      // Stale counts can transiently dip below zero; clamp (and count).
      n_ick = ClampNonNeg(n_ick, scratch);
      n_ck = ClampNonNeg(n_ck, scratch);
      n_c = ClampNonNeg(n_c, scratch);
      n_ckt = ClampNonNeg(n_ckt, scratch);
      scratch->weights_c[static_cast<size_t>(c)] =
          (n_ick + rho_) * ((n_ck + alpha_) / (n_c + kalpha_)) *
          ((n_ckt + epsilon) / (n_ck + teps_));
    }
    int c1 = sampler->Categorical(scratch->weights_c);
    if (c1 != c0) {
      state_->post_community[static_cast<size_t>(d)] =
          static_cast<int32_t>(c1);
      state_->n_ic(i, c0).fetch_sub(1, std::memory_order_relaxed);
      state_->n_ic(i, c1).fetch_add(1, std::memory_order_relaxed);
      state_->n_ck(c0, k).fetch_sub(1, std::memory_order_relaxed);
      state_->n_ck(c1, k).fetch_add(1, std::memory_order_relaxed);
      state_->n_c(c0).fetch_sub(1, std::memory_order_relaxed);
      state_->n_c(c1).fetch_add(1, std::memory_order_relaxed);
      state_->n_ckt(c0, k, t).fetch_sub(1, std::memory_order_relaxed);
      state_->n_ckt(c1, k, t).fetch_add(1, std::memory_order_relaxed);
    }
  }

  // Eq. (3) with own-contribution exclusion.
  void SamplePostTopic(text::PostId d, Scratch* scratch,
                       cold::RandomSampler* sampler) {
    const int K = config_.num_topics;
    const double beta = config_.beta;
    const double epsilon = config_.epsilon;
    const int c = state_->post_community[static_cast<size_t>(d)];
    const int k0 = state_->post_topic[static_cast<size_t>(d)];
    const int t = posts_.time(d);
    const int len = posts_.length(d);

    const auto word_pairs = posts_.word_pairs(d);

    // Same lgamma-collapsed form as the serial TopicLogWeights; here the
    // counters are shared atomics so the log terms are computed live, but
    // the ascending-factorial loops still collapse to lgamma pairs.
    for (int k = 0; k < K; ++k) {
      int own = (k == k0) ? 1 : 0;
      double n_ck = ClampNonNeg(state_->r_n_ck(c, k) - own, scratch);
      double n_ckt = ClampNonNeg(state_->r_n_ckt(c, k, t) - own, scratch);
      double lw = std::log(n_ck + alpha_) +
                  std::log((n_ckt + epsilon) / (n_ck + teps_));
      for (const auto& [w, cnt] : word_pairs) {
        double base =
            ClampNonNeg(state_->r_n_kv(k, w) - own * cnt, scratch) + beta;
        lw += cold::LogAscendingFactorial(base, cnt);
      }
      double denom =
          ClampNonNeg(state_->r_n_k(k) - own * len, scratch) + vbeta_;
      lw -= cold::LogAscendingFactorial(denom, len);
      scratch->log_weights_k[static_cast<size_t>(k)] = lw;
    }
    int k1 = sampler->LogCategorical(scratch->log_weights_k);
    if (k1 != k0) {
      state_->post_topic[static_cast<size_t>(d)] = static_cast<int32_t>(k1);
      state_->n_ck(c, k0).fetch_sub(1, std::memory_order_relaxed);
      state_->n_ck(c, k1).fetch_add(1, std::memory_order_relaxed);
      state_->n_ckt(c, k0, t).fetch_sub(1, std::memory_order_relaxed);
      state_->n_ckt(c, k1, t).fetch_add(1, std::memory_order_relaxed);
      for (text::WordId w : posts_.words(d)) {
        state_->n_kv(k0, w).fetch_sub(1, std::memory_order_relaxed);
        state_->n_kv(k1, w).fetch_add(1, std::memory_order_relaxed);
      }
      state_->n_k(k0).fetch_sub(len, std::memory_order_relaxed);
      state_->n_k(k1).fetch_add(len, std::memory_order_relaxed);
    }
  }

  // Eq. (2), alternating conditionals (cheap and race-tolerant).
  void SampleLink(graph::EdgeId link, Scratch* scratch,
                  cold::RandomSampler* sampler) {
    const int C = config_.num_communities;
    const double lambda1 = config_.lambda1;
    const graph::Edge& edge = links_->edge(link);
    const int s0 = state_->link_src_community[static_cast<size_t>(link)];
    const int s20 = state_->link_dst_community[static_cast<size_t>(link)];

    // s | s'.
    for (int cc = 0; cc < C; ++cc) {
      int own = (cc == s0) ? 1 : 0;
      double n_ic =
          ClampNonNeg(state_->r_n_ic(edge.src, cc) - own, scratch);
      double n = ClampNonNeg(state_->r_n_cc(cc, s20) - own, scratch);
      scratch->weights_c[static_cast<size_t>(cc)] =
          (n_ic + rho_) * (n + lambda1) / (n + lambda0_ + lambda1);
    }
    int s1 = sampler->Categorical(scratch->weights_c);

    // s' | s (own contribution now sits at (s1, s20) only if s1 == s0).
    for (int cc = 0; cc < C; ++cc) {
      int own = (cc == s20) ? 1 : 0;
      double n_ic =
          ClampNonNeg(state_->r_n_ic(edge.dst, cc) - own, scratch);
      int own_pair = (s1 == s0 && cc == s20) ? 1 : 0;
      double n = ClampNonNeg(state_->r_n_cc(s1, cc) - own_pair, scratch);
      scratch->weights_c[static_cast<size_t>(cc)] =
          (n_ic + rho_) * (n + lambda1) / (n + lambda0_ + lambda1);
    }
    int s21 = sampler->Categorical(scratch->weights_c);

    if (s1 != s0) {
      state_->link_src_community[static_cast<size_t>(link)] =
          static_cast<int32_t>(s1);
      state_->n_ic(edge.src, s0).fetch_sub(1, std::memory_order_relaxed);
      state_->n_ic(edge.src, s1).fetch_add(1, std::memory_order_relaxed);
    }
    if (s21 != s20) {
      state_->link_dst_community[static_cast<size_t>(link)] =
          static_cast<int32_t>(s21);
      state_->n_ic(edge.dst, s20).fetch_sub(1, std::memory_order_relaxed);
      state_->n_ic(edge.dst, s21).fetch_add(1, std::memory_order_relaxed);
    }
    if (s1 != s0 || s21 != s20) {
      state_->n_cc(s0, s20).fetch_sub(1, std::memory_order_relaxed);
      state_->n_cc(s1, s21).fetch_add(1, std::memory_order_relaxed);
    }
  }

  // Eqs. (1)+(3) in delta mode. The canonical counters are frozen at their
  // pre-superstep values, so this post's own contribution sits exactly at
  // its frozen assignment (c0, k0): exclusion is exact (no clamps can fire)
  // and every term not involving (c0, k0) comes from the per-superstep
  // caches instead of live logs. Updates go to the worker's delta buffer.
  void SamplePostDelta(text::PostId d, int32_t* delta, Scratch* scratch,
                       cold::RandomSampler* sampler) {
    const int C = config_.num_communities;
    const int K = config_.num_topics;
    const int T = posts_.num_time_slices();
    const double beta = config_.beta;
    const double epsilon = config_.epsilon;
    const int c0 = state_->post_community[static_cast<size_t>(d)];
    const int k0 = state_->post_topic[static_cast<size_t>(d)];
    const int t = posts_.time(d);
    const int len = posts_.length(d);
    const text::UserId i = posts_.author(d);

    // --- community draw, Eq. (1) ---
    const double* comm_row = &comm_factor_[static_cast<size_t>(k0) * C];
    for (int c = 0; c < C; ++c) {
      scratch->weights_c[static_cast<size_t>(c)] =
          (state_->r_n_ic(i, c) + rho_) * comm_row[c] *
          (state_->r_n_ckt(c, k0, t) + epsilon);
    }
    {
      // Own-contribution fixup at c0; frozen counts make the exclusion
      // exact.
      double n_ick = ClampNonNeg(state_->r_n_ic(i, c0) - 1, scratch);
      double n_ck = ClampNonNeg(state_->r_n_ck(c0, k0) - 1, scratch);
      double n_c = ClampNonNeg(state_->r_n_c(c0) - 1, scratch);
      double n_ckt = ClampNonNeg(state_->r_n_ckt(c0, k0, t) - 1, scratch);
      scratch->weights_c[static_cast<size_t>(c0)] =
          (n_ick + rho_) * ((n_ck + alpha_) / (n_c + kalpha_)) *
          ((n_ckt + epsilon) / (n_ck + teps_));
    }
    const int c1 = sampler->Categorical(scratch->weights_c);
    if (c1 != c0) {
      state_->post_community[static_cast<size_t>(d)] =
          static_cast<int32_t>(c1);
      delta[state_->dx_n_ic(i, c0)]--;
      delta[state_->dx_n_ic(i, c1)]++;
      delta[state_->dx_n_ck(c0, k0)]--;
      delta[state_->dx_n_ck(c1, k0)]++;
      delta[state_->dx_n_c(c0)]--;
      delta[state_->dx_n_c(c1)]++;
      delta[state_->dx_n_ckt(c0, k0, t)]--;
      delta[state_->dx_n_ckt(c1, k0, t)]++;
    }

    // --- topic draw, Eq. (3), conditioned on the fresh community ---
    // (The frozen (c, k) cell contains this post only when the community
    // draw kept c0; the frozen word/length counts contain it at k0 always.)
    const auto word_pairs = posts_.word_pairs(d);

    // Exact own-excluded log-weight at the post's frozen topic k0, all
    // terms recomputed live against the frozen counters.
    auto eval_own = [&]() -> double {
      double own;
      if (c1 == c0) {
        double n_ck = ClampNonNeg(state_->r_n_ck(c1, k0) - 1, scratch);
        double n_ckt = ClampNonNeg(state_->r_n_ckt(c1, k0, t) - 1, scratch);
        own = std::log(n_ck + alpha_) +
              std::log((n_ckt + epsilon) / (n_ck + teps_));
      } else {
        own = topic_ck_[static_cast<size_t>(c1) * K + k0] +
              log_nckt_eps_[(static_cast<size_t>(c1) * T + t) * K + k0];
      }
      for (const auto& [w, cnt] : word_pairs) {
        double base =
            ClampNonNeg(state_->r_n_kv(k0, w) - cnt, scratch) + beta;
        own += cold::LogAscendingFactorial(base, cnt);
      }
      if (sparse_) {
        // Own-excluded denominator via two lgamma-table reads.
        int64_t nk = state_->r_n_k(k0) - len;
        if (nk < 0) {
          scratch->clamps++;
          nk = 0;
        }
        own -= lgamma_tab_.LogAscFactorial(nk, len);
      } else {
        // Denominator with own words removed: lgamma(n_k + Vbeta) is
        // cached, leaving a single live lgamma per post.
        double base = ClampNonNeg(state_->r_n_k(k0) - len, scratch) + vbeta_;
        own -=
            lgamma_nk_vbeta_[static_cast<size_t>(k0)] - cold::LGamma(base);
      }
      return own;
    };

    int k1;
    if (sparse_) {
      // Alias + MH: the per-superstep (c, t) alias row proposes from the
      // prior mass; each accept test evaluates the exact log-weight for
      // one topic in O(post length) via the frozen cache rows.
      auto eval_one = [&](int k) -> double {
        if (k == k0) return eval_own();
        double v = topic_ck_[static_cast<size_t>(c1) * K + k] +
                   log_nckt_eps_[(static_cast<size_t>(c1) * T + t) * K + k] -
                   denom_[static_cast<size_t>(len) * K + k];
        for (const auto& [w, cnt] : word_pairs) {
          if (cnt == 1) {
            v += log_nkv_beta_[static_cast<size_t>(w) * K + k];
          } else {
            v += cold::LogAscendingFactorial(state_->r_n_kv(k, w) + beta,
                                             cnt);
          }
        }
        return v;
      };
      k1 = MhTopicDraw(alias_bank_.Row(c1, t), k0, sparse_mh_steps_,
                       *sampler, eval_one);
    } else {
      // Dense scan: all topics take the cached path first — every read is
      // a contiguous K-row, vectorized (util/simd.h; the AVX2 and scalar
      // forms are bit-identical) — then k0 is overwritten with the live
      // own-excluded value.
      double* lw = scratch->log_weights_k.data();
      const size_t nk = static_cast<size_t>(K);
      simd::AddSubRows(&topic_ck_[static_cast<size_t>(c1) * K],
                       &log_nckt_eps_[(static_cast<size_t>(c1) * T + t) * K],
                       &denom_[static_cast<size_t>(len) * K], lw, nk);
      for (const auto& [w, cnt] : word_pairs) {
        if (cnt == 1) {
          simd::Accumulate(lw, &log_nkv_beta_[static_cast<size_t>(w) * K],
                           nk);
        } else {
          for (int k = 0; k < K; ++k) {
            lw[k] += cold::LogAscendingFactorial(state_->r_n_kv(k, w) + beta,
                                                 cnt);
          }
        }
      }
      lw[k0] = eval_own();
      k1 = sampler->LogCategorical(scratch->log_weights_k);
    }
    if (k1 != k0) {
      state_->post_topic[static_cast<size_t>(d)] = static_cast<int32_t>(k1);
      // Composes with the community deltas above: the net over both draws
      // moves the post from (c0, k0) to (c1, k1).
      delta[state_->dx_n_ck(c1, k0)]--;
      delta[state_->dx_n_ck(c1, k1)]++;
      delta[state_->dx_n_ckt(c1, k0, t)]--;
      delta[state_->dx_n_ckt(c1, k1, t)]++;
      for (text::WordId w : posts_.words(d)) {
        delta[state_->dx_n_kv(k0, w)]--;
        delta[state_->dx_n_kv(k1, w)]++;
      }
      delta[state_->dx_n_k(k0)] -= len;
      delta[state_->dx_n_k(k1)] += len;
    }
  }

  // Eq. (2) in delta mode: same alternating conditionals as SampleLink, but
  // against frozen counts (exact own-exclusion) with the link weight ratio
  // (n_cc + l1) / (n_cc + l0 + l1) cached per community pair.
  void SampleLinkDelta(graph::EdgeId link, int32_t* delta, Scratch* scratch,
                       cold::RandomSampler* sampler) {
    const int C = config_.num_communities;
    const double lambda1 = config_.lambda1;
    const graph::Edge& edge = links_->edge(link);
    const int s0 = state_->link_src_community[static_cast<size_t>(link)];
    const int s20 = state_->link_dst_community[static_cast<size_t>(link)];

    // s | s': cached column of incoming-link ratios for fixed s', then the
    // own-contribution fixup at s0 (exact against frozen counts).
    const double* w_in = &w_link_in_[static_cast<size_t>(s20) * C];
    for (int cc = 0; cc < C; ++cc) {
      scratch->weights_c[static_cast<size_t>(cc)] =
          (state_->r_n_ic(edge.src, cc) + rho_) * w_in[cc];
    }
    {
      double n_ic = ClampNonNeg(state_->r_n_ic(edge.src, s0) - 1, scratch);
      double n = ClampNonNeg(state_->r_n_cc(s0, s20) - 1, scratch);
      scratch->weights_c[static_cast<size_t>(s0)] =
          (n_ic + rho_) * (n + lambda1) / (n + lambda0_ + lambda1);
    }
    const int s1 = sampler->Categorical(scratch->weights_c);

    // s' | s: cached row for fixed s, with fixups at the dst's own n_ic
    // cell (s20) and — only if the first draw kept s0 — the own n_cc cell.
    const double* w_out = &w_link_[static_cast<size_t>(s1) * C];
    for (int cc = 0; cc < C; ++cc) {
      scratch->weights_c[static_cast<size_t>(cc)] =
          (state_->r_n_ic(edge.dst, cc) + rho_) * w_out[cc];
    }
    {
      double n_ic = ClampNonNeg(state_->r_n_ic(edge.dst, s20) - 1, scratch);
      double n = ClampNonNeg(
          state_->r_n_cc(s1, s20) - (s1 == s0 ? 1 : 0), scratch);
      scratch->weights_c[static_cast<size_t>(s20)] =
          (n_ic + rho_) * (n + lambda1) / (n + lambda0_ + lambda1);
    }
    const int s21 = sampler->Categorical(scratch->weights_c);

    if (s1 != s0) {
      state_->link_src_community[static_cast<size_t>(link)] =
          static_cast<int32_t>(s1);
      delta[state_->dx_n_ic(edge.src, s0)]--;
      delta[state_->dx_n_ic(edge.src, s1)]++;
    }
    if (s21 != s20) {
      state_->link_dst_community[static_cast<size_t>(link)] =
          static_cast<int32_t>(s21);
      delta[state_->dx_n_ic(edge.dst, s20)]--;
      delta[state_->dx_n_ic(edge.dst, s21)]++;
    }
    if (s1 != s0 || s21 != s20) {
      delta[state_->dx_n_cc(s0, s20)]--;
      delta[state_->dx_n_cc(s1, s21)]++;
    }
  }

  const ColdConfig& config_;
  const text::PostStore& posts_;
  const graph::Digraph* links_;
  ParallelColdState* state_;
  const Graph* graph_;
  bool use_network_;
  bool legacy_;    // legacy shared-atomic mode (A/B baseline)
  bool defer_merge_ = false;  // distributed mode: skip the boundary merge
  double lambda0_;
  double rho_;     // resolved membership prior
  double alpha_;   // resolved topic prior
  double kalpha_;  // K * alpha
  double teps_;    // T * epsilon
  double vbeta_;   // V * beta
  std::vector<Scratch> scratch_;

  // Delta-mode derived caches, rebuilt once per superstep from the frozen
  // canonical counters (RebuildDerivedCaches). Layouts are transposed to
  // put the kernel's scan dimension innermost (see the rebuild comments).
  int max_post_len_ = 0;
  std::vector<double> comm_factor_;     // [k*C+c] (n_ck+a)/((n_c+Ka)(n_ck+Te))
  std::vector<double> topic_ck_;        // [c*K+k] log(n_ck+a) - log(n_ck+Te)
  std::vector<double> log_nckt_eps_;    // [(c*T+t)*K+k] log(n_ckt+e)
  std::vector<double> log_nkv_beta_;    // [v*K+k] log(n_kv+b)
  std::vector<double> lgamma_nk_vbeta_; // [k] lgamma(n_k+Vb)
  std::vector<double> denom_;           // [len*K+k] log asc. factorial table
  std::vector<double> w_link_;          // [c*C+c2] (n_cc+l1)/(n_cc+l0+l1)
  std::vector<double> w_link_in_;       // [c2*C+c] transposed copy

  // Sparse topic path (sparse_topic_kernel.h): per-(c, t) alias proposals
  // rebuilt every superstep from the frozen counters, and the lgamma table
  // the own-excluded length term reads. Delta mode only.
  bool sparse_ = false;
  int sparse_mh_steps_ = 2;
  TopicAliasBank alias_bank_;
  LGammaTable lgamma_tab_;
};

ParallelColdTrainer::ParallelColdTrainer(ColdConfig config,
                                         const text::PostStore& posts,
                                         const graph::Digraph* links,
                                         engine::EngineOptions engine_options)
    : config_(config),
      posts_(posts),
      links_(links),
      use_network_(config.use_network && links != nullptr &&
                   links->num_edges() > 0),
      engine_options_(engine_options) {}

ParallelColdTrainer::~ParallelColdTrainer() = default;

cold::Status ParallelColdTrainer::Init() {
  COLD_RETURN_NOT_OK(config_.Validate());
  if (!posts_.finalized()) {
    return cold::Status::FailedPrecondition("post store not finalized");
  }
  const int C = config_.num_communities;
  const int K = config_.num_topics;
  const int U = posts_.num_users();
  const int T = posts_.num_time_slices();
  int64_t num_links = use_network_ ? links_->num_edges() : 0;
  lambda0_ = use_network_ ? ComputeLambda0(config_, U, num_links)
                          : config_.lambda1;

  // Same vocab-size rule as the serial sampler: prefer the dataset-wide
  // vocabulary from config_.vocab_size over the training-split max word id,
  // which under-sizes n_kv/phi when held-out posts carry higher ids.
  int max_word = 0;
  for (text::PostId d = 0; d < posts_.num_posts(); ++d) {
    for (text::WordId w : posts_.words(d)) max_word = std::max(max_word, w + 1);
  }
  int vocab = max_word;
  if (config_.vocab_size > 0) {
    if (max_word > config_.vocab_size) {
      return cold::Status::InvalidArgument(
          "vocab_size " + std::to_string(config_.vocab_size) +
          " is smaller than max word id + 1 (" + std::to_string(max_word) +
          ")");
    }
    vocab = config_.vocab_size;
  }
  state_ = std::make_unique<ParallelColdState>(U, C, K, T, vocab,
                                               posts_.num_posts(), num_links);

  // Build the bipartite user-time graph plus user-user edges (Fig 4).
  graph_ = std::make_unique<Graph>();
  for (int i = 0; i < U; ++i) {
    graph_->AddVertex(ColdVertex{true, i});
  }
  for (int t = 0; t < T; ++t) {
    graph_->AddVertex(ColdVertex{false, t});
  }
  // Group each user's posts by time slice.
  for (int i = 0; i < U; ++i) {
    // Time slices are few; a local map via sort keeps this allocation-light.
    auto user_posts = posts_.posts_of(i);
    std::vector<text::PostId> sorted(user_posts.begin(), user_posts.end());
    std::sort(sorted.begin(), sorted.end(),
              [this](text::PostId a, text::PostId b) {
                return posts_.time(a) < posts_.time(b);
              });
    size_t p = 0;
    while (p < sorted.size()) {
      text::TimeSlice t = posts_.time(sorted[p]);
      ColdEdge edge;
      edge.type = ColdEdge::Type::kUserTime;
      while (p < sorted.size() && posts_.time(sorted[p]) == t) {
        edge.posts.push_back(sorted[p]);
        ++p;
      }
      graph_->AddEdge(static_cast<engine::VertexId>(i),
                      static_cast<engine::VertexId>(U + t), std::move(edge));
    }
  }
  if (use_network_) {
    for (graph::EdgeId e = 0; e < links_->num_edges(); ++e) {
      ColdEdge edge;
      edge.type = ColdEdge::Type::kUserUser;
      edge.link = e;
      graph_->AddEdge(static_cast<engine::VertexId>(links_->edge(e).src),
                      static_cast<engine::VertexId>(links_->edge(e).dst),
                      std::move(edge));
    }
  }
  graph_->Finalize();

  // Random initial assignments + counter build (serial; cheap).
  cold::RandomSampler init_sampler(config_.seed, /*stream=*/5);
  for (text::PostId d = 0; d < posts_.num_posts(); ++d) {
    int c = static_cast<int>(init_sampler.UniformInt(static_cast<uint32_t>(C)));
    int k = static_cast<int>(init_sampler.UniformInt(static_cast<uint32_t>(K)));
    state_->post_community[static_cast<size_t>(d)] = c;
    state_->post_topic[static_cast<size_t>(d)] = k;
    text::UserId i = posts_.author(d);
    state_->n_ic(i, c).fetch_add(1, std::memory_order_relaxed);
    state_->n_i(i).fetch_add(1, std::memory_order_relaxed);
    state_->n_ck(c, k).fetch_add(1, std::memory_order_relaxed);
    state_->n_c(c).fetch_add(1, std::memory_order_relaxed);
    state_->n_ckt(c, k, posts_.time(d)).fetch_add(1, std::memory_order_relaxed);
    for (text::WordId w : posts_.words(d)) {
      state_->n_kv(k, w).fetch_add(1, std::memory_order_relaxed);
    }
    state_->n_k(k).fetch_add(posts_.length(d), std::memory_order_relaxed);
  }
  if (use_network_) {
    for (graph::EdgeId e = 0; e < links_->num_edges(); ++e) {
      int s = static_cast<int>(
          init_sampler.UniformInt(static_cast<uint32_t>(C)));
      int s2 = static_cast<int>(
          init_sampler.UniformInt(static_cast<uint32_t>(C)));
      state_->link_src_community[static_cast<size_t>(e)] = s;
      state_->link_dst_community[static_cast<size_t>(e)] = s2;
      const graph::Edge& edge = links_->edge(e);
      state_->n_ic(edge.src, s).fetch_add(1, std::memory_order_relaxed);
      state_->n_i(edge.src).fetch_add(1, std::memory_order_relaxed);
      state_->n_ic(edge.dst, s2).fetch_add(1, std::memory_order_relaxed);
      state_->n_i(edge.dst).fetch_add(1, std::memory_order_relaxed);
      state_->n_cc(s, s2).fetch_add(1, std::memory_order_relaxed);
    }
  }

  program_ = std::make_unique<ColdVertexProgram>(
      config_, posts_, links_, state_.get(), graph_.get(), use_network_,
      lambda0_, engine_options_.legacy_shared_counters);
  engine_ = std::make_unique<
      engine::GasEngine<ColdVertex, ColdEdge, ColdVertexProgram>>(
      graph_.get(), program_.get(), engine_options_);
  supersteps_run_ = 0;
  initialized_ = true;
  return cold::Status::OK();
}

cold::Status ParallelColdTrainer::Train() {
  if (!initialized_) {
    return cold::Status::FailedPrecondition("call Init() before Train()");
  }
  int64_t total_tokens = 0;
  for (text::PostId d = 0; d < posts_.num_posts(); ++d) {
    total_tokens += posts_.length(d);
  }
  // One engine iteration at a time (respecting the execution mode) so the
  // per-superstep observer sees every boundary. Resume-aware: a trainer
  // restored from a checkpoint runs only the remaining supersteps.
  while (supersteps_run_ < config_.iterations) {
    double superstep_seconds = 0.0;
    {
      cold::ScopedTimer timer(superstep_seconds);
      engine_->Run(1);
    }
    supersteps_run_++;
    ParallelMetrics& metrics = Metrics();
    metrics.supersteps->Increment();
    metrics.superstep_seconds->Set(superstep_seconds);
    if (superstep_seconds > 0.0) {
      metrics.tokens_per_second->Set(static_cast<double>(total_tokens) /
                                     superstep_seconds);
    }
    if (superstep_callback_) superstep_callback_(supersteps_run_);
    // After the callback — the superstep-barrier checkpoint must be durable
    // before the injected crash fires.
    cold::FaultInjector::Global().MaybeCrash("after_sweep", supersteps_run_);
  }
  return cold::Status::OK();
}

void ParallelColdTrainer::RunSuperstep() {
  engine_->RunSuperstep();
  supersteps_run_++;
}

int64_t ParallelColdTrainer::NumScatterChunks() const {
  return engine_ != nullptr ? engine_->num_scatter_chunks() : 0;
}

size_t ParallelColdTrainer::DeltaTableSize() const {
  return state_ != nullptr ? state_->delta_size() : 0;
}

std::vector<int32_t> ParallelColdTrainer::ComputeChunkOwners(
    int num_nodes) const {
  // Each edge's work units are charged to its source vertex (edges run on
  // their source's node).
  std::vector<int64_t> vertex_work(
      static_cast<size_t>(graph_->num_vertices()), 0);
  const int64_t num_edges = graph_->num_edges();
  for (engine::EdgeId e = 0; e < num_edges; ++e) {
    vertex_work[static_cast<size_t>(graph_->src(e))] +=
        program_->EdgeWorkUnits(e);
  }
  std::vector<int> vertex_node =
      engine::GreedyAssignment(*graph_, num_nodes, vertex_work);

  // Lift vertex placement to whole scatter chunks (the RNG-stream unit) by
  // work-unit plurality over each chunk's edges; ties go to the lowest node
  // id so every node derives the identical table.
  const int64_t num_chunks = NumScatterChunks();
  std::vector<int32_t> owners(static_cast<size_t>(num_chunks), 0);
  std::vector<int64_t> node_work(static_cast<size_t>(num_nodes), 0);
  for (int64_t chunk = 0; chunk < num_chunks; ++chunk) {
    std::fill(node_work.begin(), node_work.end(), 0);
    const int64_t stop =
        std::min(num_edges, (chunk + 1) * engine::kScatterChunkEdges);
    for (int64_t e = chunk * engine::kScatterChunkEdges; e < stop; ++e) {
      const int node = vertex_node[static_cast<size_t>(graph_->src(e))];
      // +1 so zero-work edges still vote for their node.
      node_work[static_cast<size_t>(node)] += program_->EdgeWorkUnits(e) + 1;
    }
    int best = 0;
    for (int n = 1; n < num_nodes; ++n) {
      if (node_work[static_cast<size_t>(n)] >
          node_work[static_cast<size_t>(best)]) {
        best = n;
      }
    }
    owners[static_cast<size_t>(chunk)] = best;
  }
  return owners;
}

cold::Status ParallelColdTrainer::RunSuperstepSharded(
    const std::vector<uint8_t>& chunk_mask, SuperstepUpdate* out) {
  if (!initialized_) {
    return cold::Status::FailedPrecondition(
        "call Init() before RunSuperstepSharded()");
  }
  if (engine_options_.legacy_shared_counters) {
    return cold::Status::FailedPrecondition(
        "distributed execution requires the delta-table mode "
        "(legacy_shared_counters must be off)");
  }
  if (static_cast<int64_t>(chunk_mask.size()) != NumScatterChunks()) {
    return cold::Status::InvalidArgument(
        "chunk mask covers " + std::to_string(chunk_mask.size()) +
        " chunks, engine has " + std::to_string(NumScatterChunks()));
  }
  prev_post_community_ = state_->post_community;
  prev_post_topic_ = state_->post_topic;
  prev_link_src_community_ = state_->link_src_community;
  prev_link_dst_community_ = state_->link_dst_community;

  program_->set_defer_delta_merge(true);
  engine_->set_scatter_chunk_mask(&chunk_mask);
  engine_->RunSuperstep();
  engine_->set_scatter_chunk_mask(nullptr);
  program_->set_defer_delta_merge(false);

  state_->DrainDeltas(&out->count_deltas);
  out->post_updates.clear();
  out->link_updates.clear();
  for (size_t d = 0; d < prev_post_community_.size(); ++d) {
    if (state_->post_community[d] != prev_post_community_[d] ||
        state_->post_topic[d] != prev_post_topic_[d]) {
      out->post_updates.push_back({static_cast<int32_t>(d),
                                   state_->post_community[d],
                                   state_->post_topic[d]});
    }
  }
  for (size_t l = 0; l < prev_link_src_community_.size(); ++l) {
    if (state_->link_src_community[l] != prev_link_src_community_[l] ||
        state_->link_dst_community[l] != prev_link_dst_community_[l]) {
      out->link_updates.push_back({static_cast<int32_t>(l),
                                   state_->link_src_community[l],
                                   state_->link_dst_community[l]});
    }
  }
  return cold::Status::OK();
}

cold::Status ParallelColdTrainer::ApplyGlobalUpdate(
    const SuperstepUpdate& update) {
  if (!initialized_) {
    return cold::Status::FailedPrecondition(
        "call Init() before ApplyGlobalUpdate()");
  }
  COLD_RETURN_NOT_OK(state_->ApplyDeltaEntries(update.count_deltas));
  const auto num_posts = static_cast<int32_t>(state_->post_community.size());
  for (const auto& [d, c, k] : update.post_updates) {
    if (d < 0 || d >= num_posts || c < 0 || c >= config_.num_communities ||
        k < 0 || k >= config_.num_topics) {
      return cold::Status::OutOfRange("post update out of range");
    }
    state_->post_community[static_cast<size_t>(d)] = c;
    state_->post_topic[static_cast<size_t>(d)] = k;
  }
  const auto num_links =
      static_cast<int32_t>(state_->link_src_community.size());
  for (const auto& [l, s, s2] : update.link_updates) {
    if (l < 0 || l >= num_links || s < 0 || s >= config_.num_communities ||
        s2 < 0 || s2 >= config_.num_communities) {
      return cold::Status::OutOfRange("link update out of range");
    }
    state_->link_src_community[static_cast<size_t>(l)] = s;
    state_->link_dst_community[static_cast<size_t>(l)] = s2;
  }
  supersteps_run_++;
  return cold::Status::OK();
}

std::vector<cold::RngState> ParallelColdTrainer::EngineSamplerStates() const {
  return engine_->SamplerStates();
}

cold::Status ParallelColdTrainer::EngineRestoreSamplerStates(
    const std::vector<cold::RngState>& states) {
  return engine_->RestoreSamplerStates(states);
}

void ParallelColdTrainer::EngineSetSuperstepIndex(int64_t index) {
  engine_->set_superstep_index(index);
}

ColdEstimates ParallelColdTrainer::Estimates() const {
  ColdState snapshot = state_->ToColdState();
  return ExtractEstimates(snapshot, config_, lambda0_);
}

ColdState ParallelColdTrainer::StateSnapshot() const {
  return state_->ToColdState();
}

const engine::EngineStats& ParallelColdTrainer::engine_stats() const {
  static const engine::EngineStats kEmpty;
  return engine_ != nullptr ? engine_->stats() : kEmpty;
}

}  // namespace cold::core
