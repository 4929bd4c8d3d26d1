#include "core/parallel_sampler.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

#include "core/gibbs_sampler.h"
#include "core/sparse_topic_kernel.h"
#include "engine/partitioner.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/fault_injector.h"
#include "util/math_util.h"
#include "util/rng.h"
#include "util/simd.h"
#include "util/stopwatch.h"

namespace cold::core {

/// \brief Edge payload: a user-time edge owns the posts of (user, t); a
/// user-user edge owns one interaction link.
struct ColdEdge {
  enum class Type : uint8_t { kUserTime, kUserUser };
  Type type = Type::kUserTime;
  std::vector<text::PostId> posts;  // kUserTime
  graph::EdgeId link = -1;          // kUserUser
};

namespace {

/// Registry handles for the trainer's telemetry, cached once. The
/// cold/engine/* entries receive the same deltas as EngineStats; the
/// cold/parallel/* ones mirror the serial sampler's cold/gibbs/* gauges.
/// stale_clamp_total counts every negative-count clamp in the sampling
/// kernels. The kernels read frozen counts whose own-contribution exclusion
/// is exact, so it must read zero; anything else means the frozen-count
/// contract was broken.
struct ParallelMetrics {
  obs::Gauge* scatter_seconds;
  obs::Gauge* merge_seconds;
  obs::Counter* engine_supersteps;
  obs::Counter* supersteps;
  obs::Gauge* superstep_seconds;
  obs::Gauge* tokens_per_second;
  obs::Counter* stale_clamps;
};

ParallelMetrics& Metrics() {
  auto& registry = obs::Registry::Global();
  static ParallelMetrics metrics{
      registry.GetGauge("cold/engine/scatter_seconds"),
      registry.GetGauge("cold/engine/merge_seconds"),
      registry.GetCounter("cold/engine/supersteps"),
      registry.GetCounter("cold/parallel/supersteps"),
      registry.GetGauge("cold/parallel/superstep_seconds"),
      registry.GetGauge("cold/parallel/tokens_per_second"),
      registry.GetCounter("cold/parallel/stale_clamp_total")};
  return metrics;
}

/// Pool size: threads_per_node, capped at the host's hardware concurrency
/// unless `oversubscribe` is set.
size_t PoolThreads(const engine::EngineOptions& options) {
  const size_t want =
      static_cast<size_t>(std::max(1, options.threads_per_node));
  if (options.oversubscribe) return want;
  const size_t hw =
      std::max<size_t>(1, std::thread::hardware_concurrency());
  return std::min(want, hw);
}

/// Work units: tokens plus per-post sampling cost for post edges; the
/// link-table cost for link edges (the vertex weights of
/// ComputeChunkOwners' greedy placement).
int64_t EdgeWorkUnits(const ColdEdge& edge, const text::PostStore& posts,
                      int64_t C, int64_t K) {
  if (edge.type == ColdEdge::Type::kUserTime) {
    int64_t units = 0;
    for (text::PostId d : edge.posts) units += posts.length(d) + C + K;
    return units;
  }
  return 2 * C;
}

}  // namespace

/// \brief The scatter half of Alg 2: the derived caches of the frozen
/// counts, and the per-edge draws that record their count updates in the
/// drawing worker's delta buffer. See parallel_sampler.h's file header.
class ScatterKernel {
 public:
  ScatterKernel(const ColdConfig& config, const text::PostStore& posts,
                const graph::Digraph* links, ParallelColdState* state,
                bool use_network, double lambda0, size_t num_workers)
      : config_(config),
        posts_(posts),
        links_(links),
        state_(state),
        use_network_(use_network),
        lambda0_(lambda0),
        // Derived prior constants hoisted once — the scatter kernels run per
        // token per superstep and should not re-resolve them.
        rho_(config.ResolvedRho()),
        alpha_(config.ResolvedAlpha()),
        kalpha_(config.num_topics * config.ResolvedAlpha()),
        teps_(posts.num_time_slices() * config.epsilon),
        vbeta_(state->V() * config.beta),
        scratch_(num_workers) {
    const size_t C = static_cast<size_t>(config.num_communities);
    const size_t K = static_cast<size_t>(config.num_topics);
    const size_t T = static_cast<size_t>(posts.num_time_slices());
    const size_t V = static_cast<size_t>(state->V());
    for (Scratch& s : scratch_) {
      s.weights_c.resize(C);
      s.log_weights_k.resize(K);
    }
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
    // eagerly from the frozen counters each superstep, so their content is
    // independent of worker count), and the integer-indexed lgamma table
    // serves the single-topic MH evaluations.
    sparse_ = config.UseSparseTopicSampling();
    if (sparse_) {
      alias_bank_.Reset(static_cast<int>(C), static_cast<int>(T),
                        static_cast<int>(K), /*rebuild_budget=*/1);
      lgamma_tab_.Build(vbeta_, posts.num_tokens() + max_post_len_);
    }
  }

  /// Draws new assignments for every indicator `edge` carries (lines 19-26
  /// of Alg 2) from `sampler`, recording the count updates in `worker`'s
  /// delta buffer.
  void ScatterEdge(const ColdEdge& edge, size_t worker,
                   cold::RandomSampler* sampler) {
    Scratch* scratch = &scratch_[worker];
    int32_t* delta = state_->delta(worker);
    if (edge.type == ColdEdge::Type::kUserTime) {
      for (text::PostId d : edge.posts) {
        SamplePostDelta(d, delta, scratch, sampler);
      }
    } else {
      SampleLinkDelta(edge.link, delta, scratch, sampler);
    }
  }

  /// Sums and zeroes the workers' negative-count clamp tallies. Call
  /// between phases.
  int64_t TakeClamps() {
    int64_t clamps = 0;
    for (Scratch& s : scratch_) {
      clamps += s.clamps;
      s.clamps = 0;
    }
    return clamps;
  }

  /// \brief Rebuilds the derived-value caches from the canonical counters
  /// (the parallel analogue of the serial sampler's RebuildDerivedTables).
  /// Runs under the superstep barrier while the counters are stable; only
  /// the K*V word-log table and the alias rows are big enough to
  /// parallelize.
  void RebuildDerivedCaches(cold::ThreadPool* pool) {
    COLD_TRACE_SPAN("parallel/cache_rebuild");
    const int C = config_.num_communities;
    const int K = config_.num_topics;
    const int T = posts_.num_time_slices();
    const int V = state_->V();
    const double epsilon = config_.epsilon;
    for (int c = 0; c < C; ++c) {
      for (int k = 0; k < K; ++k) {
        const double n_ck = state_->n_ck(c, k);
        const double n_c = state_->n_c(c);
        // Transposed [k*C + c]: the community kernel scans c for a fixed k.
        comm_factor_[static_cast<size_t>(k) * C + c] =
            (n_ck + alpha_) / ((n_c + kalpha_) * (n_ck + teps_));
        topic_ck_[static_cast<size_t>(c) * K + k] =
            std::log(n_ck + alpha_) - std::log(n_ck + teps_);
        // Transposed [(c*T + t)*K + k]: the topic kernel scans k for a
        // fixed (c, t).
        for (int t = 0; t < T; ++t) {
          log_nckt_eps_[(static_cast<size_t>(c) * T + t) * K + k] =
              std::log(state_->n_ckt(c, k, t) + epsilon);
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
                                state_->n_kv(k, static_cast<int>(v)) +
                                config_.beta);
                          }
                        }
                      });
    // Length-denominator table, transposed [len*K + k]: log ascending
    // factorial of (n_k + V*beta) over `len` steps, built incrementally so
    // the whole table costs one log per cell. Makes the per-post length
    // term a contiguous K-row lookup for every topic except the post's own.
    for (int k = 0; k < K; ++k) {
      const double base = state_->n_k(k) + vbeta_;
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
          const double n = state_->n_cc(c, c2);
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
                const double nck = state_->n_ck(c, k);
                wts[static_cast<size_t>(k)] =
                    (nck + alpha_) *
                    (state_->n_ckt(c, k, t) + epsilon) / (nck + teps_);
              }
              alias_bank_.RebuildRow(c, t, wts);
            }
          });
    }
  }

 private:
  struct Scratch {
    std::vector<double> weights_c;
    std::vector<double> log_weights_k;
    /// Negative-count clamps observed by this worker since the last
    /// TakeClamps(). Kept worker-local so the hot path never touches a
    /// shared counter.
    int64_t clamps = 0;
  };

  /// Floors a count at zero, tallying the clamp (stale-count observability;
  /// see cold/parallel/stale_clamp_total).
  static double ClampNonNeg(double v, Scratch* scratch) {
    if (v < 0.0) {
      scratch->clamps++;
      return 0.0;
    }
    return v;
  }

  // Eqs. (1)+(3). The canonical counters are frozen at their
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
          (state_->n_ic(i, c) + rho_) * comm_row[c] *
          (state_->n_ckt(c, k0, t) + epsilon);
    }
    {
      // Own-contribution fixup at c0; frozen counts make the exclusion
      // exact.
      double n_ick = ClampNonNeg(state_->n_ic(i, c0) - 1, scratch);
      double n_ck = ClampNonNeg(state_->n_ck(c0, k0) - 1, scratch);
      double n_c = ClampNonNeg(state_->n_c(c0) - 1, scratch);
      double n_ckt = ClampNonNeg(state_->n_ckt(c0, k0, t) - 1, scratch);
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
        double n_ck = ClampNonNeg(state_->n_ck(c1, k0) - 1, scratch);
        double n_ckt = ClampNonNeg(state_->n_ckt(c1, k0, t) - 1, scratch);
        own = std::log(n_ck + alpha_) +
              std::log((n_ckt + epsilon) / (n_ck + teps_));
      } else {
        own = topic_ck_[static_cast<size_t>(c1) * K + k0] +
              log_nckt_eps_[(static_cast<size_t>(c1) * T + t) * K + k0];
      }
      for (const auto& [w, cnt] : word_pairs) {
        double base =
            ClampNonNeg(state_->n_kv(k0, w) - cnt, scratch) + beta;
        own += cold::LogAscendingFactorial(base, cnt);
      }
      if (sparse_) {
        // Own-excluded denominator via two lgamma-table reads.
        int64_t nk = state_->n_k(k0) - len;
        if (nk < 0) {
          scratch->clamps++;
          nk = 0;
        }
        own -= lgamma_tab_.LogAscFactorial(nk, len);
      } else {
        // Denominator with own words removed: lgamma(n_k + Vbeta) is
        // cached, leaving a single live lgamma per post.
        double base = ClampNonNeg(state_->n_k(k0) - len, scratch) + vbeta_;
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
            v += cold::LogAscendingFactorial(state_->n_kv(k, w) + beta,
                                             cnt);
          }
        }
        return v;
      };
      k1 = MhTopicDraw(alias_bank_.Row(c1, t), k0, kSparseMhSteps,
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
            lw[k] += cold::LogAscendingFactorial(state_->n_kv(k, w) + beta,
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

  // Eq. (2) as alternating conditionals s | s' then s' | s, against frozen
  // counts (exact own-exclusion) with the link weight ratio
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
          (state_->n_ic(edge.src, cc) + rho_) * w_in[cc];
    }
    {
      double n_ic = ClampNonNeg(state_->n_ic(edge.src, s0) - 1, scratch);
      double n = ClampNonNeg(state_->n_cc(s0, s20) - 1, scratch);
      scratch->weights_c[static_cast<size_t>(s0)] =
          (n_ic + rho_) * (n + lambda1) / (n + lambda0_ + lambda1);
    }
    const int s1 = sampler->Categorical(scratch->weights_c);

    // s' | s: cached row for fixed s, with fixups at the dst's own n_ic
    // cell (s20) and — only if the first draw kept s0 — the own n_cc cell.
    const double* w_out = &w_link_[static_cast<size_t>(s1) * C];
    for (int cc = 0; cc < C; ++cc) {
      scratch->weights_c[static_cast<size_t>(cc)] =
          (state_->n_ic(edge.dst, cc) + rho_) * w_out[cc];
    }
    {
      double n_ic = ClampNonNeg(state_->n_ic(edge.dst, s20) - 1, scratch);
      double n = ClampNonNeg(
          state_->n_cc(s1, s20) - (s1 == s0 ? 1 : 0), scratch);
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
  bool use_network_;
  double lambda0_;
  double rho_;     // resolved membership prior
  double alpha_;   // resolved topic prior
  double kalpha_;  // K * alpha
  double teps_;    // T * epsilon
  double vbeta_;   // V * beta
  std::vector<Scratch> scratch_;

  // Derived caches, rebuilt once per superstep from the frozen
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
  // the own-excluded length term reads.
  bool sparse_ = false;
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
      engine_options_(engine_options),
      pool_(PoolThreads(engine_options)) {}

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
  state_->EnsureDeltaBuffers(pool_.num_threads());

  // Build the bipartite user-time graph plus user-user edges (Fig 4): user
  // vertices come first (id = user), then time vertices (id = U + slice).
  graph_ = std::make_unique<Graph>(U + T);
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
    state_->n_ic(i, c)++;
    state_->n_i(i)++;
    state_->n_ck(c, k)++;
    state_->n_c(c)++;
    state_->n_ckt(c, k, posts_.time(d))++;
    for (text::WordId w : posts_.words(d)) state_->n_kv(k, w)++;
    state_->n_k(k) += posts_.length(d);
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
      state_->n_ic(edge.src, s)++;
      state_->n_i(edge.src)++;
      state_->n_ic(edge.dst, s2)++;
      state_->n_i(edge.dst)++;
      state_->n_cc(s, s2)++;
    }
  }

  kernel_ = std::make_unique<ScatterKernel>(config_, posts_, links_,
                                            state_.get(), use_network_,
                                            lambda0_, pool_.num_threads());
  stats_ = engine::EngineStats{};
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
  // One superstep at a time so the per-superstep observer sees every
  // boundary. Resume-aware: a trainer
  // restored from a checkpoint runs only the remaining supersteps.
  while (supersteps_run_ < config_.iterations) {
    double superstep_seconds = 0.0;
    {
      cold::ScopedTimer timer(superstep_seconds);
      RunSuperstep();
    }
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
  Superstep(nullptr);
  supersteps_run_++;
}

void ParallelColdTrainer::Superstep(const std::vector<uint8_t>* chunk_mask) {
  COLD_TRACE_SPAN("engine/superstep");
  double scatter_s = 0.0;
  double merge_s = 0.0;
  {
    COLD_TRACE_SPAN("engine/scatter");
    cold::ScopedTimer timer(scatter_s);
    kernel_->RebuildDerivedCaches(&pool_);

    // Chunk boundaries depend only on the edge count and each chunk owns
    // its RNG stream, so the draws are identical no matter which worker
    // runs a chunk: repeat runs and different worker counts produce
    // bit-identical state (the delta sums commute).
    const Graph& graph = *graph_;
    ScatterKernel& kernel = *kernel_;
    const int64_t num_edges = graph.num_edges();
    const int64_t num_chunks = NumScatterChunks();
    const uint64_t seed = engine_options_.seed;
    const uint64_t stream_base =
        engine::kChunkStreamBase + static_cast<uint64_t>(supersteps_run_) *
                                       static_cast<uint64_t>(num_chunks);
    std::atomic<int64_t> cursor{0};
    // One long-running task per worker, each pulling chunks dynamically.
    pool_.ParallelFor(pool_.num_threads(), [&](size_t, size_t,
                                                size_t worker) {
      // One span per worker per superstep: the trace timeline shows each
      // pool thread's share of the scatter phase.
      COLD_TRACE_SPAN("engine/scatter_worker");
      while (true) {
        const int64_t chunk = cursor.fetch_add(1, std::memory_order_relaxed);
        if (chunk >= num_chunks) break;
        if (chunk_mask != nullptr &&
            (*chunk_mask)[static_cast<size_t>(chunk)] == 0) {
          continue;
        }
        cold::RandomSampler sampler(
            seed, stream_base + static_cast<uint64_t>(chunk));
        const int64_t stop =
            std::min(num_edges, (chunk + 1) * engine::kScatterChunkEdges);
        for (int64_t e = chunk * engine::kScatterChunkEdges; e < stop; ++e) {
          kernel.ScatterEdge(graph.edge_data(e), worker, &sampler);
        }
      }
    });

    const int64_t clamps = kernel.TakeClamps();
    if (clamps > 0) Metrics().stale_clamps->Increment(clamps);
    if (chunk_mask == nullptr) {
      // Fold every worker's buffer into the canonical tables, striped
      // across the pool; each cell sums the workers in fixed order, so the
      // merged counts are deterministic.
      cold::ScopedTimer merge_timer(merge_s);
      COLD_TRACE_SPAN("parallel/merge");
      pool_.ParallelFor(state_->delta_size(),
                        [this](size_t begin, size_t end, size_t) {
                          state_->MergeDeltaRange(begin, end);
                        });
    }
  }
  ParallelMetrics& metrics = Metrics();
  stats_.scatter_seconds += scatter_s;
  stats_.merge_seconds += merge_s;
  metrics.scatter_seconds->Add(scatter_s);
  metrics.merge_seconds->Add(merge_s);
  stats_.supersteps++;
  metrics.engine_supersteps->Increment();
}

int64_t ParallelColdTrainer::NumScatterChunks() const {
  if (graph_ == nullptr) return 0;
  return (graph_->num_edges() + engine::kScatterChunkEdges - 1) /
         engine::kScatterChunkEdges;
}

size_t ParallelColdTrainer::DeltaTableSize() const {
  return state_ != nullptr ? state_->delta_size() : 0;
}

std::vector<int32_t> ParallelColdTrainer::ComputeChunkOwners(
    int num_nodes) const {
  auto work_of = [this](engine::EdgeId e) {
    return EdgeWorkUnits(graph_->edge_data(e), posts_,
                         config_.num_communities, config_.num_topics);
  };
  // Each edge's work units are charged to its source vertex (edges run on
  // their source's node).
  std::vector<int64_t> vertex_work(
      static_cast<size_t>(graph_->num_vertices()), 0);
  const int64_t num_edges = graph_->num_edges();
  for (engine::EdgeId e = 0; e < num_edges; ++e) {
    vertex_work[static_cast<size_t>(graph_->src(e))] += work_of(e);
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
      node_work[static_cast<size_t>(node)] += work_of(e) + 1;
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
  if (static_cast<int64_t>(chunk_mask.size()) != NumScatterChunks()) {
    return cold::Status::InvalidArgument(
        "chunk mask covers " + std::to_string(chunk_mask.size()) +
        " chunks, the graph has " + std::to_string(NumScatterChunks()));
  }
  prev_post_community_ = state_->post_community;
  prev_post_topic_ = state_->post_topic;
  prev_link_src_community_ = state_->link_src_community;
  prev_link_dst_community_ = state_->link_dst_community;

  Superstep(&chunk_mask);

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

ColdEstimates ParallelColdTrainer::Estimates() const {
  return ExtractEstimates(*state_, config_, lambda0_);
}

ColdState ParallelColdTrainer::StateSnapshot() const { return *state_; }

}  // namespace cold::core
