#include "core/gibbs_sampler.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/fault_injector.h"
#include "util/logging.h"
#include "util/math_util.h"
#include "util/stopwatch.h"

namespace cold::core {

namespace {

/// Registry handles for the serial sampler's per-sweep telemetry, cached
/// once per process. The *_seconds / switch-rate gauges carry the most
/// recent sweep so a per-sweep snapshot series reads as a trajectory;
/// the counters are cumulative.
struct GibbsMetrics {
  obs::Counter* sweeps;
  obs::Counter* tokens_resampled;
  obs::Counter* links_resampled;
  obs::Gauge* sweep_seconds;
  obs::Gauge* post_phase_seconds;
  obs::Gauge* link_phase_seconds;
  obs::Gauge* community_switch_rate;
  obs::Gauge* topic_switch_rate;
  obs::Gauge* tokens_per_second;
  obs::Gauge* links_per_second;
};

GibbsMetrics& Metrics() {
  auto& registry = obs::Registry::Global();
  static GibbsMetrics metrics{
      registry.GetCounter("cold/gibbs/sweeps"),
      registry.GetCounter("cold/gibbs/tokens_resampled"),
      registry.GetCounter("cold/gibbs/links_resampled"),
      registry.GetGauge("cold/gibbs/sweep_seconds"),
      registry.GetGauge("cold/gibbs/phase_seconds", {{"phase", "post"}}),
      registry.GetGauge("cold/gibbs/phase_seconds", {{"phase", "link"}}),
      registry.GetGauge("cold/gibbs/community_switch_rate"),
      registry.GetGauge("cold/gibbs/topic_switch_rate"),
      registry.GetGauge("cold/gibbs/tokens_per_second"),
      registry.GetGauge("cold/gibbs/links_per_second")};
  return metrics;
}

}  // namespace

double ComputeLambda0(const ColdConfig& config, int num_users,
                      int64_t num_links) {
  double n_neg = static_cast<double>(num_users) * (num_users - 1) -
                 static_cast<double>(num_links);
  double c2 = static_cast<double>(config.num_communities) *
              static_cast<double>(config.num_communities);
  double ratio = n_neg / c2;
  if (ratio <= 1.0) return config.lambda1;
  return std::max(config.lambda1, config.kappa * std::log(ratio));
}

ColdGibbsSampler::ColdGibbsSampler(ColdConfig config,
                                   const text::PostStore& posts,
                                   const graph::Digraph* links)
    : config_(config),
      posts_(posts),
      links_(links),
      use_network_(config.use_network && links != nullptr &&
                   links->num_edges() > 0),
      sampler_(config.seed, /*stream=*/3) {}

cold::Status ColdGibbsSampler::Init() {
  COLD_RETURN_NOT_OK(config_.Validate());
  if (!posts_.finalized()) {
    return cold::Status::FailedPrecondition("post store not finalized");
  }
  if (posts_.num_posts() == 0) {
    return cold::Status::InvalidArgument("no posts to train on");
  }
  const int C = config_.num_communities;
  const int K = config_.num_topics;
  int64_t num_links = use_network_ ? links_->num_edges() : 0;
  lambda0_ = use_network_
                 ? ComputeLambda0(config_, posts_.num_users(), num_links)
                 : config_.lambda1;

  // Vocab size: config_.vocab_size when the caller supplied the
  // dataset-wide vocabulary; otherwise derived as max-word-id + 1 over the
  // *training* posts — which under-sizes n_kv/phi when a held-out split
  // holds higher word ids, so callers with a Vocabulary should set it.
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

  state_ = std::make_unique<ColdState>(posts_.num_users(), C, K,
                                       posts_.num_time_slices(), vocab,
                                       posts_.num_posts(), num_links);
  weights_c_.resize(static_cast<size_t>(C));
  log_weights_k_.resize(static_cast<size_t>(K));
  weights_joint_.resize(static_cast<size_t>(C) * C);
  link_src_weights_.resize(static_cast<size_t>(C));
  link_dst_weights_.resize(static_cast<size_t>(C));

  // Sparse topic path setup (before the init sweep so the add/remove
  // hooks can bump the alias staleness counters). The lgamma table must
  // cover the largest argument the length term can see: n_k (bounded by
  // the corpus token count) plus one post length.
  sparse_active_ = config_.UseSparseTopicSampling();
  if (sparse_active_) {
    // A community's alias rows go stale after max(64, 4K) count changes:
    // proposal quality only, never correctness (MH is exact under any
    // staleness).
    alias_bank_.Reset(C, posts_.num_time_slices(), K, std::max(64, 4 * K));
    alias_weights_.resize(static_cast<size_t>(K));
    int max_len = 0;
    for (text::PostId d = 0; d < posts_.num_posts(); ++d) {
      max_len = std::max(max_len, posts_.length(d));
    }
    lgamma_len_.Build(vocab * config_.beta, posts_.num_tokens() + max_len);
  }

  // Random initialization, counters built incrementally.
  for (text::PostId d = 0; d < posts_.num_posts(); ++d) {
    state_->post_community[static_cast<size_t>(d)] =
        static_cast<int32_t>(sampler_.UniformInt(static_cast<uint32_t>(C)));
    state_->post_topic[static_cast<size_t>(d)] =
        static_cast<int32_t>(sampler_.UniformInt(static_cast<uint32_t>(K)));
    AddPost(d);
  }
  if (use_network_) {
    for (graph::EdgeId e = 0; e < links_->num_edges(); ++e) {
      int s =
          static_cast<int>(sampler_.UniformInt(static_cast<uint32_t>(C)));
      int s2 =
          static_cast<int>(sampler_.UniformInt(static_cast<uint32_t>(C)));
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
  RebuildDerivedTables();
  accumulated_.reset();
  num_accumulated_ = 0;
  iterations_run_ = 0;
  initialized_ = true;
  return cold::Status::OK();
}

void ColdGibbsSampler::RebuildDerivedTables() {
  const int C = config_.num_communities;
  const int K = config_.num_topics;
  const int T = posts_.num_time_slices();
  const int V = state_->V();
  const double alpha = config_.ResolvedAlpha();
  const double epsilon = config_.epsilon;
  const double beta = config_.beta;
  const double teps = T * epsilon;
  const double vbeta = V * beta;

  log_nck_alpha_.resize(static_cast<size_t>(C) * K);
  log_nck_teps_.resize(static_cast<size_t>(C) * K);
  log_nckt_eps_.resize(static_cast<size_t>(C) * K * T);
  for (int c = 0; c < C; ++c) {
    for (int k = 0; k < K; ++k) {
      size_t ck = static_cast<size_t>(c) * K + k;
      log_nck_alpha_[ck] = std::log(state_->n_ck(c, k) + alpha);
      log_nck_teps_[ck] = std::log(state_->n_ck(c, k) + teps);
      for (int t = 0; t < T; ++t) {
        log_nckt_eps_[ck * T + t] = std::log(state_->n_ckt(c, k, t) + epsilon);
      }
    }
  }
  log_nkv_beta_.resize(static_cast<size_t>(K) * V);
  lgamma_nk_vbeta_.resize(static_cast<size_t>(K));
  for (int k = 0; k < K; ++k) {
    for (int v = 0; v < V; ++v) {
      log_nkv_beta_[static_cast<size_t>(k) * V + v] =
          std::log(state_->n_kv(k, v) + beta);
    }
    lgamma_nk_vbeta_[static_cast<size_t>(k)] =
        cold::LGamma(state_->n_k(k) + vbeta);
  }
  w_link_.resize(static_cast<size_t>(C) * C);
  for (int c = 0; c < C; ++c) {
    for (int c2 = 0; c2 < C; ++c2) RefreshLinkDerived(c, c2);
  }
}

void ColdGibbsSampler::RefreshPostDerived(int c, int k, int t,
                                          std::span<const text::WordId> words) {
  if (log_nck_alpha_.empty()) return;  // Init() builds tables afterwards.
  const int K = config_.num_topics;
  const int T = posts_.num_time_slices();
  const int V = state_->V();
  const size_t ck = static_cast<size_t>(c) * K + k;
  log_nck_alpha_[ck] = std::log(state_->n_ck(c, k) + config_.ResolvedAlpha());
  log_nck_teps_[ck] = std::log(state_->n_ck(c, k) + T * config_.epsilon);
  log_nckt_eps_[ck * T + t] =
      std::log(state_->n_ckt(c, k, t) + config_.epsilon);
  // Duplicate words recompute the same entry; posts are short, and the
  // recompute is idempotent.
  for (text::WordId w : words) {
    log_nkv_beta_[static_cast<size_t>(k) * V + w] =
        std::log(state_->n_kv(k, w) + config_.beta);
  }
  lgamma_nk_vbeta_[static_cast<size_t>(k)] =
      cold::LGamma(state_->n_k(k) + V * config_.beta);
}

void ColdGibbsSampler::RefreshLinkDerived(int c, int c2) {
  const int C = config_.num_communities;
  double n = state_->n_cc(c, c2);
  w_link_[static_cast<size_t>(c) * C + c2] =
      (n + config_.lambda1) / (n + lambda0_ + config_.lambda1);
}

double ColdGibbsSampler::MaxDerivedTableDrift() const {
  if (log_nck_alpha_.empty()) return 0.0;
  const int C = config_.num_communities;
  const int K = config_.num_topics;
  const int T = posts_.num_time_slices();
  const int V = state_->V();
  const double alpha = config_.ResolvedAlpha();
  const double epsilon = config_.epsilon;
  const double beta = config_.beta;
  const double teps = T * epsilon;
  const double vbeta = V * beta;

  double drift = 0.0;
  auto probe = [&drift](double cached, double exact) {
    drift = std::max(drift, std::abs(cached - exact));
  };
  for (int c = 0; c < C; ++c) {
    for (int k = 0; k < K; ++k) {
      const size_t ck = static_cast<size_t>(c) * K + k;
      probe(log_nck_alpha_[ck], std::log(state_->n_ck(c, k) + alpha));
      probe(log_nck_teps_[ck], std::log(state_->n_ck(c, k) + teps));
      for (int t = 0; t < T; ++t) {
        probe(log_nckt_eps_[ck * T + t],
              std::log(state_->n_ckt(c, k, t) + epsilon));
      }
    }
  }
  for (int k = 0; k < K; ++k) {
    for (int v = 0; v < V; ++v) {
      probe(log_nkv_beta_[static_cast<size_t>(k) * V + v],
            std::log(state_->n_kv(k, v) + beta));
    }
    probe(lgamma_nk_vbeta_[static_cast<size_t>(k)],
          cold::LGamma(state_->n_k(k) + vbeta));
  }
  for (int c = 0; c < C; ++c) {
    for (int c2 = 0; c2 < C; ++c2) {
      const double n = state_->n_cc(c, c2);
      probe(w_link_[static_cast<size_t>(c) * C + c2],
            (n + config_.lambda1) / (n + lambda0_ + config_.lambda1));
    }
  }
  return drift;
}

void ColdGibbsSampler::RemovePost(text::PostId d) {
  int c = state_->post_community[static_cast<size_t>(d)];
  int k = state_->post_topic[static_cast<size_t>(d)];
  text::UserId i = posts_.author(d);
  state_->n_ic(i, c)--;
  state_->n_i(i)--;
  state_->n_ck(c, k)--;
  state_->n_c(c)--;
  state_->n_ckt(c, k, posts_.time(d))--;
  for (text::WordId w : posts_.words(d)) state_->n_kv(k, w)--;
  state_->n_k(k) -= posts_.length(d);
  RefreshPostDerived(c, k, posts_.time(d), posts_.words(d));
  if (sparse_active_) alias_bank_.NoteCommunityUpdate(c);
}

void ColdGibbsSampler::AddPost(text::PostId d) {
  int c = state_->post_community[static_cast<size_t>(d)];
  int k = state_->post_topic[static_cast<size_t>(d)];
  text::UserId i = posts_.author(d);
  state_->n_ic(i, c)++;
  state_->n_i(i)++;
  state_->n_ck(c, k)++;
  state_->n_c(c)++;
  state_->n_ckt(c, k, posts_.time(d))++;
  for (text::WordId w : posts_.words(d)) state_->n_kv(k, w)++;
  state_->n_k(k) += posts_.length(d);
  RefreshPostDerived(c, k, posts_.time(d), posts_.words(d));
  if (sparse_active_) alias_bank_.NoteCommunityUpdate(c);
}

void ColdGibbsSampler::SampleCommunity(text::PostId d) {
  const int C = config_.num_communities;
  const int K = config_.num_topics;
  const int T = posts_.num_time_slices();
  const double rho = config_.ResolvedRho();
  const double alpha = config_.ResolvedAlpha();
  const double epsilon = config_.epsilon;
  const int k = state_->post_topic[static_cast<size_t>(d)];
  const int t = posts_.time(d);
  const text::UserId i = posts_.author(d);

  // Eq. (1); the n_i denominator is constant across c and dropped.
  for (int c = 0; c < C; ++c) {
    double w_member = state_->n_ic(i, c) + rho;
    double w_topic = (state_->n_ck(c, k) + alpha) /
                     (state_->n_c(c) + K * alpha);
    double w_time = (state_->n_ckt(c, k, t) + epsilon) /
                    (state_->n_ck(c, k) + T * epsilon);
    weights_c_[static_cast<size_t>(c)] = w_member * w_topic * w_time;
  }
  state_->post_community[static_cast<size_t>(d)] =
      static_cast<int32_t>(sampler_.Categorical(weights_c_));
}

void ColdGibbsSampler::TopicLogWeights(text::PostId d, int community,
                                       std::span<double> log_weights) const {
  const int K = config_.num_topics;
  const int T = posts_.num_time_slices();
  const int V = state_->V();
  const double beta = config_.beta;
  const double vbeta = V * beta;
  const int t = posts_.time(d);
  const int len = posts_.length(d);

  // Distinct (word, count) pairs are precomputed at PostStore::Finalize()
  // — posts are immutable, so the old per-call O(len^2) dedup was pure
  // overhead on the hot path.
  const auto word_pairs = posts_.word_pairs(d);

  // Eq. (3) in log space: the n_c denominator is constant across k and
  // dropped. The per-token ascending-factorial loops of the reference
  // kernel are collapsed: the community/time terms read per-sweep cached
  // logs (refreshed incrementally as counters change), the word term reads
  // the cached log(n_kv + beta) for the ubiquitous cnt == 1 case, and the
  // length-denominator ascending factorial is an lgamma pair whose base
  // lgamma(n_k + V*beta) is cached — so per (topic, token) work is a table
  // read, not a std::log call.
  const size_t ck0 = static_cast<size_t>(community) * K;
  for (int k = 0; k < K; ++k) {
    const size_t ck = ck0 + k;
    double lw = log_nck_alpha_[ck] + log_nckt_eps_[ck * T + t] -
                log_nck_teps_[ck];
    for (const auto& [w, cnt] : word_pairs) {
      if (cnt == 1) {
        lw += log_nkv_beta_[static_cast<size_t>(k) * V + w];
      } else {
        lw += cold::LogAscendingFactorial(state_->n_kv(k, w) + beta, cnt);
      }
    }
    lw -= cold::LogAscendingFactorial(
        state_->n_k(k) + vbeta, len,
        lgamma_nk_vbeta_[static_cast<size_t>(k)]);
    log_weights[static_cast<size_t>(k)] = lw;
  }
}

double ColdGibbsSampler::TopicLogWeightOne(text::PostId d, int community,
                                           int k) const {
  const int K = config_.num_topics;
  const int T = posts_.num_time_slices();
  const int V = state_->V();
  const double beta = config_.beta;
  const int t = posts_.time(d);
  const size_t ck = static_cast<size_t>(community) * K + k;

  // Same cached-log reads as the dense kernel, for one topic only: the MH
  // accept step needs exact log-weights at just the current and proposed
  // topics, so the per-draw cost is O(post length) instead of
  // O(K * length).
  double lw = log_nck_alpha_[ck] + log_nckt_eps_[ck * T + t] -
              log_nck_teps_[ck];
  for (const auto& [w, cnt] : posts_.word_pairs(d)) {
    if (cnt == 1) {
      lw += log_nkv_beta_[static_cast<size_t>(k) * V + w];
    } else {
      lw += cold::LogAscendingFactorial(state_->n_kv(k, w) + beta, cnt);
    }
  }
  // Length term via the integer-indexed lgamma table when built (two table
  // reads); otherwise the dense kernel's cached-base lgamma pair.
  if (lgamma_len_.built()) {
    lw -= lgamma_len_.LogAscFactorial(state_->n_k(k), posts_.length(d));
  } else {
    lw -= cold::LogAscendingFactorial(
        state_->n_k(k) + V * beta, posts_.length(d),
        lgamma_nk_vbeta_[static_cast<size_t>(k)]);
  }
  return lw;
}

void ColdGibbsSampler::FillTopicPriorWeights(int c, int t,
                                             std::vector<double>* weights) {
  const int K = config_.num_topics;
  const int T = posts_.num_time_slices();
  const double alpha = config_.ResolvedAlpha();
  const double epsilon = config_.epsilon;
  const double teps = T * epsilon;
  weights->resize(static_cast<size_t>(K));
  for (int k = 0; k < K; ++k) {
    const double nck = state_->n_ck(c, k);
    (*weights)[static_cast<size_t>(k)] =
        (nck + alpha) * (state_->n_ckt(c, k, t) + epsilon) / (nck + teps);
  }
}

void ColdGibbsSampler::SampleTopicSparse(text::PostId d) {
  const int c = state_->post_community[static_cast<size_t>(d)];
  const int t = posts_.time(d);
  if (alias_bank_.RowDirty(c, t)) {
    FillTopicPriorWeights(c, t, &alias_weights_);
    alias_bank_.RebuildRow(c, t, alias_weights_);
  }
  const int k0 = state_->post_topic[static_cast<size_t>(d)];
  state_->post_topic[static_cast<size_t>(d)] = static_cast<int32_t>(
      MhTopicDraw(alias_bank_.Row(c, t), k0, kSparseMhSteps,
                  sampler_, [&](int k) { return TopicLogWeightOne(d, c, k); }));
}

void ColdGibbsSampler::SampleTopic(text::PostId d) {
  if (sparse_active_) {
    SampleTopicSparse(d);
    return;
  }
  const int c = state_->post_community[static_cast<size_t>(d)];
  TopicLogWeights(d, c, log_weights_k_);
  state_->post_topic[static_cast<size_t>(d)] =
      static_cast<int32_t>(sampler_.LogCategorical(log_weights_k_));
}

void ColdGibbsSampler::SamplePost(text::PostId d) {
  RemovePost(d);
  SampleCommunity(d);
  SampleTopic(d);
  AddPost(d);
}

bool ColdGibbsSampler::UseJointLinkSampling() const {
  switch (config_.link_sampling) {
    case LinkSampling::kJoint:
      return true;
    case LinkSampling::kAlternating:
      return false;
    case LinkSampling::kAuto:
      return config_.num_communities <= 48;
  }
  return true;
}

void ColdGibbsSampler::SampleLinkJoint(graph::EdgeId e) {
  const int C = config_.num_communities;
  const double rho = config_.ResolvedRho();
  const graph::Edge& edge = links_->edge(e);
  int s = state_->link_src_community[static_cast<size_t>(e)];
  int s2 = state_->link_dst_community[static_cast<size_t>(e)];

  // Exclude this link (Eq. 2's counters are all "-ii'"). Only the (s, s2)
  // cell of n_cc moves, so the cached w_link table needs exactly one
  // refresh here and one after the draw below.
  state_->n_ic(edge.src, s)--;
  state_->n_ic(edge.dst, s2)--;
  state_->n_cc(s, s2)--;
  RefreshLinkDerived(s, s2);

  // Eq. (2) as a rank-1 outer product times the cached link-weight table:
  // the O(C^2) inner loop is two table reads and two multiplies per cell
  // instead of a division.
  for (int c = 0; c < C; ++c) {
    link_src_weights_[static_cast<size_t>(c)] = state_->n_ic(edge.src, c) + rho;
    link_dst_weights_[static_cast<size_t>(c)] = state_->n_ic(edge.dst, c) + rho;
  }
  for (int c = 0; c < C; ++c) {
    const double w_src = link_src_weights_[static_cast<size_t>(c)];
    const size_t row = static_cast<size_t>(c) * C;
    for (int c2 = 0; c2 < C; ++c2) {
      weights_joint_[row + c2] =
          w_src * link_dst_weights_[static_cast<size_t>(c2)] * w_link_[row + c2];
    }
  }
  int flat = sampler_.Categorical(weights_joint_);
  s = flat / C;
  s2 = flat % C;

  state_->link_src_community[static_cast<size_t>(e)] = s;
  state_->link_dst_community[static_cast<size_t>(e)] = s2;
  state_->n_ic(edge.src, s)++;
  state_->n_ic(edge.dst, s2)++;
  state_->n_cc(s, s2)++;
  RefreshLinkDerived(s, s2);
}

void ColdGibbsSampler::SampleLinkAlternating(graph::EdgeId e) {
  const int C = config_.num_communities;
  const double rho = config_.ResolvedRho();
  const graph::Edge& edge = links_->edge(e);
  int s = state_->link_src_community[static_cast<size_t>(e)];
  int s2 = state_->link_dst_community[static_cast<size_t>(e)];

  state_->n_ic(edge.src, s)--;
  state_->n_ic(edge.dst, s2)--;
  state_->n_cc(s, s2)--;
  RefreshLinkDerived(s, s2);

  // s | s': column s2 of the cached link-weight table.
  for (int c = 0; c < C; ++c) {
    weights_c_[static_cast<size_t>(c)] =
        (state_->n_ic(edge.src, c) + rho) *
        w_link_[static_cast<size_t>(c) * C + s2];
  }
  s = sampler_.Categorical(weights_c_);
  // s' | s: row s of the table.
  const size_t row = static_cast<size_t>(s) * C;
  for (int c2 = 0; c2 < C; ++c2) {
    weights_c_[static_cast<size_t>(c2)] =
        (state_->n_ic(edge.dst, c2) + rho) * w_link_[row + c2];
  }
  s2 = sampler_.Categorical(weights_c_);

  state_->link_src_community[static_cast<size_t>(e)] = s;
  state_->link_dst_community[static_cast<size_t>(e)] = s2;
  state_->n_ic(edge.src, s)++;
  state_->n_ic(edge.dst, s2)++;
  state_->n_cc(s, s2)++;
  RefreshLinkDerived(s, s2);
}

void ColdGibbsSampler::RunIteration() {
  COLD_TRACE_SPAN("gibbs/sweep");
  // Drift insurance for the incrementally-refreshed caches, every 256
  // sweeps: every entry is a pure function of one counter, so the rebuild
  // is bit-neutral when the increments are correct — the debug build
  // proves that each time.
  if (iterations_run_ > 0 && iterations_run_ % 256 == 0) {
    assert(MaxDerivedTableDrift() == 0.0);
    RebuildDerivedTables();
  }
  // Start every sweep from a fully-invalidated alias bank so the sampler
  // state at sweep boundaries — where checkpoints are taken — never
  // depends on staleness carried across sweeps; restore-then-sweep is
  // therefore bit-identical to an uninterrupted run.
  if (sparse_active_) alias_bank_.InvalidateAll();
  double post_seconds = 0.0, link_seconds = 0.0;
  int64_t tokens = 0;
  int64_t switched_c = 0, switched_k = 0;
  {
    cold::ScopedTimer timer(post_seconds);
    for (text::PostId d = 0; d < posts_.num_posts(); ++d) {
      const int32_t old_c = state_->post_community[static_cast<size_t>(d)];
      const int32_t old_k = state_->post_topic[static_cast<size_t>(d)];
      SamplePost(d);
      tokens += posts_.length(d);
      switched_c += state_->post_community[static_cast<size_t>(d)] != old_c;
      switched_k += state_->post_topic[static_cast<size_t>(d)] != old_k;
    }
  }
  if (use_network_) {
    cold::ScopedTimer timer(link_seconds);
    bool joint = UseJointLinkSampling();
    for (graph::EdgeId e = 0; e < links_->num_edges(); ++e) {
      if (joint) {
        SampleLinkJoint(e);
      } else {
        SampleLinkAlternating(e);
      }
    }
  }
  iterations_run_++;

  // Per-sweep telemetry: a dozen relaxed atomics, no-ops when the registry
  // is disabled.
  GibbsMetrics& metrics = Metrics();
  metrics.sweeps->Increment();
  metrics.tokens_resampled->Increment(tokens);
  if (use_network_) metrics.links_resampled->Increment(links_->num_edges());
  metrics.sweep_seconds->Set(post_seconds + link_seconds);
  metrics.post_phase_seconds->Set(post_seconds);
  metrics.link_phase_seconds->Set(link_seconds);
  if (post_seconds > 0.0) {
    metrics.tokens_per_second->Set(static_cast<double>(tokens) / post_seconds);
  }
  if (use_network_ && link_seconds > 0.0) {
    metrics.links_per_second->Set(
        static_cast<double>(links_->num_edges()) / link_seconds);
  }
  double num_posts = static_cast<double>(posts_.num_posts());
  metrics.community_switch_rate->Set(switched_c / num_posts);
  metrics.topic_switch_rate->Set(switched_k / num_posts);
}

cold::Status ColdGibbsSampler::Train() {
  if (!initialized_) {
    return cold::Status::FailedPrecondition("call Init() before Train()");
  }
  // Resume-aware: RunIteration() advances iterations_run_, so a sampler
  // restored from a checkpoint continues mid-schedule with the burn-in and
  // sample-lag arithmetic unchanged.
  while (iterations_run_ < config_.iterations) {
    RunIteration();
    const int sweep = iterations_run_;
    if (sweep > config_.burn_in &&
        (sweep - config_.burn_in) % config_.sample_lag == 0) {
      ColdEstimates current = EstimatesFromCurrentSample();
      if (accumulated_ == nullptr) {
        accumulated_ = std::make_unique<ColdEstimates>(std::move(current));
      } else {
        COLD_RETURN_NOT_OK(accumulated_->Accumulate(current));
      }
      num_accumulated_++;
    }
    if (sweep_callback_) sweep_callback_(sweep);
    // After the callback, so a checkpoint for this sweep is already on disk
    // when the injected crash fires (the crash-recovery tests depend on
    // this ordering).
    cold::FaultInjector::Global().MaybeCrash("after_sweep", sweep);
  }
  return cold::Status::OK();
}

ColdEstimates ExtractEstimates(const ColdState& state,
                               const ColdConfig& config, double lambda0) {
  ColdEstimates est;
  est.U = state.U();
  est.C = state.C();
  est.K = state.K();
  est.T = state.T();
  est.V = state.V();
  const double rho = config.ResolvedRho();
  const double alpha = config.ResolvedAlpha();

  est.pi.resize(static_cast<size_t>(est.U) * est.C);
  for (int i = 0; i < est.U; ++i) {
    double denom = state.n_i(i) + est.C * rho;
    for (int c = 0; c < est.C; ++c) {
      est.pi[static_cast<size_t>(i) * est.C + c] =
          (state.n_ic(i, c) + rho) / denom;
    }
  }
  est.theta.resize(static_cast<size_t>(est.C) * est.K);
  for (int c = 0; c < est.C; ++c) {
    double denom = state.n_c(c) + est.K * alpha;
    for (int k = 0; k < est.K; ++k) {
      est.theta[static_cast<size_t>(c) * est.K + k] =
          (state.n_ck(c, k) + alpha) / denom;
    }
  }
  est.eta.resize(static_cast<size_t>(est.C) * est.C);
  if (config.exposure_normalized_eta) {
    // Expected membership mass per community from the freshly computed pi.
    std::vector<double> mass(static_cast<size_t>(est.C), 0.0);
    for (int i = 0; i < est.U; ++i) {
      for (int c = 0; c < est.C; ++c) {
        mass[static_cast<size_t>(c)] += est.pi[static_cast<size_t>(i) * est.C + c];
      }
    }
    for (int c = 0; c < est.C; ++c) {
      for (int c2 = 0; c2 < est.C; ++c2) {
        double n = state.n_cc(c, c2);
        double exposure =
            mass[static_cast<size_t>(c)] * mass[static_cast<size_t>(c2)];
        est.eta[static_cast<size_t>(c) * est.C + c2] =
            (n + config.lambda1) /
            (std::max(exposure, n) + lambda0 + config.lambda1);
      }
    }
  } else {
    for (int c = 0; c < est.C; ++c) {
      for (int c2 = 0; c2 < est.C; ++c2) {
        double n = state.n_cc(c, c2);
        est.eta[static_cast<size_t>(c) * est.C + c2] =
            (n + config.lambda1) / (n + lambda0 + config.lambda1);
      }
    }
  }
  est.phi.resize(static_cast<size_t>(est.K) * est.V);
  for (int k = 0; k < est.K; ++k) {
    double denom = state.n_k(k) + est.V * config.beta;
    for (int v = 0; v < est.V; ++v) {
      est.phi[static_cast<size_t>(k) * est.V + v] =
          (state.n_kv(k, v) + config.beta) / denom;
    }
  }
  est.psi.resize(static_cast<size_t>(est.K) * est.C * est.T);
  for (int k = 0; k < est.K; ++k) {
    for (int c = 0; c < est.C; ++c) {
      double denom = state.n_ck(c, k) + est.T * config.epsilon;
      for (int t = 0; t < est.T; ++t) {
        est.psi[(static_cast<size_t>(k) * est.C + c) * est.T + t] =
            (state.n_ckt(c, k, t) + config.epsilon) / denom;
      }
    }
  }
  return est;
}

ColdEstimates ColdGibbsSampler::EstimatesFromCurrentSample() const {
  return ExtractEstimates(*state_, config_, lambda0_);
}

ColdEstimates ColdGibbsSampler::AveragedEstimates() const {
  if (accumulated_ == nullptr || num_accumulated_ == 0) {
    return EstimatesFromCurrentSample();
  }
  ColdEstimates avg = *accumulated_;
  avg.Scale(1.0 / num_accumulated_);
  return avg;
}

double ColdGibbsSampler::TrainingLogLikelihood() const {
  ColdEstimates est = EstimatesFromCurrentSample();
  const int C = est.C;
  const int K = est.K;
  double ll = 0.0;

  std::vector<double> joint(static_cast<size_t>(C) * K);
  std::vector<double> log_word(static_cast<size_t>(K));
  for (text::PostId d = 0; d < posts_.num_posts(); ++d) {
    text::UserId i = posts_.author(d);
    int t = posts_.time(d);
    for (int k = 0; k < K; ++k) {
      double lw = 0.0;
      for (text::WordId w : posts_.words(d)) lw += std::log(est.Phi(k, w));
      log_word[static_cast<size_t>(k)] = lw;
    }
    for (int c = 0; c < C; ++c) {
      for (int k = 0; k < K; ++k) {
        joint[static_cast<size_t>(c) * K + k] =
            std::log(est.Pi(i, c)) + std::log(est.Theta(c, k)) +
            log_word[static_cast<size_t>(k)] + std::log(est.Psi(k, c, t));
      }
    }
    ll += cold::LogSumExp(joint);
  }
  if (use_network_) {
    for (graph::EdgeId e = 0; e < links_->num_edges(); ++e) {
      const graph::Edge& edge = links_->edge(e);
      double p = 0.0;
      for (int c = 0; c < C; ++c) {
        for (int c2 = 0; c2 < C; ++c2) {
          p += est.Pi(edge.src, c) * est.Pi(edge.dst, c2) * est.Eta(c, c2);
        }
      }
      ll += std::log(std::max(p, 1e-300));
    }
  }
  return ll;
}

}  // namespace cold::core
