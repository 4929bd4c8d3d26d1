// Serial collapsed Gibbs sampler for COLD (§4.1, Appendix A).
//
// Per sweep: for every post, resample its community c_ij (Eq. 1) and topic
// z_ij (Eq. 3); for every positive link, resample the community pair
// (s_ii', s'_ii') (Eq. 2). Negative links never appear — they are folded
// into the Beta(lambda_0, lambda_1) prior on eta (§3.3), giving linear
// complexity in the data size (§4.2).
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/cold_config.h"
#include "core/cold_estimates.h"
#include "core/cold_state.h"
#include "core/sparse_topic_kernel.h"
#include "graph/digraph.h"
#include "text/post_store.h"
#include "util/rng.h"
#include "util/status.h"

namespace cold::core {

/// \brief Serial trainer. The parallel trainer (parallel_sampler.h) shares
/// the state layout and estimate extraction.
class ColdGibbsSampler {
 public:
  /// \param posts finalized post store.
  /// \param links the interaction network, or nullptr (forces
  ///        config.use_network = false behaviour).
  ColdGibbsSampler(ColdConfig config, const text::PostStore& posts,
                   const graph::Digraph* links);

  /// \brief Validates the config and draws the random initial assignment.
  cold::Status Init();

  /// \brief Runs one full Gibbs sweep (all posts, then all links).
  void RunIteration();

  /// \brief Full schedule: iterations sweeps, accumulating estimates every
  /// `sample_lag` sweeps after burn-in. Init() must have succeeded. Resumes
  /// from iterations_run(), so a sampler restored via RestoreState()
  /// continues the remaining sweeps bit-identically.
  cold::Status Train();

  /// \brief Serializes the complete sampler state (assignments, counters,
  /// RNG engine, sample accumulator, sweep index) into `out` for the
  /// checkpoint layer (checkpoint.h). Defined in checkpoint.cc.
  cold::Status SerializeState(std::string* out) const;

  /// \brief Restores state captured by SerializeState(). Init() must have
  /// succeeded against the same dataset, seed and schedule; every dimension
  /// and the counter/assignment consistency are validated before anything
  /// takes effect, so a corrupt payload leaves the sampler usable. Defined
  /// in checkpoint.cc.
  cold::Status RestoreState(const std::string& payload);

  /// \brief Observer invoked by Train() after every sweep with the 1-based
  /// sweep number — the hook `cold_train --metrics-out` uses to snapshot
  /// the telemetry registry per sweep. Pass an empty function to clear.
  void SetSweepCallback(std::function<void(int)> callback) {
    sweep_callback_ = std::move(callback);
  }

  /// \brief Fills `log_weights` (size K) with Eq. (3)'s unnormalized topic
  /// log-weights for post `d` under community `community`, evaluated
  /// against the *current* counters (the sweep removes d's own
  /// contribution first; callers probing a live state get the
  /// including-d weights). This is the lgamma-collapsed kernel the sweep
  /// uses — exposed so tests and benches can check it against the
  /// per-token reference loop. Not thread-safe (uses sampler scratch).
  void TopicLogWeights(text::PostId d, int community,
                       std::span<double> log_weights) const;

  /// \brief Eq. (3)'s unnormalized log-weight for a *single* topic `k` —
  /// the O(post length) evaluator the sparse MH accept step uses (the
  /// dense kernel above is O(K * length) for the full row). Exposed so the
  /// property tests can pin it against TopicLogWeights to 1e-9. Requires
  /// Init(); valid whether or not the sparse path is active.
  double TopicLogWeightOne(text::PostId d, int community, int k) const;

  /// \brief Whether topic draws use the sparse alias+MH path (resolved
  /// from config at Init()).
  bool sparse_topic_sampling() const { return sparse_active_; }

  /// \brief Max absolute difference between the incrementally-refreshed
  /// derived log caches and an exact from-counters recompute. Exactly 0.0
  /// when the caches are consistent (each refresh evaluates the same
  /// expression a rebuild would); the debug build asserts this at every
  /// periodic rebuild, and tests probe it directly.
  double MaxDerivedTableDrift() const;

  /// \brief Point estimates from the *current* sample (Appendix A).
  ColdEstimates EstimatesFromCurrentSample() const;

  /// \brief Estimates averaged over the post-burn-in samples collected by
  /// Train(); falls back to the current sample if none were collected.
  ColdEstimates AveragedEstimates() const;

  /// \brief Joint log-likelihood of training words, stamps and links under
  /// the current point estimates (the convergence monitor of §4.3).
  double TrainingLogLikelihood() const;

  const ColdState& state() const { return *state_; }
  ColdState& mutable_state() { return *state_; }
  const ColdConfig& config() const { return config_; }
  /// lambda_0 derived from the negative-link count (§3.3).
  double lambda0() const { return lambda0_; }
  int iterations_run() const { return iterations_run_; }

 private:
  void SamplePost(text::PostId d);
  void SampleCommunity(text::PostId d);
  void SampleTopic(text::PostId d);
  void SampleTopicSparse(text::PostId d);
  /// Fills scratch with the Eq. (3) prior mass
  /// (n_ck+α)(n_ckt+ε)/(n_ck+Tε) for all k — the alias proposal weights.
  void FillTopicPriorWeights(int c, int t, std::vector<double>* weights);
  void SampleLinkJoint(graph::EdgeId e);
  void SampleLinkAlternating(graph::EdgeId e);

  void RemovePost(text::PostId d);
  void AddPost(text::PostId d);

  bool UseJointLinkSampling() const;

  /// Recomputes every derived-value cache (cached logs / lgammas of
  /// counter+prior terms and the link weight table) from the current
  /// counters. Called at the end of Init() and after a checkpoint restore
  /// installs new counter tables.
  void RebuildDerivedTables();
  /// Refreshes the cached log terms touched by one post add/remove.
  void RefreshPostDerived(int c, int k, int t,
                          std::span<const text::WordId> words);
  /// Refreshes the cached link weight for block (c, c2) after n_cc moved.
  void RefreshLinkDerived(int c, int c2);

  ColdConfig config_;
  const text::PostStore& posts_;
  const graph::Digraph* links_;
  bool use_network_;
  double lambda0_ = 0.1;

  std::unique_ptr<ColdState> state_;
  cold::RandomSampler sampler_;

  // Scratch buffers reused across sweeps to avoid per-post allocation.
  std::vector<double> weights_c_;
  std::vector<double> log_weights_k_;
  std::vector<double> weights_joint_;
  std::vector<double> link_src_weights_;
  std::vector<double> link_dst_weights_;

  // Per-sweep derived-value caches, refreshed incrementally as counters
  // change so the hot kernels read precomputed logs instead of calling
  // std::log per (topic, token). Each entry is a pure function of one
  // integer counter plus fixed priors, so incremental refresh is exact.
  std::vector<double> log_nck_alpha_;    // C*K: log(n_ck + alpha)
  std::vector<double> log_nck_teps_;     // C*K: log(n_ck + T*epsilon)
  std::vector<double> log_nckt_eps_;     // C*K*T: log(n_ckt + epsilon)
  std::vector<double> log_nkv_beta_;     // K*V: log(n_kv + beta)
  std::vector<double> lgamma_nk_vbeta_;  // K: lgamma(n_k + V*beta)
  std::vector<double> w_link_;  // C*C: (n_cc+l1)/(n_cc+l0+l1), Eq. 2

  // Sparse topic path (sparse_topic_kernel.h): per-(c, t) alias proposals
  // over the prior mass, the integer-indexed lgamma table that makes the
  // single-topic MH evaluation O(post length), and its weight scratch.
  // All of it is derived state — rebuilt deterministically from counters,
  // never serialized — and the bank is invalidated wholesale at every
  // sweep start so sweep-boundary state (where checkpoints land) is
  // independent of staleness carried within a sweep.
  bool sparse_active_ = false;
  TopicAliasBank alias_bank_;
  LGammaTable lgamma_len_;
  std::vector<double> alias_weights_;

  std::unique_ptr<ColdEstimates> accumulated_;
  int num_accumulated_ = 0;
  int iterations_run_ = 0;
  bool initialized_ = false;
  std::function<void(int)> sweep_callback_;
};

/// \brief Extracts Appendix-A point estimates from any counter state (shared
/// by the serial and parallel samplers).
ColdEstimates ExtractEstimates(const ColdState& state,
                               const ColdConfig& config, double lambda0);

/// \brief Computes lambda_0 = kappa * ln(n_neg / C^2), floored at lambda_1
/// so the Beta prior stays proper even on dense toy graphs.
double ComputeLambda0(const ColdConfig& config, int num_users,
                      int64_t num_links);

}  // namespace cold::core
