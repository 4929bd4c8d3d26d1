// Hyper-parameters of the COLD model (§3, §6.5).
#pragma once

#include <cstdint>

#include "util/status.h"

namespace cold::core {

/// \brief How the link community indicators (s, s') are drawn in Eq. (2).
enum class LinkSampling {
  /// Joint C x C table when C <= 48, else alternating conditionals.
  kAuto,
  /// Exact joint draw from the C x C table (O(C^2) per link).
  kJoint,
  /// Gibbs-within-Gibbs: s | s' then s' | s (O(C) each); same stationary
  /// distribution, cheaper for large C.
  kAlternating,
};

/// \brief How the per-post topic indicator z is drawn in Eq. (3).
enum class TopicSampling {
  /// Dense below 32 topics, sparse at or above (where the O(K) scan starts
  /// to dominate and the alias+MH machinery pays for itself).
  kAuto,
  /// Exact O(K * length) scan over every topic (the PR-4 lgamma-collapsed
  /// kernel).
  kDense,
  /// Alias-table proposal from the prior mass plus Metropolis-Hastings
  /// correction — amortized O(length) per draw, same stationary
  /// distribution (sparse_topic_kernel.h).
  kSparse,
};

/// \brief Full configuration for COLD training.
///
/// Defaults follow §6.5: rho = 50/C, alpha = 50/K, beta = epsilon = 0.01,
/// lambda_1 = 0.1 and lambda_0 = kappa * ln(n_neg / C^2).
struct ColdConfig {
  /// C: number of communities.
  int num_communities = 20;
  /// K: number of topics.
  int num_topics = 20;

  /// Dirichlet prior on user community memberships pi; <= 0 means 50/C.
  double rho = -1.0;
  /// Dirichlet prior on community topic mixtures theta; <= 0 means 50/K.
  double alpha = -1.0;
  /// Dirichlet prior on topic word distributions phi.
  double beta = 0.01;
  /// Dirichlet prior on temporal distributions psi.
  double epsilon = 0.01;
  /// Beta prior parts for eta; lambda_0 is derived from the negative-link
  /// count (§3.3): lambda_0 = kappa * ln(n_neg / C^2).
  double lambda1 = 0.1;
  double kappa = 1.0;

  /// Gibbs schedule: total sweeps, burn-in sweeps before estimates are
  /// accumulated, and the lag between accumulated samples.
  int iterations = 100;
  int burn_in = 50;
  int sample_lag = 5;

  uint64_t seed = 42;

  /// When false this is the COLD-NoLink ablation (§6.1 baseline 4): the
  /// network component is removed and memberships are learned from posts
  /// alone.
  bool use_network = true;

  /// |TopComm(i)| for the diffusion predictor (§5.2; the paper uses 5).
  int top_communities = 5;

  /// V: vocabulary size. 0 (the default) derives it as max-word-id + 1
  /// over the training posts — which silently under-sizes n_kv / phi when
  /// a held-out split contains higher word ids than the train split, so
  /// callers holding the dataset-wide Vocabulary should pass its size()
  /// here. Training fails with InvalidArgument if a post contains a word
  /// id >= an explicit vocab_size.
  int vocab_size = 0;

  LinkSampling link_sampling = LinkSampling::kAuto;

  TopicSampling topic_sampling = TopicSampling::kAuto;

  /// Resolved sparse-path switch: explicit setting, or the kAuto K
  /// threshold.
  bool UseSparseTopicSampling() const {
    switch (topic_sampling) {
      case TopicSampling::kDense:
        return false;
      case TopicSampling::kSparse:
        return true;
      case TopicSampling::kAuto:
        return num_topics >= 32;
    }
    return false;
  }

  double ResolvedRho() const { return rho > 0 ? rho : 50.0 / num_communities; }
  double ResolvedAlpha() const { return alpha > 0 ? alpha : 50.0 / num_topics; }

  /// Validates ranges; returns kInvalidArgument describing the first
  /// offending field.
  cold::Status Validate() const;
};

}  // namespace cold::core
