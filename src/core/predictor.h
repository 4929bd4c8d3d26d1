// Diffusion prediction and the other inference-time tasks built on the
// extracted community-level representation (§5.2, §6.2, §6.3).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/cold_estimates.h"
#include "text/post_store.h"
#include "util/status.h"

namespace cold::core {

/// \brief Inference-time predictor over fitted ColdEstimates.
///
/// Construction performs the paper's offline step: pre-collecting each
/// user's TopComm set (§5.2), so the per-triple online prediction is a
/// weighted linear combination of O(K |w_d|) cost.
///
/// Two backing modes share one prediction path:
///  - owned: constructed from ColdEstimates (moved into shared storage);
///    TopComm is computed here, the offline step proper.
///  - view: constructed over an EstimatesView plus an externally
///    precomputed TopComm table (e.g. an mmap'd snapshot arena, which bakes
///    the table in at save time) and a keepalive handle pinning the backing
///    bytes. Construction is O(1) — no copy, no allocation proportional to
///    the model — which is what makes serving hot-reload a pointer swap.
/// Copies are cheap and safe in both modes: the parameter storage is held
/// by shared_ptr, so views never dangle.
class ColdPredictor {
 public:
  /// \param top_communities |TopComm(i)|; the paper fixes 5.
  explicit ColdPredictor(ColdEstimates estimates, int top_communities = 5);

  /// View mode: predict straight out of caller-owned storage. `top_comm`
  /// must hold `view.U * min(top_communities, view.C)` entries, row-major
  /// per user, each row sorted by descending pi (exactly what
  /// ColdEstimates::TopCommunitiesForUser produces). `keepalive` pins the
  /// bytes behind both `view` and `top_comm` for this predictor's lifetime.
  ColdPredictor(const EstimatesView& view,
                std::shared_ptr<const void> keepalive,
                std::span<const int32_t> top_comm, int top_communities);

  const EstimatesView& estimates() const { return view_; }

  /// \brief True iff `u` indexes a user known to the model.
  bool ValidUser(text::UserId u) const { return u >= 0 && u < view_.U; }

  /// \brief True iff `w` indexes a vocabulary word known to the model.
  bool ValidWord(text::WordId w) const { return w >= 0 && w < view_.V; }

  /// \brief Validates a (author, words) query against the model's
  /// dimensions: OutOfRange naming the offending id on failure.
  ///
  /// Serving entry points call this before the fast path; the prediction
  /// methods themselves also guard and return a sentinel (empty vector /
  /// NaN / -1) rather than indexing out of bounds, so hostile inputs can
  /// never corrupt memory.
  cold::Status ValidateQuery(text::UserId author,
                             std::span<const text::WordId> words) const;

  /// \brief P(k | d, i), Eq. (5): topic posterior of a message given its
  /// words and its publisher's interests. Returned vector sums to 1.
  /// Sentinel: empty vector when `author` or any word is out of range.
  std::vector<double> TopicPosterior(std::span<const text::WordId> words,
                                     text::UserId author) const;

  /// \brief P(i, i' | k), Eq. (6): influence of i on i' at topic k through
  /// their top communities.
  double TopicInfluence(text::UserId i, text::UserId i2, int k) const;

  /// \brief P(i, i', d), Eq. (7): probability that post d spreads from i
  /// to i'. Sentinel: NaN on out-of-range users or words.
  double DiffusionProbability(text::UserId i, text::UserId i2,
                              std::span<const text::WordId> words) const;

  /// \brief Eq. (7) given a topic posterior already computed by
  /// TopicPosterior(words, i) — the serving layer's diffusion fan-out uses
  /// this so one posterior (the expensive O(K |w_d|) half) is shared
  /// across every candidate scored against the same post. Sentinel: NaN
  /// on out-of-range users or a posterior of the wrong length.
  double DiffusionFromPosterior(text::UserId i, text::UserId i2,
                                std::span<const double> topic_posterior) const;

  /// \brief Link-prediction score P_{i->i'} = sum_{s,s'} pi_is pi_i's'
  /// eta_ss' (§6.2); uses the full membership vectors, not TopComm.
  /// Sentinel: NaN on out-of-range users.
  double LinkProbability(text::UserId i, text::UserId i2) const;

  /// \brief Per-time-slice score of a previously unseen post (§6.3):
  /// s_t = sum_c pi_ic sum_k theta_ck psi_kct prod_l phi_k,w. Scores are
  /// normalized to a distribution over t. Sentinel: empty vector on
  /// out-of-range author or words.
  std::vector<double> TimestampScores(std::span<const text::WordId> words,
                                      text::UserId author) const;

  /// \brief argmax_t TimestampScores. Sentinel: -1 on invalid inputs.
  int PredictTimestamp(std::span<const text::WordId> words,
                       text::UserId author) const;

  /// \brief log p(w_d) for one held-out post under §6.2's mixture
  /// p(w_d) = sum_c pi_ic sum_k theta_ck prod_l phi_k,w_dl.
  double LogPostProbability(std::span<const text::WordId> words,
                            text::UserId author) const;

  /// \brief Corpus perplexity exp(-sum_d log p(w_d) / sum_d N_d) (§6.2).
  double Perplexity(const text::PostStore& test_posts) const;

  /// TopComm(i) as precomputed at construction (or baked into the snapshot
  /// arena in view mode). Sentinel: an empty span on out-of-range `i`.
  std::span<const int32_t> TopComm(text::UserId i) const {
    if (!ValidUser(i)) return {};
    return {top_comm_data_ + static_cast<size_t>(i) * top_communities_,
            static_cast<size_t>(top_communities_)};
  }

  /// \brief A time-stamped bag of words from a user unseen at training
  /// time, for fold-in.
  struct FoldInPost {
    std::vector<text::WordId> words;
    text::TimeSlice time = 0;
  };

  /// \brief Cold-start membership inference: estimates pi for a NEW user
  /// from her posts alone, holding theta/phi/psi fixed (EM over the
  /// per-post community responsibilities under the trained model). With no
  /// posts the symmetric prior (uniform) is returned.
  std::vector<double> FoldInMembership(std::span<const FoldInPost> posts,
                                       int iterations = 10,
                                       double rho = 0.5) const;

  /// \brief Eq. (7) with an explicit membership vector for the candidate
  /// side — lets fold-in users be scored as potential retweeters.
  double DiffusionProbabilityToNewUser(
      text::UserId publisher, std::span<const double> candidate_pi,
      std::span<const text::WordId> words) const;

 private:
  /// Per-topic log word likelihood sum_l log phi_k,w_l.
  void WordLogLikelihoods(std::span<const text::WordId> words,
                          std::vector<double>* out) const;

  // Owned mode: `owned_` holds the estimates and `top_comm_store_` the
  // flat TopComm table; view mode: both are null and `keepalive_` pins the
  // external storage. `view_`/`top_comm_data_` always point at whichever
  // backing is active — shared_ptr storage keeps them valid across copies.
  std::shared_ptr<const ColdEstimates> owned_;
  std::shared_ptr<const std::vector<int32_t>> top_comm_store_;
  std::shared_ptr<const void> keepalive_;
  EstimatesView view_;
  const int32_t* top_comm_data_ = nullptr;
  int top_communities_ = 0;
};

}  // namespace cold::core
