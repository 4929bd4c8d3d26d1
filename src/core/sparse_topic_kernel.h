// Sparse (alias + Metropolis-Hastings) machinery for the Eq. (3) topic
// kernel.
//
// The collapsed topic conditional factors as
//
//   p(z = k | ...) ∝ [ (n_ck+α)(n_ckt+ε)/(n_ck+Tε) ]      (prior mass)
//                  × [ word / length Dirichlet-multinomial terms ]
//
// The prior mass changes slowly — one count per post move — so it is served
// as a stale proposal q(k) from a per-(community, time) alias table rebuilt
// lazily on a count-change budget (TopicAliasBank). A Metropolis-Hastings
// accept step against the *exact* log-weight (evaluated for the single
// proposed topic in O(post length) via cached logs plus an integer-indexed
// lgamma table) keeps the stationary distribution exact for any staleness:
//
//   accept k->k' with min(1, exp(lw(k') - lw(k)) * q(k)/q(k'))
//
// q has full support (every factor of the prior mass is > 0), which is the
// only requirement on an independence proposal. Per-draw cost is amortized
// O(post length), independent of K, versus the dense kernel's O(K * length).
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "core/alias_table.h"
#include "util/math_util.h"
#include "util/rng.h"

namespace cold::core {

/// Metropolis-Hastings proposals per sparse topic draw, in both trainers.
/// Exactness holds for any value >= 1; more steps mix faster per sweep at
/// proportionally higher cost.
inline constexpr int kSparseMhSteps = 2;

/// \brief Integer-indexed log-gamma table: At(n) = lgamma(n + offset).
///
/// Eq. (3)'s length-denominator ascending factorial is
/// lgamma(n_k + Vβ + len) - lgamma(n_k + Vβ) with integer n_k and len, so
/// with G[n] = lgamma(n + Vβ) it collapses to two table reads — removing
/// the one live lgamma per (topic, post) evaluation that dominates the
/// dense kernel. Entries are computed independently (one lgamma each, no
/// cumulative summation), so a table read is bit-identical to the live
/// call it replaces and no rounding error accumulates across the table.
class LGammaTable {
 public:
  /// \brief Builds G[n] for n in [0, max_n], capped at kMaxEntries (larger
  /// arguments fall back to live lgamma in At()).
  void Build(double offset, int64_t max_n);

  bool built() const { return !table_.empty(); }

  double At(int64_t n) const {
    if (n >= 0 && n < static_cast<int64_t>(table_.size())) {
      return table_[static_cast<size_t>(n)];
    }
    return cold::LGamma(static_cast<double>(n) + offset_);
  }

  /// \brief sum_{q=0}^{cnt-1} log(n + offset + q), matching
  /// cold::LogAscendingFactorial(n + offset, cnt) including its
  /// small-count log-loop form.
  double LogAscFactorial(int64_t n, int cnt) const {
    if (cnt <= 0) return 0.0;
    if (cnt < cold::kLogAscFactorialSmallCount) {
      const double base = static_cast<double>(n) + offset_;
      double acc = 0.0;
      for (int q = 0; q < cnt; ++q) acc += std::log(base + q);
      return acc;
    }
    return At(n + cnt) - At(n);
  }

  /// 8M entries (64 MB) — covers every realistic corpus; beyond it At()
  /// degrades gracefully to live lgamma.
  static constexpr int64_t kMaxEntries = int64_t{1} << 23;

 private:
  double offset_ = 0.0;
  std::vector<double> table_;
};

/// \brief Per-(community, time) alias tables over the Eq. (3) prior mass,
/// with lazy budgeted rebuilds.
///
/// Staleness policy: every post add/remove in community c bumps a per-
/// community counter; once it exceeds the rebuild budget, all T rows of c
/// are marked dirty and rebuilt from live counters on next touch. MH keeps
/// the chain exact regardless, so the budget trades proposal quality
/// against rebuild cost only. InvalidateAll() (called at every serial
/// sweep start and after checkpoint restore) makes sampler state at sweep
/// boundaries independent of alias staleness carried across sweeps — the
/// property that keeps checkpoint resume bit-identical.
class TopicAliasBank {
 public:
  /// \brief Sizes the bank for C x T rows of K topics and sets the
  /// count-change budget; marks everything dirty.
  void Reset(int num_communities, int num_time_slices, int num_topics,
             int rebuild_budget);

  /// Marks every row dirty and zeroes the per-community update counters.
  void InvalidateAll();

  /// \brief Records one count change in community c; trips the budget.
  void NoteCommunityUpdate(int c) {
    if (++updates_[static_cast<size_t>(c)] >= rebuild_budget_) {
      MarkCommunityDirty(c);
    }
  }

  bool RowDirty(int c, int t) const {
    return dirty_[Index(c, t)];
  }

  /// \brief Rebuilds row (c, t) from `weights` (size K) and clears its
  /// dirty bit.
  void RebuildRow(int c, int t, std::span<const double> weights) {
    rows_[Index(c, t)].Build(weights);
    dirty_[Index(c, t)] = false;
  }

  const AliasTable& Row(int c, int t) const { return rows_[Index(c, t)]; }

  int num_topics() const { return num_topics_; }
  int rebuild_budget() const { return rebuild_budget_; }

 private:
  size_t Index(int c, int t) const {
    return static_cast<size_t>(c) * static_cast<size_t>(num_time_slices_) +
           static_cast<size_t>(t);
  }
  void MarkCommunityDirty(int c);

  int num_communities_ = 0;
  int num_time_slices_ = 0;
  int num_topics_ = 0;
  int rebuild_budget_ = 1;
  std::vector<AliasTable> rows_;
  std::vector<uint8_t> dirty_;
  std::vector<int32_t> updates_;
};

/// \brief Runs `mh_steps` Metropolis-Hastings steps from topic `k_init`
/// using `proposal` as the (possibly stale) independence proposal and
/// `eval_log_weight(k)` as the exact unnormalized log target. Returns the
/// final topic.
///
/// RNG consumption is a deterministic function of sampler state: two draws
/// per proposal, plus one accept draw only when the log ratio is negative
/// (a self-proposal or dominating ratio accepts without drawing).
template <typename EvalFn>
int MhTopicDraw(const AliasTable& proposal, int k_init, int mh_steps,
                RandomSampler& rng, EvalFn&& eval_log_weight) {
  int k = k_init;
  double lw_k = eval_log_weight(k);
  for (int step = 0; step < mh_steps; ++step) {
    const int k2 = proposal.Sample(rng);
    if (k2 == k) continue;  // ratio is exactly 1: accept, nothing changes
    const double lw_k2 = eval_log_weight(k2);
    const double log_ratio = (lw_k2 - lw_k) + proposal.LogProbability(k) -
                             proposal.LogProbability(k2);
    if (log_ratio >= 0.0 || std::log(rng.Uniform()) < log_ratio) {
      k = k2;
      lw_k = lw_k2;
    }
  }
  return k;
}

}  // namespace cold::core
