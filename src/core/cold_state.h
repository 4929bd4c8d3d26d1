// Latent assignments and sufficient-statistic counters of the collapsed
// Gibbs sampler (all counters named as in Table 1 / Eqs 1-3).
#pragma once

#include <cstdint>
#include <vector>

#include "core/cold_config.h"
#include "graph/digraph.h"
#include "text/post_store.h"
#include "util/rng.h"
#include "util/status.h"

namespace cold::core {

/// \brief All mutable sampler state: per-post (c, z), per-link (s, s'), and
/// the count matrices they induce.
///
/// Counter layout is row-major flat storage; accessors document the paper's
/// notation. The same struct backs the serial and the parallel sampler (the
/// latter extends it with per-worker delta tables; see parallel_state.h).
class ColdState {
 public:
  /// Builds zeroed state with the given dimensions.
  ColdState(int num_users, int num_communities, int num_topics,
            int num_time_slices, int vocab_size, int num_posts,
            int64_t num_links);

  // --- dimensions -------------------------------------------------------
  int U() const { return num_users_; }
  int C() const { return num_communities_; }
  int K() const { return num_topics_; }
  int T() const { return num_time_slices_; }
  int V() const { return vocab_size_; }

  // --- assignments ------------------------------------------------------
  /// Community of post d (c_ij in the paper).
  std::vector<int32_t> post_community;
  /// Topic of post d (z_ij).
  std::vector<int32_t> post_topic;
  /// Source-side community of link e (s_ii').
  std::vector<int32_t> link_src_community;
  /// Destination-side community of link e (s'_ii').
  std::vector<int32_t> link_dst_community;

  // --- counters ---------------------------------------------------------
  /// n_i^(c): posts and link endpoints of user i assigned to community c.
  int32_t& n_ic(int i, int c) {
    return n_ic_[static_cast<size_t>(i) * num_communities_ + c];
  }
  int32_t n_ic(int i, int c) const {
    return n_ic_[static_cast<size_t>(i) * num_communities_ + c];
  }
  /// n_i^(.): total posts + link endpoints of user i (constant during
  /// sampling).
  int32_t& n_i(int i) { return n_i_[static_cast<size_t>(i)]; }
  int32_t n_i(int i) const { return n_i_[static_cast<size_t>(i)]; }

  /// n_c^(k): posts assigned to community c with topic k.
  int32_t& n_ck(int c, int k) {
    return n_ck_[static_cast<size_t>(c) * num_topics_ + k];
  }
  int32_t n_ck(int c, int k) const {
    return n_ck_[static_cast<size_t>(c) * num_topics_ + k];
  }
  /// n_c^(.): posts assigned to community c.
  int32_t& n_c(int c) { return n_c_[static_cast<size_t>(c)]; }
  int32_t n_c(int c) const { return n_c_[static_cast<size_t>(c)]; }

  /// n_{ck}^{(t)}: posts with community c, topic k and time stamp t. Its
  /// time-marginal n_{ck}^{(.)} equals n_c^{(k)} (one stamp per post).
  int32_t& n_ckt(int c, int k, int t) {
    return n_ckt_[(static_cast<size_t>(c) * num_topics_ + k) *
                      num_time_slices_ +
                  t];
  }
  int32_t n_ckt(int c, int k, int t) const {
    return n_ckt_[(static_cast<size_t>(c) * num_topics_ + k) *
                      num_time_slices_ +
                  t];
  }

  /// n_k^(v): occurrences of word v assigned to topic k.
  int32_t& n_kv(int k, int v) {
    return n_kv_[static_cast<size_t>(k) * vocab_size_ + v];
  }
  int32_t n_kv(int k, int v) const {
    return n_kv_[static_cast<size_t>(k) * vocab_size_ + v];
  }
  /// n_k^(.): tokens assigned to topic k.
  int32_t& n_k(int k) { return n_k_[static_cast<size_t>(k)]; }
  int32_t n_k(int k) const { return n_k_[static_cast<size_t>(k)]; }

  /// n_{cc'}: positive links whose indicators are (c, c').
  int32_t& n_cc(int c, int c2) {
    return n_cc_[static_cast<size_t>(c) * num_communities_ + c2];
  }
  int32_t n_cc(int c, int c2) const {
    return n_cc_[static_cast<size_t>(c) * num_communities_ + c2];
  }

  /// Raw flat access for estimate extraction.
  const std::vector<int32_t>& n_ic_flat() const { return n_ic_; }
  const std::vector<int32_t>& n_i_flat() const { return n_i_; }
  const std::vector<int32_t>& n_ck_flat() const { return n_ck_; }
  const std::vector<int32_t>& n_c_flat() const { return n_c_; }
  const std::vector<int32_t>& n_ckt_flat() const { return n_ckt_; }
  const std::vector<int32_t>& n_kv_flat() const { return n_kv_; }
  const std::vector<int32_t>& n_k_flat() const { return n_k_; }
  const std::vector<int32_t>& n_cc_flat() const { return n_cc_; }

  /// Mutable flat access for the checkpoint restore path (counter tables
  /// are installed wholesale from a validated payload, then cross-checked
  /// against a recount via CheckInvariants) and for the parallel sampler's
  /// delta merge (parallel_state.h).
  std::vector<int32_t>& mut_n_ic_flat() { return n_ic_; }
  std::vector<int32_t>& mut_n_i_flat() { return n_i_; }
  std::vector<int32_t>& mut_n_ck_flat() { return n_ck_; }
  std::vector<int32_t>& mut_n_c_flat() { return n_c_; }
  std::vector<int32_t>& mut_n_ckt_flat() { return n_ckt_; }
  std::vector<int32_t>& mut_n_kv_flat() { return n_kv_; }
  std::vector<int32_t>& mut_n_k_flat() { return n_k_; }
  std::vector<int32_t>& mut_n_cc_flat() { return n_cc_; }

  /// \brief Verifies every counter equals a fresh recount from the
  /// assignment vectors; used by tests after sampling sweeps.
  cold::Status CheckInvariants(const text::PostStore& posts,
                               const graph::Digraph* links,
                               bool use_network) const;

 private:
  int num_users_;
  int num_communities_;
  int num_topics_;
  int num_time_slices_;
  int vocab_size_;

  std::vector<int32_t> n_ic_;
  std::vector<int32_t> n_i_;
  std::vector<int32_t> n_ck_;
  std::vector<int32_t> n_c_;
  std::vector<int32_t> n_ckt_;
  std::vector<int32_t> n_kv_;
  std::vector<int32_t> n_k_;
  std::vector<int32_t> n_cc_;
};

}  // namespace cold::core
