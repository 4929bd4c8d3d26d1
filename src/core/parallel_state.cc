#include "core/parallel_state.h"

#include <string>

namespace cold::core {

ParallelColdState::ParallelColdState(int num_users, int num_communities,
                                     int num_topics, int num_time_slices,
                                     int vocab_size, int num_posts,
                                     int64_t num_links)
    : ColdState(num_users, num_communities, num_topics, num_time_slices,
                vocab_size, num_posts, num_links) {
  off_ic_ = 0;
  off_ck_ = off_ic_ + n_ic_flat().size();
  off_c_ = off_ck_ + n_ck_flat().size();
  off_ckt_ = off_c_ + n_c_flat().size();
  off_kv_ = off_ckt_ + n_ckt_flat().size();
  off_k_ = off_kv_ + n_kv_flat().size();
  off_cc_ = off_k_ + n_k_flat().size();
  delta_size_ = off_cc_ + n_cc_flat().size();
}

void ParallelColdState::EnsureDeltaBuffers(size_t num_workers) {
  while (deltas_.size() < num_workers) deltas_.emplace_back(delta_size_, 0);
}

int32_t& ParallelColdState::CanonicalAt(size_t idx) {
  if (idx < off_ck_) return mut_n_ic_flat()[idx - off_ic_];
  if (idx < off_c_) return mut_n_ck_flat()[idx - off_ck_];
  if (idx < off_ckt_) return mut_n_c_flat()[idx - off_c_];
  if (idx < off_kv_) return mut_n_ckt_flat()[idx - off_ckt_];
  if (idx < off_k_) return mut_n_kv_flat()[idx - off_kv_];
  if (idx < off_cc_) return mut_n_k_flat()[idx - off_k_];
  return mut_n_cc_flat()[idx - off_cc_];
}

void ParallelColdState::MergeDeltaRange(size_t begin, size_t end) {
  for (size_t idx = begin; idx < end; ++idx) {
    int32_t total = 0;
    for (std::vector<int32_t>& buf : deltas_) {
      total += buf[idx];
      buf[idx] = 0;
    }
    if (total != 0) CanonicalAt(idx) += total;
  }
}

void ParallelColdState::DrainDeltas(
    std::vector<std::pair<uint32_t, int32_t>>* out) {
  out->clear();
  for (size_t idx = 0; idx < delta_size_; ++idx) {
    int32_t total = 0;
    for (std::vector<int32_t>& buf : deltas_) {
      total += buf[idx];
      buf[idx] = 0;
    }
    if (total != 0) {
      out->emplace_back(static_cast<uint32_t>(idx), total);
    }
  }
}

cold::Status ParallelColdState::ApplyDeltaEntries(
    const std::vector<std::pair<uint32_t, int32_t>>& entries) {
  for (const auto& [idx, delta] : entries) {
    if (idx >= delta_size_) {
      return cold::Status::OutOfRange(
          "delta index " + std::to_string(idx) + " outside the " +
          std::to_string(delta_size_) + "-cell table");
    }
    CanonicalAt(idx) += delta;
  }
  return cold::Status::OK();
}

}  // namespace cold::core
