// Read-only mmap of a COLDARN1 model snapshot (core/model_io.h): the one
// model reader, used by ModelService and cold_predict alike. One
// ArenaSnapshot is one immutable generation: requests pin it via
// shared_ptr, so a hot-reload maps the new file, validates it, and swaps a
// pointer — the old mapping unmaps itself when the last in-flight request
// drops its reference. Validation (CRC + finiteness) runs
// once at open time, off the serving fast path; a corrupt or torn file is
// rejected here and the previous generation keeps serving.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "core/model_io.h"
#include "core/predictor.h"
#include "util/status.h"

namespace cold::serve {

class ArenaSnapshot {
 public:
  /// \brief Maps `path` read-only and validates it as a COLDARN1 arena.
  /// Returns the snapshot behind shared_ptr so predictors can pin it.
  static cold::Result<std::shared_ptr<const ArenaSnapshot>> Map(
      const std::string& path);

  ~ArenaSnapshot();
  ArenaSnapshot(const ArenaSnapshot&) = delete;
  ArenaSnapshot& operator=(const ArenaSnapshot&) = delete;

  const core::EstimatesView& view() const { return arena_.view; }
  const int32_t* top_comm() const { return arena_.top_comm; }
  int top_m() const { return arena_.top_m; }
  size_t size_bytes() const { return size_; }
  const std::string& path() const { return path_; }

 private:
  ArenaSnapshot(std::string path, void* base, size_t size,
                core::ArenaView arena)
      : path_(std::move(path)), base_(base), size_(size), arena_(arena) {}

  std::string path_;
  void* base_ = nullptr;
  size_t size_ = 0;
  core::ArenaView arena_;
};

/// \brief A view-mode ColdPredictor over `snapshot`'s arrays and its baked
/// TopComm table, pinning the mapping for the predictor's lifetime. O(1):
/// nothing is copied or recomputed.
std::shared_ptr<const core::ColdPredictor> ViewPredictor(
    std::shared_ptr<const ArenaSnapshot> snapshot);

}  // namespace cold::serve
