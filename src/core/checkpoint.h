// Durable training checkpoints for the Gibbs samplers.
//
// A checkpoint captures the *complete* sampler state — assignments, count
// tables, hyperparameter echo, sweep index, and serialized RNG engine
// state — so a resumed run continues the exact draw sequence and produces
// bit-identical final estimates (GraphLab's snapshot-based fault tolerance,
// re-created for the shared-memory reproduction; see DESIGN.md §Fault
// tolerance).
//
// On-disk format (host-endian, not portable across byte orders):
//
//   [0..8)   magic "COLDCKP1"
//   [8..48)  header: format version, flavor (serial/parallel), sweep,
//            dataset fingerprint, payload size, payload CRC-32, and a
//            CRC-32 over the header bytes themselves
//   [48..)   payload (flavor-specific; see checkpoint.cc)
//
// Durability: every file is written via the atomic tmp+fsync+rename path
// (util/fileio.h) and rotated keep-last-N, so a crash mid-write can never
// destroy the previous checkpoint, and a corrupt newest file is detected
// by CRC and skipped in favour of the previous rotation entry.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/digraph.h"
#include "text/post_store.h"
#include "util/status.h"

namespace cold::core {

/// Bumped whenever a payload layout changes. Files of any other version are
/// rejected, not converted: checkpoints are machine-local scratch, not an
/// interchange format.
inline constexpr uint32_t kCheckpointFormatVersion = 2;

/// \brief Which trainer wrote the checkpoint; payloads are not
/// interchangeable (only the serial flavor carries an RNG state and a
/// sample accumulator).
enum class CheckpointFlavor : uint32_t { kSerial = 0, kParallel = 1 };

/// \brief Parsed header of a checkpoint file.
struct CheckpointMeta {
  uint32_t format_version = kCheckpointFormatVersion;
  CheckpointFlavor flavor = CheckpointFlavor::kSerial;
  /// 1-based count of completed sweeps captured by the payload.
  int32_t sweep = 0;
  /// DataFingerprint() of the training data, so a resume against the wrong
  /// dataset is rejected up front instead of corrupting silently.
  uint64_t data_fingerprint = 0;
};

/// \brief A checkpoint read back from disk with all integrity checks
/// passed; `payload` feeds the sampler's RestoreState().
struct LoadedCheckpoint {
  CheckpointMeta meta;
  std::string payload;
  std::string path;
};

struct CheckpointOptions {
  /// Directory holding the rotation; empty disables checkpointing.
  std::string dir;
  /// Write a checkpoint every `every` sweeps (0 disables periodic writes).
  int every = 0;
  /// Rotation depth: how many most-recent checkpoints are kept.
  int keep_last = 3;
};

/// \brief Owns one checkpoint directory: durable writes, keep-last-N
/// rotation, and corruption-tolerant discovery of the newest usable
/// checkpoint.
class CheckpointManager {
 public:
  explicit CheckpointManager(CheckpointOptions options)
      : options_(std::move(options)) {}

  const CheckpointOptions& options() const { return options_; }

  /// True when periodic checkpoint writes are configured.
  bool enabled() const { return !options_.dir.empty() && options_.every > 0; }

  /// True when `sweep` falls on the configured cadence.
  bool ShouldCheckpoint(int sweep) const {
    return enabled() && sweep % options_.every == 0;
  }

  /// \brief Creates the checkpoint directory (parents included).
  cold::Status Init() const;

  /// \brief Durably writes the checkpoint for `meta.sweep` (atomic
  /// tmp+fsync+rename), then prunes rotation entries beyond keep_last.
  cold::Status Write(const CheckpointMeta& meta,
                     std::string_view payload) const;

  /// \brief Returns the newest checkpoint that passes every integrity
  /// check. Corrupt or unreadable newer files are logged and skipped
  /// (refuse-and-fall-back); NotFound when no usable checkpoint exists.
  cold::Result<LoadedCheckpoint> LoadLatest() const;

  /// \brief Checkpoint files currently in the directory, ascending by
  /// sweep.
  std::vector<std::pair<int, std::string>> ListFiles() const;

  /// \brief Reads and fully verifies one checkpoint file: magic, header
  /// CRC, format version, payload size, payload CRC.
  static cold::Result<LoadedCheckpoint> ReadFile(const std::string& path);

  /// File name for a sweep: "ckpt-<zero-padded sweep>.cold".
  static std::string FileName(int sweep);

 private:
  CheckpointOptions options_;
};

/// \brief FNV-1a fingerprint over the training data (posts: author, time,
/// words; links: edge list). Stored in every checkpoint header and checked
/// on resume.
uint64_t DataFingerprint(const text::PostStore& posts,
                         const graph::Digraph* links);

}  // namespace cold::core
