// Serialization of fitted ColdEstimates, so a model trained once can be
// shipped to prediction services (the offline/online split of §5.2).
//
// One format, "COLDARN1" (snapshot arena): a flat, pointer-free,
// CRC-checked layout designed to be mapped read-only and served zero-copy.
// A 64-byte header (magic, version, dims, top_m, payload CRC-32, payload
// size, header CRC-32) is followed by the five parameter arrays plus the
// precomputed per-user TopComm table (§5.2's offline artifact) as flat
// int32 rows, every section 64-byte aligned. Because TopComm ships in the
// file, opening an arena requires no per-user work — a serving hot-reload
// is validate + mmap + pointer swap. cold_train writes it, and every
// reader maps it (serve/snapshot_arena.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/cold_estimates.h"
#include "util/status.h"

namespace cold::core {

/// Arena sections are aligned to this boundary (cache line; also keeps
/// every double array 8-byte aligned within a page-aligned mapping).
inline constexpr size_t kArenaAlignment = 64;
/// Fixed arena header size; the payload starts at this file offset.
inline constexpr size_t kArenaHeaderBytes = 64;
inline constexpr char kArenaMagic[8] = {'C', 'O', 'L', 'D',
                                        'A', 'R', 'N', '1'};

/// \brief Byte offsets of each arena section relative to the payload start
/// (file offset kArenaHeaderBytes). Purely a function of the dimensions —
/// the file stores no offsets, so there is nothing to corrupt.
struct ArenaLayout {
  size_t pi = 0, theta = 0, eta = 0, phi = 0, psi = 0, top_comm = 0;
  size_t payload_bytes = 0;
};
ArenaLayout ComputeArenaLayout(int U, int C, int K, int T, int V, int top_m);

/// \brief Writes a COLDARN1 snapshot of `estimates` to `path`, atomically
/// (tmp + fsync + rename), with TopComm rows of min(top_communities, C)
/// entries baked in.
cold::Status SaveArenaSnapshot(const ColdEstimates& estimates,
                               int top_communities, const std::string& path);

/// \brief Validated pointers into an arena byte range.
struct ArenaView {
  EstimatesView view;
  const int32_t* top_comm = nullptr;
  int top_m = 0;
};

/// \brief Validates `size` bytes at `data` as a COLDARN1 arena: magic,
/// version, header CRC, plausible dimensions, exact size, payload CRC,
/// finite parameters, in-range TopComm entries. The returned pointers
/// alias `data`, which must stay mapped while they are in use.
cold::Result<ArenaView> ValidateArena(const void* data, size_t size);

}  // namespace cold::core
