// Versioned wire format for the distributed trainer (DESIGN.md §12).
//
// Every message is one length-prefixed frame:
//
//   [0..4)   magic 0x434F4C44 ("COLD")
//   [4..8)   wire version (2)
//   [8..12)  frame type (FrameType)
//   [12..16) sender rank
//   [16..24) superstep index the frame belongs to (0 for handshake)
//   [24..32) payload size in bytes
//   [32..36) payload CRC-32 (same polynomial/implementation as the
//            checkpoint files, util/fileio.h)
//   [36..)   payload
//
// Fields are host-endian, matching the checkpoint format's portability
// contract (homogeneous clusters; a mismatched peer is rejected by the
// magic/version check). Every payload is CRC-verified before decoding, so
// a torn or corrupted stream surfaces as IOError instead of poisoning the
// deterministic replica state.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/parallel_sampler.h"
#include "dist/transport.h"
#include "util/status.h"

namespace cold::dist {

inline constexpr uint32_t kWireMagic = 0x434F4C44;  // "COLD"
inline constexpr uint32_t kWireVersion = 2;

/// Frames exchanged between worker nodes and the rank-0 coordinator.
enum class FrameType : uint32_t {
  kHello = 1,    // worker -> coordinator: config echo + resumable sweeps
  kWelcome = 2,  // coordinator -> worker: negotiated resume sweep
  kDelta = 3,    // worker -> coordinator: local SuperstepUpdate
  kGlobal = 4,   // coordinator -> worker: merged SuperstepUpdate
  kAbort = 5,    // either direction: unrecoverable error, tear down
  kHeartbeat = 6,  // either direction: liveness beacon, no payload; never
                   // touches model state and may interleave with any frame
};

/// \brief One decoded frame.
struct Frame {
  FrameType type = FrameType::kAbort;
  int32_t sender_rank = -1;
  uint64_t superstep = 0;
  std::string payload;
};

/// \brief Handshake payload: the worker's identity plus everything the
/// coordinator must verify is identical cluster-wide before training, and
/// the sweeps the worker could resume from (validated local checkpoints).
struct HelloPayload {
  int32_t rank = 0;
  int32_t num_nodes = 0;
  uint64_t seed = 0;
  int32_t iterations = 0;
  int32_t num_communities = 0;
  int32_t num_topics = 0;
  uint64_t data_fingerprint = 0;
  std::vector<int32_t> checkpoint_sweeps;
};

/// \brief Handshake reply: the sweep every node must resume from (-1 for a
/// fresh start).
struct WelcomePayload {
  int32_t resume_sweep = -1;
};

/// \brief Sends one frame (header + CRC'd payload) as a SINGLE transport
/// send, so concurrent senders (training thread + heartbeat thread) can
/// never interleave bytes inside a frame. `timeout_ms` bounds the whole
/// send (kDeadlineExceeded on expiry — the stream is then torn); < 0
/// blocks. Data frames (kDelta/kGlobal) consult the process-wide
/// NetFaultInjector, and every frame honors an armed stall.
cold::Status WriteFrame(Transport* transport, FrameType type,
                        int32_t sender_rank, uint64_t superstep,
                        std::string_view payload, int timeout_ms = -1);

/// \brief Receives and fully verifies one frame. `max_payload` bounds the
/// allocation a malformed size field can trigger; `timeout_ms` bounds the
/// whole frame (header + payload share one budget), < 0 blocks.
cold::Result<Frame> ReadFrame(Transport* transport,
                              uint64_t max_payload = uint64_t{1} << 31,
                              int timeout_ms = -1);

std::string EncodeHello(const HelloPayload& hello);
cold::Status DecodeHello(std::string_view payload, HelloPayload* out);

std::string EncodeWelcome(const WelcomePayload& welcome);
cold::Status DecodeWelcome(std::string_view payload, WelcomePayload* out);

std::string EncodeUpdate(const core::SuperstepUpdate& update);
cold::Status DecodeUpdate(std::string_view payload,
                          core::SuperstepUpdate* out);

}  // namespace cold::dist
