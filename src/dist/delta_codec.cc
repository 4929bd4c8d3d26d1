#include "dist/delta_codec.h"

#include <chrono>
#include <cstring>
#include <type_traits>

#include "dist/net_fault.h"
#include "util/fileio.h"

namespace cold::dist {

namespace {

constexpr size_t kHeaderBytes = 36;

// Little append/cursor helpers mirroring checkpoint.cc's serializer style:
// fixed-width host-endian fields, every read bounds-checked.

template <typename T>
void Append(std::string* out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

class Cursor {
 public:
  explicit Cursor(std::string_view data) : data_(data) {}

  template <typename T>
  bool Read(T* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (data_.size() - pos_ < sizeof(T)) return false;
    std::memcpy(out, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  bool exhausted() const { return pos_ == data_.size(); }

  /// True when `count` entries of `entry_bytes` each fit in the bytes
  /// left, so a count read off the wire can be trusted to size a reserve.
  bool Holds(uint64_t count, size_t entry_bytes) const {
    return count <= (data_.size() - pos_) / entry_bytes;
  }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

cold::Status Truncated(const char* what) {
  return cold::Status::IOError(std::string("truncated ") + what +
                               " payload");
}

}  // namespace

cold::Status WriteFrame(Transport* transport, FrameType type,
                        int32_t sender_rank, uint64_t superstep,
                        std::string_view payload, int timeout_ms) {
  NetFaultInjector::Global().MaybeStall();
  // One contiguous buffer, one Send: the transport's send mutex then makes
  // the whole frame atomic against a concurrent heartbeat.
  std::string wire;
  wire.reserve(kHeaderBytes + payload.size());
  Append(&wire, kWireMagic);
  Append(&wire, kWireVersion);
  Append(&wire, static_cast<uint32_t>(type));
  Append(&wire, sender_rank);
  Append(&wire, superstep);
  Append(&wire, static_cast<uint64_t>(payload.size()));
  Append(&wire, cold::Crc32(payload));
  wire.append(payload);
  if (type == FrameType::kDelta || type == FrameType::kGlobal) {
    if (NetFaultInjector::Global().OnDataFrame(superstep, &wire,
                                               kHeaderBytes) ==
        NetFaultMode::kDrop) {
      return cold::Status::OK();  // the frame evaporates on the "wire"
    }
  }
  return transport->SendDeadline(wire.data(), wire.size(), timeout_ms);
}

cold::Result<Frame> ReadFrame(Transport* transport, uint64_t max_payload,
                              int timeout_ms) {
  // Header and payload share one wall-clock budget.
  const auto start = std::chrono::steady_clock::now();
  char header[kHeaderBytes];
  COLD_RETURN_NOT_OK(
      transport->RecvDeadline(header, sizeof(header), timeout_ms));
  Cursor cursor(std::string_view(header, sizeof(header)));
  uint32_t magic = 0, version = 0, type = 0, crc = 0;
  uint64_t payload_size = 0;
  Frame frame;
  cursor.Read(&magic);
  cursor.Read(&version);
  cursor.Read(&type);
  cursor.Read(&frame.sender_rank);
  cursor.Read(&frame.superstep);
  cursor.Read(&payload_size);
  cursor.Read(&crc);
  if (magic != kWireMagic) {
    return cold::Status::IOError("bad frame magic (not a COLD dist peer?)");
  }
  if (version != kWireVersion) {
    return cold::Status::IOError("unsupported wire version " +
                                 std::to_string(version));
  }
  if (type < static_cast<uint32_t>(FrameType::kHello) ||
      type > static_cast<uint32_t>(FrameType::kHeartbeat)) {
    return cold::Status::IOError("unknown frame type " +
                                 std::to_string(type));
  }
  if (payload_size > max_payload) {
    return cold::Status::IOError("frame payload of " +
                                 std::to_string(payload_size) +
                                 " bytes exceeds the sanity limit");
  }
  frame.type = static_cast<FrameType>(type);
  frame.payload.resize(payload_size);
  if (payload_size > 0) {
    int remaining_ms = timeout_ms;
    if (timeout_ms >= 0) {
      auto spent = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - start)
                       .count();
      remaining_ms = spent >= timeout_ms
                         ? 0
                         : timeout_ms - static_cast<int>(spent);
    }
    COLD_RETURN_NOT_OK(transport->RecvDeadline(frame.payload.data(),
                                               payload_size, remaining_ms));
  }
  if (cold::Crc32(frame.payload) != crc) {
    return cold::Status::IOError("frame payload CRC mismatch");
  }
  return frame;
}

std::string EncodeHello(const HelloPayload& hello) {
  std::string out;
  Append(&out, hello.rank);
  Append(&out, hello.num_nodes);
  Append(&out, hello.seed);
  Append(&out, hello.iterations);
  Append(&out, hello.num_communities);
  Append(&out, hello.num_topics);
  Append(&out, hello.data_fingerprint);
  Append(&out, static_cast<uint64_t>(hello.checkpoint_sweeps.size()));
  for (int32_t sweep : hello.checkpoint_sweeps) Append(&out, sweep);
  return out;
}

cold::Status DecodeHello(std::string_view payload, HelloPayload* out) {
  Cursor cursor(payload);
  uint64_t num_sweeps = 0;
  if (!cursor.Read(&out->rank) || !cursor.Read(&out->num_nodes) ||
      !cursor.Read(&out->seed) || !cursor.Read(&out->iterations) ||
      !cursor.Read(&out->num_communities) ||
      !cursor.Read(&out->num_topics) ||
      !cursor.Read(&out->data_fingerprint) || !cursor.Read(&num_sweeps)) {
    return Truncated("hello");
  }
  if (!cursor.Holds(num_sweeps, sizeof(int32_t))) return Truncated("hello");
  out->checkpoint_sweeps.clear();
  out->checkpoint_sweeps.reserve(num_sweeps);
  for (uint64_t i = 0; i < num_sweeps; ++i) {
    int32_t sweep = 0;
    if (!cursor.Read(&sweep)) return Truncated("hello");
    out->checkpoint_sweeps.push_back(sweep);
  }
  if (!cursor.exhausted()) return Truncated("hello");
  return cold::Status::OK();
}

std::string EncodeWelcome(const WelcomePayload& welcome) {
  std::string out;
  Append(&out, welcome.resume_sweep);
  return out;
}

cold::Status DecodeWelcome(std::string_view payload, WelcomePayload* out) {
  Cursor cursor(payload);
  if (!cursor.Read(&out->resume_sweep) || !cursor.exhausted()) {
    return Truncated("welcome");
  }
  return cold::Status::OK();
}

std::string EncodeUpdate(const core::SuperstepUpdate& update) {
  std::string out;
  out.reserve(16 + update.count_deltas.size() * 8 +
              (update.post_updates.size() + update.link_updates.size()) * 12);
  Append(&out, static_cast<uint64_t>(update.count_deltas.size()));
  for (const auto& [idx, delta] : update.count_deltas) {
    Append(&out, idx);
    Append(&out, delta);
  }
  Append(&out, static_cast<uint64_t>(update.post_updates.size()));
  for (const auto& entry : update.post_updates) {
    Append(&out, entry[0]);
    Append(&out, entry[1]);
    Append(&out, entry[2]);
  }
  Append(&out, static_cast<uint64_t>(update.link_updates.size()));
  for (const auto& entry : update.link_updates) {
    Append(&out, entry[0]);
    Append(&out, entry[1]);
    Append(&out, entry[2]);
  }
  return out;
}

cold::Status DecodeUpdate(std::string_view payload,
                          core::SuperstepUpdate* out) {
  Cursor cursor(payload);
  uint64_t n = 0;
  if (!cursor.Read(&n) || !cursor.Holds(n, 2 * sizeof(int32_t))) {
    return Truncated("update");
  }
  out->count_deltas.clear();
  out->count_deltas.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    uint32_t idx = 0;
    int32_t delta = 0;
    if (!cursor.Read(&idx) || !cursor.Read(&delta)) {
      return Truncated("update");
    }
    out->count_deltas.emplace_back(idx, delta);
  }
  if (!cursor.Read(&n) || !cursor.Holds(n, 3 * sizeof(int32_t))) {
    return Truncated("update");
  }
  out->post_updates.clear();
  out->post_updates.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    std::array<int32_t, 3> entry{};
    if (!cursor.Read(&entry[0]) || !cursor.Read(&entry[1]) ||
        !cursor.Read(&entry[2])) {
      return Truncated("update");
    }
    out->post_updates.push_back(entry);
  }
  if (!cursor.Read(&n) || !cursor.Holds(n, 3 * sizeof(int32_t))) {
    return Truncated("update");
  }
  out->link_updates.clear();
  out->link_updates.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    std::array<int32_t, 3> entry{};
    if (!cursor.Read(&entry[0]) || !cursor.Read(&entry[1]) ||
        !cursor.Read(&entry[2])) {
      return Truncated("update");
    }
    out->link_updates.push_back(entry);
  }
  if (!cursor.exhausted()) return Truncated("update");
  return cold::Status::OK();
}

}  // namespace cold::dist
