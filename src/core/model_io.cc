#include "core/model_io.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

#include "util/fileio.h"

namespace cold::core {

namespace {

size_t AlignUp(size_t x) {
  return (x + kArenaAlignment - 1) & ~(kArenaAlignment - 1);
}

/// Fixed little-endian field offsets within the 64-byte arena header.
/// [0,8) magic, [8,12) version, [12,32) dims U C K T V, [32,36) top_m,
/// [36,40) payload CRC-32, [40,48) payload bytes, [48,52) header CRC-32
/// over [0,48), [52,64) zero padding.
constexpr uint32_t kArenaVersion = 1;
constexpr size_t kOffVersion = 8;
constexpr size_t kOffDims = 12;
constexpr size_t kOffTopM = 32;
constexpr size_t kOffPayloadCrc = 36;
constexpr size_t kOffPayloadBytes = 40;
constexpr size_t kOffHeaderCrc = 48;

cold::Status CheckFiniteRaw(const double* data, size_t n, const char* name) {
  for (size_t i = 0; i < n; ++i) {
    if (!std::isfinite(data[i])) {
      return cold::Status::IOError("non-finite value in arena array '" +
                                   std::string(name) + "' at index " +
                                   std::to_string(i));
    }
  }
  return cold::Status::OK();
}

}  // namespace

ArenaLayout ComputeArenaLayout(int U, int C, int K, int T, int V,
                               int top_m) {
  ArenaLayout layout;
  size_t off = 0;
  layout.pi = off;
  off = AlignUp(off + static_cast<size_t>(U) * C * sizeof(double));
  layout.theta = off;
  off = AlignUp(off + static_cast<size_t>(C) * K * sizeof(double));
  layout.eta = off;
  off = AlignUp(off + static_cast<size_t>(C) * C * sizeof(double));
  layout.phi = off;
  off = AlignUp(off + static_cast<size_t>(K) * V * sizeof(double));
  layout.psi = off;
  off = AlignUp(off + static_cast<size_t>(K) * C * T * sizeof(double));
  layout.top_comm = off;
  off = AlignUp(off + static_cast<size_t>(U) * top_m * sizeof(int32_t));
  layout.payload_bytes = off;
  return layout;
}

cold::Status SaveArenaSnapshot(const ColdEstimates& estimates,
                               int top_communities,
                               const std::string& path) {
  if (estimates.U < 0 || estimates.C < 1 || estimates.K < 1 ||
      estimates.T < 1 || estimates.V < 1) {
    return cold::Status::InvalidArgument("estimates have invalid dimensions");
  }
  const size_t U = static_cast<size_t>(estimates.U);
  const size_t C = static_cast<size_t>(estimates.C);
  const size_t K = static_cast<size_t>(estimates.K);
  if (estimates.pi.size() != U * C || estimates.theta.size() != C * K ||
      estimates.eta.size() != C * C ||
      estimates.phi.size() != K * static_cast<size_t>(estimates.V) ||
      estimates.psi.size() != K * C * static_cast<size_t>(estimates.T)) {
    return cold::Status::InvalidArgument(
        "estimates arrays do not match their dimensions");
  }
  if (top_communities < 1) {
    return cold::Status::InvalidArgument("top_communities must be >= 1");
  }
  const int top_m = std::min(top_communities, estimates.C);
  const ArenaLayout layout =
      ComputeArenaLayout(estimates.U, estimates.C, estimates.K, estimates.T,
                         estimates.V, top_m);

  std::string blob(kArenaHeaderBytes + layout.payload_bytes, '\0');
  char* payload = blob.data() + kArenaHeaderBytes;
  // An empty vector's data() may be null, which memcpy must never see
  // (a U=0 model has an empty pi).
  auto copy_doubles = [&](size_t off, const std::vector<double>& src) {
    if (src.empty()) return;
    std::memcpy(payload + off, src.data(), src.size() * sizeof(double));
  };
  copy_doubles(layout.pi, estimates.pi);
  copy_doubles(layout.theta, estimates.theta);
  copy_doubles(layout.eta, estimates.eta);
  copy_doubles(layout.phi, estimates.phi);
  copy_doubles(layout.psi, estimates.psi);
  // The §5.2 offline step runs at save time, so opening the arena is O(1).
  auto* top_comm =
      reinterpret_cast<int32_t*>(payload + layout.top_comm);
  for (int i = 0; i < estimates.U; ++i) {
    std::vector<int> top = estimates.TopCommunitiesForUser(i, top_m);
    for (int j = 0; j < top_m; ++j) {
      top_comm[static_cast<size_t>(i) * top_m + j] =
          static_cast<int32_t>(top[static_cast<size_t>(j)]);
    }
  }

  char* header = blob.data();
  std::memcpy(header, kArenaMagic, sizeof(kArenaMagic));
  uint32_t version = kArenaVersion;
  std::memcpy(header + kOffVersion, &version, sizeof(version));
  int32_t dims[5] = {estimates.U, estimates.C, estimates.K, estimates.T,
                     estimates.V};
  std::memcpy(header + kOffDims, dims, sizeof(dims));
  int32_t top_m32 = top_m;
  std::memcpy(header + kOffTopM, &top_m32, sizeof(top_m32));
  uint32_t payload_crc =
      cold::Crc32(std::string_view(payload, layout.payload_bytes));
  std::memcpy(header + kOffPayloadCrc, &payload_crc, sizeof(payload_crc));
  uint64_t payload_bytes = layout.payload_bytes;
  std::memcpy(header + kOffPayloadBytes, &payload_bytes,
              sizeof(payload_bytes));
  uint32_t header_crc =
      cold::Crc32(std::string_view(header, kOffHeaderCrc));
  std::memcpy(header + kOffHeaderCrc, &header_crc, sizeof(header_crc));

  return cold::AtomicWriteFile(path, blob);
}

cold::Result<ArenaView> ValidateArena(const void* data, size_t size) {
  const char* bytes = static_cast<const char*>(data);
  if (size < kArenaHeaderBytes) {
    return cold::Status::IOError("arena shorter than its header");
  }
  if (std::memcmp(bytes, kArenaMagic, sizeof(kArenaMagic)) != 0) {
    return cold::Status::IOError("bad magic: not a COLD arena snapshot");
  }
  uint32_t header_crc = 0;
  std::memcpy(&header_crc, bytes + kOffHeaderCrc, sizeof(header_crc));
  if (header_crc != cold::Crc32(std::string_view(bytes, kOffHeaderCrc))) {
    return cold::Status::IOError("arena header CRC mismatch");
  }
  uint32_t version = 0;
  std::memcpy(&version, bytes + kOffVersion, sizeof(version));
  if (version != kArenaVersion) {
    return cold::Status::IOError("unsupported arena version " +
                                 std::to_string(version));
  }
  int32_t dims[5];
  std::memcpy(dims, bytes + kOffDims, sizeof(dims));
  int32_t top_m = 0;
  std::memcpy(&top_m, bytes + kOffTopM, sizeof(top_m));
  const int U = dims[0], C = dims[1], K = dims[2], T = dims[3], V = dims[4];
  if (U < 0 || C < 1 || K < 1 || T < 1 || V < 1 || U > (1 << 28) ||
      C > (1 << 20) || K > (1 << 20) || T > (1 << 20) || V > (1 << 28) ||
      top_m < 1 || top_m > C) {
    return cold::Status::IOError("implausible dimensions in arena header");
  }
  const ArenaLayout layout = ComputeArenaLayout(U, C, K, T, V, top_m);
  uint64_t payload_bytes = 0;
  std::memcpy(&payload_bytes, bytes + kOffPayloadBytes,
              sizeof(payload_bytes));
  if (payload_bytes != layout.payload_bytes ||
      size != kArenaHeaderBytes + layout.payload_bytes) {
    return cold::Status::IOError("arena size mismatch (torn write?)");
  }
  const char* payload = bytes + kArenaHeaderBytes;
  uint32_t payload_crc = 0;
  std::memcpy(&payload_crc, bytes + kOffPayloadCrc, sizeof(payload_crc));
  if (payload_crc !=
      cold::Crc32(std::string_view(payload, layout.payload_bytes))) {
    return cold::Status::IOError("arena payload CRC mismatch");
  }

  ArenaView out;
  out.view.U = U;
  out.view.C = C;
  out.view.K = K;
  out.view.T = T;
  out.view.V = V;
  out.view.pi = reinterpret_cast<const double*>(payload + layout.pi);
  out.view.theta = reinterpret_cast<const double*>(payload + layout.theta);
  out.view.eta = reinterpret_cast<const double*>(payload + layout.eta);
  out.view.phi = reinterpret_cast<const double*>(payload + layout.phi);
  out.view.psi = reinterpret_cast<const double*>(payload + layout.psi);
  out.top_comm =
      reinterpret_cast<const int32_t*>(payload + layout.top_comm);
  out.top_m = top_m;

  COLD_RETURN_NOT_OK(
      CheckFiniteRaw(out.view.pi, static_cast<size_t>(U) * C, "pi"));
  COLD_RETURN_NOT_OK(
      CheckFiniteRaw(out.view.theta, static_cast<size_t>(C) * K, "theta"));
  COLD_RETURN_NOT_OK(
      CheckFiniteRaw(out.view.eta, static_cast<size_t>(C) * C, "eta"));
  COLD_RETURN_NOT_OK(
      CheckFiniteRaw(out.view.phi, static_cast<size_t>(K) * V, "phi"));
  COLD_RETURN_NOT_OK(CheckFiniteRaw(
      out.view.psi, static_cast<size_t>(K) * C * T, "psi"));
  for (size_t i = 0; i < static_cast<size_t>(U) * top_m; ++i) {
    if (out.top_comm[i] < 0 || out.top_comm[i] >= C) {
      return cold::Status::IOError("arena TopComm entry out of range");
    }
  }
  return out;
}

}  // namespace cold::core
