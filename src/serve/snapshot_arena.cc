#include "serve/snapshot_arena.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <span>
#include <utility>

#include "obs/metrics.h"

namespace cold::serve {

cold::Result<std::shared_ptr<const ArenaSnapshot>> ArenaSnapshot::Map(
    const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return cold::Status::IOError("open " + path + ": " +
                                 std::strerror(errno));
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    cold::Status status = cold::Status::IOError("fstat " + path + ": " +
                                                std::strerror(errno));
    ::close(fd);
    return status;
  }
  const size_t size = static_cast<size_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    return cold::Status::IOError("arena file is empty: " + path);
  }
  void* base = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  // The mapping survives the fd; keep nothing open behind it.
  ::close(fd);
  if (base == MAP_FAILED) {
    return cold::Status::IOError("mmap " + path + ": " +
                                 std::strerror(errno));
  }

  auto arena = core::ValidateArena(base, size);
  if (!arena.ok()) {
    ::munmap(base, size);
    return arena.status();
  }

  static obs::Counter* maps =
      obs::Registry::Global().GetCounter("cold/serve/arena_maps");
  maps->Increment();
  // make_shared needs a public ctor; the snapshot owns the mapping from
  // here, so no failure path below may leak it.
  return std::shared_ptr<const ArenaSnapshot>(
      new ArenaSnapshot(path, base, size, *arena));
}

ArenaSnapshot::~ArenaSnapshot() {
  if (base_ != nullptr) ::munmap(base_, size_);
}

std::shared_ptr<const core::ColdPredictor> ViewPredictor(
    std::shared_ptr<const ArenaSnapshot> snapshot) {
  const ArenaSnapshot& arena = *snapshot;
  std::span<const int32_t> top_comm(
      arena.top_comm(),
      static_cast<size_t>(arena.view().U) * static_cast<size_t>(arena.top_m()));
  return std::make_shared<const core::ColdPredictor>(
      arena.view(), std::move(snapshot), top_comm, arena.top_m());
}

}  // namespace cold::serve
