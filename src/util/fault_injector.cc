#include "util/fault_injector.h"

#include <csignal>
#include <cstdlib>
#include <cstring>

#include <unistd.h>

#include "util/logging.h"

namespace cold {

namespace {

/// Strict non-negative integer parse of the whole token.
bool ParseCount(const std::string& token, int64_t* out) {
  if (token.empty()) return false;
  errno = 0;
  char* end = nullptr;
  long long n = std::strtoll(token.c_str(), &end, 10);
  if (errno != 0 || *end != '\0' || n < 0) return false;
  *out = static_cast<int64_t>(n);
  return true;
}

}  // namespace

FaultInjector& FaultInjector::Global() {
  static FaultInjector injector;
  return injector;
}

cold::Status FaultInjector::Configure(const std::string& spec) {
  Disarm();
  if (spec.empty()) return cold::Status::OK();
  std::vector<Entry> entries;
  size_t pos = 0;
  while (pos <= spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    std::string item = spec.substr(pos, comma - pos);
    pos = comma + 1;

    Entry entry;
    entry.signal = SIGKILL;
    // Optional "@<rank>" scope suffix.
    if (size_t at = item.rfind('@'); at != std::string::npos) {
      int64_t rank = -1;
      if (!ParseCount(item.substr(at + 1), &rank)) {
        return cold::Status::InvalidArgument(
            "fault spec rank scope must be '@<non-negative rank>', got '" +
            item + "'");
      }
      entry.rank = static_cast<int>(rank);
      item.resize(at);
    }
    // Optional ":kill" / ":stop" action suffix.
    if (item.size() > 5 && item.compare(item.size() - 5, 5, ":kill") == 0) {
      item.resize(item.size() - 5);
    } else if (item.size() > 5 &&
               item.compare(item.size() - 5, 5, ":stop") == 0) {
      entry.signal = SIGSTOP;
      item.resize(item.size() - 5);
    }
    size_t colon = item.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= item.size()) {
      Disarm();
      return cold::Status::InvalidArgument(
          "fault spec must be '<point>:<n>[:kill|stop][@rank]', got '" +
          item + "'");
    }
    if (!ParseCount(item.substr(colon + 1), &entry.n)) {
      Disarm();
      return cold::Status::InvalidArgument(
          "fault spec count must be a non-negative integer, got '" + item +
          "'");
    }
    entry.point = item.substr(0, colon);
    entries.push_back(std::move(entry));
  }
  entries_ = std::move(entries);
  return cold::Status::OK();
}

void FaultInjector::ConfigureFromEnv() {
  const char* spec = std::getenv("COLD_FAULT_POINT");
  if (spec == nullptr) return;
  if (auto st = Configure(spec); !st.ok()) {
    COLD_LOG(kWarning) << "ignoring COLD_FAULT_POINT: " << st.ToString();
  } else if (armed()) {
    COLD_LOG(kWarning) << "fault injection armed: " << spec;
  }
}

void FaultInjector::Disarm() { entries_.clear(); }

void FaultInjector::SetNodeRank(int rank) {
  std::erase_if(entries_, [rank](const Entry& entry) {
    return entry.rank >= 0 && entry.rank != rank;
  });
}

void FaultInjector::MaybeCrash(const char* point, int64_t n) {
  if (entries_.empty()) return;
  for (const Entry& entry : entries_) {
    if (entry.n != n || entry.point != point) continue;
    if (entry.signal == SIGSTOP) {
      // Freeze exactly here — a livelocked/hung peer. The process resumes
      // only on SIGCONT (or dies to a supervisor's SIGKILL), so execution
      // may continue past this point after a resume.
      ::raise(SIGSTOP);
      return;
    }
    // The whole purpose is to die exactly like `kill -9`: no destructors,
    // no buffered-IO flushes, no atexit handlers.
    ::raise(SIGKILL);
    // SIGKILL cannot be caught, but be paranoid about exotic platforms.
    ::_exit(137);
  }
}

}  // namespace cold
