// Crash-injection harness for fault-tolerance testing: an env/flag-armed
// trigger that signals the process at a named code point, so tests and the
// crash/chaos loop scripts can exercise the checkpoint/resume and
// supervised-restart paths against hostile failure modes.
//
// Spec grammar (comma-separated entries):
//
//   <point>:<n>[:<action>][@<rank>]
//
// where <action> is "kill" (raise SIGKILL — no destructors, no flushes,
// no atexit; the default) or "stop" (raise SIGSTOP — the process hangs
// exactly where it stood, modeling a livelocked/frozen peer until a
// supervisor SIGKILLs it), and "@<rank>" scopes the entry to one
// distributed node rank (see SetNodeRank). "after_sweep:7" kills the
// process the moment the instrumented point "after_sweep" is reached with
// n == 7; "after_sweep:4:stop@2" freezes rank 2 after sweep 4. An empty
// spec disarms. The canonical entry point is the COLD_FAULT_POINT
// environment variable, read once by ConfigureFromEnv().
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace cold {

class FaultInjector {
 public:
  /// Instances start disarmed; tests exercise spec parsing on locals so a
  /// mistake can never arm the process-wide injector.
  FaultInjector() = default;

  /// The process-wide injector every instrumented point consults.
  static FaultInjector& Global();

  /// \brief Arms (spec grammar above, comma-separated) or disarms
  /// (spec = "") the injector. Returns InvalidArgument on a malformed
  /// spec, leaving the injector disarmed.
  cold::Status Configure(const std::string& spec);

  /// \brief Reads COLD_FAULT_POINT; a malformed value logs a warning and
  /// disarms rather than failing the run.
  void ConfigureFromEnv();

  void Disarm();

  bool armed() const { return !entries_.empty(); }

  /// \brief Narrows the armed entries to the given distributed node rank:
  /// entries scoped "@R" stay armed iff R == rank, and unscoped entries
  /// stay armed on every rank. Call once per process after the rank is
  /// known.
  void SetNodeRank(int rank);

  /// \brief Signals the process (SIGKILL or SIGSTOP per the matched
  /// entry's action) iff an armed entry matches (point, n). No-op hot path
  /// when disarmed: a single branch.
  void MaybeCrash(const char* point, int64_t n);

 private:
  struct Entry {
    std::string point;
    int64_t n = -1;
    /// SIGKILL or SIGSTOP.
    int signal = 0;
    /// Distributed rank scope; -1 = unscoped.
    int rank = -1;
  };

  std::vector<Entry> entries_;
};

}  // namespace cold
