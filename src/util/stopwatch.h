// Wall-clock timing helper for the training/prediction time experiments.
#pragma once

#include <chrono>

namespace cold {

/// \brief Simple monotonic stopwatch. Starts on construction.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Restarts the stopwatch.
  void Restart() { start_ = Clock::now(); }

  /// Elapsed seconds since construction/restart.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Elapsed milliseconds since construction/restart.
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// \brief Adds the enclosing scope's wall time into an accumulator on
/// destruction — the phase-accounting pattern of the parallel superstep:
///
///   double scatter_seconds = 0.0;
///   { ScopedTimer timer(scatter_seconds); ... }  // += elapsed at }
class ScopedTimer {
 public:
  explicit ScopedTimer(double& total) : total_(total) {}
  ~ScopedTimer() { total_ += watch_.ElapsedSeconds(); }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  double& total_;
  Stopwatch watch_;
};

}  // namespace cold
