// The benchmark's HTTP load generator: one thread drives up to four
// keep-alive connections, busy-polling them with ppoll(2) so that noticing
// an answer never waits for the client to be woken. Two disciplines:
//
//  - closed loop: every connection sends its next request as soon as the
//    previous answer arrives, so a slower server receives less load;
//  - open loop: request n is due at start + n / rate whatever the server
//    does, and its latency is measured from when it was due, so a stall
//    also charges the requests queued behind it (no coordinated omission).
//    How late the generator itself ran is reported next to it.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "util/status.h"

namespace e2ebench {

struct LoadOptions {
  int port = 0;
  int connections = 1;
  /// How long new requests are issued; in-flight ones are then drained.
  double seconds = 1.0;
  /// > 0 selects the open loop at this many requests per second.
  double rate = 0.0;
  /// Stop issuing after this many requests (0 = no limit).
  int64_t max_requests = 0;
  /// CPU the calling thread is pinned to while it drives the load (-1 =
  /// leave its affinity alone).
  int client_cpu = -1;
};

/// Reserves the highest-numbered CPU of this process for the load client:
/// restricts the calling thread — and so every thread it creates later —
/// to the other CPUs, and returns the reserved one. Returns -1 and changes
/// nothing when the process has fewer than three CPUs.
int ReserveClientCpu();

/// Keeps every CPU the calling thread may use busy while it lives, so that
/// no CPU halts between the program's bursts of work: one SCHED_IDLE thread
/// per CPU spins, and the kernel hands its CPU to any other thread that
/// becomes runnable there. Under a hypervisor, waking a halted virtual CPU
/// takes as long as the host needs to schedule it again, which depends on
/// the host's other tenants; a spinning CPU takes the wake-up at once.
/// The spinners count as load for the kernel's choice of CPU on wake-up,
/// so threads that wake often may end up sharing a CPU while they live.
class IdleSpinners {
 public:
  IdleSpinners();
  ~IdleSpinners();
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  // Every spinner polls stop_ all the time, so it has a cache line of its
  // own: a write to anything sharing that line would have to take the line
  // back from every spinner's cache.
  alignas(64) std::atomic<bool> stop_{false};
  alignas(64) std::vector<std::thread> threads_;
};

struct LoadResult {
  int64_t sent = 0;
  int64_t completed = 0;
  /// Answers other than 200 and connections lost mid-request.
  int64_t failed = 0;
  /// Per answered request: send (closed loop) or due time (open loop) to
  /// the last byte of the answer.
  std::vector<double> latency_s;
  /// Per answered request, index-aligned with latency_s: when its latency
  /// started counting, in seconds after the first send.
  std::vector<double> start_s;
  /// Open loop only: send time minus due time, per request.
  std::vector<double> lateness_s;
  /// First send to last answer.
  double elapsed_s = 0.0;
};

/// Supplies request number `seq`: returns its wire bytes (which must stay
/// alive until the answer arrives) and a caller tag.
using NextRequest = std::function<const std::string*(int64_t seq,
                                                     int64_t* tag)>;
/// Receives each answer: tag, HTTP status, body.
using OnAnswer =
    std::function<void(int64_t tag, int status, std::string_view body)>;

cold::Status RunLoad(const LoadOptions& options, const NextRequest& next,
                     const OnAnswer& on_answer, LoadResult* result);

/// One keep-alive connection for single request/answer exchanges (the
/// first answer after a publish), so that connection set-up is not timed.
class Connection {
 public:
  explicit Connection(int port) : port_(port) {}
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Sends `request` and waits for its answer, (re)connecting first when
  /// the connection is not open; a connection the server has closed is
  /// reopened once.
  cold::Status Exchange(const std::string& request, int* status,
                        std::string* body);

 private:
  cold::Status ExchangeOnce(const std::string& request, int* status,
                            std::string* body);
  void Close();

  const int port_;
  int fd_ = -1;
  std::string in_;
};

/// Builds the wire bytes of a JSON POST.
std::string PostRequest(const std::string& path, const std::string& body);

}  // namespace e2ebench
