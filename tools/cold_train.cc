// cold_train — trains COLD on a dataset directory (the data/serialize.h
// layout) and writes the fitted estimates to <model-out> as a COLDARN1
// arena (core/model_io.h): the five parameter arrays plus each user's
// TopComm row (config.top_communities wide), written tmp + fsync + rename.
// cold_serve and cold_predict both map that one file.
//
// Usage: cold_train <dataset-dir> <model-out> [C=8] [K=12] [iterations=150]
//                   [--parallel] [--threads N]
//                   [--nodes N [--node-rank R --coordinator HOST:PORT]]
//                   [--max-restarts K] [--heartbeat-interval-ms N]
//                   [--heartbeat-timeout-ms N] [--progress-timeout-ms N]
//                   [--metrics-out FILE] [--trace] [--trace-out FILE]
//                   [--profile] [--profile-out FILE] [--oversubscribe]
//                   [--checkpoint-dir DIR] [--checkpoint-every N]
//                   [--checkpoint-keep N] [--resume]
//
// The topic kernel follows K: the exact dense scan below 32 topics, alias
// + Metropolis-Hastings at 32 and above (DESIGN.md §13).
//
// --parallel trains on the single-process GAS engine with --threads N
// worker threads (default 1; results are bit-identical at any worker
// count) and prints the measured training time. --parallel takes no value:
// `--parallel 4` exits 2 rather than shifting 4 into the positional
// arguments.
//
// --metrics-out writes a JSON array with one telemetry snapshot per sweep
// (sweep/phase durations, tokens resampled, switch rates, train
// log-likelihood, engine phase seconds when --parallel); --trace enables
// the in-memory span ring buffer and prints a span summary after training.
//
// Performance observability (DESIGN.md §11): --profile samples the
// training run with the in-process SIGPROF profiler and prints a top-15
// symbol table (--profile-out additionally writes folded stacks for
// flamegraph tooling); --trace-out writes the span timeline as Chrome
// Trace Event JSON, loadable in ui.perfetto.dev; --oversubscribe lets
// --parallel run more worker threads than the host has cores (useful for
// multi-thread traces on small machines).
//
// --checkpoint-dir enables durable training checkpoints (atomic write,
// CRC-verified, keep-last-N rotation) every --checkpoint-every sweeps;
// --resume restarts from the newest usable checkpoint in that directory
// and continues to a bit-identical final model, under any --threads (see
// DESIGN.md, "Fault tolerance"). The COLD_FAULT_POINT environment variable (e.g.
// "after_sweep:25") arms the crash-injection harness used by
// tools/crashloop_train.sh.
//
// Distributed training (DESIGN.md §12): --nodes N runs COLD as N real OS
// processes exchanging per-superstep deltas over sockets. Without
// --coordinator the process self-forks N-1 workers over an ephemeral
// loopback port; with --coordinator HOST:PORT (plus --node-rank R) each
// rank is launched separately and rank 0 listens on PORT. A fixed seed
// produces bit-identical models for every node count. --checkpoint-dir
// gets a per-rank subdirectory (node-<rank>); on --resume the cluster
// negotiates the newest sweep every node can load. An "@R" suffix on a
// COLD_FAULT_POINT entry (e.g. "after_sweep:4@1") aims it at rank R alone
// (the node-death drill of tools/distloop_train.sh).
//
// Self-healing (DESIGN.md §12): every node heartbeats its peers
// (--heartbeat-interval-ms) and bounds every receive by a liveness
// deadline (--heartbeat-timeout-ms; silence means a dead or hung peer)
// plus a progress deadline (--progress-timeout-ms; heartbeats without
// data mean a lost frame). With --max-restarts K > 0 in self-fork mode
// the parent becomes a pure supervisor: ALL ranks run as children, and
// when any child fails the supervisor kills the stragglers, waits out a
// jittered exponential backoff, and reforks the whole job with --resume
// semantics forced on, so it continues from the newest checkpoint sweep
// common to all ranks — bit-identical to an uninterrupted run. The
// COLD_NET_FAULT environment variable (e.g. "stall:1:6") arms the
// network chaos layer used by tools/chaosloop_train.sh; injected faults
// fire on the first attempt only (a fault spec models one failure event,
// not a permanently broken network).
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint.h"
#include "core/cold.h"
#include "core/model_io.h"
#include "data/serialize.h"
#include "dist/dist_trainer.h"
#include "dist/net_fault.h"
#include "dist/transport.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "util/fault_injector.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <dataset-dir> <model-out> [C=8] [K=12] "
               "[iterations=150] [--parallel] [--threads N] "
               "[--nodes N [--node-rank R --coordinator HOST:PORT]] "
               "[--max-restarts K] [--heartbeat-interval-ms N] "
               "[--heartbeat-timeout-ms N] [--progress-timeout-ms N] "
               "[--metrics-out FILE] [--trace] [--trace-out FILE] "
               "[--profile] [--profile-out FILE] [--oversubscribe] "
               "[--checkpoint-dir DIR] "
               "[--checkpoint-every N] [--checkpoint-keep N] [--resume]\n",
               argv0);
  return 2;
}

/// Strict positive-int parse: the whole token must be digits (no silent
/// atoi-style truncation to 0).
bool ParsePositiveInt(const char* s, int* out) {
  if (s == nullptr || *s == '\0') return false;
  errno = 0;
  char* end = nullptr;
  long v = std::strtol(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || v <= 0 || v > 1000000000) {
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

/// Like ParsePositiveInt but admits 0 (restart budgets and "disable this
/// deadline" knobs).
bool ParseNonNegativeInt(const char* s, int* out) {
  if (s != nullptr && std::strcmp(s, "0") == 0) {
    *out = 0;
    return true;
  }
  return ParsePositiveInt(s, out);
}

struct Args {
  std::string dataset_dir;
  std::string model_out;
  int num_communities = 8;
  int num_topics = 12;
  int iterations = 150;
  bool parallel = false;
  /// Real multi-process training: 0 = off, N >= 1 = cluster size.
  int dist_nodes = 0;
  int node_rank = -1;
  std::string coordinator;
  /// Self-fork supervision: > 0 turns the parent into a supervisor that
  /// restarts the whole job from the newest common checkpoint.
  int max_restarts = 0;
  /// Liveness knobs (DistConfig mirrors; 0 timeout disables the layer).
  int heartbeat_interval_ms = 1000;
  int heartbeat_timeout_ms = 10000;
  int progress_timeout_ms = 120000;
  /// Worker threads: of the --parallel engine, or of each --nodes process.
  int threads_per_node = 1;
  std::string metrics_out;
  bool trace = false;
  std::string trace_out;
  bool profile = false;
  std::string profile_out;
  bool oversubscribe = false;
  std::string checkpoint_dir;
  int checkpoint_every = 10;
  int checkpoint_keep = 3;
  bool resume = false;
};

/// Writes `estimates` to <model-out> as a COLDARN1 arena. Returns false
/// (after printing why) on failure; callers fold it into their exit code.
bool SaveModel(const Args& args, const cold::core::ColdEstimates& estimates,
               int top_communities) {
  if (auto st = cold::core::SaveArenaSnapshot(estimates, top_communities,
                                              args.model_out);
      !st.ok()) {
    std::fprintf(stderr, "save: %s\n", st.ToString().c_str());
    return false;
  }
  std::printf("model written to %s (U=%d C=%d K=%d T=%d V=%d)\n",
              args.model_out.c_str(), estimates.U, estimates.C, estimates.K,
              estimates.T, estimates.V);
  return true;
}

/// Returns false (after printing the offending token) on any unknown flag
/// or malformed value.
bool ParseArgs(int argc, char** argv, Args* args) {
  std::vector<const char*> positional;
  for (int a = 1; a < argc; ++a) {
    const char* arg = argv[a];
    if (std::strcmp(arg, "--parallel") == 0) {
      args->parallel = true;
      // --parallel takes no value; reject one rather than let it shift
      // into the positional C/K/iterations.
      if (a + 1 < argc && argv[a + 1][0] != '-') {
        std::fprintf(stderr,
                     "--parallel takes no value (got '%s'; use --threads N)\n",
                     argv[a + 1]);
        return false;
      }
    } else if (std::strcmp(arg, "--nodes") == 0) {
      if (a + 1 >= argc || !ParsePositiveInt(argv[++a], &args->dist_nodes)) {
        std::fprintf(stderr, "--nodes requires a positive int\n");
        return false;
      }
    } else if (std::strcmp(arg, "--node-rank") == 0) {
      int rank = 0;
      // Rank 0 is valid, so ParsePositiveInt alone doesn't fit.
      if (a + 1 >= argc || (std::strcmp(argv[a + 1], "0") != 0 &&
                            !ParsePositiveInt(argv[a + 1], &rank))) {
        std::fprintf(stderr, "--node-rank requires a non-negative int\n");
        return false;
      }
      ++a;
      args->node_rank = rank;
    } else if (std::strcmp(arg, "--max-restarts") == 0) {
      if (a + 1 >= argc ||
          !ParseNonNegativeInt(argv[++a], &args->max_restarts)) {
        std::fprintf(stderr, "--max-restarts requires a non-negative int\n");
        return false;
      }
    } else if (std::strcmp(arg, "--heartbeat-interval-ms") == 0) {
      if (a + 1 >= argc ||
          !ParsePositiveInt(argv[++a], &args->heartbeat_interval_ms)) {
        std::fprintf(stderr,
                     "--heartbeat-interval-ms requires a positive int\n");
        return false;
      }
    } else if (std::strcmp(arg, "--heartbeat-timeout-ms") == 0) {
      if (a + 1 >= argc ||
          !ParseNonNegativeInt(argv[++a], &args->heartbeat_timeout_ms)) {
        std::fprintf(stderr,
                     "--heartbeat-timeout-ms requires a non-negative int\n");
        return false;
      }
    } else if (std::strcmp(arg, "--progress-timeout-ms") == 0) {
      if (a + 1 >= argc ||
          !ParseNonNegativeInt(argv[++a], &args->progress_timeout_ms)) {
        std::fprintf(stderr,
                     "--progress-timeout-ms requires a non-negative int\n");
        return false;
      }
    } else if (std::strcmp(arg, "--coordinator") == 0) {
      if (a + 1 >= argc) {
        std::fprintf(stderr, "--coordinator requires HOST:PORT\n");
        return false;
      }
      args->coordinator = argv[++a];
    } else if (std::strcmp(arg, "--threads") == 0) {
      if (a + 1 >= argc ||
          !ParsePositiveInt(argv[++a], &args->threads_per_node)) {
        std::fprintf(stderr, "--threads requires a positive int\n");
        return false;
      }
    } else if (std::strcmp(arg, "--metrics-out") == 0) {
      if (a + 1 >= argc) {
        std::fprintf(stderr, "--metrics-out requires a file argument\n");
        return false;
      }
      args->metrics_out = argv[++a];
    } else if (std::strcmp(arg, "--trace") == 0) {
      args->trace = true;
    } else if (std::strcmp(arg, "--trace-out") == 0) {
      if (a + 1 >= argc) {
        std::fprintf(stderr, "--trace-out requires a file argument\n");
        return false;
      }
      args->trace_out = argv[++a];
    } else if (std::strcmp(arg, "--profile") == 0) {
      args->profile = true;
    } else if (std::strcmp(arg, "--profile-out") == 0) {
      if (a + 1 >= argc) {
        std::fprintf(stderr, "--profile-out requires a file argument\n");
        return false;
      }
      args->profile = true;
      args->profile_out = argv[++a];
    } else if (std::strcmp(arg, "--oversubscribe") == 0) {
      args->oversubscribe = true;
    } else if (std::strcmp(arg, "--checkpoint-dir") == 0) {
      if (a + 1 >= argc) {
        std::fprintf(stderr, "--checkpoint-dir requires a directory\n");
        return false;
      }
      args->checkpoint_dir = argv[++a];
    } else if (std::strcmp(arg, "--checkpoint-every") == 0) {
      if (a + 1 >= argc || !ParsePositiveInt(argv[++a],
                                             &args->checkpoint_every)) {
        std::fprintf(stderr, "--checkpoint-every requires a positive int\n");
        return false;
      }
    } else if (std::strcmp(arg, "--checkpoint-keep") == 0) {
      if (a + 1 >= argc || !ParsePositiveInt(argv[++a],
                                             &args->checkpoint_keep)) {
        std::fprintf(stderr, "--checkpoint-keep requires a positive int\n");
        return false;
      }
    } else if (std::strcmp(arg, "--resume") == 0) {
      args->resume = true;
    } else if (arg[0] == '-' && arg[1] != '\0') {
      std::fprintf(stderr, "unknown flag '%s'\n", arg);
      return false;
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() < 2 || positional.size() > 5) {
    std::fprintf(stderr, "expected 2-5 positional arguments, got %zu\n",
                 positional.size());
    return false;
  }
  if (args->resume && args->checkpoint_dir.empty()) {
    std::fprintf(stderr, "--resume requires --checkpoint-dir\n");
    return false;
  }
  if (args->dist_nodes > 0 && args->parallel) {
    std::fprintf(stderr, "--nodes (multi-process) and --parallel "
                 "(single-process) are mutually exclusive\n");
    return false;
  }
  if (args->dist_nodes == 0 &&
      (args->node_rank >= 0 || !args->coordinator.empty())) {
    std::fprintf(stderr, "--node-rank/--coordinator require --nodes\n");
    return false;
  }
  if ((args->node_rank >= 0) != !args->coordinator.empty()) {
    std::fprintf(stderr,
                 "--node-rank and --coordinator must be given together "
                 "(omit both for a self-forked local cluster)\n");
    return false;
  }
  if (args->node_rank >= args->dist_nodes && args->node_rank >= 0) {
    std::fprintf(stderr, "--node-rank must be < --nodes\n");
    return false;
  }
  if (args->max_restarts > 0 &&
      (args->dist_nodes < 2 || !args->coordinator.empty())) {
    std::fprintf(stderr,
                 "--max-restarts requires a self-forked cluster "
                 "(--nodes N >= 2 without --coordinator)\n");
    return false;
  }
  args->dataset_dir = positional[0];
  args->model_out = positional[1];
  int* ints[3] = {&args->num_communities, &args->num_topics,
                  &args->iterations};
  for (size_t p = 2; p < positional.size(); ++p) {
    if (!ParsePositiveInt(positional[p], ints[p - 2])) {
      std::fprintf(stderr, "invalid positional integer '%s'\n",
                   positional[p]);
      return false;
    }
  }
  return true;
}

/// Collects one registry snapshot per sweep and writes them as a JSON
/// array of {"sweep": N, "metrics": {...}} objects.
class MetricsSeries {
 public:
  void Record(int sweep) {
    std::ostringstream os;
    os << "{\"sweep\":" << sweep << ",\"metrics\":";
    cold::obs::Registry::Global().DumpJson(os);
    os << "}";
    snapshots_.push_back(os.str());
  }

  bool WriteTo(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "[\n";
    for (size_t i = 0; i < snapshots_.size(); ++i) {
      out << snapshots_[i] << (i + 1 < snapshots_.size() ? ",\n" : "\n");
    }
    out << "]\n";
    return static_cast<bool>(out);
  }

  size_t size() const { return snapshots_.size(); }

 private:
  std::vector<std::string> snapshots_;
};

/// Loads the newest usable checkpoint and hands its payload to `restore`.
/// Returns false on a fatal mismatch (message already printed); an empty
/// checkpoint directory is not fatal — training simply starts from sweep 0.
bool TryResume(const cold::core::CheckpointManager& ckpt,
               cold::core::CheckpointFlavor expected_flavor,
               uint64_t fingerprint,
               const std::function<cold::Status(const std::string&)>& restore) {
  auto loaded_result = ckpt.LoadLatest();
  if (!loaded_result.ok()) {
    if (loaded_result.status().code() == cold::StatusCode::kNotFound) {
      std::printf("no usable checkpoint in %s; starting from sweep 0\n",
                  ckpt.options().dir.c_str());
      return true;
    }
    std::fprintf(stderr, "resume: %s\n",
                 loaded_result.status().ToString().c_str());
    return false;
  }
  cold::core::LoadedCheckpoint loaded = std::move(loaded_result).ValueOrDie();
  if (loaded.meta.flavor != expected_flavor) {
    std::fprintf(stderr,
                 "resume: %s was written by the %s trainer; resume with the "
                 "same mode it was trained with\n",
                 loaded.path.c_str(),
                 loaded.meta.flavor == cold::core::CheckpointFlavor::kParallel
                     ? "--parallel"
                     : "serial");
    return false;
  }
  if (loaded.meta.data_fingerprint != fingerprint) {
    std::fprintf(stderr,
                 "resume: %s was written for a different dataset\n",
                 loaded.path.c_str());
    return false;
  }
  if (auto st = restore(loaded.payload); !st.ok()) {
    std::fprintf(stderr, "resume: %s\n", st.ToString().c_str());
    return false;
  }
  std::printf("resumed from %s (sweep %d)\n", loaded.path.c_str(),
              loaded.meta.sweep);
  return true;
}

/// Serializes the trainer and writes one rotation entry. Checkpoint
/// failures are logged, not fatal: training should survive a full or
/// flaky disk and still produce a model.
void WriteCheckpoint(
    const cold::core::CheckpointManager& ckpt,
    cold::core::CheckpointFlavor flavor, int sweep, uint64_t fingerprint,
    const std::function<cold::Status(std::string*)>& serialize) {
  std::string payload;
  cold::Status st = serialize(&payload);
  if (st.ok()) {
    cold::core::CheckpointMeta meta;
    meta.flavor = flavor;
    meta.sweep = sweep;
    meta.data_fingerprint = fingerprint;
    st = ckpt.Write(meta, payload);
  }
  if (!st.ok()) {
    COLD_LOG(kWarning) << "checkpoint at sweep " << sweep
                       << " failed: " << st.message();
  }
}

/// Prints each trace-span family's count/total/mean from the registry.
void PrintSpanSummary() {
  cold::obs::TelemetrySnapshot snapshot =
      cold::obs::Registry::Global().Snapshot();
  std::printf("trace spans:\n");
  for (const auto& h : snapshot.histograms) {
    constexpr const char* kPrefix = "cold/trace/";
    if (h.name.rfind(kPrefix, 0) != 0 || h.count == 0) continue;
    std::printf("  %-28s count=%lld total=%.3fs mean=%.6fs\n",
                h.name.c_str() + std::strlen(kPrefix),
                static_cast<long long>(h.count), h.sum,
                h.sum / static_cast<double>(h.count));
  }
}

/// Splits "HOST:PORT"; false (with message) on malformed input.
bool ParseHostPort(const std::string& spec, std::string* host, int* port) {
  const size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      !ParsePositiveInt(spec.c_str() + colon + 1, port) || *port > 65535) {
    std::fprintf(stderr, "--coordinator expects HOST:PORT, got '%s'\n",
                 spec.c_str());
    return false;
  }
  *host = spec.substr(0, colon);
  return true;
}

/// \brief Establishes this process's rank and peer transports for --nodes.
///
/// Self-fork mode (no --coordinator): rank 0 binds an ephemeral loopback
/// listener, then forks the workers BEFORE any thread pool exists (fork and
/// threads don't mix); children connect back over 127.0.0.1. Cluster mode:
/// rank 0 listens on the given port, workers connect to it. On success
/// `children` holds the forked worker pids (parent, self-fork mode only).
bool SetupDistTransports(
    const Args& args, int* rank,
    std::vector<std::unique_ptr<cold::dist::Transport>>* peers,
    std::vector<pid_t>* children) {
  using cold::dist::TcpConnect;
  using cold::dist::TcpListener;
  using cold::dist::Transport;
  const int n = args.dist_nodes;
  if (n == 1) {
    *rank = 0;
    return true;
  }

  std::string host = "127.0.0.1";
  int port = 0;
  TcpListener listener;
  if (!args.coordinator.empty()) {
    if (!ParseHostPort(args.coordinator, &host, &port)) return false;
    *rank = args.node_rank;
  } else {
    // Self-fork: bind first so workers can't race the listener, and flush
    // stdio so buffered output is not duplicated into every child.
    if (auto st = listener.Listen(0); !st.ok()) {
      std::fprintf(stderr, "dist: %s\n", st.ToString().c_str());
      return false;
    }
    port = listener.port();
    std::fflush(nullptr);
    *rank = 0;
    for (int r = 1; r < n; ++r) {
      pid_t pid = ::fork();
      if (pid < 0) {
        std::perror("fork");
        return false;
      }
      if (pid == 0) {
        *rank = r;
        children->clear();
        listener.Close();
        break;
      }
      children->push_back(pid);
    }
  }

  if (*rank == 0) {
    if (!args.coordinator.empty()) {
      if (auto st = listener.Listen(static_cast<uint16_t>(port)); !st.ok()) {
        std::fprintf(stderr, "dist: %s\n", st.ToString().c_str());
        return false;
      }
    }
    // Bound the accept wait: a worker that dies before connecting must
    // not hang the coordinator forever.
    const int accept_timeout_ms =
        args.heartbeat_timeout_ms > 0
            ? std::max(args.heartbeat_timeout_ms, 10000)
            : -1;
    for (int r = 1; r < n; ++r) {
      auto accepted = listener.Accept(accept_timeout_ms);
      if (!accepted.ok()) {
        std::fprintf(stderr, "dist: %s\n",
                     accepted.status().ToString().c_str());
        return false;
      }
      peers->push_back(std::move(accepted).ValueOrDie());
    }
  } else {
    auto connected = TcpConnect(host, static_cast<uint16_t>(port));
    if (!connected.ok()) {
      std::fprintf(stderr, "dist: %s\n",
                   connected.status().ToString().c_str());
      return false;
    }
    peers->push_back(std::move(connected).ValueOrDie());
  }
  return true;
}

/// \brief Trains this process's rank to completion and returns its exit
/// code. Only rank 0 writes the model/metrics. `force_resume` is the
/// supervisor's restart path: resume semantics on regardless of --resume.
int RunDistNode(const Args& args, const cold::core::ColdConfig& config,
                const cold::data::SocialDataset& dataset, int rank,
                std::vector<std::unique_ptr<cold::dist::Transport>> peers,
                bool force_resume) {
  using namespace cold;

  // Narrow the armed fault entries to this rank (entries scoped "@R" to
  // another rank disarm; unscoped ones fire on every rank), and arm the
  // network chaos layer from COLD_NET_FAULT.
  FaultInjector::Global().SetNodeRank(rank);
  dist::NetFaultInjector::Global().ConfigureFromEnv();
  dist::NetFaultInjector::Global().SetNodeRank(rank);

  dist::DistConfig dc;
  dc.num_nodes = args.dist_nodes;
  dc.node_rank = rank;
  dc.cold = config;
  dc.engine.threads_per_node = args.threads_per_node;
  dc.engine.oversubscribe = args.oversubscribe;
  if (!args.checkpoint_dir.empty()) {
    dc.checkpoint.dir =
        args.checkpoint_dir + "/node-" + std::to_string(rank);
    dc.checkpoint.every = args.checkpoint_every;
    dc.checkpoint.keep_last = args.checkpoint_keep;
  }
  dc.resume = args.resume || force_resume;
  dc.heartbeat_interval_ms = args.heartbeat_interval_ms;
  dc.heartbeat_timeout_ms = args.heartbeat_timeout_ms;
  dc.progress_timeout_ms = args.progress_timeout_ms;

  dist::DistTrainer trainer(dc, dataset.posts, &dataset.interactions);
  MetricsSeries series;
  if (rank == 0 && !args.metrics_out.empty()) {
    trainer.SetSuperstepCallback([&](int sweep) { series.Record(sweep); });
  }

  Stopwatch watch;
  cold::Status st = trainer.Run(std::move(peers));
  int exit_code = 0;
  if (!st.ok()) {
    std::fprintf(stderr, "dist rank %d: %s\n", rank, st.ToString().c_str());
    exit_code = 1;
  } else if (rank == 0) {
    const dist::DistStats& stats = trainer.stats();
    if (stats.resumed_sweep >= 0) {
      std::printf("resumed from sweep %d on all %d nodes\n",
                  stats.resumed_sweep, args.dist_nodes);
    }
    std::printf("distributed training (%d nodes): measured %.2fs, "
                "%lld comm bytes, %lld/%lld owned chunks on rank 0\n",
                args.dist_nodes, watch.ElapsedSeconds(),
                static_cast<long long>(stats.bytes_sent +
                                       stats.bytes_received),
                static_cast<long long>(stats.owned_chunks),
                static_cast<long long>(stats.total_chunks));
    core::ColdEstimates estimates = trainer.Estimates();
    if (!args.metrics_out.empty() && !series.WriteTo(args.metrics_out)) {
      std::fprintf(stderr, "metrics: cannot write %s\n",
                   args.metrics_out.c_str());
      exit_code = 1;
    }
    if (!SaveModel(args, estimates, config.top_communities)) exit_code = 1;
  }
  return exit_code;
}

/// \brief Self-healing self-fork mode (--max-restarts > 0): the parent is
/// a pure supervisor — ALL ranks run as children over a loopback port the
/// supervisor holds open across attempts. When any child fails, the
/// stragglers (including a SIGSTOPped hung rank) are SIGKILLed, the
/// supervisor backs off with jitter, and the whole job is reforked with
/// resume forced on, continuing from the newest checkpoint sweep common
/// to all ranks. The restart is bit-identical to an uninterrupted run.
int RunSupervised(const Args& args, const cold::core::ColdConfig& config,
                  const cold::data::SocialDataset& dataset) {
  using cold::dist::TcpConnect;
  using cold::dist::TcpListener;
  using cold::dist::Transport;
  const int n = args.dist_nodes;

  TcpListener listener;
  if (auto st = listener.Listen(0); !st.ok()) {
    std::fprintf(stderr, "dist: %s\n", st.ToString().c_str());
    return 1;
  }
  const uint16_t port = listener.port();
  // Bound the coordinator's accept wait: a worker that dies before
  // connecting must not hang the whole attempt.
  const int accept_timeout_ms =
      args.heartbeat_timeout_ms > 0
          ? std::max(args.heartbeat_timeout_ms, 10000)
          : -1;
  std::minstd_rand rng(
      static_cast<uint32_t>(::getpid()) * 2654435761u ^
      static_cast<uint32_t>(std::chrono::steady_clock::now()
                                .time_since_epoch()
                                .count()));

  for (int attempt = 0;; ++attempt) {
    std::fflush(nullptr);
    std::vector<pid_t> children;
    bool fork_failed = false;
    for (int r = 0; r < n; ++r) {
      pid_t pid = ::fork();
      if (pid < 0) {
        std::perror("fork");
        fork_failed = true;
        break;
      }
      if (pid == 0) {
        // An injected fault models ONE failure event: recovery attempts
        // run with both chaos layers disarmed, otherwise a fault whose
        // sweep is revisited after resume would refire forever.
        if (attempt > 0) {
          ::unsetenv("COLD_FAULT_POINT");
          ::unsetenv("COLD_NET_FAULT");
          cold::FaultInjector::Global().Disarm();
          cold::dist::NetFaultInjector::Global().Disarm();
        }
        std::vector<std::unique_ptr<Transport>> peers;
        int code = 1;
        if (r == 0) {
          bool ok = true;
          for (int i = 1; i < n; ++i) {
            auto accepted = listener.Accept(accept_timeout_ms);
            if (!accepted.ok()) {
              std::fprintf(stderr, "dist: %s\n",
                           accepted.status().ToString().c_str());
              ok = false;
              break;
            }
            peers.push_back(std::move(accepted).ValueOrDie());
          }
          if (ok) {
            code = RunDistNode(args, config, dataset, 0, std::move(peers),
                               /*force_resume=*/attempt > 0);
          }
        } else {
          listener.Close();
          auto connected = TcpConnect("127.0.0.1", port);
          if (!connected.ok()) {
            std::fprintf(stderr, "dist: %s\n",
                         connected.status().ToString().c_str());
          } else {
            peers.push_back(std::move(connected).ValueOrDie());
            code = RunDistNode(args, config, dataset, r, std::move(peers),
                               /*force_resume=*/attempt > 0);
          }
        }
        std::fflush(nullptr);
        ::_exit(code);
      }
      children.push_back(pid);
    }

    // Reap the attempt. The first failed child condemns the rest:
    // survivors are already aborting on their own (kAbort broadcast or
    // liveness deadline), but a SIGSTOPped hung rank never would, so
    // everything still running is SIGKILLed. Checkpoint writes are
    // atomic (tmp + rename), so a kill can never tear one.
    bool all_ok = !fork_failed;
    bool condemned = fork_failed;
    std::vector<bool> reaped(children.size(), false);
    if (condemned) {
      for (pid_t pid : children) ::kill(pid, SIGKILL);
    }
    size_t live = children.size();
    while (live > 0) {
      int wstatus = 0;
      pid_t pid = ::waitpid(-1, &wstatus, 0);
      if (pid < 0) {
        if (errno == EINTR) continue;
        break;
      }
      size_t idx = children.size();
      for (size_t i = 0; i < children.size(); ++i) {
        if (!reaped[i] && children[i] == pid) idx = i;
      }
      if (idx == children.size()) continue;
      reaped[idx] = true;
      --live;
      if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
        all_ok = false;
        if (!condemned) {
          condemned = true;
          for (size_t i = 0; i < children.size(); ++i) {
            if (!reaped[i]) ::kill(children[i], SIGKILL);
          }
        }
      }
    }

    if (all_ok) {
      if (attempt > 0) {
        std::printf("dist: job recovered after %d restart(s)\n", attempt);
      }
      return 0;
    }
    if (attempt >= args.max_restarts) {
      std::fprintf(stderr, "dist: restart budget of %d exhausted\n",
                   args.max_restarts);
      return 1;
    }

    // Jittered exponential backoff so restart storms cannot synchronize;
    // then re-bind the same port to flush any stale half-open connections
    // out of the listen backlog before the next attempt.
    const int ceiling_ms = 200 << std::min(attempt, 5);
    const int sleep_ms =
        ceiling_ms / 2 +
        static_cast<int>(rng() % static_cast<uint32_t>(ceiling_ms / 2 + 1));
    std::fprintf(stderr,
                 "dist: attempt %d failed; restarting from the newest "
                 "common checkpoint in %dms (restart %d of %d)\n",
                 attempt + 1, sleep_ms, attempt + 1, args.max_restarts);
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    listener.Close();
    cold::Status rebind = cold::Status::OK();
    for (int tries = 0; tries < 50; ++tries) {
      rebind = listener.Listen(port);
      if (rebind.ok()) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    if (!rebind.ok()) {
      std::fprintf(stderr, "dist: cannot re-bind port %u: %s\n",
                   static_cast<unsigned>(port), rebind.ToString().c_str());
      return 1;
    }
  }
}

/// The --nodes execution path: returns the process exit code. With
/// --max-restarts > 0 (self-fork mode) the parent supervises and restarts
/// the job; otherwise the legacy fail-stop layout runs — the parent IS
/// rank 0, workers are its children, and any failure fails the whole job
/// (the operator restarts it with --resume).
int RunDistributed(const Args& args, const cold::core::ColdConfig& config,
                   const cold::data::SocialDataset& dataset) {
  using namespace cold;
  if (args.max_restarts > 0) return RunSupervised(args, config, dataset);

  int rank = 0;
  std::vector<std::unique_ptr<dist::Transport>> peers;
  std::vector<pid_t> children;
  if (!SetupDistTransports(args, &rank, &peers, &children)) return 1;

  int exit_code = RunDistNode(args, config, dataset, rank, std::move(peers),
                              /*force_resume=*/false);

  // Reap self-forked workers; any failed or killed worker fails the job.
  for (pid_t pid : children) {
    int wstatus = 0;
    if (::waitpid(pid, &wstatus, 0) < 0 || !WIFEXITED(wstatus) ||
        WEXITSTATUS(wstatus) != 0) {
      std::fprintf(stderr, "dist: worker pid %d failed\n",
                   static_cast<int>(pid));
      exit_code = 1;
    }
  }
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cold;
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage(argv[0]);

  // Arms the crash-injection harness when COLD_FAULT_POINT is set (no-op
  // otherwise); used by tools/crashloop_train.sh and the recovery tests.
  FaultInjector::Global().ConfigureFromEnv();

  if (args.trace || !args.trace_out.empty()) obs::TraceRing::Enable(8192);

  auto dataset_result = data::LoadDataset(args.dataset_dir);
  if (!dataset_result.ok()) {
    std::fprintf(stderr, "load: %s\n",
                 dataset_result.status().ToString().c_str());
    return 1;
  }
  data::SocialDataset dataset = std::move(dataset_result).ValueOrDie();
  std::printf("loaded %d users, %d posts, %lld links\n", dataset.num_users(),
              dataset.posts.num_posts(),
              static_cast<long long>(dataset.interactions.num_edges()));

  core::ColdConfig config;
  config.num_communities = args.num_communities;
  config.num_topics = args.num_topics;
  config.iterations = args.iterations;
  config.burn_in = config.iterations * 3 / 4;
  // Dataset-wide vocabulary, so phi/n_kv cover word ids beyond those seen
  // in whatever subset trains (see ColdConfig::vocab_size).
  config.vocab_size = static_cast<int>(dataset.vocabulary.size());
  config.rho = 0.5;
  config.alpha = 0.5;
  config.kappa = 10.0;
  if (auto st = config.Validate(); !st.ok()) {
    std::fprintf(stderr, "config: %s\n", st.ToString().c_str());
    return 1;
  }

  core::CheckpointManager ckpt(
      {args.checkpoint_dir, args.checkpoint_every, args.checkpoint_keep});
  uint64_t fingerprint = 0;
  if (!args.checkpoint_dir.empty()) {
    if (auto st = ckpt.Init(); !st.ok()) {
      std::fprintf(stderr, "checkpoint: %s\n", st.ToString().c_str());
      return 1;
    }
    fingerprint = core::DataFingerprint(dataset.posts, &dataset.interactions);
  }

  MetricsSeries series;
  Stopwatch watch;
  core::ColdEstimates estimates;

  // Profiling covers exactly the training phase (load/save excluded so
  // attribution reflects the hot path, not I/O).
  std::optional<obs::ProfileScope> profile;
  if (args.profile) {
    obs::ProfileScopeOptions popts;
    popts.out_path = args.profile_out;
    popts.print_top = 15;
    profile.emplace(std::move(popts));
  }

  if (args.dist_nodes > 0) {
    // Multi-process path: forks/connects before any thread pool exists and
    // handles its own checkpointing (per-rank directories), metrics, and
    // model write. Trace/profile output above still applies to this
    // process (rank 0 in self-fork mode).
    int exit_code = RunDistributed(args, config, dataset);
    profile.reset();
    if (exit_code == 0 && !args.trace_out.empty() &&
        !obs::ExportChromeTrace(args.trace_out)) {
      return 1;
    }
    if (args.trace) PrintSpanSummary();
    return exit_code;
  }

  if (args.parallel) {
    engine::EngineOptions options;
    options.threads_per_node = args.threads_per_node;
    options.oversubscribe = args.oversubscribe;
    core::ParallelColdTrainer trainer(config, dataset.posts,
                                      &dataset.interactions, options);
    if (auto st = trainer.Init(); !st.ok()) {
      std::fprintf(stderr, "init: %s\n", st.ToString().c_str());
      return 1;
    }
    if (args.resume &&
        !TryResume(ckpt, core::CheckpointFlavor::kParallel, fingerprint,
                   [&](const std::string& p) {
                     return trainer.RestoreState(p);
                   })) {
      return 1;
    }
    if (!args.metrics_out.empty() || ckpt.enabled()) {
      trainer.SetSuperstepCallback([&](int sweep) {
        if (!args.metrics_out.empty()) series.Record(sweep);
        if (ckpt.ShouldCheckpoint(sweep)) {
          WriteCheckpoint(ckpt, core::CheckpointFlavor::kParallel, sweep,
                          fingerprint, [&](std::string* out) {
                            return trainer.SerializeState(out);
                          });
        }
      });
    }
    if (auto st = trainer.Train(); !st.ok()) {
      std::fprintf(stderr, "train: %s\n", st.ToString().c_str());
      return 1;
    }
    estimates = trainer.Estimates();
    std::printf("parallel training (--threads %d): %.2fs\n",
                args.threads_per_node, watch.ElapsedSeconds());
  } else {
    core::ColdGibbsSampler sampler(config, dataset.posts,
                                   &dataset.interactions);
    if (auto st = sampler.Init(); !st.ok()) {
      std::fprintf(stderr, "init: %s\n", st.ToString().c_str());
      return 1;
    }
    if (args.resume &&
        !TryResume(ckpt, core::CheckpointFlavor::kSerial, fingerprint,
                   [&](const std::string& p) {
                     return sampler.RestoreState(p);
                   })) {
      return 1;
    }
    if (!args.metrics_out.empty() || ckpt.enabled()) {
      // Refresh the train-LL gauge every sweep so each snapshot carries the
      // convergence trajectory (§4.3). This costs an extra likelihood pass
      // per sweep — metrics collection is opt-in for exactly this reason.
      obs::Gauge* ll_gauge = obs::Registry::Global().GetGauge(
          "cold/gibbs/train_log_likelihood");
      sampler.SetSweepCallback([&](int sweep) {
        if (!args.metrics_out.empty()) {
          ll_gauge->Set(sampler.TrainingLogLikelihood());
          series.Record(sweep);
        }
        if (ckpt.ShouldCheckpoint(sweep)) {
          WriteCheckpoint(ckpt, core::CheckpointFlavor::kSerial, sweep,
                          fingerprint, [&](std::string* out) {
                            return sampler.SerializeState(out);
                          });
        }
      });
    }
    if (auto st = sampler.Train(); !st.ok()) {
      std::fprintf(stderr, "train: %s\n", st.ToString().c_str());
      return 1;
    }
    estimates = sampler.AveragedEstimates();
    std::printf("serial training: %.2fs\n", watch.ElapsedSeconds());
  }

  // End the profiling session (writing/printing its report) before the
  // post-training bookkeeping below.
  profile.reset();

  if (!args.trace_out.empty() && !obs::ExportChromeTrace(args.trace_out)) {
    return 1;
  }

  if (!args.metrics_out.empty()) {
    if (!series.WriteTo(args.metrics_out)) {
      std::fprintf(stderr, "metrics: cannot write %s\n",
                   args.metrics_out.c_str());
      return 1;
    }
    std::printf("metrics series (%zu snapshots) written to %s\n",
                series.size(), args.metrics_out.c_str());
  }
  if (args.trace) PrintSpanSummary();

  return SaveModel(args, estimates, config.top_communities) ? 0 : 1;
}
