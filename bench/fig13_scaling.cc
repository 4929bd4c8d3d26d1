// Figure 13: training-time scalability, measured.
//   (a) engine compute seconds vs data size on one worker — the paper's
//       linear shape;
//   (b) wall time vs node count: N distributed trainer nodes (the
//       `cold_train --nodes N` code path, in-process over loopback) with
//       measured wall seconds, wire bytes and barrier wait (DESIGN.md §12).
// The N nodes share this host's CPUs, so (b) reads protocol overhead, not
// the paper's cluster speedup.
#include <memory>
#include <vector>

#include "common.h"
#include "core/parallel_sampler.h"
#include "dist/dist_trainer.h"
#include "util/stopwatch.h"

int main() {
  using namespace cold;
  bench::QuietLogs();
  bench::PrintHeader("Fig 13a: training time vs data size (1 worker)");

  const int iterations = 20;
  std::printf("%-12s %-10s %-16s\n", "users", "posts", "compute (s)");
  data::SocialDataset base_ds = [] {
    data::SyntheticConfig dc = bench::BenchDataConfig();
    return bench::GenerateBenchData(dc);
  }();
  for (double frac : {0.25, 0.5, 1.0}) {
    data::SyntheticConfig dc = bench::BenchDataConfig();
    dc.num_users = static_cast<int>(dc.num_users * frac);
    data::SocialDataset ds = bench::GenerateBenchData(dc);
    core::ColdConfig config = bench::BenchColdConfig(8, 12, iterations);
    config.burn_in = 0;
    core::ParallelColdTrainer trainer(config, ds.posts, &ds.interactions);
    if (!trainer.Init().ok() || !trainer.Train().ok()) return 1;
    std::printf("%-12d %-10d %-16.3f\n", ds.num_users(),
                ds.posts.num_posts(), trainer.engine_stats().total_seconds());
  }
  std::printf("(paper shape: time grows linearly with data size)\n\n");

  bench::PrintHeader(
      "Fig 13b: MEASURED multi-node training time (real dist trainer)");
  // N distributed nodes over loopback transports running the sharded
  // delta-merge protocol (the `cold_train --nodes N` code path) on the
  // base Fig-13a dataset.
  std::printf("%-8s %-16s %-16s %-12s\n", "nodes", "measured (s)",
              "wire bytes", "barrier (s)");
  for (int num_nodes : {1, 2, 4}) {
    core::ColdConfig config = bench::BenchColdConfig(8, 12, iterations);
    config.burn_in = 0;
    std::vector<std::unique_ptr<dist::DistTrainer>> owned;
    std::vector<dist::DistTrainer*> nodes;
    for (int rank = 0; rank < num_nodes; ++rank) {
      dist::DistConfig dist_config;
      dist_config.num_nodes = num_nodes;
      dist_config.node_rank = rank;
      dist_config.cold = config;
      dist_config.engine.threads_per_node = 1;
      owned.push_back(std::make_unique<dist::DistTrainer>(
          dist_config, base_ds.posts, &base_ds.interactions));
      nodes.push_back(owned.back().get());
    }
    Stopwatch watch;
    auto st = dist::DistTrainer::RunLocalCluster(nodes);
    double measured = watch.ElapsedSeconds();
    if (!st.ok()) {
      std::fprintf(stderr, "distributed run failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    const dist::DistStats& stats = nodes[0]->stats();
    std::printf("%-8d %-16.3f %-16lld %-12.4f\n", num_nodes, measured,
                static_cast<long long>(stats.bytes_sent +
                                       stats.bytes_received),
                stats.barrier_wait_seconds);
  }
  std::printf("(measured seconds are real wall time of N in-process nodes\n"
              " sharing this host's cores — a protocol-overhead readout,\n"
              " not a cluster-speedup claim on a single-socket machine)\n");
  bench::DumpTelemetryIfRequested();
  return 0;
}
