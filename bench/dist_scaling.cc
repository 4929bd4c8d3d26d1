// Multi-node distributed training scalability (DESIGN.md §12).
//
// Runs the real distributed trainer — N in-process nodes over loopback
// transports, the exact code path `cold_train --nodes N` forks — at node
// counts {1, 2, 4} and reports, per node count:
//   - tokens/sec over the sharded-superstep wall time;
//   - measured comm bytes on the wire (coordinator send + recv, so every
//     frame is counted exactly once) total and per superstep;
//   - mean superstep wall seconds and barrier wait seconds;
//   - the scatter chunks each rank owns (the balance of the cut rule).
//
// The run double-checks the tentpole determinism guarantee: every node
// count must finish with byte-identical serialized state to the 1-node
// run, and every rank's replica must match rank 0. Any mismatch exits 1.
//
// Results land as JSON in --out (default BENCH_dist.json). --smoke shrinks
// the dataset to seconds of runtime and validates the emitted JSON —
// wired up as the `bench_dist_smoke` ctest and the bench_regression gate's
// dist leg (baseline: bench/baselines/dist.json).
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "dist/dist_trainer.h"
#include "serve/json.h"
#include "util/stopwatch.h"

namespace {

using namespace cold;

struct BenchSetup {
  data::SocialDataset dataset;
  core::ColdConfig config;
  int64_t tokens = 0;
};

BenchSetup MakeSetup(bool smoke) {
  data::SyntheticConfig data_config = bench::BenchDataConfig();
  data_config.num_users = std::max(
      20, static_cast<int>(data_config.num_users * (smoke ? 0.05 : 0.5)));
  BenchSetup setup{bench::GenerateBenchData(data_config),
                   bench::BenchColdConfig(8, 12, smoke ? 4 : 12)};
  setup.config.burn_in = 0;
  setup.config.sample_lag = 1;
  for (text::PostId d = 0; d < setup.dataset.posts.num_posts(); ++d) {
    setup.tokens += setup.dataset.posts.length(d);
  }
  return setup;
}

struct NodeCountResult {
  dist::DistStats stats;
  std::vector<double> owned_chunks_per_rank;
  double measured_seconds = 0.0;
  std::string state_bytes;
  bool replicas_match = true;
};

NodeCountResult RunNodes(const BenchSetup& setup, int num_nodes) {
  std::vector<std::unique_ptr<dist::DistTrainer>> owned;
  std::vector<dist::DistTrainer*> nodes;
  for (int rank = 0; rank < num_nodes; ++rank) {
    dist::DistConfig config;
    config.num_nodes = num_nodes;
    config.node_rank = rank;
    config.cold = setup.config;
    config.engine.threads_per_node = 1;
    owned.push_back(std::make_unique<dist::DistTrainer>(
        config, setup.dataset.posts, &setup.dataset.interactions));
    nodes.push_back(owned.back().get());
  }
  Stopwatch watch;
  auto st = dist::DistTrainer::RunLocalCluster(nodes);
  NodeCountResult result;
  result.measured_seconds = watch.ElapsedSeconds();
  if (!st.ok()) {
    std::fprintf(stderr, "distributed run (%d nodes) failed: %s\n", num_nodes,
                 st.ToString().c_str());
    std::exit(1);
  }
  result.stats = nodes[0]->stats();
  for (const dist::DistTrainer* node : nodes) {
    result.owned_chunks_per_rank.push_back(
        static_cast<double>(node->stats().owned_chunks));
  }
  st = nodes[0]->SerializeState(&result.state_bytes);
  if (!st.ok()) {
    std::fprintf(stderr, "serialize failed: %s\n", st.ToString().c_str());
    std::exit(1);
  }
  for (int rank = 1; rank < num_nodes; ++rank) {
    std::string peer_bytes;
    if (!nodes[rank]->SerializeState(&peer_bytes).ok() ||
        peer_bytes != result.state_bytes) {
      result.replicas_match = false;
    }
  }
  return result;
}

bool ValidateJson(const std::string& path) {
  auto parsed = bench::LoadJsonFile(path);
  if (!parsed.ok()) {
    std::fprintf(stderr, "smoke: invalid JSON: %s\n",
                 parsed.status().ToString().c_str());
    return false;
  }
  const serve::Json& root = parsed.ValueOrDie();
  const serve::Json* counts = root.Find("node_counts");
  if (counts == nullptr || !counts->is_array() ||
      counts->as_array().size() < 2) {
    std::fprintf(stderr, "smoke: need >= 2 node counts\n");
    return false;
  }
  for (const serve::Json& point : counts->as_array()) {
    const serve::Json* tps = point.Find("tokens_per_sec");
    if (tps == nullptr || !tps->is_number() || !(tps->as_number() > 0.0)) {
      std::fprintf(stderr, "smoke: tokens/sec not > 0\n");
      return false;
    }
    const serve::Json* det = point.Find("bit_identical_to_single_node");
    if (det == nullptr || !det->is_bool() || !det->as_bool()) {
      std::fprintf(stderr, "smoke: determinism flag not true\n");
      return false;
    }
    const serve::Json* nodes = point.Find("nodes");
    const serve::Json* comm = point.Find("comm_bytes_total");
    if (nodes == nullptr || comm == nullptr || !comm->is_number() ||
        (nodes->as_number() > 1.0 && !(comm->as_number() > 0.0))) {
      std::fprintf(stderr, "smoke: multi-node run reported no comm bytes\n");
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cold;
  bench::QuietLogs();

  std::string out_path = "BENCH_dist.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out FILE]\n", argv[0]);
      return 1;
    }
  }
  bench::PrintHeader("Distributed trainer: real multi-node scaling");

  const BenchSetup setup = MakeSetup(smoke);
  std::printf("posts=%d links=%lld tokens=%lld supersteps=%d\n",
              setup.dataset.posts.num_posts(),
              static_cast<long long>(setup.dataset.interactions.num_edges()),
              static_cast<long long>(setup.tokens), setup.config.iterations);

  serve::Json root = serve::Json::MakeObject();
  root.Set("bench", "dist_scaling");
  // Every node of a run shares this host's hardware threads.
  root.Set("hardware_threads",
           static_cast<double>(std::thread::hardware_concurrency()));
  root.Set("num_posts", static_cast<double>(setup.dataset.posts.num_posts()));
  root.Set("tokens", static_cast<double>(setup.tokens));
  serve::Json counts = serve::Json::MakeArray();

  std::printf("%-7s %-13s %-13s %-13s %-13s\n", "nodes", "tokens/sec",
              "measured (s)", "comm bytes", "barrier (s)");
  std::string reference_state;
  bool all_deterministic = true;
  for (int num_nodes : {1, 2, 4}) {
    NodeCountResult run = RunNodes(setup, num_nodes);
    if (reference_state.empty()) reference_state = run.state_bytes;
    const bool identical =
        run.replicas_match && run.state_bytes == reference_state;
    all_deterministic = all_deterministic && identical;

    const dist::DistStats& stats = run.stats;
    double tps = stats.superstep_seconds > 0.0
                     ? static_cast<double>(setup.tokens) *
                           stats.supersteps_run / stats.superstep_seconds
                     : 0.0;
    // Star topology: every frame crosses the coordinator exactly once, so
    // rank 0's send + recv totals are the whole cluster's wire traffic.
    int64_t comm_bytes = stats.bytes_sent + stats.bytes_received;
    std::printf("%-7d %-13.0f %-13.3f %-13lld %-13.4f\n", num_nodes, tps,
                run.measured_seconds, static_cast<long long>(comm_bytes),
                stats.barrier_wait_seconds);

    serve::Json point = serve::Json::MakeObject();
    point.Set("nodes", static_cast<double>(num_nodes));
    point.Set("tokens_per_sec", tps);
    point.Set("measured_seconds", run.measured_seconds);
    point.Set("comm_bytes_total", static_cast<double>(comm_bytes));
    point.Set("comm_bytes_per_superstep",
              stats.supersteps_run > 0
                  ? static_cast<double>(comm_bytes) / stats.supersteps_run
                  : 0.0);
    point.Set("superstep_seconds_mean",
              stats.supersteps_run > 0
                  ? stats.superstep_seconds / stats.supersteps_run
                  : 0.0);
    point.Set("barrier_wait_seconds", stats.barrier_wait_seconds);
    point.Set("owned_chunks_rank0", static_cast<double>(stats.owned_chunks));
    point.Set("owned_chunks_per_rank",
              bench::ToJsonArray(run.owned_chunks_per_rank));
    point.Set("total_chunks", static_cast<double>(stats.total_chunks));
    point.Set("bit_identical_to_single_node", identical);
    counts.Append(point);
  }
  root.Set("node_counts", counts);

  if (!all_deterministic) {
    std::fprintf(stderr,
                 "FAIL: distributed runs are not bit-identical across node "
                 "counts\n");
    return 1;
  }
  std::printf("all node counts bit-identical to the single-node run\n");

  if (!bench::WriteJsonFile(root, out_path)) return 1;
  std::printf("results written to %s\n", out_path.c_str());

  if (smoke && !ValidateJson(out_path)) return 1;
  bench::DumpTelemetryIfRequested();
  return 0;
}
