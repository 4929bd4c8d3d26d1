// End-to-end pipeline benchmark: synthetic corpus -> three trainers ->
// COLDARN1 arenas -> live ModelService behind HttpServer -> HTTP traffic,
// with every output checked (see README.md).
//
//   e2ebench --workload k12_hot|k48_fanout --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// carrying the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). A traced run also prints its end-to-end figures on the line
// before, prefixed "E2E ", so the tracing overhead can be measured.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "core/checkpoint.h"
#include "core/gibbs_sampler.h"
#include "core/model_io.h"
#include "core/parallel_sampler.h"
#include "core/predictor.h"
#include "data/serialize.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "dist/dist_trainer.h"
#include "load_client.h"
#include "obs/metrics.h"
#include "serve/http.h"
#include "serve/http_server.h"
#include "serve/model_service.h"
#include "serve/snapshot_arena.h"
#include "spans.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/simd.h"
#include "util/stopwatch.h"

namespace {

namespace fs = std::filesystem;
namespace core = cold::core;
namespace data = cold::data;
namespace serve = cold::serve;
using e2ebench::Expected;
using e2ebench::Span;

/// One workload's make-up. README.md records every value.
struct Workload {
  const char* name;
  // Corpus: SyntheticConfig knobs (the rest keep their defaults); the
  // model's C and K equal the planted ones.
  int users;
  int communities;
  int topics;
  int time_slices;
  // Training.
  int sweeps;
  int checkpoint_every;  // 0: no checkpoints while training
  // Traffic.
  bool fanout;  // one fan-out per held-out tuple; else a single-candidate pool
  int replicas;
  int pool_pairs;          // single-candidate pool size
  double open_rate;        // open-loop requests per second
  int reload_interval_ms;  // 0: no re-publishes while traffic runs
};

constexpr Workload kWorkloads[] = {
    {"k12_hot", 2000, 8, 12, 24, 24, 4, false, 1, 256, 4000.0, 0},
    {"k48_fanout", 2000, 16, 48, 24, 24, 0, true, 2, 0, 1200.0, 250},
};

constexpr int kConnections = 4;
// The host's CPUs are shared with other machines, and a slowdown can last
// for seconds. A run therefore repeats the whole pipeline in rounds — set
// up, train three ways, publish both models, serve, publish again, score
// the held-out data — one round per kRoundSeconds of --seconds, each with
// its own training seed, so the quality metrics are means over several
// trained models rather than one seed's luck. Every throughput and latency
// is taken per slice (a block of sweeps, half a second of closed loop, the
// next kMinSliceSamples requests due in the open loop) and reported as the
// median slice over all rounds. A stall of the host then moves a few
// slices, not the median; a stall the program causes at a steady cadence,
// such as every reload, shows in every slice.
constexpr double kRoundSeconds = 2.0;  // of traffic: half closed, half open loop
constexpr int kSweepsPerBlock = 4;
constexpr double kClosedSliceSeconds = 0.5;
constexpr int kTopComm = 5;
constexpr int kReplayRequests = 2000;
constexpr int64_t kMinSliceSamples = 1000;  // >= 10 beyond each slice's p99
constexpr int kSerial = 0, kParallel = 1;
int client_cpu = -1;  // set once in main()
const char* const kKindName[2] = {"serial", "parallel"};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc % 2 != 1) return false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
      continue;
    }
    char* end = nullptr;
    const double v = std::strtod(value, &end);
    if (end == value || *end != '\0' || !(v >= 0)) return false;
    if (key == "--seed") {
      args->seed = static_cast<uint64_t>(v);
    } else if (key == "--seconds") {
      args->seconds = v;
    } else if (key == "--trace") {
      args->trace = v != 0;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return NAN;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return NAN;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// Nearest-rank quantile.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return NAN;
  std::sort(v.begin(), v.end());
  const size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
}

/// Tokens per second of each block of kSweepsPerBlock sweeps. `marks[s]` is
/// the time sweep s+1 ended, counted from the start of training, so a block
/// includes whatever ran between its sweeps (checkpoint writes; the
/// handshake and Init() before the first sweep).
std::vector<double> BlockRates(const std::vector<double>& marks,
                               int64_t tokens) {
  std::vector<double> rates;
  double begin = 0.0;
  for (size_t end = kSweepsPerBlock; end <= marks.size();
       end += kSweepsPerBlock) {
    rates.push_back(static_cast<double>(tokens) * kSweepsPerBlock /
                    (marks[end - 1] - begin));
    begin = marks[end - 1];
  }
  return rates;
}

/// Answers completed per second in each slice of a closed loop.
std::vector<double> SliceRates(const e2ebench::LoadResult& r, double seconds) {
  std::vector<double> counts(
      static_cast<size_t>(seconds / kClosedSliceSeconds), 0.0);
  for (size_t i = 0; i < r.latency_s.size(); ++i) {
    const size_t k =
        static_cast<size_t>((r.start_s[i] + r.latency_s[i]) / kClosedSliceSeconds);
    if (k < counts.size()) counts[k] += 1.0;
  }
  for (double& c : counts) c /= kClosedSliceSeconds;
  return counts;
}

/// Latencies of an open loop at `rate` grouped by the slice their request
/// was due in, kMinSliceSamples due requests to a slice.
std::vector<std::vector<double>> SliceLatencies(const e2ebench::LoadResult& r,
                                                double seconds, double rate) {
  // Requests are due every floor(1e9 / rate) ns (load_client.cc).
  const double slice_s =
      static_cast<double>(kMinSliceSamples) * std::floor(1e9 / rate) * 1e-9;
  std::vector<std::vector<double>> slices(
      static_cast<size_t>(seconds / slice_s + 1e-9));
  for (size_t i = 0; i < r.latency_s.size(); ++i) {
    const size_t k = static_cast<size_t>(r.start_s[i] / slice_s + 1e-9);
    if (k < slices.size()) slices[k].push_back(r.latency_s[i]);
  }
  return slices;
}

/// Operations attempted and failed, per phase. Thread-safe: the publisher
/// thread records its reloads while the client thread records requests.
class Tally {
 public:
  struct Phase {
    const char* name;
    int64_t attempted = 0;
    int64_t failed = 0;
  };
  enum Id { kSweeps, kCheckpoints, kPublishes, kRequests, kChecks, kNum };

  void Add(Id id, int64_t attempted, int64_t failed) {
    std::lock_guard<std::mutex> lock(mutex_);
    phases_[id].attempted += attempted;
    phases_[id].failed += failed;
  }
  /// Counts one operation; prints and counts a failure when !st.ok().
  bool Op(Id id, const cold::Status& st, const std::string& what) {
    Add(id, 1, st.ok() ? 0 : 1);
    if (!st.ok()) {
      std::fprintf(stderr, "FAILED %s: %s\n", what.c_str(),
                   st.ToString().c_str());
    }
    return st.ok();
  }
  void Check(bool ok, const std::string& what) {
    Add(kChecks, 1, ok ? 0 : 1);
    if (!ok) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  /// Check whose problem description is empty on success.
  void CheckEmpty(const std::string& problem, const std::string& what) {
    Check(problem.empty(), what + (problem.empty() ? "" : ": " + problem));
  }
  std::vector<Phase> phases() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return {phases_, phases_ + kNum};
  }

 private:
  mutable std::mutex mutex_;
  Phase phases_[kNum] = {{"sweeps"},
                         {"checkpoints"},
                         {"publishes"},
                         {"requests"},
                         {"checks"}};
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os.precision(17);
  os << "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? "," : "") << "\"" << metrics[i].name << "\":{\"value\":"
       << metrics[i].value << ",\"unit\":\"" << metrics[i].unit << "\"}";
  }
  os << "}";
  return os.str();
}

/// Everything set-up builds. The trainers hold references into the splits,
/// so a Pipeline never moves.
struct Pipeline {
  data::SocialDataset dataset;
  data::PostSplit posts;
  data::RetweetSplit retweets;
  core::ColdConfig config;
  std::unique_ptr<core::ColdGibbsSampler> serial;
  std::unique_ptr<core::ParallelColdTrainer> parallel;
};

core::ColdConfig ModelConfig(const Workload& w, int vocab, uint64_t seed) {
  core::ColdConfig config;
  config.num_communities = w.communities;
  config.num_topics = w.topics;
  config.iterations = w.sweeps;
  config.burn_in = w.sweeps * 3 / 4;
  config.sample_lag = 2;
  config.vocab_size = vocab;
  config.rho = 0.5;
  config.alpha = 0.5;
  config.kappa = 10.0;
  config.top_communities = kTopComm;
  config.seed = seed;
  return config;
}

/// Parallel and distributed trainers run two workers in total.
cold::engine::EngineOptions TwoWorkers(uint64_t seed) {
  cold::engine::EngineOptions options;
  options.threads_per_node = 2;
  options.seed = seed;
  return options;
}

/// One /v1/diffusion request of the workload.
struct Query {
  int author = 0;
  std::vector<int32_t> words;
  std::vector<int> candidates;
  int retweeters = 0;  // the first `retweeters` candidates retweeted
  std::string wire;
};

Query MakeQuery(const data::SocialDataset& ds, const data::RetweetTuple& t,
                std::vector<int> candidates, int retweeters) {
  Query q;
  q.author = t.author;
  auto words = ds.posts.words(t.post);
  q.words.assign(words.begin(), words.end());
  q.candidates = std::move(candidates);
  q.retweeters = retweeters;
  std::string body = "{\"publisher\":" + std::to_string(q.author) +
                     ",\"words\":[";
  for (size_t i = 0; i < q.words.size(); ++i) {
    if (i > 0) body += ',';
    body += std::to_string(q.words[i]);
  }
  body += "]";
  if (q.candidates.size() == 1) {
    body += ",\"candidate\":" + std::to_string(q.candidates[0]) + "}";
  } else {
    body += ",\"candidates\":[";
    for (size_t i = 0; i < q.candidates.size(); ++i) {
      if (i > 0) body += ',';
      body += std::to_string(q.candidates[i]);
    }
    body += "]}";
  }
  q.wire = e2ebench::PostRequest("/v1/diffusion", body);
  return q;
}

/// Fan-out query scoring every retweeter and ignorer of a tuple (§6.3).
Query FanoutQuery(const data::SocialDataset& ds, const data::RetweetTuple& t) {
  std::vector<int> candidates(t.retweeters.begin(), t.retweeters.end());
  candidates.insert(candidates.end(), t.ignorers.begin(), t.ignorers.end());
  return MakeQuery(ds, t, std::move(candidates),
                   static_cast<int>(t.retweeters.size()));
}

std::vector<Expected> ExpectedAnswers(const e2ebench::RefModel& ref,
                                      const Query& q) {
  const std::vector<double> posterior =
      e2ebench::RefPosterior(ref, q.words, q.author);
  std::vector<Expected> out;
  out.reserve(q.candidates.size());
  for (int c : q.candidates) {
    out.push_back(e2ebench::RefDiffusion(ref, q.author, c, posterior));
  }
  return out;
}

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

double HistogramQuantile(const char* name, double q, int64_t* count) {
  for (const auto& h : cold::obs::Registry::Global().Snapshot().histograms) {
    if (h.name == name && h.labels.empty()) {
      *count = h.count;
      return h.Quantile(q);
    }
  }
  *count = 0;
  return NAN;
}

void HistogramCountSum(const char* name, int64_t* count, double* sum) {
  *count = 0;
  *sum = 0.0;
  for (const auto& h : cold::obs::Registry::Global().Snapshot().histograms) {
    if (h.name == name && h.labels.empty()) {
      *count = h.count;
      *sum = h.sum;
    }
  }
}

/// The model generations the service has installed, and which trained
/// model each one serves. A request sent after generation `installed` was
/// in place and answered before generation `started + 1` began loading was
/// served by a generation in [installed, started].
struct Generations {
  std::vector<uint8_t> kind = std::vector<uint8_t>(1 << 16, 255);
  std::atomic<int64_t> started{0};
  std::atomic<int64_t> installed{0};
};

class Bench {
 public:
  Bench(const Workload& w, const Args& args, int rounds, fs::path dir)
      : w_(w), args_(args), rounds_(rounds), dir_(std::move(dir)) {}

  int Run();

 private:
  bool MakeCorpus();
  bool Round();
  bool Setup();
  bool TrainSerial();
  bool TrainParallel();
  bool TrainDist();
  void CheckTrainers();
  bool StartService();
  /// Estimates -> arena -> reload -> first answer; returns wall ms or NaN.
  double Publish(int kind);
  /// The serial and then the parallel model, timed into publish_ms_.
  void PublishBoth();
  /// Writes the cached model of `kind` and hot-reloads it (traffic-time
  /// re-publish, on the publisher thread).
  void Republish(int kind);
  void CheckPublished(int kind, const core::ColdEstimates& est);
  void BuildQueries();
  void ComputeExpected();
  bool RunTraffic();
  void Replay();
  bool AucPass();
  void Quality();
  void Report();

  /// Checks one answer against every generation that could have served
  /// it; fills `served`. False on a wrong or unparsable answer.
  bool VerifyAnswer(const Query& q, const std::vector<Expected>* expected[2],
                    int64_t lo, int64_t hi, std::string_view body,
                    std::vector<double>* served);
  bool VerifyQuery(size_t index, int64_t lo, int64_t hi, std::string_view body,
                   std::vector<double>* served);
  cold::Status LoadPhase(const e2ebench::LoadOptions& options,
                         const std::vector<Query>& queries,
                         const std::vector<std::vector<Expected>>* expected,
                         e2ebench::LoadResult* result,
                         std::vector<std::vector<double>>* answers = nullptr);

  const Workload& w_;
  const Args args_;
  const int rounds_;
  const fs::path dir_;
  uint64_t base_train_seed_ = 0;
  uint64_t train_seed_ = 0;  // this round's
  int round_ = 0;
  Tally tally_;
  std::unique_ptr<Pipeline> p_;
  int64_t train_tokens_ = 0;

  // Measurements.
  std::vector<double> setup_s_;
  // Tokens per second of every block of sweeps, per trainer.
  std::vector<double> serial_rates_, parallel_rates_, dist_rates_;
  std::vector<double> post_phase_s_, link_phase_s_;
  int64_t checkpoint_bytes_ = 0;
  // Summed over rounds.
  cold::engine::EngineStats engine_stats_;
  double work_skew_ = NAN;
  cold::dist::DistStats dist_stats_;
  std::vector<double> publish_ms_;
  int64_t arena_bytes_ = 0;
  std::vector<double> closed_rates_;                  // per slice
  std::vector<std::vector<double>> open_latencies_;  // per slice
  int64_t cache_hits_ = 0, cache_lookups_ = 0;
  std::vector<double> perplexity_[2];  // per round
  std::vector<double> auc_;            // per round

  // Trained models.
  core::ColdState final_serial_state_{0, 0, 0, 0, 0, 0, 0};
  core::ColdState final_parallel_state_{0, 0, 0, 0, 0, 0, 0};
  core::ColdEstimates ref_est_[2];
  std::vector<int32_t> ref_top_[2];
  bool have_ref_[2] = {false, false};
  fs::path arena_path_[2];
  std::unique_ptr<core::CheckpointManager> checkpoints_;

  // Serving.
  std::unique_ptr<serve::ModelService> service_;
  std::unique_ptr<serve::HttpServer> server_;
  std::unique_ptr<e2ebench::Connection> probe_;  // the publish probe's
  Generations gens_;
  std::vector<Query> traffic_;  // the timed requests
  std::vector<std::vector<Expected>> expected_[2];  // per traffic query
  std::vector<Query> tuples_;  // one fan-out per held-out tuple
  int64_t wrong_answers_ = 0;
};

int Bench::Run() {
  base_train_seed_ = args_.seed * 1000003ULL + 17ULL;
  arena_path_[kSerial] = dir_ / "serial.arena";
  arena_path_[kParallel] = dir_ / "parallel.arena";
  std::printf("host: %u hardware threads, simd %s; load client on cpu %d\n",
              std::thread::hardware_concurrency(), cold::simd::DispatchName(),
              client_cpu);
  if (!MakeCorpus() || !StartService()) return 1;
  for (round_ = 0; round_ < rounds_; ++round_) {
    if (!Round()) return 1;
  }
  if (args_.trace) Replay();
  probe_.reset();
  server_->Stop();
  Report();
  return 0;
}

bool Bench::MakeCorpus() {
  data::SyntheticConfig g;
  g.num_users = w_.users;
  g.num_communities = w_.communities;
  g.num_topics = w_.topics;
  g.num_time_slices = w_.time_slices;
  g.seed = args_.seed;
  auto generated = data::SyntheticSocialGenerator(g).Generate();
  if (!generated.ok()) {
    std::fprintf(stderr, "generate: %s\n",
                 generated.status().ToString().c_str());
    return false;
  }
  cold::Status st = data::SaveDataset(*generated, (dir_ / "corpus").string());
  if (!st.ok()) {
    std::fprintf(stderr, "save corpus: %s\n", st.ToString().c_str());
    return false;
  }
  return true;
}

bool Bench::Round() {
  train_seed_ = base_train_seed_ + static_cast<uint64_t>(round_);
  have_ref_[kSerial] = have_ref_[kParallel] = false;
  if (!Setup() || !TrainSerial() || !TrainParallel() || !TrainDist()) {
    return false;
  }
  CheckTrainers();
  PublishBoth();
  if (!have_ref_[kSerial] || !have_ref_[kParallel]) return false;
  if (round_ == 0) BuildQueries();
  ComputeExpected();
  if (!RunTraffic()) return false;
  // Ends on the parallel model, which the AUC pass (and the replay after
  // the last round) score. On the fan-out workload that is a generation no
  // request has seen, so the replay misses the posterior cache as that
  // workload's traffic does.
  PublishBoth();
  if (!AucPass()) return false;
  Quality();
  return true;
}

void Bench::PublishBoth() {
  publish_ms_.push_back(Publish(kSerial));
  publish_ms_.push_back(Publish(kParallel));
}

bool Bench::Setup() {
  p_.reset();
  auto p = std::make_unique<Pipeline>();
  cold::Stopwatch total;
  Span setup("setup");
  {
    Span s("data.load");
    auto loaded = data::LoadDataset((dir_ / "corpus").string());
    if (!loaded.ok()) {
      std::fprintf(stderr, "load: %s\n", loaded.status().ToString().c_str());
      return false;
    }
    p->dataset = std::move(loaded).ValueOrDie();
  }
  {
    Span s("data.split");
    p->posts = data::SplitPosts(p->dataset.posts, 0.2, args_.seed, 0);
    p->retweets = data::SplitRetweets(p->dataset, 0.2, args_.seed, 0);
  }
  p->config = ModelConfig(
      w_, static_cast<int>(p->dataset.vocabulary.size()), train_seed_);
  {
    Span s("core.serial_init");
    p->serial = std::make_unique<core::ColdGibbsSampler>(
        p->config, p->posts.train, &p->retweets.train_interactions);
    if (!tally_.Op(Tally::kChecks, p->serial->Init(), "serial Init")) {
      return false;
    }
  }
  {
    Span s("engine.parallel_init");
    p->parallel = std::make_unique<core::ParallelColdTrainer>(
        p->config, p->posts.train, &p->retweets.train_interactions,
        TwoWorkers(train_seed_));
    if (!tally_.Op(Tally::kChecks, p->parallel->Init(), "parallel Init")) {
      return false;
    }
  }
  setup_s_.push_back(total.ElapsedSeconds());
  p_ = std::move(p);
  train_tokens_ = p_->posts.train.num_tokens();
  return true;
}

bool Bench::TrainSerial() {
  auto& registry = cold::obs::Registry::Global();
  cold::obs::Gauge* post_gauge =
      registry.GetGauge("cold/gibbs/phase_seconds", {{"phase", "post"}});
  cold::obs::Gauge* link_gauge =
      registry.GetGauge("cold/gibbs/phase_seconds", {{"phase", "link"}});
  cold::obs::Counter* tokens = registry.GetCounter("cold/gibbs/tokens_resampled");

  // k48_fanout writes no checkpoint while training; it writes one after
  // the timed sweeps so the checkpoint layer is still measured there.
  const int every = w_.checkpoint_every > 0 ? w_.checkpoint_every : w_.sweeps;
  checkpoints_ = std::make_unique<core::CheckpointManager>(
      core::CheckpointOptions{(dir_ / "checkpoints").string(), every, 2});
  if (!tally_.Op(Tally::kCheckpoints, checkpoints_->Init(), "checkpoint dir")) {
    return false;
  }
  const uint64_t fingerprint = core::DataFingerprint(
      p_->posts.train, &p_->retweets.train_interactions);
  core::ColdGibbsSampler& sampler = *p_->serial;
  auto write_checkpoint = [&](int sweep) {
    Span s("core.checkpoint");
    std::string payload;
    cold::Status st = sampler.SerializeState(&payload);
    if (st.ok()) {
      core::CheckpointMeta meta;
      meta.flavor = core::CheckpointFlavor::kSerial;
      meta.sweep = sweep;
      meta.data_fingerprint = fingerprint;
      st = checkpoints_->Write(meta, payload);
    }
    checkpoint_bytes_ = static_cast<int64_t>(payload.size());
    tally_.Op(Tally::kCheckpoints, st, "checkpoint write");
  };
  cold::Stopwatch watch;
  std::vector<double> marks;
  sampler.SetSweepCallback([&](int sweep) {
    post_phase_s_.push_back(post_gauge->Value());
    link_phase_s_.push_back(link_gauge->Value());
    if (w_.checkpoint_every > 0 && checkpoints_->ShouldCheckpoint(sweep)) {
      write_checkpoint(sweep);
    }
    marks.push_back(watch.ElapsedSeconds());
  });
  const int64_t tokens_before = tokens->Value();
  cold::Status st;
  watch.Restart();
  {
    Span s("core.serial_train");
    st = sampler.Train();
  }
  sampler.SetSweepCallback({});
  tally_.Add(Tally::kSweeps, w_.sweeps, st.ok() ? 0 : w_.sweeps);
  if (!st.ok()) {
    std::fprintf(stderr, "serial train: %s\n", st.ToString().c_str());
    return false;
  }
  const std::vector<double> rates = BlockRates(marks, train_tokens_);
  serial_rates_.insert(serial_rates_.end(), rates.begin(), rates.end());
  if (w_.checkpoint_every == 0) write_checkpoint(sampler.iterations_run());
  tally_.Check(tokens->Value() - tokens_before == train_tokens_ * w_.sweeps,
               "cold/gibbs/tokens_resampled grew by training tokens x sweeps");
  final_serial_state_ = sampler.state();
  return true;
}

bool Bench::TrainParallel() {
  core::ParallelColdTrainer& trainer = *p_->parallel;
  cold::Stopwatch watch;
  std::vector<double> marks;
  trainer.SetSuperstepCallback(
      [&](int) { marks.push_back(watch.ElapsedSeconds()); });
  cold::Status st;
  watch.Restart();
  {
    Span s("engine.parallel_train");
    st = trainer.Train();
  }
  trainer.SetSuperstepCallback({});
  tally_.Add(Tally::kSweeps, w_.sweeps, st.ok() ? 0 : w_.sweeps);
  if (!st.ok()) {
    std::fprintf(stderr, "parallel train: %s\n", st.ToString().c_str());
    return false;
  }
  const std::vector<double> rates = BlockRates(marks, train_tokens_);
  parallel_rates_.insert(parallel_rates_.end(), rates.begin(), rates.end());
  const cold::engine::EngineStats& stats = trainer.engine_stats();
  engine_stats_.supersteps += stats.supersteps;
  engine_stats_.gather_seconds += stats.gather_seconds;
  engine_stats_.apply_seconds += stats.apply_seconds;
  engine_stats_.scatter_seconds += stats.scatter_seconds;
  engine_stats_.merge_seconds += stats.merge_seconds;
  work_skew_ =
      cold::obs::Registry::Global().GetGauge("cold/engine/work_skew")->Value();
  final_parallel_state_ = trainer.StateSnapshot();
  return true;
}

bool Bench::TrainDist() {
  std::vector<std::unique_ptr<cold::dist::DistTrainer>> owned;
  std::vector<cold::dist::DistTrainer*> nodes;
  for (int rank = 0; rank < 2; ++rank) {
    cold::dist::DistConfig config;
    config.num_nodes = 2;
    config.node_rank = rank;
    config.cold = p_->config;
    config.engine = TwoWorkers(train_seed_);
    config.engine.threads_per_node = 1;
    owned.push_back(std::make_unique<cold::dist::DistTrainer>(
        config, p_->posts.train, &p_->retweets.train_interactions));
    nodes.push_back(owned.back().get());
  }
  cold::Stopwatch watch;
  std::vector<double> marks;
  nodes[0]->SetSuperstepCallback(
      [&](int) { marks.push_back(watch.ElapsedSeconds()); });
  cold::Status st;
  watch.Restart();
  {
    Span s("dist.train");
    st = cold::dist::DistTrainer::RunLocalCluster(nodes);
  }
  tally_.Add(Tally::kSweeps, w_.sweeps, st.ok() ? 0 : w_.sweeps);
  if (!st.ok()) {
    std::fprintf(stderr, "dist train: %s\n", st.ToString().c_str());
    return false;
  }
  const std::vector<double> rates = BlockRates(marks, train_tokens_);
  dist_rates_.insert(dist_rates_.end(), rates.begin(), rates.end());
  const cold::dist::DistStats& stats = nodes[0]->stats();
  dist_stats_.supersteps_run += stats.supersteps_run;
  dist_stats_.superstep_seconds += stats.superstep_seconds;
  dist_stats_.barrier_wait_seconds += stats.barrier_wait_seconds;
  dist_stats_.bytes_sent += stats.bytes_sent;
  dist_stats_.bytes_received += stats.bytes_received;
  for (int rank = 0; rank < 2; ++rank) {
    const std::string who = "dist node " + std::to_string(rank);
    core::ColdState state = nodes[static_cast<size_t>(rank)]->StateSnapshot();
    tally_.CheckEmpty(
        e2ebench::CompareStates(state, final_parallel_state_),
        who + " state is bit-identical to the 2-worker parallel state");
    tally_.CheckEmpty(
        e2ebench::CompareEstimates(nodes[static_cast<size_t>(rank)]->Estimates(),
                                   p_->parallel->Estimates()),
        who + " estimates are bit-identical to the parallel estimates");
  }
  tally_.CheckEmpty(
      e2ebench::CheckCountsMatchRecount(nodes[0]->StateSnapshot(),
                                        p_->posts.train,
                                        p_->retweets.train_interactions),
      "dist counts equal a recount from assignments");
  return true;
}

void Bench::CheckTrainers() {
  const auto& links = p_->retweets.train_interactions;
  tally_.CheckEmpty(e2ebench::CheckCountsMatchRecount(final_serial_state_,
                                                      p_->posts.train, links),
                    "serial counts equal a recount from assignments");
  tally_.CheckEmpty(e2ebench::CheckCountsMatchRecount(final_parallel_state_,
                                                      p_->posts.train, links),
                    "parallel counts equal a recount from assignments");
  tally_.Check(p_->serial->MaxDerivedTableDrift() == 0.0,
               "serial MaxDerivedTableDrift() is 0");
  if (round_ > 0) return;

  // A fresh sampler restored from the newest checkpoint must finish in the
  // same state, bit for bit.
  auto latest = checkpoints_->LoadLatest();
  if (!tally_.Op(Tally::kCheckpoints, latest.status(), "checkpoint load")) {
    return;
  }
  core::ColdGibbsSampler fresh(p_->config, p_->posts.train, &links);
  cold::Status st = fresh.Init();
  if (st.ok()) st = fresh.RestoreState(latest->payload);
  const int remaining = w_.sweeps - latest->meta.sweep;
  if (st.ok()) st = fresh.Train();
  tally_.Add(Tally::kSweeps, remaining, st.ok() ? 0 : remaining);
  tally_.Check(st.ok(), "restore from checkpoint sweep " +
                            std::to_string(latest->meta.sweep) + " and train");
  if (!st.ok()) return;
  tally_.CheckEmpty(e2ebench::CompareStates(fresh.state(), final_serial_state_),
                    "restored sampler reaches the same final state");
  tally_.CheckEmpty(e2ebench::CompareEstimates(fresh.AveragedEstimates(),
                                               p_->serial->AveragedEstimates()),
                    "restored sampler reaches the same averaged estimates");
}

bool Bench::StartService() {
  serve::ModelServiceOptions options;
  options.num_replicas = w_.replicas;
  options.top_communities = kTopComm;
  service_ = std::make_unique<serve::ModelService>(options);
  serve::HttpServerOptions http;
  http.num_reactors = 2;
  http.idle_timeout_seconds = 60;
  server_ = std::make_unique<serve::HttpServer>(
      http, [this](const serve::HttpRequest& r) { return service_->Handle(r); });
  if (!tally_.Op(Tally::kChecks, server_->Start(), "HTTP server start")) {
    return false;
  }
  probe_ = std::make_unique<e2ebench::Connection>(server_->port());
  return true;
}

double Bench::Publish(int kind) {
  // The probe answered by the new generation: the workload's first query.
  const data::RetweetTuple& probe_tuple = p_->retweets.test.front();
  Query probe = w_.fanout
                    ? FanoutQuery(p_->dataset, probe_tuple)
                    : MakeQuery(p_->dataset, probe_tuple,
                                {probe_tuple.retweeters.front()}, 1);
  cold::Stopwatch watch;
  core::ColdEstimates est;
  cold::Status st;
  int64_t generation = 0;
  std::string body;
  int status = 0;
  {
    Span publish("publish");
    {
      Span s("core.estimates");
      est = kind == kSerial ? p_->serial->AveragedEstimates()
                            : p_->parallel->Estimates();
    }
    {
      Span s("core.arena_save");
      st = core::SaveArenaSnapshot(est, kTopComm, arena_path_[kind].string());
    }
    if (st.ok()) {
      generation = service_->generation() + 1;
      gens_.kind[static_cast<size_t>(generation)] = static_cast<uint8_t>(kind);
      gens_.started.store(generation, std::memory_order_release);
      Span s("serve.reload");
      st = service_->LoadFromFile(arena_path_[kind].string());
    }
    if (st.ok()) {
      gens_.installed.store(generation, std::memory_order_release);
      Span s("serve.first_answer");
      st = probe_->Exchange(probe.wire, &status, &body);
      if (st.ok() && status != 200) {
        st = cold::Status::Internal("probe answered " + std::to_string(status));
      }
    }
  }
  const double ms = watch.ElapsedMillis();
  tally_.Add(Tally::kRequests, 1, st.ok() ? 0 : 1);
  if (!tally_.Op(Tally::kPublishes, st, std::string("publish ") + kKindName[kind])) {
    return NAN;
  }
  CheckPublished(kind, est);
  const std::vector<Expected> expect = ExpectedAnswers(
      {&ref_est_[kind], &ref_top_[kind], std::min(kTopComm, est.C)}, probe);
  const std::vector<Expected>* by_kind[2] = {nullptr, nullptr};
  by_kind[kind] = &expect;
  std::vector<double> served;
  tally_.Check(VerifyAnswer(probe, by_kind, generation, generation, body, &served),
               std::string("first answer after publishing the ") +
                   kKindName[kind] + " model comes from the new generation");
  return ms;
}

void Bench::CheckPublished(int kind, const core::ColdEstimates& est) {
  const int top_m = std::min(kTopComm, est.C);
  if (!have_ref_[kind]) {
    ref_est_[kind] = est;
    ref_top_[kind] = e2ebench::TopCommTable(est, top_m);
    have_ref_[kind] = true;
    tally_.CheckEmpty(e2ebench::CheckSimplexRows(est),
                      std::string(kKindName[kind]) + " estimates are normalized");
  } else {
    tally_.CheckEmpty(e2ebench::CompareEstimates(est, ref_est_[kind]),
                      std::string(kKindName[kind]) +
                          " estimates repeat exactly across publishes");
  }
  const std::string bytes = ReadFile(arena_path_[kind]);
  arena_bytes_ = static_cast<int64_t>(bytes.size());
  tally_.CheckEmpty(
      e2ebench::CheckArenaBytes(bytes, ref_est_[kind], ref_top_[kind], top_m),
      std::string(kKindName[kind]) + " arena file equals its estimates");
  auto predictor = service_->predictor();
  const size_t table = static_cast<size_t>(est.U) * top_m;
  tally_.CheckEmpty(
      predictor == nullptr
          ? std::string("no model loaded")
          : e2ebench::CheckMappedView(
                predictor->estimates(),
                std::span<const int32_t>(predictor->TopComm(0).data(), table),
                ref_est_[kind], ref_top_[kind]),
      std::string(kKindName[kind]) + " mapped arena equals its estimates");
}

void Bench::Republish(int kind) {
  cold::Status st;
  {
    Span s("core.arena_save");
    st = core::SaveArenaSnapshot(ref_est_[kind], kTopComm,
                                 arena_path_[kind].string());
  }
  if (st.ok()) {
    const int64_t generation = service_->generation() + 1;
    gens_.kind[static_cast<size_t>(generation)] = static_cast<uint8_t>(kind);
    gens_.started.store(generation, std::memory_order_release);
    {
      Span s("serve.reload");
      st = service_->LoadFromFile(arena_path_[kind].string());
    }
    if (st.ok()) gens_.installed.store(generation, std::memory_order_release);
  }
  if (tally_.Op(Tally::kPublishes, st,
                std::string("re-publish ") + kKindName[kind])) {
    CheckPublished(kind, ref_est_[kind]);
  }
}

void Bench::BuildQueries() {
  const auto& test = p_->retweets.test;
  for (const data::RetweetTuple& t : test) {
    tuples_.push_back(FanoutQuery(p_->dataset, t));
  }
  cold::RandomSampler rng(args_.seed, 7);
  std::vector<size_t> order(test.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.UniformInt(static_cast<uint32_t>(i))]);
  }
  if (w_.fanout) {
    for (size_t i : order) traffic_.push_back(tuples_[i]);
  } else {
    // Distinct held-out posts, one candidate each: few enough keys that
    // every post stays in the posterior cache.
    for (size_t n = 0; n < order.size() &&
                       traffic_.size() < static_cast<size_t>(w_.pool_pairs);
         ++n) {
      const data::RetweetTuple& t = test[order[n]];
      const size_t pick = rng.UniformInt(
          static_cast<uint32_t>(t.retweeters.size() + t.ignorers.size()));
      const bool retweeted = pick < t.retweeters.size();
      const int candidate = retweeted ? t.retweeters[pick]
                                      : t.ignorers[pick - t.retweeters.size()];
      traffic_.push_back(MakeQuery(p_->dataset, t, {candidate}, retweeted));
    }
  }
  size_t candidates = 0;
  for (const Query& q : traffic_) candidates += q.candidates.size();
  std::printf(
      "corpus: %d users, %d posts, %lld tokens, %lld links; training: %d "
      "posts, %lld tokens, %lld links; held out: %d posts, %zu tuples; "
      "traffic: %zu distinct requests, %.2f candidates each\n",
      p_->dataset.num_users(), p_->dataset.posts.num_posts(),
      static_cast<long long>(p_->dataset.posts.num_tokens()),
      static_cast<long long>(p_->dataset.interactions.num_edges()),
      p_->posts.train.num_posts(), static_cast<long long>(train_tokens_),
      static_cast<long long>(p_->retweets.train_interactions.num_edges()),
      p_->posts.test.num_posts(), test.size(), traffic_.size(),
      static_cast<double>(candidates) / static_cast<double>(traffic_.size()));
}

void Bench::ComputeExpected() {
  for (int kind : {kSerial, kParallel}) {
    const e2ebench::RefModel ref{&ref_est_[kind], &ref_top_[kind],
                                 std::min(kTopComm, ref_est_[kind].C)};
    expected_[kind].clear();
    expected_[kind].reserve(traffic_.size());
    for (const Query& q : traffic_) {
      expected_[kind].push_back(ExpectedAnswers(ref, q));
    }
  }
}

bool Bench::VerifyAnswer(const Query& q,
                         const std::vector<Expected>* expected[2], int64_t lo,
                         int64_t hi, std::string_view body,
                         std::vector<double>* served) {
  if (!e2ebench::ParseDiffusionBody(body, served) ||
      served->size() != q.candidates.size()) {
    return false;
  }
  std::vector<std::vector<Expected>> live(2);
  for (int64_t g = std::max<int64_t>(lo, 1); g <= hi; ++g) {
    const int kind = gens_.kind[static_cast<size_t>(g)];
    if (kind < 2 && expected[kind] != nullptr) live[kind] = *expected[kind];
  }
  return e2ebench::MatchingModel(*served, live) >= 0;
}

bool Bench::VerifyQuery(size_t index, int64_t lo, int64_t hi,
                        std::string_view body, std::vector<double>* served) {
  const std::vector<Expected>* by_kind[2] = {&expected_[kSerial][index],
                                             &expected_[kParallel][index]};
  return VerifyAnswer(traffic_[index], by_kind, lo, hi, body, served);
}

cold::Status Bench::LoadPhase(
    const e2ebench::LoadOptions& options, const std::vector<Query>& queries,
    const std::vector<std::vector<Expected>>* expected,
    e2ebench::LoadResult* result, std::vector<std::vector<double>>* answers) {
  int64_t wrong = 0;
  std::vector<double> served;
  cold::Status st = e2ebench::RunLoad(
      options,
      [&](int64_t seq, int64_t* tag) {
        const size_t index = static_cast<size_t>(seq) % queries.size();
        const int64_t lo = gens_.installed.load(std::memory_order_acquire);
        *tag = (lo << 32) | static_cast<int64_t>(index);
        return &queries[index].wire;
      },
      [&](int64_t tag, int status, std::string_view body) {
        if (status != 200) return;
        const size_t index = static_cast<size_t>(tag & 0xffffffff);
        const int64_t lo = tag >> 32;
        const int64_t hi = gens_.started.load(std::memory_order_acquire);
        const std::vector<Expected>* by_kind[2] = {
            expected ? &expected[kSerial][index] : nullptr,
            expected ? &expected[kParallel][index] : nullptr};
        if (!VerifyAnswer(queries[index], by_kind, lo, hi, body, &served)) {
          ++wrong;
          if (wrong <= 3) {
            std::fprintf(stderr, "wrong answer to query %zu: %.*s\n", index,
                         static_cast<int>(body.size()), body.data());
          }
        }
        if (answers != nullptr) (*answers)[index] = served;
      },
      result);
  tally_.Add(Tally::kRequests, result->sent, result->failed + wrong);
  wrong_answers_ += wrong;
  return st;
}

bool Bench::RunTraffic() {
  const double half = args_.seconds / (2 * rounds_);
  auto& registry = cold::obs::Registry::Global();
  cold::obs::Counter* hits =
      registry.GetCounter("cold/serve/posterior_cache_hits");
  cold::obs::Counter* misses =
      registry.GetCounter("cold/serve/posterior_cache_misses");

  // Warm-up: every pool entry once, so the timed phases see a filled cache.
  e2ebench::LoadOptions warm;
  warm.port = server_->port();
  warm.client_cpu = client_cpu;
  warm.connections = kConnections;
  warm.seconds = 60;
  warm.max_requests = static_cast<int64_t>(
      std::min<size_t>(traffic_.size(), w_.fanout ? 64 : traffic_.size()));
  e2ebench::LoadResult warm_result;
  if (!tally_.Op(Tally::kChecks,
                 LoadPhase(warm, traffic_, expected_, &warm_result),
                 "warm-up traffic")) {
    return false;
  }

  // A fan-out answer waits on the micro-batch thread's timed wait and on
  // hand-offs between threads, each of which wakes a CPU; a halted CPU of
  // a virtual machine wakes when the host gets round to it, which moved
  // the fan-out rate by up to 1.7x between runs. So no CPU halts during
  // that workload's timed traffic. Nowhere else: spinners leave the kernel
  // seeing every CPU busy, and it then wakes CPU-bound threads (the
  // trainers' workers, the reactors under single-candidate load) onto one
  // CPU instead of spreading them.
  std::unique_ptr<e2ebench::IdleSpinners> spinners;
  if (w_.fanout) spinners = std::make_unique<e2ebench::IdleSpinners>();
  std::mutex mutex;
  std::condition_variable cv;
  bool stop = false;
  std::thread publisher;
  if (w_.reload_interval_ms > 0) {
    publisher = std::thread([&] {
      int kind = kSerial;  // the last pre-traffic publish was parallel
      auto next = std::chrono::steady_clock::now();
      std::unique_lock<std::mutex> lock(mutex);
      while (true) {
        next += std::chrono::milliseconds(w_.reload_interval_ms);
        if (cv.wait_until(lock, next, [&] { return stop; })) break;
        lock.unlock();
        Republish(kind);
        kind ^= 1;
        lock.lock();
      }
    });
  }

  const int64_t hits0 = hits->Value(), misses0 = misses->Value();
  e2ebench::LoadOptions closed;
  closed.port = server_->port();
  closed.client_cpu = client_cpu;
  closed.connections = kConnections;
  closed.seconds = half;
  e2ebench::LoadResult closed_result;
  cold::Status st = LoadPhase(closed, traffic_, expected_, &closed_result);
  e2ebench::LoadOptions open = closed;
  open.rate = w_.open_rate;
  e2ebench::LoadResult open_result;
  if (st.ok()) st = LoadPhase(open, traffic_, expected_, &open_result);
  const int64_t hits1 = hits->Value(), misses1 = misses->Value();
  spinners.reset();

  if (publisher.joinable()) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      stop = true;
    }
    cv.notify_all();
    publisher.join();
  }
  if (!tally_.Op(Tally::kChecks, st, "timed traffic")) return false;

  const std::vector<double> rates = SliceRates(closed_result, half);
  closed_rates_.insert(closed_rates_.end(), rates.begin(), rates.end());
  const size_t first_slice = open_latencies_.size();
  for (auto& slice : SliceLatencies(open_result, half, w_.open_rate)) {
    open_latencies_.push_back(std::move(slice));
  }
  cache_hits_ += hits1 - hits0;
  cache_lookups_ += hits1 - hits0 + misses1 - misses0;
  tally_.Check(wrong_answers_ == 0,
               "every served answer equals Eq. 7 of one live generation");
  size_t thinnest = open_latencies_.size() > first_slice ? SIZE_MAX : 0;
  for (size_t k = first_slice; k < open_latencies_.size(); ++k) {
    thinnest = std::min(thinnest, open_latencies_[k].size());
  }
  tally_.Check(static_cast<int64_t>(thinnest) >= kMinSliceSamples,
               "every open-loop slice holds at least " +
                   std::to_string(kMinSliceSamples) + " answers");
  std::printf("closed loop: %lld answers in %.3f s on %d connections\n",
              static_cast<long long>(closed_result.completed),
              closed_result.elapsed_s, kConnections);
  std::printf("open loop: %zu answers at %.0f/s in %zu slices; generator "
              "lateness p50 %.1f us, p99 %.1f us\n",
              open_result.latency_s.size(), w_.open_rate,
              open_latencies_.size() - first_slice,
              Median(open_result.lateness_s) * 1e6,
              Quantile(open_result.lateness_s, 0.99) * 1e6);
  return true;
}

void Bench::Replay() {
  // The workload's own request bytes through the three serving functions,
  // in-process, then the two predictor calls behind them.
  const size_t n = std::min<size_t>(kReplayRequests, traffic_.size() * 8);
  int64_t wrong = 0;
  std::vector<double> served;
  const int64_t generation = gens_.installed.load();
  for (size_t i = 0; i < n; ++i) {
    const size_t index = i % traffic_.size();
    std::string buffer = traffic_[index].wire;
    serve::HttpRequest request;
    cold::Result<serve::HttpParseState> parsed = serve::HttpParseState::kNeedMore;
    {
      Span s("serve.parse");
      parsed = serve::ParseHttpRequest(&buffer, &request);
    }
    if (!parsed.ok() || *parsed != serve::HttpParseState::kComplete) {
      ++wrong;
      continue;
    }
    serve::HttpResponse response;
    {
      Span s("serve.handle");
      response = service_->Handle(request);
    }
    std::string out;
    {
      Span s("serve.encode");
      serve::AppendHttpResponse(&out, response, false);
    }
    if (response.status_code != 200 ||
        !VerifyQuery(index, generation, generation, response.body, &served)) {
      ++wrong;
    }
  }
  auto predictor = service_->predictor();
  for (size_t i = 0; i < n; ++i) {
    const Query& q = traffic_[i % traffic_.size()];
    std::vector<double> posterior;
    {
      Span s("core.posterior");
      posterior = predictor->TopicPosterior(q.words, q.author);
    }
    for (int c : q.candidates) {
      Span s("core.diffusion");
      served.assign(1, predictor->DiffusionFromPosterior(q.author, c, posterior));
    }
  }
  tally_.Add(Tally::kRequests, static_cast<int64_t>(n), wrong);
  tally_.Check(wrong == 0, "every replayed answer equals Eq. 7");
}

bool Bench::AucPass() {
  // Every held-out tuple as one fan-out, scored by the parallel model.
  std::vector<std::vector<Expected>> expected[2];
  const e2ebench::RefModel ref{&ref_est_[kParallel], &ref_top_[kParallel],
                               std::min(kTopComm, ref_est_[kParallel].C)};
  expected[kSerial].resize(tuples_.size());
  for (const Query& q : tuples_) {
    expected[kParallel].push_back(ExpectedAnswers(ref, q));
  }
  e2ebench::LoadOptions options;
  options.port = server_->port();
  options.client_cpu = client_cpu;
  options.connections = kConnections;
  options.seconds = 120;
  options.max_requests = static_cast<int64_t>(tuples_.size());
  e2ebench::LoadResult result;
  std::vector<std::vector<double>> answers(tuples_.size());
  const int64_t wrong_before = wrong_answers_;
  cold::Status st = LoadPhase(options, tuples_, expected, &result, &answers);
  if (!tally_.Op(Tally::kChecks, st, "AUC pass")) return false;
  tally_.Check(result.completed == static_cast<int64_t>(tuples_.size()) &&
                   wrong_answers_ == wrong_before,
               "every held-out tuple was answered by the parallel model");
  std::vector<std::vector<double>> pos, neg;
  for (size_t i = 0; i < tuples_.size(); ++i) {
    const auto& a = answers[i];
    if (a.size() != tuples_[i].candidates.size()) continue;
    const auto split = a.begin() + tuples_[i].retweeters;
    pos.emplace_back(a.begin(), split);
    neg.emplace_back(split, a.end());
  }
  auc_.push_back(e2ebench::MeanTupleAuc(pos, neg));
  tally_.Check(auc_.back() > 0.5, "diffusion AUC is above 0.5");
  return true;
}

void Bench::Quality() {
  const data::PostSplit& posts = p_->posts;
  const double unigram = e2ebench::UnigramPerplexity(
      posts.train, posts.test, p_->config.vocab_size);
  for (int kind : {kSerial, kParallel}) {
    auto mapped = serve::ArenaSnapshot::Map(arena_path_[kind].string());
    if (!tally_.Op(Tally::kChecks, mapped.status(), "map arena")) continue;
    std::shared_ptr<const serve::ArenaSnapshot> snapshot = *mapped;
    const size_t table =
        static_cast<size_t>(snapshot->view().U) * snapshot->top_m();
    core::ColdPredictor predictor(
        snapshot->view(), snapshot,
        std::span<const int32_t>(snapshot->top_comm(), table),
        snapshot->top_m());
    const double perplexity = predictor.Perplexity(posts.test);
    perplexity_[kind].push_back(perplexity);
    const double mine = e2ebench::RefPerplexity(ref_est_[kind], posts.test);
    tally_.Check(e2ebench::RelClose(perplexity, mine),
                 std::string(kKindName[kind]) +
                     " perplexity matches the benchmark's recomputation");
    tally_.Check(perplexity < unigram,
                 std::string(kKindName[kind]) +
                     " perplexity is below the unigram perplexity");
  }
  std::printf("round %d (training seed %llu): serial perplexity %.4f, "
              "parallel perplexity %.4f, unigram perplexity %.4f, diffusion "
              "AUC %.4f\n",
              round_, static_cast<unsigned long long>(train_seed_),
              perplexity_[kSerial].back(), perplexity_[kParallel].back(),
              unigram, auc_.back());
}

void Bench::Report() {
  std::vector<double> p50s, p99s;
  for (const auto& slice : open_latencies_) {
    p50s.push_back(Median(slice));
    p99s.push_back(Quantile(slice, 0.99));
  }
  const double serve_p50 = Median(p50s);
  auto print_series = [](const char* name, const std::vector<double>& v,
                         double scale) {
    std::printf("%s:", name);
    for (double x : v) std::printf(" %.4g", x * scale);
    std::printf("\n");
  };
  print_series("serial Mtokens/s per block", serial_rates_, 1e-6);
  print_series("parallel Mtokens/s per block", parallel_rates_, 1e-6);
  print_series("dist Mtokens/s per block", dist_rates_, 1e-6);
  print_series("closed-loop req/s per slice", closed_rates_, 1);
  print_series("open-loop p50 ms per slice", p50s, 1e3);
  print_series("open-loop p99 ms per slice", p99s, 1e3);
  print_series("publish ms", publish_ms_, 1);
  print_series("setup s", setup_s_, 1);
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  std::vector<Metric> e2e = {
      {"setup_s", Median(setup_s_), "s"},
      {"serial_tokens_per_s", Median(serial_rates_), "tokens/s"},
      {"parallel_tokens_per_s", Median(parallel_rates_), "tokens/s"},
      {"dist_tokens_per_s", Median(dist_rates_), "tokens/s"},
      // The first quartile: a publish ends in an fsync, and on this host's
      // shared disk a third or more of fsyncs stall for 2-8x the others,
      // which moves the median from run to run; the program's own cost
      // moves every quartile.
      {"publish_ms", Quantile(publish_ms_, 0.25), "ms"},
      {"serve_rps", Median(closed_rates_), "req/s"},
      {"serve_p50_ms", serve_p50 * 1e3, "ms"},
      {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MiB"},
      {"serial_perplexity", Mean(perplexity_[kSerial]), "ratio"},
      {"parallel_perplexity", Mean(perplexity_[kParallel]), "ratio"},
      {"diffusion_auc", Mean(auc_), "ratio"},
  };

  std::vector<Metric> layers;
  const std::string spans_path = (dir_.parent_path() /
                                  (dir_.filename().string() + ".spans.jsonl"))
                                     .string();
  if (args_.trace) {
    std::map<std::string, e2ebench::SpanStats> spans;
    for (auto& [name, stats] :
         e2ebench::AggregateSpans(e2ebench::SpanLog::Global().Records())) {
      spans[name] = std::move(stats);
    }
    auto self = [&](const char* name, double scale) {
      return Median(spans[name].self_seconds) * scale;
    };
    const double supersteps = std::max(1, engine_stats_.supersteps);
    const double dist_steps = std::max(1, dist_stats_.supersteps_run);
    int64_t swaps = 0, batches = 0;
    double batch_sum = 0.0;
    const double swap_p99 =
        HistogramQuantile("cold/serve/reload_swap_seconds", 0.99, &swaps);
    HistogramCountSum("cold/serve/batch_size", &batches, &batch_sum);
    // Per-call diffusion time: every core.diffusion span is one call.
    const auto& diffusion = spans["core.diffusion"].self_seconds;
    double diffusion_total = 0.0;
    for (double s : diffusion) diffusion_total += s;
    const double parse = self("serve.parse", 1e6);
    const double handle = self("serve.handle", 1e6);
    const double encode = self("serve.encode", 1e6);
    layers = {
        {"data.load_s", self("data.load", 1), "s"},
        {"data.split_s", self("data.split", 1), "s"},
        {"core.serial_init_s", self("core.serial_init", 1), "s"},
        {"engine.parallel_init_s", self("engine.parallel_init", 1), "s"},
        {"core.serial_post_ms", Median(post_phase_s_) * 1e3, "ms"},
        {"core.serial_link_ms", Median(link_phase_s_) * 1e3, "ms"},
        {"core.checkpoint_ms", self("core.checkpoint", 1e3), "ms"},
        {"core.checkpoint_bytes", static_cast<double>(checkpoint_bytes_),
         "bytes"},
        {"engine.superstep_ms",
         engine_stats_.total_seconds() / supersteps * 1e3, "ms"},
        {"engine.gather_ms", engine_stats_.gather_seconds / supersteps * 1e3,
         "ms"},
        {"engine.apply_ms", engine_stats_.apply_seconds / supersteps * 1e3,
         "ms"},
        {"engine.scatter_ms",
         engine_stats_.scatter_seconds / supersteps * 1e3, "ms"},
        {"engine.merge_ms", engine_stats_.merge_seconds / supersteps * 1e3,
         "ms"},
        {"engine.work_skew", work_skew_, "ratio"},
        {"dist.superstep_ms",
         dist_stats_.superstep_seconds / dist_steps * 1e3, "ms"},
        {"dist.barrier_wait_ms",
         dist_stats_.barrier_wait_seconds / dist_steps * 1e3, "ms"},
        {"dist.bytes_per_superstep",
         static_cast<double>(dist_stats_.bytes_sent +
                             dist_stats_.bytes_received) /
             dist_steps,
         "bytes"},
        {"core.estimates_ms", self("core.estimates", 1e3), "ms"},
        {"core.arena_save_ms", self("core.arena_save", 1e3), "ms"},
        {"core.arena_bytes", static_cast<double>(arena_bytes_), "bytes"},
        {"serve.reload_ms", self("serve.reload", 1e3), "ms"},
        {"serve.reload_swap_us", swap_p99 * 1e6, "us"},
        {"serve.parse_us", parse, "us"},
        {"serve.handle_us", handle, "us"},
        {"serve.encode_us", encode, "us"},
        {"serve.p99_ms", Median(p99s) * 1e3, "ms"},
        {"serve.transport_us",
         serve_p50 * 1e6 - parse - handle - encode, "us"},
        {"serve.cache_hit_ratio",
         static_cast<double>(cache_hits_) / static_cast<double>(cache_lookups_),
         "ratio"},
        {"serve.batch_size",
         batches > 0 ? batch_sum / static_cast<double>(batches) : 0.0,
         "requests"},
        {"core.posterior_us", self("core.posterior", 1e6), "us"},
        {"core.diffusion_us",
         diffusion.empty() ? NAN
                           : diffusion_total / static_cast<double>(
                                                   diffusion.size()) * 1e6,
         "us"},
    };
    if (!e2ebench::SpanLog::Global().WriteJsonLines(spans_path)) {
      std::fprintf(stderr, "cannot write %s\n", spans_path.c_str());
    } else {
      std::printf("spans written to %s\n", spans_path.c_str());
    }
  }

  bool correct = true;
  int64_t attempted = 0, failed = 0;
  for (const Tally::Phase& phase : tally_.phases()) {
    std::printf("phase %-12s attempted %8lld failed %lld\n", phase.name,
                static_cast<long long>(phase.attempted),
                static_cast<long long>(phase.failed));
    attempted += phase.attempted;
    failed += phase.failed;
  }
  const auto checks = tally_.phases()[Tally::kChecks];
  correct = checks.failed == 0 && wrong_answers_ == 0;
  for (const Metric& m : args_.trace ? layers : e2e) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "metric %s is not finite\n", m.name.c_str());
      correct = false;
    }
  }
  for (const Metric& m : e2e) {
    std::printf("%-24s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const Metric& m : layers) {
    std::printf("%-24s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (args_.trace) std::printf("E2E %s\n", MetricsJson(e2e).c_str());
  std::printf("{\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,"
              "\"metrics\":%s}\n",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed),
              MetricsJson(args_.trace ? layers : e2e).c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload k12_hot|k48_fanout --seed N "
                 "--seconds S --trace 0|1\n",
                 argv[0]);
    return 2;
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  // One round per kRoundSeconds of --seconds; every round's closed and open
  // loop must fill at least one slice.
  const int rounds = static_cast<int>(args.seconds / kRoundSeconds);
  const double half = args.seconds / (2.0 * std::max(rounds, 1));
  if (rounds < 2 ||
      half < std::max(kClosedSliceSeconds,
                      static_cast<double>(kMinSliceSamples) /
                          workload->open_rate)) {
    std::fprintf(stderr, "--seconds must be at least %.0f\n", 2 * kRoundSeconds);
    return 2;
  }
  cold::Logger::SetLevel(cold::LogLevel::kWarning);
  if (args.trace) e2ebench::SpanLog::Global().Enable();
  // The load client gets a CPU of its own, so its readings are not delayed
  // by the server or trainer threads it measures.
  client_cpu = e2ebench::ReserveClientCpu();
  const fs::path dir = fs::path(".bench_out") /
                       (args.workload + "-" + std::to_string(args.seed) + "-" +
                        std::to_string(::getpid()));
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", dir.c_str());
    return 1;
  }
  int rc = 0;
  {
    Bench bench(*workload, args, rounds, dir);
    rc = bench.Run();
  }
  fs::remove_all(dir, ec);
  return rc;
}
