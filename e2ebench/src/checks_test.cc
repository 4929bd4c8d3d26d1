// Test of the benchmark's own checks: each one must pass on the program's
// real output and fail on a deliberately wrong copy of it — one count
// changed, one served probability moved by 1e-6, an answer taken from the
// other generation, one arena row perturbed.
//
//   python3 e2ebench/run.py test
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "checks.h"
#include "core/gibbs_sampler.h"
#include "core/model_io.h"
#include "core/predictor.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "util/logging.h"

namespace {

namespace core = cold::core;
using namespace e2ebench;

int failures = 0;

void Expect(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

core::ColdEstimates Train(const cold::data::SocialDataset& ds,
                          const cold::text::PostStore& posts, uint64_t seed,
                          core::ColdState* state) {
  core::ColdConfig config;
  config.num_communities = 4;
  config.num_topics = 6;
  config.iterations = 8;
  config.burn_in = 5;
  config.sample_lag = 1;
  config.rho = 0.5;
  config.alpha = 0.5;
  config.vocab_size = static_cast<int>(ds.vocabulary.size());
  config.seed = seed;
  core::ColdGibbsSampler sampler(config, posts, &ds.interactions);
  if (!sampler.Init().ok() || !sampler.Train().ok()) {
    std::fprintf(stderr, "training failed\n");
    std::exit(1);
  }
  if (state != nullptr) *state = sampler.state();
  return sampler.AveragedEstimates();
}

std::string Body(const std::vector<double>& values) {
  char buf[64];
  std::string body = "{\"probabilities\":[";
  for (size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", values[i]);
    if (i > 0) body += ',';
    body += buf;
  }
  return body + "]}";
}

}  // namespace

int main() {
  cold::Logger::SetLevel(cold::LogLevel::kWarning);
  cold::data::SyntheticConfig g;
  g.num_users = 150;
  g.num_communities = 4;
  g.num_topics = 6;
  g.num_time_slices = 8;
  g.seed = 5;
  auto generated = cold::data::SyntheticSocialGenerator(g).Generate();
  if (!generated.ok()) return 1;
  const cold::data::SocialDataset& ds = *generated;
  const cold::data::PostSplit split =
      cold::data::SplitPosts(ds.posts, 0.2, 5, 0);

  core::ColdState state(0, 0, 0, 0, 0, 0, 0);
  const core::ColdEstimates a = Train(ds, split.train, 11, &state);
  const core::ColdEstimates b = Train(ds, split.train, 12, nullptr);
  const int top_m = 4;
  const std::vector<int32_t> top_a = TopCommTable(a, top_m);
  const std::vector<int32_t> top_b = TopCommTable(b, top_m);

  // --- counts ------------------------------------------------------------
  Expect(CheckCountsMatchRecount(state, split.train, ds.interactions).empty(),
         "trained counts equal the recount");
  const std::vector<std::function<std::vector<int32_t>&(core::ColdState&)>>
      tables = {
          [](core::ColdState& s) -> auto& { return s.mut_n_ic_flat(); },
          [](core::ColdState& s) -> auto& { return s.mut_n_i_flat(); },
          [](core::ColdState& s) -> auto& { return s.mut_n_ck_flat(); },
          [](core::ColdState& s) -> auto& { return s.mut_n_c_flat(); },
          [](core::ColdState& s) -> auto& { return s.mut_n_ckt_flat(); },
          [](core::ColdState& s) -> auto& { return s.mut_n_kv_flat(); },
          [](core::ColdState& s) -> auto& { return s.mut_n_k_flat(); },
          [](core::ColdState& s) -> auto& { return s.mut_n_cc_flat(); },
      };
  bool every_table_caught = true;
  for (const auto& table : tables) {
    core::ColdState changed = state;
    auto& cells = table(changed);
    cells[cells.size() / 2] += 1;
    every_table_caught &=
        !CheckCountsMatchRecount(changed, split.train, ds.interactions).empty();
    every_table_caught &= !CompareStates(changed, state).empty();
  }
  Expect(every_table_caught, "one count changed, in any table, is caught");
  Expect(CompareStates(state, state).empty(), "a state equals itself");

  // --- served answers ----------------------------------------------------
  const cold::data::RetweetTuple* tuple = nullptr;
  for (const auto& t : ds.retweets) {
    if (t.retweeters.size() + t.ignorers.size() >= 3) {
      tuple = &t;
      break;
    }
  }
  if (tuple == nullptr) return 1;
  std::vector<int> candidates(tuple->retweeters.begin(),
                              tuple->retweeters.end());
  candidates.insert(candidates.end(), tuple->ignorers.begin(),
                    tuple->ignorers.end());
  auto words = ds.posts.words(tuple->post);
  auto expected = [&](const core::ColdEstimates& e,
                      const std::vector<int32_t>& top) {
    const RefModel ref{&e, &top, top_m};
    const std::vector<double> posterior =
        RefPosterior(ref, words, tuple->author);
    std::vector<Expected> out;
    for (int c : candidates) {
      out.push_back(RefDiffusion(ref, tuple->author, c, posterior));
    }
    return out;
  };
  auto served_by = [&](const core::ColdEstimates& e) {
    const core::ColdPredictor predictor(e, top_m);
    std::vector<double> out;
    for (int c : candidates) {
      out.push_back(predictor.DiffusionProbability(tuple->author, c, words));
    }
    return out;
  };
  const std::vector<Expected> exp_a = expected(a, top_a);
  const std::vector<Expected> exp_b = expected(b, top_b);
  const std::vector<double> served_a = served_by(a);
  const std::vector<double> served_b = served_by(b);

  std::vector<double> parsed;
  Expect(ParseDiffusionBody(Body(served_a), &parsed) && parsed == served_a,
         "served body parses back exactly");
  std::vector<double> rejected;
  Expect(!ParseDiffusionBody("{\"probabilities\":[0.1,null]}", &rejected) &&
             !ParseDiffusionBody("{\"probability\":0.1,\"x\":1}", &rejected),
         "malformed bodies are rejected");
  Expect(MatchingModel(parsed, {exp_a, {}}) == 0,
         "served answers equal Eq. 7 of their generation");
  std::vector<double> moved = served_a;
  moved[1] += 1e-6;
  Expect(MatchingModel(moved, {exp_a, {}}) == -1,
         "one served probability moved by 1e-6 is caught");
  Expect(MatchingModel(served_b, {exp_a, {}}) == -1,
         "an answer from the other generation is caught");
  Expect(MatchingModel(served_b, {exp_a, exp_b}) == 1,
         "an answer from either live generation is accepted");
  std::vector<double> mixed = served_a;
  mixed.back() = served_b.back();
  Expect(MatchingModel(mixed, {exp_a, exp_b}) == -1,
         "an answer mixing two generations is caught");

  // --- arenas ------------------------------------------------------------
  const std::string path =
      (std::filesystem::current_path() / "e2ebench_checks_test.arena").string();
  if (!core::SaveArenaSnapshot(a, top_m, path).ok()) return 1;
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)), {});
  std::filesystem::remove(path);
  Expect(CheckArenaBytes(bytes, a, top_a, top_m).empty(),
         "written arena equals its estimates");
  const core::ArenaLayout layout =
      core::ComputeArenaLayout(a.U, a.C, a.K, a.T, a.V, top_m);
  std::string perturbed = bytes;
  double v = 0;
  const size_t row3 = core::kArenaHeaderBytes + layout.pi + 3 * a.C * 8;
  std::memcpy(&v, perturbed.data() + row3, 8);
  v += 1e-12;
  std::memcpy(perturbed.data() + row3, &v, 8);
  Expect(!CheckArenaBytes(perturbed, a, top_a, top_m).empty(),
         "one arena row perturbed is caught");
  Expect(CheckMappedView(a, top_a, a, top_a).empty() &&
             !CheckMappedView(b, top_b, a, top_a).empty(),
         "a mapped view is compared with its estimates");
  Expect(CheckSimplexRows(a).empty(), "trained rows are normalized");
  core::ColdEstimates scaled = a;
  scaled.phi[2] += 1e-3;
  Expect(!CheckSimplexRows(scaled).empty(), "a row off the simplex is caught");
  const core::ColdPredictor predictor(a, top_m);
  bool top_same = true;
  for (int i = 0; i < a.U; ++i) {
    auto row = predictor.TopComm(i);
    top_same &= std::equal(row.begin(), row.end(),
                           top_a.begin() + static_cast<long>(i) * top_m);
  }
  Expect(top_same, "TopComm re-ranked from pi equals the predictor's");

  // --- quality -----------------------------------------------------------
  const double ppl = predictor.Perplexity(split.test);
  Expect(RelClose(ppl, RefPerplexity(a, split.test)),
         "recomputed perplexity equals the predictor's");
  Expect(!RelClose(ppl, RefPerplexity(b, split.test)),
         "another model's perplexity differs");
  Expect(ppl < UnigramPerplexity(split.train, split.test, a.V),
         "perplexity is below the unigram perplexity");
  Expect(MeanTupleAuc({{0.9, 0.5}, {0.2}}, {{0.1}, {0.2, 0.3}}) ==
             (1.0 + 0.25) / 2,
         "tuple AUC counts ties as one half");

  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
