// cold_predict — maps a trained model (the COLDARN1 arena cold_train
// writes, the same file cold_serve maps) and answers prediction queries
// through a zero-copy view predictor; any other file exits 1:
//
//   cold_predict <model> topics                       top words per topic
//   cold_predict <model> communities                  interest pies
//   cold_predict <model> diffusion <i> <i2> w1,w2,..  P(i2 retweets i's post)
//   cold_predict <model> rank <i> w1,w2,.. <n>        top-n likely retweeters
//   cold_predict <model> timestamp <i> w1,w2,..       predicted time slice
//
// Word arguments are comma-separated word ids (the vocab.tsv line numbers of
// the training dataset).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/cold.h"
#include "serve/snapshot_arena.h"
#include "util/math_util.h"

namespace {

std::vector<cold::text::WordId> ParseWords(const char* arg, int vocab) {
  std::vector<cold::text::WordId> words;
  std::stringstream ss(arg);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    int w = std::atoi(item.c_str());
    if (w >= 0 && w < vocab) {
      words.push_back(static_cast<cold::text::WordId>(w));
    }
  }
  return words;
}

int Usage(const char* prog) {
  std::fprintf(
      stderr,
      "usage: %s <model> topics\n"
      "       %s <model> communities\n"
      "       %s <model> diffusion <publisher> <candidate> <w1,w2,...>\n"
      "       %s <model> rank <publisher> <w1,w2,...> [n=10]\n"
      "       %s <model> timestamp <author> <w1,w2,...>\n",
      prog, prog, prog, prog, prog);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cold;
  if (argc < 3) return Usage(argv[0]);

  auto mapped = serve::ArenaSnapshot::Map(argv[1]);
  if (!mapped.ok()) {
    std::fprintf(stderr, "load: %s\n", mapped.status().ToString().c_str());
    return 1;
  }
  const std::shared_ptr<const core::ColdPredictor> model =
      serve::ViewPredictor(std::move(mapped).ValueOrDie());
  const core::ColdPredictor& predictor = *model;
  const core::EstimatesView& estimates = predictor.estimates();
  const std::string command = argv[2];

  if (command == "topics") {
    for (int k = 0; k < estimates.K; ++k) {
      std::printf("topic %d:", k);
      std::span<const double> phi_k(
          estimates.phi + static_cast<size_t>(k) * estimates.V,
          static_cast<size_t>(estimates.V));
      for (int w : TopKIndices(phi_k, 10)) {
        std::printf(" %d(%.3f)", w, estimates.Phi(k, w));
      }
      std::printf("\n");
    }
    return 0;
  }
  if (command == "communities") {
    for (int c = 0; c < estimates.C; ++c) {
      std::printf("community %d:", c);
      std::vector<double> interests(static_cast<size_t>(estimates.K));
      for (int k = 0; k < estimates.K; ++k) {
        interests[static_cast<size_t>(k)] = estimates.Theta(c, k);
      }
      for (int k : TopKIndices(interests, 5)) {
        std::printf(" k%d:%.3f", k, estimates.Theta(c, k));
      }
      std::printf("\n");
    }
    return 0;
  }
  if (command == "diffusion") {
    if (argc < 6) return Usage(argv[0]);
    int i = std::atoi(argv[3]);
    int i2 = std::atoi(argv[4]);
    if (i < 0 || i >= estimates.U || i2 < 0 || i2 >= estimates.U) {
      std::fprintf(stderr, "user ids must be in [0, %d)\n", estimates.U);
      return 1;
    }
    auto words = ParseWords(argv[5], estimates.V);
    std::printf("P(%d retweets %d's post) = %.6f\n", i2, i,
                predictor.DiffusionProbability(i, i2, words));
    return 0;
  }
  if (command == "rank") {
    if (argc < 5) return Usage(argv[0]);
    int i = std::atoi(argv[3]);
    if (i < 0 || i >= estimates.U) {
      std::fprintf(stderr, "publisher id must be in [0, %d)\n", estimates.U);
      return 1;
    }
    auto words = ParseWords(argv[4], estimates.V);
    int n = argc > 5 ? std::atoi(argv[5]) : 10;
    std::vector<double> scores(static_cast<size_t>(estimates.U), 0.0);
    for (int u = 0; u < estimates.U; ++u) {
      if (u == i) continue;
      scores[static_cast<size_t>(u)] =
          predictor.DiffusionProbability(i, u, words);
    }
    for (int u : TopKIndices(scores, n)) {
      std::printf("user %-6d %.6f\n", u, scores[static_cast<size_t>(u)]);
    }
    return 0;
  }
  if (command == "timestamp") {
    if (argc < 5) return Usage(argv[0]);
    int i = std::atoi(argv[3]);
    if (i < 0 || i >= estimates.U) {
      std::fprintf(stderr, "author id must be in [0, %d)\n", estimates.U);
      return 1;
    }
    auto words = ParseWords(argv[4], estimates.V);
    auto scores = predictor.TimestampScores(words, i);
    int best = predictor.PredictTimestamp(words, i);
    std::printf("predicted slice %d of %d; distribution:", best, estimates.T);
    for (double s : scores) std::printf(" %.3f", s);
    std::printf("\n");
    return 0;
  }
  return Usage(argv[0]);
}
