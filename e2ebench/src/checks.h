// The benchmark's output checks. Each is computed from the benchmark's own
// loops over the program's outputs (counts recounted from assignments,
// Eq. 5 / Eq. 7 and perplexity recomputed from the estimates, TopComm
// re-ranked from pi), never compared against stored copies of earlier
// output. Every function returns an empty string on success and a
// description of the first discrepancy otherwise.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/cold_estimates.h"
#include "core/cold_state.h"
#include "graph/digraph.h"
#include "text/post_store.h"

namespace e2ebench {

/// Relative tolerance of every floating-point comparison against a
/// recomputation.
inline constexpr double kRelTol = 1e-9;

/// Recounts all eight count tables from the assignment vectors of `state`
/// and compares them cell by cell.
std::string CheckCountsMatchRecount(const cold::core::ColdState& state,
                                    const cold::text::PostStore& posts,
                                    const cold::graph::Digraph& links);

/// Bit-for-bit equality of assignments and count tables.
std::string CompareStates(const cold::core::ColdState& a,
                          const cold::core::ColdState& b);

/// Bit-for-bit equality of all five parameter arrays.
std::string CompareEstimates(const cold::core::ColdEstimates& a,
                             const cold::core::ColdEstimates& b);

/// TopComm(i) for every user: the `m` largest pi entries, descending, ties
/// broken towards the lower community id (§5.2). Row-major, U x m.
std::vector<int32_t> TopCommTable(const cold::core::ColdEstimates& e, int m);

/// Every pi/theta/phi/psi row sums to 1 within 1e-9 and every eta entry
/// lies in [0, 1].
std::string CheckSimplexRows(const cold::core::ColdEstimates& e);

/// The bytes of a COLDARN1 file equal `e` and its TopComm table: magic,
/// total size, and each section byte for byte at the offsets the layout
/// assigns.
std::string CheckArenaBytes(const std::string& bytes,
                            const cold::core::ColdEstimates& e,
                            const std::vector<int32_t>& top_comm, int top_m);

/// A mapped model (pointers into the live mapping) equals `e` and its
/// TopComm table.
std::string CheckMappedView(const cold::core::EstimatesView& view,
                            std::span<const int32_t> mapped_top_comm,
                            const cold::core::ColdEstimates& e,
                            const std::vector<int32_t>& top_comm);

/// One model as the reference computations see it.
struct RefModel {
  const cold::core::ColdEstimates* est = nullptr;
  const std::vector<int32_t>* top_comm = nullptr;
  int top_m = 0;
};

/// Eq. (5): P(k | words, author) over the author's TopComm communities.
std::vector<double> RefPosterior(const RefModel& m,
                                 std::span<const int32_t> words, int author);

/// An expected served value: Eq. (7) summed over every topic, plus the
/// part of it contributed by topics whose posterior is below 1e-8 (the
/// served predictor skips those terms, so the answer may fall short of the
/// full sum by at most that much).
struct Expected {
  double value = 0.0;
  double skipped = 0.0;
};

/// Eq. (7) for one candidate given the post's Eq. (5) posterior.
Expected RefDiffusion(const RefModel& m, int author, int candidate,
                      std::span<const double> posterior);

/// |served - expected| within 1e-9 relative plus the skipped-term mass.
bool AnswerMatches(double served, const Expected& expected);

/// Index of the first model whose expected values all match `served`, or
/// -1. `expected[m][j]` is model m's expectation for value j; a model with
/// no entries (not live during the request) never matches. An answer that
/// matches one model on some values and another on the rest matches none:
/// it mixed two generations.
int MatchingModel(std::span<const double> served,
                  const std::vector<std::vector<Expected>>& expected);

/// Held-out perplexity (§6.2): exp(-sum log p(w_d) / sum N_d) with
/// p(w_d) = sum_k (sum_c pi_ic theta_ck) prod_l phi_k,w_l.
double RefPerplexity(const cold::core::ColdEstimates& e,
                     const cold::text::PostStore& test);

/// Perplexity of an add-beta unigram model fitted on `train`, on `test`.
double UnigramPerplexity(const cold::text::PostStore& train,
                         const cold::text::PostStore& test, int vocab,
                         double beta = 0.01);

/// Mean per-tuple AUC (§6.3): for each tuple, the share of
/// (retweeter, ignorer) pairs ranked correctly, ties counting one half.
double MeanTupleAuc(const std::vector<std::vector<double>>& positives,
                    const std::vector<std::vector<double>>& negatives);

/// Parses the body of a /v1/diffusion answer: {"probability":x} or
/// {"probabilities":[x,...]}. False on any other shape.
bool ParseDiffusionBody(std::string_view body, std::vector<double>* out);

/// |a - b| <= 1e-9 * max(|a|, |b|).
bool RelClose(double a, double b);

}  // namespace e2ebench
