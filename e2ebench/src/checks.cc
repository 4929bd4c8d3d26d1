#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <sstream>

#include "core/model_io.h"

namespace e2ebench {

namespace core = cold::core;

namespace {

template <typename T>
std::string CompareVectors(const std::vector<T>& a, const std::vector<T>& b,
                           const char* name) {
  if (a.size() != b.size()) {
    std::ostringstream os;
    os << name << ": size " << a.size() << " != " << b.size();
    return os.str();
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(T)) != 0) {
      std::ostringstream os;
      os.precision(17);
      os << name << "[" << i << "]: " << a[i] << " != " << b[i];
      return os.str();
    }
  }
  return "";
}

std::string CompareBytes(const char* data, size_t size, const void* expected,
                         size_t expected_size, const char* name) {
  if (size < expected_size) return std::string(name) + ": section truncated";
  if (std::memcmp(data, expected, expected_size) != 0) {
    return std::string(name) + ": bytes differ from the estimates";
  }
  return "";
}

std::string CheckRows(const std::vector<double>& values, size_t row_len,
                      const char* name) {
  if (row_len == 0 || values.size() % row_len != 0) {
    return std::string(name) + ": ragged rows";
  }
  for (size_t r = 0; r * row_len < values.size(); ++r) {
    double sum = 0.0;
    for (size_t j = 0; j < row_len; ++j) {
      const double v = values[r * row_len + j];
      if (!(v >= 0.0)) {
        std::ostringstream os;
        os << name << " row " << r << " has entry " << v;
        return os.str();
      }
      sum += v;
    }
    if (std::fabs(sum - 1.0) > 1e-9) {
      std::ostringstream os;
      os.precision(17);
      os << name << " row " << r << " sums to " << sum;
      return os.str();
    }
  }
  return "";
}

}  // namespace

bool RelClose(double a, double b) {
  return std::fabs(a - b) <= kRelTol * std::max(std::fabs(a), std::fabs(b));
}

std::string CheckCountsMatchRecount(const core::ColdState& state,
                                    const cold::text::PostStore& posts,
                                    const cold::graph::Digraph& links) {
  const int U = state.U(), C = state.C(), K = state.K(), T = state.T(),
            V = state.V();
  if (state.post_community.size() != static_cast<size_t>(posts.num_posts()) ||
      state.post_topic.size() != static_cast<size_t>(posts.num_posts()) ||
      state.link_src_community.size() !=
          static_cast<size_t>(links.num_edges()) ||
      state.link_dst_community.size() !=
          static_cast<size_t>(links.num_edges())) {
    return "assignment vectors do not match the data sizes";
  }
  std::vector<int32_t> n_ic(static_cast<size_t>(U) * C, 0), n_i(U, 0),
      n_ck(static_cast<size_t>(C) * K, 0), n_c(C, 0),
      n_ckt(static_cast<size_t>(C) * K * T, 0),
      n_kv(static_cast<size_t>(K) * V, 0), n_k(K, 0),
      n_cc(static_cast<size_t>(C) * C, 0);
  for (int d = 0; d < posts.num_posts(); ++d) {
    const int c = state.post_community[static_cast<size_t>(d)];
    const int k = state.post_topic[static_cast<size_t>(d)];
    if (c < 0 || c >= C || k < 0 || k >= K) {
      return "post " + std::to_string(d) + " has an out-of-range assignment";
    }
    const int i = posts.author(d);
    n_ic[static_cast<size_t>(i) * C + c]++;
    n_i[static_cast<size_t>(i)]++;
    n_ck[static_cast<size_t>(c) * K + k]++;
    n_c[static_cast<size_t>(c)]++;
    n_ckt[(static_cast<size_t>(c) * K + k) * T + posts.time(d)]++;
    for (int w : posts.words(d)) n_kv[static_cast<size_t>(k) * V + w]++;
    n_k[static_cast<size_t>(k)] += posts.length(d);
  }
  for (int64_t e = 0; e < links.num_edges(); ++e) {
    const int s = state.link_src_community[static_cast<size_t>(e)];
    const int s2 = state.link_dst_community[static_cast<size_t>(e)];
    if (s < 0 || s >= C || s2 < 0 || s2 >= C) {
      return "link " + std::to_string(e) + " has an out-of-range assignment";
    }
    const auto& edge = links.edge(e);
    n_ic[static_cast<size_t>(edge.src) * C + s]++;
    n_i[static_cast<size_t>(edge.src)]++;
    n_ic[static_cast<size_t>(edge.dst) * C + s2]++;
    n_i[static_cast<size_t>(edge.dst)]++;
    n_cc[static_cast<size_t>(s) * C + s2]++;
  }
  for (const std::string& r :
       {CompareVectors(state.n_ic_flat(), n_ic, "n_ic"),
        CompareVectors(state.n_i_flat(), n_i, "n_i"),
        CompareVectors(state.n_ck_flat(), n_ck, "n_ck"),
        CompareVectors(state.n_c_flat(), n_c, "n_c"),
        CompareVectors(state.n_ckt_flat(), n_ckt, "n_ckt"),
        CompareVectors(state.n_kv_flat(), n_kv, "n_kv"),
        CompareVectors(state.n_k_flat(), n_k, "n_k"),
        CompareVectors(state.n_cc_flat(), n_cc, "n_cc")}) {
    if (!r.empty()) return "recount mismatch: " + r;
  }
  return "";
}

std::string CompareStates(const core::ColdState& a, const core::ColdState& b) {
  for (const std::string& r :
       {CompareVectors(a.post_community, b.post_community, "post_community"),
        CompareVectors(a.post_topic, b.post_topic, "post_topic"),
        CompareVectors(a.link_src_community, b.link_src_community,
                       "link_src_community"),
        CompareVectors(a.link_dst_community, b.link_dst_community,
                       "link_dst_community"),
        CompareVectors(a.n_ic_flat(), b.n_ic_flat(), "n_ic"),
        CompareVectors(a.n_i_flat(), b.n_i_flat(), "n_i"),
        CompareVectors(a.n_ck_flat(), b.n_ck_flat(), "n_ck"),
        CompareVectors(a.n_c_flat(), b.n_c_flat(), "n_c"),
        CompareVectors(a.n_ckt_flat(), b.n_ckt_flat(), "n_ckt"),
        CompareVectors(a.n_kv_flat(), b.n_kv_flat(), "n_kv"),
        CompareVectors(a.n_k_flat(), b.n_k_flat(), "n_k"),
        CompareVectors(a.n_cc_flat(), b.n_cc_flat(), "n_cc")}) {
    if (!r.empty()) return r;
  }
  return "";
}

std::string CompareEstimates(const core::ColdEstimates& a,
                             const core::ColdEstimates& b) {
  if (a.U != b.U || a.C != b.C || a.K != b.K || a.T != b.T || a.V != b.V) {
    return "estimate dimensions differ";
  }
  for (const std::string& r : {CompareVectors(a.pi, b.pi, "pi"),
                               CompareVectors(a.theta, b.theta, "theta"),
                               CompareVectors(a.eta, b.eta, "eta"),
                               CompareVectors(a.phi, b.phi, "phi"),
                               CompareVectors(a.psi, b.psi, "psi")}) {
    if (!r.empty()) return r;
  }
  return "";
}

std::vector<int32_t> TopCommTable(const core::ColdEstimates& e, int m) {
  m = std::min(m, e.C);
  std::vector<int32_t> table;
  table.reserve(static_cast<size_t>(e.U) * m);
  std::vector<int32_t> order(static_cast<size_t>(e.C));
  for (int i = 0; i < e.U; ++i) {
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](int32_t a, int32_t b) {
      return e.Pi(i, a) > e.Pi(i, b);
    });
    table.insert(table.end(), order.begin(), order.begin() + m);
  }
  return table;
}

std::string CheckSimplexRows(const core::ColdEstimates& e) {
  for (const std::string& r :
       {CheckRows(e.pi, static_cast<size_t>(e.C), "pi"),
        CheckRows(e.theta, static_cast<size_t>(e.K), "theta"),
        CheckRows(e.phi, static_cast<size_t>(e.V), "phi"),
        CheckRows(e.psi, static_cast<size_t>(e.T), "psi")}) {
    if (!r.empty()) return r;
  }
  for (size_t j = 0; j < e.eta.size(); ++j) {
    if (!(e.eta[j] >= 0.0 && e.eta[j] <= 1.0)) {
      return "eta[" + std::to_string(j) + "] outside [0, 1]";
    }
  }
  return "";
}

std::string CheckArenaBytes(const std::string& bytes,
                            const core::ColdEstimates& e,
                            const std::vector<int32_t>& top_comm, int top_m) {
  if (bytes.size() < core::kArenaHeaderBytes ||
      std::memcmp(bytes.data(), core::kArenaMagic, 8) != 0) {
    return "arena: bad magic";
  }
  const core::ArenaLayout layout =
      core::ComputeArenaLayout(e.U, e.C, e.K, e.T, e.V, top_m);
  if (bytes.size() != core::kArenaHeaderBytes + layout.payload_bytes) {
    return "arena: size " + std::to_string(bytes.size()) + " != " +
           std::to_string(core::kArenaHeaderBytes + layout.payload_bytes);
  }
  const char* payload = bytes.data() + core::kArenaHeaderBytes;
  const size_t total = layout.payload_bytes;
  auto section = [&](size_t off, const void* expected, size_t n,
                     const char* name) {
    return CompareBytes(payload + off, total - off, expected, n, name);
  };
  for (const std::string& r :
       {section(layout.pi, e.pi.data(), e.pi.size() * 8, "arena pi"),
        section(layout.theta, e.theta.data(), e.theta.size() * 8,
                "arena theta"),
        section(layout.eta, e.eta.data(), e.eta.size() * 8, "arena eta"),
        section(layout.phi, e.phi.data(), e.phi.size() * 8, "arena phi"),
        section(layout.psi, e.psi.data(), e.psi.size() * 8, "arena psi"),
        section(layout.top_comm, top_comm.data(), top_comm.size() * 4,
                "arena TopComm")}) {
    if (!r.empty()) return r;
  }
  return "";
}

std::string CheckMappedView(const core::EstimatesView& view,
                            std::span<const int32_t> mapped_top_comm,
                            const core::ColdEstimates& e,
                            const std::vector<int32_t>& top_comm) {
  if (view.U != e.U || view.C != e.C || view.K != e.K || view.T != e.T ||
      view.V != e.V) {
    return "mapped arena: dimensions differ";
  }
  auto same = [](const double* p, const std::vector<double>& v) {
    return std::memcmp(p, v.data(), v.size() * sizeof(double)) == 0;
  };
  if (!same(view.pi, e.pi)) return "mapped arena: pi differs";
  if (!same(view.theta, e.theta)) return "mapped arena: theta differs";
  if (!same(view.eta, e.eta)) return "mapped arena: eta differs";
  if (!same(view.phi, e.phi)) return "mapped arena: phi differs";
  if (!same(view.psi, e.psi)) return "mapped arena: psi differs";
  if (mapped_top_comm.size() != top_comm.size() ||
      !std::equal(top_comm.begin(), top_comm.end(), mapped_top_comm.begin())) {
    return "mapped arena: TopComm differs from the top of pi";
  }
  return "";
}

std::vector<double> RefPosterior(const RefModel& m,
                                 std::span<const int32_t> words, int author) {
  const core::ColdEstimates& e = *m.est;
  const int32_t* top = m.top_comm->data() + static_cast<size_t>(author) * m.top_m;
  std::vector<double> score(static_cast<size_t>(e.K));
  double best = -INFINITY;
  for (int k = 0; k < e.K; ++k) {
    double log_words = 0.0;
    for (int32_t w : words) log_words += std::log(e.Phi(k, w));
    double pref = 0.0;
    for (int j = 0; j < m.top_m; ++j) {
      pref += e.Pi(author, top[j]) * e.Theta(top[j], k);
    }
    score[static_cast<size_t>(k)] = log_words + std::log(pref);
    best = std::max(best, score[static_cast<size_t>(k)]);
  }
  double norm = 0.0;
  for (double s : score) norm += std::exp(s - best);
  for (double& s : score) s = std::exp(s - best) / norm;
  return score;
}

Expected RefDiffusion(const RefModel& m, int author, int candidate,
                      std::span<const double> posterior) {
  const core::ColdEstimates& e = *m.est;
  const int32_t* ti = m.top_comm->data() + static_cast<size_t>(author) * m.top_m;
  const int32_t* tj =
      m.top_comm->data() + static_cast<size_t>(candidate) * m.top_m;
  Expected out;
  for (int k = 0; k < e.K; ++k) {
    double influence = 0.0;
    for (int a = 0; a < m.top_m; ++a) {
      for (int b = 0; b < m.top_m; ++b) {
        influence += e.Pi(author, ti[a]) * e.Theta(ti[a], k) *
                     e.Pi(candidate, tj[b]) * e.Theta(tj[b], k) *
                     e.Eta(ti[a], tj[b]);
      }
    }
    const double term = posterior[static_cast<size_t>(k)] * influence;
    out.value += term;
    if (posterior[static_cast<size_t>(k)] < 1e-8) out.skipped += term;
  }
  return out;
}

bool AnswerMatches(double served, const Expected& expected) {
  return std::fabs(served - expected.value) <=
         kRelTol * std::fabs(expected.value) + expected.skipped;
}

int MatchingModel(std::span<const double> served,
                  const std::vector<std::vector<Expected>>& expected) {
  for (size_t m = 0; m < expected.size(); ++m) {
    if (expected[m].size() != served.size() || served.empty()) continue;
    bool all = true;
    for (size_t j = 0; j < served.size() && all; ++j) {
      all = AnswerMatches(served[j], expected[m][j]);
    }
    if (all) return static_cast<int>(m);
  }
  return -1;
}

double RefPerplexity(const core::ColdEstimates& e,
                     const cold::text::PostStore& test) {
  double total_ll = 0.0;
  int64_t tokens = 0;
  std::vector<double> terms(static_cast<size_t>(e.K));
  for (int d = 0; d < test.num_posts(); ++d) {
    if (test.length(d) == 0) continue;
    const int author = test.author(d);
    double best = -INFINITY;
    for (int k = 0; k < e.K; ++k) {
      double mix = 0.0;
      for (int c = 0; c < e.C; ++c) mix += e.Pi(author, c) * e.Theta(c, k);
      double log_words = 0.0;
      for (int32_t w : test.words(d)) log_words += std::log(e.Phi(k, w));
      terms[static_cast<size_t>(k)] = log_words + std::log(mix);
      best = std::max(best, terms[static_cast<size_t>(k)]);
    }
    double sum = 0.0;
    for (double t : terms) sum += std::exp(t - best);
    total_ll += best + std::log(sum);
    tokens += test.length(d);
  }
  return tokens == 0 ? 0.0 : std::exp(-total_ll / static_cast<double>(tokens));
}

double UnigramPerplexity(const cold::text::PostStore& train,
                         const cold::text::PostStore& test, int vocab,
                         double beta) {
  std::vector<int64_t> counts(static_cast<size_t>(vocab), 0);
  int64_t total = 0;
  for (int d = 0; d < train.num_posts(); ++d) {
    for (int32_t w : train.words(d)) counts[static_cast<size_t>(w)]++;
    total += train.length(d);
  }
  const double denom = static_cast<double>(total) + vocab * beta;
  double ll = 0.0;
  int64_t tokens = 0;
  for (int d = 0; d < test.num_posts(); ++d) {
    for (int32_t w : test.words(d)) {
      ll += std::log((static_cast<double>(counts[static_cast<size_t>(w)]) +
                      beta) /
                     denom);
    }
    tokens += test.length(d);
  }
  return tokens == 0 ? 0.0 : std::exp(-ll / static_cast<double>(tokens));
}

double MeanTupleAuc(const std::vector<std::vector<double>>& positives,
                    const std::vector<std::vector<double>>& negatives) {
  double sum = 0.0;
  int64_t tuples = 0;
  for (size_t t = 0; t < positives.size() && t < negatives.size(); ++t) {
    const auto& pos = positives[t];
    const auto& neg = negatives[t];
    if (pos.empty() || neg.empty()) continue;
    double wins = 0.0;
    for (double p : pos) {
      for (double n : neg) wins += p > n ? 1.0 : (p == n ? 0.5 : 0.0);
    }
    sum += wins / (static_cast<double>(pos.size()) * neg.size());
    tuples++;
  }
  return tuples == 0 ? 0.0 : sum / static_cast<double>(tuples);
}

bool ParseDiffusionBody(std::string_view body, std::vector<double>* out) {
  out->clear();
  constexpr std::string_view kSingle = "{\"probability\":";
  constexpr std::string_view kMany = "{\"probabilities\":[";
  const bool single = body.starts_with(kSingle);
  if (!single && !body.starts_with(kMany)) return false;
  // Copy so strtod stops at the buffer's terminating NUL at worst.
  std::string text(body.substr(single ? kSingle.size() : kMany.size()));
  const char* p = text.c_str();
  while (true) {
    char* end = nullptr;
    const double v = std::strtod(p, &end);
    if (end == p || !std::isfinite(v)) return false;
    out->push_back(v);
    p = end;
    if (single) return std::strcmp(p, "}") == 0;
    if (*p == ',') {
      ++p;
      continue;
    }
    return std::strcmp(p, "]}") == 0;
  }
}

}  // namespace e2ebench
