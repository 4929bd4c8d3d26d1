// Deterministic pseudo-random number generation and the sampling
// distributions used throughout the COLD inference code.
//
// We implement PCG32 (O'Neill 2014) rather than relying on std::mt19937 so
// that streams are cheap to split per-edge/per-thread (the parallel trainer
// gives every scatter chunk its own statistically independent stream) and
// results are reproducible across standard libraries.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace cold {

/// \brief Serializable snapshot of a RandomSampler: the raw PCG32 state
/// plus the Box-Muller spare, so a restored sampler continues the exact
/// draw sequence (the checkpoint layer's bit-identical-resume guarantee).
struct RngState {
  uint64_t state = 0;
  uint64_t inc = 1;
  bool have_spare_normal = false;
  double spare_normal = 0.0;
};

/// \brief PCG32 generator: 64-bit state, 32-bit output, seedable stream id.
///
/// Distinct `stream` values yield statistically independent sequences for the
/// same seed, which the parallel sampler uses to give each worker its own
/// stream deterministically.
class Pcg32 {
 public:
  /// Constructs a generator for (seed, stream).
  explicit Pcg32(uint64_t seed = 0x853c49e6748fea9bULL, uint64_t stream = 1);

  /// Reseeds in place.
  void Seed(uint64_t seed, uint64_t stream = 1);

  /// Next raw 32-bit draw.
  uint32_t NextU32();

  /// Next 64-bit draw (two 32-bit draws).
  uint64_t NextU64();

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform integer in [0, bound) using Lemire's rejection method.
  uint32_t NextBounded(uint32_t bound);

  /// Raw state for checkpoint serialization.
  uint64_t raw_state() const { return state_; }
  uint64_t raw_inc() const { return inc_; }
  /// Restores a generator previously captured via raw_state()/raw_inc().
  void Restore(uint64_t state, uint64_t inc) {
    state_ = state;
    inc_ = inc;
  }

  // UniformRandomBitGenerator interface, so Pcg32 works with <algorithm>.
  using result_type = uint32_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return 0xffffffffu; }
  result_type operator()() { return NextU32(); }

 private:
  uint64_t state_;
  uint64_t inc_;
};

/// \brief Sampling distributions on top of a Pcg32 stream.
///
/// All methods are deterministic functions of the generator state; none
/// allocate except where a vector is returned.
class RandomSampler {
 public:
  explicit RandomSampler(uint64_t seed = 42, uint64_t stream = 1)
      : rng_(seed, stream) {}
  explicit RandomSampler(Pcg32 rng) : rng_(rng) {}

  Pcg32& rng() { return rng_; }

  /// Captures the full sampler state for checkpointing.
  RngState SaveState() const {
    return RngState{rng_.raw_state(), rng_.raw_inc(), have_spare_normal_,
                    spare_normal_};
  }

  /// Restores a state captured by SaveState(); subsequent draws continue
  /// the original sequence bit-identically.
  void RestoreState(const RngState& s) {
    rng_.Restore(s.state, s.inc);
    have_spare_normal_ = s.have_spare_normal;
    spare_normal_ = s.spare_normal;
  }

  /// Uniform double in [0, 1).
  double Uniform() { return rng_.NextDouble(); }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

  /// Uniform integer in [0, n).
  uint32_t UniformInt(uint32_t n) { return rng_.NextBounded(n); }

  /// Bernoulli draw with success probability p.
  bool Bernoulli(double p) { return Uniform() < p; }

  /// Standard normal via Box-Muller.
  double Normal();

  /// Gamma(shape, scale=1) via Marsaglia-Tsang; valid for shape > 0.
  double Gamma(double shape);

  /// Beta(a, b) via two Gamma draws.
  double Beta(double a, double b);

  /// \brief Draws from a categorical distribution given unnormalized
  /// non-negative weights. Returns an index in [0, weights.size()).
  ///
  /// The total may be passed if already known, else it is computed.
  /// Degenerate weight vectors (all-zero or non-finite total) fall back
  /// to a uniform draw over all indices.
  int Categorical(std::span<const double> weights, double total = -1.0);

  /// \brief Draws from a categorical distribution given log-weights
  /// (arbitrary scale); numerically stable via max-shift. An all--inf
  /// (or otherwise non-finite-maximum) vector falls back to a uniform
  /// draw over all indices.
  int LogCategorical(std::span<const double> log_weights);

  /// \brief Samples a Dirichlet(alpha) vector; `alpha` may be asymmetric.
  std::vector<double> Dirichlet(std::span<const double> alpha);

  /// \brief Samples a symmetric Dirichlet(alpha) of dimension n.
  std::vector<double> SymmetricDirichlet(double alpha, int n);

  /// \brief Draws `n` samples from a multinomial with probabilities `p`,
  /// returning the count vector.
  std::vector<int> Multinomial(int n, std::span<const double> p);

  /// \brief Fisher-Yates shuffles `items` in place.
  template <typename T>
  void Shuffle(std::vector<T>* items) {
    for (size_t i = items->size(); i > 1; --i) {
      size_t j = UniformInt(static_cast<uint32_t>(i));
      std::swap((*items)[i - 1], (*items)[j]);
    }
  }

  /// \brief Samples `k` distinct indices from [0, n) (k <= n), in random
  /// order, via partial Fisher-Yates.
  std::vector<int> SampleWithoutReplacement(int n, int k);

  /// Zipf-like draw over [0, n): P(i) proportional to 1/(i+1)^s.
  /// Uses an inverse-CDF table owned by the caller; see MakeZipfTable.
  static std::vector<double> MakeZipfTable(int n, double s);

 private:
  Pcg32 rng_;
  bool have_spare_normal_ = false;
  double spare_normal_ = 0.0;
};

}  // namespace cold
