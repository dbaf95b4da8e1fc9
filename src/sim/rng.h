// Deterministic random number generation for the simulator.
//
// All randomness in a run flows through one seeded engine so experiments are
// reproducible. Distribution helpers cover the laws the SCDA evaluation
// needs: uniform, exponential (Poisson arrivals), Pareto, bounded Pareto,
// lognormal, and discrete empirical sampling.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <random>
#include <span>
#include <stdexcept>
#include <vector>

namespace scda::sim {

/// The splitmix64 finalizer (Steele, Lea & Flood; the mix java.util
/// .SplittableRandom uses): bijective and well mixed. The repo's one hash
/// for seeds, shard dispatch and ECMP picks.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The output sequence of std::mt19937_64(seed), computed only as far as it
/// is read. The real engine seeds all 312 state words and twists all 312
/// before its first output, which dominates a stream that is drawn a few
/// times (one per churn entity, docs/perf.md "Churn streams").
///
/// Output j < 156 (state_size - shift_size) is the tempered word
/// x[j + 156] ^ twist(x[j], x[j + 1]). The first twist pass computes word
/// j < 156 from words j, j + 1 and j + 156 before it rewrites any of them,
/// so all three are still the seeded words. The engine therefore keeps two
/// cursors into the seed recurrence, word j and word j + 156, and moves
/// each one step per draw; no other seeded word is ever read. Starting the
/// high cursor costs 156 recurrence steps, a chain of dependent multiplies,
/// so seed_lockstep() runs the chains of a block of seeds side by side.
/// From draw 156 on, outputs read twisted words, and the engine hands over
/// to a real std::mt19937_64(seed) advanced past the 156 outputs already
/// returned.
class Mt64Prefix {
  using Mt = std::mt19937_64;

 public:
  // NOLINTNEXTLINE(readability-identifier-naming): the URBG requirement
  using result_type = Mt::result_type;
  static constexpr result_type min() noexcept { return Mt::min(); }
  static constexpr result_type max() noexcept { return Mt::max(); }

  /// Seed recurrences seed_lockstep() interleaves. Eight chains kept the
  /// multiplier busier than four and as busy as sixteen (docs/perf.md).
  static constexpr std::size_t kLanes = 8;

  /// A seed and word 156 of its seed recurrence, where the high cursor
  /// starts.
  struct Seeded {
    result_type seed = 0;
    result_type high = 0;
  };

  /// Sets each entry's `high` from its `seed`, kLanes entries at a time.
  static void seed_lockstep(std::span<Seeded> block) noexcept {
    for (std::size_t first = 0; first < block.size(); first += kLanes) {
      const std::size_t n = std::min(kLanes, block.size() - first);
      std::array<result_type, kLanes> x{};  // lanes past n run on 0, unread
      for (std::size_t l = 0; l < n; ++l) x[l] = block[first + l].seed;
      for (result_type i = 1; i <= Mt::shift_size; ++i)
        for (result_type& w : x) w = next_word(w, i);
      for (std::size_t l = 0; l < n; ++l) block[first + l].high = x[l];
    }
  }

  explicit Mt64Prefix(result_type seed) noexcept
      : Mt64Prefix(seeded(seed)) {}
  /// The engine of s.seed, whose high word seed_lockstep() computed.
  explicit Mt64Prefix(const Seeded& s) noexcept
      : seed_(s.seed), low_(s.seed), high_(s.high) {}

  result_type operator()() {
    if (drawn_ < kPrefix) {
      const result_type j = drawn_++;
      const result_type lo = low_;
      low_ = next_word(lo, j + 1);
      const result_type z = high_ ^ twist(lo, low_);
      high_ = next_word(high_, j + 1 + Mt::shift_size);
      return temper(z);
    }
    if (!tail_) {
      tail_.emplace(seed_);
      tail_->discard(kPrefix);
    }
    return (*tail_)();
  }

 private:
  static constexpr result_type kPrefix = Mt::state_size - Mt::shift_size;
  static constexpr result_type kLowerMask =
      (result_type{1} << Mt::mask_bits) - 1;

  static Seeded seeded(result_type seed) noexcept {
    Seeded s{seed};
    seed_lockstep({&s, 1});
    return s;
  }

  /// Seed recurrence x[i] = f * (x[i-1] ^ (x[i-1] >> (w-2))) + i.
  static result_type next_word(result_type prev, result_type i) noexcept {
    return Mt::initialization_multiplier *
               (prev ^ (prev >> (Mt::word_size - 2))) +
           i;
  }

  static result_type twist(result_type lo, result_type hi) noexcept {
    const result_type y = (lo & ~kLowerMask) | (hi & kLowerMask);
    return (y >> 1) ^ ((y & 1) ? Mt::xor_mask : 0);
  }

  static result_type temper(result_type z) noexcept {
    z ^= (z >> Mt::tempering_u) & Mt::tempering_d;
    z ^= (z << Mt::tempering_s) & Mt::tempering_b;
    z ^= (z << Mt::tempering_t) & Mt::tempering_c;
    return z ^ (z >> Mt::tempering_l);
  }

  result_type seed_;
  result_type low_;   ///< word j, j = draws so far
  result_type high_;  ///< word j + 156
  result_type drawn_ = 0;
  std::optional<Mt> tail_;
};

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5cda2013ULL) : eng_(seed) {}

  /// Uniform double in [0, 1).
  double uniform() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(eng_);
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(eng_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(eng_);
  }

  /// Exponential with given mean (= 1/lambda). Inter-arrival times of a
  /// Poisson process with rate lambda are exponential(mean = 1/lambda).
  double exponential(double mean) {
    if (mean <= 0) throw std::invalid_argument("Rng::exponential: mean <= 0");
    return std::exponential_distribution<double>(1.0 / mean)(eng_);
  }

  /// Pareto with scale xm > 0 and shape a > 0:  P(X > x) = (xm/x)^a.
  double pareto(double xm, double shape) {
    if (xm <= 0 || shape <= 0)
      throw std::invalid_argument("Rng::pareto: xm and shape must be > 0");
    double u;
    // scda-lint: allow(float-eq) rejecting exactly-zero u (would div by 0)
    do { u = uniform(); } while (u == 0.0);
    return xm / std::pow(u, 1.0 / shape);
  }

  /// Pareto parametrized by its mean (requires shape > 1).
  /// mean = xm * shape / (shape - 1)  =>  xm = mean * (shape - 1) / shape.
  double pareto_mean(double mean, double shape) {
    if (shape <= 1)
      throw std::invalid_argument("Rng::pareto_mean: shape must be > 1");
    return pareto(mean * (shape - 1.0) / shape, shape);
  }

  /// Pareto truncated to [xm, cap] via rejection-free inverse transform.
  double bounded_pareto(double xm, double shape, double cap) {
    if (!(cap > xm))
      throw std::invalid_argument("Rng::bounded_pareto: cap must be > xm");
    const double ha = std::pow(xm / cap, shape);
    double u;
    // scda-lint: allow(float-eq) rejecting exactly-zero u (log/pow domain)
    do { u = uniform(); } while (u == 0.0);
    return xm / std::pow(1.0 - u * (1.0 - ha), 1.0 / shape);
  }

  /// Lognormal with the given *underlying normal* mu/sigma.
  double lognormal(double mu, double sigma) {
    return std::lognormal_distribution<double>(mu, sigma)(eng_);
  }

  /// Lognormal parametrized by its own mean and coefficient of variation.
  double lognormal_mean_cv(double mean, double cv) {
    const double sigma2 = std::log(1.0 + cv * cv);
    const double mu = std::log(mean) - 0.5 * sigma2;
    return lognormal(mu, std::sqrt(sigma2));
  }

  /// Sample an index from unnormalized weights.
  std::size_t discrete(const std::vector<double>& weights) {
    std::discrete_distribution<std::size_t> d(weights.begin(), weights.end());
    return d(eng_);
  }

  /// Bernoulli with probability p.
  bool bernoulli(double p) { return uniform() < p; }

  std::mt19937_64& engine() noexcept { return eng_; }

 private:
  std::mt19937_64 eng_;
};

}  // namespace scda::sim
