#include "simcore/rng.hpp"

#include <cassert>
#include <cmath>

#include "simcore/splitmix64.hpp"

namespace cpa::sim {
namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  // Seeded from a SplitMix64 stream, as xoshiro's authors recommend.
  std::uint64_t x = seed;
  for (auto& s : s_) {
    x += kSplitMix64Gamma;
    s = mix64(x);
  }
  // xoshiro must not start from the all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

Rng Rng::split() { return Rng(next_u64() ^ 0xA5A5A5A55A5A5A5AULL); }

double Rng::uniform() {
  // 53 random mantissa bits -> [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::uniform_u64(std::uint64_t lo, std::uint64_t hi) {
  assert(lo <= hi);
  const std::uint64_t span = hi - lo + 1;
  if (span == 0) return next_u64();  // full range
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = std::uint64_t(-1) - std::uint64_t(-1) % span;
  std::uint64_t v;
  do {
    v = next_u64();
  } while (v >= limit);
  return lo + v % span;
}

std::int64_t Rng::uniform_i64(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo);
  return lo + static_cast<std::int64_t>(uniform_u64(0, span));
}

bool Rng::chance(double p) { return uniform() < p; }

double Rng::exponential(double mean) {
  double u;
  do {
    u = uniform();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

double Rng::normal(double mean, double stddev) {
  if (have_spare_normal_) {
    have_spare_normal_ = false;
    return mean + stddev * spare_normal_;
  }
  double u1;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * 3.141592653589793238462643 * u2;
  spare_normal_ = r * std::sin(theta);
  have_spare_normal_ = true;
  return mean + stddev * r * std::cos(theta);
}

double Rng::lognormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

double Rng::lognormal_mean(double mean, double sigma_log) {
  assert(mean > 0.0);
  // E[exp(N(mu, s))] = exp(mu + s^2/2)  =>  mu = ln(mean) - s^2/2.
  const double mu = std::log(mean) - 0.5 * sigma_log * sigma_log;
  return lognormal(mu, sigma_log);
}

double Rng::bounded_pareto(double alpha, double lo, double hi) {
  assert(alpha > 0.0 && lo > 0.0 && hi > lo);
  const double u = uniform();
  const double la = std::pow(lo, alpha);
  const double ha = std::pow(hi, alpha);
  return std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / alpha);
}

std::size_t Rng::weighted_choice(std::span<const double> weights) {
  assert(!weights.empty());
  double total = 0.0;
  for (const double w : weights) total += w;
  assert(total > 0.0);
  double x = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x < 0.0) return i;
  }
  return weights.size() - 1;  // floating-point slop
}

}  // namespace cpa::sim
