#include "rng/alias.hpp"

namespace iba::rng {

namespace {

/// thr_hi = min(floor(clamp(p, 0, 1)·2³²), 2³² − 1); NaN maps to 0, whose
/// tie path (uniform01 < NaN) then always picks the alias, as before.
std::uint32_t coin_threshold(double p) noexcept {
  if (!(p > 0.0)) return 0;
  if (p >= 1.0) return 0xFFFFFFFFu;
  return static_cast<std::uint32_t>(p * 0x1.0p32);
}

}  // namespace

AliasTable::AliasTable(const std::vector<double>& weights) {
  IBA_EXPECT(!weights.empty(), "AliasTable: needs at least one weight");
  double total = 0.0;
  for (const double w : weights) {
    IBA_EXPECT(w >= 0.0, "AliasTable: weights must be non-negative");
    total += w;
  }
  IBA_EXPECT(total > 0.0, "AliasTable: weights must not all be zero");

  // Vose: scale to mean 1 (in place, in probability_), split into
  // under-/over-full outcomes, and pair each under-full slot with an
  // over-full alias. Both stacks share one index array: `small` grows up
  // from the front, `large` down from the back. Together they never hold
  // more than k indices, so they cannot collide.
  const std::size_t k = weights.size();
  normalized_.resize(k);
  probability_.resize(k);
  packed_.resize(k);
  std::vector<std::uint32_t> stacks(k);
  std::size_t small = 0;    // small stack: stacks[0, small), top at small−1
  std::size_t large = k;    // large stack: stacks[large, k), top at large
  for (std::size_t i = 0; i < k; ++i) {
    normalized_[i] = weights[i] / total;
    probability_[i] = normalized_[i] * static_cast<double>(k);
    stacks[probability_[i] < 1.0 ? small++ : --large] =
        static_cast<std::uint32_t>(i);
  }

  while (small > 0 && large < k) {
    const std::uint32_t s = stacks[--small];
    const std::uint32_t l = stacks[large];
    packed_[s] = {coin_threshold(probability_[s]), l};
    probability_[l] -= 1.0 - probability_[s];
    if (probability_[l] < 1.0) {
      ++large;
      stacks[small++] = l;
    }
  }
  // Residual slots (rounding leftovers) keep probability 1.
  const auto keep = [this](std::uint32_t i) {
    probability_[i] = 1.0;
    packed_[i] = {0xFFFFFFFFu, i};
  };
  for (std::size_t i = 0; i < small; ++i) keep(stacks[i]);
  for (std::size_t i = large; i < k; ++i) keep(stacks[i]);
}

}  // namespace iba::rng
