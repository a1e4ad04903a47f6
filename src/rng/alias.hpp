// Walker/Vose alias method — O(1) sampling from an arbitrary discrete
// distribution after O(k) preprocessing.
//
// Substrate for the non-uniform-bins extension (cf. Berenbrink,
// Brinkmann, Friedetzky, Nagel, "Balls into Non-uniform Bins", JPDC'14,
// the paper's reference [6]): heterogeneous server farms where request
// routing is weighted by server capacity.
//
// Each draw takes two engine words: x picks the slot by Lemire's bounded
// reduction, y tosses the slot's coin, uniform01(y) < p_slot. The coin is
// decided from one packed 8-byte entry per slot, {thr_hi, alias} with
// thr_hi = min(floor(clamp(p, 0, 1)·2³²), 2³² − 1). Writing coin = y >> 11
// (so uniform01(y) < p ⟺ coin < p·2⁵³) and chi = coin >> 21 = y >> 32:
//
//   chi < thr_hi  ⇒  coin < (chi + 1)·2²¹ ≤ thr_hi·2²¹ ≤ p·2⁵³   (slot)
//   chi > thr_hi  ⇒  coin ≥ (thr_hi + 1)·2²¹ > p·2⁵³              (alias)
//
// Only a tie, chi == thr_hi (probability 2⁻³² per draw), needs the exact
// double comparison against probability_[slot]. So a draw is one random
// 8-byte load and an arithmetic select, with no data-dependent branch,
// and its value and engine consumption are those of the two-array table
// it replaces.
#pragma once

#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "rng/bounded.hpp"

namespace iba::rng {

/// Immutable alias table over weights w_0..w_{k−1}; sample() returns i
/// with probability w_i / Σw in two engine words.
class AliasTable {
 public:
  /// Builds the table (Vose's stable two-stack construction). Weights
  /// must be non-negative with a positive sum.
  explicit AliasTable(const std::vector<double>& weights);

  template <std::uniform_random_bit_generator Engine>
  [[nodiscard]] std::uint32_t sample(Engine& engine) const noexcept {
    const auto slot =
        static_cast<std::uint32_t>(bounded(engine, packed_.size()));
    const std::uint64_t y = engine();
    const Entry entry = packed_[slot];
    const std::uint64_t chi = y >> 32;
    if (chi == entry.thr_hi) [[unlikely]] return resolve_tie(slot, y);
    // The borrow of chi − thr_hi fills the high word with ones iff
    // chi < thr_hi: a select mask. GCC compiles a plain ?: on the two
    // outcomes to a data-dependent branch, which mispredicts on a large
    // share of draws.
    const auto take = static_cast<std::uint32_t>((chi - entry.thr_hi) >> 32);
    return entry.alias ^ ((slot ^ entry.alias) & take);
  }

  /// Fills `out` with independent draws: exactly `out.size()` sequential
  /// sample() calls, the one batched entry point for bin samplers.
  template <std::uniform_random_bit_generator Engine>
  void fill(Engine& engine, std::span<std::uint32_t> out) const noexcept {
    for (auto& choice : out) choice = sample(engine);
  }

  [[nodiscard]] std::size_t size() const noexcept { return packed_.size(); }

  /// The normalized probability of outcome i (for tests/inspection).
  [[nodiscard]] double outcome_probability(std::uint32_t i) const noexcept {
    IBA_ASSERT(i < normalized_.size());
    return normalized_[i];
  }

 private:
  /// One slot of the packed table: the coin's high-word threshold and
  /// the slot's alias outcome.
  struct Entry {
    std::uint32_t thr_hi;
    std::uint32_t alias;
  };

  /// uniform01(y) < p_slot, evaluated exactly: the coin of a draw whose
  /// high word ties the slot's threshold.
  [[nodiscard]] std::uint32_t resolve_tie(std::uint32_t slot,
                                          std::uint64_t y) const noexcept {
    return static_cast<double>(y >> 11) * 0x1.0p-53 < probability_[slot]
               ? slot
               : packed_[slot].alias;
  }

  std::vector<Entry> packed_;        ///< {coin threshold, alias} per slot
  std::vector<double> probability_;  ///< exact threshold, read on ties
  std::vector<double> normalized_;   ///< original weights, normalized
};

}  // namespace iba::rng
