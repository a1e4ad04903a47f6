// AliasTable::fill and sample() against a test-local oracle: the
// original Vose build (doubles + a separate alias array) drawn one ball at
// a time as `uniform01(engine) < probability[slot] ? slot : alias[slot]`.
// The packed table must reproduce its values and its engine position
// exactly — across fill lengths, table sizes and weight shapes, Lemire
// rejections at the first, a middle and the last draw, and coin ties.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "rng/alias.hpp"
#include "rng/bounded.hpp"
#include "rng/xoshiro256.hpp"

namespace iba::rng {
namespace {

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpedantic"  // __int128 is a GCC/Clang builtin
using u128 = unsigned __int128;
#pragma GCC diagnostic pop

/// Length of the fills that place scripted words at chosen draws.
constexpr std::size_t kSpan = 256;

/// The reference: Vose's two-stack build into a probability and an
/// alias array, sampled per ball.
class OracleAlias {
 public:
  explicit OracleAlias(const std::vector<double>& weights) {
    double total = 0.0;
    for (const double w : weights) total += w;
    const std::size_t k = weights.size();
    std::vector<double> scaled(k);
    for (std::size_t i = 0; i < k; ++i) {
      scaled[i] = (weights[i] / total) * static_cast<double>(k);
    }
    std::vector<std::uint32_t> small, large;
    for (std::size_t i = 0; i < k; ++i) {
      (scaled[i] < 1.0 ? small : large).push_back(
          static_cast<std::uint32_t>(i));
    }
    probability.assign(k, 1.0);
    alias.resize(k);
    for (std::size_t i = 0; i < k; ++i) {
      alias[i] = static_cast<std::uint32_t>(i);
    }
    while (!small.empty() && !large.empty()) {
      const std::uint32_t s = small.back();
      small.pop_back();
      const std::uint32_t l = large.back();
      probability[s] = scaled[s];
      alias[s] = l;
      scaled[l] -= 1.0 - scaled[s];
      if (scaled[l] < 1.0) {
        large.pop_back();
        small.push_back(l);
      }
    }
  }

  template <typename Engine>
  std::uint32_t sample(Engine& engine) const {
    const auto slot =
        static_cast<std::uint32_t>(bounded(engine, probability.size()));
    return uniform01(engine) < probability[slot] ? slot : alias[slot];
  }

  std::vector<double> probability;
  std::vector<std::uint32_t> alias;
};

/// Replays a fixed word script, then continues from a xoshiro stream.
/// `position` counts the words handed out.
struct ScriptedEngine {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() {
    const std::uint64_t word =
        position < script.size() ? script[position] : tail();
    ++position;
    return word;
  }

  std::vector<std::uint64_t> script;
  Xoshiro256pp tail{0};
  std::size_t position = 0;
};

std::vector<double> zipf_weights(std::size_t k, double s) {
  std::vector<double> weights(k);
  for (std::size_t i = 0; i < k; ++i) {
    weights[i] = std::pow(static_cast<double>(i) + 1.0, -s);
  }
  return weights;
}

struct Shape {
  std::string name;
  std::vector<double> weights;
};

std::vector<Shape> shapes(std::size_t k) {
  std::vector<Shape> out;
  out.push_back({"equal", std::vector<double>(k, 1.0)});
  std::vector<double> zeros(k);
  for (std::size_t i = 0; i < k; ++i) {
    zeros[i] = i % 3 == 1 ? 0.0 : 1.0 + static_cast<double>(i % 5);
  }
  out.push_back({"zeros", zeros});
  for (const double s : {0.0, 0.5, 1.0, 2.0}) {
    out.push_back({"zipf" + std::to_string(s), zipf_weights(k, s)});
  }
  return out;
}

/// Fills `count` draws with AliasTable::fill and with the oracle from
/// identical engines; values and final engine positions must agree.
void expect_identical(const AliasTable& table, const OracleAlias& oracle,
                      const ScriptedEngine& start, std::size_t count) {
  ScriptedEngine filled = start;
  ScriptedEngine reference = start;
  std::vector<std::uint32_t> got(count);
  table.fill(filled, got);
  for (std::size_t i = 0; i < count; ++i) {
    ASSERT_EQ(got[i], oracle.sample(reference)) << "draw " << i;
  }
  ASSERT_EQ(filled.position, reference.position);
  ASSERT_EQ(filled(), reference());
}

TEST(AliasFill, MatchesOracleOverLengthsSizesAndShapes) {
  const std::size_t sizes[] = {1, 3, 7, 1000, 100000, std::size_t{1} << 16};
  std::uint64_t seed = 1;
  for (const std::size_t k : sizes) {
    for (const Shape& shape : shapes(k)) {
      SCOPED_TRACE("k=" + std::to_string(k) + " " + shape.name);
      const AliasTable table(shape.weights);
      const OracleAlias oracle(shape.weights);
      for (std::size_t count = 0; count <= 2 * kSpan + 1; ++count) {
        ScriptedEngine engine;
        engine.tail = Xoshiro256pp(seed++);
        expect_identical(table, oracle, engine, count);
      }
      ScriptedEngine engine;
      engine.tail = Xoshiro256pp(seed++);
      expect_identical(table, oracle, engine, 9 * kSpan + 17);
    }
  }
}

TEST(AliasFill, SampleMatchesOracle) {
  for (const std::size_t k : {1u, 7u, 1000u, 65536u}) {
    for (const Shape& shape : shapes(k)) {
      const AliasTable table(shape.weights);
      const OracleAlias oracle(shape.weights);
      Xoshiro256pp a(99);
      Xoshiro256pp b(99);
      for (int i = 0; i < 20000; ++i) {
        ASSERT_EQ(table.sample(a), oracle.sample(b)) << shape.name;
      }
      ASSERT_EQ(a(), b());
    }
  }
}

/// Word 0 makes the Lemire product's low half 0 < k: it trips the
/// pre-test for every k and is a real rejection (one extra word) unless
/// k is a power of two.
TEST(AliasFill, LemireRejectionsConsumeTheOraclesWords) {
  for (const std::size_t k : {1u, 3u, 7u, 1000u, 100000u, 65536u}) {
    const std::vector<double> weights = zipf_weights(k, 0.5);
    const AliasTable table(weights);
    const OracleAlias oracle(weights);
    const bool rejects = (k & (k - 1)) != 0;
    // The slot word of the first, a middle and the last draw of a fill,
    // alone or as a run of back-to-back rejections.
    for (const std::size_t ball : {std::size_t{0}, kSpan / 2, kSpan - 1,
                                   kSpan, 2 * kSpan - 1}) {
      for (const int run : {1, 3}) {
        SCOPED_TRACE("k=" + std::to_string(k) + " ball=" +
                     std::to_string(ball) + " run=" + std::to_string(run));
        ScriptedEngine engine;
        engine.tail = Xoshiro256pp(7);
        engine.script.resize(4 * kSpan + 8);
        Xoshiro256pp words(k + ball);
        for (auto& w : engine.script) w = words();
        for (int r = 0; r < run; ++r) engine.script[2 * ball + r] = 0;
        for (const std::size_t count : {ball + 1, 2 * kSpan + 3}) {
          expect_identical(table, oracle, engine, count);
          ScriptedEngine probe = engine;
          std::vector<std::uint32_t> out(count);
          table.fill(probe, out);
          if (rejects) {
            EXPECT_EQ(probe.position, 2 * count + run);
          } else {
            EXPECT_EQ(probe.position, 2 * count);
          }
        }
      }
    }
  }
}

/// The slot word that makes bounded(·, k) return `slot` without tripping
/// the pre-test: the smallest x with floor(x·k / 2⁶⁴) = slot, nudged up
/// while its low product half is below k.
std::uint64_t slot_word(std::uint64_t slot, std::uint64_t k) {
  auto x = static_cast<std::uint64_t>(
      ((static_cast<u128>(slot) << 64) + k - 1) / k);
  while (static_cast<std::uint64_t>(static_cast<u128>(x) * k) < k) ++x;
  return x;
}

TEST(AliasFill, ResolvesCoinTiesExactly) {
  for (const std::size_t k : {3u, 7u, 1000u, 65536u}) {
    for (const Shape& shape : shapes(k)) {
      SCOPED_TRACE("k=" + std::to_string(k) + " " + shape.name);
      const AliasTable table(shape.weights);
      const OracleAlias oracle(shape.weights);
      // Coin words whose high half equals the slot's threshold
      // floor(clamp(p)·2³²): the low half decides, on both sides of p.
      ScriptedEngine engine;
      engine.tail = Xoshiro256pp(k);
      std::size_t ties = 0;
      for (std::size_t slot = 0; slot < k && ties < 3 * kSpan; ++slot) {
        const double p = oracle.probability[slot];
        const std::uint64_t thr =
            !(p > 0.0) ? 0
            : p >= 1.0 ? 0xFFFFFFFFu
                       : static_cast<std::uint64_t>(p * 0x1.0p32);
        for (const std::uint64_t low :
             {std::uint64_t{0}, std::uint64_t{0x7FF}, std::uint64_t{0x800},
              std::uint64_t{0xFFFFFFFF}}) {
          engine.script.push_back(slot_word(slot, k));
          engine.script.push_back(thr << 32 | low);
          ++ties;
        }
      }
      const std::size_t drawn = engine.script.size() / 2;
      expect_identical(table, oracle, engine, drawn);
      // The same ties after a run of ordinary draws.
      for (const std::size_t offset : {std::size_t{1}, kSpan - 1}) {
        ScriptedEngine shifted = engine;
        Xoshiro256pp pad(offset);
        std::vector<std::uint64_t> prefix(2 * offset);
        for (auto& w : prefix) w = slot_word(pad() % k, k);
        shifted.script.insert(shifted.script.begin(), prefix.begin(),
                              prefix.end());
        expect_identical(table, oracle, shifted, drawn + offset);
      }
    }
  }
}

TEST(AliasFill, TiesPickBothOutcomes) {
  // Slot 0 gets p = 2·(1/3) = 0.666…: floor(p·2³²) leaves a fractional
  // part, so a tie resolves to the slot for a low coin half of 0 and to
  // the alias for all-ones.
  const std::vector<double> weights = {1.0, 2.0};
  const AliasTable table(weights);
  const OracleAlias oracle(weights);
  ASSERT_LT(oracle.probability[0], 1.0);
  const double p = oracle.probability[0];
  const auto thr = static_cast<std::uint64_t>(p * 0x1.0p32);
  ASSERT_NE(static_cast<double>(thr), p * 0x1.0p32);
  ScriptedEngine low;
  low.script = {slot_word(0, 2), thr << 32};
  ScriptedEngine high;
  high.script = {slot_word(0, 2), thr << 32 | 0xFFFFFFFFu};
  EXPECT_EQ(table.sample(low), 0u);
  EXPECT_EQ(table.sample(high), oracle.alias[0]);
  EXPECT_NE(oracle.alias[0], 0u);
}

}  // namespace
}  // namespace iba::rng
