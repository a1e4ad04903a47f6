// HeteroCapped — CAPPED over *non-uniform* bins: per-bin buffer
// capacities c_i and an arbitrary bin-selection distribution, the
// natural generalization toward the paper's reference [6] (Berenbrink et
// al., "Balls into Non-uniform Bins").
//
// Semantics per round are unchanged: pool balls sample bins (now from a
// weighted distribution via an alias table), each bin accepts the oldest
// requests up to its own capacity, and every non-empty bin deletes its
// front ball. With equal capacities and uniform weights this is exactly
// CAPPED(c, λ) (asserted by the test suite under shared semantics).
//
// bench_hetero studies the question the homogeneous theory leaves open:
// for a fixed total buffer budget Σc_i, does the *distribution* of
// capacities matter, and can capacity-proportional routing compensate?
#pragma once

#include <cstdint>
#include <vector>

#include "core/metrics.hpp"
#include "core/process.hpp"
#include "queueing/aged_pool.hpp"
#include "rng/alias.hpp"

namespace iba::core {

struct HeteroCappedConfig {
  std::vector<std::uint32_t> capacities;  ///< c_i per bin (all ≥ 1)
  std::vector<double> weights;  ///< bin-selection weights; empty = uniform
  std::uint64_t lambda_n = 0;   ///< new balls per round

  [[nodiscard]] std::uint32_t n() const noexcept {
    return static_cast<std::uint32_t>(capacities.size());
  }
  [[nodiscard]] std::uint64_t total_capacity() const noexcept;

  void validate() const;

  /// Homogeneous instance (for cross-checks against Capped).
  static HeteroCappedConfig uniform(std::uint32_t n, std::uint32_t c,
                                    std::uint64_t lambda_n);
};

/// CAPPED over heterogeneous bins. Deterministic given (config, engine).
class HeteroCapped {
 public:
  HeteroCapped(const HeteroCappedConfig& config, Engine engine);

  RoundMetrics step();

  [[nodiscard]] std::uint32_t n() const noexcept {
    return static_cast<std::uint32_t>(capacities_.size());
  }
  [[nodiscard]] std::uint64_t round() const noexcept { return round_; }
  [[nodiscard]] std::uint64_t pool_size() const noexcept {
    return pool_.total();
  }
  [[nodiscard]] std::uint64_t load(std::uint32_t i) const noexcept {
    return queues_[i].size();
  }
  [[nodiscard]] std::uint32_t capacity(std::uint32_t i) const noexcept {
    return capacities_[i];
  }
  [[nodiscard]] std::uint64_t total_load() const noexcept {
    return total_load_;
  }
  [[nodiscard]] const WaitRecorder& waits() const noexcept { return waits_; }
  void reset_wait_stats() noexcept { waits_.reset(); }

  [[nodiscard]] std::uint64_t generated_total() const noexcept {
    return generated_total_;
  }
  [[nodiscard]] std::uint64_t deleted_total() const noexcept {
    return deleted_total_;
  }

 private:
  struct Queue {
    std::vector<std::uint64_t> labels;
    std::size_t head = 0;

    [[nodiscard]] std::size_t size() const noexcept {
      return labels.size() - head;
    }
  };

  std::vector<std::uint32_t> capacities_;
  std::uint64_t lambda_n_;
  rng::AliasTable selector_;
  bool uniform_selection_;
  Engine engine_;
  std::uint64_t round_ = 0;
  queueing::AgedPool pool_;
  queueing::AgedPool survivors_;
  std::vector<Queue> queues_;
  std::vector<std::uint32_t> choices_;  // per-round scratch
  std::uint64_t total_load_ = 0;
  WaitRecorder waits_;
  std::uint64_t generated_total_ = 0;
  std::uint64_t deleted_total_ = 0;
};

static_assert(AllocationProcess<HeteroCapped>);

}  // namespace iba::core
