#include "core/capped_greedy.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "rng/bounded.hpp"

namespace iba::core {

void CappedGreedyConfig::validate() const {
  IBA_EXPECT(n > 0, "CappedGreedyConfig: n must be positive");
  IBA_EXPECT(capacity > 0, "CappedGreedyConfig: capacity must be positive");
  IBA_EXPECT(capacity != CappedConfig::kInfiniteCapacity,
             "CappedGreedyConfig: use BatchGreedy for infinite capacity");
  IBA_EXPECT(d >= 1, "CappedGreedyConfig: d must be at least 1");
  IBA_EXPECT(lambda_n <= n, "CappedGreedyConfig: lambda must be at most 1");
}

CappedGreedy::CappedGreedy(const CappedGreedyConfig& config, Engine engine)
    : config_(config),
      engine_(engine),
      bins_(config.n, config.capacity) {
  config_.validate();
  load_snapshot_.resize(config_.n);
}

RoundMetrics CappedGreedy::step() {
  ++round_;
  pool_.add(round_, config_.lambda_n);
  generated_total_ += config_.lambda_n;

  RoundMetrics m;
  m.round = round_;
  m.generated = config_.lambda_n;
  m.thrown = pool_.total();

  // Balls pick the least-loaded of d sampled bins by the start-of-round
  // loads (the batch does not observe its own allocations).
  for (std::uint32_t bin = 0; bin < config_.n; ++bin) {
    load_snapshot_[bin] = static_cast<std::uint32_t>(bins_.load(bin));
  }

  // Oldest-first acceptance at the chosen bin, as in CAPPED.
  survivors_.clear();
  const std::uint32_t cap = config_.capacity;
  for (const auto& bucket : pool_.buckets()) {
    for (std::uint64_t k = 0; k < bucket.count; ++k) {
      std::uint32_t best = rng::bounded32(engine_, config_.n);
      for (std::uint32_t choice = 1; choice < config_.d; ++choice) {
        const std::uint32_t candidate = rng::bounded32(engine_, config_.n);
        if (load_snapshot_[candidate] < load_snapshot_[best]) {
          best = candidate;
        }
      }
      if (bins_.load(best) < cap) {
        bins_.push(best, bucket.label);
        ++m.accepted;
      } else {
        survivors_.add(bucket.label, 1);
      }
    }
  }
  pool_.swap(survivors_);

  RoundWaits round_waits;
  for (std::uint32_t bin = 0; bin < config_.n; ++bin) {
    if (bins_.load(bin) == 0) continue;
    round_waits.add(round_ - bins_.pop_front(bin));
  }
  waits_.merge(round_waits);
  round_waits.report(m);
  deleted_total_ += m.deleted;

  m.pool_size = pool_.total();
  m.total_load = bins_.total_load();
  m.max_load = bins_.max_load();
  m.empty_bins = bins_.empty_bins();
  return m;
}

}  // namespace iba::core
