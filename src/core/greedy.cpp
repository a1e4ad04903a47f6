#include "core/greedy.hpp"

#include "common/assert.hpp"
#include "rng/bounded.hpp"

namespace iba::core {

void BatchGreedyConfig::validate() const {
  IBA_EXPECT(n > 0, "BatchGreedyConfig: n must be positive");
  IBA_EXPECT(d >= 1, "BatchGreedyConfig: d must be at least 1");
  IBA_EXPECT(lambda_n <= n, "BatchGreedyConfig: lambda must be at most 1");
}

BatchGreedy::BatchGreedy(const BatchGreedyConfig& config, Engine engine)
    : config_(config), engine_(engine), bins_(config.n) {
  config_.validate();
  load_snapshot_.resize(config_.n);
}

RoundMetrics BatchGreedy::step() {
  ++round_;
  RoundMetrics m;
  m.round = round_;
  m.generated = config_.lambda_n;
  m.thrown = config_.lambda_n;

  // The batch measures loads as of the beginning of the round.
  for (std::uint32_t bin = 0; bin < config_.n; ++bin) {
    load_snapshot_[bin] = bins_.load(bin);
  }

  for (std::uint64_t ball = 0; ball < config_.lambda_n; ++ball) {
    std::uint32_t best = rng::bounded32(engine_, config_.n);
    // Ties among sampled bins are broken uniformly: sampling with
    // replacement and keeping the first minimum is equivalent because
    // the samples themselves are exchangeable.
    for (std::uint32_t choice = 1; choice < config_.d; ++choice) {
      const std::uint32_t candidate = rng::bounded32(engine_, config_.n);
      if (load_snapshot_[candidate] < load_snapshot_[best]) best = candidate;
    }
    bins_.push(best, round_);
    ++m.accepted;
  }

  RoundWaits round_waits;
  for (std::uint32_t bin = 0; bin < config_.n; ++bin) {
    if (bins_.load(bin) == 0) continue;
    round_waits.add(round_ - bins_.pop_front(bin));
  }
  waits_.merge(round_waits);
  round_waits.report(m);

  m.pool_size = 0;  // GREEDY[d] has no pool: every ball is queued at once
  m.total_load = bins_.total_load();
  m.max_load = bins_.max_load();
  m.empty_bins = bins_.empty_bins();
  return m;
}

}  // namespace iba::core
