#include "core/hetero_capped.hpp"

#include <algorithm>
#include <numeric>

#include "common/assert.hpp"
#include "rng/bounded.hpp"

namespace iba::core {

std::uint64_t HeteroCappedConfig::total_capacity() const noexcept {
  return std::accumulate(capacities.begin(), capacities.end(),
                         std::uint64_t{0});
}

void HeteroCappedConfig::validate() const {
  IBA_EXPECT(!capacities.empty(), "HeteroCappedConfig: needs bins");
  for (const std::uint32_t c : capacities) {
    IBA_EXPECT(c >= 1, "HeteroCappedConfig: every capacity must be >= 1");
  }
  IBA_EXPECT(weights.empty() || weights.size() == capacities.size(),
             "HeteroCappedConfig: weights must be empty or match bins");
  IBA_EXPECT(lambda_n <= capacities.size(),
             "HeteroCappedConfig: lambda must be at most 1");
}

HeteroCappedConfig HeteroCappedConfig::uniform(std::uint32_t n,
                                               std::uint32_t c,
                                               std::uint64_t lambda_n) {
  HeteroCappedConfig config;
  config.capacities.assign(n, c);
  config.lambda_n = lambda_n;
  return config;
}

namespace {

std::vector<double> effective_weights(const HeteroCappedConfig& config) {
  if (!config.weights.empty()) return config.weights;
  return std::vector<double>(config.capacities.size(), 1.0);
}

}  // namespace

HeteroCapped::HeteroCapped(const HeteroCappedConfig& config, Engine engine)
    : capacities_(config.capacities),
      lambda_n_(config.lambda_n),
      selector_(effective_weights(config)),
      uniform_selection_(config.weights.empty()),
      engine_(engine),
      queues_(config.capacities.size()) {
  config.validate();
}

RoundMetrics HeteroCapped::step() {
  ++round_;
  pool_.add(round_, lambda_n_);
  generated_total_ += lambda_n_;

  RoundMetrics m;
  m.round = round_;
  m.generated = lambda_n_;
  m.thrown = pool_.total();

  // The round's choices in one batched draw: nothing else draws inside
  // the accept loop, so the stream equals one draw per visited ball.
  const auto n = static_cast<std::uint32_t>(capacities_.size());
  choices_.resize(m.thrown);
  if (uniform_selection_) {
    rng::fill_bounded(engine_, choices_, n);
  } else {
    selector_.fill(engine_, choices_);
  }
  survivors_.clear();
  std::size_t idx = 0;
  for (const auto& bucket : pool_.buckets()) {
    for (std::uint64_t k = 0; k < bucket.count; ++k) {
      const std::uint32_t bin = choices_[idx++];
      Queue& queue = queues_[bin];
      if (queue.size() < capacities_[bin]) {
        queue.labels.push_back(bucket.label);
        ++total_load_;
        ++m.accepted;
      } else {
        survivors_.add(bucket.label, 1);
      }
    }
  }
  pool_.swap(survivors_);

  std::uint64_t max_load = 0;
  std::uint32_t empty = 0;
  RoundWaits round_waits;
  for (Queue& queue : queues_) {
    if (queue.size() > 0) {
      const std::uint64_t label = queue.labels[queue.head++];
      if (queue.head >= 16 && queue.head * 2 >= queue.labels.size()) {
        queue.labels.erase(queue.labels.begin(),
                           queue.labels.begin() +
                               static_cast<std::ptrdiff_t>(queue.head));
        queue.head = 0;
      }
      --total_load_;
      round_waits.add(round_ - label);
    }
    max_load = std::max<std::uint64_t>(max_load, queue.size());
    if (queue.size() == 0) ++empty;
  }
  waits_.merge(round_waits);
  round_waits.report(m);
  deleted_total_ += m.deleted;

  m.pool_size = pool_.total();
  m.total_load = total_load_;
  m.max_load = max_load;
  m.empty_bins = empty;
  return m;
}

}  // namespace iba::core
