#include "core/adler_fifo.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "rng/bounded.hpp"

namespace iba::core {

void AdlerFifoConfig::validate() const {
  IBA_EXPECT(n > 0, "AdlerFifoConfig: n must be positive");
  IBA_EXPECT(d >= 1, "AdlerFifoConfig: d must be at least 1");
}

AdlerFifo::AdlerFifo(const AdlerFifoConfig& config, Engine engine)
    : config_(config), engine_(engine), queues_(config.n) {
  config_.validate();
}

std::uint32_t AdlerFifo::allocate_ball() {
  if (!free_ids_.empty()) {
    const std::uint32_t id = free_ids_.back();
    free_ids_.pop_back();
    balls_[id] = BallRecord{};
    return id;
  }
  balls_.emplace_back();
  return static_cast<std::uint32_t>(balls_.size() - 1);
}

void AdlerFifo::release_copy(std::uint32_t id) {
  BallRecord& ball = balls_[id];
  IBA_ASSERT(ball.copies_left > 0);
  if (--ball.copies_left == 0) free_ids_.push_back(id);
}

RoundMetrics AdlerFifo::step() {
  ++round_;
  RoundMetrics m;
  m.round = round_;
  m.generated = config_.m;
  m.thrown = config_.m;

  // Arrivals: every new ball enqueues d copies in random bins.
  for (std::uint64_t k = 0; k < config_.m; ++k) {
    const std::uint32_t id = allocate_ball();
    balls_[id].birth = round_;
    balls_[id].copies_left = config_.d;
    for (std::uint32_t copy = 0; copy < config_.d; ++copy) {
      queues_[rng::bounded32(engine_, config_.n)].items.push_back(id);
    }
  }
  in_flight_ += config_.m;
  m.accepted = config_.m;

  // Service: each bin pops tombstoned (already served) copies for free,
  // then serves its first live ball, if any.
  RoundWaits round_waits;
  for (Queue& queue : queues_) {
    while (queue.head < queue.items.size() &&
           balls_[queue.items[queue.head]].served) {
      release_copy(queue.items[queue.head]);
      ++queue.head;
    }
    if (queue.head >= queue.items.size()) {
      if (queue.head > 0) {  // fully drained: reclaim storage
        queue.items.clear();
        queue.head = 0;
      }
      continue;
    }
    const std::uint32_t id = queue.items[queue.head];
    ++queue.head;
    BallRecord& ball = balls_[id];
    ball.served = true;
    round_waits.add(round_ - ball.birth);
    release_copy(id);
    --in_flight_;
    if (queue.head >= 64 && queue.head * 2 >= queue.items.size()) {
      queue.items.erase(queue.items.begin(),
                        queue.items.begin() +
                            static_cast<std::ptrdiff_t>(queue.head));
      queue.head = 0;
    }
  }
  waits_.merge(round_waits);
  round_waits.report(m);

  m.pool_size = 0;
  m.total_load = in_flight_;
  std::uint64_t max_pending = 0;
  std::uint32_t empty = 0;
  for (const Queue& queue : queues_) {
    const std::uint64_t pending = queue.items.size() - queue.head;
    max_pending = std::max(max_pending, pending);
    if (pending == 0) ++empty;
  }
  m.max_load = max_pending;
  m.empty_bins = empty;
  return m;
}

}  // namespace iba::core
