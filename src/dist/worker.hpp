// dist::Worker — one bin-range shard of the distributed engine.
//
// A worker owns bins [bin_lo, bin_lo + bin_count) of the global n and
// nothing else: no engine, no pool, no controller. Each round it
// replays acceptance over the coordinator-shipped throws (bucket-major,
// oldest-first — the global visit order restricted to its range), runs
// the paper's FIFO one-deletion-per-non-empty-bin pass, and reports
// exact integer deltas. Neither phase draws randomness, which is the
// whole reason the distributed trajectory can be byte-identical to the
// single-process one: the coordinator's engine stream never depends on
// worker scheduling or message timing.
//
// The same class serves both deployments: dist_run --role worker wraps
// it around a connected TCP socket; the differential tests run it on a
// thread over one end of a socketpair.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "dist/protocol.hpp"
#include "queueing/bin_table.hpp"

namespace iba::dist {

class Worker {
 public:
  /// `fd` must be connected to the coordinator; the Worker does not own
  /// it. `index` is this worker's bin-range slot (announced via
  /// kMsgHello so TCP workers can connect in any order).
  Worker(int fd, std::uint32_t index) : fd_(fd), index_(index) {}

  /// Sends the hello, then serves coordinator messages until a clean
  /// kMsgShutdown (returns true) or the coordinator hangs up (returns
  /// false — routine when a run is killed; a restarted coordinator
  /// spawns fresh workers). Throws net::NetError/FrameError on
  /// transport corruption and std::runtime_error on protocol misuse.
  bool run();

  [[nodiscard]] std::uint64_t rounds_served() const noexcept {
    return rounds_served_;
  }
  [[nodiscard]] std::uint64_t total_load() const noexcept {
    return table_.has_value() ? table_->total_load() : 0;
  }

 private:
  void handle_init(const InitMsg& msg);
  void handle_round(const RoundMsg& msg);
  void handle_checkpoint(const CheckpointMsg& msg);

  int fd_;
  std::uint32_t index_;
  std::uint64_t n_ = 0;
  std::uint64_t bin_lo_ = 0;
  std::uint64_t bin_count_ = 0;
  std::uint64_t round_ = 0;  ///< last completed round
  std::optional<queueing::BinTable> table_;
  std::uint64_t rounds_served_ = 0;
};

}  // namespace iba::dist
