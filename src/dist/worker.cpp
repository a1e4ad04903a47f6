#include "dist/worker.hpp"

#include <cstdio>
#include <stdexcept>
#include <string>

#include "common/assert.hpp"
#include "core/metrics.hpp"
#include "dist/checkpoint.hpp"

namespace iba::dist {

namespace {

[[noreturn]] void fail(const std::string& message) {
  throw std::runtime_error("dist worker: " + message);
}

}  // namespace

bool Worker::run() {
  // A coordinator that dies mid-conversation surfaces as PeerClosed on
  // either direction (reading the next command, or writing a response
  // it will never collect). Both are the routine "hung up" outcome of a
  // kill-and-resume drill, not transport corruption.
  try {
    send_hello(fd_, HelloMsg{kProtocolVersion, index_});
    std::uint32_t type = 0;
    std::vector<std::uint8_t> payload;
    while (net::read_frame(fd_, type, payload)) {
      net::WireReader in(payload);
      switch (type) {
        case kMsgInit:
          handle_init(decode_init(in));
          break;
        case kMsgRound:
          handle_round(decode_round(in));
          break;
        case kMsgCheckpoint:
          handle_checkpoint(decode_checkpoint(in));
          break;
        case kMsgShutdown:
          return true;
        default:
          fail("unexpected message type " + std::to_string(type));
      }
    }
  } catch (const net::PeerClosed&) {
    return false;
  }
  return false;  // coordinator hung up
}

void Worker::handle_init(const InitMsg& msg) {
  if (msg.bin_count == 0 || msg.bin_lo + msg.bin_count > msg.n) {
    fail("init: bin range [" + std::to_string(msg.bin_lo) + ", +" +
         std::to_string(msg.bin_count) + ") does not fit n = " +
         std::to_string(msg.n));
  }
  if (msg.capacity < 1 || msg.capacity > 0xFFFFu) {
    fail("init: capacity out of range");
  }
  n_ = msg.n;
  bin_lo_ = msg.bin_lo;
  bin_count_ = msg.bin_count;
  round_ = msg.round;

  std::uint32_t storage = msg.capacity;
  std::optional<ShardState> shard;
  if (!msg.resume_shard.empty()) {
    shard = load_shard(msg.resume_shard);
    if (shard->round != msg.round || shard->bin_lo != msg.bin_lo ||
        shard->bin_count != msg.bin_count) {
      fail("init: shard checkpoint " + msg.resume_shard +
           " does not match the assigned range/round");
    }
    // A checkpoint taken mid-shrink can hold queues longer than the
    // (already lowered) acceptance capacity; size the storage to fit —
    // the acceptance bound arrives per round and drains them naturally.
    if (shard->capacity > storage) storage = shard->capacity;
  }
  table_.emplace(static_cast<std::uint32_t>(bin_count_), storage);
  if (shard.has_value()) {
    for (std::uint32_t bin = 0; bin < bin_count_; ++bin) {
      for (const std::uint64_t label : shard->queues[bin]) {
        table_->push(bin, label);
      }
    }
  }
  send_init_ack(fd_, InitAckMsg{round_, table_->total_load()});
}

void Worker::handle_round(const RoundMsg& msg) {
  if (!table_.has_value()) fail("round before init");
  if (msg.round != round_ + 1) {
    fail("round " + std::to_string(msg.round) + " out of order (at " +
         std::to_string(round_) + ")");
  }
  if (msg.capacity < 1) fail("round: capacity must be positive");
  if (msg.capacity > table_->capacity()) {
    table_->grow_capacity(msg.capacity);
  }

  RoundResultMsg result;
  result.round = msg.round;
  result.rejected.resize(msg.labels.size());

  // Acceptance: the global oldest-first visit order restricted to this
  // range. Each bin accepts while it has room under this round's bound
  // (possibly below a draining bin's current load after a shrink — it
  // then accepts nothing). Acceptance is independent across bins, so
  // replaying only this range's throws reproduces the single-process
  // outcome for these bins exactly.
  for (std::size_t b = 0; b < msg.labels.size(); ++b) {
    const std::uint64_t label = msg.labels[b];
    for (const std::uint32_t bin : msg.bins[b]) {
      if (bin >= bin_count_) fail("round: bin index out of range");
      if (table_->load(bin) < msg.capacity) {
        table_->push(bin, label);
        ++result.accepted;
      } else {
        ++result.rejected[b];
      }
    }
  }

  // Deletion: every non-empty bin serves its FIFO front; the served
  // ball's wait is its age. Draws nothing — this is what lets deletion
  // run worker-side at all.
  core::RoundWaits waits;
  for (std::uint32_t bin = 0; bin < bin_count_; ++bin) {
    if (table_->load(bin) == 0) continue;
    waits.add(msg.round - table_->pop_front(bin));
  }

  result.deleted = waits.count();
  result.total_load = table_->total_load();
  result.max_load = table_->max_load();
  result.empty_bins = table_->empty_bins();
  result.wait_count = waits.count();
  result.wait_sum = waits.moments().sum();
  result.wait_sumsq_hi = waits.moments().sumsq_hi();
  result.wait_sumsq_lo = waits.moments().sumsq_lo();
  result.wait_max = waits.max();
  result.wait_histogram = waits.histogram().counts();

  round_ = msg.round;
  ++rounds_served_;
  send_round_result(fd_, result);
}

void Worker::handle_checkpoint(const CheckpointMsg& msg) {
  if (!table_.has_value()) fail("checkpoint before init");
  if (msg.round != round_) {
    fail("checkpoint round " + std::to_string(msg.round) +
         " does not match completed round " + std::to_string(round_));
  }
  ShardState shard;
  shard.round = round_;
  shard.bin_lo = bin_lo_;
  shard.bin_count = bin_count_;
  shard.capacity = table_->capacity();
  shard.queues.resize(bin_count_);
  for (std::uint32_t bin = 0; bin < bin_count_; ++bin) {
    const std::uint32_t load = table_->load(bin);
    auto& queue = shard.queues[bin];
    queue.reserve(load);
    for (std::uint32_t i = 0; i < load; ++i) {
      queue.push_back(table_->peek(bin, i));
    }
  }
  CheckpointAckMsg ack;
  ack.round = round_;
  ack.crc = save_shard(shard, msg.path);
  ack.balls = table_->total_load();
  send_checkpoint_ack(fd_, ack);
  // The collected generation predates the one the on-disk manifest
  // references, so deleting it is safe at every crash point.
  if (!msg.gc_path.empty()) std::remove(msg.gc_path.c_str());
}

}  // namespace iba::dist
