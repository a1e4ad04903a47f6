#include "core/capped.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include <cstring>

#include "common/assert.hpp"
#include "rng/bounded.hpp"
#include "rng/distributions.hpp"
#include "telemetry/ball_trace.hpp"
#include "telemetry/log.hpp"

namespace iba::core {

namespace {

// Sharded delete-phase actions, pre-sampled in bin order.
constexpr std::uint8_t kActionNone = 0;
constexpr std::uint8_t kActionServe = 1;
constexpr std::uint8_t kActionCrash = 2;

// The bin-major kernel indexes candidates with uint32 offsets; rounds
// throwing more balls than that (never at supported n) use the scalar
// path, which is byte-identical anyway.
constexpr std::size_t kMaxKernelThrows = 0xFFFFFFFEu;

// Read+write prefetch hint; a no-op where the builtin is unavailable.
inline void prefetch_rw(const void* address) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(address, 1);
#else
  (void)address;
#endif
}

}  // namespace

CappedConfig CappedConfig::from_rate(std::uint32_t n, double lambda,
                                     std::uint32_t capacity) {
  IBA_EXPECT(n > 0, "CappedConfig: n must be positive");
  IBA_EXPECT(lambda >= 0.0 && lambda <= 1.0,
             "CappedConfig: lambda must lie in [0, 1]");
  const double exact = lambda * static_cast<double>(n);
  const double rounded = std::round(exact);
  IBA_EXPECT(std::abs(exact - rounded) < 1e-6,
             "CappedConfig: lambda * n must be integral");
  CappedConfig config;
  config.n = n;
  config.capacity = capacity;
  config.lambda_n = static_cast<std::uint64_t>(rounded);
  config.validate();
  return config;
}

void CappedConfig::validate() const {
  IBA_EXPECT(n > 0, "CappedConfig: n must be positive");
  IBA_EXPECT(capacity > 0, "CappedConfig: capacity must be positive");
  IBA_EXPECT(lambda_n <= n,
             "CappedConfig: lambda_n must not exceed n (lambda <= 1)");
  IBA_EXPECT(failure_probability >= 0.0 && failure_probability < 1.0,
             "CappedConfig: failure_probability must lie in [0, 1)");
  IBA_EXPECT(failure_mode != FailureMode::kCrashRequeue ||
                 capacity != kInfiniteCapacity,
             "CappedConfig: crash-requeue requires finite capacity");
  IBA_EXPECT(shards >= 1, "CappedConfig: shards must be at least 1");
  IBA_EXPECT(shards == 1 || kernel == RoundKernel::kBinMajor,
             "CappedConfig: sharding requires the bin-major kernel");
  IBA_EXPECT(backpressure == BackpressureMode::kNone || pool_limit > 0,
             "CappedConfig: backpressure requires a positive pool_limit");
  IBA_EXPECT(backpressure != BackpressureMode::kDeferRetry ||
                 backoff_rounds >= 1,
             "CappedConfig: defer-retry backoff must be at least 1 round");
  if (control.enabled()) {
    control.validate();
    IBA_EXPECT(capacity != kInfiniteCapacity,
               "CappedConfig: adaptive control requires finite capacity");
    IBA_EXPECT(capacity <= control.c_max,
               "CappedConfig: capacity must not exceed control.c_max");
    IBA_EXPECT(control.admission_target == 0 ||
                   backpressure != BackpressureMode::kNone,
               "CappedConfig: admission control requires a backpressure mode");
  }
}

Capped::Capped(const CappedConfig& config, Engine engine)
    : config_(config), engine_(engine) {
  config_.validate();
  if (config_.arena.enabled) {
    arena_ = std::make_unique<Arena>(config_.arena);
    choice_scratch_.set_arena(arena_.get());
    counts_.set_arena(arena_.get());
    starts_.set_arena(arena_.get());
    part16_.set_arena(arena_.get());
    cand_bucket_.set_arena(arena_.get());
    staged_.set_arena(arena_.get());
    staged_idx_.set_arena(arena_.get());
  }
  if (infinite()) {
    unbounded_.emplace(config_.n);
  } else {
    bounded_.emplace(config_.n, config_.capacity, arena_.get());
  }
  if (config_.shards > 1) {
    ensure_shard_pool();
  }
  if (arena_ != nullptr) {
    first_touch_state();
  }
  if (config_.control.enabled()) {
    controller_ = std::make_unique<control::Controller>(
        config_.control, config_.n, config_.pool_limit);
  }
}

Capped::Capped(const CappedSnapshot& snapshot)
    : Capped(snapshot.config, Engine(snapshot.engine_state)) {
  round_ = snapshot.round;
  generated_total_ = snapshot.generated_total;
  deleted_total_ = snapshot.deleted_total;
  shed_total_ = snapshot.shed_total;
  for (const auto& bucket : snapshot.pool) {
    pool_.add(bucket.label, bucket.count);
  }
  for (const auto& bucket : snapshot.deferred) {
    IBA_EXPECT(deferred_.empty() || deferred_.back().ready <= bucket.ready,
               "CappedSnapshot: deferred buckets must be ready-ordered");
    deferred_.push_back(bucket);
    deferred_total_ += bucket.count;
  }
  waits_.restore(
      stats::UintMoments::from_parts(snapshot.waits.count, snapshot.waits.sum,
                                     snapshot.waits.sumsq_hi,
                                     snapshot.waits.sumsq_lo),
      stats::Log2Histogram::from_counts(snapshot.waits.histogram,
                                        snapshot.waits.max));
  IBA_EXPECT(snapshot.bin_queues.size() == config_.n,
             "CappedSnapshot: bin_queues size must equal n");
  if (!infinite()) {
    // A snapshot taken mid-shrink can hold queues longer than the
    // (already lowered) acceptance capacity: those bins are still
    // draining. Widen the storage to the longest queue so the restore
    // fits; without a controller such a snapshot is corrupt.
    std::size_t longest = 0;
    for (const auto& queue : snapshot.bin_queues) {
      longest = std::max(longest, queue.size());
    }
    if (longest > bounded_->capacity()) {
      IBA_EXPECT(config_.control.enabled(),
                 "CappedSnapshot: bin queue exceeds capacity");
      IBA_EXPECT(longest <= config_.control.c_max,
                 "CappedSnapshot: bin queue exceeds control.c_max");
      bounded_->grow_capacity(static_cast<std::uint32_t>(longest));
    }
  }
  for (std::uint32_t bin = 0; bin < config_.n; ++bin) {
    for (const std::uint64_t label : snapshot.bin_queues[bin]) {
      if (infinite()) {
        unbounded_->push(bin, label);
      } else {
        bounded_->push(bin, label);
      }
    }
  }
  if (controller_ != nullptr) controller_->restore(snapshot.controller);
}

CappedSnapshot Capped::snapshot() const {
  CappedSnapshot snap;
  snap.config = config_;
  snap.round = round_;
  snap.generated_total = generated_total_;
  snap.deleted_total = deleted_total_;
  snap.shed_total = shed_total_;
  snap.engine_state = engine_.state();
  snap.pool.assign(pool_.buckets().begin(), pool_.buckets().end());
  snap.deferred.assign(deferred_.begin(), deferred_.end());
  snap.waits.count = waits_.moments().count();
  snap.waits.sum = waits_.moments().sum();
  snap.waits.sumsq_hi = waits_.moments().sumsq_hi();
  snap.waits.sumsq_lo = waits_.moments().sumsq_lo();
  snap.waits.max = waits_.histogram().max();
  snap.waits.histogram = waits_.histogram().counts();
  if (controller_ != nullptr) snap.controller = controller_->state();
  snap.bin_queues.resize(config_.n);
  for (std::uint32_t bin = 0; bin < config_.n; ++bin) {
    auto& queue = snap.bin_queues[bin];
    if (infinite()) {
      const auto view = unbounded_->items(bin);
      queue.assign(view.begin(), view.end());
    } else {
      const auto load = bounded_->load(bin);
      queue.reserve(load);
      for (std::uint32_t i = 0; i < load; ++i) {
        queue.push_back(bounded_->peek(bin, i));
      }
    }
  }
  return snap;
}

std::uint64_t Capped::sample_arrivals() {
  switch (config_.arrival) {
    case ArrivalModel::kDeterministic:
      return config_.lambda_n;
    case ArrivalModel::kBinomial:
      // n generators, each producing one ball w.p. λ (footnote 2).
      return rng::binomial(engine_, config_.n, config_.lambda());
    case ArrivalModel::kPoisson:
      return rng::poisson(engine_, static_cast<double>(config_.lambda_n));
  }
  return config_.lambda_n;
}

void Capped::begin_round_faults() {
  if (fault_plan_ == nullptr) {
    faults_round_ = false;
    return;
  }
  // The plan runs before the round's first allocation-engine draw and
  // must only consume its own stream; the load view reflects the state
  // at the end of the previous round.
  fault_plan_->begin_round(
      round_ + 1, config_.capacity,
      [this](std::uint32_t bin) { return load(bin); });
  faults_round_ = fault_plan_->active();
  fault_flags_ = faults_round_ ? fault_plan_->flags() : nullptr;
  fault_caps_ = faults_round_ ? fault_plan_->effective_capacity() : nullptr;
}

Capped::Admission Capped::admit_arrivals(std::uint64_t generated) {
  Admission adm;
  adm.generated = generated;
  adm.admitted = generated;
  if (config_.backpressure == BackpressureMode::kNone) return adm;

  const std::uint64_t next_round = round_ + 1;
  const std::uint64_t limit = config_.pool_limit;
  // The bound applies at admission only: survivors and requeued balls
  // already in flight are never dropped, so the pool can exceed the
  // limit transiently (e.g. after a mass crash); admission then stalls
  // until it drains back below.
  std::uint64_t free = pool_.total() < limit ? limit - pool_.total() : 0;

  // Retry pass: deferred balls whose backoff expired re-attempt
  // admission oldest-first, ahead of this round's fresh arrivals. The
  // eligible entries form one front group of the deque (every round
  // processes its group, and re-deferred remainders get a strictly
  // later ready round), so their labels are ascending and the merge
  // below preserves the pool's oldest-first order.
  if (!deferred_.empty() && deferred_.front().ready <= next_round) {
    readmit_scratch_.clear();
    while (!deferred_.empty() && deferred_.front().ready <= next_round) {
      DeferredBucket bucket = deferred_.front();
      deferred_.pop_front();
      const std::uint64_t take = bucket.count < free ? bucket.count : free;
      if (take > 0) {
        readmit_scratch_.push_back({bucket.label, take});
        free -= take;
        deferred_total_ -= take;
        bucket.count -= take;
      }
      if (bucket.count > 0) {
        bucket.ready = next_round + config_.backoff_rounds;
        deferred_.push_back(bucket);
      }
    }
    if (!readmit_scratch_.empty()) merge_sorted_into_pool(readmit_scratch_);
  }

  // Fresh arrivals take whatever room remains.
  adm.admitted = generated < free ? generated : free;
  const std::uint64_t excess = generated - adm.admitted;
  if (excess > 0) {
    if (config_.backpressure == BackpressureMode::kShed) {
      adm.shed = excess;
      shed_total_ += excess;
    } else {
      deferred_.push_back(
          {next_round, excess, next_round + config_.backoff_rounds});
      deferred_total_ += excess;
    }
  }
  return adm;
}

RoundMetrics Capped::step() {
  apply_control();
  begin_round_faults();
  const std::uint64_t generated = sample_arrivals();
  const Admission adm = admit_arrivals(generated);
  const std::uint64_t nu = pool_.total() + adm.admitted;
  {
    telemetry::ScopedPhaseTimer timer(timers_, telemetry::Phase::kThrow, nu);
    choice_scratch_.resize(nu);
    if (bin_sampler_ != nullptr) {
      bin_sampler_->fill(engine_, choice_scratch_);
    } else {
      rng::fill_bounded(engine_, choice_scratch_, config_.n);
    }
  }
  const RoundMetrics m = step_internal(adm, choice_scratch_);
  if (controller_ != nullptr) controller_->observe(m);
  if constexpr (IBA_TELEMETRY_ENABLED != 0) {
    if (timeseries_ != nullptr) record_time_series(m);
  }
  return m;
}

void Capped::record_time_series(const RoundMetrics& m) {
  telemetry::TimeSeriesSample s;
  s.round = m.round;
  s.pool_size = m.pool_size;
  s.total_load = m.total_load;
  s.max_load = m.max_load;
  s.generated = m.generated;
  s.deleted = m.deleted;
  s.shed = m.shed;
  s.deferred = m.deferred;
  s.requeued = m.requeued;
  s.faulted_bins = m.faulted_bins;
  s.capacity = config_.capacity;
  s.wait_p50 = waits_.quantile_upper_bound(0.50);
  s.wait_p95 = waits_.quantile_upper_bound(0.95);
  s.wait_p99 = waits_.quantile_upper_bound(0.99);
  if (controller_ != nullptr) {
    // λ̂ as ×10⁶ fixed point: the EWMA is a pure function of the
    // byte-identical metrics stream, so the rounding is too.
    s.lambda_hat_micro = static_cast<std::uint64_t>(
        controller_->estimator().lambda_ewma() * 1e6 + 0.5);
    s.control_changes = controller_->changes_total();
  }
  timeseries_->observe(s);
}

void Capped::set_capacity(std::uint32_t capacity) {
  IBA_EXPECT(!infinite(), "Capped: set_capacity requires finite capacity");
  IBA_EXPECT(capacity >= 1 && capacity <= 0xFFFFu,
             "Capped: capacity must lie in [1, 65535]");
  if (capacity > bounded_->capacity()) {
    bounded_->grow_capacity(capacity);
  }
  // Shrink touches only the acceptance bound: overfull bins drain via
  // the regular deletions (see the header comment).
  config_.capacity = capacity;
}

void Capped::apply_control() {
  if (controller_ == nullptr) return;
  const auto decision =
      controller_->decide(round_ + 1, config_.capacity, config_.pool_limit);
  if (!decision) return;
  if (decision->capacity != config_.capacity) {
    set_capacity(decision->capacity);
  }
  if (decision->pool_limit != 0 &&
      decision->pool_limit != config_.pool_limit) {
    set_pool_limit(decision->pool_limit);
  }
}

RoundMetrics Capped::step_with_choices(
    std::span<const std::uint32_t> choices) {
  IBA_EXPECT(config_.arrival == ArrivalModel::kDeterministic,
             "Capped: step_with_choices requires deterministic arrivals");
  IBA_EXPECT(fault_plan_ == nullptr &&
                 config_.backpressure == BackpressureMode::kNone,
             "Capped: step_with_choices is incompatible with fault plans "
             "and backpressure");
  IBA_EXPECT(controller_ == nullptr,
             "Capped: step_with_choices is incompatible with adaptive "
             "control (couplings assume a fixed capacity)");
  IBA_EXPECT(choices.size() == balls_to_throw(),
             "Capped: need exactly one bin choice per thrown ball");
  Admission adm;
  adm.generated = config_.lambda_n;
  adm.admitted = config_.lambda_n;
  return step_internal(adm, choices);
}

RoundMetrics Capped::step_internal(const Admission& admission,
                                   std::span<const std::uint32_t> choices) {
  ++round_;
  pool_.add(round_, admission.admitted);
  if constexpr (IBA_TELEMETRY_ENABLED != 0) {
    // Ball ids are the global generation sequence: this cohort occupies
    // ids generated_total_ .. generated_total_ + generated - 1. (With
    // backpressure the tracer is rejected at attach time, so admitted
    // always equals generated here when tracing.)
    if (tracer_ != nullptr) {
      tracer_->on_arrivals(round_, generated_total_, admission.generated);
    }
  }
  generated_total_ += admission.generated;
  return allocate_and_delete(admission, choices);
}

RoundMetrics Capped::allocate_and_delete(
    const Admission& admission, std::span<const std::uint32_t> choices) {
  RoundMetrics m;
  m.round = round_;
  m.generated = admission.generated;
  m.shed = admission.shed;
  m.thrown = pool_.total();
  if (faults_round_) m.faulted_bins = fault_plan_->faulted_bins();

  const bool tracing = [&] {
    if constexpr (IBA_TELEMETRY_ENABLED != 0) {
      return tracer_ != nullptr;
    } else {
      return false;
    }
  }();

  // Fast path: the fused bin-major kernel handles acceptance and deletion
  // in one chunked sweep (and computes the end-of-round load stats). The
  // kernel times itself internally, splitting the sweep between kAccept
  // and kDelete so phase attribution matches the unfused kernels.
  RoundWaits waits;
  bool load_stats_done = false;
  bool fused = false;
  if (config_.kernel == RoundKernel::kBinMajor && config_.shards == 1 &&
      !tracing && !infinite() && choices.size() <= kMaxKernelThrows) {
    fused = round_fused(choices, m, waits);
  }
  if (fused) {
    load_stats_done = true;
  } else {
    // Allocation. Pool buckets are considered in preference order (the
    // paper's oldest-first, or the ablation's inversion); each bin
    // accepts while it has room, which realizes "accept the preferred
    // min{c−ℓ, ν} requests" exactly (see the header comment). The scalar
    // path and the bin-major kernel compute the same outcome set —
    // acceptance is independent across bins — with different
    // memory-access order.
    {
      telemetry::ScopedPhaseTimer accept_timer(timers_,
                                               telemetry::Phase::kAccept,
                                               m.thrown);
      if (config_.kernel == RoundKernel::kBinMajor &&
          choices.size() <= kMaxKernelThrows) {
        accept_bin_major(choices, m);
      } else {
        accept_scalar(choices, m);
      }
      pool_.swap(survivors_);
    }

    // Deletion: every non-empty, non-failed bin serves one ball. The
    // unsharded bin-major pass also computes the end-of-round load stats
    // while the bin arrays are hot, saving the separate scans below.
    telemetry::ScopedPhaseTimer delete_timer(timers_,
                                             telemetry::Phase::kDelete);
    if (config_.kernel == RoundKernel::kBinMajor && config_.shards > 1) {
      delete_sharded(m, waits);
    } else if (config_.kernel == RoundKernel::kBinMajor) {
      load_stats_done = delete_bin_major(m, waits);
    } else {
      delete_scalar(m, waits);
    }
    delete_timer.set_balls(waits.count());
    delete_timer.stop();
  }
  waits_.merge(waits);
  waits.report(m);
  deleted_total_ += m.deleted;
  if (!requeue_.empty()) merge_requeued_into_pool();
  if constexpr (IBA_TELEMETRY_ENABLED != 0) {
    if (tracer_ != nullptr) tracer_->on_round_end(round_);
  }

  m.pool_size = pool_.total();
  m.deferred = deferred_total_;
  m.oldest_pool_age = pool_.oldest_age(round_);
  if (!load_stats_done) {
    if (infinite()) {
      m.total_load = unbounded_->total_load();
      m.max_load = unbounded_->max_load();
      m.empty_bins = unbounded_->empty_bins();
    } else {
      m.total_load = bounded_->total_load();
      m.max_load = bounded_->max_load();
      m.empty_bins = bounded_->empty_bins();
    }
  }
  return m;
}

// ---------------------------------------------------------------------------
// Scalar (ball-at-a-time) round path — kept as the differential-testing
// reference for the bin-major kernel.
// ---------------------------------------------------------------------------

void Capped::accept_scalar(std::span<const std::uint32_t> choices,
                           RoundMetrics& m) {
  survivors_.clear();
  const auto trace_throw = [this](std::uint64_t label, std::uint32_t bin,
                                  std::uint64_t load, bool accepted) {
    if constexpr (IBA_TELEMETRY_ENABLED != 0) {
      if (tracer_ != nullptr) tracer_->on_throw(label, bin, load, accepted);
    } else {
      (void)this;
      (void)label;
      (void)bin;
      (void)load;
      (void)accepted;
    }
  };
  std::size_t idx = 0;
  if (infinite()) {
    for (const auto& bucket : pool_.buckets()) {
      for (std::uint64_t k = 0; k < bucket.count; ++k) {
        const std::uint32_t bin = choices[idx++];
        if constexpr (IBA_TELEMETRY_ENABLED != 0) {
          if (tracer_ != nullptr) {
            tracer_->on_throw(bucket.label, bin, unbounded_->load(bin), true);
          }
        }
        unbounded_->push(bin, bucket.label);
      }
    }
    m.accepted = m.thrown;
  } else if (config_.acceptance == AcceptanceOrder::kOldestFirst) {
    const std::uint32_t cap = config_.capacity;
    for (const auto& bucket : pool_.buckets()) {
      for (std::uint64_t k = 0; k < bucket.count; ++k) {
        const std::uint32_t bin = choices[idx++];
        const std::uint64_t load = bounded_->load(bin);
        const std::uint32_t cap_b = faults_round_ ? fault_caps_[bin] : cap;
        if (load < cap_b) {
          bounded_->push(bin, bucket.label);
          ++m.accepted;
          trace_throw(bucket.label, bin, load, true);
        } else {
          survivors_.add(bucket.label, 1);
          trace_throw(bucket.label, bin, load, false);
        }
      }
    }
  } else {
    // Youngest-first ablation: buckets visited in reverse. Survivors are
    // seen youngest-first, so they are staged and re-added oldest-first
    // to keep the pool's label order intact.
    const std::uint32_t cap = config_.capacity;
    const auto& buckets = pool_.buckets();
    reverse_survivor_scratch_.clear();
    for (auto it = buckets.rbegin(); it != buckets.rend(); ++it) {
      std::uint64_t rejected = 0;
      for (std::uint64_t k = 0; k < it->count; ++k) {
        const std::uint32_t bin = choices[idx++];
        const std::uint64_t load = bounded_->load(bin);
        const std::uint32_t cap_b = faults_round_ ? fault_caps_[bin] : cap;
        if (load < cap_b) {
          bounded_->push(bin, it->label);
          ++m.accepted;
          trace_throw(it->label, bin, load, true);
        } else {
          ++rejected;
          trace_throw(it->label, bin, load, false);
        }
      }
      if (rejected > 0) {
        reverse_survivor_scratch_.push_back({it->label, rejected});
      }
    }
    for (auto it = reverse_survivor_scratch_.rbegin();
         it != reverse_survivor_scratch_.rend(); ++it) {
      survivors_.add(it->label, it->count);
    }
  }
  IBA_ASSERT(idx == choices.size());
}

void Capped::delete_scalar(RoundMetrics& m, RoundWaits& waits) {
  const bool failures = config_.failure_probability > 0.0;
  for (std::uint32_t bin = 0; bin < config_.n; ++bin) {
    const std::uint64_t load =
        infinite() ? unbounded_->load(bin) : bounded_->load(bin);
    if (load == 0) continue;
    // Injected faults are consulted before the stochastic failure coin:
    // a faulted bin draws no coin, in every kernel, so the engine's
    // draw sequence stays identical across kernels and shard counts.
    if (faults_round_ &&
        (fault_flags_[bin] & FaultFlags::kNoServe) != 0) {
      if ((fault_flags_[bin] & FaultFlags::kDrain) != 0) {
        // Crash with state loss: the buffer returns to the pool with
        // labels (ages) preserved, exactly like kCrashRequeue.
        while (bounded_->load(bin) > 0) {
          const std::uint64_t crashed = bounded_->pop_front(bin);
          if constexpr (IBA_TELEMETRY_ENABLED != 0) {
            if (tracer_ != nullptr) tracer_->on_requeue(bin, crashed);
          }
          ++requeue_[crashed];
          ++m.requeued;
        }
      }
      continue;  // down / straggling: no service this round
    }
    if (failures &&
        rng::uniform01(engine_) < config_.failure_probability) {
      if (config_.failure_mode == FailureMode::kCrashRequeue) {
        // The bin crashes: its buffered balls return to the pool with
        // their original labels (ages keep accruing).
        while (bounded_->load(bin) > 0) {
          const std::uint64_t crashed = bounded_->pop_front(bin);
          if constexpr (IBA_TELEMETRY_ENABLED != 0) {
            if (tracer_ != nullptr) tracer_->on_requeue(bin, crashed);
          }
          ++requeue_[crashed];
          ++m.requeued;
        }
      }
      continue;  // no service from this bin this round
    }
    delete_from_bin(bin, waits);
  }
}

// ---------------------------------------------------------------------------
// Bin-major round kernel: counting-sort throws by destination bin with a
// stable prefix-sum scatter, then accept in one cache-linear pass over
// bins. Stability keeps each bin's candidate list in the scalar path's
// visit order, and acceptance is independent across bins, so each bin
// taking the first min{c−ℓ, ν_bin} candidates reproduces the scalar
// outcome exactly — queues, survivors, metrics and traces are
// byte-identical. With shards > 1 the per-bin work runs on contiguous bin
// ranges over a thread pool; all randomness stays on the master engine.
// ---------------------------------------------------------------------------

// Flattens pool buckets in acceptance-visit order: bucket_ends_[b] is
// one past the last throw index of bucket b, so a monotone cursor maps
// throw index → bucket during the scatter scans. The infinite-capacity
// scalar branch visits buckets forward regardless of the acceptance
// order (everything is accepted); mirror that.
void Capped::flatten_pool_buckets(std::uint64_t expected_total) {
  const bool forward =
      infinite() || config_.acceptance == AcceptanceOrder::kOldestFirst;
  const auto& buckets = pool_.buckets();
  bucket_labels_.clear();
  bucket_ends_.clear();
  std::uint64_t cum = 0;
  if (forward) {
    for (const auto& bucket : buckets) {
      bucket_labels_.push_back(bucket.label);
      cum += bucket.count;
      bucket_ends_.push_back(cum);
    }
  } else {
    for (auto it = buckets.rbegin(); it != buckets.rend(); ++it) {
      bucket_labels_.push_back(it->label);
      cum += it->count;
      bucket_ends_.push_back(cum);
    }
  }
  IBA_ASSERT(cum == expected_total);
  (void)expected_total;
}

void Capped::accept_bin_major(std::span<const std::uint32_t> choices,
                              RoundMetrics& m) {
  const std::uint32_t n = config_.n;
  const std::size_t nu = choices.size();
  const std::uint32_t shards = config_.shards;
  const bool forward =
      infinite() || config_.acceptance == AcceptanceOrder::kOldestFirst;

  flatten_pool_buckets(nu);
  const std::size_t n_buckets = bucket_labels_.size();

  const bool tracing = [&] {
    if constexpr (IBA_TELEMETRY_ENABLED != 0) {
      return tracer_ != nullptr;
    } else {
      return false;
    }
  }();

  counts_.resize(n);
  starts_.resize(static_cast<std::size_t>(n) + 1);

  if (tracing) {
    // Loads before any acceptance, for replaying per-throw trace events.
    init_load_.resize(n);
    for (std::uint32_t bin = 0; bin < n; ++bin) {
      init_load_[bin] = infinite() ? unbounded_->load(bin)
                                   : bounded_->load(bin);
    }
    rank_scratch_.resize(nu);
  } else {
    rank_scratch_.clear();
  }

  cand_bucket_.resize(nu);
  rejected_.assign(static_cast<std::size_t>(shards) * n_buckets, 0);
  shard_accepted_.assign(shards, 0);
  shard_load_delta_.assign(shards, 0);
  if (shards == 1) {
    // Serial counting sort: count, exclusive prefix (counts_ becomes the
    // scatter cursor array), then the fused scatter + accept pass.
    std::fill(counts_.begin(), counts_.end(), 0u);
    for (std::size_t i = 0; i < nu; ++i) ++counts_[choices[i]];
    starts_[0] = 0;
    for (std::uint32_t bin = 0; bin < n; ++bin) {
      starts_[bin + 1] = starts_[bin] + counts_[bin];
      counts_[bin] = starts_[bin];
    }
    scatter_and_accept_range(choices, 0, 0, n);
  } else {
    // Parallel partition (every shard scans only its slice of the
    // throws), then per-range acceptance over the identical arrays.
    partition_choices_parallel(choices, tracing);
    run_sharded([&](std::size_t shard, std::size_t lo, std::size_t hi) {
      accept_range(shard, static_cast<std::uint32_t>(lo),
                   static_cast<std::uint32_t>(hi));
    });
  }

  // Commit shard totals sequentially.
  std::int64_t load_delta = 0;
  std::uint64_t accepted = 0;
  for (std::uint32_t s = 0; s < shards; ++s) {
    load_delta += shard_load_delta_[s];
    accepted += shard_accepted_[s];
  }
  if (infinite()) {
    unbounded_->adjust_total_load(load_delta);
  } else {
    bounded_->adjust_total_load(load_delta);
  }
  m.accepted = accepted;

  // Survivors: per-bucket rejection counts, merged across shards and
  // re-added oldest-first (AgedPool's label-order invariant).
  survivors_.clear();
  for (std::size_t i = 0; i < n_buckets; ++i) {
    const std::size_t b = forward ? i : n_buckets - 1 - i;
    std::uint64_t rejected = 0;
    for (std::uint32_t s = 0; s < shards; ++s) {
      rejected += rejected_[static_cast<std::size_t>(s) * n_buckets + b];
    }
    survivors_.add(bucket_labels_[b], rejected);
  }

  if (tracing) emit_throw_traces(choices);
}

void Capped::scatter_and_accept_range(std::span<const std::uint32_t> choices,
                                      std::size_t shard,
                                      std::uint32_t bin_begin,
                                      std::uint32_t bin_end) {
  const std::size_t nu = choices.size();
  const bool tracing = !rank_scratch_.empty();

  // Stable scatter of the candidates targeting [bin_begin, bin_end):
  // scanning throws in visit order and appending at each bin's cursor
  // preserves, per bin, exactly the scalar path's candidate order.
  std::size_t bucket = 0;
  for (std::size_t idx = 0; idx < nu; ++idx) {
    while (idx >= bucket_ends_[bucket]) ++bucket;
    const std::uint32_t bin = choices[idx];
    if (bin < bin_begin || bin >= bin_end) continue;
    const std::uint32_t pos = counts_[bin]++;
    cand_bucket_[pos] = static_cast<std::uint32_t>(bucket);
    if (tracing) rank_scratch_[idx] = pos - starts_[bin];
  }

  accept_range(shard, bin_begin, bin_end);
}

void Capped::accept_range(std::size_t shard, std::uint32_t bin_begin,
                          std::uint32_t bin_end) {
  // Cache-linear acceptance: each bin takes the first min{c−ℓ, ν_bin}
  // candidates of its segment; the rest count as per-bucket rejections.
  std::uint64_t accepted = 0;
  std::uint64_t* rejected = rejected_.data() + shard * bucket_labels_.size();
  if (infinite()) {
    for (std::uint32_t bin = bin_begin; bin < bin_end; ++bin) {
      const std::uint32_t seg_begin = starts_[bin];
      const std::uint32_t seg_end = starts_[bin + 1];
      if (seg_begin == seg_end) continue;
      unbounded_->push_bulk(bin, seg_end - seg_begin, [&](std::uint64_t k) {
        return bucket_labels_[cand_bucket_[seg_begin + k]];
      });
      accepted += seg_end - seg_begin;
    }
  } else {
    const std::uint32_t cap = config_.capacity;
    const std::uint32_t* packed = bounded_->packed();
    for (std::uint32_t bin = bin_begin; bin < bin_end; ++bin) {
      const std::uint32_t seg_begin = starts_[bin];
      const std::uint32_t seg_end = starts_[bin + 1];
      if (seg_begin == seg_end) continue;
      const std::uint32_t count = seg_end - seg_begin;
      const std::uint32_t size = packed[bin] & queueing::BinTable::kSizeMask;
      // A degraded bin's effective capacity can sit below its current
      // load (balls accepted before the degradation stay put), so the
      // subtraction must saturate.
      const std::uint32_t cap_b = faults_round_ ? fault_caps_[bin] : cap;
      const std::uint32_t free = size < cap_b ? cap_b - size : 0;
      const std::uint32_t take = count < free ? count : free;
      if (take > 0) {
        bounded_->push_bulk(bin, take, [&](std::uint32_t k) {
          return bucket_labels_[cand_bucket_[seg_begin + k]];
        });
      }
      for (std::uint32_t k = take; k < count; ++k) {
        ++rejected[cand_bucket_[seg_begin + k]];
      }
      accepted += take;
    }
  }
  shard_accepted_[shard] = accepted;
  shard_load_delta_[shard] = static_cast<std::int64_t>(accepted);
}

// Parallel counting sort across shards, replacing the old scheme where
// every shard re-scanned all ν throws twice (count + scatter) to pick
// out its own bins — serial work in disguise. Here each shard scans only
// its 1/S slice of the throws:
//
//   1. count its slice's throws per destination bin *range* (S² counters
//      total — micro);
//   2. barrier + serial S² prefix over those counters: every (slice,
//      range) pair gets a disjoint cursor into a staging array laid out
//      range-major, slices in order within a range;
//   3. scatter its slice into the staging array as (bin << 32 | bucket)
//      records. Within a range's staging segment, records are ordered by
//      (slice, throw index) = global throw order — the scatter is stable;
//   4. barrier; then each shard owns its range's contiguous staging
//      segment and runs a private counting sort over it into the global
//      counts_/starts_/cand_bucket_ arrays, offset by the segment start.
//
// The arrays produced are byte-identical to the serial partition (proof:
// starts_[bin] = #throws to lower bins globally, since ranges are bin-
// ordered and segments are throw-ordered), so the acceptance pass — and
// every downstream byte — cannot tell which partition built them.
void Capped::partition_choices_parallel(
    std::span<const std::uint32_t> choices, bool tracing) {
  const std::uint32_t n = config_.n;
  const std::uint32_t shards = config_.shards;
  const std::size_t nu = choices.size();
  const std::size_t s_sq = static_cast<std::size_t>(shards) * shards;

  // Inverse of parallel_for_ranges' partition: bin → its range index.
  // The first `rem` ranges have base+1 bins, the rest have base (when
  // shards > n, base is 0 and every existing bin sits alone in range
  // `bin`, dividing by base+1 — never by zero).
  const std::size_t base = static_cast<std::size_t>(n) / shards;
  const std::size_t rem = static_cast<std::size_t>(n) % shards;
  const std::size_t wide_end = rem * (base + 1);
  const auto range_of = [base, rem, wide_end](std::uint32_t bin) noexcept {
    return bin < wide_end
               ? static_cast<std::size_t>(bin) / (base + 1)
               : rem + (static_cast<std::size_t>(bin) - wide_end) / base;
  };

  // Phase 1: per-(slice, range) counts.
  range_count_.assign(s_sq, 0);
  run_sharded_items(nu, [&](std::size_t slice, std::size_t lo,
                            std::size_t hi) {
    std::uint64_t* slice_counts = range_count_.data() + slice * shards;
    for (std::size_t i = lo; i < hi; ++i) {
      ++slice_counts[range_of(choices[i])];
    }
  });

  // Phase 2: serial S² prefix — staging cursors and segment bounds.
  range_cursor_.resize(s_sq);
  range_base_.assign(static_cast<std::size_t>(shards) + 1, 0);
  std::uint64_t acc = 0;
  for (std::uint32_t r = 0; r < shards; ++r) {
    range_base_[r] = acc;
    for (std::uint32_t s = 0; s < shards; ++s) {
      range_cursor_[static_cast<std::size_t>(s) * shards + r] = acc;
      acc += range_count_[static_cast<std::size_t>(s) * shards + r];
    }
  }
  range_base_[shards] = acc;
  IBA_ASSERT(acc == nu);

  // Phase 3: stage each slice's throws per destination range.
  staged_.resize(nu);
  if (tracing) staged_idx_.resize(nu);
  run_sharded_items(nu, [&](std::size_t slice, std::size_t lo,
                            std::size_t hi) {
    std::uint64_t* cursor = range_cursor_.data() + slice * shards;
    // Bucket of the slice's first throw; then a monotone cursor, exactly
    // the serial scan's bucket walk.
    std::size_t bucket = static_cast<std::size_t>(
        std::upper_bound(bucket_ends_.begin(), bucket_ends_.end(), lo) -
        bucket_ends_.begin());
    for (std::size_t idx = lo; idx < hi; ++idx) {
      while (idx >= bucket_ends_[bucket]) ++bucket;
      const std::uint32_t bin = choices[idx];
      const std::uint64_t pos = cursor[range_of(bin)]++;
      staged_[pos] = (static_cast<std::uint64_t>(bin) << 32) |
                     static_cast<std::uint64_t>(bucket);
      if (tracing) staged_idx_[pos] = static_cast<std::uint32_t>(idx);
    }
  });

  // Phase 4: per-range private counting sort into the global arrays.
  run_sharded([&](std::size_t r, std::size_t lo, std::size_t hi) {
    std::uint32_t* const counts = counts_.data();
    std::uint32_t* const starts = starts_.data();
    std::fill(counts + lo, counts + hi, 0u);
    const std::uint64_t seg_lo = range_base_[r];
    const std::uint64_t seg_hi = range_base_[r + 1];
    for (std::uint64_t p = seg_lo; p < seg_hi; ++p) {
      ++counts[staged_[p] >> 32];
    }
    std::uint32_t running = static_cast<std::uint32_t>(seg_lo);
    for (std::size_t bin = lo; bin < hi; ++bin) {
      starts[bin] = running;
      running += counts[bin];
      counts[bin] = starts[bin];
    }
    for (std::uint64_t p = seg_lo; p < seg_hi; ++p) {
      const std::uint64_t record = staged_[p];
      const std::uint32_t bin = static_cast<std::uint32_t>(record >> 32);
      const std::uint32_t pos = counts[bin]++;
      cand_bucket_[pos] = static_cast<std::uint32_t>(record);
      if (tracing) rank_scratch_[staged_idx_[p]] = pos - starts[bin];
    }
  });
  starts_[n] = static_cast<std::uint32_t>(nu);
}

// Fused round kernel for the common configuration: finite capacity, one
// shard, no ball tracer. A flat counting sort over n = 10^6 bins
// random-accesses multi-megabyte cursor arrays and loses to the scalar
// loop on cache misses, so the kernel works in two cache-resident levels
// instead:
//
//   Pass A partitions throws into contiguous 4096-bin chunks. The scan
//   runs bucket-by-bucket (pool buckets are contiguous index ranges in
//   visit order), appending each throw's 12-bit local bin offset to its
//   chunk's stream and closing every bucket with one sentinel per chunk.
//   Each chunk stream is therefore in (bucket, throw-index) order — the
//   scalar visit order — and the bucket of an entry is implied by its
//   sentinel-delimited segment instead of being stored per throw.
//
//   Pass B walks chunks in ascending bin order. It first replays
//   acceptance: each candidate is accepted iff its bin has room at its
//   turn, exactly the scalar rule, with the chunk's bin state (sizes,
//   heads, labels) L1/L2-resident. It then runs the delete walk over the
//   same chunk's bins while they are still hot, drawing failure coins and
//   uniform positions in ascending bin order — the scalar engine
//   sequence — and adding waits to a round-local RoundWaits, merged
//   into the run's recorder once per round (its integer sums are
//   order-independent, so this equals the scalar path bit for bit).
//
// Outcome, RNG consumption and metrics are byte-identical to the scalar
// path; only the memory access order differs.
bool Capped::round_fused(std::span<const std::uint32_t> choices,
                         RoundMetrics& m, RoundWaits& waits) {
  const std::uint32_t n = config_.n;
  const std::size_t nu = choices.size();
  flatten_pool_buckets(nu);
  const std::size_t n_buckets = bucket_labels_.size();

  constexpr std::uint32_t kChunkBits = 13;  // 8192 bins per chunk
  const std::uint32_t chunk_width = 1u << kChunkBits;
  const std::uint32_t n_chunks = (n + chunk_width - 1) >> kChunkBits;
  constexpr std::uint16_t kSentinel = 0xFFFF;

  // One sentinel per (bucket, chunk): bail to the flat path if the pool's
  // age spread would make that overhead comparable to the throws
  // themselves (does not happen in steady state).
  const std::size_t sentinels =
      n_buckets * static_cast<std::size_t>(n_chunks);
  if (sentinels > nu / 2 + 1024) return false;

  // The sweep interleaves acceptance and deletion per chunk, so phase
  // attribution is done here: delete-walk time is accumulated per chunk
  // and subtracted from the sweep total, giving consistent kAccept /
  // kDelete booking across all kernels. No clock reads without a sink.
  const bool timing = timers_ != nullptr;
  std::uint64_t delete_ns = 0;
  std::chrono::steady_clock::time_point t_sweep;
  if (timing) t_sweep = std::chrono::steady_clock::now();

  // Pass A: per-chunk counts, prefix, then the bucket-major partition.
  chunk_counts_.assign(n_chunks, 0);
  for (std::size_t i = 0; i < nu; ++i) {
    ++chunk_counts_[choices[i] >> kChunkBits];
  }
  chunk_cursor_.resize(n_chunks);
  std::uint32_t run = 0;
  for (std::uint32_t c = 0; c < n_chunks; ++c) {
    chunk_cursor_[c] = run;
    run += chunk_counts_[c] + static_cast<std::uint32_t>(n_buckets);
  }
  // The kPrefetchDist slack keeps the replay loop's look-ahead read in
  // bounds; stale values there are harmless (the prefetched address is
  // masked into the chunk and never dereferenced architecturally).
  constexpr std::size_t kPrefetchDist = 24;
  part16_.resize(nu + sentinels + kPrefetchDist);
  {
    std::size_t idx = 0;
    for (std::size_t b = 0; b < n_buckets; ++b) {
      const std::uint64_t b_end = bucket_ends_[b];
      for (; idx < b_end; ++idx) {
        const std::uint32_t bin = choices[idx];
        part16_[chunk_cursor_[bin >> kChunkBits]++] =
            static_cast<std::uint16_t>(bin & (chunk_width - 1));
      }
      for (std::uint32_t c = 0; c < n_chunks; ++c) {
        part16_[chunk_cursor_[c]++] = kSentinel;
      }
    }
    IBA_ASSERT(idx == nu);
  }

  // Pass B: replay acceptance, then delete, chunk by chunk, on raw
  // views of the bin arrays. total_load_ is committed once at the end of
  // the sweep: the per-push/pop read-modify-write of one shared counter
  // is a store-to-load-forwarding chain that throttles both loops.
  rejected_.assign(n_buckets, 0);
  // Acceptance bounds by the logical capacity; slot arithmetic uses the
  // storage capacity, which can be wider after a controller shrink (the
  // storage never narrows — spare slots are simply unused).
  const std::uint32_t cap = config_.capacity;
  const std::uint32_t storage = bounded_->capacity();
  const bool faults = faults_round_;
  const bool failures = config_.failure_probability > 0.0;
  const double p_fail = config_.failure_probability;
  const bool crash = config_.failure_mode == FailureMode::kCrashRequeue;
  const DeletionDiscipline discipline = config_.deletion;
  std::uint32_t* const hs_arr = bounded_->packed_mut();
  std::uint64_t* const lb = bounded_->labels_mut();
  constexpr std::uint32_t kSizeMask = queueing::BinTable::kSizeMask;
  constexpr std::uint32_t kHeadShift = queueing::BinTable::kHeadShift;
  std::uint64_t accepted = 0;
  std::uint64_t max_load = 0;
  std::uint64_t empty_bins = 0;
  // Kept local, not written through `waits`, so the walk's adds stay
  // in registers instead of storing through a reference the label and
  // cursor stores may alias.
  RoundWaits walk_waits;
  std::uint64_t requeued_balls = 0;
  std::size_t p = 0;  // chunk streams are contiguous in part16_
  for (std::uint32_t c = 0; c < n_chunks; ++c) {
    const std::uint32_t bin_lo = c << kChunkBits;
    const std::uint32_t bin_hi = std::min(n, bin_lo + chunk_width);
    const std::size_t chunk_end = chunk_cursor_[c];

    // Acceptance replay in visit order. The replay touches bin state in
    // random order, but only within this chunk's cache-resident slice of
    // the cursor and label arrays, so the loads hit L1/L2 instead of
    // paying a full random-access miss per candidate.
    std::size_t b = 0;
    std::uint64_t label = n_buckets > 0 ? bucket_labels_[0] : 0;
    std::uint64_t rej = 0;
    for (; p < chunk_end; ++p) {
      const std::uint32_t v = part16_[p];
      // Software prefetch kPrefetchDist entries ahead: the replay's only
      // cold loads are the cursor word and label line of the upcoming
      // bins. Sentinels and the tail slack read garbage offsets — the
      // mask and clamp keep the hinted address inside the arrays, and a
      // useless hint costs nothing measurable.
      {
        const std::uint32_t ahead =
            part16_[p + kPrefetchDist] & (chunk_width - 1);
        const std::uint32_t pf_bin = std::min(n - 1, bin_lo + ahead);
        prefetch_rw(hs_arr + pf_bin);
        prefetch_rw(lb + static_cast<std::size_t>(pf_bin) * storage);
      }
      if (v == kSentinel) [[unlikely]] {
        // Bucket b has no further throws in this chunk.
        rejected_[b] += rej;
        rej = 0;
        ++b;
        if (b < n_buckets) label = bucket_labels_[b];
        continue;
      }
      const std::uint32_t bin = bin_lo + v;
      const std::uint32_t hs = hs_arr[bin];
      const std::uint32_t load = hs & kSizeMask;
      // Acceptance is bounded by the round's effective capacity; slot
      // arithmetic still uses the storage capacity `cap`.
      const std::uint32_t cap_b = faults ? fault_caps_[bin] : cap;
      if (load < cap_b) {
        std::uint32_t slot = (hs >> kHeadShift) + load;
        if (slot >= storage) slot -= storage;
        lb[static_cast<std::size_t>(bin) * storage + slot] = label;
        hs_arr[bin] = hs + 1;
        ++accepted;
      } else {
        ++rej;
      }
    }
    IBA_ASSERT(b == n_buckets && rej == 0);

    std::chrono::steady_clock::time_point t_del;
    if (timing) t_del = std::chrono::steady_clock::now();

    // Delete walk over this chunk's bins while their state is hot.
    // Waits go to the round-local accumulator: its integer sums are
    // order-independent, so mid-sweep adds match the scalar path's
    // bin-order stream bit for bit.
    if (!failures && !faults && discipline != DeletionDiscipline::kUniform) {
      // Failure-free FIFO/LIFO: no engine draws, lean raw-array loop.
      const bool lifo = discipline == DeletionDiscipline::kLifo;
      for (std::uint32_t bin = bin_lo; bin < bin_hi; ++bin) {
        const std::uint32_t hs = hs_arr[bin];
        const std::uint32_t load = hs & kSizeMask;
        if (load == 0) {
          ++empty_bins;
          continue;
        }
        const std::size_t base = static_cast<std::size_t>(bin) * storage;
        const std::uint32_t head = hs >> kHeadShift;
        std::uint64_t served;
        if (lifo) {
          std::uint32_t slot = head + load - 1;
          if (slot >= storage) slot -= storage;
          served = lb[base + slot];
          hs_arr[bin] = hs - 1;  // head unchanged, size - 1
        } else {
          served = lb[base + head];
          const std::uint32_t next = head + 1 == storage ? 0 : head + 1;
          hs_arr[bin] = (next << kHeadShift) | (load - 1);
        }
        walk_waits.add(round_ - served);
        empty_bins += static_cast<std::uint64_t>(load == 1);
        if (load - 1 > max_load) max_load = load - 1;
      }
    } else {
      // Failures and/or uniform service: per-bin coin/position draws in
      // bin order, exactly the scalar path's engine consumption.
      for (std::uint32_t bin = bin_lo; bin < bin_hi; ++bin) {
        const std::uint32_t load = hs_arr[bin] & kSizeMask;
        if (load == 0) {
          ++empty_bins;
          continue;
        }
        if (faults && (fault_flags_[bin] & FaultFlags::kNoServe) != 0) {
          if ((fault_flags_[bin] & FaultFlags::kDrain) != 0) {
            bounded_->drain_bulk(bin, [&](std::uint64_t crashed) {
              ++requeue_[crashed];
              ++m.requeued;
            });
            requeued_balls += load;
            ++empty_bins;
          } else if (load > max_load) {
            max_load = load;
          }
          continue;  // faulted bins draw no failure coin (see above)
        }
        if (failures && rng::uniform01(engine_) < p_fail) {
          if (crash) {
            bounded_->drain_bulk(bin, [&](std::uint64_t crashed) {
              ++requeue_[crashed];
              ++m.requeued;
            });
            requeued_balls += load;
            ++empty_bins;
          } else if (load > max_load) {
            max_load = load;
          }
          continue;
        }
        std::uint64_t served;
        switch (discipline) {
          case DeletionDiscipline::kLifo:
            served = bounded_->remove_at(bin, load - 1);
            break;
          case DeletionDiscipline::kUniform:
            served = bounded_->remove_at(bin, rng::bounded32(engine_, load));
            break;
          case DeletionDiscipline::kFifo:
          default:
            served = bounded_->remove_at(bin, 0);
            break;
        }
        walk_waits.add(round_ - served);
        empty_bins += static_cast<std::uint64_t>(load == 1);
        if (load - 1 > max_load) max_load = load - 1;
      }
    }
    if (timing) {
      delete_ns += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t_del)
              .count());
    }
  }

  m.accepted = accepted;
  waits = walk_waits;
  bounded_->adjust_total_load(static_cast<std::int64_t>(accepted) -
                              static_cast<std::int64_t>(waits.count()) -
                              static_cast<std::int64_t>(requeued_balls));
  m.total_load = bounded_->total_load();
  m.max_load = max_load;
  m.empty_bins = static_cast<std::uint32_t>(empty_bins);

  // Survivors re-added oldest-first (AgedPool's label-order invariant).
  const bool forward = config_.acceptance == AcceptanceOrder::kOldestFirst;
  survivors_.clear();
  for (std::size_t i = 0; i < n_buckets; ++i) {
    const std::size_t bb = forward ? i : n_buckets - 1 - i;
    survivors_.add(bucket_labels_[bb], rejected_[bb]);
  }
  pool_.swap(survivors_);

  if (timing) {
    const auto total_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t_sweep)
            .count());
    const std::uint64_t accept_ns =
        total_ns > delete_ns ? total_ns - delete_ns : 0;
    timers_->add(telemetry::Phase::kAccept, accept_ns, m.thrown);
    timers_->add(telemetry::Phase::kDelete, delete_ns, waits.count());
  }
  return true;
}

void Capped::emit_throw_traces(std::span<const std::uint32_t> choices) {
#if IBA_TELEMETRY_ENABLED
  // Replays the scalar path's on_throw stream: throws in visit order,
  // each with the load the bin had at that ball's decision point —
  // derivable from the initial load and the ball's stable rank among the
  // bin's candidates.
  const bool finite = !infinite();
  const std::uint64_t cap = finite ? config_.capacity : 0;
  std::size_t bucket = 0;
  for (std::size_t idx = 0; idx < choices.size(); ++idx) {
    while (idx >= bucket_ends_[bucket]) ++bucket;
    const std::uint32_t bin = choices[idx];
    const std::uint64_t label = bucket_labels_[bucket];
    const std::uint64_t rank = rank_scratch_[idx];
    const std::uint64_t initial = init_load_[bin];
    // Written without subtraction: a controller shrink can leave
    // initial > cap (still-draining bin), where cap - initial underflows.
    if (!finite || initial + rank < cap) {
      tracer_->on_throw(label, bin, initial + rank, true);
    } else {
      tracer_->on_throw(label, bin, cap, false);
    }
  }
#else
  (void)choices;
#endif
}

// Sharded end-of-round service. Failure coins and uniform-deletion
// positions are pre-sampled in bin order from the master engine — the
// exact draw sequence of the scalar loop — so the RNG stream, and hence
// every future round, is invariant in the shard count. Workers then pop
// over disjoint bin ranges, and a sequential bin-order pass records
// waits/requeues so the tracer's event stream matches too.
void Capped::delete_sharded(RoundMetrics& m, RoundWaits& waits) {
  const std::uint32_t n = config_.n;
  const std::uint32_t shards = config_.shards;
  const bool failures = config_.failure_probability > 0.0;

  delete_action_.assign(n, kActionNone);
  delete_pos_.resize(n);
  deleted_label_.resize(n);
  for (std::uint32_t bin = 0; bin < n; ++bin) {
    const std::uint64_t load =
        infinite() ? unbounded_->load(bin) : bounded_->load(bin);
    if (load == 0) continue;
    if (faults_round_ &&
        (fault_flags_[bin] & FaultFlags::kNoServe) != 0) {
      // Faulted bins draw no failure coin (see delete_scalar); a
      // state-loss crash reuses the kActionCrash drain machinery.
      if ((fault_flags_[bin] & FaultFlags::kDrain) != 0) {
        delete_action_[bin] = kActionCrash;
      }
      continue;
    }
    if (failures &&
        rng::uniform01(engine_) < config_.failure_probability) {
      if (config_.failure_mode == FailureMode::kCrashRequeue) {
        delete_action_[bin] = kActionCrash;
      }
      continue;
    }
    delete_action_[bin] = kActionServe;
    std::uint32_t pos = 0;
    if (!infinite()) {
      switch (config_.deletion) {
        case DeletionDiscipline::kFifo:
          break;
        case DeletionDiscipline::kLifo:
          pos = static_cast<std::uint32_t>(load - 1);
          break;
        case DeletionDiscipline::kUniform:
          pos = rng::bounded32(engine_,
                               static_cast<std::uint32_t>(load));
          break;
      }
    }
    delete_pos_[bin] = pos;
  }

  shard_crashed_.resize(shards);
  for (auto& crashed : shard_crashed_) crashed.clear();
  shard_load_delta_.assign(shards, 0);
  run_sharded([&](std::size_t shard, std::size_t lo, std::size_t hi) {
    std::int64_t delta = 0;
    auto& crashed = shard_crashed_[shard];
    for (std::uint32_t bin = static_cast<std::uint32_t>(lo);
         bin < static_cast<std::uint32_t>(hi); ++bin) {
      switch (delete_action_[bin]) {
        case kActionServe:
          deleted_label_[bin] =
              infinite() ? unbounded_->remove_front(bin)
                         : bounded_->remove_at(bin, delete_pos_[bin]);
          --delta;
          break;
        case kActionCrash:
          bounded_->drain_bulk(bin, [&](std::uint64_t label) {
            crashed.emplace_back(bin, label);
            --delta;
          });
          break;
        default:
          break;
      }
    }
    shard_load_delta_[shard] = delta;
  });
  std::int64_t load_delta = 0;
  for (std::uint32_t s = 0; s < shards; ++s) {
    load_delta += shard_load_delta_[s];
  }
  if (infinite()) {
    unbounded_->adjust_total_load(load_delta);
  } else {
    bounded_->adjust_total_load(load_delta);
  }

  // Sequential bin-order record pass. Shard crash lists concatenate in
  // ascending bin order (contiguous ranges), so one cursor merges them
  // back into the scalar loop's interleaving of deletes and requeues.
  std::size_t crash_shard = 0;
  std::size_t crash_item = 0;
  const auto skip_exhausted = [&] {
    while (crash_shard < shards &&
           crash_item >= shard_crashed_[crash_shard].size()) {
      ++crash_shard;
      crash_item = 0;
    }
  };
  for (std::uint32_t bin = 0; bin < n; ++bin) {
    if (delete_action_[bin] == kActionServe) {
      record_wait(bin, deleted_label_[bin], delete_pos_[bin], waits);
    } else if (delete_action_[bin] == kActionCrash) {
      skip_exhausted();
      while (crash_shard < shards) {
        const auto& list = shard_crashed_[crash_shard];
        if (crash_item >= list.size() || list[crash_item].first != bin) break;
        const std::uint64_t label = list[crash_item].second;
        if constexpr (IBA_TELEMETRY_ENABLED != 0) {
          if (tracer_ != nullptr) tracer_->on_requeue(bin, label);
        }
        ++requeue_[label];
        ++m.requeued;
        ++crash_item;
        skip_exhausted();
      }
    }
  }
}

// Unsharded bin-major deletion: one fused pass that serves bins, draws
// failure coins and uniform positions in the scalar loop's exact bin
// order, and computes the end-of-round total/max/empty load statistics
// while each bin's arrays are still in cache. Outcome-, RNG- and
// trace-identical to delete_scalar; total_load is committed once at the
// end instead of per pop.
bool Capped::delete_bin_major(RoundMetrics& m, RoundWaits& waits) {
  const std::uint32_t n = config_.n;
  const bool failures = config_.failure_probability > 0.0;
  const double p_fail = config_.failure_probability;
  std::uint64_t max_load = 0;
  std::uint64_t empty_bins = 0;
  std::int64_t delta = 0;
  if (infinite()) {
    for (std::uint32_t bin = 0; bin < n; ++bin) {
      const std::uint64_t load = unbounded_->load(bin);
      if (load == 0) {
        ++empty_bins;
        continue;
      }
      if (failures && rng::uniform01(engine_) < p_fail) {
        // Crash-requeue is rejected for infinite capacity at config time,
        // so a failed bin simply skips service.
        if (load > max_load) max_load = load;
        continue;
      }
      const std::uint64_t label = unbounded_->remove_front(bin);
      --delta;
      record_wait(bin, label, 0, waits);
      if (load == 1) {
        ++empty_bins;
      } else if (load - 1 > max_load) {
        max_load = load - 1;
      }
    }
    unbounded_->adjust_total_load(delta);
    m.total_load = unbounded_->total_load();
  } else {
    const bool crash = config_.failure_mode == FailureMode::kCrashRequeue;
    const DeletionDiscipline discipline = config_.deletion;
    for (std::uint32_t bin = 0; bin < n; ++bin) {
      const std::uint32_t load = bounded_->load(bin);
      if (load == 0) {
        ++empty_bins;
        continue;
      }
      if (faults_round_ &&
          (fault_flags_[bin] & FaultFlags::kNoServe) != 0) {
        if ((fault_flags_[bin] & FaultFlags::kDrain) != 0) {
          bounded_->drain_bulk(bin, [&](std::uint64_t label) {
            if constexpr (IBA_TELEMETRY_ENABLED != 0) {
              if (tracer_ != nullptr) tracer_->on_requeue(bin, label);
            }
            ++requeue_[label];
            ++m.requeued;
            --delta;
          });
          ++empty_bins;
        } else if (load > max_load) {
          max_load = load;
        }
        continue;  // faulted bins draw no failure coin (see delete_scalar)
      }
      if (failures && rng::uniform01(engine_) < p_fail) {
        if (crash) {
          bounded_->drain_bulk(bin, [&](std::uint64_t label) {
            if constexpr (IBA_TELEMETRY_ENABLED != 0) {
              if (tracer_ != nullptr) tracer_->on_requeue(bin, label);
            }
            ++requeue_[label];
            ++m.requeued;
            --delta;
          });
          ++empty_bins;
        } else if (load > max_load) {
          max_load = load;
        }
        continue;
      }
      std::uint32_t pos = 0;
      switch (discipline) {
        case DeletionDiscipline::kFifo:
          break;
        case DeletionDiscipline::kLifo:
          pos = load - 1;
          break;
        case DeletionDiscipline::kUniform:
          pos = rng::bounded32(engine_, load);
          break;
      }
      const std::uint64_t label = bounded_->remove_at(bin, pos);
      --delta;
      record_wait(bin, label, pos, waits);
      if (load == 1) {
        ++empty_bins;
      } else if (load - 1 > max_load) {
        max_load = load - 1;
      }
    }
    bounded_->adjust_total_load(delta);
    m.total_load = bounded_->total_load();
  }
  m.max_load = max_load;
  m.empty_bins = empty_bins;
  return true;
}

void Capped::record_wait(std::uint32_t bin, std::uint64_t label,
                         std::uint64_t position, RoundWaits& waits) {
  if constexpr (IBA_TELEMETRY_ENABLED != 0) {
    if (tracer_ != nullptr) tracer_->on_delete(bin, label, position);
  } else {
    (void)bin;
    (void)position;
  }
  waits.add(round_ - label);
}

void Capped::ensure_shard_pool() {
  if (shard_pool_ != nullptr) return;
  shard_pool_ = std::make_unique<concurrency::ThreadPool>(
      config_.shards, config_.pin_threads);
  if (config_.pin_threads &&
      shard_pool_->pinned_count() < shard_pool_->thread_count()) {
    // Pinning is a placement hint, never a correctness knob: warn and run.
    telemetry::log_warn(
        "pin_threads_unavailable",
        {{"requested", shard_pool_->thread_count()},
         {"pinned", shard_pool_->pinned_count()}});
  }
}

void Capped::run_sharded(
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  ensure_shard_pool();
  concurrency::parallel_for_ranges(*shard_pool_, config_.n, config_.shards,
                                   fn);
}

void Capped::run_sharded_items(
    std::size_t count,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  ensure_shard_pool();
  concurrency::parallel_for_ranges(*shard_pool_, count, config_.shards, fn);
}

void Capped::first_touch_state() {
  if (infinite() || arena_ == nullptr) return;
  const std::uint32_t n = config_.n;
  // Pre-size the per-bin arrays so their pages exist to be touched.
  counts_.resize(n);
  starts_.resize(static_cast<std::size_t>(n) + 1);
  const std::size_t storage = bounded_->capacity();
  std::uint32_t* const hs = bounded_->packed_mut();
  std::uint64_t* const lb = bounded_->labels_mut();
  std::uint32_t* const counts = counts_.data();
  std::uint32_t* const starts = starts_.data();
  // Touching writes the zeroes the buffers are already guaranteed to
  // hold; its only effect is page placement, so running it serially
  // (shards == 1) or on workers changes nothing observable.
  const auto touch = [&](std::size_t, std::size_t lo, std::size_t hi) {
    std::memset(hs + lo, 0, (hi - lo) * sizeof(std::uint32_t));
    std::memset(lb + lo * storage, 0,
                (hi - lo) * storage * sizeof(std::uint64_t));
    std::memset(counts + lo, 0, (hi - lo) * sizeof(std::uint32_t));
    std::memset(starts + lo, 0, (hi - lo) * sizeof(std::uint32_t));
  };
  if (config_.shards > 1) {
    run_sharded(touch);
  } else {
    touch(0, 0, n);
  }
}

void Capped::merge_sorted_into_pool(
    std::span<const queueing::AgedPool::Bucket> entries) {
  // Two-pointer merge of the (sorted) entries into the (sorted) pool,
  // preserving the oldest-first bucket order.
  merge_scratch_.clear();
  std::size_t i = 0;
  for (const auto& bucket : pool_.buckets()) {
    while (i < entries.size() && entries[i].label < bucket.label) {
      merge_scratch_.add(entries[i].label, entries[i].count);
      ++i;
    }
    if (i < entries.size() && entries[i].label == bucket.label) {
      merge_scratch_.add(bucket.label, bucket.count + entries[i].count);
      ++i;
    } else {
      merge_scratch_.add(bucket.label, bucket.count);
    }
  }
  for (; i < entries.size(); ++i) {
    merge_scratch_.add(entries[i].label, entries[i].count);
  }
  pool_.swap(merge_scratch_);
}

void Capped::merge_requeued_into_pool() {
  // requeue_ is a std::map, so its (label, count) pairs come out sorted
  // and order-independent of which kernel (or shard) recorded them.
  requeue_scratch_.clear();
  for (const auto& [label, count] : requeue_) {
    requeue_scratch_.push_back({label, count});
  }
  merge_sorted_into_pool(requeue_scratch_);
  requeue_.clear();
}

void Capped::delete_from_bin(std::uint32_t bin, RoundWaits& waits) {
  std::uint64_t label;
  std::uint64_t position = 0;  // queue index served
  if (infinite()) {
    label = unbounded_->pop_front(bin);  // discipline applies to finite c
  } else {
    switch (config_.deletion) {
      case DeletionDiscipline::kFifo:
        label = bounded_->pop_front(bin);
        break;
      case DeletionDiscipline::kLifo:
        position = bounded_->load(bin) - 1;
        label = bounded_->pop_back(bin);
        break;
      case DeletionDiscipline::kUniform:
        position = rng::bounded32(engine_, bounded_->load(bin));
        label = bounded_->pop_at(bin, static_cast<std::uint32_t>(position));
        break;
      default:
        label = bounded_->pop_front(bin);
    }
  }
  record_wait(bin, label, position, waits);
}

}  // namespace iba::core
