#include "execution.hpp"

#include <pthread.h>
#include <sys/resource.h>
#include <time.h>

#include <chrono>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <thread>

#include "core/capped.hpp"
#include "dist/checkpoint.hpp"
#include "dist/coordinator.hpp"
#include "dist/worker.hpp"
#include "net/socket.hpp"
#include "rng/bounded.hpp"
#include "scenario/progress.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "sim/checkpoint.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using iba::core::RoundMetrics;
using iba::scenario::Progress;
using iba::scenario::Scenario;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double to_seconds(const timespec& ts) {
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double thread_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return to_seconds(ts);
}

std::uint64_t read_rchar() {
  std::ifstream in("/proc/self/io");
  std::string key;
  std::uint64_t value = 0;
  while (in >> key >> value) {
    if (key == "rchar:") return value;
  }
  return 0;
}

/// Process-wide counters sampled at the edges of the measured window.
struct CounterSample {
  Clock::time_point at;
  double cpu_s = 0.0;
  std::uint64_t minor_faults = 0;
  std::uint64_t ctx_switches = 0;
  std::uint64_t rchar = 0;
  std::vector<double> worker_cpu_s;
  double coordinator_cpu_s = 0.0;
};

Scenario parse(const std::string& text, Tracer* tracer) {
  Scope span(tracer, "scenario.parse_scenario");
  Scenario scn = iba::scenario::parse_scenario(text, "<perfbench>");
  if (!scn.fault_schedule.empty() || scn.expect.audit ||
      scn.record.timeseries) {
    throw std::invalid_argument(
        "perfbench: faults, audit and recording are not benchmarked");
  }
  return scn;
}

iba::core::CappedConfig base_config(const Scenario& scn) {
  iba::core::CappedConfig config;
  config.n = scn.n;
  config.capacity = scn.capacity;
  scn.arrival.apply_to(scn.n, config.arrival, config.lambda_n);
  config.pool_limit = scn.pool_limit;
  config.backpressure = scn.backpressure;
  config.backoff_rounds = scn.backoff;
  config.control = scn.control;
  return config;
}

/// Worker threads, one socketpair each: the in-process stand-in for the
/// worker processes of dist_run.
class Fleet {
 public:
  explicit Fleet(std::uint32_t count) : slots_(count) {
    for (std::uint32_t i = 0; i < count; ++i) {
      auto [coordinator, worker] = iba::net::socket_pair();
      coordinator_side_.push_back(std::move(coordinator));
      worker_side_.push_back(std::move(worker));
    }
    threads_.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      threads_.emplace_back([this, i] {
        try {
          iba::dist::Worker worker(worker_side_[i].fd(), i);
          worker.run();
          slots_[i].load = worker.total_load();
        } catch (...) {
          slots_[i].error = std::current_exception();
        }
      });
    }
  }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;
  ~Fleet() { join(); }

  [[nodiscard]] std::vector<int> fds() const {
    std::vector<int> fds;
    for (const iba::net::Socket& socket : coordinator_side_) {
      fds.push_back(socket.fd());
    }
    return fds;
  }

  /// CPU seconds each worker thread has used so far.
  [[nodiscard]] std::vector<double> cpu_seconds() {
    std::vector<double> cpu;
    for (std::thread& thread : threads_) {
      clockid_t id{};
      timespec ts{};
      if (::pthread_getcpuclockid(thread.native_handle(), &id) == 0 &&
          ::clock_gettime(id, &ts) == 0) {
        cpu.push_back(to_seconds(ts));
      } else {
        cpu.push_back(0.0);
      }
    }
    return cpu;
  }

  /// Hangs up on every worker and joins it.
  void join() {
    for (iba::net::Socket& socket : coordinator_side_) socket.close();
    for (std::thread& thread : threads_) {
      if (thread.joinable()) thread.join();
    }
  }

  /// Balls held in the workers' bins; rethrows a worker's failure.
  /// Valid after join().
  [[nodiscard]] std::uint64_t total_load() const {
    std::uint64_t load = 0;
    for (const Slot& slot : slots_) {
      if (slot.error) std::rethrow_exception(slot.error);
      load += slot.load;
    }
    return load;
  }

 private:
  struct Slot {
    std::uint64_t load = 0;
    std::exception_ptr error;
  };
  std::vector<Slot> slots_;
  std::vector<iba::net::Socket> coordinator_side_;
  std::vector<iba::net::Socket> worker_side_;
  std::vector<std::thread> threads_;
};

/// Single process: one core::Capped, as scenario::run_scenario builds it.
class LocalRun {
 public:
  LocalRun(const Scenario& scn, Tracer* tracer, std::string checkpoint)
      : checkpoint_(std::move(checkpoint)), engine_(scn.seed) {
    iba::core::CappedConfig config = base_config(scn);
    config.kernel = scn.kernel;
    config.shards =
        scn.kernel == iba::core::RoundKernel::kBinMajor ? scn.shards : 1;
    {
      Scope span(tracer, "core.Capped");
      process_ = std::make_unique<iba::core::Capped>(
          config, iba::core::Engine(scn.seed));
    }
    {
      Scope span(tracer, "scenario.make_sampler");
      sampler_ = scn.arrival.make_sampler(scn.n);
    }
    if (sampler_ != nullptr) process_->set_bin_sampler(sampler_.get());
    // Where step() is exactly "draw every choice, then the kernel", the
    // traced run splits it: rng::fill_bounded on an engine seeded like
    // the process's, then step_with_choices. Same stream, same bytes.
    // (The process's own engine then stands still, so no checkpoint may
    // be taken.)
    split_ = tracer != nullptr && sampler_ == nullptr &&
             config.arrival == iba::core::ArrivalModel::kDeterministic &&
             config.backpressure == iba::core::BackpressureMode::kNone &&
             !config.control.enabled() && scn.checkpoint_every == 0;
  }

  void set_lambda_n(std::uint64_t lambda_n) { process_->set_lambda_n(lambda_n); }

  RoundMetrics step(std::uint64_t round, Tracer* tracer) {
    if (split_) {
      choices_.resize(process_->balls_to_throw());
      {
        Scope span(tracer, "rng.fill_bounded", round);
        iba::rng::fill_bounded(engine_, choices_, process_->n());
      }
      Scope span(tracer, "core.step_with_choices", round);
      return process_->step_with_choices(choices_);
    }
    Scope span(tracer, "core.step", round);
    return process_->step();
  }

  void reset_wait_stats() { process_->reset_wait_stats(); }

  void save_state(const Progress& progress, Tracer* tracer,
                  std::uint64_t round) {
    iba::sim::Checkpoint checkpoint;
    {
      Scope span(tracer, "core.snapshot", round);
      checkpoint.snapshot = process_->snapshot();
    }
    {
      Scope span(tracer, "sim.save_checkpoint", round);
      iba::sim::save_checkpoint(checkpoint, checkpoint_);
    }
    {
      Scope span(tracer, "scenario.save_progress", round);
      iba::scenario::save_progress(progress, checkpoint_ + ".progress");
    }
    checkpoint_bytes_ = std::filesystem::file_size(checkpoint_);
  }

  /// Fills the process-side totals and control fields of the artifact.
  void totals(const Scenario& scn, const std::string& digest,
              const Progress& progress, iba::artifact::ResultArtifact& result,
              Tracer* tracer) {
    iba::core::CappedSnapshot snapshot;
    {
      Scope span(tracer, "core.snapshot");
      snapshot = process_->snapshot();
    }
    Scope span(tracer, "scenario.fill_artifact");
    iba::scenario::RunTotals t;
    t.generated_total = process_->generated_total();
    t.deleted_total = process_->deleted_total();
    t.shed_total = process_->shed_total();
    t.deferred_end = process_->deferred_total();
    t.waits = snapshot.waits;
    t.wait_p50 = process_->waits().quantile_upper_bound(0.5);
    t.wait_p99 = process_->waits().quantile_upper_bound(0.99);
    iba::scenario::fill_artifact(result, scn, digest, scn.seed, progress, t);
    if (scn.control.enabled()) {
      result.has_control = true;
      result.capacity_final = process_->capacity();
      result.control_changes = snapshot.controller.changes;
      result.control_grows = snapshot.controller.grows;
      result.control_shrinks = snapshot.controller.shrinks;
    }
  }

  void finish() {}

  [[nodiscard]] Ledger ledger() const {
    return {process_->generated_total(), process_->deleted_total(),
            process_->pool_size(),       process_->total_load(),
            process_->shed_total(),      process_->deferred_total()};
  }

  void sample(CounterSample&) {}
  [[nodiscard]] std::uint64_t checkpoint_bytes() const noexcept {
    return checkpoint_bytes_;
  }

 private:
  std::string checkpoint_;
  iba::core::Engine engine_;
  // Declared before the process, which keeps a pointer to it.
  std::unique_ptr<iba::core::BinChoiceSampler> sampler_;
  std::unique_ptr<iba::core::Capped> process_;
  std::vector<std::uint32_t> choices_;
  bool split_ = false;
  std::uint64_t checkpoint_bytes_ = 0;
};

/// Distributed: a dist::Coordinator over kDistWorkers worker threads, as
/// dist::run_distributed drives it.
class DistRun {
 public:
  DistRun(const Scenario& scn, Tracer* tracer, std::string base)
      : base_(std::move(base)) {
    {
      Scope span(tracer, "dist.init");
      fleet_ = std::make_unique<Fleet>(kDistWorkers);
      coordinator_ = std::make_unique<iba::dist::Coordinator>(
          base_config(scn), iba::core::Engine(scn.seed), fleet_->fds());
    }
    {
      Scope span(tracer, "scenario.make_sampler");
      sampler_ = scn.arrival.make_sampler(scn.n);
    }
    if (sampler_ != nullptr) coordinator_->set_bin_sampler(sampler_.get());
    digest_ = scn.digest();
    seed_ = scn.seed;
  }
  DistRun(const DistRun&) = delete;
  DistRun& operator=(const DistRun&) = delete;
  ~DistRun() { finish(); }

  void set_lambda_n(std::uint64_t lambda_n) {
    coordinator_->set_lambda_n(lambda_n);
  }

  RoundMetrics step(std::uint64_t round, Tracer* tracer) {
    Scope span(tracer, "dist.step", round);
    if (tracer == nullptr) return coordinator_->step();
    const double before = thread_cpu_s();
    const RoundMetrics m = coordinator_->step();
    coordinator_cpu_s_ += thread_cpu_s() - before;
    return m;
  }

  void reset_wait_stats() { coordinator_->reset_wait_stats(); }

  void save_state(const Progress& progress, Tracer* tracer,
                  std::uint64_t round) {
    const std::string coord = iba::dist::coord_path(base_, round);
    {
      Scope span(tracer, "scenario.save_progress", round);
      iba::scenario::save_progress(progress, coord + ".progress");
    }
    {
      Scope span(tracer, "dist.save_checkpoint", round);
      coordinator_->save_checkpoint(base_, digest_, seed_);
    }
    checkpoint_bytes_ = std::filesystem::file_size(coord);
  }

  void totals(const Scenario& scn, const std::string& digest,
              const Progress& progress, iba::artifact::ResultArtifact& result,
              Tracer* tracer) {
    Scope span(tracer, "scenario.fill_artifact");
    iba::scenario::RunTotals t;
    t.generated_total = coordinator_->generated_total();
    t.deleted_total = coordinator_->deleted_total();
    t.shed_total = coordinator_->shed_total();
    t.deferred_end = coordinator_->deferred_total();
    t.waits = coordinator_->wait_state();
    t.wait_p50 = coordinator_->wait_quantile(0.5);
    t.wait_p99 = coordinator_->wait_quantile(0.99);
    iba::scenario::fill_artifact(result, scn, digest, scn.seed, progress, t);
    if (scn.control.enabled()) {
      const iba::control::ControllerState state =
          coordinator_->controller()->state();
      result.has_control = true;
      result.capacity_final = coordinator_->capacity();
      result.control_changes = state.changes;
      result.control_grows = state.grows;
      result.control_shrinks = state.shrinks;
    }
  }

  /// Clean shutdown of every worker, then join.
  void finish() {
    if (coordinator_ != nullptr) coordinator_->shutdown();
    if (fleet_ != nullptr) fleet_->join();
  }

  /// Valid after finish().
  [[nodiscard]] Ledger ledger() const {
    return {coordinator_->generated_total(), coordinator_->deleted_total(),
            coordinator_->pool_size(),       fleet_->total_load(),
            coordinator_->shed_total(),      coordinator_->deferred_total()};
  }

  void sample(CounterSample& s) {
    s.worker_cpu_s = fleet_->cpu_seconds();
    s.coordinator_cpu_s = coordinator_cpu_s_;
  }
  [[nodiscard]] std::uint64_t checkpoint_bytes() const noexcept {
    return checkpoint_bytes_;
  }

 private:
  std::string base_;
  std::string digest_;
  std::uint64_t seed_ = 0;
  // Declared before the coordinator, which uses both.
  std::unique_ptr<Fleet> fleet_;
  std::unique_ptr<iba::core::BinChoiceSampler> sampler_;
  std::unique_ptr<iba::dist::Coordinator> coordinator_;
  double coordinator_cpu_s_ = 0.0;
  std::uint64_t checkpoint_bytes_ = 0;
};

template <class Run>
CounterSample sample_counters(Run& run) {
  CounterSample s;
  s.at = Clock::now();
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  s.cpu_s = static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
            static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
                1e-6;
  s.minor_faults = static_cast<std::uint64_t>(usage.ru_minflt);
  s.ctx_switches = static_cast<std::uint64_t>(usage.ru_nvcsw + usage.ru_nivcsw);
  s.rchar = read_rchar();
  run.sample(s);
  return s;
}

WindowCounters window_between(const CounterSample& a, const CounterSample& b) {
  WindowCounters w;
  w.wall_s = std::chrono::duration<double>(b.at - a.at).count();
  w.cpu_s = b.cpu_s - a.cpu_s;
  w.minor_faults = b.minor_faults - a.minor_faults;
  w.ctx_switches = b.ctx_switches - a.ctx_switches;
  w.rchar = b.rchar - a.rchar;
  for (std::size_t i = 0; i < a.worker_cpu_s.size(); ++i) {
    w.worker_cpu_s.push_back(b.worker_cpu_s[i] - a.worker_cpu_s[i]);
  }
  w.coordinator_cpu_s = b.coordinator_cpu_s - a.coordinator_cpu_s;
  return w;
}

/// The round loop and artifact assembly shared by both kinds of run — the
/// order of run_scenario / run_distributed: step, accumulate, burn-in
/// reset, checkpoint; then totals, expectations, the final checkpoint
/// and the artifact write.
template <class Run>
void drive(Run& run, const Scenario& scn, const ExecOptions& options,
           Execution& out) {
  Tracer* const tracer = options.tracer;
  const std::string digest = scn.digest();
  const std::uint64_t total_rounds = scn.burn_in + scn.rounds;
  Progress progress;
  progress.digest = digest;
  progress.seed = scn.seed;
  out.rounds.reserve(scn.rounds);

  CounterSample window_start;
  for (std::uint64_t round = 1; round <= total_rounds; ++round) {
    if (round == scn.burn_in + 1) window_start = sample_counters(run);
    const Clock::time_point start = Clock::now();
    RoundMetrics m;
    {
      Scope span(tracer, "scenario.round", round);
      if (scn.arrival.time_varying()) {
        run.set_lambda_n(scn.arrival.rate_at(round, scn.n));
      }
      m = run.step(round, tracer);
      if (round > scn.burn_in) accumulate_progress(progress, m);
      progress.rounds_done = round;
      if (round == scn.burn_in) run.reset_wait_stats();
      if (scn.checkpoint_every > 0 && round % scn.checkpoint_every == 0 &&
          round != total_rounds) {
        run.save_state(progress, tracer, round);
      }
    }
    if (round > scn.burn_in) {
      out.rounds.push_back(
          {std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                start)
               .count(),
           m.thrown, m.accepted, m.deferred});
    }
  }
  out.window = window_between(window_start, sample_counters(run));

  iba::artifact::ResultArtifact& result = out.artifact;
  run.totals(scn, digest, progress, result, tracer);
  {
    Scope span(tracer, "scenario.evaluate_expectations");
    iba::scenario::evaluate_expectations(scn, result);
  }
  if (scn.checkpoint_every > 0) run.save_state(progress, tracer, total_rounds);
  run.finish();
  out.checkpoint_bytes = run.checkpoint_bytes();
  out.ledger = run.ledger();

  const std::string path = options.work_dir + "/result.artifact";
  {
    Scope span(tracer, "artifact.write_artifact");
    iba::artifact::write_artifact(result, path);
  }
  Scope span(tracer, "artifact.read_artifact_text");
  out.on_disk = iba::artifact::read_artifact_text(path);
}

std::uint64_t bin_table_bytes(const Scenario& scn) {
  const std::uint64_t storage =
      scn.control.enabled() ? scn.control.c_max : scn.capacity;
  return std::uint64_t{scn.n} * (8 * storage + 4);
}

}  // namespace

Execution execute(Workload workload, const std::string& text,
                  const ExecOptions& options) {
  Execution out;
  const Clock::time_point start = Clock::now();
  try {
    const Scenario scn = parse(text, options.tracer);
    out.bin_table_bytes = bin_table_bytes(scn);
    if (distributed(workload)) {
      DistRun run(scn, options.tracer, options.work_dir + "/dist");
      out.setup_s = seconds_since(start);
      drive(run, scn, options, out);
    } else {
      LocalRun run(scn, options.tracer, options.work_dir + "/ckpt");
      out.setup_s = seconds_since(start);
      drive(run, scn, options, out);
    }
  } catch (const std::exception& error) {
    out.error = error.what();
  }
  out.run_s = seconds_since(start);
  return out;
}

double setup_once(Workload workload, const std::string& text, Tracer* tracer) {
  const Clock::time_point start = Clock::now();
  const Scenario scn = parse(text, tracer);
  double elapsed = 0.0;
  if (distributed(workload)) {
    DistRun run(scn, tracer, "");
    elapsed = seconds_since(start);
  } else {
    LocalRun run(scn, tracer, "");
    elapsed = seconds_since(start);
  }
  return elapsed;
}

std::string reference_bytes(const std::string& text) {
  const Scenario scn = iba::scenario::parse_scenario(text, "<perfbench>");
  iba::scenario::RunOptions options;
  options.shards = 1;
  return iba::artifact::render_artifact(
      iba::scenario::run_scenario(scn, options).artifact);
}

}  // namespace perfbench
