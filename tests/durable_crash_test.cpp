// Crash-point injection over every durable writer. The test seam of
// common/durable.hpp makes each system call of an atomic write fail in
// turn — open, write, fsync, close, rename, directory open, directory
// fsync. After each failure the file on disk must load, as the old
// state or as the new one, and no tmp file may be left behind. The
// recorded call sequence also shows that every writer ends with a
// directory fsync.
//
// The distributed checkpoint gets the same treatment across whole
// generations: each call of two successive manifest-last commits
// (progress sidecar, worker shards, coordinator file, manifest) fails in
// turn, and the manifest on disk must then name a complete generation
// that resumes to the uninterrupted run's artifact, byte for byte.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "artifact/artifact.hpp"
#include "common/crc32.hpp"
#include "common/durable.hpp"
#include "core/capped.hpp"
#include "dist/checkpoint.hpp"
#include "dist/runner.hpp"
#include "dist/worker.hpp"
#include "net/socket.hpp"
#include "scenario/progress.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "sim/checkpoint.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/timeseries.hpp"

namespace iba {
namespace {

using common::durable_testing::Call;

constexpr bool kTelemetry = telemetry::TimeSeries::kEnabled;

/// The calls of one atomic write, in order.
const std::vector<Call> kWriteSequence = {
    Call::kOpen,   Call::kWrite,   Call::kFsync,   Call::kClose,
    Call::kRename, Call::kDirOpen, Call::kDirFsync};

/// Installs a hook for its lifetime.
class ScopedHook {
 public:
  explicit ScopedHook(common::durable_testing::Hook hook) {
    common::durable_testing::set_hook(std::move(hook));
  }
  ~ScopedHook() { common::durable_testing::set_hook({}); }
  ScopedHook(const ScopedHook&) = delete;
  ScopedHook& operator=(const ScopedHook&) = delete;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// A per-process scratch directory: ctest runs the cases of this
/// binary as concurrent processes.
std::string scratch_dir() {
  const auto path = std::filesystem::temp_directory_path() /
                    ("iba_durable_crash_" + std::to_string(::getpid()));
  std::filesystem::create_directories(path);
  return path.string();
}

// -- single-file writers: state 0 is the old file, state 1 the new ----

void write_checkpoint(const std::string& path, int state) {
  core::CappedConfig config;
  config.n = 64;
  config.capacity = 2;
  config.lambda_n = 56;
  core::Capped process(config, core::Engine(3));
  for (int r = 0; r < 10 + 10 * state; ++r) (void)process.step();
  sim::save_checkpoint(process.snapshot(), path);
}

void write_progress(const std::string& path, int state) {
  scenario::Progress progress;
  progress.digest = "0123abcd";
  progress.seed = 9;
  progress.rounds_done = 16 + static_cast<std::uint64_t>(state) * 16;
  progress.pool_sum = 100 + static_cast<std::uint64_t>(state);
  scenario::save_progress(progress, path);
}

telemetry::TimeSeries series_of(int state) {
  telemetry::TimeSeries series;
  for (std::uint64_t r = 1; r <= 8 + 8 * static_cast<std::uint64_t>(state);
       ++r) {
    telemetry::TimeSeriesSample sample;
    sample.round = r;
    sample.pool_size = 10 + r;
    series.observe(sample);
  }
  return series;
}

telemetry::FlightRecorder recorder_of(const telemetry::TimeSeries& series,
                                      int state) {
  telemetry::FlightRecorder recorder({.window = 4});
  recorder.attach_time_series(&series);
  recorder.set_context("crash", "0123abcd", 9, 64);
  recorder.note_event(5, "fault", "state " + std::to_string(state));
  recorder.trigger(telemetry::TriggerKind::kManual, 6, "drill");
  return recorder;
}

void write_record(const std::string& path, int state) {
  const telemetry::TimeSeries series = series_of(state);
  scenario::save_record_sidecar(series, recorder_of(series, state), path);
}

void load_record(const std::string& path) {
  telemetry::TimeSeries series;
  telemetry::FlightRecorder recorder({.window = 4});
  scenario::load_record_sidecar(series, recorder, path);
}

void write_shard(const std::string& path, int state) {
  dist::ShardState shard;
  shard.round = 32 + static_cast<std::uint64_t>(state) * 32;
  shard.bin_count = 4;
  shard.capacity = 2;
  shard.queues = {{1}, {}, {2, 3}, {static_cast<std::uint64_t>(state)}};
  (void)dist::save_shard(shard, path);
}

void write_manifest(const std::string& path, int state) {
  dist::Manifest manifest;
  manifest.round = 32 + static_cast<std::uint64_t>(state) * 32;
  manifest.n = 8;
  manifest.workers = 1;
  manifest.digest = "0123abcd";
  manifest.seed = 9;
  manifest.shard_crcs = {7};
  dist::save_manifest(manifest, path);
}

void write_artifact(const std::string& path, int state) {
  artifact::ResultArtifact result;
  result.scenario_name = "crash";
  result.scenario_digest = "0123abcd";
  result.n = 64;
  result.rounds = 32 + static_cast<std::uint64_t>(state);
  artifact::write_artifact(result, path);
}

void write_bundle(const std::string& path, int state) {
  const telemetry::TimeSeries series = series_of(state);
  recorder_of(series, state).write_bundle(path);
}

/// `--timeseries-out`: the runners hand the rendered series straight
/// to write_atomic.
void write_timeseries(const std::string& path, int state) {
  common::write_atomic(path, series_of(state).render_text(),
                       "scenario timeseries");
}

void load_timeseries(const std::string& path) {
  if (slurp(path).rfind("iba-timeseries 1\n", 0) != 0) {
    throw std::runtime_error("timeseries: bad header in " + path);
  }
}

struct Writer {
  const char* name;
  std::function<void(const std::string& path, int state)> write;
  std::function<void(const std::string& path)> load;
  bool needs_telemetry = false;
};

const std::vector<Writer>& writers() {
  static const std::vector<Writer> all = {
      {"checkpoint", write_checkpoint,
       [](const std::string& p) { (void)sim::load_checkpoint(p); }},
      {"progress", write_progress,
       [](const std::string& p) { (void)scenario::load_progress(p); }},
      {"record", write_record, load_record, true},
      {"shard", write_shard,
       [](const std::string& p) { (void)dist::load_shard(p); }},
      {"manifest", write_manifest,
       [](const std::string& p) { (void)dist::load_manifest(p); }},
      {"artifact", write_artifact,
       [](const std::string& p) { (void)artifact::read_artifact_text(p); }},
      {"bundle", write_bundle,
       [](const std::string& p) { (void)telemetry::read_bundle_file(p); },
       true},
      {"timeseries", write_timeseries, load_timeseries, true},
  };
  return all;
}

class WriterCrash : public ::testing::TestWithParam<std::size_t> {
 protected:
  void TearDown() override { std::filesystem::remove_all(scratch_dir()); }
  [[nodiscard]] const Writer& writer() const { return writers()[GetParam()]; }
};

TEST_P(WriterCrash, EndsWithADirectoryFsync) {
  if (writer().needs_telemetry && !kTelemetry) GTEST_SKIP();
  const std::string path = scratch_dir() + "/" + writer().name;
  std::vector<Call> calls;
  {
    ScopedHook hook([&calls](Call call, const std::string&) {
      calls.push_back(call);
      return false;
    });
    writer().write(path, 0);
  }
  EXPECT_EQ(calls, kWriteSequence);
}

TEST_P(WriterCrash, EveryFailedCallLeavesTheOldOrTheNewFile) {
  if (writer().needs_telemetry && !kTelemetry) GTEST_SKIP();
  const std::string path = scratch_dir() + "/" + writer().name;
  writer().write(path, 1);
  const std::string fresh = slurp(path);
  writer().write(path, 0);
  const std::string old = slurp(path);
  ASSERT_NE(old, fresh);

  for (std::size_t k = 0; k < kWriteSequence.size(); ++k) {
    writer().write(path, 0);
    std::size_t seen = 0;
    {
      ScopedHook hook(
          [&seen, k](Call, const std::string&) { return seen++ == k; });
      EXPECT_THROW(writer().write(path, 1), std::runtime_error)
          << "call " << k << " failed silently";
    }
    EXPECT_NO_THROW(writer().load(path)) << "after failing call " << k;
    // Until the rename the old file stands; from then on the new one.
    const bool renamed = kWriteSequence[k] > Call::kRename;
    EXPECT_EQ(slurp(path), renamed ? fresh : old) << "call " << k;
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp")) << "call " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    DurableCrash, WriterCrash, ::testing::Range<std::size_t>(0, 8),
    [](const ::testing::TestParamInfo<std::size_t>& param) {
      return std::string(writers()[param.param].name);
    });

// -- the distributed manifest-last commit -------------------------------

constexpr const char* kScenario = R"(
[scenario]
name = crash_probe

[system]
n = 128
c = 2

[arrival]
model = constant
distribution = poisson
lambda = 0.875

[backpressure]
mode = defer
pool-limit = 256
backoff = 4

[run]
rounds = 96
burn-in = 24
seed = 21
)";

/// Real dist::Worker instances on threads over socketpairs. A worker
/// whose shard write fails hangs up, as a crashed process would.
class WorkerFleet {
 public:
  explicit WorkerFleet(std::uint32_t count) {
    for (std::uint32_t i = 0; i < count; ++i) {
      auto [coordinator, worker] = net::socket_pair();
      coordinator_side_.push_back(std::move(coordinator));
      worker_side_.push_back(std::move(worker));
    }
    for (std::uint32_t i = 0; i < count; ++i) {
      threads_.emplace_back([fd = worker_side_[i].fd(), i] {
        try {
          dist::Worker(fd, i).run();
        } catch (...) {
          ::shutdown(fd, SHUT_RDWR);
        }
      });
    }
  }
  WorkerFleet(const WorkerFleet&) = delete;
  WorkerFleet& operator=(const WorkerFleet&) = delete;
  ~WorkerFleet() {
    for (net::Socket& socket : coordinator_side_) socket.close();
    for (std::thread& thread : threads_) thread.join();
  }

  [[nodiscard]] std::vector<int> fds() const {
    std::vector<int> fds;
    for (const net::Socket& socket : coordinator_side_) {
      fds.push_back(socket.fd());
    }
    return fds;
  }

 private:
  std::vector<net::Socket> coordinator_side_;
  std::vector<net::Socket> worker_side_;
  std::vector<std::thread> threads_;
};

constexpr std::uint32_t kWorkers = 2;

scenario::RunOutcome run_dist(const scenario::Scenario& scn,
                              const std::string& base, bool resume,
                              std::uint64_t every, std::uint64_t stop) {
  WorkerFleet fleet(kWorkers);
  dist::DistRunOptions options;
  options.checkpoint_base = base;
  options.resume = resume;
  options.checkpoint_every = every;
  options.stop_after = stop;
  options.timeout_ms = 5'000;
  return dist::run_distributed(scn, fleet.fds(), options);
}

/// Checks that the generation the manifest names is complete and bound
/// together: coordinator file, progress sidecar, and every shard with
/// the CRC the manifest recorded. Returns the generation's round.
std::uint64_t committed_round(const std::string& base) {
  const dist::Manifest manifest = dist::load_manifest(dist::manifest_path(base));
  const std::string coord = dist::coord_path(base, manifest.round);
  EXPECT_EQ(sim::load_checkpoint(coord).round, manifest.round);
  EXPECT_EQ(scenario::load_progress(coord + ".progress").rounds_done,
            manifest.round);
  for (std::uint32_t w = 0; w < manifest.workers; ++w) {
    const std::string shard = dist::shard_path(base, manifest.round, w);
    EXPECT_EQ(dist::load_shard(shard).round, manifest.round);
    const std::string body =
        common::open_envelope(shard, "iba-dist-shard", 1, 1, "shard").body;
    EXPECT_EQ(common::crc32(body), manifest.shard_crcs[w]) << shard;
  }
  return manifest.round;
}

TEST(DurableCrash, DistManifestLastCommitAlwaysLeavesAGenerationThatResumes) {
  const scenario::Scenario scn =
      scenario::parse_scenario(kScenario, "crash.scn");
  const std::string baseline =
      artifact::render_artifact(scenario::run_scenario(scn).artifact);
  const std::string dir = scratch_dir() + "/dist";
  const std::string base = dir + "/gen";
  // Generation 32 is committed cleanly; the run under test resumes from
  // it and commits 64 (checkpoint cadence) and 80 (stop), the second
  // commit also collecting generation 32.
  const auto commit_32 = [&] {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    (void)run_dist(scn, base, false, 0, 32);
  };

  commit_32();
  std::mutex mutex;
  std::vector<std::pair<Call, std::string>> calls;
  {
    ScopedHook hook([&](Call call, const std::string& path) {
      const std::lock_guard<std::mutex> lock(mutex);
      calls.emplace_back(call, path);
      return false;
    });
    (void)run_dist(scn, base, true, 32, 80);
  }
  // Every file of both commits ends with a directory fsync, and the
  // manifest is the last file of each commit.
  std::vector<std::size_t> manifest_renames;
  std::size_t renames = 0;
  std::size_t dir_fsyncs = 0;
  for (std::size_t i = 0; i < calls.size(); ++i) {
    if (calls[i].first == Call::kRename) {
      ++renames;
      if (calls[i].second == dist::manifest_path(base)) {
        manifest_renames.push_back(i);
      }
    }
    if (calls[i].first == Call::kDirFsync) ++dir_fsyncs;
  }
  ASSERT_EQ(manifest_renames.size(), 2u);
  EXPECT_EQ(renames, 2 * (kWorkers + 3));
  EXPECT_EQ(dir_fsyncs, renames);
  EXPECT_EQ(calls.back().first, Call::kDirFsync);
  EXPECT_EQ(calls.size(), renames * kWriteSequence.size());

  for (std::size_t k = 0; k < calls.size(); ++k) {
    commit_32();
    std::atomic<std::size_t> seen{0};
    {
      ScopedHook hook([&seen, k](Call, const std::string&) {
        return seen.fetch_add(1) == k;
      });
      EXPECT_ANY_THROW((void)run_dist(scn, base, true, 32, 80))
          << "call " << k << " failed silently";
    }
    // A commit takes effect with its manifest's rename.
    const std::uint64_t expected =
        k <= manifest_renames[0] ? 32 : (k <= manifest_renames[1] ? 64 : 80);
    std::uint64_t round = 0;
    ASSERT_NO_THROW(round = committed_round(base)) << "call " << k;
    EXPECT_EQ(round, expected) << "call " << k;
    const scenario::RunOutcome resumed = run_dist(scn, base, true, 0, 0);
    EXPECT_TRUE(resumed.complete);
    EXPECT_EQ(artifact::render_artifact(resumed.artifact), baseline)
        << "call " << k;
  }
  std::filesystem::remove_all(scratch_dir());
}

}  // namespace
}  // namespace iba
