// Seeded mutation fuzzer over every durable file format — checkpoint,
// `.progress` and `.record` sidecars, dist shard and manifest (the
// leading-header envelope), result artifact and postmortem bundle (the
// trailing envelope) — and over the IBAF wire frame.
//
// For each format, every mutant below must be rejected with a
// std::runtime_error: no crash, no other exception type, no silent
// acceptance, and no allocation sized by a corrupt field. Pristine
// files must still load. The battery per format:
//
//   * a bit flip at every offset (the bit is drawn from a fixed seed);
//   * truncation at every length;
//   * a splice of two valid files at every cut point (a splice may only
//     load when it is byte-equal to one of its parents);
//   * length-field overflow: 4e9, 2^64-1 and 2^64 in the field that
//     sizes the body (the version field of the trailing envelope, which
//     has no length field);
//   * trailing bytes after a valid file.
//
// The named Checkpoint* cases keep the hand-picked corruption battery
// that used to run through the `simulate` CLI, including the v2
// downlevel load and the valid-CRC v3 controller-field corruptions.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <new>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "artifact/artifact.hpp"
#include "common/durable.hpp"
#include "core/capped.hpp"
#include "dist/checkpoint.hpp"
#include "fault/fault_plan.hpp"
#include "fault/schedule.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "rng/splitmix64.hpp"
#include "scenario/progress.hpp"
#include "sim/checkpoint.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/timeseries.hpp"

// -- allocation guard ---------------------------------------------------
// Every allocation of this binary goes through these operators. A
// loader that sizes a buffer from a corrupt field shows up as the
// largest request, and a request above the ceiling is refused with
// std::bad_alloc instead of being attempted.
namespace {

std::atomic<std::size_t> g_largest_request{0};
constexpr std::size_t kRequestCeiling = std::size_t{256} << 20;

void* guarded_alloc(std::size_t size) {
  std::size_t seen = g_largest_request.load(std::memory_order_relaxed);
  while (size > seen && !g_largest_request.compare_exchange_weak(
                            seen, size, std::memory_order_relaxed)) {
  }
  if (size > kRequestCeiling) throw std::bad_alloc();
  if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
  throw std::bad_alloc();
}

void* guarded_alloc_nothrow(std::size_t size) noexcept {
  try {
    return guarded_alloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}

}  // namespace

void* operator new(std::size_t size) { return guarded_alloc(size); }
void* operator new[](std::size_t size) { return guarded_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return guarded_alloc_nothrow(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return guarded_alloc_nothrow(size);
}
void operator delete(void* block) noexcept { std::free(block); }
void operator delete[](void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }
void operator delete[](void* block, std::size_t) noexcept {
  std::free(block);
}
void operator delete(void* block, const std::nothrow_t&) noexcept {
  std::free(block);
}
void operator delete[](void* block, const std::nothrow_t&) noexcept {
  std::free(block);
}

namespace iba {
namespace {

constexpr std::uint64_t kSeed = 0x1BA5EEDull;
constexpr bool kTelemetry = telemetry::TimeSeries::kEnabled;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void spit(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A per-process scratch directory: ctest runs the cases of this
/// binary as concurrent processes.
std::string scratch_dir() {
  const auto path = std::filesystem::temp_directory_path() /
                    ("iba_durable_fuzz_" + std::to_string(::getpid()));
  std::filesystem::create_directories(path);
  return path.string();
}

// -- pristine files -----------------------------------------------------

core::CappedConfig fuzz_config() {
  core::CappedConfig config;
  config.n = 32;
  config.capacity = 2;
  config.lambda_n = 28;
  config.pool_limit = 48;
  config.backpressure = core::BackpressureMode::kDeferRetry;
  config.backoff_rounds = 2;
  config.control.policy = control::Policy::kSweetSpot;
  config.control.c_max = 4;
  config.control.window = 8;
  config.control.cooldown = 4;
  return config;
}

/// A checkpoint with every section live: faults, backpressure, control.
void make_checkpoint(const std::string& path, int variant) {
  const core::CappedConfig config = fuzz_config();
  core::Capped process(config, core::Engine(7));
  fault::FaultPlan plan(
      fault::parse_schedule("crash@5:bins=0-7,down=4;random-crash:p=0.05,"
                            "down=3"),
      config.n, config.control.c_max, 11);
  process.set_fault_plan(&plan);
  for (int r = 0; r < 20 + 10 * variant; ++r) (void)process.step();
  sim::Checkpoint checkpoint;
  checkpoint.snapshot = process.snapshot();
  checkpoint.has_fault_state = true;
  checkpoint.fault_schedule = fault::to_string(plan.schedule());
  checkpoint.fault_seed = plan.seed();
  checkpoint.fault_state = plan.state();
  sim::save_checkpoint(checkpoint, path);
}

void make_progress(const std::string& path, int variant) {
  scenario::Progress progress;
  progress.digest = variant == 0 ? "0123abcd" : "89efcdab";
  progress.seed = 42;
  progress.rounds_done = 40 + static_cast<std::uint64_t>(variant) * 8;
  progress.audit_rounds = 12;
  progress.pool_sum = 1234 + static_cast<std::uint64_t>(variant);
  progress.pool_min = 3;
  progress.pool_max = 77;
  progress.pool_last = 19;
  progress.load_sum = 4321;
  progress.max_load_peak = 2;
  progress.requeued_sum = 5;
  progress.shed_measured = 1;
  progress.oldest_age_max = 9;
  scenario::save_progress(progress, path);
}

telemetry::TimeSeriesSample sample(std::uint64_t round) {
  telemetry::TimeSeriesSample s;
  s.round = round;
  s.pool_size = 100 + round % 13;
  s.generated = 50;
  s.deleted = 49;
  s.max_load = 2;
  s.capacity = 2;
  return s;
}

constexpr telemetry::FlightRecorderConfig kRecorderConfig{.window = 8};

/// A recorder with history, context and (when compiled in) a latched
/// trigger, over `series`.
telemetry::FlightRecorder armed_recorder(const telemetry::TimeSeries& series,
                                         int variant) {
  telemetry::FlightRecorder recorder(kRecorderConfig);
  recorder.attach_time_series(&series);
  recorder.set_context("fuzz", "deadbeef", 42, 1024);
  recorder.set_engine_fingerprint("0badcafe");
  telemetry::RecordedDecision decision;
  decision.round = 10;
  decision.old_capacity = 2;
  decision.new_capacity = 3;
  decision.lambda_hat_micro = 937500;
  recorder.note_decision(decision);
  recorder.note_event(11, "fault", "crashes +" + std::to_string(3 + variant));
  recorder.trigger(telemetry::TriggerKind::kShedSpike, 12,
                   "shed 99 > threshold 10");
  return recorder;
}

telemetry::TimeSeries observed_series(int variant) {
  telemetry::TimeSeries series;
  for (std::uint64_t r = 1; r <= 20 + 4 * static_cast<std::uint64_t>(variant);
       ++r) {
    series.observe(sample(r));
  }
  return series;
}

void make_record(const std::string& path, int variant) {
  const telemetry::TimeSeries series = observed_series(variant);
  scenario::save_record_sidecar(series, armed_recorder(series, variant),
                                path);
}

void load_record(const std::string& path) {
  telemetry::TimeSeries series;
  telemetry::FlightRecorder recorder(kRecorderConfig);
  scenario::load_record_sidecar(series, recorder, path);
}

void make_shard(const std::string& path, int variant) {
  dist::ShardState shard;
  shard.round = 32 + static_cast<std::uint64_t>(variant);
  shard.bin_lo = 8;
  shard.bin_count = 8;
  shard.capacity = 2;
  shard.queues.resize(8);
  for (std::uint64_t bin = 0; bin < 8; ++bin) {
    for (std::uint64_t i = 0; i < (bin + variant) % 3; ++i) {
      shard.queues[bin].push_back(100 * bin + i);
    }
  }
  (void)dist::save_shard(shard, path);
}

void make_manifest(const std::string& path, int variant) {
  dist::Manifest manifest;
  manifest.round = 32 + static_cast<std::uint64_t>(variant) * 32;
  manifest.n = 64;
  manifest.workers = 2;
  manifest.digest = "0123abcd";
  manifest.seed = 5;
  manifest.shard_crcs = {0x12345678u + static_cast<std::uint32_t>(variant),
                         0x9abcdef0u};
  dist::save_manifest(manifest, path);
}

void make_artifact(const std::string& path, int variant) {
  artifact::ResultArtifact result;
  result.scenario_name = "fuzz";
  result.scenario_digest = "0123abcd";
  result.seed = 42;
  result.n = 64;
  result.capacity_initial = 2;
  result.burn_in = 16;
  result.rounds = 64 + static_cast<std::uint64_t>(variant);
  result.generated_total = 5000;
  result.deleted_total = 4900;
  result.pool_sum = 777;
  result.wait_count = 4900;
  result.wait_sum = 9000;
  result.wait_histogram = {100, 2000, 2800};
  result.has_faults = true;
  result.crashes = 3;
  result.has_control = true;
  result.capacity_final = 3;
  result.control_changes = 1;
  result.checks.push_back({"max-shed", "0", "0", true});
  artifact::write_artifact(result, path);
}

void make_bundle(const std::string& path, int variant) {
  const telemetry::TimeSeries series = observed_series(variant);
  armed_recorder(series, variant).write_bundle(path);
}

/// The fuzzed frame stream holds exactly one frame; the loader reads
/// with a caller ceiling, as every reader of the wire does.
constexpr std::uint32_t kFrameCeiling = 4096;

void make_frame(const std::string& path, int variant) {
  std::vector<std::uint8_t> payload(40);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 7 + variant);
  }
  // Frames are written to sockets; capture the bytes off a socketpair.
  auto [writer, reader] = net::socket_pair();
  net::write_frame(writer.fd(), 7 + static_cast<std::uint32_t>(variant),
                   payload);
  writer.close();
  std::string bytes;
  char chunk[256];
  for (ssize_t got; (got = ::read(reader.fd(), chunk, sizeof(chunk))) > 0;) {
    bytes.append(chunk, static_cast<std::size_t>(got));
  }
  spit(path, bytes);
}

void load_frame(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw std::runtime_error("cannot open " + path);
  std::uint32_t type = 0;
  std::vector<std::uint8_t> payload;
  try {
    if (!net::read_frame(fd, type, payload, kFrameCeiling)) {
      throw std::runtime_error("frame: empty stream");
    }
    if (net::read_frame(fd, type, payload, kFrameCeiling)) {
      throw std::runtime_error("frame: more than one frame");
    }
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
}

// -- field rewrites -----------------------------------------------------

/// Replaces token `index` of the first line (space-separated).
std::string with_header_token(const std::string& bytes, std::size_t index,
                              const std::string& value) {
  const std::size_t eol = bytes.find('\n');
  std::size_t begin = 0;
  for (std::size_t i = 0; i < index; ++i) begin = bytes.find(' ', begin) + 1;
  const std::size_t end = std::min(bytes.find(' ', begin), eol);
  return bytes.substr(0, begin) + value + bytes.substr(end);
}

/// The IBAF length field is a little-endian u32 at offset 8; values
/// beyond it saturate.
std::string with_frame_length(const std::string& bytes,
                              const std::string& value) {
  std::uint64_t wide = 0;
  try {
    wide = std::stoull(value);
  } catch (const std::out_of_range&) {
    wide = UINT64_MAX;
  }
  const std::uint32_t length =
      wide > UINT32_MAX ? UINT32_MAX : static_cast<std::uint32_t>(wide);
  std::string out = bytes;
  for (int i = 0; i < 4; ++i) {
    out[8 + i] = static_cast<char>((length >> (8 * i)) & 0xFFu);
  }
  return out;
}

struct Format {
  const char* name;
  std::function<void(const std::string& path, int variant)> make;
  std::function<void(const std::string& path)> load;
  /// Rewrites the field that sizes the body (see the file comment).
  std::function<std::string(const std::string& bytes,
                            const std::string& value)>
      with_length;
  bool needs_telemetry = false;
};

std::string with_envelope_length(const std::string& bytes,
                                 const std::string& value) {
  return with_header_token(bytes, 3, value);
}

std::string with_trailer_version(const std::string& bytes,
                                 const std::string& value) {
  return with_header_token(bytes, 1, value);
}

const std::vector<Format>& formats() {
  static const std::vector<Format> all = {
      {"checkpoint", make_checkpoint,
       [](const std::string& p) { (void)sim::load_checkpoint_full(p); },
       with_envelope_length},
      {"progress", make_progress,
       [](const std::string& p) { (void)scenario::load_progress(p); },
       with_envelope_length},
      {"record", make_record, load_record, with_envelope_length, true},
      {"shard", make_shard,
       [](const std::string& p) { (void)dist::load_shard(p); },
       with_envelope_length},
      {"manifest", make_manifest,
       [](const std::string& p) { (void)dist::load_manifest(p); },
       with_envelope_length},
      {"artifact", make_artifact,
       [](const std::string& p) { (void)artifact::read_artifact_text(p); },
       with_trailer_version},
      {"bundle", make_bundle,
       [](const std::string& p) { (void)telemetry::read_bundle_file(p); },
       with_trailer_version, true},
      {"frame", make_frame, load_frame, with_frame_length},
  };
  return all;
}

class FormatFuzz : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override {
    if (format().needs_telemetry && !kTelemetry) {
      GTEST_SKIP() << "needs the telemetry instruments";
    }
    const std::string base = scratch_dir() + "/" + format().name;
    format().make(base + ".a", 0);
    format().make(base + ".b", 1);
    pristine_a_ = slurp(base + ".a");
    pristine_b_ = slurp(base + ".b");
    ASSERT_FALSE(pristine_a_.empty());
    ASSERT_NE(pristine_a_, pristine_b_);
    mutant_ = base + ".mutant";
  }

  void TearDown() override {
    std::filesystem::remove_all(scratch_dir());
  }

  [[nodiscard]] const Format& format() const {
    return formats()[GetParam()];
  }

  /// Loads `bytes`; nullopt when accepted, else the rejection message.
  /// Any exception other than std::runtime_error escapes and fails the
  /// test.
  std::optional<std::string> rejection(std::string_view bytes) {
    spit(mutant_, bytes);
    try {
      format().load(mutant_);
      return std::nullopt;
    } catch (const std::runtime_error& error) {
      return std::string(error.what());
    }
  }

  /// Expects `bytes` to be rejected; returns false (after reporting)
  /// when it was accepted.
  bool expect_rejected(std::string_view bytes, const std::string& what) {
    if (rejection(bytes).has_value()) return true;
    ADD_FAILURE() << format().name << ": accepted " << what;
    return false;
  }

  std::string pristine_a_;
  std::string pristine_b_;
  std::string mutant_;
};

/// Stops a battery after a handful of reported failures.
constexpr int kMaxReports = 5;

TEST_P(FormatFuzz, PristineFilesLoad) {
  EXPECT_FALSE(rejection(pristine_a_).has_value());
  EXPECT_FALSE(rejection(pristine_b_).has_value());
}

TEST_P(FormatFuzz, BitFlipAtEveryOffsetIsRejected) {
  rng::SplitMix64 bits(kSeed);
  int reports = 0;
  for (std::size_t offset = 0; offset < pristine_a_.size(); ++offset) {
    std::string bad = pristine_a_;
    const int bit = static_cast<int>(bits() % 8);
    bad[offset] = static_cast<char>(bad[offset] ^ (1 << bit));
    if (!expect_rejected(bad, "bit " + std::to_string(bit) + " flipped at " +
                                  std::to_string(offset)) &&
        ++reports == kMaxReports) {
      break;
    }
  }
}

TEST_P(FormatFuzz, TruncationAtEveryLengthIsRejected) {
  int reports = 0;
  for (std::size_t keep = 0; keep < pristine_a_.size(); ++keep) {
    if (!expect_rejected(std::string_view(pristine_a_).substr(0, keep),
                         "truncation to " + std::to_string(keep)) &&
        ++reports == kMaxReports) {
      break;
    }
  }
}

TEST_P(FormatFuzz, SpliceOfTwoValidFilesIsRejected) {
  int reports = 0;
  const std::size_t cuts = std::min(pristine_a_.size(), pristine_b_.size());
  for (std::size_t cut = 1; cut < cuts; ++cut) {
    const std::string splice =
        pristine_a_.substr(0, cut) + pristine_b_.substr(cut);
    // A splice at a cut inside the common prefix or suffix is simply
    // one of the parents, which is valid.
    if (splice == pristine_a_ || splice == pristine_b_) continue;
    if (!expect_rejected(splice, "splice at " + std::to_string(cut)) &&
        ++reports == kMaxReports) {
      break;
    }
  }
}

TEST_P(FormatFuzz, LengthField4e9IsRejectedWithoutAllocating) {
  const std::string bad = format().with_length(pristine_a_, "4000000000");
  g_largest_request = 0;
  const auto error = rejection(bad);
  const std::size_t largest = g_largest_request;
  EXPECT_TRUE(error.has_value()) << "length field 4e9 accepted";
  EXPECT_LT(largest, bad.size() + (std::size_t{64} << 10))
      << "the loader allocated " << largest << " bytes for a " << bad.size()
      << "-byte file";
}

TEST_P(FormatFuzz, LengthField2e64Minus1IsARuntimeError) {
  EXPECT_TRUE(rejection(format().with_length(pristine_a_,
                                             "18446744073709551615"))
                  .has_value());
}

TEST_P(FormatFuzz, LengthFieldPast2e64IsARuntimeError) {
  EXPECT_TRUE(rejection(format().with_length(pristine_a_,
                                             "18446744073709551616"))
                  .has_value());
}

TEST_P(FormatFuzz, TrailingBytesAreRejected) {
  expect_rejected(pristine_a_ + "x", "one trailing byte");
  expect_rejected(pristine_a_ + "\n", "a trailing newline");
  expect_rejected(pristine_a_ + pristine_b_, "a second valid file");
}

INSTANTIATE_TEST_SUITE_P(
    DurableFuzz, FormatFuzz, ::testing::Range<std::size_t>(0, 8),
    [](const ::testing::TestParamInfo<std::size_t>& param) {
      return std::string(formats()[param.param].name);
    });

// -- the named checkpoint cases -----------------------------------------

class CheckpointCases : public ::testing::Test {
 protected:
  void SetUp() override {
    // A checkpoint of a crash-and-random-crash run ...
    core::CappedConfig config;
    config.n = 512;
    config.capacity = 2;
    config.lambda_n = 448;  // λ = 0.875
    checkpoint_ = path("seed.ckpt");
    {
      core::Capped process(config, core::Engine(7));
      fault::FaultPlan plan(
          fault::parse_schedule(
              "crash@30:bins=0-255,down=10;random-crash:p=0.01,down=5"),
          config.n, config.capacity, 1);
      process.set_fault_plan(&plan);
      for (int r = 0; r < 80; ++r) (void)process.step();
      sim::Checkpoint ckpt;
      ckpt.snapshot = process.snapshot();
      ckpt.has_fault_state = true;
      ckpt.fault_schedule = fault::to_string(plan.schedule());
      ckpt.fault_seed = plan.seed();
      ckpt.fault_state = plan.state();
      sim::save_checkpoint(ckpt, checkpoint_);
    }
    // ... and one of a sweet-spot run from c = 1 at λ = 1 − 2⁻⁵, so the
    // controller has applied a change before the save: counters,
    // cooldown and policy memory are non-trivial.
    core::CappedConfig control = config;
    control.capacity = 1;
    control.lambda_n = 496;
    control.control.policy = control::Policy::kSweetSpot;
    control.control.c_max = 8;
    control.control.window = 16;
    control.control.cooldown = 8;
    control_checkpoint_ = path("control.ckpt");
    core::Capped process(control, core::Engine(7));
    for (int r = 0; r < 80; ++r) (void)process.step();
    ASSERT_GT(process.snapshot().controller.changes, 0u);
    sim::save_checkpoint(process.snapshot(), control_checkpoint_);
  }

  void TearDown() override {
    std::filesystem::remove_all(scratch_dir());
  }

  static std::string path(const std::string& name) {
    return scratch_dir() + "/" + name;
  }

  /// Resumes `file` for `rounds` rounds (rebuilding the fault plan it
  /// carries) and returns the checkpoint bytes at the end.
  static std::string resume(const std::string& file, int rounds) {
    const sim::Checkpoint ckpt = sim::load_checkpoint_full(file);
    core::Capped process(ckpt.snapshot);
    std::optional<fault::FaultPlan> plan;
    if (ckpt.has_fault_state) {
      plan.emplace(fault::parse_schedule(ckpt.fault_schedule),
                   ckpt.snapshot.config.n, ckpt.snapshot.config.capacity,
                   ckpt.fault_seed);
      plan->restore(ckpt.fault_state);
      process.set_fault_plan(&*plan);
    }
    for (int r = 0; r < rounds; ++r) (void)process.step();
    sim::Checkpoint out;
    out.snapshot = process.snapshot();
    if (plan.has_value()) {
      out.has_fault_state = true;
      out.fault_schedule = ckpt.fault_schedule;
      out.fault_seed = plan->seed();
      out.fault_state = plan->state();
    }
    const std::string saved = path("resumed.ckpt");
    sim::save_checkpoint(out, saved);
    return slurp(saved);
  }

  /// The checkpoint body (everything after the header line).
  static std::string body_of(const std::string& file) {
    const std::string bytes = slurp(file);
    return bytes.substr(bytes.find('\n') + 1);
  }

  static std::vector<std::string> split_lines(const std::string& text) {
    std::vector<std::string> lines;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    return lines;
  }

  static std::string join_lines(const std::vector<std::string>& lines) {
    std::string out;
    for (const std::string& line : lines) out += line + '\n';
    return out;
  }

  static std::vector<std::string> tokens(const std::string& line) {
    std::vector<std::string> out;
    std::istringstream in(line);
    for (std::string token; in >> token;) out.push_back(token);
    return out;
  }

  static std::string join_tokens(const std::vector<std::string>& words) {
    std::string out;
    for (const std::string& word : words) {
      if (!out.empty()) out += ' ';
      out += word;
    }
    return out;
  }

  /// Writes `body` under a freshly computed header, so the mutation is
  /// judged by the field validation layer, not by the checksum.
  static std::string resealed(const std::string& name,
                              const std::string& body,
                              std::uint32_t version = 3) {
    const std::string file = path(name);
    spit(file, common::seal_envelope("iba-checkpoint", version, body));
    return file;
  }

  static void expect_rejected(const std::string& file) {
    EXPECT_THROW((void)sim::load_checkpoint_full(file), std::runtime_error)
        << file;
  }

  std::string checkpoint_;
  std::string control_checkpoint_;
};

TEST_F(CheckpointCases, PristineCheckpointsResume) {
  EXPECT_FALSE(resume(checkpoint_, 20).empty());
  EXPECT_FALSE(resume(control_checkpoint_, 20).empty());
}

TEST_F(CheckpointCases, BitFlipsAtSpreadOffsetsAreRejected) {
  const std::string good = slurp(checkpoint_);
  const std::size_t size = good.size();
  for (const std::size_t offset :
       {std::size_t{0}, std::size_t{5}, std::size_t{17}, std::size_t{40},
        std::size_t{100}, size / 4, size / 2, 3 * size / 4, size - 2}) {
    std::string bad = good;
    bad[offset] = static_cast<char>(bad[offset] ^ 4);
    spit(path("flip"), bad);
    expect_rejected(path("flip"));
  }
}

TEST_F(CheckpointCases, TruncationsAreRejected) {
  const std::string good = slurp(checkpoint_);
  const std::size_t size = good.size();
  for (const std::size_t keep : {std::size_t{0}, std::size_t{1},
                                 std::size_t{10}, size / 10, size / 2,
                                 size - 1}) {
    spit(path("cut"), good.substr(0, keep));
    expect_rejected(path("cut"));
  }
}

TEST_F(CheckpointCases, PlainTextGarbageIsRejected) {
  spit(path("garbage"), "not a checkpoint\n");
  expect_rejected(path("garbage"));
}

TEST_F(CheckpointCases, AllZeroFileIsRejected) {
  spit(path("zeros"), std::string(512, '\0'));
  expect_rejected(path("zeros"));
}

TEST_F(CheckpointCases, DownlevelV1HeaderIsRejected) {
  spit(path("downlevel"), "iba-checkpoint 1 0 0\n");
  expect_rejected(path("downlevel"));
}

TEST_F(CheckpointCases, LengthLyingHeaderIsRejected) {
  spit(path("liar"), "iba-checkpoint 2 0 999999999\n");
  expect_rejected(path("liar"));
}

TEST_F(CheckpointCases, AppendedTrailingBytesAreRejected) {
  spit(path("appended"), slurp(checkpoint_) + "trailing garbage");
  expect_rejected(path("appended"));
}

TEST_F(CheckpointCases, TruncatedEstimatorBlockWithValidCrcIsRejected) {
  const std::string body = body_of(control_checkpoint_);
  const std::size_t at = body.find("control-estimator");
  ASSERT_NE(at, std::string::npos);
  expect_rejected(
      resealed("est_trunc", body.substr(0, body.find('\n', at) + 20)));
}

TEST_F(CheckpointCases, ControlPolicyIdOutOfRangeWithValidCrcIsRejected) {
  std::vector<std::string> lines = split_lines(body_of(control_checkpoint_));
  std::vector<std::string> config = tokens(lines.front());
  ASSERT_EQ(config.size(), 20u);
  config[14] = "9";  // the control policy enum
  lines.front() = join_tokens(config);
  expect_rejected(resealed("policy_oob", join_lines(lines)));
}

TEST_F(CheckpointCases, CooldownUntilBitFlipWithValidCrcIsRejected) {
  // The loader bounds cooldown_until by round + cooldown, so a value
  // inflated by bit 40 must be named, not loaded.
  std::vector<std::string> lines = split_lines(body_of(control_checkpoint_));
  bool found = false;
  for (std::string& line : lines) {
    if (line.rfind("control-controller ", 0) != 0) continue;
    std::vector<std::string> words = tokens(line);
    words[1] = std::to_string(std::stoull(words[1]) ^ (1ull << 40));
    line = join_tokens(words);
    found = true;
  }
  ASSERT_TRUE(found);
  expect_rejected(resealed("cooldown_flip", join_lines(lines)));
}

TEST_F(CheckpointCases, V2DownlevelLoadsAndResumesLikeItsV3Twin) {
  // A v2 body is a control-free v3 body minus the six control tokens of
  // the config line and the `control 0` section flag.
  std::vector<std::string> v2;
  for (const std::string& line : split_lines(body_of(checkpoint_))) {
    if (line == "control 0") continue;
    if (line.rfind("config ", 0) == 0) {
      std::vector<std::string> words = tokens(line);
      ASSERT_EQ(words.size(), 20u);
      words.resize(14);
      v2.push_back(join_tokens(words));
    } else {
      v2.push_back(line);
    }
  }
  const std::string downlevel = resealed("downlevel_v2", join_lines(v2), 2);
  const sim::Checkpoint loaded = sim::load_checkpoint_full(downlevel);
  EXPECT_FALSE(loaded.snapshot.config.control.enabled());
  EXPECT_EQ(resume(downlevel, 20), resume(checkpoint_, 20));
}

}  // namespace
}  // namespace iba
