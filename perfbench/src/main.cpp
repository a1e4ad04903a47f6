// perfbench — the repository benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>] [--record <file.json>] [--source-id <id>]
//
// Runs the workload's scenario (generated from the seed) back to back
// for the given seconds, gates every execution (ball conservation, empty
// deferred backlog, [expect] bounds, artifact bytes equal to the
// reference run_scenario execution) and prints one JSON object as the
// last line of stdout: the end-to-end metrics with --trace 0, the
// per-layer metrics of a separate traced execution with --trace 1.
// The full record (context, metrics, per-round budget) goes to
// --record; traced runs also write their spans beside it, once, at exit.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "execution.hpp"
#include "gate.hpp"
#include "scenario/scenario.hpp"
#include "trace.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  bool has_seed = false;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/perfbench-work";
  std::string record;
  std::string source_id = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s>"
               " --trace <0|1> [--work-dir <dir>] [--record <file>]"
               " [--source-id <id>]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
        args.has_seed = true;
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--work-dir") {
        args.work_dir = value;
      } else if (flag == "--record") {
        args.record = value;
      } else if (flag == "--source-id") {
        args.source_id = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

std::string num(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + '"';
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

/// Nearest-rank percentile: with N >= 100 samples the p90 leaves at
/// least ten samples above it.
double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::max<std::size_t>(rank, 1) - 1];
}

double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(metrics[i].name) + ": {\"value\": " + num(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::uint64_t cache_bytes(int level) {
  const long size = ::sysconf(level == 2 ? _SC_LEVEL2_CACHE_SIZE
                                         : _SC_LEVEL3_CACHE_SIZE);
  return size > 0 ? static_cast<std::uint64_t>(size) : 0;
}

/// Everything measured over one set of executions.
struct Measured {
  std::vector<double> round_balls_per_s;
  std::vector<double> round_ms_p50;  // one per execution
  std::vector<double> round_ms_p90;  // one per execution
  double thrown = 0.0;
  double accepted = 0.0;
  std::uint64_t deferred_peak = 0;
  std::vector<double> run_s;
  std::vector<double> setup_s;
  WindowCounters window;  // summed
  std::size_t rounds = 0;

  void add(const Execution& e) {
    std::vector<double> round_ms;
    for (const RoundRecord& r : e.rounds) {
      round_ms.push_back(static_cast<double>(r.wall_ns) * 1e-6);
      round_balls_per_s.push_back(ratio(static_cast<double>(r.thrown),
                                        static_cast<double>(r.wall_ns) * 1e-9));
      thrown += static_cast<double>(r.thrown);
      accepted += static_cast<double>(r.accepted);
      deferred_peak = std::max(deferred_peak, r.deferred);
    }
    round_ms_p50.push_back(percentile(round_ms, 0.5));
    round_ms_p90.push_back(percentile(round_ms, 0.9));
    rounds += e.rounds.size();
    run_s.push_back(e.run_s);
    setup_s.push_back(e.setup_s);
    window.wall_s += e.window.wall_s;
    window.cpu_s += e.window.cpu_s;
    window.minor_faults += e.window.minor_faults;
    window.ctx_switches += e.window.ctx_switches;
    window.rchar += e.window.rchar;
    window.coordinator_cpu_s += e.window.coordinator_cpu_s;
    window.worker_cpu_s.resize(e.window.worker_cpu_s.size());
    for (std::size_t i = 0; i < e.window.worker_cpu_s.size(); ++i) {
      window.worker_cpu_s[i] += e.window.worker_cpu_s[i];
    }
  }
};

/// Span statistics of a traced run, restricted to measured rounds where
/// a round id applies.
struct SpanStats {
  std::map<std::string, std::vector<double>> ms;  // every span, by name
  std::map<std::string, double> measured_ns;      // durations, measured rounds
  std::map<std::string, double> measured_self_ns;
  std::map<std::string, std::vector<double>> measured_ms;
  std::size_t unbalanced = 0;

  SpanStats(const std::vector<Span>& spans, std::uint64_t burn_in) {
    const std::vector<std::int64_t> self = self_times(spans);
    unbalanced = unbalanced_roots(spans, self, "scenario.round");
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const std::string name(s.name);
      const double d = static_cast<double>(s.duration());
      ms[name].push_back(d * 1e-6);
      if (s.round > burn_in) {
        measured_ns[name] += d;
        measured_self_ns[name] += static_cast<double>(self[i]);
        measured_ms[name].push_back(d * 1e-6);
      }
    }
  }

  [[nodiscard]] double median_ms(const std::string& name) const {
    const auto it = ms.find(name);
    return it == ms.end() ? 0.0 : median(it->second);
  }
  [[nodiscard]] double measured(const std::string& name) const {
    const auto it = measured_ns.find(name);
    return it == measured_ns.end() ? 0.0 : it->second;
  }
  [[nodiscard]] double measured_self(const std::string& name) const {
    const auto it = measured_self_ns.find(name);
    return it == measured_self_ns.end() ? 0.0 : it->second;
  }
  [[nodiscard]] double measured_pct(const std::string& name, double q) const {
    const auto it = measured_ms.find(name);
    return it == measured_ms.end() ? 0.0 : percentile(it->second, q);
  }
};

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const auto workload = workload_from_name(args.workload);
  if (!workload) usage("unknown workload '" + args.workload + "'");
  const std::uint64_t seed =
      args.has_seed ? args.seed : info(*workload).default_seed;
  const std::string text = scenario_text(*workload, seed);
  const iba::scenario::Scenario scn =
      iba::scenario::parse_scenario(text, "<perfbench>");
  std::filesystem::create_directories(args.work_dir);

  // The reference execution runs first: it is the comparison every gate
  // needs, and it warms the page cache and allocator before timing.
  std::string reference;
  std::vector<std::string> failures;
  const auto reference_start = std::chrono::steady_clock::now();
  try {
    reference = reference_bytes(text);
  } catch (const std::exception& error) {
    failures.push_back(std::string("reference execution: ") + error.what());
  }
  const double reference_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    reference_start)
          .count();

  Tracer tracer;
  Tracer* const traced = args.trace ? &tracer : nullptr;

  // Set-up time: a fixed number of constructions, right after the
  // reference execution so that every run times them from the same
  // allocator state, reported as a median together with the set-ups
  // inside the measured executions.
  std::vector<double> setups;
  for (int i = 0; i < 25; ++i) {
    setups.push_back(setup_once(*workload, text, traced));
  }

  const ExecOptions plain{args.work_dir, nullptr};
  const ExecOptions with_spans{args.work_dir, &tracer};
  std::vector<Execution> untraced;
  std::vector<Execution> spanned;
  // ops_mix's traced run also drives its scenario through the distributed
  // engine, as dist_mix does: the dist and net layers are measured there,
  // while ops_mix's end-to-end runs stay single-process.
  const bool with_dist = args.trace && *workload == Workload::kOpsMix;
  Tracer dist_tracer;
  std::vector<Execution> dist_spanned;
  const auto start = std::chrono::steady_clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  // The high-water mark is read after the first execution: what ran
  // before it is fixed, while how many executions follow depends on the
  // host's speed, and each only adds what the allocator keeps between
  // them.
  double peak_rss = 0.0;
  const auto run_one = [&](std::vector<Execution>& into, Workload kind,
                           const ExecOptions& options) {
    into.push_back(execute(kind, text, options));
    if (peak_rss == 0.0) peak_rss = peak_rss_mb();
  };
  // Executions run back to back while the next one is expected to end
  // `until` seconds into the measuring time; there is always at least one.
  const auto measure = [&](std::vector<Execution>& into, Workload kind,
                           const ExecOptions& options, double until) {
    const double begin = elapsed();
    do {
      run_one(into, kind, options);
    } while (elapsed() + (elapsed() - begin) / static_cast<double>(into.size()) <=
             until);
  };
  if (args.trace) {
    run_one(untraced, *workload, plain);
    measure(spanned, *workload, with_spans,
            with_dist ? args.seconds / 2 : args.seconds);
    if (with_dist) {
      measure(dist_spanned, Workload::kDistMix, {args.work_dir, &dist_tracer},
              args.seconds);
    }
  } else {
    measure(untraced, *workload, plain, args.seconds);
  }

  // Gate every execution; a traced one must also reproduce the untraced
  // run's bytes.
  std::size_t attempted = 0;
  std::size_t failed = 0;
  Measured plain_m;
  Measured span_m;
  Measured dist_m;
  const Execution* sample = nullptr;
  const auto gate = [&](const Execution& e, Measured& into) {
    ++attempted;
    std::vector<std::string> why;
    if (!e.error.empty()) {
      why.push_back("execution threw: " + e.error);
    } else {
      why = check_gate(e.ledger, e.artifact, e.on_disk, reference);
      if (&into != &plain_m && e.on_disk != untraced.front().on_disk) {
        why.push_back("traced artifact differs from the untraced one");
      }
      into.add(e);
      if (sample == nullptr) sample = &e;
    }
    if (!why.empty()) {
      ++failed;
      failures.insert(failures.end(), why.begin(), why.end());
    }
    return why.empty();
  };
  for (const Execution& e : untraced) gate(e, plain_m);
  std::size_t spanned_ok = 0;
  for (const Execution& e : spanned) spanned_ok += gate(e, span_m) ? 1 : 0;
  for (const Execution& e : dist_spanned) spanned_ok += gate(e, dist_m) ? 1 : 0;

  std::vector<Metric> metrics;
  std::map<std::string, double> budget_ms;
  const double n = static_cast<double>(scn.n);
  if (!args.trace) {
    Measured& m = plain_m;
    m.setup_s.insert(m.setup_s.end(), setups.begin(), setups.end());
    const iba::artifact::ResultArtifact* a = sample ? &sample->artifact : nullptr;
    metrics = {
        {"balls_per_s", "balls/s", median(m.round_balls_per_s)},
        {"round_ms_p50", "ms", median(m.round_ms_p50)},
        {"round_ms_p90", "ms", median(m.round_ms_p90)},
        {"run_s", "s", median(m.run_s)},
        {"setup_s", "s", median(m.setup_s)},
        {"peak_rss_mb", "MB", peak_rss},
        {"wait_mean", "rounds",
         a ? ratio(static_cast<double>(a->wait_sum),
                   static_cast<double>(a->wait_count))
           : 0.0},
        {"wait_max", "rounds", a ? static_cast<double>(a->wait_max) : 0.0},
        {"pool_over_n", "ratio",
         a ? ratio(static_cast<double>(a->pool_sum),
                   static_cast<double>(a->rounds) * n)
           : 0.0},
    };
  } else {
    // The layer self times plus the remainder must add up to each traced
    // round's wall time; if not, no traced execution counts as correct.
    const SpanStats spans(tracer.spans(), scn.burn_in);
    const SpanStats dist_only(dist_tracer.spans(), scn.burn_in);
    const std::size_t unbalanced = spans.unbalanced + dist_only.unbalanced;
    if (unbalanced > 0) {
      failures.push_back(std::to_string(unbalanced) +
                         " traced rounds whose self times do not sum to "
                         "the round wall time");
      failed += spanned_ok;
    }
    const Measured& m = span_m;
    // The dist and net layers: ops_mix's distributed executions, or the
    // workload's own when it is distributed.
    const SpanStats& ds = with_dist ? dist_only : spans;
    const Measured& dm = with_dist ? dist_m : m;
    const double rounds = static_cast<double>(m.rounds);
    const double round_wall = spans.measured("scenario.round");
    const bool split = spans.ms.count("rng.fill_bounded") > 0;
    const std::string kernel = split ? "core.step_with_choices" : "core.step";
    double worker_mean = 0.0;
    double worker_max = 0.0;
    for (const double cpu : dm.window.worker_cpu_s) {
      const double share = ratio(cpu, dm.window.wall_s);
      worker_mean += share / static_cast<double>(dm.window.worker_cpu_s.size());
      worker_max = std::max(worker_max, share);
    }
    const double dist_step = ds.measured("dist.step");
    const double coord_busy = ratio(dm.window.coordinator_cpu_s, dist_step * 1e-9);
    const double checkpoint_ns =
        spans.measured("core.snapshot") + spans.measured("sim.save_checkpoint") +
        spans.measured("scenario.save_progress") +
        spans.measured("dist.save_checkpoint");
    const double untraced_run =
        untraced.empty() ? 0.0 : untraced.front().run_s;
    const iba::artifact::ResultArtifact* a = sample ? &sample->artifact : nullptr;
    metrics = {
        {"rng.draw_ns_per_ball", "ns/ball",
         ratio(spans.measured("rng.fill_bounded"), m.thrown)},
        {"rng.draw_share", "ratio",
         ratio(spans.measured("rng.fill_bounded"), round_wall)},
        {"core.kernel_ns_per_ball", "ns/ball",
         ratio(spans.measured(kernel), m.thrown)},
        {"core.step_ms_p50", "ms", spans.measured_pct(kernel, 0.5)},
        {"core.construct_s", "s", spans.median_ms("core.Capped") * 1e-3},
        {"core.minor_faults_per_round", "faults/round",
         ratio(static_cast<double>(m.window.minor_faults), rounds)},
        {"core.snapshot_ms_p50", "ms", spans.median_ms("core.snapshot")},
        {"core.thrown_per_round", "balls/round", ratio(m.thrown, rounds)},
        {"core.accept_ratio", "ratio", ratio(m.accepted, m.thrown)},
        {"core.deferred_peak_over_n", "ratio",
         static_cast<double>(m.deferred_peak) / n},
        {"concurrency.cores_busy", "cores", ratio(m.window.cpu_s, m.window.wall_s)},
        {"concurrency.ctx_switches_per_round", "switches/round",
         ratio(static_cast<double>(m.window.ctx_switches), rounds)},
        {"control.changes", "count",
         a ? static_cast<double>(a->control_changes) : 0.0},
        {"sim.checkpoint_ms_p50", "ms", spans.median_ms("sim.save_checkpoint")},
        {"sim.checkpoint_bytes", "bytes",
         sample ? static_cast<double>(sample->checkpoint_bytes) : 0.0},
        {"sim.checkpoint_share", "ratio", ratio(checkpoint_ns, round_wall)},
        {"scenario.parse_ms", "ms", spans.median_ms("scenario.parse_scenario")},
        {"scenario.loop_self_share", "ratio",
         ratio(spans.measured_self("scenario.round"), round_wall)},
        {"artifact.write_ms", "ms", spans.median_ms("artifact.write_artifact")},
        {"dist.init_s", "s", ds.median_ms("dist.init") * 1e-3},
        {"dist.step_ms_p50", "ms", ds.measured_pct("dist.step", 0.5)},
        {"dist.step_ms_p90", "ms", ds.measured_pct("dist.step", 0.9)},
        {"dist.coord_busy_share", "ratio", coord_busy},
        {"dist.wait_share", "ratio",
         dist_step > 0.0 ? std::max(0.0, 1.0 - coord_busy) : 0.0},
        {"dist.worker_busy_share_mean", "ratio", worker_mean},
        {"dist.worker_busy_share_max", "ratio", worker_max},
        {"dist.checkpoint_ms_p50", "ms", ds.median_ms("dist.save_checkpoint")},
        {"net.rx_bytes_per_round", "bytes/round",
         ratio(static_cast<double>(dm.window.rchar),
               static_cast<double>(dm.rounds))},
        {"trace.overhead_share", "ratio",
         untraced_run > 0.0 ? median(m.run_s) / untraced_run - 1.0 : 0.0},
    };
    // Per-round budget: self time per span name inside measured rounds;
    // the rows (scenario.round being the remainder) sum to the round wall.
    for (const auto& [name, self_ns] : spans.measured_self_ns) {
      budget_ms[name] = ratio(self_ns * 1e-6, rounds);
    }
  }

  const bool correct = failures.empty() && !reference.empty() && failed == 0 &&
                       attempted > 0;

  // Context and the full record.
  std::ostringstream context;
  context << "{\"nproc\": " << std::thread::hardware_concurrency()
          << ", \"l2_bytes\": " << cache_bytes(2)
          << ", \"l3_bytes\": " << cache_bytes(3)
          << ", \"workload\": " << json_string(args.workload)
          << ", \"seed\": " << seed << ", \"n\": " << scn.n
          << ", \"working_set\": {\"peak_rss_mb\": " << num(peak_rss)
          << ", \"bin_table_bytes_computed\": "
          << (sample ? sample->bin_table_bytes : 0) << "}"
          << ", \"reference_s\": " << num(reference_s)
          << ", \"executions\": " << attempted
          << ", \"measured_rounds\": "
          << (args.trace ? span_m.rounds : plain_m.rounds)
          << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
          << ", \"compiler\": " << json_string(std::string("gcc ") + __VERSION__)
          << ", \"source\": " << json_string(args.source_id) << "}";
  std::string budget = "{";
  for (const auto& [name, value] : budget_ms) {
    if (budget.size() > 1) budget += ", ";
    budget += json_string(name) + ": " + num(value);
  }
  budget += "}";
  std::string run_list = "{\"untraced\": [";
  for (std::size_t i = 0; i < untraced.size(); ++i) {
    run_list += (i > 0 ? ", " : "") + num(untraced[i].run_s);
  }
  run_list += "], \"traced\": [";
  for (std::size_t i = 0; i < spanned.size(); ++i) {
    run_list += (i > 0 ? ", " : "") + num(spanned[i].run_s);
  }
  run_list += "], \"dist_traced\": [";
  for (std::size_t i = 0; i < dist_spanned.size(); ++i) {
    run_list += (i > 0 ? ", " : "") + num(dist_spanned[i].run_s);
  }
  run_list += "]}";
  std::string failure_list = "[";
  for (std::size_t i = 0; i < failures.size() && i < 20; ++i) {
    if (i > 0) failure_list += ", ";
    failure_list += json_string(failures[i]);
  }
  failure_list += "]";

  if (!args.record.empty()) {
    std::filesystem::create_directories(
        std::filesystem::path(args.record).parent_path());
    std::ofstream record(args.record);
    record << "{\"context\": " << context.str() << ", \"trace\": "
           << (args.trace ? "true" : "false") << ", \"correct\": "
           << (correct ? "true" : "false") << ", \"failures\": " << failure_list
           << ", \"run_s\": " << run_list
           << ", \"metrics\": " << metrics_json(metrics)
           << ", \"budget_ms_per_round\": " << budget << "}\n";
    if (args.trace) {
      std::ofstream csv(args.record + ".spans.csv");
      tracer.write_csv(csv);
      if (with_dist) {
        std::ofstream dist_csv(args.record + ".dist.spans.csv");
        dist_tracer.write_csv(dist_csv);
      }
    }
  }

  std::cout << "context " << context.str() << "\n";
  for (const std::string& failure : failures) {
    std::cout << "gate failure: " << failure << "\n";
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << metrics_json(metrics) << "}" << std::endl;
  return 0;
}
