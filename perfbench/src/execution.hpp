// One execution of a workload: parse the scenario text, construct the
// process (or the coordinator and its worker threads), drive the round
// loop through the program's public entry points, assemble the result
// artifact and write it to disk — the same calls, in the same order, as
// scenario::run_scenario and dist::run_distributed make.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "artifact/artifact.hpp"
#include "gate.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

/// One measured (post-burn-in) round.
struct RoundRecord {
  std::int64_t wall_ns = 0;
  std::uint64_t thrown = 0;
  std::uint64_t accepted = 0;
  std::uint64_t deferred = 0;
};

/// Process counters over the measured rounds.
struct WindowCounters {
  double wall_s = 0.0;
  double cpu_s = 0.0;              ///< process user + system CPU
  std::uint64_t minor_faults = 0;
  std::uint64_t ctx_switches = 0;  ///< voluntary + involuntary
  std::uint64_t rchar = 0;         ///< /proc/self/io bytes read
  std::vector<double> worker_cpu_s;  ///< per worker thread (distributed)
  double coordinator_cpu_s = 0.0;  ///< inside Coordinator::step (traced)
};

struct Execution {
  std::string error;  ///< non-empty when the execution threw
  iba::artifact::ResultArtifact artifact;
  std::string on_disk;  ///< artifact bytes read back from disk
  Ledger ledger;
  double run_s = 0.0;    ///< scenario text to verified artifact on disk
  double setup_s = 0.0;  ///< parse + construction (+ worker handshake)
  std::vector<RoundRecord> rounds;
  WindowCounters window;
  std::uint64_t checkpoint_bytes = 0;  ///< size of the last checkpoint file
  std::uint64_t bin_table_bytes = 0;   ///< computed: n * (8 * c_storage + 4)
};

struct ExecOptions {
  std::string work_dir;        ///< artifacts and checkpoints land here
  Tracer* tracer = nullptr;    ///< null = untraced
};

/// Runs one execution; exceptions (WorkerLost, ContractViolation, IO
/// errors) are caught and reported in Execution::error.
[[nodiscard]] Execution execute(Workload workload, const std::string& text,
                                const ExecOptions& options);

/// Parses and constructs (including the worker handshake), then tears
/// down; returns the set-up wall time in seconds.
[[nodiscard]] double setup_once(Workload workload, const std::string& text,
                                Tracer* tracer);

/// The artifact bytes of the reference execution: single-process,
/// single-shard scenario::run_scenario of the same text.
[[nodiscard]] std::string reference_bytes(const std::string& text);

}  // namespace perfbench
