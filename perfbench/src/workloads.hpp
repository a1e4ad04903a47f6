// The benchmark's four workloads, each a scenario text generated from a
// seed. The program under test only ever sees that text: the workloads
// differ in which layers they stress (see perfbench/README.md for why
// each exists), never in how the benchmark drives them.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

namespace perfbench {

enum class Workload : std::uint8_t {
  kSteadySerial,   ///< the paper's process at L2-resident n, one shard
  kSteadySharded,  ///< the paper's process at large n, four shards
  kOpsMix,         ///< bursts + Zipf + defer backpressure + control + checkpoints
  kDistMix,        ///< ops_mix run by a coordinator and worker threads
};

/// Scenario scale: kFull is what the benchmark measures, kTiny the same
/// feature mix at a small n for the benchmark's own tests.
enum class Size : std::uint8_t { kFull, kTiny };

struct WorkloadInfo {
  Workload id;
  std::string_view name;
  std::uint64_t default_seed;  ///< seed a run uses when none is given
  std::uint64_t heldout_seed;  ///< kept back to confirm a claimed gain
};

/// Every workload, in a fixed order.
[[nodiscard]] std::span<const WorkloadInfo> workloads() noexcept;

[[nodiscard]] const WorkloadInfo& info(Workload workload) noexcept;

[[nodiscard]] std::optional<Workload> workload_from_name(std::string_view name);

/// Worker threads of the distributed workload (coordinator + workers =
/// the 4 cores of the reference host).
inline constexpr std::uint32_t kDistWorkers = 3;

/// True for the workload run by a dist::Coordinator.
[[nodiscard]] constexpr bool distributed(Workload workload) noexcept {
  return workload == Workload::kDistMix;
}

/// The scenario text of `workload` at `seed`: a pure function of its
/// arguments. The seed only fills [run] seed; everything else is fixed.
[[nodiscard]] std::string scenario_text(Workload workload, std::uint64_t seed,
                                        Size size = Size::kFull);

}  // namespace perfbench
