#include "workloads.hpp"

#include <array>
#include <sstream>

namespace perfbench {

namespace {

constexpr std::array<WorkloadInfo, 4> kWorkloads{{
    {Workload::kSteadySerial, "steady_serial", 1, 7919},
    {Workload::kSteadySharded, "steady_sharded", 1, 7919},
    {Workload::kOpsMix, "ops_mix", 1, 7919},
    {Workload::kDistMix, "dist_mix", 1, 7919},
}};

// The paper's process: CAPPED(2, 1 - 2^-4), deterministic arrivals,
// uniform bins, at the n where this host measures each kernel steadily.
// One shard: 2^16 bins, a 1.3 MB table inside one core's L2 (a table in
// the L3 the host shares with its neighbours measures their cache use as
// much as this program); 1000 measured rounds of ~2 ms per execution.
// Four shards: 2^21 bins, ~100 ms rounds, so a thread stalled for a few
// milliseconds does not decide the round, as it does in the 2 ms rounds
// of a small table; 100 measured rounds per execution, so p90 has ten
// samples above it.
std::string steady(std::uint64_t seed, Size size, std::uint32_t shards) {
  const bool full = size == Size::kFull;
  const bool large = full && shards > 1;
  std::ostringstream out;
  out << "[scenario]\nname = steady\nversion = 1\n\n"
      << "[system]\nn = " << (full ? (large ? 1u << 21 : 1u << 16) : 1u << 10)
      << "\nc = 2\nshards = " << shards << "\n\n"
      << "[arrival]\nmodel = constant\nlambda = 0.9375\n\n"
      << "[run]\nrounds = " << (full ? (large ? 100 : 1000) : 24)
      << "\nburn-in = " << (full ? 32 : 8) << "\nseed = " << seed << "\n\n"
      << "[expect]\nmax-pool-over-n = 1.0\nmax-wait-mean = 4.0\n"
      << "max-wait-max = 64\n";
  return out.str();
}

// Bins about the size of one core's L2 (2^16) with every round-boundary
// layer active: Poisson bursts to lambda = 1, Zipf skew (alias draws),
// defer backpressure that binds only inside bursts, sweet-spot control
// that grows c during the first burst, and a checkpoint every 64 rounds.
// Four bursts; the run ends 96 calm rounds after the last one so the
// deferred backlog drains to zero.
std::string ops(std::uint64_t seed, Size size) {
  const bool full = size == Size::kFull;
  const std::uint32_t n = full ? (1u << 16) : (1u << 10);
  std::ostringstream out;
  out << "[scenario]\nname = ops_mix\nversion = 1\n\n"
      << "[system]\nn = " << n << "\nc = 1\n\n"
      << "[arrival]\nmodel = bursts\ndistribution = poisson\n"
      << "lambda = 0.875\nburst-lambda = 1.0\nperiod = 128\n"
      << "burst-width = 32\nburst-start = 97\nskew = zipf\nzipf-s = 0.5\n\n"
      << "[backpressure]\nmode = defer\npool-limit = " << n / 4 * 11
      << "\nbackoff = 4\n\n"
      << "[control]\npolicy = sweet-spot\nc-max = 4\nwindow = 32\n"
      << "cooldown = 16\nhysteresis = 0.3\n\n"
      << "[run]\nrounds = " << (full ? 512 : 128) << "\nburn-in = 96\n"
      << "seed = " << seed << "\ncheckpoint-every = 64\n\n"
      << "[expect]\nmax-pool-over-n = 2.5\nmax-wait-max = 64\nmax-shed = 0\n";
  return out.str();
}

}  // namespace

std::span<const WorkloadInfo> workloads() noexcept { return kWorkloads; }

const WorkloadInfo& info(Workload workload) noexcept {
  return kWorkloads[static_cast<std::size_t>(workload)];
}

std::optional<Workload> workload_from_name(std::string_view name) {
  for (const WorkloadInfo& w : kWorkloads) {
    if (w.name == name) return w.id;
  }
  return std::nullopt;
}

std::string scenario_text(Workload workload, std::uint64_t seed, Size size) {
  switch (workload) {
    case Workload::kSteadySerial:
      return steady(seed, size, 1);
    case Workload::kSteadySharded:
      return steady(seed, size, 4);
    case Workload::kOpsMix:
    case Workload::kDistMix:
      return ops(seed, size);
  }
  return {};
}

}  // namespace perfbench
