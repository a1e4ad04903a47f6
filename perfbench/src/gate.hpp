// The correctness gate every measured execution must pass. A run whose
// gate fails (or whose execution throws) counts as failed against the
// executions attempted.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "artifact/artifact.hpp"

namespace perfbench {

/// Where every ball generated so far is at the end of a run.
struct Ledger {
  std::uint64_t generated = 0;
  std::uint64_t deleted = 0;
  std::uint64_t pool = 0;
  std::uint64_t load = 0;  ///< balls in bin buffers
  std::uint64_t shed = 0;
  std::uint64_t deferred = 0;
};

/// Returns one line per violated condition (empty = the gate passes):
///  * ball conservation: generated = deleted + pool + load + shed + deferred,
///    and the ledger agrees with the artifact's counters;
///  * the deferred backlog is empty at the end (deferred-end = 0);
///  * every [expect] bound of the scenario holds;
///  * `on_disk` (the bytes read back from the written artifact) verify,
///    equal the rendering of `artifact`, and equal `reference`, the bytes
///    the reference execution produced for the same scenario and seed.
[[nodiscard]] std::vector<std::string> check_gate(
    const Ledger& ledger, const iba::artifact::ResultArtifact& artifact,
    const std::string& on_disk, const std::string& reference);

}  // namespace perfbench
