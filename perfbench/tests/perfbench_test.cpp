// The benchmark's own fast tests, at tiny n: the gate fires on what it
// must catch, the self-time arithmetic is exact, the workload generators
// are pure functions of their seed, and every workload's tiny execution
// passes its gate against the reference run_scenario bytes.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "execution.hpp"
#include "gate.hpp"
#include "scenario/scenario.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

std::string scratch_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::current_path() / "perfbench_test_work" / name;
  std::filesystem::create_directories(dir);
  return dir.string();
}

/// A tiny execution whose gate passes, for the negative gate tests.
struct Passing {
  Execution run;
  std::string reference;
};

const Passing& passing() {
  static const Passing p = [] {
    const std::string text = scenario_text(Workload::kOpsMix, 3, Size::kTiny);
    Passing out;
    out.run = execute(Workload::kOpsMix, text, {scratch_dir("gate"), nullptr});
    out.reference = reference_bytes(text);
    return out;
  }();
  return p;
}

TEST(Gate, PassesOnAGoodExecution) {
  const Passing& p = passing();
  ASSERT_TRUE(p.run.error.empty()) << p.run.error;
  EXPECT_TRUE(check_gate(p.run.ledger, p.run.artifact, p.run.on_disk,
                         p.reference)
                  .empty());
}

TEST(Gate, FiresOnAFlippedArtifactByte) {
  const Passing& p = passing();
  std::string flipped = p.run.on_disk;
  flipped[flipped.size() / 2] ^= 0x01;
  EXPECT_FALSE(
      check_gate(p.run.ledger, p.run.artifact, flipped, p.reference).empty());
}

TEST(Gate, FiresOnAMismatchedReference) {
  const Passing& p = passing();
  const std::string other =
      reference_bytes(scenario_text(Workload::kOpsMix, 4, Size::kTiny));
  ASSERT_NE(other, p.reference);
  EXPECT_FALSE(
      check_gate(p.run.ledger, p.run.artifact, p.run.on_disk, other).empty());
}

TEST(Gate, FiresOnANonZeroDeferredBacklog) {
  const Passing& p = passing();
  // A consistent ledger and artifact that still hold deferred balls.
  Ledger ledger = p.run.ledger;
  iba::artifact::ResultArtifact artifact = p.run.artifact;
  ledger.deferred += 5;
  ledger.generated += 5;
  artifact.deferred_end += 5;
  artifact.generated_total += 5;
  const std::string bytes = iba::artifact::render_artifact(artifact);
  const std::vector<std::string> why =
      check_gate(ledger, artifact, bytes, bytes);
  ASSERT_EQ(why.size(), 1u);
  EXPECT_NE(why.front().find("deferred-end"), std::string::npos);
}

TEST(Gate, FiresOnBrokenConservation) {
  const Passing& p = passing();
  Ledger ledger = p.run.ledger;
  ledger.load += 1;
  EXPECT_FALSE(
      check_gate(ledger, p.run.artifact, p.run.on_disk, p.reference).empty());
}

Span span(std::string_view name, std::int64_t start, std::int64_t end,
          std::int32_t parent, std::uint64_t round = 1) {
  Span s;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  s.round = round;
  return s;
}

TEST(SelfTime, SubtractsNestedChildren) {
  // round [0,100) > step [10,60) > draw [10,30); checkpoint [70,90).
  const std::vector<Span> spans = {
      span("scenario.round", 0, 100, -1), span("core.step", 10, 60, 0),
      span("rng.fill_bounded", 10, 30, 1), span("sim.save_checkpoint", 70, 90, 0)};
  const std::vector<std::int64_t> self = self_times(spans);
  EXPECT_EQ(self, (std::vector<std::int64_t>{30, 30, 20, 20}));
  EXPECT_EQ(unbalanced_roots(spans, self, "scenario.round"), 0u);
}

TEST(SelfTime, OverlappingChildrenCountOnceAndUnbalanceTheRoot) {
  // Children [10,50) and [40,80) overlap by 10 ns: the parent's covered
  // time is their union (70), but their durations sum to 80, so the
  // subtree no longer adds up to the root's wall time.
  const std::vector<Span> spans = {span("scenario.round", 0, 100, -1),
                                   span("a.x", 10, 50, 0),
                                   span("b.y", 40, 80, 0)};
  const std::vector<std::int64_t> self = self_times(spans);
  EXPECT_EQ(self.front(), 30);
  EXPECT_EQ(unbalanced_roots(spans, self, "scenario.round"), 1u);
}

TEST(SelfTime, ClipsChildrenToTheParent) {
  const std::vector<Span> spans = {span("scenario.round", 0, 50, -1),
                                   span("a.x", 40, 70, 0)};
  EXPECT_EQ(self_times(spans).front(), 40);
}

TEST(SelfTime, TracerSpansAddUp) {
  Tracer tracer;
  for (std::uint64_t round = 1; round <= 3; ++round) {
    Scope r(&tracer, "scenario.round", round);
    { Scope a(&tracer, "core.step", round); }
    { Scope b(&tracer, "sim.save_checkpoint", round); }
  }
  const std::vector<Span>& spans = tracer.spans();
  ASSERT_EQ(spans.size(), 9u);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, 0);
  EXPECT_EQ(unbalanced_roots(spans, self_times(spans), "scenario.round"), 0u);
}

TEST(Workloads, GeneratorsArePureFunctionsOfTheSeed) {
  for (const WorkloadInfo& w : workloads()) {
    for (const Size size : {Size::kFull, Size::kTiny}) {
      const std::string a = scenario_text(w.id, 17, size);
      EXPECT_EQ(a, scenario_text(w.id, 17, size)) << w.name;
      EXPECT_NE(a, scenario_text(w.id, 18, size)) << w.name;
      const iba::scenario::Scenario scn =
          iba::scenario::parse_scenario(a, std::string(w.name));
      EXPECT_EQ(scn.seed, 17u);
    }
    EXPECT_EQ(workload_from_name(w.name), w.id);
    EXPECT_NE(w.default_seed, w.heldout_seed);
  }
  EXPECT_FALSE(workload_from_name("nope").has_value());
}

TEST(Workloads, PairsShareTheirScenarioSemantics) {
  // dist_mix must produce ops_mix's artifact, so their scenarios may
  // differ only in execution hints. The steady pair runs at different n;
  // at the same size they too differ only in the shard count.
  const auto digest = [](Workload w, Size size) {
    return iba::scenario::parse_scenario(scenario_text(w, 5, size), "<t>")
        .digest();
  };
  EXPECT_EQ(digest(Workload::kOpsMix, Size::kFull),
            digest(Workload::kDistMix, Size::kFull));
  EXPECT_EQ(digest(Workload::kSteadySerial, Size::kTiny),
            digest(Workload::kSteadySharded, Size::kTiny));
}

class TinyExecution : public ::testing::TestWithParam<Workload> {};

TEST_P(TinyExecution, PassesItsGateTracedAndUntraced) {
  const Workload w = GetParam();
  const std::string text = scenario_text(w, 11, Size::kTiny);
  const std::string dir = scratch_dir(std::string(info(w).name));
  const std::string reference = reference_bytes(text);
  const Execution plain = execute(w, text, {dir, nullptr});
  ASSERT_TRUE(plain.error.empty()) << plain.error;
  EXPECT_TRUE(
      check_gate(plain.ledger, plain.artifact, plain.on_disk, reference).empty());
  Tracer tracer;
  const Execution traced = execute(w, text, {dir, &tracer});
  ASSERT_TRUE(traced.error.empty()) << traced.error;
  EXPECT_EQ(traced.on_disk, plain.on_disk);
  EXPECT_EQ(unbalanced_roots(tracer.spans(), self_times(tracer.spans()),
                             "scenario.round"),
            0u);
  const iba::scenario::Scenario scn =
      iba::scenario::parse_scenario(text, "<t>");
  EXPECT_EQ(plain.rounds.size(), scn.rounds);
  EXPECT_GT(setup_once(w, text, nullptr), 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, TinyExecution,
                         ::testing::Values(Workload::kSteadySerial,
                                           Workload::kSteadySharded,
                                           Workload::kOpsMix,
                                           Workload::kDistMix));

}  // namespace
}  // namespace perfbench
