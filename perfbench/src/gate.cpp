#include "gate.hpp"

#include <exception>

namespace perfbench {

std::vector<std::string> check_gate(
    const Ledger& ledger, const iba::artifact::ResultArtifact& artifact,
    const std::string& on_disk, const std::string& reference) {
  std::vector<std::string> failures;
  const std::uint64_t accounted = ledger.deleted + ledger.pool + ledger.load +
                                  ledger.shed + ledger.deferred;
  if (ledger.generated != accounted) {
    failures.push_back("conservation: generated " +
                       std::to_string(ledger.generated) + " != accounted " +
                       std::to_string(accounted));
  }
  if (ledger.generated != artifact.generated_total ||
      ledger.deleted != artifact.deleted_total ||
      ledger.shed != artifact.shed_total ||
      ledger.deferred != artifact.deferred_end) {
    failures.push_back("conservation: ledger disagrees with the artifact");
  }
  if (artifact.deferred_end != 0) {
    failures.push_back("deferred-end = " +
                       std::to_string(artifact.deferred_end));
  }
  for (const iba::artifact::ExpectationCheck& check : artifact.checks) {
    if (!check.pass) {
      failures.push_back("expect " + check.name + ": bound " + check.bound +
                         ", observed " + check.observed);
    }
  }
  try {
    iba::artifact::verify_artifact_text(on_disk);
  } catch (const std::exception& error) {
    failures.push_back(std::string("artifact on disk: ") + error.what());
  }
  if (on_disk != iba::artifact::render_artifact(artifact)) {
    failures.push_back("artifact on disk differs from the run's artifact");
  }
  if (on_disk != reference) {
    failures.push_back("artifact differs from the reference execution");
  }
  return failures;
}

}  // namespace perfbench
