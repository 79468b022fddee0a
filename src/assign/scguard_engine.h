#ifndef SCGUARD_ASSIGN_SCGUARD_ENGINE_H_
#define SCGUARD_ASSIGN_SCGUARD_ENGINE_H_

#include <string>
#include <utility>

#include "assign/matcher.h"
#include "assign/task_pipeline.h"

namespace scguard::assign {

/// Configuration of the privacy-aware three-stage protocol simulation: the
/// shared protocol fields plus the engine's observer-only knobs.
struct EnginePolicy : ProtocolPolicy {
  /// Score the candidate sets against ground truth (U2U precision/recall
  /// and false-dismissal attribution). Observer-only bookkeeping — no
  /// protocol party could compute it — and the per-task O(workers) scan
  /// it needs dominates pruned runs, so throughput-oriented callers turn
  /// it off. Default on: tests and the figure benches report it.
  bool compute_accuracy_metrics = true;

  /// Display name override; empty derives one from model + strategy.
  std::string name;
};

/// The SCGuard three-stage protocol (paper Fig. 2 / Table I) over a whole
/// workload: registers the workers with a TaskPipeline and runs every task
/// through it in arrival order (DESIGN.md section 10). The engine adds only
/// the observer-only accuracy scan. Stage state is per-Run:
/// ExperimentRunner shares one matcher across concurrently running seeds,
/// so nothing may live in the engine between runs.
class ScGuardEngine final : public OnlineMatcher {
 public:
  /// The policy is validated when a run builds its pipeline.
  explicit ScGuardEngine(EnginePolicy policy) : policy_(std::move(policy)) {}

  MatchResult Run(const Workload& workload, stats::Rng& rng) override;

  std::string name() const override;

  const EnginePolicy& policy() const { return policy_; }

 private:
  EnginePolicy policy_;
};

}  // namespace scguard::assign

#endif  // SCGUARD_ASSIGN_SCGUARD_ENGINE_H_
