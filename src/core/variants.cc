#include "core/variants.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "assign/stages/contact_stage.h"
#include "assign/stages/rank_stage.h"
#include "common/check.h"

namespace scguard::core {
namespace {

/// All variants contact one worker at a time until the first accept; the
/// ranked lists are already filtered, so the stage runs without beta gating
/// (Config::beta = 0 disables it).
const assign::E2eContactStage& SequentialContact() {
  static const assign::E2eContactStage stage(
      {.rank = assign::RankStrategy::kProbability, .beta = 0.0,
       .beta_mode = assign::BetaMode::kEveryContact, .redundancy_k = 1});
  return stage;
}

// Worker-side reachability estimate: the worker knows its exact location
// and sees a (possibly degraded) noisy task location, so the estimate is a
// U2E query with the roles mirrored.
double WorkerSideEstimate(const reachability::ReachabilityModel& model,
                          const WorkerDevice& worker, geo::Point noisy_task) {
  return model.ProbReachable(
      reachability::Stage::kU2E,
      geo::Distance(worker.true_location_for_testing(), noisy_task),
      worker.reach_radius_m());
}

VariantOutcome RunSequential(const RequesterDevice& requester,
                             const TaskRequest& request,
                             const std::vector<CandidateWorker>& candidates,
                             const std::vector<WorkerDevice>& workers,
                             const reachability::ReachabilityModel& model,
                             double beta) {
  VariantOutcome outcome;
  const std::vector<CandidateWorker> plan =
      requester.RankCandidates(candidates, model, beta);
  // The plan's scores stay on the device: walk it as (0.0, worker id).
  std::vector<std::pair<double, int64_t>> order;
  order.reserve(plan.size());
  for (const CandidateWorker& c : plan) order.emplace_back(0.0, c.worker_id);
  const auto o = SequentialContact().Contact(
      order,
      [&](int64_t worker_id) {
        const WorkerDevice& device = workers[static_cast<size_t>(worker_id)];
        if (!device.HandleTaskOffer(requester.exact_task_location())) {
          return false;
        }
        outcome.assigned_worker = worker_id;
        return true;
      },
      request.task_id, assign::UnknownAdmitFilter{});
  outcome.task_location_disclosures += o.disclosures;
  return outcome;
}

VariantOutcome RunParallelBroadcast(
    const RequesterDevice& requester, const TaskRequest& request,
    const std::vector<CandidateWorker>& candidates,
    const std::vector<WorkerDevice>& workers,
    const reachability::ReachabilityModel& model, double beta) {
  VariantOutcome outcome;
  // The server broadcasts the *perturbed* task location (already public
  // from the U2U submission — no new task disclosure); each candidate
  // independently decides whether it is likely reachable, and if so
  // reveals its exact location to the requester.
  // Nearest-first = the shared score-desc order on negated distance.
  std::vector<std::pair<double, int64_t>> revealed;  // (-distance, worker id).
  for (const CandidateWorker& c : candidates) {
    const WorkerDevice& device = workers[static_cast<size_t>(c.worker_id)];
    const double estimate =
        WorkerSideEstimate(model, device, request.noisy_location);
    if (estimate < std::max(beta, assign::kMinSelfRevealProbability)) continue;
    // Self-reveal: the requester learns this worker's exact location.
    outcome.worker_location_disclosures += 1;
    revealed.emplace_back(
        -geo::Distance(device.true_location_for_testing(),
                       requester.exact_task_location()),
        c.worker_id);
  }
  assign::SortRankedCandidates(revealed);
  const auto o = SequentialContact().Contact(
      revealed,
      [&](int64_t worker_id) {
        const WorkerDevice& device = workers[static_cast<size_t>(worker_id)];
        if (!device.HandleTaskOffer(requester.exact_task_location())) {
          return false;
        }
        outcome.assigned_worker = worker_id;
        return true;
      },
      request.task_id, assign::UnknownAdmitFilter{});
  outcome.task_location_disclosures += o.disclosures;
  return outcome;
}

VariantOutcome RunServerRanked(const RequesterDevice& requester,
                               const TaskRequest& request,
                               const std::vector<CandidateWorker>& candidates,
                               const std::vector<WorkerDevice>& workers,
                               const reachability::ReachabilityModel& model,
                               stats::Rng& rng) {
  VariantOutcome outcome;
  if (candidates.empty()) return outcome;
  // Every candidate answers the server with a likelihood computed from its
  // own location. Each answer is a new correlated release of that worker's
  // whereabouts, so worker devices degrade to the location-set budget
  // eps / |candidates| for the re-perturbation their answers are based on
  // (paper Sec. III-A / Sec. VII).
  std::vector<std::pair<double, int64_t>> scored;
  for (const CandidateWorker& c : candidates) {
    const WorkerDevice& device = workers[static_cast<size_t>(c.worker_id)];
    const auto set_mechanism = privacy::LocationSetMechanism::Create(
        device.params(), static_cast<int>(candidates.size()));
    SCGUARD_CHECK(set_mechanism.ok());
    const geo::Point degraded =
        set_mechanism->PerturbOne(device.true_location_for_testing(), rng);
    outcome.server_learned_responses += 1;
    // The server scores with the degraded observation vs the noisy task.
    const double score = model.ProbReachable(
        reachability::Stage::kU2U,
        geo::Distance(degraded, request.noisy_location), c.reach_radius_m);
    scored.emplace_back(score, c.worker_id);
  }
  assign::SortRankedCandidates(scored);
  const auto o = SequentialContact().Contact(
      scored,
      [&](int64_t worker_id) {
        const WorkerDevice& device = workers[static_cast<size_t>(worker_id)];
        if (!device.HandleTaskOffer(requester.exact_task_location())) {
          return false;
        }
        outcome.assigned_worker = worker_id;
        return true;
      },
      request.task_id, assign::UnknownAdmitFilter{});
  outcome.task_location_disclosures += o.disclosures;
  return outcome;
}

}  // namespace

VariantOutcome RunU2eVariant(U2eVariant variant,
                             const RequesterDevice& requester,
                             const TaskRequest& request,
                             const std::vector<CandidateWorker>& candidates,
                             const std::vector<WorkerDevice>& workers,
                             const reachability::ReachabilityModel& model,
                             double beta, stats::Rng& rng) {
  switch (variant) {
    case U2eVariant::kSequential:
      return RunSequential(requester, request, candidates, workers, model,
                           beta);
    case U2eVariant::kParallelBroadcast:
      return RunParallelBroadcast(requester, request, candidates, workers,
                                  model, beta);
    case U2eVariant::kServerRanked:
      return RunServerRanked(requester, request, candidates, workers, model,
                             rng);
  }
  return {};
}

}  // namespace scguard::core
