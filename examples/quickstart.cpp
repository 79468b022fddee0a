// Quickstart: the three core primitives of SCGuard in ~60 lines —
// 1. perturb a location with geo-indistinguishability,
// 2. quantify worker-task reachability from noisy observations,
// 3. run a private online assignment through the ScGuard facade.
//
// Build & run:  ./build/examples/quickstart

#include <iostream>

#include "core/scguard.h"
#include "data/beijing.h"
#include "data/workload.h"
#include "privacy/mechanism.h"
#include "reachability/analytical_model.h"

int main() {
  using namespace scguard;

  // --- 1. Geo-indistinguishable perturbation (device-side) -------------
  // (eps = 0.7, r = 800 m): an adversary seeing the reported location
  // cannot distinguish true locations within 800 m beyond a factor e^0.7.
  const privacy::PrivacyParams params{0.7, 800.0};
  const privacy::PlanarLaplaceMechanism mechanism(params);
  stats::Rng rng(2024);

  const geo::Point true_location{1250.0, -430.0};  // Local meters.
  const geo::Point reported = mechanism.Perturb(true_location, rng);
  std::cout << "true location:     " << true_location << "\n"
            << "reported location: " << reported << " (noise "
            << geo::Distance(true_location, reported) << " m)\n"
            << "90%-confidence radius around a report: "
            << mechanism.ConfidenceRadius(0.9) << " m\n\n";

  // --- 2. Reachability from noisy data ---------------------------------
  // A worker willing to travel 1400 m was observed (noisily) 2 km from a
  // task: how likely can they actually reach it?
  const reachability::AnalyticalModel model(params);
  std::cout << "Pr(reachable | observed 2 km, R_w = 1400 m)\n"
            << "  server view  (both noisy, U2U): "
            << model.ProbReachable(reachability::Stage::kU2U, 2000.0, 1400.0)
            << "\n  requester view (task exact, U2E): "
            << model.ProbReachable(reachability::Stage::kU2E, 2000.0, 1400.0)
            << "\n\n";

  // --- 3. Private online assignment ------------------------------------
  core::ScGuardOptions options;
  options.algorithm = core::AlgorithmKind::kProbabilisticModel;
  options.worker_params = params;
  options.task_params = params;
  auto guard = core::ScGuard::Create(options);
  if (!guard.ok()) {
    std::cerr << guard.status() << "\n";
    return 1;
  }

  data::WorkloadConfig workload_config;
  workload_config.num_workers = 200;
  workload_config.num_tasks = 200;
  const assign::Workload workload =
      data::MakeUniformWorkload(data::BeijingRegion(), workload_config, rng);

  const assign::MatchResult result = guard->PerturbAndAssign(workload, rng);
  std::cout << "assigned " << result.metrics.assigned_tasks << "/"
            << result.metrics.num_tasks << " tasks privately\n"
            << "mean travel distance: " << result.metrics.MeanTravelM()
            << " m\n"
            << "task-location disclosures to rejecting workers (false hits): "
            << result.metrics.false_hits << "\n";
  return 0;
}
