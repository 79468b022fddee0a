#include "assign/batch.h"

#include <chrono>

#include "assign/offline.h"
#include "assign/stages/candidate_stage.h"
#include "common/check.h"
#include "common/str_format.h"

namespace scguard::assign {

BatchMatcher::BatchMatcher(const reachability::ReachabilityModel* model,
                           double alpha, int batch_size)
    : model_(model), alpha_(alpha), batch_size_(batch_size) {
  SCGUARD_CHECK(model != nullptr);
  SCGUARD_CHECK(alpha > 0.0 && alpha <= 1.0);
  SCGUARD_CHECK(batch_size >= 1);
}

std::string BatchMatcher::name() const {
  return StrCat("Batch-", batch_size_);
}

MatchResult BatchMatcher::Run(const Workload& workload, stats::Rng& /*rng*/) {
  const auto start = std::chrono::steady_clock::now();
  MatchResult result;
  RunMetrics& m = result.metrics;
  m.num_tasks = static_cast<int64_t>(workload.tasks.size());
  m.num_workers = static_cast<int64_t>(workload.workers.size());

  std::vector<bool> matched(workload.workers.size(), false);

  // Run-local U2U stage keeps Run safe to call concurrently on a shared
  // matcher. The batch matcher scores full bipartite feasibility, so it
  // uses the stage's scalar Decide — the same certain-band contract as the
  // engine scan, filled here so the cost-matrix loop mostly resolves on a
  // squared-distance compare with no sqrt.
  U2uCandidateStage::Config u2u_config;
  u2u_config.model = model_;
  u2u_config.alpha = alpha_;
  U2uCandidateStage u2u(std::move(u2u_config));
  u2u.ReserveWorkers(workload.workers.size());
  for (const Worker& w : workload.workers) {
    u2u.AddWorker(w.noisy_location, w.reach_radius_m);
  }
  u2u.Prepare();

  for (size_t batch_start = 0; batch_start < workload.tasks.size();
       batch_start += static_cast<size_t>(batch_size_)) {
    const size_t batch_end = std::min(
        batch_start + static_cast<size_t>(batch_size_), workload.tasks.size());
    const size_t batch_count = batch_end - batch_start;

    // Available workers for this batch.
    std::vector<size_t> available;
    for (size_t w = 0; w < workload.workers.size(); ++w) {
      if (!matched[w]) available.push_back(w);
    }
    m.server_to_requester_msgs += static_cast<int64_t>(batch_count);

    // Noisy cost matrix: observed distance where the pair is plausibly
    // reachable, infeasible otherwise.
    std::vector<std::vector<double>> cost(
        batch_count, std::vector<double>(available.size(), kInfeasible));
    for (size_t bt = 0; bt < batch_count; ++bt) {
      const Task& task = workload.tasks[batch_start + bt];
      int64_t candidates = 0;
      for (size_t wi = 0; wi < available.size(); ++wi) {
        const size_t w = available[wi];
        const Worker& worker = workload.workers[w];
        if (u2u.Decide(static_cast<uint32_t>(w), task.noisy_location)) {
          // d_obs doubles as the matching cost (computed only for feasible
          // pairs now; Distance stays the cost so values are unchanged).
          cost[bt][wi] =
              geo::Distance(worker.noisy_location, task.noisy_location);
          ++candidates;
        }
      }
      m.candidates_sum += candidates;
      // U2U accuracy bookkeeping, as in the online engine.
      int64_t truly_reachable = 0, candidates_reachable = 0;
      for (size_t wi = 0; wi < available.size(); ++wi) {
        const Worker& worker = workload.workers[available[wi]];
        const bool reachable = worker.CanReach(task.location);
        truly_reachable += reachable ? 1 : 0;
        if (cost[bt][wi] < kInfeasible && reachable) ++candidates_reachable;
      }
      m.AddCandidateAccuracy(candidates_reachable, candidates,
                             truly_reachable);
    }

    const std::vector<int> batch_match = MinCostMaxMatching(cost);

    // E2E validation of each proposed pair.
    for (size_t bt = 0; bt < batch_count; ++bt) {
      if (batch_match[bt] < 0) continue;
      const Task& task = workload.tasks[batch_start + bt];
      const size_t w = available[static_cast<size_t>(batch_match[bt])];
      const Worker& worker = workload.workers[w];
      m.requester_to_worker_msgs += 1;
      if (worker.CanReach(task.location)) {
        matched[w] = true;
        const double travel = geo::Distance(worker.location, task.location);
        result.assignments.push_back({task.id, worker.id, travel});
        m.assigned_tasks += 1;
        m.accepted_assignments += 1;
        m.travel_sum_m += travel;
      } else {
        m.false_hits += 1;
      }
    }
  }

  m.total_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

}  // namespace scguard::assign
