#include "assign/cloaked.h"

#include <chrono>

#include "assign/stages/contact_stage.h"
#include "assign/stages/rank_stage.h"
#include "common/check.h"
#include "common/str_format.h"

namespace scguard::assign {

CloakedMatcher::CloakedMatcher(const privacy::CloakingMechanism& mechanism,
                               double alpha, double beta)
    : mechanism_(mechanism), alpha_(alpha), beta_(beta) {
  SCGUARD_CHECK(alpha > 0.0 && alpha <= 1.0);
  SCGUARD_CHECK(beta >= 0.0 && beta <= 1.0);
}

std::string CloakedMatcher::name() const {
  return StrCat("Cloaked-", FormatDouble(mechanism_.width_m(), 0), "m");
}

MatchResult CloakedMatcher::Run(const Workload& workload, stats::Rng& rng) {
  const auto start = std::chrono::steady_clock::now();
  MatchResult result;
  RunMetrics& m = result.metrics;
  m.num_tasks = static_cast<int64_t>(workload.tasks.size());
  m.num_workers = static_cast<int64_t>(workload.workers.size());

  // Workers report cloaks once, up-front.
  std::vector<geo::BoundingBox> cloaks;
  cloaks.reserve(workload.workers.size());
  for (const auto& w : workload.workers) {
    cloaks.push_back(mechanism_.Cloak(w.location, rng));
  }
  std::vector<bool> matched(workload.workers.size(), false);

  // Beta-gated sequential contact, shared with the engine (the cloak's
  // reach probabilities play the U2E scores).
  const E2eContactStage contact({.rank = RankStrategy::kProbability,
                                 .beta = beta_,
                                 .beta_mode = BetaMode::kEveryContact,
                                 .redundancy_k = 1});
  std::vector<std::pair<double, size_t>> ranked;  // Reused across tasks.
  ranked.reserve(workload.workers.size());

  for (const Task& task : workload.tasks) {
    // Candidate selection against the PUBLIC exact task location.
    ranked.clear();
    int64_t truly_reachable = 0, candidates_reachable = 0;
    for (size_t i = 0; i < workload.workers.size(); ++i) {
      if (matched[i]) continue;
      const Worker& w = workload.workers[i];
      if (w.CanReach(task.location)) ++truly_reachable;
      const double p = privacy::CloakReachProbability(cloaks[i], task.location,
                                                      w.reach_radius_m);
      if (p < alpha_) continue;
      ranked.emplace_back(p, i);
      if (w.CanReach(task.location)) ++candidates_reachable;
    }
    m.candidates_sum += static_cast<int64_t>(ranked.size());
    m.server_to_requester_msgs += 1;
    m.AddCandidateAccuracy(candidates_reachable,
                           static_cast<int64_t>(ranked.size()),
                           truly_reachable);
    if (ranked.empty()) continue;

    SortRankedCandidates(ranked);
    contact.Run(
        ranked,
        [&](size_t i) {
          const Worker& w = workload.workers[i];
          if (!w.CanReach(task.location)) return false;
          matched[i] = true;
          const double travel = geo::Distance(w.location, task.location);
          result.assignments.push_back({task.id, w.id, travel});
          m.accepted_assignments += 1;
          m.travel_sum_m += travel;
          return true;
        },
        [&](size_t i) { return workload.workers[i].CanReach(task.location); },
        m, task.id, UnknownAdmitFilter{});
  }
  m.total_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

}  // namespace scguard::assign
