#include "assign/scguard_engine.h"

#include <chrono>
#include <cstdint>

#include "common/str_format.h"
#include "obs/span.h"

namespace scguard::assign {

std::string ScGuardEngine::name() const {
  if (!policy_.name.empty()) return policy_.name;
  return StrCat("SCGuard[", policy_.u2u_model->name(), ",",
                RankStrategyName(policy_.rank), "]");
}

MatchResult ScGuardEngine::Run(const Workload& workload, stats::Rng& rng) {
  const auto run_start = std::chrono::steady_clock::now();
  MatchResult result;
  RunMetrics& m = result.metrics;

  TaskPipeline pipeline(policy_, workload.region, workload.workers);
  pipeline.ReserveWorkers(workload.workers.size());
  for (const Worker& w : workload.workers) pipeline.AddWorker(w, rng);
  pipeline.Prepare();
  {
    static const obs::SpanSite kSetupSite("assign.setup");
    const auto setup_end = std::chrono::steady_clock::now();
    m.setup_seconds =
        std::chrono::duration<double>(setup_end - run_start).count();
    obs::RecordSpan(kSetupSite, run_start, setup_end);
  }
  const U2uCandidateStage& u2u = pipeline.u2u();

  for (const Task& task : workload.tasks) {
    if (!policy_.compute_accuracy_metrics) {
      pipeline.Execute(task, result);
      continue;
    }
    // U2U accuracy, scored against ground truth (observer-only: no
    // protocol party computes this). Availability is counted before the
    // task can match anyone; Execute counts the reachable candidates.
    int64_t truly_reachable_available = 0;
    for (size_t i = 0; i < workload.workers.size(); ++i) {
      if (!u2u.is_matched(static_cast<uint32_t>(i)) &&
          workload.workers[i].CanReach(task.location)) {
        ++truly_reachable_available;
      }
    }
    const TaskOutcome outcome =
        pipeline.Execute(task, result, /*count_reachable=*/true);
    m.AddCandidateAccuracy(outcome.candidates_reachable, outcome.candidates,
                           truly_reachable_available);
  }

  // The whole-run span sits outside the scguard.engine.* family, which an
  // AssignmentService run reproduces count for count.
  static const obs::SpanSite kRunSite("assign.run");
  const auto run_end = std::chrono::steady_clock::now();
  m.total_seconds = std::chrono::duration<double>(run_end - run_start).count();
  obs::RecordSpan(kRunSite, run_start, run_end);
  pipeline.Finish(m);
  return result;
}

}  // namespace scguard::assign
