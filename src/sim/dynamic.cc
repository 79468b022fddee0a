#include "sim/dynamic.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "assign/entities.h"
#include "assign/task_pipeline.h"
#include "common/check.h"
#include "data/beijing.h"
#include "data/trip_model.h"
#include "obs/span.h"
#include "privacy/mechanism.h"
#include "reachability/analytical_model.h"
#include "reachability/empirical_model.h"

namespace scguard::sim {
namespace {

geo::Point ClampToRegion(geo::Point p, const geo::BoundingBox& region) {
  return {std::clamp(p.x, region.min_x, region.max_x),
          std::clamp(p.y, region.min_y, region.max_y)};
}

}  // namespace

std::vector<DynamicRoundMetrics> RunDynamicWorkers(const DynamicConfig& config,
                                                   ReportingStrategy strategy) {
  SCGUARD_CHECK(config.rounds >= 1 && config.num_workers >= 1);
  SCGUARD_CHECK(config.joint.Validate().ok());

  const geo::BoundingBox region = data::BeijingRegion();
  stats::Rng rng(config.seed);
  const data::HotspotMixture demand =
      data::HotspotMixture::MakeBeijingLike(region, 24, rng);

  // Per-report privacy level by strategy. The epsilon split carries the
  // joint mechanism spec: splitting changes the budget, not the mechanism.
  const privacy::PrivacyParams per_report =
      strategy == ReportingStrategy::kLocationSetSplit
          ? privacy::PrivacyParams{config.joint.epsilon / config.rounds,
                                   config.joint.radius_m,
                                   config.joint.mechanism}
          : config.joint;
  // The injected re-report mechanism (planar Laplace by default, same draw
  // order as the historical inline sampler).
  const auto report_mechanism =
      privacy::MakeMechanismOrDie(per_report, region);

  // Reachability model consistent with the *claimed* per-report level:
  // the server cannot know more than what devices declare. Mechanisms
  // without a closed-form DiskProbability (grid kinds) get a small
  // empirical table instead of the analytical model; its Monte-Carlo
  // stream is forked off the config seed, never the simulation rng, so
  // the planar-Laplace path is bit-identical to the pre-table code.
  std::unique_ptr<const reachability::ReachabilityModel> model_owner;
  if (privacy::HasClosedFormDiskProbability(per_report.mechanism.kind)) {
    model_owner = std::make_unique<reachability::AnalyticalModel>(per_report);
  } else {
    reachability::EmpiricalModelConfig model_config;
    model_config.region = region;
    model_config.num_samples = 50000;
    model_config.num_shards = 8;
    stats::Rng build_rng(config.seed ^ 0x9e3779b97f4a7c15ULL);
    model_owner = std::make_unique<reachability::EmpiricalModel>(
        reachability::EmpiricalModel::Build(model_config, per_report,
                                            build_rng)
            .ValueOrDie());
  }
  const reachability::ReachabilityModel& model = *model_owner;

  // Worker state: the pipeline's ground truth, indexed by worker id.
  // noisy_location stays unset until the round-0 report, before the first
  // task reads it.
  std::vector<assign::Worker> workers(static_cast<size_t>(config.num_workers));
  for (size_t i = 0; i < workers.size(); ++i) {
    workers[i].id = static_cast<int64_t>(i);
    workers[i].location = demand.Sample(rng);
    workers[i].reach_radius_m =
        rng.UniformDouble(config.reach_min_m, config.reach_max_m);
  }
  // Every worker reports at the same rounds, so all spend alike.
  double spent_epsilon = 0;

  // The service's per-task protocol body (DESIGN.md section 10), run-local
  // like the rest of the simulation state. Reach radii never change across
  // rounds, so the U2U stage's per-worker certain bands (filled at the
  // first task) stay valid for the whole run: per-round location refreshes
  // re-point the noisy coordinates via UpdateWorkerLocation, and round
  // boundaries only reset availability — the bands are never recomputed.
  assign::ProtocolPolicy policy;
  policy.u2u_model = &model;
  policy.u2e_model = &model;
  policy.alpha = config.alpha;
  policy.beta = config.beta;
  policy.beta_mode = assign::BetaMode::kEveryContact;
  policy.redundancy_k = 1;
  policy.worker_params = per_report;
  policy.task_params = config.joint;
  assign::TaskPipeline pipeline(policy, region, workers);
  pipeline.ReserveWorkers(workers.size());
  // Probability ranking never reads the random-rank priorities; their
  // draws come from a stream of their own so `rng` is untouched.
  stats::Rng rank_rng(config.seed);
  for (const assign::Worker& w : workers) pipeline.AddWorker(w, rank_rng);
  assign::U2uCandidateStage& u2u = pipeline.u2u();

  // Task perturbation runs at the joint level every time (tasks are
  // one-shot); the mechanism itself is deterministic state, built once
  // instead of tasks_per_round * rounds times.
  const auto task_mechanism =
      privacy::MakeMechanismOrDie(config.joint, region);

  std::vector<DynamicRoundMetrics> results;
  for (int round = 0; round < config.rounds; ++round) {
    // Movement (not in round 0: workers register where they are).
    if (round > 0) {
      for (auto& w : workers) {
        const double angle = rng.UniformDouble(0.0, 2.0 * M_PI);
        const double step = rng.UniformDouble(0.0, config.max_move_m);
        w.location = ClampToRegion(
            w.location + geo::Point{step * std::cos(angle), step * std::sin(angle)},
            region);
      }
    }

    // Reporting.
    if (round == 0 || strategy != ReportingStrategy::kReportOnce) {
      for (size_t i = 0; i < workers.size(); ++i) {
        workers[i].noisy_location =
            report_mechanism->Perturb(workers[i].location, rng);
        u2u.UpdateWorkerLocation(static_cast<uint32_t>(i),
                                 workers[i].noisy_location);
      }
      spent_epsilon += per_report.epsilon;
    }

    // One round of online assignment over fresh tasks; every worker is
    // available again at the round boundary.
    u2u.ResetAvailability();
    DynamicRoundMetrics metrics;
    metrics.round = round;
    assign::MatchResult round_result;
    static const obs::SpanSite kRoundSite("sim.dynamic_round");
    const obs::Span round_span(kRoundSite);
    for (int t = 0; t < config.tasks_per_round; ++t) {
      assign::Task task;
      // Synthetic task id for the audit trail: stable for a fixed config,
      // unique across the whole run.
      task.id = static_cast<int64_t>(round) * config.tasks_per_round + t;
      task.location = demand.Sample(rng);
      task.noisy_location = task_mechanism->Perturb(task.location, rng);
      task.arrival_seq = task.id;
      const assign::TaskOutcome outcome =
          pipeline.Execute(task, round_result);
      if (outcome.worker_id >= 0) {
        // Completes the task and ends up there.
        workers[static_cast<size_t>(outcome.worker_id)].location =
            task.location;
      }
    }
    const assign::RunMetrics& m = round_result.metrics;
    metrics.assigned = static_cast<double>(m.assigned_tasks);
    metrics.travel_m =
        metrics.assigned > 0 ? m.travel_sum_m / metrics.assigned : 0;
    metrics.false_hits = static_cast<double>(m.false_hits);

    double error_sum = 0;
    for (const auto& w : workers) {
      error_sum += geo::Distance(w.location, w.noisy_location);
    }
    metrics.effective_epsilon = spent_epsilon;
    metrics.report_error_m = error_sum / static_cast<double>(workers.size());
    results.push_back(metrics);
  }
  return results;
}

}  // namespace scguard::sim
