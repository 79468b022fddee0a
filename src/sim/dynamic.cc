#include "sim/dynamic.h"

#include <algorithm>
#include <memory>
#include <cmath>
#include <utility>

#include "assign/stages/candidate_stage.h"
#include "assign/stages/contact_stage.h"
#include "assign/stages/rank_stage.h"
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

  // Worker state.
  struct DynamicWorker {
    geo::Point location;
    geo::Point reported;
    double reach = 0;
    double spent_epsilon = 0;
  };
  std::vector<DynamicWorker> workers(static_cast<size_t>(config.num_workers));
  for (auto& w : workers) {
    w.location = demand.Sample(rng);
    w.reach = rng.UniformDouble(config.reach_min_m, config.reach_max_m);
  }

  // The shared protocol stages (DESIGN.md section 10); run-local, like the
  // rest of the simulation state. Reach radii never change across rounds,
  // so the U2U stage's per-worker certain bands (filled at the first
  // Collect) stay valid for the whole run: per-round location refreshes
  // re-point the noisy coordinates via UpdateWorkerLocation, and round
  // boundaries only reset availability — the bands are never recomputed.
  assign::U2uCandidateStage::Config u2u_config;
  u2u_config.model = &model;
  u2u_config.alpha = config.alpha;
  assign::U2uCandidateStage u2u(std::move(u2u_config));
  u2u.ReserveWorkers(workers.size());
  for (const auto& w : workers) {
    // Placeholder coordinates: every strategy refreshes the report in
    // round 0 before the first Collect.
    u2u.AddWorker(w.location, w.reach);
  }
  assign::U2eRankStage u2e(
      {.model = &model, .rank = assign::RankStrategy::kProbability,
       .kernel = {}, .audit_epsilon = per_report.epsilon});
  const assign::E2eContactStage contact(
      {.rank = assign::RankStrategy::kProbability, .beta = config.beta,
       .beta_mode = assign::BetaMode::kEveryContact, .redundancy_k = 1});

  // Task perturbation runs at the joint level every time (tasks are
  // one-shot); the mechanism itself is deterministic state, built once
  // instead of tasks_per_round * rounds times.
  const auto task_mechanism =
      privacy::MakeMechanismOrDie(config.joint, region);

  std::vector<DynamicRoundMetrics> results;
  std::vector<std::pair<double, size_t>> ranked;  // Reused across tasks.
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
    for (size_t i = 0; i < workers.size(); ++i) {
      auto& w = workers[i];
      const bool refresh = round == 0 || strategy != ReportingStrategy::kReportOnce;
      if (refresh) {
        w.reported = report_mechanism->Perturb(w.location, rng);
        w.spent_epsilon += per_report.epsilon;
        u2u.UpdateWorkerLocation(static_cast<uint32_t>(i), w.reported);
      }
    }

    // One round of online assignment over fresh tasks; every worker is
    // available again at the round boundary.
    u2u.ResetAvailability();
    DynamicRoundMetrics metrics;
    metrics.round = round;
    double travel_sum = 0;
    static const obs::SpanSite kRoundSite("sim.dynamic_round");
    const obs::Span round_span(kRoundSite);
    for (int t = 0; t < config.tasks_per_round; ++t) {
      // Synthetic task id for the audit trail: stable for a fixed config,
      // unique across the whole run.
      const int64_t task_id =
          static_cast<int64_t>(round) * config.tasks_per_round + t;
      const geo::Point task = demand.Sample(rng);
      const geo::Point task_noisy = task_mechanism->Perturb(task, rng);
      // U2U over reported locations, U2E against the exact task location.
      const std::vector<uint32_t>& candidates = u2u.Collect(task_noisy);
      u2e.Rank(u2u.soa(), candidates, task, /*random_rank=*/nullptr, ranked,
               task_id);
      const auto outcome = contact.Contact(
          ranked,
          [&](size_t i) {
            const double d_true = geo::Distance(workers[i].location, task);
            if (d_true > workers[i].reach) return false;
            u2u.MarkMatched(static_cast<uint32_t>(i));
            workers[i].location = task;  // Completes the task, ends up there.
            metrics.assigned += 1;
            travel_sum += d_true;
            return true;
          },
          task_id, assign::UnknownAdmitFilter{});
      metrics.false_hits += static_cast<double>(outcome.false_hits);
    }
    metrics.travel_m = metrics.assigned > 0 ? travel_sum / metrics.assigned : 0;

    double eps_max = 0, error_sum = 0;
    for (const auto& w : workers) {
      eps_max = std::max(eps_max, w.spent_epsilon);
      error_sum += geo::Distance(w.location, w.reported);
    }
    metrics.effective_epsilon = eps_max;
    metrics.report_error_m = error_sum / static_cast<double>(workers.size());
    results.push_back(metrics);
  }
  return results;
}

}  // namespace scguard::sim
