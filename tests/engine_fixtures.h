// Shared fixtures of the engine-level bit-identity suites: one noisy
// uniform workload, the direct-evaluation reference of the U2U filter, one
// MatchResult comparison, and the eager-ranking reference run.

#ifndef SCGUARD_TESTS_ENGINE_FIXTURES_H_
#define SCGUARD_TESTS_ENGINE_FIXTURES_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "assign/algorithms.h"
#include "assign/matcher.h"
#include "assign/scguard_engine.h"
#include "assign/stages/candidate_stage.h"
#include "assign/stages/contact_stage.h"
#include "assign/stages/rank_stage.h"
#include "common/check.h"
#include "data/workload.h"
#include "geo/bbox.h"
#include "geo/point.h"
#include "privacy/privacy_params.h"
#include "reachability/model.h"
#include "stats/rng.h"

namespace scguard::fixtures {

inline constexpr privacy::PrivacyParams kDefaultPrivacy{0.7, 800.0};

/// Uniform workers and tasks over a 20 km square, perturbed at
/// kDefaultPrivacy from the same seeded stream.
inline assign::Workload NoisyWorkload(int workers, int tasks, uint64_t seed) {
  const geo::BoundingBox region =
      geo::BoundingBox::FromCorners({0, 0}, {20000, 20000});
  data::WorkloadConfig config;
  config.num_workers = workers;
  config.num_tasks = tasks;
  stats::Rng rng(seed);
  assign::Workload w = data::MakeUniformWorkload(region, config, rng);
  data::PerturbWorkload(kDefaultPrivacy, kDefaultPrivacy, rng, w);
  return w;
}

/// The direct-evaluation reference of the U2U alpha filter: forwards
/// ProbReachable to `inner` and declares no monotonicity, so the threshold
/// cache grants it no certain regions and every scanned worker is decided
/// by one `ProbReachable >= alpha` evaluation — the per-pair filter of the
/// paper's Algorithm 2, run through the one remaining scan path.
class DirectEvalModel final : public reachability::ReachabilityModel {
 public:
  explicit DirectEvalModel(const reachability::ReachabilityModel* inner)
      : inner_(inner) {}
  double ProbReachable(reachability::Stage stage, double observed_distance_m,
                       double reach_radius_m) const override {
    return inner_->ProbReachable(stage, observed_distance_m, reach_radius_m);
  }
  std::string_view name() const override { return inner_->name(); }

 private:
  const reachability::ReachabilityModel* inner_;
};

/// `handle`'s engine with its U2U model wrapped in a DirectEvalModel; the
/// returned handle keeps every model alive.
inline assign::MatcherHandle DirectEvalReference(
    const assign::MatcherHandle& handle) {
  const auto* engine =
      dynamic_cast<const assign::ScGuardEngine*>(handle.matcher.get());
  SCGUARD_CHECK(engine != nullptr);
  assign::EnginePolicy policy = engine->policy();
  auto direct = std::make_shared<const DirectEvalModel>(policy.u2u_model);
  policy.u2u_model = direct.get();
  assign::MatcherHandle reference;
  reference.models = handle.models;
  reference.models.push_back(std::move(direct));
  reference.matcher =
      std::make_unique<assign::ScGuardEngine>(std::move(policy));
  return reference;
}

/// How much of two runs' RunMetrics must agree beyond their assignments.
/// Timing metrics are never compared.
enum class Compare {
  kOutcome,  ///< Decision metrics only: the runs may scan different sets.
  kScan,     ///< Plus the U2U scan counts: same sets, other scoring paths.
  kAll,      ///< Plus the cell-certification and traffic counters.
};

/// Asserts two runs produced the same protocol outcome bit for bit: the
/// assignment sequence (ids and exact travel distances) and every
/// decision-derived metric, plus the scan accounting `level` asks for.
inline void ExpectBitIdentical(const assign::MatchResult& a,
                               const assign::MatchResult& b,
                               const std::string& label,
                               Compare level = Compare::kAll) {
  ASSERT_EQ(a.assignments.size(), b.assignments.size()) << label;
  for (size_t i = 0; i < a.assignments.size(); ++i) {
    EXPECT_EQ(a.assignments[i].task_id, b.assignments[i].task_id) << label;
    EXPECT_EQ(a.assignments[i].worker_id, b.assignments[i].worker_id) << label;
    EXPECT_EQ(a.assignments[i].travel_m, b.assignments[i].travel_m) << label;
  }
  const assign::RunMetrics& x = a.metrics;
  const assign::RunMetrics& y = b.metrics;
  EXPECT_EQ(x.num_tasks, y.num_tasks) << label;
  EXPECT_EQ(x.num_workers, y.num_workers) << label;
  EXPECT_EQ(x.assigned_tasks, y.assigned_tasks) << label;
  EXPECT_EQ(x.accepted_assignments, y.accepted_assignments) << label;
  EXPECT_EQ(x.travel_sum_m, y.travel_sum_m) << label;
  EXPECT_EQ(x.candidates_sum, y.candidates_sum) << label;
  EXPECT_EQ(x.precision_sum, y.precision_sum) << label;
  EXPECT_EQ(x.precision_count, y.precision_count) << label;
  EXPECT_EQ(x.recall_sum, y.recall_sum) << label;
  EXPECT_EQ(x.recall_count, y.recall_count) << label;
  EXPECT_EQ(x.false_hits, y.false_hits) << label;
  EXPECT_EQ(x.false_dismissals, y.false_dismissals) << label;
  EXPECT_EQ(x.server_to_requester_msgs, y.server_to_requester_msgs) << label;
  EXPECT_EQ(x.requester_to_worker_msgs, y.requester_to_worker_msgs) << label;
  if (level == Compare::kOutcome) return;
  EXPECT_EQ(x.u2u_scanned, y.u2u_scanned) << label;
  EXPECT_EQ(x.u2u_scanned_first_task, y.u2u_scanned_first_task) << label;
  EXPECT_EQ(x.u2u_scanned_last_task, y.u2u_scanned_last_task) << label;
  if (level == Compare::kScan) return;
  EXPECT_EQ(x.cells_bulk_accepted, y.cells_bulk_accepted) << label;
  EXPECT_EQ(x.cells_skipped, y.cells_skipped) << label;
  EXPECT_EQ(x.boundary_workers, y.boundary_workers) << label;
  EXPECT_EQ(x.cells_clipped, y.cells_clipped) << label;
  EXPECT_EQ(x.u2u_gather_bytes, y.u2u_gather_bytes) << label;
  EXPECT_EQ(x.cells_emitted_direct, y.cells_emitted_direct) << label;
}

/// The pipeline body with the ascending Collect, eager Rank and the vector
/// Run, marking each acceptance matched at once: the reference the
/// cursor-driven engine must reproduce bit for bit. Honors the policy's
/// pruning index (over `workload.region`) but always scans serially.
inline assign::MatchResult RunEagerReference(
    const assign::EnginePolicy& policy, const assign::Workload& workload,
    stats::Rng& rng) {
  assign::MatchResult result;
  assign::RunMetrics& m = result.metrics;
  assign::U2uCandidateStage::Config u2u_config;
  u2u_config.model = policy.u2u_model;
  u2u_config.alpha = policy.alpha;
  u2u_config.kernel = policy.kernel;
  if (policy.pruning_gamma.has_value()) {
    u2u_config.pruning = assign::U2uCandidateStage::Pruning{
        *policy.pruning_gamma, policy.pruning_backend, policy.worker_params,
        policy.task_params, workload.region};
  }
  assign::U2uCandidateStage u2u(std::move(u2u_config));
  std::vector<double> random_rank;
  for (const assign::Worker& w : workload.workers) {
    random_rank.push_back(rng.UniformDouble());
    u2u.AddWorker(w.noisy_location, w.reach_radius_m);
  }
  u2u.Prepare();
  assign::U2eRankStage u2e({.model = policy.u2e_model, .rank = policy.rank,
                            .kernel = policy.kernel});
  const assign::E2eContactStage e2e(
      {.rank = policy.rank, .beta = policy.beta,
       .beta_mode = policy.beta_mode, .redundancy_k = policy.redundancy_k});
  std::vector<std::pair<double, size_t>> ranked;
  for (const assign::Task& task : workload.tasks) {
    m.num_tasks += 1;
    int64_t truly_reachable_available = 0;
    for (size_t i = 0; i < workload.workers.size(); ++i) {
      if (!u2u.is_matched(static_cast<uint32_t>(i)) &&
          workload.workers[i].CanReach(task.location)) {
        ++truly_reachable_available;
      }
    }
    const std::vector<uint32_t>& candidates = u2u.Collect(task.noisy_location);
    m.candidates_sum += static_cast<int64_t>(candidates.size());
    m.server_to_requester_msgs += 1;
    int64_t candidates_reachable = 0;
    for (const uint32_t i : candidates) {
      if (workload.workers[i].CanReach(task.location)) ++candidates_reachable;
    }
    const auto candidate_count = static_cast<int64_t>(candidates.size());
    if (!candidates.empty()) {
      u2e.Rank(u2u.soa(), candidates, task.location, random_rank.data(),
               ranked);
      e2e.Run(
          ranked,
          [&](size_t i) {
            const assign::Worker& w = workload.workers[i];
            if (!w.CanReach(task.location)) return false;
            u2u.MarkMatched(static_cast<uint32_t>(i));
            const double travel = geo::Distance(w.location, task.location);
            result.assignments.push_back({task.id, w.id, travel});
            m.accepted_assignments += 1;
            m.travel_sum_m += travel;
            return true;
          },
          [&](size_t i) { return workload.workers[i].CanReach(task.location); },
          m);
    }
    if (policy.compute_accuracy_metrics) {
      m.AddCandidateAccuracy(candidates_reachable, candidate_count,
                             truly_reachable_available);
    }
  }
  m.num_workers = static_cast<int64_t>(workload.workers.size());
  return result;
}

}  // namespace scguard::fixtures

#endif  // SCGUARD_TESTS_ENGINE_FIXTURES_H_
