// Shared fixtures of the engine-level bit-identity suites: one noisy
// uniform workload, the direct-evaluation reference of the U2U filter, and
// one MatchResult comparison.

#ifndef SCGUARD_TESTS_ENGINE_FIXTURES_H_
#define SCGUARD_TESTS_ENGINE_FIXTURES_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "assign/algorithms.h"
#include "assign/matcher.h"
#include "assign/scguard_engine.h"
#include "common/check.h"
#include "data/workload.h"
#include "geo/bbox.h"
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
  EXPECT_EQ(x.u2u_gather_bytes, y.u2u_gather_bytes) << label;
  EXPECT_EQ(x.cells_emitted_direct, y.cells_emitted_direct) << label;
}

}  // namespace scguard::fixtures

#endif  // SCGUARD_TESTS_ENGINE_FIXTURES_H_
