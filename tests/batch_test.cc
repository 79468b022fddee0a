#include <gtest/gtest.h>

#include <set>

#include "assign/batch.h"
#include "assign/offline.h"
#include "data/workload.h"
#include "engine_fixtures.h"
#include "privacy/truncated.h"
#include "reachability/analytical_model.h"
#include "reachability/binary_model.h"
#include "stats/rng.h"
#include "stats/welford.h"

namespace scguard::assign {
namespace {

using privacy::PrivacyParams;

constexpr PrivacyParams kDefault{0.7, 800.0};

using fixtures::NoisyWorkload;

TEST(BatchMatcherTest, AssignmentsAreValidAndWorkersUnique) {
  const Workload w = NoisyWorkload(80, 80, 1);
  const reachability::AnalyticalModel model(kDefault);
  BatchMatcher matcher(&model, 0.1, /*batch_size=*/10);
  stats::Rng rng(2);
  const MatchResult result = matcher.Run(w, rng);
  EXPECT_GT(result.metrics.assigned_tasks, 0);
  std::set<int64_t> used;
  for (const auto& a : result.assignments) {
    EXPECT_TRUE(used.insert(a.worker_id).second);
    EXPECT_TRUE(w.workers[static_cast<size_t>(a.worker_id)].CanReach(
        w.tasks[static_cast<size_t>(a.task_id)].location));
  }
  EXPECT_EQ(result.metrics.requester_to_worker_msgs,
            result.metrics.accepted_assignments + result.metrics.false_hits);
}

TEST(BatchMatcherTest, ZeroNoiseBatchEqualsOfflinePerBatch) {
  // With exact locations and one big batch, the batch matcher solves the
  // global min-cost matching: utility equals the offline optimum.
  const geo::BoundingBox region = geo::BoundingBox::FromCorners({0, 0},
                                                                {15000, 15000});
  data::WorkloadConfig config;
  config.num_workers = 50;
  config.num_tasks = 50;
  stats::Rng rng(3);
  Workload w = data::MakeUniformWorkload(region, config, rng);
  for (auto& worker : w.workers) worker.noisy_location = worker.location;
  for (auto& task : w.tasks) task.noisy_location = task.location;

  const reachability::BinaryModel binary;
  BatchMatcher one_batch(&binary, 0.5, /*batch_size=*/50);
  stats::Rng rng_a(4);
  const MatchResult batch_result = one_batch.Run(w, rng_a);
  EXPECT_EQ(batch_result.metrics.false_hits, 0);  // Exact data, no surprises.

  OfflineOptimalMatcher offline(OfflineObjective::kMaxTasks);
  stats::Rng rng_b(5);
  const MatchResult offline_result = offline.Run(w, rng_b);
  EXPECT_EQ(batch_result.metrics.assigned_tasks,
            offline_result.metrics.assigned_tasks);
}

TEST(BatchMatcherTest, LargerBatchesNeverHurtMuch) {
  // Batching trades latency for coordination; under noise the bigger
  // batch should be at least competitive on utility.
  const Workload w = NoisyWorkload(100, 100, 6);
  const reachability::AnalyticalModel model(kDefault);
  BatchMatcher small(&model, 0.1, 1);
  BatchMatcher large(&model, 0.1, 50);
  stats::Rng rng_a(7), rng_b(7);
  const auto small_result = small.Run(w, rng_a);
  const auto large_result = large.Run(w, rng_b);
  EXPECT_GE(large_result.metrics.assigned_tasks + 5,
            small_result.metrics.assigned_tasks);
}

TEST(BatchMatcherTest, NameEncodesBatchSize) {
  const reachability::BinaryModel binary;
  EXPECT_EQ(BatchMatcher(&binary, 0.5, 16).name(), "Batch-16");
}

}  // namespace
}  // namespace scguard::assign
