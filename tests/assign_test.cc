#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "assign/algorithms.h"
#include "assign/ground_truth.h"
#include "assign/scguard_engine.h"
#include "data/workload.h"
#include "reachability/analytical_model.h"
#include "reachability/binary_model.h"
#include "stats/rng.h"

namespace scguard::assign {
namespace {

using privacy::PrivacyParams;

constexpr PrivacyParams kDefault{0.7, 800.0};

Worker MakeWorker(int64_t id, double x, double y, double reach) {
  Worker w;
  w.id = id;
  w.location = {x, y};
  w.noisy_location = {x, y};  // Zero noise unless perturbed.
  w.reach_radius_m = reach;
  return w;
}

Task MakeTask(int64_t id, double x, double y) {
  Task t;
  t.id = id;
  t.location = {x, y};
  t.noisy_location = {x, y};
  t.arrival_seq = id;
  return t;
}

// A 3x3 instance in the spirit of the paper's Fig. 1: w1 reaches all tasks,
// w2 reaches only t1, w3 reaches only t2; the optimal assignment is
// t1->w2, t2->w3, t3->w1.
Workload FigureOneWorkload() {
  Workload w;
  w.workers = {MakeWorker(0, 0, 0, 10000),   // w1: huge region.
               MakeWorker(1, 1000, 0, 600),  // w2: only near t1.
               MakeWorker(2, 0, 1000, 600)}; // w3: only near t2.
  w.tasks = {MakeTask(0, 1000, 100),   // t1: near w2 (and w1).
             MakeTask(1, 100, 1000),   // t2: near w3 (and w1).
             MakeTask(2, 3000, 3000)}; // t3: only w1.
  for (const auto& worker : w.workers) w.region.Extend(worker.location);
  for (const auto& task : w.tasks) w.region.Extend(task.location);
  return w;
}

void ExpectAllAssignmentsValid(const Workload& workload, const MatchResult& result) {
  std::set<int64_t> used_workers;
  for (const auto& a : result.assignments) {
    const auto worker_it =
        std::find_if(workload.workers.begin(), workload.workers.end(),
                     [&a](const Worker& w) { return w.id == a.worker_id; });
    const auto task_it =
        std::find_if(workload.tasks.begin(), workload.tasks.end(),
                     [&a](const Task& t) { return t.id == a.task_id; });
    ASSERT_NE(worker_it, workload.workers.end());
    ASSERT_NE(task_it, workload.tasks.end());
    EXPECT_TRUE(worker_it->CanReach(task_it->location))
        << "invalid assignment w" << a.worker_id << " -> t" << a.task_id;
    EXPECT_DOUBLE_EQ(a.travel_m,
                     geo::Distance(worker_it->location, task_it->location));
    EXPECT_TRUE(used_workers.insert(a.worker_id).second)
        << "worker " << a.worker_id << " assigned twice";
  }
}

// --------------------------------------------------------- Ground truth

TEST(GroundTruthTest, NearestNeighborPicksClosest) {
  Workload w;
  w.workers = {MakeWorker(0, 0, 0, 5000), MakeWorker(1, 900, 0, 5000)};
  w.tasks = {MakeTask(0, 1000, 0)};
  GroundTruthMatcher matcher(RankStrategy::kNearest);
  stats::Rng rng(1);
  const MatchResult result = matcher.Run(w, rng);
  ASSERT_EQ(result.assignments.size(), 1u);
  EXPECT_EQ(result.assignments[0].worker_id, 1);  // 100 m vs 1000 m.
  EXPECT_DOUBLE_EQ(result.assignments[0].travel_m, 100.0);
}

TEST(GroundTruthTest, AssignsAllWhenPossible) {
  const Workload w = FigureOneWorkload();
  GroundTruthMatcher matcher(RankStrategy::kNearest);
  stats::Rng rng(2);
  const MatchResult result = matcher.Run(w, rng);
  // NN matches t1->w2, t2->w3, t3->w1: the optimum.
  EXPECT_EQ(result.metrics.assigned_tasks, 3);
  ExpectAllAssignmentsValid(w, result);
}

TEST(GroundTruthTest, UnreachableTaskStaysUnassigned) {
  Workload w;
  w.workers = {MakeWorker(0, 0, 0, 100)};
  w.tasks = {MakeTask(0, 10000, 10000)};
  GroundTruthMatcher matcher(RankStrategy::kRandom);
  stats::Rng rng(3);
  const MatchResult result = matcher.Run(w, rng);
  EXPECT_EQ(result.metrics.assigned_tasks, 0);
  EXPECT_TRUE(result.assignments.empty());
}

TEST(GroundTruthTest, MetricsArePerfectOnExactData) {
  const Workload w = FigureOneWorkload();
  GroundTruthMatcher matcher(RankStrategy::kNearest);
  stats::Rng rng(4);
  const MatchResult result = matcher.Run(w, rng);
  EXPECT_EQ(result.metrics.false_hits, 0);
  EXPECT_EQ(result.metrics.false_dismissals, 0);
  EXPECT_DOUBLE_EQ(result.metrics.MeanPrecision(), 1.0);
  EXPECT_DOUBLE_EQ(result.metrics.MeanRecall(), 1.0);
}

TEST(GroundTruthTest, RankingIsMaximal) {
  // Ranking never leaves a task unassigned while a reachable unmatched
  // worker exists (greedy maximality).
  const geo::BoundingBox region = geo::BoundingBox::FromCorners({0, 0},
                                                                {20000, 20000});
  data::WorkloadConfig config;
  config.num_workers = 60;
  config.num_tasks = 60;
  stats::Rng rng(5);
  const Workload w = data::MakeUniformWorkload(region, config, rng);
  GroundTruthMatcher matcher(RankStrategy::kRandom);
  const MatchResult result = matcher.Run(w, rng);
  std::set<int64_t> matched_workers;
  std::set<int64_t> assigned_tasks;
  for (const auto& a : result.assignments) {
    matched_workers.insert(a.worker_id);
    assigned_tasks.insert(a.task_id);
  }
  for (const auto& task : w.tasks) {
    if (assigned_tasks.count(task.id) > 0) continue;
    for (const auto& worker : w.workers) {
      if (matched_workers.count(worker.id) > 0) continue;
      EXPECT_FALSE(worker.CanReach(task.location))
          << "task " << task.id << " skipped though worker " << worker.id
          << " was free and reachable";
    }
  }
}

// --------------------------------------------------------------- Engine

TEST(EngineTest, ZeroNoiseObliviousMatchesGroundTruthCount) {
  // With noisy == true locations the binary model is exact, so the
  // oblivious engine must reproduce the ground-truth Ranking outcome.
  const Workload w = FigureOneWorkload();
  AlgorithmParams params;
  params.worker_params = kDefault;
  params.task_params = kDefault;
  MatcherHandle oblivious = MakeOblivious(RankStrategy::kNearest, params);
  stats::Rng rng_a(6), rng_b(6);
  const MatchResult private_result = oblivious.Run(w, rng_a);
  GroundTruthMatcher exact(RankStrategy::kNearest);
  const MatchResult exact_result = exact.Run(w, rng_b);
  EXPECT_EQ(private_result.metrics.assigned_tasks,
            exact_result.metrics.assigned_tasks);
  EXPECT_EQ(private_result.metrics.false_hits, 0);
  ExpectAllAssignmentsValid(w, private_result);
}

Workload NoisyUniformWorkload(int n, uint64_t seed,
                              const PrivacyParams& params = kDefault) {
  const geo::BoundingBox region = geo::BoundingBox::FromCorners({0, 0},
                                                                {20000, 20000});
  data::WorkloadConfig config;
  config.num_workers = n;
  config.num_tasks = n;
  stats::Rng rng(seed);
  Workload w = data::MakeUniformWorkload(region, config, rng);
  data::PerturbWorkload(params, params, rng, w);
  return w;
}

TEST(EngineTest, AcceptedAssignmentsAreAlwaysValid) {
  const Workload w = NoisyUniformWorkload(80, 7);
  AlgorithmParams params;
  params.worker_params = kDefault;
  params.task_params = kDefault;
  for (auto make : {+[](const AlgorithmParams& p) {
                      return MakeOblivious(RankStrategy::kNearest, p);
                    },
                    +[](const AlgorithmParams& p) {
                      return MakeProbabilisticModel(p);
                    }}) {
    MatcherHandle handle = make(params);
    stats::Rng rng(8);
    const MatchResult result = handle.Run(w, rng);
    ExpectAllAssignmentsValid(w, result);
    EXPECT_GT(result.metrics.assigned_tasks, 0) << handle.name();
  }
}

TEST(EngineTest, MetricsInternallyConsistent) {
  const Workload w = NoisyUniformWorkload(80, 9);
  AlgorithmParams params;
  params.worker_params = kDefault;
  params.task_params = kDefault;
  MatcherHandle handle = MakeProbabilisticModel(params);
  stats::Rng rng(10);
  const MatchResult result = handle.Run(w, rng);
  const RunMetrics& m = result.metrics;
  // Every contact either succeeded or was a false hit.
  EXPECT_EQ(m.requester_to_worker_msgs, m.accepted_assignments + m.false_hits);
  EXPECT_EQ(m.accepted_assignments,
            static_cast<int64_t>(result.assignments.size()));
  EXPECT_EQ(m.assigned_tasks, m.accepted_assignments);  // K = 1.
  EXPECT_LE(m.assigned_tasks, m.num_tasks);
  EXPECT_EQ(m.server_to_requester_msgs, m.num_tasks);
  EXPECT_GE(m.MeanPrecision(), 0.0);
  EXPECT_LE(m.MeanPrecision(), 1.0);
  EXPECT_GE(m.MeanRecall(), 0.0);
  EXPECT_LE(m.MeanRecall(), 1.0);
  EXPECT_GE(m.u2e_seconds, 0.0);
  EXPECT_GE(m.total_seconds, m.u2e_seconds);
}

TEST(EngineTest, DeterministicForEqualSeeds) {
  const Workload w = NoisyUniformWorkload(60, 11);
  AlgorithmParams params;
  params.worker_params = kDefault;
  params.task_params = kDefault;
  MatcherHandle h1 = MakeProbabilisticModel(params);
  MatcherHandle h2 = MakeProbabilisticModel(params);
  stats::Rng rng_a(12), rng_b(12);
  const MatchResult a = h1.Run(w, rng_a);
  const MatchResult b = h2.Run(w, rng_b);
  ASSERT_EQ(a.assignments.size(), b.assignments.size());
  for (size_t i = 0; i < a.assignments.size(); ++i) {
    EXPECT_EQ(a.assignments[i].worker_id, b.assignments[i].worker_id);
    EXPECT_EQ(a.assignments[i].task_id, b.assignments[i].task_id);
  }
}

TEST(EngineTest, LowerAlphaGrowsCandidateSets) {
  const Workload w = NoisyUniformWorkload(80, 13);
  AlgorithmParams params;
  params.worker_params = kDefault;
  params.task_params = kDefault;
  params.beta = 0.0;
  params.alpha = 0.05;
  MatcherHandle loose = MakeProbabilisticModel(params);
  params.alpha = 0.4;
  MatcherHandle tight = MakeProbabilisticModel(params);
  stats::Rng rng_a(14), rng_b(14);
  const auto loose_result = loose.Run(w, rng_a);
  const auto tight_result = tight.Run(w, rng_b);
  EXPECT_GT(loose_result.metrics.candidates_sum,
            tight_result.metrics.candidates_sum);
}

TEST(EngineTest, HigherBetaReducesDisclosures) {
  const Workload w = NoisyUniformWorkload(80, 15);
  AlgorithmParams params;
  params.worker_params = kDefault;
  params.task_params = kDefault;
  params.beta = 0.0;
  MatcherHandle no_beta = MakeProbabilisticModel(params);
  params.beta = 0.4;
  MatcherHandle high_beta = MakeProbabilisticModel(params);
  stats::Rng rng_a(16), rng_b(16);
  const auto open = no_beta.Run(w, rng_a);
  const auto guarded = high_beta.Run(w, rng_b);
  EXPECT_LE(guarded.metrics.requester_to_worker_msgs,
            open.metrics.requester_to_worker_msgs);
  EXPECT_LE(guarded.metrics.false_hits, open.metrics.false_hits);
  // Beta canceling can only create false dismissals, never remove them.
  EXPECT_GE(guarded.metrics.false_dismissals, open.metrics.false_dismissals);
}

TEST(EngineTest, FirstContactBetaTradesLeakForUtility) {
  // The alternative beta reading (see EXPERIMENTS.md): once the first
  // contact clears the threshold, the requester goes best-effort.
  const Workload w = NoisyUniformWorkload(100, 27);
  AlgorithmParams params;
  params.worker_params = kDefault;
  params.task_params = kDefault;
  params.beta = 0.25;
  MatcherHandle strict = MakeProbabilisticModel(params);
  params.beta_mode = BetaMode::kFirstContactOnly;
  MatcherHandle permissive = MakeProbabilisticModel(params);
  stats::Rng rng_a(28), rng_b(28);
  const auto strict_result = strict.Run(w, rng_a);
  const auto permissive_result = permissive.Run(w, rng_b);
  EXPECT_GE(permissive_result.metrics.assigned_tasks,
            strict_result.metrics.assigned_tasks);
  EXPECT_GE(permissive_result.metrics.requester_to_worker_msgs,
            strict_result.metrics.requester_to_worker_msgs);
  // Fewer reachable workers are silently skipped.
  EXPECT_LE(permissive_result.metrics.false_dismissals,
            strict_result.metrics.false_dismissals);
}

TEST(EngineTest, BetaOneCancelsAlmostEverything) {
  const Workload w = NoisyUniformWorkload(50, 17);
  AlgorithmParams params;
  params.worker_params = kDefault;
  params.task_params = kDefault;
  params.beta = 1.0;  // Requires certainty: almost no contact happens.
  MatcherHandle handle = MakeProbabilisticModel(params);
  stats::Rng rng(18);
  const auto result = handle.Run(w, rng);
  EXPECT_LE(result.metrics.requester_to_worker_msgs, 5);
}

TEST(EngineTest, RedundantAssignmentNeedsKWorkers) {
  // Dense workers around each task so K = 2 is satisfiable.
  Workload w;
  for (int i = 0; i < 6; ++i) {
    w.workers.push_back(
        MakeWorker(i, 100.0 * i, 0, 5000));
  }
  w.tasks = {MakeTask(0, 250, 0), MakeTask(1, 300, 0)};
  for (const auto& worker : w.workers) w.region.Extend(worker.location);
  AlgorithmParams params;
  params.worker_params = kDefault;
  params.task_params = kDefault;
  params.redundancy_k = 2;
  params.beta = 0.0;
  MatcherHandle handle = MakeProbabilisticModel(params);
  stats::Rng rng(19);
  const auto result = handle.Run(w, rng);
  EXPECT_EQ(result.metrics.assigned_tasks, 2);
  EXPECT_EQ(result.metrics.accepted_assignments, 4);
  // No worker serves two tasks.
  std::set<int64_t> used;
  for (const auto& a : result.assignments) {
    EXPECT_TRUE(used.insert(a.worker_id).second);
  }
}

TEST(EngineTest, PruningPreservesResultsAtHighGamma) {
  const Workload w = NoisyUniformWorkload(100, 20);
  AlgorithmParams params;
  params.worker_params = kDefault;
  params.task_params = kDefault;
  MatcherHandle plain = MakeProbabilisticModel(params);
  params.pruning_gamma = 0.99;
  for (auto backend :
       {index::PrunerBackend::kGrid, index::PrunerBackend::kLinearScan}) {
    params.pruning_backend = backend;
    MatcherHandle pruned = MakeProbabilisticModel(params);
    stats::Rng rng_a(21), rng_b(21);
    const auto a = plain.Run(w, rng_a);
    const auto b = pruned.Run(w, rng_b);
    EXPECT_EQ(a.metrics.assigned_tasks, b.metrics.assigned_tasks)
        << index::PrunerBackendName(backend);
    EXPECT_EQ(a.metrics.candidates_sum, b.metrics.candidates_sum)
        << index::PrunerBackendName(backend);
    ASSERT_EQ(a.assignments.size(), b.assignments.size());
    for (size_t i = 0; i < a.assignments.size(); ++i) {
      EXPECT_EQ(a.assignments[i].worker_id, b.assignments[i].worker_id);
    }
  }
}

TEST(EngineTest, EmptyWorkloads) {
  AlgorithmParams params;
  params.worker_params = kDefault;
  params.task_params = kDefault;
  MatcherHandle handle = MakeProbabilisticModel(params);
  stats::Rng rng(22);
  Workload empty;
  const auto result = handle.Run(empty, rng);
  EXPECT_EQ(result.metrics.assigned_tasks, 0);

  Workload only_workers = NoisyUniformWorkload(10, 23);
  only_workers.tasks.clear();
  EXPECT_EQ(handle.Run(only_workers, rng).metrics.assigned_tasks, 0);

  Workload only_tasks = NoisyUniformWorkload(10, 24);
  only_tasks.workers.clear();
  const auto no_workers = handle.Run(only_tasks, rng);
  EXPECT_EQ(no_workers.metrics.assigned_tasks, 0);
  EXPECT_EQ(no_workers.metrics.candidates_sum, 0);
}

TEST(EngineTest, NamesIdentifyAlgorithms) {
  AlgorithmParams params;
  params.worker_params = kDefault;
  params.task_params = kDefault;
  EXPECT_EQ(MakeGroundTruth(RankStrategy::kRandom).name(), "GroundTruth-RR");
  EXPECT_EQ(MakeGroundTruth(RankStrategy::kNearest).name(), "GroundTruth-NN");
  EXPECT_EQ(MakeOblivious(RankStrategy::kRandom, params).name(), "Oblivious-RR");
  EXPECT_EQ(MakeOblivious(RankStrategy::kNearest, params).name(), "Oblivious-RN");
  EXPECT_EQ(MakeProbabilisticModel(params).name(), "Probabilistic-Model");
}

TEST(EngineTest, ObliviousFalseHitsCountDisclosures) {
  const Workload w = NoisyUniformWorkload(80, 25, PrivacyParams{0.1, 2000.0});
  AlgorithmParams params;
  params.worker_params = {0.1, 2000.0};
  params.task_params = {0.1, 2000.0};
  MatcherHandle handle = MakeOblivious(RankStrategy::kNearest, params);
  stats::Rng rng(26);
  const auto result = handle.Run(w, rng);
  // Heavy noise: the oblivious baseline must suffer disclosures.
  EXPECT_GT(result.metrics.false_hits, 0);
  EXPECT_EQ(result.metrics.requester_to_worker_msgs,
            result.metrics.false_hits + result.metrics.accepted_assignments);
}

}  // namespace
}  // namespace scguard::assign
