#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "assign/algorithms.h"
#include "assign/scguard_engine.h"
#include "assign/stages/candidate_stage.h"
#include "data/workload.h"
#include "engine_fixtures.h"
#include "geo/point.h"
#include "index/pruning.h"
#include "reachability/analytical_model.h"
#include "reachability/binary_model.h"
#include "reachability/empirical_model.h"
#include "reachability/empirical_table.h"
#include "reachability/kernel.h"
#include "runtime/thread_pool.h"
#include "stats/rng.h"

namespace scguard::reachability {
namespace {

using assign::AlgorithmParams;
using assign::MatcherHandle;
using assign::MatchResult;
using assign::Workload;
using privacy::PrivacyParams;

constexpr PrivacyParams kDefault{0.7, 800.0};

using fixtures::NoisyWorkload;
using fixtures::ExpectBitIdentical;
using fixtures::Compare;

// ------------------------------------------- Engine bit-identity contract

// The headline exactness contract: the certain-band filter decides exactly
// like direct evaluation — same assignments, same metrics, same RNG stream
// as the DirectEvalModel reference — across all three reachability models.
TEST(KernelEngineTest, ThresholdToggleIsBitIdenticalAcrossModels) {
  const Workload w = NoisyWorkload(120, 120, 31);
  stats::Rng build_rng(32);
  EmpiricalModelConfig config;
  config.region = geo::BoundingBox::FromCorners({0, 0}, {20000, 20000});
  config.num_samples = 60000;
  auto empirical_built = EmpiricalModel::Build(config, kDefault, build_rng);
  ASSERT_TRUE(empirical_built.ok());
  auto empirical = std::make_shared<const EmpiricalModel>(
      std::move(*empirical_built));

  using Factory = MatcherHandle (*)(
      const AlgorithmParams&, std::shared_ptr<const EmpiricalModel>);
  const std::pair<const char*, Factory> variants[] = {
      {"oblivious-binary",
       [](const AlgorithmParams& p, std::shared_ptr<const EmpiricalModel>) {
         return MakeOblivious(assign::RankStrategy::kNearest, p);
       }},
      {"probabilistic-model",
       [](const AlgorithmParams& p, std::shared_ptr<const EmpiricalModel>) {
         return MakeProbabilisticModel(p);
       }},
      {"probabilistic-data",
       [](const AlgorithmParams& p, std::shared_ptr<const EmpiricalModel> m) {
         return MakeProbabilisticData(p, std::move(m));
       }}};

  for (const auto& [label, make] : variants) {
    AlgorithmParams params;
    params.worker_params = kDefault;
    params.task_params = kDefault;
    MatcherHandle on = make(params, empirical);
    MatcherHandle off = fixtures::DirectEvalReference(on);
    stats::Rng rng_on(33), rng_off(33);
    const MatchResult a = on.Run(w, rng_on);
    const MatchResult b = off.Run(w, rng_off);
    ExpectBitIdentical(a, b, label);
    // Both runs must have consumed the RNG stream identically.
    EXPECT_EQ(rng_on.UniformDouble(), rng_off.UniformDouble()) << label;
  }
}

TEST(KernelEngineTest, ThresholdToggleIsBitIdenticalUnderPruning) {
  const Workload w = NoisyWorkload(150, 150, 34);
  MatchResult linear_direct;  // The grid's direct-evaluation scan reference.
  for (auto backend :
       {index::PrunerBackend::kLinearScan, index::PrunerBackend::kGrid}) {
    AlgorithmParams params;
    params.worker_params = kDefault;
    params.task_params = kDefault;
    params.pruning_gamma = 0.9;
    params.pruning_backend = backend;
    MatcherHandle on = MakeProbabilisticModel(params);
    MatcherHandle off = fixtures::DirectEvalReference(on);
    stats::Rng rng_on(35), rng_off(35);
    const MatchResult a = on.Run(w, rng_on);
    const MatchResult b = off.Run(w, rng_off);
    const std::string label(index::PrunerBackendName(backend));
    if (backend == index::PrunerBackend::kGrid) {
      // The grid skips the rows of cells its alpha certificate rejects,
      // which the reference never certifies: the runs scan different sets.
      ExpectBitIdentical(a, b, label, Compare::kOutcome);
      EXPECT_LE(a.metrics.u2u_scanned, b.metrics.u2u_scanned) << label;
      // With no certificate on either side, the grid's fused rectangle
      // admission counts exactly the linear backend's rectangle hits.
      ExpectBitIdentical(linear_direct, b, label + " direct vs linear direct",
                         Compare::kScan);
    } else {
      // Same scanned sets; only the traffic model differs.
      ExpectBitIdentical(a, b, label, Compare::kScan);
    }
    if (backend == index::PrunerBackend::kLinearScan) linear_direct = b;
    EXPECT_EQ(rng_on.UniformDouble(), rng_off.UniformDouble());
  }
}

// Sorted-pruner satellite: pruned runs must also match the unpruned scan
// exactly at near-certain gamma (the engine no longer re-sorts, so this
// doubles as the ascending-id contract check).
TEST(KernelEngineTest, PrunedRunsStayIdenticalToUnprunedAtHighGamma) {
  const Workload w = NoisyWorkload(100, 100, 36);
  AlgorithmParams params;
  params.worker_params = kDefault;
  params.task_params = kDefault;
  MatcherHandle plain = MakeProbabilisticModel(params);
  stats::Rng rng_plain(37);
  const MatchResult base = plain.Run(w, rng_plain);
  for (auto backend :
       {index::PrunerBackend::kLinearScan, index::PrunerBackend::kGrid}) {
    params.pruning_gamma = 0.999;
    params.pruning_backend = backend;
    MatcherHandle pruned = MakeProbabilisticModel(params);
    stats::Rng rng(37);
    ExpectBitIdentical(base, pruned.Run(w, rng),
                       std::string(index::PrunerBackendName(backend)),
                       Compare::kOutcome);
  }
}

// ------------------------------------------------- Threshold inversion

// The inversion agrees with direct evaluation everywhere, including at
// +/- 1 ulp around both critical distances.
TEST(AlphaThresholdTest, AgreesWithDirectEvalAroundBoundary) {
  const AnalyticalModel model(kDefault);
  for (double alpha : {0.05, 0.1, 0.4, 0.9}) {
    AlphaThresholdCache cache(&model, Stage::kU2U, alpha);
    for (double radius : {600.0, 1400.0, 3000.0}) {
      const AlphaThreshold& t = cache.For(radius);
      // At alpha = 0.4, R = 600 even p(0) < alpha: no accept region exists
      // (accept_below_m = -1) and the filter certainly rejects everything.
      EXPECT_EQ(t.accept_below_m >= 0.0,
                model.ProbReachable(Stage::kU2U, 0.0, radius) >= alpha)
          << "alpha=" << alpha << " R=" << radius;
      std::vector<double> probes;
      for (double b : {t.accept_below_m, t.reject_above_m}) {
        if (b < 0.0 || std::isinf(b)) continue;
        if (b > 0.0) probes.push_back(std::nextafter(b, 0.0));
        probes.push_back(b);
        probes.push_back(std::nextafter(b, 1e18));
      }
      for (double d = 0.0; d <= 12000.0; d += 97.0) probes.push_back(d);
      for (double d : probes) {
        const bool direct =
            model.ProbReachable(Stage::kU2U, d, radius) >= alpha;
        EXPECT_EQ(cache.IsCandidate(d, radius), direct)
            << "alpha=" << alpha << " R=" << radius << " d=" << d;
      }
    }
    // Each on-node radius inverts its one lattice node, memoized.
    EXPECT_EQ(cache.nodes_bisected(), 3);
  }
}

TEST(AlphaThresholdTest, BinaryModelThresholdIsExactStep) {
  const BinaryModel model;
  AlphaThresholdCache cache(&model, Stage::kU2U, 0.5);
  const double r = 1000.0;
  EXPECT_TRUE(cache.IsCandidate(r, r));  // d == R accepts (p = 1).
  EXPECT_FALSE(cache.IsCandidate(std::nextafter(r, 1e18), r));
  EXPECT_TRUE(cache.IsCandidate(0.0, r));
  // No direct evaluations needed: the step is representable exactly.
  EXPECT_EQ(cache.exact_evals(), 0);
}

// The empirical table is piecewise-constant in d_obs and need not be
// monotone; the inversion must still reproduce every per-bucket decision.
TEST(AlphaThresholdTest, EmpiricalInversionMatchesBucketDecisions) {
  stats::Rng rng(38);
  EmpiricalModelConfig config;
  config.region = geo::BoundingBox::FromCorners({0, 0}, {20000, 20000});
  config.num_samples = 40000;
  const auto model = EmpiricalModel::Build(config, kDefault, rng);
  ASSERT_TRUE(model.ok());
  for (double alpha : {0.05, 0.3, 0.7}) {
    AlphaThresholdCache cache(&*model, Stage::kU2U, alpha);
    for (double radius : {800.0, 1400.0}) {
      const double width = model->u2u_table().bucket_width_m();
      for (int b = 0; b < model->u2u_table().num_buckets(); ++b) {
        // Probe the bucket's interior and both edges.
        for (double d : {b * width, (b + 0.5) * width,
                         std::nextafter((b + 1) * width, 0.0)}) {
          const bool direct =
              model->ProbReachable(Stage::kU2U, d, radius) >= alpha;
          EXPECT_EQ(cache.IsCandidate(d, radius), direct)
              << "alpha=" << alpha << " R=" << radius << " d=" << d;
        }
      }
    }
  }
}

// Lattice decisions at the stage: Collect and Decide equal brute
// `ProbReachable >= alpha` for every worker, for radii on a lattice node,
// one ulp either side of one, between nodes, past the lattice and off it
// entirely — over the brute scan, the gather-pruned scan (linear backend)
// and the grid's mirror scan, on pools of 1 and 4 threads, for every model
// kind. Radii a model or backend cannot take are left out per case: the
// Rice CDF rejects a NaN or +inf radius by CHECK, the planar Laplace
// quadrature any negative, infinite or NaN one, and the grid index stores
// only finite expanded radii.
TEST(AlphaThresholdTest, LatticeDecisionsMatchDirectEvalAcrossPathsAndPools) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kMax = AlphaThresholdCache::kMaxRadiusM;
  constexpr double kGamma = 0.9;
  const std::vector<double> finite_radii = {
      // On a node (the lattice's last node included).
      1000.0, 2787.0, 3000.0, kMax,
      // One ulp either side of a node.
      std::nextafter(2000.0, 0.0), std::nextafter(2000.0, kInf),
      std::nextafter(1.0, 0.0),
      // Between nodes, including below the first positive one.
      2787.9, 1234.56, 0.4, kMax - 0.5,
      // Past the lattice.
      std::nextafter(kMax, kInf), kMax + 0.5, 26000.0,
      // Off the lattice below it.
      0.0, -5.0};
  const Workload w = NoisyWorkload(160, 10, 40);
  const geo::BoundingBox region = w.region;

  stats::Rng build_rng(41);
  EmpiricalModelConfig empirical_config;
  empirical_config.region = region;
  empirical_config.num_samples = 20000;
  const auto empirical = EmpiricalModel::Build(empirical_config, kDefault,
                                               build_rng);
  ASSERT_TRUE(empirical.ok());
  const BinaryModel binary;
  const AnalyticalModel paper(kDefault, AnalyticalMode::kPaperNormalApprox);
  const AnalyticalModel rice(kDefault, AnalyticalMode::kExactRice);
  const AnalyticalModel matched(kDefault, AnalyticalMode::kMomentMatched);
  const AnalyticalModel laplace(kDefault, AnalyticalMode::kExactLaplace);
  struct ModelCase {
    const char* label;
    const ReachabilityModel* model;
    std::vector<double> extra_radii;  // Beyond finite_radii.
    bool lattice;                     // Inverted at lattice nodes.
  };
  const ModelCase models[] = {
      {"binary", &binary, {kNaN, kInf, -kInf}, false},
      {"paper-normal", &paper, {kNaN, kInf, -kInf}, true},
      {"exact-rice", &rice, {-kInf}, true},
      {"moment-matched", &matched, {-kInf}, true},
      {"exact-laplace", &laplace, {}, false},
      {"empirical", &*empirical, {kNaN, kInf, -kInf}, false},
  };

  runtime::ThreadPool pool1(1);
  runtime::ThreadPool pool4(4);
  for (const ModelCase& mc : models) {
    for (const auto backend : {std::optional<index::PrunerBackend>{},
                               std::optional(index::PrunerBackend::kLinearScan),
                               std::optional(index::PrunerBackend::kGrid)}) {
      // The exact-Laplace quadrature takes no negative radius.
      std::vector<double> radii;
      for (const double r : finite_radii) {
        if (mc.model != &laplace || r >= 0.0) radii.push_back(r);
      }
      if (backend != index::PrunerBackend::kGrid) {
        radii.insert(radii.end(), mc.extra_radii.begin(), mc.extra_radii.end());
      }
      std::vector<index::UncertainRegionPruner::WorkerRegion> regions;
      for (size_t i = 0; i < w.workers.size(); ++i) {
        regions.push_back({static_cast<int64_t>(i), w.workers[i].noisy_location,
                           radii[i % radii.size()]});
      }
      // The pruner admission every pruned Collect applies first.
      const index::UncertainRegionPruner admission(
          regions, kDefault, kDefault, kGamma, region);
      for (runtime::ThreadPool* pool : {&pool1, &pool4}) {
        const std::string label =
            std::string(mc.label) + " pruner=" +
            (backend ? std::string(index::PrunerBackendName(*backend))
                     : std::string("off")) +
            " threads=" + std::to_string(pool->num_threads());
        assign::U2uCandidateStage::Config config;
        config.model = mc.model;
        config.alpha = 0.2;
        config.runtime = {.pool = pool, .shard_size = 16};
        if (backend) {
          config.pruning = assign::U2uCandidateStage::Pruning{
              kGamma, *backend, kDefault, kDefault, region};
        }
        assign::U2uCandidateStage stage(config);
        for (const auto& r : regions) {
          stage.AddWorker(r.noisy_location, r.reach_radius_m);
        }
        for (const assign::Task& task : w.tasks) {
          const geo::Point t = task.noisy_location;
          std::vector<bool> direct(regions.size());
          for (size_t i = 0; i < regions.size(); ++i) {
            direct[i] = mc.model->ProbReachable(
                            Stage::kU2U,
                            geo::Distance(regions[i].noisy_location, t),
                            regions[i].reach_radius_m) >= config.alpha;
            EXPECT_EQ(stage.Decide(static_cast<uint32_t>(i), t), direct[i])
                << label << " worker " << i
                << " r=" << regions[i].reach_radius_m;
          }
          std::vector<uint32_t> expected;
          if (backend) {
            for (const int64_t id : admission.Candidates(t)) {
              if (direct[static_cast<size_t>(id)]) {
                expected.push_back(static_cast<uint32_t>(id));
              }
            }
          } else {
            for (uint32_t i = 0; i < regions.size(); ++i) {
              if (direct[i]) expected.push_back(i);
            }
          }
          EXPECT_EQ(stage.Collect(t), expected) << label;
        }
        // Bisected models pay per node touched, never per worker.
        EXPECT_EQ(stage.threshold_nodes() > 0, mc.lattice) << label;
        EXPECT_LE(stage.threshold_nodes(), 2 * 12) << label;
      }
    }

    // Random tasks rarely land inside a sub-meter band, so walk a 1 cm
    // ladder across each radius's certain bounds (+-1 m) with the worker
    // at the origin, where the task's x is its exact distance.
    std::vector<double> radii;
    for (const double r : finite_radii) {
      if (mc.model != &laplace || r >= 0.0) radii.push_back(r);
    }
    assign::U2uCandidateStage::Config config;
    config.model = mc.model;
    config.alpha = 0.2;
    assign::U2uCandidateStage stage(config);
    AlphaThresholdCache bounds(mc.model, Stage::kU2U, config.alpha);
    for (const double r : radii) stage.AddWorker({0.0, 0.0}, r);
    for (uint32_t i = 0; i < radii.size(); ++i) {
      const AlphaThreshold t = bounds.For(radii[i]);
      const double lo = std::max(0.0, std::min(t.accept_below_m,
                                               t.reject_above_m) - 1.0);
      const double hi = std::max(t.accept_below_m, t.reject_above_m) + 1.0;
      if (!std::isfinite(hi)) continue;
      for (double d = lo; d <= hi; d += 0.01) {
        EXPECT_EQ(stage.Decide(i, {d, 0.0}),
                  mc.model->ProbReachable(Stage::kU2U, d, radii[i]) >=
                      config.alpha)
            << mc.label << " r=" << radii[i] << " d=" << d;
      }
    }
  }
}

// ------------------------------------------------------- Batch evaluation

TEST(BatchEvalTest, MatchesScalarBitForBit) {
  stats::Rng rng(39);
  EmpiricalModelConfig config;
  config.region = geo::BoundingBox::FromCorners({0, 0}, {20000, 20000});
  config.num_samples = 30000;
  const auto empirical = EmpiricalModel::Build(config, kDefault, rng);
  ASSERT_TRUE(empirical.ok());
  const AnalyticalModel analytical(kDefault);
  const BinaryModel binary;
  const ReachabilityModel* models[] = {&binary, &analytical, &*empirical};

  const size_t n = 257;
  std::vector<double> d(n), r(n), batch(n);
  for (size_t i = 0; i < n; ++i) {
    d[i] = rng.UniformDouble(0.0, 15000.0);
    r[i] = rng.UniformDouble(300.0, 3000.0);
  }
  for (const ReachabilityModel* model : models) {
    for (Stage stage : {Stage::kU2U, Stage::kU2E}) {
      model->ProbReachableBatch(stage, d.data(), r.data(), n, batch.data());
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(batch[i], model->ProbReachable(stage, d[i], r[i]))
            << model->name() << " " << StageName(stage) << " i=" << i;
      }
    }
  }
}

// ----------------------------------------- Empirical sparse fallback

TEST(EmpiricalTableTest, SparseFallbackIndexMatchesLazyWalk) {
  // A sparse table: only buckets 2, 7 and 9 hold samples.
  EmpiricalTable walk(100.0, 12, 4000.0, 40);
  walk.Add(500.0, 250.0);
  walk.Add(900.0, 270.0);
  walk.Add(1500.0, 770.0);
  walk.Add(3500.0, 950.0);
  EmpiricalTable indexed(100.0, 12, 4000.0, 40);
  indexed.Add(500.0, 250.0);
  indexed.Add(900.0, 270.0);
  indexed.Add(1500.0, 770.0);
  indexed.Add(3500.0, 950.0);
  indexed.WarmQueryCache();  // Builds the nearest-populated index.
  for (int b = 0; b < 12; ++b) {
    const double d = (b + 0.25) * 100.0;
    for (double threshold : {400.0, 1000.0, 2600.0}) {
      EXPECT_EQ(indexed.ProbBelow(d, threshold), walk.ProbBelow(d, threshold))
          << "bucket=" << b << " threshold=" << threshold;
    }
  }
}

TEST(EmpiricalTableTest, MergeInvalidatesFallbackIndex) {
  EmpiricalTable a(100.0, 8, 4000.0, 40);
  a.Add(100.0, 150.0);
  a.WarmQueryCache();
  EmpiricalTable b(100.0, 8, 4000.0, 40);
  b.Add(600.0, 650.0);
  ASSERT_TRUE(a.Merge(b).ok());
  // Bucket 6 is now populated; a stale index would shift the query to
  // bucket 1 and see only the short sample.
  EXPECT_GT(a.ProbBelow(650.0, 700.0), 0.99);
  a.WarmQueryCache();
  // Post-merge + re-warm must agree with a never-warmed table holding the
  // same samples on every bucket (ties included).
  EmpiricalTable fresh(100.0, 8, 4000.0, 40);
  fresh.Add(100.0, 150.0);
  fresh.Add(600.0, 650.0);
  for (int bucket = 0; bucket < 8; ++bucket) {
    const double d = (bucket + 0.5) * 100.0;
    for (double threshold : {150.0, 700.0}) {
      EXPECT_EQ(a.ProbBelow(d, threshold), fresh.ProbBelow(d, threshold))
          << "bucket=" << bucket << " threshold=" << threshold;
    }
  }
}

}  // namespace
}  // namespace scguard::reachability
