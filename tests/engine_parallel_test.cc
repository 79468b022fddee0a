// Thread-count / shard-size invariance of the engine's sharded U2U scan
// (DESIGN.md section 9), plus the active-set maintenance against brute
// and freshly-built references and the removal support it leans on in the
// index layer. The determinism contract under test: for a fixed policy and
// workload, MatchResult and the caller's RNG stream are bit-identical for
// every (pool, shard_size) combination.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "assign/scguard_engine.h"
#include "assign/stages/candidate_stage.h"
#include "data/workload.h"
#include "engine_fixtures.h"
#include "geo/bbox.h"
#include "index/grid_index.h"
#include "index/pruning.h"
#include "reachability/analytical_model.h"
#include "reachability/kernel.h"
#include "runtime/task_group.h"
#include "runtime/thread_pool.h"
#include "stats/rng.h"

namespace scguard::assign {
namespace {

using privacy::PrivacyParams;

constexpr PrivacyParams kDefault{0.7, 800.0};

using fixtures::NoisyWorkload;
using fixtures::ExpectBitIdentical;
using fixtures::Compare;

EnginePolicy BasePolicy(const reachability::AnalyticalModel* model) {
  EnginePolicy policy;
  policy.u2u_model = model;
  policy.u2e_model = model;
  policy.alpha = 0.1;
  policy.beta = 0.25;
  policy.rank = RankStrategy::kProbability;
  policy.worker_params = kDefault;
  policy.task_params = kDefault;
  return policy;
}

// The invariance matrix: pools {serial, 1, 2, 8} x shard sizes {64, 1024}
// x pruner {off, grid, linear} x U2U filter {certain bands, the
// direct-evaluation reference}, each cell compared bit for bit (including
// the caller's RNG stream) against the serial run at the default shard
// size.
TEST(EngineParallelTest, ThreadShardPrunerThresholdInvariance) {
  const reachability::AnalyticalModel model(kDefault);
  const fixtures::DirectEvalModel direct(&model);
  const Workload workload = NoisyWorkload(300, 300, 20260806);

  // Pools are shared across cells; every Run must leave them reusable.
  std::vector<std::unique_ptr<runtime::ThreadPool>> pools;
  pools.push_back(nullptr);  // Serial.
  for (const int threads : {1, 2, 8}) {
    pools.push_back(std::make_unique<runtime::ThreadPool>(threads));
  }

  struct PrunerCase {
    const char* name;
    std::optional<double> gamma;
    index::PrunerBackend backend;
  };
  const PrunerCase pruners[] = {
      {"off", std::nullopt, index::PrunerBackend::kGrid},
      {"grid", 0.9, index::PrunerBackend::kGrid},
      {"linear", 0.9, index::PrunerBackend::kLinearScan},
  };

  for (const bool thresholds : {true, false}) {
    for (const PrunerCase& pc : pruners) {
      // Baseline: the serial scan.
      EnginePolicy base = BasePolicy(&model);
      if (!thresholds) base.u2u_model = &direct;
      base.pruning_gamma = pc.gamma;
      base.pruning_backend = pc.backend;
      ScGuardEngine baseline(base);
      stats::Rng base_rng(7);
      const MatchResult expected = baseline.Run(workload, base_rng);
      ASSERT_GT(expected.metrics.assigned_tasks, 0);
      // Where the baseline left the stream; every cell must land exactly
      // here too (the scan consumes no draws regardless of configuration).
      const double expected_next_draw = base_rng.UniformDouble();

      for (const auto& pool : pools) {
        for (const int shard_size : {64, 1024}) {
          EnginePolicy policy = BasePolicy(&model);
          if (!thresholds) policy.u2u_model = &direct;
          policy.pruning_gamma = pc.gamma;
          policy.pruning_backend = pc.backend;
          policy.runtime.pool = pool.get();
          policy.runtime.shard_size = shard_size;
          ScGuardEngine engine(policy);
          stats::Rng rng(7);
          const MatchResult result = engine.Run(workload, rng);
          const std::string label =
              std::string("thresholds=") + (thresholds ? "on" : "off") +
              " pruner=" + pc.name +
              " threads=" + std::to_string(pool ? pool->num_threads() : 0) +
              " shard=" + std::to_string(shard_size);
          ExpectBitIdentical(expected, result, label);
          // Identical RNG stream: the scan consumed no draws either way.
          EXPECT_EQ(expected_next_draw, rng.UniformDouble()) << label;
        }
      }
    }
  }
}

// The cell-run U2E cursor on the grid path, across pools of 1 and 4 and
// shard sizes 64 and 4096, with redundancy 1 and 3 (the deferred
// MarkMatched): every cell equals the eager reference (ascending Collect,
// eager Rank, vector contact walk) bit for bit, and the serial run's scan
// and certification counters.
TEST(EngineParallelTest, CellRunCursorMatchesEagerAcrossPoolsAndShards) {
  const reachability::AnalyticalModel model(kDefault);
  const Workload workload = NoisyWorkload(3000, 120, 20261018);
  std::vector<std::unique_ptr<runtime::ThreadPool>> pools;
  pools.push_back(std::make_unique<runtime::ThreadPool>(1));
  pools.push_back(std::make_unique<runtime::ThreadPool>(4));
  for (const int k : {1, 3}) {
    EnginePolicy base = BasePolicy(&model);
    base.pruning_gamma = 0.9;
    base.redundancy_k = k;
    stats::Rng reference_rng(9);
    const MatchResult reference =
        fixtures::RunEagerReference(base, workload, reference_rng);
    ASSERT_GT(reference.metrics.assigned_tasks, 0);
    const double expected_next_draw = reference_rng.UniformDouble();
    stats::Rng serial_rng(9);
    const MatchResult serial = ScGuardEngine(base).Run(workload, serial_rng);
    ExpectBitIdentical(serial, reference, "serial k=" + std::to_string(k),
                       Compare::kOutcome);
    for (const auto& pool : pools) {
      for (const int shard_size : {64, 4096}) {
        EnginePolicy policy = base;
        policy.runtime.pool = pool.get();
        policy.runtime.shard_size = shard_size;
        stats::Rng rng(9);
        const MatchResult result = ScGuardEngine(policy).Run(workload, rng);
        const std::string label =
            "k=" + std::to_string(k) +
            " threads=" + std::to_string(pool->num_threads()) +
            " shard=" + std::to_string(shard_size);
        ExpectBitIdentical(result, reference, label, Compare::kOutcome);
        ExpectBitIdentical(result, serial, label);
        EXPECT_EQ(rng.UniformDouble(), expected_next_draw) << label;
      }
    }
  }
}

// Nested use: Run invoked from inside a pool worker (as ExperimentRunner's
// seed fan-out does) must fall back to a serial scan, not deadlock, and
// still produce the identical result.
TEST(EngineParallelTest, NestedInsidePoolWorkerFallsBackSerially) {
  const reachability::AnalyticalModel model(kDefault);
  const Workload workload = NoisyWorkload(150, 150, 99);
  runtime::ThreadPool pool(4);

  EnginePolicy policy = BasePolicy(&model);
  policy.runtime.pool = &pool;
  policy.runtime.shard_size = 32;
  ScGuardEngine engine(policy);

  stats::Rng serial_rng(3);
  const MatchResult expected = engine.Run(workload, serial_rng);

  MatchResult nested;
  {
    runtime::TaskGroup group(pool);
    group.Run([&]() -> Status {
      EXPECT_TRUE(runtime::ThreadPool::InWorkerThread());
      stats::Rng rng(3);
      nested = engine.Run(workload, rng);
      return Status::OK();
    });
    ASSERT_TRUE(group.Wait().ok());
  }
  ExpectBitIdentical(expected, nested, "nested-in-pool");
}

/// The brute-scan reference: every available worker the scalar filter
/// admits, ascending.
std::vector<uint32_t> BruteCandidates(U2uCandidateStage& stage,
                                      geo::Point task) {
  std::vector<uint32_t> out;
  for (uint32_t i = 0; i < stage.size(); ++i) {
    if (!stage.is_matched(i) && stage.Decide(i, task)) out.push_back(i);
  }
  return out;
}

/// Service-style availability and location churn after a Collect: match the
/// best candidate, every few tasks reactivate a matched worker, and every
/// few more relocate a random one. `noisy` tracks the current locations.
void Churn(U2uCandidateStage& stage, const std::vector<uint32_t>& got,
           size_t step, stats::Rng& rng, std::vector<geo::Point>& noisy,
           std::vector<uint32_t>& matched) {
  if (!got.empty()) {
    stage.MarkMatched(got.front());
    matched.push_back(got.front());
  }
  if (step % 5 == 2 && !matched.empty()) {
    const auto k = static_cast<size_t>(rng.UniformInt(matched.size()));
    stage.MarkAvailable(matched[k]);
    matched.erase(matched.begin() + static_cast<std::ptrdiff_t>(k));
  }
  if (step % 7 == 3) {
    const auto mover = static_cast<uint32_t>(rng.UniformInt(noisy.size()));
    noisy[mover] = {rng.UniformDouble(0.0, 20000.0),
                    rng.UniformDouble(0.0, 20000.0)};
    stage.UpdateWorkerLocation(mover, noisy[mover]);
  }
}

// Active-set compaction is an optimization, not a semantic change: through
// match / reactivate / relocate churn, every brute-scan Collect must equal
// the reference {i : !is_matched(i) && Decide(i, task)} and score exactly
// the available workers, and an engine run's per-task scan work must
// shrink as workers get matched.
TEST(EngineParallelTest, ActiveSetMatchesFullScanAndShrinksWork) {
  const reachability::AnalyticalModel model(kDefault);
  const fixtures::DirectEvalModel direct(&model);
  const Workload workload = NoisyWorkload(400, 400, 11);

  for (const bool thresholds : {true, false}) {
    U2uCandidateStage::Config config;
    config.model = &model;
    if (!thresholds) config.model = &direct;
    config.alpha = 0.1;
    config.runtime.shard_size = 64;
    U2uCandidateStage stage(config);
    std::vector<geo::Point> noisy;
    for (const Worker& w : workload.workers) {
      stage.AddWorker(w.noisy_location, w.reach_radius_m);
      noisy.push_back(w.noisy_location);
    }
    stats::Rng rng(5);
    std::vector<uint32_t> matched;
    for (size_t t = 0; t < workload.tasks.size(); ++t) {
      const geo::Point task = workload.tasks[t].noisy_location;
      const std::vector<uint32_t> got = stage.Collect(task);
      const std::string label = std::string("thresholds=") +
                                (thresholds ? "on" : "off") +
                                " task=" + std::to_string(t);
      EXPECT_EQ(got, BruteCandidates(stage, task)) << label;
      EXPECT_EQ(stage.stats().scanned_last,
                static_cast<int64_t>(stage.available()))
          << label;
      Churn(stage, got, t, rng, noisy, matched);
    }
    EXPECT_GT(stage.compactions(), 0);
  }

  EnginePolicy policy = BasePolicy(&model);
  policy.runtime.shard_size = 64;
  ScGuardEngine engine(policy);
  stats::Rng rng(5);
  const MatchResult run = engine.Run(workload, rng);
  ASSERT_GT(run.metrics.assigned_tasks, 0);
  EXPECT_EQ(run.metrics.u2u_scanned_first_task, 400);
  EXPECT_LT(run.metrics.u2u_scanned_last_task,
            run.metrics.u2u_scanned_first_task);
}

// The same equivalence through every pruning index, where the active set
// is index maintenance (Remove on match, Restore on reactivation, Relocate
// on re-report): after the same churn, the incrementally maintained stage
// must answer exactly like one freshly built over the same locations and
// matched set.
TEST(EngineParallelTest, ActiveSetMatchesFullScanUnderPruner) {
  const reachability::AnalyticalModel model(kDefault);
  const Workload workload = NoisyWorkload(300, 300, 17);

  for (const auto backend :
       {index::PrunerBackend::kLinearScan, index::PrunerBackend::kGrid}) {
    U2uCandidateStage::Config config;
    config.model = &model;
    config.alpha = 0.1;
    config.runtime.shard_size = 64;
    config.pruning = U2uCandidateStage::Pruning{0.9, backend, kDefault,
                                                kDefault, workload.region};
    U2uCandidateStage stage(config);
    std::vector<geo::Point> noisy;
    for (const Worker& w : workload.workers) {
      stage.AddWorker(w.noisy_location, w.reach_radius_m);
      noisy.push_back(w.noisy_location);
    }
    stats::Rng rng(5);
    std::vector<uint32_t> matched;
    for (size_t t = 0; t < 120; ++t) {
      const geo::Point task = workload.tasks[t].noisy_location;
      const std::vector<uint32_t> got = stage.Collect(task);
      for (const uint32_t i : got) EXPECT_FALSE(stage.is_matched(i)) << i;
      if (t % 4 == 0) {
        // The fresh build replays the matched set before its first
        // Collect, so its index is built with the removals applied.
        U2uCandidateStage fresh(config);
        for (size_t i = 0; i < noisy.size(); ++i) {
          fresh.AddWorker(noisy[i], workload.workers[i].reach_radius_m);
        }
        for (const uint32_t i : matched) fresh.MarkMatched(i);
        const std::string label =
            std::string(index::PrunerBackendName(backend)) +
            " task=" + std::to_string(t);
        EXPECT_EQ(got, fresh.Collect(task)) << label;
        EXPECT_EQ(stage.stats().scanned_last, fresh.stats().scanned_last)
            << label;
        EXPECT_EQ(stage.stats().pruned_last, fresh.stats().pruned_last)
            << label;
      }
      Churn(stage, got, t, rng, noisy, matched);
    }
    EXPECT_FALSE(matched.empty());
  }
}

// A re-report or a reactivation must not rebuild the index (DESIGN.md
// section 14). Under the grid backend, UpdateWorkerLocation and
// MarkAvailable keep the built index: it is still there right after the
// call, with no Collect in between, and its cumulative cell counters never
// fall (a rebuilt index would count from zero again). Every sampled Collect
// still equals a stage freshly built over the same locations and matched
// set. A registration after Prepare does change the indexed set, so it
// drops the index until the next Collect rebuilds it.
TEST(EngineParallelTest, GridIndexSurvivesRelocateAndReactivate) {
  const reachability::AnalyticalModel model(kDefault);
  const Workload workload = NoisyWorkload(300, 300, 29);
  const geo::BoundingBox& region = workload.region;
  U2uCandidateStage::Config config;
  config.model = &model;
  config.alpha = 0.1;
  config.pruning = U2uCandidateStage::Pruning{
      0.9, index::PrunerBackend::kGrid, kDefault, kDefault, region};
  U2uCandidateStage stage(config);
  std::vector<geo::Point> noisy;
  for (const Worker& w : workload.workers) {
    stage.AddWorker(w.noisy_location, w.reach_radius_m);
    noisy.push_back(w.noisy_location);
  }
  stage.Prepare();
  ASSERT_NE(stage.grid_query_stats(), nullptr);

  index::GridIndex::QueryStats last;
  const auto expect_index_kept = [&](const std::string& label) {
    const index::GridIndex::QueryStats* gs = stage.grid_query_stats();
    ASSERT_NE(gs, nullptr) << label;
    EXPECT_GE(gs->cells_bulk_accepted, last.cells_bulk_accepted) << label;
    EXPECT_GE(gs->cells_skipped, last.cells_skipped) << label;
    EXPECT_GE(gs->cells_boundary, last.cells_boundary) << label;
    EXPECT_GE(gs->boundary_workers, last.boundary_workers) << label;
    EXPECT_GE(gs->cells_clipped, last.cells_clipped) << label;
    last = *gs;
  };

  stats::Rng rng(31);
  std::vector<uint32_t> matched;
  int reactivations = 0;
  for (size_t t = 0; t < 150; ++t) {
    const geo::Point task = workload.tasks[t].noisy_location;
    const std::string label = "task=" + std::to_string(t);
    const std::vector<uint32_t> got = stage.Collect(task);
    expect_index_kept(label + " collect");
    if (t % 5 == 0) {
      U2uCandidateStage fresh(config);
      for (size_t i = 0; i < noisy.size(); ++i) {
        fresh.AddWorker(noisy[i], workload.workers[i].reach_radius_m);
      }
      for (const uint32_t i : matched) fresh.MarkMatched(i);
      EXPECT_EQ(got, fresh.Collect(task)) << label;
      EXPECT_EQ(stage.stats().scanned_last, fresh.stats().scanned_last)
          << label;
    }
    if (!got.empty()) {
      stage.MarkMatched(got.front());
      matched.push_back(got.front());
    }
    const auto mover = static_cast<uint32_t>(rng.UniformInt(noisy.size()));
    noisy[mover] = {rng.UniformDouble(region.min_x, region.max_x),
                    rng.UniformDouble(region.min_y, region.max_y)};
    stage.UpdateWorkerLocation(mover, noisy[mover]);
    expect_index_kept(label + " relocate");
    if (t % 3 == 1 && !matched.empty()) {
      const auto k = static_cast<size_t>(rng.UniformInt(matched.size()));
      stage.MarkAvailable(matched[k]);
      matched.erase(matched.begin() + static_cast<std::ptrdiff_t>(k));
      ++reactivations;
      expect_index_kept(label + " reactivate");
    }
  }
  // The churn really ran against a counting index.
  EXPECT_GT(reactivations, 0);
  EXPECT_FALSE(matched.empty());
  EXPECT_GT(last.cells_bulk_accepted + last.cells_boundary, 0);

  // A registration after Prepare changes the indexed set: the index is
  // dropped at once and rebuilt by the next Collect.
  stage.AddWorker(region.Center(), 1500.0);
  EXPECT_EQ(stage.grid_query_stats(), nullptr);
  stage.Collect(workload.tasks[0].noisy_location);
  EXPECT_NE(stage.grid_query_stats(), nullptr);
}

TEST(GridIndexRemoveTest, QueryAfterRemoveReAddAndIdempotence) {
  const geo::BoundingBox region =
      geo::BoundingBox::FromCorners({0, 0}, {1000, 1000});
  index::GridIndex grid(region, 8);
  grid.Insert({1, {150, 150}, 50.0});   // Rectangle [100,200]^2.
  grid.Insert({2, {225, 225}, 75.0});   // Rectangle [150,300]^2.
  ASSERT_EQ(grid.size(), 2u);

  const geo::BoundingBox everywhere = region;
  EXPECT_EQ(grid.QueryIds(everywhere).size(), 2u);

  // Remove drops the row from every query it previously matched.
  EXPECT_TRUE(grid.Remove(1));
  EXPECT_EQ(grid.size(), 1u);
  {
    const auto ids = grid.QueryIds(everywhere);
    ASSERT_EQ(ids.size(), 1u);
    EXPECT_EQ(ids[0], 2u);
  }

  // Idempotent: a second removal is a no-op.
  EXPECT_FALSE(grid.Remove(1));
  EXPECT_FALSE(grid.Remove(777));  // Unknown id too.
  EXPECT_EQ(grid.size(), 1u);

  // Re-add under the same id: live again, with the new rectangle only.
  grid.Insert({1, {850, 850}, 50.0});  // Rectangle [800,900]^2.
  EXPECT_EQ(grid.size(), 2u);
  {
    const auto ids = grid.QueryIds(
        geo::BoundingBox::FromCorners({790, 790}, {950, 950}));
    ASSERT_EQ(ids.size(), 1u);
    EXPECT_EQ(ids[0], 1u);
  }
  // The old rectangle of id 1 stays dead.
  {
    const auto ids = grid.QueryIds(
        geo::BoundingBox::FromCorners({90, 90}, {140, 140}));
    EXPECT_TRUE(ids.empty());
  }
}

// Removal in both backends: the linear pruner's per-id flag and the grid's
// row erase.
TEST(PrunerRemoveTest, AllBackendsStopReturningRemovedWorkers) {
  std::vector<index::UncertainRegionPruner::WorkerRegion> regions;
  for (int i = 0; i < 20; ++i) {
    regions.push_back({i, geo::Point{100.0 * i, 100.0 * i}, 500.0});
  }
  const geo::BoundingBox region =
      geo::BoundingBox::FromCorners({0, 0}, {2000, 2000});
  index::UncertainRegionPruner pruner(regions, kDefault, kDefault,
                                      /*gamma=*/0.9, region);
  index::GridIndex grid(region, 8);
  for (const auto& w : regions) {
    grid.Insert({static_cast<uint32_t>(w.worker_id), w.noisy_location,
                 pruner.worker_confidence_radius_m() + w.reach_radius_m});
  }
  const geo::Point probe{500.0, 500.0};
  const geo::BoundingBox box = pruner.TaskQueryBox(probe);
  const std::vector<int64_t> before = pruner.Candidates(probe);
  ASSERT_FALSE(before.empty());
  const std::vector<uint32_t> grid_before = grid.QueryIds(box);
  ASSERT_EQ(grid_before.size(), before.size());
  const int64_t victim = before.front();

  pruner.Remove(victim);
  pruner.Remove(victim);  // Idempotent.
  EXPECT_TRUE(grid.Remove(static_cast<uint32_t>(victim)));
  EXPECT_FALSE(grid.Remove(static_cast<uint32_t>(victim)));
  const std::vector<int64_t> after = pruner.Candidates(probe);
  EXPECT_EQ(after.size(), before.size() - 1);
  for (const int64_t id : after) EXPECT_NE(id, victim);
  EXPECT_TRUE(std::is_sorted(after.begin(), after.end()));
  const std::vector<uint32_t> grid_after = grid.QueryIds(box);
  EXPECT_EQ(std::vector<int64_t>(grid_after.begin(), grid_after.end()), after);

  // Restore brings the worker back at its recorded location.
  pruner.Restore(victim);
  EXPECT_EQ(pruner.Candidates(probe), before);
}

// ---- SIMD classification kernel (ISSUE 6 tentpole c) ---------------------

/// A SoA whose certain bounds cover every trichotomy shape:
///  * mode 0: random bounds (mixed accept / band / reject),
///  * mode 1: empty band (accept_sq == reject_sq — nothing is "in band"),
///  * mode 2: all-accept (accept bound above any possible d_sq),
///  * mode 3: all-reject (accept_sq = -1, reject_sq = 0).
reachability::WorkerFilterSoA ClassifierSoA(size_t n, int mode,
                                            stats::Rng& rng) {
  reachability::WorkerFilterSoA soa;
  soa.Resize(n);
  soa.accept_below_sq.resize(n);
  soa.reject_above_sq.resize(n);
  for (size_t i = 0; i < n; ++i) {
    soa.x[i] = rng.UniformDouble(0.0, 20000.0);
    soa.y[i] = rng.UniformDouble(0.0, 20000.0);
    soa.reach_radius_m[i] = rng.UniformDouble(1000.0, 3000.0);
    switch (mode) {
      case 0: {
        const double accept = rng.UniformDouble(0.0, 10000.0);
        soa.accept_below_sq[i] = accept * accept;
        const double reject = accept + rng.UniformDouble(0.0, 8000.0);
        soa.reject_above_sq[i] = reject * reject;
        break;
      }
      case 1: {
        const double edge = rng.UniformDouble(0.0, 15000.0);
        soa.accept_below_sq[i] = edge * edge;
        soa.reject_above_sq[i] = edge * edge;
        break;
      }
      case 2:
        soa.accept_below_sq[i] = 1e18;
        soa.reject_above_sq[i] = 2e18;
        break;
      default:
        soa.accept_below_sq[i] = -1.0;
        soa.reject_above_sq[i] = 0.0;
        break;
    }
  }
  return soa;
}

#if defined(SCGUARD_HAVE_AVX2)
// The AVX2 kernel must agree with the scalar reference bit for bit: same
// surviving indices in the same order, for vector-unaligned counts (tail
// loop), the empty set, and degenerate all-accept / all-reject / empty-band
// bound shapes.
TEST(ClassifyKernelTest, Avx2MatchesScalarBitIdentically) {
  if (!reachability::CpuSupportsAvx2()) {
    GTEST_SKIP() << "host CPU lacks AVX2";
  }
  stats::Rng rng(20260809);
  for (const size_t count : {size_t{0}, size_t{1}, size_t{2}, size_t{3},
                             size_t{4}, size_t{5}, size_t{7}, size_t{8},
                             size_t{13}, size_t{16}, size_t{33}, size_t{64},
                             size_t{257}}) {
    for (int mode = 0; mode < 4; ++mode) {
      const auto soa = ClassifierSoA(count, mode, rng);
      std::vector<uint32_t> indices(count);
      for (size_t i = 0; i < count; ++i) {
        indices[i] = static_cast<uint32_t>(i);
      }
      const double tx = rng.UniformDouble(0.0, 20000.0);
      const double ty = rng.UniformDouble(0.0, 20000.0);
      std::vector<uint32_t> accept_s, band_s, accept_v, band_v;
      reachability::ClassifyCertainBandScalar(soa, indices.data(), count, tx,
                                              ty, accept_s, band_s);
      reachability::ClassifyCertainBandAvx2(soa, indices.data(), count, tx, ty,
                                            accept_v, band_v);
      const std::string label =
          "count=" + std::to_string(count) + " mode=" + std::to_string(mode);
      EXPECT_EQ(accept_s, accept_v) << label;
      EXPECT_EQ(band_s, band_v) << label;
      if (mode == 1) {
        EXPECT_TRUE(band_v.empty()) << label;
      }
      if (mode == 2) {
        EXPECT_EQ(accept_v.size(), count) << label;
      }
      if (mode == 3) {
        EXPECT_TRUE(accept_v.empty()) << label;
        EXPECT_TRUE(band_v.empty()) << label;
      }
    }
  }
}
#endif  // SCGUARD_HAVE_AVX2

// Forcing the dispatcher to scalar must take effect regardless of the host
// CPU (CI runs this everywhere), an AVX2 request must fall back to scalar
// on hosts without it, and ResetClassifySimd must restore auto-dispatch.
TEST(ClassifyKernelTest, DispatchOverrideAndReset) {
  stats::Rng rng(7);
  const auto soa = ClassifierSoA(37, /*mode=*/0, rng);
  std::vector<uint32_t> indices(37);
  for (size_t i = 0; i < indices.size(); ++i) {
    indices[i] = static_cast<uint32_t>(i);
  }
  std::vector<uint32_t> accept_ref, band_ref;
  reachability::ClassifyCertainBandScalar(soa, indices.data(), indices.size(),
                                          123.0, 456.0, accept_ref, band_ref);

  reachability::SetClassifySimd(reachability::ClassifySimd::kScalar);
  EXPECT_EQ(reachability::ActiveClassifySimd(),
            reachability::ClassifySimd::kScalar);
  std::vector<uint32_t> accept, band;
  reachability::ClassifyCertainBand(soa, indices.data(), indices.size(), 123.0,
                                    456.0, accept, band);
  EXPECT_EQ(accept, accept_ref);
  EXPECT_EQ(band, band_ref);

  reachability::SetClassifySimd(reachability::ClassifySimd::kAvx2);
#if defined(SCGUARD_HAVE_AVX2)
  const auto expected_simd = reachability::CpuSupportsAvx2()
                                 ? reachability::ClassifySimd::kAvx2
                                 : reachability::ClassifySimd::kScalar;
#else
  const auto expected_simd = reachability::ClassifySimd::kScalar;
#endif
  EXPECT_EQ(reachability::ActiveClassifySimd(), expected_simd);
  // Whatever the dispatch resolved to, the output contract is the same.
  reachability::ClassifyCertainBand(soa, indices.data(), indices.size(), 123.0,
                                    456.0, accept, band);
  EXPECT_EQ(accept, accept_ref);
  EXPECT_EQ(band, band_ref);

  reachability::ResetClassifySimd();
}

// Engine-level SIMD invariance: a full protocol run under forced-scalar and
// forced-AVX2 dispatch produces the identical MatchResult and RNG stream,
// with the pruner both off and on (the two paths that feed the classifier).
TEST(EngineParallelTest, SimdDispatchRunInvariance) {
  const reachability::AnalyticalModel model(kDefault);
  const Workload workload = NoisyWorkload(250, 250, 20260807);

  for (const bool prune : {false, true}) {
    EnginePolicy policy = BasePolicy(&model);
    if (prune) {
      policy.pruning_gamma = 0.9;
      policy.pruning_backend = index::PrunerBackend::kGrid;
    }

    reachability::SetClassifySimd(reachability::ClassifySimd::kScalar);
    ScGuardEngine scalar_engine(policy);
    stats::Rng scalar_rng(11);
    const MatchResult scalar_result = scalar_engine.Run(workload, scalar_rng);
    ASSERT_GT(scalar_result.metrics.assigned_tasks, 0);
    const double scalar_next_draw = scalar_rng.UniformDouble();

    reachability::SetClassifySimd(reachability::ClassifySimd::kAvx2);
    ScGuardEngine simd_engine(policy);
    stats::Rng simd_rng(11);
    const MatchResult simd_result = simd_engine.Run(workload, simd_rng);
    reachability::ResetClassifySimd();

    const std::string label = prune ? "pruner=grid" : "pruner=off";
    ExpectBitIdentical(scalar_result, simd_result, label);
    EXPECT_EQ(scalar_next_draw, simd_rng.UniformDouble()) << label;
  }
}

}  // namespace
}  // namespace scguard::assign
