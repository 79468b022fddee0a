// The grid's cell-major rows (DESIGN.md section 13): bit-identity of the
// grid backend's range Collect path against the same rectangles through
// the linear backend's gather path, across models, SIMD dispatch, and
// thread pools; the row store and its cell aggregates under stage churn;
// and the range classification kernels against their scalar references.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "assign/scguard_engine.h"
#include "assign/stages/candidate_runs.h"
#include "assign/stages/candidate_stage.h"
#include "data/workload.h"
#include "engine_fixtures.h"
#include "geo/bbox.h"
#include "index/grid_index.h"
#include "index/pruning.h"
#include "reachability/analytical_model.h"
#include "reachability/binary_model.h"
#include "reachability/empirical_model.h"
#include "reachability/kernel.h"
#include "runtime/thread_pool.h"
#include "stats/rng.h"

namespace scguard::assign {
namespace {

using privacy::PrivacyParams;

constexpr PrivacyParams kDefault{0.7, 800.0};

using fixtures::NoisyWorkload;
using fixtures::ExpectBitIdentical;
using fixtures::Compare;

// The acceptance sweep: for three models and every pruner backend, each
// run must reproduce its serial forced-scalar baseline's MatchResult,
// traffic counters and caller RNG stream bit for bit under forced-scalar
// and auto SIMD dispatch and pools {serial, 1, 8}; and the grid backend's
// range path must make the same decisions as the same rectangles through
// the linear backend, which takes the gather path.
TEST(MirrorEngineSweepTest, BitIdenticalAcrossModelPrunerSimdPoolMirror) {
  const reachability::AnalyticalModel analytical(kDefault);
  const reachability::BinaryModel binary;
  reachability::EmpiricalModelConfig econfig;
  econfig.region = geo::BoundingBox::FromCorners({0, 0}, {20000, 20000});
  econfig.num_samples = 20000;
  stats::Rng build_rng(20260809);
  const auto empirical =
      reachability::EmpiricalModel::Build(econfig, kDefault, build_rng);

  const Workload workload = NoisyWorkload(160, 160, 20260808);

  std::vector<std::unique_ptr<runtime::ThreadPool>> pools;
  pools.push_back(nullptr);  // Serial.
  for (const int threads : {1, 8}) {
    pools.push_back(std::make_unique<runtime::ThreadPool>(threads));
  }

  struct ModelCase {
    const char* name;
    const reachability::ReachabilityModel* model;
  };
  const ModelCase models[] = {
      {"analytical", &analytical},
      {"binary", &binary},
      {"empirical", &*empirical},
  };
  struct PrunerCase {
    const char* name;
    std::optional<double> gamma;
    index::PrunerBackend backend;
  };
  const PrunerCase pruners[] = {
      {"off", std::nullopt, index::PrunerBackend::kGrid},
      {"linear", 0.9, index::PrunerBackend::kLinearScan},
      {"grid", 0.9, index::PrunerBackend::kGrid},
  };

  for (const ModelCase& mc : models) {
    MatchResult linear;  // The grid case's reference.
    double linear_next_draw = 0.0;
    for (const PrunerCase& pc : pruners) {
      EnginePolicy base;
      base.u2u_model = mc.model;
      base.u2e_model = mc.model;
      base.alpha = 0.1;
      base.beta = 0.25;
      base.rank = RankStrategy::kProbability;
      base.worker_params = kDefault;
      base.task_params = kDefault;
      base.pruning_gamma = pc.gamma;
      base.pruning_backend = pc.backend;

      // Baseline: serial, forced-scalar.
      reachability::SetClassifySimd(reachability::ClassifySimd::kScalar);
      ScGuardEngine baseline(base);
      stats::Rng base_rng(7);
      const MatchResult expected = baseline.Run(workload, base_rng);
      const double expected_next_draw = base_rng.UniformDouble();
      reachability::ResetClassifySimd();
      ASSERT_GT(expected.metrics.assigned_tasks, 0)
          << mc.name << "/" << pc.name;
      if (pc.backend == index::PrunerBackend::kLinearScan) {
        linear = expected;
        linear_next_draw = expected_next_draw;
      } else if (pc.gamma.has_value() &&
                 pc.backend == index::PrunerBackend::kGrid) {
        // Grid vs gather over the same rectangles: identical decisions.
        // The grid never reads the rows of a cell its alpha certificate
        // rejects, so it scans a subset of the gather path's workers.
        ExpectBitIdentical(linear, expected,
                           std::string(mc.name) + " grid vs linear",
                           Compare::kOutcome);
        EXPECT_LE(expected.metrics.u2u_scanned, linear.metrics.u2u_scanned)
            << mc.name;
        EXPECT_EQ(linear_next_draw, expected_next_draw);
        EXPECT_GT(expected.metrics.cells_emitted_direct +
                      expected.metrics.u2u_gather_bytes,
                  0);
      }

      for (const bool force_scalar : {true, false}) {
        for (const auto& pool : pools) {
          EnginePolicy policy = base;
          policy.runtime.pool = pool.get();
          policy.runtime.shard_size = 64;  // Multiple chunks per task.
          if (force_scalar) {
            reachability::SetClassifySimd(reachability::ClassifySimd::kScalar);
          }
          ScGuardEngine engine(policy);
          stats::Rng rng(7);
          const MatchResult result = engine.Run(workload, rng);
          reachability::ResetClassifySimd();
          const std::string label =
              std::string(mc.name) + "/" + pc.name +
              " simd=" + (force_scalar ? "scalar" : "auto") +
              " threads=" + std::to_string(pool ? pool->num_threads() : 0);
          ExpectBitIdentical(expected, result, label);
          EXPECT_EQ(expected_next_draw, rng.UniformDouble()) << label;
        }
      }
    }
  }
}

// A dense grid-pruned run must actually exercise the certificate-direct
// path (cells emitted with zero per-worker loads), scan strictly fewer
// workers than the linear backend's gather over the same rectangles, and
// its traffic must come in under the gather model's.
TEST(MirrorEngineSweepTest, MirrorEngagesAndReducesTraffic) {
  const reachability::AnalyticalModel model(kDefault);
  const Workload workload = NoisyWorkload(2000, 2000, 20260810);

  EnginePolicy policy;
  policy.u2u_model = &model;
  policy.u2e_model = &model;
  policy.alpha = 0.1;
  policy.beta = 0.25;
  policy.worker_params = kDefault;
  policy.task_params = kDefault;
  policy.compute_accuracy_metrics = false;
  policy.pruning_gamma = 0.9;
  policy.pruning_backend = index::PrunerBackend::kGrid;

  EnginePolicy off = policy;
  off.pruning_backend = index::PrunerBackend::kLinearScan;
  ScGuardEngine engine_on(policy);
  ScGuardEngine engine_off(off);
  stats::Rng rng_on(3);
  stats::Rng rng_off(3);
  const MatchResult r_on = engine_on.Run(workload, rng_on);
  const MatchResult r_off = engine_off.Run(workload, rng_off);
  // Alpha-rejected cells drop out of the grid's scan: the runs may scan
  // different sets, but decide identically.
  ExpectBitIdentical(r_on, r_off, "dense grid", Compare::kOutcome);
  EXPECT_LT(r_on.metrics.u2u_scanned, r_off.metrics.u2u_scanned);

  EXPECT_GT(r_on.metrics.cells_emitted_direct, 0);
  EXPECT_EQ(r_off.metrics.cells_emitted_direct, 0);
  // Gather model: 4 scattered 64 B lines per scanned worker. The grid
  // streams at most 44 B per scanned worker plus id runs, so it must come
  // in strictly below.
  ASSERT_GT(r_off.metrics.u2u_gather_bytes, 0);
  EXPECT_LT(r_on.metrics.u2u_gather_bytes, r_off.metrics.u2u_gather_bytes);
}

// ---- One row store under churn ---------------------------------------

/// Reference recomputation of one cell's alpha / U2E aggregate straight off
/// the rows (plain fmin/fmax), the invariant every mutation maintains.
index::GridIndex::CellAgg ReferenceAgg(const reachability::CellMajorMirror& m,
                                       size_t begin, uint32_t count) {
  index::GridIndex::CellAgg agg;  // Empty sentinel: max < min.
  if (count == 0) return agg;
  agg.min_x = agg.max_x = m.x[begin];
  agg.min_y = agg.max_y = m.y[begin];
  agg.min_accept_sq = m.accept_below_sq[begin];
  agg.max_reject_sq = m.reject_above_sq[begin];
  agg.max_reach_r = -std::numeric_limits<double>::infinity();
  for (size_t k = begin; k < begin + count; ++k) {
    agg.max_reach_r = std::isnan(m.reach_radius_m[k])
                          ? std::numeric_limits<double>::infinity()
                          : std::fmax(agg.max_reach_r, m.reach_radius_m[k]);
  }
  for (size_t k = begin + 1; k < begin + count; ++k) {
    agg.min_x = std::fmin(agg.min_x, m.x[k]);
    agg.max_x = std::fmax(agg.max_x, m.x[k]);
    agg.min_y = std::fmin(agg.min_y, m.y[k]);
    agg.max_y = std::fmax(agg.max_y, m.y[k]);
    agg.min_accept_sq = std::fmin(agg.min_accept_sq, m.accept_below_sq[k]);
    agg.max_reject_sq = std::fmax(agg.max_reject_sq, m.reject_above_sq[k]);
  }
  return agg;
}

/// Reference recomputation of one cell's rectangle aggregate from the
/// members' FromCircle rectangles.
index::GridIndex::Agg ReferenceRectAgg(const reachability::CellMajorMirror& m,
                                       size_t begin, uint32_t count) {
  index::GridIndex::Agg agg;  // Reset sentinels.
  for (size_t k = begin; k < begin + count; ++k) {
    const geo::BoundingBox r =
        geo::BoundingBox::FromCircle({m.x[k], m.y[k]}, m.expanded_r[k]);
    agg.cover_min_x = std::fmin(agg.cover_min_x, r.min_x);
    agg.cover_min_y = std::fmin(agg.cover_min_y, r.min_y);
    agg.cover_max_x = std::fmax(agg.cover_max_x, r.max_x);
    agg.cover_max_y = std::fmax(agg.cover_max_y, r.max_y);
    agg.core_max_lo_x = std::fmax(agg.core_max_lo_x, r.min_x);
    agg.core_max_lo_y = std::fmax(agg.core_max_lo_y, r.min_y);
    agg.core_min_hi_x = std::fmin(agg.core_min_hi_x, r.max_x);
    agg.core_min_hi_y = std::fmin(agg.core_min_hi_y, r.max_y);
  }
  return agg;
}

/// Asserts the stage's grid is its SoA in cell order: exactly the
/// unmatched workers have a row, every live row equals the SoA at its id
/// (with the expanded radius r_w + reach), and every cell's two aggregates
/// equal their reference recomputation.
void ExpectGridMatchesSoa(const U2uCandidateStage& stage, double r_w,
                          const std::string& label) {
  const index::GridIndex& grid = *stage.grid();
  const reachability::WorkerFilterSoA& soa = stage.soa();
  const reachability::CellMajorMirror& rows = grid.rows();
  size_t live = 0;
  for (size_t slot = 0; slot < grid.num_cell_slots(); ++slot) {
    const size_t begin = grid.cell_begin(slot);
    const uint32_t count = grid.cell_count(slot);
    ASSERT_LE(begin + count, rows.size()) << label;
    for (size_t pos = begin; pos < begin + count; ++pos) {
      const uint32_t id = rows.id[pos];
      ASSERT_LT(id, soa.size()) << label;
      if (pos > begin) {
        ASSERT_LT(rows.id[pos - 1], id) << label;
      }
      EXPECT_EQ(soa.matched[id], 0) << label << " id=" << id;
      EXPECT_EQ(rows.x[pos], soa.x[id]) << label << " id=" << id;
      EXPECT_EQ(rows.y[pos], soa.y[id]) << label << " id=" << id;
      EXPECT_EQ(rows.expanded_r[pos], r_w + soa.reach_radius_m[id]) << label;
      EXPECT_EQ(rows.accept_below_sq[pos], soa.accept_below_sq[id]) << label;
      EXPECT_EQ(rows.reject_above_sq[pos], soa.reject_above_sq[id]) << label;
      EXPECT_EQ(rows.reach_radius_m[pos], soa.reach_radius_m[id]) << label;
    }
    live += count;
    const index::GridIndex::CellAgg expected = ReferenceAgg(rows, begin, count);
    const index::GridIndex::CellAgg& got = grid.cell_agg(slot);
    const index::GridIndex::Agg rect = ReferenceRectAgg(rows, begin, count);
    const index::GridIndex::Agg& got_rect = grid.rect_agg(slot);
    EXPECT_EQ(got_rect.cover_min_x, rect.cover_min_x) << label << " " << slot;
    EXPECT_EQ(got_rect.cover_min_y, rect.cover_min_y) << label << " " << slot;
    EXPECT_EQ(got_rect.cover_max_x, rect.cover_max_x) << label << " " << slot;
    EXPECT_EQ(got_rect.cover_max_y, rect.cover_max_y) << label << " " << slot;
    EXPECT_EQ(got_rect.core_max_lo_x, rect.core_max_lo_x) << label;
    EXPECT_EQ(got_rect.core_max_lo_y, rect.core_max_lo_y) << label;
    EXPECT_EQ(got_rect.core_min_hi_x, rect.core_min_hi_x) << label;
    EXPECT_EQ(got_rect.core_min_hi_y, rect.core_min_hi_y) << label;
    if (count == 0) {
      EXPECT_LT(got.max_x, got.min_x) << label << " slot=" << slot;
      continue;
    }
    EXPECT_EQ(got.min_x, expected.min_x) << label << " slot=" << slot;
    EXPECT_EQ(got.max_x, expected.max_x) << label << " slot=" << slot;
    EXPECT_EQ(got.min_y, expected.min_y) << label << " slot=" << slot;
    EXPECT_EQ(got.max_y, expected.max_y) << label << " slot=" << slot;
    EXPECT_EQ(got.min_accept_sq, expected.min_accept_sq) << label;
    EXPECT_EQ(got.max_reject_sq, expected.max_reject_sq) << label;
    EXPECT_EQ(got.max_reach_r, expected.max_reach_r) << label;
  }
  EXPECT_EQ(live, grid.size()) << label;
  EXPECT_EQ(live, stage.available()) << label;
}

/// The cell whose slice holds live `id`.
size_t SlotOf(const index::GridIndex& grid, uint32_t id) {
  for (size_t slot = 0; slot < grid.num_cell_slots(); ++slot) {
    const size_t begin = grid.cell_begin(slot);
    for (size_t pos = begin; pos < begin + grid.cell_count(slot); ++pos) {
      if (grid.rows().id[pos] == id) return slot;
    }
  }
  return grid.num_cell_slots();
}

// The grid stage's one row store through the service's churn: relocations
// within and across cells, matches, reactivations (re-inserted from the
// SoA), slice moves and a forced re-layout. After every step each live row
// equals the SoA at its id and each cell's two aggregates equal a
// recompute; moves and the re-layout show in cell_begin and rebuilds().
// The stage then answers like one built fresh over the final state, and
// whole-cell alpha certificates agree with the per-member trichotomy.
TEST(MirrorStageChurnTest, GridRowsAndAggregatesMatchSoaThroughChurn) {
  const reachability::AnalyticalModel model(kDefault);
  const geo::BoundingBox region =
      geo::BoundingBox::FromCorners({0, 0}, {10000, 10000});
  U2uCandidateStage::Config config;
  config.model = &model;
  config.alpha = 0.1;
  config.pruning = U2uCandidateStage::Pruning{
      0.9, index::PrunerBackend::kGrid, kDefault, kDefault, region};
  const double r_w =
      index::UncertainRegionPruner({}, kDefault, kDefault, 0.9, region)
          .worker_confidence_radius_m();

  stats::Rng rng(17);
  const size_t n = 300;
  U2uCandidateStage stage(config);
  for (size_t i = 0; i < n; ++i) {
    stage.AddWorker({rng.UniformDouble(0.0, 10000.0),
                     rng.UniformDouble(0.0, 10000.0)},
                    rng.UniformDouble(500.0, 2000.0));
  }
  stage.Prepare();
  ASSERT_NE(stage.grid(), nullptr);
  const index::GridIndex& grid = *stage.grid();
  ExpectGridMatchesSoa(stage, r_w, "loaded");

  for (int step = 0; step < 200; ++step) {
    const auto w = static_cast<uint32_t>(rng.UniformInt(n));
    const geo::Point at{stage.soa().x[w], stage.soa().y[w]};
    switch (rng.UniformInt(4)) {
      case 0:  // Same-cell jitter, mostly.
        stage.UpdateWorkerLocation(w, {at.x + rng.UniformDouble(-20.0, 20.0),
                                       at.y + rng.UniformDouble(-20.0, 20.0)});
        break;
      case 1:  // Cross-cell jump.
        stage.UpdateWorkerLocation(w, {rng.UniformDouble(0.0, 10000.0),
                                       rng.UniformDouble(0.0, 10000.0)});
        break;
      case 2:
        stage.MarkMatched(w);
        break;
      default:  // A re-report: moved, then reactivated if matched.
        stage.UpdateWorkerLocation(w, {rng.UniformDouble(0.0, 10000.0),
                                       rng.UniformDouble(0.0, 10000.0)});
        stage.MarkAvailable(w);
        break;
    }
    ExpectGridMatchesSoa(stage, r_w, "churn step " + std::to_string(step));
  }
  EXPECT_EQ(stage.grid(), &grid);  // Churn never rebuilt the stage's grid.

  // Pile unmatched workers onto one point with cross-cell moves. Each full
  // slice moves to the old end of the rows, until the dead rows the moves
  // leave would outnumber the live ones and one re-layout reclaims them.
  const geo::Point pile{5300.0, 5300.0};
  const int64_t rebuilds_before = stage.grid_rebuilds();
  ASSERT_EQ(rebuilds_before, grid.rebuilds());
  uint32_t first = 0;
  while (stage.is_matched(first)) ++first;
  stage.UpdateWorkerLocation(first, pile);
  const size_t target = SlotOf(grid, first);
  ASSERT_LT(target, grid.num_cell_slots());
  int moves = 0;
  for (uint32_t w = first + 1;
       w < n && stage.grid_rebuilds() == rebuilds_before; ++w) {
    if (stage.is_matched(w) || SlotOf(grid, w) == target) continue;
    const size_t rows_before = grid.rows().size();
    const size_t begin_before = grid.cell_begin(target);
    stage.UpdateWorkerLocation(w, pile);
    ASSERT_EQ(SlotOf(grid, w), target);
    const std::string label = "pile " + std::to_string(w);
    if (stage.grid_rebuilds() == rebuilds_before &&
        grid.cell_begin(target) != begin_before) {
      EXPECT_EQ(grid.cell_begin(target), rows_before) << label;
      ++moves;
    }
    ExpectGridMatchesSoa(stage, r_w, label);
  }
  EXPECT_GE(moves, 2);
  EXPECT_EQ(stage.grid_rebuilds(), rebuilds_before + 1);
  EXPECT_EQ(stage.grid(), &grid);

  U2uCandidateStage fresh(config);
  for (size_t i = 0; i < n; ++i) {
    fresh.AddWorker({stage.soa().x[i], stage.soa().y[i]},
                    stage.soa().reach_radius_m[i]);
  }
  for (uint32_t i = 0; i < n; ++i) {
    if (stage.is_matched(i)) fresh.MarkMatched(i);
  }
  for (int t = 0; t < 32; ++t) {
    const double tx = rng.UniformDouble(0.0, 10000.0);
    const double ty = rng.UniformDouble(0.0, 10000.0);
    EXPECT_EQ(stage.Collect({tx, ty}), fresh.Collect({tx, ty})) << "task " << t;
    // A whole-cell verdict agrees with the per-member trichotomy.
    for (size_t slot = 0; slot < grid.num_cell_slots(); ++slot) {
      const auto cert = grid.Certify(slot, tx, ty);
      if (cert == index::GridIndex::CellAlpha::kMixed) continue;
      const size_t begin = grid.cell_begin(slot);
      for (size_t pos = begin; pos < begin + grid.cell_count(slot); ++pos) {
        const double dx = grid.rows().x[pos] - tx;
        const double dy = grid.rows().y[pos] - ty;
        const double d_sq = dx * dx + dy * dy;
        if (cert == index::GridIndex::CellAlpha::kAllAccept) {
          EXPECT_LE(d_sq, grid.rows().accept_below_sq[pos]) << slot;
        } else {
          EXPECT_GE(d_sq, grid.rows().reject_above_sq[pos]) << slot;
        }
      }
    }
  }
}

// Stage-level churn: a grid stage and a linear-backend (gather)
// stage driven through the same AddWorker / Collect / MarkMatched /
// UpdateWorkerLocation sequence must emit identical candidate lists
// throughout, with the grid scanning a subset of the gather path's
// workers (it never reads a cell its alpha certificate rejects). Swept over
// gamma, SIMD dispatch and pools. At gamma = 0.3 the rectangles are tight
// enough that they dismiss alpha-admissible workers, and rectangle-boundary
// cells that survive the certificate hold candidates, so both halves of
// the fused boundary test decide something (at 0.9 every candidate lies in
// a bulk cell).
TEST(MirrorStageChurnTest, MirrorMatchesLinearBackendThroughChurn) {
  const reachability::AnalyticalModel model(kDefault);
  const geo::BoundingBox region =
      geo::BoundingBox::FromCorners({0, 0}, {20000, 20000});

  for (const double gamma : {0.3, 0.9}) {
    int64_t boundary_candidates = 0;  // In kBoundary cells, over the sweep.
    int64_t rect_dismissed = 0;       // Alpha-admissible, rectangle-pruned.
    for (const auto simd :
         {reachability::ClassifySimd::kScalar,
          reachability::ClassifySimd::kAvx2}) {
      for (const int threads : {1, 4}) {
        runtime::ThreadPool pool(threads);
        U2uCandidateStage::Config config;
        config.model = &model;
        config.alpha = 0.1;
        config.runtime.pool = &pool;
        config.runtime.shard_size = 64;  // Several chunks per task.
        config.pruning = U2uCandidateStage::Pruning{
            gamma, index::PrunerBackend::kGrid, kDefault, kDefault, region};
        U2uCandidateStage::Config config_off = config;
        config_off.pruning->backend = index::PrunerBackend::kLinearScan;
        // The query rectangle the grid walk certifies cells against.
        const index::UncertainRegionPruner boxes({}, kDefault, kDefault,
                                                 gamma, region);

        U2uCandidateStage on(config);
        U2uCandidateStage off(config_off);
        reachability::SetClassifySimd(simd);
        const std::string run =
            "gamma=" + std::to_string(gamma) + " simd=" +
            (reachability::ActiveClassifySimd() ==
                     reachability::ClassifySimd::kAvx2
                 ? "avx2"
                 : "scalar") +
            " threads=" + std::to_string(threads);

        stats::Rng rng(23);
        const size_t n = 500;
        for (size_t i = 0; i < n; ++i) {
          const geo::Point loc{rng.UniformDouble(0.0, 20000.0),
                               rng.UniformDouble(0.0, 20000.0)};
          const double r = rng.UniformDouble(800.0, 2500.0);
          on.AddWorker(loc, r);
          off.AddWorker(loc, r);
        }

        for (int step = 0; step < 60; ++step) {
          const geo::Point task{rng.UniformDouble(0.0, 20000.0),
                                rng.UniformDouble(0.0, 20000.0)};
          const std::string label = run + " step " + std::to_string(step);
          {
            const CandidateRuns& runs = on.CollectRuns(task);
            const index::GridIndex* grid = runs.grid;
            const geo::BoundingBox query = boxes.TaskQueryBox(task);
            const auto cells = static_cast<size_t>(grid->cells_per_axis());
            for (const CandidateRuns::Group& g : runs.groups) {
              if (g.slot == CandidateRuns::kNoCell || g.in_rows) continue;
              const auto cert = grid->ClassifyCellForTest(
                  static_cast<int>(g.slot % cells),
                  static_cast<int>(g.slot / cells), query);
              if (cert == index::GridIndex::CellCert::kBoundary) {
                boundary_candidates += g.count;
              }
            }
          }
          const std::vector<uint32_t> got_on = on.Collect(task);
          const std::vector<uint32_t> got_off = off.Collect(task);
          EXPECT_EQ(got_on, got_off) << label;
          EXPECT_EQ(on.stats().scanned_last + on.stats().pruned_last,
                    off.stats().scanned_last + off.stats().pruned_last)
              << label;
          EXPECT_LE(on.stats().scanned_last, off.stats().scanned_last)
              << label;
          int64_t admissible = 0;
          for (uint32_t i = 0; i < n; ++i) {
            if (!off.is_matched(i) && off.Decide(i, task)) ++admissible;
          }
          rect_dismissed +=
              admissible - static_cast<int64_t>(got_off.size());

          if (!got_on.empty()) {
            // Match the best candidate, as the engine would.
            on.MarkMatched(got_on.front());
            off.MarkMatched(got_on.front());
          }
          if (step % 7 == 3) {
            const auto mover = static_cast<uint32_t>(
                rng.UniformDouble() * static_cast<double>(n));
            const geo::Point moved{rng.UniformDouble(0.0, 20000.0),
                                   rng.UniformDouble(0.0, 20000.0)};
            on.UpdateWorkerLocation(mover, moved);
            off.UpdateWorkerLocation(mover, moved);
          }
          if (step == 40) {
            on.ResetAvailability();
            off.ResetAvailability();
          }
        }
        reachability::ResetClassifySimd();
        EXPECT_EQ(on.band_evals(), off.band_evals()) << run;
        EXPECT_GT(on.stats().cells_emitted_direct + on.stats().gather_bytes, 0)
            << run;
      }
    }
    if (gamma < 0.5) {
      EXPECT_GT(boundary_candidates, 0) << "gamma=" << gamma;
      EXPECT_GT(rect_dismissed, 0) << "gamma=" << gamma;
    }
  }
}

// The alpha-first walk on four hand-placed cells (binary model, so a
// worker is alpha-admissible iff it lies within its 1000 m radius of the
// task; the confidence rectangles are millimetres, so a worker's rectangle
// admits the task iff both |dx| and |dy| are at most 1000 m). Cells are
// ~1000 m wide and the task sits at the centre of cell (8, 8):
//   A, cell (8, 8): 3 workers within 10 m — bulk, certified accept;
//   B, cell (9, 9): 3 workers, all rectangle-admitted, 2 within 1000 m —
//      bulk, mixed;
//   C, cell (9, 7): 2 of 3 workers rectangle-admitted, none within 1000 m —
//      boundary, certified reject;
//   D, cell (7, 9): 2 of 3 workers rectangle-admitted, 1 within 1000 m —
//      boundary, mixed;
// plus one worker in cell (10, 8), visited but skipped (its rectangle
// misses the task by 1100 m). The grid scans A + B + the admitted part
// of D = 3 + 3 + 2 = 8 workers (the gather path also scans C's 2 admitted
// ones: 10), classifies the 6 rows of B and D one by one, settles A and C
// by certificate, and both paths emit the same 6 candidates.
TEST(MirrorStageTest, AlphaFirstWalkScansOnlyCellsTheCertificateKeeps) {
  const reachability::BinaryModel model;
  const geo::BoundingBox region =
      geo::BoundingBox::FromCorners({0, 0}, {14000, 14000});
  const PrivacyParams sharp{1000.0, 1.0};  // Millimetre rectangles.
  U2uCandidateStage::Config config;
  config.model = &model;
  config.alpha = 0.5;
  config.pruning = U2uCandidateStage::Pruning{
      0.9, index::PrunerBackend::kGrid, sharp, sharp, region};
  U2uCandidateStage::Config config_off = config;
  config_off.pruning->backend = index::PrunerBackend::kLinearScan;
  U2uCandidateStage on(config);
  U2uCandidateStage off(config_off);
  const geo::Point workers[] = {
      {7495, 7495}, {7505, 7500}, {7500, 7505},  // A
      {8200, 8200}, {8150, 8250}, {8400, 8400},  // B
      {8400, 6600}, {8450, 6550}, {8700, 6600},  // C
      {6600, 8400}, {6700, 8050}, {6300, 8400},  // D
      {9600, 7500},                              // Skipped.
  };
  for (const geo::Point& w : workers) {
    on.AddWorker(w, 1000.0);
    off.AddWorker(w, 1000.0);
  }
  const geo::Point task{7500, 7500};
  const std::vector<uint32_t> expected = {0, 1, 2, 3, 4, 10};
  EXPECT_EQ(on.Collect(task), expected);
  EXPECT_EQ(off.Collect(task), expected);
  EXPECT_EQ(on.stats().scanned_last, 8);
  EXPECT_EQ(off.stats().scanned_last, 10);
  EXPECT_EQ(on.stats().pruned_last, 5);
  EXPECT_EQ(on.stats().rows_classified, 6);
  EXPECT_EQ(on.stats().cells_emitted_direct, 2);
  const index::GridIndex::QueryStats& gs = *on.grid_query_stats();
  EXPECT_EQ(gs.cells_bulk_accepted, 2);
  EXPECT_EQ(gs.cells_boundary, 2);
  EXPECT_EQ(gs.boundary_workers, 6);
  EXPECT_EQ(gs.cells_skipped, 1);
}

TEST(MirrorStageChurnTest, IncrementalRelocateMatchesFreshStage) {
  // Service-style churn — same-cell jitters, cross-cell jumps, matched
  // workers reactivated via MarkAvailable — applied incrementally must
  // leave the stage answering exactly like one built fresh over the final
  // worker state. This pins the whole Relocate chain: GridIndex in-place
  // row update, cross-cell erase and re-insert, and the reactivation's
  // re-insert from the SoA at the *new* location.
  const reachability::AnalyticalModel model(kDefault);
  const geo::BoundingBox region =
      geo::BoundingBox::FromCorners({0, 0}, {20000, 20000});
  U2uCandidateStage::Config config;
  config.model = &model;
  config.alpha = 0.1;
  config.pruning = U2uCandidateStage::Pruning{
      0.9, index::PrunerBackend::kGrid, kDefault, kDefault, region};

  stats::Rng rng(29);
  const size_t n = 400;
  std::vector<geo::Point> locs(n);
  std::vector<double> radii(n);
  std::vector<char> matched(n, 0);
  U2uCandidateStage live(config);
  for (size_t i = 0; i < n; ++i) {
    locs[i] = {rng.UniformDouble(0.0, 20000.0),
               rng.UniformDouble(0.0, 20000.0)};
    radii[i] = rng.UniformDouble(800.0, 2500.0);
    live.AddWorker(locs[i], radii[i]);
  }
  live.Prepare();

  for (int step = 0; step < 300; ++step) {
    const auto w = static_cast<uint32_t>(rng.UniformInt(n));
    switch (rng.UniformInt(4)) {
      case 0: {  // Same-cell jitter (cells are ~600 m at this density).
        locs[w] = {locs[w].x + rng.UniformDouble(-30.0, 30.0),
                   locs[w].y + rng.UniformDouble(-30.0, 30.0)};
        live.UpdateWorkerLocation(w, locs[w]);
        break;
      }
      case 1: {  // Cross-cell jump.
        locs[w] = {rng.UniformDouble(0.0, 20000.0),
                   rng.UniformDouble(0.0, 20000.0)};
        live.UpdateWorkerLocation(w, locs[w]);
        break;
      }
      case 2:
        live.MarkMatched(w);
        matched[w] = 1;
        break;
      default:  // Re-report of a (possibly matched) worker, moved.
        locs[w] = {locs[w].x + rng.UniformDouble(-30.0, 30.0),
                   locs[w].y + rng.UniformDouble(-30.0, 30.0)};
        live.UpdateWorkerLocation(w, locs[w]);
        live.MarkAvailable(w);
        matched[w] = 0;
        break;
    }
  }

  U2uCandidateStage fresh(config);
  for (size_t i = 0; i < n; ++i) fresh.AddWorker(locs[i], radii[i]);
  fresh.Prepare();
  for (size_t i = 0; i < n; ++i) {
    if (matched[i]) fresh.MarkMatched(static_cast<uint32_t>(i));
  }

  for (int q = 0; q < 40; ++q) {
    const geo::Point task{rng.UniformDouble(0.0, 20000.0),
                          rng.UniformDouble(0.0, 20000.0)};
    EXPECT_EQ(live.Collect(task), fresh.Collect(task)) << "query " << q;
    EXPECT_EQ(live.stats().scanned_last + live.stats().pruned_last,
              fresh.stats().scanned_last + fresh.stats().pruned_last)
        << "query " << q;
  }
}

// ---- Range kernels vs references -------------------------------------

/// Rows whose bounds cover every trichotomy shape, like kernel_test's
/// ClassifierSoA: mode 0 mixed, 1 empty band, 2 all-accept, 3 all-reject.
reachability::CellMajorMirror ClassifierMirror(size_t n, int mode,
                                               stats::Rng& rng) {
  reachability::CellMajorMirror m;
  m.Resize(n);
  for (size_t i = 0; i < n; ++i) {
    m.id[i] = static_cast<uint32_t>(1000 + i * 3);  // Arbitrary id values.
    m.x[i] = rng.UniformDouble(0.0, 20000.0);
    m.y[i] = rng.UniformDouble(0.0, 20000.0);
    m.expanded_r[i] = rng.UniformDouble(500.0, 4000.0);
    switch (mode) {
      case 0: {
        const double accept = rng.UniformDouble(0.0, 10000.0);
        m.accept_below_sq[i] = accept * accept;
        const double reject = accept + rng.UniformDouble(0.0, 8000.0);
        m.reject_above_sq[i] = reject * reject;
        break;
      }
      case 1: {
        const double edge = rng.UniformDouble(0.0, 15000.0);
        m.accept_below_sq[i] = edge * edge;
        m.reject_above_sq[i] = edge * edge;
        break;
      }
      case 2:
        m.accept_below_sq[i] = 1e18;
        m.reject_above_sq[i] = 2e18;
        break;
      default:
        m.accept_below_sq[i] = -1.0;
        m.reject_above_sq[i] = 0.0;
        break;
    }
  }
  return m;
}

/// Branchy reference of the range trichotomy (same arithmetic order).
void ReferenceRange(const reachability::CellMajorMirror& m, size_t begin,
                    size_t count, double tx, double ty,
                    std::vector<uint32_t>& accept,
                    std::vector<uint32_t>& band) {
  for (size_t k = begin; k < begin + count; ++k) {
    const double dx = m.x[k] - tx;
    const double dy = m.y[k] - ty;
    const double d_sq = dx * dx + dy * dy;
    if (d_sq <= m.accept_below_sq[k]) {
      accept.push_back(m.id[k]);
    } else if (d_sq < m.reject_above_sq[k]) {
      band.push_back(m.id[k]);
    }
  }
}

/// Branchy reference of the fused rectangle + trichotomy boundary kernel.
size_t ReferenceRangeRect(const reachability::CellMajorMirror& m, size_t begin,
                          size_t count, double tx, double ty, double q_min_x,
                          double q_min_y, double q_max_x, double q_max_y,
                          std::vector<uint32_t>& accept,
                          std::vector<uint32_t>& band) {
  size_t admitted = 0;
  for (size_t k = begin; k < begin + count; ++k) {
    const double er = m.expanded_r[k];
    const bool admit = m.x[k] - er <= q_max_x && q_min_x <= m.x[k] + er &&
                       m.y[k] - er <= q_max_y && q_min_y <= m.y[k] + er;
    if (!admit) continue;
    ++admitted;
    const double dx = m.x[k] - tx;
    const double dy = m.y[k] - ty;
    const double d_sq = dx * dx + dy * dy;
    if (d_sq <= m.accept_below_sq[k]) {
      accept.push_back(m.id[k]);
    } else if (d_sq < m.reject_above_sq[k]) {
      band.push_back(m.id[k]);
    }
  }
  return admitted;
}

TEST(RangeKernelTest, ScalarMatchesReferenceAndAppends) {
  stats::Rng rng(20260811);
  for (const size_t count : {size_t{0}, size_t{1}, size_t{3}, size_t{4},
                             size_t{5}, size_t{8}, size_t{13}, size_t{64},
                             size_t{257}}) {
    for (int mode = 0; mode < 4; ++mode) {
      const auto m = ClassifierMirror(count + 8, mode, rng);
      const size_t begin = count > 2 ? 3 : 0;  // Off-origin range starts.
      const double tx = rng.UniformDouble(0.0, 20000.0);
      const double ty = rng.UniformDouble(0.0, 20000.0);
      // Pre-populated outputs: the range kernels append.
      std::vector<uint32_t> accept_ref = {111}, band_ref = {222};
      std::vector<uint32_t> accept = {111}, band = {222};
      ReferenceRange(m, begin, count, tx, ty, accept_ref, band_ref);
      reachability::ClassifyCertainBandRangeScalar(m, begin, count, tx, ty,
                                                   accept, band);
      const std::string label =
          "count=" + std::to_string(count) + " mode=" + std::to_string(mode);
      EXPECT_EQ(accept, accept_ref) << label;
      EXPECT_EQ(band, band_ref) << label;

      const double q_min_x = tx - 4000.0, q_max_x = tx + 4000.0;
      const double q_min_y = ty - 4000.0, q_max_y = ty + 4000.0;
      accept_ref.assign({111});
      band_ref.assign({222});
      accept.assign({111});
      band.assign({222});
      const size_t admitted_ref =
          ReferenceRangeRect(m, begin, count, tx, ty, q_min_x, q_min_y,
                             q_max_x, q_max_y, accept_ref, band_ref);
      const size_t admitted = reachability::ClassifyCertainBandRangeRectScalar(
          m, begin, count, tx, ty, q_min_x, q_min_y, q_max_x, q_max_y, accept,
          band);
      EXPECT_EQ(admitted, admitted_ref) << label;
      EXPECT_EQ(accept, accept_ref) << label;
      EXPECT_EQ(band, band_ref) << label;
    }
  }
}

#if defined(SCGUARD_HAVE_AVX2)
TEST(RangeKernelTest, Avx2MatchesScalarBitIdentically) {
  if (!reachability::CpuSupportsAvx2()) {
    GTEST_SKIP() << "host CPU lacks AVX2";
  }
  stats::Rng rng(20260812);
  for (const size_t count : {size_t{0}, size_t{1}, size_t{2}, size_t{3},
                             size_t{4}, size_t{5}, size_t{7}, size_t{8},
                             size_t{13}, size_t{16}, size_t{33}, size_t{64},
                             size_t{257}}) {
    for (int mode = 0; mode < 4; ++mode) {
      const auto m = ClassifierMirror(count + 8, mode, rng);
      const size_t begin = count > 2 ? 5 : 0;  // Unaligned range starts.
      const double tx = rng.UniformDouble(0.0, 20000.0);
      const double ty = rng.UniformDouble(0.0, 20000.0);
      std::vector<uint32_t> accept_s = {7}, band_s = {9};
      std::vector<uint32_t> accept_v = {7}, band_v = {9};
      reachability::ClassifyCertainBandRangeScalar(m, begin, count, tx, ty,
                                                   accept_s, band_s);
      reachability::ClassifyCertainBandRangeAvx2(m, begin, count, tx, ty,
                                                 accept_v, band_v);
      const std::string label =
          "count=" + std::to_string(count) + " mode=" + std::to_string(mode);
      EXPECT_EQ(accept_s, accept_v) << label;
      EXPECT_EQ(band_s, band_v) << label;

      const double q_min_x = tx - 3000.0, q_max_x = tx + 3000.0;
      const double q_min_y = ty - 3000.0, q_max_y = ty + 3000.0;
      accept_s.assign({7});
      band_s.assign({9});
      accept_v.assign({7});
      band_v.assign({9});
      const size_t admitted_s =
          reachability::ClassifyCertainBandRangeRectScalar(
              m, begin, count, tx, ty, q_min_x, q_min_y, q_max_x, q_max_y,
              accept_s, band_s);
      const size_t admitted_v = reachability::ClassifyCertainBandRangeRectAvx2(
          m, begin, count, tx, ty, q_min_x, q_min_y, q_max_x, q_max_y,
          accept_v, band_v);
      EXPECT_EQ(admitted_s, admitted_v) << label;
      EXPECT_EQ(accept_s, accept_v) << label;
      EXPECT_EQ(band_s, band_v) << label;
    }
  }
}
#endif  // SCGUARD_HAVE_AVX2

}  // namespace
}  // namespace scguard::assign
