// Microbenchmarks (google-benchmark): the primitive costs behind the
// end-to-end numbers — noise sampling, reachability-probability evaluation
// per model, index queries, and whole-workload assignment throughput.

#include <benchmark/benchmark.h>

#include "assign/algorithms.h"
#include "assign/scguard_engine.h"
#include "assign/stages/candidate_runs.h"
#include "assign/stages/candidate_stage.h"
#include "assign/stages/rank_stage.h"
#include "bench/bench_common.h"
#include "data/beijing.h"
#include "data/workload.h"
#include "index/pruning.h"
#include "obs/span.h"
#include "privacy/planar_laplace.h"
#include "reachability/analytical_model.h"
#include "reachability/binary_model.h"
#include "reachability/empirical_model.h"
#include "reachability/kernel.h"
#include "reachability/model_cache.h"
#include "runtime/parallel_for.h"
#include "runtime/thread_pool.h"
#include "sim/experiment.h"
#include "stats/lambert_w.h"
#include "stats/marcum_q.h"
#include "stats/rice.h"
#include "stats/rng.h"

namespace scguard {
namespace {

const privacy::PrivacyParams kParams{0.7, 800.0};

void BM_LambertWm1(benchmark::State& state) {
  double x = -0.2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(*stats::LambertWm1(x));
    x = -0.05 - (x == -0.2 ? 0.0 : 0.15);  // Alternate inputs.
  }
}
BENCHMARK(BM_LambertWm1);

void BM_PlanarLaplaceSample(benchmark::State& state) {
  const privacy::PlanarLaplace pl(kParams.unit_epsilon());
  stats::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pl.Sample(rng));
  }
}
BENCHMARK(BM_PlanarLaplaceSample);

void BM_RiceCdf(benchmark::State& state) {
  const stats::RiceDistribution rice(static_cast<double>(state.range(0)),
                                     1616.0);
  double x = 500.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rice.Cdf(x));
    x = x < 4000.0 ? x + 250.0 : 500.0;
  }
}
BENCHMARK(BM_RiceCdf)->Arg(500)->Arg(2000)->Arg(8000);

void BM_ProbReachable(benchmark::State& state) {
  const auto mode = static_cast<reachability::AnalyticalMode>(state.range(0));
  const reachability::AnalyticalModel model(kParams, mode);
  double d = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model.ProbReachable(reachability::Stage::kU2E, d, 1400.0));
    d = d < 6000.0 ? d + 100.0 : 0.0;
  }
  state.SetLabel(std::string(AnalyticalModeName(mode)));
}
BENCHMARK(BM_ProbReachable)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

void BM_EmpiricalLookup(benchmark::State& state) {
  reachability::EmpiricalModelConfig config;
  config.region = data::BeijingRegion();
  config.num_samples = 50000;
  stats::Rng rng(2);
  const auto model =
      reachability::EmpiricalModel::Build(config, kParams, rng);
  double d = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model->ProbReachable(reachability::Stage::kU2U, d, 1400.0));
    d = d < 6000.0 ? d + 100.0 : 0.0;
  }
}
BENCHMARK(BM_EmpiricalLookup);

// One task's U2U candidate set through the pruned stage, as the pipeline
// runs it (CollectRuns): the linear MBR scan plus the gather
// classification (0), or the certified grid walk plus the range
// classification over the grid's rows (1). Uniform workers over Beijing,
// r ~ U[1000, 3000] m, alpha = 0.1; items are tasks.
void BM_PrunerCandidates(benchmark::State& state) {
  const auto backend = static_cast<index::PrunerBackend>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  const geo::BoundingBox region = data::BeijingRegion();
  const reachability::AnalyticalModel model(kParams);
  assign::U2uCandidateStage::Config config;
  config.model = &model;
  config.alpha = 0.1;
  config.pruning = assign::U2uCandidateStage::Pruning{0.9, backend, kParams,
                                                      kParams, region};
  assign::U2uCandidateStage stage(std::move(config));
  stats::Rng rng(3);
  stage.ReserveWorkers(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    stage.AddWorker({rng.UniformDouble(region.min_x, region.max_x),
                     rng.UniformDouble(region.min_y, region.max_y)},
                    rng.UniformDouble(1000.0, 3000.0));
  }
  stage.Prepare();
  stats::Rng task_rng(4);
  for (auto _ : state) {
    const geo::Point task{task_rng.UniformDouble(region.min_x, region.max_x),
                          task_rng.UniformDouble(region.min_y, region.max_y)};
    benchmark::DoNotOptimize(stage.CollectRuns(task).size);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::string(index::PrunerBackendName(backend)));
}
BENCHMARK(BM_PrunerCandidates)
    ->Args({0, 5000})     // Linear scan.
    ->Args({1, 5000})     // Grid.
    ->Args({1, 100000});  // Grid at engine scale.

// One worker re-report against a prepared, grid-pruned stage: the service's
// apply-phase hot path. GridIndex::Relocate rewrites the worker's row in
// place (or erases and re-inserts it across cells) and recomputes the
// cell's aggregates in one O(cell) pass; the follow-up Prepare() is a
// no-op.
void BM_UpdateWorkerLocation(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const reachability::AnalyticalModel model(kParams);
  assign::U2uCandidateStage::Config config;
  config.model = &model;
  config.alpha = 0.1;
  config.pruning = assign::U2uCandidateStage::Pruning{
      0.9, index::PrunerBackend::kGrid, kParams, kParams,
      data::BeijingRegion()};
  assign::U2uCandidateStage stage(std::move(config));
  const geo::BoundingBox region = data::BeijingRegion();
  stats::Rng rng(11);
  stage.ReserveWorkers(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    stage.AddWorker({rng.UniformDouble(region.min_x, region.max_x),
                     rng.UniformDouble(region.min_y, region.max_y)},
                    rng.UniformDouble(1000.0, 3000.0));
  }
  stage.Prepare();
  uint32_t w = 0;
  for (auto _ : state) {
    // ±25 m jitter: mostly same-cell moves, the courier-drift common case.
    const geo::Point p{stage.soa().x[w] + rng.UniformDouble(-25.0, 25.0),
                       stage.soa().y[w] + rng.UniformDouble(-25.0, 25.0)};
    stage.UpdateWorkerLocation(w, p);
    stage.Prepare();
    w = (w + 9973) % static_cast<uint32_t>(n);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UpdateWorkerLocation)->Arg(100000)->Arg(1000000);

void BM_EndToEndAssignment(benchmark::State& state) {
  data::WorkloadConfig config;
  config.num_workers = static_cast<int>(state.range(0));
  config.num_tasks = static_cast<int>(state.range(0));
  stats::Rng rng(5);
  assign::Workload workload =
      data::MakeUniformWorkload(data::BeijingRegion(), config, rng);
  data::PerturbWorkload(kParams, kParams, rng, workload);
  assign::AlgorithmParams params;
  params.worker_params = kParams;
  params.task_params = kParams;
  assign::MatcherHandle handle = assign::MakeProbabilisticModel(params);
  for (auto _ : state) {
    stats::Rng run_rng(6);
    benchmark::DoNotOptimize(handle.Run(workload, run_rng));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EndToEndAssignment)->Arg(100)->Arg(500)->Arg(1000);

// ---- Runtime subsystem: seed fan-out, sharded builds, model cache ----

// The 10-seed paper config end to end, serial vs pooled. The aggregated
// metrics are bit-identical across the two arms (see runtime_test); only
// wall-clock changes. Arg = num_threads, 0 = all hardware threads.
void BM_ExperimentSeedFanout(benchmark::State& state) {
  sim::ExperimentConfig config = bench::PaperConfig();
  config.runtime.num_threads = static_cast<int>(state.range(0));
  const auto runner = sim::ExperimentRunner::Create(config);
  const privacy::PrivacyParams p{0.7, 800.0};
  for (auto _ : state) {
    assign::MatcherHandle handle =
        assign::MakeProbabilisticModel(bench::MakeParams(p));
    benchmark::DoNotOptimize(runner->Run(handle, p, p));
  }
  state.SetLabel(StrCat("threads=", config.runtime.ResolvedThreads()));
}
BENCHMARK(BM_ExperimentSeedFanout)
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// One 200k-sample empirical build at a fixed 16-shard split. The shard
// count pins the Monte-Carlo streams, so every arm produces the same
// tables; the thread count only spreads the shards.
void BM_EmpiricalBuildSharded(benchmark::State& state) {
  reachability::EmpiricalModelConfig config;
  config.region = data::BeijingRegion();
  config.num_samples = 200000;
  config.num_shards = bench::kBenchBuildShards;
  runtime::RuntimeOptions options;
  options.num_threads = static_cast<int>(state.range(0));
  const auto pool = runtime::MakePool(options);
  for (auto _ : state) {
    stats::Rng rng(2027);
    benchmark::DoNotOptimize(
        reachability::EmpiricalModel::Build(config, kParams, rng, pool.get()));
  }
  state.SetLabel(StrCat("threads=", options.ResolvedThreads()));
}
BENCHMARK(BM_EmpiricalBuildSharded)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Cold build through the cache (every iteration pays the Monte-Carlo
// cost) vs a warm hit — the amortization every bench binary now gets via
// bench::BuildEmpirical. Expect >= 100x between the two.
void BM_ModelCacheColdBuild(benchmark::State& state) {
  reachability::EmpiricalModelConfig config;
  config.region = data::BeijingRegion();
  config.num_samples = 200000;
  config.num_shards = bench::kBenchBuildShards;
  for (auto _ : state) {
    reachability::ModelCache cache;
    benchmark::DoNotOptimize(cache.GetOrBuild(config, kParams, kParams,
                                              bench::kBenchBuildSeed,
                                              bench::BenchPool()));
  }
}
BENCHMARK(BM_ModelCacheColdBuild)->Unit(benchmark::kMillisecond);

void BM_ModelCacheHit(benchmark::State& state) {
  reachability::EmpiricalModelConfig config;
  config.region = data::BeijingRegion();
  config.num_samples = 200000;
  config.num_shards = bench::kBenchBuildShards;
  reachability::ModelCache cache;
  benchmark::DoNotOptimize(cache.GetOrBuild(
      config, kParams, kParams, bench::kBenchBuildSeed, bench::BenchPool()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache.GetOrBuild(config, kParams, kParams, bench::kBenchBuildSeed));
  }
}
BENCHMARK(BM_ModelCacheHit);

// ---- Evaluation kernels (DESIGN.md section 8) -----------------------
// The U2U alpha filter as direct per-pair model evaluation vs the
// threshold-inverted squared-distance compare, over the same SoA snapshot.
// Both report items/s = worker decisions per second; the CI smoke job
// asserts the threshold arm is at least 5x the direct arm.

struct FilterFixture {
  reachability::WorkerFilterSoA soa;
  std::vector<geo::Point> tasks;
};

FilterFixture MakeFilterFixture(size_t n) {
  FilterFixture f;
  stats::Rng rng(8);
  const geo::BoundingBox region = data::BeijingRegion();
  // A handful of radius classes, like real fleets; the threshold cache
  // pays one inversion per class.
  const double radii[] = {800.0, 1400.0, 2000.0, 2800.0};
  f.soa.Resize(n);
  for (size_t i = 0; i < n; ++i) {
    f.soa.x[i] = rng.UniformDouble(region.min_x, region.max_x);
    f.soa.y[i] = rng.UniformDouble(region.min_y, region.max_y);
    f.soa.reach_radius_m[i] = radii[i % 4];
  }
  for (int t = 0; t < 64; ++t) {
    f.tasks.push_back({rng.UniformDouble(region.min_x, region.max_x),
                       rng.UniformDouble(region.min_y, region.max_y)});
  }
  return f;
}

void BM_MarcumQ1(benchmark::State& state) {
  const double a = static_cast<double>(state.range(0));
  double b = 0.1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::MarcumQ1(a, b));
    b = b < 8.0 ? b + 0.37 : 0.1;
  }
}
BENCHMARK(BM_MarcumQ1)->Arg(0)->Arg(1)->Arg(4);

void BM_U2UFilterDirect(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const FilterFixture f = MakeFilterFixture(n);
  const reachability::AnalyticalModel model(kParams);
  const double alpha = 0.1;
  size_t t = 0;
  for (auto _ : state) {
    const geo::Point task = f.tasks[t++ % f.tasks.size()];
    int64_t accepted = 0;
    for (size_t i = 0; i < n; ++i) {
      const double d_obs = geo::Distance({f.soa.x[i], f.soa.y[i]}, task);
      accepted += model.ProbReachable(reachability::Stage::kU2U, d_obs,
                                      f.soa.reach_radius_m[i]) >= alpha
                      ? 1
                      : 0;
    }
    benchmark::DoNotOptimize(accepted);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_U2UFilterDirect)->Arg(5000);

void BM_U2UFilterThreshold(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  FilterFixture f = MakeFilterFixture(n);
  const reachability::AnalyticalModel model(kParams);
  reachability::AlphaThresholdCache cache(&model, reachability::Stage::kU2U,
                                          0.1);
  f.soa.accept_below_sq.resize(n);
  f.soa.reject_above_sq.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const reachability::AlphaThreshold& t = cache.For(f.soa.reach_radius_m[i]);
    f.soa.accept_below_sq[i] = t.accept_below_sq;
    f.soa.reject_above_sq[i] = t.reject_above_sq;
  }
  size_t t = 0;
  for (auto _ : state) {
    const geo::Point task = f.tasks[t++ % f.tasks.size()];
    int64_t accepted = 0;
    for (size_t i = 0; i < n; ++i) {
      const double dx = f.soa.x[i] - task.x;
      const double dy = f.soa.y[i] - task.y;
      const double d_sq = dx * dx + dy * dy;
      bool is_candidate;
      if (d_sq <= f.soa.accept_below_sq[i]) {
        is_candidate = true;
      } else if (d_sq >= f.soa.reject_above_sq[i]) {
        is_candidate = false;
      } else {
        is_candidate = cache.IsCandidate(
            geo::Distance({f.soa.x[i], f.soa.y[i]}, task),
            f.soa.reach_radius_m[i]);
      }
      accepted += is_candidate ? 1 : 0;
    }
    benchmark::DoNotOptimize(accepted);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_U2UFilterThreshold)->Arg(5000);

// U2U setup: AddWorker x 200k + Prepare (certain bands, grid bulk load of
// the cell-major rows) with grid pruning at alpha = 0.1, on three radii (0)
// vs distinct U[1000, 3000] m radii (1). The threshold cache bisects
// lattice nodes, not radii, so both arms cost about the same; CI gates
// time(1) <= 2 x time(0). Items/s = workers set up.
void BM_U2uPrepare(benchmark::State& state) {
  const bool distinct = state.range(0) != 0;
  const size_t n = 200000;
  const geo::BoundingBox region = data::BeijingRegion();
  stats::Rng rng(17);
  std::vector<geo::Point> noisy(n);
  std::vector<double> radius(n);
  const double tiers[] = {1000.0, 2000.0, 3000.0};
  for (size_t i = 0; i < n; ++i) {
    noisy[i] = {rng.UniformDouble(region.min_x, region.max_x),
                rng.UniformDouble(region.min_y, region.max_y)};
    radius[i] = distinct ? rng.UniformDouble(1000.0, 3000.0) : tiers[i % 3];
  }
  const reachability::AnalyticalModel model(kParams);
  assign::U2uCandidateStage::Config config;
  config.model = &model;
  config.alpha = 0.1;
  config.pruning = assign::U2uCandidateStage::Pruning{
      0.9, index::PrunerBackend::kGrid, kParams, kParams, region};
  for (auto _ : state) {
    assign::U2uCandidateStage stage(config);
    stage.ReserveWorkers(n);
    for (size_t i = 0; i < n; ++i) stage.AddWorker(noisy[i], radius[i]);
    stage.Prepare();
    benchmark::DoNotOptimize(stage.threshold_nodes());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
  state.SetLabel(distinct ? "distinct radii" : "3 radii");
}
BENCHMARK(BM_U2uPrepare)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// ---- Cell-major range kernels (DESIGN.md section 13) -----------------
// The same certain-band trichotomy over the same workers, as the linear
// pruner's scattered gather (indices into a large SoA, one cache line per
// worker) vs the grid path's contiguous range (cell-major rows, packed
// column loads). Items/s = worker decisions; the gap is pure memory
// traffic, since both arms take bit-identical decisions.

struct MirrorFixture {
  reachability::WorkerFilterSoA soa;     // Large id-major pool.
  std::vector<uint32_t> indices;         // Sorted ~10% sample of the pool.
  // The sampled workers as one contiguous run of grid rows (one cell's
  // slice of GridIndex::rows()).
  reachability::CellMajorMirror mirror;
  std::vector<geo::Point> tasks;
};

MirrorFixture MakeMirrorFixture(size_t pool, size_t sample_every) {
  MirrorFixture f;
  stats::Rng rng(13);
  const geo::BoundingBox region = data::BeijingRegion();
  const double radii[] = {800.0, 1400.0, 2000.0, 2800.0};
  const reachability::AnalyticalModel model(kParams);
  reachability::AlphaThresholdCache cache(&model, reachability::Stage::kU2U,
                                          0.1);
  f.soa.Resize(pool);
  f.soa.accept_below_sq.resize(pool);
  f.soa.reject_above_sq.resize(pool);
  for (size_t i = 0; i < pool; ++i) {
    f.soa.x[i] = rng.UniformDouble(region.min_x, region.max_x);
    f.soa.y[i] = rng.UniformDouble(region.min_y, region.max_y);
    f.soa.reach_radius_m[i] = radii[i % 4];
    const reachability::AlphaThreshold& t = cache.For(f.soa.reach_radius_m[i]);
    f.soa.accept_below_sq[i] = t.accept_below_sq;
    f.soa.reject_above_sq[i] = t.reject_above_sq;
  }
  for (size_t i = 0; i < pool; i += sample_every) {
    f.indices.push_back(static_cast<uint32_t>(i));
  }
  f.mirror.Resize(f.indices.size());
  for (size_t k = 0; k < f.indices.size(); ++k) {
    const uint32_t i = f.indices[k];
    f.mirror.id[k] = i;
    f.mirror.x[k] = f.soa.x[i];
    f.mirror.y[k] = f.soa.y[i];
    f.mirror.expanded_r[k] = f.soa.reach_radius_m[i];
    f.mirror.accept_below_sq[k] = f.soa.accept_below_sq[i];
    f.mirror.reject_above_sq[k] = f.soa.reject_above_sq[i];
  }
  for (int t = 0; t < 64; ++t) {
    f.tasks.push_back({rng.UniformDouble(region.min_x, region.max_x),
                       rng.UniformDouble(region.min_y, region.max_y)});
  }
  return f;
}

void BM_ClassifyGather(benchmark::State& state) {
  const MirrorFixture f =
      MakeMirrorFixture(static_cast<size_t>(state.range(0)), 10);
  std::vector<uint32_t> accept, band;
  size_t t = 0;
  for (auto _ : state) {
    const geo::Point task = f.tasks[t++ % f.tasks.size()];
    accept.clear();
    band.clear();
    reachability::ClassifyCertainBand(f.soa, f.indices.data(),
                                      f.indices.size(), task.x, task.y,
                                      accept, band);
    benchmark::DoNotOptimize(accept.size() + band.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.indices.size()));
}
BENCHMARK(BM_ClassifyGather)->Arg(200000);

void BM_ClassifyRange(benchmark::State& state) {
  const MirrorFixture f =
      MakeMirrorFixture(static_cast<size_t>(state.range(0)), 10);
  std::vector<uint32_t> accept, band;
  size_t t = 0;
  for (auto _ : state) {
    const geo::Point task = f.tasks[t++ % f.tasks.size()];
    accept.clear();
    band.clear();
    reachability::ClassifyCertainBandRange(f.mirror, 0, f.mirror.size(),
                                           task.x, task.y, accept, band);
    benchmark::DoNotOptimize(accept.size() + band.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.mirror.size()));
}
BENCHMARK(BM_ClassifyRange)->Arg(200000);

// ProbReachableBatch per model over a dense SoA slab.
void BM_ProbReachableBatch(benchmark::State& state) {
  const size_t n = 4096;
  stats::Rng rng(9);
  std::vector<double> d(n), r(n), out(n);
  for (size_t i = 0; i < n; ++i) {
    d[i] = rng.UniformDouble(0.0, 15000.0);
    r[i] = rng.UniformDouble(500.0, 3000.0);
  }
  const reachability::BinaryModel binary;
  const reachability::AnalyticalModel analytical(kParams);
  reachability::EmpiricalModelConfig config;
  config.region = data::BeijingRegion();
  config.num_samples = 50000;
  stats::Rng build_rng(10);
  const auto empirical =
      reachability::EmpiricalModel::Build(config, kParams, build_rng);
  const reachability::ReachabilityModel* models[] = {&binary, &analytical,
                                                     &*empirical};
  const auto* model = models[state.range(0)];
  for (auto _ : state) {
    model->ProbReachableBatch(reachability::Stage::kU2E, d.data(), r.data(), n,
                              out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
  state.SetLabel(std::string(model->name()));
}
BENCHMARK(BM_ProbReachableBatch)->Arg(0)->Arg(1)->Arg(2);

// U2E ranking of one rush-like task (~26k candidates at uniform observed
// distance, r ~ U[1000, 3000] m, analytical model) up to its first two
// contacts: the eager Rank (0) scores and sorts every candidate, the
// certified cursor (1), opened over the same ids as one kNoCell group,
// bounds them from the memoized lattice and scores only those the first
// two entries need. Same entries either way (tests/rank_cursor_test.cc);
// items are candidates ranked.
void BM_U2eRank(benchmark::State& state) {
  const size_t n = 26000;
  stats::Rng rng(13);
  reachability::WorkerFilterSoA soa;
  soa.Resize(n);
  std::vector<uint32_t> candidates(n);
  for (size_t i = 0; i < n; ++i) {
    const double d = rng.UniformDouble(0.0, 15000.0);
    const double theta = rng.UniformDouble(0.0, 2.0 * M_PI);
    soa.x[i] = d * std::cos(theta);
    soa.y[i] = d * std::sin(theta);
    soa.reach_radius_m[i] = rng.UniformDouble(1000.0, 3000.0);
    candidates[i] = static_cast<uint32_t>(i);
  }
  assign::CandidateRuns runs;
  runs.ids = candidates;
  runs.size = n;
  runs.groups.push_back({});
  runs.groups[0].count = static_cast<uint32_t>(n);
  const reachability::AnalyticalModel model(kParams);
  assign::U2eRankStage stage({.model = &model,
                              .rank = assign::RankStrategy::kProbability,
                              .kernel = {}});
  const bool lazy = state.range(0) != 0;
  std::vector<std::pair<double, size_t>> ranked;
  for (auto _ : state) {
    if (lazy) {
      assign::U2eRankCursor& cursor =
          stage.Open(soa, runs, {0.0, 0.0}, nullptr);
      assign::U2eRankCursor::Entry entry;
      for (int k = 0; k < 2 && cursor.Next(entry); ++k) {
        benchmark::DoNotOptimize(entry);
      }
    } else {
      stage.Rank(soa, candidates, {0.0, 0.0}, nullptr, ranked);
      benchmark::DoNotOptimize(ranked.data());
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
  state.SetLabel(lazy ? "cursor" : "eager");
}
BENCHMARK(BM_U2eRank)->Arg(0)->Arg(1);

// One task through U2U and U2E up to its first two contacts on the grid
// path (200k uniform workers, r ~ U[1000, 3000] m, grid pruning, alpha =
// 0.1, analytical model): the ascending Collect, ranked as one kNoCell
// group (0), against CollectRuns ranked over its cell runs (1), which
// bounds whole cells best-first instead of every candidate. Same entries
// either way (tests/rank_cursor_test.cc); items are tasks. CI gates
// rate(1) >= 1.5 x rate(0), and rows_per_task < boundary_rows_per_task on
// (1): the rows classified one by one must be fewer than the rows of the
// rectangle walk's boundary cells, which the alpha clip and certificate
// settle without a read.
void BM_TaskPipelineGrid(benchmark::State& state) {
  const bool runs = state.range(0) != 0;
  const size_t n = 200000;
  const geo::BoundingBox region = data::BeijingRegion();
  stats::Rng rng(21);
  const reachability::AnalyticalModel model(kParams);
  assign::U2uCandidateStage::Config config;
  config.model = &model;
  config.alpha = 0.1;
  config.pruning = assign::U2uCandidateStage::Pruning{
      0.9, index::PrunerBackend::kGrid, kParams, kParams, region};
  assign::U2uCandidateStage stage(config);
  stage.ReserveWorkers(n);
  for (size_t i = 0; i < n; ++i) {
    stage.AddWorker({rng.UniformDouble(region.min_x, region.max_x),
                     rng.UniformDouble(region.min_y, region.max_y)},
                    rng.UniformDouble(1000.0, 3000.0));
  }
  stage.Prepare();
  // (exact, noisy) task locations; the noise only shifts the U2U query.
  std::vector<std::pair<geo::Point, geo::Point>> tasks;
  for (int t = 0; t < 64; ++t) {
    const geo::Point exact{rng.UniformDouble(region.min_x, region.max_x),
                           rng.UniformDouble(region.min_y, region.max_y)};
    tasks.push_back({exact,
                     {exact.x + rng.UniformDouble(-500.0, 500.0),
                      exact.y + rng.UniformDouble(-500.0, 500.0)}});
  }
  assign::U2eRankStage u2e({.model = &model,
                            .rank = assign::RankStrategy::kProbability,
                            .kernel = {}});
  // Rows of each task's rectangle-boundary cells in the task-less
  // (rectangle-range) walk, the reference the stage's clipped walk is
  // compared against.
  const index::UncertainRegionPruner boxes({}, kParams, kParams, 0.9, region);
  std::vector<int64_t> boundary_rows(tasks.size(), 0);
  std::vector<index::GridIndex::CellVisit> visits;
  for (size_t k = 0; k < tasks.size(); ++k) {
    stage.grid()->VisitQueryCells(boxes.TaskQueryBox(tasks[k].second), visits);
    for (const index::GridIndex::CellVisit& v : visits) {
      if (v.cert == index::GridIndex::CellCert::kBoundary) {
        boundary_rows[k] += v.count;
      }
    }
  }
  const int64_t rows_before = stage.stats().rows_classified;
  int64_t boundary_sum = 0;
  assign::CandidateRuns id_vector;  // Arm 0's one kNoCell group.
  id_vector.groups.push_back({});
  size_t t = 0;
  for (auto _ : state) {
    boundary_sum += boundary_rows[t % tasks.size()];
    const auto& [exact, noisy] = tasks[t++ % tasks.size()];
    if (!runs) {
      id_vector.ids = stage.Collect(noisy);
      id_vector.size = id_vector.ids.size();
      id_vector.groups[0].count = static_cast<uint32_t>(id_vector.size);
    }
    assign::U2eRankCursor& cursor =
        runs ? u2e.Open(stage.soa(), stage.CollectRuns(noisy), exact, nullptr)
             : u2e.Open(stage.soa(), id_vector, exact, nullptr);
    assign::U2eRankCursor::Entry entry;
    for (int k = 0; k < 2 && cursor.Next(entry); ++k) {
      benchmark::DoNotOptimize(entry);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.SetLabel(runs ? "cell runs" : "id vector");
  // Grid rows classified one by one, against the rows of the rectangle
  // walk's boundary cells.
  state.counters["rows_per_task"] = benchmark::Counter(
      static_cast<double>(stage.stats().rows_classified - rows_before),
      benchmark::Counter::kAvgIterations);
  state.counters["boundary_rows_per_task"] = benchmark::Counter(
      static_cast<double>(boundary_sum), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_TaskPipelineGrid)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

/// The direct-evaluation reference of the U2U filter (the tests' fixture
/// of the same name): forwards ProbReachable and declares no monotonicity,
/// so the stage gives it no certain regions and evaluates every scanned
/// worker directly.
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

// End-to-end engine throughput, direct-evaluation U2U filter (0) vs the
// certain-band kernel (1). Output is bit-identical across the arms
// (tests/kernel_test.cc); only speed moves.
void BM_ScGuardEngineKernel(benchmark::State& state) {
  data::WorkloadConfig config;
  config.num_workers = 500;
  config.num_tasks = 500;
  stats::Rng rng(11);
  assign::Workload workload =
      data::MakeUniformWorkload(data::BeijingRegion(), config, rng);
  data::PerturbWorkload(kParams, kParams, rng, workload);
  const reachability::AnalyticalModel model(kParams);
  const DirectEvalModel direct(&model);
  const bool kernel = state.range(0) != 0;
  assign::EnginePolicy policy;
  policy.u2u_model = &model;
  if (!kernel) policy.u2u_model = &direct;
  policy.u2e_model = &model;
  policy.worker_params = kParams;
  policy.task_params = kParams;
  policy.compute_accuracy_metrics = false;
  assign::ScGuardEngine engine(policy);
  for (auto _ : state) {
    stats::Rng run_rng(12);
    benchmark::DoNotOptimize(engine.Run(workload, run_rng));
  }
  state.SetItemsProcessed(state.iterations() * config.num_tasks);
  state.SetLabel(kernel ? "kernel=on" : "kernel=off");
}
BENCHMARK(BM_ScGuardEngineKernel)->Arg(0)->Arg(1);

// Cost of the observer-only U2U ground-truth accuracy scan
// (EnginePolicy::compute_accuracy_metrics): on (1) vs off (0).
void BM_ScGuardAccuracyScan(benchmark::State& state) {
  data::WorkloadConfig config;
  config.num_workers = 500;
  config.num_tasks = 500;
  stats::Rng rng(5);
  assign::Workload workload =
      data::MakeUniformWorkload(data::BeijingRegion(), config, rng);
  data::PerturbWorkload(kParams, kParams, rng, workload);
  const reachability::AnalyticalModel model(kParams);
  assign::EnginePolicy policy;
  policy.u2u_model = &model;
  policy.u2e_model = &model;
  policy.worker_params = kParams;
  policy.task_params = kParams;
  policy.compute_accuracy_metrics = state.range(0) != 0;
  assign::ScGuardEngine engine(policy);
  for (auto _ : state) {
    stats::Rng run_rng(6);
    benchmark::DoNotOptimize(engine.Run(workload, run_rng));
  }
}
BENCHMARK(BM_ScGuardAccuracyScan)->Arg(1)->Arg(0);

// ---- Flight recorder (DESIGN.md section 12) --------------------------
// The U2U threshold hot loop with per-task recorder emission (one span
// pair + one audit event per scan), recorder off (0) vs on (1). The off
// arm measures the disabled path's branch-predicted no-op cost — the <1%
// overhead contract the CI scale smoke gates end-to-end. Items/s = worker
// decisions, comparable with BM_U2UFilterThreshold.
void BM_RecorderU2uHotLoop(benchmark::State& state) {
  const bool on = state.range(0) == 1;
  obs::ObsConfig obs_config;
  obs_config.recorder = on;
  obs::SetConfig(obs_config);
  auto& recorder = obs::FlightRecorder::Global();
  recorder.Reset();
  static const obs::SpanSite span_site("bench.u2u_scan");

  const size_t n = 5000;
  FilterFixture f = MakeFilterFixture(n);
  const reachability::AnalyticalModel model(kParams);
  reachability::AlphaThresholdCache cache(&model, reachability::Stage::kU2U,
                                          0.1);
  f.soa.accept_below_sq.resize(n);
  f.soa.reject_above_sq.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const reachability::AlphaThreshold& t = cache.For(f.soa.reach_radius_m[i]);
    f.soa.accept_below_sq[i] = t.accept_below_sq;
    f.soa.reject_above_sq[i] = t.reject_above_sq;
  }
  size_t t = 0;
  int64_t scans_since_drain = 0;
  for (auto _ : state) {
    const geo::Point task = f.tasks[t++ % f.tasks.size()];
    int64_t accepted = 0;
    {
      const obs::Span span(span_site);
      for (size_t i = 0; i < n; ++i) {
        const double dx = f.soa.x[i] - task.x;
        const double dy = f.soa.y[i] - task.y;
        const double d_sq = dx * dx + dy * dy;
        accepted += d_sq <= f.soa.accept_below_sq[i]
                        ? 1
                        : (d_sq >= f.soa.reject_above_sq[i]
                               ? 0
                               : (cache.IsCandidate(
                                      geo::Distance({f.soa.x[i], f.soa.y[i]},
                                                    task),
                                      f.soa.reach_radius_m[i])
                                      ? 1
                                      : 0));
      }
    }
    obs::AuditU2eCandidates(static_cast<int64_t>(t), accepted, 0.7);
    benchmark::DoNotOptimize(accepted);
    // Keep the ring from wrapping: a consumer that keeps up, amortized.
    if (on && ++scans_since_drain == 8192) {
      recorder.Reset();
      scans_since_drain = 0;
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
  obs::SetConfig({});
  recorder.Reset();
}
BENCHMARK(BM_RecorderU2uHotLoop)->Arg(0)->Arg(1);

// Round-trip event throughput: emit a batch of instants, then Drain()
// them into the sorted stream. Items/s = events through the
// produce-then-drain cycle (the export path's input rate).
void BM_RecorderDrain(benchmark::State& state) {
  obs::ObsConfig obs_config;
  obs_config.recorder = true;
  obs::SetConfig(obs_config);
  auto& recorder = obs::FlightRecorder::Global();
  recorder.Reset();
  static const uint16_t id = recorder.InternName("bench.drain_event");
  const int64_t batch = state.range(0);
  for (auto _ : state) {
    for (int64_t i = 0; i < batch; ++i) obs::EmitInstant(id, i);
    benchmark::DoNotOptimize(recorder.Drain().size());
  }
  state.SetItemsProcessed(state.iterations() * batch);
  obs::SetConfig({});
  recorder.Reset();
}
BENCHMARK(BM_RecorderDrain)->Arg(4096)->Arg(65536);

}  // namespace
}  // namespace scguard

BENCHMARK_MAIN();
