#include "sim/experiment.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "data/beijing.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "runtime/parallel_for.h"

namespace scguard::sim {

AggregatedMetrics Aggregate(const std::vector<assign::RunMetrics>& runs) {
  AggregatedMetrics agg;
  agg.seeds = static_cast<int>(runs.size());
  if (runs.empty()) return agg;
  for (const auto& m : runs) {
    agg.assigned_tasks += static_cast<double>(m.assigned_tasks);
    agg.accepted_assignments += static_cast<double>(m.accepted_assignments);
    agg.travel_m += m.MeanTravelM();
    agg.candidates += m.MeanCandidates();
    agg.false_hits += static_cast<double>(m.false_hits);
    agg.false_dismissals += static_cast<double>(m.false_dismissals);
    agg.precision += m.MeanPrecision();
    agg.recall += m.MeanRecall();
    agg.disclosures_per_task += m.DisclosuresPerAssignedTask();
    agg.u2u_seconds += m.u2u_seconds;
    agg.u2e_seconds += m.u2e_seconds;
    agg.total_seconds += m.total_seconds;
    agg.u2u_scanned += static_cast<double>(m.u2u_scanned);
    agg.u2u_scanned_first_task += static_cast<double>(m.u2u_scanned_first_task);
    agg.u2u_scanned_last_task += static_cast<double>(m.u2u_scanned_last_task);
    agg.cells_bulk_accepted += static_cast<double>(m.cells_bulk_accepted);
    agg.cells_skipped += static_cast<double>(m.cells_skipped);
    agg.boundary_workers += static_cast<double>(m.boundary_workers);
  }
  const double n = static_cast<double>(runs.size());
  agg.assigned_tasks /= n;
  agg.accepted_assignments /= n;
  agg.travel_m /= n;
  agg.candidates /= n;
  agg.false_hits /= n;
  agg.false_dismissals /= n;
  agg.precision /= n;
  agg.recall /= n;
  agg.disclosures_per_task /= n;
  agg.u2u_seconds /= n;
  agg.u2e_seconds /= n;
  agg.total_seconds /= n;
  agg.u2u_scanned /= n;
  agg.u2u_scanned_first_task /= n;
  agg.u2u_scanned_last_task /= n;
  agg.cells_bulk_accepted /= n;
  agg.cells_skipped /= n;
  agg.boundary_workers /= n;
  if (runs.size() >= 2) {
    double var_assigned = 0, var_travel = 0;
    for (const auto& m : runs) {
      const double da = static_cast<double>(m.assigned_tasks) - agg.assigned_tasks;
      const double dt = m.MeanTravelM() - agg.travel_m;
      var_assigned += da * da;
      var_travel += dt * dt;
    }
    agg.assigned_tasks_stddev = std::sqrt(var_assigned / (n - 1.0));
    agg.travel_m_stddev = std::sqrt(var_travel / (n - 1.0));
  }
  return agg;
}

ExperimentRunner::ExperimentRunner(const ExperimentConfig& config,
                                   std::vector<data::Trip> trips,
                                   const geo::BoundingBox& region)
    : config_(config), trips_(std::move(trips)), region_(region) {}

Result<ExperimentRunner> ExperimentRunner::Create(const ExperimentConfig& config) {
  if (config.num_seeds <= 0) {
    return Status::InvalidArgument("num_seeds must be positive");
  }
  const geo::BoundingBox region = data::BeijingRegion();
  stats::Rng city_rng(config.base_seed);
  SCGUARD_ASSIGN_OR_RETURN(
      data::TDriveSynthesizer synth,
      data::TDriveSynthesizer::Create(config.synth, region, city_rng));
  std::vector<data::Trip> trips = synth.GenerateTrips(city_rng);
  return ExperimentRunner(config, std::move(trips), region);
}

Result<assign::Workload> ExperimentRunner::MakeWorkload(
    int seed, const privacy::PrivacyParams& worker_params,
    const privacy::PrivacyParams& task_params) const {
  // Streams: 1 = workload sampling, 2 = Geo-I noise. Sampling is
  // independent of the privacy level, so the same seed yields the same
  // true workload for every (eps, r) point of a sweep.
  stats::Rng root(config_.base_seed + uint64_t{1000003} * static_cast<uint64_t>(seed + 1));
  stats::Rng sample_rng = root.Fork(1);
  SCGUARD_ASSIGN_OR_RETURN(
      assign::Workload workload,
      data::BuildWorkloadFromTrips(trips_, config_.workload, sample_rng));
  workload.region = region_;
  stats::Rng noise_rng = root.Fork(2);
  data::PerturbWorkload(worker_params, task_params, noise_rng, workload);
  return workload;
}

Result<AggregatedMetrics> ExperimentRunner::Run(
    assign::MatcherHandle& handle, const privacy::PrivacyParams& worker_params,
    const privacy::PrivacyParams& task_params) const {
  static const obs::SpanSite kRunSite("sim.run");
  const obs::Span run_span(kRunSite);
  // Seed fan-out: every seed derives its own Rng streams from base_seed,
  // builds its own workload, and writes its metrics into its own slot, so
  // the aggregate below — a seed-ordered reduction — is bit-identical for
  // any thread count. Timing fields (u2e/total seconds) are the only
  // metrics that vary run to run, parallel or not.
  std::vector<assign::RunMetrics> runs(static_cast<size_t>(config_.num_seeds));
  std::vector<double> seed_seconds(static_cast<size_t>(config_.num_seeds));
  const std::unique_ptr<runtime::ThreadPool> pool =
      runtime::MakePool(config_.runtime);
  const Status st = runtime::ParallelFor(
      pool.get(), 0, config_.num_seeds, /*grain=*/1,
      [&](int64_t lo, int64_t hi) -> Status {
        for (int64_t seed = lo; seed < hi; ++seed) {
          const auto seed_start = std::chrono::steady_clock::now();
          SCGUARD_ASSIGN_OR_RETURN(
              const assign::Workload workload,
              MakeWorkload(static_cast<int>(seed), worker_params, task_params));
          stats::Rng root(config_.base_seed +
                          uint64_t{1000003} * static_cast<uint64_t>(seed + 1));
          stats::Rng match_rng = root.Fork(3);  // Random ranks, shared per seed.
          runs[static_cast<size_t>(seed)] =
              handle.Run(workload, match_rng).metrics;
          seed_seconds[static_cast<size_t>(seed)] =
              std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            seed_start)
                  .count();
        }
        return Status::OK();
      });
  SCGUARD_RETURN_NOT_OK(st);

  AggregatedMetrics agg = Aggregate(runs);
  // Per-seed wall-clock summary (and the scguard.sim.seed_seconds
  // histogram when observability is on). Previously this timing was
  // simply dropped, which made "which seed is slow" unanswerable.
  {
    obs::Counter* const seeds_counter =
        obs::MetricsRegistry::Global().GetCounter("scguard.sim.seeds_run");
    obs::Histogram* const seed_histogram =
        obs::MetricsRegistry::Global().GetHistogram(
            "scguard.sim.seed_seconds");
    seeds_counter->Increment(config_.num_seeds);
    if (obs::Enabled()) {
      for (const double s : seed_seconds) seed_histogram->Observe(s);
    }
    std::vector<double> sorted = seed_seconds;
    std::sort(sorted.begin(), sorted.end());
    agg.seed_seconds_min = sorted.front();
    agg.seed_seconds_max = sorted.back();
    const size_t mid = sorted.size() / 2;
    agg.seed_seconds_median = sorted.size() % 2 == 1
                                  ? sorted[mid]
                                  : 0.5 * (sorted[mid - 1] + sorted[mid]);
  }
  return agg;
}

Result<AggregatedMetrics> ExperimentRunner::RunFactory(
    const std::function<assign::MatcherHandle()>& factory,
    const privacy::PrivacyParams& worker_params,
    const privacy::PrivacyParams& task_params) const {
  assign::MatcherHandle handle = factory();
  return Run(handle, worker_params, task_params);
}

}  // namespace scguard::sim
