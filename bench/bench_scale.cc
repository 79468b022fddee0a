// Scale bench (DESIGN.md section 9 / EXPERIMENTS.md "Scaling the engine"):
// one ScGuardEngine run per (workers, threads, pruner) cell, measuring the
// server-stage U2U scan at production sizes — up to a million workers —
// instead of the paper's 500. Emits BENCH_scale.json; the `u2u_seconds`
// field carries the thread-scaling curve and the `u2u_scanned_first_task` /
// `u2u_scanned_last_task` pair shows the active-set compaction decay.
//
// Knobs (all optional):
//   SCGUARD_SCALE_WORKERS   comma list, default "10000,100000,1000000"
//   SCGUARD_SCALE_THREADS   comma list, default "1,4,0" (0 = hardware)
//   SCGUARD_SCALE_TASKS     tasks per run, default 512
//
// Determinism contract: every cell of one worker count sees the same
// workload and a fresh identically-seeded Rng, and the engine's sharded
// scan is thread-count invariant (tests/engine_parallel_test.cc), so the
// assigned/travel columns must agree exactly across every row of a size —
// only the timing columns may differ.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "assign/scguard_engine.h"
#include "bench/bench_common.h"
#include "data/beijing.h"
#include "data/workload.h"
#include "reachability/analytical_model.h"

namespace scguard::bench {
namespace {

std::vector<int64_t> ParseList(const char* env, const char* fallback) {
  const std::string spec = env != nullptr ? env : fallback;
  std::vector<int64_t> out;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t next = spec.find(',', pos);
    if (next == std::string::npos) next = spec.size();
    out.push_back(std::stoll(spec.substr(pos, next - pos)));
    pos = next + 1;
  }
  return out;
}

int Main() {
  // The whole point of this bench is the per-stage breakdown, so the obs
  // layer is always on here (unlike the figure benches' SCGUARD_OBS gate).
  // The flight recorder (per-event tracing + privacy audit, DESIGN.md
  // section 12) stays opt-in: SCGUARD_OBS=1 or SCGUARD_OBS_TRACE=1 turns
  // it on and the run additionally writes TRACE_scale.json (Perfetto) and
  // AUDIT_scale.jsonl. CI compares a recorder-off against a recorder-on
  // run of this bench for the <1% overhead gate.
  obs::ObsConfig obs_config;
  obs_config.enabled = true;
  obs_config.recorder = EnvFlag("SCGUARD_OBS") || EnvFlag("SCGUARD_OBS_TRACE");
  obs_config.audit_full = EnvFlag("SCGUARD_AUDIT_FULL");
  obs::SetConfig(obs_config);
  if (obs_config.recorder) {
    // Per-thread headroom for the default 3-size sweep: span + audit
    // events stay well under this, so `dropped` must come back 0.
    obs::FlightRecorder::Global().set_ring_capacity(size_t{1} << 19);
  }

  const std::vector<int64_t> worker_counts = ParseList(
      std::getenv("SCGUARD_SCALE_WORKERS"), "10000,100000,1000000");
  std::vector<int64_t> thread_counts =
      ParseList(std::getenv("SCGUARD_SCALE_THREADS"), "1,4,0");
  const int64_t num_tasks =
      ParseList(std::getenv("SCGUARD_SCALE_TASKS"), "512").front();
  for (auto& t : thread_counts) {
    if (t == 0) t = runtime::ThreadPool::HardwareThreads();
  }
  // Dedup (0 may resolve to an explicit entry), preserving order.
  {
    std::vector<int64_t> unique;
    for (const int64_t t : thread_counts) {
      if (std::find(unique.begin(), unique.end(), t) == unique.end()) {
        unique.push_back(t);
      }
    }
    thread_counts = std::move(unique);
  }

  const privacy::PrivacyParams privacy_level{0.7, 800.0};
  constexpr double kAlpha = 0.1;
  const reachability::AnalyticalModel model(privacy_level);
  JsonSeriesWriter json("scale");

  std::printf("engine scale: tasks=%lld threads={", (long long)num_tasks);
  for (size_t i = 0; i < thread_counts.size(); ++i) {
    std::printf("%s%lld", i > 0 ? "," : "", (long long)thread_counts[i]);
  }
  std::printf("} (hardware=%d)\n\n", runtime::ThreadPool::HardwareThreads());
  std::printf("%10s %8s %7s %10s %10s %10s %12s %12s %11s %11s %11s %12s "
              "%11s %11s\n",
              "workers", "threads", "pruner", "assigned", "u2u_s", "total_s",
              "scan_first", "scan_last", "cells_bulk", "cells_skip",
              "boundary_w", "gather_MiB", "cells_direct", "cells_clip");

  // Ground truth for the audit-trail reconciliation: the engine's own
  // disclosure counters summed over every cell this process ran.
  int64_t expected_disclosures = 0;
  int64_t expected_candidates = 0;

  for (const int64_t num_workers : worker_counts) {
    // One workload per size, shared by every (threads, pruner) cell: the
    // perturbation and the match Rng are seeded per run, so rows of a size
    // differ only in wall clock.
    data::WorkloadConfig wconfig;
    wconfig.num_workers = static_cast<int>(num_workers);
    wconfig.num_tasks = static_cast<int>(num_tasks);
    stats::Rng workload_rng(977 + static_cast<uint64_t>(num_workers));
    assign::Workload workload = data::MakeUniformWorkload(
        data::BeijingRegion(), wconfig, workload_rng);
    data::PerturbWorkload(privacy_level, privacy_level, workload_rng, workload);

    for (const int64_t threads : thread_counts) {
      std::unique_ptr<runtime::ThreadPool> pool;
      if (threads > 1) {
        pool = std::make_unique<runtime::ThreadPool>(static_cast<int>(threads));
      }
      for (const bool use_pruner : {false, true}) {
        assign::EnginePolicy policy;
        policy.u2u_model = &model;
        policy.u2e_model = &model;
        policy.alpha = kAlpha;
        policy.beta = 0.25;
        policy.rank = assign::RankStrategy::kProbability;
        policy.worker_params = privacy_level;
        policy.task_params = privacy_level;
        // The observer-side accuracy scan is O(workers) per task and would
        // dominate every cell; this bench measures protocol throughput.
        policy.compute_accuracy_metrics = false;
        if (use_pruner) {
          policy.pruning_gamma = 0.9;
          policy.pruning_backend = index::PrunerBackend::kGrid;
        }
        policy.runtime.pool = pool.get();
        assign::ScGuardEngine engine(std::move(policy));

        stats::Rng rng(42);
        const assign::MatchResult run = engine.Run(workload, rng);
        const sim::AggregatedMetrics agg = sim::Aggregate({run.metrics});
        expected_disclosures += run.metrics.requester_to_worker_msgs;
        expected_candidates += run.metrics.candidates_sum;

        const std::string series = StrCat(
            "threads=", threads, ",pruner=", use_pruner ? "grid" : "off");
        json.Add(series, static_cast<double>(num_workers), agg,
                 {{"threads", static_cast<double>(threads)},
                  {"pruner", use_pruner ? 1.0 : 0.0},
                  {"u2u_gather_bytes",
                   static_cast<double>(run.metrics.u2u_gather_bytes)},
                  {"cells_emitted_direct",
                   static_cast<double>(run.metrics.cells_emitted_direct)},
                  {"cells_clipped",
                   static_cast<double>(run.metrics.cells_clipped)},
                  // The workload, so bench_compare.py only diffs points
                  // measured on the same one.
                  {"tasks", static_cast<double>(num_tasks)},
                  {"alpha", kAlpha},
                  {"epsilon", privacy_level.epsilon}});
        std::printf(
            "%10lld %8lld %7s %10lld %10.3f %10.3f %12lld %12lld %11lld "
            "%11lld %11lld %12.1f %11lld %11lld\n",
            (long long)num_workers, (long long)threads,
            use_pruner ? "grid" : "off",
            (long long)run.metrics.assigned_tasks, run.metrics.u2u_seconds,
            run.metrics.total_seconds,
            (long long)run.metrics.u2u_scanned_first_task,
            (long long)run.metrics.u2u_scanned_last_task,
            (long long)run.metrics.cells_bulk_accepted,
            (long long)run.metrics.cells_skipped,
            (long long)run.metrics.boundary_workers,
            static_cast<double>(run.metrics.u2u_gather_bytes) / (1 << 20),
            (long long)run.metrics.cells_emitted_direct,
            (long long)run.metrics.cells_clipped);
      }
    }
  }
  std::printf(
      "\nwrote BENCH_scale.json (u2u_seconds = thread-scaling curve;\n"
      "scan_last < scan_first = active-set compaction at work)\n");

  if (obs::RecorderEnabled()) {
    const obs::AuditTotals audit = WriteFlightArtifacts("scale");
    const int64_t dropped = obs::FlightRecorder::Global().dropped();
    std::printf(
        "\naudit reconciliation (AUDIT_scale.jsonl vs engine metrics):\n"
        "  e2e disclosures  %lld audit vs %lld metrics\n"
        "  u2e candidates   %lld audit vs %lld metrics\n"
        "  dropped events   %lld\n",
        (long long)audit.e2e_disclosures, (long long)expected_disclosures,
        (long long)audit.u2e_candidates_sum, (long long)expected_candidates,
        (long long)dropped);
    if (audit.e2e_disclosures != expected_disclosures ||
        audit.u2e_candidates_sum != expected_candidates || dropped != 0) {
      std::fprintf(stderr, "audit trail does not reconcile\n");
      return 1;
    }
    std::printf("wrote TRACE_scale.json (ui.perfetto.dev) and "
                "AUDIT_scale.jsonl\n");
  }
  return 0;
}

}  // namespace
}  // namespace scguard::bench

int main() { return scguard::bench::Main(); }
