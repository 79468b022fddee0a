// Service bench (DESIGN.md section 14 / EXPERIMENTS.md "Sustained-throughput
// service"): replays a Poisson task-arrival stream plus a configurable
// worker re-report rate against the persistent AssignmentService and
// measures what the one-shot engine benches cannot — sustained QPS and the
// admission-to-assignment latency tail under concurrent ingest. Emits
// BENCH_service.json; `sustained_qps` is higher-better and the
// p50/p95/p99_seconds fields are the latency tail (tools/bench_compare.py
// treats "service" documents with exactly these semantics).
//
// Knobs (all optional):
//   SCGUARD_SERVICE_WORKERS     comma list, default "10000,100000"
//   SCGUARD_SERVICE_QPS         target task arrivals per second, default 6000
//   SCGUARD_SERVICE_SECONDS     submission window, default 3
//   SCGUARD_SERVICE_REPORT_PCT  re-reports per second as % of workers,
//                               default 10
//   SCGUARD_SERVICE_REPORTERS   reporter threads, default 2
//   SCGUARD_SERVICE_ALPHA       U2U threshold, default 0.1 (the
//                               repository's working point; at 0.5 the
//                               workload assigns no task, so the bench
//                               would time an empty pipeline)
//
// A point that assigns no task fails the bench (exit 1): its throughput
// would measure a pipeline that never reaches U2E or E2E.
// Determinism: assignment *bits* depend only on the admission order the
// consumer logged (tests/service_test.cc replays the log bit-identically);
// this bench's numbers are throughput/latency and naturally vary run to
// run.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "data/beijing.h"
#include "data/workload.h"
#include "privacy/mechanism.h"
#include "reachability/analytical_model.h"
#include "service/service.h"

namespace scguard::bench {
namespace {

using Clock = std::chrono::steady_clock;

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

double ParseDouble(const char* env, double fallback) {
  return env != nullptr ? std::stod(env) : fallback;
}

double PercentileNs(std::vector<uint64_t>& sorted_ns, double q) {
  if (sorted_ns.empty()) return 0.0;
  const size_t i = std::min(
      sorted_ns.size() - 1,
      static_cast<size_t>(q * static_cast<double>(sorted_ns.size())));
  return static_cast<double>(sorted_ns[i]);
}

int Main() {
  // Like bench_scale: the per-stage breakdown is the point, so obs is
  // always on; the flight recorder stays opt-in.
  obs::ObsConfig obs_config;
  obs_config.enabled = true;
  obs_config.recorder = EnvFlag("SCGUARD_OBS") || EnvFlag("SCGUARD_OBS_TRACE");
  obs_config.audit_full = EnvFlag("SCGUARD_AUDIT_FULL");
  obs::SetConfig(obs_config);
  if (obs_config.recorder) {
    obs::FlightRecorder::Global().set_ring_capacity(size_t{1} << 19);
  }

  const std::vector<int64_t> worker_counts =
      ParseList(std::getenv("SCGUARD_SERVICE_WORKERS"), "10000,100000");
  const double target_qps =
      ParseDouble(std::getenv("SCGUARD_SERVICE_QPS"), 6000.0);
  const double window_seconds =
      ParseDouble(std::getenv("SCGUARD_SERVICE_SECONDS"), 3.0);
  const double report_pct =
      ParseDouble(std::getenv("SCGUARD_SERVICE_REPORT_PCT"), 10.0);
  const int num_reporters = static_cast<int>(
      ParseList(std::getenv("SCGUARD_SERVICE_REPORTERS"), "2").front());
  const double alpha = ParseDouble(std::getenv("SCGUARD_SERVICE_ALPHA"), 0.1);

  const privacy::PrivacyParams privacy_level{0.7, 800.0};
  const reachability::AnalyticalModel model(privacy_level);
  JsonSeriesWriter json("service");

  std::printf(
      "assignment service: qps=%.0f window=%.1fs report_pct=%.0f "
      "reporters=%d alpha=%.2f\n\n",
      target_qps, window_seconds, report_pct, num_reporters, alpha);
  std::printf("%10s %9s %12s %10s %10s %10s %10s %9s %8s %8s\n", "workers",
              "tasks", "sustained/s", "p50_ms", "p95_ms", "p99_ms",
              "reports/s", "rejected", "epochs", "drain_s");

  int64_t expected_disclosures = 0;
  int64_t expected_candidates = 0;

  for (const int64_t num_workers : worker_counts) {
    const int num_tasks = static_cast<int>(target_qps * window_seconds) + 1;
    data::WorkloadConfig wconfig;
    wconfig.num_workers = static_cast<int>(num_workers);
    wconfig.num_tasks = num_tasks;
    stats::Rng workload_rng(977 + static_cast<uint64_t>(num_workers));
    assign::Workload workload = data::MakeUniformWorkload(
        data::BeijingRegion(), wconfig, workload_rng);
    data::PerturbWorkload(privacy_level, privacy_level, workload_rng,
                          workload);

    service::ServiceConfig config;
    config.u2u_model = &model;
    config.u2e_model = &model;
    config.alpha = alpha;
    config.beta = 0.25;
    config.rank = assign::RankStrategy::kProbability;
    config.worker_params = privacy_level;
    config.task_params = privacy_level;
    config.pruning_gamma = 0.9;
    config.pruning_backend = index::PrunerBackend::kGrid;
    config.region = workload.region;

    service::AssignmentService svc(config);
    for (const assign::Worker& w : workload.workers) svc.RegisterWorker(w);
    svc.Start();

    const auto bench_start = Clock::now();
    std::atomic<bool> reporters_run{true};

    // Reporter threads: each owns the workers with id % reporters == r
    // (disjoint, so per-thread exact-location state needs no locks) and
    // paces its share of the target report rate. Movement is a Gaussian
    // step re-perturbed with fresh Geo-I noise, like a courier drifting
    // between fixes.
    const double reports_per_sec =
        report_pct / 100.0 * static_cast<double>(num_workers);
    std::vector<std::thread> reporters;
    reporters.reserve(static_cast<size_t>(num_reporters));
    for (int r = 0; r < num_reporters; ++r) {
      reporters.emplace_back([&, r] {
        stats::Rng rng(9001 + static_cast<uint64_t>(r));
        // The configured obfuscation mechanism; workers may drift outside
        // the workload region, which grid mechanisms clamp to the border
        // cell.
        const auto noise =
            privacy::MakeMechanismOrDie(privacy_level, workload.region);
        std::vector<geo::Point> exact;
        std::vector<uint32_t> ids;
        for (int64_t i = r; i < num_workers; i += num_reporters) {
          ids.push_back(static_cast<uint32_t>(i));
          exact.push_back(workload.workers[static_cast<size_t>(i)].location);
        }
        if (ids.empty()) return;
        const double rate = reports_per_sec / num_reporters;
        if (rate <= 0.0) return;
        const auto interval =
            std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(1.0 / rate));
        auto next = Clock::now();
        size_t cursor = 0;
        while (reporters_run.load(std::memory_order_relaxed)) {
          const uint32_t w = ids[cursor];
          geo::Point& p = exact[cursor];
          cursor = cursor + 1 == ids.size() ? 0 : cursor + 1;
          p.x += rng.Gaussian(0.0, 100.0);
          p.y += rng.Gaussian(0.0, 100.0);
          svc.ReportLocation(w, p, noise->Perturb(p, rng));
          next += interval;
          const auto now = Clock::now();
          if (next > now) {
            std::this_thread::sleep_until(next);
          } else if (now - next > std::chrono::milliseconds(50)) {
            next = now;  // Fell far behind: don't burst-flood the ring.
          }
        }
      });
    }

    // Submitter (this thread): Poisson arrivals at target_qps, catching up
    // in bursts when the clock slips rather than silently lowering the
    // offered load.
    stats::Rng arrival_rng(31 + static_cast<uint64_t>(num_workers));
    auto next_arrival = Clock::now();
    int64_t submitted = 0;
    for (const assign::Task& t : workload.tasks) {
      if (Clock::now() - bench_start >
          std::chrono::duration<double>(window_seconds)) {
        break;
      }
      if (!svc.SubmitTask(t)) continue;  // Counted by the service.
      ++submitted;
      const double gap = -std::log(arrival_rng.UniformDoublePositive()) /
                         target_qps;
      next_arrival += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(gap));
      if (next_arrival > Clock::now()) {
        std::this_thread::sleep_until(next_arrival);
      }
    }

    reporters_run.store(false, std::memory_order_relaxed);
    for (auto& t : reporters) t.join();
    svc.Stop(service::AssignmentService::StopMode::kDrain);

    const double elapsed =
        std::chrono::duration<double>(Clock::now() - bench_start).count();
    const auto& completions = svc.completions();
    const service::IngestStats ingest = svc.ingest_stats();
    const assign::RunMetrics& m = svc.metrics();
    expected_disclosures += m.requester_to_worker_msgs;
    expected_candidates += m.candidates_sum;

    std::vector<uint64_t> latency_ns;
    latency_ns.reserve(completions.size());
    for (const auto& c : completions) {
      latency_ns.push_back(c.done_ns - c.submit_ns);
    }
    std::sort(latency_ns.begin(), latency_ns.end());
    const double p50 = PercentileNs(latency_ns, 0.50) * 1e-9;
    const double p95 = PercentileNs(latency_ns, 0.95) * 1e-9;
    const double p99 = PercentileNs(latency_ns, 0.99) * 1e-9;
    const double sustained =
        elapsed > 0.0 ? static_cast<double>(completions.size()) / elapsed
                      : 0.0;
    const double applied_reports_per_sec =
        elapsed > 0.0
            ? static_cast<double>(ingest.reports_submitted) / elapsed
            : 0.0;

    const sim::AggregatedMetrics agg = sim::Aggregate({m});
    json.Add(StrCat("reporters=", num_reporters),
             static_cast<double>(num_workers), agg,
             {{"threads", static_cast<double>(num_reporters)},
              {"target_qps", target_qps},
              {"sustained_qps", sustained},
              {"p50_seconds", p50},
              {"p95_seconds", p95},
              {"p99_seconds", p99},
              {"reports_per_sec", applied_reports_per_sec},
              {"tasks_submitted", static_cast<double>(ingest.tasks_submitted)},
              {"reports_submitted",
               static_cast<double>(ingest.reports_submitted)},
              {"tasks_rejected", static_cast<double>(ingest.tasks_rejected)},
              {"reports_rejected",
               static_cast<double>(ingest.reports_rejected)},
              {"epochs", static_cast<double>(ingest.epochs)},
              {"drain_seconds", svc.drain_seconds()}});
    std::printf(
        "%10lld %9zu %12.0f %10.3f %10.3f %10.3f %10.0f %9lld %8lld %8.3f\n",
        (long long)num_workers, completions.size(), sustained, p50 * 1e3,
        p95 * 1e3, p99 * 1e3, applied_reports_per_sec,
        (long long)(ingest.tasks_rejected + ingest.reports_rejected),
        (long long)ingest.epochs, svc.drain_seconds());
    (void)submitted;
    if (m.assigned_tasks == 0) {
      std::fprintf(stderr,
                   "%lld workers: no task assigned at alpha=%.2f; the "
                   "throughput above measured an empty pipeline\n",
                   (long long)num_workers, alpha);
      return 1;
    }
  }

  std::printf(
      "\nwrote BENCH_service.json (sustained_qps higher-better, "
      "p99_seconds = latency tail)\n");

  if (obs::RecorderEnabled()) {
    const obs::AuditTotals audit = WriteFlightArtifacts("service");
    const int64_t dropped = obs::FlightRecorder::Global().dropped();
    std::printf(
        "\naudit reconciliation (AUDIT_service.jsonl vs service metrics):\n"
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
    std::printf("wrote TRACE_service.json (ui.perfetto.dev) and "
                "AUDIT_service.jsonl\n");
  }
  return 0;
}

}  // namespace
}  // namespace scguard::bench

int main() { return scguard::bench::Main(); }
