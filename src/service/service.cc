#include "service/service.h"

#include <chrono>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "geo/point.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "runtime/backoff.h"

namespace scguard::service {
namespace {

using Clock = std::chrono::steady_clock;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// Service metric set (DESIGN.md section 14), resolved once per process
/// like the engine's. Counters accumulate in consumer locals and flush at
/// loop exit; only the two staleness gauges and the latency histogram are
/// touched per batch / per task, and only while obs is enabled.
struct ServiceObs {
  obs::Counter* tasks;
  obs::Counter* reports;
  obs::Counter* tasks_rejected;
  obs::Counter* reports_rejected;
  obs::Counter* tasks_invalid;
  obs::Counter* reports_invalid;
  obs::Counter* workers_invalid;
  obs::Counter* epochs;
  obs::Gauge* queue_depth;
  obs::Gauge* epoch_lag;
  obs::Histogram* admission_to_assignment;

  static const ServiceObs& Get() {
    auto& registry = obs::MetricsRegistry::Global();
    static const ServiceObs o = {
        registry.GetCounter("scguard.service.tasks"),
        registry.GetCounter("scguard.service.reports"),
        registry.GetCounter("scguard.service.tasks_rejected"),
        registry.GetCounter("scguard.service.reports_rejected"),
        registry.GetCounter("scguard.service.tasks_invalid"),
        registry.GetCounter("scguard.service.reports_invalid"),
        registry.GetCounter("scguard.service.workers_invalid"),
        registry.GetCounter("scguard.service.epochs"),
        registry.GetGauge("scguard.service.ingest_queue_depth"),
        registry.GetGauge("scguard.service.epoch_lag"),
        registry.GetHistogram(
            "scguard.service.admission_to_assignment_seconds")};
    return o;
  }
};

bool Finite(geo::Point p) { return std::isfinite(p.x) && std::isfinite(p.y); }

}  // namespace

AssignmentService::AssignmentService(ServiceConfig config)
    : config_(std::move(config)),
      queue_(config_.queue_capacity),
      rank_rng_(config_.rank_seed),
      pipeline_(config_, config_.region, workers_) {
  SCGUARD_CHECK(config_.max_batch >= 1);
}

AssignmentService::~AssignmentService() {
  if (started_ && !stopped_) Stop(StopMode::kAbandon);
}

uint32_t AssignmentService::RegisterWorker(const assign::Worker& w) {
  SCGUARD_CHECK(!started_);
  if (!setup_start_.has_value()) setup_start_ = Clock::now();
  // The pruning index cannot place a non-finite point or rectangle, and a
  // worker who reaches nothing is no candidate: refuse before any state
  // (or the random-rank stream) sees the registration.
  if (!Finite(w.location) || !Finite(w.noisy_location) ||
      !(w.reach_radius_m > 0.0 && std::isfinite(w.reach_radius_m))) {
    workers_invalid_.fetch_add(1, std::memory_order_relaxed);
    return kInvalidWorker;
  }
  workers_.push_back(w);
  return pipeline_.AddWorker(w, rank_rng_);
}

void AssignmentService::Setup() {
  static const obs::SpanSite kSetupSite("assign.setup");
  if (!setup_start_.has_value()) setup_start_ = Clock::now();
  pipeline_.Prepare();
  const auto setup_end = Clock::now();
  result_.metrics.setup_seconds =
      std::chrono::duration<double>(setup_end - *setup_start_).count();
  obs::RecordSpan(kSetupSite, *setup_start_, setup_end);
}

void AssignmentService::Start() {
  SCGUARD_CHECK(!started_ && !stopped_);
  started_ = true;
  Setup();
  consumer_ = std::thread([this] { ConsumerLoop(); });
}

bool AssignmentService::SubmitTask(const assign::Task& t) {
  if (!Finite(t.location) || !Finite(t.noisy_location)) {
    tasks_invalid_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  ServiceEvent ev;
  ev.kind = ServiceEvent::Kind::kTask;
  ev.task_id = t.id;
  ev.exact = t.location;
  ev.noisy = t.noisy_location;
  ev.submit_ns = NowNs();
  if (!queue_.TryPush(ev)) {
    tasks_rejected_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  tasks_pushed_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool AssignmentService::ReportLocation(uint32_t worker,
                                       geo::Point exact_location,
                                       geo::Point noisy_location) {
  // Registration precedes Start, so the worker count is fixed here.
  if (worker >= workers_.size() || !Finite(exact_location) ||
      !Finite(noisy_location)) {
    reports_invalid_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  ServiceEvent ev;
  ev.kind = ServiceEvent::Kind::kReport;
  ev.worker = worker;
  ev.exact = exact_location;
  ev.noisy = noisy_location;
  ev.submit_ns = NowNs();
  if (!queue_.TryPush(ev)) {
    reports_rejected_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  reports_pushed_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void AssignmentService::Stop(StopMode mode) {
  if (!started_ || stopped_) return;
  stopped_ = true;
  const auto drain_start = Clock::now();
  if (mode == StopMode::kAbandon) {
    abandon_.store(true, std::memory_order_release);
  } else {
    draining_.store(true, std::memory_order_release);
  }
  consumer_.join();
  const auto drain_end = Clock::now();
  drain_seconds_ =
      std::chrono::duration<double>(drain_end - drain_start).count();
  if (mode == StopMode::kDrain) {
    static const obs::SpanSite kDrainSite("service.drain");
    obs::RecordSpan(kDrainSite, drain_start, drain_end);
  }
}

void AssignmentService::Replay(const std::vector<ServiceEvent>& log) {
  SCGUARD_CHECK(!started_ && !stopped_);
  stopped_ = true;  // Results become readable; Start is now invalid.
  Setup();
  const auto start = Clock::now();
  for (const ServiceEvent& ev : log) {
    log_.push_back(ev);
    if (ev.kind == ServiceEvent::Kind::kReport) {
      ApplyReport(ev);
    } else {
      ScanTask(ev);
    }
  }
  result_.metrics.total_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  FinalizeMetrics();
}

IngestStats AssignmentService::ingest_stats() const {
  IngestStats s;
  s.tasks_submitted = tasks_pushed_.load(std::memory_order_relaxed);
  s.reports_submitted = reports_pushed_.load(std::memory_order_relaxed);
  s.tasks_rejected = tasks_rejected_.load(std::memory_order_relaxed);
  s.reports_rejected = reports_rejected_.load(std::memory_order_relaxed);
  s.tasks_invalid = tasks_invalid_.load(std::memory_order_relaxed);
  s.reports_invalid = reports_invalid_.load(std::memory_order_relaxed);
  s.workers_invalid = workers_invalid_.load(std::memory_order_relaxed);
  s.epochs = static_cast<int64_t>(epoch_.load(std::memory_order_acquire));
  return s;
}

void AssignmentService::ConsumerLoop() {
  static const obs::SpanSite kApplySite("service.apply");
  static const obs::SpanSite kScanSite("service.scan");
  const bool obs_on = obs::Enabled();
  const ServiceObs& so = ServiceObs::Get();
  runtime::IdleBackoff backoff;
  std::vector<ServiceEvent> batch_tasks;
  batch_tasks.reserve(static_cast<size_t>(config_.max_batch));
  const auto loop_start = Clock::now();

  for (;;) {
    ServiceEvent ev;
    if (!queue_.TryPop(ev)) {
      if (abandon_.load(std::memory_order_acquire) ||
          draining_.load(std::memory_order_acquire)) {
        break;
      }
      backoff.Pause();
      continue;
    }
    backoff.Reset();

    // ---- Apply phase: drain a bounded batch ------------------------
    // Reports mutate the stage state in pop order (incremental Relocate +
    // reactivation); tasks are set aside and scanned after the epoch
    // bump, so every task in a batch sees the same snapshot.
    batch_tasks.clear();
    {
      const obs::Span apply_span(kApplySite);
      size_t popped = 0;
      do {
        ++popped;
        if (ev.kind == ServiceEvent::Kind::kReport) {
          log_.push_back(ev);
          ApplyReport(ev);
        } else {
          batch_tasks.push_back(ev);
        }
      } while (popped < static_cast<size_t>(config_.max_batch) &&
               queue_.TryPop(ev));
      events_applied_.fetch_add(static_cast<int64_t>(popped),
                                std::memory_order_relaxed);

      // ---- Publish: one epoch per batch ----------------------------
      epoch_.fetch_add(1, std::memory_order_release);
      ++epochs_published_;
      if (obs_on) {
        so.queue_depth->Set(static_cast<double>(queue_.ApproxDepth()));
        const int64_t pushed =
            tasks_pushed_.load(std::memory_order_relaxed) +
            reports_pushed_.load(std::memory_order_relaxed);
        so.epoch_lag->Set(static_cast<double>(
            pushed - events_applied_.load(std::memory_order_relaxed)));
      }
    }

    // ---- Scan phase: tasks pinned at the new epoch -----------------
    for (const ServiceEvent& task_ev : batch_tasks) {
      const obs::Span scan_span(kScanSite);
      log_.push_back(task_ev);
      ScanTask(task_ev);
      if (obs_on && !completions_.empty()) {
        const CompletionRecord& done = completions_.back();
        so.admission_to_assignment->Observe(
            static_cast<double>(done.done_ns - done.submit_ns) * 1e-9);
      }
    }

    if (abandon_.load(std::memory_order_acquire)) break;
  }

  result_.metrics.total_seconds =
      std::chrono::duration<double>(Clock::now() - loop_start).count();
  FinalizeMetrics();
}

void AssignmentService::ApplyReport(const ServiceEvent& ev) {
  assign::Worker& w = workers_[ev.worker];
  w.location = ev.exact;
  w.noisy_location = ev.noisy;
  // Order matters: the relocate updates the pruner's stored region first,
  // so a matched worker's Restore (inside MarkAvailable) re-inserts at the
  // *new* noisy location.
  assign::U2uCandidateStage& u2u = pipeline_.u2u();
  u2u.UpdateWorkerLocation(ev.worker, ev.noisy);
  if (config_.reactivate_on_report) u2u.MarkAvailable(ev.worker);
  ++reports_applied_;
}

void AssignmentService::ScanTask(const ServiceEvent& ev) {
  CompletionRecord done;
  done.task_id = ev.task_id;
  done.submit_ns = ev.submit_ns;
  done.epoch = epoch_.load(std::memory_order_relaxed);
  const assign::TaskOutcome outcome = pipeline_.Execute(
      {.id = ev.task_id, .location = ev.exact, .noisy_location = ev.noisy},
      result_);
  done.worker_id = outcome.worker_id;
  done.travel_m = outcome.travel_m;
  done.done_ns = NowNs();
  completions_.push_back(done);
}

void AssignmentService::FinalizeMetrics() {
  if (finalized_) return;
  finalized_ = true;
  pipeline_.Finish(result_.metrics);

  // One flush per ingest counter; the per-task stage counters are the
  // pipeline's scguard.engine.* set.
  const ServiceObs& so = ServiceObs::Get();
  so.tasks->Increment(result_.metrics.num_tasks);
  so.reports->Increment(reports_applied_);
  so.tasks_rejected->Increment(
      tasks_rejected_.load(std::memory_order_relaxed));
  so.reports_rejected->Increment(
      reports_rejected_.load(std::memory_order_relaxed));
  so.tasks_invalid->Increment(tasks_invalid_.load(std::memory_order_relaxed));
  so.reports_invalid->Increment(
      reports_invalid_.load(std::memory_order_relaxed));
  so.workers_invalid->Increment(
      workers_invalid_.load(std::memory_order_relaxed));
  so.epochs->Increment(epochs_published_);
}

}  // namespace scguard::service
