#ifndef SCGUARD_SERVICE_SERVICE_H_
#define SCGUARD_SERVICE_SERVICE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <optional>
#include <thread>
#include <vector>

#include "assign/entities.h"
#include "assign/matcher.h"
#include "assign/task_pipeline.h"
#include "geo/bbox.h"
#include "geo/point.h"
#include "service/mpsc_queue.h"
#include "stats/rng.h"

namespace scguard::service {

/// One admitted ingest event. The service's admission log is the ordered
/// sequence of these it executed; replaying the log serially through
/// Replay() reproduces the run's assignments bit-identically (DESIGN.md
/// section 14).
struct ServiceEvent {
  enum class Kind : uint8_t { kTask, kReport };
  Kind kind = Kind::kTask;
  uint32_t worker = 0;   ///< kReport only.
  int64_t task_id = 0;   ///< kTask only.
  geo::Point exact;      ///< Task location / worker's new true location.
  geo::Point noisy;      ///< Geo-I perturbed counterpart.
  uint64_t submit_ns = 0;  ///< steady_clock at enqueue (latency accounting).
};
// The ingest ring's slot is the event plus an 8-byte sequence word, aligned
// to 64 bytes: at <= 56 bytes an event keeps it one cache line, and every
// service's ring (queue_capacity slots, touched up front) half the size it
// would be at 64.
static_assert(sizeof(ServiceEvent) + sizeof(uint64_t) <= 64,
              "ServiceEvent must leave its ring slot one cache line");

/// How a task's service ended.
struct CompletionRecord {
  int64_t task_id = 0;
  int64_t worker_id = -1;  ///< First accepting worker; -1 when unassigned.
  double travel_m = 0.0;
  uint64_t submit_ns = 0;
  uint64_t done_ns = 0;  ///< End of the task's E2E stage.
  uint64_t epoch = 0;    ///< Snapshot epoch the scan was pinned to.
};

/// Producer-visible ingest accounting (monotonic; readable at any time).
struct IngestStats {
  int64_t tasks_submitted = 0;
  int64_t reports_submitted = 0;
  int64_t tasks_rejected = 0;    ///< TryPush refused: queue full.
  int64_t reports_rejected = 0;
  int64_t tasks_invalid = 0;     ///< Refused: non-finite coordinate.
  int64_t reports_invalid = 0;   ///< Refused: unknown worker / non-finite.
  int64_t workers_invalid = 0;   ///< Registrations refused (RegisterWorker).
  int64_t epochs = 0;            ///< Snapshot publications so far.
};

/// The protocol fields (assign::ProtocolPolicy, shared with
/// assign::EnginePolicy) plus the service's deployment and ingest knobs,
/// so a service configured with an EnginePolicy's protocol fields runs the
/// identical per-task pipeline.
struct ServiceConfig : assign::ProtocolPolicy {
  /// Deployment region (sizes the pruning grid).
  geo::BoundingBox region;

  /// Ingest ring capacity (rounded up to a power of two). When full,
  /// SubmitTask / ReportLocation return false — backpressure, never a
  /// block or a drop of an admitted event.
  size_t queue_capacity = 1 << 16;
  /// Events drained per apply phase before an epoch is published. Bounds
  /// staleness under report floods without starving the scan loop.
  int max_batch = 256;
  /// A matched worker that re-reports becomes available again (it finished
  /// or abandoned its task and moved). Off keeps MarkMatched permanent,
  /// matching the one-shot engine semantics.
  bool reactivate_on_report = true;
  /// Seed of the per-worker random ranking priorities: drawn one per
  /// RegisterWorker in registration order, so a service over workers
  /// [0, n) draws the same sequence as ScGuardEngine::Run with
  /// stats::Rng(rank_seed).
  uint64_t rank_seed = 42;
};

/// Persistent assignment service around the stage library: any number of
/// producer threads push worker re-reports and task submissions into a
/// lock-free bounded ring (MpscQueue); a single consumer thread alternates
/// an apply phase (drain up to max_batch events, mutate the U2U stage's
/// grid rows through the incremental Relocate/MarkAvailable paths,
/// publish a new epoch) with a scan phase (run each drained task
/// through the assign::TaskPipeline that ScGuardEngine::Run also uses,
/// pinned to the just-published epoch).
///
/// Determinism: concurrency only decides the admission *order*; execution
/// is serial in the consumer, and every executed event is appended to the
/// admission log in execution order. Replay() of that log on a fresh,
/// identically-configured service is the same code over the same sequence
/// of states — bit-identical assignments by construction (tested in
/// tests/service_test.cc).
///
/// Thread contract: RegisterWorker before Start; SubmitTask /
/// ReportLocation from any threads between Start and Stop; results
/// (completions, metrics, admission_log, assignments) only after Stop
/// returns. epoch() and ingest_stats() are safe at any time.
class AssignmentService {
 public:
  enum class StopMode {
    kDrain,    ///< Finish everything already admitted, then exit.
    kAbandon,  ///< Exit after the current batch; queued events are dropped.
  };

  explicit AssignmentService(ServiceConfig config);
  ~AssignmentService();

  AssignmentService(const AssignmentService&) = delete;
  AssignmentService& operator=(const AssignmentService&) = delete;

  /// RegisterWorker's answer for a refused registration.
  static constexpr uint32_t kInvalidWorker =
      std::numeric_limits<uint32_t>::max();

  /// Registers a worker (dense ids, registration order) and draws its
  /// random ranking priority. Must precede Start. A worker with a
  /// non-finite exact or noisy location, or a reach radius that is NaN,
  /// infinite or <= 0, is refused: it gets no id and no priority draw, the
  /// call returns kInvalidWorker, and IngestStats::workers_invalid counts
  /// it.
  uint32_t RegisterWorker(const assign::Worker& w);

  /// Builds the stage state (certain bands, pruning index) and
  /// launches the consumer thread. RunMetrics::setup_seconds and the
  /// `assign.setup` span cover the first RegisterWorker through this
  /// build.
  void Start();

  /// Producers. Return false when the event is not admitted: the ring is
  /// full, or the event is invalid (a non-finite coordinate, or a report
  /// for an unregistered worker). Each refusal is counted in IngestStats.
  bool SubmitTask(const assign::Task& t);
  bool ReportLocation(uint32_t worker, geo::Point exact_location,
                      geo::Point noisy_location);

  /// Joins the consumer. kDrain requires producers to have stopped first
  /// (nothing new may be pushed while draining). Idempotent.
  void Stop(StopMode mode = StopMode::kDrain);

  /// Serial replay of an admission log on a not-yet-started service:
  /// executes the same ApplyReport / ScanTask helpers in log order on the
  /// consumer-free path. Mutually exclusive with Start on one instance.
  void Replay(const std::vector<ServiceEvent>& log);

  /// Results; valid after Stop (or Replay) returns.
  const std::vector<CompletionRecord>& completions() const {
    return completions_;
  }
  const std::vector<ServiceEvent>& admission_log() const { return log_; }
  const std::vector<assign::Assignment>& assignments() const {
    return result_.assignments;
  }
  const assign::RunMetrics& metrics() const { return result_.metrics; }
  /// Wall-clock Stop(kDrain) spent finishing the backlog.
  double drain_seconds() const { return drain_seconds_; }

  /// Safe at any time.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }
  IngestStats ingest_stats() const;
  size_t queue_capacity() const { return queue_.capacity(); }

 private:
  void ConsumerLoop();
  void ApplyReport(const ServiceEvent& ev);
  void ScanTask(const ServiceEvent& ev);
  /// The pipeline's end-of-run fold + the ingest counters; idempotent.
  void FinalizeMetrics();
  /// Prepares the pipeline and records the setup window (the first
  /// RegisterWorker through Prepare) as RunMetrics::setup_seconds and an
  /// `assign.setup` span.
  void Setup();

  ServiceConfig config_;
  MpscQueue<ServiceEvent> queue_;
  stats::Rng rank_rng_;

  // Ground truth the E2E stage consults (exact locations); consumer-owned
  // after Start. Declared before the pipeline, which refers to it.
  std::vector<assign::Worker> workers_;
  assign::TaskPipeline pipeline_;  // Consumer-owned after Start.

  // Consumer-owned results.
  std::vector<ServiceEvent> log_;
  std::vector<CompletionRecord> completions_;
  assign::MatchResult result_;
  int64_t reports_applied_ = 0;
  int64_t epochs_published_ = 0;
  bool finalized_ = false;

  // Cross-thread state.
  std::atomic<uint64_t> epoch_{0};
  std::atomic<int64_t> tasks_pushed_{0};
  std::atomic<int64_t> reports_pushed_{0};
  std::atomic<int64_t> tasks_rejected_{0};
  std::atomic<int64_t> reports_rejected_{0};
  std::atomic<int64_t> tasks_invalid_{0};
  std::atomic<int64_t> reports_invalid_{0};
  std::atomic<int64_t> workers_invalid_{0};
  std::atomic<int64_t> events_applied_{0};
  std::atomic<bool> draining_{false};
  std::atomic<bool> abandon_{false};

  /// First RegisterWorker (or the Setup call when none came first).
  std::optional<std::chrono::steady_clock::time_point> setup_start_;
  std::thread consumer_;
  bool started_ = false;
  bool stopped_ = false;
  double drain_seconds_ = 0.0;
};

}  // namespace scguard::service

#endif  // SCGUARD_SERVICE_SERVICE_H_
