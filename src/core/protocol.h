#ifndef SCGUARD_CORE_PROTOCOL_H_
#define SCGUARD_CORE_PROTOCOL_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "assign/stages/candidate_stage.h"
#include "geo/point.h"
#include "privacy/mechanism.h"
#include "privacy/privacy_params.h"
#include "reachability/model.h"
#include "stats/rng.h"

namespace scguard::core {

/// What a worker's device sends to the server when registering: only the
/// Geo-I perturbed location and the reach radius ever leave the device.
struct WorkerRegistration {
  int64_t worker_id = 0;
  geo::Point noisy_location;
  double reach_radius_m = 0.0;
};

/// What a requester's device sends to the server for a new task.
struct TaskRequest {
  int64_t task_id = 0;
  geo::Point noisy_location;
};

/// What the server forwards back to the requester for each candidate.
struct CandidateWorker {
  int64_t worker_id = 0;
  geo::Point noisy_location;
  double reach_radius_m = 0.0;
};

/// A worker's device: holds the true location privately; exposes only the
/// perturbed registration (U2U input) and the E2E accept/reject decision.
class WorkerDevice {
 public:
  WorkerDevice(int64_t id, geo::Point true_location, double reach_radius_m,
               const privacy::PrivacyParams& params);

  /// Perturbs the location (consuming the device's Geo-I budget once) and
  /// returns the registration message for the server.
  WorkerRegistration Register(stats::Rng& rng);

  /// E2E stage: the requester disclosed the exact task location; accept
  /// iff it lies within this worker's spatial region.
  bool HandleTaskOffer(geo::Point exact_task_location) const;

  int64_t id() const { return id_; }
  double reach_radius_m() const { return reach_radius_m_; }
  const privacy::PrivacyParams& params() const { return params_; }

  /// Test/metrics support only — a real deployment never exports this.
  geo::Point true_location_for_testing() const { return true_location_; }

 private:
  int64_t id_;
  geo::Point true_location_;
  double reach_radius_m_;
  privacy::PrivacyParams params_;
  /// The device's obfuscation mechanism, built once from the params' spec
  /// (grid kinds need spec.region pinned — a device has no ambient region).
  /// shared_ptr keeps the device copyable for vector storage.
  std::shared_ptr<const privacy::Mechanism> mechanism_;
};

/// A requester's device: owns one task, perturbs its location for the
/// server, and runs the U2E ranking locally over the candidate list.
class RequesterDevice {
 public:
  RequesterDevice(int64_t task_id, geo::Point true_task_location,
                  const privacy::PrivacyParams& params);

  /// Perturbs the task location and returns the submission message.
  TaskRequest Submit(stats::Rng& rng);

  /// U2E stage: orders `candidates` by reachability (scored by `model`
  /// against the *exact* task location, which only this device knows),
  /// dropping those below `beta`. The returned order is the contact plan;
  /// the coordinator discloses the task location to one worker at a time.
  std::vector<CandidateWorker> RankCandidates(
      const std::vector<CandidateWorker>& candidates,
      const reachability::ReachabilityModel& model, double beta) const;

  int64_t task_id() const { return task_id_; }
  geo::Point exact_task_location() const { return true_task_location_; }

 private:
  int64_t task_id_;
  geo::Point true_task_location_;
  privacy::PrivacyParams params_;
  /// See WorkerDevice::mechanism_.
  std::shared_ptr<const privacy::Mechanism> mechanism_;
  /// Ranking scratch, reused across RankCandidates calls so the per-task
  /// hot path stops allocating once capacities settle. Mutable because
  /// ranking is logically const (the device's observable state — task id,
  /// location, budget — never changes).
  mutable std::vector<double> distance_, radius_, prob_;
  mutable std::vector<std::pair<double, const CandidateWorker*>> scored_;
};

/// The untrusted SC server: sees only registrations and task requests
/// (perturbed data), performs the U2U candidate search, and tracks worker
/// availability. By construction it never holds an exact location. A thin
/// party adapter over assign::U2uCandidateStage (DESIGN.md section 10):
/// the message framing lives here, the filter itself is the shared stage.
class TaskingServer {
 public:
  /// `alpha` is the U2U threshold applied to `model` probabilities,
  /// decided exactly through the shared stage's certain bands (kernel.h).
  TaskingServer(const reachability::ReachabilityModel* model, double alpha);

  void RegisterWorker(const WorkerRegistration& registration);

  /// U2U stage: candidate workers for the request among those still
  /// available.
  std::vector<CandidateWorker> FindCandidates(const TaskRequest& request) const;

  /// Called when a worker accepted a task (it leaves the pool).
  void MarkAssigned(int64_t worker_id);

  size_t available_workers() const;

 private:
  /// Registration messages in arrival order; stage worker indices equal
  /// positions here (the stage registers them in the same order).
  std::vector<WorkerRegistration> workers_;
  /// The server object models a single logical party and is not called
  /// concurrently, so a mutable stage behind the const query keeps the
  /// message-level API unchanged (the stage memoizes thresholds and scan
  /// state on first use, as the lazy threshold cache did before it).
  mutable assign::U2uCandidateStage stage_;
};

/// Message counters of one protocol execution.
struct ProtocolTrace {
  int64_t worker_registrations = 0;
  int64_t task_requests = 0;
  int64_t candidate_lists_sent = 0;    ///< Server -> requester.
  int64_t task_location_disclosures = 0;  ///< Requester -> worker (E2E).
  int64_t rejections = 0;              ///< False hits.
};

/// Outcome of assigning one task through the full three-stage protocol.
struct TaskOutcome {
  int64_t task_id = 0;
  std::optional<int64_t> assigned_worker;
  int64_t candidates = 0;
  int64_t disclosures = 0;
};

/// Drives the three-stage protocol end to end for a fleet of worker
/// devices and a stream of requester devices. This is the reference
/// implementation of SCGuard's dataflow (Fig. 2); assign::ScGuardEngine is
/// its batch-vectorized equivalent used by the experiment harness (an
/// integration test pins them to identical outputs).
class ProtocolCoordinator {
 public:
  /// Neither pointer is owned. `u2e_model` scores the requester-side
  /// ranking; `beta` cancels tasks whose best candidate scores below it.
  ProtocolCoordinator(TaskingServer* server,
                      const reachability::ReachabilityModel* u2e_model,
                      double beta);

  /// Runs stages U2U -> U2E -> E2E for one task. `request` must be the
  /// message `requester` produced via Submit; `workers` must contain every
  /// registered device with worker ids equal to their index.
  TaskOutcome AssignTask(const RequesterDevice& requester,
                         const TaskRequest& request,
                         const std::vector<WorkerDevice>& workers);

  const ProtocolTrace& trace() const { return trace_; }

 private:
  TaskingServer* server_;
  const reachability::ReachabilityModel* u2e_model_;
  double beta_;
  ProtocolTrace trace_;
};

}  // namespace scguard::core

#endif  // SCGUARD_CORE_PROTOCOL_H_
