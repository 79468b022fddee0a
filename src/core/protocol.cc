#include "core/protocol.h"

#include <utility>

#include "assign/stages/contact_stage.h"
#include "assign/stages/rank_stage.h"
#include "common/check.h"

namespace scguard::core {

// ---------------------------------------------------------------- Worker

WorkerDevice::WorkerDevice(int64_t id, geo::Point true_location,
                           double reach_radius_m,
                           const privacy::PrivacyParams& params)
    : id_(id),
      true_location_(true_location),
      reach_radius_m_(reach_radius_m),
      params_(params),
      mechanism_(privacy::MakeMechanismOrDie(params)) {
  SCGUARD_CHECK(reach_radius_m > 0.0);
}

WorkerRegistration WorkerDevice::Register(stats::Rng& rng) {
  return {id_, mechanism_->Perturb(true_location_, rng), reach_radius_m_};
}

bool WorkerDevice::HandleTaskOffer(geo::Point exact_task_location) const {
  return geo::Distance(true_location_, exact_task_location) <= reach_radius_m_;
}

// ------------------------------------------------------------- Requester

RequesterDevice::RequesterDevice(int64_t task_id, geo::Point true_task_location,
                                 const privacy::PrivacyParams& params)
    : task_id_(task_id),
      true_task_location_(true_task_location),
      params_(params),
      mechanism_(privacy::MakeMechanismOrDie(params)) {}

TaskRequest RequesterDevice::Submit(stats::Rng& rng) {
  return {task_id_, mechanism_->Perturb(true_task_location_, rng)};
}

std::vector<CandidateWorker> RequesterDevice::RankCandidates(
    const std::vector<CandidateWorker>& candidates,
    const reachability::ReachabilityModel& model, double beta) const {
  // One batched model call scores the whole candidate list (bit-identical
  // to per-candidate ProbReachable, see kernel_test); the scratch lives on
  // the device so back-to-back rankings reuse it instead of reallocating
  // per task.
  const size_t n = candidates.size();
  distance_.resize(n);
  radius_.resize(n);
  prob_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    distance_[i] =
        geo::Distance(candidates[i].noisy_location, true_task_location_);
    radius_[i] = candidates[i].reach_radius_m;
  }
  model.ProbReachableBatch(reachability::Stage::kU2E, distance_.data(),
                           radius_.data(), n, prob_.data());
  scored_.clear();
  scored_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (prob_[i] < beta) continue;  // Below the disclosure threshold.
    scored_.emplace_back(prob_[i], &candidates[i]);
  }
  assign::SortRankedCandidates(
      scored_, [](const CandidateWorker* c) { return c->worker_id; });
  std::vector<CandidateWorker> plan;
  plan.reserve(scored_.size());
  for (const auto& [score, c] : scored_) plan.push_back(*c);
  return plan;
}

// ---------------------------------------------------------------- Server

namespace {

assign::U2uCandidateStage MakeServerStage(
    const reachability::ReachabilityModel* model, double alpha) {
  assign::U2uCandidateStage::Config config;
  config.model = model;
  config.alpha = alpha;
  return assign::U2uCandidateStage(std::move(config));
}

}  // namespace

TaskingServer::TaskingServer(const reachability::ReachabilityModel* model,
                             double alpha)
    : stage_(MakeServerStage(model, alpha)) {}

void TaskingServer::RegisterWorker(const WorkerRegistration& registration) {
  workers_.push_back(registration);
  stage_.AddWorker(registration.noisy_location, registration.reach_radius_m);
}

std::vector<CandidateWorker> TaskingServer::FindCandidates(
    const TaskRequest& request) const {
  // The stage emits ascending worker indices of the still-available
  // candidates — the same order the per-registration scan produced.
  const std::vector<uint32_t>& indices =
      stage_.Collect(request.noisy_location);
  std::vector<CandidateWorker> candidates;
  candidates.reserve(indices.size());
  for (const uint32_t i : indices) {
    const WorkerRegistration& w = workers_[i];
    candidates.push_back({w.worker_id, w.noisy_location, w.reach_radius_m});
  }
  return candidates;
}

void TaskingServer::MarkAssigned(int64_t worker_id) {
  for (size_t i = 0; i < workers_.size(); ++i) {
    if (workers_[i].worker_id == worker_id) {
      stage_.MarkMatched(static_cast<uint32_t>(i));
      return;
    }
  }
  SCGUARD_CHECK(false && "unknown worker id");
}

size_t TaskingServer::available_workers() const { return stage_.available(); }

// ----------------------------------------------------------- Coordinator

ProtocolCoordinator::ProtocolCoordinator(
    TaskingServer* server, const reachability::ReachabilityModel* u2e_model,
    double beta)
    : server_(server), u2e_model_(u2e_model), beta_(beta) {
  SCGUARD_CHECK(server != nullptr && u2e_model != nullptr);
  SCGUARD_CHECK(beta >= 0.0 && beta <= 1.0);
}

TaskOutcome ProtocolCoordinator::AssignTask(
    const RequesterDevice& requester, const TaskRequest& request,
    const std::vector<WorkerDevice>& workers) {
  TaskOutcome outcome;
  outcome.task_id = requester.task_id();
  trace_.task_requests += 1;

  // U2U on the server over perturbed data only.
  const std::vector<CandidateWorker> candidates =
      server_->FindCandidates(request);
  trace_.candidate_lists_sent += 1;
  outcome.candidates = static_cast<int64_t>(candidates.size());
  if (candidates.empty()) return outcome;

  // U2E on the requester's device (exact task location never leaves it
  // until the targeted disclosure below).
  const std::vector<CandidateWorker> plan =
      requester.RankCandidates(candidates, *u2e_model_, beta_);

  // E2E: disclose the task location to one worker at a time. The plan is
  // already beta-filtered and ordered, and its scores stay on the device,
  // so the shared contact walk runs gate-free over (0.0, worker id) pairs
  // and this adapter only routes offers to the devices.
  std::vector<std::pair<double, int64_t>> order;
  order.reserve(plan.size());
  for (const CandidateWorker& c : plan) order.emplace_back(0.0, c.worker_id);
  const assign::E2eContactStage contact(
      {.rank = assign::RankStrategy::kProbability, .beta = 0.0,
       .beta_mode = assign::BetaMode::kEveryContact, .redundancy_k = 1});
  const assign::E2eContactStage::Outcome o = contact.Contact(
      order,
      [&](int64_t worker_id) {
        SCGUARD_CHECK(worker_id >= 0 &&
                      static_cast<size_t>(worker_id) < workers.size());
        const WorkerDevice& device = workers[static_cast<size_t>(worker_id)];
        if (!device.HandleTaskOffer(requester.exact_task_location())) {
          return false;
        }
        server_->MarkAssigned(worker_id);
        outcome.assigned_worker = worker_id;
        return true;
      },
      requester.task_id(), assign::UnknownAdmitFilter{});
  trace_.task_location_disclosures += o.disclosures;
  trace_.rejections += o.false_hits;
  outcome.disclosures = o.disclosures;
  return outcome;
}

}  // namespace scguard::core
