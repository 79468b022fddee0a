#include "assign/task_pipeline.h"

#include <chrono>
#include <string>
#include <utility>

#include "common/check.h"
#include "geo/point.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/span.h"

namespace scguard::assign {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

U2uCandidateStage::Config U2uConfig(const ProtocolPolicy& policy,
                                    const geo::BoundingBox& region) {
  SCGUARD_CHECK(policy.u2u_model != nullptr);
  if (policy.rank == RankStrategy::kProbability) {
    SCGUARD_CHECK(policy.u2e_model != nullptr);
  }
  SCGUARD_CHECK(policy.alpha > 0.0 && policy.alpha <= 1.0);
  SCGUARD_CHECK(policy.beta >= 0.0 && policy.beta <= 1.0);
  SCGUARD_CHECK(policy.redundancy_k >= 1);
  SCGUARD_CHECK(policy.runtime.shard_size >= 1);
  U2uCandidateStage::Config config;
  config.model = policy.u2u_model;
  config.alpha = policy.alpha;
  config.kernel = policy.kernel;
  config.runtime = policy.runtime;
  if (policy.pruning_gamma.has_value()) {
    config.pruning = U2uCandidateStage::Pruning{
        *policy.pruning_gamma, policy.pruning_backend, policy.worker_params,
        policy.task_params, region};
  }
  return config;
}

}  // namespace

TaskPipeline::TaskPipeline(const ProtocolPolicy& policy,
                           const geo::BoundingBox& region,
                           const std::vector<Worker>& workers)
    : workers_(workers),
      u2u_(U2uConfig(policy, region)),
      u2e_({.model = policy.u2e_model, .rank = policy.rank,
            .kernel = policy.kernel,
            .audit_epsilon = policy.worker_params.epsilon}),
      e2e_({.rank = policy.rank, .beta = policy.beta,
            .beta_mode = policy.beta_mode,
            .redundancy_k = policy.redundancy_k}) {}

void TaskPipeline::ReserveWorkers(size_t n) {
  u2u_.ReserveWorkers(n);
  random_rank_.reserve(n);
}

uint32_t TaskPipeline::AddWorker(const Worker& w, stats::Rng& rank_rng) {
  random_rank_.push_back(rank_rng.UniformDouble());
  return u2u_.AddWorker(w.noisy_location, w.reach_radius_m);
}

void TaskPipeline::Prepare() { u2u_.Prepare(); }

TaskOutcome TaskPipeline::Execute(const Task& task, MatchResult& result,
                                  bool count_reachable) {
  RunMetrics& m = result.metrics;
  m.num_tasks += 1;
  TaskOutcome outcome;

  // ---- Stage 1: U2U (server) ---------------------------------------
  // Server sees only noisy locations and the workers' reach radii.
  const auto u2u_start = Clock::now();
  const CandidateRuns& candidates = u2u_.CollectRuns(task.noisy_location);
  const auto count = static_cast<int64_t>(candidates.size);
  const U2uCandidateStage::Stats& scan = u2u_.stats();
  evaluated_ += scan.scanned_last;
  pruned_ += scan.pruned_last;
  alpha_rejections_ += scan.scanned_last - count;
  m.u2u_scanned += scan.scanned_last;
  if (m.num_tasks == 1) m.u2u_scanned_first_task = scan.scanned_last;
  m.u2u_scanned_last_task = scan.scanned_last;
  {
    // One end-of-stage clock read serves RunMetrics and the span, so
    // observing adds no clock cost.
    static const obs::SpanSite kU2uSite("engine.u2u");
    static obs::Histogram* const kScanWorkers =
        obs::MetricsRegistry::Global().GetHistogram(
            "scguard.engine.u2u_scan_workers");
    const auto u2u_end = Clock::now();
    m.u2u_seconds += Seconds(u2u_start, u2u_end);
    obs::RecordSpan(kU2uSite, u2u_start, u2u_end);
    kScanWorkers->Observe(static_cast<double>(scan.scanned_last));
  }
  m.candidates_sum += count;
  m.server_to_requester_msgs += 1;
  outcome.candidates = count;
  if (count_reachable) {
    candidates.ForEach([&](uint32_t i) {
      if (workers_[i].CanReach(task.location)) ++outcome.candidates_reachable;
    });
  }
  if (count == 0) return outcome;  // Task remains unassigned.

  // ---- Stage 2: U2E (requester) ------------------------------------
  // Requester knows the exact task location and the candidates' noisy
  // locations; ranks them best-first. The cursor certifies the first
  // contact here and scores later ones only as E2E asks for them.
  const reachability::WorkerFilterSoA& soa = u2u_.soa();
  const auto u2e_start = Clock::now();
  U2eRankCursor& ranking = u2e_.Open(soa, candidates, task.location,
                                     random_rank_.data(), task.id);
  {
    static const obs::SpanSite kU2eSite("engine.u2e");
    const auto u2e_end = Clock::now();
    m.u2e_seconds += Seconds(u2e_start, u2e_end);
    obs::RecordSpan(kU2eSite, u2e_start, u2e_end);
  }

  // ---- Stage 3: E2E (workers), interleaved with U2E re-ranking ------
  // RunMetrics keeps no E2E time, so only an observer pays these reads.
  static const obs::SpanSite kE2eSite("engine.e2e");
  const bool timed = obs::Enabled() || obs::RecorderEnabled();
  Clock::time_point e2e_start;
  if (timed) e2e_start = Clock::now();
  accepted_.clear();
  const auto offer = [&](size_t i) {
    const Worker& w = workers_[i];
    if (!w.CanReach(task.location)) return false;
    accepted_.push_back(static_cast<uint32_t>(i));
    const double travel = geo::Distance(w.location, task.location);
    result.assignments.push_back({task.id, w.id, travel});
    m.accepted_assignments += 1;
    m.travel_sum_m += travel;
    if (outcome.worker_id < 0) {
      outcome.worker_id = w.id;
      outcome.travel_m = travel;
    }
    return true;
  };
  const auto can_reach = [&](size_t i) {
    return workers_[i].CanReach(task.location);
  };
  // Audit attribution of each disclosure's admitting U2U filter: a
  // candidate inside the certain-accept band was admitted without a model
  // evaluation; one from the uncertain band was a direct eval.
  const auto admit_filter = [&](size_t i) {
    const double dx = soa.x[i] - task.noisy_location.x;
    const double dy = soa.y[i] - task.noisy_location.y;
    return dx * dx + dy * dy <= soa.accept_below_sq[i]
               ? obs::AuditFilter::kAlphaBandAccept
               : obs::AuditFilter::kDirectEval;
  };
  E2eContactStage::Outcome contact;
  if (obs::RecorderEnabled() && obs::AuditFullEnabled()) {
    // Full audit logs every candidate's score, so drain the whole ranking.
    ranked_.clear();
    for (U2eRankCursor::Entry entry; ranking.Next(entry);) {
      obs::AuditU2eCandidate(task.id, static_cast<int64_t>(entry.second),
                             entry.first);
      ranked_.push_back(entry);
    }
    contact = e2e_.Run(ranked_, offer, can_reach, m, task.id, admit_filter);
  } else {
    contact = e2e_.Run(ranking, offer, can_reach, m, task.id, admit_filter);
  }
  // The groups name grid rows and are valid only until the stage
  // mutates, so acceptances are marked matched once the walk is over (an
  // erase shifts only the rows of the accepted worker's own cell, whose
  // group the cursor has opened, but the contract does not promise that).
  // Nothing in the walk reads availability: the cursor never re-emits an
  // id, and can_reach reads only workers_.
  for (const uint32_t i : accepted_) u2u_.MarkMatched(i);
  outcome.cancelled = contact.cancelled;
  if (contact.cancelled) ++beta_cancels_;
  if (timed) obs::RecordSpan(kE2eSite, e2e_start, Clock::now());
  return outcome;
}

void TaskPipeline::Finish(RunMetrics& m) const {
  m.num_workers = static_cast<int64_t>(u2u_.size());
  // Cell-certification accounting of a grid-backed pruner, cumulative over
  // the run's queries (the pruner lives as long as the pipeline, so the
  // final snapshot is the run total).
  if (const index::GridIndex::QueryStats* gs = u2u_.grid_query_stats()) {
    m.cells_bulk_accepted = gs->cells_bulk_accepted;
    m.cells_skipped = gs->cells_skipped;
    m.boundary_workers = gs->boundary_workers;
    m.cells_clipped = gs->cells_clipped;
  }
  // Scoring-side traffic accounting, cumulative over the stage's life like
  // the certification counters above.
  m.u2u_gather_bytes = u2u_.stats().gather_bytes;
  m.cells_emitted_direct = u2u_.stats().cells_emitted_direct;
  m.grid_rebuilds = u2u_.grid_rebuilds();

  // One atomic flush per counter per run (resolved per run, not per
  // update); no-ops while disabled.
  const std::pair<const char*, int64_t> counts[] = {
      {"tasks", m.num_tasks},
      {"assigned_tasks", m.assigned_tasks},
      {"assignments", m.accepted_assignments},
      {"candidates", m.candidates_sum},
      {"u2e_evals", u2e_.exact_evals()},
      {"u2e_cells_expanded", u2e_.cells_expanded()},
      {"workers_evaluated", evaluated_},
      {"workers_pruned", pruned_},
      {"alpha_rejections", alpha_rejections_},
      {"beta_cancels", beta_cancels_},
      {"disclosures", m.requester_to_worker_msgs},
      {"false_hits", m.false_hits},
      {"false_dismissals", m.false_dismissals},
      {"u2u_band_evals", u2u_.band_evals()},
      {"u2u_rows_classified", u2u_.stats().rows_classified},
      {"u2u_threshold_nodes", u2u_.threshold_nodes()},
      {"active_compactions", u2u_.compactions()},
      {"cells_bulk_accepted", m.cells_bulk_accepted},
      {"cells_skipped", m.cells_skipped},
      {"boundary_workers", m.boundary_workers},
      {"cells_clipped", m.cells_clipped},
      {"u2u_gather_bytes", m.u2u_gather_bytes},
      {"cells_emitted_direct", m.cells_emitted_direct},
      {"grid_rebuilds", m.grid_rebuilds},
  };
  auto& registry = obs::MetricsRegistry::Global();
  for (const auto& [name, count] : counts) {
    registry.GetCounter(std::string("scguard.engine.") + name)
        ->Increment(count);
  }
}

}  // namespace scguard::assign
