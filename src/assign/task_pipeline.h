#ifndef SCGUARD_ASSIGN_TASK_PIPELINE_H_
#define SCGUARD_ASSIGN_TASK_PIPELINE_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "assign/entities.h"
#include "assign/matcher.h"
#include "assign/stages/candidate_stage.h"
#include "assign/stages/contact_stage.h"
#include "assign/stages/rank_stage.h"
#include "geo/bbox.h"
#include "index/pruning.h"
#include "privacy/privacy_params.h"
#include "reachability/kernel.h"
#include "reachability/model.h"
#include "stats/rng.h"

namespace scguard::assign {

/// The protocol half of every SCGuard configuration: what the three stages
/// decide with. EnginePolicy and service::ServiceConfig both derive from
/// it, so one set of fields configures the one per-task pipeline.
///
/// Algorithm 1 (oblivious baseline) and Algorithm 2 (probability-based) are
/// the same protocol with different reachability models and thresholds:
///  * Oblivious-RR / Oblivious-RN: BinaryModel, rank random / nearest,
///    no beta threshold.
///  * Probabilistic-Model / Probabilistic-Data: AnalyticalModel /
///    EmpiricalModel, probability ranking, alpha & beta thresholds.
struct ProtocolPolicy {
  /// Model the server uses in U2U to build the candidate set. Not owned;
  /// must outlive the pipeline.
  const reachability::ReachabilityModel* u2u_model = nullptr;
  /// Model the requester uses in U2E to rank candidates (only consulted
  /// when rank == kProbability). Not owned.
  const reachability::ReachabilityModel* u2e_model = nullptr;

  /// U2U threshold alpha: a worker is a candidate iff
  /// Pr(reachable | d(w', t')) >= alpha. With BinaryModel any alpha in
  /// (0, 1] reproduces the oblivious d' <= R_w test.
  double alpha = 0.1;

  /// U2E threshold beta: the requester cancels the task when the best
  /// remaining candidate's reachability probability is < beta. 0 disables
  /// cancellation (exhaustive best-effort, Alg. 1 behaviour). Only applies
  /// to probability ranking.
  double beta = 0.0;
  BetaMode beta_mode = BetaMode::kEveryContact;

  RankStrategy rank = RankStrategy::kProbability;

  /// Redundant assignment (paper Sec. VII): the task needs K accepting
  /// workers; the requester keeps contacting candidates until K accept or
  /// the candidate set is exhausted.
  int redundancy_k = 1;

  /// When set, the server prunes U2U with uncertainty-rectangle indexing
  /// (paper Sec. IV-C1) at this confidence gamma before evaluating
  /// probabilities.
  std::optional<double> pruning_gamma;
  index::PrunerBackend pruning_backend = index::PrunerBackend::kGrid;

  /// Privacy levels, needed to size the pruning rectangles. Must match the
  /// levels used to perturb the workers and tasks.
  privacy::PrivacyParams worker_params;
  privacy::PrivacyParams task_params;

  /// Evaluation-kernel knobs (DESIGN.md section 8): the margin of the
  /// exact U2U certain bands and U2E lattice bounds.
  reachability::KernelOptions kernel;

  /// Parallel-scan knobs (DESIGN.md section 9). Defaults keep the scan
  /// serial; thread-count invariance is held by
  /// tests/engine_parallel_test.cc.
  EngineRuntime runtime;
};

/// How one task's protocol run ended.
struct TaskOutcome {
  int64_t worker_id = -1;  ///< First accepting worker; -1 when unassigned.
  double travel_m = 0.0;   ///< That worker's true travel distance.
  bool cancelled = false;  ///< The beta threshold tripped.
  /// Size of the U2U candidate set.
  int64_t candidates = 0;
  /// Candidates whose worker can reach the task (ground truth, an
  /// observer-only count); filled only when Execute is asked for it.
  int64_t candidates_reachable = 0;
};

/// The SCGuard per-task protocol (paper Fig. 2 / Table I), the one body
/// ScGuardEngine and service::AssignmentService both run (DESIGN.md
/// section 10):
///   U2U  server:    noisy worker + noisy task locations -> candidate set
///   U2E  requester: exact task + noisy worker locations -> ranked contacts
///   E2E  worker:    exact task location -> accept iff d(w, t) <= R_w
/// It owns the three stages and the per-worker random-rank priorities,
/// and writes each task's RunMetrics accounting, stage
/// histograms, flight-recorder spans and audit-filter attribution in one
/// place. Observation never perturbs the protocol: no RNG draws, no
/// reordering (tests/obs_test.cc holds it to that).
///
/// Not thread-safe; the U2U scan itself fans shards over the policy's pool.
class TaskPipeline {
 public:
  /// Validates `policy`. `region` sizes the pruning grid. `workers` is the
  /// ground truth the worker side adjudicates E2E with (exact locations),
  /// indexed in registration order; not owned, and the caller keeps it in
  /// step with AddWorker and with any relocation it applies.
  TaskPipeline(const ProtocolPolicy& policy, const geo::BoundingBox& region,
               const std::vector<Worker>& workers);

  /// Pre-sizes the per-worker arrays (optional).
  void ReserveWorkers(size_t n);

  /// Registers a worker's public half (noisy location, reach radius) with
  /// the U2U stage and draws its random ranking priority (Alg. 1 Line 12):
  /// one draw per registration, in registration order.
  uint32_t AddWorker(const Worker& w, stats::Rng& rank_rng);

  /// Certain-band fill, pruning-index build and shard setup, so the first
  /// task's U2U timing measures only the scan.
  void Prepare();

  /// Runs one task through U2U CollectRuns -> U2E Open -> E2E contact over
  /// the lazy ranking, appending accepted pairs to `result.assignments` and
  /// folding the task into `result.metrics`. Bit-identical to collecting
  /// the ascending list and ranking it eagerly with U2eRankStage::Rank
  /// (tests/rank_cursor_test.cc). Accepting workers are marked matched
  /// after the contact walk, so the candidate groups stay put during it.
  /// `count_reachable` fills TaskOutcome::candidates_reachable.
  TaskOutcome Execute(const Task& task, MatchResult& result,
                      bool count_reachable = false);

  /// End-of-run fold into `m`: worker count, grid-certification and
  /// scoring-traffic totals, then one flush per scguard.engine.* counter.
  void Finish(RunMetrics& m) const;

  /// The server stage, for callers that relocate or reactivate workers
  /// between tasks, or read availability.
  U2uCandidateStage& u2u() { return u2u_; }

 private:
  const std::vector<Worker>& workers_;
  U2uCandidateStage u2u_;
  U2eRankStage u2e_;
  const E2eContactStage e2e_;
  std::vector<double> random_rank_;
  // Full-audit drain of the ranking, reused across tasks.
  std::vector<std::pair<double, size_t>> ranked_;
  // This task's accepting workers, marked matched once E2E returns.
  std::vector<uint32_t> accepted_;

  // Counter-only accounting, flushed once by Finish.
  int64_t evaluated_ = 0;         // Workers the U2U filter actually scored.
  int64_t pruned_ = 0;            // Skipped entirely by the pruning index.
  int64_t alpha_rejections_ = 0;  // Scored but below alpha.
  int64_t beta_cancels_ = 0;
};

}  // namespace scguard::assign

#endif  // SCGUARD_ASSIGN_TASK_PIPELINE_H_
