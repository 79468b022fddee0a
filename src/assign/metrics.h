#ifndef SCGUARD_ASSIGN_METRICS_H_
#define SCGUARD_ASSIGN_METRICS_H_

#include <cstdint>
#include <ostream>

namespace scguard::assign {

/// End-to-end and per-stage performance metrics of one assignment run
/// (paper Sec. III-C).
struct RunMetrics {
  int64_t num_tasks = 0;
  int64_t num_workers = 0;

  /// (1) Utility: tasks that ended with a valid assignment (all K required
  /// workers accepted; K = 1 unless redundant assignment is enabled).
  int64_t assigned_tasks = 0;
  /// Total accepted worker-task pairs (equals assigned_tasks when K = 1).
  int64_t accepted_assignments = 0;

  /// (2) Travel cost: sum of *true* worker-task distances over accepted
  /// pairs, meters.
  double travel_sum_m = 0.0;

  /// (3) System overhead: total size of the candidate sets the server
  /// forwarded to requesters.
  int64_t candidates_sum = 0;

  /// (4) U2U accuracy: per-task precision/recall of the candidate set
  /// against the actually-reachable available workers, summed over the
  /// tasks where the respective denominator was non-zero.
  double precision_sum = 0.0;
  int64_t precision_count = 0;
  double recall_sum = 0.0;
  int64_t recall_count = 0;

  /// (5a) Privacy leak: times a task location was revealed to a candidate
  /// worker who then rejected the task (false hits).
  int64_t false_hits = 0;
  /// (5b) Reachable candidates never contacted for a task that ended
  /// unassigned (false dismissals; non-zero only with a beta threshold,
  /// since exhaustive ranking contacts every candidate).
  int64_t false_dismissals = 0;

  /// Protocol message accounting.
  int64_t server_to_requester_msgs = 0;  ///< Candidate sets sent.
  int64_t requester_to_worker_msgs = 0;  ///< Task-location disclosures.

  /// Wall-clock spent in the server-side U2U candidate scan.
  double u2u_seconds = 0.0;
  /// Wall-clock spent in the requester-side U2E ranking (paper Fig. 10e).
  double u2e_seconds = 0.0;
  /// Wall-clock of setup: worker registration plus the U2U stage's
  /// Prepare (certain bands, pruning index). Part of total_seconds
  /// for an engine run.
  double setup_seconds = 0.0;
  /// Wall-clock of the whole run.
  double total_seconds = 0.0;

  /// Workers actually scored by the U2U filter, summed over tasks. With
  /// active-set compaction this shrinks as workers get matched; the
  /// first/last-task pair exposes the decay (scale bench, DESIGN.md §9).
  /// On the grid backend a worker counts only when its rectangle admits
  /// the task and its cell was not rejected whole by the cell alpha
  /// certificate, whose rows are never read (DESIGN.md §13).
  /// First/last are per-run snapshots, not accumulated across seeds.
  int64_t u2u_scanned = 0;
  int64_t u2u_scanned_first_task = 0;
  int64_t u2u_scanned_last_task = 0;

  /// Cell-certification work of a grid-backed pruning index, summed over
  /// the run's queries (DESIGN.md §11): cells whose whole id array was
  /// bulk-appended, non-empty cells skipped without touching entries, and
  /// workers that fell through to the per-member rectangle test, all
  /// counted inside the alpha-clipped walk range; and the cells of the
  /// rectangle range the alpha clip left out. All zero without pruning or
  /// for the linear backend; together they explain *why* pruning won or
  /// lost, not just that it did.
  int64_t cells_bulk_accepted = 0;
  int64_t cells_skipped = 0;
  int64_t boundary_workers = 0;
  int64_t cells_clipped = 0;

  /// Modeled scoring-side memory traffic of the U2U scan, bytes summed over
  /// the run (DESIGN.md §13 / EXPERIMENTS.md): scattered cache lines for
  /// gathered workers, packed streams for brute and grid-row scans, id runs
  /// only for certificate-direct cells. A traffic model — comparable across
  /// configurations, not a hardware counter.
  int64_t u2u_gather_bytes = 0;
  /// Cells the grid walk resolved purely by a whole-cell alpha
  /// certificate, with zero per-worker loads (zero off the grid backend).
  int64_t cells_emitted_direct = 0;
  /// Full re-layouts of the grid backend's member arrays (an Insert,
  /// Relocate or Restore overflowing a cell's headroom; O(workers) each,
  /// on the thread applying the mutation). Zero off the grid backend.
  int64_t grid_rebuilds = 0;

  double MeanTravelM() const {
    return accepted_assignments > 0
               ? travel_sum_m / static_cast<double>(accepted_assignments)
               : 0.0;
  }
  double MeanCandidates() const {
    return num_tasks > 0
               ? static_cast<double>(candidates_sum) / static_cast<double>(num_tasks)
               : 0.0;
  }
  double MeanPrecision() const {
    return precision_count > 0 ? precision_sum / static_cast<double>(precision_count)
                               : 0.0;
  }
  double MeanRecall() const {
    return recall_count > 0 ? recall_sum / static_cast<double>(recall_count) : 0.0;
  }
  /// Mean task-location disclosures needed per assigned task
  /// (the "sends task to ~4.75 workers on average" figure of Sec. V-B2c).
  double DisclosuresPerAssignedTask() const {
    return assigned_tasks > 0 ? static_cast<double>(requester_to_worker_msgs) /
                                    static_cast<double>(assigned_tasks)
                              : 0.0;
  }

  /// Folds one task's U2U accuracy into the precision/recall sums:
  /// `candidates_reachable` of the `candidates` forwarded were truly
  /// reachable, out of `truly_reachable` reachable available workers. A
  /// zero denominator skips its term.
  void AddCandidateAccuracy(int64_t candidates_reachable, int64_t candidates,
                            int64_t truly_reachable);

  /// Element-wise accumulation (used by the multi-seed aggregator).
  void Accumulate(const RunMetrics& other);
};

std::ostream& operator<<(std::ostream& os, const RunMetrics& m);

}  // namespace scguard::assign

#endif  // SCGUARD_ASSIGN_METRICS_H_
