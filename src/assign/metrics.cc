#include "assign/metrics.h"

namespace scguard::assign {

void RunMetrics::AddCandidateAccuracy(int64_t candidates_reachable,
                                      int64_t candidates,
                                      int64_t truly_reachable) {
  if (candidates > 0) {
    precision_sum += static_cast<double>(candidates_reachable) /
                     static_cast<double>(candidates);
    precision_count += 1;
  }
  if (truly_reachable > 0) {
    recall_sum += static_cast<double>(candidates_reachable) /
                  static_cast<double>(truly_reachable);
    recall_count += 1;
  }
}

void RunMetrics::Accumulate(const RunMetrics& other) {
  num_tasks += other.num_tasks;
  num_workers += other.num_workers;
  assigned_tasks += other.assigned_tasks;
  accepted_assignments += other.accepted_assignments;
  travel_sum_m += other.travel_sum_m;
  candidates_sum += other.candidates_sum;
  precision_sum += other.precision_sum;
  precision_count += other.precision_count;
  recall_sum += other.recall_sum;
  recall_count += other.recall_count;
  false_hits += other.false_hits;
  false_dismissals += other.false_dismissals;
  server_to_requester_msgs += other.server_to_requester_msgs;
  requester_to_worker_msgs += other.requester_to_worker_msgs;
  u2u_seconds += other.u2u_seconds;
  u2e_seconds += other.u2e_seconds;
  setup_seconds += other.setup_seconds;
  total_seconds += other.total_seconds;
  u2u_scanned += other.u2u_scanned;
  cells_bulk_accepted += other.cells_bulk_accepted;
  cells_skipped += other.cells_skipped;
  boundary_workers += other.boundary_workers;
  cells_clipped += other.cells_clipped;
  u2u_gather_bytes += other.u2u_gather_bytes;
  cells_emitted_direct += other.cells_emitted_direct;
  grid_rebuilds += other.grid_rebuilds;
}

std::ostream& operator<<(std::ostream& os, const RunMetrics& m) {
  return os << "assigned=" << m.assigned_tasks << "/" << m.num_tasks
            << " travel=" << m.MeanTravelM() << "m"
            << " candidates=" << m.MeanCandidates()
            << " false_hits=" << m.false_hits
            << " false_dismissals=" << m.false_dismissals
            << " precision=" << m.MeanPrecision()
            << " recall=" << m.MeanRecall();
}

}  // namespace scguard::assign
