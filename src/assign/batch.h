#ifndef SCGUARD_ASSIGN_BATCH_H_
#define SCGUARD_ASSIGN_BATCH_H_

#include "assign/matcher.h"
#include "reachability/model.h"

namespace scguard::assign {

/// Batched privacy-aware assignment: the server buffers `batch_size` tasks
/// and solves a min-cost matching over the noisy distances before any
/// disclosure happens; each proposed pair is then validated E2E like in
/// SCGuard.
///
/// This is the assignment mode of the encryption-based related work the
/// paper compares against ([Liu et al., EDBT'17] waits for task batches;
/// the paper argues online arrival makes that infeasible for its setting).
/// Implementing it lets the bench quantify what batching buys under the
/// same Geo-I noise: globally coordinated matchings avoid the greedy
/// online mistakes at the cost of delaying every task by up to one batch.
class BatchMatcher final : public OnlineMatcher {
 public:
  /// `model` scores pair reachability from noisy data (not owned; must
  /// outlive the matcher); pairs below `alpha` are infeasible. A
  /// batch_size of 1 degenerates to a nearest-feasible online rule.
  /// Feasibility is decided through U2uCandidateStage::Decide (exact; see
  /// kernel.h for the certain bands).
  BatchMatcher(const reachability::ReachabilityModel* model, double alpha,
               int batch_size);

  MatchResult Run(const Workload& workload, stats::Rng& rng) override;

  std::string name() const override;

  int batch_size() const { return batch_size_; }

 private:
  const reachability::ReachabilityModel* model_;
  double alpha_;
  int batch_size_;
};

}  // namespace scguard::assign

#endif  // SCGUARD_ASSIGN_BATCH_H_
