#ifndef SCGUARD_REACHABILITY_BINARY_MODEL_H_
#define SCGUARD_REACHABILITY_BINARY_MODEL_H_

#include "reachability/model.h"

namespace scguard::reachability {

/// The oblivious model (paper Sec. IV-A): treats observed locations as true
/// ones, so reachability is the step function 1{d' <= R_w} at every stage.
/// This is the reachability model behind Algorithm 1 (the baseline).
class BinaryModel final : public ReachabilityModel {
 public:
  double ProbReachable(Stage stage, double observed_distance_m,
                       double reach_radius_m) const override;

  void ProbReachableBatch(Stage stage, const double* observed_distance_m,
                          const double* reach_radius_m, size_t n,
                          double* out) const override;

  /// The step 1{d' <= R_w} is monotone exactly.
  bool Monotone(Stage /*stage*/) const override { return true; }

  std::string_view name() const override { return "binary"; }
};

}  // namespace scguard::reachability

#endif  // SCGUARD_REACHABILITY_BINARY_MODEL_H_
