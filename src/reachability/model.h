#ifndef SCGUARD_REACHABILITY_MODEL_H_
#define SCGUARD_REACHABILITY_MODEL_H_

#include <cstddef>
#include <string_view>

namespace scguard::reachability {

/// Which SCGuard protocol stage a reachability query is asked in; the noise
/// on the observed distance differs per stage (paper Table I).
enum class Stage {
  /// Uncertain-to-uncertain: the server sees perturbed worker *and*
  /// perturbed task locations.
  kU2U,
  /// Uncertain-to-exact: the requester knows the exact task location and
  /// the perturbed worker location.
  kU2E,
};

constexpr std::string_view StageName(Stage stage) {
  return stage == Stage::kU2U ? "U2U" : "U2E";
}

/// Quantifies the probability that a worker can reach a task given only the
/// observed (noisy) distance between them: Pr(d(w, t) <= R_w | d').
///
/// Implementations correspond to the paper's three options: the binary
/// "oblivious" step function, the analytical BND/Rice approximation
/// (Sec. IV-B1), and the Monte-Carlo empirical tables (Sec. IV-B2).
class ReachabilityModel {
 public:
  virtual ~ReachabilityModel() = default;

  /// Reachability probability at `stage` for observed distance
  /// `observed_distance_m` (>= 0) and worker reach radius `reach_radius_m`.
  virtual double ProbReachable(Stage stage, double observed_distance_m,
                               double reach_radius_m) const = 0;

  /// Batched evaluation over contiguous arrays: out[i] = ProbReachable(
  /// stage, observed_distance_m[i], reach_radius_m[i]). Bit-identical to
  /// the scalar calls; overrides exist so the per-element cost skips the
  /// virtual dispatch and re-hoists per-stage state (the engine's U2E
  /// scoring and the batch matcher feed structure-of-arrays scans through
  /// this).
  virtual void ProbReachableBatch(Stage stage,
                                  const double* observed_distance_m,
                                  const double* reach_radius_m, size_t n,
                                  double* out) const {
    for (size_t i = 0; i < n; ++i) {
      out[i] = ProbReachable(stage, observed_distance_m[i], reach_radius_m[i]);
    }
  }

  /// Whether ProbReachable at `stage` is non-increasing in the observed
  /// distance and non-decreasing in the reach radius, up to evaluation
  /// noise far below KernelOptions::threshold_margin. Two exact kernels
  /// lean on it: the U2U alpha filter inverts a declared model only at
  /// lattice radii and brackets every other radius between two nodes
  /// (reachability::AlphaThresholdCache), and the certified lazy U2E
  /// ranking bounds a candidate's score by a lattice corner
  /// (assign::U2eRankStage::Open). An undeclared model gets no certain
  /// regions from the threshold filter (every scanned worker is evaluated
  /// directly) and is scored in full by the ranking.
  /// tests/rank_cursor_test.cc sweeps each declaration.
  virtual bool Monotone(Stage /*stage*/) const { return false; }

  /// Short identifier used in experiment tables ("binary", "analytical",
  /// "empirical").
  virtual std::string_view name() const = 0;
};

}  // namespace scguard::reachability

#endif  // SCGUARD_REACHABILITY_MODEL_H_
