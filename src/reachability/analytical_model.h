#ifndef SCGUARD_REACHABILITY_ANALYTICAL_MODEL_H_
#define SCGUARD_REACHABILITY_ANALYTICAL_MODEL_H_

#include "common/result.h"
#include "privacy/mechanism.h"
#include "privacy/planar_laplace.h"
#include "privacy/privacy_params.h"
#include "reachability/model.h"

namespace scguard::reachability {

/// How the analytical model turns the bivariate-normal approximation into a
/// reachability probability.
enum class AnalyticalMode {
  /// The paper's method (Sec. IV-B1): per-coordinate noise variance
  /// 2 r^2 / eps^2; U2U approximates d^2 by a normal via the first two
  /// moments of its mgf; U2E uses the Rice CDF.
  kPaperNormalApprox,
  /// Same variance, but the exact CDF of the BND-induced distance (a Rice
  /// CDF at both stages) instead of the normal approximation of d^2.
  kExactRice,
  /// Rice CDF with the true planar Laplace per-coordinate variance
  /// 3 r^2 / eps^2 (moment matching the actual mechanism instead of the
  /// paper's 1-D Laplace second moment). Ablation mode.
  kMomentMatched,
  /// Beyond the paper: exact quadrature of the planar Laplace density over
  /// the reachability disk. Exact for U2E; for U2U the combined two-sided
  /// noise is approximated by a single planar Laplace with matched
  /// variance (eps_eff = eps / sqrt(2)). Slower than the closed forms but
  /// still precomputation-free, and much closer to the empirical tables
  /// (the Gaussian modes misfit the Laplace's peaked bulk).
  kExactLaplace,
};

constexpr std::string_view AnalyticalModeName(AnalyticalMode mode) {
  switch (mode) {
    case AnalyticalMode::kPaperNormalApprox:
      return "paper-normal";
    case AnalyticalMode::kExactRice:
      return "exact-rice";
    case AnalyticalMode::kMomentMatched:
      return "moment-matched";
    case AnalyticalMode::kExactLaplace:
      return "exact-laplace";
  }
  return "?";
}

/// The analytical reachability model (paper Sec. IV-B1): approximate the
/// planar Laplace posterior of each true location by a circular bivariate
/// normal centered at the observed point, then evaluate Pr(d <= R_w) in
/// closed form. Fast and requires no precomputation (this is
/// *Probabilistic-Model* in the evaluation).
class AnalyticalModel final : public ReachabilityModel {
 public:
  /// Checked factory: every closed form here is derived from the planar
  /// Laplace noise shape, so a configured mechanism without an analytical
  /// DiskProbability (the grid kinds) is rejected with a Status pointing at
  /// the empirical path (EmpiricalModel / Probabilistic-Data), which learns
  /// any mechanism's distribution by sampling it.
  static Result<AnalyticalModel> Create(
      const privacy::PrivacyParams& worker_params,
      const privacy::PrivacyParams& task_params,
      AnalyticalMode mode = AnalyticalMode::kPaperNormalApprox);

  /// Workers and requesters may use different privacy levels; the paper's
  /// experiments use equal ones. Dies where Create would return an error.
  AnalyticalModel(const privacy::PrivacyParams& worker_params,
                  const privacy::PrivacyParams& task_params,
                  AnalyticalMode mode = AnalyticalMode::kPaperNormalApprox);

  /// Convenience: both parties at the same privacy level.
  explicit AnalyticalModel(
      const privacy::PrivacyParams& params,
      AnalyticalMode mode = AnalyticalMode::kPaperNormalApprox)
      : AnalyticalModel(params, params, mode) {}

  double ProbReachable(Stage stage, double observed_distance_m,
                       double reach_radius_m) const override;

  /// Scalar loop over the (final, devirtualized) ProbReachable — identical
  /// results, one dispatch for the whole array.
  void ProbReachableBatch(Stage stage, const double* observed_distance_m,
                          const double* reach_radius_m, size_t n,
                          double* out) const override;

  /// The three Gaussian modes (normal approximation and Rice CDF) pass the
  /// dense (d, r) sweep of tests/rank_cursor_test.cc at both stages.
  /// kExactLaplace declares neither stage: its quadrature has isolated
  /// spikes of ~1e-3 in both d and r (probes named in that test), far
  /// beyond any margin, so the kernels evaluate it directly.
  bool Monotone(Stage /*stage*/) const override {
    return mode_ != AnalyticalMode::kExactLaplace;
  }

  std::string_view name() const override { return "analytical"; }

  AnalyticalMode mode() const { return mode_; }

  /// Per-coordinate variance attributed to one perturbed endpoint under the
  /// current mode (2 r^2/eps^2 paper modes, 3 r^2/eps^2 moment-matched).
  double WorkerCoordinateVariance() const { return var_worker_; }
  double TaskCoordinateVariance() const { return var_task_; }

 private:
  double var_worker_;
  double var_task_;
  AnalyticalMode mode_;
  // kExactLaplace machinery, hoisted out of ProbReachable: the worker-side
  // mechanism adapter (its DiskProbability is the exact U2E answer) and the
  // variance-matched single Laplace standing in for the two-sided U2U noise.
  privacy::PlanarLaplaceMechanism worker_mechanism_;
  privacy::PlanarLaplace u2u_combined_laplace_;
};

}  // namespace scguard::reachability

#endif  // SCGUARD_REACHABILITY_ANALYTICAL_MODEL_H_
