#ifndef SCGUARD_PRIVACY_TRUNCATED_H_
#define SCGUARD_PRIVACY_TRUNCATED_H_

#include "geo/bbox.h"
#include "geo/point.h"
#include "privacy/planar_laplace.h"
#include "privacy/privacy_params.h"
#include "stats/rng.h"

namespace scguard::privacy {

/// How out-of-region perturbations are handled.
enum class TruncationMode {
  /// No truncation: reports may land outside the deployment region (the
  /// paper's setting — the server just sees far-away points).
  kNone,
  /// Clamp the report to the region boundary. A deterministic
  /// post-processing of the Geo-I output, so the (eps, r) guarantee is
  /// preserved *exactly* — the recommended truncation.
  kClamp,
  /// Re-draw the noise until the report falls inside the region. NOT pure
  /// post-processing (the accept loop depends on the true location): the
  /// guarantee degrades to eps * d(x, x') + |ln C(x') - ln C(x)| where
  /// C(x) is the in-region noise mass around x. Acceptable deep inside
  /// the region (C ~ 1), material near the border; provided for
  /// comparison because several deployed systems do this.
  kRejectionResample,
};

constexpr std::string_view TruncationModeName(TruncationMode mode) {
  switch (mode) {
    case TruncationMode::kNone:
      return "none";
    case TruncationMode::kClamp:
      return "clamp";
    case TruncationMode::kRejectionResample:
      return "resample";
  }
  return "?";
}

/// The planar-Laplace (eps, r)-Geo-I mechanism with its outputs constrained
/// to a deployment region; kNone draws exactly as PlanarLaplaceMechanism.
class TruncatedGeoInd {
 public:
  /// Requires valid params and a non-empty region.
  TruncatedGeoInd(const PrivacyParams& params, const geo::BoundingBox& region,
                  TruncationMode mode);

  /// Perturbs `x` (which should lie inside the region) according to the
  /// configured truncation.
  geo::Point Perturb(geo::Point x, stats::Rng& rng) const;

  TruncationMode mode() const { return mode_; }
  const geo::BoundingBox& region() const { return region_; }

 private:
  PlanarLaplace laplace_;
  geo::BoundingBox region_;
  TruncationMode mode_;
};

}  // namespace scguard::privacy

#endif  // SCGUARD_PRIVACY_TRUNCATED_H_
