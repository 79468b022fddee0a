#include "privacy/truncated.h"

#include <algorithm>

#include "common/check.h"

namespace scguard::privacy {

TruncatedGeoInd::TruncatedGeoInd(const PrivacyParams& params,
                                 const geo::BoundingBox& region,
                                 TruncationMode mode)
    : laplace_(params.unit_epsilon()), region_(region), mode_(mode) {
  SCGUARD_CHECK(params.Validate().ok());
  SCGUARD_CHECK(!region.empty());
}

geo::Point TruncatedGeoInd::Perturb(geo::Point x, stats::Rng& rng) const {
  switch (mode_) {
    case TruncationMode::kNone:
      return x + laplace_.Sample(rng);
    case TruncationMode::kClamp: {
      const geo::Point z = x + laplace_.Sample(rng);
      return {std::clamp(z.x, region_.min_x, region_.max_x),
              std::clamp(z.y, region_.min_y, region_.max_y)};
    }
    case TruncationMode::kRejectionResample: {
      for (int attempt = 0; attempt < 1000; ++attempt) {
        const geo::Point z = x + laplace_.Sample(rng);
        if (region_.Contains(z)) return z;
      }
      // Pathological noise scale vs region: fall back to the safe clamp.
      const geo::Point z = x + laplace_.Sample(rng);
      return {std::clamp(z.x, region_.min_x, region_.max_x),
              std::clamp(z.y, region_.min_y, region_.max_y)};
    }
  }
  return x;
}

}  // namespace scguard::privacy
