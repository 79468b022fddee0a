#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "privacy/mechanism.h"
#include "privacy/planar_laplace.h"
#include "privacy/privacy_params.h"
#include "stats/rng.h"

namespace scguard::privacy {
namespace {

TEST(PrivacyParamsTest, ValidationAndUnitEpsilon) {
  PrivacyParams p{0.7, 800.0};
  EXPECT_TRUE(p.Validate().ok());
  EXPECT_DOUBLE_EQ(p.unit_epsilon(), 0.7 / 800.0);
  EXPECT_FALSE((PrivacyParams{0.0, 800.0}).Validate().ok());
  EXPECT_FALSE((PrivacyParams{-0.1, 800.0}).Validate().ok());
  EXPECT_FALSE((PrivacyParams{0.7, 0.0}).Validate().ok());
}

TEST(PlanarLaplaceTest, RadialCdfBasics) {
  const PlanarLaplace pl(0.001);
  EXPECT_DOUBLE_EQ(pl.RadialCdf(0.0), 0.0);
  EXPECT_DOUBLE_EQ(pl.RadialCdf(-5.0), 0.0);
  EXPECT_NEAR(pl.RadialCdf(1e7), 1.0, 1e-12);
  // C(r) = 1 - (1 + eps r) e^{-eps r} at eps*r = 1: 1 - 2/e.
  EXPECT_NEAR(pl.RadialCdf(1000.0), 1.0 - 2.0 / M_E, 1e-12);
}

TEST(PlanarLaplaceTest, InverseRadialCdfInvertsCdf) {
  const PlanarLaplace pl(0.002);
  for (double p : {0.01, 0.1, 0.5, 0.9, 0.99, 0.9999}) {
    const double r = pl.InverseRadialCdf(p);
    EXPECT_NEAR(pl.RadialCdf(r), p, 1e-9) << "p=" << p;
  }
  EXPECT_DOUBLE_EQ(pl.InverseRadialCdf(0.0), 0.0);
}

TEST(PlanarLaplaceTest, PdfIntegratesToOneOverPlane) {
  const PlanarLaplace pl(1.0);
  // Radial integral: 2 pi r * pdf(r) integrated over r>=0 equals 1; check
  // via the closed-form radial CDF at a large radius instead of 2-D
  // quadrature.
  EXPECT_NEAR(pl.RadialCdf(60.0), 1.0, 1e-12);
}

TEST(PlanarLaplaceTest, SampleRadiusDistributionMatchesCdf) {
  const double eps = 0.7 / 800.0;
  const PlanarLaplace pl(eps);
  stats::Rng rng(42);
  const int n = 100000;
  std::vector<double> radii;
  radii.reserve(n);
  for (int i = 0; i < n; ++i) radii.push_back(pl.Sample(rng).Norm());
  // Empirical CDF vs analytic at several checkpoints.
  for (double q : {0.25, 0.5, 0.75, 0.9}) {
    const double r = pl.InverseRadialCdf(q);
    int below = 0;
    for (double v : radii) below += v <= r ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(below) / n, q, 0.01) << "q=" << q;
  }
  // Mean radius = 2/eps.
  double sum = 0;
  for (double v : radii) sum += v;
  EXPECT_NEAR(sum / n / (2.0 / eps), 1.0, 0.02);
}

TEST(PlanarLaplaceTest, SampleAngleIsUniform) {
  const PlanarLaplace pl(0.01);
  stats::Rng rng(1);
  int quadrant[4] = {0, 0, 0, 0};
  const int n = 40000;
  for (int i = 0; i < n; ++i) {
    const geo::Point z = pl.Sample(rng);
    const int q = (z.x >= 0 ? 0 : 1) + (z.y >= 0 ? 0 : 2);
    ++quadrant[q];
  }
  for (int q = 0; q < 4; ++q) EXPECT_NEAR(quadrant[q], n / 4, n / 40);
}

TEST(PlanarLaplaceTest, ConfidenceRadiusCoversGammaMass) {
  const PlanarLaplace pl(0.7 / 800.0);
  stats::Rng rng(3);
  const double gamma = 0.9;
  const double r_r = pl.ConfidenceRadius(gamma);
  int inside = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) inside += pl.Sample(rng).Norm() <= r_r ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(inside) / n, gamma, 0.01);
}

TEST(PlanarLaplaceTest, ConfidenceRadiusGrowsWithGammaAndShrinksWithEps) {
  const PlanarLaplace loose(0.001);
  EXPECT_LT(loose.ConfidenceRadius(0.5), loose.ConfidenceRadius(0.9));
  const PlanarLaplace strict(0.01);
  EXPECT_LT(strict.ConfidenceRadius(0.9), loose.ConfidenceRadius(0.9));
}

TEST(PlanarLaplaceTest, CoordinateVarianceMatchesSamples) {
  const PlanarLaplace pl(0.005);
  stats::Rng rng(9);
  double sum_x2 = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const geo::Point z = pl.Sample(rng);
    sum_x2 += z.x * z.x;
  }
  EXPECT_NEAR(sum_x2 / n / pl.CoordinateVariance(), 1.0, 0.03);
}

TEST(PlanarLaplaceTest, DiskProbabilityKnownCases) {
  const PlanarLaplace pl(0.7 / 800.0);
  // Disk centered on the true location: closed-form radial CDF.
  EXPECT_NEAR(pl.DiskProbability(0.0, 1400.0), pl.RadialCdf(1400.0), 1e-9);
  // Degenerate disk.
  EXPECT_DOUBLE_EQ(pl.DiskProbability(500.0, 0.0), 0.0);
  // Huge disk catches everything.
  EXPECT_NEAR(pl.DiskProbability(3000.0, 1e7), 1.0, 1e-6);
  // Monotone in radius, antitone in center distance.
  EXPECT_LT(pl.DiskProbability(2000.0, 1000.0), pl.DiskProbability(2000.0, 2500.0));
  EXPECT_GT(pl.DiskProbability(500.0, 1400.0), pl.DiskProbability(4000.0, 1400.0));
}

TEST(PlanarLaplaceTest, DiskProbabilityMatchesMonteCarlo) {
  const PlanarLaplace pl(0.7 / 800.0);
  stats::Rng rng(31);
  const int n = 200000;
  std::vector<geo::Point> noise;
  noise.reserve(n);
  for (int i = 0; i < n; ++i) noise.push_back(pl.Sample(rng));
  for (double nu : {200.0, 1000.0, 2500.0, 5000.0}) {
    for (double radius : {800.0, 1400.0, 3000.0}) {
      int inside = 0;
      const geo::Point center{nu, 0.0};
      for (const auto& z : noise) {
        inside += geo::Distance(z, center) <= radius ? 1 : 0;
      }
      EXPECT_NEAR(static_cast<double>(inside) / n,
                  pl.DiskProbability(nu, radius), 0.005)
          << "nu=" << nu << " R=" << radius;
    }
  }
}

// The Geo-I mechanism is PlanarLaplaceMechanism; checked construction goes
// through the MakeMechanism factory.
TEST(GeoIndTest, CreateValidatesParams) {
  EXPECT_TRUE(MakeMechanism({0.7, 800.0}).ok());
  EXPECT_FALSE(MakeMechanism({0.0, 800.0}).ok());
  EXPECT_FALSE(MakeMechanism({0.7, 0.0}).ok());
}

TEST(GeoIndTest, PerturbationCentersOnTrueLocation) {
  const PlanarLaplaceMechanism mech({0.7, 800.0});
  stats::Rng rng(4);
  const geo::Point x{1234.0, -567.0};
  geo::Point mean{0, 0};
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const geo::Point z = mech.Perturb(x, rng);
    mean = mean + (z - x);
  }
  mean = mean * (1.0 / n);
  const double typical = 2.0 / mech.params().unit_epsilon();  // Mean radius.
  EXPECT_LT(mean.Norm(), typical * 0.05);  // Unbiased.
}

// The defining Geo-I property, verified empirically: for two locations at
// distance d <= r, the densities of observing the same output differ by at
// most e^{eps d / r}. We check the density ratio directly via the Pdf.
TEST(GeoIndTest, GeoIndistinguishabilityDensityRatioHolds) {
  const PrivacyParams params{0.7, 800.0};
  const PlanarLaplace pl(params.unit_epsilon());
  const geo::Point x1{0, 0};
  const geo::Point x2{300, 400};  // d(x1, x2) = 500 <= r.
  const double bound = std::exp(params.unit_epsilon() * 500.0);
  stats::Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    // Any observation point z.
    const geo::Point z{rng.UniformDouble(-3000, 3000),
                       rng.UniformDouble(-3000, 3000)};
    const double p1 = pl.Pdf(z - x1);
    const double p2 = pl.Pdf(z - x2);
    EXPECT_LE(p1 / p2, bound * (1 + 1e-9));
    EXPECT_LE(p2 / p1, bound * (1 + 1e-9));
  }
}

}  // namespace
}  // namespace scguard::privacy
