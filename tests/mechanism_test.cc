#include "privacy/mechanism.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "geo/point.h"
#include "privacy/location_set.h"
#include "privacy/planar_laplace.h"
#include "privacy/privacy_params.h"
#include "privacy/truncated.h"
#include "reachability/analytical_model.h"
#include "reachability/empirical_model.h"
#include "runtime/thread_pool.h"
#include "sim/dynamic.h"
#include "stats/rng.h"

namespace scguard::privacy {
namespace {

constexpr double kEps = 0.7;
constexpr double kRadius = 800.0;

geo::BoundingBox TestRegion() {
  geo::BoundingBox region;
  region.Extend(geo::Point{0.0, 0.0});
  region.Extend(geo::Point{12000.0, 12000.0});
  return region;
}

PrivacyParams GridParams(MechanismKind kind, int grid_cells = 12) {
  PrivacyParams p{kEps, kRadius};
  p.mechanism.kind = kind;
  p.mechanism.grid_cells = grid_cells;
  p.mechanism.region = TestRegion();
  return p;
}

// ------------------------------------------------------------ The adapter

// The refactor's correctness bar: the adapter must consume the exact draws,
// in the exact order, of every pre-interface planar-Laplace call site, so
// seeds keep reproducing historical MatchResults bit for bit.
TEST(PlanarLaplaceMechanismTest, BitIdenticalToLegacySampleStreams) {
  const PrivacyParams p{kEps, kRadius};
  const PlanarLaplaceMechanism adapter(p);
  const PlanarLaplace inline_laplace(p.unit_epsilon());
  // The untruncated region wrapper draws through the same sampler; the
  // region is irrelevant in kNone mode.
  const TruncatedGeoInd truncated(p, geo::BoundingBox{-1.0, -1.0, 1.0, 1.0},
                                  TruncationMode::kNone);

  stats::Rng rng_adapter(991), rng_inline(991), rng_truncated(991);
  for (int i = 0; i < 1000; ++i) {
    const geo::Point x{100.0 * i, -37.5 * i};
    const geo::Point a = adapter.Perturb(x, rng_adapter);
    const geo::Point c = x + inline_laplace.Sample(rng_inline);
    const geo::Point t = truncated.Perturb(x, rng_truncated);
    EXPECT_EQ(a.x, c.x);
    EXPECT_EQ(a.y, c.y);
    EXPECT_EQ(t.x, c.x);
    EXPECT_EQ(t.y, c.y);
  }
}

TEST(PlanarLaplaceMechanismTest, FactoryDefaultSpecIsTheAdapter) {
  const PrivacyParams p{kEps, kRadius};  // Default spec: planar Laplace.
  const auto mech = MakeMechanismOrDie(p);
  EXPECT_EQ(mech->name(), "planar-laplace");

  const PlanarLaplaceMechanism adapter(p);
  stats::Rng rng_a(7), rng_b(7);
  for (int i = 0; i < 200; ++i) {
    const geo::Point x{50.0 * i, 20.0 * i};
    const geo::Point a = mech->Perturb(x, rng_a);
    const geo::Point b = adapter.Perturb(x, rng_b);
    EXPECT_EQ(a.x, b.x);
    EXPECT_EQ(a.y, b.y);
  }
}

TEST(PlanarLaplaceMechanismTest, ClosedFormsMatchPlanarLaplace) {
  const PrivacyParams p{kEps, kRadius};
  const PlanarLaplaceMechanism adapter(p);
  const PlanarLaplace laplace(p.unit_epsilon());
  for (const double nu : {0.0, 150.0, 800.0, 2500.0}) {
    const auto disk = adapter.DiskProbability(nu, 500.0);
    ASSERT_TRUE(disk.has_value());
    EXPECT_DOUBLE_EQ(*disk, laplace.DiskProbability(nu, 500.0));
  }
  EXPECT_DOUBLE_EQ(adapter.ConfidenceRadius(0.9), laplace.ConfidenceRadius(0.9));
}

TEST(MechanismTest, BatchMatchesScalarDrawOrder) {
  const auto mech = MakeMechanismOrDie(GridParams(MechanismKind::kGeoMatrix));
  std::vector<geo::Point> xs;
  for (int i = 0; i < 64; ++i) {
    xs.push_back(geo::Point{180.0 * i, 11000.0 - 160.0 * i});
  }
  std::vector<geo::Point> batch(xs.size());
  stats::Rng rng_batch(4), rng_scalar(4);
  mech->PerturbBatch(xs.data(), xs.size(), rng_batch, batch.data());
  for (size_t i = 0; i < xs.size(); ++i) {
    const geo::Point one = mech->Perturb(xs[i], rng_scalar);
    EXPECT_EQ(batch[i].x, one.x);
    EXPECT_EQ(batch[i].y, one.y);
  }
}

// --------------------------------------------------------- The alias table

TEST(AliasTableTest, SamplingMatchesProbabilities) {
  const std::vector<double> weights = {5.0, 2.0, 2.0, 1.0};  // Unnormalized.
  const AliasTable table(weights);
  ASSERT_EQ(table.size(), weights.size());
  stats::Rng rng(2024);
  const int n = 200000;
  std::vector<int> counts(weights.size(), 0);
  for (int i = 0; i < n; ++i) counts[table.Sample(rng)] += 1;
  for (size_t i = 0; i < weights.size(); ++i) {
    const double prob = weights[i] / 10.0;
    const double sigma = std::sqrt(prob * (1.0 - prob) / n);
    EXPECT_NEAR(static_cast<double>(counts[i]) / n, prob, 4.0 * sigma)
        << "outcome " << i;
  }
}

TEST(MatrixMechanismTest, AliasSamplingMatchesMatrixRow) {
  const PrivacyParams p = GridParams(MechanismKind::kGeoMatrix, 6);
  const auto mech = MatrixMechanism::Make(p, TestRegion());
  ASSERT_TRUE(mech.ok());
  const MatrixMechanism& m = **mech;

  const geo::Point src{3100.0, 5300.0};
  const size_t src_cell = m.CellOf(src);
  const std::vector<double>& row = m.Row(src_cell);

  stats::Rng rng(77);
  const int n = 100000;
  std::vector<int> counts(row.size(), 0);
  for (int i = 0; i < n; ++i) counts[m.CellOf(m.Perturb(src, rng))] += 1;
  for (size_t j = 0; j < row.size(); ++j) {
    if (row[j] < 1e-4) continue;  // Tail cells: a 4-sigma band is ~0 wide.
    const double sigma = std::sqrt(row[j] * (1.0 - row[j]) / n);
    EXPECT_NEAR(static_cast<double>(counts[j]) / n, row[j],
                4.0 * sigma + 1e-4)
        << "cell " << j;
  }
}

TEST(MatrixMechanismTest, RowsAreNormalizedAndDistanceDecaying) {
  const auto mech =
      MatrixMechanism::Make(GridParams(MechanismKind::kGeoMatrix, 8),
                            TestRegion());
  ASSERT_TRUE(mech.ok());
  const MatrixMechanism& m = **mech;
  const size_t cells = static_cast<size_t>(m.grid_cells()) *
                       static_cast<size_t>(m.grid_cells());
  for (const size_t i : {size_t{0}, cells / 2, cells - 1}) {
    const std::vector<double>& row = m.Row(i);
    double sum = 0.0;
    for (const double v : row) sum += v;
    EXPECT_NEAR(sum, 1.0, 1e-12);
    // The exponential kernel peaks at the true cell.
    EXPECT_EQ(std::distance(row.begin(),
                            std::max_element(row.begin(), row.end())),
              static_cast<ptrdiff_t>(i));
  }
}

TEST(MatrixMechanismTest, ConfidenceRadiusCoversGammaMass) {
  const auto mech = MakeMechanismOrDie(GridParams(MechanismKind::kGeoMatrix));
  const double r90 = mech->ConfidenceRadius(0.9);
  EXPECT_GT(r90, 0.0);
  const geo::Point src{6100.0, 4700.0};
  stats::Rng rng(11);
  const int n = 20000;
  int inside = 0;
  for (int i = 0; i < n; ++i) {
    if (geo::Distance(mech->Perturb(src, rng), src) <= r90) ++inside;
  }
  // Conservative (over-covering) is sound for pruning; under-covering is a
  // bug. The sampling slack only ever tightens the check.
  EXPECT_GE(static_cast<double>(inside) / n, 0.9 - 0.01);
}

// --------------------------------------------- Determinism of the factory

// Two mechanisms built from equal (params, region) must be behaviorally
// identical: that is what makes sharded empirical builds thread-count
// invariant and lets every call site reconstruct "the" mechanism locally.
TEST(MechanismTest, EqualSpecsBuildIdenticalMechanisms) {
  for (const MechanismKind kind :
       {MechanismKind::kPlanarLaplace, MechanismKind::kGeoMatrix,
        MechanismKind::kPriorEmpirical}) {
    const PrivacyParams p = kind == MechanismKind::kPlanarLaplace
                                ? PrivacyParams{kEps, kRadius}
                                : GridParams(kind);
    const auto a = MakeMechanismOrDie(p, TestRegion());
    const auto b = MakeMechanismOrDie(p, TestRegion());
    stats::Rng rng_a(31), rng_b(31);
    for (int i = 0; i < 300; ++i) {
      const geo::Point x{37.0 * i, 11800.0 - 35.0 * i};
      const geo::Point pa = a->Perturb(x, rng_a);
      const geo::Point pb = b->Perturb(x, rng_b);
      EXPECT_EQ(pa.x, pb.x) << MechanismKindName(kind);
      EXPECT_EQ(pa.y, pb.y) << MechanismKindName(kind);
    }
  }
}

TEST(PriorWeightedMechanismTest, PriorTiltsReportsTowardHistory) {
  // An explicit history concentrated in one corner must tilt the row mass
  // toward that corner relative to the unweighted exponential kernel.
  const PrivacyParams p = GridParams(MechanismKind::kPriorEmpirical, 8);
  std::vector<geo::Point> history;
  for (int i = 0; i < 2000; ++i) {
    history.push_back(geo::Point{500.0 + (i % 40) * 25.0,
                                 500.0 + (i / 40) * 25.0});  // SW corner.
  }
  const auto prior = PriorWeightedMechanism::Learn(p, TestRegion(),
                                                   history.data(),
                                                   history.size());
  ASSERT_TRUE(prior.ok());
  const auto plain = MatrixMechanism::Make(
      GridParams(MechanismKind::kGeoMatrix, 8), TestRegion());
  ASSERT_TRUE(plain.ok());

  const MatrixMechanism& weighted = (*prior)->matrix();
  const geo::Point src{6000.0, 6000.0};  // City center.
  const size_t cell = weighted.CellOf(src);
  const size_t sw_cell = weighted.CellOf(geo::Point{900.0, 900.0});
  EXPECT_GT(weighted.Row(cell)[sw_cell], (*plain)->Row(cell)[sw_cell]);
}

// ------------------------------------- Empirical tables across mechanisms

TEST(MechanismTest, EmpiricalBuildIsThreadCountInvariantPerMechanism) {
  reachability::EmpiricalModelConfig config;
  config.region = TestRegion();
  config.num_samples = 20000;
  config.num_shards = 8;
  runtime::ThreadPool pool(3);
  for (const MechanismKind kind :
       {MechanismKind::kPlanarLaplace, MechanismKind::kGeoMatrix,
        MechanismKind::kPriorEmpirical}) {
    const PrivacyParams p = kind == MechanismKind::kPlanarLaplace
                                ? PrivacyParams{kEps, kRadius}
                                : GridParams(kind);
    stats::Rng rng_serial(5005), rng_pooled(5005);
    const auto serial =
        reachability::EmpiricalModel::Build(config, p, rng_serial, nullptr);
    const auto pooled =
        reachability::EmpiricalModel::Build(config, p, rng_pooled, &pool);
    ASSERT_TRUE(serial.ok()) << MechanismKindName(kind);
    ASSERT_TRUE(pooled.ok()) << MechanismKindName(kind);
    std::ostringstream a, b;
    serial->Serialize(a);
    pooled->Serialize(b);
    EXPECT_EQ(a.str(), b.str()) << MechanismKindName(kind);
  }
}

// --------------------------------------------- Analytical model fail-fast

TEST(MechanismTest, AnalyticalModelRejectsMechanismsWithoutClosedForm) {
  const PrivacyParams planar{kEps, kRadius};
  EXPECT_TRUE(
      reachability::AnalyticalModel::Create(planar, planar).ok());
  for (const MechanismKind kind :
       {MechanismKind::kGeoMatrix, MechanismKind::kPriorEmpirical}) {
    const PrivacyParams grid = GridParams(kind);
    const auto result = reachability::AnalyticalModel::Create(grid, planar);
    ASSERT_FALSE(result.ok()) << MechanismKindName(kind);
    // The message must route the caller to the working path.
    EXPECT_NE(result.status().message().find("EmpiricalModel"),
              std::string::npos)
        << result.status().ToString();
    EXPECT_NE(result.status().message().find(MechanismKindName(kind)),
              std::string::npos)
        << result.status().ToString();
    // Symmetric on the task side.
    EXPECT_FALSE(reachability::AnalyticalModel::Create(planar, grid).ok());
  }
}

TEST(MechanismTest, ClosedFormAvailabilityByKind) {
  EXPECT_TRUE(HasClosedFormDiskProbability(MechanismKind::kPlanarLaplace));
  EXPECT_FALSE(HasClosedFormDiskProbability(MechanismKind::kGeoMatrix));
  EXPECT_FALSE(HasClosedFormDiskProbability(MechanismKind::kPriorEmpirical));
  const auto matrix = MakeMechanismOrDie(GridParams(MechanismKind::kGeoMatrix));
  EXPECT_FALSE(matrix->DiskProbability(100.0, 500.0).has_value());
}

// ------------------------------------------------------ Spec validation

TEST(MechanismTest, GridKindsRequireARegion) {
  PrivacyParams p{kEps, kRadius};
  p.mechanism.kind = MechanismKind::kGeoMatrix;  // No region anywhere.
  const auto result = MakeMechanism(p);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("region"), std::string::npos);
  // A fallback region (what perturbation sites pass) fixes it...
  EXPECT_TRUE(MakeMechanism(p, TestRegion()).ok());
  // ...and a pinned spec region wins over the fallback.
  p.mechanism.region = TestRegion();
  EXPECT_TRUE(MakeMechanism(p).ok());

  PrivacyParams bad = GridParams(MechanismKind::kGeoMatrix);
  bad.mechanism.grid_cells = 1;
  EXPECT_FALSE(bad.Validate().ok());
}

// ------------------------------------------------- Provenance round-trip

TEST(MechanismTest, NameAndParamsJsonAreStableProvenance) {
  for (const MechanismKind kind :
       {MechanismKind::kPlanarLaplace, MechanismKind::kGeoMatrix,
        MechanismKind::kPriorEmpirical}) {
    const PrivacyParams p = kind == MechanismKind::kPlanarLaplace
                                ? PrivacyParams{kEps, kRadius}
                                : GridParams(kind);
    const auto mech = MakeMechanismOrDie(p, TestRegion());
    EXPECT_EQ(mech->name(), MechanismKindName(kind));
    const std::string json = mech->ParamsJson();
    EXPECT_NE(json.find("\"name\":\""), std::string::npos) << json;
    EXPECT_NE(json.find(MechanismKindName(kind)), std::string::npos) << json;
    EXPECT_NE(json.find("\"epsilon\":"), std::string::npos) << json;
    // Pure function of the spec: rebuilt provenance is byte-identical.
    EXPECT_EQ(json, MakeMechanismOrDie(p, TestRegion())->ParamsJson());
  }
}

// --------------------------------- Budget splitting carries the mechanism

TEST(MechanismTest, LocationSetSplitsBudgetNotMechanism) {
  PrivacyParams joint = GridParams(MechanismKind::kGeoMatrix);
  const auto set = LocationSetMechanism::Create(joint, 4);
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(set->per_location_params().epsilon, joint.epsilon / 4);
  EXPECT_TRUE(set->per_location_params().mechanism == joint.mechanism);
  EXPECT_EQ(set->mechanism().name(), "geo-matrix");

  // Planar default: PerturbSet must equal the legacy eps/n inline stream.
  const PrivacyParams planar{kEps, kRadius};
  const auto planar_set = LocationSetMechanism::Create(planar, 4);
  ASSERT_TRUE(planar_set.ok());
  std::vector<geo::Point> locs = {{0.0, 0.0}, {100.0, 50.0}, {2.0, 9000.0}};
  stats::Rng rng_set(13), rng_inline(13);
  const auto noisy = planar_set->PerturbSet(locs, rng_set);
  ASSERT_TRUE(noisy.ok());
  const PlanarLaplace split_laplace(planar.epsilon / 4 / planar.radius_m);
  for (size_t i = 0; i < locs.size(); ++i) {
    const geo::Point expect = locs[i] + split_laplace.Sample(rng_inline);
    EXPECT_EQ((*noisy)[i].x, expect.x);
    EXPECT_EQ((*noisy)[i].y, expect.y);
  }
}

// ------------------------------------------------- Dynamic-sim threading

TEST(MechanismTest, DynamicSimRunsEveryMechanismDeterministically) {
  sim::DynamicConfig config;
  config.rounds = 3;
  config.num_workers = 60;
  config.tasks_per_round = 20;
  for (const MechanismKind kind :
       {MechanismKind::kPlanarLaplace, MechanismKind::kGeoMatrix,
        MechanismKind::kPriorEmpirical}) {
    config.joint.mechanism = PrivacyParams{kEps, kRadius}.mechanism;
    config.joint.mechanism.kind = kind;
    config.joint.mechanism.grid_cells = 10;
    const auto a = sim::RunDynamicWorkers(
        config, sim::ReportingStrategy::kLocationSetSplit);
    const auto b = sim::RunDynamicWorkers(
        config, sim::ReportingStrategy::kLocationSetSplit);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].assigned, b[i].assigned) << MechanismKindName(kind);
      EXPECT_EQ(a[i].travel_m, b[i].travel_m) << MechanismKindName(kind);
      EXPECT_EQ(a[i].report_error_m, b[i].report_error_m)
          << MechanismKindName(kind);
    }
  }
}

}  // namespace
}  // namespace scguard::privacy
