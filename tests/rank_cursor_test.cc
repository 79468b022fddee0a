// The certified lazy U2E ranking (DESIGN.md section 10): the monotonicity
// every lattice bound rests on — the U2E cursor's and the U2U threshold
// radius lattice's (DESIGN.md section 8) —, the lattice's edge cases, and
// bit-identity
// of the cursor with the eager U2eRankStage::Rank — at the stage, and
// through the whole engine against a reference run that ranks eagerly and walks
// the ranked vector.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "assign/scguard_engine.h"
#include "assign/stages/candidate_runs.h"
#include "assign/stages/candidate_stage.h"
#include "assign/stages/contact_stage.h"
#include "assign/stages/rank_stage.h"
#include "engine_fixtures.h"
#include "index/grid_index.h"
#include "index/pruning.h"
#include "obs/metrics.h"
#include "obs/obs_config.h"
#include "reachability/analytical_model.h"
#include "reachability/binary_model.h"
#include "reachability/empirical_model.h"
#include "reachability/kernel.h"
#include "runtime/thread_pool.h"
#include "stats/rng.h"

namespace scguard {
namespace {

using assign::BetaMode;
using assign::RankStrategy;
using reachability::AnalyticalMode;
using reachability::AnalyticalModel;
using reachability::BinaryModel;
using reachability::ReachabilityModel;
using reachability::Stage;
using reachability::U2eBoundLattice;

constexpr privacy::PrivacyParams kParams = fixtures::kDefaultPrivacy;
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// "Well inside" the margin every lattice bound is padded with.
const double kMonotoneTolerance =
    reachability::KernelOptions{}.threshold_margin / 100.0;

/// Every model that declares Monotone at both stages.
std::vector<std::unique_ptr<ReachabilityModel>> MonotoneCandidates() {
  std::vector<std::unique_ptr<ReachabilityModel>> models;
  models.push_back(std::make_unique<BinaryModel>());
  for (const AnalyticalMode mode :
       {AnalyticalMode::kPaperNormalApprox, AnalyticalMode::kExactRice,
        AnalyticalMode::kMomentMatched}) {
    models.push_back(std::make_unique<AnalyticalModel>(kParams, mode));
  }
  return models;
}

std::string Label(const ReachabilityModel& model) {
  if (const auto* a = dynamic_cast<const AnalyticalModel*>(&model)) {
    return std::string(reachability::AnalyticalModeName(a->mode()));
  }
  return std::string(model.name());
}

// --------------------------------------------------------- monotonicity

// Every model that declares Monotone(kU2E) must be non-increasing in the
// observed distance and non-decreasing in the reach radius over the whole
// lattice domain, at <= 5 m resolution and straddling every Poisson-mode
// switch of the noncentral chi-squared series behind the Rice CDF
// (j0 = floor(nu^2 / (2 sigma^2)) changes at nu = sigma sqrt(2 j)). A mode
// that fails must declare itself non-monotone; the margin is not the knob.
TEST(U2eMonotonicityTest, DeclaredModelsAreMonotoneOverTheLattice) {
  std::vector<double> radii = {25.0};
  for (double r = 250.0; r <= U2eBoundLattice::kMaxRadiusM; r += 250.0) {
    radii.push_back(r);
  }
  for (const auto& model : MonotoneCandidates()) {
    SCOPED_TRACE(Label(*model));
    ASSERT_TRUE(model->Monotone(Stage::kU2E));
    const auto p = [&](double d, double r) {
      return model->ProbReachable(Stage::kU2E, d, r);
    };
    for (const double r : radii) {
      double prev = p(0.0, r);
      for (double d = 5.0; d <= U2eBoundLattice::kMaxDistanceM; d += 5.0) {
        const double cur = p(d, r);
        ASSERT_LE(cur, prev + kMonotoneTolerance) << "r=" << r << " d=" << d;
        prev = cur;
      }
    }
    for (const double d : {0.0, 10.0, 400.0, 1600.0, 4000.0, 9000.0,
                           U2eBoundLattice::kMaxDistanceM}) {
      double prev = p(d, 25.0);
      for (double r = 30.0; r <= U2eBoundLattice::kMaxRadiusM; r += 5.0) {
        const double cur = p(d, r);
        ASSERT_GE(cur, prev - kMonotoneTolerance) << "d=" << d << " r=" << r;
        prev = cur;
      }
    }
    const auto* analytical = dynamic_cast<const AnalyticalModel*>(model.get());
    if (analytical == nullptr) continue;  // No Rice CDF, no switches.
    const double sigma = std::sqrt(analytical->WorkerCoordinateVariance());
    int switches = 0;
    for (int j = 1;; ++j) {
      const double nu = sigma * std::sqrt(2.0 * j);
      if (nu > U2eBoundLattice::kMaxDistanceM) break;
      ++switches;
      double below = nu;
      double above = nu;
      for (int ulp = 0; ulp < 4; ++ulp) {
        below = std::nextafter(below, 0.0);
        above = std::nextafter(above, kInf);
      }
      for (const double r : radii) {
        ASSERT_LE(p(above, r), p(below, r) + kMonotoneTolerance)
            << "switch j=" << j << " r=" << r;
        ASSERT_LE(p(nu + 1e-6, r), p(nu - 1e-6, r) + kMonotoneTolerance)
            << "switch j=" << j << " r=" << r;
      }
    }
    EXPECT_GT(switches, 10);
  }
}

TEST(U2eMonotonicityTest, EmpiricalTablesAreNotDeclaredMonotone) {
  reachability::EmpiricalModelConfig config;
  config.region = geo::BoundingBox::FromCorners({0, 0}, {20000, 20000});
  config.num_samples = 2000;
  stats::Rng rng(5);
  auto built = reachability::EmpiricalModel::Build(config, kParams, rng);
  ASSERT_TRUE(built.ok());
  EXPECT_FALSE(built->Monotone(Stage::kU2E));
  EXPECT_FALSE(built->Monotone(Stage::kU2U));
}

// The same declaration at 0.5 m resolution and at both stages: both
// kernels that trust it — the U2E bound lattice and the U2U threshold
// radius lattice, whose nodes are 1 m apart — fail silently on a spike
// between two sweep points, so the sweep is finer than either lattice.
// Distances span the U2E lattice, radii the U2U threshold lattice.
TEST(MonotoneDeclarationTest, DeclaredModelsAreMonotoneAtHalfMeter) {
  constexpr double kStep = 0.5;
  const double max_d = U2eBoundLattice::kMaxDistanceM;
  const double max_r = reachability::AlphaThresholdCache::kMaxRadiusM;
  for (const auto& model : MonotoneCandidates()) {
    for (const Stage stage : {Stage::kU2U, Stage::kU2E}) {
      SCOPED_TRACE(Label(*model) + " " +
                   std::string(reachability::StageName(stage)));
      ASSERT_TRUE(model->Monotone(stage));
      const auto p = [&](double d, double r) {
        return model->ProbReachable(stage, d, r);
      };
      for (const double r : {1.0, 800.0, 1417.4, 1986.75, 2664.6, 2787.9,
                             5000.0, 12000.0}) {
        double prev = p(0.0, r);
        for (double d = kStep; d <= max_d; d += kStep) {
          const double cur = p(d, r);
          ASSERT_LE(cur, prev + kMonotoneTolerance) << "r=" << r << " d=" << d;
          prev = cur;
        }
      }
      for (const double d : {0.0, 500.0, 1417.4, 2069.5, 2386.0, 6000.0,
                             15000.0}) {
        double prev = p(d, 0.0);
        for (double r = kStep; r <= max_r; r += kStep) {
          const double cur = p(d, r);
          ASSERT_GE(cur, prev - kMonotoneTolerance) << "d=" << d << " r=" << r;
          prev = cur;
        }
      }
    }
  }
}

// Named regression probes: the planar Laplace quadrature behind
// kExactLaplace has isolated spikes far beyond any margin, in d and in r
// and at both stages, so the mode must declare neither stage monotone. A
// threshold inversion that trusted it decided (d = 2069.5, r = 2787.9)
// wrongly for alpha in [0.389, 0.394].
TEST(MonotoneDeclarationTest, ExactLaplaceSpikesStayUndeclared) {
  const AnalyticalModel model(kParams, AnalyticalMode::kExactLaplace);
  EXPECT_FALSE(model.Monotone(Stage::kU2U));
  EXPECT_FALSE(model.Monotone(Stage::kU2E));
  // U2U, rising in d at r = 2787.9: 0.38891 -> 0.39435 -> 0.38879.
  const double u2u_at = model.ProbReachable(Stage::kU2U, 2069.5, 2787.9);
  EXPECT_GT(u2u_at, model.ProbReachable(Stage::kU2U, 2069.0, 2787.9) + 1e-3);
  EXPECT_GT(u2u_at, model.ProbReachable(Stage::kU2U, 2070.0, 2787.9) + 1e-3);
  // U2U, falling in r at d = 1417.4: -2.2e-3 from r = 1986.75 to 1987.0.
  EXPECT_GT(model.ProbReachable(Stage::kU2U, 1417.4, 1986.75),
            model.ProbReachable(Stage::kU2U, 1417.4, 1987.0) + 1e-3);
  // U2E, rising in d (+3.9e-3) and then falling in r at (2386.0, 2664.6).
  const double u2e_at = model.ProbReachable(Stage::kU2E, 2386.0, 2664.6);
  EXPECT_GT(u2e_at, model.ProbReachable(Stage::kU2E, 2385.5, 2664.6) + 1e-3);
  EXPECT_GT(u2e_at, model.ProbReachable(Stage::kU2E, 2386.0, 2665.0) + 1e-3);

  // The threshold filter evaluates the undeclared mode directly, so the
  // wrong decision is gone for every alpha across the spike.
  for (const double alpha : {0.389, 0.39, 0.392, 0.394}) {
    reachability::AlphaThresholdCache cache(&model, Stage::kU2U, alpha);
    EXPECT_EQ(cache.IsCandidate(2069.5, 2787.9), u2u_at >= alpha)
        << "alpha=" << alpha;
    EXPECT_EQ(cache.nodes_bisected(), 0);
  }
}

// -------------------------------------------------------------- lattice

TEST(U2eBoundLatticeTest, BoundsHoldAndFillLazily) {
  const AnalyticalModel model(kParams);
  const double margin = reachability::KernelOptions{}.threshold_margin;
  U2eBoundLattice lattice(&model, margin);
  EXPECT_EQ(lattice.nodes_filled(), 0);

  // d = 0 and lattice nodes exactly: the corner is the point itself.
  EXPECT_EQ(lattice.UpperBound(0.0, 1000.0),
            model.ProbReachable(Stage::kU2E, 0.0, 1000.0) + margin);
  EXPECT_EQ(lattice.nodes_filled(), 1);
  EXPECT_EQ(lattice.UpperBound(0.0, 1000.0),
            model.ProbReachable(Stage::kU2E, 0.0, 1000.0) + margin);
  EXPECT_EQ(lattice.nodes_filled(), 1);  // Memoized.
  EXPECT_EQ(lattice.UpperBound(2500.0, 2000.0),
            model.ProbReachable(Stage::kU2E, 2500.0, 2000.0) + margin);

  // Off-node points bound from the corner below d and above r.
  stats::Rng rng(3);
  for (int k = 0; k < 2000; ++k) {
    const double d = rng.UniformDouble(0.0, U2eBoundLattice::kMaxDistanceM);
    const double r = rng.UniformDouble(1.0, U2eBoundLattice::kMaxRadiusM);
    ASSERT_GE(lattice.UpperBound(d, r), model.ProbReachable(Stage::kU2E, d, r))
        << "d=" << d << " r=" << r;
  }
  // The last nodes of both axes are inside the lattice.
  EXPECT_LT(lattice.UpperBound(U2eBoundLattice::kMaxDistanceM,
                               U2eBoundLattice::kMaxRadiusM),
            1.0);
}

TEST(U2eBoundLatticeTest, OutsideTheLatticeTheBoundIsTrivial) {
  const AnalyticalModel model(kParams);
  U2eBoundLattice lattice(&model, 1e-9);
  const double past_d = std::nextafter(U2eBoundLattice::kMaxDistanceM, kInf);
  const double past_r = std::nextafter(U2eBoundLattice::kMaxRadiusM, kInf);
  for (const auto& [d, r] : std::vector<std::pair<double, double>>{
           {past_d, 1000.0}, {1e6, 1000.0}, {kInf, 1000.0},
           {kNaN, 1000.0}, {-1.0, 1000.0}, {100.0, kNaN},
           {100.0, 0.0}, {100.0, -5.0}, {100.0, past_r},
           {100.0, kInf}}) {
    EXPECT_EQ(lattice.UpperBound(d, r), 1.0) << "d=" << d << " r=" << r;
  }
  EXPECT_EQ(lattice.nodes_filled(), 0);
}

// ------------------------------------------------ stage-level identity

// A hand-built snapshot: every worker is a candidate of a task at `task`.
struct Snapshot {
  reachability::WorkerFilterSoA soa;
  std::vector<uint32_t> candidates;
  /// The same ids as one kNoCell group, the cursor's input.
  assign::CandidateRuns runs;

  void Add(geo::Point noisy, double radius) {
    const size_t i = soa.size();
    soa.Resize(i + 1);
    soa.x[i] = noisy.x;
    soa.y[i] = noisy.y;
    soa.reach_radius_m[i] = radius;
    candidates.push_back(static_cast<uint32_t>(i));
    runs.ids.push_back(static_cast<uint32_t>(i));
    runs.size = runs.ids.size();
    if (runs.groups.empty()) runs.groups.push_back({});
    runs.groups[0].count = static_cast<uint32_t>(runs.size);
  }
};

using Ranked = std::vector<std::pair<double, size_t>>;

Ranked Drain(assign::U2eRankCursor& cursor) {
  Ranked out;
  for (assign::U2eRankCursor::Entry e; cursor.Next(e);) out.push_back(e);
  return out;
}

// Rank and a drained Open agree entry for entry, bit for bit.
void ExpectCursorMatchesRank(const ReachabilityModel* model,
                             RankStrategy rank, const Snapshot& snap,
                             geo::Point task, const double* random_rank) {
  assign::U2eRankStage eager({.model = model, .rank = rank, .kernel = {}});
  assign::U2eRankStage lazy({.model = model, .rank = rank, .kernel = {}});
  Ranked want;
  eager.Rank(snap.soa, snap.candidates, task, random_rank, want);
  const Ranked got =
      Drain(lazy.Open(snap.soa, snap.runs, task, random_rank));
  ASSERT_EQ(got.size(), want.size());
  for (size_t k = 0; k < want.size(); ++k) {
    EXPECT_EQ(got[k].second, want[k].second) << "entry " << k;
    EXPECT_EQ(std::memcmp(&got[k].first, &want[k].first, sizeof(double)), 0)
        << "entry " << k;
  }
}

TEST(U2eRankCursorTest, AllTiesBreakByIdAsEagerRanking) {
  // Binary scores are 0 or 1: forty workers tie at 1 and forty at 0, with
  // ids interleaved so only the tie-break orders them.
  const BinaryModel binary;
  Snapshot snap;
  stats::Rng rng(11);
  for (int k = 0; k < 80; ++k) {
    const double d = k % 2 == 0 ? rng.UniformDouble(0.0, 900.0)
                                : rng.UniformDouble(1100.0, 5000.0);
    snap.Add({d, 0.0}, 1000.0);
  }
  ExpectCursorMatchesRank(&binary, RankStrategy::kProbability, snap, {0, 0},
                          nullptr);
  // Nearest and random with ties too: equal distances, equal priorities.
  Snapshot ring;
  std::vector<double> priority;
  for (int k = 0; k < 60; ++k) {
    ring.Add({k % 3 == 0 ? 300.0 : -300.0, 0.0}, 1000.0);
    priority.push_back(k % 4 == 0 ? 0.5 : 0.25);
  }
  ExpectCursorMatchesRank(&binary, RankStrategy::kNearest, ring, {0, 0},
                          nullptr);
  ExpectCursorMatchesRank(&binary, RankStrategy::kRandom, ring, {0, 0},
                          priority.data());
}

TEST(U2eRankCursorTest, LatticeEdgesRankAsEagerRanking) {
  const AnalyticalModel model(kParams);
  Snapshot snap;
  const geo::Point task{1000.0, -2000.0};
  const double past = U2eBoundLattice::kMaxDistanceM + 3000.0;
  // d = 0 (several, tied), exactly on distance nodes, past the last node,
  // and radii on a node, tiny, past the last node.
  for (const double r : {1000.0, 1.0, 2500.0, U2eBoundLattice::kMaxRadiusM,
                         U2eBoundLattice::kMaxRadiusM + 1000.0}) {
    snap.Add(task, r);
    snap.Add({task.x + 25.0, task.y}, r);
    snap.Add({task.x, task.y + 1250.0}, r);
    snap.Add({task.x + past, task.y}, r);
    snap.Add({task.x - 3.0, task.y + 4.0}, r);
  }
  stats::Rng rng(17);
  for (int k = 0; k < 400; ++k) {
    snap.Add({task.x + rng.UniformDouble(-8000.0, 8000.0),
              task.y + rng.UniformDouble(-8000.0, 8000.0)},
             rng.UniformDouble(1000.0, 3000.0));
  }
  ExpectCursorMatchesRank(&model, RankStrategy::kProbability, snap, task,
                          nullptr);
  // A radius of 0 scores 0 everywhere and still ranks by id.
  Snapshot zero;
  for (int k = 0; k < 20; ++k) zero.Add({task.x + 10.0 * k, task.y}, 0.0);
  ExpectCursorMatchesRank(&model, RankStrategy::kProbability, zero, task,
                          nullptr);
}

TEST(U2eRankCursorTest, NaNRadiusGetsTheTrivialBound) {
  // The binary step scores a NaN radius 0 (d <= NaN is false); its bound
  // is 1.0, so the cursor must score it rather than trust the lattice.
  const BinaryModel binary;
  Snapshot snap;
  for (int k = 0; k < 30; ++k) {
    snap.Add({50.0 * k, 0.0}, k % 3 == 0 ? kNaN : 700.0);
  }
  ExpectCursorMatchesRank(&binary, RankStrategy::kProbability, snap, {0, 0},
                          nullptr);
}

TEST(U2eRankCursorTest, ScoresFewCandidatesAndLeavesTheRestForDismissals) {
  const AnalyticalModel model(kParams);
  Snapshot snap;
  stats::Rng rng(23);
  for (int k = 0; k < 5000; ++k) {
    snap.Add({rng.UniformDouble(-6000.0, 6000.0),
              rng.UniformDouble(-6000.0, 6000.0)},
             rng.UniformDouble(1000.0, 3000.0));
  }
  assign::U2eRankStage eager({.model = &model, .kernel = {}});
  assign::U2eRankStage lazy({.model = &model, .kernel = {}});
  Ranked want;
  eager.Rank(snap.soa, snap.candidates, {0, 0}, nullptr, want);
  assign::U2eRankCursor& cursor =
      lazy.Open(snap.soa, snap.runs, {0, 0}, nullptr);
  for (size_t k = 0; k < 3; ++k) {
    assign::U2eRankCursor::Entry e;
    ASSERT_TRUE(cursor.Next(e));
    EXPECT_EQ(e, want[k]);
  }
  EXPECT_LT(lazy.exact_evals(), 100);
  EXPECT_EQ(eager.exact_evals(), 5000);
  // The entries never emitted are exactly the tail of the eager ranking.
  std::vector<size_t> rest;
  cursor.ForEachRemaining([&](size_t id) { rest.push_back(id); });
  std::sort(rest.begin(), rest.end());
  std::vector<size_t> tail;
  for (size_t k = 3; k < want.size(); ++k) tail.push_back(want[k].second);
  std::sort(tail.begin(), tail.end());
  EXPECT_EQ(rest, tail);
}

// A beta cancel consumes its tripping entry without contacting it: on an
// unassigned task that entry and every one never emitted are dismissed.
TEST(U2eRankCursorTest, CancelledTaskDismissesTrippedAndUnemitted) {
  const AnalyticalModel model(kParams);
  Snapshot snap;
  for (int k = 0; k < 12; ++k) snap.Add({300.0 * k, 0.0}, 1000.0);
  const assign::E2eContactStage e2e({.rank = RankStrategy::kProbability,
                                     .beta = 0.99,
                                     .beta_mode = BetaMode::kEveryContact,
                                     .redundancy_k = 1});
  const auto offer = [](size_t) { return true; };
  const auto reachable = [](size_t) { return true; };
  assign::U2eRankStage u2e({.model = &model, .kernel = {}});
  Ranked ranked;
  u2e.Rank(snap.soa, snap.candidates, {0, 0}, nullptr, ranked);
  ASSERT_LT(ranked.front().first, 0.99);  // The first entry trips beta.
  assign::RunMetrics by_vector;
  const auto vector_outcome =
      e2e.Run(ranked, offer, reachable, by_vector, obs::kAuditNoTask,
              assign::UnknownAdmitFilter{});
  assign::RunMetrics by_cursor;
  const auto cursor_outcome =
      e2e.Run(u2e.Open(snap.soa, snap.runs, {0, 0}, nullptr), offer,
              reachable, by_cursor, obs::kAuditNoTask,
              assign::UnknownAdmitFilter{});
  for (const auto& [o, m] : {std::pair{vector_outcome, by_vector},
                             std::pair{cursor_outcome, by_cursor}}) {
    EXPECT_TRUE(o.cancelled);
    EXPECT_EQ(o.next, 1u);
    EXPECT_EQ(o.disclosures, 0);
    EXPECT_EQ(m.false_dismissals, 12);
    EXPECT_EQ(m.assigned_tasks, 0);
  }
}

// ----------------------------------------------- engine-level identity

class CursorEngineTest : public ::testing::TestWithParam<int> {
 protected:
  static void SetUpTestSuite() {
    workload_ = new assign::Workload(fixtures::NoisyWorkload(5000, 40, 31));
    binary_ = new BinaryModel();
    analytical_ = new AnalyticalModel(kParams);
    reachability::EmpiricalModelConfig config;
    config.region = workload_->region;
    config.num_samples = 20000;
    stats::Rng rng(9);
    auto built = reachability::EmpiricalModel::Build(config, kParams, rng);
    ASSERT_TRUE(built.ok());
    empirical_ = new reachability::EmpiricalModel(std::move(*built));
  }

  static void TearDownTestSuite() {
    delete empirical_;
    delete analytical_;
    delete binary_;
    delete workload_;
  }

  static const ReachabilityModel* Model(int which) {
    switch (which) {
      case 0:
        return binary_;
      case 1:
        return analytical_;
      default:
        return empirical_;
    }
  }

  static assign::EnginePolicy Policy(const ReachabilityModel* model) {
    assign::EnginePolicy policy;
    policy.u2u_model = model;
    policy.u2e_model = model;
    policy.alpha = 0.1;
    policy.worker_params = kParams;
    policy.task_params = kParams;
    return policy;
  }

  /// The engine against the eager reference over every strategy, beta
  /// threshold and mode, and redundancy 1 and 3 — beta cancels and
  /// unassigned tasks (false dismissals) included — with the U2U scan
  /// brute (no gamma) or through the grid pruner's cell runs.
  static void ExpectEngineMatchesEagerReference(const ReachabilityModel* model,
                                                std::optional<double> gamma) {
    for (const RankStrategy rank :
         {RankStrategy::kProbability, RankStrategy::kRandom,
          RankStrategy::kNearest}) {
      for (const double beta : {0.0, 0.25, 0.9}) {
        for (const BetaMode mode :
             {BetaMode::kEveryContact, BetaMode::kFirstContactOnly}) {
          for (const int k : {1, 3}) {
            const std::string label =
                std::string(model->name()) + "/" +
                std::string(assign::RankStrategyName(rank)) +
                "/beta=" + std::to_string(beta) +
                (mode == BetaMode::kEveryContact ? "/every" : "/first") +
                "/k=" + std::to_string(k) + (gamma ? "/grid" : "/brute");
            assign::EnginePolicy policy = Policy(model);
            policy.rank = rank;
            policy.beta = beta;
            policy.beta_mode = mode;
            policy.redundancy_k = k;
            policy.pruning_gamma = gamma;
            stats::Rng engine_rng(77);
            const assign::MatchResult engine =
                assign::ScGuardEngine(policy).Run(*workload_, engine_rng);
            stats::Rng reference_rng(77);
            const assign::MatchResult reference =
                fixtures::RunEagerReference(policy, *workload_, reference_rng);
            fixtures::ExpectBitIdentical(engine, reference, label,
                                         fixtures::Compare::kOutcome);
            EXPECT_EQ(engine_rng(), reference_rng()) << label;
            if (rank == RankStrategy::kProbability && beta == 0.25) {
              EXPECT_GT(engine.metrics.assigned_tasks, 0) << label;
            }
            if (rank == RankStrategy::kProbability && beta == 0.9) {
              EXPECT_GT(engine.metrics.false_dismissals, 0) << label;
            }
          }
        }
      }
    }
  }

  static const assign::Workload* workload_;
  static const BinaryModel* binary_;
  static const AnalyticalModel* analytical_;
  static const reachability::EmpiricalModel* empirical_;
};

const assign::Workload* CursorEngineTest::workload_ = nullptr;
const BinaryModel* CursorEngineTest::binary_ = nullptr;
const AnalyticalModel* CursorEngineTest::analytical_ = nullptr;
const reachability::EmpiricalModel* CursorEngineTest::empirical_ = nullptr;

TEST_P(CursorEngineTest, EngineMatchesEagerReference) {
  ExpectEngineMatchesEagerReference(Model(GetParam()), std::nullopt);
}

// The same over the grid pruner: U2E ranks the cell runs best-first (or, for
// the empirical model, which declares no monotonicity, their flattening).
TEST_P(CursorEngineTest, GridEngineMatchesEagerReference) {
  ExpectEngineMatchesEagerReference(Model(GetParam()), 0.9);
}

std::string ModelName(const ::testing::TestParamInfo<int>& param) {
  const char* names[] = {"Binary", "Analytical", "Empirical"};
  return names[param.param];
}

INSTANTIATE_TEST_SUITE_P(Models, CursorEngineTest, ::testing::Values(0, 1, 2),
                         ModelName);

// scguard.engine.u2e_evals counts exact model evaluations: the lattice
// prunes the analytical model's, the empirical model is scored in full.
TEST_F(CursorEngineTest, U2eEvalsCounterShowsThePruning) {
  obs::ObsConfig on;
  on.enabled = true;
  obs::SetConfig(on);
  obs::Counter* evals =
      obs::MetricsRegistry::Global().GetCounter("scguard.engine.u2e_evals");
  obs::Counter* candidates =
      obs::MetricsRegistry::Global().GetCounter("scguard.engine.candidates");
  for (const ReachabilityModel* model : {Model(1), Model(2)}) {
    SCOPED_TRACE(std::string(model->name()));
    const int64_t evals_before = evals->Value();
    const int64_t candidates_before = candidates->Value();
    assign::EnginePolicy policy = Policy(model);
    policy.beta = 0.25;
    stats::Rng rng(77);
    const assign::MatchResult run =
        assign::ScGuardEngine(policy).Run(*workload_, rng);
    const int64_t u2e_evals = evals->Value() - evals_before;
    EXPECT_EQ(candidates->Value() - candidates_before,
              run.metrics.candidates_sum);
    ASSERT_GT(run.metrics.candidates_sum, 0);
    if (model == Model(1)) {
      EXPECT_GT(u2e_evals, 0);
      EXPECT_LT(u2e_evals, run.metrics.candidates_sum);
    } else {
      EXPECT_EQ(u2e_evals, run.metrics.candidates_sum);
    }
  }
  obs::SetConfig(obs::ObsConfig{});
}

// Full-audit mode drains every score, so U2E ranks the flattened runs;
// the outcome is the eager reference's all the same.
TEST_F(CursorEngineTest, FullAuditDrainMatchesEagerReferenceOnTheGrid) {
  obs::SetConfig({.enabled = true, .recorder = true, .audit_full = true});
  for (const int k : {1, 3}) {
    assign::EnginePolicy policy = Policy(Model(1));
    policy.beta = 0.25;
    policy.redundancy_k = k;
    policy.pruning_gamma = 0.9;
    stats::Rng engine_rng(78);
    const assign::MatchResult engine =
        assign::ScGuardEngine(policy).Run(*workload_, engine_rng);
    stats::Rng reference_rng(78);
    const assign::MatchResult reference =
        fixtures::RunEagerReference(policy, *workload_, reference_rng);
    fixtures::ExpectBitIdentical(engine, reference,
                                 "full audit k=" + std::to_string(k),
                                 fixtures::Compare::kOutcome);
  }
  obs::SetConfig(obs::ObsConfig{});
}

// scguard.engine.u2e_cells_expanded counts the cells the cursor opened: a
// few per task on the grid path, none on the brute path (no cells).
TEST_F(CursorEngineTest, CellsExpandedCounterCountsOpenedCells) {
  obs::SetConfig({.enabled = true});
  obs::Counter* cells = obs::MetricsRegistry::Global().GetCounter(
      "scguard.engine.u2e_cells_expanded");
  for (const bool grid : {false, true}) {
    const int64_t before = cells->Value();
    assign::EnginePolicy policy = Policy(Model(1));
    policy.beta = 0.25;
    if (grid) policy.pruning_gamma = 0.9;
    stats::Rng rng(77);
    const assign::MatchResult run =
        assign::ScGuardEngine(policy).Run(*workload_, rng);
    const int64_t opened = cells->Value() - before;
    if (grid) {
      EXPECT_GT(opened, 0);
      EXPECT_LT(opened, 40 * 8);  // A handful per task, of ~250 cells.
    } else {
      EXPECT_EQ(opened, 0);
    }
    EXPECT_GT(run.metrics.assigned_tasks, 0);
  }
  obs::SetConfig(obs::ObsConfig{});
}

// ------------------------------------------------ cell-run candidate sets

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// How one run's candidate groups split up, summed over tasks.
struct RunShape {
  int64_t row_groups = 0;    ///< Certificate-accepted cells.
  int64_t list_groups = 0;   ///< Mixed and rectangle-boundary cells.
  int64_t plain_groups = 0;  ///< Band survivors.
};

/// Checks the structure of `runs` and that every live grid row holds the
/// soa's noisy location bit for bit; returns the members in group order.
std::vector<uint32_t> CheckedMembers(const assign::CandidateRuns& runs,
                                     const reachability::WorkerFilterSoA& soa,
                                     RunShape& shape) {
  std::vector<uint32_t> members;
  for (const assign::CandidateRuns::Group& g : runs.groups) {
    EXPECT_GE(g.count, 1u);
    if (g.in_rows) {
      EXPECT_NE(g.slot, assign::CandidateRuns::kNoCell);
      ++shape.row_groups;
    } else if (g.slot == assign::CandidateRuns::kNoCell) {
      ++shape.plain_groups;
    } else {
      ++shape.list_groups;
    }
    runs.ForEachIn(g, [&](uint32_t id) { members.push_back(id); });
  }
  EXPECT_EQ(members.size(), runs.size);
  if (runs.grid != nullptr) {
    const index::GridIndex& grid = *runs.grid;
    const reachability::CellMajorMirror& rows = grid.rows();
    for (size_t slot = 0; slot < grid.num_cell_slots(); ++slot) {
      const size_t begin = grid.cell_begin(slot);
      for (size_t pos = begin; pos < begin + grid.cell_count(slot); ++pos) {
        const uint32_t id = rows.id[pos];
        EXPECT_TRUE(SameBits(rows.x[pos], soa.x[id])) << "id " << id;
        EXPECT_TRUE(SameBits(rows.y[pos], soa.y[id])) << "id " << id;
      }
    }
  }
  return members;
}

// The cursor over CollectRuns against the eager Rank over the ascending
// Collect, on the grid path, task after task under churn: acceptances
// (MarkMatched), a whole cell matched empty, relocations within and across
// cells, and reactivations (MarkAvailable). Entries and scores must agree
// bit for bit, and ForEachRemaining must leave exactly the eager tail. The
// runs' flattening equals Collect's list, and the runs themselves (group
// order included) do not depend on the pool.
TEST(CellRunCursorTest, GridStageMatchesEagerRankUnderChurn) {
  const assign::Workload workload = fixtures::NoisyWorkload(4000, 90, 41);
  const BinaryModel binary;  // All-tie scores.
  const AnalyticalModel analytical(kParams);
  std::vector<std::unique_ptr<runtime::ThreadPool>> pools;
  pools.push_back(std::make_unique<runtime::ThreadPool>(1));
  pools.push_back(std::make_unique<runtime::ThreadPool>(4));

  for (const ReachabilityModel* model :
       {static_cast<const ReachabilityModel*>(&analytical),
        static_cast<const ReachabilityModel*>(&binary)}) {
    for (const int shard_size : {64, 4096}) {
      std::vector<std::vector<uint32_t>> first_pool_runs;
      for (const auto& pool : pools) {
        const std::string label = std::string(model->name()) +
                                  " threads=" +
                                  std::to_string(pool->num_threads()) +
                                  " shard=" + std::to_string(shard_size);
        assign::U2uCandidateStage::Config config;
        config.model = model;
        config.alpha = 0.1;
        config.runtime = {.pool = pool.get(), .shard_size = shard_size};
        config.pruning = assign::U2uCandidateStage::Pruning{
            0.9, index::PrunerBackend::kGrid, kParams, kParams,
            workload.region};
        assign::U2uCandidateStage stage(config);
        for (const assign::Worker& w : workload.workers) {
          stage.AddWorker(w.noisy_location, w.reach_radius_m);
        }
        assign::U2eRankStage eager({.model = model, .kernel = {}});
        assign::U2eRankStage lazy({.model = model, .kernel = {}});
        stats::Rng rng(5);
        std::vector<uint32_t> matched;
        std::vector<std::vector<uint32_t>> pool_runs;
        RunShape shape;
        int64_t cell_groups = 0;
        bool emptied = false;
        for (size_t t = 0; t < workload.tasks.size(); ++t) {
          const std::string at = label + " task=" + std::to_string(t);
          const geo::Point noisy = workload.tasks[t].noisy_location;
          const geo::Point exact = workload.tasks[t].location;
          const RunShape before = shape;
          std::vector<uint32_t> members =
              CheckedMembers(stage.CollectRuns(noisy), stage.soa(), shape);
          cell_groups += shape.row_groups - before.row_groups +
                         shape.list_groups - before.list_groups;
          pool_runs.push_back(members);
          std::sort(members.begin(), members.end());
          const std::vector<uint32_t> list = stage.Collect(noisy);
          ASSERT_EQ(members, list) << at;

          Ranked want;
          eager.Rank(stage.soa(), list, exact, nullptr, want);
          const assign::CandidateRuns& runs = stage.CollectRuns(noisy);
          if (t % 4 == 0) {
            const Ranked all =
                Drain(lazy.Open(stage.soa(), runs, exact, nullptr));
            ASSERT_EQ(all.size(), want.size()) << at;
            for (size_t k = 0; k < want.size(); ++k) {
              EXPECT_EQ(all[k].second, want[k].second) << at << " @" << k;
              EXPECT_TRUE(SameBits(all[k].first, want[k].first))
                  << at << " @" << k;
            }
          }
          assign::U2eRankCursor& cursor =
              lazy.Open(stage.soa(), runs, exact, nullptr);
          const size_t take = std::min<size_t>(want.size(), 3);
          for (size_t k = 0; k < take; ++k) {
            assign::U2eRankCursor::Entry e;
            ASSERT_TRUE(cursor.Next(e)) << at;
            EXPECT_EQ(e.second, want[k].second) << at << " @" << k;
            EXPECT_TRUE(SameBits(e.first, want[k].first)) << at << " @" << k;
          }
          std::vector<size_t> rest;
          cursor.ForEachRemaining([&](size_t id) { rest.push_back(id); });
          std::sort(rest.begin(), rest.end());
          std::vector<size_t> tail;
          for (size_t k = take; k < want.size(); ++k) {
            tail.push_back(want[k].second);
          }
          std::sort(tail.begin(), tail.end());
          EXPECT_EQ(rest, tail) << at;

          // Churn. Accept the top one to three ranked workers.
          const uint64_t accept = 1 + rng.UniformInt(3);
          for (size_t k = 0; k < want.size() && k < accept; ++k) {
            const auto id = static_cast<uint32_t>(want[k].second);
            stage.MarkMatched(id);
            matched.push_back(id);
          }
          // Once, match every member of a cell this task opened rows of.
          if (!emptied) {
            for (const assign::CandidateRuns::Group& g : runs.groups) {
              if (!g.in_rows) continue;
              std::vector<uint32_t> cell;
              runs.ForEachIn(g, [&](uint32_t id) { cell.push_back(id); });
              const index::GridIndex& grid = *runs.grid;
              if (grid.cell_count(g.slot) != cell.size()) continue;
              const uint32_t slot = g.slot;
              for (const uint32_t id : cell) {
                stage.MarkMatched(id);
                matched.push_back(id);
              }
              EXPECT_EQ(grid.cell_count(slot), 0u) << at;
              emptied = true;
              break;
            }
          }
          // Relocate: small moves mostly stay in their cell, random ones
          // cross cells.
          for (int r = 0; r < 6; ++r) {
            const auto w =
                static_cast<uint32_t>(rng.UniformInt(workload.workers.size()));
            geo::Point p{stage.soa().x[w], stage.soa().y[w]};
            if (r % 2 == 0) {
              p.x += rng.UniformDouble(-5.0, 5.0);
              p.y += rng.UniformDouble(-5.0, 5.0);
            } else {
              p = {rng.UniformDouble(0.0, 20000.0),
                   rng.UniformDouble(0.0, 20000.0)};
            }
            stage.UpdateWorkerLocation(w, p);
          }
          if (!matched.empty() && rng.UniformDouble() < 0.4) {
            stage.MarkAvailable(matched.front());
            matched.erase(matched.begin());
          }
        }
        EXPECT_TRUE(emptied) << label;
        EXPECT_GT(shape.row_groups, 0) << label;
        EXPECT_GT(shape.list_groups, 0) << label;
        if (model == &analytical) {
          EXPECT_GT(shape.plain_groups, 0) << label;
          // Best-first: most cells are never opened.
          EXPECT_LT(lazy.cells_expanded(), cell_groups / 2) << label;
        }
        if (first_pool_runs.empty()) {
          first_pool_runs = pool_runs;
        } else {
          EXPECT_EQ(pool_runs, first_pool_runs) << label;
        }
      }
    }
  }
}

/// A monotone-declared model under which a NaN radius reaches everything
/// (score 1) and any other radius scores r / (r + d), positive everywhere:
/// a cell bound that dropped a NaN member's radius would stay below the
/// nearer members' scores and rank the NaN member after them.
class NaNReachesModel final : public ReachabilityModel {
 public:
  double ProbReachable(Stage, double d, double r) const override {
    if (std::isnan(r)) return 1.0;
    return r > 0.0 ? r / (r + d) : 0.0;
  }
  bool Monotone(Stage) const override { return true; }
  std::string_view name() const override { return "nan-reaches"; }
};

// The cell-level NaNRadiusGetsTheTrivialBound: a cell holding a NaN-radius
// member has max_reach_r = +inf, hence the trivial bound 1.0, so the cursor
// opens it before trusting any lower bound.
TEST(CellRunCursorTest, NaNRadiusCellGetsTheTrivialBound) {
  const geo::BoundingBox region =
      geo::BoundingBox::FromCorners({0, 0}, {4000, 4000});
  reachability::WorkerFilterSoA soa;
  const size_t n = 80;
  soa.Resize(n);
  soa.accept_below_sq.assign(n, -1.0);
  soa.reject_above_sq.assign(n, 0.0);
  stats::Rng rng(19);
  for (size_t i = 0; i < n; ++i) {
    soa.x[i] = rng.UniformDouble(0.0, 4000.0);
    soa.y[i] = rng.UniformDouble(0.0, 4000.0);
    soa.reach_radius_m[i] = i % 7 == 3 ? kNaN : rng.UniformDouble(50.0, 300.0);
  }
  index::GridIndex grid(region, 4);
  grid.BulkLoad(n, [&](size_t i) {
    // The rectangle radius stays finite whatever the reach radius says.
    return index::GridIndex::Row{static_cast<uint32_t>(i),
                                 {soa.x[i], soa.y[i]},
                                 500.0,
                                 soa.accept_below_sq[i],
                                 soa.reject_above_sq[i],
                                 soa.reach_radius_m[i]};
  });
  assign::CandidateRuns runs;
  runs.grid = &grid;
  std::vector<uint32_t> flat;
  int nan_cells = 0;
  for (size_t slot = 0; slot < grid.num_cell_slots(); ++slot) {
    const uint32_t count = grid.cell_count(slot);
    if (count == 0) continue;
    runs.groups.push_back({grid.cell_begin(slot), count,
                           static_cast<uint32_t>(slot), true});
    runs.size += count;
    bool has_nan = false;
    runs.ForEachIn(runs.groups.back(), [&](uint32_t id) {
      flat.push_back(id);
      has_nan = has_nan || std::isnan(soa.reach_radius_m[id]);
    });
    if (has_nan) {
      ++nan_cells;
      EXPECT_EQ(grid.cell_agg(slot).max_reach_r, kInf) << slot;
    } else {
      EXPECT_LT(grid.cell_agg(slot).max_reach_r, 300.0) << slot;
    }
  }
  ASSERT_GT(nan_cells, 0);
  const NaNReachesModel model;
  for (const geo::Point task : {geo::Point{100, 100}, geo::Point{2000, 2000},
                                geo::Point{3900, 200}}) {
    assign::U2eRankStage eager({.model = &model, .kernel = {}});
    assign::U2eRankStage lazy({.model = &model, .kernel = {}});
    Ranked want;
    eager.Rank(soa, flat, task, nullptr, want);
    ASSERT_EQ(want.front().first, 1.0);
    const Ranked got = Drain(lazy.Open(soa, runs, task, nullptr));
    ASSERT_EQ(got.size(), want.size());
    for (size_t k = 0; k < want.size(); ++k) {
      EXPECT_EQ(got[k].second, want[k].second) << "entry " << k;
      EXPECT_TRUE(SameBits(got[k].first, want[k].first)) << "entry " << k;
    }
  }
}

}  // namespace
}  // namespace scguard
