#ifndef SCGUARD_ASSIGN_ALGORITHMS_H_
#define SCGUARD_ASSIGN_ALGORITHMS_H_

#include <memory>
#include <optional>
#include <vector>

#include "assign/matcher.h"
#include "assign/stages/rank_stage.h"
#include "index/pruning.h"
#include "privacy/privacy_params.h"
#include "reachability/analytical_model.h"
#include "reachability/empirical_model.h"

namespace scguard::assign {

/// A ready-to-run matcher together with the reachability models it uses
/// (kept alive alongside it).
struct MatcherHandle {
  std::unique_ptr<OnlineMatcher> matcher;
  std::vector<std::shared_ptr<const reachability::ReachabilityModel>> models;

  MatchResult Run(const Workload& workload, stats::Rng& rng) {
    return matcher->Run(workload, rng);
  }
  std::string name() const { return matcher->name(); }
};

/// Tunables common to the paper's private algorithms (defaults are the
/// paper's boldface defaults of Sec. V-A).
struct AlgorithmParams {
  privacy::PrivacyParams worker_params;
  privacy::PrivacyParams task_params;
  double alpha = 0.1;   ///< U2U threshold (probability-based only).
  double beta = 0.25;   ///< U2E threshold (probability-based only).
  BetaMode beta_mode = BetaMode::kEveryContact;
  int redundancy_k = 1;
  std::optional<double> pruning_gamma;  ///< Enable Sec. IV-C1 pruning.
  index::PrunerBackend pruning_backend = index::PrunerBackend::kGrid;
  reachability::AnalyticalMode analytical_mode =
      reachability::AnalyticalMode::kPaperNormalApprox;
};

/// GroundTruth-RR / GroundTruth-NN: the non-private Ranking upper bound.
MatcherHandle MakeGroundTruth(RankStrategy strategy);

/// Oblivious-RR / Oblivious-RN (Algorithm 1): noisy locations treated as
/// exact; `strategy` must be kRandom (RR) or kNearest (RN).
MatcherHandle MakeOblivious(RankStrategy strategy, const AlgorithmParams& params);

/// Probabilistic-Model (Algorithm 2 with the analytical reachability model
/// of Sec. IV-B1).
MatcherHandle MakeProbabilisticModel(const AlgorithmParams& params);

/// Probabilistic-Data (Algorithm 2 with the empirical model of
/// Sec. IV-B2). The empirical model is built (or loaded) by the caller —
/// it is shared because precomputation is the expensive part.
MatcherHandle MakeProbabilisticData(
    const AlgorithmParams& params,
    std::shared_ptr<const reachability::EmpiricalModel> model);

}  // namespace scguard::assign

#endif  // SCGUARD_ASSIGN_ALGORITHMS_H_
