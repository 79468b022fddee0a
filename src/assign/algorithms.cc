#include "assign/algorithms.h"

#include <utility>

#include "assign/ground_truth.h"
#include "assign/scguard_engine.h"
#include "common/check.h"
#include "common/str_format.h"
#include "reachability/binary_model.h"

namespace scguard::assign {
namespace {

EnginePolicy BasePolicy(const AlgorithmParams& params) {
  EnginePolicy policy;
  policy.worker_params = params.worker_params;
  policy.task_params = params.task_params;
  policy.redundancy_k = params.redundancy_k;
  policy.pruning_gamma = params.pruning_gamma;
  policy.pruning_backend = params.pruning_backend;
  return policy;
}

}  // namespace

MatcherHandle MakeGroundTruth(RankStrategy strategy) {
  MatcherHandle handle;
  handle.matcher = std::make_unique<GroundTruthMatcher>(strategy);
  return handle;
}

MatcherHandle MakeOblivious(RankStrategy strategy, const AlgorithmParams& params) {
  SCGUARD_CHECK(strategy == RankStrategy::kRandom ||
                strategy == RankStrategy::kNearest);
  auto binary = std::make_shared<const reachability::BinaryModel>();
  EnginePolicy policy = BasePolicy(params);
  policy.u2u_model = binary.get();
  policy.u2e_model = binary.get();
  // Any alpha in (0, 1] reproduces the d' <= R_w test on a 0/1 model; no
  // beta (Alg. 1 is exhaustive best-effort).
  policy.alpha = 0.5;
  policy.beta = 0.0;
  policy.rank = strategy;
  policy.name = StrCat("Oblivious-", strategy == RankStrategy::kRandom ? "RR" : "RN");
  MatcherHandle handle;
  handle.models.push_back(binary);
  handle.matcher = std::make_unique<ScGuardEngine>(std::move(policy));
  return handle;
}

MatcherHandle MakeProbabilisticModel(const AlgorithmParams& params) {
  auto model = std::make_shared<const reachability::AnalyticalModel>(
      params.worker_params, params.task_params, params.analytical_mode);
  EnginePolicy policy = BasePolicy(params);
  policy.u2u_model = model.get();
  policy.u2e_model = model.get();
  policy.alpha = params.alpha;
  policy.beta = params.beta;
  policy.beta_mode = params.beta_mode;
  policy.rank = RankStrategy::kProbability;
  policy.name = "Probabilistic-Model";
  MatcherHandle handle;
  handle.models.push_back(model);
  handle.matcher = std::make_unique<ScGuardEngine>(std::move(policy));
  return handle;
}

MatcherHandle MakeProbabilisticData(
    const AlgorithmParams& params,
    std::shared_ptr<const reachability::EmpiricalModel> model) {
  SCGUARD_CHECK(model != nullptr);
  EnginePolicy policy = BasePolicy(params);
  policy.u2u_model = model.get();
  policy.u2e_model = model.get();
  policy.alpha = params.alpha;
  policy.beta = params.beta;
  policy.beta_mode = params.beta_mode;
  policy.rank = RankStrategy::kProbability;
  policy.name = "Probabilistic-Data";
  MatcherHandle handle;
  handle.models.push_back(std::move(model));
  handle.matcher = std::make_unique<ScGuardEngine>(std::move(policy));
  return handle;
}

}  // namespace scguard::assign
