#include "index/pruning.h"

#include <utility>

#include "common/check.h"
#include "privacy/mechanism.h"

namespace scguard::index {
namespace {

// Uncertainty radius of the *configured* mechanism: planar Laplace uses the
// closed form of Andrés et al.; grid mechanisms report a conservative
// discrete quantile. Either way the rectangles cover the true location with
// probability >= gamma, which is what keeps pruning sound.
double MechanismConfidenceRadius(const privacy::PrivacyParams& params,
                                 double gamma,
                                 const geo::BoundingBox& region) {
  return privacy::MakeMechanismOrDie(params, region)->ConfidenceRadius(gamma);
}

}  // namespace

UncertainRegionPruner::UncertainRegionPruner(
    std::vector<WorkerRegion> workers,
    const privacy::PrivacyParams& worker_params,
    const privacy::PrivacyParams& task_params, double gamma,
    const geo::BoundingBox& region)
    : workers_(std::move(workers)),
      r_r_worker_(MechanismConfidenceRadius(worker_params, gamma, region)),
      r_r_task_(MechanismConfidenceRadius(task_params, gamma, region)),
      removed_(workers_.size(), 0) {
  SCGUARD_CHECK(gamma > 0.0 && gamma < 1.0);
}

std::vector<int64_t> UncertainRegionPruner::Candidates(
    geo::Point task_noisy_location) const {
  std::vector<int64_t> out;
  Candidates(task_noisy_location, out);
  return out;
}

void UncertainRegionPruner::Candidates(geo::Point task_noisy_location,
                                       std::vector<int64_t>& out) const {
  out.clear();
  const geo::BoundingBox task_box = TaskQueryBox(task_noisy_location);
  // Ids are the positions, so the scan emits them ascending.
  for (size_t i = 0; i < workers_.size(); ++i) {
    const WorkerRegion& w = workers_[i];
    const geo::BoundingBox worker_box = geo::BoundingBox::FromCircle(
        w.noisy_location, r_r_worker_ + w.reach_radius_m);
    if (removed_[i] == 0 && worker_box.Intersects(task_box)) {
      out.push_back(w.worker_id);
    }
  }
}

size_t UncertainRegionPruner::IndexOf(int64_t worker_id) const {
  SCGUARD_CHECK(worker_id >= 0 &&
                static_cast<size_t>(worker_id) < workers_.size());
  const auto i = static_cast<size_t>(worker_id);
  SCGUARD_DCHECK(workers_[i].worker_id == worker_id);
  return i;
}

void UncertainRegionPruner::Remove(int64_t worker_id) {
  removed_[IndexOf(worker_id)] = 1;
}

void UncertainRegionPruner::Relocate(int64_t worker_id,
                                     geo::Point new_noisy_location) {
  workers_[IndexOf(worker_id)].noisy_location = new_noisy_location;
}

void UncertainRegionPruner::Restore(int64_t worker_id) {
  removed_[IndexOf(worker_id)] = 0;
}

}  // namespace scguard::index
