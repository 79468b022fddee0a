#include "index/pruning.h"

#include <algorithm>
#include <cmath>
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
    PrunerBackend backend, const geo::BoundingBox& region)
    : workers_(std::move(workers)),
      r_r_worker_(MechanismConfidenceRadius(worker_params, gamma, region)),
      r_r_task_(MechanismConfidenceRadius(task_params, gamma, region)),
      backend_(backend) {
  SCGUARD_CHECK(gamma > 0.0 && gamma < 1.0);
  if (backend_ == PrunerBackend::kLinearScan) return;

  // The expanded worker rectangles can stick out beyond the deployment
  // region; grow the grid region accordingly so border cells stay balanced.
  geo::BoundingBox grid_region = region;
  double max_extent = r_r_worker_;
  for (const auto& w : workers_) {
    max_extent = std::max(max_extent, r_r_worker_ + w.reach_radius_m);
  }
  grid_region.Extend(geo::Point{region.min_x - max_extent, region.min_y - max_extent});
  grid_region.Extend(geo::Point{region.max_x + max_extent, region.max_y + max_extent});

  // Density-adaptive resolution (a perf-only knob: certification is exact
  // at any resolution): target ~64 entries per cell so boundary-cell
  // member tests stay short at a million workers without flooding small
  // workloads with empty cells.
  const int cells_per_axis = std::clamp(
      static_cast<int>(std::ceil(
          std::sqrt(static_cast<double>(workers_.size()) / 64.0))),
      16, 512);
  grid_ = std::make_unique<GridIndex>(grid_region, cells_per_axis);
  grid_->BulkLoad(workers_.size(), [this](size_t i) {
    const WorkerRegion& w = workers_[i];
    return GridIndex::Entry{w.noisy_location, r_r_worker_ + w.reach_radius_m,
                            w.worker_id};
  });
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
  if (backend_ == PrunerBackend::kGrid) {
    // Removal is native (GridIndex::Remove compacts the cell), the k-way
    // merge emits ascending ids, and nothing here consumes `removed_`: the
    // grid path pays no per-result hash probe and no per-query sort. The
    // debug check keeps a future regression loud in tests instead of
    // silently resurfacing the sort cost.
    grid_->Query(task_box, out);
    SCGUARD_DCHECK(std::is_sorted(out.begin(), out.end()));
    return;
  }
  // Linear scan: emits in insertion order; when construction passed ids in
  // ascending order (as the engine does) the sort below is a no-op pass.
  for (const auto& w : workers_) {
    const geo::BoundingBox worker_box = geo::BoundingBox::FromCircle(
        w.noisy_location, r_r_worker_ + w.reach_radius_m);
    if (worker_box.Intersects(task_box)) out.push_back(w.worker_id);
  }
  if (!removed_.empty()) {
    out.erase(std::remove_if(out.begin(), out.end(),
                             [this](int64_t id) {
                               return removed_.find(id) != removed_.end();
                             }),
              out.end());
  }
  if (!std::is_sorted(out.begin(), out.end())) {
    std::sort(out.begin(), out.end());
  }
}

void UncertainRegionPruner::Remove(int64_t worker_id) {
  if (backend_ == PrunerBackend::kGrid) {
    grid_->Remove(worker_id);
    return;
  }
  removed_.insert(worker_id);
}

UncertainRegionPruner::WorkerRegion* UncertainRegionPruner::FindWorker(
    int64_t worker_id) {
  if (worker_id >= 0 &&
      static_cast<size_t>(worker_id) < workers_.size() &&
      workers_[static_cast<size_t>(worker_id)].worker_id == worker_id) {
    return &workers_[static_cast<size_t>(worker_id)];
  }
  for (auto& w : workers_) {
    if (w.worker_id == worker_id) return &w;
  }
  return nullptr;
}

void UncertainRegionPruner::Relocate(int64_t worker_id,
                                     geo::Point new_noisy_location) {
  WorkerRegion* w = FindWorker(worker_id);
  if (w == nullptr) return;
  // The linear backend's Candidates scans the updated record directly.
  w->noisy_location = new_noisy_location;
  // 0 entries moved means the worker is currently Removed (matched); the
  // record update above makes a later Restore insert at the new location,
  // which is all a removed worker needs.
  if (backend_ == PrunerBackend::kGrid) {
    grid_->Relocate(worker_id, new_noisy_location);
  }
}

void UncertainRegionPruner::Restore(int64_t worker_id) {
  const WorkerRegion* w = FindWorker(worker_id);
  if (w == nullptr) return;
  if (backend_ == PrunerBackend::kGrid) {
    if (!grid_->Contains(worker_id)) {
      grid_->Insert(w->noisy_location, r_r_worker_ + w->reach_radius_m,
                    worker_id);
    }
    return;
  }
  removed_.erase(worker_id);
}

}  // namespace scguard::index
