#ifndef SCGUARD_INDEX_PRUNING_H_
#define SCGUARD_INDEX_PRUNING_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "geo/bbox.h"
#include "geo/point.h"
#include "privacy/privacy_params.h"

namespace scguard::index {

/// Index backend used by the U2U pruner.
enum class PrunerBackend { kLinearScan, kGrid };

constexpr std::string_view PrunerBackendName(PrunerBackend b) {
  switch (b) {
    case PrunerBackend::kLinearScan:
      return "linear";
    case PrunerBackend::kGrid:
      return "grid";
  }
  return "?";
}

/// The U2U pruning optimization of paper Sec. IV-C1.
///
/// Each perturbed worker location is expanded to the rectangle bounding
/// disk(l_w', r_R + R_w) and each perturbed task to disk(l_t', r_R), where
/// r_R is the Geo-I confidence radius at level gamma. If the rectangles do
/// not overlap, the pair is reachable with probability < gamma and is
/// pruned before any probability evaluation. The pruner is conservative:
/// it may keep unreachable workers but never drops a pair whose disks
/// overlap.
///
/// This class holds the confidence radii and the linear MBR scan, the
/// reference the grid backend is checked against. The grid backend stores
/// its rows in a GridIndex the U2U stage owns; the stage passes such a
/// pruner no workers and reads only its radii.
class UncertainRegionPruner {
 public:
  struct WorkerRegion {
    int64_t worker_id = 0;
    geo::Point noisy_location;
    double reach_radius_m = 0.0;
  };

  /// `workers[i].worker_id` must be i. `gamma` in (0,1): confidence that a
  /// true location lies within the expanded disk of its observation.
  /// `region` bounds the deployment area (the grid mechanisms size their
  /// confidence radius over it; pass the workload bounding box).
  UncertainRegionPruner(std::vector<WorkerRegion> workers,
                        const privacy::PrivacyParams& worker_params,
                        const privacy::PrivacyParams& task_params,
                        double gamma, const geo::BoundingBox& region);

  /// Ids of the workers not removed whose expanded rectangle intersects
  /// the task's rectangle, in ascending id order.
  std::vector<int64_t> Candidates(geo::Point task_noisy_location) const;

  /// As above into a caller-owned scratch vector (cleared first): the
  /// engine calls this once per task, so the per-task allocation of the
  /// returning overload is hoisted into the caller.
  void Candidates(geo::Point task_noisy_location,
                  std::vector<int64_t>& out) const;

  /// Drops a worker from future Candidates results (the engine calls this
  /// when a worker accepts a task — DESIGN.md section 9). Idempotent.
  /// `worker_id` must be in [0, workers) for this and the two below.
  void Remove(int64_t worker_id);

  /// Re-centers a worker's expanded disk at a new noisy location (dynamic
  /// re-reporting; the reach radius stays fixed). A worker currently
  /// Removed keeps its new location for a later Restore.
  void Relocate(int64_t worker_id, geo::Point new_noisy_location);

  /// Reverses a Remove: the worker rejoins future Candidates results at
  /// its current recorded location (reactivation when a matched worker
  /// re-reports). Idempotent.
  void Restore(int64_t worker_id);

  /// The query rectangle Candidates builds for a task observation
  /// (`FromCircle(task, task_confidence_radius_m)`), exposed so the grid
  /// walk certifies cells against the exact box the linear scan uses.
  geo::BoundingBox TaskQueryBox(geo::Point task_noisy_location) const {
    return geo::BoundingBox::FromCircle(task_noisy_location, r_r_task_);
  }

  /// Confidence radius applied to worker observations.
  double worker_confidence_radius_m() const { return r_r_worker_; }
  /// Confidence radius applied to task observations.
  double task_confidence_radius_m() const { return r_r_task_; }

 private:
  /// The position of `worker_id`, which must be in [0, workers) (checked).
  size_t IndexOf(int64_t worker_id) const;

  std::vector<WorkerRegion> workers_;
  double r_r_worker_;
  double r_r_task_;
  std::vector<uint8_t> removed_;  ///< 1 while the worker is Removed.
};

}  // namespace scguard::index

#endif  // SCGUARD_INDEX_PRUNING_H_
