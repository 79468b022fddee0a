#ifndef SCGUARD_INDEX_PRUNING_H_
#define SCGUARD_INDEX_PRUNING_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "geo/bbox.h"
#include "geo/point.h"
#include "index/grid_index.h"
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
class UncertainRegionPruner {
 public:
  struct WorkerRegion {
    int64_t worker_id = 0;
    geo::Point noisy_location;
    double reach_radius_m = 0.0;
  };

  /// `gamma` in (0,1): confidence that a true location lies within the
  /// expanded disk of its observation. `region` bounds the deployment area
  /// (needed by the grid backend; pass the workload bounding box).
  UncertainRegionPruner(std::vector<WorkerRegion> workers,
                        const privacy::PrivacyParams& worker_params,
                        const privacy::PrivacyParams& task_params,
                        double gamma, PrunerBackend backend,
                        const geo::BoundingBox& region);

  /// Worker ids whose expanded rectangle intersects the task's rectangle,
  /// in ascending id order (every backend sorts or preserves insertion
  /// order, so callers that need determinism don't re-sort).
  std::vector<int64_t> Candidates(geo::Point task_noisy_location) const;

  /// As above into a caller-owned scratch vector (cleared first): the
  /// engine calls this once per task, so the per-task allocation of the
  /// returning overload is hoisted into the caller.
  void Candidates(geo::Point task_noisy_location,
                  std::vector<int64_t>& out) const;

  /// Permanently drops a worker from future Candidates results (the engine
  /// calls this when a worker accepts a task, so pruned queries stop
  /// returning matched workers — DESIGN.md section 9). Idempotent; removing
  /// an unknown id is a no-op. The grid backend compacts the entry out of
  /// its cell (and refreshes that cell's certification aggregates); the
  /// linear backend filters at query time.
  void Remove(int64_t worker_id);

  /// Re-centers a worker's expanded disk at a new noisy location (dynamic
  /// re-reporting; the reach radius stays fixed). The grid backend moves
  /// the entry incrementally (GridIndex::Relocate — O(cell) for the common
  /// same-cell move); the linear backend updates the stored region, which
  /// Candidates scans directly. An unknown id is a no-op. A worker
  /// currently Removed keeps its new location for a later Restore.
  void Relocate(int64_t worker_id, geo::Point new_noisy_location);

  /// Reverses a Remove: the worker rejoins future Candidates results at
  /// its current recorded location (reactivation when a matched worker
  /// re-reports). Idempotent; an unknown id is a no-op.
  void Restore(int64_t worker_id);

  /// The query rectangle Candidates builds for a task observation
  /// (`FromCircle(task, task_confidence_radius_m)`), exposed so the
  /// cell-major mirror path can drive the grid's cell walk itself with the
  /// exact box the id query would use.
  geo::BoundingBox TaskQueryBox(geo::Point task_noisy_location) const {
    return geo::BoundingBox::FromCircle(task_noisy_location, r_r_task_);
  }

  /// The grid backend's index (nullptr for the linear backend); the
  /// cell-major scoring mirror attaches to it. Stays owned by the pruner.
  GridIndex* grid() const { return grid_.get(); }

  /// Confidence radius applied to worker observations.
  double worker_confidence_radius_m() const { return r_r_worker_; }
  /// Confidence radius applied to task observations.
  double task_confidence_radius_m() const { return r_r_task_; }
  PrunerBackend backend() const { return backend_; }

  /// Cumulative cell-certification counters of the grid backend's queries
  /// (DESIGN.md §11); nullptr for the linear backend.
  const GridIndex::QueryStats* grid_query_stats() const {
    return grid_ != nullptr ? &grid_->stats() : nullptr;
  }

 private:
  /// The stored region of `worker_id`, or nullptr when unknown. O(1) for
  /// the engine's dense registration order (workers_[id].worker_id == id),
  /// linear probe otherwise.
  WorkerRegion* FindWorker(int64_t worker_id);

  std::vector<WorkerRegion> workers_;
  double r_r_worker_;
  double r_r_task_;
  PrunerBackend backend_;
  std::unique_ptr<GridIndex> grid_;
  // Removed ids for the linear backend (no native removal); empty unless
  // Remove was called, so untouched pruners pay nothing.
  std::unordered_set<int64_t> removed_;
};

}  // namespace scguard::index

#endif  // SCGUARD_INDEX_PRUNING_H_
