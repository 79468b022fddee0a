#ifndef SCGUARD_INDEX_GRID_INDEX_H_
#define SCGUARD_INDEX_GRID_INDEX_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "geo/bbox.h"
#include "geo/point.h"
#include "reachability/kernel.h"

namespace scguard::index {

/// A uniform grid over a fixed region holding one member row per worker:
/// the expanded uncertainty disk of the U2U pruner (paper Sec. IV-C1) plus
/// the scoring columns the U2U and U2E stages read. Each row lives in
/// exactly one cell (the cell containing its center). The rows are the one
/// row store of the scan (DESIGN.md §13): a reachability::CellMajorMirror
/// whose cells are compacted, ascending-id slices.
///
/// Every cell carries two aggregates, both recomputed in one pass over the
/// slice when a member leaves or moves inside the cell, and both extended
/// in O(1) when a member is inserted:
///  * the rectangle `Agg` (DESIGN.md §11): the *cover* box (union of the
///    members' expanded rectangles; when it misses a query, no member can
///    intersect and the cell is skipped without touching rows) and the
///    *core* bounds (the componentwise worst-case member rectangle; when
///    even it intersects the query, every member does, and the cell is
///    bulk-accepted). Only boundary cells need the per-member rectangle
///    test, which is bit-identical to
///    `BoundingBox::FromCircle(center, r).Intersects(q)`;
///  * the alpha / U2E `CellAgg`: the member box, the worst-case certain
///    bands and the largest reach radius, read by Certify and by the U2E
///    cell bound.
///
/// The grid also keeps the alpha reach h (alpha_reach_m): no row can pass
/// alpha for a task more than h away from it in either axis, so a task's
/// walk visits only the rectangle range intersected with the cells within
/// h of the task, plus one cell of slack (DESIGN.md §11).
///
/// Ids are dense uint32 worker indices with at most one row each. Sized
/// for the city-scale, roughly uniform extents SCGuard deals with; it
/// answers the same query contract as the U2U pruner's linear MBR scan
/// (compared in bench_ablation_pruning).
class GridIndex {
 public:
  /// Cumulative query-side certification accounting (reset with
  /// ResetStats). Mutable scratch: walks on one index must not run
  /// concurrently (the stage walks serially and fans the classification of
  /// the result out, never the walk itself).
  struct QueryStats {
    int64_t cells_bulk_accepted = 0;  ///< Whole slice admitted.
    int64_t cells_skipped = 0;        ///< Non-empty cell, zero work.
    int64_t cells_boundary = 0;       ///< Fell through to member tests.
    int64_t boundary_workers = 0;     ///< Members tested individually.
    /// Cells of the rectangle range a task walk's alpha clip left out,
    /// empty ones included (zero for task-less walks).
    int64_t cells_clipped = 0;
  };

  /// Rectangle certification of one cell against one query.
  enum class CellCert { kSkipped, kBulkAccepted, kBoundary };

  /// Conservative cell-level alpha certificate for one task location:
  /// kAllAccept / kAllReject mean *every* member of the cell lands in the
  /// scalar kernel's certain-accept / certain-reject region, so the cell
  /// resolves with zero per-worker loads and zero band evaluations —
  /// exactly what the per-member trichotomy would have decided. kMixed
  /// means the cell must be classified member by member.
  enum class CellAlpha { kMixed, kAllAccept, kAllReject };

  /// One member row, as BulkLoad and Insert take it: the worker's noisy
  /// center, the pruner's expanded rectangle radius, its certain bands and
  /// its reach radius.
  struct Row {
    uint32_t id = 0;
    geo::Point center;
    double expanded_r = 0.0;
    double accept_below_sq = 0.0;
    double reject_above_sq = 0.0;
    double reach_radius_m = 0.0;
  };

  /// The rectangle aggregate the walk reads — exactly one cache line per
  /// cell. All components are computed with the same floating-point
  /// operations as the per-member rectangle `FromCircle(center, r)` —
  /// `fl(c - r)` / `fl(c + r)` — and min/max are exact, so certification
  /// agrees bit-for-bit with the member-by-member test it replaces. An
  /// empty cell keeps the reset sentinels (cover_max_x = -inf), which the
  /// skip test rejects before any row is touched.
  struct alignas(64) Agg {
    // Cover box: union of member rectangles (skip test).
    double cover_min_x, cover_min_y, cover_max_x, cover_max_y;
    // Core aggregates: max lower / min upper member bounds (bulk-accept
    // test: the query must catch even the worst member on every side).
    double core_max_lo_x, core_max_lo_y, core_min_hi_x, core_min_hi_y;

    Agg() { Reset(); }
    void Reset();
    void Accumulate(double cx, double cy, double cr);
  };
  static_assert(sizeof(Agg) == 64);

  /// The alpha / U2E aggregate: the member x/y bounding box, the cell-wide
  /// worst-case certain-band bounds, and the largest member reach radius
  /// (+inf when any member's radius is NaN, so a bound taken at it is the
  /// trivial one). The U2E cell bound reads the box and the radius.
  struct CellAgg {
    double min_x = 0.0, max_x = -1.0;  // Empty sentinel: max < min.
    double min_y = 0.0, max_y = -1.0;
    double min_accept_sq = 0.0;
    double max_reject_sq = 0.0;
    double max_reach_r = 0.0;

    /// Extends the aggregate by one member (the first one sets every
    /// bound).
    void Add(double x, double y, double accept_below_sq,
             double reject_above_sq, double reach_radius_m);
  };

  /// `region` must be non-empty; `cells_per_axis` >= 1. Rows centered
  /// beyond the region are clamped to the border cells.
  GridIndex(const geo::BoundingBox& region, int cells_per_axis);

  /// Loads `n` rows into a freshly constructed index in one pass: a
  /// counting pass assigns every row its cell, slices are laid out as a
  /// re-layout lays them out (row-major, SliceCapacityFor(count) headroom
  /// each), and one fill pass writes the rows. Ids must arrive strictly
  /// ascending (checked), so every slice is ascending and queries,
  /// certificates and later Remove / Relocate / Insert answer exactly as
  /// after Inserting the same rows one by one — without that path's slice
  /// moves each time a cell fills. `row_at(i)` is called twice per row and
  /// must return the same row both times.
  void BulkLoad(size_t n, const std::function<Row(size_t)>& row_at);

  /// Inserts a row whose id is not live: the rectangle it stands for is
  /// `BoundingBox::FromCircle(center, expanded_r)`. Each cell keeps its
  /// slice ascending (append is O(1) when ids arrive in ascending order);
  /// the cell's aggregates are extended by the row, not recomputed.
  void Insert(const Row& row);

  /// Appends to `out` (cleared first) the ids of all live rows whose
  /// rectangle intersects `query`, in ascending id order: the rows of the
  /// VisitQueryCells walk that pass the rectangle test, sorted. The
  /// reference form of the walk for tests and the pruning ablation. Not
  /// thread-safe (stats).
  void Query(const geo::BoundingBox& query, std::vector<uint32_t>& out) const;

  /// As above, returning a fresh vector (test convenience).
  std::vector<uint32_t> QueryIds(const geo::BoundingBox& query) const;

  /// One surviving cell of a query's certified walk: the row slice
  /// [begin, begin + count) and how the cell certified. Skipped cells are
  /// never emitted (they contribute no members).
  struct CellVisit {
    size_t begin = 0;
    uint32_t count = 0;
    uint32_t slot = 0;
    CellCert cert = CellCert::kBoundary;
  };

  /// The certified cell walk over the rectangle range of `query`: appends
  /// one CellVisit per surviving (non-empty, non-skipped) cell in
  /// row-major order and counts it in QueryStats. A kBulkAccepted visit
  /// means every member's rectangle intersects `query`; a kBoundary visit
  /// means the caller must apply the per-member rectangle test
  /// (`FromCircle(center, r).Intersects(query)` bit-identically) before
  /// admitting a member. Returns the total member count across the
  /// appended visits. Query's walk, and the reference the tests hold the
  /// task walk below against. Not thread-safe (stats).
  size_t VisitQueryCells(const geo::BoundingBox& query,
                         std::vector<CellVisit>& out) const;

  /// The walk of the U2U stage for a task at `task`, the noisy point the
  /// kernel measures d_sq from: the rectangle range intersected with the
  /// cells of [task - h, task + h] in both axes (h = alpha_reach_m()),
  /// widened by one cell. For a finite task every non-empty cell the clip
  /// leaves out certifies kAllReject, so the walk yields the same
  /// candidates as the rectangle walk; the left-out cells are counted in
  /// QueryStats::cells_clipped. With h infinite it is the rectangle walk.
  size_t VisitQueryCells(const geo::BoundingBox& query, geo::Point task,
                         std::vector<CellVisit>& out) const;

  /// The alpha reach h: sqrt of the largest accept or reject bound a row
  /// has ever been inserted with (a high-water mark that Remove leaves
  /// high), rounded up until fl(h * h) covers it, so a row whose
  /// |fl(x - task_x)| >= h has a kernel d_sq >= both of its bounds. +inf,
  /// which turns the clip off, once a bound was NaN or +inf.
  double alpha_reach_m() const { return alpha_reach_m_; }

  /// Certifies cell `slot` against the task location. The bounds are
  /// floating-point conservative: each member's kernel d_sq (computed as
  /// fl(fl(dx^2) + fl(dy^2)) with dx = fl(x - task_x)) is bracketed by the
  /// corner distances of the cell's member bounding box evaluated with the
  /// same operations — rounding is monotone, so no slack is needed — and
  /// compared against the cell's min accept / max reject bound.
  CellAlpha Certify(size_t slot, double task_x, double task_y) const;

  // The row store (DESIGN.md §13). Rows outside a cell's [cell_begin,
  // cell_begin + cell_count) slice are headroom whose contents are
  // unspecified.
  const reachability::CellMajorMirror& rows() const { return rows_; }
  size_t num_cell_slots() const { return cells_ref_.size(); }
  size_t cell_begin(size_t slot) const { return cells_ref_[slot].begin; }
  uint32_t cell_count(size_t slot) const { return cells_ref_[slot].count; }
  const Agg& rect_agg(size_t slot) const { return aggs_[slot]; }
  const CellAgg& cell_agg(size_t slot) const { return cell_aggs_[slot]; }

  /// Removes the row of `id`. The slice is compacted in place (ordered
  /// erase, so it stays ascending) and both cell aggregates are recomputed
  /// in the same O(cell) pass — stale aggregates would stay conservative
  /// but stop certifying as the active set drains. False when the id is
  /// not live, so repeated removal is idempotent. A later Insert with the
  /// same id makes the id live again.
  bool Remove(uint32_t id);

  /// Moves the row of `id` to `new_center`, keeping every other column —
  /// the hot mutation of dynamic re-reporting. A move that stays inside
  /// its cell updates the row in place (one O(cell) aggregate recompute,
  /// no shifting); a move that crosses cells erases and re-inserts the
  /// row. False when the id is not live (never inserted, or removed).
  bool Relocate(uint32_t id, geo::Point new_center);

  /// True when `id` has a live row.
  bool Contains(uint32_t id) const {
    return id < slot_of_id_.size() && slot_of_id_[id] != kNoSlot;
  }

  /// Live (inserted and not removed) rows.
  size_t size() const { return live_; }

  const QueryStats& stats() const { return stats_; }
  void ResetStats() const { stats_ = QueryStats{}; }

  /// Full re-layouts of the rows so far. An Insert (directly, or through
  /// Relocate) that finds its cell's slice full moves just that slice to
  /// the tail of the rows with fresh headroom, in O(cell) — cell_begin of
  /// the slot changes, and the rows it leaves are dead. Only when the dead
  /// rows would outnumber the live ones does the Insert re-lay everything
  /// instead — O(rows), and counted here — so the copying is amortized O(1)
  /// per insert. BulkLoad's one layout pass is not counted.
  int64_t rebuilds() const { return rebuilds_; }

  /// Classification of cell (cx, cy) against `query` exactly as the walk
  /// would decide it (test support; empty cells report kSkipped).
  CellCert ClassifyCellForTest(int cx, int cy,
                               const geo::BoundingBox& query) const;
  /// Ids currently stored in cell (cx, cy), in stored (ascending) order.
  std::vector<uint32_t> CellMembersForTest(int cx, int cy) const;
  /// Slots of the rectangle range of `query` that the alpha clip of a task
  /// walk from `task` leaves out (test support).
  std::vector<size_t> ClippedSlotsForTest(const geo::BoundingBox& query,
                                          geo::Point task) const;
  int cells_per_axis() const { return cells_; }

 private:
  static constexpr uint32_t kNoSlot = std::numeric_limits<uint32_t>::max();

  /// Where one cell's rows live: the ascending-id slice [begin, begin +
  /// count), with `cap - count` spare rows at the end of the slice so
  /// post-build inserts rarely move it. A layout places cell slices in
  /// row-major cell order, so a walk sweeping a grid row reads the columns
  /// near-sequentially; slices moved to the tail since then break that
  /// order until the next re-layout.
  struct CellRef {
    size_t begin = 0;
    uint32_t count = 0;
    uint32_t cap = 0;
  };

  struct CellRange {
    int x0, x1, y0, y1;  // Inclusive cell coordinates; empty if x0 > x1.
    int64_t cells() const {
      return x0 > x1 || y0 > y1 ? 0
                                : int64_t{x1 - x0 + 1} * int64_t{y1 - y0 + 1};
    }
  };
  /// Cell coordinate of an offset measured in cells, clamped to the grid.
  int ClampCell(double v) const;
  CellRange CellsFor(const geo::BoundingBox& box) const;
  /// The widened, clamped cell range a walk visits for `query` (the
  /// max_radius_ reach expansion plus the +-1 ulp guard band).
  CellRange QueryRange(const geo::BoundingBox& query) const;
  /// `rect` (a QueryRange) intersected with the cells of task +- h widened
  /// by one cell: the range a task walk visits.
  CellRange ClipToAlphaReach(CellRange rect, geo::Point task) const;
  /// Appends the surviving cells of `range` (the body of both walks).
  size_t Walk(const CellRange& range, const geo::BoundingBox& query,
              std::vector<CellVisit>& out) const;
  size_t CellSlot(int cx, int cy) const {
    return static_cast<size_t>(cy) * static_cast<size_t>(cells_) +
           static_cast<size_t>(cx);
  }
  size_t CellSlotFor(geo::Point p) const;
  CellCert Classify(const Agg& agg, const geo::BoundingBox& query) const;
  /// Recomputes both aggregates of cell `slot` in one pass over its rows.
  void RecomputeCell(size_t slot);
  /// Extends both aggregates of cell `slot` by the row at `pos`.
  void AddToCell(size_t slot, size_t pos);
  /// Position of live `id`'s row inside its cell's slice.
  size_t RowOf(uint32_t id) const;
  /// Raises the alpha-reach high-water mark to cover `row`'s bounds.
  void RaiseAlphaReach(const Row& row);
  void WriteRow(size_t pos, const Row& row);
  void SetSlot(uint32_t id, uint32_t slot);
  /// Re-lays the rows in row-major cell order with fresh per-cell
  /// headroom and no dead rows. O(rows).
  void Rebuild();
  /// Copies cell `slot`'s full slice to the tail of the rows with
  /// SliceCapacityFor headroom; its old rows become dead. O(cell).
  void MoveSliceToTail(size_t slot);

  geo::BoundingBox region_;
  int cells_;
  double cell_w_;
  double cell_h_;
  std::vector<CellRef> cells_ref_;  // Per-cell slice of the rows.
  std::vector<Agg> aggs_;           // Parallel; one cache line per cell.
  std::vector<CellAgg> cell_aggs_;  // Parallel.
  reachability::CellMajorMirror rows_;
  // Id -> cell slot of its live row, kNoSlot when not live; one entry per
  // id, so Remove and Relocate go straight to the owning cell.
  std::vector<uint32_t> slot_of_id_;
  // High-water mark of all inserted expanded radii; walks widen their
  // visited cell range by it so any cell whose members could reach the
  // query rectangle is visited. Kept stale-high after Remove (conservative).
  double max_radius_ = 0.0;
  // High-water mark of the rows' accept and reject bounds (+inf once one
  // was NaN) and the alpha reach it implies; kept like max_radius_.
  double max_band_sq_ = 0.0;
  double alpha_reach_m_ = 0.0;
  size_t live_ = 0;
  // Rows of slices moved to the tail since the last layout: unreachable
  // until Rebuild reclaims them.
  size_t dead_rows_ = 0;
  int64_t rebuilds_ = 0;

  mutable QueryStats stats_;
};

}  // namespace scguard::index

#endif  // SCGUARD_INDEX_GRID_INDEX_H_
