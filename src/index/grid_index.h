#ifndef SCGUARD_INDEX_GRID_INDEX_H_
#define SCGUARD_INDEX_GRID_INDEX_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "geo/bbox.h"
#include "geo/point.h"

namespace scguard::index {

/// A uniform grid over a fixed region indexing (center, radius, id) point
/// entries — the expanded uncertainty disks of the U2U pruner (paper
/// Sec. IV-C1). Each entry lives in exactly one cell (the cell containing
/// its center), stored as a compacted, ascending-id structure-of-arrays.
///
/// Queries are cell-certified (DESIGN.md §11): every visited cell is first
/// classified against the query rectangle using two per-cell aggregate
/// boxes —
///  * the *cover* box (union of the members' expanded rectangles): when it
///    misses the query, no member can intersect and the whole cell is
///    skipped without touching entries;
///  * the *core* aggregates (the componentwise worst-case member bounds):
///    when even the worst member's rectangle intersects the query, every
///    member does, and the whole ascending id array is bulk-appended with
///    no per-worker work.
/// Only boundary cells fall through to the per-member rectangle test, which
/// is bit-identical to `BoundingBox::FromCircle(center, r).Intersects(q)`.
/// Output is globally ascending and callers never re-sort: when the live id
/// range is dense (the engine's ids are [0, n)), accepted ids are scattered
/// into a bitmap and extracted in order — O(hits) with tiny constants —
/// otherwise each cell emits an ascending run and a k-way merge combines
/// them.
///
/// Sized for the city-scale, roughly uniform extents SCGuard deals with; it
/// answers the same query contract as the U2U pruner's linear MBR scan
/// (compared in bench_ablation_pruning).
class GridIndex {
 public:
  /// Observer of in-place mutations of the flat member arrays, so a derived
  /// cell-major view (the scoring mirror of DESIGN.md §13) can stay in sync
  /// without re-reading the whole index. Every callback fires *after* the
  /// index mutated, with absolute member-array positions; `end` is the
  /// owning slice's post-mutation end (`begin + count`). The listener is
  /// not owned and may outlive the index — the index never calls it from
  /// its destructor.
  class SliceChangeListener {
   public:
    virtual ~SliceChangeListener() = default;
    /// The member at position `pos` of cell `slot` was erased and the slice
    /// tail shifted down one: rows [pos, end) now hold what [pos+1, end+1)
    /// held before the erase.
    virtual void OnSliceErase(size_t slot, size_t pos, size_t end) = 0;
    /// A member was inserted at position `pos` of cell `slot` (the former
    /// [pos, end-1) rows shifted up one). Read the new member through the
    /// member accessors below.
    virtual void OnSliceInsert(size_t slot, size_t pos, size_t end) = 0;
    /// The member at position `pos` of cell `slot` changed in place
    /// (same-cell Relocate: new center, same id and radius, no shifting).
    /// Re-read the row through the member accessors.
    virtual void OnSliceUpdate(size_t slot, size_t pos, size_t end) = 0;
    /// Cell `slot`'s slice was full: its `count` members were copied from
    /// rows [from, from + count) to [to, to + count) at the grown tail of
    /// the member arrays (member_rows() grew; the old rows are dead). An
    /// insert into the moved slice follows as OnSliceInsert.
    virtual void OnSliceMove(size_t slot, size_t from, size_t to,
                             uint32_t count) = 0;
    /// The flat member arrays were re-laid wholesale (slice offsets and
    /// capacities changed); the view must rebuild from the accessors.
    virtual void OnRebuild() = 0;
  };

  /// Cumulative query-side certification accounting (reset with
  /// ResetStats). Mutable scratch: queries on one index must not run
  /// concurrently (the pruner queries serially; shard fan-out happens on
  /// the result, not inside the index).
  struct QueryStats {
    int64_t cells_bulk_accepted = 0;  ///< Whole id array appended.
    int64_t cells_skipped = 0;        ///< Non-empty cell, zero work.
    int64_t cells_boundary = 0;       ///< Fell through to member tests.
    int64_t boundary_workers = 0;     ///< Members tested individually.
  };

  /// Certification outcome of one cell against one query (test support).
  enum class CellCert { kSkipped, kBulkAccepted, kBoundary };

  /// `region` must be non-empty; `cells_per_axis` >= 1. Entries centered
  /// beyond the region are clamped to the border cells.
  GridIndex(const geo::BoundingBox& region, int cells_per_axis);

  /// One entry of a bulk load: the triple Insert takes.
  struct Entry {
    geo::Point center;
    double expanded_radius_m = 0.0;
    int64_t id = 0;
  };

  /// Loads `n` entries into a freshly constructed index in one pass: a
  /// counting pass assigns every entry its cell, slices are laid out as
  /// Rebuild lays them out (row-major, SliceCapacityFor(count) headroom
  /// each), and one fill pass writes the members, accumulates the per-cell
  /// aggregates and records the id map (reserved for `n`). Ids end up
  /// ascending within every cell whatever the input order, so queries,
  /// certificates and later Remove / Relocate / Insert answer exactly as
  /// after Inserting the same entries one by one — without that path's
  /// slice moves each time a cell fills. `entry_at(i)` is called twice
  /// per entry and must return the same entry both times.
  void BulkLoad(size_t n, const std::function<Entry(size_t)>& entry_at);

  /// Inserts a point entry: the rectangle it stands for is
  /// `BoundingBox::FromCircle(center, expanded_radius_m)`. Entries go into
  /// the single cell containing `center`; each cell keeps its id array
  /// ascending (append is O(1) when ids arrive in ascending order, the
  /// engine's registration order).
  void Insert(geo::Point center, double expanded_radius_m, int64_t id);

  /// Appends to `out` (cleared first) the ids of all live entries whose
  /// rectangle intersects `query`, in ascending id order; an id inserted
  /// more than once is emitted at most once. Not thread-safe (mutable
  /// bitmap/merge scratch + stats).
  void Query(const geo::BoundingBox& query, std::vector<int64_t>& out) const;

  /// As above, returning a fresh vector (test convenience).
  std::vector<int64_t> QueryIds(const geo::BoundingBox& query) const;

  /// One surviving cell of a query's certified walk: the member-array slice
  /// [begin, begin + count) and how the cell certified. Skipped cells are
  /// never emitted (they contribute no members).
  struct CellVisit {
    size_t begin = 0;
    uint32_t count = 0;
    uint32_t slot = 0;
    CellCert cert = CellCert::kBoundary;
  };

  /// The cell walk of Query without materializing member ids: appends one
  /// CellVisit per surviving (non-empty, non-skipped) cell in row-major
  /// order, with QueryStats accounting identical to Query's on the same
  /// box. A caller holding a cell-major mirror classifies the slices
  /// itself; a kBulkAccepted visit means every member's rectangle
  /// intersects `query`, a kBoundary visit means the caller must apply the
  /// per-member rectangle test (`FromCircle(center, r).Intersects(query)`
  /// bit-identically) before admitting a member. Returns the total member
  /// count across the appended visits. Not thread-safe (stats).
  size_t VisitQueryCells(const geo::BoundingBox& query,
                         std::vector<CellVisit>& out) const;

  /// Registers (or clears, with nullptr) the slice-change listener; at most
  /// one at a time. The index never owns it.
  void SetSliceChangeListener(SliceChangeListener* listener) {
    listener_ = listener;
  }

  // Flat-layout accessors for cell-major mirrors (DESIGN.md §13). Rows
  // outside a cell's [cell_begin, cell_begin + cell_count) slice are
  // headroom whose contents are unspecified.
  size_t num_cell_slots() const { return cells_ref_.size(); }
  size_t member_rows() const { return ids_.size(); }
  /// Rows the member arrays hold without reallocating (slice moves append
  /// at the tail until they reach it).
  size_t member_capacity() const { return ids_.capacity(); }
  size_t cell_begin(size_t slot) const { return cells_ref_[slot].begin; }
  uint32_t cell_count(size_t slot) const { return cells_ref_[slot].count; }
  int64_t member_id(size_t pos) const { return ids_[pos]; }
  double member_x(size_t pos) const { return xs_[pos]; }
  double member_y(size_t pos) const { return ys_[pos]; }
  double member_r(size_t pos) const { return rs_[pos]; }

  /// Removes every live entry inserted under `id`. The cell arrays are
  /// compacted in place (ordered erase, so they stay ascending) and the
  /// cell's certification aggregates are recomputed in the same O(cell)
  /// pass — stale aggregates would stay conservative for skipping but stop
  /// bulk-accepting as the active set drains. Returns the number of entries
  /// removed — 0 when the id is absent or already removed, so repeated
  /// removal is idempotent. A later Insert with the same id makes the id
  /// live again.
  size_t Remove(int64_t id);

  /// Moves every live entry of `id` to `new_center`, keeping each entry's
  /// expanded radius — the hot mutation of dynamic re-reporting. A move
  /// that stays inside its cell updates the row in place (one O(cell)
  /// aggregate recompute, no shifting, listener OnSliceUpdate); a move
  /// that crosses cells erases and re-inserts through the normal listener
  /// callbacks. Returns the number of entries moved — 0 when the id is
  /// absent (never inserted, or currently removed).
  size_t Relocate(int64_t id, geo::Point new_center);

  /// True when at least one live entry of `id` is stored.
  bool Contains(int64_t id) const {
    return cells_of_id_.find(id) != cells_of_id_.end();
  }

  /// Live (inserted and not removed) entries.
  size_t size() const { return live_; }

  const QueryStats& stats() const { return stats_; }
  void ResetStats() const { stats_ = QueryStats{}; }

  /// Full re-layouts of the member arrays so far. An Insert (directly, or
  /// through Relocate or a re-insert) that finds its cell's slice full
  /// moves just that slice to the tail of the member arrays with fresh
  /// headroom, in O(cell) (listener OnSliceMove); the rows it leaves are
  /// dead. Only when the dead rows would outnumber the live entries does
  /// the Insert re-lay everything instead — O(entries), listener
  /// OnRebuild, and counted here — so the copying is amortized O(1) per
  /// insert. BulkLoad's one layout pass is not counted.
  int64_t rebuilds() const { return rebuilds_; }

  /// Classification of cell (cx, cy) against `query` exactly as Query would
  /// decide it (test support; empty cells report kSkipped).
  CellCert ClassifyCellForTest(int cx, int cy,
                               const geo::BoundingBox& query) const;
  /// Ids currently stored in cell (cx, cy), in stored (ascending) order.
  std::vector<int64_t> CellMembersForTest(int cx, int cy) const;
  int cells_per_axis() const { return cells_; }

 private:
  /// Where one cell's members live inside the flat member arrays: the
  /// ascending-id slice [begin, begin + count), with `cap - count` spare
  /// slots at the end of the slice so post-build inserts rarely move it.
  /// A layout places cell slices in row-major cell order, so a query
  /// sweeping a row reads the member arrays near-sequentially instead of
  /// chasing one heap vector per cell; slices moved to the tail since
  /// then break that order until the next Rebuild.
  struct CellRef {
    size_t begin = 0;
    uint32_t count = 0;
    uint32_t cap = 0;
  };

  /// The aggregate boxes the certification tests read — exactly one cache
  /// line per cell. All components are computed with the same
  /// floating-point operations as the per-member rectangle
  /// `FromCircle(center, r)` — `fl(c - r)` / `fl(c + r)` — and min/max are
  /// exact, so certification agrees bit-for-bit with the member-by-member
  /// test it replaces. An empty cell keeps the reset sentinels
  /// (cover_max_x = -inf), which the skip test rejects before any member
  /// array is touched.
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

  struct CellRange {
    int x0, x1, y0, y1;  // Inclusive cell coordinates.
  };
  /// Cell coordinate of an offset measured in cells, clamped to the grid.
  int ClampCell(double v) const;
  CellRange CellsFor(const geo::BoundingBox& box) const;
  /// The widened, clamped cell range Query visits for `query` (the
  /// max_radius_ reach expansion plus the +-1 ulp guard band).
  CellRange QueryRange(const geo::BoundingBox& query) const;
  size_t CellSlot(int cx, int cy) const {
    return static_cast<size_t>(cy) * static_cast<size_t>(cells_) +
           static_cast<size_t>(cx);
  }
  size_t CellSlotFor(geo::Point p) const;
  CellCert Classify(const Agg& agg, const geo::BoundingBox& query) const;
  void RecomputeAggregates(size_t slot);
  /// Re-lays the flat member arrays in row-major cell order with fresh
  /// per-cell headroom and no dead rows. O(entries).
  void Rebuild();
  /// Copies cell `slot`'s full slice to the tail of the member arrays with
  /// SliceCapacityFor headroom; its old rows become dead. O(cell).
  void MoveSliceToTail(size_t slot);
  /// Restores ascending id order inside cell `slot`'s slice (a stable sort
  /// carrying x/y/r along); BulkLoad's fix-up for out-of-order input.
  void SortSlice(size_t slot);
  /// Merges the ascending runs recorded in `run_starts_` into one ascending
  /// sequence (bottom-up pairwise merge through the member scratch buffer;
  /// no per-query allocation once warm).
  void MergeRuns(std::vector<int64_t>& out) const;

  geo::BoundingBox region_;
  int cells_;
  double cell_w_;
  double cell_h_;
  std::vector<CellRef> cells_ref_;  // Per-cell slice of the member arrays.
  std::vector<Agg> aggs_;           // Parallel; one cache line per cell.
  // Flat member storage (cell-major SoA): each cell's slice keeps ids
  // ascending, with x/y/r parallel to ids.
  std::vector<int64_t> ids_;
  std::vector<double> xs_;
  std::vector<double> ys_;
  std::vector<double> rs_;
  // Id -> cells holding a live entry of that id (one slot per entry), so
  // Remove(id) goes straight to the owning cells.
  std::unordered_map<int64_t, std::vector<uint32_t>> cells_of_id_;
  // High-water mark of all inserted expanded radii; queries widen their
  // visited cell range by it so any cell whose members could reach the
  // query rectangle is visited. Kept stale-high after Remove (conservative).
  double max_radius_ = 0.0;
  // High-water id range of all inserted entries (kept stale-wide after
  // Remove): when it is dense relative to the live count, Query orders its
  // output through the bitmap instead of the run merge.
  int64_t min_id_ = 0;
  int64_t max_id_ = -1;
  size_t live_ = 0;
  // Rows of slices moved to the tail since the last layout: unreachable
  // until Rebuild reclaims them.
  size_t dead_rows_ = 0;
  int64_t rebuilds_ = 0;
  SliceChangeListener* listener_ = nullptr;  // Not owned.

  std::vector<double> radius_scratch_;  // Relocate's per-entry radii.

  mutable QueryStats stats_;
  mutable std::vector<uint64_t> bitmap_;    // Dense-id accept bitmap.
  mutable std::vector<size_t> run_starts_;  // Offsets of per-cell runs.
  mutable std::vector<int64_t> merge_buf_;  // Pairwise-merge scratch.
};

}  // namespace scguard::index

#endif  // SCGUARD_INDEX_GRID_INDEX_H_
