#ifndef SCGUARD_ASSIGN_STAGES_CELL_MIRROR_H_
#define SCGUARD_ASSIGN_STAGES_CELL_MIRROR_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "index/grid_index.h"
#include "reachability/kernel.h"

namespace scguard::assign {

/// The cell-major scoring mirror (DESIGN.md §13): a CellMajorMirror whose
/// rows shadow a GridIndex's flat member arrays position for position —
/// same CSR cell slices, same headroom, same ascending in-slice id order —
/// plus a per-cell aggregate that certifies whole cells against the alpha
/// filter. It registers as the index's SliceChangeListener, so the index's
/// in-slice erases (MarkMatched removals), inserts and slice moves keep the
/// mirror in sync in O(cell) per mutation without re-reading the index;
/// only the index's amortized re-layouts resync it whole.
///
/// Contract with the stage:
///  * Attach after the per-worker certain bands are filled (the mirror
///    copies accept/reject_sq by worker id at build and insert time) and
///    after the grid is built.
///  * Call ForgetGrid() *before* the grid is destroyed (the stage does this
///    wherever it resets its pruner). The mirror's destructor never touches
///    the grid, so a mirror whose grid died after ForgetGrid is safe — but
///    a grid must never mutate after its listener died without detaching.
///
/// Not thread-safe for mutation; the concurrent Collect scan only reads.
class CellScoreMirror final : public index::GridIndex::SliceChangeListener {
 public:
  /// Conservative cell-level alpha certificate for one task location:
  /// kAllAccept / kAllReject mean *every* member of the cell lands in the
  /// scalar kernel's certain-accept / certain-reject region, so the cell
  /// resolves with zero per-worker loads and zero band evaluations —
  /// exactly what the per-member trichotomy would have decided. kMixed
  /// means the cell must be classified member by member.
  enum class CellAlpha { kMixed, kAllAccept, kAllReject };

  CellScoreMirror() = default;
  ~CellScoreMirror() override = default;
  CellScoreMirror(const CellScoreMirror&) = delete;
  CellScoreMirror& operator=(const CellScoreMirror&) = delete;

  /// Rebuilds the mirror over `grid`'s current layout and registers as its
  /// slice-change listener (displacing any previous listener). `soa` must
  /// have accept_below_sq / reject_above_sq filled for every id the grid
  /// holds, and both pointers must stay valid while attached.
  void Attach(index::GridIndex* grid,
              const reachability::WorkerFilterSoA* soa);

  /// Detaches from the grid (clears its listener registration) and forgets
  /// the pointer. Must run before the grid dies; idempotent.
  void ForgetGrid();

  const index::GridIndex* grid() const { return grid_; }
  const reachability::CellMajorMirror& rows() const { return rows_; }

  /// Certifies cell `slot` against the task location. The bounds are
  /// floating-point conservative: each member's kernel d_sq (computed as
  /// fl(fl(dx^2) + fl(dy^2)) with dx = fl(x - task_x)) is bracketed by the
  /// corner distances of the cell's member bounding box evaluated with the
  /// same operations — rounding is monotone, so no slack is needed — and
  /// compared against the cell's min accept / max reject bound.
  CellAlpha Certify(size_t slot, double task_x, double task_y) const;

  // index::GridIndex::SliceChangeListener:
  void OnSliceErase(size_t slot, size_t pos, size_t end) override;
  void OnSliceInsert(size_t slot, size_t pos, size_t end) override;
  void OnSliceUpdate(size_t slot, size_t pos, size_t end) override;
  void OnSliceMove(size_t slot, size_t from, size_t to,
                   uint32_t count) override;
  void OnRebuild() override;

  /// Per-cell member aggregate: the member x/y bounding box, the cell-wide
  /// worst-case certain-band bounds, and the largest member reach radius
  /// (+inf when any member's radius is NaN, so a bound taken at it is the
  /// trivial one). The U2E cell bound reads the box and the radius.
  struct CellAgg {
    double min_x = 0.0, max_x = -1.0;  // Empty sentinel: max < min.
    double min_y = 0.0, max_y = -1.0;
    double min_accept_sq = 0.0;
    double max_reject_sq = 0.0;
    double max_reach_r = 0.0;
  };
  const CellAgg& cell_agg(size_t slot) const { return aggs_[slot]; }

 private:
  /// Copies grid row `pos` (id/x/y/expanded_r) plus the id's certain bands
  /// and reach radius from the soa into mirror row `pos`.
  void FillRow(size_t pos);
  /// Rebuilds cell `slot`'s aggregate from its mirror rows.
  void RecomputeAgg(size_t slot);
  /// Full rebuild from the grid's current layout.
  void Resync();

  index::GridIndex* grid_ = nullptr;          // Not owned.
  const reachability::WorkerFilterSoA* soa_ = nullptr;  // Not owned.
  reachability::CellMajorMirror rows_;
  std::vector<CellAgg> aggs_;
};

/// One task's U2U candidate set grouped by grid cell (DESIGN.md §10), the
/// form U2U hands to U2E inside TaskPipeline. A certificate-accepted cell is
/// one run over CellScoreMirror rows with no id copy; a mixed or rectangle-
/// boundary cell is the list of the ids it admitted; in-band survivors are
/// plain per-candidate entries with no cell. Groups are disjoint, so the set
/// is their union and `size` the sum of their counts. Valid until the
/// producing stage's next Collect / CollectRuns or mutation (MarkMatched,
/// relocation), which may shift the rows a group names.
struct CandidateRuns {
  /// Group::slot of plain per-candidate entries: no cell bound applies.
  static constexpr uint32_t kNoCell = std::numeric_limits<uint32_t>::max();

  struct Group {
    size_t begin = 0;          ///< First mirror row, or offset into `ids`.
    uint32_t count = 0;        ///< Members, >= 1.
    uint32_t slot = kNoCell;   ///< The members' mirror cell, or kNoCell.
    bool in_rows = false;      ///< Members are mirror rows, else `ids`.
  };

  /// The mirror whose rows and cells the groups name; nullptr when every
  /// group is a kNoCell list (the brute and linear-pruner scans).
  const CellScoreMirror* mirror = nullptr;
  std::vector<Group> groups;
  std::vector<uint32_t> ids;  ///< Storage of the groups not in rows.
  size_t size = 0;

  void Clear() {
    mirror = nullptr;
    groups.clear();
    ids.clear();
    size = 0;
  }

  /// Calls fn(worker id) for every member of `g`, in row / list order.
  template <typename Fn>
  void ForEachIn(const Group& g, Fn&& fn) const {
    const uint32_t* at = g.in_rows ? mirror->rows().id.data() + g.begin
                                   : ids.data() + g.begin;
    for (uint32_t k = 0; k < g.count; ++k) fn(at[k]);
  }

  /// Calls fn(worker id) for every candidate, group by group.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Group& g : groups) ForEachIn(g, fn);
  }
};

}  // namespace scguard::assign

#endif  // SCGUARD_ASSIGN_STAGES_CELL_MIRROR_H_
