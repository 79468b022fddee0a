#include "index/grid_index.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/check.h"

namespace scguard::index {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Headroom a rebuild leaves in a cell's slice: grows with the cell so
/// repeated inserts into one cell trigger O(log) rebuilds.
uint32_t SliceCapacityFor(uint32_t count) {
  return count + std::max<uint32_t>(4, count / 2);
}

/// Sizes the rows for a fresh layout of `total` rows. Past the layout they
/// reserve a sixteenth more for the slices that move to the tail before
/// the next re-layout, so a move usually appends without reallocating — a
/// reallocation would copy every column, the O(n) stall moves exist to
/// avoid. Unwritten capacity is never touched.
void LayOutRows(size_t total, reachability::CellMajorMirror& rows) {
  rows.Reserve(total + total / 16);
  rows.Resize(total);
}

/// Calls fn(to_column, from_column) for each of the seven column pairs.
template <typename Fn>
void ForEachColumnPair(reachability::CellMajorMirror& to,
                       const reachability::CellMajorMirror& from, Fn&& fn) {
  fn(to.id, from.id);
  fn(to.x, from.x);
  fn(to.y, from.y);
  fn(to.expanded_r, from.expanded_r);
  fn(to.accept_below_sq, from.accept_below_sq);
  fn(to.reject_above_sq, from.reject_above_sq);
  fn(to.reach_radius_m, from.reach_radius_m);
}

// The running largest reach radius, with a NaN radius absorbing to +inf:
// std::max would drop it, and a cell bound must never trust a NaN member.
double ReachMax(double acc, double r) {
  return std::isnan(r) ? kInf : std::max(acc, r);
}

}  // namespace

void GridIndex::Agg::Reset() {
  cover_min_x = cover_min_y = kInf;
  cover_max_x = cover_max_y = -kInf;
  core_max_lo_x = core_max_lo_y = -kInf;
  core_min_hi_x = core_min_hi_y = kInf;
}

void GridIndex::Agg::Accumulate(double cx, double cy, double cr) {
  // Exactly the member rectangle bounds FromCircle computes; aggregating
  // with min/max keeps every comparison downstream bit-compatible with the
  // per-member test.
  const double lo_x = cx - cr;
  const double hi_x = cx + cr;
  const double lo_y = cy - cr;
  const double hi_y = cy + cr;
  cover_min_x = std::min(cover_min_x, lo_x);
  cover_max_x = std::max(cover_max_x, hi_x);
  cover_min_y = std::min(cover_min_y, lo_y);
  cover_max_y = std::max(cover_max_y, hi_y);
  core_max_lo_x = std::max(core_max_lo_x, lo_x);
  core_min_hi_x = std::min(core_min_hi_x, hi_x);
  core_max_lo_y = std::max(core_max_lo_y, lo_y);
  core_min_hi_y = std::min(core_min_hi_y, hi_y);
}

void GridIndex::CellAgg::Add(double x, double y, double accept_below_sq,
                             double reject_above_sq, double reach_radius_m) {
  if (max_x < min_x) {
    *this = {x, x, y, y, accept_below_sq, reject_above_sq,
             ReachMax(-kInf, reach_radius_m)};
    return;
  }
  min_x = std::min(min_x, x);
  max_x = std::max(max_x, x);
  min_y = std::min(min_y, y);
  max_y = std::max(max_y, y);
  min_accept_sq = std::min(min_accept_sq, accept_below_sq);
  max_reject_sq = std::max(max_reject_sq, reject_above_sq);
  max_reach_r = ReachMax(max_reach_r, reach_radius_m);
}

void GridIndex::AddToCell(size_t slot, size_t pos) {
  const reachability::CellMajorMirror& m = rows_;
  aggs_[slot].Accumulate(m.x[pos], m.y[pos], m.expanded_r[pos]);
  cell_aggs_[slot].Add(m.x[pos], m.y[pos], m.accept_below_sq[pos],
                       m.reject_above_sq[pos], m.reach_radius_m[pos]);
}

void GridIndex::RecomputeCell(size_t slot) {
  const CellRef& c = cells_ref_[slot];
  aggs_[slot].Reset();
  cell_aggs_[slot] = CellAgg{};
  for (size_t k = c.begin; k < c.begin + c.count; ++k) AddToCell(slot, k);
}

void GridIndex::RaiseAlphaReach(const Row& row) {
  for (const double bound : {row.accept_below_sq, row.reject_above_sq}) {
    // A NaN fails the compare and raises the mark to +inf (std::max would
    // drop it): a NaN or +inf bound turns the clip off.
    if (bound <= max_band_sq_) continue;
    max_band_sq_ = std::isnan(bound) ? kInf : bound;
    // Round h up until fl(h * h) covers the mark, so that |fl(x - t)| >= h
    // implies the kernel's d_sq >= fl(h * h) >= every bound.
    double h = std::sqrt(max_band_sq_);
    while (h * h < max_band_sq_) h = std::nextafter(h, kInf);
    alpha_reach_m_ = h;
  }
}

GridIndex::GridIndex(const geo::BoundingBox& region, int cells_per_axis)
    : region_(region),
      cells_(cells_per_axis),
      cell_w_(region.Width() / cells_per_axis),
      cell_h_(region.Height() / cells_per_axis),
      cells_ref_(static_cast<size_t>(cells_per_axis) *
                 static_cast<size_t>(cells_per_axis)),
      aggs_(cells_ref_.size()),
      cell_aggs_(cells_ref_.size()) {
  SCGUARD_CHECK(!region.empty() && cells_per_axis >= 1);
  SCGUARD_CHECK(cell_w_ > 0.0 && cell_h_ > 0.0);
}

int GridIndex::ClampCell(double v) const {
  // Clamp in double before the cast: converting a NaN, an infinity, or a
  // value beyond int's range is undefined. In-range values truncate
  // exactly as a plain cast would, so their cells are unchanged.
  if (!(v > 0.0)) return 0;
  const auto last = static_cast<double>(cells_ - 1);
  return v >= last ? cells_ - 1 : static_cast<int>(v);
}

GridIndex::CellRange GridIndex::CellsFor(const geo::BoundingBox& box) const {
  return {ClampCell((box.min_x - region_.min_x) / cell_w_),
          ClampCell((box.max_x - region_.min_x) / cell_w_),
          ClampCell((box.min_y - region_.min_y) / cell_h_),
          ClampCell((box.max_y - region_.min_y) / cell_h_)};
}

size_t GridIndex::CellSlotFor(geo::Point p) const {
  return CellSlot(ClampCell((p.x - region_.min_x) / cell_w_),
                  ClampCell((p.y - region_.min_y) / cell_h_));
}

void GridIndex::Rebuild() {
  // New layout: row-major cell order with fresh per-cell headroom. One
  // streaming pass moves every live slice; the old columns are replaced
  // wholesale, so any pointer into the rows is invalidated (none outlives
  // a call into the index).
  size_t total = 0;
  for (const CellRef& c : cells_ref_) {
    total += SliceCapacityFor(c.count);
  }
  reachability::CellMajorMirror relaid;
  LayOutRows(total, relaid);
  size_t at = 0;
  for (CellRef& c : cells_ref_) {
    const auto src = static_cast<std::ptrdiff_t>(c.begin);
    const auto dst = static_cast<std::ptrdiff_t>(at);
    ForEachColumnPair(relaid, rows_, [&](auto& to, const auto& from) {
      std::copy_n(from.begin() + src, c.count, to.begin() + dst);
    });
    c.begin = at;
    c.cap = SliceCapacityFor(c.count);
    at += c.cap;
  }
  rows_ = std::move(relaid);
  dead_rows_ = 0;
  ++rebuilds_;
}

void GridIndex::MoveSliceToTail(size_t slot) {
  CellRef& c = cells_ref_[slot];
  const auto from = static_cast<std::ptrdiff_t>(c.begin);
  const size_t to = rows_.size();
  const uint32_t cap = SliceCapacityFor(c.count);
  rows_.ForEachColumn([&](auto& column) {
    column.resize(to + cap);
    std::copy_n(column.begin() + from, c.count,
                column.begin() + static_cast<std::ptrdiff_t>(to));
  });
  dead_rows_ += c.cap;
  c.begin = to;
  c.cap = cap;
}

void GridIndex::WriteRow(size_t pos, const Row& row) {
  rows_.id[pos] = row.id;
  rows_.x[pos] = row.center.x;
  rows_.y[pos] = row.center.y;
  rows_.expanded_r[pos] = row.expanded_r;
  rows_.accept_below_sq[pos] = row.accept_below_sq;
  rows_.reject_above_sq[pos] = row.reject_above_sq;
  rows_.reach_radius_m[pos] = row.reach_radius_m;
}

void GridIndex::SetSlot(uint32_t id, uint32_t slot) {
  if (id >= slot_of_id_.size()) slot_of_id_.resize(id + size_t{1}, kNoSlot);
  slot_of_id_[id] = slot;
}

void GridIndex::BulkLoad(size_t n, const std::function<Row(size_t)>& row_at) {
  SCGUARD_CHECK(rows_.size() == 0 && live_ == 0);
  // Counting pass: each row's cell, and every cell's final member count.
  std::vector<uint32_t> slot_of(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t slot = CellSlotFor(row_at(i).center);
    slot_of[i] = static_cast<uint32_t>(slot);
    ++cells_ref_[slot].count;
  }
  // The layout Rebuild leaves; `count` restarts as each slice's fill
  // cursor.
  size_t total = 0;
  for (CellRef& c : cells_ref_) {
    c.begin = total;
    c.cap = SliceCapacityFor(c.count);
    c.count = 0;
    total += c.cap;
  }
  LayOutRows(total, rows_);
  slot_of_id_.reserve(n);
  uint32_t prev_id = 0;
  for (size_t i = 0; i < n; ++i) {
    const Row row = row_at(i);
    SCGUARD_CHECK(row.expanded_r >= 0.0 && std::isfinite(row.expanded_r));
    // Ascending ids keep every slice ascending and every id single.
    SCGUARD_CHECK(i == 0 || row.id > prev_id);
    prev_id = row.id;
    CellRef& c = cells_ref_[slot_of[i]];
    WriteRow(c.begin + c.count, row);
    ++c.count;
    SetSlot(row.id, slot_of[i]);
    max_radius_ = std::max(max_radius_, row.expanded_r);
    RaiseAlphaReach(row);
  }
  live_ = n;
  for (size_t slot = 0; slot < cells_ref_.size(); ++slot) RecomputeCell(slot);
}

void GridIndex::Insert(const Row& row) {
  SCGUARD_CHECK(row.expanded_r >= 0.0 && std::isfinite(row.expanded_r));
  SCGUARD_CHECK(!Contains(row.id));
  const size_t slot = CellSlotFor(row.center);
  if (cells_ref_[slot].count == cells_ref_[slot].cap) {
    // A full slice moves to the tail in O(cell). Its old rows stay dead
    // until they would outnumber the live ones; then one re-layout
    // reclaims them all, so the copying is amortized O(1) per insert.
    if (dead_rows_ + cells_ref_[slot].cap > live_) {
      Rebuild();
    } else {
      MoveSliceToTail(slot);
    }
  }
  CellRef& c = cells_ref_[slot];
  // Ascending insert; callers inserting ids in order hit the append path.
  const size_t end = c.begin + c.count;
  size_t pos = end;
  if (c.count > 0 && row.id < rows_.id[end - 1]) {
    const auto begin = rows_.id.begin() + static_cast<std::ptrdiff_t>(c.begin);
    pos = static_cast<size_t>(
        std::lower_bound(begin, begin + c.count, row.id) - rows_.id.begin());
    rows_.ForEachColumn([&](auto& column) {
      std::move_backward(column.begin() + static_cast<std::ptrdiff_t>(pos),
                         column.begin() + static_cast<std::ptrdiff_t>(end),
                         column.begin() + static_cast<std::ptrdiff_t>(end + 1));
    });
  }
  WriteRow(pos, row);
  ++c.count;
  AddToCell(slot, pos);
  SetSlot(row.id, static_cast<uint32_t>(slot));
  max_radius_ = std::max(max_radius_, row.expanded_r);
  RaiseAlphaReach(row);
  ++live_;
}

GridIndex::CellCert GridIndex::Classify(const Agg& agg,
                                        const geo::BoundingBox& query) const {
  // Skip: the union of member rectangles misses the query, so no member
  // can pass its intersection test. Empty cells keep the reset sentinels
  // (cover_max_x = -inf) and land here too.
  if (agg.cover_max_x < query.min_x || query.max_x < agg.cover_min_x ||
      agg.cover_max_y < query.min_y || query.max_y < agg.cover_min_y) {
    return CellCert::kSkipped;
  }
  // Bulk accept: the query catches even the componentwise-worst member
  // bound on every side, which is exactly "every member's rectangle
  // intersects the query".
  if (agg.core_max_lo_x <= query.max_x && query.min_x <= agg.core_min_hi_x &&
      agg.core_max_lo_y <= query.max_y && query.min_y <= agg.core_min_hi_y) {
    return CellCert::kBulkAccepted;
  }
  return CellCert::kBoundary;
}

GridIndex::CellRange GridIndex::QueryRange(
    const geo::BoundingBox& query) const {
  // A member's rectangle can reach at most max_radius_ beyond its center,
  // so widening the query by the radius high-water mark bounds the cells
  // whose members could intersect. The extra +-1 cell absorbs the ulp-level
  // difference between this widened box and each member's own fl(c +- r),
  // plus the truncation-vs-floor edge of the cell assignment.
  geo::BoundingBox reach = query;
  reach.min_x -= max_radius_;
  reach.min_y -= max_radius_;
  reach.max_x += max_radius_;
  reach.max_y += max_radius_;
  CellRange range = CellsFor(reach);
  range.x0 = std::max(0, range.x0 - 1);
  range.y0 = std::max(0, range.y0 - 1);
  range.x1 = std::min(cells_ - 1, range.x1 + 1);
  range.y1 = std::min(cells_ - 1, range.y1 + 1);
  return range;
}

GridIndex::CellRange GridIndex::ClipToAlphaReach(CellRange rect,
                                                 geo::Point task) const {
  const double h = alpha_reach_m_;
  if (std::isinf(h)) return rect;
  // A cell's coordinate is monotone in the member's, so a member of a cell
  // left of reach.x0 has x < fl(task.x - h), hence |fl(x - task.x)| >= h
  // and a kernel d_sq >= fl(h * h) >= both of its bounds: rejected. The
  // one cell of slack puts a whole cell width between the left-out
  // members and the reach box, so their d_sq exceeds every bound strictly
  // — which also covers a row whose accept bound equals its reject bound.
  // Likewise on the other three sides.
  geo::BoundingBox reach_box;
  reach_box.min_x = task.x - h;
  reach_box.min_y = task.y - h;
  reach_box.max_x = task.x + h;
  reach_box.max_y = task.y + h;
  const CellRange reach = CellsFor(reach_box);
  rect.x0 = std::max(rect.x0, reach.x0 - 1);
  rect.y0 = std::max(rect.y0, reach.y0 - 1);
  rect.x1 = std::min(rect.x1, reach.x1 + 1);
  rect.y1 = std::min(rect.y1, reach.y1 + 1);
  return rect;
}

void GridIndex::Query(const geo::BoundingBox& query,
                      std::vector<uint32_t>& out) const {
  out.clear();
  std::vector<CellVisit> visits;
  VisitQueryCells(query, visits);
  const reachability::CellMajorMirror& m = rows_;
  for (const CellVisit& v : visits) {
    for (size_t k = v.begin; k < v.begin + v.count; ++k) {
      // Bit-identical to FromCircle(center, r).Intersects(query).
      if (v.cert == CellCert::kBulkAccepted ||
          (m.x[k] - m.expanded_r[k] <= query.max_x &&
           query.min_x <= m.x[k] + m.expanded_r[k] &&
           m.y[k] - m.expanded_r[k] <= query.max_y &&
           query.min_y <= m.y[k] + m.expanded_r[k])) {
        out.push_back(m.id[k]);
      }
    }
  }
  std::sort(out.begin(), out.end());
}

size_t GridIndex::VisitQueryCells(const geo::BoundingBox& query,
                                  std::vector<CellVisit>& out) const {
  out.clear();
  if (live_ == 0 || query.empty()) return 0;
  return Walk(QueryRange(query), query, out);
}

size_t GridIndex::VisitQueryCells(const geo::BoundingBox& query,
                                  geo::Point task,
                                  std::vector<CellVisit>& out) const {
  out.clear();
  if (live_ == 0 || query.empty()) return 0;
  const CellRange rect = QueryRange(query);
  const CellRange range = ClipToAlphaReach(rect, task);
  stats_.cells_clipped += rect.cells() - range.cells();
  return Walk(range, query, out);
}

size_t GridIndex::Walk(const CellRange& range, const geo::BoundingBox& query,
                       std::vector<CellVisit>& out) const {
  // Each surviving cell is reported as its row slice, so the caller does
  // the scoring-side work over contiguous rows.
  size_t total = 0;
  for (int cy = range.y0; cy <= range.y1; ++cy) {
    for (int cx = range.x0; cx <= range.x1; ++cx) {
      const size_t slot = CellSlot(cx, cy);
      const Agg& agg = aggs_[slot];
      const CellCert cert = Classify(agg, query);
      if (cert == CellCert::kSkipped) {
        if (agg.cover_max_x != -kInf) ++stats_.cells_skipped;
        continue;
      }
      const CellRef& c = cells_ref_[slot];
      if (cert == CellCert::kBulkAccepted) {
        ++stats_.cells_bulk_accepted;
      } else {
        ++stats_.cells_boundary;
        stats_.boundary_workers += static_cast<int64_t>(c.count);
      }
      out.push_back(CellVisit{c.begin, c.count, static_cast<uint32_t>(slot),
                              cert});
      total += c.count;
    }
  }
  return total;
}

GridIndex::CellAlpha GridIndex::Certify(size_t slot, double task_x,
                                        double task_y) const {
  const CellAgg& a = cell_aggs_[slot];
  if (a.max_x < a.min_x) return CellAlpha::kMixed;  // Empty cell.
  // Every member's kernel dx = fl(x - task_x) lies between fl(min_x -
  // task_x) and fl(max_x - task_x) (rounded subtraction is monotone in x),
  // so |dx| is bracketed by the endpoint magnitudes; squaring and the final
  // add are monotone under rounding too, so d_sq_max / d_sq_min bracket
  // every member's d_sq bit-exactly — certification never disagrees with
  // the per-member trichotomy it replaces.
  const double dx_lo = a.min_x - task_x;
  const double dx_hi = a.max_x - task_x;
  const double dy_lo = a.min_y - task_y;
  const double dy_hi = a.max_y - task_y;
  const double dxm = std::max(std::fabs(dx_lo), std::fabs(dx_hi));
  const double dym = std::max(std::fabs(dy_lo), std::fabs(dy_hi));
  const double d_sq_max = dxm * dxm + dym * dym;
  if (d_sq_max <= a.min_accept_sq) return CellAlpha::kAllAccept;
  const double dxn = dx_lo > 0.0 ? dx_lo : (dx_hi < 0.0 ? -dx_hi : 0.0);
  const double dyn = dy_lo > 0.0 ? dy_lo : (dy_hi < 0.0 ? -dy_hi : 0.0);
  const double d_sq_min = dxn * dxn + dyn * dyn;
  if (d_sq_min >= a.max_reject_sq) return CellAlpha::kAllReject;
  return CellAlpha::kMixed;
}

std::vector<uint32_t> GridIndex::QueryIds(const geo::BoundingBox& query) const {
  std::vector<uint32_t> out;
  Query(query, out);
  return out;
}

size_t GridIndex::RowOf(uint32_t id) const {
  const CellRef& c = cells_ref_[slot_of_id_[id]];
  const auto begin = rows_.id.begin() + static_cast<std::ptrdiff_t>(c.begin);
  const auto end = begin + static_cast<std::ptrdiff_t>(c.count);
  const auto pos = std::lower_bound(begin, end, id);
  SCGUARD_CHECK(pos != end && *pos == id);
  return static_cast<size_t>(pos - rows_.id.begin());
}

bool GridIndex::Remove(uint32_t id) {
  if (!Contains(id)) return false;
  const uint32_t slot = slot_of_id_[id];
  CellRef& c = cells_ref_[slot];
  // Ordered in-slice erase: shift the tail down one; the freed row becomes
  // headroom for a later insert into this cell.
  const auto k = static_cast<std::ptrdiff_t>(RowOf(id));
  const auto end = static_cast<std::ptrdiff_t>(c.begin + c.count);
  rows_.ForEachColumn([&](auto& column) {
    std::move(column.begin() + k + 1, column.begin() + end,
              column.begin() + k);
  });
  --c.count;
  RecomputeCell(slot);
  slot_of_id_[id] = kNoSlot;
  --live_;
  return true;
}

bool GridIndex::Relocate(uint32_t id, geo::Point new_center) {
  if (!Contains(id)) return false;
  const uint32_t slot = slot_of_id_[id];
  const size_t k = RowOf(id);
  if (CellSlotFor(new_center) == slot) {
    // Same-cell move: the slice stays ascending (id unchanged), so only
    // the coordinates and the cell's aggregates change.
    rows_.x[k] = new_center.x;
    rows_.y[k] = new_center.y;
    RecomputeCell(slot);
    return true;
  }
  // Cross-cell move: erase and re-insert the row at its new center.
  const Row row{id,
                new_center,
                rows_.expanded_r[k],
                rows_.accept_below_sq[k],
                rows_.reject_above_sq[k],
                rows_.reach_radius_m[k]};
  Remove(id);
  Insert(row);
  return true;
}

GridIndex::CellCert GridIndex::ClassifyCellForTest(
    int cx, int cy, const geo::BoundingBox& query) const {
  return Classify(aggs_[CellSlot(cx, cy)], query);
}

std::vector<size_t> GridIndex::ClippedSlotsForTest(
    const geo::BoundingBox& query, geo::Point task) const {
  const CellRange rect = QueryRange(query);
  const CellRange clip = ClipToAlphaReach(rect, task);
  std::vector<size_t> out;
  for (int cy = rect.y0; cy <= rect.y1; ++cy) {
    for (int cx = rect.x0; cx <= rect.x1; ++cx) {
      if (cx < clip.x0 || cx > clip.x1 || cy < clip.y0 || cy > clip.y1) {
        out.push_back(CellSlot(cx, cy));
      }
    }
  }
  return out;
}

std::vector<uint32_t> GridIndex::CellMembersForTest(int cx, int cy) const {
  const CellRef& c = cells_ref_[CellSlot(cx, cy)];
  return std::vector<uint32_t>(
      rows_.id.begin() + static_cast<std::ptrdiff_t>(c.begin),
      rows_.id.begin() + static_cast<std::ptrdiff_t>(c.begin + c.count));
}

}  // namespace scguard::index
