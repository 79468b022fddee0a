#include "index/grid_index.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <type_traits>

#include "common/check.h"

namespace scguard::index {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Headroom a rebuild leaves in a cell's slice: grows with the cell so
/// repeated inserts into one cell trigger O(log) rebuilds.
uint32_t SliceCapacityFor(uint32_t count) {
  return count + std::max<uint32_t>(4, count / 2);
}

/// Sizes the member columns for a fresh layout of `total` rows. Past the
/// layout they reserve a sixteenth more for the slices that move to the
/// tail before the next re-layout, so a move usually appends without
/// reallocating — a reallocation would copy every column, the O(n) stall
/// moves exist to avoid. Unwritten capacity is never touched.
void LayOutColumns(size_t total, std::vector<int64_t>& ids,
                   std::vector<double>& xs, std::vector<double>& ys,
                   std::vector<double>& rs) {
  const size_t capacity = total + total / 16;
  ids.reserve(capacity);
  xs.reserve(capacity);
  ys.reserve(capacity);
  rs.reserve(capacity);
  ids.resize(total);
  xs.resize(total);
  ys.resize(total);
  rs.resize(total);
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

void GridIndex::RecomputeAggregates(size_t slot) {
  const CellRef& c = cells_ref_[slot];
  Agg& agg = aggs_[slot];
  agg.Reset();
  for (size_t k = c.begin; k < c.begin + c.count; ++k) {
    agg.Accumulate(xs_[k], ys_[k], rs_[k]);
  }
}

GridIndex::GridIndex(const geo::BoundingBox& region, int cells_per_axis)
    : region_(region),
      cells_(cells_per_axis),
      cell_w_(region.Width() / cells_per_axis),
      cell_h_(region.Height() / cells_per_axis),
      cells_ref_(static_cast<size_t>(cells_per_axis) *
                 static_cast<size_t>(cells_per_axis)),
      aggs_(cells_ref_.size()) {
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
  // streaming pass moves every live slice; the old arrays are replaced
  // wholesale, so any pointer into the member arrays is invalidated (none
  // outlives a call into the index).
  size_t total = 0;
  for (const CellRef& c : cells_ref_) {
    total += SliceCapacityFor(c.count);
  }
  std::vector<int64_t> new_ids;
  std::vector<double> new_xs, new_ys, new_rs;
  LayOutColumns(total, new_ids, new_xs, new_ys, new_rs);
  size_t at = 0;
  for (CellRef& c : cells_ref_) {
    const auto src = static_cast<std::ptrdiff_t>(c.begin);
    const auto dst = static_cast<std::ptrdiff_t>(at);
    std::copy_n(ids_.begin() + src, c.count, new_ids.begin() + dst);
    std::copy_n(xs_.begin() + src, c.count, new_xs.begin() + dst);
    std::copy_n(ys_.begin() + src, c.count, new_ys.begin() + dst);
    std::copy_n(rs_.begin() + src, c.count, new_rs.begin() + dst);
    c.begin = at;
    c.cap = SliceCapacityFor(c.count);
    at += c.cap;
  }
  ids_.swap(new_ids);
  xs_.swap(new_xs);
  ys_.swap(new_ys);
  rs_.swap(new_rs);
  dead_rows_ = 0;
  ++rebuilds_;
  if (listener_ != nullptr) listener_->OnRebuild();
}

void GridIndex::MoveSliceToTail(size_t slot) {
  CellRef& c = cells_ref_[slot];
  const size_t from = c.begin;
  const size_t to = ids_.size();
  const uint32_t cap = SliceCapacityFor(c.count);
  const auto move_column = [&](auto& column) {
    column.resize(to + cap);
    std::copy_n(column.begin() + static_cast<std::ptrdiff_t>(from), c.count,
                column.begin() + static_cast<std::ptrdiff_t>(to));
  };
  move_column(ids_);
  move_column(xs_);
  move_column(ys_);
  move_column(rs_);
  dead_rows_ += c.cap;
  c.begin = to;
  c.cap = cap;
  if (listener_ != nullptr) listener_->OnSliceMove(slot, from, to, c.count);
}

void GridIndex::BulkLoad(size_t n,
                         const std::function<Entry(size_t)>& entry_at) {
  SCGUARD_CHECK(ids_.empty() && live_ == 0);
  // Counting pass: each entry's cell, and every cell's final member count.
  std::vector<uint32_t> slot_of(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t slot = CellSlotFor(entry_at(i).center);
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
  LayOutColumns(total, ids_, xs_, ys_, rs_);
  cells_of_id_.reserve(n);
  bool ascending = true;
  for (size_t i = 0; i < n; ++i) {
    const Entry e = entry_at(i);
    SCGUARD_CHECK(e.expanded_radius_m >= 0.0 &&
                  std::isfinite(e.expanded_radius_m));
    const uint32_t slot = slot_of[i];
    CellRef& c = cells_ref_[slot];
    const size_t pos = c.begin + c.count;
    if (c.count > 0 && e.id < ids_[pos - 1]) ascending = false;
    ids_[pos] = e.id;
    xs_[pos] = e.center.x;
    ys_[pos] = e.center.y;
    rs_[pos] = e.expanded_radius_m;
    ++c.count;
    aggs_[slot].Accumulate(e.center.x, e.center.y, e.expanded_radius_m);
    cells_of_id_[e.id].push_back(slot);
    max_radius_ = std::max(max_radius_, e.expanded_radius_m);
    if (max_id_ < min_id_) {
      min_id_ = max_id_ = e.id;
    } else {
      min_id_ = std::min(min_id_, e.id);
      max_id_ = std::max(max_id_, e.id);
    }
  }
  live_ = n;
  if (!ascending) {
    for (size_t slot = 0; slot < cells_ref_.size(); ++slot) SortSlice(slot);
  }
  if (listener_ != nullptr) listener_->OnRebuild();
}

void GridIndex::SortSlice(size_t slot) {
  const CellRef& c = cells_ref_[slot];
  const auto begin = ids_.begin() + static_cast<std::ptrdiff_t>(c.begin);
  if (std::is_sorted(begin, begin + c.count)) return;
  std::vector<size_t> order(c.count);
  for (size_t k = 0; k < order.size(); ++k) order[k] = c.begin + k;
  std::stable_sort(order.begin(), order.end(),
                   [this](size_t a, size_t b) { return ids_[a] < ids_[b]; });
  const auto permute = [&](auto& column) {
    using T = typename std::decay_t<decltype(column)>::value_type;
    std::vector<T> sorted;
    sorted.reserve(order.size());
    for (const size_t pos : order) sorted.push_back(column[pos]);
    std::copy(sorted.begin(), sorted.end(),
              column.begin() + static_cast<std::ptrdiff_t>(c.begin));
  };
  permute(ids_);
  permute(xs_);
  permute(ys_);
  permute(rs_);
}

void GridIndex::Insert(geo::Point center, double expanded_radius_m,
                       int64_t id) {
  SCGUARD_CHECK(expanded_radius_m >= 0.0 &&
                std::isfinite(expanded_radius_m));
  const size_t slot = CellSlotFor(center);
  if (cells_ref_[slot].count == cells_ref_[slot].cap) {
    // A full slice moves to the tail in O(cell). Its old rows stay dead
    // until they would outnumber the live entries; then one re-layout
    // reclaims them all, so the copying is amortized O(1) per insert.
    if (dead_rows_ + cells_ref_[slot].cap > live_) {
      Rebuild();
    } else {
      MoveSliceToTail(slot);
    }
  }
  CellRef& c = cells_ref_[slot];
  // Ascending insert; callers registering ids in order hit the append path.
  const size_t end = c.begin + c.count;
  size_t pos = end;
  if (c.count > 0 && id < ids_[end - 1]) {
    pos = static_cast<size_t>(
        std::lower_bound(ids_.begin() + static_cast<std::ptrdiff_t>(c.begin),
                         ids_.begin() + static_cast<std::ptrdiff_t>(end), id) -
        ids_.begin());
    const auto from = static_cast<std::ptrdiff_t>(pos);
    const auto to = static_cast<std::ptrdiff_t>(end);
    std::move_backward(ids_.begin() + from, ids_.begin() + to,
                       ids_.begin() + to + 1);
    std::move_backward(xs_.begin() + from, xs_.begin() + to,
                       xs_.begin() + to + 1);
    std::move_backward(ys_.begin() + from, ys_.begin() + to,
                       ys_.begin() + to + 1);
    std::move_backward(rs_.begin() + from, rs_.begin() + to,
                       rs_.begin() + to + 1);
  }
  ids_[pos] = id;
  xs_[pos] = center.x;
  ys_[pos] = center.y;
  rs_[pos] = expanded_radius_m;
  ++c.count;
  aggs_[slot].Accumulate(center.x, center.y, expanded_radius_m);
  if (listener_ != nullptr) {
    listener_->OnSliceInsert(slot, pos, c.begin + c.count);
  }
  cells_of_id_[id].push_back(static_cast<uint32_t>(slot));
  max_radius_ = std::max(max_radius_, expanded_radius_m);
  if (max_id_ < min_id_) {
    min_id_ = max_id_ = id;
  } else {
    min_id_ = std::min(min_id_, id);
    max_id_ = std::max(max_id_, id);
  }
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

void GridIndex::Query(const geo::BoundingBox& query,
                      std::vector<int64_t>& out) const {
  out.clear();
  if (live_ == 0 || query.empty()) return;
  const CellRange range = QueryRange(query);

  // Output-ordering strategy. When the inserted id range is dense relative
  // to the live count (the engine's ids are exactly [0, n)), accepted ids
  // are scattered into a bitmap and read back in word order: ascending and
  // deduplicated in O(hits + range/64), no comparison sorting at all. For
  // sparse id sets a bitmap would be oversized, so each cell records an
  // ascending run and a k-way merge combines them.
  const uint64_t id_span = static_cast<uint64_t>(max_id_) -
                           static_cast<uint64_t>(min_id_) + 1;
  const bool dense = id_span <= 8 * static_cast<uint64_t>(live_) + 8192;
  size_t dense_hits = 0;
  if (dense) {
    bitmap_.assign(static_cast<size_t>((id_span + 63) / 64), 0);
  } else {
    run_starts_.clear();
  }
  const auto set_bit = [this](int64_t id) {
    const uint64_t off =
        static_cast<uint64_t>(id) - static_cast<uint64_t>(min_id_);
    bitmap_[static_cast<size_t>(off >> 6)] |= uint64_t{1} << (off & 63);
  };

  for (int cy = range.y0; cy <= range.y1; ++cy) {
    for (int cx = range.x0; cx <= range.x1; ++cx) {
      const size_t slot = CellSlot(cx, cy);
      // The agg array is the only memory the visit touches until a cell
      // certifies as bulk or boundary: 64 contiguous bytes per cell. The
      // member slices of surviving cells sit in the flat arrays in
      // row-major cell order, so a row sweep streams them near-sequentially
      // instead of chasing one heap vector per cell.
      const Agg& agg = aggs_[slot];
      const CellCert cert = Classify(agg, query);
      if (cert == CellCert::kSkipped) {
        // Empty cells keep the -inf sentinel and are not "skipped work".
        if (agg.cover_max_x != -kInf) ++stats_.cells_skipped;
        continue;
      }
      const CellRef& c = cells_ref_[slot];
      const int64_t* const mids = ids_.data() + c.begin;
      const size_t m = c.count;
      const size_t run = out.size();
      if (cert == CellCert::kBulkAccepted) {
        ++stats_.cells_bulk_accepted;
        if (dense) {
          for (size_t k = 0; k < m; ++k) set_bit(mids[k]);
          dense_hits += m;
        } else {
          out.insert(out.end(), mids, mids + m);
        }
      } else {
        ++stats_.cells_boundary;
        stats_.boundary_workers += static_cast<int64_t>(m);
        const double* const mx = xs_.data() + c.begin;
        const double* const my = ys_.data() + c.begin;
        const double* const mr = rs_.data() + c.begin;
        for (size_t k = 0; k < m; ++k) {
          // Bit-identical to FromCircle(center, r).Intersects(query).
          const bool hit = (mx[k] - mr[k] <= query.max_x) &
                           (query.min_x <= mx[k] + mr[k]) &
                           (my[k] - mr[k] <= query.max_y) &
                           (query.min_y <= my[k] + mr[k]);
          if (dense) {
            if (hit) {
              set_bit(mids[k]);
              ++dense_hits;
            }
          } else if (hit) {
            out.push_back(mids[k]);
          }
        }
      }
      if (!dense && out.size() > run) run_starts_.push_back(run);
    }
  }

  if (dense) {
    out.reserve(dense_hits);
    for (size_t w = 0; w < bitmap_.size(); ++w) {
      uint64_t bits = bitmap_[w];
      while (bits != 0) {
        const int b = std::countr_zero(bits);
        out.push_back(min_id_ +
                      static_cast<int64_t>((w << 6) + static_cast<size_t>(b)));
        bits &= bits - 1;
      }
    }
  } else {
    MergeRuns(out);
    out.erase(std::unique(out.begin(), out.end()), out.end());
  }
}

void GridIndex::MergeRuns(std::vector<int64_t>& out) const {
  // Bottom-up pairwise merge of the recorded ascending runs. Each pass
  // streams `out` once through the scratch buffer and halves the run
  // count: O(n log k) total, allocation-free once the scratch is warm.
  while (run_starts_.size() > 1) {
    merge_buf_.clear();
    merge_buf_.reserve(out.size());
    const size_t num_runs = run_starts_.size();
    size_t next = 0;  // Run starts for the next pass, written in place.
    for (size_t i = 0; i < num_runs; i += 2) {
      const size_t begin0 = run_starts_[i];
      const size_t end0 = i + 1 < num_runs ? run_starts_[i + 1] : out.size();
      const size_t merged_start = merge_buf_.size();
      if (i + 1 < num_runs) {
        const size_t end1 = i + 2 < num_runs ? run_starts_[i + 2] : out.size();
        std::merge(out.begin() + static_cast<std::ptrdiff_t>(begin0),
                   out.begin() + static_cast<std::ptrdiff_t>(end0),
                   out.begin() + static_cast<std::ptrdiff_t>(end0),
                   out.begin() + static_cast<std::ptrdiff_t>(end1),
                   std::back_inserter(merge_buf_));
      } else {
        merge_buf_.insert(merge_buf_.end(),
                          out.begin() + static_cast<std::ptrdiff_t>(begin0),
                          out.end());
      }
      run_starts_[next++] = merged_start;
    }
    run_starts_.resize(next);
    out.swap(merge_buf_);
  }
}

size_t GridIndex::VisitQueryCells(const geo::BoundingBox& query,
                                  std::vector<CellVisit>& out) const {
  // The cell walk of Query, with identical certification accounting, minus
  // the id materialization: each surviving cell is reported as its flat
  // member-array slice so a cell-major mirror can do the scoring-side work
  // over contiguous rows.
  out.clear();
  if (live_ == 0 || query.empty()) return 0;
  const CellRange range = QueryRange(query);
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

std::vector<int64_t> GridIndex::QueryIds(const geo::BoundingBox& query) const {
  std::vector<int64_t> out;
  Query(query, out);
  return out;
}

size_t GridIndex::Remove(int64_t id) {
  const auto it = cells_of_id_.find(id);
  if (it == cells_of_id_.end()) return 0;
  size_t count = 0;
  for (const uint32_t slot : it->second) {
    CellRef& c = cells_ref_[slot];
    // One recorded slot per inserted entry; erase one occurrence each.
    const auto begin = ids_.begin() + static_cast<std::ptrdiff_t>(c.begin);
    const auto end = begin + static_cast<std::ptrdiff_t>(c.count);
    const auto pos = std::lower_bound(begin, end, id);
    SCGUARD_CHECK(pos != end && *pos == id);
    // Ordered in-slice erase: shift the tail down one; the freed slot
    // becomes headroom for a later re-insert into this cell.
    const auto k = pos - ids_.begin();
    const auto slice_end = static_cast<std::ptrdiff_t>(c.begin + c.count);
    std::move(ids_.begin() + k + 1, ids_.begin() + slice_end,
              ids_.begin() + k);
    std::move(xs_.begin() + k + 1, xs_.begin() + slice_end, xs_.begin() + k);
    std::move(ys_.begin() + k + 1, ys_.begin() + slice_end, ys_.begin() + k);
    std::move(rs_.begin() + k + 1, rs_.begin() + slice_end, rs_.begin() + k);
    --c.count;
    RecomputeAggregates(slot);
    if (listener_ != nullptr) {
      listener_->OnSliceErase(slot, static_cast<size_t>(k),
                              c.begin + c.count);
    }
    ++count;
  }
  cells_of_id_.erase(it);
  live_ -= count;
  return count;
}

size_t GridIndex::Relocate(int64_t id, geo::Point new_center) {
  const auto it = cells_of_id_.find(id);
  if (it == cells_of_id_.end()) return 0;
  const size_t new_slot = CellSlotFor(new_center);
  if (it->second.size() == 1 && it->second[0] == new_slot) {
    // Same-cell move: the slice stays ascending (id unchanged), so only
    // the coordinates and the cell's certification aggregates change.
    CellRef& c = cells_ref_[new_slot];
    const auto begin = ids_.begin() + static_cast<std::ptrdiff_t>(c.begin);
    const auto end = begin + static_cast<std::ptrdiff_t>(c.count);
    const auto pos = std::lower_bound(begin, end, id);
    SCGUARD_CHECK(pos != end && *pos == id);
    const auto k = static_cast<size_t>(pos - ids_.begin());
    xs_[k] = new_center.x;
    ys_[k] = new_center.y;
    RecomputeAggregates(new_slot);
    if (listener_ != nullptr) {
      listener_->OnSliceUpdate(new_slot, k, c.begin + c.count);
    }
    return 1;
  }
  // Cross-cell (or multi-entry) move: collect each entry's radius, then
  // erase and re-insert through the ordinary mutation paths so listeners
  // see the usual erase/insert (or rebuild) sequence.
  radius_scratch_.clear();
  for (const uint32_t slot : it->second) {
    const CellRef& c = cells_ref_[slot];
    const auto begin = ids_.begin() + static_cast<std::ptrdiff_t>(c.begin);
    const auto end = begin + static_cast<std::ptrdiff_t>(c.count);
    const auto pos = std::lower_bound(begin, end, id);
    SCGUARD_CHECK(pos != end && *pos == id);
    radius_scratch_.push_back(rs_[static_cast<size_t>(pos - ids_.begin())]);
  }
  const size_t moved = Remove(id);
  for (const double r : radius_scratch_) Insert(new_center, r, id);
  return moved;
}

GridIndex::CellCert GridIndex::ClassifyCellForTest(
    int cx, int cy, const geo::BoundingBox& query) const {
  return Classify(aggs_[CellSlot(cx, cy)], query);
}

std::vector<int64_t> GridIndex::CellMembersForTest(int cx, int cy) const {
  const CellRef& c = cells_ref_[CellSlot(cx, cy)];
  return std::vector<int64_t>(
      ids_.begin() + static_cast<std::ptrdiff_t>(c.begin),
      ids_.begin() + static_cast<std::ptrdiff_t>(c.begin + c.count));
}

}  // namespace scguard::index
