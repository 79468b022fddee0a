#include "assign/stages/cell_mirror.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace scguard::assign {
namespace {

template <typename T>
void ShiftDown(std::vector<T>& v, size_t pos, size_t end) {
  // rows [pos, end) := old rows [pos+1, end+1), mirroring the index's
  // in-slice erase shift.
  std::move(v.begin() + static_cast<std::ptrdiff_t>(pos + 1),
            v.begin() + static_cast<std::ptrdiff_t>(end + 1),
            v.begin() + static_cast<std::ptrdiff_t>(pos));
}

template <typename T>
void ShiftUp(std::vector<T>& v, size_t pos, size_t end) {
  // rows [pos+1, end) := old rows [pos, end-1), opening row `pos`.
  std::move_backward(v.begin() + static_cast<std::ptrdiff_t>(pos),
                     v.begin() + static_cast<std::ptrdiff_t>(end - 1),
                     v.begin() + static_cast<std::ptrdiff_t>(end));
}

constexpr double kInf = std::numeric_limits<double>::infinity();

// How far ahead Resync prefetches a row's by-id soa reads.
constexpr size_t kPrefetchRows = 8;

// The running largest reach radius, with a NaN radius absorbing to +inf:
// std::max would drop it, and a cell bound must never trust a NaN member.
double ReachMax(double acc, double r) {
  return std::isnan(r) ? kInf : std::max(acc, r);
}

}  // namespace

void CellScoreMirror::Attach(index::GridIndex* grid,
                             const reachability::WorkerFilterSoA* soa) {
  SCGUARD_CHECK(grid != nullptr && soa != nullptr);
  ForgetGrid();
  grid_ = grid;
  soa_ = soa;
  Resync();
  grid_->SetSliceChangeListener(this);
}

void CellScoreMirror::ForgetGrid() {
  if (grid_ != nullptr) {
    grid_->SetSliceChangeListener(nullptr);
    grid_ = nullptr;
  }
  soa_ = nullptr;
}

void CellScoreMirror::FillRow(size_t pos) {
  const auto id = static_cast<uint32_t>(grid_->member_id(pos));
  rows_.id[pos] = id;
  rows_.x[pos] = grid_->member_x(pos);
  rows_.y[pos] = grid_->member_y(pos);
  rows_.expanded_r[pos] = grid_->member_r(pos);
  SCGUARD_DCHECK(id < soa_->accept_below_sq.size());
  rows_.accept_below_sq[pos] = soa_->accept_below_sq[id];
  rows_.reject_above_sq[pos] = soa_->reject_above_sq[id];
  rows_.reach_radius_m[pos] = soa_->reach_radius_m[id];
}

void CellScoreMirror::RecomputeAgg(size_t slot) {
  CellAgg a;
  const size_t begin = grid_->cell_begin(slot);
  const size_t count = grid_->cell_count(slot);
  if (count > 0) {
    a.min_x = a.max_x = rows_.x[begin];
    a.min_y = a.max_y = rows_.y[begin];
    a.min_accept_sq = rows_.accept_below_sq[begin];
    a.max_reject_sq = rows_.reject_above_sq[begin];
    a.max_reach_r = ReachMax(-kInf, rows_.reach_radius_m[begin]);
    for (size_t pos = begin + 1; pos < begin + count; ++pos) {
      a.min_x = std::min(a.min_x, rows_.x[pos]);
      a.max_x = std::max(a.max_x, rows_.x[pos]);
      a.min_y = std::min(a.min_y, rows_.y[pos]);
      a.max_y = std::max(a.max_y, rows_.y[pos]);
      a.min_accept_sq = std::min(a.min_accept_sq, rows_.accept_below_sq[pos]);
      a.max_reject_sq = std::max(a.max_reject_sq, rows_.reject_above_sq[pos]);
      a.max_reach_r = ReachMax(a.max_reach_r, rows_.reach_radius_m[pos]);
    }
  }
  aggs_[slot] = a;
}

void CellScoreMirror::Resync() {
  // The index reserves room for slices moved to the tail before its next
  // re-layout; match it so OnSliceMove appends without reallocating.
  rows_.Reserve(grid_->member_capacity());
  rows_.Resize(grid_->member_rows());
  aggs_.assign(grid_->num_cell_slots(), CellAgg{});
  const size_t slots = grid_->num_cell_slots();
  for (size_t slot = 0; slot < slots; ++slot) {
    const size_t begin = grid_->cell_begin(slot);
    const size_t count = grid_->cell_count(slot);
    if (count == 0) continue;
    // Slices are id-ascending but cells are not, so FillRow's by-id soa
    // reads scatter; start them a few rows ahead.
    const size_t end = begin + count;
    for (size_t pos = begin; pos < end; ++pos) {
      if (pos + kPrefetchRows < end) {
        const auto ahead =
            static_cast<size_t>(grid_->member_id(pos + kPrefetchRows));
        __builtin_prefetch(soa_->accept_below_sq.data() + ahead);
        __builtin_prefetch(soa_->reject_above_sq.data() + ahead);
        __builtin_prefetch(soa_->reach_radius_m.data() + ahead);
      }
      FillRow(pos);
    }
    RecomputeAgg(slot);
  }
}

CellScoreMirror::CellAlpha CellScoreMirror::Certify(size_t slot,
                                                    double task_x,
                                                    double task_y) const {
  const CellAgg& a = aggs_[slot];
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

void CellScoreMirror::OnSliceErase(size_t slot, size_t pos, size_t end) {
  ShiftDown(rows_.id, pos, end);
  ShiftDown(rows_.x, pos, end);
  ShiftDown(rows_.y, pos, end);
  ShiftDown(rows_.expanded_r, pos, end);
  ShiftDown(rows_.accept_below_sq, pos, end);
  ShiftDown(rows_.reject_above_sq, pos, end);
  ShiftDown(rows_.reach_radius_m, pos, end);
  RecomputeAgg(slot);
}

void CellScoreMirror::OnSliceInsert(size_t slot, size_t pos, size_t end) {
  if (pos + 1 < end) {
    ShiftUp(rows_.id, pos, end);
    ShiftUp(rows_.x, pos, end);
    ShiftUp(rows_.y, pos, end);
    ShiftUp(rows_.expanded_r, pos, end);
    ShiftUp(rows_.accept_below_sq, pos, end);
    ShiftUp(rows_.reject_above_sq, pos, end);
    ShiftUp(rows_.reach_radius_m, pos, end);
  }
  FillRow(pos);
  RecomputeAgg(slot);
}

void CellScoreMirror::OnSliceUpdate(size_t slot, size_t pos, size_t end) {
  // Same-cell relocate: one row changed in place, no shifting. Re-copying
  // the row also refreshes the certain bands by id (they are unchanged —
  // the radius is fixed — but FillRow is the single source of truth).
  (void)end;
  FillRow(pos);
  RecomputeAgg(slot);
}

void CellScoreMirror::OnSliceMove(size_t slot, size_t from, size_t to,
                                  uint32_t count) {
  // The members are unchanged, so is the cell's aggregate.
  (void)slot;
  rows_.Resize(grid_->member_rows());
  const auto copy = [&](auto& column) {
    std::copy_n(column.begin() + static_cast<std::ptrdiff_t>(from), count,
                column.begin() + static_cast<std::ptrdiff_t>(to));
  };
  copy(rows_.id);
  copy(rows_.x);
  copy(rows_.y);
  copy(rows_.expanded_r);
  copy(rows_.accept_below_sq);
  copy(rows_.reject_above_sq);
  copy(rows_.reach_radius_m);
}

void CellScoreMirror::OnRebuild() { Resync(); }

}  // namespace scguard::assign
