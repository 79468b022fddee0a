#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "assign/stages/candidate_stage.h"
#include "geo/bbox.h"
#include "index/grid_index.h"
#include "index/pruning.h"
#include "reachability/analytical_model.h"
#include "reachability/kernel.h"
#include "runtime/thread_pool.h"
#include "stats/rng.h"

namespace scguard::index {
namespace {

geo::BoundingBox RandomBox(stats::Rng& rng, double extent, double max_size) {
  const geo::Point c{rng.UniformDouble(0, extent), rng.UniformDouble(0, extent)};
  return geo::BoundingBox::FromCircle(c, rng.UniformDouble(1.0, max_size));
}

// ------------------------------------------------------------- GridIndex

struct PointEntry {
  geo::Point center;
  double radius = 0.0;
  uint32_t id = 0;
};

PointEntry RandomPointEntry(stats::Rng& rng, double extent, double max_radius,
                            uint32_t id) {
  return {{rng.UniformDouble(0, extent), rng.UniformDouble(0, extent)},
          rng.UniformDouble(1.0, max_radius),
          id};
}

/// The per-entry predicate GridIndex certifies against: the entry's
/// expanded rectangle intersects the query.
bool EntryHits(const PointEntry& e, const geo::BoundingBox& query) {
  return geo::BoundingBox::FromCircle(e.center, e.radius).Intersects(query);
}

/// The grid row of a point entry (the scoring columns stay zero: these
/// tests exercise the rectangle side).
GridIndex::Row RowOf(const PointEntry& e) { return {e.id, e.center, e.radius}; }

std::vector<uint32_t> BruteForcePoints(const std::vector<PointEntry>& entries,
                                       const geo::BoundingBox& query) {
  std::vector<uint32_t> out;
  for (const auto& e : entries) {
    if (EntryHits(e, query)) out.push_back(e.id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(GridIndexTest, MatchesBruteForceAndEmitsAscending) {
  stats::Rng rng(3);
  const geo::BoundingBox region = geo::BoundingBox::FromCorners({0, 0}, {1000, 1000});
  GridIndex grid(region, 16);
  std::vector<PointEntry> entries;
  for (uint32_t i = 0; i < 500; ++i) {
    entries.push_back(RandomPointEntry(rng, 1000.0, 50.0, i));
    grid.Insert(RowOf(entries.back()));
  }
  EXPECT_EQ(grid.size(), 500u);
  for (int q = 0; q < 50; ++q) {
    const geo::BoundingBox query = RandomBox(rng, 1000.0, 120.0);
    const auto got = grid.QueryIds(query);
    // Ascending without any caller-side sort.
    EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
    EXPECT_EQ(got, BruteForcePoints(entries, query)) << "query " << q;
  }
}

TEST(GridIndexTest, OutOfOrderInsertionStaysAscending) {
  stats::Rng rng(8);
  const geo::BoundingBox region = geo::BoundingBox::FromCorners({0, 0}, {1000, 1000});
  GridIndex grid(region, 8);
  std::vector<PointEntry> entries;
  for (uint32_t i = 0; i < 300; ++i) {
    entries.push_back(RandomPointEntry(rng, 1000.0, 40.0, i));
  }
  // Insert in shuffled id order; cells must re-establish ascending ids.
  std::vector<size_t> order(entries.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (size_t i = order.size(); i > 1; --i) {  // Fisher-Yates.
    std::swap(order[i - 1], order[rng.UniformInt(i)]);
  }
  for (const size_t i : order) grid.Insert(RowOf(entries[i]));
  for (int q = 0; q < 30; ++q) {
    const geo::BoundingBox query = RandomBox(rng, 1000.0, 150.0);
    const auto got = grid.QueryIds(query);
    EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
    EXPECT_EQ(got, BruteForcePoints(entries, query)) << "query " << q;
  }
}

TEST(GridIndexTest, EntriesOutsideRegionClampToBorderCells) {
  const geo::BoundingBox region = geo::BoundingBox::FromCorners({0, 0}, {100, 100});
  GridIndex grid(region, 4);
  grid.Insert({1, {-45, -45}, 5.0});
  grid.Insert({2, {205, 205}, 5.0});
  // Queries beyond the region still find them through the border cells.
  EXPECT_EQ(grid.QueryIds(geo::BoundingBox::FromCorners({-60, -60}, {-45, -45})).size(),
            1u);
  EXPECT_EQ(grid.QueryIds(geo::BoundingBox::FromCorners({205, 205}, {220, 220})).size(),
            1u);
}

TEST(GridIndexTest, CellCertificationAgreesWithMemberTests) {
  // Property: a bulk-accepted cell implies every member passes the scalar
  // rectangle test; a skipped cell implies none does. Query() must agree
  // with brute force, and its certification counters must account for
  // every returned id.
  stats::Rng rng(9);
  const double extent = 1000.0;
  const geo::BoundingBox region = geo::BoundingBox::FromCorners({0, 0},
                                                                {extent, extent});
  GridIndex grid(region, 8);
  std::vector<PointEntry> entries;
  for (uint32_t i = 0; i < 400; ++i) {
    entries.push_back(RandomPointEntry(rng, extent, 80.0, i));
    grid.Insert(RowOf(entries.back()));
  }
  auto entry_by_id = [&](uint32_t id) -> const PointEntry& {
    return entries[id];
  };
  for (int q = 0; q < 40; ++q) {
    const geo::BoundingBox query = RandomBox(rng, extent, 200.0);
    for (int cy = 0; cy < grid.cells_per_axis(); ++cy) {
      for (int cx = 0; cx < grid.cells_per_axis(); ++cx) {
        const auto members = grid.CellMembersForTest(cx, cy);
        if (members.empty()) continue;
        switch (grid.ClassifyCellForTest(cx, cy, query)) {
          case GridIndex::CellCert::kBulkAccepted:
            for (const uint32_t id : members) {
              EXPECT_TRUE(EntryHits(entry_by_id(id), query))
                  << "bulk-accepted cell (" << cx << "," << cy
                  << ") holds a non-matching member " << id;
            }
            break;
          case GridIndex::CellCert::kSkipped:
            for (const uint32_t id : members) {
              EXPECT_FALSE(EntryHits(entry_by_id(id), query))
                  << "skipped cell (" << cx << "," << cy
                  << ") holds a matching member " << id;
            }
            break;
          case GridIndex::CellCert::kBoundary:
            break;  // Per-member tests decide; covered by the query check.
        }
      }
    }
    grid.ResetStats();
    const auto got = grid.QueryIds(query);
    EXPECT_EQ(got, BruteForcePoints(entries, query)) << "query " << q;
    const GridIndex::QueryStats& stats = grid.stats();
    EXPECT_GE(stats.boundary_workers, 0);
    // Every returned id came from a bulk-accepted cell or survived a
    // boundary test; bulk cells contribute at least one id each.
    EXPECT_GE(static_cast<int64_t>(got.size()), stats.cells_bulk_accepted);
  }
}

TEST(GridIndexTest, RemoveCompactsAndReAddChurn) {
  // Remove/re-add churn against a brute-force mirror: the compacted cell
  // arrays must keep answering exactly, stay ascending, and Remove must be
  // idempotent.
  stats::Rng rng(10);
  const double extent = 500.0;
  const geo::BoundingBox region = geo::BoundingBox::FromCorners({0, 0},
                                                                {extent, extent});
  GridIndex grid(region, 6);
  std::vector<PointEntry> live;
  std::vector<PointEntry> pool;
  for (uint32_t i = 0; i < 200; ++i) {
    pool.push_back(RandomPointEntry(rng, extent, 60.0, i));
  }
  for (const auto& e : pool) {
    grid.Insert(RowOf(e));
    live.push_back(e);
  }
  for (int step = 0; step < 300; ++step) {
    const uint64_t op = rng.UniformInt(3);
    if (op == 0 && live.empty()) continue;
    if (op == 0) {
      // Remove a random live id.
      const auto k = static_cast<size_t>(rng.UniformInt(live.size()));
      const uint32_t id = live[k].id;
      EXPECT_TRUE(grid.Remove(id));
      EXPECT_FALSE(grid.Remove(id));  // Idempotent.
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
    } else if (op == 1) {
      // Re-add an absent pool entry (possibly at a fresh location).
      const auto k = static_cast<size_t>(rng.UniformInt(pool.size()));
      const bool absent =
          std::none_of(live.begin(), live.end(),
                       [&](const PointEntry& e) { return e.id == pool[k].id; });
      if (!absent) continue;
      PointEntry e = pool[k];
      e.center = {rng.UniformDouble(0, extent), rng.UniformDouble(0, extent)};
      grid.Insert(RowOf(e));
      live.push_back(e);
    } else {
      const geo::BoundingBox query = RandomBox(rng, extent, 120.0);
      const auto got = grid.QueryIds(query);
      EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
      EXPECT_EQ(got, BruteForcePoints(live, query)) << "step " << step;
    }
    EXPECT_EQ(grid.size(), live.size());
  }
}

TEST(GridIndexTest, RelocateMatchesRemoveInsertChurn) {
  // Relocate churn against a brute-force mirror: same-cell jitters (the
  // service's common case, handled in place) and cross-cell jumps
  // (erase + insert) must both keep queries exact and the index ascending.
  stats::Rng rng(17);
  const double extent = 500.0;
  const geo::BoundingBox region =
      geo::BoundingBox::FromCorners({0, 0}, {extent, extent});
  GridIndex grid(region, 6);
  std::vector<PointEntry> live;
  for (uint32_t i = 0; i < 150; ++i) {
    live.push_back(RandomPointEntry(rng, extent, 60.0, i));
    grid.Insert(RowOf(live.back()));
  }
  EXPECT_FALSE(grid.Relocate(999, {10, 10}));  // Unknown id: no-op.
  for (int step = 0; step < 400; ++step) {
    const auto k = static_cast<size_t>(rng.UniformInt(live.size()));
    geo::Point next;
    if (step % 2 == 0) {
      // Small jitter: usually stays in the same cell (~83 m cells here).
      next = {live[k].center.x + rng.UniformDouble(-10.0, 10.0),
              live[k].center.y + rng.UniformDouble(-10.0, 10.0)};
    } else {
      next = {rng.UniformDouble(0, extent), rng.UniformDouble(0, extent)};
    }
    EXPECT_TRUE(grid.Relocate(live[k].id, next));
    live[k].center = next;
    EXPECT_TRUE(grid.Contains(live[k].id));
    if (step % 7 == 0) {
      const geo::BoundingBox query = RandomBox(rng, extent, 120.0);
      const auto got = grid.QueryIds(query);
      EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
      EXPECT_EQ(got, BruteForcePoints(live, query)) << "step " << step;
    }
  }
  // Relocate after Remove is a no-op until a fresh Insert revives the id.
  const uint32_t victim = live.front().id;
  EXPECT_TRUE(grid.Remove(victim));
  EXPECT_FALSE(grid.Contains(victim));
  EXPECT_FALSE(grid.Relocate(victim, {1, 1}));
}

/// `a` and `b` answer every query identically: ids, the certified cell
/// walk (slot, member count, certificate, member ids in slice order) and
/// the certification accounting. Slice offsets may differ.
void ExpectSameAnswers(const GridIndex& a, const GridIndex& b,
                       stats::Rng& rng, const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (int q = 0; q < 30; ++q) {
    const geo::BoundingBox query = RandomBox(rng, 1000.0, 150.0);
    a.ResetStats();
    b.ResetStats();
    EXPECT_EQ(a.QueryIds(query), b.QueryIds(query)) << label << " q" << q;
    std::vector<GridIndex::CellVisit> va, vb;
    EXPECT_EQ(a.VisitQueryCells(query, va), b.VisitQueryCells(query, vb))
        << label;
    ASSERT_EQ(va.size(), vb.size()) << label << " q" << q;
    for (size_t k = 0; k < va.size(); ++k) {
      EXPECT_EQ(va[k].slot, vb[k].slot) << label;
      EXPECT_EQ(va[k].count, vb[k].count) << label;
      EXPECT_EQ(va[k].cert, vb[k].cert) << label;
      for (uint32_t m = 0; m < va[k].count && m < vb[k].count; ++m) {
        EXPECT_EQ(a.rows().id[va[k].begin + m], b.rows().id[vb[k].begin + m])
            << label;
      }
    }
    EXPECT_EQ(a.stats().cells_bulk_accepted, b.stats().cells_bulk_accepted);
    EXPECT_EQ(a.stats().cells_skipped, b.stats().cells_skipped);
    EXPECT_EQ(a.stats().cells_boundary, b.stats().cells_boundary);
    EXPECT_EQ(a.stats().boundary_workers, b.stats().boundary_workers);
  }
  for (int cy = 0; cy < a.cells_per_axis(); ++cy) {
    for (int cx = 0; cx < a.cells_per_axis(); ++cx) {
      EXPECT_EQ(a.CellMembersForTest(cx, cy), b.CellMembersForTest(cx, cy))
          << label << " cell " << cx << "," << cy;
    }
  }
}

/// Every cell's slice offset, to tell slice moves from in-place inserts.
std::vector<size_t> CellBegins(const GridIndex& grid) {
  std::vector<size_t> begins(grid.num_cell_slots());
  for (size_t slot = 0; slot < begins.size(); ++slot) {
    begins[slot] = grid.cell_begin(slot);
  }
  return begins;
}

// The one-pass bulk load is the incremental Insert build, observably: same
// query ids, same certified cell walk and certificates, same accounting —
// and the two stay identical through Remove, Relocate and re-Insert (the
// stage's reactivation) churn afterwards. Every slice starts with a fresh
// layout's headroom, so the first inserts into a bulk-loaded cell move and
// re-lay nothing.
TEST(GridIndexTest, BulkLoadMatchesIncrementalInsert) {
  const geo::BoundingBox region =
      geo::BoundingBox::FromCorners({0, 0}, {1000, 1000});
  stats::Rng rng(23);
  std::vector<PointEntry> entries;
  for (uint32_t i = 0; i < 600; ++i) {
    entries.push_back(RandomPointEntry(rng, 1000.0, 60.0, i));
  }
  GridIndex bulk(region, 8);
  GridIndex incremental(region, 8);
  bulk.BulkLoad(entries.size(), [&](size_t i) { return RowOf(entries[i]); });
  for (const PointEntry& e : entries) incremental.Insert(RowOf(e));
  ExpectSameAnswers(bulk, incremental, rng, "loaded");

  const std::vector<size_t> begins = CellBegins(bulk);
  const size_t rows = bulk.rows().size();
  for (uint32_t k = 0; k < 4; ++k) {
    const GridIndex::Row row{1000 + k, {500.0 + k, 500.0}, 20.0};
    bulk.Insert(row);
    incremental.Insert(row);
  }
  EXPECT_EQ(bulk.rebuilds(), 0);
  EXPECT_EQ(CellBegins(bulk), begins);  // No slice moved.
  EXPECT_EQ(bulk.rows().size(), rows);

  std::vector<PointEntry> removed;
  for (int step = 0; step < 300; ++step) {
    const uint64_t op = rng.UniformInt(3);
    if (op == 0) {
      const auto k = static_cast<size_t>(rng.UniformInt(entries.size()));
      EXPECT_EQ(bulk.Remove(entries[k].id), incremental.Remove(entries[k].id));
      removed.push_back(entries[k]);
    } else if (op == 1) {
      const auto k = static_cast<size_t>(rng.UniformInt(entries.size()));
      geo::Point next = entries[k].center;
      if (step % 2 == 0) {
        next.x += rng.UniformDouble(-10.0, 10.0);
      } else {
        next = {rng.UniformDouble(0, 1000.0), rng.UniformDouble(0, 1000.0)};
      }
      EXPECT_EQ(bulk.Relocate(entries[k].id, next),
                incremental.Relocate(entries[k].id, next));
    } else if (!removed.empty()) {
      const PointEntry e = removed.back();
      removed.pop_back();
      if (!bulk.Contains(e.id)) {
        ASSERT_FALSE(incremental.Contains(e.id));
        bulk.Insert(RowOf(e));
        incremental.Insert(RowOf(e));
      }
    }
    if (step % 50 == 49) {
      ExpectSameAnswers(bulk, incremental, rng,
                        "step " + std::to_string(step));
    }
  }
}

// An Insert into a full slice moves only that slice to the tail of the
// rows (O(cell): its cell_begin changes) instead of re-laying the index.
// GridIndex::rebuilds() counts the re-layouts that remain: a bulk load's
// layout pass is not one, and the first re-layout comes exactly when the
// dead rows the moves left would outnumber the live ones.
TEST(GridIndexTest, OverfillMovesTheSliceAndDeadRowsPastLiveRebuildOnce) {
  const geo::BoundingBox region =
      geo::BoundingBox::FromCorners({0, 0}, {1000, 1000});
  {
    // One cell, worked by hand. 8 loaded rows get a 12-row slice; the 13th
    // insert finds it full with 12 live rows, so moving it would leave 12
    // dead rows: equal to the live count, not past it, so it moves (to an
    // 18-row slice at row 12). The 19th finds 12 + 18 > 18 and re-lays the
    // index: one 27-row slice at row 0, no dead rows.
    GridIndex one(region, 1);
    one.BulkLoad(8, [](size_t i) {
      return GridIndex::Row{static_cast<uint32_t>(i),
                            {100.0 + static_cast<double>(i), 100.0},
                            5.0};
    });
    for (uint32_t id = 8; id < 19; ++id) {
      one.Insert({id, {500.0, 500.0}, 5.0});
      const std::string label = "one cell, insert " + std::to_string(id);
      EXPECT_EQ(one.cell_begin(0), id >= 12 && id < 18 ? 12u : 0u) << label;
      EXPECT_EQ(one.rebuilds(), id >= 18 ? 1 : 0) << label;
      EXPECT_EQ(one.rows().size(), id < 12 ? 12u : (id < 18 ? 30u : 27u))
          << label;
      EXPECT_EQ(one.cell_count(0), id + 1) << label;
      for (uint32_t k = 0; k <= id; ++k) {
        EXPECT_EQ(one.rows().id[one.cell_begin(0) + k], k) << label;
      }
    }
  }
  stats::Rng rng(31);
  std::vector<PointEntry> entries;
  for (uint32_t i = 0; i < 200; ++i) {
    entries.push_back(RandomPointEntry(rng, 1000.0, 40.0, 2 * i));
  }
  GridIndex grid(region, 4);
  grid.BulkLoad(entries.size(), [&](size_t i) { return RowOf(entries[i]); });
  EXPECT_EQ(grid.rebuilds(), 0);
  // Cell (0, 0) holds `count` members in a slice of count + max(4,
  // count / 2) rows; the hand-computed model below tracks that capacity,
  // the dead rows and the live entries.
  const auto capacity_for = [](int64_t count) {
    return count + std::max<int64_t>(4, count / 2);
  };
  int64_t count = static_cast<int64_t>(grid.CellMembersForTest(0, 0).size());
  int64_t cap = capacity_for(count);
  int64_t live = static_cast<int64_t>(entries.size());
  int64_t dead = 0;
  uint32_t next_id = 1;  // Odd ids interleave with the loaded even ones.

  // Overfill cell (0, 0) until the dead rows pass the live entries. Every
  // full slice before that moves; the insert that would push the dead rows
  // past the live count re-lays the index once instead.
  bool rebuilt = false;
  int moves = 0;
  size_t relaid_rows = 0;
  for (int k = 0; !rebuilt; ++k) {
    ASSERT_LT(k, 10000);
    bool moved = false;
    if (count == cap) {
      if (dead + cap > live) {
        rebuilt = true;
        // The re-layout will reclaim every dead row: the rows will hold
        // exactly a fresh layout's slices.
        for (size_t slot = 0; slot < grid.num_cell_slots(); ++slot) {
          relaid_rows +=
              static_cast<size_t>(capacity_for(grid.cell_count(slot)));
        }
      } else {
        dead += cap;
        cap = capacity_for(count);
        moved = true;
      }
    }
    const size_t rows_before = grid.rows().size();
    const std::vector<size_t> begins = CellBegins(grid);
    // Descending positions inside the cell, ids between loaded ones: the
    // insert lands mid-slice, so the move must carry the order along.
    grid.Insert({next_id, {240.0 - 0.01 * k, 10.0}, 5.0});
    next_id += 2;
    ++count;
    ++live;
    const std::string label = "insert " + std::to_string(k);
    ASSERT_EQ(grid.rebuilds(), rebuilt ? 1 : 0) << label;
    if (!rebuilt) {
      // A move puts the slice at the old end of the rows, which grow by
      // its new capacity; nothing else moves.
      std::vector<size_t> expected = begins;
      if (moved) {
        expected[0] = rows_before;
        ++moves;
      }
      EXPECT_EQ(CellBegins(grid), expected) << label;
      EXPECT_EQ(grid.rows().size() - rows_before,
                moved ? static_cast<size_t>(cap) : 0u)
          << label;
    }
    const std::vector<uint32_t> members = grid.CellMembersForTest(0, 0);
    ASSERT_EQ(static_cast<int64_t>(members.size()), count) << label;
    ASSERT_TRUE(std::is_sorted(members.begin(), members.end())) << label;
  }
  EXPECT_GE(moves, 2);
  EXPECT_EQ(grid.rows().size(), relaid_rows);

  // Removals never move or re-lay anything.
  const std::vector<size_t> begins = CellBegins(grid);
  grid.Remove(0);
  grid.Remove(1);
  EXPECT_EQ(grid.rebuilds(), 1);
  EXPECT_EQ(CellBegins(grid), begins);

  // The moved and re-laid index answers like one bulk-loaded over the same
  // rows.
  std::vector<PointEntry> final_entries;
  const reachability::CellMajorMirror& rows = grid.rows();
  for (size_t slot = 0; slot < grid.num_cell_slots(); ++slot) {
    for (size_t pos = grid.cell_begin(slot);
         pos < grid.cell_begin(slot) + grid.cell_count(slot); ++pos) {
      final_entries.push_back(
          {{rows.x[pos], rows.y[pos]}, rows.expanded_r[pos], rows.id[pos]});
    }
  }
  std::sort(final_entries.begin(), final_entries.end(),
            [](const PointEntry& a, const PointEntry& b) { return a.id < b.id; });
  GridIndex fresh(region, 4);
  fresh.BulkLoad(final_entries.size(),
                 [&](size_t i) { return RowOf(final_entries[i]); });
  ExpectSameAnswers(grid, fresh, rng, "after overfill");
}

// ------------------------------------------------------------ Alpha clip

constexpr double kInf = std::numeric_limits<double>::infinity();

// alpha_reach_m() is rounded up until fl(h * h) covers every accept and
// reject bound a row came with, survives Remove, and turns into +inf (the
// clip off) on a NaN or +inf bound, through both Insert and BulkLoad.
TEST(GridIndexTest, AlphaReachCoversEveryBoundAndStaysHigh) {
  const geo::BoundingBox region =
      geo::BoundingBox::FromCorners({0, 0}, {1000, 1000});
  stats::Rng rng(41);
  GridIndex grid(region, 8);
  double mark = 0.0;
  std::vector<uint32_t> ids;
  // 3 first: fl(sqrt(3))^2 < 3, so an unrounded h would not cover it.
  const double fixed[] = {3.0, 1e6, 2.0, 5.0, 7.0};
  for (uint32_t id = 0; id < 200; ++id) {
    const double a = id < 5 ? fixed[id] : rng.UniformDouble(0.0, 4e7);
    const double b = id < 5 ? fixed[id] : a * rng.UniformDouble(1.0, 1.5);
    grid.Insert({id, {rng.UniformDouble(0, 1000), rng.UniformDouble(0, 1000)},
                 10.0, a, b, 100.0});
    ids.push_back(id);
    mark = std::max({mark, a, b});
    const double h = grid.alpha_reach_m();
    ASSERT_TRUE(std::isfinite(h)) << id;
    EXPECT_GE(h * h, mark) << "id " << id;
  }
  const double h = grid.alpha_reach_m();
  for (const uint32_t id : ids) ASSERT_TRUE(grid.Remove(id));
  EXPECT_EQ(grid.alpha_reach_m(), h);  // A high-water mark.
  grid.Insert({500, {1, 1}, 10.0, -1.0, std::nan(""), 0.0});
  EXPECT_EQ(grid.alpha_reach_m(), kInf);

  GridIndex bulk(region, 8);
  bulk.BulkLoad(3, [](size_t i) {
    return GridIndex::Row{static_cast<uint32_t>(i),
                          {100.0 * static_cast<double>(i), 5.0},
                          10.0,
                          1.0,
                          i == 1 ? kInf : 4.0,
                          1.0};
  });
  EXPECT_EQ(bulk.alpha_reach_m(), kInf);
  // With the clip off, the task walk is the rectangle walk.
  const geo::BoundingBox query = geo::BoundingBox::FromCircle({0, 5}, 1.0);
  EXPECT_TRUE(bulk.ClippedSlotsForTest(query, {0, 5}).empty());
}

/// A grid row with the analytical model's certain bands at `reach`, and
/// the expanded rectangle radius `r_w + reach` the U2U stage gives it (a
/// NaN reach keeps the rectangle at r_w: the grid needs a finite one).
GridIndex::Row BandRow(reachability::AlphaThresholdCache& thresholds,
                       uint32_t id, geo::Point center, double reach,
                       double r_w) {
  const reachability::AlphaThreshold t = thresholds.For(reach);
  return {id,          center, std::isnan(reach) ? r_w : r_w + reach,
          t.accept_below_sq, t.reject_above_sq, reach};
}

/// The kernel trichotomy plus the member rectangle test for one row:
/// 0 rejected, 1 certain accept, 2 in the band.
int RowVerdict(const GridIndex::Row& r, geo::Point task,
               const geo::BoundingBox& query) {
  if (!geo::BoundingBox::FromCircle(r.center, r.expanded_r)
           .Intersects(query)) {
    return 0;
  }
  const double dx = r.center.x - task.x;
  const double dy = r.center.y - task.y;
  const double d_sq = dx * dx + dy * dy;
  if (d_sq <= r.accept_below_sq) return 1;
  return d_sq > r.accept_below_sq && d_sq < r.reject_above_sq ? 2 : 0;
}

/// Checks the alpha clip of `grid` (whose live rows are `live`, by id) for
/// one task: every non-empty cell the clip leaves out certifies
/// kAllReject, cells_clipped counts them, the clipped walk is a subset of
/// the rectangle walk, and both walks admit exactly the rows a brute pass
/// over `live` admits, with the same verdicts.
void ExpectClipExact(const GridIndex& grid,
                     const std::map<uint32_t, GridIndex::Row>& live,
                     geo::Point task, const geo::BoundingBox& query,
                     const std::string& label) {
  const std::vector<size_t> clipped = grid.ClippedSlotsForTest(query, task);
  for (const size_t slot : clipped) {
    if (grid.cell_count(slot) == 0) continue;
    EXPECT_EQ(grid.Certify(slot, task.x, task.y),
              GridIndex::CellAlpha::kAllReject)
        << label << " slot " << slot;
  }
  std::map<uint32_t, int> brute;
  for (const auto& [id, row] : live) {
    const int v = RowVerdict(row, task, query);
    if (v != 0) brute[id] = v;
  }
  std::vector<GridIndex::CellVisit> rect_visits, clip_visits;
  grid.VisitQueryCells(query, rect_visits);
  const int64_t clipped_before = grid.stats().cells_clipped;
  grid.VisitQueryCells(query, task, clip_visits);
  EXPECT_EQ(grid.stats().cells_clipped - clipped_before,
            static_cast<int64_t>(clipped.size()))
      << label;
  for (const auto* visits : {&rect_visits, &clip_visits}) {
    std::map<uint32_t, int> got;
    for (const GridIndex::CellVisit& v : *visits) {
      for (size_t pos = v.begin; pos < v.begin + v.count; ++pos) {
        const uint32_t id = grid.rows().id[pos];
        const int verdict = RowVerdict(live.at(id), task, query);
        if (verdict != 0) got[id] = verdict;
      }
    }
    EXPECT_EQ(got, brute) << label;
  }
  size_t k = 0;
  for (const GridIndex::CellVisit& v : clip_visits) {
    while (k < rect_visits.size() && rect_visits[k].slot != v.slot) ++k;
    ASSERT_LT(k, rect_visits.size()) << label << " slot " << v.slot;
  }
}

// The alpha clip over uniform and hotspot layouts, distinct and three
// radii, a NaN-radius row and rows centred outside the region, for tasks
// inside, on and beyond the region edge — on the loaded grid and after
// Remove, cross-cell Relocate, re-Insert, slice moves and a re-layout.
TEST(GridIndexTest, AlphaClipLeavesOutOnlyAllRejectCells) {
  const privacy::PrivacyParams params{0.7, 800.0};
  const reachability::AnalyticalModel model(params);
  const double extent = 20000.0;
  const geo::BoundingBox region =
      geo::BoundingBox::FromCorners({0, 0}, {extent, extent});
  // The stage's confidence rectangles.
  const UncertainRegionPruner boxes({}, params, params, 0.9, region);
  const double r_w = boxes.worker_confidence_radius_m();
  for (const bool hotspot : {false, true}) {
    for (const bool three_radii : {false, true}) {
      const std::string run = std::string(hotspot ? "hotspot" : "uniform") +
                              (three_radii ? "/3 radii" : "/distinct");
      reachability::AlphaThresholdCache thresholds(
          &model, reachability::Stage::kU2U, 0.1);
      stats::Rng rng(hotspot ? 51 : 52);
      const auto random_center = [&]() -> geo::Point {
        if (rng.UniformInt(20) == 0) {  // Outside the region.
          return {rng.UniformDouble(-4000.0, extent + 4000.0),
                  rng.UniformInt(2) == 0 ? -rng.UniformDouble(1.0, 4000.0)
                                         : extent + rng.UniformDouble(1.0, 4000.0)};
        }
        if (hotspot) {
          const double c = rng.UniformInt(2) == 0 ? 6000.0 : 13000.0;
          return {rng.Gaussian(c, 900.0), rng.Gaussian(c, 900.0)};
        }
        return {rng.UniformDouble(0.0, extent), rng.UniformDouble(0.0, extent)};
      };
      const auto random_reach = [&]() {
        if (three_radii) {
          const double tiers[] = {1000.0, 2000.0, 3000.0};
          return tiers[rng.UniformInt(3)];
        }
        return rng.UniformDouble(1000.0, 3000.0);
      };
      const size_t n = 1500;
      std::vector<GridIndex::Row> rows;
      for (uint32_t id = 0; id < n; ++id) {
        const double reach = id == 7 ? std::nan("") : random_reach();
        rows.push_back(BandRow(thresholds, id, random_center(), reach, r_w));
      }
      GridIndex grid(region, 24);
      grid.BulkLoad(n, [&](size_t i) { return rows[i]; });
      std::map<uint32_t, GridIndex::Row> live;
      for (const GridIndex::Row& r : rows) live[r.id] = r;
      ASSERT_TRUE(std::isfinite(grid.alpha_reach_m())) << run;

      const auto check_tasks = [&](const std::string& phase) {
        std::vector<geo::Point> tasks;
        for (int t = 0; t < 12; ++t) {
          tasks.push_back(random_center());
        }
        // On the region edge and beyond it.
        tasks.push_back({0.0, rng.UniformDouble(0.0, extent)});
        tasks.push_back({extent, extent});
        tasks.push_back({-2500.0, rng.UniformDouble(0.0, extent)});
        tasks.push_back({extent + 2500.0, -2500.0});
        int64_t clipped = 0;
        for (size_t t = 0; t < tasks.size(); ++t) {
          const geo::BoundingBox query = boxes.TaskQueryBox(tasks[t]);
          clipped += static_cast<int64_t>(
              grid.ClippedSlotsForTest(query, tasks[t]).size());
          ExpectClipExact(grid, live, tasks[t], query,
                          run + " " + phase + " task " + std::to_string(t));
        }
        EXPECT_GT(clipped, 0) << run << " " << phase;
      };
      check_tasks("loaded");

      std::vector<uint32_t> removed;
      for (int step = 0; step < 400; ++step) {
        const auto id = static_cast<uint32_t>(rng.UniformInt(n));
        const uint64_t op = rng.UniformInt(3);
        if (op == 0 && live.count(id) != 0) {
          ASSERT_TRUE(grid.Remove(id));
          live.erase(id);
          removed.push_back(id);
        } else if (op == 1 && live.count(id) != 0) {
          const geo::Point to = random_center();  // Mostly cross-cell.
          ASSERT_TRUE(grid.Relocate(id, to));
          live[id].center = to;
        } else if (!removed.empty()) {
          GridIndex::Row row = rows[removed.back()];
          removed.pop_back();
          row.center = random_center();
          grid.Insert(row);
          live[row.id] = row;
        }
      }
      check_tasks("churned");

      // Pile rows into one cell: its slice moves to the tail until the
      // dead rows force a re-layout.
      const geo::Point pile{9100.0, 9100.0};
      for (uint32_t id = 0; grid.rebuilds() == 0 && id < n; ++id) {
        if (live.count(id) == 0) continue;
        ASSERT_TRUE(grid.Relocate(id, pile));
        live[id].center = pile;
      }
      EXPECT_EQ(grid.rebuilds(), 1) << run;
      check_tasks("re-laid");
    }
  }
}

// A planted row at the exact edge of the alpha reach: its accept bound
// equals its reject bound (as for a zero reach radius under the binary
// model), its |fl(x - task_x)| rounds to exactly h and it sits just left
// of the cell boundary that fl(task_x - h) lands on. Only the one cell of
// slack keeps its cell in the walk; the kernel accepts it.
TEST(GridIndexTest, AlphaClipSlackKeepsTheEdgeCell) {
  const geo::BoundingBox region =
      geo::BoundingBox::FromCorners({0, 0}, {16, 16});
  GridIndex grid(region, 16);  // 1 m cells: boundaries on whole meters.
  const double bound = 1e6;    // h = 1000 exactly.
  grid.Insert({0, {1.0 - 2e-14, 8.0}, 2000.0, bound, bound, 0.0});
  grid.Insert({1, {12.0, 8.0}, 2000.0, 1.0, 4.0, 1.0});
  ASSERT_EQ(grid.alpha_reach_m(), 1000.0);
  const geo::Point task{1001.0, 8.0};
  ASSERT_EQ(task.x - grid.alpha_reach_m(), 1.0);  // In cell 1.
  ASSERT_EQ(std::fabs((1.0 - 2e-14) - task.x), 1000.0);
  const geo::BoundingBox query = geo::BoundingBox::FromCircle(task, 1.0);
  std::map<uint32_t, GridIndex::Row> live;
  live[0] = {0, {1.0 - 2e-14, 8.0}, 2000.0, bound, bound, 0.0};
  live[1] = {1, {12.0, 8.0}, 2000.0, 1.0, 4.0, 1.0};
  ExpectClipExact(grid, live, task, query, "planted");
  EXPECT_EQ(RowVerdict(live[0], task, query), 1);
}

// The U2U stage's grid Collect — the clipped walk — equals a brute pass
// (rectangle test and Decide over every available worker) across pool x
// shard x SIMD, for uniform and hotspot layouts with three radii, tasks on
// and beyond the region edge, and the stage's churn: matches (Remove),
// cross-cell relocations, reactivations (Insert) and piles that move
// slices and re-lay the rows.
TEST(GridIndexTest, ClippedStageCollectEqualsBrute) {
  const privacy::PrivacyParams params{0.7, 800.0};
  const reachability::AnalyticalModel model(params);
  const double extent = 20000.0;
  const geo::BoundingBox region =
      geo::BoundingBox::FromCorners({0, 0}, {extent, extent});
  const double gamma = 0.9;
  const UncertainRegionPruner boxes({}, params, params, gamma, region);
  const double r_w = boxes.worker_confidence_radius_m();

  std::vector<std::unique_ptr<runtime::ThreadPool>> pools;
  pools.push_back(nullptr);
  pools.push_back(std::make_unique<runtime::ThreadPool>(3));
  for (const bool hotspot : {false, true}) {
    for (const auto& pool : pools) {
      for (const int shard : {64, 4096}) {
        for (const auto simd : {reachability::ClassifySimd::kScalar,
                                reachability::ClassifySimd::kAvx2}) {
          reachability::SetClassifySimd(simd);
          const std::string run =
              std::string(hotspot ? "hotspot" : "uniform") +
              " threads=" + std::to_string(pool ? pool->num_threads() : 0) +
              " shard=" + std::to_string(shard) + " simd=" +
              (reachability::ActiveClassifySimd() ==
                       reachability::ClassifySimd::kAvx2
                   ? "avx2"
                   : "scalar");
          assign::U2uCandidateStage::Config config;
          config.model = &model;
          config.alpha = 0.1;
          config.runtime.pool = pool.get();
          config.runtime.shard_size = shard;
          config.pruning = assign::U2uCandidateStage::Pruning{
              gamma, PrunerBackend::kGrid, params, params, region};
          assign::U2uCandidateStage stage(config);
          stats::Rng rng(hotspot ? 61 : 62);
          const auto random_point = [&]() -> geo::Point {
            if (rng.UniformInt(25) == 0) {
              return {-rng.UniformDouble(1.0, 3000.0),
                      rng.UniformDouble(0.0, extent)};
            }
            if (hotspot) {
              return {rng.Gaussian(7000.0, 1200.0),
                      rng.Gaussian(7000.0, 1200.0)};
            }
            return {rng.UniformDouble(0.0, extent),
                    rng.UniformDouble(0.0, extent)};
          };
          const uint32_t n = 1200;
          const double tiers[] = {1000.0, 2000.0, 3000.0};
          for (uint32_t i = 0; i < n; ++i) {
            stage.AddWorker(random_point(), tiers[rng.UniformInt(3)]);
          }
          const auto check = [&](geo::Point task, const std::string& label) {
            const geo::BoundingBox query = boxes.TaskQueryBox(task);
            std::vector<uint32_t> brute;
            for (uint32_t i = 0; i < n; ++i) {
              if (stage.is_matched(i)) continue;
              const reachability::WorkerFilterSoA& soa = stage.soa();
              if (geo::BoundingBox::FromCircle({soa.x[i], soa.y[i]},
                                               r_w + soa.reach_radius_m[i])
                      .Intersects(query) &&
                  stage.Decide(i, task)) {
                brute.push_back(i);
              }
            }
            EXPECT_EQ(stage.Collect(task), brute) << run << " " << label;
          };
          for (int step = 0; step < 90; ++step) {
            geo::Point task = random_point();
            if (step % 10 == 1) task = {0.0, rng.UniformDouble(0.0, extent)};
            if (step % 10 == 2) task = {extent + 2000.0, extent + 2000.0};
            check(task, "step " + std::to_string(step));
            const std::vector<uint32_t> got = stage.Collect(task);
            if (!got.empty()) stage.MarkMatched(got[got.size() / 2]);
            const auto w = static_cast<uint32_t>(rng.UniformInt(n));
            stage.UpdateWorkerLocation(w, random_point());
            if (step % 3 == 0) stage.MarkAvailable(w);
            if (step == 60) {
              // Pile workers onto one point: slice moves, then a re-layout.
              for (uint32_t i = 0; i < n && stage.grid_rebuilds() == 0; ++i) {
                stage.UpdateWorkerLocation(i, {7100.0, 7100.0});
              }
              EXPECT_GT(stage.grid_rebuilds(), 0) << run;
            }
          }
          ASSERT_NE(stage.grid_query_stats(), nullptr);
          EXPECT_GT(stage.grid_query_stats()->cells_clipped, 0) << run;
          reachability::ResetClassifySimd();
        }
      }
    }
  }
}

// ---------------------------------------------------------------- Pruner

std::vector<UncertainRegionPruner::WorkerRegion> MakeRegions(int n,
                                                             stats::Rng& rng,
                                                             double extent) {
  std::vector<UncertainRegionPruner::WorkerRegion> regions;
  for (int i = 0; i < n; ++i) {
    regions.push_back({i,
                       {rng.UniformDouble(0, extent), rng.UniformDouble(0, extent)},
                       rng.UniformDouble(1000.0, 3000.0)});
  }
  return regions;
}

/// The grid backend's rows over `regions`: each worker's expanded
/// rectangle radius is the pruner's worker confidence radius plus its
/// reach, as the U2U stage builds them.
GridIndex GridOver(const std::vector<UncertainRegionPruner::WorkerRegion>& regions,
                   const UncertainRegionPruner& pruner,
                   const geo::BoundingBox& region) {
  GridIndex grid(region, 16);
  grid.BulkLoad(regions.size(), [&](size_t i) {
    return GridIndex::Row{static_cast<uint32_t>(regions[i].worker_id),
                          regions[i].noisy_location,
                          pruner.worker_confidence_radius_m() +
                              regions[i].reach_radius_m};
  });
  return grid;
}

// The linear MBR scan and the grid walk (GridIndex::Query) admit the same
// workers for the same confidence rectangles.
TEST(PrunerTest, BackendsAgree) {
  stats::Rng rng(4);
  const double extent = 30000.0;
  const auto regions = MakeRegions(300, rng, extent);
  const geo::BoundingBox region = geo::BoundingBox::FromCorners({0, 0},
                                                                {extent, extent});
  const privacy::PrivacyParams params{0.7, 800.0};
  const UncertainRegionPruner linear(regions, params, params, 0.9, region);
  const GridIndex grid = GridOver(regions, linear, region);
  for (int q = 0; q < 30; ++q) {
    const geo::Point task{rng.UniformDouble(0, extent), rng.UniformDouble(0, extent)};
    const std::vector<int64_t> a = linear.Candidates(task);
    const std::vector<uint32_t> b = grid.QueryIds(linear.TaskQueryBox(task));
    EXPECT_EQ(a, std::vector<int64_t>(b.begin(), b.end())) << "task " << q;
  }
}

TEST(PrunerTest, NeverDropsOverlappingDiskPairs) {
  // Conservativeness: if disk(w', rR + Rw) and disk(t', rR) intersect, the
  // worker must be returned (MBRs enclose the disks).
  stats::Rng rng(5);
  const double extent = 20000.0;
  const auto regions = MakeRegions(200, rng, extent);
  const geo::BoundingBox region = geo::BoundingBox::FromCorners({0, 0},
                                                                {extent, extent});
  const privacy::PrivacyParams params{0.7, 800.0};
  const UncertainRegionPruner pruner(regions, params, params, 0.9, region);
  for (int q = 0; q < 50; ++q) {
    const geo::Point task{rng.UniformDouble(0, extent), rng.UniformDouble(0, extent)};
    const std::vector<int64_t> candidates = pruner.Candidates(task);
    for (const auto& w : regions) {
      const double gap = geo::Distance(w.noisy_location, task);
      const double disk_sum = pruner.worker_confidence_radius_m() +
                              w.reach_radius_m +
                              pruner.task_confidence_radius_m();
      if (gap <= disk_sum) {
        EXPECT_TRUE(std::binary_search(candidates.begin(), candidates.end(),
                                       w.worker_id))
            << "worker " << w.worker_id << " at disk distance " << gap;
      }
    }
  }
}

TEST(PrunerTest, ConfidenceRadiusGrowsWithGamma) {
  stats::Rng rng(6);
  const auto regions = MakeRegions(10, rng, 1000.0);
  const geo::BoundingBox region = geo::BoundingBox::FromCorners({0, 0},
                                                                {1000, 1000});
  const privacy::PrivacyParams params{0.7, 800.0};
  const UncertainRegionPruner p50(regions, params, params, 0.5, region);
  const UncertainRegionPruner p99(regions, params, params, 0.99, region);
  EXPECT_LT(p50.worker_confidence_radius_m(), p99.worker_confidence_radius_m());
}

TEST(PrunerTest, FarTaskPrunesMostWorkers) {
  stats::Rng rng(7);
  const double extent = 50000.0;
  const auto regions = MakeRegions(500, rng, extent);
  const geo::BoundingBox region = geo::BoundingBox::FromCorners({0, 0},
                                                                {extent, extent});
  const privacy::PrivacyParams params{1.0, 200.0};  // Little noise.
  const UncertainRegionPruner pruner(regions, params, params, 0.9, region);
  const GridIndex grid = GridOver(regions, pruner, region);
  // A task far outside the deployment region keeps almost nothing.
  const geo::Point far{extent * 3, extent * 3};
  EXPECT_LT(pruner.Candidates(far).size(), 5u);
  EXPECT_LT(grid.QueryIds(pruner.TaskQueryBox(far)).size(), 5u);
}

}  // namespace
}  // namespace scguard::index
