#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "geo/bbox.h"
#include "index/grid_index.h"
#include "index/pruning.h"
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
