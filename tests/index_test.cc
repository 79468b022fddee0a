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
  int64_t id = 0;
};

PointEntry RandomPointEntry(stats::Rng& rng, double extent, double max_radius,
                            int64_t id) {
  return {{rng.UniformDouble(0, extent), rng.UniformDouble(0, extent)},
          rng.UniformDouble(1.0, max_radius),
          id};
}

/// The per-entry predicate GridIndex certifies against: the entry's
/// expanded rectangle intersects the query.
bool EntryHits(const PointEntry& e, const geo::BoundingBox& query) {
  return geo::BoundingBox::FromCircle(e.center, e.radius).Intersects(query);
}

std::vector<int64_t> BruteForcePoints(const std::vector<PointEntry>& entries,
                                      const geo::BoundingBox& query) {
  std::vector<int64_t> out;
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
  for (int64_t i = 0; i < 500; ++i) {
    entries.push_back(RandomPointEntry(rng, 1000.0, 50.0, i));
    grid.Insert(entries.back().center, entries.back().radius, i);
  }
  EXPECT_EQ(grid.size(), 500u);
  for (int q = 0; q < 50; ++q) {
    const geo::BoundingBox query = RandomBox(rng, 1000.0, 120.0);
    const auto got = grid.QueryIds(query);
    // Ascending without any caller-side sort: the k-way merge contract.
    EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
    EXPECT_EQ(got, BruteForcePoints(entries, query)) << "query " << q;
  }
}

TEST(GridIndexTest, OutOfOrderInsertionStaysAscending) {
  stats::Rng rng(8);
  const geo::BoundingBox region = geo::BoundingBox::FromCorners({0, 0}, {1000, 1000});
  GridIndex grid(region, 8);
  std::vector<PointEntry> entries;
  for (int64_t i = 0; i < 300; ++i) {
    entries.push_back(RandomPointEntry(rng, 1000.0, 40.0, i));
  }
  // Insert in shuffled id order; cells must re-establish ascending ids.
  std::vector<size_t> order(entries.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (size_t i = order.size(); i > 1; --i) {  // Fisher-Yates.
    std::swap(order[i - 1], order[rng.UniformInt(i)]);
  }
  for (const size_t i : order) {
    grid.Insert(entries[i].center, entries[i].radius, entries[i].id);
  }
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
  grid.Insert({-45, -45}, 5.0, 1);
  grid.Insert({205, 205}, 5.0, 2);
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
  for (int64_t i = 0; i < 400; ++i) {
    entries.push_back(RandomPointEntry(rng, extent, 80.0, i));
    grid.Insert(entries.back().center, entries.back().radius, i);
  }
  auto entry_by_id = [&](int64_t id) -> const PointEntry& {
    return entries[static_cast<size_t>(id)];
  };
  for (int q = 0; q < 40; ++q) {
    const geo::BoundingBox query = RandomBox(rng, extent, 200.0);
    for (int cy = 0; cy < grid.cells_per_axis(); ++cy) {
      for (int cx = 0; cx < grid.cells_per_axis(); ++cx) {
        const auto members = grid.CellMembersForTest(cx, cy);
        if (members.empty()) continue;
        switch (grid.ClassifyCellForTest(cx, cy, query)) {
          case GridIndex::CellCert::kBulkAccepted:
            for (const int64_t id : members) {
              EXPECT_TRUE(EntryHits(entry_by_id(id), query))
                  << "bulk-accepted cell (" << cx << "," << cy
                  << ") holds a non-matching member " << id;
            }
            break;
          case GridIndex::CellCert::kSkipped:
            for (const int64_t id : members) {
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
  for (int64_t i = 0; i < 200; ++i) {
    pool.push_back(RandomPointEntry(rng, extent, 60.0, i));
  }
  for (const auto& e : pool) {
    grid.Insert(e.center, e.radius, e.id);
    live.push_back(e);
  }
  for (int step = 0; step < 300; ++step) {
    const uint64_t op = rng.UniformInt(3);
    if (op == 0 && live.empty()) continue;
    if (op == 0) {
      // Remove a random live id.
      const auto k = static_cast<size_t>(rng.UniformInt(live.size()));
      const int64_t id = live[k].id;
      EXPECT_EQ(grid.Remove(id), 1u);
      EXPECT_EQ(grid.Remove(id), 0u);  // Idempotent.
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
      grid.Insert(e.center, e.radius, e.id);
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
  for (int64_t i = 0; i < 150; ++i) {
    live.push_back(RandomPointEntry(rng, extent, 60.0, i));
    grid.Insert(live.back().center, live.back().radius, live.back().id);
  }
  EXPECT_EQ(grid.Relocate(999, {10, 10}), 0u);  // Unknown id: no-op.
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
    EXPECT_EQ(grid.Relocate(live[k].id, next), 1u);
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
  const int64_t victim = live.front().id;
  EXPECT_EQ(grid.Remove(victim), 1u);
  EXPECT_FALSE(grid.Contains(victim));
  EXPECT_EQ(grid.Relocate(victim, {1, 1}), 0u);
}

TEST(GridIndexTest, SparseIdsFallBackToRunMergeCorrectly) {
  // Ids spread over a huge range disable the dense bitmap ordering; the
  // run-merge fallback must produce the same ascending answers.
  stats::Rng rng(21);
  const geo::BoundingBox region = geo::BoundingBox::FromCorners({0, 0},
                                                                {1000, 1000});
  GridIndex grid(region, 8);
  std::vector<PointEntry> entries;
  for (int i = 0; i < 120; ++i) {
    // Widely scattered ids, including negatives and near-2^40 values.
    const int64_t id = (static_cast<int64_t>(i) << 33) - 4000000000LL +
                       static_cast<int64_t>(rng.UniformInt(1000));
    entries.push_back(RandomPointEntry(rng, 1000.0, 60.0, id));
    grid.Insert(entries.back().center, entries.back().radius, id);
  }
  for (int q = 0; q < 30; ++q) {
    const geo::BoundingBox query = RandomBox(rng, 1000.0, 200.0);
    const auto got = grid.QueryIds(query);
    EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
    EXPECT_EQ(got, BruteForcePoints(entries, query)) << "query " << q;
  }
}

TEST(GridIndexTest, DuplicateIdEmittedOnce) {
  // An id inserted at two locations is reported once per query that reaches
  // either entry — in both the dense-bitmap and the sparse-merge regimes.
  const geo::BoundingBox region = geo::BoundingBox::FromCorners({0, 0},
                                                                {1000, 1000});
  const geo::BoundingBox everywhere = region;
  {
    GridIndex dense(region, 8);
    dense.Insert({100, 100}, 10.0, 7);
    dense.Insert({900, 900}, 10.0, 7);
    const auto ids = dense.QueryIds(everywhere);
    ASSERT_EQ(ids.size(), 1u);
    EXPECT_EQ(ids[0], 7);
    EXPECT_EQ(dense.Remove(7), 2u);
  }
  {
    GridIndex sparse(region, 8);
    sparse.Insert({100, 100}, 10.0, 7);
    sparse.Insert({900, 900}, 10.0, 7);
    sparse.Insert({500, 500}, 10.0, int64_t{1} << 40);  // Force sparse mode.
    const auto ids = sparse.QueryIds(everywhere);
    ASSERT_EQ(ids.size(), 2u);
    EXPECT_EQ(ids[0], 7);
    EXPECT_EQ(ids[1], int64_t{1} << 40);
  }
}

/// Counts wholesale re-layouts and slice moves of the member arrays.
class RebuildCounter final : public GridIndex::SliceChangeListener {
 public:
  void OnSliceErase(size_t, size_t, size_t) override {}
  void OnSliceInsert(size_t, size_t, size_t) override {}
  void OnSliceUpdate(size_t, size_t, size_t) override {}
  void OnSliceMove(size_t, size_t, size_t, uint32_t) override { ++moves; }
  void OnRebuild() override { ++rebuilds; }
  int rebuilds = 0;
  int moves = 0;
};

/// A derived view that keeps a copy of the member id column through the
/// listener callbacks alone, as the scoring mirror does (re-reading only
/// on a rebuild), and counts the slice moves and rebuilds it saw.
class IdShadow final : public GridIndex::SliceChangeListener {
 public:
  explicit IdShadow(const GridIndex* grid) : grid_(grid) { Resync(); }
  void OnSliceErase(size_t, size_t pos, size_t end) override {
    std::move(ids.begin() + static_cast<std::ptrdiff_t>(pos + 1),
              ids.begin() + static_cast<std::ptrdiff_t>(end + 1),
              ids.begin() + static_cast<std::ptrdiff_t>(pos));
  }
  void OnSliceInsert(size_t, size_t pos, size_t end) override {
    std::move_backward(ids.begin() + static_cast<std::ptrdiff_t>(pos),
                       ids.begin() + static_cast<std::ptrdiff_t>(end - 1),
                       ids.begin() + static_cast<std::ptrdiff_t>(end));
    ids[pos] = grid_->member_id(pos);
  }
  void OnSliceUpdate(size_t, size_t, size_t) override {}
  void OnSliceMove(size_t, size_t from, size_t to, uint32_t count) override {
    ++moves;
    ids.resize(grid_->member_rows());
    std::copy_n(ids.begin() + static_cast<std::ptrdiff_t>(from), count,
                ids.begin() + static_cast<std::ptrdiff_t>(to));
  }
  void OnRebuild() override {
    ++rebuilds;
    Resync();
  }
  void Resync() {
    ids.resize(grid_->member_rows());
    for (size_t pos = 0; pos < ids.size(); ++pos) {
      ids[pos] = grid_->member_id(pos);
    }
  }
  /// Every live slice row equals the index's.
  void ExpectInSync(const std::string& label) const {
    ASSERT_EQ(ids.size(), grid_->member_rows()) << label;
    for (size_t slot = 0; slot < grid_->num_cell_slots(); ++slot) {
      const size_t begin = grid_->cell_begin(slot);
      for (size_t pos = begin; pos < begin + grid_->cell_count(slot); ++pos) {
        ASSERT_EQ(ids[pos], grid_->member_id(pos)) << label << " slot " << slot;
      }
    }
  }
  std::vector<int64_t> ids;
  int moves = 0;
  int rebuilds = 0;

 private:
  const GridIndex* grid_;
};

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
        EXPECT_EQ(a.member_id(va[k].begin + m), b.member_id(vb[k].begin + m))
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

// The one-pass bulk load is the incremental Insert build, observably: same
// query ids, same certified cell walk and certificates, same accounting —
// for ascending input (the engine's registration order) and shuffled input
// with a duplicated id — and the two stay identical through Remove,
// Relocate and re-Insert (the pruner's Restore) churn afterwards. Every
// slice starts with a fresh layout's headroom, so the first inserts into
// a bulk-loaded cell move and re-lay nothing.
TEST(GridIndexTest, BulkLoadMatchesIncrementalInsert) {
  const geo::BoundingBox region =
      geo::BoundingBox::FromCorners({0, 0}, {1000, 1000});
  for (const bool shuffled : {false, true}) {
    const std::string label = shuffled ? "shuffled" : "ascending";
    stats::Rng rng(shuffled ? 24 : 23);
    std::vector<PointEntry> entries;
    for (int64_t i = 0; i < 600; ++i) {
      entries.push_back(RandomPointEntry(rng, 1000.0, 60.0, i));
    }
    if (shuffled) {
      // A second entry for id 7, far from the first; then a shuffle.
      entries.push_back({{950.0, 40.0}, 12.0, 7});
      for (size_t i = entries.size() - 1; i > 0; --i) {
        std::swap(entries[i], entries[static_cast<size_t>(
                                  rng.UniformInt(i + 1))]);
      }
    }
    GridIndex bulk(region, 8);
    GridIndex incremental(region, 8);
    bulk.BulkLoad(entries.size(), [&](size_t i) {
      return GridIndex::Entry{entries[i].center, entries[i].radius,
                              entries[i].id};
    });
    for (const PointEntry& e : entries) {
      incremental.Insert(e.center, e.radius, e.id);
    }
    ExpectSameAnswers(bulk, incremental, rng, label + " loaded");

    RebuildCounter counter;
    bulk.SetSliceChangeListener(&counter);
    for (int k = 0; k < 4; ++k) {
      const geo::Point p{500.0 + k, 500.0};
      bulk.Insert(p, 20.0, 1000 + k);
      incremental.Insert(p, 20.0, 1000 + k);
    }
    EXPECT_EQ(counter.rebuilds, 0) << label;
    EXPECT_EQ(counter.moves, 0) << label;
    bulk.SetSliceChangeListener(nullptr);

    std::vector<PointEntry> removed;
    for (int step = 0; step < 300; ++step) {
      const uint64_t op = rng.UniformInt(3);
      if (op == 0 && !entries.empty()) {
        const auto k = static_cast<size_t>(rng.UniformInt(entries.size()));
        EXPECT_EQ(bulk.Remove(entries[k].id),
                  incremental.Remove(entries[k].id)) << label;
        removed.push_back(entries[k]);
      } else if (op == 1 && !entries.empty()) {
        const auto k = static_cast<size_t>(rng.UniformInt(entries.size()));
        geo::Point next = entries[k].center;
        if (step % 2 == 0) {
          next.x += rng.UniformDouble(-10.0, 10.0);
        } else {
          next = {rng.UniformDouble(0, 1000.0), rng.UniformDouble(0, 1000.0)};
        }
        EXPECT_EQ(bulk.Relocate(entries[k].id, next),
                  incremental.Relocate(entries[k].id, next)) << label;
      } else if (!removed.empty()) {
        const PointEntry e = removed.back();
        removed.pop_back();
        if (!bulk.Contains(e.id)) {
          ASSERT_FALSE(incremental.Contains(e.id)) << label;
          bulk.Insert(e.center, e.radius, e.id);
          incremental.Insert(e.center, e.radius, e.id);
        }
      }
      if (step % 50 == 49) {
        ExpectSameAnswers(bulk, incremental, rng,
                          label + " step " + std::to_string(step));
      }
    }
  }
}

// An Insert into a full slice moves only that slice to the tail of the
// member arrays (O(cell), listener OnSliceMove) instead of re-laying the
// index. GridIndex::rebuilds() counts the re-layouts that remain: a bulk
// load's layout pass is not one, and the first re-layout comes exactly
// when the dead rows the moves left would outnumber the live entries.
TEST(GridIndexTest, OverfillMovesTheSliceAndDeadRowsPastLiveRebuildOnce) {
  const geo::BoundingBox region =
      geo::BoundingBox::FromCorners({0, 0}, {1000, 1000});
  {
    // One cell, worked by hand. 8 loaded entries get a 12-row slice; the
    // 13th insert finds it full with 12 live entries, so moving it would
    // leave 12 dead rows: equal to the live count, not past it, so it
    // moves (to an 18-row slice). The 19th finds 12 + 18 > 18 and re-lays
    // the index: one 27-row slice, no dead rows.
    GridIndex one(region, 1);
    one.BulkLoad(8, [](size_t i) {
      return GridIndex::Entry{{100.0 + static_cast<double>(i), 100.0}, 5.0,
                              static_cast<int64_t>(i)};
    });
    IdShadow shadow(&one);
    one.SetSliceChangeListener(&shadow);
    for (int64_t id = 8; id < 19; ++id) {
      one.Insert({500.0, 500.0}, 5.0, id);
      const std::string label = "one cell, insert " + std::to_string(id);
      EXPECT_EQ(shadow.moves, id >= 12 ? 1 : 0) << label;
      EXPECT_EQ(one.rebuilds(), id >= 18 ? 1 : 0) << label;
      EXPECT_EQ(one.member_rows(), id < 12 ? 12u : (id < 18 ? 30u : 27u))
          << label;
      shadow.ExpectInSync(label);
    }
    one.SetSliceChangeListener(nullptr);
  }
  stats::Rng rng(31);
  std::vector<PointEntry> entries;
  for (int64_t i = 0; i < 200; ++i) {
    entries.push_back(RandomPointEntry(rng, 1000.0, 40.0, 2 * i));
  }
  GridIndex grid(region, 4);
  grid.BulkLoad(entries.size(), [&](size_t i) {
    return GridIndex::Entry{entries[i].center, entries[i].radius,
                            entries[i].id};
  });
  EXPECT_EQ(grid.rebuilds(), 0);
  IdShadow shadow(&grid);
  grid.SetSliceChangeListener(&shadow);
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
  int expected_moves = 0;
  int64_t next_id = 1;  // Odd ids interleave with the loaded even ones.

  // Overfill cell (0, 0) until the dead rows pass the live entries. Every
  // full slice before that moves; the insert that would push the dead rows
  // past the live count re-lays the index once instead.
  bool rebuilt = false;
  size_t relaid_rows = 0;
  for (int k = 0; !rebuilt; ++k) {
    ASSERT_LT(k, 10000);
    bool moved = false;
    if (count == cap) {
      if (dead + cap > live) {
        rebuilt = true;
        // The re-layout will reclaim every dead row: the arrays will hold
        // exactly a fresh layout's slices.
        for (size_t slot = 0; slot < grid.num_cell_slots(); ++slot) {
          relaid_rows +=
              static_cast<size_t>(capacity_for(grid.cell_count(slot)));
        }
      } else {
        dead += cap;
        cap = capacity_for(count);
        moved = true;
        ++expected_moves;
      }
    }
    const size_t rows_before = grid.member_rows();
    // Descending positions inside the cell, ids between loaded ones: the
    // insert lands mid-slice, so the move must carry the order along.
    grid.Insert({240.0 - 0.01 * k, 10.0}, 5.0, next_id);
    next_id += 2;
    ++count;
    ++live;
    const std::string label = "insert " + std::to_string(k);
    ASSERT_EQ(shadow.moves, expected_moves) << label;
    ASSERT_EQ(grid.rebuilds(), rebuilt ? 1 : 0) << label;
    ASSERT_EQ(shadow.rebuilds, rebuilt ? 1 : 0) << label;
    if (!rebuilt) {
      // A move grows the arrays by the slice's new capacity, nothing else.
      EXPECT_EQ(grid.member_rows() - rows_before,
                moved ? static_cast<size_t>(cap) : 0u)
          << label;
    }
    const std::vector<int64_t> members = grid.CellMembersForTest(0, 0);
    ASSERT_EQ(static_cast<int64_t>(members.size()), count) << label;
    ASSERT_TRUE(std::is_sorted(members.begin(), members.end())) << label;
    shadow.ExpectInSync(label);
  }
  EXPECT_GE(expected_moves, 2);
  EXPECT_EQ(grid.member_rows(), relaid_rows);

  // Removals never move or re-lay anything.
  const int moves = shadow.moves;
  grid.Remove(0);
  grid.Remove(1);
  EXPECT_EQ(grid.rebuilds(), 1);
  EXPECT_EQ(shadow.moves, moves);
  shadow.ExpectInSync("after removals");

  // The moved and re-laid index answers like one bulk-loaded over the same
  // entries.
  std::vector<PointEntry> final_entries;
  for (size_t slot = 0; slot < grid.num_cell_slots(); ++slot) {
    for (size_t pos = grid.cell_begin(slot);
         pos < grid.cell_begin(slot) + grid.cell_count(slot); ++pos) {
      final_entries.push_back({{grid.member_x(pos), grid.member_y(pos)},
                               grid.member_r(pos),
                               grid.member_id(pos)});
    }
  }
  GridIndex fresh(region, 4);
  fresh.BulkLoad(final_entries.size(), [&](size_t i) {
    return GridIndex::Entry{final_entries[i].center, final_entries[i].radius,
                            final_entries[i].id};
  });
  ExpectSameAnswers(grid, fresh, rng, "after overfill");
  grid.SetSliceChangeListener(nullptr);
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

TEST(PrunerTest, BackendsAgree) {
  stats::Rng rng(4);
  const double extent = 30000.0;
  const auto regions = MakeRegions(300, rng, extent);
  const geo::BoundingBox region = geo::BoundingBox::FromCorners({0, 0},
                                                                {extent, extent});
  const privacy::PrivacyParams params{0.7, 800.0};
  const UncertainRegionPruner linear(regions, params, params, 0.9,
                                     PrunerBackend::kLinearScan, region);
  const UncertainRegionPruner grid(regions, params, params, 0.9,
                                   PrunerBackend::kGrid, region);
  for (int q = 0; q < 30; ++q) {
    const geo::Point task{rng.UniformDouble(0, extent), rng.UniformDouble(0, extent)};
    auto a = linear.Candidates(task);
    auto b = grid.Candidates(task);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b);
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
  const UncertainRegionPruner pruner(regions, params, params, 0.9,
                                     PrunerBackend::kGrid, region);
  for (int q = 0; q < 50; ++q) {
    const geo::Point task{rng.UniformDouble(0, extent), rng.UniformDouble(0, extent)};
    auto candidates = pruner.Candidates(task);
    std::sort(candidates.begin(), candidates.end());
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
  const UncertainRegionPruner p50(regions, params, params, 0.5,
                                  PrunerBackend::kLinearScan, region);
  const UncertainRegionPruner p99(regions, params, params, 0.99,
                                  PrunerBackend::kLinearScan, region);
  EXPECT_LT(p50.worker_confidence_radius_m(), p99.worker_confidence_radius_m());
}

TEST(PrunerTest, FarTaskPrunesMostWorkers) {
  stats::Rng rng(7);
  const double extent = 50000.0;
  const auto regions = MakeRegions(500, rng, extent);
  const geo::BoundingBox region = geo::BoundingBox::FromCorners({0, 0},
                                                                {extent, extent});
  const privacy::PrivacyParams params{1.0, 200.0};  // Little noise.
  const UncertainRegionPruner pruner(regions, params, params, 0.9,
                                     PrunerBackend::kGrid, region);
  // A task far outside the deployment region keeps almost nothing.
  const auto candidates = pruner.Candidates({extent * 3, extent * 3});
  EXPECT_LT(candidates.size(), 5u);
}

}  // namespace
}  // namespace scguard::index
