#include "assign/stages/candidate_stage.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <utility>

#include "common/check.h"
#include "common/status.h"
#include "runtime/parallel_for.h"

namespace scguard::assign {

U2uCandidateStage::U2uCandidateStage(Config config)
    : config_(std::move(config)),
      thresholds_(config_.model, reachability::Stage::kU2U, config_.alpha,
                  config_.kernel.threshold_margin) {
  SCGUARD_CHECK(config_.runtime.shard_size >= 1);
}

void U2uCandidateStage::ReserveWorkers(size_t n) {
  soa_.x.reserve(n);
  soa_.y.reserve(n);
  soa_.reach_radius_m.reserve(n);
  soa_.matched.reserve(n);
}

uint32_t U2uCandidateStage::AddWorker(geo::Point noisy_location,
                                      double reach_radius_m) {
  const size_t i = soa_.size();
  SCGUARD_CHECK(i < std::numeric_limits<uint32_t>::max());
  soa_.x.push_back(noisy_location.x);
  soa_.y.push_back(noisy_location.y);
  soa_.reach_radius_m.push_back(reach_radius_m);
  soa_.matched.push_back(0);
  // A registration after Prepare invalidates a built pruning index; it is
  // rebuilt over the full worker set at the next Collect.
  if (config_.pruning.has_value()) DropPruner();
  return static_cast<uint32_t>(i);
}

void U2uCandidateStage::UpdateWorkerLocation(uint32_t worker,
                                             geo::Point noisy_location) {
  soa_.x[worker] = noisy_location.x;
  soa_.y[worker] = noisy_location.y;
  // The certain-band bounds depend only on the (unchanged) reach radius,
  // so the worker's bands stay valid. A built grid relocates the worker's
  // row in place (O(cell), the mutation the service loop amortizes,
  // DESIGN.md §14; a matched worker has no row, and its reactivation reads
  // the SoA); an index not yet built reads the new location when Prepare
  // builds it.
  if (grid_ != nullptr) {
    grid_->Relocate(worker, noisy_location);
  } else if (pruner_ != nullptr) {
    pruner_->Relocate(static_cast<int64_t>(worker), noisy_location);
  }
}

void U2uCandidateStage::MarkAvailable(uint32_t worker) {
  if (!soa_.matched[worker]) return;
  soa_.matched[worker] = 0;
  // Undo MarkMatched's active-set maintenance: re-insert the row into the
  // grid, restore the worker in the linear pruner, or splice the id back
  // into its shard's ascending active list.
  if (grid_ != nullptr) {
    grid_->Insert(GridRow(worker));
  } else if (pruner_ != nullptr) {
    pruner_->Restore(static_cast<int64_t>(worker));
  } else if (prepared_ && !config_.pruning.has_value()) {
    std::vector<uint32_t>& active =
        shard_active_[worker / static_cast<size_t>(config_.runtime.shard_size)];
    const auto pos = std::lower_bound(active.begin(), active.end(), worker);
    // A pending dirty compaction may not have erased the id yet; keep the
    // list duplicate-free either way.
    if (pos == active.end() || *pos != worker) active.insert(pos, worker);
  }
}

void U2uCandidateStage::RebuildShards() {
  const size_t n = soa_.size();
  const auto shard_size = static_cast<size_t>(config_.runtime.shard_size);
  const size_t num_shards = n > 0 ? (n + shard_size - 1) / shard_size : 0;
  shard_active_.assign(num_shards, {});
  shard_dirty_.assign(num_shards, 0);
  shards_.resize(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    const size_t lo = s * shard_size;
    const size_t hi = std::min(n, lo + shard_size);
    shard_active_[s].reserve(hi - lo);
    for (size_t i = lo; i < hi; ++i) {
      if (!soa_.matched[i]) {
        shard_active_[s].push_back(static_cast<uint32_t>(i));
      }
    }
  }
}

index::GridIndex::Row U2uCandidateStage::GridRow(uint32_t i) const {
  return {i,
          {soa_.x[i], soa_.y[i]},
          pruner_->worker_confidence_radius_m() + soa_.reach_radius_m[i],
          soa_.accept_below_sq[i],
          soa_.reject_above_sq[i],
          soa_.reach_radius_m[i]};
}

void U2uCandidateStage::BuildPruner() {
  const size_t n = soa_.size();
  const Pruning& p = *config_.pruning;
  const bool grid = p.backend == index::PrunerBackend::kGrid;
  // The grid reads its rows from the SoA; only the linear scan keeps a
  // worker copy.
  std::vector<index::UncertainRegionPruner::WorkerRegion> regions;
  if (!grid) {
    regions.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      regions.push_back({static_cast<int64_t>(i),
                         {soa_.x[i], soa_.y[i]},
                         soa_.reach_radius_m[i]});
    }
  }
  pruner_ = std::make_unique<index::UncertainRegionPruner>(
      std::move(regions), p.worker_params, p.task_params, p.gamma, p.region);
  if (grid) {
    // The expanded worker rectangles can stick out beyond the deployment
    // region; grow the grid region accordingly so border cells stay
    // balanced.
    const double r_w = pruner_->worker_confidence_radius_m();
    double max_extent = r_w;
    for (size_t i = 0; i < n; ++i) {
      max_extent = std::max(max_extent, r_w + soa_.reach_radius_m[i]);
    }
    geo::BoundingBox grid_region = p.region;
    grid_region.Extend(
        geo::Point{p.region.min_x - max_extent, p.region.min_y - max_extent});
    grid_region.Extend(
        geo::Point{p.region.max_x + max_extent, p.region.max_y + max_extent});
    // Density-adaptive resolution (a perf-only knob: certification is
    // exact at any resolution): target ~64 rows per cell so boundary-cell
    // member tests stay short at a million workers without flooding small
    // workloads with empty cells.
    const int cells_per_axis = std::clamp(
        static_cast<int>(std::ceil(std::sqrt(static_cast<double>(n) / 64.0))),
        16, 512);
    grid_ = std::make_unique<index::GridIndex>(grid_region, cells_per_axis);
    grid_->BulkLoad(n, [this](size_t i) {
      return GridRow(static_cast<uint32_t>(i));
    });
  }
  // Re-apply removals for workers matched before the (re)build.
  for (size_t i = 0; i < n; ++i) {
    if (!soa_.matched[i]) continue;
    if (grid) {
      grid_->Remove(static_cast<uint32_t>(i));
    } else {
      pruner_->Remove(static_cast<int64_t>(i));
    }
  }
}

void U2uCandidateStage::DropPruner() {
  if (grid_ != nullptr) retired_grid_rebuilds_ += grid_->rebuilds();
  grid_.reset();
  pruner_.reset();
}

void U2uCandidateStage::ResetAvailability() {
  std::fill(soa_.matched.begin(), soa_.matched.end(), uint8_t{0});
  if (config_.pruning.has_value()) {
    // Matched workers were removed from the index; rebuild it fresh.
    DropPruner();
  } else if (prepared_) {
    RebuildShards();
  }
}

void U2uCandidateStage::Prepare() {
  const size_t n = soa_.size();
  const bool pruner_ready = !config_.pruning.has_value() || pruner_ != nullptr;
  if (prepared_ && warm_ == n && pruner_ready) return;

  // Per-worker certain bands: O(1) per worker (two lattice-node reads for
  // a bisected model), so only workers registered since the last Prepare
  // pay anything.
  soa_.accept_below_sq.resize(n);
  soa_.reject_above_sq.resize(n);
  for (size_t i = warm_; i < n; ++i) {
    const reachability::AlphaThreshold t =
        thresholds_.For(soa_.reach_radius_m[i]);
    soa_.accept_below_sq[i] = t.accept_below_sq;
    soa_.reject_above_sq[i] = t.reject_above_sq;
  }

  if (config_.pruning.has_value()) {
    // After the certain bands above: the grid copies them into its rows.
    if (pruner_ == nullptr) BuildPruner();
    // Pruned runs partition the index's candidate list across the same
    // fixed-size shards as the brute scan (DESIGN.md §11), so they need the
    // full scratch set — but not shard_active_, which only the brute path
    // reads.
    const auto shard_size = static_cast<size_t>(config_.runtime.shard_size);
    shards_.resize(n > 0 ? (n + shard_size - 1) / shard_size : 0);
  } else if (warm_ == 0) {
    RebuildShards();
  } else {
    // Incremental registrations: indices grow monotonically, so appending
    // to the owning shard keeps its active list ascending.
    const auto shard_size = static_cast<size_t>(config_.runtime.shard_size);
    const size_t num_shards = (n + shard_size - 1) / shard_size;
    shard_active_.resize(num_shards);
    shard_dirty_.resize(num_shards, 0);
    shards_.resize(num_shards);
    for (size_t i = warm_; i < n; ++i) {
      shard_active_[i / shard_size].push_back(static_cast<uint32_t>(i));
    }
  }

  runs_.ids.reserve(n);
  warm_ = n;
  prepared_ = true;
}

void U2uCandidateStage::ResolveBand(geo::Point task_noisy,
                                    ShardScratch& sc) const {
  size_t kept = 0;
  for (const uint32_t i : sc.band) {
    const double d = geo::Distance({soa_.x[i], soa_.y[i]}, task_noisy);
    const bool is_candidate =
        config_.model->ProbReachable(reachability::Stage::kU2U, d,
                                     soa_.reach_radius_m[i]) >= config_.alpha;
    sc.band[kept] = i;
    kept += is_candidate ? 1 : 0;
  }
  sc.band_evals += static_cast<int64_t>(sc.band.size());
  sc.band.resize(kept);
}

void U2uCandidateStage::ScanIndices(geo::Point task_noisy, const uint32_t* idx,
                                    size_t count, ShardScratch& sc) const {
  sc.out.clear();
  sc.scanned = static_cast<int64_t>(count);
  // Branch-free trichotomy over the contiguous SoA arrays, then one direct
  // evaluation per in-band worker.
  reachability::ClassifyCertainBand(soa_, idx, count, task_noisy.x,
                                    task_noisy.y, sc.accept, sc.band);
  ResolveBand(task_noisy, sc);
  // Both lists are ascending subsets of the input, so one merge restores
  // the serial scan's candidate order.
  sc.out.resize(sc.accept.size() + sc.band.size());
  std::merge(sc.accept.begin(), sc.accept.end(), sc.band.begin(),
             sc.band.end(), sc.out.begin());
}

void U2uCandidateStage::ScanGridChunk(geo::Point task_noisy,
                                      const geo::BoundingBox& query,
                                      size_t begin, size_t end,
                                      ShardScratch& sc) const {
  sc.accept.clear();
  sc.band.clear();
  sc.groups.clear();
  sc.scanned = 0;
  sc.gather_bytes = 0;
  sc.cells_direct = 0;
  sc.rows_classified = 0;
  const reachability::CellMajorMirror& m = grid_->rows();
  // Ids appended to sc.accept since `from` become one listed group.
  const auto push_list = [&sc](size_t from, uint32_t slot) {
    const size_t count = sc.accept.size() - from;
    if (count > 0) {
      sc.groups.push_back({from, static_cast<uint32_t>(count), slot, false});
    }
  };
  for (size_t v = begin; v < end; ++v) {
    const index::GridIndex::CellVisit& visit = visits_[v];
    if (v + 1 < end) {
      // The next cell's slice is a known contiguous address; start pulling
      // its first lines while this cell classifies.
      const size_t nx = visits_[v + 1].begin;
      __builtin_prefetch(m.x.data() + nx);
      __builtin_prefetch(m.y.data() + nx);
      __builtin_prefetch(m.accept_below_sq.data() + nx);
    }
    // Alpha first: a candidate must pass both the rectangle and alpha, so
    // the cell-level alpha certificate runs before any row is read.
    const index::GridIndex::CellAlpha alpha =
        grid_->Certify(visit.slot, task_noisy.x, task_noisy.y);
    if (alpha == index::GridIndex::CellAlpha::kAllReject) {
      // No member can reach alpha, whatever the rectangle says: the cell
      // is finished without a row read, and its workers are not scanned.
      ++sc.cells_direct;
      continue;
    }
    if (visit.cert == index::GridIndex::CellCert::kBulkAccepted) {
      // Every member is rectangle-admitted.
      sc.scanned += static_cast<int64_t>(visit.count);
      if (alpha == index::GridIndex::CellAlpha::kAllAccept) {
        // The whole slice is the group: no id is copied. The traffic model
        // still charges the id run U2E reads if it opens the cell.
        sc.groups.push_back({visit.begin, visit.count, visit.slot, true});
        sc.gather_bytes += static_cast<int64_t>(visit.count) * 4;
        ++sc.cells_direct;
      } else {
        const size_t from = sc.accept.size();
        reachability::ClassifyCertainBandRange(m, visit.begin, visit.count,
                                               task_noisy.x, task_noisy.y,
                                               sc.accept, sc.band);
        push_list(from, visit.slot);
        sc.rows_classified += static_cast<int64_t>(visit.count);
        sc.gather_bytes += static_cast<int64_t>(visit.count) * 36;
      }
    } else {
      const size_t from = sc.accept.size();
      const size_t admitted = reachability::ClassifyCertainBandRangeRect(
          m, visit.begin, visit.count, task_noisy.x, task_noisy.y,
          query.min_x, query.min_y, query.max_x, query.max_y, sc.accept,
          sc.band);
      push_list(from, visit.slot);
      sc.scanned += static_cast<int64_t>(admitted);
      sc.rows_classified += static_cast<int64_t>(visit.count);
      sc.gather_bytes += static_cast<int64_t>(visit.count) * 44;
    }
  }
  // The same band resolution as ScanIndices, so the grid and gather
  // paths agree bit for bit (and count the same band_evals). Survivors
  // are plain entries: a cell bound would cover a handful of rows.
  ResolveBand(task_noisy, sc);
  const size_t from = sc.accept.size();
  sc.accept.insert(sc.accept.end(), sc.band.begin(), sc.band.end());
  push_list(from, CandidateRuns::kNoCell);
}

void U2uCandidateStage::CollectGrid(geo::Point task_noisy_location) {
  const size_t n = soa_.size();
  const EngineRuntime& rt = config_.runtime;
  const geo::BoundingBox query = pruner_->TaskQueryBox(task_noisy_location);
  grid_->VisitQueryCells(query, task_noisy_location, visits_);

  // Cut the visit list into chunks of >= shard_size members. Boundaries
  // depend only on the walk and shard_size — never the pool — so per-chunk
  // outputs and counters are reproducible; at most one chunk more than the
  // brute scan's shard count exists, hence the resize.
  const auto shard_size = static_cast<size_t>(rt.shard_size);
  grid_chunks_.clear();
  size_t chunk_begin = 0;
  size_t acc = 0;
  for (size_t v = 0; v < visits_.size(); ++v) {
    acc += visits_[v].count;
    if (acc >= shard_size) {
      grid_chunks_.push_back({chunk_begin, v + 1});
      chunk_begin = v + 1;
      acc = 0;
    }
  }
  if (chunk_begin < visits_.size()) {
    grid_chunks_.push_back({chunk_begin, visits_.size()});
  }
  if (shards_.size() < grid_chunks_.size()) {
    shards_.resize(grid_chunks_.size());
  }

  const Status scan_status = runtime::ParallelFor(
      rt.pool, 0, static_cast<int64_t>(grid_chunks_.size()), /*grain=*/1,
      [&](int64_t lo, int64_t hi) -> Status {
        for (int64_t j = lo; j < hi; ++j) {
          const GridChunk& chunk = grid_chunks_[static_cast<size_t>(j)];
          ScanGridChunk(task_noisy_location, query, chunk.begin, chunk.end,
                        shards_[static_cast<size_t>(j)]);
        }
        return Status::OK();
      });
  SCGUARD_CHECK(scan_status.ok());

  // Concatenate the chunks' groups in chunk order (pool-independent),
  // re-basing the listed ones onto the shared id storage.
  runs_.grid = grid_.get();
  for (size_t j = 0; j < grid_chunks_.size(); ++j) {
    const ShardScratch& sc = shards_[j];
    const size_t base = runs_.ids.size();
    runs_.ids.insert(runs_.ids.end(), sc.accept.begin(), sc.accept.end());
    for (CandidateRuns::Group g : sc.groups) {
      if (!g.in_rows) g.begin += base;
      runs_.groups.push_back(g);
      runs_.size += g.count;
    }
    stats_.scanned_last += sc.scanned;
    stats_.gather_bytes += sc.gather_bytes;
    stats_.cells_emitted_direct += sc.cells_direct;
    stats_.rows_classified += sc.rows_classified;
  }
  stats_.pruned_last = static_cast<int64_t>(n) - stats_.scanned_last;
}

const std::vector<uint32_t>& U2uCandidateStage::Collect(
    geo::Point task_noisy_location) {
  const CandidateRuns& runs = CollectRuns(task_noisy_location);
  // The brute and linear-pruner scans already produce the ascending list.
  if (runs.grid == nullptr) return runs.ids;
  // Union the groups through a dense bitmap and read it back in word
  // order: an order-independent set union, so the ascending result equals
  // the gather path's ascending concatenation no matter how cells were
  // chunked.
  candidates_.clear();
  accept_bits_.assign((soa_.size() + 63) / 64, 0);
  runs.ForEach([this](uint32_t i) {
    accept_bits_[i >> 6] |= uint64_t{1} << (i & 63);
  });
  candidates_.reserve(runs.size);
  for (size_t w = 0; w < accept_bits_.size(); ++w) {
    uint64_t bits = accept_bits_[w];
    while (bits != 0) {
      const int b = std::countr_zero(bits);
      candidates_.push_back(
          static_cast<uint32_t>((w << 6) + static_cast<size_t>(b)));
      bits &= bits - 1;
    }
  }
  return candidates_;
}

const CandidateRuns& U2uCandidateStage::CollectRuns(
    geo::Point task_noisy_location) {
  Prepare();
  const size_t n = soa_.size();
  const EngineRuntime& rt = config_.runtime;
  runs_.Clear();
  stats_.scanned_last = 0;
  stats_.pruned_last = 0;

  if (grid_ != nullptr) {
    CollectGrid(task_noisy_location);
    return runs_;
  }
  // The brute and linear-pruner scans build one ascending list in place.
  std::vector<uint32_t>& candidates = runs_.ids;
  const auto finish_list = [this]() -> const CandidateRuns& {
    runs_.size = runs_.ids.size();
    if (runs_.size > 0) {
      runs_.groups.push_back({0, static_cast<uint32_t>(runs_.size),
                              CandidateRuns::kNoCell, false});
    }
    return runs_;
  };

  if (pruner_ != nullptr) {
    // The linear MBR scan itself stays serial; the classification work it
    // feeds is what fans out.
    pruner_->Candidates(task_noisy_location, pruner_ids_);
    stats_.pruned_last = static_cast<int64_t>(n) -
                         static_cast<int64_t>(pruner_ids_.size());
    // Partition the ascending id list into per-shard segments using the
    // same fixed boundaries as the brute scan (shard of id = id /
    // shard_size — depends only on (n, shard_size), never the pool), then
    // fan the non-empty segments over the pool and concatenate their
    // outputs in segment order. Segments are ascending and disjoint, so
    // the result reproduces the old serial whole-list scan bit for bit.
    const auto shard_size = static_cast<size_t>(rt.shard_size);
    const size_t m = pruner_ids_.size();
    segments_.clear();
    for (size_t pos = 0; pos < m;) {
      const size_t shard = static_cast<size_t>(pruner_ids_[pos]) / shard_size;
      const auto shard_end = static_cast<int64_t>((shard + 1) * shard_size);
      size_t end = pos + 1;
      while (end < m && pruner_ids_[end] < shard_end) ++end;
      segments_.push_back({shard, pos, end});
      pos = end;
    }
    const Status scan_status = runtime::ParallelFor(
        rt.pool, 0, static_cast<int64_t>(segments_.size()), /*grain=*/1,
        [&](int64_t lo, int64_t hi) -> Status {
          for (int64_t j = lo; j < hi; ++j) {
            const Segment& seg = segments_[static_cast<size_t>(j)];
            ShardScratch& sc = shards_[seg.shard];
            // MarkMatched removed matched workers from the index, so the
            // query result is already the live set.
            sc.live.clear();
            for (size_t k = seg.begin; k < seg.end; ++k) {
              sc.live.push_back(static_cast<uint32_t>(pruner_ids_[k]));
            }
            ScanIndices(task_noisy_location, sc.live.data(), sc.live.size(),
                        sc);
          }
          return Status::OK();
        });
    SCGUARD_CHECK(scan_status.ok());
    // Segment order == ascending id order; untouched shards keep stale
    // scratch from earlier tasks, so only this task's segments reduce.
    for (const Segment& seg : segments_) {
      const ShardScratch& sc = shards_[seg.shard];
      candidates.insert(candidates.end(), sc.out.begin(), sc.out.end());
      stats_.scanned_last += sc.scanned;
      // Traffic model: each gathered worker touches one scattered cache
      // line per SoA stream (x, y, accept_sq, reject_sq).
      stats_.gather_bytes += sc.scanned * 256;
    }
    return finish_list();
  }

  const auto num_shards = static_cast<int64_t>(shards_.size());
  const Status scan_status = runtime::ParallelFor(
      rt.pool, 0, num_shards, /*grain=*/1,
      [&](int64_t lo, int64_t hi) -> Status {
        for (int64_t s = lo; s < hi; ++s) {
          std::vector<uint32_t>& active = shard_active_[static_cast<size_t>(s)];
          ShardScratch& sc = shards_[static_cast<size_t>(s)];
          if (shard_dirty_[static_cast<size_t>(s)]) {
            // Stage-boundary rebuild from matched[]: a stable filter, so
            // the shard stays ascending and the next scan touches only
            // available workers.
            active.erase(
                std::remove_if(
                    active.begin(), active.end(),
                    [&](uint32_t i) { return soa_.matched[i] != 0; }),
                active.end());
            shard_dirty_[static_cast<size_t>(s)] = 0;
            ++sc.compactions;
          }
          ScanIndices(task_noisy_location, active.data(), active.size(), sc);
        }
        return Status::OK();
      });
  SCGUARD_CHECK(scan_status.ok());
  // Seed-order reduction: shard order == ascending id order.
  for (const ShardScratch& sc : shards_) {
    candidates.insert(candidates.end(), sc.out.begin(), sc.out.end());
    stats_.scanned_last += sc.scanned;
    // Traffic model: the brute scan streams the four packed doubles.
    stats_.gather_bytes += sc.scanned * 32;
  }
  return finish_list();
}

bool U2uCandidateStage::Decide(uint32_t worker,
                               geo::Point task_noisy_location) {
  Prepare();
  // The scan's trichotomy for one worker: certain regions first (no
  // sqrt), one direct evaluation in the band.
  const geo::Point noisy{soa_.x[worker], soa_.y[worker]};
  const double d_sq = geo::SquaredDistance(noisy, task_noisy_location);
  if (d_sq <= soa_.accept_below_sq[worker]) return true;
  if (d_sq >= soa_.reject_above_sq[worker]) return false;
  return config_.model->ProbReachable(
             reachability::Stage::kU2U,
             geo::Distance(noisy, task_noisy_location),
             soa_.reach_radius_m[worker]) >= config_.alpha;
}

void U2uCandidateStage::MarkMatched(uint32_t worker) {
  soa_.matched[worker] = 1;
  // Active-set maintenance: full scans compact the shard at its next scan;
  // pruned runs drop the worker from the index so queries stop returning
  // it.
  if (grid_ != nullptr) {
    grid_->Remove(worker);
  } else if (pruner_ != nullptr) {
    pruner_->Remove(static_cast<int64_t>(worker));
  } else if (prepared_) {
    shard_dirty_[worker / static_cast<size_t>(config_.runtime.shard_size)] = 1;
  }
}

size_t U2uCandidateStage::available() const {
  size_t n = 0;
  for (const uint8_t m : soa_.matched) n += m == 0 ? 1 : 0;
  return n;
}

int64_t U2uCandidateStage::band_evals() const {
  int64_t sum = 0;
  for (const ShardScratch& sc : shards_) sum += sc.band_evals;
  return sum;
}

int64_t U2uCandidateStage::grid_rebuilds() const {
  return retired_grid_rebuilds_ + (grid_ != nullptr ? grid_->rebuilds() : 0);
}

int64_t U2uCandidateStage::compactions() const {
  int64_t sum = 0;
  for (const ShardScratch& sc : shards_) sum += sc.compactions;
  return sum;
}

}  // namespace scguard::assign
