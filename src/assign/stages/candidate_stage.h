#ifndef SCGUARD_ASSIGN_STAGES_CANDIDATE_STAGE_H_
#define SCGUARD_ASSIGN_STAGES_CANDIDATE_STAGE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "assign/stages/candidate_runs.h"
#include "geo/bbox.h"
#include "geo/point.h"
#include "index/grid_index.h"
#include "index/pruning.h"
#include "privacy/privacy_params.h"
#include "reachability/kernel.h"
#include "reachability/model.h"

namespace scguard::runtime {
class ThreadPool;
}  // namespace scguard::runtime

namespace scguard::assign {

/// Stage-level parallelism knobs (DESIGN.md section 9), the per-run analog
/// of ExperimentConfig::runtime. The determinism contract matches the
/// runtime layer's: for a fixed configuration and workload, the candidate
/// stream (and hence MatchResult and the caller RNG stream) is bit-identical
/// for every (pool, shard_size) combination — parallelism only changes
/// wall-clock.
struct EngineRuntime {
  /// Pool the U2U scan fans its shards across. Not owned; must outlive the
  /// stage. nullptr (the default) keeps the scan serial, and
  /// runtime::ParallelFor falls back to serial anyway when the scan is
  /// already executing inside a pool worker (ExperimentRunner's seed
  /// fan-out), so nested parallelism never deadlocks.
  runtime::ThreadPool* pool = nullptr;

  /// Workers per scan shard. Fixed-size shards — never derived from the
  /// thread count — so per-shard candidate vectors concatenate to the same
  /// ascending id order on any pool. Smaller shards balance better once
  /// the active set drains unevenly; 4096 keeps per-shard overhead
  /// negligible up to millions of workers.
  int shard_size = 4096;
};

/// The server-side U2U candidate stage (paper Alg. 1/2 Lines 1-8, DESIGN.md
/// section 10): given noisy worker registrations, answers "which available
/// workers are plausible candidates for this noisy task location?" with
/// Pr(reachable | d') >= alpha. One object owns everything the scan needs —
/// the WorkerFilterSoA snapshot, the AlphaThresholdCache behind its
/// per-worker certain bands, the optional uncertainty-rectangle grid (or
/// linear pruner), and the sharded active-set scan state — so every
/// pipeline (ScGuardEngine, core::TaskingServer, sim/dynamic, BatchMatcher)
/// shares one filter implementation and its decisions stay bit-identical
/// across call sites.
///
/// Not thread-safe; Collect itself fans shards over the configured pool.
/// Intended to be run-local (ExperimentRunner shares one matcher across
/// concurrently running seeds, so nothing here may outlive a Run).
class U2uCandidateStage {
 public:
  /// Uncertainty-rectangle pruning (paper Sec. IV-C1) configuration; when
  /// present the stage queries the index instead of scanning every shard.
  struct Pruning {
    double gamma = 0.9;
    index::PrunerBackend backend = index::PrunerBackend::kGrid;
    /// Privacy levels used to perturb the workload; they size the
    /// confidence rectangles.
    privacy::PrivacyParams worker_params;
    privacy::PrivacyParams task_params;
    /// Deployment region (the grid backend needs it).
    geo::BoundingBox region;
  };

  struct Config {
    /// Model the server evaluates; not owned, must outlive the stage.
    const reachability::ReachabilityModel* model = nullptr;
    /// U2U acceptance threshold, in (0, 1].
    double alpha = 0.1;
    /// Kernel knobs: the certain-band margin (DESIGN.md section 8).
    reachability::KernelOptions kernel;
    /// Sharded-scan knobs (DESIGN.md section 9).
    EngineRuntime runtime;
    /// Optional pruning index over the workers' uncertainty rectangles.
    std::optional<Pruning> pruning;
  };

  /// Per-Collect scan accounting, surfaced so orchestrators can feed
  /// RunMetrics and obs counters without reaching into the scan.
  struct Stats {
    /// Workers scored by the last Collect. On the grid path: the
    /// rectangle-admitted workers of cells the whole-cell alpha certificate
    /// did not reject — a rejected cell's rows are never read, so its
    /// workers count as pruned (DESIGN.md section 13).
    int64_t scanned_last = 0;
    /// Workers the pruned scan skipped last Collect: size() minus
    /// scanned_last (0 for the brute scan).
    int64_t pruned_last = 0;
    /// Modeled scoring-side memory traffic, cumulative over the stage's
    /// life (a traffic model, not a hardware counter — see EXPERIMENTS.md):
    /// gathered workers cost one scattered cache line per SoA stream (4 x
    /// 64 B), brute sequential scans cost the packed 32 B, grid range
    /// scans cost the contiguous rows actually streamed (36 B bulk / 44 B
    /// boundary), and certificate-direct cells cost only their emitted id
    /// run (4 B per id, 0 for whole-cell rejects).
    int64_t gather_bytes = 0;
    /// Cells resolved purely by a whole-cell alpha certificate (accept or
    /// reject) with zero per-worker loads, cumulative. Rectangle-boundary
    /// cells settled by a reject count too.
    int64_t cells_emitted_direct = 0;
    /// Grid rows the range kernels classified one by one (the mixed
    /// bulk cells and the boundary cells not rejected whole), cumulative.
    int64_t rows_classified = 0;
  };

  explicit U2uCandidateStage(Config config);

  /// Pre-sizes the per-worker arrays (optional; registration still grows
  /// them on demand).
  void ReserveWorkers(size_t n);

  /// Registers a worker; indices are assigned in registration order and are
  /// the ids Collect emits. Workers registered after the first Collect
  /// invalidate a configured pruning index (it is rebuilt lazily).
  uint32_t AddWorker(geo::Point noisy_location, double reach_radius_m);

  /// Re-points a worker's noisy location (dynamic re-reporting). The reach
  /// radius — and with it the inverted thresholds — stays fixed.
  void UpdateWorkerLocation(uint32_t worker, geo::Point noisy_location);

  /// Clears all matched marks and restores every shard's active set (round
  /// boundaries in multi-round simulations).
  void ResetAvailability();

  /// Finishes lazy setup — the certain bands of workers registered since
  /// the last call (O(1) each), shard active lists, the pruning index — so
  /// the first Collect pays no setup cost. Collect calls this itself;
  /// exposed so orchestrators can keep setup out of their per-stage
  /// timings.
  void Prepare();

  /// The U2U stage for one task, grouped by grid cell: the available
  /// workers with Pr(reachable | d(w', t')) >= alpha, as CandidateRuns
  /// groups concatenated in chunk order (so pool-independent). The grid
  /// path emits one group per admitting cell plus the band survivors; the
  /// brute and linear-pruner paths one ascending kNoCell list. Valid until
  /// the next Collect / CollectRuns or any mutation of the stage.
  const CandidateRuns& CollectRuns(geo::Point task_noisy_location);

  /// The same set as CollectRuns, as ascending indices. The returned
  /// reference stays valid until the next Collect / CollectRuns. Decisions
  /// are bit-identical for every (pool, shard_size, pruning) combination.
  const std::vector<uint32_t>& Collect(geo::Point task_noisy_location);

  /// Scalar membership test against one task location, ignoring
  /// availability (the batch matcher scores full bipartite feasibility).
  /// Exactly `ProbReachable(kU2U, d, r) >= alpha`: the certain-band
  /// compare, plus one direct evaluation in the band.
  bool Decide(uint32_t worker, geo::Point task_noisy_location);

  /// Marks a worker assigned: it disappears from future Collect results.
  /// Active-set maintenance compacts it out of its shard at the next scan
  /// (or removes it from the pruning index).
  void MarkMatched(uint32_t worker);

  /// Clears one worker's matched mark so it reappears in future Collect
  /// results (service-side reactivation when a matched worker re-reports;
  /// the whole-run analog is ResetAvailability). Restores the worker in the
  /// pruning index / its shard's active list. No-op for workers that are
  /// not matched.
  void MarkAvailable(uint32_t worker);

  bool is_matched(uint32_t worker) const {
    return soa_.matched[worker] != 0;
  }
  size_t size() const { return soa_.size(); }
  size_t available() const;

  const Stats& stats() const { return stats_; }
  /// Cell-certification counters of the grid backend's index, cumulative
  /// over the index's life (nullptr without pruning or for the linear
  /// backend). Orchestrators feed these into RunMetrics / obs counters.
  const index::GridIndex::QueryStats* grid_query_stats() const {
    return grid_ != nullptr ? &grid_->stats() : nullptr;
  }
  /// The grid backend's index once built (nullptr otherwise): one row per
  /// live worker, copied from the SoA.
  const index::GridIndex* grid() const { return grid_.get(); }
  /// Direct in-band model evaluations, cumulative over the stage's life
  /// (summed across shard scratches; call once per run, not per task).
  int64_t band_evals() const;
  /// Radius-lattice nodes the threshold cache inverted, cumulative.
  int64_t threshold_nodes() const { return thresholds_.nodes_bisected(); }
  /// Full re-layouts of the grid backend's rows, cumulative over every
  /// grid the stage built.
  int64_t grid_rebuilds() const;
  /// Active-set shard rebuilds, cumulative.
  int64_t compactions() const;
  /// The worker snapshot (noisy coordinates, radii, matched flags); the
  /// rank stage scores candidates straight off these arrays.
  const reachability::WorkerFilterSoA& soa() const { return soa_; }
  const Config& config() const { return config_; }

 private:
  /// Per-shard scratch of the U2U scan. Each shard owns one instance for
  /// the whole run, so concurrent shard scans never share mutable state and
  /// the vectors' capacities amortize across tasks.
  struct ShardScratch {
    std::vector<uint32_t> live;    ///< This shard's pruner ids (gather).
    std::vector<uint32_t> accept;  ///< Certain accepts, ascending.
    std::vector<uint32_t> band;    ///< In-band indices, then survivors.
    std::vector<uint32_t> out;     ///< This shard's candidates, ascending.
    /// Grid chunks: this chunk's candidate groups; the ones not in rows
    /// index `accept`.
    std::vector<CandidateRuns::Group> groups;
    int64_t scanned = 0;           ///< Workers scored for the current task.
    int64_t band_evals = 0;        ///< Direct model evals, run cumulative.
    int64_t compactions = 0;       ///< Active-set rebuilds, run cumulative.
    int64_t gather_bytes = 0;      ///< Grid-chunk traffic, current task.
    int64_t cells_direct = 0;      ///< Certificate-direct cells, this task.
    int64_t rows_classified = 0;   ///< Range-kernel rows, this task.
  };

  /// Scores `count` workers (an ascending index list with no matched
  /// entries) against the task's noisy location, appending the ascending
  /// candidate subset to `sc.out`. Safe to run concurrently on distinct
  /// scratches: reads only the SoA and the (thread-safe, const) model.
  void ScanIndices(geo::Point task_noisy, const uint32_t* idx, size_t count,
                   ShardScratch& sc) const;

  /// Narrows `sc.band` to the in-band workers that pass a direct
  /// evaluation.
  void ResolveBand(geo::Point task_noisy, ShardScratch& sc) const;

  /// The grid backend's CollectRuns: certified cell walk, chunked range
  /// classification over contiguous row slices, chunk groups concatenated
  /// in chunk order.
  void CollectGrid(geo::Point task_noisy);

  /// Classifies the visits [begin, end) of the current walk against the
  /// task, leaving this chunk's candidate groups in sc.groups (the listed
  /// ids in sc.accept) and its admitted/traffic accounting in sc. Safe to
  /// run concurrently on distinct scratches.
  void ScanGridChunk(geo::Point task_noisy, const geo::BoundingBox& query,
                     size_t begin, size_t end, ShardScratch& sc) const;

  void RebuildShards();

  /// Builds the pruning index over the current workers: the pruner's
  /// confidence radii, and for the grid backend the grid bulk-loaded from
  /// the SoA; workers matched before the build are removed afterwards.
  void BuildPruner();

  /// Drops the pruning index (rebuilt over current data at the next
  /// Prepare), keeping its grid rebuild count.
  void DropPruner();

  /// Worker `i`'s grid row, copied from the SoA.
  index::GridIndex::Row GridRow(uint32_t i) const;

  Config config_;
  reachability::WorkerFilterSoA soa_;
  reachability::AlphaThresholdCache thresholds_;
  /// Confidence radii for both backends; the linear backend's worker copy.
  std::unique_ptr<index::UncertainRegionPruner> pruner_;
  /// The grid backend's row store.
  std::unique_ptr<index::GridIndex> grid_;
  /// Workers [0, warm_) have certain bands and shard slots.
  size_t warm_ = 0;
  /// Set once Prepare ran; a later AddWorker drops a configured pruner so
  /// it is rebuilt over current data.
  bool prepared_ = false;

  // Sharded full-scan state (DESIGN.md section 9): fixed-size shards whose
  // boundaries depend only on (n, shard_size), never on the pool, so
  // concatenating per-shard candidates in shard order reproduces the
  // serial ascending scan bit for bit.
  std::vector<std::vector<uint32_t>> shard_active_;
  std::vector<uint8_t> shard_dirty_;
  std::vector<ShardScratch> shards_;

  /// One shard's slice [begin, end) of the pruner's ascending id list for
  /// the current task. Boundaries come from id / shard_size — the same
  /// fixed shards as the brute scan — so concatenating per-segment outputs
  /// in segment order reproduces the serial whole-list scan.
  struct Segment {
    size_t shard;
    size_t begin;
    size_t end;
  };

  /// One grid chunk: the visit range [begin, end) of the current walk.
  /// Chunks are cut by cumulative member count against shard_size alone —
  /// pool-independent, like Segment boundaries — so chunk contents (and
  /// with them every per-chunk counter) are identical on any pool.
  struct GridChunk {
    size_t begin;
    size_t end;
  };

  // Reused per-Collect scratch.
  CandidateRuns runs_;
  std::vector<uint32_t> candidates_;  ///< Collect's ascending grid union.
  std::vector<int64_t> pruner_ids_;
  std::vector<Segment> segments_;
  std::vector<index::GridIndex::CellVisit> visits_;
  std::vector<GridChunk> grid_chunks_;
  std::vector<uint64_t> accept_bits_;  ///< Collect's union, a bit per worker.
  Stats stats_;
  int64_t retired_grid_rebuilds_ = 0;  ///< Of grids already dropped.
};

}  // namespace scguard::assign

#endif  // SCGUARD_ASSIGN_STAGES_CANDIDATE_STAGE_H_
