#ifndef SCGUARD_ASSIGN_STAGES_RANK_STAGE_H_
#define SCGUARD_ASSIGN_STAGES_RANK_STAGE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "assign/matcher.h"
#include "assign/stages/candidate_runs.h"
#include "geo/point.h"
#include "obs/recorder.h"
#include "reachability/kernel.h"
#include "reachability/model.h"

namespace scguard::assign {

/// When the requester applies the beta threshold (Alg. 2 Line 13).
enum class BetaMode {
  /// Re-check before every disclosure: as soon as the best *remaining*
  /// candidate scores below beta the task is cancelled. The literal
  /// reading of Algorithm 2 (Line 17 loops back through Line 13).
  kEveryContact,
  /// Check only the initial top-ranked candidate; once the requester
  /// starts contacting, she goes best-effort through the ranked list.
  /// Reproduces the paper's reported utility at strict privacy better
  /// (see bench_ablation_beta and EXPERIMENTS.md).
  kFirstContactOnly,
};

/// The deterministic contact order every ranking call site uses: score
/// descending, then id ascending as the tie-break (Alg. 2 Line 12 plus the
/// determinism contract of DESIGN.md section 10). `Pair` is any
/// (score, id)-shaped pair whose second member orders like an id.
struct ScoreDescIdAscLess {
  template <typename Pair>
  bool operator()(const Pair& a, const Pair& b) const {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;  // Stable tie-break for determinism.
  }
};

/// Sorts a ranked-candidate list into the shared contact order.
template <typename Pair>
void SortRankedCandidates(std::vector<Pair>& ranked) {
  std::sort(ranked.begin(), ranked.end(), ScoreDescIdAscLess{});
}

/// As above for pairs whose second member is not itself the id (e.g. the
/// protocol layer ranks CandidateWorker pointers); `id_of` projects it.
template <typename Pair, typename IdFn>
void SortRankedCandidates(std::vector<Pair>& ranked, IdFn id_of) {
  std::sort(ranked.begin(), ranked.end(),
            [&id_of](const Pair& a, const Pair& b) {
              if (a.first != b.first) return a.first > b.first;
              return id_of(a.second) < id_of(b.second);
            });
}

/// One task's U2E ranking, produced lazily (DESIGN.md section 10). Entries
/// come out in exactly the SortRankedCandidates order (score descending, id
/// ascending) with exactly the scores U2eRankStage::Rank assigns, but a
/// candidate is scored only once its upper bound reaches the best exact
/// score not yet emitted: every unscored candidate then scores at most its
/// bound, strictly below the entry about to be emitted. Equal bounds fall
/// through to an exact evaluation, so ties still break by id. Obtained from
/// U2eRankStage::Open; valid until that stage's next Open.
///
/// Unscored candidates sit in a max-heap ("hot") or, while their bounds
/// stay below every score still to be emitted, in an unordered "cold" list
/// that is never heapified: a task that contacts one or two workers pays
/// one linear pass to find its hot set instead of ordering every bound.
/// Opened over CandidateRuns, whole cells wait in a third max-heap under
/// one bound each (best-first "distance browsing", Hjaltason & Samet,
/// TODS 1999): a cell's members get per-candidate bounds only once the
/// cell's bound is the largest pending one and reaches the best scored
/// entry.
class U2eRankCursor {
 public:
  using Entry = std::pair<double, size_t>;

  /// Writes the next entry in contact order; false once all are emitted.
  bool Next(Entry& entry);

  /// Calls `fn(id)` for every candidate not yet emitted, in no particular
  /// order (E2E's false-dismissal count needs the set, not the order).
  template <typename Fn>
  void ForEachRemaining(Fn&& fn) const {
    for (const Pending& p : cold_) fn(static_cast<size_t>(p.id));
    for (const Pending& p : hot_) fn(static_cast<size_t>(p.id));
    for (const Entry& e : scored_) fn(e.second);
    for (const Pending& p : cells_) {
      runs_->ForEachIn(runs_->groups[p.id],
                       [&fn](uint32_t id) { fn(static_cast<size_t>(id)); });
    }
  }

 private:
  friend class U2eRankStage;

  struct Pending {
    double bound;  ///< >= the candidate's exact score; == it when exact_.
    uint32_t id;   ///< Worker id; in cells_, the index of a runs_ group.
  };
  static bool BoundLess(const Pending& a, const Pending& b) {
    return a.bound < b.bound;
  }

  /// Starts a task over the candidates in cold_ and the cells in cells_:
  /// moves the best-bounded candidate (cold_[top]) to the hot heap and
  /// certifies the first entry.
  void Start(size_t top, double max_bound);

  /// Scores hot candidates, highest bound first, refills the hot heap from
  /// the cold list and opens cells, until no unscored bound reaches the
  /// best scored entry.
  void Certify();

  /// Opens the best-bounded cell: its members enter the hot heap under
  /// their own lattice bounds, read straight from the grid rows for a
  /// certificate-accepted cell and by id from the SoA for a listed one,
  /// then the heap is rebuilt once.
  void Expand();

  /// Moves every cold candidate whose bound reaches `threshold` (all of
  /// them once kMaxRefills passes have run) to the hot heap.
  void Refill(double threshold);

  /// Cold passes per task before the rest is heapified wholesale, which
  /// caps a long contact walk at a few linear passes plus one heapify.
  static constexpr int kMaxRefills = 3;

  const reachability::ReachabilityModel* model_ = nullptr;
  const reachability::WorkerFilterSoA* soa_ = nullptr;
  reachability::U2eBoundLattice* lattice_ = nullptr;  ///< Cells only.
  const CandidateRuns* runs_ = nullptr;  ///< Owner of cells_' groups.
  geo::Point task_;
  bool exact_ = true;  ///< Bounds are already the exact scores.
  int refills_ = 0;
  int64_t exact_evals_ = 0;
  int64_t cells_expanded_ = 0;
  std::vector<Pending> cells_;  ///< Max-heap of unopened cells.
  std::vector<Pending> cold_;  ///< Unordered; every bound <= cold_max_.
  double cold_max_ = 0.0;
  std::vector<Pending> hot_;   ///< Max-heap on bound.
  std::vector<Entry> scored_;  ///< Heap with the best entry in front.
};

/// The requester-side U2E ranking stage (Alg. 2 Lines 10-12, DESIGN.md
/// section 10): scores candidates against the *exact* task location — which
/// only the requester knows — and orders them best-first with the shared
/// deterministic tie-break. Two forms: the eager Rank scores every
/// candidate through one ProbReachableBatch call and sorts; Open returns a
/// U2eRankCursor that scores lazily behind certified lattice bounds
/// (U2eBoundLattice) when the model declares Monotone(kU2E), and in full
/// otherwise. Random and nearest-neighbor strategies score from a
/// caller-supplied rank array / the observed distance.
///
/// Not thread-safe (the bound lattice fills lazily); run-local like the
/// other stages.
class U2eRankStage {
 public:
  struct Config {
    /// Scoring model; required (and only consulted) for kProbability.
    /// Not owned.
    const reachability::ReachabilityModel* model = nullptr;
    RankStrategy rank = RankStrategy::kProbability;
    /// kernel.threshold_margin pads every lattice bound.
    reachability::KernelOptions kernel;
    /// The epsilon the candidates' noisy locations were perturbed at —
    /// recorded on the flight recorder's per-task U2E audit event
    /// (recorder.h kAuditCandidates). Audit metadata only; never consulted
    /// by scoring.
    double audit_epsilon = 0.0;
  };

  explicit U2eRankStage(const Config& config);

  /// Ranks `candidates` (indices into `soa`) for a task at
  /// `exact_task_location` into `ranked` (score, worker index), sorted
  /// score-desc / id-asc. `random_rank` supplies the per-worker priorities
  /// for kRandom (may be nullptr otherwise).
  ///
  /// When the flight recorder is on, emits one kAuditCandidates event
  /// (`audit_task_id`, candidate count, config.audit_epsilon) — every
  /// candidate's noisy location is a worker-side disclosure to the
  /// requester — plus one kAuditCandidate per ranked entry in full-audit
  /// mode (obs::AuditFullEnabled).
  void Rank(const reachability::WorkerFilterSoA& soa,
            const std::vector<uint32_t>& candidates,
            geo::Point exact_task_location, const double* random_rank,
            std::vector<std::pair<double, size_t>>& ranked,
            int64_t audit_task_id = obs::kAuditNoTask);

  /// The lazy form of Rank over a cell-grouped candidate set
  /// (U2uCandidateStage::CollectRuns): the returned cursor emits the
  /// entries Rank gives over the same ids. When the model declares
  /// Monotone(kU2E), `runs` has a grid and full audit is off, a cell's
  /// members are gathered and bounded only when the cell's bound — the
  /// lattice bound at the distance from the exact task to the nearest
  /// point of the cell's member box and at the cell's largest reach
  /// radius — can still win. Every other member (kNoCell groups, and all
  /// of them when there is no cell bound to take) is bounded up front: by
  /// the lattice, else scored exactly. The candidates needed to certify the
  /// first entry are scored before returning. Emits the kAuditCandidates
  /// event as Rank does; full-audit callers drain the cursor to log every
  /// score. The positions and radii in `soa`, `random_rank`, `runs` and
  /// the grid rows it names must stay unchanged while the cursor is in
  /// use.
  U2eRankCursor& Open(const reachability::WorkerFilterSoA& soa,
                      const CandidateRuns& runs,
                      geo::Point exact_task_location,
                      const double* random_rank,
                      int64_t audit_task_id = obs::kAuditNoTask);

  /// Exact model evaluations made by Rank, Open and their cursors so far
  /// (lattice node fills excluded).
  int64_t exact_evals() const {
    return batch_evals_ + cursor_.exact_evals_;
  }

  /// Cells the cell-run cursors opened so far.
  int64_t cells_expanded() const { return cursor_.cells_expanded_; }

 private:
  /// Gathers the observed distances and radii of the `n` candidates
  /// `id_at(0 .. n-1)` into d_ / r_ and scores them into p_.
  template <typename IdAt>
  void ScoreCandidates(const reachability::WorkerFilterSoA& soa, size_t n,
                       IdAt id_at, geo::Point exact_task_location);
  /// Makes every member of `runs` a cursor cold_ entry, in group order,
  /// bounded by the lattice when there is one and scored exactly
  /// otherwise.
  void OpenCold(const reachability::WorkerFilterSoA& soa,
                const CandidateRuns& runs, geo::Point exact_task_location,
                const double* random_rank);
  void AuditCandidates(int64_t audit_task_id, size_t count) const;

  Config config_;
  /// Set for a kProbability stage whose model declares Monotone(kU2E).
  std::optional<reachability::U2eBoundLattice> lattice_;
  U2eRankCursor cursor_;
  int64_t batch_evals_ = 0;
  // Batching scratch, reused across tasks.
  std::vector<double> d_;
  std::vector<double> r_;
  std::vector<double> p_;
};

}  // namespace scguard::assign

#endif  // SCGUARD_ASSIGN_STAGES_RANK_STAGE_H_
