#include "assign/stages/rank_stage.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace scguard::assign {
namespace {

// Relative slack below a sqrt-of-squares distance that covers its few-ulp
// disagreement with std::hypot.
constexpr double kDistanceSlack = 1.0 - 1e-12;

// The lattice bound of a worker at (x, y) with reach radius r, as
// OpenCold computes it.
double RowBound(reachability::U2eBoundLattice& lattice, double x, double y,
                double r, geo::Point task) {
  const double dx = x - task.x;
  const double dy = y - task.y;
  return lattice.UpperBound(std::sqrt(dx * dx + dy * dy) * kDistanceSlack, r);
}

// RowBound of worker `i`, read by id from the SoA.
double MemberBound(reachability::U2eBoundLattice& lattice,
                   const reachability::WorkerFilterSoA& soa, uint32_t i,
                   geo::Point task) {
  return RowBound(lattice, soa.x[i], soa.y[i], soa.reach_radius_m[i], task);
}

// A bound on every member of a cell: the lattice bound at the distance to
// the nearest point of the member box and at the largest radius (+inf for
// a NaN member, hence the trivial 1.0). Each member's fl(x - task.x) lies
// between the box corners' (rounding is monotone), so its |dx| is at least
// dxn; squaring, the sum and sqrt are monotone too, so the slacked corner
// distance stays below every member's hypot distance, as in MemberBound.
double CellBound(reachability::U2eBoundLattice& lattice,
                 const index::GridIndex::CellAgg& a, geo::Point task) {
  const double dx_lo = a.min_x - task.x;
  const double dx_hi = a.max_x - task.x;
  const double dy_lo = a.min_y - task.y;
  const double dy_hi = a.max_y - task.y;
  const double dxn = dx_lo > 0.0 ? dx_lo : (dx_hi < 0.0 ? -dx_hi : 0.0);
  const double dyn = dy_lo > 0.0 ? dy_lo : (dy_hi < 0.0 ? -dy_hi : 0.0);
  return lattice.UpperBound(std::sqrt(dxn * dxn + dyn * dyn) * kDistanceSlack,
                            a.max_reach_r);
}

// The kRandom / kNearest score of worker `i`.
double StrategyScore(RankStrategy rank,
                     const reachability::WorkerFilterSoA& soa, size_t i,
                     geo::Point exact_task_location,
                     const double* random_rank) {
  return rank == RankStrategy::kRandom
             ? random_rank[i]
             : -geo::Distance({soa.x[i], soa.y[i]}, exact_task_location);
}

// Heap order putting the best (score-desc / id-asc) entry in front.
struct WorseEntry {
  bool operator()(const U2eRankCursor::Entry& a,
                  const U2eRankCursor::Entry& b) const {
    return ScoreDescIdAscLess{}(b, a);
  }
};

}  // namespace

void U2eRankCursor::Start(size_t top, double max_bound) {
  refills_ = 0;
  hot_.clear();
  scored_.clear();
  if (!cold_.empty()) {
    hot_.push_back(cold_[top]);
    cold_[top] = cold_.back();
    cold_.pop_back();
    cold_max_ = max_bound;  // Still an upper bound on what is left.
  }
  Certify();
}

void U2eRankCursor::Certify() {
  for (;;) {
    const bool any = !scored_.empty();
    const double best = any ? scored_.front().first : 0.0;
    if (!cells_.empty()) {
      // Best first across the tiers: open the top cell once its bound
      // reaches the best scored entry and no candidate's bound exceeds it.
      const double cell = cells_.front().bound;
      if ((!any || cell >= best) &&
          (hot_.empty() || cell >= hot_.front().bound) &&
          (cold_.empty() || cell >= cold_max_)) {
        Expand();
        continue;
      }
    }
    if (!hot_.empty() && (!any || hot_.front().bound >= best)) {
      std::pop_heap(hot_.begin(), hot_.end(), BoundLess);
      const Pending p = hot_.back();
      hot_.pop_back();
      double score = p.bound;
      if (!exact_) {
        ++exact_evals_;
        score = model_->ProbReachable(
            reachability::Stage::kU2E,
            geo::Distance({soa_->x[p.id], soa_->y[p.id]}, task_),
            soa_->reach_radius_m[p.id]);
      }
      scored_.emplace_back(score, p.id);
      std::push_heap(scored_.begin(), scored_.end(), WorseEntry{});
    } else if (!cold_.empty() && (!any || cold_max_ >= best)) {
      Refill(any ? best : cold_max_);
    } else {
      return;
    }
  }
}

void U2eRankCursor::Expand() {
  std::pop_heap(cells_.begin(), cells_.end(), BoundLess);
  const CandidateRuns::Group& group = runs_->groups[cells_.back().id];
  cells_.pop_back();
  ++cells_expanded_;
  if (group.in_rows) {
    // A certified cell's members are contiguous grid rows, whose columns
    // equal the SoA's bit for bit: the same bounds without a by-id gather.
    const reachability::CellMajorMirror& m = runs_->grid->rows();
    for (size_t pos = group.begin; pos < group.begin + group.count; ++pos) {
      hot_.push_back({RowBound(*lattice_, m.x[pos], m.y[pos],
                               m.reach_radius_m[pos], task_),
                      m.id[pos]});
    }
  } else {
    runs_->ForEachIn(group, [this](uint32_t id) {
      hot_.push_back({MemberBound(*lattice_, *soa_, id, task_), id});
    });
  }
  std::make_heap(hot_.begin(), hot_.end(), BoundLess);
}

void U2eRankCursor::Refill(double threshold) {
  const bool all = ++refills_ > kMaxRefills;
  size_t kept = 0;
  double kept_max = -std::numeric_limits<double>::infinity();
  for (const Pending& p : cold_) {
    if (all || p.bound >= threshold) {
      hot_.push_back(p);
    } else {
      cold_[kept++] = p;
      kept_max = std::max(kept_max, p.bound);
    }
  }
  cold_.resize(kept);
  cold_max_ = kept_max;
  std::make_heap(hot_.begin(), hot_.end(), BoundLess);
}

bool U2eRankCursor::Next(Entry& entry) {
  Certify();
  if (scored_.empty()) return false;
  std::pop_heap(scored_.begin(), scored_.end(), WorseEntry{});
  entry = scored_.back();
  scored_.pop_back();
  return true;
}

U2eRankStage::U2eRankStage(const Config& config) : config_(config) {
  if (config_.rank == RankStrategy::kProbability) {
    SCGUARD_CHECK(config_.model != nullptr);
    if (config_.model->Monotone(reachability::Stage::kU2E)) {
      lattice_.emplace(config_.model, config_.kernel.threshold_margin);
    }
  }
  cursor_.model_ = config_.model;
  cursor_.exact_ = !lattice_.has_value();
}

template <typename IdAt>
void U2eRankStage::ScoreCandidates(const reachability::WorkerFilterSoA& soa,
                                   size_t n, IdAt id_at,
                                   geo::Point exact_task_location) {
  // Batched scoring: gather candidate distances/radii into dense arrays,
  // then one ProbReachableBatch call instead of a virtual call per
  // candidate.
  d_.resize(n);
  r_.resize(n);
  p_.resize(n);
  for (size_t k = 0; k < n; ++k) {
    const size_t i = id_at(k);
    d_[k] = geo::Distance({soa.x[i], soa.y[i]}, exact_task_location);
    r_[k] = soa.reach_radius_m[i];
  }
  batch_evals_ += static_cast<int64_t>(n);
  config_.model->ProbReachableBatch(reachability::Stage::kU2E, d_.data(),
                                    r_.data(), n, p_.data());
}

void U2eRankStage::AuditCandidates(int64_t audit_task_id,
                                   size_t count) const {
  // Each candidate's noisy location reached the requester: one aggregate
  // audit event per ranking (reconciles with RunMetrics::candidates_sum).
  obs::AuditU2eCandidates(audit_task_id, static_cast<int64_t>(count),
                          config_.audit_epsilon);
}

void U2eRankStage::Rank(const reachability::WorkerFilterSoA& soa,
                        const std::vector<uint32_t>& candidates,
                        geo::Point exact_task_location,
                        const double* random_rank,
                        std::vector<std::pair<double, size_t>>& ranked,
                        int64_t audit_task_id) {
  ranked.clear();
  if (config_.rank == RankStrategy::kProbability) {
    ScoreCandidates(
        soa, candidates.size(), [&](size_t k) { return candidates[k]; },
        exact_task_location);
    for (size_t k = 0; k < candidates.size(); ++k) {
      ranked.emplace_back(p_[k], candidates[k]);
    }
  } else {
    for (const uint32_t i : candidates) {
      ranked.emplace_back(StrategyScore(config_.rank, soa, i,
                                        exact_task_location, random_rank),
                          i);
    }
  }
  SortRankedCandidates(ranked);

  if (obs::RecorderEnabled()) {
    AuditCandidates(audit_task_id, candidates.size());
    // Per-candidate lines only in full-audit mode — O(candidates) events
    // per task is for small runs and tests, not the 1M bench.
    if (obs::AuditFullEnabled()) {
      for (const auto& [score, i] : ranked) {
        obs::AuditU2eCandidate(audit_task_id, static_cast<int64_t>(i), score);
      }
    }
  }
}

void U2eRankStage::OpenCold(const reachability::WorkerFilterSoA& soa,
                            const CandidateRuns& runs,
                            geo::Point exact_task_location,
                            const double* random_rank) {
  std::vector<U2eRankCursor::Pending>& cold = cursor_.cold_;
  // Resized, not cleared: every entry is overwritten, so only growth pays
  // an initialization.
  const size_t n = runs.size;
  cold.resize(n);
  size_t k = 0;
  if (lattice_.has_value()) {
    // The bound needs a distance no larger than the geo::Distance (hypot)
    // that scores the candidate. sqrt of the rounded sum of squares is
    // within a few ulps of it at a fraction of hypot's cost; the relative
    // slack keeps it below. The gather runs as its own tight loop, which
    // overlaps the scattered SoA loads far better than the lattice pass.
    d_.resize(n);
    r_.resize(n);
    runs.ForEach([&](uint32_t i) {
      const double dx = soa.x[i] - exact_task_location.x;
      const double dy = soa.y[i] - exact_task_location.y;
      cold[k].id = i;
      d_[k] = std::sqrt(dx * dx + dy * dy) * kDistanceSlack;
      r_[k] = soa.reach_radius_m[i];
      ++k;
    });
    for (k = 0; k < n; ++k) {
      cold[k].bound = lattice_->UpperBound(d_[k], r_[k]);
    }
    return;
  }
  runs.ForEach([&](uint32_t i) { cold[k++].id = i; });
  if (config_.rank == RankStrategy::kProbability) {
    // No monotonicity to certify a bound with: score everything, as Rank.
    ScoreCandidates(
        soa, n, [&cold](size_t j) { return cold[j].id; },
        exact_task_location);
    for (k = 0; k < n; ++k) cold[k].bound = p_[k];
  } else {
    for (U2eRankCursor::Pending& p : cold) {
      p.bound = StrategyScore(config_.rank, soa, p.id, exact_task_location,
                              random_rank);
    }
  }
}

U2eRankCursor& U2eRankStage::Open(const reachability::WorkerFilterSoA& soa,
                                  const CandidateRuns& runs,
                                  geo::Point exact_task_location,
                                  const double* random_rank,
                                  int64_t audit_task_id) {
  U2eRankCursor& c = cursor_;
  c.soa_ = &soa;
  c.task_ = exact_task_location;
  c.cells_.clear();
  if (lattice_.has_value() && runs.grid != nullptr &&
      !(obs::RecorderEnabled() && obs::AuditFullEnabled())) {
    // Cells wait under one bound each; kNoCell members are bounded now.
    c.lattice_ = &*lattice_;
    c.runs_ = &runs;
    c.cold_.clear();
    for (size_t k = 0; k < runs.groups.size(); ++k) {
      const CandidateRuns::Group& g = runs.groups[k];
      if (g.slot == CandidateRuns::kNoCell) {
        runs.ForEachIn(g, [&](uint32_t id) {
          c.cold_.push_back(
              {MemberBound(*lattice_, soa, id, exact_task_location), id});
        });
      } else {
        c.cells_.push_back({CellBound(*lattice_, runs.grid->cell_agg(g.slot),
                                      exact_task_location),
                            static_cast<uint32_t>(k)});
      }
    }
    std::make_heap(c.cells_.begin(), c.cells_.end(),
                   U2eRankCursor::BoundLess);
  } else {
    // No cell bound to take, or every score is wanted: every member is a
    // per-candidate entry, in group order.
    OpenCold(soa, runs, exact_task_location, random_rank);
  }
  size_t top = 0;
  double top_bound = c.cold_.empty() ? 0.0 : c.cold_[0].bound;
  for (size_t k = 1; k < c.cold_.size(); ++k) {
    if (c.cold_[k].bound > top_bound) {
      top = k;
      top_bound = c.cold_[k].bound;
    }
  }
  if (obs::RecorderEnabled()) AuditCandidates(audit_task_id, runs.size);
  c.Start(top, top_bound);
  return c;
}

}  // namespace scguard::assign
