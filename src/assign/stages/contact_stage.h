#ifndef SCGUARD_ASSIGN_STAGES_CONTACT_STAGE_H_
#define SCGUARD_ASSIGN_STAGES_CONTACT_STAGE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "assign/matcher.h"
#include "assign/metrics.h"
#include "assign/stages/rank_stage.h"
#include "obs/recorder.h"

namespace scguard::assign {

/// Default filter attribution for contact-audit events: call sites that
/// cannot say which U2U filter admitted a candidate (protocol-party plans,
/// variants) report kUnknown.
struct UnknownAdmitFilter {
  template <typename Id>
  obs::AuditFilter operator()(const Id&) const {
    return obs::AuditFilter::kUnknown;
  }
};

/// Worker-side self-selection floor of the parallel-broadcast U2E variant
/// (paper Sec. III-A): a candidate reveals its exact location to the
/// requester only when its own reachability estimate is at least
/// max(beta, kMinSelfRevealProbability). The floor keeps hopeless
/// candidates from disclosing themselves even when the requester runs with
/// beta = 0 (exhaustive ranking) — without it the broadcast variant's
/// worker-location disclosures would scale with the whole candidate set,
/// overstating the leakage the paper attributes to the design itself
/// rather than to a degenerate threshold choice.
inline constexpr double kMinSelfRevealProbability = 0.1;

/// The E2E contact stage (Alg. 2 Lines 13-17, DESIGN.md section 10): walks
/// a ranked candidate list best-first, disclosing the exact task location
/// to one worker at a time until `redundancy_k` workers accept, the beta
/// threshold cancels the task, or the list is exhausted. The stage owns
/// the disclosure accounting — every offer is a task-location disclosure,
/// every rejection a false hit — while the caller-supplied offer callback
/// owns the accept decision and its side effects (marking the worker
/// matched, travel bookkeeping).
class E2eContactStage {
 public:
  struct Config {
    /// Ranking strategy the scores came from; beta only guards
    /// probability-ranked contacts (Alg. 2 is the probability variant).
    RankStrategy rank = RankStrategy::kProbability;
    /// Disclosure threshold: cancel rather than disclose to a candidate
    /// scoring below it. 0 disables cancellation (Alg. 1 best-effort).
    double beta = 0.0;
    BetaMode beta_mode = BetaMode::kEveryContact;
    /// Redundant assignment (paper Sec. VII): contact until this many
    /// workers accept.
    int redundancy_k = 1;
  };

  /// Outcome of one task's contact loop.
  struct Outcome {
    int accepted = 0;          ///< Workers that accepted the task.
    int64_t disclosures = 0;   ///< Task-location disclosures made.
    int64_t false_hits = 0;    ///< Disclosed-to workers that rejected.
    bool cancelled = false;    ///< Beta threshold tripped.
    /// Entries consumed from the ranking (a beta cancel consumes its
    /// tripping entry without contacting it).
    size_t next = 0;
  };

  explicit E2eContactStage(const Config& config) : config_(config) {}

  /// Walks `ranked` (score-desc / id-asc pairs) with beta gating.
  /// `offer(id)` must disclose the task to the worker and return whether it
  /// accepted, performing the caller's accept bookkeeping.
  ///
  /// `audit_task_id` / `admit_filter` feed the flight recorder's privacy
  /// audit trail (recorder.h): every disclosure emits a kAuditDisclosure
  /// event tagged with the task, worker, score, accept outcome, and the
  /// U2U filter that admitted the candidate (`admit_filter(id)`, consulted
  /// only when the recorder is on). The protocol parties and variants
  /// rank and threshold on the requester device and walk their plan here
  /// with beta = 0, as (0.0, worker id) pairs when no score is at hand.
  template <typename Id, typename OfferFn, typename FilterFn>
  Outcome Contact(const std::vector<std::pair<double, Id>>& ranked,
                  OfferFn&& offer, int64_t audit_task_id,
                  FilterFn&& admit_filter) const {
    RankedList<Id> source(ranked);
    std::pair<double, Id> tripped;
    return Walk(source, offer, audit_task_id, admit_filter, tripped);
  }

  /// Contact plus the engine-side RunMetrics fold: disclosure/false-hit
  /// counters, the assigned-task tally, and — for tasks that end
  /// unassigned — false-dismissal attribution against ground truth via
  /// `can_reach(id)`.
  template <typename Id, typename OfferFn, typename ReachFn,
            typename FilterFn>
  Outcome Run(const std::vector<std::pair<double, Id>>& ranked,
              OfferFn&& offer, ReachFn&& can_reach, RunMetrics& m,
              int64_t audit_task_id, FilterFn&& admit_filter) const {
    RankedList<Id> source(ranked);
    return RunWalk(source, offer, can_reach, m, audit_task_id, admit_filter);
  }

  /// As above over a lazily ranked cursor (U2eRankStage::Open): the beta
  /// checks read each emitted entry's exact score, and an unassigned task's
  /// false dismissals are counted over the entries never emitted, so the
  /// fold is identical to running the vector overload on the drained list.
  template <typename OfferFn, typename ReachFn, typename FilterFn>
  Outcome Run(U2eRankCursor& cursor, OfferFn&& offer, ReachFn&& can_reach,
              RunMetrics& m, int64_t audit_task_id,
              FilterFn&& admit_filter) const {
    return RunWalk(cursor, offer, can_reach, m, audit_task_id, admit_filter);
  }

  template <typename Id, typename OfferFn, typename ReachFn>
  Outcome Run(const std::vector<std::pair<double, Id>>& ranked,
              OfferFn&& offer, ReachFn&& can_reach, RunMetrics& m) const {
    return Run(ranked, std::forward<OfferFn>(offer),
               std::forward<ReachFn>(can_reach), m, obs::kAuditNoTask,
               UnknownAdmitFilter{});
  }

  const Config& config() const { return config_; }

 private:
  /// A ranked vector read front to back through the cursor interface
  /// (Next / ForEachRemaining), so one walk serves both.
  template <typename Id>
  class RankedList {
   public:
    using Entry = std::pair<double, Id>;
    explicit RankedList(const std::vector<Entry>& ranked) : ranked_(ranked) {}
    bool Next(Entry& entry) {
      if (next_ == ranked_.size()) return false;
      entry = ranked_[next_++];
      return true;
    }
    template <typename Fn>
    void ForEachRemaining(Fn&& fn) const {
      for (size_t k = next_; k < ranked_.size(); ++k) fn(ranked_[k].second);
    }

   private:
    const std::vector<Entry>& ranked_;
    size_t next_ = 0;
  };

  /// The contact walk over a ranked source. On a beta cancel, `tripped`
  /// receives the entry that tripped it.
  template <typename Source, typename OfferFn, typename FilterFn>
  Outcome Walk(Source& source, OfferFn& offer, int64_t audit_task_id,
               FilterFn& admit_filter,
               typename Source::Entry& tripped) const {
    Outcome o;
    const bool audit = obs::RecorderEnabled();
    typename Source::Entry entry;
    while (o.accepted < config_.redundancy_k && source.Next(entry)) {
      ++o.next;
      const auto& [score, id] = entry;
      // Beta thresholding (Alg. 2 Line 13): the requester cancels rather
      // than disclose to an unlikely-reachable worker. Under
      // kFirstContactOnly the threshold only guards the first disclosure.
      const bool beta_applies =
          config_.rank == RankStrategy::kProbability && config_.beta > 0.0 &&
          (config_.beta_mode == BetaMode::kEveryContact || o.next == 1);
      if (beta_applies && score < config_.beta) {
        o.cancelled = true;
        tripped = entry;
        break;
      }
      // This is the protocol's only task-location disclosure point.
      ++o.disclosures;
      const bool accepted = offer(id);
      if (accepted) {
        ++o.accepted;
      } else {
        // The worker learned the task location yet rejects: a false hit.
        ++o.false_hits;
      }
      if (audit) {
        obs::AuditE2eDisclosure(audit_task_id, static_cast<int64_t>(id),
                                score, accepted, admit_filter(id));
      }
    }
    return o;
  }

  template <typename Source, typename OfferFn, typename ReachFn,
            typename FilterFn>
  Outcome RunWalk(Source& source, OfferFn& offer, ReachFn& can_reach,
                  RunMetrics& m, int64_t audit_task_id,
                  FilterFn& admit_filter) const {
    typename Source::Entry tripped;
    const Outcome o = Walk(source, offer, audit_task_id, admit_filter, tripped);
    m.requester_to_worker_msgs += o.disclosures;
    m.false_hits += o.false_hits;
    if (o.accepted >= config_.redundancy_k) {
      m.assigned_tasks += 1;
    } else {
      // Task ends unassigned (cancelled or exhausted): reachable candidates
      // that were never contacted are false dismissals — every entry not
      // yet consumed and, on a beta cancel, the one that tripped it.
      if (o.cancelled && can_reach(tripped.second)) m.false_dismissals += 1;
      source.ForEachRemaining([&](const auto& id) {
        if (can_reach(id)) m.false_dismissals += 1;
      });
    }
    return o;
  }

  Config config_;
};

}  // namespace scguard::assign

#endif  // SCGUARD_ASSIGN_STAGES_CONTACT_STAGE_H_
