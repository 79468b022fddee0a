#ifndef SCGUARD_ASSIGN_STAGES_CANDIDATE_RUNS_H_
#define SCGUARD_ASSIGN_STAGES_CANDIDATE_RUNS_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "index/grid_index.h"

namespace scguard::assign {

/// One task's U2U candidate set grouped by grid cell (DESIGN.md §10), the
/// form U2U hands to U2E inside TaskPipeline. A certificate-accepted cell is
/// one run over GridIndex rows with no id copy; a mixed or rectangle-
/// boundary cell is the list of the ids it admitted; in-band survivors are
/// plain per-candidate entries with no cell. Groups are disjoint, so the set
/// is their union and `size` the sum of their counts. Valid until the
/// producing stage's next Collect / CollectRuns or mutation (MarkMatched,
/// relocation), which may shift the rows a group names.
struct CandidateRuns {
  /// Group::slot of plain per-candidate entries: no cell bound applies.
  static constexpr uint32_t kNoCell = std::numeric_limits<uint32_t>::max();

  struct Group {
    size_t begin = 0;          ///< First grid row, or offset into `ids`.
    uint32_t count = 0;        ///< Members, >= 1.
    uint32_t slot = kNoCell;   ///< The members' grid cell, or kNoCell.
    bool in_rows = false;      ///< Members are grid rows, else `ids`.
  };

  /// The grid whose rows and cells the groups name; nullptr when every
  /// group is a kNoCell list (the brute and linear-pruner scans).
  const index::GridIndex* grid = nullptr;
  std::vector<Group> groups;
  std::vector<uint32_t> ids;  ///< Storage of the groups not in rows.
  size_t size = 0;

  void Clear() {
    grid = nullptr;
    groups.clear();
    ids.clear();
    size = 0;
  }

  /// Calls fn(worker id) for every member of `g`, in row / list order.
  template <typename Fn>
  void ForEachIn(const Group& g, Fn&& fn) const {
    const uint32_t* at = g.in_rows ? grid->rows().id.data() + g.begin
                                   : ids.data() + g.begin;
    for (uint32_t k = 0; k < g.count; ++k) fn(at[k]);
  }

  /// Calls fn(worker id) for every candidate, group by group.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Group& g : groups) ForEachIn(g, fn);
  }
};

}  // namespace scguard::assign

#endif  // SCGUARD_ASSIGN_STAGES_CANDIDATE_RUNS_H_
