#ifndef SCGUARD_OBS_RECORDER_H_
#define SCGUARD_OBS_RECORDER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/obs_config.h"

namespace scguard::obs {

/// The flight recorder (DESIGN.md section 12): event-level tracing on top
/// of the aggregate-only metrics layer. Every instrumented thread
/// appends fixed-size binary events to its own lock-free SPSC ring; a
/// drain (bench exit, test assertion) collects all rings into one
/// timestamp-sorted stream that exports to Chrome trace-event JSON (opens
/// directly in ui.perfetto.dev) and to the privacy-audit JSONL.
///
/// Contract mirrors the metrics layer's (obs_config.h): with the recorder
/// disabled every emit is one relaxed atomic load plus a predicted-not-taken
/// branch; enabled, emission is one clock read plus one ring store — no
/// locks, no allocation after a thread's first event — and never perturbs
/// RNG streams or assignment decisions. Event *counts* are a pure function
/// of (config, workload, seed); only timestamps and the thread attribution
/// vary run to run.

/// What one event records. Kept to exactly 40 bytes so a default ring
/// (1<<17 slots) costs ~5 MB per thread.
enum class EventType : uint8_t {
  kSpanBegin = 0,        ///< Timed region opens (Chrome "B").
  kSpanEnd = 1,          ///< Timed region closes (Chrome "E").
  kInstant = 2,          ///< Point event (Chrome "i").
  kCounter = 3,          ///< Counter sample, value in `arg0` (Chrome "C").
  kAuditCandidates = 4,  ///< U2E: task `arg0` saw `arg1` noisy worker
                         ///< locations at privacy level `value` (epsilon).
  kAuditCandidate = 5,   ///< U2E, full-audit mode only: worker `arg1`'s
                         ///< noisy location entered task `arg0`'s ranking
                         ///< with score `value`.
  kAuditDisclosure = 6,  ///< E2E: task `arg0`'s exact location disclosed to
                         ///< worker `arg1` (score `value`; `detail` packs
                         ///< accepted flag + admitting filter).
  kAuditBudget = 7,      ///< BudgetLedger spend: owner `arg0`, epsilon
                         ///< `value`, `detail` 1 = granted, 0 = refused.
};

/// Which U2U filter admitted the candidate a disclosure went to
/// (DESIGN.md section 8): inside the certain-accept band of the inverted
/// alpha threshold, or via a direct model evaluation in the uncertain band.
/// kUnknown when the call site cannot attribute (protocol-party plans).
enum class AuditFilter : uint8_t {
  kUnknown = 0,
  kAlphaBandAccept = 1,
  kDirectEval = 2,
};

struct TraceEvent {
  uint64_t ts_ns = 0;   ///< steady_clock nanoseconds since epoch.
  int64_t arg0 = 0;     ///< Task id / counter value / ledger owner.
  int64_t arg1 = 0;     ///< Worker id / candidate count.
  double value = 0.0;   ///< Score / epsilon / counter sample.
  uint16_t name_id = 0; ///< Interned event name (FlightRecorder::names()).
  uint8_t type = 0;     ///< EventType.
  uint8_t detail = 0;   ///< Type-specific: accepted/filter/granted packing.
  uint32_t tid = 0;     ///< Recorder-assigned thread index.
};
static_assert(sizeof(TraceEvent) == 40, "keep events cache-friendly");

/// Packing of TraceEvent::detail for kAuditDisclosure events.
inline uint8_t PackDisclosureDetail(bool accepted, AuditFilter filter) {
  return static_cast<uint8_t>((accepted ? 1u : 0u) |
                              (static_cast<uint32_t>(filter) << 1));
}
inline bool DisclosureAccepted(uint8_t detail) { return (detail & 1u) != 0; }
inline AuditFilter DisclosureFilter(uint8_t detail) {
  return static_cast<AuditFilter>((detail >> 1) & 0x3u);
}

/// Sentinel for audit emissions from call sites with no task context.
inline constexpr int64_t kAuditNoTask = -1;

/// A single-producer single-consumer ring of TraceEvents. The producer is
/// the owning thread (TryPush); the consumer is whoever drains (DrainInto).
/// Capacity is fixed at construction (rounded up to a power of two). When
/// the ring is full the *new* event is dropped and counted — earlier events
/// are never overwritten, so a drained stream is always a prefix-correct
/// record and span begin/end pairs stay balanced up to the first drop
/// (DESIGN.md section 12 drop policy).
class EventRing {
 public:
  explicit EventRing(size_t min_capacity);
  EventRing(const EventRing&) = delete;
  EventRing& operator=(const EventRing&) = delete;

  /// Producer side. False (and one dropped count) when full.
  bool TryPush(const TraceEvent& e) {
    const uint64_t head = head_.load(std::memory_order_relaxed);
    const uint64_t tail = tail_.load(std::memory_order_acquire);
    if (head - tail >= buf_.size()) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    buf_[head & mask_] = e;
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side: appends all pending events to `out` in push order and
  /// frees their slots. Returns the number drained.
  size_t DrainInto(std::vector<TraceEvent>& out);

  int64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  void reset_dropped() { dropped_.store(0, std::memory_order_relaxed); }
  size_t capacity() const { return buf_.size(); }

 private:
  std::vector<TraceEvent> buf_;
  uint64_t mask_;
  alignas(64) std::atomic<uint64_t> head_{0};  ///< Next write slot.
  alignas(64) std::atomic<uint64_t> tail_{0};  ///< Next read slot.
  std::atomic<int64_t> dropped_{0};
};

/// Process-wide recorder: the name-intern table plus the registry of every
/// thread's ring. Emit resolves the calling thread's ring through a
/// thread_local handle (one registry mutex acquisition per thread lifetime,
/// none per event). Rings are registered forever — a dead thread's pending
/// events stay drainable.
class FlightRecorder {
 public:
  FlightRecorder();
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// The instance all in-tree emission uses. Never destroyed.
  static FlightRecorder& Global();

  /// Interns `name`, returning its stable 16-bit id. Mutex-protected —
  /// call once per site (function-local static / constructor), never per
  /// event. Re-interning an existing name returns the existing id.
  uint16_t InternName(std::string_view name);

  /// The intern table, indexed by name id.
  std::vector<std::string> names() const;

  /// Fills ts/tid and pushes onto the calling thread's ring. The gate
  /// (RecorderEnabled) lives in the inline helpers below, not here.
  void Emit(TraceEvent e);
  /// As Emit with an explicit timestamp (span.h's RecordSpan reuses the
  /// time points its caller already read).
  void EmitAt(uint64_t ts_ns, TraceEvent e);

  /// Moves every ring's pending events into one stream sorted by
  /// (ts_ns, tid). Emissions racing a drain land in the next one.
  std::vector<TraceEvent> Drain();

  /// Total events dropped by full rings since the last Reset.
  int64_t dropped() const;

  /// Discards pending events and zeroes drop counts. Interned names and
  /// registered rings survive (ids must stay stable for the process).
  void Reset();

  /// Capacity for rings created after this call (existing rings keep
  /// theirs). Rounded up to a power of two; min 1024.
  void set_ring_capacity(size_t capacity);
  size_t ring_capacity() const;

  /// Number of thread rings ever registered.
  size_t num_rings() const;

  static uint64_t NowNs() {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

 private:
  EventRing* RingForThisThread();

  mutable std::mutex mu_;
  std::vector<std::string> names_;
  std::vector<std::shared_ptr<EventRing>> rings_;  ///< Index == tid.
  size_t ring_capacity_ = size_t{1} << 17;
};

/// Well-known interned ids, fixed by FlightRecorder's constructor so audit
/// emission needs no lookup. Order must match the interning sequence in
/// recorder.cc.
inline constexpr uint16_t kAuditU2eCandidatesNameId = 0;
inline constexpr uint16_t kAuditU2eCandidateNameId = 1;
inline constexpr uint16_t kAuditE2eDisclosureNameId = 2;
inline constexpr uint16_t kAuditBudgetSpendNameId = 3;

// ---- Hot-path emission helpers (all no-ops while the recorder is off) --

/// One U2E ranking: `count` candidate noisy locations (perturbed at
/// `epsilon`) were disclosed to the requester of `task_id`.
inline void AuditU2eCandidates(int64_t task_id, int64_t count,
                               double epsilon) {
  if (!RecorderEnabled()) return;
  FlightRecorder::Global().Emit(
      {.arg0 = task_id, .arg1 = count, .value = epsilon,
       .name_id = kAuditU2eCandidatesNameId,
       .type = static_cast<uint8_t>(EventType::kAuditCandidates)});
}

/// Full-audit mode: one ranked candidate (worker `worker_id`, score
/// `score`) of `task_id`. Callers must additionally check
/// AuditFullEnabled(); this helper only gates on the recorder.
inline void AuditU2eCandidate(int64_t task_id, int64_t worker_id,
                              double score) {
  if (!RecorderEnabled()) return;
  FlightRecorder::Global().Emit(
      {.arg0 = task_id, .arg1 = worker_id, .value = score,
       .name_id = kAuditU2eCandidateNameId,
       .type = static_cast<uint8_t>(EventType::kAuditCandidate)});
}

/// One E2E contact: the exact location of `task_id` was disclosed to
/// `worker_id` (the protocol's only task-location disclosure point).
inline void AuditE2eDisclosure(int64_t task_id, int64_t worker_id,
                               double score, bool accepted,
                               AuditFilter filter) {
  if (!RecorderEnabled()) return;
  FlightRecorder::Global().Emit(
      {.arg0 = task_id, .arg1 = worker_id, .value = score,
       .name_id = kAuditE2eDisclosureNameId,
       .type = static_cast<uint8_t>(EventType::kAuditDisclosure),
       .detail = PackDisclosureDetail(accepted, filter)});
}

/// One BudgetLedger::Spend outcome.
inline void AuditBudgetSpend(int64_t owner, double epsilon, bool granted) {
  if (!RecorderEnabled()) return;
  FlightRecorder::Global().Emit(
      {.arg0 = owner, .value = epsilon,
       .name_id = kAuditBudgetSpendNameId,
       .type = static_cast<uint8_t>(EventType::kAuditBudget),
       .detail = granted ? uint8_t{1} : uint8_t{0}});
}

inline void EmitInstant(uint16_t name_id, int64_t arg0 = 0, double value = 0.0) {
  if (!RecorderEnabled()) return;
  FlightRecorder::Global().Emit(
      {.arg0 = arg0, .value = value, .name_id = name_id,
       .type = static_cast<uint8_t>(EventType::kInstant)});
}

inline void EmitCounter(uint16_t name_id, int64_t value) {
  if (!RecorderEnabled()) return;
  FlightRecorder::Global().Emit(
      {.arg0 = value, .name_id = name_id,
       .type = static_cast<uint8_t>(EventType::kCounter)});
}

}  // namespace scguard::obs

#endif  // SCGUARD_OBS_RECORDER_H_
