// Flight-recorder suite (DESIGN.md section 12): ring mechanics, name
// interning, export structure, the privacy-audit reconciliation contract
// against a real engine run, and the acceptance criterion that recording
// never perturbs results. This binary also runs under TSan and
// ASan+UBSan in CI — the multithreaded tests are the race detectors' food.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "assign/scguard_engine.h"
#include "data/beijing.h"
#include "data/workload.h"
#include "obs/export.h"
#include "obs/obs_config.h"
#include "obs/recorder.h"
#include "obs/span.h"
#include "obs/trace_export.h"
#include "privacy/budget.h"
#include "reachability/analytical_model.h"
#include "runtime/thread_pool.h"
#include "stats/rng.h"

namespace scguard::obs {
namespace {

/// Every test shares the process-global recorder (rings and interned names
/// are registered forever), so each starts from a drained stream and
/// leaves recording off.
class RecorderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ObsConfig config;
    config.enabled = true;
    config.recorder = true;
    SetConfig(config);
    FlightRecorder::Global().Reset();
  }
  void TearDown() override {
    FlightRecorder::Global().Reset();
    SetConfig(ObsConfig{});
  }
};

TEST_F(RecorderTest, RingRoundsCapacityToPowerOfTwo) {
  EXPECT_EQ(EventRing(1000).capacity(), 1024u);
  EXPECT_EQ(EventRing(1024).capacity(), 1024u);
  EXPECT_EQ(EventRing(1025).capacity(), 2048u);
  EXPECT_EQ(EventRing(1).capacity(), 1024u);  // Floor.
}

TEST_F(RecorderTest, RingDropsNewestWhenFullAndKeepsPrefix) {
  EventRing ring(1024);
  const size_t capacity = ring.capacity();
  for (size_t i = 0; i < capacity + 5; ++i) {
    TraceEvent e;
    e.arg0 = static_cast<int64_t>(i);
    ring.TryPush(e);
  }
  EXPECT_EQ(ring.dropped(), 5);
  std::vector<TraceEvent> out;
  EXPECT_EQ(ring.DrainInto(out), capacity);
  ASSERT_EQ(out.size(), capacity);
  // Drop-newest: the drained stream is exactly the first `capacity`
  // pushes, in push order — never a hole in the middle.
  for (size_t i = 0; i < capacity; ++i) {
    EXPECT_EQ(out[i].arg0, static_cast<int64_t>(i));
  }
  // Slots freed by the drain accept events again.
  TraceEvent e;
  e.arg0 = 777;
  EXPECT_TRUE(ring.TryPush(e));
  out.clear();
  ASSERT_EQ(ring.DrainInto(out), 1u);
  EXPECT_EQ(out[0].arg0, 777);
}

TEST_F(RecorderTest, InterningIsStableAndAuditIdsAreFixed) {
  auto& recorder = FlightRecorder::Global();
  const uint16_t a = recorder.InternName("test.intern.a");
  EXPECT_EQ(recorder.InternName("test.intern.a"), a);
  EXPECT_NE(recorder.InternName("test.intern.b"), a);
  // The constructor pre-interns the audit names at fixed ids; re-interning
  // them must return those ids, and names() must resolve them.
  EXPECT_EQ(recorder.InternName("audit.u2e_candidates"),
            kAuditU2eCandidatesNameId);
  EXPECT_EQ(recorder.InternName("audit.u2e_candidate"),
            kAuditU2eCandidateNameId);
  EXPECT_EQ(recorder.InternName("audit.e2e_disclosure"),
            kAuditE2eDisclosureNameId);
  EXPECT_EQ(recorder.InternName("audit.budget_spend"),
            kAuditBudgetSpendNameId);
  const std::vector<std::string> names = recorder.names();
  ASSERT_GT(names.size(), kAuditBudgetSpendNameId);
  EXPECT_EQ(names[kAuditE2eDisclosureNameId], "audit.e2e_disclosure");
}

TEST_F(RecorderTest, DisabledEmissionIsANoOp) {
  ObsConfig config;
  config.enabled = true;
  config.recorder = false;
  SetConfig(config);
  AuditU2eCandidates(1, 5, 0.7);
  AuditE2eDisclosure(1, 2, 0.5, true, AuditFilter::kDirectEval);
  AuditBudgetSpend(1, 0.1, true);
  EmitInstant(0);
  EmitCounter(0, 42);
  static const SpanSite site("test.disabled.span");
  const std::chrono::steady_clock::time_point t0{};
  RecordSpan(site, t0, t0 + std::chrono::nanoseconds(10));
  { const Span span(site); }
  EXPECT_TRUE(FlightRecorder::Global().Drain().empty());
}

TEST_F(RecorderTest, DrainSortsByTimestamp) {
  auto& recorder = FlightRecorder::Global();
  const uint16_t id = recorder.InternName("test.sort");
  for (const uint64_t ts : {uint64_t{50}, uint64_t{30}, uint64_t{90}}) {
    TraceEvent e;
    e.name_id = id;
    e.type = static_cast<uint8_t>(EventType::kInstant);
    recorder.EmitAt(ts, e);
  }
  const std::vector<TraceEvent> events = recorder.Drain();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].ts_ns, 30u);
  EXPECT_EQ(events[1].ts_ns, 50u);
  EXPECT_EQ(events[2].ts_ns, 90u);
}

TEST_F(RecorderTest, DetailPackingRoundTrips) {
  for (const bool accepted : {false, true}) {
    for (const AuditFilter filter :
         {AuditFilter::kUnknown, AuditFilter::kAlphaBandAccept,
          AuditFilter::kDirectEval}) {
      const uint8_t detail = PackDisclosureDetail(accepted, filter);
      EXPECT_EQ(DisclosureAccepted(detail), accepted);
      EXPECT_EQ(DisclosureFilter(detail), filter);
    }
  }
}

TEST_F(RecorderTest, ChromeExportStructure) {
  // A synthetic stream exercises every phase mapping without touching the
  // global recorder.
  const std::vector<std::string> names = {"span", "tick", "load", "audit"};
  std::vector<TraceEvent> events(5);
  events[0] = {.ts_ns = 2000, .name_id = 0,
               .type = static_cast<uint8_t>(EventType::kSpanBegin), .tid = 1};
  events[1] = {.ts_ns = 2500, .name_id = 1,
               .type = static_cast<uint8_t>(EventType::kInstant), .tid = 1};
  events[2] = {.ts_ns = 3000, .arg0 = 7, .name_id = 2,
               .type = static_cast<uint8_t>(EventType::kCounter), .tid = 2};
  events[3] = {.ts_ns = 3500, .arg0 = 3, .arg1 = 9, .value = 0.25,
               .name_id = 3,
               .type = static_cast<uint8_t>(EventType::kAuditDisclosure),
               .detail = PackDisclosureDetail(true,
                                              AuditFilter::kAlphaBandAccept),
               .tid = 1};
  events[4] = {.ts_ns = 4000, .name_id = 0,
               .type = static_cast<uint8_t>(EventType::kSpanEnd), .tid = 1};
  const std::string json = ExportChromeTrace(events, names);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ns\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  // Timestamps rebase to the earliest event: 2000ns -> 0us.
  EXPECT_NE(json.find("\"ts\":0"), std::string::npos);
  // The disclosure payload survives as args.
  EXPECT_NE(json.find("\"filter\":\"alpha_band\""), std::string::npos);
  EXPECT_NE(json.find("\"accepted\":true"), std::string::npos);
}

TEST_F(RecorderTest, MultithreadedEmissionIsExact) {
  constexpr int kThreads = 4;
  constexpr int kTasks = 64;
  constexpr int kEventsPerTask = 500;
  auto& recorder = FlightRecorder::Global();
  const uint16_t id = recorder.InternName("test.mt");
  {
    runtime::ThreadPool pool(kThreads);
    for (int t = 0; t < kTasks; ++t) {
      pool.Submit([id, t] {
        for (int i = 0; i < kEventsPerTask; ++i) {
          EmitInstant(id, int64_t{t} * kEventsPerTask + i);
        }
      });
    }
    // Pool destructor drains the queue.
  }
  const std::vector<TraceEvent> events = recorder.Drain();
  EXPECT_EQ(recorder.dropped(), 0);
  EXPECT_EQ(events.size(), size_t{kTasks} * kEventsPerTask);
  // Every payload arrived exactly once.
  std::vector<bool> seen(size_t{kTasks} * kEventsPerTask, false);
  for (const TraceEvent& e : events) {
    ASSERT_GE(e.arg0, 0);
    ASSERT_LT(e.arg0, static_cast<int64_t>(seen.size()));
    EXPECT_FALSE(seen[static_cast<size_t>(e.arg0)]);
    seen[static_cast<size_t>(e.arg0)] = true;
  }
}

TEST_F(RecorderTest, BudgetSpendsAreAudited) {
  privacy::BudgetLedger ledger(1.0);
  ledger.set_audit_owner(7);
  EXPECT_TRUE(ledger.Spend(0.4).ok());
  EXPECT_TRUE(ledger.Spend(0.4).ok());
  EXPECT_FALSE(ledger.Spend(0.4).ok());
  const std::vector<TraceEvent> events = FlightRecorder::Global().Drain();
  const AuditTotals totals = SummarizeAudit(events);
  EXPECT_EQ(totals.budget_spends, 3);
  EXPECT_EQ(totals.budget_refused, 1);
  EXPECT_NEAR(totals.epsilon_spent, 0.8, 1e-12);
  for (const TraceEvent& e : events) {
    if (e.type == static_cast<uint8_t>(EventType::kAuditBudget)) {
      EXPECT_EQ(e.arg0, 7);
    }
  }
}

// ---- Against a real engine run ----------------------------------------

assign::Workload SmallWorkload(const privacy::PrivacyParams& privacy_level) {
  data::WorkloadConfig wconfig;
  wconfig.num_workers = 800;
  wconfig.num_tasks = 48;
  stats::Rng rng(977);
  assign::Workload workload =
      data::MakeUniformWorkload(data::BeijingRegion(), wconfig, rng);
  data::PerturbWorkload(privacy_level, privacy_level, rng, workload);
  return workload;
}

assign::MatchResult RunEngine(const assign::Workload& workload,
                              const reachability::AnalyticalModel& model,
                              const privacy::PrivacyParams& privacy_level,
                              stats::Rng& rng) {
  assign::EnginePolicy policy;
  policy.u2u_model = &model;
  policy.u2e_model = &model;
  policy.alpha = 0.1;
  policy.beta = 0.25;
  policy.rank = assign::RankStrategy::kProbability;
  policy.worker_params = privacy_level;
  policy.task_params = privacy_level;
  assign::ScGuardEngine engine(std::move(policy));
  return engine.Run(workload, rng);
}

// The tentpole's reconciliation contract: the audit trail's disclosure
// totals equal the engine's own metrics counters, exactly.
TEST_F(RecorderTest, AuditTrailReconcilesWithEngineMetrics) {
  const privacy::PrivacyParams privacy_level{0.7, 800.0};
  const reachability::AnalyticalModel model(privacy_level);
  const assign::Workload workload = SmallWorkload(privacy_level);
  stats::Rng rng(42);
  const assign::MatchResult run =
      RunEngine(workload, model, privacy_level, rng);

  auto& recorder = FlightRecorder::Global();
  const std::vector<TraceEvent> events = recorder.Drain();
  EXPECT_EQ(recorder.dropped(), 0);
  const AuditTotals totals = SummarizeAudit(events);
  EXPECT_GT(totals.u2e_rankings, 0);
  EXPECT_LE(totals.u2e_rankings, run.metrics.num_tasks);
  EXPECT_EQ(totals.u2e_candidates_sum, run.metrics.candidates_sum);
  EXPECT_EQ(totals.e2e_disclosures, run.metrics.requester_to_worker_msgs);
  EXPECT_EQ(totals.u2e_candidate_lines, 0);  // Full audit was off.
  // Every disclosure names a real task and worker and attributes a filter.
  for (const TraceEvent& e : events) {
    if (e.type != static_cast<uint8_t>(EventType::kAuditDisclosure)) continue;
    EXPECT_GE(e.arg0, 0);
    EXPECT_LT(e.arg0, run.metrics.num_tasks);
    EXPECT_GE(e.arg1, 0);
    EXPECT_LT(e.arg1, run.metrics.num_workers);
    EXPECT_NE(DisclosureFilter(e.detail), AuditFilter::kUnknown);
  }
  // And the JSONL export carries a summary line that agrees.
  const std::string jsonl = ExportAuditJsonl(events, recorder.names(), 0);
  EXPECT_NE(jsonl.find("\"type\":\"summary\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"e2e_disclosures\":" +
                       std::to_string(totals.e2e_disclosures)),
            std::string::npos);
}

// Full-audit mode adds one line per ranked candidate; the aggregate and
// the per-candidate lines must agree.
TEST_F(RecorderTest, FullAuditEmitsPerCandidateLines) {
  ObsConfig config;
  config.enabled = true;
  config.recorder = true;
  config.audit_full = true;
  SetConfig(config);
  const privacy::PrivacyParams privacy_level{0.7, 800.0};
  const reachability::AnalyticalModel model(privacy_level);
  const assign::Workload workload = SmallWorkload(privacy_level);
  stats::Rng rng(42);
  const assign::MatchResult run =
      RunEngine(workload, model, privacy_level, rng);

  const AuditTotals totals =
      SummarizeAudit(FlightRecorder::Global().Drain());
  EXPECT_GT(totals.u2e_candidate_lines, 0);
  EXPECT_EQ(totals.u2e_candidate_lines, totals.u2e_candidates_sum);
  EXPECT_EQ(totals.u2e_candidates_sum, run.metrics.candidates_sum);
}

// Acceptance criterion: recording on vs off changes nothing — not the
// assignments, not the metrics, not the RNG stream position.
TEST_F(RecorderTest, ResultsBitIdenticalWithRecorderOnAndOff) {
  const privacy::PrivacyParams privacy_level{0.7, 800.0};
  const reachability::AnalyticalModel model(privacy_level);
  const assign::Workload workload = SmallWorkload(privacy_level);

  SetConfig(ObsConfig{});  // Everything off.
  stats::Rng rng_off(42);
  const assign::MatchResult off =
      RunEngine(workload, model, privacy_level, rng_off);

  ObsConfig config;
  config.enabled = true;
  config.recorder = true;
  config.audit_full = true;  // Even the most verbose mode.
  SetConfig(config);
  stats::Rng rng_on(42);
  const assign::MatchResult on =
      RunEngine(workload, model, privacy_level, rng_on);

  ASSERT_EQ(off.assignments.size(), on.assignments.size());
  for (size_t i = 0; i < off.assignments.size(); ++i) {
    EXPECT_EQ(off.assignments[i].task_id, on.assignments[i].task_id);
    EXPECT_EQ(off.assignments[i].worker_id, on.assignments[i].worker_id);
    EXPECT_EQ(off.assignments[i].travel_m, on.assignments[i].travel_m);
  }
  EXPECT_EQ(off.metrics.assigned_tasks, on.metrics.assigned_tasks);
  EXPECT_EQ(off.metrics.accepted_assignments, on.metrics.accepted_assignments);
  EXPECT_EQ(off.metrics.travel_sum_m, on.metrics.travel_sum_m);
  EXPECT_EQ(off.metrics.candidates_sum, on.metrics.candidates_sum);
  EXPECT_EQ(off.metrics.false_hits, on.metrics.false_hits);
  EXPECT_EQ(off.metrics.false_dismissals, on.metrics.false_dismissals);
  EXPECT_EQ(off.metrics.requester_to_worker_msgs,
            on.metrics.requester_to_worker_msgs);
  // Identical stream position afterwards: recording consumed no draws.
  EXPECT_EQ(rng_off(), rng_on());
}

// Event counts are a pure function of (config, workload, seed): two
// identical instrumented runs produce the same number of events of every
// type and name.
TEST_F(RecorderTest, EventCountsAreDeterministic) {
  const privacy::PrivacyParams privacy_level{0.7, 800.0};
  const reachability::AnalyticalModel model(privacy_level);
  const assign::Workload workload = SmallWorkload(privacy_level);

  const auto count_events = [&] {
    FlightRecorder::Global().Reset();
    stats::Rng rng(42);
    RunEngine(workload, model, privacy_level, rng);
    std::map<std::pair<uint16_t, uint8_t>, int64_t> counts;
    for (const TraceEvent& e : FlightRecorder::Global().Drain()) {
      ++counts[{e.name_id, e.type}];
    }
    return counts;
  };
  const auto first = count_events();
  const auto second = count_events();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace scguard::obs
