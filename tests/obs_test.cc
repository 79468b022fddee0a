#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "assign/algorithms.h"
#include "data/beijing.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/obs_config.h"
#include "obs/recorder.h"
#include "obs/span.h"
#include "privacy/budget.h"
#include "reachability/empirical_model.h"
#include "reachability/model_cache.h"
#include "runtime/thread_pool.h"
#include "sim/defaults.h"
#include "sim/experiment.h"

namespace scguard::obs {
namespace {

/// Every test runs against the process-global registry and recorder, so
/// each one starts from zeroed metrics and leaves observability disabled.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetConfig(ObsConfig{.enabled = true});
    ResetGlobal();
  }
  void TearDown() override {
    ResetGlobal();
    SetConfig(ObsConfig{.enabled = false});
  }
};

TEST_F(ObsTest, CounterCountsExactly) {
  Counter* c = MetricsRegistry::Global().GetCounter("test.counter");
  EXPECT_EQ(c->Value(), 0);
  c->Increment();
  c->Increment(41);
  EXPECT_EQ(c->Value(), 42);
  c->Reset();
  EXPECT_EQ(c->Value(), 0);
}

TEST_F(ObsTest, DisabledMetricsAreNoOps) {
  SetConfig(ObsConfig{.enabled = false});
  Counter* c = MetricsRegistry::Global().GetCounter("test.disabled.counter");
  Gauge* g = MetricsRegistry::Global().GetGauge("test.disabled.gauge");
  Histogram* h =
      MetricsRegistry::Global().GetHistogram("test.disabled.histogram");
  c->Increment(100);
  g->Set(3.5);
  g->Add(1.0);
  h->Observe(0.25);
  EXPECT_EQ(c->Value(), 0);
  EXPECT_EQ(g->Value(), 0.0);
  EXPECT_EQ(h->Count(), 0);
  EXPECT_EQ(h->Sum(), 0.0);
  EXPECT_EQ(h->Quantile(0.5), 0.0);
}

TEST_F(ObsTest, RegistryReturnsStablePointers) {
  Counter* a = MetricsRegistry::Global().GetCounter("test.stable");
  Counter* b = MetricsRegistry::Global().GetCounter("test.stable");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, MetricsRegistry::Global().GetCounter("test.stable2"));
}

// The ISSUE's concurrency requirement: hammer one counter and one
// histogram from a pool and expect exact totals — sharded relaxed atomics
// must lose nothing.
TEST_F(ObsTest, ConcurrentHammerIsExact) {
  constexpr int kThreads = 8;
  constexpr int kTasks = 64;
  constexpr int kIncrementsPerTask = 10000;
  Counter* c = MetricsRegistry::Global().GetCounter("test.hammer.counter");
  // 0.5 sums exactly in any order, so Sum() is deterministic too.
  Histogram* h = MetricsRegistry::Global().GetHistogram(
      "test.hammer.histogram", {0.1, 1.0, 10.0});
  {
    runtime::ThreadPool pool(kThreads);
    for (int t = 0; t < kTasks; ++t) {
      pool.Submit([c, h] {
        for (int i = 0; i < kIncrementsPerTask; ++i) {
          c->Increment();
          h->Observe(0.5);
        }
      });
    }
    // Pool destructor drains the queue.
  }
  const int64_t expected = int64_t{kTasks} * kIncrementsPerTask;
  EXPECT_EQ(c->Value(), expected);
  EXPECT_EQ(h->Count(), expected);
  EXPECT_EQ(h->Sum(), 0.5 * static_cast<double>(expected));
  const std::vector<int64_t> buckets = h->BucketCounts();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[1], expected);  // All observations in (0.1, 1.0].
}

TEST_F(ObsTest, HistogramQuantilesInterpolate) {
  Histogram* h = MetricsRegistry::Global().GetHistogram(
      "test.quantiles", {1.0, 2.0, 4.0, 8.0});
  // 100 observations uniform in (0, 1]: p50 should interpolate to ~0.5
  // within the first bucket.
  for (int i = 0; i < 100; ++i) h->Observe(0.99);
  EXPECT_NEAR(h->Quantile(0.5), 0.5, 1e-9);
  EXPECT_NEAR(h->Quantile(1.0), 1.0, 1e-9);
  // Overflow observations clamp to the last finite bound.
  h->Reset();
  h->Observe(100.0);
  EXPECT_EQ(h->Quantile(0.99), 8.0);
  // Empty histogram reports 0.
  h->Reset();
  EXPECT_EQ(h->Quantile(0.5), 0.0);
}

// Satellite (ISSUE 7): quantile boundary behavior. Observations landing
// exactly on a bucket bound count into that bucket (lower_bound), ranks
// landing exactly on a bucket edge interpolate to the bound itself, and
// the overflow bucket saturates at the last finite bound.
TEST_F(ObsTest, HistogramQuantileBoundaries) {
  Histogram* h = MetricsRegistry::Global().GetHistogram(
      "test.quantile.boundaries", {1.0, 2.0, 4.0});

  // A single sample exactly on a bound lands in the bucket it closes.
  h->Observe(1.0);
  ASSERT_EQ(h->BucketCounts()[0], 1);
  EXPECT_NEAR(h->Quantile(0.5), 0.5, 1e-12);  // Interpolates within (0, 1].
  EXPECT_NEAR(h->Quantile(1.0), 1.0, 1e-12);
  EXPECT_EQ(h->Quantile(0.0), 0.0);

  // 100 samples in (1, 2]: p50/p95/p99 interpolate linearly, p100 hits
  // the upper bound exactly.
  h->Reset();
  for (int i = 0; i < 100; ++i) h->Observe(1.5);
  EXPECT_NEAR(h->Quantile(0.5), 1.5, 1e-12);
  EXPECT_NEAR(h->Quantile(0.95), 1.95, 1e-12);
  EXPECT_NEAR(h->Quantile(0.99), 1.99, 1e-12);
  EXPECT_NEAR(h->Quantile(1.0), 2.0, 1e-12);

  // Rank exactly on a bucket edge: 50 below 1.0, 50 in (1, 2]. The median
  // is the shared edge, not a value from either side.
  h->Reset();
  for (int i = 0; i < 50; ++i) h->Observe(0.5);
  for (int i = 0; i < 50; ++i) h->Observe(1.5);
  EXPECT_NEAR(h->Quantile(0.5), 1.0, 1e-12);
  EXPECT_NEAR(h->Quantile(0.75), 1.5, 1e-12);

  // Overflow saturates: any rank landing in the overflow bucket reports
  // the last finite bound rather than extrapolating.
  h->Reset();
  h->Observe(0.5);
  h->Observe(1e9);
  EXPECT_EQ(h->Quantile(0.99), 4.0);
  EXPECT_EQ(h->Quantile(1.0), 4.0);

  // Out-of-range q clamps instead of crashing.
  EXPECT_EQ(h->Quantile(-1.0), h->Quantile(0.0));
  EXPECT_EQ(h->Quantile(2.0), h->Quantile(1.0));
}

/// The events of `site` in the recorder's drained stream, in drain order.
std::vector<TraceEvent> DrainSite(const SpanSite& site) {
  std::vector<TraceEvent> out;
  for (const TraceEvent& e : FlightRecorder::Global().Drain()) {
    if (e.name_id == site.name_id()) out.push_back(e);
  }
  return out;
}

int64_t CountType(const std::vector<TraceEvent>& events, EventType type) {
  int64_t n = 0;
  for (const TraceEvent& e : events) {
    if (e.type == static_cast<uint8_t>(type)) ++n;
  }
  return n;
}

// Each gate feeds exactly one sink: the histogram counts only while obs is
// on, and B/E pairs appear only while the recorder is on — for both the
// RAII span and RecordSpan.
TEST_F(ObsTest, SpanGateMatrix) {
  static const SpanSite site("test.span.matrix");
  const auto t0 = std::chrono::steady_clock::now();
  for (const bool obs_on : {false, true}) {
    for (const bool rec_on : {false, true}) {
      SetConfig(ObsConfig{.enabled = obs_on, .recorder = rec_on});
      ResetGlobal();
      { const Span span(site); }
      RecordSpan(site, t0, t0 + std::chrono::microseconds(3));
      const std::vector<TraceEvent> events = DrainSite(site);
      EXPECT_EQ(site.histogram()->Count(), obs_on ? 2 : 0)
          << obs_on << rec_on;
      EXPECT_EQ(CountType(events, EventType::kSpanBegin), rec_on ? 2 : 0)
          << obs_on << rec_on;
      EXPECT_EQ(CountType(events, EventType::kSpanEnd), rec_on ? 2 : 0)
          << obs_on << rec_on;
    }
  }
}

// Nesting lives in the trace: the inner pair sits inside the outer pair,
// on the same tid, in both timestamp and drain order.
TEST_F(ObsTest, SpanNestingEnclosesInnerPair) {
  static const SpanSite outer_site("test.span.outer");
  static const SpanSite inner_site("test.span.inner");
  SetConfig(ObsConfig{.enabled = true, .recorder = true});
  {
    const Span outer(outer_site);
    const Span inner(inner_site);
  }
  const std::vector<TraceEvent> events = FlightRecorder::Global().Drain();
  std::vector<const TraceEvent*> pair_events;
  for (const TraceEvent& e : events) {
    if (e.name_id == outer_site.name_id() ||
        e.name_id == inner_site.name_id()) {
      pair_events.push_back(&e);
    }
  }
  ASSERT_EQ(pair_events.size(), 4u);
  const auto is = [&](size_t i, const SpanSite& site, EventType type) {
    return pair_events[i]->name_id == site.name_id() &&
           pair_events[i]->type == static_cast<uint8_t>(type);
  };
  EXPECT_TRUE(is(0, outer_site, EventType::kSpanBegin));
  EXPECT_TRUE(is(1, inner_site, EventType::kSpanBegin));
  EXPECT_TRUE(is(2, inner_site, EventType::kSpanEnd));
  EXPECT_TRUE(is(3, outer_site, EventType::kSpanEnd));
  for (size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(pair_events[i]->tid, pair_events[0]->tid);
    EXPECT_LE(pair_events[i - 1]->ts_ns, pair_events[i]->ts_ns);
  }
  EXPECT_EQ(outer_site.histogram()->Count(), 1);
  EXPECT_EQ(inner_site.histogram()->Count(), 1);
  EXPECT_GE(outer_site.histogram()->Sum(), inner_site.histogram()->Sum());
}

// The gates are captured at construction: toggling them inside a span
// never leaves a B without its E, nor an E without its B.
TEST_F(ObsTest, SpanMidScopeToggleStaysBalanced) {
  static const SpanSite site("test.span.toggle");
  SetConfig(ObsConfig{.enabled = true, .recorder = true});
  {
    const Span span(site);
    SetConfig(ObsConfig{});
  }
  std::vector<TraceEvent> events = DrainSite(site);
  EXPECT_EQ(CountType(events, EventType::kSpanBegin), 1);
  EXPECT_EQ(CountType(events, EventType::kSpanEnd), 1);

  {
    const Span span(site);
    SetConfig(ObsConfig{.enabled = true, .recorder = true});
  }
  events = DrainSite(site);
  EXPECT_EQ(CountType(events, EventType::kSpanBegin), 0);
  EXPECT_EQ(CountType(events, EventType::kSpanEnd), 0);
}

// RecordSpan reports the caller's own time points: the pair carries them
// exactly and the histogram observes their difference.
TEST_F(ObsTest, RecordSpanWritesGivenTimestamps) {
  static const SpanSite site("test.span.record");
  SetConfig(ObsConfig{.enabled = true, .recorder = true});
  const std::chrono::steady_clock::time_point begin(
      std::chrono::nanoseconds(1000000));
  const auto end = begin + std::chrono::nanoseconds(2500);
  RecordSpan(site, begin, end);
  const std::vector<TraceEvent> events = DrainSite(site);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].type, static_cast<uint8_t>(EventType::kSpanBegin));
  EXPECT_EQ(events[0].ts_ns, 1000000u);
  EXPECT_EQ(events[1].type, static_cast<uint8_t>(EventType::kSpanEnd));
  EXPECT_EQ(events[1].ts_ns, 1002500u);
  EXPECT_EQ(site.histogram()->Count(), 1);
  EXPECT_EQ(site.histogram()->Sum(),
            std::chrono::duration<double>(end - begin).count());
}

TEST_F(ObsTest, JsonExportShape) {
  MetricsRegistry::Global().GetCounter("test.json.counter")->Increment(7);
  MetricsRegistry::Global().GetGauge("test.json.gauge")->Set(1.5);
  MetricsRegistry::Global()
      .GetHistogram("test.json.histogram", {1.0, 2.0})
      ->Observe(0.5);
  static const SpanSite span_site("test.json.span");
  { const Span span(span_site); }
  const std::string json = SnapshotJson();
  EXPECT_NE(json.find("\"enabled\":true"), std::string::npos);
  EXPECT_NE(json.find("\"test.json.counter\":7"), std::string::npos);
  EXPECT_NE(json.find("\"test.json.gauge\":1.5"), std::string::npos);
  EXPECT_NE(json.find("\"test.json.histogram\":{\"count\":1"),
            std::string::npos);
  EXPECT_NE(json.find("\"scguard.test.json.span_seconds\":{\"count\":1"),
            std::string::npos);
  EXPECT_EQ(json.find("\"spans\""), std::string::npos);
}

TEST_F(ObsTest, PrometheusExportShape) {
  MetricsRegistry::Global().GetCounter("test.prom.counter")->Increment(3);
  MetricsRegistry::Global()
      .GetHistogram("test.prom.hist", {1.0, 2.0})
      ->Observe(0.5);
  const std::string text = PrometheusText();
  EXPECT_NE(text.find("# TYPE test_prom_counter counter"), std::string::npos);
  EXPECT_NE(text.find("test_prom_counter 3"), std::string::npos);
  EXPECT_NE(text.find("test_prom_hist{quantile=\"0.5\"}"), std::string::npos);
  EXPECT_NE(text.find("test_prom_hist_count 1"), std::string::npos);
}

TEST_F(ObsTest, BudgetLedgerTelemetry) {
  Counter* spends = MetricsRegistry::Global().GetCounter(
      "scguard.privacy.budget.spends");
  Counter* refused = MetricsRegistry::Global().GetCounter(
      "scguard.privacy.budget.refused_spends");
  Gauge* spent = MetricsRegistry::Global().GetGauge(
      "scguard.privacy.budget.epsilon_spent");
  privacy::BudgetLedger ledger(1.0);
  EXPECT_TRUE(ledger.Spend(0.25).ok());
  EXPECT_TRUE(ledger.Spend(0.5).ok());
  EXPECT_FALSE(ledger.Spend(0.5).ok());
  EXPECT_EQ(spends->Value(), 2);
  EXPECT_EQ(refused->Value(), 1);
  EXPECT_NEAR(spent->Value(), 0.75, 1e-12);
}

}  // namespace
}  // namespace scguard::obs

namespace scguard::sim {
namespace {

ExperimentConfig SmallConfig() {
  ExperimentConfig config;
  config.synth.num_taxis = 300;
  config.synth.mean_trips_per_taxi = 6.0;
  config.workload.num_workers = 60;
  config.workload.num_tasks = 60;
  config.num_seeds = 4;
  config.runtime.num_threads = 2;
  return config;
}

assign::MatcherHandle MakeEngine() {
  assign::AlgorithmParams params;
  params.worker_params = DefaultPrivacy();
  params.task_params = DefaultPrivacy();
  return assign::MakeProbabilisticModel(params);
}

void ExpectIdenticalResults(const AggregatedMetrics& a,
                            const AggregatedMetrics& b) {
  EXPECT_EQ(a.seeds, b.seeds);
  EXPECT_EQ(a.assigned_tasks, b.assigned_tasks);
  EXPECT_EQ(a.accepted_assignments, b.accepted_assignments);
  EXPECT_EQ(a.travel_m, b.travel_m);
  EXPECT_EQ(a.candidates, b.candidates);
  EXPECT_EQ(a.false_hits, b.false_hits);
  EXPECT_EQ(a.false_dismissals, b.false_dismissals);
  EXPECT_EQ(a.precision, b.precision);
  EXPECT_EQ(a.recall, b.recall);
  EXPECT_EQ(a.disclosures_per_task, b.disclosures_per_task);
}

// Acceptance criterion: turning instrumentation on must not change a
// single reported number — observation never perturbs RNG streams or
// assignment decisions.
TEST(ObsBitIdentityTest, EngineResultsIdenticalWithMetricsOnAndOff) {
  const auto runner = ExperimentRunner::Create(SmallConfig());
  ASSERT_TRUE(runner.ok());
  const privacy::PrivacyParams p = DefaultPrivacy();

  obs::SetConfig(obs::ObsConfig{.enabled = false});
  assign::MatcherHandle off_handle = MakeEngine();
  const auto off = runner->Run(off_handle, p, p);
  ASSERT_TRUE(off.ok());

  obs::SetConfig(obs::ObsConfig{.enabled = true});
  obs::ResetGlobal();
  assign::MatcherHandle on_handle = MakeEngine();
  const auto on = runner->Run(on_handle, p, p);
  obs::SetConfig(obs::ObsConfig{.enabled = false});
  ASSERT_TRUE(on.ok());

  ExpectIdenticalResults(*off, *on);
}

// And the same for the Monte-Carlo empirical tables.
TEST(ObsBitIdentityTest, EmpiricalTablesIdenticalWithMetricsOnAndOff) {
  reachability::EmpiricalModelConfig config;
  config.region = data::BeijingRegion();
  config.num_samples = 20000;
  config.num_shards = 4;
  const privacy::PrivacyParams p = DefaultPrivacy();

  obs::SetConfig(obs::ObsConfig{.enabled = false});
  stats::Rng rng_off(7);
  const auto off = reachability::EmpiricalModel::Build(config, p, rng_off);
  ASSERT_TRUE(off.ok());

  obs::SetConfig(obs::ObsConfig{.enabled = true});
  stats::Rng rng_on(7);
  const auto on = reachability::EmpiricalModel::Build(config, p, rng_on);
  obs::SetConfig(obs::ObsConfig{.enabled = false});
  ASSERT_TRUE(on.ok());

  std::ostringstream a, b;
  off->Serialize(a);
  on->Serialize(b);
  EXPECT_EQ(a.str(), b.str());
}

// Counter snapshots are a pure function of (config, seed, shard count):
// two identical instrumented runs produce identical counters.
TEST(ObsDeterminismTest, CounterSnapshotsRepeatForFixedSeed) {
  const auto runner = ExperimentRunner::Create(SmallConfig());
  ASSERT_TRUE(runner.ok());
  const privacy::PrivacyParams p = DefaultPrivacy();

  obs::SetConfig(obs::ObsConfig{.enabled = true});
  const auto run_once = [&] {
    obs::ResetGlobal();
    assign::MatcherHandle handle = MakeEngine();
    const auto agg = runner->Run(handle, p, p);
    EXPECT_TRUE(agg.ok());
    return obs::MetricsRegistry::Global().Snapshot();
  };
  const auto first = run_once();
  const auto second = run_once();
  obs::SetConfig(obs::ObsConfig{.enabled = false});
  obs::ResetGlobal();

  EXPECT_EQ(first.counters, second.counters);
  // Histogram observation *counts* are deterministic too (one per task
  // per stage); only the latencies inside differ.
  ASSERT_TRUE(first.histograms.count("scguard.engine.u2u_seconds"));
  EXPECT_EQ(first.histograms.at("scguard.engine.u2u_seconds").count,
            second.histograms.at("scguard.engine.u2u_seconds").count);
  // Sanity: the engine actually reported work (60 tasks x 4 seeds).
  EXPECT_EQ(first.counters.at("scguard.engine.tasks"), 240);
  EXPECT_GT(first.counters.at("scguard.engine.workers_evaluated"), 0);
}

}  // namespace
}  // namespace scguard::sim

namespace scguard::reachability {
namespace {

// Satellite: cache stats stay observable with the registry disabled —
// the struct accessor is maintained unconditionally.
TEST(ModelCacheStatsTest, StatsAccessorWorksWhileObsDisabled) {
  obs::SetConfig(obs::ObsConfig{.enabled = false});
  ModelCache cache;
  EmpiricalModelConfig config;
  config.region = data::BeijingRegion();
  config.num_samples = 5000;
  config.num_shards = 2;
  const privacy::PrivacyParams p{0.7, 800.0};
  ASSERT_TRUE(cache.GetOrBuild(config, p, p, /*build_seed=*/11).ok());
  ASSERT_TRUE(cache.GetOrBuild(config, p, p, /*build_seed=*/11).ok());
  const ModelCache::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.disk_loads, 0);
  // The registry mirror stayed silent.
  const auto snapshot = obs::MetricsRegistry::Global().Snapshot();
  const auto it = snapshot.counters.find("scguard.model_cache.misses");
  if (it != snapshot.counters.end()) {
    EXPECT_EQ(it->second, 0);
  }
}

}  // namespace
}  // namespace scguard::reachability
