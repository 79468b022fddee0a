// The sustained-throughput assignment service (DESIGN.md section 14):
// lock-free ingest correctness under concurrent producers, drain-on-
// shutdown completeness, queue-full backpressure, epoch monotonicity, and
// the determinism contract — a concurrent service run is bit-identical to
// a serial replay of its admission log, and a service fed only tasks is
// bit-identical to ScGuardEngine::Run, metrics and stage counters included —
// and hostile ingest refused or clamped instead of aborting.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "assign/scguard_engine.h"
#include "data/workload.h"
#include "engine_fixtures.h"
#include "geo/bbox.h"
#include "index/grid_index.h"
#include "obs/metrics.h"
#include "obs/obs_config.h"
#include "privacy/mechanism.h"
#include "reachability/analytical_model.h"
#include "reachability/binary_model.h"
#include "service/mpsc_queue.h"
#include "service/service.h"
#include "stats/rng.h"

namespace scguard::service {
namespace {

using privacy::PrivacyParams;

constexpr PrivacyParams kDefault{0.7, 800.0};

using fixtures::NoisyWorkload;

ServiceConfig BaseConfig(const reachability::ReachabilityModel* model,
                         const geo::BoundingBox& region) {
  ServiceConfig config;
  config.u2u_model = model;
  config.u2e_model = model;
  config.alpha = 0.1;
  config.beta = 0.25;
  config.rank = assign::RankStrategy::kProbability;
  config.worker_params = kDefault;
  config.task_params = kDefault;
  config.pruning_gamma = 0.9;
  config.pruning_backend = index::PrunerBackend::kGrid;
  config.region = region;
  return config;
}

/// The service's results as one MatchResult, for the shared comparison.
assign::MatchResult Result(const AssignmentService& svc) {
  return {svc.assignments(), svc.metrics()};
}

void ExpectSameResults(const AssignmentService& a, const AssignmentService& b,
                       const char* label) {
  fixtures::ExpectBitIdentical(Result(a), Result(b), label);
  ASSERT_EQ(a.completions().size(), b.completions().size()) << label;
  for (size_t i = 0; i < a.completions().size(); ++i) {
    EXPECT_EQ(a.completions()[i].task_id, b.completions()[i].task_id)
        << label << " @" << i;
    EXPECT_EQ(a.completions()[i].worker_id, b.completions()[i].worker_id)
        << label << " @" << i;
    EXPECT_EQ(a.completions()[i].travel_m, b.completions()[i].travel_m)
        << label << " @" << i;
  }
}

TEST(MpscQueueTest, FifoSingleThread) {
  MpscQueue<int> q(8);
  EXPECT_EQ(q.capacity(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(q.TryPush(i));
  EXPECT_FALSE(q.TryPush(99));  // Full.
  int v = -1;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(q.TryPop(v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(q.TryPop(v));  // Empty.
  // Reusable after wraparound.
  for (int lap = 0; lap < 3; ++lap) {
    for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.TryPush(lap * 10 + i));
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(q.TryPop(v));
      EXPECT_EQ(v, lap * 10 + i);
    }
  }
}

TEST(MpscQueueTest, CapacityRoundsUpToPowerOfTwo) {
  MpscQueue<int> q(100);
  EXPECT_EQ(q.capacity(), 128u);
  MpscQueue<int> tiny(0);
  EXPECT_EQ(tiny.capacity(), 2u);
}

TEST(MpscQueueTest, ConcurrentProducersLoseNothingKeepPerProducerOrder) {
  // 4 producers x 20k items through a deliberately small ring (so full /
  // retry paths are exercised); the consumer checks global completeness
  // and per-producer FIFO order. Run under TSan in CI.
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 20000;
  MpscQueue<int64_t> q(256);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const int64_t item = static_cast<int64_t>(p) * 1000000 + i;
        while (!q.TryPush(item)) std::this_thread::yield();
      }
    });
  }
  std::vector<int64_t> next_expected(kProducers, 0);
  int64_t popped = 0;
  while (popped < static_cast<int64_t>(kProducers) * kPerProducer) {
    int64_t item = -1;
    if (!q.TryPop(item)) {
      std::this_thread::yield();
      continue;
    }
    ++popped;
    const auto p = static_cast<size_t>(item / 1000000);
    const int64_t seq = item % 1000000;
    ASSERT_LT(p, static_cast<size_t>(kProducers));
    EXPECT_EQ(seq, next_expected[p]) << "producer " << p;
    next_expected[p] = seq + 1;
  }
  for (auto& t : producers) t.join();
  int64_t leftover;
  EXPECT_FALSE(q.TryPop(leftover));
}

TEST(ServiceTest, DrainCompletenessUnderConcurrentProducers) {
  // Every admitted task must have a completion record after Stop(kDrain),
  // and the admission log must hold exactly the admitted events.
  const assign::Workload workload = NoisyWorkload(300, 400, 7001);
  const reachability::AnalyticalModel model(kDefault);
  AssignmentService svc(BaseConfig(&model, workload.region));
  for (const auto& w : workload.workers) svc.RegisterWorker(w);
  svc.Start();

  std::thread reporter([&] {
    stats::Rng rng(5);
    const auto noise = privacy::MakeMechanismOrDie(kDefault);
    for (int i = 0; i < 500; ++i) {
      const auto w = static_cast<uint32_t>(
          rng.UniformInt(workload.workers.size()));
      geo::Point p = workload.workers[w].location;
      p.x += rng.Gaussian(0.0, 50.0);
      p.y += rng.Gaussian(0.0, 50.0);
      const geo::Point noisy = noise->Perturb(p, rng);
      while (!svc.ReportLocation(w, p, noisy)) {
        std::this_thread::yield();
      }
    }
  });
  int64_t tasks_admitted = 0;
  for (const auto& t : workload.tasks) {
    if (svc.SubmitTask(t)) ++tasks_admitted;
  }
  reporter.join();
  svc.Stop(AssignmentService::StopMode::kDrain);

  EXPECT_EQ(static_cast<int64_t>(svc.completions().size()), tasks_admitted);
  const IngestStats ingest = svc.ingest_stats();
  EXPECT_EQ(ingest.tasks_submitted, tasks_admitted);
  EXPECT_EQ(ingest.reports_submitted, 500);
  EXPECT_EQ(static_cast<int64_t>(svc.admission_log().size()),
            tasks_admitted + 500);
  EXPECT_GT(ingest.epochs, 0);
  // Completion order is admission order for tasks, and every record's
  // epoch is nondecreasing (each batch publishes once, then scans).
  uint64_t last_epoch = 0;
  for (const auto& c : svc.completions()) {
    EXPECT_GE(c.epoch, last_epoch);
    EXPECT_GE(c.done_ns, c.submit_ns);
    last_epoch = c.epoch;
  }
}

TEST(ServiceTest, BitIdenticalToSerialReplayOfAdmissionLog) {
  // The determinism contract: concurrency picks the admission order, and
  // the admission order alone decides the bits. Replaying the logged order
  // serially on a fresh service reproduces assignments, completions, and
  // decision metrics exactly.
  const assign::Workload workload = NoisyWorkload(400, 300, 7002);
  const reachability::AnalyticalModel model(kDefault);
  const ServiceConfig config = BaseConfig(&model, workload.region);

  AssignmentService live(config);
  for (const auto& w : workload.workers) live.RegisterWorker(w);
  live.Start();
  std::atomic<bool> run{true};
  std::thread reporter([&] {
    stats::Rng rng(6);
    const auto noise = privacy::MakeMechanismOrDie(kDefault);
    while (run.load(std::memory_order_relaxed)) {
      const auto w = static_cast<uint32_t>(
          rng.UniformInt(workload.workers.size()));
      geo::Point p = workload.workers[w].location;
      p.x += rng.Gaussian(0.0, 50.0);
      p.y += rng.Gaussian(0.0, 50.0);
      const geo::Point noisy = noise->Perturb(p, rng);
      while (!live.ReportLocation(w, p, noisy) &&
             run.load(std::memory_order_relaxed)) {
        std::this_thread::yield();
      }
    }
  });
  for (const auto& t : workload.tasks) {
    while (!live.SubmitTask(t)) std::this_thread::yield();
  }
  run.store(false, std::memory_order_relaxed);
  reporter.join();
  live.Stop(AssignmentService::StopMode::kDrain);
  ASSERT_EQ(live.completions().size(), workload.tasks.size());

  AssignmentService replay(config);
  for (const auto& w : workload.workers) replay.RegisterWorker(w);
  replay.Replay(live.admission_log());
  ExpectSameResults(live, replay, "live vs replay");
}

/// Growth of every scguard.engine.* counter and histogram count between
/// two snapshots.
std::map<std::string, int64_t> EngineDeltas(const obs::MetricsSnapshot& from,
                                            const obs::MetricsSnapshot& to) {
  std::map<std::string, int64_t> deltas;
  for (const auto& [name, value] : to.counters) {
    if (name.rfind("scguard.engine.", 0) != 0) continue;
    const auto it = from.counters.find(name);
    deltas[name] = value - (it == from.counters.end() ? 0 : it->second);
  }
  for (const auto& [name, hist] : to.histograms) {
    if (name.rfind("scguard.engine.", 0) != 0) continue;
    const auto it = from.histograms.find(name);
    deltas[name + ".count"] =
        hist.count - (it == from.histograms.end() ? 0 : it->second.count);
  }
  return deltas;
}

TEST(ServiceTest, MatchesEngineWithoutReports) {
  // A service fed only tasks executes the identical protocol sequence as
  // one ScGuardEngine::Run: same random-rank stream (rank_seed == the
  // run Rng's seed), same per-task pipeline, same MarkMatched active-set
  // maintenance — so every deterministic metric and, with obs on, every
  // stage counter and per-stage histogram count agree.
  const assign::Workload workload = NoisyWorkload(250, 200, 7003);
  const reachability::AnalyticalModel model(kDefault);
  auto& registry = obs::MetricsRegistry::Global();
  obs::SetConfig(obs::ObsConfig{.enabled = true});
  const obs::MetricsSnapshot before_service = registry.Snapshot();

  ServiceConfig config = BaseConfig(&model, workload.region);
  config.rank_seed = 42;
  AssignmentService svc(config);
  for (const auto& w : workload.workers) svc.RegisterWorker(w);
  svc.Start();
  for (const auto& t : workload.tasks) {
    ASSERT_TRUE(svc.SubmitTask(t));
  }
  svc.Stop(AssignmentService::StopMode::kDrain);
  const obs::MetricsSnapshot after_service = registry.Snapshot();

  assign::EnginePolicy policy;
  static_cast<assign::ProtocolPolicy&>(policy) = config;
  policy.compute_accuracy_metrics = false;
  assign::ScGuardEngine engine(std::move(policy));
  stats::Rng rng(42);
  const assign::MatchResult run = engine.Run(workload, rng);
  const obs::MetricsSnapshot after_engine = registry.Snapshot();
  obs::SetConfig(obs::ObsConfig{.enabled = false});

  ASSERT_GT(run.metrics.assigned_tasks, 0);
  fixtures::ExpectBitIdentical(Result(svc), run, "service vs engine");

  const auto service_deltas = EngineDeltas(before_service, after_service);
  EXPECT_EQ(service_deltas, EngineDeltas(after_service, after_engine));
  EXPECT_EQ(service_deltas.at("scguard.engine.tasks"), 200);
  for (const char* stage : {"u2u", "u2e", "e2e"}) {
    EXPECT_GT(service_deltas.at(std::string("scguard.engine.") + stage +
                                "_seconds.count"),
              0)
        << stage;
  }
}

TEST(ServiceTest, HostileIngestIsRefusedOrClampedNotFatal) {
  // Unknown worker ids and non-finite coordinates are refused at the door
  // and counted apart from queue-full rejections; a finite but absurdly
  // distant location is admitted and lands in a border grid cell. The
  // service then drains normally, exporting both refusal counts. Runs
  // under ASan/UBSan in CI.
  const assign::Workload workload = NoisyWorkload(200, 60, 7005);
  const reachability::AnalyticalModel model(kDefault);
  auto& registry = obs::MetricsRegistry::Global();
  obs::SetConfig(obs::ObsConfig{.enabled = true});
  const obs::MetricsSnapshot before = registry.Snapshot();
  AssignmentService svc(BaseConfig(&model, workload.region));
  for (const auto& w : workload.workers) svc.RegisterWorker(w);
  svc.Start();

  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const geo::Point ok = workload.workers[0].location;
  const auto unknown = static_cast<uint32_t>(workload.workers.size());
  EXPECT_FALSE(svc.ReportLocation(unknown, ok, ok));
  EXPECT_FALSE(svc.ReportLocation(std::numeric_limits<uint32_t>::max(), ok,
                                  ok));
  EXPECT_FALSE(svc.ReportLocation(0, {kNaN, ok.y}, ok));
  EXPECT_FALSE(svc.ReportLocation(0, ok, {ok.x, kInf}));
  EXPECT_FALSE(svc.ReportLocation(0, ok, {-kInf, ok.y}));
  for (const geo::Point bad : {geo::Point{kNaN, 0.0}, geo::Point{0.0, kInf},
                               geo::Point{-kInf, 0.0}}) {
    assign::Task t = workload.tasks[0];
    t.noisy_location = bad;
    EXPECT_FALSE(svc.SubmitTask(t));
  }

  // Worker 1 re-reports from 1e300 m away, and a task appears right there:
  // both clamp into the same corner cell, so the task finds that worker.
  const geo::Point far{1e300, 1e300};
  EXPECT_TRUE(svc.ReportLocation(1, far, far));
  assign::Task far_task;
  far_task.id = 1000000;
  far_task.location = far;
  far_task.noisy_location = far;
  EXPECT_TRUE(svc.SubmitTask(far_task));
  for (const auto& t : workload.tasks) EXPECT_TRUE(svc.SubmitTask(t));
  svc.Stop(AssignmentService::StopMode::kDrain);
  const obs::MetricsSnapshot after = registry.Snapshot();
  obs::SetConfig(obs::ObsConfig{.enabled = false});

  const IngestStats ingest = svc.ingest_stats();
  EXPECT_EQ(ingest.reports_invalid, 5);
  EXPECT_EQ(ingest.tasks_invalid, 3);
  const auto delta = [&](const std::string& name) {
    const auto it = before.counters.find(name);
    return after.counters.at(name) -
           (it == before.counters.end() ? 0 : it->second);
  };
  EXPECT_EQ(delta("scguard.service.tasks_invalid"), ingest.tasks_invalid);
  EXPECT_EQ(delta("scguard.service.reports_invalid"), ingest.reports_invalid);
  EXPECT_EQ(ingest.reports_rejected, 0);
  EXPECT_EQ(ingest.tasks_rejected, 0);
  EXPECT_EQ(ingest.reports_submitted, 1);
  EXPECT_EQ(ingest.tasks_submitted,
            static_cast<int64_t>(workload.tasks.size()) + 1);
  ASSERT_EQ(svc.completions().size(), workload.tasks.size() + 1);
  EXPECT_EQ(svc.completions()[0].task_id, far_task.id);
  EXPECT_EQ(svc.completions()[0].worker_id, workload.workers[1].id);
  EXPECT_GT(svc.metrics().assigned_tasks, 1);

  // The grid itself: a far-out or non-finite center clamps into a border
  // cell instead of overflowing the cell cast.
  index::GridIndex grid(workload.region, 8);
  grid.Insert({7, {1e300, -1e300}, 100.0});
  grid.Insert({9, {kNaN, kNaN}, 100.0});
  const size_t corner = 7;  // Cell (x = 7, y = 0), row-major.
  ASSERT_EQ(grid.cell_count(corner), 1u);
  EXPECT_EQ(grid.rows().id[grid.cell_begin(corner)], 7u);
  ASSERT_EQ(grid.cell_count(0), 1u);
  EXPECT_EQ(grid.rows().id[grid.cell_begin(0)], 9u);
}

TEST(ServiceTest, QueueFullBackpressureRejectsWithoutBlocking) {
  const assign::Workload workload = NoisyWorkload(50, 40, 7004);
  const reachability::AnalyticalModel model(kDefault);
  ServiceConfig config = BaseConfig(&model, workload.region);
  config.queue_capacity = 8;
  AssignmentService svc(config);
  for (const auto& w : workload.workers) svc.RegisterWorker(w);
  // Not started: the consumer never drains, so pushes past capacity must
  // come back false immediately.
  int64_t accepted = 0;
  for (const auto& t : workload.tasks) {
    if (svc.SubmitTask(t)) ++accepted;
  }
  EXPECT_EQ(accepted, 8);
  const IngestStats ingest = svc.ingest_stats();
  EXPECT_EQ(ingest.tasks_submitted, 8);
  EXPECT_EQ(ingest.tasks_rejected,
            static_cast<int64_t>(workload.tasks.size()) - 8);
  // Start/drain now completes exactly the admitted prefix.
  svc.Start();
  svc.Stop(AssignmentService::StopMode::kDrain);
  EXPECT_EQ(svc.completions().size(), 8u);
}

TEST(ServiceTest, ReportReactivatesMatchedWorker) {
  // One worker in reach of two tasks: without re-reports the second task
  // goes unassigned (the worker stays matched); a re-report between them
  // makes the worker available again.
  const geo::BoundingBox region =
      geo::BoundingBox::FromCorners({0, 0}, {10000, 10000});
  const reachability::BinaryModel model;

  assign::Worker w;
  w.id = 0;
  w.location = {5000, 5000};
  w.noisy_location = {5020, 4990};
  w.reach_radius_m = 3000;

  assign::Task t1;
  t1.id = 100;
  t1.location = {5100, 5100};
  t1.noisy_location = {5150, 5060};
  assign::Task t2 = t1;
  t2.id = 101;

  ServiceEvent report;
  report.kind = ServiceEvent::Kind::kReport;
  report.worker = 0;
  report.exact = w.location;
  report.noisy = w.noisy_location;

  auto make_event = [](const assign::Task& t) {
    ServiceEvent ev;
    ev.kind = ServiceEvent::Kind::kTask;
    ev.task_id = t.id;
    ev.exact = t.location;
    ev.noisy = t.noisy_location;
    return ev;
  };

  for (const bool reactivate : {true, false}) {
    ServiceConfig config;
    config.u2u_model = &model;
    config.rank = assign::RankStrategy::kNearest;
    config.region = region;
    config.reactivate_on_report = reactivate;
    config.pruning_gamma = 0.9;
    config.pruning_backend = index::PrunerBackend::kGrid;
    AssignmentService svc(config);
    svc.RegisterWorker(w);
    svc.Replay({make_event(t1), report, make_event(t2)});
    ASSERT_EQ(svc.completions().size(), 2u);
    EXPECT_EQ(svc.completions()[0].worker_id, 0);
    EXPECT_EQ(svc.completions()[1].worker_id, reactivate ? 0 : -1)
        << "reactivate=" << reactivate;
  }
}

/// The workload's workers with a refused registration before every fifth
/// one: each kind of bad location and bad radius in turn.
std::vector<assign::Worker> WithRefusals(
    const std::vector<assign::Worker>& workers) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<assign::Worker> out;
  for (size_t i = 0; i < workers.size(); ++i) {
    if (i % 5 == 0) {
      assign::Worker bad = workers[i];
      switch (i / 5 % 8) {
        case 0: bad.location.x = kNaN; break;
        case 1: bad.noisy_location.y = kInf; break;
        case 2: bad.noisy_location.x = -kInf; break;
        case 3: bad.reach_radius_m = kNaN; break;
        case 4: bad.reach_radius_m = kInf; break;
        case 5: bad.reach_radius_m = -kInf; break;
        case 6: bad.reach_radius_m = 0.0; break;
        default: bad.reach_radius_m = -250.0; break;
      }
      out.push_back(bad);
    }
    out.push_back(workers[i]);
  }
  return out;
}

TEST(ServiceTest, InvalidRegistrationsAreRefusedAndCounted) {
  // Non-finite locations and NaN, infinite or non-positive radii never
  // reach the stage (the grid CHECK-aborted on a non-finite rectangle):
  // they get kInvalidWorker, no id, no rank draw, and a counted refusal.
  const assign::Workload workload = NoisyWorkload(120, 80, 7006);
  const reachability::AnalyticalModel model(kDefault);
  auto& registry = obs::MetricsRegistry::Global();
  obs::SetConfig(obs::ObsConfig{.enabled = true});
  const obs::MetricsSnapshot before = registry.Snapshot();
  AssignmentService svc(BaseConfig(&model, workload.region));
  uint32_t next_id = 0;
  int64_t refused = 0;
  for (const assign::Worker& w : WithRefusals(workload.workers)) {
    const bool valid = std::isfinite(w.location.x) &&
                       std::isfinite(w.noisy_location.x) &&
                       std::isfinite(w.noisy_location.y) &&
                       std::isfinite(w.reach_radius_m) && w.reach_radius_m > 0;
    const uint32_t id = svc.RegisterWorker(w);
    if (valid) {
      EXPECT_EQ(id, next_id++);
    } else {
      EXPECT_EQ(id, AssignmentService::kInvalidWorker);
      ++refused;
    }
  }
  ASSERT_EQ(refused, 24);
  EXPECT_EQ(svc.ingest_stats().workers_invalid, refused);
  // The refused ids do not exist: a report for the first one past the
  // valid range is refused as unknown.
  EXPECT_FALSE(svc.ReportLocation(next_id, workload.workers[0].location,
                                  workload.workers[0].noisy_location));
  svc.Start();
  for (const auto& t : workload.tasks) ASSERT_TRUE(svc.SubmitTask(t));
  svc.Stop(AssignmentService::StopMode::kDrain);
  const obs::MetricsSnapshot after = registry.Snapshot();
  obs::SetConfig(obs::ObsConfig{.enabled = false});
  const auto it = before.counters.find("scguard.service.workers_invalid");
  EXPECT_EQ(after.counters.at("scguard.service.workers_invalid") -
                (it == before.counters.end() ? 0 : it->second),
            refused);
  EXPECT_EQ(svc.metrics().num_workers, 120);

  // Refusals draw no priority, so the run equals one over the valid
  // workers alone.
  AssignmentService clean(BaseConfig(&model, workload.region));
  for (const auto& w : workload.workers) clean.RegisterWorker(w);
  clean.Start();
  for (const auto& t : workload.tasks) ASSERT_TRUE(clean.SubmitTask(t));
  clean.Stop(AssignmentService::StopMode::kDrain);
  ASSERT_GT(clean.metrics().assigned_tasks, 0);
  ExpectSameResults(svc, clean, "with refusals vs valid workers only");
}

TEST(ServiceTest, ReplayMatchesLiveWhenRegistrationsWereRefused) {
  // Live ≡ replay holds when the registration sequence had refusals: the
  // replaying service repeats the same registrations (refusals included)
  // and ends on the same ids, priorities and results.
  const assign::Workload workload = NoisyWorkload(300, 200, 7007);
  const reachability::AnalyticalModel model(kDefault);
  ServiceConfig config = BaseConfig(&model, workload.region);
  config.redundancy_k = 2;
  const std::vector<assign::Worker> registrations =
      WithRefusals(workload.workers);

  AssignmentService live(config);
  for (const auto& w : registrations) live.RegisterWorker(w);
  live.Start();
  stats::Rng rng(8);
  const auto noise = privacy::MakeMechanismOrDie(kDefault);
  for (size_t k = 0; k < workload.tasks.size(); ++k) {
    ASSERT_TRUE(live.SubmitTask(workload.tasks[k]));
    const auto w =
        static_cast<uint32_t>(rng.UniformInt(workload.workers.size()));
    geo::Point p = workload.workers[w].location;
    p.x += rng.Gaussian(0.0, 400.0);
    p.y += rng.Gaussian(0.0, 400.0);
    ASSERT_TRUE(live.ReportLocation(w, p, noise->Perturb(p, rng)));
  }
  live.Stop(AssignmentService::StopMode::kDrain);
  ASSERT_EQ(live.completions().size(), workload.tasks.size());
  ASSERT_GT(live.metrics().assigned_tasks, 0);

  AssignmentService replay(config);
  for (const auto& w : registrations) replay.RegisterWorker(w);
  replay.Replay(live.admission_log());
  ExpectSameResults(live, replay, "live vs replay with refusals");
  EXPECT_EQ(replay.ingest_stats().workers_invalid,
            live.ingest_stats().workers_invalid);
}

}  // namespace
}  // namespace scguard::service
