#ifndef SVCBENCH_WORKLOADS_H_
#define SVCBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "assign/entities.h"
#include "geo/point.h"
#include "privacy/privacy_params.h"
#include "reachability/model.h"
#include "service/service.h"

namespace svcbench {

namespace scg = scguard;

/// Geo-I level of every worker and task report: planar Laplace, eps = 0.7
/// at r = 800 m.
inline constexpr scg::privacy::PrivacyParams kPrivacy{0.7, 800.0};

/// The two workloads. Sizes scale with the run length so that a run
/// measures for about `seconds` seconds on the reference machine. A run is
/// a few rounds, each on a freshly set-up service, so that set-up samples
/// and latency windows are spread over the whole run rather than taken in
/// one stretch of the host's (shared, drifting) speed.
enum class Kind {
  /// 1M uniform workers with continuous U[1000, 3000] m radii; every task
  /// of a round is offered at once (a backlog), no re-reports.
  kRush,
  /// 100k hotspot workers with radius tiers {1000, 2000, 3000} m; in each
  /// round tasks arrive open-loop at kStreamTaskRate beside
  /// kStreamReportRate re-reports.
  kStream,
};

inline constexpr const char* kRushName = "rush-1m";
inline constexpr const char* kStreamName = "stream-hot-100k";

inline constexpr int64_t kRushWorkers = 1'000'000;
inline constexpr int64_t kStreamWorkers = 100'000;
/// Backlog tasks per rush round, per second of run length: 50 s gives
/// rounds of 1000 tasks, so each round's p99 has ten samples beyond it.
inline constexpr double kRushRoundTasksPerSecond = 20.0;
inline constexpr int kRushRounds = 3;
inline constexpr double kStreamTaskRate = 100.0;
inline constexpr double kStreamReportRate = 10'000.0;
/// Stream rounds per run: 50 s gives rounds of 1000 tasks.
inline constexpr int kStreamRounds = 5;
/// A stream set-up takes tens of ms, so each round times this many service
/// builds (the last one serves the round), after untimed warm-up builds
/// at the start of the run.
inline constexpr int kStreamSetupsPerRound = 3;
inline constexpr int kStreamWarmupSetups = 3;

/// A worker re-report: the worker's new true location and its fresh Geo-I
/// report.
struct Report {
  uint32_t worker = 0;
  scg::geo::Point exact;
  scg::geo::Point noisy;
};

/// One scheduled ingest call, `due_ns` after the round's start.
struct Event {
  uint64_t due_ns = 0;
  bool is_task = false;
  uint32_t index = 0;  ///< Into Inputs::tasks or Inputs::reports.
};

/// Every input of one run, generated from the seed before any clock starts.
struct Inputs {
  Kind kind = Kind::kRush;
  std::vector<scg::assign::Worker> workers;  ///< ids == indices.
  std::vector<scg::assign::Task> tasks;      ///< ids == indices.
  std::vector<Report> reports;
  /// Per round, the ingest schedule in due order, due times relative to
  /// the round's start.
  std::vector<std::vector<Event>> rounds;
};

/// Parses a workload name; false when unknown.
bool ParseKind(const std::string& name, Kind& kind);

/// Builds the inputs of `kind`. `num_workers` 0 selects the workload's
/// default population; `seconds` sizes the task and report streams.
Inputs MakeInputs(Kind kind, uint64_t seed, double seconds,
                  int64_t num_workers);

/// The protocol and runtime settings both workloads share: alpha = 0.1,
/// beta = 0.25 every contact, probability ranking, grid pruning at
/// gamma = 0.9, default kernel, serial consumer.
scg::service::ServiceConfig MakeServiceConfig(
    const scg::reachability::ReachabilityModel& model);

}  // namespace svcbench

#endif  // SVCBENCH_WORKLOADS_H_
