// svcbench: the repository benchmark. Drives the real
// service::AssignmentService through its public API on one of two
// workloads (workloads.h) and prints every end-to-end metric by name and
// unit; with --trace 1 it instead re-executes the live run's admission log
// through the public stage calls with a span around each call and prints
// the per-layer metrics. Every run checks the service's outputs (the
// correctness gate) and exits non-zero on any violation. The last stdout
// line is one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Usage:
//   svcbench --workload rush-1m|stream-hot-100k --seed N --seconds S
//            --trace 0|1 [--workers N] [--trace-out trace.json]

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <malloc.h>
#include <limits>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "assign/stages/candidate_stage.h"
#include "assign/stages/contact_stage.h"
#include "assign/stages/rank_stage.h"
#include "obs/obs_config.h"
#include "reachability/analytical_model.h"
#include "service/service.h"
#include "span_trace.h"
#include "workloads.h"

namespace svcbench {
namespace {

using scg::service::AssignmentService;
using scg::service::ServiceEvent;

/// A run is invalid when the generator pushed more than 1% of its events
/// this late (20 ticks): it fell behind its own schedule. A few ms of
/// lateness is host scheduling jitter and is charged to the latency.
constexpr double kMaxGeneratorLateP99Ms = 20.0;
/// The layer-sum tolerance: replay time outside every layer span.
constexpr double kMaxUnattributedFrac = 0.05;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 0.0;
  int trace = -1;
  int64_t workers = 0;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      o.workload = val;
    } else if (key == "--seed") {
      o.seed = std::strtoull(val, &end, 10);
    } else if (key == "--seconds") {
      o.seconds = std::strtod(val, &end);
    } else if (key == "--trace") {
      o.trace = static_cast<int>(std::strtol(val, &end, 10));
    } else if (key == "--workers") {
      o.workers = std::strtoll(val, &end, 10);
    } else if (key == "--trace-out") {
      o.trace_out = val;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !o.workload.empty() && o.seconds > 0.0 &&
         (o.trace == 0 || o.trace == 1) && o.workers >= 0;
}

/// Nearest-rank percentile: the smallest value with at least q of the
/// samples at or below it (so p99 of n samples has floor(n / 100) beyond).
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Mean without the lowest and the highest value (when there are three or
/// more): a summary over a few rounds that one round caught in a host
/// stall cannot move, and that varies less than their median.
double TrimmedMean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t trim = v.size() >= 3 ? 1 : 0;
  double sum = 0.0;
  for (size_t i = trim; i < v.size() - trim; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * trim);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Waits for a tick boundary by spinning: a sleeping generator wakes up to
/// several milliseconds late on a busy virtualized host, and that lateness
/// would be charged to the service (latency counts from the due time).
void SpinUntilNs(uint64_t t_ns) {
  while (NowNs() < t_ns) {
#if defined(__x86_64__)
    __builtin_ia32_pause();
#endif
  }
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

// ---------------------------------------------------------------------------
// Live run: setup, the paced single-producer generator, Stop(kDrain).

/// Builds a service over the inputs' workers: RegisterWorker x N + Start.
std::unique_ptr<AssignmentService> SetUp(const Inputs& in,
                                         const scg::service::ServiceConfig& c,
                                         double& setup_s) {
  const uint64_t t0 = NowNs();
  auto svc = std::make_unique<AssignmentService>(c);
  for (const scg::assign::Worker& w : in.workers) svc->RegisterWorker(w);
  svc->Start();
  setup_s = static_cast<double>(NowNs() - t0) * 1e-9;
  return svc;
}

struct LiveRound {
  double setup_s = 0.0;
  int64_t attempted = 0;  ///< Tasks offered.
  int64_t refused = 0;    ///< Events (tasks or reports) not admitted.
  int64_t completed = 0;
  int64_t assigned = 0;
  double span_s = 0.0;  ///< First due time to last completion.
  std::vector<double> late_ms;     ///< Per event: push time - due time.
  std::vector<double> push_ns;     ///< Per push call (traced runs only).
  std::vector<double> latency_ms;  ///< Per completed task: due -> done.
  /// Task latency by task id (NaN for tasks outside the round).
  std::vector<double> latency_by_task;
  scg::assign::RunMetrics metrics;
  std::vector<ServiceEvent> log;
  std::vector<scg::assign::Assignment> assignments;
  std::vector<std::string> violations;
};

/// The correctness gate over one live round.
void CheckRound(const Inputs& in, const std::vector<Event>& schedule,
                const AssignmentService& svc, LiveRound& r) {
  auto fail = [&r](std::string what) {
    if (r.violations.size() < 20) r.violations.push_back(std::move(what));
  };
  if (r.refused != 0) {
    fail(std::to_string(r.refused) + " ingest calls refused");
  }

  // Single producer: the admission log holds exactly the scheduled
  // events, tasks in schedule order and reports in schedule order (the
  // consumer runs a batch's reports before its tasks).
  const std::vector<ServiceEvent>& log = svc.admission_log();
  if (log.size() != schedule.size()) {
    fail("admission log holds " + std::to_string(log.size()) + " of " +
         std::to_string(schedule.size()) + " scheduled events");
  }
  {
    std::vector<const Event*> tasks, reports;
    for (const Event& e : schedule) (e.is_task ? tasks : reports).push_back(&e);
    size_t ti = 0, ri = 0;
    for (const ServiceEvent& ev : log) {
      if (ev.kind == ServiceEvent::Kind::kTask) {
        if (ti >= tasks.size() ||
            ev.task_id != in.tasks[tasks[ti++]->index].id) {
          fail("task admitted out of schedule order");
          break;
        }
      } else {
        const Report* rep =
            ri < reports.size() ? &in.reports[reports[ri++]->index] : nullptr;
        if (rep == nullptr || rep->worker != ev.worker ||
            std::memcmp(&rep->noisy, &ev.noisy, sizeof(rep->noisy)) != 0) {
          fail("report admitted out of schedule order");
          break;
        }
      }
    }
  }

  // Every admitted task completes exactly once.
  std::vector<uint8_t> scheduled(in.tasks.size(), 0), seen(in.tasks.size(), 0);
  for (const Event& e : schedule) {
    if (e.is_task) scheduled[e.index] = 1;
  }
  for (const scg::service::CompletionRecord& c : svc.completions()) {
    const size_t id = static_cast<size_t>(c.task_id);
    if (c.task_id < 0 || id >= seen.size() || scheduled[id] == 0) {
      fail("completion for unknown task " + std::to_string(c.task_id));
    } else if (seen[id]++ != 0) {
      fail("task " + std::to_string(c.task_id) + " completed twice");
    }
  }
  for (size_t id = 0; id < seen.size(); ++id) {
    if (scheduled[id] != 0 && seen[id] == 0) {
      fail("task " + std::to_string(id) + " never completed");
    }
  }

  // Every assignment is within the worker's reach, and no worker is
  // assigned twice without a re-report in between. Assignments are in
  // execution order, which is admission-log order.
  const std::vector<scg::assign::Assignment>& as = svc.assignments();
  std::vector<uint8_t> busy(in.workers.size(), 0);
  size_t cursor = 0;
  for (const ServiceEvent& ev : log) {
    if (ev.kind == ServiceEvent::Kind::kReport) {
      busy[ev.worker] = 0;
      continue;
    }
    for (; cursor < as.size() && as[cursor].task_id == ev.task_id; ++cursor) {
      const scg::assign::Assignment& a = as[cursor];
      const size_t w = static_cast<size_t>(a.worker_id);
      if (a.worker_id < 0 || w >= in.workers.size()) {
        fail("assignment to unknown worker");
        continue;
      }
      if (!(a.travel_m <= in.workers[w].reach_radius_m)) {
        fail("task " + std::to_string(a.task_id) + " assigned beyond reach");
      }
      if (busy[w]++ != 0) {
        fail("worker " + std::to_string(w) + " assigned twice");
      }
    }
  }
  if (cursor != as.size()) fail("assignments out of admission order");
}

/// One live round on `svc`: pushes `schedule` from this thread on 1 ms
/// ticks, then drains. Latency counts from each task's due time.
LiveRound RunRound(const Inputs& in, const std::vector<Event>& schedule,
                   std::unique_ptr<AssignmentService> svc, double setup_s,
                   SpanTrace* trace) {
  LiveRound r;
  r.setup_s = setup_s;
  r.late_ms.reserve(schedule.size());
  if (trace != nullptr) r.push_ns.reserve(schedule.size());
  constexpr uint64_t kTickNs = 1'000'000;

  const uint64_t t0 = NowNs();
  const int32_t gen_span =
      trace != nullptr ? trace->Open("live.generate") : SpanTrace::kNoParent;
  size_t next = 0;
  for (uint64_t tick = 0; next < schedule.size(); ++tick) {
    SpinUntilNs(t0 + tick * kTickNs);
    const uint64_t now = NowNs();
    const uint64_t now_off = now - t0;
    const size_t first = next;
    while (next < schedule.size() && schedule[next].due_ns <= now_off) {
      const Event& e = schedule[next++];
      const uint64_t push_start = trace != nullptr ? NowNs() : 0;
      bool ok = false;
      if (e.is_task) {
        ++r.attempted;
        ok = svc->SubmitTask(in.tasks[e.index]);
      } else {
        const Report& rep = in.reports[e.index];
        ok = svc->ReportLocation(rep.worker, rep.exact, rep.noisy);
      }
      if (trace != nullptr) {
        r.push_ns.push_back(static_cast<double>(NowNs() - push_start));
      }
      if (!ok) ++r.refused;
      r.late_ms.push_back(static_cast<double>(now_off - e.due_ns) * 1e-6);
    }
    if (trace != nullptr && next > first) {
      trace->Add("ingest.tick", now, NowNs(), gen_span, SpanTrace::kNoTask,
                 static_cast<int64_t>(next - first));
    }
  }
  if (trace != nullptr) {
    trace->Close(gen_span);
    const int32_t stop_span = trace->Open("live.drain");
    svc->Stop(AssignmentService::StopMode::kDrain);
    trace->Close(stop_span);
  } else {
    svc->Stop(AssignmentService::StopMode::kDrain);
  }

  std::vector<uint64_t> due_abs(in.tasks.size(), 0);
  uint64_t first_due = std::numeric_limits<uint64_t>::max();
  uint64_t last_done = 0;
  for (const Event& e : schedule) {
    if (!e.is_task) continue;
    due_abs[e.index] = t0 + e.due_ns;
    first_due = std::min(first_due, due_abs[e.index]);
  }
  r.latency_by_task.assign(in.tasks.size(),
                           std::numeric_limits<double>::quiet_NaN());
  for (const scg::service::CompletionRecord& c : svc->completions()) {
    if (c.task_id < 0 || static_cast<size_t>(c.task_id) >= due_abs.size()) {
      continue;  // Reported by the gate.
    }
    const double ms =
        static_cast<double>(c.done_ns - due_abs[static_cast<size_t>(c.task_id)]) *
        1e-6;
    r.latency_ms.push_back(ms);
    r.latency_by_task[static_cast<size_t>(c.task_id)] = ms;
    r.completed += 1;
    if (c.worker_id >= 0) r.assigned += 1;
    last_done = std::max(last_done, c.done_ns);
  }
  r.span_s = last_done > first_due
                 ? static_cast<double>(last_done - first_due) * 1e-9
                 : 0.0;
  r.metrics = svc->metrics();
  CheckRound(in, schedule, *svc, r);
  if (trace != nullptr) {
    r.log = svc->admission_log();
    r.assignments = svc->assignments();
  }
  return r;
}

// ---------------------------------------------------------------------------
// Traced stage replay: the admission log re-executed through the public
// stage calls, exactly as the service's ApplyReport / ScanTask do.

struct StageReplay {
  std::vector<scg::assign::Assignment> assignments;
  double register_s = 0.0;
  double prepare_s = 0.0;
  int64_t distinct_radii = 0;
  uint64_t wall_ns = 0;  ///< The event loop, setup excluded.
  uint64_t apply_ns = 0, u2u_ns = 0, u2e_ns = 0, e2e_ns = 0;
  std::vector<double> report_us, collect_us, rank_us, contact_us;
  /// U2U + U2E + E2E time per task id (NaN for tasks not replayed).
  std::vector<double> stage_ms_by_task;
  int64_t reports = 0, reactivated = 0;
  int64_t tasks = 0, scanned = 0, candidates = 0, band_evals = 0;
  int64_t gather_bytes = 0;
  int64_t contacted_tasks = 0, disclosures = 0, accepted = 0, cancelled = 0;
};

/// The service's U2U stage configuration (service.cc MakeU2uConfig).
scg::assign::U2uCandidateStage::Config U2uConfig(
    const scg::service::ServiceConfig& c) {
  scg::assign::U2uCandidateStage::Config u;
  u.model = c.u2u_model;
  u.alpha = c.alpha;
  u.kernel = c.kernel;
  u.runtime = c.runtime;
  if (c.pruning_gamma.has_value()) {
    u.pruning = scg::assign::U2uCandidateStage::Pruning{
        *c.pruning_gamma, c.pruning_backend, c.worker_params, c.task_params,
        c.region};
  }
  return u;
}

StageReplay ReplayStages(const Inputs& in,
                         const scg::service::ServiceConfig& config,
                         const std::vector<ServiceEvent>& log,
                         SpanTrace& trace) {
  namespace assign = scg::assign;
  StageReplay out;
  out.stage_ms_by_task.assign(in.tasks.size(),
                              std::numeric_limits<double>::quiet_NaN());
  {
    std::unordered_set<uint64_t> radii;
    for (const assign::Worker& w : in.workers) {
      uint64_t bits = 0;
      std::memcpy(&bits, &w.reach_radius_m, sizeof(bits));
      radii.insert(bits);
    }
    out.distinct_radii = static_cast<int64_t>(radii.size());
  }

  assign::U2uCandidateStage u2u(U2uConfig(config));
  assign::U2eRankStage u2e({.model = config.u2e_model, .rank = config.rank,
                            .kernel = config.kernel,
                            .audit_epsilon = config.worker_params.epsilon});
  const assign::E2eContactStage e2e({.rank = config.rank, .beta = config.beta,
                                     .beta_mode = config.beta_mode,
                                     .redundancy_k = config.redundancy_k});
  std::vector<assign::Worker> workers = in.workers;
  std::vector<std::pair<double, size_t>> ranked;

  const int32_t reg = trace.Open("setup.register");
  for (const assign::Worker& w : workers) {
    u2u.AddWorker(w.noisy_location, w.reach_radius_m);
  }
  trace.Close(reg);
  const int32_t prep = trace.Open("setup.prepare");
  u2u.Prepare();
  trace.Close(prep);
  ranked.reserve(workers.size());
  out.register_s = static_cast<double>(trace.DurationNs(reg)) * 1e-9;
  out.prepare_s = static_cast<double>(trace.DurationNs(prep)) * 1e-9;

  assign::RunMetrics m;
  const int32_t replay = trace.Open("replay");
  size_t i = 0;
  while (i < log.size()) {
    if (log[i].kind == ServiceEvent::Kind::kReport) {
      // A run of consecutive re-reports is one "apply" span; each call pair
      // is timed on its own for the percentiles.
      const uint64_t run_start = NowNs();
      int64_t count = 0;
      for (; i < log.size() && log[i].kind == ServiceEvent::Kind::kReport;
           ++i, ++count) {
        const ServiceEvent& ev = log[i];
        const uint64_t a = NowNs();
        assign::Worker& w = workers[ev.worker];
        w.location = ev.exact;
        w.noisy_location = ev.noisy;
        const bool was_matched = u2u.is_matched(ev.worker);
        u2u.UpdateWorkerLocation(ev.worker, ev.noisy);
        if (config.reactivate_on_report) u2u.MarkAvailable(ev.worker);
        const uint64_t b = NowNs();
        out.report_us.push_back(static_cast<double>(b - a) * 1e-3);
        out.apply_ns += b - a;
        if (was_matched && config.reactivate_on_report) ++out.reactivated;
      }
      out.reports += count;
      trace.Add("apply", run_start, NowNs(), replay, SpanTrace::kNoTask,
                count);
      continue;
    }

    const ServiceEvent& ev = log[i++];
    out.tasks += 1;
    const int32_t task = trace.Open("task", replay, ev.task_id);

    const int32_t s_u2u = trace.Open("u2u.collect", task, ev.task_id);
    const std::vector<uint32_t>& candidates = u2u.Collect(ev.noisy);
    trace.Close(s_u2u);
    out.scanned += u2u.stats().scanned_last;
    out.candidates += static_cast<int64_t>(candidates.size());
    uint64_t stage_ns = trace.DurationNs(s_u2u);
    out.u2u_ns += stage_ns;
    out.collect_us.push_back(static_cast<double>(stage_ns) * 1e-3);

    if (!candidates.empty()) {
      const int32_t s_u2e = trace.Open("u2e.rank", task, ev.task_id);
      u2e.Rank(u2u.soa(), candidates, ev.exact, nullptr, ranked, ev.task_id);
      trace.Close(s_u2e);
      const uint64_t rank_ns = trace.DurationNs(s_u2e);

      const int32_t s_e2e = trace.Open("e2e.contact", task, ev.task_id);
      const assign::E2eContactStage::Outcome o = e2e.Run(
          ranked,
          [&](size_t k) {
            const assign::Worker& w = workers[k];
            if (!w.CanReach(ev.exact)) return false;
            u2u.MarkMatched(static_cast<uint32_t>(k));
            out.assignments.push_back(
                {ev.task_id, w.id, scg::geo::Distance(w.location, ev.exact)});
            return true;
          },
          [&](size_t k) { return workers[k].CanReach(ev.exact); }, m);
      trace.Close(s_e2e);
      const uint64_t contact_ns = trace.DurationNs(s_e2e);

      out.u2e_ns += rank_ns;
      out.e2e_ns += contact_ns;
      out.rank_us.push_back(static_cast<double>(rank_ns) * 1e-3);
      out.contact_us.push_back(static_cast<double>(contact_ns) * 1e-3);
      out.contacted_tasks += 1;
      out.disclosures += o.disclosures;
      out.accepted += o.accepted;
      if (o.cancelled) out.cancelled += 1;
      stage_ns += rank_ns + contact_ns;
    }
    trace.Close(task);
    if (ev.task_id >= 0 &&
        static_cast<size_t>(ev.task_id) < out.stage_ms_by_task.size()) {
      out.stage_ms_by_task[static_cast<size_t>(ev.task_id)] =
          static_cast<double>(stage_ns) * 1e-6;
    }
  }
  trace.Close(replay);
  out.wall_ns = trace.DurationNs(replay);
  out.band_evals = u2u.band_evals();
  out.gather_bytes = u2u.stats().gather_bytes;
  return out;
}

bool SameAssignments(const std::vector<scg::assign::Assignment>& a,
                     const std::vector<scg::assign::Assignment>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].task_id != b[i].task_id || a[i].worker_id != b[i].worker_id ||
        std::memcmp(&a[i].travel_m, &b[i].travel_m, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Output.

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("\n%-28s %20s  %s\n", "metric", "value", "unit");
  for (const Metric& m : metrics) {
    std::printf("%-28s %20.6f  %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64
              ", \"failed\": %" PRId64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

bool ReportViolations(const std::vector<std::string>& violations) {
  for (const std::string& v : violations) {
    std::fprintf(stderr, "correctness gate: %s\n", v.c_str());
  }
  return violations.empty();
}

bool GeneratorKeptUp(const std::vector<double>& late_ms,
                     std::vector<std::string>& violations) {
  const double p99 = Percentile(late_ms, 0.99);
  if (p99 <= kMaxGeneratorLateP99Ms) return true;
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "generator fell behind: p99 lateness %.3f ms > %.1f ms", p99,
                kMaxGeneratorLateP99Ms);
  violations.emplace_back(buf);
  return false;
}

/// --trace 0: the timed live rounds and the end-to-end metrics. Rates and
/// latency percentiles are taken per round (1000 tasks at 50 s, so a
/// round's p99 has ten samples beyond it) and summarized by TrimmedMean.
int RunEndToEnd(const Inputs& in, const scg::service::ServiceConfig& config) {
  const bool stream = in.kind == Kind::kStream;
  std::vector<LiveRound> rounds;
  std::vector<double> setups;
  // The stream's set-up takes tens of ms: warm-up builds first fault in
  // the allocator's memory, then each round samples it on throwaway
  // services before the one that serves.
  for (int k = 0; stream && k < kStreamWarmupSetups; ++k) {
    double s = 0.0;
    SetUp(in, config, s)->Stop(AssignmentService::StopMode::kDrain);
  }
  for (size_t r = 0; r < in.rounds.size(); ++r) {
    for (int k = 1; stream && k < kStreamSetupsPerRound; ++k) {
      double s = 0.0;
      SetUp(in, config, s)->Stop(AssignmentService::StopMode::kDrain);
      setups.push_back(s);
    }
    double s = 0.0;
    auto svc = SetUp(in, config, s);
    setups.push_back(s);
    rounds.push_back(RunRound(in, in.rounds[r], std::move(svc), s, nullptr));
    const LiveRound& lr = rounds.back();
    std::printf("round %zu: setup %.3f s, %" PRId64
                " tasks in %.3f s (%.2f tasks/s), assigned %" PRId64
                "; consumer U2U %.3f s + U2E %.3f s\n",
                r, lr.setup_s, lr.completed, lr.span_s,
                Ratio(static_cast<double>(lr.completed), lr.span_s),
                lr.assigned, lr.metrics.u2u_seconds, lr.metrics.u2e_seconds);
  }

  std::vector<std::string> violations;
  std::vector<double> late, rates;
  int64_t attempted = 0, refused = 0, completed = 0, assigned = 0;
  int64_t accepted = 0, disclosures = 0, candidates = 0;
  double travel = 0.0;
  for (const LiveRound& lr : rounds) {
    violations.insert(violations.end(), lr.violations.begin(),
                      lr.violations.end());
    late.insert(late.end(), lr.late_ms.begin(), lr.late_ms.end());
    rates.push_back(Ratio(static_cast<double>(lr.completed), lr.span_s));
    attempted += lr.attempted;
    refused += lr.refused;
    completed += lr.completed;
    assigned += lr.assigned;
    accepted += lr.metrics.accepted_assignments;
    travel += lr.metrics.travel_sum_m;
    disclosures += lr.metrics.requester_to_worker_msgs;
    candidates += lr.metrics.candidates_sum;
  }
  GeneratorKeptUp(late, violations);
  const bool correct = ReportViolations(violations);

  std::vector<double> p50s, p99s;
  for (const LiveRound& lr : rounds) {
    p50s.push_back(Percentile(lr.latency_ms, 0.50));
    p99s.push_back(Percentile(lr.latency_ms, 0.99));
    std::printf("round latency: %zu tasks, p50 %.3f ms, p99 %.3f ms\n",
                lr.latency_ms.size(), p50s.back(), p99s.back());
  }
  std::printf("setup samples:");
  for (double s : setups) std::printf(" %.4f", s);
  std::printf(" s\ngenerator lateness p50 %.3f p99 %.3f max %.3f ms\n",
              Percentile(late, 0.50), Percentile(late, 0.99),
              Percentile(late, 1.0));

  const double n = static_cast<double>(attempted);
  const std::vector<Metric> metrics = {
      {"setup_s", Median(setups), "s"},
      {"tasks_per_s", TrimmedMean(rates), "1/s"},
      {"task_p50_ms", TrimmedMean(p50s), "ms"},
      {"task_p99_ms", TrimmedMean(p99s), "ms"},
      {"completed_frac", Ratio(static_cast<double>(completed), n), "fraction"},
      {"assigned_frac", Ratio(static_cast<double>(assigned), n), "fraction"},
      {"travel_m", Ratio(travel, static_cast<double>(accepted)), "m"},
      {"disclosures_per_task", Ratio(static_cast<double>(disclosures), n),
       "count"},
      {"candidates_per_task", Ratio(static_cast<double>(candidates), n),
       "count"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
  PrintResult(correct, attempted, refused + (attempted - completed), metrics);
  return correct ? 0 : 1;
}

/// --trace 1: one live round with its ingest calls timed, the traced stage
/// replay of its admission log, and AssignmentService::Replay of the same
/// log; prints the per-layer metrics.
int RunTraced(const Inputs& in, const scg::service::ServiceConfig& config,
              const std::string& trace_out) {
  SpanTrace trace;
  trace.Reserve(in.tasks.size() * 6 + 4096);
  LiveRound live;
  {
    double s = 0.0;
    const int32_t setup_span = trace.Open("live.setup");
    auto svc = SetUp(in, config, s);
    trace.Close(setup_span);
    live = RunRound(in, in.rounds[0], std::move(svc), s, &trace);
  }
  std::vector<std::string> violations = live.violations;
  GeneratorKeptUp(live.late_ms, violations);

  const StageReplay rep = ReplayStages(in, config, live.log, trace);
  bool identical = SameAssignments(rep.assignments, live.assignments);
  if (!identical) {
    violations.emplace_back("stage replay assignments differ from live run");
  }
  double service_replay_s = 0.0;
  {
    const int32_t span = trace.Open("service.replay");
    AssignmentService replay(config);
    for (const scg::assign::Worker& w : in.workers) replay.RegisterWorker(w);
    replay.Replay(live.log);
    trace.Close(span);
    service_replay_s = replay.metrics().total_seconds;
    if (!SameAssignments(replay.assignments(), live.assignments)) {
      identical = false;
      violations.emplace_back(
          "AssignmentService::Replay differs from live run");
    }
  }
  const bool correct = ReportViolations(violations);

  // Queue wait: the live latency minus the task's own stage time.
  std::vector<double> wait_ms;
  for (size_t id = 0; id < in.tasks.size(); ++id) {
    const double lat = live.latency_by_task[id];
    const double stage = rep.stage_ms_by_task[id];
    if (!std::isnan(lat) && !std::isnan(stage)) wait_ms.push_back(lat - stage);
  }

  const double wall = static_cast<double>(rep.wall_ns);
  const double layers = static_cast<double>(rep.apply_ns + rep.u2u_ns +
                                            rep.u2e_ns + rep.e2e_ns);
  const double unattributed = Ratio(wall - layers, wall);
  const double tasks = static_cast<double>(rep.tasks);

  std::printf("\nself time per span (the replay's layers sum to its wall "
              "%.3f s):\n",
              wall * 1e-9);
  std::printf("%-16s %9s %12s %12s\n", "span", "count", "total_ms",
              "self_ms");
  for (const SpanTrace::Summary& s : trace.Summarize()) {
    std::printf("%-16s %9" PRId64 " %12.3f %12.3f\n", s.name.c_str(), s.spans,
                static_cast<double>(s.total_ns) * 1e-6,
                static_cast<double>(s.self_ns) * 1e-6);
  }
  std::printf("replay: traced %.4f s vs AssignmentService::Replay %.4f s; "
              "assignments bit-identical: %s\n",
              wall * 1e-9, service_replay_s, identical ? "yes" : "NO");
  if (unattributed > kMaxUnattributedFrac) {
    std::printf("FLAG: trace.unattributed_frac %.4f exceeds %.2f\n",
                unattributed, kMaxUnattributedFrac);
  }
  if (!trace_out.empty()) {
    const uint64_t origin =
        trace.spans().empty() ? 0 : trace.spans().front().start_ns;
    if (trace.WriteChromeJson(trace_out, origin)) {
      std::printf("wrote %s (%zu spans; ui.perfetto.dev)\n", trace_out.c_str(),
                  trace.spans().size());
    } else {
      std::fprintf(stderr, "could not write %s\n", trace_out.c_str());
    }
  }

  const std::vector<Metric> metrics = {
      {"setup.register_s", rep.register_s, "s"},
      {"setup.prepare_s", rep.prepare_s, "s"},
      {"setup.distinct_radii", static_cast<double>(rep.distinct_radii),
       "count"},
      {"ingest.push_ns_p50", Percentile(live.push_ns, 0.50), "ns"},
      {"ingest.push_ns_p99", Percentile(live.push_ns, 0.99), "ns"},
      {"ingest.rejected", static_cast<double>(live.refused), "count"},
      {"ingest.wait_ms_p50", Percentile(wait_ms, 0.50), "ms"},
      {"ingest.wait_ms_p99", Percentile(wait_ms, 0.99), "ms"},
      {"ingest.gen_late_ms_p99", Percentile(live.late_ms, 0.99), "ms"},
      {"apply.report_us_p50", Percentile(rep.report_us, 0.50), "us"},
      {"apply.report_us_p99", Percentile(rep.report_us, 0.99), "us"},
      {"apply.busy_frac", Ratio(static_cast<double>(rep.apply_ns), wall),
       "fraction"},
      {"apply.reactivated", static_cast<double>(rep.reactivated), "count"},
      {"u2u.collect_us_p50", Percentile(rep.collect_us, 0.50), "us"},
      {"u2u.collect_us_p99", Percentile(rep.collect_us, 0.99), "us"},
      {"u2u.busy_frac", Ratio(static_cast<double>(rep.u2u_ns), wall),
       "fraction"},
      {"u2u.scanned_per_task", Ratio(static_cast<double>(rep.scanned), tasks),
       "count"},
      {"u2u.admit_frac",
       Ratio(static_cast<double>(rep.candidates),
             static_cast<double>(rep.scanned)),
       "fraction"},
      {"u2u.band_evals_per_task",
       Ratio(static_cast<double>(rep.band_evals), tasks), "count"},
      {"u2u.gather_bytes_per_task",
       Ratio(static_cast<double>(rep.gather_bytes), tasks), "B"},
      {"u2e.rank_us_p50", Percentile(rep.rank_us, 0.50), "us"},
      {"u2e.rank_us_p99", Percentile(rep.rank_us, 0.99), "us"},
      {"u2e.busy_frac", Ratio(static_cast<double>(rep.u2e_ns), wall),
       "fraction"},
      {"u2e.ns_per_candidate",
       Ratio(static_cast<double>(rep.u2e_ns),
             static_cast<double>(rep.candidates)),
       "ns"},
      {"u2e.used_frac",
       Ratio(static_cast<double>(rep.disclosures),
             static_cast<double>(rep.candidates)),
       "fraction"},
      {"e2e.contact_us_p50", Percentile(rep.contact_us, 0.50), "us"},
      {"e2e.busy_frac", Ratio(static_cast<double>(rep.e2e_ns), wall),
       "fraction"},
      {"e2e.accept_frac",
       Ratio(static_cast<double>(rep.accepted),
             static_cast<double>(rep.disclosures)),
       "fraction"},
      {"e2e.cancel_frac",
       Ratio(static_cast<double>(rep.cancelled),
             static_cast<double>(rep.contacted_tasks)),
       "fraction"},
      {"trace.unattributed_frac", unattributed, "fraction"},
      {"trace.overhead_frac", Ratio(wall * 1e-9, service_replay_s) - 1.0,
       "fraction"},
  };
  PrintResult(correct, live.attempted,
              live.refused + (live.attempted - live.completed), metrics);
  return correct ? 0 : 1;
}

int Main(int argc, char** argv) {
  Options opts;
  Kind kind = Kind::kRush;
  if (!ParseArgs(argc, argv, opts) || !ParseKind(opts.workload, kind)) {
    std::fprintf(stderr,
                 "usage: svcbench --workload %s|%s --seed N --seconds S "
                 "--trace 0|1 [--workers N] [--trace-out PATH]\n",
                 kRushName, kStreamName);
    return 2;
  }
  scg::obs::SetConfig(scg::obs::ObsConfig{});  // Obs and recorder off.
  // Keep freed memory in the heap: repeated set-ups then rebuild into pages
  // the process already touched, so they time the build work instead of
  // the host's first-touch page faults, which vary run to run on a VM.
  mallopt(M_MMAP_THRESHOLD, 1 << 30);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());

  const uint64_t gen_start = NowNs();
  const Inputs in = MakeInputs(kind, opts.seed, opts.seconds, opts.workers);
  const scg::reachability::AnalyticalModel model(kPrivacy, kPrivacy);
  const scg::service::ServiceConfig config = MakeServiceConfig(model);
  std::printf("%s seed=%" PRIu64 " workers=%zu tasks=%zu reports=%zu "
              "rounds=%zu trace=%d (inputs generated in %.3f s)\n",
              opts.workload.c_str(), opts.seed, in.workers.size(),
              in.tasks.size(), in.reports.size(), in.rounds.size(),
              opts.trace,
              static_cast<double>(NowNs() - gen_start) * 1e-9);
  return opts.trace == 1 ? RunTraced(in, config, opts.trace_out)
                         : RunEndToEnd(in, config);
}

}  // namespace
}  // namespace svcbench

int main(int argc, char** argv) { return svcbench::Main(argc, argv); }
