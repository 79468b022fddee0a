#include "workloads.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "data/beijing.h"
#include "data/trip_model.h"
#include "privacy/mechanism.h"
#include "stats/rng.h"

namespace svcbench {
namespace {

/// The hotspot layout of the stream's city is fixed, so a seed varies the
/// sampled population and traffic but not the map: a seed whose densest
/// hotspot happened to be 5x tighter would otherwise change the per-task
/// work by an order of magnitude.
constexpr uint64_t kCityLayoutSeed = 2018;
constexpr int kCityHotspots = 24;

/// Independent streams forked off the run seed, one per input family.
enum Stream : uint64_t {
  kWorkerPlacement = 1,
  kWorkerNoise = 2,
  kTaskPlacement = 3,
  kTaskNoise = 4,
  kArrivals = 5,
  kReports = 6,
};

uint64_t SecondsToNs(double s) {
  return static_cast<uint64_t>(std::llround(s * 1e9));
}

}  // namespace

bool ParseKind(const std::string& name, Kind& kind) {
  if (name == kRushName) {
    kind = Kind::kRush;
    return true;
  }
  if (name == kStreamName) {
    kind = Kind::kStream;
    return true;
  }
  return false;
}

Inputs MakeInputs(Kind kind, uint64_t seed, double seconds,
                  int64_t num_workers) {
  SCGUARD_CHECK(seconds > 0.0);
  const scg::geo::BoundingBox region = scg::data::BeijingRegion();
  const scg::stats::Rng root(seed);
  const auto mech = scg::privacy::MakeMechanismOrDie(kPrivacy, region);

  Inputs in;
  in.kind = kind;
  const bool rush = kind == Kind::kRush;
  if (num_workers <= 0) num_workers = rush ? kRushWorkers : kStreamWorkers;

  scg::stats::Rng city_rng(kCityLayoutSeed);
  const scg::data::HotspotMixture city =
      scg::data::HotspotMixture::MakeBeijingLike(region, kCityHotspots,
                                                 city_rng);
  auto place = [&](scg::stats::Rng& rng) -> scg::geo::Point {
    if (!rush) return city.Sample(rng);
    return {rng.UniformDouble(region.min_x, region.max_x),
            rng.UniformDouble(region.min_y, region.max_y)};
  };

  // Workers.
  {
    scg::stats::Rng rng = root.Fork(kWorkerPlacement);
    scg::stats::Rng noise = root.Fork(kWorkerNoise);
    in.workers.resize(static_cast<size_t>(num_workers));
    for (size_t i = 0; i < in.workers.size(); ++i) {
      scg::assign::Worker& w = in.workers[i];
      w.id = static_cast<int64_t>(i);
      w.location = place(rng);
      w.reach_radius_m = rush ? rng.UniformDouble(1000.0, 3000.0)
                              : 1000.0 * static_cast<double>(
                                             1 + rng.UniformInt(3));
      w.noisy_location = mech->Perturb(w.location, noise);
    }
  }

  // Tasks: contiguous slices of round_tasks, one per round.
  const size_t num_rounds = rush ? kRushRounds : kStreamRounds;
  const double round_seconds = seconds / static_cast<double>(num_rounds);
  const size_t round_tasks = static_cast<size_t>(std::max<long long>(
      1, std::llround(rush ? kRushRoundTasksPerSecond * seconds
                           : kStreamTaskRate * round_seconds)));
  const size_t num_tasks = num_rounds * round_tasks;
  {
    scg::stats::Rng rng = root.Fork(kTaskPlacement);
    scg::stats::Rng noise = root.Fork(kTaskNoise);
    in.tasks.resize(num_tasks);
    for (size_t i = 0; i < num_tasks; ++i) {
      scg::assign::Task& t = in.tasks[i];
      t.id = static_cast<int64_t>(i);
      t.arrival_seq = static_cast<int64_t>(i);
      t.location = place(rng);
      t.noisy_location = mech->Perturb(t.location, noise);
    }
  }

  if (rush) {
    // Every task due at its round's start.
    for (size_t r = 0; r < num_rounds; ++r) {
      std::vector<Event>& round = in.rounds.emplace_back();
      for (size_t i = r * round_tasks; i < (r + 1) * round_tasks; ++i) {
        round.push_back({0, true, static_cast<uint32_t>(i)});
      }
    }
    return in;
  }

  // Stream rounds. Each round starts from the registered population, as
  // its service does.
  scg::stats::Rng arrivals = root.Fork(kArrivals);
  scg::stats::Rng moves = root.Fork(kReports);
  const size_t round_reports = static_cast<size_t>(std::max<long long>(
      1, std::llround(kStreamReportRate * round_seconds)));
  const double spacing = round_seconds / static_cast<double>(round_reports);
  std::vector<scg::geo::Point> at(in.workers.size());
  in.reports.reserve(num_rounds * round_reports);
  for (size_t r = 0; r < num_rounds; ++r) {
    std::vector<Event>& schedule = in.rounds.emplace_back();
    // A Poisson process conditioned on its count: the task due times are
    // sorted uniform draws over the round, so every seed offers exactly
    // round_tasks tasks over exactly round_seconds.
    std::vector<double> due(round_tasks);
    for (double& d : due) d = arrivals.UniformDouble(0.0, round_seconds);
    std::sort(due.begin(), due.end());
    for (size_t i = 0; i < round_tasks; ++i) {
      schedule.push_back({SecondsToNs(due[i]), true,
                          static_cast<uint32_t>(r * round_tasks + i)});
    }
    // Re-reports, evenly spaced between the arrivals: a random worker takes
    // a Gaussian 100 m step and reports it with fresh Geo-I noise.
    for (size_t i = 0; i < at.size(); ++i) at[i] = in.workers[i].location;
    for (size_t j = 0; j < round_reports; ++j) {
      Report& rep = in.reports.emplace_back();
      rep.worker = static_cast<uint32_t>(moves.UniformInt(at.size()));
      scg::geo::Point& p = at[rep.worker];
      p.x += moves.Gaussian(0.0, 100.0);
      p.y += moves.Gaussian(0.0, 100.0);
      rep.exact = p;
      rep.noisy = mech->Perturb(p, moves);
      schedule.push_back(
          {SecondsToNs((static_cast<double>(j) + 0.5) * spacing), false,
           static_cast<uint32_t>(in.reports.size() - 1)});
    }
    std::stable_sort(schedule.begin(), schedule.end(),
                     [](const Event& a, const Event& b) {
                       return a.due_ns < b.due_ns;
                     });
  }
  return in;
}

scg::service::ServiceConfig MakeServiceConfig(
    const scg::reachability::ReachabilityModel& model) {
  scg::service::ServiceConfig config;
  config.u2u_model = &model;
  config.u2e_model = &model;
  config.alpha = 0.1;
  config.beta = 0.25;
  config.beta_mode = scg::assign::BetaMode::kEveryContact;
  config.rank = scg::assign::RankStrategy::kProbability;
  config.pruning_gamma = 0.9;
  config.pruning_backend = scg::index::PrunerBackend::kGrid;
  config.worker_params = kPrivacy;
  config.task_params = kPrivacy;
  config.region = scg::data::BeijingRegion();
  return config;
}

}  // namespace svcbench
