#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <vector>

#include "obs/obs_config.h"
#include "obs/recorder.h"
#include "obs/trace_export.h"
#include "sim/defaults.h"
#include "sim/dynamic.h"
#include "sim/experiment.h"
#include "sim/table_printer.h"

namespace scguard::sim {
namespace {

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table("Demo", {"name", "value"});
  table.AddRow({"a", "1"});
  table.AddRow({"longer-name", "2"});
  std::ostringstream os;
  table.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("Demo"), std::string::npos);
  EXPECT_NE(out.find("longer-name"), std::string::npos);
  // Header and rows share the same width => same line length.
  std::istringstream lines(out);
  std::string line;
  size_t width = 0;
  int data_lines = 0;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] != '|') continue;
    if (width == 0) width = line.size();
    EXPECT_EQ(line.size(), width);
    ++data_lines;
  }
  EXPECT_EQ(data_lines, 3);  // Header + 2 rows.
}

TEST(TablePrinterTest, PrintJsonEmitsOneObject) {
  TablePrinter table("Demo \"quoted\"", {"name", "value"});
  table.AddRow({"a", "1"});
  table.AddRow({"b\\c", "2"});
  std::ostringstream os;
  table.PrintJson(os);
  EXPECT_EQ(os.str(),
            "{\"title\":\"Demo \\\"quoted\\\"\",\"columns\":[\"name\","
            "\"value\"],\"rows\":[[\"a\",\"1\"],[\"b\\\\c\",\"2\"]]}\n");
}

TEST(TablePrinterTest, NumericRowFormatting) {
  TablePrinter table("Numbers", {"label", "x", "y"});
  table.AddRow("row", {1.234, 5.0}, 1);
  std::ostringstream os;
  table.Print(os);
  EXPECT_NE(os.str().find("1.2"), std::string::npos);
  EXPECT_NE(os.str().find("5.0"), std::string::npos);
}

TEST(AggregateTest, MeansOverRuns) {
  assign::RunMetrics a, b;
  a.num_tasks = b.num_tasks = 10;
  a.assigned_tasks = 4;
  b.assigned_tasks = 6;
  a.accepted_assignments = 4;
  b.accepted_assignments = 6;
  a.travel_sum_m = 4000;  // Mean 1000.
  b.travel_sum_m = 12000; // Mean 2000.
  a.false_hits = 2;
  b.false_hits = 4;
  const AggregatedMetrics agg = Aggregate({a, b});
  EXPECT_EQ(agg.seeds, 2);
  EXPECT_DOUBLE_EQ(agg.assigned_tasks, 5.0);
  EXPECT_DOUBLE_EQ(agg.travel_m, 1500.0);
  EXPECT_DOUBLE_EQ(agg.false_hits, 3.0);
}

TEST(AggregateTest, EmptyIsZero) {
  const AggregatedMetrics agg = Aggregate({});
  EXPECT_EQ(agg.seeds, 0);
  EXPECT_DOUBLE_EQ(agg.assigned_tasks, 0.0);
}

ExperimentConfig TinyConfig() {
  ExperimentConfig config;
  config.synth.num_taxis = 300;
  config.synth.mean_trips_per_taxi = 6.0;
  config.workload.num_workers = 50;
  config.workload.num_tasks = 50;
  config.num_seeds = 3;
  return config;
}

TEST(ExperimentRunnerTest, CreateRejectsBadSeeds) {
  ExperimentConfig config = TinyConfig();
  config.num_seeds = 0;
  EXPECT_FALSE(ExperimentRunner::Create(config).ok());
}

TEST(ExperimentRunnerTest, WorkloadsAreDeterministicPerSeed) {
  const auto runner = ExperimentRunner::Create(TinyConfig());
  ASSERT_TRUE(runner.ok());
  const privacy::PrivacyParams params = DefaultPrivacy();
  const auto w1 = runner->MakeWorkload(0, params, params);
  const auto w2 = runner->MakeWorkload(0, params, params);
  ASSERT_TRUE(w1.ok() && w2.ok());
  ASSERT_EQ(w1->workers.size(), w2->workers.size());
  for (size_t i = 0; i < w1->workers.size(); ++i) {
    EXPECT_EQ(w1->workers[i].location, w2->workers[i].location);
    EXPECT_EQ(w1->workers[i].noisy_location, w2->workers[i].noisy_location);
  }
  const auto w3 = runner->MakeWorkload(1, params, params);
  ASSERT_TRUE(w3.ok());
  EXPECT_NE(w1->workers[0].location, w3->workers[0].location);
}

TEST(ExperimentRunnerTest, TrueWorkloadSharedAcrossPrivacyLevels) {
  // Common random numbers: sweeping (eps, r) must not change the sampled
  // true locations, only the noise.
  const auto runner = ExperimentRunner::Create(TinyConfig());
  ASSERT_TRUE(runner.ok());
  const auto strict = runner->MakeWorkload(0, {0.1, 2000.0}, {0.1, 2000.0});
  const auto loose = runner->MakeWorkload(0, {1.0, 200.0}, {1.0, 200.0});
  ASSERT_TRUE(strict.ok() && loose.ok());
  for (size_t i = 0; i < strict->workers.size(); ++i) {
    EXPECT_EQ(strict->workers[i].location, loose->workers[i].location);
  }
  // More noise on average under the stricter level.
  double strict_noise = 0, loose_noise = 0;
  for (size_t i = 0; i < strict->workers.size(); ++i) {
    strict_noise +=
        geo::Distance(strict->workers[i].location, strict->workers[i].noisy_location);
    loose_noise +=
        geo::Distance(loose->workers[i].location, loose->workers[i].noisy_location);
  }
  EXPECT_GT(strict_noise, loose_noise * 3);
}

TEST(ExperimentRunnerTest, RunAggregatesAcrossSeeds) {
  const auto runner = ExperimentRunner::Create(TinyConfig());
  ASSERT_TRUE(runner.ok());
  assign::MatcherHandle handle =
      assign::MakeGroundTruth(assign::RankStrategy::kNearest);
  const auto agg = runner->Run(handle, DefaultPrivacy(), DefaultPrivacy());
  ASSERT_TRUE(agg.ok());
  EXPECT_EQ(agg->seeds, 3);
  EXPECT_GT(agg->assigned_tasks, 0.0);
  EXPECT_LE(agg->assigned_tasks, 50.0);
  EXPECT_GT(agg->travel_m, 0.0);
}

TEST(ExperimentRunnerTest, GroundTruthDominatesOblivious) {
  // The structural headline of the paper's evaluation: exact locations
  // upper-bound the oblivious baseline's utility.
  const auto runner = ExperimentRunner::Create(TinyConfig());
  ASSERT_TRUE(runner.ok());
  const privacy::PrivacyParams params{0.4, 1400.0};  // Noticeable noise.
  assign::MatcherHandle exact =
      assign::MakeGroundTruth(assign::RankStrategy::kNearest);
  assign::AlgorithmParams aparams;
  aparams.worker_params = params;
  aparams.task_params = params;
  assign::MatcherHandle oblivious =
      assign::MakeOblivious(assign::RankStrategy::kNearest, aparams);
  const auto exact_agg = runner->Run(exact, params, params);
  const auto obl_agg = runner->Run(oblivious, params, params);
  ASSERT_TRUE(exact_agg.ok() && obl_agg.ok());
  EXPECT_GT(exact_agg->assigned_tasks, obl_agg->assigned_tasks);
}

sim::DynamicConfig TinyDynamic() {
  DynamicConfig config;
  config.rounds = 4;
  config.num_workers = 80;
  config.tasks_per_round = 30;
  return config;
}

TEST(DynamicWorkersTest, ProducesOneRecordPerRound) {
  const auto rounds =
      RunDynamicWorkers(TinyDynamic(), ReportingStrategy::kNaiveRefresh);
  ASSERT_EQ(rounds.size(), 4u);
  for (size_t i = 0; i < rounds.size(); ++i) {
    EXPECT_EQ(rounds[i].round, static_cast<int>(i));
    EXPECT_GE(rounds[i].assigned, 0.0);
    EXPECT_LE(rounds[i].assigned, 30.0);
  }
}

TEST(DynamicWorkersTest, NaiveRefreshComposesEpsilonLinearly) {
  const auto config = TinyDynamic();
  const auto rounds =
      RunDynamicWorkers(config, ReportingStrategy::kNaiveRefresh);
  for (size_t i = 0; i < rounds.size(); ++i) {
    EXPECT_NEAR(rounds[i].effective_epsilon,
                config.joint.epsilon * static_cast<double>(i + 1), 1e-9);
  }
}

TEST(DynamicWorkersTest, ReportOnceKeepsEpsilonFixedButGoesStale) {
  const auto config = TinyDynamic();
  const auto rounds = RunDynamicWorkers(config, ReportingStrategy::kReportOnce);
  for (const auto& r : rounds) {
    EXPECT_DOUBLE_EQ(r.effective_epsilon, config.joint.epsilon);
  }
  // Staleness: report error in the last round exceeds the first round's.
  EXPECT_GT(rounds.back().report_error_m, rounds.front().report_error_m);
}

TEST(DynamicWorkersTest, LocationSetSplitHonorsJointBudget) {
  const auto config = TinyDynamic();
  const auto rounds =
      RunDynamicWorkers(config, ReportingStrategy::kLocationSetSplit);
  EXPECT_NEAR(rounds.back().effective_epsilon, config.joint.epsilon, 1e-9);
  // The split noise is far larger than a full-budget report's.
  const auto naive = RunDynamicWorkers(config, ReportingStrategy::kNaiveRefresh);
  EXPECT_GT(rounds.front().report_error_m, 2.0 * naive.front().report_error_m);
}

// The dynamic sim runs its tasks through the service's per-task pipeline,
// so its audit trail reconciles like the service's: one disclosure per
// contacted worker (each accepts or is a false hit), each naming the U2U
// filter that admitted it.
TEST(DynamicWorkersTest, AuditTrailCountsEveryDisclosureWithItsFilter) {
  const obs::ObsConfig saved{obs::Enabled(), obs::RecorderEnabled(),
                             obs::AuditFullEnabled()};
  obs::ObsConfig config;
  config.recorder = true;
  obs::SetConfig(config);
  obs::FlightRecorder::Global().Reset();
  const auto rounds =
      RunDynamicWorkers(TinyDynamic(), ReportingStrategy::kNaiveRefresh);
  const std::vector<obs::TraceEvent> events =
      obs::FlightRecorder::Global().Drain();
  obs::FlightRecorder::Global().Reset();
  obs::SetConfig(saved);

  double contacted = 0;
  for (const auto& r : rounds) contacted += r.assigned + r.false_hits;
  const obs::AuditTotals totals = obs::SummarizeAudit(events);
  EXPECT_GT(totals.e2e_disclosures, 0);
  EXPECT_EQ(static_cast<double>(totals.e2e_disclosures), contacted);
  int64_t unattributed = 0;
  for (const obs::TraceEvent& e : events) {
    if (e.type == static_cast<uint8_t>(obs::EventType::kAuditDisclosure) &&
        obs::DisclosureFilter(e.detail) == obs::AuditFilter::kUnknown) {
      ++unattributed;
    }
  }
  EXPECT_EQ(unattributed, 0);
}

TEST(DefaultsTest, PaperParameterGrid) {
  EXPECT_EQ(kEpsilons.size(), 4u);
  EXPECT_EQ(kRadii.size(), 4u);
  EXPECT_EQ(kAlphas.size(), 8u);
  EXPECT_EQ(kBetas.size(), 7u);
  EXPECT_DOUBLE_EQ(DefaultPrivacy().epsilon, 0.7);
  EXPECT_DOUBLE_EQ(DefaultPrivacy().radius_m, 800.0);
  // Paper Sec. V-A: the default alpha is below the default beta, and the
  // beta sweep never goes below the default alpha.
  EXPECT_LT(kDefaultAlpha, kDefaultBeta);
  for (double b : kBetas) EXPECT_GE(b, kDefaultAlpha - 1e-12);
}

}  // namespace
}  // namespace scguard::sim
