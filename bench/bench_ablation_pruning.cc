// Ablation of the paper's Sec. IV-C1 U2U pruning: effect of the index
// backend and confidence gamma on runtime and on result fidelity (pruning
// with finite gamma may drop low-probability candidates the threshold
// alpha would have kept). Exits non-zero when the grid and the linear MBR
// scan disagree at the same gamma: both compute the same rectangle
// intersection, so their utility, overhead and recall must match exactly.

#include <chrono>
#include <iostream>

#include "bench/bench_common.h"

namespace scguard::bench {
namespace {

int Main() {
  sim::ExperimentConfig config = PaperConfig();
  config.num_seeds = 5;
  const auto runner = OrDie(sim::ExperimentRunner::Create(config));
  const privacy::PrivacyParams p{0.7, 800.0};

  sim::TablePrinter table(
      "Pruning ablation (eps=0.7, r=800, alpha=0.1)",
      {"configuration", "utility", "overhead", "recall", "runtime (ms/run)",
       "cells bulk", "cells skip", "boundary wkrs"});

  auto report = [&](const std::string& name,
                    std::optional<double> gamma,
                    index::PrunerBackend backend) {
    assign::AlgorithmParams params = MakeParams(p);
    params.pruning_gamma = gamma;
    params.pruning_backend = backend;
    assign::MatcherHandle handle = assign::MakeProbabilisticModel(params);
    const auto start = std::chrono::steady_clock::now();
    const auto agg = OrDie(runner.Run(handle, p, p));
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count() /
        config.num_seeds;
    // The cell counters separate the two ways the grid query avoids work:
    // bulk-accepted cells skip the per-member box tests entirely, skipped
    // cells never touch their members, and boundary_workers counts the
    // members that still needed the per-member test (zero for the linear
    // scan).
    table.AddRow(name,
                 {agg.assigned_tasks, agg.candidates, agg.recall, elapsed_ms,
                  agg.cells_bulk_accepted, agg.cells_skipped,
                  agg.boundary_workers},
                 2);
    return agg;
  };

  report("no pruning (full scan)", std::nullopt, index::PrunerBackend::kGrid);
  sim::AggregatedMetrics grid_90;
  for (double gamma : {0.5, 0.9, 0.99}) {
    const sim::AggregatedMetrics agg = report(
        StrCat("grid, gamma=", gamma), gamma, index::PrunerBackend::kGrid);
    if (gamma == 0.9) grid_90 = agg;
  }
  const sim::AggregatedMetrics linear_90 = report(
      "linear MBR scan, gamma=0.9", 0.9, index::PrunerBackend::kLinearScan);
  table.Print(std::cout);
  if (grid_90.assigned_tasks != linear_90.assigned_tasks ||
      grid_90.candidates != linear_90.candidates ||
      grid_90.recall != linear_90.recall) {
    std::cerr << "pruning ablation: grid and linear rows differ at gamma=0.9"
                 " (utility "
              << grid_90.assigned_tasks << " vs " << linear_90.assigned_tasks
              << ", overhead " << grid_90.candidates << " vs "
              << linear_90.candidates << ", recall " << grid_90.recall
              << " vs " << linear_90.recall << ")\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace scguard::bench

int main() { return scguard::bench::Main(); }
