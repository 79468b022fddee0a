#ifndef SCGUARD_OBS_EXPORT_H_
#define SCGUARD_OBS_EXPORT_H_

#include <string>

#include "obs/metrics.h"

namespace scguard::obs {

/// One JSON object covering the whole metrics state — the `metrics` block
/// benches embed in `BENCH_<name>.json`:
///   {"enabled":true,"counters":{...},"gauges":{...},"histograms":{...}}
/// Span timings are the `scguard.<label>_seconds` histograms (span.h).
std::string SnapshotJson();

/// Prometheus text exposition of the global registry.
std::string PrometheusText();

/// Zeroes the global registry and drains the flight recorder. Benches call
/// this between phases to report per-phase deltas; tests call it for
/// isolation.
void ResetGlobal();

}  // namespace scguard::obs

#endif  // SCGUARD_OBS_EXPORT_H_
