#include "obs/export.h"

#include "obs/recorder.h"

namespace scguard::obs {

std::string SnapshotJson() {
  const std::string metrics_json =
      MetricsRegistry::Global().Snapshot().ToJson();
  // Splice the registry object open to prepend `enabled` — metrics_json is
  // always "{...}".
  return std::string("{\"enabled\":") + (Enabled() ? "true" : "false") +
         ',' + metrics_json.substr(1);
}

std::string PrometheusText() {
  return MetricsRegistry::Global().Snapshot().ToPrometheus();
}

void ResetGlobal() {
  MetricsRegistry::Global().ResetAll();
  FlightRecorder::Global().Reset();
}

}  // namespace scguard::obs
