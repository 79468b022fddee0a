#include "obs/span.h"

#include <string>

#include "obs/obs_config.h"
#include "obs/recorder.h"

namespace scguard::obs {
namespace {

using Clock = std::chrono::steady_clock;

uint64_t ToNs(Clock::time_point t) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          t.time_since_epoch())
          .count());
}

double Seconds(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

void Emit(const SpanSite& site, EventType type, Clock::time_point t) {
  FlightRecorder::Global().EmitAt(
      ToNs(t), {.name_id = site.name_id(), .type = static_cast<uint8_t>(type)});
}

}  // namespace

SpanSite::SpanSite(std::string_view label)
    : name_id_(FlightRecorder::Global().InternName(label)),
      histogram_(MetricsRegistry::Global().GetHistogram(
          "scguard." + std::string(label) + "_seconds")) {}

void RecordSpan(const SpanSite& site, Clock::time_point begin,
                Clock::time_point end) {
  if (Enabled()) site.histogram()->Observe(Seconds(begin, end));
  if (RecorderEnabled()) {
    Emit(site, EventType::kSpanBegin, begin);
    Emit(site, EventType::kSpanEnd, end);
  }
}

Span::Span(const SpanSite& site)
    : site_(site), observe_(Enabled()), record_(RecorderEnabled()) {
  if (!observe_ && !record_) return;
  begin_ = Clock::now();
  if (record_) Emit(site_, EventType::kSpanBegin, begin_);
}

Span::~Span() {
  if (!observe_ && !record_) return;
  const Clock::time_point end = Clock::now();
  if (observe_) site_.histogram()->Observe(Seconds(begin_, end));
  if (record_) Emit(site_, EventType::kSpanEnd, end);
}

}  // namespace scguard::obs
