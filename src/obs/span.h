#ifndef SCGUARD_OBS_SPAN_H_
#define SCGUARD_OBS_SPAN_H_

#include <chrono>
#include <cstdint>
#include <string_view>

#include "obs/metrics.h"

namespace scguard::obs {

/// The one span mechanism (DESIGN.md §7). A timed region is reported in two
/// places: one observation of the histogram `scguard.<label>_seconds` while
/// Enabled(), and one flight-recorder B/E pair named `<label>` while
/// RecorderEnabled(). Nesting is not encoded in names: nested regions show
/// in the trace as enclosed timestamps on the same tid.

/// A span call site, resolved once — `static const obs::SpanSite
/// kSite("engine.u2u");`. Resolving interns the recorder name and fetches
/// the histogram, both under a mutex, so a site is never built per event.
/// Labels are stable literals following `<subsystem>.<region>`.
class SpanSite {
 public:
  explicit SpanSite(std::string_view label);

  uint16_t name_id() const { return name_id_; }
  Histogram* histogram() const { return histogram_; }

 private:
  uint16_t name_id_;
  Histogram* histogram_;
};

/// Reports a region the caller already timed (stage timings it also keeps
/// in RunMetrics): the histogram observes `end - begin`, and the recorder
/// pair carries exactly these timestamps. Reads no clock.
void RecordSpan(const SpanSite& site,
                std::chrono::steady_clock::time_point begin,
                std::chrono::steady_clock::time_point end);

/// RAII form of RecordSpan. Both gates are captured at construction, and
/// the clock is read (once per end) only if one of them was on; a span
/// that emitted its B always emits its E, whatever the gates do meanwhile.
class Span {
 public:
  explicit Span(const SpanSite& site);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const SpanSite& site_;
  bool observe_;
  bool record_;
  std::chrono::steady_clock::time_point begin_;
};

}  // namespace scguard::obs

#endif  // SCGUARD_OBS_SPAN_H_
