#include "runtime/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <vector>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/span.h"
#include "runtime/task_group.h"

namespace scguard::runtime {

Status ParallelFor(ThreadPool* pool, int64_t begin, int64_t end,
                   int64_t grain,
                   const std::function<Status(int64_t, int64_t)>& fn) {
  if (begin >= end) return Status::OK();
  SCGUARD_CHECK(grain > 0);
  const int64_t num_chunks = (end - begin + grain - 1) / grain;

  // Function-local statics: the registry lookup happens once per process,
  // updates are no-ops while observability is disabled.
  static obs::Counter* const chunks_counter =
      obs::MetricsRegistry::Global().GetCounter(
          "scguard.runtime.parallel_for.chunks");
  static obs::Counter* const serial_counter =
      obs::MetricsRegistry::Global().GetCounter(
          "scguard.runtime.parallel_for.serial_sections");
  static obs::Counter* const parallel_counter =
      obs::MetricsRegistry::Global().GetCounter(
          "scguard.runtime.parallel_for.parallel_sections");
  static obs::Counter* const nested_serial_counter =
      obs::MetricsRegistry::Global().GetCounter(
          "scguard.runtime.parallel_for.nested_serial_sections");
  chunks_counter->Increment(num_chunks);
  // A span per invocation plus a chunk-count sample, so a Perfetto trace
  // shows where the fan-outs sit inside the engine's stage spans. Both are
  // no-op branches while obs and the recorder are off.
  static const obs::SpanSite span_site("runtime.parallel_for");
  static const uint16_t rec_chunks_id =
      obs::FlightRecorder::Global().InternName(
          "runtime.parallel_for.num_chunks");
  const obs::Span span(span_site);
  obs::EmitCounter(rec_chunks_id, num_chunks);
  const auto chunk_bounds = [&](int64_t c) {
    const int64_t lo = begin + c * grain;
    return std::pair<int64_t, int64_t>{lo, std::min(end, lo + grain)};
  };

  const bool serial = pool == nullptr || pool->num_threads() <= 1 ||
                      num_chunks == 1 || ThreadPool::InWorkerThread();
  if (serial) {
    serial_counter->Increment();
    // Sections the nesting guard demoted — they *would* have fanned out
    // (multi-thread pool, multiple chunks) but the caller already runs on
    // a pool worker. A large count flags an orchestration layer eating the
    // parallelism of the layer below (e.g. ExperimentRunner's seed fan-out
    // serializing the engine's shard scan; DESIGN.md section 9).
    if (ThreadPool::InWorkerThread() && pool != nullptr &&
        pool->num_threads() > 1 && num_chunks > 1) {
      nested_serial_counter->Increment();
    }
    for (int64_t c = 0; c < num_chunks; ++c) {
      const auto [lo, hi] = chunk_bounds(c);
      // Early exit is safe: the first failure is by definition the
      // lowest-indexed one, matching the parallel path's reduction.
      SCGUARD_RETURN_NOT_OK(fn(lo, hi));
    }
    return Status::OK();
  }

  parallel_counter->Increment();

  // Dynamic chunk claiming: threads race for chunk indices, but every
  // result lands in its chunk's slot, so the reduction below is
  // schedule-independent.
  std::vector<Status> statuses(static_cast<size_t>(num_chunks));
  std::atomic<int64_t> next{0};
  const auto drain = [&]() -> Status {
    for (int64_t c = next.fetch_add(1, std::memory_order_relaxed);
         c < num_chunks; c = next.fetch_add(1, std::memory_order_relaxed)) {
      const auto [lo, hi] = chunk_bounds(c);
      statuses[static_cast<size_t>(c)] = fn(lo, hi);
    }
    return Status::OK();
  };

  {
    TaskGroup group(*pool);
    const int64_t helpers =
        std::min<int64_t>(pool->num_threads(), num_chunks - 1);
    for (int64_t i = 0; i < helpers; ++i) group.Run(drain);
    drain();  // The caller works too instead of idling in Wait.
    group.Wait();
  }

  for (const Status& st : statuses) {
    if (!st.ok()) return st;
  }
  return Status::OK();
}

}  // namespace scguard::runtime
