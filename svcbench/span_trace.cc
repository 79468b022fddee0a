#include "span_trace.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>

namespace svcbench {

std::vector<SpanTrace::Summary> SpanTrace::Summarize() const {
  std::vector<Summary> out;
  // Span names are static strings, so a pointer compare finds the slot.
  std::vector<const char*> keys;
  auto slot = [&](const char* name) -> Summary& {
    for (size_t i = 0; i < keys.size(); ++i) {
      if (keys[i] == name || std::strcmp(keys[i], name) == 0) return out[i];
    }
    keys.push_back(name);
    out.push_back({name, 0, 0, 0});
    return out.back();
  };
  std::vector<uint64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent != kNoParent) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Summary& sum = slot(s.name);
    const uint64_t dur = s.end_ns - s.start_ns;
    sum.spans += 1;
    sum.total_ns += dur;
    sum.self_ns += dur - std::min(dur, child_ns[i]);
  }
  return out;
}

bool SpanTrace::WriteChromeJson(const std::string& path,
                                uint64_t origin_ns) const {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f.get());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double ts_us =
        static_cast<double>(static_cast<int64_t>(s.start_ns - origin_ns)) *
        1e-3;
    const double dur_us = static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
    std::fprintf(f.get(),
                 "%s{\"name\":\"%s\",\"cat\":\"svcbench\",\"ph\":\"X\","
                 "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                 "\"span\":%zu,\"parent\":%d,\"task_id\":%lld,"
                 "\"calls\":%lld}}",
                 i == 0 ? "" : ",\n", s.name, ts_us, dur_us, i, s.parent,
                 static_cast<long long>(s.task_id),
                 static_cast<long long>(s.count));
  }
  std::fputs("\n]}\n", f.get());
  return std::ferror(f.get()) == 0;
}

}  // namespace svcbench
