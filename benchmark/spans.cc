#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace kbench {

SpanRecorder::SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

int64_t SpanRecorder::NowNanos() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int64_t SpanRecorder::Begin(std::string name, int64_t request,
                            int64_t parent) {
  Span span;
  span.id = static_cast<int64_t>(spans_.size());
  span.parent = parent;
  span.request = request;
  span.name = std::move(name);
  span.start_ns = NowNanos();
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

int64_t SpanRecorder::End(int64_t id) {
  Span& span = spans_[static_cast<size_t>(id)];
  span.end_ns = NowNanos();
  return span.end_ns - span.start_ns;
}

std::map<std::string, std::vector<double>> SpanRecorder::SelfMicrosByName()
    const {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<size_t>(span.parent)].push_back(
          {span.start_ns, span.end_ns});
    }
  }
  std::map<std::string, std::vector<double>> out;
  for (const Span& span : spans_) {
    auto& kids = children[static_cast<size_t>(span.id)];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent.
    int64_t covered = 0;
    int64_t cursor = span.start_ns;
    for (const auto& [start, end] : kids) {
      const int64_t lo = std::max(start, cursor);
      const int64_t hi = std::min(end, span.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    out[span.name].push_back(
        static_cast<double>(span.end_ns - span.start_ns - covered) * 1e-3);
  }
  return out;
}

double SpanRecorder::OverheadNanosPerSpan() {
  constexpr int kSpans = 20000;
  SpanRecorder scratch;
  scratch.spans_.reserve(kSpans);
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kSpans; ++i) scratch.End(scratch.Begin("probe", i, -1));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                 .count()) /
         kSpans;
}

bool SpanRecorder::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"span\": %lld, "
                 "\"parent\": %lld, \"request\": %lld}}%s\n",
                 s.name.c_str(), static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                 static_cast<long long>(s.id), static_cast<long long>(s.parent),
                 static_cast<long long>(s.request),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace kbench
