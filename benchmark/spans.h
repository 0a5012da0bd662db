#ifndef KUCNET_BENCHMARK_SPANS_H_
#define KUCNET_BENCHMARK_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

/// \file
/// The traced run's span recorder. Spans are recorded by the benchmark
/// around its own calls into the library's public functions (the library
/// itself is not instrumented for this), kept in memory, and written out as
/// Chrome trace-event JSON when the run ends.

namespace kbench {

struct Span {
  int64_t id = 0;
  int64_t parent = -1;   ///< -1 = root
  int64_t request = -1;  ///< request id shared by a request's spans
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Single-threaded recorder: the traced replay makes one call at a time.
class SpanRecorder {
 public:
  SpanRecorder();

  /// Opens a span; returns its id.
  int64_t Begin(std::string name, int64_t request, int64_t parent);
  /// Closes span `id`; returns its duration in nanoseconds.
  int64_t End(int64_t id);

  /// Opens on construction, closes on End() or destruction.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, std::string name, int64_t request,
          int64_t parent)
        : recorder_(recorder),
          id_(recorder.Begin(std::move(name), request, parent)) {}
    ~Scope() {
      if (open_) recorder_.End(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    int64_t id() const { return id_; }
    /// Closes the span now; returns its duration in microseconds.
    double EndMicros() {
      open_ = false;
      return static_cast<double>(recorder_.End(id_)) * 1e-3;
    }

   private:
    SpanRecorder& recorder_;
    int64_t id_;
    bool open_ = true;
  };

  /// Self time of every span (its duration minus the union of its direct
  /// children's intervals), in microseconds, grouped by span name.
  std::map<std::string, std::vector<double>> SelfMicrosByName() const;

  /// Mean cost of one Begin/End pair in nanoseconds, measured on a scratch
  /// recorder so this one's spans are untouched.
  static double OverheadNanosPerSpan();

  int64_t size() const { return static_cast<int64_t>(spans_.size()); }

  /// Writes Chrome trace-event JSON ("X" events, microsecond timestamps;
  /// request and parent ids in args). Returns false on an I/O error.
  bool WriteChromeJson(const std::string& path) const;

 private:
  int64_t NowNanos() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace kbench

#endif  // KUCNET_BENCHMARK_SPANS_H_
