#ifndef KUCNET_OBS_METRICS_H_
#define KUCNET_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/clock.h"

/// \file
/// The metrics half of the observability subsystem (see trace.h for spans).
///
/// Every layer of the pipeline — PPR push, subgraph expansion, message
/// passing, the trainer, the serving tiers — reports health through one
/// process-wide `MetricsRegistry` instead of ad-hoc structs. Three metric
/// kinds cover the repo's needs:
///
///   Counter    monotonically increasing event count (requests, cache hits)
///   Gauge      last-written level (queue depth); also available as a
///              callback sampled at snapshot time
///   Histogram  fixed-bucket distribution (latencies), with an explicit
///              +Inf bucket and saturating counts
///
/// Hot paths pay ~one relaxed atomic add: every counter and histogram is
/// striped across `kMetricShards` cache-line-sized cells, each thread writes
/// the cell it was assigned at first use, and the shards are only summed when
/// a snapshot is taken. Snapshots are the read side: `MetricsRegistry::
/// Snapshot()` materializes plain values (`MetricsSnapshot`) that the
/// exporters (export.h) turn into Prometheus text.
///
/// Two switches guarantee zero cost when observability is off:
///  - compile time: building with -DKUCNET_OBS=0 compiles the KUC_OBS_* and
///    KUC_TRACE_SPAN macros to nothing;
///  - run time: `obs::SetEnabled(false)` (the default) reduces every macro to
///    one relaxed atomic load and a predictable branch.
///
/// Time never comes from the OS directly: anything time-dependent reads
/// `obs::ObsClock()`, which tests point at a `FakeClock` via
/// `SetClockForTest`, making every metric and span value deterministic.

#ifndef KUCNET_OBS
#define KUCNET_OBS 1
#endif

namespace kucnet::obs {

/// Number of per-metric shards; a small power of two. More shards = less
/// false sharing under heavy concurrency, more memory per metric.
inline constexpr int kMetricShards = 16;

/// Adds with saturation at the int64 extremes instead of wrapping; the
/// building block that makes long-lived counters and histogram merging
/// overflow-safe.
int64_t SaturatingAdd(int64_t a, int64_t b);

/// Shard index of the calling thread (assigned round-robin at first use, so
/// up to kMetricShards threads write disjoint cache lines).
int ThisThreadShard();

namespace internal {
extern std::atomic<bool> g_enabled;

/// One cache line holding one shard's value.
struct alignas(64) ShardCell {
  std::atomic<int64_t> value{0};
};
}  // namespace internal

/// True when runtime observability is on. A relaxed load — cheap enough for
/// any hot path.
inline bool Enabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}

/// Flips runtime observability. Off by default: a process that never calls
/// this pays one branch per instrumentation point and records nothing.
void SetEnabled(bool enabled);

/// The clock all observability timestamps come from. Defaults to RealClock;
/// `SetClockForTest` swaps in a FakeClock (pass null to restore the default).
const Clock& ObsClock();
void SetClockForTest(const Clock* clock);

// ---- Value-type histogram ----------------------------------------------------

/// A fixed-bucket histogram as plain data: `bounds[i]` is the inclusive
/// upper bound of bucket i, and one extra bucket at the end catches
/// everything greater than `bounds.back()` (the explicit +Inf bucket). All
/// count/total/sum arithmetic saturates instead of wrapping, so merging
/// long-lived stats can never overflow into nonsense.
///
/// This is both the snapshot form of the registry's concurrent `Histogram`
/// and the type `ServerStats` embeds directly (the serving layer's latency
/// histogram is one of these, not a hand-rolled copy).
struct HistogramData {
  /// Power-of-two microsecond buckets: bounds 2^b - 1 for b = 0..38, plus
  /// the +Inf bucket. Bucket 0 holds exactly {<= 0}. This is the default.
  HistogramData();

  /// Custom ascending finite bounds (must be non-empty, strictly ascending).
  explicit HistogramData(std::vector<int64_t> bounds);

  /// Uniform buckets [start, start+width), ... — n finite bounds.
  static HistogramData Linear(int64_t start, int64_t width, int n);

  /// Records one value (clamped into bucket 0 below the first bound, the
  /// +Inf bucket above the last). Saturating.
  void Record(int64_t value);

  /// Bucket index `value` falls into (0 .. bounds.size(), the last being
  /// the +Inf bucket).
  int BucketOf(int64_t value) const;

  /// Adds `other`'s counts/total/sum into this histogram. Bucket layouts
  /// must match. Saturating.
  void MergeFrom(const HistogramData& other);

  /// Upper bound of the bucket holding the p-quantile, p in [0,1]; 0 when
  /// empty; INT64_MAX when the quantile lands in the +Inf bucket.
  int64_t PercentileUpperBound(double p) const;

  std::vector<int64_t> bounds;  ///< finite inclusive upper bounds, ascending
  std::vector<int64_t> counts;  ///< size bounds.size() + 1 (last = +Inf)
  int64_t total = 0;            ///< saturating sum of counts
  int64_t sum = 0;              ///< saturating sum of recorded values
};

// ---- Registry metrics --------------------------------------------------------

/// Monotonic event counter, striped across shards. `Add` is one relaxed
/// atomic add on the calling thread's shard; `Value` sums the shards.
class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}

  void Add(int64_t delta = 1) {
    shards_[ThisThreadShard()].value.fetch_add(delta,
                                               std::memory_order_relaxed);
  }

  /// Saturating sum across shards.
  int64_t Value() const;

  /// Zeroes every shard (test isolation; racing writers may survive).
  void Reset();

  const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::array<internal::ShardCell, kMetricShards> shards_;
};

/// Last-written level. A single atomic: gauges are set from one place at a
/// time (queue depth under the queue lock), so striping buys nothing.
class Gauge {
 public:
  explicit Gauge(std::string name) : name_(std::move(name)) {}

  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

  const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::atomic<int64_t> value_{0};
};

/// Concurrent fixed-bucket histogram: per-shard atomic bucket counts plus
/// per-shard sums, snapshotted into a `HistogramData`. `Record` costs one
/// bucket search plus two relaxed adds on this thread's shard.
class Histogram {
 public:
  Histogram(std::string name, HistogramData spec);

  void Record(int64_t value);

  /// Sums the shards into plain data (saturating).
  HistogramData Snapshot() const;

  /// Zeroes every shard (test isolation; racing writers may survive).
  void Reset();

  const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::vector<int64_t> bounds_;
  /// shards_[s] holds bounds_.size() + 1 bucket cells; sums_[s] the shard's
  /// value sum.
  std::vector<std::vector<internal::ShardCell>> shards_;
  std::array<internal::ShardCell, kMetricShards> sums_;
};

// ---- Snapshot ----------------------------------------------------------------

/// Plain values of every metric at one point in time; what the exporters
/// consume. Callback gauges are evaluated during Snapshot().
struct MetricsSnapshot {
  /// Adds `other` in, series by series (saturating; histograms bucket-wise;
  /// a series only `other` has is copied): how several registries, e.g. a
  /// fleet's shards, become one view.
  void MergeFrom(const MetricsSnapshot& other);

  std::map<std::string, int64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramData> histograms;
};

// ---- Registry ----------------------------------------------------------------

/// Owns every metric. `Get*` returns a stable reference (metrics are never
/// deleted, and `ResetForTest` zeroes values without invalidating
/// references), so call sites may cache the reference in a function-local
/// static — which is exactly what the KUC_OBS_* macros do.
/// Besides `DefaultRegistry()`, each RecServer and ShardRouter owns one and
/// counts into it whether or not `Enabled()` is set.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  /// `spec` fixes the bucket layout on first call; later calls with the
  /// same name ignore it.
  Histogram& GetHistogram(const std::string& name,
                          HistogramData spec = HistogramData());

  /// Registers a gauge whose value is sampled by calling `fn` at snapshot
  /// time (e.g. thread-pool queue depth). Re-registering a name replaces
  /// the callback.
  void RegisterCallbackGauge(const std::string& name,
                             std::function<int64_t()> fn);

  MetricsSnapshot Snapshot() const;

  /// Zeroes every counter/gauge/histogram without invalidating references.
  /// Callback gauges are left registered. Intended for test isolation.
  void ResetForTest();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::function<int64_t()>> callback_gauges_;
};

/// The process-wide registry every instrumentation macro writes to. Created
/// on first use; registers the built-in thread-pool callback gauges
/// (threadpool.queue_depth, threadpool.tasks_submitted).
MetricsRegistry& DefaultRegistry();

}  // namespace kucnet::obs

// ---- Instrumentation macros --------------------------------------------------
//
// All macros are no-ops when built with -DKUCNET_OBS=0 and reduce to one
// relaxed load + branch when runtime observability is disabled. The literal
// `name` is looked up once per call site (function-local static) and the
// resulting reference reused forever.

#if KUCNET_OBS

#define KUC_OBS_COUNT(name, delta)                                     \
  do {                                                                 \
    if (::kucnet::obs::Enabled()) {                                    \
      static ::kucnet::obs::Counter& kuc_obs_counter_ =                \
          ::kucnet::obs::DefaultRegistry().GetCounter(name);           \
      kuc_obs_counter_.Add(delta);                                     \
    }                                                                  \
  } while (0)

#define KUC_OBS_GAUGE_SET(name, value)                                 \
  do {                                                                 \
    if (::kucnet::obs::Enabled()) {                                    \
      static ::kucnet::obs::Gauge& kuc_obs_gauge_ =                    \
          ::kucnet::obs::DefaultRegistry().GetGauge(name);             \
      kuc_obs_gauge_.Set(value);                                       \
    }                                                                  \
  } while (0)

#define KUC_OBS_HISTOGRAM(name, value)                                 \
  do {                                                                 \
    if (::kucnet::obs::Enabled()) {                                    \
      static ::kucnet::obs::Histogram& kuc_obs_histogram_ =            \
          ::kucnet::obs::DefaultRegistry().GetHistogram(name);         \
      kuc_obs_histogram_.Record(value);                                \
    }                                                                  \
  } while (0)

#else  // !KUCNET_OBS

#define KUC_OBS_COUNT(name, delta) ((void)0)
#define KUC_OBS_GAUGE_SET(name, value) ((void)0)
#define KUC_OBS_HISTOGRAM(name, value) ((void)0)

#endif  // KUCNET_OBS

#endif  // KUCNET_OBS_METRICS_H_
