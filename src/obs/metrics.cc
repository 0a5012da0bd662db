#include "obs/metrics.h"

#include <algorithm>
#include <limits>

#include "util/logging.h"
#include "util/thread_pool.h"

namespace kucnet::obs {

namespace internal {
std::atomic<bool> g_enabled{false};
}  // namespace internal

namespace {

std::atomic<const Clock*> g_obs_clock{nullptr};

std::atomic<int> g_next_shard{0};

}  // namespace

int64_t SaturatingAdd(int64_t a, int64_t b) {
  int64_t out;
  if (__builtin_add_overflow(a, b, &out)) {
    return b > 0 ? std::numeric_limits<int64_t>::max()
                 : std::numeric_limits<int64_t>::min();
  }
  return out;
}

int ThisThreadShard() {
  static thread_local const int shard =
      g_next_shard.fetch_add(1, std::memory_order_relaxed) % kMetricShards;
  return shard;
}

void SetEnabled(bool enabled) {
  internal::g_enabled.store(enabled, std::memory_order_relaxed);
}

const Clock& ObsClock() {
  const Clock* clock = g_obs_clock.load(std::memory_order_acquire);
  return clock != nullptr ? *clock : RealClock();
}

void SetClockForTest(const Clock* clock) {
  g_obs_clock.store(clock, std::memory_order_release);
}

// ---- HistogramData -----------------------------------------------------------

namespace {

std::vector<int64_t> PowerOfTwoMicrosBounds() {
  // 2^b - 1 for b = 0..38: bucket 0 holds {<= 0}, the top finite bucket
  // reaches ~2^38 us (~3 days); anything beyond lands in the +Inf bucket.
  std::vector<int64_t> bounds;
  bounds.reserve(39);
  for (int b = 0; b < 39; ++b) bounds.push_back((int64_t{1} << b) - 1);
  return bounds;
}

}  // namespace

HistogramData::HistogramData() : HistogramData(PowerOfTwoMicrosBounds()) {}

HistogramData::HistogramData(std::vector<int64_t> finite_bounds)
    : bounds(std::move(finite_bounds)) {
  KUC_CHECK(!bounds.empty()) << "histogram needs at least one finite bound";
  for (size_t i = 1; i < bounds.size(); ++i) {
    KUC_CHECK_LT(bounds[i - 1], bounds[i])
        << "histogram bounds must be strictly ascending";
  }
  counts.assign(bounds.size() + 1, 0);
}

HistogramData HistogramData::Linear(int64_t start, int64_t width, int n) {
  KUC_CHECK_GT(width, 0);
  KUC_CHECK_GT(n, 0);
  std::vector<int64_t> bounds;
  bounds.reserve(n);
  for (int i = 0; i < n; ++i) bounds.push_back(start + width * i);
  return HistogramData(std::move(bounds));
}

int HistogramData::BucketOf(int64_t value) const {
  // First bucket whose upper bound is >= value; past the last finite bound
  // lower_bound returns end(), i.e. the +Inf bucket.
  return static_cast<int>(
      std::lower_bound(bounds.begin(), bounds.end(), value) - bounds.begin());
}

void HistogramData::Record(int64_t value) {
  counts[BucketOf(value)] = SaturatingAdd(counts[BucketOf(value)], 1);
  total = SaturatingAdd(total, 1);
  sum = SaturatingAdd(sum, value);
}

void HistogramData::MergeFrom(const HistogramData& other) {
  KUC_CHECK(bounds == other.bounds)
      << "cannot merge histograms with different bucket layouts";
  for (size_t b = 0; b < counts.size(); ++b) {
    counts[b] = SaturatingAdd(counts[b], other.counts[b]);
  }
  total = SaturatingAdd(total, other.total);
  sum = SaturatingAdd(sum, other.sum);
}

int64_t HistogramData::PercentileUpperBound(double p) const {
  if (total == 0) return 0;
  const int64_t target = std::max<int64_t>(
      1, static_cast<int64_t>(p * static_cast<double>(total) + 0.5));
  int64_t seen = 0;
  for (size_t b = 0; b < counts.size(); ++b) {
    seen = SaturatingAdd(seen, counts[b]);
    if (seen >= target) {
      return b < bounds.size() ? bounds[b]
                               : std::numeric_limits<int64_t>::max();
    }
  }
  return std::numeric_limits<int64_t>::max();
}

// ---- Counter / Histogram -----------------------------------------------------

int64_t Counter::Value() const {
  int64_t total = 0;
  for (const auto& shard : shards_) {
    total = SaturatingAdd(total, shard.value.load(std::memory_order_relaxed));
  }
  return total;
}

void Counter::Reset() {
  for (auto& shard : shards_) {
    shard.value.store(0, std::memory_order_relaxed);
  }
}

Histogram::Histogram(std::string name, HistogramData spec)
    : name_(std::move(name)), bounds_(spec.bounds) {
  shards_.resize(kMetricShards);
  for (auto& shard : shards_) {
    shard = std::vector<internal::ShardCell>(bounds_.size() + 1);
  }
}

void Histogram::Record(int64_t value) {
  const int bucket = static_cast<int>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  const int s = ThisThreadShard();
  shards_[s][bucket].value.fetch_add(1, std::memory_order_relaxed);
  sums_[s].value.fetch_add(value, std::memory_order_relaxed);
}

HistogramData Histogram::Snapshot() const {
  HistogramData data{std::vector<int64_t>(bounds_)};
  for (int s = 0; s < kMetricShards; ++s) {
    for (size_t b = 0; b < data.counts.size(); ++b) {
      const int64_t c = shards_[s][b].value.load(std::memory_order_relaxed);
      data.counts[b] = SaturatingAdd(data.counts[b], c);
      data.total = SaturatingAdd(data.total, c);
    }
    data.sum =
        SaturatingAdd(data.sum, sums_[s].value.load(std::memory_order_relaxed));
  }
  return data;
}

void Histogram::Reset() {
  for (auto& shard : shards_) {
    for (auto& cell : shard) cell.value.store(0, std::memory_order_relaxed);
  }
  for (auto& cell : sums_) cell.value.store(0, std::memory_order_relaxed);
}

// ---- Registry ----------------------------------------------------------------

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>(name);
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>(name);
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         HistogramData spec) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Histogram>(name, std::move(spec));
  }
  return *slot;
}

void MetricsRegistry::RegisterCallbackGauge(const std::string& name,
                                            std::function<int64_t()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  callback_gauges_[name] = std::move(fn);
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
  // Copy the callbacks out so user callbacks never run under the registry
  // lock (they may themselves touch metrics).
  std::map<std::string, std::function<int64_t()>> callbacks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, counter] : counters_) {
      snapshot.counters[name] = counter->Value();
    }
    for (const auto& [name, gauge] : gauges_) {
      snapshot.gauges[name] = gauge->Value();
    }
    for (const auto& [name, histogram] : histograms_) {
      snapshot.histograms.emplace(name, histogram->Snapshot());
    }
    callbacks = callback_gauges_;
  }
  for (const auto& [name, fn] : callbacks) snapshot.gauges[name] = fn();
  return snapshot;
}

void MetricsRegistry::ResetForTest() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

MetricsRegistry& DefaultRegistry() {
  static MetricsRegistry* registry = [] {
    auto* r = new MetricsRegistry();
    // The shared compute pool lives below the obs layer (obs depends on
    // util, not vice versa), so its depth is sampled by callback at
    // snapshot time instead of being pushed on every queue operation.
    r->RegisterCallbackGauge("threadpool.queue_depth",
                             [] { return GlobalPoolQueueDepth(); });
    r->RegisterCallbackGauge("threadpool.tasks_submitted",
                             [] { return GlobalPoolTasksSubmitted(); });
    return r;
  }();
  return *registry;
}

void MetricsSnapshot::MergeFrom(const MetricsSnapshot& other) {
  for (const auto& [name, value] : other.counters) {
    counters[name] = SaturatingAdd(counters[name], value);
  }
  for (const auto& [name, value] : other.gauges) {
    gauges[name] = SaturatingAdd(gauges[name], value);
  }
  for (const auto& [name, histogram] : other.histograms) {
    const auto [it, inserted] = histograms.emplace(name, histogram);
    if (!inserted) it->second.MergeFrom(histogram);
  }
}

}  // namespace kucnet::obs
