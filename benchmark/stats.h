#ifndef KUCNET_BENCHMARK_STATS_H_
#define KUCNET_BENCHMARK_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

/// \file
/// Exact order statistics over raw samples. Every timing the benchmark
/// reports is computed here from the full sample, never from histogram
/// buckets.

namespace kbench {

/// Exact quantile `q` in [0, 1] of `samples` by linear interpolation between
/// the two closest ranks: with the samples sorted ascending as x[0..n-1] and
/// h = (n - 1) * q, returns x[floor(h)] + (h - floor(h)) * (x[ceil(h)] -
/// x[floor(h)]). Returns 0 for an empty sample.
double Quantile(std::vector<double> samples, double q);

/// The highest percentile of {0.999, 0.99, 0.98, 0.95, 0.9} that has at
/// least ten of `n` samples strictly above its rank (n - ceil(q * n) >= 10),
/// or the median when none has.
double TailQuantileLevel(int64_t n);

/// Windows BestWindowQuantile cuts a run's samples into.
inline constexpr int kQuantileWindows = 8;

/// The lowest, over `windows` consecutive runs of `samples` (of nearly equal
/// count, in the order given), of each run's quantile `q`. With the samples
/// in time order this is the quantile of the run's quietest stretch: a
/// neighbour on a shared host only ever slows a window, and a contention
/// episode that covers all but one window does not move the figure, while a
/// change to the code moves every window. `windows` is clamped to [1, n];
/// returns 0 for an empty sample.
double BestWindowQuantile(const std::vector<double>& samples, double q, int windows);

/// Median, 90th and 99th percentiles and tail of one timing, with the
/// sample count and the tail level actually used, and the best-window
/// median and 90th percentile (samples taken in the order given, time
/// order).
struct Summary {
  int64_t n = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double tail_level = 0.5;
  double tail = 0.0;
  double best_window_p50 = 0.0;  ///< BestWindowQuantile(samples, 0.5, kQuantileWindows)
  double best_window_p90 = 0.0;  ///< BestWindowQuantile(samples, 0.9, kQuantileWindows)
};

Summary Summarize(const std::vector<double>& samples);

/// Arithmetic mean (0 for an empty sample).
double Mean(const std::vector<double>& samples);

/// Checks Quantile, BestWindowQuantile, TailQuantileLevel and Summarize
/// against hand-computed values. Returns an empty string on success, else
/// what failed.
std::string SelfTest();

}  // namespace kbench

#endif  // KUCNET_BENCHMARK_STATS_H_
