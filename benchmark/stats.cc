#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <sstream>
#include <utility>

namespace kbench {

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double h = static_cast<double>(samples.size() - 1) *
                   std::clamp(q, 0.0, 1.0);
  const auto lo = static_cast<size_t>(std::floor(h));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (h - static_cast<double>(lo)) * (samples[hi] - samples[lo]);
}

double BestWindowQuantile(const std::vector<double>& samples, double q, int windows) {
  const size_t n = samples.size();
  if (n == 0) return 0.0;
  const size_t w = std::clamp<size_t>(static_cast<size_t>(std::max(windows, 1)), 1, n);
  std::vector<double> per_window;
  for (size_t k = 0; k < w; ++k) {
    per_window.push_back(Quantile(
        std::vector<double>(samples.begin() + static_cast<std::ptrdiff_t>(k * n / w),
                            samples.begin() + static_cast<std::ptrdiff_t>((k + 1) * n / w)),
        q));
  }
  return *std::min_element(per_window.begin(), per_window.end());
}

double TailQuantileLevel(int64_t n) {
  for (const double q : {0.999, 0.99, 0.98, 0.95, 0.9}) {
    // The small epsilon keeps q * n == integer (e.g. 0.99 * 1000) on that
    // integer despite binary rounding.
    const auto rank =
        static_cast<int64_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
    if (n - rank >= 10) return q;
  }
  return 0.5;
}

Summary Summarize(const std::vector<double>& samples) {
  Summary s;
  s.n = static_cast<int64_t>(samples.size());
  s.p50 = Quantile(samples, 0.5);
  s.p90 = Quantile(samples, 0.9);
  s.p99 = Quantile(samples, 0.99);
  s.tail_level = TailQuantileLevel(s.n);
  s.tail = Quantile(samples, s.tail_level);
  s.best_window_p50 = BestWindowQuantile(samples, 0.5, kQuantileWindows);
  s.best_window_p90 = BestWindowQuantile(samples, 0.9, kQuantileWindows);
  return s;
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

std::string SelfTest() {
  std::ostringstream failures;
  const auto expect = [&failures](const char* what, double got, double want) {
    if (std::abs(got - want) > 1e-9 * std::max(1.0, std::abs(want))) {
      failures << what << ": got " << got << ", want " << want << "; ";
    }
  };
  expect("median of {3,1,2}", Quantile({3, 1, 2}, 0.5), 2.0);
  expect("median of {1,2,3,4}", Quantile({1, 2, 3, 4}, 0.5), 2.5);
  // h = 4 * 0.9 = 3.6 -> 40 + 0.6 * (50 - 40).
  expect("p90 of {10..50}", Quantile({50, 10, 40, 20, 30}, 0.9), 46.0);
  expect("p99 of {7}", Quantile({7}, 0.99), 7.0);
  expect("p0 of {5,9}", Quantile({9, 5}, 0.0), 5.0);
  expect("p100 of {5,9}", Quantile({9, 5}, 1.0), 9.0);
  expect("empty", Quantile({}, 0.5), 0.0);

  std::vector<double> ramp;
  for (int i = 1; i <= 1000; ++i) ramp.push_back(i);
  // h = 999 * 0.99 = 989.01 -> x[989] = 990, x[990] = 991.
  expect("p99 of 1..1000", Quantile(ramp, 0.99), 990.01);

  // Ten samples beyond the rank: 1000 - 990 = 10 at p99, 999 - 990 = 9.
  expect("tail level n=10000", TailQuantileLevel(10000), 0.999);
  expect("tail level n=1000", TailQuantileLevel(1000), 0.99);
  expect("tail level n=999", TailQuantileLevel(999), 0.98);
  expect("tail level n=500", TailQuantileLevel(500), 0.98);
  expect("tail level n=499", TailQuantileLevel(499), 0.95);
  expect("tail level n=100", TailQuantileLevel(100), 0.9);
  expect("tail level n=99", TailQuantileLevel(99), 0.5);

  // Runs {100,100,100} {7,8,9} {4,5,6} {1,2,30}: medians 100, 8, 5, 2 ->
  // 2; 90th percentiles 100, 8.8, 5.8, 24.4 (2 + 0.8 * 28) -> 5.8.
  const std::vector<double> bursty = {100, 100, 100, 7, 8, 9, 4, 5, 6, 1, 2, 30};
  expect("best-window median", BestWindowQuantile(bursty, 0.5, 4), 2.0);
  expect("best-window p90", BestWindowQuantile(bursty, 0.9, 4), 5.8);
  // Five samples in two windows split 2 + 3: {2, 4} and {10, 10, 10}.
  expect("best-window uneven", BestWindowQuantile({2, 4, 10, 10, 10}, 0.5, 2), 3.0);
  // More windows than samples: one sample per window.
  expect("best-window clamp", BestWindowQuantile({3, 1, 2}, 0.9, 8), 1.0);
  expect("best-window empty", BestWindowQuantile({}, 0.5, 8), 0.0);

  const Summary s = Summarize(ramp);
  expect("summary n", static_cast<double>(s.n), 1000);
  expect("summary p50", s.p50, 500.5);
  // h = 999 * 0.9 = 899.1 -> 900 + 0.1.
  expect("summary p90", s.p90, 900.1);
  expect("summary p99", s.p99, 990.01);
  expect("summary tail level", s.tail_level, 0.99);
  expect("summary tail", s.tail, 990.01);
  // Eight runs of 125: run k holds 125k+1..125k+125; the first is lowest,
  // median 63 and 90th percentile 112 + 0.6 * (113 - 112).
  expect("summary best-window p50", s.best_window_p50, 63.0);
  expect("summary best-window p90", s.best_window_p90, 112.6);
  expect("mean", Mean({1, 2, 6}), 3.0);
  return failures.str();
}

}  // namespace kbench
