// Observability overhead benchmark.
//
// Answers the question every instrumentation layer must answer before it is
// allowed near a hot path: what does it cost? Measures
//   - the per-call cost of a counter add and a span enter/exit, with the
//     runtime switch off (the "pay one branch" claim) and on;
//   - end-to-end serving latency (exact p50/p99 over raw samples) with
//     observability off vs. on, and the resulting p99 regression;
//   - whether model outputs are bit-identical with observability on vs. off
//     (instrumentation must observe, never perturb).
//
//   obs_overhead [OUTPUT.json] [REQUESTS]
//
// Writes a machine-readable JSON object (default BENCH_obs.json).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/kucnet.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/rec_server.h"
#include "util/clock.h"
#include "util/logging.h"

namespace kucnet {
namespace {

/// Exact percentile over raw samples; bucketed histograms would hide the
/// small on-vs-off differences this bench exists to expose.
int64_t Percentile(std::vector<int64_t> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t idx = std::min(
      samples.size() - 1,
      static_cast<size_t>(p * static_cast<double>(samples.size() - 1) + 0.5));
  return samples[idx];
}

/// Best-of-reps nanoseconds per iteration of `fn(iters)`.
template <typename Fn>
double NsPerOp(int64_t iters, int reps, const Fn& fn) {
  double best = 1e18;
  for (int rep = 0; rep < reps; ++rep) {
    Stopwatch timer;
    fn(iters);
    best = std::min(best,
                    static_cast<double>(timer.ElapsedMicros()) * 1e3 /
                        static_cast<double>(iters));
  }
  return best;
}

double MeasureCounterNs(bool enabled) {
  obs::SetEnabled(enabled);
  const double ns = NsPerOp(2'000'000, 5, [](int64_t iters) {
    for (int64_t i = 0; i < iters; ++i) {
      KUC_OBS_COUNT("bench.obs.counter_probe", 1);
    }
  });
  obs::SetEnabled(false);
  return ns;
}

double MeasureSpanNs(bool enabled) {
  obs::SetEnabled(enabled);
  const double ns = NsPerOp(500'000, 5, [](int64_t iters) {
    for (int64_t i = 0; i < iters; ++i) {
      KUC_TRACE_SPAN("bench.obs.span_probe");
    }
  });
  obs::SetEnabled(false);
  return ns;
}

struct ServingPercentiles {
  int64_t p50_us = 0;
  int64_t p99_us = 0;
};

/// End-to-end ServeSync latency percentiles at the current obs setting.
ServingPercentiles MeasureServing(const Kucnet& model,
                                  const bench::Workload& w,
                                  int64_t num_requests) {
  RecServerOptions opts;
  opts.num_workers = 0;  // ServeSync only: no queueing noise in the samples
  opts.default_deadline_micros = 60'000'000;
  RecServer server(&model, &w.dataset, &w.ckg, &w.ppr, opts);
  std::vector<int64_t> samples;
  samples.reserve(num_requests);
  for (int64_t r = 0; r < num_requests + 2; ++r) {
    const RecResponse response =
        server.ServeSync({(r * 7) % w.dataset.num_users});
    if (r >= 2) samples.push_back(response.total_micros);  // skip cold-start
  }
  return {Percentile(samples, 0.5), Percentile(samples, 0.99)};
}

/// True iff the full forward pass produces byte-identical scores with
/// observability on and off.
bool OutputsBitIdentical(const Kucnet& model, const bench::Workload& w) {
  const int64_t users = std::min<int64_t>(4, w.dataset.num_users);
  for (int64_t user = 0; user < users; ++user) {
    obs::SetEnabled(false);
    KucnetForward off_forward, on_forward;
    KUC_CHECK_OK(model.TryForward(user, ExecContext(), &off_forward));
    obs::SetEnabled(true);
    KUC_CHECK_OK(model.TryForward(user, ExecContext(), &on_forward));
    obs::SetEnabled(false);
    const std::vector<double>& off = off_forward.item_scores;
    const std::vector<double>& on = on_forward.item_scores;
    if (off.size() != on.size() ||
        (!off.empty() && std::memcmp(off.data(), on.data(),
                                     off.size() * sizeof(double)) != 0)) {
      return false;
    }
  }
  return true;
}

int Main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_obs.json";
  const int64_t num_requests = argc > 2 ? std::atoll(argv[2]) : 200;

  bench::PrintHeader("Observability overhead (BENCH_obs.json)");

  const double counter_off_ns = MeasureCounterNs(false);
  const double counter_on_ns = MeasureCounterNs(true);
  const double span_off_ns = MeasureSpanNs(false);
  const double span_on_ns = MeasureSpanNs(true);
  std::printf("counter add:      off %.2fns  on %.2fns\n", counter_off_ns,
              counter_on_ns);
  std::printf("span enter/exit:  off %.2fns  on %.2fns\n", span_off_ns,
              span_on_ns);

  bench::Workload workload =
      bench::MakeWorkload("synth-lastfm", SplitKind::kTraditional);
  // Untrained weights: overhead is a property of the pipeline, not accuracy.
  KucnetOptions model_opts;
  model_opts.sample_k = 30;
  model_opts.depth = 3;
  Kucnet model(&workload.dataset, &workload.ckg, &workload.ppr, model_opts);

  const bool bit_identical = OutputsBitIdentical(model, workload);
  std::printf("model outputs bit-identical on vs off: %s\n",
              bit_identical ? "yes" : "NO");

  obs::SetEnabled(false);
  const ServingPercentiles off = MeasureServing(model, workload, num_requests);
  obs::SetEnabled(true);
  const ServingPercentiles on = MeasureServing(model, workload, num_requests);
  obs::SetEnabled(false);
  const double p99_regression =
      off.p99_us == 0 ? 0.0
                      : static_cast<double>(on.p99_us - off.p99_us) /
                            static_cast<double>(off.p99_us);
  std::printf("serving (n=%lld): off p50 %lldus p99 %lldus | on p50 %lldus "
              "p99 %lldus | p99 regression %+.2f%%\n",
              static_cast<long long>(num_requests),
              static_cast<long long>(off.p50_us),
              static_cast<long long>(off.p99_us),
              static_cast<long long>(on.p50_us),
              static_cast<long long>(on.p99_us), 100.0 * p99_regression);

  std::FILE* f = std::fopen(json_path.c_str(), "w");
  KUC_CHECK(f != nullptr) << "cannot open " << json_path;
  std::fprintf(
      f,
      "{\n"
      "  \"counter_add_ns\": {\"off\": %.3f, \"on\": %.3f},\n"
      "  \"span_enter_exit_ns\": {\"off\": %.3f, \"on\": %.3f},\n"
      "  \"serving\": {\n"
      "    \"requests\": %lld,\n"
      "    \"off\": {\"p50_us\": %lld, \"p99_us\": %lld},\n"
      "    \"on\": {\"p50_us\": %lld, \"p99_us\": %lld},\n"
      "    \"p99_regression\": %.4f\n"
      "  },\n"
      "  \"outputs_bit_identical\": %s\n"
      "}\n",
      counter_off_ns, counter_on_ns, span_off_ns, span_on_ns,
      static_cast<long long>(num_requests),
      static_cast<long long>(off.p50_us), static_cast<long long>(off.p99_us),
      static_cast<long long>(on.p50_us), static_cast<long long>(on.p99_us),
      p99_regression, bit_identical ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s\n", json_path.c_str());
  return bit_identical ? 0 : 1;
}

}  // namespace
}  // namespace kucnet

int main(int argc, char** argv) { return kucnet::Main(argc, argv); }
