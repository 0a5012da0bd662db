#ifndef KUCNET_OBS_EXPORT_H_
#define KUCNET_OBS_EXPORT_H_

#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/status.h"

/// \file
/// Renders observability state into the two formats the outside world
/// expects: Prometheus exposition text for metrics and Chrome
/// `chrome://tracing` JSON for spans. Both renderers are pure functions of a
/// snapshot, so tests can assert exact output under a FakeClock; the Write*
/// variants wrap them in a crash-safe AtomicWriteFile.

namespace kucnet::obs {

/// Prometheus text exposition format. Metric names are prefixed `kucnet_`
/// and sanitized (non-alphanumerics become `_`). Counters render as
/// `kucnet_<name>_total`, gauges as `kucnet_<name>`, histograms as the
/// standard cumulative `_bucket{le="..."}` series (including `le="+Inf"`)
/// plus `_sum` and `_count`.
std::string ToPrometheusText(const MetricsSnapshot& snapshot);

/// Chrome trace-event JSON: `{"traceEvents": [...]}` with one complete
/// ("ph":"X") event per span, carrying depth as an argument. Loadable in
/// chrome://tracing or https://ui.perfetto.dev.
std::string ToChromeTraceJson(const std::vector<TraceEvent>& events);

/// Atomically writes the Prometheus text of `snapshot` to `path`.
Status WritePrometheusTextFile(const MetricsSnapshot& snapshot,
                               const std::string& path);

/// Collect `recorder` and atomically write the Chrome trace JSON to `path`.
Status WriteChromeTraceFile(const TraceRecorder& recorder,
                            const std::string& path);

}  // namespace kucnet::obs

#endif  // KUCNET_OBS_EXPORT_H_
