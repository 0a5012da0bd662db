#include "obs/export.h"

#include <cctype>
#include <cstdio>
#include <sstream>

#include "util/fs.h"

namespace kucnet::obs {

namespace {

/// `ppr.push_ops` -> `kucnet_ppr_push_ops`.
std::string PrometheusName(const std::string& name) {
  std::string out = "kucnet_";
  for (const char c : name) {
    out.push_back(std::isalnum(static_cast<unsigned char>(c)) != 0 ? c : '_');
  }
  return out;
}

void AppendHistogram(const std::string& name, const HistogramData& histogram,
                     std::ostringstream& out) {
  const std::string prom = PrometheusName(name);
  out << "# TYPE " << prom << " histogram\n";
  int64_t cumulative = 0;
  for (size_t b = 0; b < histogram.counts.size(); ++b) {
    cumulative = SaturatingAdd(cumulative, histogram.counts[b]);
    out << prom << "_bucket{le=\"";
    if (b < histogram.bounds.size()) {
      out << histogram.bounds[b];
    } else {
      out << "+Inf";
    }
    out << "\"} " << cumulative << "\n";
  }
  out << prom << "_sum " << histogram.sum << "\n";
  out << prom << "_count " << histogram.total << "\n";
}

void AppendJsonString(const char* s, std::ostringstream& out) {
  out << '"';
  for (const char* p = s; *p != '\0'; ++p) {
    const char c = *p;
    switch (c) {
      case '"':
        out << "\\\"";
        break;
      case '\\':
        out << "\\\\";
        break;
      case '\n':
        out << "\\n";
        break;
      case '\t':
        out << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out << buf;
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

}  // namespace

std::string ToPrometheusText(const MetricsSnapshot& snapshot) {
  std::ostringstream out;
  for (const auto& [name, value] : snapshot.counters) {
    const std::string prom = PrometheusName(name) + "_total";
    out << "# TYPE " << prom << " counter\n" << prom << " " << value << "\n";
  }
  for (const auto& [name, value] : snapshot.gauges) {
    const std::string prom = PrometheusName(name);
    out << "# TYPE " << prom << " gauge\n" << prom << " " << value << "\n";
  }
  for (const auto& [name, histogram] : snapshot.histograms) {
    AppendHistogram(name, histogram, out);
  }
  return out.str();
}

std::string ToChromeTraceJson(const std::vector<TraceEvent>& events) {
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& event : events) {
    if (!first) out << ",";
    first = false;
    out << "{\"name\":";
    AppendJsonString(event.name, out);
    out << ",\"cat\":\"kucnet\",\"ph\":\"X\",\"pid\":1,\"tid\":" << event.tid
        << ",\"ts\":" << event.start_micros << ",\"dur\":" << event.dur_micros
        << ",\"args\":{\"depth\":" << event.depth << "}}";
  }
  out << "]}";
  return out.str();
}

Status WritePrometheusTextFile(const MetricsSnapshot& snapshot,
                               const std::string& path) {
  return AtomicWriteFile(DefaultFileSystem(), path,
                         ToPrometheusText(snapshot));
}

Status WriteChromeTraceFile(const TraceRecorder& recorder,
                            const std::string& path) {
  return AtomicWriteFile(DefaultFileSystem(), path,
                         ToChromeTraceJson(recorder.Collect()));
}

}  // namespace kucnet::obs
