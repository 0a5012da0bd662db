#include "common.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

#include "data/synthetic.h"
#include "obs/metrics.h"
#include "tensor/matrix.h"
#include "tensor/simd.h"
#include "tensor/tape.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace kbench {

using kucnet::ResponseStatus;
using kucnet::ServeTier;

namespace {

Json MetricsJson(const std::map<std::string, double>& values) {
  std::vector<std::pair<std::string, Json>> fields;
  for (const auto& [name, value] : values) fields.push_back({name, JsonNumber(value)});
  return JsonObject(fields);
}

std::string ReadCpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t begin = colon + 1;
        while (begin < line.size() && line[begin] == ' ') ++begin;
        return line.substr(begin);
      }
    }
  }
  return "unknown";
}

}  // namespace

// ---- Arguments --------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Args* out) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "flag %s needs a value\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      out->workload = value;
    } else if (flag == "--seed") {
      out->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') {
        std::fprintf(stderr, "--seed must be a non-negative integer\n");
        return false;
      }
    } else if (flag == "--seconds") {
      out->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(out->seconds > 0)) {
        std::fprintf(stderr, "--seconds must be a positive number\n");
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        std::fprintf(stderr, "--trace must be 0 or 1\n");
        return false;
      }
      out->trace = value == "1";
    } else if (flag == "--work_dir") {
      out->work_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (out->workload.empty()) {
    std::fprintf(stderr, "--workload is required\n");
    return false;
  }
  return true;
}

// ---- JSON -------------------------------------------------------------------

Json JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

Json JsonString(const std::string& value) {
  std::string out = "\"";
  for (const char c : value) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

Json JsonObject(const std::vector<std::pair<std::string, Json>>& fields) {
  std::string out = "{";
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(fields[i].first) + ": " + fields[i].second;
  }
  return out + "}";
}

Json JsonArray(const std::vector<Json>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += items[i];
  }
  return out + "]";
}

Json JsonSummary(const Summary& s) {
  return JsonObject({{"n", JsonNumber(static_cast<double>(s.n))},
                     {"p50", JsonNumber(s.p50)},
                     {"p90", JsonNumber(s.p90)},
                     {"p99", JsonNumber(s.p99)},
                     {"tail_level", JsonNumber(s.tail_level)},
                     {"tail", JsonNumber(s.tail)},
                     {"best_window_p50", JsonNumber(s.best_window_p50)},
                     {"best_window_p90", JsonNumber(s.best_window_p90)}});
}

// ---- Run --------------------------------------------------------------------

Run::Run(Args args) : args_(std::move(args)), host_start_(SampleHost()) {
  if (args_.trace) spans_ = std::make_unique<SpanRecorder>();
}

void Run::SetEndToEnd(const std::string& name, double value) {
  end_to_end_[name] = value;
}

void Run::SetLayer(const std::string& name, double value) { layers_[name] = value; }

void Run::Gate(const std::string& name, bool ok, const std::string& why) {
  if (!ok) {
    correct_ = false;
    std::fprintf(stderr, "GATE FAILED: %s %s\n", name.c_str(), why.c_str());
  }
  gates_.push_back(JsonObject({{"gate", JsonString(name)},
                               {"ok", ok ? "true" : "false"},
                               {"why", JsonString(why)}}));
}

void Run::Invalidate(const std::string& why) {
  std::fprintf(stderr, "RUN INVALID: %s\n", why.c_str());
  invalid_.push_back(why);
}

void Run::Detail(const std::string& key, Json value) {
  detail_.push_back({key, std::move(value)});
}

void Run::CheckHost() {
  const HostSample end = SampleHost();
  const double wall_s = static_cast<double>(end.wall_us - host_start_.wall_us) * 1e-6;
  const double total_s = end.total_s - host_start_.total_s;
  const double steal_share =
      total_s > 0 ? (end.steal_s - host_start_.steal_s) / total_s : 0.0;
  const double iowait_share =
      total_s > 0 ? (end.iowait_s - host_start_.iowait_s) / total_s : 0.0;
  const double own_cpu_s = end.own_cpu_s - host_start_.own_cpu_s;
  const double foreign_cores =
      wall_s > 0 ? std::max(0.0, end.busy_s - host_start_.busy_s - own_cpu_s) / wall_s
                 : 0.0;
  Detail("host",
         JsonObject({
             {"wall_s", JsonNumber(wall_s)},
             {"steal_share", JsonNumber(steal_share)},
             {"iowait_share", JsonNumber(iowait_share)},
             {"foreign_cpu_cores", JsonNumber(foreign_cores)},
             {"own_cpu_cores", JsonNumber(wall_s > 0 ? own_cpu_s / wall_s : 0.0)},
             {"involuntary_switches",
              JsonNumber(static_cast<double>(end.involuntary_switches -
                                             host_start_.involuntary_switches))},
             {"probe_ms_start", JsonNumber(host_start_.probe_ms)},
             {"probe_ms_end", JsonNumber(end.probe_ms)},
         }));
  if (steal_share > kMaxStealShare) {
    Invalidate("host contended: " + std::to_string(steal_share) +
               " of CPU time stolen by the hypervisor");
  }
  if (foreign_cores > kMaxForeignCores) {
    Invalidate("host contended: other processes used " +
               std::to_string(foreign_cores) + " cores on average");
  }
  const double probe_drift = end.probe_ms / host_start_.probe_ms - 1.0;
  if (!(std::abs(probe_drift) <= kMaxProbeDrift)) {
    Invalidate("host changed speed: the speed probe took " +
               std::to_string(host_start_.probe_ms) + " ms at the start and " +
               std::to_string(end.probe_ms) + " ms at the end");
  }
}

int Run::Finish() {
  CheckHost();
  std::vector<Json> invalid;
  for (const std::string& why : invalid_) invalid.push_back(JsonString(why));
  std::vector<std::pair<std::string, Json>> detail = {
      {"workload", JsonString(args_.workload)},
      {"seed", JsonNumber(static_cast<double>(args_.seed))},
      {"seconds", JsonNumber(args_.seconds)},
      {"trace", args_.trace ? "true" : "false"},
      {"valid", invalid_.empty() ? "true" : "false"},
      {"invalid_because", JsonArray(invalid)},
      {"gates", JsonArray(gates_)},
      {"provenance", Provenance(args_.seed)},
  };
  detail.insert(detail.end(), detail_.begin(), detail_.end());
  std::printf("%s\n", JsonObject({{"kbench_detail", JsonObject(detail)}}).c_str());

  const Json metrics = MetricsJson(traced() ? layers_ : end_to_end_);
  std::printf("%s\n",
              JsonObject({{"correct", correct_ ? "true" : "false"},
                          {"attempted", JsonNumber(static_cast<double>(
                                            std::max<int64_t>(attempted_, 1)))},
                          {"failed", JsonNumber(static_cast<double>(failed_))},
                          {"metrics", metrics}})
                  .c_str());
  std::fflush(stdout);
  return correct_ ? 0 : 1;
}

// ---- Environment ------------------------------------------------------------

Json Provenance(uint64_t seed) {
  const char* sha = std::getenv("KBENCH_GIT_SHA");
  const char* build_type =
#ifdef KBENCH_BUILD_TYPE
      KBENCH_BUILD_TYPE;
#else
      "unknown";
#endif
  return JsonObject({
      {"git_sha", JsonString(sha != nullptr && *sha != '\0' ? sha : "unknown")},
      {"nproc", JsonNumber(static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)))},
      {"pool_workers",
       JsonNumber(static_cast<double>(kucnet::GlobalPool().num_threads()))},
      {"simd", JsonString(kucnet::SimdLevelName(kucnet::ActiveSimdLevel()))},
      {"build_type", JsonString(build_type)},
      {"obs_compiled", KUCNET_OBS ? "true" : "false"},
      {"obs_enabled", kucnet::obs::Enabled() ? "true" : "false"},
      {"cpu", JsonString(ReadCpuModel())},
      {"seed", JsonNumber(static_cast<double>(seed))},
  });
}

void PinCallingThread(int k) {
  const int cpus = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  if (cpus < 1) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu = 0; cpu < cpus; ++cpu) {
    if (k < 0 || cpu == k % cpus) CPU_SET(cpu, &set);
  }
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

double SpeedProbeMillis() {
  constexpr uint64_t kSteps = 10'000'000;
  constexpr int kRounds = 5;
  std::vector<double> millis;
  uint64_t x = 1;
  for (int round = 0; round < kRounds; ++round) {
    const int64_t start = NowMicros();
    // A dependent chain of multiplies and shifts: no memory traffic, so its
    // time depends only on how fast this core runs the thread.
    for (uint64_t step = 0; step < kSteps; ++step) {
      x = (x * 6364136223846793005ULL + 1442695040888963407ULL) ^ (x >> 29);
    }
    millis.push_back(static_cast<double>(NowMicros() - start) * 1e-3);
  }
  // Keeps the chain from being optimised away.
  if (x == 0) std::fprintf(stderr, "speed probe chain reached 0\n");
  return Quantile(millis, 0.5);
}

HostSample SampleHost() {
  HostSample sample;
  sample.probe_ms = SpeedProbeMillis();
  sample.wall_us = NowMicros();
  // Aggregate "cpu" line: user nice system idle iowait irq softirq steal, in
  // clock ticks summed over all CPUs (guest time is already inside user).
  std::ifstream in("/proc/stat");
  std::string label;
  double ticks[8] = {};
  in >> label;
  for (double& t : ticks) in >> t;
  if (label == "cpu" && in) {
    const double tick_s = 1.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
    sample.busy_s = (ticks[0] + ticks[1] + ticks[2] + ticks[5] + ticks[6]) * tick_s;
    sample.iowait_s = ticks[4] * tick_s;
    sample.steal_s = ticks[7] * tick_s;
    for (const double t : ticks) sample.total_s += t * tick_s;
  }
  const auto cpu_s = [](const rusage& u) {
    return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
           static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) * 1e-6;
  };
  rusage self{}, children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  sample.own_cpu_s = cpu_s(self) + cpu_s(children);
  sample.involuntary_switches = self.ru_nivcsw;
  return sample;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<double>(std::strtoll(line.c_str() + 6, nullptr, 10)) /
             1024.0;
    }
  }
  return 0.0;
}

bool MakeDirs(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  return !ec && std::filesystem::is_directory(path);
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

// ---- Inputs -----------------------------------------------------------------

Dataset MakeSynthLastFm(kucnet::SplitKind kind) {
  const kucnet::SyntheticData synth =
      kucnet::GenerateSynthetic(kucnet::SynthLastFmConfig());
  if (kind == kucnet::SplitKind::kTemporal) {
    return kucnet::TemporalSplit(synth.raw, synth.arrival_order, 0.8);
  }
  kucnet::Rng rng(1);
  return kucnet::TraditionalSplit(synth.raw, 0.2, rng);
}

// ---- Load generation --------------------------------------------------------

int64_t UserPasses::Next() {
  if (next_ == order_.size()) {
    order_.resize(static_cast<size_t>(n_));
    for (int64_t i = 0; i < n_; ++i) order_[static_cast<size_t>(i)] = i;
    rng_->Shuffle(order_);
    next_ = 0;
  }
  return order_[next_++];
}

std::vector<Request> PoissonSchedule(kucnet::Rng& rng, double rate,
                                     double seconds, int64_t num_users) {
  std::vector<Request> out;
  UserPasses users(&rng, num_users);
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.Uniform()) / rate;
    if (t >= seconds) break;
    Request r;
    r.user = users.Next();
    r.due_us = static_cast<int64_t>(t * 1e6);
    out.push_back(std::move(r));
  }
  return out;
}

namespace {

constexpr int64_t kPollMicros = 50;
/// The last stretch before a send is spun rather than slept: a sleep on a
/// virtual machine overshoots by tens of microseconds, and a send's
/// lateness counts in its latency.
constexpr int64_t kSpinMicros = 200;

/// Records the answer of every outstanding request whose future resolved
/// and drops it from `outstanding`.
void PollAnswers(std::vector<Request>& requests,
                 std::vector<std::future<RecResponse>>& futures,
                 std::vector<size_t>* outstanding) {
  size_t kept = 0;
  for (const size_t i : *outstanding) {
    if (futures[i].wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
      requests[i].done_us = NowMicros();
      requests[i].response = futures[i].get();
      requests[i].answered = true;
    } else {
      (*outstanding)[kept++] = i;
    }
  }
  outstanding->resize(kept);
}

}  // namespace

void RunOpenLoop(RecServer& server, int64_t start_us,
                 std::vector<Request>* schedule, int64_t drain_us,
                 const std::function<void()>& on_send) {
  std::vector<Request>& requests = *schedule;
  std::vector<std::future<RecResponse>> futures(requests.size());
  std::vector<size_t> outstanding;
  // Waits on the oldest outstanding future rather than sleeping, so its
  // answer is observed as soon as it lands; with none outstanding, sleeps
  // until just before the send.
  const auto wait_until = [&](int64_t when_us) {
    while (true) {
      PollAnswers(requests, futures, &outstanding);
      const int64_t remaining = when_us - NowMicros();
      if (remaining <= 0) return;
      if (remaining <= kSpinMicros) {
        std::this_thread::yield();
      } else if (outstanding.empty()) {
        std::this_thread::sleep_for(std::chrono::microseconds(remaining - kSpinMicros));
      } else {
        futures[outstanding.front()].wait_for(
            std::chrono::microseconds(std::min(kPollMicros, remaining - kSpinMicros)));
      }
    }
  };
  for (size_t i = 0; i < requests.size(); ++i) {
    Request& r = requests[i];
    r.due_us += start_us;
    wait_until(r.due_us);
    r.sent_us = NowMicros();
    futures[i] = server.Submit({r.user, kTopN, kLimitMicros});
    r.submit_us = static_cast<double>(NowMicros() - r.sent_us);
    outstanding.push_back(i);
    if (on_send) on_send();
  }
  const int64_t give_up =
      (requests.empty() ? NowMicros() : requests.back().due_us) + drain_us;
  while (!outstanding.empty() && NowMicros() < give_up) {
    futures[outstanding.front()].wait_for(std::chrono::microseconds(kPollMicros));
    PollAnswers(requests, futures, &outstanding);
  }
}

std::vector<Request> RunClosedLoop(RecServer& server,
                                   const std::function<int64_t()>& next_user,
                                   double seconds, int concurrency,
                                   int64_t drain_us) {
  std::vector<Request> requests;
  std::vector<std::future<RecResponse>> futures;
  std::vector<size_t> outstanding;
  const int64_t end = NowMicros() + static_cast<int64_t>(seconds * 1e6);
  const int64_t give_up = end + drain_us;
  while (NowMicros() < (outstanding.empty() ? end : give_up)) {
    while (NowMicros() < end && outstanding.size() < static_cast<size_t>(concurrency)) {
      Request r;
      r.user = next_user();
      r.due_us = r.sent_us = NowMicros();
      futures.push_back(server.Submit({r.user, kTopN, kLimitMicros}));
      r.submit_us = static_cast<double>(NowMicros() - r.sent_us);
      outstanding.push_back(requests.size());
      requests.push_back(std::move(r));
    }
    if (outstanding.empty()) break;
    // Blocks on the oldest request rather than sleeping, so with one
    // request outstanding its answer is observed as soon as it lands.
    futures[outstanding.front()].wait_for(std::chrono::microseconds(kPollMicros));
    PollAnswers(requests, futures, &outstanding);
  }
  return requests;
}

double PhaseReport::best_window_goodput_rps() const {
  if (goodput_windows.size() < 2) return goodput_rps();
  const size_t n = goodput_windows.size() - 1;
  const size_t w = std::min<size_t>(kQuantileWindows, n);
  double best = 0.0;
  for (size_t k = 0; k < w; ++k) {
    const size_t begin = k * n / w, end = (k + 1) * n / w;
    double sum = 0.0;
    for (size_t i = begin; i < end; ++i) sum += goodput_windows[i];
    best = std::max(best, sum / static_cast<double>(end - begin));
  }
  return best;
}

Json PhaseReport::ToJson() const {
  std::vector<std::pair<std::string, Json>> tier_fields;
  for (int t = 0; t < kucnet::kNumServeTiers; ++t) {
    tier_fields.push_back({kucnet::ServeTierName(static_cast<ServeTier>(t)),
                           JsonNumber(static_cast<double>(tiers[t]))});
  }
  return JsonObject({
      {"offered_rps", JsonNumber(offered_rps)},
      {"seconds", JsonNumber(seconds)},
      {"sent", JsonNumber(static_cast<double>(sent))},
      {"ok", JsonNumber(static_cast<double>(ok))},
      {"shed", JsonNumber(static_cast<double>(shed))},
      {"shutdown", JsonNumber(static_cast<double>(shutdown))},
      {"unanswered", JsonNumber(static_cast<double>(unanswered))},
      {"empty", JsonNumber(static_cast<double>(empty))},
      {"full_within_limit", JsonNumber(static_cast<double>(full_within_limit))},
      {"full_late", JsonNumber(static_cast<double>(full_late))},
      {"goodput_rps", JsonNumber(goodput_rps())},
      {"full_rps", JsonNumber(full_rps())},
      {"tiers", JsonObject(tier_fields)},
      {"latency_us", JsonSummary(latency_us)},
      {"lateness_us", JsonSummary(lateness_us)},
      {"generator_valid", generator_valid ? "true" : "false"},
      {"goodput_windows", JsonArray([this] {
         std::vector<Json> items;
         for (const double v : goodput_windows) items.push_back(JsonNumber(v));
         return items;
       }())},
  });
}

PhaseReport Report(const std::string& name, double offered_rps,
                   double seconds, const std::vector<Request>& requests,
                   bool open_loop) {
  PhaseReport report;
  report.name = name;
  report.offered_rps = offered_rps;
  report.seconds = seconds;
  std::vector<double> latency, lateness;
  constexpr int64_t kWindowMicros = 500'000;
  const int64_t first_due = requests.empty() ? 0 : requests.front().due_us;
  for (const Request& r : requests) {
    ++report.sent;
    lateness.push_back(r.lateness_us());
    if (!r.answered) {
      ++report.unanswered;
      continue;
    }
    const RecResponse& resp = r.response;
    if (resp.status == ResponseStatus::kOverloaded) {
      ++report.shed;
      continue;
    }
    if (resp.status == ResponseStatus::kShutdown) {
      ++report.shutdown;
      continue;
    }
    if (resp.items.empty()) {
      ++report.empty;
      continue;
    }
    ++report.ok;
    ++report.tiers[static_cast<int>(resp.tier)];
    latency.push_back(r.latency_us());
    if (resp.tier == ServeTier::kFull &&
        r.latency_us() <= static_cast<double>(kLimitMicros)) {
      ++report.full_within_limit;
      const auto window = static_cast<size_t>((r.due_us - first_due) / kWindowMicros);
      if (report.goodput_windows.size() <= window) {
        report.goodput_windows.resize(window + 1, 0.0);
      }
      report.goodput_windows[window] += 1e6 / kWindowMicros;
    } else if (resp.tier == ServeTier::kFull) {
      ++report.full_late;
    }
  }
  report.latency_us = Summarize(latency);
  report.lateness_us = Summarize(lateness);
  if (open_loop) {
    report.generator_valid =
        Quantile(lateness, 0.99) <= static_cast<double>(kLimitMicros);
  }
  return report;
}

void AddPhase(Run& run, const PhaseReport& report) {
  run.CountAttempted(report.sent);
  run.CountFailed(report.failed());
  run.Detail("phase." + report.name, report.ToJson());
  if (!report.generator_valid) {
    run.Invalidate("load generator fell behind in phase " + report.name +
                   " (send lateness p99 above the latency limit)");
  }
}

// ---- Oracle -----------------------------------------------------------------

FullTierOracle::FullTierOracle(const kucnet::Kucnet* model,
                               const Dataset* dataset, kucnet::GraphRef graph,
                               const kucnet::PprTable* ppr) {
  kucnet::RecServerOptions options;
  options.num_workers = 0;
  options.default_top_n = kTopN;
  options.default_deadline_micros = 600'000'000;  // never degrades
  server_ = std::make_unique<RecServer>(model, dataset, graph, ppr, options);
}

bool FullTierOracle::Matches(int64_t user, const RecResponse& response) {
  auto it = memo_.find(user);
  if (it == memo_.end()) {
    const RecResponse truth = server_->ServeSync({user, kTopN, 600'000'000});
    std::vector<kucnet::ScoredItem> items;
    if (truth.status == ResponseStatus::kOk && truth.tier == ServeTier::kFull) {
      items = truth.items;
    }
    it = memo_.emplace(user, std::move(items)).first;
  }
  const std::vector<kucnet::ScoredItem>& want = it->second;
  if (want.empty() || want.size() != response.items.size()) return false;
  for (size_t k = 0; k < want.size(); ++k) {
    if (want[k].item != response.items[k].item ||
        std::memcmp(&want[k].score, &response.items[k].score,
                    sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

void GateResponses(Run& run, const std::string& phase,
                   const std::vector<Request>& requests,
                   FullTierOracle& oracle) {
  int64_t unanswered = 0, empty = 0, full = 0, mismatched = 0;
  for (const Request& r : requests) {
    if (!r.answered) {
      ++unanswered;
      continue;
    }
    if (r.response.status != ResponseStatus::kOk) continue;
    if (r.response.items.empty()) ++empty;
    if (r.response.tier == ServeTier::kFull) {
      ++full;
      if (!oracle.Matches(r.user, r.response)) ++mismatched;
    }
  }
  run.Gate(phase + ".no_unanswered", unanswered == 0,
           std::to_string(unanswered) + " futures unresolved");
  run.Gate(phase + ".ok_nonempty", empty == 0,
           std::to_string(empty) + " empty kOk responses");
  run.Gate(phase + ".full_tier_equals_oracle", mismatched == 0,
           std::to_string(mismatched) + " of " + std::to_string(full) +
               " full-tier responses differ from the num_workers=0 oracle");
}

kucnet::RecServerOptions ServingOptions(int64_t num_users, bool warm_cache) {
  kucnet::RecServerOptions options;
  options.num_workers = 2;
  // Deep enough that the overload phase degrades requests instead of
  // shedding them: every request gets an answer, a late one counts against
  // the full tier.
  options.queue_capacity = 256;
  options.default_top_n = kTopN;
  options.default_deadline_micros = kLimitMicros;
  options.batch_max_users = 4;
  options.batch_linger_micros = 0;
  if (warm_cache) {
    options.warm_cache_users = num_users;
    options.cache.capacity = std::max(options.cache.capacity, num_users);
  }
  return options;
}

void SetServeLayerMetrics(Run& run, const kucnet::ServerStats& before,
                          const kucnet::ServerStats& after,
                          const PhaseReport& report,
                          const std::vector<double>& queue_depth) {
  const auto delta = [](int64_t a, int64_t b) { return static_cast<double>(b - a); };
  const double batches = delta(before.forward_batches, after.forward_batches);
  const double sent = static_cast<double>(std::max<int64_t>(report.sent, 1));
  run.SetLayer("serve.batch_size_mean",
               batches > 0 ? delta(before.batched_requests, after.batched_requests) /
                                 batches
                           : 0.0);
  run.SetLayer("serve.multi_batch_share",
               batches > 0 ? delta(before.multi_user_batches,
                                   after.multi_user_batches) /
                                 batches
                           : 0.0);
  run.SetLayer("serve.preempted_share",
               delta(before.deadline_preempted, after.deadline_preempted) / sent);
  run.SetLayer("serve.deadline_missed_share",
               delta(before.deadline_missed, after.deadline_missed) / sent);
  run.SetLayer("serve.shed_share", static_cast<double>(report.shed) / sent);
  run.SetLayer("serve.tier_share.full", report.tier_share(ServeTier::kFull));
  run.SetLayer("serve.tier_share.cached", report.tier_share(ServeTier::kCached));
  run.SetLayer("serve.tier_share.heuristic",
               report.tier_share(ServeTier::kHeuristic));
  run.SetLayer("serve.tier_share.popularity",
               report.tier_share(ServeTier::kPopularity));
  run.SetLayer("serve.queue_depth_mean", Mean(queue_depth));
}

void SetQueueWaitMetrics(Run& run, const std::vector<Request>& requests,
                         const std::vector<double>& replayed_service_us) {
  std::vector<double> submit, wait;
  for (size_t i = 0; i < requests.size(); ++i) {
    submit.push_back(requests[i].submit_us);
    if (i < replayed_service_us.size() && requests[i].answered) {
      wait.push_back(requests[i].latency_us() - replayed_service_us[i]);
    }
  }
  run.SetLayer("serve.submit_us", Quantile(submit, 0.5));
  run.SetLayer("serve.queue_wait_us", Quantile(wait, 0.5));
}

std::vector<int64_t> FirstUsers(const std::vector<Request>& requests, size_t n) {
  std::vector<int64_t> users;
  for (size_t i = 0; i < requests.size() && i < n; ++i) {
    users.push_back(requests[i].user);
  }
  return users;
}

// ---- Traced replay ----------------------------------------------------------

std::vector<double> ReplaySplit(Run& run, const kucnet::Kucnet& model,
                                kucnet::GraphRef graph,
                                const kucnet::PprTable& ppr,
                                FullTierOracle& oracle,
                                const std::vector<int64_t>& users) {
  SpanRecorder& spans = *run.spans();
  kucnet::CompGraphOptions build_options;
  build_options.depth = model.options().depth;
  build_options.max_edges_per_node = model.options().sample_k;
  build_options.prune = model.options().prune;
  build_options.self_loops = true;
  const kucnet::CompGraphBuilder builder(graph, build_options);
  const kucnet::ExecContext unbounded;

  std::vector<double> sync_us, extract_us, forward_us, residual_us, build_us,
      edges, many_us_per_user;
  int64_t failed_calls = 0;
  double lookup_ns_total = 0.0, lookups = 0.0, score_sink = 0.0;
  for (size_t i = 0; i < users.size(); ++i) {
    const int64_t user = users[i];
    const auto request = static_cast<int64_t>(i);
    SpanRecorder::Scope root(spans, "request", request, -1);

    SpanRecorder::Scope sync(spans, "serve.sync", request, root.id());
    const RecResponse whole = oracle.server().ServeSync({user, kTopN, 600'000'000});
    sync_us.push_back(sync.EndMicros());
    failed_calls += whole.status != ResponseStatus::kOk || whole.items.empty();

    kucnet::KucnetForward forward;
    SpanRecorder::Scope extract(spans, "core.extract", request, root.id());
    const kucnet::Status extracted = model.TryExtractGraph(user, unbounded, &forward);
    extract_us.push_back(extract.EndMicros());
    edges.push_back(static_cast<double>(forward.graph.TotalEdges()));
    SpanRecorder::Scope fwd(spans, "core.forward", request, root.id());
    const kucnet::Status forwarded = model.TryForwardOnGraph(unbounded, &forward);
    forward_us.push_back(fwd.EndMicros());
    failed_calls += !extracted.ok() || !forwarded.ok();
    residual_us.push_back(sync_us.back() - extract_us.back() - forward_us.back());

    // Pruned-graph construction on its own, with the user's PPR ScoreFn.
    kucnet::UserCompGraph built;
    const kucnet::NodeScoreFn score = ppr.ScoreFn(user);
    kucnet::Rng rng(model.options().seed ^ (0x9e37 + static_cast<uint64_t>(user)));
    SpanRecorder::Scope build(spans, "graph.build", request, root.id());
    const kucnet::Status built_ok = builder.TryBuild(
        graph.UserNode(user), &score, &rng, {}, unbounded, &built);
    build_us.push_back(build.EndMicros());
    failed_calls += !built_ok.ok();

    // PPR lookups over every candidate tail the build scored: the
    // out-neighbours of every expanded head node.
    std::vector<int64_t> candidates;
    std::vector<int64_t> heads = {built.user_node};
    for (size_t l = 0; l + 1 < built.layers.size(); ++l) {
      heads.insert(heads.end(), built.layers[l].nodes.begin(),
                   built.layers[l].nodes.end());
    }
    graph.Visit([&](const auto& g) {
      for (const int64_t head : heads) {
        for (const auto node : g.OutNeighbors(head)) {
          candidates.push_back(static_cast<int64_t>(node));
        }
      }
    });
    SpanRecorder::Scope lookup(spans, "ppr.lookup", request, root.id());
    for (const int64_t node : candidates) score_sink += ppr.Score(user, node);
    lookup_ns_total += lookup.EndMicros() * 1e3;
    lookups += static_cast<double>(candidates.size());

    if (i % 4 == 0 && i + 4 <= users.size()) {
      std::vector<kucnet::KucnetForward> outs(4);
      std::vector<kucnet::KucnetForwardWork> work(4);
      SpanRecorder::Scope batch_extract(spans, "core.extract_batch", request,
                                        root.id());
      for (size_t b = 0; b < 4; ++b) {
        work[b].user = users[i + b];
        work[b].out = &outs[b];
        (void)model.TryExtractGraph(work[b].user, unbounded, work[b].out);
      }
      batch_extract.EndMicros();
      SpanRecorder::Scope many(spans, "core.forward_many", request, root.id());
      model.TryForwardMany(&work, /*graphs_extracted=*/true);
      many_us_per_user.push_back(many.EndMicros() / 4.0);
      for (const auto& w : work) failed_calls += !w.status.ok();
    }
  }
  run.Gate("replay.calls_ok", failed_calls == 0,
           std::to_string(failed_calls) + " replayed calls failed");
  run.SetLayer("serve.sync_us", Quantile(sync_us, 0.5));
  run.SetLayer("serve.rank_residual_us", Quantile(residual_us, 0.5));
  run.SetLayer("core.extract_us", Quantile(extract_us, 0.5));
  run.SetLayer("core.forward_us", Quantile(forward_us, 0.5));
  run.SetLayer("core.forward_many_us_per_user", Quantile(many_us_per_user, 0.5));
  run.SetLayer("graph.build_us", Quantile(build_us, 0.5));
  run.SetLayer("graph.edges_per_request", Mean(edges));
  run.SetLayer("ppr.lookup_ns", lookups > 0 ? lookup_ns_total / lookups : 0.0);
  run.Detail("replay", JsonObject({
                           {"requests", JsonNumber(static_cast<double>(users.size()))},
                           {"sync_us", JsonSummary(Summarize(sync_us))},
                           {"extract_us", JsonSummary(Summarize(extract_us))},
                           {"forward_us", JsonSummary(Summarize(forward_us))},
                           {"rank_residual_us", JsonSummary(Summarize(residual_us))},
                           {"graph_build_us", JsonSummary(Summarize(build_us))},
                           {"ppr_lookups", JsonNumber(lookups)},
                           {"score_checksum", JsonNumber(score_sink)},
                       }));
  return sync_us;
}

void ProbeTensorKernels(Run& run, const kucnet::UserCompGraph& graph,
                        int64_t d) {
  size_t widest = 0;
  for (size_t l = 0; l < graph.layers.size(); ++l) {
    if (graph.layers[l].num_edges() > graph.layers[widest].num_edges()) widest = l;
  }
  if (graph.layers.empty() || graph.layers[widest].num_edges() == 0) return;
  const kucnet::CompLayer& layer = graph.layers[widest];
  const int64_t e = layer.num_edges();
  const int64_t prev_nodes =
      widest == 0 ? 1 : static_cast<int64_t>(graph.layers[widest - 1].nodes.size());
  const int64_t nodes = static_cast<int64_t>(layer.nodes.size());
  kucnet::Rng rng(7);
  const auto random = [&rng](int64_t rows, int64_t cols) {
    kucnet::Matrix m(rows, cols);
    for (int64_t k = 0; k < rows * cols; ++k) m.data()[k] = rng.Uniform(-1, 1);
    return m;
  };
  const kucnet::Matrix a = random(e, d), w = random(d, d),
                       h = random(prev_nodes, d), messages = random(e, d);
  constexpr int kReps = 200;
  std::vector<double> matmul_us, gather_us, segment_us;
  double sink = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    int64_t start = NowMicros();
    const kucnet::Matrix c = kucnet::MatMul(a, w);
    matmul_us.push_back(static_cast<double>(NowMicros() - start));
    sink += c.at(0, 0);

    // The tape copies its inputs in Constant(); that copy stays outside the
    // timed region, so only the kernel itself is measured.
    kucnet::Tape gather_tape;
    const kucnet::Var hv = gather_tape.Constant(h);
    start = NowMicros();
    const kucnet::Var g = gather_tape.Gather(hv, layer.src_index);
    gather_us.push_back(static_cast<double>(NowMicros() - start));
    sink += gather_tape.value(g).at(0, 0);

    kucnet::Tape segment_tape;
    const kucnet::Var mv = segment_tape.Constant(messages);
    start = NowMicros();
    const kucnet::Var s = segment_tape.SegmentSum(mv, layer.dst_index, nodes);
    segment_us.push_back(static_cast<double>(NowMicros() - start));
    sink += segment_tape.value(s).at(0, 0);
  }
  const double ed = static_cast<double>(e * d);
  run.SetLayer("tensor.matmul_us", Quantile(matmul_us, 0.5));
  run.SetLayer("tensor.matmul_flop", 2.0 * ed * static_cast<double>(d));
  run.SetLayer("tensor.matmul_bytes", 8.0 * (2.0 * ed + static_cast<double>(d * d)));
  run.SetLayer("tensor.gather_us", Quantile(gather_us, 0.5));
  run.SetLayer("tensor.gather_bytes", 8.0 * (2.0 * ed + static_cast<double>(e)));
  run.SetLayer("tensor.segment_sum_us", Quantile(segment_us, 0.5));
  run.SetLayer("tensor.segment_sum_flop", ed);
  run.SetLayer("tensor.segment_sum_bytes",
               8.0 * (ed + static_cast<double>(nodes * d) + static_cast<double>(e)));
  run.Detail("tensor_shape",
             JsonObject({{"edges", JsonNumber(static_cast<double>(e))},
                         {"d", JsonNumber(static_cast<double>(d))},
                         {"src_nodes", JsonNumber(static_cast<double>(prev_nodes))},
                         {"dst_nodes", JsonNumber(static_cast<double>(nodes))},
                         {"checksum", JsonNumber(sink)}}));
}

void FinishTrace(Run& run, int64_t requests_replayed) {
  SpanRecorder& spans = *run.spans();
  std::vector<std::pair<double, std::string>> ranked;
  std::vector<std::pair<std::string, Json>> self_fields;
  for (const auto& [name, samples] : spans.SelfMicrosByName()) {
    self_fields.push_back({name, JsonSummary(Summarize(samples))});
    // The ranking orders the per-request layers. The request root and the
    // whole-request ServeSync are totals, and the four-user batch spans
    // are a separate measurement of the batched path.
    if (name != "request" && name != "serve.sync" &&
        name != "core.extract_batch" && name != "core.forward_many") {
      ranked.push_back({Quantile(samples, 0.5), name});
    }
  }
  std::sort(ranked.rbegin(), ranked.rend());
  std::vector<Json> order;
  for (const auto& entry : ranked) order.push_back(JsonString(entry.second));
  const double overhead_ns = SpanRecorder::OverheadNanosPerSpan();
  run.SetLayer("trace.spans", static_cast<double>(spans.size()));
  run.SetLayer("trace.span_overhead_ns", overhead_ns);
  const std::string path = run.args().work_dir + "/spans_" +
                           run.args().workload + "_" +
                           std::to_string(run.args().seed) + ".json";
  const bool written = MakeDirs(run.args().work_dir) && spans.WriteChromeJson(path);
  run.Gate("trace.span_file_written", written, path);
  run.Detail("trace", JsonObject({
                          {"span_file", JsonString(path)},
                          {"spans", JsonNumber(static_cast<double>(spans.size()))},
                          {"requests_replayed",
                           JsonNumber(static_cast<double>(requests_replayed))},
                          {"overhead_us_per_request",
                           JsonNumber(requests_replayed > 0
                                          ? overhead_ns * 1e-3 *
                                                static_cast<double>(spans.size()) /
                                                static_cast<double>(requests_replayed)
                                          : 0.0)},
                          {"self_us", JsonObject(self_fields)},
                          {"self_time_order", JsonArray(order)},
                      }));
}

}  // namespace kbench
