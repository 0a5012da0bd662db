#ifndef KUCNET_BENCHMARK_COMMON_H_
#define KUCNET_BENCHMARK_COMMON_H_

#include <array>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "serve/rec_server.h"
#include "spans.h"
#include "stats.h"
#include "util/clock.h"
#include "util/rng.h"

/// \file
/// Shared machinery of the repository benchmark: arguments, the result and
/// its correctness gates, provenance, inputs, and the load generators.

namespace kbench {

using kucnet::Dataset;
using kucnet::RecResponse;
using kucnet::RecServer;

// ---- Fixed workload parameters ---------------------------------------------
// These are part of the benchmark's definition: changing one changes what
// every earlier result means, so they are constants, never recalibrated.

/// Latency limit of a request (and the server's per-request deadline).
inline constexpr int64_t kLimitMicros = 20'000;
/// Items per recommendation.
inline constexpr int64_t kTopN = 20;
/// Set-ups per run; setup_s reports their median.
inline constexpr int kSetups = 3;
/// Workers of the shared compute pool in every workload: one, so kernels
/// run inline on the thread that calls them, and the concurrency is the
/// server's own (extraction workers and batcher). With more, every kernel
/// of a request fans out and waits for all workers; on a shared virtual
/// machine a worker that the host preempts or is slow to wake then stalls
/// the request. On a 4-vCPU VM a 2-worker pool made a top-20 request 2.6x
/// slower than inline kernels (3.9 ms against 1.5 ms) and moved serve's
/// latency by 30% at 1-3% stolen CPU time, where inline kernels moved it
/// by about half that.
inline constexpr int kPoolWorkers = 1;
/// A run is marked invalid when the hypervisor stole more than this share
/// of the machine's CPU time while it ran ...
inline constexpr double kMaxStealShare = 0.01;
/// ... or when other processes kept more than this many cores busy on
/// average: the figures would then measure the neighbours, not the code ...
inline constexpr double kMaxForeignCores = 0.25;
/// ... or when the speed probe's time at the end of the run differs from
/// its time at the start by more than this share: the host changed speed
/// while the run measured.
inline constexpr double kMaxProbeDrift = 0.2;

// ---- Arguments and result ---------------------------------------------------

/// CPU accounting of the machine and of this process at one instant. Two
/// samples tell a quiet host from a contended one.
struct HostSample {
  int64_t wall_us = 0;
  double busy_s = 0.0;   ///< all CPUs: user, nice, system, irq, softirq
  double iowait_s = 0.0;
  double steal_s = 0.0;  ///< time the hypervisor gave to other machines
  double total_s = 0.0;  ///< all CPUs, every state
  double own_cpu_s = 0.0;  ///< this process and its waited-for children
  int64_t involuntary_switches = 0;  ///< this process's threads
  double probe_ms = 0.0;  ///< SpeedProbeMillis()
};

/// Reads /proc/stat and getrusage and runs the speed probe.
HostSample SampleHost();

/// Times a fixed single-threaded arithmetic chain and returns the median of
/// five rounds in ms. The work is the same on every run, so its time tracks
/// how fast the host runs this process: clock frequency and a core shared
/// with a neighbour's hyperthread slow it without any time showing as
/// stolen.
double SpeedProbeMillis();

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for WALs, generated containers and span files.
  std::string work_dir = ".bench_build/work";
};

/// Parses `--workload W --seed N --seconds S --trace 0|1 [--work_dir D]`.
/// Returns false (after printing why) on a malformed command line.
bool ParseArgs(int argc, char** argv, Args* out);

/// A JSON value rendered to text; built with the helpers below.
using Json = std::string;
Json JsonNumber(double value);
Json JsonString(const std::string& value);
Json JsonObject(const std::vector<std::pair<std::string, Json>>& fields);
Json JsonArray(const std::vector<Json>& items);
Json JsonSummary(const Summary& s);

/// One run's result: metrics, correctness gates, failure accounting and the
/// free-form detail (phases, provenance) printed before the result line.
class Run {
 public:
  explicit Run(Args args);

  const Args& args() const { return args_; }
  bool traced() const { return args_.trace; }
  /// The span recorder of a traced run; null in a timed run.
  SpanRecorder* spans() { return spans_.get(); }

  /// Sets an end-to-end metric. BENCHMARK.json is the list of names and
  /// units; run.py checks the printed names against it.
  void SetEndToEnd(const std::string& name, double value);
  /// Sets a per-layer metric (printed by a traced run only).
  void SetLayer(const std::string& name, double value);

  /// Records a correctness gate. A failed gate makes the run incorrect and
  /// its exit code nonzero.
  void Gate(const std::string& name, bool ok, const std::string& why = "");

  void CountAttempted(int64_t n) { attempted_ += n; }
  void CountFailed(int64_t n) { failed_ += n; }

  /// Marks the run invalid (a load generator fell behind its schedule, or
  /// the host was contended): the detail line says so and compare.py leaves
  /// the run out. The exit code stays that of the gates, since the outputs
  /// were still correct.
  void Invalidate(const std::string& why);

  /// Adds a field to the detail object.
  void Detail(const std::string& key, Json value);

  /// Prints the detail line and the result line (metrics as name: value;
  /// run.py attaches the units); returns the exit code.
  int Finish();

 private:
  /// Adds the host's CPU accounting since construction to the detail and
  /// marks the run invalid when the host was contended.
  void CheckHost();

  Args args_;
  HostSample host_start_;
  std::unique_ptr<SpanRecorder> spans_;
  std::map<std::string, double> end_to_end_;
  std::map<std::string, double> layers_;
  std::vector<std::pair<std::string, Json>> detail_;
  std::vector<Json> gates_;
  bool correct_ = true;
  std::vector<std::string> invalid_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

// ---- Environment ------------------------------------------------------------

/// Provenance block: git sha, cores, pool size, SIMD level, build type,
/// observability compiled in / enabled, CPU model, seed.
Json Provenance(uint64_t seed);

/// Pins the calling thread to online CPU `k` modulo their count, or, for a
/// negative `k`, lets it run on every online CPU again. Best effort: a CPU
/// the process may not use leaves the thread where it was.
void PinCallingThread(int k);

/// Peak resident set size of this process in MiB (VmHWM).
double PeakRssMb();

/// Microseconds on the monotonic clock the load generators use.
inline int64_t NowMicros() { return kucnet::RealClock().NowMicros(); }

/// Creates `path` and its parents. Returns false on failure.
bool MakeDirs(const std::string& path);
/// Removes `path` recursively (best effort).
void RemoveTree(const std::string& path);

// ---- Inputs -----------------------------------------------------------------

/// The synth-lastfm dataset, split traditionally (20% held out per user) or
/// temporally (last 20% of arrivals held out, in arrival order). The graph
/// is the configuration's own fixed one for every seed: the seed drives the
/// traffic, so runs with different seeds measure the same system under
/// different request sequences rather than different graphs.
Dataset MakeSynthLastFm(kucnet::SplitKind kind);

/// Sets up `kSetups` times, keeping only the last instance alive at a time,
/// and returns the last; `setup_seconds` receives each set-up's wall time.
template <typename T>
std::unique_ptr<T> SetUpRepeatedly(const std::function<std::unique_ptr<T>()>& build,
                                   std::vector<double>* setup_seconds) {
  std::unique_ptr<T> last;
  for (int i = 0; i < kSetups; ++i) {
    last.reset();
    const int64_t start = NowMicros();
    last = build();
    setup_seconds->push_back(static_cast<double>(NowMicros() - start) * 1e-6);
  }
  return last;
}

// ---- Load generation --------------------------------------------------------

/// One read request as the load generator saw it.
struct Request {
  int64_t user = 0;
  int64_t due_us = 0;     ///< scheduled send time
  int64_t sent_us = 0;    ///< actual send time
  int64_t done_us = -1;   ///< when the generator observed the response
  double submit_us = 0;   ///< duration of the Submit call itself
  bool answered = false;  ///< the future resolved before the drain timeout
  RecResponse response;

  double latency_us() const { return static_cast<double>(done_us - due_us); }
  double lateness_us() const { return static_cast<double>(sent_us - due_us); }
};

/// Users in seeded passes: each pass visits every one of [0, n) once, in a
/// fresh shuffled order. A run then asks for each user equally often (to
/// within one pass), so the seed changes the order of the requests but not
/// their mix, and the latency quantiles do not move with which users
/// happened to be drawn.
class UserPasses {
 public:
  UserPasses(kucnet::Rng* rng, int64_t n) : rng_(rng), n_(n) {}
  int64_t Next();

 private:
  kucnet::Rng* rng_;
  int64_t n_;
  std::vector<int64_t> order_;
  size_t next_ = 0;
};

/// A seeded Poisson arrival schedule: `rate` requests per second for
/// `seconds`, for the users of UserPasses over [0, num_users). Due times
/// are offsets in microseconds from the phase start.
std::vector<Request> PoissonSchedule(kucnet::Rng& rng, double rate,
                                     double seconds, int64_t num_users);

/// Open-loop load generator on the calling thread: submits each request at its due
/// time (offset from `start_us`) without waiting for earlier responses, and
/// between sends waits on the oldest outstanding future and polls the rest,
/// so each response is observed within about 50us of completing. After the
/// last send it keeps polling until every future resolved or `drain_us`
/// passed. `on_send`, if set, is called after each Submit (used to sample
/// the queue depth).
void RunOpenLoop(RecServer& server, int64_t start_us,
                 std::vector<Request>* schedule, int64_t drain_us,
                 const std::function<void()>& on_send = nullptr);

/// Closed-loop load generator on the calling thread: keeps `concurrency`
/// requests outstanding for `seconds`, each for the user `next_user()`
/// returns, and sends the next one as soon as one is answered, so a
/// request's due time is its send time. A response is observed within about
/// 50us of completing. After the last send it waits until every future
/// resolved or `drain_us` passed.
std::vector<Request> RunClosedLoop(RecServer& server,
                                   const std::function<int64_t()>& next_user,
                                   double seconds, int concurrency,
                                   int64_t drain_us);

/// Failure accounting and latency of one phase of read requests.
struct PhaseReport {
  std::string name;
  double offered_rps = 0.0;  ///< 0 for a closed loop
  double seconds = 0.0;      ///< scheduled (open loop) or measured duration
  int64_t sent = 0;
  int64_t ok = 0;
  int64_t shed = 0;        ///< kOverloaded at admission
  int64_t shutdown = 0;    ///< kShutdown
  int64_t unanswered = 0;  ///< future not resolved by the drain timeout
  int64_t empty = 0;       ///< kOk with no items
  int64_t full_within_limit = 0;
  int64_t full_late = 0;  ///< full-tier answers observed past the limit
  std::array<int64_t, kucnet::kNumServeTiers> tiers{};
  Summary latency_us;   ///< answered requests, from due time
  Summary lateness_us;  ///< send time minus due time
  bool generator_valid = true;
  /// Full-tier-within-limit responses per second in consecutive half-second
  /// windows by due time: a rising backlog shows as a falling series.
  std::vector<double> goodput_windows;

  int64_t failed() const { return shed + shutdown + unanswered + empty; }
  /// Full-tier answers within the limit per second (at overload these
  /// sit on the deadline's knife edge).
  double goodput_rps() const {
    return seconds > 0 ? static_cast<double>(full_within_limit) / seconds : 0;
  }
  /// Full-tier answers within the limit per second in the best of
  /// kQuantileWindows equal stretches of the phase, built from the
  /// half-second goodput_windows (the last, possibly partial, one left
  /// out). As with BestWindowQuantile, host contention only ever lowers a
  /// stretch's rate, while a change to the code moves every stretch.
  double best_window_goodput_rps() const;
  /// Full-tier answers per second, late or not.
  double full_rps() const {
    return seconds > 0
               ? static_cast<double>(tiers[static_cast<int>(kucnet::ServeTier::kFull)]) /
                     seconds
               : 0;
  }
  double tier_share(kucnet::ServeTier tier) const {
    return sent > 0 ? static_cast<double>(tiers[static_cast<int>(tier)]) /
                          static_cast<double>(sent)
                    : 0.0;
  }
  Json ToJson() const;
};

/// Builds the report of `requests`. A request whose send was later than
/// `kLimitMicros` past its due time at the 99th percentile marks the
/// generator as fallen behind (only meaningful for open loops).
PhaseReport Report(const std::string& name, double offered_rps,
                   double seconds, const std::vector<Request>& requests,
                   bool open_loop);

/// Records a phase in the run: attempted/failed counts, the detail entry,
/// and the generator-validity check.
void AddPhase(Run& run, const PhaseReport& report);

/// The full-tier oracle: a `num_workers = 0` server over the same model,
/// graph and PPR table, whose ServeSync answers are memoised per user.
/// Every full-tier response of the server under test must equal the
/// oracle's answer for that user bit for bit — batching, worker count and
/// load must never change a full-tier result.
class FullTierOracle {
 public:
  FullTierOracle(const kucnet::Kucnet* model, const Dataset* dataset,
                 kucnet::GraphRef graph, const kucnet::PprTable* ppr);

  /// True iff `response` lists exactly the oracle's items and scores.
  bool Matches(int64_t user, const RecResponse& response);
  RecServer& server() { return *server_; }

 private:
  std::unique_ptr<RecServer> server_;
  std::map<int64_t, std::vector<kucnet::ScoredItem>> memo_;
};

/// Gates every response of `requests`: none unanswered, every kOk response
/// non-empty, every full-tier response equal to the oracle's.
void GateResponses(Run& run, const std::string& phase,
                   const std::vector<Request>& requests,
                   FullTierOracle& oracle);

/// RecServer options shared by the serving workloads: 2 extraction workers,
/// an admission queue of 256, batches of up to 4 users, the fixed 20 ms
/// deadline, and (when `warm_cache`) every user's scores warmed into a
/// cache that holds them all.
kucnet::RecServerOptions ServingOptions(int64_t num_users, bool warm_cache);

/// The split-API replay of the traced run: for each user of `users`, in
/// order, spans around ServeSync on `oracle` (the whole request),
/// TryExtractGraph, TryForwardOnGraph, CompGraphBuilder::TryBuild with the
/// user's ScoreFn, PprTable::Score over every node the build visits, and,
/// every fourth request, TryForwardMany over a batch of four. Sets the
/// serve.sync/rank_residual, core.*, graph.* and ppr.lookup metrics and
/// returns the ServeSync service time of each request in microseconds.
std::vector<double> ReplaySplit(Run& run, const kucnet::Kucnet& model,
                                kucnet::GraphRef graph,
                                const kucnet::PprTable& ppr,
                                FullTierOracle& oracle,
                                const std::vector<int64_t>& users);

/// Times MatMul, Gather and SegmentSum at the shape of the largest layer of
/// `graph` (edges x d) with hidden size `d`, reporting per-call medians and
/// the computed FLOPs and bytes.
void ProbeTensorKernels(Run& run, const kucnet::UserCompGraph& graph,
                        int64_t d);

/// Sets the serve.* per-layer metrics of a read phase from the server's
/// counters before and after it, the phase report, and the queue depth
/// sampled after each send.
void SetServeLayerMetrics(Run& run, const kucnet::ServerStats& before,
                          const kucnet::ServerStats& after,
                          const PhaseReport& report,
                          const std::vector<double>& queue_depth);

/// Sets serve.submit_us and serve.queue_wait_us from the first requests of
/// a read phase and their ServeSync service times from the replay: queue
/// wait is end-to-end latency minus the replayed service time.
void SetQueueWaitMetrics(Run& run, const std::vector<Request>& requests,
                         const std::vector<double>& replayed_service_us);

/// The users of the first `n` requests of `requests`.
std::vector<int64_t> FirstUsers(const std::vector<Request>& requests, size_t n);

/// Sets the span-derived metrics of a traced run and writes its span file.
void FinishTrace(Run& run, int64_t requests_replayed);

// Workloads (workload_*.cc).
void RunServe(Run& run);
void RunColdStart(Run& run);
void RunStream(Run& run);
void RunTrain(Run& run);

}  // namespace kbench

#endif  // KUCNET_BENCHMARK_COMMON_H_
