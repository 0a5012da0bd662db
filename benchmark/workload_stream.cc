// Workload `stream`: synth-lastfm, temporal split. StreamingCkg::Open puts
// the WAL in a fresh directory on the real filesystem, as `kucnet_cli
// stream` does, and the held-out interactions are applied in arrival order
// at a fixed rate; the invalidation hook calls RecServer::InvalidateUsers.
// Meanwhile reads run open loop at a fixed rate against a server
// answering over the training-time graph. This is the writes-beside-reads
// case and the only workload that runs the WAL (stream/update_log) and the
// incremental PPR repair (ppr/dynamic_ppr).
//
// The writer and the reader each run on their own load thread: an append
// blocks for its durable ack, and a reader stalled behind it would measure
// the WAL instead of the server. The stream repairs PPR on its own 2-worker
// pool.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "ppr/dynamic_ppr.h"
#include "ppr/ppr.h"
#include "stream/streaming_ckg.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace kbench {
namespace {

using kucnet::Kucnet;
using kucnet::PprTable;
using kucnet::StreamingCkg;

/// Graph updates applied per second (about 60/s is sustainable with a
/// durable ack per update on a real disk).
constexpr double kUpdatesPerSecond = 60.0;
/// Open-loop read rate beside the writes.
constexpr double kReadsPerSecond = 50.0;
/// Workers of the pool StreamingCkg repairs PPR on (its own, beside the
/// serial shared pool the reads use): with a serial repair an update took
/// ~15 ms, so the writer ran near saturation at 60/s and its tail grew
/// with every slowdown of the host.
constexpr int kRepairWorkers = 2;
constexpr int64_t kDrainMicros = 10'000'000;
constexpr size_t kReplayRequests = 200;

/// One graph update as the writer saw it.
struct Update {
  int64_t due_us = 0;
  int64_t start_us = 0;
  int64_t done_us = 0;
  bool ok = false;
  int64_t invalidated = 0;  ///< users the hook invalidated for this update
};

/// What the invalidation hook records; written only by the writer thread.
struct HookLog {
  bool timed = false;
  int64_t users = 0;
  std::vector<double> call_us;
};

struct StreamStack {
  explicit StreamStack(const Dataset& dataset) : ckg(dataset.BuildCkg()) {}
  ~StreamStack() {
    server.reset();
    stream.reset();
    RemoveTree(wal_dir);
  }
  StreamStack(const StreamStack&) = delete;
  StreamStack& operator=(const StreamStack&) = delete;

  kucnet::Ckg ckg;
  PprTable ppr;
  std::unique_ptr<Kucnet> model;
  std::unique_ptr<RecServer> server;
  std::string wal_dir;
  std::unique_ptr<StreamingCkg> stream;
};

double MaxDelta(const std::unordered_map<int64_t, kucnet::real_t>& a,
                const std::unordered_map<int64_t, kucnet::real_t>& b) {
  double max_delta = 0.0;
  for (const auto& [node, value] : a) {
    const auto it = b.find(node);
    max_delta = std::max(max_delta,
                         std::abs(value - (it == b.end() ? 0.0 : it->second)));
  }
  for (const auto& [node, value] : b) {
    if (a.find(node) == a.end()) {
      max_delta = std::max(max_delta, std::abs(static_cast<double>(value)));
    }
  }
  return max_delta;
}

}  // namespace

void RunStream(Run& run) {
  const uint64_t seed = run.args().seed;
  const Dataset dataset = MakeSynthLastFm(kucnet::SplitKind::kTemporal);
  run.Gate("input.work_dir", MakeDirs(run.args().work_dir), run.args().work_dir);

  HookLog hook;
  hook.timed = run.traced();
  kucnet::ThreadPool repair_pool(kRepairWorkers);
  std::vector<double> setup_seconds, open_seconds, ppr_seconds;
  bool opened_ok = true;
  int setup_index = 0;
  std::unique_ptr<StreamStack> stack = SetUpRepeatedly<StreamStack>(
      [&]() {
        auto s = std::make_unique<StreamStack>(dataset);
        int64_t start = NowMicros();
        s->ppr = PprTable::Compute(s->ckg, kucnet::PprTableOptions(),
                                   &kucnet::GlobalPool());
        ppr_seconds.push_back(static_cast<double>(NowMicros() - start) * 1e-6);
        kucnet::KucnetOptions model_options;
        model_options.sample_k = 30;
        model_options.depth = 3;
        s->model = std::make_unique<Kucnet>(&dataset, &s->ckg, &s->ppr, model_options);
        s->server = std::make_unique<RecServer>(
            s->model.get(), &dataset, &s->ckg, &s->ppr,
            ServingOptions(dataset.num_users, /*warm_cache=*/true));
        s->wal_dir = run.args().work_dir + "/stream_wal_" + std::to_string(seed) +
                     "_" + std::to_string(getpid()) + "_" +
                     std::to_string(setup_index++);
        RemoveTree(s->wal_dir);
        start = NowMicros();
        const kucnet::Status opened =
            StreamingCkg::Open(dataset, /*fs=*/nullptr, s->wal_dir,
                               kucnet::StreamingCkgOptions(), &repair_pool, &s->stream);
        open_seconds.push_back(static_cast<double>(NowMicros() - start) * 1e-6);
        if (!opened.ok()) {
          opened_ok = false;
          return s;
        }
        RecServer* server = s->server.get();
        s->stream->set_invalidation_hook(
            [server, &hook](const std::vector<int64_t>& users) {
              hook.users += static_cast<int64_t>(users.size());
              if (!hook.timed) {
                server->InvalidateUsers(users);
                return;
              }
              const int64_t t0 = NowMicros();
              server->InvalidateUsers(users);
              hook.call_us.push_back(static_cast<double>(NowMicros() - t0));
            });
        return s;
      },
      &setup_seconds);
  run.Gate("setup.stream_opened", opened_ok);
  if (!opened_ok) return;
  RecServer& server = *stack->server;
  StreamingCkg& stream = *stack->stream;
  FullTierOracle oracle(stack->model.get(), &dataset, &stack->ckg, &stack->ppr);

  const auto num_updates = std::min<int64_t>(
      static_cast<int64_t>(dataset.test.size()),
      static_cast<int64_t>(std::floor(kUpdatesPerSecond * run.args().seconds)));
  // The reads last exactly as long as the update schedule, so every read
  // has writes beside it (840 held-out rows last 14 s at 60/s).
  const double seconds = static_cast<double>(num_updates) / kUpdatesPerSecond;
  std::vector<Update> updates(static_cast<size_t>(num_updates));
  for (int64_t k = 0; k < num_updates; ++k) {
    updates[k].due_us = static_cast<int64_t>(static_cast<double>(k) * 1e6 /
                                             kUpdatesPerSecond);
  }
  kucnet::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 3);
  std::vector<Request> reads =
      PoissonSchedule(rng, kReadsPerSecond, seconds, dataset.num_users);

  const kucnet::ServerStats before = server.stats();
  const int64_t start_us = NowMicros() + 5000;
  // jthread: joined on every path out of this scope.
  std::jthread writer([&]() {
    for (int64_t k = 0; k < num_updates; ++k) {
      Update& u = updates[k];
      u.due_us += start_us;
      const int64_t wait = u.due_us - NowMicros();
      if (wait > 0) std::this_thread::sleep_for(std::chrono::microseconds(wait));
      const int64_t users_before = hook.users;
      u.start_us = NowMicros();
      const auto& [user, item] = dataset.test[k];
      u.ok = stream.AppendInteraction(user, item).ok();
      u.done_us = NowMicros();
      u.invalidated = hook.users - users_before;
    }
  });
  std::vector<double> queue_depth;
  RunOpenLoop(server, start_us, &reads, kDrainMicros,
              [&]() { queue_depth.push_back(static_cast<double>(server.queue_depth())); });
  writer.join();
  const kucnet::ServerStats after = server.stats();
  server.Shutdown();

  // Gates: every read answered and correct; every update acked; the
  // repaired PPR agrees with a fresh recompute on the final graph within
  // the residual bound (ppr/dynamic_ppr.h).
  GateResponses(run, "reads", reads, oracle);
  std::vector<double> update_latency, update_lateness, writer_lateness, append_us,
      invalidated;
  int64_t failed_updates = 0;
  int64_t writer_free_us = 0;
  for (const Update& u : updates) {
    update_latency.push_back(static_cast<double>(u.done_us - u.due_us));
    update_lateness.push_back(static_cast<double>(u.start_us - u.due_us));
    // The writer's own lateness: how long after the update was due and the
    // previous append had returned it started. A backlog of slow appends is
    // the program's (it shows in the latency); oversleeping is the writer's.
    writer_lateness.push_back(
        static_cast<double>(u.start_us - std::max(u.due_us, writer_free_us)));
    writer_free_us = u.done_us;
    append_us.push_back(static_cast<double>(u.done_us - u.start_us));
    invalidated.push_back(static_cast<double>(u.invalidated));
    if (!u.ok) ++failed_updates;
  }
  run.Gate("updates.all_acked", failed_updates == 0,
           std::to_string(failed_updates) + " appends failed");
  const kucnet::DynamicPprTable fresh = kucnet::DynamicPprTable::Compute(
      stream.graph(), kucnet::StreamingCkgOptions().ppr, &repair_pool);
  int64_t drifted = 0;
  for (int64_t user = 0; user < dataset.num_users; ++user) {
    const double delta = MaxDelta(stream.ppr().Estimate(user), fresh.Estimate(user));
    const double bound =
        stream.ppr().ResidualMass(user) + fresh.ResidualMass(user) + 1e-12;
    if (!(delta <= bound)) ++drifted;
  }
  run.Gate("updates.ppr_within_residual_bound", drifted == 0,
           std::to_string(drifted) + " users drifted past the bound");

  const PhaseReport read_report = Report("reads", kReadsPerSecond, seconds, reads, true);
  AddPhase(run, read_report);
  const Summary latency = Summarize(update_latency);
  run.CountAttempted(num_updates);
  run.CountFailed(failed_updates);
  run.Detail("phase.updates",
             JsonObject({
                 {"rate_per_s", JsonNumber(kUpdatesPerSecond)},
                 {"sent", JsonNumber(static_cast<double>(num_updates))},
                 {"failed", JsonNumber(static_cast<double>(failed_updates))},
                 {"applied", JsonNumber(static_cast<double>(stream.stats().applied))},
                 {"duplicates",
                  JsonNumber(static_cast<double>(stream.stats().duplicates))},
                 {"latency_us", JsonSummary(latency)},
                 {"lateness_us", JsonSummary(Summarize(update_lateness))},
                 {"writer_lateness_us", JsonSummary(Summarize(writer_lateness))},
                 {"append_us", JsonSummary(Summarize(append_us))},
             }));
  if (Quantile(writer_lateness, 0.99) > static_cast<double>(kLimitMicros)) {
    run.Invalidate(
        "update writer fell behind (own start lateness p99 above the latency "
        "limit)");
  }
  run.Detail("setup_s_samples", JsonSummary(Summarize(setup_seconds)));

  run.SetEndToEnd("setup_s", Quantile(setup_seconds, 0.5));
  run.SetEndToEnd("p50_us", latency.best_window_p50);
  run.SetEndToEnd("goodput_rps", read_report.full_rps());
  run.SetEndToEnd("peak_rss_mb", PeakRssMb());

  if (!run.traced()) return;
  run.SetLayer("stream.append_us", Quantile(append_us, 0.5));
  run.SetLayer("stream.invalidated_users_per_update", Mean(invalidated));
  run.SetLayer("stream.open_s", Quantile(open_seconds, 0.5));
  run.SetLayer("stream.read_p50_us", read_report.latency_us.p50);
  run.SetLayer("stream.read_tail_us", read_report.latency_us.tail);
  run.SetLayer("serve.invalidate_us", Quantile(hook.call_us, 0.5));
  run.SetLayer("ppr.table_build_s", Quantile(ppr_seconds, 0.5));
  SetServeLayerMetrics(run, before, after, read_report, queue_depth);
  const std::vector<int64_t> users = FirstUsers(reads, kReplayRequests);
  if (users.empty()) return;
  const std::vector<double> service_us = ReplaySplit(
      run, *stack->model, &stack->ckg, stack->ppr, oracle, users);
  SetQueueWaitMetrics(run, reads, service_us);
  kucnet::KucnetForward probe;
  if (stack->model->TryExtractGraph(users.front(), kucnet::ExecContext(), &probe).ok()) {
    ProbeTensorKernels(run, probe.graph, stack->model->options().hidden_dim);
  }
  FinishTrace(run, static_cast<int64_t>(users.size()));
}

}  // namespace kbench
