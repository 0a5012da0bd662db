// Workload `serve`: synth-lastfm, traditional split, KUCNet K=30 L=3 behind
// a RecServer with 2 extraction workers, batches of up to 4 users and the
// fixed 20 ms deadline, every user's scores warmed into the cache. Users are
// taken from all 300 in seeded passes (the working set fits in the cache).
// Two timed phases: Poisson open-loop reads at a fixed nominal rate
// (latency), then a closed loop holding two full batches outstanding
// (capacity: how many full-tier answers within the limit the server gives
// per second, with a 2-worker pool so a batch's users run in parallel).
// Forward compute (core/tensor) is most of the service time here. The
// traced run adds an open-loop overload phase at a fixed rate well above
// capacity, which drives the deadline guard and the degrade chain.

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "common.h"
#include "ppr/ppr.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace kbench {
namespace {

using kucnet::Kucnet;
using kucnet::KucnetOptions;
using kucnet::PprTable;

/// Open-loop read rate of the nominal phase: about 5% of the batched
/// capacity on a 4-core Xeon, so a request rarely queues behind another and
/// its latency is close to its service time.
constexpr double kNominalRps = 50.0;
/// Share of --seconds spent in the nominal phase; the rest is the capacity
/// phase.
constexpr double kNominalShare = 0.7;
/// Requests the capacity phase keeps outstanding: two full batches, so the
/// batcher always has a full batch waiting, while each answer stays well
/// inside the deadline and no request degrades.
constexpr int kCapacityConcurrency = 8;
/// Shared-pool workers of the capacity and overload phases. TryForwardMany
/// runs the users of a batch one per worker, so batched throughput needs
/// more than the serial pool the latency phase (and every other workload)
/// uses; with the serial pool the closed loop's throughput drifted down by
/// up to half within a run, with two workers it held flat.
constexpr int kBatchPoolWorkers = 2;
/// Open-loop read rate of the traced run's overload phase (about 1.5x the
/// batched capacity on a 4-core Xeon).
constexpr double kOverloadRps = 1600.0;
constexpr double kWarmupSeconds = 0.5;
constexpr int64_t kDrainMicros = 10'000'000;
constexpr size_t kReplayRequests = 300;

struct ServeStack {
  explicit ServeStack(const Dataset& dataset) : ckg(dataset.BuildCkg()) {}
  kucnet::Ckg ckg;
  PprTable ppr;
  std::unique_ptr<Kucnet> model;
  std::unique_ptr<RecServer> server;
};

KucnetOptions ServeModelOptions() {
  KucnetOptions options;
  options.sample_k = 30;
  options.depth = 3;
  return options;
}

/// Resizes the shared pool once `server` has no request in flight, so no
/// pool work is running when the old pool goes away.
void ResizePool(const RecServer& server, int workers) {
  while (!server.Quiesced()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  kucnet::SetGlobalPoolThreads(workers);
}

}  // namespace

void RunServe(Run& run) {
  const uint64_t seed = run.args().seed;
  const Dataset dataset = MakeSynthLastFm(kucnet::SplitKind::kTraditional);

  std::vector<double> setup_seconds, ppr_seconds;
  std::unique_ptr<ServeStack> stack = SetUpRepeatedly<ServeStack>(
      [&]() {
        auto s = std::make_unique<ServeStack>(dataset);
        const int64_t start = NowMicros();
        s->ppr = PprTable::Compute(s->ckg, kucnet::PprTableOptions(),
                                   &kucnet::GlobalPool());
        ppr_seconds.push_back(static_cast<double>(NowMicros() - start) * 1e-6);
        s->model = std::make_unique<Kucnet>(&dataset, &s->ckg, &s->ppr,
                                            ServeModelOptions());
        s->server = std::make_unique<RecServer>(
            s->model.get(), &dataset, &s->ckg, &s->ppr,
            ServingOptions(dataset.num_users, /*warm_cache=*/true));
        return s;
      },
      &setup_seconds);
  RecServer& server = *stack->server;
  FullTierOracle oracle(stack->model.get(), &dataset, &stack->ckg, &stack->ppr);

  kucnet::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  const double nominal_seconds = kNominalShare * run.args().seconds;
  const double capacity_seconds = run.args().seconds - nominal_seconds;
  std::vector<Request> warmup =
      PoissonSchedule(rng, kNominalRps, kWarmupSeconds, dataset.num_users);
  std::vector<Request> nominal =
      PoissonSchedule(rng, kNominalRps, nominal_seconds, dataset.num_users);
  RunOpenLoop(server, NowMicros() + 2000, &warmup, kDrainMicros);
  RunOpenLoop(server, NowMicros() + 2000, &nominal, kDrainMicros);

  ResizePool(server, kBatchPoolWorkers);
  UserPasses capacity_users(&rng, dataset.num_users);
  const int64_t start = NowMicros();
  const std::vector<Request> capacity = RunClosedLoop(
      server, [&]() { return capacity_users.Next(); }, capacity_seconds,
      kCapacityConcurrency, kDrainMicros);
  const double capacity_measured = static_cast<double>(NowMicros() - start) * 1e-6;

  // The overload phase runs in the traced run only: the predictive deadline
  // guard feeds back on each batch's cost, so how many requests it lets
  // through swings widely between runs. Its shares are per-layer figures.
  std::vector<Request> overload;
  kucnet::ServerStats before_overload, after_overload;
  std::vector<double> queue_depth;
  if (run.traced()) {
    overload = PoissonSchedule(rng, kOverloadRps, capacity_seconds, dataset.num_users);
    before_overload = server.stats();
    RunOpenLoop(server, NowMicros() + 2000, &overload, kDrainMicros, [&]() {
      queue_depth.push_back(static_cast<double>(server.queue_depth()));
    });
    after_overload = server.stats();
  }
  ResizePool(server, kPoolWorkers);
  server.Shutdown();

  GateResponses(run, "warmup", warmup, oracle);
  GateResponses(run, "nominal", nominal, oracle);
  GateResponses(run, "capacity", capacity, oracle);
  const PhaseReport nominal_report =
      Report("nominal", kNominalRps, nominal_seconds, nominal, true);
  const PhaseReport capacity_report =
      Report("capacity", 0.0, capacity_measured, capacity, false);
  AddPhase(run, nominal_report);
  AddPhase(run, capacity_report);
  run.Detail("setup_s_samples", JsonSummary(Summarize(setup_seconds)));
  run.Detail("batch_pool_workers", JsonNumber(kBatchPoolWorkers));

  run.SetEndToEnd("setup_s", Quantile(setup_seconds, 0.5));
  run.SetEndToEnd("p50_us", nominal_report.latency_us.best_window_p50);
  run.SetEndToEnd("goodput_rps", capacity_report.best_window_goodput_rps());
  run.SetEndToEnd("peak_rss_mb", PeakRssMb());

  if (!run.traced()) return;
  GateResponses(run, "overload", overload, oracle);
  const PhaseReport overload_report =
      Report("overload", kOverloadRps, capacity_seconds, overload, true);
  AddPhase(run, overload_report);
  run.SetLayer("ppr.table_build_s", Quantile(ppr_seconds, 0.5));
  SetServeLayerMetrics(run, before_overload, after_overload, overload_report,
                       queue_depth);
  const std::vector<int64_t> replayed = FirstUsers(nominal, kReplayRequests);
  if (replayed.empty()) return;
  const std::vector<double> service_us = ReplaySplit(
      run, *stack->model, &stack->ckg, stack->ppr, oracle, replayed);
  SetQueueWaitMetrics(run, nominal, service_us);
  kucnet::KucnetForward probe;
  if (stack->model->TryExtractGraph(replayed.front(), kucnet::ExecContext(), &probe).ok()) {
    ProbeTensorKernels(run, probe.graph, stack->model->options().hidden_dim);
  }
  FinishTrace(run, static_cast<int64_t>(replayed.size()));
}

}  // namespace kbench
