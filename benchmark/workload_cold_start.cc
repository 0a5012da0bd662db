// Workload `cold_start`: the synth-web-scale generator at 10^5 users and
// 10^6 KG triplets (10x its reduced configuration, same generator seed).
// The KUCSTOR1 container is written by a child process before anything is
// timed, so neither the generation time nor its memory counts. Set-up maps
// the container (LoadCompactCkg, lazy mmap), runs TryPprForwardPush for a
// fixed sample of users on two threads, and builds the model and server. A
// single client then runs a closed loop of Submit/get over the sampled
// users, in passes whose order is drawn from the seed. The
// store, the PPR push and the graph extraction dominate here and the
// forward pass is a small share; the graph is far larger than the CPU
// caches.

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <memory>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "ppr/ppr.h"
#include "store/compact_ckg.h"
#include "store/container.h"
#include "store/web_scale.h"
#include "util/fs.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace kbench {
namespace {

using kucnet::CompactCkg;
using kucnet::Kucnet;
using kucnet::PprTable;
using kucnet::real_t;

/// Users whose PPR vectors are pushed at set-up and who send the requests.
constexpr int64_t kSampledUsers = 34;
/// Threads the set-up's PPR pushes run on, so set-up stays short while the
/// shared pool is serial.
constexpr int kPushWorkers = 2;
constexpr uint64_t kSampleSeed = 34;
constexpr double kWarmupSeconds = 0.5;
constexpr int64_t kResponseTimeoutMicros = 10'000'000;
constexpr size_t kReplayRequests = 200;

kucnet::WebScaleConfig ColdStartConfig() {
  kucnet::WebScaleConfig config = kucnet::WebScaleReducedConfig();
  config.name = "synth-web-scale-1e5";
  config.num_users *= 10;
  config.num_items *= 10;
  config.num_entities *= 10;
  config.num_kg_triplets *= 10;
  return config;
}

kucnet::KucnetOptions ColdStartModelOptions() {
  kucnet::KucnetOptions options;
  options.hidden_dim = 16;
  options.attention_dim = 8;
  options.depth = 2;
  options.sample_k = 32;
  return options;
}

/// Writes the container from a child process so the generator's peak memory
/// never shows in this process. Must run before any thread is started.
bool GenerateInChild(const kucnet::WebScaleConfig& config, const std::string& path) {
  const pid_t child = fork();
  if (child < 0) return false;
  if (child == 0) {
    const kucnet::Status status = kucnet::GenerateWebScaleContainer(
        kucnet::DefaultFileSystem(), path, config);
    if (!status.ok()) std::fprintf(stderr, "%s\n", status.message().c_str());
    _exit(status.ok() ? 0 : 1);
  }
  int wstatus = 0;
  if (waitpid(child, &wstatus, 0) != child) return false;
  return WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0;
}

struct ColdStack {
  CompactCkg graph;
  PprTable ppr;
  std::unique_ptr<Kucnet> model;
  std::unique_ptr<RecServer> server;
};

}  // namespace

void RunColdStart(Run& run) {
  const uint64_t seed = run.args().seed;
  const kucnet::WebScaleConfig config = ColdStartConfig();
  const std::string path = run.args().work_dir + "/cold_start_" +
                           std::to_string(seed) + "_" +
                           std::to_string(getpid()) + ".kucstor";
  // Removes the container however the run ends.
  const std::unique_ptr<const std::string, void (*)(const std::string*)> cleanup(
      &path, [](const std::string* p) { RemoveTree(*p); });
  const bool generated = MakeDirs(run.args().work_dir) && GenerateInChild(config, path);
  run.Gate("input.container_generated", generated, path);
  if (!generated) return;

  // The interactions are the dataset the model and server rank against
  // (training-item exclusion); the KG stays inside the container.
  Dataset dataset;
  dataset.name = config.name;
  dataset.num_users = config.num_users;
  dataset.num_items = config.num_items;
  dataset.num_kg_nodes = config.num_kg_nodes();
  dataset.num_kg_relations = config.num_kg_relations;
  dataset.train.reserve(
      static_cast<size_t>(config.num_users * config.interactions_per_user));
  kucnet::ForEachWebScaleInput(
      config,
      [&dataset](int64_t user, int64_t item) { dataset.train.push_back({user, item}); },
      [](int64_t, int64_t, int64_t) {});
  // The sampled users are part of the workload (fixed); the seed drives the
  // order in which they send requests.
  kucnet::Rng sample_rng(kSampleSeed);
  const std::vector<int64_t> sampled =
      sample_rng.SampleWithoutReplacement(config.num_users, kSampledUsers);
  kucnet::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 2);

  kucnet::FileSystem& fs = kucnet::DefaultFileSystem();
  kucnet::ThreadPool push_pool(kPushWorkers);
  std::vector<double> setup_seconds, load_ms, push_us, entries;
  bool pushes_ok = true;
  std::unique_ptr<ColdStack> stack = SetUpRepeatedly<ColdStack>(
      [&]() {
        auto s = std::make_unique<ColdStack>();
        kucnet::StoreLoadOptions load_options;
        load_options.use_mmap = true;
        load_options.verify_checksums = false;
        int64_t start = NowMicros();
        const kucnet::Status loaded =
            kucnet::LoadCompactCkg(fs, path, load_options, &s->graph, nullptr);
        load_ms.push_back(static_cast<double>(NowMicros() - start) * 1e-3);
        if (!loaded.ok()) {
          pushes_ok = false;
          return s;
        }
        std::vector<std::unordered_map<int64_t, real_t>> vectors(config.num_users);
        std::vector<double> micros(sampled.size());
        std::vector<char> ok(sampled.size(), 0);
        kucnet::ParallelFor(push_pool, static_cast<int64_t>(sampled.size()), [&](int64_t k) {
          const int64_t user = sampled[k];
          const int64_t t0 = NowMicros();
          ok[k] = kucnet::TryPprForwardPush(s->graph, s->graph.UserNode(user),
                                            real_t{0.15}, real_t{1e-6},
                                            kucnet::ExecContext(), &vectors[user])
                      .ok();
          micros[k] = static_cast<double>(NowMicros() - t0);
        });
        for (size_t k = 0; k < sampled.size(); ++k) {
          pushes_ok = pushes_ok && ok[k] != 0;
          push_us.push_back(micros[k]);
          entries.push_back(static_cast<double>(vectors[sampled[k]].size()));
        }
        s->ppr = PprTable::FromVectors(std::move(vectors));
        s->model = std::make_unique<Kucnet>(&dataset, &s->graph, &s->ppr,
                                            ColdStartModelOptions());
        s->server = std::make_unique<RecServer>(
            s->model.get(), &dataset, &s->graph, &s->ppr,
            ServingOptions(dataset.num_users, /*warm_cache=*/false));
        return s;
      },
      &setup_seconds);
  run.Gate("setup.load_and_push_ok", pushes_ok);
  if (!pushes_ok) return;
  RecServer& server = *stack->server;
  FullTierOracle oracle(stack->model.get(), &dataset, &stack->graph, &stack->ppr);

  // Closed loop with one client: the next request is sent when the previous
  // one returns.
  UserPasses order(&rng, static_cast<int64_t>(sampled.size()));
  const auto closed_loop = [&](double seconds) {
    return RunClosedLoop(
        server, [&]() { return sampled[static_cast<size_t>(order.Next())]; }, seconds,
        /*concurrency=*/1, kResponseTimeoutMicros);
  };
  const std::vector<Request> warmup = closed_loop(kWarmupSeconds);
  const kucnet::ServerStats before = server.stats();
  const int64_t measure_start = NowMicros();
  const std::vector<Request> requests = closed_loop(run.args().seconds);
  const double measured_seconds =
      static_cast<double>(NowMicros() - measure_start) * 1e-6;
  const kucnet::ServerStats after = server.stats();
  server.Shutdown();

  GateResponses(run, "warmup", warmup, oracle);
  GateResponses(run, "closed_loop", requests, oracle);
  const PhaseReport report =
      Report("closed_loop", 0.0, measured_seconds, requests, false);
  AddPhase(run, report);
  run.Detail("setup_s_samples", JsonSummary(Summarize(setup_seconds)));
  run.Detail("input", JsonObject({
                          {"users", JsonNumber(static_cast<double>(config.num_users))},
                          {"items", JsonNumber(static_cast<double>(config.num_items))},
                          {"kg_triplets",
                           JsonNumber(static_cast<double>(config.num_kg_triplets))},
                          {"edges", JsonNumber(static_cast<double>(stack->graph.num_edges()))},
                          {"sampled_users", JsonNumber(static_cast<double>(sampled.size()))},
                      }));

  run.SetEndToEnd("setup_s", Quantile(setup_seconds, 0.5));
  run.SetEndToEnd("p50_us", report.latency_us.best_window_p50);
  run.SetEndToEnd("goodput_rps", report.best_window_goodput_rps());
  run.SetEndToEnd("peak_rss_mb", PeakRssMb());

  if (run.traced()) {
    const Summary push = Summarize(push_us);
    run.SetLayer("ppr.push_us", push.p50);
    run.SetLayer("ppr.push_tail_us", push.tail);
    run.SetLayer("ppr.entries_per_user", Mean(entries));
    run.SetLayer("store.load_mmap_ms", Quantile(load_ms, 0.5));
    {
      CompactCkg full;
      kucnet::StoreLoadOptions full_options;
      full_options.use_mmap = false;
      const int64_t start = NowMicros();
      const kucnet::Status loaded =
          kucnet::LoadCompactCkg(fs, path, full_options, &full, nullptr);
      run.SetLayer("store.load_full_ms",
                   static_cast<double>(NowMicros() - start) * 1e-3);
      run.Gate("trace.full_load_ok", loaded.ok());
    }
    SetServeLayerMetrics(run, before, after, report, {});
    const std::vector<int64_t> users = FirstUsers(requests, kReplayRequests);
    if (users.empty()) return;
    const std::vector<double> service_us = ReplaySplit(
        run, *stack->model, &stack->graph, stack->ppr, oracle, users);
    SetQueueWaitMetrics(run, requests, service_us);
    kucnet::KucnetForward probe;
    if (stack->model->TryExtractGraph(users.front(), kucnet::ExecContext(), &probe).ok()) {
      ProbeTensorKernels(run, probe.graph, stack->model->options().hidden_dim);
    }
    FinishTrace(run, static_cast<int64_t>(users.size()));
  }
}

}  // namespace kbench
