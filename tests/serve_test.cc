#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "core/kucnet.h"
#include "data/synthetic.h"
#include "serve/fleet/shard_router.h"
#include "serve/rec_server.h"
#include "serve/score_cache.h"
#include "util/clock.h"
#include "util/fault.h"

namespace kucnet {
namespace {

Dataset TinyDataset(uint64_t seed = 42) {
  SyntheticConfig cfg;
  cfg.seed = seed;
  cfg.num_users = 30;
  cfg.num_items = 50;
  cfg.num_topics = 4;
  cfg.interactions_per_user = 8;
  cfg.entities_per_topic = 5;
  cfg.num_shared_entities = 6;
  cfg.kg_noise = 0.05;
  cfg.entity_entity_edges_per_topic = 5;
  Rng rng(seed);
  const RawData raw = GenerateSynthetic(cfg).raw;
  return TraditionalSplit(raw, 0.25, rng);
}

KucnetOptions SmallModelOptions() {
  KucnetOptions opts;
  opts.hidden_dim = 8;
  opts.attention_dim = 3;
  opts.depth = 3;
  opts.sample_k = 8;
  return opts;
}

/// Dataset + CKG + PPR + untrained model + server under test.
struct ServeFixture {
  explicit ServeFixture(RecServerOptions server_options = RecServerOptions())
      : dataset(TinyDataset()), ckg(dataset.BuildCkg()) {
    ppr = PprTable::Compute(ckg);
    model =
        std::make_unique<Kucnet>(&dataset, &ckg, &ppr, SmallModelOptions());
    server = std::make_unique<RecServer>(model.get(), &dataset, &ckg, &ppr,
                                         server_options);
  }
  Dataset dataset;
  Ckg ckg;
  PprTable ppr;
  std::unique_ptr<Kucnet> model;
  std::unique_ptr<RecServer> server;
};

RecServerOptions SyncOptions(const Clock* clock = nullptr,
                             FaultInjector* fault = nullptr) {
  RecServerOptions opts;
  opts.num_workers = 0;  // tests drive ServeSync deterministically
  opts.clock = clock;
  opts.fault = fault;
  return opts;
}

// ---- ScoreCache --------------------------------------------------------------

TEST(ScoreCacheTest, HitMissAndLruEviction) {
  FakeClock clock;
  ScoreCacheOptions opts;
  opts.capacity = 2;
  ScoreCache cache(opts, &clock);
  cache.Put(1, {1.0});
  cache.Put(2, {2.0});
  std::vector<double> out;
  EXPECT_TRUE(cache.Get(1, &out));  // 1 becomes most recent
  cache.Put(3, {3.0});              // evicts 2 (LRU)
  EXPECT_FALSE(cache.Get(2, &out));
  EXPECT_TRUE(cache.Get(1, &out));
  EXPECT_EQ(out[0], 1.0);
  EXPECT_TRUE(cache.Get(3, &out));
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_EQ(cache.hits(), 3);
  EXPECT_EQ(cache.misses(), 1);
}

TEST(ScoreCacheTest, StalenessBoundDropsOldEntries) {
  FakeClock clock;
  ScoreCacheOptions opts;
  opts.max_age_micros = 1000;
  ScoreCache cache(opts, &clock);
  cache.Put(7, {0.5});
  std::vector<double> out;
  int64_t age = -1;
  clock.AdvanceMicros(1000);
  EXPECT_TRUE(cache.Get(7, &out, &age));  // exactly at the bound: still fresh
  EXPECT_EQ(age, 1000);
  clock.AdvanceMicros(1);
  EXPECT_FALSE(cache.Get(7, &out));  // past the bound: dropped, not served
  EXPECT_EQ(cache.size(), 0);
}

TEST(ScoreCacheTest, PutRefreshesStalenessClock) {
  FakeClock clock;
  ScoreCacheOptions opts;
  opts.max_age_micros = 1000;
  ScoreCache cache(opts, &clock);
  cache.Put(7, {0.5});
  clock.AdvanceMicros(900);
  cache.Put(7, {0.6});  // refresh restarts the staleness window
  clock.AdvanceMicros(900);
  std::vector<double> out;
  int64_t age = -1;
  ASSERT_TRUE(cache.Get(7, &out, &age));  // 900 < bound, measured from refresh
  EXPECT_EQ(age, 900);
  EXPECT_EQ(out[0], 0.6);
}

TEST(ScoreCacheTest, CapacityOneChurn) {
  FakeClock clock;
  ScoreCacheOptions opts;
  opts.capacity = 1;
  ScoreCache cache(opts, &clock);
  std::vector<double> out;
  // Every Put of a new user evicts the sole resident; every Get of the
  // previous user misses. The cache never exceeds one entry and the
  // counters account for every single operation.
  constexpr int kRounds = 10;
  for (int i = 0; i < kRounds; ++i) {
    cache.Put(i, {static_cast<double>(i)});
    EXPECT_EQ(cache.size(), 1);
    ASSERT_TRUE(cache.Get(i, &out));
    EXPECT_EQ(out[0], static_cast<double>(i));
    if (i > 0) {
      EXPECT_FALSE(cache.Get(i - 1, &out));
    }
  }
  EXPECT_EQ(cache.size(), 1);
  EXPECT_EQ(cache.evictions(), kRounds - 1);
  EXPECT_EQ(cache.hits(), kRounds);
  EXPECT_EQ(cache.misses(), kRounds - 1);
  // Re-putting the resident user churns nothing.
  cache.Put(kRounds - 1, {42.0});
  EXPECT_EQ(cache.evictions(), kRounds - 1);
  ASSERT_TRUE(cache.Get(kRounds - 1, &out));
  EXPECT_EQ(out[0], 42.0);
}

// ---- Admission / shedding ----------------------------------------------------

TEST(RecServerTest, ShedsWhenQueueFullWithoutBlocking) {
  // Wedge the single extraction worker inside its first request (stall at
  // the "ppr" checkpoint) so the admission queue fills deterministically.
  FaultInjector fault;
  std::promise<void> stalled;
  std::promise<void> release;
  std::shared_future<void> release_signal = release.get_future().share();
  fault.ArmStall("ppr", 1, [&] {
    stalled.set_value();
    release_signal.wait();
  });
  RecServerOptions opts;
  opts.num_workers = 1;
  opts.queue_capacity = 2;
  opts.default_deadline_micros = 60'000'000;  // the stall must not expire it
  opts.fault = &fault;
  ServeFixture f(opts);
  auto f1 = f.server->Submit({0});  // popped by the worker, stalls in "ppr"
  stalled.get_future().wait();
  auto f2 = f.server->Submit({1});
  auto f3 = f.server->Submit({2});
  auto f4 = f.server->Submit({3});  // queue full: must be rejected instantly
  ASSERT_EQ(f4.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(f4.get().status, ResponseStatus::kOverloaded);
  release.set_value();
  EXPECT_EQ(f1.get().status, ResponseStatus::kOk);
  EXPECT_EQ(f2.get().status, ResponseStatus::kOk);
  EXPECT_EQ(f3.get().status, ResponseStatus::kOk);
  const ServerStats stats = f.server->stats();
  EXPECT_EQ(stats.submitted, 4);
  EXPECT_EQ(stats.admitted, 3);
  EXPECT_EQ(stats.shed, 1);
  EXPECT_EQ(stats.completed, 3);
}

TEST(RecServerTest, ZeroWorkerSubmitServesInline) {
  // Regression: with num_workers == 0 Submit used to enqueue a request no
  // worker would ever pop, hanging the caller's future.get() until the
  // destructor broke the promise. It must serve inline instead.
  ServeFixture f(SyncOptions());
  std::future<RecResponse> future = f.server->Submit({0});
  ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const RecResponse response = future.get();
  EXPECT_EQ(response.status, ResponseStatus::kOk);
  EXPECT_FALSE(response.items.empty());
  const ServerStats stats = f.server->stats();
  EXPECT_EQ(stats.submitted, 1);
  EXPECT_EQ(stats.admitted, 1);
  EXPECT_EQ(stats.completed, 1);
  EXPECT_EQ(stats.shed, 0);
}

TEST(RecServerTest, WorkersServeSubmittedRequests) {
  RecServerOptions opts;
  opts.num_workers = 2;
  opts.queue_capacity = 64;
  opts.default_deadline_micros = 60'000'000;  // generous: no degradation
  ServeFixture f(opts);
  std::vector<std::future<RecResponse>> futures;
  for (int64_t user = 0; user < 10; ++user) {
    futures.push_back(f.server->Submit({user}));
  }
  for (auto& future : futures) {
    const RecResponse response = future.get();
    EXPECT_EQ(response.status, ResponseStatus::kOk);
    EXPECT_FALSE(response.items.empty());
    EXPECT_EQ(response.tier, ServeTier::kFull);
    EXPECT_FALSE(response.degraded);
  }
  const ServerStats stats = f.server->stats();
  EXPECT_EQ(stats.admitted, 10);
  EXPECT_EQ(stats.completed, 10);
  EXPECT_EQ(stats.tier_count[static_cast<int>(ServeTier::kFull)], 10);
  EXPECT_EQ(stats.latency.total, 10);
}

// ---- Unknown user ids --------------------------------------------------------

/// Checks one response to a request naming a user id the graph does not
/// have: a non-empty popularity answer with the reason noted.
void ExpectUnknownUserAnswer(const RecResponse& response, int64_t user) {
  EXPECT_EQ(response.status, ResponseStatus::kOk) << "user " << user;
  EXPECT_EQ(response.tier, ServeTier::kPopularity) << "user " << user;
  EXPECT_TRUE(response.degraded) << "user " << user;
  EXPECT_FALSE(response.items.empty()) << "user " << user;
  EXPECT_NE(response.degrade_reason.find("user " + std::to_string(user) +
                                         " unknown"),
            std::string::npos)
      << response.degrade_reason;
}

// Regression: a user id from outside [0, num_users) reached the PPR table's
// bounds check inside full-tier extraction and aborted the whole server.
TEST(RecServerTest, UnknownUserIdsGetPopularityAnswersOnServeSync) {
  ServeFixture f(SyncOptions());
  const int64_t unknown[] = {f.ckg.num_users(), -1};
  for (const int64_t user : unknown) {
    ExpectUnknownUserAnswer(f.server->ServeSync({user, 20, 20'000}), user);
  }
  const ServerStats stats = f.server->stats();
  EXPECT_EQ(stats.unknown_user, 2);
  EXPECT_EQ(stats.completed, 2);
  EXPECT_EQ(stats.tier_count[static_cast<int>(ServeTier::kPopularity)], 2);
  // A known user on the same server still gets the full tier.
  EXPECT_EQ(f.server->ServeSync({0}).tier, ServeTier::kFull);
  EXPECT_EQ(f.server->stats().unknown_user, 2);
}

TEST(RecServerTest, UnknownUserIdsGetPopularityAnswersOnSubmit) {
  RecServerOptions opts;
  opts.num_workers = 2;
  opts.default_deadline_micros = 60'000'000;
  ServeFixture f(opts);
  const int64_t unknown[] = {f.ckg.num_users(), -1};
  for (const int64_t user : unknown) {
    ExpectUnknownUserAnswer(f.server->Submit({user, 20, 20'000}).get(), user);
  }
  EXPECT_EQ(f.server->Submit({1}).get().tier, ServeTier::kFull);
  const ServerStats stats = f.server->stats();
  EXPECT_EQ(stats.unknown_user, 2);
  EXPECT_EQ(stats.admitted, 3);
  EXPECT_EQ(stats.completed, 3);
}

TEST(RecServerTest, UnknownUserIdIsAnsweredThroughTheShardRouter) {
  const Dataset dataset = TinyDataset();
  const Ckg ckg = dataset.BuildCkg();
  const PprTable ppr = PprTable::Compute(ckg);
  Kucnet model(&dataset, &ckg, &ppr, SmallModelOptions());
  FakeClock clock;
  ShardRouterOptions options;
  options.server.num_workers = 0;
  options.clock = &clock;
  options.wait_micros = [&clock](int64_t micros) {
    clock.AdvanceMicros(micros);
  };
  ShardRouter router({&model}, &dataset, &ckg, &ppr, std::move(options));
  FleetRequest request;
  request.request = {ckg.num_users(), 20, 20'000};
  const FleetResponse got = router.Route(request);
  EXPECT_EQ(got.path, FleetPath::kPrimary);
  ExpectUnknownUserAnswer(got.response, ckg.num_users());
  EXPECT_EQ(router.stats().shards.unknown_user, 1);
}

TEST(RecServerTest, SubmitAfterShutdownIsRejected) {
  ServeFixture f(SyncOptions());
  f.server->Shutdown();
  auto future = f.server->Submit({0});
  EXPECT_EQ(future.get().status, ResponseStatus::kShutdown);
}

// ---- Response contract -------------------------------------------------------

TEST(RecServerTest, FullTierResponseRankedAndExcludesTrainItems) {
  FakeClock clock;  // frozen: the full tier cannot time out
  ServeFixture f(SyncOptions(&clock));
  const RecResponse response = f.server->ServeSync({0, /*top_n=*/10});
  ASSERT_EQ(response.status, ResponseStatus::kOk);
  EXPECT_EQ(response.tier, ServeTier::kFull);
  ASSERT_FALSE(response.items.empty());
  EXPECT_LE(static_cast<int64_t>(response.items.size()), 10);
  // Ranked: scores non-increasing, ties broken by ascending id.
  for (size_t k = 1; k < response.items.size(); ++k) {
    const auto& prev = response.items[k - 1];
    const auto& cur = response.items[k];
    EXPECT_TRUE(prev.score > cur.score ||
                (prev.score == cur.score && prev.item < cur.item));
  }
  // Training items are excluded from the ranked list.
  const std::vector<int64_t> train = f.dataset.TrainItemsByUser()[0];
  for (const ScoredItem& item : response.items) {
    EXPECT_FALSE(std::binary_search(train.begin(), train.end(), item.item));
  }
  // Per-stage latency covers exactly the tiers this request attempted.
  ASSERT_EQ(response.stage_micros.size(), 1u);
  EXPECT_EQ(response.stage_micros[0].stage, "full");
}

// ---- Deadline behavior under FakeClock ---------------------------------------

TEST(RecServerTest, DeadlineMissDegradesDeterministically) {
  FakeClock clock;
  // Every clock read (= every cancellation checkpoint) costs 50us against a
  // 300us budget, so the full tier deterministically dies mid-pipeline.
  clock.set_auto_advance_micros(50);
  ServeFixture f(SyncOptions(&clock));
  const RecRequest request{0, 0, /*deadline_micros=*/300};
  const RecResponse a = f.server->ServeSync(request);
  EXPECT_EQ(a.status, ResponseStatus::kOk);
  EXPECT_TRUE(a.degraded);
  EXPECT_NE(a.tier, ServeTier::kFull);
  EXPECT_FALSE(a.items.empty());
  EXPECT_NE(a.degrade_reason.find("deadline"), std::string::npos);
  // Same request again: byte-identical degradation story. The FakeClock makes
  // the expiring checkpoint — and therefore the reason text — deterministic.
  const RecResponse b = f.server->ServeSync(request);
  EXPECT_EQ(b.degrade_reason, a.degrade_reason);
  EXPECT_EQ(b.tier, a.tier);
  EXPECT_EQ(f.server->stats().deadline_missed, 2);
}

TEST(RecServerTest, ExpiredBudgetSkipsFullTierBeforeExecution) {
  FakeClock clock;
  // Two clock reads (stage timer + deadline pre-check) already overrun a 1us
  // budget, exercising the queued-past-the-budget path: the expensive tier
  // is never entered.
  clock.set_auto_advance_micros(5);
  ServeFixture f(SyncOptions(&clock));
  const RecResponse response = f.server->ServeSync({0, 0, /*deadline=*/1});
  EXPECT_TRUE(response.degraded);
  EXPECT_FALSE(response.items.empty());
  EXPECT_NE(response.degrade_reason.find("deadline expired before execution"),
            std::string::npos);
  EXPECT_EQ(f.server->stats().deadline_missed, 1);
}

TEST(RecServerTest, CachedTierServesAfterDeadlineMiss) {
  FakeClock clock;
  ServeFixture f(SyncOptions(&clock));
  // Warm the cache with an unconstrained full pass (time is frozen).
  const RecResponse warm = f.server->ServeSync({3});
  ASSERT_EQ(warm.tier, ServeTier::kFull);
  // Now make every checkpoint expensive: the full tier dies, cache answers.
  clock.set_auto_advance_micros(50);
  const RecResponse degraded = f.server->ServeSync({3, 0, 300});
  EXPECT_EQ(degraded.tier, ServeTier::kCached);
  EXPECT_TRUE(degraded.degraded);
  EXPECT_GE(degraded.cache_age_micros, 0);
  // The degraded list comes from the same scores the full pass produced.
  ASSERT_EQ(degraded.items.size(), warm.items.size());
  for (size_t k = 0; k < warm.items.size(); ++k) {
    EXPECT_EQ(degraded.items[k].item, warm.items[k].item);
  }
}

// ---- Fault sweep: every stage of every tier ----------------------------------

/// Runs one ServeSync under armed faults (time frozen, so only faults can
/// fail a stage) and asserts the robustness contract: kOk, non-empty ranked
/// items, flagged degraded with the faulted stage in the reason, and stats
/// that reconcile exactly with the injector.
void ExpectServedDespiteFault(const std::vector<std::string>& armed_stages,
                              int64_t fire_at_for_last,
                              ServeTier expected_tier) {
  SCOPED_TRACE("last stage " + armed_stages.back() + " fire_at " +
               std::to_string(fire_at_for_last));
  FakeClock clock;
  FaultInjector injector;
  ServeFixture f(SyncOptions(&clock, &injector));
  for (size_t s = 0; s < armed_stages.size(); ++s) {
    const bool last = s + 1 == armed_stages.size();
    injector.Arm(armed_stages[s], last ? fire_at_for_last : 1);
  }
  const RecResponse response = f.server->ServeSync({1});
  EXPECT_EQ(response.status, ResponseStatus::kOk);
  ASSERT_FALSE(response.items.empty());
  EXPECT_TRUE(response.degraded);
  EXPECT_EQ(response.tier, expected_tier);
  EXPECT_NE(response.degrade_reason.find("injected fault"), std::string::npos);
  EXPECT_NE(response.degrade_reason.find(armed_stages.back()),
            std::string::npos);
  // Counter reconciliation: every fault the injector fired is accounted for
  // in the server's stats, and exactly one (degraded) response was served.
  const ServerStats stats = f.server->stats();
  EXPECT_EQ(stats.fault_events, injector.faults_fired());
  EXPECT_GE(injector.faults_fired(), 1);
  EXPECT_EQ(stats.completed, 1);
  EXPECT_EQ(stats.degraded, 1);
  EXPECT_EQ(stats.deadline_missed, 0);
  EXPECT_EQ(stats.tier_count[static_cast<int>(expected_tier)], 1);
}

TEST(RecServerFaultSweepTest, FullTierStages) {
  // Tier 1 checkpoints: "ppr" (pruning-score fetch), "subgraph" (graph
  // construction, swept at several hit depths), "forward" (swept across all
  // three message-passing layers).
  ExpectServedDespiteFault({"ppr"}, 1, ServeTier::kHeuristic);
  for (const int64_t hit : {1, 2, 4}) {
    ExpectServedDespiteFault({"subgraph"}, hit, ServeTier::kHeuristic);
  }
  for (const int64_t layer : {1, 2, 3}) {
    ExpectServedDespiteFault({"forward"}, layer, ServeTier::kHeuristic);
  }
}

TEST(RecServerFaultSweepTest, CacheTierStage) {
  // Knock out the full tier, then fault the cache probe itself.
  ExpectServedDespiteFault({"ppr", "cache"}, 1, ServeTier::kHeuristic);
}

TEST(RecServerFaultSweepTest, HeuristicTierStage) {
  ExpectServedDespiteFault({"ppr", "cache", "heuristic"}, 1,
                           ServeTier::kPopularity);
}

TEST(RecServerFaultSweepTest, PopularityTierStillServesWhenFaulted) {
  // Even the last tier faulting must not produce an empty response.
  ExpectServedDespiteFault({"ppr", "cache", "heuristic", "popularity"}, 1,
                           ServeTier::kPopularity);
}

TEST(RecServerFaultSweepTest, CachedTierAnswersWhenWarm) {
  FakeClock clock;
  FaultInjector injector;
  ServeFixture f(SyncOptions(&clock, &injector));
  ASSERT_EQ(f.server->ServeSync({5}).tier, ServeTier::kFull);  // warm cache
  injector.Arm("ppr", 1);
  const RecResponse response = f.server->ServeSync({5});
  EXPECT_EQ(response.tier, ServeTier::kCached);
  EXPECT_FALSE(response.items.empty());
  EXPECT_EQ(f.server->stats().fault_events, injector.faults_fired());
}

// A user past the end of the PPR table (streaming can add users after the
// preprocessing ran) used to skip the heuristic tier *silently*: no
// degrade_reason, no counter — the drop to popularity was indistinguishable
// from a heuristic failure. The skip must now be attributed.
TEST(RecServerFaultSweepTest, UserOutsidePprTableSkipsHeuristicWithReason) {
  FakeClock clock;
  FaultInjector injector;
  Dataset dataset = TinyDataset();
  Ckg ckg = dataset.BuildCkg();
  const PprTable full = PprTable::Compute(ckg);
  // Truncate the table by one user, modeling a user streamed in after PPR
  // preprocessing.
  std::vector<std::unordered_map<int64_t, real_t>> vectors;
  for (int64_t u = 0; u + 1 < full.num_users(); ++u) {
    vectors.push_back(full.Vector(u));
  }
  PprTable truncated = PprTable::FromVectors(std::move(vectors));
  Kucnet model(&dataset, &ckg, &truncated, SmallModelOptions());
  RecServer server(&model, &dataset, &ckg, &truncated,
                   SyncOptions(&clock, &injector));

  const int64_t user = truncated.num_users();  // first user past the table
  // Kill the full tier at its very first checkpoint — safely before the PPR
  // ScoreFn would index the truncated table — so the request walks the
  // degrade chain: cache (cold) → heuristic (skipped) → popularity.
  injector.Arm("ppr", 1);
  RecRequest request;
  request.user = user;
  const RecResponse got = server.ServeSync(request);
  EXPECT_EQ(got.status, ResponseStatus::kOk);
  EXPECT_EQ(got.tier, ServeTier::kPopularity);
  EXPECT_FALSE(got.items.empty());
  EXPECT_NE(got.degrade_reason.find("outside the PPR table"),
            std::string::npos)
      << got.degrade_reason;
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.no_ppr_user, 1);
  EXPECT_EQ(stats.tier_count[static_cast<int>(ServeTier::kPopularity)], 1);

  // An in-table user on the same degraded path is NOT counted.
  injector.Arm("ppr", 1);
  RecRequest in_table;
  in_table.user = 0;
  EXPECT_EQ(server.ServeSync(in_table).tier, ServeTier::kHeuristic);
  EXPECT_EQ(server.stats().no_ppr_user, 1);
}

TEST(RecServerFaultSweepTest, TransientFaultRecoversNextRequest) {
  FakeClock clock;
  FaultInjector injector;
  ServeFixture f(SyncOptions(&clock, &injector));
  injector.Arm("subgraph", 1);
  EXPECT_TRUE(f.server->ServeSync({2}).degraded);
  // The next request sails through at full quality: compute faults are
  // transient, so one poisoned request never takes the server down.
  const RecResponse recovered = f.server->ServeSync({2});
  EXPECT_EQ(recovered.tier, ServeTier::kFull);
  EXPECT_FALSE(recovered.degraded);
}

// ---- Non-finite model output -------------------------------------------------

TEST(RecServerTest, NonFiniteScoresAreNeverCachedOrServed) {
  // Regression: serving from a mid-divergence checkpoint produces NaN scores
  // in the full tier. The server must reject that output — never cache it,
  // never rank it — and fall through the degrade chain instead.
  FakeClock clock;
  ServeFixture f(SyncOptions(&clock));
  // Poison the readout vector, the one weight every reachable item's score
  // flows through. (Poisoning *earlier* layers would not do: ReLU squashes
  // NaN activations to zero, and the matmul zero-skip then never touches the
  // poisoned weights, so scores come out finite.)
  Matrix& readout = f.model->Params().back()->value();
  for (int64_t i = 0; i < readout.size(); ++i) {
    readout.data()[i] = std::numeric_limits<double>::quiet_NaN();
  }
  const RecResponse response = f.server->ServeSync({3, 10, 0});
  EXPECT_EQ(response.status, ResponseStatus::kOk);
  // Cold cache, so the fallback lands on the PPR heuristic tier.
  EXPECT_EQ(response.tier, ServeTier::kHeuristic);
  EXPECT_TRUE(response.degraded);
  EXPECT_NE(response.degrade_reason.find("non-finite"), std::string::npos);
  ASSERT_FALSE(response.items.empty());
  for (const ScoredItem& item : response.items) {
    EXPECT_TRUE(std::isfinite(item.score)) << "item " << item.item;
  }
  // The poisoned vector was rejected *before* the cache deposit...
  EXPECT_EQ(f.server->cache().size(), 0);
  EXPECT_EQ(f.server->stats().nonfinite_scores, 1);
  EXPECT_EQ(f.server->stats().tier_count[static_cast<int>(ServeTier::kFull)],
            0);
  // ...so a later request degrades the same clean way rather than serving
  // NaN from a poisoned cache entry.
  const RecResponse again = f.server->ServeSync({3, 10, 0});
  EXPECT_EQ(again.tier, ServeTier::kHeuristic);
  EXPECT_EQ(f.server->stats().nonfinite_scores, 2);
}

TEST(RecServerTest, NonFiniteFullTierFallsBackToWarmCache) {
  // A warm, healthy cache entry outranks the PPR heuristic even when the
  // model later starts emitting NaN: degrade order is cache before PPR.
  FakeClock clock;
  ServeFixture f(SyncOptions(&clock));
  ASSERT_EQ(f.server->ServeSync({5, 10, 0}).tier, ServeTier::kFull);
  Matrix& readout = f.model->Params().back()->value();
  for (int64_t i = 0; i < readout.size(); ++i) {
    readout.data()[i] = std::numeric_limits<double>::quiet_NaN();
  }
  const RecResponse response = f.server->ServeSync({5, 10, 0});
  EXPECT_EQ(response.tier, ServeTier::kCached);
  EXPECT_EQ(f.server->stats().nonfinite_scores, 1);
  for (const ScoredItem& item : response.items) {
    EXPECT_TRUE(std::isfinite(item.score));
  }
}

// ---- Stats -------------------------------------------------------------------

TEST(RecServerTest, StatsReconcileAcrossMixedTraffic) {
  FakeClock clock;
  FaultInjector injector;
  ServeFixture f(SyncOptions(&clock, &injector));
  // 4 clean, 1 faulted at a forward layer, 1 faulted at the PPR fetch.
  for (int64_t user = 0; user < 4; ++user) f.server->ServeSync({user});
  injector.Arm("forward", 1);
  f.server->ServeSync({10});
  injector.Arm("ppr", 1);
  f.server->ServeSync({11});
  const ServerStats stats = f.server->stats();
  EXPECT_EQ(stats.submitted, 6);
  EXPECT_EQ(stats.admitted, 6);
  EXPECT_EQ(stats.completed, 6);
  EXPECT_EQ(stats.shed, 0);
  EXPECT_EQ(stats.degraded, 2);
  EXPECT_EQ(stats.fault_events, injector.faults_fired());
  EXPECT_EQ(stats.fault_events, 2);
  int64_t tier_sum = 0;
  for (const int64_t count : stats.tier_count) tier_sum += count;
  EXPECT_EQ(tier_sum, stats.completed);
  EXPECT_EQ(stats.latency.total, stats.completed);
}

// ---- Cache generations and warming -------------------------------------------

TEST(ScoreCacheTest, GenerationBumpInvalidatesEveryEntry) {
  FakeClock clock;
  ScoreCache cache(ScoreCacheOptions(), &clock);
  cache.Put(1, {1.0});
  cache.Put(2, {2.0});
  cache.BumpGeneration();
  EXPECT_EQ(cache.generation(), 1);
  std::vector<double> out;
  // Old-generation entries are dropped on probe, not served.
  EXPECT_FALSE(cache.Get(1, &out));
  EXPECT_FALSE(cache.Get(2, &out));
  EXPECT_EQ(cache.generation_evictions(), 2);
  EXPECT_EQ(cache.size(), 0);
  // The cache works normally in the new generation.
  cache.Put(1, {3.0});
  ASSERT_TRUE(cache.Get(1, &out));
  EXPECT_EQ(out[0], 3.0);
}

TEST(ScoreCacheTest, StaleGenerationPutIsDiscarded) {
  FakeClock clock;
  ScoreCache cache(ScoreCacheOptions(), &clock);
  // A forward pass snapshots the generation, then the model is swapped
  // while it runs: its deposit must be dropped, not planted in the fresh
  // cache.
  const int64_t snapshot = cache.generation();
  cache.BumpGeneration();
  cache.Put(9, {1.0}, snapshot);
  std::vector<double> out;
  EXPECT_FALSE(cache.Get(9, &out));
  EXPECT_EQ(cache.size(), 0);
  // A deposit tagged with the *current* generation lands normally.
  cache.Put(9, {2.0}, cache.generation());
  EXPECT_TRUE(cache.Get(9, &out));
}

TEST(ScoreCacheTest, GenerationTagWraparoundStaysCorrect) {
  FakeClock clock;
  ScoreCache cache(ScoreCacheOptions(), &clock);
  // Tags are compared for equality only and bumped with unsigned
  // arithmetic, so a wrap at INT64_MAX must behave like any other bump.
  cache.SetGenerationForTest(std::numeric_limits<int64_t>::max());
  cache.Put(1, {1.0});
  std::vector<double> out;
  ASSERT_TRUE(cache.Get(1, &out));
  cache.BumpGeneration();  // wraps to INT64_MIN
  EXPECT_FALSE(cache.Get(1, &out));
  EXPECT_EQ(cache.generation_evictions(), 1);
  cache.Put(1, {2.0});
  ASSERT_TRUE(cache.Get(1, &out));
  EXPECT_EQ(out[0], 2.0);
  // A generation-checked Put with a pre-wrap snapshot is still discarded.
  cache.SetGenerationForTest(std::numeric_limits<int64_t>::max());
  const int64_t snapshot = cache.generation(3);
  cache.BumpGeneration();
  cache.Put(3, {3.0}, snapshot);
  EXPECT_FALSE(cache.Get(3, &out));
  // The per-user component participates in the same wrapped sum: the
  // post-wrap tag round-trips through Put/Get and a per-user bump drops it.
  cache.Put(3, {4.0}, cache.generation(3));
  ASSERT_TRUE(cache.Get(3, &out));
  cache.InvalidateUser(3);
  EXPECT_FALSE(cache.Get(3, &out));
}

TEST(ScoreCacheTest, PerUserInvalidationDropsOnlyThatUser) {
  FakeClock clock;
  ScoreCache cache(ScoreCacheOptions(), &clock);
  cache.Put(1, {1.0});
  cache.Put(2, {2.0});
  cache.InvalidateUser(1);
  EXPECT_EQ(cache.user_invalidations(), 1);
  std::vector<double> out;
  EXPECT_FALSE(cache.Get(1, &out));  // touched user: dropped on probe
  ASSERT_TRUE(cache.Get(2, &out));   // untouched user keeps serving
  EXPECT_EQ(out[0], 2.0);
  // Global and per-user components compose: after a per-user bump a global
  // bump still invalidates everyone.
  cache.Put(1, {3.0});
  ASSERT_TRUE(cache.Get(1, &out));
  cache.BumpGeneration();
  EXPECT_FALSE(cache.Get(1, &out));
  EXPECT_FALSE(cache.Get(2, &out));
  // A snapshot taken before InvalidateUser can no longer deposit.
  const int64_t snapshot = cache.generation(7);
  cache.InvalidateUser(7);
  cache.Put(7, {4.0}, snapshot);
  EXPECT_FALSE(cache.Get(7, &out));
}

TEST(RecServerTest, WarmCacheFillsHottestUsersAtStartup) {
  FakeClock clock;
  RecServerOptions options = SyncOptions(&clock);
  options.warm_cache_users = 5;
  ServeFixture f(options);
  EXPECT_EQ(f.server->cache().size(), 5);
  EXPECT_EQ(f.server->stats().cache_warmed, 5);
  // The warmed entries are real full-tier scores: knock out the full tier
  // and the hottest user is served from cache, not the PPR heuristic.
  const std::vector<std::vector<int64_t>> train_items =
      f.dataset.TrainItemsByUser();
  int64_t hottest = 0;
  for (int64_t u = 1; u < static_cast<int64_t>(train_items.size()); ++u) {
    if (train_items[u].size() > train_items[hottest].size()) hottest = u;
  }
  FaultInjector injector;
  RecServerOptions faulted = SyncOptions(&clock, &injector);
  faulted.warm_cache_users = 5;
  ServeFixture g(faulted);
  injector.Arm("ppr", 1);
  const RecResponse response = g.server->ServeSync({hottest});
  EXPECT_EQ(response.tier, ServeTier::kCached);
  EXPECT_FALSE(response.items.empty());
}

TEST(RecServerTest, InvalidateCacheDropsWarmEntries) {
  FakeClock clock;
  FaultInjector injector;
  RecServerOptions options = SyncOptions(&clock, &injector);
  options.warm_cache_users = 30;  // every user
  ServeFixture f(options);
  // Sanity: warm entry answers a degraded request.
  injector.Arm("ppr", 1);
  ASSERT_EQ(f.server->ServeSync({2}).tier, ServeTier::kCached);
  // After invalidation the same degraded request skips the (stale) cache.
  f.server->InvalidateCache();
  injector.Arm("ppr", 1);
  const RecResponse response = f.server->ServeSync({2});
  EXPECT_EQ(response.tier, ServeTier::kHeuristic);
  EXPECT_GE(f.server->cache().generation_evictions(), 1);
}

TEST(LatencyHistogramTest, PercentileBounds) {
  LatencyHistogram histogram;
  for (int i = 0; i < 90; ++i) histogram.Record(3);     // bucket upper bound 3
  for (int i = 0; i < 10; ++i) histogram.Record(1000);  // bucket [512, 1024)
  EXPECT_EQ(histogram.total, 100);
  EXPECT_LE(histogram.PercentileUpperBound(0.5), 3);
  EXPECT_GE(histogram.PercentileUpperBound(0.99), 1000);
}

}  // namespace
}  // namespace kucnet
