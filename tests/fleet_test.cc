#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/kucnet.h"
#include "data/synthetic.h"
#include "serve/fleet/shard_fault.h"
#include "serve/fleet/shard_health.h"
#include "serve/fleet/shard_router.h"
#include "stream/streaming_ckg.h"
#include "tensor/serialize.h"
#include "util/clock.h"
#include "util/fault.h"
#include "util/fs.h"

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

KucnetOptions SmallModelOptions(uint64_t seed = 13) {
  KucnetOptions opts;
  opts.hidden_dim = 8;
  opts.attention_dim = 3;
  opts.depth = 3;
  opts.sample_k = 8;
  opts.seed = seed;
  return opts;
}

/// Router options for deterministic single-threaded tests: synchronous
/// shards, a FakeClock everywhere, and waits that advance that clock.
ShardRouterOptions SyncFleetOptions(FakeClock* clock,
                                    ShardFaultInjector* shard_fault = nullptr,
                                    FaultInjector* stage_fault = nullptr) {
  ShardRouterOptions opts;
  opts.server.num_workers = 0;
  opts.clock = clock;
  opts.shard_fault = shard_fault;
  opts.stage_fault = stage_fault;
  opts.wait_micros = [clock](int64_t micros) { clock->AdvanceMicros(micros); };
  return opts;
}

/// Dataset + CKG + PPR + one identically-seeded model per shard + router.
/// All shard models share options and seed, so every shard's full tier is
/// bitwise identical — any shard's answer can be checked against one
/// reference forward pass.
struct FleetFixture {
  FleetFixture(int num_shards, ShardRouterOptions options)
      : dataset(TinyDataset()), ckg(dataset.BuildCkg()) {
    ppr = PprTable::Compute(ckg);
    std::vector<Kucnet*> raw;
    for (int s = 0; s < num_shards; ++s) {
      models.push_back(
          std::make_unique<Kucnet>(&dataset, &ckg, &ppr, SmallModelOptions()));
      raw.push_back(models.back().get());
    }
    router = std::make_unique<ShardRouter>(raw, &dataset, &ckg, &ppr,
                                           std::move(options));
  }

  FleetResponse Route(int64_t user, int64_t tenant = 0) {
    FleetRequest request;
    request.request.user = user;
    request.tenant = tenant;
    return router->Route(request);
  }

  Dataset dataset;
  Ckg ckg;
  PprTable ppr;
  std::vector<std::unique_ptr<Kucnet>> models;
  std::unique_ptr<ShardRouter> router;
};

void ExpectSameItems(const std::vector<ScoredItem>& a,
                     const std::vector<ScoredItem>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].item, b[i].item) << "rank " << i;
    EXPECT_DOUBLE_EQ(a[i].score, b[i].score) << "rank " << i;
  }
}

// ---- Consistent-hash routing -------------------------------------------------

TEST(ShardRouterTest, RoutingIsDeterministicAndCoversAllShards) {
  FakeClock clock_a, clock_b;
  FleetFixture a(3, SyncFleetOptions(&clock_a));
  FleetFixture b(3, SyncFleetOptions(&clock_b));
  std::set<int> homes;
  for (int64_t user = 0; user < 1000; ++user) {
    const int home = a.router->ShardForUser(user);
    // Same config => same ring => same placement, across router instances.
    EXPECT_EQ(home, b.router->ShardForUser(user));
    homes.insert(home);
    const std::vector<int> prefs = a.router->PreferenceOrder(user);
    ASSERT_EQ(prefs.size(), 3u);
    EXPECT_EQ(prefs[0], home);  // home shard leads the failover order
    EXPECT_EQ(std::set<int>(prefs.begin(), prefs.end()).size(), 3u);
    EXPECT_EQ(prefs, b.router->PreferenceOrder(user));
  }
  // 1000 users on a 48-point ring: every shard owns a slice.
  EXPECT_EQ(homes.size(), 3u);
}

// ---- Healthy fleet -----------------------------------------------------------

TEST(ShardRouterTest, HealthyFleetServesFullTierOnPrimary) {
  FakeClock clock;
  FleetFixture fleet(3, SyncFleetOptions(&clock));

  // One reference server over an identically-seeded model: the oracle for
  // what any healthy shard's full tier must return.
  Kucnet reference(&fleet.dataset, &fleet.ckg, &fleet.ppr,
                   SmallModelOptions());
  RecServerOptions ref_options;
  ref_options.num_workers = 0;
  ref_options.clock = &clock;
  RecServer ref_server(&reference, &fleet.dataset, &fleet.ckg, &fleet.ppr,
                       ref_options);

  for (int64_t user = 0; user < fleet.dataset.num_users; ++user) {
    const FleetResponse got = fleet.Route(user);
    ASSERT_EQ(got.response.status, ResponseStatus::kOk);
    EXPECT_EQ(got.response.tier, ServeTier::kFull);
    EXPECT_FALSE(got.response.degraded);
    EXPECT_EQ(got.path, FleetPath::kPrimary);
    EXPECT_EQ(got.shard, fleet.router->ShardForUser(user));
    EXPECT_EQ(got.attempts, 1);
    EXPECT_EQ(got.retries, 0);
    EXPECT_TRUE(got.fleet_reason.empty());
    RecRequest ref_request;
    ref_request.user = user;
    ExpectSameItems(got.response.items,
                    ref_server.ServeSync(ref_request).items);
  }
  const FleetStats stats = fleet.router->stats();
  EXPECT_EQ(stats.submitted, fleet.dataset.num_users);
  EXPECT_EQ(stats.answered, fleet.dataset.num_users);
  EXPECT_EQ(stats.shard_answers, fleet.dataset.num_users);
  EXPECT_EQ(stats.fallback_answers, 0);
  EXPECT_EQ(stats.attempts, fleet.dataset.num_users);
  EXPECT_EQ(stats.retries, 0);
  EXPECT_EQ(stats.tier_count[static_cast<int>(ServeTier::kFull)],
            fleet.dataset.num_users);
  EXPECT_EQ(stats.path_count[static_cast<int>(FleetPath::kPrimary)],
            fleet.dataset.num_users);
  // The merged per-shard view must account for every request exactly once.
  EXPECT_EQ(stats.shards.completed, fleet.dataset.num_users);
}

// ---- Retries -----------------------------------------------------------------

TEST(ShardRouterTest, KilledPrimaryRetriesToSibling) {
  FakeClock clock;
  ShardFaultInjector faults;
  FleetFixture fleet(3, SyncFleetOptions(&clock, &faults));
  const int64_t user = 4;
  const std::vector<int> prefs = fleet.router->PreferenceOrder(user);
  faults.Kill(prefs[0]);

  const FleetResponse got = fleet.Route(user);
  ASSERT_EQ(got.response.status, ResponseStatus::kOk);
  EXPECT_EQ(got.response.tier, ServeTier::kFull);  // sibling is fully healthy
  EXPECT_EQ(got.path, FleetPath::kRetry);
  EXPECT_EQ(got.shard, prefs[1]);
  EXPECT_EQ(got.attempts, 2);
  EXPECT_EQ(got.retries, 1);
  EXPECT_NE(got.fleet_reason.find("down"), std::string::npos);
  EXPECT_GT(got.total_micros, 0);  // the retry backoff burned fleet time

  const FleetStats stats = fleet.router->stats();
  EXPECT_EQ(stats.shard_down_failures, 1);
  EXPECT_EQ(stats.retries, 1);
  EXPECT_EQ(faults.faults_fired(), 1);
}

TEST(ShardRouterTest, BackoffScheduleIsDeterministicAndExponential) {
  const auto run = [] {
    FakeClock clock;
    ShardFaultInjector faults;
    FleetFixture fleet(3, SyncFleetOptions(&clock, &faults));
    const std::vector<int> prefs = fleet.router->PreferenceOrder(9);
    faults.Kill(prefs[0]);
    faults.Kill(prefs[1]);  // force both retries; the third shard answers
    return fleet.Route(9);
  };
  const FleetResponse first = run();
  ASSERT_EQ(first.response.status, ResponseStatus::kOk);
  EXPECT_EQ(first.attempts, 3);
  EXPECT_EQ(first.retries, 2);
  // Defaults: base 1000us, multiplier 2 => waits of 1000+j1 and 2000+j2
  // with jitter in [0, 256). Everything on the FakeClock, so total latency
  // is exactly the backoff schedule.
  EXPECT_GE(first.total_micros, 3000);
  EXPECT_LT(first.total_micros, 3000 + 2 * 256);
  // Seeded jitter: an identical fleet replays the identical schedule.
  EXPECT_EQ(first.total_micros, run().total_micros);
}

// ---- Circuit breaker ---------------------------------------------------------

TEST(ShardRouterTest, BreakerOpensAfterThresholdAndRecoversViaProbe) {
  FakeClock clock;
  ShardFaultInjector faults;
  ShardRouterOptions options = SyncFleetOptions(&clock, &faults);
  options.breaker.failure_threshold = 3;
  options.breaker.open_cooldown_micros = 1'000'000;
  FleetFixture fleet(2, options);
  const int64_t user = 2;
  const std::vector<int> prefs = fleet.router->PreferenceOrder(user);
  const int home = prefs[0];
  faults.Kill(home);

  // Three failed attempts trip the home shard's breaker open; the sibling
  // answers each time.
  for (int i = 0; i < 3; ++i) {
    const FleetResponse got = fleet.Route(user);
    ASSERT_EQ(got.response.status, ResponseStatus::kOk);
    EXPECT_EQ(got.shard, prefs[1]);
  }
  EXPECT_EQ(fleet.router->shard_health(home), ShardHealth::kOpen);

  // While open the home shard is skipped without an attempt: the request
  // goes straight to the sibling on its first attempt.
  const FleetResponse while_open = fleet.Route(user);
  EXPECT_EQ(while_open.shard, prefs[1]);
  EXPECT_EQ(while_open.attempts, 1);
  EXPECT_EQ(while_open.path, FleetPath::kPrimary);
  EXPECT_NE(while_open.fleet_reason.find("breaker open"), std::string::npos);
  EXPECT_GT(fleet.router->stats().breaker_rejections, 0);
  EXPECT_EQ(faults.attempts(home), 3);  // no traffic reached it while open

  // Cooldown elapses and the shard comes back: the next request is admitted
  // as a half-open probe, succeeds, and closes the breaker.
  faults.Revive(home);
  clock.AdvanceMicros(1'000'000);
  const FleetResponse probe = fleet.Route(user);
  ASSERT_EQ(probe.response.status, ResponseStatus::kOk);
  EXPECT_EQ(probe.shard, home);
  EXPECT_EQ(fleet.router->shard_health(home), ShardHealth::kClosed);

  const FleetStats stats = fleet.router->stats();
  // closed -> open -> half-open -> closed.
  EXPECT_EQ(stats.breaker_transitions, 3);
  EXPECT_GE(stats.half_open_probes, 1);
  // The breaker counts each transition once, into the router's registry:
  // the open -> half-open step taken while admitting the probe included.
  const obs::MetricsSnapshot snapshot = fleet.router->metrics().Snapshot();
  const std::string prefix = "fleet.shard." + std::to_string(home) + ".";
  EXPECT_EQ(snapshot.counters.at(prefix + "health_transitions"), 3);
  EXPECT_EQ(snapshot.counters.at(prefix + "health.open"), 1);
  EXPECT_EQ(snapshot.counters.at(prefix + "health.half-open"), 1);
  EXPECT_EQ(snapshot.counters.at(prefix + "health.closed"), 1);
  EXPECT_EQ(snapshot.counters.at(prefix + "half_open_probes"),
            stats.half_open_probes);
}

// ---- Hedging -----------------------------------------------------------------

TEST(ShardRouterTest, StalledShardTriggersHedgeThatWins) {
  FakeClock clock;
  ShardFaultInjector faults;
  ShardRouterOptions options = SyncFleetOptions(&clock, &faults);
  options.hedging = true;
  options.hedge_latency_micros = 20'000;
  options.unhealthy_latency_micros = 20'000;
  FleetFixture fleet(3, options);
  const int64_t user = 11;
  const std::vector<int> prefs = fleet.router->PreferenceOrder(user);
  faults.Stall(prefs[0], 50'000);

  const FleetResponse got = fleet.Route(user);
  ASSERT_EQ(got.response.status, ResponseStatus::kOk);
  EXPECT_TRUE(got.hedged);
  EXPECT_TRUE(got.hedge_won);  // same tier, 0us beats 50'000us
  EXPECT_EQ(got.path, FleetPath::kHedge);
  EXPECT_EQ(got.shard, prefs[1]);
  EXPECT_EQ(got.attempts, 2);
  EXPECT_EQ(got.retries, 0);  // a hedge is not a retry

  const FleetStats stats = fleet.router->stats();
  EXPECT_EQ(stats.hedges, 1);
  EXPECT_EQ(stats.hedges_won, 1);
  EXPECT_EQ(stats.hedges_lost, 0);
  EXPECT_EQ(faults.stalls_fired(), 1);
  // The slow answer also counted against the stalling shard's health.
  EXPECT_EQ(stats.slow_attempt_failures, 1);
  EXPECT_EQ(fleet.router->shard_health(prefs[0]), ShardHealth::kClosed);
}

TEST(ShardRouterTest, FastPrimaryNeverHedges) {
  FakeClock clock;
  ShardRouterOptions options = SyncFleetOptions(&clock);
  options.hedging = true;
  FleetFixture fleet(3, options);
  const FleetResponse got = fleet.Route(11);
  EXPECT_FALSE(got.hedged);
  EXPECT_EQ(got.attempts, 1);
  EXPECT_EQ(fleet.router->stats().hedges, 0);
}

// ---- Fleet fallback ----------------------------------------------------------

TEST(ShardRouterTest, AllShardsDownFallsBackToPopularity) {
  FakeClock clock;
  ShardFaultInjector faults;
  FleetFixture fleet(3, SyncFleetOptions(&clock, &faults));
  for (int s = 0; s < 3; ++s) faults.Kill(s);

  const int64_t user = 6;
  const FleetResponse got = fleet.Route(user);
  ASSERT_EQ(got.response.status, ResponseStatus::kOk);
  EXPECT_EQ(got.path, FleetPath::kFallback);
  EXPECT_EQ(got.shard, -1);
  EXPECT_EQ(got.response.tier, ServeTier::kPopularity);
  EXPECT_TRUE(got.response.degraded);
  EXPECT_EQ(got.attempts, 3);  // 1 + max_retries, all refused
  ASSERT_FALSE(got.response.items.empty());

  // The fallback ranking is exactly training popularity (count desc, id
  // asc) minus the user's own training items.
  std::vector<int64_t> counts(fleet.dataset.num_items, 0);
  for (const auto& [u, item] : fleet.dataset.train) ++counts[item];
  const std::vector<std::vector<int64_t>> train_items =
      fleet.dataset.TrainItemsByUser();
  int64_t prev_count = counts[got.response.items[0].item];
  for (const ScoredItem& scored : got.response.items) {
    EXPECT_FALSE(std::binary_search(train_items[user].begin(),
                                    train_items[user].end(), scored.item));
    EXPECT_LE(counts[scored.item], prev_count);  // popularity-sorted
    prev_count = counts[scored.item];
    EXPECT_EQ(scored.score, static_cast<double>(counts[scored.item]));
  }

  // Keep routing until every breaker opens; the fleet still answers with
  // zero attempts per request.
  for (int i = 0; i < 10; ++i) fleet.Route(user);
  const FleetResponse after = fleet.Route(user);
  EXPECT_EQ(after.response.status, ResponseStatus::kOk);
  EXPECT_EQ(after.path, FleetPath::kFallback);
  EXPECT_EQ(after.attempts, 0);  // all breakers open: no attempt wasted
  EXPECT_EQ(fleet.router->stats().fallback_answers, 12);
}

// ---- Tenant quotas -----------------------------------------------------------

TEST(ShardRouterTest, TenantQuotaShedsAndWindowRollsOver) {
  FakeClock clock;
  ShardRouterOptions options = SyncFleetOptions(&clock);
  options.tenant.quota = 2;
  options.tenant.window_micros = 1'000;
  FleetFixture fleet(2, options);

  EXPECT_EQ(fleet.Route(1, /*tenant=*/7).response.status, ResponseStatus::kOk);
  EXPECT_EQ(fleet.Route(2, /*tenant=*/7).response.status, ResponseStatus::kOk);
  const FleetResponse shed = fleet.Route(3, /*tenant=*/7);
  EXPECT_EQ(shed.response.status, ResponseStatus::kOverloaded);
  EXPECT_EQ(shed.path, FleetPath::kQuotaShed);
  EXPECT_EQ(shed.attempts, 0);  // shed at admission: no shard touched
  EXPECT_NE(shed.fleet_reason.find("quota"), std::string::npos);

  // Quotas are per tenant: another tenant is unaffected.
  EXPECT_EQ(fleet.Route(3, /*tenant=*/8).response.status, ResponseStatus::kOk);

  // A new window re-admits the shed tenant.
  clock.AdvanceMicros(1'000);
  EXPECT_EQ(fleet.Route(3, /*tenant=*/7).response.status, ResponseStatus::kOk);

  const FleetStats stats = fleet.router->stats();
  EXPECT_EQ(stats.quota_shed, 1);
  EXPECT_EQ(stats.path_count[static_cast<int>(FleetPath::kQuotaShed)], 1);
  EXPECT_EQ(stats.submitted, 5);
  EXPECT_EQ(stats.answered, 4);
}

// ---- Rolling swap ------------------------------------------------------------

TEST(ShardRouterTest, RollingSwapServesThroughoutAndLoadsNewWeights) {
  FakeClock clock;
  ShardRouterOptions options = SyncFleetOptions(&clock);
  options.server.warm_cache_users = 4;
  FleetFixture fleet(2, options);

  // The v2 checkpoint: same architecture, different seed => different
  // weights, observably different scores.
  Kucnet v2(&fleet.dataset, &fleet.ckg, &fleet.ppr, SmallModelOptions(99));
  const std::string path = ::testing::TempDir() + "/fleet_swap_v2.ckpt";
  ASSERT_TRUE(TrySaveParameters(v2.Params(), path).ok());

  // Mid-swap traffic: while each shard drains, a request for a user homed
  // on it must be answered by the sibling.
  std::vector<std::string> phases;
  int64_t mid_swap_checks = 0;
  const int64_t home0_user = [&] {
    for (int64_t u = 0;; ++u) {
      if (fleet.router->ShardForUser(u) == 0) return u;
    }
  }();
  const int64_t home1_user = [&] {
    for (int64_t u = 0;; ++u) {
      if (fleet.router->ShardForUser(u) == 1) return u;
    }
  }();
  // Rebuild the router with a swap observer installed (the observer needs
  // the router, so configure via mutable options on a fresh fixture).
  ShardRouterOptions observed = SyncFleetOptions(&clock);
  observed.server.warm_cache_users = 4;
  observed.swap_observer = [&](int shard, const char* phase) {
    phases.push_back(std::to_string(shard) + ":" + phase);
    if (std::string(phase) == "draining") {
      const int64_t user = shard == 0 ? home0_user : home1_user;
      const FleetResponse mid = fleet.Route(user);
      EXPECT_EQ(mid.response.status, ResponseStatus::kOk);
      EXPECT_NE(mid.shard, shard);  // the draining shard is skipped
      ++mid_swap_checks;
    }
  };
  fleet.router = nullptr;  // tear down before re-wiring the same models
  std::vector<Kucnet*> raw;
  for (auto& m : fleet.models) raw.push_back(m.get());
  fleet.router = std::make_unique<ShardRouter>(raw, &fleet.dataset, &fleet.ckg,
                                               &fleet.ppr, observed);

  const Status swapped = fleet.router->RollingSwap(path);
  ASSERT_TRUE(swapped.ok()) << swapped.message();
  EXPECT_EQ(mid_swap_checks, 2);
  const std::vector<std::string> want = {"0:draining", "0:swapped",
                                         "0:readmitted", "1:draining",
                                         "1:swapped", "1:readmitted"};
  EXPECT_EQ(phases, want);
  EXPECT_FALSE(fleet.router->shard_draining(0));
  EXPECT_FALSE(fleet.router->shard_draining(1));

  const FleetStats stats = fleet.router->stats();
  EXPECT_EQ(stats.swaps, 2);
  EXPECT_EQ(stats.draining_skips, 2);
  // Each shard's cache was invalidated exactly once, then rewarmed.
  EXPECT_EQ(fleet.router->shard(0).cache().generation(), 1);
  EXPECT_EQ(fleet.router->shard(1).cache().generation(), 1);
  EXPECT_GE(stats.shards.cache_warmed, 2 * 4);  // construction + rewarm

  // Post-swap answers come from the v2 weights on every shard.
  RecServerOptions ref_options;
  ref_options.num_workers = 0;
  ref_options.clock = &clock;
  RecServer ref_server(&v2, &fleet.dataset, &fleet.ckg, &fleet.ppr,
                       ref_options);
  for (const int64_t user : {home0_user, home1_user}) {
    const FleetResponse got = fleet.Route(user);
    ASSERT_EQ(got.response.tier, ServeTier::kFull);
    RecRequest ref_request;
    ref_request.user = user;
    ExpectSameItems(got.response.items,
                    ref_server.ServeSync(ref_request).items);
  }
}

TEST(ShardRouterTest, RollingSwapRejectsBogusCheckpointAndStaysServing) {
  FakeClock clock;
  FleetFixture fleet(2, SyncFleetOptions(&clock));
  const Status status = fleet.router->RollingSwap("/nonexistent/ckpt");
  EXPECT_FALSE(status.ok());
  EXPECT_FALSE(fleet.router->shard_draining(0));
  EXPECT_FALSE(fleet.router->shard_draining(1));
  EXPECT_EQ(fleet.router->stats().swaps, 0);
  EXPECT_EQ(fleet.Route(5).response.status, ResponseStatus::kOk);
}

TEST(ShardRouterTest, FailedSwapLeavesTheShardAnsweringAsBefore) {
  FakeClock clock;
  FleetFixture fleet(2, SyncFleetOptions(&clock));
  // A checksum-valid checkpoint whose first parameters fit the shard models
  // and a later one does not: other weights, and a wider attention.
  KucnetOptions other = SmallModelOptions(99);
  other.attention_dim = 4;
  Kucnet mismatched(&fleet.dataset, &fleet.ckg, &fleet.ppr, other);
  const std::string path = ::testing::TempDir() + "/fleet_swap_mismatch.ckpt";
  ASSERT_TRUE(TrySaveParameters(mismatched.Params(), path).ok());
  ASSERT_TRUE(IsCheckpoint(path));

  std::vector<FleetResponse> before;
  for (int64_t user = 0; user < fleet.dataset.num_users; ++user) {
    before.push_back(fleet.Route(user));
  }
  const Status swapped = fleet.router->RollingSwap(path);
  ASSERT_FALSE(swapped.ok());
  EXPECT_NE(swapped.message().find("shape mismatch"), std::string::npos)
      << swapped.message();
  EXPECT_FALSE(fleet.router->shard_draining(0));
  EXPECT_EQ(fleet.router->stats().swaps, 0);
  // Shard 0 failed its load and was re-admitted; every user, those homed on
  // it included, gets bitwise the answer it got before the swap.
  for (int64_t user = 0; user < fleet.dataset.num_users; ++user) {
    const FleetResponse after = fleet.Route(user);
    ASSERT_EQ(after.shard, before[user].shard) << "user " << user;
    ASSERT_EQ(after.response.tier, ServeTier::kFull) << "user " << user;
    ASSERT_EQ(after.response.items.size(), before[user].response.items.size());
    for (size_t i = 0; i < after.response.items.size(); ++i) {
      EXPECT_EQ(after.response.items[i].item,
                before[user].response.items[i].item);
      EXPECT_EQ(after.response.items[i].score,
                before[user].response.items[i].score);
    }
  }
}

TEST(ShardRouterTest, FleetShardStatsAreTheSumOfEveryShardsStats) {
  FakeClock clock;
  FaultInjector stage_fault;
  ShardRouterOptions options = SyncFleetOptions(&clock, nullptr, &stage_fault);
  options.server.warm_cache_users = 3;
  FleetFixture fleet(3, options);
  for (int64_t user = 0; user < fleet.dataset.num_users; ++user) {
    if (user % 4 == 0) stage_fault.Arm("forward", 1);
    fleet.Route(user);
  }
  const ServerStats total = fleet.router->stats().shards;
  ServerStats sum;
  for (int k = 0; k < fleet.router->num_shards(); ++k) {
    const ServerStats s = fleet.router->shard(k).stats();
    sum.submitted += s.submitted;
    sum.admitted += s.admitted;
    sum.shed += s.shed;
    sum.completed += s.completed;
    sum.deadline_missed += s.deadline_missed;
    sum.fault_events += s.fault_events;
    sum.nonfinite_scores += s.nonfinite_scores;
    sum.cache_warmed += s.cache_warmed;
    sum.degraded += s.degraded;
    sum.no_ppr_user += s.no_ppr_user;
    sum.unknown_user += s.unknown_user;
    sum.forward_batches += s.forward_batches;
    sum.batched_requests += s.batched_requests;
    sum.multi_user_batches += s.multi_user_batches;
    sum.deadline_preempted += s.deadline_preempted;
    for (int t = 0; t < kNumServeTiers; ++t) {
      sum.tier_count[t] += s.tier_count[t];
    }
    sum.latency.MergeFrom(s.latency);
  }
  EXPECT_EQ(total.submitted, fleet.dataset.num_users);
  EXPECT_GT(total.fault_events, 0);
  EXPECT_EQ(total.cache_warmed, 3 * 3);
  EXPECT_EQ(total.submitted, sum.submitted);
  EXPECT_EQ(total.admitted, sum.admitted);
  EXPECT_EQ(total.shed, sum.shed);
  EXPECT_EQ(total.completed, sum.completed);
  EXPECT_EQ(total.deadline_missed, sum.deadline_missed);
  EXPECT_EQ(total.fault_events, sum.fault_events);
  EXPECT_EQ(total.nonfinite_scores, sum.nonfinite_scores);
  EXPECT_EQ(total.cache_warmed, sum.cache_warmed);
  EXPECT_EQ(total.degraded, sum.degraded);
  EXPECT_EQ(total.no_ppr_user, sum.no_ppr_user);
  EXPECT_EQ(total.unknown_user, sum.unknown_user);
  EXPECT_EQ(total.forward_batches, sum.forward_batches);
  EXPECT_EQ(total.batched_requests, sum.batched_requests);
  EXPECT_EQ(total.multi_user_batches, sum.multi_user_batches);
  EXPECT_EQ(total.deadline_preempted, sum.deadline_preempted);
  EXPECT_EQ(total.tier_count, sum.tier_count);
  EXPECT_EQ(total.latency.counts, sum.latency.counts);
  EXPECT_EQ(total.latency.total, sum.latency.total);
  EXPECT_EQ(total.latency.sum, sum.latency.sum);

  // The router-wide fields are series of the router's own registry.
  const FleetStats stats = fleet.router->stats();
  const obs::MetricsSnapshot router = fleet.router->metrics().Snapshot();
  EXPECT_EQ(stats.submitted, router.counters.at("fleet.submitted"));
  EXPECT_EQ(stats.answered, router.counters.at("fleet.answered"));
  EXPECT_EQ(stats.attempts, router.counters.at("fleet.attempts"));
  int64_t shard_answers = 0;
  for (int k = 0; k < fleet.router->num_shards(); ++k) {
    shard_answers += router.counters.at("fleet.shard." + std::to_string(k) +
                                        ".answers");
  }
  EXPECT_EQ(stats.shard_answers, shard_answers);
  EXPECT_EQ(stats.shard_answers, fleet.dataset.num_users);
  for (int p = 0; p < kNumFleetPaths; ++p) {
    EXPECT_EQ(stats.path_count[p],
              router.counters.at(std::string("fleet.path.") +
                                 FleetPathName(static_cast<FleetPath>(p))));
  }
}

// The cache-staleness regression the swap machinery exists to prevent: after
// a hot swap, a degraded request retried onto the shard must NOT be served
// scores the pre-swap model computed.
TEST(ShardRouterTest, RetriedRequestCannotReadPreSwapCacheEntry) {
  FakeClock clock;
  FaultInjector stage_faults;
  ShardRouterOptions options = SyncFleetOptions(&clock, nullptr, &stage_faults);
  options.warm_after_swap_users = 0;  // no rewarm: the stale entry would be
                                      // the only cached candidate
  FleetFixture fleet(2, options);
  const int64_t user = 3;
  const int home = fleet.router->ShardForUser(user);

  // Pre-swap: a full-tier answer deposits v1 scores in the home shard's
  // cache.
  const FleetResponse before = fleet.Route(user);
  ASSERT_EQ(before.response.tier, ServeTier::kFull);
  ASSERT_EQ(before.shard, home);
  const std::vector<ScoredItem> v1_items = before.response.items;
  ASSERT_GT(fleet.router->shard(home).cache().size(), 0u);

  // Hot-swap to different weights.
  Kucnet v2(&fleet.dataset, &fleet.ckg, &fleet.ppr, SmallModelOptions(99));
  const std::string path = ::testing::TempDir() + "/fleet_stale_v2.ckpt";
  ASSERT_TRUE(TrySaveParameters(v2.Params(), path).ok());
  ASSERT_TRUE(fleet.router->RollingSwap(path).ok());

  // Post-swap degraded request: the full tier fails (injected), so the
  // shard reaches its cached tier — where the v1 entry still physically
  // sits. The generation tag must reject it.
  stage_faults.Arm("ppr", 1);
  const FleetResponse after = fleet.Route(user);
  ASSERT_EQ(after.response.status, ResponseStatus::kOk);
  EXPECT_NE(after.response.tier, ServeTier::kCached);
  EXPECT_EQ(after.response.tier, ServeTier::kHeuristic);
  EXPECT_GE(fleet.router->shard(home).cache().generation_evictions(), 1);
}

// ---- Streaming invalidation --------------------------------------------------

// The streaming layer's bridge into the fleet: a graph update invalidates
// the touched users' cached scores on EVERY shard — retries and hedges can
// deposit a user's entries anywhere — and the stream keeps flowing while a
// shard drains for a rolling swap.
TEST(ShardRouterTest, StreamingUpdatesInvalidatePerUserAcrossShardsDuringSwap) {
  FakeClock clock;
  StreamingCkg* stream_ptr = nullptr;
  ShardRouterOptions options = SyncFleetOptions(&clock);
  options.server.warm_cache_users = 4;
  options.swap_observer = [&stream_ptr](int shard, const char* phase) {
    if (shard == 0 && std::string(phase) == "draining") {
      // An update lands mid-swap, while shard 0 is out of rotation.
      ASSERT_TRUE(stream_ptr->AppendInteraction(1, 2).ok());
    }
  };
  FleetFixture fleet(2, options);

  InMemoryFileSystem fs;
  std::unique_ptr<StreamingCkg> stream;
  ASSERT_TRUE(StreamingCkg::Open(fleet.dataset, &fs, "wal",
                                 StreamingCkgOptions(), nullptr, &stream)
                  .ok());
  stream_ptr = stream.get();
  std::vector<int64_t> last_touched;
  int64_t total_bumps = 0;
  stream->set_invalidation_hook([&](const std::vector<int64_t>& users) {
    last_touched = users;
    total_bumps += static_cast<int64_t>(users.size());
    fleet.router->InvalidateUsers(users);
  });

  // Pre-swap: one update bumps exactly the touched users, on both shards.
  ASSERT_TRUE(stream->AppendInteraction(0, 1).ok());
  ASSERT_FALSE(last_touched.empty());
  EXPECT_TRUE(
      std::binary_search(last_touched.begin(), last_touched.end(), 0));
  for (int s = 0; s < 2; ++s) {
    EXPECT_EQ(fleet.router->shard(s).cache().user_invalidations(),
              total_bumps);
  }
  // Per-user invalidation moves the effective tag without touching the
  // global (model-swap) generation.
  EXPECT_EQ(fleet.router->shard(0).cache().generation(), 0);
  EXPECT_NE(fleet.router->shard(0).cache().generation(last_touched[0]), 0);

  // Rolling swap with the stream still flowing (see swap_observer above).
  Kucnet v2(&fleet.dataset, &fleet.ckg, &fleet.ppr, SmallModelOptions(99));
  const std::string path = ::testing::TempDir() + "/fleet_stream_v2.ckpt";
  ASSERT_TRUE(TrySaveParameters(v2.Params(), path).ok());
  const int64_t bumps_before_swap = total_bumps;
  ASSERT_TRUE(fleet.router->RollingSwap(path).ok());
  EXPECT_GT(total_bumps, bumps_before_swap);  // the mid-swap update fired
  for (int s = 0; s < 2; ++s) {
    // Every shard saw every bump — including the one that arrived while
    // shard 0 was draining — plus the swap's own global invalidation.
    EXPECT_EQ(fleet.router->shard(s).cache().user_invalidations(),
              total_bumps);
    EXPECT_EQ(fleet.router->shard(s).cache().generation(), 1);
  }
  // The fleet answers for a touched user after all of it.
  EXPECT_EQ(fleet.Route(1).response.status, ResponseStatus::kOk);
  EXPECT_EQ(stream->stats().applied, 2);
}

// The in-flight race the drain loop must close: a request that passed the
// draining check (or that a worker already popped off the queue) is still
// reading model parameters inside the forward pass while queue_depth() is
// already 0. The old drain loop polled only queue_depth(), so RollingSwap
// would hot-load new weights UNDER the executing request — a data race TSan
// flags and a correctness bug (scores from half-old, half-new weights).
// This test pins a request at its "forward" checkpoint with a one-shot
// stall, starts a swap on another thread, and asserts the swap cannot
// report the home shard "swapped" until the stalled request was released.
TEST(ShardRouterTest, RollingSwapWaitsForInFlightRequestNotJustQueue) {
  // Real clock, real worker threads: the TSan-relevant configuration.
  FaultInjector stage_faults;
  ShardRouterOptions options;
  options.server.num_workers = 1;
  options.server.default_deadline_micros = 60'000'000;
  options.stage_fault = &stage_faults;
  FleetFixture fleet(2, options);

  const int64_t user = 3;
  const int home = fleet.router->ShardForUser(user);

  // Same-weights checkpoint: the test is about the drain ordering, not the
  // scores.
  const std::string ckpt = ::testing::TempDir() + "/fleet_inflight.ckpt";
  ASSERT_TRUE(TrySaveParameters(fleet.models[0]->Params(), ckpt).ok());

  // One-shot stall: the first "forward" checkpoint (our routed request —
  // cache warming runs fault-free) parks the shard worker mid-forward,
  // after the queue already handed the job out.
  std::promise<void> entered_promise;
  std::promise<void> release_promise;
  std::shared_future<void> release(release_promise.get_future());
  std::atomic<bool> released{false};
  stage_faults.ArmStall("forward", 1, [&] {
    entered_promise.set_value();
    release.wait();
  });

  // The fixed drain must not let the home shard reach "swapped" while the
  // request is still parked inside the model.
  std::atomic<int64_t> home_swapped_after_release{0};
  ShardRouterOptions observed = options;
  observed.swap_observer = [&](int shard, const char* phase) {
    if (shard == home && std::string(phase) == "swapped") {
      EXPECT_TRUE(released.load()) << "swap overtook an in-flight request";
      ++home_swapped_after_release;
    }
  };
  fleet.router = nullptr;
  std::vector<Kucnet*> raw;
  for (auto& m : fleet.models) raw.push_back(m.get());
  fleet.router = std::make_unique<ShardRouter>(raw, &fleet.dataset, &fleet.ckg,
                                               &fleet.ppr, observed);

  FleetResponse routed;
  std::thread requester([&] { routed = fleet.Route(user); });
  entered_promise.get_future().wait();  // the request is now mid-forward

  Status swap_status;
  std::thread swapper(
      [&] { swap_status = fleet.router->RollingSwap(ckpt); });
  // Give a buggy drain ample real time to blow through queue_depth()==0 and
  // swap under the stalled request before we let it go.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  released.store(true);
  release_promise.set_value();

  requester.join();
  swapper.join();

  ASSERT_TRUE(swap_status.ok()) << swap_status.message();
  EXPECT_EQ(home_swapped_after_release.load(), 1);
  EXPECT_EQ(routed.response.status, ResponseStatus::kOk);
  EXPECT_EQ(routed.response.tier, ServeTier::kFull);
  EXPECT_EQ(routed.shard, home);
  EXPECT_EQ(fleet.router->stats().swaps, 2);
}

// ---- Asynchronous shards -----------------------------------------------------

TEST(ShardRouterTest, AsyncWorkersServeTheFleet) {
  // Real clock, real worker threads: the TSan-relevant configuration.
  ShardRouterOptions options;
  options.server.num_workers = 2;
  FleetFixture fleet(3, options);
  for (int64_t user = 0; user < 10; ++user) {
    const FleetResponse got = fleet.Route(user);
    EXPECT_EQ(got.response.status, ResponseStatus::kOk);
    EXPECT_FALSE(got.response.items.empty());
  }
  fleet.router->Shutdown();
  EXPECT_EQ(fleet.router->stats().answered, 10);
}

// ---- The acceptance sweep ----------------------------------------------------

// Every whole-shard fault x every target shard x every per-stage fault site,
// with a rolling swap in the middle of each scenario: the fleet must answer
// every single request, and the failure counters must reconcile exactly
// with what the injectors report.
TEST(ShardRouterTest, FaultSweepNeverLeavesARequestUnanswered) {
  Dataset dataset = TinyDataset();
  Ckg ckg = dataset.BuildCkg();
  PprTable ppr = PprTable::Compute(ckg);
  constexpr int kShards = 3;
  std::vector<std::unique_ptr<Kucnet>> models;
  std::vector<Kucnet*> raw;
  for (int s = 0; s < kShards; ++s) {
    models.push_back(
        std::make_unique<Kucnet>(&dataset, &ckg, &ppr, SmallModelOptions()));
    raw.push_back(models.back().get());
  }
  // The swap checkpoint reloads the same weights: the sweep exercises the
  // drain/invalidate/rewarm machinery without perturbing scores.
  const std::string ckpt = ::testing::TempDir() + "/fleet_sweep.ckpt";
  ASSERT_TRUE(TrySaveParameters(models[0]->Params(), ckpt).ok());

  const char* kShardFaults[] = {"kill", "stall", "flap"};
  const char* kStageSites[] = {"",          "ppr",       "subgraph",
                               "forward",   "cache",     "heuristic",
                               "popularity"};
  for (const char* shard_fault_kind : kShardFaults) {
    for (int target = 0; target < kShards; ++target) {
      for (const char* site : kStageSites) {
        SCOPED_TRACE(std::string(shard_fault_kind) + " shard " +
                     std::to_string(target) + " stage '" + site + "'");
        FakeClock clock;
        ShardFaultInjector shard_faults;
        FaultInjector stage_faults;
        ShardRouterOptions options =
            SyncFleetOptions(&clock, &shard_faults, &stage_faults);
        ShardRouter router(raw, &dataset, &ckg, &ppr, options);

        if (std::string(shard_fault_kind) == "kill") {
          shard_faults.Kill(target);
        } else if (std::string(shard_fault_kind) == "stall") {
          shard_faults.Stall(target, 10'000);
        } else {
          shard_faults.Flap(target, 1);  // down/up on alternating attempts
        }

        int64_t answered = 0;
        const auto route_users = [&](int64_t from, int64_t to) {
          for (int64_t user = from; user < to; ++user) {
            if (site[0] != '\0') stage_faults.Arm(site, 1);
            FleetRequest request;
            request.request.user = user;
            const FleetResponse got = router.Route(request);
            ASSERT_EQ(got.response.status, ResponseStatus::kOk);
            ASSERT_FALSE(got.response.items.empty());
            for (const ScoredItem& scored : got.response.items) {
              ASSERT_TRUE(std::isfinite(scored.score));
            }
            ++answered;
          }
        };
        route_users(0, 6);
        // Mid-scenario rolling swap: drain/reload/rewarm every shard while
        // the injected fault stays armed. Faults during the swap's own
        // warm-up are fine — warming is fault-free by design.
        ASSERT_TRUE(router.RollingSwap(ckpt).ok());
        route_users(6, 12);

        const FleetStats stats = router.stats();
        EXPECT_EQ(stats.answered, answered);
        EXPECT_EQ(stats.quota_shed, 0);
        EXPECT_EQ(stats.shard_answers + stats.fallback_answers, answered);
        // Attempt accounting: the router consulted the shard injector on
        // every attempt it made, and every "down" verdict is one recorded
        // shard_down failure.
        int64_t injector_attempts = 0;
        for (int s = 0; s < kShards; ++s) {
          injector_attempts += shard_faults.attempts(s);
        }
        EXPECT_EQ(stats.attempts, injector_attempts);
        EXPECT_EQ(stats.shard_down_failures, shard_faults.faults_fired());
        // Per-stage faults that fired inside shards surface in the merged
        // server stats.
        EXPECT_EQ(stats.shards.fault_events, stage_faults.faults_fired());
      }
    }
  }
}

}  // namespace
}  // namespace kucnet
