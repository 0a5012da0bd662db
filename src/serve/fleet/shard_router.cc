#include "serve/fleet/shard_router.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iterator>
#include <thread>

#include "tensor/serialize.h"
#include "util/logging.h"
#include "util/serial.h"

namespace kucnet {

namespace {

/// 64-bit finalizing mixer (murmur3 fmix64). FNV-1a alone avalanches poorly
/// on short, similar keys — all of one shard's virtual nodes land in a tight
/// band of the ring, which collapses the partition onto one shard. The mixer
/// spreads those near-collisions over the whole 64-bit space.
uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// Ring point of one (shard, virtual-node) pair.
uint64_t ShardPoint(int shard, int vnode) {
  const std::string key =
      "shard:" + std::to_string(shard) + ":" + std::to_string(vnode);
  return Mix64(Fnv1a64(key.data(), key.size()));
}

/// Ring point a user's requests hash to.
uint64_t UserPoint(int64_t user) {
  const std::string key = "user:" + std::to_string(user);
  return Mix64(Fnv1a64(key.data(), key.size()));
}

/// True when `a` is the answer the fleet should prefer: higher tier first
/// (kFull beats kCached beats ...), then lower latency.
bool BetterAnswer(int64_t a_latency, ServeTier a_tier, int64_t b_latency,
                  ServeTier b_tier) {
  if (a_tier != b_tier) return static_cast<int>(a_tier) < static_cast<int>(b_tier);
  return a_latency < b_latency;
}

/// Indexes ShardRouter::counters_; the scalar ones also index kFleetSeries.
enum FleetCounter {
  kSubmitted, kQuotaShed, kAnswered, kFallbackAnswers, kAttempts, kRetries,
  kHedges, kHedgesWon, kHedgesLost, kDrainingSkips,
  kTier,                           // + tier: fleet.tier.<tier>
  kPath = kTier + kNumServeTiers,  // + path: fleet.path.<path>
};

/// The series behind each router-wide FleetStats counter, in FleetCounter
/// order.
constexpr std::pair<const char*, int64_t FleetStats::*> kFleetSeries[] = {
    {"fleet.submitted", &FleetStats::submitted},
    {"fleet.quota_shed", &FleetStats::quota_shed},
    {"fleet.answered", &FleetStats::answered},
    {"fleet.fallback_answers", &FleetStats::fallback_answers},
    {"fleet.attempts", &FleetStats::attempts},
    {"fleet.retries", &FleetStats::retries},
    {"fleet.hedges", &FleetStats::hedges},
    {"fleet.hedges_won", &FleetStats::hedges_won},
    {"fleet.hedges_lost", &FleetStats::hedges_lost},
    {"fleet.draining_skips", &FleetStats::draining_skips},
};
static_assert(std::size(kFleetSeries) == kTier);

/// Indexes one shard's row of ShardRouter::shard_counters_ and kShardSeries.
enum ShardCounter {
  kAnswers, kDownFailures, kErrorFailures, kSlowAttempts, kBreakerRejections,
  kSwaps,
};

/// `fleet.shard.<k>.<suffix>` and the FleetStats field that sums it over
/// the shards, in ShardCounter order.
constexpr std::pair<const char*, int64_t FleetStats::*> kShardSeries[] = {
    {"answers", &FleetStats::shard_answers},
    {"down_failures", &FleetStats::shard_down_failures},
    {"error_failures", &FleetStats::shard_error_failures},
    {"slow_attempts", &FleetStats::slow_attempt_failures},
    {"breaker_rejections", &FleetStats::breaker_rejections},
    {"swaps", &FleetStats::swaps},
};
static_assert(std::size(kShardSeries) == kSwaps + 1);

}  // namespace

const char* FleetPathName(FleetPath path) {
  switch (path) {
    case FleetPath::kPrimary:
      return "primary";
    case FleetPath::kRetry:
      return "retry";
    case FleetPath::kHedge:
      return "hedge";
    case FleetPath::kFallback:
      return "fallback";
    case FleetPath::kQuotaShed:
      return "quota-shed";
  }
  return "unknown";
}

ShardRouter::ShardRouter(std::vector<Kucnet*> shard_models,
                         const Dataset* dataset, const Ckg* ckg,
                         const PprTable* ppr, ShardRouterOptions options)
    : options_(std::move(options)),
      clock_(options_.clock != nullptr ? options_.clock : &RealClock()),
      dataset_(dataset),
      models_(std::move(shard_models)),
      train_items_(dataset->TrainItemsByUser()),
      jitter_rng_(options_.jitter_seed) {
  KUC_CHECK(!models_.empty()) << "a fleet needs at least one shard";
  for (const Kucnet* model : models_) KUC_CHECK(model != nullptr);
  KUC_CHECK(dataset != nullptr);
  KUC_CHECK_GT(options_.virtual_nodes_per_shard, 0);
  KUC_CHECK_GE(options_.max_retries, 0);
  KUC_CHECK_GE(options_.retry_backoff_micros, 0);
  KUC_CHECK_GE(options_.retry_jitter_micros, 0);
  KUC_CHECK_GE(options_.retry_backoff_multiplier, 1.0);
  KUC_CHECK_GT(options_.tenant.window_micros, 0);
  KUC_CHECK_GT(options_.drain_poll_micros, 0);

  const int num_shards = static_cast<int>(models_.size());
  for (const auto& [name, field] : kFleetSeries) {
    counters_.push_back(&metrics_.GetCounter(name));
  }
  for (int t = 0; t < kNumServeTiers; ++t) {
    counters_.push_back(&metrics_.GetCounter(
        std::string("fleet.tier.") + ServeTierName(static_cast<ServeTier>(t))));
  }
  for (int p = 0; p < kNumFleetPaths; ++p) {
    counters_.push_back(&metrics_.GetCounter(
        std::string("fleet.path.") + FleetPathName(static_cast<FleetPath>(p))));
  }
  draining_.assign(num_shards, false);
  shard_inflight_.assign(num_shards, 0);

  // The consistent-hash ring. Virtual nodes smooth the partition; sorting by
  // (point, shard) makes the walk deterministic even on a point collision.
  ring_.reserve(static_cast<size_t>(num_shards) *
                options_.virtual_nodes_per_shard);
  for (int s = 0; s < num_shards; ++s) {
    for (int v = 0; v < options_.virtual_nodes_per_shard; ++v) {
      ring_.push_back({ShardPoint(s, v), s});
    }
  }
  std::sort(ring_.begin(), ring_.end());

  // The fleet's own infallible tier, precomputed exactly like a shard's
  // popularity ranking: it must answer even when every shard is down.
  std::vector<int64_t> counts(dataset->num_items, 0);
  for (const auto& [user, item] : dataset->train) ++counts[item];
  popularity_.reserve(dataset->num_items);
  for (int64_t item = 0; item < dataset->num_items; ++item) {
    popularity_.push_back({item, static_cast<double>(counts[item])});
  }
  std::sort(popularity_.begin(), popularity_.end(),
            [](const ScoredItem& a, const ScoredItem& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.item < b.item;
            });

  // Every shard runs the router's clock and per-stage fault seam; each gets
  // its own model instance so rolling swap can reload one replica's weights
  // while siblings keep serving the old ones.
  RecServerOptions server_options = options_.server;
  server_options.clock = clock_;
  server_options.fault = options_.stage_fault;
  servers_.reserve(num_shards);
  breakers_.reserve(num_shards);
  shard_counters_.resize(num_shards);
  for (int s = 0; s < num_shards; ++s) {
    servers_.push_back(std::make_unique<RecServer>(models_[s], dataset, ckg,
                                                   ppr, server_options));
    const std::string prefix = "fleet.shard." + std::to_string(s) + ".";
    breakers_.push_back(std::make_unique<CircuitBreaker>(
        options_.breaker, clock_, metrics_, prefix));
    for (const auto& [suffix, field] : kShardSeries) {
      shard_counters_[s].push_back(&metrics_.GetCounter(prefix + suffix));
    }
  }
}

ShardRouter::~ShardRouter() { Shutdown(); }

void ShardRouter::Shutdown() {
  for (auto& server : servers_) server->Shutdown();
}

int ShardRouter::ShardForUser(int64_t user) const {
  const uint64_t point = UserPoint(user);
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), point,
      [](const std::pair<uint64_t, int>& node, uint64_t p) {
        return node.first < p;
      });
  if (it == ring_.end()) it = ring_.begin();  // wrap around the ring
  return it->second;
}

std::vector<int> ShardRouter::PreferenceOrder(int64_t user) const {
  const uint64_t point = UserPoint(user);
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), point,
      [](const std::pair<uint64_t, int>& node, uint64_t p) {
        return node.first < p;
      });
  std::vector<int> order;
  order.reserve(servers_.size());
  std::vector<bool> seen(servers_.size(), false);
  // Walking the ring clockwise from the user's point yields the home shard
  // first and then a per-user deterministic sibling order — the same order
  // every retry, hedge and fuzz replay observes.
  for (size_t step = 0; step < ring_.size() && order.size() < servers_.size();
       ++step) {
    if (it == ring_.end()) it = ring_.begin();
    if (!seen[it->second]) {
      seen[it->second] = true;
      order.push_back(it->second);
    }
    ++it;
  }
  return order;
}

ShardHealth ShardRouter::shard_health(int shard) const {
  return breakers_[shard]->state();
}

bool ShardRouter::shard_draining(int shard) const {
  std::lock_guard<std::mutex> lock(mu_);
  return draining_[shard];
}

void ShardRouter::Wait(int64_t micros) {
  if (micros <= 0) return;
  if (options_.wait_micros) {
    options_.wait_micros(micros);
    return;
  }
  std::this_thread::sleep_for(std::chrono::microseconds(micros));
}

bool ShardRouter::AdmitTenant(int64_t tenant) {
  if (options_.tenant.quota <= 0) return true;
  const int64_t now = clock_->NowMicros();
  std::lock_guard<std::mutex> lock(mu_);
  TenantWindow& window = tenants_[tenant];
  // Fixed windows, re-anchored at the first admission attempt after expiry:
  // deterministic under FakeClock and O(1) per tenant.
  if (now - window.window_start >= options_.tenant.window_micros) {
    window.window_start = now;
    window.admitted = 0;
  }
  if (window.admitted >= options_.tenant.quota) return false;
  ++window.admitted;
  return true;
}

int ShardRouter::NextCandidate(const std::vector<int>& prefs, size_t* cursor,
                               FleetResponse* out) {
  const auto note = [out](const std::string& reason) {
    if (!out->fleet_reason.empty()) out->fleet_reason += "; ";
    out->fleet_reason += reason;
  };
  while (*cursor < prefs.size()) {
    const int shard = prefs[(*cursor)++];
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (draining_[shard]) {
        counters_[kDrainingSkips]->Add();
        note("shard " + std::to_string(shard) + ": draining for swap");
        continue;
      }
      // Reserve in the SAME critical section as the draining check:
      // RollingSwap sets draining_ and then waits for this count to reach
      // zero, so a request that passed the check can never be invisible to
      // the drain loop (the check-then-route TOCTOU the PR 10 regression
      // test exercises). Every accepted candidate is released by
      // EndShardAttempt once its attempt completes.
      ++shard_inflight_[shard];
    }
    if (!breakers_[shard]->AllowRequest()) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        --shard_inflight_[shard];
      }
      shard_counters_[shard][kBreakerRejections]->Add();
      note("shard " + std::to_string(shard) + ": breaker open");
      continue;
    }
    return shard;
  }
  return -1;
}

void ShardRouter::EndShardAttempt(int shard) {
  std::lock_guard<std::mutex> lock(mu_);
  --shard_inflight_[shard];
}

ShardRouter::Attempt ShardRouter::AttemptShard(int shard,
                                               const RecRequest& request) {
  Attempt attempt;
  const int64_t t0 = clock_->NowMicros();
  if (options_.shard_fault != nullptr) {
    const ShardFaultInjector::Verdict verdict =
        options_.shard_fault->OnAttempt(shard);
    if (verdict.down) {
      attempt.latency_micros = clock_->NowMicros() - t0;
      attempt.reason = "shard " + std::to_string(shard) + ": down (injected)";
      shard_counters_[shard][kDownFailures]->Add();
      return attempt;
    }
    // A stalling replica eats the fleet's time *before* answering — the
    // shape that makes hedging and the latency health bound earn their keep.
    if (verdict.stall_micros > 0) Wait(verdict.stall_micros);
  }

  RecServer* server = servers_[shard].get();
  RecResponse response = server->options().num_workers == 0
                             ? server->ServeSync(request)
                             : server->Submit(request).get();
  attempt.latency_micros = clock_->NowMicros() - t0;
  if (response.status != ResponseStatus::kOk) {
    attempt.reason =
        "shard " + std::to_string(shard) +
        (response.status == ResponseStatus::kOverloaded ? ": overloaded"
                                                        : ": shutting down");
    shard_counters_[shard][kErrorFailures]->Add();
    return attempt;
  }
  attempt.answered = true;
  attempt.response = std::move(response);
  attempt.healthy = options_.unhealthy_latency_micros <= 0 ||
                    attempt.latency_micros < options_.unhealthy_latency_micros;
  if (!attempt.healthy) {
    attempt.reason = "shard " + std::to_string(shard) + ": answered in " +
                     std::to_string(attempt.latency_micros) +
                     "us, over the health bound";
    shard_counters_[shard][kSlowAttempts]->Add();
  }
  return attempt;
}

void ShardRouter::FleetFallback(const RecRequest& request,
                                FleetResponse* out) {
  const int64_t top_n = request.top_n > 0 ? request.top_n
                                          : options_.server.default_top_n;
  RecResponse& response = out->response;
  response.status = ResponseStatus::kOk;
  response.tier = ServeTier::kPopularity;
  response.degraded = true;
  const std::vector<int64_t>* exclude =
      options_.server.exclude_train_items && request.user >= 0 &&
              request.user < static_cast<int64_t>(train_items_.size())
          ? &train_items_[request.user]
          : nullptr;
  response.items.clear();
  for (const ScoredItem& candidate : popularity_) {
    if (static_cast<int64_t>(response.items.size()) >= top_n) break;
    if (exclude != nullptr &&
        std::binary_search(exclude->begin(), exclude->end(),
                           candidate.item)) {
      continue;
    }
    response.items.push_back(candidate);
  }
  if (response.items.empty()) {
    for (const ScoredItem& candidate : popularity_) {
      if (static_cast<int64_t>(response.items.size()) >= top_n) break;
      response.items.push_back(candidate);
    }
  }
  if (!response.degrade_reason.empty()) response.degrade_reason += "; ";
  response.degrade_reason += "fleet: no shard available, popularity fallback";
  out->path = FleetPath::kFallback;
  out->shard = -1;
}

FleetResponse ShardRouter::Route(const FleetRequest& fleet_request) {
  const int64_t start_micros = clock_->NowMicros();
  counters_[kSubmitted]->Add();

  FleetResponse out;

  if (!AdmitTenant(fleet_request.tenant)) {
    out.path = FleetPath::kQuotaShed;
    out.response.status = ResponseStatus::kOverloaded;
    out.response.degrade_reason =
        "fleet: tenant " + std::to_string(fleet_request.tenant) +
        " over admission quota";
    out.fleet_reason = out.response.degrade_reason;
    out.total_micros = clock_->NowMicros() - start_micros;
    counters_[kQuotaShed]->Add();
    counters_[kPath + static_cast<int>(out.path)]->Add();
    return out;
  }

  const RecRequest& request = fleet_request.request;
  const std::vector<int> prefs = PreferenceOrder(request.user);
  const auto note = [&out](const std::string& reason) {
    if (!out.fleet_reason.empty()) out.fleet_reason += "; ";
    out.fleet_reason += reason;
  };
  const auto record_breaker = [this](int shard, bool success) {
    if (success) {
      breakers_[shard]->RecordSuccess();
    } else {
      breakers_[shard]->RecordFailure();
    }
  };

  size_t cursor = 0;
  Attempt accepted;
  int accepted_shard = -1;
  const int attempt_budget = 1 + options_.max_retries;
  for (int k = 0; k < attempt_budget; ++k) {
    const int shard = NextCandidate(prefs, &cursor, &out);
    if (shard < 0) break;  // no admissible shard left: fall through
    if (k > 0) {
      // Exponential backoff with deterministic jitter before each retry:
      // gives a flapping shard time to come back without synchronizing the
      // fleet's retries into one thundering herd.
      int64_t jitter = 0;
      if (options_.retry_jitter_micros > 0) {
        std::lock_guard<std::mutex> lock(mu_);
        jitter = jitter_rng_.UniformInt(options_.retry_jitter_micros);
      }
      const int64_t backoff = static_cast<int64_t>(
          static_cast<double>(options_.retry_backoff_micros) *
          std::pow(options_.retry_backoff_multiplier, k - 1));
      Wait(backoff + jitter);
      ++out.retries;
    }
    ++out.attempts;
    Attempt attempt = AttemptShard(shard, request);
    EndShardAttempt(shard);
    record_breaker(shard, attempt.healthy);
    if (!attempt.answered) {
      note(attempt.reason);
      continue;
    }
    // A slow answer is still an answer: the breaker heard "failure" (so the
    // shard leaves rotation) but the user gets the scores.
    if (!attempt.reason.empty()) note(attempt.reason);
    accepted = std::move(attempt);
    accepted_shard = shard;
    break;
  }

  if (accepted_shard < 0) {
    FleetFallback(request, &out);
  } else {
    // Hedge when the accepted answer was slow or degraded: one extra send to
    // the next admissible sibling, better answer wins (tier, then latency).
    const bool hedge_worthy =
        options_.hedging &&
        (accepted.latency_micros >= options_.hedge_latency_micros ||
         accepted.response.tier != ServeTier::kFull);
    if (hedge_worthy) {
      const int sibling = NextCandidate(prefs, &cursor, &out);
      if (sibling >= 0) {
        out.hedged = true;
        counters_[kHedges]->Add();
        ++out.attempts;
        Attempt hedge = AttemptShard(sibling, request);
        EndShardAttempt(sibling);
        record_breaker(sibling, hedge.healthy);
        const bool won =
            hedge.answered &&
            BetterAnswer(hedge.latency_micros, hedge.response.tier,
                         accepted.latency_micros, accepted.response.tier);
        if (won) {
          note("hedge to shard " + std::to_string(sibling) + " won");
          accepted = std::move(hedge);
          accepted_shard = sibling;
          out.hedge_won = true;
        } else {
          note("hedge to shard " + std::to_string(sibling) + " lost");
        }
        counters_[won ? kHedgesWon : kHedgesLost]->Add();
      }
    }
    out.response = std::move(accepted.response);
    out.shard = accepted_shard;
    out.path = out.hedge_won ? FleetPath::kHedge
               : out.retries > 0 ? FleetPath::kRetry
                                 : FleetPath::kPrimary;
    shard_counters_[accepted_shard][kAnswers]->Add();
  }

  out.total_micros = clock_->NowMicros() - start_micros;
  counters_[kAnswered]->Add();
  if (out.shard < 0) counters_[kFallbackAnswers]->Add();
  counters_[kAttempts]->Add(out.attempts);
  counters_[kRetries]->Add(out.retries);
  counters_[kTier + static_cast<int>(out.response.tier)]->Add();
  counters_[kPath + static_cast<int>(out.path)]->Add();
  return out;
}

void ShardRouter::InvalidateUsers(const std::vector<int64_t>& users) {
  for (auto& server : servers_) server->InvalidateUsers(users);
}

Status ShardRouter::RollingSwap(const std::string& checkpoint_path) {
  // Pre-validate once: a torn or bogus file must not take the first shard
  // out of rotation only to fail its load.
  if (!IsCheckpoint(checkpoint_path)) {
    return ErrorStatus() << "rolling swap rejected: " << checkpoint_path
                         << " is not a complete checkpoint";
  }
  const auto observe = [this](int shard, const char* phase) {
    if (options_.swap_observer) options_.swap_observer(shard, phase);
  };
  for (int s = 0; s < num_shards(); ++s) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      draining_[s] = true;
    }
    observe(s, "draining");
    // Drain: the router stops offering shard s new work (NextCandidate skips
    // draining shards); wait out everything already routed *or in flight*.
    // Polling queue_depth() alone counted only unstarted requests — a worker
    // that had already popped one was still reading model parameters while
    // TryLoadParameters below overwrote them. The router-side reservation
    // (shard_inflight_) covers the gap between the draining check and the
    // server's own accounting; Quiesced() covers queued + executing work
    // inside the server.
    for (;;) {
      bool routed;
      {
        std::lock_guard<std::mutex> lock(mu_);
        routed = shard_inflight_[s] > 0;
      }
      if (!routed && servers_[s]->Quiesced()) break;
      Wait(options_.drain_poll_micros);
    }

    const Status load =
        TryLoadParameters(models_[s]->Params(), checkpoint_path);
    if (!load.ok()) {
      // Failed load leaves the old weights in place (the loader validates
      // before applying); re-admit the shard on its old model and report.
      {
        std::lock_guard<std::mutex> lock(mu_);
        draining_[s] = false;
      }
      observe(s, "readmitted");
      return ErrorStatus() << "rolling swap: shard " << s << ": "
                           << load.message();
    }
    // The cache holds the *old* model's scores now — invalidate before any
    // request can read them, then rewarm so the cached tier stays alive.
    servers_[s]->InvalidateCache();
    const int64_t warm = options_.warm_after_swap_users >= 0
                             ? options_.warm_after_swap_users
                             : options_.server.warm_cache_users;
    if (warm > 0) servers_[s]->WarmCache(warm);
    observe(s, "swapped");
    {
      std::lock_guard<std::mutex> lock(mu_);
      draining_[s] = false;
    }
    shard_counters_[s][kSwaps]->Add();
    observe(s, "readmitted");
  }
  return Status::Ok();
}

FleetStats ShardRouter::stats() const {
  FleetStats out;
  for (int c = 0; c < kTier; ++c) {
    out.*kFleetSeries[c].second = counters_[c]->Value();
  }
  for (const auto& shard : shard_counters_) {
    for (size_t c = 0; c < shard.size(); ++c) {
      int64_t& field = out.*kShardSeries[c].second;
      field = obs::SaturatingAdd(field, shard[c]->Value());
    }
  }
  for (int t = 0; t < kNumServeTiers; ++t) {
    out.tier_count[t] = counters_[kTier + t]->Value();
  }
  for (int p = 0; p < kNumFleetPaths; ++p) {
    out.path_count[p] = counters_[kPath + p]->Value();
  }
  for (const auto& breaker : breakers_) {
    out.breaker_transitions += breaker->transitions();
    out.half_open_probes += breaker->probes();
  }
  obs::MetricsSnapshot shards;
  for (const auto& server : servers_) {
    shards.MergeFrom(server->metrics().Snapshot());
  }
  out.shards = ReadServerStats(shards);
  return out;
}

}  // namespace kucnet
