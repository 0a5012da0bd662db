#include "serve/rec_server.h"

#include <algorithm>
#include <utility>

#include "obs/trace.h"
#include "serve/pipeline.h"
#include "util/finite.h"
#include "util/logging.h"

namespace kucnet {

namespace {

/// Failure taxonomy for degradation accounting: an ExecContext checkpoint
/// fails either because a fault was injected or because the deadline passed
/// (see ExecContext::Check, which reports the fault preferentially).
bool IsInjectedFault(const Status& status) {
  return status.message().find("injected fault") != std::string::npos;
}

/// Brackets a caller-thread execution in the server's in-flight count, so
/// Quiesced() covers ServeSync and inline Submit too.
class ScopedInFlight {
 public:
  explicit ScopedInFlight(std::atomic<int64_t>* counter) : counter_(counter) {
    counter_->fetch_add(1, std::memory_order_acq_rel);
  }
  ~ScopedInFlight() { counter_->fetch_sub(1, std::memory_order_acq_rel); }

 private:
  std::atomic<int64_t>* counter_;
};

std::future<RecResponse> ReadyResponse(RecResponse response) {
  std::promise<RecResponse> promise;
  promise.set_value(std::move(response));
  return promise.get_future();
}

}  // namespace

const char* ServeTierName(ServeTier tier) {
  switch (tier) {
    case ServeTier::kFull:
      return "full";
    case ServeTier::kCached:
      return "cached";
    case ServeTier::kHeuristic:
      return "heuristic";
    case ServeTier::kPopularity:
      return "popularity";
  }
  return "unknown";
}

void ServerStats::MergeFrom(const ServerStats& other) {
  submitted = obs::SaturatingAdd(submitted, other.submitted);
  admitted = obs::SaturatingAdd(admitted, other.admitted);
  shed = obs::SaturatingAdd(shed, other.shed);
  completed = obs::SaturatingAdd(completed, other.completed);
  deadline_missed = obs::SaturatingAdd(deadline_missed, other.deadline_missed);
  fault_events = obs::SaturatingAdd(fault_events, other.fault_events);
  nonfinite_scores =
      obs::SaturatingAdd(nonfinite_scores, other.nonfinite_scores);
  cache_warmed = obs::SaturatingAdd(cache_warmed, other.cache_warmed);
  degraded = obs::SaturatingAdd(degraded, other.degraded);
  no_ppr_user = obs::SaturatingAdd(no_ppr_user, other.no_ppr_user);
  unknown_user = obs::SaturatingAdd(unknown_user, other.unknown_user);
  forward_batches = obs::SaturatingAdd(forward_batches, other.forward_batches);
  batched_requests =
      obs::SaturatingAdd(batched_requests, other.batched_requests);
  multi_user_batches =
      obs::SaturatingAdd(multi_user_batches, other.multi_user_batches);
  deadline_preempted =
      obs::SaturatingAdd(deadline_preempted, other.deadline_preempted);
  for (int t = 0; t < kNumServeTiers; ++t) {
    tier_count[t] = obs::SaturatingAdd(tier_count[t], other.tier_count[t]);
  }
  latency.MergeFrom(other.latency);
}

RecServer::RecServer(const Kucnet* model, const Dataset* dataset,
                     const Ckg* ckg, const PprTable* ppr,
                     RecServerOptions options)
    : model_(model),
      dataset_(dataset),
      ckg_(ckg),
      ppr_(ppr),
      options_(options),
      clock_(options.clock != nullptr ? options.clock : &RealClock()),
      cache_(options.cache, clock_),
      train_items_(dataset->TrainItemsByUser()) {
  KUC_CHECK(model != nullptr);
  KUC_CHECK(dataset != nullptr);
  KUC_CHECK(ckg != nullptr);
  KUC_CHECK(ppr != nullptr);
  KUC_CHECK_GT(dataset->num_items, 0) << "cannot serve an empty catalogue";
  KUC_CHECK_GE(options_.num_workers, 0);
  KUC_CHECK_GT(options_.queue_capacity, 0);
  KUC_CHECK_GT(options_.default_top_n, 0);
  KUC_CHECK_GT(options_.default_deadline_micros, 0);
  KUC_CHECK_GT(options_.batch_max_users, 0);
  KUC_CHECK_GE(options_.batch_linger_micros, 0);
  KUC_CHECK_GE(options_.batch_queue_capacity, 0);

  // Precompute the infallible last tier: items by training popularity.
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

  if (options_.warm_cache_users > 0) WarmCache(options_.warm_cache_users);

  if (options_.num_workers > 0) {
    PipelineOptions popts;
    popts.num_extract_workers = options_.num_workers;
    popts.admission_capacity = options_.queue_capacity;
    popts.batch_max_users = options_.batch_max_users;
    popts.batch_linger_micros = options_.batch_linger_micros;
    popts.batch_queue_capacity = options_.batch_queue_capacity > 0
                                     ? options_.batch_queue_capacity
                                     : 2 * options_.batch_max_users;
    popts.batch_observer = options_.batch_observer;
    PipelineStages stages;
    stages.extract = [this](ServeJob* job) { ExtractStage(job); };
    stages.forward = [this](const std::vector<ServeJob*>& batch) {
      ForwardStage(batch);
    };
    stages.respond = [this](ServeJob* job) { RespondStage(job); };
    pipeline_ = std::make_unique<ServePipeline>(std::move(popts), clock_,
                                                std::move(stages));
  }
}

RecServer::~RecServer() { Shutdown(); }

std::future<RecResponse> RecServer::Submit(const RecRequest& request) {
  const int64_t now = clock_->NowMicros();
  {
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    ++stats_.submitted;
  }
  KUC_OBS_COUNT("serve.submitted", 1);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutting_down_) {
      RecResponse response;
      response.status = ResponseStatus::kShutdown;
      return ReadyResponse(std::move(response));
    }
  }
  if (pipeline_ == nullptr || !KnownUser(request.user)) {
    // Zero workers: serve inline on the calling thread. The pre-pipeline
    // server enqueued a Pending here that no worker would ever pop, so the
    // caller's future.get() hung until the destructor broke the promise.
    // An unknown user is answered inline too (Handle), before any stage
    // indexes per-user state with its id.
    {
      std::lock_guard<std::mutex> stats_lock(stats_mu_);
      ++stats_.admitted;
    }
    KUC_OBS_COUNT("serve.admitted", 1);
    return ReadyResponse(Handle(request, now));
  }
  auto job = std::make_unique<ServeJob>();
  job->request = request;
  job->submit_micros = now;
  std::future<RecResponse> future = job->promise.get_future();
  if (!pipeline_->TrySubmit(std::move(job))) {
    // Overload shedding: reject *now* with an explicit status. The caller
    // can retry with backoff; nothing ever blocks on a full queue.
    {
      std::lock_guard<std::mutex> stats_lock(stats_mu_);
      ++stats_.shed;
    }
    KUC_OBS_COUNT("serve.shed", 1);
    RecResponse response;
    response.status = ResponseStatus::kOverloaded;
    return ReadyResponse(std::move(response));
  }
  {
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    ++stats_.admitted;
  }
  KUC_OBS_COUNT("serve.admitted", 1);
  return future;
}

RecResponse RecServer::ServeSync(const RecRequest& request) {
  const int64_t now = clock_->NowMicros();
  {
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    ++stats_.submitted;
    ++stats_.admitted;
  }
  KUC_OBS_COUNT("serve.submitted", 1);
  KUC_OBS_COUNT("serve.admitted", 1);
  return Handle(request, now);
}

void RecServer::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  if (pipeline_ != nullptr) pipeline_->Shutdown();
}

ServerStats RecServer::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

int64_t RecServer::WarmCache(int64_t max_users) {
  // Hottest first: the users with the most training interactions are the
  // best proxy for request popularity available before traffic arrives.
  std::vector<std::pair<int64_t, int64_t>> activity;  // (count, user)
  activity.reserve(train_items_.size());
  for (int64_t user = 0; user < static_cast<int64_t>(train_items_.size());
       ++user) {
    activity.push_back({static_cast<int64_t>(train_items_[user].size()), user});
  }
  std::sort(activity.begin(), activity.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  const int64_t n =
      std::min<int64_t>(max_users, static_cast<int64_t>(activity.size()));
  int64_t warmed = 0;
  for (int64_t k = 0; k < n; ++k) {
    const int64_t user = activity[k].second;
    const int64_t generation = cache_.generation(user);
    KucnetForward forward;
    // Unbounded, fault-free context: warming is background work, not a
    // request — it must neither consume armed test faults nor miss deadlines.
    if (!model_->TryForward(user, ExecContext(), &forward).ok()) continue;
    if (FirstNonFinite(forward.item_scores) >= 0) continue;
    cache_.Put(user, std::move(forward.item_scores), generation);
    ++warmed;
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.cache_warmed = obs::SaturatingAdd(stats_.cache_warmed, warmed);
  }
  KUC_OBS_COUNT("serve.cache.warmed", warmed);
  return warmed;
}

void RecServer::InvalidateCache() { cache_.BumpGeneration(); }

void RecServer::InvalidateUsers(const std::vector<int64_t>& users) {
  for (const int64_t user : users) cache_.InvalidateUser(user);
}

int64_t RecServer::queue_depth() const {
  return pipeline_ != nullptr ? pipeline_->queue_depth() : 0;
}

int64_t RecServer::in_flight() const {
  return sync_in_flight_.load(std::memory_order_acquire) +
         (pipeline_ != nullptr ? pipeline_->in_flight() : 0);
}

bool RecServer::Quiesced() const {
  if (sync_in_flight_.load(std::memory_order_acquire) > 0) return false;
  return pipeline_ == nullptr || pipeline_->Quiesced();
}

bool RecServer::RankInto(int64_t user, const std::vector<double>& scores,
                         int64_t top_n, RecResponse* out) const {
  const int64_t num_items = static_cast<int64_t>(scores.size());
  if (num_items == 0) return false;
  const std::vector<int64_t>* exclude = nullptr;
  if (options_.exclude_train_items && user >= 0 &&
      user < static_cast<int64_t>(train_items_.size())) {
    exclude = &train_items_[user];
  }
  std::vector<int64_t> candidates;
  candidates.reserve(num_items);
  for (int64_t item = 0; item < num_items; ++item) {
    if (exclude != nullptr &&
        std::binary_search(exclude->begin(), exclude->end(), item)) {
      continue;
    }
    candidates.push_back(item);
  }
  if (candidates.empty()) {
    // The user consumed the whole catalogue; re-recommending beats nothing.
    for (int64_t item = 0; item < num_items; ++item)
      candidates.push_back(item);
  }
  const int64_t n = std::min<int64_t>(top_n, candidates.size());
  // Total order (finite desc, non-finite sunk, ties by index): valid for
  // std::partial_sort even if a fallback tier ever hands us corrupt scores.
  std::partial_sort(candidates.begin(), candidates.begin() + n,
                    candidates.end(), TotalScoreOrder{&scores});
  out->items.clear();
  out->items.reserve(n);
  for (int64_t k = 0; k < n; ++k) {
    out->items.push_back({candidates[k], scores[candidates[k]]});
  }
  return !out->items.empty();
}

void RecServer::NoteFailure(ServeJob* job, const char* tier,
                            const Status& status) const {
  if (IsInjectedFault(status)) {
    ++job->fault_events;
    obs::Count(std::string("serve.degrade.fault.") + tier, 1);
  } else {
    job->deadline_missed = true;
    obs::Count(std::string("serve.degrade.deadline.") + tier, 1);
  }
  std::string& reason = job->response.degrade_reason;
  if (!reason.empty()) reason += "; ";
  reason += tier;
  reason += ": ";
  reason += status.message();
}

void RecServer::TimeStage(ServeJob* job, const char* stage,
                          int64_t start_micros) const {
  job->response.stage_micros.push_back(
      {stage, clock_->NowMicros() - start_micros});
}

void RecServer::BeginJob(ServeJob* job) const {
  job->top_n =
      job->request.top_n > 0 ? job->request.top_n : options_.default_top_n;
  const int64_t budget = job->request.deadline_micros > 0
                             ? job->request.deadline_micros
                             : options_.default_deadline_micros;
  // The deadline is anchored at *admission*: time spent queued (or waiting
  // in a batch) counts against the request, so a long wait degrades rather
  // than letting stale work burn compute.
  job->deadline = Deadline::At(*clock_, job->submit_micros + budget);
  job->full_ctx = ExecContext(job->deadline, options_.fault);
  // Fallback tiers ARE the degradation path, so they run even once the
  // deadline has passed (each is orders of magnitude cheaper than the full
  // tier); only the fault seam can knock one out.
  job->fallback_ctx = ExecContext(Deadline::Infinite(), options_.fault);
}

bool RecServer::StartFullTier(ServeJob* job) {
  job->full_t0 = clock_->NowMicros();
  if (job->deadline.Expired()) {
    job->full_pre_expired = true;
    NoteFailure(job, "full",
                ErrorStatus() << "deadline expired before execution "
                                 "(queued past the latency budget)");
    TimeStage(job, "full", job->full_t0);
    return false;
  }
  // Snapshot the user's cache generation *before* the forward pass: if the
  // model is hot-swapped (or a streaming update touches this user) while
  // this pass runs, the deposit in FinishFullTier is discarded instead of
  // planting stale scores in a fresh cache.
  job->cache_generation = cache_.generation(job->request.user);
  job->full_status =
      model_->TryExtractGraph(job->request.user, job->full_ctx, &job->forward);
  job->forward_pending = job->full_status.ok();
  return job->forward_pending;
}

void RecServer::FinishFullTier(ServeJob* job) {
  if (job->full_pre_expired) return;  // already noted and timed
  TimeStage(job, "full", job->full_t0);
  if (!job->full_status.ok()) {
    NoteFailure(job, "full", job->full_status);
  } else if (const int64_t bad = FirstNonFinite(job->forward.item_scores);
             bad >= 0) {
    // A mid-divergence checkpoint produces NaN/Inf scores. Serving them
    // would poison the ranking; caching them would keep poisoning every
    // degraded request until max_age expiry. Reject the output here and
    // fall through the degrade chain (cached → PPR → popularity).
    ++job->nonfinite;
    KUC_OBS_COUNT("serve.degrade.nonfinite", 1);
    std::string& reason = job->response.degrade_reason;
    if (!reason.empty()) reason += "; ";
    reason += "full: non-finite score at item ";
    reason += std::to_string(bad);
  } else {
    // Deposit for future degraded requests *before* ranking, so even a
    // ranking-size-zero catalogue edge case keeps the cache warm.
    cache_.Put(job->request.user, job->forward.item_scores,
               job->cache_generation);
    job->served = RankInto(job->request.user, job->forward.item_scores,
                           job->top_n, &job->response);
    if (job->served) job->response.tier = ServeTier::kFull;
  }
}

void RecServer::RunFallbackTiers(ServeJob* job) {
  const RecRequest& request = job->request;

  // ---- Tier 2: cached scores (staleness-bounded LRU) -----------------------
  if (!job->served) {
    KUC_TRACE_SPAN("serve.cache");
    const int64_t t0 = clock_->NowMicros();
    const Status status = job->fallback_ctx.Check("cache");
    if (status.ok()) {
      std::vector<double> scores;
      int64_t age = -1;
      if (cache_.Get(request.user, &scores, &age) &&
          RankInto(request.user, scores, job->top_n, &job->response)) {
        job->served = true;
        job->response.tier = ServeTier::kCached;
        job->response.cache_age_micros = age;
      }
    } else {
      NoteFailure(job, "cache", status);
    }
    TimeStage(job, "cache", t0);
  }

  // ---- Tier 3: PPR heuristic (PprRec ranking) ------------------------------
  if (!job->served) {
    KUC_TRACE_SPAN("serve.heuristic");
    const int64_t t0 = clock_->NowMicros();
    const Status status = job->fallback_ctx.Check("heuristic");
    if (status.ok() && request.user >= 0 &&
        request.user < ppr_->num_users()) {
      std::vector<double> scores(dataset_->num_items, 0.0);
      for (int64_t item = 0; item < dataset_->num_items; ++item) {
        scores[item] = ppr_->Score(request.user, ckg_->ItemNode(item));
      }
      if (RankInto(request.user, scores, job->top_n, &job->response)) {
        job->served = true;
        job->response.tier = ServeTier::kHeuristic;
      }
    } else if (!status.ok()) {
      NoteFailure(job, "heuristic", status);
    } else {
      // The user lies outside the PPR table (streaming can add users past
      // it). This skip used to be silent — no reason, no counter — so the
      // drop to popularity was invisible in both the response and the stats.
      ++job->no_ppr_user;
      KUC_OBS_COUNT("serve.degrade.no_ppr_user", 1);
      std::string& reason = job->response.degrade_reason;
      if (!reason.empty()) reason += "; ";
      reason += "heuristic: user ";
      reason += std::to_string(request.user);
      reason += " outside the PPR table";
    }
    TimeStage(job, "heuristic", t0);
  }

  // ---- Tier 4: global popularity (infallible) ------------------------------
  if (!job->served) ServePopularity(job);
}

void RecServer::ServePopularity(ServeJob* job) {
  KUC_TRACE_SPAN("serve.popularity");
  const RecRequest& request = job->request;
  const int64_t t0 = clock_->NowMicros();
  // The checkpoint still fires (tests can arm it and see it counted), but
  // the precomputed ranking is returned regardless: the last tier never
  // fails, so no admitted request ever gets an empty response.
  const Status status = job->fallback_ctx.Check("popularity");
  if (!status.ok()) NoteFailure(job, "popularity", status);
  const std::vector<int64_t>* exclude =
      options_.exclude_train_items &&
              request.user >= 0 &&
              request.user < static_cast<int64_t>(train_items_.size())
          ? &train_items_[request.user]
          : nullptr;
  RecResponse& response = job->response;
  response.items.clear();
  for (const ScoredItem& candidate : popularity_) {
    if (static_cast<int64_t>(response.items.size()) >= job->top_n) break;
    if (exclude != nullptr &&
        std::binary_search(exclude->begin(), exclude->end(),
                           candidate.item)) {
      continue;
    }
    response.items.push_back(candidate);
  }
  if (response.items.empty()) {
    for (const ScoredItem& candidate : popularity_) {
      if (static_cast<int64_t>(response.items.size()) >= job->top_n) break;
      response.items.push_back(candidate);
    }
  }
  response.tier = ServeTier::kPopularity;
  TimeStage(job, "popularity", t0);
}

bool RecServer::KnownUser(int64_t user) const {
  return user >= 0 && user < ckg_->num_users();
}

RecResponse RecServer::FinalizeJob(ServeJob* job) {
  RecResponse& response = job->response;
  response.status = ResponseStatus::kOk;
  response.degraded = response.tier != ServeTier::kFull;
  response.total_micros = clock_->NowMicros() - job->submit_micros;

  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.completed;
    ++stats_.tier_count[static_cast<int>(response.tier)];
    if (response.degraded) ++stats_.degraded;
    if (job->deadline_missed) ++stats_.deadline_missed;
    if (job->deadline_preempted) ++stats_.deadline_preempted;
    stats_.fault_events += job->fault_events;
    stats_.nonfinite_scores += job->nonfinite;
    stats_.no_ppr_user += job->no_ppr_user;
    stats_.unknown_user += job->unknown_user;
    stats_.latency.Record(response.total_micros);
  }
  KUC_OBS_COUNT("serve.completed", 1);
  if (response.degraded) KUC_OBS_COUNT("serve.degraded", 1);
  if (job->deadline_missed) KUC_OBS_COUNT("serve.deadline_missed", 1);
  if (job->fault_events > 0) {
    KUC_OBS_COUNT("serve.fault_events", job->fault_events);
  }
  obs::Count(std::string("serve.tier.") + ServeTierName(response.tier), 1);
  KUC_OBS_HISTOGRAM("serve.latency_micros", response.total_micros);
  return std::move(response);
}

RecResponse RecServer::Handle(const RecRequest& request,
                              int64_t submit_micros) {
  KUC_TRACE_SPAN("serve.request");
  ScopedInFlight in_flight(&sync_in_flight_);
  ServeJob job;
  job.request = request;
  job.submit_micros = submit_micros;
  BeginJob(&job);

  if (!KnownUser(request.user)) {
    // The id comes from outside the program, and the full, cached and
    // heuristic tiers all index per-user state with it.
    ++job.unknown_user;
    KUC_OBS_COUNT("serve.degrade.unknown_user", 1);
    job.response.degrade_reason = "admission: user " +
                                  std::to_string(request.user) +
                                  " unknown (graph has " +
                                  std::to_string(ckg_->num_users()) + " users)";
    ServePopularity(&job);
    return FinalizeJob(&job);
  }

  // ---- Tier 1: full KUCNet forward -----------------------------------------
  {
    KUC_TRACE_SPAN("serve.full");
    if (StartFullTier(&job)) {
      job.full_status = model_->TryForwardOnGraph(job.full_ctx, &job.forward);
      job.forward_pending = false;
    }
    FinishFullTier(&job);
  }

  RunFallbackTiers(&job);
  return FinalizeJob(&job);
}

void RecServer::ExtractStage(ServeJob* job) {
  KUC_TRACE_SPAN("serve.extract");
  BeginJob(job);
  StartFullTier(job);
}

void RecServer::ForwardStage(const std::vector<ServeJob*>& batch) {
  if (batch.empty()) return;
  KUC_TRACE_SPAN("serve.batch_forward");
  // Predictive batch admission: a job whose remaining deadline budget is
  // below the recent whole-batch forward cost cannot produce a timely full
  // answer — running it anyway would blow past its deadline *inside* the
  // batch and deliver a late response. Degrade it now (the fallback chain is
  // orders of magnitude cheaper) so every response, full or degraded, lands
  // near the deadline at worst. The EWMA starts at 0 (guard off) and stays 0
  // under a frozen FakeClock, so deterministic tests never hit this path.
  const int64_t predicted = batch_forward_ewma_micros_.load(
      std::memory_order_relaxed);
  std::vector<ServeJob*> admitted;
  admitted.reserve(batch.size());
  for (ServeJob* job : batch) {
    if (predicted > 0 && job->deadline.RemainingMicros() < predicted) {
      job->deadline_preempted = true;
      job->full_status = ErrorStatus()
                         << "predicted batch forward (~" << predicted
                         << "us) exceeds the remaining deadline budget";
      job->forward_pending = false;
      KUC_OBS_COUNT("serve.degrade.preempted", 1);
      continue;
    }
    admitted.push_back(job);
  }
  if (admitted.empty()) {
    // The guard preempted the whole batch, so no forward runs and nothing
    // re-measures the estimate. Without decay a single anomalously slow
    // batch (page faults, a scheduling stall) would latch the guard shut
    // forever once deadlines are tighter than the stale estimate. Losing a
    // quarter of the estimate per all-preempted batch lets the full tier
    // probe again within a few requests.
    batch_forward_ewma_micros_.store(predicted - predicted / 4,
                                     std::memory_order_relaxed);
    return;
  }
  std::vector<KucnetForwardWork> work;
  work.reserve(admitted.size());
  for (ServeJob* job : admitted) {
    work.push_back({job->request.user, &job->full_ctx, &job->forward,
                    Status::Ok()});
  }
  // One coalesced multi-user forward on the global pool — the PR 1 batching
  // path, bitwise identical to running the jobs sequentially. Each job keeps
  // its own deadline context, so one mid-batch expiry degrades that job at
  // its next checkpoint without poisoning its batchmates.
  const int64_t t0 = clock_->NowMicros();
  model_->TryForwardMany(&work, /*graphs_extracted=*/true);
  const int64_t elapsed = clock_->NowMicros() - t0;
  const int64_t prev = batch_forward_ewma_micros_.load(
      std::memory_order_relaxed);
  batch_forward_ewma_micros_.store(
      prev == 0 ? elapsed : prev + (elapsed - prev) / 4,
      std::memory_order_relaxed);
  for (size_t i = 0; i < admitted.size(); ++i) {
    admitted[i]->full_status = std::move(work[i].status);
    admitted[i]->forward_pending = false;
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.forward_batches;
    stats_.batched_requests += static_cast<int64_t>(admitted.size());
    if (admitted.size() > 1) ++stats_.multi_user_batches;
  }
  KUC_OBS_COUNT("serve.batch.forwards", 1);
  KUC_OBS_COUNT("serve.batch.requests", static_cast<int64_t>(admitted.size()));
  KUC_OBS_GAUGE_SET("serve.batch.last_size",
                    static_cast<int64_t>(admitted.size()));
}

void RecServer::RespondStage(ServeJob* job) {
  KUC_TRACE_SPAN("serve.respond");
  FinishFullTier(job);
  RunFallbackTiers(job);
  job->promise.set_value(FinalizeJob(job));
}

}  // namespace kucnet
