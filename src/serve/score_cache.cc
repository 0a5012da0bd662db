#include "serve/score_cache.h"

#include <utility>

#include "util/logging.h"

namespace kucnet {

ScoreCache::ScoreCache(ScoreCacheOptions options, const Clock* clock,
                       obs::MetricsRegistry& metrics)
    : options_(options),
      clock_(clock != nullptr ? clock : &RealClock()),
      hits_(metrics.GetCounter("serve.cache.hits")),
      misses_(metrics.GetCounter("serve.cache.misses")),
      evictions_(metrics.GetCounter("serve.cache.evictions")),
      generation_evictions_(
          metrics.GetCounter("serve.cache.generation_evictions")),
      stale_evictions_(metrics.GetCounter("serve.cache.stale_evictions")),
      stale_generation_puts_(
          metrics.GetCounter("serve.cache.stale_generation_puts")),
      generation_bumps_(metrics.GetCounter("serve.cache.generation_bumps")),
      user_invalidations_(
          metrics.GetCounter("serve.cache.user_invalidations")) {
  KUC_CHECK_GT(options_.capacity, 0);
  KUC_CHECK_GT(options_.max_age_micros, 0);
}

int64_t ScoreCache::EffectiveGenerationLocked(int64_t user) const {
  const auto it = user_generation_.find(user);
  const uint64_t user_component =
      it == user_generation_.end() ? 0 : static_cast<uint64_t>(it->second);
  return static_cast<int64_t>(static_cast<uint64_t>(generation_) +
                              user_component);
}

void ScoreCache::Put(int64_t user, std::vector<double> scores) {
  std::lock_guard<std::mutex> lock(mu_);
  PutLocked(user, std::move(scores), EffectiveGenerationLocked(user));
}

void ScoreCache::Put(int64_t user, std::vector<double> scores,
                     int64_t generation) {
  std::lock_guard<std::mutex> lock(mu_);
  if (generation != EffectiveGenerationLocked(user)) {
    // The model (or this user's graph neighborhood) changed while these
    // scores were being computed; depositing them would resurrect stale
    // output under the new tag.
    stale_generation_puts_.Add();
    return;
  }
  PutLocked(user, std::move(scores), generation);
}

void ScoreCache::PutLocked(int64_t user, std::vector<double> scores,
                           int64_t generation) {
  const int64_t now = clock_->NowMicros();
  const auto it = index_.find(user);
  if (it != index_.end()) {
    it->second->scores = std::move(scores);
    it->second->stored_micros = now;
    it->second->generation = generation;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (static_cast<int64_t>(lru_.size()) >= options_.capacity) {
    index_.erase(lru_.back().user);
    lru_.pop_back();
    evictions_.Add();
  }
  lru_.push_front(Entry{user, std::move(scores), now, generation});
  index_[user] = lru_.begin();
}

bool ScoreCache::Get(int64_t user, std::vector<double>* out,
                     int64_t* age_micros_out) {
  const int64_t now = clock_->NowMicros();
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(user);
  if (it == index_.end()) {
    misses_.Add();
    return false;
  }
  if (it->second->generation != EffectiveGenerationLocked(user)) {
    // Generation bound: the entry predates a model swap or a graph update
    // that touched this user. Serving it would hand out scores from a model
    // or graph state that no longer exists.
    lru_.erase(it->second);
    index_.erase(it);
    misses_.Add();
    generation_evictions_.Add();
    return false;
  }
  const int64_t age = now - it->second->stored_micros;
  if (age > options_.max_age_micros) {
    // Staleness bound: expired entries are dropped, never served.
    lru_.erase(it->second);
    index_.erase(it);
    misses_.Add();
    stale_evictions_.Add();
    return false;
  }
  *out = it->second->scores;
  lru_.splice(lru_.begin(), lru_, it->second);
  hits_.Add();
  if (age_micros_out != nullptr) *age_micros_out = age;
  return true;
}

int64_t ScoreCache::generation() const {
  std::lock_guard<std::mutex> lock(mu_);
  return generation_;
}

int64_t ScoreCache::generation(int64_t user) const {
  std::lock_guard<std::mutex> lock(mu_);
  return EffectiveGenerationLocked(user);
}

void ScoreCache::BumpGeneration() {
  std::lock_guard<std::mutex> lock(mu_);
  // Unsigned increment: a wrap at INT64_MAX is well-defined, and tags are
  // only ever compared for equality, so wrapped tags stay correct.
  generation_ = static_cast<int64_t>(static_cast<uint64_t>(generation_) + 1);
  generation_bumps_.Add();
}

void ScoreCache::InvalidateUser(int64_t user) {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t& component = user_generation_[user];
  component = static_cast<int64_t>(static_cast<uint64_t>(component) + 1);
  user_invalidations_.Add();
}

void ScoreCache::SetGenerationForTest(int64_t generation) {
  std::lock_guard<std::mutex> lock(mu_);
  generation_ = generation;
}

int64_t ScoreCache::user_invalidations() const {
  return user_invalidations_.Value();
}

int64_t ScoreCache::generation_evictions() const {
  return generation_evictions_.Value();
}

int64_t ScoreCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(lru_.size());
}

int64_t ScoreCache::hits() const { return hits_.Value(); }

int64_t ScoreCache::misses() const { return misses_.Value(); }

int64_t ScoreCache::evictions() const { return evictions_.Value(); }

}  // namespace kucnet
