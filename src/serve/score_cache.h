#ifndef KUCNET_SERVE_SCORE_CACHE_H_
#define KUCNET_SERVE_SCORE_CACHE_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "util/clock.h"

/// \file
/// The serving layer's second tier: an LRU cache of per-user item scores.
///
/// A successful full forward pass deposits its score vector here; when a
/// later request for the same user misses its deadline (or a fault fires),
/// the server answers from this cache instead of failing. Staleness is
/// bounded two ways:
///  - by *age*: an entry older than `max_age_micros` is treated as a miss
///    and dropped, so a degraded answer is never older than the configured
///    bound;
///  - by *generation*: `BumpGeneration()` (called on model hot-swap)
///    invalidates every entry deposited under the previous model, and a
///    `Put` tagged with a pre-bump generation is silently discarded — so a
///    forward pass that started before the swap can never deposit v1 scores
///    into a v2 cache, and a request retried onto another replica can never
///    be answered from scores the dead model produced.
///
/// Generations are *per-user*: an entry's tag is the sum of a global
/// component (bumped by model swaps) and a per-user component (bumped by
/// `InvalidateUser` when a streaming graph update touches that user's PPR
/// neighborhood — see stream/streaming_ckg.h). Tags are compared by
/// equality, never order, and bumped with wraparound-safe unsigned
/// arithmetic, so the scheme stays correct even if a tag ever wraps.

namespace kucnet {

/// Knobs of the score cache.
struct ScoreCacheOptions {
  /// Users retained; the least recently used entry is evicted beyond this.
  int64_t capacity = 256;
  /// Entries older than this are misses (dropped on probe). The bound is
  /// measured against the cache's clock at Get time.
  int64_t max_age_micros = 60'000'000;  // 60 s
};

/// Thread-safe LRU map user -> (item score vector, store time).
class ScoreCache {
 public:
  /// `clock` (null = the real clock) and `metrics`, where the cache counts
  /// its `serve.cache.*` series, must outlive the cache.
  ScoreCache(ScoreCacheOptions options, const Clock* clock,
             obs::MetricsRegistry& metrics);

  /// Inserts or refreshes the scores for `user` (stamped with now, tagged
  /// with the current generation).
  void Put(int64_t user, std::vector<double> scores);

  /// Generation-checked insert: the deposit is silently discarded when
  /// `generation` is no longer current. Callers snapshot `generation()`
  /// *before* starting the forward pass that produces `scores`, so output
  /// computed by a model that was hot-swapped away mid-flight never lands.
  void Put(int64_t user, std::vector<double> scores, int64_t generation);

  /// True and fills `*out` when a fresh, current-generation entry exists;
  /// refreshes recency. A stale or previous-generation entry is erased and
  /// reported as a miss. On a hit, `*age_micros_out` (when non-null)
  /// receives the entry's age.
  bool Get(int64_t user, std::vector<double>* out,
           int64_t* age_micros_out = nullptr);

  /// The current global generation component (starts at 0).
  int64_t generation() const;

  /// The current effective tag for `user`: global + per-user component.
  /// This is what callers snapshot before a forward pass and hand back to
  /// the generation-checked Put.
  int64_t generation(int64_t user) const;

  /// Invalidates every cached entry by advancing the global generation: old
  /// entries are dropped lazily on probe, and in-flight Puts tagged with the
  /// old generation are discarded. Called on model hot-swap.
  void BumpGeneration();

  /// Invalidates (lazily, like BumpGeneration) only `user`'s entry by
  /// advancing the per-user generation component. Called when a streaming
  /// update touches the user's PPR neighborhood.
  void InvalidateUser(int64_t user);

  /// Test seam: plants the global generation component, e.g. at INT64_MAX
  /// to exercise wraparound.
  void SetGenerationForTest(int64_t generation);

  /// Live entries, including not-yet-collected previous-generation ones.
  int64_t size() const;
  int64_t hits() const;
  int64_t misses() const;
  int64_t evictions() const;
  /// Misses caused by a generation mismatch (stale-model entries dropped).
  int64_t generation_evictions() const;

  /// Users whose per-user component has been bumped at least once.
  int64_t user_invalidations() const;

 private:
  void PutLocked(int64_t user, std::vector<double> scores, int64_t generation);

  /// Effective tag = global + per-user component, added as unsigned so a
  /// wrap is well-defined (tags are only ever compared for equality).
  int64_t EffectiveGenerationLocked(int64_t user) const;

  struct Entry {
    int64_t user;
    std::vector<double> scores;
    int64_t stored_micros;
    int64_t generation;
  };

  ScoreCacheOptions options_;
  const Clock* clock_;
  obs::Counter& hits_;
  obs::Counter& misses_;
  obs::Counter& evictions_;
  obs::Counter& generation_evictions_;
  obs::Counter& stale_evictions_;
  obs::Counter& stale_generation_puts_;
  obs::Counter& generation_bumps_;
  obs::Counter& user_invalidations_;

  mutable std::mutex mu_;
  std::list<Entry> lru_;  ///< front = most recent
  std::unordered_map<int64_t, std::list<Entry>::iterator> index_;
  int64_t generation_ = 0;
  std::unordered_map<int64_t, int64_t> user_generation_;
};

}  // namespace kucnet

#endif  // KUCNET_SERVE_SCORE_CACHE_H_
