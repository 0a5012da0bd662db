// Property tests for the ranking metrics (randomized rankings and test sets
// must satisfy the metric axioms for every (seed, list size, test size, N)
// combination in the sweep) and for ServerStats::MergeFrom (the fleet's
// cross-shard aggregation must behave like saturating vector addition).

#include <algorithm>
#include <limits>
#include <unordered_set>

#include <gtest/gtest.h>

#include "eval/metrics.h"
#include "serve/rec_server.h"
#include "util/rng.h"

namespace kucnet {
namespace {

struct Case {
  uint64_t seed;
  int64_t universe;
  int64_t test_size;
  int64_t n;
};

class MetricsPropertyTest : public ::testing::TestWithParam<Case> {
 protected:
  void SetUp() override {
    Rng rng(GetParam().seed);
    ranked_.resize(GetParam().universe);
    for (int64_t i = 0; i < GetParam().universe; ++i) ranked_[i] = i;
    rng.Shuffle(ranked_);
    for (const int64_t t :
         rng.SampleWithoutReplacement(GetParam().universe,
                                      GetParam().test_size)) {
      test_.insert(t);
    }
  }

  std::vector<int64_t> ranked_;
  std::unordered_set<int64_t> test_;
};

TEST_P(MetricsPropertyTest, BoundedInUnitInterval) {
  const double recall = RecallAtN(ranked_, test_, GetParam().n);
  const double ndcg = NdcgAtN(ranked_, test_, GetParam().n);
  EXPECT_GE(recall, 0.0);
  EXPECT_LE(recall, 1.0);
  EXPECT_GE(ndcg, 0.0);
  EXPECT_LE(ndcg, 1.0 + 1e-12);
}

TEST_P(MetricsPropertyTest, MonotoneInN) {
  double prev_recall = 0.0;
  for (int64_t n = 1; n <= GetParam().universe; n *= 2) {
    const double r = RecallAtN(ranked_, test_, n);
    EXPECT_GE(r, prev_recall - 1e-12);
    prev_recall = r;
  }
  // Full-list recall is 1 (every test item is somewhere in the ranking).
  EXPECT_NEAR(RecallAtN(ranked_, test_, GetParam().universe), 1.0, 1e-12);
}

TEST_P(MetricsPropertyTest, IdealRankingMaximizesBoth) {
  // Move all test items to the front: recall@|T| and ndcg@N become maximal.
  std::vector<int64_t> ideal;
  for (const int64_t t : test_) ideal.push_back(t);
  for (const int64_t r : ranked_) {
    if (!test_.count(r)) ideal.push_back(r);
  }
  EXPECT_NEAR(NdcgAtN(ideal, test_, GetParam().n), 1.0, 1e-12);
  const double best_recall = RecallAtN(ideal, test_, GetParam().n);
  EXPECT_GE(best_recall + 1e-12, RecallAtN(ranked_, test_, GetParam().n));
}

TEST_P(MetricsPropertyTest, SwappingAHitEarlierNeverHurtsNdcg) {
  // Find a hit after a miss and swap them: ndcg must not decrease.
  std::vector<int64_t> ranked = ranked_;
  for (size_t i = 1; i < ranked.size(); ++i) {
    if (test_.count(ranked[i]) && !test_.count(ranked[i - 1])) {
      const double before = NdcgAtN(ranked, test_, GetParam().n);
      std::swap(ranked[i], ranked[i - 1]);
      const double after = NdcgAtN(ranked, test_, GetParam().n);
      EXPECT_GE(after + 1e-12, before);
      break;
    }
  }
}

TEST_P(MetricsPropertyTest, TopNIndicesConsistentWithMetrics) {
  // Build scores that induce exactly the ranked_ order; TopNIndices must
  // reproduce its prefix.
  std::vector<double> scores(GetParam().universe);
  for (size_t rank = 0; rank < ranked_.size(); ++rank) {
    scores[ranked_[rank]] = static_cast<double>(ranked_.size() - rank);
  }
  const auto top = TopNIndices(scores, GetParam().n);
  const int64_t expect =
      std::min<int64_t>(GetParam().n, GetParam().universe);
  ASSERT_EQ(static_cast<int64_t>(top.size()), expect);
  for (int64_t i = 0; i < expect; ++i) {
    EXPECT_EQ(top[i], ranked_[i]);
  }
}

// ---- ServerStats::MergeFrom --------------------------------------------------

constexpr int64_t kInt64Max = std::numeric_limits<int64_t>::max();

/// Random-but-reproducible ServerStats, including histogram contents.
ServerStats RandomStats(Rng& rng) {
  ServerStats stats;
  stats.submitted = rng.UniformInt(1000);
  stats.admitted = rng.UniformInt(1000);
  stats.shed = rng.UniformInt(100);
  stats.completed = rng.UniformInt(1000);
  stats.deadline_missed = rng.UniformInt(50);
  stats.fault_events = rng.UniformInt(50);
  stats.nonfinite_scores = rng.UniformInt(10);
  stats.cache_warmed = rng.UniformInt(100);
  stats.degraded = rng.UniformInt(500);
  stats.no_ppr_user = rng.UniformInt(20);
  stats.unknown_user = rng.UniformInt(20);
  stats.forward_batches = rng.UniformInt(200);
  stats.batched_requests = rng.UniformInt(1000);
  stats.multi_user_batches = rng.UniformInt(100);
  stats.deadline_preempted = rng.UniformInt(50);
  for (int t = 0; t < kNumServeTiers; ++t) {
    stats.tier_count[t] = rng.UniformInt(300);
  }
  const int64_t samples = rng.UniformInt(50);
  for (int64_t i = 0; i < samples; ++i) {
    stats.latency.Record(rng.UniformInt(1'000'000));
  }
  return stats;
}

TEST(ServerStatsMergeTest, EmptyIsTheIdentity) {
  Rng rng(77);
  for (int round = 0; round < 20; ++round) {
    const ServerStats original = RandomStats(rng);
    // x + 0 == x ...
    ServerStats merged = original;
    merged.MergeFrom(ServerStats());
    EXPECT_EQ(merged.completed, original.completed);
    EXPECT_EQ(merged.latency.total, original.latency.total);
    EXPECT_EQ(merged.latency.sum, original.latency.sum);
    // ... and 0 + x == x.
    ServerStats from_empty;
    from_empty.MergeFrom(original);
    EXPECT_EQ(from_empty.submitted, original.submitted);
    EXPECT_EQ(from_empty.degraded, original.degraded);
    for (int t = 0; t < kNumServeTiers; ++t) {
      EXPECT_EQ(from_empty.tier_count[t], original.tier_count[t]);
    }
    EXPECT_EQ(from_empty.latency.counts, original.latency.counts);
  }
}

TEST(ServerStatsMergeTest, MergeIsComponentwiseAdditionAndCommutes) {
  Rng rng(78);
  for (int round = 0; round < 20; ++round) {
    const ServerStats a = RandomStats(rng);
    const ServerStats b = RandomStats(rng);
    ServerStats ab = a;
    ab.MergeFrom(b);
    ServerStats ba = b;
    ba.MergeFrom(a);
    EXPECT_EQ(ab.submitted, a.submitted + b.submitted);
    EXPECT_EQ(ab.completed, a.completed + b.completed);
    EXPECT_EQ(ab.cache_warmed, a.cache_warmed + b.cache_warmed);
    EXPECT_EQ(ab.no_ppr_user, a.no_ppr_user + b.no_ppr_user);
    EXPECT_EQ(ab.unknown_user, a.unknown_user + b.unknown_user);
    EXPECT_EQ(ab.forward_batches, a.forward_batches + b.forward_batches);
    EXPECT_EQ(ab.batched_requests, a.batched_requests + b.batched_requests);
    EXPECT_EQ(ab.multi_user_batches,
              a.multi_user_batches + b.multi_user_batches);
    EXPECT_EQ(ab.deadline_preempted,
              a.deadline_preempted + b.deadline_preempted);
    for (int t = 0; t < kNumServeTiers; ++t) {
      EXPECT_EQ(ab.tier_count[t], a.tier_count[t] + b.tier_count[t]);
    }
    EXPECT_EQ(ab.latency.total, a.latency.total + b.latency.total);
    EXPECT_EQ(ab.latency.sum, a.latency.sum + b.latency.sum);
    // Commutativity: the fleet may merge shards in any order.
    EXPECT_EQ(ab.submitted, ba.submitted);
    EXPECT_EQ(ab.latency.counts, ba.latency.counts);
    EXPECT_EQ(ab.latency.sum, ba.latency.sum);
  }
}

TEST(ServerStatsMergeTest, SaturatesInsteadOfWrapping) {
  // A counter already at the int64 ceiling must stay there, not wrap
  // negative, no matter how many shards merge into it.
  ServerStats saturated;
  saturated.submitted = kInt64Max;
  saturated.completed = kInt64Max - 1;
  saturated.tier_count[0] = kInt64Max;
  saturated.batched_requests = kInt64Max;
  Rng rng(79);
  for (int round = 0; round < 5; ++round) {
    saturated.MergeFrom(RandomStats(rng));
  }
  EXPECT_EQ(saturated.submitted, kInt64Max);
  EXPECT_GE(saturated.completed, kInt64Max - 1);
  EXPECT_EQ(saturated.tier_count[0], kInt64Max);
  EXPECT_EQ(saturated.batched_requests, kInt64Max);
}

TEST(ServerStatsMergeTest, SaturatedHistogramBucketsStaySaturated) {
  ServerStats a;
  // Saturate one finite bucket and the +Inf bucket directly.
  a.latency.counts[3] = kInt64Max;
  a.latency.counts.back() = kInt64Max;
  a.latency.total = kInt64Max;
  ServerStats b;
  b.latency.Record(7);                  // lands in a finite bucket
  b.latency.Record(kInt64Max / 2);      // lands in the +Inf bucket
  const int64_t inf_before = b.latency.counts.back();
  EXPECT_GE(inf_before, 1);
  a.MergeFrom(b);
  EXPECT_EQ(a.latency.counts[3], kInt64Max);
  EXPECT_EQ(a.latency.counts.back(), kInt64Max);
  EXPECT_EQ(a.latency.total, kInt64Max);
  // The mirror merge adds the saturated buckets into the small ones.
  ServerStats c;
  c.latency.Record(7);
  ServerStats d;
  d.latency.counts.back() = kInt64Max;
  c.latency.MergeFrom(d.latency);
  EXPECT_EQ(c.latency.counts.back(), kInt64Max);
}

TEST(ServerStatsMergeTest, PlusInfBucketCountsAddAcrossShards) {
  // Three shards each saw some pathological >2^38us requests: the merged
  // +Inf bucket is their exact sum and the percentile surfaces it.
  ServerStats merged;
  for (int shard = 0; shard < 3; ++shard) {
    ServerStats s;
    for (int i = 0; i <= shard; ++i) s.latency.Record(kInt64Max / 4);
    merged.MergeFrom(s);
  }
  EXPECT_EQ(merged.latency.counts.back(), 1 + 2 + 3);
  EXPECT_EQ(merged.latency.total, 6);
  EXPECT_EQ(merged.latency.PercentileUpperBound(1.0), kInt64Max);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MetricsPropertyTest,
    ::testing::Values(Case{1, 50, 5, 10}, Case{2, 50, 1, 20},
                      Case{3, 200, 30, 20}, Case{4, 10, 10, 5},
                      Case{5, 100, 2, 1}, Case{6, 500, 50, 20},
                      Case{7, 33, 7, 33}),
    [](const auto& info) {
      return "seed" + std::to_string(info.param.seed) + "_u" +
             std::to_string(info.param.universe) + "_t" +
             std::to_string(info.param.test_size) + "_n" +
             std::to_string(info.param.n);
    });

}  // namespace
}  // namespace kucnet
