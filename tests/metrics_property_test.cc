// Property tests for the ranking metrics (randomized rankings and test sets
// must satisfy the metric axioms for every (seed, list size, test size, N)
// combination in the sweep) and for MetricsSnapshot::MergeFrom (the fleet's
// cross-shard aggregation must behave like saturating vector addition).

#include <algorithm>
#include <limits>
#include <unordered_set>

#include <gtest/gtest.h>

#include "eval/metrics.h"
#include "obs/metrics.h"
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

// ---- MetricsSnapshot::MergeFrom ---------------------------------------------

constexpr int64_t kInt64Max = std::numeric_limits<int64_t>::max();
constexpr int64_t kInt64Min = std::numeric_limits<int64_t>::min();

/// Random-but-reproducible snapshot: a random subset of a few counter and
/// gauge names (so merges see shared and one-sided series) and a latency
/// histogram with random contents.
obs::MetricsSnapshot RandomSnapshot(Rng& rng) {
  obs::MetricsSnapshot snapshot;
  for (const char* name : {"serve.submitted", "serve.completed",
                           "serve.tier.full", "fleet.answered"}) {
    if (rng.Bernoulli(0.7)) snapshot.counters[name] = rng.UniformInt(1000);
  }
  if (rng.Bernoulli(0.5)) {
    snapshot.gauges["serve.queue_depth"] = rng.UniformInt(64) - 32;
  }
  if (rng.Bernoulli(0.8)) {
    obs::HistogramData latency;
    const int64_t samples = rng.UniformInt(50);
    for (int64_t i = 0; i < samples; ++i) {
      latency.Record(rng.UniformInt(1'000'000));
    }
    snapshot.histograms.emplace("serve.latency_micros", std::move(latency));
  }
  return snapshot;
}

int64_t CounterOr0(const obs::MetricsSnapshot& snapshot,
                   const std::string& name) {
  const auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0 : it->second;
}

void ExpectSameSnapshot(const obs::MetricsSnapshot& a,
                        const obs::MetricsSnapshot& b) {
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.gauges, b.gauges);
  ASSERT_EQ(a.histograms.size(), b.histograms.size());
  for (const auto& [name, histogram] : a.histograms) {
    ASSERT_EQ(b.histograms.count(name), 1u) << name;
    const obs::HistogramData& other = b.histograms.at(name);
    EXPECT_EQ(histogram.bounds, other.bounds) << name;
    EXPECT_EQ(histogram.counts, other.counts) << name;
    EXPECT_EQ(histogram.total, other.total) << name;
    EXPECT_EQ(histogram.sum, other.sum) << name;
  }
}

TEST(MetricsSnapshotMergeTest, EmptyIsTheIdentity) {
  Rng rng(77);
  for (int round = 0; round < 20; ++round) {
    const obs::MetricsSnapshot original = RandomSnapshot(rng);
    // x + 0 == x ...
    obs::MetricsSnapshot merged = original;
    merged.MergeFrom(obs::MetricsSnapshot());
    ExpectSameSnapshot(merged, original);
    // ... and 0 + x == x.
    obs::MetricsSnapshot from_empty;
    from_empty.MergeFrom(original);
    ExpectSameSnapshot(from_empty, original);
  }
}

TEST(MetricsSnapshotMergeTest, MergeIsSeriesWiseAdditionAndCommutes) {
  Rng rng(78);
  for (int round = 0; round < 20; ++round) {
    const obs::MetricsSnapshot a = RandomSnapshot(rng);
    const obs::MetricsSnapshot b = RandomSnapshot(rng);
    obs::MetricsSnapshot ab = a;
    ab.MergeFrom(b);
    obs::MetricsSnapshot ba = b;
    ba.MergeFrom(a);
    for (const char* name : {"serve.submitted", "serve.completed",
                             "serve.tier.full", "fleet.answered"}) {
      EXPECT_EQ(CounterOr0(ab, name),
                CounterOr0(a, name) + CounterOr0(b, name))
          << name;
    }
    // A series either side has is in the merge; one neither has is not.
    for (const obs::MetricsSnapshot* side : {&a, &b}) {
      for (const auto& [name, value] : side->counters) {
        EXPECT_EQ(ab.counters.count(name), 1u) << name;
      }
    }
    EXPECT_LE(ab.counters.size(), a.counters.size() + b.counters.size());
    const auto latency = [](const obs::MetricsSnapshot& s) {
      const auto it = s.histograms.find("serve.latency_micros");
      return it == s.histograms.end() ? obs::HistogramData() : it->second;
    };
    EXPECT_EQ(latency(ab).total, latency(a).total + latency(b).total);
    EXPECT_EQ(latency(ab).sum, latency(a).sum + latency(b).sum);
    // Commutativity: a fleet may merge its shards in any order.
    ExpectSameSnapshot(ab, ba);
  }
}

TEST(MetricsSnapshotMergeTest, SaturatesInsteadOfWrapping) {
  // A series already at an int64 extreme stays there, not wrapping past it,
  // however many snapshots merge into it.
  obs::MetricsSnapshot saturated;
  saturated.counters["serve.submitted"] = kInt64Max;
  saturated.counters["serve.completed"] = kInt64Max - 1;
  saturated.gauges["serve.queue_depth"] = kInt64Min;
  Rng rng(79);
  for (int round = 0; round < 5; ++round) {
    obs::MetricsSnapshot more = RandomSnapshot(rng);
    more.counters["serve.submitted"] = 1 + rng.UniformInt(1000);
    more.gauges["serve.queue_depth"] = -1 - rng.UniformInt(1000);
    saturated.MergeFrom(more);
  }
  EXPECT_EQ(saturated.counters.at("serve.submitted"), kInt64Max);
  EXPECT_GE(saturated.counters.at("serve.completed"), kInt64Max - 1);
  EXPECT_EQ(saturated.gauges.at("serve.queue_depth"), kInt64Min);
}

TEST(MetricsSnapshotMergeTest, SaturatedHistogramBucketsStaySaturated) {
  obs::MetricsSnapshot a;
  obs::HistogramData& full = a.histograms["serve.latency_micros"];
  // Saturate one finite bucket and the +Inf bucket directly.
  full.counts[3] = kInt64Max;
  full.counts.back() = kInt64Max;
  full.total = kInt64Max;
  obs::MetricsSnapshot b;
  obs::HistogramData& some = b.histograms["serve.latency_micros"];
  some.Record(7);              // lands in a finite bucket
  some.Record(kInt64Max / 2);  // lands in the +Inf bucket
  EXPECT_GE(some.counts.back(), 1);
  a.MergeFrom(b);
  const obs::HistogramData& merged = a.histograms.at("serve.latency_micros");
  EXPECT_EQ(merged.counts[3], kInt64Max);
  EXPECT_EQ(merged.counts.back(), kInt64Max);
  EXPECT_EQ(merged.total, kInt64Max);
  // The mirror merge adds the saturated buckets into the small ones.
  obs::MetricsSnapshot c;
  c.histograms["serve.latency_micros"].Record(7);
  obs::MetricsSnapshot d;
  d.histograms["serve.latency_micros"].counts.back() = kInt64Max;
  c.MergeFrom(d);
  EXPECT_EQ(c.histograms.at("serve.latency_micros").counts.back(), kInt64Max);
}

TEST(MetricsSnapshotMergeTest, PlusInfBucketCountsAddAcrossShards) {
  // Three shards each saw some pathological >2^38us requests: the merged
  // +Inf bucket is their exact sum, the percentile surfaces it, and the
  // merged snapshot reads out as the shards' summed ServerStats.
  obs::MetricsSnapshot merged;
  for (int shard = 0; shard < 3; ++shard) {
    obs::MetricsSnapshot s;
    obs::HistogramData& latency = s.histograms["serve.latency_micros"];
    for (int i = 0; i <= shard; ++i) latency.Record(kInt64Max / 4);
    s.counters["serve.completed"] = shard + 1;
    merged.MergeFrom(s);
  }
  const ServerStats stats = ReadServerStats(merged);
  EXPECT_EQ(stats.latency.counts.back(), 1 + 2 + 3);
  EXPECT_EQ(stats.latency.total, 6);
  EXPECT_EQ(stats.completed, 6);
  EXPECT_EQ(stats.latency.PercentileUpperBound(1.0), kInt64Max);
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
