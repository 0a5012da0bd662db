#include <algorithm>
#include <memory>
#include <numeric>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "graph/ckg.h"
#include "graph/dynamic_ckg.h"
#include "data/synthetic.h"
#include "ppr/dynamic_ppr.h"
#include "ppr/forward_push.h"
#include "ppr/ppr.h"
#include "testing/fuzz.h"
#include "testing/oracle.h"
#include "util/clock.h"
#include "util/fault.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace kucnet {
namespace {

// Inputs of a connected random CKG without parallel (multi-relation)
// edges, so the push walk and the deduplicated adjacency walk coincide
// exactly.
struct RandomCkgInputs {
  int64_t users = 0, items = 0, kg_nodes = 0;
  std::vector<std::array<int64_t, 2>> inter;
  std::vector<std::array<int64_t, 3>> kg;
};

RandomCkgInputs SimpleRandomInputs(uint64_t seed, int64_t users = 5,
                                   int64_t items = 12, int64_t extra = 6) {
  Rng rng(seed);
  RandomCkgInputs in;
  in.users = users;
  in.items = items;
  in.kg_nodes = items + extra;
  // A spanning chain of interactions keeps the graph connected.
  for (int64_t u = 0; u < users; ++u) {
    in.inter.push_back({u, u % items});
    in.inter.push_back({u, (u + 1) % items});
  }
  for (int k = 0; k < 10; ++k) {
    in.inter.push_back({rng.UniformInt(users), rng.UniformInt(items)});
  }
  for (int64_t v = items; v < in.kg_nodes; ++v) {
    in.kg.push_back({rng.UniformInt(items), 0, v});  // each entity linked
  }
  for (int k = 0; k < 10; ++k) {
    const int64_t h = rng.UniformInt(in.kg_nodes);
    int64_t t = rng.UniformInt(in.kg_nodes);
    if (t == h) t = (t + 1) % in.kg_nodes;
    in.kg.push_back({h, 0, t});
  }
  return in;
}

// Single relation id 0 throughout: (h, 0, t) duplicates collapse in Build.
Ckg BuildCkg(const RandomCkgInputs& in) {
  return Ckg::Build(in.users, in.items, in.kg_nodes, 1, in.inter, in.kg);
}

DynamicCkg BuildDynamicCkg(const RandomCkgInputs& in) {
  return DynamicCkg(in.users, in.items, in.kg_nodes, 1, in.inter, in.kg);
}

Ckg SimpleRandomCkg(uint64_t seed, int64_t users = 5, int64_t items = 12,
                    int64_t extra = 6) {
  return BuildCkg(SimpleRandomInputs(seed, users, items, extra));
}

// An unbounded forward push (it cannot be cancelled, so failing is a bug).
std::unordered_map<int64_t, real_t> Push(const Ckg& g, int64_t source,
                                         real_t alpha = 0.15,
                                         real_t epsilon = 1e-6) {
  std::unordered_map<int64_t, real_t> estimate;
  KUC_CHECK_OK(
      TryPprForwardPush(g, source, alpha, epsilon, ExecContext(), &estimate));
  return estimate;
}

// Same keys, same bits, same iteration order. Two maps built by the same
// insertion sequence from the same bucket count iterate identically, so
// order equality checks that a push replays the reference's insertions.
void ExpectIdenticalMaps(const std::unordered_map<int64_t, real_t>& actual,
                         const std::unordered_map<int64_t, real_t>& expected,
                         const std::string& what) {
  ASSERT_EQ(actual.size(), expected.size()) << what;
  auto it = actual.begin();
  for (const auto& [node, value] : expected) {
    ASSERT_EQ(it->first, node) << what;
    EXPECT_EQ(testing::UlpDistance(it->second, value), 0u)
        << what << " node " << node;
    ++it;
  }
}

// A push from `source` into a fresh map must replay the oracle push.
void ExpectPushMatchesOracle(const Ckg& g, int64_t source, real_t alpha,
                             real_t epsilon, const std::string& what) {
  const auto push = Push(g, source, alpha, epsilon);
  const auto oracle = testing::OraclePprPush(g, source, alpha, epsilon);
  ExpectIdenticalMaps(push, oracle.estimate,
                      what + " source " + std::to_string(source));
}

TEST(PprTest, PowerIterationIsAProbabilityVector) {
  Ckg g = SimpleRandomCkg(1);
  SparseMatrix m = g.AdjacencyMatrix().ColumnNormalized();
  const auto r = PprPowerIteration(m, g.UserNode(0), 0.15, 50);
  real_t total = std::accumulate(r.begin(), r.end(), 0.0);
  EXPECT_NEAR(total, 1.0, 1e-9);
  for (const real_t x : r) EXPECT_GE(x, 0.0);
}

TEST(PprTest, RestartMassConcentratesAtSource) {
  Ckg g = SimpleRandomCkg(2);
  SparseMatrix m = g.AdjacencyMatrix().ColumnNormalized();
  const int64_t src = g.UserNode(1);
  const auto r = PprPowerIteration(m, src, 0.15, 50);
  // The source must hold at least the restart probability.
  EXPECT_GE(r[src], 0.15);
  // And be the argmax in this small graph.
  EXPECT_EQ(std::max_element(r.begin(), r.end()) - r.begin(), src);
}

TEST(PprTest, HigherAlphaMeansMoreMassAtSource) {
  Ckg g = SimpleRandomCkg(3);
  SparseMatrix m = g.AdjacencyMatrix().ColumnNormalized();
  const int64_t src = g.UserNode(0);
  const auto r_low = PprPowerIteration(m, src, 0.1, 50);
  const auto r_high = PprPowerIteration(m, src, 0.5, 50);
  EXPECT_GT(r_high[src], r_low[src]);
}

TEST(PprTest, ForwardPushApproximatesPowerIteration) {
  Ckg g = SimpleRandomCkg(4);
  SparseMatrix m = g.AdjacencyMatrix().ColumnNormalized();
  const int64_t src = g.UserNode(2);
  const auto exact = PprPowerIteration(m, src, 0.15, 200);
  const auto push = Push(g, src, 0.15, 1e-9);
  for (int64_t v = 0; v < g.num_nodes(); ++v) {
    const auto it = push.find(v);
    const real_t approx = it == push.end() ? 0.0 : it->second;
    EXPECT_NEAR(approx, exact[v], 1e-4) << "node " << v;
  }
}

TEST(PprTest, PushUndershootBound) {
  // Push estimates never exceed the exact PPR (residuals are nonnegative).
  Ckg g = SimpleRandomCkg(5);
  SparseMatrix m = g.AdjacencyMatrix().ColumnNormalized();
  const int64_t src = g.UserNode(0);
  const auto exact = PprPowerIteration(m, src, 0.15, 300);
  const auto push = Push(g, src, 0.15, 1e-4);
  for (const auto& [node, value] : push) {
    EXPECT_LE(value, exact[node] + 1e-9) << "node " << node;
    EXPECT_GE(value, 0.0);
  }
}

TEST(PprTest, PushMassAtMostOne) {
  Ckg g = SimpleRandomCkg(6);
  const auto push = Push(g, g.UserNode(1), 0.15, 1e-8);
  real_t total = 0.0;
  for (const auto& [node, value] : push) total += value;
  EXPECT_LE(total, 1.0 + 1e-9);
  EXPECT_GT(total, 0.9);  // epsilon small enough to capture most mass
}

// Two tables hold the same runs: per user, the same nodes in the same
// (ascending) order with bit-identical scores.
void ExpectIdenticalRuns(const PprTable& actual, const PprTable& expected,
                         const std::string& what) {
  ASSERT_EQ(actual.num_users(), expected.num_users()) << what;
  for (int64_t u = 0; u < expected.num_users(); ++u) {
    const NodeScoreFn a = actual.ScoreFn(u);
    const NodeScoreFn b = expected.ScoreFn(u);
    ASSERT_EQ(a.nodes.size(), b.nodes.size()) << what << " user " << u;
    for (size_t k = 0; k < b.nodes.size(); ++k) {
      ASSERT_EQ(a.nodes[k], b.nodes[k]) << what << " user " << u;
      EXPECT_EQ(testing::UlpDistance(a.scores[k], b.scores[k]), 0u)
          << what << " user " << u << " node " << b.nodes[k];
    }
  }
}

TEST(PprTableTest, SerialMatchesParallel) {
  Ckg g = SimpleRandomCkg(7);
  PprTableOptions opts;
  opts.epsilon = 1e-7;
  PprTable serial = PprTable::Compute(g, opts, nullptr);
  ThreadPool pool(4);
  PprTable parallel = PprTable::Compute(g, opts, &pool);
  ExpectIdenticalRuns(parallel, serial, "4 threads");
  EXPECT_GE(serial.compute_seconds(), 0.0);
}

TEST(DynamicPprTableTest, SerialMatchesParallelBitwise) {
  const DynamicCkg graph = BuildDynamicCkg(SimpleRandomInputs(7, 12, 20, 8));
  PprTableOptions opts;
  opts.epsilon = 1e-7;
  const DynamicPprTable serial = DynamicPprTable::Compute(graph, opts, nullptr);
  for (const int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    const DynamicPprTable parallel =
        DynamicPprTable::Compute(graph, opts, &pool);
    ASSERT_EQ(serial.num_users(), parallel.num_users());
    for (int64_t u = 0; u < serial.num_users(); ++u) {
      const std::string what =
          std::to_string(threads) + " threads, user " + std::to_string(u);
      ExpectIdenticalMaps(parallel.Estimate(u), serial.Estimate(u),
                          "estimate, " + what);
      ExpectIdenticalMaps(parallel.Residual(u), serial.Residual(u),
                          "residual, " + what);
    }
  }
}

TEST(PprTableTest, ScoreFnMatchesScore) {
  Ckg g = SimpleRandomCkg(8);
  PprTable table = PprTable::Compute(g);
  auto fn = table.ScoreFn(0);
  for (int64_t v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(fn(v), table.Score(0, v));
  }
  // Unranked nodes score 0 (node id outside any vector entry).
  EXPECT_EQ(table.Score(0, g.num_nodes() - 1),
            table.ScoreFn(0)(g.num_nodes() - 1));
}

// More users than one Compute round pushes (64), so runs from several
// rounds are appended.
Ckg ManyUserCkg() { return SimpleRandomCkg(11, 150, 40, 20); }

TEST(PprTableTest, RunsAreSortedAndMatchTheOraclePushForEveryPool) {
  const Ckg g = ManyUserCkg();
  PprTableOptions opts;
  opts.epsilon = 1e-7;
  const PprTable serial = PprTable::Compute(g, opts, nullptr);
  ASSERT_EQ(serial.num_users(), g.num_users());
  for (int64_t u = 0; u < g.num_users(); ++u) {
    const auto oracle =
        testing::OraclePprPush(g, g.UserNode(u), opts.alpha, opts.epsilon);
    const NodeScoreFn run = serial.ScoreFn(u);
    ASSERT_EQ(run.nodes.size(), oracle.estimate.size()) << "user " << u;
    for (size_t k = 0; k < run.nodes.size(); ++k) {
      if (k > 0) {
        ASSERT_LT(run.nodes[k - 1], run.nodes[k]) << "user " << u;
      }
      const auto it = oracle.estimate.find(run.nodes[k]);
      ASSERT_NE(it, oracle.estimate.end()) << "user " << u;
      EXPECT_EQ(testing::UlpDistance(run.scores[k], it->second), 0u)
          << "user " << u << " node " << run.nodes[k];
    }
  }
  for (const int threads : {2, 8}) {
    ThreadPool pool(threads);
    ExpectIdenticalRuns(PprTable::Compute(g, opts, &pool), serial,
                        std::to_string(threads) + " threads");
  }
}

// Runs on a synthetic dataset are long: hundreds of entries each.
TEST(PprTableTest, LongRunsMatchTheOraclePush) {
  Rng rng(7);
  const Ckg g = TraditionalSplit(GenerateSynthetic(SynthLastFmConfig()).raw,
                                 0.2, rng)
                    .BuildCkg();
  ThreadPool pool(2);
  const PprTable table = PprTable::Compute(g, PprTableOptions(), &pool);
  size_t longest = 0;
  for (int64_t u = 0; u < g.num_users(); u += 15) {
    const auto oracle = testing::OraclePprPush(g, g.UserNode(u), 0.15, 1e-6);
    const NodeScoreFn run = table.ScoreFn(u);
    longest = std::max(longest, run.nodes.size());
    ASSERT_EQ(run.nodes.size(), oracle.estimate.size()) << "user " << u;
    for (size_t k = 0; k < run.nodes.size(); ++k) {
      if (k > 0) {
        ASSERT_LT(run.nodes[k - 1], run.nodes[k]) << "user " << u;
      }
      const auto it = oracle.estimate.find(run.nodes[k]);
      ASSERT_NE(it, oracle.estimate.end()) << "user " << u;
      EXPECT_EQ(testing::UlpDistance(run.scores[k], it->second), 0u)
          << "user " << u << " node " << run.nodes[k];
    }
  }
  EXPECT_GT(longest, 256u);
}

TEST(PprTableTest, SortByNodeEqualsComparisonSort) {
  Rng rng(19);
  for (const int64_t size : {0, 1, 255, 256, 5000}) {
    for (const uint32_t span : {300u, 70000u, 4294967295u}) {
      std::vector<ppr_internal::NodeScore> run, tmp;
      std::unordered_map<uint32_t, real_t> seen;
      while (static_cast<int64_t>(run.size()) < std::min<int64_t>(size, span)) {
        const auto node = static_cast<uint32_t>(rng.Uniform() * span);
        if (seen.emplace(node, rng.Normal()).second) {
          run.push_back({node, seen[node]});
        }
      }
      std::vector<ppr_internal::NodeScore> want = run;
      std::sort(want.begin(), want.end(), [](const auto& a, const auto& b) {
        return a.node < b.node;
      });
      ppr_internal::SortByNode(&run, &tmp);
      ASSERT_EQ(run.size(), want.size());
      for (size_t k = 0; k < want.size(); ++k) {
        ASSERT_EQ(run[k].node, want[k].node) << size << " " << span;
        ASSERT_EQ(run[k].score, want[k].score) << size << " " << span;
      }
    }
  }
}

TEST(PprTableTest, FromVectorsRoundTrips) {
  const Ckg g = ManyUserCkg();
  const PprTable computed = PprTable::Compute(g);
  std::vector<std::unordered_map<int64_t, real_t>> vectors;
  for (int64_t u = 0; u < g.num_users(); ++u) {
    vectors.push_back(Push(g, g.UserNode(u)));
  }
  const auto maps = vectors;
  const PprTable wrapped = PprTable::FromVectors(std::move(vectors));
  ExpectIdenticalRuns(wrapped, computed, "FromVectors vs Compute");
  for (int64_t u = 0; u < g.num_users(); ++u) {
    std::unordered_map<int64_t, real_t> back;
    const NodeScoreFn run = wrapped.ScoreFn(u);
    for (size_t k = 0; k < run.nodes.size(); ++k) {
      back[run.nodes[k]] = run.scores[k];
    }
    ASSERT_EQ(back.size(), maps[u].size()) << "user " << u;
    for (const auto& [node, value] : maps[u]) {
      ASSERT_EQ(back.count(node), 1u) << "user " << u << " node " << node;
      EXPECT_EQ(testing::UlpDistance(back.at(node), value), 0u)
          << "user " << u << " node " << node;
    }
  }
  // Empty vectors give empty runs; an empty list gives an empty table.
  const PprTable empty_runs = PprTable::FromVectors({{}, {{3, 0.5}}, {}});
  EXPECT_EQ(empty_runs.num_users(), 3);
  EXPECT_EQ(empty_runs.ScoreFn(0).nodes.size(), 0u);
  EXPECT_EQ(empty_runs.Score(1, 3), 0.5);
  EXPECT_EQ(PprTable::FromVectors({}).num_users(), 0);
}

TEST(PprTableTest, AbsentNodesScoreZero) {
  const PprTable table = PprTable::FromVectors({{{2, 0.25}, {7, 0.5}}});
  for (const int64_t node : {-1, 0, 1, 3, 6, 8, 1 << 20}) {
    EXPECT_EQ(table.Score(0, node), 0.0) << "node " << node;
  }
  EXPECT_EQ(table.Score(0, 2), 0.25);
  EXPECT_EQ(table.Score(0, 7), 0.5);
}

TEST(PprTableTest, RangeReadEqualsPerNodeScore) {
  const Ckg g = ManyUserCkg();
  const PprTable table = PprTable::Compute(g);
  const std::vector<std::pair<int64_t, int64_t>> ranges = {
      {g.ItemNode(0), g.num_items()},  // the item scores
      {0, g.num_nodes()},              // everything
      {g.num_nodes() - 3, 10},         // runs past the last node
      {5, 0},                          // empty
      {g.num_nodes() + 4, 3}};         // beyond every entry
  for (int64_t u = 0; u < g.num_users(); ++u) {
    for (const auto& [first, count] : ranges) {
      std::vector<real_t> got(count, -1.0);
      table.ScoreFn(u).ReadRange(first, got);
      for (int64_t k = 0; k < count; ++k) {
        EXPECT_EQ(testing::UlpDistance(got[k], table.Score(u, first + k)), 0u)
            << "user " << u << " node " << first + k;
      }
    }
  }
}

// The arena's memory is asserted, not implied: 8 B per offset (users + 1)
// and 12 B per entry, with nothing over-allocated.
TEST(PprTableTest, MemoryBytesIsEightPerUserPlusTwelvePerEntry) {
  const auto expected = [](const PprTable& t) {
    return 8 * (t.num_users() + 1) + 12 * t.num_entries();
  };
  const Ckg g = ManyUserCkg();
  const PprTable computed = PprTable::Compute(g);
  int64_t entries = 0;
  for (int64_t u = 0; u < g.num_users(); ++u) {
    entries += static_cast<int64_t>(computed.ScoreFn(u).nodes.size());
  }
  EXPECT_EQ(computed.num_entries(), entries);
  EXPECT_GT(entries, g.num_users());
  EXPECT_EQ(computed.MemoryBytes(), expected(computed));
  ThreadPool pool(2);
  const PprTable pooled = PprTable::Compute(g, PprTableOptions(), &pool);
  EXPECT_EQ(pooled.MemoryBytes(), expected(pooled));
  const PprTable wrapped =
      PprTable::FromVectors({{{1, 0.5}, {4, 0.25}}, {}, {{0, 1.0}}});
  EXPECT_EQ(wrapped.MemoryBytes(), 8 * 4 + 12 * 3);
  EXPECT_EQ(PprTable().MemoryBytes(), 8);
}

TEST(PprTableTest, UsersNeighborhoodRanksAboveFarNodes) {
  // The user's own interacted items should outrank a node three hops away.
  Ckg g = SimpleRandomCkg(9);
  PprTable table = PprTable::Compute(g);
  const auto items = g.ItemsOfUser(0);
  ASSERT_FALSE(items.empty());
  const real_t near_score = table.Score(0, g.ItemNode(items[0]));
  EXPECT_GT(near_score, 0.0);
}

TEST(PprEdgeCaseTest, IsolatedUserKeepsMassAtSourceWithoutCrashing) {
  // User 2 never interacted: its node has no out-edges. The push walk must
  // terminate immediately with all restart mass stranded at the source, and
  // every item must score exactly zero — no crash, no division by zero.
  const std::vector<std::array<int64_t, 2>> inter = {{0, 0}, {1, 1}};
  const std::vector<std::array<int64_t, 3>> kg;
  Ckg g = Ckg::Build(3, 2, 2, 1, inter, kg);
  const auto push = Push(g, g.UserNode(2), 0.15, 1e-8);
  ASSERT_EQ(push.size(), 1u);
  EXPECT_NEAR(push.at(g.UserNode(2)), 1.0, 1e-9);
  PprTable table = PprTable::Compute(g);
  for (int64_t item = 0; item < 2; ++item) {
    EXPECT_EQ(table.Score(2, g.ItemNode(item)), 0.0);
  }
}

TEST(PprEdgeCaseTest, EmptyKgStillRanksInteractedItems) {
  // No KG triplets at all: the CKG degenerates to the bipartite interaction
  // graph, which must still produce positive scores for interacted items.
  const std::vector<std::array<int64_t, 2>> inter = {{0, 0}, {0, 1}, {1, 1}};
  const std::vector<std::array<int64_t, 3>> kg;
  Ckg g = Ckg::Build(2, 2, 2, 1, inter, kg);
  PprTable table = PprTable::Compute(g);
  EXPECT_GT(table.Score(0, g.ItemNode(0)), 0.0);
  EXPECT_GT(table.Score(0, g.ItemNode(1)), 0.0);
  EXPECT_GT(table.Score(1, g.ItemNode(1)), 0.0);
}

TEST(PprEdgeCaseTest, EdgeFreeGraphScoresZeroEverywhere) {
  // Fully degenerate: no interactions and no KG. Every user is dangling;
  // Compute must not crash and items must be unranked (score 0).
  const std::vector<std::array<int64_t, 2>> inter;
  const std::vector<std::array<int64_t, 3>> kg;
  Ckg g = Ckg::Build(2, 3, 3, 1, inter, kg);
  PprTable table = PprTable::Compute(g);
  for (int64_t user = 0; user < 2; ++user) {
    for (int64_t item = 0; item < 3; ++item) {
      EXPECT_EQ(table.Score(user, g.ItemNode(item)), 0.0);
    }
    // The stranded restart mass shows up at the user's own node.
    EXPECT_NEAR(table.Score(user, g.UserNode(user)), 1.0, 1e-9);
  }
}

TEST(PprOracleTest, PushMatchesOracleOnGraphWithDanglingNodes) {
  // Entities 12..17 exist in the KG id space but appear in no triplet, so
  // their nodes have no edges at all; user 3 is isolated too. The optimized
  // push and the naive oracle push share the same queue discipline and
  // arithmetic order, so their estimates must agree bitwise, dangling
  // absorption included.
  const std::vector<std::array<int64_t, 2>> inter = {
      {0, 0}, {0, 1}, {1, 1}, {2, 0}, {2, 2}};
  const std::vector<std::array<int64_t, 3>> kg = {
      {0, 0, 3}, {1, 0, 3}, {2, 0, 4}, {4, 0, 5}};
  Ckg g = Ckg::Build(4, 3, 18, 1, inter, kg);
  for (int64_t source = 0; source < g.num_nodes(); ++source) {
    const auto push = Push(g, source, 0.2, 1e-7);
    const testing::OraclePprResult oracle =
        testing::OraclePprPush(g, source, 0.2, 1e-7);
    ASSERT_EQ(push.size(), oracle.estimate.size()) << "source " << source;
    for (const auto& [node, value] : oracle.estimate) {
      const auto it = push.find(node);
      ASSERT_NE(it, push.end()) << "source " << source << " node " << node;
      EXPECT_EQ(testing::UlpDistance(it->second, value), 0u)
          << "source " << source << " node " << node;
    }
    // Termination accounting: estimate plus terminal residual is the full
    // unit of restart mass, dangling nodes or not.
    EXPECT_NEAR(oracle.total_mass, 1.0, 1e-9) << "source " << source;
  }
}

TEST(PprOracleTest, SelfLoopsThatQueueEveryNodeKeepTheFifoOrder) {
  // A KG self-loop (h, r, h) gives h two out-edges to itself (r and its
  // inverse). Popping the item here queues the user and then the item
  // itself, so every node of the graph waits in the queue while the second
  // self-edge is still being visited — the fullest the push queue can get.
  const std::vector<std::array<int64_t, 2>> inter = {{0, 0}};
  const std::vector<std::array<int64_t, 3>> kg = {{0, 0, 0}};
  const Ckg g = Ckg::Build(1, 1, 1, 1, inter, kg);
  ASSERT_EQ(g.num_nodes(), 2);
  for (int64_t source = 0; source < g.num_nodes(); ++source) {
    ExpectPushMatchesOracle(g, source, 0.15, 1e-6, "self-loops");
  }
}

TEST(PprOracleTest, DanglingSourceAgainstDenseReference) {
  // Edges are stored in both directions, so any *reachable* node has an
  // out-edge; a dangling (edge-free) node can only ever be the source. Both
  // cases appear here: the walk from user 0 is checked against the converged
  // dense absorbing-walk reference within the push's undershoot bound, and
  // the edge-free kg node 2 stays completely unranked.
  const std::vector<std::array<int64_t, 2>> inter = {{0, 0}};
  const std::vector<std::array<int64_t, 3>> kg = {{0, 0, 1}};
  // Node layout: user 0, item node (kg id 0), entity node (kg id 1, only a
  // back-edge from the item), plus kg id 2 fully dangling.
  Ckg g = Ckg::Build(1, 1, 3, 1, inter, kg);
  const real_t epsilon = 1e-8;
  const auto push = Push(g, g.UserNode(0), 0.15, epsilon);
  const testing::OracleDensePpr dense =
      testing::OraclePprDense(g, g.UserNode(0), 0.15, 600);
  real_t degree_sum = 0.0, undershoot = 0.0;
  for (int64_t v = 0; v < g.num_nodes(); ++v) {
    const auto it = push.find(v);
    const real_t est = it == push.end() ? 0.0 : it->second;
    EXPECT_LE(est, dense.estimate[v] + 1e-12) << "node " << v;
    undershoot += dense.estimate[v] - est;
    degree_sum += static_cast<real_t>(g.OutDegree(v));
  }
  EXPECT_LE(undershoot, epsilon * degree_sum + 1e-8);
  // The fully dangling node is unreachable: no estimate at all.
  EXPECT_EQ(push.count(g.KgNode(2)), 0u);
}

TEST(PprOracleTest, MassConservationUnderFuzz) {
  // 200 random graphs with isolated users and dangling entities: every push
  // transcript must conserve mass (estimate + residual == 1) and match the
  // optimized implementation bitwise. FuzzPpr asserts both per case.
  testing::FuzzOptions options;
  options.seed = 424242;
  options.cases = 200;
  const testing::FuzzReport report = testing::FuzzPpr(options);
  EXPECT_TRUE(report.ok()) << report.first_failure;
  EXPECT_EQ(report.cases_run, 200);
}

// ---- Per-thread push scratch reuse ------------------------------------------
// Every push on a thread reuses one dense scratch, invalidated by an epoch
// bump instead of a clear. These run several pushes back to back on the test
// thread and require each to replay the oracle bitwise, so state left by an
// earlier push (stale stamps, queued marks, a half-drained queue) shows.

TEST(PprScratchTest, LargeThenSmallThenLargeGraphOnOneThread) {
  const Ckg large = SimpleRandomCkg(31, 40, 90, 60);
  const Ckg small = SimpleRandomCkg(32);
  ASSERT_GT(large.num_nodes(), 2 * small.num_nodes());
  int round = 0;
  for (const Ckg* g : {&large, &small, &large}) {
    for (const int64_t user : {int64_t{0}, g->num_users() - 1}) {
      ExpectPushMatchesOracle(*g, g->UserNode(user), 0.15, 1e-7,
                              "round " + std::to_string(round));
    }
    ++round;
  }
}

TEST(PprScratchTest, CancelledPushLeavesNothingForTheNextPush) {
  const Ckg g = SimpleRandomCkg(33, 40, 90, 60);
  const int64_t source = g.UserNode(3);
  FaultInjector injector;
  FakeClock clock;
  clock.set_auto_advance_micros(1);
  for (const bool by_fault : {true, false}) {
    // Cancel mid-walk: the third checkpoint fails (after 2 *
    // kPprCheckEveryPushes pops), by injected fault or expired deadline.
    injector.Arm("ppr", 3);
    const ExecContext ctx =
        by_fault ? ExecContext(Deadline(), &injector)
                 : ExecContext(Deadline::After(clock, 3));
    std::unordered_map<int64_t, real_t> cancelled = {{0, 1.0}};
    const Status status =
        TryPprForwardPush(g, source, 0.15, 1e-9, ctx, &cancelled);
    ASSERT_FALSE(status.ok()) << "the push ended before its third checkpoint";
    EXPECT_TRUE(cancelled.empty());
    injector.DisarmAll();
    // The same source again and a different one, on the same thread.
    ExpectPushMatchesOracle(g, source, 0.15, 1e-9, "after cancel");
    ExpectPushMatchesOracle(g, g.UserNode(7), 0.15, 1e-9, "after cancel");
  }
}

TEST(PprScratchTest, RepairRightAfterStaticPushOnOneThread) {
  const RandomCkgInputs inputs = SimpleRandomInputs(34, 10, 20, 8);
  const Ckg large = SimpleRandomCkg(35, 40, 90, 60);
  ASSERT_GT(large.num_nodes(), BuildCkg(inputs).num_nodes());
  PprTableOptions opts;
  opts.epsilon = 1e-7;
  // Compute, insert edges, repair — all on the calling thread. With
  // `static_pushes_between`, static pushes on a larger graph run between
  // the compute and the repair, leaving the scratch full of their state.
  auto compute_and_repair = [&](bool static_pushes_between) {
    DynamicCkg graph = BuildDynamicCkg(inputs);
    DynamicPprTable table = DynamicPprTable::Compute(graph, opts, nullptr);
    const Ckg base = BuildCkg(inputs);
    for (int64_t u = 0; u < table.num_users(); ++u) {
      // No overflow edges yet: the dynamic push replays the static one.
      ExpectIdenticalMaps(
          table.Estimate(u),
          testing::OraclePprPush(base, base.UserNode(u), opts.alpha,
                                 opts.epsilon)
              .estimate,
          "dynamic compute, user " + std::to_string(u));
    }
    std::vector<Edge> inserted;
    graph.AddInteraction(0, 17, &inserted);
    graph.AddInteraction(6, 3, &inserted);
    graph.AddKgTriplet(2, 0, 25, &inserted);
    if (static_pushes_between) {
      for (const int64_t user : {int64_t{0}, large.num_users() - 1}) {
        ExpectPushMatchesOracle(large, large.UserNode(user), 0.15, 1e-7,
                                "static push before repair");
      }
    }
    table.ApplyEdgeInsertions(graph, inserted, nullptr);
    EXPECT_GT(table.last_repair_stats().pushes, 0);
    return table;
  };
  // Reference: a thread whose scratch only ever saw this table's pushes.
  std::unique_ptr<DynamicPprTable> reference;
  std::thread([&] {
    reference = std::make_unique<DynamicPprTable>(compute_and_repair(false));
  }).join();
  const DynamicPprTable repaired = compute_and_repair(true);
  ASSERT_EQ(repaired.num_users(), reference->num_users());
  for (int64_t u = 0; u < repaired.num_users(); ++u) {
    ExpectIdenticalMaps(repaired.Estimate(u), reference->Estimate(u),
                        "repaired estimate, user " + std::to_string(u));
    ExpectIdenticalMaps(repaired.Residual(u), reference->Residual(u),
                        "repaired residual, user " + std::to_string(u));
  }
}

}  // namespace
}  // namespace kucnet
