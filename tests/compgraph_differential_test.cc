// Differential tests of the user-centric computation graph builder: the
// dense-scratch CompGraphBuilder against the hash-map transcription
// testing::OracleUserCompGraph, over every user of three synthetic
// datasets, and the reuse of the per-thread scratch across builds.

#include <functional>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "graph/compgraph.h"
#include "ppr/ppr.h"
#include "testing/oracle.h"
#include "util/fault.h"

namespace kucnet {
namespace {

const char* ModeName(PruneMode mode) {
  switch (mode) {
    case PruneMode::kNone:
      return "none";
    case PruneMode::kPpr:
      return "ppr";
    case PruneMode::kRandom:
      return "random";
  }
  return "?";
}

Dataset SynthDataset(const std::string& name) {
  Rng rng(7);
  return TraditionalSplit(GenerateSynthetic(SynthConfigByName(name)).raw, 0.2,
                          rng);
}

struct Fixture {
  explicit Fixture(Dataset data)
      : dataset(std::move(data)),
        ckg(dataset.BuildCkg()),
        ppr(PprTable::Compute(ckg)) {}
  Dataset dataset;
  Ckg ckg;
  PprTable ppr;
};

// Up to two of the user's training items, hidden as a training batch would.
std::vector<ExcludedPair> SomeInteractions(const Ckg& ckg, int64_t user) {
  std::vector<ExcludedPair> excluded;
  for (const int64_t item : ckg.ItemsOfUser(user)) {
    if (excluded.size() == 2) break;
    excluded.push_back({ckg.UserNode(user), ckg.ItemNode(item)});
  }
  return excluded;
}

void ExpectSameGraph(const UserCompGraph& actual,
                     const UserCompGraph& expected, const std::string& what) {
  ASSERT_EQ(actual.user_node, expected.user_node) << what;
  ASSERT_EQ(actual.layers.size(), expected.layers.size()) << what;
  for (size_t l = 0; l < expected.layers.size(); ++l) {
    const CompLayer& a = actual.layers[l];
    const CompLayer& b = expected.layers[l];
    const std::string at = what + " layer " + std::to_string(l);
    EXPECT_EQ(a.src_index, b.src_index) << at;
    EXPECT_EQ(a.rel, b.rel) << at;
    EXPECT_EQ(a.dst_index, b.dst_index) << at;
    EXPECT_EQ(a.nodes, b.nodes) << at;
  }
  EXPECT_EQ(actual.final_index, expected.final_index) << what;
}

// Builds `user` with the builder and with the oracle (same options, same
// rng seed, same exclusions) and requires identical graphs and a clear
// scratch afterwards.
void ExpectBuildMatchesOracle(const Fixture& f, const CompGraphOptions& opts,
                              int64_t user,
                              const std::vector<ExcludedPair>& excluded,
                              const std::string& what) {
  const NodeScoreFn run = f.ppr.ScoreFn(user);
  const std::function<real_t(int64_t)> oracle_score = [&](int64_t node) {
    return f.ppr.Score(user, node);
  };
  const uint64_t seed = 1000003 * static_cast<uint64_t>(user) + 17;
  Rng rng(seed);
  Rng oracle_rng(seed);
  UserCompGraph built;
  ASSERT_TRUE(CompGraphBuilder(&f.ckg, opts).TryBuild(
      f.ckg.UserNode(user), &run, &rng, excluded, ExecContext(), &built).ok())
      << what;
  EXPECT_TRUE(compgraph_internal::ThisThreadScratchIsClear()) << what;
  const UserCompGraph expected = testing::OracleUserCompGraph(
      f.ckg, opts, f.ckg.UserNode(user), &oracle_score, &oracle_rng, excluded);
  ExpectSameGraph(built, expected, what);
}

class CompGraphDifferentialTest : public ::testing::TestWithParam<std::string> {
};

TEST_P(CompGraphDifferentialTest, EveryUserMatchesTheOracle) {
  const Fixture f(SynthDataset(GetParam()));
  for (const int64_t k : {0, 5, 30}) {
    for (const PruneMode mode :
         {PruneMode::kPpr, PruneMode::kRandom, PruneMode::kNone}) {
      CompGraphOptions opts;
      opts.depth = 3;
      opts.max_edges_per_node = k;
      opts.prune = mode;
      for (int64_t user = 0; user < f.ckg.num_users(); ++user) {
        const std::string what = GetParam() + " K=" + std::to_string(k) +
                                 " " + ModeName(mode) + " user " +
                                 std::to_string(user);
        ExpectBuildMatchesOracle(f, opts, user, {}, what);
        ExpectBuildMatchesOracle(f, opts, user,
                                 SomeInteractions(f.ckg, user),
                                 what + " with exclusions");
        if (HasFatalFailure()) return;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Synth, CompGraphDifferentialTest,
                         ::testing::Values("synth-lastfm", "synth-disgenet",
                                           "synth-amazon-book"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

CompGraphOptions PprOptions(int64_t k) {
  CompGraphOptions opts;
  opts.depth = 3;
  opts.max_edges_per_node = k;
  opts.prune = PruneMode::kPpr;
  return opts;
}

// A toy dataset far smaller than the synthetic ones: 4 users, 5 items.
Dataset TinyDataset() {
  SyntheticConfig cfg;
  cfg.seed = 3;
  cfg.num_users = 4;
  cfg.num_items = 5;
  cfg.num_topics = 2;
  cfg.interactions_per_user = 2;
  cfg.entities_per_topic = 2;
  cfg.num_shared_entities = 1;
  Rng rng(3);
  return TraditionalSplit(GenerateSynthetic(cfg).raw, 0.2, rng);
}

// The scratch grows to the largest graph a thread has built on; a smaller
// graph in between must neither read stale entries past its own nodes nor
// leave any behind.
TEST(CompGraphScratchTest, LargeThenSmallThenLargeGraphOnOneThread) {
  const Fixture large(SynthDataset("synth-disgenet"));
  const Fixture small(TinyDataset());
  ASSERT_LT(small.ckg.num_nodes(), large.ckg.num_nodes());
  std::thread([&] {
    for (const int64_t user : {0, 1, 2}) {
      ExpectBuildMatchesOracle(large, PprOptions(5), user, {}, "large");
    }
    for (int64_t user = 0; user < small.ckg.num_users(); ++user) {
      ExpectBuildMatchesOracle(small, PprOptions(2), user, {}, "small");
    }
    for (const int64_t user : {0, 3, 7}) {
      ExpectBuildMatchesOracle(large, PprOptions(30), user, {},
                               "large again");
    }
  }).join();
}

// A build cancelled mid-expansion leaves its scores and its layer index in
// the scratch unless the guard undoes them; the next build on the thread
// (another user, whose run differs) must equal a build on a fresh thread.
TEST(CompGraphScratchTest, CancelledBuildLeavesNothingForTheNextBuild) {
  const Fixture f(SynthDataset("synth-lastfm"));
  const CompGraphBuilder builder(&f.ckg, PprOptions(5));
  const int64_t cancelled_user = 4;
  const int64_t next_user = 9;
  const NodeScoreFn next_run = f.ppr.ScoreFn(next_user);

  UserCompGraph fresh;
  std::thread([&] {
    ASSERT_TRUE(builder.TryBuild(f.ckg.UserNode(next_user), &next_run, nullptr,
                                 {}, ExecContext(), &fresh).ok());
  }).join();

  std::thread([&] {
    FaultInjector injector;
    injector.Arm("subgraph", 3);
    const ExecContext ctx(Deadline(), &injector);
    const NodeScoreFn run = f.ppr.ScoreFn(cancelled_user);
    UserCompGraph out;
    out.user_node = 123;
    const Status status = builder.TryBuild(f.ckg.UserNode(cancelled_user),
                                           &run, nullptr, {}, ctx, &out);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(injector.hits("subgraph"), 3);
    EXPECT_EQ(out.user_node, -1);
    EXPECT_TRUE(out.layers.empty());
    EXPECT_TRUE(compgraph_internal::ThisThreadScratchIsClear());

    UserCompGraph next;
    ASSERT_TRUE(builder.TryBuild(f.ckg.UserNode(next_user), &next_run, nullptr,
                                 {}, ExecContext(), &next).ok());
    EXPECT_TRUE(compgraph_internal::ThisThreadScratchIsClear());
    ExpectSameGraph(next, fresh, "after a cancelled build");
  }).join();
}

}  // namespace
}  // namespace kucnet
