// Unit tests for FromLayeredEdges: the bridge between per-pair layered edge
// lists (global ids) and the dense-indexed computation-graph form the
// message-passing kernel consumes, plus equivalence of the two KUCNet
// scoring paths on graphs where they must coincide.

#include <set>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "graph/compgraph.h"
#include "graph/subgraph.h"

namespace kucnet {
namespace {

Ckg SmallCkg(uint64_t seed = 3) {
  SyntheticConfig cfg;
  cfg.seed = seed;
  cfg.num_users = 15;
  cfg.num_items = 25;
  cfg.num_topics = 3;
  cfg.interactions_per_user = 5;
  cfg.entities_per_topic = 3;
  cfg.num_shared_entities = 4;
  Rng rng(seed);
  return TraditionalSplit(GenerateSynthetic(cfg).raw, 0.2, rng).BuildCkg();
}

TEST(FromLayeredEdgesTest, PreservesEveryEdge) {
  const Ckg ckg = SmallCkg();
  const int64_t user = ckg.UserNode(0);
  const auto items = ckg.ItemsOfUser(0);
  ASSERT_FALSE(items.empty());
  const int64_t item = ckg.ItemNode(items[0]);
  LayeredEdges layered;
  ASSERT_TRUE(TryExtractUiComputationGraph(ckg, user, item, 3, ExecContext(),
                                           &layered).ok());
  ASSERT_GT(layered.TotalEdges(), 0);

  const UserCompGraph graph = FromLayeredEdges(layered.layers, user);
  ASSERT_EQ(graph.layers.size(), layered.layers.size());
  EXPECT_EQ(graph.TotalEdges(), layered.TotalEdges());

  // Re-materialize global-id edges and compare as multisets per layer.
  std::vector<int64_t> prev = {user};
  for (size_t l = 0; l < graph.layers.size(); ++l) {
    const CompLayer& layer = graph.layers[l];
    std::multiset<std::tuple<int64_t, int64_t, int64_t>> got, expected;
    for (int64_t e = 0; e < layer.num_edges(); ++e) {
      got.insert({prev[layer.src_index[e]], layer.rel[e],
                  layer.nodes[layer.dst_index[e]]});
    }
    for (const Edge& e : layered.layers[l]) {
      expected.insert({e.src, e.rel, e.dst});
    }
    EXPECT_EQ(got, expected) << "layer " << l;
    prev = layer.nodes;
  }
  // The target item is reachable in the final layer by construction.
  EXPECT_GE(graph.FinalIndexOf(item), 0);
}

TEST(FromLayeredEdgesTest, EmptyLayersYieldEmptyGraph) {
  const std::vector<std::vector<Edge>> empty(3);
  const UserCompGraph graph = FromLayeredEdges(empty, /*user_node=*/7);
  EXPECT_EQ(graph.TotalEdges(), 0);
  EXPECT_EQ(graph.FinalSize(), 0);
  EXPECT_EQ(graph.FinalIndexOf(7), -1);
}

TEST(FromLayeredEdgesDeathTest, DanglingSourceAborts) {
  // An edge whose source never appeared in the previous layer is invalid.
  std::vector<std::vector<Edge>> layers(2);
  layers[0].push_back({0, 1, 5});
  layers[1].push_back({99, 1, 6});  // 99 not in layer-1 nodes
  EXPECT_DEATH(FromLayeredEdges(layers, /*user_node=*/0), "absent from layer");
}

TEST(UiComputationGraphTest, EdgeCountMonotoneInDepth) {
  const Ckg ckg = SmallCkg(5);
  const int64_t user = ckg.UserNode(1);
  const auto items = ckg.ItemsOfUser(1);
  ASSERT_FALSE(items.empty());
  const int64_t item = ckg.ItemNode(items[0]);
  int64_t prev_edges = -1;
  for (int32_t depth = 1; depth <= 4; ++depth) {
    LayeredEdges layered;
    ASSERT_TRUE(TryExtractUiComputationGraph(ckg, user, item, depth,
                                             ExecContext(), &layered).ok());
    // Deeper horizons can only admit more total structure.
    EXPECT_GE(layered.TotalEdges(), prev_edges);
    prev_edges = layered.TotalEdges();
  }
}

}  // namespace
}  // namespace kucnet
