#include <algorithm>
#include <cstring>

#include <gtest/gtest.h>

#include "core/explain.h"
#include "core/kucnet.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "tensor/grad_check.h"
#include "train/trainer.h"

namespace kucnet {
namespace {

/// A tiny but learnable dataset: few topics, informative KG.
Dataset TinyDataset(SplitKind kind = SplitKind::kTraditional,
                    uint64_t seed = 42) {
  SyntheticConfig cfg;
  cfg.seed = seed;
  cfg.num_users = 40;
  cfg.num_items = 60;
  cfg.num_topics = 4;
  cfg.interactions_per_user = 10;
  cfg.entities_per_topic = 5;
  cfg.num_shared_entities = 8;
  cfg.kg_noise = 0.05;
  cfg.entity_entity_edges_per_topic = 6;
  Rng rng(seed);
  const SyntheticData synth = GenerateSynthetic(cfg);
  const RawData& raw = synth.raw;
  switch (kind) {
    case SplitKind::kTraditional:
      return TraditionalSplit(raw, 0.25, rng);
    case SplitKind::kNewItem:
      return NewItemSplit(raw, 0.2, rng);
    case SplitKind::kNewUser:
      return NewUserSplit(raw, 0.2, rng);
    case SplitKind::kTemporal:
      return TemporalSplit(raw, synth.arrival_order, 0.75);
  }
  return TraditionalSplit(raw, 0.25, rng);
}

struct Fixture {
  explicit Fixture(SplitKind kind = SplitKind::kTraditional,
                   KucnetOptions opts = KucnetOptions())
      : dataset(TinyDataset(kind)), ckg(dataset.BuildCkg()) {
    PprTableOptions ppr_opts;
    ppr_opts.epsilon = 1e-6;
    ppr = PprTable::Compute(ckg, ppr_opts);
    model = std::make_unique<Kucnet>(&dataset, &ckg, &ppr, opts);
  }
  /// The model's forward pass with no deadline (it cannot be cancelled).
  KucnetForward Forward(int64_t user) const {
    KucnetForward forward;
    KUC_CHECK_OK(model->TryForward(user, ExecContext(), &forward));
    return forward;
  }
  Dataset dataset;
  Ckg ckg;
  PprTable ppr;
  std::unique_ptr<Kucnet> model;
};

KucnetOptions SmallOptions() {
  KucnetOptions opts;
  opts.hidden_dim = 12;
  opts.attention_dim = 3;
  opts.depth = 3;
  opts.sample_k = 10;
  opts.learning_rate = 1e-2;
  return opts;
}

TEST(KucnetTest, ScoreShapesAndUnreachableZero) {
  Fixture f(SplitKind::kTraditional, SmallOptions());
  const auto scores = f.model->ScoreItems(0);
  EXPECT_EQ(static_cast<int64_t>(scores.size()), f.dataset.num_items);
  // At least some item reachable and scored nonzero.
  int64_t nonzero = 0;
  for (const double s : scores) nonzero += (s != 0.0);
  EXPECT_GT(nonzero, 0);
  // Items not reachable in the final layer must score exactly 0.
  const KucnetForward fwd = f.Forward(0);
  for (int64_t i = 0; i < f.dataset.num_items; ++i) {
    if (fwd.graph.FinalIndexOf(f.ckg.ItemNode(i)) < 0) {
      EXPECT_EQ(scores[i], 0.0) << "item " << i;
    }
  }
}

// The readout walks the final layer's rows once. It must give every user
// exactly what a per-item FinalIndexOf lookup gives, and exactly +0.0 to
// every item the graph does not reach.
TEST(KucnetTest, ReadoutEqualsPerItemFinalIndexLookup) {
  Fixture f(SplitKind::kTraditional, SmallOptions());
  const auto bits = [](double x) {
    uint64_t b;
    std::memcpy(&b, &x, sizeof(b));
    return b;
  };
  Rng rng(5);
  for (int64_t user = 0; user < f.dataset.num_users; ++user) {
    const KucnetForward fwd = f.Forward(user);
    const UserCompGraph& graph = fwd.graph;
    Matrix rows(graph.FinalSize(), 1);
    for (int64_t r = 0; r < rows.rows(); ++r) rows.at(r, 0) = rng.Normal();
    std::vector<double> got;
    ReadoutItemScores(f.ckg, graph, rows, f.dataset.num_items, &got);
    ASSERT_EQ(static_cast<int64_t>(got.size()), f.dataset.num_items);
    ASSERT_EQ(fwd.item_scores.size(), got.size());
    for (int64_t i = 0; i < f.dataset.num_items; ++i) {
      const int64_t idx = graph.FinalIndexOf(f.ckg.ItemNode(i));
      const double want = idx >= 0 ? rows.at(idx, 0) : 0.0;
      EXPECT_EQ(bits(got[i]), bits(want)) << "user " << user << " item " << i;
      if (idx < 0) {
        EXPECT_EQ(bits(fwd.item_scores[i]), bits(0.0))
            << "user " << user << " item " << i;
      }
    }
  }
}

TEST(KucnetTest, ForwardDeterministic) {
  Fixture f(SplitKind::kTraditional, SmallOptions());
  const auto a = f.model->ScoreItems(3);
  const auto b = f.model->ScoreItems(3);
  EXPECT_EQ(a, b);
}

TEST(KucnetTest, AttentionWeightsInUnitInterval) {
  Fixture f(SplitKind::kTraditional, SmallOptions());
  const KucnetForward fwd = f.Forward(1);
  ASSERT_FALSE(fwd.edges.empty());
  for (const AttributedEdge& e : fwd.edges) {
    EXPECT_GE(e.attention, 0.0);
    EXPECT_LE(e.attention, 1.0);
  }
}

TEST(KucnetTest, NoAttentionVariantHasUnitWeights) {
  KucnetOptions opts = SmallOptions();
  opts.use_attention = false;
  Fixture f(SplitKind::kTraditional, opts);
  EXPECT_EQ(f.model->name(), "KUCNet-w.o.-Attn");
  const KucnetForward fwd = f.Forward(1);
  for (const AttributedEdge& e : fwd.edges) {
    EXPECT_EQ(e.attention, 1.0);
  }
}

TEST(KucnetTest, VariantNames) {
  KucnetOptions opts = SmallOptions();
  {
    Fixture f(SplitKind::kTraditional, opts);
    EXPECT_EQ(f.model->name(), "KUCNet");
  }
  opts.prune = PruneMode::kRandom;
  {
    Fixture f(SplitKind::kTraditional, opts);
    EXPECT_EQ(f.model->name(), "KUCNet-random");
  }
  opts.prune = PruneMode::kNone;
  {
    Fixture f(SplitKind::kTraditional, opts);
    EXPECT_EQ(f.model->name(), "KUCNet-w.o.-PPR");
  }
}

TEST(KucnetTest, ParamCountMatchesParams) {
  Fixture f(SplitKind::kTraditional, SmallOptions());
  EXPECT_EQ(f.model->ParamCount(), TotalParamCount(f.model->Params()));
  // No node embeddings: parameter count is independent of graph size and
  // small (Fig. 5's claim).
  const int64_t d = f.model->options().hidden_dim;
  EXPECT_LT(f.model->ParamCount(),
            10 * d * d * f.model->options().depth + 10 * d);
}

TEST(KucnetTest, GradientsMatchFiniteDifferences) {
  KucnetOptions opts = SmallOptions();
  opts.hidden_dim = 6;
  opts.attention_dim = 2;
  opts.sample_k = 6;
  Fixture f(SplitKind::kTraditional, opts);
  // Pick a user with reachable positives.
  const auto train_items = f.dataset.TrainItemsByUser();
  int64_t user = -1;
  std::vector<int64_t> pos, neg;
  for (int64_t u = 0; u < f.dataset.num_users && user < 0; ++u) {
    if (train_items[u].size() < 2) continue;
    Tape probe;
    Var loss = f.model->BuildLoss(probe, u, {train_items[u][0]},
                                  {train_items[u][1]});
    if (loss.valid()) {
      user = u;
      pos = {train_items[u][0]};
      neg = {train_items[u][1]};
    }
  }
  ASSERT_GE(user, 0) << "no user with reachable pair found";
  auto fn = [&](Tape& tape) {
    Var loss = f.model->BuildLoss(tape, user, pos, neg);
    EXPECT_TRUE(loss.valid());
    return loss;
  };
  const auto result =
      CheckGradients(f.model->Params(), fn, 1e-5, 5e-4, /*max_entries=*/60);
  EXPECT_TRUE(result.ok) << "max_rel_err=" << result.max_rel_err;
}

TEST(KucnetTest, TrainingReducesLossAndBeatsChance) {
  Fixture f(SplitKind::kTraditional, SmallOptions());
  Rng rng(1);
  const double first_loss = f.model->TrainEpoch(rng);
  double last_loss = first_loss;
  for (int e = 0; e < 7; ++e) last_loss = f.model->TrainEpoch(rng);
  EXPECT_LT(last_loss, first_loss);

  const EvalResult eval = EvaluateRanking(*f.model, f.dataset);
  // Chance recall@20 is roughly 20/60; a trained model must beat it clearly.
  EXPECT_GT(eval.recall, 0.45) << ToString(eval);
}

TEST(KucnetTest, NewItemsAreScoredThroughTheKg) {
  // In the new-item split, test items have no interactions. KUCNet must
  // still reach and rank them via KG bridges.
  Fixture f(SplitKind::kNewItem, SmallOptions());
  Rng rng(2);
  for (int e = 0; e < 6; ++e) f.model->TrainEpoch(rng);
  const EvalResult eval = EvaluateRanking(*f.model, f.dataset);
  EXPECT_GT(eval.recall, 0.0) << ToString(eval);
  // Sanity: at least one new item is reachable for some user.
  const auto test_by_user = f.dataset.TestItemsByUser();
  bool reachable = false;
  for (const int64_t u : f.dataset.TestUsers()) {
    const KucnetForward fwd = f.Forward(u);
    for (const int64_t i : test_by_user[u]) {
      if (fwd.graph.FinalIndexOf(f.ckg.ItemNode(i)) >= 0) reachable = true;
    }
    if (reachable) break;
  }
  EXPECT_TRUE(reachable);
}

TEST(KucnetTest, ScorePairOnUiGraphAgreesOnReachability) {
  Fixture f(SplitKind::kTraditional, SmallOptions());
  const auto train_items = f.dataset.TrainItemsByUser();
  ASSERT_FALSE(train_items[0].empty());
  const auto [score, edges] = f.model->ScorePairOnUiGraph(0, train_items[0][0]);
  EXPECT_GT(edges, 0);
  // The per-pair graph is unpruned, so it contains at least as much
  // structure as any single pruned user graph's restriction to this item.
  const KucnetForward fwd = f.Forward(0);
  EXPECT_GE(edges, 0);
  (void)score;
  (void)fwd;
}

TEST(KucnetTest, PerPairGraphCostExceedsUserCentric) {
  // Fig. 6's premise: sum of per-pair edges across items >> user-centric
  // edges for the same user.
  KucnetOptions opts = SmallOptions();
  opts.prune = PruneMode::kNone;
  opts.sample_k = 0;
  Fixture f(SplitKind::kTraditional, opts);
  const KucnetForward fwd = f.Forward(0);
  const int64_t user_centric_edges = fwd.graph.TotalEdges();
  int64_t per_pair_total = 0;
  for (int64_t i = 0; i < f.dataset.num_items; ++i) {
    per_pair_total += f.model->ScorePairOnUiGraph(0, i).second;
  }
  EXPECT_GT(per_pair_total, user_centric_edges);
}

TEST(KucnetTest, TrainEpochSkipsUsersWithoutTrainData) {
  // In the new-user split, held-out users have no training interactions;
  // TrainEpoch must simply skip them (and never crash).
  Fixture f(SplitKind::kNewUser, SmallOptions());
  Rng rng(3);
  const double loss = f.model->TrainEpoch(rng);
  EXPECT_GE(loss, 0.0);
}

TEST(ExplainTest, PathsReachTheItemAndRespectThreshold) {
  Fixture f(SplitKind::kTraditional, SmallOptions());
  Rng rng(4);
  for (int e = 0; e < 3; ++e) f.model->TrainEpoch(rng);
  // Find a user and an item that is reachable.
  for (const int64_t u : f.dataset.TestUsers()) {
    const KucnetForward fwd = f.Forward(u);
    int64_t item = -1;
    for (int64_t i = 0; i < f.dataset.num_items; ++i) {
      if (fwd.graph.FinalIndexOf(f.ckg.ItemNode(i)) >= 0 &&
          fwd.item_scores[i] != 0.0) {
        item = i;
        break;
      }
    }
    if (item < 0) continue;
    const double threshold = 0.0;  // keep everything; structure checks below
    const auto paths = ExplainItem(fwd, f.ckg, item, threshold, 5);
    ASSERT_FALSE(paths.empty());
    for (const ExplainedPath& p : paths) {
      ASSERT_EQ(static_cast<int32_t>(p.hops.size()),
                f.model->options().depth);
      EXPECT_EQ(p.hops.front().src, f.ckg.UserNode(u));
      EXPECT_EQ(p.hops.back().dst, f.ckg.ItemNode(item));
      // Consecutive hops chain.
      for (size_t h = 1; h < p.hops.size(); ++h) {
        EXPECT_EQ(p.hops[h - 1].dst, p.hops[h].src);
      }
      for (const AttributedEdge& e : p.hops) {
        EXPECT_GE(e.attention, threshold);
      }
      EXPECT_FALSE(FormatPath(p, f.ckg).empty());
    }
    return;  // one user suffices
  }
  FAIL() << "no reachable item found for any test user";
}

TEST(ExplainTest, HighThresholdPrunesPaths) {
  Fixture f(SplitKind::kTraditional, SmallOptions());
  const KucnetForward fwd = f.Forward(0);
  int64_t item = -1;
  for (int64_t i = 0; i < f.dataset.num_items; ++i) {
    if (fwd.graph.FinalIndexOf(f.ckg.ItemNode(i)) >= 0) {
      item = i;
      break;
    }
  }
  ASSERT_GE(item, 0);
  const auto all = ExplainItem(fwd, f.ckg, item, 0.0, 1000);
  const auto strict = ExplainItem(fwd, f.ckg, item, 1.01, 1000);
  EXPECT_TRUE(strict.empty());
  EXPECT_GE(all.size(), strict.size());
}

TEST(ExplainTest, NameHelpers) {
  Fixture f(SplitKind::kTraditional, SmallOptions());
  const Ckg& g = f.ckg;
  EXPECT_EQ(RelationName(g, Ckg::kInteractRelation), "interact");
  EXPECT_EQ(RelationName(g, g.InverseRelation(Ckg::kInteractRelation)),
            "inv:interact");
  EXPECT_EQ(RelationName(g, 1), "kg:0");
  EXPECT_EQ(RelationName(g, g.self_loop_relation()), "self");
  EXPECT_EQ(NodeName(g, g.UserNode(2)), "user:2");
  EXPECT_EQ(NodeName(g, g.ItemNode(3)), "item:3");
  EXPECT_EQ(NodeName(g, g.KgNode(f.dataset.num_items + 1)),
            "entity:" + std::to_string(f.dataset.num_items + 1));
}

}  // namespace
}  // namespace kucnet
