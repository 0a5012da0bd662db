#include "graph/compgraph.h"

#include <algorithm>

#include "obs/trace.h"
#include "util/logging.h"

namespace kucnet {

namespace {

/// Packs an undirected (user, item) pair for the exclusion set.
uint64_t PackPair(int64_t a, int64_t b) {
  return (static_cast<uint64_t>(a) << 32) | static_cast<uint64_t>(b);
}

/// One candidate out-edge during expansion.
struct Candidate {
  int64_t rel;
  int64_t dst;
  real_t score;  // tail PPR score under kPpr
};

}  // namespace

int64_t UserCompGraph::TotalEdges() const {
  int64_t total = 0;
  for (const auto& layer : layers) total += layer.num_edges();
  return total;
}

int64_t UserCompGraph::FinalIndexOf(int64_t node) const {
  const auto it = final_index.find(node);
  return it == final_index.end() ? -1 : it->second;
}

UserCompGraph FromLayeredEdges(
    const std::vector<std::vector<Edge>>& layers, int64_t user_node) {
  UserCompGraph graph;
  graph.user_node = user_node;
  graph.layers.resize(layers.size());
  std::unordered_map<int64_t, int64_t> prev_index = {{user_node, 0}};
  for (size_t l = 0; l < layers.size(); ++l) {
    CompLayer& layer = graph.layers[l];
    std::unordered_map<int64_t, int64_t> cur_index;
    for (const Edge& e : layers[l]) {
      const auto src_it = prev_index.find(e.src);
      KUC_CHECK(src_it != prev_index.end())
          << "layer " << l + 1 << " edge source " << e.src
          << " absent from layer " << l;
      const auto [dst_it, inserted] =
          cur_index.emplace(e.dst, static_cast<int64_t>(layer.nodes.size()));
      if (inserted) layer.nodes.push_back(e.dst);
      layer.src_index.push_back(src_it->second);
      layer.rel.push_back(e.rel);
      layer.dst_index.push_back(dst_it->second);
    }
    prev_index = std::move(cur_index);
  }
  graph.final_index = std::move(prev_index);
  return graph;
}

CompGraphBuilder::CompGraphBuilder(const Ckg* ckg, CompGraphOptions options)
    : ckg_(ckg), options_(options) {
  KUC_CHECK(ckg != nullptr);
  KUC_CHECK_GE(options.depth, 1);
  KUC_CHECK_GE(options.max_edges_per_node, 0);
}

UserCompGraph CompGraphBuilder::Build(
    int64_t user_node, const NodeScoreFn* score, Rng* rng,
    const std::vector<ExcludedPair>& excluded) const {
  UserCompGraph graph;
  const Status status =
      TryBuild(user_node, score, rng, excluded, ExecContext(), &graph);
  KUC_CHECK(status.ok()) << status.message();
  return graph;
}

Status CompGraphBuilder::TryBuild(int64_t user_node, const NodeScoreFn* score,
                                  Rng* rng,
                                  const std::vector<ExcludedPair>& excluded,
                                  const ExecContext& ctx,
                                  UserCompGraph* out) const {
  KUC_TRACE_SPAN("compgraph.build");
  const Ckg& ckg = *ckg_;
  KUC_CHECK_GE(user_node, 0);
  KUC_CHECK_LT(user_node, ckg.num_nodes());
  const int64_t k_limit = options_.max_edges_per_node;
  const bool prune = k_limit > 0 && options_.prune != PruneMode::kNone;
  if (prune && options_.prune == PruneMode::kPpr) {
    KUC_CHECK(score != nullptr) << "PPR pruning requires a score function";
  }
  if (prune && options_.prune == PruneMode::kRandom) {
    KUC_CHECK(rng != nullptr) << "random pruning requires an rng";
  }

  std::unordered_set<uint64_t> excluded_set;
  excluded_set.reserve(excluded.size() * 2);
  for (const auto& pair : excluded) {
    excluded_set.insert(PackPair(pair.user_node, pair.item_node));
    excluded_set.insert(PackPair(pair.item_node, pair.user_node));
  }
  const int64_t interact = Ckg::kInteractRelation;
  const int64_t interact_inv = ckg.InverseRelation(interact);
  auto is_excluded = [&](int64_t src, int64_t rel, int64_t dst) {
    if (excluded_set.empty()) return false;
    if (rel != interact && rel != interact_inv) return false;
    return excluded_set.count(PackPair(src, dst)) > 0;
  };

  UserCompGraph& graph = *out;
  graph = UserCompGraph();
  graph.user_node = user_node;
  graph.layers.resize(options_.depth);

  std::vector<int64_t> prev_nodes = {user_node};
  const int64_t self_rel = ckg.self_loop_relation();
  std::vector<Candidate> candidates;
  std::unordered_map<int64_t, int64_t> dst_index;

  for (int32_t l = 0; l < options_.depth; ++l) {
    CompLayer& layer = graph.layers[l];
    dst_index.clear();
    auto index_of = [&](int64_t node) {
      const auto [it, inserted] =
          dst_index.emplace(node, static_cast<int64_t>(layer.nodes.size()));
      if (inserted) layer.nodes.push_back(node);
      return it->second;
    };

    for (size_t si = 0; si < prev_nodes.size(); ++si) {
      // One cancellation checkpoint per expanded head node: layers grow
      // multiplicatively, so this bounds the work wasted past a deadline to
      // a single node's out-edge scan.
      const Status status = ctx.Check("subgraph");
      if (!status.ok()) {
        graph = UserCompGraph();
        return status;
      }
      const int64_t src = prev_nodes[si];
      if (options_.self_loops) {
        layer.src_index.push_back(static_cast<int64_t>(si));
        layer.rel.push_back(self_rel);
        layer.dst_index.push_back(index_of(src));
      }
      const auto rels = ckg.OutRelations(src);
      const auto dsts = ckg.OutNeighbors(src);
      candidates.clear();
      for (size_t e = 0; e < dsts.size(); ++e) {
        if (is_excluded(src, rels[e], dsts[e])) continue;
        const real_t s =
            (prune && options_.prune == PruneMode::kPpr) ? (*score)(dsts[e])
                                                         : 0.0;
        candidates.push_back({rels[e], dsts[e], s});
      }
      if (prune && static_cast<int64_t>(candidates.size()) > k_limit) {
        if (options_.prune == PruneMode::kPpr) {
          // Top-K by tail score; deterministic tie-break on (dst, rel).
          std::nth_element(candidates.begin(), candidates.begin() + k_limit,
                           candidates.end(),
                           [](const Candidate& a, const Candidate& b) {
                             if (a.score != b.score) return a.score > b.score;
                             if (a.dst != b.dst) return a.dst < b.dst;
                             return a.rel < b.rel;
                           });
          candidates.resize(k_limit);
        } else {  // kRandom
          const auto keep = rng->SampleWithoutReplacement(
              static_cast<int64_t>(candidates.size()), k_limit);
          std::vector<Candidate> kept;
          kept.reserve(k_limit);
          for (const int64_t idx : keep) kept.push_back(candidates[idx]);
          candidates = std::move(kept);
        }
      }
      for (const Candidate& c : candidates) {
        layer.src_index.push_back(static_cast<int64_t>(si));
        layer.rel.push_back(c.rel);
        layer.dst_index.push_back(index_of(c.dst));
      }
    }
    prev_nodes = layer.nodes;
  }

  graph.final_index.reserve(prev_nodes.size());
  for (size_t i = 0; i < prev_nodes.size(); ++i) {
    graph.final_index.emplace(prev_nodes[i], static_cast<int64_t>(i));
  }
  return Status::Ok();
}

}  // namespace kucnet
