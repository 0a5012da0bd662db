#include "graph/subgraph.h"

#include <algorithm>
#include <deque>
#include <unordered_set>

#include "obs/trace.h"
#include "util/logging.h"

namespace kucnet {

Status TryBfsDistances(const Ckg& ckg, int64_t source, int32_t max_depth,
                       const ExecContext& ctx, std::vector<int32_t>* out) {
  KUC_TRACE_SPAN("subgraph.bfs");
  KUC_CHECK_GE(source, 0);
  KUC_CHECK_LT(source, ckg.num_nodes());
  std::vector<int32_t>& dist = *out;
  dist.assign(ckg.num_nodes(), -1);
  dist[source] = 0;
  std::deque<int64_t> frontier = {source};
  int64_t pops = 0;
  while (!frontier.empty()) {
    if (pops++ % kSubgraphCheckEveryNodes == 0) {
      const Status status = ctx.Check("subgraph");
      if (!status.ok()) {
        dist.clear();
        return status;
      }
    }
    const int64_t v = frontier.front();
    frontier.pop_front();
    if (dist[v] >= max_depth) continue;
    for (const int64_t w : ckg.OutNeighbors(v)) {
      if (dist[w] < 0) {
        dist[w] = dist[v] + 1;
        frontier.push_back(w);
      }
    }
  }
  return Status::Ok();
}

UiSubgraph ExtractUiSubgraph(const Ckg& ckg, int64_t user_node,
                             int64_t item_node, int32_t depth) {
  std::vector<int32_t> du, di;
  KUC_CHECK_OK(TryBfsDistances(ckg, user_node, depth, ExecContext(), &du));
  KUC_CHECK_OK(TryBfsDistances(ckg, item_node, depth, ExecContext(), &di));
  UiSubgraph sg;
  std::vector<bool> in_set(ckg.num_nodes(), false);
  for (int64_t v = 0; v < ckg.num_nodes(); ++v) {
    if (du[v] >= 0 && di[v] >= 0 && du[v] + di[v] <= depth) {
      in_set[v] = true;
      sg.nodes.push_back(v);
    }
  }
  for (const int64_t v : sg.nodes) {
    const auto rels = ckg.OutRelations(v);
    const auto dsts = ckg.OutNeighbors(v);
    for (size_t k = 0; k < dsts.size(); ++k) {
      if (in_set[dsts[k]]) sg.edges.push_back({v, rels[k], dsts[k]});
    }
  }
  return sg;
}

int64_t LayeredEdges::TotalEdges() const {
  int64_t total = 0;
  for (const auto& layer : layers) total += static_cast<int64_t>(layer.size());
  return total;
}

Status TryExtractUiComputationGraph(const Ckg& ckg, int64_t user_node,
                                    int64_t item_node, int32_t depth,
                                    const ExecContext& ctx, LayeredEdges* out) {
  KUC_TRACE_SPAN("subgraph.extract");
  out->layers.clear();
  std::vector<int32_t> du, di;
  KUC_RETURN_IF_ERROR(TryBfsDistances(ckg, user_node, depth, ctx, &du));
  KUC_RETURN_IF_ERROR(TryBfsDistances(ckg, item_node, depth, ctx, &di));
  const int64_t self_rel = ckg.self_loop_relation();
  out->layers.resize(depth);
  for (int32_t l = 1; l <= depth; ++l) {
    {
      const Status status = ctx.Check("subgraph");
      if (!status.ok()) {
        out->layers.clear();
        return status;
      }
    }
    auto& layer = out->layers[l - 1];
    // A node can be the source of a layer-l edge if it is within l-1 hops of
    // u; the destination must reach i within depth-l hops.
    for (int64_t v = 0; v < ckg.num_nodes(); ++v) {
      if (du[v] < 0 || du[v] > l - 1) continue;
      // Self-loop padding: (v, self, v) if v can still reach i in time.
      if (di[v] >= 0 && di[v] <= depth - l) {
        layer.push_back({v, self_rel, v});
      }
      const auto rels = ckg.OutRelations(v);
      const auto dsts = ckg.OutNeighbors(v);
      for (size_t k = 0; k < dsts.size(); ++k) {
        const int64_t w = dsts[k];
        if (di[w] >= 0 && di[w] <= depth - l) {
          layer.push_back({v, rels[k], w});
        }
      }
    }
  }
  return Status::Ok();
}

}  // namespace kucnet
