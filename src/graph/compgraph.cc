#include "graph/compgraph.h"

#include <algorithm>

#include "obs/trace.h"
#include "util/logging.h"

namespace kucnet {

namespace {

/// Packs an undirected (user, item) pair for the exclusion list.
uint64_t PackPair(int64_t a, int64_t b) {
  return (static_cast<uint64_t>(a) << 32) | static_cast<uint64_t>(b);
}

/// One candidate out-edge during expansion.
struct Candidate {
  real_t score;  // tail PPR score under kPpr (read only when pruning)
  uint32_t dst;
  uint32_t rel;
};

/// The dense state of one build, indexed by node id and all-zero between
/// builds: the user's PPR run scattered into `score`, and each node's
/// position in the layer being built plus one (0 = not in the layer) in
/// `index_plus_one`. One per thread, grown to the largest graph the thread
/// has built on and kept for its lifetime: 12 B × num_nodes.
struct BuildScratch {
  std::vector<real_t> score;
  std::vector<uint32_t> index_plus_one;

  static BuildScratch& ForThisThread() {
    thread_local BuildScratch scratch;
    return scratch;
  }
};

/// Undoes every scratch write of a build when it goes out of scope, on
/// cancellation as on success, so the next build starts from all-zero
/// without an epoch or a clear over num_nodes.
class ScratchGuard {
 public:
  explicit ScratchGuard(BuildScratch& scratch) : scratch_(scratch) {}
  ScratchGuard(const ScratchGuard&) = delete;
  ScratchGuard& operator=(const ScratchGuard&) = delete;
  ~ScratchGuard() {
    for (const uint32_t node : scored_) scratch_.score[node] = 0.0;
    UnindexLayer();
  }

  /// Scatters the entries of `run` with node < num_nodes into the scores.
  void Scatter(const NodeScoreFn& run, int64_t num_nodes) {
    const auto end = std::lower_bound(run.nodes.begin(), run.nodes.end(),
                                      static_cast<uint64_t>(num_nodes));
    scored_ = run.nodes.first(static_cast<size_t>(end - run.nodes.begin()));
    for (size_t k = 0; k < scored_.size(); ++k) {
      scratch_.score[scored_[k]] = run.scores[k];
    }
  }

  /// Makes `nodes` the layer whose positions `index_plus_one` holds.
  void IndexLayer(const std::vector<int64_t>* nodes) {
    UnindexLayer();
    indexed_ = nodes;
  }

 private:
  void UnindexLayer() {
    if (indexed_ == nullptr) return;
    for (const int64_t node : *indexed_) scratch_.index_plus_one[node] = 0;
    indexed_ = nullptr;
  }

  BuildScratch& scratch_;
  std::span<const uint32_t> scored_;
  const std::vector<int64_t>* indexed_ = nullptr;
};

/// Fills the layers of `graph` (sized to options.depth, user_node set) by
/// the pruned expansion of Sec. IV-C. `score` is non-null iff PPR pruning
/// applies. Returns the checkpoint's status on cancellation.
Status ExpandLayers(const Ckg& ckg, const CompGraphOptions& options,
                    const NodeScoreFn* score, Rng* rng,
                    const std::vector<ExcludedPair>& excluded,
                    const ExecContext& ctx, UserCompGraph* graph) {
  const int64_t k_limit = options.max_edges_per_node;
  const bool prune = k_limit > 0 && options.prune != PruneMode::kNone;

  std::vector<uint64_t> excluded_pairs;
  excluded_pairs.reserve(excluded.size() * 2);
  for (const auto& pair : excluded) {
    excluded_pairs.push_back(PackPair(pair.user_node, pair.item_node));
    excluded_pairs.push_back(PackPair(pair.item_node, pair.user_node));
  }
  std::sort(excluded_pairs.begin(), excluded_pairs.end());
  const int64_t interact = Ckg::kInteractRelation;
  const int64_t interact_inv = ckg.InverseRelation(interact);
  auto is_excluded = [&](int64_t src, int64_t rel, int64_t dst) {
    if (excluded_pairs.empty()) return false;
    if (rel != interact && rel != interact_inv) return false;
    return std::binary_search(excluded_pairs.begin(), excluded_pairs.end(),
                              PackPair(src, dst));
  };

  BuildScratch& scratch = BuildScratch::ForThisThread();
  const auto num_nodes = static_cast<size_t>(ckg.num_nodes());
  if (scratch.index_plus_one.size() < num_nodes) {
    scratch.index_plus_one.resize(num_nodes);
  }
  if (score != nullptr && scratch.score.size() < num_nodes) {
    scratch.score.resize(num_nodes);
  }
  ScratchGuard guard(scratch);
  if (score != nullptr) guard.Scatter(*score, ckg.num_nodes());
  const real_t* node_score = scratch.score.data();
  uint32_t* index_plus_one = scratch.index_plus_one.data();

  const std::vector<int64_t> root = {graph->user_node};
  const int64_t self_rel = ckg.self_loop_relation();
  std::vector<Candidate> candidates;
  for (int32_t l = 0; l < options.depth; ++l) {
    const std::vector<int64_t>& prev_nodes =
        l == 0 ? root : graph->layers[l - 1].nodes;
    CompLayer& layer = graph->layers[l];
    guard.IndexLayer(&layer.nodes);
    auto index_of = [&](int64_t node) -> int64_t {
      uint32_t& slot = index_plus_one[node];
      if (slot == 0) {
        layer.nodes.push_back(node);
        slot = static_cast<uint32_t>(layer.nodes.size());
      }
      return slot - 1;
    };

    for (size_t si = 0; si < prev_nodes.size(); ++si) {
      // One cancellation checkpoint per expanded head node: layers grow
      // multiplicatively, so this bounds the work wasted past a deadline to
      // a single node's out-edge scan.
      KUC_RETURN_IF_ERROR(ctx.Check("subgraph"));
      const int64_t src = prev_nodes[si];
      if (options.self_loops) {
        layer.src_index.push_back(static_cast<int64_t>(si));
        layer.rel.push_back(self_rel);
        layer.dst_index.push_back(index_of(src));
      }
      const auto rels = ckg.OutRelations(src);
      const auto dsts = ckg.OutNeighbors(src);
      candidates.clear();
      for (size_t e = 0; e < dsts.size(); ++e) {
        if (is_excluded(src, rels[e], dsts[e])) continue;
        candidates.push_back({0.0, dsts[e], rels[e]});
      }
      if (prune && static_cast<int64_t>(candidates.size()) > k_limit) {
        if (options.prune == PruneMode::kPpr) {
          for (Candidate& c : candidates) c.score = node_score[c.dst];
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
  }
  return Status::Ok();
}

}  // namespace

real_t NodeScoreFn::operator()(int64_t node) const {
  if (node < 0) return 0.0;
  const auto it = std::lower_bound(nodes.begin(), nodes.end(),
                                   static_cast<uint64_t>(node));
  return it != nodes.end() && *it == static_cast<uint64_t>(node)
             ? scores[static_cast<size_t>(it - nodes.begin())]
             : 0.0;
}

void NodeScoreFn::ReadRange(int64_t first, std::span<real_t> out) const {
  std::fill(out.begin(), out.end(), 0.0);
  if (first < 0) return;
  const auto begin = static_cast<uint64_t>(first);
  const uint64_t end = begin + out.size();
  for (auto it = std::lower_bound(nodes.begin(), nodes.end(), begin);
       it != nodes.end() && *it < end; ++it) {
    out[*it - begin] = scores[static_cast<size_t>(it - nodes.begin())];
  }
}

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

Status CompGraphBuilder::TryBuild(int64_t user_node, const NodeScoreFn* score,
                                  Rng* rng,
                                  const std::vector<ExcludedPair>& excluded,
                                  const ExecContext& ctx,
                                  UserCompGraph* out) const {
  KUC_TRACE_SPAN("compgraph.build");
  KUC_CHECK_GE(user_node, 0);
  KUC_CHECK_LT(user_node, ckg_->num_nodes());
  const bool prune =
      options_.max_edges_per_node > 0 && options_.prune != PruneMode::kNone;
  const bool by_ppr = prune && options_.prune == PruneMode::kPpr;
  if (by_ppr) {
    KUC_CHECK(score != nullptr) << "PPR pruning requires a score function";
  }
  if (prune && options_.prune == PruneMode::kRandom) {
    KUC_CHECK(rng != nullptr) << "random pruning requires an rng";
  }

  UserCompGraph& graph = *out;
  graph = UserCompGraph();
  graph.user_node = user_node;
  graph.layers.resize(options_.depth);
  const Status status = ExpandLayers(*ckg_, options_, by_ppr ? score : nullptr,
                                     rng, excluded, ctx, &graph);
  if (!status.ok()) {
    graph = UserCompGraph();
    return status;
  }
  const std::vector<int64_t>& last = graph.layers.back().nodes;
  graph.final_index.reserve(last.size());
  for (size_t i = 0; i < last.size(); ++i) {
    graph.final_index.emplace(last[i], static_cast<int64_t>(i));
  }
  return Status::Ok();
}

namespace compgraph_internal {

bool ThisThreadScratchIsClear() {
  const BuildScratch& scratch = BuildScratch::ForThisThread();
  return std::all_of(scratch.score.begin(), scratch.score.end(),
                     [](real_t x) { return x == 0.0; }) &&
         std::all_of(scratch.index_plus_one.begin(),
                     scratch.index_plus_one.end(),
                     [](uint32_t x) { return x == 0; });
}

}  // namespace compgraph_internal

}  // namespace kucnet
