#ifndef KUCNET_GRAPH_DYNAMIC_CKG_H_
#define KUCNET_GRAPH_DYNAMIC_CKG_H_

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/ckg.h"

/// \file
/// Append-only dynamic view over an immutable CSR graph.
///
/// The streaming scenario needs online edge insertions, but the CSR layout
/// of Ckg is immutable by design (and everything downstream — PPR push,
/// CompGraph extraction — iterates its spans). DynamicCkg keeps the
/// base graph untouched and stores inserted edges in a per-node overflow
/// list, so:
///
///   - iteration order is deterministic: base CSR entries first, then
///     overflow edges in insertion order (the incremental PPR repair in
///     ppr/dynamic_ppr.h depends on this to reconstruct the exact neighbor
///     multiset that existed before each insertion);
///   - node-id ranges are fixed at construction: updates reference existing
///     users/items/entities only (new-node onboarding is a training-time
///     event, not a streaming one);
///   - edges are never deleted, so degrees only grow — the invariant the
///     dangling-node repair rule relies on.
///
/// Insertions are deduplicated against base + overflow with the same exact
/// (src, rel, dst) identity Ckg::Build uses, so Rebuild() — a from-scratch
/// Build over initial + appended inputs — agrees with the overlay on
/// every degree and neighbor multiset. Rebuild is the recompute oracle's
/// entry point; it is deliberately O(edges).

namespace kucnet {

class DynamicCkg {
 public:
  /// Mirrors Ckg::Build; the initial lists seed the immutable base.
  DynamicCkg(int64_t num_users, int64_t num_items, int64_t num_kg_nodes,
             int64_t num_kg_relations,
             std::vector<std::array<int64_t, 2>> interactions,
             std::vector<std::array<int64_t, 3>> kg_triplets,
             std::vector<std::array<int64_t, 3>> user_triplets = {});

  // ---- Sizes / id mapping (fixed at construction) ---------------------------

  const Ckg& base() const { return base_; }
  int64_t num_users() const { return base_.num_users(); }
  int64_t num_items() const { return base_.num_items(); }
  int64_t num_kg_nodes() const { return base_.num_kg_nodes(); }
  int64_t num_nodes() const { return base_.num_nodes(); }
  int64_t num_kg_relations() const { return base_.num_kg_relations(); }
  int64_t num_base_relations() const { return base_.num_base_relations(); }
  int64_t num_edges() const { return base_.num_edges() + overflow_edges_; }
  int64_t num_overflow_edges() const { return overflow_edges_; }
  int64_t UserNode(int64_t user) const { return base_.UserNode(user); }
  int64_t ItemNode(int64_t item) const { return base_.ItemNode(item); }
  int64_t KgNode(int64_t kg_id) const { return base_.KgNode(kg_id); }

  // ---- Online insertion -----------------------------------------------------

  /// Inserts a (user, item) interaction — both directed edges, exactly as
  /// Ckg::Build lays them out. Returns false (and appends nothing) if the
  /// interaction already exists. When `inserted` is non-null the directed
  /// edges actually added are appended to it, in insertion order.
  bool AddInteraction(int64_t user, int64_t item,
                      std::vector<Edge>* inserted = nullptr);

  /// Inserts a KG triplet (head, rel, tail) in KG-local ids, both
  /// directions. Same dedup/report contract as AddInteraction.
  bool AddKgTriplet(int64_t head, int64_t rel, int64_t tail,
                    std::vector<Edge>* inserted = nullptr);

  // ---- Topology (base + overflow) -------------------------------------------

  int64_t OutDegree(int64_t node) const {
    return base_.OutDegree(node) +
           static_cast<int64_t>(overflow_[node].size());
  }

  /// Visits out-edges of `node` as fn(rel, dst): base CSR entries in CSR
  /// order, then overflow edges in insertion order.
  template <typename Fn>
  void ForEachOutNeighbor(int64_t node, Fn&& fn) const {
    ForEachOutNeighborPrefix(node, OutDegree(node), fn);
  }

  /// Visits only the first `count` out-edges in the canonical order above —
  /// the exact neighbor multiset `node` had when its degree was `count`.
  template <typename Fn>
  void ForEachOutNeighborPrefix(int64_t node, int64_t count, Fn&& fn) const {
    const auto rels = base_.OutRelations(node);
    const auto dsts = base_.OutNeighbors(node);
    const int64_t from_base =
        count < static_cast<int64_t>(dsts.size())
            ? count
            : static_cast<int64_t>(dsts.size());
    for (int64_t k = 0; k < from_base; ++k) {
      fn(static_cast<int64_t>(rels[k]), static_cast<int64_t>(dsts[k]));
    }
    const int64_t from_overflow = count - from_base;
    for (int64_t k = 0; k < from_overflow; ++k) {
      const auto& [rel, dst] = overflow_[node][k];
      fn(rel, dst);
    }
  }

  /// Exact directed-edge membership (base via binary search on the sorted
  /// CSR row, overflow via linear scan).
  bool HasEdge(int64_t src, int64_t rel, int64_t dst) const;

  /// From-scratch Ckg::Build over initial + appended inputs. The recompute
  /// oracle's graph; agrees with this overlay on every degree and neighbor
  /// multiset (though not iteration order — CSR rows are re-sorted).
  Ckg Rebuild() const;

 private:
  // One directed labeled edge in a node's overflow list.
  using OverflowEdge = std::pair<int64_t, int64_t>;  // (rel, dst)

  void InsertDirected(int64_t src, int64_t rel, int64_t dst,
                      std::vector<Edge>* inserted);

  Ckg base_;
  std::vector<std::vector<OverflowEdge>> overflow_;  // indexed by node
  int64_t overflow_edges_ = 0;
  // Inputs accumulated for Rebuild().
  std::vector<std::array<int64_t, 2>> interactions_;
  std::vector<std::array<int64_t, 3>> kg_triplets_;
  std::vector<std::array<int64_t, 3>> user_triplets_;
};

}  // namespace kucnet

#endif  // KUCNET_GRAPH_DYNAMIC_CKG_H_
