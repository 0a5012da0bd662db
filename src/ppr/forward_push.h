#ifndef KUCNET_PPR_FORWARD_PUSH_H_
#define KUCNET_PPR_FORWARD_PUSH_H_

#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "graph/ckg.h"
#include "graph/dynamic_ckg.h"
#include "ppr/ppr.h"
#include "util/fault.h"
#include "util/status.h"

/// \file
/// The forward-push loop behind every PPR vector in the library (internal to
/// src/ppr/). TryPprForwardPush, and through it PprTable::Compute, pushes
/// non-negative residuals from a unit source; DynamicPprTable::Compute and
/// its repair push signed residuals over a DynamicCkg.
///
/// All push state lives in a per-thread dense scratch reused across
/// sources:
///   * one PushSlot per node {residual, estimate, threshold, stamp, flags},
///     live only
///     while its stamp equals the scratch's epoch, so opening a push is an
///     epoch bump instead of a clear;
///   * a ring FIFO of num_nodes + 1 entries — a node is never queued twice,
///     so at most num_nodes wait, the entry at the tail is always free and
///     the pop order is plain FIFO;
///   * two first-touch lists (residual touches, first pushes) that replay the
///     hash-map insertion order of a map-based push, so the maps written back
///     get the same keys, the same bits and the same iteration order.
///
/// Memory: 36 B per node (32 B slot + 4 B ring entry) plus 4 B per node for
/// each first-touch list — at most 44 B × num_nodes (+4 B) per thread that
/// has pushed, held for the thread's lifetime at the largest graph it has
/// pushed on.

namespace kucnet::ppr_internal {

using PprMap = std::unordered_map<int64_t, real_t>;

/// One entry of a PprTable run.
struct NodeScore {
  uint32_t node;
  real_t score;
};

/// Sorts `run` by node id (ids must be distinct): a least-significant-digit
/// radix sort, 11 bits a pass, that skips the passes in which every node
/// has the same digit. `tmp` is scratch of any size.
void SortByNode(std::vector<NodeScore>* run, std::vector<NodeScore>* tmp);

struct PushSlot {
  real_t residual = 0.0;
  real_t estimate = 0.0;
  real_t threshold = 0.0;  ///< epsilon * OutDegree, set on first touch
  uint32_t stamp = 0;      ///< live iff equal to the scratch's epoch
  uint8_t queued = 0;
  uint8_t estimated = 0;  ///< estimate loaded and listed in first-push order
};

struct PushCounts {
  int64_t pops = 0;    ///< queue pops
  int64_t pushes = 0;  ///< pops that spread mass to neighbors
};

class PushScratch {
 public:
  /// The calling thread's scratch.
  static PushScratch& ForThisThread();

  /// Opens a push with residual threshold `epsilon` per out-edge over nodes
  /// [0, num_nodes): grows the arrays if needed, bumps the epoch (every slot
  /// of an earlier push goes stale at once) and empties the queue and the
  /// first-touch lists. Slots load their residual and estimate from
  /// `residual` / `estimate` on first touch; a null map reads as all zero.
  void Begin(int64_t num_nodes, real_t epsilon, const PprMap* estimate,
             const PprMap* residual);

  /// The live slot of node `v` of `graph`: on the first touch it loads the
  /// residual and caches the push threshold epsilon * OutDegree(v).
  template <typename Graph>
  PushSlot& Touch(const Graph& graph, int64_t v) {
    PushSlot& s = slots_[v];
    if (s.stamp != epoch_) [[unlikely]] {
      FirstTouch(graph.OutDegree(v), v, s);
    }
    return s;
  }

  /// The estimate of live slot `s` (node `v`), loaded on its first push.
  real_t& Estimate(int64_t v, PushSlot& s) {
    if (!s.estimated) {
      s.estimated = 1;
      s.estimate = Load(estimate_src_, v);
      estimated_.push_back(static_cast<uint32_t>(v));
    }
    return s.estimate;
  }

  /// Queues live slot `s` (node `v`) when `when` holds and it is not queued
  /// yet, without a branch: the ring entry at the tail is always free (the
  /// ring has one more entry than there are nodes), so it is written
  /// unconditionally.
  void Enqueue(int64_t v, PushSlot& s, bool when = true) {
    const uint8_t add = static_cast<uint8_t>(when) & (s.queued ^ 1);
    ring_[tail_] = static_cast<uint32_t>(v);
    tail_ += add;
    tail_ = tail_ == capacity_ ? 0 : tail_;
    queued_ += add;
    s.queued |= add;
  }

  bool QueueEmpty() const { return queued_ == 0; }

  /// Pops the queue head and returns its (live) slot in `*slot`.
  int64_t Pop(PushSlot** slot) {
    const int64_t v = ring_[head_];
    if (++head_ == capacity_) head_ = 0;
    --queued_;
    *slot = &slots_[v];
    (*slot)->queued = 0;
    return v;
  }

  /// Writes every pushed node's estimate into `out`, in first-push order.
  void WriteEstimates(PprMap* out) const;
  /// Replaces `*run` with every pushed node and its estimate, sorted by
  /// node id: the run a PprTable stores.
  void WriteSortedRun(std::vector<NodeScore>* run) const;
  /// Writes every touched node's residual (zeros included) into `out`, in
  /// first-touch order. Only pushes begun with a residual map record their
  /// touches; a fresh push discards its residual.
  void WriteResiduals(PprMap* out) const;

  /// Nodes pushed at least once, in first-push order.
  const std::vector<uint32_t>& estimated() const { return estimated_; }
  const PushSlot& slot(int64_t v) const { return slots_[v]; }

 private:
  void FirstTouch(int64_t degree, int64_t v, PushSlot& s) {
    s = PushSlot{Load(residual_src_, v), 0.0,
                 epsilon_ * static_cast<real_t>(degree), epoch_, 0, 0};
    if (residual_src_ != nullptr) {
      touched_.push_back(static_cast<uint32_t>(v));
    }
  }

  static real_t Load(const PprMap* map, int64_t v) {
    if (map == nullptr) return 0.0;
    const auto it = map->find(v);
    return it == map->end() ? 0.0 : it->second;
  }

  std::vector<PushSlot> slots_;
  std::vector<uint32_t> ring_;
  std::vector<uint32_t> touched_;
  std::vector<uint32_t> estimated_;
  uint32_t epoch_ = 0;
  real_t epsilon_ = 0.0;
  int64_t capacity_ = 0;
  int64_t head_ = 0;
  int64_t tail_ = 0;
  int64_t queued_ = 0;
  const PprMap* estimate_src_ = nullptr;
  const PprMap* residual_src_ = nullptr;
};

template <typename Fn>
void ForEachPushNeighbor(const Ckg& graph, int64_t v, Fn&& fn) {
  for (const auto w : graph.OutNeighbors(v)) fn(static_cast<int64_t>(w));
}

template <typename Fn>
void ForEachPushNeighbor(const DynamicCkg& graph, int64_t v, Fn&& fn) {
  graph.ForEachOutNeighbor(v, [&](int64_t /*rel*/, int64_t w) { fn(w); });
}

/// Runs the queued push in `scratch` to convergence: pops in FIFO order, a
/// dangling node absorbs its residual into its estimate, any other node
/// whose residual reaches its threshold (epsilon·deg) keeps alpha of it and
/// spreads the rest evenly over its out-edges. `kSigned` compares |residual|
/// against the threshold (repair pushes negative mass); otherwise the
/// residual itself. Hits `ctx.Check("ppr")` before every
/// kPprCheckEveryPushes-th pop and returns its status on cancellation,
/// leaving the scratch mid-walk.
template <bool kSigned, typename Graph>
Status RunForwardPush(const Graph& graph, real_t alpha, const ExecContext& ctx,
                      PushScratch& scratch, PushCounts* counts) {
  auto magnitude = [](real_t r) {
    if constexpr (kSigned) {
      return std::abs(r);
    } else {
      return r;
    }
  };
  Status status = Status::Ok();
  while (!scratch.QueueEmpty()) {
    if (counts->pops % kPprCheckEveryPushes == 0) {
      status = ctx.Check("ppr");
      if (!status.ok()) break;
    }
    ++counts->pops;
    PushSlot* sv = nullptr;
    const int64_t v = scratch.Pop(&sv);
    const int64_t deg = graph.OutDegree(v);
    if (deg == 0) {
      // Dangling node: all residual mass becomes estimate (self-restart).
      scratch.Estimate(v, *sv) += sv->residual;
      sv->residual = 0.0;
      continue;
    }
    if (magnitude(sv->residual) < sv->threshold) continue;
    const real_t mass = sv->residual;
    scratch.Estimate(v, *sv) += alpha * mass;
    sv->residual = 0.0;
    ++counts->pushes;
    const real_t push = (1.0 - alpha) * mass / static_cast<real_t>(deg);
    ForEachPushNeighbor(graph, v, [&](int64_t w) {
      PushSlot& sw = scratch.Touch(graph, w);
      sw.residual += push;
      scratch.Enqueue(w, sw, magnitude(sw.residual) >= sw.threshold);
    });
  }
  return status;
}

}  // namespace kucnet::ppr_internal

#endif  // KUCNET_PPR_FORWARD_PUSH_H_
