#ifndef KUCNET_PPR_PPR_H_
#define KUCNET_PPR_PPR_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "graph/ckg.h"
#include "graph/compgraph.h"
#include "tensor/sparse.h"
#include "util/fault.h"
#include "util/status.h"
#include "util/thread_pool.h"

/// \file
/// Personalized PageRank (Sec. IV-C2).
///
/// The paper computes PPR scores r_u for every user as a preprocessing step
/// (Eq. 13, ~20 power iterations, restart alpha = 0.15) and uses them to keep
/// the top-K out-edges per head node. We provide the paper's dense power
/// iteration plus the classic Andersen-Chung-Lang forward-push approximation,
/// which is what `PprTable` uses at scale; the two agree to the push's
/// residual bound (verified in tests/ppr_test.cc). Every push runs on the
/// dense per-thread kernel in ppr/forward_push.h (up to 44 B per graph node
/// per pushing thread, kept for the thread's lifetime).

namespace kucnet {

/// Dense PPR by iterating r <- (1-alpha) M r + alpha e_source (Eq. 13).
/// `column_normalized_adj` is M: the column-normalized adjacency.
std::vector<real_t> PprPowerIteration(const SparseMatrix& column_normalized_adj,
                                      int64_t source, real_t alpha = 0.15,
                                      int iterations = 20);

/// Sparse PPR by forward push with per-node residual threshold
/// `epsilon * degree(v)`. Returns only nonzero estimates. The estimate
/// undershoots the true PPR by at most epsilon * degree summed over nodes.
std::unordered_map<int64_t, real_t> PprForwardPush(const Ckg& ckg,
                                                   int64_t source,
                                                   real_t alpha = 0.15,
                                                   real_t epsilon = 1e-6);

/// Cancellable forward push: hits the `ctx` checkpoint (stage "ppr") every
/// `kPprCheckEveryPushes` queue pops, so a request deadline or injected
/// fault abandons the walk mid-push instead of running to convergence. On
/// cancellation `*out` is cleared and the checkpoint's status is returned.
Status TryPprForwardPush(const Ckg& ckg, int64_t source, real_t alpha,
                         real_t epsilon, const ExecContext& ctx,
                         std::unordered_map<int64_t, real_t>* out);

/// Push iterations between cancellation checkpoints in TryPprForwardPush.
inline constexpr int64_t kPprCheckEveryPushes = 64;

/// Options for PprTable::Compute.
struct PprTableOptions {
  real_t alpha = 0.15;
  real_t epsilon = 1e-6;
};

/// Precomputed PPR vectors for every user (the paper's preprocessing stage;
/// Table VI reports its cost separately from training/inference).
///
/// One arena holds every vector: user u's entries are positions
/// [offsets[u], offsets[u + 1]) of a node array and a parallel score array,
/// sorted by node id. Memory is exactly 8 B × (users + 1) for the offsets
/// plus 12 B per entry (u32 node, real_t score); see MemoryBytes().
/// Extraction never searches a run: CompGraphBuilder scatters it into a
/// dense per-thread array, and item scores are read in one pass over the
/// run's item-node range (NodeScoreFn::ReadRange).
class PprTable {
 public:
  /// Computes vectors for all users, in parallel when a pool is given. Each
  /// push's estimates go from the push scratch into the arena as a sorted
  /// run; the result does not depend on the pool.
  static PprTable Compute(const Ckg& ckg,
                          PprTableOptions options = PprTableOptions(),
                          ThreadPool* pool = nullptr);

  /// Wraps externally-computed per-user vectors (vector index = user id),
  /// converting each map into a sorted run. Node ids must fit in 32 bits.
  static PprTable FromVectors(
      std::vector<std::unordered_map<int64_t, real_t>> vectors);

  /// PPR score of `node` from `user`'s perspective (0 if unranked), by a
  /// binary search over the user's run.
  real_t Score(int64_t user, int64_t node) const;

  /// The user's run, for CompGraphBuilder pruning and range reads.
  NodeScoreFn ScoreFn(int64_t user) const;

  int64_t num_users() const {
    return static_cast<int64_t>(offsets_.size()) - 1;
  }
  /// Entries over all users.
  int64_t num_entries() const { return static_cast<int64_t>(nodes_.size()); }

  /// Bytes the arena holds: 8·(num_users + 1) + 12·num_entries, exactly
  /// (the arrays are allocated at their final size).
  int64_t MemoryBytes() const;

  /// Wall-clock seconds spent in Compute() (Table VI's "PPR" row).
  double compute_seconds() const { return compute_seconds_; }

 private:
  std::vector<uint64_t> offsets_ = {0};
  std::vector<uint32_t> nodes_;
  std::vector<real_t> scores_;
  double compute_seconds_ = 0.0;
};

}  // namespace kucnet

#endif  // KUCNET_PPR_PPR_H_
