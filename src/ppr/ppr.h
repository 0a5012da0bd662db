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
/// residual bound (verified in tests/ppr_test.cc).

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
class PprTable {
 public:
  /// Computes vectors for all users, in parallel when a pool is given.
  static PprTable Compute(const Ckg& ckg,
                          PprTableOptions options = PprTableOptions(),
                          ThreadPool* pool = nullptr);

  /// Wraps externally-computed per-user vectors (vector index = user id).
  /// The streaming path uses this to hand incrementally-repaired estimates
  /// (ppr/dynamic_ppr.h) to components that consume a PprTable.
  static PprTable FromVectors(
      std::vector<std::unordered_map<int64_t, real_t>> vectors);

  /// PPR score of `node` from `user`'s perspective (0 if unranked).
  real_t Score(int64_t user, int64_t node) const;

  /// The sparse score vector of a user.
  const std::unordered_map<int64_t, real_t>& Vector(int64_t user) const;

  /// Adapter for CompGraphBuilder pruning.
  NodeScoreFn ScoreFn(int64_t user) const;

  int64_t num_users() const { return static_cast<int64_t>(vectors_.size()); }

  /// Wall-clock seconds spent in Compute() (Table VI's "PPR" row).
  double compute_seconds() const { return compute_seconds_; }

 private:
  std::vector<std::unordered_map<int64_t, real_t>> vectors_;
  double compute_seconds_ = 0.0;
};

}  // namespace kucnet

#endif  // KUCNET_PPR_PPR_H_
