#include "ppr/ppr.h"

#include <deque>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/clock.h"
#include "util/finite.h"
#include "util/logging.h"

namespace kucnet {

std::vector<real_t> PprPowerIteration(const SparseMatrix& column_normalized_adj,
                                      int64_t source, real_t alpha,
                                      int iterations) {
  const int64_t n = column_normalized_adj.rows();
  KUC_CHECK_EQ(column_normalized_adj.cols(), n);
  KUC_CHECK_GE(source, 0);
  KUC_CHECK_LT(source, n);
  std::vector<real_t> r(n, 0.0);
  r[source] = 1.0;
  for (int it = 0; it < iterations; ++it) {
    std::vector<real_t> next = column_normalized_adj.Multiply(r);
    for (auto& x : next) x *= (1.0 - alpha);
    next[source] += alpha;
    r = std::move(next);
  }
  return r;
}

std::unordered_map<int64_t, real_t> PprForwardPush(const Ckg& ckg,
                                                   int64_t source, real_t alpha,
                                                   real_t epsilon) {
  std::unordered_map<int64_t, real_t> estimate;
  const Status status =
      TryPprForwardPush(ckg, source, alpha, epsilon, ExecContext(), &estimate);
  KUC_CHECK(status.ok()) << status.message();
  return estimate;
}

Status TryPprForwardPush(const Ckg& ckg, int64_t source, real_t alpha,
                         real_t epsilon, const ExecContext& ctx,
                         std::unordered_map<int64_t, real_t>* out) {
  KUC_TRACE_SPAN("ppr.push");
  KUC_OBS_COUNT("ppr.push_calls", 1);
  KUC_CHECK_GE(source, 0);
  KUC_CHECK_LT(source, ckg.num_nodes());
  std::unordered_map<int64_t, real_t>& estimate = *out;
  estimate.clear();
  std::unordered_map<int64_t, real_t> residual;
  residual[source] = 1.0;
  std::deque<int64_t> queue = {source};
  std::unordered_map<int64_t, bool> queued;
  queued[source] = true;

  int64_t pops = 0;
  while (!queue.empty()) {
    if (pops++ % kPprCheckEveryPushes == 0) {
      const Status status = ctx.Check("ppr");
      if (!status.ok()) {
        estimate.clear();
        return status;
      }
    }
    const int64_t v = queue.front();
    queue.pop_front();
    queued[v] = false;
    KUC_OBS_COUNT("ppr.push_pops", 1);
    const int64_t deg = ckg.OutDegree(v);
    real_t& rv = residual[v];
    if (deg == 0) {
      // Dangling node: all residual mass becomes estimate (self-restart).
      estimate[v] += rv;
      rv = 0.0;
      continue;
    }
    if (rv < epsilon * static_cast<real_t>(deg)) continue;
    const real_t mass = rv;
    estimate[v] += alpha * mass;
    rv = 0.0;
    const real_t push = (1.0 - alpha) * mass / static_cast<real_t>(deg);
    for (const int64_t w : ckg.OutNeighbors(v)) {
      real_t& rw = residual[w];
      rw += push;
      if (rw >= epsilon * static_cast<real_t>(ckg.OutDegree(w)) &&
          !queued[w]) {
        queued[w] = true;
        queue.push_back(w);
      }
    }
  }
  // PPR boundary: estimates feed pruning and the serving heuristic tier; a
  // non-finite entry (degenerate alpha/epsilon, corrupt graph weights) must
  // fail here rather than skew rankings downstream.
  if (FiniteChecksEnabled()) {
    for (const auto& [node, value] : estimate) {
      KUC_CHECK(std::isfinite(value))
          << "ppr.estimate: non-finite value " << value << " at node " << node;
    }
  }
  return Status::Ok();
}

PprTable PprTable::Compute(const Ckg& ckg, PprTableOptions options,
                           ThreadPool* pool) {
  KUC_TRACE_SPAN("ppr.table_compute");
  Stopwatch timer;
  PprTable table;
  table.vectors_.resize(ckg.num_users());
  auto compute_one = [&](int64_t user) {
    table.vectors_[user] =
        PprForwardPush(ckg, ckg.UserNode(user), options.alpha, options.epsilon);
  };
  if (pool != nullptr) {
    ParallelFor(*pool, ckg.num_users(), compute_one);
  } else {
    for (int64_t u = 0; u < ckg.num_users(); ++u) compute_one(u);
  }
  table.compute_seconds_ = timer.Seconds();
  return table;
}

PprTable PprTable::FromVectors(
    std::vector<std::unordered_map<int64_t, real_t>> vectors) {
  PprTable table;
  table.vectors_ = std::move(vectors);
  return table;
}

real_t PprTable::Score(int64_t user, int64_t node) const {
  const auto& vec = Vector(user);
  const auto it = vec.find(node);
  return it == vec.end() ? 0.0 : it->second;
}

const std::unordered_map<int64_t, real_t>& PprTable::Vector(
    int64_t user) const {
  KUC_CHECK_GE(user, 0);
  KUC_CHECK_LT(user, num_users());
  return vectors_[user];
}

NodeScoreFn PprTable::ScoreFn(int64_t user) const {
  const auto* vec = &Vector(user);
  return [vec](int64_t node) -> real_t {
    const auto it = vec->find(node);
    return it == vec->end() ? 0.0 : it->second;
  };
}

}  // namespace kucnet
