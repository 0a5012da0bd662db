#include "ppr/ppr.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "ppr/forward_push.h"
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

namespace {

/// Users pushed per round of PprTable::Compute: their runs are staged, then
/// appended to the arena in user order, so staging holds one round's runs.
constexpr int64_t kComputeRoundUsers = 64;

/// Runs a unit-source push from `source` on the calling thread's scratch
/// (PushScratch::ForThisThread()), which then holds the estimates.
Status PushFromSource(const Ckg& ckg, int64_t source, real_t alpha,
                      real_t epsilon, const ExecContext& ctx) {
  KUC_TRACE_SPAN("ppr.push");
  KUC_OBS_COUNT("ppr.push_calls", 1);
  KUC_CHECK_GE(source, 0);
  KUC_CHECK_LT(source, ckg.num_nodes());
  ppr_internal::PushScratch& scratch =
      ppr_internal::PushScratch::ForThisThread();
  scratch.Begin(ckg.num_nodes(), epsilon, nullptr, nullptr);
  ppr_internal::PushSlot& seed = scratch.Touch(ckg, source);
  seed.residual = 1.0;
  scratch.Enqueue(source, seed);
  ppr_internal::PushCounts counts;
  const Status status = ppr_internal::RunForwardPush</*kSigned=*/false>(
      ckg, alpha, ctx, scratch, &counts);
  KUC_OBS_COUNT("ppr.push_pops", counts.pops);
  if (!status.ok()) return status;
  // PPR boundary: estimates feed pruning and the serving heuristic tier; a
  // non-finite entry (degenerate alpha/epsilon, corrupt graph weights) must
  // fail here rather than skew rankings downstream.
  if (FiniteChecksEnabled()) {
    for (const uint32_t node : scratch.estimated()) {
      const real_t value = scratch.slot(node).estimate;
      KUC_CHECK(std::isfinite(value))
          << "ppr.estimate: non-finite value " << value << " at node " << node;
    }
  }
  return Status::Ok();
}

/// Appends a sorted run to the arena's node and score arrays.
void AppendRun(const std::vector<ppr_internal::NodeScore>& run,
               std::vector<uint32_t>* nodes, std::vector<real_t>* scores) {
  for (const auto& [node, score] : run) {
    nodes->push_back(node);
    scores->push_back(score);
  }
}

}  // namespace

Status TryPprForwardPush(const Ckg& ckg, int64_t source, real_t alpha,
                         real_t epsilon, const ExecContext& ctx,
                         std::unordered_map<int64_t, real_t>* out) {
  out->clear();
  KUC_RETURN_IF_ERROR(PushFromSource(ckg, source, alpha, epsilon, ctx));
  ppr_internal::PushScratch::ForThisThread().WriteEstimates(out);
  return Status::Ok();
}

PprTable PprTable::Compute(const Ckg& ckg, PprTableOptions options,
                           ThreadPool* pool) {
  KUC_TRACE_SPAN("ppr.table_compute");
  Stopwatch timer;
  const int64_t num_users = ckg.num_users();
  std::vector<std::vector<ppr_internal::NodeScore>> staged(
      std::min(num_users, kComputeRoundUsers));
  std::vector<uint64_t> offsets = {0};
  offsets.reserve(num_users + 1);
  std::vector<uint32_t> nodes;
  std::vector<real_t> scores;
  for (int64_t first = 0; first < num_users; first += kComputeRoundUsers) {
    const int64_t count = std::min(kComputeRoundUsers, num_users - first);
    auto push_one = [&](int64_t k) {
      KUC_CHECK_OK(PushFromSource(ckg, ckg.UserNode(first + k),
                                  options.alpha, options.epsilon,
                                  ExecContext()));
      ppr_internal::PushScratch::ForThisThread().WriteSortedRun(&staged[k]);
    };
    if (pool != nullptr) {
      ParallelFor(*pool, count, push_one);
    } else {
      for (int64_t k = 0; k < count; ++k) push_one(k);
    }
    for (int64_t k = 0; k < count; ++k) {
      AppendRun(staged[k], &nodes, &scores);
      offsets.push_back(nodes.size());
    }
  }
  PprTable table;
  table.offsets_ = std::move(offsets);
  table.nodes_ = std::move(nodes);
  table.scores_ = std::move(scores);
  table.nodes_.shrink_to_fit();
  table.scores_.shrink_to_fit();
  table.compute_seconds_ = timer.Seconds();
  return table;
}

PprTable PprTable::FromVectors(
    std::vector<std::unordered_map<int64_t, real_t>> vectors) {
  size_t entries = 0;
  for (const auto& vec : vectors) entries += vec.size();
  PprTable table;
  table.offsets_.clear();
  table.offsets_.reserve(vectors.size() + 1);
  table.offsets_.push_back(0);
  table.nodes_.reserve(entries);
  table.scores_.reserve(entries);
  std::vector<ppr_internal::NodeScore> run, tmp;
  for (auto& vec : vectors) {
    run.clear();
    for (const auto& [node, score] : vec) {
      KUC_CHECK_GE(node, 0);
      KUC_CHECK_LE(node, std::numeric_limits<uint32_t>::max());
      run.push_back({static_cast<uint32_t>(node), score});
    }
    ppr_internal::SortByNode(&run, &tmp);
    AppendRun(run, &table.nodes_, &table.scores_);
    table.offsets_.push_back(table.nodes_.size());
    std::unordered_map<int64_t, real_t>().swap(vec);  // free as we go
  }
  return table;
}

real_t PprTable::Score(int64_t user, int64_t node) const {
  return ScoreFn(user)(node);
}

NodeScoreFn PprTable::ScoreFn(int64_t user) const {
  KUC_CHECK_GE(user, 0);
  KUC_CHECK_LT(user, num_users());
  const size_t begin = offsets_[user];
  const size_t size = offsets_[user + 1] - begin;
  return {std::span<const uint32_t>(nodes_).subspan(begin, size),
          std::span<const real_t>(scores_).subspan(begin, size)};
}

int64_t PprTable::MemoryBytes() const {
  return static_cast<int64_t>(offsets_.capacity() * sizeof(uint64_t) +
                              nodes_.capacity() * sizeof(uint32_t) +
                              scores_.capacity() * sizeof(real_t));
}

}  // namespace kucnet
