#include "ppr/forward_push.h"

#include <algorithm>
#include <array>
#include <limits>

#include "util/logging.h"

namespace kucnet::ppr_internal {

PushScratch& PushScratch::ForThisThread() {
  thread_local PushScratch scratch;
  return scratch;
}

void PushScratch::Begin(int64_t num_nodes, real_t epsilon,
                        const PprMap* estimate, const PprMap* residual) {
  KUC_CHECK_GE(num_nodes, 0);
  KUC_CHECK_LE(num_nodes, std::numeric_limits<uint32_t>::max());
  if (static_cast<int64_t>(slots_.size()) < num_nodes) {
    slots_.resize(num_nodes);
    ring_.resize(num_nodes + 1);
    // A node enters each list at most once per push: never reallocates.
    touched_.reserve(num_nodes);
    estimated_.reserve(num_nodes);
  }
  if (++epoch_ == 0) {
    // Wrapped: a 2^32-pushes-old stamp would read as live. Restart the
    // stamps below the first epoch.
    for (PushSlot& s : slots_) s.stamp = 0;
    epoch_ = 1;
  }
  epsilon_ = epsilon;
  capacity_ = num_nodes + 1;
  head_ = tail_ = queued_ = 0;
  touched_.clear();
  estimated_.clear();
  estimate_src_ = estimate;
  residual_src_ = residual;
}

void PushScratch::WriteEstimates(PprMap* out) const {
  for (const uint32_t v : estimated_) (*out)[v] = slots_[v].estimate;
}

void PushScratch::WriteSortedRun(std::vector<NodeScore>* run) const {
  run->clear();
  for (const uint32_t v : estimated_) run->push_back({v, slots_[v].estimate});
  std::vector<NodeScore> tmp;
  SortByNode(run, &tmp);
}

void SortByNode(std::vector<NodeScore>* run, std::vector<NodeScore>* tmp) {
  constexpr int kBits = 11;
  constexpr uint32_t kMask = (1u << kBits) - 1;
  if (run->size() < 2) return;  // also skips the counting for empty runs
  uint32_t any_set = 0, all_set = ~0u;
  for (const NodeScore& e : *run) {
    any_set |= e.node;
    all_set &= e.node;
  }
  tmp->resize(run->size());
  std::array<uint32_t, kMask + 2> count;
  for (int shift = 0; shift < 32; shift += kBits) {
    // Every node has the same digit here: the pass would not move anything.
    if ((((any_set ^ all_set) >> shift) & kMask) == 0) continue;
    std::fill(count.begin(), count.end(), 0);
    auto digit = [&](const NodeScore& e) { return (e.node >> shift) & kMask; };
    for (const NodeScore& e : *run) ++count[digit(e) + 1];
    for (size_t d = 1; d < count.size(); ++d) count[d] += count[d - 1];
    for (const NodeScore& e : *run) (*tmp)[count[digit(e)]++] = e;
    run->swap(*tmp);
  }
}

void PushScratch::WriteResiduals(PprMap* out) const {
  for (const uint32_t v : touched_) (*out)[v] = slots_[v].residual;
}

}  // namespace kucnet::ppr_internal
