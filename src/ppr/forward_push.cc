#include "ppr/forward_push.h"

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

void PushScratch::WriteResiduals(PprMap* out) const {
  for (const uint32_t v : touched_) (*out)[v] = slots_[v].residual;
}

}  // namespace kucnet::ppr_internal
