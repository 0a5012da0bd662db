#include "serve/fleet/shard_health.h"

#include "util/logging.h"

namespace kucnet {

const char* ShardHealthName(ShardHealth state) {
  switch (state) {
    case ShardHealth::kClosed:
      return "closed";
    case ShardHealth::kOpen:
      return "open";
    case ShardHealth::kHalfOpen:
      return "half-open";
  }
  return "unknown";
}

CircuitBreaker::CircuitBreaker(CircuitBreakerOptions options,
                               const Clock* clock,
                               obs::MetricsRegistry& metrics,
                               const std::string& prefix)
    : options_(options),
      clock_(clock != nullptr ? clock : &RealClock()),
      transitions_(metrics.GetCounter(prefix + "health_transitions")),
      probes_(metrics.GetCounter(prefix + "half_open_probes")) {
  KUC_CHECK_GT(options_.failure_threshold, 0);
  KUC_CHECK_GT(options_.open_cooldown_micros, 0);
  for (int h = 0; h < kNumShardHealthStates; ++h) {
    entered_[h] = &metrics.GetCounter(
        prefix + "health." + ShardHealthName(static_cast<ShardHealth>(h)));
  }
}

void CircuitBreaker::TransitionLocked(ShardHealth next) {
  if (state_ == next) return;
  state_ = next;
  transitions_.Add();
  entered_[static_cast<int>(next)]->Add();
}

bool CircuitBreaker::AllowRequest() {
  std::lock_guard<std::mutex> lock(mu_);
  switch (state_) {
    case ShardHealth::kClosed:
      return true;
    case ShardHealth::kOpen:
      if (clock_->NowMicros() - opened_micros_ <
          options_.open_cooldown_micros) {
        return false;
      }
      TransitionLocked(ShardHealth::kHalfOpen);
      probes_.Add();
      return true;
    case ShardHealth::kHalfOpen:
      probes_.Add();
      return true;
  }
  return true;
}

void CircuitBreaker::RecordSuccess() {
  std::lock_guard<std::mutex> lock(mu_);
  consecutive_failures_ = 0;
  // A success while OPEN can only come from a racing in-flight attempt that
  // was admitted before the trip; it proves nothing about recovery, so only
  // a half-open probe closes the breaker.
  if (state_ == ShardHealth::kHalfOpen) {
    TransitionLocked(ShardHealth::kClosed);
  }
}

void CircuitBreaker::RecordFailure() {
  std::lock_guard<std::mutex> lock(mu_);
  ++consecutive_failures_;
  if (state_ == ShardHealth::kHalfOpen ||
      (state_ == ShardHealth::kClosed &&
       consecutive_failures_ >= options_.failure_threshold)) {
    TransitionLocked(ShardHealth::kOpen);
    opened_micros_ = clock_->NowMicros();
  }
}

ShardHealth CircuitBreaker::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

int64_t CircuitBreaker::transitions() const { return transitions_.Value(); }

int64_t CircuitBreaker::consecutive_failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return consecutive_failures_;
}

int64_t CircuitBreaker::probes() const { return probes_.Value(); }

}  // namespace kucnet
