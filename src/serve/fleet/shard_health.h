#ifndef KUCNET_SERVE_FLEET_SHARD_HEALTH_H_
#define KUCNET_SERVE_FLEET_SHARD_HEALTH_H_

#include <array>
#include <cstdint>
#include <mutex>
#include <string>

#include "obs/metrics.h"
#include "util/clock.h"

/// \file
/// Per-shard health tracking: a consecutive-failure circuit breaker.
///
/// The shard router (shard_router.h) records the outcome of every attempt it
/// makes against a shard. A run of consecutive failures trips the shard's
/// breaker OPEN: the router stops sending it traffic, so a dead or stalling
/// replica does not eat every request's retry budget. After a cooldown the
/// breaker admits a single HALF-OPEN probe; a successful probe closes the
/// breaker (the shard re-enters rotation), a failed one re-opens it and
/// restarts the cooldown. All time flows through the `Clock` seam, so the
/// open→half-open transition is deterministic under a `FakeClock`.

namespace kucnet {

/// Breaker state, classic three-state naming.
enum class ShardHealth {
  kClosed = 0,    ///< healthy: requests flow
  kOpen = 1,      ///< tripped: requests are not sent to this shard
  kHalfOpen = 2,  ///< probing: one request allowed through to test recovery
};
inline constexpr int kNumShardHealthStates = 3;

/// Display name ("closed", "open", "half-open").
const char* ShardHealthName(ShardHealth state);

/// Knobs of one shard's breaker.
struct CircuitBreakerOptions {
  /// Consecutive failures that trip the breaker open.
  int64_t failure_threshold = 3;
  /// Time spent open before a half-open probe is admitted.
  int64_t open_cooldown_micros = 100'000;
};

/// One shard's consecutive-failure circuit breaker. Thread-safe; every
/// timestamp comes from the injected clock.
class CircuitBreaker {
 public:
  /// Counts into `metrics`, which must outlive the breaker:
  /// `<prefix>health_transitions`, `<prefix>health.<state>` (transitions
  /// into each state) and `<prefix>half_open_probes`.
  CircuitBreaker(CircuitBreakerOptions options, const Clock* clock,
                 obs::MetricsRegistry& metrics, const std::string& prefix);

  /// Gate consulted before an attempt. Closed: always true. Open: false
  /// until the cooldown elapses, at which point the breaker transitions to
  /// half-open and admits the call as a probe. Half-open: admits the call
  /// as a probe.
  bool AllowRequest();

  /// Attempt succeeded: resets the failure run; a half-open probe success
  /// closes the breaker.
  void RecordSuccess();

  /// Attempt failed: extends the failure run; trips closed→open at the
  /// threshold, and re-opens (restarting the cooldown) from half-open.
  void RecordFailure();

  ShardHealth state() const;
  /// State changes since construction (closed→open→half-open→closed = 3).
  int64_t transitions() const;
  /// Current run of consecutive failures.
  int64_t consecutive_failures() const;
  /// Half-open probes admitted by AllowRequest.
  int64_t probes() const;

 private:
  /// Moves to `next`, counting the transition. Caller holds mu_.
  void TransitionLocked(ShardHealth next);

  CircuitBreakerOptions options_;
  const Clock* clock_;
  obs::Counter& transitions_;
  obs::Counter& probes_;
  std::array<obs::Counter*, kNumShardHealthStates> entered_;

  mutable std::mutex mu_;
  ShardHealth state_ = ShardHealth::kClosed;
  int64_t consecutive_failures_ = 0;
  int64_t opened_micros_ = 0;  ///< when the breaker last tripped open
};

}  // namespace kucnet

#endif  // KUCNET_SERVE_FLEET_SHARD_HEALTH_H_
