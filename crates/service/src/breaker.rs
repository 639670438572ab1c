//! A per-tenant circuit breaker with the classic
//! closed → open → half-open state machine.
//!
//! The gateway keeps one breaker per tenant. While **closed**, requests
//! flow and consecutive failures are counted; at
//! [`BreakerConfig::failure_threshold`] the breaker **opens** and the
//! tenant's requests are rejected instantly (a typed rejection carrying
//! the remaining cooldown as a `Retry-After` hint), protecting the
//! worker pool from a tenant whose queries reliably fail and shortening
//! the failure feedback loop for the client. After
//! [`BreakerConfig::cooldown`] the first admission becomes a
//! **half-open probe**: exactly one request is let through; its success
//! closes the breaker, and a probe failure re-opens it for a fresh
//! cooldown.
//!
//! The breaker itself is clock-free: every time-dependent entry point
//! takes `now_ns` from the caller's [`Clock`](crate::Clock), so unit
//! tests pin exact cooldown boundaries with zero sleeps.

use std::time::Duration;

/// Tuning for one circuit breaker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failures (while closed) that open the breaker.
    pub failure_threshold: u32,
    /// How long an open breaker rejects before allowing a probe.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 5,
            cooldown: Duration::from_millis(250),
        }
    }
}

/// The externally visible breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests flow, failures are counted.
    Closed,
    /// Tripped: requests are rejected until the cooldown elapses.
    Open,
    /// Probing: limited requests test whether the tenant recovered.
    HalfOpen,
}

/// What the breaker decided about one admission attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerDecision {
    /// Run the request (possibly as a half-open probe). The caller
    /// must report the result via `on_success`/`on_failure`.
    Allow,
    /// Fail fast; `retry_after` is the suggested client backoff (the
    /// remaining cooldown, or a fraction of it while a probe is out).
    Reject {
        /// Suggested wait before the tenant retries.
        retry_after: Duration,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Closed { consecutive_failures: u32 },
    Open { opened_at_ns: u64 },
    HalfOpen { probe_in_flight: bool },
}

/// One tenant's breaker. Time comes in as `now_ns` (nanoseconds on the
/// gateway's clock); the struct never reads a clock itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: State,
}

impl CircuitBreaker {
    /// A closed breaker under `config`.
    pub fn new(config: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            config,
            state: State::Closed {
                consecutive_failures: 0,
            },
        }
    }

    /// The current state.
    pub fn state(&self) -> BreakerState {
        match self.state {
            State::Closed { .. } => BreakerState::Closed,
            State::Open { .. } => BreakerState::Open,
            State::HalfOpen { .. } => BreakerState::HalfOpen,
        }
    }

    /// Decides one admission at time `now_ns`. An open breaker whose
    /// cooldown has elapsed transitions to half-open and admits the
    /// caller as the probe; a half-open breaker admits one probe at a
    /// time. Every `Allow` obligates the caller to report the result
    /// via `on_success`, `on_failure` or `on_neutral`.
    pub fn admit(&mut self, now_ns: u64) -> BreakerDecision {
        let cooldown_ns = u64::try_from(self.config.cooldown.as_nanos()).unwrap_or(u64::MAX);
        match self.state {
            State::Closed { .. } => BreakerDecision::Allow,
            State::Open { opened_at_ns } => {
                let elapsed = now_ns.saturating_sub(opened_at_ns);
                if elapsed >= cooldown_ns {
                    self.state = State::HalfOpen {
                        probe_in_flight: true,
                    };
                    BreakerDecision::Allow
                } else {
                    BreakerDecision::Reject {
                        retry_after: Duration::from_nanos(cooldown_ns - elapsed),
                    }
                }
            }
            State::HalfOpen { probe_in_flight } => {
                if probe_in_flight {
                    // A probe is already out; come back once it lands.
                    BreakerDecision::Reject {
                        retry_after: self.config.cooldown / 2,
                    }
                } else {
                    self.state = State::HalfOpen {
                        probe_in_flight: true,
                    };
                    BreakerDecision::Allow
                }
            }
        }
    }

    /// Reports a success for an admitted request: resets the failure
    /// count while closed, and closes a half-open breaker.
    pub fn on_success(&mut self) {
        match self.state {
            State::Closed { .. } | State::HalfOpen { .. } => {
                self.state = State::Closed {
                    consecutive_failures: 0,
                };
            }
            // A request admitted while closed can land after a
            // concurrent failure already opened the breaker; the late
            // success does not shorten the cooldown.
            State::Open { .. } => {}
        }
    }

    /// Reports an admitted request that ended with an outcome the
    /// breaker does not count — e.g. a tripped per-request memory or
    /// cost budget. Releases the half-open probe slot (the breaker
    /// stays half-open for the next probe) without touching failure
    /// counts; every `Allow` must be resolved through exactly one of
    /// `on_success`, `on_failure` or `on_neutral`, or a leaked probe
    /// slot would reject the tenant forever.
    pub fn on_neutral(&mut self) {
        if let State::HalfOpen { .. } = self.state {
            self.state = State::HalfOpen {
                probe_in_flight: false,
            };
        }
    }

    /// Reports a failure for an admitted request at time `now_ns`.
    /// Returns `true` when this failure transitioned the breaker to
    /// open (the caller emits `ServeBreakerOpen` on that edge).
    pub fn on_failure(&mut self, now_ns: u64) -> bool {
        match self.state {
            State::Closed {
                consecutive_failures,
            } => {
                let consecutive_failures = consecutive_failures + 1;
                if consecutive_failures >= self.config.failure_threshold {
                    self.state = State::Open {
                        opened_at_ns: now_ns,
                    };
                    true
                } else {
                    self.state = State::Closed {
                        consecutive_failures,
                    };
                    false
                }
            }
            State::HalfOpen { .. } => {
                self.state = State::Open {
                    opened_at_ns: now_ns,
                };
                true
            }
            State::Open { .. } => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    fn breaker() -> CircuitBreaker {
        CircuitBreaker::new(BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::from_millis(100),
        })
    }

    #[test]
    fn closed_opens_on_consecutive_failures_only() {
        let mut b = breaker();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(!b.on_failure(0));
        assert!(!b.on_failure(MS));
        // A success resets the consecutive count.
        b.on_success();
        assert!(!b.on_failure(2 * MS));
        assert!(!b.on_failure(3 * MS));
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.on_failure(4 * MS), "third consecutive failure opens");
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn open_rejects_with_remaining_cooldown_then_probes() {
        let mut b = breaker();
        for i in 0..3 {
            b.on_failure(i * MS);
        }
        // Opened at t=2ms; at t=42ms, 60ms of the 100ms cooldown left.
        match b.admit(42 * MS) {
            BreakerDecision::Reject { retry_after } => {
                assert_eq!(retry_after, Duration::from_millis(60));
            }
            BreakerDecision::Allow => panic!("open breaker must reject"),
        }
        // Cooldown elapses at t=102ms: the next admission is the probe.
        assert_eq!(b.admit(102 * MS), BreakerDecision::Allow);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // While the probe is out, others are rejected.
        assert!(matches!(b.admit(103 * MS), BreakerDecision::Reject { .. }));
    }

    #[test]
    fn half_open_probe_success_closes() {
        let mut b = breaker();
        for i in 0..3 {
            b.on_failure(i);
        }
        assert_eq!(b.admit(200 * MS), BreakerDecision::Allow);
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.admit(201 * MS), BreakerDecision::Allow);
    }

    #[test]
    fn half_open_probe_failure_reopens_for_a_fresh_cooldown() {
        let mut b = breaker();
        for i in 0..3 {
            b.on_failure(i);
        }
        assert_eq!(b.admit(200 * MS), BreakerDecision::Allow);
        assert!(b.on_failure(200 * MS), "probe failure re-opens");
        assert_eq!(b.state(), BreakerState::Open);
        // Fresh cooldown from t=200ms: still rejecting at t=250ms.
        assert!(matches!(b.admit(250 * MS), BreakerDecision::Reject { .. }));
        assert_eq!(b.admit(300 * MS), BreakerDecision::Allow);
    }

    #[test]
    fn neutral_probe_outcome_releases_the_slot_without_reopening() {
        let mut b = breaker();
        for i in 0..3 {
            b.on_failure(i);
        }
        assert_eq!(b.admit(200 * MS), BreakerDecision::Allow);
        // The probe ends with an uncounted outcome (e.g. a tripped
        // memory budget): the slot frees, the state stays half-open.
        b.on_neutral();
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // The next admission gets the probe slot — no permanent
        // lockout — and its success closes the breaker.
        assert_eq!(b.admit(201 * MS), BreakerDecision::Allow);
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
        // Neutral while closed or open is a no-op.
        b.on_neutral();
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn late_success_after_open_does_not_close() {
        let mut b = breaker();
        for i in 0..3 {
            b.on_failure(i);
        }
        b.on_success();
        assert_eq!(b.state(), BreakerState::Open);
    }
}
