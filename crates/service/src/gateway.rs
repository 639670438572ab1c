//! The server gateway: the hardened request lifecycle between a
//! protocol frontend and the [`OptimizerService`].
//!
//! Every `joinopt serve` request — and every request of the chaos
//! harness, which drives this same type without sockets — passes
//! through one [`Gateway::handle`] call:
//!
//! 1. **Drain check** — a draining gateway refuses new work with a
//!    typed [`Rejection::Draining`] so a restarting client retries
//!    elsewhere.
//! 2. **Load shedding** — admission is compared against per-priority
//!    watermarks over the current in-flight count ([`ShedConfig`]):
//!    `Low` priority sheds first, `Normal` next, `High` only at the
//!    hard cap. A shed request costs no optimizer work and carries a
//!    `Retry-After` hint.
//! 3. **Circuit breaker** — one [`CircuitBreaker`] per tenant fails
//!    fast while the tenant's requests reliably die (see
//!    [`crate::breaker`]).
//! 4. **Deadline propagation** — the request's lifecycle deadline is
//!    measured from admission; each attempt's remaining slice becomes
//!    the optimizer's time budget and flows into the core
//!    `CancellationToken`, so a request never outlives its deadline by
//!    more than one checkpoint interval.
//! 5. **Retry** — transient failures (worker panics, isolated internal
//!    errors) retry under the seeded jittered backoff of
//!    [`crate::retry`], bounded per request by
//!    [`RetryConfig::max_retries`] and per tenant by the retry budget.
//!
//! All sleeps and time reads go through the injectable [`Clock`], so
//! the unit tests below pin exact schedules with zero real sleeps. The
//! lifecycle emits the `serve` telemetry vocabulary
//! ([`Event::ServeAccepted`], [`Event::ServeShed`],
//! [`Event::ServeRetried`], [`Event::ServeBreakerOpen`],
//! [`Event::ServeDrained`]), which the registry folds into the
//! `joinopt_serve_*_total` series. For an observer that opts into spans
//! ([`Observer::wants_spans`]) it also emits the stage events a
//! [`TraceSink`](joinopt_telemetry::TraceSink) folds into the request's
//! flight record.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Duration;

use joinopt_core::{OptimizeError, Session};
use joinopt_telemetry::{Event, Observer};

use crate::breaker::{BreakerConfig, BreakerDecision, BreakerState, CircuitBreaker};
use crate::clock::{Clock, StageClock};
use crate::retry::{RetryBudget, RetryConfig, RetryPolicy};
use crate::service::{OptimizerService, Priority, ServiceOutcome, ServiceRequest};

/// Load-shedding watermarks over the gateway's in-flight count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShedConfig {
    /// In-flight count at which `Low`-priority requests shed.
    pub low_watermark: usize,
    /// In-flight count at which `Normal`-priority requests shed.
    pub high_watermark: usize,
    /// Hard cap: even `High`-priority requests shed here.
    pub max_in_flight: usize,
    /// Base `Retry-After` hint attached to shed rejections.
    pub retry_after: Duration,
}

impl Default for ShedConfig {
    fn default() -> Self {
        ShedConfig {
            low_watermark: 8,
            high_watermark: 16,
            max_in_flight: 32,
            retry_after: Duration::from_millis(50),
        }
    }
}

/// Gateway tuning: shedding, retry, breaker and the failpoint-driven
/// slow-request stall.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Shedding watermarks.
    pub shed: ShedConfig,
    /// Retry/backoff policy (shared jitter stream, per-tenant budgets).
    pub retry: RetryConfig,
    /// Per-tenant breaker tuning.
    pub breaker: BreakerConfig,
    /// Seed for the backoff jitter stream.
    pub seed: u64,
    /// Stall injected per attempt while the `serve-slow-request`
    /// failpoint flag is armed (models a wedged worker; drives
    /// deadline-propagation tests).
    pub slow_request_delay: Duration,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            shed: ShedConfig::default(),
            retry: RetryConfig::default(),
            breaker: BreakerConfig::default(),
            seed: 2006,
            slow_request_delay: Duration::from_millis(25),
        }
    }
}

/// A typed refusal: the gateway did not run the request and the client
/// should wait [`Rejection::retry_after`] before trying again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejection {
    /// Shed at a load watermark.
    Shed {
        /// Priority of the shed request.
        priority: Priority,
        /// In-flight count observed at admission.
        in_flight: usize,
        /// Suggested client backoff.
        retry_after: Duration,
    },
    /// The tenant's circuit breaker is open (or its half-open probe
    /// slot is taken).
    BreakerOpen {
        /// Remaining cooldown (or probe window).
        retry_after: Duration,
    },
    /// The server is draining for shutdown.
    Draining {
        /// Suggested client backoff (against another instance).
        retry_after: Duration,
    },
}

impl Rejection {
    /// The wire/reporting kind: `shed`, `breaker-open` or `draining`.
    pub fn kind(&self) -> &'static str {
        match self {
            Rejection::Shed { .. } => "shed",
            Rejection::BreakerOpen { .. } => "breaker-open",
            Rejection::Draining { .. } => "draining",
        }
    }

    /// The `Retry-After` hint.
    pub fn retry_after(&self) -> Duration {
        match *self {
            Rejection::Shed { retry_after, .. }
            | Rejection::BreakerOpen { retry_after }
            | Rejection::Draining { retry_after } => retry_after,
        }
    }
}

/// How one gateway-handled request ended unsuccessfully.
#[derive(Debug)]
pub enum GatewayError {
    /// Refused before any optimizer work.
    Rejected(Rejection),
    /// Ran (possibly with retries) and failed.
    Failed(OptimizeError),
}

impl GatewayError {
    /// The reporting label: a rejection's [`Rejection::kind`], or the
    /// failure's [`error_kind`].
    pub fn kind(&self) -> &'static str {
        match self {
            GatewayError::Rejected(r) => r.kind(),
            GatewayError::Failed(e) => error_kind(e),
        }
    }
}

impl std::fmt::Display for GatewayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GatewayError::Rejected(r) => write!(
                f,
                "rejected ({}), retry after {:?}",
                r.kind(),
                r.retry_after()
            ),
            GatewayError::Failed(e) => write!(f, "{e}"),
        }
    }
}

/// A point-in-time snapshot of the gateway's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GatewayStats {
    /// Requests admitted past shedding and breaker checks.
    pub accepted: u64,
    /// Requests shed at a watermark (including drain refusals).
    pub shed: u64,
    /// Requests rejected by an open breaker.
    pub breaker_rejected: u64,
    /// Retry attempts performed.
    pub retried: u64,
    /// Closed→open (and half-open→open) breaker transitions.
    pub breaker_opens: u64,
    /// Admitted requests that returned a plan.
    pub completed: u64,
    /// Admitted requests that failed after all retries.
    pub failed: u64,
    /// Requests currently executing.
    pub in_flight: usize,
}

struct TenantState {
    breaker: CircuitBreaker,
    budget: RetryBudget,
}

/// The hardened request lifecycle around an [`OptimizerService`].
/// Methods take `&self`; one gateway is shared across connection
/// threads.
pub struct Gateway {
    service: OptimizerService,
    config: GatewayConfig,
    clock: Clock,
    tenants: Mutex<HashMap<String, TenantState>>,
    policy: Mutex<RetryPolicy>,
    in_flight: Mutex<usize>,
    idle: Condvar,
    draining: AtomicBool,
    drain_in_flight: AtomicUsize,
    accepted: AtomicU64,
    shed: AtomicU64,
    breaker_rejected: AtomicU64,
    retried: AtomicU64,
    breaker_opens: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
}

impl Gateway {
    /// A gateway over `service` on the real clock.
    pub fn new(service: OptimizerService, config: GatewayConfig) -> Gateway {
        Gateway::with_clock(service, config, Clock::system())
    }

    /// A gateway on an explicit (possibly manual) clock.
    pub fn with_clock(
        mut service: OptimizerService,
        config: GatewayConfig,
        clock: Clock,
    ) -> Gateway {
        let policy = RetryPolicy::new(config.retry.clone(), config.seed);
        // The service stamps its stage events from the same clock.
        service.clock = clock.clone();
        Gateway {
            service,
            config,
            clock,
            tenants: Mutex::new(HashMap::new()),
            policy: Mutex::new(policy),
            in_flight: Mutex::new(0),
            idle: Condvar::new(),
            draining: AtomicBool::new(false),
            drain_in_flight: AtomicUsize::new(0),
            accepted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            breaker_rejected: AtomicU64::new(0),
            retried: AtomicU64::new(0),
            breaker_opens: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
        }
    }

    /// The underlying service (cache statistics, direct submission).
    pub fn service(&self) -> &OptimizerService {
        &self.service
    }

    /// The gateway's clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// The gateway's configuration.
    pub fn config(&self) -> &GatewayConfig {
        &self.config
    }

    /// Counter snapshot.
    pub fn stats(&self) -> GatewayStats {
        GatewayStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            breaker_rejected: self.breaker_rejected.load(Ordering::Relaxed),
            retried: self.retried.load(Ordering::Relaxed),
            breaker_opens: self.breaker_opens.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            in_flight: *lock(&self.in_flight),
        }
    }

    /// The named tenant's current breaker state (`Closed` when the
    /// tenant has never been seen).
    pub fn breaker_state(&self, tenant: &str) -> BreakerState {
        lock(&self.tenants)
            .get(tenant)
            .map_or(BreakerState::Closed, |t| t.breaker.state())
    }

    /// Whether new requests are being refused for shutdown.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Stops admitting new requests; in-flight requests keep running.
    /// Records the in-flight count at the moment the drain began (the
    /// number [`Event::ServeDrained`] later reports as completed).
    pub fn begin_drain(&self) {
        let in_flight = *lock(&self.in_flight);
        self.drain_in_flight.store(in_flight, Ordering::SeqCst);
        self.draining.store(true, Ordering::SeqCst);
    }

    /// Blocks until every in-flight request has completed, then emits
    /// [`Event::ServeDrained`]. Returns `Ok(completed_in_flight)` or,
    /// if `timeout` (real time) expires first, `Err(still_in_flight)`.
    pub fn await_drained(&self, timeout: Duration, obs: &dyn Observer) -> Result<usize, usize> {
        let mut guard = lock(&self.in_flight);
        let deadline = std::time::Instant::now() + timeout;
        while *guard > 0 {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            if left.is_zero() {
                return Err(*guard);
            }
            let (g, _) = self
                .idle
                .wait_timeout(guard, left)
                .unwrap_or_else(PoisonError::into_inner);
            guard = g;
        }
        drop(guard);
        let in_flight = self.drain_in_flight.load(Ordering::SeqCst);
        if obs.enabled() {
            obs.on_event(Event::ServeDrained { in_flight });
        }
        Ok(in_flight)
    }

    /// Runs one request through the full lifecycle. `deadline` is the
    /// end-to-end allowance measured from this call; `session` is the
    /// caller's pooled optimizer session.
    ///
    /// When `obs` wants spans ([`Observer::wants_spans`]), each
    /// lifecycle stage (shed-check, breaker, per-attempt
    /// cache-lookup/optimize, retry backoffs) is reported as stage
    /// events stamped from the gateway's clock, and every error path
    /// closes the stages it left open. Otherwise this path performs
    /// only the lifecycle's own clock reads, which the pinned test in
    /// `tests/trace_overhead.rs` holds it to via [`crate::clock_reads`].
    pub fn handle(
        &self,
        req: &ServiceRequest,
        deadline: Option<Duration>,
        session: &mut Option<Session>,
        obs: &dyn Observer,
    ) -> Result<ServiceOutcome, GatewayError> {
        let stages = StageClock::new(&self.clock, obs);
        let admitted_ns = self.clock.now_ns();
        stages.begin_at("shed-check", admitted_ns);

        // A draining gateway refuses new work; otherwise watermark
        // shedding compares and increments the in-flight count under a
        // single lock acquisition, so racing admissions cannot
        // collectively overshoot the watermark.
        let watermark = match req.priority {
            Priority::Low => self.config.shed.low_watermark,
            Priority::Normal => self.config.shed.high_watermark,
            Priority::High => self.config.shed.max_in_flight,
        }
        .min(self.config.shed.max_in_flight);
        let retry_after = self.config.shed.retry_after;
        let admitted = if self.is_draining() {
            Err(Rejection::Draining { retry_after })
        } else {
            InFlightGuard::try_enter(self, watermark).map_err(|in_flight| Rejection::Shed {
                priority: req.priority,
                in_flight,
                retry_after,
            })
        };
        let _guard = match admitted {
            Ok(guard) => guard,
            Err(rejection) => {
                self.shed.fetch_add(1, Ordering::Relaxed);
                if obs.enabled() {
                    obs.on_event(Event::ServeShed {
                        priority: req.priority.name(),
                    });
                }
                stages.close_all();
                return Err(GatewayError::Rejected(rejection));
            }
        };

        stages.end_then_begin("breaker");

        // Per-tenant breaker admission. A breaker rejection releases
        // the just-reserved in-flight slot via the guard's drop.
        {
            let mut tenants = lock(&self.tenants);
            let tenant = tenants
                .entry(req.tenant.clone())
                .or_insert_with(|| self.tenant_state());
            if let BreakerDecision::Reject { retry_after } =
                tenant.breaker.admit(self.clock.now_ns())
            {
                drop(tenants);
                self.breaker_rejected.fetch_add(1, Ordering::Relaxed);
                stages.close_all();
                return Err(GatewayError::Rejected(Rejection::BreakerOpen {
                    retry_after,
                }));
            }
        }
        stages.end();

        self.accepted.fetch_add(1, Ordering::Relaxed);
        if obs.enabled() {
            obs.on_event(Event::ServeAccepted {
                priority: req.priority.name(),
            });
        }

        let mut attempt: u32 = 0;
        loop {
            // A wedged worker, when injected: each attempt stalls before
            // it runs, eating into the deadline below.
            if joinopt_core::failpoint::flag("serve-slow-request") {
                self.clock.sleep(self.config.slow_request_delay);
            }

            // Deadline propagation: the remaining end-to-end allowance
            // caps this attempt's optimizer time budget (and with it the
            // core CancellationToken's deadline).
            let mut effective = req.clone();
            if let Some(d) = deadline {
                let elapsed = Duration::from_nanos(self.clock.now_ns().saturating_sub(admitted_ns));
                let Some(remaining) = d.checked_sub(elapsed).filter(|r| !r.is_zero()) else {
                    stages.close_all();
                    return Err(self.finish_failed(
                        req,
                        OptimizeError::TimeBudgetExceeded { budget: d },
                        obs,
                    ));
                };
                effective.time_budget = Some(match req.time_budget {
                    Some(b) => b.min(remaining),
                    None => remaining,
                });
            }

            match self.service.submit_one(&effective, session, obs) {
                Ok(outcome) => {
                    self.completed.fetch_add(1, Ordering::Relaxed);
                    let mut tenants = lock(&self.tenants);
                    if let Some(t) = tenants.get_mut(req.tenant.as_str()) {
                        t.breaker.on_success();
                        t.budget.deposit();
                    }
                    return Ok(outcome);
                }
                Err(e) if is_transient(&e) && self.may_retry(req, attempt) => {
                    attempt += 1;
                    self.retried.fetch_add(1, Ordering::Relaxed);
                    // The retry event also tags the stages that follow
                    // with this attempt number.
                    if obs.enabled() {
                        obs.on_event(Event::ServeRetried { attempt });
                    }
                    // A panicking attempt unwound past its stage closes;
                    // close them here and time the backoff sleep itself.
                    stages.close_all_then_begin("retry-backoff");
                    let delay = lock(&self.policy).backoff(attempt - 1);
                    self.clock.sleep(delay);
                    stages.end();
                }
                Err(e) => {
                    stages.close_all();
                    return Err(self.finish_failed(req, e, obs));
                }
            }
        }
    }

    /// Whether a transient failure on 0-based `attempt` may retry:
    /// policy allows it and the tenant's budget covers it (withdrawing
    /// the token when so).
    fn may_retry(&self, req: &ServiceRequest, attempt: u32) -> bool {
        if !lock(&self.policy).allows(attempt) {
            return false;
        }
        let mut tenants = lock(&self.tenants);
        tenants
            .entry(req.tenant.clone())
            .or_insert_with(|| self.tenant_state())
            .budget
            .try_withdraw()
    }

    /// Books a terminal failure: feeds the tenant's breaker (emitting
    /// [`Event::ServeBreakerOpen`] on the closed→open edge) and wraps
    /// the error. Failures the breaker does not count still resolve
    /// the admission as neutral, so a half-open probe slot is never
    /// leaked (which would lock the tenant out until restart).
    fn finish_failed(
        &self,
        req: &ServiceRequest,
        e: OptimizeError,
        obs: &dyn Observer,
    ) -> GatewayError {
        self.failed.fetch_add(1, Ordering::Relaxed);
        if counts_for_breaker(&e) {
            let opened = lock(&self.tenants)
                .get_mut(req.tenant.as_str())
                .is_some_and(|t| t.breaker.on_failure(self.clock.now_ns()));
            if opened {
                self.breaker_opens.fetch_add(1, Ordering::Relaxed);
                if obs.enabled() {
                    obs.on_event(Event::ServeBreakerOpen);
                }
            }
        } else if let Some(t) = lock(&self.tenants).get_mut(req.tenant.as_str()) {
            t.breaker.on_neutral();
        }
        GatewayError::Failed(e)
    }

    fn tenant_state(&self) -> TenantState {
        TenantState {
            breaker: CircuitBreaker::new(self.config.breaker.clone()),
            budget: RetryBudget::new(&self.config.retry),
        }
    }
}

/// RAII in-flight accounting: decrements and wakes drain waiters even
/// when a request path unwinds.
struct InFlightGuard<'a> {
    gateway: &'a Gateway,
}

impl<'a> InFlightGuard<'a> {
    /// Unconditionally occupies one in-flight slot (test scaffolding
    /// for pinning synthetic load; the request path uses `try_enter`).
    #[cfg(test)]
    fn enter(gateway: &'a Gateway) -> InFlightGuard<'a> {
        *lock(&gateway.in_flight) += 1;
        InFlightGuard { gateway }
    }

    /// Atomically admits one request against `watermark`: checks and
    /// increments the in-flight count under one lock acquisition.
    /// Returns `Err(observed_count)`, leaving the count untouched,
    /// when the count is already at or above the watermark.
    fn try_enter(gateway: &'a Gateway, watermark: usize) -> Result<InFlightGuard<'a>, usize> {
        let mut guard = lock(&gateway.in_flight);
        if *guard >= watermark {
            return Err(*guard);
        }
        *guard += 1;
        Ok(InFlightGuard { gateway })
    }
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        let mut guard = lock(&self.gateway.in_flight);
        *guard = guard.saturating_sub(1);
        drop(guard);
        self.gateway.idle.notify_all();
    }
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The reporting label an optimizer error rolls up under in serve
/// responses and the load report's per-type error breakdown:
/// `timeout`, `memory`, `panic`, `parse`, `admission` or `other`.
pub fn error_kind(e: &OptimizeError) -> &'static str {
    match e {
        OptimizeError::TimeBudgetExceeded { .. } => "timeout",
        OptimizeError::MemoryBudgetExceeded { .. } => "memory",
        OptimizeError::Parse(_) | OptimizeError::Sql(_) => "parse",
        OptimizeError::QueueFull { .. } | OptimizeError::TenantLimitExceeded { .. } => "admission",
        OptimizeError::Internal(msg) if msg.contains("panic") => "panic",
        _ => "other",
    }
}

/// Failures that feed the circuit breaker: service-side malfunction
/// (panics surface as `Internal`) and deadline blowouts — not
/// per-query client errors (parse, shape, admission).
fn counts_for_breaker(e: &OptimizeError) -> bool {
    matches!(
        e,
        OptimizeError::Internal(_) | OptimizeError::TimeBudgetExceeded { .. }
    )
}

/// Failures worth retrying: isolated internal errors and panics. A
/// deadline blowout is not — the deadline covers retries too, and a
/// parse error will parse no better the second time.
fn is_transient(e: &OptimizeError) -> bool {
    matches!(e, OptimizeError::Internal(_))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use crate::spec::QuerySpec;
    use joinopt_cost::workload::family_workload;
    use joinopt_qgraph::GraphKind;
    use joinopt_telemetry::{NoopObserver, RequestTrace, TraceSink};

    fn spec(n: usize, seed: u64) -> QuerySpec {
        let w = family_workload(GraphKind::Chain, n, seed);
        QuerySpec::capture(&w.graph, &w.catalog).unwrap()
    }

    fn gateway(config: GatewayConfig) -> Gateway {
        Gateway::with_clock(
            OptimizerService::new(ServiceConfig::default()),
            config,
            Clock::manual(),
        )
    }

    #[test]
    fn happy_path_completes_and_counts() {
        let gw = gateway(GatewayConfig::default());
        let mut session = None;
        let req = ServiceRequest::new(spec(6, 1)).with_tenant("t");
        let out = gw
            .handle(
                &req,
                Some(Duration::from_secs(10)),
                &mut session,
                &NoopObserver,
            )
            .unwrap();
        assert!(!out.cache_hit);
        let out2 = gw.handle(&req, None, &mut session, &NoopObserver).unwrap();
        assert!(out2.cache_hit, "second identical request hits the cache");
        let stats = gw.stats();
        assert_eq!(stats.accepted, 2);
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.in_flight, 0);
        assert_eq!((stats.shed, stats.failed, stats.retried), (0, 0, 0));
    }

    #[test]
    fn watermarks_shed_by_priority() {
        let gw = gateway(GatewayConfig {
            shed: ShedConfig {
                low_watermark: 1,
                high_watermark: 2,
                max_in_flight: 3,
                retry_after: Duration::from_millis(40),
            },
            ..GatewayConfig::default()
        });
        let mut session = None;
        // Hold two synthetic in-flight slots.
        let _a = InFlightGuard::enter(&gw);
        let low = ServiceRequest::new(spec(4, 2)).with_priority(Priority::Low);
        let normal = ServiceRequest::new(spec(4, 3));
        let high = ServiceRequest::new(spec(4, 4)).with_priority(Priority::High);
        match gw.handle(&low, None, &mut session, &NoopObserver) {
            Err(GatewayError::Rejected(Rejection::Shed {
                priority,
                in_flight,
                retry_after,
            })) => {
                assert_eq!(priority, Priority::Low);
                assert_eq!(in_flight, 1);
                assert_eq!(retry_after, Duration::from_millis(40));
            }
            other => panic!("low must shed: {other:?}"),
        }
        let _b = InFlightGuard::enter(&gw);
        assert!(matches!(
            gw.handle(&normal, None, &mut session, &NoopObserver),
            Err(GatewayError::Rejected(Rejection::Shed { .. }))
        ));
        // High still flows below the hard cap.
        assert!(gw.handle(&high, None, &mut session, &NoopObserver).is_ok());
        let _c = InFlightGuard::enter(&gw);
        assert!(matches!(
            gw.handle(&high, None, &mut session, &NoopObserver),
            Err(GatewayError::Rejected(Rejection::Shed { .. }))
        ));
        assert_eq!(gw.stats().shed, 3);
    }

    #[test]
    fn draining_rejects_new_requests_and_drain_completes() {
        let gw = gateway(GatewayConfig::default());
        let mut session = None;
        gw.begin_drain();
        assert!(gw.is_draining());
        let req = ServiceRequest::new(spec(4, 5));
        assert!(matches!(
            gw.handle(&req, None, &mut session, &NoopObserver),
            Err(GatewayError::Rejected(Rejection::Draining { .. }))
        ));
        assert_eq!(
            gw.await_drained(Duration::from_secs(1), &NoopObserver),
            Ok(0)
        );
    }

    #[test]
    fn deadline_zero_fails_typed_without_running() {
        let gw = gateway(GatewayConfig::default());
        let mut session = None;
        let req = ServiceRequest::new(spec(6, 6));
        // The manual clock never advances on its own, so force the
        // elapsed time past the deadline with the slow-request stall
        // disabled: a zero deadline is already expired at admission.
        match gw.handle(&req, Some(Duration::ZERO), &mut session, &NoopObserver) {
            Err(GatewayError::Failed(OptimizeError::TimeBudgetExceeded { budget })) => {
                assert_eq!(budget, Duration::ZERO);
            }
            other => panic!("expected typed deadline error: {other:?}"),
        }
        assert_eq!(gw.stats().failed, 1);
        assert_eq!(gw.stats().completed, 0);
    }

    #[test]
    fn deadline_caps_the_attempt_time_budget() {
        let gw = gateway(GatewayConfig::default());
        let mut session = None;
        // A generous explicit budget is clamped to the small remaining
        // deadline; the run itself is fast enough to finish anyway.
        let req = ServiceRequest::new(spec(5, 7)).with_time_budget(Duration::from_secs(3600));
        assert!(gw
            .handle(
                &req,
                Some(Duration::from_secs(1)),
                &mut session,
                &NoopObserver
            )
            .is_ok());
    }

    #[test]
    fn breaker_opens_after_consecutive_deadline_failures_and_recloses() {
        let clock = Clock::manual();
        let gw = Gateway::with_clock(
            OptimizerService::new(ServiceConfig::default()),
            GatewayConfig {
                breaker: BreakerConfig {
                    failure_threshold: 3,
                    cooldown: Duration::from_millis(100),
                    success_threshold: 1,
                },
                ..GatewayConfig::default()
            },
            clock.clone(),
        );
        let mut session = None;
        let req = ServiceRequest::new(spec(6, 8)).with_tenant("acme");
        for _ in 0..3 {
            assert!(matches!(
                gw.handle(&req, Some(Duration::ZERO), &mut session, &NoopObserver),
                Err(GatewayError::Failed(
                    OptimizeError::TimeBudgetExceeded { .. }
                ))
            ));
        }
        assert_eq!(gw.breaker_state("acme"), BreakerState::Open);
        assert_eq!(gw.stats().breaker_opens, 1);
        // Open: rejected with the remaining cooldown.
        match gw.handle(&req, None, &mut session, &NoopObserver) {
            Err(GatewayError::Rejected(Rejection::BreakerOpen { retry_after })) => {
                assert!(retry_after <= Duration::from_millis(100));
            }
            other => panic!("expected breaker rejection: {other:?}"),
        }
        // Other tenants are unaffected.
        let other = ServiceRequest::new(spec(6, 9)).with_tenant("beta");
        assert!(gw.handle(&other, None, &mut session, &NoopObserver).is_ok());
        // Cooldown elapses on the virtual clock; the probe succeeds and
        // the breaker re-closes.
        clock.advance(Duration::from_millis(150));
        assert!(gw.handle(&req, None, &mut session, &NoopObserver).is_ok());
        assert_eq!(gw.breaker_state("acme"), BreakerState::Closed);
    }

    #[test]
    fn uncounted_probe_failure_frees_the_slot_instead_of_locking_the_tenant_out() {
        let clock = Clock::manual();
        let gw = Gateway::with_clock(
            OptimizerService::new(ServiceConfig::default()),
            GatewayConfig {
                breaker: BreakerConfig {
                    failure_threshold: 2,
                    cooldown: Duration::from_millis(100),
                    success_threshold: 1,
                },
                ..GatewayConfig::default()
            },
            clock.clone(),
        );
        let mut session = None;
        let req = ServiceRequest::new(spec(6, 40)).with_tenant("acme");
        for _ in 0..2 {
            assert!(gw
                .handle(&req, Some(Duration::ZERO), &mut session, &NoopObserver)
                .is_err());
        }
        assert_eq!(gw.breaker_state("acme"), BreakerState::Open);
        clock.advance(Duration::from_millis(150));

        // The half-open probe fails with an error the breaker does not
        // count (a tripped memory budget). The probe slot must be
        // released — a leaked slot would reject the tenant forever.
        let w = family_workload(GraphKind::Clique, 12, 41);
        let heavy = QuerySpec::capture(&w.graph, &w.catalog).unwrap();
        let probe = ServiceRequest::new(heavy)
            .with_tenant("acme")
            .with_algorithm(joinopt_core::Algorithm::DpSub)
            .with_memory_budget(1024);
        assert!(matches!(
            gw.handle(&probe, None, &mut session, &NoopObserver),
            Err(GatewayError::Failed(
                OptimizeError::MemoryBudgetExceeded { .. }
            ))
        ));
        assert_eq!(gw.breaker_state("acme"), BreakerState::HalfOpen);
        // The next request takes the freed probe slot; its success
        // closes the breaker.
        assert!(gw.handle(&req, None, &mut session, &NoopObserver).is_ok());
        assert_eq!(gw.breaker_state("acme"), BreakerState::Closed);
    }

    #[test]
    fn refusals_and_timeouts_close_every_stage_span() {
        let gw = gateway(GatewayConfig {
            shed: ShedConfig {
                low_watermark: 0,
                ..ShedConfig::default()
            },
            breaker: BreakerConfig {
                failure_threshold: 1,
                ..BreakerConfig::default()
            },
            ..GatewayConfig::default()
        });
        let acme = ServiceRequest::new(spec(5, 60)).with_tenant("acme");
        let low = ServiceRequest::new(spec(5, 61)).with_priority(Priority::Low);
        // In order: a zero deadline times out and opens acme's breaker,
        // which then refuses acme; a low-priority request sheds at the
        // zero watermark; once draining, everything is refused.
        let cases = [
            (&acme, Some(Duration::ZERO), "timeout", "shed-check,breaker"),
            (&acme, None, "breaker-open", "shed-check,breaker"),
            (&low, None, "shed", "shed-check"),
            (&acme, None, "draining", "shed-check"),
        ];
        for (req, deadline, kind, stages) in cases {
            if kind == "draining" {
                gw.begin_drain();
            }
            let sink = TraceSink::new(RequestTrace::new("t".into(), "", "optimize", 0));
            let err = gw.handle(req, deadline, &mut None, &sink).unwrap_err();
            let trace = sink.into_trace();
            assert_eq!(err.kind(), kind);
            assert_eq!(trace.open_count(), 0, "{kind} left a stage open");
            let seen: Vec<_> = trace.spans().iter().map(|s| s.stage).collect();
            assert_eq!(seen.join(","), stages, "{kind}");
        }
    }

    #[test]
    fn stats_and_rejection_kinds_render() {
        let r = Rejection::Shed {
            priority: Priority::Low,
            in_flight: 9,
            retry_after: Duration::from_millis(10),
        };
        assert_eq!(r.kind(), "shed");
        assert_eq!(r.retry_after(), Duration::from_millis(10));
        assert_eq!(
            Rejection::BreakerOpen {
                retry_after: Duration::from_millis(5)
            }
            .kind(),
            "breaker-open"
        );
        assert_eq!(
            Rejection::Draining {
                retry_after: Duration::from_millis(5)
            }
            .kind(),
            "draining"
        );
        let err = GatewayError::Rejected(r);
        assert!(err.to_string().contains("shed"));
    }
}
