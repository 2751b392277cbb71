//! Cooperative task supervision: cancellation tokens, deadlines and
//! circuit breakers.
//!
//! The sweep engine runs each detection pipeline as a supervised task. The
//! primitives here are deliberately *cooperative*: a task is never killed
//! from outside, it observes its own [`Supervision`] at well-chosen
//! check-points and unwinds cleanly. That keeps every truth-source handle
//! and telemetry span in a consistent state — a pre-empted thread could die
//! holding a lock on the very evidence the sweep is about to report.
//!
//! All timing goes through the [`Clock`] seam from [`crate::obs`], so a
//! `FakeClock` makes deadline expiry and breaker cool-down fully
//! deterministic in tests: a *permanently stalled* read completes (as a
//! timeout) in microseconds of real time.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::obs::Clock;
use crate::sync::Mutex;

// ---------------------------------------------------------------------
// Cancellation
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
struct TokenInner {
    cancelled: AtomicBool,
    parent: Option<Arc<TokenInner>>,
}

impl TokenInner {
    fn is_cancelled(&self) -> bool {
        if self.cancelled.load(Ordering::SeqCst) {
            return true;
        }
        match &self.parent {
            Some(parent) => parent.is_cancelled(),
            None => false,
        }
    }
}

/// A hierarchical, cooperative cancellation flag.
///
/// Cloning shares the flag; [`CancellationToken::child`] derives a token
/// that observes its parent's cancellation but can also be cancelled on its
/// own without affecting siblings — the sweep holds the root, each pipeline
/// gets a child.
///
/// # Examples
///
/// ```
/// use strider_support::task::CancellationToken;
///
/// let root = CancellationToken::new();
/// let pipeline = root.child();
/// pipeline.cancel();
/// assert!(pipeline.is_cancelled());
/// assert!(!root.is_cancelled(), "a child cannot cancel its parent");
/// root.cancel();
/// assert!(root.child().is_cancelled(), "cancellation flows downward");
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancellationToken {
    inner: Arc<TokenInner>,
}

impl CancellationToken {
    /// A fresh, un-cancelled root token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Derives a child token: cancelled when either it or any ancestor is.
    pub fn child(&self) -> Self {
        CancellationToken {
            inner: Arc::new(TokenInner {
                cancelled: AtomicBool::new(false),
                parent: Some(Arc::clone(&self.inner)),
            }),
        }
    }

    /// Requests cancellation of this token and every descendant.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::SeqCst);
    }

    /// True once this token or any ancestor has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.inner.is_cancelled()
    }
}

// ---------------------------------------------------------------------
// Deadlines
// ---------------------------------------------------------------------

/// An absolute point on a [`Clock`] after which a task must stop.
#[derive(Clone)]
pub struct Deadline {
    clock: Arc<dyn Clock>,
    at_ns: u64,
}

impl std::fmt::Debug for Deadline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Deadline")
            .field("at_ns", &self.at_ns)
            .field("remaining_ns", &self.remaining_ns())
            .finish()
    }
}

impl Deadline {
    /// A deadline `budget_ns` from the clock's current reading.
    pub fn after(clock: Arc<dyn Clock>, budget_ns: u64) -> Self {
        let at_ns = clock.now_ns().saturating_add(budget_ns);
        Deadline { clock, at_ns }
    }

    /// A deadline at an absolute clock reading.
    pub fn at(clock: Arc<dyn Clock>, at_ns: u64) -> Self {
        Deadline { clock, at_ns }
    }

    /// The absolute expiry instant in clock nanoseconds.
    pub fn at_ns(&self) -> u64 {
        self.at_ns
    }

    /// True once the clock has reached the deadline.
    fn expired(&self) -> bool {
        self.clock.now_ns() >= self.at_ns
    }

    /// Nanoseconds left before expiry; zero once expired.
    fn remaining_ns(&self) -> u64 {
        self.at_ns.saturating_sub(self.clock.now_ns())
    }
}

// ---------------------------------------------------------------------
// Supervision: what a task consults at its check-points
// ---------------------------------------------------------------------

/// Why a supervised task was asked to stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interrupt {
    /// The task's [`CancellationToken`] (or an ancestor) was cancelled.
    Cancelled,
    /// The task's [`Deadline`] passed.
    DeadlineExceeded,
}

impl std::fmt::Display for Interrupt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Interrupt::Cancelled => write!(f, "cancelled"),
            Interrupt::DeadlineExceeded => write!(f, "deadline exceeded"),
        }
    }
}

/// The cancellation token and optional deadline a supervised task checks.
///
/// Long-running loops call [`Supervision::checkpoint`] once per unit of
/// work; the `Err(Interrupt)` propagates out like any other error, which is
/// exactly the point — cooperative cancellation reuses the existing error
/// paths instead of adding a second unwinding mechanism.
#[derive(Debug, Clone, Default)]
pub struct Supervision {
    token: CancellationToken,
    deadline: Option<Deadline>,
}

impl Supervision {
    /// Supervision that never interrupts (no deadline, nobody cancels).
    pub fn unsupervised() -> Self {
        Self::default()
    }

    /// Supervision from a token and an optional deadline.
    pub fn new(token: CancellationToken, deadline: Option<Deadline>) -> Self {
        Supervision { token, deadline }
    }

    /// The task's cancellation token.
    pub fn token(&self) -> &CancellationToken {
        &self.token
    }

    /// The task's deadline, if one was set.
    pub fn deadline(&self) -> Option<&Deadline> {
        self.deadline.as_ref()
    }

    /// Derives a child scope: a child token, and the tighter of the parent
    /// deadline and `budget_ns` (when given) on `clock`.
    pub fn child(&self, clock: Arc<dyn Clock>, budget_ns: Option<u64>) -> Self {
        let deadline = match (
            budget_ns.map(|ns| Deadline::after(clock, ns)),
            &self.deadline,
        ) {
            (Some(own), Some(parent)) if parent.at_ns() < own.at_ns() => Some(parent.clone()),
            (Some(own), _) => Some(own),
            (None, parent) => parent.clone(),
        };
        Supervision {
            token: self.token.child(),
            deadline,
        }
    }

    /// Returns `Err` if the task should stop, `Ok(())` to keep working.
    ///
    /// Cancellation wins over deadline expiry when both hold: an operator's
    /// explicit stop is more informative than a timer that also ran out.
    pub fn checkpoint(&self) -> Result<(), Interrupt> {
        if self.token.is_cancelled() {
            return Err(Interrupt::Cancelled);
        }
        if self.deadline.as_ref().is_some_and(Deadline::expired) {
            return Err(Interrupt::DeadlineExceeded);
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Circuit breaker
// ---------------------------------------------------------------------

/// The observable state of a [`CircuitBreaker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Requests flow; consecutive failures are being counted.
    Closed,
    /// Requests are rejected until the cool-down elapses.
    Open,
    /// One probe request is allowed through to test recovery.
    HalfOpen,
}

impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BreakerState::Closed => write!(f, "closed"),
            BreakerState::Open => write!(f, "open"),
            BreakerState::HalfOpen => write!(f, "half-open"),
        }
    }
}

#[derive(Debug)]
struct BreakerInner {
    state: BreakerState,
    consecutive_failures: u32,
    opened_at_ns: u64,
}

/// A Closed→Open→HalfOpen circuit breaker with cool-down through [`Clock`].
///
/// After `failure_threshold` consecutive [`CircuitBreaker::record_failure`]
/// calls the breaker opens: [`CircuitBreaker::try_acquire`] refuses until
/// `cooldown_ns` has elapsed on the clock, then admits exactly one
/// half-open probe. A probe success closes the breaker, a probe failure
/// re-opens it for another full cool-down.
///
/// Clones share state (the breaker is one `Arc`'d state machine), so a
/// sweep engine can hand the same breaker to successive sweeps.
#[derive(Clone)]
pub struct CircuitBreaker {
    clock: Arc<dyn Clock>,
    failure_threshold: u32,
    cooldown_ns: u64,
    inner: Arc<Mutex<BreakerInner>>,
}

impl std::fmt::Debug for CircuitBreaker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CircuitBreaker")
            .field("failure_threshold", &self.failure_threshold)
            .field("cooldown_ns", &self.cooldown_ns)
            .field("state", &self.state())
            .finish()
    }
}

impl CircuitBreaker {
    /// A closed breaker that opens after `failure_threshold` consecutive
    /// failures and cools down for `cooldown_ns` on `clock`.
    ///
    /// A threshold of 0 is treated as 1 — a breaker that can never admit a
    /// request would be a misconfiguration, not a policy.
    pub fn new(clock: Arc<dyn Clock>, failure_threshold: u32, cooldown_ns: u64) -> Self {
        CircuitBreaker {
            clock,
            failure_threshold: failure_threshold.max(1),
            cooldown_ns,
            inner: Arc::new(Mutex::new(BreakerInner {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                opened_at_ns: 0,
            })),
        }
    }

    /// The breaker's current state (advancing Open→HalfOpen if the
    /// cool-down has elapsed).
    pub fn state(&self) -> BreakerState {
        let mut inner = self.inner.lock();
        self.advance(&mut inner);
        inner.state
    }

    /// True if a request may proceed. In `HalfOpen` this admits the probe.
    pub fn try_acquire(&self) -> bool {
        let mut inner = self.inner.lock();
        self.advance(&mut inner);
        !matches!(inner.state, BreakerState::Open)
    }

    /// Reports a successful request: closes the breaker, resets the count.
    pub fn record_success(&self) {
        let mut inner = self.inner.lock();
        inner.state = BreakerState::Closed;
        inner.consecutive_failures = 0;
    }

    /// Reports a failed request; returns the state the breaker is now in,
    /// so callers can emit an event exactly when a failure *trips* it.
    pub fn record_failure(&self) -> BreakerState {
        let mut inner = self.inner.lock();
        self.advance(&mut inner);
        inner.consecutive_failures = inner.consecutive_failures.saturating_add(1);
        let should_open = match inner.state {
            // A failed half-open probe re-opens immediately.
            BreakerState::HalfOpen => true,
            _ => inner.consecutive_failures >= self.failure_threshold,
        };
        if should_open {
            inner.state = BreakerState::Open;
            inner.opened_at_ns = self.clock.now_ns();
        }
        inner.state
    }

    fn advance(&self, inner: &mut BreakerInner) {
        if matches!(inner.state, BreakerState::Open)
            && self.clock.now_ns() >= inner.opened_at_ns.saturating_add(self.cooldown_ns)
        {
            inner.state = BreakerState::HalfOpen;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::FakeClock;

    fn fake() -> Arc<FakeClock> {
        Arc::new(FakeClock::new())
    }

    #[test]
    fn root_token_cancels_children_but_not_vice_versa() {
        let root = CancellationToken::new();
        let a = root.child();
        let b = root.child();
        a.cancel();
        assert!(a.is_cancelled());
        assert!(!b.is_cancelled(), "siblings are independent");
        assert!(!root.is_cancelled());
        root.cancel();
        assert!(b.is_cancelled());
        assert!(b.child().is_cancelled(), "grandchildren inherit");
    }

    #[test]
    fn clones_share_the_cancellation_flag() {
        let token = CancellationToken::new();
        let peer = token.clone();
        peer.cancel();
        assert!(token.is_cancelled());
    }

    #[test]
    fn deadline_expires_exactly_at_the_budget_on_a_fake_clock() {
        let clock = fake();
        let deadline = Deadline::after(clock.clone(), 1_000);
        assert!(!deadline.expired());
        assert_eq!(deadline.remaining_ns(), 1_000);
        clock.advance(999);
        assert!(!deadline.expired());
        clock.advance(1);
        assert!(deadline.expired());
        assert_eq!(deadline.remaining_ns(), 0);
    }

    #[test]
    fn deadline_after_counts_from_the_current_reading() {
        let clock = fake();
        clock.advance(500);
        let deadline = Deadline::after(clock.clone(), 2_000_000);
        assert_eq!(deadline.at_ns(), 500 + 2_000_000);
        assert_eq!(deadline.remaining_ns(), 2_000_000);
        assert_eq!(Deadline::at(clock, 7).remaining_ns(), 0);
    }

    #[test]
    fn checkpoint_reports_cancellation_before_deadline() {
        let clock = fake();
        let token = CancellationToken::new();
        let sup = Supervision::new(token.clone(), Some(Deadline::after(clock.clone(), 100)));
        assert_eq!(sup.checkpoint(), Ok(()));
        clock.advance(200);
        assert_eq!(sup.checkpoint(), Err(Interrupt::DeadlineExceeded));
        token.cancel();
        assert_eq!(
            sup.checkpoint(),
            Err(Interrupt::Cancelled),
            "cancellation outranks an expired deadline"
        );
    }

    #[test]
    fn unsupervised_never_interrupts() {
        let sup = Supervision::unsupervised();
        assert_eq!(sup.checkpoint(), Ok(()));
    }

    #[test]
    fn child_scope_takes_the_tighter_deadline() {
        let clock = fake();
        let parent = Supervision::new(
            CancellationToken::new(),
            Some(Deadline::after(clock.clone(), 1_000)),
        );
        let loose = parent.child(clock.clone(), Some(5_000));
        assert_eq!(
            loose.deadline().unwrap().at_ns(),
            1_000,
            "parent deadline caps the child"
        );
        let tight = parent.child(clock.clone(), Some(10));
        assert_eq!(tight.deadline().unwrap().at_ns(), 10);
        let inherited = parent.child(clock.clone(), None);
        assert_eq!(inherited.deadline().unwrap().at_ns(), 1_000);
    }

    #[test]
    fn breaker_opens_at_threshold_and_cools_down_to_half_open() {
        let clock = fake();
        let breaker = CircuitBreaker::new(clock.clone(), 3, 1_000);
        assert!(breaker.try_acquire());
        assert_eq!(breaker.record_failure(), BreakerState::Closed);
        assert_eq!(breaker.record_failure(), BreakerState::Closed);
        assert_eq!(breaker.record_failure(), BreakerState::Open);
        assert!(!breaker.try_acquire(), "open rejects requests");
        clock.advance(999);
        assert!(!breaker.try_acquire(), "still cooling down");
        clock.advance(1);
        assert_eq!(breaker.state(), BreakerState::HalfOpen);
        assert!(breaker.try_acquire(), "half-open admits a probe");
    }

    #[test]
    fn half_open_probe_outcome_decides_the_next_state() {
        let clock = fake();
        let breaker = CircuitBreaker::new(clock.clone(), 1, 100);
        breaker.record_failure();
        clock.advance(100);
        assert_eq!(breaker.state(), BreakerState::HalfOpen);
        // A failed probe re-opens for a fresh cool-down.
        assert_eq!(breaker.record_failure(), BreakerState::Open);
        clock.advance(100);
        assert_eq!(breaker.state(), BreakerState::HalfOpen);
        breaker.record_success();
        assert_eq!(breaker.state(), BreakerState::Closed);
        assert!(breaker.try_acquire());
    }

    #[test]
    fn success_resets_the_consecutive_failure_count() {
        let clock = fake();
        let breaker = CircuitBreaker::new(clock, 2, 100);
        breaker.record_failure();
        breaker.record_success();
        assert_eq!(
            breaker.record_failure(),
            BreakerState::Closed,
            "the count restarted after the success"
        );
    }

    #[test]
    fn clones_share_breaker_state() {
        let clock = fake();
        let breaker = CircuitBreaker::new(clock, 1, 100);
        let peer = breaker.clone();
        peer.record_failure();
        assert_eq!(breaker.state(), BreakerState::Open);
    }
}
