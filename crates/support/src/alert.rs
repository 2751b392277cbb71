//! Declarative alerting: timestamped metric series, an alert-rules
//! engine with hysteresis, and Prometheus-text exposition.
//!
//! A scanner only pays off operationally when someone learns *when* a
//! machine went bad. This module turns the raw telemetry the sweeps
//! already produce into that signal, in four layers:
//!
//! - [`TimeSeries`] — a bounded ring of `(t_ns, value)` samples on the
//!   [`Clock`] seam, answering the windowed queries
//!   alerting needs: [`delta`](TimeSeries::delta),
//!   [`rate_per_sec`](TimeSeries::rate_per_sec),
//!   [`quantile_over`](TimeSeries::quantile_over), and
//!   [`absent_for`](TimeSeries::absent_for).
//! - [`AlertEngine`] — evaluates declarative [`AlertRule`]s
//!   ([`AlertCondition`]: threshold, ratio-vs-baseline, rate-of-change,
//!   absence, quantile-over-window) with `for_ns` hysteresis through a
//!   deterministic `Inactive → Pending → Firing → Inactive` state
//!   machine, appending every transition to a bounded [`AlertLog`] and,
//!   when given one, to a [`FlightRecorder`] so black boxes carry alert
//!   context.
//! - [`Exposition`] — renders counters, gauges,
//!   [`HistogramSketch`] cumulative buckets, and active alerts in
//!   Prometheus text format, written as `TELEMETRY_EXPO_<label>.prom`
//!   files through the same [`Artifact`](crate::store::Artifact) writer
//!   as the `SCAN_TELEMETRY_*` JSON reports.
//! - [`MonitorCore`] — the series table, built-in plus custom rules,
//!   pass loop and series/alert exposition that the sweep and fleet
//!   monitors share around their own observe steps.
//!
//! Everything is driven by explicit `now_ns` readings, so the whole
//! plane is deterministic under [`FakeClock`](crate::obs::FakeClock).
//!
//! ```
//! use std::collections::BTreeMap;
//! use strider_support::alert::{AlertCondition, AlertEngine, AlertRule, AlertState, TimeSeries};
//!
//! let mut engine = AlertEngine::new();
//! engine.add_rule(
//!     AlertRule::new("slow_scan", "scan.duration_ns", AlertCondition::Above(1_000.0))
//!         .with_for_ns(2_000),
//! );
//! let mut metrics = BTreeMap::new();
//! let mut series = TimeSeries::new(16);
//! series.push(0, 5_000.0);
//! metrics.insert("scan.duration_ns".to_string(), series);
//!
//! engine.evaluate(&metrics, 0, None); // breach observed → Pending
//! assert_eq!(engine.state("slow_scan"), Some(AlertState::Pending));
//! engine.evaluate(&metrics, 2_000, None); // held for `for_ns` → Firing
//! assert_eq!(engine.state("slow_scan"), Some(AlertState::Firing));
//! ```

use crate::json::{FromJson, JsonError, JsonValue, ToJson};
use crate::obs::{Clock, FlightEventKind, FlightRecorder, HistogramSketch, TelemetryReport};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::path::{Path, PathBuf};

// ---------------------------------------------------------------------
// Timestamped series
// ---------------------------------------------------------------------

/// One timestamped sample in a [`TimeSeries`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimePoint {
    /// Clock reading when the sample was pushed.
    pub at_ns: u64,
    /// The sampled value.
    pub value: f64,
}

crate::impl_json!(struct TimePoint { at_ns, value });

/// A bounded ring of timestamped samples.
///
/// Pushing beyond capacity drops the oldest sample, so a continuous
/// monitor can feed a series forever without growth. Capacity is
/// clamped to at least 1 — both at construction and when deserialized —
/// so a series can never be configured to silently retain nothing.
///
/// Windowed queries take an explicit `now_ns` (the caller's clock
/// reading) rather than consulting a clock themselves; that keeps the
/// series a plain value type and evaluation deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    cap: usize,
    points: VecDeque<TimePoint>,
}

impl TimeSeries {
    /// An empty series retaining at most `cap` samples (clamped ≥ 1).
    pub fn new(cap: usize) -> Self {
        TimeSeries {
            cap: cap.max(1),
            points: VecDeque::new(),
        }
    }

    /// The retention capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Appends a sample, evicting the oldest when full.
    pub fn push(&mut self, at_ns: u64, value: f64) {
        if self.points.len() == self.cap {
            self.points.pop_front();
        }
        self.points.push_back(TimePoint { at_ns, value });
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series holds no samples.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The newest value, if any.
    pub fn last(&self) -> Option<f64> {
        self.points.back().map(|p| p.value)
    }

    /// The newest sample's timestamp, if any.
    pub fn last_at(&self) -> Option<u64> {
        self.points.back().map(|p| p.at_ns)
    }

    /// All retained samples, oldest first.
    pub fn samples(&self) -> impl Iterator<Item = &TimePoint> {
        self.points.iter()
    }

    /// All retained values, oldest first.
    pub fn values(&self) -> Vec<f64> {
        self.points.iter().map(|p| p.value).collect()
    }

    /// Mean over all retained values.
    pub fn mean(&self) -> Option<f64> {
        if self.points.is_empty() {
            return None;
        }
        Some(self.points.iter().map(|p| p.value).sum::<f64>() / self.points.len() as f64)
    }

    /// Nearest-rank quantile (`pct` in 0..=100) over all retained values.
    pub fn quantile(&self, pct: f64) -> Option<f64> {
        nearest_rank(self.points.iter().map(|p| p.value), pct)
    }

    /// Samples with `at_ns` inside the trailing window `[now_ns -
    /// window_ns, now_ns]`, oldest first.
    pub fn window(&self, window_ns: u64, now_ns: u64) -> impl Iterator<Item = &TimePoint> {
        let cutoff = now_ns.saturating_sub(window_ns);
        self.points.iter().filter(move |p| p.at_ns >= cutoff)
    }

    /// Newest minus oldest value over the trailing window; `None` with
    /// fewer than two in-window samples.
    pub fn delta(&self, window_ns: u64, now_ns: u64) -> Option<f64> {
        let mut window = self.window(window_ns, now_ns);
        let first = window.next()?;
        let last = window.last()?;
        Some(last.value - first.value)
    }

    /// [`delta`](Self::delta) divided by the in-window time span, in
    /// units per second; `None` when the span is zero or fewer than two
    /// samples are in the window.
    pub fn rate_per_sec(&self, window_ns: u64, now_ns: u64) -> Option<f64> {
        let mut window = self.window(window_ns, now_ns);
        let first = window.next()?;
        let last = window.last()?;
        let span_ns = last.at_ns.saturating_sub(first.at_ns);
        if span_ns == 0 {
            return None;
        }
        Some((last.value - first.value) / span_ns as f64 * 1e9)
    }

    /// Nearest-rank quantile over the trailing window's values.
    pub fn quantile_over(&self, pct: f64, window_ns: u64, now_ns: u64) -> Option<f64> {
        nearest_rank(self.window(window_ns, now_ns).map(|p| p.value), pct)
    }

    /// Whether the series has received no sample inside the trailing
    /// window — true for an empty series, the staleness signal absence
    /// rules key on.
    pub fn absent_for(&self, window_ns: u64, now_ns: u64) -> bool {
        let cutoff = now_ns.saturating_sub(window_ns);
        self.points.back().is_none_or(|p| p.at_ns < cutoff)
    }
}

/// Nearest-rank quantile (`pct` in 0..=100, clamped) of `values`: the
/// smallest value with at least `pct`% of the values at or below it.
/// `None` for no values.
pub fn nearest_rank(values: impl IntoIterator<Item = f64>, pct: f64) -> Option<f64> {
    let mut sorted: Vec<f64> = values.into_iter().collect();
    if sorted.is_empty() {
        return None;
    }
    sorted.sort_by(f64::total_cmp);
    let pct = pct.clamp(0.0, 100.0);
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.saturating_sub(1).min(sorted.len() - 1)])
}

impl ToJson for TimeSeries {
    fn to_json(&self) -> JsonValue {
        JsonValue::Obj(vec![
            ("cap".to_string(), self.cap.to_json()),
            ("points".to_string(), self.points.to_json()),
        ])
    }
}

impl FromJson for TimeSeries {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        let cap = usize::from_json(value.field("cap")?)?.max(1);
        let mut points = VecDeque::<TimePoint>::from_json(value.field("points")?)?;
        while points.len() > cap {
            points.pop_front();
        }
        Ok(TimeSeries { cap, points })
    }
}

// ---------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------

/// How loud an alert is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Worth a glance.
    Info,
    /// Needs attention soon.
    Warning,
    /// Needs attention now.
    Critical,
}

crate::impl_json!(
    enum Severity {
        Info,
        Warning,
        Critical,
    }
);

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Critical => "critical",
        })
    }
}

/// The predicate an [`AlertRule`] evaluates against its metric.
///
/// Every condition is evaluated against a [`TimeSeries`] (or its
/// absence) at an explicit `now_ns`, yielding breached-or-not plus the
/// observed value that decided it.
#[derive(Debug, Clone, PartialEq)]
pub enum AlertCondition {
    /// Last value strictly above the threshold.
    Above(f64),
    /// Last value strictly below the threshold.
    Below(f64),
    /// Last value strictly above `baseline * factor + floor` — the
    /// ratio-vs-baseline shape the monitor's latency rules use.
    AboveBaseline {
        /// The recorded healthy value.
        baseline: f64,
        /// Multiplicative slack on the baseline.
        factor: f64,
        /// Additive slack, so tiny baselines don't alert on noise.
        floor: f64,
    },
    /// Rate of change over the trailing window strictly above a
    /// per-second threshold.
    RateAbove {
        /// Threshold in value units per second.
        per_sec: f64,
        /// Trailing window the rate is computed over.
        window_ns: u64,
    },
    /// No sample has arrived inside the trailing window (a missing
    /// series counts as absent) — the staleness/liveness shape.
    Absent {
        /// Trailing window a sample must have landed in.
        window_ns: u64,
    },
    /// Nearest-rank quantile over the trailing window strictly above
    /// the threshold.
    QuantileAbove {
        /// Quantile in 0..=100 (e.g. 95.0).
        pct: f64,
        /// Trailing window the quantile is computed over.
        window_ns: u64,
        /// Threshold the quantile must stay at or under.
        threshold: f64,
    },
}

impl AlertCondition {
    /// Evaluates the condition, returning whether it is breached and the
    /// observed value that decided it (when one exists).
    pub fn eval(&self, series: Option<&TimeSeries>, now_ns: u64) -> (bool, Option<f64>) {
        match self {
            AlertCondition::Above(threshold) => match series.and_then(TimeSeries::last) {
                Some(v) => (v > *threshold, Some(v)),
                None => (false, None),
            },
            AlertCondition::Below(threshold) => match series.and_then(TimeSeries::last) {
                Some(v) => (v < *threshold, Some(v)),
                None => (false, None),
            },
            AlertCondition::AboveBaseline {
                baseline,
                factor,
                floor,
            } => match series.and_then(TimeSeries::last) {
                Some(v) => (v > baseline * factor + floor, Some(v)),
                None => (false, None),
            },
            AlertCondition::RateAbove { per_sec, window_ns } => {
                match series.and_then(|s| s.rate_per_sec(*window_ns, now_ns)) {
                    Some(rate) => (rate > *per_sec, Some(rate)),
                    None => (false, None),
                }
            }
            AlertCondition::Absent { window_ns } => {
                let absent = series.is_none_or(|s| s.absent_for(*window_ns, now_ns));
                (absent, series.and_then(TimeSeries::last))
            }
            AlertCondition::QuantileAbove {
                pct,
                window_ns,
                threshold,
            } => match series.and_then(|s| s.quantile_over(*pct, *window_ns, now_ns)) {
                Some(q) => (q > *threshold, Some(q)),
                None => (false, None),
            },
        }
    }
}

impl fmt::Display for AlertCondition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlertCondition::Above(t) => write!(f, "> {t}"),
            AlertCondition::Below(t) => write!(f, "< {t}"),
            AlertCondition::AboveBaseline {
                baseline,
                factor,
                floor,
            } => write!(f, "> {baseline} × {factor} + {floor}"),
            AlertCondition::RateAbove { per_sec, window_ns } => {
                write!(
                    f,
                    "rate > {per_sec}/s over {}",
                    crate::obs::fmt_ns(*window_ns)
                )
            }
            AlertCondition::Absent { window_ns } => {
                write!(f, "absent for {}", crate::obs::fmt_ns(*window_ns))
            }
            AlertCondition::QuantileAbove {
                pct,
                window_ns,
                threshold,
            } => write!(
                f,
                "p{pct} over {} > {threshold}",
                crate::obs::fmt_ns(*window_ns)
            ),
        }
    }
}

// Multi-field enum variants are beyond `impl_json!` — hand-written,
// mirroring its `{"Variant": {...}}` shape so documents stay uniform.
impl ToJson for AlertCondition {
    fn to_json(&self) -> JsonValue {
        let (variant, body) = match self {
            AlertCondition::Above(t) => ("Above", t.to_json()),
            AlertCondition::Below(t) => ("Below", t.to_json()),
            AlertCondition::AboveBaseline {
                baseline,
                factor,
                floor,
            } => (
                "AboveBaseline",
                JsonValue::Obj(vec![
                    ("baseline".to_string(), baseline.to_json()),
                    ("factor".to_string(), factor.to_json()),
                    ("floor".to_string(), floor.to_json()),
                ]),
            ),
            AlertCondition::RateAbove { per_sec, window_ns } => (
                "RateAbove",
                JsonValue::Obj(vec![
                    ("per_sec".to_string(), per_sec.to_json()),
                    ("window_ns".to_string(), window_ns.to_json()),
                ]),
            ),
            AlertCondition::Absent { window_ns } => (
                "Absent",
                JsonValue::Obj(vec![("window_ns".to_string(), window_ns.to_json())]),
            ),
            AlertCondition::QuantileAbove {
                pct,
                window_ns,
                threshold,
            } => (
                "QuantileAbove",
                JsonValue::Obj(vec![
                    ("pct".to_string(), pct.to_json()),
                    ("window_ns".to_string(), window_ns.to_json()),
                    ("threshold".to_string(), threshold.to_json()),
                ]),
            ),
        };
        JsonValue::Obj(vec![(variant.to_string(), body)])
    }
}

impl FromJson for AlertCondition {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        if let Some(t) = value.opt_field("Above") {
            return Ok(AlertCondition::Above(f64::from_json(t)?));
        }
        if let Some(t) = value.opt_field("Below") {
            return Ok(AlertCondition::Below(f64::from_json(t)?));
        }
        if let Some(body) = value.opt_field("AboveBaseline") {
            return Ok(AlertCondition::AboveBaseline {
                baseline: f64::from_json(body.field("baseline")?)?,
                factor: f64::from_json(body.field("factor")?)?,
                floor: f64::from_json(body.field("floor")?)?,
            });
        }
        if let Some(body) = value.opt_field("RateAbove") {
            return Ok(AlertCondition::RateAbove {
                per_sec: f64::from_json(body.field("per_sec")?)?,
                window_ns: u64::from_json(body.field("window_ns")?)?,
            });
        }
        if let Some(body) = value.opt_field("Absent") {
            return Ok(AlertCondition::Absent {
                window_ns: u64::from_json(body.field("window_ns")?)?,
            });
        }
        if let Some(body) = value.opt_field("QuantileAbove") {
            return Ok(AlertCondition::QuantileAbove {
                pct: f64::from_json(body.field("pct")?)?,
                window_ns: u64::from_json(body.field("window_ns")?)?,
                threshold: f64::from_json(body.field("threshold")?)?,
            });
        }
        Err(JsonError(format!(
            "no variant of AlertCondition matches {}",
            value.kind()
        )))
    }
}

/// One declarative alert: a named [`AlertCondition`] over one metric,
/// with `for_ns` hysteresis and a [`Severity`].
#[derive(Debug, Clone, PartialEq)]
pub struct AlertRule {
    /// Unique rule name; label on transitions, exposition, and flight
    /// events.
    pub name: String,
    /// The metric (series key) the condition reads.
    pub metric: String,
    /// The predicate.
    pub condition: AlertCondition,
    /// How long the condition must hold before `Pending` becomes
    /// `Firing`; 0 fires on first breach.
    pub for_ns: u64,
    /// How loud the alert is.
    pub severity: Severity,
}

crate::impl_json!(struct AlertRule { name, metric, condition, for_ns, severity });

impl AlertRule {
    /// A rule firing on first breach (`for_ns` 0) at
    /// [`Severity::Warning`].
    pub fn new(name: &str, metric: &str, condition: AlertCondition) -> Self {
        AlertRule {
            name: name.to_string(),
            metric: metric.to_string(),
            condition,
            for_ns: 0,
            severity: Severity::Warning,
        }
    }

    /// Requires the condition to hold `for_ns` before firing.
    pub fn with_for_ns(mut self, for_ns: u64) -> Self {
        self.for_ns = for_ns;
        self
    }

    /// Sets the severity.
    pub fn with_severity(mut self, severity: Severity) -> Self {
        self.severity = severity;
        self
    }
}

impl fmt::Display for AlertRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}]: {} {}",
            self.name, self.severity, self.metric, self.condition
        )?;
        if self.for_ns > 0 {
            write!(f, " for {}", crate::obs::fmt_ns(self.for_ns))?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// State machine
// ---------------------------------------------------------------------

/// Where a rule is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertState {
    /// Condition not breached.
    Inactive,
    /// Breached, waiting out `for_ns`.
    Pending,
    /// Breached for at least `for_ns` — the alert is live.
    Firing,
}

crate::impl_json!(
    enum AlertState {
        Inactive,
        Pending,
        Firing,
    }
);

impl fmt::Display for AlertState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AlertState::Inactive => "inactive",
            AlertState::Pending => "pending",
            AlertState::Firing => "firing",
        })
    }
}

/// One recorded state change of one rule.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertTransition {
    /// Clock reading at the evaluation that transitioned.
    pub at_ns: u64,
    /// The rule's name.
    pub rule: String,
    /// The rule's severity.
    pub severity: Severity,
    /// State before.
    pub from: AlertState,
    /// State after.
    pub to: AlertState,
    /// The observed value that decided the evaluation, when one exists.
    pub value: Option<f64>,
    /// Human-readable context (the condition, hold time, resolution).
    pub detail: String,
}

crate::impl_json!(struct AlertTransition { at_ns, rule, severity, from, to, value, detail });

impl fmt::Display for AlertTransition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} [{}] {} → {}",
            crate::obs::fmt_ns(self.at_ns),
            self.rule,
            self.severity,
            self.from,
            self.to
        )?;
        if !self.detail.is_empty() {
            write!(f, " ({})", self.detail)?;
        }
        Ok(())
    }
}

/// Bounded history of [`AlertTransition`]s, oldest first; once full the
/// oldest entries are dropped and counted.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertLog {
    cap: usize,
    /// Entries evicted after the log filled.
    pub dropped: u64,
    entries: VecDeque<AlertTransition>,
}

/// Default [`AlertLog`] retention.
pub const ALERT_LOG_CAPACITY: usize = 256;

impl Default for AlertLog {
    fn default() -> Self {
        Self::new(ALERT_LOG_CAPACITY)
    }
}

impl AlertLog {
    /// An empty log retaining at most `cap` transitions (clamped ≥ 1).
    pub fn new(cap: usize) -> Self {
        AlertLog {
            cap: cap.max(1),
            dropped: 0,
            entries: VecDeque::new(),
        }
    }

    /// Appends a transition, evicting (and counting) the oldest when
    /// full.
    pub fn push(&mut self, transition: AlertTransition) {
        if self.entries.len() == self.cap {
            self.entries.pop_front();
            self.dropped += 1;
        }
        self.entries.push_back(transition);
    }

    /// Retained transitions, oldest first.
    pub fn entries(&self) -> impl Iterator<Item = &AlertTransition> {
        self.entries.iter()
    }

    /// Number of retained transitions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been recorded (and nothing dropped).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total transitions ever recorded, including dropped ones.
    pub fn total(&self) -> u64 {
        self.dropped + self.entries.len() as u64
    }

    /// The newest transition, if any.
    pub fn last(&self) -> Option<&AlertTransition> {
        self.entries.back()
    }
}

impl ToJson for AlertLog {
    fn to_json(&self) -> JsonValue {
        JsonValue::Obj(vec![
            ("cap".to_string(), self.cap.to_json()),
            ("dropped".to_string(), self.dropped.to_json()),
            ("entries".to_string(), self.entries.to_json()),
        ])
    }
}

impl FromJson for AlertLog {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        let cap = usize::from_json(value.field("cap")?)?.max(1);
        let dropped = u64::from_json(value.field("dropped")?)?;
        let mut entries = VecDeque::<AlertTransition>::from_json(value.field("entries")?)?;
        let extra = entries.len().saturating_sub(cap);
        for _ in 0..extra {
            entries.pop_front();
        }
        Ok(AlertLog {
            cap,
            dropped: dropped + extra as u64,
            entries,
        })
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct RuleState {
    state: AlertState,
    /// Clock reading when the current breach streak began (meaningful in
    /// `Pending`/`Firing`).
    since_ns: u64,
    /// Lifetime transition count for this rule.
    transitions: u64,
}

/// Evaluates a set of [`AlertRule`]s against named [`TimeSeries`],
/// driving each rule's deterministic state machine.
///
/// Each [`evaluate`](Self::evaluate) pass walks the rules in insertion
/// order; a rule whose condition is breached moves `Inactive → Pending`
/// (or straight to `Firing` when `for_ns` is 0), fires once the breach
/// has held `for_ns`, and resolves back to `Inactive` the first
/// evaluation the condition clears. Every transition lands in the
/// [`AlertLog`] and, when a [`FlightRecorder`] is supplied, in the
/// flight ring as an [`FlightEventKind::Alert`] event.
#[derive(Debug, Clone, Default)]
pub struct AlertEngine {
    rules: Vec<AlertRule>,
    states: Vec<RuleState>,
    log: AlertLog,
}

impl AlertEngine {
    /// An engine with no rules and a default-capacity log.
    pub fn new() -> Self {
        Self::default()
    }

    /// An engine pre-loaded with `rules`.
    pub fn with_rules(rules: Vec<AlertRule>) -> Self {
        let mut engine = Self::new();
        for rule in rules {
            engine.add_rule(rule);
        }
        engine
    }

    /// Adds a rule (initially `Inactive`). A rule with a duplicate name
    /// replaces the existing one, resetting its state.
    pub fn add_rule(&mut self, rule: AlertRule) {
        let fresh = RuleState {
            state: AlertState::Inactive,
            since_ns: 0,
            transitions: 0,
        };
        if let Some(i) = self.rules.iter().position(|r| r.name == rule.name) {
            self.rules[i] = rule;
            self.states[i] = fresh;
        } else {
            self.rules.push(rule);
            self.states.push(fresh);
        }
    }

    /// The rules, in evaluation order.
    pub fn rules(&self) -> &[AlertRule] {
        &self.rules
    }

    /// The bounded transition history.
    pub fn log(&self) -> &AlertLog {
        &self.log
    }

    /// A named rule's current state.
    pub fn state(&self, name: &str) -> Option<AlertState> {
        self.rules
            .iter()
            .position(|r| r.name == name)
            .map(|i| self.states[i].state)
    }

    /// Whether a named rule is currently firing.
    pub fn is_firing(&self, name: &str) -> bool {
        self.state(name) == Some(AlertState::Firing)
    }

    /// The rules currently firing, in evaluation order.
    pub fn firing(&self) -> Vec<&AlertRule> {
        self.rules
            .iter()
            .zip(&self.states)
            .filter(|(_, s)| s.state == AlertState::Firing)
            .map(|(r, _)| r)
            .collect()
    }

    /// Lifetime transition count for a named rule.
    pub fn transitions(&self, name: &str) -> u64 {
        self.rules
            .iter()
            .position(|r| r.name == name)
            .map_or(0, |i| self.states[i].transitions)
    }

    /// Evaluates every rule against `metrics` at `now_ns`, returning the
    /// transitions this pass produced (also appended to the log and,
    /// when `recorder` is given, to the flight ring).
    pub fn evaluate(
        &mut self,
        metrics: &BTreeMap<String, TimeSeries>,
        now_ns: u64,
        recorder: Option<&FlightRecorder>,
    ) -> Vec<AlertTransition> {
        let mut out = Vec::new();
        for (rule, slot) in self.rules.iter().zip(self.states.iter_mut()) {
            let (breached, value) = rule.condition.eval(metrics.get(&rule.metric), now_ns);
            let next = match (slot.state, breached) {
                (AlertState::Inactive, true) => {
                    slot.since_ns = now_ns;
                    if rule.for_ns == 0 {
                        Some((AlertState::Firing, format!("{} breached", rule.condition)))
                    } else {
                        Some((
                            AlertState::Pending,
                            format!(
                                "{} breached, holding for {}",
                                rule.condition,
                                crate::obs::fmt_ns(rule.for_ns)
                            ),
                        ))
                    }
                }
                (AlertState::Pending, true) => {
                    if now_ns.saturating_sub(slot.since_ns) >= rule.for_ns {
                        Some((
                            AlertState::Firing,
                            format!(
                                "{} held {}",
                                rule.condition,
                                crate::obs::fmt_ns(now_ns.saturating_sub(slot.since_ns))
                            ),
                        ))
                    } else {
                        None
                    }
                }
                (AlertState::Pending, false) => Some((
                    AlertState::Inactive,
                    "condition cleared before hold elapsed".to_string(),
                )),
                (AlertState::Firing, false) => Some((AlertState::Inactive, "resolved".to_string())),
                (AlertState::Inactive, false) | (AlertState::Firing, true) => None,
            };
            if let Some((to, detail)) = next {
                let transition = AlertTransition {
                    at_ns: now_ns,
                    rule: rule.name.clone(),
                    severity: rule.severity,
                    from: slot.state,
                    to,
                    value,
                    detail,
                };
                slot.state = to;
                slot.transitions += 1;
                if let Some(recorder) = recorder {
                    recorder.record(
                        FlightEventKind::Alert,
                        &transition.rule,
                        &format!(
                            "{} → {}: {}",
                            transition.from, transition.to, transition.detail
                        ),
                    );
                }
                self.log.push(transition.clone());
                out.push(transition);
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// Prometheus-text exposition
// ---------------------------------------------------------------------

/// Reduces a metric name to the Prometheus charset `[a-zA-Z0-9_:]`,
/// mapping every other character to `_` and prefixing `_` when the
/// result would start with a digit. Empty input becomes `"_"`.
pub fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    if out.as_bytes()[0].is_ascii_digit() {
        out.insert(0, '_');
    }
    out
}

fn prom_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

fn prom_number(value: f64) -> String {
    if value == f64::INFINITY {
        "+Inf".to_string()
    } else if value == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{value}")
    }
}

#[derive(Debug, Clone)]
struct Family {
    kind: &'static str,
    samples: Vec<String>,
}

/// A Prometheus-text-format snapshot builder.
///
/// Families render sorted by name and samples in insertion order, so
/// the same inputs always produce byte-identical output — the property
/// test in `tests/properties.rs` leans on that. Written snapshots land
/// as `TELEMETRY_EXPO_<label>.prom` next to the other scan artifacts.
#[derive(Debug, Clone, Default)]
pub struct Exposition {
    families: BTreeMap<String, Family>,
}

impl Exposition {
    /// An empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    fn family(&mut self, name: String, kind: &'static str) -> &mut Family {
        self.families.entry(name).or_insert_with(|| Family {
            kind,
            samples: Vec::new(),
        })
    }

    /// Adds a counter sample.
    pub fn counter(&mut self, name: &str, value: u64) {
        let name = prom_name(name);
        self.family(name.clone(), "counter")
            .samples
            .push(format!("{name} {value}"));
    }

    /// Adds a counter sample with labels.
    pub fn counter_with(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        let name = prom_name(name);
        let labels = Self::render_labels(labels);
        self.family(name.clone(), "counter")
            .samples
            .push(format!("{name}{labels} {value}"));
    }

    /// Adds a gauge sample.
    pub fn gauge(&mut self, name: &str, value: f64) {
        let name = prom_name(name);
        let value = prom_number(value);
        self.family(name.clone(), "gauge")
            .samples
            .push(format!("{name} {value}"));
    }

    /// Adds a gauge sample with labels.
    pub fn gauge_with(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        let name = prom_name(name);
        let labels = Self::render_labels(labels);
        let value = prom_number(value);
        self.family(name.clone(), "gauge")
            .samples
            .push(format!("{name}{labels} {value}"));
    }

    /// Adds a histogram family from a [`HistogramSketch`]: cumulative
    /// `_bucket{le="..."}` lines per sketch bucket, a final `+Inf`
    /// bucket equal to the count, and exact `_sum`/`_count` lines.
    pub fn histogram(&mut self, name: &str, sketch: &HistogramSketch) {
        let name = prom_name(name);
        let family = self.family(name.clone(), "histogram");
        for (bound, cumulative) in sketch.cumulative_buckets() {
            family.samples.push(format!(
                "{name}_bucket{{le=\"{}\"}} {cumulative}",
                prom_number(bound)
            ));
        }
        family
            .samples
            .push(format!("{name}_bucket{{le=\"+Inf\"}} {}", sketch.count()));
        family
            .samples
            .push(format!("{name}_sum {}", prom_number(sketch.sum())));
        family
            .samples
            .push(format!("{name}_count {}", sketch.count()));
    }

    /// Adds the alerting families for an engine: one
    /// `strider_alert_active{rule,severity}` gauge per rule (1 while
    /// firing) and one `strider_alert_transitions_total{rule}` counter.
    pub fn alerts(&mut self, engine: &AlertEngine) {
        for rule in engine.rules() {
            let active = if engine.is_firing(&rule.name) {
                1.0
            } else {
                0.0
            };
            self.gauge_with(
                "strider_alert_active",
                &[
                    ("rule", rule.name.as_str()),
                    ("severity", &rule.severity.to_string()),
                ],
                active,
            );
            self.counter_with(
                "strider_alert_transitions_total",
                &[("rule", rule.name.as_str())],
                engine.transitions(&rule.name),
            );
        }
    }

    fn render_labels(labels: &[(&str, &str)]) -> String {
        if labels.is_empty() {
            return String::new();
        }
        let body: Vec<String> = labels
            .iter()
            .map(|(k, v)| format!("{}=\"{}\"", prom_name(k), prom_label_value(v)))
            .collect();
        format!("{{{}}}", body.join(","))
    }

    /// Whether no samples have been added.
    pub fn is_empty(&self) -> bool {
        self.families.is_empty()
    }

    /// Renders the snapshot: per family (sorted by name) a `# TYPE`
    /// header then its samples, one per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, family) in &self.families {
            out.push_str(&format!("# TYPE {name} {}\n", family.kind));
            for sample in &family.samples {
                out.push_str(sample);
                out.push('\n');
            }
        }
        out
    }

    /// Writes the snapshot as `TELEMETRY_EXPO_<label>.prom` into `dir`
    /// ([`Artifact::Exposition`](crate::store::Artifact::Exposition)).
    ///
    /// # Errors
    ///
    /// See [`Artifact::write`](crate::store::Artifact::write).
    pub fn write_in(&self, dir: &Path, label: &str) -> std::io::Result<PathBuf> {
        crate::store::Artifact::Exposition.write(dir, label, self.render().as_bytes())
    }
}

impl TelemetryReport {
    /// The report's counters, gauges, and histogram sketches as a
    /// Prometheus-text [`Exposition`] snapshot, plus per-phase
    /// allocation attribution (`strider_phase_allocs_total` /
    /// `strider_phase_alloc_bytes_total`, labelled by span name) from
    /// the [`crate::prof`] counting allocator.
    pub fn prometheus(&self) -> Exposition {
        let mut expo = Exposition::new();
        for (name, value) in &self.counters {
            expo.counter(name, *value);
        }
        for (name, value) in &self.gauges {
            expo.gauge(name, *value);
        }
        for (name, sketch) in &self.histograms {
            expo.histogram(name, sketch);
        }
        for (phase, total) in &self.phase_totals() {
            if total.allocs > 0 || total.alloc_bytes > 0 {
                expo.counter_with(
                    "strider_phase_allocs_total",
                    &[("phase", phase)],
                    total.allocs,
                );
                expo.counter_with(
                    "strider_phase_alloc_bytes_total",
                    &[("phase", phase)],
                    total.alloc_bytes,
                );
            }
        }
        expo
    }
}

// ---------------------------------------------------------------------
// Monitor core
// ---------------------------------------------------------------------

/// The alerting half every continuous monitor shares: one bounded
/// [`TimeSeries`] per metric, built-in plus custom [`AlertRule`]s in one
/// [`AlertEngine`], the pass loop, and the series and alert part of the
/// monitor's [`Exposition`]. A monitor keeps only its observe step: it
/// [`push`](Self::push)es what a pass measured, then
/// [`evaluate`](Self::evaluate)s.
#[derive(Debug, Clone)]
pub struct MonitorCore {
    history: usize,
    series: BTreeMap<String, TimeSeries>,
    custom: Vec<AlertRule>,
    engine: AlertEngine,
}

impl MonitorCore {
    /// A core whose series keep `history` samples (clamped ≥ 1) and
    /// whose engine evaluates the `builtin` rules.
    pub fn new(history: usize, builtin: Vec<AlertRule>) -> Self {
        MonitorCore {
            history,
            series: BTreeMap::new(),
            custom: Vec::new(),
            engine: AlertEngine::with_rules(builtin),
        }
    }

    /// Replaces the history bound (for series created from now on) and
    /// the built-in rules, keeping the custom rules. Resets every alert
    /// state and the log: a new comparison anchor makes old breach
    /// streaks meaningless.
    pub fn rebuild(&mut self, history: usize, builtin: Vec<AlertRule>) {
        self.history = history;
        let rules = builtin.into_iter().chain(self.custom.iter().cloned());
        self.engine = AlertEngine::with_rules(rules.collect());
    }

    /// Adds a custom rule, evaluated after every pass and kept across
    /// [`rebuild`](Self::rebuild)s. A rule sharing a name with an
    /// existing rule (a built-in included) replaces it and resets its
    /// state.
    pub fn add_rule(&mut self, rule: AlertRule) {
        match self.custom.iter_mut().find(|r| r.name == rule.name) {
            Some(existing) => *existing = rule.clone(),
            None => self.custom.push(rule.clone()),
        }
        self.engine.add_rule(rule);
    }

    /// Every observed metric's rolling series, by metric name.
    pub fn series(&self) -> &BTreeMap<String, TimeSeries> {
        &self.series
    }

    /// The alert engine: rule states, firing rules, and the bounded
    /// transition log.
    pub fn engine(&self) -> &AlertEngine {
        &self.engine
    }

    /// Appends a sample to a metric's series, creating the series with
    /// the core's history bound on first use.
    pub fn push(&mut self, name: &str, at_ns: u64, value: f64) {
        self.series
            .entry(name.to_string())
            .or_insert_with(|| TimeSeries::new(self.history))
            .push(at_ns, value);
    }

    /// Evaluates every rule over the series at `now_ns`; see
    /// [`AlertEngine::evaluate`].
    pub fn evaluate(
        &mut self,
        now_ns: u64,
        recorder: Option<&FlightRecorder>,
    ) -> Vec<AlertTransition> {
        self.engine.evaluate(&self.series, now_ns, recorder)
    }

    /// Adds every series' newest value to `expo` as a
    /// `<prefix><metric>` gauge, then the active-alert families (see
    /// [`Exposition::alerts`]).
    pub fn expose(&self, expo: &mut Exposition, prefix: &str) {
        for (name, series) in &self.series {
            if let Some(value) = series.last() {
                expo.gauge(&format!("{prefix}{name}"), value);
            }
        }
        expo.alerts(&self.engine);
    }

    /// Runs `passes` monitoring passes, sleeping `interval_ns` on `clock`
    /// between consecutive ones (a [`FakeClock`](crate::obs::FakeClock)
    /// makes this instant and deterministic).
    ///
    /// # Errors
    ///
    /// Stops at the first pass that fails outright.
    pub fn run<T, E>(
        clock: &dyn Clock,
        interval_ns: u64,
        passes: usize,
        mut pass: impl FnMut() -> Result<T, E>,
    ) -> Result<Vec<T>, E> {
        let mut out = Vec::with_capacity(passes);
        for i in 0..passes {
            if i > 0 {
                clock.sleep_ns(interval_ns);
            }
            out.push(pass()?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(points: &[(u64, f64)]) -> TimeSeries {
        let mut s = TimeSeries::new(64);
        for &(at, v) in points {
            s.push(at, v);
        }
        s
    }

    #[test]
    fn time_series_evicts_oldest_at_capacity() {
        let mut s = TimeSeries::new(3);
        for i in 0..5u64 {
            s.push(i * 100, i as f64);
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.values(), vec![2.0, 3.0, 4.0]);
        assert_eq!(s.last(), Some(4.0));
        assert_eq!(s.last_at(), Some(400));
        assert_eq!(s.mean(), Some(3.0));
        assert_eq!(s.quantile(0.0), Some(2.0));
        assert_eq!(s.quantile(100.0), Some(4.0));
        assert!(TimeSeries::new(2).quantile(50.0).is_none());
    }

    #[test]
    fn zero_capacity_clamps_to_one_even_through_json() {
        let mut s = TimeSeries::new(0);
        s.push(10, 1.0);
        s.push(20, 2.0);
        assert_eq!(s.len(), 1);
        assert_eq!(s.last(), Some(2.0));

        // A hand-crafted document claiming cap 0 still decodes usable.
        let doc = r#"{"cap": 0, "points": [{"at_ns": 1, "value": 9.5}]}"#;
        let parsed = TimeSeries::from_json(&JsonValue::parse(doc).unwrap()).unwrap();
        assert_eq!(parsed.capacity(), 1);
        assert_eq!(parsed.last(), Some(9.5));
    }

    #[test]
    fn time_series_round_trips_through_json() {
        let s = series(&[(100, 1.5), (200, 2.5), (300, -3.0)]);
        let parsed = TimeSeries::from_json(&JsonValue::parse(&s.to_json().render()).unwrap());
        assert_eq!(parsed.unwrap(), s);
    }

    #[test]
    fn windowed_queries_respect_the_cutoff() {
        let s = series(&[(0, 10.0), (500, 20.0), (1_000, 26.0)]);
        // Window [400, 1000] sees the last two points.
        assert_eq!(s.delta(600, 1_000), Some(6.0));
        let rate = s.rate_per_sec(600, 1_000).unwrap();
        assert!((rate - 6.0 / 500.0 * 1e9).abs() < 1e-6);
        // Whole history.
        assert_eq!(s.delta(u64::MAX, 1_000), Some(16.0));
        // One in-window sample → no delta/rate.
        assert_eq!(s.delta(100, 1_000), None);
        assert_eq!(s.rate_per_sec(100, 1_000), None);
        // Quantiles over the window.
        assert_eq!(s.quantile_over(100.0, 600, 1_000), Some(26.0));
        assert_eq!(s.quantile_over(0.0, u64::MAX, 1_000), Some(10.0));
    }

    #[test]
    fn absence_tracks_the_newest_sample() {
        let s = series(&[(1_000, 1.0)]);
        assert!(!s.absent_for(500, 1_200)); // sample at 1000 >= cutoff 700
        assert!(s.absent_for(500, 2_000)); // cutoff 1500 > 1000
        assert!(TimeSeries::new(4).absent_for(u64::MAX, 0));
    }

    #[test]
    fn rate_is_none_when_span_is_zero() {
        let s = series(&[(100, 1.0), (100, 5.0)]);
        assert_eq!(s.rate_per_sec(u64::MAX, 100), None);
    }

    #[test]
    fn conditions_serialize_and_round_trip() {
        for condition in [
            AlertCondition::Above(1.5),
            AlertCondition::Below(-2.0),
            AlertCondition::AboveBaseline {
                baseline: 100.0,
                factor: 3.0,
                floor: 50.0,
            },
            AlertCondition::RateAbove {
                per_sec: 10.0,
                window_ns: 1_000,
            },
            AlertCondition::Absent { window_ns: 5_000 },
            AlertCondition::QuantileAbove {
                pct: 95.0,
                window_ns: 2_000,
                threshold: 7.0,
            },
        ] {
            let json = condition.to_json().render();
            let parsed = AlertCondition::from_json(&JsonValue::parse(&json).unwrap()).unwrap();
            assert_eq!(parsed, condition);
        }
    }

    #[test]
    fn hysteresis_holds_pending_until_for_ns_elapses() {
        let mut engine = AlertEngine::new();
        engine.add_rule(
            AlertRule::new("hot", "m", AlertCondition::Above(10.0))
                .with_for_ns(1_000)
                .with_severity(Severity::Critical),
        );
        let mut metrics = BTreeMap::new();
        metrics.insert("m".to_string(), series(&[(0, 50.0)]));

        let t = engine.evaluate(&metrics, 0, None);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].to, AlertState::Pending);
        // Still inside the hold — no new transition, not firing.
        assert!(engine.evaluate(&metrics, 999, None).is_empty());
        assert_eq!(engine.state("hot"), Some(AlertState::Pending));
        assert!(engine.firing().is_empty());
        // Hold elapses exactly at for_ns.
        let t = engine.evaluate(&metrics, 1_000, None);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].to, AlertState::Firing);
        assert!(engine.is_firing("hot"));
        // Clears → resolves in one pass.
        metrics.get_mut("m").unwrap().push(1_500, 1.0);
        let t = engine.evaluate(&metrics, 1_500, None);
        assert_eq!(t[0].to, AlertState::Inactive);
        assert_eq!(engine.transitions("hot"), 3);
        assert_eq!(engine.log().len(), 3);
    }

    #[test]
    fn pending_that_clears_never_fires() {
        let mut engine = AlertEngine::new();
        engine.add_rule(AlertRule::new("hot", "m", AlertCondition::Above(10.0)).with_for_ns(1_000));
        let mut metrics = BTreeMap::new();
        metrics.insert("m".to_string(), series(&[(0, 50.0)]));
        engine.evaluate(&metrics, 0, None);
        metrics.get_mut("m").unwrap().push(500, 1.0);
        let t = engine.evaluate(&metrics, 500, None);
        assert_eq!(t[0].from, AlertState::Pending);
        assert_eq!(t[0].to, AlertState::Inactive);
        assert!(engine.log().entries().all(|e| e.to != AlertState::Firing));
    }

    #[test]
    fn for_ns_zero_fires_on_first_breach_and_refires() {
        let mut engine = AlertEngine::new();
        engine.add_rule(AlertRule::new("hot", "m", AlertCondition::Above(10.0)));
        let mut metrics = BTreeMap::new();
        metrics.insert("m".to_string(), series(&[(0, 50.0)]));
        assert_eq!(engine.evaluate(&metrics, 0, None)[0].to, AlertState::Firing);
        metrics.get_mut("m").unwrap().push(100, 1.0);
        assert_eq!(
            engine.evaluate(&metrics, 100, None)[0].to,
            AlertState::Inactive
        );
        metrics.get_mut("m").unwrap().push(200, 99.0);
        assert_eq!(
            engine.evaluate(&metrics, 200, None)[0].to,
            AlertState::Firing
        );
        assert_eq!(engine.transitions("hot"), 3);
    }

    #[test]
    fn absent_rule_fires_for_missing_and_stale_series() {
        let mut engine = AlertEngine::new();
        engine.add_rule(AlertRule::new(
            "stale",
            "heartbeat",
            AlertCondition::Absent { window_ns: 1_000 },
        ));
        // Missing series counts as absent.
        assert!(!engine.evaluate(&BTreeMap::new(), 0, None).is_empty());
        assert!(engine.is_firing("stale"));
        // A fresh sample resolves it.
        let mut metrics = BTreeMap::new();
        metrics.insert("heartbeat".to_string(), series(&[(5_000, 1.0)]));
        engine.evaluate(&metrics, 5_100, None);
        assert!(!engine.is_firing("stale"));
        // Going stale re-fires it.
        engine.evaluate(&metrics, 7_000, None);
        assert!(engine.is_firing("stale"));
    }

    #[test]
    fn transitions_land_in_the_flight_recorder() {
        use crate::obs::FakeClock;
        use std::sync::Arc;
        let clock = Arc::new(FakeClock::new());
        let recorder = FlightRecorder::new(clock);
        let mut engine = AlertEngine::new();
        engine.add_rule(AlertRule::new("hot", "m", AlertCondition::Above(10.0)));
        let mut metrics = BTreeMap::new();
        metrics.insert("m".to_string(), series(&[(0, 50.0)]));
        engine.evaluate(&metrics, 0, Some(&recorder));
        let dump = recorder.snapshot();
        assert_eq!(dump.len(), 1);
        assert_eq!(dump.events[0].kind, FlightEventKind::Alert);
        assert_eq!(dump.events[0].what, "hot");
        assert!(dump.events[0].detail.contains("inactive → firing"));
    }

    #[test]
    fn alert_log_bounds_and_counts_drops() {
        let mut log = AlertLog::new(2);
        for i in 0..5u64 {
            log.push(AlertTransition {
                at_ns: i,
                rule: "r".to_string(),
                severity: Severity::Info,
                from: AlertState::Inactive,
                to: AlertState::Firing,
                value: None,
                detail: String::new(),
            });
        }
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped, 3);
        assert_eq!(log.total(), 5);
        assert_eq!(log.last().unwrap().at_ns, 4);
        // Round-trip keeps the accounting.
        let parsed = AlertLog::from_json(&JsonValue::parse(&log.to_json().render()).unwrap());
        assert_eq!(parsed.unwrap(), log);
    }

    #[test]
    fn prom_name_maps_to_the_legal_charset() {
        assert_eq!(prom_name("files.duration_ns"), "files_duration_ns");
        assert_eq!(prom_name("sweep:total"), "sweep:total");
        assert_eq!(prom_name("9lives"), "_9lives");
        assert_eq!(prom_name(""), "_");
    }

    #[test]
    fn exposition_renders_sorted_families_with_type_headers() {
        let mut expo = Exposition::new();
        expo.gauge("zeta", 1.5);
        expo.counter("alpha.total", 7);
        expo.gauge_with("zeta", &[("shard", "s-1")], 2.0);
        let text = expo.render();
        let alpha = text.find("# TYPE alpha_total counter").unwrap();
        let zeta = text.find("# TYPE zeta gauge").unwrap();
        assert!(alpha < zeta);
        assert!(text.contains("alpha_total 7\n"));
        assert!(text.contains("zeta{shard=\"s-1\"} 2\n"));
        // Deterministic: re-render is byte-identical.
        assert_eq!(expo.render(), text);
    }

    #[test]
    fn histogram_exposition_is_cumulative_and_sums_exactly() {
        let mut sketch = HistogramSketch::new();
        sketch.record(0.0);
        sketch.record(100.0);
        sketch.record(100.0);
        sketch.record(10_000.0);
        let mut expo = Exposition::new();
        expo.histogram("probe.ns", &sketch);
        let text = expo.render();
        assert!(text.contains("# TYPE probe_ns histogram"));
        assert!(text.contains("probe_ns_bucket{le=\"0\"} 1\n"));
        assert!(text.contains("probe_ns_bucket{le=\"+Inf\"} 4\n"));
        assert!(text.contains("probe_ns_count 4\n"));
        assert!(text.contains("probe_ns_sum 10200\n"));
        // Cumulative counts never decrease.
        let mut previous = 0u64;
        for line in text.lines().filter(|l| l.contains("_bucket")) {
            let count: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(count >= previous, "bucket counts must be cumulative");
            previous = count;
        }
    }

    #[test]
    fn active_alerts_appear_in_the_exposition() {
        let mut engine = AlertEngine::new();
        engine.add_rule(
            AlertRule::new("hot", "m", AlertCondition::Above(10.0))
                .with_severity(Severity::Critical),
        );
        engine.add_rule(AlertRule::new("cold", "m", AlertCondition::Below(-10.0)));
        let mut metrics = BTreeMap::new();
        metrics.insert("m".to_string(), series(&[(0, 50.0)]));
        engine.evaluate(&metrics, 0, None);
        let mut expo = Exposition::new();
        expo.alerts(&engine);
        let text = expo.render();
        assert!(text.contains("strider_alert_active{rule=\"hot\",severity=\"critical\"} 1\n"));
        assert!(text.contains("strider_alert_active{rule=\"cold\",severity=\"warning\"} 0\n"));
        assert!(text.contains("strider_alert_transitions_total{rule=\"hot\"} 1\n"));
    }

    #[test]
    fn exposition_writes_a_prom_file() {
        let dir = std::env::temp_dir().join("strider_alert_expo_test");
        std::fs::create_dir_all(&dir).unwrap();
        let mut expo = Exposition::new();
        expo.counter("sweeps.total", 3);
        let path = expo.write_in(&dir, "unit label!").unwrap();
        assert!(path.ends_with("TELEMETRY_EXPO_unit_label.prom"));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("sweeps_total 3"));
        std::fs::remove_file(&path).unwrap();
        assert!(Exposition::new().write_in(&dir, "///").is_err());
    }

    #[test]
    fn rule_round_trips_and_displays() {
        let rule = AlertRule::new(
            "latency.files",
            "files.duration_ns",
            AlertCondition::AboveBaseline {
                baseline: 1_000.0,
                factor: 3.0,
                floor: 500.0,
            },
        )
        .with_for_ns(2_000_000)
        .with_severity(Severity::Warning);
        let parsed = AlertRule::from_json(&JsonValue::parse(&rule.to_json().render()).unwrap());
        assert_eq!(parsed.unwrap(), rule);
        let line = rule.to_string();
        assert!(line.contains("latency.files"));
        assert!(line.contains("warning"));
    }
}
