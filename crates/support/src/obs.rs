//! Structured tracing + metrics replacing `tracing` + `metrics`.
//!
//! GhostBuster's detection story is all provenance — *which* view said
//! what, *where* in the API chain a result mutated, *how long* each scan
//! phase took — so the pipeline needs a telemetry layer that can record
//! that provenance without reaching for crates.io. This module provides:
//!
//! * hierarchical **spans** with monotonic timings ([`Telemetry::span`]
//!   returns a [`SpanGuard`] that closes the span on drop), carrying typed
//!   attributes ([`AttrValue`]) and point-in-time [`SpanEvent`]s,
//! * **counters / gauges / histograms** in the same registry
//!   ([`Telemetry::counter_add`], [`Telemetry::gauge_set`],
//!   [`Telemetry::histogram_record`]),
//! * a **global-free handle**: [`Telemetry`] is a cheap `Clone` over shared
//!   state, threaded explicitly through the scanners — no `static`
//!   subscriber, so two sweeps never bleed into each other,
//! * an **off state**: [`Telemetry::off`] (also its `Default`) is the
//!   handle every scanner starts with. Every method on it is a no-op that
//!   reads no clock, allocates nothing and opens no [`crate::prof`]
//!   scope, so instrumented code reads straight-line and this module is
//!   the one place that decides whether a run is instrumented;
//!   [`Telemetry::is_on`] serves the few callers that must report an
//!   `Option`,
//! * a **JSON exporter**: [`Telemetry::report`] freezes everything into a
//!   [`TelemetryReport`] that round-trips through the [`crate::json`]
//!   machinery and can be written as a `SCAN_TELEMETRY_<label>.json` file
//!   next to the `BENCH_*.json` reports,
//! * a **clock seam**: wall time is read through the [`Clock`] trait so
//!   tests inject a [`FakeClock`] and assert exact durations instead of
//!   sleeping,
//! * a **flight recorder**: every live registry owns a bounded, always-on
//!   [`FlightRecorder`] ring buffer of timestamped [`FlightEvent`]s (span
//!   starts/ends, counter deltas, fault/breaker/cancel marks) with O(1)
//!   record cost; [`FlightRecorder::snapshot`] freezes the surviving tail
//!   into a [`FlightDump`] so a degraded pipeline can ship its own black
//!   box,
//! * **bounded histograms**: [`Telemetry::histogram_record`] feeds a
//!   log-linear [`HistogramSketch`] (HDR-style buckets, mergeable, bounded
//!   memory) instead of buffering raw samples, so hot scan loops can record
//!   per-entry latencies forever without unbounded growth,
//! * a **Chrome-trace exporter**: [`TelemetryReport::chrome_trace`] emits
//!   the span forest in the `trace_event` JSON array format (stable
//!   tid/pid per pipeline thread) that opens directly in Perfetto or
//!   `chrome://tracing`. The [`chrome`] module is the one place that
//!   builds trace event objects, and
//!   [`TelemetryReport::append_chrome_events`] writes a report onto lanes
//!   a merged trace (a fleet's) assigns it.

use crate::json::{JsonValue, ToJson};
use crate::sync::Mutex;
use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

// ---------------------------------------------------------------------
// Clock seam
// ---------------------------------------------------------------------

/// A monotonic nanosecond clock. Production code uses [`MonotonicClock`];
/// tests inject a [`FakeClock`] for exact, non-flaky duration assertions.
pub trait Clock: Send + Sync {
    /// Nanoseconds since an arbitrary (per-clock) origin; never decreases.
    fn now_ns(&self) -> u64;

    /// Blocks (or pretends to) for `ns` nanoseconds — the seam retry
    /// backoff goes through so tests with a [`FakeClock`] never actually
    /// sleep. The default is a no-op.
    fn sleep_ns(&self, _ns: u64) {}
}

/// Wall clock anchored to an [`Instant`] taken at construction.
#[derive(Debug, Clone)]
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    /// A clock whose origin is "now".
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for MonotonicClock {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn sleep_ns(&self, ns: u64) {
        crate::prof::note_wait_ns(ns);
        std::thread::sleep(std::time::Duration::from_nanos(ns));
    }
}

/// A manually-advanced clock for deterministic tests.
#[derive(Debug, Default)]
pub struct FakeClock {
    now: AtomicU64,
}

impl FakeClock {
    /// A clock stopped at 0 ns.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the clock by `ns` nanoseconds.
    pub fn advance(&self, ns: u64) {
        self.now.fetch_add(ns, Ordering::SeqCst);
    }

    /// Sets the clock to an absolute value.
    pub fn set(&self, ns: u64) {
        self.now.store(ns, Ordering::SeqCst);
    }
}

impl Clock for FakeClock {
    fn now_ns(&self) -> u64 {
        self.now.load(Ordering::SeqCst)
    }

    fn sleep_ns(&self, ns: u64) {
        crate::prof::note_wait_ns(ns);
        self.advance(ns);
    }
}

// ---------------------------------------------------------------------
// Attribute values and events
// ---------------------------------------------------------------------

/// A typed span/event attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// A string attribute.
    Str(String),
    /// An unsigned integer attribute (entry counts, byte counts).
    UInt(u64),
    /// A signed integer attribute.
    Int(i64),
    /// A floating-point attribute.
    Float(f64),
    /// A boolean attribute.
    Bool(bool),
}

crate::impl_json!(
    enum AttrValue {
        Str(String),
        UInt(u64),
        Int(i64),
        Float(f64),
        Bool(bool),
    }
);

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::Str(s) => f.write_str(s),
            AttrValue::UInt(n) => write!(f, "{n}"),
            AttrValue::Int(n) => write!(f, "{n}"),
            AttrValue::Float(x) => write!(f, "{x}"),
            AttrValue::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<&str> for AttrValue {
    fn from(s: &str) -> Self {
        AttrValue::Str(s.to_string())
    }
}
impl From<String> for AttrValue {
    fn from(s: String) -> Self {
        AttrValue::Str(s)
    }
}
impl From<u64> for AttrValue {
    fn from(n: u64) -> Self {
        AttrValue::UInt(n)
    }
}
impl From<usize> for AttrValue {
    fn from(n: usize) -> Self {
        AttrValue::UInt(n as u64)
    }
}
impl From<u32> for AttrValue {
    fn from(n: u32) -> Self {
        AttrValue::UInt(u64::from(n))
    }
}
impl From<i64> for AttrValue {
    fn from(n: i64) -> Self {
        AttrValue::Int(n)
    }
}
impl From<f64> for AttrValue {
    fn from(x: f64) -> Self {
        AttrValue::Float(x)
    }
}
impl From<bool> for AttrValue {
    fn from(b: bool) -> Self {
        AttrValue::Bool(b)
    }
}

/// Lazily formatted: `format_args!` is rendered only when the span
/// records, so an off [`Telemetry`] never builds the string.
impl From<fmt::Arguments<'_>> for AttrValue {
    fn from(args: fmt::Arguments<'_>) -> Self {
        AttrValue::Str(args.to_string())
    }
}

/// A point-in-time event recorded inside a span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Event name.
    pub name: String,
    /// Clock value when the event fired.
    pub at_ns: u64,
    /// Typed payload.
    pub attrs: Vec<(String, AttrValue)>,
}

crate::impl_json!(struct SpanEvent { name, at_ns, attrs });

// ---------------------------------------------------------------------
// Log-linear histogram sketch
// ---------------------------------------------------------------------

/// Relative bucket growth factor: consecutive bucket boundaries differ by
/// 2%, so any quantile answer is within ~1% (half a bucket) of the true
/// sample in relative terms.
const SKETCH_GAMMA: f64 = 1.02;

/// Hard cap on the number of log-linear buckets a sketch may hold. With
/// `SKETCH_GAMMA = 1.02` this spans > 40 orders of magnitude before any
/// collapsing occurs, and bounds sketch memory at roughly
/// `SKETCH_MAX_BUCKETS * 16` bytes regardless of how many samples are
/// recorded.
pub const SKETCH_MAX_BUCKETS: usize = 2048;

/// A mergeable, bounded-memory log-linear histogram (DDSketch/HDR style).
///
/// Samples land in buckets whose boundaries grow geometrically
/// (γ = 1.02); the sketch stores only per-bucket counts plus exact
/// `count / sum / min / max`, so memory is bounded by
/// [`SKETCH_MAX_BUCKETS`] no matter how many samples are recorded —
/// recording a million samples costs the same as recording a hundred.
/// Quantiles come back as bucket representatives with a guaranteed
/// relative error of half a bucket (~1% at γ = 1.02), clamped to the
/// exact observed `[min, max]`.
///
/// Two sketches over disjoint sample sets [`merge`](Self::merge) into the
/// sketch of the union: bucket counts add, so quantiles of the merged
/// sketch equal quantiles of a single sketch fed every sample.
///
/// Non-finite samples are ignored; zero and negative samples are counted
/// in a dedicated underflow bucket represented by the observed minimum.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HistogramSketch {
    /// Log-linear bucket counts keyed by `ceil(ln(v) / ln(γ))`.
    buckets: BTreeMap<i32, u64>,
    /// Samples `<= 0` (no logarithm): the underflow bucket.
    zero_count: u64,
    /// Total samples recorded.
    count: u64,
    /// Exact running sum (for [`mean`](Self::mean)).
    sum: f64,
    /// Smallest sample seen.
    min: f64,
    /// Largest sample seen.
    max: f64,
}

crate::impl_json!(struct HistogramSketch { buckets, zero_count, count, sum, min, max });

impl HistogramSketch {
    /// An empty sketch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample in O(log buckets). Non-finite values are
    /// dropped; everything else lands in a bucket.
    pub fn record(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value;
        if value <= 0.0 {
            self.zero_count += 1;
        } else {
            let index = (value.ln() / SKETCH_GAMMA.ln()).ceil() as i32;
            *self.buckets.entry(index).or_insert(0) += 1;
            self.enforce_cap();
        }
    }

    /// Folds another sketch into this one; afterwards `self` reports the
    /// union of both sample sets.
    pub fn merge(&mut self, other: &HistogramSketch) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum += other.sum;
        self.zero_count += other.zero_count;
        for (&index, &n) in &other.buckets {
            *self.buckets.entry(index).or_insert(0) += n;
        }
        self.enforce_cap();
    }

    /// Collapses the lowest buckets together whenever the cap is exceeded
    /// — the cheap end of a latency distribution is the least interesting,
    /// so precision is sacrificed there first.
    fn enforce_cap(&mut self) {
        while self.buckets.len() > SKETCH_MAX_BUCKETS {
            let (&lowest, &n) = self.buckets.iter().next().expect("len > cap > 0");
            self.buckets.remove(&lowest);
            let (_, next) = self
                .buckets
                .iter_mut()
                .next()
                .expect("cap >= 1 leaves a bucket");
            *next += n;
        }
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Number of live log-linear buckets (always `<=`
    /// [`SKETCH_MAX_BUCKETS`]).
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Exact mean of all recorded samples.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        Some(self.sum / self.count as f64)
    }

    /// Exact running sum of all recorded samples (0.0 when empty). SLO
    /// and rate rules divide this by [`count`](Self::count); Prometheus
    /// exposition emits it as the `_sum` line.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// The sketch's cumulative bucket view: `(upper_bound, cumulative
    /// count)` pairs in ascending bound order, exactly the shape a
    /// Prometheus `_bucket{le="..."}` series wants. The underflow bucket
    /// (samples `<= 0`) appears as bound `0`; the caller supplies the
    /// final `+Inf` bucket from [`count`](Self::count).
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut out = Vec::with_capacity(self.buckets.len() + 1);
        let mut cumulative = 0u64;
        if self.zero_count > 0 {
            cumulative += self.zero_count;
            out.push((0.0, cumulative));
        }
        for (&index, &n) in &self.buckets {
            cumulative += n;
            out.push((SKETCH_GAMMA.powi(index), cumulative));
        }
        out
    }

    /// Smallest recorded sample.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Percentile (`pct` in `0..=100`) at the rounded rank
    /// `round(pct/100 · (n−1))`, not nearest-rank. The answer is a bucket
    /// representative within half a bucket (~1% relative at γ = 1.02) of
    /// the true sample, clamped to the exact observed range.
    pub fn percentile(&self, pct: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((pct.clamp(0.0, 100.0) / 100.0) * (self.count - 1) as f64).round() as u64;
        // The extremes are tracked exactly; answer them without touching
        // the buckets so p0/p100 never pay the bucket error.
        if rank == 0 {
            return Some(self.min);
        }
        if rank == self.count - 1 {
            return Some(self.max);
        }
        let mut seen = self.zero_count;
        let mut value = if self.zero_count > 0 {
            // Underflow bucket: representative is the observed minimum
            // (exact when all non-positive samples are equal).
            self.min.min(0.0)
        } else {
            self.min
        };
        if rank >= seen {
            for (&index, &n) in &self.buckets {
                seen += n;
                if rank < seen {
                    // Geometric midpoint of (γ^(i-1), γ^i].
                    value = SKETCH_GAMMA.powi(index) / SKETCH_GAMMA.sqrt();
                    break;
                }
            }
        }
        Some(value.clamp(self.min, self.max))
    }
}

// ---------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------

/// Default ring capacity for a [`FlightRecorder`]: enough to hold the
/// events leading up to a pipeline failure while keeping a snapshot small
/// enough to embed in every degraded `SweepReport`.
pub const FLIGHT_CAPACITY: usize = 256;

/// What kind of moment a [`FlightEvent`] captures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightEventKind {
    /// A span opened.
    SpanStart,
    /// A span closed.
    SpanEnd,
    /// A counter was incremented.
    Counter,
    /// A gauge was set.
    Gauge,
    /// A fault surfaced (stall, transient device error, corruption).
    Fault,
    /// A circuit breaker gated or tripped.
    Breaker,
    /// A cancellation or deadline interrupt was observed.
    Cancel,
    /// An alert rule changed state (see [`crate::alert::AlertEngine`]).
    Alert,
    /// A free-form caller annotation.
    Mark,
}

crate::impl_json!(
    enum FlightEventKind {
        SpanStart,
        SpanEnd,
        Counter,
        Gauge,
        Fault,
        Breaker,
        Cancel,
        Alert,
        Mark,
    }
);

impl fmt::Display for FlightEventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let label = match self {
            FlightEventKind::SpanStart => "span-start",
            FlightEventKind::SpanEnd => "span-end",
            FlightEventKind::Counter => "counter",
            FlightEventKind::Gauge => "gauge",
            FlightEventKind::Fault => "fault",
            FlightEventKind::Breaker => "breaker",
            FlightEventKind::Cancel => "cancel",
            FlightEventKind::Alert => "alert",
            FlightEventKind::Mark => "mark",
        };
        f.write_str(label)
    }
}

/// One timestamped entry in the flight-recorder ring.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightEvent {
    /// Monotonic sequence number across the recorder's whole lifetime
    /// (keeps ordering legible even after the ring has wrapped).
    pub seq: u64,
    /// Clock reading when the event was recorded.
    pub at_ns: u64,
    /// What kind of moment this is.
    pub kind: FlightEventKind,
    /// The subject — a span/counter name, device, or breaker.
    pub what: String,
    /// Free-form detail (delta, duration, failure reason).
    pub detail: String,
}

crate::impl_json!(struct FlightEvent { seq, at_ns, kind, what, detail });

impl fmt::Display for FlightEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#{} {} {} {}",
            self.seq,
            fmt_ns(self.at_ns),
            self.kind,
            self.what
        )?;
        if !self.detail.is_empty() {
            write!(f, " ({})", self.detail)?;
        }
        Ok(())
    }
}

/// A frozen snapshot of the flight-recorder tail: the last
/// `<= capacity` events in chronological order, plus how many older
/// events the ring had already dropped.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FlightDump {
    /// Surviving events, oldest first.
    pub events: Vec<FlightEvent>,
    /// Events overwritten before this snapshot was taken.
    pub dropped: u64,
    /// The ring capacity at snapshot time.
    pub capacity: u64,
}

crate::impl_json!(struct FlightDump { events, dropped, capacity });

impl FlightDump {
    /// Whether the dump holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of surviving events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// The newest surviving event — for a black box snapshotted at a
    /// failure, the failure itself.
    pub fn last(&self) -> Option<&FlightEvent> {
        self.events.last()
    }

    /// One line per event, oldest first.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.dropped > 0 {
            out.push_str(&format!("… {} earlier events dropped\n", self.dropped));
        }
        for event in &self.events {
            out.push_str(&format!("{event}\n"));
        }
        out
    }
}

#[derive(Debug)]
struct FlightRing {
    /// Ring storage; grows to `capacity` then wraps.
    events: Vec<FlightEvent>,
    /// Next write position once the ring is full.
    next: usize,
    /// Lifetime sequence counter (== total events ever recorded).
    seq: u64,
}

struct Ring {
    clock: Arc<dyn Clock>,
    capacity: usize,
    state: Mutex<FlightRing>,
}

/// A bounded, always-on ring buffer of timestamped [`FlightEvent`]s, or
/// the inert [`FlightRecorder::off`] recorder an off [`Telemetry`] hands
/// out, which records nothing and snapshots empty.
///
/// Recording is O(1): the ring overwrites its oldest entry once full, so
/// the recorder can run for the lifetime of a continuous monitor without
/// growing. Cloning yields another handle onto the same ring — the
/// telemetry registry, the fault-injecting machine, and the sweep
/// supervisor all write into one shared black box.
#[derive(Clone)]
pub struct FlightRecorder {
    ring: Option<Arc<Ring>>,
}

/// What [`Telemetry::recorder`] lends out when the registry is off.
static OFF_RECORDER: FlightRecorder = FlightRecorder::off();

impl fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let recorded = self.ring.as_ref().map_or(0, |r| r.state.lock().seq);
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.capacity())
            .field("recorded", &recorded)
            .finish_non_exhaustive()
    }
}

impl FlightRecorder {
    /// A recorder with the default [`FLIGHT_CAPACITY`].
    pub fn new(clock: Arc<dyn Clock>) -> Self {
        Self::with_capacity(clock, FLIGHT_CAPACITY)
    }

    /// A recorder holding at most `capacity` events (min 1).
    pub fn with_capacity(clock: Arc<dyn Clock>, capacity: usize) -> Self {
        Self {
            ring: Some(Arc::new(Ring {
                clock,
                capacity: capacity.max(1),
                state: Mutex::new(FlightRing {
                    events: Vec::new(),
                    next: 0,
                    seq: 0,
                }),
            })),
        }
    }

    /// A recorder that records nothing: capacity 0, empty snapshots.
    pub const fn off() -> Self {
        Self { ring: None }
    }

    /// The ring capacity (0 when off).
    pub fn capacity(&self) -> usize {
        self.ring.as_ref().map_or(0, |r| r.capacity)
    }

    /// Records one event in O(1); a no-op when off.
    pub fn record(&self, kind: FlightEventKind, what: &str, detail: &str) {
        let Some(r) = &self.ring else {
            return;
        };
        let at_ns = r.clock.now_ns();
        let mut ring = r.state.lock();
        let event = FlightEvent {
            seq: ring.seq,
            at_ns,
            kind,
            what: what.to_string(),
            detail: detail.to_string(),
        };
        ring.seq += 1;
        if ring.events.len() < r.capacity {
            ring.events.push(event);
        } else {
            let next = ring.next;
            ring.events[next] = event;
            ring.next = (next + 1) % r.capacity;
        }
    }

    /// Records a [`FlightEventKind::Fault`] event.
    pub fn fault(&self, what: &str, detail: &str) {
        self.record(FlightEventKind::Fault, what, detail);
    }

    /// Records a [`FlightEventKind::Breaker`] event.
    pub fn breaker(&self, what: &str, detail: &str) {
        self.record(FlightEventKind::Breaker, what, detail);
    }

    /// Records a [`FlightEventKind::Cancel`] event.
    pub fn cancel(&self, what: &str, detail: &str) {
        self.record(FlightEventKind::Cancel, what, detail);
    }

    /// Records a free-form [`FlightEventKind::Mark`] annotation.
    pub fn mark(&self, what: &str, detail: &str) {
        self.record(FlightEventKind::Mark, what, detail);
    }

    /// Freezes the surviving tail into a chronological [`FlightDump`]
    /// (empty when off).
    pub fn snapshot(&self) -> FlightDump {
        let Some(r) = &self.ring else {
            return FlightDump::default();
        };
        let ring = r.state.lock();
        let mut events = Vec::with_capacity(ring.events.len());
        if ring.events.len() < r.capacity {
            events.extend(ring.events.iter().cloned());
        } else {
            events.extend(ring.events[ring.next..].iter().cloned());
            events.extend(ring.events[..ring.next].iter().cloned());
        }
        FlightDump {
            dropped: ring.seq - events.len() as u64,
            capacity: r.capacity as u64,
            events,
        }
    }
}

// ---------------------------------------------------------------------
// The registry
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
struct SpanSlot {
    name: String,
    start_ns: u64,
    end_ns: Option<u64>,
    tid: u64,
    attrs: Vec<(String, AttrValue)>,
    events: Vec<SpanEvent>,
    children: Vec<usize>,
    /// Allocation/wait attribution, written once when the guard closes
    /// on its opening thread (see [`crate::prof`]); zero for spans
    /// still open at report time or closed cross-thread.
    allocs: u64,
    alloc_bytes: u64,
    peak_bytes: u64,
    wait_ns: u64,
}

#[derive(Debug, Default)]
struct State {
    spans: Vec<SpanSlot>,
    stack: Vec<usize>,
    roots: Vec<usize>,
    /// OS threads that have opened spans, in first-seen order; a span's
    /// `tid` is its opener's index here. Dense and stable, unlike
    /// [`std::thread::ThreadId`], so it survives a JSON round-trip and
    /// maps directly onto Chrome-trace `tid`s.
    threads: Vec<(std::thread::ThreadId, String)>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, HistogramSketch>,
}

impl State {
    /// The dense, registry-stable id of the calling thread, registering
    /// it (with its name) on first sight.
    fn current_tid(&mut self) -> u64 {
        let current = std::thread::current();
        if let Some(pos) = self.threads.iter().position(|(id, _)| *id == current.id()) {
            return pos as u64;
        }
        let name = current
            .name()
            .map(str::to_string)
            .unwrap_or_else(|| format!("thread-{}", self.threads.len()));
        self.threads.push((current.id(), name));
        (self.threads.len() - 1) as u64
    }
}

struct Inner {
    clock: Arc<dyn Clock>,
    recorder: FlightRecorder,
    state: Mutex<State>,
}

/// The global-free tracing + metrics registry, or its off state.
///
/// Cloning a `Telemetry` yields another handle onto the same shared state,
/// so one handle can be threaded through every scanner of a sweep and the
/// facade can later freeze a single combined [`TelemetryReport`].
///
/// [`Telemetry::off`] (also the `Default`) is the uninstrumented run:
/// [`span`](Self::span) returns an inert guard, counters, gauges and
/// histograms drop their samples, [`recorder`](Self::recorder) lends the
/// inert [`FlightRecorder::off`], and [`report`](Self::report) is empty.
/// None of them reads the clock, allocates, or opens a [`crate::prof`]
/// scope. Counter names and span attributes accept `format_args!`, so a
/// formatted name is built only when the registry records.
///
/// # Examples
///
/// ```
/// use strider_support::obs::Telemetry;
///
/// let telemetry = Telemetry::new();
/// {
///     let sweep = telemetry.span("sweep");
///     sweep.set_attr("machine", "lab-1");
///     let _phase = telemetry.span("high_scan"); // nested under "sweep"
///     telemetry.counter_add("entries", 300);
/// }
/// let report = telemetry.report();
/// assert_eq!(report.spans[0].children[0].name, "high_scan");
/// assert_eq!(report.counters["entries"], 300);
///
/// let off = Telemetry::off();
/// off.counter_add(format_args!("{}.entries", "files"), 300); // never formatted
/// assert!(!off.is_on());
/// assert!(off.report().counters.is_empty());
/// ```
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Some(inner) = &self.inner else {
            return f.write_str("Telemetry(off)");
        };
        let state = inner.state.lock();
        f.debug_struct("Telemetry")
            .field("spans", &state.spans.len())
            .field("counters", &state.counters.len())
            .finish_non_exhaustive()
    }
}

impl Telemetry {
    /// A registry timed by a fresh [`MonotonicClock`].
    pub fn new() -> Self {
        Self::with_clock(Arc::new(MonotonicClock::new()))
    }

    /// A registry timed by the given clock (inject a [`FakeClock`] here
    /// for deterministic tests).
    pub fn with_clock(clock: Arc<dyn Clock>) -> Self {
        let recorder = FlightRecorder::new(clock.clone());
        Self {
            inner: Some(Arc::new(Inner {
                clock,
                recorder,
                state: Mutex::new(State::default()),
            })),
        }
    }

    /// The off state: records nothing, costs nothing (see [`Telemetry`]).
    pub const fn off() -> Self {
        Self { inner: None }
    }

    /// Whether this handle records — the one question callers ask when
    /// they must report an `Option` (a sweep's telemetry, a black box).
    pub fn is_on(&self) -> bool {
        self.inner.is_some()
    }

    /// The registry clock's current reading (0 when off, without reading
    /// any clock).
    pub fn now_ns(&self) -> u64 {
        self.inner.as_ref().map_or(0, |inner| inner.clock.now_ns())
    }

    /// The registry's always-on flight recorder (the inert
    /// [`FlightRecorder::off`] when off). Clone the handle to let other
    /// layers (fault injection, supervision) write into the same black
    /// box.
    pub fn recorder(&self) -> &FlightRecorder {
        self.inner
            .as_ref()
            .map_or(&OFF_RECORDER, |inner| &inner.recorder)
    }

    /// Opens a span as a child of the innermost open span (or as a root).
    /// The returned guard closes the span when dropped; when off it is
    /// inert.
    pub fn span(&self, name: &str) -> SpanGuard {
        let Some(inner) = &self.inner else {
            return SpanGuard {
                telemetry: Telemetry::off(),
                index: 0,
                ended: true,
                scope: None,
            };
        };
        let now = inner.clock.now_ns();
        let mut state = inner.state.lock();
        let tid = state.current_tid();
        let index = state.spans.len();
        state.spans.push(SpanSlot {
            name: name.to_string(),
            start_ns: now,
            tid,
            ..SpanSlot::default()
        });
        match state.stack.last().copied() {
            Some(parent) => state.spans[parent].children.push(index),
            None => state.roots.push(index),
        }
        state.stack.push(index);
        drop(state);
        inner.recorder.record(FlightEventKind::SpanStart, name, "");
        // The attribution scope opens last, after the span's own
        // bookkeeping allocations, so a span is charged for what runs
        // inside it — not for the cost of being recorded.
        SpanGuard {
            telemetry: self.clone(),
            index,
            ended: false,
            scope: Some(crate::prof::begin_scope()),
        }
    }

    /// Adds `delta` to a monotonic counter (created at 0 on first use).
    /// Pass `format_args!` for a composed name: it is rendered only when
    /// the registry is on.
    pub fn counter_add(&self, name: impl fmt::Display, delta: u64) {
        let Some(inner) = &self.inner else {
            return;
        };
        let name = name.to_string();
        inner
            .recorder
            .record(FlightEventKind::Counter, &name, &format!("+{delta}"));
        *inner.state.lock().counters.entry(name).or_insert(0) += delta;
    }

    /// Sets a gauge to its latest observed value.
    pub fn gauge_set(&self, name: &str, value: f64) {
        let Some(inner) = &self.inner else {
            return;
        };
        inner.state.lock().gauges.insert(name.to_string(), value);
        inner
            .recorder
            .record(FlightEventKind::Gauge, name, &format!("={value}"));
    }

    /// Records one sample into a bounded [`HistogramSketch`]. Histogram
    /// samples are aggregated, not ring-recorded: hot loops may call this
    /// per entry without flooding the flight recorder.
    pub fn histogram_record(&self, name: &str, value: f64) {
        let Some(inner) = &self.inner else {
            return;
        };
        let mut state = inner.state.lock();
        state
            .histograms
            .entry(name.to_string())
            .or_default()
            .record(value);
    }

    /// Freezes the current state into an exportable report (empty when
    /// off). Spans still open are reported with the clock's current
    /// reading as their end.
    pub fn report(&self) -> TelemetryReport {
        let Some(inner) = &self.inner else {
            return TelemetryReport::default();
        };
        let now = inner.clock.now_ns();
        let flight = inner.recorder.snapshot();
        let state = inner.state.lock();
        fn build(state: &State, index: usize, now: u64) -> SpanRecord {
            let slot = &state.spans[index];
            SpanRecord {
                name: slot.name.clone(),
                start_ns: slot.start_ns,
                end_ns: slot.end_ns.unwrap_or(now),
                tid: slot.tid,
                attrs: slot.attrs.clone(),
                events: slot.events.clone(),
                allocs: slot.allocs,
                alloc_bytes: slot.alloc_bytes,
                peak_bytes: slot.peak_bytes,
                wait_ns: slot.wait_ns,
                children: slot
                    .children
                    .iter()
                    .map(|&c| build(state, c, now))
                    .collect(),
            }
        }
        TelemetryReport {
            spans: state.roots.iter().map(|&r| build(&state, r, now)).collect(),
            threads: state
                .threads
                .iter()
                .enumerate()
                .map(|(i, (_, name))| (i as u64, name.clone()))
                .collect(),
            counters: state.counters.clone(),
            gauges: state.gauges.clone(),
            histograms: state.histograms.clone(),
            flight,
        }
    }
}

/// Closes its span on drop; use it to attach attributes and events. A
/// guard from an off [`Telemetry`] is inert: every method is a no-op.
#[must_use = "dropping the guard immediately closes the span"]
pub struct SpanGuard {
    telemetry: Telemetry,
    index: usize,
    ended: bool,
    /// The allocation-attribution scope opened with the span; consumed
    /// at close (empty when the guard is dropped on another thread).
    scope: Option<crate::prof::ScopeToken>,
}

impl SpanGuard {
    /// Attaches a typed attribute to the span (converted only when the
    /// span records).
    pub fn set_attr(&self, key: &str, value: impl Into<AttrValue>) {
        let Some(inner) = &self.telemetry.inner else {
            return;
        };
        let value = value.into();
        inner.state.lock().spans[self.index]
            .attrs
            .push((key.to_string(), value));
    }

    /// Records a point-in-time event inside the span.
    pub fn event(&self, name: &str) {
        self.event_with(name, Vec::new());
    }

    /// Records an event carrying a typed payload.
    pub fn event_with(&self, name: &str, attrs: Vec<(String, AttrValue)>) {
        let Some(inner) = &self.telemetry.inner else {
            return;
        };
        let at_ns = inner.clock.now_ns();
        let mut state = inner.state.lock();
        state.spans[self.index].events.push(SpanEvent {
            name: name.to_string(),
            at_ns,
            attrs,
        });
    }

    /// Closes the span now instead of at end of scope.
    pub fn end(mut self) {
        self.finish();
    }

    fn finish(&mut self) {
        if self.ended {
            return;
        }
        let Some(inner) = &self.telemetry.inner else {
            return;
        };
        self.ended = true;
        let now = inner.clock.now_ns();
        // Close the attribution scope before any close bookkeeping
        // allocates, so the span's own teardown is charged to its
        // parent, not to it.
        let measured = self
            .scope
            .take()
            .map(crate::prof::ScopeToken::end)
            .unwrap_or_default();
        let mut state = inner.state.lock();
        state.spans[self.index].end_ns = Some(now);
        state.spans[self.index].allocs = measured.allocs;
        state.spans[self.index].alloc_bytes = measured.alloc_bytes;
        state.spans[self.index].peak_bytes = measured.peak_bytes;
        state.spans[self.index].wait_ns = measured.wait_ns;
        let name = state.spans[self.index].name.clone();
        let took = now.saturating_sub(state.spans[self.index].start_ns);
        // Pop back to (and including) this span; any children left open by
        // out-of-order drops are popped with it so nesting stays sane.
        if let Some(pos) = state.stack.iter().rposition(|&i| i == self.index) {
            state.stack.truncate(pos);
        }
        drop(state);
        inner
            .recorder
            .record(FlightEventKind::SpanEnd, &name, &fmt_ns(took));
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.finish();
    }
}

impl fmt::Debug for SpanGuard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpanGuard")
            .field("index", &self.index)
            .finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------
// The frozen report
// ---------------------------------------------------------------------

/// One completed span in a frozen report.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span name.
    pub name: String,
    /// Clock value at open.
    pub start_ns: u64,
    /// Clock value at close (the report's freeze time for open spans).
    pub end_ns: u64,
    /// Dense, registry-stable id of the OS thread that opened the span
    /// (index into [`TelemetryReport::threads`]). Pipelines run on scoped
    /// threads, so this is what tells a `files.scan_inside` span apart
    /// from a `registry.scan_inside` span in a flat timeline.
    pub tid: u64,
    /// Attributes, in attachment order.
    pub attrs: Vec<(String, AttrValue)>,
    /// Events, in firing order.
    pub events: Vec<SpanEvent>,
    /// Heap allocations performed while the span was open (inclusive of
    /// children), counted by the [`crate::prof`] global allocator on
    /// the span's opening thread. Zero for spans still open at report
    /// time or whose guard was dropped on another thread.
    pub allocs: u64,
    /// Bytes allocated while the span was open (inclusive; same caveats
    /// as [`allocs`](Self::allocs)).
    pub alloc_bytes: u64,
    /// Peak net heap footprint the span added above its starting level
    /// on its thread (see [`crate::prof::begin_scope`]).
    pub peak_bytes: u64,
    /// Nanoseconds the span's thread spent in [`Clock::sleep_ns`] while
    /// the span was open (inclusive): supervised polls, retry backoff.
    pub wait_ns: u64,
    /// Child spans, in open order.
    pub children: Vec<SpanRecord>,
}

crate::impl_json!(struct SpanRecord {
    name,
    start_ns,
    end_ns,
    tid,
    attrs,
    events,
    allocs,
    alloc_bytes,
    peak_bytes,
    wait_ns,
    children
});

impl SpanRecord {
    /// The span's wall duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The first attribute with the given key.
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The first direct child with the given name.
    pub fn child(&self, name: &str) -> Option<&SpanRecord> {
        self.children.iter().find(|c| c.name == name)
    }

    /// Depth-first search for the first descendant (or self) with `name`.
    pub fn find(&self, name: &str) -> Option<&SpanRecord> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }
}

/// The frozen, JSON-exportable output of a [`Telemetry`] registry.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TelemetryReport {
    /// Root spans, in open order.
    pub spans: Vec<SpanRecord>,
    /// Thread names keyed by the dense tid used on [`SpanRecord::tid`].
    pub threads: BTreeMap<u64, String>,
    /// Final counter values.
    pub counters: BTreeMap<String, u64>,
    /// Final gauge values.
    pub gauges: BTreeMap<String, f64>,
    /// Bounded histogram sketches (see [`HistogramSketch`]).
    pub histograms: BTreeMap<String, HistogramSketch>,
    /// Flight-recorder tail at freeze time.
    pub flight: FlightDump,
}

crate::impl_json!(struct TelemetryReport { spans, threads, counters, gauges, histograms, flight });

impl TelemetryReport {
    /// Depth-first search across all roots for the first span named `name`.
    pub fn find_span(&self, name: &str) -> Option<&SpanRecord> {
        self.spans.iter().find_map(|s| s.find(name))
    }

    /// Total duration and occurrence count per span name, summed across
    /// the whole forest — the "per-phase breakdown" the bench reports use.
    pub fn phase_totals(&self) -> BTreeMap<String, PhaseTotal> {
        fn walk(span: &SpanRecord, totals: &mut BTreeMap<String, PhaseTotal>) {
            let entry = totals.entry(span.name.clone()).or_default();
            entry.count += 1;
            entry.total_ns += span.duration_ns();
            entry.allocs += span.allocs;
            entry.alloc_bytes += span.alloc_bytes;
            entry.wait_ns += span.wait_ns;
            for child in &span.children {
                walk(child, totals);
            }
        }
        let mut totals = BTreeMap::new();
        for span in &self.spans {
            walk(span, &mut totals);
        }
        totals
    }

    /// [`HistogramSketch::percentile`] of a named histogram's sketch
    /// (within its ~1% relative bucket error; exact at the extremes).
    pub fn histogram_percentile(&self, name: &str, pct: f64) -> Option<f64> {
        self.histograms.get(name)?.percentile(pct)
    }

    /// Exact mean of a named histogram's samples.
    pub fn histogram_mean(&self, name: &str) -> Option<f64> {
        self.histograms.get(name)?.mean()
    }

    /// Pretty-prints the span forest, one span per line with durations and
    /// attributes, children indented under parents.
    pub fn render_tree(&self) -> String {
        fn walk(span: &SpanRecord, depth: usize, out: &mut String) {
            out.push_str(&"  ".repeat(depth));
            out.push_str(&format!("{} {}", span.name, fmt_ns(span.duration_ns())));
            for (key, value) in &span.attrs {
                out.push_str(&format!(" {key}={value}"));
            }
            out.push('\n');
            for event in &span.events {
                out.push_str(&"  ".repeat(depth + 1));
                out.push_str(&format!("@ {} at {}\n", event.name, fmt_ns(event.at_ns)));
            }
            for child in &span.children {
                walk(child, depth + 1, out);
            }
        }
        let mut out = String::new();
        for span in &self.spans {
            walk(span, 0, &mut out);
        }
        out
    }

    /// Compact per-phase summary lines (spans down to `max_depth`, root =
    /// depth 0), for embedding in `Display` output.
    pub fn summary_lines(&self, max_depth: usize) -> Vec<String> {
        fn walk(span: &SpanRecord, depth: usize, max_depth: usize, out: &mut Vec<String>) {
            let mut line = format!(
                "{}phase {}: {}",
                "  ".repeat(depth),
                span.name,
                fmt_ns(span.duration_ns())
            );
            let attrs: Vec<String> = span.attrs.iter().map(|(k, v)| format!("{k}={v}")).collect();
            if !attrs.is_empty() {
                line.push_str(&format!(" ({})", attrs.join(", ")));
            }
            out.push(line);
            if depth < max_depth {
                for child in &span.children {
                    walk(child, depth + 1, max_depth, out);
                }
            }
        }
        let mut out = Vec::new();
        for span in &self.spans {
            walk(span, 0, max_depth, &mut out);
        }
        out
    }

    /// Writes the report as `SCAN_TELEMETRY_<label>.json` into `dir`
    /// ([`Artifact::Telemetry`](crate::store::Artifact::Telemetry)).
    ///
    /// # Errors
    ///
    /// See [`Artifact::write`](crate::store::Artifact::write).
    pub fn write_json_in(&self, dir: &std::path::Path, label: &str) -> std::io::Result<PathBuf> {
        let json = self.to_json().render_pretty(2);
        crate::store::Artifact::Telemetry.write(dir, label, json.as_bytes())
    }

    /// The span forest in Chrome `trace_event` JSON array format: one
    /// complete (`"ph":"X"`) event per span, one counter (`"ph":"C"`)
    /// event per span with allocation activity (series `allocs` /
    /// `alloc_bytes`, emitted at the span's close), one instant
    /// (`"ph":"i"`) event per span event, plus `thread_name` metadata so
    /// Perfetto / `chrome://tracing` labels each pipeline thread.
    /// Timestamps are in microseconds as the format requires; `pid` is
    /// always 1 (one process), `tid` is the registry-stable
    /// [`SpanRecord::tid`].
    pub fn chrome_trace(&self) -> JsonValue {
        let mut out = Vec::new();
        self.append_chrome_events(&mut out, &mut |tid| tid, "");
        JsonValue::Arr(out)
    }

    /// Appends [`chrome_trace`](Self::chrome_trace)'s events to `out`,
    /// each written on lane `tid(local tid)` and every lane name prefixed
    /// with `prefix`. This is how a merged trace places independently
    /// frozen reports, whose local tids collide, on lanes of its own:
    /// `tid` is called in event order, so a mapping that hands out a fresh
    /// id on first sight numbers the lanes in the order they appear.
    pub fn append_chrome_events(
        &self,
        out: &mut Vec<JsonValue>,
        tid: &mut dyn FnMut(u64) -> u64,
        prefix: &str,
    ) {
        fn args(attrs: &[(String, AttrValue)]) -> Vec<(String, JsonValue)> {
            let json = |value: &AttrValue| match value {
                AttrValue::Str(s) => JsonValue::Str(s.clone()),
                AttrValue::UInt(n) => JsonValue::UInt(*n),
                AttrValue::Int(n) => JsonValue::Int(*n),
                AttrValue::Float(x) => JsonValue::Float(*x),
                AttrValue::Bool(b) => JsonValue::Bool(*b),
            };
            attrs.iter().map(|(k, v)| (k.clone(), json(v))).collect()
        }
        fn walk(span: &SpanRecord, tid: &mut dyn FnMut(u64) -> u64, out: &mut Vec<JsonValue>) {
            let lane = tid(span.tid);
            let (start, dur) = (span.start_ns, span.duration_ns());
            out.push(chrome::complete(
                &span.name,
                "scan",
                start,
                dur,
                lane,
                args(&span.attrs),
            ));
            if span.allocs > 0 || span.alloc_bytes > 0 {
                let series = vec![
                    ("allocs".into(), JsonValue::UInt(span.allocs)),
                    ("alloc_bytes".into(), JsonValue::UInt(span.alloc_bytes)),
                ];
                out.push(chrome::counter("mem", "scan", span.end_ns, lane, series));
            }
            for event in &span.events {
                let attrs = args(&event.attrs);
                out.push(chrome::instant(
                    &event.name,
                    "scan",
                    event.at_ns,
                    lane,
                    attrs,
                ));
            }
            for child in &span.children {
                walk(child, tid, out);
            }
        }
        for (local, name) in &self.threads {
            out.push(chrome::thread_name(tid(*local), &format!("{prefix}{name}")));
        }
        for span in &self.spans {
            walk(span, tid, out);
        }
    }

    /// Writes [`chrome_trace`](Self::chrome_trace) as
    /// `SCAN_TRACE_<label>.json` into `dir`
    /// ([`Artifact::ScanTrace`](crate::store::Artifact::ScanTrace)).
    ///
    /// # Errors
    ///
    /// See [`Artifact::write`](crate::store::Artifact::write).
    pub fn write_chrome_trace_in(
        &self,
        dir: &std::path::Path,
        label: &str,
    ) -> std::io::Result<PathBuf> {
        let json = self.chrome_trace().render_pretty(2);
        crate::store::Artifact::ScanTrace.write(dir, label, json.as_bytes())
    }
}

/// The Chrome `trace_event` objects every trace export writes — the one
/// place the format lives. Timestamps are taken in nanoseconds and
/// written in microseconds, as the format requires; `pid` is always 1.
pub mod chrome {
    use crate::json::JsonValue;

    type Fields = Vec<(String, JsonValue)>;

    fn text(s: &str) -> JsonValue {
        JsonValue::Str(s.into())
    }

    fn micros(ns: u64) -> JsonValue {
        JsonValue::Float(ns as f64 / 1e3)
    }

    /// `thread_name` metadata (`"ph":"M"`): labels lane `tid` in the
    /// viewer.
    pub fn thread_name(tid: u64, name: &str) -> JsonValue {
        JsonValue::Obj(vec![
            ("name".into(), text("thread_name")),
            ("ph".into(), text("M")),
            ("pid".into(), JsonValue::UInt(1)),
            ("tid".into(), JsonValue::UInt(tid)),
            (
                "args".into(),
                JsonValue::Obj(vec![("name".into(), text(name))]),
            ),
        ])
    }

    /// A complete slice (`"ph":"X"`) from `ts_ns` lasting `dur_ns`.
    pub fn complete(
        name: &str,
        cat: &str,
        ts_ns: u64,
        dur_ns: u64,
        tid: u64,
        args: Fields,
    ) -> JsonValue {
        JsonValue::Obj(vec![
            ("name".into(), text(name)),
            ("cat".into(), text(cat)),
            ("ph".into(), text("X")),
            ("ts".into(), micros(ts_ns)),
            ("dur".into(), micros(dur_ns)),
            ("pid".into(), JsonValue::UInt(1)),
            ("tid".into(), JsonValue::UInt(tid)),
            ("args".into(), JsonValue::Obj(args)),
        ])
    }

    /// A thread-scoped instant (`"ph":"i"`).
    pub fn instant(name: &str, cat: &str, ts_ns: u64, tid: u64, args: Fields) -> JsonValue {
        JsonValue::Obj(vec![
            ("name".into(), text(name)),
            ("cat".into(), text(cat)),
            ("ph".into(), text("i")),
            ("ts".into(), micros(ts_ns)),
            ("pid".into(), JsonValue::UInt(1)),
            ("tid".into(), JsonValue::UInt(tid)),
            ("s".into(), text("t")),
            ("args".into(), JsonValue::Obj(args)),
        ])
    }

    /// A counter sample (`"ph":"C"`): each `args` entry is one series.
    pub fn counter(name: &str, cat: &str, ts_ns: u64, tid: u64, args: Fields) -> JsonValue {
        JsonValue::Obj(vec![
            ("name".into(), text(name)),
            ("cat".into(), text(cat)),
            ("ph".into(), text("C")),
            ("ts".into(), micros(ts_ns)),
            ("pid".into(), JsonValue::UInt(1)),
            ("tid".into(), JsonValue::UInt(tid)),
            ("args".into(), JsonValue::Obj(args)),
        ])
    }
}

/// Reduces a free-form label to a filesystem-safe stem: every
/// non-alphanumeric character becomes `_`, runs collapse to one `_`, and
/// leading/trailing `_` are trimmed. Returns `None` when nothing
/// alphanumeric survives (so `"///"` can't silently collide with `"_"`).
pub fn sanitize_label(label: &str) -> Option<String> {
    let mut out = String::with_capacity(label.len());
    for c in label.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else if !out.ends_with('_') && !out.is_empty() {
            out.push('_');
        }
    }
    let trimmed = out.trim_end_matches('_');
    (!trimmed.is_empty()).then(|| trimmed.to_string())
}

/// Per-name aggregate in [`TelemetryReport::phase_totals`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseTotal {
    /// How many spans carried the name.
    pub count: u64,
    /// Summed wall duration across them.
    pub total_ns: u64,
    /// Summed heap allocations (inclusive, per [`SpanRecord::allocs`]).
    pub allocs: u64,
    /// Summed allocated bytes (inclusive).
    pub alloc_bytes: u64,
    /// Summed sleep time (inclusive, per [`SpanRecord::wait_ns`]).
    pub wait_ns: u64,
}

crate::impl_json!(struct PhaseTotal { count, total_ns, allocs, alloc_bytes, wait_ns });

/// Renders a nanosecond duration with a human-scale unit.
///
/// Unit boundaries account for display rounding: a value that would
/// *render* as `1000.0` in one unit (e.g. `999_999_500ns` ≈ `1000.0ms`)
/// rolls up to the next unit instead, so the printed magnitude always
/// stays below 1000 of its unit.
pub fn fmt_ns(ns: u64) -> String {
    // Each threshold is the smallest value that rounds to 1000.0 (one
    // decimal) or 1.00 (two decimals) of the *next* unit's predecessor.
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 999_950 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else if ns < 999_950_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

/// Renders a byte count with a human-scale binary unit, the byte-count
/// sibling of [`fmt_ns`]: the printed magnitude always stays below 1000
/// of its unit (`999.9KiB` rolls up to `1.0MiB` rather than printing a
/// four-digit mantissa).
pub fn fmt_bytes(bytes: u64) -> String {
    const KIB: f64 = 1024.0;
    let b = bytes as f64;
    if b < KIB {
        format!("{bytes}B")
    } else if b < 999.95 * KIB {
        format!("{:.1}KiB", b / KIB)
    } else if b < 999.95 * KIB * KIB {
        format!("{:.1}MiB", b / (KIB * KIB))
    } else {
        format!("{:.2}GiB", b / (KIB * KIB * KIB))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{FromJson, JsonValue};

    fn fake() -> (Arc<FakeClock>, Telemetry) {
        let clock = Arc::new(FakeClock::new());
        let telemetry = Telemetry::with_clock(clock.clone());
        (clock, telemetry)
    }

    #[test]
    fn spans_nest_and_time_exactly() {
        let (clock, telemetry) = fake();
        {
            let sweep = telemetry.span("sweep");
            sweep.set_attr("machine", "lab");
            clock.advance(10);
            {
                let high = telemetry.span("high_scan");
                high.set_attr("entries", 300u64);
                clock.advance(25);
            }
            {
                let _low = telemetry.span("low_scan");
                clock.advance(40);
            }
            clock.advance(5);
        }
        let report = telemetry.report();
        assert_eq!(report.spans.len(), 1);
        let sweep = &report.spans[0];
        assert_eq!(sweep.name, "sweep");
        assert_eq!(sweep.duration_ns(), 80);
        assert_eq!(sweep.attr("machine"), Some(&AttrValue::Str("lab".into())));
        assert_eq!(sweep.children.len(), 2);
        assert_eq!(sweep.child("high_scan").unwrap().duration_ns(), 25);
        assert_eq!(
            sweep.child("high_scan").unwrap().attr("entries"),
            Some(&AttrValue::UInt(300))
        );
        assert_eq!(sweep.child("low_scan").unwrap().duration_ns(), 40);
        assert_eq!(sweep.child("low_scan").unwrap().start_ns, 35);
    }

    #[test]
    fn sibling_spans_after_explicit_end_stay_roots() {
        let (clock, telemetry) = fake();
        let first = telemetry.span("first");
        clock.advance(3);
        first.end();
        let _second = telemetry.span("second");
        let report = telemetry.report();
        assert_eq!(report.spans.len(), 2, "second is a root, not a child");
        assert_eq!(report.spans[0].duration_ns(), 3);
    }

    #[test]
    fn open_spans_freeze_at_report_time() {
        let (clock, telemetry) = fake();
        let _open = telemetry.span("still_running");
        clock.advance(7);
        let report = telemetry.report();
        assert_eq!(report.spans[0].duration_ns(), 7);
    }

    #[test]
    fn events_record_clock_and_payload() {
        let (clock, telemetry) = fake();
        let span = telemetry.span("scan");
        clock.advance(12);
        span.event_with("tamper", vec![("bytes".into(), AttrValue::UInt(4))]);
        drop(span);
        let report = telemetry.report();
        let event = &report.spans[0].events[0];
        assert_eq!(event.name, "tamper");
        assert_eq!(event.at_ns, 12);
        assert_eq!(event.attrs[0].1, AttrValue::UInt(4));
    }

    #[test]
    fn counters_gauges_histograms() {
        let (_clock, telemetry) = fake();
        telemetry.counter_add("entries", 100);
        telemetry.counter_add("entries", 42);
        telemetry.gauge_set("depth", 3.0);
        telemetry.gauge_set("depth", 5.0);
        for v in [1.0, 2.0, 3.0, 4.0, 100.0] {
            telemetry.histogram_record("lat", v);
        }
        let report = telemetry.report();
        assert_eq!(report.counters["entries"], 142);
        assert_eq!(report.gauges["depth"], 5.0);
        // Sketch-backed percentiles are within one bucket (~2%) of the
        // true sample; the extremes are exact (clamped to min/max).
        let p50 = report.histogram_percentile("lat", 50.0).unwrap();
        assert!((p50 / 3.0 - 1.0).abs() < 0.02, "p50 = {p50}");
        assert_eq!(report.histogram_percentile("lat", 100.0), Some(100.0));
        assert_eq!(report.histogram_percentile("lat", 0.0), Some(1.0));
        assert_eq!(report.histogram_mean("lat"), Some(22.0));
        assert_eq!(report.histogram_percentile("missing", 50.0), None);
    }

    #[test]
    fn report_round_trips_through_json() {
        let (clock, telemetry) = fake();
        {
            let span = telemetry.span("outer");
            span.set_attr("kind", "files");
            span.set_attr("count", 9u64);
            clock.advance(50);
            let inner = telemetry.span("inner");
            inner.event("checkpoint");
            clock.advance(50);
        }
        telemetry.counter_add("rows", 12);
        telemetry.gauge_set("ratio", 0.5);
        telemetry.histogram_record("lat", 1.5);
        let report = telemetry.report();
        let text = report.to_json().render_pretty(2);
        let parsed =
            TelemetryReport::from_json(&JsonValue::parse(&text).expect("parses")).expect("decodes");
        assert_eq!(parsed, report);
    }

    #[test]
    fn phase_totals_sum_across_repeats() {
        let (clock, telemetry) = fake();
        for _ in 0..3 {
            let _span = telemetry.span("diff");
            clock.advance(10);
        }
        let totals = telemetry.report().phase_totals();
        assert_eq!(totals["diff"].count, 3);
        assert_eq!(totals["diff"].total_ns, 30);
    }

    #[test]
    fn render_tree_and_summary_show_structure() {
        let (clock, telemetry) = fake();
        {
            let sweep = telemetry.span("sweep");
            sweep.set_attr("suspicious", 2u64);
            clock.advance(1_500);
            let _files = telemetry.span("files");
            clock.advance(500);
        }
        let report = telemetry.report();
        let tree = report.render_tree();
        assert!(tree.contains("sweep 2.0µs suspicious=2"), "{tree}");
        assert!(tree.contains("  files 500ns"), "{tree}");
        let lines = report.summary_lines(0);
        assert_eq!(lines.len(), 1, "depth 0 keeps only roots");
        assert!(lines[0].starts_with("phase sweep:"), "{}", lines[0]);
    }

    #[test]
    fn off_telemetry_records_nothing_and_allocates_nothing() {
        let off = Telemetry::default();
        assert!(!off.is_on());
        let scope = crate::prof::begin_scope();
        {
            let span = off.span("sweep");
            span.set_attr("view", format_args!("{:?}", FlightEventKind::Mark));
            span.event("checkpoint");
            let _child = off.span("files.high_scan");
            off.counter_add(format_args!("{}.entries", "files"), 3);
            off.gauge_set("depth", 1.0);
            off.histogram_record("files.dir_query_ns", 5.0);
            off.recorder().fault("volume.read", "stalled");
            assert_eq!(off.now_ns(), 0);
        }
        assert_eq!(scope.end().allocs, 0, "the off state never allocates");
        assert_eq!(off.report(), TelemetryReport::default());
        assert!(off.recorder().snapshot().is_empty());
        assert_eq!(off.recorder().capacity(), 0);

        let (_clock, on) = fake();
        assert!(on.is_on());
        on.counter_add(format_args!("{}.entries", "files"), 3);
        assert_eq!(on.report().counters["files.entries"], 3);
    }

    #[test]
    fn fmt_ns_picks_units() {
        assert_eq!(fmt_ns(999), "999ns");
        assert_eq!(fmt_ns(1_500), "1.5µs");
        assert_eq!(fmt_ns(2_000_000), "2.0ms");
        assert_eq!(fmt_ns(3_500_000_000), "3.50s");
    }

    #[test]
    fn fmt_ns_never_renders_a_four_digit_magnitude() {
        // Each unit edge: the last value that stays in the unit, and the
        // first value whose *rounded* rendering would read 1000.0 — which
        // must roll up instead.
        assert_eq!(fmt_ns(999), "999ns");
        assert_eq!(fmt_ns(1_000), "1.0µs");
        assert_eq!(fmt_ns(999_949), "999.9µs");
        assert_eq!(fmt_ns(999_950), "1.0ms");
        assert_eq!(fmt_ns(999_949_999), "999.9ms");
        assert_eq!(fmt_ns(999_950_000), "1.00s");
        assert_eq!(fmt_ns(999_999_500), "1.00s", "regression: was 1000.0ms");
        assert_eq!(fmt_ns(1_000_000_000), "1.00s");
    }

    #[test]
    fn write_json_sanitizes_label_and_writes() {
        let dir = std::env::temp_dir().join(format!("strider-obs-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (_clock, telemetry) = fake();
        telemetry.counter_add("x", 1);
        let path = telemetry
            .report()
            .write_json_in(&dir, "unit test!")
            .unwrap();
        assert!(path.ends_with("SCAN_TELEMETRY_unit_test.json"));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"counters\""));
        std::fs::remove_file(&path).ok();
        std::fs::remove_dir(&dir).ok();
    }

    #[test]
    fn label_sanitization_collapses_runs_and_rejects_empty() {
        assert_eq!(sanitize_label("unit test!"), Some("unit_test".into()));
        assert_eq!(sanitize_label("a//b--c"), Some("a_b_c".into()));
        assert_eq!(sanitize_label("__x__"), Some("x".into()));
        assert_eq!(sanitize_label("lab-1"), Some("lab_1".into()));
        assert_eq!(sanitize_label("///"), None);
        assert_eq!(sanitize_label(""), None);

        let (_clock, telemetry) = fake();
        let err = telemetry
            .report()
            .write_json_in(std::path::Path::new("/tmp"), "///")
            .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }

    #[test]
    fn sketch_percentiles_stay_within_bucket_error() {
        let mut sketch = HistogramSketch::new();
        for i in 1..=1000 {
            sketch.record(i as f64);
        }
        assert_eq!(sketch.count(), 1000);
        for (pct, expect) in [(10.0, 100.0), (50.0, 500.0), (90.0, 900.0)] {
            let got = sketch.percentile(pct).unwrap();
            assert!(
                (got / expect - 1.0).abs() < 0.02,
                "p{pct}: got {got}, want ~{expect}"
            );
        }
        assert_eq!(sketch.percentile(0.0), Some(1.0));
        assert_eq!(sketch.percentile(100.0), Some(1000.0));
        assert_eq!(sketch.mean(), Some(500.5));
    }

    #[test]
    fn sketch_merge_equals_single_recording() {
        let samples: Vec<f64> = (0..500).map(|i| ((i * 37) % 997 + 1) as f64).collect();
        let mut whole = HistogramSketch::new();
        let mut left = HistogramSketch::new();
        let mut right = HistogramSketch::new();
        for (i, &v) in samples.iter().enumerate() {
            whole.record(v);
            if i % 2 == 0 {
                left.record(v);
            } else {
                right.record(v);
            }
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
        for pct in [0.0, 25.0, 50.0, 75.0, 99.0, 100.0] {
            assert_eq!(left.percentile(pct), whole.percentile(pct), "p{pct}");
        }
    }

    #[test]
    fn sketch_bucket_count_is_bounded() {
        let mut sketch = HistogramSketch::new();
        // A pathological spread: every order of magnitude from 1e-30 to
        // 1e30 still stays under the cap because buckets are logarithmic.
        let mut v = 1e-30;
        while v < 1e30 {
            sketch.record(v);
            v *= 1.01;
        }
        assert!(sketch.bucket_count() <= SKETCH_MAX_BUCKETS);
        assert!(sketch.count() > 10_000);
        // Non-finite samples are ignored, not recorded.
        let before = sketch.count();
        sketch.record(f64::NAN);
        sketch.record(f64::INFINITY);
        assert_eq!(sketch.count(), before);
    }

    #[test]
    fn sketch_handles_zero_and_negative_samples() {
        let mut sketch = HistogramSketch::new();
        for v in [-5.0, 0.0, 0.0, 10.0] {
            sketch.record(v);
        }
        assert_eq!(sketch.min(), Some(-5.0));
        assert_eq!(sketch.max(), Some(10.0));
        assert_eq!(sketch.percentile(0.0), Some(-5.0));
        assert_eq!(sketch.percentile(100.0), Some(10.0));
    }

    #[test]
    fn flight_ring_wraps_and_keeps_the_tail() {
        let clock = Arc::new(FakeClock::new());
        let recorder = FlightRecorder::with_capacity(clock.clone(), 4);
        for i in 0..10 {
            clock.advance(1);
            recorder.mark(&format!("m{i}"), "");
        }
        let dump = recorder.snapshot();
        assert_eq!(dump.len(), 4, "capacity respected");
        assert_eq!(dump.dropped, 6);
        assert_eq!(dump.capacity, 4);
        let seqs: Vec<u64> = dump.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9], "chronological tail");
        assert_eq!(dump.last().unwrap().what, "m9");
        assert_eq!(dump.events[0].at_ns, 7);
    }

    #[test]
    fn telemetry_feeds_its_flight_recorder() {
        let (clock, telemetry) = fake();
        {
            let _span = telemetry.span("files.scan");
            clock.advance(10);
            telemetry.counter_add("files.entries", 3);
        }
        telemetry.recorder().fault("volume", "torn sector");
        let report = telemetry.report();
        let kinds: Vec<FlightEventKind> = report.flight.events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                FlightEventKind::SpanStart,
                FlightEventKind::Counter,
                FlightEventKind::SpanEnd,
                FlightEventKind::Fault,
            ]
        );
        assert_eq!(report.flight.events[0].what, "files.scan");
        assert_eq!(report.flight.events[2].detail, "10ns");
        assert_eq!(report.flight.last().unwrap().detail, "torn sector");
    }

    #[test]
    fn spans_record_stable_thread_ids() {
        let (_clock, telemetry) = fake();
        let _root = telemetry.span("root");
        let t = telemetry.clone();
        std::thread::Builder::new()
            .name("worker".into())
            .spawn(move || {
                let _span = t.span("on_worker");
            })
            .unwrap()
            .join()
            .unwrap();
        let report = telemetry.report();
        let root = report.find_span("root").unwrap();
        let worker = report.find_span("on_worker").unwrap();
        assert_ne!(root.tid, worker.tid, "different OS threads, different tid");
        assert_eq!(report.threads[&worker.tid], "worker");
        assert_eq!(report.threads.len(), 2);
    }

    #[test]
    fn chrome_trace_emits_valid_trace_events() {
        let (clock, telemetry) = fake();
        {
            let span = telemetry.span("sweep");
            span.set_attr("machine", "lab");
            clock.advance(2_000);
            let inner = telemetry.span("files.scan");
            inner.event("checkpoint");
            clock.advance(1_000);
        }
        let trace = telemetry.report().chrome_trace();
        let events = trace.as_arr().expect("top level is an array");
        let get = |obj: &JsonValue, key: &str| {
            obj.as_obj()
                .unwrap()
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.clone())
                .unwrap_or(JsonValue::Null)
        };
        let by_ph = |ph: &str| -> Vec<&JsonValue> {
            events
                .iter()
                .filter(|e| get(e, "ph").as_str().ok() == Some(ph))
                .collect()
        };
        // 1 thread_name metadata + 2 X spans + 1 instant, plus one "C"
        // memory counter per span that allocated (both do: recording a
        // child span / an event allocates inside the parent's window).
        assert_eq!(by_ph("M").len(), 1);
        assert_eq!(by_ph("X").len(), 2);
        assert_eq!(by_ph("i").len(), 1);
        assert_eq!(by_ph("C").len(), 2);
        assert_eq!(events.len(), 6);
        let sweep = by_ph("X")[0];
        assert_eq!(get(sweep, "name").as_str().unwrap(), "sweep");
        assert_eq!(get(sweep, "ts").as_f64().unwrap(), 0.0);
        assert_eq!(get(sweep, "dur").as_f64().unwrap(), 3.0, "3µs total");
        assert_eq!(get(sweep, "pid").as_u64().unwrap(), 1);
        let instant = by_ph("i")[0];
        assert_eq!(get(instant, "ts").as_f64().unwrap(), 2.0);
        let counter = by_ph("C")[0];
        assert_eq!(get(counter, "name").as_str().unwrap(), "mem");
        assert!(
            get(counter, "args")
                .field("allocs")
                .unwrap()
                .as_u64()
                .unwrap()
                > 0
        );
        // Round-trips through the parser (what verify.sh validates).
        let text = trace.render_pretty(2);
        assert!(JsonValue::parse(&text).is_ok());
    }

    #[test]
    fn spans_attribute_allocations_and_waits() {
        let (clock, telemetry) = fake();
        let waited_before = crate::prof::thread_stats().wait_ns;
        {
            let _sweep = telemetry.span("sweep");
            {
                let _alloc_heavy = telemetry.span("alloc_heavy");
                let v: Vec<u8> = vec![0; 64 * 1024];
                drop(v);
            }
            {
                let _backoff = telemetry.span("backoff");
                clock.sleep_ns(1_234);
            }
        }
        let _ = waited_before;
        let report = telemetry.report();
        let heavy = report.find_span("alloc_heavy").unwrap();
        assert!(heavy.allocs >= 1, "the vec was counted: {heavy:?}");
        assert!(heavy.alloc_bytes >= 64 * 1024);
        assert!(heavy.peak_bytes >= 64 * 1024);
        let backoff = report.find_span("backoff").unwrap();
        assert_eq!(backoff.wait_ns, 1_234, "the sleep is attributed");
        let sweep = report.find_span("sweep").unwrap();
        assert!(sweep.allocs >= heavy.allocs, "attribution is inclusive");
        assert!(sweep.wait_ns >= backoff.wait_ns);
        // The rollup carries the same attribution.
        let totals = report.phase_totals();
        assert_eq!(totals["backoff"].wait_ns, 1_234);
        assert!(totals["alloc_heavy"].alloc_bytes >= 64 * 1024);
    }

    #[test]
    fn fmt_bytes_picks_units() {
        assert_eq!(fmt_bytes(0), "0B");
        assert_eq!(fmt_bytes(1023), "1023B");
        assert_eq!(fmt_bytes(1024), "1.0KiB");
        assert_eq!(fmt_bytes(64 * 1024), "64.0KiB");
        assert_eq!(fmt_bytes(1024 * 1024), "1.0MiB");
        assert_eq!(fmt_bytes(3 * 1024 * 1024 * 1024), "3.00GiB");
        // The rendered magnitude never reaches four digits: the last
        // value that rounds to 999.9KiB stays, the next rolls up.
        assert_eq!(fmt_bytes(1_023_948), "999.9KiB");
        assert_eq!(fmt_bytes(1_023_949), "1.0MiB");
    }
}
