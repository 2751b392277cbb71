//! Allocation profiling and performance attribution.
//!
//! ROADMAP item 2 demands allocation-free zero-copy hot paths, but a
//! claim like "this scan does not allocate" is only auditable if the
//! workspace can *count*. This module is the measurement plane:
//!
//! * a hermetic counting [`CountingAlloc`] installed as the workspace
//!   `#[global_allocator]`: every allocation and deallocation updates
//!   plain thread-local [`Cell`]s (no locks, no heap, no recursion), so
//!   the counters cost a few adds per malloc and are exact per thread,
//! * **span-scoped attribution**: [`begin_scope`]/[`ScopeToken::end`]
//!   bracket a region and report how many allocations, how many bytes,
//!   and what peak net footprint the region produced on its thread —
//!   [`Telemetry`](crate::obs::Telemetry) spans use this to put
//!   `allocs` / `alloc_bytes` / `peak_bytes` on every
//!   [`SpanRecord`],
//! * **wait accounting**: both [`Clock`](crate::obs::Clock)
//!   implementations report time spent in `sleep_ns` via
//!   [`note_wait_ns`], so supervised-poll and backoff waiting is
//!   separable from compute in every span (`wait_ns`),
//! * a **critical-path analyzer**: [`PerfReport::from_telemetry`] rolls
//!   a frozen span forest into self-time vs child-time, a top-K hotspot
//!   table, a work/wait/alloc decomposition, and the longest
//!   root-to-leaf chain — exported as `SCAN_PERF_<label>.json` and
//!   rendered as the table `SweepReport` prints.
//!
//! The trade-off against a sampling profiler is deliberate: counting
//! instruments every allocation exactly (deterministic, works on the
//! fake clock, no symbolization) at the cost of a few nanoseconds per
//! malloc, where sampling is cheaper per event but statistical and
//! needs wall time to converge. For a detector whose benches run in
//! milliseconds under a seeded clock, exact counting is the only option
//! that yields reproducible, committable numbers (see DESIGN.md).

use crate::json::ToJson;
use crate::obs::{fmt_bytes, fmt_ns, SpanRecord, TelemetryReport};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;

// ---------------------------------------------------------------------
// The counting allocator
// ---------------------------------------------------------------------

/// The workspace-wide counting allocator: forwards to [`System`] and
/// updates the calling thread's counters. Installed once (here) as the
/// `#[global_allocator]`, so every crate in the workspace — scanners,
/// fleet, benches, tests — is counted without opting in.
pub struct CountingAlloc;

struct ThreadCounters {
    allocs: Cell<u64>,
    deallocs: Cell<u64>,
    alloc_bytes: Cell<u64>,
    dealloc_bytes: Cell<u64>,
    /// Net live bytes from this thread's perspective: allocations add,
    /// deallocations subtract. Signed because memory allocated on one
    /// thread may be freed on another.
    current_bytes: Cell<i64>,
    /// High-water mark of `current_bytes` since the innermost open
    /// scope began (scopes save/restore it; see [`begin_scope`]).
    peak_bytes: Cell<i64>,
    wait_ns: Cell<u64>,
}

thread_local! {
    // `const` init: no lazy-init flag, no destructor registration, and
    // therefore no allocation on first touch — safe to reach from
    // inside the allocator itself.
    static COUNTERS: ThreadCounters = const {
        ThreadCounters {
            allocs: Cell::new(0),
            deallocs: Cell::new(0),
            alloc_bytes: Cell::new(0),
            dealloc_bytes: Cell::new(0),
            current_bytes: Cell::new(0),
            peak_bytes: Cell::new(0),
            wait_ns: Cell::new(0),
        }
    };
}

#[inline]
fn note_alloc(bytes: u64) {
    // `try_with` so allocations during thread teardown (after TLS
    // destruction) are silently uncounted instead of aborting.
    let _ = COUNTERS.try_with(|c| {
        c.allocs.set(c.allocs.get() + 1);
        c.alloc_bytes.set(c.alloc_bytes.get() + bytes);
        let current = c.current_bytes.get() + bytes as i64;
        c.current_bytes.set(current);
        if current > c.peak_bytes.get() {
            c.peak_bytes.set(current);
        }
    });
}

#[inline]
fn note_dealloc(bytes: u64) {
    let _ = COUNTERS.try_with(|c| {
        c.deallocs.set(c.deallocs.get() + 1);
        c.dealloc_bytes.set(c.dealloc_bytes.get() + bytes);
        c.current_bytes.set(c.current_bytes.get() - bytes as i64);
    });
}

// SAFETY: every method forwards verbatim to `System` and only touches
// plain thread-local `Cell`s afterwards — no locks, no heap use, no
// re-entry into the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            note_alloc(layout.size() as u64);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            note_alloc(layout.size() as u64);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        note_dealloc(layout.size() as u64);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            // A realloc is one new allocation and one retirement — the
            // books balance the same as an alloc/dealloc pair.
            note_alloc(new_size as u64);
            note_dealloc(layout.size() as u64);
        }
        new
    }
}

#[global_allocator]
static GLOBAL_COUNTING_ALLOC: CountingAlloc = CountingAlloc;

// ---------------------------------------------------------------------
// Thread-local stats and scopes
// ---------------------------------------------------------------------

/// A snapshot of the calling thread's allocation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocStats {
    /// Allocations performed by this thread, ever.
    pub allocs: u64,
    /// Deallocations performed by this thread, ever.
    pub deallocs: u64,
    /// Bytes allocated by this thread, ever.
    pub alloc_bytes: u64,
    /// Bytes freed by this thread, ever.
    pub dealloc_bytes: u64,
    /// Net live bytes from this thread's perspective (negative when it
    /// frees more than it allocates — memory handed over from another
    /// thread).
    pub current_bytes: i64,
    /// Nanoseconds this thread has spent in [`Clock::sleep_ns`]
    /// (see [`note_wait_ns`]).
    ///
    /// [`Clock::sleep_ns`]: crate::obs::Clock::sleep_ns
    pub wait_ns: u64,
}

/// The calling thread's allocation counters so far.
pub fn thread_stats() -> AllocStats {
    COUNTERS
        .try_with(|c| AllocStats {
            allocs: c.allocs.get(),
            deallocs: c.deallocs.get(),
            alloc_bytes: c.alloc_bytes.get(),
            dealloc_bytes: c.dealloc_bytes.get(),
            current_bytes: c.current_bytes.get(),
            wait_ns: c.wait_ns.get(),
        })
        .unwrap_or_default()
}

/// Adds `ns` to the calling thread's wait accumulator. Called by both
/// [`Clock`](crate::obs::Clock) implementations from `sleep_ns`, so
/// every supervised poll and backoff sleep — real or fake-clock — is
/// attributed to the span it happened under.
pub fn note_wait_ns(ns: u64) {
    let _ = COUNTERS.try_with(|c| c.wait_ns.set(c.wait_ns.get() + ns));
}

/// What a closed scope observed on its thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScopeMeasurement {
    /// Allocations during the scope.
    pub allocs: u64,
    /// Bytes allocated during the scope.
    pub alloc_bytes: u64,
    /// Peak net footprint the scope added above its starting level
    /// (0 when the scope freed more than it allocated).
    pub peak_bytes: u64,
    /// Nanoseconds the thread spent sleeping inside the scope.
    pub wait_ns: u64,
}

/// An open attribution scope; produce it with [`begin_scope`] and close
/// it with [`ScopeToken::end`] *on the same thread*.
#[derive(Debug)]
pub struct ScopeToken {
    thread: std::thread::ThreadId,
    start_allocs: u64,
    start_alloc_bytes: u64,
    start_current: i64,
    start_wait_ns: u64,
    saved_peak: i64,
}

/// Opens an allocation-attribution scope on the calling thread: the
/// per-thread peak tracker is reset to the current level (the previous
/// peak is saved in the token and restored — merged with `max` — when
/// the scope ends), so nested scopes each observe their own incremental
/// high-water mark.
pub fn begin_scope() -> ScopeToken {
    let stats = thread_stats();
    let saved_peak = COUNTERS
        .try_with(|c| {
            let saved = c.peak_bytes.get();
            c.peak_bytes.set(c.current_bytes.get());
            saved
        })
        .unwrap_or_default();
    ScopeToken {
        thread: std::thread::current().id(),
        start_allocs: stats.allocs,
        start_alloc_bytes: stats.alloc_bytes,
        start_current: stats.current_bytes,
        start_wait_ns: stats.wait_ns,
        saved_peak,
    }
}

impl ScopeToken {
    /// Closes the scope and returns what it observed. Closing on a
    /// different thread than the one that opened it yields an empty
    /// measurement (cross-thread deltas would be meaningless) and
    /// leaves that thread's peak tracker untouched.
    pub fn end(self) -> ScopeMeasurement {
        if self.thread != std::thread::current().id() {
            return ScopeMeasurement::default();
        }
        let stats = thread_stats();
        let observed_peak = COUNTERS
            .try_with(|c| {
                let observed = c.peak_bytes.get();
                // Restore the parent scope's view: its peak is whatever
                // it had seen before, or whatever this scope drove the
                // thread to — whichever is higher.
                c.peak_bytes.set(self.saved_peak.max(observed));
                observed
            })
            .unwrap_or_default();
        ScopeMeasurement {
            allocs: stats.allocs.saturating_sub(self.start_allocs),
            alloc_bytes: stats.alloc_bytes.saturating_sub(self.start_alloc_bytes),
            peak_bytes: observed_peak.saturating_sub(self.start_current).max(0) as u64,
            wait_ns: stats.wait_ns.saturating_sub(self.start_wait_ns),
        }
    }
}

// ---------------------------------------------------------------------
// Critical-path analysis over a frozen span forest
// ---------------------------------------------------------------------

/// How many hotspots [`PerfReport::from_telemetry`] keeps.
pub const PERF_TOP_K: usize = 8;

/// Per-span-name aggregate with self-time (inclusive duration minus the
/// inclusive durations of direct children).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Hotspot {
    /// Span name.
    pub name: String,
    /// How many spans carried the name.
    pub count: u64,
    /// Summed inclusive wall duration.
    pub total_ns: u64,
    /// Summed self time: inclusive minus children, clamped at 0 per
    /// span (parallel children can overlap their parent).
    pub self_ns: u64,
    /// Summed self wait time (sleeps under this span but not under a
    /// child).
    pub wait_ns: u64,
    /// Summed self allocation count.
    pub allocs: u64,
    /// Summed self allocated bytes.
    pub alloc_bytes: u64,
}

crate::impl_json!(struct Hotspot { name, count, total_ns, self_ns, wait_ns, allocs, alloc_bytes });

/// One step on the critical path: a span on the longest root-to-leaf
/// chain.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PathStep {
    /// Span name.
    pub name: String,
    /// The span's inclusive wall duration.
    pub duration_ns: u64,
    /// The span's self time.
    pub self_ns: u64,
}

crate::impl_json!(struct PathStep { name, duration_ns, self_ns });

/// The performance attribution of one frozen [`TelemetryReport`]:
/// wall/work/wait totals, allocation totals, top-K hotspots by
/// self-time, and the critical path (the chain built by starting at the
/// longest root span and repeatedly descending into the
/// longest-duration child).
///
/// `work_ns` is derived, not measured: summed self-time minus summed
/// self-wait, i.e. the time spans spent neither in children nor asleep.
/// On a fake clock the decomposition is exact; on the wall clock it is
/// within scheduler noise.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PerfReport {
    /// Label the report was built under (used for the export file name).
    pub label: String,
    /// Wall span of the forest: latest end minus earliest start.
    pub wall_ns: u64,
    /// Summed self-time minus wait — the compute component.
    pub work_ns: u64,
    /// Summed wait (sleeps: supervised polls, retry backoff).
    pub wait_ns: u64,
    /// Total allocations across all root spans (inclusive).
    pub allocs: u64,
    /// Total allocated bytes across all root spans (inclusive).
    pub alloc_bytes: u64,
    /// Largest single-span peak net footprint observed.
    pub peak_bytes: u64,
    /// Top-K span names by summed self-time.
    pub hotspots: Vec<Hotspot>,
    /// The longest root-to-leaf chain.
    pub critical_path: Vec<PathStep>,
}

crate::impl_json!(struct PerfReport {
    label,
    wall_ns,
    work_ns,
    wait_ns,
    allocs,
    alloc_bytes,
    peak_bytes,
    hotspots,
    critical_path
});

/// A span's self components: inclusive totals minus direct children's
/// inclusive totals, clamped at zero.
fn self_parts(span: &SpanRecord) -> (u64, u64, u64, u64) {
    let child_ns: u64 = span.children.iter().map(SpanRecord::duration_ns).sum();
    let child_wait: u64 = span.children.iter().map(|c| c.wait_ns).sum();
    let child_allocs: u64 = span.children.iter().map(|c| c.allocs).sum();
    let child_bytes: u64 = span.children.iter().map(|c| c.alloc_bytes).sum();
    (
        span.duration_ns().saturating_sub(child_ns),
        span.wait_ns.saturating_sub(child_wait),
        span.allocs.saturating_sub(child_allocs),
        span.alloc_bytes.saturating_sub(child_bytes),
    )
}

impl PerfReport {
    /// Analyzes a frozen telemetry report. `label` names the analysis
    /// (and the `SCAN_PERF_<label>.json` export).
    pub fn from_telemetry(label: &str, report: &TelemetryReport) -> Self {
        use std::collections::BTreeMap;
        let mut by_name: BTreeMap<String, Hotspot> = BTreeMap::new();
        let mut wall_start = u64::MAX;
        let mut wall_end = 0u64;
        let mut peak_bytes = 0u64;
        fn walk(span: &SpanRecord, by_name: &mut BTreeMap<String, Hotspot>, peak: &mut u64) {
            let (self_ns, self_wait, self_allocs, self_bytes) = self_parts(span);
            let entry = by_name.entry(span.name.clone()).or_default();
            if entry.name.is_empty() {
                entry.name = span.name.clone();
            }
            entry.count += 1;
            entry.total_ns += span.duration_ns();
            entry.self_ns += self_ns;
            entry.wait_ns += self_wait;
            entry.allocs += self_allocs;
            entry.alloc_bytes += self_bytes;
            *peak = (*peak).max(span.peak_bytes);
            for child in &span.children {
                walk(child, by_name, peak);
            }
        }
        for root in &report.spans {
            wall_start = wall_start.min(root.start_ns);
            wall_end = wall_end.max(root.end_ns);
            walk(root, &mut by_name, &mut peak_bytes);
        }
        let total_self: u64 = by_name.values().map(|h| h.self_ns).sum();
        let total_wait: u64 = by_name.values().map(|h| h.wait_ns).sum();
        let total_allocs: u64 = by_name.values().map(|h| h.allocs).sum();
        let total_alloc_bytes: u64 = by_name.values().map(|h| h.alloc_bytes).sum();
        let mut hotspots: Vec<Hotspot> = by_name.into_values().collect();
        hotspots.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(&b.name)));
        hotspots.truncate(PERF_TOP_K);

        // Critical path: the longest root, then always the
        // longest-duration child, down to a leaf.
        let mut critical_path = Vec::new();
        let mut cursor = report
            .spans
            .iter()
            .max_by_key(|s| (s.duration_ns(), std::cmp::Reverse(s.start_ns)));
        while let Some(span) = cursor {
            let (self_ns, ..) = self_parts(span);
            critical_path.push(PathStep {
                name: span.name.clone(),
                duration_ns: span.duration_ns(),
                self_ns,
            });
            cursor = span
                .children
                .iter()
                .max_by_key(|c| (c.duration_ns(), std::cmp::Reverse(c.start_ns)));
        }

        PerfReport {
            label: label.to_string(),
            wall_ns: wall_end.saturating_sub(if wall_start == u64::MAX {
                0
            } else {
                wall_start
            }),
            work_ns: total_self.saturating_sub(total_wait),
            wait_ns: total_wait,
            allocs: total_allocs,
            alloc_bytes: total_alloc_bytes,
            peak_bytes,
            hotspots,
            critical_path,
        }
    }

    /// The work/wait/alloc decomposition as one summary line.
    pub fn summary(&self) -> String {
        format!(
            "perf {}: wall {} (work {}, wait {}), {} allocs / {} (peak {})",
            self.label,
            fmt_ns(self.wall_ns),
            fmt_ns(self.work_ns),
            fmt_ns(self.wait_ns),
            self.allocs,
            fmt_bytes(self.alloc_bytes),
            fmt_bytes(self.peak_bytes),
        )
    }

    /// The rendered attribution table: summary line, hotspot rows
    /// (self-time ranked), and the critical path.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.summary());
        out.push('\n');
        if !self.hotspots.is_empty() {
            out.push_str("hotspots (by self time):\n");
            let width = self
                .hotspots
                .iter()
                .map(|h| h.name.len())
                .max()
                .unwrap_or(0);
            for h in &self.hotspots {
                out.push_str(&format!(
                    "  {:<width$}  self {:>8}  total {:>8}  x{:<4} {:>6} allocs  {:>9}\n",
                    h.name,
                    fmt_ns(h.self_ns),
                    fmt_ns(h.total_ns),
                    h.count,
                    h.allocs,
                    fmt_bytes(h.alloc_bytes),
                ));
            }
        }
        if !self.critical_path.is_empty() {
            let chain: Vec<String> = self
                .critical_path
                .iter()
                .map(|s| format!("{} {}", s.name, fmt_ns(s.duration_ns)))
                .collect();
            out.push_str(&format!("critical path: {}\n", chain.join(" -> ")));
        }
        out
    }

    /// Writes the report as `SCAN_PERF_<label>.json` into `dir`, named
    /// by its own [`label`](Self::label)
    /// ([`Artifact::Perf`](crate::store::Artifact::Perf)).
    ///
    /// # Errors
    ///
    /// See [`Artifact::write`](crate::store::Artifact::write).
    pub fn write_json_in(&self, dir: &std::path::Path) -> std::io::Result<PathBuf> {
        let json = self.to_json().render_pretty(2);
        crate::store::Artifact::Perf.write(dir, &self.label, json.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{FromJson, JsonValue};
    use crate::obs::{Clock, FakeClock, Telemetry};
    use std::sync::Arc;

    #[test]
    fn counting_allocator_counts_this_thread() {
        let before = thread_stats();
        let v: Vec<u8> = Vec::with_capacity(4096);
        drop(v);
        let after = thread_stats();
        assert!(after.allocs > before.allocs, "alloc counted");
        assert!(after.deallocs > before.deallocs, "dealloc counted");
        assert!(
            after.alloc_bytes >= before.alloc_bytes + 4096,
            "bytes counted"
        );
        assert!(after.dealloc_bytes >= before.dealloc_bytes + 4096);
    }

    #[test]
    fn scopes_attribute_allocations_and_peak() {
        let token = begin_scope();
        let a: Vec<u8> = vec![0; 10_000];
        drop(a);
        let b: Vec<u8> = vec![0; 2_000];
        let m = token.end();
        drop(b);
        assert!(m.allocs >= 2, "two vecs allocated: {m:?}");
        assert!(m.alloc_bytes >= 12_000, "both counted: {m:?}");
        assert!(m.peak_bytes >= 10_000, "peak saw the big vec: {m:?}");
        // The big vec was freed before the scope closed, so the peak is
        // not the sum of both.
        assert!(m.peak_bytes < 12_000 + 4096, "peak is not a sum: {m:?}");
    }

    #[test]
    fn nested_scopes_restore_the_parent_peak() {
        let outer = begin_scope();
        let big: Vec<u8> = vec![0; 50_000];
        drop(big);
        {
            let inner = begin_scope();
            let small: Vec<u8> = vec![0; 1_000];
            let m = inner.end();
            drop(small);
            assert!(m.peak_bytes >= 1_000);
            assert!(m.peak_bytes < 50_000, "inner scope never saw the big vec");
        }
        let m = outer.end();
        assert!(
            m.peak_bytes >= 50_000,
            "outer peak survives the inner scope: {m:?}"
        );
    }

    #[test]
    fn cross_thread_end_is_empty() {
        let token = begin_scope();
        let _junk: Vec<u8> = vec![0; 1_000];
        let m = std::thread::spawn(move || token.end()).join().unwrap();
        assert_eq!(m, ScopeMeasurement::default());
    }

    #[test]
    fn wait_accumulates_through_both_clocks() {
        use crate::obs::{Clock, MonotonicClock};
        let before = thread_stats().wait_ns;
        let fake = FakeClock::new();
        fake.sleep_ns(1_000);
        fake.sleep_ns(500);
        let wall = MonotonicClock::new();
        wall.sleep_ns(1);
        let waited = thread_stats().wait_ns - before;
        assert!(waited >= 1_501, "both clocks report waits: {waited}");
    }

    #[test]
    fn perf_report_decomposes_work_and_wait() {
        let clock = Arc::new(FakeClock::new());
        let telemetry = Telemetry::with_clock(clock.clone());
        {
            let _sweep = telemetry.span("sweep");
            clock.advance(100);
            {
                let _scan = telemetry.span("scan");
                clock.advance(300);
            }
            {
                let _retry = telemetry.span("retry");
                clock.sleep_ns(400); // backoff: pure wait
                clock.advance(200);
            }
        }
        let perf = PerfReport::from_telemetry("unit", &telemetry.report());
        assert_eq!(perf.wall_ns, 1_000);
        assert_eq!(perf.wait_ns, 400, "the backoff sleep is wait");
        assert_eq!(perf.work_ns, 600, "everything else is work");
        assert_eq!(perf.critical_path[0].name, "sweep");
        assert_eq!(perf.critical_path[1].name, "retry", "longest child");
        assert_eq!(perf.critical_path.len(), 2);
        let rendered = perf.render();
        assert!(rendered.contains("critical path: sweep 1.0µs -> retry 600ns"));
        assert!(rendered.contains("hotspots"));
    }

    #[test]
    fn perf_report_round_trips_and_writes() {
        let clock = Arc::new(FakeClock::new());
        let telemetry = Telemetry::with_clock(clock.clone());
        {
            let _a = telemetry.span("a");
            clock.advance(10);
        }
        let perf = PerfReport::from_telemetry("round trip!", &telemetry.report());
        let parsed =
            PerfReport::from_json(&JsonValue::parse(&perf.to_json().render()).unwrap()).unwrap();
        assert_eq!(parsed, perf);

        let dir = std::env::temp_dir().join(format!("strider-prof-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = perf.write_json_in(&dir).unwrap();
        assert!(path.ends_with("SCAN_PERF_round_trip.json"));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"critical_path\""));
        std::fs::remove_file(&path).ok();
        std::fs::remove_dir(&dir).ok();
    }

    #[test]
    fn empty_report_yields_empty_perf() {
        let perf = PerfReport::from_telemetry("empty", &TelemetryReport::default());
        assert_eq!(perf.wall_ns, 0);
        assert!(perf.hotspots.is_empty());
        assert!(perf.critical_path.is_empty());
    }
}
