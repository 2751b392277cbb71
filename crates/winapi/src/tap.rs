//! The scan-observation tap: what ghostware can see of a scan in flight.
//!
//! The paper's countermeasures discussion (Section 7) anticipates ghostware
//! that *adapts* to the scanner — unhiding while a low-level scan runs,
//! re-hooking after a sweep, flickering which resources hide. All of those
//! tactics need a sensor. On a real machine the sensor is free: a rootkit
//! sitting on the query chain sees every `NtQueryDirectoryFile` go by, a
//! filter driver sees raw volume reads, and the process list names the
//! scanner binary. [`ScanTap`] models exactly that observable surface —
//! and *only* that surface.
//!
//! Crucially, [`Machine::snapshot_disk`] (the outside-the-box capture) is
//! **not** tapped: powering the box down and reading the disk from a clean
//! environment is invisible to software running inside the box, which is
//! precisely the paper's argument for why the outside-the-box scan wins
//! the arms race.
//!
//! The tap is a clone-handle (like `FlightRecorder`): [`Machine`] owns one
//! and records into it from `&self` query/read paths; ghostware filters
//! capture a clone and consult it per call. All counters are monotonic and
//! cheap (atomics; one small mutex for the run/caller state).
//!
//! [`Machine`]: crate::Machine
//! [`Machine::snapshot_disk`]: crate::Machine::snapshot_disk

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::query::QueryKind;

/// How many distinct recent caller image names the tap retains.
const RECENT_CALLERS: usize = 16;

/// Which low-level truth source a raw read touched. It is also the key
/// of the machine's one read gate: a [`FaultInjector`] arms its stall,
/// transient and corruption faults per source, and every gated read is
/// tapped here once it gets past the stall and the transient fault.
///
/// [`FaultInjector`]: crate::FaultInjector
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RawSource {
    /// The raw NTFS volume image ([`try_read_raw_volume_image`]).
    ///
    /// [`try_read_raw_volume_image`]: crate::Machine::try_read_raw_volume_image
    Volume,
    /// A Registry hive's backing bytes ([`try_copy_hive_bytes`]).
    ///
    /// [`try_copy_hive_bytes`]: crate::Machine::try_copy_hive_bytes
    Hive,
    /// A kernel crash-dump capture ([`try_crash_dump`]).
    ///
    /// [`try_crash_dump`]: crate::Machine::try_crash_dump
    Dump,
}

#[derive(Debug, Default)]
struct RunState {
    /// Kind of the most recent query.
    last_kind: Option<QueryKind>,
    /// Length of the current same-kind query run (including the latest).
    run_length: u64,
    /// Recent distinct caller image names, newest last, bounded.
    callers: Vec<String>,
}

#[derive(Debug)]
struct TapInner {
    /// Total queries observed on the hook chain.
    queries: AtomicU64,
    /// Total raw truth-source reads observed.
    raw_reads: AtomicU64,
    /// Query counter value at the most recent raw read of each source;
    /// `u64::MAX` means that source has never been read.
    raw_volume_at: AtomicU64,
    raw_hive_at: AtomicU64,
    raw_dump_at: AtomicU64,
    run: Mutex<RunState>,
}

/// A clone-handle view of in-flight scan activity, as observable from
/// *inside* the box.
///
/// Obtained from [`Machine::scan_tap`]; every clone shares the same
/// counters. Installed ghostware captures a clone in its query filters and
/// uses it to sense scans: raw-read activity on the volume/hive/dump
/// sources, burst-enumeration patterns (long same-kind query runs), and
/// scanner process names among recent callers.
///
/// [`Machine::scan_tap`]: crate::Machine::scan_tap
#[derive(Debug, Clone)]
pub struct ScanTap {
    inner: Arc<TapInner>,
}

impl Default for ScanTap {
    fn default() -> Self {
        Self::new()
    }
}

impl ScanTap {
    /// Creates a fresh tap with zeroed counters.
    pub fn new() -> Self {
        Self {
            inner: Arc::new(TapInner {
                queries: AtomicU64::new(0),
                raw_reads: AtomicU64::new(0),
                raw_volume_at: AtomicU64::new(u64::MAX),
                raw_hive_at: AtomicU64::new(u64::MAX),
                raw_dump_at: AtomicU64::new(u64::MAX),
                run: Mutex::new(RunState::default()),
            }),
        }
    }

    // --------------------------------------------------------------
    // Recording (called by Machine)
    // --------------------------------------------------------------

    /// Records one query entering the hook chain. Called by
    /// [`Machine::query`]/[`Machine::query_traced`] before any hook runs,
    /// so filters consulting the tap already see the in-flight query.
    ///
    /// [`Machine::query`]: crate::Machine::query
    /// [`Machine::query_traced`]: crate::Machine::query_traced
    pub(crate) fn record_query(&self, kind: QueryKind, caller: &str) {
        self.inner.queries.fetch_add(1, Ordering::Relaxed);
        let mut run = self.inner.run.lock().unwrap_or_else(|e| e.into_inner());
        if run.last_kind == Some(kind) {
            run.run_length += 1;
        } else {
            run.last_kind = Some(kind);
            run.run_length = 1;
        }
        if !run.callers.iter().any(|c| c == caller) {
            if run.callers.len() == RECENT_CALLERS {
                run.callers.remove(0);
            }
            run.callers.push(caller.to_string());
        }
    }

    /// Records one raw read of a low-level truth source.
    pub(crate) fn record_raw_read(&self, source: RawSource) {
        self.inner.raw_reads.fetch_add(1, Ordering::Relaxed);
        let now = self.inner.queries.load(Ordering::Relaxed);
        let slot = match source {
            RawSource::Volume => &self.inner.raw_volume_at,
            RawSource::Hive => &self.inner.raw_hive_at,
            RawSource::Dump => &self.inner.raw_dump_at,
        };
        slot.store(now, Ordering::Relaxed);
    }

    // --------------------------------------------------------------
    // Sensing (called by ghostware)
    // --------------------------------------------------------------

    /// Total queries observed so far.
    pub fn queries(&self) -> u64 {
        self.inner.queries.load(Ordering::Relaxed)
    }

    /// Total raw truth-source reads observed so far.
    pub fn raw_reads(&self) -> u64 {
        self.inner.raw_reads.load(Ordering::Relaxed)
    }

    /// How many queries have passed since the most recent raw read of
    /// *any* source, or `None` if no raw read has happened yet. `Some(0)`
    /// means a raw read just fired.
    pub fn queries_since_raw_read(&self) -> Option<u64> {
        let at = [
            self.inner.raw_volume_at.load(Ordering::Relaxed),
            self.inner.raw_hive_at.load(Ordering::Relaxed),
            self.inner.raw_dump_at.load(Ordering::Relaxed),
        ]
        .into_iter()
        .filter(|&v| v != u64::MAX)
        .max()?;
        Some(self.queries().saturating_sub(at))
    }

    /// The kind of the most recent query and the length of the current
    /// same-kind run (a long run is the fingerprint of a bulk
    /// enumeration). `(None, 0)` before the first query.
    pub fn current_run(&self) -> (Option<QueryKind>, u64) {
        let run = self.inner.run.lock().unwrap_or_else(|e| e.into_inner());
        (run.last_kind, run.run_length)
    }

    /// True if a recent caller's image name contains `needle`
    /// (case-insensitive) — e.g. `saw_caller("ghostbuster")`.
    pub fn saw_caller(&self, needle: &str) -> bool {
        let needle = needle.to_ascii_lowercase();
        let run = self.inner.run.lock().unwrap_or_else(|e| e.into_inner());
        run.callers.iter().any(|c| c.contains(&needle))
    }

    /// Recent distinct caller image names, newest last.
    pub fn recent_callers(&self) -> Vec<String> {
        let run = self.inner.run.lock().unwrap_or_else(|e| e.into_inner());
        run.callers.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_counters_and_track_runs() {
        let tap = ScanTap::new();
        let view = tap.clone();
        assert_eq!(view.queries(), 0);
        assert_eq!(view.queries_since_raw_read(), None);
        tap.record_query(QueryKind::Files, "explorer.exe");
        tap.record_query(QueryKind::Files, "ghostbuster.exe");
        tap.record_query(QueryKind::Processes, "ghostbuster.exe");
        assert_eq!(view.queries(), 3);
        assert_eq!(view.current_run(), (Some(QueryKind::Processes), 1));
        tap.record_query(QueryKind::Processes, "ghostbuster.exe");
        assert_eq!(view.current_run(), (Some(QueryKind::Processes), 2));
        assert!(view.saw_caller("GHOSTBUSTER"));
        assert!(!view.saw_caller("winpe"));
        assert_eq!(view.recent_callers().len(), 2);
    }

    #[test]
    fn raw_reads_reset_the_query_distance() {
        let tap = ScanTap::new();
        tap.record_query(QueryKind::Files, "a.exe");
        tap.record_raw_read(RawSource::Volume);
        assert_eq!(tap.queries_since_raw_read(), Some(0));
        tap.record_query(QueryKind::Files, "a.exe");
        tap.record_query(QueryKind::Files, "a.exe");
        assert_eq!(tap.queries_since_raw_read(), Some(2));
        tap.record_raw_read(RawSource::Hive);
        assert_eq!(tap.queries_since_raw_read(), Some(0));
        assert_eq!(tap.raw_reads(), 2);
    }

    #[test]
    fn caller_ring_is_bounded() {
        let tap = ScanTap::new();
        for i in 0..40 {
            tap.record_query(QueryKind::Files, &format!("proc{i}.exe"));
        }
        let callers = tap.recent_callers();
        assert_eq!(callers.len(), RECENT_CALLERS);
        assert_eq!(callers.last().unwrap(), "proc39.exe");
    }
}
