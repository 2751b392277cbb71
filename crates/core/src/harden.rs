//! Scanner-side anti-evasion plumbing shared by the pipelines.
//!
//! Three pieces live here. [`DecoyPump`] interleaves discarded queries of
//! *other* kinds into a scanner's real query stream, so the same-kind
//! bursts that burst-sensing ghostware fingerprints never form (see
//! [`EvasionHardening::decoy_every`]). [`PassCounter`] hands each scan
//! pass a fresh index for [`EvasionHardening::pass_stream`], so
//! consecutive quorum passes shuffle their enumeration differently while
//! the whole sequence stays derivable from the policy seed — the counter
//! is reset whenever a scanner is re-supervised for a pipeline run, which
//! keeps fleet shards deterministic regardless of work-stealing order.
//! [`TruthMemo`] keeps the truth bytes a scanner's last pass read and the
//! snapshot parsed from them, so a quorum pass that reads the same bytes
//! again skips the parse; it is reset alongside the pass counter.
//!
//! [`EvasionHardening`]: crate::policy::EvasionHardening
//! [`EvasionHardening::decoy_every`]: crate::policy::EvasionHardening::decoy_every
//! [`EvasionHardening::pass_stream`]: crate::policy::EvasionHardening::pass_stream

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use strider_nt_core::Tick;
use strider_support::sync::Mutex;
use strider_winapi::{CallContext, ChainEntry, Machine, Query};

use crate::policy::ScanPolicy;
use crate::snapshot::Snapshot;

/// Issues one discarded decoy query per `every` real queries, rotating
/// through `rotation`. Call sites pass a rotation that excludes their own
/// query kind (a files decoy during a Registry probe run must not extend
/// the Registry burst it is there to break).
#[derive(Debug)]
pub(crate) struct DecoyPump {
    every: u32,
    since_last: u32,
    rotation: Vec<Query>,
    next: usize,
    issued: u64,
}

impl DecoyPump {
    /// `every == 0` (or an empty rotation) disables the pump.
    pub fn new(every: u32, rotation: Vec<Query>) -> Self {
        Self {
            every,
            since_last: 0,
            rotation,
            next: 0,
            issued: 0,
        }
    }

    /// A pump for a policy without hardening: never fires.
    pub fn disabled() -> Self {
        Self::new(0, Vec::new())
    }

    /// Counts one real query; fires a decoy when the interval fills. The
    /// decoy's result (and any error — a decoy may probe a path hidden
    /// from this caller) is discarded: its only job is to appear in the
    /// adversary-observable query stream.
    pub fn tick(&mut self, machine: &Machine, ctx: &CallContext) {
        if self.every == 0 || self.rotation.is_empty() {
            return;
        }
        self.since_last += 1;
        if self.since_last < self.every {
            return;
        }
        self.since_last = 0;
        let query = &self.rotation[self.next % self.rotation.len()];
        self.next += 1;
        let _ = machine.query(ctx, query, ChainEntry::Win32);
        self.issued += 1;
    }

    /// Decoys issued so far (for the `<pipeline>.decoys` telemetry
    /// counter and the DESIGN cost model).
    pub fn issued(&self) -> u64 {
        self.issued
    }
}

/// The standard decoy rotation for a file-enumeration scan: process and
/// Registry queries, never more directory enumeration.
pub(crate) fn file_scan_decoys() -> Vec<Query> {
    vec![
        Query::ProcessList,
        Query::RegEnumKeys {
            key: "HKLM\\SOFTWARE".parse().expect("static decoy key"),
        },
    ]
}

/// The standard decoy rotation for a Registry probe run: process and
/// root-directory queries, never more Registry enumeration.
pub(crate) fn registry_scan_decoys(volume_label: &str) -> Vec<Query> {
    vec![
        Query::ProcessList,
        Query::DirectoryEnum {
            path: strider_nt_core::NtPath::root_of(volume_label),
        },
    ]
}

/// A clone-shared pass counter. Each scan pass calls [`PassCounter::next`]
/// to index its [`pass_stream`]; re-supervising a scanner replaces the
/// counter with a fresh one so every pipeline run starts from pass 0.
///
/// [`pass_stream`]: crate::policy::EvasionHardening::pass_stream
#[derive(Debug, Clone, Default)]
pub(crate) struct PassCounter {
    inner: Arc<AtomicU64>,
}

impl PassCounter {
    /// The next pass index (0, 1, 2, … per counter instance).
    pub fn next(&self) -> u64 {
        self.inner.fetch_add(1, Ordering::Relaxed)
    }
}

/// The truth bytes a scanner's last pass read, and the snapshot it parsed
/// from them.
///
/// Each pass still does the full raw read (so I/O, injected faults, stalls
/// and the ghostware's scan sensing are untouched); only when the bytes
/// compare equal to the kept ones does the scanner skip the parse and hand
/// back the kept snapshot, restamped. Equality is exact: no hash stands in
/// for bytes the ghostware controls. The memo keeps anything only under a
/// policy that can scan more than once per pipeline run, and the scanner
/// replaces it with an empty one whenever it is re-supervised, so a memo
/// never outlives its run. A clone starts empty.
pub(crate) struct TruthMemo<B, T> {
    last: Mutex<Option<Arc<KeptTruth<B, T>>>>,
}

/// One remembered truth: the raw bytes and the snapshot parsed from them.
pub(crate) struct KeptTruth<B, T> {
    pub bytes: B,
    snapshot: Snapshot<T>,
}

impl<B, T: Clone> KeptTruth<B, T> {
    /// The kept snapshot as a pass at `taken_at` would have parsed it: an
    /// O(1) clone with only its time changed.
    pub fn restamped(&self, taken_at: Tick) -> Snapshot<T> {
        let mut snapshot = self.snapshot.clone();
        snapshot.meta.taken_at = taken_at;
        snapshot
    }
}

impl<B, T> Default for TruthMemo<B, T> {
    fn default() -> Self {
        Self {
            last: Mutex::new(None),
        }
    }
}

impl<B, T> fmt::Debug for TruthMemo<B, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kept = self.last.lock().is_some();
        f.debug_struct("TruthMemo").field("kept", &kept).finish()
    }
}

impl<B, T> Clone for TruthMemo<B, T> {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl<B, T: Clone> TruthMemo<B, T> {
    /// The truth the previous pass kept, if any.
    pub fn last(&self) -> Option<Arc<KeptTruth<B, T>>> {
        self.last.lock().clone()
    }

    /// Keeps `bytes` and the snapshot parsed from them for the next pass,
    /// when `policy` can run a pipeline's scan more than once; a
    /// single-pass policy keeps nothing.
    pub fn keep(&self, policy: &ScanPolicy, bytes: B, snapshot: &Snapshot<T>) {
        if policy.repeats_passes() {
            *self.last.lock() = Some(Arc::new(KeptTruth {
                bytes,
                snapshot: snapshot.clone(),
            }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pump_fires_on_the_interval_and_rotates() {
        let m = Machine::with_base_system("t").unwrap();
        let ctx = m.context_for_name("explorer.exe").unwrap();
        let mut pump = DecoyPump::new(2, file_scan_decoys());
        let before = m.scan_tap().queries();
        for _ in 0..6 {
            pump.tick(&m, &ctx);
        }
        assert_eq!(pump.issued(), 3);
        assert_eq!(m.scan_tap().queries() - before, 3);
        let mut off = DecoyPump::disabled();
        for _ in 0..6 {
            off.tick(&m, &ctx);
        }
        assert_eq!(off.issued(), 0);
    }

    #[test]
    fn pass_counter_resets_with_a_fresh_instance() {
        let counter = PassCounter::default();
        let shared = counter.clone();
        assert_eq!(counter.next(), 0);
        assert_eq!(shared.next(), 1);
        let fresh = PassCounter::default();
        assert_eq!(fresh.next(), 0);
    }
}
