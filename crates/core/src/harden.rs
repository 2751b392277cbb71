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
//! [`TruthMemo`] is the one reader of the file and Registry truth: it
//! takes a pass's raw parts (the volume image, or one copy per hive) as
//! they are read and owns the whole reuse decision, so a quorum pass whose
//! parts all repeat the previous pass's skips the parse, and one whose
//! parts differ releases the kept truth before it parses; it is reset
//! alongside the pass counter.
//!
//! [`EvasionHardening`]: crate::policy::EvasionHardening
//! [`EvasionHardening::decoy_every`]: crate::policy::EvasionHardening::decoy_every
//! [`EvasionHardening::pass_stream`]: crate::policy::EvasionHardening::pass_stream

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use strider_nt_core::{NtStatus, Tick};
use strider_support::sync::Mutex;
use strider_winapi::{CallContext, ChainEntry, Machine, Query};

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

/// The one reader of a scanner's truth, and the truth its last pass read:
/// the raw parts and the snapshot built from them.
///
/// A part is one raw read: the volume image, or one `(mount, bytes)` copy
/// per hive. Every pass reads every part (so I/O, injected faults, stalls
/// and the ghostware's scan sensing are untouched). Without a kept truth
/// each part is parsed on arrival and released. With one, parts equal to
/// the kept ones wait unparsed; the first part that differs releases the
/// kept truth, and the waiting parts and every later one are parsed on
/// arrival, so a strict parse fails before the next part is read. When
/// every part repeats, the kept snapshot serves with this pass's time.
/// Equality is exact: no hash stands in for bytes the ghostware controls.
/// Only a policy that can scan more than once per pipeline run keeps a
/// truth, and the scanner replaces the memo with an empty one whenever it
/// is re-supervised, so a memo never outlives its run. A clone starts
/// empty.
pub(crate) struct TruthMemo<P, T> {
    kept: Mutex<Option<KeptTruth<P, T>>>,
}

/// One remembered truth: the raw parts and the snapshot built from them.
type KeptTruth<P, T> = Arc<(Vec<P>, Snapshot<T>)>;

impl<P, T> Default for TruthMemo<P, T> {
    fn default() -> Self {
        Self {
            kept: Mutex::new(None),
        }
    }
}

impl<P, T> fmt::Debug for TruthMemo<P, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kept = self.kept.lock().is_some();
        f.debug_struct("TruthMemo").field("kept", &kept).finish()
    }
}

impl<P, T> Clone for TruthMemo<P, T> {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl<P: PartialEq, T: Clone> TruthMemo<P, T> {
    /// One pass's truth, taken at `taken_at`: reads `parts` in order,
    /// parses them with `parse` as the kept truth allows, and builds the
    /// snapshot from the parses with `build`; with `keep`, the parts and
    /// the snapshot are kept for the next pass. Also returns whether the
    /// kept snapshot served.
    ///
    /// # Errors
    ///
    /// The first failing read or parse; no later part is read.
    pub fn read<Q>(
        &self,
        keep: bool,
        taken_at: Tick,
        parts: impl IntoIterator<Item = Result<P, NtStatus>>,
        mut parse: impl FnMut(&P) -> Result<Q, NtStatus>,
        build: impl FnOnce(Vec<Q>) -> Snapshot<T>,
    ) -> Result<(Snapshot<T>, bool), NtStatus> {
        let mut kept = self.kept.lock().clone();
        let (mut waiting, mut parsed, mut keeping) = (Vec::new(), Vec::new(), Vec::new());
        let mut parse_waiting = |waiting: &mut Vec<P>| {
            for part in waiting.drain(..) {
                parsed.push(parse(&part)?);
                keeping.extend(keep.then_some(part));
            }
            Ok::<_, NtStatus>(())
        };
        for part in parts {
            waiting.push(part?);
            kept = kept.filter(|kept| kept.0.get(waiting.len() - 1) == waiting.last());
            if kept.is_none() {
                // Let go of a changed truth before parsing.
                *self.kept.lock() = None;
                parse_waiting(&mut waiting)?;
            }
        }
        if let Some(kept) = kept.filter(|kept| kept.0.len() == waiting.len()) {
            let mut snapshot = kept.1.clone();
            snapshot.meta.taken_at = taken_at;
            return Ok((snapshot, true));
        }
        *self.kept.lock() = None;
        parse_waiting(&mut waiting)?;
        let snapshot = build(parsed);
        if keep {
            *self.kept.lock() = Some(Arc::new((keeping, snapshot.clone())));
        }
        Ok((snapshot, false))
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
