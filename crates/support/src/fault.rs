//! Deterministic fault injection and the salvage vocabulary (replaces ad-hoc
//! corruption helpers scattered through tests).
//!
//! Two halves, used together by the robustness layer:
//!
//! * **Injection** — [`FaultPlan`] corrupts a byte image the way a live disk
//!   or a mid-flight crash dump gets corrupted (bit flips, torn 512-byte
//!   sector writes, zeroed 4 KiB pages, tail truncation), deterministically
//!   from a seed so every failure reproduces. [`TransientFaults`] models a
//!   device that fails N reads and then recovers, to exercise retry paths;
//!   [`Stall`] models a read that stays *pending* for N polls (or forever),
//!   to exercise deadline and cancellation paths. The simulated machine
//!   arms one stall, one countdown and one plan per truth source (volume,
//!   hive, dump) and checks them in one read gate, in that order (see
//!   `strider_winapi::FaultInjector`). [`CrashPlan`] kills a durable
//!   writer at a seeded byte offset of its appends, to exercise crash
//!   recovery of the one record store write path.
//! * **Salvage** — the typed damage report the low-level parsers return in
//!   salvage mode: [`Salvaged<T>`] pairs a best-effort value with the
//!   [`Defect`]s encountered, instead of aborting on the first bad byte.
//!
//! Both halves are `std`-only; the randomness comes from [`crate::rng`].

use crate::rng::SplitMix64;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

/// Disk sector size used for torn-write faults.
pub const SECTOR_BYTES: usize = 512;
/// Memory page size used for zeroed-page faults.
pub const PAGE_BYTES: usize = 4096;

// ---------------------------------------------------------------------
// FaultPlan — deterministic image corruption
// ---------------------------------------------------------------------

/// A deterministic corruption recipe for a byte image.
///
/// All randomness derives from the plan's seed, so the same plan applied to
/// the same bytes always yields the same corrupted image — a failing
/// property-test case reproduces from its seed alone.
///
/// # Examples
///
/// ```
/// use strider_support::fault::FaultPlan;
///
/// let image = vec![0xAAu8; 8192];
/// let plan = FaultPlan::new(7).bit_flips(3).zeroed_pages(1);
/// let a = plan.apply(&image);
/// let b = plan.apply(&image);
/// assert_eq!(a, b); // deterministic
/// assert_ne!(a, image); // but corrupted
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    bit_flips: u32,
    torn_sectors: u32,
    zeroed_pages: u32,
    truncate_fraction: f64,
    zero_ranges: Vec<(usize, usize)>,
}

impl FaultPlan {
    /// An empty (no-op) plan seeded for later randomized faults.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            bit_flips: 0,
            torn_sectors: 0,
            zeroed_pages: 0,
            truncate_fraction: 0.0,
            zero_ranges: Vec::new(),
        }
    }

    /// Flips `n` random bits anywhere in the image.
    pub fn bit_flips(mut self, n: u32) -> Self {
        self.bit_flips = n;
        self
    }

    /// Overwrites `n` random 512-byte sectors with garbage (a torn write
    /// that landed stale or half-written data).
    pub fn torn_sectors(mut self, n: u32) -> Self {
        self.torn_sectors = n;
        self
    }

    /// Zeroes `n` random 4 KiB pages (an unflushed page lost to a crash).
    pub fn zeroed_pages(mut self, n: u32) -> Self {
        self.zeroed_pages = n;
        self
    }

    /// Truncates the image, keeping roughly `keep` of it (clamped to 0..=1).
    /// `keep = 1.0` disables truncation.
    pub fn truncate_to(mut self, keep: f64) -> Self {
        self.truncate_fraction = 1.0 - keep.clamp(0.0, 1.0);
        self
    }

    /// Zeroes an explicit `[offset, offset + len)` range — for targeted
    /// tests that must damage a known region (e.g. one hive bin) while
    /// leaving headers intact. Out-of-range portions are ignored.
    pub fn zero_range(mut self, offset: usize, len: usize) -> Self {
        self.zero_ranges.push((offset, len));
        self
    }

    /// A randomized mixed-fault plan for property tests: the seed picks
    /// which fault classes fire and how hard.
    pub fn random(seed: u64) -> Self {
        let mut rng = SplitMix64::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
        let mut plan = FaultPlan::new(seed);
        plan.bit_flips = rng.next_below(9) as u32;
        if rng.chance(1, 2) {
            plan.torn_sectors = rng.next_below(3) as u32 + 1;
        }
        if rng.chance(2, 5) {
            plan.zeroed_pages = rng.next_below(2) as u32 + 1;
        }
        if rng.chance(2, 5) {
            plan.truncate_fraction = rng.next_f64() * 0.9;
        }
        plan
    }

    /// Whether applying this plan returns the input unchanged.
    pub fn is_noop(&self) -> bool {
        self.bit_flips == 0
            && self.torn_sectors == 0
            && self.zeroed_pages == 0
            && self.truncate_fraction == 0.0
            && self.zero_ranges.is_empty()
    }

    /// Applies the plan to `image`, returning the corrupted copy. Faults
    /// land at seed-derived offsets; an empty image passes through.
    pub fn apply(&self, image: &[u8]) -> Vec<u8> {
        let mut bytes = image.to_vec();
        if bytes.is_empty() {
            return bytes;
        }
        let mut rng = SplitMix64::seed_from_u64(self.seed);
        for &(offset, len) in &self.zero_ranges {
            let end = offset.saturating_add(len).min(bytes.len());
            if offset < end {
                bytes[offset..end].fill(0);
            }
        }
        for _ in 0..self.zeroed_pages {
            let page = rng.next_below((bytes.len() / PAGE_BYTES + 1) as u64) as usize;
            let start = (page * PAGE_BYTES).min(bytes.len().saturating_sub(1));
            let end = (start + PAGE_BYTES).min(bytes.len());
            bytes[start..end].fill(0);
        }
        for _ in 0..self.torn_sectors {
            let sector = rng.next_below((bytes.len() / SECTOR_BYTES + 1) as u64) as usize;
            let start = (sector * SECTOR_BYTES).min(bytes.len().saturating_sub(1));
            let end = (start + SECTOR_BYTES).min(bytes.len());
            for b in &mut bytes[start..end] {
                *b = rng.next_u8();
            }
        }
        for _ in 0..self.bit_flips {
            let at = rng.next_below(bytes.len() as u64) as usize;
            let bit = rng.next_below(8) as u8;
            bytes[at] ^= 1 << bit;
        }
        if self.truncate_fraction > 0.0 {
            let keep = ((bytes.len() as f64) * (1.0 - self.truncate_fraction)) as usize;
            bytes.truncate(keep);
        }
        bytes
    }
}

// ---------------------------------------------------------------------
// TransientFaults — "fails N times, then recovers"
// ---------------------------------------------------------------------

/// A countdown of read failures: the first `n` calls to [`should_fail`]
/// report a fault, every later call succeeds — a device that comes back
/// after retries. Interior-mutable so read paths taking `&self` can consume
/// failures.
///
/// [`should_fail`]: TransientFaults::should_fail
///
/// # Examples
///
/// ```
/// use strider_support::fault::TransientFaults;
///
/// let faults = TransientFaults::failing(2);
/// assert!(faults.should_fail());
/// assert!(faults.should_fail());
/// assert!(!faults.should_fail()); // recovered
/// ```
#[derive(Debug, Default)]
pub struct TransientFaults {
    remaining: AtomicU32,
}

impl TransientFaults {
    /// A source that fails the next `n` reads.
    pub fn failing(n: u32) -> Self {
        Self {
            remaining: AtomicU32::new(n),
        }
    }

    /// Consumes one failure if any remain; `true` means "fail this read".
    pub fn should_fail(&self) -> bool {
        self.remaining
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
    }

    /// Failures still pending.
    pub fn remaining(&self) -> u32 {
        self.remaining.load(Ordering::SeqCst)
    }
}

impl Clone for TransientFaults {
    fn clone(&self) -> Self {
        Self {
            remaining: AtomicU32::new(self.remaining()),
        }
    }
}

// ---------------------------------------------------------------------
// Stall — "pending until polled N times" (a liveness fault)
// ---------------------------------------------------------------------

/// A read that reports *pending* until it has been polled `n` times — the
/// liveness counterpart of [`TransientFaults`]' availability fault.
///
/// Ghostware can attack the scanner by delaying low-level reads instead of
/// corrupting them; a stall models that. [`Stall::forever`] never completes,
/// so only a caller with a deadline escapes it. Interior-mutable like
/// [`TransientFaults`] so `&self` read paths can consume polls.
///
/// # Examples
///
/// ```
/// use strider_support::fault::Stall;
///
/// let stall = Stall::after_polls(2);
/// assert!(stall.poll_pending());
/// assert!(stall.poll_pending());
/// assert!(!stall.poll_pending()); // the read finally completes
/// assert!(Stall::forever().poll_pending());
/// ```
#[derive(Debug, Default)]
pub struct Stall {
    remaining: AtomicU32,
}

impl Stall {
    /// A read that completes on the `n+1`-th poll.
    pub fn after_polls(n: u32) -> Self {
        Self {
            remaining: AtomicU32::new(n),
        }
    }

    /// A read that never completes (`u32::MAX` polls outlives any budget).
    pub fn forever() -> Self {
        Self::after_polls(u32::MAX)
    }

    /// Whether this stall never drains on its own.
    pub fn is_forever(&self) -> bool {
        self.remaining() == u32::MAX
    }

    /// Consumes one poll; `true` means "still pending, try again later".
    /// A forever-stall never drains its counter.
    pub fn poll_pending(&self) -> bool {
        if self.is_forever() {
            return true;
        }
        self.remaining
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
    }

    /// Pending polls left before the read completes.
    pub fn remaining(&self) -> u32 {
        self.remaining.load(Ordering::SeqCst)
    }
}

impl Clone for Stall {
    fn clone(&self) -> Self {
        Self {
            remaining: AtomicU32::new(self.remaining()),
        }
    }
}

// ---------------------------------------------------------------------
// CrashPlan — "the process dies mid-write" (a durability fault)
// ---------------------------------------------------------------------

/// A one-shot, seeded process-death injection for durable writers.
///
/// The plan observes every byte a [`store::RecordStore`](crate::store)
/// append pushes toward disk and, once its byte offset is reached, stops
/// the write mid-byte-stream and returns the distinctive
/// [`CrashPlan::crash_error`] — the caller treats that as the process
/// dying and must recover by reopening the store. Interior-mutable like
/// [`TransientFaults`], and one-shot: after firing once, later writes
/// pass through untouched (the "restarted" process is healthy).
///
/// # Examples
///
/// ```
/// use strider_support::fault::CrashPlan;
///
/// let plan = CrashPlan::at_write_byte(10);
/// assert_eq!(plan.admit(8), None); // first 8 bytes land whole
/// assert_eq!(plan.admit(8), Some(2)); // crash: only 2 of these 8 land
/// assert!(plan.fired());
/// assert_eq!(plan.admit(8), None); // one-shot: later writes pass
/// ```
#[derive(Debug)]
pub struct CrashPlan {
    /// Cumulative byte count at which the writer dies.
    at: u64,
    written: AtomicU64,
    fired: AtomicBool,
}

const CRASH_MESSAGE: &str = "injected crash (CrashPlan)";

impl CrashPlan {
    /// A plan that kills the writer once `n` cumulative bytes have landed
    /// across all writes it observes: the write that crosses the threshold
    /// lands only its admitted prefix, leaving a torn tail on disk.
    pub fn at_write_byte(n: u64) -> Self {
        Self {
            at: n,
            written: AtomicU64::new(0),
            fired: AtomicBool::new(false),
        }
    }

    /// A plan that never fires — used to *measure* how many bytes an
    /// uninterrupted run writes, so a crash matrix can enumerate every
    /// offset in `0..written()`.
    pub fn never() -> Self {
        Self::at_write_byte(u64::MAX)
    }

    /// Whether the crash has fired.
    pub fn fired(&self) -> bool {
        self.fired.load(Ordering::SeqCst)
    }

    /// Total bytes offered to writes so far (admitted or not).
    pub fn written(&self) -> u64 {
        self.written.load(Ordering::SeqCst)
    }

    /// Accounts a write of `len` bytes. `None` lets the full write through;
    /// `Some(keep)` means the crash fires *inside this write*: exactly
    /// `keep` bytes may land, then the writer must fail with
    /// [`CrashPlan::crash_error`].
    pub fn admit(&self, len: u64) -> Option<u64> {
        let before = self.written.fetch_add(len, Ordering::SeqCst);
        if before + len > self.at && !self.fired.swap(true, Ordering::SeqCst) {
            Some(self.at.saturating_sub(before))
        } else {
            None
        }
    }

    /// The error an injected crash surfaces as. Distinguishable from real
    /// I/O failures via [`CrashPlan::is_crash`].
    pub fn crash_error() -> std::io::Error {
        std::io::Error::new(std::io::ErrorKind::Interrupted, CRASH_MESSAGE)
    }

    /// Whether `err` is an injected crash (as opposed to a real I/O error).
    pub fn is_crash(err: &std::io::Error) -> bool {
        err.kind() == std::io::ErrorKind::Interrupted && err.to_string().contains(CRASH_MESSAGE)
    }
}

// ---------------------------------------------------------------------
// Salvage vocabulary
// ---------------------------------------------------------------------

/// What kind of damage a salvage-mode parser stepped over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DefectKind {
    /// The image ended before a structure it promised.
    Truncated,
    /// The format magic did not match.
    BadMagic,
    /// An unsupported format version.
    BadVersion,
    /// One record/cell/page was malformed and skipped.
    BadRecord,
    /// A link or offset chain looped back on itself.
    Cycle,
}

impl fmt::Display for DefectKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DefectKind::Truncated => "truncated",
            DefectKind::BadMagic => "bad magic",
            DefectKind::BadVersion => "bad version",
            DefectKind::BadRecord => "bad record",
            DefectKind::Cycle => "cycle",
        };
        f.write_str(s)
    }
}

/// One piece of damage a salvage parse survived: what, where, how much.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Defect {
    /// Damage classification.
    pub kind: DefectKind,
    /// Byte offset in the image where the damage was detected.
    pub offset: u64,
    /// Bytes of the image rendered unreadable by this defect (best effort).
    pub bytes_lost: u64,
    /// What the parser was reading when it hit the damage.
    pub context: &'static str,
}

impl Defect {
    /// A defect record at `offset` losing `bytes_lost` bytes.
    pub fn new(kind: DefectKind, offset: u64, bytes_lost: u64, context: &'static str) -> Self {
        Self {
            kind,
            offset,
            bytes_lost,
            context,
        }
    }
}

impl fmt::Display for Defect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} at offset {} ({} bytes lost) while reading {}",
            self.kind, self.offset, self.bytes_lost, self.context
        )
    }
}

/// A best-effort parse result: everything recoverable, plus the damage map.
#[derive(Debug, Clone, PartialEq)]
pub struct Salvaged<T> {
    /// The recovered value (possibly partial).
    pub value: T,
    /// Damage stepped over to produce it; empty means a clean parse.
    pub defects: Vec<Defect>,
}

impl<T> Salvaged<T> {
    /// Wraps a defect-free parse.
    pub fn clean(value: T) -> Self {
        Self {
            value,
            defects: Vec::new(),
        }
    }

    /// Whether the parse saw no damage at all.
    pub fn is_clean(&self) -> bool {
        self.defects.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic() {
        let image: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        let plan = FaultPlan::new(42)
            .bit_flips(5)
            .torn_sectors(2)
            .zeroed_pages(1)
            .truncate_to(0.8);
        let a = plan.apply(&image);
        let b = plan.apply(&image);
        assert_eq!(a, b);
        assert_ne!(a, image);
        assert!(a.len() < image.len(), "truncation must shorten the image");
    }

    #[test]
    fn noop_plan_is_identity() {
        let image = vec![7u8; 1000];
        let plan = FaultPlan::new(1);
        assert!(plan.is_noop());
        assert_eq!(plan.apply(&image), image);
    }

    #[test]
    fn zero_range_zeroes_exactly_and_clamps() {
        let image = vec![0xFFu8; 100];
        let out = FaultPlan::new(0).zero_range(10, 20).apply(&image);
        assert!(out[10..30].iter().all(|&b| b == 0));
        assert!(out[..10].iter().all(|&b| b == 0xFF));
        assert!(out[30..].iter().all(|&b| b == 0xFF));
        // Out-of-range tail is ignored, not panicked on.
        let out = FaultPlan::new(0).zero_range(90, 500).apply(&image);
        assert!(out[90..].iter().all(|&b| b == 0));
        assert_eq!(out.len(), 100);
    }

    #[test]
    fn random_plans_vary_by_seed_but_reproduce() {
        let image = vec![0x55u8; 30_000];
        let a1 = FaultPlan::random(1).apply(&image);
        let a2 = FaultPlan::random(1).apply(&image);
        assert_eq!(a1, a2);
        let distinct = (0..16)
            .map(|s| FaultPlan::random(s).apply(&image))
            .collect::<std::collections::HashSet<_>>();
        assert!(distinct.len() > 8, "seeds should produce varied corruption");
    }

    #[test]
    fn empty_and_tiny_images_never_panic() {
        let plan = FaultPlan::random(9)
            .bit_flips(10)
            .torn_sectors(3)
            .zeroed_pages(3)
            .truncate_to(0.1);
        assert_eq!(plan.apply(&[]), Vec::<u8>::new());
        for len in 1..40 {
            let image = vec![1u8; len];
            let _ = plan.apply(&image);
        }
    }

    #[test]
    fn transient_faults_count_down_then_recover() {
        let t = TransientFaults::failing(3);
        assert_eq!(t.remaining(), 3);
        assert!(t.should_fail());
        assert!(t.should_fail());
        assert!(t.should_fail());
        assert!(!t.should_fail());
        assert!(!t.should_fail());
        assert_eq!(t.remaining(), 0);
        let none = TransientFaults::default();
        assert!(!none.should_fail());
    }

    #[test]
    fn stalls_stay_pending_for_n_polls_then_complete() {
        let s = Stall::after_polls(2);
        assert!(s.poll_pending());
        assert!(s.poll_pending());
        assert!(!s.poll_pending());
        assert!(!s.poll_pending(), "a drained stall stays drained");
        assert!(!Stall::default().poll_pending());
    }

    #[test]
    fn forever_stall_never_drains() {
        let s = Stall::forever();
        for _ in 0..1000 {
            assert!(s.poll_pending());
        }
        assert!(s.is_forever());
        assert_eq!(s.remaining(), u32::MAX);
    }

    #[test]
    fn stall_clones_have_independent_counters() {
        let s = Stall::after_polls(1);
        let c = s.clone();
        assert!(c.poll_pending());
        assert!(!c.poll_pending());
        assert!(s.poll_pending(), "clones have independent counters");
    }

    #[test]
    fn defect_display_reads_naturally() {
        let d = Defect::new(DefectKind::BadRecord, 4096, 512, "mft entry");
        let s = d.to_string();
        assert!(s.contains("bad record"));
        assert!(s.contains("4096"));
        assert!(s.contains("mft entry"));
    }

    #[test]
    fn salvaged_clean_constructor() {
        let s = Salvaged::clean(5u32);
        assert!(s.is_clean());
        assert_eq!(s.value, 5);
    }

    #[test]
    fn crash_plan_fires_once_at_the_exact_byte() {
        let plan = CrashPlan::at_write_byte(100);
        assert_eq!(plan.admit(60), None);
        assert_eq!(plan.admit(60), Some(40), "crash splits the second write");
        assert!(plan.fired());
        assert_eq!(plan.admit(1000), None, "one-shot: the restart is healthy");
        assert_eq!(plan.written(), 1120);
    }

    #[test]
    fn crash_plan_at_byte_zero_admits_nothing() {
        let plan = CrashPlan::at_write_byte(0);
        assert_eq!(plan.admit(5), Some(0));
        assert!(plan.fired());
    }

    #[test]
    fn never_plan_only_measures() {
        let plan = CrashPlan::never();
        assert_eq!(plan.admit(1 << 30), None);
        assert_eq!(plan.written(), 1 << 30);
        assert!(!plan.fired());
    }

    #[test]
    fn crash_errors_are_recognizable() {
        let err = CrashPlan::crash_error();
        assert!(CrashPlan::is_crash(&err));
        let real = std::io::Error::new(std::io::ErrorKind::Interrupted, "EINTR");
        assert!(!CrashPlan::is_crash(&real));
        let other = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        assert!(!CrashPlan::is_crash(&other));
    }
}
