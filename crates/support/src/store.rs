//! Durable state plane: a checksummed, generational record store with one
//! write path — an append-only WAL — and torn-tail recovery.
//!
//! Everything the detector persists between runs — sweep and fleet
//! checkpoints, monitor baselines, alert logs — is part of the attack
//! surface: a rootkit that can crash the scanner mid-checkpoint or flip a
//! bit in its baseline wins without ever hiding better. The store closes
//! that door with two guarantees:
//!
//! * **O(1) WAL appends** — [`RecordStore::append`] adds one framed
//!   record to the file tail without rewriting what came before. A crash
//!   mid-append tears only the new frame, and every earlier generation
//!   stays intact on disk, so even a corrupted newest record falls back
//!   one generation instead of losing everything.
//! * **Recovery, never panic** — [`RecordStore::recover`] walks the
//!   frames, validates magic + length + FNV-1a checksum + monotonic
//!   generation, and stops at the first damage: a torn or corrupted tail
//!   yields every record before it plus a typed
//!   [`Defect`] report. [`RecordStore::open`]
//!   additionally *repairs* the file by truncating the damaged tail so
//!   later appends land after valid frames.
//!
//! A caller that wants one current state reads `recover()?.latest()`.
//! Whole-file exports that are written once, not journaled, go through
//! [`atomic_write_file`] (temp file, then `rename`) instead.
//!
//! Crash injection rides the existing fault vocabulary: give the store a
//! [`CrashPlan`] and any append dies at a seeded byte offset, leaving
//! exactly the torn prefix a real process death would. Tests then reopen
//! the store — the "restarted process" — and must find a recoverable
//! state.
//!
//! The store targets *process-crash* safety (the adversary kills or
//! corrupts the scanner), not power-loss durability: writes are flushed,
//! not fsynced, because the threat model is a hostile process, not a
//! failing disk — and the fault plan, not the kernel, decides what lands.
//!
//! # File format
//!
//! ```text
//! file   := FILE_MAGIC (8 bytes, "STRSTOR\x01") frame*
//! frame  := FRAME_MAGIC (4 bytes, "FRM\x01")
//!           generation  u64 LE   (monotonically increasing per file)
//!           length      u32 LE   (payload bytes)
//!           checksum    u64 LE   (FNV-1a over generation ∥ length ∥ payload)
//!           payload     [length bytes]
//! ```
//!
//! # Examples
//!
//! ```
//! use strider_support::store::RecordStore;
//!
//! let dir = std::env::temp_dir().join(format!("store-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir)?;
//! let store = RecordStore::open(dir.join("state.wal"))?;
//! store.append(b"shard 0 done")?;
//! store.append(b"shard 1 done")?;
//! let recovered = store.recover()?;
//! assert!(recovered.is_clean());
//! assert_eq!(recovered.records.len(), 2);
//! assert_eq!(recovered.latest().unwrap().payload, b"shard 1 done");
//! # std::fs::remove_dir_all(&dir)?;
//! # Ok::<(), std::io::Error>(())
//! ```

use crate::fault::{CrashPlan, Defect, DefectKind};
use crate::rng::fnv1a;
use crate::sync::Mutex;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Magic bytes opening every store file.
const FILE_MAGIC: [u8; 8] = *b"STRSTOR\x01";
/// Magic bytes opening every record frame.
const FRAME_MAGIC: [u8; 4] = *b"FRM\x01";
/// Fixed frame bytes before the payload: magic + generation + length +
/// checksum.
const FRAME_HEADER_BYTES: usize = 4 + 8 + 4 + 8;

fn frame_checksum(generation: u64, payload: &[u8]) -> u64 {
    let mut buf = Vec::with_capacity(12 + payload.len());
    buf.extend_from_slice(&generation.to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
    fnv1a(&buf)
}

fn encode_frame(out: &mut Vec<u8>, generation: u64, payload: &[u8]) {
    out.extend_from_slice(&FRAME_MAGIC);
    out.extend_from_slice(&generation.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&frame_checksum(generation, payload).to_le_bytes());
    out.extend_from_slice(payload);
}

// ---------------------------------------------------------------------
// Recovered state
// ---------------------------------------------------------------------

/// One validated record read back from a store file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// The record's generation (monotonic per file).
    pub generation: u64,
    /// Byte offset of the frame start in the file — lets targeted tests
    /// damage a known record.
    pub offset: u64,
    /// The record payload.
    pub payload: Vec<u8>,
}

/// Everything salvageable from a store file, plus the damage map.
///
/// Recovery stops at the first invalid frame: frame boundaries after
/// damage are untrustworthy, so records past it are deliberately not
/// scavenged — the contract is *fall back to the last good generation*,
/// not *salvage every plausible frame*.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Recovered {
    /// Valid records in file order (generation-ascending).
    pub records: Vec<Record>,
    /// Damage encountered; empty means a clean file.
    pub defects: Vec<Defect>,
    /// Byte offset of the end of the last valid frame — the truncation
    /// point an [`RecordStore::open`] repair cuts the file back to.
    pub good_end: u64,
}

impl Recovered {
    /// The newest valid record, if any survived.
    pub fn latest(&self) -> Option<&Record> {
        self.records.last()
    }

    /// The newest valid generation, if any.
    fn last_generation(&self) -> Option<u64> {
        self.records.last().map(|r| r.generation)
    }

    /// Whether the file read back with no damage at all.
    pub fn is_clean(&self) -> bool {
        self.defects.is_empty()
    }
}

fn scan_image(bytes: &[u8]) -> Recovered {
    let mut out = Recovered::default();
    if bytes.is_empty() {
        return out;
    }
    if bytes.len() < FILE_MAGIC.len() || bytes[..FILE_MAGIC.len()] != FILE_MAGIC {
        out.defects.push(Defect::new(
            DefectKind::BadMagic,
            0,
            bytes.len() as u64,
            "store header",
        ));
        return out;
    }
    let mut at = FILE_MAGIC.len();
    out.good_end = at as u64;
    while at < bytes.len() {
        let left = bytes.len() - at;
        if left < FRAME_HEADER_BYTES {
            out.defects.push(Defect::new(
                DefectKind::Truncated,
                at as u64,
                left as u64,
                "store frame header",
            ));
            break;
        }
        if bytes[at..at + 4] != FRAME_MAGIC {
            out.defects.push(Defect::new(
                DefectKind::BadMagic,
                at as u64,
                left as u64,
                "store frame magic",
            ));
            break;
        }
        let generation = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap());
        let len = u32::from_le_bytes(bytes[at + 12..at + 16].try_into().unwrap()) as usize;
        let stored_sum = u64::from_le_bytes(bytes[at + 16..at + 24].try_into().unwrap());
        let payload_at = at + FRAME_HEADER_BYTES;
        if bytes.len() - payload_at < len {
            out.defects.push(Defect::new(
                DefectKind::Truncated,
                at as u64,
                left as u64,
                "store frame payload",
            ));
            break;
        }
        let payload = &bytes[payload_at..payload_at + len];
        if frame_checksum(generation, payload) != stored_sum {
            out.defects.push(Defect::new(
                DefectKind::BadRecord,
                at as u64,
                (FRAME_HEADER_BYTES + len) as u64,
                "store frame checksum",
            ));
            break;
        }
        if out
            .records
            .last()
            .is_some_and(|last| generation <= last.generation)
        {
            out.defects.push(Defect::new(
                DefectKind::BadRecord,
                at as u64,
                (FRAME_HEADER_BYTES + len) as u64,
                "store generation order",
            ));
            break;
        }
        out.records.push(Record {
            generation,
            offset: at as u64,
            payload: payload.to_vec(),
        });
        at = payload_at + len;
        out.good_end = at as u64;
    }
    out
}

fn recover_path(path: &Path) -> io::Result<Recovered> {
    let bytes = match fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Recovered::default()),
        Err(e) => return Err(e),
    };
    Ok(scan_image(&bytes))
}

// ---------------------------------------------------------------------
// RecordStore
// ---------------------------------------------------------------------

/// A checksummed, generational record store over one file.
///
/// `Sync` by construction — the generation counter sits behind a mutex
/// held for the whole write, so concurrent appenders serialize instead of
/// interleaving frame bytes.
#[derive(Debug)]
pub struct RecordStore {
    path: PathBuf,
    next_generation: Mutex<u64>,
    crash: Option<Arc<CrashPlan>>,
}

impl RecordStore {
    /// Opens (or creates lazily) the store at `path`, repairing any
    /// damaged tail: the file is truncated back to the end of its last
    /// valid frame so subsequent appends land after good data.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<Self> {
        let path = path.into();
        let recovered = recover_path(&path)?;
        if !recovered.defects.is_empty() {
            if recovered.good_end == 0 {
                // Header itself is gone: nothing in the file is trustworthy.
                fs::remove_file(&path)?;
            } else {
                let file = OpenOptions::new().write(true).open(&path)?;
                file.set_len(recovered.good_end)?;
            }
        }
        let next = recovered.last_generation().map_or(1, |g| g + 1);
        Ok(Self {
            path,
            next_generation: Mutex::new(next),
            crash: None,
        })
    }

    /// Arms crash injection: every subsequent append consults `plan`.
    pub fn with_crash_plan(mut self, plan: Arc<CrashPlan>) -> Self {
        self.crash = Some(plan);
        self
    }

    /// The backing file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends `payload` as one framed record — O(1) in the file size.
    /// Creates the file (with header) on first use. Returns the appended
    /// generation.
    pub fn append(&self, payload: &[u8]) -> io::Result<u64> {
        let mut next = self.next_generation.lock();
        let generation = *next;
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        if file.metadata()?.len() == 0 {
            self.guarded_write(&mut file, &FILE_MAGIC)?;
        }
        let mut frame = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
        encode_frame(&mut frame, generation, payload);
        self.guarded_write(&mut file, &frame)?;
        file.flush()?;
        *next = generation + 1;
        Ok(generation)
    }

    /// Reads everything salvageable from the file. Missing file means an
    /// empty (clean) state, never an error — a first run has no past.
    pub fn recover(&self) -> io::Result<Recovered> {
        recover_path(&self.path)
    }

    fn guarded_write(&self, file: &mut File, bytes: &[u8]) -> io::Result<()> {
        if let Some(plan) = &self.crash {
            if let Some(keep) = plan.admit(bytes.len() as u64) {
                file.write_all(&bytes[..keep as usize])?;
                file.flush()?;
                return Err(CrashPlan::crash_error());
            }
        }
        file.write_all(bytes)
    }
}

// ---------------------------------------------------------------------
// atomic_write_file — the one-shot artifact writer
// ---------------------------------------------------------------------

static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Writes `bytes` to `path` atomically: temp file in the same directory,
/// then `rename`. A crash mid-write leaves the old file (or no file) in
/// place — never a truncated artifact. Every [`Artifact`] export routes
/// through it.
pub fn atomic_write_file(path: impl AsRef<Path>, bytes: &[u8]) -> io::Result<()> {
    let path = path.as_ref();
    let n = TMP_COUNTER.fetch_add(1, Ordering::Relaxed);
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".{}.{n}.tmp", std::process::id()));
    let tmp = path.with_file_name(name);
    fs::write(&tmp, bytes)?;
    match fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// The export files the workspace writes, one kind per file-name
/// prefix. [`Artifact::write`] is the only place a file name is formed
/// and a label is checked, so every kind lands as
/// `<prefix><label>.<extension>` through [`atomic_write_file`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Artifact {
    /// `SCAN_TELEMETRY_<label>.json`: a frozen telemetry report.
    Telemetry,
    /// `SCAN_TRACE_<label>.json`: one report's Chrome trace.
    ScanTrace,
    /// `SCAN_PERF_<label>.json`: a critical-path performance report.
    Perf,
    /// `TELEMETRY_EXPO_<label>.prom`: a Prometheus-text exposition.
    Exposition,
    /// `FLEET_TRACE_<label>.json`: a fleet run's merged Chrome trace —
    /// its scheduler timeline plus every shard's telemetry, written by
    /// `FleetReport::write_chrome_trace_in` in `strider-fleet`.
    FleetTrace,
}

impl Artifact {
    /// The file-name prefix and extension of each kind.
    fn name_parts(self) -> (&'static str, &'static str) {
        match self {
            Artifact::Telemetry => ("SCAN_TELEMETRY_", "json"),
            Artifact::ScanTrace => ("SCAN_TRACE_", "json"),
            Artifact::Perf => ("SCAN_PERF_", "json"),
            Artifact::Exposition => ("TELEMETRY_EXPO_", "prom"),
            Artifact::FleetTrace => ("FLEET_TRACE_", "json"),
        }
    }

    /// Writes `bytes` as `<prefix><label>.<extension>` into `dir` and
    /// returns the path. The label is reduced to a filesystem-safe stem
    /// by [`sanitize_label`](crate::obs::sanitize_label).
    ///
    /// # Errors
    ///
    /// `InvalidInput` for a label with no alphanumeric content (so
    /// `"///"` cannot collide with `"_"`); otherwise propagates
    /// filesystem errors.
    pub fn write(self, dir: &Path, label: &str, bytes: &[u8]) -> io::Result<PathBuf> {
        let stem = crate::obs::sanitize_label(label).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("label {label:?} has no alphanumeric content"),
            )
        })?;
        let (prefix, extension) = self.name_parts();
        let path = dir.join(format!("{prefix}{stem}.{extension}"));
        atomic_write_file(&path, bytes)?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("strider-store-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn append_roundtrips_in_order() {
        let dir = scratch("append");
        let store = RecordStore::open(dir.join("s.wal")).unwrap();
        for i in 0..10u8 {
            store.append(&[i; 3]).unwrap();
        }
        let rec = store.recover().unwrap();
        assert!(rec.is_clean());
        assert_eq!(rec.records.len(), 10);
        for (i, r) in rec.records.iter().enumerate() {
            assert_eq!(r.generation, i as u64 + 1);
            assert_eq!(r.payload, vec![i as u8; 3]);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flip_in_newest_record_falls_back_a_generation() {
        let dir = scratch("bitflip");
        let path = dir.join("s.db");
        let store = RecordStore::open(&path).unwrap();
        store.append(b"previous good state").unwrap();
        store.append(b"newest state").unwrap();
        let clean = store.recover().unwrap();
        let newest_at = clean.latest().unwrap().offset as usize;
        // Flip one bit inside the newest frame's payload.
        let mut bytes = fs::read(&path).unwrap();
        bytes[newest_at + FRAME_HEADER_BYTES] ^= 0x40;
        fs::write(&path, &bytes).unwrap();

        let reopened = RecordStore::open(&path).unwrap();
        let rec = reopened.recover().unwrap();
        assert_eq!(
            rec.latest().unwrap().payload,
            b"previous good state",
            "fallback to the prior generation, never a panic"
        );
        // open() repaired the tail, so the re-read is clean again.
        assert!(rec.is_clean());
        // And the next append continues the generation sequence.
        let g = reopened.append(b"after repair").unwrap();
        assert!(g > rec.last_generation().unwrap());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_detected_and_repaired() {
        let dir = scratch("torn");
        let path = dir.join("s.wal");
        let store = RecordStore::open(&path).unwrap();
        store.append(b"one").unwrap();
        store.append(b"two").unwrap();
        let full = fs::read(&path).unwrap();
        // Tear the file at every byte length and confirm recovery never
        // panics and never invents records.
        for cut in 0..full.len() {
            fs::write(&path, &full[..cut]).unwrap();
            let reopened = RecordStore::open(&path).unwrap();
            let rec = reopened.recover().unwrap();
            assert!(rec.records.len() <= 2);
            for r in &rec.records {
                assert!(r.payload == b"one" || r.payload == b"two");
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn random_corruption_never_panics_recovery() {
        let dir = scratch("chaos");
        let path = dir.join("s.wal");
        let store = RecordStore::open(&path).unwrap();
        for i in 0..20u32 {
            store.append(&i.to_le_bytes()).unwrap();
        }
        let image = fs::read(&path).unwrap();
        for seed in 0..64u64 {
            let corrupt = FaultPlan::random(seed).apply(&image);
            fs::write(&path, &corrupt).unwrap();
            let reopened = RecordStore::open(&path).unwrap();
            let rec = reopened.recover().unwrap();
            // Every surviving record must be one we actually wrote, in order.
            for pair in rec.records.windows(2) {
                assert!(pair[0].generation < pair[1].generation);
            }
            for r in &rec.records {
                let val = u32::from_le_bytes(r.payload.as_slice().try_into().unwrap());
                assert_eq!(u64::from(val) + 1, r.generation);
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_mid_append_leaves_recoverable_torn_tail() {
        let dir = scratch("crash-append");
        let path = dir.join("s.wal");
        {
            let store = RecordStore::open(&path).unwrap();
            store.append(b"committed before the crash").unwrap();
        }
        let base_len = fs::metadata(&path).unwrap().len();
        // Offsets are counted over the bytes the plan observes, so 10
        // means "10 bytes of the new frame land, then the process dies".
        let plan = Arc::new(CrashPlan::at_write_byte(10));
        let store = RecordStore::open(&path)
            .unwrap()
            .with_crash_plan(plan.clone());
        let err = store.append(b"dies mid-write").unwrap_err();
        assert!(CrashPlan::is_crash(&err));
        assert!(plan.fired());
        assert_eq!(fs::metadata(&path).unwrap().len(), base_len + 10);

        // The restarted process reopens, repairs, and keeps working.
        let store = RecordStore::open(&path).unwrap();
        let rec = store.recover().unwrap();
        assert_eq!(rec.records.len(), 1);
        assert_eq!(rec.latest().unwrap().payload, b"committed before the crash");
        store.append(b"after restart").unwrap();
        assert_eq!(store.recover().unwrap().records.len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_is_an_empty_clean_state() {
        let dir = scratch("missing");
        let store = RecordStore::open(dir.join("never-written")).unwrap();
        let rec = store.recover().unwrap();
        assert!(rec.is_clean());
        assert!(rec.records.is_empty());
        assert!(rec.latest().is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn atomic_write_file_replaces_whole_files() {
        let dir = scratch("atomic");
        let path = dir.join("artifact.json");
        atomic_write_file(&path, b"{\"v\":1}").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"{\"v\":1}");
        atomic_write_file(&path, b"{\"v\":2}").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"{\"v\":2}");
        // No temp litter left behind.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp"))
            .collect();
        assert!(leftovers.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_appends_serialize_cleanly() {
        let dir = scratch("threads");
        let store = Arc::new(RecordStore::open(dir.join("s.wal")).unwrap());
        std::thread::scope(|scope| {
            for t in 0..4u8 {
                let store = Arc::clone(&store);
                scope.spawn(move || {
                    for i in 0..25u8 {
                        store.append(&[t, i]).unwrap();
                    }
                });
            }
        });
        let rec = store.recover().unwrap();
        assert!(rec.is_clean());
        assert_eq!(rec.records.len(), 100);
        for pair in rec.records.windows(2) {
            assert!(pair[0].generation < pair[1].generation);
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
