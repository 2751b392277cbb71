//! Kernel memory dumps: the blue-screen outside-the-box path.
//!
//! Persisting volatile state is the prerequisite for scanning it outside the
//! box (paper, Section 4). The ideal transports — a Copilot-style PCI card or
//! a Myrinet NIC doing DMA — are modeled by the same bytes arriving without
//! scrubbing; the practical transport is an induced kernel crash, which
//! "future ghostware" may trap: [`write_dump`] honours any registered
//! scrubbers, so the dump is explicitly a *truth approximation*.
//!
//! The parser reads the dumped bytes back into the kernel's own object
//! types ([`Eprocess`], [`Ethread`], [`Driver`]) and re-derives both process
//! views (APL walk and thread-table sweep) from those bytes alone, through
//! the same walk and sweep the live kernel runs.

use crate::kernel::Kernel;
use crate::process::{self, Driver, Eprocess, Ethread, ModuleEntry, ThreadState};
use std::fmt;
use strider_nt_core::{NtPath, NtString, Pid, Tick, Tid};
use strider_support::bytes::{read_slice, read_units, BufMut, FromLe};
use strider_support::fault::{Defect, DefectKind, Salvaged};

const MAGIC: &[u8; 8] = b"SDMP1\0\0\0";
const VERSION: u32 = 1;
const NO_PID: u32 = u32::MAX;

/// Serializes the kernel to dump bytes, applying dump scrubbers.
pub(crate) fn write_dump(k: &Kernel) -> Vec<u8> {
    let scrub_pids: Vec<Pid> = k
        .dump_scrubbers()
        .iter()
        .flat_map(|s| s.pids.iter().copied())
        .collect();
    let scrub_modules: Vec<NtString> = k
        .dump_scrubbers()
        .iter()
        .flat_map(|s| s.module_names.iter().cloned())
        .collect();
    let scrubbed = |pid: Pid| scrub_pids.contains(&pid);
    let module_scrubbed = |m: &ModuleEntry| scrub_modules.iter().any(|n| n.eq_ignore_case(&m.name));

    let mut buf = Vec::with_capacity(4096);
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION);

    let procs: Vec<_> = k.processes().filter(|p| !scrubbed(p.pid)).collect();
    buf.put_u32_le(procs.len() as u32);
    for p in &procs {
        buf.put_u32_le(p.pid.0);
        buf.put_u32_le(p.parent.map_or(NO_PID, |x| x.0));
        put_name(&mut buf, &p.image_name);
        put_path(&mut buf, &p.image_path);
        buf.put_u64_le(p.created.0);
        buf.put_u8(u8::from(p.in_apl));
        // A scrubbed neighbour in the APL links would leave a dangling
        // reference; patch links past scrubbed pids the way in-memory
        // unlinking would have.
        buf.put_u32_le(patch_link(k, p.apl_next, &scrub_pids, true));
        buf.put_u32_le(patch_link(k, p.apl_prev, &scrub_pids, false));
        for list in [&p.peb_modules, &p.kernel_modules] {
            let kept: Vec<_> = list.iter().filter(|m| !module_scrubbed(m)).collect();
            buf.put_u32_le(kept.len() as u32);
            for m in kept {
                buf.put_u64_le(m.base);
                put_name(&mut buf, &m.name);
                put_name(&mut buf, &m.path);
            }
        }
        buf.put_u32_le(p.threads.len() as u32);
        for t in &p.threads {
            buf.put_u32_le(t.0);
        }
    }

    let threads: Vec<_> = k.threads().filter(|t| !scrubbed(t.owner)).collect();
    buf.put_u32_le(threads.len() as u32);
    for t in threads {
        buf.put_u32_le(t.tid.0);
        buf.put_u32_le(t.owner.0);
        buf.put_u8(match t.state {
            ThreadState::Ready => 0,
            ThreadState::Running => 1,
            ThreadState::Waiting => 2,
        });
    }

    buf.put_u32_le(k.drivers().len() as u32);
    for d in k.drivers() {
        put_name(&mut buf, &d.name);
        put_path(&mut buf, &d.image_path);
        buf.put_u64_le(d.loaded_at.0);
    }

    buf.put_u32_le(patch_link(k, k.apl_head(), &scrub_pids, true));
    buf.shrink_to_fit();
    buf
}

/// The first pid from `link` on, following the APL forward or backward,
/// that no scrubber erases.
fn patch_link(k: &Kernel, link: Option<Pid>, scrub: &[Pid], forward: bool) -> u32 {
    let mut cur = link;
    let mut hops = 0usize;
    while let Some(pid) = cur {
        if !scrub.contains(&pid) {
            return pid.0;
        }
        cur = k
            .process(pid)
            .and_then(|p| if forward { p.apl_next } else { p.apl_prev });
        hops += 1;
        if hops > 1_000_000 {
            break;
        }
    }
    NO_PID
}

fn put_name(buf: &mut Vec<u8>, name: &NtString) {
    buf.put_u16_le(name.len() as u16);
    for &u in name.units() {
        buf.put_u16_le(u);
    }
}

fn put_path(buf: &mut Vec<u8>, path: &NtPath) {
    let root = path.root().as_bytes();
    buf.put_u16_le(root.len() as u16);
    buf.put_slice(root);
    buf.put_u16_le(path.components().len() as u16);
    for c in path.components() {
        put_name(buf, c);
    }
}

/// Error produced while parsing dump bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DumpError {
    /// The dump ran out of bytes inside the named structure.
    Truncated {
        /// What was being parsed.
        context: &'static str,
    },
    /// Wrong magic.
    BadMagic,
    /// Unsupported version.
    BadVersion(u32),
}

impl fmt::Display for DumpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DumpError::Truncated { context } => write!(f, "dump truncated while reading {context}"),
            DumpError::BadMagic => write!(f, "bad dump magic"),
            DumpError::BadVersion(v) => write!(f, "unsupported dump version {v}"),
        }
    }
}

impl std::error::Error for DumpError {}

/// Maps a strict-parse error to the workspace-wide salvage vocabulary;
/// `offset` is where parsing stood when the damage surfaced.
fn defect_for(e: &DumpError, offset: u64, total: u64) -> Defect {
    let (kind, context) = match e {
        DumpError::Truncated { context } => (DefectKind::Truncated, *context),
        DumpError::BadMagic => (DefectKind::BadMagic, "dump magic"),
        DumpError::BadVersion(_) => (DefectKind::BadVersion, "dump version"),
    };
    Defect::new(kind, offset, total.saturating_sub(offset), context)
}

/// A parsed kernel memory dump.
///
/// # Examples
///
/// ```
/// use strider_kernel::{Kernel, MemoryDump};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut k = Kernel::with_base_processes();
/// let ghost = k.spawn("ghost.exe", "C:\\g.exe".parse()?, None)?;
/// k.dkom_unlink(ghost)?;
/// let dump = MemoryDump::parse(&k.crash_dump())?;
/// assert!(!dump.processes_via_apl().contains(&ghost));
/// assert!(dump.processes_via_threads().contains(&ghost));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MemoryDump {
    /// In dump order, so a pid that repeats resolves to its first record.
    processes: Vec<Eprocess>,
    threads: Vec<Ethread>,
    drivers: Vec<Driver>,
    apl_head: Option<Pid>,
    byte_len: u64,
}

impl MemoryDump {
    /// Parses dump bytes.
    ///
    /// # Errors
    ///
    /// Returns [`DumpError`] on truncation or a bad header.
    pub fn parse(bytes: &[u8]) -> Result<Self, DumpError> {
        let mut s = bytes;
        parse_header(&mut s)?;
        let proc_count = get::<u32>(&mut s, "process count")?;
        let mut processes = Vec::with_capacity(capped(proc_count, MIN_PROCESS_BYTES, s));
        for _ in 0..proc_count {
            processes.push(parse_process(&mut s)?);
        }
        let thread_count = get::<u32>(&mut s, "thread table count")?;
        let mut threads = Vec::with_capacity(capped(thread_count, MIN_THREAD_BYTES, s));
        for _ in 0..thread_count {
            threads.push(parse_thread(&mut s)?);
        }
        let driver_count = get::<u32>(&mut s, "driver count")?;
        let mut drivers = Vec::with_capacity(capped(driver_count, MIN_DRIVER_BYTES, s));
        for _ in 0..driver_count {
            drivers.push(parse_driver(&mut s)?);
        }
        let head_raw = get::<u32>(&mut s, "apl head")?;
        Ok(Self {
            processes,
            threads,
            drivers,
            apl_head: (head_raw != NO_PID).then_some(Pid(head_raw)),
            byte_len: bytes.len() as u64,
        })
    }

    /// Best-effort parse for damaged dumps — a crash dump captured
    /// mid-flight is routinely truncated or torn. Records are written
    /// back-to-back with no framing, so the first unparseable record makes
    /// the rest of its section (and everything after) unaddressable:
    /// salvage keeps every process/thread/driver recovered before the
    /// damage, records one [`Defect`] locating it, and returns. Never
    /// panics and never errors.
    pub fn parse_salvage(bytes: &[u8]) -> Salvaged<Self> {
        let total = bytes.len() as u64;
        let mut s = bytes;
        let mut defects = Vec::new();
        let mut processes = Vec::new();
        let mut threads = Vec::new();
        let mut drivers = Vec::new();
        let mut apl_head = None;
        // One labeled block: the first damaged record aborts the walk, and
        // whatever was recovered up to that point is the salvage.
        'walk: {
            macro_rules! try_salvage {
                ($expr:expr) => {
                    match $expr {
                        Ok(v) => v,
                        Err(e) => {
                            let offset = total - s.len() as u64;
                            defects.push(defect_for(&e, offset, total));
                            break 'walk;
                        }
                    }
                };
            }
            try_salvage!(parse_header(&mut s));
            let proc_count = try_salvage!(get::<u32>(&mut s, "process count"));
            for _ in 0..proc_count {
                processes.push(try_salvage!(parse_process(&mut s)));
            }
            let thread_count = try_salvage!(get::<u32>(&mut s, "thread table count"));
            for _ in 0..thread_count {
                threads.push(try_salvage!(parse_thread(&mut s)));
            }
            let driver_count = try_salvage!(get::<u32>(&mut s, "driver count"));
            for _ in 0..driver_count {
                drivers.push(try_salvage!(parse_driver(&mut s)));
            }
            let head_raw = try_salvage!(get::<u32>(&mut s, "apl head"));
            apl_head = (head_raw != NO_PID).then_some(Pid(head_raw));
        }
        Salvaged {
            value: Self {
                processes,
                threads,
                drivers,
                apl_head,
                byte_len: total,
            },
            defects,
        }
    }

    /// All processes recovered from the dump's object table.
    pub fn processes(&self) -> &[Eprocess] {
        &self.processes
    }

    /// A process by pid.
    pub fn process(&self, pid: Pid) -> Option<&Eprocess> {
        self.processes.iter().find(|p| p.pid == pid)
    }

    /// The thread table.
    pub fn threads(&self) -> &[Ethread] {
        &self.threads
    }

    /// The driver list.
    pub fn drivers(&self) -> &[Driver] {
        &self.drivers
    }

    /// Dump size in bytes (drives the cost model).
    pub fn byte_len(&self) -> u64 {
        self.byte_len
    }

    /// Walks the dumped Active Process List by following links.
    pub fn processes_via_apl(&self) -> Vec<Pid> {
        process::apl_walk(self.apl_head, self.processes.len(), |pid| self.process(pid))
    }

    /// Sweeps the dumped thread table for owning processes (advanced mode).
    pub fn processes_via_threads(&self) -> Vec<Pid> {
        process::thread_owners(self.threads.iter())
    }
}

// Minimum serialized footprint of each record type, used to bound
// `Vec::with_capacity` against the bytes that could actually back a count
// field — the counts are untrusted and a corrupted one must not trigger a
// multi-gigabyte allocation.
const MIN_PROCESS_BYTES: usize = 33; // pid+parent+2 name lens+created+in_apl+links+counts
const MIN_THREAD_BYTES: usize = 9; // tid + owner + state
const MIN_DRIVER_BYTES: usize = 14; // name len + path lens + load time

/// Caps an untrusted record count by the records the remaining bytes could
/// possibly hold, so pre-allocation is bounded by the input size.
fn capped(count: u32, min_record: usize, s: &[u8]) -> usize {
    (count as usize).min(s.len() / min_record)
}

/// Validates the dump magic and version. All reads are length-checked.
fn parse_header(s: &mut &[u8]) -> Result<(), DumpError> {
    if &get::<[u8; 8]>(s, "magic")? != MAGIC {
        return Err(DumpError::BadMagic);
    }
    let version = get::<u32>(s, "version")?;
    if version != VERSION {
        return Err(DumpError::BadVersion(version));
    }
    Ok(())
}

/// Reads one process record. Every count field read from the dump is
/// consumed incrementally against length-checked reads, and any count that
/// sizes a pre-allocation (here and in [`get_path`]) is first [`capped`]
/// by the bytes that could back it, so arbitrary values cannot cause
/// out-of-bounds access or allocations larger than the input describes.
fn parse_process(s: &mut &[u8]) -> Result<Eprocess, DumpError> {
    let pid = Pid(get::<u32>(s, "pid")?);
    let parent_raw = get::<u32>(s, "parent")?;
    let image_name = get_name(s, "image name")?;
    let image_path = get_path(s, "image path")?;
    let created = Tick(get::<u64>(s, "created")?);
    let in_apl = get::<u8>(s, "in_apl")? == 1;
    let next_raw = get::<u32>(s, "apl next")?;
    let prev_raw = get::<u32>(s, "apl prev")?;
    let mut lists: [Vec<ModuleEntry>; 2] = [Vec::new(), Vec::new()];
    for list in &mut lists {
        let count = get::<u32>(s, "module count")?;
        for _ in 0..count {
            let base = get::<u64>(s, "module base")?;
            let name = get_name(s, "module name")?;
            let path = get_name(s, "module path")?;
            list.push(ModuleEntry { base, name, path });
        }
    }
    let tcount = get::<u32>(s, "thread count")?;
    let mut threads = Vec::with_capacity(capped(tcount, 4, s));
    for _ in 0..tcount {
        threads.push(Tid(get::<u32>(s, "tid")?));
    }
    let [peb_modules, kernel_modules] = lists;
    Ok(Eprocess {
        pid,
        parent: (parent_raw != NO_PID).then_some(Pid(parent_raw)),
        image_name,
        image_path,
        created,
        in_apl,
        apl_next: (next_raw != NO_PID).then_some(Pid(next_raw)),
        apl_prev: (prev_raw != NO_PID).then_some(Pid(prev_raw)),
        peb_modules,
        kernel_modules,
        threads,
    })
}

/// Reads one thread-table record.
fn parse_thread(s: &mut &[u8]) -> Result<Ethread, DumpError> {
    let tid = Tid(get::<u32>(s, "tid")?);
    let owner = Pid(get::<u32>(s, "owner")?);
    let state = match get::<u8>(s, "state")? {
        1 => ThreadState::Running,
        2 => ThreadState::Waiting,
        _ => ThreadState::Ready,
    };
    Ok(Ethread { tid, owner, state })
}

/// Reads one loaded-driver record.
fn parse_driver(s: &mut &[u8]) -> Result<Driver, DumpError> {
    let name = get_name(s, "driver name")?;
    let image_path = get_path(s, "driver path")?;
    let loaded_at = Tick(get::<u64>(s, "driver load time")?);
    Ok(Driver {
        name,
        image_path,
        loaded_at,
    })
}

/// A length-checked read, failing with what was being read.
fn get<T: FromLe>(s: &mut &[u8], context: &'static str) -> Result<T, DumpError> {
    T::read_le(s).ok_or(DumpError::Truncated { context })
}

fn get_name(s: &mut &[u8], context: &'static str) -> Result<NtString, DumpError> {
    read_units(s)
        .map(NtString::from)
        .ok_or(DumpError::Truncated { context })
}

fn get_path(s: &mut &[u8], context: &'static str) -> Result<NtPath, DumpError> {
    let root_len = get::<u16>(s, context)?;
    let root_bytes =
        read_slice(s, usize::from(root_len)).ok_or(DumpError::Truncated { context })?;
    let root = String::from_utf8_lossy(root_bytes).into_owned();
    let count = get::<u16>(s, context)?;
    // Each component is at least its 2-byte length prefix.
    let mut comps = Vec::with_capacity(capped(u32::from(count), 2, s));
    for _ in 0..count {
        comps.push(get_name(s, context)?);
    }
    Ok(NtPath::from_components(&root, comps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::DumpScrub;

    #[test]
    fn roundtrip_processes_threads_drivers() {
        let mut k = Kernel::with_base_processes();
        k.load_driver(
            "beep",
            "C:\\windows\\system32\\drivers\\beep.sys".parse().unwrap(),
        );
        let dump = MemoryDump::parse(&k.crash_dump()).unwrap();
        assert_eq!(dump.processes().len(), 9);
        assert_eq!(dump.processes_via_apl().len(), 9);
        assert_eq!(dump.processes_via_threads().len(), 9);
        assert_eq!(dump.drivers().len(), 1);
    }

    #[test]
    fn dkom_hidden_process_visible_in_dump_thread_table() {
        let mut k = Kernel::with_base_processes();
        let ghost = k
            .spawn("g.exe", "C:\\g.exe".parse().unwrap(), None)
            .unwrap();
        k.dkom_unlink(ghost).unwrap();
        let dump = MemoryDump::parse(&k.crash_dump()).unwrap();
        assert!(!dump.processes_via_apl().contains(&ghost));
        assert!(dump.processes_via_threads().contains(&ghost));
        let p = dump.process(ghost).unwrap();
        assert!(!p.in_apl);
    }

    #[test]
    fn scrubber_erases_process_from_entire_dump() {
        let mut k = Kernel::with_base_processes();
        let ghost = k
            .spawn("g.exe", "C:\\g.exe".parse().unwrap(), None)
            .unwrap();
        k.register_dump_scrubber(DumpScrub {
            pids: vec![ghost],
            module_names: Vec::new(),
        });
        let dump = MemoryDump::parse(&k.crash_dump()).unwrap();
        assert!(dump.process(ghost).is_none());
        assert!(!dump.processes_via_threads().contains(&ghost));
        assert!(!dump.processes_via_apl().contains(&ghost));
        // The APL walk still covers everyone else despite the scrubbed tail.
        assert_eq!(dump.processes_via_apl().len(), 9);
    }

    #[test]
    fn scrubber_erases_modules() {
        let mut k = Kernel::with_base_processes();
        let pid = k.find_by_name("explorer.exe")[0];
        k.load_module(pid, "vanquish.dll", "C:\\windows\\vanquish.dll")
            .unwrap();
        k.register_dump_scrubber(DumpScrub {
            pids: Vec::new(),
            module_names: vec![NtString::from("vanquish.dll")],
        });
        let dump = MemoryDump::parse(&k.crash_dump()).unwrap();
        let p = dump.process(pid).unwrap();
        assert!(!p
            .kernel_modules
            .iter()
            .any(|m| m.name.eq_ignore_case(&NtString::from("vanquish.dll"))));
    }

    #[test]
    fn scrubbed_middle_process_keeps_apl_walk_intact() {
        let mut k = Kernel::new();
        let a = k.spawn("a", "C:\\a".parse().unwrap(), None).unwrap();
        let b = k.spawn("b", "C:\\b".parse().unwrap(), None).unwrap();
        let c = k.spawn("c", "C:\\c".parse().unwrap(), None).unwrap();
        k.register_dump_scrubber(DumpScrub {
            pids: vec![b],
            module_names: Vec::new(),
        });
        let dump = MemoryDump::parse(&k.crash_dump()).unwrap();
        assert_eq!(dump.processes_via_apl(), vec![a, c]);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(matches!(
            MemoryDump::parse(b"GARBAGE!xxxxxxx"),
            Err(DumpError::BadMagic)
        ));
        assert!(matches!(
            MemoryDump::parse(&[]),
            Err(DumpError::Truncated { .. })
        ));
        let k = Kernel::with_base_processes();
        let bytes = k.crash_dump();
        assert!(matches!(
            MemoryDump::parse(&bytes[..bytes.len() - 2]),
            Err(DumpError::Truncated { .. })
        ));
    }

    #[test]
    fn huge_process_count_errors_without_allocating() {
        let k = Kernel::with_base_processes();
        let mut bytes = k.crash_dump();
        // The process count sits right after the 12-byte header.
        bytes[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            MemoryDump::parse(&bytes),
            Err(DumpError::Truncated { .. })
        ));
    }

    #[test]
    fn salvage_on_clean_dump_matches_strict() {
        let k = Kernel::with_base_processes();
        let bytes = k.crash_dump();
        let strict = MemoryDump::parse(&bytes).unwrap();
        let salvaged = MemoryDump::parse_salvage(&bytes);
        assert!(salvaged.is_clean());
        assert_eq!(salvaged.value.processes(), strict.processes());
        assert_eq!(
            salvaged.value.processes_via_apl(),
            strict.processes_via_apl()
        );
    }

    #[test]
    fn salvage_keeps_records_before_the_damage() {
        let k = Kernel::with_base_processes();
        let bytes = k.crash_dump();
        let cut = bytes.len() / 2;
        assert!(MemoryDump::parse(&bytes[..cut]).is_err());
        let salvaged = MemoryDump::parse_salvage(&bytes[..cut]);
        assert_eq!(salvaged.defects.len(), 1);
        assert_eq!(salvaged.defects[0].kind, DefectKind::Truncated);
        assert!(salvaged.defects[0].bytes_lost > 0);
        assert!(
            !salvaged.value.processes().is_empty(),
            "the front half of the process table must survive"
        );
        assert!(salvaged.value.processes().len() < 9);
    }

    #[test]
    fn salvage_of_garbage_is_empty_with_defect() {
        let salvaged = MemoryDump::parse_salvage(b"GARBAGE!xxxxxxx");
        assert!(salvaged.value.processes().is_empty());
        assert_eq!(salvaged.defects[0].kind, DefectKind::BadMagic);
    }

    #[test]
    fn image_paths_roundtrip() {
        let mut k = Kernel::new();
        let pid = k
            .spawn("x.exe", "C:\\deep\\dir\\x.exe".parse().unwrap(), None)
            .unwrap();
        let dump = MemoryDump::parse(&k.crash_dump()).unwrap();
        assert_eq!(
            dump.process(pid).unwrap().image_path.to_string(),
            "C:\\deep\\dir\\x.exe"
        );
    }
}
