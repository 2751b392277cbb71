//! The assembled simulated machine and the query-chain executor.

use crate::hooks::{syscall_for, HookId, HookRegistry, HookScope, HookStyle, Level, QueryFilter};
use crate::query::{
    CallContext, FileRow, ModuleRow, PerParent, ProcessRow, Query, QueryKind, RegKeyRow,
    RegValueRow, Row,
};
use crate::tap::{RawSource, ScanTap};
use crate::trace::{ChainTrace, LevelHop};
use std::sync::Arc;
use strider_hive::{Registry, RegistryError, ValueData};
use strider_kernel::{Kernel, SyscallId};
use strider_nt_core::{FileRecordNumber, NtPath, NtStatus, NtString, Pid, Tick, MAX_PATH};
use strider_ntfs::{NtfsError, NtfsVolume};
use strider_support::fault::{FaultPlan, Stall, TransientFaults};
use strider_support::obs::FlightRecorder;

/// How a query enters the chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainEntry {
    /// Through the Win32 APIs (`FindFirstFile`, `RegEnumValue`, Tool Help):
    /// passes every level, and results are marshalled through Win32 naming
    /// rules on the way out.
    Win32,
    /// Directly through NtDll's native APIs: skips the IAT and Win32
    /// API-code levels and skips Win32 marshalling.
    Native,
}

strider_support::impl_json!(
    enum ChainEntry {
        Win32,
        Native,
    }
);

/// Ghostware interference with the low-level hive copy (the reason the
/// inside-the-box low-level scan is only a *truth approximation*).
pub trait HiveCopyTamper: Send + Sync {
    /// Rewrites the copied hive bytes for the given mount.
    fn tamper(&self, mount: &NtPath, bytes: Vec<u8>) -> Vec<u8>;
}

/// Ghostware interference with raw volume reads (MFT sweeps) from inside
/// the box.
pub trait RawImageTamper: Send + Sync {
    /// Rewrites the raw volume image bytes.
    fn tamper(&self, bytes: Vec<u8>) -> Vec<u8>;
}

/// A background activity run on every clock tick: the always-running
/// services (AV log writers, CCM, System Restore, prefetch, browser cache)
/// that produce the paper's outside-the-box false positives.
pub trait TickTask: Send + Sync {
    /// Task name for diagnostics.
    fn name(&self) -> &str;
    /// Performs one tick of work against the machine.
    fn on_tick(&mut self, machine: &mut Machine);
}

/// Persistent state captured at shutdown or VM pause: what a WinPE CD boot
/// (or the VM host) can see without the infected OS running.
#[derive(Debug, Clone)]
pub struct DiskImage {
    /// The machine the image came from.
    pub machine_name: String,
    /// Clock value at capture.
    pub taken_at: Tick,
    /// Raw NTFS volume image.
    pub volume_image: Vec<u8>,
    /// Raw hive bytes, one per mounted hive.
    pub hives: Vec<(NtPath, Vec<u8>)>,
}

/// Deterministic fault injection for a machine's three low-level truth
/// sources ([`RawSource`]) — the harness that exercises the robustness
/// layer. Every `try_*` read passes one gate that consults the source's
/// armed faults in a fixed order: a [`Stall`] answers
/// [`NtStatus::Pending`] until it drains (deadline paths), a transient
/// countdown answers [`NtStatus::DeviceNotReady`] N times before recovering
/// (retry paths), and a [`FaultPlan`] corrupts the bytes a read that gets
/// through returns (salvage paths). Armed via
/// [`Machine::set_fault_injector`].
///
/// # Examples
///
/// ```
/// use strider_winapi::{FaultInjector, Machine};
/// use strider_support::fault::FaultPlan;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut m = Machine::with_base_system("lab-1")?;
/// m.set_fault_injector(
///     FaultInjector::new()
///         .fail_volume_reads(1)
///         .corrupt_volume(FaultPlan::new(7).bit_flips(4)),
/// );
/// assert!(m.try_read_raw_volume_image().is_err()); // transient
/// assert!(m.try_read_raw_volume_image().is_ok()); // recovered, corrupted
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultInjector {
    volume: ReadFaults,
    hive: ReadFaults,
    dump: ReadFaults,
    /// Hive corruption is per mount, so `hive.plan` stays unset.
    hive_plans: Vec<(NtPath, FaultPlan)>,
}

/// The faults armed on one truth source, in the order the gate consults
/// them.
#[derive(Debug, Clone, Default)]
struct ReadFaults {
    stall: Stall,
    transient: TransientFaults,
    plan: Option<FaultPlan>,
}

impl FaultInjector {
    /// An injector with no faults armed.
    pub fn new() -> Self {
        Self::default()
    }

    /// The next `n` raw-volume reads fail transiently.
    pub fn fail_volume_reads(mut self, n: u32) -> Self {
        self.volume.transient = TransientFaults::failing(n);
        self
    }

    /// The next `n` hive copies (any mount) fail transiently.
    pub fn fail_hive_reads(mut self, n: u32) -> Self {
        self.hive.transient = TransientFaults::failing(n);
        self
    }

    /// The next `n` crash-dump captures fail transiently.
    pub fn fail_dump_reads(mut self, n: u32) -> Self {
        self.dump.transient = TransientFaults::failing(n);
        self
    }

    /// Every successful raw-volume read returns bytes corrupted by `plan`.
    pub fn corrupt_volume(mut self, plan: FaultPlan) -> Self {
        self.volume.plan = Some(plan);
        self
    }

    /// Every successful copy of the hive mounted at `mount` returns bytes
    /// corrupted by `plan`, which replaces any earlier plan for that mount
    /// (matched case-insensitively).
    pub fn corrupt_hive(mut self, mount: NtPath, plan: FaultPlan) -> Self {
        self.hive_plans.retain(|(m, _)| !m.eq_ignore_case(&mount));
        self.hive_plans.push((mount, plan));
        self
    }

    /// Every successful crash-dump capture returns bytes corrupted by
    /// `plan`.
    pub fn corrupt_dump(mut self, plan: FaultPlan) -> Self {
        self.dump.plan = Some(plan);
        self
    }

    /// Raw-volume reads return [`NtStatus::Pending`] until `stall` drains
    /// (a [`Stall::forever`] never does — only a deadline escapes it).
    pub fn stall_volume_reads(mut self, stall: Stall) -> Self {
        self.volume.stall = stall;
        self
    }

    /// Hive copies (any mount) return [`NtStatus::Pending`] until `stall`
    /// drains.
    pub fn stall_hive_reads(mut self, stall: Stall) -> Self {
        self.hive.stall = stall;
        self
    }

    /// Crash-dump captures return [`NtStatus::Pending`] until `stall`
    /// drains.
    pub fn stall_dump_reads(mut self, stall: Stall) -> Self {
        self.dump.stall = stall;
        self
    }

    fn source(&self, source: RawSource) -> &ReadFaults {
        match source {
            RawSource::Volume => &self.volume,
            RawSource::Hive => &self.hive,
            RawSource::Dump => &self.dump,
        }
    }

    /// The plan corrupting a read of `source` (of the hive at `mount`).
    fn plan(&self, source: RawSource, mount: Option<&NtPath>) -> Option<&FaultPlan> {
        match mount {
            Some(mount) => self
                .hive_plans
                .iter()
                .find(|(m, _)| m.eq_ignore_case(mount))
                .map(|(_, plan)| plan),
            None => self.source(source).plan.as_ref(),
        }
    }
}

/// The simulated Windows machine: volume + Registry + kernel + hook chain.
///
/// All ordinary software — OS utilities, services, GhostBuster's high-level
/// scans, the anti-virus scanner — observes the machine through
/// [`Machine::query`], which routes through every installed hook.
/// Low-level scans read the volume and hive truth sources through one
/// fault gate ([`Machine::try_read_raw_volume_image`],
/// [`Machine::try_copy_hive_bytes`]) or traverse the kernel directly, and
/// outside-the-box scans use [`Machine::snapshot_disk`] and the same
/// gate's [`Machine::try_crash_dump`].
///
/// # Examples
///
/// ```
/// use strider_winapi::{Machine, Query, ChainEntry};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut m = Machine::with_base_system("lab-1")?;
/// let ctx = m.context_for_name("explorer.exe").unwrap();
/// let rows = m.query(&ctx, &Query::ProcessList, ChainEntry::Win32)?;
/// assert!(rows.len() >= 9);
/// # Ok(())
/// # }
/// ```
pub struct Machine {
    name: String,
    clock: Tick,
    volume: NtfsVolume,
    registry: Registry,
    kernel: Kernel,
    hooks: HookRegistry,
    hive_tampers: Vec<(String, Arc<dyn HiveCopyTamper>)>,
    image_tampers: Vec<(String, Arc<dyn RawImageTamper>)>,
    tick_tasks: Vec<Box<dyn TickTask>>,
    faults: Option<FaultInjector>,
    flight: Option<FlightRecorder>,
    tap: ScanTap,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("name", &self.name)
            .field("clock", &self.clock)
            .field("files", &self.volume.record_count())
            .field("keys", &self.registry.key_count())
            .field("hooks", &self.hooks.hooks().len())
            .finish_non_exhaustive()
    }
}

impl Machine {
    /// Creates a bare machine: empty `C:` volume, standard hive mounts,
    /// no processes.
    pub fn bare(name: &str) -> Self {
        Self {
            name: name.to_string(),
            clock: Tick::ZERO,
            volume: NtfsVolume::new("C:"),
            registry: Registry::standard(),
            kernel: Kernel::new(),
            hooks: HookRegistry::new(),
            hive_tampers: Vec::new(),
            image_tampers: Vec::new(),
            tick_tasks: Vec::new(),
            faults: None,
            flight: None,
            tap: ScanTap::new(),
        }
    }

    /// Creates a machine with the standard base system installed: the
    /// Windows directory skeleton and core binaries on disk, benign ASEP
    /// entries in the Registry, the boot-time process set, and core drivers.
    ///
    /// # Errors
    ///
    /// Propagates substrate errors; cannot fail for the static base layout.
    pub fn with_base_system(name: &str) -> Result<Self, NtStatus> {
        let mut m = Self::bare(name);
        m.install_base_filesystem().map_err(ntfs_status)?;
        m.install_base_registry().map_err(reg_status)?;
        m.kernel = Kernel::with_base_processes();
        m.kernel.load_driver(
            "beep",
            "C:\\windows\\system32\\drivers\\beep.sys"
                .parse()
                .expect("static"),
        );
        m.kernel.load_driver(
            "null",
            "C:\\windows\\system32\\drivers\\null.sys"
                .parse()
                .expect("static"),
        );
        // The hive backing files exist on disk from first boot, so later
        // snapshots don't look like new-file churn.
        m.persist_hives()?;
        Ok(m)
    }

    fn install_base_filesystem(&mut self) -> Result<(), NtfsError> {
        let dirs = [
            "C:\\windows",
            "C:\\windows\\system32",
            "C:\\windows\\system32\\config",
            "C:\\windows\\system32\\drivers",
            "C:\\windows\\prefetch",
            "C:\\windows\\temp",
            "C:\\Program Files",
            "C:\\Documents and Settings",
            "C:\\Documents and Settings\\user",
            "C:\\Documents and Settings\\user\\Local Settings",
            "C:\\Documents and Settings\\user\\Local Settings\\Temporary Internet Files",
            "C:\\temp",
        ];
        for d in dirs {
            self.volume.mkdir_p(&d.parse().expect("static path"))?;
        }
        let files = [
            ("C:\\windows\\explorer.exe", &b"MZ explorer"[..]),
            ("C:\\windows\\system32\\ntoskrnl.exe", b"MZ ntoskrnl"),
            ("C:\\windows\\system32\\smss.exe", b"MZ smss"),
            ("C:\\windows\\system32\\csrss.exe", b"MZ csrss"),
            ("C:\\windows\\system32\\winlogon.exe", b"MZ winlogon"),
            ("C:\\windows\\system32\\services.exe", b"MZ services"),
            ("C:\\windows\\system32\\lsass.exe", b"MZ lsass"),
            ("C:\\windows\\system32\\svchost.exe", b"MZ svchost"),
            ("C:\\windows\\system32\\notepad.exe", b"MZ notepad"),
            ("C:\\windows\\system32\\cmd.exe", b"MZ cmd"),
            ("C:\\windows\\system32\\taskmgr.exe", b"MZ taskmgr"),
            ("C:\\windows\\system32\\userinit.exe", b"MZ userinit"),
            ("C:\\windows\\system32\\ctfmon.exe", b"MZ ctfmon"),
            ("C:\\windows\\system32\\kernel32.dll", b"MZ kernel32"),
            ("C:\\windows\\system32\\ntdll.dll", b"MZ ntdll"),
            ("C:\\windows\\system32\\user32.dll", b"MZ user32"),
            ("C:\\windows\\system32\\advapi32.dll", b"MZ advapi32"),
            ("C:\\windows\\system32\\drivers\\beep.sys", b"MZ beep"),
            ("C:\\windows\\system32\\drivers\\null.sys", b"MZ null"),
        ];
        for (p, data) in files {
            self.volume
                .create_file(&p.parse().expect("static path"), data)?;
        }
        Ok(())
    }

    fn install_base_registry(&mut self) -> Result<(), RegistryError> {
        let reg = &mut self.registry;
        let run: NtPath = "HKLM\\SOFTWARE\\Microsoft\\Windows\\CurrentVersion\\Run"
            .parse()
            .expect("static");
        reg.create_key(&run)?;
        reg.set_value(
            &run,
            "ctfmon",
            ValueData::sz("C:\\windows\\system32\\ctfmon.exe"),
        )?;
        for (svc, image) in [
            ("Beep", "System32\\drivers\\beep.sys"),
            ("Null", "System32\\drivers\\null.sys"),
            ("Eventlog", "C:\\windows\\system32\\services.exe"),
            (
                "lanmanserver",
                "C:\\windows\\system32\\svchost.exe -k netsvcs",
            ),
        ] {
            let key: NtPath = format!("HKLM\\SYSTEM\\CurrentControlSet\\Services\\{svc}")
                .parse()
                .expect("static");
            reg.create_key(&key)?;
            reg.set_value(&key, "ImagePath", ValueData::sz(image))?;
        }
        let winlogon: NtPath = "HKLM\\SOFTWARE\\Microsoft\\Windows NT\\CurrentVersion\\Winlogon"
            .parse()
            .expect("static");
        reg.create_key(&winlogon)?;
        reg.set_value(&winlogon, "Shell", ValueData::sz("explorer.exe"))?;
        reg.set_value(
            &winlogon,
            "Userinit",
            ValueData::sz("C:\\windows\\system32\\userinit.exe"),
        )?;
        let windows_key: NtPath = "HKLM\\SOFTWARE\\Microsoft\\Windows NT\\CurrentVersion\\Windows"
            .parse()
            .expect("static");
        reg.create_key(&windows_key)?;
        reg.set_value(&windows_key, "AppInit_DLLs", ValueData::sz(""))?;
        reg.create_key(
            &"HKLM\\SOFTWARE\\Microsoft\\Windows\\CurrentVersion\\RunOnce"
                .parse()
                .expect("static"),
        )?;
        Ok(())
    }

    /// The machine's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The current logical clock.
    pub fn now(&self) -> Tick {
        self.clock
    }

    /// The live volume.
    pub fn volume(&self) -> &NtfsVolume {
        &self.volume
    }

    /// Mutable access to the live volume (trusted OS-level operations).
    pub fn volume_mut(&mut self) -> &mut NtfsVolume {
        &mut self.volume
    }

    /// The live Registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Mutable access to the live Registry.
    pub fn registry_mut(&mut self) -> &mut Registry {
        &mut self.registry
    }

    /// The kernel.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Mutable access to the kernel.
    pub fn kernel_mut(&mut self) -> &mut Kernel {
        &mut self.kernel
    }

    /// The hook registry (read access, e.g. for mechanism-targeting
    /// baseline detectors).
    pub fn hooks(&self) -> &HookRegistry {
        &self.hooks
    }

    // ------------------------------------------------------------------
    // Clock & background services
    // ------------------------------------------------------------------

    /// Registers an always-running background task.
    pub fn add_tick_task(&mut self, task: Box<dyn TickTask>) {
        self.tick_tasks.push(task);
    }

    /// Advances the clock by `n` ticks, running every background task once
    /// per tick.
    pub fn tick(&mut self, n: u64) {
        for _ in 0..n {
            self.clock += 1;
            self.volume.set_clock(self.clock);
            self.registry.set_clock(self.clock);
            self.kernel.set_clock(self.clock);
            let mut tasks = std::mem::take(&mut self.tick_tasks);
            for t in &mut tasks {
                t.on_tick(self);
            }
            // Tasks registered during the tick are preserved.
            tasks.append(&mut self.tick_tasks);
            self.tick_tasks = tasks;
        }
    }

    // ------------------------------------------------------------------
    // Processes
    // ------------------------------------------------------------------

    /// Spawns a process (kernel bookkeeping only; the image file need not
    /// exist, as with the paper's memory-only samples).
    ///
    /// # Errors
    ///
    /// Propagates kernel errors (unknown parent).
    pub fn spawn_process(&mut self, image_name: &str, image_path: &str) -> Result<Pid, NtStatus> {
        let path: NtPath = image_path
            .parse()
            .map_err(|_| NtStatus::ObjectNameInvalid)?;
        self.kernel
            .spawn(image_name, path, None)
            .map_err(|_| NtStatus::NoSuchProcess)
    }

    /// A call context for an existing process.
    pub fn context_for(&self, pid: Pid) -> Option<CallContext> {
        self.kernel
            .process(pid)
            .map(|p| CallContext::new(pid, &p.image_name.to_win32_lossy()))
    }

    /// A call context for the first process with the given image name.
    pub fn context_for_name(&self, image_name: &str) -> Option<CallContext> {
        self.kernel
            .find_by_name(image_name)
            .first()
            .and_then(|&pid| self.context_for(pid))
    }

    /// Finds or spawns a process by name and returns its context — how the
    /// GhostBuster executable enters the machine.
    ///
    /// # Errors
    ///
    /// Propagates spawn failures; [`NtStatus::NoSuchProcess`] if the
    /// freshly spawned process cannot be looked up (e.g. reaped by a
    /// tick task racing the spawn).
    pub fn ensure_process(
        &mut self,
        image_name: &str,
        image_path: &str,
    ) -> Result<CallContext, NtStatus> {
        if let Some(ctx) = self.context_for_name(image_name) {
            return Ok(ctx);
        }
        let pid = self.spawn_process(image_name, image_path)?;
        self.context_for(pid).ok_or(NtStatus::NoSuchProcess)
    }

    // ------------------------------------------------------------------
    // The query chain
    // ------------------------------------------------------------------

    /// Executes a query through the hook chain.
    ///
    /// # Errors
    ///
    /// Returns the status a real API would: `ObjectNameNotFound` for missing
    /// directories/keys, `NoSuchProcess` for module queries on dead pids.
    pub fn query(
        &self,
        ctx: &CallContext,
        query: &Query,
        entry: ChainEntry,
    ) -> Result<Vec<Row>, NtStatus> {
        self.query_traced(ctx, query, entry).map(|(rows, _)| rows)
    }

    /// The one chain walk behind [`Machine::query`]: truth rows, then
    /// every applicable hook level, then Win32 marshalling, recording a
    /// [`ChainTrace`] on the way so a diverted call is attributable to the
    /// exact chain layer that lied. Every filter edits the one row vector
    /// in place and reports its own edits, so the trace costs no row copy.
    ///
    /// # Errors
    ///
    /// Same as [`Machine::query`].
    pub fn query_traced(
        &self,
        ctx: &CallContext,
        query: &Query,
        entry: ChainEntry,
    ) -> Result<(Vec<Row>, ChainTrace), NtStatus> {
        self.tap.record_query(query.kind(), &ctx.image_name);
        let mut rows = self.truth_rows(query)?;
        let mut trace = ChainTrace {
            kind: query.kind(),
            entry,
            truth_rows: rows.len() as u64,
            hops: Vec::with_capacity(Level::ALL.len()),
            marshal_mutated: false,
            final_rows: 0,
        };
        for level in Level::ALL {
            if entry == ChainEntry::Native && !level.applies_to_native_calls() {
                continue;
            }
            let rows_in = rows.len();
            let reported = self.apply_level(level, ctx, query, &mut rows);
            trace.hops.push(LevelHop {
                level,
                rows_in: rows_in as u64,
                rows_out: rows.len() as u64,
                mutated: reported || rows.len() != rows_in,
            });
        }
        if entry == ChainEntry::Win32 {
            trace.marshal_mutated = win32_marshal(&mut rows);
        }
        trace.final_rows = rows.len() as u64;
        Ok((rows, trace))
    }

    /// Simulates a debugger taking a call-stack trace of one API call from
    /// `ctx`: returns the module/owner names that appear on the stack, in
    /// call order. Wrapper-style and table-patch hooks show up ("cause the
    /// Trojan functions to appear in the call stack trace" — paper,
    /// Section 2); detours doctor the return path and do not.
    pub fn stack_trace(&self, ctx: &CallContext, kind: QueryKind) -> Vec<String> {
        let query = match kind {
            QueryKind::Files => Query::DirectoryEnum {
                path: NtPath::root_of(self.volume.label()),
            },
            QueryKind::RegKeys => Query::RegEnumKeys {
                key: "HKLM\\SOFTWARE".parse().expect("static"),
            },
            QueryKind::RegValues => Query::RegEnumValues {
                key: "HKLM\\SOFTWARE".parse().expect("static"),
            },
            QueryKind::Processes => Query::ProcessList,
            QueryKind::Modules => Query::ModuleList { pid: ctx.pid },
        };
        let mut frames = vec![ctx.image_name.clone()];
        // Walk the chain caller-side down, recording visible trampolines.
        for level in Level::ALL.iter().rev() {
            let module = match level {
                Level::Iat => "import thunk",
                Level::Win32ApiCode => "kernel32.dll",
                Level::NtdllCode => "ntdll.dll",
                Level::Ssdt => "ntoskrnl.exe",
                Level::FilterDriver | Level::RegistryCallback => continue,
            };
            for hook in self.hooks.applicable(*level, ctx, &query) {
                if hook.style.visible_in_stack_trace() {
                    frames.push(format!("{} (trojan)", hook.owner));
                }
            }
            frames.push(module.to_string());
        }
        frames
    }

    /// Runs every hook at `level` that intercepts the query, returning
    /// whether any of them reported an edit.
    fn apply_level(
        &self,
        level: Level,
        ctx: &CallContext,
        query: &Query,
        rows: &mut Vec<Row>,
    ) -> bool {
        let mut mutated = false;
        match level {
            Level::FilterDriver => {
                if query.kind() == QueryKind::Files {
                    for &id in self.kernel.filter_stack() {
                        mutated |= self.apply_hook_id(id, ctx, query, rows);
                    }
                }
            }
            Level::RegistryCallback => {
                if matches!(query.kind(), QueryKind::RegKeys | QueryKind::RegValues) {
                    for &id in self.kernel.registry_callbacks() {
                        mutated |= self.apply_hook_id(id, ctx, query, rows);
                    }
                }
            }
            Level::Ssdt => {
                // The kernel dispatch table is authoritative: a restored
                // entry means the hook body no longer runs even if still
                // registered.
                if let Some(id) = self.kernel.ssdt().hook_of(syscall_for(query.kind())) {
                    mutated = self.apply_hook_id(id, ctx, query, rows);
                }
            }
            Level::NtdllCode | Level::Win32ApiCode | Level::Iat => {
                for h in self.hooks.applicable(level, ctx, query) {
                    mutated |= h.filter.filter(ctx, query, rows);
                }
            }
        }
        mutated
    }

    fn apply_hook_id(
        &self,
        id: HookId,
        ctx: &CallContext,
        query: &Query,
        rows: &mut Vec<Row>,
    ) -> bool {
        match self.hooks.hook(id) {
            Some(h) if h.intercepts(ctx, query) => h.filter.filter(ctx, query, rows),
            _ => false,
        }
    }

    fn truth_rows(&self, query: &Query) -> Result<Vec<Row>, NtStatus> {
        match query {
            Query::DirectoryEnum { path } => {
                let children = self.volume.list_children(path).map_err(ntfs_status)?;
                // Sized to the directory index up front: one allocation.
                let mut rows = Vec::with_capacity(children.size_hint().1.unwrap_or(0));
                // One copy of the directory per listing; a row adds its name.
                let parent = Arc::new(path.clone());
                rows.extend(children.map(|rec| {
                    Row::File(FileRow {
                        name: rec.name.clone(),
                        parent: Arc::clone(&parent),
                        is_dir: rec.is_directory(),
                        attributes: rec.std_info.attributes,
                        size: rec.total_stream_bytes(),
                    })
                }));
                Ok(rows)
            }
            Query::RegEnumKeys { key } => {
                let k = self
                    .registry
                    .key_at(key)
                    .ok_or(NtStatus::ObjectNameNotFound)?;
                Ok(k.subkeys
                    .iter()
                    .map(|sk| {
                        Row::RegKey(RegKeyRow {
                            name: sk.name.clone(),
                            path: key.join(sk.name.clone()),
                        })
                    })
                    .collect())
            }
            Query::RegEnumValues { key } => {
                let k = self
                    .registry
                    .key_at(key)
                    .ok_or(NtStatus::ObjectNameNotFound)?;
                Ok(k.values
                    .iter()
                    // The live configuration manager fails to materialize
                    // corrupt data, so such values never reach any API view.
                    .filter(|v| !v.corrupt_data)
                    .map(|v| {
                        Row::RegValue(RegValueRow {
                            name: v.name.clone(),
                            key: key.clone(),
                            data: v.data.to_display_string(),
                        })
                    })
                    .collect())
            }
            Query::ProcessList => Ok(self
                .kernel
                .active_process_list()
                .into_iter()
                .filter_map(|pid| self.kernel.process(pid))
                .map(|p| {
                    Row::Process(ProcessRow {
                        pid: p.pid,
                        image_name: p.image_name.clone(),
                        image_path: p.image_path.to_string(),
                    })
                })
                .collect()),
            Query::ModuleList { pid } => {
                let p = self.kernel.process(*pid).ok_or(NtStatus::NoSuchProcess)?;
                Ok(p.peb_modules
                    .iter()
                    .map(|m| {
                        Row::Module(ModuleRow {
                            pid: *pid,
                            name: m.name.clone(),
                            path: m.path.clone(),
                            base: m.base,
                        })
                    })
                    .collect())
            }
        }
    }

    /// A plain `dir` listing (no `/a`): Win32 enumeration that additionally
    /// drops entries carrying the *benign* HIDDEN attribute. GhostBuster's
    /// own scans never use this — attribute hiding is honest metadata, not
    /// ghostware — but casual users do, which is why attribute-hidden files
    /// feel "hidden" without ever being a cross-view discrepancy.
    ///
    /// # Errors
    ///
    /// Same as [`Machine::query`].
    pub fn plain_dir(&self, ctx: &CallContext, path: &NtPath) -> Result<Vec<Row>, NtStatus> {
        let rows = self.query(
            ctx,
            &Query::DirectoryEnum { path: path.clone() },
            ChainEntry::Win32,
        )?;
        Ok(rows
            .into_iter()
            .filter(|r| match r {
                Row::File(f) => !f.attributes.contains(strider_ntfs::FileAttributes::HIDDEN),
                _ => true,
            })
            .collect())
    }

    // ------------------------------------------------------------------
    // File creation through the two API levels
    // ------------------------------------------------------------------

    /// Creates a file through the Win32 layer, which enforces naming rules
    /// and `MAX_PATH`.
    ///
    /// # Errors
    ///
    /// `ObjectNameInvalid` for Win32-illegal names or over-long paths, plus
    /// the NTFS-level errors.
    pub fn win32_create_file(
        &mut self,
        path: &NtPath,
        data: &[u8],
    ) -> Result<FileRecordNumber, NtStatus> {
        if !path.is_win32_visible() {
            return Err(NtStatus::ObjectNameInvalid);
        }
        self.volume.create_file(path, data).map_err(ntfs_status)
    }

    /// Creates a file through the native API: only NTFS-level rules apply,
    /// so trailing dots, reserved device names, and deep paths all succeed —
    /// and become invisible to Win32 enumeration.
    ///
    /// # Errors
    ///
    /// NTFS-level errors only.
    pub fn native_create_file(
        &mut self,
        path: &NtPath,
        data: &[u8],
    ) -> Result<FileRecordNumber, NtStatus> {
        self.volume.create_file(path, data).map_err(ntfs_status)
    }

    // ------------------------------------------------------------------
    // Low-level scan sources (inside the box) and their fault gate
    // ------------------------------------------------------------------

    /// Arms (or replaces) the machine's fault injector, which the `try_*`
    /// truth-source reads consult.
    pub fn set_fault_injector(&mut self, faults: FaultInjector) {
        self.faults = Some(faults);
    }

    /// Disarms fault injection.
    pub fn clear_fault_injector(&mut self) {
        self.faults = None;
    }

    /// Attaches a flight-recorder handle: the `try_*` truth-source reads
    /// log every injected stall, transient failure, and applied
    /// corruption plan into it, so a degraded pipeline's black box shows
    /// the device-level trouble that preceded the failure.
    pub fn set_flight_recorder(&mut self, recorder: FlightRecorder) {
        self.flight = Some(recorder);
    }

    /// Detaches the flight-recorder handle.
    pub fn clear_flight_recorder(&mut self) {
        self.flight = None;
    }

    /// A clone-handle view of in-flight scan activity, as observable from
    /// inside the box: query counts, same-kind enumeration runs, recent
    /// caller names, and raw truth-source reads. Installed ghostware uses
    /// this to sense scans and adapt (see `strider_ghostware::evasive`);
    /// [`Machine::snapshot_disk`] is deliberately *not* recorded here —
    /// outside-the-box capture is invisible from inside the box.
    pub fn scan_tap(&self) -> ScanTap {
        self.tap.clone()
    }

    fn flight_fault(&self, what: &str, detail: &str) {
        if let Some(recorder) = &self.flight {
            recorder.fault(what, detail);
        }
    }

    /// Reads the raw volume image from inside the box, as the low-level
    /// MFT scan does. Ghostware with sufficient privilege may tamper with
    /// this copy — which is why this source is a truth *approximation*.
    ///
    /// # Errors
    ///
    /// [`NtStatus::Pending`] while an injected stall holds the read;
    /// [`NtStatus::DeviceNotReady`] while injected transient faults remain.
    pub fn try_read_raw_volume_image(&self) -> Result<Vec<u8>, NtStatus> {
        self.gated_read(RawSource::Volume, None, || {
            let tampers = self.image_tampers.iter();
            Ok(tampers.fold(self.volume.to_image(), |b, (_, t)| t.tamper(b)))
        })
    }

    /// Copies a hive's backing bytes from inside the box (the low-level
    /// Registry scan's "copy and parse" step), subject to tampering.
    ///
    /// # Errors
    ///
    /// [`NtStatus::Pending`] while an injected stall holds the copy;
    /// [`NtStatus::DeviceNotReady`] while injected transient faults remain;
    /// [`NtStatus::ObjectNameNotFound`] if no hive is mounted at `mount`.
    pub fn try_copy_hive_bytes(&self, mount: &NtPath) -> Result<Vec<u8>, NtStatus> {
        self.gated_read(RawSource::Hive, Some(mount), || {
            let mut hives = self.registry.hives().iter();
            let hive = hives.find(|h| h.mount().eq_ignore_case(mount));
            let bytes = hive.ok_or(NtStatus::ObjectNameNotFound)?.to_bytes();
            let tampers = self.hive_tampers.iter();
            Ok(tampers.fold(bytes, |b, (_, t)| t.tamper(mount, b)))
        })
    }

    /// Captures a crash dump of the kernel from inside the box.
    ///
    /// # Errors
    ///
    /// [`NtStatus::Pending`] while an injected stall holds the capture;
    /// [`NtStatus::DeviceNotReady`] while injected transient faults remain.
    pub fn try_crash_dump(&self) -> Result<Vec<u8>, NtStatus> {
        self.gated_read(RawSource::Dump, None, || Ok(self.kernel.crash_dump()))
    }

    /// The one gate every truth-source read passes, in a fixed order: an
    /// armed stall answers `Pending`, then a transient fault answers
    /// `DeviceNotReady`, then the tap records the read, then `read` runs
    /// (ghostware tampers included), then the source's corruption plan —
    /// for a hive copy, the plan of the hive at `mount` — rewrites the
    /// bytes. Each injected fault lands in the flight recorder.
    fn gated_read(
        &self,
        source: RawSource,
        mount: Option<&NtPath>,
        read: impl FnOnce() -> Result<Vec<u8>, NtStatus>,
    ) -> Result<Vec<u8>, NtStatus> {
        let what = match source {
            RawSource::Volume => "volume.read",
            RawSource::Hive => "hive.copy",
            RawSource::Dump => "kernel.dump",
        };
        if let Some(armed) = self.faults.as_ref().map(|f| f.source(source)) {
            if armed.stall.poll_pending() {
                self.flight_fault(what, "stalled (Pending)");
                return Err(NtStatus::Pending);
            }
            if armed.transient.should_fail() {
                self.flight_fault(what, "transient DeviceNotReady");
                return Err(NtStatus::DeviceNotReady);
            }
        }
        self.tap.record_raw_read(source);
        let bytes = read()?;
        let Some(plan) = self.faults.as_ref().and_then(|f| f.plan(source, mount)) else {
            return Ok(bytes);
        };
        match mount {
            Some(mount) => {
                self.flight_fault(what, &format!("corruption plan applied to {mount}"));
            }
            None => self.flight_fault(what, "corruption plan applied"),
        }
        Ok(plan.apply(&bytes))
    }

    /// Registers ghostware interference with hive copies.
    pub fn add_hive_tamper(&mut self, owner: &str, tamper: Arc<dyn HiveCopyTamper>) {
        self.hive_tampers.push((owner.to_string(), tamper));
    }

    /// Registers ghostware interference with raw volume reads.
    pub fn add_image_tamper(&mut self, owner: &str, tamper: Arc<dyn RawImageTamper>) {
        self.image_tampers.push((owner.to_string(), tamper));
    }

    // ------------------------------------------------------------------
    // Outside-the-box capture
    // ------------------------------------------------------------------

    /// Flushes every hive to its backing file on the volume.
    ///
    /// # Errors
    ///
    /// Propagates volume errors creating the backing files.
    pub fn persist_hives(&mut self) -> Result<(), NtStatus> {
        let hives: Vec<(NtPath, Vec<u8>)> = self
            .registry
            .hives()
            .iter()
            .map(|h| (h.backing_file().clone(), h.to_bytes()))
            .collect();
        for (path, bytes) in hives {
            if let Some(parent) = path.parent() {
                self.volume.mkdir_p(&parent).map_err(ntfs_status)?;
            }
            if self.volume.exists(&path) {
                self.volume.write_file(&path, &bytes).map_err(ntfs_status)?;
            } else {
                self.volume
                    .create_file(&path, &bytes)
                    .map_err(ntfs_status)?;
            }
        }
        Ok(())
    }

    /// Captures the persistent state as seen from a clean boot: hives are
    /// flushed, then the raw volume and hive bytes are returned *without*
    /// any tampering — the ghostware is not running in WinPE.
    ///
    /// # Errors
    ///
    /// Propagates hive-flush errors.
    pub fn snapshot_disk(&mut self) -> Result<DiskImage, NtStatus> {
        self.persist_hives()?;
        Ok(DiskImage {
            machine_name: self.name.clone(),
            taken_at: self.clock,
            volume_image: self.volume.to_image(),
            hives: self
                .registry
                .hives()
                .iter()
                .map(|h| (h.mount().clone(), h.to_bytes()))
                .collect(),
        })
    }

    // ------------------------------------------------------------------
    // Hook installation (the ghostware-facing API)
    // ------------------------------------------------------------------

    /// Patches per-process IAT entries (Urbin/Mersting style).
    pub fn install_iat_hook(
        &mut self,
        owner: &str,
        kinds: Vec<QueryKind>,
        scope: HookScope,
        filter: Arc<dyn QueryFilter>,
    ) -> HookId {
        self.hooks.install(
            owner,
            Level::Iat,
            kinds,
            scope,
            HookStyle::TablePatch,
            filter,
        )
    }

    /// Modifies in-memory Win32 API code (Vanquish wrapper / Aphex detour).
    pub fn install_win32_code_hook(
        &mut self,
        owner: &str,
        kinds: Vec<QueryKind>,
        scope: HookScope,
        style: HookStyle,
        filter: Arc<dyn QueryFilter>,
    ) -> HookId {
        self.hooks
            .install(owner, Level::Win32ApiCode, kinds, scope, style, filter)
    }

    /// Detours in-memory NtDll code (Hacker Defender/Berbew style).
    pub fn install_ntdll_hook(
        &mut self,
        owner: &str,
        kinds: Vec<QueryKind>,
        scope: HookScope,
        filter: Arc<dyn QueryFilter>,
    ) -> HookId {
        self.hooks.install(
            owner,
            Level::NtdllCode,
            kinds,
            scope,
            HookStyle::Detour,
            filter,
        )
    }

    /// Replaces an SSDT dispatch entry (ProBot SE style).
    pub fn install_ssdt_hook(
        &mut self,
        owner: &str,
        syscall: SyscallId,
        kinds: Vec<QueryKind>,
        filter: Arc<dyn QueryFilter>,
    ) -> HookId {
        let id = self.hooks.install(
            owner,
            Level::Ssdt,
            kinds,
            HookScope::All,
            HookStyle::TablePatch,
            filter,
        );
        self.kernel.ssdt_mut().install_hook(syscall, id);
        id
    }

    /// Inserts a filesystem filter driver (commercial file-hider style).
    pub fn install_filter_driver(
        &mut self,
        owner: &str,
        scope: HookScope,
        filter: Arc<dyn QueryFilter>,
    ) -> HookId {
        let id = self.hooks.install(
            owner,
            Level::FilterDriver,
            vec![QueryKind::Files],
            scope,
            HookStyle::LegitimateMechanism,
            filter,
        );
        self.kernel.push_filter(id);
        id
    }

    /// Registers a kernel registry callback.
    pub fn install_registry_callback(
        &mut self,
        owner: &str,
        scope: HookScope,
        filter: Arc<dyn QueryFilter>,
    ) -> HookId {
        let id = self.hooks.install(
            owner,
            Level::RegistryCallback,
            vec![QueryKind::RegKeys, QueryKind::RegValues],
            scope,
            HookStyle::LegitimateMechanism,
            filter,
        );
        self.kernel.register_registry_callback(id);
        id
    }

    /// Removes every hook, filter, callback, SSDT patch, and tamper that
    /// `owner` installed — the uninstall/remediation path.
    pub fn remove_software(&mut self, owner: &str) {
        let ids = self.hooks.remove_by_owner(owner);
        for id in ids {
            self.kernel.remove_filter(id);
            self.kernel.remove_registry_callback(id);
            for svc in SyscallId::ALL {
                if self.kernel.ssdt().hook_of(svc) == Some(id) {
                    self.kernel.ssdt_mut().restore(svc);
                }
            }
        }
        self.hive_tampers
            .retain(|(o, _)| !o.eq_ignore_ascii_case(owner));
        self.image_tampers
            .retain(|(o, _)| !o.eq_ignore_ascii_case(owner));
    }
}

/// Win32 marshalling applied on the way out of a Win32-entry query: the
/// naming-rule asymmetries that make native-created artifacts invisible.
/// Edits `rows` in place and returns whether it dropped or truncated any.
fn win32_marshal(rows: &mut Vec<Row>) -> bool {
    let before = rows.len();
    let mut truncated = false;
    let mut parent = PerParent::default();
    rows.retain_mut(|row| match row {
        Row::File(r) => {
            // Exactly `r.path().is_win32_visible()`, with the directory
            // measured once for every row that shares it.
            let &(dir_len, dir_legal) = parent.get(r, |dir| {
                let legal = dir.components().iter().all(NtString::is_win32_legal);
                (dir.char_len(), legal)
            });
            dir_len + 1 + r.name.len() <= MAX_PATH && dir_legal && r.name.is_win32_legal()
        }
        Row::RegKey(RegKeyRow { name, .. }) | Row::RegValue(RegValueRow { name, .. }) => {
            truncated |= truncate_at_nul(name);
            true
        }
        Row::Module(r) => !r.name.is_empty(),
        Row::Process(_) => true,
    });
    truncated || rows.len() != before
}

/// Cuts `name` at its first NUL, returning whether there was one.
fn truncate_at_nul(name: &mut NtString) -> bool {
    let Some(i) = name.units().iter().position(|&u| u == 0) else {
        return false;
    };
    *name = NtString::from_units(&name.units()[..i]);
    true
}

fn ntfs_status(e: NtfsError) -> NtStatus {
    match e {
        NtfsError::ParentNotFound(_) => NtStatus::ObjectPathNotFound,
        NtfsError::NotFound(_) => NtStatus::ObjectNameNotFound,
        NtfsError::AlreadyExists(_) => NtStatus::ObjectNameCollision,
        NtfsError::NotADirectory(_) => NtStatus::NotADirectory,
        NtfsError::IsADirectory(_) => NtStatus::IsADirectory,
        NtfsError::DirectoryNotEmpty(_) => NtStatus::DirectoryNotEmpty,
        NtfsError::InvalidName(_) => NtStatus::ObjectNameInvalid,
        NtfsError::WrongVolume { .. } => NtStatus::ObjectPathNotFound,
    }
}

fn reg_status(e: RegistryError) -> NtStatus {
    match e {
        RegistryError::NoHiveForPath(_) | RegistryError::KeyNotFound(_) => {
            NtStatus::ObjectNameNotFound
        }
        RegistryError::ValueNotFound { .. } => NtStatus::ObjectNameNotFound,
        RegistryError::AlreadyMounted(_) => NtStatus::ObjectNameCollision,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> NtPath {
        s.parse().unwrap()
    }

    #[test]
    fn fault_injector_gates_every_low_level_read_path() {
        let mut m = Machine::with_base_system("faulty").unwrap();
        let software = p("HKLM\\SOFTWARE");
        m.set_fault_injector(
            FaultInjector::new()
                .fail_volume_reads(1)
                .fail_hive_reads(2)
                .fail_dump_reads(1),
        );
        assert_eq!(
            m.try_read_raw_volume_image().unwrap_err(),
            NtStatus::DeviceNotReady
        );
        assert!(m.try_read_raw_volume_image().is_ok());
        assert!(m.try_copy_hive_bytes(&software).is_err());
        assert!(m.try_copy_hive_bytes(&software).is_err());
        assert!(m.try_copy_hive_bytes(&software).is_ok());
        assert!(m.try_crash_dump().is_err());
        assert!(m.try_crash_dump().is_ok());
        // Disarmed: everything succeeds immediately.
        m.clear_fault_injector();
        assert!(m.try_read_raw_volume_image().is_ok());
        // Unknown mounts are a hard error, not a transient one.
        assert_eq!(
            m.try_copy_hive_bytes(&p("HKLM\\NOPE")).unwrap_err(),
            NtStatus::ObjectNameNotFound
        );
    }

    #[test]
    fn fault_events_land_in_an_attached_flight_recorder() {
        use strider_support::obs::{FakeClock, FlightEventKind};
        let mut m = Machine::with_base_system("blackbox").unwrap();
        let recorder = FlightRecorder::new(Arc::new(FakeClock::new()));
        m.set_flight_recorder(recorder.clone());
        m.set_fault_injector(
            FaultInjector::new()
                .fail_volume_reads(1)
                .stall_dump_reads(Stall::after_polls(1))
                .corrupt_volume(FaultPlan::new(1).bit_flips(4)),
        );
        assert!(m.try_read_raw_volume_image().is_err()); // transient
        assert!(m.try_read_raw_volume_image().is_ok()); // corrupted
        assert!(m.try_crash_dump().is_err()); // stalled once
        let dump = recorder.snapshot();
        let details: Vec<&str> = dump.events.iter().map(|e| e.detail.as_str()).collect();
        assert_eq!(
            details,
            vec![
                "transient DeviceNotReady",
                "corruption plan applied",
                "stalled (Pending)",
            ]
        );
        assert!(dump.events.iter().all(|e| e.kind == FlightEventKind::Fault));
        // Detached: reads stop logging.
        m.clear_flight_recorder();
        assert!(m.try_crash_dump().is_ok());
        assert_eq!(recorder.snapshot().len(), dump.len());
    }

    #[test]
    fn fault_injector_corruption_plans_rewrite_read_bytes() {
        let mut m = Machine::with_base_system("corrupt").unwrap();
        let software = p("HKLM\\SOFTWARE");
        let clean_vol = m.try_read_raw_volume_image().unwrap();
        let clean_hive = m.try_copy_hive_bytes(&software).unwrap();
        let clean_system = m.try_copy_hive_bytes(&p("HKLM\\SYSTEM")).unwrap();
        m.set_fault_injector(
            FaultInjector::new()
                .corrupt_volume(FaultPlan::new(1).bit_flips(8))
                .corrupt_hive(software.clone(), FaultPlan::new(2).torn_sectors(1))
                .corrupt_dump(FaultPlan::new(3).truncate_to(0.5)),
        );
        assert_ne!(m.try_read_raw_volume_image().unwrap(), clean_vol);
        assert_ne!(m.try_copy_hive_bytes(&software).unwrap(), clean_hive);
        // Only the targeted mount is corrupted.
        assert_eq!(
            m.try_copy_hive_bytes(&p("HKLM\\SYSTEM")).unwrap(),
            clean_system
        );
        let dump = m.try_crash_dump().unwrap();
        assert!(dump.len() < m.kernel().crash_dump().len());
    }

    #[test]
    fn a_later_hive_plan_replaces_an_earlier_one_for_the_same_mount() {
        let mut m = Machine::with_base_system("replan").unwrap();
        let clean = m.try_copy_hive_bytes(&p("HKLM\\SOFTWARE")).unwrap();
        let second = FaultPlan::new(2).torn_sectors(1);
        m.set_fault_injector(
            FaultInjector::new()
                .corrupt_hive(p("HKLM\\SOFTWARE"), FaultPlan::new(1).bit_flips(8))
                .corrupt_hive(p("hklm\\software"), second.clone()),
        );
        assert_eq!(
            m.try_copy_hive_bytes(&p("HKLM\\SOFTWARE")).unwrap(),
            second.apply(&clean)
        );
    }

    fn name_filter(substr: &'static str) -> Arc<dyn QueryFilter> {
        Arc::new(move |_: &CallContext, _: &Query, rows: &mut Vec<Row>| {
            let before = rows.len();
            rows.retain(|r| {
                !r.name()
                    .to_win32_lossy()
                    .to_ascii_lowercase()
                    .contains(substr)
            });
            rows.len() != before
        })
    }

    fn base() -> Machine {
        Machine::with_base_system("test").unwrap()
    }

    #[test]
    fn base_system_enumerates() {
        let m = base();
        let ctx = m.context_for_name("explorer.exe").unwrap();
        let rows = m
            .query(
                &ctx,
                &Query::DirectoryEnum {
                    path: p("C:\\windows\\system32"),
                },
                ChainEntry::Win32,
            )
            .unwrap();
        assert!(rows.len() > 10);
        let procs = m
            .query(&ctx, &Query::ProcessList, ChainEntry::Win32)
            .unwrap();
        assert_eq!(procs.len(), 9);
    }

    #[test]
    fn missing_directory_reports_status() {
        let m = base();
        let ctx = m.context_for_name("explorer.exe").unwrap();
        assert_eq!(
            m.query(
                &ctx,
                &Query::DirectoryEnum {
                    path: p("C:\\nope")
                },
                ChainEntry::Win32
            ),
            Err(NtStatus::ObjectNameNotFound)
        );
    }

    #[test]
    fn ntdll_hook_hides_from_both_entries() {
        let mut m = base();
        m.volume_mut()
            .create_file(&p("C:\\windows\\hxdef100.exe"), b"MZ")
            .unwrap();
        m.install_ntdll_hook(
            "hxdef",
            vec![QueryKind::Files],
            HookScope::All,
            name_filter("hxdef"),
        );
        let ctx = m.context_for_name("explorer.exe").unwrap();
        let q = Query::DirectoryEnum {
            path: p("C:\\windows"),
        };
        for entry in [ChainEntry::Win32, ChainEntry::Native] {
            let rows = m.query(&ctx, &q, entry).unwrap();
            assert!(
                !rows
                    .iter()
                    .any(|r| r.name().to_win32_lossy().contains("hxdef")),
                "{entry:?} must be filtered"
            );
        }
    }

    #[test]
    fn iat_hook_does_not_affect_native_entry() {
        let mut m = base();
        m.volume_mut()
            .create_file(&p("C:\\windows\\urbin.dll"), b"MZ")
            .unwrap();
        m.install_iat_hook(
            "urbin",
            vec![QueryKind::Files],
            HookScope::All,
            name_filter("urbin"),
        );
        let ctx = m.context_for_name("explorer.exe").unwrap();
        let q = Query::DirectoryEnum {
            path: p("C:\\windows"),
        };
        let win32 = m.query(&ctx, &q, ChainEntry::Win32).unwrap();
        assert!(!win32
            .iter()
            .any(|r| r.name().to_win32_lossy().contains("urbin")));
        let native = m.query(&ctx, &q, ChainEntry::Native).unwrap();
        assert!(native
            .iter()
            .any(|r| r.name().to_win32_lossy().contains("urbin")));
    }

    #[test]
    fn ssdt_hook_applies_and_restoration_disables_it() {
        let mut m = base();
        m.volume_mut()
            .create_file(&p("C:\\windows\\probot.sys"), b"MZ")
            .unwrap();
        m.install_ssdt_hook(
            "probot",
            SyscallId::NtQueryDirectoryFile,
            vec![QueryKind::Files],
            name_filter("probot"),
        );
        let ctx = m.context_for_name("explorer.exe").unwrap();
        let q = Query::DirectoryEnum {
            path: p("C:\\windows"),
        };
        let rows = m.query(&ctx, &q, ChainEntry::Native).unwrap();
        assert!(!rows
            .iter()
            .any(|r| r.name().to_win32_lossy().contains("probot")));
        // Direct Service Dispatch Table restoration defeats it.
        m.kernel_mut()
            .ssdt_mut()
            .restore(SyscallId::NtQueryDirectoryFile);
        let rows = m.query(&ctx, &q, ChainEntry::Native).unwrap();
        assert!(rows
            .iter()
            .any(|r| r.name().to_win32_lossy().contains("probot")));
    }

    #[test]
    fn filter_driver_scoped_to_caller() {
        let mut m = base();
        m.volume_mut()
            .create_file(&p("C:\\temp\\secret.txt"), b"x")
            .unwrap();
        m.install_filter_driver(
            "hidefolders",
            HookScope::ExceptCallers(vec!["hidefolders.exe".into()]),
            name_filter("secret"),
        );
        m.spawn_process("hidefolders.exe", "C:\\Program Files\\hf.exe")
            .unwrap();
        let q = Query::DirectoryEnum {
            path: p("C:\\temp"),
        };
        let user = m.context_for_name("explorer.exe").unwrap();
        assert!(m.query(&user, &q, ChainEntry::Win32).unwrap().is_empty());
        let owner = m.context_for_name("hidefolders.exe").unwrap();
        assert_eq!(m.query(&owner, &q, ChainEntry::Win32).unwrap().len(), 1);
    }

    #[test]
    fn win32_marshal_hides_illegal_names_native_shows_them() {
        let mut m = base();
        m.native_create_file(&p("C:\\temp\\update."), b"x").unwrap();
        assert_eq!(
            m.win32_create_file(&p("C:\\temp\\bad."), b"x"),
            Err(NtStatus::ObjectNameInvalid)
        );
        let ctx = m.context_for_name("explorer.exe").unwrap();
        let q = Query::DirectoryEnum {
            path: p("C:\\temp"),
        };
        assert!(m.query(&ctx, &q, ChainEntry::Win32).unwrap().is_empty());
        assert_eq!(m.query(&ctx, &q, ChainEntry::Native).unwrap().len(), 1);
    }

    #[test]
    fn win32_marshal_keeps_exactly_the_win32_visible_joined_paths() {
        use strider_support::check::{check, gen, Config};
        use strider_support::prop_assert_eq;
        use strider_support::rng::SplitMix64;
        const UNITS: &[u16] = &[
            b'x' as u16,
            b'.' as u16,
            b' ' as u16,
            b'<' as u16,
            0,
            1,
            0xD800,
        ];
        const STEMS: &[&str] = &["", "con", "LPT1", "nul", "data"];
        /// A stem, edge units, then padding that carries the joined path
        /// across `MAX_PATH`.
        fn part(rng: &mut SplitMix64) -> (usize, Vec<u16>, usize) {
            (
                rng.gen_range(0..STEMS.len()),
                gen::vec_of(rng, 0, 3, |r| *r.choose(UNITS)),
                rng.gen_range(0..MAX_PATH),
            )
        }
        fn name((stem, units, pad): &(usize, Vec<u16>, usize)) -> NtString {
            let mut all: Vec<u16> = STEMS[stem % STEMS.len()].encode_utf16().collect();
            all.extend(units);
            all.extend(std::iter::repeat_n(u16::from(b'a'), *pad));
            NtString::from_units(&all)
        }
        let mut at_the_limit = 0;
        check(
            "win32_marshal_keeps_exactly_the_win32_visible_joined_paths",
            Config::with_cases(1_000),
            |rng| {
                (
                    gen::vec_of(rng, 1, 3, |r| gen::vec_of(r, 0, 2, part)),
                    gen::vec_of(rng, 0, 12, |r| (r.gen_range(0..3), part(r))),
                )
            },
            |(parents, rows)| {
                if parents.is_empty() {
                    return Ok(()); // shrunk below the generator's invariant
                }
                let parents: Vec<Arc<NtPath>> = parents
                    .iter()
                    .map(|dir| Arc::new(NtPath::from_components("C:", dir.iter().map(name))))
                    .collect();
                // Rows of several listings, interleaved.
                let mut listing: Vec<Row> = rows
                    .iter()
                    .map(|(i, n)| {
                        Row::File(FileRow {
                            name: name(n),
                            parent: Arc::clone(&parents[i % parents.len()]),
                            is_dir: false,
                            attributes: strider_ntfs::FileAttributes::NORMAL,
                            size: 0,
                        })
                    })
                    .collect();
                let mut expected = listing.clone();
                expected.retain(|r| matches!(r, Row::File(f) if f.path().is_win32_visible()));
                at_the_limit += listing
                    .iter()
                    .filter(|r| {
                        matches!(r, Row::File(f) if f.path().char_len().abs_diff(MAX_PATH) <= 1)
                    })
                    .count();
                let changed = win32_marshal(&mut listing);
                prop_assert_eq!(changed, listing.len() != rows.len());
                prop_assert_eq!(listing, expected);
                Ok(())
            },
        );
        assert!(at_the_limit > 0, "no generated path sat at MAX_PATH");
    }

    #[test]
    fn registry_value_with_nul_truncates_through_win32() {
        let mut m = base();
        let run = p("HKLM\\SOFTWARE\\Microsoft\\Windows\\CurrentVersion\\Run");
        let sneaky = NtString::from_units(&[b'e' as u16, 0, b'x' as u16]);
        m.registry_mut()
            .set_value_raw(
                &run,
                strider_hive::Value::new(sneaky.clone(), ValueData::sz("evil.exe")),
            )
            .unwrap();
        let ctx = m.context_for_name("explorer.exe").unwrap();
        let q = Query::RegEnumValues { key: run };
        let win32 = m.query(&ctx, &q, ChainEntry::Win32).unwrap();
        let names: Vec<String> = win32.iter().map(|r| r.name().to_display_string()).collect();
        assert!(names.contains(&"e".to_string()));
        assert!(!names.contains(&"e\\0x".to_string()));
        let native = m.query(&ctx, &q, ChainEntry::Native).unwrap();
        let names: Vec<String> = native
            .iter()
            .map(|r| r.name().to_display_string())
            .collect();
        assert!(names.contains(&"e\\0x".to_string()));
    }

    #[test]
    fn module_rows_drop_blanked_entries_in_win32_view() {
        let mut m = base();
        let pid = m.kernel().find_by_name("explorer.exe")[0];
        m.kernel_mut()
            .load_module(pid, "vanquish.dll", "C:\\windows\\vanquish.dll")
            .unwrap();
        m.kernel_mut()
            .blank_peb_module_path(pid, "vanquish.dll")
            .unwrap();
        let ctx = m.context_for(pid).unwrap();
        let q = Query::ModuleList { pid };
        let win32 = m.query(&ctx, &q, ChainEntry::Win32).unwrap();
        assert!(!win32
            .iter()
            .any(|r| r.name().to_win32_lossy().contains("vanquish")));
        // The kernel truth still has it.
        assert!(m
            .kernel()
            .process(pid)
            .unwrap()
            .kernel_module(&NtString::from("vanquish.dll"))
            .is_some());
    }

    #[test]
    fn stack_trace_shows_wrappers_but_not_detours() {
        let mut m = base();
        m.install_win32_code_hook(
            "wrapper-kit",
            vec![QueryKind::Files],
            HookScope::All,
            HookStyle::Wrapper,
            name_filter("zzz"),
        );
        m.install_ntdll_hook(
            "detour-kit",
            vec![QueryKind::Files],
            HookScope::All,
            name_filter("zzz"),
        );
        let ctx = m.context_for_name("explorer.exe").unwrap();
        let trace = m.stack_trace(&ctx, QueryKind::Files);
        assert!(trace.iter().any(|f| f.contains("wrapper-kit")), "{trace:?}");
        assert!(!trace.iter().any(|f| f.contains("detour-kit")), "{trace:?}");
        assert!(trace.iter().any(|f| f == "ntdll.dll"));
        assert_eq!(trace[0], "explorer.exe");
    }

    #[test]
    fn plain_dir_drops_attribute_hidden_files_but_scans_do_not() {
        let mut m = base();
        m.volume_mut()
            .create_file_with(
                &p("C:\\temp\\dotfile.ini"),
                b"x",
                strider_ntfs::FileAttributes::HIDDEN,
            )
            .unwrap();
        let ctx = m.context_for_name("explorer.exe").unwrap();
        let plain = m.plain_dir(&ctx, &p("C:\\temp")).unwrap();
        assert!(plain.is_empty(), "plain dir honours the attribute");
        let full = m
            .query(
                &ctx,
                &Query::DirectoryEnum {
                    path: p("C:\\temp"),
                },
                ChainEntry::Win32,
            )
            .unwrap();
        assert_eq!(full.len(), 1, "dir /a-style enumeration shows it");
    }

    #[test]
    fn remove_software_undoes_everything() {
        let mut m = base();
        m.install_ssdt_hook(
            "evil",
            SyscallId::NtQueryDirectoryFile,
            vec![QueryKind::Files],
            name_filter("x"),
        );
        m.install_filter_driver("evil", HookScope::All, name_filter("x"));
        m.install_registry_callback("evil", HookScope::All, name_filter("x"));
        m.remove_software("evil");
        assert!(m.hooks().hooks().is_empty());
        assert!(m.kernel().filter_stack().is_empty());
        assert!(m.kernel().registry_callbacks().is_empty());
        assert!(m.kernel().ssdt().hooked_services().is_empty());
    }

    #[test]
    fn query_traced_attributes_divergence_to_the_hook_level() {
        let mut m = base();
        m.volume_mut()
            .create_file(&p("C:\\windows\\hxdef100.exe"), b"MZ")
            .unwrap();
        m.install_ntdll_hook(
            "hxdef",
            vec![QueryKind::Files],
            HookScope::All,
            name_filter("hxdef"),
        );
        let ctx = m.context_for_name("explorer.exe").unwrap();
        let q = Query::DirectoryEnum {
            path: p("C:\\windows"),
        };
        let (rows, trace) = m.query_traced(&ctx, &q, ChainEntry::Win32).unwrap();
        assert_eq!(rows, m.query(&ctx, &q, ChainEntry::Win32).unwrap());
        assert!(trace.diverted());
        assert_eq!(trace.first_diverted_level(), Some(Level::NtdllCode));
        assert_eq!(trace.truth_rows, trace.final_rows + 1);
        assert_eq!(trace.hops.len(), 6, "Win32 entry traverses every level");
        assert!(!trace.marshal_mutated);

        // Native entry skips the caller-side levels.
        let (_, native) = m.query_traced(&ctx, &q, ChainEntry::Native).unwrap();
        assert_eq!(native.hops.len(), 4);

        // A clean machine's trace shows no divergence.
        m.remove_software("hxdef");
        let (_, clean) = m.query_traced(&ctx, &q, ChainEntry::Win32).unwrap();
        assert!(!clean.diverted());
    }

    #[test]
    fn query_traced_flags_win32_marshalling() {
        let mut m = base();
        m.native_create_file(&p("C:\\temp\\update."), b"x").unwrap();
        let ctx = m.context_for_name("explorer.exe").unwrap();
        let q = Query::DirectoryEnum {
            path: p("C:\\temp"),
        };
        let (rows, trace) = m.query_traced(&ctx, &q, ChainEntry::Win32).unwrap();
        assert!(rows.is_empty());
        assert!(trace.marshal_mutated, "naming-rule hiding is marshalling");
        assert!(trace.diverted());
        assert_eq!(trace.first_diverted_level(), None, "no hook level lied");
    }

    #[test]
    fn snapshot_disk_persists_hives_to_backing_files() {
        let mut m = base();
        let img = m.snapshot_disk().unwrap();
        assert_eq!(img.hives.len(), 3);
        assert!(m
            .volume()
            .exists(&p("C:\\windows\\system32\\config\\system")));
        let raw = strider_ntfs::VolumeImage::parse(&img.volume_image).unwrap();
        assert!(raw
            .file_paths()
            .iter()
            .any(|(path, _)| path.to_string() == "C:\\windows\\system32\\config\\software"));
    }

    #[test]
    fn hive_tamper_applies_to_inside_copy_but_not_snapshot() {
        struct Zero;
        impl HiveCopyTamper for Zero {
            fn tamper(&self, _m: &NtPath, mut bytes: Vec<u8>) -> Vec<u8> {
                bytes.truncate(4);
                bytes
            }
        }
        let mut m = base();
        m.add_hive_tamper("evil", Arc::new(Zero));
        let mount = p("HKLM\\SOFTWARE");
        assert_eq!(m.try_copy_hive_bytes(&mount).unwrap().len(), 4);
        let img = m.snapshot_disk().unwrap();
        let (_, bytes) = img
            .hives
            .iter()
            .find(|(mnt, _)| mnt.eq_ignore_case(&mount))
            .unwrap();
        assert!(bytes.len() > 4, "outside snapshot is untampered");
    }

    #[test]
    fn tick_runs_tasks_and_advances_clock() {
        struct Logger;
        impl TickTask for Logger {
            fn name(&self) -> &str {
                "logger"
            }
            fn on_tick(&mut self, m: &mut Machine) {
                let path: NtPath = "C:\\windows\\temp\\svc.log".parse().unwrap();
                m.volume_mut().append_file(&path, b"line\n").unwrap();
            }
        }
        let mut m = base();
        m.add_tick_task(Box::new(Logger));
        m.tick(5);
        assert_eq!(m.now(), Tick(5));
        assert_eq!(
            m.volume()
                .read_file(&p("C:\\windows\\temp\\svc.log"))
                .unwrap()
                .len(),
            5 * 5
        );
    }
}
