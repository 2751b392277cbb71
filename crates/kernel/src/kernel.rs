//! The simulated kernel: object tables, the Active Process List, DKOM.

use crate::dump;
use crate::process::{self, Driver, Eprocess, Ethread, ModuleEntry, ThreadState};
use crate::ssdt::Ssdt;
use std::collections::BTreeMap;
use std::fmt;
use strider_nt_core::{NtPath, NtString, Pid, Tick, Tid};

/// Error type for kernel operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// The referenced process does not exist.
    NoSuchProcess(Pid),
    /// The referenced module is not loaded in the process.
    NoSuchModule {
        /// The process searched.
        pid: Pid,
        /// The missing module name.
        module: NtString,
    },
    /// The referenced driver is not loaded.
    NoSuchDriver(NtString),
    /// The process is already unlinked from the Active Process List.
    NotLinked(Pid),
    /// The process is already linked into the Active Process List.
    AlreadyLinked(Pid),
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::NoSuchProcess(p) => write!(f, "no such process: {p}"),
            KernelError::NoSuchModule { pid, module } => {
                write!(f, "no module {module} in {pid}")
            }
            KernelError::NoSuchDriver(n) => write!(f, "no such driver: {n}"),
            KernelError::NotLinked(p) => write!(f, "{p} is not linked in the APL"),
            KernelError::AlreadyLinked(p) => write!(f, "{p} is already linked in the APL"),
        }
    }
}

impl std::error::Error for KernelError {}

/// A request registered by ghostware to sanitize crash dumps before they
/// leave the machine — the paper's "future ghostware programs can potentially
/// trap the blue-screen events and remove all traces of themselves from the
/// memory dump" attack.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DumpScrub {
    /// Processes to erase from the dump entirely.
    pub pids: Vec<Pid>,
    /// Module names to erase from every process's lists in the dump.
    pub module_names: Vec<NtString>,
}

/// The simulated NT kernel.
///
/// See the crate docs for the data-structure inventory. All mutation goes
/// through methods that keep the Active Process List links, the thread
/// table, and the subsystem handle table consistent — except the explicitly
/// inconsistent operations ([`Kernel::dkom_unlink`],
/// [`Kernel::blank_peb_module_path`]) that ghostware performs.
#[derive(Debug, Clone)]
pub struct Kernel {
    processes: BTreeMap<u32, Eprocess>,
    threads: BTreeMap<u32, Ethread>,
    apl_head: Option<Pid>,
    apl_tail: Option<Pid>,
    drivers: Vec<Driver>,
    ssdt: Ssdt,
    /// Filesystem filter-driver stack (hook ids, outermost first).
    filter_stack: Vec<u32>,
    /// Registry callback list (hook ids).
    registry_callbacks: Vec<u32>,
    /// The subsystem (csrss) handle table: one handle per Win32 process.
    csrss_handles: Vec<Pid>,
    dump_scrubbers: Vec<DumpScrub>,
    next_pid: u32,
    next_tid: u32,
    now: Tick,
    rr_cursor: usize,
}

impl Default for Kernel {
    fn default() -> Self {
        Self::new()
    }
}

impl Kernel {
    /// Creates an empty kernel with no processes.
    pub fn new() -> Self {
        Self {
            processes: BTreeMap::new(),
            threads: BTreeMap::new(),
            apl_head: None,
            apl_tail: None,
            drivers: Vec::new(),
            ssdt: Ssdt::new(),
            filter_stack: Vec::new(),
            registry_callbacks: Vec::new(),
            csrss_handles: Vec::new(),
            dump_scrubbers: Vec::new(),
            next_pid: 4,
            next_tid: 4,
            now: Tick::ZERO,
            rr_cursor: 0,
        }
    }

    /// Creates a kernel pre-populated with the standard boot-time process
    /// set (`System`, `smss`, `csrss`, `winlogon`, `services`, `lsass`,
    /// two `svchost` instances, `explorer`).
    pub fn with_base_processes() -> Self {
        let mut k = Self::new();
        let base = [
            ("System", "C:\\windows\\system32\\ntoskrnl.exe"),
            ("smss.exe", "C:\\windows\\system32\\smss.exe"),
            ("csrss.exe", "C:\\windows\\system32\\csrss.exe"),
            ("winlogon.exe", "C:\\windows\\system32\\winlogon.exe"),
            ("services.exe", "C:\\windows\\system32\\services.exe"),
            ("lsass.exe", "C:\\windows\\system32\\lsass.exe"),
            ("svchost.exe", "C:\\windows\\system32\\svchost.exe"),
            ("svchost.exe", "C:\\windows\\system32\\svchost.exe"),
            ("explorer.exe", "C:\\windows\\explorer.exe"),
        ];
        for (name, path) in base {
            k.spawn(name, path.parse().expect("static path parses"), None)
                .expect("fresh kernel spawn cannot fail");
        }
        k
    }

    /// Sets the clock used to stamp creation/load times.
    pub fn set_clock(&mut self, now: Tick) {
        self.now = now;
    }

    /// The current clock.
    pub fn now(&self) -> Tick {
        self.now
    }

    // ------------------------------------------------------------------
    // Processes & threads
    // ------------------------------------------------------------------

    /// Creates a process with one thread, links it into the Active Process
    /// List, loads its main image into both module lists, and registers the
    /// subsystem handle.
    ///
    /// # Errors
    ///
    /// Returns an error only if `parent` is given and does not exist.
    pub fn spawn(
        &mut self,
        image_name: &str,
        image_path: NtPath,
        parent: Option<Pid>,
    ) -> Result<Pid, KernelError> {
        if let Some(p) = parent {
            if !self.processes.contains_key(&p.0) {
                return Err(KernelError::NoSuchProcess(p));
            }
        }
        let pid = Pid(self.next_pid);
        self.next_pid += 4;
        let main_image = ModuleEntry::new(0x0040_0000, image_name, image_path.to_string().as_str());
        let proc = Eprocess {
            pid,
            image_name: NtString::from(image_name),
            image_path,
            parent,
            created: self.now,
            peb_modules: vec![main_image.clone()],
            kernel_modules: vec![main_image],
            threads: Vec::new(),
            apl_next: None,
            apl_prev: None,
            in_apl: false,
        };
        self.processes.insert(pid.0, proc);
        self.apl_link_tail(pid);
        self.add_thread(pid).expect("process just inserted");
        // csrss tracks every Win32 process but not itself or System.
        if image_name != "System" && image_name != "csrss.exe" {
            self.csrss_handles.push(pid);
        }
        Ok(pid)
    }

    /// Terminates a process: threads die, links and handles are cleaned up.
    ///
    /// # Errors
    ///
    /// Fails when the process does not exist.
    pub fn kill(&mut self, pid: Pid) -> Result<(), KernelError> {
        let proc = self
            .processes
            .get(&pid.0)
            .ok_or(KernelError::NoSuchProcess(pid))?;
        let tids = proc.threads.clone();
        let linked = proc.in_apl;
        if linked {
            self.dkom_unlink(pid)?; // same mechanics, legitimate caller
        }
        for t in tids {
            self.threads.remove(&t.0);
        }
        self.csrss_handles.retain(|&p| p != pid);
        self.processes.remove(&pid.0);
        Ok(())
    }

    /// Adds a ready thread to a process.
    ///
    /// # Errors
    ///
    /// Fails when the process does not exist.
    fn add_thread(&mut self, pid: Pid) -> Result<Tid, KernelError> {
        let proc = self
            .processes
            .get_mut(&pid.0)
            .ok_or(KernelError::NoSuchProcess(pid))?;
        let tid = Tid(self.next_tid);
        self.next_tid += 4;
        proc.threads.push(tid);
        self.threads.insert(
            tid.0,
            Ethread {
                tid,
                owner: pid,
                state: ThreadState::Ready,
            },
        );
        Ok(tid)
    }

    /// Fetches a process object.
    pub fn process(&self, pid: Pid) -> Option<&Eprocess> {
        self.processes.get(&pid.0)
    }

    /// Iterates over every live process object (the object table itself,
    /// not the APL — this is the omniscient simulator view, used by tests).
    pub fn processes(&self) -> impl Iterator<Item = &Eprocess> {
        self.processes.values()
    }

    /// Finds processes by image name (case-insensitive).
    pub fn find_by_name(&self, name: &str) -> Vec<Pid> {
        let needle = NtString::from(name);
        self.processes
            .values()
            .filter(|p| p.image_name.eq_ignore_case(&needle))
            .map(|p| p.pid)
            .collect()
    }

    /// All thread objects (the scheduler table).
    pub fn threads(&self) -> impl Iterator<Item = &Ethread> {
        self.threads.values()
    }

    // ------------------------------------------------------------------
    // Active Process List
    // ------------------------------------------------------------------

    fn apl_link_tail(&mut self, pid: Pid) {
        match self.apl_tail {
            None => {
                self.apl_head = Some(pid);
                self.apl_tail = Some(pid);
                let p = self.processes.get_mut(&pid.0).expect("exists");
                p.apl_prev = None;
                p.apl_next = None;
                p.in_apl = true;
            }
            Some(tail) => {
                self.processes
                    .get_mut(&tail.0)
                    .expect("tail exists")
                    .apl_next = Some(pid);
                let p = self.processes.get_mut(&pid.0).expect("exists");
                p.apl_prev = Some(tail);
                p.apl_next = None;
                p.in_apl = true;
                self.apl_tail = Some(pid);
            }
        }
    }

    /// Walks the Active Process List by following the links from the head —
    /// the "truth approximation" behind process enumeration.
    pub fn active_process_list(&self) -> Vec<Pid> {
        process::apl_walk(self.apl_head, self.processes.len(), |pid| self.process(pid))
    }

    /// FU-style DKOM: unlinks a process from the Active Process List while
    /// leaving the object — and its schedulable threads — alive.
    ///
    /// # Errors
    ///
    /// Fails when the process does not exist or is already unlinked.
    pub fn dkom_unlink(&mut self, pid: Pid) -> Result<(), KernelError> {
        let (prev, next) = {
            let p = self
                .processes
                .get(&pid.0)
                .ok_or(KernelError::NoSuchProcess(pid))?;
            if !p.in_apl {
                return Err(KernelError::NotLinked(pid));
            }
            (p.apl_prev, p.apl_next)
        };
        match prev {
            Some(pp) => self.processes.get_mut(&pp.0).expect("linked").apl_next = next,
            None => self.apl_head = next,
        }
        match next {
            Some(np) => self.processes.get_mut(&np.0).expect("linked").apl_prev = prev,
            None => self.apl_tail = prev,
        }
        let p = self.processes.get_mut(&pid.0).expect("exists");
        p.apl_prev = None;
        p.apl_next = None;
        p.in_apl = false;
        Ok(())
    }

    /// Re-links a DKOM-hidden process at the tail (used by remediation).
    ///
    /// # Errors
    ///
    /// Fails when the process does not exist or is already linked.
    pub fn dkom_relink(&mut self, pid: Pid) -> Result<(), KernelError> {
        let p = self
            .processes
            .get(&pid.0)
            .ok_or(KernelError::NoSuchProcess(pid))?;
        if p.in_apl {
            return Err(KernelError::AlreadyLinked(pid));
        }
        self.apl_link_tail(pid);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Advanced-mode truth sources
    // ------------------------------------------------------------------

    /// Deduplicated owners of every schedulable thread — the advanced-mode
    /// low-level scan. DKOM-hidden processes reappear here.
    pub fn processes_via_threads(&self) -> Vec<Pid> {
        process::thread_owners(self.threads.values())
    }

    /// The subsystem handle table — an alternative advanced-mode source.
    pub fn processes_via_handles(&self) -> Vec<Pid> {
        let mut pids = self.csrss_handles.clone();
        pids.sort();
        pids.dedup();
        pids
    }

    /// Round-robin scheduler step: picks the next ready thread, proving that
    /// DKOM-hidden processes remain fully functional.
    pub fn schedule_next(&mut self) -> Option<(Pid, Tid)> {
        let ready: Vec<Tid> = self
            .threads
            .values()
            .filter(|t| t.state != ThreadState::Waiting)
            .map(|t| t.tid)
            .collect();
        if ready.is_empty() {
            return None;
        }
        self.rr_cursor = (self.rr_cursor + 1) % ready.len();
        let tid = ready[self.rr_cursor];
        let owner = self.threads.get(&tid.0).expect("listed").owner;
        for t in self.threads.values_mut() {
            if t.state == ThreadState::Running {
                t.state = ThreadState::Ready;
            }
        }
        self.threads.get_mut(&tid.0).expect("listed").state = ThreadState::Running;
        Some((owner, tid))
    }

    // ------------------------------------------------------------------
    // Modules
    // ------------------------------------------------------------------

    /// Loads a module into a process: both the PEB list and the kernel list.
    ///
    /// # Errors
    ///
    /// Fails when the process does not exist.
    pub fn load_module(&mut self, pid: Pid, name: &str, path: &str) -> Result<(), KernelError> {
        let proc = self
            .processes
            .get_mut(&pid.0)
            .ok_or(KernelError::NoSuchProcess(pid))?;
        let base = 0x1000_0000 + 0x10_0000 * proc.kernel_modules.len() as u64;
        let entry = ModuleEntry::new(base, name, path);
        proc.peb_modules.push(entry.clone());
        proc.kernel_modules.push(entry);
        Ok(())
    }

    /// Vanquish-style PEB doctoring: blanks the pathname of a module in the
    /// *user-mode* loader list only. The kernel's mapped-image list keeps
    /// the truth.
    ///
    /// # Errors
    ///
    /// Fails when the process or module does not exist.
    pub fn blank_peb_module_path(&mut self, pid: Pid, module: &str) -> Result<(), KernelError> {
        let needle = NtString::from(module);
        let proc = self
            .processes
            .get_mut(&pid.0)
            .ok_or(KernelError::NoSuchProcess(pid))?;
        let entry = proc
            .peb_modules
            .iter_mut()
            .find(|m| m.name.eq_ignore_case(&needle))
            .ok_or_else(|| KernelError::NoSuchModule {
                pid,
                module: needle.clone(),
            })?;
        entry.path = NtString::new();
        entry.name = NtString::new();
        Ok(())
    }

    // ------------------------------------------------------------------
    // Drivers, SSDT, filter stack, registry callbacks
    // ------------------------------------------------------------------

    /// Loads a kernel driver.
    pub fn load_driver(&mut self, name: &str, image_path: NtPath) {
        self.drivers.push(Driver {
            name: NtString::from(name),
            image_path,
            loaded_at: self.now,
        });
    }

    /// Unloads a driver by case-insensitive name.
    ///
    /// # Errors
    ///
    /// Fails when no driver of that name is loaded.
    pub fn unload_driver(&mut self, name: &str) -> Result<Driver, KernelError> {
        let needle = NtString::from(name);
        let i = self
            .drivers
            .iter()
            .position(|d| d.name.eq_ignore_case(&needle))
            .ok_or(KernelError::NoSuchDriver(needle))?;
        Ok(self.drivers.remove(i))
    }

    /// The loaded-driver list.
    pub fn drivers(&self) -> &[Driver] {
        &self.drivers
    }

    /// The Service Dispatch Table.
    pub fn ssdt(&self) -> &Ssdt {
        &self.ssdt
    }

    /// Mutable access to the SSDT (ghostware hook installation).
    pub fn ssdt_mut(&mut self) -> &mut Ssdt {
        &mut self.ssdt
    }

    /// Pushes a filesystem filter driver (hook id) onto the stack.
    pub fn push_filter(&mut self, hook: u32) {
        self.filter_stack.push(hook);
    }

    /// Removes a filter from the stack.
    pub fn remove_filter(&mut self, hook: u32) {
        self.filter_stack.retain(|&h| h != hook);
    }

    /// The filter stack, outermost first.
    pub fn filter_stack(&self) -> &[u32] {
        &self.filter_stack
    }

    /// Registers a kernel registry callback (hook id).
    pub fn register_registry_callback(&mut self, hook: u32) {
        self.registry_callbacks.push(hook);
    }

    /// Removes a registry callback.
    pub fn remove_registry_callback(&mut self, hook: u32) {
        self.registry_callbacks.retain(|&h| h != hook);
    }

    /// The registry callback list.
    pub fn registry_callbacks(&self) -> &[u32] {
        &self.registry_callbacks
    }

    // ------------------------------------------------------------------
    // Crash dumps
    // ------------------------------------------------------------------

    /// Registers a dump scrubber (the anti-forensics attack).
    pub fn register_dump_scrubber(&mut self, scrub: DumpScrub) {
        self.dump_scrubbers.push(scrub);
    }

    /// The registered dump scrubbers.
    pub fn dump_scrubbers(&self) -> &[DumpScrub] {
        &self.dump_scrubbers
    }

    /// Induces a blue screen: serializes kernel memory to a dump, applying
    /// any registered scrubbers first. The paper budgets 15–45 s of wall time
    /// for this on real hardware.
    pub fn crash_dump(&self) -> Vec<u8> {
        dump::write_dump(self)
    }

    pub(crate) fn apl_head(&self) -> Option<Pid> {
        self.apl_head
    }
}

// ---------------------------------------------------------------------
// JSON serialization (see `strider_support::json`, replacing the former
// serde derives)
// ---------------------------------------------------------------------

strider_support::impl_json!(struct DumpScrub { pids, module_names });
strider_support::impl_json!(struct Kernel { processes, threads, apl_head, apl_tail, drivers, ssdt, filter_stack, registry_callbacks, csrss_handles, dump_scrubbers, next_pid, next_tid, now, rr_cursor });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_processes_are_linked_and_threaded() {
        let k = Kernel::with_base_processes();
        assert_eq!(k.active_process_list().len(), 9);
        assert_eq!(k.processes_via_threads().len(), 9);
        // csrss tracks everything except System and itself.
        assert_eq!(k.processes_via_handles().len(), 7);
    }

    #[test]
    fn spawn_assigns_windows_style_pids() {
        let mut k = Kernel::new();
        let a = k
            .spawn("a.exe", "C:\\a.exe".parse().unwrap(), None)
            .unwrap();
        let b = k
            .spawn("b.exe", "C:\\b.exe".parse().unwrap(), Some(a))
            .unwrap();
        assert_eq!(a, Pid(4));
        assert_eq!(b, Pid(8));
        assert_eq!(k.process(b).unwrap().parent, Some(a));
    }

    #[test]
    fn spawn_with_missing_parent_fails() {
        let mut k = Kernel::new();
        assert!(matches!(
            k.spawn("x.exe", "C:\\x.exe".parse().unwrap(), Some(Pid(999))),
            Err(KernelError::NoSuchProcess(_))
        ));
    }

    #[test]
    fn dkom_unlink_hides_from_apl_but_not_threads_or_handles() {
        let mut k = Kernel::with_base_processes();
        let pid = k
            .spawn("hxdef100.exe", "C:\\hxdef100.exe".parse().unwrap(), None)
            .unwrap();
        k.dkom_unlink(pid).unwrap();
        assert!(!k.active_process_list().contains(&pid));
        assert!(k.processes_via_threads().contains(&pid));
        assert!(k.processes_via_handles().contains(&pid));
        assert!(k.process(pid).is_some(), "object still alive");
    }

    #[test]
    fn dkom_unlink_head_and_tail_edges() {
        let mut k = Kernel::new();
        let a = k.spawn("a", "C:\\a".parse().unwrap(), None).unwrap();
        let b = k.spawn("b", "C:\\b".parse().unwrap(), None).unwrap();
        let c = k.spawn("c", "C:\\c".parse().unwrap(), None).unwrap();
        k.dkom_unlink(a).unwrap(); // head
        assert_eq!(k.active_process_list(), vec![b, c]);
        k.dkom_unlink(c).unwrap(); // tail
        assert_eq!(k.active_process_list(), vec![b]);
        k.dkom_unlink(b).unwrap(); // only element
        assert!(k.active_process_list().is_empty());
        // Relink restores.
        k.dkom_relink(a).unwrap();
        k.dkom_relink(b).unwrap();
        assert_eq!(k.active_process_list(), vec![a, b]);
    }

    #[test]
    fn double_unlink_and_double_relink_fail() {
        let mut k = Kernel::new();
        let a = k.spawn("a", "C:\\a".parse().unwrap(), None).unwrap();
        k.dkom_unlink(a).unwrap();
        assert!(matches!(k.dkom_unlink(a), Err(KernelError::NotLinked(_))));
        k.dkom_relink(a).unwrap();
        assert!(matches!(
            k.dkom_relink(a),
            Err(KernelError::AlreadyLinked(_))
        ));
    }

    #[test]
    fn hidden_process_still_gets_scheduled() {
        let mut k = Kernel::new();
        let hidden = k.spawn("ghost", "C:\\g".parse().unwrap(), None).unwrap();
        k.dkom_unlink(hidden).unwrap();
        let mut scheduled = false;
        for _ in 0..4 {
            if let Some((pid, _)) = k.schedule_next() {
                if pid == hidden {
                    scheduled = true;
                }
            }
        }
        assert!(scheduled, "unlinked process must remain schedulable");
    }

    #[test]
    fn kill_cleans_everything() {
        let mut k = Kernel::with_base_processes();
        let pid = k
            .spawn("t.exe", "C:\\t.exe".parse().unwrap(), None)
            .unwrap();
        k.kill(pid).unwrap();
        assert!(k.process(pid).is_none());
        assert!(!k.active_process_list().contains(&pid));
        assert!(!k.processes_via_threads().contains(&pid));
        assert!(!k.processes_via_handles().contains(&pid));
    }

    #[test]
    fn kill_works_on_dkom_hidden_process() {
        let mut k = Kernel::new();
        let pid = k.spawn("g", "C:\\g".parse().unwrap(), None).unwrap();
        k.dkom_unlink(pid).unwrap();
        k.kill(pid).unwrap();
        assert!(k.process(pid).is_none());
    }

    #[test]
    fn module_load_and_peb_blanking() {
        let mut k = Kernel::new();
        let pid = k
            .spawn("e.exe", "C:\\e.exe".parse().unwrap(), None)
            .unwrap();
        k.load_module(pid, "vanquish.dll", "C:\\windows\\vanquish.dll")
            .unwrap();
        k.blank_peb_module_path(pid, "vanquish.dll").unwrap();
        let p = k.process(pid).unwrap();
        assert!(p.peb_module(&NtString::from("vanquish.dll")).is_none());
        assert!(p.kernel_module(&NtString::from("vanquish.dll")).is_some());
        assert!(matches!(
            k.blank_peb_module_path(pid, "nope.dll"),
            Err(KernelError::NoSuchModule { .. })
        ));
    }

    #[test]
    fn drivers_load_and_unload() {
        let mut k = Kernel::new();
        k.load_driver(
            "hxdefdrv",
            "C:\\windows\\system32\\drivers\\hxdefdrv.sys"
                .parse()
                .unwrap(),
        );
        assert_eq!(k.drivers().len(), 1);
        k.unload_driver("HXDEFDRV").unwrap();
        assert!(k.drivers().is_empty());
        assert!(matches!(
            k.unload_driver("hxdefdrv"),
            Err(KernelError::NoSuchDriver(_))
        ));
    }

    #[test]
    fn filter_stack_and_callbacks() {
        let mut k = Kernel::new();
        k.push_filter(1);
        k.push_filter(2);
        assert_eq!(k.filter_stack(), &[1, 2]);
        k.remove_filter(1);
        assert_eq!(k.filter_stack(), &[2]);
        k.register_registry_callback(9);
        assert_eq!(k.registry_callbacks(), &[9]);
        k.remove_registry_callback(9);
        assert!(k.registry_callbacks().is_empty());
    }

    #[test]
    fn find_by_name_is_case_insensitive() {
        let k = Kernel::with_base_processes();
        assert_eq!(k.find_by_name("EXPLORER.EXE").len(), 1);
        assert_eq!(k.find_by_name("svchost.exe").len(), 2);
    }
}
