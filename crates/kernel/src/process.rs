//! Kernel object types: processes, threads, modules, drivers.

use std::fmt;
use strider_nt_core::{NtPath, NtString, Pid, Tick, Tid};

/// One entry in a module list (a loaded DLL or EXE image).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleEntry {
    /// Load base address.
    pub base: u64,
    /// Module file name (`vanquish.dll`).
    pub name: NtString,
    /// Full image path. In the *PEB* copy this is user-writable: Vanquish
    /// blanks it to hide from `Module32First/Next`-style enumeration.
    pub path: NtString,
}

impl ModuleEntry {
    /// Creates a module entry.
    pub fn new(base: u64, name: impl Into<NtString>, path: impl Into<NtString>) -> Self {
        Self {
            base,
            name: name.into(),
            path: path.into(),
        }
    }
}

impl fmt::Display for ModuleEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x} {}", self.base, self.name)
    }
}

/// Scheduler state of a thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadState {
    /// Runnable, waiting for a CPU.
    Ready,
    /// Currently on a CPU.
    Running,
    /// Blocked.
    Waiting,
}

/// A kernel thread object. The scheduler's table of these is the
/// advanced-mode truth source: a DKOM-hidden process still owns schedulable
/// threads, each of which names its owner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ethread {
    /// Thread id.
    pub tid: Tid,
    /// Owning process.
    pub owner: Pid,
    /// Scheduler state.
    pub state: ThreadState,
}

/// A kernel process object (EPROCESS).
///
/// The `apl_*` links implement the intrusive doubly-linked Active Process
/// List. DKOM unlinking rewires the neighbours' links and clears `in_apl`
/// while the object itself — and its threads — stay fully alive.
#[derive(Debug, Clone, PartialEq)]
pub struct Eprocess {
    /// Process id.
    pub pid: Pid,
    /// Image file name (`hxdef100.exe`).
    pub image_name: NtString,
    /// Full image path.
    pub image_path: NtPath,
    /// Parent process, if any.
    pub parent: Option<Pid>,
    /// Creation time.
    pub created: Tick,
    /// User-mode loader (PEB) module list — forgeable by the process itself.
    pub peb_modules: Vec<ModuleEntry>,
    /// The kernel's own mapped-image list — the module truth.
    pub kernel_modules: Vec<ModuleEntry>,
    /// Threads owned by this process.
    pub threads: Vec<Tid>,
    /// Next process in the Active Process List.
    pub apl_next: Option<Pid>,
    /// Previous process in the Active Process List.
    pub apl_prev: Option<Pid>,
    /// Whether the object is currently linked into the APL.
    pub in_apl: bool,
}

impl Eprocess {
    /// Finds a PEB module by case-insensitive name.
    pub fn peb_module(&self, name: &NtString) -> Option<&ModuleEntry> {
        self.peb_modules
            .iter()
            .find(|m| m.name.eq_ignore_case(name))
    }

    /// Finds a kernel-truth module by case-insensitive name.
    pub fn kernel_module(&self, name: &NtString) -> Option<&ModuleEntry> {
        self.kernel_modules
            .iter()
            .find(|m| m.name.eq_ignore_case(name))
    }
}

impl fmt::Display for Eprocess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.pid, self.image_name)
    }
}

/// Walks an Active Process List from `head` by following the forward
/// links of the processes `lookup` finds among `count` objects, live or
/// dumped. Corrupted links stop the walk after `count + 1` hops rather
/// than loop forever.
pub(crate) fn apl_walk<'a>(
    head: Option<Pid>,
    count: usize,
    lookup: impl Fn(Pid) -> Option<&'a Eprocess>,
) -> Vec<Pid> {
    let mut out = Vec::new();
    let mut cur = head;
    while let Some(pid) = cur {
        out.push(pid);
        if out.len() > count + 1 {
            break;
        }
        cur = lookup(pid).and_then(|p| p.apl_next);
    }
    out
}

/// The deduplicated owners of a thread table, live or dumped — the
/// advanced-mode sweep. DKOM-hidden processes reappear here.
pub(crate) fn thread_owners<'a>(threads: impl Iterator<Item = &'a Ethread>) -> Vec<Pid> {
    let mut pids: Vec<Pid> = threads.map(|t| t.owner).collect();
    pids.sort();
    pids.dedup();
    pids
}

/// A loaded kernel driver.
#[derive(Debug, Clone, PartialEq)]
pub struct Driver {
    /// Driver name (`hxdefdrv`).
    pub name: NtString,
    /// Image path (`C:\windows\system32\drivers\hxdefdrv.sys`).
    pub image_path: NtPath,
    /// Load time.
    pub loaded_at: Tick,
}

impl fmt::Display for Driver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.name, self.image_path)
    }
}

// ---------------------------------------------------------------------
// JSON serialization (see `strider_support::json`, replacing the former
// serde derives)
// ---------------------------------------------------------------------

strider_support::impl_json!(struct ModuleEntry { base, name, path });
strider_support::impl_json!(
    enum ThreadState {
        Ready,
        Running,
        Waiting,
    }
);
strider_support::impl_json!(struct Ethread { tid, owner, state });
strider_support::impl_json!(struct Eprocess { pid, image_name, image_path, parent, created, peb_modules, kernel_modules, threads, apl_next, apl_prev, in_apl });
strider_support::impl_json!(struct Driver { name, image_path, loaded_at });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn module_lookup_is_case_insensitive() {
        let p = Eprocess {
            pid: Pid(8),
            image_name: NtString::from("x.exe"),
            image_path: "C:\\x.exe".parse().unwrap(),
            parent: None,
            created: Tick::ZERO,
            peb_modules: vec![ModuleEntry::new(
                0x1000,
                "Vanquish.DLL",
                "C:\\w\\vanquish.dll",
            )],
            kernel_modules: Vec::new(),
            threads: Vec::new(),
            apl_next: None,
            apl_prev: None,
            in_apl: true,
        };
        assert!(p.peb_module(&NtString::from("vanquish.dll")).is_some());
        assert!(p.kernel_module(&NtString::from("vanquish.dll")).is_none());
    }

    #[test]
    fn display_forms() {
        let m = ModuleEntry::new(0x1000, "a.dll", "C:\\a.dll");
        assert_eq!(m.to_string(), "0x1000 a.dll");
    }
}
