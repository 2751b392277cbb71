//! A simulated NT kernel: the volatile-state substrate GhostBuster scans.
//!
//! The paper's process/module detection (Section 4) rests on the observation
//! that the kernel keeps *several* data structures describing the same
//! processes, and ghostware rarely doctors all of them consistently:
//!
//! * the **Active Process List** — an intrusive doubly-linked list of
//!   process objects, the "truth approximation" behind
//!   `NtQuerySystemInformation`. The FU rootkit's Direct Kernel Object
//!   Manipulation (DKOM) unlinks a process from this list while its threads
//!   remain schedulable;
//! * the **scheduler thread table** — every schedulable thread names its
//!   owning process, so traversing it re-discovers DKOM-hidden processes
//!   (GhostBuster's *advanced mode*);
//! * the **subsystem handle table** — `csrss.exe` holds a handle to every
//!   Win32 process, an alternative advanced-mode truth source;
//! * per-process **PEB loader module lists** (user-writable — Vanquish blanks
//!   its DLL's pathname there) versus the kernel's own mapped-image list.
//!
//! [`Kernel`] maintains all of these with real link/unlink mechanics, plus
//! the Service Dispatch Table ([`Ssdt`]) and filesystem filter-driver stack
//! that the interception-based hiders manipulate, and can serialize itself
//! to a [`MemoryDump`] — the paper's induced-blue-screen outside-the-box
//! scan — including the "future ghostware scrubs the dump" attack.
//!
//! # Examples
//!
//! ```
//! use strider_kernel::Kernel;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut k = Kernel::with_base_processes();
//! let pid = k.spawn("hxdef100.exe", "C:\\windows\\hxdef100.exe".parse()?, None)?;
//! assert!(k.active_process_list().contains(&pid));
//! k.dkom_unlink(pid)?; // FU-style hiding
//! assert!(!k.active_process_list().contains(&pid));
//! assert!(k.processes_via_threads().contains(&pid)); // advanced mode truth
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dump;
mod kernel;
mod process;
mod ssdt;

pub use dump::{DumpError, MemoryDump};
pub use kernel::{DumpScrub, Kernel, KernelError};
pub use process::{Driver, Eprocess, Ethread, ModuleEntry, ThreadState};
pub use ssdt::{Ssdt, SsdtEntry, SyscallId};
pub use strider_support::fault::{Defect, DefectKind, Salvaged};

/// Convenient re-exports.
pub mod prelude {
    pub use crate::{
        Driver, DumpError, DumpScrub, Eprocess, Ethread, Kernel, KernelError, MemoryDump,
        ModuleEntry, Ssdt, SyscallId, ThreadState,
    };
}
