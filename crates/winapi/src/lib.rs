//! The layered, hookable Windows query-API chain and the assembled
//! simulated [`Machine`].
//!
//! Between a user-mode file-query program and the physical disk "there exist
//! many layers where ghostware programs can insert themselves to intercept
//! and filter resource queries" (paper, Section 2, Figure 2). This crate
//! models that chain explicitly:
//!
//! ```text
//!  caller ──IAT──▶ Win32 API code ──▶ NtDll code ──▶ SSDT ──▶ filter
//!                (Kernel32/Advapi32)                          drivers /
//!                                                             registry
//!                                                             callbacks
//!                                                    ──▶ NTFS volume /
//!                                                        hives / kernel
//! ```
//!
//! Every arrow is a [`hook point`](Level); each of the paper's ghostware
//! techniques is an insertion at one of them. Queries enter either through
//! the Win32 surface ([`ChainEntry::Win32`]) — which additionally enforces
//! Win32 naming restrictions on the way out — or through the native APIs
//! ([`ChainEntry::Native`]), which start below the IAT and Win32-code
//! levels.
//!
//! The [`Machine`] owns the chain plus the three substrates (NTFS volume,
//! Registry, kernel), the always-running background services, and the
//! capture points the GhostBuster scanners use.
//!
//! # Examples
//!
//! Hiding a file with an NtDll detour and observing the lie:
//!
//! ```
//! use std::sync::Arc;
//! use strider_winapi::{Machine, Query, QueryKind, ChainEntry, HookScope};
//! use strider_winapi::{CallContext, Level, Row};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut m = Machine::with_base_system("demo")?;
//! m.volume_mut().create_file(&"C:\\windows\\hxdef100.exe".parse()?, b"MZ")?;
//! m.install_ntdll_hook(
//!     "hxdef",
//!     vec![QueryKind::Files],
//!     HookScope::All,
//!     // Edit the rows in place; report whether anything changed.
//!     Arc::new(|_: &CallContext, _: &Query, rows: &mut Vec<Row>| {
//!         let before = rows.len();
//!         rows.retain(|r| !r.name().to_win32_lossy().starts_with("hxdef"));
//!         rows.len() != before
//!     }),
//! );
//! let ctx = m.context_for_name("explorer.exe").unwrap();
//! let query = Query::DirectoryEnum { path: "C:\\windows".parse()? };
//! let (rows, trace) = m.query_traced(&ctx, &query, ChainEntry::Win32)?;
//! assert!(!rows.iter().any(|r| r.name().to_win32_lossy().starts_with("hxdef")));
//! assert_eq!(trace.first_diverted_level(), Some(Level::NtdllCode));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hooks;
mod machine;
mod query;
mod tap;
mod trace;

pub use hooks::{
    syscall_for, Hook, HookId, HookRegistry, HookScope, HookStyle, Level, QueryFilter,
};
pub use machine::{
    ChainEntry, DiskImage, FaultInjector, HiveCopyTamper, Machine, RawImageTamper, TickTask,
};
pub use query::{
    CallContext, FileRow, ModuleRow, PerParent, ProcessRow, Query, QueryKind, RegKeyRow,
    RegValueRow, Row,
};
pub use strider_support::fault::FaultPlan;
pub use tap::{RawSource, ScanTap};
pub use trace::{ChainStats, ChainTrace, LevelHop};

/// Convenient re-exports.
pub mod prelude {
    pub use crate::{
        CallContext, ChainEntry, ChainStats, ChainTrace, DiskImage, FaultInjector, FaultPlan,
        FileRow, HiveCopyTamper, Hook, HookId, HookRegistry, HookScope, HookStyle, Level, LevelHop,
        Machine, ModuleRow, ProcessRow, Query, QueryFilter, QueryKind, RawImageTamper, RawSource,
        RegKeyRow, RegValueRow, Row, ScanTap, TickTask,
    };
}
