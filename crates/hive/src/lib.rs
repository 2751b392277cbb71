//! A simulated Windows Registry: hives, cells, values, and the ASEP catalog.
//!
//! The Windows Registry is a centralized, hierarchical store of name–value
//! pairs, composed of several *hives*, each backed by a file with a
//! well-defined binary schema (paper, Section 3). GhostBuster's low-level
//! Registry scan copies and parses the raw hive files directly, bypassing the
//! `RegEnumValue`/`NtEnumerateKey` APIs a ghostware program can hook.
//!
//! This crate provides:
//!
//! * [`Key`]/[`Value`] — the live configuration-manager tree.
//! * [`Hive`] — a mounted tree with a backing-file path, serializable to a
//!   cell-based binary format ([`Hive::to_bytes`]) modeled on the real `regf`
//!   layout (allocated cells holding key nodes, value records, subkey lists,
//!   and data).
//! * [`RawHive`] — the **independent parser** used by the low-level and
//!   outside-the-box scans. It detects and *reports* value records whose
//!   declared data length disagrees with the data cell — the corruption that
//!   produced the paper's single Registry false positive.
//! * [`Registry`] — the full forest of mounted hives with path resolution.
//! * [`asep`] — the catalog of Auto-Start Extensibility Points the paper's
//!   Gatekeeper work identified; ghostware hides its ASEP hooks to survive
//!   reboots undetected.
//!
//! Registry names are counted UTF-16 [`NtString`]s and may embed `NUL`s —
//! entries created that way through the native API are invisible to
//! Win32-level tools, the second Registry-hiding trick of Section 3.
//!
//! [`NtString`]: strider_nt_core::NtString
//!
//! # Examples
//!
//! ```
//! use strider_hive::{Registry, ValueData};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut reg = Registry::standard();
//! let run = "HKLM\\SOFTWARE\\Microsoft\\Windows\\CurrentVersion\\Run".parse()?;
//! reg.create_key(&run)?;
//! reg.set_value(&run, "updater", ValueData::sz("C:\\windows\\updater.exe"))?;
//!
//! // Low-level view: serialize the hive, re-parse the raw bytes.
//! let (hive, _) = reg.resolve(&run).unwrap();
//! let raw = strider_hive::RawHive::parse(&hive.to_bytes())?;
//! assert!(raw.all_values().iter().any(|(_, v)| v.name.to_win32_lossy() == "updater"));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asep;
mod format;
mod key;
mod registry;

pub use format::{HiveFormatError, RawHive, RawKey, RawValue};
pub use key::{Key, Value, ValueData};
pub use registry::{Hive, Registry, RegistryError};
pub use strider_support::fault::{Defect, DefectKind, Salvaged};

/// Convenient re-exports.
pub mod prelude {
    pub use crate::asep::{self, AsepHook, AsepKind, AsepLocation, KeyView, ViewedValue};
    pub use crate::{
        Hive, HiveFormatError, Key, RawHive, RawKey, RawValue, Registry, RegistryError, Value,
        ValueData,
    };
}
