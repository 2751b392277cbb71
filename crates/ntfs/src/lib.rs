//! A simulated NTFS volume with a binary Master File Table.
//!
//! The Master File Table (MFT) is "the core of the NTFS volume structure"
//! (paper, Section 2): one fixed-format record per file, carrying the file's
//! standard information, its name plus a reference to its *parent* record,
//! and its data streams. GhostBuster's low-level file scan reads the MFT
//! directly, bypassing every API layer a ghostware program could hook.
//!
//! This crate provides both halves of that arrangement:
//!
//! * [`NtfsVolume`] — the live volume the simulated OS mutates through
//!   ordinary operations ([`NtfsVolume::create_file`],
//!   [`NtfsVolume::list_children`], …). Directory lookups go through each
//!   directory's index, exactly like the real driver.
//! * [`VolumeImage`] — the raw on-disk bytes ([`NtfsVolume::to_image`]) and an
//!   **independent parser** ([`VolumeImage::parse`]) that rebuilds the file
//!   tree *solely from parent references in MFT records*, the way real
//!   forensic MFT scanners do. The serializer intentionally does not emit the
//!   directory indexes, so the two views share no code path.
//!
//! NTFS itself is permissive about names: trailing dots and spaces, reserved
//! DOS device names, deep paths beyond `MAX_PATH` — all are storable here and
//! all become invisible to the Win32 layer (see `strider-winapi`), which is
//! one of the file-hiding tricks the paper catalogs.
//!
//! # Examples
//!
//! ```
//! use strider_ntfs::NtfsVolume;
//! use strider_nt_core::NtPath;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut vol = NtfsVolume::new("C:");
//! vol.mkdir_p(&"C:\\windows\\system32".parse()?)?;
//! vol.create_file(&"C:\\windows\\system32\\hxdef100.exe".parse()?, b"MZ...")?;
//!
//! // Low-level view: parse the raw image, reconstruct paths from parents.
//! let image = vol.to_image();
//! let raw = strider_ntfs::VolumeImage::parse(&image)?;
//! let paths: Vec<String> = raw.file_paths().iter().map(|(p, _)| p.to_string()).collect();
//! assert!(paths.contains(&"C:\\windows\\system32\\hxdef100.exe".to_string()));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod image;
mod record;
mod volume;

pub use image::{ImageError, Placement, RawFileEntry, VolumeImage};
pub use record::{DataStream, FileAttributes, FileRecord, StandardInformation};
pub use strider_support::fault::{Defect, DefectKind, Salvaged};
pub use volume::{NtfsError, NtfsVolume};

/// Convenient re-exports.
pub mod prelude {
    pub use crate::{FileAttributes, FileRecord, NtfsError, NtfsVolume, RawFileEntry, VolumeImage};
}
