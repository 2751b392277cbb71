//! MFT file records and their attributes.

use std::fmt;
use strider_nt_core::{FileRecordNumber, NtString, Tick};

/// DOS-style file attribute flags stored in a record's standard information.
///
/// A `u32` newtype mirroring the on-disk `FILE_ATTRIBUTE_*` bits. Note that
/// [`FileAttributes::HIDDEN`] is the *benign* attribute honored by plain
/// `dir`; ghostware hiding is interception, not this flag, and GhostBuster's
/// high-level scan enumerates hidden-attribute files normally (`dir /a`).
///
/// # Examples
///
/// ```
/// use strider_ntfs::FileAttributes;
///
/// let a = FileAttributes::HIDDEN | FileAttributes::DIRECTORY;
/// assert!(a.contains(FileAttributes::HIDDEN));
/// assert!(!FileAttributes::NORMAL.contains(FileAttributes::HIDDEN));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct FileAttributes(pub u32);

impl FileAttributes {
    /// No attributes set.
    pub const NORMAL: FileAttributes = FileAttributes(0);
    /// `FILE_ATTRIBUTE_READONLY`.
    const READ_ONLY: FileAttributes = FileAttributes(0x0001);
    /// `FILE_ATTRIBUTE_HIDDEN` — skipped by plain `dir`, shown by `dir /a`.
    pub const HIDDEN: FileAttributes = FileAttributes(0x0002);
    /// `FILE_ATTRIBUTE_SYSTEM`.
    const SYSTEM: FileAttributes = FileAttributes(0x0004);
    /// `FILE_ATTRIBUTE_DIRECTORY`.
    pub const DIRECTORY: FileAttributes = FileAttributes(0x0010);

    /// Whether every bit of `other` is set in `self`.
    pub fn contains(self, other: FileAttributes) -> bool {
        self.0 & other.0 == other.0
    }

    /// Returns `self` with the bits of `other` added.
    fn with(self, other: FileAttributes) -> FileAttributes {
        FileAttributes(self.0 | other.0)
    }
}

impl std::ops::BitOr for FileAttributes {
    type Output = FileAttributes;

    fn bitor(self, rhs: FileAttributes) -> FileAttributes {
        self.with(rhs)
    }
}

impl fmt::Display for FileAttributes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts = Vec::new();
        for (bit, tag) in [
            (FileAttributes::READ_ONLY, "R"),
            (FileAttributes::HIDDEN, "H"),
            (FileAttributes::SYSTEM, "S"),
            (FileAttributes::DIRECTORY, "D"),
        ] {
            if self.contains(bit) {
                parts.push(tag);
            }
        }
        if parts.is_empty() {
            write!(f, "-")
        } else {
            write!(f, "{}", parts.concat())
        }
    }
}

/// The `$STANDARD_INFORMATION` attribute: timestamps and attribute flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StandardInformation {
    /// Creation time.
    pub created: Tick,
    /// Last modification time.
    pub modified: Tick,
    /// DOS attribute flags.
    pub attributes: FileAttributes,
}

impl StandardInformation {
    /// Standard information for an object created at `now`.
    pub fn at(now: Tick, attributes: FileAttributes) -> Self {
        Self {
            created: now,
            modified: now,
            attributes,
        }
    }
}

/// A `$DATA` attribute: the unnamed main stream or a named alternate data
/// stream (ADS).
///
/// Alternate data streams are one of the "beyond ghostware" hiding places the
/// paper's conclusion lists; the low-level scan reports them so the detector
/// can flag streams the high-level enumeration never shows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataStream {
    /// `None` for the unnamed main stream, `Some(name)` for an ADS.
    pub name: Option<NtString>,
    /// Stream contents.
    pub data: Vec<u8>,
}

impl DataStream {
    /// The unnamed main data stream.
    pub fn unnamed(data: impl Into<Vec<u8>>) -> Self {
        Self {
            name: None,
            data: data.into(),
        }
    }

    /// A named alternate data stream.
    pub fn named(name: impl Into<NtString>, data: impl Into<Vec<u8>>) -> Self {
        Self {
            name: Some(name.into()),
            data: data.into(),
        }
    }

    /// Stream length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// One Master File Table record: a file or directory.
///
/// Fields follow the real MFT record layout in spirit: an in-use flag with a
/// sequence number (records are reused), standard information, a file-name
/// attribute holding the name *and the parent directory reference* — which is
/// what lets an offline parser rebuild the whole tree — and the data streams.
/// Directories additionally keep an index of children, used by the live
/// driver for lookups but deliberately **not** serialized to the raw image.
#[derive(Debug, Clone, PartialEq)]
pub struct FileRecord {
    /// This record's number (its index in the MFT).
    pub number: FileRecordNumber,
    /// Incremented every time the record slot is reused.
    pub sequence: u16,
    /// Standard information attribute.
    pub std_info: StandardInformation,
    /// File name and parent reference. The root directory has itself as
    /// parent, mirroring the real root's self-reference.
    pub name: NtString,
    /// Parent directory record number.
    pub parent: FileRecordNumber,
    /// Data streams; empty for directories.
    pub streams: Vec<DataStream>,
    /// Child record numbers, present only on directories (live index).
    pub children: Vec<FileRecordNumber>,
}

impl FileRecord {
    /// Whether this record describes a directory.
    pub fn is_directory(&self) -> bool {
        self.std_info.attributes.contains(FileAttributes::DIRECTORY)
    }

    /// The unnamed main stream's contents, if present.
    pub fn main_data(&self) -> Option<&[u8]> {
        self.streams
            .iter()
            .find(|s| s.name.is_none())
            .map(|s| s.data.as_slice())
    }

    /// Total bytes across all streams.
    pub fn total_stream_bytes(&self) -> u64 {
        self.streams.iter().map(|s| s.len() as u64).sum()
    }

    /// Names of alternate data streams on this record.
    pub fn ads_names(&self) -> Vec<&NtString> {
        self.streams
            .iter()
            .filter_map(|s| s.name.as_ref())
            .collect()
    }
}

// ---------------------------------------------------------------------
// JSON serialization (see `strider_support::json`, replacing the former
// serde derives)
// ---------------------------------------------------------------------

strider_support::impl_json!(newtype FileAttributes);
strider_support::impl_json!(struct StandardInformation { created, modified, attributes });
strider_support::impl_json!(struct DataStream { name, data });
strider_support::impl_json!(struct FileRecord { number, sequence, std_info, name, parent, streams, children });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribute_flags() {
        let a = FileAttributes::HIDDEN | FileAttributes::SYSTEM;
        assert!(a.contains(FileAttributes::HIDDEN));
        assert!(a.contains(FileAttributes::SYSTEM));
        assert!(!a.contains(FileAttributes::DIRECTORY));
        assert_eq!(a.to_string(), "HS");
        assert_eq!(FileAttributes::NORMAL.to_string(), "-");
    }

    #[test]
    fn streams() {
        let r = FileRecord {
            number: FileRecordNumber(7),
            sequence: 1,
            std_info: StandardInformation::at(Tick(3), FileAttributes::NORMAL),
            name: NtString::from("a.txt"),
            parent: FileRecordNumber(0),
            streams: vec![
                DataStream::unnamed(b"hello".to_vec()),
                DataStream::named("secret", b"ads!".to_vec()),
            ],
            children: Vec::new(),
        };
        assert_eq!(r.main_data(), Some(&b"hello"[..]));
        assert_eq!(r.total_stream_bytes(), 9);
        assert_eq!(r.ads_names().len(), 1);
        assert!(!r.is_directory());
    }

    #[test]
    fn empty_stream_reports_empty() {
        let s = DataStream::unnamed(Vec::new());
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }
}
