//! Queries and result rows flowing through the layered API chain.

use std::fmt;
use std::sync::Arc;
use strider_nt_core::{NtPath, NtString, Pid};
use strider_ntfs::FileAttributes;

/// The kind of enumeration a query performs; hooks select on this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryKind {
    /// File/directory enumeration (`FindFirstFile`/`NtQueryDirectoryFile`).
    Files,
    /// Registry subkey enumeration (`RegEnumKeyEx`/`NtEnumerateKey`).
    RegKeys,
    /// Registry value enumeration (`RegEnumValue`/`NtEnumerateValueKey`).
    RegValues,
    /// Process enumeration (`NtQuerySystemInformation`).
    Processes,
    /// Per-process module enumeration (`Module32First`/`NtQueryInformationProcess`).
    Modules,
}

impl fmt::Display for QueryKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            QueryKind::Files => "files",
            QueryKind::RegKeys => "registry keys",
            QueryKind::RegValues => "registry values",
            QueryKind::Processes => "processes",
            QueryKind::Modules => "modules",
        };
        f.write_str(s)
    }
}

/// One enumeration request entering the API chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Query {
    /// Enumerate one directory (non-recursive; scanners recurse by issuing
    /// one query per directory, exactly like `dir /s`).
    DirectoryEnum {
        /// The directory to list.
        path: NtPath,
    },
    /// Enumerate direct subkeys of a Registry key.
    RegEnumKeys {
        /// The key whose children to list.
        key: NtPath,
    },
    /// Enumerate values of a Registry key.
    RegEnumValues {
        /// The key whose values to list.
        key: NtPath,
    },
    /// Enumerate processes.
    ProcessList,
    /// Enumerate modules loaded in a process.
    ModuleList {
        /// The target process.
        pid: Pid,
    },
}

impl Query {
    /// The query's kind, used for hook selection.
    pub fn kind(&self) -> QueryKind {
        match self {
            Query::DirectoryEnum { .. } => QueryKind::Files,
            Query::RegEnumKeys { .. } => QueryKind::RegKeys,
            Query::RegEnumValues { .. } => QueryKind::RegValues,
            Query::ProcessList => QueryKind::Processes,
            Query::ModuleList { .. } => QueryKind::Modules,
        }
    }
}

/// A file or directory row.
///
/// Every row of one directory listing shares that directory through one
/// [`Arc`]: the chain copies a row's name, never its path. Hot callers
/// render a row from its parent's rendering plus the name
/// ([`NtString::render_under`]); [`FileRow::path`] builds the full path
/// for the cold ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileRow {
    /// Entry name within its directory.
    pub name: NtString,
    /// The listed directory, shared by every row of the listing.
    pub parent: Arc<NtPath>,
    /// Whether the entry is a directory.
    pub is_dir: bool,
    /// DOS attributes.
    pub attributes: FileAttributes,
    /// Total data size in bytes.
    pub size: u64,
}

impl FileRow {
    /// The entry's full path, joined on demand.
    pub fn path(&self) -> NtPath {
        self.parent.join(self.name.clone())
    }
}

/// A value derived from a listing's directory — its rendering, its Win32
/// length — computed once for the rows that share that directory and
/// again only when a row with another parent comes by.
#[derive(Debug)]
pub struct PerParent<T>(Option<(Arc<NtPath>, T)>);

impl<T> Default for PerParent<T> {
    fn default() -> Self {
        PerParent(None)
    }
}

impl<T> PerParent<T> {
    /// The value for `row`'s parent, derived from it on a change of parent.
    pub fn get(&mut self, row: &FileRow, derive: impl FnOnce(&NtPath) -> T) -> &T {
        if self
            .0
            .as_ref()
            .is_some_and(|(dir, _)| !Arc::ptr_eq(dir, &row.parent))
        {
            self.0 = None;
        }
        &self
            .0
            .get_or_insert_with(|| (Arc::clone(&row.parent), derive(&row.parent)))
            .1
    }
}

/// A Registry subkey row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegKeyRow {
    /// Subkey name.
    pub name: NtString,
    /// Full key path.
    pub path: NtPath,
}

/// A Registry value row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegValueRow {
    /// Value name.
    pub name: NtString,
    /// The key the value lives on.
    pub key: NtPath,
    /// Rendered data.
    pub data: String,
}

/// A process row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessRow {
    /// Process id.
    pub pid: Pid,
    /// Image file name.
    pub image_name: NtString,
    /// Full image path rendered as text.
    pub image_path: String,
}

/// A module row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleRow {
    /// Owning process.
    pub pid: Pid,
    /// Module name.
    pub name: NtString,
    /// Module path.
    pub path: NtString,
    /// Load base.
    pub base: u64,
}

/// One result row of any query kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Row {
    /// A file/directory entry.
    File(FileRow),
    /// A Registry subkey.
    RegKey(RegKeyRow),
    /// A Registry value.
    RegValue(RegValueRow),
    /// A process.
    Process(ProcessRow),
    /// A module.
    Module(ModuleRow),
}

impl Row {
    /// The entry's display name (used by filters matching on names).
    pub fn name(&self) -> &NtString {
        match self {
            Row::File(r) => &r.name,
            Row::RegKey(r) => &r.name,
            Row::RegValue(r) => &r.name,
            Row::Process(r) => &r.image_name,
            Row::Module(r) => &r.name,
        }
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Row::File(r) => write!(f, "file {}", r.path()),
            Row::RegKey(r) => write!(f, "key {}", r.path),
            Row::RegValue(r) => write!(f, "value {}\\{}", r.key, r.name),
            Row::Process(r) => write!(f, "process {} {}", r.pid, r.image_name),
            Row::Module(r) => write!(f, "module {} in {}", r.name, r.pid),
        }
    }
}

/// The identity of the calling process, carried through the chain so hooks
/// can scope their behaviour ("hide from Task Manager only", "hide from
/// everyone except the scanner").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallContext {
    /// The calling process.
    pub pid: Pid,
    /// The calling process's image name, lower-cased for matching.
    pub image_name: String,
}

impl CallContext {
    /// Creates a context.
    pub fn new(pid: Pid, image_name: &str) -> Self {
        Self {
            pid,
            image_name: image_name.to_ascii_lowercase(),
        }
    }
}

// ---------------------------------------------------------------------
// JSON serialization (see `strider_support::json`, replacing the former
// serde derives)
// ---------------------------------------------------------------------

strider_support::impl_json!(
    enum QueryKind {
        Files,
        RegKeys,
        RegValues,
        Processes,
        Modules,
    }
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_kinds() {
        assert_eq!(
            Query::DirectoryEnum {
                path: "C:\\x".parse().unwrap()
            }
            .kind(),
            QueryKind::Files
        );
        assert_eq!(Query::ProcessList.kind(), QueryKind::Processes);
        assert_eq!(Query::ModuleList { pid: Pid(4) }.kind(), QueryKind::Modules);
        assert_eq!(QueryKind::Files.to_string(), "files");
    }

    #[test]
    fn call_context_lowercases() {
        let ctx = CallContext::new(Pid(4), "GhostBuster.EXE");
        assert_eq!(ctx.image_name, "ghostbuster.exe");
    }
}
