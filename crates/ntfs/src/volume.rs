//! The live NTFS volume.

use crate::record::{DataStream, FileAttributes, FileRecord, StandardInformation};
use std::collections::HashMap;
use std::fmt;
use strider_nt_core::{FileRecordNumber, NtPath, NtString, Tick};

/// Error type for live-volume operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NtfsError {
    /// The path's parent chain does not exist.
    ParentNotFound(NtPath),
    /// No object exists at the path.
    NotFound(NtPath),
    /// An object already exists at the path.
    AlreadyExists(NtPath),
    /// The path names a file where a directory was required.
    NotADirectory(NtPath),
    /// The path names a directory where a file was required.
    IsADirectory(NtPath),
    /// The directory is not empty and the operation required it to be.
    DirectoryNotEmpty(NtPath),
    /// The name is invalid at the NTFS layer (empty, or contains `\\`/NUL).
    InvalidName(NtString),
    /// The path root does not match this volume's label.
    WrongVolume {
        /// The volume's label.
        expected: String,
        /// The root the path carried.
        got: String,
    },
}

impl fmt::Display for NtfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NtfsError::ParentNotFound(p) => write!(f, "parent not found: {p}"),
            NtfsError::NotFound(p) => write!(f, "not found: {p}"),
            NtfsError::AlreadyExists(p) => write!(f, "already exists: {p}"),
            NtfsError::NotADirectory(p) => write!(f, "not a directory: {p}"),
            NtfsError::IsADirectory(p) => write!(f, "is a directory: {p}"),
            NtfsError::DirectoryNotEmpty(p) => write!(f, "directory not empty: {p}"),
            NtfsError::InvalidName(n) => write!(f, "invalid ntfs name: {n}"),
            NtfsError::WrongVolume { expected, got } => {
                write!(f, "wrong volume: expected {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for NtfsError {}

/// A live, mutable NTFS-style volume.
///
/// Record 0 is the root directory (self-parented, as on real NTFS where the
/// root's file-name attribute references itself). Records live in a slab with
/// a free list; deleting a file frees its slot and bumps the slot's sequence
/// number on reuse, so stale references are detectable — mirroring real MFT
/// record reuse.
///
/// The volume enforces only *NTFS-level* name rules (non-empty, no `\\`, no
/// NUL). Win32-level restrictions (trailing dots, `MAX_PATH`, reserved device
/// names) are deliberately **not** enforced here; they belong to the Win32
/// layer in `strider-winapi`, and the asymmetry is a file-hiding vector.
///
/// # Examples
///
/// ```
/// use strider_ntfs::NtfsVolume;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut vol = NtfsVolume::new("C:");
/// vol.mkdir_p(&"C:\\temp".parse()?)?;
/// let n = vol.create_file(&"C:\\temp\\x.log".parse()?, b"hi")?;
/// assert_eq!(vol.read_file(&"C:\\temp\\x.log".parse()?)?, b"hi");
/// assert_eq!(vol.path_of(n).unwrap().to_string(), "C:\\temp\\x.log");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NtfsVolume {
    label: String,
    records: Vec<Option<FileRecord>>,
    /// Sequence counters per slot, preserved across reuse.
    sequences: Vec<u16>,
    free: Vec<usize>,
    /// Per-directory child index: directory record -> fold_key(name) -> child.
    dir_index: HashMap<u64, HashMap<Vec<u16>, FileRecordNumber>>,
    now: Tick,
}

impl NtfsVolume {
    /// Creates an empty volume whose root is `label` (e.g. `"C:"`).
    pub fn new(label: &str) -> Self {
        let root = FileRecord {
            number: FileRecordNumber(0),
            sequence: 1,
            std_info: StandardInformation::at(Tick::ZERO, FileAttributes::DIRECTORY),
            name: NtString::from(label),
            parent: FileRecordNumber(0),
            streams: Vec::new(),
            children: Vec::new(),
        };
        Self {
            label: label.to_string(),
            records: vec![Some(root)],
            sequences: vec![1],
            free: Vec::new(),
            dir_index: HashMap::new(),
            now: Tick::ZERO,
        }
    }

    /// The volume label (`"C:"`).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The root directory's record number (always 0).
    pub fn root(&self) -> FileRecordNumber {
        FileRecordNumber(0)
    }

    /// Sets the volume's notion of "now" used to stamp created/modified times.
    pub fn set_clock(&mut self, now: Tick) {
        self.now = now;
    }

    /// Number of in-use records (files + directories, including the root).
    pub fn record_count(&self) -> usize {
        self.records.iter().flatten().count()
    }

    /// Total MFT slots including free ones (the serialized image covers all).
    pub fn slot_count(&self) -> usize {
        self.records.len()
    }

    /// Total bytes stored across all streams of all files.
    pub fn total_bytes(&self) -> u64 {
        self.records
            .iter()
            .flatten()
            .map(FileRecord::total_stream_bytes)
            .sum()
    }

    /// Fetches a record by number.
    pub fn record(&self, n: FileRecordNumber) -> Option<&FileRecord> {
        self.records.get(n.0 as usize).and_then(Option::as_ref)
    }

    /// Iterates over all in-use records in MFT order.
    pub fn iter(&self) -> impl Iterator<Item = &FileRecord> {
        self.records.iter().flatten()
    }

    /// Resolves a path to a record number using directory indexes
    /// (case-insensitive), like the live driver.
    pub fn resolve(&self, path: &NtPath) -> Result<FileRecordNumber, NtfsError> {
        if !path.root().eq_ignore_ascii_case(&self.label) {
            return Err(NtfsError::WrongVolume {
                expected: self.label.clone(),
                got: path.root().to_string(),
            });
        }
        let mut cur = self.root();
        for comp in path.components() {
            let rec = self.record(cur).expect("resolved record must exist");
            if !rec.is_directory() {
                return Err(NtfsError::NotADirectory(self.path_of(cur).unwrap()));
            }
            cur = self
                .child_by_name(cur, comp)
                .ok_or_else(|| NtfsError::NotFound(path.clone()))?;
        }
        Ok(cur)
    }

    /// Looks up the record at `path`, if any.
    pub fn lookup(&self, path: &NtPath) -> Option<&FileRecord> {
        self.resolve(path).ok().and_then(|n| self.record(n))
    }

    /// Whether an object exists at `path`.
    pub fn exists(&self, path: &NtPath) -> bool {
        self.resolve(path).is_ok()
    }

    fn child_by_name(&self, dir: FileRecordNumber, name: &NtString) -> Option<FileRecordNumber> {
        let key = name.fold_key();
        if let Some(index) = self.dir_index.get(&dir.0) {
            return index.get(&key).copied();
        }
        // Index not built (e.g. after deserialization): fall back to linear.
        let rec = self.record(dir)?;
        rec.children
            .iter()
            .copied()
            .find(|&c| self.record(c).is_some_and(|r| r.name.fold_key() == key))
    }

    fn validate_ntfs_name(name: &NtString) -> Result<(), NtfsError> {
        if name.is_empty() || name.contains_nul() || name.units().contains(&(b'\\' as u16)) {
            return Err(NtfsError::InvalidName(name.clone()));
        }
        Ok(())
    }

    fn alloc_slot(&mut self) -> usize {
        if let Some(i) = self.free.pop() {
            self.sequences[i] = self.sequences[i].wrapping_add(1);
            i
        } else {
            self.records.push(None);
            self.sequences.push(1);
            self.records.len() - 1
        }
    }

    fn insert_child(&mut self, parent: FileRecordNumber, child: FileRecordNumber) {
        let name_key = self.record(child).expect("child exists").name.fold_key();
        let prec = self.records[parent.0 as usize]
            .as_mut()
            .expect("parent exists");
        prec.children.push(child);
        prec.std_info.modified = self.now;
        self.dir_index
            .entry(parent.0)
            .or_default()
            .insert(name_key, child);
    }

    fn remove_child(&mut self, parent: FileRecordNumber, child: FileRecordNumber) {
        let name_key = self.record(child).map(|r| r.name.fold_key());
        let prec = self.records[parent.0 as usize]
            .as_mut()
            .expect("parent exists");
        prec.children.retain(|&c| c != child);
        prec.std_info.modified = self.now;
        if let (Some(key), Some(index)) = (name_key, self.dir_index.get_mut(&parent.0)) {
            index.remove(&key);
        }
    }

    fn create_object(
        &mut self,
        path: &NtPath,
        attributes: FileAttributes,
        streams: Vec<DataStream>,
    ) -> Result<FileRecordNumber, NtfsError> {
        let name = path
            .file_name()
            .cloned()
            .ok_or_else(|| NtfsError::InvalidName(NtString::new()))?;
        Self::validate_ntfs_name(&name)?;
        let parent_path = path.parent().expect("non-root path has a parent");
        let parent = self
            .resolve(&parent_path)
            .map_err(|_| NtfsError::ParentNotFound(parent_path.clone()))?;
        let prec = self.record(parent).expect("parent resolved");
        if !prec.is_directory() {
            return Err(NtfsError::NotADirectory(parent_path));
        }
        if self.child_by_name(parent, &name).is_some() {
            return Err(NtfsError::AlreadyExists(path.clone()));
        }
        let slot = self.alloc_slot();
        let number = FileRecordNumber(slot as u64);
        self.records[slot] = Some(FileRecord {
            number,
            sequence: self.sequences[slot],
            std_info: StandardInformation::at(self.now, attributes),
            name,
            parent,
            streams,
            children: Vec::new(),
        });
        self.insert_child(parent, number);
        Ok(number)
    }

    /// Creates a file with the given main-stream contents.
    ///
    /// # Errors
    ///
    /// Fails if the parent chain is missing, the name already exists in the
    /// parent, or the name violates NTFS-level rules.
    pub fn create_file(
        &mut self,
        path: &NtPath,
        data: &[u8],
    ) -> Result<FileRecordNumber, NtfsError> {
        self.create_object(
            path,
            FileAttributes::NORMAL,
            vec![DataStream::unnamed(data.to_vec())],
        )
    }

    /// Creates a file with explicit attributes.
    ///
    /// # Errors
    ///
    /// Same conditions as [`NtfsVolume::create_file`].
    pub fn create_file_with(
        &mut self,
        path: &NtPath,
        data: &[u8],
        attributes: FileAttributes,
    ) -> Result<FileRecordNumber, NtfsError> {
        self.create_object(path, attributes, vec![DataStream::unnamed(data.to_vec())])
    }

    /// Creates a single directory; the parent must already exist.
    ///
    /// # Errors
    ///
    /// Same conditions as [`NtfsVolume::create_file`].
    pub fn mkdir(&mut self, path: &NtPath) -> Result<FileRecordNumber, NtfsError> {
        self.create_object(path, FileAttributes::DIRECTORY, Vec::new())
    }

    /// Creates a directory and any missing ancestors.
    ///
    /// # Errors
    ///
    /// Fails if a non-directory exists somewhere along the chain or a name is
    /// invalid.
    pub fn mkdir_p(&mut self, path: &NtPath) -> Result<FileRecordNumber, NtfsError> {
        let mut cur = NtPath::root_of(path.root());
        let mut cur_rec = self.root();
        if !path.root().eq_ignore_ascii_case(&self.label) {
            return Err(NtfsError::WrongVolume {
                expected: self.label.clone(),
                got: path.root().to_string(),
            });
        }
        for comp in path.components() {
            cur = cur.join(comp.clone());
            match self.child_by_name(cur_rec, comp) {
                Some(next) => {
                    let rec = self.record(next).expect("indexed child exists");
                    if !rec.is_directory() {
                        return Err(NtfsError::NotADirectory(cur));
                    }
                    cur_rec = next;
                }
                None => {
                    cur_rec = self.mkdir(&cur)?;
                }
            }
        }
        Ok(cur_rec)
    }

    /// Reads the main data stream of the file at `path`.
    ///
    /// # Errors
    ///
    /// Fails if the path is missing or names a directory.
    pub fn read_file(&self, path: &NtPath) -> Result<Vec<u8>, NtfsError> {
        let rec = self
            .lookup(path)
            .ok_or_else(|| NtfsError::NotFound(path.clone()))?;
        if rec.is_directory() {
            return Err(NtfsError::IsADirectory(path.clone()));
        }
        Ok(rec.main_data().unwrap_or_default().to_vec())
    }

    /// Overwrites (or creates) the main data stream of an existing file and
    /// stamps its modified time.
    ///
    /// # Errors
    ///
    /// Fails if the path is missing or names a directory.
    pub fn write_file(&mut self, path: &NtPath, data: &[u8]) -> Result<(), NtfsError> {
        let n = self.resolve(path)?;
        let now = self.now;
        let rec = self.records[n.0 as usize].as_mut().expect("resolved");
        if rec.is_directory() {
            return Err(NtfsError::IsADirectory(path.clone()));
        }
        match rec.streams.iter_mut().find(|s| s.name.is_none()) {
            Some(s) => s.data = data.to_vec(),
            None => rec.streams.push(DataStream::unnamed(data.to_vec())),
        }
        rec.std_info.modified = now;
        Ok(())
    }

    /// Appends to the main data stream, creating the file if needed (parents
    /// must exist). Used by the simulated always-running services for log
    /// churn.
    ///
    /// # Errors
    ///
    /// Fails if the parent chain is missing or the path is a directory.
    pub fn append_file(&mut self, path: &NtPath, data: &[u8]) -> Result<(), NtfsError> {
        match self.resolve(path) {
            Ok(n) => {
                let now = self.now;
                let rec = self.records[n.0 as usize].as_mut().expect("resolved");
                if rec.is_directory() {
                    return Err(NtfsError::IsADirectory(path.clone()));
                }
                match rec.streams.iter_mut().find(|s| s.name.is_none()) {
                    Some(s) => s.data.extend_from_slice(data),
                    None => rec.streams.push(DataStream::unnamed(data.to_vec())),
                }
                rec.std_info.modified = now;
                Ok(())
            }
            Err(NtfsError::NotFound(_)) => {
                self.create_file(path, data)?;
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    /// Adds a named alternate data stream to an existing file.
    ///
    /// # Errors
    ///
    /// Fails if the file is missing or already has a stream of that name.
    pub fn add_stream(
        &mut self,
        path: &NtPath,
        stream_name: impl Into<NtString>,
        data: &[u8],
    ) -> Result<(), NtfsError> {
        let n = self.resolve(path)?;
        let name = stream_name.into();
        Self::validate_ntfs_name(&name)?;
        let rec = self.records[n.0 as usize].as_mut().expect("resolved");
        if rec
            .streams
            .iter()
            .any(|s| s.name.as_ref().is_some_and(|x| x.eq_ignore_case(&name)))
        {
            return Err(NtfsError::AlreadyExists(path.clone()));
        }
        rec.streams.push(DataStream::named(name, data.to_vec()));
        Ok(())
    }

    /// Updates attribute flags on an existing object.
    ///
    /// # Errors
    ///
    /// Fails if the path is missing.
    pub fn set_attributes(
        &mut self,
        path: &NtPath,
        attributes: FileAttributes,
    ) -> Result<(), NtfsError> {
        let n = self.resolve(path)?;
        let rec = self.records[n.0 as usize].as_mut().expect("resolved");
        let dir_bit = rec.std_info.attributes.contains(FileAttributes::DIRECTORY);
        rec.std_info.attributes = if dir_bit {
            attributes | FileAttributes::DIRECTORY
        } else {
            attributes
        };
        Ok(())
    }

    /// Removes a file (not a directory), freeing its MFT slot for reuse.
    ///
    /// # Errors
    ///
    /// Fails if the path is missing or names a directory.
    pub fn remove_file(&mut self, path: &NtPath) -> Result<(), NtfsError> {
        let n = self.resolve(path)?;
        let rec = self.record(n).expect("resolved");
        if rec.is_directory() {
            return Err(NtfsError::IsADirectory(path.clone()));
        }
        let parent = rec.parent;
        self.remove_child(parent, n);
        self.records[n.0 as usize] = None;
        self.free.push(n.0 as usize);
        Ok(())
    }

    /// Removes an empty directory.
    ///
    /// # Errors
    ///
    /// Fails if the path is missing, is a file, is the root, or is not empty.
    pub fn remove_dir(&mut self, path: &NtPath) -> Result<(), NtfsError> {
        let n = self.resolve(path)?;
        if n == self.root() {
            return Err(NtfsError::DirectoryNotEmpty(path.clone()));
        }
        let rec = self.record(n).expect("resolved");
        if !rec.is_directory() {
            return Err(NtfsError::NotADirectory(path.clone()));
        }
        if !rec.children.is_empty() {
            return Err(NtfsError::DirectoryNotEmpty(path.clone()));
        }
        let parent = rec.parent;
        self.remove_child(parent, n);
        self.records[n.0 as usize] = None;
        self.free.push(n.0 as usize);
        self.dir_index.remove(&n.0);
        Ok(())
    }

    /// Removes a directory and everything beneath it.
    ///
    /// # Errors
    ///
    /// Fails if the path is missing or is the root.
    pub fn remove_tree(&mut self, path: &NtPath) -> Result<(), NtfsError> {
        let n = self.resolve(path)?;
        if n == self.root() {
            return Err(NtfsError::DirectoryNotEmpty(path.clone()));
        }
        let rec = self.record(n).expect("resolved");
        if !rec.is_directory() {
            return self.remove_file(path);
        }
        let children: Vec<NtPath> = rec
            .children
            .iter()
            .filter_map(|&c| self.path_of(c))
            .collect();
        for child in children {
            self.remove_tree(&child)?;
        }
        self.remove_dir(path)
    }

    /// Lists the children of the directory at `path` in index order.
    ///
    /// # Errors
    ///
    /// Fails if the path is missing or not a directory.
    pub fn list_children(
        &self,
        path: &NtPath,
    ) -> Result<impl Iterator<Item = &FileRecord> + '_, NtfsError> {
        let n = self.resolve(path)?;
        let rec = self.record(n).expect("resolved");
        if !rec.is_directory() {
            return Err(NtfsError::NotADirectory(path.clone()));
        }
        Ok(rec.children.iter().filter_map(|&c| self.record(c)))
    }

    /// Reconstructs the full path of a record by following parent references.
    ///
    /// Returns `None` for stale numbers or if a parent chain is broken.
    pub fn path_of(&self, n: FileRecordNumber) -> Option<NtPath> {
        let mut parts: Vec<NtString> = Vec::new();
        let mut cur = n;
        let mut hops = 0;
        while cur != self.root() {
            let rec = self.record(cur)?;
            parts.push(rec.name.clone());
            cur = rec.parent;
            hops += 1;
            if hops > self.records.len() {
                return None; // cycle guard
            }
        }
        parts.reverse();
        Some(NtPath::from_components(&self.label, parts))
    }

    /// Serializes the volume to its raw binary image (see [`crate::VolumeImage`]).
    pub fn to_image(&self) -> Vec<u8> {
        crate::image::write_image(self)
    }
}

// ---------------------------------------------------------------------
// JSON serialization (see `strider_support::json`, replacing the former
// serde derives)
// ---------------------------------------------------------------------

// Hand-written (instead of `impl_json!`) because `dir_index` is a derived
// and left empty on read; lookups fall back to a linear scan until the
// index is repopulated by subsequent mutations.
impl strider_support::json::ToJson for NtfsVolume {
    fn to_json(&self) -> strider_support::json::JsonValue {
        strider_support::json::JsonValue::Obj(vec![
            ("label".to_string(), self.label.to_json()),
            ("records".to_string(), self.records.to_json()),
            ("sequences".to_string(), self.sequences.to_json()),
            ("free".to_string(), self.free.to_json()),
            ("now".to_string(), self.now.to_json()),
        ])
    }
}

impl strider_support::json::FromJson for NtfsVolume {
    fn from_json(
        value: &strider_support::json::JsonValue,
    ) -> Result<Self, strider_support::json::JsonError> {
        use strider_support::json::FromJson;
        Ok(Self {
            label: FromJson::from_json(value.field("label")?)?,
            records: FromJson::from_json(value.field("records")?)?,
            sequences: FromJson::from_json(value.field("sequences")?)?,
            free: FromJson::from_json(value.field("free")?)?,
            dir_index: HashMap::new(),
            now: FromJson::from_json(value.field("now")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> NtPath {
        s.parse().unwrap()
    }

    fn vol() -> NtfsVolume {
        let mut v = NtfsVolume::new("C:");
        v.mkdir_p(&p("C:\\windows\\system32\\drivers")).unwrap();
        v
    }

    #[test]
    fn create_and_read() {
        let mut v = vol();
        v.create_file(&p("C:\\windows\\system32\\cfg.ini"), b"[a]")
            .unwrap();
        assert_eq!(
            v.read_file(&p("C:\\windows\\system32\\cfg.ini")).unwrap(),
            b"[a]"
        );
    }

    #[test]
    fn resolve_is_case_insensitive() {
        let v = vol();
        assert!(v.exists(&p("c:\\WINDOWS\\System32")));
    }

    #[test]
    fn duplicate_names_rejected_case_insensitively() {
        let mut v = vol();
        v.create_file(&p("C:\\a.txt"), b"").unwrap();
        assert_eq!(
            v.create_file(&p("C:\\A.TXT"), b""),
            Err(NtfsError::AlreadyExists(p("C:\\A.TXT")))
        );
    }

    #[test]
    fn missing_parent_is_an_error() {
        let mut v = vol();
        assert!(matches!(
            v.create_file(&p("C:\\nope\\x.txt"), b""),
            Err(NtfsError::ParentNotFound(_))
        ));
    }

    #[test]
    fn ntfs_accepts_win32_illegal_names() {
        let mut v = vol();
        // Trailing dot, reserved device name, trailing space: all fine at NTFS level.
        v.create_file(&p("C:\\update."), b"x").unwrap();
        v.create_file(&p("C:\\nul.txt"), b"x").unwrap();
        v.create_file(&p("C:\\drv "), b"x").unwrap();
        assert_eq!(v.record_count(), 4 + 3); // root + 3 dirs + 3 files
    }

    #[test]
    fn ntfs_rejects_backslash_and_nul_in_names() {
        let mut v = vol();
        let bad = NtString::from_units(&[b'a' as u16, 0, b'b' as u16]);
        let path = NtPath::root_of("C:").join(bad);
        assert!(matches!(
            v.create_file(&path, b""),
            Err(NtfsError::InvalidName(_))
        ));
    }

    #[test]
    fn remove_file_frees_slot_and_bumps_sequence_on_reuse() {
        let mut v = vol();
        let n1 = v.create_file(&p("C:\\tmp1"), b"x").unwrap();
        v.remove_file(&p("C:\\tmp1")).unwrap();
        assert!(v.record(n1).is_none());
        let n2 = v.create_file(&p("C:\\tmp2"), b"y").unwrap();
        assert_eq!(n1.0, n2.0, "slot reused");
        assert_eq!(v.record(n2).unwrap().sequence, 2, "sequence bumped");
    }

    #[test]
    fn remove_dir_requires_empty() {
        let mut v = vol();
        assert_eq!(
            v.remove_dir(&p("C:\\windows")),
            Err(NtfsError::DirectoryNotEmpty(p("C:\\windows")))
        );
        v.remove_dir(&p("C:\\windows\\system32\\drivers")).unwrap();
        assert!(!v.exists(&p("C:\\windows\\system32\\drivers")));
    }

    #[test]
    fn remove_tree_removes_recursively() {
        let mut v = vol();
        v.create_file(&p("C:\\windows\\system32\\a.dll"), b"")
            .unwrap();
        v.remove_tree(&p("C:\\windows")).unwrap();
        assert!(!v.exists(&p("C:\\windows")));
        assert_eq!(v.record_count(), 1); // only root
    }

    #[test]
    fn path_of_reconstructs_full_path() {
        let mut v = vol();
        let n = v
            .create_file(&p("C:\\windows\\system32\\drivers\\k.sys"), b"")
            .unwrap();
        assert_eq!(
            v.path_of(n).unwrap().to_string(),
            "C:\\windows\\system32\\drivers\\k.sys"
        );
    }

    #[test]
    fn list_children_of_file_fails() {
        let mut v = vol();
        v.create_file(&p("C:\\f"), b"").unwrap();
        assert!(matches!(
            v.list_children(&p("C:\\f")),
            Err(NtfsError::NotADirectory(_))
        ));
    }

    #[test]
    fn append_creates_then_appends() {
        let mut v = vol();
        v.append_file(&p("C:\\log.txt"), b"a").unwrap();
        v.append_file(&p("C:\\log.txt"), b"b").unwrap();
        assert_eq!(v.read_file(&p("C:\\log.txt")).unwrap(), b"ab");
    }

    #[test]
    fn ads_streams() {
        let mut v = vol();
        v.create_file(&p("C:\\host.txt"), b"main").unwrap();
        v.add_stream(&p("C:\\host.txt"), "evil", b"payload")
            .unwrap();
        let rec = v.lookup(&p("C:\\host.txt")).unwrap();
        assert_eq!(rec.streams.len(), 2);
        assert_eq!(rec.ads_names()[0].to_win32_lossy(), "evil");
        assert!(matches!(
            v.add_stream(&p("C:\\host.txt"), "EVIL", b""),
            Err(NtfsError::AlreadyExists(_))
        ));
    }

    #[test]
    fn set_attributes_preserves_directory_bit() {
        let mut v = vol();
        v.set_attributes(&p("C:\\windows"), FileAttributes::HIDDEN)
            .unwrap();
        let rec = v.lookup(&p("C:\\windows")).unwrap();
        assert!(rec.is_directory());
        assert!(rec.std_info.attributes.contains(FileAttributes::HIDDEN));
    }

    #[test]
    fn wrong_volume_root_is_reported() {
        let v = vol();
        assert!(matches!(
            v.resolve(&p("D:\\x")),
            Err(NtfsError::WrongVolume { .. })
        ));
    }

    #[test]
    fn mkdir_p_is_idempotent() {
        let mut v = vol();
        let a = v.mkdir_p(&p("C:\\windows\\system32")).unwrap();
        let b = v.mkdir_p(&p("C:\\windows\\system32")).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn total_bytes_counts_all_streams() {
        let mut v = NtfsVolume::new("C:");
        v.create_file(&p("C:\\a"), b"12345").unwrap();
        v.add_stream(&p("C:\\a"), "s", b"678").unwrap();
        assert_eq!(v.total_bytes(), 8);
    }
}
