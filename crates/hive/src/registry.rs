//! Mounted hives and the full Registry forest.

use crate::format::{write_hive, RawHive};
use crate::key::{Key, Value, ValueData};
use std::fmt;
use strider_nt_core::{NtPath, NtString, Tick};

/// Error type for Registry operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// No hive is mounted at a prefix of the path.
    NoHiveForPath(NtPath),
    /// The key does not exist.
    KeyNotFound(NtPath),
    /// The value does not exist on the key.
    ValueNotFound {
        /// The key that was searched.
        key: NtPath,
        /// The missing value name.
        value: NtString,
    },
    /// A hive is already mounted at this prefix.
    AlreadyMounted(NtPath),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::NoHiveForPath(p) => write!(f, "no hive mounted for {p}"),
            RegistryError::KeyNotFound(p) => write!(f, "key not found: {p}"),
            RegistryError::ValueNotFound { key, value } => {
                write!(f, "value not found: {value} on {key}")
            }
            RegistryError::AlreadyMounted(p) => write!(f, "hive already mounted at {p}"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// A hive: a key tree mounted at a Registry path and backed by a file.
///
/// `HKLM\SYSTEM` is backed by `C:\windows\system32\config\system`,
/// `HKLM\SOFTWARE` by `...\config\software`, and the per-user hive by
/// `ntuser.dat`, exactly as the paper describes. [`Hive::to_bytes`] renders
/// the binary image written to that backing file; the low-level scan parses
/// those bytes with [`RawHive`].
#[derive(Debug, Clone)]
pub struct Hive {
    mount: NtPath,
    backing_file: NtPath,
    root: Key,
}

impl Hive {
    /// Creates an empty hive mounted at `mount`, backed by `backing_file`.
    pub fn new(mount: NtPath, backing_file: NtPath) -> Self {
        let name = mount.to_string();
        Self {
            mount,
            backing_file,
            root: Key::new(name),
        }
    }

    /// Creates a hive from an existing root key.
    pub fn from_root(mount: NtPath, backing_file: NtPath, root: Key) -> Self {
        Self {
            mount,
            backing_file,
            root,
        }
    }

    /// The Registry path this hive is mounted at.
    pub fn mount(&self) -> &NtPath {
        &self.mount
    }

    /// The filesystem path of the backing hive file.
    pub fn backing_file(&self) -> &NtPath {
        &self.backing_file
    }

    /// The root key.
    pub fn root(&self) -> &Key {
        &self.root
    }

    /// Mutable access to the root key.
    pub fn root_mut(&mut self) -> &mut Key {
        &mut self.root
    }

    /// Serializes the hive to its binary on-disk format.
    pub fn to_bytes(&self) -> Vec<u8> {
        write_hive(&self.root)
    }

    /// Parses backing-file bytes into a raw (offline) view.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::HiveFormatError`] from the raw parser.
    pub fn parse_bytes(bytes: &[u8]) -> Result<RawHive, crate::HiveFormatError> {
        RawHive::parse(bytes)
    }
}

/// The full Registry: a forest of mounted hives with path resolution.
///
/// Paths like `HKLM\SOFTWARE\Microsoft\...` resolve by longest mounted
/// prefix. The conventional Windows layout is available via
/// [`Registry::standard`].
///
/// # Examples
///
/// ```
/// use strider_hive::{Registry, ValueData};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut reg = Registry::standard();
/// let services = "HKLM\\SYSTEM\\CurrentControlSet\\Services\\Beep".parse()?;
/// reg.create_key(&services)?;
/// reg.set_value(&services, "ImagePath", ValueData::sz("beep.sys"))?;
/// assert!(reg.key_exists(&services));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Registry {
    hives: Vec<Hive>,
    now: Tick,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// Creates an empty Registry with no hives mounted.
    pub fn new() -> Self {
        Self {
            hives: Vec::new(),
            now: Tick::ZERO,
        }
    }

    /// Creates the conventional Windows hive layout:
    ///
    /// * `HKLM\SYSTEM` ← `C:\windows\system32\config\system`
    /// * `HKLM\SOFTWARE` ← `C:\windows\system32\config\software`
    /// * `HKU\.DEFAULT` ← `C:\documents and settings\user\ntuser.dat`
    pub fn standard() -> Self {
        let mut reg = Self::new();
        let mounts = [
            ("HKLM\\SYSTEM", "C:\\windows\\system32\\config\\system"),
            ("HKLM\\SOFTWARE", "C:\\windows\\system32\\config\\software"),
            (
                "HKU\\.DEFAULT",
                "C:\\documents and settings\\user\\ntuser.dat",
            ),
        ];
        for (m, f) in mounts {
            reg.mount_hive(Hive::new(
                m.parse().expect("static mount parses"),
                f.parse().expect("static path parses"),
            ))
            .expect("fresh mounts cannot collide");
        }
        reg
    }

    /// Sets the clock used to stamp key write times.
    pub fn set_clock(&mut self, now: Tick) {
        self.now = now;
    }

    /// Mounts a hive.
    ///
    /// # Errors
    ///
    /// Fails if a hive is already mounted at the same path.
    pub fn mount_hive(&mut self, hive: Hive) -> Result<(), RegistryError> {
        if self
            .hives
            .iter()
            .any(|h| h.mount().eq_ignore_case(hive.mount()))
        {
            return Err(RegistryError::AlreadyMounted(hive.mount().clone()));
        }
        self.hives.push(hive);
        Ok(())
    }

    /// The mounted hives.
    pub fn hives(&self) -> &[Hive] {
        &self.hives
    }

    /// Finds the hive whose mount point is a prefix of `path` (longest wins),
    /// together with the path components relative to the hive root.
    pub fn resolve(&self, path: &NtPath) -> Option<(&Hive, Vec<NtString>)> {
        let idx = self.resolve_index(path)?;
        let hive = &self.hives[idx];
        let rel = path.components()[hive.mount().components().len()..].to_vec();
        Some((hive, rel))
    }

    fn resolve_index(&self, path: &NtPath) -> Option<usize> {
        self.hives
            .iter()
            .enumerate()
            .filter(|(_, h)| path.starts_with(h.mount()))
            .max_by_key(|(_, h)| h.mount().components().len())
            .map(|(i, _)| i)
    }

    /// The hive containing `path`, if any.
    pub fn hive_containing(&self, path: &NtPath) -> Option<&Hive> {
        self.resolve(path).map(|(h, _)| h)
    }

    /// The key at `path`, if it exists.
    pub fn key_at(&self, path: &NtPath) -> Option<&Key> {
        let (hive, rel) = self.resolve(path)?;
        hive.root().descend(&rel)
    }

    /// Whether a key exists at `path`.
    pub fn key_exists(&self, path: &NtPath) -> bool {
        self.key_at(path).is_some()
    }

    fn key_at_mut(&mut self, path: &NtPath) -> Result<&mut Key, RegistryError> {
        let idx = self
            .resolve_index(path)
            .ok_or_else(|| RegistryError::NoHiveForPath(path.clone()))?;
        let hive = &mut self.hives[idx];
        let rel = path.components()[hive.mount().components().len()..].to_vec();
        hive.root_mut()
            .descend_mut(&rel)
            .ok_or_else(|| RegistryError::KeyNotFound(path.clone()))
    }

    /// Creates the key at `path`, creating intermediate keys as needed.
    ///
    /// # Errors
    ///
    /// Fails only when no hive covers the path.
    pub fn create_key(&mut self, path: &NtPath) -> Result<(), RegistryError> {
        let now = self.now;
        let idx = self
            .resolve_index(path)
            .ok_or_else(|| RegistryError::NoHiveForPath(path.clone()))?;
        let hive = &mut self.hives[idx];
        let rel = path.components()[hive.mount().components().len()..].to_vec();
        let mut cur = hive.root_mut();
        for c in &rel {
            cur = cur.subkey_or_create(c, now);
        }
        Ok(())
    }

    /// Sets a value on an existing key.
    ///
    /// # Errors
    ///
    /// Fails when the key does not exist.
    pub fn set_value(
        &mut self,
        key_path: &NtPath,
        name: impl Into<NtString>,
        data: ValueData,
    ) -> Result<(), RegistryError> {
        let now = self.now;
        let key = self.key_at_mut(key_path)?;
        key.set_value(Value::new(name, data));
        key.timestamp = now;
        Ok(())
    }

    /// Sets a pre-built [`Value`] (e.g. one flagged corrupt) on an existing key.
    ///
    /// # Errors
    ///
    /// Fails when the key does not exist.
    pub fn set_value_raw(&mut self, key_path: &NtPath, value: Value) -> Result<(), RegistryError> {
        let now = self.now;
        let key = self.key_at_mut(key_path)?;
        key.set_value(value);
        key.timestamp = now;
        Ok(())
    }

    /// Reads a value.
    ///
    /// # Errors
    ///
    /// Fails when the key or value does not exist.
    pub fn value(&self, key_path: &NtPath, name: &NtString) -> Result<&Value, RegistryError> {
        let key = self
            .key_at(key_path)
            .ok_or_else(|| RegistryError::KeyNotFound(key_path.clone()))?;
        key.value(name).ok_or_else(|| RegistryError::ValueNotFound {
            key: key_path.clone(),
            value: name.clone(),
        })
    }

    /// Deletes a value, returning it.
    ///
    /// # Errors
    ///
    /// Fails when the key or value does not exist.
    pub fn delete_value(
        &mut self,
        key_path: &NtPath,
        name: &NtString,
    ) -> Result<Value, RegistryError> {
        let key = self.key_at_mut(key_path)?;
        key.remove_value(name)
            .ok_or_else(|| RegistryError::ValueNotFound {
                key: key_path.clone(),
                value: name.clone(),
            })
    }

    /// Deletes a key and its whole subtree, returning it.
    ///
    /// # Errors
    ///
    /// Fails when the key does not exist or is a hive root.
    pub fn delete_key(&mut self, path: &NtPath) -> Result<Key, RegistryError> {
        let parent_path = path
            .parent()
            .ok_or_else(|| RegistryError::KeyNotFound(path.clone()))?;
        let name = path
            .file_name()
            .cloned()
            .ok_or_else(|| RegistryError::KeyNotFound(path.clone()))?;
        // A hive root itself cannot be deleted through this API.
        if self.hives.iter().any(|h| h.mount().eq_ignore_case(path)) {
            return Err(RegistryError::KeyNotFound(path.clone()));
        }
        let parent = self.key_at_mut(&parent_path)?;
        parent
            .remove_subkey(&name)
            .ok_or_else(|| RegistryError::KeyNotFound(path.clone()))
    }

    /// Total key count across all hives.
    pub fn key_count(&self) -> usize {
        self.hives.iter().map(|h| h.root().key_count()).sum()
    }

    /// Total value count across all hives.
    pub fn value_count(&self) -> usize {
        self.hives.iter().map(|h| h.root().value_count()).sum()
    }
}

// ---------------------------------------------------------------------
// JSON serialization (see `strider_support::json`, replacing the former
// serde derives)
// ---------------------------------------------------------------------

strider_support::impl_json!(struct Hive { mount, backing_file, root });
strider_support::impl_json!(struct Registry { hives, now });

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> NtPath {
        s.parse().unwrap()
    }

    fn n(s: &str) -> NtString {
        NtString::from(s)
    }

    #[test]
    fn standard_layout_mounts_three_hives() {
        let reg = Registry::standard();
        assert_eq!(reg.hives().len(), 3);
        assert!(reg
            .hive_containing(&p("HKLM\\SOFTWARE\\Microsoft"))
            .is_some());
        assert!(reg.hive_containing(&p("HKCC\\x")).is_none());
    }

    #[test]
    fn create_set_get_delete() {
        let mut reg = Registry::standard();
        let run = p("HKLM\\SOFTWARE\\Microsoft\\Windows\\CurrentVersion\\Run");
        reg.create_key(&run).unwrap();
        reg.set_value(&run, "A", ValueData::sz("a.exe")).unwrap();
        assert_eq!(
            reg.value(&run, &n("a")).unwrap().data,
            ValueData::sz("a.exe")
        );
        let old = reg.delete_value(&run, &n("A")).unwrap();
        assert_eq!(old.name, n("A"));
        assert!(matches!(
            reg.value(&run, &n("A")),
            Err(RegistryError::ValueNotFound { .. })
        ));
    }

    #[test]
    fn delete_key_removes_subtree_but_not_hive_roots() {
        let mut reg = Registry::standard();
        let svc = p("HKLM\\SYSTEM\\CurrentControlSet\\Services\\HackerDefender100");
        reg.create_key(&svc).unwrap();
        assert!(reg.key_exists(&svc));
        reg.delete_key(&svc).unwrap();
        assert!(!reg.key_exists(&svc));
        assert!(matches!(
            reg.delete_key(&p("HKLM\\SYSTEM")),
            Err(RegistryError::KeyNotFound(_))
        ));
    }

    #[test]
    fn longest_prefix_mount_wins() {
        let mut reg = Registry::new();
        reg.mount_hive(Hive::new(p("HKLM\\SOFTWARE"), p("C:\\sw")))
            .unwrap();
        reg.mount_hive(Hive::new(p("HKLM\\SOFTWARE\\Sub"), p("C:\\sub")))
            .unwrap();
        let (hive, rel) = reg.resolve(&p("HKLM\\SOFTWARE\\Sub\\Deep")).unwrap();
        assert_eq!(hive.mount().to_string(), "HKLM\\SOFTWARE\\Sub");
        assert_eq!(rel.len(), 1);
    }

    #[test]
    fn duplicate_mount_rejected() {
        let mut reg = Registry::standard();
        assert!(matches!(
            reg.mount_hive(Hive::new(p("hklm\\software"), p("C:\\x"))),
            Err(RegistryError::AlreadyMounted(_))
        ));
    }

    #[test]
    fn set_value_on_missing_key_fails() {
        let mut reg = Registry::standard();
        assert!(matches!(
            reg.set_value(&p("HKLM\\SOFTWARE\\Nope"), "v", ValueData::Dword(1)),
            Err(RegistryError::KeyNotFound(_))
        ));
        assert!(matches!(
            reg.set_value(&p("HKXX\\Nope"), "v", ValueData::Dword(1)),
            Err(RegistryError::NoHiveForPath(_))
        ));
    }

    #[test]
    fn counts_aggregate_across_hives() {
        let mut reg = Registry::standard();
        reg.create_key(&p("HKLM\\SOFTWARE\\A\\B")).unwrap();
        reg.set_value(&p("HKLM\\SOFTWARE\\A"), "v", ValueData::Dword(1))
            .unwrap();
        // 3 hive roots + A + B
        assert_eq!(reg.key_count(), 5);
        assert_eq!(reg.value_count(), 1);
    }

    #[test]
    fn hive_serialization_roundtrip_through_registry() {
        let mut reg = Registry::standard();
        let run = p("HKLM\\SOFTWARE\\Microsoft\\Windows\\CurrentVersion\\Run");
        reg.create_key(&run).unwrap();
        reg.set_value(&run, "x", ValueData::sz("x.exe")).unwrap();
        let hive = reg.hive_containing(&run).unwrap();
        let raw = Hive::parse_bytes(&hive.to_bytes()).unwrap();
        assert_eq!(raw.all_values().len(), 1);
    }
}
