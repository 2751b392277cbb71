//! Scan snapshots: what a view saw, when, and at what I/O cost.

use std::fmt;
use std::sync::Arc;
use strider_nt_core::{IoStats, Pid, Tick};
use strider_support::json::{FromJson, JsonError, JsonValue, ToJson};
use strider_winapi::ChainEntry;

/// Which view produced a snapshot — the axis of the cross-view diff.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViewKind {
    /// High-level scan through the Win32 APIs (`dir /s`, RegEdit, Task
    /// Manager). The ghostware's preferred audience: "the lie".
    HighLevelWin32,
    /// High-level scan through the native NtDll APIs (tlist-style).
    HighLevelNative,
    /// Low-level inside-the-box scan: raw MFT parse.
    LowLevelMft,
    /// Low-level inside-the-box scan: raw hive-file parse.
    LowLevelHiveParse,
    /// Low-level inside-the-box scan: Active Process List traversal by a
    /// driver. A truth *approximation*: DKOM beats it.
    LowLevelApl,
    /// Advanced-mode low-level scan: scheduler thread-table traversal.
    LowLevelThreadTable,
    /// Advanced-mode low-level scan: subsystem handle-table traversal.
    LowLevelHandleTable,
    /// Low-level module truth: the kernel's mapped-image lists.
    LowLevelKernelModules,
    /// Outside-the-box scan of a disk image from a clean (WinPE) boot.
    OutsideDisk,
    /// Outside-the-box scan of hive files mounted under a clean OS.
    OutsideMountedHives,
    /// Outside-the-box scan of a crash-dump memory image.
    OutsideDump,
}

impl ViewKind {
    /// The high-level view a query chain entered at `entry` produces.
    pub(crate) fn high_level(entry: ChainEntry) -> Self {
        match entry {
            ChainEntry::Win32 => ViewKind::HighLevelWin32,
            ChainEntry::Native => ViewKind::HighLevelNative,
        }
    }
}

impl fmt::Display for ViewKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ViewKind::HighLevelWin32 => "high-level (Win32)",
            ViewKind::HighLevelNative => "high-level (native)",
            ViewKind::LowLevelMft => "low-level (MFT parse)",
            ViewKind::LowLevelHiveParse => "low-level (raw hive parse)",
            ViewKind::LowLevelApl => "low-level (Active Process List)",
            ViewKind::LowLevelThreadTable => "advanced (thread table)",
            ViewKind::LowLevelHandleTable => "advanced (handle table)",
            ViewKind::LowLevelKernelModules => "low-level (kernel module lists)",
            ViewKind::OutsideDisk => "outside (clean-boot disk scan)",
            ViewKind::OutsideMountedHives => "outside (mounted hives)",
            ViewKind::OutsideDump => "outside (memory dump)",
        };
        f.write_str(s)
    }
}

/// Metadata common to every snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanMeta {
    /// The producing view.
    pub view: ViewKind,
    /// Logical time the snapshot was taken.
    pub taken_at: Tick,
    /// Accumulated I/O work (feeds the cost model).
    pub io: IoStats,
}

impl ScanMeta {
    /// Creates metadata for a view at a time.
    pub fn new(view: ViewKind, taken_at: Tick) -> Self {
        Self {
            view,
            taken_at,
            io: IoStats::default(),
        }
    }
}

/// A snapshot of keyed facts: the unit the diff engine consumes.
///
/// Keys are view-independent identities (case-folded paths, hook
/// identities, pids); values are display facts. The facts are one vector
/// sorted by key with each key once, so lookups are binary searches and
/// two snapshots diff by a single merge-join.
///
/// The facts sit behind an [`Arc`], so a clone costs O(1) whatever the
/// snapshot's size: it shares the facts and copies only the metadata. A
/// scanner whose quorum pass reads the same truth bytes as its previous
/// pass hands back such a clone, restamped, instead of parsing again.
/// [`Snapshot::insert`] copies the facts first if a clone still shares
/// them.
#[derive(Debug, Clone)]
pub struct Snapshot<T> {
    /// Scan metadata.
    pub meta: ScanMeta,
    facts: Arc<Vec<(String, T)>>,
}

impl<T> Snapshot<T> {
    /// Creates an empty snapshot.
    pub fn new(meta: ScanMeta) -> Self {
        Self {
            meta,
            facts: Arc::default(),
        }
    }

    /// Builds a snapshot from facts in any order, sorting them once. When a
    /// key repeats, the last fact wins, exactly as repeated
    /// [`Snapshot::insert`]s behave. Builders whose size grows with the
    /// machine use this rather than `insert`, which costs O(n) per call.
    /// Facts that arrive in key order (as both file views emit them) cost
    /// one O(n) pass: they are checked, not sorted.
    pub fn from_facts(meta: ScanMeta, mut facts: Vec<(String, T)>) -> Self {
        // Stable: equal keys keep their arrival order, so the run's last
        // element is the last write.
        if !facts.is_sorted_by(|a, b| a.0 <= b.0) {
            facts.sort_by(|a, b| a.0.cmp(&b.0));
        }
        facts.dedup_by(|later, kept| {
            let repeat = later.0 == kept.0;
            if repeat {
                std::mem::swap(&mut later.1, &mut kept.1);
            }
            repeat
        });
        Self {
            meta,
            facts: Arc::new(facts),
        }
    }

    fn position(&self, key: &str) -> Result<usize, usize> {
        self.facts.binary_search_by(|(k, _)| k.as_str().cmp(key))
    }

    /// Number of facts.
    pub fn len(&self) -> usize {
        self.facts.len()
    }

    /// Whether the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.facts.is_empty()
    }

    /// Whether an identity is present.
    pub fn contains(&self, key: &str) -> bool {
        self.position(key).is_ok()
    }

    /// Fetches a fact by identity.
    pub fn get(&self, key: &str) -> Option<&T> {
        self.position(key).ok().map(|i| &self.facts[i].1)
    }

    /// Iterates `(identity, fact)` in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &T)> {
        self.facts.iter().map(|(key, fact)| (key, fact))
    }
}

impl<T: Clone> Snapshot<T> {
    /// Inserts a fact under its identity key. Last write wins, as with
    /// repeated directory entries in a rescan. Facts a clone still shares
    /// are copied first.
    pub fn insert(&mut self, key: String, fact: T) {
        let i = self.position(&key);
        let facts = Arc::make_mut(&mut self.facts);
        match i {
            Ok(i) => facts[i].1 = fact,
            Err(i) => facts.insert(i, (key, fact)),
        }
    }
}

/// A file or directory fact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileFact {
    /// Display path.
    pub path: String,
    /// Whether the entry is a directory.
    pub is_dir: bool,
    /// Data size in bytes.
    pub size: u64,
    /// Creation tick, when the view knows it.
    pub created: Option<Tick>,
}

/// An ASEP-hook fact (re-exported identity lives on the hook itself).
pub type HookFact = strider_hive::prelude::AsepHook;

/// A process fact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessFact {
    /// Process id.
    pub pid: Pid,
    /// Image name.
    pub image_name: String,
    /// Image path, when the view knows it.
    pub image_path: String,
}

/// A loaded-module fact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleFact {
    /// The process the module is loaded in.
    pub pid: Pid,
    /// The hosting process's image name.
    pub process_name: String,
    /// Module name.
    pub module: String,
    /// Module path.
    pub path: String,
}

// ---------------------------------------------------------------------
// JSON serialization (see `strider_support::json`, replacing the former
// serde derives)
// ---------------------------------------------------------------------

strider_support::impl_json!(
    enum ViewKind {
        HighLevelWin32,
        HighLevelNative,
        LowLevelMft,
        LowLevelHiveParse,
        LowLevelApl,
        LowLevelThreadTable,
        LowLevelHandleTable,
        LowLevelKernelModules,
        OutsideDisk,
        OutsideMountedHives,
        OutsideDump,
    }
);
strider_support::impl_json!(struct ScanMeta { view, taken_at, io });
// `Snapshot<T>` is generic, which `impl_json!` does not cover — spell the
// encoding out by hand: `facts` is an object in key order.
impl<T: ToJson> ToJson for Snapshot<T> {
    fn to_json(&self) -> JsonValue {
        let facts = self
            .facts
            .iter()
            .map(|(key, fact)| (key.clone(), fact.to_json()))
            .collect();
        JsonValue::Obj(vec![
            ("meta".to_string(), self.meta.to_json()),
            ("facts".to_string(), JsonValue::Obj(facts)),
        ])
    }
}

impl<T: FromJson> FromJson for Snapshot<T> {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        let facts = value
            .field("facts")?
            .as_obj()?
            .iter()
            .map(|(key, fact)| Ok((key.clone(), T::from_json(fact)?)))
            .collect::<Result<_, JsonError>>()?;
        Ok(Self::from_facts(
            ScanMeta::from_json(value.field("meta")?)?,
            facts,
        ))
    }
}
strider_support::impl_json!(struct FileFact { path, is_dir, size, created });
strider_support::impl_json!(struct ProcessFact { pid, image_name, image_path });
strider_support::impl_json!(struct ModuleFact { pid, process_name, module, path });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_basics() {
        let mut s: Snapshot<FileFact> =
            Snapshot::new(ScanMeta::new(ViewKind::HighLevelWin32, Tick(3)));
        assert!(s.is_empty());
        s.insert(
            "c:\\a".into(),
            FileFact {
                path: "C:\\a".into(),
                is_dir: false,
                size: 1,
                created: None,
            },
        );
        assert_eq!(s.len(), 1);
        assert!(s.contains("c:\\a"));
        assert!(s.get("c:\\a").is_some());
        assert_eq!(s.meta.taken_at, Tick(3));
    }

    #[test]
    fn a_clone_shares_its_facts_until_one_side_inserts() {
        let mut original: Snapshot<String> =
            Snapshot::new(ScanMeta::new(ViewKind::LowLevelMft, Tick(1)));
        original.insert("a".into(), "A".into());
        let mut copy = original.clone();
        assert!(Arc::ptr_eq(&original.facts, &copy.facts), "an O(1) clone");
        copy.insert("b".into(), "B".into());
        copy.insert("a".into(), "A2".into());
        assert_eq!(original.len(), 1);
        assert_eq!(original.get("a").map(String::as_str), Some("A"));
        assert_eq!(copy.len(), 2);
        assert_eq!(copy.get("a").map(String::as_str), Some("A2"));
    }

    /// A `Snapshot<FileFact>`'s JSON encoding, pinned byte for byte: `facts`
    /// is an object in key order, the last write to a key winning.
    const PINNED_JSON: &str = r#"{"meta":{"view":"LowLevelMft","taken_at":7,"io":{"bytes_read":4096,"seeks":0,"api_calls":1,"entries":3,"defects":0}},"facts":{"c:\\a\"b":{"path":"C:\\a\"b","is_dir":false,"size":1,"created":null},"c:\\windows":{"path":"C:\\Windows","is_dir":true,"size":0,"created":5},"c:\\windows\\hxdef100.exe":{"path":"C:\\WINDOWS\\hxdef100.exe","is_dir":false,"size":70,"created":2},"c:\\ünï\\x":{"path":"C:\\ÜNÏ\\x","is_dir":false,"size":2,"created":null}}}"#;

    #[test]
    fn json_encoding_is_pinned_and_round_trips_byte_for_byte() {
        let mut meta = ScanMeta::new(ViewKind::LowLevelMft, Tick(7));
        meta.io.record_api_call();
        meta.io.record_entries(3);
        meta.io.record_sequential(4096);
        let mut s: Snapshot<FileFact> = Snapshot::new(meta);
        let fact = |path: &str, is_dir: bool, size: u64, created: Option<Tick>| FileFact {
            path: path.to_string(),
            is_dir,
            size,
            created,
        };
        s.insert(
            "c:\\windows\\hxdef100.exe".into(),
            fact("C:\\WINDOWS\\hxdef100.exe", false, 70, Some(Tick(2))),
        );
        s.insert(
            "c:\\windows".into(),
            fact("C:\\WINDOWS", true, 0, Some(Tick(1))),
        );
        s.insert("c:\\a\"b".into(), fact("C:\\a\"b", false, 1, None));
        s.insert("c:\\ünï\\x".into(), fact("C:\\ÜNÏ\\x", false, 2, None));
        s.insert(
            "c:\\windows".into(),
            fact("C:\\Windows", true, 0, Some(Tick(5))),
        );
        assert_eq!(s.to_json().render(), PINNED_JSON);
        let parsed: Snapshot<FileFact> =
            Snapshot::from_json(&JsonValue::parse(PINNED_JSON).unwrap()).unwrap();
        assert_eq!(parsed.to_json().render(), PINNED_JSON);
        assert_eq!(parsed.meta, s.meta);
    }

    #[test]
    fn view_display_names_are_distinct() {
        use std::collections::HashSet;
        let all = [
            ViewKind::HighLevelWin32,
            ViewKind::HighLevelNative,
            ViewKind::LowLevelMft,
            ViewKind::LowLevelHiveParse,
            ViewKind::LowLevelApl,
            ViewKind::LowLevelThreadTable,
            ViewKind::LowLevelHandleTable,
            ViewKind::LowLevelKernelModules,
            ViewKind::OutsideDisk,
            ViewKind::OutsideMountedHives,
            ViewKind::OutsideDump,
        ];
        let names: HashSet<String> = all.iter().map(|v| v.to_string()).collect();
        assert_eq!(names.len(), all.len());
    }
}
