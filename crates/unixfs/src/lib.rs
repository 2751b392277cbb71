//! A minimal Unix substrate for the paper's Section 5 Linux/Unix
//! experiments.
//!
//! Unix ghostware hides resources with two techniques the paper exercises:
//!
//! * **LKM syscall interception** — a Loadable Kernel Module hooks
//!   `getdents` (and friends) in the syscall table and filters directory
//!   entries matching its patterns (Darkside, Superkit, Synapsis, Knark);
//! * **trojaned utilities** — T0rnkit replaces `ls` itself, so `echo *`
//!   (which globs through `getdents` directly) already disagrees with `ls`.
//!
//! The cross-view diff is the same as on Windows: an inside-the-box `ls -R`
//! scan (through the trojaned binary *and* the hooked syscall table) versus
//! a clean scan — either `echo *`-style direct syscalls inside the box, or
//! an offline scan from a bootable CD where neither the LKM nor the trojan
//! binary runs.
//!
//! # Examples
//!
//! ```
//! use strider_unixfs::UnixMachine;
//!
//! let mut m = UnixMachine::with_base_system("ux1");
//! m.fs_mut().create_file("/usr/lib/.superkit/sk", b"ELF");
//! m.load_lkm("superkit", &[".superkit"]);
//! let inside: Vec<String> = m.ls_scan_all();
//! let truth: Vec<String> = m.offline_scan();
//! assert!(truth.iter().any(|p| p.contains(".superkit")));
//! assert!(!inside.iter().any(|p| p.contains(".superkit")));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt;

/// Error type for Unix filesystem operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnixFsError {
    /// No entry at the path.
    NotFound(String),
    /// The path's parent does not exist or is a file.
    BadParent(String),
    /// An entry already exists at the path.
    AlreadyExists(String),
    /// The path names a directory where a file was required.
    IsADirectory(String),
}

impl fmt::Display for UnixFsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnixFsError::NotFound(p) => write!(f, "not found: {p}"),
            UnixFsError::BadParent(p) => write!(f, "bad parent for: {p}"),
            UnixFsError::AlreadyExists(p) => write!(f, "already exists: {p}"),
            UnixFsError::IsADirectory(p) => write!(f, "is a directory: {p}"),
        }
    }
}

impl std::error::Error for UnixFsError {}

/// One filesystem node.
#[derive(Debug, Clone, PartialEq, Eq)]
struct UnixNode {
    /// Whether the node is a directory.
    pub is_dir: bool,
    /// File contents (empty for directories).
    pub data: Vec<u8>,
}

/// A small case-sensitive Unix filesystem: absolute paths to nodes.
///
/// Paths are `/`-separated absolute strings; the root `/` always exists.
#[derive(Debug, Clone, Default)]
pub struct UnixFs {
    nodes: BTreeMap<String, UnixNode>,
}

fn parent_of(path: &str) -> Option<&str> {
    if path == "/" {
        return None;
    }
    match path.rfind('/') {
        Some(0) => Some("/"),
        Some(i) => Some(&path[..i]),
        None => None,
    }
}

impl UnixFs {
    /// Creates a filesystem containing only `/`.
    pub fn new() -> Self {
        let mut nodes = BTreeMap::new();
        nodes.insert(
            "/".to_string(),
            UnixNode {
                is_dir: true,
                data: Vec::new(),
            },
        );
        Self { nodes }
    }

    /// Whether a node exists.
    pub fn exists(&self, path: &str) -> bool {
        self.nodes.contains_key(path)
    }

    /// Fetches a node.
    fn node(&self, path: &str) -> Option<&UnixNode> {
        self.nodes.get(path)
    }

    /// Creates a directory and any missing ancestors.
    pub fn mkdir_p(&mut self, path: &str) {
        if path == "/" {
            return;
        }
        if let Some(parent) = parent_of(path) {
            let parent = parent.to_string();
            self.mkdir_p(&parent);
        }
        self.nodes.entry(path.to_string()).or_insert(UnixNode {
            is_dir: true,
            data: Vec::new(),
        });
    }

    /// Creates a file, creating parent directories as needed. Overwrites an
    /// existing file at the path.
    pub fn create_file(&mut self, path: &str, data: &[u8]) {
        if let Some(parent) = parent_of(path) {
            let parent = parent.to_string();
            self.mkdir_p(&parent);
        }
        self.nodes.insert(
            path.to_string(),
            UnixNode {
                is_dir: false,
                data: data.to_vec(),
            },
        );
    }

    /// Appends to a file, creating it if missing.
    pub fn append_file(&mut self, path: &str, data: &[u8]) {
        if !self.exists(path) {
            self.create_file(path, data);
            return;
        }
        if let Some(node) = self.nodes.get_mut(path) {
            node.data.extend_from_slice(data);
        }
    }

    /// Removes a file or an entire directory subtree.
    ///
    /// # Errors
    ///
    /// Fails when the path does not exist.
    pub fn remove(&mut self, path: &str) -> Result<(), UnixFsError> {
        if !self.exists(path) {
            return Err(UnixFsError::NotFound(path.to_string()));
        }
        let prefix = if path == "/" {
            "/".to_string()
        } else {
            format!("{path}/")
        };
        self.nodes
            .retain(|p, _| p != path && !p.starts_with(&prefix));
        Ok(())
    }

    /// Reads a file's contents.
    ///
    /// # Errors
    ///
    /// Fails when the path is missing or a directory.
    pub fn read(&self, path: &str) -> Result<&[u8], UnixFsError> {
        let node = self
            .nodes
            .get(path)
            .ok_or_else(|| UnixFsError::NotFound(path.to_string()))?;
        if node.is_dir {
            return Err(UnixFsError::IsADirectory(path.to_string()));
        }
        Ok(&node.data)
    }

    /// Lists the names of direct children of a directory (the raw
    /// `getdents` result, before any interception).
    pub fn list(&self, dir: &str) -> Vec<String> {
        let prefix = if dir == "/" {
            "/".to_string()
        } else {
            format!("{dir}/")
        };
        self.nodes
            .range(prefix.clone()..)
            .take_while(|(p, _)| p.starts_with(&prefix))
            .filter_map(|(p, _)| {
                let rest = &p[prefix.len()..];
                (!rest.is_empty() && !rest.contains('/')).then(|| rest.to_string())
            })
            .collect()
    }

    /// All absolute file paths (directories excluded) — the offline truth.
    fn all_files(&self) -> Vec<String> {
        self.nodes
            .iter()
            .filter(|(_, n)| !n.is_dir)
            .map(|(p, _)| p.clone())
            .collect()
    }

    /// Number of nodes including directories.
    fn node_count(&self) -> usize {
        self.nodes.len()
    }
}

/// A background daemon body: called once per tick with the filesystem and
/// the current clock.
pub type DaemonFn = Box<dyn FnMut(&mut UnixFs, u64) + Send>;

/// A loaded kernel module hooking `getdents` with hide patterns.
#[derive(Debug, Clone, PartialEq, Eq)]
struct LoadedLkm {
    /// Module name (`knark`, `superkit`, …).
    pub name: String,
    /// Substring patterns removed from directory listings.
    pub hide_patterns: Vec<String>,
}

/// The simulated Unix machine: filesystem, syscall table, LKMs, trojaned
/// binaries, and background daemons.
pub struct UnixMachine {
    name: String,
    fs: UnixFs,
    lkms: Vec<LoadedLkm>,
    /// Hide patterns applied by a trojaned `ls` binary (T0rnkit).
    trojaned_ls: Option<Vec<String>>,
    daemons: Vec<DaemonFn>,
    clock: u64,
}

impl fmt::Debug for UnixMachine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("UnixMachine")
            .field("name", &self.name)
            .field("nodes", &self.fs.node_count())
            .field("lkms", &self.lkms)
            .field("trojaned_ls", &self.trojaned_ls.is_some())
            .finish_non_exhaustive()
    }
}

impl UnixMachine {
    /// Creates a machine with a base FHS-style layout.
    pub fn with_base_system(name: &str) -> Self {
        let mut fs = UnixFs::new();
        for d in [
            "/bin",
            "/sbin",
            "/etc",
            "/usr",
            "/usr/bin",
            "/usr/lib",
            "/usr/src",
            "/var",
            "/var/log",
            "/var/run",
            "/tmp",
            "/home",
            "/home/user",
            "/dev",
            "/lib",
        ] {
            fs.mkdir_p(d);
        }
        for (f, data) in [
            ("/bin/ls", &b"ELF ls"[..]),
            ("/bin/sh", b"ELF sh"),
            ("/bin/ps", b"ELF ps"),
            ("/sbin/init", b"ELF init"),
            ("/etc/passwd", b"root:x:0:0"),
            ("/etc/inetd.conf", b"# inetd"),
            ("/var/log/messages", b"boot\n"),
            ("/usr/bin/find", b"ELF find"),
        ] {
            fs.create_file(f, data);
        }
        Self {
            name: name.to_string(),
            fs,
            lkms: Vec::new(),
            trojaned_ls: None,
            daemons: Vec::new(),
            clock: 0,
        }
    }

    /// The machine's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The filesystem (truth access, used by offline scans and tests).
    pub fn fs(&self) -> &UnixFs {
        &self.fs
    }

    /// Mutable filesystem access (rootkit installation, daemons).
    pub fn fs_mut(&mut self) -> &mut UnixFs {
        &mut self.fs
    }

    /// Loads an LKM that hooks `getdents` and hides entries matching any of
    /// the substring patterns.
    pub fn load_lkm(&mut self, name: &str, hide_patterns: &[&str]) {
        self.lkms.push(LoadedLkm {
            name: name.to_string(),
            hide_patterns: hide_patterns.iter().map(|s| s.to_string()).collect(),
        });
    }

    /// Replaces `ls` with a trojaned version hiding the given patterns
    /// (T0rnkit-style).
    pub fn trojan_ls(&mut self, hide_patterns: &[&str]) {
        self.trojaned_ls = Some(hide_patterns.iter().map(|s| s.to_string()).collect());
        self.fs.create_file("/bin/ls", b"ELF trojaned ls");
    }

    /// Registers a background daemon run once per tick (e.g. an FTP daemon
    /// writing transfer logs — the paper's Unix false-positive source).
    pub fn add_daemon(&mut self, daemon: DaemonFn) {
        self.daemons.push(daemon);
    }

    /// Advances the clock, running daemons.
    pub fn tick(&mut self, n: u64) {
        for _ in 0..n {
            self.clock += 1;
            let mut daemons = std::mem::take(&mut self.daemons);
            for d in &mut daemons {
                d(&mut self.fs, self.clock);
            }
            daemons.append(&mut self.daemons);
            self.daemons = daemons;
        }
    }

    /// The current clock.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    fn getdents(&self, dir: &str) -> Vec<String> {
        let mut names = self.fs.list(dir);
        for lkm in &self.lkms {
            names.retain(|n| !lkm.hide_patterns.iter().any(|p| n.contains(p.as_str())));
        }
        names
    }

    /// Lists one directory through the (possibly trojaned) `ls` binary and
    /// the (possibly hooked) syscall table.
    pub fn ls(&self, dir: &str) -> Vec<String> {
        let mut names = self.getdents(dir);
        if let Some(patterns) = &self.trojaned_ls {
            names.retain(|n| !patterns.iter().any(|p| n.contains(p.as_str())));
        }
        names
    }

    /// Lists one directory through direct `getdents` (the `echo *` view):
    /// bypasses the trojaned binary but not LKM hooks.
    fn echo_star(&self, dir: &str) -> Vec<String> {
        self.getdents(dir)
    }

    /// Recursive `ls -R` over the whole tree: the inside-the-box high-level
    /// scan. Hidden directories are not descended into.
    pub fn ls_scan_all(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.scan_dir("/", &mut out, true);
        out
    }

    /// Recursive scan through direct syscalls (`echo *` everywhere).
    pub fn glob_scan_all(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.scan_dir("/", &mut out, false);
        out
    }

    fn scan_dir(&self, dir: &str, out: &mut Vec<String>, via_ls: bool) {
        let names = if via_ls {
            self.ls(dir)
        } else {
            self.echo_star(dir)
        };
        for name in names {
            let path = if dir == "/" {
                format!("/{name}")
            } else {
                format!("{dir}/{name}")
            };
            match self.fs.node(&path) {
                Some(n) if n.is_dir => self.scan_dir(&path, out, via_ls),
                Some(_) => out.push(path),
                None => {}
            }
        }
    }

    /// The clean-boot scan: the same partitions read from a bootable CD
    /// where neither the LKM nor any trojaned binary runs. Directly the
    /// filesystem truth.
    pub fn offline_scan(&self) -> Vec<String> {
        self.fs.all_files()
    }
}

/// Convenient re-exports.
pub mod prelude {
    pub use crate::{DaemonFn, UnixFs, UnixFsError, UnixMachine};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_layout_exists() {
        let m = UnixMachine::with_base_system("u");
        assert!(m.fs().exists("/bin/ls"));
        assert!(m.fs().exists("/var/log/messages"));
        assert!(m.fs().node("/usr").unwrap().is_dir);
    }

    #[test]
    fn list_returns_direct_children_only() {
        let m = UnixMachine::with_base_system("u");
        let root = m.fs().list("/");
        assert!(root.contains(&"bin".to_string()));
        assert!(!root.contains(&"ls".to_string()));
        let bin = m.fs().list("/bin");
        assert!(bin.contains(&"ls".to_string()));
    }

    #[test]
    fn lkm_hides_from_both_ls_and_glob_but_not_offline() {
        let mut m = UnixMachine::with_base_system("u");
        m.fs_mut().create_file("/usr/lib/.sk/backdoor", b"ELF");
        m.load_lkm("superkit", &[".sk"]);
        assert!(!m.ls("/usr/lib").contains(&".sk".to_string()));
        assert!(!m.echo_star("/usr/lib").contains(&".sk".to_string()));
        assert!(m
            .offline_scan()
            .iter()
            .any(|p| p == "/usr/lib/.sk/backdoor"));
        // Hidden directory not descended: file absent from recursive scans.
        assert!(!m.ls_scan_all().iter().any(|p| p.contains(".sk")));
        assert!(!m.glob_scan_all().iter().any(|p| p.contains(".sk")));
    }

    #[test]
    fn trojaned_ls_disagrees_with_echo_star() {
        let mut m = UnixMachine::with_base_system("u");
        m.fs_mut().create_file("/usr/src/.puta/t0rn", b"ELF");
        m.trojan_ls(&[".puta"]);
        assert!(!m.ls("/usr/src").contains(&".puta".to_string()));
        // echo * bypasses the trojaned binary.
        assert!(m.echo_star("/usr/src").contains(&".puta".to_string()));
    }

    #[test]
    fn daemons_churn_on_tick() {
        let mut m = UnixMachine::with_base_system("u");
        m.add_daemon(Box::new(|fs, t| {
            fs.append_file("/var/log/xferlog", format!("t{t}\n").as_bytes());
        }));
        m.tick(3);
        assert_eq!(m.clock(), 3);
        assert!(m.fs().read("/var/log/xferlog").unwrap().len() >= 9);
    }

    #[test]
    fn remove_subtree() {
        let mut m = UnixMachine::with_base_system("u");
        m.fs_mut().create_file("/tmp/a/b/c", b"x");
        m.fs_mut().remove("/tmp/a").unwrap();
        assert!(!m.fs().exists("/tmp/a/b/c"));
        assert!(m.fs().exists("/tmp"));
        assert!(m.fs_mut().remove("/tmp/a").is_err());
    }

    #[test]
    fn read_errors() {
        let m = UnixMachine::with_base_system("u");
        assert!(matches!(
            m.fs().read("/nope"),
            Err(UnixFsError::NotFound(_))
        ));
        assert!(matches!(
            m.fs().read("/bin"),
            Err(UnixFsError::IsADirectory(_))
        ));
    }
}
