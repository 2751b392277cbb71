//! Backslash-separated NT paths.

use crate::name::NtString;
use std::fmt;
use std::str::FromStr;

/// The Win32 `MAX_PATH` limit in characters; full paths longer than this are
/// invisible to Win32-level enumeration even though NTFS stores them happily.
pub const MAX_PATH: usize = 260;

/// A path in the NT namespace: an optional drive/hive root plus a sequence of
/// [`NtString`] components.
///
/// Used for both filesystem paths (`C:\windows\system32`) and Registry paths
/// (`HKLM\SOFTWARE\Microsoft\Windows\CurrentVersion\Run`). Comparison helpers
/// are case-insensitive, matching NTFS and the configuration manager.
///
/// # Examples
///
/// ```
/// use strider_nt_core::NtPath;
///
/// let p: NtPath = "C:\\windows\\system32\\drivers".parse().unwrap();
/// assert_eq!(p.root(), "C:");
/// assert_eq!(p.components().len(), 3);
/// assert_eq!(p.file_name().unwrap().to_win32_lossy(), "drivers");
/// let parent = p.parent().unwrap();
/// assert_eq!(parent.to_string(), "C:\\windows\\system32");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NtPath {
    root: String,
    components: Vec<NtString>,
}

impl NtPath {
    /// Creates a path holding only a root (drive letter like `C:` or a hive
    /// name like `HKLM`).
    pub fn root_of(root: &str) -> Self {
        Self {
            root: root.to_string(),
            components: Vec::new(),
        }
    }

    /// Creates a path from a root and pre-split components.
    pub fn from_components<I>(root: &str, components: I) -> Self
    where
        I: IntoIterator<Item = NtString>,
    {
        Self {
            root: root.to_string(),
            components: components.into_iter().collect(),
        }
    }

    /// The root element (`C:`, `HKLM`, …).
    pub fn root(&self) -> &str {
        &self.root
    }

    /// The path components below the root.
    pub fn components(&self) -> &[NtString] {
        &self.components
    }

    /// The final component, if any.
    pub fn file_name(&self) -> Option<&NtString> {
        self.components.last()
    }

    /// The path with the final component removed; `None` when at the root.
    pub fn parent(&self) -> Option<NtPath> {
        if self.components.is_empty() {
            return None;
        }
        Some(NtPath {
            root: self.root.clone(),
            components: self.components[..self.components.len() - 1].to_vec(),
        })
    }

    /// Returns a new path with `name` appended.
    pub fn join(&self, name: impl Into<NtString>) -> NtPath {
        let mut p = self.clone();
        p.components.push(name.into());
        p
    }

    /// Removes and returns the final component; `None` at the root.
    pub fn pop(&mut self) -> Option<NtString> {
        self.components.pop()
    }

    /// Number of components below the root.
    pub fn depth(&self) -> usize {
        self.components.len()
    }

    /// Case-insensitive prefix test (root must match case-insensitively too).
    pub fn starts_with(&self, prefix: &NtPath) -> bool {
        if !self.root.eq_ignore_ascii_case(&prefix.root) {
            return false;
        }
        if prefix.components.len() > self.components.len() {
            return false;
        }
        prefix
            .components
            .iter()
            .zip(&self.components)
            .all(|(a, b)| a.eq_ignore_case(b))
    }

    /// Case-insensitive whole-path equality.
    pub fn eq_ignore_case(&self, other: &NtPath) -> bool {
        self.root.eq_ignore_ascii_case(&other.root)
            && self.components.len() == other.components.len()
            && self.starts_with(other)
    }

    /// A case-folded key suitable for hash maps keyed case-insensitively,
    /// rendered into one allocation.
    pub fn fold_key(&self) -> String {
        let mut key = String::with_capacity(self.char_len());
        key.push_str(&self.root);
        key.make_ascii_lowercase();
        for c in &self.components {
            key.push('\\');
            // A `String` sink never fails.
            let _ = c.write_fold_key(&mut key);
        }
        key
    }

    /// The display form (what `Display` prints), rendered into one
    /// allocation.
    pub fn to_display_string(&self) -> String {
        let mut out = String::with_capacity(self.char_len());
        // A `String` sink never fails.
        let _ = self.write_display(&mut out);
        out
    }

    fn write_display<W: fmt::Write + ?Sized>(&self, out: &mut W) -> fmt::Result {
        out.write_str(&self.root)?;
        for c in &self.components {
            out.write_char('\\')?;
            c.write_display(out)?;
        }
        Ok(())
    }

    /// Total length in characters of the rendered path, used for the Win32
    /// [`MAX_PATH`] check.
    pub fn char_len(&self) -> usize {
        self.root.len() + self.components.iter().map(|c| 1 + c.len()).sum::<usize>()
    }

    /// Whether the full path fits within the Win32 [`MAX_PATH`] limit *and*
    /// every component is Win32-legal. Paths failing this are reachable only
    /// through the native API.
    pub fn is_win32_visible(&self) -> bool {
        self.char_len() <= MAX_PATH && self.components.iter().all(NtString::is_win32_legal)
    }
}

impl fmt::Display for NtPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_display(f)
    }
}

/// Error returned when parsing a textual path fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseNtPathError {
    /// The input was empty.
    Empty,
    /// A component between separators was empty (`C:\\a\\\\b`).
    EmptyComponent,
}

impl fmt::Display for ParseNtPathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseNtPathError::Empty => write!(f, "path is empty"),
            ParseNtPathError::EmptyComponent => write!(f, "path contains an empty component"),
        }
    }
}

impl std::error::Error for ParseNtPathError {}

impl FromStr for NtPath {
    type Err = ParseNtPathError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.is_empty() {
            return Err(ParseNtPathError::Empty);
        }
        let mut parts = s.split('\\');
        let root = parts.next().unwrap_or("").to_string();
        if root.is_empty() {
            return Err(ParseNtPathError::Empty);
        }
        let mut components = Vec::new();
        for p in parts {
            if p.is_empty() {
                return Err(ParseNtPathError::EmptyComponent);
            }
            components.push(NtString::from(p));
        }
        Ok(NtPath { root, components })
    }
}

// ---------------------------------------------------------------------
// JSON serialization (see `strider_support::json`, replacing the former
// serde derives)
// ---------------------------------------------------------------------

strider_support::impl_json!(struct NtPath { root, components });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_roundtrip() {
        let p: NtPath = "C:\\windows\\system32".parse().unwrap();
        assert_eq!(p.to_string(), "C:\\windows\\system32");
        assert_eq!(p.root(), "C:");
        assert_eq!(p.depth(), 2);
    }

    #[test]
    fn parse_rejects_empty_and_empty_components() {
        assert_eq!("".parse::<NtPath>(), Err(ParseNtPathError::Empty));
        assert_eq!(
            "C:\\a\\\\b".parse::<NtPath>(),
            Err(ParseNtPathError::EmptyComponent)
        );
    }

    #[test]
    fn registry_roots_parse() {
        let p: NtPath = "HKLM\\SOFTWARE\\Microsoft\\Windows\\CurrentVersion\\Run"
            .parse()
            .unwrap();
        assert_eq!(p.root(), "HKLM");
        assert_eq!(p.depth(), 5);
    }

    #[test]
    fn join_parent_file_name() {
        let p = NtPath::root_of("C:").join("windows").join("notepad.exe");
        assert_eq!(p.file_name().unwrap().to_win32_lossy(), "notepad.exe");
        assert_eq!(p.parent().unwrap().to_string(), "C:\\windows");
        assert!(NtPath::root_of("C:").parent().is_none());
    }

    #[test]
    fn case_insensitive_prefix_and_equality() {
        let a: NtPath = "C:\\Windows\\System32".parse().unwrap();
        let b: NtPath = "c:\\WINDOWS".parse().unwrap();
        assert!(a.starts_with(&b));
        assert!(!b.starts_with(&a));
        let c: NtPath = "c:\\windows\\system32".parse().unwrap();
        assert!(a.eq_ignore_case(&c));
        assert_eq!(a.fold_key(), c.fold_key());
    }

    #[test]
    fn max_path_visibility() {
        let mut p = NtPath::root_of("C:");
        for _ in 0..30 {
            p = p.join("aaaaaaaaaaaaaaaaaaaa"); // 21 chars per component
        }
        assert!(p.char_len() > MAX_PATH);
        assert!(!p.is_win32_visible());
        let q: NtPath = "C:\\windows".parse().unwrap();
        assert!(q.is_win32_visible());
    }

    #[test]
    fn win32_visibility_considers_component_legality() {
        let p = NtPath::root_of("C:").join("temp.");
        assert!(!p.is_win32_visible());
    }

    #[test]
    fn char_len_counts_separators() {
        let p: NtPath = "C:\\ab\\c".parse().unwrap();
        // "C:" (2) + "\ab" (3) + "\c" (2)
        assert_eq!(p.char_len(), 7);
    }
}
