//! Scan-result files: the byte format the VM flow exchanges.
//!
//! In the paper's VM-based automation (Section 5), the scanning code inside
//! the guest "will save the scan result file and notify the host machine of
//! its completion"; the host then diffs that file against its own
//! outside-the-box scan. This module is that file format: a line-oriented,
//! versioned serialization of a file-scan [`Snapshot`], written inside the
//! guest and parsed by the host with no shared memory.

use crate::snapshot::{FileFact, ScanMeta, Snapshot, ViewKind};
use std::fmt;
use strider_nt_core::Tick;

const HEADER: &str = "GBSCAN1";
/// Field separator: ASCII Unit Separator, which no NT name can contain at
/// the Win32 layer and which never appears in rendered paths.
const SEP: char = '\x1f';

/// Error produced when parsing a scan-result file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScanFileError {
    /// The header line is missing or wrong.
    BadHeader,
    /// A record line has the wrong number of fields.
    BadRecord {
        /// 1-based line number.
        line: usize,
    },
    /// A numeric field failed to parse.
    BadNumber {
        /// 1-based line number.
        line: usize,
    },
    /// Unknown view tag in the header.
    BadView(String),
}

impl fmt::Display for ScanFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScanFileError::BadHeader => write!(f, "bad scan-file header"),
            ScanFileError::BadRecord { line } => write!(f, "bad record on line {line}"),
            ScanFileError::BadNumber { line } => write!(f, "bad number on line {line}"),
            ScanFileError::BadView(v) => write!(f, "unknown view tag {v}"),
        }
    }
}

impl std::error::Error for ScanFileError {}

fn view_tag(view: ViewKind) -> &'static str {
    match view {
        ViewKind::HighLevelWin32 => "hl-win32",
        ViewKind::HighLevelNative => "hl-native",
        ViewKind::LowLevelMft => "ll-mft",
        ViewKind::LowLevelHiveParse => "ll-hive",
        ViewKind::LowLevelApl => "ll-apl",
        ViewKind::LowLevelThreadTable => "ll-threads",
        ViewKind::LowLevelHandleTable => "ll-handles",
        ViewKind::LowLevelKernelModules => "ll-modules",
        ViewKind::OutsideDisk => "out-disk",
        ViewKind::OutsideMountedHives => "out-hives",
        ViewKind::OutsideDump => "out-dump",
    }
}

fn view_from_tag(tag: &str) -> Option<ViewKind> {
    Some(match tag {
        "hl-win32" => ViewKind::HighLevelWin32,
        "hl-native" => ViewKind::HighLevelNative,
        "ll-mft" => ViewKind::LowLevelMft,
        "ll-hive" => ViewKind::LowLevelHiveParse,
        "ll-apl" => ViewKind::LowLevelApl,
        "ll-threads" => ViewKind::LowLevelThreadTable,
        "ll-handles" => ViewKind::LowLevelHandleTable,
        "ll-modules" => ViewKind::LowLevelKernelModules,
        "out-disk" => ViewKind::OutsideDisk,
        "out-hives" => ViewKind::OutsideMountedHives,
        "out-dump" => ViewKind::OutsideDump,
        _ => return None,
    })
}

/// Serializes a file-scan snapshot to scan-file bytes.
pub fn write_scan_file(snapshot: &Snapshot<FileFact>) -> Vec<u8> {
    let mut out = String::new();
    out.push_str(HEADER);
    out.push(SEP);
    out.push_str(view_tag(snapshot.meta.view));
    out.push(SEP);
    out.push_str(&snapshot.meta.taken_at.0.to_string());
    out.push('\n');
    for (key, fact) in snapshot.iter() {
        out.push_str(key);
        out.push(SEP);
        out.push_str(&fact.path);
        out.push(SEP);
        out.push(if fact.is_dir { 'd' } else { 'f' });
        out.push(SEP);
        out.push_str(&fact.size.to_string());
        out.push(SEP);
        match fact.created {
            Some(t) => out.push_str(&t.0.to_string()),
            None => out.push('-'),
        }
        out.push('\n');
    }
    out.into_bytes()
}

/// Parses scan-file bytes back into a snapshot.
///
/// # Errors
///
/// Returns [`ScanFileError`] on any malformed line.
pub fn parse_scan_file(bytes: &[u8]) -> Result<Snapshot<FileFact>, ScanFileError> {
    let text = String::from_utf8_lossy(bytes);
    let mut lines = text.lines();
    let header = lines.next().ok_or(ScanFileError::BadHeader)?;
    let mut parts = header.split(SEP);
    if parts.next() != Some(HEADER) {
        return Err(ScanFileError::BadHeader);
    }
    let view_tag = parts.next().ok_or(ScanFileError::BadHeader)?;
    let view =
        view_from_tag(view_tag).ok_or_else(|| ScanFileError::BadView(view_tag.to_string()))?;
    let taken: u64 = parts
        .next()
        .ok_or(ScanFileError::BadHeader)?
        .parse()
        .map_err(|_| ScanFileError::BadHeader)?;
    let mut facts = Vec::new();
    for (i, line) in lines.enumerate() {
        let line_no = i + 2;
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(SEP).collect();
        let [key, path, kind, size, created] = fields.as_slice() else {
            return Err(ScanFileError::BadRecord { line: line_no });
        };
        let size: u64 = size
            .parse()
            .map_err(|_| ScanFileError::BadNumber { line: line_no })?;
        let created = if *created == "-" {
            None
        } else {
            Some(Tick(
                created
                    .parse()
                    .map_err(|_| ScanFileError::BadNumber { line: line_no })?,
            ))
        };
        facts.push((
            key.to_string(),
            FileFact {
                path: path.to_string(),
                is_dir: *kind == "d",
                size,
                created,
            },
        ));
    }
    Ok(Snapshot::from_facts(
        ScanMeta::new(view, Tick(taken)),
        facts,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::files::FileScanner;
    use strider_winapi::{ChainEntry, Machine};

    #[test]
    fn roundtrip_preserves_every_fact() {
        let mut m = Machine::with_base_system("t").unwrap();
        let ctx = m.ensure_process("gb.exe", "C:\\gb.exe").unwrap();
        let snap = FileScanner::new()
            .high_scan(&m, &ctx, ChainEntry::Win32)
            .unwrap();
        let bytes = write_scan_file(&snap);
        let parsed = parse_scan_file(&bytes).unwrap();
        assert_eq!(parsed.len(), snap.len());
        assert_eq!(parsed.meta.view, snap.meta.view);
        assert_eq!(parsed.meta.taken_at, snap.meta.taken_at);
        for (key, fact) in snap.iter() {
            assert_eq!(parsed.get(key), Some(fact));
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(
            parse_scan_file(b""),
            Err(ScanFileError::BadHeader)
        ));
        assert!(matches!(
            parse_scan_file(b"NOTGB"),
            Err(ScanFileError::BadHeader)
        ));
        let bad_view = "GBSCAN1\x1fwat\x1f3\n".to_string();
        assert!(matches!(
            parse_scan_file(bad_view.as_bytes()),
            Err(ScanFileError::BadView(_))
        ));
        let bad_record = "GBSCAN1\x1fhl-win32\x1f3\nonly-one-field\n".to_string();
        assert!(matches!(
            parse_scan_file(bad_record.as_bytes()),
            Err(ScanFileError::BadRecord { line: 2 })
        ));
        let bad_num = "GBSCAN1\x1fhl-win32\x1f3\nk\x1fp\x1ff\x1fNaN\x1f-\n".to_string();
        assert!(matches!(
            parse_scan_file(bad_num.as_bytes()),
            Err(ScanFileError::BadNumber { line: 2 })
        ));
    }

    #[test]
    fn special_names_survive() {
        let mut snap = Snapshot::new(ScanMeta::new(ViewKind::HighLevelWin32, Tick(9)));
        snap.insert(
            "c:\\weird name. ".to_string(),
            FileFact {
                path: "C:\\Weird Name. ".to_string(),
                is_dir: false,
                size: 7,
                created: Some(Tick(4)),
            },
        );
        let parsed = parse_scan_file(&write_scan_file(&snap)).unwrap();
        assert_eq!(
            parsed.get("c:\\weird name. ").unwrap().path,
            "C:\\Weird Name. "
        );
    }
}
