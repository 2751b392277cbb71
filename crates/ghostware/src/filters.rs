//! Reusable query-filter bodies for the ghostware corpus.

use std::sync::Arc;
use strider_winapi::{CallContext, Query, QueryFilter, Row};

/// Drops every row `hidden` picks, returning whether any went — the
/// body of every pure hider.
pub(crate) fn drop_rows(rows: &mut Vec<Row>, mut hidden: impl FnMut(&Row) -> bool) -> bool {
    let before = rows.len();
    rows.retain(|r| !hidden(r));
    rows.len() != before
}

/// A row's name, lowercased for case-insensitive pattern matching.
pub(crate) fn lower_name(row: &Row) -> String {
    row.name().to_win32_lossy().to_ascii_lowercase()
}

/// A filter that removes rows whose name contains any of the given
/// case-insensitive substrings — the workhorse of pattern-based hiders
/// (Hacker Defender's ini patterns, Aphex's prefix, Vanquish's
/// `*vanquish*`).
pub fn hide_names_containing(patterns: &[&str]) -> Arc<dyn QueryFilter> {
    let patterns: Vec<String> = patterns.iter().map(|p| p.to_ascii_lowercase()).collect();
    Arc::new(move |_: &CallContext, _: &Query, rows: &mut Vec<Row>| {
        drop_rows(rows, |r| {
            let name = lower_name(r);
            patterns.iter().any(|p| name.contains(p.as_str()))
        })
    })
}

/// A filter that removes rows whose *full path* (files) or name contains any
/// pattern — used by folder hiders where the hidden folder name only appears
/// in the path.
pub fn hide_paths_containing(patterns: &[String]) -> Arc<dyn QueryFilter> {
    let patterns: Vec<String> = patterns.iter().map(|p| p.to_ascii_lowercase()).collect();
    Arc::new(move |_: &CallContext, _: &Query, rows: &mut Vec<Row>| {
        drop_rows(rows, |r| {
            let hay = match r {
                Row::File(f) => f.path.to_string().to_ascii_lowercase(),
                other => lower_name(other),
            };
            patterns.iter().any(|p| hay.contains(p.as_str()))
        })
    })
}

/// A filter that scrubs a substring out of the *data* of one named Registry
/// value — how Urbin and Mersting hide their `AppInit_DLLs` hook while
/// leaving the value itself visible.
pub fn scrub_value_data(value_name: &str, remove: &str) -> Arc<dyn QueryFilter> {
    let value_name = value_name.to_ascii_lowercase();
    let remove = remove.to_string();
    Arc::new(move |_: &CallContext, _: &Query, rows: &mut Vec<Row>| {
        let mut scrubbed = false;
        for row in rows.iter_mut() {
            if let Row::RegValue(v) = row {
                if v.name.to_win32_lossy().to_ascii_lowercase() == value_name {
                    let data = v.data.replace(&remove, "").trim().to_string();
                    scrubbed |= data != v.data;
                    v.data = data;
                }
            }
        }
        scrubbed
    })
}

/// A filter that removes process rows by pid — process hiders that match on
/// pid rather than name (FU's `-ph <pid>` interface, though FU itself uses
/// DKOM and needs no filter).
pub fn hide_pids(pids: Vec<u32>) -> Arc<dyn QueryFilter> {
    Arc::new(move |_: &CallContext, _: &Query, rows: &mut Vec<Row>| {
        drop_rows(
            rows,
            |r| matches!(r, Row::Process(p) if pids.contains(&p.pid.0)),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use strider_nt_core::Pid;
    use strider_winapi::{FileRow, ProcessRow, RegValueRow};

    fn ctx() -> CallContext {
        CallContext::new(Pid(4), "x.exe")
    }

    fn file_row(path: &str) -> Row {
        let path: strider_nt_core::NtPath = path.parse().unwrap();
        Row::File(FileRow {
            name: path.file_name().unwrap().clone(),
            path: path.clone(),
            is_dir: false,
            attributes: strider_ntfs::FileAttributes::NORMAL,
            size: 0,
        })
    }

    #[test]
    fn name_patterns_filter_case_insensitively() {
        let f = hide_names_containing(&["hxdef"]);
        let mut rows = vec![file_row("C:\\HxDef100.exe"), file_row("C:\\notepad.exe")];
        let q = Query::DirectoryEnum {
            path: "C:".parse().unwrap(),
        };
        assert!(f.filter(&ctx(), &q, &mut rows));
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].name().to_win32_lossy(), "notepad.exe");
        assert!(!f.filter(&ctx(), &q, &mut rows), "nothing left to hide");
    }

    #[test]
    fn path_patterns_hide_children_of_hidden_folders() {
        let f = hide_paths_containing(&["\\secret stuff\\".to_string()]);
        let mut rows = vec![
            file_row("C:\\secret stuff\\x.doc"),
            file_row("C:\\public\\y.doc"),
        ];
        let q = Query::DirectoryEnum {
            path: "C:".parse().unwrap(),
        };
        assert!(f.filter(&ctx(), &q, &mut rows));
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn scrub_edits_only_the_named_value() {
        let f = scrub_value_data("AppInit_DLLs", "msvsres.dll");
        let mut rows = vec![
            Row::RegValue(RegValueRow {
                name: "AppInit_DLLs".into(),
                key: "HKLM\\SOFTWARE".parse().unwrap(),
                data: "msvsres.dll".to_string(),
            }),
            Row::RegValue(RegValueRow {
                name: "Other".into(),
                key: "HKLM\\SOFTWARE".parse().unwrap(),
                data: "msvsres.dll untouched".to_string(),
            }),
        ];
        let q = Query::RegEnumValues {
            key: "HKLM\\SOFTWARE".parse().unwrap(),
        };
        assert!(f.filter(&ctx(), &q, &mut rows));
        match (&rows[0], &rows[1]) {
            (Row::RegValue(a), Row::RegValue(b)) => {
                assert_eq!(a.data, "");
                assert!(b.data.contains("msvsres"));
            }
            _ => panic!("rows changed type"),
        }
        assert!(!f.filter(&ctx(), &q, &mut rows), "already scrubbed");
    }

    #[test]
    fn hide_pids_only_affects_process_rows() {
        let f = hide_pids(vec![8]);
        let mut rows = vec![
            Row::Process(ProcessRow {
                pid: Pid(8),
                image_name: "g.exe".into(),
                image_path: "C:\\g.exe".into(),
            }),
            Row::Process(ProcessRow {
                pid: Pid(12),
                image_name: "ok.exe".into(),
                image_path: "C:\\ok.exe".into(),
            }),
            file_row("C:\\a.txt"),
        ];
        assert!(f.filter(&ctx(), &Query::ProcessList, &mut rows));
        assert_eq!(rows.len(), 2);
    }
}
