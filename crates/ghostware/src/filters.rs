//! Reusable query-filter bodies for the ghostware corpus.

use std::sync::Arc;
use strider_winapi::{CallContext, PerParent, Query, QueryFilter, Row};

/// Drops every row `hidden` picks, returning whether any went — the
/// body of every pure hider.
pub(crate) fn drop_rows(rows: &mut Vec<Row>, mut hidden: impl FnMut(&Row) -> bool) -> bool {
    let before = rows.len();
    rows.retain(|r| !hidden(r));
    rows.len() != before
}

/// A row's name as the Win32 layer shows it, lowercased: the text a
/// [`NamePatterns`] matches against, for callers that keep the name.
pub(crate) fn lower_name(row: &Row) -> String {
    row.name().to_win32_lossy().to_ascii_lowercase()
}

/// Case-insensitive substring patterns matched against a row's name as
/// [`lower_name`] renders it — cut at the first NUL, a lone surrogate read
/// as U+FFFD, ASCII-case-folded — straight from the name's UTF-16 units,
/// so matching a row allocates nothing.
#[derive(Debug, Clone)]
pub(crate) struct NamePatterns(Vec<Vec<u16>>);

impl NamePatterns {
    pub(crate) fn new<S: AsRef<str>>(patterns: &[S]) -> Self {
        NamePatterns(
            patterns
                .iter()
                .map(|p| p.as_ref().to_ascii_lowercase().encode_utf16().collect())
                .collect(),
        )
    }

    /// Whether the row's name contains any of the patterns.
    pub(crate) fn matches(&self, row: &Row) -> bool {
        let units = row.name().units();
        let name = &units[..units.iter().position(|&u| u == 0).unwrap_or(units.len())];
        self.0.iter().any(|p| {
            p.is_empty()
                || (p.len() <= name.len()
                    && (0..=name.len() - p.len()).any(|at| {
                        p.iter()
                            .enumerate()
                            .all(|(i, &u)| win32_unit(name, at + i) == u)
                    }))
        })
    }
}

/// `name[i]` as the Win32 view decodes and [`lower_name`] folds it.
fn win32_unit(name: &[u16], i: usize) -> u16 {
    const HIGH: std::ops::RangeInclusive<u16> = 0xD800..=0xDBFF;
    const LOW: std::ops::RangeInclusive<u16> = 0xDC00..=0xDFFF;
    let u = name[i];
    let paired = if HIGH.contains(&u) {
        name.get(i + 1).is_some_and(|n| LOW.contains(n))
    } else if LOW.contains(&u) {
        i > 0 && HIGH.contains(&name[i - 1])
    } else {
        return u8::try_from(u).map_or(u, |b| u16::from(b.to_ascii_lowercase()));
    };
    if paired {
        u
    } else {
        0xFFFD
    }
}

/// A filter that removes rows whose name contains any of the given
/// case-insensitive substrings — the workhorse of pattern-based hiders
/// (Hacker Defender's ini patterns, Aphex's prefix, Vanquish's
/// `*vanquish*`).
pub fn hide_names_containing(patterns: &[&str]) -> Arc<dyn QueryFilter> {
    let patterns = NamePatterns::new(patterns);
    Arc::new(move |_: &CallContext, _: &Query, rows: &mut Vec<Row>| {
        drop_rows(rows, |r| patterns.matches(r))
    })
}

/// A filter that removes rows whose *full path* (files) or name contains any
/// pattern — used by folder hiders where the hidden folder name only appears
/// in the path.
pub fn hide_paths_containing(patterns: &[String]) -> Arc<dyn QueryFilter> {
    let names = NamePatterns::new(patterns);
    let patterns: Vec<String> = patterns.iter().map(|p| p.to_ascii_lowercase()).collect();
    Arc::new(move |_: &CallContext, _: &Query, rows: &mut Vec<Row>| {
        // Rows of one listing share their directory: it is rendered and
        // lowercased once, and each row's path is built in one buffer.
        let mut dir = PerParent::default();
        let mut path = String::new();
        drop_rows(rows, |r| {
            let Row::File(f) = r else {
                return names.matches(r);
            };
            path.clear();
            path.push_str(dir.get(f, |d| d.to_display_string().to_ascii_lowercase()));
            path.push('\\');
            let name_at = path.len();
            // A `String` sink never fails.
            let _ = f.name.write_display(&mut path);
            path[name_at..].make_ascii_lowercase();
            patterns.iter().any(|p| path.contains(p.as_str()))
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
    use strider_nt_core::{NtPath, NtString, Pid};
    use strider_support::check::{check, gen, Config};
    use strider_support::prop_assert_eq;
    use strider_support::rng::SplitMix64;
    use strider_winapi::{FileRow, ProcessRow, RegValueRow};

    fn ctx() -> CallContext {
        CallContext::new(Pid(4), "x.exe")
    }

    fn file_row(path: &str) -> Row {
        let path: NtPath = path.parse().unwrap();
        Row::File(FileRow {
            name: path.file_name().unwrap().clone(),
            parent: Arc::new(path.parent().unwrap()),
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

    /// Name units: ASCII in both cases, non-ASCII, NUL, a valid surrogate
    /// pair, both lone surrogate halves and U+FFFD itself.
    const NAME_UNITS: &[u16] = &[
        b'a' as u16,
        b'B' as u16,
        b'.' as u16,
        0xE9,
        0xC9,
        0,
        0xD83D,
        0xDE00,
        0xD800,
        0xDC00,
        0xFFFD,
    ];
    const PATTERN_CHARS: &[char] = &['a', 'b', 'A', 'B', '.', 'é', 'É', '\u{FFFD}', '😀'];

    /// Edge units around the pattern itself (upper-cased) half the time, so
    /// that matches are common.
    fn name_and_pattern(rng: &mut SplitMix64) -> ((Vec<u16>, Vec<u16>), String, bool) {
        let edge = |r: &mut SplitMix64| gen::vec_of(r, 0, 4, |r| *r.choose(NAME_UNITS));
        let len: usize = rng.gen_range(0..4);
        let pattern = (0..len).map(|_| *rng.choose(PATTERN_CHARS)).collect();
        ((edge(rng), edge(rng)), pattern, rng.chance(1, 2))
    }

    fn units_of(
        ((before, after), pattern, embed): &((Vec<u16>, Vec<u16>), String, bool),
    ) -> Vec<u16> {
        let mut units = before.clone();
        if *embed {
            units.extend(pattern.to_ascii_uppercase().encode_utf16());
        }
        units.extend(after);
        units
    }

    #[test]
    fn name_patterns_decide_exactly_what_the_lowered_name_contains() {
        check(
            "name_patterns_decide_exactly_what_the_lowered_name_contains",
            Config::with_cases(3_000),
            name_and_pattern,
            |input| {
                let row = Row::Process(ProcessRow {
                    pid: Pid(8),
                    image_name: NtString::from_units(&units_of(input)),
                    image_path: String::new(),
                });
                let pattern = &input.1;
                prop_assert_eq!(
                    NamePatterns::new(&[pattern]).matches(&row),
                    lower_name(&row).contains(&pattern.to_ascii_lowercase())
                );
                Ok(())
            },
        );
    }

    #[test]
    fn path_patterns_decide_exactly_what_the_lowered_path_contains() {
        check(
            "path_patterns_decide_exactly_what_the_lowered_path_contains",
            Config::with_cases(1_000),
            |rng| {
                let parents = gen::vec_of(rng, 1, 3, |r| gen::vec_of(r, 0, 2, name_and_pattern));
                (
                    parents,
                    gen::vec_of(rng, 0, 8, |r| (r.gen_range(0..3), name_and_pattern(r))),
                )
            },
            |(parents, rows)| {
                if parents.is_empty() {
                    return Ok(()); // shrunk below the generator's invariant
                }
                let name = |input| NtString::from_units(&units_of(input));
                let parents: Vec<Arc<NtPath>> = parents
                    .iter()
                    .map(|dir| Arc::new(NtPath::from_components("C:", dir.iter().map(name))))
                    .collect();
                let mut listing: Vec<Row> = rows
                    .iter()
                    .map(|(i, n)| {
                        Row::File(FileRow {
                            name: name(n),
                            parent: Arc::clone(&parents[i % parents.len()]),
                            is_dir: false,
                            attributes: strider_ntfs::FileAttributes::NORMAL,
                            size: 0,
                        })
                    })
                    .collect();
                // Patterns cut from the first row's full path on either side
                // of its middle, so some straddle the directory and the name.
                let Some(Row::File(first)) = listing.first() else {
                    return Ok(());
                };
                let full: Vec<char> = first.path().to_string().chars().collect();
                let cut = full.len() / 2;
                let patterns: Vec<String> = [full.get(2..cut), full.get(cut..)]
                    .into_iter()
                    .flatten()
                    .map(|p| p.iter().collect())
                    .collect();
                let mut expected = listing.clone();
                expected.retain(|r| match r {
                    Row::File(f) => {
                        let hay = f.path().to_string().to_ascii_lowercase();
                        !patterns
                            .iter()
                            .any(|p| hay.contains(&p.to_ascii_lowercase()))
                    }
                    _ => true,
                });
                hide_paths_containing(&patterns).filter(&ctx(), &Query::ProcessList, &mut listing);
                prop_assert_eq!(listing, expected);
                Ok(())
            },
        );
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
