//! The cross-view diff engine.
//!
//! "The goal of a cross-view diff is to detect hiding behavior by comparing
//! two snapshots of the same state at exactly the same point in time, but
//! from two different points of view (one through the ghostware and one
//! not)" (paper, Introduction). The engine itself is resource-agnostic: it
//! compares identity-keyed snapshots and hands each truth-only entry to a
//! caller-provided detection builder.

use crate::report::{Detection, DiffReport};
use crate::snapshot::Snapshot;
use std::cmp::Ordering;

/// Diffs a truth-side snapshot against a lie-side snapshot.
///
/// * Every identity in `truth` missing from `lie` becomes a [`Detection`]
///   via `build` — the hidden resources, in truth-key order.
/// * Every identity in `lie` missing from `truth` is reported in
///   [`DiffReport::phantom_in_lie`], in lie-key order; phantoms appear when a
///   view renames an entry (e.g. Win32 truncating a NUL-embedded Registry
///   name) rather than dropping it.
///
/// Both snapshots are key-sorted, so this is one merge-join over the two
/// runs: O(n + m) with no lookups.
pub fn cross_view_diff<T, F>(truth: &Snapshot<T>, lie: &Snapshot<T>, build: F) -> DiffReport
where
    F: Fn(&str, &T) -> Detection,
{
    let mut detections = Vec::new();
    let mut phantom_in_lie = Vec::new();
    let mut truth_facts = truth.iter().peekable();
    let mut lie_keys = lie.iter().map(|(key, _)| key).peekable();
    loop {
        let order = match (truth_facts.peek(), lie_keys.peek()) {
            (None, None) => break,
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (Some((t, _)), Some(l)) => t.cmp(l),
        };
        match order {
            Ordering::Less => {
                let (key, fact) = truth_facts.next().expect("peeked");
                detections.push(build(key, fact));
            }
            Ordering::Greater => {
                phantom_in_lie.push(lie_keys.next().expect("peeked").clone());
            }
            Ordering::Equal => {
                truth_facts.next();
                lie_keys.next();
            }
        }
    }
    DiffReport {
        truth_meta: truth.meta.clone(),
        lie_meta: lie.meta.clone(),
        detections,
        phantom_in_lie,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{NoiseClass, ResourceKind};
    use crate::snapshot::{ScanMeta, ViewKind};
    use strider_nt_core::Tick;

    fn snap(view: ViewKind, keys: &[&str]) -> Snapshot<String> {
        let mut s = Snapshot::new(ScanMeta::new(view, Tick(1)));
        for k in keys {
            s.insert(k.to_string(), k.to_string());
        }
        s
    }

    fn build(key: &str, fact: &str) -> Detection {
        Detection {
            kind: ResourceKind::File,
            identity: key.to_string(),
            detail: fact.to_string(),
            category: None,
            noise: NoiseClass::Suspicious,
        }
    }

    #[test]
    fn identical_snapshots_produce_empty_report() {
        let t = snap(ViewKind::LowLevelMft, &["a", "b"]);
        let l = snap(ViewKind::HighLevelWin32, &["a", "b"]);
        let r = cross_view_diff(&t, &l, |k, f: &String| build(k, f));
        assert!(!r.has_detections());
        assert!(r.phantom_in_lie.is_empty());
    }

    #[test]
    fn truth_only_entries_are_detections() {
        let t = snap(ViewKind::LowLevelMft, &["a", "b", "hidden"]);
        let l = snap(ViewKind::HighLevelWin32, &["a", "b"]);
        let r = cross_view_diff(&t, &l, |k, f: &String| build(k, f));
        assert_eq!(r.detections.len(), 1);
        assert_eq!(r.detections[0].identity, "hidden");
    }

    #[test]
    fn lie_only_entries_are_phantoms() {
        let t = snap(ViewKind::LowLevelMft, &["a"]);
        let l = snap(ViewKind::HighLevelWin32, &["a", "mirage"]);
        let r = cross_view_diff(&t, &l, |k, f: &String| build(k, f));
        assert!(r.detections.is_empty());
        assert_eq!(r.phantom_in_lie, vec!["mirage".to_string()]);
    }

    #[test]
    fn renamed_identity_shows_on_both_sides() {
        // The NUL-truncation case: truth has "run|e\0x", lie has "run|e".
        let t = snap(ViewKind::LowLevelHiveParse, &["run|e\\0x"]);
        let l = snap(ViewKind::HighLevelWin32, &["run|e"]);
        let r = cross_view_diff(&t, &l, |k, f: &String| build(k, f));
        assert_eq!(r.detections.len(), 1);
        assert_eq!(r.phantom_in_lie.len(), 1);
    }
}
