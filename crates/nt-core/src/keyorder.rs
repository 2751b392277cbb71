//! Key order for directory trees: emitting a tree's entries already sorted
//! by their full-path fold keys, with only sibling names ever compared.
//!
//! A file view's identity keys are [`NtPath::fold_key`](crate::NtPath::fold_key)
//! strings: the root, then `\` and the folded name of each component. Two
//! keys under one directory compare as their last differing component
//! does, so a tree yields its keys in order when each directory's children
//! are sorted by folded name and a subdirectory's subtree is placed where
//! `name\` sorts among its siblings: `a`, `a b` and `a.txt` come before
//! `a\x` (space and `.` sort below `\`), `a_old` after it.
//!
//! Entries that no sibling sort can place — a name containing `\`, whose
//! key runs into a sibling subtree, and the subtrees of sibling directories
//! whose names fold equal, whose keys interleave — are still emitted, but
//! flagged, so the caller can hand them to a sorting backstop.

use std::cmp::Ordering;

/// The separator between key components, as a UTF-16 unit.
const SEPARATOR: u16 = b'\\' as u16;

/// Marks an item listed in no directory of the tree, or a directory whose
/// listing the tree does not hold.
pub const NO_NODE: u32 = u32::MAX;

/// Marks an entry placed directly under the tree's root.
pub const ROOT_PARENT: u32 = u32::MAX;

/// Where one item sits in a tree: the directory node it is listed in and
/// the node it heads (its own listing), each [`NO_NODE`] when absent.
/// Node 0 is the root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeSlot {
    /// The node (directory listing) the item appears in.
    pub node: u32,
    /// The node whose items are the item's children.
    pub heads: u32,
}

/// One emitted item of [`key_order`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placed {
    /// The item's index.
    pub item: u32,
    /// The position, in the emitted sequence, of the directory the item
    /// is listed in, or [`ROOT_PARENT`].
    pub parent: u32,
    /// Whether the item sits at its key's place in the sequence. Items
    /// that do not are emitted after their parent but otherwise anywhere.
    pub in_key_order: bool,
}

/// Folds one name unit as the key renders it
/// ([`NtString::write_fold_key`](crate::NtString::write_fold_key)): ASCII
/// lowercased, any surrogate unit U+FFFD. Every folded unit is a BMP
/// scalar value, so unit order is key (code point, UTF-8 byte) order.
fn key_unit(u: u16) -> u16 {
    match u {
        0xD800..=0xDFFF => 0xFFFD,
        _ => u8::try_from(u).map_or(u, |b| u16::from(b.to_ascii_lowercase())),
    }
}

/// Compares two names by their folded key components.
fn cmp_names(a: &[u16], b: &[u16]) -> Ordering {
    a.iter()
        .map(|&u| key_unit(u))
        .cmp(b.iter().map(|&u| key_unit(u)))
}

/// The interleave rule: whether the subtree of directory `dir` (every key
/// under `dir\`) sorts before sibling `name`.
fn subtree_precedes(dir: &[u16], name: &[u16]) -> bool {
    let dir_prefix = dir.iter().map(|&u| key_unit(u)).chain([SEPARATOR]);
    dir_prefix.lt(name.iter().map(|&u| key_unit(u)))
}

/// Emits the items of a tree so that their keys come out sorted.
///
/// `slots[i]` places item `i`, and `name(i)` is its name; items are given
/// in arrival order, and items whose names fold equal under one directory
/// keep it. Only the `nodes` directory nodes reachable from the root
/// through [`TreeSlot::heads`] are emitted, each item after the directory
/// it is listed in. Each node's children are sorted once, by folded name;
/// no full key is compared.
pub fn key_order<'a>(
    nodes: usize,
    slots: &[TreeSlot],
    name: impl Fn(usize) -> &'a [u16],
) -> Vec<Placed> {
    // Children by node, laid out flat: after the fill, node `n` holds
    // `children[ends[n - 1]..ends[n]]` (from 0 for the root).
    let mut ends = vec![0u32; nodes];
    for slot in slots.iter().filter(|s| s.node != NO_NODE) {
        ends[slot.node as usize] += 1;
    }
    let mut total = 0;
    for end in &mut ends {
        total += *end;
        *end = total - *end;
    }
    let mut children = vec![0u32; total as usize];
    for (i, slot) in slots.iter().enumerate().filter(|(_, s)| s.node != NO_NODE) {
        let end = &mut ends[slot.node as usize];
        children[*end as usize] = i as u32;
        *end += 1;
    }
    let range = |node: u32| {
        let n = node as usize;
        let start = if n == 0 { 0 } else { ends[n - 1] };
        start as usize..ends[n] as usize
    };
    let subtree = |item: u32| {
        let heads = slots[item as usize].heads;
        (heads != NO_NODE && !range(heads).is_empty()).then_some(heads)
    };
    // Opens a directory node's frame: its children sorted once, by folded
    // name, and in arrival order where names fold equal.
    let open = |frames: &mut Vec<Frame>, children: &mut [u32], node: u32, frame: Frame| {
        let span = range(node);
        children[span.clone()].sort_unstable_by(|&a, &b| {
            cmp_names(name(a as usize), name(b as usize)).then(a.cmp(&b))
        });
        frames.push(Frame {
            next: span.start,
            end: span.end,
            ..frame
        });
    };

    let mut out = Vec::with_capacity(children.len());
    // Directories whose subtrees wait for their place among their
    // siblings: `(item, emitted position, in key order)`. Within one
    // frame the top is always the smallest `name\`.
    let mut pending: Vec<(u32, u32, bool)> = Vec::new();
    let mut frames = Vec::new();
    if nodes > 0 {
        let root = Frame::under(ROOT_PARENT, true, 0);
        open(&mut frames, &mut children, 0, root);
    }
    while let Some(frame) = frames.last_mut() {
        let waiting = pending.len() > frame.pending_at;
        let item = (frame.next < frame.end).then(|| children[frame.next]);
        let in_key_order = item
            .is_some_and(|item| frame.in_key_order && !name(item as usize).contains(&SEPARATOR));
        // A waiting subtree goes first once its place has come: at the end
        // of its siblings, or before the first placeable one it precedes.
        let due = waiting
            && match item {
                None => true,
                Some(item) => {
                    in_key_order
                        && subtree_precedes(
                            name(pending[pending.len() - 1].0 as usize),
                            name(item as usize),
                        )
                }
            };
        if due {
            let (dir, at, dir_in_order) = pending.pop().expect("a subtree is waiting");
            let under = Frame::under(at, dir_in_order, pending.len());
            open(&mut frames, &mut children, slots[dir as usize].heads, under);
            continue;
        }
        let Some(item) = item else {
            frames.pop();
            continue;
        };
        frame.next += 1;
        let pending_at = frame.pending_at;
        let at = out.len() as u32;
        out.push(Placed {
            item,
            parent: frame.parent,
            in_key_order,
        });
        let Some(node) = subtree(item) else {
            continue;
        };
        if !in_key_order {
            // Nothing below an unplaceable entry is placeable either.
            let under = Frame::under(at, false, pending.len());
            open(&mut frames, &mut children, node, under);
            continue;
        }
        // Sibling directories whose names fold equal have interleaving
        // subtrees: all of them go to the backstop.
        let mut subtree_in_order = true;
        if let Some(top) = pending[pending_at..].last_mut() {
            if cmp_names(name(top.0 as usize), name(item as usize)).is_eq() {
                top.2 = false;
                subtree_in_order = false;
            }
        }
        pending.push((item, at, subtree_in_order));
    }
    out
}

/// One directory node being emitted.
struct Frame {
    /// Position in the children array of the next child to emit.
    next: usize,
    end: usize,
    /// Emitted position of the directory (or [`ROOT_PARENT`]).
    parent: u32,
    in_key_order: bool,
    /// Pending subtrees below this index belong to enclosing frames.
    pending_at: usize,
}

impl Frame {
    /// A frame for the children of the directory emitted at `parent`,
    /// before its children are known.
    fn under(parent: u32, in_key_order: bool, pending_at: usize) -> Self {
        Frame {
            next: 0,
            end: 0,
            parent,
            in_key_order,
            pending_at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NtPath, NtString};

    /// A tree given as `(parent item or None for the root, name, is_dir)`
    /// per item; every directory heads a node.
    fn emit(items: &[(Option<usize>, &str, bool)]) -> Vec<(String, bool)> {
        let names: Vec<NtString> = items.iter().map(|(_, n, _)| NtString::from(*n)).collect();
        let mut heads = vec![NO_NODE; items.len()];
        let mut nodes = 1;
        for (i, item) in items.iter().enumerate() {
            if item.2 {
                heads[i] = nodes;
                nodes += 1;
            }
        }
        let slots: Vec<TreeSlot> = items
            .iter()
            .enumerate()
            .map(|(i, (parent, _, _))| TreeSlot {
                node: parent.map_or(0, |p| heads[p]),
                heads: heads[i],
            })
            .collect();
        let placed = key_order(nodes as usize, &slots, |i| names[i].units());
        let mut keys: Vec<String> = Vec::new();
        for p in &placed {
            let parent = match p.parent {
                ROOT_PARENT => "c:".to_string(),
                at => keys[at as usize].clone(),
            };
            keys.push(names[p.item as usize].render_under(&parent, &parent).0);
        }
        keys.into_iter()
            .zip(placed.iter().map(|p| p.in_key_order))
            .collect()
    }

    #[test]
    fn subtrees_sit_where_their_name_and_separator_sort() {
        let got = emit(&[
            (None, "a_old", false),
            (None, "A", true),
            (None, "a.txt", false),
            (Some(1), "x", false),
            (None, "a b", true),
            (Some(4), "y", false),
            (None, "a", false),
        ]);
        let keys: Vec<&str> = got.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "c:\\a",
                "c:\\a",
                "c:\\a b",
                "c:\\a b\\y",
                "c:\\a.txt",
                "c:\\a\\x",
                "c:\\a_old"
            ]
        );
        assert!(got.iter().all(|(_, in_order)| *in_order));
    }

    #[test]
    fn unplaceable_entries_are_flagged_with_their_subtrees() {
        let got = emit(&[
            (None, "a", true),
            (None, "A", true),
            (Some(0), "x", false),
            (Some(1), "x", false),
            (None, "b\\c", true),
            (Some(4), "d", false),
            (None, "e", false),
        ]);
        let flagged: Vec<&str> = got
            .iter()
            .filter(|(_, in_order)| !in_order)
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(flagged.len(), 4, "{got:?}");
        for key in ["c:\\a\\x", "c:\\b\\c", "c:\\b\\c\\d"] {
            assert!(flagged.contains(&key), "{key} in {flagged:?}");
        }
        let placed: Vec<&str> = got
            .iter()
            .filter(|(_, in_order)| *in_order)
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(placed, ["c:\\a", "c:\\a", "c:\\e"]);
    }

    #[test]
    fn unit_order_is_key_order() {
        // Surrogates fold to U+FFFD, above every other BMP unit but U+FFFE/F.
        let units = [
            0x41u16, 0x5B, 0x5C, 0x5F, 0x7E, 0xE9, 0xD800, 0xFFFD, 0xFFFE,
        ];
        for &a in &units {
            for &b in &units {
                let key = |u: u16| {
                    NtPath::root_of("c:")
                        .join(NtString::from_units(&[u]))
                        .fold_key()
                };
                assert_eq!(
                    cmp_names(&[a], &[b]),
                    key(a).cmp(&key(b)),
                    "{a:#x} vs {b:#x}"
                );
            }
        }
    }
}
