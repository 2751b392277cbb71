//! Property-based tests over the core data structures and invariants.
//!
//! Runs on the in-tree shrinking harness (`strider_support::check`), which
//! replaced `proptest`: generators are closures over a seeded
//! [`SplitMix64`], properties return `Result<(), String>`, and failures
//! shrink to a minimal counterexample. Shrinking is value-based, so a
//! shrunk input can fall outside a generator's invariant (e.g. an empty
//! name where the generator guaranteed `[a-z][a-z0-9]*`); properties guard
//! those cases with an early `Ok(())`.

use strider_ghostbuster_repro::prelude::*;
use strider_nt_core::{NtPath, NtString, Tick, ROOT_PARENT};
use strider_ntfs::Placement;
use strider_support::check::{check, gen, Config};
use strider_support::fault::FaultPlan;
use strider_support::rng::SplitMix64;
use strider_support::{prop_assert, prop_assert_eq, prop_assert_ne};

// ---------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------

/// The old `"[a-z][a-z0-9]{0,10}"` strategy.
fn name(rng: &mut SplitMix64) -> String {
    gen::name(rng, 1, 11)
}

/// Raw material for a counted name that may embed a NUL: `(a, Some(b))`
/// becomes `a \0 b`; `(a, None)` is just `a`. Kept as plain strings so the
/// harness can shrink them; [`nt_name`] builds the `NtString` in the prop.
fn nt_name_parts(rng: &mut SplitMix64) -> (String, Option<String>) {
    (name(rng), gen::option_of(rng, name))
}

fn nt_name(parts: &(String, Option<String>)) -> NtString {
    match &parts.1 {
        None => NtString::from(parts.0.as_str()),
        Some(b) => {
            let mut units: Vec<u16> = parts.0.encode_utf16().collect();
            units.push(0);
            units.extend(b.encode_utf16());
            NtString::from_units(&units)
        }
    }
}

/// A random file tree as (path components under C:\, contents) pairs.
fn file_tree(rng: &mut SplitMix64) -> Vec<(Vec<String>, Vec<u8>)> {
    gen::vec_of(rng, 0, 24, |r| {
        (gen::vec_of(r, 1, 3, name), gen::bytes(r, 0, 63))
    })
}

// ---------------------------------------------------------------------
// NtString / NtPath
// ---------------------------------------------------------------------

#[test]
fn fold_key_is_idempotent_and_case_insensitive() {
    check(
        "fold_key_is_idempotent_and_case_insensitive",
        Config::default(),
        name,
        |n| {
            let lower = NtString::from(n.to_ascii_lowercase().as_str());
            let upper = NtString::from(n.to_ascii_uppercase().as_str());
            prop_assert_eq!(lower.fold_key(), upper.fold_key());
            prop_assert!(lower.eq_ignore_case(&upper));
            Ok(())
        },
    );
}

#[test]
fn display_string_never_loses_units() {
    check(
        "display_string_never_loses_units",
        Config::default(),
        nt_name_parts,
        |parts| {
            let n = nt_name(parts);
            // Rendering shows every unit (NULs become escapes), so two
            // distinct counted names never collapse to the same display
            // *and* fold key.
            let display = n.to_display_string();
            if n.contains_nul() {
                prop_assert!(display.contains("\\0"));
                prop_assert_ne!(display, n.to_win32_lossy());
            } else {
                prop_assert_eq!(display, n.to_win32_lossy());
            }
            Ok(())
        },
    );
}

#[test]
fn path_roundtrip_through_display() {
    check(
        "path_roundtrip_through_display",
        Config::default(),
        |rng| gen::vec_of(rng, 0, 4, name),
        |parts| {
            if parts.iter().any(String::is_empty) {
                return Ok(()); // shrunk below the generator's invariant
            }
            let mut p = NtPath::root_of("C:");
            for part in parts {
                p = p.join(part.as_str());
            }
            let rendered = p.to_string();
            let reparsed: NtPath = rendered.parse().unwrap();
            prop_assert!(reparsed.eq_ignore_case(&p));
            prop_assert_eq!(reparsed.depth(), parts.len());
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// NTFS volume + raw image parser
// ---------------------------------------------------------------------

#[test]
fn volume_image_roundtrip_preserves_the_file_set() {
    check(
        "volume_image_roundtrip_preserves_the_file_set",
        Config::with_cases(64),
        file_tree,
        |tree| {
            let mut vol = NtfsVolume::new("C:");
            vol.set_clock(Tick(5));
            let mut expected: Vec<String> = Vec::new();
            for (parts, data) in tree {
                if parts.is_empty() || parts.iter().any(String::is_empty) {
                    continue; // shrunk below the generator's invariant
                }
                let mut path = NtPath::root_of("C:");
                for p in &parts[..parts.len() - 1] {
                    path = path.join(p.as_str());
                }
                // A component may already exist as a file; such entries are
                // simply skipped, as the OS would reject them.
                if vol.mkdir_p(&path).is_err() {
                    continue;
                }
                let file = path.join(parts.last().unwrap().as_str());
                if vol.create_file(&file, data).is_ok() {
                    expected.push(file.fold_key());
                }
            }
            expected.sort();
            expected.dedup();

            let raw = VolumeImage::parse(&vol.to_image()).unwrap();
            let mut parsed: Vec<String> =
                raw.file_paths().iter().map(|(p, _)| p.fold_key()).collect();
            parsed.sort();
            prop_assert_eq!(parsed, expected);
            Ok(())
        },
    );
}

#[test]
fn removed_files_never_reappear_in_the_image() {
    check(
        "removed_files_never_reappear_in_the_image",
        Config::with_cases(64),
        file_tree,
        |tree| {
            let mut vol = NtfsVolume::new("C:");
            let mut live: Vec<NtPath> = Vec::new();
            for (parts, data) in tree {
                let Some(first) = parts.first().filter(|p| !p.is_empty()) else {
                    continue; // shrunk below the generator's invariant
                };
                let file = NtPath::root_of("C:").join(first.as_str());
                if vol.create_file(&file, data).is_ok() {
                    live.push(file);
                }
            }
            // Remove every other file.
            let mut removed = Vec::new();
            for (i, f) in live.iter().enumerate() {
                if i % 2 == 0 {
                    vol.remove_file(f).unwrap();
                    removed.push(f.fold_key());
                }
            }
            let raw = VolumeImage::parse(&vol.to_image()).unwrap();
            for (p, _) in raw.file_paths() {
                prop_assert!(!removed.contains(&p.fold_key()));
            }
            Ok(())
        },
    );
}

/// `raw.placement()` places exactly `raw.all_paths()`: every entry once;
/// each tree entry, rendered from its directory's rendering as the file
/// scanners render it, has key `path.fold_key()` and display
/// `path.to_string()`, and those it places in key order come out sorted by
/// key; each orphan carries its `<orphaned>` path. Returns how many of the
/// entries were orphaned.
fn placement_matches_all_paths(raw: &VolumeImage) -> Result<usize, String> {
    let paths = raw.all_paths();
    let Placement { tree, orphans } = raw.placement();
    prop_assert_eq!(tree.len() + orphans.len(), paths.len());
    // `all_paths` lists every entry but the root records, in entry order.
    let mut listed = paths.iter();
    let mut by_index: Vec<_> = (raw.entries().iter())
        .map(|entry| (entry.number.0 != 0).then(|| listed.next()).flatten())
        .collect();
    let mut take = |index: usize| {
        by_index[index]
            .take()
            .ok_or(format!("entry {index} placed twice"))
    };
    let root_key = raw.label().to_ascii_lowercase();
    let mut rendered: Vec<(String, String)> = Vec::with_capacity(tree.len());
    for p in &tree {
        let name = &raw.entries()[p.item as usize].name;
        let (key, display) = match p.parent {
            ROOT_PARENT => name.render_under(&root_key, raw.label()),
            at => name.render_under(&rendered[at as usize].0, &rendered[at as usize].1),
        };
        let (path, _) = take(p.item as usize)?;
        prop_assert_eq!(&key, &path.fold_key());
        prop_assert_eq!(&display, &path.to_string());
        rendered.push((key, display));
    }
    for (index, path) in &orphans {
        let (want, _) = take(*index)?;
        prop_assert_eq!(path, want);
        prop_assert_eq!(path.root(), "<orphaned>");
    }
    let placed: Vec<&String> = (tree.iter().zip(&rendered))
        .filter(|(p, _)| p.in_key_order)
        .map(|(_, (key, _))| key)
        .collect();
    prop_assert!(
        placed.windows(2).all(|w| w[0] <= w[1]),
        "entries placed in key order are not sorted"
    );
    Ok(orphans.len())
}

/// A volume holding a generated tree, with odd-length components in upper
/// case (so keys and displays differ) and `extra` NUL-embedding names at
/// the root.
fn tree_volume(tree: &[(Vec<String>, Vec<u8>)], extra: &[(String, Option<String>)]) -> NtfsVolume {
    let mut vol = NtfsVolume::new("C:");
    for (parts, data) in tree {
        let mut path = NtPath::root_of("C:");
        for part in parts.iter().filter(|p| !p.is_empty()) {
            let part = if part.len() % 2 == 1 {
                part.to_ascii_uppercase()
            } else {
                part.clone()
            };
            path = path.join(part.as_str());
        }
        // Rejected shapes (a component that already exists as a file, a
        // shrunk-empty path) are skipped, as the OS would reject them.
        if let Some(parent) = path.parent() {
            if vol.mkdir_p(&parent).is_ok() {
                let _ = vol.create_file(&path, data);
            }
        }
    }
    for parts in extra {
        let _ = vol.create_file(&NtPath::root_of("C:").join(nt_name(parts)), b"");
    }
    vol
}

/// Re-points `child`'s parent reference at `parent` in a volume image:
/// finds the record by its exact header bytes and patches the field.
fn repoint_parent(image: &mut [u8], child: &RawFileEntry, parent: u64) {
    let mut header = vec![1u8];
    header.extend(child.number.0.to_le_bytes());
    header.extend(child.sequence.to_le_bytes());
    header.extend(child.created.0.to_le_bytes());
    header.extend(child.modified.0.to_le_bytes());
    header.extend(child.attributes.0.to_le_bytes());
    let parent_at = header.len();
    header.extend(child.parent.0.to_le_bytes());
    header.extend((child.name.len() as u16).to_le_bytes());
    header.extend(child.name.units().iter().flat_map(|u| u.to_le_bytes()));
    if let Some(at) = image.windows(header.len()).position(|w| w == header) {
        image[at + parent_at..at + parent_at + 8].copy_from_slice(&parent.to_le_bytes());
    }
}

#[test]
fn rendered_paths_equal_all_paths_on_generated_trees() {
    check(
        "rendered_paths_equal_all_paths_on_generated_trees",
        fault_config(64),
        |rng| (file_tree(rng), gen::vec_of(rng, 0, 4, nt_name_parts)),
        |(tree, extra)| {
            let vol = tree_volume(tree, extra);
            let raw = VolumeImage::parse(&vol.to_image()).unwrap();
            prop_assert_eq!(placement_matches_all_paths(&raw)?, 0);
            Ok(())
        },
    );
}

#[test]
fn rendered_paths_equal_all_paths_on_the_large_workload() {
    let mut machine = Machine::with_base_system("victim").unwrap();
    populate(&mut machine, &WorkloadSpec::large(42)).unwrap();
    let raw = VolumeImage::parse(&machine.try_read_raw_volume_image().unwrap()).unwrap();
    assert!(raw.entries().len() > 30_000);
    assert_eq!(placement_matches_all_paths(&raw), Ok(0));
}

#[test]
fn rendered_paths_equal_all_paths_on_mutated_and_cyclic_images() {
    let mut orphaned = 0;
    check(
        "rendered_paths_equal_all_paths_on_mutated_and_cyclic_images",
        fault_config(2_000),
        |rng| (file_tree(rng), rng.next_u64()),
        |(tree, seed)| {
            let vol = tree_volume(tree, &[]);
            let mut image = vol.to_image();
            let entries = VolumeImage::parse(&image).unwrap().entries().to_vec();
            let mut rng = SplitMix64::seed_from_u64(*seed);
            // Re-point a few parents at random records (cycles included),
            // then overwrite a few random bytes (broken chains, repeated
            // record numbers, truncated tails).
            for _ in 0..rng.next_below(4) {
                if entries.is_empty() {
                    break;
                }
                let child = rng.choose(&entries);
                let parent = rng.choose(&entries).number.0;
                repoint_parent(&mut image, child, parent);
            }
            for _ in 0..rng.next_below(8) {
                let at = rng.next_below(image.len() as u64) as usize;
                image[at] = rng.next_u8();
            }
            orphaned += placement_matches_all_paths(&VolumeImage::parse_salvage(&image).value)?;
            Ok(())
        },
    );
    assert!(
        orphaned > 1_000,
        "only {orphaned} orphaned entries exercised"
    );

    // The two-record cycle: `a` and `b` name each other as parent.
    let mut vol = NtfsVolume::new("C:");
    vol.mkdir_p(&"C:\\a\\b".parse().unwrap()).unwrap();
    let mut image = vol.to_image();
    let raw = VolumeImage::parse(&image).unwrap();
    let a = raw.entries()[1].clone();
    let b = raw.entries()[2].clone();
    repoint_parent(&mut image, &a, b.number.0);
    let raw = VolumeImage::parse(&image).unwrap();
    assert_eq!(placement_matches_all_paths(&raw), Ok(2));
    let displays: Vec<String> = (raw.placement().orphans.iter())
        .map(|(_, path)| path.to_string())
        .collect();
    assert_eq!(displays, ["<orphaned>\\b\\a", "<orphaned>\\a\\b"]);
}

// ---------------------------------------------------------------------
// Hive format
// ---------------------------------------------------------------------

#[test]
fn hive_roundtrip_preserves_values_and_corruption_flags() {
    check(
        "hive_roundtrip_preserves_values_and_corruption_flags",
        Config::with_cases(64),
        |rng| {
            gen::vec_of(rng, 0, 19, |r| {
                (nt_name_parts(r), r.next_u32(), r.chance(1, 2))
            })
        },
        |entries| {
            let mut root = Key::new("SOFTWARE");
            let mut expected = 0usize;
            for (parts, dword, corrupt) in entries {
                let name = nt_name(parts);
                if name.is_empty() {
                    continue; // shrunk below the generator's invariant
                }
                let mut v = Value::new(name, ValueData::Dword(*dword));
                v.corrupt_data = *corrupt;
                if root.set_value(v).is_none() {
                    expected += 1;
                }
            }
            let hive = Hive::from_root(
                "HKLM\\SOFTWARE".parse().unwrap(),
                "C:\\sw".parse().unwrap(),
                root.clone(),
            );
            let raw = RawHive::parse(&hive.to_bytes()).unwrap();
            prop_assert_eq!(raw.root().values.len(), expected);
            for rv in &raw.root().values {
                let orig = root.value(&rv.name).unwrap();
                prop_assert_eq!(rv.corrupt, orig.corrupt_data);
                if !rv.corrupt {
                    prop_assert_eq!(rv.type_code, 4u32);
                }
            }
            Ok(())
        },
    );
}

#[test]
fn hive_parser_never_panics_on_mutated_bytes() {
    check(
        "hive_parser_never_panics_on_mutated_bytes",
        Config::with_cases(64),
        |rng| {
            (
                gen::vec_of(rng, 1, 7, name),
                rng.next_u32() as u16,
                rng.next_u8(),
            )
        },
        |(entries, flip_at, flip_to)| {
            let mut root = Key::new("ROOT");
            for e in entries {
                if e.is_empty() {
                    continue; // shrunk below the generator's invariant
                }
                root.subkey_or_create(&NtString::from(e.as_str()), Tick(1));
            }
            let hive = Hive::from_root(
                "HKLM\\SOFTWARE".parse().unwrap(),
                "C:\\x".parse().unwrap(),
                root,
            );
            let mut bytes = hive.to_bytes();
            let idx = (*flip_at as usize) % bytes.len();
            bytes[idx] = *flip_to;
            // Must return Ok or Err — never panic, never loop.
            let _ = RawHive::parse(&bytes);
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// Kernel: DKOM invariants
// ---------------------------------------------------------------------

#[test]
fn apl_is_always_a_subset_of_the_thread_table_view() {
    check(
        "apl_is_always_a_subset_of_the_thread_table_view",
        Config::with_cases(64),
        |rng| gen::bytes(rng, 0, 39),
        |ops| {
            let mut k = Kernel::with_base_processes();
            let mut spawned: Vec<strider_nt_core::Pid> = Vec::new();
            for (i, op) in ops.iter().enumerate() {
                match op % 4 {
                    0 => {
                        let pid = k
                            .spawn(&format!("p{i}.exe"), "C:\\p.exe".parse().unwrap(), None)
                            .unwrap();
                        spawned.push(pid);
                    }
                    1 => {
                        if let Some(&pid) = spawned.get((*op as usize / 4) % spawned.len().max(1)) {
                            let _ = k.dkom_unlink(pid);
                        }
                    }
                    2 => {
                        if let Some(&pid) = spawned.get((*op as usize / 4) % spawned.len().max(1)) {
                            let _ = k.dkom_relink(pid);
                        }
                    }
                    _ => {
                        if let Some(pid) = spawned.pop() {
                            let _ = k.kill(pid);
                        }
                    }
                }
                let apl = k.active_process_list();
                let threads = k.processes_via_threads();
                for pid in &apl {
                    prop_assert!(threads.contains(pid), "APL member missing from threads");
                }
                // The thread table is exactly the live process set.
                prop_assert_eq!(threads.len(), k.processes().count());
                // APL has no duplicates (links intact).
                let mut sorted = apl.clone();
                sorted.sort();
                sorted.dedup();
                prop_assert_eq!(sorted.len(), apl.len());
            }
            Ok(())
        },
    );
}

#[test]
fn crash_dump_roundtrip_matches_live_views() {
    check(
        "crash_dump_roundtrip_matches_live_views",
        Config::with_cases(64),
        |rng| rng.next_u8(),
        |&unlink_mask| {
            let mut k = Kernel::with_base_processes();
            let mut pids = Vec::new();
            for i in 0..4 {
                pids.push(
                    k.spawn(&format!("x{i}.exe"), "C:\\x.exe".parse().unwrap(), None)
                        .unwrap(),
                );
            }
            for (i, &pid) in pids.iter().enumerate() {
                if unlink_mask & (1 << i) != 0 {
                    k.dkom_unlink(pid).unwrap();
                }
            }
            let dump = MemoryDump::parse(&k.crash_dump()).unwrap();
            prop_assert_eq!(dump.processes_via_apl(), k.active_process_list());
            prop_assert_eq!(dump.processes_via_threads(), k.processes_via_threads());
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// The cross-view diff itself
// ---------------------------------------------------------------------

#[test]
fn diff_partitions_the_truth() {
    check(
        "diff_partitions_the_truth",
        Config::with_cases(64),
        |rng| gen::vec_of(rng, 0, 29, |r| (name(r), r.chance(1, 2))),
        |keys| {
            use strider_ghostbuster::{ScanMeta, Snapshot, ViewKind};
            let mut truth: Snapshot<String> =
                Snapshot::new(ScanMeta::new(ViewKind::LowLevelMft, Tick(1)));
            let mut lie: Snapshot<String> =
                Snapshot::new(ScanMeta::new(ViewKind::HighLevelWin32, Tick(1)));
            // Last occurrence wins for duplicate keys, matching Snapshot::insert.
            let resolved: std::collections::BTreeMap<String, bool> = keys.iter().cloned().collect();
            let mut hidden_expected = std::collections::BTreeSet::new();
            for (k, visible) in &resolved {
                truth.insert(k.clone(), k.clone());
                if *visible {
                    lie.insert(k.clone(), k.clone());
                } else {
                    hidden_expected.insert(k.clone());
                }
            }
            let report = cross_view_diff(&truth, &lie, |key, fact: &String| Detection {
                kind: ResourceKind::File,
                identity: key.to_string(),
                detail: fact.clone(),
                category: None,
                noise: NoiseClass::Suspicious,
            });
            let got: std::collections::BTreeSet<String> = report
                .detections
                .iter()
                .map(|d| d.identity.clone())
                .collect();
            prop_assert_eq!(got, hidden_expected);
            prop_assert!(report.phantom_in_lie.is_empty());
            Ok(())
        },
    );
}

#[test]
fn diff_of_identical_snapshots_is_empty() {
    check(
        "diff_of_identical_snapshots_is_empty",
        Config::with_cases(64),
        |rng| gen::vec_of(rng, 0, 29, name),
        |keys| {
            use strider_ghostbuster::{ScanMeta, Snapshot, ViewKind};
            let mut a: Snapshot<String> =
                Snapshot::new(ScanMeta::new(ViewKind::LowLevelMft, Tick(1)));
            let mut b: Snapshot<String> =
                Snapshot::new(ScanMeta::new(ViewKind::HighLevelWin32, Tick(1)));
            for k in keys {
                a.insert(k.clone(), k.clone());
                b.insert(k.clone(), k.clone());
            }
            let report = cross_view_diff(&a, &b, |key, fact: &String| Detection {
                kind: ResourceKind::File,
                identity: key.to_string(),
                detail: fact.clone(),
                category: None,
                noise: NoiseClass::Suspicious,
            });
            prop_assert!(!report.has_detections());
            prop_assert!(report.phantom_in_lie.is_empty());
            Ok(())
        },
    );
}

/// Keys from a three-letter alphabet, so multisets repeat keys often.
fn key_multiset(rng: &mut SplitMix64) -> Vec<(String, u8)> {
    gen::vec_of(rng, 0, 40, |r| {
        let len = r.gen_range(0..4);
        (gen::string_from(r, b"abc", len), r.next_u8())
    })
}

#[test]
fn snapshot_bulk_build_and_merge_diff_match_ordered_oracles() {
    use std::collections::{BTreeMap, BTreeSet};
    use strider_ghostbuster::{ScanMeta, Snapshot, ViewKind};
    check(
        "snapshot_bulk_build_and_merge_diff_match_ordered_oracles",
        Config::with_cases(256),
        |rng| (key_multiset(rng), key_multiset(rng)),
        |(truth_facts, lie_facts)| {
            let build = |facts: &[(String, u8)], view| {
                let meta = ScanMeta::new(view, Tick(1));
                let bulk = Snapshot::from_facts(meta.clone(), facts.to_vec());
                let mut inserted = Snapshot::new(meta);
                for (key, fact) in facts {
                    inserted.insert(key.clone(), *fact);
                }
                let oracle: BTreeMap<String, u8> = facts.iter().cloned().collect();
                (bulk, inserted, oracle)
            };
            let (truth, truth_inserted, truth_oracle) = build(truth_facts, ViewKind::LowLevelMft);
            let (lie, lie_inserted, lie_oracle) = build(lie_facts, ViewKind::HighLevelWin32);
            for (bulk, inserted, oracle) in [
                (&truth, &truth_inserted, &truth_oracle),
                (&lie, &lie_inserted, &lie_oracle),
            ] {
                let expected: Vec<(&String, &u8)> = oracle.iter().collect();
                prop_assert_eq!(bulk.iter().collect::<Vec<_>>(), expected);
                prop_assert_eq!(inserted.iter().collect::<Vec<_>>(), expected);
                for (key, fact) in oracle {
                    prop_assert_eq!(bulk.get(key), Some(fact));
                }
                prop_assert!(!bulk.contains("d"), "no key holds a `d`");
            }
            let report = cross_view_diff(&truth, &lie, |key, fact: &u8| Detection {
                kind: ResourceKind::File,
                identity: key.to_string(),
                detail: fact.to_string(),
                category: None,
                noise: NoiseClass::Suspicious,
            });
            let truth_keys: BTreeSet<&String> = truth_oracle.keys().collect();
            let lie_keys: BTreeSet<&String> = lie_oracle.keys().collect();
            let hidden: Vec<(String, String)> = truth_keys
                .difference(&lie_keys)
                .map(|key| (key.to_string(), truth_oracle[*key].to_string()))
                .collect();
            let phantoms: Vec<String> = lie_keys
                .difference(&truth_keys)
                .map(|key| key.to_string())
                .collect();
            let detections: Vec<(String, String)> = report
                .detections
                .iter()
                .map(|d| (d.identity.clone(), d.detail.clone()))
                .collect();
            prop_assert_eq!(detections, hidden);
            prop_assert_eq!(report.phantom_in_lie, phantoms);
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// End-to-end: arbitrary pattern hiding is always detected
// ---------------------------------------------------------------------

#[test]
fn any_substring_hider_is_detected_inside_the_box() {
    check(
        "any_substring_hider_is_detected_inside_the_box",
        Config::with_cases(16),
        |rng| gen::lowercase(rng, 4, 8),
        |pattern| {
            use std::sync::Arc;
            if pattern.is_empty() {
                return Ok(()); // shrunk below the generator's invariant
            }
            let mut m = Machine::with_base_system("prop").unwrap();
            let path: NtPath = format!("C:\\windows\\{pattern}-payload.exe")
                .parse()
                .unwrap();
            m.volume_mut().create_file(&path, b"MZ").unwrap();
            let needle = pattern.clone();
            m.install_ntdll_hook(
                "prop-hider",
                vec![QueryKind::Files],
                HookScope::All,
                Arc::new(move |_: &CallContext, _: &Query, rows: &mut Vec<Row>| {
                    let before = rows.len();
                    rows.retain(|r| !r.name().to_win32_lossy().contains(needle.as_str()));
                    rows.len() != before
                }),
            );
            let report = GhostBuster::new().scan_files_inside(&mut m).unwrap();
            // The payload is hidden from the API and must be detected — unless
            // the pattern happens to hide base-system files too, in which case
            // they are *also* detected (never fewer findings than hidden files).
            prop_assert!(report
                .net_detections()
                .iter()
                .any(|d| d.detail == path.to_string()));
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// Unix substrate
// ---------------------------------------------------------------------

#[test]
fn lkm_hiding_is_always_caught_by_the_clean_boot_diff() {
    check(
        "lkm_hiding_is_always_caught_by_the_clean_boot_diff",
        Config::with_cases(32),
        |rng| {
            (
                gen::lowercase(rng, 2, 6),
                gen::vec_of(rng, 1, 5, |r| gen::lowercase(r, 1, 8)),
            )
        },
        |(suffix, files)| {
            if suffix.is_empty() || files.is_empty() || files.iter().any(String::is_empty) {
                return Ok(()); // shrunk below the generator's invariant
            }
            let pattern = format!(".{suffix}");
            let mut m = UnixMachine::with_base_system("prop");
            for f in files {
                m.fs_mut()
                    .create_file(&format!("/usr/lib/{pattern}/{f}"), b"ELF");
            }
            m.load_lkm("prop-kit", &[pattern.as_str()]);
            let lie = m.ls_scan_all();
            prop_assert!(!lie.iter().any(|p| p.contains(pattern.as_str())));
            let gb = UnixGhostBuster::new();
            let report = gb.outside_diff(&m, &lie);
            for f in files {
                let path = format!("/usr/lib/{pattern}/{f}");
                prop_assert!(
                    report.net_detections().iter().any(|d| d.path == path),
                    "missing {path}"
                );
            }
            Ok(())
        },
    );
}

#[test]
fn unix_remove_never_leaves_orphans() {
    check(
        "unix_remove_never_leaves_orphans",
        Config::with_cases(32),
        |rng| gen::vec_of(rng, 0, 19, |r| (gen::lowercase(r, 1, 5), r.chance(1, 2))),
        |ops| {
            if ops.iter().any(|(n, _)| n.is_empty()) {
                return Ok(()); // shrunk below the generator's invariant
            }
            let mut m = UnixMachine::with_base_system("prop");
            for (name, deep) in ops {
                if *deep {
                    m.fs_mut()
                        .create_file(&format!("/tmp/{name}/inner/{name}"), b"x");
                } else {
                    m.fs_mut().create_file(&format!("/tmp/{name}"), b"x");
                }
            }
            for (name, _) in ops {
                let _ = m.fs_mut().remove(&format!("/tmp/{name}"));
            }
            // No file under a removed directory survives.
            for p in m.offline_scan() {
                if let Some(rest) = p.strip_prefix("/tmp/") {
                    let orphaned = ops
                        .iter()
                        .any(|(n, _)| rest.starts_with(&format!("{n}/")) || rest == n.as_str());
                    prop_assert!(!orphaned, "orphan survived: {}", p);
                }
            }
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// Hive: NUL-embedded *key* names
// ---------------------------------------------------------------------

#[test]
fn nul_key_names_roundtrip_and_render_distinctly() {
    check(
        "nul_key_names_roundtrip_and_render_distinctly",
        Config::with_cases(32),
        |rng| (gen::lowercase(rng, 1, 6), gen::lowercase(rng, 1, 6)),
        |(a, b)| {
            if a.is_empty() || b.is_empty() {
                return Ok(()); // shrunk below the generator's invariant
            }
            let mut units: Vec<u16> = a.encode_utf16().collect();
            units.push(0);
            units.extend(b.encode_utf16());
            let sneaky = NtString::from_units(&units);
            let mut root = Key::new("SOFTWARE");
            root.subkey_or_create(&sneaky, Tick(1));
            let hive = Hive::from_root(
                "HKLM\\SOFTWARE".parse().unwrap(),
                "C:\\sw".parse().unwrap(),
                root,
            );
            let raw = RawHive::parse(&hive.to_bytes()).unwrap();
            let recovered = &raw.root().subkeys[0].name;
            prop_assert_eq!(recovered, &sneaky);
            prop_assert!(recovered.to_display_string().contains("\\0"));
            prop_assert_eq!(recovered.to_win32_lossy(), a.clone());
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// SSDT restoration always disables SSDT-level hiding
// ---------------------------------------------------------------------

#[test]
fn ssdt_restore_always_reveals() {
    check(
        "ssdt_restore_always_reveals",
        Config::with_cases(16),
        |rng| gen::lowercase(rng, 4, 8),
        |pattern| {
            use std::sync::Arc;
            use strider_kernel::SyscallId;
            if pattern.is_empty() {
                return Ok(()); // shrunk below the generator's invariant
            }
            let mut m = Machine::with_base_system("prop").unwrap();
            let path: NtPath = format!("C:\\temp\\{pattern}.sys").parse().unwrap();
            m.volume_mut().create_file(&path, b"MZ").unwrap();
            let needle = pattern.clone();
            m.install_ssdt_hook(
                "prop-ssdt",
                SyscallId::NtQueryDirectoryFile,
                vec![QueryKind::Files],
                Arc::new(move |_: &CallContext, _: &Query, rows: &mut Vec<Row>| {
                    let before = rows.len();
                    rows.retain(|r| !r.name().to_win32_lossy().contains(needle.as_str()));
                    rows.len() != before
                }),
            );
            let ctx = m.context_for_name("explorer.exe").unwrap();
            let q = Query::DirectoryEnum {
                path: "C:\\temp".parse().unwrap(),
            };
            let hidden = m.query(&ctx, &q, ChainEntry::Win32).unwrap();
            prop_assert!(hidden.is_empty());
            // The documented countermeasure: direct dispatch-table restoration.
            m.kernel_mut()
                .ssdt_mut()
                .restore(SyscallId::NtQueryDirectoryFile);
            let revealed = m.query(&ctx, &q, ChainEntry::Win32).unwrap();
            prop_assert_eq!(revealed.len(), 1);
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// Cost model: structure of the timing results
// ---------------------------------------------------------------------

#[test]
fn cost_model_is_monotone_in_disk_scale() {
    check(
        "cost_model_is_monotone_in_disk_scale",
        Config::default(),
        |rng| 1.0 + rng.next_f64() * 59.0,
        |&extra_gb| {
            if !(1.0..=60.0).contains(&extra_gb) {
                return Ok(()); // shrunk below the generator's invariant
            }
            let mut profiles = paper_profiles();
            let base = profiles.remove(0);
            let mut bigger = base.clone();
            bigger.disk_used_gb += extra_gb;
            let t_base = CostModel::new(base).file_scan_seconds();
            let t_big = CostModel::new(bigger).file_scan_seconds();
            prop_assert!(t_big > t_base);
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// Fault injection: corrupted images never panic either parser tier, and
// neither tier's peak heap outgrows its input
// ---------------------------------------------------------------------

/// `FAULT_SEED=<n>` re-bases the corruption properties on a chosen seed —
/// the knob `scripts/verify.sh` pins for reproducible CI runs.
fn fault_config(cases: u32) -> Config {
    let mut config = Config::with_cases(cases);
    if let Some(seed) = std::env::var("FAULT_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
    {
        config.seed = seed;
    }
    config
}

/// Heap bytes a parser may hold per input byte, plus a fixed allowance:
/// an untrusted count must never reserve more than the bytes behind it
/// could describe.
const PARSE_BYTES_PER_INPUT_BYTE: u64 = 64;
const PARSE_FIXED_BYTES: u64 = 64 * 1024;

/// Runs `parse` under a `prof` scope on this thread and checks its peak
/// heap footprint against the input-size bound.
fn bounded_parse<T>(
    what: &str,
    input: &[u8],
    parse: impl FnOnce(&[u8]) -> T,
) -> Result<(), String> {
    let scope = strider_support::prof::begin_scope();
    drop(parse(input));
    let peak = scope.end().peak_bytes;
    let bound = PARSE_BYTES_PER_INPUT_BYTE * input.len() as u64 + PARSE_FIXED_BYTES;
    prop_assert!(
        peak <= bound,
        "{what}: peak {peak} B over {} input bytes exceeds {bound} B",
        input.len()
    );
    Ok(())
}

/// Heap bytes per image byte the inside-the-box file truth scan of the
/// 30k-file workload may peak at. Under the strict policy the scan holds
/// the image only until it is parsed, then renders the facts from the
/// parsed entries: it peaks at 2.6 bytes per image byte, where holding the
/// image and a rendered copy of every path beside the facts took 4.3.
const TRUTH_SCAN_PEAK_PER_IMAGE_BYTE: f64 = 3.0;

#[test]
fn file_truth_scan_peak_is_bounded_by_the_image() {
    let mut machine = Machine::with_base_system("victim").unwrap();
    populate(&mut machine, &WorkloadSpec::large(42)).unwrap();
    let image_len = machine.try_read_raw_volume_image().unwrap().len() as f64;
    let scanner = FileScanner::new().with_policy(ScanPolicy::strict());
    let scope = strider_support::prof::begin_scope();
    let truth = scanner.low_scan(&machine).unwrap();
    let peak = scope.end().peak_bytes as f64;
    assert!(truth.len() > 30_000);
    assert!(
        peak <= TRUTH_SCAN_PEAK_PER_IMAGE_BYTE * image_len,
        "low_scan peaked at {peak} B for a {image_len} B image"
    );
}

/// Heap bytes per byte of hive copies the strict inside-the-box Registry
/// truth scan of the 30k-file workload may peak at. It peaks at 6,171,174 B
/// for 1,189,846 B of copies, 5.19 (4.70 on the medium workload): the peak
/// is the parse of the 1.19 MB SOFTWARE hive beside its copy, not the
/// copies themselves.
const REGISTRY_SCAN_PEAK_PER_HIVE_BYTE: f64 = 6.0;

#[test]
fn registry_truth_scan_peak_is_bounded_by_the_hive_copies() {
    let mut machine = Machine::with_base_system("victim").unwrap();
    populate(&mut machine, &WorkloadSpec::large(42)).unwrap();
    let hive_bytes: usize = (machine.registry().hives().iter())
        .map(|hive| machine.try_copy_hive_bytes(hive.mount()).unwrap().len())
        .sum();
    let scanner = RegistryScanner::new().with_policy(ScanPolicy::strict());
    let scope = strider_support::prof::begin_scope();
    let truth = scanner.low_scan(&machine).unwrap();
    let peak = scope.end().peak_bytes as f64;
    assert!(!truth.is_empty());
    assert!(
        peak <= REGISTRY_SCAN_PEAK_PER_HIVE_BYTE * hive_bytes as f64,
        "low_scan peaked at {peak} B for {hive_bytes} B of hive copies"
    );
}

/// Heap bytes per dump byte a crash-dump capture and its parse may peak
/// at, on the 30k-file workload: they peak at 144,542 B for a 40,112 B
/// dump, 3.60.
const DUMP_PEAK_PER_DUMP_BYTE: f64 = 4.0;

#[test]
fn dump_capture_and_parse_peak_is_bounded_by_the_dump() {
    let mut machine = Machine::with_base_system("victim").unwrap();
    populate(&mut machine, &WorkloadSpec::large(42)).unwrap();
    let scope = strider_support::prof::begin_scope();
    let bytes = machine.try_crash_dump().unwrap();
    let dump_len = bytes.len() as f64;
    let dump = MemoryDump::parse(&bytes).unwrap();
    let peak = scope.end().peak_bytes as f64;
    assert!(!dump.processes_via_apl().is_empty());
    assert!(
        peak <= DUMP_PEAK_PER_DUMP_BYTE * dump_len,
        "the dump peaked at {peak} B for a {dump_len} B dump"
    );
}

#[test]
fn fault_corrupted_volume_images_never_panic_either_parser() {
    check(
        "fault_corrupted_volume_images_never_panic_either_parser",
        fault_config(64),
        |rng| (file_tree(rng), rng.next_u64()),
        |(tree, seed)| {
            let mut vol = NtfsVolume::new("C:");
            for (parts, data) in tree {
                let Some(first) = parts.first().filter(|p| !p.is_empty()) else {
                    continue; // shrunk below the generator's invariant
                };
                let _ = vol.create_file(&NtPath::root_of("C:").join(first.as_str()), data);
            }
            let plan = FaultPlan::random(*seed);
            let corrupted = plan.apply(&vol.to_image());
            // Strict tier: Ok or Err, never a panic.
            bounded_parse("volume parse", &corrupted, VolumeImage::parse)?;
            bounded_parse("volume salvage", &corrupted, VolumeImage::parse_salvage)?;
            // Salvage tier: always a value; defects stay within the image.
            let salvaged = VolumeImage::parse_salvage(&corrupted);
            for d in &salvaged.defects {
                prop_assert!(d.offset <= corrupted.len() as u64);
            }
            if plan.is_noop() {
                prop_assert!(salvaged.is_clean());
            }
            Ok(())
        },
    );
}

#[test]
fn fault_corrupted_hives_never_panic_either_parser() {
    check(
        "fault_corrupted_hives_never_panic_either_parser",
        fault_config(64),
        |rng| {
            (
                gen::vec_of(rng, 0, 9, |r| (name(r), r.next_u32())),
                rng.next_u64(),
            )
        },
        |(entries, seed)| {
            let mut root = Key::new("ROOT");
            for (n, dword) in entries {
                if n.is_empty() {
                    continue; // shrunk below the generator's invariant
                }
                let sub = root.subkey_or_create(&NtString::from(n.as_str()), Tick(1));
                sub.set_value(Value::new(n.as_str(), ValueData::Dword(*dword)));
            }
            let hive = Hive::from_root(
                "HKLM\\SOFTWARE".parse().unwrap(),
                "C:\\sw".parse().unwrap(),
                root,
            );
            let plan = FaultPlan::random(*seed);
            let corrupted = plan.apply(&hive.to_bytes());
            bounded_parse("hive parse", &corrupted, RawHive::parse)?;
            bounded_parse("hive salvage", &corrupted, RawHive::parse_salvage)?;
            let salvaged = RawHive::parse_salvage(&corrupted);
            for d in &salvaged.defects {
                prop_assert!(d.offset <= corrupted.len() as u64);
            }
            if plan.is_noop() {
                prop_assert!(salvaged.is_clean());
            }
            Ok(())
        },
    );
}

#[test]
fn fault_corrupted_dumps_never_panic_either_parser() {
    check(
        "fault_corrupted_dumps_never_panic_either_parser",
        fault_config(64),
        |rng| (gen::vec_of(rng, 0, 9, name), rng.next_u64()),
        |(names, seed)| {
            let mut k = Kernel::with_base_processes();
            for n in names {
                if n.is_empty() {
                    continue; // shrunk below the generator's invariant
                }
                let _ = k.spawn(
                    &format!("{n}.exe"),
                    format!("C:\\{n}.exe").parse().unwrap(),
                    None,
                );
            }
            let plan = FaultPlan::random(*seed);
            let corrupted = plan.apply(&k.crash_dump());
            bounded_parse("dump parse", &corrupted, MemoryDump::parse)?;
            bounded_parse("dump salvage", &corrupted, MemoryDump::parse_salvage)?;
            let salvaged = MemoryDump::parse_salvage(&corrupted);
            for d in &salvaged.defects {
                prop_assert!(d.offset <= corrupted.len() as u64);
            }
            if plan.is_noop() {
                prop_assert!(salvaged.is_clean());
            }
            Ok(())
        },
    );
}

#[test]
fn dump_path_count_cannot_reserve_past_its_bytes() {
    // One process record whose image path claims 0xFFFF components
    // backed by a 2-byte tail: the count must not size the allocation.
    let mut dump = b"SDMP1\0\0\0".to_vec();
    dump.extend(1u32.to_le_bytes()); // version
    dump.extend(1u32.to_le_bytes()); // process count
    dump.extend(4u32.to_le_bytes()); // pid
    dump.extend(u32::MAX.to_le_bytes()); // no parent
    dump.extend(0u16.to_le_bytes()); // empty image name
    dump.extend(0u16.to_le_bytes()); // empty path root
    dump.extend(0xFFFFu16.to_le_bytes()); // path component count
    dump.extend(0u16.to_le_bytes()); // one empty component, then EOF
    assert!(MemoryDump::parse(&dump).is_err());
    bounded_parse("crafted dump parse", &dump, MemoryDump::parse).unwrap();
    bounded_parse("crafted dump salvage", &dump, MemoryDump::parse_salvage).unwrap();
}

#[test]
fn fault_chaos_sweeps_always_terminate_with_consistent_health() {
    // The liveness property behind the supervised sweep engine: compose
    // random corruption, transient read failures, and stalls — finite or
    // permanent — on the truth sources, and every sweep still terminates
    // before its deadline on the fake clock, never panics, and reports a
    // health verdict consistent with the injected faults (a pipeline times
    // out iff its source stalls forever).
    check(
        "fault_chaos_sweeps_always_terminate_with_consistent_health",
        fault_config(24),
        |rng| (rng.next_u64(), gen::bytes(rng, 6, 6)),
        |(seed, knobs)| {
            use std::sync::Arc;
            use strider_support::fault::Stall;
            use strider_support::obs::{Clock, FakeClock};

            let knob = |i: usize| knobs.get(i).copied().unwrap_or(0);
            // Stall shape per source: 0 = none, 3 = forever, else finite.
            let stall_of = |k: u8| match k % 4 {
                0 => None,
                3 => Some(Stall::forever()),
                n => Some(Stall::after_polls(u32::from(n) * 3)),
            };
            let volume_forever = knob(0) % 4 == 3;
            let hive_forever = knob(1) % 4 == 3;

            let mut m = Machine::with_base_system("chaos").unwrap();
            HackerDefender::default().infect(&mut m).unwrap();
            // A scan-aware adversary rides along, its tactic and knobs
            // seeded from the case: the liveness and health-consistency
            // properties must hold even when the lie *adapts* to the scan
            // while the truth sources fail underneath it.
            let tactic = match seed % 3 {
                0 => EvasiveTactic::UnhideDuringLowScan {
                    window: seed % 509 + 1,
                },
                1 => EvasiveTactic::RehookAfterSweep {
                    burst: seed % 7 + 2,
                    rehook_after: seed % 61 + 1,
                },
                _ => EvasiveTactic::FlickerHiding {
                    seed: *seed,
                    grace: seed % 9,
                },
            };
            EvasiveGhostware::new(tactic).infect(&mut m).unwrap();
            let mut inject = FaultInjector::new()
                .fail_volume_reads(u32::from(knob(2) % 3))
                .fail_hive_reads(u32::from(knob(3) % 3));
            if knob(4) % 2 == 1 {
                inject = inject.corrupt_volume(FaultPlan::random(*seed));
            }
            if knob(5) % 2 == 1 {
                inject = inject.corrupt_hive(
                    "HKLM\\SOFTWARE".parse().unwrap(),
                    FaultPlan::random(seed.wrapping_add(1)),
                );
            }
            if let Some(stall) = stall_of(knob(0)) {
                inject = inject.stall_volume_reads(stall);
            }
            if let Some(stall) = stall_of(knob(1)) {
                inject = inject.stall_hive_reads(stall);
            }
            m.set_fault_injector(inject);

            let clock = Arc::new(FakeClock::default());
            let report = GhostBuster::new()
                .with_policy(
                    ScanPolicy::resilient()
                        .with_clock(clock.clone())
                        .with_backoff(50_000, 200_000)
                        .with_poll(100_000, 0)
                        .with_pipeline_budget(5_000_000)
                        .with_sweep_budget(40_000_000),
                )
                .inside_sweep(&mut m)
                .map_err(|e| format!("sweep failed outright: {e}"))?;

            // Liveness: the sweep finished before the sweep deadline.
            prop_assert!(
                clock.now_ns() < 40_000_000,
                "sweep ran to {} ns",
                clock.now_ns()
            );

            // Health consistency: a permanently stalled source times out its
            // pipeline, and only a permanently stalled source does — finite
            // stalls, transient failures, and corruption are absorbed by
            // polling, retries, and salvage.
            let timed_out = |s: &PipelineStatus| matches!(s, PipelineStatus::Degraded { reason } if reason == "operation timed out");
            prop_assert_eq!(timed_out(&report.health.files), volume_forever);
            prop_assert_eq!(timed_out(&report.health.registry), hive_forever);
            // Process and module scans read no faulted device.
            prop_assert!(report.health.processes.is_ok());
            prop_assert!(report.health.modules.is_ok());
            Ok(())
        },
    );
}

#[test]
fn fault_plan_application_is_deterministic() {
    check(
        "fault_plan_application_is_deterministic",
        fault_config(64),
        |rng| (gen::bytes(rng, 0, 255), rng.next_u64()),
        |(bytes, seed)| {
            let plan = FaultPlan::random(*seed);
            prop_assert_eq!(plan.apply(bytes), plan.apply(bytes));
            prop_assert!(plan.apply(bytes).len() <= bytes.len().max(1));
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// Histogram sketches
// ---------------------------------------------------------------------

#[test]
fn histogram_sketch_merge_matches_single_recording() {
    // Bucketing is deterministic per value, so merging partition sketches
    // must reproduce the single-sketch bucket map exactly — quantiles are
    // bit-identical, a stronger bound than the sketch's one-bucket
    // relative-error guarantee.
    check(
        "histogram_sketch_merge_matches_single_recording",
        Config::default(),
        |rng| {
            gen::vec_of(rng, 0, 300, |r| {
                // Spread samples across ~7 decades, including exact zeros.
                let value = if r.chance(1, 16) {
                    0.0
                } else {
                    r.next_f64() * 10f64.powi(r.gen_range(0..8u32) as i32)
                };
                (value, r.next_below(4) as usize)
            })
        },
        |samples| {
            let mut single = HistogramSketch::new();
            let mut parts = vec![HistogramSketch::new(); 4];
            for (value, part) in samples {
                single.record(*value);
                parts[part % 4].record(*value);
            }
            let mut merged = HistogramSketch::new();
            for part in &parts {
                merged.merge(part);
            }
            prop_assert_eq!(merged.count(), single.count());
            prop_assert_eq!(merged.bucket_count(), single.bucket_count());
            for pct in [0.0, 25.0, 50.0, 90.0, 99.0, 100.0] {
                prop_assert_eq!(merged.percentile(pct), single.percentile(pct));
            }
            match (merged.mean(), single.mean()) {
                // Partitioning reorders the f64 sum, so the mean may drift
                // by rounding only.
                (Some(a), Some(b)) => {
                    prop_assert!((a - b).abs() <= 1e-9 * b.abs().max(1.0));
                }
                (a, b) => prop_assert_eq!(a.is_none(), b.is_none()),
            }
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// Prometheus exposition: stable, parseable text for any telemetry
// ---------------------------------------------------------------------

/// Arbitrary telemetry contents: a mixed op tape of counter adds, gauge
/// sets, and histogram records with dotted metric names (which the
/// exposition must sanitize into the Prometheus charset).
fn telemetry_ops(rng: &mut SplitMix64) -> Vec<(u8, String, f64)> {
    gen::vec_of(rng, 0, 24, |r| {
        let kind = r.next_below(3) as u8;
        let prefix = ["c", "g", "h"][kind as usize];
        let name = if r.chance(1, 2) {
            format!("{prefix}{}.{}", gen::name(r, 1, 6), gen::name(r, 1, 6))
        } else {
            format!("{prefix}{}", gen::name(r, 1, 8))
        };
        (kind, name, r.next_f64() * 1e9)
    })
}

#[test]
fn prometheus_exposition_is_stable_and_parseable_for_any_telemetry() {
    use strider_support::alert::prom_name;

    check(
        "prometheus_exposition_is_stable_and_parseable_for_any_telemetry",
        Config::with_cases(64),
        telemetry_ops,
        |ops| {
            let telemetry = Telemetry::new();
            for (kind, name, value) in ops {
                match kind {
                    0 => telemetry.counter_add(name, *value as u64),
                    1 => telemetry.gauge_set(name, *value),
                    _ => telemetry.histogram_record(name, *value),
                }
            }
            let report = telemetry.report();
            let expo = report.prometheus();
            let text = expo.render();

            // Stable: rendering is deterministic, and a second exposition
            // built from the same report is byte-identical.
            prop_assert_eq!(&text, &expo.render());
            prop_assert_eq!(&text, &report.prometheus().render());

            // Parseable: every line is either a `# TYPE` header or a
            // `name[{labels}] value` sample in the Prometheus charset.
            for line in text.lines() {
                if let Some(rest) = line.strip_prefix("# TYPE ") {
                    let mut parts = rest.split(' ');
                    let family = parts.next().unwrap_or("");
                    let kind = parts.next().unwrap_or("");
                    prop_assert!(!family.is_empty());
                    prop_assert!(family
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'));
                    prop_assert!(matches!(kind, "counter" | "gauge" | "histogram"));
                    prop_assert!(parts.next().is_none());
                } else {
                    let (metric, value) = line
                        .rsplit_once(' ')
                        .ok_or_else(|| format!("sample line is `name value`: {line:?}"))?;
                    prop_assert!(
                        value == "+Inf" || value == "-Inf" || value.parse::<f64>().is_ok()
                    );
                    let bare = metric.split('{').next().unwrap_or("");
                    prop_assert!(!bare.is_empty());
                    prop_assert!(!bare.starts_with(|c: char| c.is_ascii_digit()));
                    prop_assert!(bare
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'));
                    if metric.len() > bare.len() {
                        prop_assert!(metric.ends_with('}'));
                    }
                }
            }

            // Histogram invariants in the rendered text: cumulative
            // buckets never decrease and the +Inf bucket equals _count.
            for (name, sketch) in &report.histograms {
                let family = prom_name(name);
                let buckets: Vec<u64> = text
                    .lines()
                    .filter(|l| l.starts_with(&format!("{family}_bucket{{le=")))
                    .map(|l| l.rsplit_once(' ').unwrap().1.parse::<u64>().unwrap())
                    .collect();
                prop_assert!(!buckets.is_empty());
                prop_assert!(buckets.windows(2).all(|w| w[0] <= w[1]));
                let count_line = format!("{family}_count {}", sketch.count());
                prop_assert!(text.lines().any(|l| l == count_line));
                prop_assert_eq!(*buckets.last().unwrap(), sketch.count());
            }
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// Crash injection: kill-anywhere durable fleet sweeps
// ---------------------------------------------------------------------

use std::sync::Arc;
use strider_support::fault::CrashPlan;
use strider_support::obs::FakeClock;
use strider_support::store::RecordStore;

/// A tiny deterministic fleet (4 machines, 2 infected) swept serially so
/// the journal's write order is reproducible across runs.
fn crash_fleet() -> FleetRegistry {
    FleetRegistry::seeded(&FleetSpec::clean(4, 4242).with_infected(2)).unwrap()
}

fn crash_scheduler() -> FleetScheduler {
    let detector = GhostBuster::new()
        .with_advanced(AdvancedSource::ThreadTable)
        .with_policy(
            ScanPolicy::resilient()
                .with_clock(Arc::new(FakeClock::default()))
                .with_poll(100_000, 0)
                .with_pipeline_budget(2_000_000)
                .with_sweep_budget(10_000_000),
        );
    FleetScheduler::new(detector).with_workers(1).with_batch(1)
}

fn crash_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("strider-crash-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs a durable sweep into `store` on a fresh fleet and returns the
/// merged report's digest.
fn durable_digest(store: &RecordStore) -> String {
    crash_scheduler()
        .sweep_durable(&mut crash_fleet(), store, DurabilityMode::WalAppend)
        .unwrap()
        .result_digest()
}

#[test]
fn fault_crash_matrix_wal_sweep_resumes_to_identical_digest_at_every_kill_class() {
    let dir = crash_dir("wal-matrix");

    // Reference: an uninterrupted WAL run. The plan never fires but
    // still counts total journal bytes, and the store read-back gives
    // the exact frame boundaries.
    let plan = Arc::new(CrashPlan::never());
    let store = RecordStore::open(dir.join("ref.wal"))
        .unwrap()
        .with_crash_plan(plan.clone());
    let reference = durable_digest(&store);
    let total = plan.written();
    let recovered = store.recover().unwrap();
    assert!(recovered.defects.is_empty());

    // Kill points: every frame boundary (start of each frame, the final
    // good end) plus or minus one byte — the torn-tail class — plus a
    // seeded spread of interior offsets. `FAULT_SEED` re-bases the
    // interior spread, same as the corruption properties.
    let mut offsets: Vec<u64> = Vec::new();
    for boundary in recovered
        .records
        .iter()
        .map(|r| r.offset)
        .chain([recovered.good_end])
    {
        offsets.extend([boundary.saturating_sub(1), boundary, boundary + 1]);
    }
    let seed = std::env::var("FAULT_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(0xC8A5);
    let mut rng = SplitMix64::seed_from_u64(seed);
    for _ in 0..24 {
        offsets.push(1 + rng.next_below(total));
    }
    offsets.retain(|&o| o < total); // killing at/after the end never fires
    offsets.sort_unstable();
    offsets.dedup();
    assert!(offsets.len() > 12, "matrix too small: {offsets:?}");

    for &offset in &offsets {
        let path = dir.join(format!("kill-{offset}.wal"));
        let store = RecordStore::open(&path)
            .unwrap()
            .with_crash_plan(Arc::new(CrashPlan::at_write_byte(offset)));
        let err = crash_scheduler()
            .sweep_durable(&mut crash_fleet(), &store, DurabilityMode::WalAppend)
            .unwrap_err();
        assert!(err.is_injected_crash(), "offset {offset}: {err}");

        // Restart: reopen (repairing any torn tail), fresh fleet, same
        // sweep. The merged digest must match the uninterrupted run.
        let store = RecordStore::open(&path).unwrap();
        let resumed = durable_digest(&store);
        assert_eq!(resumed, reference, "offset {offset} diverged");
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn fault_bit_flipped_checkpoint_falls_back_one_generation_without_panic() {
    check(
        "fault_bit_flipped_checkpoint_falls_back_one_generation_without_panic",
        fault_config(48),
        |rng| (rng.next_u64(), rng.next_u64()),
        |(flip_seed, _)| {
            let dir = std::env::temp_dir().join(format!(
                "strider-bitflip-{}-{flip_seed:016x}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
            let path = dir.join("cp.store");

            // Two appended generations: the file holds the header, the
            // older good frame, then the newest one.
            let store = RecordStore::open(&path).map_err(|e| e.to_string())?;
            store.append(b"generation-one").map_err(|e| e.to_string())?;
            store.append(b"generation-two").map_err(|e| e.to_string())?;
            let clean = store.recover().map_err(|e| e.to_string())?;
            prop_assert_eq!(clean.records.len(), 2);
            let newest = clean.records.last().unwrap();
            let (frame_at, frame_len) = (newest.offset, 24 + newest.payload.len() as u64);

            // Flip one seeded bit somewhere inside the newest frame.
            let mut bytes = std::fs::read(&path).map_err(|e| e.to_string())?;
            let mut rng = SplitMix64::seed_from_u64(*flip_seed);
            let at = (frame_at + rng.next_below(frame_len)) as usize;
            bytes[at] ^= 1 << rng.next_below(8);
            std::fs::write(&path, &bytes).map_err(|e| e.to_string())?;

            // Re-open never panics: it distrusts the damaged frame and
            // repairs the file back to the last generation whose
            // checksum still holds (the repair truncates the file, so
            // the read-back is clean again).
            let damaged_len = bytes.len() as u64;
            let repaired = RecordStore::open(&path)
                .map_err(|e| e.to_string())?
                .recover()
                .map_err(|e| e.to_string())?;
            prop_assert!(!repaired.records.is_empty(), "gen 1 must survive");
            prop_assert_eq!(
                repaired.records[0].payload.as_slice(),
                b"generation-one" as &[u8]
            );
            prop_assert!(repaired.records.len() < 2, "gen 2 must be distrusted");
            prop_assert!(
                repaired.good_end < damaged_len,
                "the repair must have cut the damaged frame"
            );
            let _ = std::fs::remove_dir_all(&dir);
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// Performance attribution: span timing, alloc accounting, PerfReport
// ---------------------------------------------------------------------

use strider_support::json::{FromJson, JsonValue, ToJson};
use strider_support::obs::{SpanGuard, SpanRecord, TelemetryReport};
use strider_support::prof::{self, AllocStats, PerfReport};

/// A random span program: a tape of `(op, advance_ns, alloc_size)` where
/// `op % 5` selects push-span / pop-span / advance-clock / sleep (counted
/// as wait) / allocate-inside-the-open-span. Unbalanced tapes are fine:
/// stray pops are ignored and open spans are closed at the end.
fn span_tape(rng: &mut SplitMix64) -> Vec<(u8, u64, u32)> {
    gen::vec_of(rng, 0, 48, |r| {
        (
            r.next_below(5) as u8,
            r.next_below(1_000_000),
            r.next_below(4_096) as u32,
        )
    })
}

/// Executes a span tape against a fake-clock telemetry while tracking what
/// each span *should* have been charged. Returns the frozen report, the
/// per-span plan `(allocs, alloc_bytes, spawned_child)` indexed by span
/// number (span `i` is named `s{i}`), and the thread's allocation counters
/// around the run. Everything the executor itself needs is pre-allocated
/// before the window opens, so the only in-window, in-span allocations are
/// the deliberate `Vec::with_capacity` ones plus the telemetry's own
/// bookkeeping — which the span machinery charges to the *parent* scope,
/// keeping leaf spans exact.
fn run_span_tape(
    tape: &[(u8, u64, u32)],
) -> (
    TelemetryReport,
    Vec<(u64, u64, bool)>,
    AllocStats,
    AllocStats,
) {
    use strider_support::obs::Clock as _;
    let clock = Arc::new(FakeClock::default());
    let telemetry = Telemetry::with_clock(clock.clone());
    let pushes = tape.iter().filter(|(op, ..)| op % 5 == 0).count();
    let alloc_ops = tape.iter().filter(|(op, ..)| op % 5 == 4).count();
    let names: Vec<String> = (0..pushes).map(|i| format!("s{i}")).collect();
    let mut planned: Vec<(u64, u64, bool)> = vec![(0, 0, false); pushes];
    let mut holder: Vec<Vec<u8>> = Vec::with_capacity(alloc_ops);
    let mut guards: Vec<(usize, SpanGuard)> = Vec::with_capacity(pushes);
    let mut next_push = 0usize;

    let before = prof::thread_stats();
    for &(op, adv, size) in tape {
        match op % 5 {
            0 => {
                if let Some((parent, _)) = guards.last() {
                    planned[*parent].2 = true;
                }
                let guard = telemetry.span(&names[next_push]);
                guards.push((next_push, guard));
                next_push += 1;
            }
            1 => {
                guards.pop();
            }
            2 => clock.advance(adv % 1_000_000),
            3 => clock.sleep_ns(adv % 1_000_000),
            4 => {
                let size = (size as usize % 4_096).max(1);
                if let Some((open, _)) = guards.last() {
                    planned[*open].0 += 1;
                    planned[*open].1 += size as u64;
                }
                holder.push(Vec::with_capacity(size));
            }
            _ => unreachable!(),
        }
    }
    while guards.pop().is_some() {}
    let after = prof::thread_stats();
    drop(holder);
    (telemetry.report(), planned, before, after)
}

#[test]
fn prof_span_self_times_never_exceed_wall_duration() {
    fn walk(span: &SpanRecord) -> Result<(), String> {
        let kids: u64 = span.children.iter().map(|c| c.duration_ns()).sum();
        prop_assert!(
            kids <= span.duration_ns(),
            "children of {} ({kids} ns) overflow the parent ({} ns)",
            span.name,
            span.duration_ns()
        );
        span.children.iter().try_for_each(walk)
    }
    check(
        "prof_span_self_times_never_exceed_wall_duration",
        Config::with_cases(48),
        span_tape,
        |tape| {
            let (report, ..) = run_span_tape(tape);
            report.spans.iter().try_for_each(walk)?;

            // Self time telescopes: work + wait over the whole tree is
            // exactly the root durations, which fit inside the wall.
            let perf = PerfReport::from_telemetry("prop", &report);
            let roots: u64 = report.spans.iter().map(|s| s.duration_ns()).sum();
            prop_assert_eq!(perf.work_ns + perf.wait_ns, roots);
            prop_assert!(perf.work_ns + perf.wait_ns <= perf.wall_ns);
            prop_assert!(perf.hotspots.len() <= 8);
            Ok(())
        },
    );
}

#[test]
fn prof_span_alloc_attribution_sums_to_thread_totals() {
    fn walk(
        span: &SpanRecord,
        planned: &[(u64, u64, bool)],
        seen: &mut (u64, u64),
    ) -> Result<(), String> {
        let index: usize = span.name[1..]
            .parse()
            .map_err(|e| format!("span name {:?}: {e}", span.name))?;
        let (allocs, bytes, spawned_child) = planned[index];
        prop_assert_eq!(spawned_child, !span.children.is_empty());
        // A span's recorded counters are inclusive; its *self* share is
        // what remains after subtracting the direct children.
        let child_allocs: u64 = span.children.iter().map(|c| c.allocs).sum();
        let child_bytes: u64 = span.children.iter().map(|c| c.alloc_bytes).sum();
        prop_assert!(
            child_allocs <= span.allocs,
            "children overflow {}",
            span.name
        );
        prop_assert!(child_bytes <= span.alloc_bytes);
        let self_allocs = span.allocs - child_allocs;
        let self_bytes = span.alloc_bytes - child_bytes;
        if span.children.is_empty() {
            // Leaf spans are exact: span bookkeeping is charged to the
            // parent scope, so only the deliberate allocations remain.
            prop_assert_eq!(self_allocs, allocs);
            prop_assert_eq!(self_bytes, bytes);
        } else {
            // Interior spans absorb their children's open/close
            // bookkeeping on top of what the tape planned.
            prop_assert!(self_allocs >= allocs);
            prop_assert!(self_bytes >= bytes);
        }
        seen.0 += self_allocs;
        seen.1 += self_bytes;
        span.children
            .iter()
            .try_for_each(|c| walk(c, planned, seen))
    }
    check(
        "prof_span_alloc_attribution_sums_to_thread_totals",
        Config::with_cases(48),
        span_tape,
        |tape| {
            let (report, planned, before, after) = run_span_tape(tape);
            let mut attributed = (0u64, 0u64);
            report
                .spans
                .iter()
                .try_for_each(|s| walk(s, &planned, &mut attributed))?;

            // Everything attributed to a span happened on this thread
            // inside the measurement window...
            let delta_allocs = after.allocs - before.allocs;
            let delta_bytes = after.alloc_bytes - before.alloc_bytes;
            prop_assert!(attributed.0 <= delta_allocs);
            prop_assert!(attributed.1 <= delta_bytes);
            // ...and covers at least the tape's deliberate allocations.
            let wanted: (u64, u64) = planned
                .iter()
                .fold((0, 0), |acc, p| (acc.0 + p.0, acc.1 + p.1));
            prop_assert!(attributed.0 >= wanted.0);
            prop_assert!(attributed.1 >= wanted.1);

            // The counters balance: net live bytes moved by exactly
            // allocated-minus-freed over the same window.
            let delta_freed = after.dealloc_bytes - before.dealloc_bytes;
            prop_assert_eq!(
                after.current_bytes - before.current_bytes,
                delta_bytes as i64 - delta_freed as i64
            );
            Ok(())
        },
    );
}

#[test]
fn prof_perf_report_roundtrips_and_critical_path_is_a_root_chain() {
    check(
        "prof_perf_report_roundtrips_and_critical_path_is_a_root_chain",
        Config::with_cases(48),
        span_tape,
        |tape| {
            let (report, ..) = run_span_tape(tape);
            let perf = PerfReport::from_telemetry("prop", &report);

            // JSON round trip through the hermetic codec is lossless.
            let text = perf.to_json().render();
            let parsed = JsonValue::parse(&text).map_err(|e| e.to_string())?;
            let back = PerfReport::from_json(&parsed).map_err(|e| e.to_string())?;
            prop_assert_eq!(&back, &perf);

            // The critical path is a real root-to-leaf chain: each step
            // names a span at that depth (with its exact duration) that is
            // a child of the previous step, and the last step is a leaf.
            if report.spans.is_empty() {
                prop_assert!(perf.critical_path.is_empty());
                return Ok(());
            }
            prop_assert!(!perf.critical_path.is_empty());
            let mut candidates: Vec<&SpanRecord> = report.spans.iter().collect();
            let mut matched: Vec<&SpanRecord> = Vec::new();
            for step in &perf.critical_path {
                matched = candidates
                    .iter()
                    .copied()
                    .filter(|s| s.name == step.name && s.duration_ns() == step.duration_ns)
                    .collect();
                prop_assert!(!matched.is_empty(), "no span matches step {:?}", step.name);
                candidates = matched.iter().flat_map(|s| s.children.iter()).collect();
            }
            prop_assert!(
                matched.iter().any(|s| s.children.is_empty()),
                "the critical path must end at a leaf span"
            );
            Ok(())
        },
    );
}
