//! Edge-case and failure-injection tests across the substrate crates.

use strider_ghostbuster_repro::prelude::*;
use strider_nt_core::{NtPath, NtStatus, NtString, Tick, MAX_PATH};

// ---------------------------------------------------------------------
// NTFS
// ---------------------------------------------------------------------

#[test]
fn empty_volume_image_roundtrips() {
    let vol = NtfsVolume::new("C:");
    let raw = VolumeImage::parse(&vol.to_image()).unwrap();
    assert_eq!(raw.entries().len(), 1, "just the root");
    assert!(raw.file_paths().is_empty());
    assert!(raw.all_paths().is_empty(), "root itself is not listed");
}

#[test]
fn max_path_boundary_is_exact() {
    // Build a path of exactly MAX_PATH characters: visible. One more: not.
    let mut p = NtPath::root_of("C:");
    // "C:" is 2 chars; each component adds 1 (separator) + len.
    let remaining = MAX_PATH - p.char_len();
    let comp_len = 50;
    let full_comps = (remaining - 1) / (comp_len + 1);
    for i in 0..full_comps {
        p = p.join(format!("{:049}x", i));
    }
    let leftover = MAX_PATH - p.char_len() - 1;
    assert!(leftover > 0);
    p = p.join("y".repeat(leftover));
    assert_eq!(p.char_len(), MAX_PATH);
    assert!(p.is_win32_visible());
    let over = p.join("z");
    assert!(!over.is_win32_visible());
}

#[test]
fn deep_tree_paths_reconstruct() {
    let mut vol = NtfsVolume::new("C:");
    let mut path = NtPath::root_of("C:");
    for i in 0..40 {
        path = path.join(format!("d{i}"));
    }
    vol.mkdir_p(&path).unwrap();
    vol.create_file(&path.join("leaf.txt"), b"x").unwrap();
    let raw = VolumeImage::parse(&vol.to_image()).unwrap();
    let (p, _) = &raw.file_paths()[0];
    assert_eq!(p.depth(), 41);
    assert!(p.to_string().ends_with("leaf.txt"));
}

#[test]
fn many_alternate_data_streams_roundtrip() {
    let mut vol = NtfsVolume::new("C:");
    vol.create_file(&"C:\\host".parse().unwrap(), b"main")
        .unwrap();
    for i in 0..20 {
        vol.add_stream(&"C:\\host".parse().unwrap(), format!("s{i}"), &[i as u8])
            .unwrap();
    }
    let raw = VolumeImage::parse(&vol.to_image()).unwrap();
    let (_, entry) = &raw.file_paths()[0];
    assert_eq!(entry.ads_names.len(), 20);
    assert_eq!(entry.data_len, 4 + 20);
}

#[test]
fn volume_rejects_writing_through_a_file_as_directory() {
    let mut vol = NtfsVolume::new("C:");
    vol.create_file(&"C:\\f".parse().unwrap(), b"x").unwrap();
    assert!(vol.mkdir_p(&"C:\\f\\sub".parse().unwrap()).is_err());
    assert!(vol.create_file(&"C:\\f\\g".parse().unwrap(), b"y").is_err());
}

// ---------------------------------------------------------------------
// Hive
// ---------------------------------------------------------------------

#[test]
fn empty_hive_roundtrips() {
    let hive = Hive::new("HKLM\\EMPTY".parse().unwrap(), "C:\\e".parse().unwrap());
    let raw = RawHive::parse(&hive.to_bytes()).unwrap();
    assert!(raw.root().values.is_empty());
    assert!(raw.root().subkeys.is_empty());
    assert!(raw.all_values().is_empty());
}

#[test]
fn wide_and_deep_key_trees_roundtrip() {
    let mut root = Key::new("SOFTWARE");
    for i in 0..50 {
        let k = root.subkey_or_create(&NtString::from(format!("wide{i}").as_str()), Tick(1));
        k.set_value(Value::new("v", ValueData::Dword(i)));
    }
    let mut cur = root.subkey_or_create(&NtString::from("deep"), Tick(1));
    for i in 0..30 {
        cur = cur.subkey_or_create(&NtString::from(format!("level{i}").as_str()), Tick(1));
    }
    cur.set_value(Value::new("bottom", ValueData::sz("here")));
    let hive = Hive::from_root(
        "HKLM\\SOFTWARE".parse().unwrap(),
        "C:\\sw".parse().unwrap(),
        root,
    );
    let raw = RawHive::parse(&hive.to_bytes()).unwrap();
    assert_eq!(raw.root().subkeys.len(), 51);
    assert_eq!(raw.all_values().len(), 51);
    let deep_path: Vec<NtString> = std::iter::once(NtString::from("deep"))
        .chain((0..30).map(|i| NtString::from(format!("level{i}").as_str())))
        .collect();
    assert!(raw.descend(&deep_path).is_some());
}

#[test]
fn registry_value_types_render_consistently_across_views() {
    // Every value type must produce identical (identity-relevant) renderings
    // from the live API view and the raw-parse view, or clean machines would
    // show phantom diffs.
    let mut m = Machine::with_base_system("t").unwrap();
    let key: NtPath = "HKLM\\SOFTWARE\\TypeZoo".parse().unwrap();
    m.registry_mut().create_key(&key).unwrap();
    let reg = m.registry_mut();
    reg.set_value(&key, "sz", ValueData::sz("text")).unwrap();
    reg.set_value(
        &key,
        "expand",
        ValueData::ExpandSz(NtString::from("%windir%\\x")),
    )
    .unwrap();
    reg.set_value(&key, "dword", ValueData::Dword(0xabcd))
        .unwrap();
    reg.set_value(&key, "bin", ValueData::Binary(vec![1, 2, 3, 4, 5]))
        .unwrap();
    reg.set_value(
        &key,
        "multi",
        ValueData::MultiSz(vec![NtString::from("a"), NtString::from("b")]),
    )
    .unwrap();

    let gb = GhostBuster::new();
    let ctx = m.ensure_process("ghostbuster.exe", "C:\\gb.exe").unwrap();
    let report = gb.registry_scanner().scan_full_inside(&m, &ctx).unwrap();
    assert!(!report.has_detections(), "{report}");
    assert!(
        report.phantom_in_lie.is_empty(),
        "{:?}",
        report.phantom_in_lie
    );
}

// ---------------------------------------------------------------------
// Kernel
// ---------------------------------------------------------------------

#[test]
fn empty_kernel_dump_roundtrips() {
    let k = Kernel::new();
    let dump = MemoryDump::parse(&k.crash_dump()).unwrap();
    assert!(dump.processes().is_empty());
    assert!(dump.processes_via_apl().is_empty());
    assert!(dump.threads().is_empty());
}

#[test]
fn scheduler_with_no_threads_idles() {
    let mut k = Kernel::new();
    assert!(k.schedule_next().is_none());
}

#[test]
fn mass_spawn_and_kill_preserves_invariants() {
    let mut k = Kernel::with_base_processes();
    let mut pids = Vec::new();
    for i in 0..200 {
        pids.push(
            k.spawn(&format!("w{i}.exe"), "C:\\w.exe".parse().unwrap(), None)
                .unwrap(),
        );
    }
    assert_eq!(k.active_process_list().len(), 209);
    for &pid in pids.iter().step_by(2) {
        k.kill(pid).unwrap();
    }
    assert_eq!(k.active_process_list().len(), 109);
    assert_eq!(k.processes_via_threads().len(), 109);
    // The APL walk order is stable and cycle-free after heavy churn.
    let walk = k.active_process_list();
    let mut dedup = walk.clone();
    dedup.sort();
    dedup.dedup();
    assert_eq!(dedup.len(), walk.len());
}

#[test]
fn driver_reload_after_unload() {
    let mut k = Kernel::new();
    k.load_driver("d1", "C:\\d1.sys".parse().unwrap());
    k.unload_driver("d1").unwrap();
    k.load_driver("d1", "C:\\d1.sys".parse().unwrap());
    assert_eq!(k.drivers().len(), 1);
}

// ---------------------------------------------------------------------
// Machine / chain
// ---------------------------------------------------------------------

#[test]
fn module_query_for_dead_pid_errors() {
    let m = Machine::with_base_system("t").unwrap();
    let ctx = m.context_for_name("explorer.exe").unwrap();
    let err = m.query(
        &ctx,
        &Query::ModuleList {
            pid: strider_nt_core::Pid(9996),
        },
        ChainEntry::Win32,
    );
    assert_eq!(err, Err(NtStatus::NoSuchProcess));
}

#[test]
fn reg_enum_on_value_free_key_returns_empty_not_error() {
    let mut m = Machine::with_base_system("t").unwrap();
    m.registry_mut()
        .create_key(&"HKLM\\SOFTWARE\\EmptyKey".parse().unwrap())
        .unwrap();
    let ctx = m.context_for_name("explorer.exe").unwrap();
    let rows = m
        .query(
            &ctx,
            &Query::RegEnumValues {
                key: "HKLM\\SOFTWARE\\EmptyKey".parse().unwrap(),
            },
            ChainEntry::Win32,
        )
        .unwrap();
    assert!(rows.is_empty());
}

#[test]
fn stacked_hooks_compose_subtractively() {
    // Multiple hiders at different levels: the union of their filters is
    // hidden, and removing one restores exactly its share.
    use std::sync::Arc;
    let mut m = Machine::with_base_system("t").unwrap();
    for name in ["alpha.txt", "beta.txt", "gamma.txt"] {
        m.volume_mut()
            .create_file(&format!("C:\\temp\\{name}").parse().unwrap(), b"x")
            .unwrap();
    }
    let hide = |needle: &'static str| {
        Arc::new(move |_: &CallContext, _: &Query, rows: &mut Vec<Row>| {
            let before = rows.len();
            rows.retain(|r| !r.name().to_win32_lossy().contains(needle));
            rows.len() != before
        })
    };
    m.install_iat_hook(
        "kit-a",
        vec![QueryKind::Files],
        HookScope::All,
        hide("alpha"),
    );
    m.install_ntdll_hook(
        "kit-b",
        vec![QueryKind::Files],
        HookScope::All,
        hide("beta"),
    );
    let ctx = m.context_for_name("explorer.exe").unwrap();
    let q = Query::DirectoryEnum {
        path: "C:\\temp".parse().unwrap(),
    };
    let rows = m.query(&ctx, &q, ChainEntry::Win32).unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].name().to_win32_lossy(), "gamma.txt");
    m.remove_software("kit-a");
    let rows = m.query(&ctx, &q, ChainEntry::Win32).unwrap();
    assert_eq!(rows.len(), 2, "alpha restored, beta still hidden");
}

#[test]
fn corrupt_volume_image_fails_scan_cleanly() {
    struct Garbage;
    impl strider_winapi::RawImageTamper for Garbage {
        fn tamper(&self, mut bytes: Vec<u8>) -> Vec<u8> {
            bytes.truncate(6);
            bytes
        }
    }
    let mut m = Machine::with_base_system("t").unwrap();
    m.add_image_tamper("evil", std::sync::Arc::new(Garbage));
    let ctx = m.context_for_name("explorer.exe").unwrap();
    let err = FileScanner::new().scan_inside(&m, &ctx);
    assert!(matches!(err, Err(NtStatus::CorruptStructure(_))));
}

#[test]
fn context_for_dead_pid_is_none() {
    let m = Machine::with_base_system("t").unwrap();
    assert!(m.context_for(strider_nt_core::Pid(424242)).is_none());
    assert!(m.context_for_name("nope.exe").is_none());
}

/// One gated raw read, preceded by one query so the tap's query distance
/// shows whether the read itself was tapped: the read's result, then the
/// tap's `raw_reads()` and `queries_since_raw_read()` right after it.
fn tapped_read(
    m: &Machine,
    ctx: &CallContext,
    read: impl Fn(&Machine) -> Result<Vec<u8>, NtStatus>,
) -> (Result<Vec<u8>, NtStatus>, u64, Option<u64>) {
    m.query(ctx, &Query::ProcessList, ChainEntry::Native)
        .unwrap();
    let out = read(m);
    let tap = m.scan_tap();
    (out, tap.raw_reads(), tap.queries_since_raw_read())
}

#[test]
fn every_raw_read_runs_stall_then_transient_then_tap_then_read_then_plan() {
    use std::sync::Arc;
    use strider_support::fault::{FaultPlan, Stall};
    use strider_support::obs::{FakeClock, FlightEventKind, FlightRecorder};

    let software: NtPath = "HKLM\\SOFTWARE".parse().unwrap();
    let mut m = Machine::with_base_system("pin").unwrap();
    let ctx = m.context_for_name("explorer.exe").unwrap();
    let clean_volume = m.try_read_raw_volume_image().unwrap();
    let clean_hive = m.try_copy_hive_bytes(&software).unwrap();
    let clean_dump = m.try_crash_dump().unwrap();
    assert_eq!(m.scan_tap().raw_reads(), 3);

    let volume_plan = FaultPlan::new(11).bit_flips(6);
    let hive_plan = FaultPlan::new(12).torn_sectors(1);
    let dump_plan = FaultPlan::new(13).truncate_to(0.5);
    let recorder = FlightRecorder::new(Arc::new(FakeClock::new()));
    m.set_flight_recorder(recorder.clone());
    m.set_fault_injector(
        FaultInjector::new()
            .stall_volume_reads(Stall::after_polls(1))
            .fail_volume_reads(1)
            .corrupt_volume(volume_plan.clone())
            .stall_hive_reads(Stall::after_polls(1))
            .fail_hive_reads(1)
            .corrupt_hive(software.clone(), hive_plan.clone())
            .stall_dump_reads(Stall::after_polls(1))
            .fail_dump_reads(1)
            .corrupt_dump(dump_plan.clone()),
    );

    let volume = |m: &Machine| m.try_read_raw_volume_image();
    let hive = |m: &Machine| m.try_copy_hive_bytes(&software);
    let dump = |m: &Machine| m.try_crash_dump();
    // Stalled and transient reads fail before the tap sees them; the read
    // that gets through is tapped and returns the plan-corrupted bytes.
    let expected = [
        (Err(NtStatus::Pending), 3, Some(1)),
        (Err(NtStatus::DeviceNotReady), 3, Some(2)),
        (Ok(volume_plan.apply(&clean_volume)), 4, Some(0)),
        (Err(NtStatus::Pending), 4, Some(1)),
        (Err(NtStatus::DeviceNotReady), 4, Some(2)),
        (Ok(hive_plan.apply(&clean_hive)), 5, Some(0)),
        // An unknown mount is tapped, then fails hard, with no plan.
        (Err(NtStatus::ObjectNameNotFound), 6, Some(0)),
        (Err(NtStatus::Pending), 6, Some(1)),
        (Err(NtStatus::DeviceNotReady), 6, Some(2)),
        (Ok(dump_plan.apply(&clean_dump)), 7, Some(0)),
    ];
    let got = [
        tapped_read(&m, &ctx, volume),
        tapped_read(&m, &ctx, volume),
        tapped_read(&m, &ctx, volume),
        tapped_read(&m, &ctx, hive),
        tapped_read(&m, &ctx, hive),
        tapped_read(&m, &ctx, hive),
        tapped_read(&m, &ctx, |m: &Machine| {
            m.try_copy_hive_bytes(&"HKLM\\NOPE".parse().unwrap())
        }),
        tapped_read(&m, &ctx, dump),
        tapped_read(&m, &ctx, dump),
        tapped_read(&m, &ctx, dump),
    ];
    for (i, (got, want)) in got.iter().zip(&expected).enumerate() {
        assert_eq!(got, want, "read {i}");
    }

    let snapshot = recorder.snapshot();
    let events: Vec<(FlightEventKind, &str, &str)> = snapshot
        .events
        .iter()
        .map(|e| (e.kind, e.what.as_str(), e.detail.as_str()))
        .collect();
    let fault = FlightEventKind::Fault;
    assert_eq!(
        events,
        vec![
            (fault, "volume.read", "stalled (Pending)"),
            (fault, "volume.read", "transient DeviceNotReady"),
            (fault, "volume.read", "corruption plan applied"),
            (fault, "hive.copy", "stalled (Pending)"),
            (fault, "hive.copy", "transient DeviceNotReady"),
            (
                fault,
                "hive.copy",
                "corruption plan applied to HKLM\\SOFTWARE"
            ),
            (fault, "kernel.dump", "stalled (Pending)"),
            (fault, "kernel.dump", "transient DeviceNotReady"),
            (fault, "kernel.dump", "corruption plan applied"),
        ]
    );
}

/// Digest of one high-level file walk: every snapshot row (key, display
/// path, `is_dir`, `size`), then the traced chain trip of every directory
/// the walk listed (root first), plus the aggregated [`ChainStats`].
fn high_scan_digest(m: &Machine, ctx: &CallContext, entry: ChainEntry) -> String {
    use std::fmt::Write;
    let snap = FileScanner::new().high_scan(m, ctx, entry).unwrap();
    let mut text = String::new();
    let mut dirs = vec![NtPath::root_of(m.volume().label())];
    for (key, fact) in snap.iter() {
        writeln!(text, "{key}|{}|{}|{}", fact.path, fact.is_dir, fact.size).unwrap();
        if fact.is_dir {
            dirs.push(fact.path.parse().unwrap());
        }
    }
    let mut stats = ChainStats::default();
    for dir in dirs {
        let (_, trace) = m
            .query_traced(ctx, &Query::DirectoryEnum { path: dir }, entry)
            .unwrap();
        stats.absorb(&trace);
        write!(text, "{}>", trace.truth_rows).unwrap();
        for hop in &trace.hops {
            write!(
                text,
                "{:?}:{}:{}:{} ",
                hop.level, hop.rows_in, hop.rows_out, hop.mutated
            )
            .unwrap();
        }
        writeln!(text, "{}>{}", trace.marshal_mutated, trace.final_rows).unwrap();
    }
    format!(
        "{:?} rows={} queries={} diverted={} marshal={} levels={:?} digest={:016x}",
        entry,
        snap.len(),
        stats.queries,
        stats.diverted,
        stats.marshal_mutations,
        stats.mutations_by_level,
        strider_support::rng::fnv1a(text.as_bytes()),
    )
}

/// Pins `FileScanner::high_scan` on a small lab machine infected with each
/// Windows sample, through both chain entries: the naming trick (rows the
/// Win32 marshalling drops), the path-pattern filter drivers, and every
/// name-pattern hider must keep producing the same rows and hop counts.
#[test]
fn file_high_scan_is_pinned_for_every_windows_sample() {
    let samples: Vec<Box<dyn Ghostware>> = vec![
        Box::new(Urbin),
        Box::new(Mersting),
        Box::new(Vanquish::default()),
        Box::new(Aphex::default()),
        Box::new(HackerDefender::default()),
        Box::new(ProBotSe::default()),
        Box::new(FileHider::hide_files_33()),
        Box::new(FileHider::hide_folders_xp()),
        Box::new(FileHider::advanced_hide_folders()),
        Box::new(FileHider::file_folder_protector()),
        Box::new(Berbew::default()),
        Box::new(Fu::default()),
        Box::new(NamingTrick),
        Box::new(AdsHider::default()),
    ];
    let mut got = Vec::new();
    for sample in samples {
        let mut m = standard_lab_machine("pin", &WorkloadSpec::small(26), false).unwrap();
        sample.infect(&mut m).unwrap();
        let ctx = GhostBuster::new().enter(&mut m).unwrap();
        for entry in [ChainEntry::Win32, ChainEntry::Native] {
            got.push(format!(
                "{} {}",
                sample.name(),
                high_scan_digest(&m, &ctx, entry)
            ));
        }
    }
    let pinned: &[&str] = &[
        "Urbin Win32 rows=383 queries=47 diverted=1 marshal=0 levels={\"Iat\": 1} digest=1468ea3be5c05eaa",
        "Urbin Native rows=384 queries=47 diverted=0 marshal=0 levels={} digest=f459e44c57308ddf",
        "Mersting Win32 rows=383 queries=47 diverted=1 marshal=0 levels={\"Iat\": 1} digest=1468ea3be5c05eaa",
        "Mersting Native rows=384 queries=47 diverted=0 marshal=0 levels={} digest=4f1cfecb7bfdd34c",
        "Vanquish Win32 rows=383 queries=47 diverted=2 marshal=0 levels={\"Win32ApiCode\": 2} digest=39e006017b3349ad",
        "Vanquish Native rows=386 queries=47 diverted=0 marshal=0 levels={} digest=ad85069b358ade41",
        "Aphex Win32 rows=383 queries=47 diverted=1 marshal=0 levels={\"Win32ApiCode\": 1} digest=5a6428ef44f3dece",
        "Aphex Native rows=385 queries=47 diverted=0 marshal=0 levels={} digest=d6b25a713a46d541",
        "Hacker Defender 1.0 Win32 rows=383 queries=47 diverted=2 marshal=0 levels={\"NtdllCode\": 2} digest=4eed5d55e7adbf93",
        "Hacker Defender 1.0 Native rows=383 queries=47 diverted=2 marshal=0 levels={\"NtdllCode\": 2} digest=42f82271599aa5d9",
        "ProBot SE Win32 rows=383 queries=47 diverted=2 marshal=0 levels={\"Ssdt\": 2} digest=7b47962c114f7a47",
        "ProBot SE Native rows=383 queries=47 diverted=2 marshal=0 levels={\"Ssdt\": 2} digest=4b92675d505220f9",
        "Hide Files 3.3 Win32 rows=385 queries=48 diverted=1 marshal=0 levels={\"FilterDriver\": 1} digest=338750c48fc1c719",
        "Hide Files 3.3 Native rows=385 queries=48 diverted=1 marshal=0 levels={\"FilterDriver\": 1} digest=86533085f5775a39",
        "Hide Folders XP Win32 rows=385 queries=48 diverted=1 marshal=0 levels={\"FilterDriver\": 1} digest=24caa76f613f7e01",
        "Hide Folders XP Native rows=385 queries=48 diverted=1 marshal=0 levels={\"FilterDriver\": 1} digest=3aa0411d9abe3cad",
        "Advanced Hide Folders Win32 rows=385 queries=48 diverted=1 marshal=0 levels={\"FilterDriver\": 1} digest=6165e64f853c2b97",
        "Advanced Hide Folders Native rows=385 queries=48 diverted=1 marshal=0 levels={\"FilterDriver\": 1} digest=24935b06655544c9",
        "File & Folder Protector Win32 rows=385 queries=48 diverted=1 marshal=0 levels={\"FilterDriver\": 1} digest=a4d01a4724e91143",
        "File & Folder Protector Native rows=385 queries=48 diverted=1 marshal=0 levels={\"FilterDriver\": 1} digest=41b2c286ca9df5ff",
        "Berbew Win32 rows=384 queries=47 diverted=0 marshal=0 levels={} digest=907c5d7b8630d37b",
        "Berbew Native rows=384 queries=47 diverted=0 marshal=0 levels={} digest=0d5ef9cbebbd9aed",
        "FU Win32 rows=385 queries=47 diverted=0 marshal=0 levels={} digest=525c64a5be5d5d71",
        "FU Native rows=385 queries=47 diverted=0 marshal=0 levels={} digest=baf040940de62cd1",
        "NamingTrick Win32 rows=392 queries=56 diverted=4 marshal=4 levels={} digest=9f6f1498d45e43df",
        "NamingTrick Native rows=403 queries=63 diverted=0 marshal=0 levels={} digest=7bbac8086f2d5b68",
        "AdsHider Win32 rows=384 queries=47 diverted=0 marshal=0 levels={} digest=aee5450db860a732",
        "AdsHider Native rows=384 queries=47 diverted=0 marshal=0 levels={} digest=aa8d2707e17dbfce",
    ];
    assert_eq!(got, pinned, "{got:#?}");
}
