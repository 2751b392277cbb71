//! Outside-the-box flows across crates: WinPE, VM, crash dumps, and the
//! attacks that degrade each truth source.

use std::collections::BTreeSet;
use strider_ghostbuster_repro::prelude::*;

fn victim(seed: u64) -> Machine {
    standard_lab_machine("victim", &WorkloadSpec::small(seed), false).expect("machine builds")
}

#[test]
fn winpe_flow_detects_all_persistent_artifacts_of_hxdef() {
    let mut m = victim(1);
    m.tick(400);
    let infection = HackerDefender::default().infect(&mut m).expect("infects");
    let sweep = GhostBuster::new()
        .winpe_outside_sweep(&mut m, 120)
        .expect("flow");
    for hidden in &infection.hidden_files {
        assert!(
            sweep
                .files
                .net_detections()
                .iter()
                .any(|d| d.detail == hidden.to_string()),
            "missed {hidden}"
        );
    }
    assert!(sweep
        .hooks
        .net_detections()
        .iter()
        .any(|d| d.detail.contains("HackerDefender100")));
    // The hidden process came from the pre-reboot crash dump.
    assert!(sweep
        .processes
        .net_detections()
        .iter()
        .any(|d| d.detail.contains("hxdef100.exe")));
}

#[test]
fn winpe_flow_noise_is_service_churn_only_and_classified() {
    let mut m = victim(2);
    m.tick(400);
    let sweep = GhostBuster::new()
        .winpe_outside_sweep(&mut m, 150)
        .expect("flow");
    assert_eq!(sweep.suspicious_count(), 0, "{sweep}");
    for d in sweep.files.noise_detections() {
        assert_eq!(d.noise, NoiseClass::LikelyServiceChurn, "{d}");
    }
}

#[test]
fn vm_flow_zero_gap_zero_false_positives_and_full_detection() {
    let mut m = victim(3);
    m.tick(313);
    let infection = Vanquish::default().infect(&mut m).expect("infects");
    let report = GhostBuster::new().vm_outside_files(&mut m).expect("flow");
    assert!(
        report.noise_detections().is_empty(),
        "zero-gap means zero FPs"
    );
    for hidden in &infection.hidden_files {
        assert!(
            report
                .net_detections()
                .iter()
                .any(|d| d.detail == hidden.to_string()),
            "missed {hidden}"
        );
    }
}

#[test]
fn disk_image_scan_is_immune_to_every_inside_hook() {
    // All interception families at once; the outside scan reads raw bytes.
    let mut m = victim(4);
    HackerDefender::default().infect(&mut m).expect("hxdef");
    ProBotSe::default().infect(&mut m).expect("probot");
    FileHider::hide_folders_xp().infect(&mut m).expect("hider");
    let image = m.snapshot_disk().expect("snapshot");
    let scanner = FileScanner::new();
    let truth = scanner.outside_scan(&image).expect("parse");
    for needle in ["hxdef100.exe", "hidden folder"] {
        assert!(
            truth.iter().any(|(_, f)| f.path.contains(needle)),
            "outside truth missing {needle}"
        );
    }
}

#[test]
fn dump_scrubbing_attack_documented_blind_spot() {
    let mut m = victim(5);
    Fu::default().infect(&mut m).expect("fu");
    let pid = m.kernel().find_by_name("fu_payload.exe")[0];
    m.kernel_mut().register_dump_scrubber(DumpScrub {
        pids: vec![pid],
        module_names: Vec::new(),
    });
    let dump = MemoryDump::parse(&m.kernel().crash_dump()).expect("parse");
    assert!(dump.process(pid).is_none(), "scrubbed from the dump");
    // The *live* advanced scan still sees it: scrubbing only sanitizes the
    // persisted approximation, not the running kernel.
    assert!(m.kernel().processes_via_threads().contains(&pid));
}

#[test]
fn hive_copy_tamper_beats_inside_scan_outside_scan_still_works() {
    use std::sync::Arc;
    struct DropAll;
    impl HiveCopyTamper for DropAll {
        fn tamper(&self, mount: &strider_nt_core::NtPath, bytes: Vec<u8>) -> Vec<u8> {
            // A crude interference: corrupt the copy of the SYSTEM hive so
            // the inside parse fails entirely.
            if mount.to_string().eq_ignore_ascii_case("HKLM\\SYSTEM") {
                bytes[..8.min(bytes.len())].to_vec()
            } else {
                bytes
            }
        }
    }
    let mut m = victim(6);
    HackerDefender::default().infect(&mut m).expect("infects");
    m.add_hive_tamper("hxdef-ng", Arc::new(DropAll));

    let gb = GhostBuster::new();
    // Inside low-level scan now errors: the truth approximation failed.
    assert!(gb.scan_registry_inside(&mut m).is_err());

    // Outside scan of the real disk bytes is unaffected.
    let ctx = gb.enter(&mut m).expect("ctx");
    let lie = gb.registry_scanner().high_scan(&m, &ctx, ChainEntry::Win32);
    let image = m.snapshot_disk().expect("snapshot");
    let truth = gb
        .registry_scanner()
        .outside_scan(&image, OutsideRegistryMode::MountedWin32)
        .expect("parse");
    let report = gb.registry_scanner().diff(&truth, &lie);
    assert!(report
        .net_detections()
        .iter()
        .any(|d| d.detail.contains("HackerDefender100")));
}

#[test]
fn outside_dump_advanced_parse_beats_dkom() {
    let mut m = victim(7);
    Fu::default().infect(&mut m).expect("fu");
    let gb = GhostBuster::new().with_advanced(AdvancedSource::ThreadTable);
    let ctx = gb.enter(&mut m).expect("ctx");
    let lie = gb
        .process_scanner()
        .high_scan(&m, &ctx, ChainEntry::Win32)
        .expect("scan");
    let dump = MemoryDump::parse(&m.kernel().crash_dump()).expect("parse");
    let apl_only = gb.process_scanner().outside_scan(&dump, false);
    let with_threads = gb.process_scanner().outside_scan(&dump, true);
    let r1 = gb.process_scanner().diff(&apl_only, &lie);
    let r2 = gb.process_scanner().diff(&with_threads, &lie);
    assert!(!r1.has_detections());
    assert!(r2
        .net_detections()
        .iter()
        .any(|d| d.detail.contains("fu_payload.exe")));
}

#[test]
fn snapshot_disk_round_trips_through_both_parsers() {
    let mut m = victim(8);
    NamingTrick.infect(&mut m).expect("naming");
    let image = m.snapshot_disk().expect("snapshot");
    // Volume parser.
    let vol = VolumeImage::parse(&image.volume_image).expect("volume parses");
    assert!(vol.file_paths().len() > 100);
    // Every hive parses.
    for (mount, bytes) in &image.hives {
        let raw = RawHive::parse(bytes).expect("hive parses");
        assert!(!raw.root().name.is_empty(), "{mount}");
    }
}

#[test]
fn vm_scanfile_flow_detects_and_is_fp_free() {
    // The fully-automated VM flow: the guest's scan leaves the VM as a
    // serialized scan-result file; the host parses and diffs it.
    let mut m = victim(9);
    m.tick(200);
    let infection = HackerDefender::default().infect(&mut m).expect("infects");
    let report = GhostBuster::new()
        .vm_outside_files_via_scanfile(&mut m)
        .expect("flow");
    for hidden in &infection.hidden_files {
        assert!(
            report
                .net_detections()
                .iter()
                .any(|d| d.detail == hidden.to_string()),
            "missed {hidden}"
        );
    }
    assert!(report.noise_detections().is_empty(), "zero gap, zero FPs");

    // Clean machine: completely silent.
    let mut clean = victim(10);
    clean.tick(200);
    let report = GhostBuster::new()
        .vm_outside_files_via_scanfile(&mut clean)
        .expect("flow");
    assert!(!report.has_detections());
}

#[test]
fn winpe_flow_module_truth_comes_from_the_dump_kernel_lists() {
    let mut m = victim(7);
    m.tick(313);
    Vanquish::default().infect(&mut m).expect("infects");
    let report = GhostBuster::new()
        .winpe_outside_sweep(&mut m, 150)
        .expect("flow");
    let hidden: BTreeSet<String> = report
        .modules
        .net_detections()
        .iter()
        .map(|d| d.identity.clone())
        .collect();
    let expected: BTreeSet<String> = [8, 12, 16, 20, 24, 28]
        .map(|pid| format!("pid:{pid}|vanquish.dll"))
        .into();
    assert_eq!(
        hidden, expected,
        "Vanquish's DLL, hidden from each visible process's module list, stays in the dump's kernel lists"
    );
    let truth = &report.modules.truth_meta;
    assert_eq!(truth.view, ViewKind::OutsideDump);
    assert_eq!(truth.taken_at, Tick(464), "the disk image's capture time");
    assert_eq!(
        truth.io.entries, 0,
        "the dump parse is charged to processes"
    );
}
