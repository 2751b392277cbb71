//! Fault-injection integration tests: retries against transient device
//! failures, salvage-mode scans over corrupted truth sources, stabilization
//! against scan-gap flicker, and graceful per-pipeline degradation.
//!
//! The driving scenario is the paper's own operating reality: GhostBuster
//! runs on live, possibly half-broken machines, and a detector that aborts
//! on the first bad sector protects the ghostware better than the user.
//! Every test here is deterministic — transient faults count down, fault
//! plans are seeded, and backoff runs against a [`FakeClock`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use strider_ghostbuster_repro::prelude::*;
use strider_support::fault::FaultPlan;
use strider_support::obs::{Clock, FakeClock};

fn infected_machine() -> Machine {
    let mut m = Machine::with_base_system("victim").unwrap();
    HackerDefender::default().infect(&mut m).unwrap();
    m
}

fn hook_identities(report: &DiffReport) -> Vec<String> {
    let mut ids: Vec<String> = report
        .net_detections()
        .iter()
        .map(|d| d.identity.clone())
        .collect();
    ids.sort();
    ids
}

// ---------------------------------------------------------------------
// Transient faults + retry backoff
// ---------------------------------------------------------------------

#[test]
fn fault_transient_volume_reads_are_retried_on_a_fake_clock() {
    let mut m = Machine::with_base_system("t").unwrap();
    m.set_fault_injector(FaultInjector::new().fail_volume_reads(2));
    let clock = Arc::new(FakeClock::default());
    let scanner = FileScanner::new().with_policy(ScanPolicy::resilient().with_clock(clock.clone()));
    let snap = scanner.low_scan(&m).unwrap();
    assert!(
        !snap.is_empty(),
        "scan succeeded after two transient failures"
    );
    assert_eq!(
        clock.now_ns(),
        3_000_000,
        "exactly 1 ms + 2 ms of backoff, nothing more"
    );
}

#[test]
fn fault_strict_policy_fails_fast_on_transient_reads() {
    let mut m = Machine::with_base_system("t").unwrap();
    m.set_fault_injector(FaultInjector::new().fail_volume_reads(1));
    let err = FileScanner::new().low_scan(&m).unwrap_err();
    assert_eq!(err, NtStatus::DeviceNotReady);
    // The countdown was consumed: a second attempt succeeds.
    assert!(FileScanner::new().low_scan(&m).is_ok());
}

#[test]
fn fault_transient_hive_reads_are_retried() {
    let mut m = infected_machine();
    m.set_fault_injector(FaultInjector::new().fail_hive_reads(3));
    let clock = Arc::new(FakeClock::default());
    let scanner =
        RegistryScanner::new().with_policy(ScanPolicy::resilient().with_clock(clock.clone()));
    let snap = scanner.low_scan(&m).unwrap();
    assert!(!snap.is_empty());
    assert!(clock.now_ns() > 0, "backoff was actually taken");
}

// ---------------------------------------------------------------------
// Salvage: corrupted truth sources keep the sweep useful
// ---------------------------------------------------------------------

#[test]
fn fault_sweep_with_corrupted_hive_bin_still_reports_surviving_aseps() {
    // Baseline: which ASEP hooks does a clean-read sweep report?
    let mut m = infected_machine();
    let baseline = GhostBuster::new().inside_sweep(&mut m).unwrap();
    let expected = hook_identities(&baseline.hooks);
    assert!(!expected.is_empty(), "hxdef hides service hooks");

    // Damage a 64-byte run in the middle of the SOFTWARE hive copy. The
    // hxdef hooks live in SYSTEM\CurrentControlSet\Services, a different
    // hive file, so salvage must keep them reachable.
    let software: NtPath = "HKLM\\SOFTWARE".parse().unwrap();
    let len = m.try_copy_hive_bytes(&software).unwrap().len();
    m.set_fault_injector(
        FaultInjector::new().corrupt_hive(software, FaultPlan::new(7).zero_range(len / 3, 64)),
    );

    let telemetry = Telemetry::new();
    let report = GhostBuster::new()
        .with_policy(ScanPolicy::resilient())
        .with_telemetry(telemetry.clone())
        .inside_sweep(&mut m)
        .unwrap();

    assert_eq!(
        hook_identities(&report.hooks),
        expected,
        "every hidden ASEP from undamaged bins is still reported"
    );
    let defects = report.health.registry.defect_count();
    assert!(
        defects > 0,
        "the damaged bin surfaced as defects: {:?}",
        report.health.registry
    );
    assert!(!report.health.is_all_ok());
    assert!(
        report.health.degraded_pipelines().is_empty(),
        "salvaged, not lost"
    );
    // The counter accumulates across stabilization passes, so it is some
    // multiple of the per-pass defect count health reports.
    let counted = telemetry.report().counters["registry.defects"];
    assert!(
        counted >= defects && counted.is_multiple_of(defects),
        "{counted} vs {defects}"
    );
    let rendered = report.to_string();
    assert!(rendered.contains("health:"), "{rendered}");
    assert!(rendered.contains("salvaged"), "{rendered}");
}

#[test]
fn fault_salvage_reads_through_a_truncated_volume_image() {
    let mut m = infected_machine();
    // Chop the tail off every raw volume read: the strict parser refuses,
    // salvage keeps the prefix.
    m.set_fault_injector(FaultInjector::new().corrupt_volume(FaultPlan::new(3).truncate_to(0.9)));
    assert!(FileScanner::new().low_scan(&m).is_err(), "strict refuses");
    let scanner = FileScanner::new().with_policy(ScanPolicy::resilient());
    let snap = scanner.low_scan(&m).unwrap();
    assert!(!snap.is_empty(), "the surviving prefix still parses");
    assert!(snap.meta.io.defects > 0, "the lost tail is accounted for");
}

// ---------------------------------------------------------------------
// Degradation: an unrecoverable truth source loses one pipeline, not four
// ---------------------------------------------------------------------

#[test]
fn fault_unrecoverable_volume_degrades_only_the_files_pipeline() {
    let mut m = infected_machine();
    let baseline = GhostBuster::new().inside_sweep(&mut m).unwrap();
    assert!(baseline.health.is_all_ok());
    assert!(baseline.files.has_detections());

    // Destroy the image header on every read: no retry or salvage level
    // can recover a volume whose magic is gone. (Strict policy: the old
    // behavior would have failed the whole sweep.)
    m.set_fault_injector(FaultInjector::new().corrupt_volume(FaultPlan::new(1).zero_range(0, 16)));
    let report = GhostBuster::new().inside_sweep(&mut m).unwrap();

    assert!(
        report.health.files.is_degraded(),
        "{:?}",
        report.health.files
    );
    assert_eq!(report.health.degraded_pipelines(), vec!["files"]);
    assert!(report.files.net_detections().is_empty());
    // The other three pipelines are byte-for-byte the clean baseline.
    assert_eq!(
        hook_identities(&report.hooks),
        hook_identities(&baseline.hooks)
    );
    assert_eq!(
        hook_identities(&report.processes),
        hook_identities(&baseline.processes)
    );
    assert_eq!(
        hook_identities(&report.modules),
        hook_identities(&baseline.modules)
    );
    let rendered = report.to_string();
    assert!(rendered.contains("DEGRADED"), "{rendered}");
}

#[test]
fn fault_dead_dump_degrades_the_volatile_pipelines_of_the_winpe_flow() {
    let mut m = infected_machine();
    // The dump device never comes back: more failures than any retry
    // budget. Disk-based pipelines must still complete.
    m.set_fault_injector(FaultInjector::new().fail_dump_reads(100));
    let clock = Arc::new(FakeClock::default());
    let report = GhostBuster::new()
        .with_policy(ScanPolicy::resilient().with_clock(clock))
        .winpe_outside_sweep(&mut m, 150)
        .unwrap();

    assert!(report.health.processes.is_degraded());
    assert!(report.health.modules.is_degraded());
    assert_eq!(
        report.health.degraded_pipelines(),
        vec!["processes", "modules"]
    );
    assert!(
        report
            .files
            .net_detections()
            .iter()
            .any(|d| d.detail.contains("hxdef100.exe")),
        "the file pipeline still catches hxdef from the disk image"
    );
    assert!(report.hooks.has_detections());
}

// ---------------------------------------------------------------------
// Stabilization: scan-gap flicker vs a consistent lie
// ---------------------------------------------------------------------

/// A machine with a hook that hides `flicker.txt` from exactly one
/// enumeration — transient churn, not a resident hider.
fn machine_with_one_shot_hider() -> Machine {
    let mut m = Machine::with_base_system("victim").unwrap();
    m.volume_mut()
        .create_file(&"C:\\flicker.txt".parse().unwrap(), b"x")
        .unwrap();
    let armed = Arc::new(AtomicBool::new(true));
    m.install_ntdll_hook(
        "one-shot",
        vec![QueryKind::Files],
        HookScope::All,
        Arc::new(move |_: &CallContext, _: &Query, rows: &mut Vec<Row>| {
            let present = rows
                .iter()
                .any(|r| r.name().to_win32_lossy().contains("flicker"));
            if present && armed.swap(false, Ordering::SeqCst) {
                rows.retain(|r| !r.name().to_win32_lossy().contains("flicker"));
                return true;
            }
            false
        }),
    );
    m
}

/// Which of four low scans by one memo-armed strict scanner reused the
/// previous pass's truth: the first pass keeps its truth, the second reads
/// a changed one that fails its parse, and the last two read the first
/// pass's bytes again.
fn reused_around_a_failed_parse(
    mut m: Machine,
    corrupt: FaultInjector,
    telemetry: &Telemetry,
    low_scan: impl Fn(&Machine) -> bool,
) -> Vec<bool> {
    assert!(low_scan(&m));
    m.set_fault_injector(corrupt);
    assert!(!low_scan(&m), "the changed truth fails its strict parse");
    m.clear_fault_injector();
    assert!(low_scan(&m) && low_scan(&m));
    (telemetry.report().spans.iter())
        .map(|span| span.attr("truth_reused").is_some())
        .collect()
}

// A pass whose truth differs from the kept one lets go of it before it
// parses, so a failed parse leaves the memo empty: the pass after it
// parses the first pass's bytes again rather than reusing them, and keeps
// them for the last pass.
#[test]
fn fault_a_changed_file_truth_is_released_before_its_parse() {
    let telemetry = Telemetry::new();
    let scanner = FileScanner::new()
        .with_policy(ScanPolicy::strict().with_stabilization(2))
        .with_telemetry(telemetry.clone());
    let corrupt = FaultInjector::new().corrupt_volume(FaultPlan::new(3).truncate_to(0.9));
    let m = Machine::with_base_system("t").unwrap();
    let low_scan = |m: &Machine| scanner.low_scan(m).is_ok();
    let reused = reused_around_a_failed_parse(m, corrupt, &telemetry, low_scan);
    assert_eq!(reused, [false, false, false, true]);
}

#[test]
fn fault_a_changed_registry_truth_is_released_before_its_parse() {
    let telemetry = Telemetry::new();
    let scanner = RegistryScanner::new()
        .with_policy(ScanPolicy::strict().with_stabilization(2))
        .with_telemetry(telemetry.clone());
    let m = Machine::with_base_system("t").unwrap();
    let software: NtPath = "HKLM\\SOFTWARE".parse().unwrap();
    let len = m.try_copy_hive_bytes(&software).unwrap().len();
    let plan = FaultPlan::new(7).zero_range(len / 3, 64);
    let corrupt = FaultInjector::new().corrupt_hive(software, plan);
    let low_scan = |m: &Machine| scanner.low_scan(m).is_ok();
    let reused = reused_around_a_failed_parse(m, corrupt, &telemetry, low_scan);
    assert_eq!(reused, [false, false, false, true]);
}

#[test]
fn fault_single_pass_sweep_reports_one_shot_flicker() {
    let mut m = machine_with_one_shot_hider();
    let report = GhostBuster::new().inside_sweep(&mut m).unwrap();
    assert!(
        report
            .files
            .net_detections()
            .iter()
            .any(|d| d.detail.contains("flicker")),
        "without stabilization the transient lie is (wrongly) reported"
    );
}

#[test]
fn fault_stabilization_passes_filter_out_one_shot_flicker() {
    let mut m = machine_with_one_shot_hider();
    let report = GhostBuster::new()
        .with_policy(ScanPolicy::strict().with_stabilization(3))
        .inside_sweep(&mut m)
        .unwrap();
    assert!(
        !report
            .files
            .net_detections()
            .iter()
            .any(|d| d.detail.contains("flicker")),
        "two agreeing passes outvote the flicker"
    );
}

#[test]
fn fault_stabilization_keeps_a_consistent_hider_visible() {
    let mut m = infected_machine();
    let report = GhostBuster::new()
        .with_policy(ScanPolicy::resilient())
        .inside_sweep(&mut m)
        .unwrap();
    assert!(
        report
            .files
            .net_detections()
            .iter()
            .any(|d| d.detail.contains("hxdef100.exe")),
        "a resident rootkit lies identically on every pass"
    );
    assert!(report.is_infected());
    assert!(report.health.is_all_ok());
}
