//! Literal pins on what instrumentation records: the span tree, counter
//! map, histogram names and black-box flight events of a stalled,
//! telemetry-attached sweep (inside and outside the box), the empty
//! telemetry of the same sweeps without a registry, and the scheduler
//! timeline of a serial fleet sweep.
//!
//! Everything runs on a [`FakeClock`], so each pin is a pure function of
//! the scenario.

use std::collections::BTreeMap;
use std::sync::Arc;
use strider_ghostbuster_repro::prelude::*;
use strider_support::fault::Stall;
use strider_support::obs::{FakeClock, SpanRecord, TelemetryReport};

/// A Hacker Defender machine whose volume and crash-dump reads stall
/// forever: the inside sweep loses its file truth, the outside sweep its
/// process and module truth.
fn stalled_victim() -> Machine {
    let mut m = Machine::with_base_system("victim").unwrap();
    HackerDefender::default().infect(&mut m).unwrap();
    m.set_fault_injector(
        FaultInjector::new()
            .stall_volume_reads(Stall::forever())
            .stall_dump_reads(Stall::forever()),
    );
    m
}

fn detector(clock: &Arc<FakeClock>, telemetry: bool) -> GhostBuster {
    let gb = GhostBuster::new().with_policy(ScanPolicy::supervised().with_clock(clock.clone()));
    if telemetry {
        gb.with_telemetry(Telemetry::with_clock(clock.clone()))
    } else {
        gb
    }
}

/// The span forest as indented names, one span per line.
fn span_tree(report: &TelemetryReport) -> String {
    fn walk(span: &SpanRecord, depth: usize, out: &mut String) {
        out.push_str(&"  ".repeat(depth));
        out.push_str(&span.name);
        out.push('\n');
        for child in &span.children {
            walk(child, depth + 1, out);
        }
    }
    let mut out = String::new();
    for span in &report.spans {
        walk(span, 0, &mut out);
    }
    out
}

fn counters(report: &TelemetryReport) -> Vec<(&str, u64)> {
    report
        .counters
        .iter()
        .map(|(k, v)| (k.as_str(), *v))
        .collect()
}

fn histogram_names(report: &TelemetryReport) -> Vec<&str> {
    report.histograms.keys().map(String::as_str).collect()
}

/// Each black box as `pipeline: kind what` lines, consecutive repeats
/// folded into one line with a `xN` suffix.
fn black_boxes(sweep: &SweepReport) -> String {
    let mut out = String::new();
    for (pipeline, dump) in &sweep.black_boxes {
        let mut runs: Vec<(String, usize)> = Vec::new();
        for event in &dump.events {
            let line = format!("{} {}", event.kind, event.what);
            match runs.last_mut() {
                Some((last, n)) if *last == line => *n += 1,
                _ => runs.push((line, 1)),
            }
        }
        for (line, n) in runs {
            if n == 1 {
                out.push_str(&format!("{pipeline}: {line}\n"));
            } else {
                out.push_str(&format!("{pipeline}: {line} x{n}\n"));
            }
        }
    }
    out
}

#[test]
fn stalled_inside_sweep_records_the_pinned_telemetry() {
    let clock = Arc::new(FakeClock::new());
    let sweep = detector(&clock, true)
        .inside_sweep(&mut stalled_victim())
        .unwrap();
    let telemetry = sweep.telemetry.as_ref().expect("telemetry attached");
    assert_eq!(span_tree(telemetry), INSIDE_SPANS);
    assert_eq!(counters(telemetry), INSIDE_COUNTERS);
    assert_eq!(histogram_names(telemetry), INSIDE_HISTOGRAMS);
    assert_eq!(black_boxes(&sweep), INSIDE_BLACK_BOXES);
}

#[test]
fn stalled_outside_sweep_records_the_pinned_telemetry() {
    let clock = Arc::new(FakeClock::new());
    let sweep = detector(&clock, true)
        .winpe_outside_sweep(&mut stalled_victim(), 120)
        .unwrap();
    let telemetry = sweep.telemetry.as_ref().expect("telemetry attached");
    assert_eq!(span_tree(telemetry), OUTSIDE_SPANS);
    assert_eq!(counters(telemetry), OUTSIDE_COUNTERS);
    assert_eq!(histogram_names(telemetry), OUTSIDE_HISTOGRAMS);
    assert_eq!(black_boxes(&sweep), OUTSIDE_BLACK_BOXES);
}

#[test]
fn sweeps_without_telemetry_carry_none_and_no_black_boxes() {
    let clock = Arc::new(FakeClock::new());
    let gb = detector(&clock, false);
    let inside = gb.inside_sweep(&mut stalled_victim()).unwrap();
    assert!(inside.health.files.is_degraded(), "{}", inside.health);
    assert!(inside.telemetry.is_none());
    assert!(inside.black_boxes.is_empty());
    let outside = gb.winpe_outside_sweep(&mut stalled_victim(), 120).unwrap();
    assert!(outside.telemetry.is_none());
    assert!(outside.black_boxes.is_empty());
}

#[test]
fn serial_fleet_sweep_records_the_pinned_scheduler_timeline() {
    let clock = Arc::new(FakeClock::new());
    let scheduler = FleetScheduler::new(
        GhostBuster::new()
            .with_advanced(AdvancedSource::ThreadTable)
            .with_policy(ScanPolicy::supervised().with_clock(clock)),
    )
    .with_workers(1);
    let mut fleet = FleetRegistry::seeded(&FleetSpec::clean(6, 42).with_infected(2)).unwrap();
    let report = scheduler.sweep(&mut fleet).unwrap();
    let trace = report.trace();
    assert_eq!(report.swept, 6);
    assert_eq!(report.infected, 2);
    assert_eq!(trace.workers, 1);
    assert_eq!(trace.queue_waits().len(), 6);
    assert_eq!(trace.steals(), 0);
    let mut kinds: BTreeMap<u32, Vec<String>> = BTreeMap::new();
    for event in &trace.events {
        kinds
            .entry(event.shard)
            .or_default()
            .push(format!("{:?}", event.kind));
    }
    for shard_kinds in kinds.values_mut() {
        shard_kinds.sort();
    }
    let expected: Vec<String> = [
        "Enqueue { worker: 0 }",
        "Finish { worker: 0 }",
        "Start { worker: 0 }",
    ]
    .map(String::from)
    .to_vec();
    assert_eq!(kinds.len(), 6);
    for (shard, shard_kinds) in &kinds {
        assert_eq!(shard_kinds, &expected, "shard {shard}");
    }
}

// The pinned values, recorded on the FakeClock scenarios above.

const INSIDE_SPANS: &str = "sweep.inside
  files.scan_inside
    files.high_scan
  registry.scan_inside
    registry.high_scan
    registry.low_scan
    registry.diff
      registry.cross_view_diff
      registry.noise_classification
  registry.scan_inside
    registry.high_scan
    registry.low_scan
    registry.diff
      registry.cross_view_diff
      registry.noise_classification
  processes.scan_inside
    processes.high_scan
    processes.low_scan
    processes.diff
  processes.scan_inside
    processes.high_scan
    processes.low_scan
    processes.diff
  modules.scan_inside
    processes.high_scan
    modules.high_scan
    processes.high_scan
    modules.low_scan
    modules.diff
  modules.scan_inside
    processes.high_scan
    modules.high_scan
    processes.high_scan
    modules.low_scan
    modules.diff
";

const INSIDE_COUNTERS: &[(&str, u64)] = &[
    ("files.entries.HighLevelWin32", 34),
    ("modules.entries.HighLevelWin32", 20),
    ("modules.entries.LowLevelKernelModules", 20),
    ("processes.entries.HighLevelWin32", 60),
    ("processes.entries.LowLevelApl", 22),
    ("registry.entries.HighLevelWin32", 14),
    ("registry.entries.LowLevelHiveParse", 18),
    ("sweep.degraded.files", 1),
    ("sweep.timeouts", 1),
];

const INSIDE_HISTOGRAMS: &[&str] = &[
    "files.dir_query_ns",
    "modules.proc_query_ns",
    "registry.key_probe_ns",
];

const INSIDE_BLACK_BOXES: &str = "files: fault volume.read x251
files: span-end files.scan_inside
files: counter sweep.timeouts
files: cancel files
files: counter sweep.degraded.files
files: mark files
";

const OUTSIDE_SPANS: &str = "sweep.outside
  files.high_scan
  registry.high_scan
  processes.high_scan
  processes.high_scan
  modules.high_scan
  files.outside_scan
  files.diff
    files.cross_view_diff
    files.noise_classification
  registry.outside_scan
  registry.diff
    registry.cross_view_diff
    registry.noise_classification
";

const OUTSIDE_COUNTERS: &[(&str, u64)] = &[
    ("files.entries.HighLevelWin32", 34),
    ("files.entries.OutsideDisk", 37),
    ("modules.entries.HighLevelWin32", 10),
    ("processes.entries.HighLevelWin32", 20),
    ("registry.entries.HighLevelWin32", 7),
    ("registry.entries.OutsideMountedHives", 9),
    ("sweep.degraded.modules", 1),
    ("sweep.degraded.processes", 1),
];

const OUTSIDE_HISTOGRAMS: &[&str] = &[
    "files.dir_query_ns",
    "modules.proc_query_ns",
    "registry.key_probe_ns",
];

const OUTSIDE_BLACK_BOXES: &str = "processes: fault kernel.dump x236
processes: span-start files.outside_scan
processes: counter files.entries.OutsideDisk
processes: span-end files.outside_scan
processes: span-start files.diff
processes: span-start files.cross_view_diff
processes: span-end files.cross_view_diff
processes: span-start files.noise_classification
processes: span-end files.noise_classification
processes: span-end files.diff
processes: span-start registry.outside_scan
processes: counter registry.entries.OutsideMountedHives
processes: span-end registry.outside_scan
processes: span-start registry.diff
processes: span-start registry.cross_view_diff
processes: span-end registry.cross_view_diff
processes: span-start registry.noise_classification
processes: span-end registry.noise_classification
processes: span-end registry.diff
processes: counter sweep.degraded.processes
processes: mark processes
modules: fault kernel.dump x234
modules: span-start files.outside_scan
modules: counter files.entries.OutsideDisk
modules: span-end files.outside_scan
modules: span-start files.diff
modules: span-start files.cross_view_diff
modules: span-end files.cross_view_diff
modules: span-start files.noise_classification
modules: span-end files.noise_classification
modules: span-end files.diff
modules: span-start registry.outside_scan
modules: counter registry.entries.OutsideMountedHives
modules: span-end registry.outside_scan
modules: span-start registry.diff
modules: span-start registry.cross_view_diff
modules: span-end registry.cross_view_diff
modules: span-start registry.noise_classification
modules: span-end registry.noise_classification
modules: span-end registry.diff
modules: counter sweep.degraded.processes
modules: mark processes
modules: counter sweep.degraded.modules
modules: mark modules
";
