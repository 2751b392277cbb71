//! Literal pins on what instrumentation records: the span tree, counter
//! map, histogram names and black-box flight events of a stalled,
//! telemetry-attached sweep (inside and outside the box), the empty
//! telemetry of the same sweeps without a registry, the scheduler
//! timeline of a serial fleet sweep, and the merged fleet Chrome trace
//! event by event (plus which shards get lanes on resume and quarantine).
//!
//! Everything runs on a [`FakeClock`], so each pin is a pure function of
//! the scenario.

use std::collections::BTreeMap;
use std::sync::Arc;
use strider_ghostbuster_repro::prelude::*;
use strider_support::fault::Stall;
use strider_support::json::JsonValue;
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

/// A serial fleet scheduler on the fake clock, polling stalled reads
/// every 100 µs so a stall widens the queue slices behind it.
fn serial_fleet(clock: &Arc<FakeClock>) -> FleetScheduler {
    FleetScheduler::new(
        GhostBuster::new()
            .with_advanced(AdvancedSource::ThreadTable)
            .with_policy(
                ScanPolicy::supervised()
                    .with_clock(clock.clone())
                    .with_poll(100_000, 0),
            ),
    )
    .with_workers(1)
}

/// One merged Chrome-trace event as compact JSON, with the `allocs` and
/// `alloc_bytes` values of `mem` counters masked: allocator counts
/// measure the scanners, not the export.
fn event_line(event: &JsonValue) -> String {
    let fields = event.as_obj().expect("every trace event is an object");
    let is_mem = event.field("ph").and_then(JsonValue::as_str).ok() == Some("C")
        && event.field("name").and_then(JsonValue::as_str).ok() == Some("mem");
    let masked: Vec<(String, JsonValue)> = fields
        .iter()
        .map(|(key, value)| match value {
            JsonValue::Obj(args) if is_mem && key == "args" => (
                key.clone(),
                JsonValue::Obj(
                    args.iter()
                        .map(|(k, _)| (k.clone(), JsonValue::Str("*".into())))
                        .collect(),
                ),
            ),
            _ => (key.clone(), value.clone()),
        })
        .collect();
    JsonValue::Obj(masked).render()
}

fn trace_lines(trace: &JsonValue) -> Vec<String> {
    trace
        .as_arr()
        .expect("a Chrome trace is an array")
        .iter()
        .map(event_line)
        .collect()
}

/// The `thread_name` lane labels of a merged trace, in order.
fn lane_names(trace: &JsonValue) -> Vec<String> {
    trace
        .as_arr()
        .expect("a Chrome trace is an array")
        .iter()
        .filter(|e| e.field("ph").and_then(JsonValue::as_str).ok() == Some("M"))
        .map(|e| {
            let name = e.field("args").and_then(|a| a.field("name"));
            name.and_then(JsonValue::as_str).unwrap().to_string()
        })
        .collect()
}

#[test]
fn merged_fleet_chrome_trace_is_pinned_event_by_event() {
    let clock = Arc::new(FakeClock::new());
    let mut fleet = FleetRegistry::seeded(&FleetSpec::clean(2, 42).with_infected(1)).unwrap();
    fleet.machines_mut()[0]
        .machine
        .set_fault_injector(FaultInjector::new().stall_volume_reads(Stall::after_polls(2)));
    let report = serial_fleet(&clock).sweep(&mut fleet).unwrap();
    assert_eq!((report.swept, report.infected), (2, 1), "{report}");

    let lines = trace_lines(&report.chrome_trace());
    let trace = report.trace();
    assert_eq!(lines.join("\n"), FLEET_TRACE_EVENTS.trim_end());

    let waits: Vec<(u32, u64)> = trace.queue_waits().into_iter().collect();
    assert_eq!(waits, FLEET_QUEUE_WAITS);
    assert_eq!(trace.queue_wait_p95_ns(), FLEET_QUEUE_WAIT_P95_NS);
    assert_eq!(trace.steals(), 0);
    assert_eq!(trace.worker_busy_ns(0), FLEET_WORKER_BUSY_NS);
    assert_eq!(
        trace.worker_idle_fraction().to_bits(),
        FLEET_WORKER_IDLE_FRACTION.to_bits(),
        "{}",
        trace.worker_idle_fraction()
    );
}

#[test]
fn restored_shards_get_no_lanes_and_a_quarantined_shard_keeps_its_last_attempt() {
    // Resuming a complete checkpoint restores every shard: no scan, no
    // worker, so the merged trace holds the scheduler lane alone.
    let clock = Arc::new(FakeClock::new());
    let mut fleet = FleetRegistry::seeded(&FleetSpec::clean(3, 7).with_infected(1)).unwrap();
    let mut checkpoint = FleetCheckpoint::new(&fleet);
    let scheduler = serial_fleet(&clock);
    scheduler
        .sweep_streaming(&mut fleet, &mut checkpoint, |_| FleetControl::Continue)
        .unwrap();
    assert!(checkpoint.is_complete());
    let resumed = scheduler
        .sweep_streaming(&mut fleet, &mut checkpoint, |_| FleetControl::Continue)
        .unwrap();
    assert!(resumed
        .results()
        .iter()
        .all(|r| r.disposition == ShardDisposition::Restored));
    assert_eq!(resumed.trace().workers, 0);
    assert_eq!(lane_names(&resumed.chrome_trace()), ["fleet-scheduler"]);

    // A shard stalled forever burns both attempts and is fenced; its
    // result keeps the last attempt's telemetry, so it keeps its lanes.
    let mut fleet = FleetRegistry::seeded(&FleetSpec::clean(3, 7).with_infected(1)).unwrap();
    fleet.machines_mut()[1]
        .machine
        .set_fault_injector(FaultInjector::new().stall_volume_reads(Stall::forever()));
    let report = serial_fleet(&clock)
        .with_heal(
            FleetHealPolicy::default()
                .with_max_attempts(2)
                .with_backoff(100_000, 400_000),
        )
        .sweep(&mut fleet)
        .unwrap();
    assert_eq!(report.quarantined, vec![ShardId(1)], "{report}");
    let lanes = lane_names(&report.chrome_trace());
    assert_eq!(lanes, QUARANTINE_LANES);
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

const FLEET_TRACE_EVENTS: &str = r#"{"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"fleet-scheduler"}}
{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"fleet-worker-0"}}
{"name":"enqueue shard-000","cat":"fleet","ph":"i","ts":0.0,"pid":1,"tid":0,"s":"t","args":{"worker":0}}
{"name":"enqueue shard-001","cat":"fleet","ph":"i","ts":0.0,"pid":1,"tid":0,"s":"t","args":{"worker":0}}
{"name":"queue shard-000","cat":"fleet","ph":"X","ts":0.0,"dur":0.0,"pid":1,"tid":0,"args":{"worker":0}}
{"name":"shard-000","cat":"fleet","ph":"X","ts":0.0,"dur":200.0,"pid":1,"tid":1,"args":{"shard":0}}
{"name":"queue shard-001","cat":"fleet","ph":"X","ts":0.0,"dur":200.0,"pid":1,"tid":0,"args":{"worker":0}}
{"name":"shard-001","cat":"fleet","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":1,"args":{"shard":1}}
{"name":"thread_name","ph":"M","pid":1,"tid":2,"args":{"name":"shard-000 fleet-worker-0"}}
{"name":"thread_name","ph":"M","pid":1,"tid":3,"args":{"name":"shard-000 files"}}
{"name":"thread_name","ph":"M","pid":1,"tid":4,"args":{"name":"shard-000 registry"}}
{"name":"thread_name","ph":"M","pid":1,"tid":5,"args":{"name":"shard-000 processes"}}
{"name":"thread_name","ph":"M","pid":1,"tid":6,"args":{"name":"shard-000 modules"}}
{"name":"sweep.inside","cat":"scan","ph":"X","ts":0.0,"dur":200.0,"pid":1,"tid":2,"args":{}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":2,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"files.scan_inside","cat":"scan","ph":"X","ts":0.0,"dur":200.0,"pid":1,"tid":3,"args":{}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":3,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"files.high_scan","cat":"scan","ph":"X","ts":0.0,"dur":0.0,"pid":1,"tid":3,"args":{"view":"HighLevelWin32","entries":124,"api_calls":23,"queries":23,"diverted_queries":2,"diverted_at":"NtdllCode"}}
{"name":"mem","cat":"scan","ph":"C","ts":0.0,"pid":1,"tid":3,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"files.low_scan","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":3,"args":{"view":"LowLevelMft","entries":127,"bytes_read":18925}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":3,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"files.diff","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":3,"args":{"hidden":3,"noise":0}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":3,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"files.cross_view_diff","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":3,"args":{}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":3,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"files.noise_classification","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":3,"args":{}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":3,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"files.scan_inside","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":3,"args":{}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":3,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"files.high_scan","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":3,"args":{"view":"HighLevelWin32","entries":124,"api_calls":23,"queries":23,"diverted_queries":2,"diverted_at":"NtdllCode"}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":3,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"files.low_scan","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":3,"args":{"view":"LowLevelMft","entries":127,"bytes_read":18925}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":3,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"files.diff","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":3,"args":{"hidden":3,"noise":0}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":3,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"files.cross_view_diff","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":3,"args":{}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":3,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"files.noise_classification","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":3,"args":{}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":3,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"registry.scan_inside","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":4,"args":{}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":4,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"registry.high_scan","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":4,"args":{"view":"HighLevelWin32","entries":7,"api_calls":10,"queries":16,"diverted_queries":1,"diverted_at":"NtdllCode"}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":4,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"registry.low_scan","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":4,"args":{"view":"LowLevelHiveParse","entries":9,"bytes_read":7410}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":4,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"registry.diff","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":4,"args":{"hidden":2,"noise":0}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":4,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"registry.cross_view_diff","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":4,"args":{}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":4,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"registry.noise_classification","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":4,"args":{}}
{"name":"registry.scan_inside","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":4,"args":{}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":4,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"registry.high_scan","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":4,"args":{"view":"HighLevelWin32","entries":7,"api_calls":10,"queries":16,"diverted_queries":1,"diverted_at":"NtdllCode"}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":4,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"registry.low_scan","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":4,"args":{"view":"LowLevelHiveParse","entries":9,"bytes_read":7410}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":4,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"registry.diff","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":4,"args":{"hidden":2,"noise":0}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":4,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"registry.cross_view_diff","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":4,"args":{}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":4,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"registry.noise_classification","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":4,"args":{}}
{"name":"processes.scan_inside","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":5,"args":{}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":5,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"processes.high_scan","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":5,"args":{"queries":1,"diverted_queries":1,"diverted_at":"NtdllCode","view":"HighLevelWin32","entries":14}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":5,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"processes.low_scan","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":5,"args":{"source":"ThreadTable","view":"LowLevelThreadTable","entries":15}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":5,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"processes.diff","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":5,"args":{"hidden":1,"noise":0}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":5,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"processes.scan_inside","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":5,"args":{}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":5,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"processes.high_scan","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":5,"args":{"queries":1,"diverted_queries":1,"diverted_at":"NtdllCode","view":"HighLevelWin32","entries":14}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":5,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"processes.low_scan","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":5,"args":{"source":"ThreadTable","view":"LowLevelThreadTable","entries":15}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":5,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"processes.diff","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":5,"args":{"hidden":1,"noise":0}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":5,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"modules.scan_inside","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":6,"args":{}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":6,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"processes.high_scan","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":6,"args":{"queries":1,"diverted_queries":1,"diverted_at":"NtdllCode","view":"HighLevelWin32","entries":14}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":6,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"modules.high_scan","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":6,"args":{"view":"HighLevelWin32","entries":28,"api_calls":14,"queries":14,"diverted_queries":0}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":6,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"processes.high_scan","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":6,"args":{"queries":1,"diverted_queries":1,"diverted_at":"NtdllCode","view":"HighLevelWin32","entries":14}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":6,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"modules.low_scan","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":6,"args":{"view":"LowLevelKernelModules","entries":28}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":6,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"modules.diff","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":6,"args":{"hidden":0,"noise":0}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":6,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"modules.scan_inside","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":6,"args":{}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":6,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"processes.high_scan","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":6,"args":{"queries":1,"diverted_queries":1,"diverted_at":"NtdllCode","view":"HighLevelWin32","entries":14}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":6,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"modules.high_scan","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":6,"args":{"view":"HighLevelWin32","entries":28,"api_calls":14,"queries":14,"diverted_queries":0}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":6,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"processes.high_scan","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":6,"args":{"queries":1,"diverted_queries":1,"diverted_at":"NtdllCode","view":"HighLevelWin32","entries":14}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":6,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"modules.low_scan","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":6,"args":{"view":"LowLevelKernelModules","entries":28}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":6,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"modules.diff","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":6,"args":{"hidden":0,"noise":0}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":6,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"thread_name","ph":"M","pid":1,"tid":7,"args":{"name":"shard-001 fleet-worker-0"}}
{"name":"thread_name","ph":"M","pid":1,"tid":8,"args":{"name":"shard-001 files"}}
{"name":"thread_name","ph":"M","pid":1,"tid":9,"args":{"name":"shard-001 registry"}}
{"name":"thread_name","ph":"M","pid":1,"tid":10,"args":{"name":"shard-001 processes"}}
{"name":"thread_name","ph":"M","pid":1,"tid":11,"args":{"name":"shard-001 modules"}}
{"name":"sweep.inside","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":7,"args":{}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":7,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"files.scan_inside","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":8,"args":{}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":8,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"files.high_scan","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":8,"args":{"view":"HighLevelWin32","entries":124,"api_calls":23,"queries":23,"diverted_queries":0}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":8,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"files.low_scan","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":8,"args":{"view":"LowLevelMft","entries":124,"bytes_read":18601}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":8,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"files.diff","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":8,"args":{"hidden":0,"noise":0}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":8,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"files.cross_view_diff","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":8,"args":{}}
{"name":"files.noise_classification","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":8,"args":{}}
{"name":"files.scan_inside","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":8,"args":{}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":8,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"files.high_scan","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":8,"args":{"view":"HighLevelWin32","entries":124,"api_calls":23,"queries":23,"diverted_queries":0}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":8,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"files.low_scan","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":8,"args":{"view":"LowLevelMft","entries":124,"bytes_read":18601}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":8,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"files.diff","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":8,"args":{"hidden":0,"noise":0}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":8,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"files.cross_view_diff","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":8,"args":{}}
{"name":"files.noise_classification","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":8,"args":{}}
{"name":"registry.scan_inside","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":9,"args":{}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":9,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"registry.high_scan","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":9,"args":{"view":"HighLevelWin32","entries":7,"api_calls":10,"queries":16,"diverted_queries":0}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":9,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"registry.low_scan","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":9,"args":{"view":"LowLevelHiveParse","entries":7,"bytes_read":7134}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":9,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"registry.diff","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":9,"args":{"hidden":0,"noise":0}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":9,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"registry.cross_view_diff","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":9,"args":{}}
{"name":"registry.noise_classification","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":9,"args":{}}
{"name":"registry.scan_inside","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":9,"args":{}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":9,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"registry.high_scan","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":9,"args":{"view":"HighLevelWin32","entries":7,"api_calls":10,"queries":16,"diverted_queries":0}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":9,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"registry.low_scan","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":9,"args":{"view":"LowLevelHiveParse","entries":7,"bytes_read":7134}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":9,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"registry.diff","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":9,"args":{"hidden":0,"noise":0}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":9,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"registry.cross_view_diff","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":9,"args":{}}
{"name":"registry.noise_classification","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":9,"args":{}}
{"name":"processes.scan_inside","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":10,"args":{}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":10,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"processes.high_scan","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":10,"args":{"queries":1,"diverted_queries":0,"view":"HighLevelWin32","entries":14}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":10,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"processes.low_scan","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":10,"args":{"source":"ThreadTable","view":"LowLevelThreadTable","entries":14}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":10,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"processes.diff","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":10,"args":{"hidden":0,"noise":0}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":10,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"processes.scan_inside","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":10,"args":{}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":10,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"processes.high_scan","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":10,"args":{"queries":1,"diverted_queries":0,"view":"HighLevelWin32","entries":14}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":10,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"processes.low_scan","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":10,"args":{"source":"ThreadTable","view":"LowLevelThreadTable","entries":14}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":10,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"processes.diff","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":10,"args":{"hidden":0,"noise":0}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":10,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"modules.scan_inside","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":11,"args":{}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":11,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"processes.high_scan","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":11,"args":{"queries":1,"diverted_queries":0,"view":"HighLevelWin32","entries":14}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":11,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"modules.high_scan","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":11,"args":{"view":"HighLevelWin32","entries":24,"api_calls":14,"queries":14,"diverted_queries":0}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":11,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"processes.high_scan","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":11,"args":{"queries":1,"diverted_queries":0,"view":"HighLevelWin32","entries":14}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":11,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"modules.low_scan","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":11,"args":{"view":"LowLevelKernelModules","entries":24}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":11,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"modules.diff","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":11,"args":{"hidden":0,"noise":0}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":11,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"modules.scan_inside","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":11,"args":{}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":11,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"processes.high_scan","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":11,"args":{"queries":1,"diverted_queries":0,"view":"HighLevelWin32","entries":14}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":11,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"modules.high_scan","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":11,"args":{"view":"HighLevelWin32","entries":24,"api_calls":14,"queries":14,"diverted_queries":0}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":11,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"processes.high_scan","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":11,"args":{"queries":1,"diverted_queries":0,"view":"HighLevelWin32","entries":14}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":11,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"modules.low_scan","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":11,"args":{"view":"LowLevelKernelModules","entries":24}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":11,"args":{"allocs":"*","alloc_bytes":"*"}}
{"name":"modules.diff","cat":"scan","ph":"X","ts":200.0,"dur":0.0,"pid":1,"tid":11,"args":{"hidden":0,"noise":0}}
{"name":"mem","cat":"scan","ph":"C","ts":200.0,"pid":1,"tid":11,"args":{"allocs":"*","alloc_bytes":"*"}}
"#;

const FLEET_QUEUE_WAITS: &[(u32, u64)] = &[(0, 0), (1, 200_000)];

const FLEET_QUEUE_WAIT_P95_NS: u64 = 200_000;

const FLEET_WORKER_BUSY_NS: u64 = 200_000;

const FLEET_WORKER_IDLE_FRACTION: f64 = 0.0;

const QUARANTINE_LANES: &[&str] = &[
    "fleet-scheduler",
    "fleet-worker-0",
    "shard-000 fleet-worker-0",
    "shard-000 files",
    "shard-000 registry",
    "shard-000 processes",
    "shard-000 modules",
    "shard-001 fleet-worker-0",
    "shard-001 files",
    "shard-002 fleet-worker-0",
    "shard-002 files",
    "shard-002 registry",
    "shard-002 processes",
    "shard-002 modules",
];
