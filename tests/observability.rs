//! Diagnosability integration tests: flight-recorder black boxes on
//! degraded pipelines, the continuous sweep monitor's regression
//! detection, Chrome-trace export, and bounded always-on telemetry.
//!
//! Everything runs on a [`FakeClock`] with the deterministic base-system
//! workload, so failures reproduce bit-for-bit: stalls advance simulated
//! time via polling, latency "regressions" are injected fault plans, and
//! the monitor's incident stream is a pure function of the scenario.

use std::sync::Arc;
use strider_ghostbuster_repro::prelude::*;
use strider_support::fault::Stall;
use strider_support::json::JsonValue;
use strider_support::obs::{FakeClock, FlightEventKind, FLIGHT_CAPACITY, SKETCH_MAX_BUCKETS};

fn infected_machine() -> Machine {
    let mut m = Machine::with_base_system("victim").unwrap();
    HackerDefender::default().infect(&mut m).unwrap();
    m
}

/// A resilient policy with a 2 ms pipeline budget, polling stalled reads
/// every 100 µs on the given fake clock.
fn supervised_policy(clock: Arc<FakeClock>) -> ScanPolicy {
    ScanPolicy::resilient()
        .with_clock(clock)
        .with_poll(100_000, 0)
        .with_pipeline_budget(2_000_000)
        .with_sweep_budget(10_000_000)
}

// ---------------------------------------------------------------------
// Black boxes: a degraded pipeline ships its own evidence trail
// ---------------------------------------------------------------------

#[test]
fn degraded_pipeline_carries_a_flight_dump_ending_at_the_failure() {
    let mut m = infected_machine();
    m.set_fault_injector(FaultInjector::new().stall_volume_reads(Stall::forever()));
    let clock = Arc::new(FakeClock::default());
    let gb = GhostBuster::new()
        .with_policy(supervised_policy(clock.clone()))
        .with_telemetry(Telemetry::with_clock(clock));

    let report = gb.inside_sweep(&mut m).unwrap();

    assert!(
        matches!(report.health.files, PipelineStatus::Degraded { .. }),
        "{}",
        report.health
    );
    let dump = report
        .black_box("files")
        .expect("degraded pipeline snapshots the flight recorder");
    assert!(!dump.is_empty(), "black box must not be empty");
    let last = dump.last().expect("non-empty dump has a last event");
    assert_eq!(last.kind, FlightEventKind::Mark);
    assert_eq!(last.what, "files");
    assert_eq!(
        last.detail, "pipeline degraded: operation timed out",
        "the dump ends at the failure record"
    );
    // The events leading up to it include the device-level stall the
    // injector produced — the "what happened just before" evidence.
    assert!(
        dump.events
            .iter()
            .any(|e| e.kind == FlightEventKind::Fault && e.what == "volume.read"),
        "device stall events precede the failure:\n{}",
        dump.render()
    );
    // Healthy pipelines ship no black box.
    assert!(report.black_box("registry").is_none());

    // The report's Display output surfaces the black box too.
    let rendered = report.to_string();
    assert!(
        rendered.contains("black box files:"),
        "report display mentions the black box:\n{rendered}"
    );
}

// ---------------------------------------------------------------------
// SweepMonitor: baseline comparison raises typed incidents
// ---------------------------------------------------------------------

fn fake_monitor(clock: Arc<FakeClock>) -> SweepMonitor {
    SweepMonitor::new(GhostBuster::new().with_policy(supervised_policy(clock)))
        .with_config(MonitorConfig::default().with_interval_ns(1_000_000))
}

#[test]
fn monitor_raises_an_incident_when_a_file_becomes_hidden() {
    let clock = Arc::new(FakeClock::default());
    let mut machine = Machine::with_base_system("victim").unwrap();
    let mut monitor = fake_monitor(clock);

    let baseline = monitor.record_baseline(&mut machine).unwrap();
    assert!(baseline.findings.is_empty(), "clean machine at baseline");

    // Quiet periods raise nothing.
    let calm = monitor.observe(&mut machine).unwrap();
    assert!(calm.incidents.is_empty(), "{:?}", calm.incidents);

    // Then the machine is infected between sweeps.
    HackerDefender::default().infect(&mut machine).unwrap();
    let alarmed = monitor.observe(&mut machine).unwrap();

    let hidden: Vec<_> = alarmed
        .incidents
        .iter()
        .filter_map(|i| match i {
            MonitorIncident::NewHiddenResource {
                pipeline,
                identity,
                flight,
                ..
            } => Some((pipeline.as_str(), identity.as_str(), flight)),
            _ => None,
        })
        .collect();
    assert!(
        hidden
            .iter()
            .any(|(pipeline, identity, _)| *pipeline == "files" && identity.contains("hxdef")),
        "the newly hidden file is reported: {:?}",
        alarmed.incidents
    );
    for (_, _, flight) in &hidden {
        assert!(!flight.is_empty(), "incidents carry the flight dump");
    }
    // No latency regression was injected, so none is reported.
    assert!(
        !alarmed
            .incidents
            .iter()
            .any(|i| matches!(i, MonitorIncident::LatencyRegression { .. })),
        "{:?}",
        alarmed.incidents
    );
}

#[test]
fn monitor_flags_an_injected_latency_regression() {
    let clock = Arc::new(FakeClock::default());
    let mut machine = Machine::with_base_system("victim").unwrap();
    let mut monitor = fake_monitor(clock);
    monitor.record_baseline(&mut machine).unwrap();

    // A finite stall: the file pipeline still completes (after five
    // 100 µs polls on the fake clock) but is now ~500 µs slower than the
    // instantaneous baseline — past the default 2x + 100 µs threshold.
    machine.set_fault_injector(FaultInjector::new().stall_volume_reads(Stall::after_polls(5)));
    let observation = monitor.observe(&mut machine).unwrap();

    assert!(
        observation.report.health.files.is_ok(),
        "the stall resolves within budget — this is a slowdown, not an outage: {}",
        observation.report.health
    );
    let regression = observation
        .incidents
        .iter()
        .find_map(|i| match i {
            MonitorIncident::LatencyRegression {
                pipeline,
                baseline_ns,
                observed_ns,
                flight,
            } if pipeline == "files" => Some((*baseline_ns, *observed_ns, flight)),
            _ => None,
        })
        .expect("files latency regression is raised");
    let (baseline_ns, observed_ns, flight) = regression;
    assert!(
        observed_ns >= 500_000,
        "five 100 µs polls show up in the duration: {observed_ns}"
    );
    assert!(observed_ns > baseline_ns);
    assert!(
        flight
            .events
            .iter()
            .any(|e| e.kind == FlightEventKind::Fault && e.detail.contains("stalled")),
        "the incident's flight dump shows the stall:\n{}",
        flight.render()
    );
    // The rolling series saw both the calm baseline-shaped sweep and the
    // slow one.
    let series = &monitor.core.series()["files.duration_ns"];
    assert_eq!(series.len(), 1);
    assert!(series.last().unwrap() >= 500_000.0);
}

#[test]
fn monitor_reports_a_health_downgrade_with_the_black_box() {
    let clock = Arc::new(FakeClock::default());
    let mut machine = Machine::with_base_system("victim").unwrap();
    let mut monitor = fake_monitor(clock);
    monitor.record_baseline(&mut machine).unwrap();

    machine.set_fault_injector(FaultInjector::new().stall_volume_reads(Stall::forever()));
    let observation = monitor.observe(&mut machine).unwrap();

    let downgrade = observation
        .incidents
        .iter()
        .find_map(|i| match i {
            MonitorIncident::HealthDowngrade {
                pipeline,
                reason,
                flight,
            } if pipeline == "files" => Some((reason.clone(), flight)),
            _ => None,
        })
        .expect("files health downgrade is raised");
    assert_eq!(downgrade.0, "operation timed out");
    assert!(!downgrade.1.is_empty());
}

#[test]
fn monitor_baseline_survives_a_json_round_trip_across_monitors() {
    let clock = Arc::new(FakeClock::default());
    let mut machine = Machine::with_base_system("victim").unwrap();
    let mut monitor = fake_monitor(clock.clone());
    let serialized = monitor.record_baseline(&mut machine).unwrap().serialize();

    // A fresh monitor (fleet restart) resumes from the stored snapshot and
    // still detects the infection.
    let mut resumed = fake_monitor(clock);
    resumed.set_baseline(SweepBaseline::deserialize(&serialized).unwrap());
    HackerDefender::default().infect(&mut machine).unwrap();
    let observation = resumed.observe(&mut machine).unwrap();
    assert!(
        observation
            .incidents
            .iter()
            .any(|i| matches!(i, MonitorIncident::NewHiddenResource { .. })),
        "{:?}",
        observation.incidents
    );
}

// ---------------------------------------------------------------------
// Chrome-trace export: one timeline, four pipeline threads
// ---------------------------------------------------------------------

#[test]
fn chrome_trace_distinguishes_the_four_pipeline_threads() {
    let mut m = infected_machine();
    let clock = Arc::new(FakeClock::default());
    let telemetry = Telemetry::with_clock(clock.clone());
    GhostBuster::new()
        .with_policy(supervised_policy(clock))
        .with_telemetry(telemetry.clone())
        .inside_sweep(&mut m)
        .unwrap();
    let report = telemetry.report();

    // The export round-trips through the hermetic JSON parser.
    let trace = JsonValue::parse(&report.chrome_trace().render()).unwrap();
    let events = trace.as_arr().expect("trace_event array format");
    assert!(!events.is_empty());

    let mut pipeline_tids = std::collections::BTreeMap::new();
    for event in events {
        let obj = event.as_obj().expect("every trace event is an object");
        let field = |k: &str| obj.iter().find(|(key, _)| key == k).map(|(_, v)| v);
        let str_field = |k: &str| field(k).and_then(|v| v.as_str().ok());
        let ph = str_field("ph").expect("ph");
        assert!(field("pid").and_then(|v| v.as_u64().ok()).is_some(), "pid");
        let tid = field("tid").and_then(|v| v.as_u64().ok()).expect("tid");
        let name = str_field("name").expect("name");
        match ph {
            "X" => {
                assert!(field("ts").and_then(|v| v.as_f64().ok()).is_some());
                assert!(field("dur").and_then(|v| v.as_f64().ok()).is_some());
                if let Some(pipeline) = name.strip_suffix(".scan_inside") {
                    pipeline_tids.insert(pipeline.to_string(), tid);
                }
            }
            "i" => assert!(field("ts").and_then(|v| v.as_f64().ok()).is_some()),
            "M" => assert_eq!(name, "thread_name"),
            "C" => {
                // Allocation counter samples ride alongside the spans.
                assert_eq!(name, "mem");
                assert!(field("ts").and_then(|v| v.as_f64().ok()).is_some());
            }
            other => panic!("unexpected trace phase {other:?}"),
        }
    }
    assert_eq!(
        pipeline_tids.keys().collect::<Vec<_>>(),
        ["files", "modules", "processes", "registry"],
        "all four pipelines appear"
    );
    let mut tids: Vec<u64> = pipeline_tids.values().copied().collect();
    tids.sort_unstable();
    tids.dedup();
    assert_eq!(tids.len(), 4, "each pipeline ran on its own thread");
}

// ---------------------------------------------------------------------
// Bounded always-on telemetry
// ---------------------------------------------------------------------

#[test]
fn a_million_samples_stay_under_the_documented_bucket_cap() {
    let telemetry = Telemetry::new();
    // Adversarial spread: ~9 decades of latencies, plus zeros.
    for i in 0..1_000_000u64 {
        let value = ((i % 997) + 1) as f64 * 10f64.powi((i % 9) as i32);
        telemetry.histogram_record("stress.latency_ns", value);
    }
    telemetry.histogram_record("stress.latency_ns", 0.0);
    let report = telemetry.report();
    let sketch = &report.histograms["stress.latency_ns"];
    assert_eq!(sketch.count(), 1_000_001);
    assert!(
        sketch.bucket_count() <= SKETCH_MAX_BUCKETS,
        "{} buckets exceeds the documented cap",
        sketch.bucket_count()
    );
    // Quantiles still answer from bounded state.
    assert!(sketch.percentile(50.0).is_some());
    assert_eq!(sketch.percentile(0.0), Some(0.0));
}

#[test]
fn flight_recorder_events_do_not_grow_the_report_json_unboundedly() {
    let clock = Arc::new(FakeClock::default());
    let telemetry = Telemetry::with_clock(clock.clone());
    let sized_render = |t: &Telemetry| {
        use strider_support::json::ToJson;
        t.report().to_json().render().len()
    };

    for i in 0..FLIGHT_CAPACITY {
        clock.advance(10);
        telemetry.recorder().mark("warmup", &format!("event {i}"));
    }
    let after_fill = sized_render(&telemetry);

    // Ten more rings' worth of events: the ring overwrites, the report
    // JSON stays the same size (modulo timestamp digit drift).
    for i in 0..FLIGHT_CAPACITY * 10 {
        clock.advance(10);
        telemetry.recorder().mark("steady", &format!("event {i}"));
    }
    let after_flood = sized_render(&telemetry);

    let report = telemetry.report();
    assert_eq!(report.flight.len(), FLIGHT_CAPACITY, "capacity respected");
    assert_eq!(report.flight.dropped, (FLIGHT_CAPACITY * 10) as u64);
    assert!(
        after_flood < after_fill + after_fill / 5,
        "report JSON must not grow with event volume: {after_fill} -> {after_flood}"
    );
}

// ---------------------------------------------------------------------
// Telemetry vocabulary: the names every dashboard and alert rule keys on
// ---------------------------------------------------------------------

/// Sorted span names, sorted counter names, and each black box's last
/// event (`pipeline kind what: detail`) of one sweep.
fn vocabulary(report: &SweepReport) -> (Vec<String>, Vec<String>, Vec<String>) {
    let telemetry = report.telemetry.as_ref().expect("telemetry attached");
    let spans = telemetry.phase_totals().into_keys().collect();
    let counters = telemetry.counters.keys().cloned().collect();
    let black_boxes = report
        .black_boxes
        .iter()
        .map(|(pipeline, dump)| {
            let last = dump.last().expect("a black box ends at its failure");
            format!("{pipeline} {} {}: {}", last.kind, last.what, last.detail)
        })
        .collect();
    (spans, counters, black_boxes)
}

#[test]
fn telemetry_vocabulary_of_both_sweep_flows_is_pinned() {
    // Inside, hardened: salvage steps over a truncated volume and a
    // damaged SOFTWARE bin (defects), and the decoy pumps fire.
    let mut m = infected_machine();
    let software: NtPath = "HKLM\\SOFTWARE".parse().unwrap();
    let len = m.copy_hive_bytes(&software).unwrap().len();
    m.set_fault_injector(
        FaultInjector::new()
            .corrupt_volume(FaultPlan::new(3).truncate_to(0.9))
            .corrupt_hive(software, FaultPlan::new(7).zero_range(len / 3, 64)),
    );
    let clock = Arc::new(FakeClock::default());
    let inside = GhostBuster::new()
        .with_policy(ScanPolicy::hardened().with_clock(clock.clone()))
        .with_telemetry(Telemetry::with_clock(clock))
        .inside_sweep(&mut m)
        .unwrap();
    let (spans, counters, black_boxes) = vocabulary(&inside);
    assert_eq!(
        spans,
        [
            "files.cross_view_diff",
            "files.diff",
            "files.high_scan",
            "files.low_scan",
            "files.noise_classification",
            "files.scan_inside",
            "modules.diff",
            "modules.high_scan",
            "modules.low_scan",
            "modules.scan_inside",
            "processes.diff",
            "processes.high_scan",
            "processes.low_scan",
            "processes.scan_inside",
            "registry.cross_view_diff",
            "registry.diff",
            "registry.high_scan",
            "registry.low_scan",
            "registry.noise_classification",
            "registry.scan_inside",
            "sweep.inside",
        ],
        "inside spans"
    );
    assert_eq!(
        counters,
        [
            "files.decoys",
            "files.defects",
            "files.entries.HighLevelWin32",
            "files.entries.LowLevelMft",
            "modules.entries.HighLevelWin32",
            "modules.entries.LowLevelKernelModules",
            "processes.entries.HighLevelWin32",
            "processes.entries.LowLevelApl",
            "registry.decoys",
            "registry.defects",
            "registry.entries.HighLevelWin32",
            "registry.entries.LowLevelHiveParse",
        ],
        "inside counters"
    );
    assert!(
        black_boxes.is_empty(),
        "inside black boxes: {black_boxes:?}"
    );
    let telemetry = inside.telemetry.as_ref().unwrap();
    for truth_span in ["files.low_scan", "registry.low_scan"] {
        let span = telemetry.find_span(truth_span).expect("truth span");
        assert!(span.attr("defects").is_some(), "{truth_span} defects attr");
    }

    // Outside, strict: the dump device never answers, so the volatile
    // pipelines degrade while the disk-based ones complete.
    let mut m = infected_machine();
    m.set_fault_injector(FaultInjector::new().fail_dump_reads(100));
    let clock = Arc::new(FakeClock::default());
    let outside = GhostBuster::new()
        .with_policy(ScanPolicy::strict().with_clock(clock.clone()))
        .with_telemetry(Telemetry::with_clock(clock))
        .winpe_outside_sweep(&mut m, 150)
        .unwrap();
    let (spans, counters, black_boxes) = vocabulary(&outside);
    assert_eq!(
        spans,
        [
            "files.cross_view_diff",
            "files.diff",
            "files.high_scan",
            "files.noise_classification",
            "files.outside_scan",
            "modules.high_scan",
            "processes.high_scan",
            "registry.cross_view_diff",
            "registry.diff",
            "registry.high_scan",
            "registry.noise_classification",
            "registry.outside_scan",
            "sweep.outside",
        ],
        "outside spans"
    );
    assert_eq!(
        counters,
        [
            "files.entries.HighLevelWin32",
            "files.entries.OutsideDisk",
            "modules.entries.HighLevelWin32",
            "processes.entries.HighLevelWin32",
            "registry.entries.HighLevelWin32",
            "registry.entries.OutsideMountedHives",
            "sweep.degraded.modules",
            "sweep.degraded.processes",
        ],
        "outside counters"
    );
    assert_eq!(
        black_boxes,
        [
            "processes mark processes: pipeline degraded: device not ready",
            "modules mark modules: pipeline degraded: device not ready",
        ],
        "outside black boxes"
    );
}

// ---------------------------------------------------------------------
// Export file names: every artifact kind, one table
// ---------------------------------------------------------------------

#[test]
fn artifact_file_names_are_pinned_for_every_kind() {
    use std::path::{Path, PathBuf};
    use strider_support::alert::Exposition;
    use strider_support::prof::PerfReport;

    type Writer = fn(&Path, &str) -> std::io::Result<PathBuf>;
    let kinds: [(&str, Writer); 5] = [
        ("SCAN_TELEMETRY_", |dir, label| {
            TelemetryReport::default().write_json_in(dir, label)
        }),
        ("SCAN_TRACE_", |dir, label| {
            TelemetryReport::default().write_chrome_trace_in(dir, label)
        }),
        ("SCAN_PERF_", |dir, label| {
            PerfReport::from_telemetry(label, &TelemetryReport::default()).write_json_in(dir)
        }),
        ("TELEMETRY_EXPO_", |dir, label| {
            Exposition::new().write_in(dir, label)
        }),
        ("FLEET_TRACE_", |dir, label| {
            let trace = FleetTrace {
                workers: 0,
                start_ns: 0,
                end_ns: 0,
                events: Vec::new(),
                shards: Vec::new(),
            };
            trace.write_chrome_trace_in(dir, label)
        }),
    ];
    let dir = std::env::temp_dir().join(format!("strider-artifacts-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut names = Vec::new();
    for (prefix, write) in kinds {
        for label in ["unit test!", "--a//b  c--"] {
            let path = write(&dir, label).unwrap();
            assert!(path.is_file(), "{prefix} wrote {}", path.display());
            assert_eq!(path.parent(), Some(dir.as_path()));
            names.push(path.file_name().unwrap().to_string_lossy().into_owned());
        }
        let err = write(&dir, "///").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{prefix}");
    }
    assert_eq!(
        names,
        [
            "SCAN_TELEMETRY_unit_test.json",
            "SCAN_TELEMETRY_a_b_c.json",
            "SCAN_TRACE_unit_test.json",
            "SCAN_TRACE_a_b_c.json",
            "SCAN_PERF_unit_test.json",
            "SCAN_PERF_a_b_c.json",
            "TELEMETRY_EXPO_unit_test.prom",
            "TELEMETRY_EXPO_a_b_c.prom",
            "FLEET_TRACE_unit_test.json",
            "FLEET_TRACE_a_b_c.json",
        ]
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
