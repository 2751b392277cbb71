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

#[test]
fn judging_a_sweep_keeps_its_full_flight_ring_at_capacity() {
    use strider_support::alert::{AlertCondition, AlertRule};
    let clock = Arc::new(FakeClock::default());
    let mut monitor = fake_monitor(clock.clone());
    monitor.core.add_rule(AlertRule::new(
        "always_on",
        "sweep.suspicious",
        AlertCondition::Below(1_000.0),
    ));
    let mut machine = Machine::with_base_system("lab-full-ring").unwrap();
    let mut report = GhostBuster::new()
        .with_policy(supervised_policy(clock.clone()))
        .with_telemetry(Telemetry::with_clock(clock.clone()))
        .inside_sweep(&mut machine)
        .unwrap();
    // A sweep whose black box already overflowed its ring.
    let flooded = Telemetry::with_clock(clock);
    for i in 0..FLIGHT_CAPACITY + 5 {
        flooded.recorder().mark("flood", &format!("event {i}"));
    }
    report.telemetry.as_mut().unwrap().flight = flooded.report().flight;

    // The alert transition evicts the oldest event and continues the
    // sequence numbers.
    let observation = monitor.judge(report);
    let flight = &observation.report.telemetry.as_ref().unwrap().flight;
    assert_eq!(flight.len(), FLIGHT_CAPACITY);
    assert_eq!(flight.dropped, 6);
    let last = flight.last().unwrap();
    assert_eq!(
        (last.kind, last.what.as_str()),
        (FlightEventKind::Alert, "always_on")
    );
    assert!(flight.events.windows(2).all(|w| w[1].seq == w[0].seq + 1));
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
    let len = m.try_copy_hive_bytes(&software).unwrap().len();
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
            FleetReport::default().write_chrome_trace_in(dir, label)
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

// ---------------------------------------------------------------------
// Chain attribution: which level lied, pinned per level and per sample
// ---------------------------------------------------------------------

/// A [`ChainTrace`] from literal parts: `(level, rows_in, rows_out,
/// mutated)` per hop.
fn chain(
    kind: QueryKind,
    entry: ChainEntry,
    truth_rows: u64,
    hops: &[(Level, u64, u64, bool)],
    marshal_mutated: bool,
    final_rows: u64,
) -> ChainTrace {
    ChainTrace {
        kind,
        entry,
        truth_rows,
        hops: hops
            .iter()
            .map(|&(level, rows_in, rows_out, mutated)| LevelHop {
                level,
                rows_in,
                rows_out,
                mutated,
            })
            .collect(),
        marshal_mutated,
        final_rows,
    }
}

/// A clean base machine plus `C:\pin` holding `ghost.txt` and
/// `plain.txt`, and `HKLM\SOFTWARE\Pin` holding the values `ghost` and
/// `AppInit_DLLs`.
fn pin_machine() -> Machine {
    let mut m = Machine::with_base_system("pin").unwrap();
    m.volume_mut().mkdir(&"C:\\pin".parse().unwrap()).unwrap();
    m.volume_mut()
        .create_file(&"C:\\pin\\ghost.txt".parse().unwrap(), b"x")
        .unwrap();
    m.volume_mut()
        .create_file(&"C:\\pin\\plain.txt".parse().unwrap(), b"x")
        .unwrap();
    let key: NtPath = "HKLM\\SOFTWARE\\Pin".parse().unwrap();
    m.registry_mut().create_key(&key).unwrap();
    m.registry_mut()
        .set_value(&key, "ghost", ValueData::sz("C:\\pin\\ghost.txt"))
        .unwrap();
    m.registry_mut()
        .set_value(&key, "AppInit_DLLs", ValueData::sz("a.dll ghost.dll"))
        .unwrap();
    m
}

fn pin_files() -> Query {
    Query::DirectoryEnum {
        path: "C:\\pin".parse().unwrap(),
    }
}

fn pin_values() -> Query {
    Query::RegEnumValues {
        key: "HKLM\\SOFTWARE\\Pin".parse().unwrap(),
    }
}

/// Both entries' traces for `query`, checking that each walk returned
/// the same rows as [`Machine::query`].
fn traced_both(m: &Machine, query: &Query) -> [ChainTrace; 2] {
    let ctx = m.context_for_name("explorer.exe").unwrap();
    [ChainEntry::Win32, ChainEntry::Native].map(|entry| {
        let (rows, trace) = m.query_traced(&ctx, query, entry).unwrap();
        assert_eq!(rows, m.query(&ctx, query, entry).unwrap());
        trace
    })
}

#[test]
fn chain_attribution_is_pinned_per_level() {
    use strider_ghostbuster_repro::ghostware::filters::{hide_names_containing, scrub_value_data};
    use Level::*;
    use QueryKind::{Files, RegValues};
    let (w, n) = (ChainEntry::Win32, ChainEntry::Native);

    // One hider at each of the six levels.
    let hider = || hide_names_containing(&["ghost"]);
    type Install = fn(&mut Machine, Arc<dyn QueryFilter>);
    let install: [(Level, Install); 6] = [
        (FilterDriver, |m, f| {
            m.install_filter_driver("pin", HookScope::All, f);
        }),
        (RegistryCallback, |m, f| {
            m.install_registry_callback("pin", HookScope::All, f);
        }),
        (Ssdt, |m, f| {
            m.install_ssdt_hook("pin", SyscallId::NtQueryDirectoryFile, vec![Files], f);
        }),
        (NtdllCode, |m, f| {
            m.install_ntdll_hook("pin", vec![Files], HookScope::All, f);
        }),
        (Win32ApiCode, |m, f| {
            m.install_win32_code_hook("pin", vec![Files], HookScope::All, HookStyle::Detour, f);
        }),
        (Iat, |m, f| {
            m.install_iat_hook("pin", vec![Files], HookScope::All, f);
        }),
    ];
    for (level, install) in install {
        let mut m = pin_machine();
        install(&mut m, hider());
        let (kind, query) = if level == RegistryCallback {
            (RegValues, pin_values())
        } else {
            (Files, pin_files())
        };
        // Two rows enter; the hider drops `ghost` at its own level, so
        // every level above it sees one row.
        let lied = |l: Level| {
            (
                l,
                2 - u64::from(l > level),
                2 - u64::from(l >= level),
                l == level,
            )
        };
        let win32: Vec<_> = Level::ALL.into_iter().map(lied).collect();
        let native: Vec<_> = Level::ALL
            .into_iter()
            .filter(|l| l.applies_to_native_calls())
            .map(|l| {
                if level.applies_to_native_calls() {
                    lied(l)
                } else {
                    (l, 2, 2, false)
                }
            })
            .collect();
        let native_final = if level.applies_to_native_calls() {
            1
        } else {
            2
        };
        assert_eq!(
            traced_both(&m, &query),
            [
                chain(kind, w, 2, &win32, false, 1),
                chain(kind, n, 2, &native, false, native_final),
            ],
            "hider at {level:?}"
        );
    }

    // A same-count edit: the value stays, its data is scrubbed.
    let mut m = pin_machine();
    m.install_ntdll_hook(
        "pin",
        vec![RegValues],
        HookScope::All,
        scrub_value_data("AppInit_DLLs", "ghost.dll"),
    );
    let clean4 = [(FilterDriver, 2, 2, false), (RegistryCallback, 2, 2, false)];
    let scrubbed = [
        clean4[0],
        clean4[1],
        (Ssdt, 2, 2, false),
        (NtdllCode, 2, 2, true),
    ];
    let mut scrubbed_win32 = scrubbed.to_vec();
    scrubbed_win32.extend([(Win32ApiCode, 2, 2, false), (Iat, 2, 2, false)]);
    assert_eq!(
        traced_both(&m, &pin_values()),
        [
            chain(RegValues, w, 2, &scrubbed_win32, false, 2),
            chain(RegValues, n, 2, &scrubbed, false, 2),
        ],
        "scrub_value_data"
    );

    // A trailing-dot name: only Win32 marshalling hides it.
    let mut m = pin_machine();
    m.native_create_file(&"C:\\pin\\update.".parse().unwrap(), b"x")
        .unwrap();
    let clean = |rows: u64, native: bool| -> Vec<(Level, u64, u64, bool)> {
        Level::ALL
            .into_iter()
            .filter(|l| !native || l.applies_to_native_calls())
            .map(|l| (l, rows, rows, false))
            .collect()
    };
    assert_eq!(
        traced_both(&m, &pin_files()),
        [
            chain(Files, w, 3, &clean(3, false), true, 2),
            chain(Files, n, 3, &clean(3, true), false, 3),
        ],
        "trailing dot"
    );

    // A hook that runs but matches nothing.
    let mut m = pin_machine();
    m.install_ntdll_hook(
        "pin",
        vec![Files],
        HookScope::All,
        hide_names_containing(&["zzz"]),
    );
    assert_eq!(
        traced_both(&m, &pin_files()),
        [
            chain(Files, w, 2, &clean(2, false), false, 2),
            chain(Files, n, 2, &clean(2, true), false, 2),
        ],
        "no match"
    );

    // Scan-aware ghostware: a lying call, then an honest one right after
    // a raw read.
    let mut m = pin_machine();
    let gw = EvasiveGhostware::new(EvasiveTactic::UnhideDuringLowScan { window: 4 });
    gw.infect(&mut m).unwrap();
    let system32 = Query::DirectoryEnum {
        path: "C:\\windows\\system32".parse().unwrap(),
    };
    let ctx = m.context_for_name("explorer.exe").unwrap();
    let (_, lying) = m.query_traced(&ctx, &system32, w).unwrap();
    m.try_read_raw_volume_image().unwrap();
    let (_, honest) = m.query_traced(&ctx, &system32, w).unwrap();
    // A base machine's `C:\windows\system32` plus the sample's two files.
    let truth = 20;
    let lied = [
        (FilterDriver, truth, truth, false),
        (RegistryCallback, truth, truth, false),
        (Ssdt, truth, truth, false),
        (NtdllCode, truth, truth - 2, true),
        (Win32ApiCode, truth - 2, truth - 2, false),
        (Iat, truth - 2, truth - 2, false),
    ];
    assert_eq!(
        [lying, honest],
        [
            chain(Files, w, truth, &lied, false, truth - 2),
            chain(Files, w, truth, &clean(truth, false), false, truth),
        ],
        "evasive lying then honest"
    );
    let sense = gw.sense();
    assert_eq!((sense.lying_calls, sense.honest_calls), (1, 1));
}

#[test]
fn chain_attribution_span_attrs_are_pinned_over_the_corpus() {
    let mut samples: Vec<Box<dyn Ghostware>> = file_hiding_corpus();
    samples.extend([
        Box::new(Berbew::default()) as Box<dyn Ghostware>,
        Box::new(Fu::default()),
        Box::new(NamingTrick),
    ]);
    let mut lines = Vec::new();
    for sample in samples {
        let mut m = Machine::with_base_system("victim").unwrap();
        sample.infect(&mut m).unwrap();
        let clock = Arc::new(FakeClock::default());
        let report = GhostBuster::new()
            .with_telemetry(Telemetry::with_clock(clock))
            .inside_sweep(&mut m)
            .unwrap();
        let telemetry = report.telemetry.as_ref().unwrap();
        for span in [
            "files.high_scan",
            "registry.high_scan",
            "processes.high_scan",
            "modules.high_scan",
        ] {
            let s = telemetry.find_span(span).expect("high scan span");
            let attr = |k: &str| s.attr(k).map_or("-".to_string(), ToString::to_string);
            lines.push(format!(
                "{} {span} queries={} diverted={} marshal={} at={}",
                sample.name(),
                attr("queries"),
                attr("diverted_queries"),
                attr("marshal_mutations"),
                attr("diverted_at"),
            ));
        }
    }
    assert_eq!(
        lines,
        [
        "Urbin files.high_scan queries=13 diverted=1 marshal=- at=Iat",
        "Urbin registry.high_scan queries=16 diverted=2 marshal=- at=Iat",
        "Urbin processes.high_scan queries=1 diverted=0 marshal=- at=-",
        "Urbin modules.high_scan queries=10 diverted=0 marshal=- at=-",
        "Mersting files.high_scan queries=13 diverted=1 marshal=- at=Iat",
        "Mersting registry.high_scan queries=16 diverted=2 marshal=- at=Iat",
        "Mersting processes.high_scan queries=1 diverted=0 marshal=- at=-",
        "Mersting modules.high_scan queries=10 diverted=0 marshal=- at=-",
        "Vanquish files.high_scan queries=13 diverted=2 marshal=- at=Win32ApiCode",
        "Vanquish registry.high_scan queries=16 diverted=1 marshal=- at=Win32ApiCode",
        "Vanquish processes.high_scan queries=1 diverted=0 marshal=- at=-",
        "Vanquish modules.high_scan queries=10 diverted=6 marshal=6 at=-",
        "Aphex files.high_scan queries=13 diverted=1 marshal=- at=Win32ApiCode",
        "Aphex registry.high_scan queries=16 diverted=2 marshal=- at=Win32ApiCode",
        "Aphex processes.high_scan queries=1 diverted=1 marshal=- at=Iat",
        "Aphex modules.high_scan queries=10 diverted=0 marshal=- at=-",
        "Hacker Defender 1.0 files.high_scan queries=13 diverted=2 marshal=- at=NtdllCode",
        "Hacker Defender 1.0 registry.high_scan queries=16 diverted=1 marshal=- at=NtdllCode",
        "Hacker Defender 1.0 processes.high_scan queries=1 diverted=1 marshal=- at=NtdllCode",
        "Hacker Defender 1.0 modules.high_scan queries=10 diverted=0 marshal=- at=-",
        "ProBot SE files.high_scan queries=13 diverted=2 marshal=- at=Ssdt",
        "ProBot SE registry.high_scan queries=16 diverted=3 marshal=- at=Ssdt",
        "ProBot SE processes.high_scan queries=1 diverted=0 marshal=- at=-",
        "ProBot SE modules.high_scan queries=10 diverted=0 marshal=- at=-",
        "Hide Files 3.3 files.high_scan queries=14 diverted=1 marshal=- at=FilterDriver",
        "Hide Files 3.3 registry.high_scan queries=16 diverted=0 marshal=- at=-",
        "Hide Files 3.3 processes.high_scan queries=1 diverted=0 marshal=- at=-",
        "Hide Files 3.3 modules.high_scan queries=11 diverted=0 marshal=- at=-",
        "Hide Folders XP files.high_scan queries=14 diverted=1 marshal=- at=FilterDriver",
        "Hide Folders XP registry.high_scan queries=16 diverted=0 marshal=- at=-",
        "Hide Folders XP processes.high_scan queries=1 diverted=0 marshal=- at=-",
        "Hide Folders XP modules.high_scan queries=11 diverted=0 marshal=- at=-",
        "Advanced Hide Folders files.high_scan queries=14 diverted=1 marshal=- at=FilterDriver",
        "Advanced Hide Folders registry.high_scan queries=16 diverted=0 marshal=- at=-",
        "Advanced Hide Folders processes.high_scan queries=1 diverted=0 marshal=- at=-",
        "Advanced Hide Folders modules.high_scan queries=11 diverted=0 marshal=- at=-",
        "File & Folder Protector files.high_scan queries=14 diverted=1 marshal=- at=FilterDriver",
        "File & Folder Protector registry.high_scan queries=16 diverted=0 marshal=- at=-",
        "File & Folder Protector processes.high_scan queries=1 diverted=0 marshal=- at=-",
        "File & Folder Protector modules.high_scan queries=11 diverted=0 marshal=- at=-",
        "Berbew files.high_scan queries=13 diverted=0 marshal=- at=-",
        "Berbew registry.high_scan queries=16 diverted=0 marshal=- at=-",
        "Berbew processes.high_scan queries=1 diverted=1 marshal=- at=NtdllCode",
        "Berbew modules.high_scan queries=10 diverted=0 marshal=- at=-",
        "FU files.high_scan queries=13 diverted=0 marshal=- at=-",
        "FU registry.high_scan queries=16 diverted=0 marshal=- at=-",
        "FU processes.high_scan queries=1 diverted=0 marshal=- at=-",
        "FU modules.high_scan queries=10 diverted=0 marshal=- at=-",
        "NamingTrick files.high_scan queries=22 diverted=4 marshal=4 at=-",
        "NamingTrick registry.high_scan queries=16 diverted=2 marshal=2 at=-",
        "NamingTrick processes.high_scan queries=1 diverted=0 marshal=- at=-",
        "NamingTrick modules.high_scan queries=10 diverted=0 marshal=- at=-",
        ],
        "{lines:#?}"
    );
}
