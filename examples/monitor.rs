//! Continuous monitoring: record a baseline sweep, watch a machine on a
//! schedule, and raise incidents when a resource hides or a pipeline slows
//! down — then export the alarmed sweep's telemetry and Chrome trace.
//!
//! Self-validating and headless: it runs on a [`FakeClock`], asserts every
//! expected incident fires, and re-parses both exported JSON files through
//! the hermetic parser, so CI can run it as a smoke test:
//!
//! ```sh
//! STRIDER_BENCH_DIR=/tmp cargo run --example monitor
//! ```
//!
//! Open the emitted `SCAN_TRACE_monitor.json` in Perfetto or
//! `chrome://tracing` to see the four pipeline threads side by side.

use std::sync::Arc;
use strider_ghostbuster_repro::prelude::*;
use strider_support::bench::report_dir;
use strider_support::fault::Stall;
use strider_support::json::JsonValue;
use strider_support::obs::FakeClock;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let clock = Arc::new(FakeClock::default());
    let policy = ScanPolicy::resilient()
        .with_clock(clock.clone())
        .with_poll(100_000, 0)
        .with_pipeline_budget(2_000_000)
        .with_sweep_budget(10_000_000);
    let mut machine = Machine::with_base_system("monitored-box")?;
    let mut monitor = SweepMonitor::new(GhostBuster::new().with_policy(policy))
        .with_config(MonitorConfig::default().with_interval_ns(1_000_000_000));

    // One golden sweep becomes the comparison anchor; it would normally be
    // serialized (SweepBaseline::serialize) and stored with the machine.
    let baseline = monitor.record_baseline(&mut machine)?.clone();
    println!(
        "baseline on {:?}: {} findings, {} pipelines timed",
        baseline.machine,
        baseline.findings.len(),
        baseline.pipeline_duration_ns.len()
    );

    // Quiet period: scheduled sweeps, one simulated second apart.
    let calm = monitor.run(&mut machine, 3)?;
    let calm_incidents: usize = calm.iter().map(|o| o.incidents.len()).sum();
    println!("3 scheduled sweeps -> {calm_incidents} incidents");
    assert_eq!(calm_incidents, 0, "a clean machine must stay quiet");

    // Then a rootkit arrives between sweeps, and the volume starts
    // stalling (a slowdown the supervisor absorbs, not an outage).
    HackerDefender::default().infect(&mut machine)?;
    machine.set_fault_injector(FaultInjector::new().stall_volume_reads(Stall::after_polls(5)));

    let observation = monitor.observe(&mut machine)?;
    println!("\nincidents after infection + stall:");
    for incident in &observation.incidents {
        println!("  {incident}");
        println!("    evidence: {} flight events", incident.flight().len());
    }
    assert!(
        observation
            .incidents
            .iter()
            .any(|i| matches!(i, MonitorIncident::NewHiddenResource { .. })),
        "the hidden file must be reported"
    );
    assert!(
        observation
            .incidents
            .iter()
            .any(|i| matches!(i, MonitorIncident::LatencyRegression { .. })),
        "the stall must be reported as a latency regression"
    );

    // Export the alarmed sweep's telemetry + Chrome trace, then validate
    // both round-trip through the hermetic JSON parser.
    let report = observation
        .report
        .telemetry
        .as_ref()
        .expect("monitored sweeps always carry telemetry");
    let telemetry_path = report.write_json_in(&report_dir(), "monitor")?;
    let trace_path = report.write_chrome_trace_in(&report_dir(), "monitor")?;

    let telemetry_doc = JsonValue::parse(&std::fs::read_to_string(&telemetry_path)?)?;
    let top = telemetry_doc.as_obj()?;
    for key in [
        "spans",
        "threads",
        "counters",
        "gauges",
        "histograms",
        "flight",
    ] {
        assert!(
            top.iter().any(|(k, _)| k == key),
            "telemetry JSON is missing the {key:?} section"
        );
    }

    let trace = JsonValue::parse(&std::fs::read_to_string(&trace_path)?)?;
    let mut pipeline_tids = std::collections::BTreeSet::new();
    for event in trace.as_arr()? {
        let fields = event.as_obj()?;
        let get = |k: &str| fields.iter().find(|(key, _)| key == k).map(|(_, v)| v);
        if get("ph").and_then(|v| v.as_str().ok()) == Some("X")
            && get("name")
                .and_then(|v| v.as_str().ok())
                .is_some_and(|name| name.ends_with(".scan_inside"))
        {
            pipeline_tids.insert(get("tid").and_then(|v| v.as_u64().ok()).expect("tid"));
        }
    }
    assert_eq!(
        pipeline_tids.len(),
        4,
        "the trace must distinguish all four pipeline threads, got {pipeline_tids:?}"
    );

    println!("\ntelemetry: {}", telemetry_path.display());
    println!(
        "trace:     {} ({} pipeline threads)",
        trace_path.display(),
        pipeline_tids.len()
    );
    println!("rolling series tracked: {}", monitor.core.series().len());
    println!("OK");
    Ok(())
}
