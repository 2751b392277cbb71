//! Enterprise fleet scan on the fleet service: the paper's RIS deployment
//! story — "corporate IT organizations can remotely deploy the solution on
//! a large number of desktops without requiring user cooperation" — run as
//! a supervised, work-stealing fleet sweep with merged reporting, fault
//! isolation, checkpoint/resume, and continuous fleet monitoring.
//!
//! Self-validating and headless: it runs on a [`FakeClock`], asserts the
//! fleet statistics exactly, and survives an injected device stall with a
//! shard-tagged degradation instead of a fleet failure, so CI can run it
//! as a smoke test:
//!
//! ```sh
//! cargo run --example fleet_scan
//! ```

use std::collections::BTreeMap;
use std::sync::Arc;
use strider_ghostbuster_repro::prelude::*;
use strider_support::fault::Stall;
use strider_support::obs::FakeClock;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let clock = Arc::new(FakeClock::default());
    let policy = ScanPolicy::resilient()
        .with_clock(clock.clone())
        .with_poll(100_000, 0)
        .with_pipeline_budget(2_000_000)
        .with_sweep_budget(10_000_000);
    let detector = GhostBuster::new()
        .with_advanced(AdvancedSource::ThreadTable)
        .with_policy(policy.clone());

    // ----------------------------------------------------------------
    // Stage 1: sweep a 12-machine fleet (3 seeded infections) on a
    // 4-worker pool and check the merged report exactly.
    // ----------------------------------------------------------------
    let spec = FleetSpec::clean(12, 2026).with_infected(3);
    let mut fleet = FleetRegistry::seeded(&spec)?;
    let scheduler = FleetScheduler::new(detector.clone()).with_workers(4);

    let report = scheduler.sweep(&mut fleet)?;
    println!("{report}");
    assert_eq!(report.swept, 12);
    assert_eq!(report.infected, 3, "every seeded infection is detected");
    assert_eq!(report.seeded_infected, 3);
    for result in report.results() {
        assert_eq!(
            result.report.is_infected(),
            result.seeded_infected,
            "{} wrong verdict",
            result.shard
        );
    }

    // The fleet latency sketches are the exact merge of the per-shard
    // sketches — order-independent, so the pool's interleaving is free.
    let mut serial: BTreeMap<String, HistogramSketch> = BTreeMap::new();
    for result in report.results() {
        let telemetry = result.report.telemetry.as_ref().expect("swept telemetry");
        for (name, sketch) in &telemetry.histograms {
            serial.entry(name.clone()).or_default().merge(sketch);
        }
    }
    assert_eq!(serial, report.latency, "merged sketches must be exact");
    let p95 = report
        .latency_percentile("files.dir_query_ns", 95.0)
        .expect("fleet-wide file-probe sketch");
    println!("fleet files.dir_query_ns p95: {p95:.0} ns");

    // ----------------------------------------------------------------
    // Stage 2: one machine's volume stalls forever. The shard degrades
    // and stays unfinished in the checkpoint; the fleet completes.
    // (One worker: the fleet shares one fake clock, and the stalled
    // shard's polling advances it past concurrent shards' budgets.)
    // ----------------------------------------------------------------
    fleet.machines_mut()[7]
        .machine
        .set_fault_injector(FaultInjector::new().stall_volume_reads(Stall::forever()));
    let serial_scheduler = FleetScheduler::new(detector.clone()).with_workers(1);
    let mut checkpoint = FleetCheckpoint::new(&fleet);
    let stalled_run = serial_scheduler
        .sweep_streaming(&mut fleet, &mut checkpoint, |_| FleetControl::Continue)?;

    let stalled = stalled_run.result(ShardId(7)).expect("shard reported");
    println!(
        "\nshard-007 under stall: files {}, registry {}",
        stalled.report.health.files, stalled.report.health.registry
    );
    assert!(stalled.report.health.files.is_degraded());
    assert!(stalled.report.health.registry.is_ok());
    assert_eq!(
        stalled_run.swept, 12,
        "the stall cost a pipeline, not the fleet"
    );
    assert_eq!(stalled_run.health["files"].degraded, 1);
    if let Some(black_box) = stalled.report.black_box("files") {
        println!("shard-007 black box: {} flight events", black_box.len());
        assert!(!black_box.is_empty());
    }
    assert_eq!(
        checkpoint.unfinished_shards(),
        vec![ShardId(7)],
        "a timeout is a reason to re-run, not a result"
    );

    // The checkpoint survives a kill as JSON; resume re-sweeps only the
    // stalled shard once the device recovers.
    let mut parsed = FleetCheckpoint::deserialize(&checkpoint.serialize())?;
    fleet.machines_mut()[7]
        .machine
        .set_fault_injector(FaultInjector::new());
    let resumed =
        serial_scheduler.sweep_streaming(&mut fleet, &mut parsed, |_| FleetControl::Continue)?;
    assert!(parsed.is_complete());
    assert_eq!(
        resumed
            .results()
            .iter()
            .filter(|r| r.disposition != ShardDisposition::Restored)
            .map(|r| r.shard)
            .collect::<Vec<_>>(),
        vec![ShardId(7)],
        "only the stalled shard is re-swept"
    );
    assert_eq!(resumed.health["files"].degraded, 0);
    println!("resume re-swept shard-007 only; fleet clean");

    // ----------------------------------------------------------------
    // Stage 3: continuous fleet monitoring through the same work-stealing
    // scheduler — per-shard baselines, then a rootkit lands on one
    // machine and the incident arrives shard-tagged with that shard's
    // flight dump as evidence.
    // ----------------------------------------------------------------
    let mut clean_fleet = FleetRegistry::seeded(&FleetSpec::clean(6, 4096))?;
    let mut monitor = FleetMonitor::new(scheduler)
        .with_config(MonitorConfig::default().with_interval_ns(1_000_000_000));
    monitor.record_baselines(&mut clean_fleet)?;
    let calm = monitor.run(&mut clean_fleet, 2)?;
    let calm_incidents: usize = calm.iter().map(|p| p.incidents.len()).sum();
    assert_eq!(calm_incidents, 0, "a clean fleet must stay quiet");

    HackerDefender::default().infect(&mut clean_fleet.machines_mut()[4].machine)?;
    let pass = monitor.observe(&mut clean_fleet)?;
    println!("\nfleet incidents after infection of shard-004:");
    for incident in &pass.incidents {
        println!("  {incident}");
        assert_eq!(incident.shard, ShardId(4));
        assert!(!incident.incident.flight().is_empty());
    }
    assert!(pass
        .incidents
        .iter()
        .any(|i| matches!(i.incident, MonitorIncident::NewHiddenResource { .. })));
    assert_eq!(pass.infected_shards(), vec![ShardId(4)]);
    assert_eq!(monitor.core.series()["fleet.infected"].last(), Some(1.0));

    println!("\nOK");
    Ok(())
}
