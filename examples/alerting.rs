//! The alerting plane end to end: declarative rules with hysteresis on a
//! monitored machine, the Pending→Firing→Resolved lifecycle on a fake
//! clock, and the Prometheus-text exposition an operator would scrape.
//!
//! Self-validating and headless: it asserts each lifecycle step, checks
//! the transition evidence in both the alert log and the sweep's flight
//! dump, and re-reads the emitted `.prom` file, so CI can run it as a
//! smoke test:
//!
//! ```sh
//! STRIDER_BENCH_DIR=/tmp cargo run --example alerting
//! ```
//!
//! Point a Prometheus file-based scraper (or `promtool check metrics`) at
//! the emitted `TELEMETRY_EXPO_alerting.prom` to consume the same state.

use std::sync::Arc;
use strider_ghostbuster_repro::prelude::*;
use strider_support::bench::report_dir;
use strider_support::fault::Stall;
use strider_support::obs::{FakeClock, FlightEventKind};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let clock = Arc::new(FakeClock::default());
    let policy = ScanPolicy::resilient()
        .with_clock(clock.clone())
        .with_poll(100_000, 0)
        .with_pipeline_budget(2_000_000)
        .with_sweep_budget(10_000_000);

    // A hand-written SLO rule rides along with the built-in monitor
    // rules: page when the files pipeline stays above 400 µs for 2.5 ms
    // of sustained breach (the `for_ns` hold suppresses one-off blips).
    let mut monitor = SweepMonitor::new(GhostBuster::new().with_policy(policy))
        .with_config(MonitorConfig::default().with_interval_ns(1_000_000));
    monitor.core.add_rule(
        AlertRule::new(
            "slow_files",
            "files.duration_ns",
            AlertCondition::Above(400_000.0),
        )
        .with_for_ns(2_500_000)
        .with_severity(Severity::Critical),
    );
    let mut machine = Machine::with_base_system("alerted-box")?;
    monitor.record_baseline(&mut machine)?;
    println!(
        "rules installed: {}",
        monitor
            .core
            .engine()
            .rules()
            .iter()
            .map(|r| r.name.as_str())
            .collect::<Vec<_>>()
            .join(", ")
    );

    // The volume starts stalling: ~500 µs of polling per sweep. The rule
    // breaches immediately but only *pends* — the hold is still running.
    let stall = || FaultInjector::new().stall_volume_reads(Stall::after_polls(5));
    machine.set_fault_injector(stall());
    monitor.observe(&mut machine)?;
    println!(
        "pass 1: slow_files is {}",
        monitor.core.engine().state("slow_files").unwrap()
    );
    assert_eq!(
        monitor.core.engine().state("slow_files"),
        Some(AlertState::Pending)
    );

    // Two more slow passes, one simulated millisecond apart. The breach
    // has been sustained past the hold on the third pass: Firing.
    clock.advance(1_000_000);
    machine.set_fault_injector(stall());
    monitor.observe(&mut machine)?;
    assert!(
        !monitor.core.engine().is_firing("slow_files"),
        "hold still running"
    );
    clock.advance(1_000_000);
    machine.set_fault_injector(stall());
    let alarmed = monitor.observe(&mut machine)?;
    println!(
        "pass 3: slow_files is {} after 3.0 ms of sustained breach",
        monitor.core.engine().state("slow_files").unwrap()
    );
    assert!(monitor.core.engine().is_firing("slow_files"));

    // The transition is evidence, twice over: once in the durable alert
    // log, once in the alarmed sweep's own flight dump.
    for transition in &alarmed.transitions {
        println!("  transition: {transition}");
    }
    assert!(alarmed
        .transitions
        .iter()
        .any(|t| t.rule == "slow_files" && t.to == AlertState::Firing));
    let flight = &alarmed.report.telemetry.as_ref().unwrap().flight;
    assert!(
        flight
            .events
            .iter()
            .any(|e| e.kind == FlightEventKind::Alert && e.what == "slow_files"),
        "the black box records the alert transition"
    );

    // Export what an operator would scrape.
    let path = monitor.prometheus().write_in(&report_dir(), "alerting")?;
    let text = std::fs::read_to_string(&path)?;
    assert!(text.contains("# TYPE strider_alert_active gauge"));
    assert!(
        text.contains("strider_alert_active{rule=\"slow_files\",severity=\"critical\"} 1"),
        "the firing rule is visible in the exposition"
    );
    println!("exposition: {}", path.display());
    for line in text.lines().filter(|l| l.starts_with("strider_alert")) {
        println!("  {line}");
    }

    // The stall clears; the rule resolves on the next pass.
    clock.advance(1_000_000);
    machine.set_fault_injector(FaultInjector::new());
    let resolved = monitor.observe(&mut machine)?;
    assert!(resolved
        .transitions
        .iter()
        .any(|t| t.rule == "slow_files" && t.to == AlertState::Inactive));
    assert!(!monitor.core.engine().is_firing("slow_files"));
    println!(
        "pass 4: slow_files resolved ({} lifetime transitions)",
        monitor.core.engine().transitions("slow_files")
    );
    println!("OK");
    Ok(())
}
