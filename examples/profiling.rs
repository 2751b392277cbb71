//! The performance attribution plane end to end: per-span allocation
//! accounting, the critical-path `PerfReport` decomposing a hardened
//! sweep's quorum tax into work / wait / allocator churn, and a
//! 64-machine fleet sweep whose `FleetReport` exports one merged Chrome
//! trace — scheduler lanes, named worker lanes, and every shard's spans
//! on globally unique tids — while its timeline's queue-wait series
//! feeds the worker-starvation rule.
//!
//! Self-validating and headless: it asserts the decomposition, re-parses
//! every exported artifact, and checks the merged trace's lane naming,
//! so CI can run it as a smoke test:
//!
//! ```sh
//! STRIDER_BENCH_DIR=/tmp cargo run --example profiling
//! ```
//!
//! Open the emitted `FLEET_TRACE_fleet64.json` in Perfetto /
//! `chrome://tracing` to see the timeline the assertions describe.

use std::sync::Arc;
use strider_ghostbuster_repro::prelude::*;
use strider_support::bench::report_dir;
use strider_support::fault::Stall;
use strider_support::json::{FromJson, JsonValue};
use strider_support::obs::{fmt_bytes, fmt_ns, FakeClock, Telemetry};
use strider_support::prof::PerfReport;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ----------------------------------------------------------------
    // Stage 1: decompose the hardened sweep's overhead. Same infected
    // machine, same fake clock, same stalling volume (5 supervised
    // polls of 100 µs before the device answers — the *wait* the
    // decomposition separates from compute); one stabilized sweep, one
    // hardened (randomized multi-pass quorum) sweep.
    // ----------------------------------------------------------------
    let clock = Arc::new(FakeClock::default());
    let sweep_with = |label: &str, policy: ScanPolicy| -> Result<SweepReport, NtStatus> {
        let mut machine = standard_lab_machine(label, &WorkloadSpec::small(7), false)?;
        HackerDefender::default().infect(&mut machine)?;
        machine.set_fault_injector(FaultInjector::new().stall_volume_reads(Stall::after_polls(5)));
        // The pipeline budget supplies the deadline that lets supervised
        // reads poll a stalled device instead of timing out on the spot.
        GhostBuster::new()
            .with_policy(
                policy
                    .with_clock(clock.clone())
                    .with_poll(100_000, 0)
                    .with_pipeline_budget(2_000_000)
                    .with_sweep_budget(10_000_000),
            )
            .with_telemetry(Telemetry::with_clock(clock.clone()))
            .inside_sweep(&mut machine)
    };
    let stabilized = sweep_with("stabilized-box", ScanPolicy::resilient())?;
    let hardened = sweep_with("hardened-box", ScanPolicy::hardened())?;

    let stab_perf = stabilized.perf_report("stabilized").expect("telemetry");
    let hard_perf = hardened.perf_report("hardened").expect("telemetry");
    println!("{}", stab_perf.render());
    println!("{}", hard_perf.render());
    println!(
        "quorum tax: +{} wall, +{} allocated",
        fmt_ns(hard_perf.wall_ns.saturating_sub(stab_perf.wall_ns)),
        fmt_bytes(hard_perf.alloc_bytes.saturating_sub(stab_perf.alloc_bytes)),
    );

    // The stalling volume shows up as attributed wait, not as opaque
    // wall time; and the hardened sweep re-scans under a randomized
    // quorum, so it must do strictly more allocation work — the
    // deterministic component of the quorum tax.
    assert!(stab_perf.wall_ns > 0 && hard_perf.wall_ns > 0);
    assert!(stab_perf.wait_ns > 0 && hard_perf.wait_ns > 0);
    assert!(hard_perf.wall_ns >= stab_perf.wall_ns);
    assert!(hard_perf.allocs > stab_perf.allocs);
    assert!(hard_perf.alloc_bytes > stab_perf.alloc_bytes);
    assert!(!hard_perf.critical_path.is_empty());
    assert!(!hard_perf.hotspots.is_empty() && hard_perf.hotspots.len() <= 8);

    // Per-phase attribution rides on the span tree: every pipeline's
    // scan phase accounts its own heap traffic...
    let telemetry = hardened.telemetry.as_ref().expect("telemetry attached");
    let totals = telemetry.phase_totals();
    for pipeline in ["files", "registry", "processes", "modules"] {
        let phase = &totals[&format!("{pipeline}.scan_inside")];
        assert!(phase.allocs > 0, "{pipeline} scan must allocate");
        assert!(phase.alloc_bytes > 0);
        println!(
            "{pipeline}.scan_inside: {} allocs / {}",
            phase.allocs,
            fmt_bytes(phase.alloc_bytes)
        );
    }
    // ...and the same numbers flow into the Prometheus exposition and
    // the rendered sweep report.
    let prom = telemetry.prometheus().render();
    assert!(prom.contains("strider_phase_allocs_total"));
    assert!(prom.contains("strider_phase_alloc_bytes_total"));
    assert!(hardened.to_string().contains("critical path:"));

    // The PerfReport is an artifact: export, re-parse, compare.
    let perf_path = hard_perf.write_json_in(&report_dir())?;
    let parsed = PerfReport::from_json(&JsonValue::parse(&std::fs::read_to_string(&perf_path)?)?)?;
    assert_eq!(parsed.label, "hardened");
    assert_eq!(parsed.allocs, hard_perf.allocs);
    assert_eq!(parsed.critical_path.len(), hard_perf.critical_path.len());
    println!("perf report written to {}", perf_path.display());

    // ----------------------------------------------------------------
    // Stage 2: the unified fleet timeline. A hardened 64-machine sweep
    // on a 4-worker pool, every scheduler decision recorded.
    // ----------------------------------------------------------------
    let fleet_clock = Arc::new(FakeClock::default());
    let policy = ScanPolicy::hardened()
        .with_clock(fleet_clock.clone())
        .with_poll(100_000, 0);
    let scheduler = FleetScheduler::new(
        GhostBuster::new()
            .with_advanced(AdvancedSource::ThreadTable)
            .with_policy(policy),
    )
    .with_workers(4);
    let mut fleet = FleetRegistry::seeded(&FleetSpec::clean(64, 2026).with_infected(8))?;
    // Every volume stalls briefly, so each sweep advances the shared
    // fake clock and later shards accumulate measurable queue wait.
    for machine in fleet.machines_mut() {
        machine
            .machine
            .set_fault_injector(FaultInjector::new().stall_volume_reads(Stall::after_polls(2)));
    }
    let report = scheduler.sweep(&mut fleet)?;
    let trace = report.trace();
    assert_eq!(report.swept, 64);
    assert_eq!(report.infected, 8);
    assert_eq!(trace.workers, 4);
    assert_eq!(trace.queue_waits().len(), 64, "every shard was scheduled");
    let idle = trace.worker_idle_fraction();
    assert!((0.0..=1.0).contains(&idle));
    println!(
        "fleet: 64 shards, {} steals, queue-wait p95 {}, worker idle {:.0}%",
        trace.steals(),
        fmt_ns(trace.queue_wait_p95_ns()),
        idle * 100.0,
    );

    // One merged Chrome trace: scheduler lane + named worker lanes +
    // every shard's spans on globally unique tids.
    let JsonValue::Arr(events) = report.chrome_trace() else {
        panic!("chrome trace must be a JSON array");
    };
    let field = |e: &JsonValue, key: &str| e.field(key).ok().cloned();
    let thread_names: Vec<String> = events
        .iter()
        .filter(|e| matches!(field(e, "ph"), Some(JsonValue::Str(p)) if p == "M"))
        .filter_map(|e| {
            field(e, "args")?
                .field("name")
                .ok()
                .and_then(|v| v.as_str().ok().map(str::to_string))
        })
        .collect();
    assert!(thread_names.iter().any(|n| n == "fleet-scheduler"));
    for w in 0..4 {
        let lane = format!("fleet-worker-{w}");
        assert!(thread_names.contains(&lane), "missing {lane}");
    }
    assert!(
        thread_names
            .iter()
            .filter(|n| n.starts_with("shard-"))
            .count()
            >= 64,
        "every shard's pipeline thread is named in the merged trace"
    );
    // Per-shard tids collide when frozen independently; merged they are
    // globally unique and sit above the reserved scheduler/worker lanes.
    let mut scan_tids: Vec<u64> = events
        .iter()
        .filter(|e| {
            matches!(field(e, "cat"), Some(JsonValue::Str(c)) if c == "scan")
                && matches!(field(e, "ph"), Some(JsonValue::Str(p)) if p == "X")
        })
        .filter_map(|e| match field(e, "tid") {
            Some(JsonValue::UInt(t)) => Some(t),
            _ => None,
        })
        .collect();
    scan_tids.sort_unstable();
    scan_tids.dedup();
    assert!(scan_tids.len() >= 64, "{} shard lanes", scan_tids.len());
    assert!(scan_tids.iter().all(|&t| t > 4), "above reserved lanes");

    let trace_path = report.write_chrome_trace_in(&report_dir(), "fleet64")?;
    JsonValue::parse(&std::fs::read_to_string(&trace_path)?)?;
    println!("merged fleet trace written to {}", trace_path.display());

    // Every monitored pass feeds its own timeline to the alerting plane:
    // queue-wait p95 and worker idle fraction become fleet series, and a
    // starvation ceiling turns long deque waits into a firing rule. Eight
    // shards on four workers, with stalls that advance the fake clock
    // once the baselines are in, leave later shards waiting.
    assert!(
        trace.queue_wait_p95_ns() > 0,
        "later shards waited on deques"
    );
    let mut monitored = FleetRegistry::seeded(&FleetSpec::clean(8, 2027))?;
    let mut monitor = FleetMonitor::new(scheduler)
        .with_alert_policy(FleetAlertPolicy::default().with_queue_wait_p95_max_ns(1));
    monitor.record_baselines(&mut monitored)?;
    for machine in monitored.machines_mut() {
        machine
            .machine
            .set_fault_injector(FaultInjector::new().stall_volume_reads(Stall::after_polls(2)));
    }
    let pass = monitor.observe(&mut monitored)?;
    assert!(monitor.core.engine().is_firing("fleet.worker_starvation"));
    assert!(pass
        .transitions
        .iter()
        .any(|t| t.rule == "fleet.worker_starvation"));
    assert!(monitor
        .core
        .series()
        .get("fleet.worker_idle_fraction")
        .and_then(|s| s.last())
        .is_some());
    println!("fleet.worker_starvation fired: p95 queue wait over ceiling");

    println!("\nprofiling plane OK");
    Ok(())
}
