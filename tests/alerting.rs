//! Alerting-plane integration tests: declarative alert rules riding the
//! sweep monitor, `for_ns` hysteresis on the fake clock, absence rules
//! catching stalled heartbeats, and the Prometheus-text exposition files
//! operators scrape.
//!
//! Everything runs on a [`FakeClock`], so the Pending→Firing→Resolved
//! lifecycle is a pure function of the scenario: a stall advances
//! simulated time by exactly five 100 µs polls, and a rule with a 2.5 ms
//! hold fires on exactly the pass where the breach has been sustained
//! that long.

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;
use strider_ghostbuster_repro::prelude::*;
use strider_support::fault::Stall;
use strider_support::obs::{Clock, FakeClock, FlightEventKind, FlightRecorder};

fn supervised_policy(clock: Arc<FakeClock>) -> ScanPolicy {
    ScanPolicy::resilient()
        .with_clock(clock)
        .with_poll(100_000, 0)
        .with_pipeline_budget(2_000_000)
        .with_sweep_budget(10_000_000)
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("strider-{name}-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// A finite volume stall: five 100 µs polls, so the files pipeline
/// completes ~500 µs slower than the instantaneous baseline. Re-armed
/// before every sweep so each pass sees the same slowdown.
fn arm_stall(machine: &mut Machine) {
    machine.set_fault_injector(FaultInjector::new().stall_volume_reads(Stall::after_polls(5)));
}

// ---------------------------------------------------------------------
// The headline lifecycle: a hand-written rule with hysteresis fires
// deterministically, leaves evidence everywhere, and resolves
// ---------------------------------------------------------------------

#[test]
fn custom_rule_with_hysteresis_fires_and_resolves_deterministically() {
    let clock = Arc::new(FakeClock::default());
    let mut machine = Machine::with_base_system("victim").unwrap();
    let mut monitor =
        SweepMonitor::new(GhostBuster::new().with_policy(supervised_policy(clock.clone())));
    monitor.core.add_rule(
        AlertRule::new(
            "slow_files",
            "files.duration_ns",
            AlertCondition::Above(400_000.0),
        )
        .with_for_ns(2_500_000)
        .with_severity(Severity::Critical),
    );
    monitor.record_baseline(&mut machine).unwrap();

    // Pass 1 (t≈0): the stall pushes files.duration_ns to ~500 µs. The
    // rule is breached but held by `for_ns`: Pending, not Firing.
    arm_stall(&mut machine);
    let pass1 = monitor.observe(&mut machine).unwrap();
    assert_eq!(
        monitor.core.engine().state("slow_files"),
        Some(AlertState::Pending)
    );
    assert!(!monitor.core.engine().is_firing("slow_files"));
    assert!(
        pass1
            .transitions
            .iter()
            .any(|t| t.rule == "slow_files" && t.to == AlertState::Pending),
        "{:?}",
        pass1.transitions
    );

    // Pass 2, one simulated millisecond later: the breach has been held
    // ~1.5 ms < 2.5 ms. Hysteresis: still Pending, never Firing early.
    clock.advance(1_000_000);
    arm_stall(&mut machine);
    let pass2 = monitor.observe(&mut machine).unwrap();
    assert_eq!(
        monitor.core.engine().state("slow_files"),
        Some(AlertState::Pending)
    );
    assert!(
        pass2.transitions.iter().all(|t| t.rule != "slow_files"),
        "no transition while the hold is running: {:?}",
        pass2.transitions
    );

    // Pass 3, another millisecond on: the breach has now been sustained
    // ~3.0 ms ≥ 2.5 ms — the rule fires on exactly this pass.
    clock.advance(1_000_000);
    arm_stall(&mut machine);
    let pass3 = monitor.observe(&mut machine).unwrap();
    assert!(monitor.core.engine().is_firing("slow_files"));
    let firing = pass3
        .transitions
        .iter()
        .find(|t| t.rule == "slow_files")
        .expect("the pending→firing transition is reported");
    assert_eq!(firing.from, AlertState::Pending);
    assert_eq!(firing.to, AlertState::Firing);
    assert_eq!(firing.severity, Severity::Critical);

    // The same transition is durable in the alert log…
    assert!(
        monitor
            .core
            .engine()
            .log()
            .entries()
            .any(|t| t.rule == "slow_files" && t.to == AlertState::Firing),
        "{:?}",
        monitor.core.engine().log().entries().collect::<Vec<_>>()
    );
    // …and visible in the sweep's own flight dump, next to the fault
    // events that caused it.
    let flight = pass3
        .report
        .telemetry
        .as_ref()
        .expect("monitored sweeps carry telemetry")
        .flight
        .clone();
    assert!(
        flight
            .events
            .iter()
            .any(|e| e.kind == FlightEventKind::Alert
                && e.what == "slow_files"
                && e.detail.contains("firing")),
        "alert transition lands in the black box:\n{}",
        flight.render()
    );

    // While firing, the exposition file an operator scrapes says so.
    let dir = scratch_dir("alerting-lifecycle");
    let path = monitor.prometheus().write_in(&dir, "lifecycle").unwrap();
    assert_eq!(path.file_name().unwrap(), "TELEMETRY_EXPO_lifecycle.prom");
    let text = fs::read_to_string(&path).unwrap();
    assert!(
        text.contains("strider_alert_active{rule=\"slow_files\",severity=\"critical\"} 1"),
        "{text}"
    );
    assert!(text.contains("# TYPE strider_alert_active gauge"), "{text}");
    fs::remove_dir_all(&dir).unwrap();

    // Pass 4: the stall is gone, the sweep is instantaneous again, and
    // the rule resolves — Firing → Inactive, transition on this pass.
    clock.advance(1_000_000);
    machine.set_fault_injector(FaultInjector::new());
    let pass4 = monitor.observe(&mut machine).unwrap();
    assert!(!monitor.core.engine().is_firing("slow_files"));
    let resolved = pass4
        .transitions
        .iter()
        .find(|t| t.rule == "slow_files")
        .expect("the firing→inactive transition is reported");
    assert_eq!(resolved.from, AlertState::Firing);
    assert_eq!(resolved.to, AlertState::Inactive);
    // Lifetime: inactive→pending, pending→firing, firing→inactive.
    assert_eq!(monitor.core.engine().transitions("slow_files"), 3);
}

// ---------------------------------------------------------------------
// Absence rules: a stalled shard stops heartbeating and the engine says so
// ---------------------------------------------------------------------

#[test]
fn absence_rule_detects_a_stalled_heartbeat_and_recovers() {
    let clock = Arc::new(FakeClock::default());
    let recorder = FlightRecorder::new(clock.clone());
    let mut engine = AlertEngine::with_rules(vec![AlertRule::new(
        "shard_heartbeat_lost",
        "shard.heartbeat",
        AlertCondition::Absent {
            window_ns: 3_000_000,
        },
    )
    .with_severity(Severity::Critical)]);

    // Healthy: a heartbeat every simulated millisecond.
    let mut metrics = BTreeMap::new();
    let mut heartbeat = TimeSeries::new(16);
    for _ in 0..3 {
        clock.advance(1_000_000);
        heartbeat.push(clock.now_ns(), 1.0);
    }
    metrics.insert("shard.heartbeat".to_string(), heartbeat);
    assert!(engine
        .evaluate(&metrics, clock.now_ns(), Some(&recorder))
        .is_empty());

    // The shard stalls: 3.5 ms with no heartbeat blows the 3 ms window.
    clock.advance(3_500_000);
    let transitions = engine.evaluate(&metrics, clock.now_ns(), Some(&recorder));
    assert!(engine.is_firing("shard_heartbeat_lost"), "{transitions:?}");
    assert!(transitions
        .iter()
        .any(|t| t.rule == "shard_heartbeat_lost" && t.to == AlertState::Firing));
    assert!(recorder
        .snapshot()
        .events
        .iter()
        .any(|e| e.kind == FlightEventKind::Alert && e.what == "shard_heartbeat_lost"));

    // The shard comes back; the next heartbeat resolves the alert.
    metrics
        .get_mut("shard.heartbeat")
        .unwrap()
        .push(clock.now_ns(), 1.0);
    let resolved = engine.evaluate(&metrics, clock.now_ns(), Some(&recorder));
    assert!(!engine.is_firing("shard_heartbeat_lost"));
    assert!(resolved
        .iter()
        .any(|t| t.rule == "shard_heartbeat_lost" && t.to == AlertState::Inactive));
}

// ---------------------------------------------------------------------
// Built-in monitor rules keep the old incident semantics
// ---------------------------------------------------------------------

#[test]
fn built_in_rules_drive_incidents_and_expose_their_state() {
    let clock = Arc::new(FakeClock::default());
    let mut machine = Machine::with_base_system("victim").unwrap();
    let mut monitor = SweepMonitor::new(GhostBuster::new().with_policy(supervised_policy(clock)));
    monitor.record_baseline(&mut machine).unwrap();

    HackerDefender::default().infect(&mut machine).unwrap();
    let observation = monitor.observe(&mut machine).unwrap();

    // The infection trips the built-in new-finding rule, and the incident
    // stream is derived from exactly that rule's firing state.
    assert!(monitor.core.engine().is_firing("new_hidden_resource"));
    assert!(observation
        .incidents
        .iter()
        .any(|i| matches!(i, MonitorIncident::NewHiddenResource { .. })));
    let prom = monitor.prometheus().render();
    assert!(
        prom.contains("strider_alert_active{rule=\"new_hidden_resource\",severity=\"critical\"} 1"),
        "{prom}"
    );
    assert!(prom.contains("strider_monitor_sweeps_total 1"), "{prom}");
}

// ---------------------------------------------------------------------
// The exposition text a scraper sees, byte for byte
// ---------------------------------------------------------------------

/// Replaces the value on every `strider_phase_alloc*` line with `N`.
/// Those counts come from the counting allocator inside the sweep's own
/// spans: they measure the scanners, not the monitor, and move with any
/// scanner change, so the pin keeps their names and labels only.
fn mask_alloc_counts(text: &str) -> String {
    text.lines()
        .map(|line| match line.rsplit_once(' ') {
            Some((head, _)) if line.starts_with("strider_phase_alloc") => format!("{head} N\n"),
            _ => format!("{line}\n"),
        })
        .collect()
}

#[test]
fn sweep_monitor_exposition_text_is_pinned() {
    let policy = ScanPolicy::resilient().with_clock(Arc::new(FakeClock::new()));
    let mut monitor = SweepMonitor::new(GhostBuster::new().with_policy(policy));
    let mut machine = Machine::with_base_system("lab-pin").unwrap();
    monitor.record_baseline(&mut machine).unwrap();
    monitor.observe(&mut machine).unwrap();
    let expected = concat!(
        "# TYPE files_dir_query_ns histogram\n",
        "files_dir_query_ns_bucket{le=\"0\"} 26\n",
        "files_dir_query_ns_bucket{le=\"+Inf\"} 26\n",
        "files_dir_query_ns_sum 0\n",
        "files_dir_query_ns_count 26\n",
        "# TYPE files_entries_HighLevelWin32 counter\n",
        "files_entries_HighLevelWin32 68\n",
        "# TYPE files_entries_LowLevelMft counter\n",
        "files_entries_LowLevelMft 68\n",
        "# TYPE modules_entries_HighLevelWin32 counter\n",
        "modules_entries_HighLevelWin32 20\n",
        "# TYPE modules_entries_LowLevelKernelModules counter\n",
        "modules_entries_LowLevelKernelModules 20\n",
        "# TYPE modules_proc_query_ns histogram\n",
        "modules_proc_query_ns_bucket{le=\"0\"} 20\n",
        "modules_proc_query_ns_bucket{le=\"+Inf\"} 20\n",
        "modules_proc_query_ns_sum 0\n",
        "modules_proc_query_ns_count 20\n",
        "# TYPE monitor_evasion_flicker_score gauge\n",
        "monitor_evasion_flicker_score 0\n",
        "# TYPE monitor_files_duration_ns gauge\n",
        "monitor_files_duration_ns 0\n",
        "# TYPE monitor_modules_duration_ns gauge\n",
        "monitor_modules_duration_ns 0\n",
        "# TYPE monitor_processes_duration_ns gauge\n",
        "monitor_processes_duration_ns 0\n",
        "# TYPE monitor_registry_duration_ns gauge\n",
        "monitor_registry_duration_ns 0\n",
        "# TYPE monitor_sweep_degraded gauge\n",
        "monitor_sweep_degraded 0\n",
        "# TYPE monitor_sweep_downgrades gauge\n",
        "monitor_sweep_downgrades 0\n",
        "# TYPE monitor_sweep_new_findings gauge\n",
        "monitor_sweep_new_findings 0\n",
        "# TYPE monitor_sweep_noise gauge\n",
        "monitor_sweep_noise 0\n",
        "# TYPE monitor_sweep_suspicious gauge\n",
        "monitor_sweep_suspicious 0\n",
        "# TYPE processes_entries_HighLevelWin32 counter\n",
        "processes_entries_HighLevelWin32 60\n",
        "# TYPE processes_entries_LowLevelApl counter\n",
        "processes_entries_LowLevelApl 20\n",
        "# TYPE registry_entries_HighLevelWin32 counter\n",
        "registry_entries_HighLevelWin32 14\n",
        "# TYPE registry_entries_LowLevelHiveParse counter\n",
        "registry_entries_LowLevelHiveParse 14\n",
        "# TYPE registry_key_probe_ns histogram\n",
        "registry_key_probe_ns_bucket{le=\"0\"} 24\n",
        "registry_key_probe_ns_bucket{le=\"+Inf\"} 24\n",
        "registry_key_probe_ns_sum 0\n",
        "registry_key_probe_ns_count 24\n",
        "# TYPE strider_alert_active gauge\n",
        "strider_alert_active{rule=\"latency.files\",severity=\"warning\"} 0\n",
        "strider_alert_active{rule=\"latency.registry\",severity=\"warning\"} 0\n",
        "strider_alert_active{rule=\"latency.processes\",severity=\"warning\"} 0\n",
        "strider_alert_active{rule=\"latency.modules\",severity=\"warning\"} 0\n",
        "strider_alert_active{rule=\"new_hidden_resource\",severity=\"critical\"} 0\n",
        "strider_alert_active{rule=\"health_downgrade\",severity=\"critical\"} 0\n",
        "strider_alert_active{rule=\"evasion_suspected\",severity=\"critical\"} 0\n",
        "# TYPE strider_alert_transitions_total counter\n",
        "strider_alert_transitions_total{rule=\"latency.files\"} 0\n",
        "strider_alert_transitions_total{rule=\"latency.registry\"} 0\n",
        "strider_alert_transitions_total{rule=\"latency.processes\"} 0\n",
        "strider_alert_transitions_total{rule=\"latency.modules\"} 0\n",
        "strider_alert_transitions_total{rule=\"new_hidden_resource\"} 0\n",
        "strider_alert_transitions_total{rule=\"health_downgrade\"} 0\n",
        "strider_alert_transitions_total{rule=\"evasion_suspected\"} 0\n",
        "# TYPE strider_monitor_sweeps_total counter\n",
        "strider_monitor_sweeps_total 1\n",
        "# TYPE strider_phase_alloc_bytes_total counter\n",
        "strider_phase_alloc_bytes_total{phase=\"files.diff\"} N\n",
        "strider_phase_alloc_bytes_total{phase=\"files.high_scan\"} N\n",
        "strider_phase_alloc_bytes_total{phase=\"files.low_scan\"} N\n",
        "strider_phase_alloc_bytes_total{phase=\"files.scan_inside\"} N\n",
        "strider_phase_alloc_bytes_total{phase=\"modules.diff\"} N\n",
        "strider_phase_alloc_bytes_total{phase=\"modules.high_scan\"} N\n",
        "strider_phase_alloc_bytes_total{phase=\"modules.low_scan\"} N\n",
        "strider_phase_alloc_bytes_total{phase=\"modules.scan_inside\"} N\n",
        "strider_phase_alloc_bytes_total{phase=\"processes.diff\"} N\n",
        "strider_phase_alloc_bytes_total{phase=\"processes.high_scan\"} N\n",
        "strider_phase_alloc_bytes_total{phase=\"processes.low_scan\"} N\n",
        "strider_phase_alloc_bytes_total{phase=\"processes.scan_inside\"} N\n",
        "strider_phase_alloc_bytes_total{phase=\"registry.diff\"} N\n",
        "strider_phase_alloc_bytes_total{phase=\"registry.high_scan\"} N\n",
        "strider_phase_alloc_bytes_total{phase=\"registry.low_scan\"} N\n",
        "strider_phase_alloc_bytes_total{phase=\"registry.scan_inside\"} N\n",
        "strider_phase_alloc_bytes_total{phase=\"sweep.inside\"} N\n",
        "# TYPE strider_phase_allocs_total counter\n",
        "strider_phase_allocs_total{phase=\"files.diff\"} N\n",
        "strider_phase_allocs_total{phase=\"files.high_scan\"} N\n",
        "strider_phase_allocs_total{phase=\"files.low_scan\"} N\n",
        "strider_phase_allocs_total{phase=\"files.scan_inside\"} N\n",
        "strider_phase_allocs_total{phase=\"modules.diff\"} N\n",
        "strider_phase_allocs_total{phase=\"modules.high_scan\"} N\n",
        "strider_phase_allocs_total{phase=\"modules.low_scan\"} N\n",
        "strider_phase_allocs_total{phase=\"modules.scan_inside\"} N\n",
        "strider_phase_allocs_total{phase=\"processes.diff\"} N\n",
        "strider_phase_allocs_total{phase=\"processes.high_scan\"} N\n",
        "strider_phase_allocs_total{phase=\"processes.low_scan\"} N\n",
        "strider_phase_allocs_total{phase=\"processes.scan_inside\"} N\n",
        "strider_phase_allocs_total{phase=\"registry.diff\"} N\n",
        "strider_phase_allocs_total{phase=\"registry.high_scan\"} N\n",
        "strider_phase_allocs_total{phase=\"registry.low_scan\"} N\n",
        "strider_phase_allocs_total{phase=\"registry.scan_inside\"} N\n",
        "strider_phase_allocs_total{phase=\"sweep.inside\"} N\n",
    );
    assert_eq!(mask_alloc_counts(&monitor.prometheus().render()), expected);
}
