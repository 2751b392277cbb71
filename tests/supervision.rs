//! Supervised-sweep integration tests: deadlines against stalled devices,
//! cooperative cancellation, circuit breakers, and checkpoint/resume.
//!
//! The scenario behind all of them: a truth source that never answers. A
//! transient fault fails fast and retries; a *stall* simply never completes,
//! and an unsupervised detector waits on it forever — the ghostware wins by
//! denial of service. The supervised sweep engine bounds every pipeline with
//! a deadline, observes a cancellation token at each loop iteration, trips a
//! circuit breaker on repeated failures, and checkpoints finished pipelines
//! so a killed sweep resumes where it left off. Every test runs on a
//! [`FakeClock`]: polls advance simulated time, so "two seconds of stalling"
//! costs microseconds of wall clock.

use std::sync::Arc;
use strider_ghostbuster_repro::prelude::*;
use strider_support::fault::Stall;
use strider_support::obs::{Clock, FakeClock};

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
// Deadlines: a permanently stalled truth source costs one pipeline, not
// the sweep
// ---------------------------------------------------------------------

#[test]
fn stalled_volume_times_out_one_pipeline_within_its_budget() {
    let mut m = infected_machine();
    m.set_fault_injector(FaultInjector::new().stall_volume_reads(Stall::forever()));
    let clock = Arc::new(FakeClock::default());
    let telemetry = Telemetry::new();
    let gb = GhostBuster::new()
        .with_policy(supervised_policy(clock.clone()))
        .with_telemetry(telemetry.clone());

    let report = gb.inside_sweep(&mut m).unwrap();

    // Only the file pipeline is lost, with the timeout as its cause.
    assert_eq!(
        report.health.files,
        PipelineStatus::Degraded {
            reason: "operation timed out".to_string()
        }
    );
    assert!(report.health.registry.is_ok(), "{}", report.health);
    assert!(report.health.processes.is_ok(), "{}", report.health);
    assert!(report.health.modules.is_ok(), "{}", report.health);
    // The other pipelines still produced findings.
    assert!(report.hooks.has_detections());
    assert!(report.processes.has_detections());

    // The sweep completed within the file pipeline's budget (plus at most
    // one poll interval of overshoot) — it did not wait out the stall.
    assert!(
        clock.now_ns() <= 2_100_000,
        "sweep finished at {} ns",
        clock.now_ns()
    );

    let tel = telemetry.report();
    assert_eq!(tel.counters["sweep.timeouts"], 1);
    assert_eq!(tel.counters["sweep.degraded.files"], 1);
    assert!(!tel.counters.contains_key("sweep.degraded.registry"));
}

#[test]
fn finite_stall_is_waited_out_under_the_deadline() {
    let mut m = infected_machine();
    m.set_fault_injector(FaultInjector::new().stall_volume_reads(Stall::after_polls(5)));
    let clock = Arc::new(FakeClock::default());
    let gb = GhostBuster::new().with_policy(supervised_policy(clock.clone()));
    let report = gb.inside_sweep(&mut m).unwrap();
    assert!(report.health.is_all_ok(), "{}", report.health);
    assert!(
        report.files.has_detections(),
        "the slow read still answered"
    );
    assert_eq!(clock.now_ns(), 500_000, "five polls at 100 µs each");
}

// ---------------------------------------------------------------------
// Cancellation: cooperative, observed at the next checkpoint
// ---------------------------------------------------------------------

#[test]
fn cancelled_token_degrades_every_pipeline_without_scanning() {
    let mut m = infected_machine();
    let token = CancellationToken::new();
    token.cancel();
    let telemetry = Telemetry::new();
    let gb = GhostBuster::new()
        .with_policy(ScanPolicy::resilient())
        .with_telemetry(telemetry.clone())
        .with_cancellation(token);
    let report = gb.inside_sweep(&mut m).unwrap();
    for status in [
        &report.health.files,
        &report.health.registry,
        &report.health.processes,
        &report.health.modules,
    ] {
        assert_eq!(
            *status,
            PipelineStatus::Degraded {
                reason: "operation cancelled".to_string()
            }
        );
    }
    assert_eq!(report.suspicious_count(), 0, "no pipeline got to scan");
    let tel = telemetry.report();
    let sweep = tel.find_span("sweep.inside").unwrap();
    assert!(
        sweep.attr("cancelled_at").is_some(),
        "the sweep span records where cancellation was observed"
    );
}

#[test]
fn cancellation_mid_stall_stops_the_poll_loop() {
    // A stalled read is being polled; cancelling the token is observed at
    // the next poll checkpoint even though no deadline is set.
    let m = {
        let mut m = infected_machine();
        m.set_fault_injector(FaultInjector::new().stall_volume_reads(Stall::forever()));
        m
    };
    let clock = Arc::new(FakeClock::default());
    let token = CancellationToken::new();
    // Cancel "from outside" after ~0.5 ms of simulated polling: a watcher
    // thread waits for the fake clock to reach the mark.
    let watcher = {
        let clock = clock.clone();
        let token = token.clone();
        std::thread::spawn(move || {
            while clock.now_ns() < 500_000 {
                std::thread::yield_now();
            }
            token.cancel();
        })
    };
    let scanner = FileScanner::new()
        .with_policy(
            ScanPolicy::resilient()
                .with_clock(clock.clone())
                .with_poll(100_000, u32::MAX),
        )
        .with_supervision(Supervision::new(token, None));
    let err = scanner.low_scan(&m).unwrap_err();
    watcher.join().unwrap();
    assert_eq!(err, NtStatus::Cancelled);
}

// ---------------------------------------------------------------------
// Circuit breakers: repeated pipeline failures stop hammering the device
// ---------------------------------------------------------------------

#[test]
fn breaker_trips_after_threshold_and_admits_a_probe_after_cooldown() {
    let mut m = infected_machine();
    m.set_fault_injector(FaultInjector::new().stall_hive_reads(Stall::forever()));
    let clock = Arc::new(FakeClock::default());
    let telemetry = Telemetry::new();
    let gb = GhostBuster::new()
        .with_policy(supervised_policy(clock.clone()).with_breaker(2, 50_000_000))
        .with_telemetry(telemetry.clone());
    assert!(gb.breakers().is_some(), "policy armed the breakers");

    // Sweeps 1 and 2: the registry pipeline burns its full budget timing
    // out; the second failure trips the breaker.
    for _ in 0..2 {
        let report = gb.inside_sweep(&mut m).unwrap();
        assert!(report.health.registry.is_degraded());
    }
    assert_eq!(
        gb.breakers().unwrap().state_of(Pipeline::Registry),
        BreakerState::Open
    );
    assert_eq!(telemetry.report().counters["breaker.open"], 1);

    // Sweep 3: the open breaker rejects the pipeline instantly — no budget
    // is spent waiting on the stalled device again.
    let before = clock.now_ns();
    let report = gb.inside_sweep(&mut m).unwrap();
    assert_eq!(
        report.health.registry,
        PipelineStatus::Degraded {
            reason: "circuit breaker open".to_string()
        }
    );
    assert_eq!(
        clock.now_ns(),
        before,
        "a rejected pipeline never touches the device"
    );
    assert!(report.health.files.is_ok(), "other pipelines unaffected");

    // After the cool-down the breaker admits one half-open probe; the
    // device is still stalled, so the probe fails and it re-opens.
    clock.advance(50_000_000);
    assert_eq!(
        gb.breakers().unwrap().state_of(Pipeline::Registry),
        BreakerState::HalfOpen
    );
    let report = gb.inside_sweep(&mut m).unwrap();
    assert_eq!(
        report.health.registry,
        PipelineStatus::Degraded {
            reason: "operation timed out".to_string()
        },
        "the probe ran (and timed out) rather than being rejected"
    );
    assert_eq!(
        gb.breakers().unwrap().state_of(Pipeline::Registry),
        BreakerState::Open
    );
}

// ---------------------------------------------------------------------
// Checkpoint/resume: finished pipelines are never re-run
// ---------------------------------------------------------------------

#[test]
fn interrupted_pipeline_is_not_checkpointed_and_reruns_on_resume() {
    let mut m = infected_machine();
    m.set_fault_injector(FaultInjector::new().stall_volume_reads(Stall::forever()));
    let clock = Arc::new(FakeClock::default());
    let gb = GhostBuster::new().with_policy(supervised_policy(clock.clone()));

    // Sweep 1: files times out; the other three pipelines finish and are
    // checkpointed. The timed-out pipeline is *not* — a timeout is a reason
    // to re-run, not a result.
    let mut checkpoint = SweepCheckpoint::new(&m);
    let first = gb
        .inside_sweep_checkpointed(&mut m, &mut checkpoint)
        .unwrap();
    assert!(first.health.registry.is_ok());
    assert!(checkpoint.files.is_none(), "interrupted: not checkpointed");
    assert!(checkpoint.registry.is_some());
    assert!(checkpoint.processes.is_some());
    assert!(checkpoint.modules.is_some());
    assert_eq!(checkpoint.unfinished(), vec!["files"]);

    // The checkpoint survives serialization (the form a killed sweep
    // leaves on disk).
    let restored = SweepCheckpoint::deserialize(&checkpoint.serialize()).unwrap();
    assert_eq!(restored, checkpoint);

    // The stalled device recovers; resume re-runs only the file pipeline.
    m.clear_fault_injector();
    let telemetry = Telemetry::new();
    let gb2 = GhostBuster::new()
        .with_policy(supervised_policy(clock))
        .with_telemetry(telemetry.clone());
    let mut restored = restored;
    let resumed = gb2
        .inside_sweep_checkpointed(&mut m, &mut restored)
        .unwrap();
    assert!(resumed.health.is_all_ok(), "{}", resumed.health);
    assert!(restored.is_complete());

    // Telemetry proves the checkpointed pipelines were skipped: only the
    // file pipeline emitted a scan span under this sweep.
    let tel = telemetry.report();
    let sweep = tel.find_span("sweep.inside").unwrap();
    assert!(sweep.child("files.scan_inside").is_some());
    for skipped in [
        "registry.scan_inside",
        "processes.scan_inside",
        "modules.scan_inside",
    ] {
        assert!(sweep.child(skipped).is_none(), "{skipped} must be skipped");
    }

    // The stitched-together report matches an uninterrupted sweep.
    let full = GhostBuster::new()
        .with_policy(ScanPolicy::resilient())
        .inside_sweep(&mut m)
        .unwrap();
    assert_eq!(resumed.files, full.files);
    assert_eq!(resumed.hooks, full.hooks);
    assert_eq!(resumed.processes, full.processes);
    assert_eq!(resumed.modules, full.modules);
    assert_eq!(resumed.health, full.health);
}

#[test]
fn checkpoint_after_two_pipelines_resumes_into_an_identical_report() {
    // The on-disk shape a sweep killed after two pipelines leaves behind:
    // files and registry recorded, processes and modules still to run.
    let mut m = infected_machine();
    let gb = GhostBuster::new().with_policy(ScanPolicy::resilient());
    let mut checkpoint = SweepCheckpoint::new(&m);
    let full = gb
        .inside_sweep_checkpointed(&mut m, &mut checkpoint)
        .unwrap();
    checkpoint.processes = None;
    checkpoint.modules = None;
    assert_eq!(checkpoint.unfinished(), vec!["processes", "modules"]);

    // Round-trip through JSON, then resume with a fresh detector.
    let mut restored = SweepCheckpoint::deserialize(&checkpoint.serialize()).unwrap();
    let telemetry = Telemetry::new();
    let gb2 = GhostBuster::new()
        .with_policy(ScanPolicy::resilient())
        .with_telemetry(telemetry.clone());
    let resumed = gb2
        .inside_sweep_checkpointed(&mut m, &mut restored)
        .unwrap();

    assert_eq!(resumed.files, full.files);
    assert_eq!(resumed.hooks, full.hooks);
    assert_eq!(resumed.processes, full.processes);
    assert_eq!(resumed.modules, full.modules);
    assert_eq!(resumed.health, full.health);
    assert!(resumed.is_infected());

    let tel = telemetry.report();
    let sweep = tel.find_span("sweep.inside").unwrap();
    assert!(sweep.child("files.scan_inside").is_none());
    assert!(sweep.child("registry.scan_inside").is_none());
    assert!(sweep.child("processes.scan_inside").is_some());
    assert!(sweep.child("modules.scan_inside").is_some());
}

#[test]
fn resume_rejects_a_checkpoint_from_another_machine() {
    // A *complete* checkpoint from a clean machine: accepting it would
    // restore the clean machine's reports for the infected one.
    let mut other = Machine::with_base_system("other").unwrap();
    let gb = GhostBuster::new();
    let mut cp = SweepCheckpoint::new(&other);
    gb.inside_sweep_checkpointed(&mut other, &mut cp).unwrap();
    assert!(cp.is_complete());
    let mut m = infected_machine();
    let err = gb.inside_sweep_checkpointed(&mut m, &mut cp).unwrap_err();
    assert_eq!(err, NtStatus::InvalidParameter);
    // The right machine accepts it.
    assert!(gb.inside_sweep_checkpointed(&mut other, &mut cp).is_ok());
}

// ---------------------------------------------------------------------
// Panic isolation: a crashing parser degrades one pipeline
// ---------------------------------------------------------------------

#[test]
fn pipelines_run_isolated_from_scanner_panics() {
    // Directly exercise the isolation seam the sweep runs every pipeline
    // behind: the panic is converted to an error, not propagated.
    let result = strider_support::sync::run_isolated("boom", || -> u32 {
        panic!("parser invariant violated")
    });
    assert_eq!(result.unwrap_err(), "parser invariant violated");
}

// ---------------------------------------------------------------------
// Pinned shapes: hardened pipeline order and the checkpoint JSON
// ---------------------------------------------------------------------

/// A checkpoint in its on-disk JSON shape: files clean, registry
/// salvaged, processes degraded, modules unfinished.
const CHECKPOINT_JSON: &str = r#"{"machine":"lab","taken_at":7,"files":{"report":{"truth_meta":{"view":"LowLevelMft","taken_at":0,"io":{"bytes_read":4225,"seeks":0,"api_calls":0,"entries":34,"defects":0}},"lie_meta":{"view":"HighLevelWin32","taken_at":0,"io":{"bytes_read":0,"seeks":13,"api_calls":13,"entries":34,"defects":0}},"detections":[],"phantom_in_lie":[]},"status":"Ok"},"registry":{"report":{"truth_meta":{"view":"LowLevelHiveParse","taken_at":0,"io":{"bytes_read":1638,"seeks":0,"api_calls":0,"entries":7,"defects":0}},"lie_meta":{"view":"HighLevelWin32","taken_at":0,"io":{"bytes_read":0,"seeks":0,"api_calls":10,"entries":14,"defects":0}},"detections":[],"phantom_in_lie":[]},"status":{"Salvaged":{"defects":2}}},"processes":{"report":{"truth_meta":{"view":"LowLevelApl","taken_at":0,"io":{"bytes_read":0,"seeks":0,"api_calls":0,"entries":10,"defects":0}},"lie_meta":{"view":"HighLevelWin32","taken_at":0,"io":{"bytes_read":0,"seeks":0,"api_calls":1,"entries":10,"defects":0}},"detections":[],"phantom_in_lie":[]},"status":{"Degraded":{"reason":"operation timed out"}}},"modules":null}"#;

#[test]
fn hardened_pipeline_order_and_checkpoint_json_are_pinned() {
    // Seed 42 shuffles the pipelines to registry, files, modules,
    // processes; each runs its five quorum passes before the next starts.
    let mut m = infected_machine();
    let telemetry = Telemetry::new();
    let policy = ScanPolicy::hardened()
        .with_hardening(Some(EvasionHardening::with_seed(42)))
        .with_clock(Arc::new(FakeClock::new()));
    GhostBuster::new()
        .with_policy(policy)
        .with_telemetry(telemetry.clone())
        .inside_sweep(&mut m)
        .unwrap();
    let tel = telemetry.report();
    let sweep = tel.find_span("sweep.inside").unwrap();
    let order: Vec<&str> = sweep
        .children
        .iter()
        .map(|c| c.name.as_str())
        .filter(|name| name.ends_with(".scan_inside"))
        .collect();
    let expected: Vec<&str> = [
        "registry.scan_inside",
        "files.scan_inside",
        "modules.scan_inside",
        "processes.scan_inside",
    ]
    .into_iter()
    .flat_map(|name| std::iter::repeat_n(name, 5))
    .collect();
    assert_eq!(order, expected);

    // The on-disk checkpoint shape is unchanged: the literal parses, maps
    // onto the per-pipeline slots, and re-serializes byte for byte.
    let checkpoint = SweepCheckpoint::deserialize(CHECKPOINT_JSON).unwrap();
    assert_eq!(checkpoint.serialize(), CHECKPOINT_JSON);
    assert_eq!(checkpoint.unfinished(), vec!["modules"]);
    assert_eq!(
        checkpoint.slot(Pipeline::Registry).as_ref().unwrap().status,
        PipelineStatus::Salvaged { defects: 2 }
    );
    assert!(checkpoint
        .slot(Pipeline::Processes)
        .as_ref()
        .unwrap()
        .status
        .is_degraded());
}
