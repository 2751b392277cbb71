//! Fleet-scale integration tests: a seeded 64-machine fleet swept on the
//! work-stealing pool, merged-sketch equality against a serial merge,
//! shard-level fault isolation, and kill-mid-fleet resume.
//!
//! Everything runs on a [`FakeClock`]: stalled devices are polled in
//! simulated time, so "a shard stalls past its two-millisecond budget"
//! costs microseconds of wall clock.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use strider_ghostbuster_repro::prelude::*;
use strider_support::fault::Stall;
use strider_support::obs::FakeClock;

/// The supervised fleet policy every test drives: resilient scanning with
/// per-pipeline/per-sweep budgets on a shared fake clock.
fn fleet_policy(clock: Arc<FakeClock>) -> ScanPolicy {
    ScanPolicy::resilient()
        .with_clock(clock)
        .with_poll(100_000, 0)
        .with_pipeline_budget(2_000_000)
        .with_sweep_budget(10_000_000)
}

fn detector(clock: Arc<FakeClock>) -> GhostBuster {
    GhostBuster::new()
        .with_advanced(AdvancedSource::ThreadTable)
        .with_policy(fleet_policy(clock))
}

// ---------------------------------------------------------------------
// Exact fleet statistics and merge equality on the worker pool
// ---------------------------------------------------------------------

#[test]
fn pool_sweep_of_64_machines_reports_exact_rate_and_merge_equal_sketches() {
    let clock = Arc::new(FakeClock::default());
    let mut fleet = FleetRegistry::seeded(&FleetSpec::clean(64, 6401).with_infected(16)).unwrap();
    assert_eq!(fleet.seeded_infected(), 16);

    let scheduler = FleetScheduler::new(detector(clock)).with_workers(4);
    let report = scheduler.sweep(&mut fleet).unwrap();

    // Exact fleet infection rate: every seeded machine detected, nothing
    // else flagged.
    assert_eq!(report.machines, 64);
    assert_eq!(report.swept, 64);
    assert_eq!(report.infected, 16, "{report}");
    assert_eq!(report.seeded_infected, 16);
    assert!((report.infection_rate() - 0.25).abs() < 1e-12);
    assert!(report.unswept.is_empty());
    for result in report.results() {
        assert_eq!(
            result.report.is_infected(),
            result.seeded_infected,
            "{} wrong verdict",
            result.shard
        );
    }

    // Prevalence tables: the five families cycle over 16 infections, and
    // every family/technique seeded is detected at full rate.
    assert_eq!(report.families.len(), 5, "{:?}", report.families);
    assert_eq!(report.families.values().map(|p| p.seeded).sum::<u64>(), 16);
    for (family, p) in &report.families {
        assert_eq!(p.detected, p.seeded, "family {family} missed");
    }
    assert!(!report.techniques.is_empty());
    for (technique, p) in &report.techniques {
        assert_eq!(p.detected, p.seeded, "technique {technique} missed");
    }

    // Health rollup: all four pipelines clean on all 64 shards.
    for pipeline in ["files", "registry", "processes", "modules"] {
        let rollup = &report.health[pipeline];
        assert_eq!((rollup.ok, rollup.salvaged, rollup.degraded), (64, 0, 0));
    }

    // Merged-quantile equality: merging each shard's sketches serially in
    // shard order (the "single registry" merge) must produce *exactly* the
    // fleet report's sketches — bucket counts add, so the merge is
    // order-independent even though the pool finished shards in an
    // arbitrary interleaving.
    let mut serial: BTreeMap<String, HistogramSketch> = BTreeMap::new();
    for result in report.results() {
        let telemetry = result
            .report
            .telemetry
            .as_ref()
            .expect("swept shards carry telemetry");
        for (name, sketch) in &telemetry.histograms {
            serial.entry(name.clone()).or_default().merge(sketch);
        }
    }
    assert_eq!(serial, report.latency);
    for probe in [
        "files.dir_query_ns",
        "registry.key_probe_ns",
        "modules.proc_query_ns",
    ] {
        let fleet_sketch = &report.latency[probe];
        let serial_sketch = &serial[probe];
        assert!(fleet_sketch.count() > 0, "{probe} recorded nothing");
        for pct in [0.0, 50.0, 95.0, 99.0, 100.0] {
            assert_eq!(
                fleet_sketch.percentile(pct),
                serial_sketch.percentile(pct),
                "{probe} p{pct} differs"
            );
        }
    }
}

#[test]
fn result_digest_is_identical_across_worker_counts() {
    // No stalled shards: stalls are polled on the one shared fake clock,
    // so their budgets would depend on how the workers interleave. Every
    // sweep records its scheduler timeline, so there is no untraced
    // variant to compare against.
    let spec = FleetSpec::clean(12, 1701).with_infected(5);
    let mut digests = BTreeSet::new();
    for workers in [1, 2, 4, 8] {
        let scheduler =
            FleetScheduler::new(detector(Arc::new(FakeClock::default()))).with_workers(workers);
        let report = scheduler
            .sweep(&mut FleetRegistry::seeded(&spec).unwrap())
            .unwrap();
        assert_eq!(report.infected, 5, "{workers} workers: {report}");
        assert_eq!(report.trace().workers, workers.min(12));
        digests.insert(report.result_digest());
    }
    assert_eq!(digests.len(), 1, "{digests:#?}");
}

// ---------------------------------------------------------------------
// Fault isolation: one stalled shard degrades alone
// ---------------------------------------------------------------------

#[test]
fn stalled_shard_lands_degraded_without_sinking_the_fleet_report() {
    let clock = Arc::new(FakeClock::default());
    let mut fleet = FleetRegistry::seeded(&FleetSpec::clean(8, 777).with_infected(2)).unwrap();
    fleet.machines_mut()[5]
        .machine
        .set_fault_injector(FaultInjector::new().stall_volume_reads(Stall::forever()));

    // One worker: the fleet's shards share one *fake* clock, and the
    // stalled shard's deadline polling advances it by whole pipeline
    // budgets — a concurrent shard would see that jump mid-scan and time
    // out too. Serial shards start their deadlines after the jump, so the
    // degradation stays exactly where it was injected.
    let scheduler = FleetScheduler::new(detector(clock)).with_workers(1);
    let mut checkpoint = FleetCheckpoint::new(&fleet);
    let report = scheduler
        .sweep_streaming(&mut fleet, &mut checkpoint, |_| FleetControl::Continue)
        .unwrap();

    // Every shard reported — the stall cost one pipeline of one shard.
    assert_eq!(report.swept, 8);
    assert!(report.unswept.is_empty());
    let stalled = report.result(ShardId(5)).unwrap();
    assert_eq!(
        stalled.report.health.files,
        PipelineStatus::Degraded {
            reason: "operation timed out".to_string()
        }
    );
    assert!(stalled.report.health.registry.is_ok());
    let rollup = &report.health["files"];
    assert_eq!((rollup.ok, rollup.degraded), (7, 1));
    for pipeline in ["registry", "processes", "modules"] {
        assert_eq!(report.health[pipeline].degraded, 0);
    }
    // The infections elsewhere in the fleet are still found.
    assert_eq!(report.infected, 2);

    // A timeout is a reason to re-run, not a result: the stalled shard's
    // files pipeline is not checkpointed, so only that shard is unfinished.
    assert_eq!(checkpoint.unfinished_shards(), vec![ShardId(5)]);

    // Clear the fault and resume: the seven finished shards are restored
    // verbatim, shard 5 alone is re-swept, and the fleet completes clean.
    fleet.machines_mut()[5]
        .machine
        .set_fault_injector(FaultInjector::new());
    let resumed = scheduler
        .sweep_streaming(&mut fleet, &mut checkpoint, |_| FleetControl::Continue)
        .unwrap();
    assert!(checkpoint.is_complete());
    assert_eq!(resumed.swept, 8);
    for result in resumed.results() {
        assert_eq!(
            result.disposition == ShardDisposition::Restored,
            result.shard != ShardId(5),
            "{}",
            result.shard
        );
    }
    assert_eq!(resumed.health["files"].degraded, 0);
    assert_eq!(resumed.infected, 2);
}

// ---------------------------------------------------------------------
// Kill-mid-fleet: stop, serialize the checkpoint, resume the rest
// ---------------------------------------------------------------------

#[test]
fn killed_fleet_sweep_resumes_only_the_unfinished_shards() {
    let clock = Arc::new(FakeClock::default());
    let mut fleet = FleetRegistry::seeded(&FleetSpec::clean(6, 31).with_infected(3)).unwrap();
    // One worker, batch size one: shards complete one at a time, so the
    // stop lands early enough to leave work behind.
    let scheduler = FleetScheduler::new(detector(clock))
        .with_workers(1)
        .with_batch(1);

    let mut checkpoint = FleetCheckpoint::new(&fleet);
    let mut seen = 0;
    let report = scheduler
        .sweep_streaming(&mut fleet, &mut checkpoint, |_| {
            seen += 1;
            if seen >= 2 {
                FleetControl::Stop
            } else {
                FleetControl::Continue
            }
        })
        .unwrap();

    // The stop left shards behind, and the checkpoint knows exactly which:
    // a shard is either complete in the checkpoint or due a re-sweep.
    // (Cancellation may interrupt a shard mid-sweep — its result was
    // reported this run, but its pipelines were not checkpointed.)
    let done: BTreeSet<ShardId> = (0..6)
        .map(ShardId)
        .filter(|id| !checkpoint.unfinished_shards().contains(id))
        .collect();
    let unfinished = checkpoint.unfinished_shards();
    assert!(!unfinished.is_empty(), "stop must leave work behind");
    assert!(done.len() >= 2, "two results were observed before the stop");
    assert!(!checkpoint.is_complete());
    assert_eq!(
        report.swept + report.unswept.len() as u64,
        6,
        "every shard is either reported or unswept"
    );
    // Unswept shards are necessarily unfinished in the checkpoint.
    for id in &report.unswept {
        assert!(unfinished.contains(id), "{id} unswept but checkpointed");
    }

    // The checkpoint survives the kill as JSON.
    let mut parsed = FleetCheckpoint::deserialize(&checkpoint.serialize()).unwrap();
    assert_eq!(parsed, checkpoint);

    // Resume from the parsed checkpoint: complete shards restore verbatim
    // (no scan, no telemetry), unfinished shards re-sweep, and the fleet
    // statistics come out exact.
    let resumed = scheduler
        .sweep_streaming(&mut fleet, &mut parsed, |_| FleetControl::Continue)
        .unwrap();
    assert!(parsed.is_complete());
    assert_eq!(resumed.swept, 6);
    assert!(resumed.unswept.is_empty());
    for result in resumed.results() {
        assert_eq!(
            result.disposition == ShardDisposition::Restored,
            done.contains(&result.shard),
            "{} should {}have been restored",
            result.shard,
            if done.contains(&result.shard) {
                ""
            } else {
                "not "
            }
        );
        if result.disposition == ShardDisposition::Restored {
            assert!(result.report.telemetry.is_none());
        }
    }
    assert_eq!(resumed.infected, 3);
    assert_eq!(resumed.seeded_infected, 3);
}

// ---------------------------------------------------------------------
// Fleet monitor: incidents carry their shard and its evidence
// ---------------------------------------------------------------------

#[test]
fn fleet_monitor_tags_incidents_with_shard_and_flight_evidence() {
    let clock = Arc::new(FakeClock::default());
    let mut fleet = FleetRegistry::seeded(&FleetSpec::clean(4, 91)).unwrap();
    // One worker: the stall's polls advance the shared fake clock, which
    // a concurrent shard would read as its own latency.
    let scheduler = FleetScheduler::new(detector(clock)).with_workers(1);
    let mut monitor = FleetMonitor::new(scheduler)
        .with_config(MonitorConfig::default().with_interval_ns(1_000_000_000));
    assert_eq!(monitor.record_baselines(&mut fleet).unwrap(), 4);

    // Quiet fleet: no incidents across two scheduled passes.
    let calm = monitor.run(&mut fleet, 2).unwrap();
    assert!(calm.iter().all(|p| p.incidents.is_empty()));

    // A rootkit lands on shard 2 and its volume starts stalling.
    HackerDefender::default()
        .infect(&mut fleet.machines_mut()[2].machine)
        .unwrap();
    fleet.machines_mut()[2]
        .machine
        .set_fault_injector(FaultInjector::new().stall_volume_reads(Stall::after_polls(5)));

    let pass = monitor.observe(&mut fleet).unwrap();
    assert!(
        pass.incidents.iter().all(|i| i.shard == ShardId(2)),
        "{:?}",
        pass.incidents
    );
    assert!(pass
        .incidents
        .iter()
        .any(|i| matches!(i.incident, MonitorIncident::NewHiddenResource { .. })));
    assert!(pass
        .incidents
        .iter()
        .any(|i| matches!(i.incident, MonitorIncident::LatencyRegression { .. })));
    for incident in &pass.incidents {
        assert!(
            !incident.incident.flight().is_empty(),
            "incident must carry the shard's flight dump: {incident}"
        );
    }
    assert_eq!(pass.infected_shards(), vec![ShardId(2)]);
    assert_eq!(monitor.core.series()["fleet.infected"].last(), Some(1.0));
}

// ---------------------------------------------------------------------
// Fleet alerting: rollup rules fire on spikes and export to Prometheus
// ---------------------------------------------------------------------

#[test]
fn fleet_infection_spike_rule_fires_and_exports_prometheus_text() {
    let clock = Arc::new(FakeClock::default());
    let mut fleet = FleetRegistry::seeded(&FleetSpec::clean(8, 47)).unwrap();
    let mut monitor = FleetMonitor::new(FleetScheduler::new(detector(clock)))
        .with_config(MonitorConfig::default().with_interval_ns(1_000_000_000))
        .with_alert_policy(FleetAlertPolicy::default().with_infection_rate_max(0.25));
    monitor.record_baselines(&mut fleet).unwrap();

    // A quiet pass: rate 0, nothing pending or firing.
    let calm = monitor.observe(&mut fleet).unwrap();
    assert!(calm.transitions.is_empty(), "{:?}", calm.transitions);

    // Rootkits land on 3 of 8 shards: infection rate 0.375 > 0.25.
    for shard in [1usize, 4, 6] {
        HackerDefender::default()
            .infect(&mut fleet.machines_mut()[shard].machine)
            .unwrap();
    }
    let pass = monitor.observe(&mut fleet).unwrap();
    assert_eq!(
        monitor.core.series()["fleet.infection_rate"].last(),
        Some(0.375)
    );
    assert!(monitor.core.engine().is_firing("fleet.infection_spike"));
    assert!(
        pass.transitions
            .iter()
            .any(|t| t.rule == "fleet.infection_spike" && t.severity == Severity::Critical),
        "{:?}",
        pass.transitions
    );
    // The fleet monitor keeps its own black box for alert transitions.
    assert!(monitor
        .flight()
        .events
        .iter()
        .any(|e| e.what == "fleet.infection_spike"));

    // Operators scrape the same state as Prometheus text.
    let dir = std::env::temp_dir().join(format!("strider-fleet-alerts-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = monitor.prometheus().write_in(&dir, "fleet").unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(
        text.contains(
            "strider_alert_active{rule=\"fleet.infection_spike\",severity=\"critical\"} 1"
        ),
        "{text}"
    );
    assert!(text.contains("fleet_infection_rate 0.375"), "{text}");
    assert!(text.contains("strider_fleet_passes_total 2"), "{text}");
    std::fs::remove_dir_all(&dir).unwrap();

    // Disinfect wipes nothing here — but a fresh clean fleet pass would
    // resolve the rule; the merged sweep report exports too.
    let report = FleetScheduler::new(detector(Arc::new(FakeClock::default())))
        .sweep(&mut fleet)
        .unwrap();
    let expo = report.prometheus().render();
    assert!(expo.contains("strider_fleet_swept_total 8"), "{expo}");
    assert!(
        expo.contains("strider_fleet_infection_rate 0.375"),
        "{expo}"
    );
}

// ---------------------------------------------------------------------
// Hardened-policy plumb-through
// ---------------------------------------------------------------------

#[test]
fn hardened_policy_flows_through_the_scheduler_to_every_shard() {
    // Half the fleet runs flicker-hiding evasive rootkits. The standard
    // resilient fleet policy misses every one (the tactic is built to
    // defeat stabilized sweeps); swapping *only* the detector's policy
    // for the hardened preset catches every one — proof the scheduler
    // clones the hardened policy into each shard's sweep rather than
    // falling back to a default.
    let tactic = EvasiveTactic::FlickerHiding {
        seed: 41,
        grace: 12,
    };
    let build = || {
        let mut fleet = FleetRegistry::seeded(&FleetSpec::clean(6, 4242)).unwrap();
        for shard in fleet.machines_mut().iter_mut().take(3) {
            EvasiveGhostware::new(tactic)
                .infect(&mut shard.machine)
                .unwrap();
        }
        fleet
    };

    let naive = FleetScheduler::new(detector(Arc::new(FakeClock::default()))).with_workers(3);
    let report = naive.sweep(&mut build()).unwrap();
    assert_eq!(report.infected, 0, "naive fleet sweep is blind: {report}");

    let hardened = GhostBuster::new()
        .with_policy(ScanPolicy::hardened().with_clock(Arc::new(FakeClock::default())));
    let scheduler = FleetScheduler::new(hardened).with_workers(3);
    let report = scheduler.sweep(&mut build()).unwrap();
    assert_eq!(
        report.infected, 3,
        "hardened policy must reach every shard: {report}"
    );
}

// ---------------------------------------------------------------------
// Self-healing: retry budgets, recovery, and quarantine
// ---------------------------------------------------------------------

/// A heal policy with a tiny backoff window so retries cost microseconds
/// of fake-clock time.
fn heal(max_attempts: u32) -> FleetHealPolicy {
    FleetHealPolicy::default()
        .with_max_attempts(max_attempts)
        .with_backoff(100_000, 400_000)
}

#[test]
fn permanently_stalled_shard_is_quarantined_with_flight_evidence() {
    let clock = Arc::new(FakeClock::default());
    let mut fleet = FleetRegistry::seeded(&FleetSpec::clean(6, 61).with_infected(2)).unwrap();
    // Infections land on shards 0 and 3; stall a clean shard forever.
    fleet.machines_mut()[1]
        .machine
        .set_fault_injector(FaultInjector::new().stall_volume_reads(Stall::forever()));

    let scheduler = FleetScheduler::new(detector(clock))
        .with_workers(1)
        .with_heal(heal(2));
    let report = scheduler.sweep(&mut fleet).unwrap();

    // The sick shard burned its budget and was fenced — not silently
    // dropped, and not an Err that sank the fleet.
    assert_eq!(report.quarantined, vec![ShardId(1)], "{report}");
    let fenced = report
        .result(ShardId(1))
        .expect("quarantined shard keeps its result");
    match &fenced.disposition {
        ShardDisposition::Quarantined(QuarantineRecord {
            attempts,
            reason,
            evidence,
            ..
        }) => {
            assert_eq!(*attempts, 2);
            assert!(reason.contains("files"), "{reason}");
            assert!(
                evidence.events.iter().any(|e| e.what == "shard.attempt"),
                "evidence must show the failed attempts: {evidence:?}"
            );
            assert!(evidence.events.iter().any(|e| e.what == "shard.quarantine"));
        }
        other => panic!("expected quarantine, got {other:?}"),
    }

    // The fence keeps the untrusted verdict out of every aggregate: five
    // shards swept, both seeded infections (shards 0 and 3) still found,
    // and the health rollup only counts the healthy shards.
    assert_eq!(report.swept, 5);
    assert_eq!(report.infected, 2);
    assert_eq!(report.seeded_infected, 2);
    let rollup = &report.health["files"];
    assert_eq!((rollup.ok, rollup.degraded), (5, 0));
    assert!(report.unswept.is_empty());
    assert!(!report.is_complete_and_healthy());
}

#[test]
fn transiently_stalled_shard_recovers_on_a_retry() {
    let clock = Arc::new(FakeClock::default());
    let mut fleet = FleetRegistry::seeded(&FleetSpec::clean(4, 43).with_infected(1)).unwrap();
    // 25 pending polls: the first attempt's 2 ms files budget drains at
    // most 20 of them and times out; the retry drains the rest and
    // completes inside its (fresh) budget.
    fleet.machines_mut()[2]
        .machine
        .set_fault_injector(FaultInjector::new().stall_volume_reads(Stall::after_polls(25)));

    let scheduler = FleetScheduler::new(detector(clock))
        .with_workers(1)
        .with_heal(heal(3));
    let report = scheduler.sweep(&mut fleet).unwrap();

    assert!(report.quarantined.is_empty(), "{report}");
    assert_eq!(report.swept, 4);
    let healed = report.result(ShardId(2)).unwrap();
    match healed.disposition {
        ShardDisposition::Recovered { attempts } => assert!(attempts >= 2, "{attempts}"),
        ref other => panic!("expected a recovery, got {other:?}"),
    }
    assert!(
        healed.report.health.files.is_ok(),
        "{:?}",
        healed.report.health
    );
    assert!(report.is_complete_and_healthy(), "{report}");
    // Untouched shards swept clean on the first attempt.
    assert_eq!(
        report.result(ShardId(1)).unwrap().disposition,
        ShardDisposition::Swept
    );
}

// ---------------------------------------------------------------------
// Durable sweeps: kill-anywhere resume and persistent quarantine
// ---------------------------------------------------------------------

fn durable_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("strider-fleet-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn durable_sweep_killed_mid_journal_resumes_to_an_identical_digest() {
    use strider_support::fault::CrashPlan;
    use strider_support::store::RecordStore;

    let spec = FleetSpec::clean(5, 1951).with_infected(2);
    let build = || FleetRegistry::seeded(&spec).unwrap();
    let scheduler = || {
        FleetScheduler::new(detector(Arc::new(FakeClock::default())))
            .with_workers(1)
            .with_batch(1)
    };
    let dir = durable_dir("kill-resume");

    // Reference: an uninterrupted durable run, measuring journal bytes.
    let plan = Arc::new(CrashPlan::never());
    let store = RecordStore::open(dir.join("ref.wal"))
        .unwrap()
        .with_crash_plan(plan.clone());
    let reference = scheduler()
        .sweep_durable(&mut build(), &store, DurabilityMode::WalAppend)
        .unwrap()
        .result_digest();
    let total_bytes = plan.written();
    assert!(total_bytes > 0);

    // Kill mid-journal (about two thirds in — inside a shard record),
    // then restart: fresh registry, reopened store, same call.
    let path = dir.join("killed.wal");
    let plan = Arc::new(CrashPlan::at_write_byte(total_bytes * 2 / 3));
    let store = RecordStore::open(&path).unwrap().with_crash_plan(plan);
    let err = scheduler()
        .sweep_durable(&mut build(), &store, DurabilityMode::WalAppend)
        .unwrap_err();
    assert!(err.is_injected_crash(), "{err}");

    let store = RecordStore::open(&path).unwrap();
    let resumed = scheduler()
        .sweep_durable(&mut build(), &store, DurabilityMode::WalAppend)
        .unwrap();
    assert!(
        resumed
            .results()
            .iter()
            .any(|r| r.disposition == ShardDisposition::Restored),
        "the journal must have saved some shards"
    );
    assert_eq!(resumed.result_digest(), reference);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn quarantine_survives_the_durable_store_and_stays_fenced_on_resume() {
    use strider_support::store::RecordStore;

    let clock = Arc::new(FakeClock::default());
    let mut fleet = FleetRegistry::seeded(&FleetSpec::clean(4, 71).with_infected(1)).unwrap();
    fleet.machines_mut()[3]
        .machine
        .set_fault_injector(FaultInjector::new().stall_volume_reads(Stall::forever()));
    let scheduler = FleetScheduler::new(detector(clock))
        .with_workers(1)
        .with_heal(heal(2));

    let dir = durable_dir("quarantine");
    let store = RecordStore::open(dir.join("fleet.wal")).unwrap();
    let first = scheduler
        .sweep_durable(&mut fleet, &store, DurabilityMode::WalAppend)
        .unwrap();
    assert_eq!(first.quarantined, vec![ShardId(3)]);

    // Restart against the same store: the fence is restored from the
    // journal — the sick shard is NOT re-swept (its stall would burn the
    // budget again), and the digest matches the first run exactly.
    let store = RecordStore::open(dir.join("fleet.wal")).unwrap();
    let mut fresh = FleetRegistry::seeded(&FleetSpec::clean(4, 71).with_infected(1)).unwrap();
    fresh.machines_mut()[3]
        .machine
        .set_fault_injector(FaultInjector::new().stall_volume_reads(Stall::forever()));
    let second = scheduler
        .sweep_durable(&mut fresh, &store, DurabilityMode::WalAppend)
        .unwrap();
    assert_eq!(second.quarantined, vec![ShardId(3)]);
    assert_eq!(second.result_digest(), first.result_digest());
    match &second.result(ShardId(3)).unwrap().disposition {
        ShardDisposition::Quarantined(QuarantineRecord {
            attempts, evidence, ..
        }) => {
            assert_eq!(*attempts, 2);
            assert!(!evidence.events.is_empty(), "evidence survives the journal");
        }
        other => panic!("expected a restored quarantine, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(dir);
}

// ---------------------------------------------------------------------
// Monitor self-healing: failing shards are fenced, not fatal
// ---------------------------------------------------------------------

#[test]
fn monitor_quarantines_a_failing_shard_instead_of_sinking_the_fleet() {
    let clock = Arc::new(FakeClock::default());
    let mut fleet = FleetRegistry::seeded(&FleetSpec::clean(3, 97)).unwrap();
    let scheduler = FleetScheduler::new(detector(clock)).with_workers(1);
    let mut monitor = FleetMonitor::new(scheduler).with_quarantine_after(2);
    assert_eq!(monitor.record_baselines(&mut fleet).unwrap(), 3);

    // Break shard 1 after the baselines: every later pass degrades it.
    fleet.machines_mut()[1]
        .machine
        .set_fault_injector(FaultInjector::new().stall_volume_reads(Stall::forever()));

    // Pass 1: the failure is surfaced, counted, and the pass still
    // completes for the whole fleet.
    let pass = monitor.observe(&mut fleet).unwrap();
    assert_eq!(pass.failures.len(), 1, "{:?}", pass.failures);
    assert_eq!(pass.failures[0].shard, ShardId(1));
    assert_eq!(pass.failures[0].consecutive, 1);
    assert_eq!(pass.shards.len(), 3);
    assert!(pass.quarantined.is_empty());

    // Pass 2: second consecutive failure trips the fence.
    let pass = monitor.observe(&mut fleet).unwrap();
    assert_eq!(pass.failures[0].consecutive, 2);
    assert_eq!(pass.quarantined, vec![ShardId(1)]);
    let fenced = monitor.quarantined();
    assert_eq!(fenced.len(), 1);
    assert_eq!(fenced[0].shard, 1);
    assert_eq!(fenced[0].attempts, 2, "attempts counts the failed passes");
    assert!(
        fenced[0]
            .evidence
            .events
            .iter()
            .any(|e| e.what == "fleet.shard_failure"),
        "quarantine carries the failure trail"
    );

    // Pass 3: the fenced shard is skipped — not swept at all, two shards
    // observed, no new failures, and the rollup series records the fence.
    let raw_reads = fleet.machines()[1].machine.scan_tap().raw_reads();
    let pass = monitor.observe(&mut fleet).unwrap();
    assert_eq!(
        fleet.machines()[1].machine.scan_tap().raw_reads(),
        raw_reads,
        "a fenced shard is not swept"
    );
    assert_eq!(pass.quarantined, vec![ShardId(1)]);
    assert_eq!(pass.shards.len(), 2);
    assert_eq!(pass.shard_ids, vec![ShardId(0), ShardId(2)]);
    assert!(pass.failures.is_empty());
    assert_eq!(monitor.core.series()["fleet.quarantined"].last(), Some(1.0));

    // Operator fixes the machine and lifts the fence: the next pass
    // observes all three shards again, clean.
    fleet.machines_mut()[1]
        .machine
        .set_fault_injector(FaultInjector::new());
    assert!(monitor.unquarantine(ShardId(1)));
    let pass = monitor.observe(&mut fleet).unwrap();
    assert_eq!(pass.shards.len(), 3);
    assert!(pass.failures.is_empty(), "{:?}", pass.failures);
    assert!(monitor.quarantined().is_empty());
}

#[test]
fn scheduler_quarantine_fences_the_shard_for_the_monitor() {
    let clock = Arc::new(FakeClock::default());
    let mut fleet = FleetRegistry::seeded(&FleetSpec::clean(3, 83)).unwrap();
    let scheduler = FleetScheduler::new(detector(clock))
        .with_workers(1)
        .with_heal(FleetHealPolicy::default().with_max_attempts(2));
    let mut monitor = FleetMonitor::new(scheduler);
    assert_eq!(monitor.record_baselines(&mut fleet).unwrap(), 3);
    fleet.machines_mut()[2]
        .machine
        .set_fault_injector(FaultInjector::new().stall_volume_reads(Stall::forever()));

    // The scheduler burns its two attempts and quarantines shard 2: that
    // is the pass's failure, and the fence is the scheduler's record. Its
    // untrusted verdict is not judged.
    let pass = monitor.observe(&mut fleet).unwrap();
    assert_eq!(pass.failures.len(), 1, "{:?}", pass.failures);
    assert_eq!(pass.failures[0].shard, ShardId(2));
    assert_eq!(pass.failures[0].consecutive, 1);
    assert_eq!(pass.quarantined, vec![ShardId(2)]);
    assert_eq!(pass.shard_ids, vec![ShardId(0), ShardId(1)]);
    let fenced = monitor.quarantined();
    assert_eq!(fenced.len(), 1);
    assert_eq!(fenced[0].shard, 2);
    assert_eq!(fenced[0].attempts, 2);
    assert!(
        fenced[0]
            .evidence
            .events
            .iter()
            .any(|e| e.what == "shard.attempt"),
        "the scheduler's evidence: {:?}",
        fenced[0].evidence
    );

    // The next pass skips the fenced shard without sweeping it.
    let raw_reads = fleet.machines()[2].machine.scan_tap().raw_reads();
    let pass = monitor.observe(&mut fleet).unwrap();
    assert_eq!(
        fleet.machines()[2].machine.scan_tap().raw_reads(),
        raw_reads
    );
    assert!(pass.failures.is_empty(), "{:?}", pass.failures);
    assert_eq!(pass.shard_ids, vec![ShardId(0), ShardId(1)]);
    assert_eq!(pass.quarantined, vec![ShardId(2)]);
    assert_eq!(monitor.core.series()["fleet.quarantined"].last(), Some(1.0));
}

#[test]
fn every_monitored_pass_sweeps_with_fresh_circuit_breakers() {
    // Two failures would open the files breaker for far longer than the
    // test runs, if the breaker outlived its pass.
    let clock = Arc::new(FakeClock::default());
    let policy = fleet_policy(clock).with_breaker(2, 1_000_000_000_000);
    let scheduler = FleetScheduler::new(GhostBuster::new().with_policy(policy)).with_workers(1);
    let mut fleet = FleetRegistry::seeded(&FleetSpec::clean(3, 97)).unwrap();
    let mut monitor = FleetMonitor::new(scheduler);
    monitor.record_baselines(&mut fleet).unwrap();
    fleet.machines_mut()[1]
        .machine
        .set_fault_injector(FaultInjector::new().stall_volume_reads(Stall::forever()));

    // Every pass scans the stalled volume again and times out; none is
    // rejected by a breaker an earlier pass opened. The pass-streak fence
    // is what stops the retrying.
    for pass in 1..=3 {
        let observation = monitor.observe(&mut fleet).unwrap();
        assert_eq!(observation.failures[0].consecutive, pass);
        assert_eq!(
            observation.shards[1].report.health.files,
            PipelineStatus::Degraded {
                reason: "operation timed out".to_string()
            },
            "pass {pass}"
        );
    }
}

#[test]
fn fleet_monitor_exposition_text_is_pinned() {
    let policy = ScanPolicy::resilient().with_clock(Arc::new(FakeClock::new()));
    let mut fleet = FleetRegistry::seeded(&FleetSpec::clean(3, 13)).unwrap();
    let mut monitor =
        FleetMonitor::new(FleetScheduler::new(GhostBuster::new().with_policy(policy)));
    monitor.record_baselines(&mut fleet).unwrap();
    monitor.observe(&mut fleet).unwrap();
    let expected = concat!(
        "# TYPE fleet_degraded gauge\n",
        "fleet_degraded 0\n",
        "# TYPE fleet_degraded_fraction gauge\n",
        "fleet_degraded_fraction 0\n",
        "# TYPE fleet_failures gauge\n",
        "fleet_failures 0\n",
        "# TYPE fleet_incidents gauge\n",
        "fleet_incidents 0\n",
        "# TYPE fleet_infected gauge\n",
        "fleet_infected 0\n",
        "# TYPE fleet_infection_rate gauge\n",
        "fleet_infection_rate 0\n",
        "# TYPE fleet_p95_sweep_ns gauge\n",
        "fleet_p95_sweep_ns 0\n",
        "# TYPE fleet_quarantined gauge\n",
        "fleet_quarantined 0\n",
        "# TYPE fleet_queue_wait_p95_ns gauge\n",
        "fleet_queue_wait_p95_ns 0\n",
        "# TYPE fleet_suspicious gauge\n",
        "fleet_suspicious 0\n",
        "# TYPE fleet_worker_idle_fraction gauge\n",
        "fleet_worker_idle_fraction 0\n",
        "# TYPE strider_alert_active gauge\n",
        "strider_alert_active{rule=\"fleet.infection_spike\",severity=\"critical\"} 0\n",
        "strider_alert_active{rule=\"fleet.degraded_shards\",severity=\"warning\"} 0\n",
        "strider_alert_active{rule=\"fleet.latency_slo\",severity=\"warning\"} 0\n",
        "strider_alert_active{rule=\"fleet.worker_starvation\",severity=\"warning\"} 0\n",
        "# TYPE strider_alert_transitions_total counter\n",
        "strider_alert_transitions_total{rule=\"fleet.infection_spike\"} 0\n",
        "strider_alert_transitions_total{rule=\"fleet.degraded_shards\"} 0\n",
        "strider_alert_transitions_total{rule=\"fleet.latency_slo\"} 0\n",
        "strider_alert_transitions_total{rule=\"fleet.worker_starvation\"} 0\n",
        "# TYPE strider_fleet_passes_total counter\n",
        "strider_fleet_passes_total 1\n",
    );
    assert_eq!(monitor.prometheus().render(), expected);
}

#[test]
fn fleet_config_reaches_shard_monitors_recorded_before_it() {
    let policy = ScanPolicy::resilient().with_clock(Arc::new(FakeClock::new()));
    let mut fleet = FleetRegistry::seeded(&FleetSpec::clean(2, 17)).unwrap();
    let mut monitor =
        FleetMonitor::new(FleetScheduler::new(GhostBuster::new().with_policy(policy)));
    monitor.record_baselines(&mut fleet).unwrap();

    let config = MonitorConfig {
        latency_factor: 9.0,
        latency_floor_ns: 7,
        ..MonitorConfig::default().with_history(1)
    };
    let mut monitor = monitor.with_config(config.clone());
    monitor.run(&mut fleet, 2).unwrap();
    for shard in [ShardId(0), ShardId(1)] {
        let shard = monitor.shard(shard).unwrap();
        assert_eq!(shard.config(), &config);
        assert!(shard.baseline().is_some(), "the baseline survives");
        let rule = shard
            .core
            .engine()
            .rules()
            .iter()
            .find(|r| r.name == "latency.files")
            .unwrap();
        assert!(
            matches!(
                rule.condition,
                AlertCondition::AboveBaseline { factor, floor, .. } if factor == 9.0 && floor == 7.0
            ),
            "{rule}"
        );
        assert_eq!(shard.core.series()["sweep.suspicious"].len(), 1);
    }
}

// ---------------------------------------------------------------------
// One monitored pass, pinned: what the monitor judges must not depend on
// how the pass was swept
// ---------------------------------------------------------------------

/// The sorted `(shard, incident variant, pipeline, identity)` of a pass.
fn incident_keys(pass: &FleetObservation) -> Vec<(u32, &'static str, String, String)> {
    let mut keys: Vec<_> = pass
        .incidents
        .iter()
        .map(|i| {
            let (variant, identity) = match &i.incident {
                MonitorIncident::NewHiddenResource { identity, .. } => ("new", identity.clone()),
                MonitorIncident::LatencyRegression { .. } => ("latency", String::new()),
                MonitorIncident::HealthDowngrade { .. } => ("downgrade", String::new()),
                MonitorIncident::EvasionSuspected { identity, .. } => ("evasion", identity.clone()),
            };
            (
                i.shard.0,
                variant,
                i.incident.pipeline().to_string(),
                identity,
            )
        })
        .collect();
    keys.sort();
    keys
}

/// Baselines a stall-free 12-machine fleet, infects three shards with
/// three different families, and runs one monitored pass.
fn pinned_pass(monitor: &mut FleetMonitor) -> FleetObservation {
    let mut fleet = FleetRegistry::seeded(&FleetSpec::clean(12, 1212)).unwrap();
    assert_eq!(monitor.record_baselines(&mut fleet).unwrap(), 12);
    HackerDefender::default()
        .infect(&mut fleet.machines_mut()[2].machine)
        .unwrap();
    Vanquish::default()
        .infect(&mut fleet.machines_mut()[5].machine)
        .unwrap();
    Aphex::default()
        .infect(&mut fleet.machines_mut()[9].machine)
        .unwrap();
    monitor.observe(&mut fleet).unwrap()
}

#[test]
fn monitored_pass_is_pinned_at_any_worker_count() {
    for workers in [1, 2, 4, 8] {
        let scheduler =
            FleetScheduler::new(detector(Arc::new(FakeClock::default()))).with_workers(workers);
        assert_pinned(&mut FleetMonitor::new(scheduler));
    }
}

/// The pass as the shard-serial monitor judged it; every worker count
/// must reproduce it exactly.
fn assert_pinned(monitor: &mut FleetMonitor) {
    let pass = pinned_pass(monitor);

    let new = |shard: u32, pipeline: &str, identity: &str| {
        (shard, "new", pipeline.to_string(), identity.to_string())
    };
    let expected = vec![
        new(2, "files", r"c:\windows\system32\drivers\hxdefdrv.sys"),
        new(2, "files", r"c:\windows\system32\hxdef100.exe"),
        new(2, "files", r"c:\windows\system32\hxdef100.ini"),
        new(2, "processes", "pid:60"),
        new(2, "registry", "Services|hackerdefender100|hxdef100.exe"),
        new(2, "registry", "Services|hackerdefenderdrv100|hxdefdrv.sys"),
        new(5, "files", r"c:\vanquish.log"),
        new(5, "files", r"c:\windows\vanquish.dll"),
        new(5, "files", r"c:\windows\vanquish.exe"),
        new(5, "modules", "pid:12|vanquish.dll"),
        new(5, "modules", "pid:16|vanquish.dll"),
        new(5, "modules", "pid:20|vanquish.dll"),
        new(5, "modules", "pid:24|vanquish.dll"),
        new(5, "modules", "pid:28|vanquish.dll"),
        new(5, "modules", "pid:8|vanquish.dll"),
        new(5, "registry", r"Services|vanquish|c:\windows\vanquish.exe"),
        new(9, "files", r"c:\windows\system32\~aphex.exe"),
        new(9, "files", r"c:\windows\system32\~keys.log"),
        new(9, "processes", "pid:60"),
        new(
            9,
            "registry",
            r"Run|~aphex.exe|c:\windows\system32\~aphex.exe",
        ),
    ];
    assert_eq!(incident_keys(&pass), expected);
    assert_eq!(
        pass.infected_shards(),
        vec![ShardId(2), ShardId(5), ShardId(9)]
    );
    let series = monitor.core.series();
    for (name, value) in [
        ("fleet.infected", 3.0),
        ("fleet.suspicious", 20.0),
        ("fleet.degraded", 0.0),
        ("fleet.incidents", 20.0),
        ("fleet.infection_rate", 0.25),
        ("fleet.degraded_fraction", 0.0),
        ("fleet.p95_sweep_ns", 0.0),
        ("fleet.failures", 0.0),
        ("fleet.quarantined", 0.0),
    ] {
        assert_eq!(series[name].last(), Some(value), "{name}");
    }
}
