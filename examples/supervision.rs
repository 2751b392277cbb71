//! Supervised sweep: a truth source that stalls forever costs one
//! pipeline, not the sweep — and a checkpoint lets the next sweep resume
//! where the interrupted one left off.
//!
//! A rootkit that cannot out-hide the cross-view diff can still try to
//! out-wait it: wedge the raw volume handle and the unsupervised detector
//! blocks forever. The supervised engine bounds every pipeline with a
//! deadline, records the loss as `Degraded` in the health ledger, and
//! checkpoints the pipelines that did finish. Everything runs on a
//! [`FakeClock`], so "two milliseconds of stalling" is simulated instantly.
//!
//! ```sh
//! cargo run --example supervision
//! ```

use std::sync::Arc;
use strider_ghostbuster_repro::prelude::*;
use strider_support::fault::Stall;
use strider_support::obs::{Clock, FakeClock};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut machine = Machine::with_base_system("victim")?;
    HackerDefender::default().infect(&mut machine)?;

    // The adversary wedges raw volume reads: every poll comes back
    // STATUS_PENDING, forever.
    machine.set_fault_injector(FaultInjector::new().stall_volume_reads(Stall::forever()));

    let clock = Arc::new(FakeClock::default());
    let policy = ScanPolicy::resilient()
        .with_clock(clock.clone())
        .with_poll(100_000, 0) // poll stalled reads every 100 µs
        .with_pipeline_budget(2_000_000) // 2 ms per pipeline
        .with_sweep_budget(10_000_000); // 10 ms for the whole sweep
    let gb = GhostBuster::new().with_policy(policy.clone());

    // Sweep 1: the file pipeline times out at its deadline; the other three
    // finish normally and land in the checkpoint.
    let mut checkpoint = SweepCheckpoint::new(&machine);
    let report = gb.inside_sweep_checkpointed(&mut machine, &mut checkpoint)?;
    println!("sweep against a wedged volume handle:");
    println!("  health: {}", report.health);
    println!("  simulated time: {} µs", clock.now_ns() / 1_000);
    println!("  unfinished pipelines: {:?}", checkpoint.unfinished());
    assert!(report.health.registry.is_ok());
    assert!(!report.health.files.is_ok());

    // The checkpoint serializes to JSON — the form a killed sweep leaves on
    // disk for its successor.
    let saved = checkpoint.serialize();
    println!("\ncheckpoint ({} bytes of JSON) saved", saved.len());

    // The operator clears the wedged handle (reboot, new session, …) and a
    // fresh detector resumes from the same checkpoint-aware sweep: only the
    // file pipeline re-runs.
    machine.clear_fault_injector();
    let mut restored = SweepCheckpoint::deserialize(&saved)?;
    let resumed = GhostBuster::new()
        .with_policy(policy)
        .inside_sweep_checkpointed(&mut machine, &mut restored)?;
    println!("\nresumed sweep (files only):");
    println!("  health: {}", resumed.health);
    println!(
        "  hidden files found: {}",
        resumed.files.net_detections().len()
    );
    assert!(resumed.health.is_all_ok());
    assert!(resumed.is_infected());
    assert!(restored.is_complete());
    println!("\nthe stall cost one pipeline one budget — never the sweep");
    Ok(())
}
