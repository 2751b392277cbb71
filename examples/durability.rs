//! Durable fleet sweeps: kill the process anywhere, resume to the same
//! answer.
//!
//! A fleet sweep journals per-shard progress into a checksummed,
//! generational [`RecordStore`] — one O(1) appended record per completed
//! shard. This example proves the two durability claims end to end and is
//! self-validating (running it green IS the check):
//!
//! 1. **Kill-anywhere resume.** A [`CrashPlan`] kills the journal write
//!    mid-byte-stream; a rerun against the reopened store resumes the
//!    finished shards from disk and sweeps only the rest — and the merged
//!    report's [`FleetReport::result_digest`] is byte-identical to an
//!    uninterrupted run's.
//! 2. **Generation fallback.** A bit flipped inside the newest appended
//!    checkpoint frame fails its checksum on reopen; recovery falls back
//!    to the previous generation instead of panicking or trusting the
//!    damaged bytes.
//!
//! ```sh
//! cargo run --example durability
//! ```

use std::sync::Arc;
use strider_ghostbuster_repro::prelude::*;
use strider_support::fault::CrashPlan;
use strider_support::obs::FakeClock;
use strider_support::store::RecordStore;

fn fleet() -> Result<FleetRegistry, Box<dyn std::error::Error>> {
    Ok(FleetRegistry::seeded(
        &FleetSpec::clean(6, 1811).with_infected(2),
    )?)
}

fn scheduler() -> FleetScheduler {
    let detector = GhostBuster::new()
        .with_advanced(AdvancedSource::ThreadTable)
        .with_policy(
            ScanPolicy::resilient()
                .with_clock(Arc::new(FakeClock::default()))
                .with_poll(100_000, 0)
                .with_pipeline_budget(2_000_000)
                .with_sweep_budget(10_000_000),
        );
    // One worker, one-shard batches: the journal's write order is
    // deterministic, so the crash below lands at a reproducible point.
    FleetScheduler::new(detector).with_workers(1).with_batch(1)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("strider-durability-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;

    // ------------------------------------------------------------------
    // Act 1 — the reference run: uninterrupted, journaled, measured.
    // ------------------------------------------------------------------
    let plan = Arc::new(CrashPlan::never());
    let store = RecordStore::open(dir.join("reference.wal"))?.with_crash_plan(plan.clone());
    let reference = scheduler().sweep_durable(&mut fleet()?, &store, DurabilityMode::WalAppend)?;
    assert_eq!(reference.swept, 6);
    assert_eq!(reference.infected, 2);
    let reference_digest = reference.result_digest();
    let journal_bytes = plan.written();
    println!(
        "reference sweep: {} machines, {} infected, {journal_bytes} journal bytes",
        reference.machines, reference.infected
    );

    // ------------------------------------------------------------------
    // Act 2 — kill the journal two-thirds of the way through, then
    // restart: fresh fleet, reopened store, same call.
    // ------------------------------------------------------------------
    let path = dir.join("killed.wal");
    let store = RecordStore::open(&path)?
        .with_crash_plan(Arc::new(CrashPlan::at_write_byte(journal_bytes * 2 / 3)));
    let err = scheduler()
        .sweep_durable(&mut fleet()?, &store, DurabilityMode::WalAppend)
        .expect_err("the injected crash must surface");
    assert!(err.is_injected_crash(), "unexpected failure: {err}");
    println!(
        "killed mid-journal at byte {}: {err}",
        journal_bytes * 2 / 3
    );

    let store = RecordStore::open(&path)?; // reopen repairs any torn tail
    let resumed = scheduler().sweep_durable(&mut fleet()?, &store, DurabilityMode::WalAppend)?;
    let restored = resumed
        .results()
        .iter()
        .filter(|r| r.disposition == ShardDisposition::Restored)
        .count();
    assert!(restored > 0, "the journal must have saved some shards");
    assert_eq!(resumed.result_digest(), reference_digest);
    println!(
        "resumed: {restored} shards restored from the journal, {} re-swept — digest identical",
        resumed.machines as usize - restored
    );

    // ------------------------------------------------------------------
    // Act 3 — flip one bit in the newest appended frame: recovery falls
    // back a generation instead of panicking.
    // ------------------------------------------------------------------
    let cp_path = dir.join("checkpoint.store");
    let store = RecordStore::open(&cp_path)?;
    store.append(b"generation-one")?;
    store.append(b"generation-two")?;
    let newest_offset = store.recover()?.latest().expect("two generations").offset;
    let mut bytes = std::fs::read(&cp_path)?;
    bytes[newest_offset as usize + 30] ^= 0x10; // one bit, inside the payload
    std::fs::write(&cp_path, &bytes)?;

    let recovered = RecordStore::open(&cp_path)?.recover()?;
    assert_eq!(recovered.records.len(), 1, "gen 2 must be distrusted");
    assert_eq!(recovered.records[0].payload, b"generation-one");
    println!(
        "bit flip detected: fell back to generation {} (\"{}\")",
        recovered.records[0].generation,
        String::from_utf8_lossy(&recovered.records[0].payload)
    );

    let _ = std::fs::remove_dir_all(&dir);
    println!("OK");
    Ok(())
}
