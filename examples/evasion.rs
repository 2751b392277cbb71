//! The adversarial arms race, end to end: a scan-aware flickering rootkit
//! defeats a naive stabilized sweep, then a hardened monitor — randomized
//! scan order, decoy queries, quorum diffing — catches it and raises an
//! `EvasionSuspected` incident with flight-recorder evidence.
//!
//! Self-validating and headless: every step asserts its expected outcome,
//! so CI can run it as a smoke test:
//!
//! ```sh
//! cargo run --example evasion
//! ```

use std::sync::Arc;
use strider_ghostbuster_repro::prelude::*;
use strider_support::obs::FakeClock;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The adversary: hides its file pair, Run-key entry, and process —
    // but only intermittently. Each resource stays visible for its first
    // 12 appearances (outlasting any naive sweep), then vanishes on a
    // seeded coin flip per appearance, so no two scan passes see the
    // same lie.
    let tactic = EvasiveTactic::FlickerHiding {
        seed: 41,
        grace: 12,
    };
    let mut machine = Machine::with_base_system("arms-race-box")?;
    let rootkit = EvasiveGhostware::new(tactic);
    rootkit.infect(&mut machine)?;
    println!("installed {}", rootkit.name());

    // Round 1 — the naive detector. Stabilization re-runs a diff until
    // two consecutive passes agree; with every resource still inside its
    // grace allowance, the passes agree on "nothing hidden".
    let naive = GhostBuster::new()
        .with_policy(ScanPolicy::resilient())
        .inside_sweep(&mut machine)?;
    println!(
        "naive stabilized sweep: {} suspicious — the rootkit wins round 1",
        naive.suspicious_count()
    );
    assert!(
        !naive.is_infected(),
        "the flicker tactic must defeat the naive sweep"
    );

    // Round 2 — the hardened monitor on a fresh copy of the same
    // machine state. Quorum passes and decoy queries burn through the
    // grace; the appear-and-vanish pattern becomes Flickering findings,
    // the `evasion_suspected` built-in rule fires, and typed incidents
    // ship the flight-recorder evidence. No baseline needed: an unstable
    // lie is evidence on its own.
    let mut machine = Machine::with_base_system("arms-race-box")?;
    let rootkit = EvasiveGhostware::new(tactic);
    rootkit.infect(&mut machine)?;
    let clock = Arc::new(FakeClock::default());
    let policy = ScanPolicy::hardened().with_clock(clock);
    let mut monitor = SweepMonitor::new(GhostBuster::new().with_policy(policy));
    let observation = monitor.observe(&mut machine)?;

    println!(
        "hardened sweep: {} suspicious, flicker score {}",
        observation.report.suspicious_count(),
        observation.report.flicker_score()
    );
    assert!(
        observation.report.is_infected(),
        "the hardened sweep must catch the flickering rootkit"
    );
    assert!(
        monitor.core.engine().is_firing("evasion_suspected"),
        "the built-in evasion rule must fire"
    );

    let evasion: Vec<_> = observation
        .incidents
        .iter()
        .filter(|i| matches!(i, MonitorIncident::EvasionSuspected { .. }))
        .collect();
    assert!(!evasion.is_empty(), "typed incidents must be raised");
    println!("\nincidents:");
    for incident in &evasion {
        println!("  {incident}");
        println!("    evidence: {} flight events", incident.flight().len());
    }

    // The rootkit's own sensors confirm the duel actually happened: it
    // observed the scans and suppressed rows along the way.
    let sense = rootkit.sense();
    println!(
        "\nadversary sensors: {} queries observed, {} rows flicker-hidden, scanner seen: {}",
        sense.queries_observed, sense.flicker_hides, sense.scanner_seen
    );
    assert!(sense.queries_observed > 0 && sense.flicker_hides > 0);

    println!("\nthe arms race ends where the paper says: the detector that");
    println!("randomizes, decoys, and counts votes cannot be sensed around.");
    Ok(())
}
