//! Telemetry: run a full instrumented sweep, print the span tree with
//! per-phase timings, and export the structured report as JSON.
//!
//! ```sh
//! cargo run --example telemetry
//! ```

use strider_ghostbuster_repro::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut machine = standard_lab_machine("telemetry-box", &WorkloadSpec::small(7), false)?;
    HackerDefender::default().infect(&mut machine)?;

    // One Telemetry registry threads through every scanner in the sweep.
    let telemetry = Telemetry::new();
    let sweep = GhostBuster::new()
        .with_telemetry(telemetry.clone())
        .inside_sweep(&mut machine)?;
    println!(
        "sweep: {} suspicious, {} noise\n",
        sweep.suspicious_count(),
        sweep.noise_count()
    );

    // The span tree: every scan phase with duration and attributes, down to
    // the hook-chain level at which the high-level view diverged.
    let report = sweep.telemetry.as_ref().expect("telemetry attached");
    print!("{}", report.render_tree());

    // Counters: per-pipeline, per-view entry counts. The low-level views
    // seeing *more* entries than the high-level ones is the detection.
    println!();
    for (name, value) in &report.counters {
        println!("{name} = {value}");
    }

    // Export the whole report as JSON (SCAN_TELEMETRY_<label>.json in the
    // current directory, or $STRIDER_BENCH_DIR when set).
    let path = report.write_json_in(&strider_support::bench::report_dir(), "inside_sweep")?;
    println!("\ntelemetry report written to {}", path.display());
    Ok(())
}
