//! Timing bench (Section 2): the hidden-file scan's three phases — the
//! high-level API walk, the low-level MFT parse (also split into the
//! substrate's volume capture and the detector's parse), and the diff —
//! across machine sizes. The paper's wall-clock numbers scale with disk
//! size; the throughput measured here feeds the cost model's per-entry
//! constants.

use std::time::Duration;
use strider_bench::victim_machine_sized;
use strider_ghostbuster::{FileScanner, GhostBuster};
use strider_support::bench::{report_dir, BatchSize, Criterion, Throughput};
use strider_support::obs::Telemetry;
use strider_support::{criterion_group, criterion_main};
use strider_winapi::{ChainEntry, DiskImage};
use strider_workload::WorkloadSpec;

fn bench_file_scans(c: &mut Criterion) {
    let mut group = c.benchmark_group("file_scan");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(10);
    for (label, spec) in [
        ("small-300", WorkloadSpec::small(42)),
        ("medium-3k", WorkloadSpec::medium(42)),
        ("large-30k", WorkloadSpec::large(42)),
        // Ten times `large`: with the three tiers below it, the curve
        // shows each phase's complexity class.
        (
            "huge-300k",
            WorkloadSpec {
                file_count: 300_000,
                dir_count: 15_000,
                ..WorkloadSpec::large(42)
            },
        ),
    ] {
        let mut machine = victim_machine_sized(&spec).expect("machine builds");
        let gb = GhostBuster::new();
        let ctx = gb.enter(&mut machine).expect("context");
        let scanner = FileScanner::new();
        let files = machine.volume().record_count() as u64;
        group.throughput(Throughput::Elements(files));

        group.bench_function(format!("{label}/high_scan"), |b| {
            b.iter(|| {
                scanner
                    .high_scan(&machine, &ctx, ChainEntry::Win32)
                    .unwrap()
            });
        });
        group.bench_function(format!("{label}/low_scan_mft_parse"), |b| {
            b.iter(|| scanner.low_scan(&machine).unwrap());
        });
        // `low_scan_mft_parse` split by layer: the substrate serialising
        // the volume to its raw image, then the detector parsing an image
        // captured once (not via `snapshot_disk`, which persists hives and
        // would change the machine the other rows time).
        group.bench_function(format!("{label}/volume_capture"), |b| {
            b.iter(|| machine.try_read_raw_volume_image().unwrap());
        });
        let image = DiskImage {
            machine_name: label.to_string(),
            taken_at: machine.now(),
            volume_image: machine.try_read_raw_volume_image().unwrap(),
            hives: Vec::new(),
        };
        group.bench_function(format!("{label}/truth_from_image"), |b| {
            b.iter(|| scanner.outside_scan(&image).unwrap());
        });
        let high = scanner
            .high_scan(&machine, &ctx, ChainEntry::Win32)
            .unwrap();
        let low = scanner.low_scan(&machine).unwrap();
        group.bench_function(format!("{label}/diff"), |b| {
            b.iter(|| scanner.diff(&low, &high));
        });
        group.bench_function(format!("{label}/end_to_end"), |b| {
            b.iter_batched(
                || (),
                |()| scanner.scan_inside(&machine, &ctx).unwrap(),
                BatchSize::SmallInput,
            );
        });

        // One instrumented pass: per-phase durations for the report JSON,
        // plus a Chrome trace of the same pass (open in Perfetto) with the
        // per-directory query-latency sketch inside the telemetry export.
        let telemetry = Telemetry::new();
        FileScanner::new()
            .with_telemetry(telemetry.clone())
            .scan_inside(&machine, &ctx)
            .unwrap();
        let report = telemetry.report();
        report
            .write_chrome_trace_in(&report_dir(), &format!("file_scan_{label}"))
            .expect("trace export");
        group.record_phases(label, &report);
    }
    group.finish();
}

criterion_group!(benches, bench_file_scans);
criterion_main!(benches);
