//! Fleet bench: a 64-machine seeded fleet swept serially versus on the
//! work-stealing pool at 1/2/4/8 workers.
//!
//! Every machine's volume answers its first reads with `Pending` (a
//! [`Stall`] that drains after a fixed number of polls), so each shard's
//! sweep blocks in real poll sleeps the way a remote desktop's disk does.
//! That is the regime fleet scanning actually lives in — device latency,
//! not scanner CPU — and it is what the pool exploits: workers overlap
//! their shards' device waits, so pool-4 beats the serial loop even on a
//! single-core host where pure CPU work cannot scale.

use std::time::Duration;
use strider_fleet::{DurabilityMode, FleetRegistry, FleetScheduler, FleetSpec};
use strider_ghostbuster::{AdvancedSource, GhostBuster, ScanPolicy};
use strider_support::bench::{Criterion, Throughput};
use strider_support::fault::Stall;
use strider_support::obs::Telemetry;
use strider_support::store::RecordStore;
use strider_support::{criterion_group, criterion_main};
use strider_winapi::FaultInjector;

const MACHINES: u32 = 64;
/// Pending polls per machine before its volume answers; at the policy's
/// 500 µs poll interval this is ~8 ms of device latency per shard.
const DEVICE_POLLS: u32 = 16;

fn detector() -> GhostBuster {
    GhostBuster::new()
        .with_advanced(AdvancedSource::ThreadTable)
        .with_policy(ScanPolicy::supervised().with_poll(500_000, 64))
}

/// Re-arms every machine's device stall; drained stalls are free, so each
/// timed iteration must pay the same per-shard device latency.
fn arm_device_latency(fleet: &mut FleetRegistry) {
    for shard in fleet.machines_mut() {
        shard.machine.set_fault_injector(
            FaultInjector::new().stall_volume_reads(Stall::after_polls(DEVICE_POLLS)),
        );
    }
}

fn bench_fleet_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("fleet_scan");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(1));
    group.sample_size(5);
    group.throughput(Throughput::Elements(u64::from(MACHINES)));

    let spec = FleetSpec::clean(MACHINES, 42).with_infected(16);
    let mut fleet = FleetRegistry::seeded(&spec).expect("fleet seeds");
    let gb = detector();

    // Serial baseline: one supervised sweep per machine on the calling
    // thread, with the same per-shard setup the scheduler performs (fresh
    // breakers via `with_policy`, a telemetry session per shard).
    group.bench_function("serial", |b| {
        b.iter(|| {
            arm_device_latency(&mut fleet);
            let mut infected = 0u64;
            for shard in fleet.machines_mut() {
                let policy = gb.policy().clone();
                let telemetry = Telemetry::with_clock(policy.clock().clone());
                let detector = gb.clone().with_policy(policy).with_telemetry(telemetry);
                let report = detector.inside_sweep(&mut shard.machine).unwrap();
                infected += u64::from(report.is_infected());
            }
            assert_eq!(infected, 16);
            infected
        });
    });

    for workers in [1usize, 2, 4, 8] {
        let scheduler = FleetScheduler::new(detector()).with_workers(workers);
        group.bench_function(format!("pool-{workers}"), |b| {
            b.iter(|| {
                arm_device_latency(&mut fleet);
                let report = scheduler.sweep(&mut fleet).unwrap();
                assert_eq!(report.swept, u64::from(MACHINES));
                assert_eq!(report.infected, 16);
                report.swept
            });
        });
    }

    // Checkpointed sweep: the durable state plane's write-ahead log at
    // pool-4, priced against the in-memory pool-4 run above. Each
    // completed shard appends one framed record (O(1) in the fleet size).
    // A fresh store per iteration keeps every run a cold start — resuming
    // would skip the sweeps entirely.
    let durable_dir =
        std::env::temp_dir().join(format!("strider-bench-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&durable_dir);
    std::fs::create_dir_all(&durable_dir).expect("bench store dir");
    let scheduler = FleetScheduler::new(detector()).with_workers(4);
    let mut run = 0u64;
    group.bench_function("checkpointed-wal", |b| {
        b.iter(|| {
            arm_device_latency(&mut fleet);
            run += 1;
            let path = durable_dir.join(format!("checkpointed-wal-{run}.wal"));
            let store = RecordStore::open(path).expect("bench store");
            let report = scheduler
                .sweep_durable(&mut fleet, &store, DurabilityMode::WalAppend)
                .unwrap();
            assert_eq!(report.swept, u64::from(MACHINES));
            assert_eq!(report.infected, 16);
            report.swept
        });
    });
    let _ = std::fs::remove_dir_all(&durable_dir);
    group.finish();
}

criterion_group!(benches, bench_fleet_scan);
criterion_main!(benches);
