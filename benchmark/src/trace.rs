//! The traced run: each op replayed as its layers' public calls, every call
//! wrapped in a span on a [`Telemetry`] the benchmark owns and never hands
//! to the detector.
//!
//! A traced op has four parts, each a root span:
//!
//! 1. `bench.op` — the real op, untraced inside, as the timed run runs it;
//! 2. `bench.replay` — the same op as the public calls it is made of:
//!    scans, diffs and captures, wrapped in the policy's own
//!    [`ScanPolicy::quorum_diff`] exactly as the sweep wraps them, on the
//!    same machine state (or a rebuild of it where the workload rebuilds);
//! 3. `bench.decompose` — one pass of each scan's substrate work repeated
//!    on its own (the enumeration queries a high scan issued, the raw reads
//!    and parses a low scan did), scaled by the pass counts the replay saw,
//!    so substrate time is never charged to the detector;
//! 4. `bench.<knob>.{off,on}` — the op's sweep with one shell knob toggled
//!    (evasion hardening, an attached detector telemetry, a device stall),
//!    for the shell's ratios; every third traced op.
//!
//! Allocation counts are the spans' own: the counting allocator charges
//! each span with what its opening thread allocated, and the replay and
//! decomposition run on one thread that spawns nothing. Whole sweeps,
//! whose pipelines run on other threads, are only ever timed, never
//! counted.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use strider_fleet::{FleetCheckpoint, FleetControl, FleetRegistry, FleetScheduler};
use strider_ghostbuster::{
    DiffReport, EvasionHardening, FileFact, FileScanner, GhostBuster, ModuleFact,
    OutsideRegistryMode, ProcessFact, ProcessScanner, RegistryScanner, ScanMeta, ScanPolicy,
    Snapshot, ViewKind,
};
use strider_hive::prelude::AsepKind;
use strider_hive::RawHive;
use strider_kernel::MemoryDump;
use strider_nt_core::{NtPath, NtStatus};
use strider_ntfs::VolumeImage;
use strider_support::fault::Stall;
use strider_support::json::JsonValue;
use strider_support::obs::{Clock, MonotonicClock, SpanRecord, Telemetry, TelemetryReport};
use strider_support::task::Supervision;
use strider_winapi::{CallContext, ChainEntry, DiskImage, FaultInjector, Machine, Query, Row};

use crate::run::{verdicts_correct, warm_up, Budget, Metric, Outcome};
use crate::spec::{Layer, PER_LAYER};
use crate::stats::median;
use crate::verdict::{score, Tally};
use crate::workloads::{
    arm_fleet, arm_stall, score_fleet, sweep_fleet, Bench, BenchError, Workload, FLEET_WORKERS,
    REBOOT_TICKS, STALL_POLLS,
};

/// The traced run fails when the attributed parts of an op exceed the
/// whole by more than this share: the parts must never exceed the whole.
pub const MIN_UNATTRIBUTED_FRAC: f64 = -0.05;

/// The attribution check needs this many pairs of real op and replay for
/// their median to shed host interference; a shorter traced run reports
/// its coverage unchecked.
pub const MIN_CHECKED_OPS: u64 = 5;

/// Replay spans that stand for one public layer call of the op. None of
/// them nests inside another, so their durations add up.
const ATTRIBUTED: [&str; 15] = [
    "core.ghostbuster.enter",
    "core.files.high_scan",
    "core.files.truth_scan",
    "core.diff.files",
    "core.registry.high_scan",
    "core.registry.truth_scan",
    "core.diff.registry",
    "core.process.high_scan",
    "core.process.truth_scan",
    "core.diff.processes",
    "core.process.module_scan",
    "core.diff.modules",
    "winapi.capture.dump",
    "winapi.capture.disk",
    "winapi.reboot",
];

/// Metrics written to `layers_<workload>.json` only, with their units and
/// layers: some exist on one workload alone, so they cannot be per-layer
/// metrics that every traced run reports.
const EXTRAS: [(&str, &str, Layer); 12] = [
    ("core.policy.diff_passes", "count", Layer::Shell),
    ("core.files.truth_wait_ms", "ms", Layer::Shell),
    ("core.files.entries", "count", Layer::Detector),
    ("core.diff.net_detections", "count", Layer::Diff),
    ("core.diff.noise_detections", "count", Layer::Diff),
    ("kernel.dump_parse_ms", "ms", Layer::Substrate),
    ("winapi.reboot_ms", "ms", Layer::Substrate),
    ("fleet.scheduler.busy_frac", "ratio", Layer::Shell),
    ("fleet.scheduler.first_verdict_ms", "ms", Layer::Shell),
    ("fleet.scheduler.last_verdict_ms", "ms", Layer::Shell),
    ("fleet.durable.journal_ms", "ms", Layer::Shell),
    ("fleet.durable.store_bytes", "bytes", Layer::Shell),
];

/// How many diff passes each pipeline ran on one machine.
#[derive(Debug, Clone, Copy, Default)]
struct Passes {
    files: u64,
    registry: u64,
    processes: u64,
    modules: u64,
}

/// What the replay of one machine left for its decomposition.
#[derive(Debug, Default)]
struct MachineTrace {
    passes: Passes,
    ctx: Option<CallContext>,
    /// Enumeration calls the replay's high scans recorded.
    api_calls: u64,
    /// Bytes the op captured from the machine, all passes.
    image_bytes: u64,
    /// Entries of the last file truth snapshot.
    file_entries: u64,
    /// Net and noise detections of the pipelines' final diff reports.
    net_detections: u64,
    noise_detections: u64,
    files_lie: Option<Snapshot<FileFact>>,
    process_lie: Option<Snapshot<ProcessFact>>,
    image: Option<DiskImage>,
}

impl MachineTrace {
    /// Counts the detections of a pipeline's final diff report.
    fn count(&mut self, report: &DiffReport) {
        self.net_detections += report.net_detections().len() as u64;
        self.noise_detections += report.noise_detections().len() as u64;
    }
}

/// What one traced op produced besides its span tree.
#[derive(Debug, Default)]
struct OpTrace {
    tally: Tally,
    machines: Vec<MachineTrace>,
    /// Fleet only: WAL bytes of the real op, and when the first and last
    /// verdicts of a streaming sweep arrived, in ns after it started.
    store_bytes: u64,
    first_verdict_ns: u64,
    last_verdict_ns: u64,
}

fn span<T>(tel: &Telemetry, name: &str, call: impl FnOnce() -> T) -> T {
    let _span = tel.span(name);
    call()
}

fn corrupt(e: impl std::fmt::Display) -> NtStatus {
    NtStatus::CorruptStructure(e.to_string())
}

fn parse_volume(policy: &ScanPolicy, bytes: &[u8]) -> Result<VolumeImage, NtStatus> {
    if policy.salvage {
        Ok(VolumeImage::parse_salvage(bytes).value)
    } else {
        VolumeImage::parse(bytes).map_err(corrupt)
    }
}

fn parse_hive(policy: &ScanPolicy, bytes: &[u8]) -> Result<RawHive, NtStatus> {
    if policy.salvage {
        Ok(RawHive::parse_salvage(bytes).value)
    } else {
        RawHive::parse(bytes).map_err(corrupt)
    }
}

fn parse_dump(policy: &ScanPolicy, bytes: &[u8]) -> Result<MemoryDump, NtStatus> {
    if policy.salvage {
        Ok(MemoryDump::parse_salvage(bytes).value)
    } else {
        MemoryDump::parse(bytes).map_err(corrupt)
    }
}

/// Replays one inside sweep of `machine` as its pipelines' public calls,
/// in the order and with the quorum the sweep uses.
fn replay_inside(
    tel: &Telemetry,
    workload: Workload,
    policy: &ScanPolicy,
    machine: &mut Machine,
) -> Result<MachineTrace, NtStatus> {
    let _machine_span = tel.span("bench.machine");
    let detector = workload.detector_with(policy.clone());
    let ctx = span(tel, "core.ghostbuster.enter", || detector.enter(machine))?;
    let machine = &*machine;
    let mut trace = MachineTrace::default();
    let mut order = ["files", "registry", "processes", "modules"];
    if let Some(hardening) = policy.hardening {
        hardening.stream("pipeline-order").shuffle(&mut order);
    }
    for pipeline in order {
        let _quorum = tel.span("core.policy.quorum_diff");
        match pipeline {
            "files" => {
                let scanner = FileScanner::new().with_policy(policy.clone());
                let report = policy.quorum_diff(|| {
                    trace.passes.files += 1;
                    let lie = span(tel, "core.files.high_scan", || {
                        scanner.high_scan(machine, &ctx, ChainEntry::Win32)
                    })?;
                    let truth = span(tel, "core.files.truth_scan", || scanner.low_scan(machine))?;
                    trace.api_calls += lie.meta.io.api_calls;
                    trace.file_entries = truth.len() as u64;
                    // The diff span also releases the pass's snapshots,
                    // as the pipeline does when its pass returns.
                    Ok::<_, NtStatus>(span(tel, "core.diff.files", || {
                        let report = scanner.diff(&truth, &lie);
                        drop(truth);
                        trace.files_lie = Some(lie);
                        report
                    }))
                })?;
                trace.count(&report);
            }
            "registry" => {
                let scanner = RegistryScanner::new().with_policy(policy.clone());
                let report = policy.quorum_diff(|| {
                    trace.passes.registry += 1;
                    let lie = span(tel, "core.registry.high_scan", || {
                        scanner.high_scan(machine, &ctx, ChainEntry::Win32)
                    });
                    let truth = span(tel, "core.registry.truth_scan", || {
                        scanner.low_scan(machine)
                    })?;
                    trace.api_calls += lie.meta.io.api_calls;
                    Ok::<_, NtStatus>(span(tel, "core.diff.registry", || {
                        scanner.diff(&truth, &lie)
                    }))
                })?;
                trace.count(&report);
            }
            "processes" => {
                let scanner = ProcessScanner::new();
                let report = policy.quorum_diff(|| {
                    trace.passes.processes += 1;
                    let lie = span(tel, "core.process.high_scan", || {
                        scanner.high_scan(machine, &ctx, ChainEntry::Win32)
                    })?;
                    let truth = span(tel, "core.process.truth_scan", || {
                        match workload.advanced() {
                            Some(source) => scanner.low_scan_advanced(machine, source),
                            None => scanner.low_scan_apl(machine),
                        }
                    });
                    trace.api_calls += lie.meta.io.api_calls;
                    Ok::<_, NtStatus>(span(tel, "core.diff.processes", || {
                        let report = scanner.diff(&truth, &lie);
                        drop(truth);
                        trace.process_lie = Some(lie);
                        report
                    }))
                })?;
                trace.count(&report);
            }
            _ => {
                let scanner = ProcessScanner::new();
                let report = policy.quorum_diff(|| {
                    trace.passes.modules += 1;
                    let (lie, truth) = span(tel, "core.process.module_scan", || {
                        let lie = scanner.high_module_scan(machine, &ctx, ChainEntry::Win32)?;
                        let visible = scanner.high_scan(machine, &ctx, ChainEntry::Win32)?;
                        Ok::<_, NtStatus>((lie, scanner.low_module_scan(machine, &visible)))
                    })?;
                    // Two process listings ride along with the module
                    // listings the module view records.
                    trace.api_calls += lie.meta.io.api_calls + 2;
                    Ok::<_, NtStatus>(span(tel, "core.diff.modules", || {
                        scanner.diff_modules(&truth, &lie)
                    }))
                })?;
                trace.count(&report);
            }
        }
    }
    trace.ctx = Some(ctx);
    Ok(trace)
}

/// Replays the WinPE outside flow (single capture, as the strict policy
/// runs it) as its public calls.
fn replay_outside(
    tel: &Telemetry,
    workload: Workload,
    policy: &ScanPolicy,
    machine: &mut Machine,
) -> Result<MachineTrace, NtStatus> {
    debug_assert!(
        policy.hardening.is_none(),
        "the replay mirrors a single capture"
    );
    let _machine_span = tel.span("bench.machine");
    let detector = workload.detector_with(policy.clone());
    let ctx = span(tel, "core.ghostbuster.enter", || detector.enter(machine))?;
    let files = FileScanner::new().with_policy(policy.clone());
    let registry = RegistryScanner::new().with_policy(policy.clone());
    let processes = ProcessScanner::new();
    let file_lie = span(tel, "core.files.high_scan", || {
        files.high_scan(machine, &ctx, ChainEntry::Win32)
    })?;
    let hook_lie = span(tel, "core.registry.high_scan", || {
        registry.high_scan(machine, &ctx, ChainEntry::Win32)
    });
    let proc_lie = span(tel, "core.process.high_scan", || {
        processes.high_scan(machine, &ctx, ChainEntry::Win32)
    })?;
    let module_lie = span(tel, "core.process.module_scan", || {
        processes.high_module_scan(machine, &ctx, ChainEntry::Win32)
    })?;
    let dump_bytes = span(tel, "winapi.capture.dump", || {
        policy.supervised_retry(&Supervision::unsupervised(), || machine.try_crash_dump())
    })?;
    span(tel, "winapi.reboot", || machine.tick(REBOOT_TICKS));
    let image = span(tel, "winapi.capture.disk", || machine.snapshot_disk())?;
    let file_truth = span(tel, "core.files.truth_scan", || files.outside_scan(&image))?;
    let hook_truth = span(tel, "core.registry.truth_scan", || {
        registry.outside_scan(&image, OutsideRegistryMode::MountedWin32)
    })?;
    let (dump, proc_truth) = span(tel, "core.process.truth_scan", || {
        let dump = span(tel, "kernel.parse", || parse_dump(policy, &dump_bytes))?;
        let truth = processes.outside_scan(&dump, workload.advanced().is_some());
        Ok::<_, NtStatus>((dump, truth))
    })?;
    // The outside module truth: the dump's kernel-side module lists for
    // the processes the high-level view could see, keyed as the sweep
    // keys them.
    let module_truth = span(tel, "core.process.module_scan", || {
        let mut truth = Snapshot::new(ScanMeta::new(ViewKind::OutsideDump, image.taken_at));
        for (_, seen) in proc_lie.iter() {
            let Some(process) = dump.process(seen.pid) else {
                continue;
            };
            for module in &process.kernel_modules {
                let name = module.name.to_win32_lossy();
                truth.insert(
                    format!("pid:{}|{}", seen.pid.0, name.to_ascii_lowercase()),
                    ModuleFact {
                        pid: seen.pid,
                        process_name: seen.image_name.clone(),
                        module: name,
                        path: module.path.to_win32_lossy(),
                    },
                );
            }
        }
        truth
    });
    let reports = [
        span(tel, "core.diff.files", || {
            files.diff(&file_truth, &file_lie)
        }),
        span(tel, "core.diff.registry", || {
            registry.diff(&hook_truth, &hook_lie)
        }),
        span(tel, "core.diff.processes", || {
            processes.diff(&proc_truth, &proc_lie)
        }),
        span(tel, "core.diff.modules", || {
            processes.diff_modules(&module_truth, &module_lie)
        }),
    ];
    let image_bytes = dump_bytes.len()
        + image.volume_image.len()
        + image.hives.iter().map(|(_, b)| b.len()).sum::<usize>();
    let mut trace = MachineTrace {
        passes: Passes {
            files: 1,
            registry: 1,
            processes: 1,
            modules: 1,
        },
        ctx: Some(ctx),
        api_calls: file_lie.meta.io.api_calls
            + hook_lie.meta.io.api_calls
            + proc_lie.meta.io.api_calls
            + module_lie.meta.io.api_calls
            + 1,
        image_bytes: image_bytes as u64,
        file_entries: file_truth.len() as u64,
        files_lie: Some(file_lie),
        process_lie: Some(proc_lie),
        image: Some(image),
        ..MachineTrace::default()
    };
    for report in &reports {
        trace.count(report);
    }
    Ok(trace)
}

/// Issues the enumeration queries of one pass of each high scan again,
/// each pipeline's under its own span.
fn replay_queries(
    tel: &Telemetry,
    machine: &Machine,
    ctx: &CallContext,
    trace: &MachineTrace,
) -> Result<(), NtStatus> {
    let entry = ChainEntry::Win32;
    let lie = trace
        .files_lie
        .as_ref()
        .expect("the replay keeps the files lie");
    let mut dirs = vec![Query::DirectoryEnum {
        path: NtPath::root_of(machine.volume().label()),
    }];
    for (_, fact) in lie.iter().filter(|(_, f)| f.is_dir) {
        dirs.push(Query::DirectoryEnum {
            path: fact.path.parse().map_err(|_| NtStatus::ObjectNameInvalid)?,
        });
    }
    span(tel, "winapi.query.files", || {
        for query in &dirs {
            let _ = machine.query(ctx, query, entry);
        }
    });
    // The ASEP walk: probe each catalog key, then list it the way its
    // layout demands.
    let registry = RegistryScanner::new();
    span(tel, "winapi.query.registry", || {
        for location in registry.catalog() {
            let key = &location.key_path;
            let values = Query::RegEnumValues { key: key.clone() };
            if machine.query(ctx, &values, entry).is_err() {
                continue;
            }
            match &location.kind {
                AsepKind::SubkeyPerEntry { target_value } => {
                    let subkeys = machine
                        .query(ctx, &Query::RegEnumKeys { key: key.clone() }, entry)
                        .unwrap_or_default();
                    if target_value.is_some() {
                        for row in subkeys {
                            if let Row::RegKey(sub) = row {
                                let _ = machine.query(
                                    ctx,
                                    &Query::RegEnumValues {
                                        key: key.join(sub.name),
                                    },
                                    entry,
                                );
                            }
                        }
                    }
                }
                _ => {
                    let _ = machine.query(ctx, &values, entry);
                }
            }
        }
    });
    span(tel, "winapi.query.processes", || {
        let _ = machine.query(ctx, &Query::ProcessList, entry);
    });
    let processes = trace
        .process_lie
        .as_ref()
        .expect("the replay keeps the process lie");
    let mut modules = vec![Query::ProcessList, Query::ProcessList];
    modules.extend(
        processes
            .iter()
            .map(|(_, p)| Query::ModuleList { pid: p.pid }),
    );
    span(tel, "winapi.query.modules", || {
        for query in &modules {
            let _ = machine.query(ctx, query, entry);
        }
    });
    Ok(())
}

/// One pass of a machine's substrate work on its own: the queries, and for
/// inside sweeps the raw captures and their parses (outside sweeps
/// captured in the replay; only their parses repeat here).
fn decompose(
    tel: &Telemetry,
    policy: &ScanPolicy,
    machine: &Machine,
    trace: &mut MachineTrace,
) -> Result<(), NtStatus> {
    let _machine_span = tel.span("bench.machine");
    let ctx = trace.ctx.clone().expect("the replay entered the machine");
    replay_queries(tel, machine, &ctx, trace)?;
    if let Some(image) = &trace.image {
        span(tel, "ntfs.parse", || {
            parse_volume(policy, &image.volume_image).map(drop)
        })?;
        return span(tel, "hive.parse", || {
            image
                .hives
                .iter()
                .try_for_each(|(_, bytes)| parse_hive(policy, bytes).map(drop))
        });
    }
    let unsupervised = Supervision::unsupervised();
    let volume = span(tel, "winapi.capture.volume", || {
        policy.supervised_retry(&unsupervised, || machine.try_read_raw_volume_image())
    })?;
    span(tel, "ntfs.parse", || {
        parse_volume(policy, &volume).map(drop)
    })?;
    let hives = span(tel, "winapi.capture.hives", || {
        machine
            .registry()
            .hives()
            .iter()
            .map(|hive| {
                policy.supervised_retry(&unsupervised, || machine.try_copy_hive_bytes(hive.mount()))
            })
            .collect::<Result<Vec<_>, _>>()
    })?;
    span(tel, "hive.parse", || {
        hives
            .iter()
            .try_for_each(|bytes| parse_hive(policy, bytes).map(drop))
    })?;
    let hive_bytes: usize = hives.iter().map(Vec::len).sum();
    trace.image_bytes +=
        trace.passes.files * volume.len() as u64 + trace.passes.registry * hive_bytes as u64;
    Ok(())
}

/// Arms the stall the poll experiment pays for: on the dump read for the
/// outside flow, on the volume read for inside sweeps.
fn arm_experiment_stall(workload: Workload, machine: &mut Machine) {
    if workload == Workload::OutsideWinpe {
        machine.set_fault_injector(
            FaultInjector::new().stall_dump_reads(Stall::after_polls(STALL_POLLS)),
        );
    } else {
        arm_stall(machine);
    }
}

/// Sweeps op `index`'s machine (a rebuild where the workload rebuilds)
/// under `detector` inside a span named `name`.
fn machine_sweep(
    tel: &Telemetry,
    name: &str,
    bench: &mut Bench,
    index: u64,
    detector: &GhostBuster,
    stall: bool,
) -> Result<(), BenchError> {
    let workload = bench.workload;
    let mut case = span(tel, "bench.build", || bench.case_for(index))?;
    let machine = &mut case.get().machine;
    if stall {
        arm_experiment_stall(workload, machine);
    }
    let swept = span(tel, name, || workload.sweep(detector, machine));
    machine.clear_fault_injector();
    swept?;
    Ok(())
}

/// The shell experiments of a single-machine workload: each knob off,
/// then on, on op `index`'s input.
fn machine_experiments(tel: &Telemetry, bench: &mut Bench, index: u64) -> Result<(), BenchError> {
    let workload = bench.workload;
    let policy = workload.policy();
    let polled = policy.clone().with_poll(500_000, 64);
    let runs = [
        (
            "bench.quorum.off",
            workload.detector_with(policy.clone().with_hardening(None)),
            false,
        ),
        (
            "bench.quorum.on",
            workload.detector_with(
                policy
                    .clone()
                    .with_hardening(Some(EvasionHardening::default())),
            ),
            false,
        ),
        (
            "bench.telemetry.off",
            workload.detector_with(policy.clone()),
            false,
        ),
        (
            "bench.telemetry.on",
            workload
                .detector_with(policy)
                .with_telemetry(Telemetry::new()),
            false,
        ),
        (
            "bench.stall.off",
            workload.detector_with(polled.clone()),
            false,
        ),
        ("bench.stall.on", workload.detector_with(polled), true),
    ];
    for (name, detector, stall) in runs {
        machine_sweep(tel, name, bench, index, &detector, stall)?;
    }
    Ok(())
}

/// Runs `work` where `workload`'s sweep runs its pipelines: inline for the
/// outside flow, which sweeps on the calling thread, and on a fresh scoped
/// thread otherwise, as an inside sweep runs each pipeline. The same
/// thread placement and allocator state make the replayed parts
/// comparable with the whole.
fn like_the_sweep<T: Send>(workload: Workload, work: impl FnOnce() -> T + Send) -> T {
    if workload == Workload::OutsideWinpe {
        return work();
    }
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .name("bench-replay".to_string())
            .spawn_scoped(scope, work)
            .expect("spawn the replay thread")
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    })
}

/// Whether op `index` runs its real op before its replay. Alternating
/// the order makes a drift in host speed within a traced op cancel out
/// over the run instead of always favouring one side.
fn real_op_first(index: u64) -> bool {
    index.is_multiple_of(2)
}

/// One traced op of a single-machine workload, with the shell experiments
/// when `experiments` is set.
fn machine_traced_op(
    tel: &Telemetry,
    bench: &mut Bench,
    experiments: bool,
) -> Result<OpTrace, BenchError> {
    let workload = bench.workload;
    let policy = workload.policy();
    let index = bench.ops;
    bench.ops += 1;
    let mut op = OpTrace::default();
    let first = real_op_first(index);
    for real in [first, !first] {
        let mut case = span(tel, "bench.build", || bench.case_for(index))?;
        let case = case.get();
        if real {
            let detector = workload.detector_with(policy.clone());
            let report = span(tel, "bench.op", || {
                workload.sweep(&detector, &mut case.machine)
            });
            op.tally = score(report.as_ref().ok(), Some(&case.truth), false);
            continue;
        }
        let machine = &mut case.machine;
        let trace = like_the_sweep(workload, || {
            let mut trace = span(tel, "bench.replay", || match workload {
                Workload::OutsideWinpe => replay_outside(tel, workload, &policy, machine),
                _ => replay_inside(tel, workload, &policy, machine),
            })?;
            span(tel, "bench.decompose", || {
                decompose(tel, &policy, machine, &mut trace)
            })?;
            Ok::<_, NtStatus>(trace)
        })?;
        op.machines.push(trace);
    }
    if experiments {
        machine_experiments(tel, bench, index)?;
    }
    Ok(op)
}

/// Sweeps the re-armed fleet into a fresh WAL inside a span named `name`.
fn fleet_sweep(
    tel: &Telemetry,
    name: &str,
    bench: &mut Bench,
    policy: ScanPolicy,
) -> Result<(), BenchError> {
    let store = bench.work.fresh_store()?;
    let path = store.path().to_path_buf();
    let fleet = bench.fleet().expect("fleet workload holds a fleet");
    arm_fleet(fleet);
    let swept = span(tel, name, || sweep_fleet(fleet, policy, &store));
    drop(store);
    let _ = std::fs::remove_file(path);
    swept.map_err(|e| BenchError::Check(format!("fleet experiment sweep failed: {e}")))?;
    Ok(())
}

/// Sweeps every shard serially on the calling thread, as the scheduler
/// sweeps one shard, with or without a per-shard detector telemetry.
fn serial_shards(
    tel: &Telemetry,
    name: &str,
    fleet: &mut FleetRegistry,
    telemetry: bool,
) -> Result<(), NtStatus> {
    let workload = Workload::FleetStalled;
    let policy = workload.policy();
    span(tel, name, || {
        for shard in fleet.machines_mut() {
            let detector = workload.detector_with(policy.clone());
            let detector = if telemetry {
                detector.with_telemetry(Telemetry::with_clock(policy.clock().clone()))
            } else {
                detector
            };
            detector.inside_sweep(&mut shard.machine)?;
        }
        Ok(())
    })
}

/// One traced op of `fleet-stalled`, with the shell experiments when
/// `experiments` is set.
fn fleet_traced_op(
    tel: &Telemetry,
    bench: &mut Bench,
    experiments: bool,
) -> Result<OpTrace, BenchError> {
    let workload = Workload::FleetStalled;
    let policy = workload.policy();
    let first = real_op_first(bench.ops);
    bench.ops += 1;
    let mut op = OpTrace::default();
    for real in [first, !first] {
        if real {
            let store = bench.work.fresh_store()?;
            let store_path = store.path().to_path_buf();
            let fleet = bench.fleet().expect("fleet workload holds a fleet");
            arm_fleet(fleet);
            let outcome = span(tel, "bench.op", || {
                sweep_fleet(fleet, policy.clone(), &store)
            });
            op.tally = score_fleet(fleet, &outcome);
            drop(store);
            op.store_bytes = std::fs::metadata(&store_path).map_or(0, |m| m.len());
            let _ = std::fs::remove_file(store_path);
            continue;
        }
        let fleet = bench.fleet().expect("fleet workload holds a fleet");
        arm_fleet(fleet);
        op.machines = like_the_sweep(workload, || {
            let mut machines = span(tel, "bench.replay", || {
                fleet
                    .machines_mut()
                    .iter_mut()
                    .map(|shard| replay_inside(tel, workload, &policy, &mut shard.machine))
                    .collect::<Result<Vec<_>, _>>()
            })?;
            span(tel, "bench.decompose", || {
                fleet
                    .machines()
                    .iter()
                    .zip(&mut machines)
                    .try_for_each(|(shard, trace)| decompose(tel, &policy, &shard.machine, trace))
            })?;
            Ok::<_, NtStatus>(machines)
        })?;
    }

    if !experiments {
        return Ok(op);
    }
    let fleet = bench.fleet().expect("fleet workload holds a fleet");
    // The journal's cost: the same fleet swept without a WAL, whose
    // observer also clocks when verdicts start and finish arriving.
    arm_fleet(fleet);
    let scheduler =
        FleetScheduler::new(workload.detector_with(policy.clone())).with_workers(FLEET_WORKERS);
    let mut checkpoint = FleetCheckpoint::new(fleet);
    let started = Instant::now();
    let mut arrivals = Vec::new();
    span(tel, "bench.fleet.streaming", || {
        scheduler.sweep_streaming(fleet, &mut checkpoint, |_| {
            arrivals.push(started.elapsed().as_nanos() as u64);
            FleetControl::Continue
        })
    })?;
    op.first_verdict_ns = arrivals.first().copied().unwrap_or_default();
    op.last_verdict_ns = arrivals.last().copied().unwrap_or_default();

    fleet_sweep(
        tel,
        "bench.quorum.off",
        bench,
        policy.clone().with_hardening(None),
    )?;
    fleet_sweep(
        tel,
        "bench.quorum.on",
        bench,
        policy.with_hardening(Some(EvasionHardening::default())),
    )?;
    let fleet = bench.fleet().expect("fleet workload holds a fleet");
    serial_shards(tel, "bench.telemetry.off", fleet, false)?;
    serial_shards(tel, "bench.telemetry.on", fleet, true)?;
    let machine = &mut fleet.machines_mut()[0].machine;
    let detector = workload.detector_with(workload.policy());
    span(tel, "bench.stall.off", || detector.inside_sweep(machine))?;
    arm_stall(machine);
    span(tel, "bench.stall.on", || detector.inside_sweep(machine))?;
    Ok(op)
}

/// Summed duration, allocations and sleep of the spans named `name` in
/// `span`'s subtree.
#[derive(Debug, Clone, Copy, Default)]
struct Agg {
    ns: f64,
    allocs: f64,
    wait_ns: f64,
}

fn agg(span: &SpanRecord, name: &str) -> Agg {
    let mut total = Agg::default();
    if span.name == name {
        total.ns += span.duration_ns() as f64;
        total.allocs += span.allocs as f64;
        total.wait_ns += span.wait_ns as f64;
        return total;
    }
    for child in &span.children {
        let part = agg(child, name);
        total.ns += part.ns;
        total.allocs += part.allocs;
        total.wait_ns += part.wait_ns;
    }
    total
}

/// One traced op's measurements: its per-layer metrics and
/// `layers_<workload>.json` extras (the experiment-derived ones only when
/// the op ran the experiments).
///
/// The coverage metrics compare the op's real run with its own replay,
/// which ran right before or after it: a slow spell of the host that
/// spans both cancels out of their ratio.
fn op_metrics(
    workload: Workload,
    report: &TelemetryReport,
    op: &OpTrace,
) -> Vec<(&'static str, f64)> {
    let root = |name: &str| report.spans.iter().find(|s| s.name == name);
    let dur = |name: &str| root(name).map(|s| s.duration_ns() as f64);
    let replay = root("bench.replay").expect("traced op has a replay");
    let r = |name: &str| agg(replay, name);
    let ms = |ns: f64| ns / 1e6;

    // The decomposition, scaled by each machine's pass counts.
    let (mut query, mut query_files, mut capture, mut volume_capture) = (0.0, 0.0, 0.0, 0.0);
    let (mut ntfs, mut hive) = (Agg::default(), Agg::default());
    let decompose = root("bench.decompose").expect("traced op has a decomposition");
    for (machine, trace) in decompose.children.iter().zip(&op.machines) {
        let p = trace.passes;
        let d = |name: &str| agg(machine, name);
        let [files, registry, processes, modules] =
            [p.files, p.registry, p.processes, p.modules].map(|n| n as f64);
        query_files += files * d("winapi.query.files").ns;
        query += files * d("winapi.query.files").ns
            + registry * d("winapi.query.registry").ns
            + processes * d("winapi.query.processes").ns
            + modules * d("winapi.query.modules").ns;
        volume_capture += files * d("winapi.capture.volume").ns;
        capture += files * d("winapi.capture.volume").ns + registry * d("winapi.capture.hives").ns;
        ntfs.ns += files * d("ntfs.parse").ns;
        ntfs.allocs += files * d("ntfs.parse").allocs;
        hive.ns += registry * d("hive.parse").ns;
        hive.allocs += registry * d("hive.parse").allocs;
    }
    capture += r("winapi.capture.dump").ns + r("winapi.capture.disk").ns;

    let op_ns = dur("bench.op").expect("traced op has a real op");
    // The time the op's layer calls could fill, and what they filled.
    let capacity = workload.lanes() as f64 * op_ns;
    let attributed: f64 = ATTRIBUTED.iter().map(|name| r(name).ns).sum();
    let files_high = r("core.files.high_scan");
    let files_truth = r("core.files.truth_scan");
    let total = |count: fn(&MachineTrace) -> u64| op.machines.iter().map(count).sum::<u64>() as f64;
    let mut values = vec![
        ("winapi.query_ms", ms(query)),
        ("winapi.api_calls", total(|m| m.api_calls)),
        ("winapi.capture_ms", ms(capture)),
        ("winapi.image_bytes", total(|m| m.image_bytes)),
        ("ntfs.parse_ms", ms(ntfs.ns)),
        ("ntfs.parse_allocs", ntfs.allocs),
        ("hive.parse_ms", ms(hive.ns)),
        ("hive.parse_allocs", hive.allocs),
        ("core.files.high_scan_ms", ms(files_high.ns)),
        ("core.files.high_self_ms", ms(files_high.ns - query_files)),
        ("core.files.high_allocs", files_high.allocs),
        ("core.files.truth_scan_ms", ms(files_truth.ns)),
        (
            "core.files.truth_self_ms",
            ms(files_truth.ns - files_truth.wait_ns - volume_capture - ntfs.ns),
        ),
        ("core.files.truth_allocs", files_truth.allocs),
        (
            "core.registry.high_scan_ms",
            ms(r("core.registry.high_scan").ns),
        ),
        (
            "core.registry.truth_scan_ms",
            ms(r("core.registry.truth_scan").ns),
        ),
        (
            "core.registry.truth_allocs",
            r("core.registry.truth_scan").allocs,
        ),
        (
            "core.process.high_scan_ms",
            ms(r("core.process.high_scan").ns),
        ),
        (
            "core.process.truth_scan_ms",
            ms(r("core.process.truth_scan").ns),
        ),
        (
            "core.process.module_scan_ms",
            ms(r("core.process.module_scan").ns),
        ),
        ("core.diff.files_ms", ms(r("core.diff.files").ns)),
        ("core.diff.files_allocs", r("core.diff.files").allocs),
        ("core.diff.registry_ms", ms(r("core.diff.registry").ns)),
        ("core.diff.processes_ms", ms(r("core.diff.processes").ns)),
        ("core.diff.modules_ms", ms(r("core.diff.modules").ns)),
        ("core.ghostbuster.overhead_ms", ms(capacity - attributed)),
        ("bench.op_ms", ms(op_ns)),
        (
            "bench.trace_overhead_frac",
            replay.duration_ns() as f64 / capacity - 1.0,
        ),
        (
            "bench.unattributed_frac",
            (capacity - attributed) / capacity,
        ),
        (
            "core.policy.diff_passes",
            total(|m| m.passes.files + m.passes.registry + m.passes.processes + m.passes.modules),
        ),
        ("core.files.truth_wait_ms", ms(files_truth.wait_ns)),
        ("core.files.entries", total(|m| m.file_entries)),
        ("core.diff.net_detections", total(|m| m.net_detections)),
        ("core.diff.noise_detections", total(|m| m.noise_detections)),
    ];
    if let (Some(on), Some(off)) = (dur("bench.quorum.on"), dur("bench.quorum.off")) {
        values.push(("core.policy.quorum_factor", on / off));
    }
    if let (Some(on), Some(off)) = (dur("bench.stall.on"), dur("bench.stall.off")) {
        values.push(("core.policy.poll_wait_ms", ms(on - off)));
    }
    if let (Some(on), Some(off)) = (dur("bench.telemetry.on"), dur("bench.telemetry.off")) {
        values.push(("support.obs.telemetry_tax_frac", on / off - 1.0));
    }
    match workload {
        Workload::OutsideWinpe => {
            values.push(("kernel.dump_parse_ms", ms(r("kernel.parse").ns)));
            values.push(("winapi.reboot_ms", ms(r("winapi.reboot").ns)));
        }
        Workload::FleetStalled => {
            values.push(("fleet.scheduler.busy_frac", attributed / capacity));
            if let Some(streaming) = dur("bench.fleet.streaming") {
                values.push((
                    "fleet.scheduler.first_verdict_ms",
                    ms(op.first_verdict_ns as f64),
                ));
                values.push((
                    "fleet.scheduler.last_verdict_ms",
                    ms(op.last_verdict_ns as f64),
                ));
                values.push(("fleet.durable.journal_ms", ms(op_ns - streaming)));
            }
            values.push(("fleet.durable.store_bytes", op.store_bytes as f64));
        }
        _ => {}
    }
    values
}

/// Every how many traced ops the shell experiments run (starting with the
/// first): they cost several sweeps, and the other ops buy more pairs of
/// real op and replay for the attribution check.
const EXPERIMENT_EVERY: u64 = 3;

/// The traced run: set-up, warm-up, then traced ops until `budget` runs
/// out. With `out`, writes `trace_<workload>.json` (a Chrome trace of
/// every span) and `layers_<workload>.json` (the per-layer table) there.
///
/// Per-layer metrics are medians over the traced ops that measured them.
///
/// # Errors
///
/// Input-build or probe failures, a layer call failing during the replay,
/// or, over at least [`MIN_CHECKED_OPS`] traced ops,
/// `bench.unattributed_frac` below [`MIN_UNATTRIBUTED_FRAC`].
pub fn trace(
    workload: Workload,
    seed: u64,
    budget: Budget,
    out: Option<&Path>,
) -> Result<Outcome, BenchError> {
    let mut bench = Bench::setup(workload, seed)?;
    let warm = warm_up(&mut bench)?;
    let clock: Arc<dyn Clock> = Arc::new(MonotonicClock::new());
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut forest = TelemetryReport::default();
    let mut tally = Tally::default();
    let mut ops = 0u64;
    let started = Instant::now();
    while budget.wants_more(ops, started.elapsed()) {
        let tel = Telemetry::with_clock(clock.clone());
        let experiments = ops.is_multiple_of(EXPERIMENT_EVERY);
        let op = {
            let _op = tel.span("bench.traced_op");
            match workload {
                Workload::FleetStalled => fleet_traced_op(&tel, &mut bench, experiments),
                _ => machine_traced_op(&tel, &mut bench, experiments),
            }?
        };
        let report = tel.report();
        let traced = report.spans.first().expect("the traced-op root span");
        let detached = TelemetryReport {
            spans: traced.children.clone(),
            ..TelemetryReport::default()
        };
        for (name, value) in op_metrics(workload, &detached, &op) {
            samples.entry(name).or_default().push(value);
        }
        tally.absorb(op.tally);
        ops += 1;
        if out.is_some() {
            forest.threads = report.threads;
            forest.spans.extend(report.spans);
        }
    }

    let value = |name: &str| median(&samples[name]).expect("every traced op measures it");
    let unattributed = value("bench.unattributed_frac");
    if ops >= MIN_CHECKED_OPS && unattributed < MIN_UNATTRIBUTED_FRAC {
        return Err(BenchError::Check(format!(
            "bench.unattributed_frac {unattributed:.4} < {MIN_UNATTRIBUTED_FRAC}: the attributed parts exceed the op"
        )));
    }
    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|spec| Metric {
            name: spec.name,
            value: value(spec.name),
            unit: spec.unit,
        })
        .collect();
    if let Some(dir) = out {
        std::fs::create_dir_all(dir)?;
        let name = workload.name();
        std::fs::write(
            dir.join(format!("trace_{name}.json")),
            forest.chrome_trace().render(),
        )?;
        let extras: Vec<(&str, f64)> = EXTRAS
            .iter()
            .filter_map(|(name, _, _)| Some((*name, median(samples.get(name)?)?)))
            .collect();
        std::fs::write(
            dir.join(format!("layers_{name}.json")),
            layers_json(workload, seed, ops, &metrics, &extras, &tally).render_pretty(2),
        )?;
    }
    Ok(Outcome {
        correct: verdicts_correct(workload, &warm) && verdicts_correct(workload, &tally),
        tally,
        ops,
        metrics,
        reported: Vec::new(),
    })
}

fn layers_json(
    workload: Workload,
    seed: u64,
    ops: u64,
    metrics: &[Metric],
    extras: &[(&str, f64)],
    tally: &Tally,
) -> JsonValue {
    let str = |s: &str| JsonValue::Str(s.to_string());
    let rows = PER_LAYER
        .iter()
        .zip(metrics)
        .map(|(spec, metric)| {
            JsonValue::Obj(vec![
                ("name".to_string(), str(spec.name)),
                ("layer".to_string(), str(spec.layer.as_str())),
                ("unit".to_string(), str(spec.unit)),
                ("value".to_string(), JsonValue::Float(metric.value)),
                ("moves".to_string(), str(spec.moves)),
            ])
        })
        .collect();
    let extra_rows = EXTRAS
        .iter()
        .filter_map(|(name, unit, layer)| {
            let (_, value) = extras.iter().find(|(n, _)| n == name)?;
            Some(JsonValue::Obj(vec![
                ("name".to_string(), str(name)),
                ("layer".to_string(), str(layer.as_str())),
                ("unit".to_string(), str(unit)),
                ("value".to_string(), JsonValue::Float(*value)),
            ]))
        })
        .collect();
    JsonValue::Obj(vec![
        ("workload".to_string(), str(workload.name())),
        ("seed".to_string(), JsonValue::UInt(seed)),
        ("traced_ops".to_string(), JsonValue::UInt(ops)),
        ("metrics".to_string(), JsonValue::Arr(rows)),
        ("extras".to_string(), JsonValue::Arr(extra_rows)),
        (
            "verdicts".to_string(),
            JsonValue::Obj(vec![
                ("attempted".to_string(), JsonValue::UInt(tally.attempted)),
                ("failed".to_string(), JsonValue::UInt(tally.failed)),
                ("wrong".to_string(), JsonValue::UInt(tally.wrong)),
                ("hidden".to_string(), JsonValue::UInt(tally.hidden)),
                ("found".to_string(), JsonValue::UInt(tally.found)),
                ("recall".to_string(), JsonValue::Float(tally.recall())),
            ]),
        ),
    ])
}
