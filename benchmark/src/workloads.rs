//! The four seeded workloads and the closed-loop client that drives them.
//!
//! Every workload is a closed loop with one client thread: the next op
//! starts only when the previous one has returned. Inputs derive from the
//! workload seed alone; the detector only ever sees the generated
//! machines. Program threads stay within a 2-CPU budget: a sweep runs its
//! pipelines one `run_isolated` thread at a time, and the fleet scheduler
//! gets 2 workers.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use strider_fleet::{
    DurabilityMode, DurableSweepError, FleetRegistry, FleetReport, FleetScheduler, FleetSpec,
};
use strider_ghostbuster::{AdvancedSource, GhostBuster, ScanPolicy, SweepReport};
use strider_ghostware::{EvasiveGhostware, EvasiveTactic, Ghostware, HackerDefender, Infection};
use strider_nt_core::NtStatus;
use strider_support::fault::Stall;
use strider_support::store::RecordStore;
use strider_winapi::{FaultInjector, Machine};
use strider_workload::{standard_lab_machine, WorkloadSpec};

use crate::probes;
use crate::verdict::{score, Tally};

/// Reboot gap of the outside-the-box flow, in machine ticks.
pub const REBOOT_TICKS: u64 = 150;
/// Machines in the fleet of `fleet-stalled`.
pub const FLEET_MACHINES: u32 = 32;
/// Seeded-infected machines in the fleet.
pub const FLEET_INFECTED: u32 = 8;
/// Fleet worker threads.
pub const FLEET_WORKERS: usize = 2;
/// Pending polls each fleet volume answers before its data; at the
/// policy's 500 µs poll interval about 8 ms of device wait per shard.
pub const STALL_POLLS: u32 = 16;
/// Untimed ops before measurement starts.
pub const WARMUP_OPS: u64 = 2;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One large machine swept inside the box, op after op.
    InsideLarge,
    /// A fresh medium machine per op, infected with scan-aware ghostware
    /// and swept with the hardened policy.
    HardenedEvasive,
    /// A fresh medium machine per op, swept by the WinPE outside flow.
    OutsideWinpe,
    /// A 32-machine fleet with stalled volumes, swept durably.
    FleetStalled,
}

impl Workload {
    /// Every workload, in declaration order.
    pub const ALL: [Workload; 4] = [
        Workload::InsideLarge,
        Workload::HardenedEvasive,
        Workload::OutsideWinpe,
        Workload::FleetStalled,
    ];

    /// The workload's name as passed to `--workload`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::InsideLarge => "inside-large",
            Workload::HardenedEvasive => "hardened-evasive",
            Workload::OutsideWinpe => "outside-winpe",
            Workload::FleetStalled => "fleet-stalled",
        }
    }

    /// Why the workload is in the benchmark: which layers it stresses.
    pub fn why(self) -> &'static str {
        match self {
            Workload::InsideLarge => {
                "one 30k-file machine swept inside the box: the detector's parsers and the 30k-entry diff dominate"
            }
            Workload::HardenedEvasive => {
                "fresh machines with scan-aware ghostware under the hardened policy: 5 quorum passes, decoys and the hooked API chain dominate"
            }
            Workload::OutsideWinpe => {
                "fresh machines swept outside the box from disk and dump captures, inline with no pipeline threads: bypasses the shell"
            }
            Workload::FleetStalled => {
                "32 small machines with stalled volumes on 2 workers with a WAL journal: scheduling, polling and journal writes dominate"
            }
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether every op sweeps the same input (built once, re-armed per
    /// op) rather than a machine built for it.
    pub fn reuses_input(self) -> bool {
        matches!(self, Workload::InsideLarge | Workload::FleetStalled)
    }

    /// Whether the verdict check demands that every seeded hidden resource
    /// is found. Scan-aware ghostware stops hiding some resources while it
    /// senses a scan, so on `hardened-evasive` the seeded list names
    /// resources that are honestly visible when swept; there the check is
    /// the per-machine verdict, and recall is reported, not enforced.
    pub fn checks_recall(self) -> bool {
        self != Workload::HardenedEvasive
    }

    /// How many worker lanes an op can keep busy at once.
    pub fn lanes(self) -> usize {
        match self {
            Workload::FleetStalled => FLEET_WORKERS,
            _ => 1,
        }
    }

    /// The resilience policy the op's detector runs under.
    pub fn policy(self) -> ScanPolicy {
        match self {
            Workload::InsideLarge | Workload::OutsideWinpe => ScanPolicy::strict(),
            Workload::HardenedEvasive => ScanPolicy::hardened(),
            Workload::FleetStalled => ScanPolicy::supervised().with_poll(500_000, 64),
        }
    }

    /// The advanced process source the op's detector uses, if any.
    pub fn advanced(self) -> Option<AdvancedSource> {
        match self {
            Workload::HardenedEvasive => None,
            _ => Some(AdvancedSource::ThreadTable),
        }
    }

    /// A detector configured as the op configures it, under `policy`.
    pub fn detector_with(self, policy: ScanPolicy) -> GhostBuster {
        let detector = GhostBuster::new().with_policy(policy);
        match self.advanced() {
            Some(source) => detector.with_advanced(source),
            None => detector,
        }
    }

    /// The op's sweep of one machine.
    ///
    /// # Errors
    ///
    /// Whatever the sweep returns.
    pub fn sweep(
        self,
        detector: &GhostBuster,
        machine: &mut Machine,
    ) -> Result<SweepReport, NtStatus> {
        match self {
            Workload::OutsideWinpe => detector.winpe_outside_sweep(machine, REBOOT_TICKS),
            _ => detector.inside_sweep(machine),
        }
    }

    /// Builds the machine (and its ground truth) for op `index`. Only
    /// meaningful for the single-machine workloads.
    ///
    /// # Errors
    ///
    /// Propagates substrate failures from population or infection.
    pub fn build_machine(self, seed: u64, index: u64) -> Result<Case, NtStatus> {
        let (spec, name) = match self {
            Workload::InsideLarge => (WorkloadSpec::large(seed), self.name().to_string()),
            _ => (
                WorkloadSpec::medium(seed.wrapping_mul(1_000_003).wrapping_add(index)),
                format!("{}-{index}", self.name()),
            ),
        };
        let mut machine = standard_lab_machine(&name, &spec, false)?;
        let truth = match self {
            // The tactic the hardened policy is built to beat: decoy
            // queries keep same-kind bursts short, so the burst sensor
            // never trips into honesty before the quorum sees the lies.
            Workload::HardenedEvasive => EvasiveGhostware::new(EvasiveTactic::RehookAfterSweep {
                burst: 6,
                rehook_after: 1_000_000,
            })
            .infect(&mut machine)?,
            _ => HackerDefender::default().infect(&mut machine)?,
        };
        Ok(Case { machine, truth })
    }

    /// Builds the fleet of `fleet-stalled`.
    ///
    /// # Errors
    ///
    /// Propagates substrate failures from seeding the fleet.
    pub fn build_fleet(seed: u64) -> Result<FleetRegistry, NtStatus> {
        FleetRegistry::seeded(&FleetSpec::clean(FLEET_MACHINES, seed).with_infected(FLEET_INFECTED))
    }
}

/// One machine and the infection seeded on it.
#[derive(Debug)]
pub struct Case {
    /// The machine swept.
    pub machine: Machine,
    /// What the seeded ghostware hid.
    pub truth: Infection,
}

/// Arms a fresh volume-read stall of [`STALL_POLLS`] polls on `machine`;
/// a drained stall costs nothing, so every op re-arms it.
pub fn arm_stall(machine: &mut Machine) {
    machine.set_fault_injector(
        FaultInjector::new().stall_volume_reads(Stall::after_polls(STALL_POLLS)),
    );
}

/// Arms a stall on every fleet volume.
pub fn arm_fleet(fleet: &mut FleetRegistry) {
    for shard in fleet.machines_mut() {
        arm_stall(&mut shard.machine);
    }
}

/// Sweeps the fleet into a fresh write-ahead log as the op does.
///
/// # Errors
///
/// Whatever the durable sweep returns.
pub fn sweep_fleet(
    fleet: &mut FleetRegistry,
    policy: ScanPolicy,
    store: &RecordStore,
) -> Result<FleetReport, DurableSweepError> {
    FleetScheduler::new(Workload::FleetStalled.detector_with(policy))
        .with_workers(FLEET_WORKERS)
        .sweep_durable(fleet, store, DurabilityMode::WalAppend)
}

/// Scores a fleet sweep shard by shard against the fleet's seeded truth.
pub fn score_fleet(
    fleet: &FleetRegistry,
    outcome: &Result<FleetReport, DurableSweepError>,
) -> Tally {
    let mut tally = Tally::default();
    for (i, shard) in fleet.machines().iter().enumerate() {
        let result = outcome
            .as_ref()
            .ok()
            .and_then(|r| r.results().iter().find(|r| r.shard.0 as usize == i));
        tally.absorb(score(
            result.map(|r| &r.report),
            shard.infection.as_ref(),
            result.is_some_and(|r| r.disposition.is_quarantined()),
        ));
    }
    tally
}

/// A per-bench directory under the current directory for the write-ahead
/// logs fleet ops journal into; removed, with its contents, on drop.
#[derive(Debug)]
pub struct WorkDir {
    path: PathBuf,
    stores: u64,
}

impl WorkDir {
    /// Creates `.bench_work/<pid>-<n>` under the current directory, `n`
    /// counting the benches of this process.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn create() -> io::Result<Self> {
        static CREATED: AtomicU64 = AtomicU64::new(0);
        let n = CREATED.fetch_add(1, Ordering::Relaxed);
        let path = Path::new(".bench_work").join(format!("{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir { path, stores: 0 })
    }

    /// Opens a store at a path no earlier call returned.
    ///
    /// # Errors
    ///
    /// Propagates store-open failures.
    pub fn fresh_store(&mut self) -> io::Result<RecordStore> {
        self.stores += 1;
        let path = self.path.join(format!("op-{}.wal", self.stores));
        let _ = std::fs::remove_file(&path);
        RecordStore::open(path)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Leaves `.bench_work` itself only when no other run still uses it.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// A workload's inputs plus the closed-loop client's state.
#[derive(Debug)]
pub struct Bench {
    /// Which workload.
    pub workload: Workload,
    seed: u64,
    inputs: Inputs,
    /// Wall seconds of every input build so far.
    pub setup_samples: Vec<f64>,
    /// Ops started so far (warm-up included).
    pub ops: u64,
    /// Where fleet ops journal.
    pub work: WorkDir,
}

#[derive(Debug)]
enum Inputs {
    /// One machine swept by every op.
    Shared(Box<Case>),
    /// Built fresh by each op.
    PerOp,
    /// The fleet, re-armed by each op.
    Fleet(FleetRegistry),
}

/// What one timed op cost and how its verdicts scored.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// Wall seconds of the op.
    pub wall_s: f64,
    /// Process CPU seconds (all threads) over the op.
    pub cpu_s: f64,
    /// Verdict accounting for the op's machines.
    pub tally: Tally,
}

/// Errors that end a benchmark run before it can print a result.
#[derive(Debug)]
pub enum BenchError {
    /// Building an input failed.
    Setup(NtStatus),
    /// A probe or the work directory failed.
    Io(io::Error),
    /// The traced run's self-check failed.
    Check(String),
}

impl std::fmt::Display for BenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BenchError::Setup(e) => write!(f, "input build failed: {e}"),
            BenchError::Io(e) => write!(f, "I/O failed: {e}"),
            BenchError::Check(e) => write!(f, "self-check failed: {e}"),
        }
    }
}

impl std::error::Error for BenchError {}

impl From<io::Error> for BenchError {
    fn from(e: io::Error) -> Self {
        BenchError::Io(e)
    }
}

impl From<NtStatus> for BenchError {
    fn from(e: NtStatus) -> Self {
        BenchError::Setup(e)
    }
}

fn timed<T>(samples: &mut Vec<f64>, build: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let built = build();
    samples.push(started.elapsed().as_secs_f64());
    built
}

impl Bench {
    /// Builds the workload's inputs: the machine or fleet that every op
    /// reuses, or nothing where each op builds its own.
    ///
    /// # Errors
    ///
    /// Input-build or work-directory failures.
    pub fn setup(workload: Workload, seed: u64) -> Result<Self, BenchError> {
        let mut bench = Bench {
            workload,
            seed,
            inputs: Inputs::PerOp,
            setup_samples: Vec::new(),
            ops: 0,
            work: WorkDir::create()?,
        };
        bench.rebuild_input()?;
        Ok(bench)
    }

    /// Builds the input every op reuses afresh, dropping the old one first
    /// so memory holds one input as before, and records the build as a
    /// set-up sample. The build is seeded, so the new input equals the
    /// old. Does nothing where each op builds its own machine.
    ///
    /// # Errors
    ///
    /// Input-build failures.
    pub fn rebuild_input(&mut self) -> Result<(), BenchError> {
        let (workload, seed) = (self.workload, self.seed);
        self.inputs = match workload {
            Workload::InsideLarge => {
                self.inputs = Inputs::PerOp;
                let case = timed(&mut self.setup_samples, || workload.build_machine(seed, 0))?;
                Inputs::Shared(Box::new(case))
            }
            Workload::FleetStalled => {
                self.inputs = Inputs::PerOp;
                Inputs::Fleet(timed(&mut self.setup_samples, || {
                    Workload::build_fleet(seed)
                })?)
            }
            _ => Inputs::PerOp,
        };
        Ok(())
    }

    /// The machine op `index` sweeps: the shared one, or a fresh build
    /// (recorded as a set-up sample) for workloads that rebuild per op.
    ///
    /// # Errors
    ///
    /// Input-build failures.
    pub fn case_for(&mut self, index: u64) -> Result<CaseRef<'_>, BenchError> {
        match &mut self.inputs {
            Inputs::Shared(case) => Ok(CaseRef::Shared(case)),
            Inputs::PerOp => {
                let (workload, seed) = (self.workload, self.seed);
                let case = timed(&mut self.setup_samples, || {
                    workload.build_machine(seed, index)
                })?;
                Ok(CaseRef::Fresh(Box::new(case)))
            }
            Inputs::Fleet(_) => panic!("case_for on the fleet workload"),
        }
    }

    /// The fleet, for `fleet-stalled`.
    pub fn fleet(&mut self) -> Option<&mut FleetRegistry> {
        match &mut self.inputs {
            Inputs::Fleet(fleet) => Some(fleet),
            _ => None,
        }
    }

    /// Runs one op: untimed preparation, then the timed op, then scoring.
    ///
    /// # Errors
    ///
    /// Input-build, probe or store failures; a failing sweep is scored,
    /// not returned.
    pub fn run_op(&mut self) -> Result<Op, BenchError> {
        let index = self.ops;
        self.ops += 1;
        let workload = self.workload;
        if workload == Workload::FleetStalled {
            let store = self.work.fresh_store()?;
            let store_path = store.path().to_path_buf();
            let fleet = self.fleet().expect("fleet workload holds a fleet");
            arm_fleet(fleet);
            let (outcome, wall_s, cpu_s) =
                measure(|| sweep_fleet(fleet, workload.policy(), &store))?;
            let tally = score_fleet(fleet, &outcome);
            drop(store);
            let _ = std::fs::remove_file(store_path);
            return Ok(Op {
                wall_s,
                cpu_s,
                tally,
            });
        }
        let mut case = self.case_for(index)?;
        let case = case.get();
        let (outcome, wall_s, cpu_s) = measure(|| {
            let detector = workload.detector_with(workload.policy());
            workload.sweep(&detector, &mut case.machine)
        })?;
        Ok(Op {
            wall_s,
            cpu_s,
            tally: score(outcome.as_ref().ok(), Some(&case.truth), false),
        })
    }
}

/// A borrowed shared case or an owned fresh one.
#[derive(Debug)]
pub enum CaseRef<'a> {
    /// The workload's shared machine.
    Shared(&'a mut Case),
    /// A machine built for this op alone.
    Fresh(Box<Case>),
}

impl CaseRef<'_> {
    /// The case, mutably.
    pub fn get(&mut self) -> &mut Case {
        match self {
            CaseRef::Shared(case) => case,
            CaseRef::Fresh(case) => case,
        }
    }
}

/// Times `op` by wall clock and by process CPU (all threads).
fn measure<T>(op: impl FnOnce() -> T) -> io::Result<(T, f64, f64)> {
    let cpu_before = probes::cpu_seconds()?;
    let started = Instant::now();
    let out = op();
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = probes::cpu_seconds()? - cpu_before;
    Ok((out, wall_s, cpu_s))
}
