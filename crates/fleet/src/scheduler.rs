//! The work-stealing fleet scheduler: supervised sweeps fanned across a
//! bounded scoped-thread worker pool, with batched result ingest over a
//! bounded channel.

use crate::durable::{
    fleet_record, quarantine_record, shard_record, DurabilityMode, DurableSweepError,
    FleetHealPolicy, QuarantineRecord,
};
use crate::registry::{FleetMachine, FleetRegistry, ShardId};
use crate::report::{FleetCheckpoint, FleetReport, ShardDisposition, ShardResult};
use crate::trace::{FleetTrace, SchedEventKind, TraceSink};
use std::collections::{BTreeMap, VecDeque};
use strider_ghostbuster::{
    DiffReport, GhostBuster, Pipeline, PipelineStatus, SweepCheckpoint, SweepReport,
};
use strider_nt_core::NtStatus;
use strider_support::obs::{FlightRecorder, Telemetry};
use strider_support::store::RecordStore;
use strider_support::sync::{bounded, Mutex, Sender};
use strider_support::task::CancellationToken;
use strider_winapi::Machine;

/// What a streaming observer tells the scheduler after each shard result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetControl {
    /// Keep sweeping.
    Continue,
    /// Cancel the rest of the fleet: in-flight shards stop at their next
    /// supervision checkpoint (their pipelines land interrupted, so they
    /// stay unfinished in the checkpoint), queued shards are never
    /// started, and already-received results are kept.
    Stop,
}

/// Per-shard metadata captured before the machines are handed to the
/// worker pool (which holds them mutably for the whole sweep).
#[derive(Debug, Clone)]
struct ShardMeta {
    machine: String,
    family: Option<String>,
    techniques: Vec<String>,
    seeded_infected: bool,
}

impl ShardMeta {
    fn of(machine: &FleetMachine) -> Self {
        ShardMeta {
            machine: machine.machine.name().to_string(),
            family: machine.family.clone(),
            techniques: machine
                .infection
                .as_ref()
                .map(|i| i.techniques.iter().map(ToString::to_string).collect())
                .unwrap_or_default(),
            seeded_infected: machine.is_seeded_infected(),
        }
    }

    fn result(
        &self,
        shard: ShardId,
        disposition: ShardDisposition,
        report: SweepReport,
    ) -> ShardResult {
        ShardResult {
            shard,
            machine: self.machine.clone(),
            family: self.family.clone(),
            techniques: self.techniques.clone(),
            seeded_infected: self.seeded_infected,
            disposition,
            report,
        }
    }
}

/// What a worker ships back per shard: the result, plus a snapshot of the
/// shard's checkpoint when the sweep is persisting (taken while the
/// worker still holds the shard's checkpoint lock, so the ingest thread
/// can journal it without touching the slot).
#[derive(Clone)]
struct WorkerItem {
    result: ShardResult,
    checkpoint: Option<SweepCheckpoint>,
}

/// The per-shard journaling hook a durable sweep threads into the core:
/// called on the ingest thread after each worker-swept shard, with the
/// checkpoint snapshot (absent for quarantined shards — their journal
/// entry is the quarantine record inside the result's disposition).
type PersistFn<'a> =
    &'a mut dyn FnMut(u32, Option<&SweepCheckpoint>, &ShardResult) -> std::io::Result<()>;

/// Fans supervised [`GhostBuster::inside_sweep_checkpointed`] runs across
/// a bounded pool of scoped worker threads.
///
/// Shards are dealt round-robin onto per-worker deques; a worker that
/// drains its own deque steals from the back of its neighbours', so a
/// worker stuck on one slow machine (large volume, injected stall) does
/// not strand the shards queued behind it. Each shard runs under its own
/// supervision scope — a child of the scheduler's [`CancellationToken`],
/// the policy's per-pipeline/per-sweep budgets, and *fresh* circuit
/// breakers — so one machine's pathology degrades that shard, never the
/// fleet. Results flow back to the calling thread in batches over a
/// bounded channel and are merged into a [`FleetReport`] as they arrive.
#[derive(Debug, Clone)]
pub struct FleetScheduler {
    detector: GhostBuster,
    workers: usize,
    batch: usize,
    cancellation: CancellationToken,
    heal: Option<FleetHealPolicy>,
}

impl FleetScheduler {
    /// A scheduler driving the given detector with 4 workers and a result
    /// batch size of 8.
    pub fn new(detector: GhostBuster) -> Self {
        FleetScheduler {
            detector,
            workers: 4,
            batch: 8,
            cancellation: CancellationToken::new(),
            heal: None,
        }
    }

    /// Turns on self-healing: a shard whose attempt fails (cannot enter
    /// the machine, or any pipeline degraded) is retried with seeded
    /// exponential backoff through the policy clock, up to the policy's
    /// attempt budget; past it the shard lands
    /// [`ShardDisposition::Quarantined`] with flight-recorder evidence —
    /// never a silent drop, never an `Err` that sinks the fleet.
    pub fn with_heal(mut self, policy: FleetHealPolicy) -> Self {
        self.heal = Some(policy);
        self
    }

    /// Sets the worker-pool size (minimum 1). `workers = 1` serializes the
    /// fleet, which makes interleavings deterministic in tests.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets how many shard results a worker accumulates before sending
    /// them to the ingest thread (minimum 1).
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch.max(1);
        self
    }

    /// Hands the scheduler an externally owned cancellation token:
    /// cancelling it stops the whole fleet sweep at the next supervision
    /// checkpoints, exactly like a streaming observer returning
    /// [`FleetControl::Stop`].
    pub fn with_cancellation(mut self, token: CancellationToken) -> Self {
        self.cancellation = token;
        self
    }

    /// The cancellation token fleet sweeps observe.
    pub fn cancellation(&self) -> &CancellationToken {
        &self.cancellation
    }

    /// The detector each shard's sweep is cloned from.
    pub fn detector(&self) -> &GhostBuster {
        &self.detector
    }

    /// Configured worker-pool size.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Sweeps the whole fleet and merges the results. Like every sweep
    /// entry point, it records the scheduler timeline into the report
    /// (see [`FleetReport::trace`]).
    ///
    /// # Errors
    ///
    /// Fails only on fleet-level parameter errors; a failing shard lands
    /// as a degraded [`ShardResult`], not an error.
    pub fn sweep(&self, fleet: &mut FleetRegistry) -> Result<FleetReport, NtStatus> {
        let mut checkpoint = FleetCheckpoint::new(fleet);
        self.sweep_streaming(fleet, &mut checkpoint, |_| FleetControl::Continue)
    }

    /// [`FleetScheduler::sweep`], but recording per-shard progress into
    /// `checkpoint` and streaming results: shards already complete in the
    /// checkpoint are restored verbatim (no scan, no telemetry) and
    /// everything else is swept and recorded. Every [`ShardResult`] is
    /// shown to `observer` (on the calling thread, in arrival order)
    /// before being merged; returning [`FleetControl::Stop`] cancels the
    /// remaining fleet while already-produced results keep draining into
    /// the report. Pass `|_| FleetControl::Continue` to only checkpoint.
    ///
    /// # Errors
    ///
    /// [`NtStatus::InvalidParameter`] when the checkpoint was taken on a
    /// different fleet.
    pub fn sweep_streaming(
        &self,
        fleet: &mut FleetRegistry,
        checkpoint: &mut FleetCheckpoint,
        mut observer: impl FnMut(&ShardResult) -> FleetControl,
    ) -> Result<FleetReport, NtStatus> {
        self.sweep_core(fleet, checkpoint, &mut observer, &BTreeMap::new(), None)
    }

    /// A crash-safe fleet sweep journaled into `store`: progress is
    /// recovered from the store (typed-validated against the live fleet),
    /// already-complete shards are restored, previously quarantined
    /// shards stay fenced, and every newly completed shard is persisted
    /// before the sweep moves on — kill the process at any byte of any
    /// write and a rerun of this method resumes to a merged report whose
    /// [`FleetReport::result_digest`] is byte-identical to an
    /// uninterrupted run's.
    ///
    /// A fresh sweep writes one base record and then one O(1) appended
    /// record per shard ([`DurabilityMode::WalAppend`], the only mode).
    ///
    /// # Errors
    ///
    /// [`DurableSweepError::Mismatch`] when the store's checkpoint was
    /// taken on a different fleet; [`DurableSweepError::Io`] when the
    /// store fails (an injected [`CrashPlan`] kill surfaces here — the
    /// simulated process death); [`DurableSweepError::Fleet`] for sweep
    /// parameter errors.
    ///
    /// [`CrashPlan`]: strider_support::fault::CrashPlan
    pub fn sweep_durable(
        &self,
        fleet: &mut FleetRegistry,
        store: &RecordStore,
        _mode: DurabilityMode,
    ) -> Result<FleetReport, DurableSweepError> {
        let (mut checkpoint, fenced) = match FleetCheckpoint::resume(fleet, store)? {
            Some(state) => (state.checkpoint, state.quarantined),
            None => {
                // A store with no usable base needs one before any shard
                // record can land, or a rerun could never replay them.
                let fresh = FleetCheckpoint::new(fleet);
                store.append(fleet_record(&fresh, &BTreeMap::new()).as_bytes())?;
                (fresh, BTreeMap::new())
            }
        };
        let mut io_failure: Option<std::io::Error> = None;
        let mut persist = |shard: u32,
                           snapshot: Option<&SweepCheckpoint>,
                           result: &ShardResult|
         -> std::io::Result<()> {
            let record = if let ShardDisposition::Quarantined(fence) = &result.disposition {
                quarantine_record(fence)
            } else if let Some(cp) = snapshot {
                shard_record(shard, cp)
            } else {
                return Ok(());
            };
            if let Err(e) = store.append(record.as_bytes()) {
                let stub = std::io::Error::new(e.kind(), "journal write failed");
                io_failure = Some(e);
                return Err(stub);
            }
            Ok(())
        };
        let mut observer = |_: &ShardResult| FleetControl::Continue;
        let outcome = self.sweep_core(
            fleet,
            &mut checkpoint,
            &mut observer,
            &fenced,
            Some(&mut persist),
        );
        if let Some(e) = io_failure {
            return Err(DurableSweepError::Io(e));
        }
        outcome.map_err(DurableSweepError::Fleet)
    }

    /// The shared sweep engine behind every public sweep entry point.
    ///
    /// `quarantined` are shards a previous (durable) run already fenced:
    /// they are surfaced as [`ShardDisposition::Quarantined`] results
    /// without being swept. `persist` is the durable journaling hook,
    /// called on the ingest thread per worker-swept shard; when it fails
    /// the run cancels (the simulated process death) and stops journaling.
    /// Every run records its scheduler timeline into the report.
    pub(crate) fn sweep_core(
        &self,
        fleet: &mut FleetRegistry,
        checkpoint: &mut FleetCheckpoint,
        observer: &mut dyn FnMut(&ShardResult) -> FleetControl,
        quarantined: &BTreeMap<u32, QuarantineRecord>,
        mut persist: Option<PersistFn<'_>>,
    ) -> Result<FleetReport, NtStatus> {
        if checkpoint.validate(fleet).is_err() {
            return Err(NtStatus::InvalidParameter);
        }
        let clock = self.detector.policy().clock().clone();
        let start_ns = clock.now_ns();
        let sink = TraceSink::new(clock.clone());
        let mut workers = 0;
        let machines = fleet.len() as u64;
        let meta: Vec<ShardMeta> = fleet.machines().iter().map(ShardMeta::of).collect();
        let mut report = FleetReport::default();
        // The whole fleet run shares one cancellation root — a child of the
        // scheduler token, so external cancels propagate in while a Stop
        // here does not poison the scheduler for later (resume) runs.
        let root = self.cancellation.child();

        // Shards already complete in the checkpoint are restored on the
        // calling thread — no scan, no worker, no telemetry — and shards
        // a previous run quarantined stay fenced.
        let mut pending: Vec<usize> = Vec::new();
        for (i, shard) in checkpoint.shards.iter().enumerate() {
            let (disposition, shard_report) = if let Some(q) = quarantined.get(&(i as u32)) {
                let machine = &fleet.machines()[i].machine;
                let fallback = entry_failure_report(machine, "shard is quarantined");
                (ShardDisposition::Quarantined(q.clone()), fallback)
            } else if shard.is_complete() {
                (ShardDisposition::Restored, restore_report(shard))
            } else {
                pending.push(i);
                continue;
            };
            let result = meta[i].result(ShardId(i as u32), disposition, shard_report);
            if observer(&result) == FleetControl::Stop {
                root.cancel();
            }
            report.absorb(result);
        }

        if !pending.is_empty() && !root.is_cancelled() {
            workers = self.workers.min(pending.len());
            let snapshot_checkpoints = persist.is_some();

            // Deal pending shards round-robin onto per-worker deques.
            let mut deques: Vec<VecDeque<usize>> = (0..workers).map(|_| VecDeque::new()).collect();
            for (n, &shard) in pending.iter().enumerate() {
                deques[n % workers].push_back(shard);
                sink.record(
                    shard as u32,
                    SchedEventKind::Enqueue {
                        worker: n % workers,
                    },
                );
            }
            let queues: Vec<Mutex<VecDeque<usize>>> = deques.into_iter().map(Mutex::new).collect();

            // Exclusive per-shard slots: each worker locks exactly the
            // machine and checkpoint of the shard it is sweeping.
            let machine_slots: Vec<Mutex<&mut FleetMachine>> =
                fleet.machines_mut().iter_mut().map(Mutex::new).collect();
            let checkpoint_slots: Vec<Mutex<&mut SweepCheckpoint>> =
                checkpoint.shards.iter_mut().map(Mutex::new).collect();

            let (tx, rx) = bounded::<Vec<WorkerItem>>(workers);
            std::thread::scope(|scope| {
                for w in 0..workers {
                    let tx = tx.clone();
                    let root = root.clone();
                    let queues = &queues;
                    let machine_slots = &machine_slots;
                    let checkpoint_slots = &checkpoint_slots;
                    let meta = &meta;
                    let sink = &sink;
                    std::thread::Builder::new()
                        .name(format!("fleet-worker-{w}"))
                        .spawn_scoped(scope, move || {
                            self.worker(
                                w,
                                &root,
                                queues,
                                machine_slots,
                                checkpoint_slots,
                                meta,
                                snapshot_checkpoints,
                                &tx,
                                sink,
                            );
                        })
                        .expect("spawn fleet worker");
                }
                drop(tx);
                // Ingest on the calling thread: drain batches as workers
                // produce them — the bounded channel applies backpressure
                // if this loop (the observer or the journal) is slow.
                for batch in rx.iter() {
                    for item in batch {
                        if let Some(p) = persist.as_mut() {
                            let shard = item.result.shard.0;
                            if p(shard, item.checkpoint.as_ref(), &item.result).is_err() {
                                // The journal write died (a crash plan, a
                                // full disk): treat it as the process
                                // dying — cancel the fleet and stop
                                // journaling, but keep draining so the
                                // scoped workers can exit.
                                persist = None;
                                root.cancel();
                            }
                        }
                        if observer(&item.result) == FleetControl::Stop {
                            root.cancel();
                        }
                        report.absorb(item.result);
                    }
                }
            });
        }

        report.finalize(machines);
        report.timeline = FleetTrace {
            workers,
            start_ns,
            end_ns: clock.now_ns(),
            events: sink.into_events(),
        };
        Ok(report)
    }

    /// One worker's loop: drain the own deque from the front, then steal
    /// from the back of the neighbours'.
    #[allow(clippy::too_many_arguments)]
    fn worker(
        &self,
        index: usize,
        root: &CancellationToken,
        queues: &[Mutex<VecDeque<usize>>],
        machine_slots: &[Mutex<&mut FleetMachine>],
        checkpoint_slots: &[Mutex<&mut SweepCheckpoint>],
        meta: &[ShardMeta],
        snapshot_checkpoints: bool,
        tx: &Sender<Vec<WorkerItem>>,
        sink: &TraceSink,
    ) {
        let mut batch: Vec<WorkerItem> = Vec::with_capacity(self.batch);
        loop {
            if root.is_cancelled() {
                break;
            }
            let Some((shard, stolen_from)) = take_shard(index, queues) else {
                break;
            };
            if let Some(victim) = stolen_from {
                sink.record(
                    shard as u32,
                    SchedEventKind::Steal {
                        from: victim,
                        by: index,
                    },
                );
            }
            let mut slot = machine_slots[shard].lock();
            let mut shard_checkpoint = checkpoint_slots[shard].lock();
            sink.record(shard as u32, SchedEventKind::Start { worker: index });
            let (report, disposition) =
                self.run_shard(shard as u32, &mut slot.machine, &mut shard_checkpoint, root);
            sink.record(shard as u32, SchedEventKind::Finish { worker: index });
            let snapshot = (snapshot_checkpoints && !disposition.is_quarantined())
                .then(|| (**shard_checkpoint).clone());
            drop(shard_checkpoint);
            drop(slot);
            batch.push(WorkerItem {
                result: meta[shard].result(ShardId(shard as u32), disposition, report),
                checkpoint: snapshot,
            });
            if batch.len() >= self.batch && tx.send(std::mem::take(&mut batch)).is_err() {
                break;
            }
        }
        if !batch.is_empty() {
            let _ = tx.send(batch);
        }
    }

    /// One shard, end to end: a single sweep attempt without a heal
    /// policy; with one, the self-healing loop — retry failed attempts
    /// (entry failure or any degraded pipeline) with seeded exponential
    /// backoff through the policy clock, clearing the checkpointed
    /// degraded pipelines so they re-run, and quarantine the shard with
    /// flight-recorder evidence once the attempt budget is spent.
    fn run_shard(
        &self,
        shard: u32,
        machine: &mut Machine,
        checkpoint: &mut SweepCheckpoint,
        root: &CancellationToken,
    ) -> (SweepReport, ShardDisposition) {
        let Some(heal) = &self.heal else {
            let report = self.sweep_shard(machine, checkpoint, root);
            return (report, ShardDisposition::Swept);
        };
        let clock = self.detector.policy().clock().clone();
        let recorder = FlightRecorder::new(clock.clone());
        let mut attempt = 1u32;
        loop {
            let report = self.sweep_shard(machine, checkpoint, root);
            let degraded = report.health.degraded_pipelines();
            let succeeded = |attempt: u32| {
                if attempt == 1 {
                    ShardDisposition::Swept
                } else {
                    ShardDisposition::Recovered { attempts: attempt }
                }
            };
            if degraded.is_empty() {
                return (report, succeeded(attempt));
            }
            let reason = format!("degraded pipelines: {}", degraded.join(", "));
            recorder.fault(
                "shard.attempt",
                &format!(
                    "shard-{shard:03} attempt {attempt}/{}: {reason}",
                    heal.max_attempts
                ),
            );
            if root.is_cancelled() {
                // The degradation came from (or raced with) a fleet-wide
                // cancel, not the machine — never quarantine on it.
                return (report, succeeded(attempt));
            }
            if attempt >= heal.max_attempts {
                recorder.fault(
                    "shard.quarantine",
                    &format!("shard-{shard:03} fenced after {attempt} attempts"),
                );
                let record = QuarantineRecord {
                    shard,
                    machine: machine.name().to_string(),
                    attempts: attempt,
                    reason,
                    evidence: recorder.snapshot(),
                };
                return (report, ShardDisposition::Quarantined(record));
            }
            // Give the retry a clean slate on exactly the failed
            // pipelines: degraded outcomes that were checkpointed (e.g. a
            // lost truth source) must be cleared or the next attempt
            // would restore the failure instead of re-scanning.
            clear_degraded(checkpoint);
            clock.sleep_ns(heal.backoff_ns(shard, attempt));
            attempt += 1;
        }
    }

    /// Runs one shard's supervised sweep with per-shard isolation: its own
    /// cancellation child, fresh circuit breakers (rebuilt by
    /// `with_policy`), and its own telemetry registry so latency sketches
    /// never bleed across machines.
    fn sweep_shard(
        &self,
        machine: &mut Machine,
        checkpoint: &mut SweepCheckpoint,
        root: &CancellationToken,
    ) -> SweepReport {
        let policy = self.detector.policy().clone();
        let telemetry = Telemetry::with_clock(policy.clock().clone());
        let detector = self
            .detector
            .clone()
            .with_policy(policy)
            .with_cancellation(root.child())
            .with_telemetry(telemetry);
        match detector.inside_sweep_checkpointed(machine, checkpoint) {
            Ok(report) => report,
            // The sweep itself degrades per pipeline; an Err here means the
            // scanner could not even enter the machine. That is a shard
            // failure, not a fleet failure: synthesize an all-degraded
            // report so the rollups show it.
            Err(e) => entry_failure_report(machine, &e.to_string()),
        }
    }
}

/// Pops the next shard: own deque front first (cache-warm order), then a
/// steal from the back of another worker's deque. Returns the shard and,
/// for a steal, the deque it came from.
fn take_shard(own: usize, queues: &[Mutex<VecDeque<usize>>]) -> Option<(usize, Option<usize>)> {
    if let Some(shard) = queues[own].lock().pop_front() {
        return Some((shard, None));
    }
    let n = queues.len();
    for offset in 1..n {
        let victim = (own + offset) % n;
        if let Some(shard) = queues[victim].lock().pop_back() {
            return Some((shard, Some(victim)));
        }
    }
    None
}

/// Clears a shard checkpoint's degraded pipeline entries so a heal retry
/// re-scans exactly what failed while keeping the healthy pipelines'
/// recorded outcomes.
fn clear_degraded(checkpoint: &mut SweepCheckpoint) {
    for p in Pipeline::ALL {
        let slot = checkpoint.slot_mut(p);
        if slot.as_ref().is_some_and(|cp| cp.status.is_degraded()) {
            *slot = None;
        }
    }
}

/// Rebuilds a [`SweepReport`] from a complete checkpoint — the restored
/// shard's reports and health verbatim, no telemetry, no black boxes.
fn restore_report(checkpoint: &SweepCheckpoint) -> SweepReport {
    SweepReport::from_pipelines(Pipeline::ALL.map(|p| {
        let done = checkpoint.slot(p).clone().expect("complete checkpoint");
        (done.report, done.status)
    }))
}

/// How every pipeline of [`entry_failure_report`] degrades.
const ENTRY_FAILURE: &str = "could not enter machine";

/// The all-degraded report for a machine the scanner could not enter.
fn entry_failure_report(machine: &Machine, reason: &str) -> SweepReport {
    SweepReport::from_pipelines(Pipeline::ALL.map(|p| {
        (
            DiffReport::empty(p.truth_view(), machine.now()),
            PipelineStatus::Degraded {
                reason: format!("{ENTRY_FAILURE}: {reason}"),
            },
        )
    }))
}

/// Whether `report` is an [`entry_failure_report`]: no pipeline ran.
pub(crate) fn entry_failed(report: &SweepReport) -> bool {
    report.health.each().all(|(_, status)| {
        matches!(status, PipelineStatus::Degraded { reason } if reason.starts_with(ENTRY_FAILURE))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::FleetSpec;
    use strider_ghostbuster::{AdvancedSource, ScanPolicy};

    fn scheduler() -> FleetScheduler {
        FleetScheduler::new(
            GhostBuster::new()
                .with_advanced(AdvancedSource::ThreadTable)
                .with_policy(ScanPolicy::supervised()),
        )
    }

    #[test]
    fn sweep_detects_exactly_the_seeded_infections() {
        let mut fleet = FleetRegistry::seeded(&FleetSpec::clean(10, 11).with_infected(5)).unwrap();
        let report = scheduler().with_workers(2).sweep(&mut fleet).unwrap();
        assert_eq!(report.machines, 10);
        assert_eq!(report.swept, 10);
        assert_eq!(report.seeded_infected, 5);
        assert_eq!(report.infected, 5, "{report}");
        assert!(report.unswept.is_empty());
        // All five families are seeded once and each is detected.
        assert_eq!(report.families.len(), 5, "{:?}", report.families);
        for (family, p) in &report.families {
            assert_eq!(p.detected, p.seeded, "family {family} missed");
        }
        // Every detected machine matches the seeded ground truth exactly.
        for result in report.results() {
            assert_eq!(
                result.report.is_infected(),
                result.seeded_infected,
                "{} wrong verdict",
                result.shard
            );
        }
    }

    #[test]
    fn durable_sweep_lays_a_base_under_a_store_that_has_none() {
        let mut fleet = FleetRegistry::seeded(&FleetSpec::clean(3, 7)).unwrap();
        let dir = std::env::temp_dir().join(format!("strider-stray-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let store = RecordStore::open(dir.join("fleet.wal")).unwrap();
        // A valid shard record with no base ahead of it: replay finds no
        // base, so the store is a cold start.
        let stray = FleetCheckpoint::new(&fleet);
        store
            .append(shard_record(0, &stray.shards[0]).as_bytes())
            .unwrap();
        assert!(FleetCheckpoint::resume(&fleet, &store).unwrap().is_none());
        scheduler()
            .sweep_durable(&mut fleet, &store, DurabilityMode::WalAppend)
            .unwrap();
        let state = FleetCheckpoint::resume(&fleet, &store)
            .unwrap()
            .expect("the sweep laid a base record");
        assert!(state.checkpoint.is_complete());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn entry_failure_reports_are_told_apart_from_degraded_sweeps() {
        let mut fleet = FleetRegistry::seeded(&FleetSpec::clean(1, 5)).unwrap();
        let stand_in = entry_failure_report(&fleet.machines()[0].machine, "no such process");
        assert!(entry_failed(&stand_in));
        let report = scheduler().sweep(&mut fleet).unwrap();
        assert!(!entry_failed(&report.results()[0].report));
    }

    #[test]
    fn checkpoint_mismatch_is_rejected() {
        let mut fleet = FleetRegistry::seeded(&FleetSpec::clean(2, 1)).unwrap();
        let other = FleetRegistry::seeded(&FleetSpec::clean(2, 2)).unwrap();
        let mut checkpoint = FleetCheckpoint::new(&other);
        let err = scheduler()
            .sweep_streaming(&mut fleet, &mut checkpoint, |_| FleetControl::Continue)
            .unwrap_err();
        assert_eq!(err, NtStatus::InvalidParameter);
    }

    #[test]
    fn restored_shards_are_not_rescanned() {
        let mut fleet = FleetRegistry::seeded(&FleetSpec::clean(4, 21).with_infected(2)).unwrap();
        let mut checkpoint = FleetCheckpoint::new(&fleet);
        let first = scheduler()
            .sweep_streaming(&mut fleet, &mut checkpoint, |_| FleetControl::Continue)
            .unwrap();
        assert!(checkpoint.is_complete());
        let second = scheduler()
            .sweep_streaming(&mut fleet, &mut checkpoint, |_| FleetControl::Continue)
            .unwrap();
        assert_eq!(second.swept, 4);
        assert!(second
            .results()
            .iter()
            .all(|r| r.disposition == ShardDisposition::Restored));
        assert!(second
            .results()
            .iter()
            .all(|r| r.report.telemetry.is_none()));
        assert_eq!(second.infected, first.infected);
    }
}
