//! The GhostBuster facade: one-call sweeps, outside-the-box flows, and
//! remediation.

use crate::files::FileScanner;
use crate::policy::{Pipeline, PipelineStatus, ScanPolicy, SweepHealth};
use crate::process::{AdvancedSource, ProcessScanner};
use crate::registry::{OutsideRegistryMode, RegistryScanner};
use crate::report::DiffReport;
use crate::snapshot::ViewKind;
use std::fmt;
use strider_hive::prelude::AsepHook;
use strider_kernel::MemoryDump;
use strider_nt_core::{NtStatus, NtString, Tick};
use strider_support::obs::{FlightDump, SpanGuard, Telemetry, TelemetryReport};
use strider_support::prof::PerfReport;
use strider_support::sync::run_isolated;
use strider_support::task::{
    BreakerState, CancellationToken, CircuitBreaker, Deadline, Supervision,
};
use strider_winapi::{CallContext, ChainEntry, Machine};

/// The image name GhostBuster runs under — itself a targetable artifact,
/// which is what motivates the DLL-injection extension.
const GHOSTBUSTER_IMAGE: &str = "ghostbuster.exe";

/// Results of a full sweep across all four resource types.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Hidden-file findings.
    pub files: DiffReport,
    /// Hidden-ASEP findings.
    pub hooks: DiffReport,
    /// Hidden-process findings.
    pub processes: DiffReport,
    /// Hidden-module findings.
    pub modules: DiffReport,
    /// Per-pipeline health: which truth sources were clean, salvaged, or
    /// lost entirely. A degraded pipeline contributes an empty [`DiffReport`]
    /// above — check here before trusting its silence.
    pub health: SweepHealth,
    /// The telemetry captured during the sweep, when the detector was built
    /// with [`GhostBuster::with_telemetry`].
    pub telemetry: Option<TelemetryReport>,
    /// Flight-recorder black boxes, one per pipeline that ended degraded
    /// (timed out, cancelled, panicked, breaker-rejected, or truth-source
    /// lost): the recorder tail snapshotted at the failure, ending with
    /// the failure itself. Empty when every pipeline ran clean or no
    /// telemetry was attached.
    pub black_boxes: Vec<(String, FlightDump)>,
}

impl SweepReport {
    /// A report from each pipeline's diff and status, in [`Pipeline::ALL`]
    /// order, with no telemetry and no black boxes.
    pub fn from_pipelines(outcomes: [(DiffReport, PipelineStatus); 4]) -> Self {
        let [files, hooks, processes, modules] = outcomes;
        SweepReport {
            files: files.0,
            hooks: hooks.0,
            processes: processes.0,
            modules: modules.0,
            health: SweepHealth {
                files: files.1,
                registry: hooks.1,
                processes: processes.1,
                modules: modules.1,
            },
            telemetry: None,
            black_boxes: Vec::new(),
        }
    }

    /// One pipeline's diff report.
    pub fn diff(&self, pipeline: Pipeline) -> &DiffReport {
        match pipeline {
            Pipeline::Files => &self.files,
            Pipeline::Registry => &self.hooks,
            Pipeline::Processes => &self.processes,
            Pipeline::Modules => &self.modules,
        }
    }

    fn diffs(&self) -> impl Iterator<Item = &DiffReport> {
        Pipeline::ALL.into_iter().map(|p| self.diff(p))
    }

    /// The black box snapshotted when `pipeline` degraded, if any.
    pub fn black_box(&self, pipeline: &str) -> Option<&FlightDump> {
        self.black_boxes
            .iter()
            .find(|(name, _)| name == pipeline)
            .map(|(_, dump)| dump)
    }

    /// Whether anything suspicious (post-noise-classification) was found.
    pub fn is_infected(&self) -> bool {
        self.diffs().any(|d| !d.net_detections().is_empty())
    }

    /// Total suspicious findings.
    pub fn suspicious_count(&self) -> usize {
        self.diffs().map(|d| d.net_detections().len()).sum()
    }

    /// Wall time each pipeline spent scanning (summed across stabilization
    /// passes), keyed by pipeline name, read from the sweep's telemetry
    /// span forest. Empty when the sweep ran without telemetry; a pipeline
    /// that never scanned (restored from a checkpoint, breaker-rejected
    /// before its span opened) reports 0.
    pub fn pipeline_durations(&self) -> std::collections::BTreeMap<String, u64> {
        let mut durations = std::collections::BTreeMap::new();
        if let Some(report) = &self.telemetry {
            let totals = report.phase_totals();
            for pipeline in Pipeline::ALL {
                let span_name = format!("{pipeline}.scan_inside");
                durations.insert(
                    pipeline.to_string(),
                    totals.get(&span_name).map_or(0, |t| t.total_ns),
                );
            }
        }
        durations
    }

    /// Total findings classified [`NoiseClass::Flickering`](crate::report::NoiseClass::Flickering) — resources
    /// that appeared and vanished across quorum passes, the signature of
    /// scan-aware evasive hiding. Zero on any sweep run without
    /// [`EvasionHardening`](crate::policy::EvasionHardening) (single-shot
    /// diffs cannot observe flicker).
    pub fn flicker_score(&self) -> usize {
        self.diffs().map(DiffReport::flicker_score).sum()
    }

    /// The sweep's critical-path attribution report — self-time hotspots,
    /// the longest root-to-leaf span chain, and the work/wait/alloc
    /// decomposition — computed over the captured telemetry span forest.
    /// `label` names the analysis (and any `SCAN_PERF_<label>.json` export
    /// via [`PerfReport::write_json_in`]). `None` when the sweep ran without
    /// telemetry: there is no span tree to attribute.
    pub fn perf_report(&self, label: &str) -> Option<PerfReport> {
        self.telemetry
            .as_ref()
            .map(|report| PerfReport::from_telemetry(label, report))
    }

    /// Total noise-classified findings (false-positive candidates).
    pub fn noise_count(&self) -> usize {
        self.diffs().map(|d| d.noise_detections().len()).sum()
    }
}

impl fmt::Display for SweepReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "GhostBuster sweep: {} suspicious, {} noise",
            self.suspicious_count(),
            self.noise_count()
        )?;
        // Output is byte-identical to the pre-policy report when every
        // pipeline ran clean.
        if !self.health.is_all_ok() {
            writeln!(f, "health: {}", self.health)?;
        }
        // Likewise only degraded sweeps carry (and print) black boxes.
        for (name, dump) in &self.black_boxes {
            match dump.last() {
                Some(event) => writeln!(
                    f,
                    "black box {name}: {} events, last: {} {}",
                    dump.len(),
                    event.kind,
                    event.what
                )?,
                None => writeln!(f, "black box {name}: empty")?,
            }
        }
        for report in self.diffs() {
            write!(f, "{report}")?;
        }
        // Output is byte-identical to the untelemetered report when
        // telemetry is disabled.
        if let Some(telemetry) = &self.telemetry {
            for line in telemetry.summary_lines(2) {
                writeln!(f, "{line}")?;
            }
            // Attribution rides below the span summary so existing
            // consumers see strictly appended lines.
            write!(
                f,
                "{}",
                PerfReport::from_telemetry("sweep", telemetry).render()
            )?;
        }
        Ok(())
    }
}

/// One finished pipeline's persisted outcome, as stored in a
/// [`SweepCheckpoint`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineCheckpoint {
    /// The pipeline's diff report.
    pub report: DiffReport,
    /// The pipeline's health verdict.
    pub status: PipelineStatus,
}

strider_support::impl_json!(struct PipelineCheckpoint { report, status });

/// Durable progress of an inside sweep: each pipeline's outcome is recorded
/// here as soon as it finishes (interrupted pipelines are *not* recorded —
/// a timeout or cancellation is a reason to re-run, not a result).
///
/// Serialize with [`SweepCheckpoint::serialize`] after a sweep dies, and
/// hand the parsed checkpoint back to
/// [`GhostBuster::inside_sweep_checkpointed`] to re-run only the unfinished
/// pipelines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepCheckpoint {
    /// The machine the sweep was observing — resuming against a different
    /// machine is rejected.
    pub machine: String,
    /// The machine clock when the sweep started.
    pub taken_at: Tick,
    /// The file pipeline's outcome, once finished.
    pub files: Option<PipelineCheckpoint>,
    /// The Registry pipeline's outcome, once finished.
    pub registry: Option<PipelineCheckpoint>,
    /// The process pipeline's outcome, once finished.
    pub processes: Option<PipelineCheckpoint>,
    /// The module pipeline's outcome, once finished.
    pub modules: Option<PipelineCheckpoint>,
}

strider_support::impl_json!(
    struct SweepCheckpoint { machine, taken_at, files, registry, processes, modules }
);

impl SweepCheckpoint {
    /// An empty checkpoint for a fresh sweep of `machine`.
    pub fn new(machine: &Machine) -> Self {
        SweepCheckpoint {
            machine: machine.name().to_string(),
            taken_at: machine.now(),
            files: None,
            registry: None,
            processes: None,
            modules: None,
        }
    }

    /// One pipeline's recorded outcome.
    pub fn slot(&self, pipeline: Pipeline) -> &Option<PipelineCheckpoint> {
        match pipeline {
            Pipeline::Files => &self.files,
            Pipeline::Registry => &self.registry,
            Pipeline::Processes => &self.processes,
            Pipeline::Modules => &self.modules,
        }
    }

    /// One pipeline's recorded outcome, mutably.
    pub fn slot_mut(&mut self, pipeline: Pipeline) -> &mut Option<PipelineCheckpoint> {
        match pipeline {
            Pipeline::Files => &mut self.files,
            Pipeline::Registry => &mut self.registry,
            Pipeline::Processes => &mut self.processes,
            Pipeline::Modules => &mut self.modules,
        }
    }

    /// Whether every pipeline has a recorded outcome.
    pub fn is_complete(&self) -> bool {
        Pipeline::ALL.into_iter().all(|p| self.slot(p).is_some())
    }

    /// The pipelines still to run, in sweep order.
    pub fn unfinished(&self) -> Vec<&'static str> {
        Pipeline::ALL
            .into_iter()
            .filter(|&p| self.slot(p).is_none())
            .map(Pipeline::name)
            .collect()
    }

    /// Renders the checkpoint as a JSON document.
    pub fn serialize(&self) -> String {
        use strider_support::json::ToJson;
        self.to_json().render()
    }

    /// Parses a checkpoint from [`SweepCheckpoint::serialize`] output.
    ///
    /// # Errors
    ///
    /// Fails on malformed JSON or a document that is not a checkpoint.
    pub fn deserialize(text: &str) -> Result<Self, strider_support::json::JsonError> {
        use strider_support::json::{FromJson, JsonValue};
        Self::from_json(&JsonValue::parse(text)?)
    }
}

/// The four per-pipeline circuit breakers of a supervised sweep. Clones
/// share breaker state, so the same `SweepBreakers` (via a cloned
/// [`GhostBuster`]) accumulates failures across successive sweeps.
#[derive(Debug, Clone)]
pub struct SweepBreakers([CircuitBreaker; 4]);

impl SweepBreakers {
    /// Breakers configured from the policy's threshold/cool-down knobs,
    /// ticking on the policy clock.
    fn from_policy(policy: &ScanPolicy) -> Self {
        SweepBreakers(Pipeline::ALL.map(|_| {
            CircuitBreaker::new(
                policy.clock().clone(),
                policy.breaker_threshold,
                policy.breaker_cooldown_ns,
            )
        }))
    }

    fn get(&self, pipeline: Pipeline) -> &CircuitBreaker {
        &self.0[pipeline as usize]
    }

    /// One pipeline's breaker state.
    pub fn state_of(&self, pipeline: Pipeline) -> BreakerState {
        self.get(pipeline).state()
    }
}

/// One pipeline's scan, re-run once per stabilization or quorum pass.
type PipelineScan<'a> = Box<dyn FnMut() -> Result<DiffReport, NtStatus> + Send + 'a>;

/// What one supervised pipeline run produced. `interrupted` marks a timeout
/// or cancellation: the pipeline's (empty) report still flows into the
/// sweep, but the outcome is not checkpointed — resuming re-runs it.
struct PipelineOutcome {
    report: DiffReport,
    status: PipelineStatus,
    interrupted: bool,
    /// The flight-recorder tail at the moment of failure; `None` for
    /// pipelines that completed (black boxes are for degradation only).
    flight: Option<FlightDump>,
}

impl PipelineOutcome {
    fn save(&self, slot: &mut Option<PipelineCheckpoint>) {
        if !self.interrupted {
            *slot = Some(PipelineCheckpoint {
                report: self.report.clone(),
                status: self.status.clone(),
            });
        }
    }
}

/// Why a pipeline produced no report.
enum Degradation {
    /// Its open circuit breaker rejected it.
    Rejected,
    /// It failed; `opened_breaker` when this failure tripped its breaker.
    Failed {
        reason: String,
        opened_breaker: bool,
    },
}

/// The detector.
///
/// # Examples
///
/// ```
/// use strider_ghostbuster::GhostBuster;
/// use strider_ghostware::{Ghostware, HackerDefender};
/// use strider_winapi::Machine;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut machine = Machine::with_base_system("victim")?;
/// HackerDefender::default().infect(&mut machine)?;
/// let report = GhostBuster::new().inside_sweep(&mut machine)?;
/// assert!(report.is_infected());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct GhostBuster {
    files: FileScanner,
    registry: RegistryScanner,
    processes: ProcessScanner,
    advanced: Option<AdvancedSource>,
    telemetry: Telemetry,
    policy: ScanPolicy,
    cancellation: CancellationToken,
    breakers: Option<SweepBreakers>,
}

impl GhostBuster {
    /// Creates a detector in normal mode (Active Process List truth).
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables advanced mode: the process truth additionally traverses the
    /// given kernel structure, defeating DKOM.
    pub fn with_advanced(mut self, source: AdvancedSource) -> Self {
        self.advanced = Some(source);
        self
    }

    /// Replaces the resilience policy, threading it through every scanner:
    /// transient low-level read failures are retried with backoff, damaged
    /// truth images are salvage-parsed, cross-view diffs are re-run until
    /// two consecutive passes agree, and a pipeline whose truth source is
    /// unrecoverable is marked [`PipelineStatus::Degraded`] in the sweep's
    /// [`SweepHealth`] instead of failing the other three.
    pub fn with_policy(mut self, policy: ScanPolicy) -> Self {
        self.files = self.files.with_policy(policy.clone());
        self.registry = self.registry.with_policy(policy.clone());
        self.breakers = (policy.breaker_threshold > 0).then(|| SweepBreakers::from_policy(&policy));
        self.policy = policy;
        self
    }

    /// Hands the detector an externally owned cancellation token: cancelling
    /// it (from any thread) makes every in-flight pipeline stop at its next
    /// checkpoint and land as [`PipelineStatus::Degraded`].
    pub fn with_cancellation(mut self, token: CancellationToken) -> Self {
        self.cancellation = token;
        self
    }

    /// The cancellation token sweeps observe.
    pub fn cancellation(&self) -> &CancellationToken {
        &self.cancellation
    }

    /// The resilience policy in use.
    pub fn policy(&self) -> &ScanPolicy {
        &self.policy
    }

    /// The per-pipeline circuit breakers, when the policy armed them
    /// (`breaker_threshold > 0`).
    pub fn breakers(&self) -> Option<&SweepBreakers> {
        self.breakers.as_ref()
    }

    /// Threads one telemetry registry through every scanner, and attaches
    /// the captured [`TelemetryReport`] to each sweep's [`SweepReport`].
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.files = self.files.with_telemetry(telemetry.clone());
        self.registry = self.registry.with_telemetry(telemetry.clone());
        self.processes = self.processes.with_telemetry(telemetry.clone());
        self.telemetry = telemetry;
        self
    }

    /// The file scanner in use.
    pub fn file_scanner(&self) -> &FileScanner {
        &self.files
    }

    /// The Registry scanner in use.
    pub fn registry_scanner(&self) -> &RegistryScanner {
        &self.registry
    }

    /// The process scanner in use.
    pub fn process_scanner(&self) -> &ProcessScanner {
        &self.processes
    }

    /// Enters the machine as the `ghostbuster.exe` process.
    ///
    /// # Errors
    ///
    /// Propagates spawn failures.
    pub fn enter(&self, machine: &mut Machine) -> Result<CallContext, NtStatus> {
        machine.ensure_process(
            GHOSTBUSTER_IMAGE,
            "C:\\Program Files\\strider\\ghostbuster.exe",
        )
    }

    /// Inside-the-box hidden-file detection.
    ///
    /// # Errors
    ///
    /// Propagates scan failures.
    pub fn scan_files_inside(&self, machine: &mut Machine) -> Result<DiffReport, NtStatus> {
        let ctx = self.enter(machine)?;
        self.files.scan_inside(machine, &ctx)
    }

    /// Inside-the-box hidden-ASEP detection.
    ///
    /// # Errors
    ///
    /// Propagates scan failures.
    pub fn scan_registry_inside(&self, machine: &mut Machine) -> Result<DiffReport, NtStatus> {
        let ctx = self.enter(machine)?;
        self.registry.scan_inside(machine, &ctx)
    }

    /// Inside-the-box hidden-process detection (honours advanced mode).
    ///
    /// # Errors
    ///
    /// Propagates scan failures.
    pub fn scan_processes_inside(&self, machine: &mut Machine) -> Result<DiffReport, NtStatus> {
        let ctx = self.enter(machine)?;
        self.processes.scan_inside(machine, &ctx, self.advanced)
    }

    /// Inside-the-box hidden-module detection.
    ///
    /// # Errors
    ///
    /// Propagates scan failures.
    pub fn scan_modules_inside(&self, machine: &mut Machine) -> Result<DiffReport, NtStatus> {
        let ctx = self.enter(machine)?;
        self.processes.scan_modules_inside(machine, &ctx)
    }

    /// The sweep's root supervision scope: the detector's cancellation
    /// token, plus the whole-sweep deadline when the policy budgets one.
    fn root_supervision(&self) -> Supervision {
        let deadline = self
            .policy
            .sweep_budget_ns
            .map(|budget| Deadline::after(self.policy.clock().clone(), budget));
        Supervision::new(self.cancellation.clone(), deadline)
    }

    /// An empty report for `view` at `at` standing in for a lost pipeline,
    /// counted on `sweep.degraded.<pipeline>`, with a black box whose
    /// final event is the failure.
    fn degraded(
        &self,
        pipeline: Pipeline,
        view: ViewKind,
        at: Tick,
        degradation: Degradation,
    ) -> PipelineOutcome {
        let name = pipeline.name();
        let recorder = self.telemetry.recorder();
        self.telemetry
            .counter_add(format_args!("sweep.degraded.{pipeline}"), 1);
        let reason = match degradation {
            Degradation::Rejected => {
                recorder.breaker(name, "circuit breaker open: pipeline rejected");
                "circuit breaker open".to_string()
            }
            Degradation::Failed {
                reason,
                opened_breaker,
            } => {
                if opened_breaker {
                    self.telemetry.counter_add("breaker.open", 1);
                    recorder.breaker(name, "opened after repeated failures");
                }
                recorder.mark(name, &format!("pipeline degraded: {reason}"));
                reason
            }
        };
        PipelineOutcome {
            report: DiffReport::empty(view, at),
            status: PipelineStatus::Degraded { reason },
            interrupted: false,
            flight: self.telemetry.is_on().then(|| recorder.snapshot()),
        }
    }

    /// Closes the sweep's span and assembles its report.
    fn finish_sweep(
        &self,
        span: SpanGuard,
        outcomes: [(DiffReport, PipelineStatus); 4],
        black_boxes: Vec<(String, FlightDump)>,
    ) -> SweepReport {
        drop(span);
        let mut report = SweepReport::from_pipelines(outcomes);
        report.telemetry = self.telemetry.is_on().then(|| self.telemetry.report());
        report.black_boxes = black_boxes;
        report
    }

    /// Runs one pipeline as a supervised task: gated by its circuit breaker,
    /// isolated on its own thread (a panicking parser degrades one pipeline,
    /// not the sweep), stabilization passes inside, and on any unrecoverable
    /// error an empty report marked degraded — the sweep's
    /// graceful-degradation seam.
    fn run_pipeline(
        &self,
        pipeline: Pipeline,
        now: Tick,
        span: &SpanGuard,
        scan: impl FnMut() -> Result<DiffReport, NtStatus> + Send,
    ) -> PipelineOutcome {
        let name = pipeline.name();
        let breaker = self.breakers.as_ref().map(|b| b.get(pipeline));
        let recorder = self.telemetry.recorder();
        if breaker.is_some_and(|b| !b.try_acquire()) {
            return self.degraded(pipeline, pipeline.truth_view(), now, Degradation::Rejected);
        }
        let degrade = |reason: String, interrupted: bool| {
            let opened_breaker = breaker.is_some_and(|b| b.record_failure() == BreakerState::Open);
            let failed = Degradation::Failed {
                reason,
                opened_breaker,
            };
            PipelineOutcome {
                interrupted,
                ..self.degraded(pipeline, pipeline.truth_view(), now, failed)
            }
        };
        // `quorum_diff` is plain stabilization when hardening is off, and
        // majority-vote flicker scoring over K passes when it is armed.
        match run_isolated(name, || self.policy.quorum_diff(scan)) {
            Ok(Ok(report)) => {
                if let Some(b) = breaker {
                    b.record_success();
                }
                let status = pipeline_status(report.truth_meta.io.defects);
                PipelineOutcome {
                    report,
                    status,
                    interrupted: false,
                    flight: None,
                }
            }
            Ok(Err(e)) => {
                let interrupted = matches!(e, NtStatus::TimedOut | NtStatus::Cancelled);
                if e == NtStatus::TimedOut {
                    self.telemetry.counter_add("sweep.timeouts", 1);
                    recorder.cancel(name, "pipeline budget exhausted");
                }
                if e == NtStatus::Cancelled {
                    span.set_attr("cancelled_at", name);
                    recorder.cancel(name, "cancellation observed at checkpoint");
                }
                degrade(e.to_string(), interrupted)
            }
            Err(panic_msg) => {
                let reason = format!("panicked: {panic_msg}");
                recorder.fault(name, &reason);
                degrade(reason, false)
            }
        }
    }

    /// The full inside-the-box sweep: files, ASEPs, processes, modules.
    ///
    /// Each pipeline runs as an independently supervised task: on its own
    /// thread, under its own deadline (the tighter of the policy's pipeline
    /// and sweep budgets), observing the detector's cancellation token, and
    /// gated by its circuit breaker when the policy arms them. A pipeline
    /// whose truth source fails permanently — or that times out, is
    /// cancelled, or panics — no longer aborts the sweep: it yields an empty
    /// report and a [`PipelineStatus::Degraded`] entry in
    /// [`SweepReport::health`], while the remaining pipelines scan normally.
    ///
    /// # Errors
    ///
    /// Fails only when the scanner cannot even enter the machine.
    pub fn inside_sweep(&self, machine: &mut Machine) -> Result<SweepReport, NtStatus> {
        let mut checkpoint = SweepCheckpoint::new(machine);
        self.inside_sweep_checkpointed(machine, &mut checkpoint)
    }

    /// [`GhostBuster::inside_sweep`], checkpoint-aware: pipelines with an
    /// outcome already recorded in `checkpoint` are *not* re-run (their
    /// reports are restored verbatim, and no scan spans are emitted for
    /// them); the rest run normally and record their outcomes into
    /// `checkpoint` as they finish. Serialize the checkpoint if the sweep
    /// dies and pass it back here to resume.
    ///
    /// # Errors
    ///
    /// [`NtStatus::InvalidParameter`] when the checkpoint was taken on a
    /// different machine; otherwise as [`GhostBuster::inside_sweep`].
    pub fn inside_sweep_checkpointed(
        &self,
        machine: &mut Machine,
        checkpoint: &mut SweepCheckpoint,
    ) -> Result<SweepReport, NtStatus> {
        if checkpoint.machine != machine.name() {
            return Err(NtStatus::InvalidParameter);
        }
        let span = self.telemetry.span("sweep.inside");
        // The machine's low-level read paths log injected faults into the
        // sweep's black box, so a degraded pipeline's dump shows the
        // device-level trouble that led up to the failure.
        if self.telemetry.is_on() {
            machine.set_flight_recorder(self.telemetry.recorder().clone());
        }
        let ctx = &self.enter(machine)?;
        let machine = &*machine;
        let now = machine.now();
        let root = self.root_supervision();
        let clock = self.policy.clock().clone();
        let budget = self.policy.pipeline_budget_ns;
        let mut black_boxes: Vec<(String, FlightDump)> = Vec::new();

        // Hardened sweeps run the pipelines in a seed-derived order, so an
        // adversary watching the query stream cannot rely on "files first,
        // modules last" to schedule its lies. The order is a pure function
        // of the hardening seed — fixed seed, byte-identical sweep.
        let mut order = Pipeline::ALL;
        if let Some(h) = self.policy.hardening {
            h.stream("pipeline-order").shuffle(&mut order);
        }
        let mut outcomes: [Option<(DiffReport, PipelineStatus)>; 4] = Default::default();
        for p in order {
            let outcome = match checkpoint.slot(p) {
                Some(done) => (done.report.clone(), done.status.clone()),
                None => {
                    // Only the scanner call differs per pipeline. The scanner
                    // is cloned once per run, so its stabilization or quorum
                    // passes share one deadline and one pass counter.
                    let sup = root.child(clock.clone(), budget);
                    let scan: PipelineScan<'_> = match p {
                        Pipeline::Files => {
                            let s = self.files.clone().with_supervision(sup);
                            Box::new(move || s.scan_inside(machine, ctx))
                        }
                        Pipeline::Registry => {
                            let s = self.registry.clone().with_supervision(sup);
                            Box::new(move || s.scan_inside(machine, ctx))
                        }
                        Pipeline::Processes => {
                            let s = self.processes.clone().with_supervision(sup);
                            Box::new(move || s.scan_inside(machine, ctx, self.advanced))
                        }
                        Pipeline::Modules => {
                            let s = self.processes.clone().with_supervision(sup);
                            Box::new(move || s.scan_modules_inside(machine, ctx))
                        }
                    };
                    let outcome = self.run_pipeline(p, now, &span, scan);
                    outcome.save(checkpoint.slot_mut(p));
                    black_boxes.extend(outcome.flight.map(|flight| (p.to_string(), flight)));
                    (outcome.report, outcome.status)
                }
            };
            outcomes[p as usize] = Some(outcome);
        }
        let outcomes = outcomes.map(|outcome| outcome.expect("every pipeline ran or was restored"));
        Ok(self.finish_sweep(span, outcomes, black_boxes))
    }

    /// The WinPE CD outside-the-box flow: take the high-level scans and a
    /// crash dump now, reboot (`reboot_ticks` of service churn — the paper's
    /// 1.5–3 minutes), then scan the captured disk from the clean OS and
    /// diff against the pre-reboot high-level views.
    ///
    /// # Errors
    ///
    /// Propagates scan failures.
    pub fn winpe_outside_sweep(
        &self,
        machine: &mut Machine,
        reboot_ticks: u64,
    ) -> Result<SweepReport, NtStatus> {
        let span = self.telemetry.span("sweep.outside");
        span.set_attr("reboot_ticks", reboot_ticks);
        if self.telemetry.is_on() {
            machine.set_flight_recorder(self.telemetry.recorder().clone());
        }
        let mut black_boxes: Vec<(String, FlightDump)> = Vec::new();
        let ctx = self.enter(machine)?;
        // Under a hardened policy the pre-reboot lie is the *intersection*
        // of K captures: ghostware that hides intermittently (flicker
        // tactics) only has to dodge one capture to dodge a single-shot
        // lie, but dodging all K means being visible in every one — and
        // any resource it hid even once lands truth-only in the diff.
        let quorum = self.policy.hardening.map_or(1, |h| h.passes());
        let mut file_caps = Vec::with_capacity(quorum as usize);
        let mut hook_caps = Vec::with_capacity(quorum as usize);
        let mut proc_caps = Vec::with_capacity(quorum as usize);
        let mut module_caps = Vec::with_capacity(quorum as usize);
        for _ in 0..quorum {
            file_caps.push(self.files.high_scan(machine, &ctx, ChainEntry::Win32)?);
            hook_caps.push(self.registry.high_scan(machine, &ctx, ChainEntry::Win32));
            proc_caps.push(self.processes.high_scan(machine, &ctx, ChainEntry::Win32)?);
            module_caps.push(
                self.processes
                    .high_module_scan(machine, &ctx, ChainEntry::Win32)?,
            );
        }
        let file_lie = intersect_captures(file_caps);
        let hook_lie = intersect_captures(hook_caps);
        let proc_lie = intersect_captures(proc_caps);
        let module_lie = intersect_captures(module_caps);
        // The dump is captured pre-reboot, while the ghostware (and any
        // injected dump faults) are live: transient failures are retried,
        // stalled reads polled under the sweep's supervision, and a damaged
        // dump salvaged per the policy. A permanently failing or
        // unparseable dump degrades the two volatile pipelines only.
        let dump = self
            .policy
            .supervised_retry(&self.root_supervision(), || machine.try_crash_dump())
            .and_then(|bytes| {
                self.policy
                    .parse_image(&bytes, MemoryDump::parse, MemoryDump::parse_salvage)
            });

        machine.tick(reboot_ticks);
        let image = machine.snapshot_disk()?;
        let mut degrade = |pipeline: Pipeline, view: ViewKind, error: NtStatus| {
            let failed = Degradation::Failed {
                reason: error.to_string(),
                opened_breaker: false,
            };
            let lost = self.degraded(pipeline, view, image.taken_at, failed);
            black_boxes.extend(lost.flight.map(|flight| (pipeline.to_string(), flight)));
            (lost.report, lost.status)
        };
        let completed = |report: DiffReport| {
            let status = pipeline_status(report.truth_meta.io.defects);
            (report, status)
        };

        let files = match self.files.outside_scan(&image) {
            Ok(file_truth) => completed(self.files.diff(&file_truth, &file_lie)),
            Err(e) => degrade(Pipeline::Files, ViewKind::OutsideDisk, e),
        };
        let hooks = match self
            .registry
            .outside_scan(&image, OutsideRegistryMode::MountedWin32)
        {
            Ok(hook_truth) => completed(self.registry.diff(&hook_truth, &hook_lie)),
            Err(e) => degrade(Pipeline::Registry, ViewKind::OutsideMountedHives, e),
        };
        let [processes, modules] = match dump {
            Ok((dump, dump_defects)) => {
                let mut proc_truth = self.processes.outside_scan(&dump, self.advanced.is_some());
                // A dump holds no time: date it with the disk image, as modules are.
                proc_truth.meta.taken_at = image.taken_at;
                let module_truth =
                    self.processes
                        .outside_module_scan(&dump, &proc_lie, image.taken_at);
                let status = pipeline_status(dump_defects);
                [
                    (self.processes.diff(&proc_truth, &proc_lie), status.clone()),
                    (
                        self.processes.diff_modules(&module_truth, &module_lie),
                        status,
                    ),
                ]
            }
            Err(e) => [
                degrade(Pipeline::Processes, ViewKind::OutsideDump, e.clone()),
                degrade(Pipeline::Modules, ViewKind::OutsideDump, e),
            ],
        };
        Ok(self.finish_sweep(span, [files, hooks, processes, modules], black_boxes))
    }

    /// The VM-based outside flow of Section 5: the guest is paused rather
    /// than rebooted, so both scans describe *exactly* the same disk image —
    /// zero time gap, zero false positives.
    ///
    /// # Errors
    ///
    /// Propagates scan failures.
    pub fn vm_outside_files(&self, machine: &mut Machine) -> Result<DiffReport, NtStatus> {
        let ctx = self.enter(machine)?;
        let lie = self.files.high_scan(machine, &ctx, ChainEntry::Win32)?;
        // "Power down" the VM: no further ticks happen before capture.
        let image = machine.snapshot_disk()?;
        let truth = self.files.outside_scan(&image)?;
        Ok(self.files.diff(&truth, &lie))
    }

    /// The fully-automated VM flow, exchanging the guest's scan through a
    /// scan-result *file* exactly as Section 5 describes: the guest scans and
    /// serializes, the host "powers down" the VM, grabs the released drive,
    /// parses the guest's file, and diffs.
    ///
    /// # Errors
    ///
    /// Propagates scan and parse failures.
    pub fn vm_outside_files_via_scanfile(
        &self,
        machine: &mut Machine,
    ) -> Result<DiffReport, NtStatus> {
        // Inside the guest: high-level scan, saved to the result file.
        let ctx = self.enter(machine)?;
        let guest_scan = self.files.high_scan(machine, &ctx, ChainEntry::Win32)?;
        let result_file = crate::scanfile::write_scan_file(&guest_scan);

        // Host side: power down, take the drive, parse the guest's file.
        let image = machine.snapshot_disk()?;
        let lie = crate::scanfile::parse_scan_file(&result_file)
            .map_err(|e| NtStatus::CorruptStructure(e.to_string()))?;
        let truth = self.files.outside_scan(&image)?;
        Ok(self.files.diff(&truth, &lie))
    }

    /// Computes the hidden ASEP hooks (the structured form of
    /// [`GhostBuster::scan_registry_inside`]) for remediation.
    ///
    /// # Errors
    ///
    /// Propagates scan failures.
    pub fn hidden_hooks(&self, machine: &mut Machine) -> Result<Vec<AsepHook>, NtStatus> {
        let ctx = self.enter(machine)?;
        let lie = self.registry.high_scan(machine, &ctx, ChainEntry::Win32);
        let truth = self.registry.low_scan(machine)?;
        Ok(truth
            .iter()
            .filter(|(key, _)| !lie.contains(key))
            .map(|(_, hook)| hook.clone())
            .collect())
    }

    /// Deletes the Registry entries behind hidden hooks — the paper's
    /// removal story: "it locates the Registry keys that can be deleted to
    /// disable the ghostware after a reboot". Returns how many were removed.
    pub fn remediate_hooks(&self, machine: &mut Machine, hooks: &[AsepHook]) -> usize {
        let catalog_paths: Vec<_> = self
            .registry
            .catalog()
            .iter()
            .map(|l| l.key_path.clone())
            .collect();
        let mut removed = 0;
        for hook in hooks {
            let is_subkey_hook = !catalog_paths
                .iter()
                .any(|p| p.eq_ignore_case(&hook.key_path));
            let ok = if is_subkey_hook {
                machine.registry_mut().delete_key(&hook.key_path).is_ok()
            } else {
                machine
                    .registry_mut()
                    .delete_value(&hook.key_path, &NtString::from(hook.entry.as_str()))
                    .is_ok()
            };
            if ok {
                removed += 1;
            }
        }
        removed
    }
}

/// Intersects repeated lie captures by identity key: a resource absent from
/// *any* capture was hidden at some point during the window, so it must not
/// count as honestly visible. Flicker-hiding ghostware that dodges a single
/// pre-reboot capture by coin-flip cannot dodge the intersection of K. The
/// final capture supplies the metadata: each `high_scan` starts a fresh
/// [`ScanMeta`](crate::snapshot::ScanMeta), so its I/O totals count that
/// capture's own work only, as the inside quorum's report counts its last
/// pass.
fn intersect_captures<T: Clone>(
    mut captures: Vec<crate::snapshot::Snapshot<T>>,
) -> crate::snapshot::Snapshot<T> {
    let last = captures.pop().expect("at least one lie capture");
    if captures.is_empty() {
        return last;
    }
    let kept = last
        .iter()
        .filter(|(key, _)| captures.iter().all(|earlier| earlier.contains(key)))
        .map(|(key, fact)| (key.clone(), fact.clone()))
        .collect();
    crate::snapshot::Snapshot::from_facts(last.meta.clone(), kept)
}

/// A completed pipeline's status: clean, or salvaged with however many
/// defects its truth-side parse recorded.
fn pipeline_status(defects: u64) -> PipelineStatus {
    match defects {
        0 => PipelineStatus::Ok,
        defects => PipelineStatus::Salvaged { defects },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strider_ghostware::{Ghostware, HackerDefender};

    #[test]
    fn inside_sweep_on_clean_machine_is_clean() {
        let mut m = Machine::with_base_system("clean").unwrap();
        let report = GhostBuster::new().inside_sweep(&mut m).unwrap();
        assert!(!report.is_infected());
        assert_eq!(report.suspicious_count(), 0);
    }

    #[test]
    fn inside_sweep_detects_hxdef_everywhere() {
        let mut m = Machine::with_base_system("victim").unwrap();
        HackerDefender::default().infect(&mut m).unwrap();
        let report = GhostBuster::new().inside_sweep(&mut m).unwrap();
        assert!(report.is_infected());
        assert!(report.files.has_detections());
        assert!(report.hooks.has_detections());
        assert!(report.processes.has_detections());
        let rendered = report.to_string();
        assert!(rendered.contains("suspicious"));
    }

    #[test]
    fn sweep_with_telemetry_attaches_report_and_phase_summary() {
        let mut m = Machine::with_base_system("victim").unwrap();
        HackerDefender::default().infect(&mut m).unwrap();
        let telemetry = Telemetry::new();
        let report = GhostBuster::new()
            .with_telemetry(telemetry)
            .inside_sweep(&mut m)
            .unwrap();
        let captured = report.telemetry.as_ref().expect("telemetry attached");
        let sweep = captured.find_span("sweep.inside").unwrap();
        for child in [
            "files.scan_inside",
            "registry.scan_inside",
            "processes.scan_inside",
            "modules.scan_inside",
        ] {
            assert!(sweep.child(child).is_some(), "missing {child}");
        }
        let rendered = report.to_string();
        assert!(rendered.contains("sweep.inside"), "{rendered}");

        // Without telemetry the Display output carries no phase lines.
        let plain = GhostBuster::new().inside_sweep(&mut m).unwrap().to_string();
        assert!(!plain.contains("sweep.inside"));
    }

    #[test]
    fn winpe_flow_detects_hxdef_with_bounded_noise() {
        let mut m = Machine::with_base_system("victim").unwrap();
        strider_workload::services::install_standard_services(&mut m, false);
        m.tick(400); // the machine has been running for a while
        HackerDefender::default().infect(&mut m).unwrap();
        let report = GhostBuster::new().winpe_outside_sweep(&mut m, 150).unwrap();
        assert!(report.is_infected());
        assert!(report
            .files
            .net_detections()
            .iter()
            .any(|d| d.detail.contains("hxdef100.exe")));
        assert!(
            report.noise_count() <= 8,
            "noise bounded: {}",
            report.noise_count()
        );
    }

    #[test]
    fn vm_flow_has_zero_false_positives_on_clean_machine() {
        let mut m = Machine::with_base_system("clean").unwrap();
        strider_workload::services::install_standard_services(&mut m, true);
        m.tick(1);
        let report = GhostBuster::new().vm_outside_files(&mut m).unwrap();
        assert!(!report.has_detections(), "{report}");
    }

    #[test]
    fn remediation_deletes_hidden_hooks() {
        let mut m = Machine::with_base_system("victim").unwrap();
        HackerDefender::default().infect(&mut m).unwrap();
        let gb = GhostBuster::new();
        let hooks = gb.hidden_hooks(&mut m).unwrap();
        assert_eq!(hooks.len(), 2);
        let removed = gb.remediate_hooks(&mut m, &hooks);
        assert_eq!(removed, 2);
        assert!(!m.registry().key_exists(
            &"HKLM\\SYSTEM\\CurrentControlSet\\Services\\HackerDefender100"
                .parse()
                .unwrap()
        ));
        // Re-scan: the hooks are gone from the truth too.
        let hooks = gb.hidden_hooks(&mut m).unwrap();
        assert!(hooks.is_empty());
    }

    /// Two hardened sweeps on the fake clock, pinned as one digest over
    /// every pipeline's report and status. The machine hides files, hooks
    /// and a process from the lie and flickers under sensing; for the second
    /// sweep it also serves a corrupted volume image and hive on every read,
    /// so each quorum pass salvages the same damaged truth. Reading a truth
    /// once or five times must not move a byte of either result.
    #[test]
    fn hardened_sweep_reports_are_pinned() {
        use std::sync::Arc;
        use strider_ghostware::{EvasiveGhostware, EvasiveTactic};
        use strider_support::fault::FaultPlan;
        use strider_support::json::ToJson;
        use strider_support::obs::FakeClock;
        use strider_winapi::FaultInjector;

        let mut m = Machine::with_base_system("pinned").unwrap();
        HackerDefender::default().infect(&mut m).unwrap();
        EvasiveGhostware::new(EvasiveTactic::FlickerHiding {
            seed: 41,
            grace: 12,
        })
        .infect(&mut m)
        .unwrap();
        let policy = ScanPolicy::hardened().with_clock(Arc::new(FakeClock::new()));
        let gb = GhostBuster::new().with_policy(policy);
        let mut rendered = String::new();
        let mut sweep = |m: &mut Machine| {
            let report = gb.inside_sweep(m).unwrap();
            let diffs = [
                &report.files,
                &report.hooks,
                &report.processes,
                &report.modules,
            ];
            for (p, diff) in Pipeline::ALL.into_iter().zip(diffs) {
                let status = report.health.status(p).to_json().render();
                rendered += &format!("{p}|{status}|{}\n", diff.to_json().render());
            }
            report
        };
        assert!(sweep(&mut m).is_infected());
        let hive = m.registry().hives()[0].mount().clone();
        m.set_fault_injector(
            FaultInjector::new()
                .corrupt_volume(FaultPlan::new(7).bit_flips(4))
                .corrupt_hive(hive, FaultPlan::new(9).torn_sectors(1)),
        );
        let salvaged = sweep(&mut m);
        assert_eq!(salvaged.health.degraded_pipelines(), Vec::<&str>::new());
        assert!(
            !salvaged.health.is_all_ok(),
            "the corrupted truths are salvaged"
        );
        assert_eq!(
            strider_support::rng::fnv1a(rendered.as_bytes()),
            8189629332616118715,
            "{rendered}"
        );

        // The pin holds while the memo is at work: each truth is parsed by
        // the first of the five quorum passes and reused by the other four.
        fn reuses(span: &strider_support::obs::SpanRecord, name: &str) -> [usize; 2] {
            let own = usize::from(span.name == name);
            let reused = own * usize::from(span.attr("truth_reused").is_some());
            span.children
                .iter()
                .map(|child| reuses(child, name))
                .fold([own, reused], |a, b| [a[0] + b[0], a[1] + b[1]])
        }
        let telemetry = Telemetry::new();
        gb.clone()
            .with_telemetry(telemetry.clone())
            .inside_sweep(&mut m)
            .unwrap();
        let report = telemetry.report();
        for name in ["files.low_scan", "registry.low_scan"] {
            let [scans, reused] = report
                .spans
                .iter()
                .map(|root| reuses(root, name))
                .fold([0, 0], |a, b| [a[0] + b[0], a[1] + b[1]]);
            assert_eq!((scans, reused), (5, 4), "{name}");
        }
    }
}
