//! Scan resilience: retry, salvage, stabilization, and per-pipeline health.
//!
//! A live machine is a hostile measurement environment twice over: the
//! ghostware tampers with what the scans *see*, and ordinary hardware and
//! scheduling churn tamper with whether the scans *complete*. The paper's
//! answer to the second problem is procedural — re-run the scan, tolerate a
//! reboot window, accept the image you can get. [`ScanPolicy`] makes those
//! procedures explicit and testable:
//!
//! * **retries** — low-level reads that fail transiently
//!   ([`NtStatus::DeviceNotReady`]) are retried with bounded exponential
//!   backoff through a [`Clock`], so tests drive the schedule with a
//!   [`FakeClock`](strider_support::obs::FakeClock) and never sleep;
//! * **salvage** — raw images that no longer parse strictly are handed to
//!   the salvage-mode parsers, which skip damaged records and report
//!   [`Defect`](strider_support::fault::Defect)s instead of aborting;
//! * **stabilization** — a cross-view diff taken while the machine mutates
//!   underneath it sees scan-gap churn; re-running until two consecutive
//!   passes agree separates a *stable* lie (hiding) from transient noise;
//! * **degradation** — when a truth source is unrecoverable the sweep keeps
//!   going, and the lost pipeline is marked [`PipelineStatus::Degraded`] in
//!   the report's [`SweepHealth`] rather than failing the other three.

use crate::report::{Detection, DiffReport, NoiseClass};
use crate::snapshot::ViewKind;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;
use strider_nt_core::NtStatus;
use strider_support::fault::Salvaged;
use strider_support::json::{FromJson, JsonError, JsonValue, ToJson};
use strider_support::obs::{Clock, MonotonicClock};
use strider_support::rng::{fnv1a, SplitMix64};
use strider_support::task::{Interrupt, Supervision};

/// Anti-evasion knobs: seeded randomization, decoy queries, and quorum
/// diffing (the detector side of the arms race in
/// `strider_ghostware::evasive`).
///
/// Scan-aware ghostware defeats a *predictable* scanner: a fixed pipeline
/// order and enumeration order make bulk scans fingerprintable, and the
/// "two passes agree" stabilization rule accepts whichever lie holds still
/// for two passes. Hardening randomizes what the adversary can fingerprint
/// and replaces agreement with majority vote:
///
/// * **seeded randomization** — pipeline order and within-pipeline
///   enumeration order are shuffled from `seed`, so equal seeds reproduce
///   byte-identical sweeps while the adversary cannot predict read order;
/// * **decoy queries** — every `decoy_every` real queries the scanners
///   issue a discarded query of a *different* kind, breaking the
///   same-kind bursts that burst-sensing ghostware keys on;
/// * **quorum diffing** — each pipeline diff runs `quorum_passes` times;
///   findings in a majority of passes are kept as-is, and findings that
///   appear-and-vanish become [`NoiseClass::Flickering`] detections
///   instead of silently dropping out.
///
/// [`NoiseClass::Flickering`]: crate::report::NoiseClass::Flickering
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvasionHardening {
    /// Master seed; every randomized decision derives from it, so a fixed
    /// seed makes the whole hardened sweep reproducible.
    pub seed: u64,
    /// Diff passes per pipeline for the majority vote (clamped to ≥ 2 at
    /// use; a finding needs `quorum_passes / 2 + 1` appearances to count
    /// as stable).
    pub quorum_passes: u32,
    /// Issue one decoy query per this many real queries; `0` disables
    /// decoys.
    pub decoy_every: u32,
}

impl Default for EvasionHardening {
    fn default() -> Self {
        Self {
            seed: 0x57D1DE57,
            quorum_passes: 5,
            decoy_every: 4,
        }
    }
}

impl EvasionHardening {
    /// Default hardening with a caller-chosen seed.
    pub fn with_seed(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// The quorum size actually used (`quorum_passes`, at least 2).
    pub fn passes(&self) -> u32 {
        self.quorum_passes.max(2)
    }

    /// Appearances a finding needs to count as stable rather than
    /// flickering.
    fn majority(&self) -> u32 {
        self.passes() / 2 + 1
    }

    /// A per-label random stream: `seed ^ fnv1a(label)`, so independent
    /// consumers (pipeline order, each scanner's enumeration shuffle)
    /// draw decorrelated but reproducible streams from one seed.
    pub fn stream(&self, label: &str) -> SplitMix64 {
        SplitMix64::seed_from_u64(self.seed ^ fnv1a(label.as_bytes()))
    }

    /// A per-label, per-pass stream: like [`EvasionHardening::stream`] but
    /// folding in a pass counter so consecutive quorum passes enumerate in
    /// *different* orders while the whole sequence stays seed-determined.
    pub fn pass_stream(&self, label: &str, pass: u64) -> SplitMix64 {
        SplitMix64::seed_from_u64(self.seed ^ fnv1a(label.as_bytes()) ^ pass.wrapping_mul(0x9E37))
    }
}

/// Resilience knobs for scans and sweeps.
///
/// [`ScanPolicy::strict`] (the default) reproduces the pre-policy behavior
/// exactly: no retries, no salvage, a single pass, and any low-level failure
/// propagates. [`ScanPolicy::resilient`] turns everything on.
///
/// # Examples
///
/// ```
/// use strider_ghostbuster::ScanPolicy;
///
/// let strict = ScanPolicy::strict();
/// assert_eq!(strict.retries, 0);
/// assert!(!strict.salvage);
///
/// let resilient = ScanPolicy::resilient();
/// assert!(resilient.retries > 0);
/// assert!(resilient.salvage);
/// ```
#[derive(Clone)]
pub struct ScanPolicy {
    /// How many times a transiently-failing low-level read is retried
    /// before the failure is treated as permanent.
    pub retries: u32,
    /// Backoff before the first retry, in nanoseconds; doubles per attempt.
    pub backoff_base_ns: u64,
    /// Ceiling on any single backoff sleep, in nanoseconds.
    pub backoff_max_ns: u64,
    /// Maximum number of diff passes per pipeline; the sweep stops early as
    /// soon as two consecutive passes agree. `1` means single-pass.
    pub stabilization_passes: u32,
    /// Whether unparseable raw images are re-read in salvage mode (skipping
    /// damaged records, recording defects) instead of failing the scan.
    pub salvage: bool,
    /// How long [`ScanPolicy::supervised_retry`] sleeps between polls of a
    /// read that reported [`NtStatus::Pending`], in nanoseconds.
    pub poll_interval_ns: u64,
    /// How many pending polls an *unsupervised* read tolerates before the
    /// stall is declared a [`NtStatus::TimedOut`]. Ignored when the caller's
    /// [`Supervision`] carries a deadline — the deadline governs instead.
    pub poll_budget: u32,
    /// Time budget for each sweep pipeline, in nanoseconds; the sweep gives
    /// every pipeline a deadline this far out when it starts. `None` means
    /// unbounded.
    pub pipeline_budget_ns: Option<u64>,
    /// Time budget for a whole sweep, in nanoseconds; caps every pipeline
    /// deadline. `None` means unbounded.
    pub sweep_budget_ns: Option<u64>,
    /// Consecutive pipeline failures before that pipeline's circuit breaker
    /// opens. `0` disables breakers entirely.
    pub breaker_threshold: u32,
    /// How long an open breaker rejects a pipeline before admitting a
    /// half-open probe, in nanoseconds on the policy clock.
    pub breaker_cooldown_ns: u64,
    /// Anti-evasion hardening: seeded randomized scan order, decoy
    /// queries, and quorum diffing. `None` (the default) keeps the
    /// historical deterministic order and plain stabilization.
    pub hardening: Option<EvasionHardening>,
    clock: Arc<dyn Clock>,
}

impl fmt::Debug for ScanPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScanPolicy")
            .field("retries", &self.retries)
            .field("backoff_base_ns", &self.backoff_base_ns)
            .field("backoff_max_ns", &self.backoff_max_ns)
            .field("stabilization_passes", &self.stabilization_passes)
            .field("salvage", &self.salvage)
            .field("poll_interval_ns", &self.poll_interval_ns)
            .field("poll_budget", &self.poll_budget)
            .field("pipeline_budget_ns", &self.pipeline_budget_ns)
            .field("sweep_budget_ns", &self.sweep_budget_ns)
            .field("breaker_threshold", &self.breaker_threshold)
            .field("breaker_cooldown_ns", &self.breaker_cooldown_ns)
            .field("hardening", &self.hardening)
            .finish_non_exhaustive()
    }
}

impl Default for ScanPolicy {
    fn default() -> Self {
        Self::strict()
    }
}

impl ScanPolicy {
    /// Fail-fast: no retries, no salvage, single-pass diffs. Identical to
    /// the scanners' historical behavior.
    pub fn strict() -> Self {
        Self {
            retries: 0,
            backoff_base_ns: 1_000_000,
            backoff_max_ns: 8_000_000,
            stabilization_passes: 1,
            salvage: false,
            poll_interval_ns: 1_000_000,
            poll_budget: 0,
            pipeline_budget_ns: None,
            sweep_budget_ns: None,
            breaker_threshold: 0,
            breaker_cooldown_ns: 100_000_000,
            hardening: None,
            clock: Arc::new(MonotonicClock::new()),
        }
    }

    /// Production posture: three retries with 1 ms → 8 ms exponential
    /// backoff, salvage-mode parsing, and up to three stabilization passes.
    pub fn resilient() -> Self {
        Self {
            retries: 3,
            stabilization_passes: 3,
            salvage: true,
            poll_budget: 16,
            ..Self::strict()
        }
    }

    /// Liveness posture: everything [`ScanPolicy::resilient`] does, plus a
    /// 2 s deadline per pipeline inside a 10 s sweep budget and per-pipeline
    /// circuit breakers (3 consecutive failures open, 100 ms cool-down) —
    /// the configuration the supervised sweep engine is built for. A read
    /// stalled forever now costs one pipeline its deadline, not the sweep.
    pub fn supervised() -> Self {
        Self {
            pipeline_budget_ns: Some(2_000_000_000),
            sweep_budget_ns: Some(10_000_000_000),
            breaker_threshold: 3,
            ..Self::resilient()
        }
    }

    /// Adversarial posture: everything [`ScanPolicy::supervised`] does,
    /// plus default [`EvasionHardening`] — randomized scan order, decoy
    /// queries, and 5-pass quorum diffs with flicker scoring.
    pub fn hardened() -> Self {
        Self {
            hardening: Some(EvasionHardening::default()),
            ..Self::supervised()
        }
    }

    /// Sets the backoff schedule: `base_ns` doubling per attempt, capped at
    /// `max_ns`.
    pub fn with_backoff(mut self, base_ns: u64, max_ns: u64) -> Self {
        self.backoff_base_ns = base_ns;
        self.backoff_max_ns = max_ns;
        self
    }

    /// Sets the stabilization pass budget (minimum 1).
    pub fn with_stabilization(mut self, passes: u32) -> Self {
        self.stabilization_passes = passes.max(1);
        self
    }

    /// Sets the pending-poll schedule: sleep `interval_ns` between polls of
    /// a stalled ([`NtStatus::Pending`]) read, and give up after `budget`
    /// polls when no deadline supervises the read.
    pub fn with_poll(mut self, interval_ns: u64, budget: u32) -> Self {
        self.poll_interval_ns = interval_ns;
        self.poll_budget = budget;
        self
    }

    /// Sets the per-pipeline time budget.
    pub fn with_pipeline_budget(mut self, budget_ns: u64) -> Self {
        self.pipeline_budget_ns = Some(budget_ns);
        self
    }

    /// Sets the whole-sweep time budget.
    pub fn with_sweep_budget(mut self, budget_ns: u64) -> Self {
        self.sweep_budget_ns = Some(budget_ns);
        self
    }

    /// Arms per-pipeline circuit breakers: `threshold` consecutive failures
    /// open a pipeline's breaker, which rejects that pipeline (degrading it
    /// immediately, without touching its truth source) until `cooldown_ns`
    /// elapses on the policy clock. A threshold of 0 disables breakers.
    pub fn with_breaker(mut self, threshold: u32, cooldown_ns: u64) -> Self {
        self.breaker_threshold = threshold;
        self.breaker_cooldown_ns = cooldown_ns;
        self
    }

    /// Arms (or, with `None`, disarms) anti-evasion hardening.
    pub fn with_hardening(mut self, hardening: Option<EvasionHardening>) -> Self {
        self.hardening = hardening;
        self
    }

    /// Replaces the clock the backoff sleeps through — inject a
    /// [`FakeClock`](strider_support::obs::FakeClock) to test the schedule
    /// without real sleeping.
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// The clock backoff sleeps through.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// The backoff before retry number `attempt` (0-based): `base << attempt`,
    /// saturating, capped at [`backoff_max_ns`](Self::backoff_max_ns).
    fn backoff_for(&self, attempt: u32) -> u64 {
        let factor = 1u64.checked_shl(attempt).unwrap_or(u64::MAX);
        self.backoff_base_ns
            .saturating_mul(factor)
            .min(self.backoff_max_ns)
    }

    /// Runs `op` under supervision, retrying [`NtStatus::DeviceNotReady`]
    /// up to [`retries`](Self::retries) times with exponential backoff and
    /// polling [`NtStatus::Pending`] reads (sleeping
    /// [`poll_interval_ns`](Self::poll_interval_ns) between polls). `sup`
    /// is consulted before every attempt, so a cancelled or out-of-time
    /// task abandons the read instead of waiting out a stalled device.
    /// Every other error propagates immediately.
    ///
    /// # Errors
    ///
    /// [`NtStatus::Cancelled`]/[`NtStatus::TimedOut`] when supervision
    /// interrupts; [`NtStatus::TimedOut`] when an unsupervised read exhausts
    /// the [`poll_budget`](Self::poll_budget); the last error once the
    /// retry budget is spent; any non-transient error at once.
    pub fn supervised_retry<T>(
        &self,
        sup: &Supervision,
        mut op: impl FnMut() -> Result<T, NtStatus>,
    ) -> Result<T, NtStatus> {
        let mut attempt = 0;
        let mut polls = 0;
        loop {
            if let Err(interrupt) = sup.checkpoint() {
                return Err(interrupt_status(interrupt));
            }
            match op() {
                Err(NtStatus::Pending) => {
                    if sup.deadline().is_none() && polls >= self.poll_budget {
                        return Err(NtStatus::TimedOut);
                    }
                    polls += 1;
                    self.clock.sleep_ns(self.poll_interval_ns);
                }
                Err(NtStatus::DeviceNotReady) if attempt < self.retries => {
                    self.clock.sleep_ns(self.backoff_for(attempt));
                    attempt += 1;
                }
                other => return other,
            }
        }
    }

    /// Parses a raw truth image strictly (an error becomes
    /// [`NtStatus::CorruptStructure`]) or, per [`salvage`](Self::salvage),
    /// in salvage mode. Returns the value and its defect count.
    pub(crate) fn parse_image<T, E: fmt::Display>(
        &self,
        bytes: &[u8],
        parse: impl FnOnce(&[u8]) -> Result<T, E>,
        parse_salvage: impl FnOnce(&[u8]) -> Salvaged<T>,
    ) -> Result<(T, u64), NtStatus> {
        if self.salvage {
            let salvaged = parse_salvage(bytes);
            Ok((salvaged.value, salvaged.defects.len() as u64))
        } else {
            let value = parse(bytes).map_err(|e| NtStatus::CorruptStructure(e.to_string()))?;
            Ok((value, 0))
        }
    }

    /// Runs `scan` until two consecutive passes report the same detection
    /// identity set (then returns the later pass), or the
    /// [`stabilization_passes`](Self::stabilization_passes) budget runs out
    /// (then returns the final pass). With a budget of 1 this is exactly one
    /// scan — no comparison, no extra I/O.
    ///
    /// A real hider lies *consistently*, so its detections survive every
    /// pass; files created or deleted in the gap between the two views of a
    /// single pass flicker between passes. This is the paper's prescription
    /// for live-scan noise: measure twice before believing.
    ///
    /// # Errors
    ///
    /// Propagates the first failing pass.
    fn stabilize<E>(
        &self,
        mut scan: impl FnMut() -> Result<DiffReport, E>,
    ) -> Result<DiffReport, E> {
        let mut prev = scan()?;
        for _ in 1..self.stabilization_passes {
            let next = scan()?;
            if identity_set(&next) == identity_set(&prev) {
                return Ok(next);
            }
            prev = next;
        }
        Ok(prev)
    }

    /// The hardened replacement for `ScanPolicy::stabilize`: with
    /// [`hardening`](Self::hardening) unset this *is* `stabilize`; with it
    /// set, the scan runs `quorum_passes` times and every finding is
    /// majority-voted.
    ///
    /// Stabilization's weakness is that it trusts agreement: ghostware
    /// that senses the scan and lies consistently for two passes (or tells
    /// the truth for two passes) walks through it. The quorum instead
    /// *counts*: a finding present in `majority()` or more passes keeps
    /// its classification from the latest pass it appeared in; a finding
    /// that appeared in at least one pass but fewer than the majority is
    /// re-labeled [`NoiseClass::Flickering`] with its pass count in the
    /// detail — appear-and-vanish is the signature of scan-aware evasion,
    /// not grounds for dismissal. Phantom identities are unioned across
    /// passes. Metadata comes from the final pass; detections are emitted
    /// in identity order, so a fixed hardening seed yields a byte-identical
    /// report.
    ///
    /// # Errors
    ///
    /// Propagates the first failing pass.
    pub fn quorum_diff<E>(
        &self,
        mut scan: impl FnMut() -> Result<DiffReport, E>,
    ) -> Result<DiffReport, E> {
        let Some(hardening) = self.hardening else {
            return self.stabilize(scan);
        };
        let passes = hardening.passes();
        let majority = hardening.majority();
        let mut tally: std::collections::BTreeMap<String, (u32, Detection)> =
            std::collections::BTreeMap::new();
        let mut phantoms: BTreeSet<String> = BTreeSet::new();
        let mut last = scan()?;
        for pass in 0..passes {
            let report = if pass == 0 {
                &last
            } else {
                last = scan()?;
                &last
            };
            for d in &report.detections {
                let entry = tally
                    .entry(d.identity.clone())
                    .or_insert_with(|| (0, d.clone()));
                entry.0 += 1;
                entry.1 = d.clone();
            }
            phantoms.extend(report.phantom_in_lie.iter().cloned());
        }
        let mut out = last;
        out.detections = tally
            .into_values()
            .map(|(count, mut d)| {
                if count < majority {
                    d.detail = format!(
                        "{} (flickered: seen in {count} of {passes} quorum passes)",
                        d.detail
                    );
                    d.noise = NoiseClass::Flickering;
                }
                d
            })
            .collect();
        out.phantom_in_lie = phantoms.into_iter().collect();
        Ok(out)
    }
}

/// Renders a supervision interrupt as the status the scanners propagate:
/// cancellation becomes [`NtStatus::Cancelled`], an expired deadline
/// becomes [`NtStatus::TimedOut`].
pub fn interrupt_status(interrupt: Interrupt) -> NtStatus {
    match interrupt {
        Interrupt::Cancelled => NtStatus::Cancelled,
        Interrupt::DeadlineExceeded => NtStatus::TimedOut,
    }
}

/// The detection identities (both directions) a pass reported — the
/// agreement criterion for [`ScanPolicy::stabilize`].
fn identity_set(report: &DiffReport) -> BTreeSet<String> {
    report
        .detections
        .iter()
        .map(|d| d.identity.clone())
        .chain(report.phantom_in_lie.iter().cloned())
        .collect()
}

/// How one pipeline of a sweep fared.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum PipelineStatus {
    /// Clean truth source, complete scan.
    #[default]
    Ok,
    /// The truth source was damaged but salvage-mode parsing recovered a
    /// usable (partial) view; `defects` counts the skipped structures.
    Salvaged {
        /// Number of [`Defect`](strider_support::fault::Defect)s recorded
        /// while parsing this pipeline's truth source(s).
        defects: u64,
    },
    /// The truth source was unrecoverable; this pipeline reports no
    /// findings, and the rest of the sweep proceeded without it.
    Degraded {
        /// The terminal error, rendered.
        reason: String,
    },
}

impl PipelineStatus {
    /// Whether the pipeline produced a complete, defect-free view.
    pub fn is_ok(&self) -> bool {
        matches!(self, PipelineStatus::Ok)
    }

    /// Whether the pipeline was lost entirely.
    pub fn is_degraded(&self) -> bool {
        matches!(self, PipelineStatus::Degraded { .. })
    }

    /// The salvage defect count (0 unless [`PipelineStatus::Salvaged`]).
    pub fn defect_count(&self) -> u64 {
        match self {
            PipelineStatus::Salvaged { defects } => *defects,
            _ => 0,
        }
    }
}

impl fmt::Display for PipelineStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineStatus::Ok => write!(f, "ok"),
            PipelineStatus::Salvaged { defects } => {
                write!(f, "salvaged ({defects} defects)")
            }
            PipelineStatus::Degraded { reason } => write!(f, "DEGRADED: {reason}"),
        }
    }
}

// Hand-written (rather than `impl_json!`) because the macro does not cover
// named-field enum variants: `Ok` renders as a bare string, the payload
// variants as single-key objects, matching the macro's enum convention.
impl ToJson for PipelineStatus {
    fn to_json(&self) -> JsonValue {
        match self {
            PipelineStatus::Ok => JsonValue::Str("Ok".to_string()),
            PipelineStatus::Salvaged { defects } => JsonValue::Obj(vec![(
                "Salvaged".to_string(),
                JsonValue::Obj(vec![("defects".to_string(), JsonValue::UInt(*defects))]),
            )]),
            PipelineStatus::Degraded { reason } => JsonValue::Obj(vec![(
                "Degraded".to_string(),
                JsonValue::Obj(vec![("reason".to_string(), JsonValue::Str(reason.clone()))]),
            )]),
        }
    }
}

impl FromJson for PipelineStatus {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        match value {
            JsonValue::Str(s) if s == "Ok" => Ok(PipelineStatus::Ok),
            JsonValue::Obj(fields) => match fields.as_slice() {
                [(tag, body)] if tag == "Salvaged" => Ok(PipelineStatus::Salvaged {
                    defects: body.field("defects")?.as_u64()?,
                }),
                [(tag, body)] if tag == "Degraded" => Ok(PipelineStatus::Degraded {
                    reason: body.field("reason")?.as_str()?.to_string(),
                }),
                _ => Err(JsonError("unknown PipelineStatus variant".to_string())),
            },
            _ => Err(JsonError("expected a PipelineStatus".to_string())),
        }
    }
}

/// The four cross-view pipelines of a sweep: one technique, the
/// cross-view diff, over four resource types. Every per-pipeline table in
/// the sweep shell (reports, health, checkpoints, breakers) is keyed by it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pipeline {
    /// Hidden files: raw MFT truth.
    Files,
    /// Hidden ASEP hooks: raw hive truth.
    Registry,
    /// Hidden processes: kernel process-structure truth.
    Processes,
    /// Hidden modules: kernel module-list truth.
    Modules,
}

impl Pipeline {
    /// Every pipeline, in (unhardened) sweep order.
    pub const ALL: [Pipeline; 4] = [
        Pipeline::Files,
        Pipeline::Registry,
        Pipeline::Processes,
        Pipeline::Modules,
    ];

    /// The pipeline's name, as used in span names, counters, health
    /// rollups and black boxes.
    pub fn name(self) -> &'static str {
        match self {
            Pipeline::Files => "files",
            Pipeline::Registry => "registry",
            Pipeline::Processes => "processes",
            Pipeline::Modules => "modules",
        }
    }

    /// The inside-the-box truth view a degraded pipeline's empty report
    /// carries.
    pub fn truth_view(self) -> ViewKind {
        match self {
            Pipeline::Files => ViewKind::LowLevelMft,
            Pipeline::Registry => ViewKind::LowLevelHiveParse,
            Pipeline::Processes => ViewKind::LowLevelApl,
            Pipeline::Modules => ViewKind::LowLevelKernelModules,
        }
    }
}

impl fmt::Display for Pipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-pipeline health of a sweep: which truth sources were clean, which
/// were salvaged, and which were lost.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SweepHealth {
    /// The hidden-file pipeline (raw MFT / disk-image truth).
    pub files: PipelineStatus,
    /// The hidden-ASEP pipeline (raw hive truth).
    pub registry: PipelineStatus,
    /// The hidden-process pipeline (kernel structures / dump truth).
    pub processes: PipelineStatus,
    /// The hidden-module pipeline (kernel module lists / dump truth).
    pub modules: PipelineStatus,
}

impl SweepHealth {
    /// One pipeline's status.
    pub fn status(&self, pipeline: Pipeline) -> &PipelineStatus {
        match pipeline {
            Pipeline::Files => &self.files,
            Pipeline::Registry => &self.registry,
            Pipeline::Processes => &self.processes,
            Pipeline::Modules => &self.modules,
        }
    }

    /// Whether every pipeline ran clean (no salvage, no degradation).
    pub fn is_all_ok(&self) -> bool {
        self.each().all(|(_, s)| s.is_ok())
    }

    /// Names of the pipelines whose truth source was lost entirely.
    pub fn degraded_pipelines(&self) -> Vec<&'static str> {
        self.each()
            .filter(|(_, s)| s.is_degraded())
            .map(|(p, _)| p.name())
            .collect()
    }

    /// Every pipeline with its status, in sweep order.
    pub fn each(&self) -> impl Iterator<Item = (Pipeline, &PipelineStatus)> {
        Pipeline::ALL.into_iter().map(|p| (p, self.status(p)))
    }
}

impl fmt::Display for SweepHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (p, status)) in self.each().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}: {status}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Detection;
    use crate::report::{NoiseClass, ResourceKind};
    use crate::snapshot::{ScanMeta, ViewKind};
    use strider_nt_core::Tick;
    use strider_support::obs::FakeClock;
    use strider_support::task::{CancellationToken, Deadline};

    fn report_with(identities: &[&str]) -> DiffReport {
        DiffReport {
            truth_meta: ScanMeta::new(ViewKind::LowLevelMft, Tick(0)),
            lie_meta: ScanMeta::new(ViewKind::HighLevelWin32, Tick(0)),
            detections: identities
                .iter()
                .map(|id| Detection {
                    kind: ResourceKind::File,
                    identity: id.to_string(),
                    detail: id.to_string(),
                    category: None,
                    noise: NoiseClass::Suspicious,
                })
                .collect(),
            phantom_in_lie: Vec::new(),
        }
    }

    #[test]
    fn strict_policy_never_retries() {
        let policy = ScanPolicy::strict();
        let mut calls = 0;
        let result: Result<(), _> = policy.supervised_retry(&Supervision::unsupervised(), || {
            calls += 1;
            Err(NtStatus::DeviceNotReady)
        });
        assert_eq!(result, Err(NtStatus::DeviceNotReady));
        assert_eq!(calls, 1);
    }

    #[test]
    fn fault_retry_sleeps_the_exact_backoff_schedule() {
        let clock = Arc::new(FakeClock::default());
        let policy = ScanPolicy::resilient()
            .with_backoff(1_000, 3_000)
            .with_clock(clock.clone());
        let mut calls = 0;
        let value = policy
            .supervised_retry(&Supervision::unsupervised(), || {
                calls += 1;
                if calls < 4 {
                    Err(NtStatus::DeviceNotReady)
                } else {
                    Ok(42)
                }
            })
            .unwrap();
        assert_eq!(value, 42);
        assert_eq!(calls, 4);
        // 1000 + 2000 + min(4000, 3000): doubling, capped.
        assert_eq!(clock.now_ns(), 6_000);
    }

    #[test]
    fn fault_retry_gives_up_after_the_budget() {
        let clock = Arc::new(FakeClock::default());
        let policy = ScanPolicy {
            retries: 2,
            ..ScanPolicy::strict()
        }
        .with_backoff(10, 1_000)
        .with_clock(clock.clone());
        let mut calls = 0;
        let result: Result<(), _> = policy.supervised_retry(&Supervision::unsupervised(), || {
            calls += 1;
            Err(NtStatus::DeviceNotReady)
        });
        assert!(result.is_err());
        assert_eq!(calls, 3, "initial try + 2 retries");
        assert_eq!(clock.now_ns(), 30, "10 + 20");
    }

    #[test]
    fn retry_does_not_mask_permanent_errors() {
        let policy = ScanPolicy::resilient();
        let mut calls = 0;
        let result: Result<(), _> = policy.supervised_retry(&Supervision::unsupervised(), || {
            calls += 1;
            Err(NtStatus::AccessDenied)
        });
        assert_eq!(result, Err(NtStatus::AccessDenied));
        assert_eq!(calls, 1, "only DeviceNotReady is transient");
    }

    #[test]
    fn backoff_saturates_instead_of_overflowing() {
        let policy = ScanPolicy::strict().with_backoff(u64::MAX / 2, u64::MAX);
        assert_eq!(policy.backoff_for(63), u64::MAX);
        assert_eq!(policy.backoff_for(200), u64::MAX);
    }

    #[test]
    fn stabilize_stops_at_first_agreement() {
        let policy = ScanPolicy::strict().with_stabilization(5);
        let mut pass = 0;
        let reports = [
            report_with(&["a", "flicker"]),
            report_with(&["a"]),
            report_with(&["a"]),
            report_with(&["a", "late"]),
        ];
        let out: DiffReport = policy
            .stabilize(|| -> Result<_, NtStatus> {
                let r = reports[pass].clone();
                pass += 1;
                Ok(r)
            })
            .unwrap();
        assert_eq!(pass, 3, "passes 2 and 3 agreed; pass 4 never ran");
        assert_eq!(out.detections.len(), 1);
    }

    #[test]
    fn stabilize_with_budget_one_scans_once() {
        let policy = ScanPolicy::strict();
        let mut pass = 0;
        policy
            .stabilize(|| -> Result<_, NtStatus> {
                pass += 1;
                Ok(report_with(&["x"]))
            })
            .unwrap();
        assert_eq!(pass, 1);
    }

    #[test]
    fn stabilize_returns_final_pass_when_budget_exhausted() {
        let policy = ScanPolicy::strict().with_stabilization(3);
        let mut pass = 0;
        let out: DiffReport = policy
            .stabilize(|| -> Result<_, NtStatus> {
                pass += 1;
                Ok(report_with(&[format!("churn-{pass}").as_str()]))
            })
            .unwrap();
        assert_eq!(pass, 3);
        assert_eq!(out.detections[0].identity, "churn-3");
    }

    #[test]
    fn supervised_retry_polls_a_pending_read_until_it_completes() {
        let clock = Arc::new(FakeClock::default());
        let policy = ScanPolicy::resilient()
            .with_poll(500, 8)
            .with_clock(clock.clone());
        let sup = Supervision::unsupervised();
        let mut calls = 0;
        let value = policy
            .supervised_retry(&sup, || {
                calls += 1;
                if calls < 4 {
                    Err(NtStatus::Pending)
                } else {
                    Ok(9)
                }
            })
            .unwrap();
        assert_eq!(value, 9);
        assert_eq!(calls, 4);
        assert_eq!(clock.now_ns(), 1_500, "three polls at 500 ns each");
    }

    #[test]
    fn supervised_retry_times_out_an_unsupervised_stall_at_the_poll_budget() {
        let clock = Arc::new(FakeClock::default());
        let policy = ScanPolicy::resilient()
            .with_poll(1_000, 3)
            .with_clock(clock.clone());
        let sup = Supervision::unsupervised();
        let mut calls = 0;
        let result: Result<(), _> = policy.supervised_retry(&sup, || {
            calls += 1;
            Err(NtStatus::Pending)
        });
        assert_eq!(result, Err(NtStatus::TimedOut));
        assert_eq!(calls, 4, "initial poll + budget of 3");
        assert_eq!(clock.now_ns(), 3_000);
    }

    #[test]
    fn supervised_retry_abandons_a_forever_stall_at_the_deadline() {
        let clock: Arc<dyn Clock> = Arc::new(FakeClock::default());
        let policy = ScanPolicy::resilient()
            .with_poll(1_000, 0)
            .with_clock(clock.clone());
        let deadline = Deadline::after(clock.clone(), 4_500);
        let sup = Supervision::new(CancellationToken::new(), Some(deadline));
        let result: Result<(), _> = policy.supervised_retry(&sup, || Err(NtStatus::Pending));
        assert_eq!(result, Err(NtStatus::TimedOut));
        assert!(clock.now_ns() >= 4_500, "polled up to the deadline");
        assert!(clock.now_ns() <= 5_000, "but not meaningfully past it");
    }

    #[test]
    fn supervised_retry_observes_cancellation_before_touching_the_device() {
        let policy = ScanPolicy::resilient();
        let token = CancellationToken::new();
        token.cancel();
        let sup = Supervision::new(token, None);
        let mut calls = 0;
        let result: Result<(), _> = policy.supervised_retry(&sup, || {
            calls += 1;
            Ok(())
        });
        assert_eq!(result, Err(NtStatus::Cancelled));
        assert_eq!(calls, 0, "a cancelled task never issues the read");
    }

    #[test]
    fn pipeline_status_round_trips_through_json() {
        let cases = [
            PipelineStatus::Ok,
            PipelineStatus::Salvaged { defects: 7 },
            PipelineStatus::Degraded {
                reason: "operation timed out".into(),
            },
        ];
        for status in cases {
            let back = PipelineStatus::from_json(&status.to_json()).unwrap();
            assert_eq!(back, status);
        }
        assert!(PipelineStatus::from_json(&JsonValue::UInt(3)).is_err());
    }

    #[test]
    fn health_reports_degraded_pipelines_and_defect_totals() {
        let mut health = SweepHealth::default();
        assert!(health.is_all_ok());
        assert!(health.degraded_pipelines().is_empty());
        health.registry = PipelineStatus::Salvaged { defects: 2 };
        health.processes = PipelineStatus::Degraded {
            reason: "device not ready".into(),
        };
        assert!(!health.is_all_ok());
        assert_eq!(health.degraded_pipelines(), vec!["processes"]);
        assert_eq!(health.each().map(|(_, s)| s.defect_count()).sum::<u64>(), 2);
        let rendered = health.to_string();
        assert!(
            rendered.contains("registry: salvaged (2 defects)"),
            "{rendered}"
        );
        assert!(rendered.contains("processes: DEGRADED"), "{rendered}");
    }
}
