//! Fleet-level aggregation: per-shard results merged into one
//! [`FleetReport`], and the durable [`FleetCheckpoint`] a killed fleet
//! sweep resumes from.

use crate::durable::QuarantineRecord;
use crate::registry::{FleetRegistry, ShardId};
use crate::trace::FleetTrace;
use std::collections::BTreeMap;
use std::fmt;
use strider_ghostbuster::{PipelineStatus, SweepCheckpoint, SweepReport};
use strider_support::alert::Exposition;
use strider_support::obs::HistogramSketch;

/// How a shard's result came to be — swept fresh, restored from a
/// checkpoint, recovered after retries, or quarantined when its retry
/// budget ran out.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum ShardDisposition {
    /// Swept this run on the first attempt.
    #[default]
    Swept,
    /// Restored verbatim from a checkpoint (no telemetry).
    Restored,
    /// Swept successfully, but only after `attempts` tries — the
    /// self-healing retry loop cleared its degraded pipelines and backed
    /// off between attempts.
    Recovered {
        /// Total attempts including the successful one (always ≥ 2).
        attempts: u32,
    },
    /// The shard failed every attempt in its retry budget and was fenced
    /// off. Its report is the last failed attempt's (verdict untrusted);
    /// the fleet aggregates exclude it from sweep/infection/health counts
    /// and surface it in [`FleetReport::quarantined`] instead. The record
    /// is the one the durable journal stores and the fleet monitor fences.
    Quarantined(QuarantineRecord),
}

impl ShardDisposition {
    /// Whether this shard was fenced off after exhausting its retries.
    pub fn is_quarantined(&self) -> bool {
        matches!(self, ShardDisposition::Quarantined { .. })
    }
}

impl fmt::Display for ShardDisposition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardDisposition::Swept => write!(f, "swept"),
            ShardDisposition::Restored => write!(f, "restored"),
            ShardDisposition::Recovered { attempts } => {
                write!(f, "recovered (attempt {attempts})")
            }
            ShardDisposition::Quarantined(q) => {
                write!(f, "QUARANTINED after {} attempts: {}", q.attempts, q.reason)
            }
        }
    }
}

/// One machine's contribution to a fleet sweep.
#[derive(Debug, Clone)]
pub struct ShardResult {
    /// Which shard this is.
    pub shard: ShardId,
    /// The machine's name.
    pub machine: String,
    /// The seeded family, when the fleet seeded this machine infected.
    pub family: Option<String>,
    /// The seeded hiding techniques (display names), when infected.
    pub techniques: Vec<String>,
    /// Whether the fleet's ground truth says this machine is infected.
    pub seeded_infected: bool,
    /// How this result came to be — swept, restored from a checkpoint
    /// (no telemetry), recovered after retries, or quarantined.
    pub disposition: ShardDisposition,
    /// The shard's sweep.
    pub report: SweepReport,
}

/// Seeded-vs-detected counts for one family or technique.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Prevalence {
    /// Machines seeded with it.
    pub seeded: u64,
    /// Of those, machines whose sweep came back infected.
    pub detected: u64,
}

/// How one pipeline fared across the whole fleet.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineRollup {
    /// Shards where the pipeline ran clean.
    pub ok: u64,
    /// Shards where its truth source was salvage-parsed.
    pub salvaged: u64,
    /// Shards where it degraded (timeout, cancellation, panic, breaker,
    /// truth source lost).
    pub degraded: u64,
}

/// The merged outcome of a fleet sweep.
///
/// Every aggregate here is order-independent — counts add and
/// [`HistogramSketch`]es merge bucket-wise — so the report is identical no
/// matter how the scheduler interleaved the shards.
#[derive(Debug, Clone, Default)]
pub struct FleetReport {
    /// Fleet size.
    pub machines: u64,
    /// Shards with a result this run (swept or restored).
    pub swept: u64,
    /// Shards whose sweep found something suspicious.
    pub infected: u64,
    /// Swept shards the fleet's ground truth seeded infected.
    pub seeded_infected: u64,
    /// Seeded-vs-detected prevalence per ghostware family.
    pub families: BTreeMap<String, Prevalence>,
    /// Seeded-vs-detected prevalence per hiding technique.
    pub techniques: BTreeMap<String, Prevalence>,
    /// Per-pipeline health rollups across the fleet.
    pub health: BTreeMap<String, PipelineRollup>,
    /// Fleet-wide latency sketches, merged from every swept shard's
    /// telemetry histograms (keyed by probe name, e.g.
    /// `files.dir_query_ns`).
    pub latency: BTreeMap<String, HistogramSketch>,
    /// Shards that never produced a result (the sweep was stopped or
    /// cancelled before a worker reached them).
    pub unswept: Vec<ShardId>,
    /// Shards fenced off after exhausting their retry budget, in shard
    /// order. Their verdicts are untrusted, so they are excluded from
    /// `swept`/`infected`/health/latency — but they are never silently
    /// dropped: each keeps its [`ShardResult`] (with flight-recorder
    /// evidence in its [`ShardDisposition::Quarantined`]) in `results`.
    pub quarantined: Vec<ShardId>,
    pub(crate) results: Vec<ShardResult>,
    /// The scheduler timeline every run records. Kept out of
    /// [`FleetReport::result_digest`].
    pub(crate) timeline: FleetTrace,
}

impl FleetReport {
    /// Folds one shard's result into the aggregates and retains it.
    ///
    /// Quarantined shards are surfaced (in [`FleetReport::quarantined`]
    /// and `results`) but kept out of every detection aggregate: a shard
    /// whose sweep never succeeded has no trustworthy verdict, and letting
    /// it vote would skew infection rates and pipeline health.
    pub(crate) fn absorb(&mut self, result: ShardResult) {
        if result.disposition.is_quarantined() {
            self.quarantined.push(result.shard);
            self.results.push(result);
            return;
        }
        self.swept += 1;
        let detected = result.report.is_infected();
        if detected {
            self.infected += 1;
        }
        if result.seeded_infected {
            self.seeded_infected += 1;
        }
        if let Some(family) = &result.family {
            let entry = self.families.entry(family.clone()).or_default();
            entry.seeded += 1;
            if detected {
                entry.detected += 1;
            }
        }
        for technique in &result.techniques {
            let entry = self.techniques.entry(technique.clone()).or_default();
            entry.seeded += 1;
            if detected {
                entry.detected += 1;
            }
        }
        for (pipeline, status) in result.report.health.each() {
            let rollup = self.health.entry(pipeline.to_string()).or_default();
            match status {
                PipelineStatus::Ok => rollup.ok += 1,
                PipelineStatus::Salvaged { .. } => rollup.salvaged += 1,
                PipelineStatus::Degraded { .. } => rollup.degraded += 1,
            }
        }
        if let Some(telemetry) = &result.report.telemetry {
            for (name, sketch) in &telemetry.histograms {
                self.latency.entry(name.clone()).or_default().merge(sketch);
            }
        }
        self.results.push(result);
    }

    /// Sorts results into shard order and records which shards never
    /// reported.
    pub(crate) fn finalize(&mut self, machines: u64) {
        self.machines = machines;
        self.results.sort_by_key(|r| r.shard);
        self.quarantined.sort();
        self.unswept = (0..machines as u32)
            .map(ShardId)
            .filter(|id| !self.results.iter().any(|r| r.shard == *id))
            .collect();
    }

    /// Every shard's result, in shard order.
    pub fn results(&self) -> &[ShardResult] {
        &self.results
    }

    /// The run's scheduler timeline — worker count, wall-clock envelope
    /// and scheduler events — for queue-wait and occupancy metrics. The
    /// merged Chrome trace is [`FleetReport::chrome_trace`].
    pub fn trace(&self) -> &FleetTrace {
        &self.timeline
    }

    /// A specific shard's result, if it reported.
    pub fn result(&self, shard: ShardId) -> Option<&ShardResult> {
        self.results.iter().find(|r| r.shard == shard)
    }

    /// Fraction of swept machines found infected (0 when nothing swept).
    pub fn infection_rate(&self) -> f64 {
        if self.swept == 0 {
            0.0
        } else {
            self.infected as f64 / self.swept as f64
        }
    }

    /// A fleet-wide latency percentile for one probe (e.g. the p95 of
    /// `files.dir_query_ns` across every machine).
    pub fn latency_percentile(&self, probe: &str, pct: f64) -> Option<f64> {
        self.latency.get(probe).and_then(|s| s.percentile(pct))
    }

    /// Whether every shard reported and none degraded or was quarantined.
    pub fn is_complete_and_healthy(&self) -> bool {
        self.unswept.is_empty()
            && self.quarantined.is_empty()
            && self.health.values().all(|r| r.degraded == 0)
    }

    /// A canonical digest of the sweep's *results* — every per-shard
    /// verdict, health status, and detection count, plus the quarantine
    /// and unswept sets — rendered as one deterministic string.
    ///
    /// This is the kill-anywhere equality criterion: a sweep crashed at
    /// any byte offset and resumed from its durable store must produce a
    /// digest byte-identical to an uninterrupted run. The digest therefore
    /// excludes the things a resume legitimately changes without changing
    /// the *outcome*: wall-clock ticks (a re-swept machine's clock has
    /// advanced), telemetry/latency sketches (restored shards carry none
    /// by design), and whether a given shard was swept live, restored, or
    /// recovered on a retry. Quarantined shards contribute their attempt
    /// count and reason, not their untrusted last-attempt report.
    pub fn result_digest(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fleet|machines={}|swept={}|infected={}|seeded={}",
            self.machines, self.swept, self.infected, self.seeded_infected
        );
        for (kind, table) in [("family", &self.families), ("technique", &self.techniques)] {
            for (name, p) in table {
                let _ = writeln!(
                    out,
                    "{kind}|{name}|seeded={}|detected={}",
                    p.seeded, p.detected
                );
            }
        }
        for result in &self.results {
            if let ShardDisposition::Quarantined(q) = &result.disposition {
                let _ = writeln!(
                    out,
                    "shard|{:03}|{}|quarantined|attempts={}|reason={}",
                    result.shard.0, result.machine, q.attempts, q.reason
                );
                continue;
            }
            let _ = write!(
                out,
                "shard|{:03}|{}|seeded={}|infected={}",
                result.shard.0,
                result.machine,
                result.seeded_infected,
                result.report.is_infected(),
            );
            for (pipeline, status) in result.report.health.each() {
                let _ = write!(
                    out,
                    "|{pipeline}={}:{}",
                    status_kind(status),
                    result.report.diff(pipeline).net_detections().len()
                );
            }
            out.push('\n');
        }
        let unswept: Vec<String> = self.unswept.iter().map(|s| s.0.to_string()).collect();
        let _ = writeln!(out, "unswept|{}", unswept.join(","));
        out
    }

    /// The merged fleet sweep as a Prometheus-text [`Exposition`]: sweep
    /// counters, the infection rate, per-pipeline health rollups and
    /// per-family/per-technique prevalence as labelled gauges, and the
    /// fleet-wide latency sketches as cumulative histograms.
    pub fn prometheus(&self) -> Exposition {
        let mut expo = Exposition::new();
        expo.counter("strider_fleet_machines_total", self.machines);
        expo.counter("strider_fleet_swept_total", self.swept);
        expo.counter("strider_fleet_infected_total", self.infected);
        expo.counter("strider_fleet_seeded_infected_total", self.seeded_infected);
        expo.counter("strider_fleet_unswept_total", self.unswept.len() as u64);
        expo.counter(
            "strider_fleet_quarantined_total",
            self.quarantined.len() as u64,
        );
        expo.gauge("strider_fleet_infection_rate", self.infection_rate());
        for (pipeline, rollup) in &self.health {
            for (state, count) in [
                ("ok", rollup.ok),
                ("salvaged", rollup.salvaged),
                ("degraded", rollup.degraded),
            ] {
                expo.gauge_with(
                    "strider_fleet_pipeline_health",
                    &[("pipeline", pipeline), ("state", state)],
                    count as f64,
                );
            }
        }
        for (kind, table) in [("family", &self.families), ("technique", &self.techniques)] {
            for (name, p) in table {
                expo.gauge_with("strider_fleet_seeded", &[(kind, name)], p.seeded as f64);
                expo.gauge_with("strider_fleet_detected", &[(kind, name)], p.detected as f64);
            }
        }
        for (probe, sketch) in &self.latency {
            expo.histogram(probe, sketch);
        }
        expo
    }
}

impl fmt::Display for FleetReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fleet sweep: {}/{} machines swept, {} infected ({:.1}%), {} unswept, {} quarantined",
            self.swept,
            self.machines,
            self.infected,
            self.infection_rate() * 100.0,
            self.unswept.len(),
            self.quarantined.len()
        )?;
        for shard in &self.quarantined {
            if let Some(result) = self.result(*shard) {
                writeln!(
                    f,
                    "  quarantined shard-{:03} [{}]: {}",
                    shard.0, result.machine, result.disposition
                )?;
            }
        }
        if !self.families.is_empty() {
            writeln!(f, "families (detected/seeded):")?;
            for (family, p) in &self.families {
                writeln!(f, "  {family:<20} {}/{}", p.detected, p.seeded)?;
            }
        }
        if !self.techniques.is_empty() {
            writeln!(f, "techniques (detected/seeded):")?;
            for (technique, p) in &self.techniques {
                writeln!(f, "  {technique:<20} {}/{}", p.detected, p.seeded)?;
            }
        }
        writeln!(f, "pipeline health (ok/salvaged/degraded):")?;
        for (pipeline, r) in &self.health {
            writeln!(f, "  {pipeline:<10} {}/{}/{}", r.ok, r.salvaged, r.degraded)?;
        }
        for (probe, sketch) in &self.latency {
            if let (Some(p50), Some(p95)) = (sketch.percentile(50.0), sketch.percentile(95.0)) {
                writeln!(
                    f,
                    "latency {probe}: p50 {p50:.0} ns, p95 {p95:.0} ns over {} samples",
                    sketch.count()
                )?;
            }
        }
        Ok(())
    }
}

/// The digest spelling of a pipeline status: the kind only, because a
/// degraded reason can embed timing detail that differs between a live
/// sweep and its resumed twin.
fn status_kind(status: &PipelineStatus) -> &'static str {
    match status {
        PipelineStatus::Ok => "ok",
        PipelineStatus::Salvaged { .. } => "salvaged",
        PipelineStatus::Degraded { .. } => "degraded",
    }
}

/// Why [`FleetCheckpoint::validate`] rejected a checkpoint against a
/// live fleet, so a resume can report *what* drifted instead of a bare
/// `InvalidParameter`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointMismatch {
    /// The checkpoint was taken against a fleet with a different seed.
    Seed {
        /// The seed recorded in the checkpoint.
        recorded: u64,
        /// The live fleet's seed.
        live: u64,
    },
    /// The checkpoint describes a fleet of a different size.
    Size {
        /// Shards recorded in the checkpoint.
        recorded: usize,
        /// Machines in the live fleet.
        live: usize,
    },
    /// A shard's recorded machine name does not match the live fleet.
    Machine {
        /// The mismatching shard.
        shard: ShardId,
        /// The name recorded in the checkpoint.
        recorded: String,
        /// The live machine's name.
        live: String,
    },
}

impl fmt::Display for CheckpointMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointMismatch::Seed { recorded, live } => {
                write!(
                    f,
                    "checkpoint fleet seed {recorded} does not match live fleet seed {live}"
                )
            }
            CheckpointMismatch::Size { recorded, live } => {
                write!(
                    f,
                    "checkpoint records {recorded} shards but the live fleet has {live} machines"
                )
            }
            CheckpointMismatch::Machine {
                shard,
                recorded,
                live,
            } => {
                write!(
                    f,
                    "shard-{:03} is recorded as machine {recorded:?} but the live fleet has {live:?}",
                    shard.0
                )
            }
        }
    }
}

impl std::error::Error for CheckpointMismatch {}

/// Durable progress of a fleet sweep: one [`SweepCheckpoint`] per shard,
/// updated in place as pipelines finish. Serialize it when a fleet sweep
/// dies; a later [`FleetScheduler::sweep_streaming`] run against the
/// same fleet restores the complete shards verbatim and re-sweeps only the
/// rest.
///
/// [`FleetScheduler::sweep_streaming`]: crate::FleetScheduler::sweep_streaming
#[derive(Debug, Clone, PartialEq)]
pub struct FleetCheckpoint {
    /// The fleet seed the checkpoint belongs to.
    pub fleet_seed: u64,
    /// The fleet's machine names, in shard order — resuming against a
    /// different fleet is rejected.
    pub machines: Vec<String>,
    /// Per-shard sweep progress, in shard order.
    pub shards: Vec<SweepCheckpoint>,
}

strider_support::impl_json!(struct FleetCheckpoint { fleet_seed, machines, shards });

impl FleetCheckpoint {
    /// An empty checkpoint for a fresh sweep of `fleet`.
    pub fn new(fleet: &FleetRegistry) -> Self {
        FleetCheckpoint {
            fleet_seed: fleet.spec().seed,
            machines: fleet
                .machines()
                .iter()
                .map(|m| m.machine.name().to_string())
                .collect(),
            shards: fleet
                .machines()
                .iter()
                .map(|m| SweepCheckpoint::new(&m.machine))
                .collect(),
        }
    }

    /// Checks the checkpoint describes this fleet (same seed, same
    /// machines in the same order) and reports the first drift as a typed
    /// [`CheckpointMismatch`].
    ///
    /// # Errors
    ///
    /// Fails when the recorded fleet seed, shard count, or any machine
    /// name does not match `fleet`.
    pub fn validate(&self, fleet: &FleetRegistry) -> Result<(), CheckpointMismatch> {
        if self.fleet_seed != fleet.spec().seed {
            return Err(CheckpointMismatch::Seed {
                recorded: self.fleet_seed,
                live: fleet.spec().seed,
            });
        }
        if self.machines.len() != fleet.len() || self.shards.len() != fleet.len() {
            return Err(CheckpointMismatch::Size {
                recorded: self.machines.len().max(self.shards.len()),
                live: fleet.len(),
            });
        }
        for (i, (m, name)) in fleet.machines().iter().zip(&self.machines).enumerate() {
            if m.machine.name() != name {
                return Err(CheckpointMismatch::Machine {
                    shard: ShardId(i as u32),
                    recorded: name.clone(),
                    live: m.machine.name().to_string(),
                });
            }
        }
        Ok(())
    }

    /// The shards still holding unfinished pipelines, in shard order.
    pub fn unfinished_shards(&self) -> Vec<ShardId> {
        self.shards
            .iter()
            .enumerate()
            .filter(|(_, cp)| !cp.is_complete())
            .map(|(i, _)| ShardId(i as u32))
            .collect()
    }

    /// Whether every shard's every pipeline has a recorded outcome.
    pub fn is_complete(&self) -> bool {
        self.shards.iter().all(SweepCheckpoint::is_complete)
    }

    /// Renders the checkpoint as a JSON document.
    pub fn serialize(&self) -> String {
        use strider_support::json::ToJson;
        self.to_json().render()
    }

    /// Parses a checkpoint from [`FleetCheckpoint::serialize`] output.
    ///
    /// # Errors
    ///
    /// Fails on malformed JSON or a document that is not a fleet
    /// checkpoint.
    pub fn deserialize(text: &str) -> Result<Self, strider_support::json::JsonError> {
        use strider_support::json::{FromJson, JsonValue};
        Self::from_json(&JsonValue::parse(text)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::FleetSpec;
    use crate::trace::{SchedEvent, SchedEventKind};
    use std::sync::Arc;
    use strider_ghostbuster::{DiffReport, Pipeline};
    use strider_nt_core::Tick;
    use strider_support::json::JsonValue;
    use strider_support::obs::{FakeClock, Telemetry, TelemetryReport};

    /// A swept shard result whose sweep carries `telemetry`.
    fn swept(shard: u32, telemetry: TelemetryReport) -> ShardResult {
        let mut report = SweepReport::from_pipelines(Pipeline::ALL.map(|p| {
            (
                DiffReport::empty(p.truth_view(), Tick(0)),
                PipelineStatus::Ok,
            )
        }));
        report.telemetry = Some(telemetry);
        ShardResult {
            shard: ShardId(shard),
            machine: format!("m{shard}"),
            family: None,
            techniques: Vec::new(),
            seeded_infected: false,
            disposition: ShardDisposition::Swept,
            report,
        }
    }

    #[test]
    fn merged_trace_remaps_shard_tids_above_worker_lanes() {
        // Two shards frozen independently: both telemetries use tid 1
        // for their (only) span thread — the collision the merge fixes.
        let shard_report = || {
            let clock = Arc::new(FakeClock::new());
            let telemetry = Telemetry::with_clock(clock.clone());
            {
                let _span = telemetry.span("scan");
                clock.advance(100);
            }
            telemetry.report()
        };
        let a = shard_report();
        let b = shard_report();
        assert_eq!(a.spans[0].tid, b.spans[0].tid, "local tids collide");

        let ev = |shard, at_ns, kind| SchedEvent { shard, at_ns, kind };
        let mut report = FleetReport {
            timeline: FleetTrace {
                workers: 2,
                start_ns: 0,
                end_ns: 1_000,
                events: vec![
                    ev(0, 0, SchedEventKind::Enqueue { worker: 0 }),
                    ev(1, 0, SchedEventKind::Enqueue { worker: 1 }),
                    ev(1, 5, SchedEventKind::Steal { from: 1, by: 0 }),
                    ev(0, 10, SchedEventKind::Start { worker: 0 }),
                    ev(0, 500, SchedEventKind::Finish { worker: 0 }),
                ],
            },
            ..FleetReport::default()
        };
        report.absorb(swept(1, b));
        report.absorb(swept(0, a));
        report.finalize(2);
        assert_eq!(report.trace().steals(), 1);
        let JsonValue::Arr(events) = report.chrome_trace() else {
            panic!("chrome trace must be an array");
        };
        let field = |e: &JsonValue, key: &str| -> Option<JsonValue> { e.field(key).ok().cloned() };
        // Span slices (cat "scan") never land on the reserved scheduler
        // or worker lanes, and no two shards share a tid.
        let span_tids: Vec<u64> = events
            .iter()
            .filter(|e| {
                matches!(field(e, "cat"), Some(JsonValue::Str(c)) if c == "scan")
                    && matches!(field(e, "ph"), Some(JsonValue::Str(p)) if p == "X")
            })
            .map(|e| match field(e, "tid") {
                Some(JsonValue::UInt(t)) => t,
                other => panic!("bad tid {other:?}"),
            })
            .collect();
        assert_eq!(span_tids.len(), 2);
        assert!(span_tids.iter().all(|&t| t > 2), "{span_tids:?}");
        assert_ne!(span_tids[0], span_tids[1]);
        // Thread metadata names the lanes, shard-prefixed.
        let names: Vec<String> = events
            .iter()
            .filter(|e| matches!(field(e, "ph"), Some(JsonValue::Str(p)) if p == "M"))
            .filter_map(|e| match field(&field(e, "args")?, "name")? {
                JsonValue::Str(s) => Some(s),
                _ => None,
            })
            .collect();
        assert!(names.iter().any(|n| n == "fleet-scheduler"), "{names:?}");
        assert!(names.iter().any(|n| n == "fleet-worker-0"), "{names:?}");
        assert!(names.iter().any(|n| n == "fleet-worker-1"), "{names:?}");
        assert!(
            names.iter().any(|n| n.starts_with("shard-000 ")),
            "{names:?}"
        );
        assert!(
            names.iter().any(|n| n.starts_with("shard-001 ")),
            "{names:?}"
        );
        // Scheduler lane carries the queue slice and the steal instant.
        assert!(events.iter().any(|e| {
            matches!(field(e, "name"), Some(JsonValue::Str(n)) if n == "queue shard-000")
        }));
        assert!(events.iter().any(|e| {
            matches!(field(e, "name"), Some(JsonValue::Str(n)) if n == "steal shard-001")
        }));
    }

    #[test]
    fn empty_fleet_checkpoint_round_trips() {
        let fleet = FleetRegistry::seeded(&FleetSpec::clean(3, 9)).unwrap();
        let checkpoint = FleetCheckpoint::new(&fleet);
        assert!(checkpoint.validate(&fleet).is_ok());
        assert_eq!(checkpoint.unfinished_shards().len(), 3);
        assert!(!checkpoint.is_complete());
        let parsed = FleetCheckpoint::deserialize(&checkpoint.serialize()).unwrap();
        assert_eq!(parsed, checkpoint);
    }

    #[test]
    fn report_exposition_renders_counters_and_rate() {
        let mut report = FleetReport::default();
        report.finalize(4);
        let text = report.prometheus().render();
        assert!(text.contains("# TYPE strider_fleet_machines_total counter"));
        assert!(text.contains("strider_fleet_machines_total 4"));
        assert!(text.contains("strider_fleet_infection_rate 0"));
        assert!(text.contains("strider_fleet_unswept_total 4"));
    }

    #[test]
    fn checkpoint_rejects_a_different_fleet() {
        let a = FleetRegistry::seeded(&FleetSpec::clean(3, 1)).unwrap();
        let b = FleetRegistry::seeded(&FleetSpec::clean(3, 2)).unwrap();
        let checkpoint = FleetCheckpoint::new(&a);
        assert!(checkpoint.validate(&b).is_err());
    }
}
