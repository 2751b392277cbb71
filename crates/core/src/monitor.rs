//! Continuous sweep monitoring: scheduled re-sweeps, rolling metric
//! series, and declarative alerting against a recorded baseline.
//!
//! The paper's operational story (§6) is not one sweep but *continuous*
//! cross-view scanning of live machines. [`SweepMonitor`] drives repeated
//! [`GhostBuster::inside_sweep`]s on the policy's [`Clock`] schedule,
//! keeps bounded timestamped [`TimeSeries`] of the key metrics
//! (per-pipeline durations, entry counts, defect/timeout counters,
//! findings), and feeds them through an [`AlertEngine`] after every
//! sweep. The three classic drift checks are *built-in rules* derived
//! from the [`SweepBaseline`] and [`MonitorConfig`]:
//!
//! * `new_hidden_resource` — a finding not present at baseline
//!   ([`MonitorIncident::NewHiddenResource`]),
//! * `latency.<pipeline>` — a pipeline running slower than
//!   `baseline * latency_factor + latency_floor_ns`
//!   ([`MonitorIncident::LatencyRegression`]),
//! * `health_downgrade` — a pipeline degrading that was healthy at
//!   baseline ([`MonitorIncident::HealthDowngrade`]),
//! * `evasion_suspected` — the sweep's quorum passes saw a resource
//!   appear and vanish (`evasion.flicker_score > 0`), the signature of
//!   scan-aware evasive hiding ([`MonitorIncident::EvasionSuspected`]).
//!   Unlike the drift rules this one needs no baseline: an unstable lie
//!   is evidence on its own.
//!
//! The series, the rules and the pass loop live in a [`MonitorCore`]
//! shared with the fleet monitor; this module keeps the sweep-specific
//! judge step ([`SweepMonitor::judge`]), which the fleet monitor runs on
//! every shard its scheduler swept. Callers add their own [`AlertRule`]s
//! (thresholds, rates, absence, quantiles, with `for_ns` hysteresis) over
//! the same series through the public [`SweepMonitor::core`]. Every rule transition
//! lands in the engine's bounded [`AlertLog`] *and* in the sweep's
//! flight dump, so each typed [`MonitorIncident`] — and any black
//! box — carries the alert trail as evidence.
//! [`SweepMonitor::prometheus`] snapshots the whole plane (telemetry
//! counters/gauges/histograms, series gauges, active alerts); its
//! [`Exposition::write_in`] writes it as a Prometheus-text
//! `TELEMETRY_EXPO_<label>.prom` file.
//!
//! [`AlertLog`]: strider_support::alert::AlertLog
//!
//! Baselines round-trip through [`crate::GhostBuster`]-independent JSON
//! ([`SweepBaseline::serialize`]), so a fleet operator can record one
//! golden sweep per machine and diff against it for months.

use crate::ghostbuster::{GhostBuster, SweepReport};
use crate::policy::{Pipeline, PipelineStatus};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use strider_nt_core::NtStatus;
use strider_support::alert::{
    AlertCondition, AlertRule, AlertTransition, Exposition, MonitorCore, Severity,
};
use strider_support::obs::{
    fmt_ns, Clock, FlightDump, FlightEvent, FlightRecorder, Telemetry, TelemetryReport,
};
use strider_winapi::Machine;

/// Tuning knobs for a [`SweepMonitor`].
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorConfig {
    /// Gap between scheduled sweeps in [`SweepMonitor::run`], observed on
    /// the policy clock.
    pub interval_ns: u64,
    /// A pipeline regresses when its duration exceeds
    /// `baseline * latency_factor + latency_floor_ns`.
    pub latency_factor: f64,
    /// Absolute slack added to the latency threshold, so a near-zero
    /// baseline (idle machine, fake clock) doesn't flag noise-level
    /// variation as a regression.
    pub latency_floor_ns: u64,
    /// How many sweeps each rolling [`TimeSeries`](strider_support::alert::TimeSeries) retains.
    pub history: usize,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            interval_ns: 1_000_000_000,
            latency_factor: 2.0,
            latency_floor_ns: 100_000,
            history: 64,
        }
    }
}

impl MonitorConfig {
    /// Sets the sweep interval.
    pub fn with_interval_ns(mut self, interval_ns: u64) -> Self {
        self.interval_ns = interval_ns;
        self
    }

    /// Sets how many sweeps of history each metric series keeps.
    pub fn with_history(mut self, history: usize) -> Self {
        self.history = history.max(1);
        self
    }
}

/// A recorded snapshot of one sweep's shape, used as the comparison
/// anchor for every later sweep. Round-trips through JSON
/// ([`SweepBaseline::serialize`] / [`SweepBaseline::deserialize`]) so it
/// can be stored next to the machine it describes.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepBaseline {
    /// The machine the baseline sweep observed.
    pub machine: String,
    /// Monitor clock reading when the baseline was recorded.
    pub taken_at_ns: u64,
    /// Wall duration of each pipeline's scan phase.
    pub pipeline_duration_ns: BTreeMap<String, u64>,
    /// Identity keys (`pipeline|identity`) of every suspicious finding
    /// present at baseline — findings outside this set are *new*.
    pub findings: Vec<String>,
    /// Pipelines already degraded at baseline (their later degradation is
    /// not a downgrade).
    pub degraded: Vec<String>,
    /// Suspicious findings at baseline.
    pub suspicious: u64,
    /// Noise-classified findings at baseline.
    pub noise: u64,
}

strider_support::impl_json!(
    struct SweepBaseline {
        machine,
        taken_at_ns,
        pipeline_duration_ns,
        findings,
        degraded,
        suspicious,
        noise,
    }
);

impl SweepBaseline {
    /// Builds a baseline from a finished (telemetry-instrumented) sweep.
    pub fn from_report(machine: &str, taken_at_ns: u64, report: &SweepReport) -> Self {
        SweepBaseline {
            machine: machine.to_string(),
            taken_at_ns,
            pipeline_duration_ns: report.pipeline_durations(),
            findings: finding_keys(report).collect(),
            degraded: report
                .health
                .degraded_pipelines()
                .into_iter()
                .map(str::to_string)
                .collect(),
            suspicious: report.suspicious_count() as u64,
            noise: report.noise_count() as u64,
        }
    }

    /// Renders the baseline as a JSON document.
    pub fn serialize(&self) -> String {
        use strider_support::json::ToJson;
        self.to_json().render()
    }

    /// Parses a baseline from [`SweepBaseline::serialize`] output.
    ///
    /// # Errors
    ///
    /// Fails on malformed JSON or a document that is not a baseline.
    pub fn deserialize(text: &str) -> Result<Self, strider_support::json::JsonError> {
        use strider_support::json::{FromJson, JsonValue};
        Self::from_json(&JsonValue::parse(text)?)
    }
}

/// A drift the monitor detected between a sweep and its baseline. Every
/// variant carries the sweep's flight-recorder dump — including the
/// alert transitions of that sweep — so the incident ships its own
/// evidence trail.
#[derive(Debug, Clone, PartialEq)]
pub enum MonitorIncident {
    /// A suspicious finding absent from the baseline — on a monitored
    /// machine, the moment a new hidden resource appears.
    NewHiddenResource {
        /// Pipeline that surfaced the finding.
        pipeline: String,
        /// The finding's cross-view identity key.
        identity: String,
        /// Human-readable description.
        detail: String,
        /// Flight-recorder dump of the detecting sweep.
        flight: FlightDump,
    },
    /// A pipeline ran slower than `baseline * factor + floor`.
    LatencyRegression {
        /// The slow pipeline.
        pipeline: String,
        /// Its baseline duration.
        baseline_ns: u64,
        /// Its observed duration this sweep.
        observed_ns: u64,
        /// Flight-recorder dump of the slow sweep.
        flight: FlightDump,
    },
    /// A pipeline degraded that was healthy at baseline.
    HealthDowngrade {
        /// The degraded pipeline.
        pipeline: String,
        /// Its degradation reason.
        reason: String,
        /// Flight-recorder dump ending at the failure.
        flight: FlightDump,
    },
    /// A resource flickered — it was present in some of a hardened
    /// sweep's quorum passes and absent from others. Honest resources
    /// don't do that; scan-aware ghostware toggling its hooks mid-sweep
    /// does. Raised per [`NoiseClass::Flickering`] finding whenever the
    /// `evasion_suspected` built-in rule fires; needs no baseline.
    ///
    /// [`NoiseClass::Flickering`]: crate::report::NoiseClass::Flickering
    EvasionSuspected {
        /// Pipeline whose quorum diff observed the flicker.
        pipeline: String,
        /// The flickering resource's cross-view identity key.
        identity: String,
        /// Human-readable description, including the quorum tally.
        detail: String,
        /// Flight-recorder dump of the detecting sweep.
        flight: FlightDump,
    },
}

impl MonitorIncident {
    /// The pipeline the incident concerns.
    pub fn pipeline(&self) -> &str {
        match self {
            MonitorIncident::NewHiddenResource { pipeline, .. }
            | MonitorIncident::LatencyRegression { pipeline, .. }
            | MonitorIncident::HealthDowngrade { pipeline, .. }
            | MonitorIncident::EvasionSuspected { pipeline, .. } => pipeline,
        }
    }

    /// The flight-recorder dump captured with the incident.
    pub fn flight(&self) -> &FlightDump {
        match self {
            MonitorIncident::NewHiddenResource { flight, .. }
            | MonitorIncident::LatencyRegression { flight, .. }
            | MonitorIncident::HealthDowngrade { flight, .. }
            | MonitorIncident::EvasionSuspected { flight, .. } => flight,
        }
    }
}

impl fmt::Display for MonitorIncident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MonitorIncident::NewHiddenResource {
                pipeline,
                identity,
                detail,
                ..
            } => write!(f, "new hidden resource [{pipeline}] {identity}: {detail}"),
            MonitorIncident::LatencyRegression {
                pipeline,
                baseline_ns,
                observed_ns,
                ..
            } => write!(
                f,
                "latency regression [{pipeline}]: {} at baseline, {} now",
                fmt_ns(*baseline_ns),
                fmt_ns(*observed_ns)
            ),
            MonitorIncident::HealthDowngrade {
                pipeline, reason, ..
            } => write!(f, "health downgrade [{pipeline}]: {reason}"),
            MonitorIncident::EvasionSuspected {
                pipeline,
                identity,
                detail,
                ..
            } => write!(f, "evasion suspected [{pipeline}] {identity}: {detail}"),
        }
    }
}

/// One monitored sweep: the report, when it ran, the alert transitions
/// it triggered, and any incidents it raised against the baseline.
#[derive(Debug, Clone)]
pub struct MonitorObservation {
    /// Monitor clock reading when the sweep started.
    pub at_ns: u64,
    /// The sweep itself. Its flight dump ends with this sweep's alert
    /// transitions.
    pub report: SweepReport,
    /// Alert-rule transitions this sweep's evaluation produced.
    pub transitions: Vec<AlertTransition>,
    /// Drift detected against the baseline (empty without a baseline).
    pub incidents: Vec<MonitorIncident>,
}

/// Drives repeated supervised sweeps on a [`Clock`] schedule and watches
/// for sweep-over-sweep drift through a [`MonitorCore`].
///
/// Each sweep runs with a *fresh* [`Telemetry`] registry on the policy's
/// clock, so reports never bleed into each other and every observation
/// carries its own span forest, metrics, and flight-recorder dump. After
/// the sweep, its metrics are folded into the core's rolling series and
/// the core evaluates every rule — the built-ins derived from the
/// baseline plus any caller-added rules — and appends the transitions to
/// the sweep's flight dump. [`judge`](SweepMonitor::judge) is that second
/// half on its own, for sweeps run elsewhere (the fleet monitor judges
/// what its scheduler swept).
///
/// Recording or installing a baseline, or replacing the configuration,
/// rebuilds the built-in rules, which resets alert states (a new
/// comparison anchor means old breach streaks are meaningless).
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use strider_ghostbuster::{GhostBuster, ScanPolicy, SweepMonitor};
/// use strider_support::obs::FakeClock;
/// use strider_winapi::Machine;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut machine = Machine::with_base_system("lab-1")?;
/// let policy = ScanPolicy::resilient().with_clock(Arc::new(FakeClock::new()));
/// let mut monitor = SweepMonitor::new(GhostBuster::new().with_policy(policy));
/// monitor.record_baseline(&mut machine)?;
/// let observations = monitor.run(&mut machine, 3)?;
/// assert!(observations.iter().all(|o| o.incidents.is_empty()));
/// assert!(monitor.core.engine().firing().is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SweepMonitor {
    detector: GhostBuster,
    config: MonitorConfig,
    baseline: Option<SweepBaseline>,
    /// The rolling series, the rules (add custom ones with
    /// [`MonitorCore::add_rule`]) and the alert log.
    pub core: MonitorCore,
    last_telemetry: Option<TelemetryReport>,
    sweeps_run: u64,
}

impl SweepMonitor {
    /// A monitor driving the given detector with default
    /// [`MonitorConfig`]. Any telemetry already attached to the detector
    /// is ignored — the monitor attaches a fresh registry per sweep.
    pub fn new(detector: GhostBuster) -> Self {
        let config = MonitorConfig::default();
        SweepMonitor {
            detector,
            // The baseline-free built-ins (evasion_suspected) are live
            // from the first sweep, not only once a baseline is recorded.
            core: MonitorCore::new(config.history, built_in_rules(None, &config)),
            config,
            baseline: None,
            last_telemetry: None,
            sweeps_run: 0,
        }
    }

    /// Replaces the monitor configuration (rebuilding the built-in rules,
    /// which resets alert states).
    pub fn with_config(mut self, config: MonitorConfig) -> Self {
        self.config = config;
        self.rebuild_rules();
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &MonitorConfig {
        &self.config
    }

    /// The recorded baseline, if any.
    pub fn baseline(&self) -> Option<&SweepBaseline> {
        self.baseline.as_ref()
    }

    /// Installs a previously recorded (e.g. deserialized) baseline,
    /// rebuilding the built-in rules around it.
    pub fn set_baseline(&mut self, baseline: SweepBaseline) {
        self.baseline = Some(baseline);
        self.rebuild_rules();
    }

    fn clock(&self) -> Arc<dyn Clock> {
        self.detector.policy().clock().clone()
    }

    fn rebuild_rules(&mut self) {
        let rules = built_in_rules(self.baseline.as_ref(), &self.config);
        self.core.rebuild(self.config.history, rules);
    }

    /// Runs one sweep and records it as the comparison baseline (replacing
    /// any previous one). The baseline sweep does not enter the rolling
    /// series or raise incidents.
    ///
    /// # Errors
    ///
    /// Propagates sweep failures.
    pub fn record_baseline(&mut self, machine: &mut Machine) -> Result<&SweepBaseline, NtStatus> {
        let at_ns = self.clock().now_ns();
        let report = self.sweep(machine)?;
        self.set_baseline(SweepBaseline::from_report(machine.name(), at_ns, &report));
        Ok(self.baseline.as_ref().expect("just recorded"))
    }

    /// Runs one monitored sweep and [`judge`](Self::judge)s it.
    ///
    /// # Errors
    ///
    /// Propagates sweep failures.
    pub fn observe(&mut self, machine: &mut Machine) -> Result<MonitorObservation, NtStatus> {
        Ok(self.judge(self.sweep(machine)?))
    }

    /// One sweep with a fresh telemetry registry on the monitor clock.
    fn sweep(&self, machine: &mut Machine) -> Result<SweepReport, NtStatus> {
        let telemetry = Telemetry::with_clock(self.clock());
        self.detector
            .clone()
            .with_telemetry(telemetry)
            .inside_sweep(machine)
    }

    /// Judges a finished sweep against the baseline: folds its metrics
    /// into the rolling series, evaluates every alert rule, and
    /// translates firing built-in rules into typed incidents. The sweep
    /// may have run anywhere (a fleet worker, say); its report's frozen
    /// flight ring gains this evaluation's alert transitions, so the
    /// incidents' flight dumps carry them.
    pub fn judge(&mut self, mut report: SweepReport) -> MonitorObservation {
        let now_ns = self.clock().now_ns();
        let at_ns = report
            .telemetry
            .as_ref()
            .and_then(|t| t.spans.first())
            .map_or(now_ns, |root| root.start_ns);
        self.update_series(now_ns, &report);
        let recorder = FlightRecorder::new(self.clock());
        let transitions = self.core.evaluate(now_ns, Some(&recorder));
        if let Some(telemetry) = report.telemetry.as_mut() {
            append_flight(&mut telemetry.flight, recorder.snapshot());
        }
        let incidents = self.incidents(&report);
        self.last_telemetry = report.telemetry.clone();
        self.sweeps_run += 1;
        MonitorObservation {
            at_ns,
            report,
            transitions,
            incidents,
        }
    }

    /// Runs `sweeps` monitored sweeps, sleeping the configured interval on
    /// the policy clock between consecutive sweeps (a [`FakeClock`] makes
    /// this instant and deterministic in tests).
    ///
    /// [`FakeClock`]: strider_support::obs::FakeClock
    ///
    /// # Errors
    ///
    /// Stops at the first sweep that fails outright.
    pub fn run(
        &mut self,
        machine: &mut Machine,
        sweeps: usize,
    ) -> Result<Vec<MonitorObservation>, NtStatus> {
        let clock = self.clock();
        let interval_ns = self.config.interval_ns;
        MonitorCore::run(&*clock, interval_ns, sweeps, || self.observe(machine))
    }

    /// The monitor's current state as a Prometheus-text [`Exposition`]:
    /// the last sweep's telemetry (counters, gauges, histogram buckets),
    /// every rolling series' newest value as a `monitor_*` gauge, the
    /// sweep counter, and the active-alert families.
    pub fn prometheus(&self) -> Exposition {
        let mut expo = self
            .last_telemetry
            .as_ref()
            .map(TelemetryReport::prometheus)
            .unwrap_or_default();
        expo.counter("strider_monitor_sweeps_total", self.sweeps_run);
        self.core.expose(&mut expo, "monitor.");
        expo
    }

    /// Translates the built-in rules' firing states into typed incidents,
    /// reconstructing the per-finding / per-pipeline payloads from the
    /// report the way the pre-engine monitor did.
    fn incidents(&self, report: &SweepReport) -> Vec<MonitorIncident> {
        let flight = report
            .telemetry
            .as_ref()
            .map(|t| t.flight.clone())
            .unwrap_or_default();
        let mut incidents = Vec::new();

        // Evasion incidents need no baseline: a flickering resource is
        // its own evidence.
        if self.core.engine().is_firing("evasion_suspected") {
            for (pipeline, detection) in flickering(report) {
                incidents.push(MonitorIncident::EvasionSuspected {
                    pipeline: pipeline.to_string(),
                    identity: detection.identity.clone(),
                    detail: detection.detail.clone(),
                    flight: flight.clone(),
                });
            }
        }

        let Some(baseline) = &self.baseline else {
            return incidents;
        };

        if self.core.engine().is_firing("new_hidden_resource") {
            for (pipeline, detection) in findings(report) {
                let key = finding_key(pipeline, &detection.identity);
                if !baseline.findings.contains(&key) {
                    incidents.push(MonitorIncident::NewHiddenResource {
                        pipeline: pipeline.to_string(),
                        identity: detection.identity.clone(),
                        detail: detection.detail.clone(),
                        flight: flight.clone(),
                    });
                }
            }
        }

        let durations = report.pipeline_durations();
        for pipeline in Pipeline::ALL {
            if self.core.engine().is_firing(&format!("latency.{pipeline}")) {
                incidents.push(MonitorIncident::LatencyRegression {
                    pipeline: pipeline.to_string(),
                    baseline_ns: baseline
                        .pipeline_duration_ns
                        .get(pipeline.name())
                        .copied()
                        .unwrap_or(0),
                    observed_ns: durations.get(pipeline.name()).copied().unwrap_or(0),
                    flight: flight.clone(),
                });
            }
        }

        if self.core.engine().is_firing("health_downgrade") {
            for (pipeline, status) in report.health.each() {
                if let PipelineStatus::Degraded { reason } = status {
                    if !baseline.degraded.iter().any(|p| p == pipeline.name()) {
                        incidents.push(MonitorIncident::HealthDowngrade {
                            pipeline: pipeline.to_string(),
                            reason: reason.clone(),
                            flight: flight.clone(),
                        });
                    }
                }
            }
        }
        incidents
    }

    fn update_series(&mut self, at_ns: u64, report: &SweepReport) {
        // Baseline-relative counts feed the built-in threshold rules, so
        // the engine sees exactly what the old compare() saw.
        let new_findings = self.baseline.as_ref().map(|baseline| {
            finding_keys(report)
                .filter(|key| !baseline.findings.contains(key))
                .count()
        });
        let degraded = report.health.degraded_pipelines();
        let downgrades = self.baseline.as_ref().map(|baseline| {
            degraded
                .iter()
                .filter(|pipeline| !baseline.degraded.iter().any(|p| p == *pipeline))
                .count()
        });
        let core = &mut self.core;
        core.push("sweep.suspicious", at_ns, report.suspicious_count() as f64);
        core.push("sweep.noise", at_ns, report.noise_count() as f64);
        core.push(
            "evasion.flicker_score",
            at_ns,
            report.flicker_score() as f64,
        );
        core.push("sweep.degraded", at_ns, degraded.len() as f64);
        // Every pipeline gets a sample every sweep (0 when it produced no
        // span), so baseline-relative latency rules never compare against
        // a stale value.
        let durations = report.pipeline_durations();
        for pipeline in Pipeline::ALL {
            let ns = durations.get(pipeline.name()).copied().unwrap_or(0);
            core.push(&format!("{pipeline}.duration_ns"), at_ns, ns as f64);
        }
        if let Some(telemetry) = &report.telemetry {
            for (name, value) in &telemetry.counters {
                if name.ends_with(".entries")
                    || name.ends_with(".defects")
                    || name == "sweep.timeouts"
                {
                    core.push(name, at_ns, *value as f64);
                }
            }
        }
        if let Some(count) = new_findings {
            core.push("sweep.new_findings", at_ns, count as f64);
        }
        if let Some(count) = downgrades {
            core.push("sweep.downgrades", at_ns, count as f64);
        }
    }
}

/// Appends `later`'s events to a frozen ring dump, continuing its
/// sequence numbers and evicting the oldest past its capacity.
fn append_flight(dump: &mut FlightDump, later: FlightDump) {
    let next = dump.events.last().map_or(dump.dropped, |e| e.seq + 1);
    let renumbered = later
        .events
        .into_iter()
        .zip(next..)
        .map(|(e, seq)| FlightEvent { seq, ..e });
    dump.events.extend(renumbered);
    let excess = dump.events.len().saturating_sub(dump.capacity as usize);
    dump.events.drain(..excess);
    dump.dropped += excess as u64;
}

/// The built-in rules: the drift rules derived from the baseline and
/// config (none without a baseline), then `evasion_suspected`.
fn built_in_rules(baseline: Option<&SweepBaseline>, config: &MonitorConfig) -> Vec<AlertRule> {
    let mut rules = Vec::new();
    if let Some(baseline) = baseline {
        for pipeline in Pipeline::ALL {
            let base = baseline
                .pipeline_duration_ns
                .get(pipeline.name())
                .copied()
                .unwrap_or(0);
            rules.push(
                AlertRule::new(
                    &format!("latency.{pipeline}"),
                    &format!("{pipeline}.duration_ns"),
                    AlertCondition::AboveBaseline {
                        baseline: base as f64,
                        factor: config.latency_factor,
                        floor: config.latency_floor_ns as f64,
                    },
                )
                .with_severity(Severity::Warning),
            );
        }
        rules.push(
            AlertRule::new(
                "new_hidden_resource",
                "sweep.new_findings",
                AlertCondition::Above(0.0),
            )
            .with_severity(Severity::Critical),
        );
        rules.push(
            AlertRule::new(
                "health_downgrade",
                "sweep.downgrades",
                AlertCondition::Above(0.0),
            )
            .with_severity(Severity::Critical),
        );
    }
    // Baseline-free: flicker is self-evident, no comparison anchor
    // needed. `evasion.flicker_score` stays 0 on unhardened policies (a
    // single-shot diff cannot observe flicker), so the rule only ever
    // fires under EvasionHardening.
    rules.push(
        AlertRule::new(
            "evasion_suspected",
            "evasion.flicker_score",
            AlertCondition::Above(0.0),
        )
        .with_severity(Severity::Critical),
    );
    rules
}

/// Every suspicious finding with its owning pipeline.
fn findings(report: &SweepReport) -> impl Iterator<Item = (Pipeline, &crate::Detection)> {
    Pipeline::ALL.into_iter().flat_map(move |p| {
        report
            .diff(p)
            .net_detections()
            .into_iter()
            .map(move |d| (p, d))
    })
}

/// Every [`NoiseClass::Flickering`] finding with its owning pipeline.
///
/// [`NoiseClass::Flickering`]: crate::report::NoiseClass::Flickering
fn flickering(report: &SweepReport) -> impl Iterator<Item = (Pipeline, &crate::Detection)> {
    Pipeline::ALL.into_iter().flat_map(move |p| {
        report
            .diff(p)
            .detections
            .iter()
            .filter(|d| matches!(d.noise, crate::report::NoiseClass::Flickering))
            .map(move |d| (p, d))
    })
}

fn finding_key(pipeline: Pipeline, identity: &str) -> String {
    format!("{pipeline}|{identity}")
}

fn finding_keys(report: &SweepReport) -> impl Iterator<Item = String> + '_ {
    findings(report).map(|(pipeline, d)| finding_key(pipeline, &d.identity))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ScanPolicy;
    use strider_support::obs::{FakeClock, FlightEventKind};

    fn fake_monitor() -> (Arc<FakeClock>, SweepMonitor) {
        let clock = Arc::new(FakeClock::new());
        let policy = ScanPolicy::resilient().with_clock(clock.clone());
        let monitor = SweepMonitor::new(GhostBuster::new().with_policy(policy));
        (clock, monitor)
    }

    /// The fixture every baseline-driven test repeated by hand: a
    /// fake-clock monitor with a baseline already recorded against a
    /// fresh base-system machine named `name`.
    fn baselined(name: &str) -> (Arc<FakeClock>, SweepMonitor, Machine) {
        let (clock, mut monitor) = fake_monitor();
        let mut machine = Machine::with_base_system(name).unwrap();
        monitor.record_baseline(&mut machine).unwrap();
        (clock, monitor, machine)
    }

    #[test]
    fn baseline_round_trips_through_json() {
        let (_clock, monitor, _machine) = baselined("lab-json");
        let baseline = monitor.baseline().unwrap().clone();
        let text = baseline.serialize();
        let parsed = SweepBaseline::deserialize(&text).unwrap();
        assert_eq!(parsed, baseline);
        assert_eq!(parsed.machine, "lab-json");
        assert_eq!(parsed.pipeline_duration_ns.len(), 4);
    }

    #[test]
    fn clean_machine_raises_no_incidents_and_fills_series() {
        let (_clock, mut monitor, mut machine) = baselined("lab-quiet");
        let observations = monitor.run(&mut machine, 3).unwrap();
        assert_eq!(observations.len(), 3);
        assert!(observations.iter().all(|o| o.incidents.is_empty()));
        assert!(observations.iter().all(|o| o.transitions.is_empty()));
        assert_eq!(monitor.sweeps_run, 3);
        let suspicious = &monitor.core.series()["sweep.suspicious"];
        assert_eq!(suspicious.len(), 3);
        assert_eq!(suspicious.last(), Some(0.0));
        assert_eq!(suspicious.quantile(100.0), Some(0.0));
        assert!(monitor.core.series().contains_key("files.duration_ns"));
        assert!(monitor.core.engine().firing().is_empty());
        assert!(monitor.core.engine().log().is_empty());
    }

    #[test]
    fn run_sleeps_the_interval_between_sweeps() {
        let (clock, monitor, mut machine) = baselined("lab-tick");
        let mut monitor = monitor.with_config(MonitorConfig::default().with_interval_ns(1_000));
        let observations = monitor.run(&mut machine, 3).unwrap();
        // Two gaps between three sweeps; nothing else advances the fake
        // clock on a fault-free machine.
        assert_eq!(clock.now_ns(), 2_000);
        assert_eq!(observations[1].at_ns - observations[0].at_ns, 1_000);
    }

    #[test]
    fn zero_history_config_still_retains_the_newest_sample() {
        // `MonitorConfig { history: 0, .. }` is directly constructible,
        // bypassing `with_history`'s clamp — the series itself must clamp.
        let (_clock, monitor, mut machine) = baselined("lab-zero");
        let mut monitor = monitor.with_config(MonitorConfig {
            history: 0,
            ..MonitorConfig::default()
        });
        monitor.run(&mut machine, 2).unwrap();
        let suspicious = &monitor.core.series()["sweep.suspicious"];
        assert_eq!(suspicious.len(), 1, "capacity clamped to 1, not 0");
        assert_eq!(suspicious.last(), Some(0.0));
    }

    #[test]
    fn custom_rule_transitions_reach_log_and_flight_dump() {
        let (_clock, mut monitor, mut machine) = baselined("lab-rule");
        monitor.core.add_rule(
            AlertRule::new(
                "always_on",
                "sweep.suspicious",
                AlertCondition::Below(1_000.0),
            )
            .with_severity(Severity::Info),
        );
        let observation = monitor.observe(&mut machine).unwrap();
        assert_eq!(observation.transitions.len(), 1);
        assert!(monitor.core.engine().is_firing("always_on"));
        assert_eq!(monitor.core.engine().log().len(), 1);
        // The report's flight dump carries the alert event.
        let flight = &observation.report.telemetry.as_ref().unwrap().flight;
        assert!(flight
            .events
            .iter()
            .any(|e| e.kind == FlightEventKind::Alert && e.what == "always_on"));
    }

    #[test]
    fn evasive_flicker_raises_evasion_suspected_without_a_baseline() {
        use strider_ghostware::{EvasiveGhostware, EvasiveTactic, Ghostware};
        let clock = Arc::new(FakeClock::new());
        let policy = ScanPolicy::hardened().with_clock(clock);
        let mut monitor = SweepMonitor::new(GhostBuster::new().with_policy(policy));
        let mut machine = Machine::with_base_system("lab-evasion").unwrap();
        // Unhide-during-low-scan guarantees a flickering finding under a
        // hardened sweep: the pre-raw-read quorum pass sees the lie, the
        // post-raw-read passes see honesty.
        EvasiveGhostware::new(EvasiveTactic::UnhideDuringLowScan { window: 1_000_000 })
            .infect(&mut machine)
            .unwrap();
        // No baseline on purpose: flicker needs no comparison anchor.
        let observation = monitor.observe(&mut machine).unwrap();
        assert!(observation.report.flicker_score() > 0);
        assert!(monitor.core.engine().is_firing("evasion_suspected"));
        let evasion: Vec<_> = observation
            .incidents
            .iter()
            .filter(|i| matches!(i, MonitorIncident::EvasionSuspected { .. }))
            .collect();
        assert!(!evasion.is_empty(), "typed incidents carry the findings");
        assert!(evasion
            .iter()
            .all(|i| i.to_string().contains("evasion suspected")));
        let series = &monitor.core.series()["evasion.flicker_score"];
        assert!(series.last().unwrap() > 0.0);
    }

    #[test]
    fn exposition_snapshot_includes_series_and_alerts() {
        let (_clock, mut monitor, mut machine) = baselined("lab-prom");
        monitor.observe(&mut machine).unwrap();
        let text = monitor.prometheus().render();
        assert!(text.contains("strider_monitor_sweeps_total 1"));
        assert!(text.contains("monitor_sweep_suspicious 0"));
        assert!(text.contains(
            "strider_alert_active{rule=\"new_hidden_resource\",severity=\"critical\"} 0"
        ));
    }
}
