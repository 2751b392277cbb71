//! Fleet-wide drift monitoring: one [`SweepMonitor`] per shard (so every
//! machine diffs against *its own* baseline) plus fleet-level rollup
//! series, with incidents tagged by shard and fleet-level alert rules
//! (infection-rate spike, degraded-shard fraction, sweep-latency SLO,
//! worker starvation) evaluated after every pass. A pass is one
//! [`FleetScheduler`] run followed by judging each shard's report; the
//! rollup series, the rules and the pass loop live in the same
//! [`MonitorCore`] the shard monitors use.

use crate::durable::QuarantineRecord;
use crate::registry::{FleetMachine, FleetRegistry, ShardId};
use crate::report::{FleetCheckpoint, ShardDisposition};
use crate::scheduler::{entry_failed, FleetControl, FleetScheduler};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use strider_ghostbuster::{
    MonitorConfig, MonitorIncident, MonitorObservation, SweepBaseline, SweepMonitor,
};
use strider_nt_core::NtStatus;
use strider_support::alert::{
    nearest_rank, AlertCondition, AlertRule, AlertTransition, Exposition, MonitorCore, Severity,
};
use strider_support::obs::{Clock, FlightDump, FlightRecorder};

/// A [`MonitorIncident`] tagged with the shard it fired on. The wrapped
/// incident carries that shard's flight-recorder dump as evidence.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetIncident {
    /// The shard the incident concerns.
    pub shard: ShardId,
    /// That shard's machine name.
    pub machine: String,
    /// The underlying per-machine incident.
    pub incident: MonitorIncident,
}

impl fmt::Display for FleetIncident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]: {}", self.shard, self.machine, self.incident)
    }
}

/// Thresholds for the built-in fleet-level alert rules.
///
/// Four rules watch the rollup series after every pass:
///
/// * `fleet.infection_spike` — `fleet.infection_rate` above
///   [`infection_rate_max`](Self::infection_rate_max) (critical);
/// * `fleet.degraded_shards` — `fleet.degraded_fraction` (fraction of
///   shards with at least one degraded pipeline) above
///   [`degraded_fraction_max`](Self::degraded_fraction_max) (warning);
/// * `fleet.latency_slo` — `fleet.p95_sweep_ns` ([`nearest_rank`] p95 of
///   per-shard sweep durations this pass) above
///   [`sweep_p95_slo_ns`](Self::sweep_p95_slo_ns) (warning);
/// * `fleet.worker_starvation` — `fleet.queue_wait_p95_ns` (p95 shard
///   queue wait in the pass's own [`FleetTrace`](crate::FleetTrace)) above
///   [`queue_wait_p95_max_ns`](Self::queue_wait_p95_max_ns) (warning):
///   shards sitting that long on worker deques means the pool is
///   under-provisioned or a worker is wedged on one slow machine.
///
/// All rules share one [`for_ns`](Self::for_ns) hold: a rule must stay
/// breached that long (on the policy clock) before it fires.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetAlertPolicy {
    /// Infection-rate ceiling (fraction of shards), default 0.25.
    pub infection_rate_max: f64,
    /// Degraded-shard-fraction ceiling, default 0.25.
    pub degraded_fraction_max: f64,
    /// Per-pass p95 sweep-duration SLO in nanoseconds; default
    /// `u64::MAX` (no latency SLO).
    pub sweep_p95_slo_ns: u64,
    /// Ceiling on the p95 shard queue wait in nanoseconds; default
    /// `u64::MAX` (no starvation watch).
    pub queue_wait_p95_max_ns: u64,
    /// Hysteresis hold applied to every fleet rule, default 0.
    pub for_ns: u64,
}

impl Default for FleetAlertPolicy {
    fn default() -> Self {
        FleetAlertPolicy {
            infection_rate_max: 0.25,
            degraded_fraction_max: 0.25,
            sweep_p95_slo_ns: u64::MAX,
            queue_wait_p95_max_ns: u64::MAX,
            for_ns: 0,
        }
    }
}

impl FleetAlertPolicy {
    /// Sets the infection-rate ceiling.
    pub fn with_infection_rate_max(mut self, max: f64) -> Self {
        self.infection_rate_max = max;
        self
    }

    /// Sets the p95 shard-queue-wait ceiling behind
    /// `fleet.worker_starvation`.
    pub fn with_queue_wait_p95_max_ns(mut self, max_ns: u64) -> Self {
        self.queue_wait_p95_max_ns = max_ns;
        self
    }

    fn rules(&self) -> Vec<AlertRule> {
        vec![
            AlertRule::new(
                "fleet.infection_spike",
                "fleet.infection_rate",
                AlertCondition::Above(self.infection_rate_max),
            )
            .with_for_ns(self.for_ns)
            .with_severity(Severity::Critical),
            AlertRule::new(
                "fleet.degraded_shards",
                "fleet.degraded_fraction",
                AlertCondition::Above(self.degraded_fraction_max),
            )
            .with_for_ns(self.for_ns)
            .with_severity(Severity::Warning),
            AlertRule::new(
                "fleet.latency_slo",
                "fleet.p95_sweep_ns",
                AlertCondition::Above(self.sweep_p95_slo_ns as f64),
            )
            .with_for_ns(self.for_ns)
            .with_severity(Severity::Warning),
            AlertRule::new(
                "fleet.worker_starvation",
                "fleet.queue_wait_p95_ns",
                AlertCondition::Above(self.queue_wait_p95_max_ns as f64),
            )
            .with_for_ns(self.for_ns)
            .with_severity(Severity::Warning),
        ]
    }
}

/// One shard's failed monitoring pass: its report came back with degraded
/// pipelines (every pipeline, when the scanner could not enter the
/// machine), or the scheduler's heal policy quarantined it. Failures are
/// counted per shard; enough *consecutive* ones quarantine the shard
/// (see [`FleetMonitor::with_quarantine_after`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardFailure {
    /// The failing shard.
    pub shard: ShardId,
    /// That shard's machine name.
    pub machine: String,
    /// Why the pass failed.
    pub reason: String,
    /// Consecutive failed passes including this one.
    pub consecutive: u32,
}

impl fmt::Display for ShardFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] failed pass ({} consecutive): {}",
            self.shard, self.machine, self.consecutive, self.reason
        )
    }
}

/// One fleet-wide monitoring pass: every observed shard's observation
/// plus the incidents, failures, and fleet-level alert transitions raised
/// across the fleet.
#[derive(Debug, Clone)]
pub struct FleetObservation {
    /// Monitor clock reading when the pass started.
    pub at_ns: u64,
    /// Which shards were observed this pass, parallel to `shards`. Equals
    /// every shard in shard order unless some are quarantined.
    pub shard_ids: Vec<ShardId>,
    /// Per-observed-shard observations, parallel to `shard_ids`.
    pub shards: Vec<MonitorObservation>,
    /// Every incident of the pass, tagged with its shard.
    pub incidents: Vec<FleetIncident>,
    /// Shards whose pass failed this round (degraded pipelines, or a
    /// heal-policy quarantine) — the raw signal behind quarantine counting.
    pub failures: Vec<ShardFailure>,
    /// Shards fenced after this pass: skipped by it, or fenced during it.
    pub quarantined: Vec<ShardId>,
    /// Fleet-level alert transitions this pass produced.
    pub transitions: Vec<AlertTransition>,
}

impl FleetObservation {
    /// Shards whose sweep found something suspicious this pass.
    pub fn infected_shards(&self) -> Vec<ShardId> {
        self.shard_ids
            .iter()
            .zip(&self.shards)
            .filter(|(_, o)| o.report.is_infected())
            .map(|(id, _)| *id)
            .collect()
    }
}

/// Judges what a [`FleetScheduler`] sweeps: one [`SweepMonitor`] per fleet
/// machine, with their signals rolled up into the fleet-level series of a
/// [`MonitorCore`], whose engine holds the fleet rules.
///
/// Per-shard baselines matter because machines differ: a 30 s file scan is
/// normal on a large shard and a regression on a tiny one. The fleet
/// monitor therefore compares every machine against *its own* recorded
/// baseline, and only the rollups (infected count, total incidents,
/// degraded pipelines, infection rate, degraded fraction, p95 sweep
/// latency, and the pass's queue wait and worker idle fraction) are
/// fleet-global. The [`FleetAlertPolicy`] rules — plus any custom rules
/// [`add_rule`](MonitorCore::add_rule)d to its [`core`](Self::core) — are
/// evaluated over those rollup series after every pass, and every
/// transition lands in the monitor's own [`FlightRecorder`] (see
/// [`flight`](Self::flight)) so fleet alerts carry a black box just like
/// shard incidents do.
///
/// Every pass, baselines included, is one run of the scheduler the
/// monitor was built from, so its worker count, work stealing and
/// [`FleetHealPolicy`](crate::FleetHealPolicy) apply, and each shard sweep
/// gets fresh circuit breakers. Fenced shards go into that run the way a
/// durable restart's journaled fences do: they come back
/// [`ShardDisposition::Quarantined`] without being swept.
#[derive(Debug, Clone)]
pub struct FleetMonitor {
    scheduler: FleetScheduler,
    config: MonitorConfig,
    alert_policy: FleetAlertPolicy,
    /// The fleet rollup series, the fleet rules (add custom ones with
    /// [`MonitorCore::add_rule`]) and their alert log.
    pub core: MonitorCore,
    recorder: FlightRecorder,
    shards: Vec<SweepMonitor>,
    passes_run: u64,
    quarantine_after: u32,
    failure_streaks: Vec<u32>,
    quarantined: BTreeMap<u32, QuarantineRecord>,
}

impl FleetMonitor {
    /// A fleet monitor sweeping through `scheduler`, with default
    /// [`MonitorConfig`] and [`FleetAlertPolicy`].
    pub fn new(scheduler: FleetScheduler) -> Self {
        let recorder = FlightRecorder::new(scheduler.detector().policy().clock().clone());
        let config = MonitorConfig::default();
        let alert_policy = FleetAlertPolicy::default();
        FleetMonitor {
            scheduler,
            core: MonitorCore::new(config.history, alert_policy.rules()),
            config,
            alert_policy,
            recorder,
            shards: Vec::new(),
            passes_run: 0,
            quarantine_after: u32::MAX,
            failure_streaks: Vec::new(),
            quarantined: BTreeMap::new(),
        }
    }

    /// Fences a shard after `passes` *consecutive* failed passes
    /// (degraded pipelines): later passes skip it, its record
    /// lands in [`quarantined`](Self::quarantined) with flight evidence,
    /// and the `fleet.quarantined` series counts it. Default: never
    /// (`u32::MAX`). A successful pass resets a shard's streak. A shard
    /// the scheduler's heal policy quarantines is fenced at once.
    pub fn with_quarantine_after(mut self, passes: u32) -> Self {
        self.quarantine_after = passes.max(1);
        self
    }

    /// The shards currently fenced off, in shard order. A record the
    /// monitor made counts consecutive failed passes in `attempts` and
    /// carries the monitor's flight ring as evidence; one the scheduler
    /// made keeps its attempts and evidence.
    pub fn quarantined(&self) -> Vec<&QuarantineRecord> {
        self.quarantined.values().collect()
    }

    /// Lifts a shard's quarantine (after the operator fixed the machine)
    /// and resets its failure streak so the next pass observes it again.
    /// Returns whether the shard was quarantined.
    pub fn unquarantine(&mut self, shard: ShardId) -> bool {
        if let Some(streak) = self.failure_streaks.get_mut(shard.0 as usize) {
            *streak = 0;
        }
        self.quarantined.remove(&shard.0).is_some()
    }

    /// Replaces the monitor configuration, shared by every shard monitor
    /// (those already recorded included). Rebuilds the fleet rules and
    /// every shard's built-in rules, which resets their alert states;
    /// baselines and custom rules are kept.
    pub fn with_config(mut self, config: MonitorConfig) -> Self {
        self.shards = self
            .shards
            .into_iter()
            .map(|shard| shard.with_config(config.clone()))
            .collect();
        self.config = config;
        self.core
            .rebuild(self.config.history, self.alert_policy.rules());
        self
    }

    /// Replaces the fleet alert policy, rebuilding the fleet rules (which
    /// resets their states; custom rules are kept).
    pub fn with_alert_policy(mut self, policy: FleetAlertPolicy) -> Self {
        self.alert_policy = policy;
        self.core
            .rebuild(self.config.history, self.alert_policy.rules());
        self
    }

    /// A snapshot of the fleet monitor's own flight ring — fleet alert
    /// transitions land here, so a firing fleet rule ships evidence the
    /// same way shard incidents do.
    pub fn flight(&self) -> FlightDump {
        self.recorder.snapshot()
    }

    /// The per-shard monitor, once baselines are recorded.
    pub fn shard(&self, shard: ShardId) -> Option<&SweepMonitor> {
        self.shards.get(shard.0 as usize)
    }

    fn clock(&self) -> Arc<dyn Clock> {
        self.scheduler.detector().policy().clock().clone()
    }

    /// Sweeps the fleet once through the scheduler and installs each
    /// shard's report as that shard's baseline, creating the per-shard
    /// monitors and lifting every fence.
    ///
    /// # Errors
    ///
    /// [`NtStatus::NoSuchProcess`] when the scanner could not enter some
    /// machine, and [`NtStatus::Cancelled`] when the scheduler's
    /// cancellation left some shard unswept: no monitor keeps a baseline
    /// from a machine it never swept.
    pub fn record_baselines(&mut self, fleet: &mut FleetRegistry) -> Result<usize, NtStatus> {
        let taken_at_ns = self.clock().now_ns();
        let report = self.scheduler.sweep(fleet)?;
        if !report.unswept.is_empty() {
            return Err(NtStatus::Cancelled);
        }
        if report.results().iter().any(|r| entry_failed(&r.report)) {
            return Err(NtStatus::NoSuchProcess);
        }
        let (detector, config) = (self.scheduler.detector(), &self.config);
        self.shards = report
            .results()
            .iter()
            .map(|r| {
                let mut monitor = SweepMonitor::new(detector.clone()).with_config(config.clone());
                let baseline = SweepBaseline::from_report(&r.machine, taken_at_ns, &r.report);
                monitor.set_baseline(baseline);
                monitor
            })
            .collect();
        self.failure_streaks = vec![0; self.shards.len()];
        self.quarantined.clear();
        Ok(self.shards.len())
    }

    /// Runs one monitoring pass over the whole fleet: one scheduler run
    /// that skips the fenced shards, then every swept shard's report
    /// judged against that shard's baseline in shard order, incidents
    /// tagged with their shard, the fleet rollup series (the run's own
    /// timeline included) updated, and the fleet alert rules evaluated.
    ///
    /// A shard whose pass fails — its report comes back with degraded
    /// pipelines, or the scheduler's heal policy quarantines it — no
    /// longer sinks the fleet: the failure is recorded (with a flight
    /// event) in [`FleetObservation::failures`], and once a shard fails
    /// [`with_quarantine_after`](Self::with_quarantine_after) consecutive
    /// passes it is fenced off and skipped until
    /// [`unquarantine`](Self::unquarantine)d.
    ///
    /// # Errors
    ///
    /// [`NtStatus::InvalidParameter`] when baselines were not recorded
    /// for this fleet.
    pub fn observe(&mut self, fleet: &mut FleetRegistry) -> Result<FleetObservation, NtStatus> {
        let baselined = |(m, shard): (&FleetMachine, &SweepMonitor)| {
            shard
                .baseline()
                .is_some_and(|b| b.machine == m.machine.name())
        };
        if self.shards.len() != fleet.len()
            || !fleet.machines().iter().zip(&self.shards).all(baselined)
        {
            return Err(NtStatus::InvalidParameter);
        }
        let at_ns = self.clock().now_ns();
        let mut checkpoint = FleetCheckpoint::new(fleet);
        let report = self.scheduler.sweep_core(
            fleet,
            &mut checkpoint,
            &mut |_| FleetControl::Continue,
            &self.quarantined,
            None,
        )?;
        let queue_wait_ns = report.trace().queue_wait_p95_ns() as f64;
        let idle = report.trace().worker_idle_fraction();

        let mut shard_ids = Vec::with_capacity(fleet.len());
        let mut observations = Vec::with_capacity(fleet.len());
        let mut incidents = Vec::new();
        let mut failures = Vec::new();
        for result in report.results {
            let i = result.shard.0;
            if self.quarantined.contains_key(&i) {
                continue;
            }
            // A shard the heal policy quarantined has no verdict to judge.
            let (reason, fence) = match result.disposition {
                ShardDisposition::Quarantined(record) => {
                    (Some(record.reason.clone()), Some(record))
                }
                _ => {
                    let observation = self.shards[i as usize].judge(result.report);
                    incidents.extend(observation.incidents.iter().map(|incident| FleetIncident {
                        shard: result.shard,
                        machine: result.machine.clone(),
                        incident: incident.clone(),
                    }));
                    let degraded = observation.report.health.degraded_pipelines();
                    let reason = (!degraded.is_empty())
                        .then(|| format!("degraded pipelines: {}", degraded.join(", ")));
                    shard_ids.push(result.shard);
                    observations.push(observation);
                    (reason, None)
                }
            };
            match reason {
                None => self.failure_streaks[i as usize] = 0,
                Some(reason) => failures.push(self.fail(i, result.machine, reason, fence)),
            }
        }

        // The merged report's aggregates cover exactly the judged shards.
        let now_ns = self.clock().now_ns();
        let shard_count = report.swept.max(1) as f64;
        let infected = report.infected as f64;
        let degraded: u64 = report.health.values().map(|r| r.degraded).sum();
        let degraded_shards = observations
            .iter()
            .filter(|o| !o.report.health.degraded_pipelines().is_empty())
            .count() as f64;
        let sweep_ns = observations
            .iter()
            .map(|o| o.report.pipeline_durations().values().sum::<u64>() as f64);
        let p95_ns = nearest_rank(sweep_ns, 95.0).unwrap_or(0.0);
        let suspicious: usize = observations
            .iter()
            .map(|o| o.report.suspicious_count())
            .sum();

        let core = &mut self.core;
        core.push("fleet.infected", now_ns, infected);
        core.push("fleet.suspicious", now_ns, suspicious as f64);
        core.push("fleet.degraded", now_ns, degraded as f64);
        core.push("fleet.incidents", now_ns, incidents.len() as f64);
        core.push("fleet.infection_rate", now_ns, infected / shard_count);
        core.push(
            "fleet.degraded_fraction",
            now_ns,
            degraded_shards / shard_count,
        );
        core.push("fleet.p95_sweep_ns", now_ns, p95_ns);
        core.push("fleet.failures", now_ns, failures.len() as f64);
        core.push("fleet.quarantined", now_ns, self.quarantined.len() as f64);
        core.push("fleet.queue_wait_p95_ns", now_ns, queue_wait_ns);
        core.push("fleet.worker_idle_fraction", now_ns, idle);
        let transitions = core.evaluate(now_ns, Some(&self.recorder));

        self.passes_run += 1;
        Ok(FleetObservation {
            at_ns,
            shard_ids,
            shards: observations,
            incidents,
            failures,
            quarantined: self.quarantined.keys().map(|&i| ShardId(i)).collect(),
            transitions,
        })
    }

    /// Counts one failed pass for `shard` and fences it when the
    /// scheduler already quarantined it (`fence`) or its streak reached
    /// the quarantine threshold.
    fn fail(
        &mut self,
        shard: u32,
        machine: String,
        reason: String,
        fence: Option<QuarantineRecord>,
    ) -> ShardFailure {
        let streak = &mut self.failure_streaks[shard as usize];
        *streak += 1;
        let consecutive = *streak;
        self.recorder.fault(
            "fleet.shard_failure",
            &format!(
                "shard-{shard:03} [{machine}] pass failed ({consecutive} consecutive): {reason}"
            ),
        );
        if fence.is_some() || consecutive >= self.quarantine_after {
            self.recorder.fault(
                "fleet.shard_quarantine",
                &format!("shard-{shard:03} [{machine}] fenced after {consecutive} failed passes"),
            );
            let record = fence.unwrap_or_else(|| QuarantineRecord {
                shard,
                machine: machine.clone(),
                attempts: consecutive,
                reason: reason.clone(),
                evidence: self.recorder.snapshot(),
            });
            self.quarantined.insert(shard, record);
        }
        ShardFailure {
            shard: ShardId(shard),
            machine,
            reason,
            consecutive,
        }
    }

    /// Runs `passes` monitoring passes, sleeping the configured interval
    /// on the policy clock between consecutive passes.
    ///
    /// # Errors
    ///
    /// Stops at the first pass that fails outright.
    pub fn run(
        &mut self,
        fleet: &mut FleetRegistry,
        passes: usize,
    ) -> Result<Vec<FleetObservation>, NtStatus> {
        let clock = self.clock();
        let interval_ns = self.config.interval_ns;
        MonitorCore::run(&*clock, interval_ns, passes, || self.observe(fleet))
    }

    /// The fleet monitor's current state as a Prometheus-text
    /// [`Exposition`]: every fleet rollup series' newest value as a
    /// `fleet_*` gauge, the pass counter, and the active fleet alerts.
    pub fn prometheus(&self) -> Exposition {
        let mut expo = Exposition::new();
        expo.counter("strider_fleet_passes_total", self.passes_run);
        self.core.expose(&mut expo, "");
        expo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::FleetSpec;
    use strider_ghostbuster::{GhostBuster, ScanPolicy};
    use strider_support::obs::FakeClock;

    fn fake_monitor() -> FleetMonitor {
        let policy = ScanPolicy::resilient().with_clock(Arc::new(FakeClock::new()));
        FleetMonitor::new(FleetScheduler::new(GhostBuster::new().with_policy(policy)))
    }

    #[test]
    fn observe_without_baselines_is_rejected() {
        let mut fleet = FleetRegistry::seeded(&FleetSpec::clean(2, 3)).unwrap();
        let mut monitor = fake_monitor();
        assert_eq!(
            monitor.observe(&mut fleet).unwrap_err(),
            NtStatus::InvalidParameter
        );
    }

    #[test]
    fn quiet_fleet_raises_no_incidents_and_fills_series() {
        let mut fleet = FleetRegistry::seeded(&FleetSpec::clean(3, 13)).unwrap();
        let mut monitor = fake_monitor();
        assert_eq!(monitor.record_baselines(&mut fleet).unwrap(), 3);
        let passes = monitor.run(&mut fleet, 2).unwrap();
        assert_eq!(passes.len(), 2);
        assert!(passes.iter().all(|p| p.incidents.is_empty()));
        assert!(passes.iter().all(|p| p.transitions.is_empty()));
        assert_eq!(monitor.passes_run, 2);
        let infected = &monitor.core.series()["fleet.infected"];
        assert_eq!(infected.len(), 2);
        assert_eq!(infected.last(), Some(0.0));
        assert_eq!(
            monitor.core.series()["fleet.infection_rate"].last(),
            Some(0.0)
        );
        assert!(monitor.shard(ShardId(0)).unwrap().baseline().is_some());
        assert!(monitor.core.engine().firing().is_empty());
    }

    #[test]
    fn new_infection_is_tagged_with_its_shard() {
        use strider_ghostware::{Ghostware, HackerDefender};
        let mut fleet = FleetRegistry::seeded(&FleetSpec::clean(3, 29)).unwrap();
        let mut monitor = fake_monitor();
        monitor.record_baselines(&mut fleet).unwrap();

        HackerDefender::default()
            .infect(&mut fleet.machines_mut()[1].machine)
            .unwrap();
        let pass = monitor.observe(&mut fleet).unwrap();
        assert!(!pass.incidents.is_empty());
        assert!(
            pass.incidents.iter().all(|i| i.shard == ShardId(1)),
            "{:?}",
            pass.incidents
        );
        assert!(pass
            .incidents
            .iter()
            .any(|i| matches!(i.incident, MonitorIncident::NewHiddenResource { .. })));
        assert_eq!(pass.infected_shards(), vec![ShardId(1)]);
        let rendered = pass.incidents[0].to_string();
        assert!(rendered.starts_with("shard-001 ["), "{rendered}");
        assert_eq!(
            monitor.core.series()["fleet.incidents"].last(),
            Some(pass.incidents.len() as f64)
        );
    }

    #[test]
    fn infection_spike_fires_the_fleet_rule_with_flight_evidence() {
        use strider_ghostware::{Ghostware, HackerDefender};
        let mut fleet = FleetRegistry::seeded(&FleetSpec::clean(3, 31)).unwrap();
        let mut monitor = fake_monitor();
        monitor.record_baselines(&mut fleet).unwrap();

        // 1/3 infected > 0.25 default ceiling.
        HackerDefender::default()
            .infect(&mut fleet.machines_mut()[0].machine)
            .unwrap();
        let pass = monitor.observe(&mut fleet).unwrap();
        assert!(monitor.core.engine().is_firing("fleet.infection_spike"));
        assert!(pass
            .transitions
            .iter()
            .any(|t| t.rule == "fleet.infection_spike"));
        assert!(monitor
            .flight()
            .events
            .iter()
            .any(|e| e.what == "fleet.infection_spike"));
        let prom = monitor.prometheus().render();
        assert!(prom.contains(
            "strider_alert_active{rule=\"fleet.infection_spike\",severity=\"critical\"} 1"
        ));
    }
}
