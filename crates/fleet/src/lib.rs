//! Fleet-scale sweeping: the paper's enterprise deployment story — "IT
//! organizations can remotely deploy the solution on a large number of
//! desktops" — as a service layer over the single-machine detector.
//!
//! Three pieces compose:
//!
//! * [`FleetRegistry`] — a deterministic fleet of seeded machines with a
//!   controlled ghostware mix (sizes vary, infections spread evenly,
//!   families cycle through the detectable corpus), so fleet-level claims
//!   can be asserted exactly;
//! * [`FleetScheduler`] — a work-stealing worker pool fanning supervised
//!   [`inside sweeps`](strider_ghostbuster::GhostBuster::inside_sweep)
//!   across the fleet, each shard under its own cancellation scope, time
//!   budgets, and fresh circuit breakers, with per-shard
//!   checkpoint/resume ([`FleetCheckpoint`]) and batched result ingest
//!   over a bounded channel;
//! * [`FleetReport`] — the order-independent merge: fleet infection rate,
//!   per-family/per-technique prevalence, per-pipeline health rollups,
//!   and fleet-wide latency quantiles from merged
//!   [`HistogramSketch`](strider_support::obs::HistogramSketch)es.
//!
//! The fleet is crash-safe and self-healing. A
//! [`FleetScheduler::sweep_durable`] journals per-shard progress into a
//! checksummed, generational
//! [`RecordStore`](strider_support::store::RecordStore) — one O(1)
//! appended record per completed shard ([`DurabilityMode::WalAppend`]) — so
//! the process can be killed at any write byte and a rerun resumes to a
//! merged report whose [`FleetReport::result_digest`] is byte-identical
//! to an uninterrupted run's. A [`FleetHealPolicy`] adds per-shard retry
//! budgets with seeded exponential backoff; a shard that exhausts its
//! budget is fenced as [`ShardDisposition::Quarantined`] with
//! flight-recorder evidence — surfaced in [`FleetReport::quarantined`],
//! never silently dropped and never an `Err` that sinks the fleet.
//!
//! [`FleetMonitor`] adds the continuous story on top of the scheduler: a
//! monitored pass is one [`FleetScheduler`] run followed by judging each
//! swept shard's report with that shard's
//! [`SweepMonitor`](strider_ghostbuster::SweepMonitor) (every machine
//! diffs against its *own* baseline), so a monitored fleet gets the same
//! work stealing, heal retries and timeline as any sweep. Incidents come
//! back as [`FleetIncident`]s tagged by shard, each carrying that shard's
//! flight-recorder dump as evidence, and a shard fenced after consecutive
//! failed passes is the same [`QuarantineRecord`] the journal stores. On
//! top of the rollups sits an alerting plane: a [`FleetAlertPolicy`]
//! installs fleet-level rules (infection-rate spike, degraded-shard
//! fraction, p95 sweep-latency SLO, worker starvation) into an
//! [`AlertEngine`](strider_support::alert::AlertEngine) evaluated after
//! every pass, and both the live monitor and the merged [`FleetReport`]
//! export Prometheus-text snapshots (`TELEMETRY_EXPO_<label>.prom`).
//!
//! Performance attribution rides on the same machinery: every fleet sweep
//! records each scheduler decision (shard enqueue, steal, sweep
//! start/finish) on the policy clock into its [`FleetReport`], the one
//! record of the run. [`FleetReport::trace`] returns that timeline as a
//! [`FleetTrace`], whose queue-wait and worker-occupancy metrics every
//! monitored pass pushes into its `fleet.queue_wait_p95_ns` /
//! `fleet.worker_idle_fraction` series, and
//! [`FleetReport::chrome_trace`] merges scheduler lanes, named worker
//! lanes, and every shard's telemetry spans — on globally unique tids —
//! into one fleet-wide Chrome trace (`FLEET_TRACE_<label>.json`).
//!
//! # Examples
//!
//! ```
//! use strider_fleet::{FleetRegistry, FleetScheduler, FleetSpec};
//! use strider_ghostbuster::{AdvancedSource, GhostBuster, ScanPolicy};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 6 seeded machines, 2 of them infected.
//! let mut fleet = FleetRegistry::seeded(&FleetSpec::clean(6, 42).with_infected(2))?;
//! let scheduler = FleetScheduler::new(
//!     GhostBuster::new()
//!         .with_advanced(AdvancedSource::ThreadTable)
//!         .with_policy(ScanPolicy::supervised()),
//! )
//! .with_workers(2);
//!
//! let report = scheduler.sweep(&mut fleet)?;
//! assert_eq!(report.swept, 6);
//! assert_eq!(report.infected, 2);
//! assert!((report.infection_rate() - 2.0 / 6.0).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod durable;
mod monitor;
mod registry;
mod report;
mod scheduler;
mod trace;

pub use durable::{
    DurabilityMode, DurableFleetState, DurableSweepError, FleetHealPolicy, QuarantineRecord,
};
pub use monitor::{FleetAlertPolicy, FleetIncident, FleetMonitor, FleetObservation, ShardFailure};
pub use registry::{FleetMachine, FleetRegistry, FleetSpec, ShardId};
pub use report::{
    CheckpointMismatch, FleetCheckpoint, FleetReport, PipelineRollup, Prevalence, ShardDisposition,
    ShardResult,
};
pub use scheduler::{FleetControl, FleetScheduler};
pub use trace::{FleetTrace, SchedEvent, SchedEventKind};

/// Convenient re-exports.
pub mod prelude {
    pub use crate::{
        CheckpointMismatch, DurabilityMode, DurableFleetState, DurableSweepError, FleetAlertPolicy,
        FleetCheckpoint, FleetControl, FleetHealPolicy, FleetIncident, FleetMachine, FleetMonitor,
        FleetObservation, FleetRegistry, FleetReport, FleetScheduler, FleetSpec, FleetTrace,
        PipelineRollup, Prevalence, QuarantineRecord, SchedEvent, SchedEventKind, ShardDisposition,
        ShardFailure, ShardId, ShardResult,
    };
}
