//! Strider GhostBuster: cross-view diff detection of hidden files, Registry
//! entries, processes, and loaded modules.
//!
//! This crate is the paper's primary contribution. Ghostware hides its
//! resources from the OS query/enumeration APIs; GhostBuster "leverages the
//! hiding behavior as a detection mechanism" by comparing two views of the
//! same state at the same time:
//!
//! * **inside-the-box** — a high-level scan through the (hooked) APIs
//!   versus a low-level scan of the underlying structures: the raw MFT for
//!   files ([`FileScanner`]), raw hive files for the Registry
//!   ([`RegistryScanner`]), and kernel process structures — the Active
//!   Process List, or in *advanced mode* the scheduler thread table /
//!   subsystem handle table, which defeats FU-style DKOM
//!   ([`ProcessScanner`]);
//! * **outside-the-box** — the inside high-level scan versus a clean-boot
//!   scan of the captured disk image (WinPE flow) or a crash-dump image for
//!   volatile state ([`GhostBuster::winpe_outside_sweep`]), or the
//!   zero-gap VM variant ([`GhostBuster::vm_outside_files`]).
//!
//! Extensions from Section 5: per-process injected scans
//! ([`injected_sweep`]) that defeat utility-targeted and scanner-aware
//! hiding, the signature-scanner dilemma ([`SignatureScanner`]), and the
//! Unix port ([`UnixGhostBuster`]). Two baselines exist for head-to-head
//! benchmarks: the Tripwire-style [`CrossTimeDiff`] and the VICE-style
//! [`HookScanner`].
//!
//! # The operational layer
//!
//! The paper's detector is a loop body; this crate also ships the loop.
//! A [`ScanPolicy`] turns a sweep into a *supervised* sweep: retries with
//! backoff, salvage-mode parsing, per-pipeline/per-sweep time budgets,
//! cooperative cancellation, and circuit breakers
//! ([`ScanPolicy::supervised`] is the production posture). A sweep records
//! per-pipeline progress into a [`SweepCheckpoint`]
//! ([`GhostBuster::inside_sweep_checkpointed`]) that serializes to JSON;
//! passing the parsed checkpoint back to the same method resumes after a
//! kill — interrupted pipelines are deliberately *not* checkpointed: a
//! timeout is a reason to re-run, not a result. Every per-pipeline table
//! (reports, health, checkpoint slots, breakers) is keyed by [`Pipeline`].
//! [`SweepMonitor`] runs the loop continuously against a
//! recorded baseline and raises [`MonitorIncident`]s, each carrying the
//! flight-recorder dump of the pass that tripped it. Fleet-scale fan-out of
//! these supervised sweeps lives upstream in `strider-fleet`.
//!
//! # Examples
//!
//! ```
//! use strider_ghostbuster::GhostBuster;
//! use strider_ghostbuster::AdvancedSource;
//! use strider_ghostware::{Ghostware, Fu};
//! use strider_winapi::Machine;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut machine = Machine::with_base_system("victim")?;
//! Fu::default().infect(&mut machine)?; // DKOM process hiding
//!
//! // Normal mode cannot see DKOM…
//! let normal = GhostBuster::new().scan_processes_inside(&mut machine)?;
//! assert!(!normal.has_detections());
//!
//! // …advanced mode can.
//! let advanced = GhostBuster::new()
//!     .with_advanced(AdvancedSource::ThreadTable)
//!     .scan_processes_inside(&mut machine)?;
//! assert!(advanced.has_detections());
//! # Ok(())
//! # }
//! ```
//!
//! A supervised whole-machine sweep on a fake clock, checkpointed so it
//! could resume after a kill:
//!
//! ```
//! use std::sync::Arc;
//! use strider_ghostbuster::{GhostBuster, ScanPolicy, SweepCheckpoint};
//! use strider_ghostware::{Ghostware, HackerDefender};
//! use strider_support::obs::FakeClock;
//! use strider_winapi::Machine;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut machine = Machine::with_base_system("victim")?;
//! HackerDefender::default().infect(&mut machine)?;
//!
//! let clock = Arc::new(FakeClock::new());
//! let detector = GhostBuster::new()
//!     .with_policy(ScanPolicy::supervised().with_clock(clock));
//! let mut checkpoint = SweepCheckpoint::new(&machine);
//! let report = detector.inside_sweep_checkpointed(&mut machine, &mut checkpoint)?;
//!
//! assert!(report.is_infected());
//! assert!(report.health.files.is_ok());
//! assert!(checkpoint.is_complete()); // nothing left to resume
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod asep_monitor;
mod crosstime;
mod diff;
mod drivers;
mod files;
mod ghostbuster;
mod harden;
mod hookscan;
mod inject;
mod instrument;
mod monitor;
mod policy;
mod process;
mod registry;
mod report;
mod scanfile;
mod signature;
mod snapshot;
mod unixgb;

pub use asep_monitor::{AsepChanges, AsepCheckpoint, AsepMonitor};
pub use crosstime::{ChangeSet, Checkpoint, CrossTimeDiff};
pub use diff::cross_view_diff;
pub use drivers::{DriverAnomaly, DriverFinding, DriverScanner};
pub use files::FileScanner;
pub use ghostbuster::{
    GhostBuster, PipelineCheckpoint, SweepBreakers, SweepCheckpoint, SweepReport, GHOSTBUSTER_IMAGE,
};
pub use hookscan::{install_benign_wrapper, HookFinding, HookScanner};
pub use inject::{injected_sweep, InjectedSweepReport, PerProcessReport};
pub use monitor::{
    MonitorConfig, MonitorIncident, MonitorObservation, SweepBaseline, SweepMonitor,
};
pub use policy::{
    interrupt_status, EvasionHardening, Pipeline, PipelineStatus, ScanPolicy, SweepHealth,
};
pub use process::{AdvancedSource, ProcessScanner};
pub use registry::{OutsideRegistryMode, RegistryScanner};
pub use report::{Detection, DiffReport, FileCategory, NoiseClass, NoiseFilter, ResourceKind};
pub use scanfile::{parse_scan_file, write_scan_file, ScanFileError};
pub use signature::{Signature, SignatureHit, SignatureScanner};
pub use snapshot::{FileFact, HookFact, ModuleFact, ProcessFact, ScanMeta, Snapshot, ViewKind};
pub use strider_support::alert::{
    AlertCondition, AlertEngine, AlertLog, AlertRule, AlertState, AlertTransition, Exposition,
    MonitorCore, Severity, TimeSeries,
};
pub use strider_support::obs::{
    FakeClock, FlightDump, FlightEvent, FlightEventKind, FlightRecorder, HistogramSketch,
    MonotonicClock, Telemetry, TelemetryReport,
};
pub use strider_support::task::{
    BreakerState, CancellationToken, CircuitBreaker, Deadline, Interrupt, Supervision, TimeBudget,
};
pub use unixgb::{UnixBinaryIntegrity, UnixDetection, UnixGhostBuster, UnixReport};

/// Convenient re-exports.
pub mod prelude {
    pub use crate::{
        cross_view_diff, injected_sweep, install_benign_wrapper, AdvancedSource, AlertCondition,
        AlertEngine, AlertRule, AlertState, AsepMonitor, BreakerState, CancellationToken,
        CircuitBreaker, CrossTimeDiff, Deadline, Detection, DiffReport, DriverScanner,
        EvasionHardening, FileCategory, FileScanner, FlightDump, FlightRecorder, GhostBuster,
        HistogramSketch, HookScanner, InjectedSweepReport, MonitorConfig, MonitorIncident,
        NoiseClass, NoiseFilter, OutsideRegistryMode, Pipeline, PipelineCheckpoint, PipelineStatus,
        ProcessScanner, RegistryScanner, ResourceKind, ScanMeta, ScanPolicy, Severity,
        SignatureScanner, Snapshot, Supervision, SweepBaseline, SweepBreakers, SweepCheckpoint,
        SweepHealth, SweepMonitor, SweepReport, Telemetry, TelemetryReport, TimeBudget, TimeSeries,
        UnixGhostBuster, ViewKind,
    };
}
