//! The repository benchmark for the Strider GhostBuster reproduction.
//!
//! Four seeded workloads drive the detector's public API from a single
//! closed-loop client thread. An untraced run ([`run::run`]) times whole
//! ops and checks every verdict against the seeded ground truth; a traced
//! run ([`trace::trace`]) replays each op as its layers' public calls to
//! attribute the time to the substrate, detector, diff and shell layers.
//! [`compare`] judges two sets of runs against the declared bounds.
//! See `README.md` next to this crate for the workloads, the metrics and
//! how to run them.

pub mod compare;
pub mod probes;
pub mod run;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod verdict;
pub mod workloads;
