//! The benchmark's declared surface: workload names, end-to-end metrics
//! with their regression bounds, and per-layer metrics. `BENCHMARK.json`
//! at the repository root declares the same names; `tests/schema.rs`
//! keeps the two in step.

/// The workload seed used when none is given.
pub const DEFAULT_SEED: u64 = 42;

/// How long one run measures when no `--seconds` is given; equal to
/// `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 20;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, bytes, counts of work).
    Lower,
    /// Larger values are better (throughput).
    Higher,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: what a user of the detector sees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
}

/// The gated end-to-end metrics, measured in untraced runs.
///
/// Correctness (failed verdicts, wrong verdicts, recall) is not in this
/// list: it is the run's `correct`/`failed` outcome instead, because a
/// ratio that is 0 or 1 on every healthy run cannot carry a relative
/// bound. The median and 90th-percentile op time, the throughput and the
/// CPU per machine are printed with every run ([`REPORTED`]) but not
/// gated: on a shared host with slow periods their run-to-run spread is
/// wider than any bound a regression check could use. Interference only
/// ever adds time, so the fast end of the op-time distribution moves with
/// the program and little else; `sweep_p10_ms` is the gated timing.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "sweep_p10_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// End-to-end metrics every untraced run prints, with `n`, but does not
/// gate: (name, unit).
pub const REPORTED: [(&str, &str); 4] = [
    ("sweep_p50_ms", "ms"),
    ("sweep_p90_ms", "ms"),
    ("machines_per_s", "1/s"),
    ("cpu_ms_per_machine", "ms"),
];

/// The four layers a sweep crosses, plus the benchmark's own self-checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The simulated machine: hooked API chain, raw captures, parsers.
    Substrate,
    /// The detector's scans.
    Detector,
    /// The cross-view diff.
    Diff,
    /// Supervision, quorum passes, journaling, telemetry, scheduling.
    Shell,
    /// Checks on the traced run itself.
    Bench,
}

impl Layer {
    /// Lower-case layer name.
    pub fn as_str(self) -> &'static str {
        match self {
            Layer::Substrate => "substrate",
            Layer::Detector => "detector",
            Layer::Diff => "diff",
            Layer::Shell => "shell",
            Layer::Bench => "bench",
        }
    }
}

/// One per-layer metric, reported by traced runs on every workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerLayer {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// The layer whose public calls the metric times or counts.
    pub layer: Layer,
    /// The end-to-end metric and workload it should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    layer: Layer,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        layer,
        moves,
    }
}

/// The per-layer metrics, measured in traced runs.
pub const PER_LAYER: [PerLayer; 32] = [
    layer(
        "winapi.query_ms",
        "ms",
        Layer::Substrate,
        "sweep_p10_ms on hardened-evasive",
    ),
    layer(
        "winapi.api_calls",
        "count",
        Layer::Substrate,
        "sweep_p10_ms on hardened-evasive",
    ),
    layer(
        "winapi.capture_ms",
        "ms",
        Layer::Substrate,
        "sweep_p10_ms on inside-large and outside-winpe",
    ),
    layer(
        "winapi.image_bytes",
        "bytes",
        Layer::Substrate,
        "peak_rss_mb on inside-large",
    ),
    layer(
        "ntfs.parse_ms",
        "ms",
        Layer::Substrate,
        "sweep_p10_ms and cpu_ms_per_machine on inside-large",
    ),
    layer(
        "ntfs.parse_allocs",
        "count",
        Layer::Substrate,
        "cpu_ms_per_machine on inside-large",
    ),
    layer(
        "hive.parse_ms",
        "ms",
        Layer::Substrate,
        "sweep_p10_ms on inside-large and outside-winpe",
    ),
    layer(
        "hive.parse_allocs",
        "count",
        Layer::Substrate,
        "cpu_ms_per_machine on inside-large",
    ),
    layer(
        "core.files.high_scan_ms",
        "ms",
        Layer::Detector,
        "sweep_p10_ms on inside-large",
    ),
    layer(
        "core.files.high_self_ms",
        "ms",
        Layer::Detector,
        "sweep_p10_ms and cpu_ms_per_machine on inside-large",
    ),
    layer(
        "core.files.high_allocs",
        "count",
        Layer::Detector,
        "cpu_ms_per_machine and peak_rss_mb on inside-large",
    ),
    layer(
        "core.files.truth_scan_ms",
        "ms",
        Layer::Detector,
        "sweep_p10_ms on inside-large and outside-winpe",
    ),
    layer(
        "core.files.truth_self_ms",
        "ms",
        Layer::Detector,
        "sweep_p10_ms and cpu_ms_per_machine on inside-large",
    ),
    layer(
        "core.files.truth_allocs",
        "count",
        Layer::Detector,
        "cpu_ms_per_machine and peak_rss_mb on inside-large",
    ),
    layer(
        "core.registry.high_scan_ms",
        "ms",
        Layer::Detector,
        "sweep_p10_ms on hardened-evasive",
    ),
    layer(
        "core.registry.truth_scan_ms",
        "ms",
        Layer::Detector,
        "sweep_p10_ms on inside-large and outside-winpe",
    ),
    layer(
        "core.registry.truth_allocs",
        "count",
        Layer::Detector,
        "cpu_ms_per_machine on inside-large",
    ),
    layer(
        "core.process.high_scan_ms",
        "ms",
        Layer::Detector,
        "sweep_p10_ms on hardened-evasive",
    ),
    layer(
        "core.process.truth_scan_ms",
        "ms",
        Layer::Detector,
        "sweep_p10_ms on outside-winpe",
    ),
    layer(
        "core.process.module_scan_ms",
        "ms",
        Layer::Detector,
        "sweep_p10_ms on fleet-stalled",
    ),
    layer(
        "core.diff.files_ms",
        "ms",
        Layer::Diff,
        "sweep_p10_ms on inside-large and hardened-evasive",
    ),
    layer(
        "core.diff.files_allocs",
        "count",
        Layer::Diff,
        "cpu_ms_per_machine on inside-large",
    ),
    layer(
        "core.diff.registry_ms",
        "ms",
        Layer::Diff,
        "sweep_p10_ms on hardened-evasive",
    ),
    layer(
        "core.diff.processes_ms",
        "ms",
        Layer::Diff,
        "sweep_p10_ms on hardened-evasive",
    ),
    layer(
        "core.diff.modules_ms",
        "ms",
        Layer::Diff,
        "sweep_p10_ms on hardened-evasive",
    ),
    layer(
        "core.ghostbuster.overhead_ms",
        "ms",
        Layer::Shell,
        "sweep_p10_ms on inside-large and hardened-evasive; about 0 on outside-winpe",
    ),
    layer(
        "core.policy.quorum_factor",
        "ratio",
        Layer::Shell,
        "sweep_p10_ms on hardened-evasive",
    ),
    layer(
        "core.policy.poll_wait_ms",
        "ms",
        Layer::Shell,
        "sweep_p10_ms and machines_per_s on fleet-stalled",
    ),
    layer(
        "support.obs.telemetry_tax_frac",
        "ratio",
        Layer::Shell,
        "sweep_p10_ms on fleet-stalled; budget 0.05 on inside-large",
    ),
    layer(
        "bench.op_ms",
        "ms",
        Layer::Bench,
        "the untraced op inside the traced run; compare with sweep_p10_ms",
    ),
    layer(
        "bench.trace_overhead_frac",
        "ratio",
        Layer::Bench,
        "nothing: cost of running the op as traced layer calls",
    ),
    layer(
        "bench.unattributed_frac",
        "ratio",
        Layer::Bench,
        "nothing: must stay above -0.05",
    ),
];
