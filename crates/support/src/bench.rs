//! Mini benchmark harness replacing `criterion`.
//!
//! `strider-bench` keeps the `criterion` API shape — [`Criterion`],
//! [`Criterion::benchmark_group`], [`Bencher::iter`] /
//! [`Bencher::iter_batched`], [`Throughput`], [`BatchSize`] and the
//! [`criterion_group!`](crate::criterion_group)/[`criterion_main!`](crate::criterion_main) macros —
//! so the eleven bench files read unchanged. What it does differently:
//!
//! * every finished group writes `BENCH_<group>.json` at the **workspace
//!   root** with mean / min / p50 / p90 / p99 / max per-iteration timings,
//!   allocation columns (`allocs_per_op` / `bytes_per_op`, counted by the
//!   [`crate::prof`] global allocator around the timed routine), and
//!   derived throughput for each scenario, seeding a commit-able perf
//!   trajectory for future PRs (`BENCH_file_scan.json`,
//!   `BENCH_process_scan.json`, …),
//! * measurement is deliberately simple: a warm-up phase calibrates
//!   iterations-per-sample, then `sample_size` samples are timed and each
//!   sample's mean per-iteration time becomes one data point. No outlier
//!   modelling, no HTML reports.
//!
//! Run via `cargo bench -p strider-bench` (all groups) or
//! `cargo bench -p strider-bench --bench time_file_scan` (one binary).
//! Setting `STRIDER_BENCH_FAST=1` clamps warm-up/measurement/samples to
//! smoke-test sizes (timings become meaningless; alloc columns stay
//! exact — allocation counts are deterministic per iteration).
//!
//! The regression gate lives here too: [`compare_bench_dirs`] diffs a
//! directory of freshly produced `BENCH_*.json` files against committed
//! baselines with per-metric noise thresholds ([`DiffThresholds`] —
//! generous for timings, tight for the deterministic alloc columns), and
//! `scripts/bench_diff` wraps it as a CLI for `verify.sh`.

use crate::json::{JsonValue, ToJson};
use crate::obs::TelemetryReport;
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Prevents the optimizer from deleting a benchmarked computation.
pub fn black_box<T>(value: T) -> T {
    std::hint::black_box(value)
}

/// Units for derived throughput, matching `criterion::Throughput`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// The measured routine processes this many logical elements.
    Elements(u64),
    /// The measured routine processes this many bytes.
    Bytes(u64),
}

/// Batch sizing hint for [`Bencher::iter_batched`]; accepted for API
/// compatibility, the harness re-runs setup per iteration regardless.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One batch per iteration.
    PerIteration,
}

/// Harness entry point, one per bench binary. A group borrows it mutably,
/// so one group runs at a time.
#[derive(Debug, Default)]
pub struct Criterion;

impl Criterion {
    /// Starts a named group; its results land in `BENCH_<name>.json`.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _criterion: PhantomData,
            name: name.into(),
            warm_up: Duration::from_millis(300),
            measurement: Duration::from_secs(1),
            sample_size: 20,
            throughput: None,
            scenarios: Vec::new(),
            phases: Vec::new(),
        }
    }
}

/// A named collection of benchmark scenarios sharing configuration.
pub struct BenchmarkGroup<'c> {
    _criterion: PhantomData<&'c mut Criterion>,
    name: String,
    warm_up: Duration,
    measurement: Duration,
    sample_size: usize,
    throughput: Option<Throughput>,
    scenarios: Vec<Scenario>,
    phases: Vec<(String, JsonValue)>,
}

#[derive(Debug)]
struct Scenario {
    id: String,
    iters_per_sample: u64,
    sample_means_ns: Vec<f64>,
    allocs_per_iter: f64,
    bytes_per_iter: f64,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Sets the calibration warm-up duration.
    pub fn warm_up_time(&mut self, duration: Duration) -> &mut Self {
        self.warm_up = duration;
        self
    }

    /// Sets the total measurement budget per scenario.
    pub fn measurement_time(&mut self, duration: Duration) -> &mut Self {
        self.measurement = duration;
        self
    }

    /// Sets how many samples each scenario records.
    pub fn sample_size(&mut self, samples: usize) -> &mut Self {
        self.sample_size = samples.max(2);
        self
    }

    /// Declares the per-iteration throughput of subsequent scenarios.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Measures one scenario.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, mut body: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut bencher = Bencher {
            warm_up: self.warm_up,
            measurement: self.measurement,
            sample_size: self.sample_size,
            iters_per_sample: 0,
            sample_means_ns: Vec::new(),
            allocs_per_iter: 0.0,
            bytes_per_iter: 0.0,
        };
        // Smoke-test mode for CI: timings become meaningless but the
        // report schema (and the deterministic alloc columns) stay exact.
        if std::env::var_os("STRIDER_BENCH_FAST").is_some() {
            bencher.warm_up = bencher.warm_up.min(Duration::from_millis(5));
            bencher.measurement = bencher.measurement.min(Duration::from_millis(20));
            bencher.sample_size = bencher.sample_size.min(4);
        }
        body(&mut bencher);
        eprintln!(
            "bench {}/{id}: {:.1} ns/iter, {:.1} allocs/iter ({:.0} B) over {} samples",
            self.name,
            mean(&bencher.sample_means_ns),
            bencher.allocs_per_iter,
            bencher.bytes_per_iter,
            bencher.sample_means_ns.len(),
        );
        self.scenarios.push(Scenario {
            id,
            iters_per_sample: bencher.iters_per_sample,
            sample_means_ns: bencher.sample_means_ns,
            allocs_per_iter: bencher.allocs_per_iter,
            bytes_per_iter: bencher.bytes_per_iter,
            throughput: self.throughput,
        });
        self
    }

    /// Attaches a per-phase timing breakdown from an instrumented run: for
    /// each span name in `report`, the occurrence count and summed wall
    /// duration land under a `"phases"` member of `BENCH_<group>.json`,
    /// keyed by `id`. One instrumented pass per scenario is enough — the
    /// goal is attribution (where the time goes), not statistics.
    pub fn record_phases(&mut self, id: impl Into<String>, report: &TelemetryReport) -> &mut Self {
        let breakdown: Vec<(String, JsonValue)> = report
            .phase_totals()
            .iter()
            .map(|(name, total)| (name.clone(), total.to_json()))
            .collect();
        self.phases.push((id.into(), JsonValue::Obj(breakdown)));
        self
    }

    /// Writes `BENCH_<group>.json` at the workspace root.
    pub fn finish(self) {
        let file_name = format!(
            "BENCH_{}.json",
            self.name
                .chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
                .collect::<String>()
        );
        let path = report_dir().join(&file_name);
        let report = self.to_json();
        if let Err(error) =
            crate::store::atomic_write_file(&path, report.render_pretty(2).as_bytes())
        {
            eprintln!("bench: could not write {}: {error}", path.display());
            return;
        }
        eprintln!("bench report: {}", path.display());
    }

    fn to_json(&self) -> JsonValue {
        let mut members = vec![
            ("group".into(), JsonValue::Str(self.name.clone())),
            (
                "harness".into(),
                JsonValue::Str("strider-support::bench".into()),
            ),
            (
                "sample_size".into(),
                JsonValue::UInt(self.sample_size as u64),
            ),
            (
                "scenarios".into(),
                JsonValue::Arr(self.scenarios.iter().map(Scenario::to_json).collect()),
            ),
        ];
        if !self.phases.is_empty() {
            members.push(("phases".into(), JsonValue::Obj(self.phases.clone())));
        }
        JsonValue::Obj(members)
    }
}

impl Scenario {
    fn to_json(&self) -> JsonValue {
        let mut sorted = self.sample_means_ns.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut members = vec![
            ("id".into(), JsonValue::Str(self.id.clone())),
            (
                "samples".into(),
                JsonValue::UInt(self.sample_means_ns.len() as u64),
            ),
            (
                "iters_per_sample".into(),
                JsonValue::UInt(self.iters_per_sample),
            ),
            ("mean_ns".into(), JsonValue::Float(mean(&sorted))),
            (
                "min_ns".into(),
                JsonValue::Float(sorted.first().copied().unwrap_or(0.0)),
            ),
            ("p50_ns".into(), JsonValue::Float(percentile(&sorted, 50.0))),
            ("p90_ns".into(), JsonValue::Float(percentile(&sorted, 90.0))),
            ("p99_ns".into(), JsonValue::Float(percentile(&sorted, 99.0))),
            (
                "max_ns".into(),
                JsonValue::Float(sorted.last().copied().unwrap_or(0.0)),
            ),
            ("std_dev_ns".into(), JsonValue::Float(std_dev(&sorted))),
            (
                "allocs_per_op".into(),
                JsonValue::Float(self.allocs_per_iter),
            ),
            ("bytes_per_op".into(), JsonValue::Float(self.bytes_per_iter)),
        ];
        if let Some(throughput) = self.throughput {
            let (key, count) = match throughput {
                Throughput::Elements(n) => ("elements", n),
                Throughput::Bytes(n) => ("bytes", n),
            };
            members.push((format!("throughput_{key}"), JsonValue::UInt(count)));
            let mean_ns = mean(&sorted);
            if mean_ns > 0.0 {
                members.push((
                    format!("{key}_per_sec"),
                    JsonValue::Float(count as f64 * 1e9 / mean_ns),
                ));
            }
        }
        JsonValue::Obj(members)
    }
}

/// Times a single scenario's routine.
pub struct Bencher {
    warm_up: Duration,
    measurement: Duration,
    sample_size: usize,
    iters_per_sample: u64,
    sample_means_ns: Vec<f64>,
    allocs_per_iter: f64,
    bytes_per_iter: f64,
}

impl Bencher {
    /// Times `routine` back-to-back, criterion's `Bencher::iter`. Also
    /// counts this thread's heap traffic across the timed loops (via the
    /// [`crate::prof`] counting allocator), yielding the per-iteration
    /// `allocs_per_op` / `bytes_per_op` report columns.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up doubles the batch size until the budget is spent, which
        // both warms caches and calibrates the per-iteration cost.
        let mut batch = 1u64;
        let per_iter_ns;
        let warm_up_start = Instant::now();
        loop {
            let t0 = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            let elapsed = t0.elapsed().as_nanos() as f64;
            if warm_up_start.elapsed() >= self.warm_up {
                per_iter_ns = (elapsed / batch as f64).max(0.1);
                break;
            }
            batch = batch.saturating_mul(2).min(1 << 24);
        }

        let budget_ns = self.measurement.as_nanos() as f64 / self.sample_size as f64;
        let iters = ((budget_ns / per_iter_ns) as u64).clamp(1, 1 << 24);
        self.iters_per_sample = iters;
        let mut total_allocs = 0u64;
        let mut total_bytes = 0u64;
        self.sample_means_ns = (0..self.sample_size)
            .map(|_| {
                let before = crate::prof::thread_stats();
                let t0 = Instant::now();
                for _ in 0..iters {
                    black_box(routine());
                }
                let elapsed = t0.elapsed();
                let after = crate::prof::thread_stats();
                total_allocs += after.allocs.saturating_sub(before.allocs);
                total_bytes += after.alloc_bytes.saturating_sub(before.alloc_bytes);
                elapsed.as_nanos() as f64 / iters as f64
            })
            .collect();
        let total_iters = iters * self.sample_size as u64;
        self.allocs_per_iter = total_allocs as f64 / total_iters as f64;
        self.bytes_per_iter = total_bytes as f64 / total_iters as f64;
    }

    /// Times `routine` with a fresh untimed `setup` product per iteration,
    /// criterion's `Bencher::iter_batched`.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        // Calibrate with a handful of timed runs.
        let warm_up_start = Instant::now();
        let mut per_iter_ns = f64::MAX;
        while warm_up_start.elapsed() < self.warm_up {
            let input = setup();
            let t0 = Instant::now();
            black_box(routine(input));
            per_iter_ns = (t0.elapsed().as_nanos() as f64).max(0.1);
        }

        let budget_ns = self.measurement.as_nanos() as f64 / self.sample_size as f64;
        let iters = ((budget_ns / per_iter_ns) as u64).clamp(1, 1 << 16);
        self.iters_per_sample = iters;
        let mut total_allocs = 0u64;
        let mut total_bytes = 0u64;
        self.sample_means_ns = (0..self.sample_size)
            .map(|_| {
                let mut timed_ns = 0u128;
                for _ in 0..iters {
                    let input = setup();
                    // Snapshot around the routine only: setup's heap
                    // traffic stays out of the columns, like its time.
                    let before = crate::prof::thread_stats();
                    let t0 = Instant::now();
                    black_box(routine(input));
                    timed_ns += t0.elapsed().as_nanos();
                    let after = crate::prof::thread_stats();
                    total_allocs += after.allocs.saturating_sub(before.allocs);
                    total_bytes += after.alloc_bytes.saturating_sub(before.alloc_bytes);
                }
                timed_ns as f64 / iters as f64
            })
            .collect();
        let total_iters = iters * self.sample_size as u64;
        self.allocs_per_iter = total_allocs as f64 / total_iters as f64;
        self.bytes_per_iter = total_bytes as f64 / total_iters as f64;
    }
}

fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

fn std_dev(samples: &[f64]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let m = mean(samples);
    let var = samples.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (samples.len() - 1) as f64;
    var.sqrt()
}

/// Percentile over pre-sorted samples at the rounded rank
/// `round(pct/100 · (n−1))`, not nearest-rank.
fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((pct / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Where `BENCH_*.json` files land: `STRIDER_BENCH_DIR` if set, otherwise
/// the enclosing cargo workspace root, otherwise the current directory.
pub fn report_dir() -> PathBuf {
    if let Some(dir) = std::env::var_os("STRIDER_BENCH_DIR") {
        return PathBuf::from(dir);
    }
    let start = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .or_else(|| std::env::current_dir().ok())
        .unwrap_or_else(|| PathBuf::from("."));
    let mut dir: &Path = &start;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(contents) = std::fs::read_to_string(&manifest) {
            if contents.contains("[workspace]") {
                return dir.to_path_buf();
            }
        }
        match dir.parent() {
            Some(parent) => dir = parent,
            None => return start,
        }
    }
}

/// Per-metric noise thresholds for the bench regression gate.
///
/// A fresh value only counts as a regression when it exceeds the
/// baseline by *both* the relative fraction and the absolute slack for
/// its metric class — the fraction filters proportional noise, the
/// absolute floor keeps sub-noise measurements (a 40 ns mean moving to
/// 70 ns) from failing builds. Timing metrics get generous defaults
/// because wall time is machine- and load-dependent; the alloc columns
/// are near-deterministic, so their thresholds are tight — they are the
/// gate's reliable signal.
#[derive(Debug, Clone, Copy)]
pub struct DiffThresholds {
    /// Allowed fractional growth for timing metrics (default 0.5).
    pub time_frac: f64,
    /// Absolute timing slack in nanoseconds (default 200).
    pub min_time_ns: f64,
    /// Allowed fractional growth for allocation metrics (default 0.02).
    pub alloc_frac: f64,
    /// Absolute slack in allocations per op (default 2).
    pub min_allocs: f64,
    /// Absolute slack in bytes per op (default 256).
    pub min_bytes: f64,
}

impl Default for DiffThresholds {
    fn default() -> Self {
        DiffThresholds {
            time_frac: 0.5,
            min_time_ns: 200.0,
            alloc_frac: 0.02,
            min_allocs: 2.0,
            min_bytes: 256.0,
        }
    }
}

/// One metric that grew past its threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricRegression {
    /// The bench group (report file stem).
    pub group: String,
    /// The scenario id inside the group.
    pub scenario: String,
    /// Which metric regressed (`mean_ns`, `allocs_per_op`, `bytes_per_op`).
    pub metric: String,
    /// The committed baseline value.
    pub baseline: f64,
    /// The fresh value.
    pub fresh: f64,
    /// The fractional growth that was allowed.
    pub allowed_frac: f64,
    /// For a `mean_ns` regression, the baseline and fresh `(p50_ns,
    /// min_ns)`: a mean that moved while the median and the minimum held
    /// points at a few slow samples (a bimodal run), not a slower scan.
    pub p50_and_min: Option<[(f64, f64); 2]>,
}

impl std::fmt::Display for MetricRegression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{} {}: {:.1} -> {:.1} (+{:.1}%, allowed {:.0}%)",
            self.group,
            self.scenario,
            self.metric,
            self.baseline,
            self.fresh,
            (self.fresh / self.baseline.max(f64::MIN_POSITIVE) - 1.0) * 100.0,
            self.allowed_frac * 100.0,
        )?;
        match self.p50_and_min {
            Some([(b50, bmin), (f50, fmin)]) => write!(
                f,
                " [p50_ns {b50:.1} -> {f50:.1}, min_ns {bmin:.1} -> {fmin:.1}]"
            ),
            None => Ok(()),
        }
    }
}

/// The outcome of diffing fresh bench reports against baselines.
#[derive(Debug, Clone, Default)]
pub struct BenchComparison {
    /// Report files compared.
    pub groups: usize,
    /// Scenarios compared across all groups.
    pub scenarios: usize,
    /// Individual metric comparisons made.
    pub metrics: usize,
    /// Every metric that regressed past its threshold.
    pub regressions: Vec<MetricRegression>,
    /// Groups or scenarios present in the baseline but absent (or
    /// missing the metric) in the fresh results — listed, never silently
    /// dropped.
    pub skipped: Vec<String>,
}

impl BenchComparison {
    /// Whether the gate passes (no metric regressed).
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }

    /// A human-readable verdict: counts, skips, and one line per
    /// regression.
    pub fn render(&self) -> String {
        let mut out = format!(
            "bench_diff: {} groups, {} scenarios, {} metrics compared\n",
            self.groups, self.scenarios, self.metrics
        );
        for skip in &self.skipped {
            out.push_str(&format!("  skipped: {skip}\n"));
        }
        if self.passed() {
            out.push_str("PASS: no metric regressed past its threshold\n");
        } else {
            for r in &self.regressions {
                out.push_str(&format!("  REGRESSION {r}\n"));
            }
            out.push_str(&format!("FAIL: {} regression(s)\n", self.regressions.len()));
        }
        out
    }
}

/// `fresh` regressed past `baseline` when it exceeds both the relative
/// fraction and the absolute slack.
fn exceeds(baseline: f64, fresh: f64, frac: f64, min_abs: f64) -> bool {
    fresh > baseline * (1.0 + frac) && fresh - baseline > min_abs
}

/// Diffs one scenario's metrics, appending regressions into `out`.
/// Metrics absent from either side (older baselines predate the alloc
/// columns) are recorded as skipped rather than compared.
fn compare_scenarios(
    group: &str,
    baseline: &JsonValue,
    fresh: &JsonValue,
    thresholds: &DiffThresholds,
    out: &mut BenchComparison,
) {
    let id = baseline
        .field("id")
        .ok()
        .and_then(|v| v.as_str().ok().map(str::to_string))
        .unwrap_or_default();
    let metrics: [(&str, f64, f64); 3] = [
        ("mean_ns", thresholds.time_frac, thresholds.min_time_ns),
        (
            "allocs_per_op",
            thresholds.alloc_frac,
            thresholds.min_allocs,
        ),
        ("bytes_per_op", thresholds.alloc_frac, thresholds.min_bytes),
    ];
    out.scenarios += 1;
    let field = |side: &JsonValue, metric| side.field(metric).and_then(JsonValue::as_f64);
    let p50_and_min = |side| Some((field(side, "p50_ns").ok()?, field(side, "min_ns").ok()?));
    let time_shape = p50_and_min(baseline).zip(p50_and_min(fresh));
    for (metric, frac, min_abs) in metrics {
        let (Ok(b), Ok(f)) = (field(baseline, metric), field(fresh, metric)) else {
            out.skipped.push(format!("{group}/{id} {metric} (absent)"));
            continue;
        };
        out.metrics += 1;
        if exceeds(b, f, frac, min_abs) {
            out.regressions.push(MetricRegression {
                group: group.to_string(),
                scenario: id.clone(),
                metric: metric.to_string(),
                baseline: b,
                fresh: f,
                allowed_frac: frac,
                p50_and_min: time_shape
                    .filter(|_| metric == "mean_ns")
                    .map(|(b, f)| [b, f]),
            });
        }
    }
}

/// Diffs two parsed `BENCH_<group>.json` reports, appending into `out`.
/// Scenarios are matched by id; baseline scenarios missing from the
/// fresh report are recorded as skipped.
fn compare_reports(
    group: &str,
    baseline: &JsonValue,
    fresh: &JsonValue,
    thresholds: &DiffThresholds,
    out: &mut BenchComparison,
) {
    out.groups += 1;
    let scenario_id = |s: &JsonValue| {
        s.field("id")
            .ok()
            .and_then(|v| v.as_str().ok().map(str::to_string))
    };
    let empty = Vec::new();
    let fresh_scenarios = fresh
        .field("scenarios")
        .and_then(JsonValue::as_arr)
        .unwrap_or(&empty);
    let baseline_scenarios = baseline
        .field("scenarios")
        .and_then(JsonValue::as_arr)
        .unwrap_or(&empty);
    for b in baseline_scenarios {
        let Some(id) = scenario_id(b) else { continue };
        match fresh_scenarios
            .iter()
            .find(|f| scenario_id(f).as_deref() == Some(&id))
        {
            Some(f) => compare_scenarios(group, b, f, thresholds, out),
            None => out.skipped.push(format!("{group}/{id} (not re-run)")),
        }
    }
}

/// The regression gate's directory walk: every `BENCH_*.json` under
/// `baseline_dir` is diffed against the same-named file under
/// `fresh_dir` (reports without a fresh counterpart are skipped, never
/// failed — partial regeneration is legitimate). Files are visited in
/// sorted order so the verdict is deterministic.
///
/// # Errors
///
/// Propagates directory-walk I/O errors; a baseline or fresh file that
/// exists but does not parse is an `InvalidData` error — a corrupt
/// committed report should fail loudly, not skip silently.
pub fn compare_bench_dirs(
    baseline_dir: &Path,
    fresh_dir: &Path,
    thresholds: &DiffThresholds,
) -> std::io::Result<BenchComparison> {
    let mut names: Vec<String> = std::fs::read_dir(baseline_dir)?
        .filter_map(|entry| {
            let name = entry.ok()?.file_name().into_string().ok()?;
            (name.starts_with("BENCH_") && name.ends_with(".json")).then_some(name)
        })
        .collect();
    names.sort();
    let parse = |path: &Path| -> std::io::Result<JsonValue> {
        let text = std::fs::read_to_string(path)?;
        JsonValue::parse(&text).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("{}: {e}", path.display()),
            )
        })
    };
    let mut out = BenchComparison::default();
    for name in names {
        let group = name
            .trim_start_matches("BENCH_")
            .trim_end_matches(".json")
            .to_string();
        let fresh_path = fresh_dir.join(&name);
        if !fresh_path.exists() {
            out.skipped.push(format!("{group} (no fresh report)"));
            continue;
        }
        let baseline = parse(&baseline_dir.join(&name))?;
        let fresh = parse(&fresh_path)?;
        compare_reports(&group, &baseline, &fresh, thresholds, &mut out);
    }
    Ok(out)
}

/// Declares a bench group function, criterion's `criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name(criterion: &mut $crate::bench::Criterion) {
            $($target(criterion);)+
        }
    };
}

/// Declares the bench binary's `main`, criterion's `criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:ident),+ $(,)?) => {
        fn main() {
            let mut criterion = $crate::bench::Criterion;
            $($group(&mut criterion);)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statistics_are_sane() {
        let samples = [4.0, 1.0, 3.0, 2.0, 5.0];
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(mean(&sorted), 3.0);
        assert_eq!(percentile(&sorted, 50.0), 3.0);
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&sorted, 100.0), 5.0);
        assert!((std_dev(&sorted) - 1.5811).abs() < 1e-3);
    }

    #[test]
    fn bench_writes_report_json() {
        let dir = std::env::temp_dir().join(format!("strider-bench-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // The env var is process-global; this is the only test that sets it.
        std::env::set_var("STRIDER_BENCH_DIR", &dir);

        let mut criterion = Criterion;
        let mut group = criterion.benchmark_group("selftest");
        group.warm_up_time(Duration::from_millis(5));
        group.measurement_time(Duration::from_millis(20));
        group.sample_size(4);
        group.throughput(Throughput::Elements(64));
        group.bench_function("sum", |b| {
            b.iter(|| (0..64u64).sum::<u64>());
        });
        group.bench_function("batched", |b| {
            b.iter_batched(
                || vec![1u64; 64],
                |v| v.iter().sum::<u64>(),
                BatchSize::SmallInput,
            );
        });
        group.bench_function("allocating", |b| {
            b.iter(|| vec![0u8; 128]);
        });
        let telemetry =
            crate::obs::Telemetry::with_clock(std::sync::Arc::new(crate::obs::FakeClock::new()));
        drop(telemetry.span("sum_phase"));
        group.record_phases("sum", &telemetry.report());
        group.finish();
        std::env::remove_var("STRIDER_BENCH_DIR");

        let report_path = dir.join("BENCH_selftest.json");
        let text = std::fs::read_to_string(&report_path).unwrap();
        let report = JsonValue::parse(&text).unwrap();
        assert_eq!(report.field("group").unwrap().as_str().unwrap(), "selftest");
        let scenarios = report.field("scenarios").unwrap().as_arr().unwrap();
        assert_eq!(scenarios.len(), 3);
        for scenario in scenarios {
            assert!(scenario.field("mean_ns").unwrap().as_f64().unwrap() > 0.0);
            assert!(scenario.field("p99_ns").unwrap().as_f64().unwrap() > 0.0);
            assert_eq!(
                scenario
                    .field("throughput_elements")
                    .unwrap()
                    .as_u64()
                    .unwrap(),
                64
            );
        }
        // The alloc columns are deterministic: summing borrowed slices
        // allocates nothing; `vec![0u8; 128]` is exactly one 128-byte
        // allocation per iteration.
        let by_id = |id: &str| {
            scenarios
                .iter()
                .find(|s| s.field("id").unwrap().as_str().unwrap() == id)
                .unwrap()
        };
        let col = |id: &str, metric: &str| by_id(id).field(metric).unwrap().as_f64().unwrap();
        assert_eq!(col("batched", "allocs_per_op"), 0.0);
        assert!((col("allocating", "allocs_per_op") - 1.0).abs() < 0.01);
        assert!((col("allocating", "bytes_per_op") - 128.0).abs() < 1.0);
        let phases = report.field("phases").unwrap().field("sum").unwrap();
        assert!(phases.field("sum_phase").is_ok());
        std::fs::remove_file(&report_path).ok();
        std::fs::remove_dir(&dir).ok();
    }

    fn report_json(mean_ns: f64, allocs: f64, bytes: f64) -> JsonValue {
        JsonValue::parse(&format!(
            r#"{{"group":"g","scenarios":[{{"id":"s","mean_ns":{mean_ns},"allocs_per_op":{allocs},"bytes_per_op":{bytes}}}]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn diff_passes_on_identical_reports() {
        let baseline = report_json(10_000.0, 100.0, 4_096.0);
        let mut out = BenchComparison::default();
        compare_reports(
            "g",
            &baseline,
            &baseline,
            &DiffThresholds::default(),
            &mut out,
        );
        assert!(out.passed(), "{}", out.render());
        assert_eq!(out.metrics, 3);
        assert!(out.render().contains("PASS"));
    }

    #[test]
    fn diff_fails_when_a_metric_regresses_past_its_threshold() {
        let baseline = report_json(10_000.0, 100.0, 4_096.0);
        // Time doubled and allocs up 10%: both past their thresholds.
        let fresh = report_json(20_000.0, 110.0, 4_096.0);
        let mut out = BenchComparison::default();
        compare_reports("g", &baseline, &fresh, &DiffThresholds::default(), &mut out);
        assert!(!out.passed());
        let metrics: Vec<&str> = out.regressions.iter().map(|r| r.metric.as_str()).collect();
        assert_eq!(metrics, vec!["mean_ns", "allocs_per_op"]);
        assert!(
            out.render().contains("FAIL: 2 regression(s)"),
            "{}",
            out.render()
        );
        assert!(out.regressions[0].to_string().contains("g/s mean_ns"));
    }

    #[test]
    fn a_mean_only_time_regression_shows_the_held_p50_and_min() {
        let scenario = |mean: f64| {
            JsonValue::parse(&format!(
                r#"{{"group":"g","scenarios":[{{"id":"s","mean_ns":{mean},"p50_ns":21000.0,"min_ns":20000.0}}]}}"#
            ))
            .unwrap()
        };
        // Two slow samples in ten lift the mean by 60%; p50 and min hold.
        let mut out = BenchComparison::default();
        let thresholds = DiffThresholds::default();
        compare_reports(
            "g",
            &scenario(21_000.0),
            &scenario(33_600.0),
            &thresholds,
            &mut out,
        );
        assert_eq!(out.regressions.len(), 1);
        let regression = &out.regressions[0];
        assert_eq!(regression.metric, "mean_ns");
        let held = (21_000.0, 20_000.0);
        assert_eq!(regression.p50_and_min, Some([held, held]));
        assert!(
            out.render().contains(
                "mean_ns: 21000.0 -> 33600.0 (+60.0%, allowed 50%) \
                 [p50_ns 21000.0 -> 21000.0, min_ns 20000.0 -> 20000.0]"
            ),
            "{}",
            out.render()
        );
    }

    #[test]
    fn diff_absolute_slack_absorbs_sub_noise_movement() {
        // 40 ns -> 70 ns is +75% but under the 200 ns absolute slack;
        // 1 alloc -> 2 allocs is +100% but within the 2-alloc slack.
        let baseline = report_json(40.0, 1.0, 64.0);
        let fresh = report_json(70.0, 2.0, 64.0);
        let mut out = BenchComparison::default();
        compare_reports("g", &baseline, &fresh, &DiffThresholds::default(), &mut out);
        assert!(out.passed(), "{}", out.render());
    }

    #[test]
    fn diff_skips_metrics_absent_from_old_baselines() {
        let baseline =
            JsonValue::parse(r#"{"group":"g","scenarios":[{"id":"s","mean_ns":10.0}]}"#).unwrap();
        let fresh = report_json(10.0, 5.0, 64.0);
        let mut out = BenchComparison::default();
        compare_reports("g", &baseline, &fresh, &DiffThresholds::default(), &mut out);
        assert!(out.passed());
        assert_eq!(out.metrics, 1);
        assert_eq!(out.skipped.len(), 2, "{:?}", out.skipped);
    }

    #[test]
    fn diff_walks_directories_and_lists_missing_fresh_reports() {
        let base = std::env::temp_dir().join(format!("strider-diff-b-{}", std::process::id()));
        let fresh = std::env::temp_dir().join(format!("strider-diff-f-{}", std::process::id()));
        std::fs::create_dir_all(&base).unwrap();
        std::fs::create_dir_all(&fresh).unwrap();
        let report = report_json(10_000.0, 100.0, 4_096.0).render();
        std::fs::write(base.join("BENCH_alpha.json"), &report).unwrap();
        std::fs::write(fresh.join("BENCH_alpha.json"), &report).unwrap();
        std::fs::write(base.join("BENCH_beta.json"), &report).unwrap();

        let out = compare_bench_dirs(&base, &fresh, &DiffThresholds::default()).unwrap();
        assert!(out.passed(), "{}", out.render());
        assert_eq!(out.groups, 1);
        assert!(out
            .skipped
            .iter()
            .any(|s| s.contains("beta (no fresh report)")));

        std::fs::remove_dir_all(&base).ok();
        std::fs::remove_dir_all(&fresh).ok();
    }
}
