//! The untraced run: set-up, warm-up, a timed closed loop, and the
//! end-to-end metrics with their verdict check.

use std::time::{Duration, Instant};

use strider_support::json::JsonValue;

use crate::probes;
use crate::spec::{END_TO_END, REPORTED};
use crate::stats::{median, percentile};
use crate::verdict::Tally;
use crate::workloads::{Bench, BenchError, Workload, WARMUP_OPS};

/// The share of the timed loop's wall time spent rebuilding the input
/// that every op reuses (and warming the rebuilt input), for set-up
/// samples.
const SETUP_SHARE: f64 = 0.15;

/// How long a run measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Keep starting ops until this much wall time has passed (at least
    /// one op).
    Seconds(f64),
    /// Exactly this many ops.
    Ops(u64),
}

impl Budget {
    /// Whether another op should start, given `done` ops over `elapsed`.
    pub fn wants_more(self, done: u64, elapsed: Duration) -> bool {
        match self {
            Budget::Seconds(s) => done == 0 || elapsed.as_secs_f64() < s,
            Budget::Ops(n) => done < n,
        }
    }
}

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Declared name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Declared unit.
    pub unit: &'static str,
}

/// What a run or traced run reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Whether every verdict checked out.
    pub correct: bool,
    /// Verdicts of the measured ops.
    pub tally: Tally,
    /// Timed ops (or traced ops).
    pub ops: u64,
    /// The declared metrics, in declaration order.
    pub metrics: Vec<Metric>,
    /// Metrics printed but not gated.
    pub reported: Vec<Metric>,
}

impl Outcome {
    /// The result object the benchmark prints as its last line.
    pub fn to_json(&self) -> JsonValue {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    JsonValue::Obj(vec![
                        ("value".to_string(), JsonValue::Float(m.value)),
                        ("unit".to_string(), JsonValue::Str(m.unit.to_string())),
                    ]),
                )
            })
            .collect();
        JsonValue::Obj(vec![
            ("correct".to_string(), JsonValue::Bool(self.correct)),
            (
                "attempted".to_string(),
                JsonValue::UInt(self.tally.attempted),
            ),
            ("failed".to_string(), JsonValue::UInt(self.tally.failed)),
            ("metrics".to_string(), JsonValue::Obj(metrics)),
        ])
    }

    /// Human-readable lines: every metric with its unit, the op count, and
    /// the verdict ratios behind `correct`.
    pub fn lines(&self, workload: Workload) -> Vec<String> {
        let gated = self.metrics.iter().map(|m| (m, ""));
        let printed = self.reported.iter().map(|m| (m, " (not gated)"));
        let mut lines: Vec<String> = gated
            .chain(printed)
            .map(|(m, note)| format!("{:<32} {:>14.4} {}{note}", m.name, m.value, m.unit))
            .collect();
        lines.push(format!(
            "{workload}: n={} ops, {} verdicts, failed_frac {:.4}, wrong_frac {:.4}, recall {:.4} ({} of {} hidden){}",
            self.ops,
            self.tally.attempted,
            self.tally.failed_frac(),
            self.tally.wrong_frac(),
            self.tally.recall(),
            self.tally.found,
            self.tally.hidden,
            if workload.checks_recall() { "" } else { " [recall reported, not checked]" },
            workload = workload.name(),
        ));
        lines
    }
}

/// Whether `tally` passes the workload's verdict check.
pub fn verdicts_correct(workload: Workload, tally: &Tally) -> bool {
    tally.failed == 0
        && tally.wrong == 0
        && (!workload.checks_recall() || tally.found == tally.hidden)
}

/// Runs warm-up ops (verdicts checked, nothing timed) and returns their
/// tally.
///
/// # Errors
///
/// As [`Bench::run_op`].
pub fn warm_up(bench: &mut Bench) -> Result<Tally, BenchError> {
    let mut tally = Tally::default();
    for _ in 0..WARMUP_OPS {
        tally.absorb(bench.run_op()?.tally);
    }
    Ok(tally)
}

/// The untraced run: set-up, warm-up, then timed ops until `budget` runs
/// out.
///
/// # Errors
///
/// Input-build or probe failures.
pub fn run(workload: Workload, seed: u64, budget: Budget) -> Result<Outcome, BenchError> {
    let mut bench = Bench::setup(workload, seed)?;
    let mut warm = warm_up(&mut bench)?;

    let mut walls = Vec::new();
    let mut cpu_s = 0.0;
    let mut tally = Tally::default();
    let mut rebuilding_s = 0.0;
    let started = Instant::now();
    while budget.wants_more(walls.len() as u64, started.elapsed()) {
        let op = bench.run_op()?;
        walls.push(op.wall_s * 1e3);
        cpu_s += op.cpu_s;
        tally.absorb(op.tally);
        // Set-up samples taken only at process start would all share its
        // transients (a previous run's memory still being reclaimed, a
        // slow spell of the host); rebuilding the reused input through the
        // run spreads them like the ops. An untimed op warms each rebuilt
        // input, so timed ops never sweep one fresh.
        if workload.reuses_input() && rebuilding_s < SETUP_SHARE * started.elapsed().as_secs_f64() {
            let began = Instant::now();
            bench.rebuild_input()?;
            warm.absorb(bench.run_op()?.tally);
            rebuilding_s += began.elapsed().as_secs_f64();
        }
    }
    let peak_mib = probes::peak_rss_bytes()? as f64 / f64::from(1u32 << 20);

    let verdicts = tally.attempted as f64;
    let total_wall_s: f64 = walls.iter().sum::<f64>() / 1e3;
    let value = |name: &str| match name {
        "sweep_p10_ms" => percentile(&walls, 10.0).expect("at least one op"),
        "sweep_p50_ms" => median(&walls).expect("at least one op"),
        "sweep_p90_ms" => percentile(&walls, 90.0).expect("at least one op"),
        "machines_per_s" => verdicts / total_wall_s,
        "cpu_ms_per_machine" => cpu_s * 1e3 / verdicts,
        "peak_rss_mb" => peak_mib,
        "setup_s" => median(&bench.setup_samples).expect("every workload builds an input"),
        other => unreachable!("no measurement for metric {other}"),
    };
    let metric = |name: &'static str, unit: &'static str| Metric {
        name,
        value: value(name),
        unit,
    };
    let metrics = END_TO_END.iter().map(|m| metric(m.name, m.unit)).collect();
    let reported = REPORTED
        .iter()
        .map(|&(name, unit)| metric(name, unit))
        .collect();
    Ok(Outcome {
        correct: verdicts_correct(workload, &warm) && verdicts_correct(workload, &tally),
        tally,
        ops: walls.len() as u64,
        metrics,
        reported,
    })
}
