//! `compare <dirA> <dirB>`: judges two sets of untraced runs of the same
//! benchmark against the declared end-to-end bounds.
//!
//! Each directory holds the `run_<workload>_s<seed>.json` files that
//! `--out` writes. For every workload and end-to-end metric the verdict is
//! `pass`, `regressed` (B's median worse than A's by more than the bound),
//! or `unresolved` (either side's quartile spread is wider than the bound,
//! unless every run of B is better than every run of A).

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use strider_support::json::JsonValue;

use crate::spec::{Better, END_TO_END};
use crate::stats::{median, quartiles};

/// Metric values per workload, per metric name, one per run.
pub type RunSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// A comparison's verdict for one workload and metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is within the bound of A.
    Pass,
    /// B is worse than A by more than the bound.
    Regressed,
    /// The runs are too spread (or too few) to tell.
    Unresolved,
}

impl Verdict {
    /// Lower-case verdict name.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of the comparison table.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: &'static str,
    /// Runs on each side.
    pub runs: (usize, usize),
    /// Medians of A and B.
    pub medians: (f64, f64),
    /// Quartile spread of A and B, each as a share of its median.
    pub spreads: (f64, f64),
    /// How much worse B's median is than A's, as a share of A's
    /// (negative when B is better).
    pub worse_by: f64,
    /// The declared bound.
    pub bound: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Reads every `run_*.json` file in `dir`.
///
/// # Errors
///
/// Fails when the directory or a run file cannot be read or parsed.
pub fn load(dir: &Path) -> io::Result<RunSet> {
    let invalid = |e: String| io::Error::new(io::ErrorKind::InvalidData, e);
    let mut set = RunSet::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if !(name.starts_with("run_") && name.ends_with(".json")) {
            continue;
        }
        let doc = JsonValue::parse(&std::fs::read_to_string(&path)?)
            .map_err(|e| invalid(format!("{}: {e}", path.display())))?;
        let read = || -> Result<(String, Vec<(String, f64)>), strider_support::json::JsonError> {
            let workload = doc.field("workload")?.as_str()?.to_string();
            let mut values = Vec::new();
            for (metric, body) in doc.field("metrics")?.as_obj()? {
                values.push((metric.clone(), body.field("value")?.as_f64()?));
            }
            Ok((workload, values))
        };
        let (workload, values) = read().map_err(|e| invalid(format!("{}: {e}", path.display())))?;
        let metrics = set.entry(workload).or_default();
        for (metric, value) in values {
            metrics.entry(metric).or_default().push(value);
        }
    }
    Ok(set)
}

/// Compares run set `b` against baseline `a`, metric by metric.
pub fn compare(a: &RunSet, b: &RunSet) -> Vec<Row> {
    let mut rows = Vec::new();
    for (workload, a_metrics) in a {
        let Some(b_metrics) = b.get(workload) else {
            continue;
        };
        for spec in &END_TO_END {
            let empty = Vec::new();
            let va = a_metrics.get(spec.name).unwrap_or(&empty);
            let vb = b_metrics.get(spec.name).unwrap_or(&empty);
            rows.push(judge(workload, spec.name, spec.better, spec.bound, va, vb));
        }
    }
    rows
}

fn judge(
    workload: &str,
    metric: &'static str,
    better: Better,
    bound: f64,
    a: &[f64],
    b: &[f64],
) -> Row {
    let spread = |v: &[f64], m: f64| quartiles(v).map_or(f64::INFINITY, |(q1, q3)| (q3 - q1) / m);
    let (ma, mb) = (median(a).unwrap_or(f64::NAN), median(b).unwrap_or(f64::NAN));
    let spreads = (spread(a, ma), spread(b, mb));
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    let b_always_better = a.iter().all(|&x| {
        b.iter().all(|&y| match better {
            Better::Lower => y < x,
            Better::Higher => y > x,
        })
    });
    let verdict = if a.len() < 2 || b.len() < 2 {
        Verdict::Unresolved
    } else if spreads.0 > bound || spreads.1 > bound {
        if b_always_better {
            Verdict::Pass
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Pass
    };
    Row {
        workload: workload.to_string(),
        metric,
        runs: (a.len(), b.len()),
        medians: (ma, mb),
        spreads,
        worse_by,
        bound,
        verdict,
    }
}

/// Renders the comparison as a Markdown table.
pub fn render(rows: &[Row]) -> String {
    let mut out = String::from(
        "| workload | metric | runs A/B | median A | median B | IQR/median A | IQR/median B | worse by | bound | verdict |\n|---|---|---|---|---|---|---|---|---|---|\n",
    );
    for r in rows {
        out.push_str(&format!(
            "| {} | {} | {}/{} | {:.4} | {:.4} | {:.4} | {:.4} | {:+.4} | {:.2} | {} |\n",
            r.workload,
            r.metric,
            r.runs.0,
            r.runs.1,
            r.medians.0,
            r.medians.1,
            r.spreads.0,
            r.spreads.1,
            r.worse_by,
            r.bound,
            r.verdict.as_str()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verdict(better: Better, a: &[f64], b: &[f64]) -> Verdict {
        judge("w", "m", better, 0.10, a, b).verdict
    }

    #[test]
    fn within_the_bound_passes() {
        let a = [100.0, 101.0, 99.0, 100.0];
        assert_eq!(
            verdict(Better::Lower, &a, &[104.0, 105.0, 103.0, 104.0]),
            Verdict::Pass
        );
    }

    #[test]
    fn past_the_bound_regresses() {
        let a = [100.0, 101.0, 99.0, 100.0];
        assert_eq!(
            verdict(Better::Lower, &a, &[115.0, 116.0, 114.0, 115.0]),
            Verdict::Regressed
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let tight = [100.0, 101.0, 99.0, 100.0];
        assert_eq!(
            verdict(Better::Lower, &[60.0, 100.0, 140.0, 100.0], &tight),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(Better::Lower, &[100.0], &[100.0]),
            Verdict::Unresolved
        );
    }

    #[test]
    fn a_wide_spread_still_passes_when_every_b_run_wins() {
        let a = [160.0, 200.0, 240.0, 200.0];
        assert_eq!(
            verdict(Better::Lower, &a, &[50.0, 60.0, 70.0, 80.0]),
            Verdict::Pass
        );
    }

    #[test]
    fn higher_is_better_metrics_regress_downwards() {
        let row = judge(
            "w",
            "m",
            Better::Higher,
            0.10,
            &[100.0, 101.0, 99.0, 100.0],
            &[80.0, 81.0, 79.0, 80.0],
        );
        assert_eq!(row.verdict, Verdict::Regressed);
        assert!(row.worse_by > 0.15);
    }

    #[test]
    fn compare_covers_every_declared_metric_of_shared_workloads() {
        let mut metrics = BTreeMap::new();
        metrics.insert("sweep_p10_ms".to_string(), vec![10.0, 10.1, 9.9]);
        let mut a = RunSet::new();
        a.insert("w".to_string(), metrics);
        let b = a.clone();
        let rows = compare(&a, &b);
        assert_eq!(rows.len(), END_TO_END.len());
        let p10 = rows.iter().find(|r| r.metric == "sweep_p10_ms").unwrap();
        assert_eq!(p10.verdict, Verdict::Pass);
        let rss = rows.iter().find(|r| r.metric == "peak_rss_mb").unwrap();
        assert_eq!(rss.verdict, Verdict::Unresolved, "no runs of it");
    }
}
