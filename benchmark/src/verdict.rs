//! Scoring sweep verdicts against seeded ground truth.
//!
//! Matching follows `tests/end_to_end.rs`: a hidden file is found when a
//! net file detection names exactly its path, a hidden ASEP entry when one
//! net hook detection contains every ` -> `-separated part of it (case
//! folded), and a hidden process or module when a net detection of that
//! kind contains its name. The one extension is that a file detection the
//! hardened quorum annotated as flickering (`<path> (flickered: ...)`)
//! still names its path.

use strider_ghostbuster::{Detection, DiffReport, SweepReport};
use strider_ghostware::Infection;

/// Verdict accounting over any number of scored machines.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Verdicts attempted (one per machine swept).
    pub attempted: u64,
    /// Verdicts whose op returned `Err`, had a degraded pipeline, or whose
    /// shard was quarantined.
    pub failed: u64,
    /// Seeded-infected machines not flagged plus seeded-clean machines
    /// flagged.
    pub wrong: u64,
    /// Ground-truth hidden resources on the scored machines.
    pub hidden: u64,
    /// Of those, how many a net detection names.
    pub found: u64,
}

impl Tally {
    /// Adds another tally's counts to this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.hidden += other.hidden;
        self.found += other.found;
    }

    /// Failed verdicts over attempted verdicts.
    pub fn failed_frac(&self) -> f64 {
        ratio(self.failed, self.attempted)
    }

    /// Wrong verdicts over attempted verdicts.
    pub fn wrong_frac(&self) -> f64 {
        ratio(self.wrong, self.attempted)
    }

    /// Found hidden resources over all hidden resources (1 when nothing
    /// was hidden).
    pub fn recall(&self) -> f64 {
        if self.hidden == 0 {
            1.0
        } else {
            ratio(self.found, self.hidden)
        }
    }
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Scores one machine's verdict.
///
/// `report` is the machine's sweep report, `None` when the op returned an
/// error; `truth` is the seeded infection (`None` for a clean machine);
/// `quarantined` marks a fleet shard fenced off after its retries ran
/// out. A failed op still counts its machine's hidden resources as missed
/// and, on an infected machine, as a wrong verdict: an error never reads
/// as a detection.
pub fn score(report: Option<&SweepReport>, truth: Option<&Infection>, quarantined: bool) -> Tally {
    let degraded = report.is_some_and(|r| !r.health.degraded_pipelines().is_empty());
    let flagged = report.is_some_and(SweepReport::is_infected);
    let (hidden, found) = match (truth, report) {
        (Some(infection), Some(report)) => hidden_found(report, infection),
        (Some(infection), None) => (hidden_count(infection), 0),
        (None, _) => (0, 0),
    };
    Tally {
        attempted: 1,
        failed: u64::from(report.is_none() || degraded || quarantined),
        wrong: u64::from(flagged != truth.is_some()),
        hidden,
        found,
    }
}

fn hidden_count(infection: &Infection) -> u64 {
    (infection.hidden_files.len()
        + infection.hidden_asep_entries.len()
        + infection.hidden_process_names.len()
        + infection.hidden_module_names.len()) as u64
}

fn hidden_found(report: &SweepReport, infection: &Infection) -> (u64, u64) {
    let names = |diff: &DiffReport, hit: &dyn Fn(&Detection) -> bool| {
        diff.net_detections().into_iter().any(hit)
    };
    let mut found = 0u64;
    for path in &infection.hidden_files {
        let path = path.to_string();
        let flickered = format!("{path} (flickered");
        found += u64::from(names(&report.files, &|d| {
            d.detail == path || d.detail.starts_with(&flickered)
        }));
    }
    for entry in &infection.hidden_asep_entries {
        found += u64::from(names(&report.hooks, &|d| {
            let detail = d.detail.to_ascii_lowercase();
            entry
                .split(" -> ")
                .all(|part| detail.contains(&part.to_ascii_lowercase()))
        }));
    }
    for name in &infection.hidden_process_names {
        found += u64::from(names(&report.processes, &|d| d.detail.contains(name)));
    }
    for name in &infection.hidden_module_names {
        found += u64::from(names(&report.modules, &|d| d.detail.contains(name)));
    }
    (hidden_count(infection), found)
}

#[cfg(test)]
mod tests {
    use super::*;
    use strider_ghostbuster::{GhostBuster, PipelineStatus};
    use strider_ghostware::{Ghostware, HackerDefender};
    use strider_winapi::Machine;

    fn infected() -> (Machine, Infection) {
        let mut m = Machine::with_base_system("verdict").unwrap();
        let infection = HackerDefender::default().infect(&mut m).unwrap();
        (m, infection)
    }

    #[test]
    fn a_full_detection_scores_clean() {
        let (mut m, infection) = infected();
        let report = GhostBuster::new().inside_sweep(&mut m).unwrap();
        let tally = score(Some(&report), Some(&infection), false);
        assert_eq!(tally.failed_frac(), 0.0);
        assert_eq!(tally.wrong_frac(), 0.0);
        assert_eq!(tally.recall(), 1.0);
        assert_eq!(tally.hidden, 6);
    }

    #[test]
    fn a_clean_report_against_an_infected_truth_is_wrong_and_recalls_nothing() {
        let (_, infection) = infected();
        let mut clean = Machine::with_base_system("clean").unwrap();
        let report = GhostBuster::new().inside_sweep(&mut clean).unwrap();
        let tally = score(Some(&report), Some(&infection), false);
        assert_eq!(tally.wrong_frac(), 1.0);
        assert_eq!(tally.recall(), 0.0);
        assert_eq!(tally.failed_frac(), 0.0);
    }

    #[test]
    fn a_flagged_clean_shard_counts_as_wrong() {
        let (mut m, _) = infected();
        let report = GhostBuster::new().inside_sweep(&mut m).unwrap();
        assert!(report.is_infected());
        let tally = score(Some(&report), None, false);
        assert_eq!(tally.wrong, 1);
        assert_eq!(tally.recall(), 1.0, "nothing hidden on a clean machine");
    }

    #[test]
    fn an_err_op_counts_as_failed_and_missed() {
        let (_, infection) = infected();
        let tally = score(None, Some(&infection), false);
        assert_eq!(tally.failed_frac(), 1.0);
        assert_eq!(tally.wrong_frac(), 1.0);
        assert_eq!(tally.recall(), 0.0);
    }

    #[test]
    fn a_degraded_pipeline_or_quarantine_counts_as_failed() {
        let (mut m, infection) = infected();
        let mut report = GhostBuster::new().inside_sweep(&mut m).unwrap();
        assert_eq!(score(Some(&report), Some(&infection), true).failed, 1);
        report.health.registry = PipelineStatus::Degraded {
            reason: "device not ready".to_string(),
        };
        let tally = score(Some(&report), Some(&infection), false);
        assert_eq!(tally.failed_frac(), 1.0);
        assert_eq!(tally.wrong, 0, "still flagged by the other pipelines");
    }

    #[test]
    fn tallies_accumulate() {
        let (_, infection) = infected();
        let mut total = Tally::default();
        total.absorb(score(None, Some(&infection), false));
        total.absorb(score(None, None, false));
        assert_eq!(total.attempted, 2);
        assert_eq!(total.failed_frac(), 1.0);
        assert_eq!(total.wrong_frac(), 0.5);
    }
}
