//! GhostBuster for Linux/Unix (paper, Section 5).
//!
//! The same cross-view framework on the Unix substrate:
//!
//! * **inside-the-box**: `ls` versus direct-`getdents` globbing (`echo *`) —
//!   the Brumley check, which exposes trojaned `ls` binaries (T0rnkit);
//! * **outside-the-box**: the recursive `ls` scan versus a clean scan of
//!   the same partitions from a bootable CD — which additionally exposes
//!   LKM-based syscall interception, since the clean kernel runs no LKM.

use crate::report::{NoiseClass, NoiseFilter};
use strider_unixfs::UnixMachine;

/// One Unix finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnixDetection {
    /// The hidden absolute path.
    pub path: String,
    /// Noise verdict.
    pub noise: NoiseClass,
}

/// A Unix cross-view report.
#[derive(Debug, Clone, Default)]
pub struct UnixReport {
    /// All findings.
    pub detections: Vec<UnixDetection>,
}

impl UnixReport {
    /// Suspicious findings after noise classification.
    pub fn net_detections(&self) -> Vec<&UnixDetection> {
        self.detections
            .iter()
            .filter(|d| d.noise == NoiseClass::Suspicious)
            .collect()
    }

    /// Noise-classified findings (daemon temp/log files).
    pub fn noise_detections(&self) -> Vec<&UnixDetection> {
        self.detections
            .iter()
            .filter(|d| d.noise != NoiseClass::Suspicious)
            .collect()
    }

    /// Whether anything suspicious remains.
    pub fn is_infected(&self) -> bool {
        !self.net_detections().is_empty()
    }
}

/// The Unix detector.
#[derive(Debug, Clone, Default)]
pub struct UnixGhostBuster {
    noise: NoiseFilter,
}

impl UnixGhostBuster {
    /// Creates a detector with the standard noise filter.
    pub fn new() -> Self {
        Self::default()
    }

    fn build_report(&self, truth: &[String], lie: &[String]) -> UnixReport {
        let mut detections = Vec::new();
        for path in truth {
            if !lie.contains(path) {
                detections.push(UnixDetection {
                    path: path.clone(),
                    noise: self.noise.classify_path(path),
                });
            }
        }
        UnixReport { detections }
    }

    /// The inside-the-box check: `ls` output versus direct-syscall globbing.
    /// Exposes trojaned `ls` binaries; an LKM lies to both views.
    pub fn inside_diff(&self, machine: &UnixMachine) -> UnixReport {
        let lie = machine.ls_scan_all();
        let truth = machine.glob_scan_all();
        self.build_report(&truth, &lie)
    }

    /// The outside-the-box check: the inside `ls` scan versus the clean-boot
    /// scan of the same partitions. Exposes both LKM and trojan hiding; any
    /// daemon churn between the two scans shows up as classified noise.
    pub fn outside_diff(&self, machine: &UnixMachine, lie: &[String]) -> UnixReport {
        let truth = machine.offline_scan();
        self.build_report(&truth, lie)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strider_ghostware::prelude::{Darkside, Superkit, Synapsis, T0rnkit, UnixRootkit};
    use strider_ghostware::unix::unix_corpus;
    use strider_workload::populate_unix;

    #[test]
    fn t0rnkit_caught_inside_the_box() {
        let mut m = UnixMachine::with_base_system("u");
        let inf = T0rnkit.infect(&mut m);
        let report = UnixGhostBuster::new().inside_diff(&m);
        assert!(report.is_infected());
        for p in &inf.hidden_paths {
            assert!(report.net_detections().iter().any(|d| &d.path == p));
        }
    }

    #[test]
    fn lkm_rootkits_need_the_outside_diff() {
        for rk in [&Darkside as &dyn UnixRootkit, &Superkit, &Synapsis] {
            let mut m = UnixMachine::with_base_system("u");
            let inf = rk.infect(&mut m);
            let gb = UnixGhostBuster::new();
            assert!(
                !gb.inside_diff(&m).is_infected(),
                "{}: LKM lies to ls AND echo *",
                inf.rootkit
            );
            let lie = m.ls_scan_all();
            let report = gb.outside_diff(&m, &lie);
            for p in &inf.hidden_paths {
                assert!(
                    report.net_detections().iter().any(|d| &d.path == p),
                    "{} leaked {p}",
                    inf.rootkit
                );
            }
        }
    }

    #[test]
    fn daemon_churn_is_classified_noise_and_bounded() {
        let mut m = UnixMachine::with_base_system("u");
        populate_unix(&mut m, 3, 300);
        m.tick(1);
        let lie = m.ls_scan_all();
        m.tick(150); // gap while rebooting into the CD
        let report = UnixGhostBuster::new().outside_diff(&m, &lie);
        assert!(report.net_detections().is_empty(), "clean machine");
        let fp = report.noise_detections().len();
        assert!(
            (1..=4).contains(&fp),
            "paper: four or fewer FPs, mostly temp/log files; got {fp}"
        );
    }

    #[test]
    fn whole_corpus_detected_outside() {
        for rk in unix_corpus() {
            let mut m = UnixMachine::with_base_system("u");
            let inf = rk.infect(&mut m);
            let lie = m.ls_scan_all();
            let report = UnixGhostBuster::new().outside_diff(&m, &lie);
            assert!(report.is_infected(), "{} must be detected", inf.rootkit);
        }
    }
}
