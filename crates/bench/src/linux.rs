//! The Section 5 Linux/Unix experiments.

use strider_ghostbuster::UnixGhostBuster;
use strider_ghostware::unix::unix_corpus;
use strider_unixfs::UnixMachine;
use strider_workload::populate_unix;

/// One Unix rootkit's detection outcome.
#[derive(Debug, Clone)]
pub struct LinuxRow {
    /// Rootkit name.
    pub rootkit: String,
    /// Whether hiding is LKM-based.
    pub uses_lkm: bool,
    /// Hidden paths (ground truth).
    pub expected: Vec<String>,
    /// Whether the inside `ls` vs `echo *` check caught it.
    pub inside_detects: bool,
    /// Whether the clean-boot outside diff caught everything.
    pub outside_complete: bool,
    /// Noise findings in the outside diff (paper: ≤ 4, temp/log files).
    pub outside_noise: usize,
}

/// Runs the full Unix corpus with daemon churn during the reboot gap.
pub fn linux_rows() -> Vec<LinuxRow> {
    let mut rows = Vec::new();
    for rk in unix_corpus() {
        let mut m = UnixMachine::with_base_system("ux");
        populate_unix(&mut m, 42, 400);
        m.tick(30);
        let infection = rk.infect(&mut m);
        let gb = UnixGhostBuster::new();

        let inside_detects = gb.inside_diff(&m).is_infected();

        let lie = m.ls_scan_all();
        m.tick(150); // reboot into the live CD
        let outside = gb.outside_diff(&m, &lie);
        let net: Vec<&str> = outside
            .net_detections()
            .iter()
            .map(|d| d.path.as_str())
            .collect();
        let outside_complete = infection
            .hidden_paths
            .iter()
            .all(|p| net.contains(&p.as_str()));
        rows.push(LinuxRow {
            rootkit: infection.rootkit,
            uses_lkm: infection.uses_lkm,
            expected: infection.hidden_paths,
            inside_detects,
            outside_complete,
            outside_noise: outside.noise_detections().len(),
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use strider_ghostware::unix::UnixRootkit;

    #[test]
    fn all_four_rootkits_detected_outside_with_bounded_noise() {
        let rows = linux_rows();
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.outside_complete, "{}", r.rootkit);
            assert!(
                r.outside_noise <= 4,
                "{}: paper reports four or fewer FPs, got {}",
                r.rootkit,
                r.outside_noise
            );
        }
    }

    #[test]
    fn only_the_trojan_binary_is_caught_inside() {
        let rows = linux_rows();
        for r in &rows {
            if r.uses_lkm {
                assert!(!r.inside_detects, "{}: LKM lies to both views", r.rootkit);
            } else {
                assert!(r.inside_detects, "{}: ls vs echo * disagree", r.rootkit);
            }
        }
    }

    #[test]
    fn t0rnkit_asymmetry() {
        let mut m = UnixMachine::with_base_system("ux");
        let inf = strider_ghostware::unix::T0rnkit.infect(&mut m);
        let ls = m.ls_scan_all();
        let glob = m.glob_scan_all();
        assert!(inf.hidden_paths.iter().all(|p| !ls.contains(p)));
        assert!(inf.hidden_paths.iter().all(|p| glob.contains(p)));
    }
}
