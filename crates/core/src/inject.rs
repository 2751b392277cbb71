//! The DLL-injection extension (paper, Section 5).
//!
//! "Instead of running the GhostBuster EXE that can be easily targeted, we
//! inject the GhostBuster DLL into every running process and perform the
//! scans and diff from inside each process, essentially turning every
//! process into a GhostBuster." A per-process diff catches ghostware that
//! lies only to selected utilities, and ghostware that spares only the
//! known scanner image; it also reveals *which* processes are being lied
//! to.

use crate::files::FileScanner;
use crate::process::ProcessScanner;
use crate::report::DiffReport;
use strider_nt_core::{NtStatus, Pid};
use strider_winapi::{CallContext, ChainEntry, Machine};

/// The result of scanning from inside one process.
#[derive(Debug, Clone)]
pub struct PerProcessReport {
    /// The process the GhostBuster DLL ran inside.
    pub host_pid: Pid,
    /// The host's image name.
    pub host_image: String,
    /// Hidden files as seen from this process's view.
    pub files: DiffReport,
    /// Hidden processes as seen from this process's view.
    pub processes: DiffReport,
}

impl PerProcessReport {
    /// Whether this process was being lied to.
    fn was_lied_to(&self) -> bool {
        !self.files.net_detections().is_empty() || !self.processes.net_detections().is_empty()
    }
}

/// The injected-scan report across all processes.
#[derive(Debug, Clone)]
pub struct InjectedSweepReport {
    /// One report per host process.
    pub per_process: Vec<PerProcessReport>,
}

impl InjectedSweepReport {
    /// Processes that experienced hiding.
    pub fn lied_to(&self) -> Vec<&PerProcessReport> {
        self.per_process
            .iter()
            .filter(|r| r.was_lied_to())
            .collect()
    }

    /// Whether any process anywhere was lied to.
    pub fn is_infected(&self) -> bool {
        !self.lied_to().is_empty()
    }
}

/// Runs the file and process diffs from inside every running process.
///
/// The truth sides (raw MFT parse; APL/thread-table traversal) are shared;
/// the lie side is re-scanned once per host so each process's own view —
/// through its own IAT and whatever scoped hooks apply to it — is compared.
///
/// # Errors
///
/// Propagates scan failures.
pub fn injected_sweep(machine: &Machine) -> Result<InjectedSweepReport, NtStatus> {
    let files = FileScanner::new();
    let processes = ProcessScanner::new();
    let file_truth = files.low_scan(machine)?;
    let proc_truth =
        processes.low_scan_advanced(machine, crate::process::AdvancedSource::ThreadTable);

    let mut per_process = Vec::new();
    for pid in machine.kernel().processes_via_threads() {
        let Some(proc_obj) = machine.kernel().process(pid) else {
            continue;
        };
        let host_image = proc_obj.image_name.to_win32_lossy();
        if host_image == "System" {
            continue;
        }
        let ctx = CallContext::new(pid, &host_image);
        let file_lie = files.high_scan(machine, &ctx, ChainEntry::Win32)?;
        let proc_lie = processes.high_scan(machine, &ctx, ChainEntry::Win32)?;
        per_process.push(PerProcessReport {
            host_pid: pid,
            host_image,
            files: files.diff(&file_truth, &file_lie),
            processes: processes.diff(&proc_truth, &proc_lie),
        });
    }
    Ok(InjectedSweepReport { per_process })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ghostbuster::GhostBuster;
    use strider_ghostware::prelude::{ScannerAwareHider, UtilityTargetedHider};
    use strider_ghostware::Ghostware;

    #[test]
    fn plain_ghostbuster_misses_utility_targeted_hiding() {
        let mut m = Machine::with_base_system("victim").unwrap();
        UtilityTargetedHider::default().infect(&mut m).unwrap();
        let report = GhostBuster::new().inside_sweep(&mut m).unwrap();
        assert!(
            !report.is_infected(),
            "the tool's own process is not lied to, so the plain EXE sees no diff"
        );
    }

    #[test]
    fn injected_sweep_catches_utility_targeted_hiding() {
        let mut m = Machine::with_base_system("victim").unwrap();
        UtilityTargetedHider::default().infect(&mut m).unwrap();
        m.spawn_process("taskmgr.exe", "C:\\windows\\system32\\taskmgr.exe")
            .unwrap();
        let report = injected_sweep(&m).unwrap();
        assert!(report.is_infected());
        let liars: Vec<&str> = report
            .lied_to()
            .iter()
            .map(|r| r.host_image.as_str())
            .collect();
        assert!(liars.contains(&"taskmgr.exe"));
        assert!(liars.contains(&"explorer.exe"));
        assert!(report.per_process.iter().any(|r| r
            .files
            .net_detections()
            .iter()
            .any(|d| d.detail.contains("targbot"))));
    }

    #[test]
    fn injected_sweep_catches_scanner_aware_hiding() {
        let mut m = Machine::with_base_system("victim").unwrap();
        ScannerAwareHider::default().infect(&mut m).unwrap();
        // The plain tool is spared the lie and so sees nothing.
        let plain = GhostBuster::new().inside_sweep(&mut m).unwrap();
        assert!(!plain.is_infected());
        // Every *other* process is lied to; injection exposes it.
        let report = injected_sweep(&m).unwrap();
        assert!(report.is_infected());
        assert!(report.per_process.iter().any(|r| r
            .files
            .net_detections()
            .iter()
            .any(|d| d.detail.contains("sneaky"))));
    }

    #[test]
    fn clean_machine_injected_sweep_is_silent() {
        let m = Machine::with_base_system("clean").unwrap();
        let report = injected_sweep(&m).unwrap();
        assert!(!report.is_infected());
        assert!(report.per_process.len() >= 8);
    }
}
