//! The timing results of Sections 2–4: scan times on the eight machines.

use strider_ghostbuster::{FileScanner, GhostBuster, ProcessScanner, RegistryScanner};
use strider_nt_core::{IoStats, NtStatus};
use strider_winapi::ChainEntry;
use strider_workload::{paper_profiles, CostModel, WorkloadSpec};

/// One machine's estimated scan times.
#[derive(Debug, Clone)]
pub struct TimingRow {
    /// Machine name.
    pub machine: String,
    /// Machine class.
    pub class: String,
    /// CPU MHz.
    pub cpu_mhz: u32,
    /// Disk used, GB.
    pub disk_used_gb: f64,
    /// Inside-the-box file scan, seconds.
    pub file_scan_s: f64,
    /// Inside-the-box ASEP scan, seconds.
    pub registry_scan_s: f64,
    /// Inside-the-box process+module scan, seconds.
    pub process_scan_s: f64,
    /// WinPE CD boot overhead, seconds.
    pub winpe_boot_s: f64,
    /// Blue-screen dump overhead, seconds.
    pub dump_s: f64,
}

/// Estimated scan times for the paper's eight machines.
pub fn timing_rows() -> Vec<TimingRow> {
    paper_profiles()
        .into_iter()
        .map(|p| {
            let model = CostModel::new(p.clone());
            TimingRow {
                machine: p.name.to_string(),
                class: p.class.to_string(),
                cpu_mhz: p.cpu_mhz,
                disk_used_gb: p.disk_used_gb,
                file_scan_s: model.file_scan_seconds(),
                registry_scan_s: model.registry_scan_seconds(),
                process_scan_s: model.process_scan_seconds(),
                winpe_boot_s: model.winpe_boot_seconds(),
                dump_s: model.dump_seconds(),
            }
        })
        .collect()
}

/// Measured I/O from real scans of a simulated machine, extrapolated to a
/// paper-scale machine through the cost model.
#[derive(Debug, Clone)]
pub struct MeasuredIoRow {
    /// Machine profile name.
    pub machine: String,
    /// Extrapolated file-scan seconds from measured I/O.
    pub file_scan_s: f64,
    /// Extrapolated Registry-scan seconds from measured I/O.
    pub registry_scan_s: f64,
    /// Extrapolated process-scan seconds from measured I/O.
    pub process_scan_s: f64,
}

fn scale_io(io: &IoStats, factor: f64) -> IoStats {
    IoStats {
        bytes_read: (io.bytes_read as f64 * factor) as u64,
        seeks: (io.seeks as f64 * factor) as u64,
        api_calls: (io.api_calls as f64 * factor) as u64,
        entries: (io.entries as f64 * factor) as u64,
        defects: io.defects,
    }
}

/// Runs the real scans on a simulated machine, records their [`IoStats`],
/// scales the I/O to each paper profile's declared file/key counts, and
/// converts to seconds with [`CostModel::seconds_for`] — the bottom-up
/// cross-check of [`timing_rows`]'s top-down estimates.
///
/// # Errors
///
/// Propagates scan failures.
pub fn measured_io_rows() -> Result<Vec<MeasuredIoRow>, NtStatus> {
    let mut machine =
        strider_workload::standard_lab_machine("timing-probe", &WorkloadSpec::large(42), false)?;
    let gb = GhostBuster::new();
    let ctx = gb.enter(&mut machine)?;

    let files = FileScanner::new();
    let mut file_io = files.high_scan(&machine, &ctx, ChainEntry::Win32)?.meta.io;
    file_io.merge(&files.low_scan(&machine)?.meta.io);
    let sim_files = machine.volume().record_count() as f64;

    let registry = RegistryScanner::new();
    let mut reg_io = registry
        .high_scan(&machine, &ctx, ChainEntry::Win32)
        .meta
        .io;
    reg_io.merge(&registry.low_scan(&machine)?.meta.io);
    let sim_keys = machine.registry().key_count() as f64;

    let procs = ProcessScanner::new();
    let mut proc_io = procs.high_scan(&machine, &ctx, ChainEntry::Win32)?.meta.io;
    proc_io.merge(&procs.low_scan_apl(&machine).meta.io);
    let sim_procs = machine.kernel().active_process_list().len() as f64;

    Ok(paper_profiles()
        .into_iter()
        .map(|p| {
            let model = CostModel::new(p.clone());
            let file_scaled = scale_io(&file_io, p.file_count() as f64 / sim_files);
            let reg_scaled = scale_io(&reg_io, p.registry_key_count() as f64 / sim_keys);
            let proc_scaled = scale_io(&proc_io, p.process_count() as f64 / sim_procs);
            MeasuredIoRow {
                machine: p.name.to_string(),
                file_scan_s: model.seconds_for(&file_scaled),
                registry_scan_s: model.seconds_for(&reg_scaled),
                process_scan_s: model.seconds_for(&proc_scaled),
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    // The paper's headline ranges.
    /// Inside-the-box file scan on the seven ordinary machines.
    const FILE_SCAN_ORDINARY_S: (f64, f64) = (30.0, 420.0);
    /// The heavily-used workstation's file scan (≈ 38 min).
    const FILE_SCAN_WORKSTATION_S: (f64, f64) = (1500.0, 2700.0);
    /// Hidden-ASEP scan.
    const REGISTRY_SCAN_S: (f64, f64) = (18.0, 63.0);
    /// Process+module scan.
    const PROCESS_SCAN_S: (f64, f64) = (1.0, 5.0);
    /// WinPE boot overhead.
    const WINPE_BOOT_S: (f64, f64) = (90.0, 180.0);
    /// Blue-screen dump overhead.
    const DUMP_S: (f64, f64) = (15.0, 45.0);

    #[test]
    fn every_row_lands_in_paper_ranges() {
        let rows = timing_rows();
        assert_eq!(rows.len(), 8);
        for (i, r) in rows.iter().enumerate() {
            let file_range = if i == 7 {
                FILE_SCAN_WORKSTATION_S
            } else {
                FILE_SCAN_ORDINARY_S
            };
            assert!(
                r.file_scan_s >= file_range.0 && r.file_scan_s <= file_range.1,
                "{}: file {:.0}s",
                r.machine,
                r.file_scan_s
            );
            assert!(
                r.registry_scan_s >= REGISTRY_SCAN_S.0 && r.registry_scan_s <= REGISTRY_SCAN_S.1,
                "{}: registry {:.0}s",
                r.machine,
                r.registry_scan_s
            );
            assert!(
                r.process_scan_s >= PROCESS_SCAN_S.0 && r.process_scan_s <= PROCESS_SCAN_S.1,
                "{}: process {:.1}s",
                r.machine,
                r.process_scan_s
            );
            assert!(
                r.winpe_boot_s >= WINPE_BOOT_S.0 && r.winpe_boot_s <= WINPE_BOOT_S.1,
                "{}: boot {:.0}s",
                r.machine,
                r.winpe_boot_s
            );
            assert!(
                r.dump_s >= DUMP_S.0 && r.dump_s <= DUMP_S.1,
                "{}: dump {:.0}s",
                r.machine,
                r.dump_s
            );
        }
    }

    #[test]
    fn scan_cost_ordering_matches_the_paper() {
        // files ≫ registry ≫ processes on every machine.
        for r in timing_rows() {
            assert!(r.file_scan_s > r.registry_scan_s, "{}", r.machine);
            assert!(r.registry_scan_s > r.process_scan_s, "{}", r.machine);
        }
    }

    #[test]
    fn measured_io_extrapolation_preserves_the_ordering() {
        let rows = measured_io_rows().unwrap();
        assert_eq!(rows.len(), 8);
        for r in &rows {
            assert!(r.file_scan_s > r.registry_scan_s, "{}", r.machine);
            assert!(r.registry_scan_s > r.process_scan_s, "{}", r.machine);
            assert!(r.file_scan_s > 10.0, "{}: {}", r.machine, r.file_scan_s);
        }
    }

    #[test]
    fn workstation_is_the_outlier() {
        let rows = timing_rows();
        let max_ordinary = rows[..7]
            .iter()
            .map(|r| r.file_scan_s)
            .fold(0.0f64, f64::max);
        assert!(rows[7].file_scan_s > 3.0 * max_ordinary);
    }
}
