//! Ablations of the design decisions DESIGN.md calls out.

use crate::victim_machine;
use std::sync::Arc;
use strider_ghostbuster::{AdvancedSource, GhostBuster, OutsideRegistryMode};
use strider_ghostware::{Ghostware, HackerDefender};
use strider_nt_core::{NtPath, NtStatus};
use strider_winapi::{ChainEntry, HiveCopyTamper};

/// Ablation 2: false positives as a function of the scan-pair time gap.
/// Returns `(gap_ticks, raw_fp_count)` pairs on a clean, churning machine.
///
/// # Errors
///
/// Propagates scan failures.
pub fn timegap_fp_curve(gaps: &[u64]) -> Result<Vec<(u64, usize)>, NtStatus> {
    let mut out = Vec::new();
    for &gap in gaps {
        let mut m = victim_machine(800 + gap)?;
        m.tick(367); // warm-up
        let gb = GhostBuster::new();
        let ctx = gb.enter(&mut m)?;
        let lie = gb.file_scanner().high_scan(&m, &ctx, ChainEntry::Win32)?;
        m.tick(gap);
        let image = m.snapshot_disk()?;
        let truth = gb.file_scanner().outside_scan(&image)?;
        let report = gb.file_scanner().diff(&truth, &lie);
        out.push((gap, report.detections.len()));
    }
    Ok(out)
}

/// Ablation 3: which low-level structure is "low enough" against DKOM.
/// Returns, per truth source, whether the FU-hidden process is found.
///
/// # Errors
///
/// Propagates scan failures.
pub fn advanced_source_matrix() -> Result<Vec<(String, bool)>, NtStatus> {
    let mut results = Vec::new();
    for (label, advanced) in [
        ("Active Process List", None),
        ("thread table", Some(AdvancedSource::ThreadTable)),
        ("handle table", Some(AdvancedSource::HandleTable)),
    ] {
        let mut m = victim_machine(820)?;
        strider_ghostware::Fu::default().infect(&mut m)?;
        let gb = match advanced {
            Some(src) => GhostBuster::new().with_advanced(src),
            None => GhostBuster::new(),
        };
        let report = gb.scan_processes_inside(&mut m)?;
        let found = report
            .net_detections()
            .iter()
            .any(|d| d.detail.contains("fu_payload.exe"));
        results.push((label.to_string(), found));
    }
    Ok(results)
}

/// A hypothetical next-generation rootkit that tampers with the inside
/// hive-copy step, scrubbing its own service keys out of the copied bytes
/// by re-serializing a doctored tree.
struct HiveScrubber;

impl HiveCopyTamper for HiveScrubber {
    fn tamper(&self, mount: &NtPath, bytes: Vec<u8>) -> Vec<u8> {
        if !mount.to_string().eq_ignore_ascii_case("HKLM\\SYSTEM") {
            return bytes;
        }
        // Parse the copy, drop the rootkit's keys, re-serialize.
        let Ok(raw) = strider_hive::RawHive::parse(&bytes) else {
            return bytes;
        };
        fn rebuild(v: &strider_hive::RawValue) -> strider_hive::Value {
            use strider_hive::ValueData;
            use strider_nt_core::NtString;
            let units = |d: &[u8]| -> Vec<u16> {
                d.chunks_exact(2)
                    .map(|c| u16::from_le_bytes([c[0], c[1]]))
                    .collect()
            };
            let data = match v.type_code {
                1 => ValueData::Sz(NtString::from_units(&units(&v.data))),
                2 => ValueData::ExpandSz(NtString::from_units(&units(&v.data))),
                4 if v.data.len() >= 4 => {
                    ValueData::Dword(u32::from_le_bytes(v.data[..4].try_into().expect("4 bytes")))
                }
                7 => ValueData::MultiSz(
                    units(&v.data)
                        .split(|&u| u == 0)
                        .filter(|s| !s.is_empty())
                        .map(NtString::from_units)
                        .collect(),
                ),
                _ => ValueData::Binary(v.data.clone()),
            };
            strider_hive::Value::new(v.name.clone(), data)
        }
        fn convert(k: &strider_hive::RawKey) -> strider_hive::Key {
            let mut out = strider_hive::Key::new(k.name.clone());
            out.timestamp = k.timestamp;
            for v in &k.values {
                out.values.push(rebuild(v));
            }
            for sk in &k.subkeys {
                if sk
                    .name
                    .to_win32_lossy()
                    .to_ascii_lowercase()
                    .contains("hackerdefender")
                {
                    continue; // scrubbed
                }
                out.subkeys.push(convert(sk));
            }
            out
        }
        let root = convert(raw.root());
        let hive =
            strider_hive::Hive::from_root(mount.clone(), "C:\\x".parse().expect("static"), root);
        hive.to_bytes()
    }
}

/// Ablation 1: truth vs truth-approximation. A rootkit that tampers with
/// the inside hive copy defeats the inside-the-box Registry scan, while the
/// outside-the-box scan of the real disk bytes still catches it. Returns
/// `(inside_findings, outside_findings)`.
///
/// # Errors
///
/// Propagates scan failures.
pub fn low_scan_interference() -> Result<(usize, usize), NtStatus> {
    let mut m = victim_machine(830)?;
    HackerDefender::default().infect(&mut m)?;
    m.add_hive_tamper("HackerDefenderNG", Arc::new(HiveScrubber));

    let gb = GhostBuster::new();
    let inside = gb.scan_registry_inside(&mut m)?;
    let inside_hits = inside
        .net_detections()
        .iter()
        .filter(|d| d.detail.contains("HackerDefender"))
        .count();

    let ctx = gb.enter(&mut m)?;
    let lie = gb.registry_scanner().high_scan(&m, &ctx, ChainEntry::Win32);
    let image = m.snapshot_disk()?;
    let truth = gb
        .registry_scanner()
        .outside_scan(&image, OutsideRegistryMode::MountedWin32)?;
    let outside = gb.registry_scanner().diff(&truth, &lie);
    let outside_hits = outside
        .net_detections()
        .iter()
        .filter(|d| d.detail.contains("HackerDefender"))
        .count();
    Ok((inside_hits, outside_hits))
}

/// Convenience: infect-and-sweep used by the dump-scrub ablation. Returns
/// whether the outside dump flow finds the FU payload, with and without the
/// scrubbing attack.
///
/// # Errors
///
/// Propagates scan failures.
pub fn dump_scrub_matrix() -> Result<(bool, bool), NtStatus> {
    let run = |scrub: bool| -> Result<bool, NtStatus> {
        let mut m = victim_machine(840)?;
        strider_ghostware::Fu::default().infect(&mut m)?;
        if scrub {
            let pid = m.kernel().find_by_name("fu_payload.exe")[0];
            m.kernel_mut()
                .register_dump_scrubber(strider_kernel::DumpScrub {
                    pids: vec![pid],
                    module_names: Vec::new(),
                });
        }
        let gb = GhostBuster::new().with_advanced(AdvancedSource::ThreadTable);
        let ctx = gb.enter(&mut m)?;
        let lie = gb
            .process_scanner()
            .high_scan(&m, &ctx, ChainEntry::Win32)?;
        let dump = strider_kernel::MemoryDump::parse(&m.kernel().crash_dump())
            .map_err(|e| NtStatus::CorruptStructure(e.to_string()))?;
        let truth = gb.process_scanner().outside_scan(&dump, true);
        let report = gb.process_scanner().diff(&truth, &lie);
        Ok(report
            .net_detections()
            .iter()
            .any(|d| d.detail.contains("fu_payload.exe")))
    };
    Ok((run(false)?, run(true)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fp_curve_grows_with_gap() {
        let curve = timegap_fp_curve(&[0, 150, 600]).unwrap();
        assert_eq!(curve[0].1, 0, "zero gap, zero FPs (the VM flow's point)");
        assert!(curve[2].1 >= curve[1].1);
        assert!(curve[2].1 > curve[0].1);
    }

    #[test]
    fn only_advanced_sources_beat_dkom() {
        let matrix = advanced_source_matrix().unwrap();
        assert_eq!(matrix[0], ("Active Process List".to_string(), false));
        assert_eq!(matrix[1], ("thread table".to_string(), true));
        assert_eq!(matrix[2], ("handle table".to_string(), true));
    }

    #[test]
    fn hive_copy_tampering_beats_inside_but_not_outside() {
        let (inside, outside) = low_scan_interference().unwrap();
        assert_eq!(inside, 0, "the tampered copy hides the keys");
        assert_eq!(outside, 2, "the real disk bytes still show both hooks");
    }

    #[test]
    fn dump_scrubbing_beats_the_dump_flow() {
        let (clean_dump, scrubbed_dump) = dump_scrub_matrix().unwrap();
        assert!(clean_dump);
        assert!(!scrubbed_dump);
    }
}
