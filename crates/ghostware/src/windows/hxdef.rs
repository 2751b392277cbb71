//! Hacker Defender 1.0 — "the most popular Windows rootkit today according
//! to Product Support Service engineers" (paper, Section 6).
//!
//! Hacker Defender detours the lower-level `NtDll!NtQueryDirectoryFile`
//! (files), `NtDll!NtEnumerateKey` (Registry) and
//! `NtDll!NtQuerySystemInformation` (processes), so both Win32 and
//! native-API callers see the lie. It hides everything matching the patterns
//! in its `hxdef100.ini` — including the ini itself, its service hooks
//! (`HackerDefender100`, `HackerDefenderDrv100`), and its process. Its
//! *driver* stays visible in the loaded-driver list, which is how AskStrider
//! could spot it.

use crate::filters::hide_names_containing;
use crate::{Ghostware, Infection, Technique};
use strider_hive::ValueData;
use strider_nt_core::{NtPath, NtStatus};
use strider_winapi::{HookScope, Machine, QueryKind};

/// The Hacker Defender 1.0 sample.
#[derive(Debug, Clone)]
pub struct HackerDefender {
    /// Extra hide patterns written into `[Hidden Table]` of `hxdef100.ini`
    /// in addition to the default `hxdef*`.
    pub extra_patterns: Vec<String>,
    /// Install directory.
    pub install_dir: String,
}

impl Default for HackerDefender {
    fn default() -> Self {
        Self {
            extra_patterns: Vec::new(),
            install_dir: "C:\\windows\\system32".to_string(),
        }
    }
}

impl HackerDefender {
    /// Renders the `hxdef100.ini` contents the sample drops and then parses
    /// back for its hide table — configuration-driven hiding, as shipped.
    fn render_ini(&self) -> String {
        let mut ini = String::from("[Hidden Table]\r\nhxdef*\r\n");
        for p in &self.extra_patterns {
            ini.push_str(p);
            ini.push_str("\r\n");
        }
        ini.push_str("[Hidden Processes]\r\nhxdef*\r\n[Hidden Services]\r\nHackerDefender*\r\n");
        ini
    }

    /// Parses hide patterns out of an ini's `[Hidden Table]` section
    /// (wildcards reduced to substring stems, as the real parser effectively
    /// treats leading/trailing `*`).
    fn parse_ini_patterns(ini: &str) -> Vec<String> {
        let mut patterns = Vec::new();
        let mut in_table = false;
        for line in ini.lines() {
            let line = line.trim();
            if line.starts_with('[') {
                in_table = line.eq_ignore_ascii_case("[Hidden Table]");
                continue;
            }
            if in_table && !line.is_empty() {
                patterns.push(line.trim_matches('*').to_string());
            }
        }
        patterns
    }
}

impl Ghostware for HackerDefender {
    fn name(&self) -> &str {
        "Hacker Defender 1.0"
    }

    fn infect(&self, machine: &mut Machine) -> Result<Infection, NtStatus> {
        let dir = &self.install_dir;
        let exe: NtPath = format!("{dir}\\hxdef100.exe")
            .parse()
            .map_err(|_| NtStatus::ObjectNameInvalid)?;
        let ini: NtPath = format!("{dir}\\hxdef100.ini")
            .parse()
            .map_err(|_| NtStatus::ObjectNameInvalid)?;
        let drv: NtPath = "C:\\windows\\system32\\drivers\\hxdefdrv.sys"
            .parse()
            .expect("static");
        let ini_text = self.render_ini();
        machine.native_create_file(&exe, b"MZ hxdef100")?;
        machine.native_create_file(&ini, ini_text.as_bytes())?;
        machine.native_create_file(&drv, b"MZ hxdefdrv")?;

        // Two service ASEP hooks (Figure 4).
        for (svc, image) in [
            ("HackerDefender100", "hxdef100.exe"),
            ("HackerDefenderDrv100", "hxdefdrv.sys"),
        ] {
            let key: NtPath = format!("HKLM\\SYSTEM\\CurrentControlSet\\Services\\{svc}")
                .parse()
                .map_err(|_| NtStatus::ObjectNameInvalid)?;
            machine
                .registry_mut()
                .create_key(&key)
                .map_err(|_| NtStatus::ObjectNameNotFound)?;
            machine
                .registry_mut()
                .set_value(&key, "ImagePath", ValueData::sz(image))
                .map_err(|_| NtStatus::ObjectNameNotFound)?;
        }

        // The driver is loaded and stays visible.
        machine.kernel_mut().load_driver("hxdefdrv", drv.clone());

        // The rootkit process, hidden below.
        machine.spawn_process("hxdef100.exe", &exe.to_string())?;

        // Read the hide table back out of the dropped ini — the patterns the
        // detours enforce come from configuration, exactly as shipped.
        let file_patterns = Self::parse_ini_patterns(&ini_text);
        let pattern_refs: Vec<&str> = file_patterns.iter().map(String::as_str).collect();
        machine.install_ntdll_hook(
            "HackerDefender",
            vec![QueryKind::Files, QueryKind::Processes],
            HookScope::All,
            hide_names_containing(&pattern_refs),
        );
        machine.install_ntdll_hook(
            "HackerDefender",
            vec![QueryKind::RegKeys, QueryKind::RegValues],
            HookScope::All,
            hide_names_containing(&["hackerdefender"]),
        );

        let mut infection = Infection::new("Hacker Defender 1.0");
        infection.techniques = vec![Technique::DetourNtdll];
        infection.hidden_files = vec![exe, ini, drv];
        infection.hidden_asep_entries = vec![
            "HackerDefender100".to_string(),
            "HackerDefenderDrv100".to_string(),
        ];
        infection.hidden_process_names = vec!["hxdef100.exe".to_string()];
        infection
            .visible_artifacts
            .push("hxdefdrv driver in loaded-driver list".to_string());
        Ok(infection)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strider_winapi::{ChainEntry, Query};

    #[test]
    fn ini_roundtrip_drives_patterns() {
        let hd = HackerDefender {
            extra_patterns: vec!["secret*".to_string()],
            ..Default::default()
        };
        let ini = hd.render_ini();
        let patterns = HackerDefender::parse_ini_patterns(&ini);
        assert_eq!(patterns, vec!["hxdef".to_string(), "secret".to_string()]);
    }

    #[test]
    fn hides_files_from_both_win32_and_native() {
        let mut m = Machine::with_base_system("t").unwrap();
        HackerDefender::default().infect(&mut m).unwrap();
        let ctx = m.context_for_name("explorer.exe").unwrap();
        let q = Query::DirectoryEnum {
            path: "C:\\windows\\system32".parse().unwrap(),
        };
        for entry in [ChainEntry::Win32, ChainEntry::Native] {
            let rows = m.query(&ctx, &q, entry).unwrap();
            assert!(
                !rows
                    .iter()
                    .any(|r| r.name().to_win32_lossy().contains("hxdef")),
                "NtDll detour must catch {entry:?} callers"
            );
        }
    }

    #[test]
    fn hides_process_and_service_keys() {
        let mut m = Machine::with_base_system("t").unwrap();
        HackerDefender::default().infect(&mut m).unwrap();
        let ctx = m.context_for_name("explorer.exe").unwrap();
        let procs = m
            .query(&ctx, &Query::ProcessList, ChainEntry::Win32)
            .unwrap();
        assert!(!procs
            .iter()
            .any(|r| r.name().to_win32_lossy().contains("hxdef")));
        let keys = m
            .query(
                &ctx,
                &Query::RegEnumKeys {
                    key: "HKLM\\SYSTEM\\CurrentControlSet\\Services".parse().unwrap(),
                },
                ChainEntry::Win32,
            )
            .unwrap();
        assert!(!keys
            .iter()
            .any(|r| r.name().to_win32_lossy().contains("HackerDefender")));
    }

    #[test]
    fn driver_remains_visible() {
        let mut m = Machine::with_base_system("t").unwrap();
        let inf = HackerDefender::default().infect(&mut m).unwrap();
        assert!(m
            .kernel()
            .drivers()
            .iter()
            .any(|d| d.name.to_win32_lossy() == "hxdefdrv"));
        assert_eq!(inf.visible_artifacts.len(), 1);
    }

    #[test]
    fn extra_patterns_hide_user_files() {
        let mut m = Machine::with_base_system("t").unwrap();
        m.volume_mut()
            .create_file(&"C:\\temp\\secret-plans.doc".parse().unwrap(), b"x")
            .unwrap();
        HackerDefender {
            extra_patterns: vec!["secret*".to_string()],
            ..Default::default()
        }
        .infect(&mut m)
        .unwrap();
        let ctx = m.context_for_name("explorer.exe").unwrap();
        let rows = m
            .query(
                &ctx,
                &Query::DirectoryEnum {
                    path: "C:\\temp".parse().unwrap(),
                },
                ChainEntry::Win32,
            )
            .unwrap();
        assert!(rows.is_empty());
    }
}
