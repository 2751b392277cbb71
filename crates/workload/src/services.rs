//! The always-running services whose file churn produces the paper's
//! outside-the-box false positives.
//!
//! "They were mostly log files generated by always-running services (such as
//! anti-virus real-time scanners and Change and Configuration Management
//! (CCM) services), System Restore file-change log entries, OS prefetched
//! files, and browser temporary files" (paper, Section 2). Each service here
//! creates *new files* at a fixed period, so any scan pair separated by
//! enough ticks sees a few freshly-created files in the later view — noise
//! the cross-view diff must classify rather than report as ghostware.

use strider_nt_core::NtPath;
use strider_winapi::{Machine, TickTask};

fn parse(path: String) -> NtPath {
    path.parse().expect("service paths are well-formed")
}

/// An anti-virus real-time scanner rotating its log files.
#[derive(Debug)]
struct AvScannerService {
    period: u64,
    counter: u64,
}

impl AvScannerService {
    /// Creates the service with the given rotation period in ticks.
    pub fn new(period: u64) -> Self {
        Self { period, counter: 0 }
    }
}

impl TickTask for AvScannerService {
    fn name(&self) -> &str {
        "av-realtime-scanner"
    }

    fn on_tick(&mut self, machine: &mut Machine) {
        self.counter += 1;
        let dir = parse("C:\\Program Files\\eTrust\\logs".to_string());
        if self.counter == 1 {
            let _ = machine.volume_mut().mkdir_p(&dir);
        }
        if self.counter.is_multiple_of(self.period) {
            let path = dir.join(format!("av-{:06}.log", self.counter));
            let _ = machine
                .volume_mut()
                .create_file(&path, b"realtime scan ok\r\n");
        }
    }
}

/// A Change and Configuration Management (CCM) service writing inventory
/// files — the chattiest noise source: the paper's one 7-false-positive
/// machine was running CCM, and disabling it dropped the count to 2.
#[derive(Debug)]
struct CcmService {
    period: u64,
    counter: u64,
    /// Whether the service is running (the paper's remediation disables it).
    pub enabled: bool,
}

impl CcmService {
    /// Creates the service with the given inventory period in ticks.
    pub fn new(period: u64) -> Self {
        Self {
            period,
            counter: 0,
            enabled: true,
        }
    }
}

impl TickTask for CcmService {
    fn name(&self) -> &str {
        "ccm"
    }

    fn on_tick(&mut self, machine: &mut Machine) {
        self.counter += 1;
        let dir = parse("C:\\windows\\system32\\CCM\\inventory".to_string());
        if self.counter == 1 {
            let _ = machine.volume_mut().mkdir_p(&dir);
        }
        if self.enabled && self.counter.is_multiple_of(self.period) {
            let path = dir.join(format!("inv-{:06}.mif", self.counter));
            let _ = machine
                .volume_mut()
                .create_file(&path, b"hardware inventory\r\n");
        }
    }
}

/// System Restore writing file-change log entries whenever monitored files
/// changed recently.
#[derive(Debug)]
struct SystemRestoreService {
    period: u64,
    counter: u64,
}

impl SystemRestoreService {
    /// Creates the service with the given change-log period in ticks.
    pub fn new(period: u64) -> Self {
        Self { period, counter: 0 }
    }
}

impl TickTask for SystemRestoreService {
    fn name(&self) -> &str {
        "system-restore"
    }

    fn on_tick(&mut self, machine: &mut Machine) {
        self.counter += 1;
        let dir = parse("C:\\System Volume Information\\_restore".to_string());
        if self.counter == 1 {
            let _ = machine.volume_mut().mkdir_p(&dir);
        }
        if self.counter.is_multiple_of(self.period) {
            let path = dir.join(format!("change-{:06}.log", self.counter));
            let _ = machine
                .volume_mut()
                .create_file(&path, b"file change entry\r\n");
        }
    }
}

/// The OS prefetcher: writes a `.pf` file the first time it sees a process
/// image run.
#[derive(Debug, Default)]
struct PrefetchService {
    seen: Vec<String>,
}

impl PrefetchService {
    /// Creates the service.
    pub fn new() -> Self {
        Self::default()
    }
}

impl TickTask for PrefetchService {
    fn name(&self) -> &str {
        "prefetch"
    }

    fn on_tick(&mut self, machine: &mut Machine) {
        let names: Vec<String> = machine
            .kernel()
            .processes()
            .map(|p| p.image_name.to_win32_lossy().to_ascii_uppercase())
            .collect();
        for name in names {
            if name == "SYSTEM" || self.seen.contains(&name) {
                continue;
            }
            self.seen.push(name.clone());
            let safe: String = name
                .chars()
                .map(|c| {
                    if c.is_ascii_alphanumeric() || c == '.' {
                        c
                    } else {
                        '_'
                    }
                })
                .collect();
            let path = parse(format!(
                "C:\\windows\\prefetch\\{safe}-{:08}.pf",
                self.seen.len()
            ));
            let _ = machine.volume_mut().create_file(&path, b"prefetch trace");
        }
    }
}

/// The browser writing temporary internet files while the user browses.
#[derive(Debug)]
struct BrowserCacheService {
    period: u64,
    counter: u64,
}

impl BrowserCacheService {
    /// Creates the service with the given cache-write period in ticks.
    pub fn new(period: u64) -> Self {
        Self { period, counter: 0 }
    }
}

impl TickTask for BrowserCacheService {
    fn name(&self) -> &str {
        "browser-cache"
    }

    fn on_tick(&mut self, machine: &mut Machine) {
        self.counter += 1;
        if self.counter.is_multiple_of(self.period) {
            let path = parse(format!(
                "C:\\Documents and Settings\\user\\Local Settings\\Temporary Internet Files\\cache-{:06}.tmp",
                self.counter
            ));
            let _ = machine
                .volume_mut()
                .create_file(&path, b"<html>cached</html>");
        }
    }
}

/// Installs the standard service mix onto a machine.
///
/// Periods are in ticks (nominally seconds): slow enough that scans taken a
/// tick apart see nothing (the paper's zero inside-the-box FPs) and fast
/// enough that a 90–180-tick reboot window catches a couple of creations.
pub fn install_standard_services(machine: &mut Machine, ccm_enabled: bool) {
    machine.add_tick_task(Box::new(AvScannerService::new(310)));
    if ccm_enabled {
        machine.add_tick_task(Box::new(CcmService::new(25)));
    }
    machine.add_tick_task(Box::new(SystemRestoreService::new(430)));
    machine.add_tick_task(Box::new(PrefetchService::new()));
    machine.add_tick_task(Box::new(BrowserCacheService::new(210)));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count_files(m: &Machine) -> usize {
        m.volume().iter().filter(|r| !r.is_directory()).count()
    }

    #[test]
    fn short_gaps_create_no_churn() {
        let mut m = Machine::with_base_system("t").unwrap();
        install_standard_services(&mut m, true);
        m.tick(1); // prefetch writes once for the boot set
        let before = count_files(&m);
        m.tick(2);
        assert_eq!(count_files(&m), before, "a 2-tick gap must be silent");
    }

    #[test]
    fn reboot_sized_gaps_create_a_few_files() {
        let mut m = Machine::with_base_system("t").unwrap();
        install_standard_services(&mut m, false);
        m.tick(350); // machine has been up for a while
        let before = count_files(&m);
        m.tick(300);
        let created = count_files(&m) - before;
        assert!((1..=8).contains(&created), "created {created}");
    }

    #[test]
    fn ccm_machines_churn_more() {
        let mut with_ccm = Machine::with_base_system("a").unwrap();
        install_standard_services(&mut with_ccm, true);
        let mut without = Machine::with_base_system("b").unwrap();
        install_standard_services(&mut without, false);
        for m in [&mut with_ccm, &mut without] {
            m.tick(400); // machine has been up for a while
        }
        let b1 = count_files(&with_ccm);
        let b2 = count_files(&without);
        with_ccm.tick(150);
        without.tick(150);
        let c1 = count_files(&with_ccm) - b1;
        let c2 = count_files(&without) - b2;
        assert!(c1 > c2, "CCM machine must churn more ({c1} vs {c2})");
        assert!(
            c1 >= 5,
            "CCM machine approximates the paper's 7-FP case: {c1}"
        );
    }

    #[test]
    fn prefetch_fires_once_per_image() {
        let mut m = Machine::with_base_system("t").unwrap();
        m.add_tick_task(Box::new(PrefetchService::new()));
        m.tick(3);
        let pf_count = m
            .volume()
            .list_children(&"C:\\windows\\prefetch".parse().unwrap())
            .unwrap()
            .count();
        // 9 base processes minus System, each prefetched once; svchost twice
        // in the process list but one image name.
        assert_eq!(pf_count, 7);
        m.spawn_process("notepad.exe", "C:\\windows\\system32\\notepad.exe")
            .unwrap();
        m.tick(1);
        let pf_count2 = m
            .volume()
            .list_children(&"C:\\windows\\prefetch".parse().unwrap())
            .unwrap()
            .count();
        assert_eq!(pf_count2, 8);
    }
}
