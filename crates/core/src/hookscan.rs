//! The mechanism-targeting baseline: a VICE/ApiHookCheck-style hook scanner.
//!
//! The Introduction's first detection approach "targets the hiding
//! mechanism by, for example, detecting the presence of API interceptions".
//! Its two structural weaknesses, both reproduced here:
//!
//! 1. it cannot catch ghostware that does not use a targeted mechanism —
//!    filter drivers and registry callbacks are legitimate OS extension
//!    points indistinguishable from AV/backup software, DKOM touches no
//!    code at all, and naming-asymmetry hiding has no mechanism whatsoever;
//! 2. it flags *legitimate* uses of interception (in-memory patching,
//!    fault-tolerance wrappers) as false positives.

use std::fmt;
use strider_support::obs::Telemetry;
use strider_winapi::{HookStyle, Level, Machine, QueryKind};

/// One suspicious interception found by the mechanism scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HookFinding {
    /// Where the interception lives.
    pub level: Level,
    /// The implementation mechanism fingerprinted.
    pub style: HookStyle,
    /// Which query kinds are intercepted.
    pub kinds: Vec<QueryKind>,
    /// The owner, recovered for evaluation purposes only — a real hook
    /// scanner sees an anonymous trampoline address, so detection quality
    /// must be judged per finding, not per name.
    pub owner: String,
}

impl fmt::Display for HookFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {:?} hook on {:?}",
            self.level, self.style, self.kinds
        )
    }
}

/// The hook scanner baseline.
#[derive(Debug, Clone, Default)]
pub struct HookScanner {
    telemetry: Telemetry,
}

impl HookScanner {
    /// Creates the scanner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Threads a telemetry registry through the scan.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Scans for API interceptions: IAT entries pointing outside their
    /// export's module, in-memory code differing from the on-disk image,
    /// and SSDT entries outside the kernel image. Reports *every* such
    /// interception, benign or not; cannot see filter drivers, registry
    /// callbacks, DKOM, or naming tricks.
    pub fn scan(&self, machine: &Machine) -> Vec<HookFinding> {
        let span = self.telemetry.span("hookscan.scan");
        let findings: Vec<HookFinding> = machine
            .hooks()
            .hooks()
            .iter()
            .filter(|h| {
                matches!(
                    h.level,
                    Level::Iat | Level::Win32ApiCode | Level::NtdllCode | Level::Ssdt
                )
            })
            .map(|h| HookFinding {
                level: h.level,
                style: h.style,
                kinds: h.kinds.clone(),
                owner: h.owner.clone(),
            })
            .collect();
        span.set_attr("findings", findings.len());
        findings
    }

    /// Owners implicated by the scan (evaluation helper).
    pub fn implicated_owners(&self, machine: &Machine) -> Vec<String> {
        let mut owners: Vec<String> = self
            .scan(machine)
            .into_iter()
            .map(|f| f.owner.to_ascii_lowercase())
            .collect();
        owners.sort();
        owners.dedup();
        owners
    }
}

/// Installs a *benign* interception — an in-memory patch in the spirit of
/// Detours-based fault-tolerance wrappers — used to demonstrate the hook
/// scanner's false positives.
pub fn install_benign_wrapper(machine: &mut Machine, owner: &str) {
    use std::sync::Arc;
    machine.install_win32_code_hook(
        owner,
        vec![QueryKind::Files],
        strider_winapi::HookScope::All,
        HookStyle::Wrapper,
        // A pass-through: observes, hides nothing.
        Arc::new(
            |_: &strider_winapi::CallContext,
             _: &strider_winapi::Query,
             _: &mut Vec<strider_winapi::Row>| false,
        ),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ghostbuster::GhostBuster;
    use strider_ghostware::{FileHider, Fu, Ghostware, HackerDefender, NamingTrick, ProBotSe};

    #[test]
    fn finds_interception_based_hiders() {
        let mut m = Machine::with_base_system("victim").unwrap();
        HackerDefender::default().infect(&mut m).unwrap();
        ProBotSe::default().infect(&mut m).unwrap();
        let owners = HookScanner::new().implicated_owners(&m);
        assert!(owners.contains(&"hackerdefender".to_string()));
        assert!(owners.contains(&"probotse".to_string()));
    }

    #[test]
    fn blind_to_filter_drivers_dkom_and_naming() {
        let mut m = Machine::with_base_system("victim").unwrap();
        FileHider::hide_folders_xp().infect(&mut m).unwrap();
        Fu::default().infect(&mut m).unwrap();
        NamingTrick.infect(&mut m).unwrap();
        let findings = HookScanner::new().scan(&m);
        assert!(
            findings.is_empty(),
            "mechanism scan must miss all three: {findings:?}"
        );
        // The cross-view diff catches all three on the same machine.
        let sweep = GhostBuster::new()
            .with_advanced(crate::process::AdvancedSource::ThreadTable)
            .inside_sweep(&mut m)
            .unwrap();
        assert!(sweep.is_infected());
    }

    #[test]
    fn flags_benign_wrappers_as_false_positives() {
        let mut m = Machine::with_base_system("clean").unwrap();
        install_benign_wrapper(&mut m, "ft-wrapper");
        let findings = HookScanner::new().scan(&m);
        assert_eq!(findings.len(), 1, "benign hook reported — a false positive");
        // The cross-view diff stays silent: nothing is hidden.
        let sweep = GhostBuster::new().inside_sweep(&mut m).unwrap();
        assert!(!sweep.is_infected());
    }
}
