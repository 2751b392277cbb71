//! Scan-aware evasive ghostware: the adversary side of the arms race.
//!
//! The paper's countermeasures discussion (Section 7) anticipates ghostware
//! that adapts to the scanner instead of lying uniformly: unhide while the
//! low-level scan is reading the raw volume, re-hook once the sweep's
//! enumeration burst has passed, or hide a randomized subset of resources
//! per query so no single cross-view diff sees a stable lie. Herzog et
//! al.'s evasive-malware catalog (PAPERS.md) documents the same sensor
//! suite in the wild: scanner-process detection, read-pattern detection,
//! timing checks.
//!
//! [`EvasiveGhostware`] is a rootkit whose *hiding is a function of the
//! scan observations* flowing through the machine's [`ScanTap`]. It drops
//! a file pair, a Run-key ASEP entry, and a process, and installs one
//! NtDll detour whose filter consults the tap on every call and applies
//! the configured [`EvasiveTactic`]:
//!
//! - [`EvasiveTactic::UnhideDuringLowScan`] — raw-read sensing. The
//!   rootkit hides by default but tells the truth for `window` queries
//!   after every raw volume/hive/dump read, so the high view matches the
//!   low view exactly when the detector compares them.
//! - [`EvasiveTactic::RehookAfterSweep`] — burst sensing. A run of
//!   `burst` consecutive file/Registry enumeration queries is the
//!   fingerprint of a bulk scan; the rootkit drops its lies while the
//!   burst lasts and re-hooks `rehook_after` queries after it breaks.
//! - [`EvasiveTactic::FlickerHiding`] — seeded per-query flicker. Each
//!   hidden resource stays visible for its first `grace` appearances,
//!   then vanishes on a seeded coin flip per appearance — a different
//!   subset of lies on every pass, which no single-pass (and no
//!   two-passes-agree) diff pins down.
//!
//! The tactics only see what real ghostware could see: the in-box query
//! stream and raw-read activity. Outside-the-box disk capture
//! (`Machine::snapshot_disk`) is invisible to the tap by construction,
//! which is why the paper's outside scan stays undefeatable — the matrix
//! in `tests/evasion_matrix.rs` asserts exactly that.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::filters::{drop_rows, lower_name, NamePatterns};
use crate::{static_path, Ghostware, Infection, Technique};
use strider_hive::ValueData;
use strider_nt_core::{NtPath, NtStatus};
use strider_support::rng::{fnv1a, SplitMix64};
use strider_winapi::{
    CallContext, HookScope, Machine, Query, QueryFilter, QueryKind, Row, ScanTap,
};

/// How an [`EvasiveGhostware`] reacts to sensed scan activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvasiveTactic {
    /// Tell the truth for `window` queries after every raw truth-source
    /// read, so low-level scans see exactly what the (momentarily honest)
    /// high-level view shows.
    UnhideDuringLowScan {
        /// Queries of honesty after each raw read; must cover a scan pass.
        window: u64,
    },
    /// Drop all lies while a bulk-enumeration burst is in flight and for
    /// `rehook_after` further queries, then re-install them.
    RehookAfterSweep {
        /// Consecutive file/Registry enumeration queries that count as a
        /// scan burst.
        burst: u64,
        /// How many queries after the burst breaks before lying resumes.
        rehook_after: u64,
    },
    /// Hide a seeded pseudo-random subset of resources per query: each
    /// hidden resource is visible for its first `grace` appearances, then
    /// flips a per-appearance coin (probability ½) derived from `seed`.
    FlickerHiding {
        /// Seed for the per-(resource, appearance) coin.
        seed: u64,
        /// Appearances that stay visible before flickering starts — long
        /// enough to outlast a stabilized naive sweep.
        grace: u64,
    },
}

impl std::fmt::Display for EvasiveTactic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnhideDuringLowScan { window } => {
                write!(f, "unhide-during-low-scan(window={window})")
            }
            Self::RehookAfterSweep {
                burst,
                rehook_after,
            } => write!(f, "rehook-after-sweep(burst={burst}, after={rehook_after})"),
            Self::FlickerHiding { seed, grace } => {
                write!(f, "flicker-hiding(seed={seed}, grace={grace})")
            }
        }
    }
}

/// A snapshot of what the rootkit's sensors have observed so far —
/// useful for asserting that evasion actually engaged.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EvasionSense {
    /// Filter invocations (queries of the hooked kinds) observed.
    pub queries_observed: u64,
    /// Times a bulk-enumeration burst was first sensed.
    pub bursts_sensed: u64,
    /// Filter calls answered honestly (lies suspended).
    pub honest_calls: u64,
    /// Filter calls answered with hiding active.
    pub lying_calls: u64,
    /// Individual row suppressions by the flicker coin.
    pub flicker_hides: u64,
    /// Whether a scanner-named process was seen among recent callers.
    pub scanner_seen: bool,
}

#[derive(Debug, Default)]
struct EvasionState {
    sense: EvasionSense,
    /// Query index at the most recent sensed burst (RehookAfterSweep).
    last_burst_at: Option<u64>,
    /// Per-resource appearance counters (FlickerHiding).
    appearances: BTreeMap<String, u64>,
}

/// A rootkit that senses scans through the machine's [`ScanTap`] and
/// adapts its hiding with a configurable, seeded [`EvasiveTactic`].
///
/// Payload: `<stem>32.exe` + `<stem>.cfg` in `system32`, a Run-key value
/// named `<stem>`, and a `<stem>32.exe` process — all hidden (subject to
/// the tactic) by one NtDll detour over file, process, and Registry
/// queries.
#[derive(Debug, Clone)]
pub struct EvasiveGhostware {
    /// The reaction tactic.
    pub tactic: EvasiveTactic,
    /// Name stem for the dropped artifacts (default `"evader"`).
    pub stem: String,
    name: String,
    state: Arc<Mutex<EvasionState>>,
}

impl EvasiveGhostware {
    /// Creates the sample with the default `"evader"` artifact stem.
    pub fn new(tactic: EvasiveTactic) -> Self {
        Self {
            tactic,
            stem: "evader".to_string(),
            name: format!("Evasive({tactic})"),
            state: Arc::new(Mutex::new(EvasionState::default())),
        }
    }

    /// What the rootkit's sensors have observed since infection.
    pub fn sense(&self) -> EvasionSense {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .sense
            .clone()
    }

    fn filter(&self, tap: ScanTap) -> Arc<dyn QueryFilter> {
        let tactic = self.tactic;
        let stem = NamePatterns::new(&[&self.stem]);
        let state = Arc::clone(&self.state);
        Arc::new(move |_: &CallContext, _: &Query, rows: &mut Vec<Row>| {
            let mut st = state.lock().unwrap_or_else(|e| e.into_inner());
            st.sense.queries_observed += 1;
            if !st.sense.scanner_seen {
                st.sense.scanner_seen = tap.saw_caller("ghostbuster");
            }
            match tactic {
                EvasiveTactic::UnhideDuringLowScan { window } => {
                    let honest = tap.queries_since_raw_read().is_some_and(|d| d < window);
                    if honest {
                        st.sense.honest_calls += 1;
                        false
                    } else {
                        st.sense.lying_calls += 1;
                        drop_rows(rows, |r| stem.matches(r))
                    }
                }
                EvasiveTactic::RehookAfterSweep {
                    burst,
                    rehook_after,
                } => {
                    let (kind, run) = tap.current_run();
                    let enumerating = matches!(
                        kind,
                        Some(QueryKind::Files | QueryKind::RegKeys | QueryKind::RegValues)
                    );
                    if enumerating && run >= burst {
                        if run == burst {
                            st.sense.bursts_sensed += 1;
                        }
                        st.last_burst_at = Some(tap.queries());
                    }
                    let honest = st
                        .last_burst_at
                        .is_some_and(|at| tap.queries().saturating_sub(at) <= rehook_after);
                    if honest {
                        st.sense.honest_calls += 1;
                        false
                    } else {
                        st.sense.lying_calls += 1;
                        drop_rows(rows, |r| stem.matches(r))
                    }
                }
                EvasiveTactic::FlickerHiding { seed, grace } => {
                    st.sense.lying_calls += 1;
                    drop_rows(rows, |row| {
                        if !stem.matches(row) {
                            return false;
                        }
                        let name = lower_name(row);
                        let n = st.appearances.entry(name.clone()).or_insert(0);
                        *n += 1;
                        let appearance = *n;
                        let visible = appearance <= grace || {
                            let mut coin = SplitMix64::seed_from_u64(
                                seed ^ fnv1a(name.as_bytes()) ^ appearance,
                            );
                            !coin.chance(1, 2)
                        };
                        if !visible {
                            st.sense.flicker_hides += 1;
                        }
                        !visible
                    })
                }
            }
        })
    }
}

impl Ghostware for EvasiveGhostware {
    fn name(&self) -> &str {
        &self.name
    }

    fn infect(&self, machine: &mut Machine) -> Result<Infection, NtStatus> {
        let stem = &self.stem;
        let exe: NtPath = format!("C:\\windows\\system32\\{stem}32.exe")
            .parse()
            .map_err(|_| NtStatus::ObjectNameInvalid)?;
        let cfg: NtPath = format!("C:\\windows\\system32\\{stem}.cfg")
            .parse()
            .map_err(|_| NtStatus::ObjectNameInvalid)?;
        machine.native_create_file(&exe, b"MZ evader")?;
        machine.native_create_file(&cfg, b"tactic config")?;

        let run = static_path("HKLM\\SOFTWARE\\Microsoft\\Windows\\CurrentVersion\\Run");
        machine
            .registry_mut()
            .set_value(&run, stem.as_str(), ValueData::sz(exe.to_string().as_str()))
            .map_err(|_| NtStatus::ObjectNameNotFound)?;

        let proc_name = format!("{stem}32.exe");
        machine.spawn_process(&proc_name, &exe.to_string())?;

        // The sensor: a clone handle onto the machine's scan tap, captured
        // by the detour filter below. This is the whole arms race — the
        // lie becomes a function of observed scan activity.
        let tap = machine.scan_tap();
        machine.install_ntdll_hook(
            "Evasive",
            vec![
                QueryKind::Files,
                QueryKind::Processes,
                QueryKind::RegKeys,
                QueryKind::RegValues,
            ],
            HookScope::All,
            self.filter(tap),
        );

        let mut infection = Infection::new(&self.name);
        infection.techniques = vec![Technique::DetourNtdll];
        infection.hidden_files = vec![exe, cfg];
        infection.hidden_asep_entries = vec![stem.clone()];
        infection.hidden_process_names = vec![proc_name];
        infection
            .visible_artifacts
            .push(format!("adaptive hiding: {}", self.tactic));
        Ok(infection)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strider_winapi::ChainEntry;

    fn sees_file(m: &Machine) -> bool {
        let ctx = m.context_for_name("explorer.exe").unwrap();
        let q = Query::DirectoryEnum {
            path: "C:\\windows\\system32".parse().unwrap(),
        };
        m.query(&ctx, &q, ChainEntry::Win32)
            .unwrap()
            .iter()
            .any(|r| r.name().to_win32_lossy().contains("evader"))
    }

    #[test]
    fn unhide_during_low_scan_tracks_raw_reads() {
        let mut m = Machine::with_base_system("t").unwrap();
        let gw = EvasiveGhostware::new(EvasiveTactic::UnhideDuringLowScan { window: 4 });
        gw.infect(&mut m).unwrap();
        assert!(!sees_file(&m), "hidden before any raw read");
        m.try_read_raw_volume_image().unwrap();
        assert!(sees_file(&m), "honest right after a raw read");
        // Burn through the honesty window with unrelated queries.
        let ctx = m.context_for_name("explorer.exe").unwrap();
        for _ in 0..8 {
            let _ = m.query(&ctx, &Query::ProcessList, ChainEntry::Win32);
        }
        assert!(!sees_file(&m), "hidden again once the window expires");
        let s = gw.sense();
        assert!(s.honest_calls > 0 && s.lying_calls > 0);
    }

    #[test]
    fn rehook_after_sweep_senses_enumeration_bursts() {
        let mut m = Machine::with_base_system("t").unwrap();
        let gw = EvasiveGhostware::new(EvasiveTactic::RehookAfterSweep {
            burst: 3,
            rehook_after: 5,
        });
        gw.infect(&mut m).unwrap();
        assert!(!sees_file(&m), "hidden before any burst");
        // Drive a directory-enumeration burst past the threshold.
        let ctx = m.context_for_name("explorer.exe").unwrap();
        let enum_q = Query::DirectoryEnum {
            path: "C:\\windows".parse().unwrap(),
        };
        for _ in 0..4 {
            let _ = m.query(&ctx, &enum_q, ChainEntry::Win32);
        }
        assert!(sees_file(&m), "honest while the burst window holds");
        assert_eq!(gw.sense().bursts_sensed, 1);
        // Let the burst age out: non-enumeration queries past rehook_after.
        for _ in 0..8 {
            let _ = m.query(&ctx, &Query::ProcessList, ChainEntry::Win32);
        }
        assert!(!sees_file(&m), "re-hooked after the quiet period");
    }

    #[test]
    fn flicker_hiding_is_seed_deterministic() {
        let run = |seed| {
            let mut m = Machine::with_base_system("t").unwrap();
            let gw = EvasiveGhostware::new(EvasiveTactic::FlickerHiding { seed, grace: 2 });
            gw.infect(&mut m).unwrap();
            let visible: Vec<bool> = (0..32).map(|_| sees_file(&m)).collect();
            (visible, gw.sense().flicker_hides)
        };
        let (a, hides_a) = run(7);
        let (b, _) = run(7);
        assert_eq!(a, b, "equal seeds flicker identically");
        assert!(a[..2].iter().all(|&v| v), "grace appearances stay visible");
        assert!(a.iter().any(|&v| !v), "flickers after grace");
        assert!(a.iter().skip(2).any(|&v| v), "but not hidden constantly");
        assert!(hides_a > 0);
        let (c, _) = run(8);
        assert_ne!(a, c, "different seeds flicker differently");
    }
}
