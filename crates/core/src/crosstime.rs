//! The cross-time diff baseline (Tripwire / Strider Troubleshooter style).
//!
//! The Introduction contrasts GhostBuster's cross-view diff with the more
//! common cross-*time* diff: comparing snapshots from two different points
//! in time. Cross-time diffs catch a broader class of malware (hiding or
//! not) but report every legitimate change too, requiring noise filtering.
//! This baseline exists so the benchmark suite can quantify that trade-off.

use std::collections::BTreeMap;
use strider_support::obs::Telemetry;
use strider_winapi::Machine;

/// A point-in-time checkpoint of the volume's file metadata.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    files: BTreeMap<String, (u64, u64)>, // fold-key -> (size, modified tick)
    taken_at: u64,
}

/// A change set between two checkpoints.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChangeSet {
    /// Paths present now but not at the checkpoint.
    pub added: Vec<String>,
    /// Paths present at the checkpoint but gone now.
    pub removed: Vec<String>,
    /// Paths whose size or modified time changed.
    pub modified: Vec<String>,
}

impl ChangeSet {
    /// Total number of reported changes — every one an alarm the operator
    /// must triage.
    pub fn alarm_count(&self) -> usize {
        self.added.len() + self.removed.len() + self.modified.len()
    }
}

/// The Tripwire-style cross-time differ.
///
/// Reads the volume truthfully (integrity checkers run with their own
/// baseline database and raw access), so hiding does not defeat it — volume
/// of legitimate change does.
#[derive(Debug, Clone, Default)]
pub struct CrossTimeDiff {
    telemetry: Telemetry,
}

impl CrossTimeDiff {
    /// Creates the differ.
    pub fn new() -> Self {
        Self::default()
    }

    /// Threads a telemetry registry through checkpoint and diff.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Takes a checkpoint of every file on the volume.
    pub fn checkpoint(&self, machine: &Machine) -> Checkpoint {
        let span = self.telemetry.span("crosstime.checkpoint");
        let mut files = BTreeMap::new();
        for rec in machine.volume().iter() {
            if let Some(path) = machine.volume().path_of(rec.number) {
                files.insert(
                    path.fold_key(),
                    (rec.total_stream_bytes(), rec.std_info.modified.0),
                );
            }
        }
        span.set_attr("entries", files.len());
        Checkpoint {
            files,
            taken_at: machine.now().0,
        }
    }

    /// Diffs the machine's current state against a checkpoint.
    pub fn diff(&self, machine: &Machine, baseline: &Checkpoint) -> ChangeSet {
        let span = self.telemetry.span("crosstime.diff");
        let now = self.checkpoint(machine);
        let mut set = ChangeSet::default();
        for (key, meta) in &now.files {
            match baseline.files.get(key) {
                None => set.added.push(key.clone()),
                Some(old) if old != meta => set.modified.push(key.clone()),
                Some(_) => {}
            }
        }
        for key in baseline.files.keys() {
            if !now.files.contains_key(key) {
                set.removed.push(key.clone());
            }
        }
        span.set_attr("added", set.added.len());
        span.set_attr("removed", set.removed.len());
        span.set_attr("modified", set.modified.len());
        set
    }

    /// The checkpoint's timestamp.
    pub fn taken_at(checkpoint: &Checkpoint) -> u64 {
        checkpoint.taken_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strider_ghostware::{Ghostware, HackerDefender};
    use strider_workload::services::install_standard_services;

    #[test]
    fn detects_nonhiding_and_hiding_malware_alike() {
        let mut m = Machine::with_base_system("victim").unwrap();
        let ct = CrossTimeDiff::new();
        let baseline = ct.checkpoint(&m);
        HackerDefender::default().infect(&mut m).unwrap();
        let changes = ct.diff(&m, &baseline);
        assert!(changes.added.iter().any(|p| p.contains("hxdef100.exe")));
    }

    #[test]
    fn legitimate_churn_floods_the_report() {
        let mut m = Machine::with_base_system("victim").unwrap();
        install_standard_services(&mut m, true);
        m.tick(1);
        let ct = CrossTimeDiff::new();
        let baseline = ct.checkpoint(&m);
        m.tick(600); // ten minutes of ordinary operation
        let changes = ct.diff(&m, &baseline);
        assert!(
            changes.alarm_count() >= 10,
            "cross-time diff drowns in legitimate changes: {}",
            changes.alarm_count()
        );
    }

    #[test]
    fn quiet_machine_quiet_report() {
        let m = Machine::with_base_system("quiet").unwrap();
        let ct = CrossTimeDiff::new();
        let baseline = ct.checkpoint(&m);
        assert_eq!(ct.diff(&m, &baseline).alarm_count(), 0);
    }

    #[test]
    fn removal_and_modification_are_reported() {
        let mut m = Machine::with_base_system("t").unwrap();
        let ct = CrossTimeDiff::new();
        let baseline = ct.checkpoint(&m);
        m.tick(1);
        m.volume_mut()
            .write_file(&"C:\\windows\\explorer.exe".parse().unwrap(), b"patched!")
            .unwrap();
        m.volume_mut()
            .remove_file(&"C:\\windows\\system32\\notepad.exe".parse().unwrap())
            .unwrap();
        let changes = ct.diff(&m, &baseline);
        assert!(changes.modified.iter().any(|p| p.contains("explorer.exe")));
        assert!(changes.removed.iter().any(|p| p.contains("notepad.exe")));
    }
}
