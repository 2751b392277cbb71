//! Detection reports, categorization, and the noise classifier.

use crate::snapshot::{ScanMeta, ViewKind};
use std::fmt;
use strider_nt_core::Tick;

/// Which resource type a detection concerns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceKind {
    /// A file or directory.
    File,
    /// An ASEP hook / Registry entry.
    AsepHook,
    /// A process.
    Process,
    /// A loaded module.
    Module,
}

impl fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ResourceKind::File => "file",
            ResourceKind::AsepHook => "ASEP hook",
            ResourceKind::Process => "process",
            ResourceKind::Module => "module",
        };
        f.write_str(s)
    }
}

/// Figure 3's hidden-file categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FileCategory {
    /// Ghostware binaries: EXEs, DLLs, drivers.
    Binary,
    /// Ghostware data files: configuration and logs.
    Data,
    /// Other target files hidden on behalf of the user or rootkit config.
    OtherTarget,
}

impl FileCategory {
    /// Categorizes by file extension, per the paper's three classes.
    pub fn from_path(path: &str) -> Self {
        let lower = path.to_ascii_lowercase();
        let ext = lower.rsplit('.').next().unwrap_or("");
        match ext {
            "exe" | "dll" | "sys" | "drv" | "ocx" | "com" | "scr" => FileCategory::Binary,
            "ini" | "log" | "dat" | "cfg" | "conf" | "tmp" | "db" => FileCategory::Data,
            _ => FileCategory::OtherTarget,
        }
    }
}

impl fmt::Display for FileCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FileCategory::Binary => "binary",
            FileCategory::Data => "data",
            FileCategory::OtherTarget => "other target",
        };
        f.write_str(s)
    }
}

/// The noise classifier's verdict on one detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NoiseClass {
    /// No benign explanation: treat as ghostware.
    Suspicious,
    /// Matches a known always-running-service churn location (AV logs, CCM
    /// inventory, System Restore change logs, prefetch, browser cache) —
    /// the paper's outside-the-box false positives, "easily filtered out
    /// through manual inspection".
    LikelyServiceChurn,
    /// The backing Registry record is corrupt rather than hidden — the
    /// paper's single Registry false positive.
    LikelyCorruption,
    /// Appeared in some quorum passes and vanished in others — the
    /// signature of scan-aware evasion (flicker hiding, unhide-on-scan).
    /// Counted with [`NoiseClass::Suspicious`] in
    /// [`DiffReport::net_detections`]: an unstable lie is still a lie.
    Flickering,
}

impl fmt::Display for NoiseClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            NoiseClass::Suspicious => "suspicious",
            NoiseClass::LikelyServiceChurn => "likely service churn",
            NoiseClass::LikelyCorruption => "likely corruption",
            NoiseClass::Flickering => "flickering (evasion suspected)",
        };
        f.write_str(s)
    }
}

/// One cross-view finding: present in the truth view, absent from the lie.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Detection {
    /// Resource type.
    pub kind: ResourceKind,
    /// The identity key the diff matched on.
    pub identity: String,
    /// Human-readable description of the hidden resource.
    pub detail: String,
    /// File category (files only).
    pub category: Option<FileCategory>,
    /// Noise verdict.
    pub noise: NoiseClass,
}

impl fmt::Display for Detection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {} ({})", self.kind, self.detail, self.noise)
    }
}

/// The classifier applied to raw diff output.
///
/// The paper's position is that cross-view diffs have near-zero false
/// positives and the residue is trivially explainable; this classifier
/// encodes those explanations. It never *drops* a finding — it labels it,
/// and [`DiffReport::net_detections`] is the "after manual inspection" view.
#[derive(Debug, Clone)]
pub struct NoiseFilter {
    churn_patterns: Vec<String>,
}

impl Default for NoiseFilter {
    fn default() -> Self {
        Self {
            churn_patterns: [
                "\\etrust\\logs\\",
                "\\ccm\\",
                "\\system volume information\\",
                "\\prefetch\\",
                "\\temporary internet files\\",
                "\\windows\\temp\\",
                "/var/log/",
                "/tmp/",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        }
    }
}

impl NoiseFilter {
    /// Creates the standard filter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Classifies a path-shaped identity.
    pub fn classify_path(&self, path: &str) -> NoiseClass {
        let lower = path.to_ascii_lowercase();
        if self
            .churn_patterns
            .iter()
            .any(|p| lower.contains(p.as_str()))
        {
            NoiseClass::LikelyServiceChurn
        } else {
            NoiseClass::Suspicious
        }
    }
}

/// A complete cross-view diff report for one resource kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffReport {
    /// Metadata of the truth-side scan.
    pub truth_meta: ScanMeta,
    /// Metadata of the lie-side scan.
    pub lie_meta: ScanMeta,
    /// Resources present in the truth but missing from the lie.
    pub detections: Vec<Detection>,
    /// Resources present in the lie but missing from the truth — rare, but
    /// e.g. a NUL-truncated Registry name appears as a different identity.
    pub phantom_in_lie: Vec<String>,
}

impl DiffReport {
    /// An empty report standing in for a pipeline whose truth source was
    /// lost: both metas are present (so downstream consumers need no
    /// special case) but nothing was compared.
    pub fn empty(truth_view: ViewKind, at: Tick) -> Self {
        DiffReport {
            truth_meta: ScanMeta::new(truth_view, at),
            lie_meta: ScanMeta::new(ViewKind::HighLevelWin32, at),
            detections: Vec::new(),
            phantom_in_lie: Vec::new(),
        }
    }

    /// Whether anything at all was hidden.
    pub fn has_detections(&self) -> bool {
        !self.detections.is_empty()
    }

    /// Findings still suspicious after noise classification — the paper's
    /// "after easy manual filtering" number.
    pub fn net_detections(&self) -> Vec<&Detection> {
        self.detections
            .iter()
            .filter(|d| matches!(d.noise, NoiseClass::Suspicious | NoiseClass::Flickering))
            .collect()
    }

    /// Findings classified as benign noise — the false-positive count when
    /// the machine is actually clean.
    pub fn noise_detections(&self) -> Vec<&Detection> {
        self.detections
            .iter()
            .filter(|d| !matches!(d.noise, NoiseClass::Suspicious | NoiseClass::Flickering))
            .collect()
    }

    /// Findings that appeared and vanished across quorum passes — the
    /// per-pipeline evasion signal ([`NoiseClass::Flickering`]).
    pub fn flicker_score(&self) -> usize {
        self.detections
            .iter()
            .filter(|d| d.noise == NoiseClass::Flickering)
            .count()
    }

    /// Counts detections per file category (Figure 3's columns).
    pub fn category_counts(&self) -> (usize, usize, usize) {
        let mut bins = (0, 0, 0);
        for d in &self.detections {
            match d.category {
                Some(FileCategory::Binary) => bins.0 += 1,
                Some(FileCategory::Data) => bins.1 += 1,
                Some(FileCategory::OtherTarget) => bins.2 += 1,
                None => {}
            }
        }
        bins
    }
}

impl fmt::Display for DiffReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "cross-view diff: {} vs {} — {} hidden, {} noise",
            self.truth_meta.view,
            self.lie_meta.view,
            self.net_detections().len(),
            self.noise_detections().len()
        )?;
        for d in &self.detections {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// JSON serialization (see `strider_support::json`, replacing the former
// serde derives)
// ---------------------------------------------------------------------

strider_support::impl_json!(
    enum ResourceKind {
        File,
        AsepHook,
        Process,
        Module,
    }
);
strider_support::impl_json!(
    enum FileCategory {
        Binary,
        Data,
        OtherTarget,
    }
);
strider_support::impl_json!(
    enum NoiseClass {
        Suspicious,
        LikelyServiceChurn,
        LikelyCorruption,
        Flickering,
    }
);
strider_support::impl_json!(struct Detection { kind, identity, detail, category, noise });
strider_support::impl_json!(struct DiffReport { truth_meta, lie_meta, detections, phantom_in_lie });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::ViewKind;
    use strider_nt_core::Tick;

    fn det(kind: ResourceKind, detail: &str, noise: NoiseClass) -> Detection {
        Detection {
            kind,
            identity: detail.to_ascii_lowercase(),
            detail: detail.to_string(),
            category: (kind == ResourceKind::File).then(|| FileCategory::from_path(detail)),
            noise,
        }
    }

    #[test]
    fn categorization_follows_extension() {
        assert_eq!(
            FileCategory::from_path("C:\\a\\hxdef100.exe"),
            FileCategory::Binary
        );
        assert_eq!(
            FileCategory::from_path("C:\\a\\hxdefdrv.sys"),
            FileCategory::Binary
        );
        assert_eq!(
            FileCategory::from_path("C:\\a\\hxdef100.ini"),
            FileCategory::Data
        );
        assert_eq!(
            FileCategory::from_path("C:\\a\\vanquish.log"),
            FileCategory::Data
        );
        assert_eq!(
            FileCategory::from_path("C:\\a\\diary.txt"),
            FileCategory::OtherTarget
        );
        assert_eq!(FileCategory::from_path("noext"), FileCategory::OtherTarget);
    }

    #[test]
    fn noise_filter_recognizes_service_locations() {
        let f = NoiseFilter::new();
        assert_eq!(
            f.classify_path("C:\\Program Files\\eTrust\\logs\\av-000120.log"),
            NoiseClass::LikelyServiceChurn
        );
        assert_eq!(
            f.classify_path("C:\\windows\\prefetch\\X.pf"),
            NoiseClass::LikelyServiceChurn
        );
        assert_eq!(
            f.classify_path("C:\\windows\\system32\\hxdef100.exe"),
            NoiseClass::Suspicious
        );
        assert_eq!(
            f.classify_path("/var/log/xferlog"),
            NoiseClass::LikelyServiceChurn
        );
    }

    #[test]
    fn report_counters() {
        let report = DiffReport {
            truth_meta: ScanMeta::new(ViewKind::LowLevelMft, Tick(10)),
            lie_meta: ScanMeta::new(ViewKind::HighLevelWin32, Tick(7)),
            detections: vec![
                det(
                    ResourceKind::File,
                    "C:\\x\\evil.exe",
                    NoiseClass::Suspicious,
                ),
                det(
                    ResourceKind::File,
                    "C:\\x\\evil.log",
                    NoiseClass::Suspicious,
                ),
                det(
                    ResourceKind::File,
                    "C:\\prefetch\\A.pf",
                    NoiseClass::LikelyServiceChurn,
                ),
            ],
            phantom_in_lie: Vec::new(),
        };
        assert!(report.has_detections());
        assert_eq!(report.net_detections().len(), 2);
        assert_eq!(report.noise_detections().len(), 1);
        assert_eq!(report.category_counts(), (1, 1, 1));
        let rendered = report.to_string();
        assert!(rendered.contains("2 hidden"));
        assert!(rendered.contains("1 noise"));
    }
}
