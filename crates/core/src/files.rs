//! Hidden-file detection (paper, Section 2).

use crate::diff::cross_view_diff;
use crate::harden::{file_scan_decoys, DecoyPump, PassCounter};
use crate::instrument::{
    query_chain, record_chain, record_decoys, record_defects, record_view_entries, LatencyProbe,
};
use crate::policy::{interrupt_status, ScanPolicy};
use crate::report::{Detection, DiffReport, FileCategory, NoiseClass, NoiseFilter, ResourceKind};
use crate::snapshot::{FileFact, ScanMeta, Snapshot, ViewKind};
use strider_nt_core::{NtPath, NtStatus, Tick};
use strider_ntfs::VolumeImage;
use strider_support::obs::Telemetry;
use strider_support::task::Supervision;
use strider_winapi::{
    CallContext, ChainEntry, ChainStats, DiskImage, Machine, PerParent, Query, Row,
};

/// The hidden-file scanner: high-level API walks, low-level MFT parses,
/// and outside-the-box disk-image scans.
#[derive(Debug, Clone, Default)]
pub struct FileScanner {
    noise: NoiseFilter,
    detect_ads: bool,
    telemetry: Telemetry,
    policy: ScanPolicy,
    supervision: Supervision,
    pass_counter: PassCounter,
}

impl FileScanner {
    /// Creates a scanner with the standard noise filter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Threads a telemetry registry through every scan: phases become
    /// spans, per-view entry counts become counters, and each high-level
    /// query chain traversal is traced so a hooked call's divergence level
    /// is visible as a span attribute.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Replaces the resilience policy: retries for transient low-level read
    /// failures, and salvage-mode parsing of damaged volume images (each
    /// skipped structure is recorded as a defect in the scan's
    /// [`IoStats`](strider_nt_core::IoStats) and, when telemetry is
    /// attached, the `files.defects` counter).
    pub fn with_policy(mut self, policy: ScanPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Places the scanner under `supervision`: every directory-walk
    /// iteration and phase boundary checks the cancellation token and
    /// deadline, and stalled ([`NtStatus::Pending`]) low-level reads are
    /// abandoned when supervision interrupts. The default is
    /// [`Supervision::unsupervised`] — never interrupted.
    pub fn with_supervision(mut self, supervision: Supervision) -> Self {
        self.supervision = supervision;
        // A re-supervised scanner starts a fresh pipeline run: its quorum
        // passes must index hardening streams from 0 again, so sweep
        // results stay seed-deterministic however runs are scheduled.
        self.pass_counter = PassCounter::default();
        self
    }

    /// Enables alternate-data-stream detection: the low-level views report
    /// each named stream as a pseudo-entry (`host.txt:stream`), which the
    /// Win32 enumeration never shows — one of the "beyond ghostware" hiding
    /// places the paper's conclusion lists as future work.
    pub fn with_ads_detection(mut self) -> Self {
        self.detect_ads = true;
        self
    }

    /// The high-level scan: a recursive `dir /s /b`-style walk through the
    /// (possibly hooked) API chain. Directories hidden from enumeration are
    /// never descended into, exactly like the real tool.
    ///
    /// # Errors
    ///
    /// Propagates API failures other than vanishing directories.
    pub fn high_scan(
        &self,
        machine: &Machine,
        ctx: &CallContext,
        entry: ChainEntry,
    ) -> Result<Snapshot<FileFact>, NtStatus> {
        let view = ViewKind::high_level(entry);
        let span = self.telemetry.span("files.high_scan");
        let probe = LatencyProbe::new(&self.telemetry, "files.dir_query_ns");
        let mut chain = ChainStats::default();
        let mut meta = ScanMeta::new(view, machine.now());
        let mut facts = Vec::new();
        // Hardened scans shuffle descent order per pass and interleave
        // decoy queries, so the walk neither enumerates in a predictable
        // order nor emits the same-kind burst ghostware fingerprints.
        let mut order_rng = self
            .policy
            .hardening
            .map(|h| h.pass_stream("files", self.pass_counter.next()));
        let mut pump = match self.policy.hardening {
            Some(h) => DecoyPump::new(h.decoy_every, file_scan_decoys()),
            None => DecoyPump::disabled(),
        };
        let mut stack = vec![NtPath::root_of(machine.volume().label())];
        let mut listed = PerParent::default();
        while let Some(dir) = stack.pop() {
            self.supervision.checkpoint().map_err(interrupt_status)?;
            meta.io.record_api_call();
            meta.io.record_seek();
            let query = Query::DirectoryEnum { path: dir };
            let query_started = probe.start();
            let rows = match query_chain(machine, ctx, &query, entry, &mut chain) {
                Ok(rows) => rows,
                // A directory deleted mid-walk is normal churn, not an error.
                Err(NtStatus::ObjectNameNotFound) => continue,
                Err(e) => return Err(e),
            };
            probe.finish(query_started);
            pump.tick(machine, ctx);
            meta.io.record_entries(rows.len() as u64);
            let subdirs = stack.len();
            for row in rows {
                if let Row::File(f) = row {
                    // Rendered once per listing, then each row from its name.
                    let (dir_key, dir_display) =
                        listed.get(&f, |dir| (dir.fold_key(), dir.to_display_string()));
                    let (key, path) = f.name.render_under(dir_key, dir_display);
                    facts.push((
                        key,
                        FileFact {
                            path,
                            is_dir: f.is_dir,
                            size: f.size,
                            created: None,
                        },
                    ));
                    if f.is_dir {
                        stack.push(f.parent.join(f.name));
                    }
                }
            }
            if let Some(rng) = &mut order_rng {
                rng.shuffle(&mut stack[subdirs..]);
            }
        }
        let snap = Snapshot::from_facts(meta, facts);
        record_view_entries(&self.telemetry, &span, "files", &snap);
        record_decoys(&self.telemetry, "files", pump.issued());
        span.set_attr("api_calls", snap.meta.io.api_calls);
        record_chain(&span, &chain);
        Ok(snap)
    }

    /// The low-level inside-the-box scan: read the raw volume image (which
    /// privileged ghostware may tamper with — a truth *approximation*) and
    /// parse the MFT directly, reconstructing paths from parent references.
    ///
    /// # Errors
    ///
    /// Fails when the read fails permanently (transient failures are
    /// retried per the [`ScanPolicy`]) or the image does not parse and
    /// salvage is off.
    pub fn low_scan(&self, machine: &Machine) -> Result<Snapshot<FileFact>, NtStatus> {
        let bytes = self
            .policy
            .supervised_retry(&self.supervision, || machine.try_read_raw_volume_image())?;
        self.scan_image_bytes(&bytes, ViewKind::LowLevelMft, machine.now())
    }

    /// The outside-the-box scan: parse a clean-boot disk image.
    ///
    /// # Errors
    ///
    /// Fails when the image does not parse.
    pub fn outside_scan(&self, image: &DiskImage) -> Result<Snapshot<FileFact>, NtStatus> {
        self.scan_image_bytes(&image.volume_image, ViewKind::OutsideDisk, image.taken_at)
    }

    fn scan_image_bytes(
        &self,
        bytes: &[u8],
        view: ViewKind,
        taken_at: Tick,
    ) -> Result<Snapshot<FileFact>, NtStatus> {
        let span_name = match view {
            ViewKind::OutsideDisk => "files.outside_scan",
            _ => "files.low_scan",
        };
        let span = self.telemetry.span(span_name);
        let (raw, defects) =
            self.policy
                .parse_image(bytes, VolumeImage::parse, VolumeImage::parse_salvage)?;
        let mut meta = ScanMeta::new(view, taken_at);
        meta.io.record_sequential(raw.image_len());
        record_defects(&self.telemetry, &span, "files", &mut meta.io, defects);
        let paths = raw.rendered_paths();
        let mut facts = Vec::with_capacity(paths.len());
        for (key, display, entry) in paths {
            meta.io.record_entries(1);
            if self.detect_ads {
                for ads in &entry.ads_names {
                    facts.push((
                        format!("{key}:{}", String::from_utf16_lossy(&ads.fold_key())),
                        FileFact {
                            path: format!("{display}:{}", ads.to_display_string()),
                            is_dir: false,
                            size: 0,
                            created: Some(entry.created),
                        },
                    ));
                }
            }
            facts.push((
                key,
                FileFact {
                    path: display,
                    is_dir: entry.is_directory(),
                    size: entry.data_len,
                    created: Some(entry.created),
                },
            ));
        }
        let snap = Snapshot::from_facts(meta, facts);
        record_view_entries(&self.telemetry, &span, "files", &snap);
        span.set_attr("bytes_read", snap.meta.io.bytes_read);
        Ok(snap)
    }

    /// Diffs a truth-side snapshot against the high-level lie, classifying
    /// each finding (Figure 3 categories and noise classes).
    pub fn diff(&self, truth: &Snapshot<FileFact>, lie: &Snapshot<FileFact>) -> DiffReport {
        let span = self.telemetry.span("files.diff");
        let lie_taken = lie.meta.taken_at;
        let mut report = {
            let _cross = self.telemetry.span("files.cross_view_diff");
            cross_view_diff(truth, lie, |key, fact| Detection {
                kind: ResourceKind::File,
                identity: key.to_string(),
                detail: fact.path.clone(),
                category: (!fact.is_dir).then(|| FileCategory::from_path(&fact.path)),
                noise: NoiseClass::Suspicious,
            })
        };
        {
            let _noise = self.telemetry.span("files.noise_classification");
            for detection in &mut report.detections {
                let mut noise = self.noise.classify_path(&detection.detail);
                if noise == NoiseClass::Suspicious {
                    // Anything created after the lie-side scan cannot have
                    // been hidden from it — it is scan-gap churn.
                    let created = truth.get(&detection.identity).and_then(|f| f.created);
                    if created.is_some_and(|c| c > lie_taken) {
                        noise = NoiseClass::LikelyServiceChurn;
                    }
                }
                detection.noise = noise;
            }
        }
        span.set_attr("hidden", report.net_detections().len());
        span.set_attr("noise", report.noise_detections().len());
        report
    }

    /// One-call inside-the-box hidden-file detection.
    ///
    /// # Errors
    ///
    /// Propagates scan failures.
    pub fn scan_inside(
        &self,
        machine: &Machine,
        ctx: &CallContext,
    ) -> Result<DiffReport, NtStatus> {
        let _span = self.telemetry.span("files.scan_inside");
        let lie = self.high_scan(machine, ctx, ChainEntry::Win32)?;
        self.supervision.checkpoint().map_err(interrupt_status)?;
        let truth = self.low_scan(machine)?;
        Ok(self.diff(&truth, &lie))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strider_ghostware::{Ghostware, HackerDefender, NamingTrick, Vanquish};

    fn gb_ctx(machine: &mut Machine) -> CallContext {
        machine
            .ensure_process("ghostbuster.exe", "C:\\ghostbuster.exe")
            .unwrap()
    }

    #[test]
    fn clean_machine_has_zero_findings() {
        let mut m = Machine::with_base_system("clean").unwrap();
        let ctx = gb_ctx(&mut m);
        let report = FileScanner::new().scan_inside(&m, &ctx).unwrap();
        assert!(!report.has_detections(), "{report}");
    }

    #[test]
    fn hxdef_files_detected_and_categorized() {
        let mut m = Machine::with_base_system("victim").unwrap();
        let inf = HackerDefender::default().infect(&mut m).unwrap();
        let ctx = gb_ctx(&mut m);
        let report = FileScanner::new().scan_inside(&m, &ctx).unwrap();
        let found: Vec<&str> = report
            .net_detections()
            .iter()
            .map(|d| d.detail.as_str())
            .collect();
        for hidden in &inf.hidden_files {
            assert!(
                found.contains(&hidden.to_string().as_str()),
                "missing {hidden} in {found:?}"
            );
        }
        let (bin, data, _) = report.category_counts();
        assert_eq!(bin, 2, "exe + sys");
        assert_eq!(data, 1, "ini");
    }

    #[test]
    fn naming_tricks_detected_without_any_hook() {
        let mut m = Machine::with_base_system("victim").unwrap();
        let inf = NamingTrick.infect(&mut m).unwrap();
        let ctx = gb_ctx(&mut m);
        let report = FileScanner::new().scan_inside(&m, &ctx).unwrap();
        let found: Vec<String> = report
            .net_detections()
            .iter()
            .map(|d| d.detail.clone())
            .collect();
        for hidden in &inf.hidden_files {
            assert!(
                found.contains(&hidden.to_string()),
                "missing {hidden} in {found:?}"
            );
        }
    }

    #[test]
    fn hidden_directory_children_are_detected() {
        let mut m = Machine::with_base_system("victim").unwrap();
        Vanquish::default().infect(&mut m).unwrap();
        // Files inside a *vanquish* directory are unreachable by the walk.
        m.volume_mut()
            .mkdir_p(&"C:\\vanquish-stash".parse().unwrap())
            .unwrap();
        m.volume_mut()
            .create_file(&"C:\\vanquish-stash\\loot.txt".parse().unwrap(), b"x")
            .unwrap();
        let ctx = gb_ctx(&mut m);
        let report = FileScanner::new().scan_inside(&m, &ctx).unwrap();
        assert!(report
            .net_detections()
            .iter()
            .any(|d| d.detail == "C:\\vanquish-stash\\loot.txt"));
    }

    #[test]
    fn native_high_scan_catches_win32_only_hiders() {
        // Urbin hooks only the IAT: the Win32 walk lies, the native walk
        // does not, so diffing native-vs-win32 already exposes it.
        let mut m = Machine::with_base_system("victim").unwrap();
        strider_ghostware::Urbin.infect(&mut m).unwrap();
        let ctx = gb_ctx(&mut m);
        let s = FileScanner::new();
        let win32 = s.high_scan(&m, &ctx, ChainEntry::Win32).unwrap();
        let native = s.high_scan(&m, &ctx, ChainEntry::Native).unwrap();
        let report = s.diff(&native, &win32);
        assert!(report
            .net_detections()
            .iter()
            .any(|d| d.detail.contains("msvsres")));
    }

    #[test]
    fn outside_scan_flags_reboot_churn_as_noise() {
        let mut m = Machine::with_base_system("victim").unwrap();
        strider_workload::services::install_standard_services(&mut m, false);
        m.tick(1);
        let ctx = gb_ctx(&mut m);
        let s = FileScanner::new();
        let lie = s.high_scan(&m, &ctx, ChainEntry::Win32).unwrap();
        m.tick(150); // the WinPE reboot window
        let image = m.snapshot_disk().unwrap();
        let truth = s.outside_scan(&image).unwrap();
        let report = s.diff(&truth, &lie);
        assert!(report.net_detections().is_empty(), "no real ghostware");
        assert!(
            !report.noise_detections().is_empty(),
            "service churn must be present and classified"
        );
    }

    #[test]
    fn ads_detection_reveals_streams_only_when_enabled() {
        let mut m = Machine::with_base_system("victim").unwrap();
        strider_ghostware::AdsHider::default()
            .infect(&mut m)
            .unwrap();
        let ctx = gb_ctx(&mut m);
        // Default scanner: streams are out of scope, nothing to report.
        let plain = FileScanner::new().scan_inside(&m, &ctx).unwrap();
        assert!(!plain.has_detections(), "{plain}");
        // ADS-aware scanner: both streams are findings.
        let ads = FileScanner::new().with_ads_detection();
        let report = ads.scan_inside(&m, &ctx).unwrap();
        let details: Vec<&str> = report
            .net_detections()
            .iter()
            .map(|d| d.detail.as_str())
            .collect();
        assert!(details.contains(&"C:\\windows\\system32\\calc.txt:payload.exe"));
        assert!(details.contains(&"C:\\windows\\system32\\calc.txt:keys.log"));
        assert_eq!(report.net_detections().len(), 2);
    }

    #[test]
    fn ads_detection_is_quiet_on_stream_free_machines() {
        let mut m = Machine::with_base_system("clean").unwrap();
        let ctx = gb_ctx(&mut m);
        let report = FileScanner::new()
            .with_ads_detection()
            .scan_inside(&m, &ctx)
            .unwrap();
        assert!(!report.has_detections(), "{report}");
    }

    #[test]
    fn telemetry_records_phases_and_divergence_level() {
        let mut m = Machine::with_base_system("victim").unwrap();
        HackerDefender::default().infect(&mut m).unwrap();
        let ctx = gb_ctx(&mut m);
        let telemetry = strider_support::obs::Telemetry::new();
        let report = FileScanner::new()
            .with_telemetry(telemetry.clone())
            .scan_inside(&m, &ctx)
            .unwrap();
        assert!(report.has_detections());
        let tel = telemetry.report();
        let scan = tel.find_span("files.scan_inside").expect("root span");
        let high = scan.child("files.high_scan").expect("high phase");
        assert_eq!(
            high.attr("diverted_at").map(ToString::to_string),
            Some("NtdllCode".to_string()),
            "the hxdef detour level is attributed"
        );
        assert!(scan.child("files.low_scan").is_some());
        let diff = scan.child("files.diff").expect("diff phase");
        assert!(diff.child("files.noise_classification").is_some());
        assert!(tel.counters["files.entries.LowLevelMft"] > 0);
        assert!(
            tel.counters["files.entries.LowLevelMft"]
                > tel.counters["files.entries.HighLevelWin32"],
            "the lie saw fewer files than the truth"
        );
        let dir_queries = tel
            .histograms
            .get("files.dir_query_ns")
            .expect("per-directory query latency sketch");
        assert!(
            dir_queries.count() > 1,
            "one latency sample per directory walked"
        );
    }

    #[test]
    fn io_stats_are_recorded() {
        let mut m = Machine::with_base_system("t").unwrap();
        let ctx = gb_ctx(&mut m);
        let s = FileScanner::new();
        let high = s.high_scan(&m, &ctx, ChainEntry::Win32).unwrap();
        assert!(high.meta.io.api_calls > 5, "one call per directory");
        let low = s.low_scan(&m).unwrap();
        assert!(low.meta.io.bytes_read > 1000, "sequential image read");
    }
}
