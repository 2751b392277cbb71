//! Hidden-ASEP and hidden-Registry detection (paper, Section 3).

use crate::diff::cross_view_diff;
use crate::harden::{registry_scan_decoys, DecoyPump, PassCounter, TruthMemo};
use crate::instrument::{
    query_chain, record_chain, record_decoys, record_truth, record_view_entries, LatencyProbe,
};
use crate::policy::{interrupt_status, ScanPolicy};
use crate::report::{Detection, DiffReport, NoiseClass, ResourceKind};
use crate::snapshot::{HookFact, ScanMeta, Snapshot, ViewKind};
use std::cell::RefCell;
use std::rc::Rc;
use strider_hive::prelude::{AsepHook, AsepLocation, KeyView, ViewedValue};
use strider_hive::{asep, RawHive};
use strider_nt_core::{IoStats, NtPath, NtStatus, NtString};
use strider_support::obs::Telemetry;
use strider_support::task::Supervision;
use strider_winapi::{CallContext, ChainEntry, ChainStats, DiskImage, Machine, Query, Row};

/// How the outside-the-box Registry scan reads the hive files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutsideRegistryMode {
    /// Mount the hive files under the clean OS and scan with the ordinary
    /// Win32 APIs (the paper's flow): corrupt records and NUL-embedded names
    /// are invisible here too.
    MountedWin32,
    /// Parse the raw bytes with the forensic parser: everything visible.
    RawParse,
}

/// A [`KeyView`] over the machine's live query chain — the high-level scan.
struct ApiKeyView<'a> {
    machine: &'a Machine,
    ctx: &'a CallContext,
    entry: ChainEntry,
    path: NtPath,
    io: Rc<RefCell<IoStats>>,
    chain: Rc<RefCell<ChainStats>>,
    pump: Option<Rc<RefCell<DecoyPump>>>,
}

impl<'a> ApiKeyView<'a> {
    fn query(&self, query: Query) -> Vec<Row> {
        let mut io = self.io.borrow_mut();
        io.record_api_call();
        let rows = query_chain(
            self.machine,
            self.ctx,
            &query,
            self.entry,
            &mut self.chain.borrow_mut(),
        )
        .unwrap_or_default();
        io.record_entries(rows.len() as u64);
        drop(io);
        if let Some(pump) = &self.pump {
            pump.borrow_mut().tick(self.machine, self.ctx);
        }
        rows
    }
}

impl<'a> KeyView for ApiKeyView<'a> {
    fn subkey(&self, name: &NtString) -> Option<Self> {
        self.subkeys()
            .into_iter()
            .find(|(n, _)| n.eq_ignore_case(name))
            .map(|(_, v)| v)
    }

    fn subkeys(&self) -> Vec<(NtString, Self)> {
        self.query(Query::RegEnumKeys {
            key: self.path.clone(),
        })
        .into_iter()
        .filter_map(|row| match row {
            Row::RegKey(k) => Some((
                k.name.clone(),
                ApiKeyView {
                    machine: self.machine,
                    ctx: self.ctx,
                    entry: self.entry,
                    path: self.path.join(k.name),
                    io: Rc::clone(&self.io),
                    chain: Rc::clone(&self.chain),
                    pump: self.pump.clone(),
                },
            )),
            _ => None,
        })
        .collect()
    }

    fn values(&self) -> Vec<ViewedValue> {
        self.query(Query::RegEnumValues {
            key: self.path.clone(),
        })
        .into_iter()
        .filter_map(|row| match row {
            Row::RegValue(v) => Some(ViewedValue {
                name: v.name,
                target: v.data,
                corrupt: false,
            }),
            _ => None,
        })
        .collect()
    }

    fn render_name(&self, name: &NtString) -> String {
        match self.entry {
            ChainEntry::Win32 => name.to_win32_lossy(),
            ChainEntry::Native => name.to_display_string(),
        }
    }
}

/// A Win32 lens over raw parsed hives: what mounting the files under a clean
/// OS shows (corrupt records dropped, names truncated at `NUL`s).
struct Win32OverRaw<'a>(asep::RawKeyView<'a>);

impl<'a> KeyView for Win32OverRaw<'a> {
    fn subkey(&self, name: &NtString) -> Option<Self> {
        self.0.subkey(name).map(Win32OverRaw)
    }

    fn subkeys(&self) -> Vec<(NtString, Self)> {
        self.0
            .subkeys()
            .into_iter()
            .map(|(n, v)| (n, Win32OverRaw(v)))
            .collect()
    }

    fn values(&self) -> Vec<ViewedValue> {
        self.0.values().into_iter().filter(|v| !v.corrupt).collect()
    }

    fn render_name(&self, name: &NtString) -> String {
        name.to_win32_lossy()
    }
}

/// The hidden-ASEP scanner.
#[derive(Debug, Clone)]
pub struct RegistryScanner {
    catalog: Vec<AsepLocation>,
    telemetry: Telemetry,
    policy: ScanPolicy,
    supervision: Supervision,
    pass_counter: PassCounter,
    truth_memo: TruthMemo<(NtPath, Vec<u8>), HookFact>,
}

impl Default for RegistryScanner {
    fn default() -> Self {
        Self {
            catalog: asep::catalog(),
            telemetry: Telemetry::off(),
            policy: ScanPolicy::default(),
            supervision: Supervision::unsupervised(),
            pass_counter: PassCounter::default(),
            truth_memo: TruthMemo::default(),
        }
    }
}

impl RegistryScanner {
    /// Creates a scanner over the standard ASEP catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Threads a telemetry registry through every scan: per-phase spans,
    /// per-view entry counters, and chain-divergence attribution.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Replaces the resilience policy: retries for transient hive-copy
    /// failures, and salvage-mode parsing of damaged hive bytes (skipped
    /// bins are recorded as defects in the scan's
    /// [`IoStats`] and, when telemetry is attached, the `registry.defects`
    /// counter).
    pub fn with_policy(mut self, policy: ScanPolicy) -> Self {
        self.policy = policy;
        // A kept truth was parsed under the old policy.
        self.truth_memo = TruthMemo::default();
        self
    }

    /// Places the scanner under `supervision`: each per-hive copy/parse
    /// iteration and phase boundary checks the cancellation token and
    /// deadline, and stalled ([`NtStatus::Pending`]) hive copies are
    /// abandoned when supervision interrupts. The default is
    /// [`Supervision::unsupervised`] — never interrupted.
    pub fn with_supervision(mut self, supervision: Supervision) -> Self {
        self.supervision = supervision;
        // A re-supervised scanner starts a fresh pipeline run; see
        // `harden::PassCounter`. The truth memo belongs to one run too.
        self.pass_counter = PassCounter::default();
        self.truth_memo = TruthMemo::default();
        self
    }

    /// The catalog in use.
    pub fn catalog(&self) -> &[AsepLocation] {
        &self.catalog
    }

    /// The high-level scan: extract every ASEP hook through the (possibly
    /// hooked) Registry enumeration APIs.
    pub fn high_scan(
        &self,
        machine: &Machine,
        ctx: &CallContext,
        entry: ChainEntry,
    ) -> Snapshot<HookFact> {
        let view = ViewKind::high_level(entry);
        let span = self.telemetry.span("registry.high_scan");
        let latency = LatencyProbe::new(&self.telemetry, "registry.key_probe_ns");
        let io = Rc::new(RefCell::new(IoStats::default()));
        let chain = Rc::new(RefCell::new(ChainStats::default()));
        // Hardened scans probe the ASEP catalog in a per-pass shuffled
        // order and interleave non-Registry decoy queries, so probe runs
        // neither enumerate predictably nor form same-kind bursts.
        let mut catalog = self.catalog.clone();
        let pump = self.policy.hardening.map(|h| {
            h.pass_stream("registry", self.pass_counter.next())
                .shuffle(&mut catalog);
            Rc::new(RefCell::new(DecoyPump::new(
                h.decoy_every,
                registry_scan_decoys(machine.volume().label()),
            )))
        });
        let hooks = asep::extract_hooks_with(
            |path| {
                // The key must be enumerable for the view to exist.
                let probe = Query::RegEnumValues { key: path.clone() };
                let probe_started = latency.start();
                let reachable =
                    query_chain(machine, ctx, &probe, entry, &mut chain.borrow_mut()).is_ok();
                latency.finish(probe_started);
                if let Some(pump) = &pump {
                    pump.borrow_mut().tick(machine, ctx);
                }
                reachable.then(|| ApiKeyView {
                    machine,
                    ctx,
                    entry,
                    path: path.clone(),
                    io: Rc::clone(&io),
                    chain: Rc::clone(&chain),
                    pump: pump.clone(),
                })
            },
            &catalog,
        );
        let mut meta = ScanMeta::new(view, machine.now());
        meta.io = *io.borrow();
        let snap = hook_snapshot(meta, hooks);
        record_view_entries(&self.telemetry, &span, "registry", &snap);
        if let Some(pump) = &pump {
            record_decoys(&self.telemetry, "registry", pump.borrow().issued());
        }
        span.set_attr("api_calls", snap.meta.io.api_calls);
        record_chain(&span, &chain.borrow());
        snap
    }

    /// Parses one `(mount, bytes)` hive copy per the policy: the one parse
    /// behind every hive-parsing scan. Its stats count the copy as one
    /// sequential read and hold its salvage defects.
    fn parse_hive(
        &self,
        (mount, bytes): &(NtPath, Vec<u8>),
    ) -> Result<(IoStats, (NtPath, RawHive)), NtStatus> {
        let (raw, defects) =
            (self.policy).parse_image(bytes, RawHive::parse, RawHive::parse_salvage)?;
        let mut io = IoStats::default();
        io.record_sequential(bytes.len() as u64);
        io.record_defects(defects);
        Ok((io, (mount.clone(), raw)))
    }

    /// Copies each mounted hive from inside the box, checking the
    /// supervision first and retrying transient failures per the policy.
    fn copied_hives<'a>(
        &'a self,
        machine: &'a Machine,
    ) -> impl Iterator<Item = Result<(NtPath, Vec<u8>), NtStatus>> + 'a {
        machine.registry().hives().iter().map(move |hive| {
            self.supervision.checkpoint().map_err(interrupt_status)?;
            let mount = hive.mount().clone();
            let copy = || machine.try_copy_hive_bytes(&mount);
            let bytes = self.policy.supervised_retry(&self.supervision, copy)?;
            Ok((mount, bytes))
        })
    }

    /// The low-level inside-the-box scan: copy each hive's bytes (a step
    /// privileged ghostware may tamper with) and parse them with the
    /// forensic parser.
    ///
    /// Every call copies every hive, and each `(mount, bytes)` copy is one
    /// part of the scanner's truth reader. Under a single-pass policy each
    /// copy is parsed as it arrives and released once parsed. Under a
    /// policy that scans more than once per pipeline run, the copies and
    /// the snapshot are kept until the next call, whose copies that equal
    /// the kept ones wait unparsed: if all of them repeat, the call skips
    /// the parse and returns the kept snapshot with its own time (its span
    /// carries `truth_reused`); at the first copy that differs it lets go
    /// of the kept truth, then parses the waiting copies and each later
    /// one on arrival, so a strict parse failure still stops the copies at
    /// the bad hive.
    ///
    /// The scan peaks during the parse of the largest hive, not at the
    /// copies: a strict scan of the 30k-file workload peaks at 5,263,034
    /// heap bytes for 1,189,846 B of hive copies (4.42 per byte).
    ///
    /// # Errors
    ///
    /// Fails when a hive copy fails permanently (transient failures are
    /// retried per the [`ScanPolicy`]) or does not parse with salvage off.
    pub fn low_scan(&self, machine: &Machine) -> Result<Snapshot<HookFact>, NtStatus> {
        let span = self.telemetry.span("registry.low_scan");
        let taken_at = machine.now();
        let (snap, reused) = self.truth_memo.read(
            self.policy.repeats_passes(),
            taken_at,
            self.copied_hives(machine),
            |copy| self.parse_hive(copy),
            |parsed| {
                let mut meta = ScanMeta::new(ViewKind::LowLevelHiveParse, taken_at);
                let hooks = asep::extract_raw(&merged(&mut meta.io, parsed), &self.catalog);
                meta.io.record_entries(hooks.len() as u64);
                hook_snapshot(meta, hooks)
            },
        )?;
        record_truth(&self.telemetry, &span, "registry", &snap, reused);
        Ok(snap)
    }

    /// The outside-the-box scan over a captured disk image.
    ///
    /// # Errors
    ///
    /// Fails when a hive image does not parse.
    pub fn outside_scan(
        &self,
        image: &DiskImage,
        mode: OutsideRegistryMode,
    ) -> Result<Snapshot<HookFact>, NtStatus> {
        let span = self.telemetry.span("registry.outside_scan");
        let view = match mode {
            OutsideRegistryMode::RawParse => ViewKind::OutsideDisk,
            OutsideRegistryMode::MountedWin32 => ViewKind::OutsideMountedHives,
        };
        let mut meta = ScanMeta::new(view, image.taken_at);
        let parsed = (image.hives.iter()).map(|copy| self.parse_hive(copy));
        let parsed = merged(&mut meta.io, parsed.collect::<Result<_, _>>()?);
        let hooks = match mode {
            OutsideRegistryMode::RawParse => asep::extract_raw(&parsed, &self.catalog),
            OutsideRegistryMode::MountedWin32 => asep::extract_hooks_with(
                |path| asep::raw_key(&parsed, path).map(|k| Win32OverRaw(asep::RawKeyView(k))),
                &self.catalog,
            ),
        };
        let snap = hook_snapshot(meta, hooks);
        record_truth(&self.telemetry, &span, "registry", &snap, false);
        Ok(snap)
    }

    /// Diffs hook snapshots, classifying corrupt-record findings as the
    /// paper's Registry false positive.
    pub fn diff(&self, truth: &Snapshot<HookFact>, lie: &Snapshot<HookFact>) -> DiffReport {
        let span = self.telemetry.span("registry.diff");
        let mut report = {
            let _cross = self.telemetry.span("registry.cross_view_diff");
            cross_view_diff(truth, lie, |key, hook: &AsepHook| Detection {
                kind: ResourceKind::AsepHook,
                identity: key.to_string(),
                detail: hook.to_string(),
                category: None,
                noise: NoiseClass::Suspicious,
            })
        };
        {
            let _noise = self.telemetry.span("registry.noise_classification");
            for detection in &mut report.detections {
                let corrupt = truth
                    .get(&detection.identity)
                    .is_some_and(|hook: &AsepHook| hook.corrupt);
                if corrupt {
                    detection.noise = NoiseClass::LikelyCorruption;
                }
            }
        }
        span.set_attr("hidden", report.net_detections().len());
        span.set_attr("noise", report.noise_detections().len());
        report
    }

    /// One-call inside-the-box hidden-ASEP detection.
    ///
    /// # Errors
    ///
    /// Propagates scan failures.
    pub fn scan_inside(
        &self,
        machine: &Machine,
        ctx: &CallContext,
    ) -> Result<DiffReport, NtStatus> {
        let _span = self.telemetry.span("registry.scan_inside");
        let lie = self.high_scan(machine, ctx, ChainEntry::Win32);
        self.supervision.checkpoint().map_err(interrupt_status)?;
        let truth = self.low_scan(machine)?;
        Ok(self.diff(&truth, &lie))
    }

    // ------------------------------------------------------------------
    // Full-tree scans: hidden keys/values anywhere, not just ASEPs
    // ------------------------------------------------------------------

    /// The full-tree high-level scan: every key and value in every hive,
    /// enumerated through the API chain. Slower than the ASEP scan (the
    /// paper's 18–63 s vs minutes trade-off) but catches hiding outside
    /// the auto-start catalog.
    fn full_high_scan(
        &self,
        machine: &Machine,
        ctx: &CallContext,
        entry: ChainEntry,
    ) -> Snapshot<String> {
        let view = ViewKind::high_level(entry);
        let span = self.telemetry.span("registry.full_high_scan");
        let io = Rc::new(RefCell::new(IoStats::default()));
        let chain = Rc::new(RefCell::new(ChainStats::default()));
        let mut meta = ScanMeta::new(view, machine.now());
        let mut facts = Vec::new();
        for hive in machine.registry().hives() {
            let root = ApiKeyView {
                machine,
                ctx,
                entry,
                path: hive.mount().clone(),
                io: Rc::clone(&io),
                chain: chain.clone(),
                pump: None,
            };
            walk_key_view(
                &root,
                &hive.mount().to_string().to_ascii_lowercase(),
                &mut meta.io,
                &mut facts,
            );
        }
        // The API views' own call and row counts replace the walk's key count.
        meta.io = *io.borrow();
        let snap = Snapshot::from_facts(meta, facts);
        record_view_entries(&self.telemetry, &span, "registry", &snap);
        span.set_attr("api_calls", snap.meta.io.api_calls);
        record_chain(&span, &chain.borrow());
        snap
    }

    /// The full-tree low-level scan over copied hive bytes.
    ///
    /// # Errors
    ///
    /// Fails when a hive copy does not parse.
    fn full_low_scan(&self, machine: &Machine) -> Result<Snapshot<String>, NtStatus> {
        let span = self.telemetry.span("registry.full_low_scan");
        let mut meta = ScanMeta::new(ViewKind::LowLevelHiveParse, machine.now());
        let mut facts = Vec::new();
        for copy in self.copied_hives(machine) {
            let (io, (mount, raw)) = self.parse_hive(&copy?)?;
            meta.io.merge(&io);
            let path_key = mount.to_string().to_ascii_lowercase();
            walk_key_view(
                &asep::RawKeyView(raw.root()),
                &path_key,
                &mut meta.io,
                &mut facts,
            );
        }
        let snap = Snapshot::from_facts(meta, facts);
        record_truth(&self.telemetry, &span, "registry", &snap, false);
        Ok(snap)
    }

    /// Diffs full-tree snapshots into a report.
    fn diff_full(&self, truth: &Snapshot<String>, lie: &Snapshot<String>) -> DiffReport {
        let span = self.telemetry.span("registry.diff");
        let report = cross_view_diff(truth, lie, |key, display: &String| Detection {
            kind: ResourceKind::AsepHook,
            identity: key.to_string(),
            detail: display.clone(),
            category: None,
            noise: NoiseClass::Suspicious,
        });
        span.set_attr("hidden", report.net_detections().len());
        span.set_attr("noise", report.noise_detections().len());
        report
    }

    /// One-call inside-the-box full-Registry hidden-key/value detection.
    ///
    /// # Errors
    ///
    /// Propagates scan failures.
    pub fn scan_full_inside(
        &self,
        machine: &Machine,
        ctx: &CallContext,
    ) -> Result<DiffReport, NtStatus> {
        let _span = self.telemetry.span("registry.scan_inside");
        let lie = self.full_high_scan(machine, ctx, ChainEntry::Win32);
        let truth = self.full_low_scan(machine)?;
        Ok(self.diff_full(&truth, &lie))
    }
}

/// The hives of per-hive parses, with each parse's stats merged into `io`.
fn merged(io: &mut IoStats, parsed: Vec<(IoStats, (NtPath, RawHive))>) -> Vec<(NtPath, RawHive)> {
    let merge = |(stats, hive)| {
        io.merge(&stats);
        hive
    };
    parsed.into_iter().map(merge).collect()
}

/// A hook snapshot holding each hook under its identity.
fn hook_snapshot(meta: ScanMeta, hooks: Vec<AsepHook>) -> Snapshot<HookFact> {
    let mut snap = Snapshot::new(meta);
    for hook in hooks {
        snap.insert(hook.identity(), hook);
    }
    snap
}

/// Walks a [`KeyView`] tree, collecting one fact per key and per value and
/// counting each key visited in `io`.
fn walk_key_view<V: KeyView>(
    view: &V,
    path_key: &str,
    io: &mut IoStats,
    facts: &mut Vec<(String, String)>,
) {
    io.record_entries(1);
    for value in view.values() {
        let rendered = view.render_name(&value.name);
        facts.push((
            format!(
                "val:{path_key}|{}|{}",
                rendered.to_ascii_lowercase(),
                value.target.to_ascii_lowercase()
            ),
            format!("{path_key}\\{rendered} = {}", value.target),
        ));
    }
    for (name, sub) in view.subkeys() {
        let rendered = view.render_name(&name);
        let child_key = format!("{path_key}\\{}", rendered.to_ascii_lowercase());
        facts.push((format!("key:{child_key}"), child_key.clone()));
        walk_key_view(&sub, &child_key, io, facts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strider_ghostware::{Ghostware, HackerDefender, ProBotSe, Urbin, Vanquish};
    use strider_hive::{Value, ValueData};

    fn gb_ctx(machine: &mut Machine) -> CallContext {
        machine
            .ensure_process("ghostbuster.exe", "C:\\ghostbuster.exe")
            .unwrap()
    }

    #[test]
    fn clean_machine_has_zero_hook_findings() {
        let mut m = Machine::with_base_system("clean").unwrap();
        let ctx = gb_ctx(&mut m);
        let report = RegistryScanner::new().scan_inside(&m, &ctx).unwrap();
        assert!(!report.has_detections(), "{report}");
    }

    #[test]
    fn hxdef_service_hooks_detected() {
        let mut m = Machine::with_base_system("victim").unwrap();
        HackerDefender::default().infect(&mut m).unwrap();
        let ctx = gb_ctx(&mut m);
        let report = RegistryScanner::new().scan_inside(&m, &ctx).unwrap();
        let details: Vec<&str> = report
            .net_detections()
            .iter()
            .map(|d| d.detail.as_str())
            .collect();
        assert!(details.iter().any(|d| d.contains("HackerDefender100")));
        assert!(details.iter().any(|d| d.contains("HackerDefenderDrv100")));
    }

    #[test]
    fn urbin_appinit_scrub_detected() {
        let mut m = Machine::with_base_system("victim").unwrap();
        Urbin.infect(&mut m).unwrap();
        let ctx = gb_ctx(&mut m);
        let report = RegistryScanner::new().scan_inside(&m, &ctx).unwrap();
        assert!(report
            .net_detections()
            .iter()
            .any(|d| d.detail.contains("msvsres.dll")));
    }

    #[test]
    fn probot_three_hooks_detected() {
        let mut m = Machine::with_base_system("victim").unwrap();
        let inf = ProBotSe::default().infect(&mut m).unwrap();
        let ctx = gb_ctx(&mut m);
        let report = RegistryScanner::new().scan_inside(&m, &ctx).unwrap();
        assert_eq!(report.net_detections().len(), inf.hidden_asep_entries.len());
    }

    #[test]
    fn vanquish_service_hook_detected() {
        let mut m = Machine::with_base_system("victim").unwrap();
        Vanquish::default().infect(&mut m).unwrap();
        let ctx = gb_ctx(&mut m);
        let report = RegistryScanner::new().scan_inside(&m, &ctx).unwrap();
        assert!(report
            .net_detections()
            .iter()
            .any(|d| d.detail.contains("vanquish.exe")));
    }

    #[test]
    fn corrupt_appinit_value_is_classified_as_corruption_fp() {
        let mut m = Machine::with_base_system("victim").unwrap();
        let win: NtPath = "HKLM\\SOFTWARE\\Microsoft\\Windows NT\\CurrentVersion\\Windows"
            .parse()
            .unwrap();
        let mut v = Value::new("AppInit_DLLs", ValueData::sz("stale-garbage.dll"));
        v.corrupt_data = true;
        m.registry_mut().set_value_raw(&win, v).unwrap();
        let ctx = gb_ctx(&mut m);
        let report = RegistryScanner::new().scan_inside(&m, &ctx).unwrap();
        assert!(report.net_detections().is_empty());
        let noise = report.noise_detections();
        assert_eq!(noise.len(), 1);
        assert_eq!(noise[0].noise, NoiseClass::LikelyCorruption);
    }

    #[test]
    fn outside_mounted_win32_matches_high_scan_on_clean_machine() {
        let mut m = Machine::with_base_system("clean").unwrap();
        let ctx = gb_ctx(&mut m);
        let s = RegistryScanner::new();
        let lie = s.high_scan(&m, &ctx, ChainEntry::Win32);
        let image = m.snapshot_disk().unwrap();
        let truth = s
            .outside_scan(&image, OutsideRegistryMode::MountedWin32)
            .unwrap();
        let report = s.diff(&truth, &lie);
        assert!(!report.has_detections(), "{report}");
        assert!(report.phantom_in_lie.is_empty());
    }

    #[test]
    fn outside_scan_detects_hxdef_hooks() {
        let mut m = Machine::with_base_system("victim").unwrap();
        HackerDefender::default().infect(&mut m).unwrap();
        let ctx = gb_ctx(&mut m);
        let s = RegistryScanner::new();
        let lie = s.high_scan(&m, &ctx, ChainEntry::Win32);
        let image = m.snapshot_disk().unwrap();
        for mode in [
            OutsideRegistryMode::MountedWin32,
            OutsideRegistryMode::RawParse,
        ] {
            let truth = s.outside_scan(&image, mode).unwrap();
            let report = s.diff(&truth, &lie);
            assert!(
                report
                    .net_detections()
                    .iter()
                    .any(|d| d.detail.contains("HackerDefender100")),
                "{mode:?}"
            );
        }
    }

    #[test]
    fn nul_name_hiding_detected_by_raw_but_not_mounted_outside() {
        let mut m = Machine::with_base_system("victim").unwrap();
        let run: NtPath = "HKLM\\SOFTWARE\\Microsoft\\Windows\\CurrentVersion\\Run"
            .parse()
            .unwrap();
        let mut units: Vec<u16> = "svc".encode_utf16().collect();
        units.push(0);
        units.extend("2".encode_utf16());
        m.registry_mut()
            .set_value_raw(
                &run,
                Value::new(NtString::from_units(&units), ValueData::sz("evil.exe")),
            )
            .unwrap();
        let ctx = gb_ctx(&mut m);
        let s = RegistryScanner::new();
        let lie = s.high_scan(&m, &ctx, ChainEntry::Win32);

        // Inside low-level raw parse sees the counted name.
        let truth = s.low_scan(&m).unwrap();
        let report = s.diff(&truth, &lie);
        assert!(report
            .net_detections()
            .iter()
            .any(|d| d.detail.contains("svc\\02") || d.detail.contains("svc\\0")));

        // Mounted-Win32 outside scan truncates identically to the lie: the
        // documented blind spot of that mode.
        let image = m.snapshot_disk().unwrap();
        let mounted = s
            .outside_scan(&image, OutsideRegistryMode::MountedWin32)
            .unwrap();
        let report = s.diff(&mounted, &lie);
        assert!(!report.has_detections());
    }

    #[test]
    fn full_scan_catches_hidden_keys_outside_the_asep_catalog() {
        let mut m = Machine::with_base_system("victim").unwrap();
        HackerDefender::default().infect(&mut m).unwrap();
        // A configuration key far from any ASEP, hidden by the same detour.
        let cfg: NtPath = "HKLM\\SOFTWARE\\HackerDefenderCfg\\Settings"
            .parse()
            .unwrap();
        m.registry_mut().create_key(&cfg).unwrap();
        let ctx = gb_ctx(&mut m);
        let s = RegistryScanner::new();
        // The ASEP scan does not cover it.
        let asep_report = s.scan_inside(&m, &ctx).unwrap();
        assert!(!asep_report
            .net_detections()
            .iter()
            .any(|d| d.detail.contains("hackerdefendercfg")));
        // The full-tree scan does.
        let full = s.scan_full_inside(&m, &ctx).unwrap();
        assert!(
            full.net_detections()
                .iter()
                .any(|d| d.detail.contains("hackerdefendercfg")),
            "{full}"
        );
    }

    #[test]
    fn full_scan_is_silent_on_clean_machines() {
        let mut m = Machine::with_base_system("clean").unwrap();
        let ctx = gb_ctx(&mut m);
        let report = RegistryScanner::new().scan_full_inside(&m, &ctx).unwrap();
        assert!(!report.has_detections(), "{report}");
        assert!(report.phantom_in_lie.is_empty());
    }

    #[test]
    fn full_scan_detects_scrubbed_value_data() {
        // Urbin leaves the AppInit value visible but scrubs its data; the
        // full scan keys on (name, data) so the mismatch surfaces.
        let mut m = Machine::with_base_system("victim").unwrap();
        Urbin.infect(&mut m).unwrap();
        let ctx = gb_ctx(&mut m);
        let report = RegistryScanner::new().scan_full_inside(&m, &ctx).unwrap();
        assert!(report
            .net_detections()
            .iter()
            .any(|d| d.detail.contains("msvsres.dll")));
    }

    #[test]
    fn telemetry_records_phases_and_divergence_level() {
        let mut m = Machine::with_base_system("victim").unwrap();
        HackerDefender::default().infect(&mut m).unwrap();
        let ctx = gb_ctx(&mut m);
        let telemetry = Telemetry::new();
        RegistryScanner::new()
            .with_telemetry(telemetry.clone())
            .scan_inside(&m, &ctx)
            .unwrap();
        let report = telemetry.report();
        let scan = report.find_span("registry.scan_inside").unwrap();
        let high = scan.child("registry.high_scan").unwrap();
        assert_eq!(
            high.attr("diverted_at").map(|a| a.to_string()),
            Some("NtdllCode".to_string()),
            "{high:?}"
        );
        assert!(scan.child("registry.low_scan").is_some());
        let diff = scan.child("registry.diff").unwrap();
        assert!(diff.child("registry.cross_view_diff").is_some());
        assert!(diff.child("registry.noise_classification").is_some());
        assert!(
            report.counters["registry.entries.LowLevelHiveParse"]
                > report.counters["registry.entries.HighLevelWin32"],
            "truth view must see the hidden service hooks"
        );
    }

    #[test]
    fn registry_io_stats_recorded() {
        let mut m = Machine::with_base_system("t").unwrap();
        let ctx = gb_ctx(&mut m);
        let s = RegistryScanner::new();
        let high = s.high_scan(&m, &ctx, ChainEntry::Win32);
        assert!(high.meta.io.api_calls > 5);
        let low = s.low_scan(&m).unwrap();
        assert!(low.meta.io.bytes_read > 100);
    }

    fn json(snap: &Snapshot<HookFact>) -> String {
        use strider_support::json::ToJson;
        snap.to_json().render()
    }

    /// The hive holding the `Run` key, which the tests below write to or
    /// corrupt: a later hive than the first, so the parse of the hives
    /// before it has waited when it turns out to differ.
    fn software() -> NtPath {
        "HKLM\\SOFTWARE".parse().unwrap()
    }

    #[test]
    fn a_repeated_truth_is_reused_and_equals_a_fresh_parse() {
        let mut m = Machine::with_base_system("victim").unwrap();
        HackerDefender::default().infect(&mut m).unwrap();
        let telemetry = Telemetry::new();
        let scanner = RegistryScanner::new()
            .with_policy(ScanPolicy::hardened())
            .with_telemetry(telemetry.clone());
        let first = scanner.low_scan(&m).unwrap();
        let second = scanner.low_scan(&m).unwrap();
        let fresh = RegistryScanner::new().low_scan(&m).unwrap();
        assert_eq!(json(&first), json(&fresh));
        assert_eq!(json(&second), json(&fresh));
        let tel = telemetry.report();
        let [parsed, reused] = &tel.spans[..] else {
            panic!("one root span per pass: {:?}", tel.spans);
        };
        assert_eq!(parsed.attr("truth_reused"), None);
        assert_eq!(reused.attrs[..reused.attrs.len() - 1], parsed.attrs[..]);
        assert_eq!(reused.attr("truth_reused"), Some(&true.into()));
        assert_eq!(
            tel.counters["registry.entries.LowLevelHiveParse"],
            2 * fresh.len() as u64
        );
    }

    #[test]
    fn a_hive_value_written_between_passes_is_parsed_again() {
        let mut m = Machine::with_base_system("t").unwrap();
        let telemetry = Telemetry::new();
        let scanner = RegistryScanner::new()
            .with_policy(ScanPolicy::hardened())
            .with_telemetry(telemetry.clone());
        let before = scanner.low_scan(&m).unwrap();
        let run: NtPath = "HKLM\\SOFTWARE\\Microsoft\\Windows\\CurrentVersion\\Run"
            .parse()
            .unwrap();
        m.registry_mut()
            .set_value(&run, "late", ValueData::sz("C:\\late.exe"))
            .unwrap();
        let after = scanner.low_scan(&m).unwrap();
        let again = scanner.low_scan(&m).unwrap();
        let late = |snap: &Snapshot<HookFact>| snap.iter().any(|(_, h)| h.target == "C:\\late.exe");
        assert!(!late(&before));
        assert!(late(&after), "no stale truth comes back");
        assert_eq!(
            json(&after),
            json(&RegistryScanner::new().low_scan(&m).unwrap())
        );
        assert_eq!(json(&again), json(&after));
        let reused: Vec<bool> = telemetry
            .report()
            .spans
            .iter()
            .map(|span| span.attr("truth_reused").is_some())
            .collect();
        assert_eq!(reused, [false, false, true]);
    }

    #[test]
    fn a_reused_salvaged_truth_reports_the_same_defects() {
        use strider_support::fault::FaultPlan;
        let mut m = Machine::with_base_system("t").unwrap();
        let len = m.try_copy_hive_bytes(&software()).unwrap().len();
        m.set_fault_injector(
            strider_winapi::FaultInjector::new()
                .corrupt_hive(software(), FaultPlan::new(7).zero_range(len / 3, 64)),
        );
        let telemetry = Telemetry::new();
        let scanner = RegistryScanner::new()
            .with_policy(ScanPolicy::hardened())
            .with_telemetry(telemetry.clone());
        let first = scanner.low_scan(&m).unwrap();
        let second = scanner.low_scan(&m).unwrap();
        let defects = first.meta.io.defects;
        assert!(defects > 0, "the corrupted hive is salvaged");
        assert_eq!(json(&first), json(&second));
        let tel = telemetry.report();
        assert_eq!(tel.counters["registry.defects"], 2 * defects);
        for span in &tel.spans {
            assert_eq!(span.attr("defects"), Some(&defects.into()));
        }
        assert!(tel.spans[1].attr("truth_reused").is_some());
    }

    #[test]
    fn a_strict_parse_failure_still_stops_the_copies_at_the_bad_hive() {
        use strider_support::fault::FaultPlan;
        // Strict parsing with stabilization: the memo is armed, and the
        // first pass keeps a clean truth. The second pass copies hives
        // whose parse waits until SOFTWARE differs; its parse fails there,
        // before any later hive is copied, exactly as without a memo.
        let mut m = Machine::with_base_system("t").unwrap();
        let policy = ScanPolicy::strict().with_stabilization(3);
        let scanner = RegistryScanner::new().with_policy(policy.clone());
        scanner.low_scan(&m).unwrap();
        let len = m.try_copy_hive_bytes(&software()).unwrap().len();
        m.set_fault_injector(
            strider_winapi::FaultInjector::new()
                .corrupt_hive(software(), FaultPlan::new(7).zero_range(len / 3, 64)),
        );
        let reads = |scanner: &RegistryScanner| {
            let before = m.scan_tap().raw_reads();
            let result = scanner.low_scan(&m);
            (
                result.map(|snap| json(&snap)),
                m.scan_tap().raw_reads() - before,
            )
        };
        let remembered = reads(&scanner);
        let fresh = reads(&RegistryScanner::new().with_policy(policy));
        assert!(matches!(remembered.0, Err(NtStatus::CorruptStructure(_))));
        assert_eq!(remembered, fresh);
    }
}
