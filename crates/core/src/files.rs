//! Hidden-file detection (paper, Section 2).

use crate::diff::cross_view_diff;
use crate::harden::{file_scan_decoys, DecoyPump, PassCounter, TruthMemo};
use crate::instrument::{
    query_chain, record_chain, record_decoys, record_truth, record_view_entries, LatencyProbe,
};
use crate::policy::{interrupt_status, ScanPolicy};
use crate::report::{Detection, DiffReport, FileCategory, NoiseClass, NoiseFilter, ResourceKind};
use crate::snapshot::{FileFact, ScanMeta, Snapshot, ViewKind};
use strider_nt_core::{
    key_order, NtPath, NtStatus, NtString, Placed, Tick, TreeSlot, NO_NODE, ROOT_PARENT,
};
use strider_ntfs::{Placement, VolumeImage};
use strider_support::obs::Telemetry;
use strider_support::task::Supervision;
use strider_winapi::{
    CallContext, ChainEntry, ChainStats, DiskImage, FileRow, Machine, PerParent, Query, Row,
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
    truth_memo: TruthMemo<Vec<u8>, FileFact>,
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
        // A kept truth was parsed under the old policy.
        self.truth_memo = TruthMemo::default();
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
        // results stay seed-deterministic however runs are scheduled. The
        // truth memo belongs to one run too.
        self.pass_counter = PassCounter::default();
        self.truth_memo = TruthMemo::default();
        self
    }

    /// Enables alternate-data-stream detection: the low-level views report
    /// each named stream as a pseudo-entry (`host.txt:stream`), which the
    /// Win32 enumeration never shows — one of the "beyond ghostware" hiding
    /// places the paper's conclusion lists as future work.
    pub fn with_ads_detection(mut self) -> Self {
        self.detect_ads = true;
        self.truth_memo = TruthMemo::default();
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
        let root = NtPath::root_of(machine.volume().label());
        let (root_key, root_display) = (root.fold_key(), root.to_display_string());
        let mut walk = Walk::default();
        let mut stack = vec![(root, Spawner::Root)];
        while let Some((dir, spawner)) = stack.pop() {
            self.supervision.checkpoint().map_err(interrupt_status)?;
            meta.io.record_api_call();
            meta.io.record_seek();
            let query = Query::DirectoryEnum { path: dir };
            let query_started = probe.start();
            let listing = query_chain(machine, ctx, &query, entry, &mut chain);
            let Query::DirectoryEnum { path: dir } = query else {
                unreachable!("the query built above")
            };
            let rows = match listing {
                Ok(rows) => rows,
                // A directory deleted mid-walk is normal churn, not an error.
                Err(NtStatus::ObjectNameNotFound) => {
                    walk.reclaim(spawner, dir);
                    continue;
                }
                Err(e) => return Err(e),
            };
            probe.finish(query_started);
            pump.tick(machine, ctx);
            meta.io.record_entries(rows.len() as u64);
            let subdirs = stack.len();
            let node = walk.node_of(spawner);
            let mut own = PerParent::default();
            for row in rows {
                if let Row::File(f) = row {
                    let listed_here = node != NO_NODE && *own.get(&f, |parent| *parent == dir);
                    stack.extend(walk.push(f, listed_here.then_some(node)));
                }
            }
            walk.reclaim(spawner, dir);
            if let Some(rng) = &mut order_rng {
                rng.shuffle(&mut stack[subdirs..]);
            }
        }
        let facts = walk.into_facts(&root_key, &root_display);
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
    /// Every call reads the whole image, the one part of the scanner's
    /// truth reader. Under a single-pass policy the bytes are released as
    /// soon as they are parsed, so the facts are rendered with one copy of
    /// the volume alive. Under a policy that scans more than once per
    /// pipeline run, the bytes and the snapshot are kept until the next
    /// call: one whose image equals them byte for byte skips the parse and
    /// returns the kept snapshot with this call's time (its span carries
    /// `truth_reused`); one whose image differs releases them before it
    /// parses.
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
        let taken_at = machine.now();
        let span = self.telemetry.span("files.low_scan");
        let (snap, reused) = self.truth_memo.read(
            self.policy.repeats_passes(),
            taken_at,
            [Ok(bytes)],
            |bytes| self.parse_volume(bytes),
            |mut parsed| self.snapshot_of(parsed.remove(0), ViewKind::LowLevelMft, taken_at),
        )?;
        record_truth(&self.telemetry, &span, "files", &snap, reused);
        Ok(snap)
    }

    /// The outside-the-box scan: parse a clean-boot disk image.
    ///
    /// # Errors
    ///
    /// Fails when the image does not parse.
    pub fn outside_scan(&self, image: &DiskImage) -> Result<Snapshot<FileFact>, NtStatus> {
        let span = self.telemetry.span("files.outside_scan");
        let parsed = self.parse_volume(&image.volume_image)?;
        let snap = self.snapshot_of(parsed, ViewKind::OutsideDisk, image.taken_at);
        record_truth(&self.telemetry, &span, "files", &snap, false);
        Ok(snap)
    }

    /// The parsed volume and its defect count, per the policy's salvage
    /// setting.
    fn parse_volume(&self, bytes: &[u8]) -> Result<(VolumeImage, u64), NtStatus> {
        (self.policy).parse_image(bytes, VolumeImage::parse, VolumeImage::parse_salvage)
    }

    /// The snapshot of a parsed volume: the entries that reach the root
    /// rendered in key order, each from its directory's rendering, then
    /// the orphans; what is not at its key's place, and the stream
    /// pseudo-entries, merged in by arrival.
    fn snapshot_of(
        &self,
        (raw, defects): (VolumeImage, u64),
        view: ViewKind,
        taken_at: Tick,
    ) -> Snapshot<FileFact> {
        let mut meta = ScanMeta::new(view, taken_at);
        meta.io.record_sequential(raw.image_len());
        meta.io.record_defects(defects);
        let Placement { tree, orphans } = raw.placement();
        let entries = raw.entries();
        let fact = |k: usize, path| FileFact {
            path,
            is_dir: entries[k].is_directory(),
            size: entries[k].data_len,
            created: Some(entries[k].created),
        };
        let root = (raw.label().to_ascii_lowercase(), raw.label());
        let name = |k: usize| &entries[k].name;
        let mut facts = render_placed(&tree, (&root.0, root.1), name, fact);
        for (k, path) in &orphans {
            facts.push((path.fold_key(), fact(*k, path.to_display_string())));
        }
        meta.io.record_entries(facts.len() as u64);
        // Fact `i`'s entry, and whether it is at its key's place.
        let entry_of = |i: usize| match tree.get(i) {
            Some(p) => (p.item as usize, p.in_key_order),
            None => (orphans[i - tree.len()].0, false),
        };
        let mut streams = Vec::new();
        if self.detect_ads {
            for (i, (key, fact)) in facts.iter().enumerate() {
                let k = entry_of(i).0;
                for (s, ads) in entries[k].ads_names.iter().enumerate() {
                    let stream = FileFact {
                        path: format!("{}:{}", fact.path, ads.to_display_string()),
                        is_dir: false,
                        size: 0,
                        created: fact.created,
                    };
                    let key = format!("{key}:{}", String::from_utf16_lossy(&ads.fold_key()));
                    streams.push((arrival(k, s), (key, stream)));
                }
            }
        }
        let facts = merge_backstop(facts, streams, |i| {
            let (k, in_key_order) = entry_of(i);
            (in_key_order, arrival(k, ITSELF))
        });
        Snapshot::from_facts(meta, facts)
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

/// Who asked for a directory listing of the high-level walk.
#[derive(Debug, Clone, Copy)]
enum Spawner {
    /// The walk itself: the volume root.
    Root,
    /// The directory row at this index of [`Walk::rows`].
    Row(u32),
    /// A directory row off the tree: its listing is rendered at once.
    Stray,
}

/// One high-level walk's rows, gathered so that they can be emitted in key
/// order once the walk is done.
///
/// A listing belongs to the tree when its directory row does and each row
/// names the listed directory as its parent. Rows of the tree land in one
/// flat buffer in arrival order; every other row (a hook's substitute with
/// a foreign parent, and everything listed under it) is rendered at once
/// from its own parent and merged in by the backstop.
#[derive(Debug)]
struct Walk {
    rows: Vec<WalkRow>,
    slots: Vec<TreeSlot>,
    /// Listings of the tree handed out so far; node 0 is the root.
    nodes: u32,
    /// Off-tree rows, each with its [`arrival`].
    strays: Vec<(u64, (String, FileFact))>,
    stray_dirs: PerParent<(String, String)>,
}

/// A row of the tree. A directory's name travels in its listing's query
/// path while the listing is pending, and comes back when it is listed.
#[derive(Debug)]
struct WalkRow {
    name: NtString,
    is_dir: bool,
    size: u64,
}

impl Default for Walk {
    fn default() -> Self {
        Self {
            rows: Vec::new(),
            slots: Vec::new(),
            nodes: 1,
            strays: Vec::new(),
            stray_dirs: PerParent::default(),
        }
    }
}

impl Walk {
    /// The tree node of the listing `spawner` asked for.
    fn node_of(&self, spawner: Spawner) -> u32 {
        match spawner {
            Spawner::Root => 0,
            Spawner::Row(i) => self.slots[i as usize].heads,
            Spawner::Stray => NO_NODE,
        }
    }

    /// Takes one listed row, in tree `node` if it belongs to the tree,
    /// returning the listing to query next if it is a directory.
    fn push(&mut self, row: FileRow, node: Option<u32>) -> Option<(NtPath, Spawner)> {
        let Some(node) = node else {
            // After the tree rows so far, and after the strays before it.
            let arrival = arrival(self.rows.len(), self.strays.len());
            let (dir_key, dir_display) = self
                .stray_dirs
                .get(&row, |dir| (dir.fold_key(), dir.to_display_string()));
            let (key, path) = row.name.render_under(dir_key, dir_display);
            let fact = FileFact {
                path,
                is_dir: row.is_dir,
                size: row.size,
                created: None,
            };
            self.strays.push((arrival, (key, fact)));
            return row
                .is_dir
                .then(|| (row.parent.join(row.name), Spawner::Stray));
        };
        let FileRow {
            name,
            parent,
            is_dir,
            size,
            ..
        } = row;
        let index = self.rows.len() as u32;
        let heads = if is_dir {
            self.nodes += 1;
            self.nodes - 1
        } else {
            NO_NODE
        };
        self.slots.push(TreeSlot { node, heads });
        let (name, subdir) = if is_dir {
            (
                NtString::new(),
                Some((parent.join(name), Spawner::Row(index))),
            )
        } else {
            (name, None)
        };
        self.rows.push(WalkRow { name, is_dir, size });
        subdir
    }

    /// Gives the directory row that `spawner` names its name back from the
    /// listing's query path.
    fn reclaim(&mut self, spawner: Spawner, mut dir: NtPath) {
        if let Spawner::Row(i) = spawner {
            self.rows[i as usize].name = dir.pop().expect("a listed directory has a name");
        }
    }

    /// The walk's facts in key order: the tree emitted with [`key_order`],
    /// each row rendered from its directory's rendering, and the rest merged
    /// in by arrival.
    fn into_facts(self, root_key: &str, root_display: &str) -> Vec<(String, FileFact)> {
        let rows = &self.rows;
        let placed = key_order(self.nodes as usize, &self.slots, |i| rows[i].name.units());
        let fact = |i: usize, path| FileFact {
            path,
            is_dir: rows[i].is_dir,
            size: rows[i].size,
            created: None,
        };
        let facts = render_placed(&placed, (root_key, root_display), |i| &rows[i].name, fact);
        merge_backstop(facts, self.strays, |k| {
            let p = placed[k];
            (p.in_key_order, arrival(p.item as usize, ITSELF))
        })
    }
}

/// The one render loop of both file views: the items of a tree in the
/// order [`key_order`] `placed` them, each named `name(item)` and rendered
/// from its directory's rendering (or the root's), its fact built by
/// `fact(item, display)`.
fn render_placed<'a>(
    placed: &[Placed],
    (root_key, root_display): (&str, &str),
    name: impl Fn(usize) -> &'a NtString,
    fact: impl Fn(usize, String) -> FileFact,
) -> Vec<(String, FileFact)> {
    let mut facts: Vec<(String, FileFact)> = Vec::with_capacity(placed.len());
    for p in placed {
        let item = p.item as usize;
        let (key, display) = match p.parent {
            ROOT_PARENT => name(item).render_under(root_key, root_display),
            at => {
                let (dir_key, dir) = &facts[at as usize];
                name(item).render_under(dir_key, &dir.path)
            }
        };
        facts.push((key, fact(item, display)));
    }
    facts
}

/// A fact's arrival order, as the backstop compares it: by `index`, then
/// by `sub`, where `sub` = [`ITSELF`] is the entry or row itself. An MFT
/// entry's stream pseudo-entries (`sub` = stream number) arrive before the
/// entry; in the high-level walk, stray `sub` arrives after `index` tree
/// rows.
fn arrival(index: usize, sub: usize) -> u64 {
    ((index as u64) << 32) | sub as u64
}

/// The `sub` of an entry or row itself in [`arrival`].
const ITSELF: usize = u32::MAX as usize;

/// Merges facts emitted in key order with the `side` facts that could not
/// be, so that the result is sorted by key and, among equal keys, by
/// arrival: [`Snapshot::from_facts`] then finds one sorted run, and its
/// last-arrival-wins rule picks what it would have picked from the facts
/// in arrival order. `placed(k)` says whether emitted fact `k` is at its
/// key's place, and its arrival; one that is not joins `side`.
fn merge_backstop(
    emitted: Vec<(String, FileFact)>,
    side: Vec<(u64, (String, FileFact))>,
    placed: impl Fn(usize) -> (bool, u64),
) -> Vec<(String, FileFact)> {
    let merged = if side.is_empty() && (0..emitted.len()).all(|k| placed(k).0) {
        emitted
    } else {
        merge_by_arrival(emitted, side, placed)
    };
    debug_assert!(
        merged.windows(2).all(|pair| pair[0].0 <= pair[1].0),
        "key-order emission left facts out of order"
    );
    merged
}

fn merge_by_arrival(
    emitted: Vec<(String, FileFact)>,
    mut side: Vec<(u64, (String, FileFact))>,
    placed: impl Fn(usize) -> (bool, u64),
) -> Vec<(String, FileFact)> {
    let mut main = Vec::with_capacity(emitted.len());
    for (k, fact) in emitted.into_iter().enumerate() {
        match placed(k) {
            (true, arrival) => main.push((arrival, fact)),
            (false, arrival) => side.push((arrival, fact)),
        }
    }
    side.sort_unstable_by(|(a, x), (b, y)| x.0.cmp(&y.0).then(a.cmp(b)));
    let mut merged = Vec::with_capacity(main.len() + side.len());
    let mut side = side.into_iter().peekable();
    for (arrival, fact) in main {
        while let Some((_, earlier)) =
            side.next_if(|(a, other)| (&other.0, *a) < (&fact.0, arrival))
        {
            merged.push(earlier);
        }
        merged.push(fact);
    }
    merged.extend(side.map(|(_, fact)| fact));
    merged
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

    /// Low-level scans of `machine` by one hardened scanner, with the
    /// root span each scan opened.
    fn hardened_low_scans(
        machine: &Machine,
        passes: usize,
    ) -> (
        Vec<Snapshot<FileFact>>,
        strider_support::obs::TelemetryReport,
    ) {
        let telemetry = Telemetry::new();
        let scanner = FileScanner::new()
            .with_policy(ScanPolicy::hardened())
            .with_telemetry(telemetry.clone());
        let snaps = (0..passes)
            .map(|_| scanner.low_scan(machine).unwrap())
            .collect();
        (snaps, telemetry.report())
    }

    fn json(snap: &Snapshot<FileFact>) -> String {
        use strider_support::json::ToJson;
        snap.to_json().render()
    }

    #[test]
    fn a_repeated_truth_is_reused_and_equals_a_fresh_parse() {
        let mut m = Machine::with_base_system("victim").unwrap();
        HackerDefender::default().infect(&mut m).unwrap();
        let (snaps, tel) = hardened_low_scans(&m, 2);
        let fresh = FileScanner::new()
            .with_policy(ScanPolicy::hardened())
            .low_scan(&m)
            .unwrap();
        assert_eq!(json(&snaps[0]), json(&fresh));
        assert_eq!(json(&snaps[1]), json(&fresh));
        let [parsed, reused] = &tel.spans[..] else {
            panic!("one root span per pass: {:?}", tel.spans);
        };
        assert_eq!(parsed.attr("truth_reused"), None);
        assert_eq!(reused.attrs[..reused.attrs.len() - 1], parsed.attrs[..]);
        assert_eq!(
            reused.attrs.last(),
            Some(&("truth_reused".to_string(), true.into()))
        );
        assert_eq!(
            tel.counters["files.entries.LowLevelMft"],
            2 * fresh.len() as u64
        );
    }

    #[test]
    fn a_reused_truth_carries_its_own_pass_time() {
        let mut m = Machine::with_base_system("t").unwrap();
        let scanner = FileScanner::new().with_policy(ScanPolicy::hardened());
        let first = scanner.low_scan(&m).unwrap();
        m.tick(5);
        let second = scanner.low_scan(&m).unwrap();
        assert_eq!(second.meta.taken_at, m.now());
        assert_ne!(second.meta.taken_at, first.meta.taken_at);
        let fresh = FileScanner::new().low_scan(&m).unwrap();
        assert_eq!(json(&second), json(&fresh));
    }

    #[test]
    fn a_file_created_between_passes_is_parsed_again() {
        let mut m = Machine::with_base_system("t").unwrap();
        let telemetry = Telemetry::new();
        let scanner = FileScanner::new()
            .with_policy(ScanPolicy::hardened())
            .with_telemetry(telemetry.clone());
        let before = scanner.low_scan(&m).unwrap();
        m.volume_mut()
            .create_file(&"C:\\late.txt".parse().unwrap(), b"x")
            .unwrap();
        let after = scanner.low_scan(&m).unwrap();
        let again = scanner.low_scan(&m).unwrap();
        assert!(!before.contains("c:\\late.txt"));
        assert!(after.contains("c:\\late.txt"), "no stale truth comes back");
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
        m.set_fault_injector(
            strider_winapi::FaultInjector::new().corrupt_volume(FaultPlan::new(3).truncate_to(0.9)),
        );
        let (snaps, tel) = hardened_low_scans(&m, 2);
        let defects = snaps[0].meta.io.defects;
        assert!(defects > 0, "the corrupted image is salvaged");
        assert_eq!(json(&snaps[0]), json(&snaps[1]));
        assert_eq!(tel.counters["files.defects"], 2 * defects);
        for span in &tel.spans {
            assert_eq!(span.attr("defects"), Some(&defects.into()));
        }
        assert!(tel.spans[1].attr("truth_reused").is_some());
    }

    #[test]
    fn a_single_pass_policy_or_a_new_run_keeps_nothing() {
        let m = Machine::with_base_system("t").unwrap();
        let telemetry = Telemetry::new();
        let strict = FileScanner::new().with_telemetry(telemetry.clone());
        strict.low_scan(&m).unwrap();
        strict.low_scan(&m).unwrap();
        let hardened = strict.with_policy(ScanPolicy::hardened());
        hardened.low_scan(&m).unwrap();
        let rerun = hardened.with_supervision(Supervision::unsupervised());
        rerun.low_scan(&m).unwrap();
        let report = telemetry.report();
        assert_eq!(report.spans.len(), 4);
        assert!(report
            .spans
            .iter()
            .all(|span| span.attr("truth_reused").is_none()));
    }

    // -----------------------------------------------------------------
    // Key-order emission equals the render-then-sort reference
    // -----------------------------------------------------------------

    use std::sync::{Arc, Mutex};
    use strider_support::check::{check, Config};
    use strider_support::prop_assert_eq;
    use strider_winapi::{HookScope, QueryKind};

    /// The render-then-sort high scan that key-order emission replaced:
    /// each row rendered from its own parent as it arrives, then sorted.
    fn reference_high_scan(
        s: &FileScanner,
        machine: &Machine,
        ctx: &CallContext,
        entry: ChainEntry,
    ) -> Result<Snapshot<FileFact>, NtStatus> {
        let mut chain = ChainStats::default();
        let mut meta = ScanMeta::new(ViewKind::high_level(entry), machine.now());
        let mut facts = Vec::new();
        let mut order_rng =
            (s.policy.hardening).map(|h| h.pass_stream("files", s.pass_counter.next()));
        let mut pump = match s.policy.hardening {
            Some(h) => DecoyPump::new(h.decoy_every, file_scan_decoys()),
            None => DecoyPump::disabled(),
        };
        let mut stack = vec![NtPath::root_of(machine.volume().label())];
        let mut listed = PerParent::default();
        while let Some(dir) = stack.pop() {
            meta.io.record_api_call();
            meta.io.record_seek();
            let query = Query::DirectoryEnum { path: dir };
            let rows = match query_chain(machine, ctx, &query, entry, &mut chain) {
                Ok(rows) => rows,
                Err(NtStatus::ObjectNameNotFound) => continue,
                Err(e) => return Err(e),
            };
            pump.tick(machine, ctx);
            meta.io.record_entries(rows.len() as u64);
            let subdirs = stack.len();
            for row in rows {
                if let Row::File(f) = row {
                    let (dir_key, dir_display) =
                        listed.get(&f, |dir| (dir.fold_key(), dir.to_display_string()));
                    let (key, path) = f.name.render_under(dir_key, dir_display);
                    let fact = FileFact {
                        path,
                        is_dir: f.is_dir,
                        size: f.size,
                        created: None,
                    };
                    facts.push((key, fact));
                    if f.is_dir {
                        stack.push(f.parent.join(f.name));
                    }
                }
            }
            if let Some(rng) = &mut order_rng {
                rng.shuffle(&mut stack[subdirs..]);
            }
        }
        Ok(Snapshot::from_facts(meta, facts))
    }

    /// The render-then-sort MFT parse: every entry's
    /// [`VolumeImage::all_paths`] path, in entry order, then sorted.
    fn reference_parse(s: &FileScanner, bytes: &[u8]) -> Result<Snapshot<FileFact>, NtStatus> {
        let (raw, defects) = s.parse_volume(bytes)?;
        let mut meta = ScanMeta::new(ViewKind::OutsideDisk, Tick(9));
        meta.io.record_sequential(raw.image_len());
        meta.io.record_defects(defects);
        let mut facts = Vec::new();
        for (path, entry) in raw.all_paths() {
            let (key, display) = (path.fold_key(), path.to_display_string());
            meta.io.record_entries(1);
            if s.detect_ads {
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
            let fact = FileFact {
                path: display,
                is_dir: entry.is_directory(),
                size: entry.data_len,
                created: Some(entry.created),
            };
            facts.push((key, fact));
        }
        Ok(Snapshot::from_facts(meta, facts))
    }

    /// Name units that make sibling keys collide or straddle a subtree:
    /// case variants, units below `\\` (`.`, space, `-`, a digit) and above
    /// it (`_`, letters, non-ASCII, both surrogate halves), and `\\` itself.
    const KEY_UNITS: &[u16] = &[
        b'a' as u16,
        b'A' as u16,
        b'b' as u16,
        b'.' as u16,
        b' ' as u16,
        b'-' as u16,
        b'0' as u16,
        b'_' as u16,
        b'z' as u16,
        0xE9,
        0xC9,
        0xD800,
        0xDC00,
        0xFFFD,
        b':' as u16,
        b'\\' as u16,
    ];

    /// One generated record, row or edit: a pick among its candidates
    /// (parent, row), its name's picks from [`KEY_UNITS`], and flags.
    type Pick = (u8, Vec<u8>, u8);

    fn key_name(picks: &[u8], with_separator: bool) -> NtString {
        let alphabet = if with_separator {
            KEY_UNITS
        } else {
            &KEY_UNITS[..KEY_UNITS.len() - 1]
        };
        // Most names start alike, so that siblings extend each other.
        let units: Vec<u16> = (picks.iter().take(3).enumerate())
            .map(|(i, &p)| alphabet[p as usize % if i == 0 { 3 } else { alphabet.len() }])
            .collect();
        NtString::from_units(&units)
    }

    /// The `FAULT_SEED`-pinned configuration the verify script reruns.
    fn key_order_config(cases: u32) -> Config {
        let mut config = Config::with_cases(cases);
        if let Some(seed) = (std::env::var("FAULT_SEED").ok()).and_then(|s| s.parse().ok()) {
            config.seed = seed;
        }
        config
    }

    /// One MFT record per `(parent pick, name, flags)`: flag bit 0 makes a
    /// directory, bits 1 and 2 add named streams, bit 4 repeats an earlier
    /// record number, bit 5 lets the parent be any record (cycles) and bit
    /// 6 a missing one (orphans).
    fn mft_image(records: &[Pick]) -> Vec<u8> {
        use strider_support::bytes::BufMut;
        let n = records.len() as u64;
        let mut buf = Vec::new();
        buf.put_slice(b"SNTFS1\0\0");
        buf.put_u32_le(1);
        buf.put_u16_le(2);
        buf.put_slice(b"C:");
        buf.put_u64_le(n + 1);
        let mut put = |number: u64, parent: u64, attributes: u32, name: &NtString, streams| {
            buf.put_u8(1);
            buf.put_u64_le(number);
            buf.put_u16_le(1);
            buf.put_u64_le(number * 3);
            buf.put_u64_le(0);
            buf.put_u32_le(attributes);
            buf.put_u64_le(parent);
            let put_name = |buf: &mut Vec<u8>, name: &NtString| {
                buf.put_u16_le(name.len() as u16);
                name.units().iter().for_each(|&u| buf.put_u16_le(u));
            };
            put_name(&mut buf, name);
            buf.put_u16_le(1 + streams as u16);
            buf.put_u8(0);
            buf.put_u64_le(number % 5);
            buf.put_slice(&vec![7; (number % 5) as usize]);
            for s in 0..streams {
                buf.put_u8(1);
                put_name(&mut buf, &key_name(&[s as u8, name.len() as u8], false));
                buf.put_u64_le(0);
            }
        };
        let dir = strider_ntfs::FileAttributes::DIRECTORY.0;
        put(0, 0, dir, &NtString::new(), 0);
        for (k, (pick, name, flags)) in records.iter().enumerate() {
            let k = k as u64;
            let pick = u64::from(*pick);
            let number = if flags & 0x10 != 0 {
                pick % (k + 1) + 1
            } else {
                k + 1
            };
            let parent = if flags & 0x40 != 0 {
                n + 7
            } else if flags & 0x20 != 0 {
                pick % (n + 1)
            } else {
                pick % (k + 1)
            };
            let attributes = if flags & 1 != 0 { dir } else { 0 };
            let streams = usize::from(flags & 2 != 0) + usize::from(flags & 4 != 0);
            put(number, parent, attributes, &key_name(name, true), streams);
        }
        buf
    }

    fn facts_of(snap: &Snapshot<FileFact>) -> Vec<(&String, &FileFact)> {
        snap.iter().collect()
    }

    #[test]
    fn key_ordered_mft_parse_equals_the_reference() {
        check(
            "key_ordered_mft_parse_equals_the_reference",
            key_order_config(400),
            |rng| {
                let records = (0..rng.gen_range(0..40usize))
                    .map(|_| {
                        let len = rng.gen_range(1..4usize);
                        let name: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
                        // A directory half the time; each anomaly one time in 8.
                        let r = rng.next_u64();
                        let anomaly =
                            |bit: u32, flag: u8| if (r >> bit) & 7 == 0 { flag } else { 0 };
                        let flags =
                            (r & 7) as u8 | anomaly(3, 0x10) | anomaly(6, 0x20) | anomaly(9, 0x40);
                        (rng.next_u64() as u8, name, flags)
                    })
                    .collect::<Vec<_>>();
                (records, rng.next_u64() & 1 == 0)
            },
            |(records, ads): &(Vec<Pick>, bool)| {
                let scanner = if *ads {
                    FileScanner::new().with_ads_detection()
                } else {
                    FileScanner::new()
                };
                let bytes = mft_image(records);
                let got = (scanner.parse_volume(&bytes))
                    .map(|parsed| scanner.snapshot_of(parsed, ViewKind::OutsideDisk, Tick(9)));
                let want = reference_parse(&scanner, &bytes);
                let (got, want) = (got.map_err(|e| e.to_string())?, want.unwrap());
                prop_assert_eq!(facts_of(&got), facts_of(&want));
                prop_assert_eq!(json(&got), json(&want));
                Ok(())
            },
        );
    }

    /// Row edits a hook makes to one listing, per `(row pick, name, kind)`:
    /// a case-flipped twin of a row, a row named with a `\\`, a row whose
    /// parent is another directory, a row extending a sibling's name, and
    /// a dropped row.
    fn edit_listing(query: &Query, rows: &mut Vec<Row>, edits: &[Pick]) -> bool {
        let Query::DirectoryEnum { path } = query else {
            return false;
        };
        for (pick, name, kind) in edits {
            if rows.is_empty() || usize::from(*pick) % 3 != path.depth() % 3 {
                continue;
            }
            let Row::File(base) = rows[usize::from(*pick) % rows.len()].clone() else {
                continue;
            };
            let mut twin = base.clone();
            match kind % 5 {
                0 => {
                    let flipped: Vec<u16> = (base.name.units().iter())
                        .map(|&u| match u8::try_from(u) {
                            Ok(b) if b.is_ascii_lowercase() => u16::from(b.to_ascii_uppercase()),
                            Ok(b) => u16::from(b.to_ascii_lowercase()),
                            Err(_) => u,
                        })
                        .collect();
                    twin.name = NtString::from_units(&flipped);
                }
                1 => twin.name = key_name(name, true),
                2 => {
                    // Under a subdirectory, so that every listing the walk
                    // reaches lies deeper than the one that named it.
                    let subdir = rows.iter().find_map(|row| match row {
                        Row::File(f) if f.is_dir => Some(f.name.clone()),
                        _ => None,
                    });
                    twin.parent = Arc::new(path.join(subdir.unwrap_or_else(|| "a".into())));
                    twin.name = key_name(name, false);
                }
                3 => {
                    let mut units = base.name.units().to_vec();
                    units.extend(key_name(name, false).units());
                    twin.name = NtString::from_units(&units);
                }
                _ => {
                    rows.retain(|row| !matches!(row, Row::File(f) if f.name == base.name));
                    continue;
                }
            }
            twin.is_dir |= kind % 5 != 0 && name.first().is_some_and(|b| b % 2 == 0);
            rows.push(Row::File(twin));
        }
        true
    }

    #[test]
    fn key_ordered_high_scan_equals_the_reference() {
        check(
            "key_ordered_high_scan_equals_the_reference",
            key_order_config(300),
            |rng| {
                let mut spec = || {
                    (0..rng.gen_range(0..25usize))
                        .map(|_| {
                            let len = rng.gen_range(1..4usize);
                            let name: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
                            (rng.next_u64() as u8, name, rng.next_u64() as u8)
                        })
                        .collect::<Vec<_>>()
                };
                let (tree, edits) = (spec(), spec());
                (tree, edits, rng.next_u64() as u8)
            },
            |(tree, edits, mode): &(Vec<Pick>, Vec<Pick>, u8)| {
                let mut m = Machine::bare("key-order");
                let mut dirs = vec![NtPath::root_of("C:")];
                for (pick, name, flags) in tree {
                    let path = dirs[usize::from(*pick) % dirs.len()].join(key_name(name, false));
                    let made = if flags & 1 != 0 {
                        m.volume_mut().mkdir_p(&path).is_ok()
                    } else {
                        m.volume_mut().create_file(&path, b"x").is_ok()
                    };
                    if made && flags & 1 != 0 {
                        dirs.push(path);
                    }
                }
                let queries = Arc::new(Mutex::new(Vec::new()));
                let (log, edits) = (Arc::clone(&queries), edits.clone());
                m.install_ntdll_hook(
                    "key-order",
                    vec![QueryKind::Files],
                    HookScope::All,
                    Arc::new(move |_: &CallContext, query: &Query, rows: &mut Vec<Row>| {
                        log.lock().unwrap().push(format!("{query:?}"));
                        edit_listing(query, rows, &edits)
                    }),
                );
                let ctx = m.ensure_process("gb.exe", "C:\\gb.exe").unwrap();
                let entry = if mode & 1 == 0 {
                    ChainEntry::Native
                } else {
                    ChainEntry::Win32
                };
                let scanner = || match mode & 2 {
                    0 => FileScanner::new(),
                    _ => FileScanner::new().with_policy(ScanPolicy::hardened()),
                };
                let want = reference_high_scan(&scanner(), &m, &ctx, entry);
                let want_queries = std::mem::take(&mut *queries.lock().unwrap());
                let got = scanner().high_scan(&m, &ctx, entry);
                prop_assert_eq!(*queries.lock().unwrap(), want_queries);
                match (got, want) {
                    (Ok(got), Ok(want)) => {
                        prop_assert_eq!(facts_of(&got), facts_of(&want));
                        prop_assert_eq!(json(&got), json(&want));
                    }
                    (got, want) => prop_assert_eq!(got.err(), want.err()),
                }
                Ok(())
            },
        );
    }

    #[test]
    fn orphans_and_streams_join_the_tree_in_key_order() {
        // A directory `a` holding `b`, which has one stream, and an
        // orphaned `a` whose parent record is missing.
        let records = [(0, vec![0], 1), (1, vec![2], 2), (0, vec![3], 0x40)];
        let scanner = FileScanner::new().with_ads_detection();
        let parsed = scanner.parse_volume(&mft_image(&records)).unwrap();
        let snap = scanner.snapshot_of(parsed, ViewKind::OutsideDisk, Tick(9));
        let keys: Vec<&String> = snap.iter().map(|(key, _)| key).collect();
        assert_eq!(keys, ["<orphaned>\\a", "c:\\a", "c:\\a\\b", "c:\\a\\b:aa"]);
    }
}
