//! Hidden-process and hidden-module detection (paper, Section 4).

use crate::diff::cross_view_diff;
use crate::instrument::{query_chain, record_chain, record_view_entries, LatencyProbe};
use crate::policy::interrupt_status;
use crate::report::{Detection, DiffReport, NoiseClass, ResourceKind};
use crate::snapshot::{ModuleFact, ProcessFact, ScanMeta, Snapshot, ViewKind};
use strider_kernel::{MemoryDump, ModuleEntry};
use strider_nt_core::{NtStatus, NtString, Pid, Tick};
use strider_support::obs::{SpanGuard, Telemetry};
use strider_support::task::Supervision;
use strider_winapi::{CallContext, ChainEntry, ChainStats, Machine, Query, Row};

/// Which kernel structure the advanced-mode low-level scan traverses in
/// addition to the Active Process List.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdvancedSource {
    /// The scheduler thread table: every schedulable thread names its owner.
    ThreadTable,
    /// The subsystem (csrss) handle table.
    HandleTable,
}

/// The hidden-process/hidden-module scanner.
#[derive(Debug, Clone, Default)]
pub struct ProcessScanner {
    telemetry: Telemetry,
    supervision: Supervision,
}

impl ProcessScanner {
    /// Creates a scanner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Threads a telemetry registry through every scan: per-phase spans,
    /// per-view entry counters, and chain-divergence attribution.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Places the scanner under `supervision`: each per-process module
    /// enumeration and phase boundary checks the cancellation token and
    /// deadline. The default is [`Supervision::unsupervised`] — never
    /// interrupted.
    pub fn with_supervision(mut self, supervision: Supervision) -> Self {
        self.supervision = supervision;
        self
    }

    /// The high-level scan through the (possibly hooked) API chain.
    ///
    /// # Errors
    ///
    /// Propagates API failures.
    pub fn high_scan(
        &self,
        machine: &Machine,
        ctx: &CallContext,
        entry: ChainEntry,
    ) -> Result<Snapshot<ProcessFact>, NtStatus> {
        let view = ViewKind::high_level(entry);
        let span = self.telemetry.span("processes.high_scan");
        let mut snap = Snapshot::new(ScanMeta::new(view, machine.now()));
        snap.meta.io.record_api_call();
        let mut chain = ChainStats::default();
        let rows = query_chain(machine, ctx, &Query::ProcessList, entry, &mut chain)?;
        record_chain(&span, &chain);
        snap.meta.io.record_entries(rows.len() as u64);
        for row in rows {
            if let Row::Process(p) = row {
                insert_process(&mut snap, p.pid, &p.image_name, p.image_path);
            }
        }
        record_view_entries(&self.telemetry, &span, "processes", &snap);
        Ok(snap)
    }

    /// The normal-mode low-level scan: a driver walks the Active Process
    /// List. Catches every API-intercepting hider; blind to DKOM, because
    /// this list is only the truth *approximation* the APIs themselves use.
    pub fn low_scan_apl(&self, machine: &Machine) -> Snapshot<ProcessFact> {
        let span = self.telemetry.span("processes.low_scan");
        let pids = machine.kernel().active_process_list();
        self.kernel_scan(&span, machine, ViewKind::LowLevelApl, pids)
    }

    /// The advanced-mode low-level scan: traverse a kernel structure that
    /// exists for OS bookkeeping other than answering enumeration queries.
    /// DKOM-hidden processes reappear here.
    pub fn low_scan_advanced(
        &self,
        machine: &Machine,
        source: AdvancedSource,
    ) -> Snapshot<ProcessFact> {
        let (view, mut pids) = match source {
            AdvancedSource::ThreadTable => (
                ViewKind::LowLevelThreadTable,
                machine.kernel().processes_via_threads(),
            ),
            AdvancedSource::HandleTable => (
                ViewKind::LowLevelHandleTable,
                machine.kernel().processes_via_handles(),
            ),
        };
        // Union with the APL: the advanced structure augments rather than
        // replaces the primary one (csrss tracks no System process, etc.).
        let span = self.telemetry.span("processes.low_scan");
        span.set_attr("source", format_args!("{source:?}"));
        pids.extend(machine.kernel().active_process_list());
        pids.sort();
        pids.dedup();
        self.kernel_scan(&span, machine, view, pids)
    }

    /// The live kernel's processes among `pids`, as a `view` snapshot.
    fn kernel_scan(
        &self,
        span: &SpanGuard,
        machine: &Machine,
        view: ViewKind,
        pids: Vec<Pid>,
    ) -> Snapshot<ProcessFact> {
        let mut snap = Snapshot::new(ScanMeta::new(view, machine.now()));
        for pid in pids {
            if let Some(p) = machine.kernel().process(pid) {
                snap.meta.io.record_entries(1);
                insert_process(&mut snap, pid, &p.image_name, p.image_path.to_string());
            }
        }
        record_view_entries(&self.telemetry, span, "processes", &snap);
        snap
    }

    /// The outside-the-box scan over a crash-dump image. A dump carries no
    /// capture time, so the snapshot is stamped [`Tick::ZERO`] for the
    /// caller to date.
    pub fn outside_scan(&self, dump: &MemoryDump, advanced: bool) -> Snapshot<ProcessFact> {
        let span = self.telemetry.span("processes.outside_scan");
        span.set_attr("advanced", advanced);
        let mut snap = Snapshot::new(ScanMeta::new(ViewKind::OutsideDump, Tick::ZERO));
        snap.meta.io.record_sequential(dump.byte_len());
        let mut pids = dump.processes_via_apl();
        if advanced {
            pids.extend(dump.processes_via_threads());
            pids.sort();
            pids.dedup();
        }
        for pid in pids {
            if let Some(p) = dump.process(pid) {
                snap.meta.io.record_entries(1);
                insert_process(&mut snap, pid, &p.image_name, p.image_path.to_string());
            }
        }
        record_view_entries(&self.telemetry, &span, "processes", &snap);
        span.set_attr("bytes_read", snap.meta.io.bytes_read);
        snap
    }

    /// Diffs process snapshots.
    pub fn diff(&self, truth: &Snapshot<ProcessFact>, lie: &Snapshot<ProcessFact>) -> DiffReport {
        let span = self.telemetry.span("processes.diff");
        let report = cross_view_diff(truth, lie, |key, fact: &ProcessFact| Detection {
            kind: ResourceKind::Process,
            identity: key.to_string(),
            detail: format!("{} {} ({})", fact.pid, fact.image_name, fact.image_path),
            category: None,
            noise: NoiseClass::Suspicious,
        });
        span.set_attr("hidden", report.net_detections().len());
        span.set_attr("noise", report.noise_detections().len());
        report
    }

    /// One-call inside-the-box hidden-process detection.
    ///
    /// # Errors
    ///
    /// Propagates scan failures.
    pub fn scan_inside(
        &self,
        machine: &Machine,
        ctx: &CallContext,
        advanced: Option<AdvancedSource>,
    ) -> Result<DiffReport, NtStatus> {
        let _span = self.telemetry.span("processes.scan_inside");
        let lie = self.high_scan(machine, ctx, ChainEntry::Win32)?;
        self.supervision.checkpoint().map_err(interrupt_status)?;
        let truth = match advanced {
            Some(source) => self.low_scan_advanced(machine, source),
            None => self.low_scan_apl(machine),
        };
        Ok(self.diff(&truth, &lie))
    }

    // ------------------------------------------------------------------
    // Modules
    // ------------------------------------------------------------------

    /// The high-level module scan: enumerate modules of every *visible*
    /// process through the API chain (PEB-based, Tool Help semantics).
    ///
    /// # Errors
    ///
    /// Propagates API failures other than processes that die mid-scan.
    pub fn high_module_scan(
        &self,
        machine: &Machine,
        ctx: &CallContext,
        entry: ChainEntry,
    ) -> Result<Snapshot<ModuleFact>, NtStatus> {
        let procs = self.high_scan(machine, ctx, entry)?;
        let view = ViewKind::high_level(entry);
        let span = self.telemetry.span("modules.high_scan");
        let probe = LatencyProbe::new(&self.telemetry, "modules.proc_query_ns");
        let mut chain = ChainStats::default();
        let mut snap = Snapshot::new(ScanMeta::new(view, machine.now()));
        for (_, proc_fact) in procs.iter() {
            self.supervision.checkpoint().map_err(interrupt_status)?;
            snap.meta.io.record_api_call();
            let query = Query::ModuleList { pid: proc_fact.pid };
            let query_started = probe.start();
            let result = query_chain(machine, ctx, &query, entry, &mut chain);
            probe.finish(query_started);
            let rows = match result {
                Ok(rows) => rows,
                Err(NtStatus::NoSuchProcess) => continue,
                Err(e) => return Err(e),
            };
            snap.meta.io.record_entries(rows.len() as u64);
            for row in rows {
                if let Row::Module(m) = row {
                    insert_module(&mut snap, proc_fact, &m.name, &m.path);
                }
            }
        }
        record_view_entries(&self.telemetry, &span, "modules", &snap);
        span.set_attr("api_calls", snap.meta.io.api_calls);
        record_chain(&span, &chain);
        Ok(snap)
    }

    /// The low-level module scan: the kernel's own mapped-image lists,
    /// restricted to processes visible in `visible` (module hiding in
    /// *hidden* processes is already covered by process detection).
    pub fn low_module_scan(
        &self,
        machine: &Machine,
        visible: &Snapshot<ProcessFact>,
    ) -> Snapshot<ModuleFact> {
        let span = self.telemetry.span("modules.low_scan");
        let mut snap = Snapshot::new(ScanMeta::new(
            ViewKind::LowLevelKernelModules,
            machine.now(),
        ));
        let kernel = machine.kernel();
        let entries = insert_kernel_modules(&mut snap, visible, |pid| {
            kernel.process(pid).map(|p| p.kernel_modules.as_slice())
        });
        snap.meta.io.record_entries(entries);
        record_view_entries(&self.telemetry, &span, "modules", &snap);
        snap
    }

    /// The outside-the-box module truth: the dump's kernel module lists
    /// for the processes in `visible`. No span and no I/O of its own.
    pub(crate) fn outside_module_scan(
        &self,
        dump: &MemoryDump,
        visible: &Snapshot<ProcessFact>,
        taken_at: Tick,
    ) -> Snapshot<ModuleFact> {
        let mut snap = Snapshot::new(ScanMeta::new(ViewKind::OutsideDump, taken_at));
        insert_kernel_modules(&mut snap, visible, |pid| {
            dump.process(pid).map(|p| p.kernel_modules.as_slice())
        });
        snap
    }

    /// Diffs module snapshots.
    pub fn diff_modules(
        &self,
        truth: &Snapshot<ModuleFact>,
        lie: &Snapshot<ModuleFact>,
    ) -> DiffReport {
        let span = self.telemetry.span("modules.diff");
        let report = cross_view_diff(truth, lie, |key, fact: &ModuleFact| Detection {
            kind: ResourceKind::Module,
            identity: key.to_string(),
            detail: format!(
                "{} hidden inside {} {}",
                fact.module, fact.pid, fact.process_name
            ),
            category: None,
            noise: NoiseClass::Suspicious,
        });
        span.set_attr("hidden", report.net_detections().len());
        span.set_attr("noise", report.noise_detections().len());
        report
    }

    /// One-call inside-the-box hidden-module detection.
    ///
    /// # Errors
    ///
    /// Propagates scan failures.
    pub fn scan_modules_inside(
        &self,
        machine: &Machine,
        ctx: &CallContext,
    ) -> Result<DiffReport, NtStatus> {
        let _span = self.telemetry.span("modules.scan_inside");
        let lie = self.high_module_scan(machine, ctx, ChainEntry::Win32)?;
        self.supervision.checkpoint().map_err(interrupt_status)?;
        let visible = self.high_scan(machine, ctx, ChainEntry::Win32)?;
        let truth = self.low_module_scan(machine, &visible);
        Ok(self.diff_modules(&truth, &lie))
    }
}

/// Inserts one process under its `pid:<n>` key.
fn insert_process(snap: &mut Snapshot<ProcessFact>, pid: Pid, name: &NtString, path: String) {
    let image_name = name.to_win32_lossy();
    let fact = ProcessFact {
        pid,
        image_name,
        image_path: path,
    };
    snap.insert(format!("pid:{}", pid.0), fact);
}

fn module_key(pid: Pid, module: &str) -> String {
    format!("pid:{}|{}", pid.0, module.to_ascii_lowercase())
}

/// Inserts one module of the process `owner` under its [`module_key`].
fn insert_module(
    snap: &mut Snapshot<ModuleFact>,
    owner: &ProcessFact,
    name: &NtString,
    path: &NtString,
) {
    let module = name.to_win32_lossy();
    snap.insert(
        module_key(owner.pid, &module),
        ModuleFact {
            pid: owner.pid,
            process_name: owner.image_name.clone(),
            module,
            path: path.to_win32_lossy(),
        },
    );
}

/// Inserts the kernel module list `modules_of` finds for each process in
/// `visible`, returning how many modules it visited.
fn insert_kernel_modules<'a>(
    snap: &mut Snapshot<ModuleFact>,
    visible: &Snapshot<ProcessFact>,
    modules_of: impl Fn(Pid) -> Option<&'a [ModuleEntry]>,
) -> u64 {
    let mut visited = 0;
    for (_, owner) in visible.iter() {
        for m in modules_of(owner.pid).unwrap_or_default() {
            visited += 1;
            insert_module(snap, owner, &m.name, &m.path);
        }
    }
    visited
}

#[cfg(test)]
mod tests {
    use super::*;
    use strider_ghostware::{Berbew, Fu, Ghostware, HackerDefender, Vanquish};
    use strider_kernel::MemoryDump;

    fn gb_ctx(machine: &mut Machine) -> CallContext {
        machine
            .ensure_process("ghostbuster.exe", "C:\\ghostbuster.exe")
            .unwrap()
    }

    #[test]
    fn clean_machine_zero_findings_both_modes() {
        let mut m = Machine::with_base_system("clean").unwrap();
        let ctx = gb_ctx(&mut m);
        let s = ProcessScanner::new();
        for advanced in [
            None,
            Some(AdvancedSource::ThreadTable),
            Some(AdvancedSource::HandleTable),
        ] {
            let report = s.scan_inside(&m, &ctx, advanced).unwrap();
            assert!(!report.has_detections(), "{advanced:?}: {report}");
        }
    }

    #[test]
    fn api_hiders_caught_by_normal_mode() {
        for sample in [
            Box::new(HackerDefender::default()) as Box<dyn Ghostware>,
            Box::new(Berbew::default()),
        ] {
            let mut m = Machine::with_base_system("victim").unwrap();
            let inf = sample.infect(&mut m).unwrap();
            let ctx = gb_ctx(&mut m);
            let report = ProcessScanner::new().scan_inside(&m, &ctx, None).unwrap();
            for name in &inf.hidden_process_names {
                assert!(
                    report
                        .net_detections()
                        .iter()
                        .any(|d| d.detail.contains(name)),
                    "{} missed {name}",
                    inf.ghostware
                );
            }
        }
    }

    #[test]
    fn fu_requires_advanced_mode() {
        let mut m = Machine::with_base_system("victim").unwrap();
        Fu::default().infect(&mut m).unwrap();
        let ctx = gb_ctx(&mut m);
        let s = ProcessScanner::new();
        let normal = s.scan_inside(&m, &ctx, None).unwrap();
        assert!(
            !normal.has_detections(),
            "normal mode cannot see DKOM: {normal}"
        );
        for source in [AdvancedSource::ThreadTable, AdvancedSource::HandleTable] {
            let advanced = s.scan_inside(&m, &ctx, Some(source)).unwrap();
            assert!(
                advanced
                    .net_detections()
                    .iter()
                    .any(|d| d.detail.contains("fu_payload.exe")),
                "{source:?} must reveal the DKOM-hidden process"
            );
        }
    }

    #[test]
    fn vanquish_module_hiding_detected_in_many_processes() {
        let mut m = Machine::with_base_system("victim").unwrap();
        let inf = Vanquish::default().infect(&mut m).unwrap();
        let ctx = gb_ctx(&mut m);
        let report = ProcessScanner::new().scan_modules_inside(&m, &ctx).unwrap();
        let vanquish_hits = report
            .net_detections()
            .iter()
            .filter(|d| d.detail.contains("vanquish.dll"))
            .count();
        assert_eq!(vanquish_hits, inf.hidden_module_names.len());
        assert!(vanquish_hits >= 6, "many such entries, as in the paper");
    }

    #[test]
    fn clean_module_scan_is_silent() {
        let mut m = Machine::with_base_system("clean").unwrap();
        let ctx = gb_ctx(&mut m);
        let report = ProcessScanner::new().scan_modules_inside(&m, &ctx).unwrap();
        assert!(!report.has_detections(), "{report}");
    }

    #[test]
    fn telemetry_records_phases_and_divergence_level() {
        let mut m = Machine::with_base_system("victim").unwrap();
        HackerDefender::default().infect(&mut m).unwrap();
        let ctx = gb_ctx(&mut m);
        let telemetry = strider_support::obs::Telemetry::new();
        let s = ProcessScanner::new().with_telemetry(telemetry.clone());
        s.scan_inside(&m, &ctx, None).unwrap();

        // Counters checked before the module sweep re-runs high_scan.
        let report = telemetry.report();
        let scan = report.find_span("processes.scan_inside").unwrap();
        let high = scan.child("processes.high_scan").unwrap();
        assert!(high.attr("diverted_at").is_some(), "{high:?}");
        assert!(scan.child("processes.low_scan").is_some());
        assert!(scan.child("processes.diff").is_some());
        assert!(
            report.counters["processes.entries.LowLevelApl"]
                > report.counters["processes.entries.HighLevelWin32"],
            "truth view must see the hidden process"
        );

        s.scan_modules_inside(&m, &ctx).unwrap();
        let report = telemetry.report();
        let mods = report.find_span("modules.scan_inside").unwrap();
        assert!(mods.child("modules.high_scan").is_some());
        assert!(mods.child("modules.low_scan").is_some());
        assert!(mods.child("modules.diff").is_some());
    }

    #[test]
    fn outside_dump_scan_detects_dkom_with_advanced_parse() {
        let mut m = Machine::with_base_system("victim").unwrap();
        Fu::default().infect(&mut m).unwrap();
        let ctx = gb_ctx(&mut m);
        let s = ProcessScanner::new();
        let lie = s.high_scan(&m, &ctx, ChainEntry::Win32).unwrap();
        let dump = MemoryDump::parse(&m.kernel().crash_dump()).unwrap();
        let normal = s.diff(&s.outside_scan(&dump, false), &lie);
        assert!(!normal.has_detections(), "APL in the dump is also doctored");
        let advanced = s.diff(&s.outside_scan(&dump, true), &lie);
        assert!(advanced
            .net_detections()
            .iter()
            .any(|d| d.detail.contains("fu_payload.exe")));
    }

    #[test]
    fn dump_scrubbing_defeats_even_the_outside_dump_scan() {
        // The paper's caveat: a future ghostware trapping the blue screen
        // makes the dump a truth approximation too.
        let mut m = Machine::with_base_system("victim").unwrap();
        Fu::default().infect(&mut m).unwrap();
        let pid = m.kernel().find_by_name("fu_payload.exe")[0];
        m.kernel_mut()
            .register_dump_scrubber(strider_kernel::DumpScrub {
                pids: vec![pid],
                module_names: Vec::new(),
            });
        let ctx = gb_ctx(&mut m);
        let s = ProcessScanner::new();
        let lie = s.high_scan(&m, &ctx, ChainEntry::Win32).unwrap();
        let dump = MemoryDump::parse(&m.kernel().crash_dump()).unwrap();
        let advanced = s.diff(&s.outside_scan(&dump, true), &lie);
        assert!(
            !advanced
                .net_detections()
                .iter()
                .any(|d| d.detail.contains("fu_payload.exe")),
            "scrubbed dump hides the process"
        );
    }
}
