//! Crate-private helpers wiring the scanners into [`strider_support::obs`]:
//! the attribute/counter vocabulary every pipeline shares, so the telemetry
//! report reads uniformly across files, registry, processes, and modules.

use crate::snapshot::Snapshot;
use strider_nt_core::{IoStats, NtStatus};
use strider_support::obs::{SpanGuard, Telemetry};
use strider_winapi::{CallContext, ChainEntry, ChainStats, Machine, Query, Row};

/// Runs one query through the machine's hook chain, folding its
/// [`ChainTrace`](strider_winapi::ChainTrace) into `chain`. The chain
/// records every trace at no extra cost, so every scan keeps its
/// attribution whether or not telemetry is attached.
pub(crate) fn query_chain(
    machine: &Machine,
    ctx: &CallContext,
    query: &Query,
    entry: ChainEntry,
    chain: &mut ChainStats,
) -> Result<Vec<Row>, NtStatus> {
    let (rows, trace) = machine.query_traced(ctx, query, entry)?;
    chain.absorb(&trace);
    Ok(rows)
}

/// Feeds per-iteration latencies from a hot scan loop into a named
/// bounded [`HistogramSketch`](strider_support::obs::HistogramSketch).
///
/// With the telemetry off the probe is inert — `start()` reads no clock
/// and `finish()` records nothing — so uninstrumented scans pay only the
/// telemetry's own on/off branch per iteration.
pub(crate) struct LatencyProbe {
    telemetry: Telemetry,
    name: &'static str,
}

impl LatencyProbe {
    pub(crate) fn new(telemetry: &Telemetry, name: &'static str) -> Self {
        LatencyProbe {
            telemetry: telemetry.clone(),
            name,
        }
    }

    /// Reads the clock at the top of an iteration.
    pub(crate) fn start(&self) -> u64 {
        self.telemetry.now_ns()
    }

    /// Records the elapsed time since `start()` into the histogram.
    pub(crate) fn finish(&self, started: u64) {
        let elapsed = self.telemetry.now_ns().saturating_sub(started);
        self.telemetry.histogram_record(self.name, elapsed as f64);
    }
}

/// Records a scan's per-view entry count as both span attributes and a
/// `<pipeline>.entries.<View>` counter.
pub(crate) fn record_view_entries<T>(
    telemetry: &Telemetry,
    span: &SpanGuard,
    pipeline: &str,
    snap: &Snapshot<T>,
) {
    let view = snap.meta.view;
    span.set_attr("view", format_args!("{view:?}"));
    span.set_attr("entries", snap.len());
    telemetry.counter_add(
        format_args!("{pipeline}.entries.{view:?}"),
        snap.len() as u64,
    );
}

/// Records a truth parse's salvage defects into its I/O stats and, if
/// any, as the span's `defects` attribute and the `<pipeline>.defects`
/// counter.
pub(crate) fn record_defects(
    telemetry: &Telemetry,
    span: &SpanGuard,
    pipeline: &str,
    io: &mut IoStats,
    defects: u64,
) {
    io.record_defects(defects);
    if defects > 0 {
        span.set_attr("defects", defects);
        telemetry.counter_add(format_args!("{pipeline}.defects"), defects);
    }
}

/// Counts a hardened high scan's decoy queries, if any, on `<pipeline>.decoys`.
pub(crate) fn record_decoys(telemetry: &Telemetry, pipeline: &str, issued: u64) {
    if issued > 0 {
        telemetry.counter_add(format_args!("{pipeline}.decoys"), issued);
    }
}

/// Attaches chain-traversal aggregates to a high-scan span: how many
/// queries a hook diverted, and `diverted_at` naming the chain level that
/// mutated the result — the paper's attribution of a lie to a layer.
pub(crate) fn record_chain(span: &SpanGuard, chain: &ChainStats) {
    span.set_attr("queries", chain.queries);
    span.set_attr("diverted_queries", chain.diverted);
    if chain.marshal_mutations > 0 {
        span.set_attr("marshal_mutations", chain.marshal_mutations);
    }
    if let Some(level) = chain.dominant_level() {
        span.set_attr("diverted_at", level);
    }
}
