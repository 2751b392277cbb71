//! The unified fleet timeline: scheduler decisions (enqueue, steal,
//! start, finish) stamped on the policy clock, merged with every swept
//! shard's telemetry into one fleet-wide Chrome trace.
//!
//! Every fleet sweep records its scheduler timeline into its
//! [`FleetReport`](crate::FleetReport) — a few events per shard, so
//! there is no untraced variant — and
//! [`FleetReport::trace`](crate::FleetReport::trace) derives the
//! [`FleetTrace`] view from it.
//!
//! Per-shard telemetries are frozen independently, so their
//! [`SpanRecord::tid`](strider_support::obs::SpanRecord::tid) values
//! collide across shards (every shard's first pipeline thread is tid 1).
//! The merge assigns globally stable tids instead: tid 0 is the
//! scheduler lane, tids `1..=workers` are the named worker lanes, and
//! each shard's threads are remapped onto fresh tids above that, named
//! `shard-NNN <original thread name>` so Perfetto shows which machine a
//! pipeline thread belonged to.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use strider_support::alert::nearest_rank;
use strider_support::json::JsonValue;
use strider_support::obs::{Clock, TelemetryReport};
use strider_support::store::Artifact;
use strider_support::sync::Mutex;

/// What the scheduler decided about a shard, stamped on the policy clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedEventKind {
    /// The shard was dealt onto a worker's deque.
    Enqueue {
        /// The deque it landed on.
        worker: usize,
    },
    /// An idle worker stole the shard from a neighbour's deque.
    Steal {
        /// The deque the shard was queued on.
        from: usize,
        /// The worker that took it.
        by: usize,
    },
    /// A worker began sweeping the shard.
    Start {
        /// The sweeping worker.
        worker: usize,
    },
    /// The worker finished the shard (swept, recovered, or quarantined).
    Finish {
        /// The sweeping worker.
        worker: usize,
    },
}

/// One scheduler decision in the fleet timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedEvent {
    /// The shard the decision concerns.
    pub shard: u32,
    /// Policy-clock reading when it happened.
    pub at_ns: u64,
    /// What happened.
    pub kind: SchedEventKind,
}

/// The event sink every sweep threads through the scheduler and its
/// workers.
pub(crate) struct TraceSink {
    clock: Arc<dyn Clock>,
    events: Mutex<Vec<SchedEvent>>,
}

impl TraceSink {
    pub(crate) fn new(clock: Arc<dyn Clock>) -> Self {
        TraceSink {
            clock,
            events: Mutex::new(Vec::new()),
        }
    }

    pub(crate) fn record(&self, shard: u32, kind: SchedEventKind) {
        let at_ns = self.clock.now_ns();
        self.events.lock().push(SchedEvent { shard, at_ns, kind });
    }

    pub(crate) fn into_events(self) -> Vec<SchedEvent> {
        self.events.into_inner()
    }
}

/// One swept shard's telemetry snapshot inside a [`FleetTrace`].
#[derive(Debug, Clone)]
pub struct ShardTrace {
    /// The shard index.
    pub shard: u32,
    /// That shard's machine name.
    pub machine: String,
    /// The shard sweep's frozen telemetry (its own tid space — the merge
    /// remaps it).
    pub telemetry: TelemetryReport,
}

/// The frozen fleet timeline of one scheduler run, as
/// [`FleetReport::trace`](crate::FleetReport::trace) returns it:
/// scheduler events, per-shard telemetry snapshots, and the wall-clock
/// envelope, with derived queue-wait and occupancy metrics and a merged
/// Chrome-trace export.
#[derive(Debug, Clone, Default)]
pub struct FleetTrace {
    /// Worker-pool size the sweep actually ran with (0 when every shard
    /// was restored or fenced before any worker spawned).
    pub workers: usize,
    /// Policy-clock reading when the sweep started.
    pub start_ns: u64,
    /// Policy-clock reading when the sweep finished.
    pub end_ns: u64,
    /// Every scheduler decision, in arrival order.
    pub events: Vec<SchedEvent>,
    /// Each swept shard's telemetry, in shard order.
    pub shards: Vec<ShardTrace>,
}

impl FleetTrace {
    /// Per-shard queue wait — enqueue to sweep start on the policy clock —
    /// for every shard a worker actually started, keyed by shard.
    pub fn queue_waits(&self) -> BTreeMap<u32, u64> {
        let mut enqueued: BTreeMap<u32, u64> = BTreeMap::new();
        let mut waits = BTreeMap::new();
        for event in &self.events {
            match event.kind {
                SchedEventKind::Enqueue { .. } => {
                    enqueued.entry(event.shard).or_insert(event.at_ns);
                }
                SchedEventKind::Start { .. } => {
                    if let Some(&t0) = enqueued.get(&event.shard) {
                        waits
                            .entry(event.shard)
                            .or_insert(event.at_ns.saturating_sub(t0));
                    }
                }
                _ => {}
            }
        }
        waits
    }

    /// [`nearest_rank`] p95 of the per-shard queue waits; 0 when no shard
    /// was started by a worker.
    pub fn queue_wait_p95_ns(&self) -> u64 {
        let waits = self.queue_waits().into_values().map(|w| w as f64);
        nearest_rank(waits, 95.0).map_or(0, |w| w as u64)
    }

    /// How many shards were stolen off a neighbour's deque.
    pub fn steals(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, SchedEventKind::Steal { .. }))
            .count()
    }

    /// Time worker `worker` spent inside shard sweeps (summed
    /// start-to-finish occupancy).
    pub fn worker_busy_ns(&self, worker: usize) -> u64 {
        let mut busy = 0u64;
        let mut open: BTreeMap<u32, u64> = BTreeMap::new();
        for event in &self.events {
            match event.kind {
                SchedEventKind::Start { worker: w } if w == worker => {
                    open.insert(event.shard, event.at_ns);
                }
                SchedEventKind::Finish { worker: w } if w == worker => {
                    if let Some(t0) = open.remove(&event.shard) {
                        busy += event.at_ns.saturating_sub(t0);
                    }
                }
                _ => {}
            }
        }
        busy
    }

    /// The fraction of total worker capacity (`workers × sweep wall
    /// time`) spent *outside* shard sweeps — waiting on queues, locks, or
    /// the ingest channel. 0.0 when the sweep spawned no workers or took
    /// no measurable time; clamped to `[0, 1]`.
    pub fn worker_idle_fraction(&self) -> f64 {
        let wall = self.end_ns.saturating_sub(self.start_ns);
        if self.workers == 0 || wall == 0 {
            return 0.0;
        }
        let capacity = (self.workers as u64 * wall) as f64;
        let busy: u64 = (0..self.workers).map(|w| self.worker_busy_ns(w)).sum();
        (1.0 - busy as f64 / capacity).clamp(0.0, 1.0)
    }

    /// The merged fleet-wide Chrome trace (JSON array format, timestamps
    /// in microseconds):
    ///
    /// * tid 0, `fleet-scheduler`: one `X` slice per shard from enqueue
    ///   to sweep start (the queue wait, named `queue shard-NNN`) plus
    ///   instant events for enqueues and steals;
    /// * tids `1..=workers`, `fleet-worker-N`: one `X` occupancy slice
    ///   per shard sweep;
    /// * every shard telemetry's own events, with tids remapped onto
    ///   fresh globally unique ids and thread names prefixed
    ///   `shard-NNN` — per-shard tids collide across independently
    ///   frozen telemetries, so the local ids never appear here.
    pub fn chrome_trace(&self) -> JsonValue {
        let mut out = Vec::new();
        let meta = |tid: u64, name: &str| {
            JsonValue::Obj(vec![
                ("name".into(), JsonValue::Str("thread_name".into())),
                ("ph".into(), JsonValue::Str("M".into())),
                ("pid".into(), JsonValue::UInt(1)),
                ("tid".into(), JsonValue::UInt(tid)),
                (
                    "args".into(),
                    JsonValue::Obj(vec![("name".into(), JsonValue::Str(name.into()))]),
                ),
            ])
        };
        out.push(meta(0, "fleet-scheduler"));
        for w in 0..self.workers {
            out.push(meta(w as u64 + 1, &format!("fleet-worker-{w}")));
        }

        // Scheduler lane: queue-wait slices plus enqueue/steal instants.
        let mut enqueued: BTreeMap<u32, u64> = BTreeMap::new();
        let mut started: BTreeMap<u32, (usize, u64)> = BTreeMap::new();
        for event in &self.events {
            let ts = event.at_ns as f64 / 1e3;
            let slice =
                |name: String, tid: u64, ts: f64, dur: f64, args: Vec<(String, JsonValue)>| {
                    JsonValue::Obj(vec![
                        ("name".into(), JsonValue::Str(name)),
                        ("cat".into(), JsonValue::Str("fleet".into())),
                        ("ph".into(), JsonValue::Str("X".into())),
                        ("ts".into(), JsonValue::Float(ts)),
                        ("dur".into(), JsonValue::Float(dur)),
                        ("pid".into(), JsonValue::UInt(1)),
                        ("tid".into(), JsonValue::UInt(tid)),
                        ("args".into(), JsonValue::Obj(args)),
                    ])
                };
            let instant = |name: String, args: Vec<(String, JsonValue)>| {
                JsonValue::Obj(vec![
                    ("name".into(), JsonValue::Str(name)),
                    ("cat".into(), JsonValue::Str("fleet".into())),
                    ("ph".into(), JsonValue::Str("i".into())),
                    ("ts".into(), JsonValue::Float(ts)),
                    ("pid".into(), JsonValue::UInt(1)),
                    ("tid".into(), JsonValue::UInt(0)),
                    ("s".into(), JsonValue::Str("t".into())),
                    ("args".into(), JsonValue::Obj(args)),
                ])
            };
            match event.kind {
                SchedEventKind::Enqueue { worker } => {
                    enqueued.entry(event.shard).or_insert(event.at_ns);
                    out.push(instant(
                        format!("enqueue shard-{:03}", event.shard),
                        vec![("worker".into(), JsonValue::UInt(worker as u64))],
                    ));
                }
                SchedEventKind::Steal { from, by } => {
                    out.push(instant(
                        format!("steal shard-{:03}", event.shard),
                        vec![
                            ("from".into(), JsonValue::UInt(from as u64)),
                            ("by".into(), JsonValue::UInt(by as u64)),
                        ],
                    ));
                }
                SchedEventKind::Start { worker } => {
                    started.insert(event.shard, (worker, event.at_ns));
                    if let Some(&t0) = enqueued.get(&event.shard) {
                        out.push(slice(
                            format!("queue shard-{:03}", event.shard),
                            0,
                            t0 as f64 / 1e3,
                            event.at_ns.saturating_sub(t0) as f64 / 1e3,
                            vec![("worker".into(), JsonValue::UInt(worker as u64))],
                        ));
                    }
                }
                SchedEventKind::Finish { worker } => {
                    if let Some((_, t0)) = started.remove(&event.shard) {
                        out.push(slice(
                            format!("shard-{:03}", event.shard),
                            worker as u64 + 1,
                            t0 as f64 / 1e3,
                            event.at_ns.saturating_sub(t0) as f64 / 1e3,
                            vec![("shard".into(), JsonValue::UInt(event.shard as u64))],
                        ));
                    }
                }
            }
        }

        // Shard telemetry lanes: reuse each telemetry's own Chrome
        // export, remapping its local tids onto fresh global ones.
        let mut next_tid = self.workers as u64 + 1;
        for shard in &self.shards {
            let mut remap: BTreeMap<u64, u64> = BTreeMap::new();
            let JsonValue::Arr(events) = shard.telemetry.chrome_trace() else {
                continue;
            };
            for event in events {
                let JsonValue::Obj(mut fields) = event else {
                    continue;
                };
                for (key, value) in fields.iter_mut() {
                    if key == "tid" {
                        if let JsonValue::UInt(local) = value {
                            let global = *remap.entry(*local).or_insert_with(|| {
                                let tid = next_tid;
                                next_tid += 1;
                                tid
                            });
                            *value = JsonValue::UInt(global);
                        }
                    }
                }
                // Prefix thread_name metadata so the lane names which
                // machine the pipeline thread belonged to.
                let is_meta = fields
                    .iter()
                    .any(|(k, v)| k == "ph" && matches!(v, JsonValue::Str(s) if s == "M"));
                if is_meta {
                    for (key, value) in fields.iter_mut() {
                        if key == "args" {
                            if let JsonValue::Obj(args) = value {
                                for (ak, av) in args.iter_mut() {
                                    if ak == "name" {
                                        if let JsonValue::Str(name) = av {
                                            *name = format!("shard-{:03} {name}", shard.shard);
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
                out.push(JsonValue::Obj(fields));
            }
        }
        JsonValue::Arr(out)
    }

    /// Writes [`chrome_trace`](Self::chrome_trace) as
    /// `FLEET_TRACE_<label>.json` into `dir` and returns the path
    /// ([`Artifact::FleetTrace`]).
    ///
    /// # Errors
    ///
    /// See [`Artifact::write`].
    pub fn write_chrome_trace_in(&self, dir: &Path, label: &str) -> std::io::Result<PathBuf> {
        let json = self.chrome_trace().render_pretty(2);
        Artifact::FleetTrace.write(dir, label, json.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strider_support::obs::{FakeClock, Telemetry};

    fn trace_with_events(workers: usize, events: Vec<SchedEvent>) -> FleetTrace {
        let end_ns = events.iter().map(|e| e.at_ns).max().unwrap_or(0);
        FleetTrace {
            workers,
            start_ns: 0,
            end_ns,
            events,
            shards: Vec::new(),
        }
    }

    fn ev(shard: u32, at_ns: u64, kind: SchedEventKind) -> SchedEvent {
        SchedEvent { shard, at_ns, kind }
    }

    #[test]
    fn queue_waits_measure_enqueue_to_start() {
        let trace = trace_with_events(
            1,
            vec![
                ev(0, 10, SchedEventKind::Enqueue { worker: 0 }),
                ev(1, 10, SchedEventKind::Enqueue { worker: 0 }),
                ev(0, 40, SchedEventKind::Start { worker: 0 }),
                ev(0, 90, SchedEventKind::Finish { worker: 0 }),
                ev(1, 100, SchedEventKind::Start { worker: 0 }),
                ev(1, 120, SchedEventKind::Finish { worker: 0 }),
            ],
        );
        let waits = trace.queue_waits();
        assert_eq!(waits[&0], 30);
        assert_eq!(waits[&1], 90);
        assert_eq!(trace.queue_wait_p95_ns(), 90);
        // Worker 0 was busy 50 + 20 of the 120 ns wall → idle 5/12.
        assert_eq!(trace.worker_busy_ns(0), 70);
        assert!((trace.worker_idle_fraction() - 50.0 / 120.0).abs() < 1e-9);
    }

    #[test]
    fn empty_trace_yields_zero_metrics() {
        let trace = trace_with_events(0, Vec::new());
        assert!(trace.queue_waits().is_empty());
        assert_eq!(trace.queue_wait_p95_ns(), 0);
        assert_eq!(trace.steals(), 0);
        assert_eq!(trace.worker_idle_fraction(), 0.0);
    }

    #[test]
    fn merged_trace_remaps_shard_tids_above_worker_lanes() {
        // Two shards frozen independently: both telemetries use tid 1
        // for their (only) span thread — the collision the merge fixes.
        let shard_report = || {
            let clock = Arc::new(FakeClock::new());
            let telemetry = Telemetry::with_clock(clock.clone());
            {
                let _span = telemetry.span("scan");
                clock.advance(100);
            }
            telemetry.report()
        };
        let a = shard_report();
        let b = shard_report();
        assert_eq!(a.spans[0].tid, b.spans[0].tid, "local tids collide");

        let trace = FleetTrace {
            workers: 2,
            start_ns: 0,
            end_ns: 1_000,
            events: vec![
                ev(0, 0, SchedEventKind::Enqueue { worker: 0 }),
                ev(1, 0, SchedEventKind::Enqueue { worker: 1 }),
                ev(1, 5, SchedEventKind::Steal { from: 1, by: 0 }),
                ev(0, 10, SchedEventKind::Start { worker: 0 }),
                ev(0, 500, SchedEventKind::Finish { worker: 0 }),
            ],
            shards: vec![
                ShardTrace {
                    shard: 0,
                    machine: "m0".into(),
                    telemetry: a,
                },
                ShardTrace {
                    shard: 1,
                    machine: "m1".into(),
                    telemetry: b,
                },
            ],
        };
        assert_eq!(trace.steals(), 1);
        let JsonValue::Arr(events) = trace.chrome_trace() else {
            panic!("chrome trace must be an array");
        };
        let field = |e: &JsonValue, key: &str| -> Option<JsonValue> {
            let JsonValue::Obj(fields) = e else {
                return None;
            };
            fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.clone())
        };
        // Span slices (cat "scan") never land on the reserved scheduler
        // or worker lanes, and no two shards share a tid.
        let span_tids: Vec<u64> = events
            .iter()
            .filter(|e| {
                matches!(field(e, "cat"), Some(JsonValue::Str(c)) if c == "scan")
                    && matches!(field(e, "ph"), Some(JsonValue::Str(p)) if p == "X")
            })
            .map(|e| match field(e, "tid") {
                Some(JsonValue::UInt(t)) => t,
                other => panic!("bad tid {other:?}"),
            })
            .collect();
        assert_eq!(span_tids.len(), 2);
        assert!(span_tids.iter().all(|&t| t > 2), "{span_tids:?}");
        assert_ne!(span_tids[0], span_tids[1]);
        // Thread metadata names the lanes, shard-prefixed.
        let names: Vec<String> = events
            .iter()
            .filter(|e| matches!(field(e, "ph"), Some(JsonValue::Str(p)) if p == "M"))
            .filter_map(|e| {
                let JsonValue::Obj(args) = field(e, "args")? else {
                    return None;
                };
                args.into_iter()
                    .find(|(k, _)| k == "name")
                    .and_then(|(_, v)| match v {
                        JsonValue::Str(s) => Some(s),
                        _ => None,
                    })
            })
            .collect();
        assert!(names.iter().any(|n| n == "fleet-scheduler"), "{names:?}");
        assert!(names.iter().any(|n| n == "fleet-worker-0"), "{names:?}");
        assert!(names.iter().any(|n| n == "fleet-worker-1"), "{names:?}");
        assert!(
            names.iter().any(|n| n.starts_with("shard-000 ")),
            "{names:?}"
        );
        assert!(
            names.iter().any(|n| n.starts_with("shard-001 ")),
            "{names:?}"
        );
        // Scheduler lane carries the queue slice and the steal instant.
        assert!(events.iter().any(|e| {
            matches!(field(e, "name"), Some(JsonValue::Str(n)) if n == "queue shard-000")
        }));
        assert!(events.iter().any(|e| {
            matches!(field(e, "name"), Some(JsonValue::Str(n)) if n == "steal shard-001")
        }));
    }
}
