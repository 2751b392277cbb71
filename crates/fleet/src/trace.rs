//! The fleet timeline: scheduler decisions (enqueue, steal, start,
//! finish) stamped on the policy clock, and the fleet-wide Chrome trace
//! a [`FleetReport`] exports from it.
//!
//! Every fleet sweep records its scheduler timeline into its
//! [`FleetReport`] — a few events per shard, so there is no untraced
//! variant — and [`FleetReport::trace`] returns it as a [`FleetTrace`]
//! with queue-wait and worker-occupancy metrics.
//! [`FleetReport::chrome_trace`] merges that timeline with each result's
//! own telemetry, read in place.
//!
//! Per-shard telemetries are frozen independently, so their
//! [`SpanRecord::tid`](strider_support::obs::SpanRecord::tid) values
//! collide across shards (every shard's first pipeline thread is tid 1).
//! The merge assigns globally stable tids instead: tid 0 is the
//! scheduler lane, tids `1..=workers` are the named worker lanes, and
//! each shard's threads get fresh tids above that, named
//! `shard-NNN <original thread name>` so Perfetto shows which machine a
//! pipeline thread belonged to.

use crate::FleetReport;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use strider_support::alert::nearest_rank;
use strider_support::json::JsonValue;
use strider_support::obs::{chrome, Clock};
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

/// The scheduler timeline of one fleet run, as [`FleetReport::trace`]
/// returns it: worker count, wall-clock envelope and scheduler events,
/// with derived queue-wait and occupancy metrics.
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
}

impl FleetReport {
    /// The merged fleet-wide Chrome trace (JSON array format, timestamps
    /// in microseconds):
    ///
    /// * tid 0, `fleet-scheduler`: one `X` slice per shard from enqueue
    ///   to sweep start (the queue wait, named `queue shard-NNN`) plus
    ///   instant events for enqueues and steals;
    /// * tids `1..=workers`, `fleet-worker-N`: one `X` occupancy slice
    ///   per shard sweep;
    /// * every result's telemetry, in shard order, on fresh globally
    ///   unique tids (assigned in first-seen order) with lane names
    ///   prefixed `shard-NNN` — per-shard tids collide across
    ///   independently frozen telemetries, so the local ids never appear
    ///   here. Restored shards ran no scan and add no lanes; a
    ///   quarantined shard keeps its last attempt's.
    pub fn chrome_trace(&self) -> JsonValue {
        let timeline = self.trace();
        let mut out = vec![chrome::thread_name(0, "fleet-scheduler")];
        for w in 0..timeline.workers {
            out.push(chrome::thread_name(
                w as u64 + 1,
                &format!("fleet-worker-{w}"),
            ));
        }

        // Scheduler lane: queue-wait slices plus enqueue/steal instants;
        // worker lanes: one occupancy slice per shard sweep.
        let uint = |n: usize| JsonValue::UInt(n as u64);
        let mut enqueued: BTreeMap<u32, u64> = BTreeMap::new();
        let mut started: BTreeMap<u32, u64> = BTreeMap::new();
        for event in &timeline.events {
            let (shard, at_ns) = (event.shard, event.at_ns);
            match event.kind {
                SchedEventKind::Enqueue { worker } => {
                    enqueued.entry(shard).or_insert(at_ns);
                    let args = vec![("worker".into(), uint(worker))];
                    let name = format!("enqueue shard-{shard:03}");
                    out.push(chrome::instant(&name, "fleet", at_ns, 0, args));
                }
                SchedEventKind::Steal { from, by } => {
                    let args = vec![("from".into(), uint(from)), ("by".into(), uint(by))];
                    let name = format!("steal shard-{shard:03}");
                    out.push(chrome::instant(&name, "fleet", at_ns, 0, args));
                }
                SchedEventKind::Start { worker } => {
                    started.insert(shard, at_ns);
                    if let Some(&t0) = enqueued.get(&shard) {
                        let args = vec![("worker".into(), uint(worker))];
                        let name = format!("queue shard-{shard:03}");
                        let wait = at_ns.saturating_sub(t0);
                        out.push(chrome::complete(&name, "fleet", t0, wait, 0, args));
                    }
                }
                SchedEventKind::Finish { worker } => {
                    if let Some(t0) = started.remove(&shard) {
                        let args = vec![("shard".into(), JsonValue::UInt(shard.into()))];
                        let name = format!("shard-{shard:03}");
                        let lane = worker as u64 + 1;
                        let busy = at_ns.saturating_sub(t0);
                        out.push(chrome::complete(&name, "fleet", t0, busy, lane, args));
                    }
                }
            }
        }

        // Shard telemetry lanes, each local tid mapped onto a fresh
        // global one the first time it appears.
        let mut next_tid = timeline.workers as u64 + 1;
        for result in self.results() {
            let Some(telemetry) = &result.report.telemetry else {
                continue;
            };
            let mut lanes: BTreeMap<u64, u64> = BTreeMap::new();
            let mut tid = |local: u64| {
                *lanes.entry(local).or_insert_with(|| {
                    let tid = next_tid;
                    next_tid += 1;
                    tid
                })
            };
            let prefix = format!("shard-{:03} ", result.shard.0);
            telemetry.append_chrome_events(&mut out, &mut tid, &prefix);
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

    fn trace_with_events(workers: usize, events: Vec<SchedEvent>) -> FleetTrace {
        let end_ns = events.iter().map(|e| e.at_ns).max().unwrap_or(0);
        FleetTrace {
            workers,
            start_ns: 0,
            end_ns,
            events,
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
}
