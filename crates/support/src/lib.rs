//! # strider-support — the hermetic, zero-dependency support layer
//!
//! Every other crate in this workspace depends only on `std` and on this
//! crate, so `cargo build --release --offline` succeeds with no registry
//! access at all. Each module here is a deliberately small, documented
//! subset of a well-known crates-io dependency that the seed workspace
//! used to pull in:
//!
//! | module    | replaces      | subset provided                                        |
//! |-----------|---------------|--------------------------------------------------------|
//! | [`json`]  | `serde` + `serde_json` | [`json::ToJson`]/[`json::FromJson`] traits, a [`json::JsonValue`] tree, a strict parser/writer, and the [`impl_json!`](crate::impl_json) derive-replacement macro |
//! | [`bytes`] | `bytes`       | the [`bytes::BufMut`] little-endian writer for `Vec<u8>`, and the one length-checked reader ([`bytes::FromLe`], [`bytes::read_slice`], [`bytes::read_units`]) all three binary formats parse with |
//! | [`sync`]  | `parking_lot` + `crossbeam-channel` | a [`sync::Mutex`] wrapper over `std::sync` with a non-poisoning `lock()`, plus a bounded MPSC channel ([`sync::bounded`], [`sync::Sender`]/[`sync::Receiver`]) and the [`sync::run_isolated`] panic-isolating task runner |
//! | [`rng`]   | `rand`        | [`rng::SplitMix64`], a tiny seeded PRNG with `gen_range`-style helpers; deterministic across platforms |
//! | [`check`] | `proptest`    | a shrinking property-test harness: [`check::check`], the [`check::Shrink`] trait, and the [`prop_assert!`](crate::prop_assert)/[`prop_assert_eq!`](crate::prop_assert_eq) macros |
//! | [`mod@bench`] | `criterion`   | a mini benchmark harness with the `Criterion`/`benchmark_group`/`Bencher` API shape that writes `BENCH_<group>.json` files at the workspace root |
//! | [`fault`] | (in-house)    | deterministic fault injection ([`fault::FaultPlan`], [`fault::TransientFaults`]) and the salvage-parse vocabulary ([`fault::Salvaged`], [`fault::Defect`]) used by the robustness layer |
//! | [`obs`]   | `tracing` + `metrics` + `hdrhistogram` | a global-free [`obs::Telemetry`] registry: hierarchical spans (with stable per-thread ids) behind a [`obs::Clock`] seam, counters/gauges, bounded mergeable [`obs::HistogramSketch`] histograms, an always-on [`obs::FlightRecorder`] ring, and exporters writing `SCAN_TELEMETRY_<label>.json` reports and `SCAN_TRACE_<label>.json` Chrome traces |
//! | [`task`]  | `tokio-util` + failsafe | cooperative supervision: a hierarchical [`task::CancellationToken`], [`task::Deadline`] over the [`obs::Clock`] seam, and a Closed→Open→HalfOpen [`task::CircuitBreaker`] |
//! | [`alert`] | `prometheus` + alertmanager rules | timestamped [`alert::TimeSeries`] with windowed queries, a declarative [`alert::AlertEngine`] (threshold/baseline/absence [`alert::AlertRule`]s with `for_ns` hysteresis, bounded [`alert::AlertLog`]), and Prometheus-text [`alert::Exposition`] writing `TELEMETRY_EXPO_<label>.prom` snapshots |
//! | [`prof`]  | `dhat`/`tracing-flame` (attribution core) | a counting `#[global_allocator]` with thread-local alloc/bytes/peak/wait counters, span-scoped attribution ([`prof::begin_scope`]), and the [`prof::PerfReport`] critical-path analyzer writing `SCAN_PERF_<label>.json` |
//! | [`store`] | `sled`/`redb` (durability core) | the durable state plane: a checksummed generational [`store::RecordStore`] with one write path (O(1) WAL appends), torn-tail recovery with generation fallback ([`store::Recovered`]), crash injection via [`fault::CrashPlan`], and the [`store::atomic_write_file`] commit primitive every [`store::Artifact`] export uses |
//!
//! The guiding rule is *API-shape compatibility where it is cheap, clarity
//! where it is not*: call sites in the workspace read almost identically to
//! the crates-io versions, but nothing here aims to be a general-purpose
//! reimplementation. The subsets are exactly what the GhostBuster
//! reproduction exercises, plus unit tests pinning their behaviour.
//!
//! A detector you cannot build offline is a detector you cannot trust —
//! the workspace-level `tests/hermetic.rs` guard walks every `Cargo.toml`
//! and fails if a registry dependency is ever reintroduced.
//!
//! # Examples
//!
//! The pieces compose: a fake clock drives telemetry, sketches merge, and
//! values round-trip through the JSON machinery.
//!
//! ```
//! use std::sync::Arc;
//! use strider_support::json::{FromJson, JsonValue, ToJson};
//! use strider_support::obs::{FakeClock, HistogramSketch, Telemetry};
//!
//! // Exact span timing on a fake clock: no sleeps, no flakes.
//! let clock = Arc::new(FakeClock::new());
//! let telemetry = Telemetry::with_clock(clock.clone());
//! {
//!     let _span = telemetry.span("scan");
//!     clock.advance(1_500);
//! }
//! let report = telemetry.report();
//! assert_eq!(report.phase_totals()["scan"].total_ns, 1_500);
//!
//! // Bounded, mergeable histograms: merge is bucket-wise addition, so the
//! // result is independent of who recorded what where.
//! let mut a = HistogramSketch::new();
//! let mut b = HistogramSketch::new();
//! a.record(100.0);
//! b.record(10_000.0);
//! a.merge(&b);
//! assert_eq!(a.count(), 2);
//!
//! // Everything observable serializes through the in-house JSON tree.
//! let json = report.to_json().render();
//! let parsed = JsonValue::parse(&json).unwrap();
//! assert!(strider_support::obs::TelemetryReport::from_json(&parsed).is_ok());
//! ```

pub mod alert;
pub mod bench;
pub mod bytes;
pub mod check;
pub mod fault;
pub mod json;
pub mod obs;
pub mod prof;
pub mod rng;
pub mod store;
pub mod sync;
pub mod task;
