//! `BENCHMARK.json` against the binary's declarations, and a smoke run of
//! every workload through the same code the benchmark runs.

use std::collections::BTreeSet;
use std::sync::Mutex;

use strider_benchmark::run::{run, Budget};
use strider_benchmark::spec::{DEFAULT_SECONDS, END_TO_END, PER_LAYER};
use strider_benchmark::trace::trace;
use strider_benchmark::workloads::Workload;
use strider_support::json::JsonValue;

fn manifest() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    JsonValue::parse(&text).expect("BENCHMARK.json parses")
}

fn entries<'a>(doc: &'a JsonValue, key: &str) -> &'a [JsonValue] {
    doc.field(key).and_then(JsonValue::as_arr).expect(key)
}

fn text<'a>(entry: &'a JsonValue, key: &str) -> &'a str {
    entry.field(key).and_then(JsonValue::as_str).expect(key)
}

fn keys(entry: &JsonValue) -> Vec<&str> {
    entry
        .as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

fn is_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn is_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[test]
fn manifest_has_exactly_the_contract_keys() {
    let doc = manifest();
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        doc.field("run_seconds").and_then(JsonValue::as_u64),
        Ok(DEFAULT_SECONDS)
    );
    let paths: Vec<&str> = entries(&doc, "paths")
        .iter()
        .map(|p| p.as_str().expect("a path"))
        .collect();
    assert_eq!(paths, ["benchmark"]);
    let command = entries(&doc, "command");
    assert!(command.len() <= 32);
    for arg in command {
        let arg = arg.as_str().expect("a string");
        assert!(arg.len() <= 200 && !arg.starts_with('/') && !arg.contains(".."));
    }
}

#[test]
fn declared_workloads_and_metrics_match_the_binary() {
    let doc = manifest();
    let workloads = entries(&doc, "workloads");
    assert_eq!(workloads.len(), Workload::ALL.len());
    for (entry, workload) in workloads.iter().zip(Workload::ALL) {
        assert_eq!(keys(entry), ["name", "why"]);
        assert_eq!(text(entry, "name"), workload.name());
        assert_eq!(text(entry, "why"), workload.why());
        assert!(workload.why().len() <= 200 && !workload.why().contains('\n'));
    }

    let end_to_end = entries(&doc, "end_to_end");
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (entry, spec) in end_to_end.iter().zip(&END_TO_END) {
        assert_eq!(keys(entry), ["name", "unit", "better", "bound"]);
        assert_eq!(text(entry, "name"), spec.name);
        assert_eq!(text(entry, "unit"), spec.unit);
        assert_eq!(text(entry, "better"), spec.better.as_str());
        let bound = entry.field("bound").and_then(JsonValue::as_f64).unwrap();
        assert_eq!(bound, spec.bound);
        assert!(bound > 0.0 && bound <= 0.25);
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert_eq!((setup.unit, setup.better.as_str()), ("s", "lower"));
    assert!(
        END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s has the largest bound"
    );

    let per_layer = entries(&doc, "per_layer");
    assert_eq!(per_layer.len(), PER_LAYER.len());
    for (entry, spec) in per_layer.iter().zip(&PER_LAYER) {
        assert_eq!(keys(entry), ["name", "unit", "better"]);
        assert_eq!(text(entry, "name"), spec.name);
        assert_eq!(text(entry, "unit"), spec.unit);
        assert_eq!(text(entry, "better"), spec.better.as_str());
    }
}

#[test]
fn names_units_and_counts_stay_within_the_limits() {
    assert!(Workload::ALL.len() <= 8);
    assert!(END_TO_END.len() <= 16);
    assert!(PER_LAYER.len() <= 128);
    let names: Vec<&str> = Workload::ALL
        .iter()
        .map(|w| w.name())
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name))
        .collect();
    for name in &names {
        assert!(is_name(name), "{name} is not a valid name");
    }
    let unique: BTreeSet<&str> = names.iter().copied().collect();
    assert_eq!(unique.len(), names.len(), "a name is used twice");
    for unit in END_TO_END
        .iter()
        .map(|m| m.unit)
        .chain(PER_LAYER.iter().map(|m| m.unit))
    {
        assert!(is_unit(unit), "{unit} is not a valid unit");
    }
}

/// Serialises the smoke runs: each times real sweeps, and the traced run's
/// attribution check assumes it has the CPUs to itself.
static SMOKE: Mutex<()> = Mutex::new(());

#[test]
fn every_workload_runs_two_ops_and_one_traced_op() {
    let _alone = SMOKE.lock().unwrap_or_else(|e| e.into_inner());
    for workload in Workload::ALL {
        let timed = run(workload, 42, Budget::Ops(2)).unwrap_or_else(|e| panic!("{e}"));
        assert!(timed.correct, "{}: {:?}", workload.name(), timed.tally);
        assert_eq!(timed.ops, 2);
        let printed: Vec<&str> = timed.metrics.iter().map(|m| m.name).collect();
        let declared: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(printed, declared);
        assert!(timed
            .metrics
            .iter()
            .all(|m| m.value > 0.0 && m.value.is_finite()));

        let traced = trace(workload, 42, Budget::Ops(1), None).unwrap_or_else(|e| panic!("{e}"));
        assert!(traced.correct, "{}: {:?}", workload.name(), traced.tally);
        assert_eq!(traced.ops, 1);
        let printed: Vec<&str> = traced.metrics.iter().map(|m| m.name).collect();
        let declared: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(printed, declared);
        assert!(traced.metrics.iter().all(|m| m.value.is_finite()));
    }
}

#[test]
fn seeds_42_and_7_finish_without_failed_verdicts() {
    let _alone = SMOKE.lock().unwrap_or_else(|e| e.into_inner());
    for seed in [42, 7] {
        for workload in Workload::ALL {
            let outcome = run(workload, seed, Budget::Ops(2)).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(
                outcome.tally.failed_frac(),
                0.0,
                "{} seed {seed}: {:?}",
                workload.name(),
                outcome.tally
            );
        }
    }
}
