#!/usr/bin/env bash
# Full offline verification: format check (when rustfmt is installed),
# release build, and the complete test suite — all with --offline, because
# the workspace is hermetic by construction (see tests/hermetic.rs).
#
# Usage: scripts/verify.sh
set -euo pipefail

cd "$(dirname "$0")/.."

if cargo fmt --version >/dev/null 2>&1; then
    echo "==> cargo fmt --check"
    cargo fmt --all --check
else
    echo "==> cargo fmt not installed; skipping format check"
fi

# Information, not a gate: the line counts the ROADMAP size targets use.
echo "==> line counts (scripts/loc)"
scripts/loc

if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy --offline -- -D warnings"
    cargo clippy --workspace --all-targets --offline -- -D warnings
else
    echo "==> cargo clippy not installed; skipping lint check"
fi

echo "==> cargo build --release --offline"
cargo build --release --offline

echo "==> cargo build --offline --examples"
cargo build --offline --examples

echo "==> cargo test -q --offline --workspace"
cargo test -q --offline --workspace

# `cargo test --workspace` above already ran every test once. The stages
# below add only what it cannot: fixed-seed reruns of the randomized fault
# properties, the self-validating examples, and the artifacts they export.

# Pinned-seed fault runs. The chaos property (random corruption composed
# with finite and permanent stalls — every sweep must terminate before its
# deadline on the fake clock) and the crash matrix (seeded kill points at
# journal frame boundaries ±1 and random interior bytes, each resuming to a
# byte-identical result digest, plus the bit-flip generation fallback over
# two appended generations — `append` is the store's only write path) run
# again under fixed seeds so CI failures reproduce byte-for-byte. Override
# with FAULT_SEED=<n> to explore a different schedule.
echo "==> pinned-seed fault runs (chaos sweeps, crash matrix)"
FAULT_SEED="${FAULT_SEED:-20260807}" cargo test -q --offline --test properties \
    fault_chaos_sweeps_always_terminate_with_consistent_health
FAULT_SEED="${FAULT_SEED:-20260809}" cargo test -q --offline --test properties \
    -- fault_crash_matrix fault_bit_flipped

# Self-validating examples: each asserts its own scenario end to end and
# re-reads what it exported, so running it green IS the check; the file
# tests only confirm the artifacts landed. Every example runs with
# STRIDER_BENCH_DIR pointing at the scratch directory, so no export ever
# lands in the checkout.
#   monitor    — flight recorder, Chrome trace (one tid per pipeline),
#                SCAN_TELEMETRY_* schema keys;
#   alerting   — the Pending→Firing→Resolved lifecycle and its
#                TELEMETRY_EXPO_* file;
#   fleet_scan — the work-stealing scheduler, and the fleet monitor
#                judging what that scheduler swept;
#   durability — kill mid-journal, resume, compare digests, flip a bit,
#                fall back a generation;
#   evasion    — naive sweep loses, hardened monitor raises
#                EvasionSuspected with flight evidence;
#   profiling  — the quorum tax decomposed into work/wait/alloc and the
#                64-machine fleet merged into one Chrome trace.
echo "==> self-validating examples"
OBS_DIR="$(mktemp -d)"
trap 'rm -rf "$OBS_DIR"' EXIT
STRIDER_BENCH_DIR="$OBS_DIR" cargo run -q --offline --example monitor
test -f "$OBS_DIR/SCAN_TELEMETRY_monitor.json"
test -f "$OBS_DIR/SCAN_TRACE_monitor.json"
STRIDER_BENCH_DIR="$OBS_DIR" cargo run -q --offline --example alerting >/dev/null
test -f "$OBS_DIR/TELEMETRY_EXPO_alerting.prom"
STRIDER_BENCH_DIR="$OBS_DIR" cargo run -q --offline --example fleet_scan >/dev/null
STRIDER_BENCH_DIR="$OBS_DIR" cargo run -q --offline --example durability >/dev/null
STRIDER_BENCH_DIR="$OBS_DIR" cargo run -q --offline --example evasion >/dev/null
STRIDER_BENCH_DIR="$OBS_DIR" cargo run -q --offline --example profiling >/dev/null
test -f "$OBS_DIR/SCAN_PERF_hardened.json"
test -f "$OBS_DIR/FLEET_TRACE_fleet64.json"

# Paper figures, byte for byte: every table and figure is deterministic
# (seeded workloads, logical clock, modelled scan times), so any diff
# against the committed output is a behaviour change to explain.
echo "==> paper_tables all vs docs/paper_tables_output.txt"
cargo run -q --release --offline -p strider-bench --bin paper_tables -- all \
    >"$OBS_DIR/paper_tables_output.txt"
diff -u docs/paper_tables_output.txt "$OBS_DIR/paper_tables_output.txt"

# Bench gate smoke run: the committed BENCH_*.json baselines diffed
# against themselves must pass the regression gate.
echo "==> bench_diff smoke run"
scripts/bench_diff >/dev/null

# Fresh scan gate: re-run the file, registry and process scan benches,
# the Fig. 3/4/6 and cross-time baseline benches, the advanced-mode
# ablation, the injection extensions, the outside-the-box false-positive
# flows and the Unix rootkits in FAST mode and diff them against the
# committed BENCH_<group>.json. All eleven scan on the calling thread, so
# their alloc columns are complete (the one whole-sweep row,
# cross_view/full_sweep_infected, counts its calling thread only, which
# is still deterministic). The evasion and fleet_scan groups stay
# ungated until their alloc columns count every thread.
# Allocs and bytes per op are deterministic (a FAST run matches the
# full-mode counts to the allocation), so they keep the default 2%
# threshold. FAST timings are a few 20 ms samples on a possibly shared
# host and have measured up to 2.4x the committed means with no code
# change, so time only fails past 4x the baseline (--time-frac 3): a
# gross regression, not noise.
for bench in time_file_scan time_registry_scan time_process_scan \
    fig3_hidden_files fig4_hidden_asep fig6_hidden_procs baseline_crosstime \
    ablation_advanced ext_injection fp_outside linux_rootkits; do
    echo "==> fresh $bench bench"
    STRIDER_BENCH_FAST=1 STRIDER_BENCH_DIR="$OBS_DIR" cargo bench -q --offline \
        -p strider-bench --bench "$bench" >"$OBS_DIR/$bench.log" 2>&1 ||
        { cat "$OBS_DIR/$bench.log"; exit 1; }
done
echo "==> fresh scan benches vs committed BENCH_*.json"
scripts/bench_diff --baseline . --fresh "$OBS_DIR" --time-frac 3

# The repo benchmark lives outside the workspace (its own Cargo.toml), so
# nothing above compiles it: a public-API change in crates/* could break
# it unseen. Build it and run its own tests against the current crates.
echo "==> benchmark/ build + tests"
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test -q --offline --manifest-path benchmark/Cargo.toml

# Rustdoc gate: the public-facing crates must document cleanly — broken
# intra-doc links or missing docs on public items fail the build here, not
# on docs.rs.
echo "==> cargo doc --offline --no-deps (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps -q \
    -p strider-fleet -p strider-ghostbuster -p strider-support \
    -p strider-ghostbuster-repro

echo "==> OK"
