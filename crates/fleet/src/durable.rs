//! The fleet's durable state plane and self-healing policy.
//!
//! A durable fleet sweep journals its progress into a
//! [`RecordStore`](strider_support::store::RecordStore) so the process can
//! be killed at *any* byte of *any* write and a restarted process resumes
//! to the same merged result. The journal is a write-ahead log
//! ([`DurabilityMode::WalAppend`]): one base record holding the fresh
//! [`FleetCheckpoint`], then one O(1) appended record per completed shard,
//! so per-shard cost is independent of fleet size.
//!
//! Recovery (`recover_state`) replays the journal: the last intact
//! `fleet` record is the base, and every later `shard` / `quarantine`
//! record overlays it in order. Torn tails and bit flips are absorbed one
//! layer down by the record store's checksums and generation fallback —
//! by the time records reach this module they are intact.

use crate::registry::FleetRegistry;
use crate::report::{CheckpointMismatch, FleetCheckpoint};
use std::collections::BTreeMap;
use std::fmt;
use std::io;
use strider_ghostbuster::SweepCheckpoint;
use strider_nt_core::NtStatus;
use strider_support::json::{FromJson, JsonError, JsonValue, ToJson};
use strider_support::obs::FlightDump;
use strider_support::rng::SplitMix64;
use strider_support::store::RecordStore;

/// How a durable sweep persists per-shard completions. The write-ahead
/// log is the only shape; the parameter remains for API stability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DurabilityMode {
    /// Append one journal record per completed shard — O(1) per shard.
    #[default]
    WalAppend,
}

/// The self-healing budget for one fleet sweep: how many attempts each
/// shard gets, and how the scheduler backs off between them.
///
/// An attempt *fails* when the scanner cannot enter the machine at all or
/// any pipeline ends degraded. Before a retry the shard's checkpointed
/// degraded pipelines are cleared so they re-run; the worker then sleeps
/// an exponential backoff (seeded jitter, through the policy clock) and
/// tries again. A shard that fails every attempt is quarantined: surfaced
/// in the report with flight-recorder evidence, never silently dropped
/// and never an `Err` that sinks the rest of the fleet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetHealPolicy {
    /// Attempts per shard before quarantine (≥ 1).
    pub max_attempts: u32,
    /// First backoff duration; doubles each failed attempt.
    pub backoff_base_ns: u64,
    /// Backoff ceiling.
    pub backoff_max_ns: u64,
    /// Seed for the per-shard backoff jitter (up to +25%), so concurrent
    /// retries don't stampede in lockstep.
    pub jitter_seed: u64,
}

impl Default for FleetHealPolicy {
    fn default() -> Self {
        FleetHealPolicy {
            max_attempts: 3,
            backoff_base_ns: 1_000_000,  // 1 ms
            backoff_max_ns: 100_000_000, // 100 ms
            jitter_seed: 0x5eed_4ea1,
        }
    }
}

impl FleetHealPolicy {
    /// Sets the per-shard attempt budget (clamped to ≥ 1).
    pub fn with_max_attempts(mut self, attempts: u32) -> Self {
        self.max_attempts = attempts.max(1);
        self
    }

    /// Sets the backoff window.
    pub fn with_backoff(mut self, base_ns: u64, max_ns: u64) -> Self {
        self.backoff_base_ns = base_ns;
        self.backoff_max_ns = max_ns.max(base_ns);
        self
    }

    /// The backoff to sleep after `attempt` (1-based) failed on `shard`:
    /// `min(base << (attempt-1), max)` plus up to 25% seeded jitter,
    /// saturating at `u64::MAX`.
    pub fn backoff_ns(&self, shard: u32, attempt: u32) -> u64 {
        let doublings = attempt.saturating_sub(1).min(32);
        let exp = self
            .backoff_base_ns
            .saturating_mul(1u64 << doublings)
            .min(self.backoff_max_ns);
        let mut rng = SplitMix64::seed_from_u64(
            self.jitter_seed ^ (u64::from(shard) << 32) ^ u64::from(attempt),
        );
        exp.saturating_add(rng.next_below(exp / 4 + 1))
    }
}

/// A quarantine entry as journaled and recovered: which shard, how many
/// attempts it burned, why the last one failed, and the flight-recorder
/// evidence (one fault event per failed attempt).
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantineRecord {
    /// The quarantined shard's index.
    pub shard: u32,
    /// The machine's name, for operator triage without the registry.
    pub machine: String,
    /// Attempts burned before giving up.
    pub attempts: u32,
    /// Why the final attempt failed.
    pub reason: String,
    /// Flight-recorder evidence captured across the attempts.
    pub evidence: FlightDump,
}

strider_support::impl_json!(struct QuarantineRecord { shard, machine, attempts, reason, evidence });

/// Everything a durable store knows about an interrupted sweep: the
/// merged checkpoint and the shards already fenced off.
#[derive(Debug, Clone, PartialEq)]
pub struct DurableFleetState {
    /// The merged per-shard progress.
    pub checkpoint: FleetCheckpoint,
    /// Quarantined shards, keyed by shard index.
    pub quarantined: BTreeMap<u32, QuarantineRecord>,
}

/// Why a durable sweep or resume failed.
#[derive(Debug)]
pub enum DurableSweepError {
    /// The store could not be read or written. An injected-crash error
    /// ([`strider_support::fault::CrashPlan`]) lands here too — check
    /// [`DurableSweepError::is_injected_crash`].
    Io(io::Error),
    /// The store's checkpoint describes a different fleet.
    Mismatch(CheckpointMismatch),
    /// The sweep itself failed (bad parameters, cancelled scope).
    Fleet(NtStatus),
    /// A journal record's payload did not parse — the store's checksums
    /// passed, so this means a writer bug, not disk damage.
    Corrupt(JsonError),
}

impl DurableSweepError {
    /// Whether this error is a [`CrashPlan`]-injected kill — the signal
    /// crash-matrix tests use to tell a simulated death from a real bug.
    ///
    /// [`CrashPlan`]: strider_support::fault::CrashPlan
    pub fn is_injected_crash(&self) -> bool {
        matches!(self, DurableSweepError::Io(e) if strider_support::fault::CrashPlan::is_crash(e))
    }
}

impl fmt::Display for DurableSweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableSweepError::Io(e) => write!(f, "durable store I/O failed: {e}"),
            DurableSweepError::Mismatch(m) => write!(f, "checkpoint rejected: {m}"),
            DurableSweepError::Fleet(s) => write!(f, "fleet sweep failed: {s:?}"),
            DurableSweepError::Corrupt(e) => write!(f, "journal record did not parse: {e}"),
        }
    }
}

impl std::error::Error for DurableSweepError {}

impl From<io::Error> for DurableSweepError {
    fn from(e: io::Error) -> Self {
        DurableSweepError::Io(e)
    }
}

impl From<CheckpointMismatch> for DurableSweepError {
    fn from(m: CheckpointMismatch) -> Self {
        DurableSweepError::Mismatch(m)
    }
}

/// Renders the journal's base record: the merged checkpoint plus the
/// quarantine set, written once at sweep start.
pub(crate) fn fleet_record(
    checkpoint: &FleetCheckpoint,
    quarantined: &BTreeMap<u32, QuarantineRecord>,
) -> String {
    JsonValue::Obj(vec![
        ("kind".to_string(), JsonValue::Str("fleet".to_string())),
        ("checkpoint".to_string(), checkpoint.to_json()),
        (
            "quarantined".to_string(),
            JsonValue::Arr(quarantined.values().map(ToJson::to_json).collect()),
        ),
    ])
    .render()
}

/// Renders a per-shard completion record.
pub(crate) fn shard_record(shard: u32, checkpoint: &SweepCheckpoint) -> String {
    JsonValue::Obj(vec![
        ("kind".to_string(), JsonValue::Str("shard".to_string())),
        ("shard".to_string(), JsonValue::UInt(u64::from(shard))),
        ("checkpoint".to_string(), checkpoint.to_json()),
    ])
    .render()
}

/// Renders a quarantine record.
pub(crate) fn quarantine_record(record: &QuarantineRecord) -> String {
    JsonValue::Obj(vec![
        ("kind".to_string(), JsonValue::Str("quarantine".to_string())),
        ("record".to_string(), record.to_json()),
    ])
    .render()
}

/// Replays a durable store into the fleet state it describes: the last
/// intact `fleet` base record with every later `shard` / `quarantine`
/// record overlaid in journal order. `Ok(None)` means the store holds no
/// usable base — a cold start.
///
/// # Errors
///
/// Propagates store I/O failures; reports
/// [`DurableSweepError::Corrupt`] when a checksummed record's payload is
/// not the JSON this module writes.
fn recover_state(store: &RecordStore) -> Result<Option<DurableFleetState>, DurableSweepError> {
    let recovered = store.recover()?;
    let mut parsed = Vec::with_capacity(recovered.records.len());
    for record in &recovered.records {
        let text = String::from_utf8_lossy(&record.payload);
        parsed.push(JsonValue::parse(&text).map_err(DurableSweepError::Corrupt)?);
    }
    let Some(base_at) = parsed
        .iter()
        .rposition(|v| matches!(v.field("kind").and_then(JsonValue::as_str), Ok("fleet")))
    else {
        return Ok(None);
    };
    let base = &parsed[base_at];
    let mut state = DurableFleetState {
        checkpoint: FleetCheckpoint::from_json(
            base.field("checkpoint")
                .map_err(DurableSweepError::Corrupt)?,
        )
        .map_err(DurableSweepError::Corrupt)?,
        quarantined: BTreeMap::new(),
    };
    for q in Vec::<QuarantineRecord>::from_json(
        base.field("quarantined")
            .map_err(DurableSweepError::Corrupt)?,
    )
    .map_err(DurableSweepError::Corrupt)?
    {
        state.quarantined.insert(q.shard, q);
    }
    for entry in &parsed[base_at + 1..] {
        match entry.field("kind").and_then(JsonValue::as_str) {
            Ok("shard") => {
                let shard = entry
                    .field("shard")
                    .and_then(JsonValue::as_u64)
                    .map_err(DurableSweepError::Corrupt)? as usize;
                let cp = SweepCheckpoint::from_json(
                    entry
                        .field("checkpoint")
                        .map_err(DurableSweepError::Corrupt)?,
                )
                .map_err(DurableSweepError::Corrupt)?;
                if shard < state.checkpoint.shards.len() {
                    state.checkpoint.shards[shard] = cp;
                }
            }
            Ok("quarantine") => {
                let q = QuarantineRecord::from_json(
                    entry.field("record").map_err(DurableSweepError::Corrupt)?,
                )
                .map_err(DurableSweepError::Corrupt)?;
                state.quarantined.insert(q.shard, q);
            }
            _ => {
                return Err(DurableSweepError::Corrupt(JsonError(
                    "journal record with unknown kind".to_string(),
                )))
            }
        }
    }
    Ok(Some(state))
}

impl FleetCheckpoint {
    /// Recovers the durable state of an interrupted sweep from `store`
    /// and validates it against the live fleet. `Ok(None)` means a cold
    /// start (no usable base record).
    ///
    /// # Errors
    ///
    /// [`DurableSweepError::Mismatch`] when the recovered checkpoint's
    /// fleet seed, size, or machine names do not match `fleet`;
    /// [`DurableSweepError::Io`] / [`DurableSweepError::Corrupt`] when
    /// the store cannot be replayed.
    pub fn resume(
        fleet: &FleetRegistry,
        store: &RecordStore,
    ) -> Result<Option<DurableFleetState>, DurableSweepError> {
        let Some(state) = recover_state(store)? else {
            return Ok(None);
        };
        state.checkpoint.validate(fleet)?;
        Ok(Some(state))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::FleetSpec;

    fn tmp_store(name: &str) -> (std::path::PathBuf, RecordStore) {
        let dir =
            std::env::temp_dir().join(format!("strider-durable-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let store = RecordStore::open(dir.join("fleet.wal")).unwrap();
        (dir, store)
    }

    #[test]
    fn wal_replay_overlays_shard_and_quarantine_records() {
        let fleet = FleetRegistry::seeded(&FleetSpec::clean(3, 7)).unwrap();
        let (dir, store) = tmp_store("replay");
        let base = FleetCheckpoint::new(&fleet);
        store
            .append(fleet_record(&base, &BTreeMap::new()).as_bytes())
            .unwrap();
        // Journal shard 1's progress and a quarantine of shard 2.
        store
            .append(shard_record(1, &base.shards[1]).as_bytes())
            .unwrap();
        let q = QuarantineRecord {
            shard: 2,
            machine: base.machines[2].clone(),
            attempts: 3,
            reason: "files pipeline degraded".to_string(),
            evidence: FlightDump::default(),
        };
        store.append(quarantine_record(&q).as_bytes()).unwrap();

        let state = FleetCheckpoint::resume(&fleet, &store).unwrap().unwrap();
        assert_eq!(state.checkpoint.shards.len(), 3);
        assert_eq!(
            state.quarantined.keys().copied().collect::<Vec<_>>(),
            vec![2]
        );
        assert_eq!(state.quarantined[&2].reason, "files pipeline degraded");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn resume_rejects_a_foreign_fleet_with_a_typed_error() {
        let a = FleetRegistry::seeded(&FleetSpec::clean(3, 1)).unwrap();
        let b = FleetRegistry::seeded(&FleetSpec::clean(3, 2)).unwrap();
        let (dir, store) = tmp_store("foreign");
        store
            .append(fleet_record(&FleetCheckpoint::new(&a), &BTreeMap::new()).as_bytes())
            .unwrap();
        match FleetCheckpoint::resume(&b, &store) {
            Err(DurableSweepError::Mismatch(CheckpointMismatch::Seed { recorded, live })) => {
                assert_eq!((recorded, live), (1, 2));
            }
            other => panic!("expected a seed mismatch, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn empty_store_is_a_cold_start() {
        let fleet = FleetRegistry::seeded(&FleetSpec::clean(2, 5)).unwrap();
        let (dir, store) = tmp_store("cold");
        assert!(FleetCheckpoint::resume(&fleet, &store).unwrap().is_none());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn backoff_doubles_and_caps_with_jitter() {
        let policy = FleetHealPolicy::default().with_backoff(1_000, 8_000);
        let b1 = policy.backoff_ns(0, 1);
        let b2 = policy.backoff_ns(0, 2);
        let b4 = policy.backoff_ns(0, 4);
        assert!((1_000..=1_250).contains(&b1), "{b1}");
        assert!((2_000..=2_500).contains(&b2), "{b2}");
        assert!((8_000..=10_000).contains(&b4), "capped: {b4}");
        // Deterministic for equal (shard, attempt); different across shards.
        assert_eq!(policy.backoff_ns(3, 2), policy.backoff_ns(3, 2));
    }

    #[test]
    fn backoff_saturates_instead_of_overflowing() {
        // The jitter on top of a maxed-out window must clamp, not wrap
        // to a tiny backoff (or panic in a debug build).
        let policy = FleetHealPolicy::default().with_backoff(u64::MAX, u64::MAX);
        for shard in 0..4 {
            for attempt in [1, 2, 40] {
                assert_eq!(policy.backoff_ns(shard, attempt), u64::MAX);
            }
        }
    }
}
