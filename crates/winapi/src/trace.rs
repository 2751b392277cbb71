//! Chain-traversal tracing: *where* in the hook chain a query's rows
//! mutated.
//!
//! GhostBuster's evidence is not just "this resource is hidden" but "the
//! high-level view lied" — and the lie happens at a specific [`Level`] of
//! the query chain (paper, Section 2, Figure 2). A [`ChainTrace`] records
//! one query's trip level by level ([`LevelHop`]: rows in, rows out,
//! mutated or not), and a [`ChainStats`] aggregates traces across a whole
//! scan so a telemetry span can carry `diverted_at = "NtdllCode"`-style
//! attribution.

use crate::hooks::Level;
use crate::machine::ChainEntry;
use crate::query::QueryKind;
use std::collections::BTreeMap;

/// One hook level's effect on a traced query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelHop {
    /// The level traversed.
    pub level: Level,
    /// Row count entering the level.
    pub rows_in: u64,
    /// Row count leaving the level.
    pub rows_out: u64,
    /// Whether the level changed the result: a filter at the level
    /// reported a drop, reorder or edit (so same-count substitutions are
    /// caught), or the row count changed (so a drop is caught even if a
    /// filter under-reports).
    pub mutated: bool,
}

strider_support::impl_json!(struct LevelHop { level, rows_in, rows_out, mutated });

/// One query's traced trip through the chain, from truth rows to the rows
/// the caller finally sees.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainTrace {
    /// What was enumerated.
    pub kind: QueryKind,
    /// How the query entered the chain.
    pub entry: ChainEntry,
    /// Row count produced by the substrate before any hook ran.
    pub truth_rows: u64,
    /// The levels traversed, resource side first.
    pub hops: Vec<LevelHop>,
    /// Whether Win32 marshalling changed the result on the way out
    /// (naming-rule hiding: trailing dots, reserved names, NUL tricks).
    pub marshal_mutated: bool,
    /// Row count the caller received.
    pub final_rows: u64,
}

strider_support::impl_json!(
    struct ChainTrace {
        kind,
        entry,
        truth_rows,
        hops,
        marshal_mutated,
        final_rows,
    }
);

impl ChainTrace {
    /// Whether any hook level (or marshalling) changed the result.
    pub fn diverted(&self) -> bool {
        self.marshal_mutated || self.hops.iter().any(|h| h.mutated)
    }

    /// The first (closest-to-the-resource) level whose hook changed the
    /// result — the paper's attribution of a lie to a chain layer.
    pub fn first_diverted_level(&self) -> Option<Level> {
        self.hops.iter().find(|h| h.mutated).map(|h| h.level)
    }
}

/// Aggregated [`ChainTrace`]s across a scan: how many queries ran, how
/// many were diverted, and at which levels.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChainStats {
    /// Queries traced.
    pub queries: u64,
    /// Queries whose result a hook or marshalling changed.
    pub diverted: u64,
    /// Queries changed by Win32 marshalling specifically.
    pub marshal_mutations: u64,
    /// Mutation counts keyed by the level's debug name (`"NtdllCode"`, …).
    pub mutations_by_level: BTreeMap<String, u64>,
}

strider_support::impl_json!(
    struct ChainStats {
        queries,
        diverted,
        marshal_mutations,
        mutations_by_level,
    }
);

impl ChainStats {
    /// Folds one trace into the aggregate.
    pub fn absorb(&mut self, trace: &ChainTrace) {
        self.queries += 1;
        if trace.diverted() {
            self.diverted += 1;
        }
        if trace.marshal_mutated {
            self.marshal_mutations += 1;
        }
        for hop in trace.hops.iter().filter(|h| h.mutated) {
            *self
                .mutations_by_level
                .entry(format!("{:?}", hop.level))
                .or_insert(0) += 1;
        }
    }

    /// Merges another aggregate (e.g. per-directory stats into a per-scan
    /// total).
    pub fn merge(&mut self, other: &ChainStats) {
        self.queries += other.queries;
        self.diverted += other.diverted;
        self.marshal_mutations += other.marshal_mutations;
        for (level, count) in &other.mutations_by_level {
            *self.mutations_by_level.entry(level.clone()).or_insert(0) += count;
        }
    }

    /// The level that mutated the most queries — what a telemetry span
    /// reports as `diverted_at`. Ties break toward the alphabetically
    /// first name, deterministically.
    pub fn dominant_level(&self) -> Option<&str> {
        self.mutations_by_level
            .iter()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
            .map(|(level, _)| level.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strider_support::json::{FromJson, JsonValue, ToJson};

    fn hop(level: Level, rows_in: u64, rows_out: u64, mutated: bool) -> LevelHop {
        LevelHop {
            level,
            rows_in,
            rows_out,
            mutated,
        }
    }

    fn sample_trace() -> ChainTrace {
        ChainTrace {
            kind: QueryKind::Files,
            entry: ChainEntry::Win32,
            truth_rows: 10,
            hops: vec![
                hop(Level::FilterDriver, 10, 10, false),
                hop(Level::Ssdt, 10, 10, false),
                hop(Level::NtdllCode, 10, 9, true),
                hop(Level::Iat, 9, 9, false),
            ],
            marshal_mutated: false,
            final_rows: 9,
        }
    }

    #[test]
    fn divergence_attributes_to_first_mutating_level() {
        let trace = sample_trace();
        assert!(trace.diverted());
        assert_eq!(trace.first_diverted_level(), Some(Level::NtdllCode));

        let clean = ChainTrace {
            hops: vec![hop(Level::Ssdt, 10, 10, false)],
            marshal_mutated: false,
            ..sample_trace()
        };
        assert!(!clean.diverted());
        assert_eq!(clean.first_diverted_level(), None);

        let marshal_only = ChainTrace {
            hops: vec![],
            marshal_mutated: true,
            ..sample_trace()
        };
        assert!(marshal_only.diverted());
        assert_eq!(marshal_only.first_diverted_level(), None);
    }

    #[test]
    fn stats_absorb_and_merge() {
        let mut stats = ChainStats::default();
        stats.absorb(&sample_trace());
        stats.absorb(&ChainTrace {
            hops: vec![hop(Level::Iat, 5, 4, true)],
            ..sample_trace()
        });
        assert_eq!(stats.queries, 2);
        assert_eq!(stats.diverted, 2);
        assert_eq!(stats.mutations_by_level["NtdllCode"], 1);
        assert_eq!(stats.mutations_by_level["Iat"], 1);
        assert_eq!(stats.dominant_level(), Some("Iat"), "tie breaks low");

        let mut total = ChainStats::default();
        total.merge(&stats);
        total.merge(&stats);
        assert_eq!(total.queries, 4);
        assert_eq!(total.mutations_by_level["Iat"], 2);
    }

    #[test]
    fn dominant_level_tie_breaks_alphabetically() {
        let mut stats = ChainStats::default();
        stats.mutations_by_level.insert("Ssdt".into(), 3);
        stats.mutations_by_level.insert("Iat".into(), 3);
        assert_eq!(stats.dominant_level(), Some("Iat"));
    }

    #[test]
    fn trace_and_stats_round_trip_json() {
        let trace = sample_trace();
        let parsed =
            ChainTrace::from_json(&JsonValue::parse(&trace.to_json().render()).unwrap()).unwrap();
        assert_eq!(parsed, trace);

        let mut stats = ChainStats::default();
        stats.absorb(&trace);
        let parsed =
            ChainStats::from_json(&JsonValue::parse(&stats.to_json().render()).unwrap()).unwrap();
        assert_eq!(parsed, stats);
    }
}
