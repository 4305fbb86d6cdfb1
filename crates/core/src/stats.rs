//! Search statistics, for tests, ablations, and the experiment reports.

use std::sync::atomic::{AtomicU64, Ordering};

/// Counters accumulated over the lifetime of an index (reset explicitly).
#[derive(Debug, Default)]
pub struct SearchStats {
    /// Real metric-distance evaluations performed.
    pub distance_computations: AtomicU64,
    /// The subset of `distance_computations` spent by MkNNQ's seeding
    /// dive: the pivots below the root and the leaf objects of each query's
    /// greedy root-to-leaf descent, which fills its pool before the first
    /// prune. The root pivot's distance, which the root level needs anyway,
    /// is not counted here.
    pub seed_distances: AtomicU64,
    /// Tree nodes pruned by Lemma 5.1/5.2 ring tests.
    pub nodes_pruned: AtomicU64,
    /// Tree nodes expanded (survived pruning).
    pub nodes_expanded: AtomicU64,
    /// Leaf table entries skipped by the stored-distance filter.
    pub leaf_filtered: AtomicU64,
    /// Leaf table entries verified with a real distance computation.
    pub leaf_verified: AtomicU64,
    /// Leaf verifications the bounded kernel answered `None` (`d > bound`).
    /// A subset of `leaf_verified`. Under edit distance each one is charged
    /// the modelled Ukkonen band's work; a vector metric has no early
    /// exit, so there this is simply the verified objects that lay beyond
    /// the bound.
    pub leaf_abandoned: AtomicU64,
    /// Query groups formed by the two-stage memory strategy.
    pub groups_formed: AtomicU64,
    /// Largest intermediate frontier (entries) seen.
    pub max_frontier: AtomicU64,
}

impl SearchStats {
    /// Reset all counters to zero.
    pub fn reset(&self) {
        for c in [
            &self.distance_computations,
            &self.seed_distances,
            &self.nodes_pruned,
            &self.nodes_expanded,
            &self.leaf_filtered,
            &self.leaf_verified,
            &self.leaf_abandoned,
            &self.groups_formed,
            &self.max_frontier,
        ] {
            c.store(0, Ordering::Relaxed);
        }
    }

    /// Plain-value snapshot.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            distance_computations: self.distance_computations.load(Ordering::Relaxed),
            seed_distances: self.seed_distances.load(Ordering::Relaxed),
            nodes_pruned: self.nodes_pruned.load(Ordering::Relaxed),
            nodes_expanded: self.nodes_expanded.load(Ordering::Relaxed),
            leaf_filtered: self.leaf_filtered.load(Ordering::Relaxed),
            leaf_verified: self.leaf_verified.load(Ordering::Relaxed),
            leaf_abandoned: self.leaf_abandoned.load(Ordering::Relaxed),
            groups_formed: self.groups_formed.load(Ordering::Relaxed),
            max_frontier: self.max_frontier.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn add(&self, counter: &AtomicU64, v: u64) {
        counter.fetch_add(v, Ordering::Relaxed);
    }

    pub(crate) fn max(&self, counter: &AtomicU64, v: u64) {
        counter.fetch_max(v, Ordering::Relaxed);
    }
}

/// Health and retry counters of a
/// [`ReplicatedShards`](crate::replica::ReplicatedShards) — the replication
/// companion to [`StatsSnapshot`] (which counts search work, not failures).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReplicaStats {
    /// Configured replicas.
    pub replicas: usize,
    /// Replicas whose devices are all currently healthy.
    pub healthy_replicas: usize,
    /// Shards with no healthy copy left on any replica — their requests
    /// fail fast with `ShardUnavailable`.
    pub dead_shards: usize,
    /// Re-run attempts after a failure (any cause): one per shard slice a
    /// query batch re-plans, one per repair attempt of an update.
    pub retries: u64,
    /// Failed attempts caused by injected device faults specifically.
    pub device_faults: u64,
    /// Failed attempts caused by non-device panics (e.g. a user metric
    /// blowing up); each also adds a soft-health strike against the replica.
    pub metric_panics: u64,
    /// Query batches whose first plan spans more than one replica — no
    /// replica held a healthy copy of every shard, so the answer was
    /// composed from surviving shard copies.
    pub degraded_calls: u64,
    /// Per-replica soft-health strikes (panic history used to deprioritize
    /// a replica in selection; never a permanent exclusion).
    pub strikes: Vec<u64>,
}

/// Plain-value copy of [`SearchStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Real metric-distance evaluations performed.
    pub distance_computations: u64,
    /// The subset of `distance_computations` spent by MkNNQ's seeding
    /// dive (see [`SearchStats::seed_distances`]).
    pub seed_distances: u64,
    /// Nodes pruned by ring tests.
    pub nodes_pruned: u64,
    /// Nodes expanded.
    pub nodes_expanded: u64,
    /// Leaf entries skipped by the stored-distance filter.
    pub leaf_filtered: u64,
    /// Leaf entries verified with a distance computation.
    pub leaf_verified: u64,
    /// Leaf verifications the bounded kernel answered `None` (`d > bound`).
    pub leaf_abandoned: u64,
    /// Query groups formed by the two-stage strategy.
    pub groups_formed: u64,
    /// Largest frontier seen.
    pub max_frontier: u64,
}

impl StatsSnapshot {
    /// Combine two snapshots from *different* index instances (the sharded
    /// aggregate): throughput counters sum; `max_frontier` maxes, because
    /// shard frontiers live on different devices and never coexist in one
    /// memory budget.
    pub fn combine(self, other: StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            distance_computations: self.distance_computations + other.distance_computations,
            seed_distances: self.seed_distances + other.seed_distances,
            nodes_pruned: self.nodes_pruned + other.nodes_pruned,
            nodes_expanded: self.nodes_expanded + other.nodes_expanded,
            leaf_filtered: self.leaf_filtered + other.leaf_filtered,
            leaf_verified: self.leaf_verified + other.leaf_verified,
            leaf_abandoned: self.leaf_abandoned + other.leaf_abandoned,
            groups_formed: self.groups_formed + other.groups_formed,
            max_frontier: self.max_frontier.max(other.max_frontier),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_and_snapshot() {
        let s = SearchStats::default();
        s.add(&s.distance_computations, 5);
        s.max(&s.max_frontier, 10);
        s.max(&s.max_frontier, 3);
        let snap = s.snapshot();
        assert_eq!(snap.distance_computations, 5);
        assert_eq!(snap.max_frontier, 10);
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn combine_sums_counters_and_maxes_frontier() {
        let a = StatsSnapshot {
            distance_computations: 5,
            seed_distances: 2,
            nodes_pruned: 1,
            nodes_expanded: 2,
            leaf_filtered: 3,
            leaf_verified: 4,
            leaf_abandoned: 0,
            groups_formed: 1,
            max_frontier: 10,
        };
        let b = StatsSnapshot {
            distance_computations: 7,
            seed_distances: 3,
            max_frontier: 4,
            ..StatsSnapshot::default()
        };
        let c = a.combine(b);
        assert_eq!(c.distance_computations, 12);
        assert_eq!(c.seed_distances, 5);
        assert_eq!(c.nodes_pruned, 1);
        assert_eq!(c.max_frontier, 10, "frontiers never coexist — max");
    }
}
