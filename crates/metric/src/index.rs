//! The query interface shared by GTS and every baseline.
//!
//! Both query types of the paper (§3) are exposed: the metric range query
//! `MRQ(q, r)` (Definition 3.1) and the metric k-nearest-neighbour query
//! `MkNNQ(q, k)` (Definition 3.2). Batch entry points exist because the
//! paper's headline metric is *throughput of concurrent queries*; indexes
//! that have a genuine batch path (GTS, the GPU baselines) override them,
//! CPU baselines fall back to a loop.

use crate::dist::Metric;
use std::fmt;

/// One query answer: an object id and its distance to the query.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Neighbor {
    /// Identifier of the matching object (index into the dataset).
    pub id: u32,
    /// Distance from the query to the object.
    pub dist: f64,
}

impl Neighbor {
    /// Construct a neighbour.
    pub fn new(id: u32, dist: f64) -> Self {
        Neighbor { id, dist }
    }
}

/// Sort answers by `(dist, id)`; canonical form used in tests and reports.
pub fn sort_neighbors(v: &mut [Neighbor]) {
    v.sort_by(|a, b| {
        a.dist
            .partial_cmp(&b.dist)
            .expect("NaN distance")
            .then(a.id.cmp(&b.id))
    });
}

/// The exact top-`k` pool every kNN path shares: one query's running `k`
/// best distinct ids in canonical ascending `(dist, id)` order, whose k-th
/// distance is the pruning bound `d(q, k_cur)` of Lemma 5.2. The GTS
/// descent, the cache-table and per-shard merges, multi-column search and
/// the tree baselines all select through it, so every exact method breaks
/// ties by the one rule the sharded merge relies on.
#[derive(Clone, Debug)]
pub struct TopK {
    k: usize,
    items: Vec<Neighbor>, // ascending (dist, id), length ≤ k, unique ids
    /// A NaN distance entered the pool (a broken metric): `items` is then
    /// no longer ordered, so the fast reject — which reads the last item as
    /// the maximum — is off.
    unordered: bool,
}

impl TopK {
    /// An empty pool keeping the `k` best candidates.
    pub fn new(k: usize) -> TopK {
        TopK {
            k,
            items: Vec::with_capacity(k.min(1024)),
            unordered: false,
        }
    }

    /// Insert a candidate, keeping the k best distinct object ids.
    pub fn insert(&mut self, n: Neighbor) {
        // Fast reject: a full, ordered pool's last item is its maximum, so a
        // candidate at or past it is either that very id or sorts after all
        // k items — the common case once the bound has settled.
        if self.items.len() == self.k
            && !self.unordered
            && self
                .items
                .last()
                .is_none_or(|last| (last.dist, last.id) <= (n.dist, n.id))
        {
            return;
        }
        if self.items.iter().any(|x| x.id == n.id) {
            return;
        }
        let pos = self
            .items
            .partition_point(|x| (x.dist, x.id) < (n.dist, n.id));
        if pos >= self.k {
            return;
        }
        self.unordered |= n.dist.is_nan();
        self.items.insert(pos, n);
        self.items.truncate(self.k);
    }

    /// Current k-th-NN distance bound (∞ until k candidates are known).
    pub fn bound(&self) -> f64 {
        if self.items.len() == self.k {
            self.items.last().map_or(f64::INFINITY, |n| n.dist)
        } else {
            f64::INFINITY
        }
    }

    /// Final answers, canonical order.
    pub fn into_sorted(self) -> Vec<Neighbor> {
        self.items
    }
}

impl Extend<Neighbor> for TopK {
    fn extend<I: IntoIterator<Item = Neighbor>>(&mut self, candidates: I) {
        for n in candidates {
            self.insert(n);
        }
    }
}

/// Errors surfaced by index construction and querying.
///
/// `OutOfMemory` models the paper's observed failures: EGNAT/GANNS during
/// construction on T-Loc (Table 4), GPU-Tree's memory deadlock at 512
/// concurrent queries on Color (Fig. 9), LBPG at 80% cardinality on Color
/// (Fig. 11).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IndexError {
    /// A device or host memory budget was exceeded.
    OutOfMemory {
        /// Bytes the operation tried to hold.
        requested: u64,
        /// Bytes available under the budget.
        available: u64,
        /// What ran out (e.g. "device global memory", "host budget").
        context: &'static str,
    },
    /// The index does not support this dataset / metric / operation
    /// (e.g. LBPG-Tree on edit distance, GANNS range queries).
    Unsupported(&'static str),
    /// Attempt to query an index holding no objects.
    EmptyIndex,
    /// The query batch is malformed (e.g. one radius missing); rejected
    /// before any device work.
    InvalidQuery(&'static str),
    /// An object offered to build or insert cannot be indexed (e.g. a NaN
    /// coordinate, or a dimension unlike the stored objects'); rejected
    /// before the index changes.
    InvalidObject(&'static str),
}

/// Check that a batched range query supplies exactly one radius per query,
/// and that none is NaN (no distance compares within a NaN radius).
pub fn check_radii<O>(queries: &[O], radii: &[f64]) -> Result<(), IndexError> {
    if queries.len() != radii.len() {
        Err(IndexError::InvalidQuery(
            "batch_range needs one radius per query",
        ))
    } else if radii.iter().any(|r| r.is_nan()) {
        Err(IndexError::InvalidQuery("a range radius is NaN"))
    } else {
        Ok(())
    }
}

/// Why `metric` cannot measure one of `items` against `stored`, if it
/// cannot: a payload it does not accept, or a shape unlike `stored`'s.
fn misfit<O, M: Metric<O>>(metric: &M, items: &[O], stored: Option<&O>) -> Option<&'static str> {
    if !items.iter().all(|o| metric.accepts(o)) {
        Some("payload does not fit the index metric")
    } else if !items
        .iter()
        .all(|o| stored.is_none_or(|s| metric.comparable(o, s)))
    {
        Some("shape differs from the indexed objects")
    } else {
        None
    }
}

/// Check that `metric` can measure every query against `stored`, one of
/// the indexed objects (e.g. no text query against a vector index, no
/// vector query with a NaN coordinate or another dimension).
pub fn check_queries<O, M: Metric<O>>(
    metric: &M,
    queries: &[O],
    stored: Option<&O>,
) -> Result<(), IndexError> {
    misfit(metric, queries, stored).map_or(Ok(()), |why| Err(IndexError::InvalidQuery(why)))
}

/// Check that `metric` can index every object of `objects`, each
/// comparable with `stored` (the first object when `None`): the same test
/// as [`check_queries`], run before a build or an insert changes anything.
pub fn check_objects<O, M: Metric<O>>(
    metric: &M,
    objects: &[O],
    stored: Option<&O>,
) -> Result<(), IndexError> {
    misfit(metric, objects, stored.or(objects.first()))
        .map_or(Ok(()), |why| Err(IndexError::InvalidObject(why)))
}

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexError::OutOfMemory {
                requested,
                available,
                context,
            } => write!(
                f,
                "out of memory in {context}: requested {requested} B, available {available} B"
            ),
            IndexError::Unsupported(what) => write!(f, "unsupported operation: {what}"),
            IndexError::EmptyIndex => write!(f, "index is empty"),
            IndexError::InvalidQuery(what) => write!(f, "invalid query: {what}"),
            IndexError::InvalidObject(what) => write!(f, "invalid object: {what}"),
        }
    }
}

impl std::error::Error for IndexError {}

/// A similarity-search index over objects of type `O`.
pub trait SimilarityIndex<O> {
    /// Short method name as used in the paper's tables ("GTS", "MVPT", ...).
    fn name(&self) -> &'static str;

    /// Number of (live) indexed objects.
    fn len(&self) -> usize;

    /// True when no live objects are indexed.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Metric range query `MRQ(q, r)`: all objects within distance `r` of
    /// `q`, in canonical `(dist, id)` order.
    fn range_query(&self, q: &O, r: f64) -> Result<Vec<Neighbor>, IndexError>;

    /// Metric kNN query `MkNNQ(q, k)`: the `k` nearest objects, in canonical
    /// order. Returns fewer than `k` answers only when fewer objects exist.
    fn knn_query(&self, q: &O, k: usize) -> Result<Vec<Neighbor>, IndexError>;

    /// Batch MRQ over `queries[i]` with radius `radii[i]`.
    fn batch_range(&self, queries: &[O], radii: &[f64]) -> Result<Vec<Vec<Neighbor>>, IndexError> {
        check_radii(queries, radii)?;
        queries
            .iter()
            .zip(radii)
            .map(|(q, &r)| self.range_query(q, r))
            .collect()
    }

    /// Batch MkNNQ with a common `k`.
    fn batch_knn(&self, queries: &[O], k: usize) -> Result<Vec<Vec<Neighbor>>, IndexError> {
        queries.iter().map(|q| self.knn_query(q, k)).collect()
    }

    /// Total bytes attributable to the index structure (Table 4 storage
    /// column; excludes the raw dataset itself, which all methods share).
    fn memory_bytes(&self) -> u64;

    /// False for approximate methods (GANNS); used by the harness to report
    /// recall instead of treating mismatches as bugs.
    fn is_exact(&self) -> bool {
        true
    }
}

/// Indexes supporting the paper's dynamic scenarios (§4.4): streaming
/// insertions/deletions and bulk batch updates.
pub trait DynamicIndex<O>: SimilarityIndex<O> {
    /// Insert a new object, returning its assigned id.
    fn insert(&mut self, obj: O) -> Result<u32, IndexError>;

    /// Delete object `id`. Returns `false` if it was already absent.
    fn remove(&mut self, id: u32) -> Result<bool, IndexError>;

    /// Apply a large batch of updates at once (the paper's batch-update
    /// path; GTS and the rebuild-based baselines reconstruct here).
    fn batch_update(&mut self, insertions: Vec<O>, deletions: &[u32]) -> Result<(), IndexError> {
        for &d in deletions {
            self.remove(d)?;
        }
        for o in insertions {
            self.insert(o)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neighbor_sorting_is_total_and_deterministic() {
        let mut v = vec![
            Neighbor::new(3, 1.0),
            Neighbor::new(1, 0.5),
            Neighbor::new(2, 1.0),
        ];
        sort_neighbors(&mut v);
        assert_eq!(
            v.iter().map(|n| n.id).collect::<Vec<_>>(),
            vec![1, 2, 3],
            "ties broken by id"
        );
    }

    #[test]
    fn topk_keeps_k_best_unique() {
        let mut t = TopK::new(2);
        assert_eq!(t.bound(), f64::INFINITY);
        t.insert(Neighbor::new(1, 5.0));
        assert_eq!(t.bound(), f64::INFINITY, "not full yet");
        t.insert(Neighbor::new(2, 3.0));
        assert_eq!(t.bound(), 5.0);
        t.insert(Neighbor::new(2, 3.0)); // duplicate id ignored
        assert_eq!(t.bound(), 5.0);
        t.insert(Neighbor::new(3, 1.0));
        assert_eq!(t.bound(), 3.0);
        let out = t.into_sorted();
        assert_eq!(out.len(), 2);
        assert_eq!((out[0].id, out[1].id), (3, 2));
    }

    #[test]
    fn topk_zero_k() {
        let mut t = TopK::new(0);
        t.insert(Neighbor::new(1, 1.0));
        assert!(t.into_sorted().is_empty());
    }

    /// `TopK::insert` as it was before the fast reject, kept as the
    /// reference the property below compares against.
    fn reference_insert(items: &mut Vec<Neighbor>, k: usize, n: Neighbor) {
        if k == 0 || items.iter().any(|x| x.id == n.id) {
            return;
        }
        let pos = items.partition_point(|x| (x.dist, x.id) < (n.dist, n.id));
        if pos >= k {
            return;
        }
        items.insert(pos, n);
        items.truncate(k);
    }

    proptest::proptest! {
        /// The fast reject changes no pool: over duplicate ids, exact
        /// `(dist, id)` ties, k ∈ {0, 1, 8}, and ∞ / NaN distances (a NaN in
        /// the pool unorders it, which must switch the fast reject off).
        #[test]
        fn fast_reject_insert_equals_reference(
            k_sel in 0usize..3,
            ids in proptest::collection::vec(0u32..24, 96),
            codes in proptest::collection::vec(0u32..16, 96),
        ) {
            let k = [0usize, 1, 8][k_sel];
            let mut pool = TopK::new(k);
            let mut reference: Vec<Neighbor> = Vec::new();
            let bits = |v: &[Neighbor]| -> Vec<(u32, u64)> {
                v.iter().map(|n| (n.id, n.dist.to_bits())).collect()
            };
            for (&id, &code) in ids.iter().zip(&codes) {
                let dist = match code {
                    14 => f64::INFINITY,
                    15 => f64::NAN,
                    c => f64::from(c % 7) * 0.5, // few values: many exact ties
                };
                pool.insert(Neighbor::new(id, dist));
                reference_insert(&mut reference, k, Neighbor::new(id, dist));
                proptest::prop_assert_eq!(bits(&pool.items), bits(&reference));
            }
        }
    }

    #[test]
    fn error_display() {
        let e = IndexError::OutOfMemory {
            requested: 10,
            available: 5,
            context: "device global memory",
        };
        let s = e.to_string();
        assert!(s.contains("10 B") && s.contains("device global memory"));
        assert!(IndexError::Unsupported("x").to_string().contains('x'));
    }
}
