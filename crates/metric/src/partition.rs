//! Deterministic dataset partitioning for multi-device sharding.
//!
//! A [`Partitioner`] assigns every object id to one of `S` shards by a pure
//! function of the id — never of insertion time, host threads, or any other
//! ambient state — so a sharded index can route streaming updates to the
//! owning shard and a snapshot can be validated against the assignment it
//! was taken under. Two strategies ship:
//!
//! * [`PartitionStrategy::RoundRobin`] — `id mod S`. Consecutive ids land
//!   on consecutive shards, which balances both cardinality *and* insertion
//!   traffic (ids are assigned sequentially), and guarantees every shard is
//!   non-empty whenever `n ≥ S`.
//! * [`PartitionStrategy::Hash`] — Fibonacci multiplicative hash of the id,
//!   reduced mod `S`. Decorrelates shard assignment from id arithmetic
//!   (useful when ids carry structure, e.g. sorted ingest), at the price of
//!   only *statistical* balance.
//!
//! Either way, walking ids in ascending order yields ascending per-shard id
//! lists, so the local→global id mapping of every shard is monotone — the
//! property that makes per-shard `(distance, local id)` tie-breaking agree
//! with global `(distance, global id)` tie-breaking after remapping.

/// How object ids map to shards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PartitionStrategy {
    /// `id mod shards`: perfectly balanced, every shard non-empty for
    /// `n ≥ shards`.
    RoundRobin,
    /// Fibonacci multiplicative hash of the id, mod `shards`: statistically
    /// balanced, assignment independent of id arithmetic.
    Hash,
}

impl PartitionStrategy {
    /// Stable one-byte tag for snapshots.
    pub fn tag(self) -> u8 {
        match self {
            PartitionStrategy::RoundRobin => 0,
            PartitionStrategy::Hash => 1,
        }
    }

    /// Inverse of [`PartitionStrategy::tag`]; `None` for unknown tags.
    pub fn from_tag(tag: u8) -> Option<PartitionStrategy> {
        match tag {
            0 => Some(PartitionStrategy::RoundRobin),
            1 => Some(PartitionStrategy::Hash),
            _ => None,
        }
    }
}

/// A deterministic `id → shard` assignment over a fixed shard count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Partitioner {
    shards: u32,
    strategy: PartitionStrategy,
}

impl Partitioner {
    /// A partitioner over `shards ≥ 1` shards.
    pub fn new(shards: u32, strategy: PartitionStrategy) -> Partitioner {
        assert!(shards >= 1, "need at least one shard");
        Partitioner { shards, strategy }
    }

    /// Number of shards.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// The assignment strategy.
    pub fn strategy(&self) -> PartitionStrategy {
        self.strategy
    }

    /// The shard owning object `id` (always `< shards`).
    #[inline]
    pub fn shard_of(&self, id: u32) -> u32 {
        match self.strategy {
            PartitionStrategy::RoundRobin => id % self.shards,
            PartitionStrategy::Hash => {
                // Fibonacci multiplicative hash (2^64 / φ); keep the
                // well-mixed top bits before the mod.
                let h = u64::from(id).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                ((h >> 32) as u32) % self.shards
            }
        }
    }

    /// Split ids `0..n` into per-shard id lists, ascending within each
    /// shard (so every local→global mapping is monotone).
    pub fn split(&self, n: usize) -> Vec<Vec<u32>> {
        let mut out: Vec<Vec<u32>> = (0..self.shards).map(|_| Vec::new()).collect();
        for id in 0..n as u32 {
            out[self.shard_of(id) as usize].push(id);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_is_balanced_and_complete() {
        let p = Partitioner::new(4, PartitionStrategy::RoundRobin);
        let split = p.split(10);
        assert_eq!(split.len(), 4);
        let sizes: Vec<usize> = split.iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![3, 3, 2, 2]);
        let mut all: Vec<u32> = split.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn split_lists_are_ascending() {
        for strategy in [PartitionStrategy::RoundRobin, PartitionStrategy::Hash] {
            let p = Partitioner::new(3, strategy);
            for shard in p.split(1000) {
                assert!(shard.windows(2).all(|w| w[0] < w[1]), "{strategy:?}");
            }
        }
    }

    #[test]
    fn shard_of_matches_split() {
        for strategy in [PartitionStrategy::RoundRobin, PartitionStrategy::Hash] {
            let p = Partitioner::new(5, strategy);
            for (s, ids) in p.split(500).into_iter().enumerate() {
                for id in ids {
                    assert_eq!(p.shard_of(id), s as u32, "{strategy:?}");
                }
            }
        }
    }

    #[test]
    fn hash_spreads_reasonably() {
        let p = Partitioner::new(8, PartitionStrategy::Hash);
        let split = p.split(8_000);
        for (s, ids) in split.iter().enumerate() {
            assert!(
                (800..1200).contains(&ids.len()),
                "shard {s} holds {} of 8000",
                ids.len()
            );
        }
    }

    #[test]
    fn single_shard_owns_everything() {
        let p = Partitioner::new(1, PartitionStrategy::Hash);
        assert_eq!(p.shard_of(12345), 0);
        assert_eq!(p.split(7)[0], (0..7).collect::<Vec<u32>>());
    }

    #[test]
    fn strategy_tags_roundtrip() {
        for s in [PartitionStrategy::RoundRobin, PartitionStrategy::Hash] {
            assert_eq!(PartitionStrategy::from_tag(s.tag()), Some(s));
        }
        assert_eq!(PartitionStrategy::from_tag(9), None);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = Partitioner::new(0, PartitionStrategy::RoundRobin);
    }
}
