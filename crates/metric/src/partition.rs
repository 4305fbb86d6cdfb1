//! Deterministic dataset partitioning for multi-device sharding.
//!
//! A [`Partitioner`] assigns every object id to one of `S` shards by a pure
//! function of the id — never of insertion time, host threads, or any other
//! ambient state — so a sharded index can route streaming updates to the
//! owning shard and a snapshot can be validated against the assignment it
//! was taken under. The assignment is round-robin, `id mod S`: consecutive
//! ids land on consecutive shards, which balances both cardinality *and*
//! insertion traffic (ids are assigned sequentially), and guarantees every
//! shard is non-empty whenever `n ≥ S`.
//!
//! Walking ids in ascending order yields ascending per-shard id lists, so
//! the local→global id mapping of every shard is monotone — the property
//! that makes per-shard `(distance, local id)` tie-breaking agree with
//! global `(distance, global id)` tie-breaking after remapping.

/// A deterministic `id → shard` assignment over a fixed shard count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Partitioner {
    shards: u32,
}

impl Partitioner {
    /// A partitioner over `shards ≥ 1` shards.
    pub fn new(shards: u32) -> Partitioner {
        assert!(shards >= 1, "need at least one shard");
        Partitioner { shards }
    }

    /// Number of shards.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// The shard owning object `id` (always `< shards`).
    #[inline]
    pub fn shard_of(&self, id: u32) -> u32 {
        id % self.shards
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
        let p = Partitioner::new(4);
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
        for shard in Partitioner::new(3).split(1000) {
            assert!(shard.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn shard_of_matches_split() {
        let p = Partitioner::new(5);
        for (s, ids) in p.split(500).into_iter().enumerate() {
            for id in ids {
                assert_eq!(p.shard_of(id), s as u32);
            }
        }
    }

    #[test]
    fn single_shard_owns_everything() {
        let p = Partitioner::new(1);
        assert_eq!(p.shard_of(12345), 0);
        assert_eq!(p.split(7)[0], (0..7).collect::<Vec<u32>>());
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = Partitioner::new(0);
    }
}
