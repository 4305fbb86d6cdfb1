//! Datasets: a homogeneous collection of [`Item`]s plus the metric that
//! compares them (paper Table 2).

use crate::dist::{ItemMetric, Metric};
use crate::gen;
use crate::object::Item;
use crate::ObjId;

/// A named metric dataset.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// Human-readable name ("Words", "T-Loc", ...).
    pub name: String,
    /// The objects. Object ids are indices into this vector.
    pub items: Vec<Item>,
    /// The distance metric of the space.
    pub metric: ItemMetric,
}

impl Dataset {
    /// Build a dataset from parts.
    pub fn new(name: impl Into<String>, items: Vec<Item>, metric: ItemMetric) -> Self {
        Dataset {
            name: name.into(),
            items,
            metric,
        }
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when the dataset holds no objects.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The object with identifier `id`.
    pub fn item(&self, id: ObjId) -> &Item {
        &self.items[id as usize]
    }

    /// Distance between two indexed objects.
    pub fn distance(&self, a: ObjId, b: ObjId) -> f64 {
        self.metric.distance(self.item(a), self.item(b))
    }

    /// Total payload bytes of the raw objects (shared by all methods; not
    /// counted in any index's `memory_bytes`).
    pub fn data_bytes(&self) -> u64 {
        self.items.iter().map(Item::size_bytes).sum()
    }

    /// Prefix subset at `percent`% cardinality (Fig. 11). `percent = 100`
    /// returns a clone.
    pub fn cardinality_subset(&self, percent: u32) -> Dataset {
        assert!((1..=100).contains(&percent), "percent must be in 1..=100");
        let keep = (self.items.len() * percent as usize).div_ceil(100);
        Dataset {
            name: format!("{}@{}%", self.name, percent),
            items: self.items[..keep].to_vec(),
            metric: self.metric,
        }
    }

    /// Same cardinality but only `distinct_percent`% distinct objects; the
    /// remainder are duplicates of the distinct prefix, sampled with `seed`
    /// (Fig. 10's "identical objects" experiment).
    pub fn with_distinct_proportion(&self, distinct_percent: u32, seed: u64) -> Dataset {
        assert!((1..=100).contains(&distinct_percent));
        let n = self.items.len();
        let distinct = (n * distinct_percent as usize).div_ceil(100).max(1);
        let mut items = self.items[..distinct].to_vec();
        let mut state = seed | 1;
        items.extend((distinct..n).map(|_| {
            // xorshift64*: cheap, seedable, no rand dependency needed here.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            self.items[(state as usize) % distinct].clone()
        }));
        Dataset {
            name: format!("{}@{}%distinct", self.name, distinct_percent),
            items,
            metric: self.metric,
        }
    }
}

/// The five evaluation datasets of the paper (Table 2), generated
/// synthetically at any cardinality with the paper's metric and
/// dimensionality. The Vector and Color stand-ins do not reproduce the
/// real sets' pruning: no pivot prunes them (ROADMAP item B).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// Moby words; edit distance; paper cardinality 611,756.
    Words,
    /// Twitter user locations, 2-d; L2; paper cardinality 10,000,000.
    TLoc,
    /// Spanish word embeddings, 300-d; angular cosine; paper 200,000.
    Vector,
    /// NCBI DNA reads (~108 chars); edit distance; paper 1,000,000.
    Dna,
    /// Flickr image features, 282-d; L1; paper 5,000,000.
    Color,
}

impl DatasetKind {
    /// All five kinds in the paper's table order.
    pub const ALL: [DatasetKind; 5] = [
        DatasetKind::Words,
        DatasetKind::TLoc,
        DatasetKind::Vector,
        DatasetKind::Dna,
        DatasetKind::Color,
    ];

    /// Name as printed in the paper.
    pub fn name(self) -> &'static str {
        match self {
            DatasetKind::Words => "Words",
            DatasetKind::TLoc => "T-Loc",
            DatasetKind::Vector => "Vector",
            DatasetKind::Dna => "DNA",
            DatasetKind::Color => "Color",
        }
    }

    /// Cardinality used in the paper (Table 2).
    pub fn paper_cardinality(self) -> usize {
        match self {
            DatasetKind::Words => 611_756,
            DatasetKind::TLoc => 10_000_000,
            DatasetKind::Vector => 200_000,
            DatasetKind::Dna => 1_000_000,
            DatasetKind::Color => 5_000_000,
        }
    }

    /// The dataset's distance metric (Table 2).
    pub fn metric(self) -> ItemMetric {
        match self {
            DatasetKind::Words | DatasetKind::Dna => ItemMetric::Edit,
            DatasetKind::TLoc => ItemMetric::L2,
            DatasetKind::Vector => ItemMetric::ANGULAR,
            DatasetKind::Color => ItemMetric::L1,
        }
    }

    /// Dimensionality column of Table 2 (string datasets report max length).
    pub fn dimensionality(self) -> usize {
        match self {
            DatasetKind::Words => 34,
            DatasetKind::TLoc => 2,
            DatasetKind::Vector => 300,
            DatasetKind::Dna => 108,
            DatasetKind::Color => 282,
        }
    }

    /// Generate `n` objects with deterministic `seed`.
    pub fn generate(self, n: usize, seed: u64) -> Dataset {
        let items = match self {
            DatasetKind::Words => gen::words(n, seed),
            DatasetKind::TLoc => gen::t_loc(n, seed),
            DatasetKind::Vector => gen::vectors(n, 300, seed),
            DatasetKind::Dna => gen::dna(n, 108, seed),
            DatasetKind::Color => gen::color(n, 282, seed),
        };
        Dataset::new(self.name(), items, self.metric())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_is_deterministic() {
        for kind in DatasetKind::ALL {
            let a = kind.generate(64, 7);
            let b = kind.generate(64, 7);
            assert_eq!(a.items, b.items, "{}", kind.name());
            let c = kind.generate(64, 8);
            assert_ne!(a.items, c.items, "{} should vary with seed", kind.name());
        }
    }

    #[test]
    fn cardinality_subset_prefixes() {
        let d = DatasetKind::Words.generate(100, 1);
        let s = d.cardinality_subset(20);
        assert_eq!(s.len(), 20);
        assert_eq!(s.items[..], d.items[..20]);
    }

    #[test]
    fn distinct_proportion_duplicates_prefix() {
        let d = DatasetKind::TLoc.generate(200, 3);
        let s = d.with_distinct_proportion(20, 9);
        assert_eq!(s.len(), d.len());
        let distinct = &d.items[..40];
        for it in &s.items[40..] {
            assert!(distinct.contains(it), "tail must duplicate the prefix");
        }
    }

    #[test]
    fn metrics_match_table2() {
        assert_eq!(DatasetKind::Words.metric(), ItemMetric::Edit);
        assert_eq!(DatasetKind::TLoc.metric(), ItemMetric::L2);
        assert_eq!(DatasetKind::Vector.metric(), ItemMetric::ANGULAR);
        assert_eq!(DatasetKind::Dna.metric(), ItemMetric::Edit);
        assert_eq!(DatasetKind::Color.metric(), ItemMetric::L1);
    }

    #[test]
    fn generated_objects_match_metric() {
        for kind in DatasetKind::ALL {
            let d = kind.generate(16, 2);
            assert_eq!(d.len(), 16);
            // distance() must not panic: objects and metric are consistent.
            let _ = d.distance(0, 15);
        }
    }
}
