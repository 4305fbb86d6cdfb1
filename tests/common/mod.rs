//! Helpers shared by the integration suites.

use gts::metric::{BatchMetric, Item, ItemMetric, Metric, Neighbor};

/// One answer list per query of a batch.
pub type Answers = Vec<Vec<Neighbor>>;

/// An [`ItemMetric`] with no flat layout: the empty `BatchMetric` impl makes
/// every batched kernel take the scalar per-pair fallback over boxed `Item`
/// payloads (`arena: None`) — the path a custom metric or a heterogeneous
/// dataset runs. Its bounded kernel computes the full distance and charges
/// the full work, where the arena's edit kernel is banded.
#[derive(Clone, Copy)]
pub struct NoArena(pub ItemMetric);

impl Metric<Item> for NoArena {
    fn distance(&self, a: &Item, b: &Item) -> f64 {
        self.0.distance(a, b)
    }
    fn work(&self, a: &Item, b: &Item) -> u64 {
        self.0.work(a, b)
    }
    fn name(&self) -> &'static str {
        self.0.name()
    }
}

impl BatchMetric<Item> for NoArena {}
