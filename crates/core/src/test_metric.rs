//! Edit distance with one chosen fault, for the tests of what an index
//! does when its metric misbehaves.

use metric_space::{BatchMetric, Item, ItemMetric, Metric, ObjectArena};

const EDIT: ItemMetric = ItemMetric::Edit;

#[derive(Clone, Copy)]
pub(crate) enum Faulty {
    /// The batch kernels panic when their query is the string `"boom"`,
    /// with a message naming the thread that raised it — standing in for
    /// any misbehaving user kernel (NaNs, assertions).
    Boom,
    /// The arena can be built but never extended.
    FrozenArena,
    /// No flat layout at all.
    NoLayout,
}

impl Faulty {
    fn explode_on(self, query: &Item) {
        if matches!(self, Faulty::Boom) && query.as_text() == Some("boom") {
            let thread = std::thread::current();
            panic!("boom on {}", thread.name().unwrap_or("unnamed"));
        }
    }
}

impl Metric<Item> for Faulty {
    fn distance(&self, a: &Item, b: &Item) -> f64 {
        EDIT.distance(a, b)
    }
    fn work(&self, a: &Item, b: &Item) -> u64 {
        EDIT.work(a, b)
    }
    fn name(&self) -> &'static str {
        "faulty-edit"
    }
}

impl BatchMetric<Item> for Faulty {
    fn build_arena(&self, objects: &[Item]) -> Option<ObjectArena> {
        EDIT.build_arena(objects)
            .filter(|_| !matches!(self, Faulty::NoLayout))
    }
    fn arena_fits(&self, arena: &ObjectArena, objs: &[Item]) -> bool {
        matches!(self, Faulty::Boom) && EDIT.arena_fits(arena, objs)
    }
    fn arena_push(&self, arena: &mut ObjectArena, obj: &Item) -> bool {
        matches!(self, Faulty::Boom) && EDIT.arena_push(arena, obj)
    }
    fn distance_batch(
        &self,
        objects: &[Item],
        arena: Option<&ObjectArena>,
        query: &Item,
        ids: &[u32],
        out: &mut [f64],
    ) -> (u64, u64) {
        self.explode_on(query);
        EDIT.distance_batch(objects, arena, query, ids, out)
    }
    fn distance_batch_bounded(
        &self,
        objects: &[Item],
        arena: Option<&ObjectArena>,
        query: &Item,
        ids: &[u32],
        bound: f64,
        out: &mut [Option<f64>],
    ) -> (u64, u64) {
        self.explode_on(query);
        EDIT.distance_batch_bounded(objects, arena, query, ids, bound, out)
    }
}
