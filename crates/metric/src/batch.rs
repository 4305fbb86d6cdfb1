//! Batched distance kernels over a flat [`ObjectArena`].
//!
//! The scalar [`Metric`] interface evaluates one pair at a time, which is
//! how the index's *logic* is written — but the hot paths (pivot distances
//! per level, leaf verification, construction mapping) always evaluate a
//! query against **many** stored objects at once. [`BatchMetric`] is that
//! kernel-shaped interface: resolve ids against the arena, stream payloads
//! from contiguous buffers, prepare the query once for the whole batch (the
//! edit kernel's match masks, the angular kernel's widened query), and
//! report the batch's total work and critical path in one go so the device
//! charges a single kernel per batch instead of bookkeeping per pair.
//!
//! Guarantees relied on by the exactness tests and the simulated clock:
//!
//! * `distance_batch` is **bit-identical** to calling [`Metric::distance`]
//!   per pair (same float operations in the same order), and its
//!   `(total, span)` equals the sum/max of per-pair [`Metric::work`]:
//!   `Metric::distance` is the reference every kernel is tested against.
//! * `distance_batch_bounded` may abandon early (for edit distance, once
//!   the bit-parallel kernel's score can no longer return under the bound)
//!   but is exact whenever it reports `Some(d)`, and `Some(d)` is reported
//!   iff `d ≤ bound`.
//! * The kernels are **chunk-safe**: evaluating disjoint sub-slices of one
//!   id block concurrently from several host threads (see [`chunk_pairs`])
//!   produces the same outputs and the same summed `(total, span)` as one
//!   serial call over the whole block. Each pair's result depends only on
//!   `(query, id)`, every call builds its own query state (the edit
//!   kernel's [`EditPattern`], the angular kernel's widened query), and the
//!   arena is read-only — so callers may slice the arena-resolved block at
//!   any fixed chunk boundary and fan the chunks out.

use crate::arena::{ArenaKind, ObjectArena};
use crate::dist::{
    angular_cos_floor, angular_from, angular_within, dot_wide, l1, l2, norm, with_widened,
    EditDistance, EditPattern, ItemMetric, Metric, VectorMetric,
};
use crate::object::Item;

/// The per-pair reference: `out[i] = keep(d)` for the [`Metric::distance`]
/// `d` of each pair, with [`Metric::work`] summed and maxed one pair at a
/// time over the boxed objects. The default trait methods run it, and so
/// does [`ItemMetric`] when handed no arena.
fn scalar_batch<O, M: Metric<O> + ?Sized, T>(
    metric: &M,
    objects: &[O],
    query: &O,
    ids: &[u32],
    out: &mut [T],
    keep: impl Fn(f64) -> T,
) -> (u64, u64) {
    let mut total = 0u64;
    let mut span = 0u64;
    for (slot, &id) in out.iter_mut().zip(ids) {
        let obj = &objects[id as usize];
        *slot = keep(metric.distance(query, obj));
        let w = metric.work(query, obj);
        total += w;
        span = span.max(w);
    }
    (total, span)
}

/// A [`Metric`] that can evaluate one query against many stored objects as
/// a single batch, resolving payloads from a flat [`ObjectArena`].
///
/// A metric must have a flat layout to be indexed: the GTS index stores
/// every object in the arena [`build_arena`](BatchMetric::build_arena)
/// returns and extends it with [`arena_push`](BatchMetric::arena_push), and
/// refuses to build over objects that have none. The kernels' scalar
/// defaults call [`Metric::distance`] per pair over the boxed objects —
/// the reference a kernel must match bit for bit, in outputs and in work.
/// [`ItemMetric`] overrides everything with arena-backed kernels, and runs
/// the per-pair reference when handed no arena.
///
/// # Chunk-safety contract
///
/// The index hot paths may split one id block into fixed-size chunks (see
/// [`chunk_pairs`]) and call `distance_batch` on the chunks from several
/// host threads concurrently. Implementations must therefore keep each
/// pair's result a pure function of `(query, id)` and confine any mutable
/// scratch to the call or the thread (the shipped edit kernels build their
/// [`EditPattern`] inside the call and hold no per-thread state). The
/// scalar defaults satisfy this automatically — `Metric` is `Send + Sync`
/// and the defaults hold no state.
pub trait BatchMetric<O>: Metric<O> {
    /// Build the flat arena for `objects`, or `None` when this metric (or
    /// this object type) has no flat layout for them. An index refuses to
    /// build over such objects.
    fn build_arena(&self, _objects: &[O]) -> Option<ObjectArena> {
        None
    }

    /// Whether [`arena_push`](BatchMetric::arena_push) would store every
    /// object of `objs`, one after another, in `arena`. An index checks it
    /// before an insert or batch update changes anything.
    fn arena_fits(&self, _arena: &ObjectArena, _objs: &[O]) -> bool {
        false
    }

    /// Append one object to an arena previously produced by
    /// [`build_arena`](BatchMetric::build_arena); `false` (arena unchanged)
    /// if the object cannot be stored flat.
    fn arena_push(&self, _arena: &mut ObjectArena, _obj: &O) -> bool {
        false
    }

    /// Batched kernel: `out[i] = d(query, objects[ids[i]])`, resolving
    /// payloads from `arena` (the flat layout of `objects`, same ids) when
    /// given one.
    ///
    /// Returns `(total_work, span)` over the batch — the sum and max of the
    /// per-pair [`Metric::work`] — for one aggregate device charge.
    ///
    /// # Panics
    /// Implementations may panic if `ids.len() != out.len()` or an id is
    /// out of range.
    fn distance_batch(
        &self,
        objects: &[O],
        _arena: Option<&ObjectArena>,
        query: &O,
        ids: &[u32],
        out: &mut [f64],
    ) -> (u64, u64) {
        scalar_batch(self, objects, query, ids, out, |d| d)
    }

    /// Early-abandoning batched kernel: `out[i] = Some(d)` iff
    /// `d = d(query, objects[ids[i]]) ≤ bound`, else `None`.
    ///
    /// `Some` answers are always exact. Implementations may abandon an
    /// evaluation once it provably exceeds the bound (and charge only the
    /// abandoned prefix's work); the default computes full distances and
    /// charges full work.
    fn distance_batch_bounded(
        &self,
        objects: &[O],
        _arena: Option<&ObjectArena>,
        query: &O,
        ids: &[u32],
        bound: f64,
        out: &mut [Option<f64>],
    ) -> (u64, u64) {
        scalar_batch(self, objects, query, ids, out, |d| {
            (d <= bound).then_some(d)
        })
    }
}

/// One chunk of a batched distance kernel: a disjoint slice of the id
/// block and the output slice it fills (`f64` slots for
/// [`BatchMetric::distance_batch`], `Option<f64>` for the bounded kernel).
///
/// Produced by [`chunk_pairs`]; consumed by a host-thread worker calling
/// the kernel on exactly this slice pair. Chunks of one block never
/// overlap, so they can execute concurrently.
#[derive(Debug)]
pub struct BatchChunk<'a, T = f64> {
    /// Object ids this chunk resolves (against the arena or object store).
    pub ids: &'a [u32],
    /// Output slots, parallel to `ids`.
    pub out: &'a mut [T],
}

/// Split one `(ids, out)` block into fixed-size chunks of at most `chunk`
/// pairs each, in index order.
///
/// The boundaries depend only on `chunk` and the block length — never on
/// how many threads will run the chunks — which is what makes the
/// host-parallel execution deterministic: every chunk computes the same
/// pairs and reports the same `(work, span)` no matter which worker picks
/// it up. An empty block yields no chunks.
///
/// # Panics
/// Panics if `chunk == 0` or `ids.len() != out.len()`.
pub fn chunk_pairs<'a, T>(
    chunk: usize,
    ids: &'a [u32],
    out: &'a mut [T],
) -> Vec<BatchChunk<'a, T>> {
    assert!(chunk > 0, "chunk size must be positive");
    assert_eq!(ids.len(), out.len());
    // `slice::chunks` *is* the boundary policy: every chunk exactly
    // `chunk` items except a shorter tail. Parallel slices cut with the
    // same call share boundaries by construction.
    ids.chunks(chunk)
        .zip(out.chunks_mut(chunk))
        .map(|(ids, out)| BatchChunk { ids, out })
        .collect()
}

/// Clamp a float radius to the integer bound the edit kernel expects:
/// an integer distance `d` satisfies `d ≤ r` iff `d ≤ ⌊r⌋`. Negative and
/// NaN radii admit no distance at all.
fn edit_bound(bound: f64) -> Option<u32> {
    if bound.is_nan() || bound < 0.0 {
        return None;
    }
    Some(bound.floor().min(f64::from(u32::MAX)) as u32)
}

/// Fill `out[i] = f(id, row)` for `id = ids[i]`, resolving each vector row
/// from the arena. Every vector kernel runs through here with its own
/// closure, so each metric's loop is compiled with its distance inlined.
#[inline(always)]
fn vector_rows<T>(
    arena: &ObjectArena,
    ids: &[u32],
    out: &mut [T],
    mut f: impl FnMut(u32, &[f32]) -> T,
) {
    for (slot, &id) in out.iter_mut().zip(ids) {
        *slot = f(id, arena.vector(id));
    }
}

/// [`vector_rows`] for text: fill `out[i] = f(row)` for `id = ids[i]`,
/// resolving each string's bytes from the arena.
#[inline(always)]
fn text_rows<T>(arena: &ObjectArena, ids: &[u32], out: &mut [T], mut f: impl FnMut(&[u8]) -> T) {
    for (slot, &id) in out.iter_mut().zip(ids) {
        *slot = f(arena.text_bytes(id));
    }
}

/// The angular kernel shared by the plain and bounded entry points:
/// `out[i] = f(q · o, ‖q‖, ‖o‖)` for `o = ids[i]`. The query is widened to
/// `f64` once per call; row norms come from the arena's column when it
/// keeps one and are computed otherwise — the same bits either way.
fn angular_rows<T>(
    arena: &ObjectArena,
    q: &[f32],
    ids: &[u32],
    out: &mut [T],
    f: impl Fn(f64, f64, f64) -> T,
) {
    let norms = arena.norms();
    let nq = norm(q);
    with_widened(q, |qw| {
        vector_rows(arena, ids, out, |id, o| {
            let no = norms.map_or_else(|| norm(o), |n| n[id as usize]);
            f(dot_wide(qw, o), nq, no)
        });
    });
}

/// A vector metric's work depends on the dimensionality alone, so a batch
/// of `n` pairs costs `n` times one pair, with that pair as its span.
fn vector_charge(m: VectorMetric, dims: usize, n: usize) -> (u64, u64) {
    let w = m.work_len(dims);
    (w * n as u64, if n == 0 { 0 } else { w })
}

impl BatchMetric<Item> for ItemMetric {
    /// Angular arenas keep each row's norm, so their kernel is one dot
    /// product per pair.
    fn build_arena(&self, objects: &[Item]) -> Option<ObjectArena> {
        let mut arena = ObjectArena::from_items(objects)?;
        // The arena family must match the metric, or the kernels below
        // would be handed payloads of the wrong type.
        match (self, arena.kind()) {
            (ItemMetric::Edit, ArenaKind::Text) => Some(arena),
            (ItemMetric::Vector(m), ArenaKind::Vector) => {
                if *m == VectorMetric::Angular {
                    arena.keep_norms();
                }
                Some(arena)
            }
            _ => None,
        }
    }

    fn arena_fits(&self, arena: &ObjectArena, objs: &[Item]) -> bool {
        arena.fits(objs)
    }

    fn arena_push(&self, arena: &mut ObjectArena, obj: &Item) -> bool {
        arena.push_item(obj)
    }

    fn distance_batch(
        &self,
        objects: &[Item],
        arena: Option<&ObjectArena>,
        query: &Item,
        ids: &[u32],
        out: &mut [f64],
    ) -> (u64, u64) {
        assert_eq!(ids.len(), out.len());
        match (self, query, arena) {
            (ItemMetric::Edit, Item::Text(q), Some(arena)) => {
                let q = q.as_bytes();
                let mut pattern = EditPattern::new(q);
                let (mut total, mut span) = (0u64, 0u64);
                text_rows(arena, ids, out, |o| {
                    let w = EditDistance::work_full_lens(q.len(), o.len());
                    total += w;
                    span = span.max(w);
                    let d = pattern.distance(o, u32::MAX);
                    f64::from(d.expect("an unbounded distance always answers"))
                });
                (total, span)
            }
            (ItemMetric::Vector(m), Item::Vector(q), Some(arena)) => {
                match m {
                    VectorMetric::L1 => vector_rows(arena, ids, out, |_, o| l1(q, o)),
                    VectorMetric::L2 => vector_rows(arena, ids, out, |_, o| l2(q, o)),
                    VectorMetric::Angular => angular_rows(arena, q, ids, out, angular_from),
                }
                vector_charge(*m, q.len(), ids.len())
            }
            _ => scalar_batch(self, objects, query, ids, out, |d| d),
        }
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
        assert_eq!(ids.len(), out.len());
        match (self, query, arena) {
            (ItemMetric::Edit, Item::Text(q), Some(arena)) => {
                // A negative or NaN bound admits nothing and costs nothing.
                let Some(b) = edit_bound(bound) else {
                    out.fill(None);
                    return (0, 0);
                };
                let q = q.as_bytes();
                let mut pattern = EditPattern::new(q);
                let (mut total, mut span) = (0u64, 0u64);
                text_rows(arena, ids, out, |o| {
                    // Charge the banded DP, not the full table.
                    let w = EditDistance::work_bounded_lens(q.len(), o.len(), b);
                    total += w;
                    span = span.max(w);
                    pattern.distance(o, b).map(f64::from)
                });
                (total, span)
            }
            (ItemMetric::Vector(m), Item::Vector(q), Some(arena)) => {
                let within = |d: f64| (d <= bound).then_some(d);
                match m {
                    VectorMetric::L1 => vector_rows(arena, ids, out, |_, o| within(l1(q, o))),
                    VectorMetric::L2 => vector_rows(arena, ids, out, |_, o| within(l2(q, o))),
                    VectorMetric::Angular => {
                        let floor = angular_cos_floor(bound);
                        angular_rows(arena, q, ids, out, |dot, nq, no| {
                            angular_within(dot, nq, no, bound, floor)
                        });
                    }
                }
                vector_charge(*m, q.len(), ids.len())
            }
            _ => scalar_batch(self, objects, query, ids, out, |d| {
                (d <= bound).then_some(d)
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words() -> Vec<Item> {
        ["", "a", "ab", "abc", "kitten", "sitting", "zzzz"]
            .iter()
            .map(|s| Item::text(*s))
            .collect()
    }

    fn vectors() -> Vec<Item> {
        (0..8)
            .map(|i| Item::vector(vec![i as f32, -(i as f32) * 0.5, 2.0]))
            .collect()
    }

    #[test]
    fn batch_matches_scalar_for_every_item_metric() {
        for (metric, items) in [
            (ItemMetric::Edit, words()),
            (ItemMetric::L1, vectors()),
            (ItemMetric::L2, vectors()),
            (ItemMetric::ANGULAR, vectors()),
        ] {
            let arena = metric.build_arena(&items).expect("homogeneous");
            let ids: Vec<u32> = (0..items.len() as u32).collect();
            let q = &items[1];
            let mut got = vec![0.0; ids.len()];
            let (total, span) = metric.distance_batch(&items, Some(&arena), q, &ids, &mut got);
            let mut expect_total = 0u64;
            let mut expect_span = 0u64;
            for (i, &id) in ids.iter().enumerate() {
                let o = &items[id as usize];
                assert!(
                    got[i].to_bits() == metric.distance(q, o).to_bits(),
                    "{}: id {id} batch {} scalar {}",
                    metric.name(),
                    got[i],
                    metric.distance(q, o)
                );
                let w = metric.work(q, o);
                expect_total += w;
                expect_span = expect_span.max(w);
            }
            assert_eq!(
                (total, span),
                (expect_total, expect_span),
                "{}",
                metric.name()
            );
        }
    }

    #[test]
    fn bounded_is_exact_when_some() {
        let items = words();
        let arena = ItemMetric::Edit.build_arena(&items).expect("arena");
        let ids: Vec<u32> = (0..items.len() as u32).collect();
        for q in &items {
            for bound in [0.0, 1.0, 2.5, 10.0, -1.0, f64::INFINITY, f64::NAN, 1e300] {
                let mut out = vec![None; ids.len()];
                ItemMetric::Edit.distance_batch_bounded(
                    &items,
                    Some(&arena),
                    q,
                    &ids,
                    bound,
                    &mut out,
                );
                for (&id, slot) in ids.iter().zip(&out) {
                    let real = ItemMetric::Edit.distance(q, &items[id as usize]);
                    match slot {
                        Some(d) => {
                            assert_eq!(*d, real);
                            assert!(*d <= bound);
                        }
                        // A NaN radius admits nothing and must abandon all.
                        None => assert!(
                            bound.is_nan() || real > bound,
                            "abandoned but {real} <= {bound}"
                        ),
                    }
                }
            }
        }
    }

    /// Without an arena, `ItemMetric` runs the per-pair reference: the
    /// same outputs, full work even where the arena kernel is banded.
    #[test]
    fn without_an_arena_the_kernels_run_the_per_pair_reference() {
        for (metric, items) in [(ItemMetric::Edit, words()), (ItemMetric::L2, vectors())] {
            let ids: Vec<u32> = (0..items.len() as u32).collect();
            let q = &items[4];
            let mut got = vec![0.0; ids.len()];
            let mut bounded = vec![None; ids.len()];
            let charged = metric.distance_batch(&items, None, q, &ids, &mut got);
            let charged_bounded =
                metric.distance_batch_bounded(&items, None, q, &ids, 2.0, &mut bounded);
            let want: Vec<f64> = items.iter().map(|o| metric.distance(q, o)).collect();
            let work: Vec<u64> = items.iter().map(|o| metric.work(q, o)).collect();
            let full = (work.iter().sum(), work.iter().copied().max().unwrap_or(0));
            assert_eq!(got, want, "{}", metric.name());
            let within: Vec<Option<f64>> = want.iter().map(|&d| (d <= 2.0).then_some(d)).collect();
            assert_eq!(bounded, within, "{}", metric.name());
            assert_eq!(
                (charged, charged_bounded),
                (full, full),
                "{}",
                metric.name()
            );
        }
    }

    #[test]
    fn chunk_pairs_fixed_boundaries() {
        let ids: Vec<u32> = (0..10).collect();
        let mut out = vec![0.0; 10];
        let jobs = chunk_pairs(4, &ids, &mut out);
        let lens: Vec<usize> = jobs.iter().map(|j| j.ids.len()).collect();
        assert_eq!(lens, vec![4, 4, 2]);
        assert_eq!(jobs[2].ids, &[8, 9]);
        let mut empty_out: Vec<f64> = Vec::new();
        assert!(chunk_pairs(4, &[], &mut empty_out).is_empty());
        // A block no larger than one chunk stays whole.
        let mut out1 = vec![0.0; 4];
        assert_eq!(chunk_pairs(4, &ids[..4], &mut out1).len(), 1);
    }

    #[test]
    fn chunked_parallel_execution_matches_serial() {
        // Run the same id block serially and as concurrently-executed
        // chunks; outputs must be bit-identical and (total, span) must sum
        // to the same aggregate.
        for (metric, items) in [(ItemMetric::Edit, words()), (ItemMetric::L2, vectors())] {
            let arena = metric.build_arena(&items).expect("arena");
            let n = 1000usize;
            let ids: Vec<u32> = (0..n as u32).map(|i| i % items.len() as u32).collect();
            let q = items[3].clone();
            let mut serial = vec![0.0; n];
            let expect = metric.distance_batch(&items, Some(&arena), &q, &ids, &mut serial);
            let mut parallel = vec![0.0; n];
            let jobs = chunk_pairs(64, &ids, &mut parallel);
            let got = std::thread::scope(|s| {
                let handles: Vec<_> = jobs
                    .into_iter()
                    .map(|job| {
                        let (metric, items, arena, q) = (&metric, &items, &arena, &q);
                        s.spawn(move || {
                            metric.distance_batch(items, Some(arena), q, job.ids, job.out)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("chunk worker"))
                    .fold((0u64, 0u64), |(t, sp), (w, s)| (t + w, sp.max(s)))
            });
            assert_eq!(serial, parallel, "{}", metric.name());
            assert_eq!(expect, got, "{}: chunked accounting", metric.name());
        }
    }

    #[test]
    fn kind_mismatch_yields_no_arena() {
        assert!(ItemMetric::Edit.build_arena(&vectors()).is_none());
        assert!(ItemMetric::L2.build_arena(&words()).is_none());
    }

    #[test]
    fn arena_push_via_metric() {
        let items = words();
        let mut arena = ItemMetric::Edit.build_arena(&items).expect("arena");
        assert!(ItemMetric::Edit.arena_push(&mut arena, &Item::text("new")));
        assert_eq!(arena.len(), items.len() + 1);
        assert!(!ItemMetric::Edit.arena_push(&mut arena, &Item::vector(vec![1.0])));
    }
}
