//! Level-synchronous parallel construction (paper §4.3, Algorithms 1–3).
//!
//! The construction loop runs `Mapping` then `Partitioning` once per
//! internal level:
//!
//! * **Mapping** (Alg. 2): each node of the level selects a pivot (FFT; the
//!   root seeds from a random object, deeper nodes take the object farthest
//!   from the parent pivot, whose distance is already materialised in the
//!   table — one FFT step with zero extra distance calls), then one kernel
//!   computes every object's distance to its node's pivot.
//! * **Partitioning** (Alg. 3): distances are normalised to `[0, ½)`,
//!   encoded as `key = node_rank + dis/denom` so the integer part carries
//!   node membership, sorted by **one global device sort**, and each node is
//!   split evenly into `Nc` children (`avg = ⌊size/Nc⌋`, the last child
//!   takes the remainder).
//!
//! Differences from the paper's pseudocode, both deliberate:
//! the child start position uses `pos + j·avg` (the paper's `pos + j·Nc` is
//! a typo — it would overlap children), and the encoding denominator is
//! `2(max+1)` rather than `max+1` so the fractional part stays `< ½` and the
//! integer node rank is always exactly recoverable in f64. The sort payload
//! is the pre-sort position, so stored distances are *gathered*, never
//! re-derived from the encoded key — no precision loss.

use crate::dispatch::Payloads;
use crate::node::{Node, NodeList, TreeShape};
use crate::params::GtsParams;
use crate::table::TableList;
use gpu_sim::primitives::{reduce_max_f64, sort_pairs_by_key};
use gpu_sim::{Device, GpuError};
use metric_space::BatchMetric;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The constructed index structure plus counters.
pub(crate) struct Structure {
    pub nodes: NodeList,
    pub table: TableList,
    /// Distance evaluations spent building (tests assert the `O(n·h)` bound).
    #[cfg(test)]
    pub build_distances: u64,
}

/// Reusable staging buffers for the construction kernels (one per
/// `construct` call, shared by every level).
#[derive(Default)]
struct BuildScratch {
    /// Object ids of one node segment, arena-kernel input.
    ids: Vec<u32>,
    /// Distance output per table position for the whole level.
    out: Vec<f64>,
}

/// Construct the GTS structure over `ids` (a subset of the object store).
///
/// `payloads` carries the **full** object store and its flat arena (ids
/// are arena ids); the mapping kernels resolve object payloads against the
/// arena instead of chasing per-object pointers.
///
/// Runs entirely "on device": every distance evaluation and data movement is
/// charged to `dev`'s clock; the returned host structures mirror what would
/// live in global memory (their residency is reserved by the caller).
/// `threads` is the host-thread budget of the mapping kernels (wall-clock
/// only).
pub(crate) fn construct<O, M>(
    dev: &Arc<Device>,
    payloads: &Payloads<'_, O, M>,
    ids: &[u32],
    params: &GtsParams,
    threads: usize,
) -> Result<Structure, GpuError>
where
    O: Send + Sync,
    M: BatchMetric<O>,
{
    assert!(!ids.is_empty(), "construct requires at least one object");
    let nc = params.node_capacity;
    let shape = TreeShape::for_dataset(ids.len(), nc);
    let mut nodes = NodeList::new(shape);
    let mut table = TableList::from_ids(ids);
    let n = ids.len();
    let mut build_distances = 0u64;
    let mut scratch = BuildScratch::default();

    // Alg. 1 lines 2–5: initialise the root and the table list.
    *nodes.get_mut(1) = Node {
        pivot: None,
        min_dis: 0.0,
        max_dis: f64::INFINITY,
        pos: 0,
        size: n as u32,
        own_max_dis: 0.0,
    };
    dev.charge_kernel(n as u64, 1); // parallel table init

    let mut rng = StdRng::seed_from_u64(params.seed);

    // Alg. 1 lines 6–10: one mapping + partitioning round per internal level.
    for level in 1..shape.h {
        let start = shape.level_start(level);
        let width = shape.level_width(level);
        mapping(
            dev,
            payloads,
            params,
            threads,
            &mut nodes,
            &mut table,
            start,
            width,
            level == 1,
            &mut rng,
            &mut build_distances,
            &mut scratch,
        );
        partitioning(dev, &shape, &mut nodes, &mut table, start, width);
    }

    Ok(Structure {
        nodes,
        table,
        #[cfg(test)]
        build_distances,
    })
}

/// Alg. 2: pivot selection + distance computation for one level.
#[allow(clippy::too_many_arguments)]
fn mapping<O, M>(
    dev: &Arc<Device>,
    payloads: &Payloads<'_, O, M>,
    params: &GtsParams,
    threads: usize,
    nodes: &mut NodeList,
    table: &mut TableList,
    level_start: usize,
    level_width: usize,
    is_root_level: bool,
    rng: &mut StdRng,
    build_distances: &mut u64,
    scratch: &mut BuildScratch,
) where
    O: Send + Sync,
    M: BatchMetric<O>,
{
    let n = table.len();

    // --- pivot selection -------------------------------------------------
    if is_root_level {
        // Root: FFT seeded by a random object — the pivot is the object
        // farthest from the seed (one batched distance kernel + a reduce).
        let seed_pos = rng.gen_range(0..n);
        let seed_obj = table.get(seed_pos).obj;
        let pivot = if params.fft_pivots {
            let BuildScratch { ids, out } = scratch;
            ids.clear();
            table.fill_ids(0, n as u32, ids);
            out.clear();
            out.resize(n, 0.0);
            let seed = &payloads.objects[seed_obj as usize];
            dev.launch_batch(n, || {
                let (w, s) = payloads.distance_block(dev, threads, seed, ids, out);
                ((), w, s)
            });
            *build_distances += n as u64;
            let mut best = seed_pos;
            let mut best_d = -1.0;
            for (i, &d) in out.iter().enumerate() {
                if d > best_d {
                    best_d = d;
                    best = i;
                }
            }
            dev.charge_kernel(n as u64, (64 - n.leading_zeros()) as u64);
            table.get(best).obj
        } else {
            seed_obj
        };
        nodes.get_mut(1).pivot = Some(pivot);
    } else {
        // Deeper levels: the table already holds each object's distance to
        // the parent pivot (computed by the previous mapping); the FFT step
        // is an argmax per node — a segmented reduce, zero extra distances.
        for rank in 0..level_width {
            let node_id = level_start + rank;
            let node = *nodes.get(node_id);
            if node.size == 0 {
                continue;
            }
            let pivot = if params.fft_pivots {
                let mut best = table.get(node.pos as usize);
                for e in table.range(node.pos, node.size) {
                    if e.dis > best.dis {
                        best = e;
                    }
                }
                best.obj
            } else {
                let off = rng.gen_range(0..node.size);
                table.get((node.pos + off) as usize).obj
            };
            nodes.get_mut(node_id).pivot = Some(pivot);
        }
        dev.charge_kernel(n as u64, 32); // segmented argmax over the level
    }

    // --- distance computation ---------------------------------------------
    // One batched kernel over the entire table (grid = nodes, block = the
    // node's objects; pivots staged in shared memory per Alg. 2): each
    // node's segment is contiguous in the table, so the level runs as one
    // launch of per-node `Payloads::distance_block` calls resolving object ids
    // against the arena — large segments fan out over host threads in
    // fixed-size chunks — charged once for the whole level.
    {
        let BuildScratch { ids, out } = scratch;
        out.clear();
        out.resize(n, 0.0);
        dev.launch_batch(n, || {
            let mut total = 0u64;
            let mut span = 0u64;
            for rank in 0..level_width {
                let node = *nodes.get(level_start + rank);
                if node.size == 0 {
                    continue;
                }
                let pivot = node.pivot.expect("internal node has a pivot");
                ids.clear();
                table.fill_ids(node.pos, node.size, ids);
                let seg = &mut out[node.pos as usize..(node.pos + node.size) as usize];
                let pivot = &payloads.objects[pivot as usize];
                let (w, s) = payloads.distance_block(dev, threads, pivot, ids, seg);
                total += w;
                span = span.max(s);
            }
            ((), total, span)
        });
        *build_distances += n as u64;
        // SoA: the whole distance column streams in one copy; ids and
        // tombstones are untouched.
        table.dis_column_mut().copy_from_slice(out);
    }

    // Own-pivot radius per node (max distance to own pivot), needed by the
    // MkNNQ own-pivot prune; one more segmented reduce over stored values.
    for rank in 0..level_width {
        let node_id = level_start + rank;
        let node = *nodes.get(node_id);
        if node.size == 0 {
            continue;
        }
        let max = table
            .range(node.pos, node.size)
            .fold(0f64, |m, e| m.max(e.dis));
        nodes.get_mut(node_id).own_max_dis = max;
    }
    dev.charge_kernel(n as u64, 32);
}

/// Alg. 3: distance encoding, global sort, even split into children.
fn partitioning(
    dev: &Arc<Device>,
    shape: &TreeShape,
    nodes: &mut NodeList,
    table: &mut TableList,
    level_start: usize,
    level_width: usize,
) {
    let n = table.len();
    let nc = shape.nc as usize;

    // Line 1–2: global max for normalisation, straight off the SoA
    // distance column — no gather.
    let max = reduce_max_f64(dev, table.dis_column()).max(0.0);
    // Denominator 2(max+1) keeps the fraction < 1/2: integer part exact.
    let denom = 2.0 * (max + 1.0);

    // Lines 3–6: encode `rank + dis/denom`. Payload = pre-sort position so
    // the table rows can be gathered afterwards without decoding error.
    let node_of_pos = node_rank_of_positions(nodes, level_start, level_width, n);
    let dis = table.dis_column();
    // One thread per position, two units of work each.
    let mut pairs: Vec<(f64, u32)> = dev.launch_batch(n, || {
        let pairs = (0..n)
            .map(|i| (f64::from(node_of_pos[i]) + dis[i] / denom, i as u32))
            .collect();
        (pairs, 2 * n as u64, 2)
    });

    // Line 7: one global device sort partitions every node simultaneously.
    sort_pairs_by_key(dev, &mut pairs);

    // Gather the table into sorted order (scatter kernel, linear work);
    // each SoA column is gathered independently.
    table.gather(|i| pairs[i].1 as usize);
    dev.charge_kernel(n as u64, 1);

    // Lines 8–18: split each node evenly into Nc children.
    for rank in 0..level_width {
        let node_id = level_start + rank;
        let node = *nodes.get(node_id);
        let avg = node.size / shape.nc;
        for j in 0..nc {
            let child_id = shape.child(node_id, j);
            let size = if j + 1 < nc {
                avg
            } else {
                node.size - avg * (shape.nc - 1)
            };
            let pos = node.pos + avg * j as u32;
            let (min_dis, max_dis) = if size > 0 {
                (
                    table.get(pos as usize).dis,
                    table.get((pos + size - 1) as usize).dis,
                )
            } else {
                (f64::INFINITY, f64::NEG_INFINITY)
            };
            *nodes.get_mut(child_id) = Node {
                pivot: None,
                min_dis,
                max_dis,
                pos,
                size,
                own_max_dis: 0.0,
            };
        }
    }
    dev.charge_kernel((level_width * nc) as u64, 4);
}

/// For every table position, the 0-based rank (within the level) of the node
/// owning it. Host-side mirror of the grid→block assignment.
fn node_rank_of_positions(
    nodes: &NodeList,
    level_start: usize,
    level_width: usize,
    n: usize,
) -> Vec<u32> {
    let mut out = vec![0u32; n];
    for rank in 0..level_width {
        let node = nodes.get(level_start + rank);
        for p in node.pos..node.pos + node.size {
            out[p as usize] = rank as u32;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableEntry;
    use metric_space::{Dataset, DatasetKind, ItemMetric, Metric};

    /// Construct over the `ids` subset of `data` on `dev`, on `threads`.
    fn construct_on(
        dev: &Arc<Device>,
        data: &Dataset,
        ids: &[u32],
        params: &GtsParams,
        threads: usize,
    ) -> Structure {
        let arena = data.metric.build_arena(&data.items).expect("arena");
        let payloads = Payloads {
            metric: &data.metric,
            objects: &data.items,
            arena: &arena,
        };
        construct(dev, &payloads, ids, params, threads).expect("build")
    }

    fn build_kind(
        kind: DatasetKind,
        n: usize,
        nc: u32,
    ) -> (Structure, Vec<metric_space::Item>, ItemMetric) {
        let data = kind.generate(n, 11);
        let dev = Device::rtx_2080_ti();
        let ids: Vec<u32> = (0..n as u32).collect();
        let params = GtsParams::default().with_node_capacity(nc);
        let s = construct_on(&dev, &data, &ids, &params, dev.host_threads());
        (s, data.items, data.metric)
    }

    #[test]
    fn table_is_permutation_of_ids() {
        let (s, _, _) = build_kind(DatasetKind::TLoc, 500, 4);
        let mut ids: Vec<u32> = s.table.obj_column().to_vec();
        ids.sort_unstable();
        assert_eq!(ids, (0..500).collect::<Vec<u32>>());
    }

    #[test]
    fn leaves_partition_table_contiguously() {
        let (s, _, _) = build_kind(DatasetKind::Words, 300, 3);
        let shape = s.nodes.shape();
        let start = shape.level_start(shape.h);
        let width = shape.level_width(shape.h);
        let mut cursor = 0u32;
        for id in start..start + width {
            let n = s.nodes.get(id);
            assert_eq!(n.pos, cursor, "leaf {id} not contiguous");
            cursor += n.size;
        }
        assert_eq!(cursor as usize, 300, "leaves must cover the table");
    }

    #[test]
    fn every_level_partitions_all_objects() {
        let (s, _, _) = build_kind(DatasetKind::Color, 400, 5);
        let shape = s.nodes.shape();
        for level in 1..=shape.h {
            let total: u32 = (0..shape.level_width(level))
                .map(|r| s.nodes.get(shape.level_start(level) + r).size)
                .sum();
            assert_eq!(total, 400, "level {level}");
        }
    }

    #[test]
    fn children_cover_parent_range() {
        let (s, _, _) = build_kind(DatasetKind::Vector, 250, 4);
        let shape = s.nodes.shape();
        for level in 1..shape.h {
            for r in 0..shape.level_width(level) {
                let id = shape.level_start(level) + r;
                let parent = s.nodes.get(id);
                let total: u32 = (0..shape.nc as usize)
                    .map(|j| s.nodes.get(shape.child(id, j)).size)
                    .sum();
                assert_eq!(total, parent.size, "node {id}");
                let first = s.nodes.get(shape.child(id, 0));
                assert_eq!(first.pos, parent.pos, "node {id} first child pos");
            }
        }
    }

    #[test]
    fn rings_are_consistent_with_stored_distances() {
        let (s, items, metric) = build_kind(DatasetKind::TLoc, 600, 5);
        let shape = s.nodes.shape();
        // For each leaf: stored dis must equal d(object, parent pivot) and
        // lie within [min_dis, max_dis], sorted ascending.
        let start = shape.level_start(shape.h);
        let width = shape.level_width(shape.h);
        for id in start..start + width {
            let leaf = s.nodes.get(id);
            if leaf.size == 0 {
                continue;
            }
            let parent = s.nodes.get(shape.parent(id));
            let pivot = parent.pivot.expect("parent is internal") as usize;
            let range = s.table.range(leaf.pos, leaf.size);
            let mut prev = f64::NEG_INFINITY;
            for e in range {
                let real = metric.distance(&items[e.obj as usize], &items[pivot]);
                assert!((real - e.dis).abs() < 1e-9, "stored {} real {real}", e.dis);
                assert!(e.dis >= leaf.min_dis - 1e-9 && e.dis <= leaf.max_dis + 1e-9);
                assert!(e.dis >= prev - 1e-12, "not ascending");
                prev = e.dis;
            }
        }
    }

    #[test]
    fn internal_pivot_belongs_to_its_node() {
        let (s, _, _) = build_kind(DatasetKind::Words, 300, 4);
        let shape = s.nodes.shape();
        for level in 1..shape.h {
            for r in 0..shape.level_width(level) {
                let id = shape.level_start(level) + r;
                let node = s.nodes.get(id);
                if node.size == 0 {
                    continue;
                }
                let pivot = node.pivot.expect("internal");
                assert!(
                    s.table.range(node.pos, node.size).any(|e| e.obj == pivot),
                    "pivot {pivot} not inside node {id}"
                );
            }
        }
    }

    #[test]
    fn leaves_have_no_pivot() {
        let (s, _, _) = build_kind(DatasetKind::Dna, 120, 3);
        let shape = s.nodes.shape();
        let start = shape.level_start(shape.h);
        for id in start..start + shape.level_width(shape.h) {
            assert!(s.nodes.get(id).pivot.is_none());
        }
    }

    #[test]
    fn single_level_tree() {
        let data = DatasetKind::Words.generate(3, 5);
        let dev = Device::rtx_2080_ti();
        let s = construct_on(&dev, &data, &[0, 1, 2], &GtsParams::default(), 1);
        assert_eq!(s.nodes.shape().h, 1);
        assert_eq!(s.nodes.get(1).size, 3);
        assert!(s.nodes.get(1).pivot.is_none(), "root-as-leaf has no pivot");
        assert_eq!(s.build_distances, 0, "no mapping pass runs");
    }

    #[test]
    fn build_distance_budget() {
        // Each of the h−1 mapping rounds computes n distances (+ n for the
        // root FFT seed pass).
        let (s, _, _) = build_kind(DatasetKind::TLoc, 1000, 10);
        let h = u64::from(s.nodes.shape().h);
        assert_eq!(s.build_distances, 1000 * h, "n·(h−1) mapping + n FFT");
    }

    #[test]
    fn construction_charges_device_time() {
        let data = DatasetKind::TLoc.generate(2000, 3);
        let dev = Device::rtx_2080_ti();
        let ids: Vec<u32> = (0..2000).collect();
        dev.reset_clock();
        construct_on(&dev, &data, &ids, &GtsParams::default(), dev.host_threads());
        let s = dev.stats();
        assert!(s.kernels > 3, "multiple kernels launched");
        assert!(s.cycles > 0 && s.work > 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let data = DatasetKind::Vector.generate(200, 3);
        let dev = Device::rtx_2080_ti();
        let ids: Vec<u32> = (0..200).collect();
        let p = GtsParams::default().with_seed(77);
        let a = construct_on(&dev, &data, &ids, &p, 2);
        let b = construct_on(&dev, &data, &ids, &p, 1);
        assert_eq!(
            a.table.iter().collect::<Vec<TableEntry>>(),
            b.table.iter().collect::<Vec<TableEntry>>(),
            "same seed, same table, whatever the host threads"
        );
    }

    #[test]
    fn subset_build_only_indexes_subset() {
        let data = DatasetKind::Words.generate(100, 3);
        let dev = Device::rtx_2080_ti();
        let ids: Vec<u32> = (0..100).step_by(2).map(|i| i as u32).collect();
        let s = construct_on(&dev, &data, &ids, &GtsParams::default(), dev.host_threads());
        assert_eq!(s.table.len(), 50);
        assert!(s.table.obj_column().iter().all(|&o| o % 2 == 0));
    }
}
