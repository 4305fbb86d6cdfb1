//! Property-based tests (proptest) over the core invariants:
//! metric axioms, pruning-lemma soundness, device-sort correctness,
//! batch-kernel/scalar agreement, and GTS-vs-scan equivalence on random
//! inputs.

use gts::metric::dist::{edit_distance, edit_distance_bounded};
use gts::metric::lemmas::{prune_node_range, prune_object_knn, prune_object_range};
use gts::metric::BatchMetric;
use gts::metric::Metric as _;
use gts::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;

fn arb_word() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-d]{0,12}").expect("regex")
}

fn arb_vec(dim: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-100.0f32..100.0, dim)
}

/// Characters of one to four UTF-8 bytes, NUL among them. The edit kernel
/// works on bytes, so a multi-byte character fills several pattern rows.
const TEXT_CHARS: [char; 8] = ['a', 'b', 'c', '\u{0}', 'é', 'ß', '中', '🦀'];

/// Byte lengths on both sides of the edit kernel's 64-row block edges.
const BLOCK_EDGE_LENS: [usize; 9] = [0, 1, 63, 64, 65, 127, 128, 129, 200];

/// Pairs of strings for the edit kernel. The first has a byte length from
/// [`BLOCK_EDGE_LENS`] or a random one up to 210. The second is either
/// drawn the same way or is the first after up to ten random character
/// edits, so that small bounds are both met and missed.
struct ArbTextPair;

impl ArbTextPair {
    fn text(rng: &mut StdRng) -> String {
        let len = if rng.gen_bool(0.75) {
            BLOCK_EDGE_LENS[rng.gen_range(0..BLOCK_EDGE_LENS.len())]
        } else {
            rng.gen_range(0..=210)
        };
        let mut s = String::with_capacity(len);
        while s.len() < len {
            let c = TEXT_CHARS[rng.gen_range(0..TEXT_CHARS.len())];
            s.push(if s.len() + c.len_utf8() <= len {
                c
            } else {
                'a'
            });
        }
        s
    }

    fn edited(rng: &mut StdRng, s: &str) -> String {
        let mut chars: Vec<char> = s.chars().collect();
        for _ in 0..rng.gen_range(0..=10) {
            let c = TEXT_CHARS[rng.gen_range(0..TEXT_CHARS.len())];
            let at = rng.gen_range(0..=chars.len());
            match rng.gen_range(0..3) {
                0 => chars.insert(at, c),
                _ if at == chars.len() => {}
                1 => {
                    chars.remove(at);
                }
                _ => chars[at] = c,
            }
        }
        chars.into_iter().collect()
    }
}

impl Strategy for ArbTextPair {
    type Value = (String, String);
    fn generate(&self, rng: &mut StdRng) -> (String, String) {
        let a = Self::text(rng);
        let b = if rng.gen_bool(0.3) {
            Self::text(rng)
        } else {
            Self::edited(rng, &a)
        };
        (a, b)
    }
}

/// The textbook two-row Levenshtein DP over bytes: the reference the
/// library's bit-parallel kernel is held against, defined here so that a
/// bug in the library cannot hide in it.
fn reference_edit(a: &[u8], b: &[u8]) -> u32 {
    let mut prev: Vec<u32> = (0..=b.len() as u32).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut cur = vec![i as u32 + 1; b.len() + 1];
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + u32::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        prev = cur;
    }
    prev[b.len()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Edit distance satisfies all four metric axioms.
    #[test]
    fn edit_distance_is_a_metric(a in arb_word(), b in arb_word(), c in arb_word()) {
        let dab = edit_distance(&a, &b);
        let dba = edit_distance(&b, &a);
        prop_assert_eq!(dab, dba, "symmetry");
        prop_assert_eq!(edit_distance(&a, &a), 0, "identity");
        prop_assert!((dab == 0) == (a == b), "indiscernibles");
        let dac = edit_distance(&a, &c);
        let dcb = edit_distance(&c, &b);
        prop_assert!(dab <= dac + dcb, "triangle: {} > {} + {}", dab, dac, dcb);
    }

    /// Bounded edit distance agrees with the full DP whenever it answers.
    #[test]
    fn bounded_edit_agrees(a in arb_word(), b in arb_word(), bound in 0u32..8) {
        let full = edit_distance(&a, &b);
        match edit_distance_bounded(&a, &b, bound) {
            Some(d) => prop_assert_eq!(d, full),
            None => prop_assert!(full > bound),
        }
    }

    /// L1, L2 and angular distances satisfy the triangle inequality.
    #[test]
    fn vector_metrics_triangle(a in arb_vec(6), b in arb_vec(6), c in arb_vec(6)) {
        for metric in [ItemMetric::L1, ItemMetric::L2, ItemMetric::ANGULAR] {
            let (ia, ib, ic) = (
                Item::vector(a.clone()),
                Item::vector(b.clone()),
                Item::vector(c.clone()),
            );
            let dab = metric.distance(&ia, &ib);
            let dac = metric.distance(&ia, &ic);
            let dcb = metric.distance(&ic, &ib);
            prop_assert!(
                dab <= dac + dcb + 1e-6,
                "{}: {} > {} + {}", metric.name(), dab, dac, dcb
            );
            prop_assert!((dab - metric.distance(&ib, &ia)).abs() < 1e-9, "symmetry");
        }
    }

    /// Lemma 5.1 soundness: a pruned object really lies outside the radius.
    #[test]
    fn lemma51_sound_on_random_strings(
        o in arb_word(), q in arb_word(), p in arb_word(), r in 0u32..6
    ) {
        let d_op = f64::from(edit_distance(&o, &p));
        let d_qp = f64::from(edit_distance(&q, &p));
        if prune_object_range(d_op, d_qp, f64::from(r)) {
            prop_assert!(f64::from(edit_distance(&o, &q)) > f64::from(r));
        }
    }

    /// Lemma 5.2 soundness: a pruned object cannot beat the current bound.
    #[test]
    fn lemma52_sound_on_random_vectors(
        o in arb_vec(4), q in arb_vec(4), p in arb_vec(4), bound in 0.1f64..50.0
    ) {
        let m = ItemMetric::L2;
        let (io, iq, ip) = (Item::vector(o), Item::vector(q), Item::vector(p));
        let d_op = m.distance(&io, &ip);
        let d_qp = m.distance(&iq, &ip);
        if prune_object_knn(d_op, d_qp, bound) {
            prop_assert!(m.distance(&io, &iq) >= bound - 1e-9);
        }
    }

    /// Node-ring pruning never prunes a ring containing the query coordinate.
    #[test]
    fn ring_prune_never_covers_query(lo in 0.0f64..50.0, width in 0.0f64..50.0,
                                     dq in 0.0f64..100.0, r in 0.0f64..10.0) {
        let hi = lo + width;
        if dq >= lo && dq <= hi {
            prop_assert!(!prune_node_range(lo, hi, dq, r));
        }
    }

    /// Device radix sort equals the std stable sort on random keys.
    #[test]
    fn device_sort_matches_std(keys in proptest::collection::vec(-1e9f64..1e9, 0..300)) {
        let dev = Device::rtx_2080_ti();
        let mut pairs: Vec<(f64, u32)> =
            keys.iter().enumerate().map(|(i, &k)| (k, i as u32)).collect();
        let mut expect = pairs.clone();
        expect.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("no NaN").then(a.1.cmp(&b.1)));
        gts::gpu::primitives::sort_pairs_by_key(&dev, &mut pairs);
        prop_assert_eq!(pairs, expect);
    }

    /// The batched edit-distance kernel agrees **exactly** (bit-identical
    /// values, identical work accounting) with the scalar metric.
    #[test]
    fn batch_edit_matches_scalar(words in proptest::collection::vec(arb_word(), 2..40), qsel in 0usize..40) {
        let items: Vec<Item> = words.iter().map(|w| Item::text(w.clone())).collect();
        let metric = ItemMetric::Edit;
        let arena = metric.build_arena(&items).expect("homogeneous text");
        let q = &items[qsel % items.len()];
        let ids: Vec<u32> = (0..items.len() as u32).collect();
        let mut out = vec![0.0; ids.len()];
        let (total, span) = metric.distance_batch(&items, Some(&arena), q, &ids, &mut out);
        let mut want_total = 0u64;
        let mut want_span = 0u64;
        for (&id, &got) in ids.iter().zip(&out) {
            let o = &items[id as usize];
            prop_assert_eq!(got.to_bits(), metric.distance(q, o).to_bits());
            let w = metric.work(q, o);
            want_total += w;
            want_span = want_span.max(w);
        }
        prop_assert_eq!(total, want_total);
        prop_assert_eq!(span, want_span);
    }

    /// The batched vector kernels (L1, L2, angular) agree exactly with the
    /// scalar metrics.
    #[test]
    fn batch_vector_matches_scalar(vecs in proptest::collection::vec(arb_vec(6), 2..40), qsel in 0usize..40) {
        let items: Vec<Item> = vecs.iter().cloned().map(Item::vector).collect();
        for metric in [ItemMetric::L1, ItemMetric::L2, ItemMetric::ANGULAR] {
            let arena = metric.build_arena(&items).expect("homogeneous vectors");
            let q = &items[qsel % items.len()];
            let ids: Vec<u32> = (0..items.len() as u32).collect();
            let mut out = vec![0.0; ids.len()];
            let (total, span) = metric.distance_batch(&items, Some(&arena), q, &ids, &mut out);
            let mut want_total = 0u64;
            let mut want_span = 0u64;
            for (&id, &got) in ids.iter().zip(&out) {
                let o = &items[id as usize];
                prop_assert_eq!(got.to_bits(), metric.distance(q, o).to_bits(), "{}", metric.name());
                let w = metric.work(q, o);
                want_total += w;
                want_span = want_span.max(w);
            }
            prop_assert_eq!(total, want_total, "{}", metric.name());
            prop_assert_eq!(span, want_span, "{}", metric.name());
        }
    }

    /// The early-abandoning batched kernel is exact whenever it answers
    /// `Some`, and only abandons pairs that genuinely exceed the bound —
    /// with or without an arena. The angular case draws dimensions around
    /// the 8-lane width and the 300-d Vector width, zero vectors, a
    /// parallel and an antipodal copy of the query, and bounds at exactly
    /// `d(q, o)`, NaN, −1, 0 and ≥ 1 as well as random ones.
    #[test]
    fn batch_bounded_exact_when_some(
        words in proptest::collection::vec(arb_word(), 2..30),
        vecs in proptest::collection::vec(arb_vec(4), 2..30),
        bound in 0.0f64..8.0,
        dim_sel in 0usize..5,
        n in 3usize..12,
        coords in proptest::collection::vec(-100.0f32..100.0, 300 * 12),
        zero_sel in 0usize..16,
        bound_sel in 0usize..7,
        raw in 0.0f64..1.0,
    ) {
        check_bounded(ItemMetric::Edit, words.iter().map(|w| Item::text(w.clone())).collect(), bound)?;
        check_bounded(ItemMetric::L2, vecs.iter().cloned().map(Item::vector).collect(), bound)?;

        let dim = [1usize, 7, 8, 9, 300][dim_sel];
        let mut rows: Vec<Vec<f32>> = coords.chunks_exact(300).take(n).map(|c| c[..dim].to_vec()).collect();
        rows[1] = rows[0].iter().map(|x| 2.0 * x).collect();
        rows[2] = rows[0].iter().map(|x| -x).collect();
        for (i, row) in rows.iter_mut().enumerate() {
            if (i + zero_sel) % 5 == 0 {
                row.fill(0.0);
            }
        }
        let items: Vec<Item> = rows.into_iter().map(Item::vector).collect();
        let at = &items[(raw * n as f64) as usize % n];
        let bound = match bound_sel {
            0 => ItemMetric::ANGULAR.distance(&items[0], at),
            1 => f64::NAN,
            2 => -1.0,
            3 => 0.0,
            4 => 1.0,
            5 => 1.0 + raw,
            _ => raw,
        };
        check_bounded(ItemMetric::ANGULAR, items, bound)?;
    }

    /// GTS MRQ equals brute force on random 2-d point sets.
    #[test]
    fn gts_matches_bruteforce_random_points(
        points in proptest::collection::vec(arb_vec(2), 30..120),
        r in 0.5f64..100.0,
        qsel in 0usize..30,
    ) {
        let items: Vec<Item> = points.iter().cloned().map(Item::vector).collect();
        let metric = ItemMetric::L2;
        let dev = Device::rtx_2080_ti();
        let gts = Gts::build(&dev, items.clone(), metric, GtsParams::default().with_node_capacity(3))
            .expect("build");
        let q = items[qsel % items.len()].clone();
        let mut want: Vec<Neighbor> = items
            .iter()
            .enumerate()
            .filter_map(|(i, o)| {
                let d = metric.distance(&q, o);
                (d <= r).then_some(Neighbor::new(i as u32, d))
            })
            .collect();
        gts::metric::index::sort_neighbors(&mut want);
        let got = gts.range_query(&q, r).expect("query");
        prop_assert_eq!(got, want);
    }

    /// GTS kNN distances equal brute force on random word sets.
    #[test]
    fn gts_knn_matches_bruteforce_random_words(
        words in proptest::collection::vec(arb_word(), 25..80),
        k in 1usize..10,
    ) {
        let items: Vec<Item> = words.iter().map(|w| Item::text(w.clone())).collect();
        let metric = ItemMetric::Edit;
        let dev = Device::rtx_2080_ti();
        let gts = Gts::build(&dev, items.clone(), metric, GtsParams::default().with_node_capacity(4))
            .expect("build");
        let q = items[0].clone();
        let mut all: Vec<Neighbor> = items
            .iter()
            .enumerate()
            .map(|(i, o)| Neighbor::new(i as u32, metric.distance(&q, o)))
            .collect();
        gts::metric::index::sort_neighbors(&mut all);
        all.truncate(k);
        let got = gts.knn_query(&q, k).expect("query");
        prop_assert_eq!(got.len(), all.len());
        for (g, w) in got.iter().zip(&all) {
            prop_assert!((g.dist - w.dist).abs() < 1e-9, "{} vs {}", g.dist, w.dist);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The edit kernel equals [`reference_edit`] in both argument orders,
    /// through the scalar entry points and the batched kernels (with and
    /// without an arena, each string as the query), unbounded and at
    /// bounds 0..=8 and `u32::MAX`.
    #[test]
    fn edit_kernel_matches_reference_dp(pair in ArbTextPair) {
        let (a, b) = pair;
        let want = reference_edit(a.as_bytes(), b.as_bytes());
        prop_assert_eq!(edit_distance(&a, &b), want, "{:?} {:?}", a, b);
        prop_assert_eq!(edit_distance(&b, &a), want, "{:?} {:?}", b, a);
        let metric = ItemMetric::Edit;
        let items = vec![Item::text(a.clone()), Item::text(b.clone())];
        let arena = metric.build_arena(&items).expect("homogeneous text");
        let mut out = [0.0];
        for arena in [Some(&arena), None] {
            for (q, o) in [(0, 1), (1, 0)] {
                metric.distance_batch(&items, arena, &items[q], &[o], &mut out);
                prop_assert_eq!(out[0], f64::from(want));
            }
        }
        let mut bounded = [None];
        for bound in (0..=8).chain([u32::MAX]) {
            let within = (want <= bound).then_some(want);
            prop_assert_eq!(edit_distance_bounded(&a, &b, bound), within, "bound {}", bound);
            prop_assert_eq!(edit_distance_bounded(&b, &a, bound), within, "bound {}", bound);
            for arena in [Some(&arena), None] {
                for (q, o) in [(0, 1), (1, 0)] {
                    metric.distance_batch_bounded(
                        &items, arena, &items[q], &[o], f64::from(bound), &mut bounded,
                    );
                    prop_assert_eq!(bounded[0], within.map(f64::from), "bound {}", bound);
                }
            }
        }
    }
}

/// `distance_batch_bounded` from `items[0]` to every item through the
/// arena: `Some(d)` iff `d ≤ bound`, bit-equal to the scalar distance.
fn check_bounded(
    metric: ItemMetric,
    items: Vec<Item>,
    bound: f64,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let arena = metric.build_arena(&items).expect("homogeneous");
    let q = &items[0];
    let ids: Vec<u32> = (0..items.len() as u32).collect();
    let mut out = vec![None; ids.len()];
    metric.distance_batch_bounded(&items, Some(&arena), q, &ids, bound, &mut out);
    for (&id, slot) in ids.iter().zip(&out) {
        let real = metric.distance(q, &items[id as usize]);
        match slot {
            Some(d) => {
                prop_assert_eq!(d.to_bits(), real.to_bits(), "{}", metric.name());
                prop_assert!(*d <= bound);
            }
            None => prop_assert!(
                bound.is_nan() || real > bound,
                "{}: abandoned {real} <= {bound}",
                metric.name()
            ),
        }
    }
    Ok(())
}

/// `mul_add` compiles to one instruction only when FMA is enabled at build
/// time (`.cargo/config.toml` targets x86-64-v3). Without it every
/// `mul_add` of the dot-product kernel becomes a libm call: the same bits,
/// several times slower.
#[cfg(target_arch = "x86_64")]
#[test]
#[allow(clippy::assertions_on_constants)] // a build-time fact, checked at test time
fn x86_64_builds_enable_fma() {
    assert!(
        cfg!(target_feature = "fma"),
        "build for x86-64-v3 (see .cargo/config.toml)"
    );
}
