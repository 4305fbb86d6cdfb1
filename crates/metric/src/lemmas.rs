//! Triangle-inequality pruning predicates (Lemmas 5.1 and 5.2 of the paper).
//!
//! Both lemmas derive from the pivot-mapping picture of §3: a pivot `p` maps
//! every object `o` to the 1-d coordinate `d(o, p)`; the triangle inequality
//! guarantees `|d(o, p) − d(q, p)| ≤ d(o, q)`, so a gap on the mapped axis is
//! a certified gap in the metric space.

/// Lemma 5.1 — range-query pruning of a single object.
///
/// Given pivot `p`, query `q` with radius `r`, an object `o` **can be
/// pruned** iff `|d(o, p) − d(q, p)| > r`.
#[inline]
pub fn prune_object_range(d_op: f64, d_qp: f64, r: f64) -> bool {
    (d_op - d_qp).abs() > r
}

/// Lemma 5.2 — kNN pruning of a single object.
///
/// With the current k-th NN distance bound `d_kcur`, an object `o` **can be
/// pruned** iff `|d(o, p) − d(q, p)| ≥ d_kcur`.
#[inline]
pub fn prune_object_knn(d_op: f64, d_qp: f64, d_kcur: f64) -> bool {
    (d_op - d_qp).abs() >= d_kcur
}

/// Ring (node) pruning for range queries: a node whose objects have distances
/// to pivot `p` inside `[min_dis, max_dis]` can be pruned iff the query ring
/// `[d(q,p) − r, d(q,p) + r]` does not intersect `[min_dis, max_dis]`.
///
/// Setting `max_dis = ∞` recovers the one-sided check the paper states
/// explicitly (`d(q,p) + r < min_dis ⇒ prune`); storing the upper bound too
/// is the symmetric consequence of Lemma 5.1 (`GtsParams::two_sided_pruning`
/// in `gts-core` turns the upper bound off for the ablation).
#[inline]
pub fn prune_node_range(min_dis: f64, max_dis: f64, d_qp: f64, r: f64) -> bool {
    d_qp + r < min_dis || d_qp - r > max_dis
}

/// Ring (node) pruning for kNN queries with current bound `d_kcur`
/// (strict form of [`prune_node_range`], mirroring Lemma 5.2's `≥`).
#[inline]
pub fn prune_node_knn(min_dis: f64, max_dis: f64, d_qp: f64, d_kcur: f64) -> bool {
    d_qp + d_kcur <= min_dis || d_qp - d_kcur >= max_dis
}

/// Distance from a query's mapped coordinate `d_qp` to the ring
/// `[min_dis, max_dis]` on the pivot axis: 0 inside the ring. MRQ prunes a
/// ring whose gap exceeds `r`, MkNNQ one whose gap reaches the bound, so
/// kNN searches visit rings in ascending gap order. A NaN coordinate gives 0.
#[inline]
pub fn ring_gap(min_dis: f64, max_dis: f64, d_qp: f64) -> f64 {
    if d_qp < min_dis {
        min_dis - d_qp
    } else if d_qp > max_dis {
        d_qp - max_dis
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::edit_distance;

    /// Paper example under Lemma 5.1 (Fig. 4): query o3="bac", r = 1,
    /// pivot o9="babcc"; objects o1="a", o4="acba", o9 itself are pruned.
    #[test]
    fn lemma51_paper_example() {
        let q = "bac";
        let p = "babcc";
        let d_qp = f64::from(edit_distance(q, p));
        assert_eq!(d_qp, 2.0);
        let pruned = |o: &str| prune_object_range(f64::from(edit_distance(o, p)), d_qp, 1.0);
        assert!(pruned("a")); // o1: d=4 -> |4-2|>1
        assert!(pruned("acba")); // o4: d=4
        assert!(pruned("babcc")); // o9: d=0 -> |0-2|>1
        assert!(!pruned("ab")); // o2: d=3 -> |3-2|<=1, survives
    }

    /// Paper example under Lemma 5.2: during MkNNQ(o4, 2), once the bound
    /// is 2, an object whose pivot-coordinate gap reaches the bound is
    /// pruned (the paper prunes o7 via pivot o9 with |3 − 0| = 3 > 2).
    #[test]
    fn lemma52_paper_example() {
        let p = "babcc";
        let q = "acba";
        let d_qp = f64::from(edit_distance(q, p));
        let d_o7p = f64::from(edit_distance("abcc", p));
        let gap = (d_o7p - d_qp).abs();
        // With any bound no larger than the observed gap, the prune fires
        // and is sound: the true distance is at least the gap.
        if gap > 0.0 {
            assert!(prune_object_knn(d_o7p, d_qp, gap));
            assert!(f64::from(edit_distance("abcc", q)) >= gap);
        }
        // Unambiguous checks of the predicate itself:
        assert!(prune_object_knn(3.0, 0.0, 2.0));
        assert!(!prune_object_knn(1.5, 0.0, 2.0));
    }

    #[test]
    fn node_ring_pruning() {
        // Ring [2, 4]; query mapped to 0 with r=1 -> 0+1 < 2, prune.
        assert!(prune_node_range(2.0, 4.0, 0.0, 1.0));
        // Query at 5 with r=0.5 -> 5-0.5 > 4, prune.
        assert!(prune_node_range(2.0, 4.0, 5.0, 0.5));
        // Query at 3 intersects.
        assert!(!prune_node_range(2.0, 4.0, 3.0, 0.0));
        // One-sided (max = inf) degenerates to the paper's stated check.
        assert!(prune_node_range(2.0, f64::INFINITY, 0.5, 1.0));
        assert!(!prune_node_range(2.0, f64::INFINITY, 5.0, 0.5));
    }

    #[test]
    fn knn_ring_uses_strict_boundary() {
        // Exactly touching the ring boundary with `>=` semantics prunes.
        assert!(prune_node_knn(3.0, 5.0, 1.0, 2.0));
        assert!(!prune_node_knn(3.0, 5.0, 1.1, 2.0));
    }

    /// Soundness: whenever the object-level prune fires, the true distance
    /// really exceeds the radius (triangle inequality), on random strings.
    #[test]
    fn lemma51_soundness_randomised() {
        let words = [
            "a", "ab", "bac", "acba", "aabc", "abbc", "abcc", "aabcc", "babcc", "abbcc",
        ];
        for p in words {
            for q in words {
                let d_qp = f64::from(edit_distance(q, p));
                for o in words {
                    let d_op = f64::from(edit_distance(o, p));
                    let d_oq = f64::from(edit_distance(o, q));
                    for r in 0..4 {
                        let r = f64::from(r);
                        if prune_object_range(d_op, d_qp, r) {
                            assert!(
                                d_oq > r,
                                "unsound prune: o={o} q={q} p={p} d_oq={d_oq} r={r}"
                            );
                        }
                    }
                }
            }
        }
    }
}
