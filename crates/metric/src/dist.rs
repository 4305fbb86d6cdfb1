//! Distance metrics and their work models.
//!
//! Every metric implements [`Metric`], which reports both the distance value
//! and the *work* (≈ arithmetic operation count) of evaluating it. Work feeds
//! the simulated device clock: the paper's headline costs are dominated by
//! distance evaluations (edit distance on DNA is ~10⁴ ops; L2 on T-Loc is
//! ~6 ops), and the relative expense of metrics is exactly what separates the
//! datasets in the evaluation (§6).

use crate::object::Item;

/// A distance metric over objects of type `O`.
///
/// Implementations must satisfy the metric axioms (paper §3): symmetry,
/// non-negativity, identity of indiscernibles, and the triangle inequality
/// `d(a, b) ≤ d(a, c) + d(c, b)`. The property-based tests in this crate
/// check all four on sampled triples for every shipped metric.
pub trait Metric<O: ?Sized>: Send + Sync {
    /// The distance between `a` and `b`.
    fn distance(&self, a: &O, b: &O) -> f64;

    /// Work units (≈ scalar ops) to evaluate `distance(a, b)`; used by the
    /// simulated cost model. Must depend only on the objects, not the result.
    fn work(&self, a: &O, b: &O) -> u64;

    /// Human-readable metric name (for reports).
    fn name(&self) -> &'static str;

    /// Whether `obj` is an object this metric can measure. Indexes check
    /// every query with it before any device work, so a malformed query is
    /// a typed error instead of a panic inside [`Metric::distance`].
    fn accepts(&self, _obj: &O) -> bool {
        true
    }

    /// Whether `a` and `b` have the same shape, so that measuring them is
    /// meaningful. Indexes compare every query and every new object with a
    /// stored one: a vector of the wrong dimension is a typed error, not a
    /// distance over the shorter prefix.
    fn comparable(&self, _a: &O, _b: &O) -> bool {
        true
    }
}

// ---------------------------------------------------------------------------
// Edit distance
// ---------------------------------------------------------------------------

/// Levenshtein (word edit) distance over strings; the metric of the Words and
/// DNA datasets.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EditDistance;

/// The match masks of one edit-distance pattern, built once and run
/// against many texts by the bit-parallel kernel [`EditPattern::distance`]
/// (Myers 1999, in Hyyrö's global-distance form). Bit `i` of the mask of
/// byte `c` is set iff `pattern[i] == c`.
///
/// A pattern of at most 64 bytes (every Words object) keeps one word per
/// byte value, inline; a longer one (a 108-base DNA read) keeps ⌈m/64⌉
/// words per byte value and carries the horizontal delta from block to
/// block. The batched kernels build one pattern per call from the query,
/// so the masks are paid once per query, not once per pair.
pub struct EditPattern {
    len: usize,
    masks: Masks,
}

// The inline table is the common case (every Words pattern) and the point
// of it: boxing it would put an allocation back on every scalar call.
#[allow(clippy::large_enum_variant)]
enum Masks {
    One([u64; 256]),
    Blocks {
        /// The masks of byte `c` are `peq[c * blocks..][..blocks]`.
        peq: Vec<u64>,
        /// Each block's vertical deltas `(Pv, Mv)` for the current text
        /// byte; reset by every run, so no run allocates.
        deltas: Vec<(u64, u64)>,
    },
}

/// Advance one 64-row block of the edit-distance column past a text byte
/// whose match mask is `eq`. `(pv, mv)` are the block's vertical deltas
/// (bit `i` set: row `i` is one more / one less than the row above),
/// `h_in ∈ {−1, 0, +1}` is the horizontal delta entering the block's top
/// row, and the return value is the horizontal delta leaving the row
/// whose bit is `row`.
#[inline(always)]
fn advance_block((pv, mv): &mut (u64, u64), eq: u64, h_in: isize, row: u64) -> isize {
    let neg_in = u64::from(h_in < 0);
    let xv = eq | *mv;
    // A −1 entering the top row lets row 0 start a carry like a match.
    let eq = eq | neg_in;
    let xh = ((eq & *pv).wrapping_add(*pv) ^ *pv) | eq;
    let ph = *mv | !(xh | *pv);
    let mh = *pv & xh;
    let h_out = isize::from(ph & row != 0) - isize::from(mh & row != 0);
    let ph = (ph << 1) | u64::from(h_in > 0);
    let mh = (mh << 1) | neg_in;
    *pv = mh | !(xv | ph);
    *mv = ph & xv;
    h_out
}

impl EditPattern {
    /// The match masks of `pattern`.
    pub fn new(pattern: &[u8]) -> Self {
        let masks = if pattern.len() <= 64 {
            let mut peq = [0u64; 256];
            for (i, &c) in pattern.iter().enumerate() {
                peq[usize::from(c)] |= 1 << i;
            }
            Masks::One(peq)
        } else {
            let blocks = pattern.len().div_ceil(64);
            let mut peq = vec![0u64; 256 * blocks];
            for (i, &c) in pattern.iter().enumerate() {
                peq[usize::from(c) * blocks + i / 64] |= 1 << (i % 64);
            }
            Masks::Blocks {
                peq,
                deltas: vec![(0, 0); blocks],
            }
        };
        EditPattern {
            len: pattern.len(),
            masks,
        }
    }

    /// `Some(d)` iff the byte-level Levenshtein distance `d` between the
    /// pattern and `text` is `≤ bound`; exact whenever it answers, and
    /// `bound = u32::MAX` never abandons.
    ///
    /// The kernel tracks the last row of the DP table, one text byte at a
    /// time. That row's score moves by at most one per byte, so the run
    /// abandons as soon as it exceeds `bound` by more than the bytes left.
    pub fn distance(&mut self, text: &[u8], bound: u32) -> Option<u32> {
        let m = self.len;
        match &mut self.masks {
            Masks::One(peq) => one_block_distance(peq, m, text, bound),
            Masks::Blocks { peq, deltas } => {
                let blocks = deltas.len();
                let last_row = 1u64 << ((m - 1) % 64);
                deltas.fill((!0, 0));
                let (body, tail) = deltas.split_at_mut(blocks - 1);
                last_row_scores(m, text, bound, |c| {
                    let eqs = &peq[usize::from(c) * blocks..][..blocks];
                    let mut h = 1;
                    for (delta, &eq) in body.iter_mut().zip(eqs) {
                        h = advance_block(delta, eq, h, 1 << 63);
                    }
                    advance_block(&mut tail[0], eqs[blocks - 1], h, last_row)
                })
            }
        }
    }
}

/// The score loop every pattern shape shares: walk `text`, adding the
/// horizontal delta `step(byte)` leaves at the table's last row (pattern
/// length `m`) to its score. That score moves by at most one per byte, so
/// the run abandons as soon as it exceeds `bound` by more than the bytes
/// left.
#[inline(always)]
fn last_row_scores(
    m: usize,
    text: &[u8],
    bound: u32,
    mut step: impl FnMut(u8) -> isize,
) -> Option<u32> {
    let n = text.len();
    let bound = usize::try_from(bound).unwrap_or(usize::MAX);
    if m.abs_diff(n) > bound {
        return None;
    }
    if m == 0 {
        return u32::try_from(n).ok();
    }
    let mut score = m;
    for (j, &c) in text.iter().enumerate() {
        score = score.wrapping_add_signed(step(c));
        if score > bound.saturating_add(n - j - 1) {
            return None;
        }
    }
    u32::try_from(score).ok()
}

/// [`EditPattern::distance`] for a pattern of `m ≤ 64` bytes whose match
/// masks are `peq`.
fn one_block_distance(peq: &[u64; 256], m: usize, text: &[u8], bound: u32) -> Option<u32> {
    // The top row of the table is 0, 1, 2, …: every column enters the
    // block with a horizontal delta of +1. (`m = 0` never steps.)
    let last_row = 1u64 << (m.saturating_sub(1) % 64);
    let mut delta = (!0u64, 0u64);
    last_row_scores(m, text, bound, |c| {
        advance_block(&mut delta, peq[usize::from(c)], 1, last_row)
    })
}

std::thread_local! {
    /// The match masks of the scalar edit kernel's current pattern, for
    /// patterns of at most 64 bytes. All zero between calls: each call sets
    /// its pattern's masks and clears exactly those, instead of building
    /// (and zeroing) a 2 KB table per pair.
    static SCALAR_PEQ: std::cell::RefCell<[u64; 256]> = const { std::cell::RefCell::new([0; 256]) };
}

/// Levenshtein distance over bytes; the generators emit ASCII, matching
/// the paper's word and DNA data.
pub fn edit_distance(a: &str, b: &str) -> u32 {
    edit_distance_bounded(a, b, u32::MAX).expect("an unbounded distance always answers")
}

/// Early-abandoning edit distance: `Some(d)` iff `d ≤ bound`, exact when
/// it answers. Runs the kernel of [`EditPattern::distance`] with the
/// shorter string as the pattern; a pattern of at most 64 bytes uses this
/// thread's mask table instead of building one.
///
/// Used by verification steps where a query radius is known; charged the
/// banded work by [`EditDistance::work_bounded`].
pub fn edit_distance_bounded(a: &str, b: &str, bound: u32) -> Option<u32> {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let (pattern, text) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if pattern.len() > 64 {
        return EditPattern::new(pattern).distance(text, bound);
    }
    SCALAR_PEQ.with(|peq| {
        let mut peq = peq.borrow_mut();
        for (i, &c) in pattern.iter().enumerate() {
            peq[usize::from(c)] |= 1 << i;
        }
        let d = one_block_distance(&peq, pattern.len(), text, bound);
        for &c in pattern {
            peq[usize::from(c)] = 0;
        }
        d
    })
}

impl EditDistance {
    /// Work of the full DP a simulated GPU thread runs: `(|a|+1)·(|b|+1)`
    /// cell updates, ~3 ops each. It prices the modelled device kernel, not
    /// the host's bit-parallel one, so the simulated clock does not move
    /// with the host implementation.
    pub fn work_full(a: &str, b: &str) -> u64 {
        Self::work_full_lens(a.len(), b.len())
    }

    /// [`EditDistance::work_full`] from payload lengths alone (the batched
    /// kernels read lengths off the arena offsets without touching bytes).
    pub fn work_full_lens(a_len: usize, b_len: usize) -> u64 {
        3 * ((a_len as u64 + 1) * (b_len as u64 + 1))
    }

    /// Work of the banded DP with half-width `bound`.
    pub fn work_bounded(a: &str, b: &str, bound: u32) -> u64 {
        Self::work_bounded_lens(a.len(), b.len(), bound)
    }

    /// [`EditDistance::work_bounded`] from payload lengths alone. It prices
    /// the banded DP (Ukkonen's band of half-width `bound`) that a
    /// simulated GPU thread runs, not the host kernel, and charges the same
    /// for a pair rejected by length as for one that is evaluated.
    pub fn work_bounded_lens(a_len: usize, b_len: usize, bound: u32) -> u64 {
        let band = (2 * u64::from(bound) + 1).min(b_len as u64 + 1);
        3 * (a_len as u64 + 1) * band
    }
}

impl Metric<str> for EditDistance {
    fn distance(&self, a: &str, b: &str) -> f64 {
        f64::from(edit_distance(a, b))
    }

    fn work(&self, a: &str, b: &str) -> u64 {
        Self::work_full(a, b)
    }

    fn name(&self) -> &'static str {
        "edit"
    }
}

// ---------------------------------------------------------------------------
// Vector metrics
// ---------------------------------------------------------------------------

/// Metrics over dense `f32` vectors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VectorMetric {
    /// Manhattan distance (Color dataset).
    L1,
    /// Euclidean distance (T-Loc dataset).
    L2,
    /// Angular distance `arccos(cos θ)/π ∈ [0, 1]`.
    ///
    /// The paper's Vector dataset uses "word cosine distance"; raw
    /// `1 − cos θ` violates the triangle inequality, so exact metric indexing
    /// uses its metric completion, the normalised angle (documented
    /// substitution: the paper's dataset, this reproduction's metric).
    Angular,
}

/// Lanes summed in parallel by the L1/L2 and dot-product kernels.
pub const LANES: usize = 8;

/// The **canonical lane-summation order** of the L1/L2 and dot-product
/// kernels: 8 per-lane
/// `f64` accumulators filled sequentially across 8-element blocks, reduced
/// once at the end by this fixed binary tree. The parallel accumulators
/// break the loop-carried add dependency of a sequential fold (so rustc can
/// vectorize), and because every caller and chunking runs this exact order,
/// results are a pure function of the payloads: bit-identical for any host
/// thread count, and for 1 or N shards.
#[inline(always)]
fn lane_reduce(acc: [f64; LANES]) -> f64 {
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
}

/// L1 (Manhattan) distance, block-wise canonical order (see `lane_reduce`).
pub fn l1(a: &[f32], b: &[f32]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0f64; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for l in 0..LANES {
            acc[l] += f64::from((xa[l] - xb[l]).abs());
        }
    }
    for (l, (x, y)) in ca.remainder().iter().zip(cb.remainder()).enumerate() {
        acc[l] += f64::from((x - y).abs());
    }
    lane_reduce(acc)
}

/// L2 (Euclidean) distance, block-wise canonical order (see `lane_reduce`).
pub fn l2(a: &[f32], b: &[f32]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0f64; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for l in 0..LANES {
            let d = f64::from(xa[l] - xb[l]);
            acc[l] += d * d;
        }
    }
    for (l, (x, y)) in ca.remainder().iter().zip(cb.remainder()).enumerate() {
        let d = f64::from(x - y);
        acc[l] += d * d;
    }
    lane_reduce(acc).sqrt()
}

/// Dot product in the canonical lane order (see `lane_reduce`). Each
/// `f32 × f32` product is exact in `f64`, so the only roundings are the
/// lane additions — which is what lets the batched kernels fuse them.
pub(crate) fn dot(a: &[f32], b: &[f32]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0f64; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for l in 0..LANES {
            acc[l] += f64::from(xa[l]) * f64::from(xb[l]);
        }
    }
    for (l, (x, y)) in ca.remainder().iter().zip(cb.remainder()).enumerate() {
        acc[l] += f64::from(*x) * f64::from(*y);
    }
    lane_reduce(acc)
}

/// [`dot`] against a query already widened to `f64` (see
/// [`with_widened`]): the batched kernels widen a query once per call
/// instead of once per pair. The lanes accumulate with `mul_add`, which
/// rounds once — exactly like [`dot`]'s add of an exact product — so the
/// two are bit-identical.
pub(crate) fn dot_wide(a: &[f64], b: &[f32]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0f64; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for l in 0..LANES {
            acc[l] = xa[l].mul_add(f64::from(xb[l]), acc[l]);
        }
    }
    for (l, (x, y)) in ca.remainder().iter().zip(cb.remainder()).enumerate() {
        acc[l] = x.mul_add(f64::from(*y), acc[l]);
    }
    lane_reduce(acc)
}

/// Euclidean norm `√(a·a)`, in [`dot`]'s order. Angular arenas store it
/// per row, so a cached norm and a fresh one are the same bits.
pub(crate) fn norm(a: &[f32]) -> f64 {
    dot(a, a).sqrt()
}

std::thread_local! {
    /// Per-thread `f64` copy of the query a batched vector kernel is
    /// running, reused across calls.
    static WIDE_SCRATCH: std::cell::RefCell<Vec<f64>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Run `f` with `q` widened to `f64` in this thread's reusable scratch.
pub(crate) fn with_widened<R>(q: &[f32], f: impl FnOnce(&[f64]) -> R) -> R {
    WIDE_SCRATCH.with(|s| {
        let mut wide = s.borrow_mut();
        wide.clear();
        wide.extend(q.iter().map(|&x| f64::from(x)));
        f(&wide)
    })
}

/// [`angular`] from a dot product and the two norms — the one definition
/// every angular path runs.
#[inline]
pub(crate) fn angular_from(dot: f64, norm_a: f64, norm_b: f64) -> f64 {
    match (norm_a == 0.0, norm_b == 0.0) {
        (true, true) => 0.0,
        (true, false) | (false, true) => 0.5,
        (false, false) => cosine(dot, norm_a, norm_b).acos() / std::f64::consts::PI,
    }
}

#[inline]
fn cosine(dot: f64, norm_a: f64, norm_b: f64) -> f64 {
    (dot / (norm_a * norm_b)).clamp(-1.0, 1.0)
}

/// Angular distance `arccos(cosine similarity) / π`, a metric on the unit
/// sphere, computed as one dot product over the two norms. Inputs need not
/// be normalised. A zero vector has no direction: it is at distance 0 from
/// another zero vector and ½ from every non-zero one, which keeps the
/// triangle inequality (a zero vector sits "between" any two directions,
/// whose distance is at most 1).
pub fn angular(a: &[f32], b: &[f32]) -> f64 {
    angular_from(dot(a, b), norm(a), norm(b))
}

/// Margin of [`angular_cos_floor`]: far above the few-ulp error of
/// `cos`, `acos` and the division, far below any bound that matters.
const COS_FLOOR_MARGIN: f64 = 1e-9;

/// The cosine below which an angular distance is provably past `bound`,
/// so [`angular_within`] can skip the `acos`. Since |d acos/dc| ≥ 1,
/// `cos < cos(π·bound) − 1e-9` puts the angle at least 1e-9 past `π·bound`.
/// Only a bound in `[0, 1)` has such a floor; for NaN, negative and ≥ 1
/// bounds it is −∞ and every pair takes the full path.
pub(crate) fn angular_cos_floor(bound: f64) -> f64 {
    if (0.0..1.0).contains(&bound) {
        (std::f64::consts::PI * bound).cos() - COS_FLOOR_MARGIN
    } else {
        f64::NEG_INFINITY
    }
}

/// `Some(angular_from(dot, norm_a, norm_b))` iff it is `≤ bound`, where
/// `floor` is [`angular_cos_floor`]`(bound)`. A pair whose cosine is below
/// the floor is answered `None` without its `acos`.
#[inline]
pub(crate) fn angular_within(
    dot: f64,
    norm_a: f64,
    norm_b: f64,
    bound: f64,
    floor: f64,
) -> Option<f64> {
    if norm_a != 0.0 && norm_b != 0.0 && cosine(dot, norm_a, norm_b) < floor {
        return None;
    }
    let d = angular_from(dot, norm_a, norm_b);
    (d <= bound).then_some(d)
}

impl VectorMetric {
    /// [`Metric::work`] from the dimensionality alone (the batched kernels
    /// read lengths off the arena offsets without touching payloads).
    pub fn work_len(&self, dims: usize) -> u64 {
        let d = dims as u64;
        match self {
            VectorMetric::L1 => 2 * d,
            VectorMetric::L2 => 3 * d + 8,
            VectorMetric::Angular => 6 * d + 32,
        }
    }
}

impl Metric<[f32]> for VectorMetric {
    fn distance(&self, a: &[f32], b: &[f32]) -> f64 {
        match self {
            VectorMetric::L1 => l1(a, b),
            VectorMetric::L2 => l2(a, b),
            VectorMetric::Angular => angular(a, b),
        }
    }

    fn work(&self, a: &[f32], _b: &[f32]) -> u64 {
        self.work_len(a.len())
    }

    fn name(&self) -> &'static str {
        match self {
            VectorMetric::L1 => "L1",
            VectorMetric::L2 => "L2",
            VectorMetric::Angular => "angular",
        }
    }
}

// ---------------------------------------------------------------------------
// Dynamic metric over `Item`
// ---------------------------------------------------------------------------

/// A metric over [`Item`]s — the dynamic dispatch point tying a dataset to
/// its distance function (Table 2 of the paper).
///
/// # Panics
/// Panics if the two items are of mismatched variants (text vs vector) or, in
/// debug builds, mismatched dimensionality; a dataset is always homogeneous.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ItemMetric {
    /// Edit distance over [`Item::Text`].
    Edit,
    /// A vector metric over [`Item::Vector`].
    Vector(VectorMetric),
}

impl ItemMetric {
    /// Manhattan distance over vectors.
    pub const L1: ItemMetric = ItemMetric::Vector(VectorMetric::L1);
    /// Euclidean distance over vectors.
    pub const L2: ItemMetric = ItemMetric::Vector(VectorMetric::L2);
    /// Angular (normalised-arccos cosine) distance over vectors.
    pub const ANGULAR: ItemMetric = ItemMetric::Vector(VectorMetric::Angular);

    /// Whether this is an Lp-norm metric over vectors (the only family the
    /// LBPG-Tree baseline supports, per the paper's Remark in §6.1).
    pub fn is_lp_vector(&self) -> bool {
        matches!(
            self,
            ItemMetric::Vector(VectorMetric::L1) | ItemMetric::Vector(VectorMetric::L2)
        )
    }

    /// Whether this metric operates on vector objects at all (GANNS supports
    /// vector data only).
    pub fn is_vector(&self) -> bool {
        matches!(self, ItemMetric::Vector(_))
    }
}

impl Metric<Item> for ItemMetric {
    fn distance(&self, a: &Item, b: &Item) -> f64 {
        match (self, a, b) {
            (ItemMetric::Edit, Item::Text(x), Item::Text(y)) => EditDistance.distance(x, y),
            (ItemMetric::Vector(m), Item::Vector(x), Item::Vector(y)) => m.distance(x, y),
            _ => panic!("metric/object mismatch: {:?} on {:?} vs {:?}", self, a, b),
        }
    }

    fn work(&self, a: &Item, b: &Item) -> u64 {
        match (self, a, b) {
            (ItemMetric::Edit, Item::Text(x), Item::Text(y)) => EditDistance.work(x, y),
            (ItemMetric::Vector(m), Item::Vector(x), Item::Vector(y)) => m.work(x, y),
            _ => panic!("metric/object mismatch"),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            ItemMetric::Edit => "edit",
            ItemMetric::Vector(m) => m.name(),
        }
    }

    /// The payload kind must match the metric, and a vector must have
    /// finite coordinates: a NaN or ±∞ makes every distance NaN, which no
    /// pruning bound can order.
    fn accepts(&self, obj: &Item) -> bool {
        match (self, obj) {
            (ItemMetric::Edit, Item::Text(_)) => true,
            (ItemMetric::Vector(_), Item::Vector(v)) => v.iter().all(|x| x.is_finite()),
            _ => false,
        }
    }

    /// Vectors must share a dimension; any two strings are comparable.
    fn comparable(&self, a: &Item, b: &Item) -> bool {
        match (a, b) {
            (Item::Text(_), Item::Text(_)) => true,
            (Item::Vector(x), Item::Vector(y)) => x.len() == y.len(),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edit_basic() {
        assert_eq!(edit_distance("", ""), 0);
        assert_eq!(edit_distance("abc", ""), 3);
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(edit_distance("abc", "abc"), 0);
        assert_eq!(edit_distance("a", "ab"), 1);
    }

    #[test]
    fn edit_paper_example() {
        // Fig. 1 of the paper: d(o1="a", o2="ab") = 1, d(o1, o3="bac") = 2.
        assert_eq!(edit_distance("a", "ab"), 1);
        assert_eq!(edit_distance("a", "bac"), 2);
        assert_eq!(edit_distance("aabc", "babcc"), 2);
    }

    #[test]
    fn edit_bounded_agrees_when_within() {
        let pairs = [("kitten", "sitting"), ("abcdef", "azced"), ("aa", "aa")];
        for (a, b) in pairs {
            let full = edit_distance(a, b);
            for bound in 0..8 {
                let got = edit_distance_bounded(a, b, bound);
                if full <= bound {
                    assert_eq!(got, Some(full), "{a} {b} bound={bound}");
                } else {
                    assert_eq!(got, None, "{a} {b} bound={bound}");
                }
            }
        }
    }

    #[test]
    fn edit_bounded_survives_maximal_bound() {
        // `bound + bytes left` must saturate, not wrap, at `u32::MAX`.
        assert_eq!(
            edit_distance_bounded("kitten", "sitting", u32::MAX),
            Some(3)
        );
        assert_eq!(edit_distance_bounded("", "abc", u32::MAX), Some(3));
    }

    #[test]
    fn edit_patterns_past_one_block() {
        // 64-row blocks: the horizontal delta must carry between them, and
        // the score must be read at the last pattern row, not bit 63.
        let a = "acgt".repeat(27); // 108 bytes, a DNA read's length
        let mut b = a.clone();
        b.replace_range(70..71, "a");
        b.insert(3, 't');
        assert_eq!(edit_distance(&a, &b), 2);
        assert_eq!(edit_distance_bounded(&a, &b, 1), None);
        assert_eq!(edit_distance(&"x".repeat(130), ""), 130);
        assert_eq!(edit_distance(&"x".repeat(65), &"x".repeat(64)), 1);
        assert_eq!(edit_distance(&"ab".repeat(50), &"ba".repeat(50)), 2);
    }

    #[test]
    fn l_norms() {
        let a = [0.0f32, 0.0];
        let b = [3.0f32, 4.0];
        assert_eq!(l1(&a, &b), 7.0);
        assert_eq!(l2(&a, &b), 5.0);
    }

    #[test]
    fn low_dim_l2_matches_sequential_fold() {
        // For dims ≤ 3 the canonical lane order degenerates to the plain
        // left-to-right fold — the property that keeps the 2-D T-Loc
        // fingerprints (shard invariance, descent-engine pins) unchanged.
        for n in 0..=3usize {
            let a: Vec<f32> = (0..n).map(|i| i as f32 * 1.25 + 0.1).collect();
            let b: Vec<f32> = (0..n).map(|i| 2.0 - i as f32 * 0.75).collect();
            // Plain left-to-right fold from `+0.0` — the order the legacy
            // scalar kernels used. (`Iterator::sum` folds from `-0.0`, which
            // would flip the sign bit of the empty sum.)
            let seq_l2 = a
                .iter()
                .zip(&b)
                .map(|(x, y)| {
                    let d = f64::from(x - y);
                    d * d
                })
                .fold(0f64, |s, t| s + t)
                .sqrt();
            let seq_l1 = a
                .iter()
                .zip(&b)
                .map(|(x, y)| f64::from((x - y).abs()))
                .fold(0f64, |s, t| s + t);
            assert_eq!(l2(&a, &b).to_bits(), seq_l2.to_bits(), "L2 n={n}");
            assert_eq!(l1(&a, &b).to_bits(), seq_l1.to_bits(), "L1 n={n}");
        }
    }

    #[test]
    fn angular_range_and_identity() {
        let a = [1.0f32, 0.0];
        let b = [0.0f32, 1.0];
        let c = [-1.0f32, 0.0];
        assert!((angular(&a, &a)).abs() < 1e-9);
        assert!((angular(&a, &b) - 0.5).abs() < 1e-9);
        assert!((angular(&a, &c) - 1.0).abs() < 1e-9);
        let z = [0.0f32, 0.0];
        assert_eq!(angular(&z, &z), 0.0);
        assert_eq!(angular(&z, &a), 0.5);
        assert_eq!(angular(&c, &z), 0.5);
    }

    #[test]
    fn widened_fma_dot_equals_lane_dot_bit_for_bit() {
        // Coordinates spread over nine decades, so the lane sums round at
        // every step; lengths straddle the 8-lane width and reach 300.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut coord = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            let unit = (state >> 40) as f32 / (1u64 << 24) as f32 - 0.5;
            unit * 10f32.powi((state % 9) as i32 - 4)
        };
        for n in [0usize, 1, 7, 8, 9, 17, 300] {
            let a: Vec<f32> = (0..n).map(|_| coord()).collect();
            let b: Vec<f32> = (0..n).map(|_| coord()).collect();
            let fused = with_widened(&a, |wide| dot_wide(wide, &b));
            assert_eq!(fused.to_bits(), dot(&a, &b).to_bits(), "n={n}");
            let cached = angular_from(fused, norm(&a), norm(&b));
            assert_eq!(cached.to_bits(), angular(&a, &b).to_bits(), "n={n}");
        }
    }

    #[test]
    fn cos_floor_only_for_bounds_below_one() {
        for bound in [f64::NAN, -1.0, 1.0, 2.0, f64::INFINITY] {
            assert_eq!(angular_cos_floor(bound), f64::NEG_INFINITY, "{bound}");
        }
        assert!(angular_cos_floor(0.0) < 1.0);
        assert!(angular_cos_floor(0.5).abs() < 2e-9);
        // A pair exactly at the bound is never skipped.
        let (a, b) = ([1.0f32, 2.0, 3.0], [3.0f32, -1.0, 0.5]);
        let d = angular(&a, &b);
        let floor = angular_cos_floor(d);
        assert_eq!(
            angular_within(dot(&a, &b), norm(&a), norm(&b), d, floor),
            Some(d)
        );
    }

    #[test]
    fn item_metric_dispatch() {
        let m = ItemMetric::Edit;
        assert_eq!(m.distance(&Item::text("ab"), &Item::text("abc")), 1.0);
        let m = ItemMetric::L2;
        let d = m.distance(&Item::vector(vec![0.0, 0.0]), &Item::vector(vec![3.0, 4.0]));
        assert_eq!(d, 5.0);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn item_metric_mismatch_panics() {
        ItemMetric::Edit.distance(&Item::text("a"), &Item::vector(vec![1.0]));
    }

    #[test]
    fn work_positive_and_monotone_in_size() {
        let m = ItemMetric::Edit;
        let short = m.work(&Item::text("ab"), &Item::text("cd"));
        let long = m.work(&Item::text("abcdefgh"), &Item::text("ijklmnop"));
        assert!(long > short && short > 0);
        let v = ItemMetric::L1;
        assert!(v.work(&Item::vector(vec![0.0; 300]), &Item::vector(vec![0.0; 300])) >= 600);
    }

    #[test]
    fn comparable_needs_one_kind_and_one_dimension() {
        let m = ItemMetric::ANGULAR;
        let (v2, v3) = (
            Item::vector(vec![1.0, 0.0]),
            Item::vector(vec![1.0, 0.0, 0.0]),
        );
        assert!(m.comparable(&v2, &Item::vector(vec![0.0, 1.0])));
        assert!(!m.comparable(&v3, &v2));
        assert!(!m.comparable(&Item::text("a"), &v2));
        assert!(ItemMetric::Edit.comparable(&Item::text("a"), &Item::text("abc")));
    }

    #[test]
    fn lp_classification() {
        assert!(ItemMetric::L1.is_lp_vector());
        assert!(ItemMetric::L2.is_lp_vector());
        assert!(!ItemMetric::ANGULAR.is_lp_vector());
        assert!(!ItemMetric::Edit.is_lp_vector());
        assert!(ItemMetric::ANGULAR.is_vector());
        assert!(!ItemMetric::Edit.is_vector());
    }
}
