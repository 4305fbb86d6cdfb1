//! Frozen input generators.
//!
//! These are copies of the *distributions* of the repository's
//! `gen::t_loc`, `gen::vectors(·, 300, ·)` and `gen::words` as of the commit
//! that added the benchmark, driven by a SplitMix64 this file owns. They do
//! not call into the repository, so a later change to
//! `crates/metric/src/gen.rs` cannot move a workload. Every input of a run
//! is a pure function of `--seed`; [`Inputs::hash`] fingerprints it.

use std::f64::consts::TAU;

/// SplitMix64 (Steele, Lea, Flood 2014): tiny, seedable, and good enough
/// for input generation.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform in `0..n` (`n ≥ 1`; the modulo bias is below 2⁻⁴⁰ for every
    /// `n` used here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// Standard normal by Box–Muller; two uniforms per call keep the stream
    /// position a function of the call count alone.
    pub fn gaussian(&mut self) -> f64 {
        let u1 = self.range_f64(1e-12, 1.0);
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (TAU * u2).cos()
    }

    /// Exponential with mean 1 (inter-arrival gaps of a Poisson process).
    pub fn exponential(&mut self) -> f64 {
        -(1.0 - self.unit()).ln()
    }
}

/// Sampler over `0..weights.len()` proportional to `weights`.
struct Weighted {
    cumulative: Vec<f64>,
}

impl Weighted {
    fn new(weights: impl Iterator<Item = f64>) -> Self {
        let mut sum = 0.0;
        let cumulative = weights
            .map(|w| {
                sum += w;
                sum
            })
            .collect();
        Weighted { cumulative }
    }

    fn sample(&self, rng: &mut SplitMix64) -> usize {
        let total = *self.cumulative.last().expect("at least one weight");
        let x = rng.unit() * total;
        self.cumulative
            .partition_point(|&c| c <= x)
            .min(self.cumulative.len() - 1)
    }
}

/// One object of a metric space, in the benchmark's own representation (the
/// oracle never sees the program's `Item` or its arena).
#[derive(Clone, Debug, PartialEq)]
pub enum Obj {
    Vector(Vec<f32>),
    Text(String),
}

/// The three metric spaces the workloads use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Space {
    /// T-Loc: 2-d locations under L2.
    TLoc,
    /// Vector: 300-d unit embeddings under angular distance.
    Vector300,
    /// Words: strings of length 1–34 under edit distance.
    Words,
}

/// The distribution a workload's objects are drawn from. The cluster
/// centres are fixed when the source is made; the dataset, the queries and
/// the objects to insert are then separate draws from it, so queries are
/// fresh draws from the dataset's own distribution and never dataset members
/// by construction.
pub struct Source {
    space: Space,
    /// T-Loc: `(x, y, spread)` per population centre.
    cities: Vec<(f64, f64, f64)>,
    popularity: Weighted,
    /// Vector: unit cluster centres.
    centres: Vec<Vec<f64>>,
}

impl Source {
    /// `n` is the cardinality of the dataset to come; as in the program's
    /// generators it sets the number of clusters (`≈ √n`).
    pub fn new(space: Space, n: usize, rng: &mut SplitMix64) -> Source {
        let mut source = Source {
            space,
            cities: Vec::new(),
            popularity: Weighted::new(std::iter::once(1.0)),
            centres: Vec::new(),
        };
        match space {
            Space::TLoc => {
                let k = ((n as f64).sqrt() as usize).clamp(4, 256);
                source.cities = (0..k)
                    .map(|_| {
                        (
                            rng.range_f64(-180.0, 180.0),
                            rng.range_f64(-60.0, 75.0),
                            rng.range_f64(0.05, 2.0),
                        )
                    })
                    .collect();
                // Zipf-ish popularity: a few centres dominate, like cities.
                source.popularity = Weighted::new((1..=k).map(|i| 1.0 / i as f64));
            }
            Space::Vector300 => {
                let k = ((n as f64).sqrt() as usize).clamp(2, 128);
                source.centres = (0..k)
                    .map(|_| {
                        let mut v: Vec<f64> = (0..300).map(|_| rng.gaussian()).collect();
                        let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-12);
                        v.iter_mut().for_each(|x| *x /= norm);
                        v
                    })
                    .collect();
            }
            Space::Words => {}
        }
        source
    }

    /// `count` objects; `first` is the position of the first in the
    /// sequence of all draws (every 97th word is a 1–3 letter token).
    pub fn draw(&self, count: usize, first: usize, rng: &mut SplitMix64) -> Vec<Obj> {
        (first..first + count)
            .map(|i| match self.space {
                Space::TLoc => self.location(rng),
                Space::Vector300 => self.embedding(rng),
                Space::Words => word(i, rng),
            })
            .collect()
    }

    /// Gaussian mixture over the population centres in a lon/lat-like box,
    /// plus 3 % uniform background noise.
    fn location(&self, rng: &mut SplitMix64) -> Obj {
        if rng.chance(0.03) {
            return Obj::Vector(vec![
                rng.range_f64(-180.0, 180.0) as f32,
                rng.range_f64(-85.0, 85.0) as f32,
            ]);
        }
        let (cx, cy, s) = self.cities[self.popularity.sample(rng)];
        Obj::Vector(vec![
            (cx + rng.gaussian() * s) as f32,
            (cy + rng.gaussian() * s * 0.7) as f32,
        ])
    }

    /// A cluster centre on the unit sphere with per-coordinate Gaussian
    /// jitter, re-normalised.
    fn embedding(&self, rng: &mut SplitMix64) -> Obj {
        let c = &self.centres[rng.below(self.centres.len())];
        let mut v: Vec<f32> = c
            .iter()
            .map(|&x| (x + rng.gaussian() * 0.35) as f32)
            .collect();
        let norm = v
            .iter()
            .map(|&x| f64::from(x) * f64::from(x))
            .sum::<f64>()
            .sqrt();
        if norm > 1e-12 {
            let inv = (1.0 / norm) as f32;
            v.iter_mut().for_each(|x| *x *= inv);
        }
        Obj::Vector(v)
    }
}

/// An English-like word from weighted consonant/vowel syllables; ~15 % are
/// compounds of two stems; every 97th is a 1–3 letter token.
fn word(i: usize, rng: &mut SplitMix64) -> Obj {
    const ONSETS: [&str; 26] = [
        "b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r", "s", "t", "v", "w", "z",
        "st", "tr", "ch", "sh", "th", "br", "cl", "gr",
    ];
    const VOWELS: [&str; 9] = ["a", "e", "i", "o", "u", "ai", "ea", "ou", "io"];
    const CODAS: [&str; 12] = ["", "", "", "n", "r", "s", "t", "l", "m", "ck", "ng", "rd"];
    // Single letters are four (onsets) or five (vowels) times as likely as
    // digraphs: 18·4 + 8 = 80 and 5·5 + 4 = 29 in all.
    let pick = |items: &[&'static str], single: usize, rng: &mut SplitMix64| {
        let total: usize = items
            .iter()
            .map(|s| if s.len() == 1 { single } else { 1 })
            .sum();
        let mut x = rng.below(total);
        for s in items {
            let w = if s.len() == 1 { single } else { 1 };
            if x < w {
                return *s;
            }
            x -= w;
        }
        unreachable!("x < total")
    };
    let stem = |rng: &mut SplitMix64| {
        let mut w = String::new();
        for _ in 0..1 + rng.below(3) {
            w.push_str(pick(&ONSETS, 4, rng));
            w.push_str(pick(&VOWELS, 5, rng));
            w.push_str(CODAS[rng.below(CODAS.len())]);
        }
        w
    };
    let mut w = stem(rng);
    if rng.chance(0.15) {
        w.push_str(&stem(rng));
    }
    if i.is_multiple_of(97) {
        w.truncate(1 + (i / 97) % 3);
    }
    w.truncate(34);
    Obj::Text(w)
}

/// One operation of a serve workload's request stream.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// kNN over query-pool entry `query`.
    Knn { query: usize, k: usize },
    /// Range over query-pool entry `query`.
    Range { query: usize, radius: f64 },
    /// Insert fresh-object-pool entry `fresh`.
    Insert { fresh: usize },
    /// Remove global id `id`.
    Remove { id: u32 },
    /// `fresh.len()` insertions and `ids.len()` deletions as one epoch.
    BatchUpdate { fresh: Vec<usize>, ids: Vec<u32> },
}

impl Op {
    pub fn is_update(&self) -> bool {
        matches!(
            self,
            Op::Insert { .. } | Op::Remove { .. } | Op::BatchUpdate { .. }
        )
    }
}

/// Mix of a serve workload's request stream.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    pub k: usize,
    /// Share of `Range` requests; radii are drawn from `radii`.
    pub range_share: f64,
    pub radii: [f64; 2],
    /// Share of `Insert`, and again of `Remove`.
    pub update_share: f64,
    /// One `BatchUpdate` of `batch_update_size` in and out every this many
    /// requests (0 = never).
    pub batch_update_every: usize,
    pub batch_update_size: usize,
}

/// The seeded, endless request stream of a serve workload. It tracks how
/// many ids the index has handed out so `Remove` targets ids that exist.
#[derive(Clone, Debug)]
pub struct OpStream {
    rng: SplitMix64,
    mix: Mix,
    pool_len: usize,
    fresh_len: usize,
    next_fresh: usize,
    next_id: u32,
    issued: usize,
}

impl OpStream {
    pub fn new(seed: u64, mix: Mix, n: usize, pool_len: usize, fresh_len: usize) -> Self {
        OpStream {
            rng: SplitMix64::new(seed ^ 0x0005_7EA4),
            mix,
            pool_len,
            fresh_len,
            next_fresh: 0,
            next_id: n as u32,
            issued: 0,
        }
    }

    fn take_fresh(&mut self) -> usize {
        let f = self.next_fresh % self.fresh_len;
        self.next_fresh += 1;
        self.next_id += 1;
        f
    }
}

impl Iterator for OpStream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        self.issued += 1;
        let m = self.mix;
        if m.batch_update_every > 0 && self.issued.is_multiple_of(m.batch_update_every) {
            let ids = (0..m.batch_update_size)
                .map(|_| self.rng.below(self.next_id as usize) as u32)
                .collect();
            let fresh = (0..m.batch_update_size)
                .map(|_| self.take_fresh())
                .collect();
            return Some(Op::BatchUpdate { fresh, ids });
        }
        let x = self.rng.unit();
        let op = if x < m.update_share {
            Op::Insert {
                fresh: self.take_fresh(),
            }
        } else if x < 2.0 * m.update_share {
            Op::Remove {
                id: self.rng.below(self.next_id as usize) as u32,
            }
        } else if x < 2.0 * m.update_share + m.range_share {
            Op::Range {
                query: self.rng.below(self.pool_len),
                radius: m.radii[self.rng.below(2)],
            }
        } else {
            Op::Knn {
                query: self.rng.below(self.pool_len),
                k: m.k,
            }
        };
        Some(op)
    }
}

/// Seed of every workload's dataset.
pub const DATASET_SEED: u64 = 0x6A75_D47A;

/// Everything a workload feeds the program.
#[derive(Clone, Debug)]
pub struct Inputs {
    pub space: Space,
    /// The indexed dataset; position = global id.
    pub data: Vec<Obj>,
    /// Query pool (fresh draws).
    pub queries: Vec<Obj>,
    /// Per-query range radius (batch range workload only; else empty).
    pub radii: Vec<f64>,
    /// Objects inserted by update workloads (fresh draws; else empty).
    pub fresh: Vec<Obj>,
}

impl Inputs {
    /// The dataset is one frozen draw per space (its seed is
    /// [`DATASET_SEED`], a constant): the index built over it — and so
    /// set-up time, memory and the tree's pruning power — is the same in
    /// every run. `seed` draws what varies between runs: the queries, the
    /// radii and the objects to insert (and, elsewhere, the request stream
    /// and the arrival times).
    pub fn generate(
        space: Space,
        seed: u64,
        n: usize,
        queries: usize,
        fresh: usize,
        radii: Option<[f64; 2]>,
    ) -> Inputs {
        let mut frozen = SplitMix64::new(DATASET_SEED ^ space as u64);
        let source = Source::new(space, n, &mut frozen);
        let data = source.draw(n, 0, &mut frozen);
        let mut rng = SplitMix64::new(seed);
        let queries = source.draw(queries, n, &mut rng);
        let fresh = source.draw(fresh, n + queries.len(), &mut rng);
        let radii = match radii {
            Some(choice) => (0..queries.len()).map(|_| choice[rng.below(2)]).collect(),
            None => Vec::new(),
        };
        Inputs {
            space,
            data,
            queries,
            radii,
            fresh,
        }
    }

    /// FNV-1a 64 over every generated byte, so two runs can show they
    /// measured the same inputs.
    pub fn hash(&self) -> u64 {
        let mut h = Fnv::default();
        for set in [&self.data, &self.queries, &self.fresh] {
            h.write(&(set.len() as u64).to_le_bytes());
            for obj in set {
                match obj {
                    Obj::Vector(v) => v.iter().for_each(|x| h.write(&x.to_le_bytes())),
                    Obj::Text(s) => {
                        h.write(s.as_bytes());
                        h.write(&[0xFF]);
                    }
                }
            }
        }
        self.radii.iter().for_each(|r| h.write(&r.to_le_bytes()));
        h.0
    }
}

/// FNV-1a 64.
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}
