//! Independent oracle: brute-force kNN and range search in the benchmark's
//! own code. It has its own L2, angular and edit-distance implementations
//! and sees the program's answers only as `(id, distance)` pairs — no
//! arena, no `BatchMetric`, nothing shared with the code it judges.

use crate::data::{Obj, Space};

/// One neighbour as the program reported it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Hit {
    pub id: u32,
    pub dist: f64,
}

/// Vector distances agree when they differ by at most `TOL · max(1, d)`:
/// both sides sum `f32` payloads in `f64`, in different orders, and angular
/// distance passes through `acos`. Edit distances are integers and must
/// agree exactly.
pub const TOL: f64 = 1e-6;

/// The slack allowed around a distance of size `d` in `space`.
fn slack(space: Space, d: f64) -> f64 {
    match space {
        Space::Words => 0.0,
        Space::TLoc | Space::Vector300 => TOL * d.abs().max(1.0),
    }
}

fn close(space: Space, a: f64, b: f64) -> bool {
    (a - b).abs() <= slack(space, a.abs().max(b.abs()))
}

pub fn distance(space: Space, a: &Obj, b: &Obj) -> f64 {
    match (space, a, b) {
        (Space::TLoc, Obj::Vector(x), Obj::Vector(y)) => l2(x, y),
        (Space::Vector300, Obj::Vector(x), Obj::Vector(y)) => angular(x, y),
        (Space::Words, Obj::Text(x), Obj::Text(y)) => edit(x.as_bytes(), y.as_bytes()) as f64,
        _ => panic!("object does not belong to {space:?}"),
    }
}

fn l2(x: &[f32], y: &[f32]) -> f64 {
    assert_eq!(x.len(), y.len());
    x.iter()
        .zip(y)
        .map(|(&a, &b)| {
            let d = f64::from(a) - f64::from(b);
            d * d
        })
        .sum::<f64>()
        .sqrt()
}

/// `arccos(cosine similarity) / π`; a zero vector is at distance 0 from
/// everything (the program's stated convention).
fn angular(x: &[f32], y: &[f32]) -> f64 {
    assert_eq!(x.len(), y.len());
    let (mut dot, mut nx, mut ny) = (0f64, 0f64, 0f64);
    for (&a, &b) in x.iter().zip(y) {
        let (a, b) = (f64::from(a), f64::from(b));
        dot += a * b;
        nx += a * a;
        ny += b * b;
    }
    if nx == 0.0 || ny == 0.0 {
        return 0.0;
    }
    (dot / (nx * ny).sqrt()).clamp(-1.0, 1.0).acos() / std::f64::consts::PI
}

/// Levenshtein distance, two-row dynamic programme.
fn edit(a: &[u8], b: &[u8]) -> usize {
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let substitute = prev[j] + usize::from(ca != cb);
            cur[j + 1] = substitute.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// The set of objects the index should hold: every id ever assigned, and
/// whether it is still live. Updates are replayed onto it in submission
/// order, which is the order the program serializes them in.
#[derive(Clone, Debug)]
pub struct LiveSet {
    pub space: Space,
    objects: Vec<Obj>,
    live: Vec<bool>,
}

impl LiveSet {
    pub fn new(space: Space, data: &[Obj]) -> Self {
        LiveSet {
            space,
            objects: data.to_vec(),
            live: vec![true; data.len()],
        }
    }

    /// Number of ids assigned so far.
    pub fn assigned(&self) -> usize {
        self.objects.len()
    }

    pub fn live_count(&self) -> usize {
        self.live.iter().filter(|&&l| l).count()
    }

    /// Insert; returns the id the program must have assigned.
    pub fn insert(&mut self, obj: Obj) -> u32 {
        self.objects.push(obj);
        self.live.push(true);
        (self.objects.len() - 1) as u32
    }

    /// Remove; returns whether a live object went (unknown and dead ids are
    /// no-ops, as in the program).
    pub fn remove(&mut self, id: u32) -> bool {
        match self.live.get_mut(id as usize) {
            Some(l) if *l => {
                *l = false;
                true
            }
            _ => false,
        }
    }

    /// Distances from `q` to every live object, as `(distance, id)`.
    fn scan(&self, q: &Obj) -> Vec<(f64, u32)> {
        self.objects
            .iter()
            .zip(&self.live)
            .enumerate()
            .filter(|(_, (_, &live))| live)
            .map(|(id, (o, _))| (distance(self.space, q, o), id as u32))
            .collect()
    }

    fn check_ids(&self, q: &Obj, answer: &[Hit]) -> Result<(), String> {
        let mut seen = std::collections::BTreeSet::new();
        for h in answer {
            if !seen.insert(h.id) {
                return Err(format!("id {} reported twice", h.id));
            }
            if !self.live.get(h.id as usize).copied().unwrap_or(false) {
                return Err(format!("id {} is not a live object", h.id));
            }
            let true_d = distance(self.space, q, &self.objects[h.id as usize]);
            if !close(self.space, true_d, h.dist) {
                return Err(format!(
                    "id {} reported at {} but lies at {true_d}",
                    h.id, h.dist
                ));
            }
        }
        if answer.windows(2).any(|w| w[0].dist > w[1].dist) {
            return Err("answer is not in ascending distance order".into());
        }
        Ok(())
    }

    /// Judge a kNN answer: right length, every reported id live, distinct
    /// and at its true distance, and the j-th reported distance equal to the
    /// j-th smallest true distance. Ids are thereby checked up to ties.
    pub fn check_knn(&self, q: &Obj, k: usize, answer: &[Hit]) -> Result<(), String> {
        self.check_ids(q, answer)?;
        let mut all = self.scan(q);
        let want = k.min(all.len());
        if answer.len() != want {
            return Err(format!("{} neighbours, expected {want}", answer.len()));
        }
        let by_distance_then_id =
            |a: &(f64, u32), b: &(f64, u32)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1));
        if want > 0 && want < all.len() {
            all.select_nth_unstable_by(want - 1, by_distance_then_id);
            all.truncate(want);
        }
        all.sort_by(by_distance_then_id);
        for (j, (h, t)) in answer.iter().zip(&all).enumerate() {
            if !close(self.space, h.dist, t.0) {
                return Err(format!(
                    "rank {j}: distance {} but the true {j}-th is {}",
                    h.dist, t.0
                ));
            }
        }
        Ok(())
    }

    /// Judge a range answer: every reported id live, distinct, at its true
    /// distance and within the radius, and the hit count between the number
    /// of objects clearly inside and the number not clearly outside.
    pub fn check_range(&self, q: &Obj, radius: f64, answer: &[Hit]) -> Result<(), String> {
        self.check_ids(q, answer)?;
        let slack = slack(self.space, radius);
        if let Some(h) = answer.iter().find(|h| h.dist > radius + slack) {
            return Err(format!("id {} at {} exceeds radius {radius}", h.id, h.dist));
        }
        let all = self.scan(q);
        let inside = all.iter().filter(|(d, _)| *d <= radius - slack).count();
        let not_outside = all.iter().filter(|(d, _)| *d <= radius + slack).count();
        if answer.len() < inside || answer.len() > not_outside {
            return Err(format!(
                "{} hits, expected between {inside} and {not_outside}",
                answer.len()
            ));
        }
        Ok(())
    }
}
