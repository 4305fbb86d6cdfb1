//! The benchmark's own spans, recorded around each public call boundary of
//! the program in the traced pass. Kept in memory, written out at exit.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval. `parent` is the span that caused it; spans of one
/// operation (one batch) share `op`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

/// Self times per span name, and how they add up.
#[derive(Clone, Debug, PartialEq)]
pub struct Breakdown {
    /// Summed self time per span name, nanoseconds, clamped at 0 per span.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Summed duration of the root spans (those without a parent).
    pub outer_ns: u64,
}

impl Breakdown {
    /// Σ self times − Σ root spans, as a share of the root spans: 0 unless
    /// some child outlasted its parent and was clamped.
    pub fn residual_share(&self) -> f64 {
        if self.outer_ns == 0 {
            return 0.0;
        }
        let total: u64 = self.self_ns.values().sum();
        (total as f64 - self.outer_ns as f64) / self.outer_ns as f64
    }

    pub fn share(&self, name: &str) -> f64 {
        if self.outer_ns == 0 {
            return 0.0;
        }
        self.self_ns.get(name).copied().unwrap_or(0) as f64 / self.outer_ns as f64
    }
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Spans {
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Time `f` as a span; returns the span's index and `f`'s result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> (usize, T) {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        (self.push(name, start_ns, end_ns, parent, op), out)
    }

    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        op: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// The instant span times count from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn iter(&self) -> impl Iterator<Item = &Span> {
        self.spans.iter()
    }

    /// Summed duration of every span called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.iter().filter(|s| s.name == name).map(Span::ns).sum()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// A span's self time is its duration minus what its children cover.
    /// Children are replayed one after another from outside, but sibling
    /// spans of one name stand for calls the program issues concurrently
    /// (one per shard): only the slowest of them is on the path that sets
    /// the parent's time, so it alone covers the parent and it alone is
    /// descended into. Children of different names add up. The self times so
    /// defined sum to the root spans unless a child outlasts its parent.
    pub fn breakdown(&self) -> Breakdown {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        let mut path: Vec<usize> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            match s.parent {
                Some(p) => children[p].push(i),
                None => path.push(i),
            }
        }
        let outer_ns = path.iter().map(|&i| self.spans[i].ns()).sum();
        let mut self_ns = BTreeMap::new();
        while let Some(i) = path.pop() {
            let mut slowest: BTreeMap<&'static str, usize> = BTreeMap::new();
            for &c in &children[i] {
                let slot = slowest.entry(self.spans[c].name).or_insert(c);
                if self.spans[c].ns() > self.spans[*slot].ns() {
                    *slot = c;
                }
            }
            let covered: u64 = slowest.values().map(|&c| self.spans[c].ns()).sum();
            *self_ns.entry(self.spans[i].name).or_insert(0) +=
                self.spans[i].ns().saturating_sub(covered);
            path.extend(slowest.values());
        }
        Breakdown { self_ns, outer_ns }
    }

    pub fn to_json(&self, workload: &str) -> String {
        let mut out = format!("{{\"workload\":\"{workload}\",\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.start_ns,
                s.end_ns,
                s.op
            );
        }
        out.push_str("\n]}\n");
        out
    }
}
