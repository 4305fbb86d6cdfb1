//! Flat object arena: contiguous device-style storage for a homogeneous
//! object collection.
//!
//! [`Item`] keeps every payload behind its own heap allocation, which is the
//! right shape for a host-side dynamic union but the wrong shape for a
//! distance kernel: each evaluation chases a pointer and the payloads of
//! neighbouring objects share no cache lines. GPU similarity-search systems
//! (Johnson et al.'s billion-scale search, GENIE's generic match kernels)
//! all store objects as one contiguous buffer plus offsets, so a batch of
//! distance evaluations streams linearly through memory. [`ObjectArena`] is
//! that layout: one `f32` buffer for vector datasets, one byte buffer for
//! string datasets, and an offsets array mapping object ids to payload
//! ranges. The batched kernels of [`crate::BatchMetric`] resolve ids against
//! an arena instead of an `&[Item]`. Vector rows are packed back to back
//! (no padding); the 8-lane kernels of [`crate::dist`] handle the tail
//! themselves. An arena can also keep each row's Euclidean norm, so the
//! angular kernel reduces to one dot product per pair.

use crate::dist::norm;
use crate::object::Item;

/// Payload family stored by an arena. A dataset is always homogeneous
/// (Table 2 of the paper), so one arena holds exactly one family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArenaKind {
    /// Byte-string payloads (Words, DNA; edit distance).
    Text,
    /// Dense `f32` payloads (T-Loc, Vector, Color; L1/L2/angular).
    Vector,
}

/// Contiguous storage for the payloads of a homogeneous object collection,
/// addressed by object id.
///
/// Ids are indices into the originating collection; the arena stores the
/// payload of object `i` at `offsets[i]..offsets[i + 1]` of the buffer
/// matching its [`ArenaKind`]. Appending keeps ids dense, mirroring how the
/// GTS object store only ever grows (ids are never recycled).
#[derive(Clone, Debug, Default)]
pub struct ObjectArena {
    text: bool,
    /// Vector payloads, flat (`Vector` arenas).
    floats: Vec<f32>,
    /// String payloads, flat bytes (`Text` arenas).
    bytes: Vec<u8>,
    /// `offsets[i]..offsets[i+1]` is object `i`'s payload range; length
    /// `len + 1` with `offsets[0] = 0`.
    offsets: Vec<u32>,
    /// `norms[i]` is [`norm`] of vector row `i`, when the arena keeps the
    /// column (see [`ObjectArena::keep_norms`]).
    norms: Option<Vec<f64>>,
}

impl ObjectArena {
    /// An empty arena of the given kind.
    pub fn new(kind: ArenaKind) -> ObjectArena {
        ObjectArena {
            text: kind == ArenaKind::Text,
            floats: Vec::new(),
            bytes: Vec::new(),
            offsets: vec![0],
            norms: None,
        }
    }

    /// Build an arena over a homogeneous `Item` collection. Returns `None`
    /// when the collection is empty or mixes text and vector objects: no
    /// flat layout exists, and an index refuses to hold them.
    pub fn from_items(items: &[Item]) -> Option<ObjectArena> {
        let kind = match items.first()? {
            Item::Text(_) => ArenaKind::Text,
            Item::Vector(_) => ArenaKind::Vector,
        };
        let mut arena = ObjectArena::new(kind);
        arena.reserve_for(items);
        for item in items {
            if !arena.push_item(item) {
                return None;
            }
        }
        Some(arena)
    }

    fn reserve_for(&mut self, items: &[Item]) {
        self.offsets.reserve(items.len());
        let payload: usize = items.iter().map(Item::arity).sum();
        if self.text {
            self.bytes.reserve(payload);
        } else {
            self.floats.reserve(payload);
        }
    }

    /// Whether [`push_item`](ObjectArena::push_item) would accept every one
    /// of `items` in turn: each is of this arena's family, and the flat
    /// buffer stays within the `u32` offset space.
    pub fn fits(&self, items: &[Item]) -> bool {
        let same_kind = |item: &Item| matches!(item, Item::Text(_)) == self.text;
        let end = items.iter().map(|item| item.arity() as u64).sum::<u64>()
            + u64::from(self.offsets[self.len()]);
        items.iter().all(same_kind) && u32::try_from(end).is_ok()
    }

    /// Append one object's payload; its id is the previous [`len`].
    /// Returns `false` (arena unchanged) unless the arena
    /// [`fits`](ObjectArena::fits) it: an item of the other family, or one
    /// that would outgrow the `u32` offset space, is refused rather than
    /// silently wrapping payload ranges.
    ///
    /// [`len`]: ObjectArena::len
    pub fn push_item(&mut self, item: &Item) -> bool {
        if !self.fits(std::slice::from_ref(item)) {
            return false;
        }
        let end = self.offsets[self.len()] + item.arity() as u32;
        match item {
            Item::Text(s) => self.bytes.extend_from_slice(s.as_bytes()),
            Item::Vector(v) => {
                self.floats.extend_from_slice(v);
                if let Some(norms) = self.norms.as_mut() {
                    norms.push(norm(v));
                }
            }
        }
        self.offsets.push(end);
        true
    }

    /// Compute the Euclidean norm of every vector row and keep the column
    /// current through later [`push_item`](ObjectArena::push_item)s. A no-op
    /// on a text arena and on an arena already keeping it.
    pub(crate) fn keep_norms(&mut self) {
        if self.text || self.norms.is_some() {
            return;
        }
        let norms = (0..self.len() as u32)
            .map(|id| norm(self.vector(id)))
            .collect();
        self.norms = Some(norms);
    }

    /// The per-row norm column, if this arena keeps one.
    #[inline]
    pub(crate) fn norms(&self) -> Option<&[f64]> {
        self.norms.as_deref()
    }

    /// Payload family of this arena.
    pub fn kind(&self) -> ArenaKind {
        if self.text {
            ArenaKind::Text
        } else {
            ArenaKind::Vector
        }
    }

    /// Number of objects stored.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when the arena holds no objects.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The byte-string payload of object `id`.
    ///
    /// # Panics
    /// Panics if this is a vector arena or `id` is out of range.
    #[inline]
    pub fn text_bytes(&self, id: u32) -> &[u8] {
        debug_assert!(self.text, "text_bytes on a vector arena");
        let (lo, hi) = self.range(id);
        &self.bytes[lo..hi]
    }

    /// The vector payload of object `id`.
    ///
    /// # Panics
    /// Panics if this is a text arena or `id` is out of range.
    #[inline]
    pub fn vector(&self, id: u32) -> &[f32] {
        debug_assert!(!self.text, "vector on a text arena");
        let (lo, hi) = self.range(id);
        &self.floats[lo..hi]
    }

    #[inline]
    fn range(&self, id: u32) -> (usize, usize) {
        let id = id as usize;
        (self.offsets[id] as usize, self.offsets[id + 1] as usize)
    }

    /// Payload length (characters or dimensions) of object `id` — the same
    /// quantity as [`Item::arity`], read without touching the payload.
    #[inline]
    pub fn arity(&self, id: u32) -> usize {
        let (lo, hi) = self.range(id);
        hi - lo
    }

    /// Bytes occupied by the flat buffers, offsets and norm column (device
    /// residency of the arena layout).
    pub fn size_bytes(&self) -> u64 {
        (self.bytes.len()
            + self.floats.len() * std::mem::size_of::<f32>()
            + self.offsets.len() * std::mem::size_of::<u32>()
            + self.norms().map_or(0, std::mem::size_of_val)) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_arena_roundtrip() {
        let items = [Item::text("abc"), Item::text(""), Item::text("zz")];
        let a = ObjectArena::from_items(&items).expect("homogeneous");
        assert_eq!(a.kind(), ArenaKind::Text);
        assert_eq!(a.len(), 3);
        assert_eq!(a.text_bytes(0), b"abc");
        assert_eq!(a.text_bytes(1), b"");
        assert_eq!(a.text_bytes(2), b"zz");
        assert_eq!(a.arity(1), 0);
        assert_eq!(a.arity(2), 2);
    }

    #[test]
    fn vector_arena_roundtrip() {
        let items = [Item::vector(vec![1.0, 2.0]), Item::vector(vec![3.0])];
        let a = ObjectArena::from_items(&items).expect("homogeneous");
        assert_eq!(a.kind(), ArenaKind::Vector);
        assert_eq!(a.vector(0), &[1.0, 2.0]);
        assert_eq!(a.vector(1), &[3.0]);
        assert_eq!(a.arity(0), 2);
    }

    #[test]
    fn mixed_and_empty_rejected() {
        assert!(ObjectArena::from_items(&[]).is_none());
        let mixed = [Item::text("a"), Item::vector(vec![1.0])];
        assert!(ObjectArena::from_items(&mixed).is_none());
    }

    #[test]
    fn push_grows_and_rejects_mismatch() {
        let mut a = ObjectArena::new(ArenaKind::Text);
        assert!(a.is_empty());
        assert!(a.push_item(&Item::text("hi")));
        assert!(!a.push_item(&Item::vector(vec![0.0])), "kind mismatch");
        assert_eq!(a.len(), 1);
        assert_eq!(a.text_bytes(0), b"hi");
    }

    #[test]
    fn fits_refuses_the_other_kind_and_what_would_outgrow_the_offsets() {
        let mut a = ObjectArena::from_items(&[Item::vector(vec![1.0])]).expect("arena");
        assert!(a.fits(&[Item::vector(vec![2.0, 3.0]), Item::vector(vec![4.0])]));
        assert!(!a.fits(&[Item::vector(vec![2.0]), Item::text("x")]));
        // Pretend the buffer already ends two floats short of the limit.
        a.offsets[1] = u32::MAX - 2;
        assert!(a.fits(&[Item::vector(vec![0.0; 2])]));
        assert!(!a.fits(&[Item::vector(vec![0.0]), Item::vector(vec![0.0; 2])]));
        assert!(
            !a.push_item(&Item::vector(vec![0.0; 3])),
            "refused, not wrapped"
        );
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn size_accounts_payload_and_offsets() {
        let a = ObjectArena::from_items(&[Item::text("abcd")]).expect("arena");
        assert_eq!(a.size_bytes(), 4 + 2 * 4, "4 payload bytes + 2 u32 offsets");
        let mut v = ObjectArena::from_items(&[Item::vector(vec![0.0; 8])]).expect("arena");
        assert_eq!(v.size_bytes(), 8 * 4 + 2 * 4);
        v.keep_norms();
        assert_eq!(v.size_bytes(), 8 * 4 + 2 * 4 + 8, "plus one f64 norm");
    }

    #[test]
    fn norm_column_tracks_pushes() {
        let mut a = ObjectArena::from_items(&[Item::vector(vec![3.0, 4.0])]).expect("arena");
        assert_eq!(a.norms(), None, "no column unless asked for");
        a.keep_norms();
        assert!(a.push_item(&Item::vector(vec![0.0, 0.0])));
        assert_eq!(a.norms(), Some(&[5.0, 0.0][..]));
        let mut t = ObjectArena::from_items(&[Item::text("ab")]).expect("arena");
        t.keep_norms();
        assert_eq!(t.norms(), None, "text rows have no norm");
    }
}
