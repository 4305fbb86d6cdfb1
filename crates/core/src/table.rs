//! The table list: leaf-level object-partitioning information (paper §4.2).
//!
//! Only the *final stage* is stored (Fig. 3): for every object, its id and
//! its distance to the pivot of its leaf's parent node, laid out so that each
//! leaf's objects are contiguous and sorted ascending by that distance.
//! Upper-level partitionings are recoverable by concatenating child ranges,
//! which is why storing one level suffices — the memory argument the paper
//! makes explicitly.
//!
//! Stored **structure-of-arrays**: `obj`, `dis`, and `deleted` are separate
//! columns. The construction mapping pass rewrites the entire distance
//! column every level ([`TableList::dis_column_mut`]) without touching the
//! tombstone bytes, the id-staging step streams the contiguous id column
//! ([`TableList::fill_ids`]), and [`TableList::live_len`] is O(1) off a
//! maintained tombstone count. Row values are materialised on demand as
//! [`TableEntry`] — the columns never interleave in memory.

/// One table-list row, materialised by value from the columns.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TableEntry {
    /// Object id (index into the dataset).
    pub obj: u32,
    /// Distance from the object to the pivot of its leaf's parent (after
    /// construction; during construction: to the pivot of the current
    /// level's node).
    pub dis: f64,
    /// Tombstone set by streaming deletions (§4.4): the object is skipped by
    /// verification until the next rebuild compacts it away.
    pub deleted: bool,
}

/// The flat table list (structure-of-arrays).
#[derive(Clone, Debug, Default)]
pub struct TableList {
    obj: Vec<u32>,
    dis: Vec<f64>,
    deleted: Vec<bool>,
    /// Count of set tombstones, maintained by [`TableList::tombstone`].
    tombstones: usize,
}

impl TableList {
    /// Initialise from the object ids to index (Alg. 1 lines 4–5); distances
    /// start at 0 and are filled by the first mapping pass.
    pub fn from_ids(ids: &[u32]) -> TableList {
        TableList {
            obj: ids.to_vec(),
            dis: vec![0.0; ids.len()],
            deleted: vec![false; ids.len()],
            tombstones: 0,
        }
    }

    /// Reassemble from decoded columns (snapshot restore).
    pub fn from_columns(obj: Vec<u32>, dis: Vec<f64>, deleted: Vec<bool>) -> TableList {
        assert_eq!(obj.len(), dis.len());
        assert_eq!(obj.len(), deleted.len());
        let tombstones = deleted.iter().filter(|&&d| d).count();
        TableList {
            obj,
            dis,
            deleted,
            tombstones,
        }
    }

    /// Number of entries (live + tombstoned).
    pub fn len(&self) -> usize {
        self.obj.len()
    }

    /// True when the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.obj.is_empty()
    }

    /// Row at `pos`, by value.
    pub fn get(&self, pos: usize) -> TableEntry {
        TableEntry {
            obj: self.obj[pos],
            dis: self.dis[pos],
            deleted: self.deleted[pos],
        }
    }

    /// Rows of the sub-range `[pos, pos + len)` belonging to one node.
    pub fn range(&self, pos: u32, len: u32) -> impl Iterator<Item = TableEntry> + '_ {
        (pos as usize..(pos + len) as usize).map(|i| self.get(i))
    }

    /// All rows in table order.
    pub fn iter(&self) -> impl Iterator<Item = TableEntry> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// The distance column (parallel to the id column).
    pub fn dis_column(&self) -> &[f64] {
        &self.dis
    }

    /// The object-id column.
    pub fn obj_column(&self) -> &[u32] {
        &self.obj
    }

    /// The tombstone column (parallel to the id column). Only worth reading
    /// when [`TableList::has_tombstones`] — on a tombstone-free table every
    /// flag is `false`.
    pub fn deleted_column(&self) -> &[bool] {
        &self.deleted
    }

    /// Mutable distance column — the construction mapping pass overwrites
    /// it wholesale every level without touching ids or tombstones.
    pub fn dis_column_mut(&mut self) -> &mut [f64] {
        &mut self.dis
    }

    /// Gather into sorted order: row `i` becomes the old row `src_of(i)`.
    /// `src_of` must be a permutation of `0..len`. Each column is gathered
    /// independently; the tombstone count is invariant under permutation.
    pub fn gather(&mut self, src_of: impl Fn(usize) -> usize) {
        let n = self.len();
        let old_obj = std::mem::take(&mut self.obj);
        let old_dis = std::mem::take(&mut self.dis);
        let old_del = std::mem::take(&mut self.deleted);
        self.obj = (0..n).map(|i| old_obj[src_of(i)]).collect();
        self.dis = (0..n).map(|i| old_dis[src_of(i)]).collect();
        self.deleted = (0..n).map(|i| old_del[src_of(i)]).collect();
    }

    /// Append the object ids of the sub-range `[pos, pos + len)` to `out` —
    /// the id-staging step of the batched distance kernels, which resolve
    /// these ids against the flat object arena. A contiguous column copy.
    pub fn fill_ids(&self, pos: u32, len: u32, out: &mut Vec<u32>) {
        out.extend_from_slice(&self.obj[pos as usize..(pos + len) as usize]);
    }

    /// Tombstone every entry holding `obj`; returns how many were marked.
    /// (Duplicates — Fig. 10's identical objects — share the id only if the
    /// dataset assigned them the same id; each entry holds one id.)
    pub fn tombstone(&mut self, obj: u32) -> usize {
        let mut marked = 0;
        for (o, del) in self.obj.iter().zip(self.deleted.iter_mut()) {
            if *o == obj && !*del {
                *del = true;
                marked += 1;
            }
        }
        self.tombstones += marked;
        marked
    }

    /// True when any entry is tombstoned — O(1) off the maintained count,
    /// so verification paths can skip per-row tombstone checks entirely on
    /// the (common) tombstone-free table.
    pub fn has_tombstones(&self) -> bool {
        self.tombstones > 0
    }

    /// Live (non-tombstoned) object ids, in table order.
    pub fn live_ids(&self) -> Vec<u32> {
        self.obj
            .iter()
            .zip(&self.deleted)
            .filter(|&(_, &del)| !del)
            .map(|(&o, _)| o)
            .collect()
    }

    /// Count of live entries — O(1).
    pub fn live_len(&self) -> usize {
        self.len() - self.tombstones
    }

    /// Bytes occupied (device-resident): the three packed columns
    /// (4 B id + 8 B distance + 1 B tombstone per entry).
    pub fn bytes(&self) -> u64 {
        (self.obj.len() * (4 + 8 + 1)) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_and_ranges() {
        let t = TableList::from_ids(&[5, 3, 9, 1]);
        assert_eq!(t.len(), 4);
        assert_eq!(t.get(2).obj, 9);
        let r: Vec<TableEntry> = t.range(1, 2).collect();
        assert_eq!(r[0].obj, 3);
        assert_eq!(r[1].obj, 9);
    }

    #[test]
    fn fill_ids_appends_range() {
        let t = TableList::from_ids(&[5, 3, 9, 1]);
        let mut out = vec![7u32];
        t.fill_ids(1, 2, &mut out);
        assert_eq!(out, vec![7, 3, 9], "appends without clearing");
    }

    #[test]
    fn tombstoning() {
        let mut t = TableList::from_ids(&[5, 3, 5]);
        assert!(!t.has_tombstones());
        assert_eq!(t.tombstone(5), 2);
        assert_eq!(t.tombstone(5), 0, "already tombstoned");
        assert!(t.has_tombstones());
        assert_eq!(t.live_ids(), vec![3]);
        assert_eq!(t.live_len(), 1);
        assert_eq!(t.len(), 3, "tombstones keep their slots until rebuild");
    }

    #[test]
    fn gather_permutes_all_columns() {
        let mut t = TableList::from_ids(&[10, 20, 30]);
        t.dis_column_mut().copy_from_slice(&[0.1, 0.2, 0.3]);
        t.tombstone(20);
        t.gather(|i| [2, 0, 1][i]);
        let rows: Vec<TableEntry> = t.iter().collect();
        assert_eq!(rows[0].obj, 30);
        assert_eq!(rows[1].obj, 10);
        assert_eq!(rows[2].obj, 20);
        assert_eq!(rows[0].dis, 0.3);
        assert!(rows[2].deleted && !rows[0].deleted && !rows[1].deleted);
        assert_eq!(t.live_len(), 2, "tombstone count invariant under gather");
    }

    #[test]
    fn column_round_trip() {
        let t = TableList::from_columns(vec![4, 5], vec![1.5, 2.5], vec![false, true]);
        assert_eq!(t.live_len(), 1);
        assert_eq!(t.deleted_column(), &[false, true]);
        assert_eq!(
            t.get(1),
            TableEntry {
                obj: 5,
                dis: 2.5,
                deleted: true
            }
        );
    }

    #[test]
    fn bytes_scale_with_len() {
        let a = TableList::from_ids(&[1, 2]);
        let b = TableList::from_ids(&[1, 2, 3, 4]);
        assert_eq!(b.bytes(), 2 * a.bytes());
    }
}
