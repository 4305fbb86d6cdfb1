//! The node list: a full `Nc`-ary tree in one flat array (paper §4.2).
//!
//! Node ids are 1-based and follow Eq. 1 of the paper: the `j`-th child
//! (1-based) of node `i` is `(i − 1)·Nc + j + 1`. Consequently every level
//! occupies one contiguous id range and "non-continuous tree nodes at the
//! same level" can be processed by a single kernel — the paper's key storage
//! idea.

/// One tree node. `pivot = None` marks a leaf (last-level) node, exactly as
/// the `NULL` pivots in Fig. 3.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Node {
    /// The pivot object chosen for this node's mapping step (internal nodes
    /// only; `None` for leaves).
    pub pivot: Option<u32>,
    /// Minimum distance from this node's objects to its **parent's** pivot
    /// (the ring lower bound used by Lemma 5.1/5.2 pruning). 0 for the root.
    pub min_dis: f64,
    /// Maximum distance from this node's objects to its parent's pivot (the
    /// symmetric ring upper bound; [`GtsParams::two_sided_pruning`] turns its
    /// use off).
    ///
    /// [`GtsParams::two_sided_pruning`]: crate::GtsParams::two_sided_pruning
    pub max_dis: f64,
    /// Start position of this node's objects in the table list.
    pub pos: u32,
    /// Number of objects managed by this node.
    pub size: u32,
    /// Maximum distance from this node's objects to its **own** pivot
    /// (0 when leaf). Used for the MkNNQ own-pivot prune (§5.2).
    pub own_max_dis: f64,
}

impl Node {
    /// True when this node manages no objects (can happen in the last level
    /// of very small datasets).
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }
}

/// Geometry of a full `Nc`-ary tree of height `h` (levels `1..=h`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TreeShape {
    /// Node capacity `Nc` (children per internal node).
    pub nc: u32,
    /// Height: number of levels; leaves live at level `h`.
    pub h: u32,
}

impl TreeShape {
    /// The paper's height rule (Alg. 1 line 1): `h = ⌈log_Nc(n+1)⌉ − 1`,
    /// clamped to at least 1, which deliberately leaves last-level nodes
    /// *overfull* (size may exceed `Nc`) to bound GPU resource waste.
    pub fn for_dataset(n: usize, nc: u32) -> TreeShape {
        assert!(nc >= 2, "node capacity must be at least 2");
        let h = ((n as f64 + 1.0).log(f64::from(nc)).ceil() as u32).saturating_sub(1);
        TreeShape { nc, h: h.max(1) }
    }

    /// Total number of nodes over all levels: `(Nc^h − 1)/(Nc − 1)`, or
    /// `None` when that overflows `usize` (a shape read from a corrupt
    /// snapshot; with `Nc ≥ 2` the loop ends within 64 levels either way).
    pub fn total_nodes(&self) -> Option<usize> {
        let mut total = 0usize;
        let mut width = 1usize;
        for _ in 0..self.h {
            total = total.checked_add(width)?;
            width = width.checked_mul(self.nc as usize)?;
        }
        Some(total)
    }

    /// First node id (1-based) of `level` (1-based).
    pub fn level_start(&self, level: u32) -> usize {
        debug_assert!((1..=self.h).contains(&level));
        // start_1 = 1; start_{l+1} = (start_l − 1)·Nc + 2
        let mut start = 1usize;
        for _ in 1..level {
            start = (start - 1) * self.nc as usize + 2;
        }
        start
    }

    /// Number of nodes at `level`.
    pub fn level_width(&self, level: u32) -> usize {
        (self.nc as usize).pow(level - 1)
    }

    /// Id of the `j`-th (0-based) child of node `id` (paper Eq. 1 with
    /// 1-based `j' = j + 1`: `(id − 1)·Nc + j' + 1`).
    pub fn child(&self, id: usize, j: usize) -> usize {
        debug_assert!(j < self.nc as usize);
        (id - 1) * self.nc as usize + j + 2
    }

    /// Parent id of a non-root node.
    pub fn parent(&self, id: usize) -> usize {
        debug_assert!(id > 1);
        (id - 2) / self.nc as usize + 1
    }

    /// Level (1-based) of a node id.
    pub fn level_of(&self, id: usize) -> u32 {
        let mut level = 1u32;
        let mut start = 1usize;
        loop {
            let next = (start - 1) * self.nc as usize + 2;
            if id < next || level == self.h {
                return level;
            }
            start = next;
            level += 1;
        }
    }

    /// True when `id` sits in the last (leaf) level.
    pub fn is_leaf_level(&self, id: usize) -> bool {
        self.h == 1 || id >= self.level_start(self.h)
    }
}

/// The flat node array. Index 0 holds node id 1 (the root).
#[derive(Clone, Debug)]
pub struct NodeList {
    nodes: Vec<Node>,
    shape: TreeShape,
}

impl NodeList {
    /// Allocate a node list for the given shape, zero-initialised.
    pub fn new(shape: TreeShape) -> NodeList {
        NodeList {
            nodes: vec![Node::default(); shape.total_nodes().expect("tree shape fits in memory")],
            shape,
        }
    }

    /// Tree geometry.
    pub fn shape(&self) -> TreeShape {
        self.shape
    }

    /// Immutable access by 1-based node id.
    pub fn get(&self, id: usize) -> &Node {
        &self.nodes[id - 1]
    }

    /// Mutable access by 1-based node id.
    pub fn get_mut(&mut self, id: usize) -> &mut Node {
        &mut self.nodes[id - 1]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the list holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Bytes occupied by the node array (device-resident).
    pub fn bytes(&self) -> u64 {
        (self.nodes.len() * std::mem::size_of::<Node>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_shape() {
        // Fig. 3: 10 objects, Nc = 2 -> h = ⌈log2 11⌉ − 1 = 3, 7 nodes.
        let s = TreeShape::for_dataset(10, 2);
        assert_eq!(s.h, 3);
        assert_eq!(s.total_nodes(), Some(7));
        assert_eq!(s.level_start(1), 1);
        assert_eq!(s.level_start(2), 2);
        assert_eq!(s.level_start(3), 4);
        assert_eq!(s.level_width(3), 4);
    }

    #[test]
    fn paper_child_formula() {
        let s = TreeShape::for_dataset(10, 2);
        // "the second child node of N3 is N7"
        assert_eq!(s.child(3, 1), 7);
        assert_eq!(s.child(1, 0), 2);
        assert_eq!(s.child(1, 1), 3);
        assert_eq!(s.child(2, 0), 4);
        assert_eq!(s.child(2, 1), 5);
        assert_eq!(s.child(3, 0), 6);
    }

    #[test]
    fn parent_inverts_child() {
        let s = TreeShape { nc: 5, h: 4 };
        for id in 1..=s.level_width(3) + s.level_start(3) - 1 {
            for j in 0..5 {
                let c = s.child(id, j);
                assert_eq!(s.parent(c), id, "child {c} of {id}");
            }
        }
    }

    #[test]
    fn level_of_roundtrip() {
        let s = TreeShape { nc: 3, h: 4 };
        for level in 1..=4 {
            let start = s.level_start(level);
            let width = s.level_width(level);
            for id in start..start + width {
                assert_eq!(s.level_of(id), level, "id {id}");
            }
        }
    }

    #[test]
    fn leaf_level_detection() {
        let s = TreeShape::for_dataset(10, 2);
        assert!(!s.is_leaf_level(1));
        assert!(!s.is_leaf_level(3));
        assert!(s.is_leaf_level(4));
        assert!(s.is_leaf_level(7));
        // Degenerate single-level tree: the root is the leaf.
        let tiny = TreeShape::for_dataset(2, 8);
        assert_eq!(tiny.h, 1);
        assert!(tiny.is_leaf_level(1));
    }

    #[test]
    fn tiny_datasets_clamp_height() {
        let s = TreeShape::for_dataset(1, 2);
        assert_eq!(s.h, 1);
        assert_eq!(s.total_nodes(), Some(1));
    }

    #[test]
    fn absurd_heights_overflow_to_none() {
        let s = TreeShape { nc: 20, h: 10 };
        assert_eq!(s.total_nodes(), Some((20usize.pow(10) - 1) / 19));
        let s = TreeShape {
            nc: 20,
            h: u32::MAX,
        };
        assert_eq!(
            s.total_nodes(),
            None,
            "ends at the overflow, not after 2³² levels"
        );
    }

    #[test]
    fn node_list_access() {
        let mut nl = NodeList::new(TreeShape::for_dataset(10, 2));
        nl.get_mut(1).size = 10;
        nl.get_mut(7).min_dis = 2.0;
        assert_eq!(nl.get(1).size, 10);
        assert_eq!(nl.get(7).min_dis, 2.0);
        assert_eq!(nl.len(), 7);
        assert!(nl.bytes() > 0);
    }

    #[test]
    fn height_grows_with_n_and_shrinks_with_nc() {
        assert!(TreeShape::for_dataset(1_000_000, 10).h > TreeShape::for_dataset(1_000, 10).h);
        assert!(TreeShape::for_dataset(100_000, 10).h >= TreeShape::for_dataset(100_000, 320).h);
    }
}
