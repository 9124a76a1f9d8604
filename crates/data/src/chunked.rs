//! A chunked, copy-on-write sequence: the one structural-sharing mechanism
//! under both [`crate::DatabaseInstance`] (sorted facts) and the block index
//! (sorted blocks and posting lists).
//!
//! A [`ChunkedSeq`] is a two-level *spine* over *leaves*: each leaf is an
//! `Arc<Vec<T>>` holding a contiguous run of the sequence, and the spine is
//! a `Vec` of nodes, each an `Arc`-shared run of leaf pointers. Cloning
//! copies the top level only (one pointer bump per node); a mutation then
//! copies **one node** (its leaf pointers, not the leaves) and **one leaf**
//! (two when it splits or merges), and leaves every other node and leaf
//! shared with the clone's source. That is what makes a single-fact commit
//! cost `O(n / (MIN_LEAF · MIN_NODE) + MAX_NODE + MAX_LEAF)` instead of
//! `O(n)`.
//!
//! The sequence itself is order-agnostic: mutation is positional
//! ([`ChunkedSeq::insert`], [`ChunkedSeq::remove`]) and callers that keep it
//! sorted find positions with [`ChunkedSeq::search_by`] /
//! [`ChunkedSeq::partition_point`], passing the comparator **per call** — the
//! block index orders by interned-value order, which only the interner of the
//! moment can evaluate.
//!
//! **Element contract: cloning an entry must not allocate.** A copied leaf
//! clones each of its entries, so the sequence is for `Copy` entries (block
//! index ids), for small values held inline (the block index's blocks: 32
//! bytes each, a small block's ids inside the entry), and for handles whose
//! clone is reference-count bumps ([`crate::Fact`], [`crate::Value`], a
//! large block's shared ids); an entry that owns heap storage would turn
//! each leaf copy into an allocation per entry. A leaf copy moves
//! `size_of::<T>()` bytes per entry, so an inline entry trades bytes copied
//! for the pointer chase every reader of the entry would otherwise pay.
//!
//! Leaves hold between [`MIN_LEAF`] and [`MAX_LEAF`] entries (only the last
//! leaf may hold fewer): an insert into a full leaf splits it first — in
//! half, or for an append at bulk-leaf size so that ascending loads leave
//! their leaves room both ways — and a removal that leaves a leaf under-full
//! merges it with a neighbour in its node. Nodes hold between `MIN_NODE` and
//! `MAX_NODE` leaves (only the last node may hold fewer), split in half when
//! a leaf split overfills them and merge with a neighbour when a leaf merge
//! thins them. Bulk construction ([`ChunkedSeq::from_sorted`]) and every
//! copy-on-write leaf copy allocate **exact capacity**, so a sequence built
//! in bulk or maintained commit by commit carries no slack in its leaves.
//! The one exception to the lower bounds is a [`ChunkedSeq::slice`]: a
//! read-only view that shares the leaves inside its span and copies the two
//! it cuts through, so its first leaf and node, like its last, may be short.
//! Nothing writes a view (the block index's restricted views are built per
//! read and dropped); were one written, the operations stay correct and
//! merging restores the bounds leaf by leaf.

use std::collections::HashSet;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// Fewest entries a leaf holds, unless it is the last leaf.
pub const MIN_LEAF: usize = 128;
/// Most entries a leaf holds.
pub const MAX_LEAF: usize = 2 * MIN_LEAF;
/// Leaf size of bulk builds: midway, so a fresh leaf absorbs inserts and
/// removals for a while before it splits or merges.
const BULK_LEAF: usize = MIN_LEAF + MIN_LEAF / 2;
/// Fewest leaves a node holds, unless it is the last node.
const MIN_NODE: usize = 8;
/// Most leaves a node holds.
const MAX_NODE: usize = 4 * MIN_NODE;
/// Node size of bulk builds, midway as [`BULK_LEAF`] is.
const BULK_NODE: usize = (MIN_NODE + MAX_NODE) / 2;

/// One leaf, with the position of its first entry in its node.
#[derive(Clone)]
struct Leaf<T> {
    start: usize,
    items: Arc<Vec<T>>,
}

/// A run of leaves: the unit the spine copies on write. Positions here are
/// relative to the node's first entry.
#[derive(Clone)]
struct Node<T> {
    leaves: Vec<Leaf<T>>,
    len: usize,
}

/// One node of the spine, with the position of its first entry.
#[derive(Clone)]
struct Branch<T> {
    start: usize,
    node: Arc<Node<T>>,
}

/// A sequence of `T` stored as `Arc`-shared leaves under `Arc`-shared
/// nodes. See the module docs.
#[derive(Clone)]
pub struct ChunkedSeq<T> {
    nodes: Vec<Branch<T>>,
    len: usize,
}

impl<T> Default for ChunkedSeq<T> {
    fn default() -> Self {
        ChunkedSeq {
            nodes: Vec::new(),
            len: 0,
        }
    }
}

impl<T> Node<T> {
    /// A node of `leaves` (none empty), in order.
    fn of(leaves: impl IntoIterator<Item = Arc<Vec<T>>>) -> Node<T> {
        let mut len = 0;
        let leaves = leaves
            .into_iter()
            .map(|items| {
                let start = len;
                len += items.len();
                Leaf { start, items }
            })
            .collect();
        Node { leaves, len }
    }

    /// The node's first entry.
    fn first(&self) -> &T {
        &self.leaves[0].items[0]
    }

    /// Index of the leaf holding position `pos` (`pos < len`).
    fn leaf_of(&self, pos: usize) -> usize {
        debug_assert!(pos < self.len);
        self.leaves.partition_point(|l| l.start <= pos) - 1
    }

    /// The entry at `pos` (`pos < len`).
    fn get(&self, pos: usize) -> &T {
        let leaf = &self.leaves[self.leaf_of(pos)];
        &leaf.items[pos - leaf.start]
    }

    /// [`ChunkedSeq::partition_point`] within this node.
    fn partition_point(&self, within: Range<usize>, mut pred: impl FnMut(&T) -> bool) -> usize {
        let first = self.leaf_of(within.start);
        let last = self.leaf_of(within.end - 1);
        // Leaves after `first` start inside `within`: one whose first entry
        // passes lies (all but its tail) before the partition point.
        let li = first + self.leaves[first + 1..=last].partition_point(|l| pred(&l.items[0]));
        let leaf = &self.leaves[li];
        let lo = within.start.max(leaf.start) - leaf.start;
        let hi = within.end.min(leaf.start + leaf.items.len()) - leaf.start;
        leaf.start + lo + leaf.items[lo..hi].partition_point(pred)
    }

    /// [`ChunkedSeq::search_by`] within this node, whose first entry is not
    /// past the probe.
    fn search_by(&self, mut cmp: impl FnMut(&T) -> std::cmp::Ordering) -> Result<usize, usize> {
        // The last leaf whose first entry is not past the probe holds the
        // match, or the insertion point (possibly its end).
        let after = self
            .leaves
            .partition_point(|l| cmp(&l.items[0]) != std::cmp::Ordering::Greater);
        let leaf = &self.leaves[after.max(1) - 1];
        match leaf.items.binary_search_by(cmp) {
            Ok(at) => Ok(leaf.start + at),
            Err(at) => Err(leaf.start + at),
        }
    }

    /// Shifts the `start` of every leaf from index `from` on by `by`.
    fn shift_starts(&mut self, from: usize, by: isize) {
        for leaf in &mut self.leaves[from..] {
            leaf.start = leaf.start.wrapping_add_signed(by);
        }
    }
}

impl<T: Clone> Node<T> {
    /// Inserts `item` at position `pos` (`pos <= len`, `len > 0`), copying
    /// the one leaf it lands in if that leaf is shared.
    fn insert(&mut self, pos: usize, item: T) {
        // `pos == len` appends to the last leaf.
        let mut li = self.leaf_of(pos.min(self.len - 1));
        if self.leaves[li].items.len() == MAX_LEAF {
            // Split first, so no leaf ever grows past `MAX_LEAF`: in half, or
            // — for an append — where a bulk build would have cut. A private
            // leaf gives up its upper part by move; a shared one is copied.
            let mid = if pos == self.len {
                BULK_LEAF
            } else {
                MAX_LEAF / 2
            };
            let leaf = &mut self.leaves[li];
            let right = match Arc::get_mut(&mut leaf.items) {
                Some(items) => {
                    let right = items.split_off(mid);
                    items.shrink_to_fit();
                    right
                }
                None => {
                    let (left, right) = leaf.items.split_at(mid);
                    let right = right.to_vec();
                    leaf.items = Arc::new(left.to_vec());
                    right
                }
            };
            let right = Leaf {
                start: leaf.start + mid,
                items: Arc::new(right),
            };
            let into_right = pos >= right.start;
            self.leaves.insert(li + 1, right);
            if into_right {
                li += 1;
            }
        }
        let leaf = &mut self.leaves[li];
        let at = pos - leaf.start;
        match Arc::get_mut(&mut leaf.items) {
            Some(items) => items.insert(at, item),
            None => {
                let mut items = Vec::with_capacity(leaf.items.len() + 1);
                items.extend_from_slice(&leaf.items[..at]);
                items.push(item);
                items.extend_from_slice(&leaf.items[at..]);
                leaf.items = Arc::new(items);
            }
        }
        self.len += 1;
        self.shift_starts(li + 1, 1);
    }

    /// Removes and returns the entry at `pos`, copying the one leaf it sits
    /// in if that leaf is shared (and a neighbour, if the leaf falls under
    /// [`MIN_LEAF`] and merges).
    fn remove(&mut self, pos: usize) -> T {
        let li = self.leaf_of(pos);
        let leaf = &mut self.leaves[li];
        let at = pos - leaf.start;
        let removed = match Arc::get_mut(&mut leaf.items) {
            Some(items) => items.remove(at),
            None => {
                let mut items = Vec::with_capacity(leaf.items.len() - 1);
                items.extend_from_slice(&leaf.items[..at]);
                items.extend_from_slice(&leaf.items[at + 1..]);
                let removed = leaf.items[at].clone();
                leaf.items = Arc::new(items);
                removed
            }
        };
        self.len -= 1;
        self.shift_starts(li + 1, -1);
        if self.leaves[li].items.is_empty() {
            self.leaves.remove(li);
        } else if self.leaves[li].items.len() < MIN_LEAF && self.leaves.len() > 1 {
            self.merge_with_neighbour(li);
        }
        removed
    }

    /// Joins the under-full leaf `li` with its left neighbour (right, for the
    /// first leaf) into one exact-capacity leaf, or two halves when the pair
    /// would exceed [`MAX_LEAF`].
    fn merge_with_neighbour(&mut self, li: usize) {
        let left = li.saturating_sub(1);
        let (a, b) = (&self.leaves[left], &self.leaves[left + 1]);
        let start = a.start;
        let mut joined = Vec::with_capacity(a.items.len() + b.items.len());
        joined.extend_from_slice(&a.items);
        joined.extend_from_slice(&b.items);
        if joined.len() > MAX_LEAF {
            let right = joined.split_off(joined.len() / 2);
            joined.shrink_to_fit();
            self.leaves[left + 1] = Leaf {
                start: start + joined.len(),
                items: Arc::new(right),
            };
            self.leaves[left].items = Arc::new(joined);
        } else {
            self.leaves[left].items = Arc::new(joined);
            self.leaves.remove(left + 1);
        }
    }

    /// [`ChunkedSeq::slice`] within this node (`span` not empty).
    fn slice(&self, span: Range<usize>) -> Node<T> {
        let (first, last) = (self.leaf_of(span.start), self.leaf_of(span.end - 1));
        Node::of(self.leaves[first..=last].iter().map(|leaf| {
            let lo = span.start.max(leaf.start) - leaf.start;
            let hi = (span.end - leaf.start).min(leaf.items.len());
            if hi - lo == leaf.items.len() {
                Arc::clone(&leaf.items)
            } else {
                Arc::new(leaf.items[lo..hi].to_vec())
            }
        }))
    }
}

impl<T> ChunkedSeq<T> {
    /// An empty sequence.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a sequence holding `items` in iteration order, in
    /// exact-capacity leaves. (The name states the intended use: callers
    /// that search the sequence pass items already in their order.)
    pub fn from_sorted(items: impl IntoIterator<Item = T>) -> Self {
        let mut leaves: Vec<Vec<T>> = Vec::new();
        for item in items {
            match leaves.last_mut() {
                Some(leaf) if leaf.len() < BULK_LEAF => leaf.push(item),
                _ => {
                    let mut leaf = Vec::with_capacity(BULK_LEAF);
                    leaf.push(item);
                    leaves.push(leaf);
                }
            }
        }
        let mut leaves = leaves.into_iter().map(|mut items| {
            items.shrink_to_fit();
            Arc::new(items)
        });
        let mut seq = ChunkedSeq::new();
        loop {
            let node = Node::of(leaves.by_ref().take(BULK_NODE));
            if node.leaves.is_empty() {
                return seq;
            }
            let start = seq.len;
            seq.len += node.len;
            seq.nodes.push(Branch {
                start,
                node: Arc::new(node),
            });
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the sequence holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Index of the node holding position `pos` (`pos < len`).
    fn node_of(&self, pos: usize) -> usize {
        debug_assert!(pos < self.len);
        self.nodes.partition_point(|b| b.start <= pos) - 1
    }

    /// The entry at `pos`, if any.
    pub fn get(&self, pos: usize) -> Option<&T> {
        if pos >= self.len {
            return None;
        }
        let branch = &self.nodes[self.node_of(pos)];
        Some(branch.node.get(pos - branch.start))
    }

    /// All entries, in order.
    pub fn iter(&self) -> Iter<'_, T> {
        self.range(0..self.len)
    }

    /// The entries at positions `span`, in order, walking leaf slices
    /// sequentially. Panics if `span` reaches past the end.
    pub fn range(&self, span: Range<usize>) -> Iter<'_, T> {
        assert!(span.end <= self.len, "range end past the sequence");
        if span.is_empty() {
            return Iter {
                nodes: [].iter(),
                leaves: [].iter(),
                current: [].iter(),
                remaining: 0,
            };
        }
        let ni = self.node_of(span.start);
        let branch = &self.nodes[ni];
        let at = span.start - branch.start;
        let li = branch.node.leaf_of(at);
        let leaf = &branch.node.leaves[li];
        Iter {
            nodes: self.nodes[ni + 1..].iter(),
            leaves: branch.node.leaves[li + 1..].iter(),
            current: leaf.items[at - leaf.start..].iter(),
            remaining: span.len(),
        }
    }

    /// The first position in `within` whose entry fails `pred`, given that
    /// `pred` holds for a prefix of `within` and fails for the rest
    /// (`within.end` if it never fails). Binary search level by level:
    /// nodes by their first entry, then leaves, then inside one leaf.
    pub fn partition_point(&self, within: Range<usize>, mut pred: impl FnMut(&T) -> bool) -> usize {
        assert!(within.end <= self.len, "range end past the sequence");
        if within.is_empty() {
            return within.start;
        }
        let first = self.node_of(within.start);
        let last = self.node_of(within.end - 1);
        let ni = first + self.nodes[first + 1..=last].partition_point(|b| pred(b.node.first()));
        let branch = &self.nodes[ni];
        let lo = within.start.max(branch.start) - branch.start;
        let hi = within.end.min(branch.start + branch.node.len) - branch.start;
        branch.start + branch.node.partition_point(lo..hi, pred)
    }

    /// Binary search of a sequence sorted consistently with `cmp` (which
    /// orders an entry against the probe): `Ok(pos)` of a matching entry, or
    /// `Err(pos)` where one would be inserted.
    pub fn search_by(&self, mut cmp: impl FnMut(&T) -> std::cmp::Ordering) -> Result<usize, usize> {
        // The last node whose first entry is not past the probe holds the
        // match, or the insertion point (possibly its end).
        let after = self
            .nodes
            .partition_point(|b| cmp(b.node.first()) != std::cmp::Ordering::Greater);
        let Some(branch) = after.checked_sub(1).map(|ni| &self.nodes[ni]) else {
            return Err(0);
        };
        match branch.node.search_by(cmp) {
            Ok(at) => Ok(branch.start + at),
            Err(at) => Err(branch.start + at),
        }
    }

    /// Every leaf, in order.
    fn leaves(&self) -> impl Iterator<Item = &Leaf<T>> {
        self.nodes.iter().flat_map(|b| &b.node.leaves)
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.nodes.iter().map(|b| b.node.leaves.len()).sum()
    }

    /// How many of this sequence's leaves are physically shared (same
    /// allocation) with `other`, and how many leaves it has — the observer
    /// of the copy-on-write contract.
    pub fn shared_leaves(&self, other: &ChunkedSeq<T>) -> (usize, usize) {
        let theirs: HashSet<*const Vec<T>> =
            other.leaves().map(|l| Arc::as_ptr(&l.items)).collect();
        let shared = self
            .leaves()
            .filter(|l| theirs.contains(&Arc::as_ptr(&l.items)))
            .count();
        (shared, self.leaf_count())
    }

    /// Shifts the `start` of every node from index `from` on by `by`.
    fn shift_starts(&mut self, from: usize, by: isize) {
        for branch in &mut self.nodes[from..] {
            branch.start = branch.start.wrapping_add_signed(by);
        }
    }
}

impl<T: Clone> ChunkedSeq<T> {
    /// Inserts `item` at position `pos` (`pos <= len`), copying the one node
    /// and the one leaf it lands in if they are shared.
    pub fn insert(&mut self, pos: usize, item: T) {
        assert!(pos <= self.len, "insert position past the end");
        if self.nodes.is_empty() {
            let node = Node::of([Arc::new(vec![item])]);
            self.nodes.push(Branch {
                start: 0,
                node: Arc::new(node),
            });
            self.len = 1;
            return;
        }
        // `pos == len` appends to the last node.
        let ni = self.node_of(pos.min(self.len - 1));
        let branch = &mut self.nodes[ni];
        let node = Arc::make_mut(&mut branch.node);
        node.insert(pos - branch.start, item);
        let full = node.leaves.len() > MAX_NODE;
        self.len += 1;
        self.shift_starts(ni + 1, 1);
        if full {
            self.split_node(ni);
        }
    }

    /// Removes and returns the entry at `pos`, copying the one node and the
    /// one leaf it sits in if they are shared (and neighbours, when a leaf
    /// or the node falls under its lower bound and merges).
    pub fn remove(&mut self, pos: usize) -> T {
        assert!(pos < self.len, "remove position past the end");
        let ni = self.node_of(pos);
        let branch = &mut self.nodes[ni];
        let node = Arc::make_mut(&mut branch.node);
        let removed = node.remove(pos - branch.start);
        let (empty, thin) = (node.len == 0, node.leaves.len() < MIN_NODE);
        self.len -= 1;
        self.shift_starts(ni + 1, -1);
        if empty {
            self.nodes.remove(ni);
        } else if thin && self.nodes.len() > 1 {
            self.merge_nodes(ni);
        }
        removed
    }

    /// Splits the (private) node `ni` into two halves of its leaves.
    fn split_node(&mut self, ni: usize) {
        let branch = &mut self.nodes[ni];
        let node = Arc::make_mut(&mut branch.node);
        let right = node.leaves.split_off(node.leaves.len() / 2);
        let cut = right[0].start;
        node.len = cut;
        let right = Node::of(right.into_iter().map(|leaf| leaf.items));
        let start = branch.start + cut;
        self.nodes.insert(
            ni + 1,
            Branch {
                start,
                node: Arc::new(right),
            },
        );
    }

    /// Joins the thin node `ni` with its left neighbour (right, for the
    /// first node), then splits the pair in half if it overfills.
    fn merge_nodes(&mut self, ni: usize) {
        let left = ni.saturating_sub(1);
        let (a, b) = (&self.nodes[left].node, &self.nodes[left + 1].node);
        let seam = a.leaves.len();
        let leaves = a.leaves.iter().chain(&b.leaves);
        let mut node = Node::of(leaves.map(|leaf| Arc::clone(&leaf.items)));
        // The left node's last leaf may be under-full, as a node's last leaf
        // may be; inside the joined node it must not.
        if node.leaves[seam - 1].items.len() < MIN_LEAF {
            node.merge_with_neighbour(seam - 1);
        }
        self.nodes[left].node = Arc::new(node);
        self.nodes.remove(left + 1);
        if self.nodes[left].node.leaves.len() > MAX_NODE {
            self.split_node(left);
        }
    }

    /// The entries at positions `span`, as a sequence that shares every leaf
    /// lying wholly inside `span` with `self` and copies, at exact capacity,
    /// only the at most two leaves the ends of `span` cut through: `O(span /
    /// MIN_LEAF + MAX_LEAF)`, whatever the span. Its edge leaves and nodes
    /// may fall under their lower bounds (see the module docs). Panics if
    /// `span` reaches past the end.
    pub fn slice(&self, span: Range<usize>) -> ChunkedSeq<T> {
        assert!(span.end <= self.len, "slice end past the sequence");
        if span.is_empty() {
            return ChunkedSeq::new();
        }
        let (first, last) = (self.node_of(span.start), self.node_of(span.end - 1));
        let mut len = 0;
        let nodes = self.nodes[first..=last]
            .iter()
            .map(|branch| {
                let lo = span.start.max(branch.start) - branch.start;
                let hi = (span.end - branch.start).min(branch.node.len);
                let node = if hi - lo == branch.node.len {
                    Arc::clone(&branch.node)
                } else {
                    Arc::new(branch.node.slice(lo..hi))
                };
                let start = len;
                len += hi - lo;
                Branch { start, node }
            })
            .collect();
        ChunkedSeq { nodes, len }
    }

    /// Mutable access to the entry at `pos`, copying its node and leaf if
    /// shared. Callers keeping the sequence sorted must not change the
    /// entry's order.
    pub fn get_mut(&mut self, pos: usize) -> Option<&mut T> {
        if pos >= self.len {
            return None;
        }
        let ni = self.node_of(pos);
        let branch = &mut self.nodes[ni];
        let node = Arc::make_mut(&mut branch.node);
        let at = pos - branch.start;
        let li = node.leaf_of(at);
        let leaf = &mut node.leaves[li];
        let at = at - leaf.start;
        Some(&mut Arc::make_mut(&mut leaf.items)[at])
    }
}

/// Content equality: two sequences are equal when they hold equal entries in
/// the same order, however each is cut into leaves.
impl<T: PartialEq> PartialEq for ChunkedSeq<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<T: Eq> Eq for ChunkedSeq<T> {}

impl<T: fmt::Debug> fmt::Debug for ChunkedSeq<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a, T> IntoIterator for &'a ChunkedSeq<T> {
    type Item = &'a T;
    type IntoIter = Iter<'a, T>;

    fn into_iter(self) -> Iter<'a, T> {
        self.iter()
    }
}

/// Iterator over a run of a [`ChunkedSeq`].
#[derive(Clone)]
pub struct Iter<'a, T> {
    nodes: std::slice::Iter<'a, Branch<T>>,
    leaves: std::slice::Iter<'a, Leaf<T>>,
    current: std::slice::Iter<'a, T>,
    remaining: usize,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = &'a T;

    #[inline]
    fn next(&mut self) -> Option<&'a T> {
        if self.remaining == 0 {
            return None;
        }
        loop {
            if let Some(item) = self.current.next() {
                self.remaining -= 1;
                return Some(item);
            }
            match self.leaves.next() {
                Some(leaf) => self.current = leaf.items.iter(),
                None => self.leaves = self.nodes.next()?.node.leaves.iter(),
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<T> ExactSizeIterator for Iter<'_, T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// Shape invariants: no empty node or leaf, none over `MAX_NODE` leaves
    /// or `MAX_LEAF` entries, none but the last node under `MIN_NODE` leaves
    /// and none but the last leaf under `MIN_LEAF` entries, starts
    /// cumulative at both levels, exact totals.
    fn check_shape<T>(seq: &ChunkedSeq<T>) {
        let mut at = 0;
        for (ni, branch) in seq.nodes.iter().enumerate() {
            assert_eq!(branch.start, at);
            let leaves = branch.node.leaves.len();
            assert!(leaves > 0 && leaves <= MAX_NODE, "node of {leaves} leaves");
            if ni + 1 < seq.nodes.len() {
                assert!(leaves >= MIN_NODE, "node of {leaves} leaves");
            }
            let mut within = 0;
            for leaf in &branch.node.leaves {
                assert_eq!(leaf.start, within);
                within += leaf.items.len();
            }
            assert_eq!(within, branch.node.len);
            at += within;
        }
        assert_eq!(at, seq.len());
        let count = seq.leaf_count();
        for (i, leaf) in seq.leaves().enumerate() {
            assert!(!leaf.items.is_empty());
            assert!(leaf.items.len() <= MAX_LEAF);
            if i + 1 < count {
                assert!(leaf.items.len() >= MIN_LEAF, "leaf of {}", leaf.items.len());
            }
        }
    }

    fn sorted_insert(seq: &mut ChunkedSeq<u32>, v: u32) -> bool {
        match seq.search_by(|x| x.cmp(&v)) {
            Ok(_) => false,
            Err(pos) => {
                seq.insert(pos, v);
                true
            }
        }
    }

    fn sorted_remove(seq: &mut ChunkedSeq<u32>, v: u32) -> bool {
        match seq.search_by(|x| x.cmp(&v)) {
            Ok(pos) => {
                assert_eq!(seq.remove(pos), v);
                true
            }
            Err(_) => false,
        }
    }

    #[test]
    fn bulk_build_is_exact_and_within_bounds() {
        for n in [
            0usize, 1, 127, 128, 191, 192, 193, 300, 319, 320, 1000, 5000,
        ] {
            let seq = ChunkedSeq::from_sorted(0..n as u32);
            check_shape(&seq);
            assert!(seq.iter().copied().eq(0..n as u32), "n = {n}");
            for leaf in seq.leaves() {
                assert_eq!(leaf.items.capacity(), leaf.items.len(), "n = {n}");
            }
        }
    }

    #[test]
    fn a_write_copies_one_leaf_or_two_on_a_split() {
        let base = ChunkedSeq::from_sorted((0..10_000u32).map(|x| 2 * x));
        // A clone shares every leaf; a no-op (search only) copies nothing.
        let mut next = base.clone();
        assert_eq!(
            next.shared_leaves(&base),
            (base.leaf_count(), base.leaf_count())
        );
        assert!(!sorted_insert(&mut next, 4000));
        assert_eq!(next.shared_leaves(&base).0, base.leaf_count());
        // An insert copies exactly the leaf it lands in.
        assert!(sorted_insert(&mut next, 4001));
        assert_eq!(
            next.shared_leaves(&base),
            (base.leaf_count() - 1, base.leaf_count())
        );
        assert_eq!(base.len(), 10_000, "the base is untouched");
        assert!(base.search_by(|x| x.cmp(&4001)).is_err());
        // So does a removal.
        let mut next = base.clone();
        assert!(sorted_remove(&mut next, 17_000));
        assert_eq!(
            next.shared_leaves(&base),
            (base.leaf_count() - 1, base.leaf_count())
        );
        // Filling one leaf until it splits leaves two private leaves.
        let mut next = base.clone();
        for odd in 0..=(MAX_LEAF - BULK_LEAF) as u32 {
            assert!(sorted_insert(&mut next, 2 * odd + 1));
        }
        check_shape(&next);
        assert_eq!(next.leaf_count(), base.leaf_count() + 1);
        assert_eq!(next.shared_leaves(&base).0, base.leaf_count() - 1);
    }

    #[test]
    fn ranges_and_partition_points_cross_leaf_boundaries() {
        let seq = ChunkedSeq::from_sorted(0..1000u32);
        assert!(seq.range(190..200).copied().eq(190..200));
        assert_eq!(seq.range(5..5).count(), 0);
        assert_eq!(seq.range(0..1000).len(), 1000);
        for (within, probe) in [
            (0..1000, 192),
            (100..300, 50),
            (100..300, 250),
            (100..300, 900),
        ] {
            let expect = (probe as usize).clamp(within.start, within.end);
            assert_eq!(seq.partition_point(within, |&x| x < probe), expect);
        }
        assert_eq!(seq.get(999), Some(&999));
        assert_eq!(seq.get(1000), None);
        // Across nodes as well as leaves.
        let seq = ChunkedSeq::from_sorted(0..100_000u32);
        assert!(seq.nodes.len() > 2);
        let node = BULK_NODE * BULK_LEAF;
        assert!(seq
            .range(node - 5..node + 5)
            .copied()
            .eq(node as u32 - 5..node as u32 + 5));
        assert!(seq.range(0..100_000).copied().eq(0..100_000));
        for (within, probe) in [
            (0..100_000, node as u32),
            (0..100_000, 77_777),
            (node - 3..3 * node, 2 * node as u32 + 1),
            (50..60_000, 99_999),
        ] {
            let expect = (probe as usize).clamp(within.start, within.end);
            assert_eq!(seq.partition_point(within, |&x| x < probe), expect);
        }
        for probe in [0, node as u32, 54_321, 99_999] {
            assert_eq!(seq.search_by(|x| x.cmp(&probe)), Ok(probe as usize));
            assert_eq!(seq.get(probe as usize), Some(&probe));
        }
        assert_eq!(seq.search_by(|x| x.cmp(&100_000)), Err(100_000));
    }

    #[test]
    fn a_slice_shares_the_leaves_inside_its_span() {
        let base = ChunkedSeq::from_sorted(0..5000u32);
        let leaves = base.leaf_count();
        for span in [
            0..5000,
            0..1,
            100..4900,
            192..384,
            190..200,
            4999..5000,
            7..7,
        ] {
            let slice = base.slice(span.clone());
            assert!(slice.iter().copied().eq(span.clone().map(|x| x as u32)));
            assert_eq!(slice.len(), span.len());
            let (shared, total) = slice.shared_leaves(&base);
            assert!(shared + 2 >= total, "{span:?}: {shared} of {total}");
            let mut at = 0;
            for leaf in slice.leaves() {
                assert!(!leaf.items.is_empty() && leaf.items.len() <= MAX_LEAF);
                assert_eq!(leaf.items.capacity(), leaf.items.len());
                at += leaf.items.len();
            }
            assert_eq!(at, slice.len());
            for probe in [0, 150, 2500, 4990] {
                let within = 0..slice.len();
                let expect = slice.iter().filter(|&&x| x < probe).count();
                assert_eq!(slice.partition_point(within, |&x| x < probe), expect);
            }
        }
        // Across nodes: every leaf inside the span is shared.
        let big = ChunkedSeq::from_sorted(0..100_000u32);
        let span = 1_000..90_000;
        let slice = big.slice(span.clone());
        assert!(slice.iter().copied().eq(span.clone().map(|x| x as u32)));
        let (shared, total) = slice.shared_leaves(&big);
        assert!(shared + 2 >= total && total > 2 * MAX_NODE);
        // A whole-leaf span copies nothing; the whole sequence shares all.
        assert_eq!(base.slice(192..384).shared_leaves(&base), (1, 1));
        assert_eq!(base.slice(0..5000).shared_leaves(&base), (leaves, leaves));
        // Written, a slice stays a correct sequence.
        let mut slice = base.slice(190..1000);
        for v in 190..400 {
            assert!(sorted_remove(&mut slice, v));
        }
        assert!(sorted_insert(&mut slice, 5000));
        assert!(slice.iter().copied().eq((400..1000).chain([5000])));
        assert!(base.iter().copied().eq(0..5000), "the base is untouched");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The sequence against `BTreeSet` over op sequences long enough to
        /// split and merge leaves: a growth phase drawn from a wide domain,
        /// then a shrink phase over the same draws.
        #[test]
        fn agrees_with_btreeset_model(
            ops in proptest::collection::vec((0u8..8, 0u32..4000), 1500..3000),
        ) {
            let mut seq = ChunkedSeq::new();
            let mut model = BTreeSet::new();
            let half = ops.len() / 2;
            let mut max_leaves = 0;
            for (i, &(op, v)) in ops.iter().enumerate() {
                // Mostly inserts in the first half; mostly removals after,
                // of the values the first half drew.
                let insert = if i < half { op != 0 } else { op == 0 };
                let v = if i < half || insert { v } else { ops[i - half].1 };
                if insert {
                    prop_assert_eq!(sorted_insert(&mut seq, v), model.insert(v));
                } else {
                    prop_assert_eq!(sorted_remove(&mut seq, v), model.remove(&v));
                }
                prop_assert_eq!(seq.len(), model.len());
                prop_assert_eq!(seq.search_by(|x| x.cmp(&v)).is_ok(), model.contains(&v));
                max_leaves = max_leaves.max(seq.leaf_count());
                if i % 97 == 0 {
                    check_shape(&seq);
                    prop_assert!(seq.iter().eq(model.iter()));
                    let lo = v.min(3000);
                    let span = seq.partition_point(0..seq.len(), |&x| x < lo)
                        ..seq.partition_point(0..seq.len(), |&x| x < lo + 500);
                    prop_assert!(seq.range(span).eq(model.range(lo..lo + 500)));
                }
            }
            check_shape(&seq);
            prop_assert!(seq.iter().eq(model.iter()));
            // Equal contents, different chunkings: grown-and-shrunk vs bulk.
            let bulk = ChunkedSeq::from_sorted(model.iter().copied());
            prop_assert_eq!(&seq, &bulk);
            prop_assert!(max_leaves > 1, "the growth phase must split");
            prop_assert!(seq.leaf_count() < max_leaves, "the shrink phase must merge");
        }

        /// At node scale: a bulk-built sequence grown by scattered inserts
        /// past what its nodes hold, so nodes split, then shrunk to a few
        /// leaves, so they merge — against the model throughout.
        #[test]
        fn nodes_split_and_merge_in_agreement_with_the_model(
            inserts in proptest::collection::vec(0u32..80_000, 20_000..24_000),
            keep in 0u32..40,
        ) {
            let mut model: BTreeSet<u32> = (0..10_000).map(|x| 8 * x).collect();
            let mut seq = ChunkedSeq::from_sorted(model.iter().copied());
            let bulk_nodes = seq.nodes.len();
            for (i, &v) in inserts.iter().enumerate() {
                prop_assert_eq!(sorted_insert(&mut seq, v), model.insert(v));
                if i % 997 == 0 {
                    check_shape(&seq);
                    let span = seq.partition_point(0..seq.len(), |&x| x < v)
                        ..seq.partition_point(0..seq.len(), |&x| x < v + 9_000);
                    prop_assert!(seq.range(span).eq(model.range(v..v + 9_000)));
                }
            }
            check_shape(&seq);
            prop_assert!(seq.iter().eq(model.iter()));
            let grown = seq.nodes.len();
            prop_assert!(grown > bulk_nodes, "the inserts must split nodes");
            let all: Vec<u32> = model.iter().copied().collect();
            for (i, v) in all.into_iter().enumerate() {
                if v % 40 != keep {
                    prop_assert!(sorted_remove(&mut seq, v));
                    model.remove(&v);
                }
                if i % 997 == 0 {
                    check_shape(&seq);
                }
            }
            check_shape(&seq);
            prop_assert!(seq.iter().eq(model.iter()));
            prop_assert!(seq.nodes.len() < grown, "the removals must merge nodes");
            prop_assert_eq!(&seq, &ChunkedSeq::from_sorted(model.iter().copied()));
        }
    }
}
