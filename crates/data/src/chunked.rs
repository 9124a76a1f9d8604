//! A chunked, copy-on-write sequence: the one structural-sharing mechanism
//! under both [`crate::DatabaseInstance`] (sorted facts) and the block index
//! (sorted blocks and posting lists).
//!
//! A [`ChunkedSeq`] is a *spine* — a `Vec` of leaves — where each leaf is an
//! `Arc<Vec<T>>` holding a contiguous run of the sequence. Cloning copies the
//! spine only (one pointer bump per leaf); a mutation then copies **one leaf**
//! (two when it splits or merges) and leaves every other leaf shared with the
//! clone's source. That is what makes a single-fact commit cost
//! `O(n / MIN_LEAF + MAX_LEAF)` instead of `O(n)`.
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
//! index ids) and for handles whose clone is reference-count bumps
//! ([`crate::Fact`], [`crate::Value`]); an entry that owns heap storage would
//! turn each leaf copy into an allocation per entry.
//!
//! Leaves hold between [`MIN_LEAF`] and [`MAX_LEAF`] entries (only the last
//! leaf may hold fewer): an insert into a full leaf splits it first — in
//! half, or for an append at bulk-leaf size so that ascending loads leave
//! their leaves room both ways — and a removal that leaves a leaf under-full
//! merges it with a neighbour. Bulk construction ([`ChunkedSeq::from_sorted`])
//! and every copy-on-write leaf copy allocate **exact capacity**, so a
//! sequence built in bulk or maintained commit by commit carries no slack.
//! The one exception to the lower bound is a [`ChunkedSeq::slice`]: a
//! read-only view that shares the leaves inside its span and copies the two
//! it cuts through, so its first leaf, like its last, may be short. Nothing
//! writes a view (the block index's restricted views are built per read and
//! dropped); were one written, the operations stay correct and merging
//! restores the bound leaf by leaf.

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

/// One leaf of the spine, with the position of its first entry.
#[derive(Clone)]
struct Leaf<T> {
    start: usize,
    items: Arc<Vec<T>>,
}

/// A sequence of `T` stored as `Arc`-shared leaves. See the module docs.
#[derive(Clone)]
pub struct ChunkedSeq<T> {
    leaves: Vec<Leaf<T>>,
    len: usize,
}

impl<T> Default for ChunkedSeq<T> {
    fn default() -> Self {
        ChunkedSeq {
            leaves: Vec::new(),
            len: 0,
        }
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
        let mut len = 0;
        let leaves = leaves
            .into_iter()
            .map(|mut items| {
                items.shrink_to_fit();
                let start = len;
                len += items.len();
                Leaf {
                    start,
                    items: Arc::new(items),
                }
            })
            .collect();
        ChunkedSeq { leaves, len }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the sequence holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Index of the leaf holding position `pos` (`pos < len`).
    fn leaf_of(&self, pos: usize) -> usize {
        debug_assert!(pos < self.len);
        self.leaves.partition_point(|l| l.start <= pos) - 1
    }

    /// The entry at `pos`, if any.
    pub fn get(&self, pos: usize) -> Option<&T> {
        if pos >= self.len {
            return None;
        }
        let leaf = &self.leaves[self.leaf_of(pos)];
        Some(&leaf.items[pos - leaf.start])
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
                leaves: [].iter(),
                current: [].iter(),
                remaining: 0,
            };
        }
        let first = self.leaf_of(span.start);
        let leaf = &self.leaves[first];
        Iter {
            leaves: self.leaves[first + 1..].iter(),
            current: leaf.items[span.start - leaf.start..].iter(),
            remaining: span.len(),
        }
    }

    /// The first position in `within` whose entry fails `pred`, given that
    /// `pred` holds for a prefix of `within` and fails for the rest
    /// (`within.end` if it never fails). Two-level binary search: leaves by
    /// their first entry, then inside one leaf.
    pub fn partition_point(&self, within: Range<usize>, mut pred: impl FnMut(&T) -> bool) -> usize {
        assert!(within.end <= self.len, "range end past the sequence");
        if within.is_empty() {
            return within.start;
        }
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

    /// Binary search of a sequence sorted consistently with `cmp` (which
    /// orders an entry against the probe): `Ok(pos)` of a matching entry, or
    /// `Err(pos)` where one would be inserted.
    pub fn search_by(&self, mut cmp: impl FnMut(&T) -> std::cmp::Ordering) -> Result<usize, usize> {
        // The last leaf whose first entry is not past the probe holds the
        // match, or the insertion point (possibly its end).
        let after = self
            .leaves
            .partition_point(|l| cmp(&l.items[0]) != std::cmp::Ordering::Greater);
        let Some(leaf) = after.checked_sub(1).map(|li| &self.leaves[li]) else {
            return Err(0);
        };
        match leaf.items.binary_search_by(cmp) {
            Ok(at) => Ok(leaf.start + at),
            Err(at) => Err(leaf.start + at),
        }
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.leaves.len()
    }

    /// How many of this sequence's leaves are physically shared (same
    /// allocation) with `other`, and how many leaves it has — the observer
    /// of the copy-on-write contract.
    pub fn shared_leaves(&self, other: &ChunkedSeq<T>) -> (usize, usize) {
        let theirs: HashSet<*const Vec<T>> =
            other.leaves.iter().map(|l| Arc::as_ptr(&l.items)).collect();
        let shared = self
            .leaves
            .iter()
            .filter(|l| theirs.contains(&Arc::as_ptr(&l.items)))
            .count();
        (shared, self.leaves.len())
    }

    /// Shifts the `start` of every leaf from index `from` on by `by`.
    fn shift_starts(&mut self, from: usize, by: isize) {
        for leaf in &mut self.leaves[from..] {
            leaf.start = leaf.start.wrapping_add_signed(by);
        }
    }
}

impl<T: Clone> ChunkedSeq<T> {
    /// Inserts `item` at position `pos` (`pos <= len`), copying the one leaf
    /// it lands in if that leaf is shared.
    pub fn insert(&mut self, pos: usize, item: T) {
        assert!(pos <= self.len, "insert position past the end");
        if self.leaves.is_empty() {
            self.leaves.push(Leaf {
                start: 0,
                items: Arc::new(vec![item]),
            });
            self.len = 1;
            return;
        }
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
    pub fn remove(&mut self, pos: usize) -> T {
        assert!(pos < self.len, "remove position past the end");
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

    /// The entries at positions `span`, as a sequence that shares every leaf
    /// lying wholly inside `span` with `self` and copies, at exact capacity,
    /// only the at most two leaves the ends of `span` cut through: `O(span /
    /// MIN_LEAF + MAX_LEAF)`, whatever the span. Its edge leaves may hold
    /// fewer than [`MIN_LEAF`] entries (see the module docs). Panics if
    /// `span` reaches past the end.
    pub fn slice(&self, span: Range<usize>) -> ChunkedSeq<T> {
        assert!(span.end <= self.len, "slice end past the sequence");
        if span.is_empty() {
            return ChunkedSeq::new();
        }
        let (first, last) = (self.leaf_of(span.start), self.leaf_of(span.end - 1));
        let mut len = 0;
        let leaves = self.leaves[first..=last]
            .iter()
            .map(|leaf| {
                let lo = span.start.max(leaf.start) - leaf.start;
                let hi = (span.end - leaf.start).min(leaf.items.len());
                let items = if hi - lo == leaf.items.len() {
                    Arc::clone(&leaf.items)
                } else {
                    Arc::new(leaf.items[lo..hi].to_vec())
                };
                let start = len;
                len += hi - lo;
                Leaf { start, items }
            })
            .collect();
        ChunkedSeq { leaves, len }
    }

    /// Mutable access to the entry at `pos`, copying its leaf if shared.
    /// Callers keeping the sequence sorted must not change the entry's order.
    pub fn get_mut(&mut self, pos: usize) -> Option<&mut T> {
        if pos >= self.len {
            return None;
        }
        let li = self.leaf_of(pos);
        let leaf = &mut self.leaves[li];
        let at = pos - leaf.start;
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
            self.current = self.leaves.next()?.items.iter();
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

    /// Leaf-shape invariants: no empty leaf, none over `MAX_LEAF`, none but
    /// the last under `MIN_LEAF`, starts cumulative, exact total.
    fn check_shape<T>(seq: &ChunkedSeq<T>) {
        let mut at = 0;
        for (i, leaf) in seq.leaves.iter().enumerate() {
            assert_eq!(leaf.start, at);
            assert!(!leaf.items.is_empty());
            assert!(leaf.items.len() <= MAX_LEAF);
            if i + 1 < seq.leaves.len() {
                assert!(leaf.items.len() >= MIN_LEAF, "leaf of {}", leaf.items.len());
            }
            at += leaf.items.len();
        }
        assert_eq!(at, seq.len());
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
            for leaf in &seq.leaves {
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
            for leaf in &slice.leaves {
                assert_eq!(leaf.start, at);
                assert!(!leaf.items.is_empty() && leaf.items.len() <= MAX_LEAF);
                assert_eq!(leaf.items.capacity(), leaf.items.len());
                at += leaf.items.len();
            }
            for probe in [0, 150, 2500, 4990] {
                let within = 0..slice.len();
                let expect = slice.iter().filter(|&&x| x < probe).count();
                assert_eq!(slice.partition_point(within, |&x| x < probe), expect);
            }
        }
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
    }
}
