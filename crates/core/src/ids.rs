//! Flat id-space containers shared by the join core, the level memos and
//! the plan executor: equal-width `u32` rows in one allocation, so the hot
//! paths allocate per *container*, never per row or per probe.

use rcqa_data::{Value, ValueInterner};
use std::cmp::Ordering;
use std::ops::Range;

/// Writes the ids of `values` into `ids` (cleared first); `false` — `ids` then
/// holds a prefix — when some value is not interned, i.e. occurs in no fact
/// the interner's index line ever held.
pub(crate) fn resolve_ids(interner: &ValueInterner, values: &[Value], ids: &mut Vec<u32>) -> bool {
    ids.clear();
    ids.extend(values.iter().map_while(|v| interner.id_of(v)));
    ids.len() == values.len()
}

/// Equal-width id rows stored back to back in one `Vec<u32>`: the executor's
/// sorted group keys, a commit's dirty block keys
/// ([`crate::index::DirtyKeys`]), the delta enumeration's pinned keys and the
/// affected group keys it reports ([`crate::engine::RangeCqa::affected_keys`]),
/// the group keys of an id-space result ([`crate::engine::IdRanges`]), and
/// the tuple storage of the crate's id-tuple hash set.
///
/// The ids are those of one index's [`ValueInterner`]; rows order by value
/// through [`ValueInterner::cmp_id_tuples`] and compare equal exactly when
/// their ids do.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IdRows {
    width: usize,
    len: usize,
    ids: Vec<u32>,
}

impl IdRows {
    /// No rows, each future row `width` ids wide (`0` is a valid width: the
    /// rows of a variable-free body).
    pub fn new(width: usize) -> IdRows {
        IdRows {
            width,
            len: 0,
            ids: Vec::new(),
        }
    }

    /// No rows, with room for `rows` rows of `width` ids.
    pub fn with_capacity(width: usize, rows: usize) -> IdRows {
        IdRows {
            width,
            len: 0,
            ids: Vec::with_capacity(width * rows),
        }
    }

    /// The ids in a row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[u32] {
        &self.ids[i * self.width..(i + 1) * self.width]
    }

    /// The rows in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[u32]> + '_ {
        (0..self.len).map(|i| self.row(i))
    }

    /// Appends one row, which must yield exactly `width` ids.
    #[inline]
    pub fn push(&mut self, row: impl IntoIterator<Item = u32>) {
        self.ids.extend(row);
        self.len += 1;
        debug_assert_eq!(self.ids.len(), self.len * self.width);
    }

    /// The distinct rows in ascending `cmp` order (`cmp` must be a total
    /// order under which only identical rows compare equal).
    pub(crate) fn sorted_dedup(&self, cmp: impl Fn(&[u32], &[u32]) -> Ordering) -> IdRows {
        let mut order: Vec<usize> = (0..self.len).collect();
        order.sort_unstable_by(|&a, &b| cmp(self.row(a), self.row(b)));
        order.dedup_by(|a, b| self.row(*a) == self.row(*b));
        let mut out = IdRows::new(self.width);
        for i in order {
            out.push(self.row(i).iter().copied());
        }
        out
    }

    /// The first row index in `within` for which `pred` fails, given that it
    /// holds for a prefix of those rows and fails for the rest.
    pub fn partition_point(
        &self,
        within: Range<usize>,
        mut pred: impl FnMut(&[u32]) -> bool,
    ) -> usize {
        let (mut lo, mut hi) = (within.start, within.end);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if pred(self.row(mid)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

/// Multiply-rotate hash over id words (the Fx construction): ids are dense
/// small integers produced by this process, so there is no adversarial key to
/// defend against and SipHash's cost buys nothing. The high bits carry the
/// mixing, which is why [`IdTupleSet`] indexes by shifting, not masking.
#[inline]
fn hash_ids(ids: &[u32]) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    ids.iter().fold(0u64, |h, &id| {
        (h.rotate_left(5) ^ u64::from(id)).wrapping_mul(K)
    })
}

/// A set of equal-width id tuples with dense insertion-order indices: linear
/// probing over tuple indices, the tuples themselves in one [`IdRows`]. A
/// probe borrows a `&[u32]`; an insert copies it into the flat storage — no
/// key is ever boxed on its own. Callers keep per-tuple payloads in a `Vec`
/// indexed by the tuple's index.
#[derive(Debug)]
pub(crate) struct IdTupleSet {
    tuples: IdRows,
    /// Tuple indices, `EMPTY` where vacant; the length is a power of two and
    /// at least twice `tuples.len()`.
    slots: Vec<u32>,
}

const EMPTY: u32 = u32::MAX;

impl IdTupleSet {
    /// An empty set of `width`-wide tuples.
    pub(crate) fn new(width: usize) -> IdTupleSet {
        IdTupleSet {
            tuples: IdRows::new(width),
            slots: vec![EMPTY; 16],
        }
    }

    /// Number of distinct tuples.
    pub(crate) fn len(&self) -> usize {
        self.tuples.len()
    }

    /// The `i`-th inserted tuple.
    #[inline]
    pub(crate) fn tuple(&self, i: usize) -> &[u32] {
        self.tuples.row(i)
    }

    /// The slot holding `tuple`, or the vacant slot where it belongs.
    #[inline]
    fn probe(&self, tuple: &[u32]) -> usize {
        let mask = self.slots.len() - 1;
        let shift = 64 - self.slots.len().trailing_zeros();
        let mut at = (hash_ids(tuple) >> shift) as usize;
        while self.slots[at] != EMPTY && self.tuples.row(self.slots[at] as usize) != tuple {
            at = (at + 1) & mask;
        }
        at
    }

    /// Whether `tuple` is in the set.
    #[cfg(test)]
    pub(crate) fn contains(&self, tuple: &[u32]) -> bool {
        self.slots[self.probe(tuple)] != EMPTY
    }

    /// The index of `tuple`, inserting it first if absent; the flag says
    /// whether this call inserted it.
    #[inline]
    pub(crate) fn insert(&mut self, tuple: &[u32]) -> (usize, bool) {
        let at = self.probe(tuple);
        if self.slots[at] != EMPTY {
            return (self.slots[at] as usize, false);
        }
        let index = self.tuples.len();
        self.tuples.push(tuple.iter().copied());
        self.slots[at] = u32::try_from(index).expect("tuple count fits u32");
        if 2 * self.tuples.len() > self.slots.len() {
            self.grow();
        }
        (index, true)
    }

    /// Doubles the slot array and re-seats every tuple.
    fn grow(&mut self) {
        self.slots = vec![EMPTY; 2 * self.slots.len()];
        for i in 0..self.tuples.len() {
            let at = self.probe(self.tuples.row(i));
            self.slots[at] = i as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_round_trip_at_every_width() {
        let mut rows = IdRows::new(2);
        rows.push([1, 2]);
        rows.push([3, 4]);
        rows.push([5, 6]);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows.row(1), &[3, 4]);
        assert_eq!(rows.row(2), &[5, 6]);
        // Width 0: rows are countable though they store nothing.
        let mut empty = IdRows::new(0);
        empty.push([]);
        empty.push([]);
        assert_eq!(empty.len(), 2);
        assert_eq!(empty.row(1), &[] as &[u32]);
    }

    #[test]
    fn rows_sort_dedup_and_partition() {
        let mut rows = IdRows::new(2);
        for row in [[3, 1], [1, 2], [3, 1], [1, 1], [2, 9]] {
            rows.push(row);
        }
        let sorted = rows.sorted_dedup(|a, b| a.cmp(b));
        let listed: Vec<&[u32]> = (0..sorted.len()).map(|i| sorted.row(i)).collect();
        assert_eq!(listed, [[1, 1], [1, 2], [2, 9], [3, 1]]);
        assert_eq!(sorted.partition_point(0..4, |r| r[0] < 2), 2);
        assert_eq!(sorted.partition_point(0..4, |r| r[0] <= 3), 4);
        assert_eq!(sorted.partition_point(0..4, |_| false), 0);
        // Within a sub-range the answer stays inside it.
        assert_eq!(sorted.partition_point(3..4, |r| r[0] < 2), 3);
        assert_eq!(sorted.partition_point(1..3, |r| r[0] < 3), 3);
        assert_eq!(sorted.iter().len(), 4);
        // Width 0: every row is the empty row, so one survives.
        let mut unit = IdRows::new(0);
        unit.push([]);
        unit.push([]);
        assert_eq!(unit.sorted_dedup(|a, b| a.cmp(b)).len(), 1);
    }

    #[test]
    fn tuple_set_assigns_dense_indices_across_growth() {
        let mut set = IdTupleSet::new(2);
        // Enough tuples to double the slot array several times, with ids that
        // collide in their low bits.
        let tuple = |i: u32| [i << 8, i % 7];
        for i in 0..1000u32 {
            assert_eq!(set.insert(&tuple(i)), (i as usize, true));
        }
        assert_eq!(set.len(), 1000);
        for i in 0..1000u32 {
            assert_eq!(set.insert(&tuple(i)), (i as usize, false));
            assert!(set.contains(&tuple(i)));
            assert_eq!(set.tuple(i as usize), &tuple(i));
        }
        assert!(!set.contains(&[1, 1]));
        // Width 0 holds at most the empty tuple.
        let mut unit = IdTupleSet::new(0);
        assert!(!unit.contains(&[]));
        assert_eq!(unit.insert(&[]), (0, true));
        assert_eq!(unit.insert(&[]), (0, false));
        assert_eq!(unit.len(), 1);
    }
}
