//! Dense `u32` interning of [`Value`]s — the id space the columnar index
//! stores and the join core compares.
//!
//! A [`ValueInterner`] assigns each distinct [`Value`] a dense `u32` id. Ids
//! come in two ranges:
//!
//! * the **sorted prefix** `0..sorted_len()`: assigned at cold build time in
//!   ascending [`Value`] order, so *within the prefix* numeric id order *is*
//!   value order (the paper's `⪯` tie-breaking survives interning for free);
//! * the **append-only overlay** `sorted_len()..len()`: ids handed out by
//!   [`ValueInterner::intern`] for values first seen by a later commit, in
//!   arrival order. An overlay id's number carries no order information, so
//!   each overlay value is stored beside its **prefix rank** — how many
//!   prefix values sort below it — which places it between two neighbouring
//!   prefix ids. The ids are **stable**: an id, once assigned, never changes
//!   or disappears, so structurally-shared snapshots of interned storage can
//!   span commits.
//!
//! Id equality always coincides with value equality (each distinct value has
//! exactly one id), which is what lets the hot paths hash and compare raw
//! `u32`s. Exact ordering is provided by [`ValueInterner::cmp_ids`]: a plain
//! integer comparison when both ids sit in the sorted prefix, a comparison
//! of a prefix id with an overlay value's rank when one does, and of two
//! overlay values' ranks when neither does — two overlay values are compared
//! as values only when no prefix value sorts between them.
//!
//! Two ids are reserved as caller-side sentinels and never assigned:
//! [`UNBOUND_ID`] (an unbound join slot) and [`MISSING_ID`] (a query constant
//! absent from the interner, which therefore matches nothing).

use crate::chunked::ChunkedSeq;
use crate::value::Value;
use std::cmp::Ordering;
use std::sync::Arc;

/// Sentinel id for an unbound join slot. Never assigned to a value.
pub const UNBOUND_ID: u32 = u32::MAX;

/// Sentinel id for a value that is **not** in the interner (e.g. a query
/// constant that occurs in no fact). Never assigned to a value; comparing any
/// fact id against it fails, so a `MISSING_ID` constraint matches nothing.
pub const MISSING_ID: u32 = u32::MAX - 1;

/// Largest number of distinct values an interner may hold (leaves the two
/// sentinel ids unassignable).
pub const MAX_INTERNED: usize = (u32::MAX - 2) as usize;

/// A dense, order-aware, append-only mapping `Value ↔ u32`.
///
/// Cloning is cheap: the sorted prefix is `Arc`-shared, and the overlay's two
/// sequences are [`ChunkedSeq`]s, so a clone copies their spines — one
/// pointer per node of leaves — and interning a value into the clone then
/// copies the one node and the one leaf of each it lands in. The overlay
/// grows for the life of a session (every value first seen since the cold
/// build stays in it), so this is what keeps the serving layer's per-commit
/// path copy of the index flat even though the interner rides inside it.
#[derive(Clone, Debug, Default)]
pub struct ValueInterner {
    /// Ids `0..sorted.len()`, in ascending `Value` order. Frozen at build.
    sorted: Arc<Vec<Value>>,
    /// Ids `sorted.len()..`, in arrival order, each value beside its prefix
    /// rank: the number of prefix values below it (none equals it).
    appended: ChunkedSeq<(Value, u32)>,
    /// The overlay's ids, sorted by their value — the overlay's lookup side.
    appended_by_value: ChunkedSeq<u32>,
}

impl ValueInterner {
    /// An empty interner.
    pub fn new() -> ValueInterner {
        ValueInterner::default()
    }

    /// Builds an interner whose sorted prefix is exactly `values`.
    ///
    /// `values` must be strictly ascending (sorted and duplicate-free); the
    /// cold index build obtains it from one scan of the instance's sorted
    /// cells, at exact capacity. The prefix is shared by every snapshot
    /// derived from this interner, so spare capacity a caller hands in is
    /// given back here instead of living as long as the longest-lived
    /// snapshot.
    pub fn from_sorted(mut values: Vec<Value>) -> ValueInterner {
        values.shrink_to_fit();
        debug_assert!(
            values.windows(2).all(|w| w[0] < w[1]),
            "sorted prefix must be strictly ascending"
        );
        assert!(values.len() <= MAX_INTERNED, "interner capacity exhausted");
        ValueInterner {
            sorted: Arc::new(values),
            appended: ChunkedSeq::new(),
            appended_by_value: ChunkedSeq::new(),
        }
    }

    /// Number of ids in the sorted prefix (ids below this compare by plain
    /// integer order).
    pub fn sorted_len(&self) -> usize {
        self.sorted.len()
    }

    /// Total number of interned values.
    pub fn len(&self) -> usize {
        self.sorted.len() + self.appended.len()
    }

    /// Returns `true` if nothing is interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The id of `v`, if interned.
    pub fn id_of(&self, v: &Value) -> Option<u32> {
        if let Ok(i) = self.sorted.binary_search(v) {
            return Some(i as u32);
        }
        let at = self
            .appended_by_value
            .search_by(|&id| self.value(id).cmp(v))
            .ok()?;
        self.appended_by_value.get(at).copied()
    }

    /// The id of `v`, or [`MISSING_ID`] when `v` is not interned — the form
    /// lookup code wants: a missing constant becomes a constraint that
    /// matches nothing instead of an `Option` to thread around.
    pub fn id_or_missing(&self, v: &Value) -> u32 {
        self.id_of(v).unwrap_or(MISSING_ID)
    }

    /// Interns `v`, returning its (existing or freshly appended) id.
    /// Append-only: already-assigned ids are never disturbed.
    pub fn intern(&mut self, v: &Value) -> u32 {
        // One search of each side: the prefix's gives the rank a fresh value
        // is stored with, the overlay's the place its id goes.
        let rank = match self.prefix_rank(v) {
            Ok(id) => return id,
            Err(rank) => rank,
        };
        let at = match (self.appended_by_value).search_by(|&other| self.value(other).cmp(v)) {
            Ok(at) => {
                return self
                    .appended_by_value
                    .get(at)
                    .copied()
                    .expect("found in the overlay")
            }
            Err(at) => at,
        };
        assert!(self.len() < MAX_INTERNED, "interner capacity exhausted");
        let id = self.len() as u32;
        self.appended.insert(self.appended.len(), (v.clone(), rank));
        self.appended_by_value.insert(at, id);
        id
    }

    /// The value behind an id.
    ///
    /// # Panics
    /// Panics if `id` was never assigned (including the sentinels).
    pub fn value(&self, id: u32) -> &Value {
        let id = id as usize;
        if id < self.sorted.len() {
            &self.sorted[id]
        } else {
            &self.overlay(id).0
        }
    }

    /// The overlay entry of an overlay id: its value and its prefix rank.
    fn overlay(&self, id: usize) -> &(Value, u32) {
        self.appended
            .get(id - self.sorted.len())
            .expect("id assigned by this interner")
    }

    /// Returns `true` if `id` names an interned value (sentinels and
    /// out-of-range ids do not).
    pub fn contains_id(&self, id: u32) -> bool {
        (id as usize) < self.len()
    }

    /// Exact value order of two assigned ids, by integers wherever the
    /// sorted prefix decides it: two prefix ids compare as ids; a prefix id
    /// `p` lies below an overlay value of rank `r` iff `p < r` (the prefix
    /// values below it are exactly ids `0..r`); two overlay values of
    /// different ranks are ordered by their ranks. Only two overlay values of
    /// one rank — no prefix value between them — are compared as
    /// [`Value`]s. Equal ids are equal values by construction.
    pub fn cmp_ids(&self, a: u32, b: u32) -> Ordering {
        if a == b {
            return Ordering::Equal;
        }
        let prefix = self.sorted.len();
        match ((a as usize) < prefix, (b as usize) < prefix) {
            (true, true) => a.cmp(&b),
            (true, false) => Self::prefix_against(a, self.overlay(b as usize).1),
            (false, true) => Self::prefix_against(b, self.overlay(a as usize).1).reverse(),
            (false, false) => {
                let ((va, ra), (vb, rb)) = (self.overlay(a as usize), self.overlay(b as usize));
                ra.cmp(rb).then_with(|| va.cmp(vb))
            }
        }
    }

    /// The order of prefix id `id` against a value **not** in the prefix
    /// whose prefix rank is `rank`: every prefix id below the rank sorts
    /// below the value, every other one above it.
    fn prefix_against(id: u32, rank: u32) -> Ordering {
        if id < rank {
            Ordering::Less
        } else {
            Ordering::Greater
        }
    }

    /// Locates `v` relative to the **sorted prefix**: `Ok(id)` when `v` is
    /// interned there, `Err(bound)` where `bound` is the number of prefix
    /// values strictly less than `v` (i.e. the id `v` would get if it were
    /// inserted into the prefix).
    ///
    /// This is the precomputation behind range seeks: once the rank of a
    /// probe value is known, comparing any sorted-prefix id against the probe
    /// is a plain integer comparison ([`ValueInterner::cmp_id_to_value`]).
    pub fn prefix_rank(&self, v: &Value) -> Result<u32, u32> {
        match self.sorted.binary_search(v) {
            Ok(i) => Ok(i as u32),
            Err(i) => Err(i as u32),
        }
    }

    /// Value order of an assigned id against an arbitrary probe value (which
    /// need not be interned), given the probe's precomputed
    /// [`ValueInterner::prefix_rank`]: integer-only when the id sits in the
    /// sorted prefix, or when the id is an overlay value's and the prefix
    /// holds the probe or separates the two; a materialised comparison only
    /// for an overlay value of the probe's own rank.
    pub fn cmp_id_to_value(&self, id: u32, v: &Value, rank: Result<u32, u32>) -> Ordering {
        if (id as usize) < self.sorted.len() {
            return match rank {
                Ok(r) => id.cmp(&r),
                // v sits strictly between prefix ranks r-1 and r: every id
                // below r is less than v, every id at or above r is greater.
                Err(r) => Self::prefix_against(id, r),
            };
        }
        let (value, own) = self.overlay(id as usize);
        match rank {
            // The probe is prefix value `r`, which the overlay value is above
            // iff `r` is among the prefix values below it.
            Ok(r) => Self::prefix_against(r, *own).reverse(),
            Err(r) => own.cmp(&r).then_with(|| value.cmp(v)),
        }
    }

    /// Lexicographic value order of two id tuples (the block-key order of the
    /// columnar index).
    pub fn cmp_id_tuples(&self, a: &[u32], b: &[u32]) -> Ordering {
        for (&x, &y) in a.iter().zip(b.iter()) {
            match self.cmp_ids(x, y) {
                Ordering::Equal => {}
                other => return other,
            }
        }
        a.len().cmp(&b.len())
    }

    /// Materialises an id tuple back into values.
    pub fn values_of(&self, ids: &[u32]) -> Vec<Value> {
        ids.iter().map(|&id| self.value(id).clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunked::MAX_LEAF;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn build(values: impl IntoIterator<Item = Value>) -> ValueInterner {
        let sorted: BTreeSet<Value> = values.into_iter().collect();
        ValueInterner::from_sorted(sorted.into_iter().collect())
    }

    #[test]
    fn ids_round_trip_and_sorted_prefix_orders() {
        let mut interner = build([
            Value::int(3),
            Value::int(1),
            Value::text("b"),
            Value::text("a"),
        ]);
        assert_eq!(interner.len(), 4);
        assert_eq!(interner.sorted_len(), 4);
        // Num < Text, and within each kind the natural order.
        assert_eq!(interner.id_of(&Value::int(1)), Some(0));
        assert_eq!(interner.id_of(&Value::int(3)), Some(1));
        assert_eq!(interner.id_of(&Value::text("a")), Some(2));
        assert_eq!(interner.id_of(&Value::text("b")), Some(3));
        assert_eq!(interner.id_of(&Value::int(2)), None);
        assert_eq!(interner.id_or_missing(&Value::int(2)), MISSING_ID);
        // Appended ids are dense, stable, and findable.
        let id2 = interner.intern(&Value::int(2));
        assert_eq!(id2, 4);
        assert_eq!(interner.intern(&Value::int(2)), 4);
        assert_eq!(interner.id_of(&Value::int(2)), Some(4));
        assert_eq!(interner.intern(&Value::int(1)), 0, "existing ids reused");
        assert_eq!(interner.value(4), &Value::int(2));
        // Order is exact across the prefix/overlay boundary.
        assert_eq!(interner.cmp_ids(0, 4), Ordering::Less); // 1 < 2
        assert_eq!(interner.cmp_ids(4, 1), Ordering::Less); // 2 < 3
        assert_eq!(interner.cmp_ids(4, 4), Ordering::Equal);
        assert!(!interner.contains_id(UNBOUND_ID));
        assert!(!interner.contains_id(MISSING_ID));
    }

    #[test]
    fn from_sorted_keeps_no_spare_capacity() {
        let mut values = Vec::with_capacity(1000);
        values.extend((0..10).map(Value::int));
        let interner = ValueInterner::from_sorted(values);
        assert_eq!(interner.sorted_len(), 10);
        assert_eq!(interner.sorted.capacity(), 10);
    }

    #[test]
    fn tuple_order_is_lexicographic_value_order() {
        let interner = build([Value::text("x"), Value::text("y"), Value::int(7)]);
        let x = interner.id_of(&Value::text("x")).unwrap();
        let y = interner.id_of(&Value::text("y")).unwrap();
        let seven = interner.id_of(&Value::int(7)).unwrap();
        assert_eq!(interner.cmp_id_tuples(&[x, seven], &[x, y]), Ordering::Less);
        assert_eq!(interner.cmp_id_tuples(&[x], &[x, y]), Ordering::Less);
        assert_eq!(interner.cmp_id_tuples(&[y], &[x, y]), Ordering::Greater);
        assert_eq!(
            interner.values_of(&[x, seven]),
            vec![Value::text("x"), Value::int(7)]
        );
    }

    #[test]
    fn rank_comparisons_match_materialised_order() {
        let mut interner = build([Value::int(1), Value::int(3), Value::int(5)]);
        let nine = interner.intern(&Value::int(9)); // overlay id
        for probe in [
            Value::int(0),
            Value::int(1),
            Value::int(2),
            Value::int(4),
            Value::int(9),
        ] {
            let rank = interner.prefix_rank(&probe);
            for id in [0, 1, 2, nine] {
                assert_eq!(
                    interner.cmp_id_to_value(id, &probe, rank),
                    interner.value(id).cmp(&probe),
                    "id {id} vs {probe:?}"
                );
            }
        }
        assert_eq!(interner.prefix_rank(&Value::int(3)), Ok(1));
        assert_eq!(interner.prefix_rank(&Value::int(4)), Err(2));
        assert_eq!(
            interner.prefix_rank(&Value::int(9)),
            Err(3),
            "overlay ids are not prefix ranks"
        );
    }

    /// Small mixed-kind value pool so draws collide across prefix/overlay.
    fn value_from(draw: (u8, i64)) -> Value {
        if draw.0.is_multiple_of(2) {
            Value::int(draw.1)
        } else {
            Value::text(format!("t{}", draw.1.rem_euclid(40)))
        }
    }

    /// A fresh value of the overlay test: odd integers and `o`-texts, so no
    /// draw of the prefix (even integers, `p`-texts) collides with one.
    fn overlay_value(i: usize) -> Value {
        if i.is_multiple_of(3) {
            Value::text(format!("o{i:05}"))
        } else {
            Value::int(2 * i as i64 + 1)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The overlay past one leaf: at least `3 × MAX_LEAF` fresh values,
        /// interned in random order, split both overlay sequences into
        /// several leaves. `id_of`, `value` and `cmp_ids` agree with a `Vec`
        /// of the values by id, and a clone taken midway keeps its ids and
        /// values while the original keeps interning.
        #[test]
        fn the_overlay_past_one_leaf_agrees_with_a_vec(
            prefix_draws in proptest::collection::vec((0u8..2, 0i64..2000), 0..64),
            order_keys in proptest::collection::vec(0u64..1 << 40, 3 * MAX_LEAF..4 * MAX_LEAF),
            midway in 0usize..3 * MAX_LEAF,
        ) {
            let mut interner = build(prefix_draws.iter().map(|&(kind, d)| match kind {
                0 => Value::int(2 * d),
                _ => Value::text(format!("p{d}")),
            }));
            // Ids by value: the prefix, then each fresh value as interned.
            let mut by_id: Vec<Value> = (0..interner.len() as u32)
                .map(|id| interner.value(id).clone())
                .collect();
            let mut order: Vec<usize> = (0..order_keys.len()).collect();
            order.sort_by_key(|&i| order_keys[i]);
            let mut clone = None;
            for (n, &i) in order.iter().enumerate() {
                if n == midway {
                    clone = Some((interner.clone(), by_id.len()));
                }
                let v = overlay_value(i);
                prop_assert_eq!(interner.intern(&v), by_id.len() as u32);
                prop_assert_eq!(interner.intern(&v), by_id.len() as u32, "interned once");
                by_id.push(v);
            }
            prop_assert!(interner.appended.leaf_count() >= 3);
            prop_assert!(interner.appended_by_value.leaf_count() >= 3);
            prop_assert_eq!(interner.len(), by_id.len());
            for (id, v) in by_id.iter().enumerate() {
                prop_assert_eq!(interner.value(id as u32), v);
                prop_assert_eq!(interner.id_of(v), Some(id as u32));
            }
            prop_assert_eq!(interner.id_of(&Value::int(-1)), None);
            prop_assert_eq!(interner.id_of(&Value::text("q")), None);
            // Every id against a spread of others, prefix and overlay alike.
            let probes: Vec<usize> = (0..by_id.len()).step_by(37).collect();
            for (a, va) in by_id.iter().enumerate() {
                for &b in &probes {
                    prop_assert_eq!(
                        interner.cmp_ids(a as u32, b as u32),
                        va.cmp(&by_id[b]),
                        "ids {} / {}", a, b
                    );
                }
            }
            let (clone, len) = clone.expect("midway is inside the order");
            prop_assert_eq!(clone.len(), len);
            for (id, v) in by_id.iter().enumerate() {
                if id < len {
                    prop_assert_eq!(clone.value(id as u32), v);
                    prop_assert_eq!(clone.id_of(v), Some(id as u32));
                } else {
                    prop_assert_eq!(clone.id_of(v), None);
                }
            }
        }
    }

    proptest! {
        /// Overlay ranks order like values: a prefix of even integers and
        /// `m`-texts, and an overlay that interleaves it (odd integers, `n`-
        /// texts), sorts before it (negative integers, which are numbers, and
        /// so below every text) and after it (`z`-texts), interned in drawn
        /// or in reverse value order. `cmp_ids` and `cmp_id_to_value` agree
        /// with plain `Value` comparison on every pair, and on probes that
        /// are not interned.
        #[test]
        fn overlay_ranks_order_like_values(
            prefix_draws in proptest::collection::vec((0u8..2, 0i64..30), 0..16),
            overlay_draws in proptest::collection::vec((0u8..4, 0i64..30), 0..24),
            reverse in proptest::bool::ANY,
        ) {
            let mut interner = build(prefix_draws.iter().map(|&(kind, d)| match kind {
                0 => Value::int(2 * d),
                _ => Value::text(format!("m{d:02}")),
            }));
            let mut overlay: Vec<Value> = overlay_draws
                .iter()
                .map(|&(kind, d)| match kind {
                    0 => Value::int(2 * d + 1),
                    1 => Value::int(-1 - d),
                    2 => Value::text(format!("n{d:02}")),
                    _ => Value::text(format!("z{d:02}")),
                })
                .collect();
            if reverse {
                overlay.sort();
                overlay.dedup();
                overlay.reverse();
            }
            for v in &overlay {
                interner.intern(v);
            }
            let probes = [Value::int(-100), Value::int(3), Value::text("m05"), Value::text("o")];
            let all: Vec<Value> = (0..interner.len() as u32)
                .map(|id| interner.value(id).clone())
                .chain(probes.iter().cloned())
                .collect();
            for a in 0..interner.len() as u32 {
                let va = interner.value(a);
                for b in 0..interner.len() as u32 {
                    prop_assert_eq!(
                        interner.cmp_ids(a, b),
                        va.cmp(interner.value(b)),
                        "ids {} / {}", a, b
                    );
                }
                for v in &all {
                    prop_assert_eq!(
                        interner.cmp_id_to_value(a, v, interner.prefix_rank(v)),
                        va.cmp(v),
                        "id {} against {:?}", a, v
                    );
                }
            }
        }
    }

    proptest! {
        /// The tentpole contract: ids are order-isomorphic to `Value` order —
        /// for any two interned values, `cmp_ids` of their ids equals
        /// `Value::cmp`, across any split between sorted prefix and overlay.
        #[test]
        fn ids_are_order_isomorphic_to_values(
            prefix_draws in proptest::collection::vec((0u8..4, -30i64..30), 0..24),
            overlay_draws in proptest::collection::vec((0u8..4, -30i64..30), 0..24),
        ) {
            let prefix: Vec<Value> = prefix_draws.into_iter().map(value_from).collect();
            let overlay: Vec<Value> = overlay_draws.into_iter().map(value_from).collect();
            let mut interner = build(prefix.clone());
            for v in &overlay {
                interner.intern(v);
            }
            let all: Vec<Value> = prefix.into_iter().chain(overlay).collect();
            for a in &all {
                let ia = interner.id_of(a).expect("interned");
                prop_assert_eq!(interner.value(ia), a);
                for b in &all {
                    let ib = interner.id_of(b).expect("interned");
                    prop_assert_eq!(
                        interner.cmp_ids(ia, ib),
                        a.cmp(b),
                        "ids {} / {} vs values {:?} / {:?}",
                        ia, ib, a, b
                    );
                    prop_assert_eq!(ia == ib, a == b);
                }
            }
        }
    }
}
