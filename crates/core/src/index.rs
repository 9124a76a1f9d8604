//! A block-oriented, **interned columnar** index over a database instance,
//! used by the operational evaluators (embedding enumeration, certainty
//! checks, ∀embedding computation).
//!
//! Building a [`DbIndex`] is the only full scan the engine performs, and it
//! is **one sort**: `O(c log c)` value comparisons over the `c` cells
//! (argument occurrences) of the instance, zero lookups — see
//! [`DbIndex::new`]. Every evaluation entry point
//! ([`crate::engine::RangeCqa::glb`], `lub`, `range`) builds **exactly one**
//! index per call — shared by every executor worker thread — and threads it
//! by reference through candidate-group enumeration, certainty checking, and
//! ∀embedding computation. The process-wide [`DbIndex::build_count`] counter
//! exists so tests can assert that invariant: it is an [`AtomicU64`] (not
//! thread-local) precisely so that an index built on one thread and *no*
//! builds on the executor's worker threads still sum to one observable
//! construction.
//!
//! ## The id-space contract
//!
//! The index does not store [`Value`]s. A cold build sorts the instance's
//! cells by value and numbers the distinct values in that order into a
//! [`ValueInterner`] — the `i`-th smallest value gets id `i`, so cold ids
//! are order-isomorphic to values by construction — and everything
//! downstream is dense `u32` ids:
//!
//! * each [`IndexedBlock`]'s fact list is **columnar** — one id column per
//!   argument position ([`FactColumns`], column-major), so the level walks of
//!   the join and the memoised recursions scan cache-linear integer columns;
//! * a block **lives in its leaf** — it is a 32-byte value in its entry of
//!   the block list and of each deep posting list: a block of at most
//!   [`INLINE_IDS`] ids keeps them in the entry itself, a larger one its
//!   counts there and its ids in one `Arc`-shared allocation. So the level
//!   walk, the delta enumeration and every binary search of the block list
//!   read keys and rows out of one contiguous leaf, however the leaf's
//!   blocks came about — a cold build and a thousand commits lay a small
//!   block out alike;
//! * a block's key is not stored: it is the key prefix of the block's first
//!   row ([`IndexedBlock::key_at`]);
//! * the deep posting lists are sequences of `(id, block)` ordered by raw
//!   `u32`.
//!
//! The contract the interner upholds (see [`rcqa_data::interner`]):
//!
//! * **id equality ⇔ value equality** — every distinct value has exactly one
//!   id, so the hot paths compare and hash raw `u32`s;
//! * **order-preserving prefix** — ids assigned at cold build time are in
//!   ascending [`Value`] order, so within the prefix integer order *is* the
//!   paper's `⪯` order;
//! * **append-only** — [`DbIndex::apply_delta`] only ever *adds* ids (for
//!   values first seen by a commit); an id, once assigned, never changes or
//!   disappears. An appended id's number carries no order information, so
//!   every ordered structure here (block order, row order inside a block,
//!   the contiguous first-key-component span) is maintained in **value
//!   order** via [`ValueInterner::cmp_ids`], never raw id order — warm and
//!   cold indexes therefore agree on all orderings even though their id
//!   *layouts* differ;
//! * **snapshot-shared** — the interner rides inside the index behind an
//!   `Arc`; a path-copying commit extends one clone append-only while every
//!   other snapshot keeps the layout it pinned. The clone copies the
//!   overlay's spines, not its values: the overlay is chunked like the rest
//!   of the index.
//!
//! Values **materialize only at the result boundary**: `GroupRange` rows,
//! SQL output, and the structural assertions below. Everything between the
//! instance scan and those boundaries is integer work — a commit's dirty
//! blocks included: [`DbIndex::apply_events`] reports them as key ids
//! ([`DirtyKeys`]), which the serving layer's dirty log keeps and the delta
//! enumeration reads as they are (append-only ids keep them valid along the
//! snapshot line); only the [`DbIndex::apply_delta`] wrapper materialises
//! them.
//!
//! ## Structural sharing
//!
//! A [`DbIndex`] is a **persistent data structure** with three levels of
//! sharing: each relation's [`RelationIndex`] lives behind an [`Arc`]; inside
//! it the key-sorted block list (and each deep posting list) is a
//! [`ChunkedSeq`] — a two-level spine over `Arc`-shared leaves of
//! [`rcqa_data::chunked::MIN_LEAF`]..=[`rcqa_data::chunked::MAX_LEAF`]
//! blocks; and a block is a value in its leaf, whose larger form shares its
//! ids behind an `Arc`. Cloning an index is one pointer bump per relation,
//! and [`DbIndex::apply_delta`] **path-copies**: per touched relation it
//! copies the spines (one pointer per node of leaves, and the leaf pointers
//! of the node written), and per touched block one leaf of each sequence
//! (two where a leaf splits or merges) — 32-byte entries copied whole, an
//! inline block's ids with them and a spilled one's by a reference count —
//! plus, for a spilled block, its edited ids. Editing an inline block
//! allocates nothing beyond the leaf copy. Nothing in a commit scans the
//! relation: a single-fact
//! commit costs `O(blocks / (MIN_LEAF · MIN_NODE) + MAX_NODE + MAX_LEAF)`
//! (the node bounds are [`ChunkedSeq`]'s).
//! Every other leaf — and every untouched relation — keeps sharing storage
//! with the index the clone came from ([`DbIndex::shared_leaves`] observes
//! this). What is still `O(n)`: the cold build ([`DbIndex::new`]), and a
//! restricted view of `n` surviving blocks ([`DbIndex::restrict`]) where a
//! filter or a deep posting list is rebuilt; both build exact-capacity
//! leaves directly. A view answered by a seek alone slices the block list
//! instead, sharing every leaf inside its span ([`ChunkedSeq::slice`]).

use crate::ids::IdRows;
use rcqa_data::chunked::{self, ChunkedSeq};
use rcqa_data::codec::FactRef;
use rcqa_data::{
    DataError, DatabaseInstance, DeltaEvent, DeltaOp, Fact, NumericDomain, RelName, Schema,
    Signature, Value, ValueInterner, MISSING_ID,
};
use rcqa_query::CmpOp;
use std::cmp::Ordering as CmpOrdering;
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of [`DbIndex`] constructions performed by this process, across all
/// threads (including executor workers).
static BUILD_COUNT: AtomicU64 = AtomicU64::new(0);

/// Most ids a block keeps inline, in its own entry of the block list: what
/// fits beside the form's tag and counts in the 32 bytes a spilled block's
/// entry takes anyway (asserted below).
pub const INLINE_IDS: usize = 6;

/// The facts of one block in struct-of-arrays layout: one id column per
/// argument position, all of equal length, stored column-major. Row `r` of
/// the block is `(col(0)[r], ..., col(arity-1)[r])`, and rows are kept in
/// ascending fact ([`Value`]) order. Immutable once built: maintenance
/// replaces a block's columns with an edited copy.
///
/// A value, not a pointer, in one of two forms fixed by its size alone — so
/// a cold build and any sequence of edits reaching the same rows agree on
/// it:
///
/// * **inline** — at most [`INLINE_IDS`] ids (every block of one or two
///   facts of a width-3 relation, of up to three of a width-2 one) sit in
///   the value itself: reading the block reads the entry of the sequence
///   that holds it, and building or editing one allocates nothing;
/// * **spilled** — a larger block's ids are one `Arc`-shared allocation, its
///   counts beside the pointer: cloning the value bumps a reference count.
#[derive(Clone, Debug)]
pub struct FactColumns(Form);

/// The two forms of [`FactColumns`], chosen by [`FactColumns::from_fn`]
/// alone.
#[derive(Clone, Debug)]
enum Form {
    Inline {
        arity: u8,
        rows: u8,
        /// `ids[pos * rows + row]`; the slots past `arity * rows` are 0.
        ids: [u32; INLINE_IDS],
    },
    Spilled {
        arity: u32,
        rows: u32,
        /// `ids[pos * rows + row]`, exactly `arity * rows` of them.
        ids: Arc<[u32]>,
    },
}

impl FactColumns {
    /// Columns of `rows` rows of width `arity` (at least one of each), the
    /// id at `(row, pos)` read from `id`, visited column by column: inline
    /// when they fit, else one exact-size allocation.
    fn from_fn(arity: usize, rows: usize, mut id: impl FnMut(usize, usize) -> u32) -> FactColumns {
        let len = arity * rows;
        let (mut row, mut pos) = (0, 0);
        let next = move |_| {
            let at = id(row, pos);
            row += 1;
            if row == rows {
                (row, pos) = (0, pos + 1);
            }
            at
        };
        FactColumns(if len <= INLINE_IDS {
            let mut ids = [0; INLINE_IDS];
            for (slot, at) in ids.iter_mut().zip((0..len).map(next)) {
                *slot = at;
            }
            Form::Inline {
                arity: u8::try_from(arity).expect("an inline block is at most INLINE_IDS wide"),
                rows: u8::try_from(rows).expect("an inline block has at most INLINE_IDS rows"),
                ids,
            }
        } else {
            Form::Spilled {
                arity: u32::try_from(arity).expect("arity fits u32"),
                rows: u32::try_from(rows).expect("block row count fits u32"),
                // A mapped range has a trusted length: one allocation.
                ids: (0..len).map(next).collect(),
            }
        })
    }

    /// Transposes `rows` (row-major id tuples of width `arity`, at least
    /// one) into columns.
    fn from_rows(arity: usize, rows: &[u32]) -> FactColumns {
        let n = rows.len() / arity.max(1);
        debug_assert_eq!(n * arity, rows.len());
        FactColumns::from_fn(arity, n, |row, pos| rows[row * arity + pos])
    }

    /// The row count and the column-major ids (an inline block's slots
    /// unused past `arity * rows` included).
    #[inline]
    fn parts(&self) -> (usize, &[u32]) {
        match &self.0 {
            Form::Inline { rows, ids, .. } => (usize::from(*rows), ids),
            Form::Spilled { rows, ids, .. } => (*rows as usize, ids),
        }
    }

    /// Width of a row.
    fn arity(&self) -> usize {
        match &self.0 {
            Form::Inline { arity, .. } => usize::from(*arity),
            Form::Spilled { arity, .. } => *arity as usize,
        }
    }

    /// Number of facts in the block.
    #[inline]
    pub fn rows(&self) -> usize {
        self.parts().0
    }

    /// The id at `(row, pos)`.
    #[inline]
    pub fn id_at(&self, row: usize, pos: usize) -> u32 {
        let (rows, ids) = self.parts();
        debug_assert!(
            row < rows && pos < self.arity(),
            "({row}, {pos}) outside the block"
        );
        ids[pos * rows + row]
    }

    /// One whole argument column.
    pub fn col(&self, pos: usize) -> &[u32] {
        let (rows, ids) = self.parts();
        debug_assert!(pos < self.arity(), "column {pos} outside the block");
        &ids[pos * rows..(pos + 1) * rows]
    }

    /// The ids of one row, in argument order.
    pub fn row_ids(&self, row: usize) -> impl Iterator<Item = u32> + '_ {
        (0..self.arity()).map(move |pos| self.id_at(row, pos))
    }

    /// A copy with the row `ids` inserted at row position `at`.
    fn with_row_inserted(&self, at: usize, ids: &[u32]) -> FactColumns {
        debug_assert_eq!(ids.len(), self.arity());
        FactColumns::from_fn(self.arity(), self.rows() + 1, |row, pos| {
            match row.cmp(&at) {
                CmpOrdering::Less => self.id_at(row, pos),
                CmpOrdering::Equal => ids[pos],
                CmpOrdering::Greater => self.id_at(row - 1, pos),
            }
        })
    }

    /// A copy without the row at position `at`.
    fn with_row_removed(&self, at: usize) -> FactColumns {
        FactColumns::from_fn(self.arity(), self.rows() - 1, |row, pos| {
            self.id_at(row + usize::from(row >= at), pos)
        })
    }

    /// The allocation of a spilled block's ids; `None` for an inline block.
    fn spilled(&self) -> Option<&Arc<[u32]>> {
        match &self.0 {
            Form::Inline { .. } => None,
            Form::Spilled { ids, .. } => Some(ids),
        }
    }

    /// Lexicographic [`Value`] order of row `row` against the id tuple `ids`
    /// (at most as wide as a row). Row order inside a block is fact order,
    /// i.e. exactly this comparison over the full width; over a key-length
    /// prefix of row 0 it is block order.
    fn cmp_row(&self, row: usize, ids: &[u32], interner: &ValueInterner) -> CmpOrdering {
        for (pos, &id) in ids.iter().enumerate() {
            match interner.cmp_ids(self.id_at(row, pos), id) {
                CmpOrdering::Equal => {}
                other => return other,
            }
        }
        CmpOrdering::Equal
    }

    /// Position of the row equal to `ids`, or the insertion position keeping
    /// rows in fact order.
    fn search_row(&self, ids: &[u32], interner: &ValueInterner) -> Result<usize, usize> {
        let mut lo = 0usize;
        let mut hi = self.rows();
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.cmp_row(mid, ids, interner) {
                CmpOrdering::Less => lo = mid + 1,
                CmpOrdering::Greater => hi = mid,
                CmpOrdering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }
}

/// Content equality: the same rows, whichever allocation holds them.
impl PartialEq for FactColumns {
    fn eq(&self, other: &FactColumns) -> bool {
        let ((rows, ids), (other_rows, other_ids)) = (self.parts(), other.parts());
        let len = self.arity() * rows;
        self.arity() == other.arity() && rows == other_rows && ids[..len] == other_ids[..len]
    }
}

impl Eq for FactColumns {}

/// One block: the facts of a relation sharing a primary-key value, as
/// columns (never empty).
///
/// A block lives in its entry of the block list (and of each deep posting
/// list): 32 bytes, which hold a small block's ids outright and a larger
/// one's counts and `Arc`-shared ids ([`FactColumns`]). Cloning it — as part
/// of copying a leaf of its [`RelationIndex`]'s block list for incremental
/// maintenance — copies the entry (bumping a spilled block's reference
/// count) and allocates nothing. The key is not stored beside the columns;
/// it is the key-length prefix of the first row (every row of a block
/// shares it).
#[derive(Clone, Debug)]
pub struct IndexedBlock {
    /// The facts of the block in columnar layout, rows in sorted fact order.
    pub cols: FactColumns,
}

// A block is the entry of its block list, a posting its id beside it.
const _: () = {
    assert!(std::mem::size_of::<IndexedBlock>() == 32);
    assert!(std::mem::size_of::<(u32, IndexedBlock)>() == 40);
};

impl IndexedBlock {
    /// The id at key position `pos` (`< key_len` of the block's relation).
    #[inline]
    pub fn key_at(&self, pos: usize) -> u32 {
        self.cols.id_at(0, pos)
    }

    /// The block's key: the first `key_len` ids of its first row.
    pub fn key(&self, key_len: usize) -> impl Iterator<Item = u32> + '_ {
        self.cols.row_ids(0).take(key_len)
    }

    /// Block order: this block's key against the key id tuple `key`, in
    /// [`Value`] order.
    fn cmp_key(&self, key: &[u32], interner: &ValueInterner) -> CmpOrdering {
        self.cols.cmp_row(0, key, interner)
    }
}

/// Index over one relation.
///
/// The block list is the primary structure: blocks are **sorted by key value
/// order** (cold builds scan facts in sorted order; incremental maintenance
/// keeps them there via [`ValueInterner::cmp_ids`]), so a full-key lookup is
/// a binary search and a bound *first* key component selects a contiguous
/// span of blocks — neither needs an auxiliary map. Only the **deeper** key
/// positions (`1..key_len`), where matching blocks are scattered, keep
/// posting lists. Relations with a single-column key therefore carry no
/// lookup structure beside the block list at all.
///
/// Every sequence here is a [`ChunkedSeq`], so cloning a `RelationIndex` (the
/// write path's per-relation path copy) copies spines, not blocks.
#[derive(Clone, Debug, Default)]
pub struct RelationIndex {
    /// The relation's name — the schema's, shared — for materialising facts
    /// at the result boundary and naming dirty blocks.
    name: RelName,
    /// All blocks of the relation, sorted by key (value order).
    blocks: ChunkedSeq<IndexedBlock>,
    /// Primary-key length of the relation (block keys are fact prefixes of
    /// this length).
    key_len: usize,
    /// Arity of the relation; delta events carrying any other arity cannot
    /// correspond to a stored fact and are rejected outright.
    arity: usize,
    /// Posting lists for key positions `1..key_len` (entry `p - 1` serves
    /// position `p`): every block again, beside its id at position `p`,
    /// ordered by that **raw id** (id equality is value equality, so one
    /// id's blocks are one contiguous run, found by comparing inline `u32`s)
    /// and, within an id, by key value order — the order the block list
    /// yields them in. Position-free: a block entering or leaving the block
    /// list shifts nothing here. Position 0 has none — its matches are a
    /// contiguous span of the block list itself.
    deep: Vec<ChunkedSeq<Posting>>,
    /// Number of facts in the relation, maintained per event.
    facts: usize,
}

/// One posting-list entry: a block and its id at the list's key position.
type Posting = (u32, IndexedBlock);

impl RelationIndex {
    /// An index over `blocks` (sorted by key value order), with posting
    /// lists and the fact count built from them in bulk.
    fn from_blocks(
        name: RelName,
        key_len: usize,
        arity: usize,
        blocks: ChunkedSeq<IndexedBlock>,
    ) -> RelationIndex {
        let facts = blocks.iter().map(|b| b.cols.rows()).sum();
        RelationIndex::with_facts(name, key_len, arity, blocks, facts)
    }

    /// [`RelationIndex::from_blocks`] with the fact count given.
    fn with_facts(
        name: RelName,
        key_len: usize,
        arity: usize,
        blocks: ChunkedSeq<IndexedBlock>,
        facts: usize,
    ) -> RelationIndex {
        let deep = (1..key_len)
            .map(|p| {
                // Stable: within one id, blocks stay in key order.
                let mut posting: Vec<Posting> =
                    blocks.iter().map(|b| (b.key_at(p), b.clone())).collect();
                posting.sort_by_key(|&(id, _)| id);
                ChunkedSeq::from_sorted(posting)
            })
            .collect();
        RelationIndex {
            name,
            facts,
            blocks,
            key_len,
            arity,
            deep,
        }
    }

    /// The blocks at positions `span` as a relation index of their own — a
    /// seek-answered restricted view. Its block list shares every leaf
    /// inside the span with this one and copies the two the span's ends cut
    /// through ([`ChunkedSeq::slice`]); posting lists, where the key has
    /// deep positions, are rebuilt for the span. The fact count is read off
    /// the smaller side of the cut.
    fn span_view(&self, span: Range<usize>) -> RelationIndex {
        let facts_in =
            |r: Range<usize>| -> usize { self.blocks.range(r).map(|b| b.cols.rows()).sum() };
        let total = self.blocks.len();
        let facts = if 2 * span.len() <= total {
            facts_in(span.clone())
        } else {
            self.facts - facts_in(0..span.start) - facts_in(span.end..total)
        };
        let blocks = self.blocks.slice(span);
        RelationIndex::with_facts(self.name.clone(), self.key_len, self.arity, blocks, facts)
    }

    /// The relation this index covers.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All blocks, sorted by key (value order).
    pub fn blocks(&self) -> &ChunkedSeq<IndexedBlock> {
        &self.blocks
    }

    /// Number of facts in the relation.
    pub fn fact_count(&self) -> usize {
        self.facts
    }

    /// Primary-key length of the relation.
    pub fn key_len(&self) -> usize {
        self.key_len
    }

    /// Materialises one row of a block back into a [`Fact`].
    pub fn materialize_fact(
        &self,
        block: &IndexedBlock,
        row: usize,
        interner: &ValueInterner,
    ) -> Fact {
        Fact::with_name(
            self.name.clone(),
            block.cols.row_ids(row).map(|id| interner.value(id).clone()),
        )
    }

    /// Looks up the block with exactly the given key ids: a binary search of
    /// the sorted block list. Patterns containing unassigned ids (e.g.
    /// [`MISSING_ID`]) match nothing.
    pub fn block_by_key_ids(&self, key: &[u32], interner: &ValueInterner) -> Option<&IndexedBlock> {
        self.find_block(key, interner).map(|(_, block)| block)
    }

    /// [`RelationIndex::block_by_key_ids`] with the block's position in the
    /// block list: what names a block of this index, inline or spilled.
    pub(crate) fn find_block(
        &self,
        key: &[u32],
        interner: &ValueInterner,
    ) -> Option<(usize, &IndexedBlock)> {
        if key.iter().any(|&id| !interner.contains_id(id)) {
            return None;
        }
        let pos = self.blocks.search_by(|b| b.cmp_key(key, interner)).ok()?;
        Some((pos, self.blocks.get(pos)?))
    }

    /// The contiguous span of block positions whose key starts with the
    /// (assigned) id `v` — blocks are sorted by key value order, so
    /// first-component matches are adjacent.
    fn first_component_span(&self, v: u32, interner: &ValueInterner) -> Range<usize> {
        let n = self.blocks.len();
        let start = self.blocks.partition_point(0..n, |b| {
            interner.cmp_ids(b.key_at(0), v) == CmpOrdering::Less
        });
        let end = self.blocks.partition_point(start..n, |b| {
            interner.cmp_ids(b.key_at(0), v) != CmpOrdering::Greater
        });
        start..end
    }

    /// Ordered range seek on the first key component: the contiguous span of
    /// block positions whose first key component satisfies `op v`. Blocks
    /// are sorted by key value order, so for every contiguous operator the
    /// matches are adjacent and two binary searches find them — `O(log
    /// blocks)`, and for sorted-prefix ids each probe is a raw `u32`
    /// comparison ([`ValueInterner::cmp_id_to_value`]). The probe value need
    /// not occur in the instance.
    ///
    /// Panics on `<>` (not contiguous — callers linear-filter instead).
    pub fn head_seek_span(&self, op: CmpOp, v: &Value, interner: &ValueInterner) -> Range<usize> {
        self.range_span_at(0..self.blocks.len(), 0, op, v, interner)
    }

    /// Multi-column prefix seek: narrows to the blocks whose leading key ids
    /// equal `prefix`, then range-seeks `op v` on key position
    /// `prefix.len()` inside that span. Valid because block order is
    /// lexicographic: within a fixed key prefix the next component ascends,
    /// so every step is another pair of binary searches.
    pub fn prefix_seek_span(
        &self,
        prefix: &[u32],
        op: CmpOp,
        v: &Value,
        interner: &ValueInterner,
    ) -> Range<usize> {
        let mut span = 0..self.blocks.len();
        for (pos, &id) in prefix.iter().enumerate() {
            let start = self.blocks.partition_point(span.clone(), |b| {
                interner.cmp_ids(b.key_at(pos), id) == CmpOrdering::Less
            });
            let end = self.blocks.partition_point(start..span.end, |b| {
                interner.cmp_ids(b.key_at(pos), id) != CmpOrdering::Greater
            });
            span = start..end;
        }
        self.range_span_at(span, prefix.len(), op, v, interner)
    }

    /// The sub-span of `within` (a span in which key components before `pos`
    /// are constant) whose key component at `pos` satisfies `op v`.
    fn range_span_at(
        &self,
        within: Range<usize>,
        pos: usize,
        op: CmpOp,
        v: &Value,
        interner: &ValueInterner,
    ) -> Range<usize> {
        assert!(op.is_contiguous(), "{op} does not select a contiguous span");
        let rank = interner.prefix_rank(v);
        let lt = self.blocks.partition_point(within.clone(), |b| {
            interner.cmp_id_to_value(b.key_at(pos), v, rank) == CmpOrdering::Less
        });
        let le = self.blocks.partition_point(lt..within.end, |b| {
            interner.cmp_id_to_value(b.key_at(pos), v, rank) != CmpOrdering::Greater
        });
        match op {
            CmpOp::Lt => within.start..lt,
            CmpOp::Le => within.start..le,
            CmpOp::Eq => lt..le,
            CmpOp::Gt => le..within.end,
            CmpOp::Ge => lt..within.end,
            CmpOp::Ne => unreachable!("guarded above"),
        }
    }

    /// The run of the posting list for deep key position `p` holding the
    /// blocks whose id there is `v`.
    fn posting_span(&self, p: usize, v: u32) -> Range<usize> {
        let posting = &self.deep[p - 1];
        let start = posting.partition_point(0..posting.len(), |&(id, _)| id < v);
        let end = posting.partition_point(start..posting.len(), |&(id, _)| id <= v);
        start..end
    }

    /// Where the block with key `key` sits (or would sit) in the posting list
    /// for deep key position `p`.
    fn posting_search(
        &self,
        p: usize,
        key: &[u32],
        interner: &ValueInterner,
    ) -> Result<usize, usize> {
        self.deep[p - 1].search_by(|(id, b)| id.cmp(&key[p]).then_with(|| b.cmp_key(key, interner)))
    }

    /// Swaps in `block` for the block with the same key at position `i` of
    /// the block list, and in every posting list.
    fn replace_block(
        &mut self,
        i: usize,
        block: IndexedBlock,
        key: &[u32],
        interner: &ValueInterner,
    ) {
        for p in 1..self.key_len {
            let at = self
                .posting_search(p, key, interner)
                .expect("every block is posted at every deep position");
            self.deep[p - 1].get_mut(at).expect("found above").1 = block.clone();
        }
        *self.blocks.get_mut(i).expect("position of a found block") = block;
    }

    /// Inserts one fact (given as interned ids): the row lands at its sorted
    /// position in its block, and a new block lands at its sorted position in
    /// the block list and in every posting list. Returns whether the fact was
    /// new.
    fn insert_fact_ids(&mut self, ids: &[u32], interner: &ValueInterner) -> bool {
        let key = &ids[..self.key_len];
        match self.blocks.search_by(|b| b.cmp_key(key, interner)) {
            Ok(i) => {
                // Probe on the shared columns first: a no-op re-insert must
                // not split storage.
                let cols = &self.blocks.get(i).expect("found above").cols;
                let Err(row) = cols.search_row(ids, interner) else {
                    return false;
                };
                let block = IndexedBlock {
                    cols: cols.with_row_inserted(row, ids),
                };
                self.replace_block(i, block, key, interner);
            }
            Err(i) => {
                let block = IndexedBlock {
                    cols: FactColumns::from_rows(self.arity, ids),
                };
                for p in 1..self.key_len {
                    let at = self
                        .posting_search(p, key, interner)
                        .expect_err("a new block is posted nowhere yet");
                    self.deep[p - 1].insert(at, (key[p], block.clone()));
                }
                self.blocks.insert(i, block);
            }
        }
        self.facts += 1;
        true
    }

    /// Removes one fact (and its block, if it becomes empty). Same contract
    /// as [`RelationIndex::insert_fact_ids`]. Returns whether the fact was
    /// present.
    fn remove_fact_ids(&mut self, ids: &[u32], interner: &ValueInterner) -> bool {
        let key = &ids[..self.key_len];
        let Ok(i) = self.blocks.search_by(|b| b.cmp_key(key, interner)) else {
            return false;
        };
        let old = self.blocks.get(i).expect("found above").clone();
        let Ok(row) = old.cols.search_row(ids, interner) else {
            return false;
        };
        if old.cols.rows() > 1 {
            let block = IndexedBlock {
                cols: old.cols.with_row_removed(row),
            };
            self.replace_block(i, block, key, interner);
        } else {
            for p in 1..self.key_len {
                let at = self
                    .posting_search(p, key, interner)
                    .expect("every block is posted at every deep position");
                self.deep[p - 1].remove(at);
            }
            self.blocks.remove(i);
        }
        self.facts -= 1;
        true
    }

    /// Returns an iterator over the blocks compatible with a partially-bound
    /// key id pattern: `pattern[i] = Some(id)` requires the block key to
    /// equal `id` at position `i`, `None` leaves the position unconstrained.
    ///
    /// A pattern entry whose id is unassigned in `interner` (in particular
    /// [`MISSING_ID`], the interned form of a constant that occurs in no
    /// fact) matches nothing. The iterator borrows the index and the pattern
    /// and allocates nothing; candidates are walked in place, leaf slice by
    /// leaf slice — and candidate filtering is raw `u32` equality — instead
    /// of being copied out.
    pub fn blocks_matching<'a, 'p>(
        &'a self,
        pattern: &'p [Option<u32>],
        interner: &ValueInterner,
    ) -> BlocksMatching<'a, 'p> {
        let one = |block| BlocksMatching {
            pattern,
            source: BlockSource::One(block),
        };
        // An unassigned constraint id (MISSING_ID or stale) matches nothing.
        if pattern
            .iter()
            .flatten()
            .any(|&id| !interner.contains_id(id))
        {
            return one(None);
        }
        // Fully bound: direct lookup (a binary search against the pattern
        // itself, nothing copied), no filtering needed.
        if !pattern.is_empty() && pattern.iter().all(Option::is_some) {
            let found = self.blocks.search_by(|b| {
                let key = pattern.iter().flatten().enumerate();
                key.map(|(p, &id)| interner.cmp_ids(b.key_at(p), id))
                    .find(|order| order.is_ne())
                    .unwrap_or(CmpOrdering::Equal)
            });
            return one(found.ok().and_then(|pos| self.blocks.get(pos)));
        }
        // A bound first component restricts candidates to a contiguous span
        // of the key-sorted block list (empty span: no match anywhere).
        let span = match pattern.first().copied().flatten() {
            Some(v) => self.first_component_span(v, interner),
            None => 0..self.blocks.len(),
        };
        // A deeper bound position may be more selective than the span.
        let mut best: Option<(usize, Range<usize>)> = None;
        for (p, v) in pattern.iter().enumerate().skip(1) {
            let (Some(v), true) = (v, p < self.key_len) else {
                continue;
            };
            let run = self.posting_span(p, *v);
            if run.is_empty() {
                return one(None);
            }
            if best.as_ref().is_none_or(|(_, b)| run.len() < b.len()) {
                best = Some((p, run));
            }
        }
        let source = match best {
            Some((p, run)) if run.len() < span.len() => {
                BlockSource::Posted(self.deep[p - 1].range(run))
            }
            _ => BlockSource::Run(self.blocks.range(span)),
        };
        BlocksMatching { pattern, source }
    }
}

/// Where [`BlocksMatching`] draws candidate blocks from.
enum BlockSource<'a> {
    /// A single pre-resolved block (fully-bound pattern), already verified.
    One(Option<&'a IndexedBlock>),
    /// A contiguous run of the key-sorted block list: the whole relation
    /// when no key position is bound, or the first-component span when
    /// (only) position 0 is.
    Run(chunked::Iter<'a, IndexedBlock>),
    /// One id's run of the posting list of the most selective bound deep
    /// key position, in key order.
    Posted(chunked::Iter<'a, Posting>),
}

/// Iterator returned by [`RelationIndex::blocks_matching`].
pub struct BlocksMatching<'a, 'p> {
    pattern: &'p [Option<u32>],
    source: BlockSource<'a>,
}

impl<'a> Iterator for BlocksMatching<'a, '_> {
    type Item = &'a IndexedBlock;

    fn next(&mut self) -> Option<&'a IndexedBlock> {
        // Raw id equality: id equality is value equality by the interner
        // contract.
        let pattern = self.pattern;
        let matches = |candidate: &&IndexedBlock| {
            pattern
                .iter()
                .enumerate()
                .all(|(p, v)| v.is_none_or(|v| candidate.key_at(p) == v))
        };
        match &mut self.source {
            BlockSource::One(slot) => slot.take(),
            BlockSource::Run(run) => run.find(matches),
            BlockSource::Posted(run) => run.map(|(_, block)| block).find(matches),
        }
    }
}

/// One pushed-down block predicate for [`DbIndex::restrict`]: keeps only
/// the blocks of `relation` whose key satisfies `op value` at key position
/// `pos`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockRestriction {
    /// The relation whose block list is restricted.
    pub relation: String,
    /// Key position the predicate constrains (`< key_len`).
    pub pos: usize,
    /// The comparison operator.
    pub op: CmpOp,
    /// The literal the key component is compared against.
    pub value: Value,
}

impl std::fmt::Display for BlockRestriction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "key[{}] {} {}", self.pos, self.op, self.value)
    }
}

/// How [`DbIndex::restrict`] answered one relation's restrictions — the
/// access-path record `explain` prints. Plain data borrowed from the
/// restrictions: nothing is rendered until it is displayed, e.g. as
/// `R: seek key[0] < 500; filter key[1] <> x (3 of 40 blocks)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AccessPath<'a> {
    /// The restricted relation.
    pub relation: &'a str,
    /// Blocks before restriction.
    pub total_blocks: usize,
    /// Blocks surviving all of the relation's restrictions.
    pub matched_blocks: usize,
    /// The restrictions an ordered binary-searched seek answered: a chain
    /// starting at key position 0, in key-position order.
    pub seek: Vec<&'a BlockRestriction>,
    /// The restrictions linear-filtered over the span the seek left.
    pub filter: Vec<&'a BlockRestriction>,
}

impl AccessPath<'_> {
    /// Whether an ordered seek narrowed the block list before the filter ran.
    pub fn used_seek(&self) -> bool {
        !self.seek.is_empty()
    }
}

impl std::fmt::Display for AccessPath<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: ", self.relation)?;
        let mut sep = "";
        for (how, rs) in [("seek", &self.seek), ("filter", &self.filter)] {
            if rs.is_empty() {
                continue;
            }
            write!(f, "{sep}{how} ")?;
            for (i, r) in rs.iter().enumerate() {
                write!(f, "{}{r}", if i == 0 { "" } else { ", " })?;
            }
            sep = "; ";
        }
        write!(
            f,
            " ({} of {} blocks)",
            self.matched_blocks, self.total_blocks
        )
    }
}

/// One stored fact of a [`DbIndex`], read in place ([`DbIndex::rows`]): a
/// row of its block's columns, whose values are looked up in the interner
/// on demand. The codec encodes it like a [`Fact`] ([`FactRef`]), so a
/// checkpoint of the index allocates no fact per row.
#[derive(Clone, Copy, Debug)]
pub struct FactRow<'a> {
    relation: &'a RelationIndex,
    block: &'a IndexedBlock,
    row: usize,
    interner: &'a ValueInterner,
}

impl FactRow<'_> {
    /// The row as a [`Fact`].
    pub fn to_fact(&self) -> Fact {
        self.relation
            .materialize_fact(self.block, self.row, self.interner)
    }
}

impl FactRef for FactRow<'_> {
    fn relation(&self) -> &str {
        &self.relation.name
    }

    fn arity(&self) -> usize {
        self.relation.arity
    }

    fn args(&self) -> impl Iterator<Item = &Value> {
        self.block
            .cols
            .row_ids(self.row)
            .map(|id| self.interner.value(id))
    }
}

/// One block touched by [`DbIndex::apply_delta`], materialised: the
/// relation and the primary-key value of a block that gained or lost facts
/// (including blocks that were created or emptied by the delta). This is
/// the value-level report of the `apply_delta` wrapper only, for callers
/// outside the serving path that want values; the serving layer's dirty log
/// keeps [`DbIndex::apply_events`]' id report ([`DirtyKeys`]) and never
/// builds one.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct DirtyBlock {
    /// The relation the block belongs to.
    pub relation: String,
    /// The block's shared primary-key value.
    pub key: Vec<Value>,
}

/// The blocks of one relation that [`DbIndex::apply_events`] changed, in the
/// index's id space: the relation's shared name and, once per block that
/// gained or lost facts (including blocks created or emptied), its key as a
/// row of `key_len` ids, all rows in one flat allocation and in raw id
/// order. Nothing is materialised: a commit reports its dirty blocks
/// without cloning a value or allocating a name.
///
/// The ids are those of the index the events were applied to, and they
/// name the same values in every index descending from it by further
/// deltas: interned ids are append-only along such a line. A reader holding
/// a later index of the line therefore consumes the rows as they are
/// ([`crate::engine::RangeCqa::affected_keys`]); one holding an index of
/// another line (another shard, a rebuilt index) must not.
/// [`DirtyKeys::blocks`] materialises them.
#[derive(Debug)]
pub struct DirtyKeys {
    pub(crate) relation: RelName,
    pub(crate) keys: IdRows,
}

impl DirtyKeys {
    /// The relation the blocks belong to.
    pub fn relation(&self) -> &str {
        &self.relation
    }

    /// The blocks as [`DirtyBlock`]s, their keys looked up in `interner` —
    /// that of the index the events were applied to, or of one descending
    /// from it.
    pub fn blocks<'a>(
        &'a self,
        interner: &'a ValueInterner,
    ) -> impl Iterator<Item = DirtyBlock> + 'a {
        (0..self.keys.len()).map(move |i| DirtyBlock {
            relation: self.relation.to_string(),
            key: interner.values_of(self.keys.row(i)),
        })
    }
}

/// A block index over all relations of a database instance.
///
/// An index is plain owned data (`Send + Sync`, asserted below): the serving
/// layer freezes one per snapshot inside an `Arc<DbIndex>` and every
/// concurrent reader — and every executor worker thread under it — borrows
/// that one copy. Incremental maintenance ([`DbIndex::apply_delta`]) is only
/// ever performed on a private clone *before* the clone is published inside
/// a new snapshot, so published indexes are immutable. The interior `Arc`s
/// (per relation, per leaf, per spilled block's ids, and the interner's sorted
/// prefix) never change after publication either — path copies happen on the
/// writer's private clone — so borrowing through a published index is
/// data-race-free by construction.
///
/// Per-relation indexes are `Arc`-shared: cloning a `DbIndex` is one pointer
/// bump per relation, and `apply_delta` path-copies only the relations (and,
/// inside them, the leaves and blocks) the delta touches — see the module
/// docs.
/// Every build records the schema and numeric domain of its facts, which
/// clones and [`DbIndex::restrict`] views keep.
#[derive(Clone, Debug, Default)]
pub struct DbIndex {
    /// Keyed by the schema's shared names: cloning the map bumps pointers.
    relations: HashMap<RelName, Arc<RelationIndex>>,
    /// The schema of the indexed facts, shared by every clone.
    schema: Arc<Schema>,
    /// The numeric domain the indexed facts were validated under.
    domain: NumericDomain,
    /// The id space all relations' columns are expressed in. `Arc`-shared
    /// across snapshots; [`DbIndex::apply_delta`] extends a private clone
    /// append-only.
    interner: Arc<ValueInterner>,
    /// Returned for names outside the schema, so lookups are total.
    empty: RelationIndex,
}

/// One argument occurrence of the instance during a cold build: the value,
/// its [`Value::order_prefix`] (compared first, so most comparisons of the
/// sort stay inside the cell vector), and the row-major slot its id goes to.
#[derive(Clone, Copy)]
struct Cell<'a> {
    prefix: u64,
    value: &'a Value,
    slot: u32,
}

impl<'a> Cell<'a> {
    /// What cells are ordered and told apart by: value order, decided by the
    /// prefix wherever the prefix decides.
    fn key(&self) -> (u64, &'a Value) {
        (self.prefix, self.value)
    }
}

/// Cuts the row-major id `rows` of one relation (width `arity`, in fact
/// order) into its blocks: the maximal runs of rows sharing their first
/// `key_len` ids. Facts arrive sorted and cold ids are order-isomorphic to
/// values, so a block's facts are one contiguous run and block and row order
/// come out right by construction. `arity >= 1` — `Signature::new` rejects
/// 0-ary relations — so rows have a width to cut by; `key_len == 0` makes
/// every row agree, i.e. the whole relation one block.
fn key_runs(rows: &[u32], key_len: usize, arity: usize) -> Vec<IndexedBlock> {
    let key = |row: usize| &rows[row * arity..row * arity + key_len];
    let n = rows.len() / arity;
    let mut blocks = Vec::new();
    let mut start = 0;
    for row in 1..=n {
        if row == n || key(row) != key(start) {
            let cols = FactColumns::from_rows(arity, &rows[start * arity..row * arity]);
            blocks.push(IndexedBlock { cols });
            start = row;
        }
    }
    blocks
}

// The sharing contract the serving layer relies on.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<DbIndex>();
};

impl DbIndex {
    /// Builds the index for a database instance by **one sort**: every cell
    /// (argument occurrence) of the instance is collected once, the cells are
    /// sorted by value, and one scan of the sorted cells hands out dense
    /// ascending ids — cloning each distinct value once into the interner's
    /// sorted prefix and scattering every cell's id into its row-major slot.
    /// Each relation's blocks are then cut from its id rows as key runs.
    /// `O(c log c)` comparisons over `c` cells; no tree, no per-cell lookup.
    /// The index takes the instance's schema and numeric domain.
    pub fn new(db: &DatabaseInstance) -> DbIndex {
        DbIndex::of_instance(db, false)
    }

    /// [`DbIndex::new`] over an instance the caller hands over to be
    /// dropped. The interner's texts are then fresh copies, allocated in
    /// value order, instead of clones sharing one occurrence's allocation
    /// each: when the instance drops, its memory is released whole rather
    /// than riddled with one text the index keeps per distinct value. Those
    /// islands scatter whatever is allocated later into the holes between
    /// them: at 10⁵ facts (2 cores) a later cold build took 75 ms over such
    /// a heap against 58 ms over an intact one. A caller that keeps its
    /// instance passes it to [`DbIndex::new`], where sharing saves the
    /// copies.
    pub fn from_owned(db: DatabaseInstance) -> DbIndex {
        DbIndex::of_instance(&db, true)
    }

    fn of_instance(db: &DatabaseInstance, copy_texts: bool) -> DbIndex {
        let schema = Arc::new(db.schema().clone());
        DbIndex::build(
            schema,
            db.numeric_domain(),
            |name| db.facts_of(name),
            copy_texts,
            true,
        )
    }

    /// The same build straight from `facts`, in any order and possibly
    /// repeated: each is validated ([`Schema::validate`]; the first failure
    /// is the error, as [`DatabaseInstance::load`]'s, and nothing is built),
    /// and each relation's rows are sorted and deduplicated in id space once
    /// the one sort has made ids order-isomorphic to values, so no fact is
    /// compared or moved. [`DbIndex::len`] counts the distinct facts.
    /// `copy_texts` as in [`DbIndex::from_owned`]; without it the interner
    /// shares the facts' texts, as [`DbIndex::new`] does.
    pub fn from_facts<'a>(
        schema: Arc<Schema>,
        domain: NumericDomain,
        facts: impl IntoIterator<Item = &'a Fact>,
        copy_texts: bool,
    ) -> Result<DbIndex, DataError> {
        let mut by_relation: HashMap<&str, Vec<&Fact>> = HashMap::new();
        for fact in facts {
            schema.validate(fact, domain)?;
            by_relation.entry(fact.relation()).or_default().push(fact);
        }
        let facts_of = |name: &str| by_relation.get(name).into_iter().flatten().copied();
        Ok(DbIndex::build(schema, domain, facts_of, copy_texts, false))
    }

    /// An index of no facts over `schema` and `domain`.
    pub fn empty(schema: Arc<Schema>, domain: NumericDomain) -> DbIndex {
        DbIndex::build(schema, domain, |_| std::iter::empty(), false, true)
    }

    /// The one-sort build over each relation's facts, conforming to
    /// `schema` under `domain`: sorted and distinct when `presorted`, else
    /// in any order and possibly repeated.
    fn build<'a, I: Iterator<Item = &'a Fact>>(
        schema: Arc<Schema>,
        domain: NumericDomain,
        facts_of: impl Fn(&str) -> I,
        copy_texts: bool,
        presorted: bool,
    ) -> DbIndex {
        BUILD_COUNT.fetch_add(1, Ordering::Relaxed);
        // Slots number the cells in relation, fact, argument order, so the
        // ids of one relation's facts end up row-major in `ids[extent]`.
        let cells_of = |(name, sig): (&RelName, &Signature)| facts_of(name).count() * sig.arity();
        let cell_count: usize = schema.relations().map(cells_of).sum();
        let mut slots = 0..u32::try_from(cell_count).expect("cell count fits u32");
        let mut cells: Vec<Cell> = Vec::with_capacity(cell_count);
        let mut extents: Vec<Range<usize>> = Vec::new();
        for (name, _) in schema.relations() {
            let start = cells.len();
            let values = facts_of(name).flat_map(Fact::args);
            cells.extend(values.zip(&mut slots).map(|(value, slot)| Cell {
                prefix: value.order_prefix(),
                value,
                slot,
            }));
            extents.push(start..cells.len());
        }
        debug_assert_eq!(cells.len(), cell_count);
        cells.sort_unstable_by(|a, b| a.key().cmp(&b.key()));
        // Equal values are adjacent now, so a cell opens a new id exactly
        // when it differs from its predecessor, and ids ascend with the
        // values they name: the order-preserving prefix of the id-space
        // contract. One cell per id is kept at the front of `cells`; the
        // distinct values are thereby counted before any is cloned, and the
        // prefix every snapshot shares is allocated at exact capacity.
        let mut ids: Vec<u32> = vec![0; cell_count];
        let mut distinct = 0usize;
        for i in 0..cells.len() {
            let cell = cells[i];
            if distinct == 0 || cells[distinct - 1].key() != cell.key() {
                cells[distinct] = cell;
                distinct += 1;
            } else if cell.slot > cells[distinct - 1].slot {
                // The cell kept is the value's last occurrence, whichever
                // the unstable sort met first: the prefix then shares each
                // text's allocation with the same fact an ordered set fed
                // in instance order does. Not cosmetic — the write path's
                // binary searches over the prefix chase these pointers, and
                // an arbitrary pick measured +4 % on `write_s_ms`.
                cells[distinct - 1] = cell;
            }
            let slot = usize::try_from(cell.slot).expect("u32 slot fits usize");
            ids[slot] = u32::try_from(distinct - 1).expect("fewer ids than cells");
        }
        let mut sorted: Vec<Value> = Vec::with_capacity(distinct);
        sorted.extend(cells[..distinct].iter().map(|cell| match cell.value {
            Value::Text(text) if copy_texts => Value::text(&**text),
            value => value.clone(),
        }));
        drop(cells);
        let interner = ValueInterner::from_sorted(sorted);
        let relations = schema
            .relations()
            .zip(extents)
            .map(|((name, sig), extent)| {
                let (key_len, arity) = (sig.key_len(), sig.arity());
                let blocks = if presorted {
                    key_runs(&ids[extent], key_len, arity)
                } else {
                    // Cold ids ascend with their values: sorted rows are in
                    // their facts' order, and a repeated fact is a repeated row.
                    let mut rows: Vec<&[u32]> = ids[extent].chunks_exact(arity).collect();
                    rows.sort_unstable();
                    rows.dedup();
                    key_runs(&rows.concat(), key_len, arity)
                };
                let rel = RelationIndex::from_blocks(
                    name.clone(),
                    key_len,
                    arity,
                    ChunkedSeq::from_sorted(blocks),
                );
                (name.clone(), Arc::new(rel))
            })
            .collect();
        DbIndex {
            relations,
            schema,
            domain,
            interner: Arc::new(interner),
            empty: RelationIndex::default(),
        }
    }

    /// The schema of the indexed facts.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The numeric domain of the indexed facts.
    pub fn numeric_domain(&self) -> NumericDomain {
        self.domain
    }

    /// Checks an event as a commit does: an insert's fact must conform to
    /// the index's schema and numeric domain ([`Schema::validate`]); any
    /// delete is valid (one naming no stored fact is a no-op).
    pub fn validate(&self, event: &DeltaEvent) -> Result<(), DataError> {
        match event.op {
            DeltaOp::Insert => self.schema.validate(&event.fact, self.domain),
            DeltaOp::Delete => Ok(()),
        }
    }

    /// The id space of this index. Callers resolve query constants and group
    /// keys through it ([`ValueInterner::id_or_missing`]) and materialise
    /// results back out of it.
    pub fn interner(&self) -> &ValueInterner {
        &self.interner
    }

    /// Applies a sequence of change events in place, without rebuilding (and
    /// without advancing [`DbIndex::build_count`] — incremental maintenance
    /// is precisely *not* a build). After the call the index is structurally
    /// identical to a cold [`DbIndex::new`] over the mutated instance: rows
    /// sit at their sorted positions inside blocks, blocks at their sorted
    /// (value-order) positions inside relations, and the key/posting lookups
    /// match. The id *layouts* may differ — the warm interner appends ids
    /// for first-seen values while a cold build sorts everything — which is
    /// exactly the difference [`DbIndex::assert_structurally_identical`]
    /// quotients out by comparing materialised values.
    ///
    /// Interning is two-pass: first every insert's first-seen values are
    /// interned (append-only, on a private copy of the shared interner, made
    /// only when there is such a value), then events are resolved and
    /// applied per relation. A delete whose values are not all interned
    /// cannot name a stored fact and is a no-op.
    ///
    /// Maintenance **path-copies**: events are grouped per relation, each
    /// touched relation is materialised once (`Arc::make_mut` copies its
    /// spines — untouched relations keep sharing storage with every other
    /// clone of this index), and inside it each event copies the one leaf
    /// its block sits in (per sequence), the block's columns with it or, for
    /// a spilled block, in one allocation of their own, so a batch
    /// costs `O(|spines| + |delta| · (log |blocks| + |leaf|))` — nothing
    /// scans the relation.
    ///
    /// Returns the deduplicated, sorted list of blocks whose contents changed,
    /// materialised: [`DbIndex::apply_events`]' id report turned into
    /// [`DirtyBlock`]s and sorted. Events that change nothing (re-inserting a
    /// present fact, deleting an absent one) and events for relations outside
    /// the indexed schema mark nothing dirty.
    pub fn apply_delta(&mut self, events: &[DeltaEvent]) -> Vec<DirtyBlock> {
        let (_, dirty) = self.apply_events(events);
        let mut blocks: Vec<DirtyBlock> = dirty
            .iter()
            .flat_map(|keys| keys.blocks(&self.interner))
            .collect();
        blocks.sort_unstable();
        blocks
    }

    /// [`DbIndex::apply_delta`] without materialising: returns one
    /// effectiveness flag per event, in order, and the dirty blocks in id
    /// space — one [`DirtyKeys`] per relation with a changed block, in
    /// relation name order. This is the write path of the serving layer,
    /// whose dirty log keeps the report as it is.
    ///
    /// A flag is `true` when the event changed the index (the inserted fact
    /// was new, the deleted fact was present) — exactly the flags
    /// [`DatabaseInstance::apply`] reports for the same events in order on
    /// the indexed instance, for inserts that conform to the schema. A delete
    /// of an absent fact, of a fact with a never-interned value, of the wrong
    /// arity or of a relation outside the schema is `false` and marks nothing
    /// dirty. The index does not validate inserts: its caller checks them
    /// first ([`DbIndex::validate`]).
    pub fn apply_events(&mut self, events: &[DeltaEvent]) -> (Vec<bool>, Vec<DirtyKeys>) {
        // Pass 1, in event order: resolve each applicable event's values to
        // ids once, interning an insert's first-seen values append-only on a
        // private copy (other snapshots keep their pinned layout; deletes,
        // and inserts of known values, leave the interner shared). Events
        // are grouped per relation, in order within each (relations are
        // independent).
        let mut ids: Vec<u32> = Vec::new();
        let mut by_relation: BTreeMap<&str, Vec<(usize, Range<usize>)>> = BTreeMap::new();
        for (at, event) in events.iter().enumerate() {
            let Some(rel) = self.relations.get(event.fact.relation()) else {
                continue;
            };
            if event.fact.arity() != rel.arity {
                // Cannot correspond to any stored fact; instances validate
                // arities on insert, so only malformed events land here. (An
                // exact check, not `< key_len`: a fact that covers the key but
                // not the full arity must not be indexed either.)
                continue;
            }
            let start = ids.len();
            for v in event.fact.args() {
                ids.push(match (self.interner.id_of(v), event.op) {
                    (Some(id), _) => id,
                    (None, DeltaOp::Insert) => Arc::make_mut(&mut self.interner).intern(v),
                    (None, DeltaOp::Delete) => MISSING_ID,
                });
            }
            let span = start..ids.len();
            (by_relation.entry(event.fact.relation()).or_default()).push((at, span));
        }
        let interner = self.interner.clone();
        // Pass 2: apply each relation's events.
        let mut effective = vec![false; events.len()];
        let mut dirty: Vec<DirtyKeys> = Vec::with_capacity(by_relation.len());
        for (name, rel_events) in by_relation {
            // The one per-relation path copy: spines; leaves stay shared
            // until an event lands in them.
            let rel = Arc::make_mut(self.relations.get_mut(name).expect("resolved above"));
            let mut keys = IdRows::new(rel.key_len);
            for (at, span) in rel_events {
                let (event, ids) = (&events[at], &ids[span]);
                if ids.contains(&MISSING_ID) {
                    // Only a delete: the fact cannot be stored, no-op.
                    continue;
                }
                let changed = match event.op {
                    DeltaOp::Insert => rel.insert_fact_ids(ids, &interner),
                    DeltaOp::Delete => rel.remove_fact_ids(ids, &interner),
                };
                if changed {
                    effective[at] = true;
                    keys.push(ids[..rel.key_len].iter().copied());
                }
            }
            if !keys.is_empty() {
                if keys.len() > 1 {
                    // Each block once; raw id order is as good as any.
                    keys = keys.sorted_dedup(|a, b| a.cmp(b));
                }
                dirty.push(DirtyKeys {
                    relation: rel.name.clone(),
                    keys,
                });
            }
        }
        (effective, dirty)
    }

    /// Number of facts indexed, over all relations.
    pub fn len(&self) -> usize {
        self.relations.values().map(|rel| rel.facts).sum()
    }

    /// Whether no relation holds a fact.
    pub fn is_empty(&self) -> bool {
        self.relations.values().all(|rel| rel.facts == 0)
    }

    /// Every indexed fact, read in place: relations in name order, and in
    /// each its facts in sorted order — the order
    /// [`DatabaseInstance::facts`] yields the indexed instance's facts in.
    /// Values are looked up one at a time through the interner, so walking
    /// the rows allocates nothing per fact; [`FactRow::to_fact`]
    /// materialises one.
    pub fn rows(&self) -> impl Iterator<Item = FactRow<'_>> + Clone {
        let mut relations: Vec<&RelationIndex> = self.relations.values().map(Arc::as_ref).collect();
        relations.sort_unstable_by(|a, b| a.name.cmp(&b.name));
        let interner = &*self.interner;
        relations.into_iter().flat_map(move |relation| {
            relation.blocks.iter().flat_map(move |block| {
                (0..block.cols.rows()).map(move |row| FactRow {
                    relation,
                    block,
                    row,
                    interner,
                })
            })
        })
    }

    /// Builds a **restricted view** of this index: for each relation named
    /// by a [`BlockRestriction`], a new [`RelationIndex`] holding only the
    /// blocks whose keys satisfy *all* of that relation's restrictions (with
    /// posting lists built in bulk for the surviving blocks); every other
    /// relation — and the interner — stays `Arc`-shared with `self`. Not a
    /// build: [`DbIndex::build_count`] does not advance.
    ///
    /// Where the seek answers every restriction of a relation, the view's
    /// block list is a slice of the index's: it shares every leaf inside the
    /// seek's span and copies at most the two edge leaves, so its cost is
    /// `O(span / MIN_LEAF + MAX_LEAF)` pointer copies plus the fact count
    /// and, for a key with deep positions, the rebuilt posting lists. Where a
    /// filter remains, the surviving blocks are copied into fresh leaves.
    ///
    /// This is how comparison predicates on key-position variables reach the
    /// evaluator: dropping a block wholesale restricts every repair's choice
    /// for that block away, which is exactly the predicate's effect on
    /// embeddings (the key value is shared by all facts of the block), so
    /// the unchanged join/certainty machinery downstream computes the
    /// predicate-filtered range answers.
    ///
    /// A restriction chain starting at key position 0 (equalities extending
    /// to deeper positions, then at most one inequality) is answered by an
    /// ordered seek — per step the two binary searches of
    /// [`RelationIndex::prefix_seek_span`] — and only what the seek cannot
    /// answer (deeper positions without an equality prefix, `<>`)
    /// linear-filters the span it left. The seek never loses to the filter:
    /// it runs the same test over a sub-span. `force_scan` skips it and
    /// filters every block, the reference the index's own test runs beside
    /// the seek. Returns the view plus one [`AccessPath`] record per
    /// restricted relation (sorted by relation name), which `explain` prints.
    pub fn restrict<'a>(
        &self,
        restrictions: &'a [BlockRestriction],
        force_scan: bool,
    ) -> (DbIndex, Vec<AccessPath<'a>>) {
        let mut grouped: BTreeMap<&str, Vec<&BlockRestriction>> = BTreeMap::new();
        for r in restrictions {
            grouped.entry(r.relation.as_str()).or_default().push(r);
        }
        let mut out = self.clone();
        let mut paths = Vec::new();
        for (name, mut filter) in grouped {
            let Some(shared) = self.relations.get(name) else {
                continue;
            };
            let rel: &RelationIndex = shared;
            debug_assert!(filter.iter().all(|r| r.pos < rel.key_len));
            let total = rel.blocks.len();
            // Greedy seek chain: a contiguous restriction at position 0, then
            // — while every earlier step was an equality — at each next
            // position. A restriction the seek answers leaves the filter.
            let mut span = 0..total;
            let mut seek: Vec<&BlockRestriction> = Vec::new();
            while !force_scan && seek.last().is_none_or(|r| r.op == CmpOp::Eq) {
                let pos = seek.len();
                let Some(i) = filter
                    .iter()
                    .position(|r| r.pos == pos && r.op.is_contiguous())
                else {
                    break;
                };
                let r = filter.remove(i);
                span = rel.range_span_at(span, pos, r.op, &r.value, &self.interner);
                seek.push(r);
            }
            let restricted = if filter.is_empty() {
                rel.span_view(span)
            } else {
                let ranks: Vec<Result<u32, u32>> = filter
                    .iter()
                    .map(|r| self.interner.prefix_rank(&r.value))
                    .collect();
                let blocks = ChunkedSeq::from_sorted(
                    rel.blocks
                        .range(span)
                        .filter(|b| {
                            filter.iter().zip(&ranks).all(|(r, rank)| {
                                let ord =
                                    self.interner
                                        .cmp_id_to_value(b.key_at(r.pos), &r.value, *rank);
                                r.op.holds(ord)
                            })
                        })
                        .cloned(),
                );
                RelationIndex::from_blocks(rel.name.clone(), rel.key_len, rel.arity, blocks)
            };
            paths.push(AccessPath {
                relation: name,
                total_blocks: total,
                matched_blocks: restricted.blocks.len(),
                seek,
                filter,
            });
            out.relations.insert(rel.name.clone(), Arc::new(restricted));
        }
        (out, paths)
    }

    /// The index of a relation. Every relation of the schema is present (even
    /// if it holds no facts); names outside the schema resolve to a shared
    /// empty index, so the lookup is infallible.
    pub fn relation(&self, name: &str) -> &RelationIndex {
        self.relations
            .get(name)
            .map(Arc::as_ref)
            .unwrap_or(&self.empty)
    }

    /// Returns `true` if the named relation's index is physically shared
    /// (same allocation, spines included) between `self` and `other` — i.e.
    /// no delta has touched it since the two diverged. Both lacking the
    /// relation counts as shared. After a delta,
    /// [`DbIndex::shared_leaves`] tells how much is still shared below the
    /// spine.
    pub fn shares_relation_storage(&self, other: &DbIndex, name: &str) -> bool {
        match (self.relations.get(name), other.relations.get(name)) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (None, None) => true,
            _ => false,
        }
    }

    /// How many leaves of the named relation's block list `self` shares (same
    /// allocation) with `other`, and how many it has: `(shared, total)`. A
    /// clone shares all; each single-fact delta since un-shares one leaf
    /// (two on a split or merge); an ineffective delta none. `(0, 0)` for a
    /// relation `self` does not index.
    pub fn shared_leaves(&self, other: &DbIndex, name: &str) -> (usize, usize) {
        match (self.relations.get(name), other.relations.get(name)) {
            (Some(a), Some(b)) => a.blocks.shared_leaves(&b.blocks),
            (Some(a), None) => (0, a.blocks.leaf_count()),
            (None, _) => (0, 0),
        }
    }

    /// Panics unless `self` is **structurally identical** to `other`: same
    /// schema and domain, same relations, same block order, same row order
    /// inside every block, and identical deep posting lists — all compared on **materialised
    /// values**, not raw ids. Id layouts legitimately differ between a warm
    /// index (whose interner appended ids commit by commit, and may still
    /// hold values the instance no longer contains) and a cold rebuild
    /// (all-sorted, minimal); the structural invariant
    /// [`DbIndex::apply_delta`] maintains is about the *value-level* shape,
    /// which this helper checks exactly. Tests (unit, integration, and
    /// property-based) call it to verify warm == cold.
    pub fn assert_structurally_identical(&self, other: &DbIndex) {
        assert_eq!(self.schema, other.schema, "schemas differ");
        assert_eq!(self.domain, other.domain, "numeric domains differ");
        let mut names: Vec<&RelName> = self.relations.keys().collect();
        names.sort();
        let mut other_names: Vec<&RelName> = other.relations.keys().collect();
        other_names.sort();
        assert_eq!(names, other_names, "relation sets differ");
        for name in names {
            let a = &self.relations[name];
            let b = &other.relations[name];
            assert_eq!(a.key_len, b.key_len, "{name}: key_len");
            assert_eq!(a.arity, b.arity, "{name}: arity");
            assert_eq!(a.blocks.len(), b.blocks.len(), "{name}: block count");
            let key_of = |block: &IndexedBlock, rel: &RelationIndex, interner: &ValueInterner| {
                interner.values_of(&block.key(rel.key_len).collect::<Vec<u32>>())
            };
            for (x, y) in a.blocks.iter().zip(b.blocks.iter()) {
                let key = key_of(x, a, &self.interner);
                assert_eq!(key, key_of(y, b, &other.interner), "{name}: block order");
                assert_eq!(
                    x.cols.rows(),
                    y.cols.rows(),
                    "{name}: row count of block {key:?}"
                );
                for row in 0..x.cols.rows() {
                    let vx: Vec<&Value> = x
                        .cols
                        .row_ids(row)
                        .map(|id| self.interner.value(id))
                        .collect();
                    let vy: Vec<&Value> = y
                        .cols
                        .row_ids(row)
                        .map(|id| other.interner.value(id))
                        .collect();
                    assert_eq!(vx, vy, "{name}: row {row} of block {key:?}");
                }
            }
            // Posting lists: per deep position, value → the keys of the
            // blocks posted under it, in posting order. (Raw-id order across
            // values differs between layouts; the grouping and the order
            // within a value must not.) Each posted block must be the block
            // list's current copy, not a stale one.
            let deep = |rel: &RelationIndex,
                        interner: &ValueInterner|
             -> Vec<BTreeMap<Value, Vec<Vec<Value>>>> {
                (1..rel.key_len)
                    .map(|p| {
                        let mut by_value: BTreeMap<Value, Vec<Vec<Value>>> = BTreeMap::new();
                        for (id, posted) in &rel.deep[p - 1] {
                            assert_eq!(*id, posted.key_at(p), "{name}: posting id");
                            let key: Vec<u32> = posted.key(rel.key_len).collect();
                            let listed = rel
                                .block_by_key_ids(&key, interner)
                                .expect("posted block is in the block list");
                            assert_eq!(
                                posted.cols, listed.cols,
                                "{name}: stale posting at key position {p}"
                            );
                            if let (Some(a), Some(b)) =
                                (posted.cols.spilled(), listed.cols.spilled())
                            {
                                assert!(
                                    Arc::ptr_eq(a, b),
                                    "{name}: posting copied a spilled block"
                                );
                            }
                            by_value
                                .entry(interner.value(posted.key_at(p)).clone())
                                .or_default()
                                .push(interner.values_of(&key));
                        }
                        by_value
                    })
                    .collect()
            };
            assert_eq!(
                deep(a, &self.interner),
                deep(b, &other.interner),
                "{name}: deep posting lists"
            );
            assert_eq!(a.facts, b.facts, "{name}: fact count");
        }
    }

    /// Returns `true` if `name` is a relation of the indexed schema.
    pub fn has_relation(&self, name: &str) -> bool {
        self.relations.contains_key(name)
    }

    /// Number of [`DbIndex`] values constructed by this process since it
    /// started, across **all** threads.
    ///
    /// The engine guarantees exactly one construction per `glb`/`lub`/`range`
    /// call (on rewriting-backed paths) — the parallel executor's workers
    /// share the caller's index and build none of their own — and tests
    /// assert this by differencing the counter around a call. The counter is
    /// process-wide (an `AtomicU64`) rather than thread-local so a build on
    /// the calling thread plus zero builds on worker threads remains an
    /// observable "exactly one". Tests that difference it must serialise
    /// against other index-building tests in the same process (see
    /// `tests/build_invariant.rs`).
    pub fn build_count() -> u64 {
        BUILD_COUNT.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcqa_data::{fact, Schema, Signature};
    use std::collections::BTreeSet;

    fn db() -> DatabaseInstance {
        let schema = Schema::new()
            .with_relation("S", Signature::new(3, 2, [2]).unwrap())
            .with_relation("Empty", Signature::new(1, 1, []).unwrap());
        let mut db = DatabaseInstance::new(schema);
        db.insert_all([
            fact!("S", "b1", "c1", 1),
            fact!("S", "b1", "c1", 2),
            fact!("S", "b1", "c2", 3),
            fact!("S", "b2", "c3", 5),
        ])
        .unwrap();
        db
    }

    /// A block's materialised key.
    fn key_values(idx: &DbIndex, block: &IndexedBlock, key_len: usize) -> Vec<Value> {
        idx.interner()
            .values_of(&block.key(key_len).collect::<Vec<u32>>())
    }

    /// Interns a value key through an index's id space (tests only; absent
    /// values become `MISSING_ID`, which matches nothing).
    fn key_ids(idx: &DbIndex, key: &[Value]) -> Vec<u32> {
        key.iter()
            .map(|v| idx.interner().id_or_missing(v))
            .collect()
    }

    #[test]
    fn blocks_and_lookup() {
        let db = db();
        let idx = DbIndex::new(&db);
        let s = idx.relation("S");
        assert_eq!(s.blocks().len(), 3);
        assert_eq!(s.fact_count(), 4);
        let key = key_ids(&idx, &[Value::text("b1"), Value::text("c1")]);
        let b = s.block_by_key_ids(&key, idx.interner()).unwrap();
        assert_eq!(b.cols.rows(), 2);
        // Rows materialise back to the original facts, in sorted order.
        assert_eq!(
            s.materialize_fact(b, 0, idx.interner()),
            fact!("S", "b1", "c1", 1)
        );
        assert_eq!(
            s.materialize_fact(b, 1, idx.interner()),
            fact!("S", "b1", "c1", 2)
        );
        // A key containing an absent value resolves to MISSING_ID and finds
        // nothing.
        let absent = key_ids(&idx, &[Value::text("zz"), Value::text("c1")]);
        assert!(absent.contains(&MISSING_ID));
        assert!(s.block_by_key_ids(&absent, idx.interner()).is_none());
        // Empty relation exists in the index.
        assert_eq!(idx.relation("Empty").blocks().len(), 0);
        // Unknown relations resolve to an empty index instead of a panic or
        // an Option (doc contract: lookups are total).
        assert!(!idx.has_relation("Missing"));
        assert_eq!(idx.relation("Missing").blocks().len(), 0);
        let b1 = idx.interner().id_or_missing(&Value::text("b1"));
        assert_eq!(
            idx.relation("Missing")
                .blocks_matching(&[Some(b1)], idx.interner())
                .count(),
            0
        );
    }

    #[test]
    fn partial_key_lookup() {
        let db = db();
        let idx = DbIndex::new(&db);
        let interner = idx.interner();
        let id = |v: Value| interner.id_or_missing(&v);
        let s = idx.relation("S");
        // All blocks with first key component b1.
        let matched: Vec<_> = s
            .blocks_matching(&[Some(id(Value::text("b1"))), None], interner)
            .collect();
        assert_eq!(matched.len(), 2);
        // Unconstrained pattern returns every block.
        assert_eq!(s.blocks_matching(&[None, None], interner).count(), 3);
        // Second component only.
        let matched: Vec<_> = s
            .blocks_matching(&[None, Some(id(Value::text("c3")))], interner)
            .collect();
        assert_eq!(matched.len(), 1);
        assert_eq!(interner.value(matched[0].key_at(0)), &Value::text("b2"));
        // Value absent from the index: the MISSING_ID constraint matches
        // nothing.
        assert_eq!(
            s.blocks_matching(&[Some(id(Value::text("zzz"))), None], interner)
                .count(),
            0
        );
        // Fully bound pattern.
        assert_eq!(
            s.blocks_matching(
                &[Some(id(Value::text("b1"))), Some(id(Value::text("c2")))],
                interner
            )
            .count(),
            1
        );
    }

    /// The cold build **by its definition** — the construction `DbIndex::new`
    /// had before it sorted: the value universe as an ordered set gives the
    /// sorted prefix, every cell is looked up in it, and blocks are the runs
    /// of facts whose key ids agree. Kept as the oracle `new` is checked
    /// against.
    fn cold_build_by_definition(db: &DatabaseInstance) -> DbIndex {
        let universe: BTreeSet<Value> = db.facts().flat_map(|f| f.args().iter().cloned()).collect();
        let interner = ValueInterner::from_sorted(universe.into_iter().collect());
        let mut relations: HashMap<RelName, Arc<RelationIndex>> = HashMap::new();
        for (name, sig) in db.schema().relations() {
            let (key_len, arity) = (sig.key_len(), sig.arity());
            let mut blocks: Vec<IndexedBlock> = Vec::new();
            let mut run: Vec<u32> = Vec::new();
            let mut flush = |run: &mut Vec<u32>| {
                if !run.is_empty() {
                    blocks.push(IndexedBlock {
                        cols: FactColumns::from_rows(arity, run),
                    });
                    run.clear();
                }
            };
            for fact in db.facts_of(name) {
                let ids: Vec<u32> = fact
                    .args()
                    .iter()
                    .map(|v| interner.id_of(v).expect("every instance value is interned"))
                    .collect();
                if !run.is_empty() && run[..key_len] != ids[..key_len] {
                    flush(&mut run);
                }
                run.extend_from_slice(&ids);
            }
            flush(&mut run);
            let blocks = ChunkedSeq::from_sorted(blocks);
            let rel = RelationIndex::from_blocks(name.clone(), key_len, arity, blocks);
            relations.insert(name.clone(), Arc::new(rel));
        }
        DbIndex {
            relations,
            schema: Arc::new(db.schema().clone()),
            domain: db.numeric_domain(),
            interner: Arc::new(interner),
            empty: RelationIndex::default(),
        }
    }

    /// Panics unless `built` and `oracle` — two cold layouts — are the same
    /// index id for id: same shape on values, same value behind every id.
    fn assert_same_cold_layout(built: &DbIndex, oracle: &DbIndex) {
        built.assert_structurally_identical(oracle);
        assert_eq!(built.interner().len(), oracle.interner().len());
        assert_eq!(built.interner().sorted_len(), built.interner().len());
        for id in 0..u32::try_from(oracle.interner().len()).unwrap() {
            assert_eq!(built.interner().value(id), oracle.interner().value(id));
        }
    }

    /// SplitMix64: a seeded stream of draws, so that a failing case is
    /// rebuilt from the seed its message prints.
    fn draws(seed: u64) -> impl Iterator<Item = u64> {
        let mut state = seed;
        std::iter::from_fn(move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            Some(z ^ (z >> 31))
        })
    }

    /// The next draw, below `n`.
    fn below(draw: &mut impl Iterator<Item = u64>, n: usize) -> usize {
        (draw.next().unwrap() % n as u64) as usize
    }

    /// Prints the seed of a case that panics, whichever check failed.
    struct Seed(u64);

    impl Drop for Seed {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!("failing seed: {}", self.0);
            }
        }
    }

    mod cold_build {
        use super::*;
        use proptest::prelude::*;

        /// A small pool, so one value recurs across positions and
        /// relations, in which [`Value::order_prefix`] ties wherever it can:
        /// numbers with each other and with the empty text, and texts that
        /// agree on more than its eight bytes.
        fn value_from((kind, n): (u8, i64)) -> Value {
            match kind {
                0 => Value::int(n),
                1 => Value::text(format!("t{n}")),
                2 => Value::text(format!("a-long-shared-head-{n}")),
                _ => Value::text(""),
            }
        }

        proptest! {
            /// `DbIndex::new` against the definition it replaced, over every
            /// relation shape the build distinguishes: a two-column key with
            /// a payload (single- and multi-fact blocks, a deep posting
            /// list), a one-column key, an all-key relation, `key_len == 0`
            /// (the whole relation one block), and a relation left empty.
            #[test]
            fn cold_build_matches_its_definition(
                draws in proptest::collection::vec(
                    (0u8..4, (0u8..4, 0i64..2), (0u8..4, 0i64..2), (0u8..4, 0i64..5)),
                    0..60,
                ),
            ) {
                let schema = Schema::new()
                    .with_relation("Deep", Signature::new(3, 2, []).unwrap())
                    .with_relation("Flat", Signature::new(2, 1, []).unwrap())
                    .with_relation("AllKey", Signature::new(2, 2, []).unwrap())
                    .with_relation("NoKey", Signature::new(2, 0, []).unwrap())
                    .with_relation("Empty", Signature::new(1, 1, []).unwrap());
                let mut db = DatabaseInstance::new(schema);
                for (rel, a, b, c) in draws {
                    let (a, b, c) = (value_from(a), value_from(b), value_from(c));
                    let fact = match rel {
                        0 => Fact::new("Deep", [a, b, c]),
                        1 => Fact::new("Flat", [a, b]),
                        2 => Fact::new("AllKey", [a, b]),
                        _ => Fact::new("NoKey", [a, b]),
                    };
                    db.insert(fact).unwrap();
                }
                let built = DbIndex::new(&db);
                assert_same_cold_layout(&built, &cold_build_by_definition(&db));
                prop_assert_eq!(built.interner().len(), db.active_domain().len());
                prop_assert_eq!(built.relation("Empty").blocks().len(), 0);
                let no_key = db.facts_of("NoKey").count();
                prop_assert_eq!(built.relation("NoKey").blocks().len(), no_key.min(1));
                prop_assert_eq!(built.relation("NoKey").fact_count(), no_key);
                prop_assert_eq!(
                    built.relation("AllKey").blocks().len(),
                    db.facts_of("AllKey").count()
                );
            }
        }
    }

    mod direct_build {
        use super::*;
        use proptest::prelude::*;

        /// Numbers at the numeric positions, texts everywhere else, plus one
        /// text-only relation that stays empty.
        fn schema() -> Schema {
            Schema::new()
                .with_relation("R", Signature::new(2, 1, [1]).unwrap())
                .with_relation("S", Signature::new(3, 2, [2]).unwrap())
                .with_relation("T", Signature::new(1, 1, []).unwrap())
                .with_relation("Empty", Signature::new(2, 1, []).unwrap())
        }

        /// A well-typed fact over small pools, so facts recur and blocks
        /// collect rows; numbers are negative only when `negative`.
        fn draw_fact(draw: &mut impl Iterator<Item = u64>, negative: bool) -> Fact {
            let text = |draw: &mut _| Value::text(format!("v{}", below(draw, 4)));
            let num = |draw: &mut _| {
                let n = below(draw, 5) as i64;
                Value::int(if negative { n - 2 } else { n })
            };
            match below(draw, 3) {
                0 => Fact::new("R", [text(draw), num(draw)]),
                1 => Fact::new("S", [text(draw), text(draw), num(draw)]),
                _ => Fact::new("T", [text(draw)]),
            }
        }

        /// A fact that fails validation under `domain`: an unknown
        /// relation, a wrong arity, a text at a numeric position, or — on
        /// `NonNegative` — a negative number.
        fn draw_bad_fact(draw: &mut impl Iterator<Item = u64>, domain: NumericDomain) -> Fact {
            let kinds = if domain == NumericDomain::NonNegative {
                4
            } else {
                3
            };
            match below(draw, kinds) {
                0 => Fact::new("U", [Value::int(1)]),
                1 => Fact::new("T", [Value::int(1), Value::int(2)]),
                2 => Fact::new("R", [Value::text("v0"), Value::text("v1")]),
                _ => Fact::new("S", [Value::text("v0"), Value::text("v1"), Value::int(-1)]),
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// `DbIndex::from_facts` over shuffled facts with duplicates,
            /// under both numeric domains, builds the index `DbIndex::new`
            /// builds over an instance of the same facts, and counts the
            /// distinct facts as `DatabaseInstance::load` does; a fact that
            /// fails validation builds nothing and is the error `load`
            /// returns.
            #[test]
            fn a_direct_build_is_the_build_over_the_loaded_instance(seed in 0u64..u64::MAX) {
                let _seed = Seed(seed);
                let mut draw = draws(seed);
                let domain = match below(&mut draw, 2) {
                    0 => NumericDomain::NonNegative,
                    _ => NumericDomain::Unconstrained,
                };
                let negative = domain == NumericDomain::Unconstrained;
                let mut facts: Vec<Fact> = (0..below(&mut draw, 60))
                    .map(|_| draw_fact(&mut draw, negative))
                    .collect();
                // Duplicates anywhere in the list, as a checkpoint or a batch
                // could hold them.
                for _ in 0..below(&mut draw, 10) {
                    if !facts.is_empty() {
                        let dup = facts[below(&mut draw, facts.len())].clone();
                        facts.insert(below(&mut draw, facts.len() + 1), dup);
                    }
                }
                let bad = below(&mut draw, 4) == 0;
                if bad {
                    let fact = draw_bad_fact(&mut draw, domain);
                    facts.insert(below(&mut draw, facts.len() + 1), fact);
                }
                let empty = || match domain {
                    NumericDomain::NonNegative => DatabaseInstance::new(schema()),
                    NumericDomain::Unconstrained => DatabaseInstance::new_unconstrained(schema()),
                };
                // The reference is grown fact by fact: it shares no code with
                // either bulk path.
                let mut db = empty();
                let inserted = facts
                    .iter()
                    .try_fold(0, |new, fact| Ok(new + usize::from(db.insert(fact.clone())?)));
                prop_assert_eq!(inserted.is_err(), bad);
                let loaded = empty().load(facts.clone());
                prop_assert_eq!(&loaded, &inserted);
                let copy_texts = below(&mut draw, 2) == 0;
                let built = DbIndex::from_facts(Arc::new(schema()), domain, &facts, copy_texts);
                match (loaded, built) {
                    (Ok(loaded), Ok(index)) => {
                        prop_assert_eq!(index.len(), loaded);
                        prop_assert_eq!(index.numeric_domain(), domain);
                        index.assert_structurally_identical(&DbIndex::new(&db));
                    }
                    (Err(loaded), Err(built)) => prop_assert_eq!(built, loaded),
                    (loaded, built) => prop_assert!(
                        false,
                        "load gave {:?}, the direct build {:?}",
                        loaded,
                        built.map(|index| index.len())
                    ),
                }
            }
        }
    }

    mod inline_and_spilled {
        use super::*;
        use proptest::prelude::*;

        /// Every relation shape across the inline/spill boundary: widths 1,
        /// 3, 4 and 7 (a row of 7 never fits inline) under every key length.
        fn shapes() -> Vec<(String, usize, usize)> {
            [1, 3, 4, 7]
                .into_iter()
                .flat_map(|arity| (0..=arity).map(move |key_len| (arity, key_len)))
                .map(|(arity, key_len)| (format!("A{arity}K{key_len}"), arity, key_len))
                .collect()
        }

        /// A fact of a shape: key positions over two values, so blocks
        /// collect rows, the rest over `spread` (the values past the base
        /// instance's are first seen by a commit, appended ids).
        fn draw_fact(
            draw: &mut impl Iterator<Item = u64>,
            key_len: usize,
            arity: usize,
            spread: usize,
        ) -> Vec<i64> {
            (0..arity)
                .map(|pos| below(draw, if pos < key_len { 2 } else { spread }) as i64)
                .collect()
        }

        /// Panics unless every block of every shape holds the model's rows:
        /// the model's facts, in fact order, cut into blocks by key and
        /// turned into ids through the index's interner.
        fn assert_blocks_match(idx: &DbIndex, model: &BTreeMap<String, BTreeSet<Vec<i64>>>) {
            for (name, facts) in model {
                let rel = idx.relation(name);
                let key_len = rel.key_len();
                let mut blocks: Vec<Vec<Vec<u32>>> = Vec::new();
                let mut last: Option<&[i64]> = None;
                for fact in facts {
                    if last != Some(&fact[..key_len]) {
                        blocks.push(Vec::new());
                    }
                    last = Some(&fact[..key_len]);
                    let ids = fact
                        .iter()
                        .map(|&v| idx.interner().id_of(&Value::int(v)).unwrap());
                    blocks.last_mut().unwrap().push(ids.collect());
                }
                assert_eq!(rel.blocks().len(), blocks.len(), "{name}: blocks");
                for (block, rows) in rel.blocks().iter().zip(&blocks) {
                    let cols = &block.cols;
                    let arity = rows[0].len();
                    assert_eq!(cols.rows(), rows.len(), "{name}: rows");
                    assert_eq!(
                        cols.spilled().is_some(),
                        arity * rows.len() > INLINE_IDS,
                        "{name}: form of {rows:?}"
                    );
                    for (row, ids) in rows.iter().enumerate() {
                        let got: Vec<u32> = cols.row_ids(row).collect();
                        assert_eq!(&got, ids, "{name}: row {row}");
                    }
                    for pos in 0..arity {
                        let col: Vec<u32> = rows.iter().map(|row| row[pos]).collect();
                        assert_eq!(cols.col(pos), col, "{name}: column {pos}");
                    }
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// Single-event commits and batches that grow blocks past
            /// `INLINE_IDS` ids and shrink them back: after every commit the
            /// warm index is a cold build's, and every block holds the
            /// model's rows in the form its size fixes.
            #[test]
            fn blocks_cross_the_inline_boundary_both_ways(seed in 0u64..u64::MAX) {
                let _seed = Seed(seed);
                let shapes = shapes();
                let mut schema = Schema::new();
                for (name, arity, key_len) in &shapes {
                    schema.add_relation(name, Signature::new(*arity, *key_len, []).unwrap());
                }
                let mut draw = draws(seed);
                let mut db = DatabaseInstance::new(schema);
                let mut model: BTreeMap<String, BTreeSet<Vec<i64>>> = BTreeMap::new();
                for (name, arity, key_len) in &shapes {
                    model.insert(name.clone(), BTreeSet::new());
                    for _ in 0..below(&mut draw, 6) {
                        let args = draw_fact(&mut draw, *key_len, *arity, 3);
                        db.insert(Fact::new(name, args.iter().map(|&v| Value::int(v))))
                            .unwrap();
                        model.get_mut(name).unwrap().insert(args);
                    }
                }
                let mut idx = DbIndex::new(&db);
                assert_blocks_match(&idx, &model);
                // Commits go to two shapes, so that their blocks grow: inserts
                // dominate the first half, deletes of stored facts the
                // second.
                let active = [0, 1].map(|_| &shapes[below(&mut draw, shapes.len())]);
                let commits = 24;
                for commit in 0..commits {
                    // A single event or a batch of up to 13.
                    let batch = match below(&mut draw, 2) {
                        0 => 1,
                        _ => 2 + below(&mut draw, 12),
                    };
                    let mut events = Vec::new();
                    for _ in 0..batch {
                        let (name, arity, key_len) = active[below(&mut draw, 2)];
                        let stored = &model[name];
                        let inserts = if commit < commits / 2 { 8 } else { 2 };
                        let insert = below(&mut draw, 10) < inserts;
                        let args = if insert || stored.is_empty() {
                            draw_fact(&mut draw, *key_len, *arity, 9)
                        } else {
                            let nth = below(&mut draw, stored.len());
                            stored.iter().nth(nth).unwrap().clone()
                        };
                        let fact = Fact::new(name, args.iter().map(|&v| Value::int(v)));
                        let entry = model.get_mut(name).unwrap();
                        events.push(if insert {
                            entry.insert(args);
                            DeltaEvent::insert(fact)
                        } else {
                            entry.remove(&args);
                            DeltaEvent::delete(fact)
                        });
                    }
                    idx.apply_delta(&events);
                    for event in events {
                        db.apply(event).unwrap();
                    }
                    idx.assert_structurally_identical(&DbIndex::new(&db));
                    assert_blocks_match(&idx, &model);
                }
            }
        }
    }

    mod dirty_report {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;

        proptest! {
            /// The `apply_delta` wrapper's report is `apply_events`' id report
            /// materialised and sorted, and both name exactly the blocks an
            /// instance sees change — per effective event its relation and
            /// key, each block once — over every key width the index has
            /// (two columns, one, none), with values first seen by a batch
            /// appended out of order and deletes naming never-interned ones.
            #[test]
            fn the_wrapper_report_is_the_id_report_materialised(
                base in vec((0u8..3, 0i64..6, 0i64..3, 0i64..4), 0..40),
                batches in vec(vec((0u8..2, 0u8..3, -3i64..9, 0i64..4, 0i64..6), 1..10), 1..5),
            ) {
                let schema = Schema::new()
                    .with_relation("Deep", Signature::new(3, 2, []).unwrap())
                    .with_relation("Flat", Signature::new(2, 1, []).unwrap())
                    .with_relation("NoKey", Signature::new(2, 0, []).unwrap());
                let fact = |rel: u8, a: i64, b: i64, c: i64| match rel {
                    0 => fact!("Deep", a, b, c),
                    1 => fact!("Flat", a, b),
                    _ => fact!("NoKey", a, b),
                };
                let mut db = DatabaseInstance::new(schema.clone());
                for (rel, a, b, c) in base {
                    db.insert(fact(rel, a, b, c)).unwrap();
                }
                let mut idx = DbIndex::new(&db);
                for batch in batches {
                    let events: Vec<DeltaEvent> = batch
                        .into_iter()
                        .map(|(op, rel, a, b, c)| {
                            let f = fact(rel, a, b, c);
                            if op == 0 { DeltaEvent::insert(f) } else { DeltaEvent::delete(f) }
                        })
                        .collect();
                    let mut reference: BTreeSet<DirtyBlock> = BTreeSet::new();
                    for event in &events {
                        if db.apply(event.clone()).unwrap().is_some() {
                            let key_len = schema.signature(event.fact.relation()).unwrap().key_len();
                            reference.insert(DirtyBlock {
                                relation: event.fact.relation().to_string(),
                                key: event.fact.args()[..key_len].to_vec(),
                            });
                        }
                    }
                    let mut by_events = idx.clone();
                    let (_, report) = by_events.apply_events(&events);
                    let blocks = idx.apply_delta(&events);
                    let mut materialised: Vec<DirtyBlock> = report
                        .iter()
                        .flat_map(|keys| keys.blocks(by_events.interner()))
                        .collect();
                    materialised.sort();
                    prop_assert_eq!(&blocks, &materialised);
                    prop_assert_eq!(&blocks, &reference.into_iter().collect::<Vec<_>>());
                    // One entry per relation, in name order, none empty and
                    // no block twice.
                    prop_assert!(report.windows(2).all(|w| w[0].relation() < w[1].relation()));
                    prop_assert!(report.iter().all(|dirty| !dirty.keys.is_empty()));
                    let listed: usize = report.iter().map(|dirty| dirty.keys.len()).sum();
                    prop_assert_eq!(listed, blocks.len());
                    by_events.assert_structurally_identical(&idx);
                    idx.assert_structurally_identical(&DbIndex::new(&db));
                }
            }
        }
    }

    #[test]
    fn the_prefix_shares_each_text_with_its_last_occurrence() {
        // Three allocations of one text, in instance order `A` < `B`: the
        // prefix clones the last, as the ordered set of the definition does.
        let schema = Schema::new()
            .with_relation("A", Signature::new(2, 1, []).unwrap())
            .with_relation("B", Signature::new(1, 1, []).unwrap());
        let mut db = DatabaseInstance::new(schema);
        db.insert_all([fact!("A", "v", "v"), fact!("B", "v"), fact!("A", "u", "w")])
            .unwrap();
        let last = match db.facts_of("B").next().unwrap().arg(0) {
            Value::Text(text) => text.clone(),
            Value::Num(_) => unreachable!("a text was inserted"),
        };
        for index in [DbIndex::new(&db), cold_build_by_definition(&db)] {
            let id = index.interner().id_of(&Value::text("v")).unwrap();
            let Value::Text(shared) = index.interner().value(id) else {
                unreachable!("a text was interned")
            };
            assert!(Arc::ptr_eq(shared, &last));
        }
    }

    #[test]
    fn an_owned_build_copies_every_text_and_builds_the_same_index() {
        let db = db();
        let held: Vec<Arc<str>> = db
            .facts()
            .flat_map(Fact::args)
            .filter_map(|v| match v {
                Value::Text(text) => Some(text.clone()),
                Value::Num(_) => None,
            })
            .collect();
        let shared = DbIndex::new(&db);
        // The clone shares every fact (and text) with `db`.
        let owned = DbIndex::from_owned(db.clone());
        assert_same_cold_layout(&owned, &shared);
        for id in 0..owned.interner().len() {
            let id = u32::try_from(id).unwrap();
            if let Value::Text(text) = owned.interner().value(id) {
                assert!(!held.iter().any(|h| Arc::ptr_eq(h, text)), "{text}");
            }
        }
    }

    #[test]
    fn an_empty_key_keeps_the_relation_in_one_block() {
        // `key_len == 0`: every fact agrees on the (empty) key, cold and
        // warm. The block's head is whatever its first row starts with.
        let schema = Schema::new().with_relation("Log", Signature::new(2, 0, []).unwrap());
        let mut db = DatabaseInstance::new(schema);
        let mut idx = DbIndex::new(&db);
        assert_eq!(idx.relation("Log").blocks().len(), 0);
        let steps = [
            DeltaEvent::insert(fact!("Log", "m", 1)),
            DeltaEvent::insert(fact!("Log", "a", 2)),
            DeltaEvent::insert(fact!("Log", "z", 3)),
            DeltaEvent::delete(fact!("Log", "a", 2)),
            DeltaEvent::delete(fact!("Log", "m", 1)),
            DeltaEvent::delete(fact!("Log", "z", 3)),
        ];
        for (step, event) in steps.into_iter().enumerate() {
            let dirty = idx.apply_delta(std::slice::from_ref(&event));
            db.apply(event).unwrap();
            assert_eq!(dirty.len(), 1);
            assert!(dirty[0].key.is_empty());
            assert_eq!(idx.relation("Log").blocks().len(), usize::from(step < 5));
            assert_eq!(idx.relation("Log").fact_count(), db.len());
            idx.assert_structurally_identical(&DbIndex::new(&db));
        }
    }

    // The build-counter tests live in `tests/build_invariant.rs`: the counter
    // is process-wide, so differencing it is only deterministic in a test
    // binary whose other tests build no indexes concurrently.

    /// Full structural equality with a cold rebuild: block order, row order
    /// inside blocks, key lookup, and posting lists must all match on
    /// materialised values, not just the answers they produce. (Thin wrapper
    /// over the public helper so the call sites below keep their argument
    /// order.)
    fn assert_identical(incremental: &DbIndex, cold: &DbIndex) {
        incremental.assert_structurally_identical(cold);
    }

    #[test]
    fn apply_delta_matches_cold_rebuild() {
        let mut db = db();
        let mut idx = DbIndex::new(&db);
        let steps = [
            // Grow an existing block (sorts before the present facts).
            DeltaEvent::insert(fact!("S", "b1", "c1", 0)),
            // New block between existing ones. ("c15" and the keys below are
            // first-seen values: they land as *appended* interner ids, whose
            // raw order disagrees with value order — the binary searches must
            // still place the blocks correctly.)
            DeltaEvent::insert(fact!("S", "b1", "c15", 7)),
            // New block at the front and at the back.
            DeltaEvent::insert(fact!("S", "a0", "c0", 9)),
            DeltaEvent::insert(fact!("S", "z9", "c9", 9)),
            // First fact of the empty relation.
            DeltaEvent::insert(fact!("Empty", "e1")),
            // Shrink a block without emptying it.
            DeltaEvent::delete(fact!("S", "b1", "c1", 1)),
            // Empty a block entirely.
            DeltaEvent::delete(fact!("S", "b2", "c3", 5)),
            // No-ops: deleting an absent fact (whose values were never
            // interned), re-inserting a present one.
            DeltaEvent::delete(fact!("S", "nope", "c1", 1)),
            DeltaEvent::insert(fact!("S", "b1", "c2", 3)),
        ];
        for event in steps {
            let dirty = idx.apply_delta(std::slice::from_ref(&event));
            let effective = db.apply(event.clone()).unwrap().is_some();
            assert_eq!(
                !dirty.is_empty(),
                effective,
                "dirty iff the instance changed: {event}"
            );
            assert_identical(&idx, &DbIndex::new(&db));
        }
        // A batch reports each dirty block once, sorted, with materialised
        // keys.
        let batch = [
            DeltaEvent::insert(fact!("S", "m1", "c1", 1)),
            DeltaEvent::insert(fact!("S", "m1", "c1", 2)),
            DeltaEvent::insert(fact!("S", "b1", "c2", 30)),
        ];
        let dirty = idx.apply_delta(&batch);
        for e in &batch {
            db.apply(e.clone()).unwrap();
        }
        assert_eq!(
            dirty,
            vec![
                DirtyBlock {
                    relation: "S".to_string(),
                    key: vec![Value::text("b1"), Value::text("c2")],
                },
                DirtyBlock {
                    relation: "S".to_string(),
                    key: vec![Value::text("m1"), Value::text("c1")],
                },
            ]
        );
        assert_identical(&idx, &DbIndex::new(&db));
    }

    #[test]
    fn warm_lookups_cover_appended_ids() {
        // After a commit introduces first-seen values, the warm index must
        // answer pattern lookups for them (overlay ids), for pre-existing
        // values (prefix ids), and for absent values (MISSING_ID).
        let db = db();
        let mut idx = DbIndex::new(&db);
        idx.apply_delta(&[
            DeltaEvent::insert(fact!("S", "b1", "c15", 7)),
            DeltaEvent::insert(fact!("S", "aa", "c3", 8)),
        ]);
        let interner = idx.interner();
        let id = |v: Value| interner.id_or_missing(&v);
        let s = idx.relation("S");
        // Appended first component: contiguous span of one.
        assert_eq!(
            s.blocks_matching(&[Some(id(Value::text("aa"))), None], interner)
                .count(),
            1
        );
        // Appended deep component groups with the pre-existing posting.
        assert_eq!(
            s.blocks_matching(&[None, Some(id(Value::text("c3")))], interner)
                .count(),
            2
        );
        assert_eq!(
            s.blocks_matching(&[None, Some(id(Value::text("c15")))], interner)
                .count(),
            1
        );
        assert_eq!(
            s.blocks_matching(&[Some(id(Value::text("gone"))), None], interner)
                .count(),
            0
        );
    }

    #[test]
    fn apply_delta_path_copies_only_touched_relations() {
        // `S` spans several leaves, every fourth `w` block spilled (three
        // facts of width 3) and the others inline (one fact).
        let mut db = db();
        db.insert_all((0..600).flat_map(|i| {
            let rows = if i % 4 == 0 { 3 } else { 1 };
            (0..rows).map(move |r| fact!("S", "w", format!("c{i:03}"), r))
        }))
        .unwrap();
        let base = DbIndex::new(&db);
        let leaves = base.shared_leaves(&base, "S").1;
        assert!(leaves > 2);
        // A clone shares every relation's storage with its source.
        let derived = base.clone();
        assert!(base.shares_relation_storage(&derived, "S"));
        assert!(base.shares_relation_storage(&derived, "Empty"));
        // Each step with the dirty block's form before and after (spilled
        // or not): an inline block spills, a spilled one grows, one shrinks
        // back inline, an inline one shrinks.
        let steps = [
            (
                DeltaEvent::insert(fact!("S", "b1", "c1", 99)),
                (false, true),
            ),
            (DeltaEvent::insert(fact!("S", "w", "c300", 7)), (true, true)),
            (
                DeltaEvent::delete(fact!("S", "w", "c400", 0)),
                (true, false),
            ),
            (
                DeltaEvent::delete(fact!("S", "b1", "c1", 1)),
                (false, false),
            ),
        ];
        for (event, forms) in steps {
            let mut derived = base.clone();
            // A delta to S materialises S and leaves Empty shared.
            let dirty = derived.apply_delta(std::slice::from_ref(&event));
            assert_eq!(dirty.len(), 1);
            assert!(!base.shares_relation_storage(&derived, "S"));
            assert!(base.shares_relation_storage(&derived, "Empty"));
            // Inside the touched relation, only the dirty block's leaf was
            // copied; every other block is equal, a spilled one the same
            // allocation.
            assert_eq!(
                derived.shared_leaves(&base, "S"),
                (leaves - 1, leaves),
                "{event}"
            );
            let (s_base, s_derived) = (base.relation("S"), derived.relation("S"));
            let dirty_key = key_ids(&base, &dirty[0].key);
            for (x, y) in s_base.blocks().iter().zip(s_derived.blocks().iter()) {
                if x.key(2).eq(dirty_key.iter().copied()) {
                    assert_ne!(x.cols, y.cols, "{event}");
                    let spilled = (x.cols.spilled().is_some(), y.cols.spilled().is_some());
                    assert_eq!(spilled, forms, "{event}");
                    continue;
                }
                assert_eq!(x.cols, y.cols, "{event}");
                if let Some(ids) = x.cols.spilled() {
                    assert!(Arc::ptr_eq(ids, y.cols.spilled().unwrap()), "{event}");
                }
            }
            let mut after = db.clone();
            after.apply(event).unwrap();
            derived.assert_structurally_identical(&DbIndex::new(&after));
        }
        // Ineffective deltas (re-inserting a present fact, deleting an
        // absent one) still count as a touch of the relation (the copy
        // happens before the lookup), but mark nothing dirty and copy no
        // leaf.
        let mut noop = base.clone();
        let dirty = noop.apply_delta(&[
            DeltaEvent::insert(fact!("S", "b1", "c1", 1)),
            DeltaEvent::delete(fact!("S", "zz", "zz", 1)),
        ]);
        assert!(dirty.is_empty());
        assert_eq!(noop.shared_leaves(&base, "S"), (leaves, leaves));
        // The base index is unchanged throughout.
        base.assert_structurally_identical(&DbIndex::new(&db));
    }

    #[test]
    fn a_single_fact_delta_copies_one_leaf_per_sequence() {
        // `R` has a one-column key (block list only), `S` a two-column key
        // (block list + one posting list); both span many leaves.
        let schema = Schema::new()
            .with_relation("R", Signature::new(2, 1, []).unwrap())
            .with_relation("S", Signature::new(3, 2, [2]).unwrap());
        let mut db = DatabaseInstance::new(schema);
        db.insert_all((0..4000).map(|i| fact!("R", 2 * i, i % 9)))
            .unwrap();
        db.insert_all((0..4000).map(|i| fact!("S", i / 40, 2 * (i % 40), i)))
            .unwrap();
        let base = DbIndex::new(&db);
        let leaves = |name: &str| base.shared_leaves(&base, name).1;
        assert!(leaves("R") > 10 && leaves("S") > 10);
        let steps = [
            // A new block, a removed block, a grown block, a shrunk block.
            DeltaEvent::insert(fact!("R", 4001, 0)),
            DeltaEvent::delete(fact!("R", 4000, 2)),
            DeltaEvent::insert(fact!("R", 4000, 7)),
            DeltaEvent::insert(fact!("S", 50, 41, 1)),
            DeltaEvent::delete(fact!("S", 50, 40, 2020)),
            DeltaEvent::insert(fact!("S", 50, 40, 1)),
        ];
        for event in steps {
            let name = event.fact.relation().to_string();
            let mut next = base.clone();
            assert_eq!(next.apply_delta(std::slice::from_ref(&event)).len(), 1);
            assert_eq!(
                next.shared_leaves(&base, &name),
                (leaves(&name) - 1, leaves(&name)),
                "{event}"
            );
            let (rel, base_rel) = (next.relation(&name), base.relation(&name));
            for (posting, base_posting) in rel.deep.iter().zip(&base_rel.deep) {
                let (shared, total) = posting.shared_leaves(base_posting);
                assert_eq!(shared, total - 1, "posting list after {event}");
            }
            let mut after = db.clone();
            after.apply(event).unwrap();
            next.assert_structurally_identical(&DbIndex::new(&after));
        }
        // Ineffective deltas copy spines at most: every leaf stays shared,
        // and so does the interner (nothing new to intern).
        let mut noop = base.clone();
        let dirty = noop.apply_delta(&[
            DeltaEvent::insert(fact!("R", 4000, 2)),
            DeltaEvent::delete(fact!("S", 50, 41, 1)),
        ]);
        assert!(dirty.is_empty());
        for name in ["R", "S"] {
            assert_eq!(
                noop.shared_leaves(&base, name),
                (leaves(name), leaves(name))
            );
        }
        assert!(Arc::ptr_eq(&noop.interner, &base.interner));
    }

    #[test]
    fn the_interner_is_unshared_only_for_first_seen_values() {
        let db = db();
        let base = DbIndex::new(&db);
        // Deletes, and inserts whose values are all interned, share it.
        let mut next = base.clone();
        next.apply_delta(&[
            DeltaEvent::delete(fact!("S", "b1", "c1", 1)),
            DeltaEvent::insert(fact!("S", "b2", "c1", 3)),
        ]);
        assert!(Arc::ptr_eq(&next.interner, &base.interner));
        // A first-seen value gets a private, extended copy.
        next.apply_delta(&[DeltaEvent::insert(fact!("S", "b2", "c1", 77))]);
        assert!(!Arc::ptr_eq(&next.interner, &base.interner));
        assert_eq!(next.interner().len(), base.interner().len() + 1);
        assert!(base.interner().id_of(&Value::int(77)).is_none());
    }

    #[test]
    fn bulk_batches_match_cold_rebuilds() {
        // A batch comparable in size to the instance — the shape that used to
        // trigger the serving layer's drop-the-index fallback — must still
        // leave the index structurally identical to a cold rebuild.
        let mut db = db();
        let mut idx = DbIndex::new(&db);
        let mut batch = Vec::new();
        for i in 0..200 {
            batch.push(DeltaEvent::insert(fact!(
                "S",
                format!("bulk{i:03}"),
                "c",
                i
            )));
            if i % 3 == 0 {
                batch.push(DeltaEvent::insert(fact!(
                    "S",
                    format!("bulk{i:03}"),
                    "c",
                    i + 1000
                )));
            }
        }
        // Interleave deletions of pre-existing facts, including one that
        // empties a block.
        batch.push(DeltaEvent::delete(fact!("S", "b2", "c3", 5)));
        batch.push(DeltaEvent::delete(fact!("S", "b1", "c1", 1)));
        let dirty = idx.apply_delta(&batch);
        for e in &batch {
            db.apply(e.clone()).unwrap();
        }
        assert_eq!(dirty.len(), 202);
        idx.assert_structurally_identical(&DbIndex::new(&db));
    }

    /// Integer-keyed relation for seek/restriction tests: both positions are
    /// key, so every fact is its own block and block keys are (k0, k1).
    fn db_nums() -> DatabaseInstance {
        let schema = Schema::new().with_relation("R", Signature::new(2, 2, [0, 1]).unwrap());
        let mut db = DatabaseInstance::new(schema);
        db.insert_all([
            fact!("R", 1, 1),
            fact!("R", 1, 3),
            fact!("R", 1, 5),
            fact!("R", 2, 2),
            fact!("R", 2, 4),
            fact!("R", 3, 1),
            fact!("R", 5, 9),
        ])
        .unwrap();
        db
    }

    /// Brute-force reference for a span: the block positions whose key at
    /// `pos` satisfies `op v`, which must be contiguous for contiguous ops.
    fn brute_span(idx: &DbIndex, rel: &str, pos: usize, op: CmpOp, v: &Value) -> Vec<usize> {
        idx.relation(rel)
            .blocks()
            .iter()
            .enumerate()
            .filter(|(_, b)| op.holds(idx.interner().value(b.key_at(pos)).cmp(v)))
            .map(|(i, _)| i)
            .collect()
    }

    #[test]
    fn head_seek_span_matches_brute_force() {
        let db = db_nums();
        let mut idx = DbIndex::new(&db);
        // Appended ids (out of raw order) must not confuse the seeks.
        idx.apply_delta(&[
            DeltaEvent::insert(fact!("R", 0, 7)),
            DeltaEvent::insert(fact!("R", 9, 0)),
        ]);
        let ops = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq];
        for op in ops {
            for probe in -1..=10 {
                let v = Value::int(probe);
                let span = idx.relation("R").head_seek_span(op, &v, idx.interner());
                let expect = brute_span(&idx, "R", 0, op, &v);
                assert_eq!(
                    span.collect::<Vec<_>>(),
                    expect,
                    "head span for key[0] {op} {v}"
                );
            }
        }
    }

    #[test]
    fn prefix_seek_span_matches_brute_force() {
        let db = db_nums();
        let idx = DbIndex::new(&db);
        let r = idx.relation("R");
        for head in [1i64, 2, 3, 4] {
            let head_id = idx.interner().id_or_missing(&Value::int(head));
            for op in [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq] {
                for probe in 0..=6 {
                    let v = Value::int(probe);
                    let span = r.prefix_seek_span(&[head_id], op, &v, idx.interner());
                    let expect: Vec<usize> = r
                        .blocks()
                        .iter()
                        .enumerate()
                        .filter(|(_, b)| {
                            b.key_at(0) == head_id
                                && op.holds(idx.interner().value(b.key_at(1)).cmp(&v))
                        })
                        .map(|(i, _)| i)
                        .collect();
                    assert_eq!(
                        span.collect::<Vec<_>>(),
                        expect,
                        "prefix span for key[0] = {head}, key[1] {op} {v}"
                    );
                }
            }
        }
    }

    #[test]
    fn restrict_agrees_with_brute_force_filter() {
        let on = |pos: usize, op: CmpOp, v: i64| BlockRestriction {
            relation: "R".into(),
            pos,
            op,
            value: Value::int(v),
        };
        let cases: Vec<Vec<BlockRestriction>> = vec![
            vec![on(0, CmpOp::Lt, 3)],
            vec![on(0, CmpOp::Gt, 2)],
            // A deeper position without an equality prefix: filter only.
            vec![on(1, CmpOp::Ge, 4)],
            // An equality-prefix chain, then one inequality: all seek.
            vec![on(0, CmpOp::Eq, 1), on(1, CmpOp::Gt, 3)],
            // `<>` is not contiguous, at position 0 or anywhere.
            vec![on(0, CmpOp::Ne, 2)],
            vec![on(0, CmpOp::Ne, 2), on(1, CmpOp::Le, 4)],
            // The seek ends at the first inequality; the rest filters.
            vec![on(0, CmpOp::Le, 2), on(1, CmpOp::Ge, 3)],
            vec![
                on(1, CmpOp::Lt, 5),
                on(0, CmpOp::Ge, 2),
                on(0, CmpOp::Lt, 5),
            ],
            // Every block satisfies it (where the estimate used to pick the
            // filter); no block does.
            vec![on(0, CmpOp::Ge, -7)],
            vec![on(0, CmpOp::Le, 9), on(1, CmpOp::Ge, 0)],
            vec![on(0, CmpOp::Gt, 100)],
            vec![on(0, CmpOp::Eq, 4)],
            vec![on(0, CmpOp::Eq, 2), on(1, CmpOp::Eq, 3)],
        ];
        let cold = DbIndex::new(&db_nums());
        // The same shape with ids appended out of value order: heads 0 and 4
        // and the second components 0, 6 and 7 are first seen by the delta.
        let mut warm = cold.clone();
        warm.apply_delta(&[
            DeltaEvent::insert(fact!("R", 4, 6)),
            DeltaEvent::insert(fact!("R", 0, 7)),
            DeltaEvent::insert(fact!("R", 2, 0)),
            DeltaEvent::delete(fact!("R", 5, 9)),
        ]);
        for idx in [&cold, &warm] {
            let keys = |of: &DbIndex| -> Vec<Vec<Value>> {
                let blocks = of.relation("R").blocks();
                blocks.iter().map(|b| key_values(of, b, 2)).collect()
            };
            let all = keys(idx);
            for restrictions in &cases {
                let expect: Vec<Vec<Value>> = all
                    .iter()
                    .filter(|key| {
                        restrictions
                            .iter()
                            .all(|r| r.op.holds(key[r.pos].cmp(&r.value)))
                    })
                    .cloned()
                    .collect();
                let (view, paths) = idx.restrict(restrictions, false);
                let (filtered, filtered_paths) = idx.restrict(restrictions, true);
                view.assert_structurally_identical(&filtered);
                assert_eq!(keys(&view), expect, "restricted blocks ({restrictions:?})");
                assert_eq!(
                    keys(&filtered),
                    expect,
                    "filtered blocks ({restrictions:?})"
                );
                // The seek is taken exactly when a contiguous chain starts at
                // position 0, and never by the linear-filter reference.
                let chain = restrictions
                    .iter()
                    .any(|r| r.pos == 0 && r.op.is_contiguous());
                assert_eq!(paths[0].used_seek(), chain, "{restrictions:?}");
                assert!(!filtered_paths[0].used_seek(), "force_scan must not seek");
                for path in [&paths[0], &filtered_paths[0]] {
                    assert_eq!(path.matched_blocks, expect.len());
                    assert_eq!(path.total_blocks, all.len());
                    assert_eq!(path.seek.len() + path.filter.len(), restrictions.len());
                }
                assert_eq!(view.relation("R").fact_count(), expect.len());
                // The deep posting list covers exactly the surviving blocks.
                for k1 in 0..=9 {
                    let id = view.interner().id_or_missing(&Value::int(k1));
                    let got: Vec<Vec<Value>> = view
                        .relation("R")
                        .blocks_matching(&[None, Some(id)], view.interner())
                        .map(|b| key_values(&view, b, 2))
                        .collect();
                    let want: Vec<Vec<Value>> = expect
                        .iter()
                        .filter(|key| key[1] == Value::int(k1))
                        .cloned()
                        .collect();
                    assert_eq!(got, want, "posting of key[1] = {k1}");
                }
            }
        }
        // The record renders what was done, in chain order.
        let (_, paths) = cold.restrict(&cases[7], false);
        assert_eq!(
            paths[0].to_string(),
            "R: seek key[0] >= 2; filter key[1] < 5, key[0] < 5 (3 of 7 blocks)"
        );
    }

    #[test]
    fn restrict_shares_untouched_relations_and_interner() {
        let db = db();
        let idx = DbIndex::new(&db);
        let on = |relation: &str, op: CmpOp, value: Value| BlockRestriction {
            relation: relation.into(),
            pos: 0,
            op,
            value,
        };
        let heads = [on("S", CmpOp::Le, Value::text("b1"))];
        let (view, paths) = idx.restrict(&heads, false);
        assert_eq!(paths.len(), 1);
        assert_eq!(view.relation("S").blocks().len(), 2);
        assert!(view.shares_relation_storage(&idx, "Empty"));
        assert!(!view.shares_relation_storage(&idx, "S"));
        assert!(std::ptr::eq(view.interner(), idx.interner()));
        // Restricting an unknown relation is a no-op, not a panic.
        let unknown = [on("Nope", CmpOp::Lt, Value::int(1))];
        let (view2, paths2) = idx.restrict(&unknown, false);
        assert!(paths2.is_empty());
        assert!(view2.shares_relation_storage(&idx, "S"));
    }

    #[test]
    fn a_seek_view_shares_every_leaf_but_its_two_edges() {
        // 10⁴ blocks under a one-column key, cold and after deltas (which
        // leave leaves of uneven sizes behind).
        let schema = Schema::new().with_relation("R", Signature::new(2, 1, []).unwrap());
        let mut db = DatabaseInstance::new(schema);
        db.insert_all((0..10_000).map(|i| fact!("R", i, i % 7)))
            .unwrap();
        let cold = DbIndex::new(&db);
        let mut warm = cold.clone();
        warm.apply_delta(&[
            DeltaEvent::insert(fact!("R", 5_001, 8)),
            DeltaEvent::delete(fact!("R", 7_000, 0)),
            DeltaEvent::insert(fact!("R", 20_000, 1)),
        ]);
        let at_least = |v: i64| {
            [BlockRestriction {
                relation: "R".into(),
                pos: 0,
                op: CmpOp::Ge,
                value: Value::int(v),
            }]
        };
        for base in [&cold, &warm] {
            for from in [5_000, 0, 9_990, 30_000] {
                let restriction = at_least(from);
                let (view, paths) = base.restrict(&restriction, false);
                assert!(paths[0].used_seek());
                let (shared, total) = view.shared_leaves(base, "R");
                assert!(
                    shared + 2 >= total,
                    "x >= {from}: {shared} of {total} leaves shared"
                );
                let (reference, _) = base.restrict(&restriction, true);
                view.assert_structurally_identical(&reference);
                let rel = view.relation("R");
                let facts: usize = rel.blocks().iter().map(|b| b.cols.rows()).sum();
                assert_eq!(rel.fact_count(), facts, "x >= {from}");
            }
        }
        // The middle key's view spans half the relation's many leaves.
        let (view, _) = cold.restrict(&at_least(5_000), false);
        assert_eq!(view.relation("R").blocks().len(), 5_000);
        assert!(view.shared_leaves(&cold, "R").1 > 20);
    }

    #[test]
    fn stats_track_block_list_shape() {
        let mut db = db();
        let mut idx = DbIndex::new(&db);
        let counts = |idx: &DbIndex, name: &str| {
            let rel = idx.relation(name);
            (rel.blocks().len(), rel.fact_count())
        };
        assert_eq!(counts(&idx, "S"), (3, 4));
        assert_eq!(counts(&idx, "Empty"), (0, 0));
        // The fact count follows every effective event and no other.
        let batch = [
            DeltaEvent::insert(fact!("S", "b3", "c1", 1)),
            DeltaEvent::insert(fact!("S", "b1", "c1", 1)),
            DeltaEvent::delete(fact!("S", "b2", "c3", 5)),
            DeltaEvent::delete(fact!("S", "b1", "c1", 2)),
            DeltaEvent::insert(fact!("Empty", "e")),
        ];
        idx.apply_delta(&batch);
        for event in batch {
            db.apply(event).unwrap();
        }
        assert_eq!(counts(&idx, "S"), (3, 3));
        assert_eq!(counts(&idx, "Empty"), (1, 1));
        assert_identical(&idx, &DbIndex::new(&db));
    }

    #[test]
    fn apply_delta_ignores_unknown_relations() {
        let db = db();
        let mut idx = DbIndex::new(&db);
        let before_len = idx.interner().len();
        let dirty = idx.apply_delta(&[
            DeltaEvent::insert(fact!("Missing", "x", "y")),
            // Arity shorter than the key cannot match any stored fact.
            DeltaEvent::delete(fact!("S", "b1")),
            // Neither can a fact that covers the key but not the full arity:
            // indexing it would diverge from a cold rebuild (the instance
            // rejects it) and corrupt downstream numeric-position reads.
            DeltaEvent::insert(fact!("S", "b1", "c1")),
            DeltaEvent::insert(fact!("S", "b1", "c1", 8, 9)),
        ]);
        assert!(dirty.is_empty());
        // None of the inapplicable events interned anything.
        assert_eq!(idx.interner().len(), before_len);
        assert_identical(&idx, &DbIndex::new(&db));
    }
}
