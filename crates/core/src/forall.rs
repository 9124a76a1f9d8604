//! Embeddings, certainty checking, and ∀embeddings (Section 4 of the paper).
//!
//! An *embedding* of a self-join-free conjunction `q(ū)` in a database
//! instance is a valuation of `ū` mapping every atom to a fact. For an
//! acyclic attack graph with topological sort `(F_1, ..., F_n)`, a
//! *ℓ-∀embedding* additionally requires, level by level, that
//! `F_ℓ ∧ ... ∧ F_n` is certain (true in every repair) once the variables of
//! `F_1, ..., F_{ℓ-1}` and `Key(F_ℓ)` are fixed. The set of ∀embeddings is the
//! basis of the GLB computation (Lemma 6.3 and Corollary 6.4).
//!
//! ## Representation
//!
//! Query variables are interned into dense *slots* ([`VarTable`]), and —
//! matching the columnar index — **values are interned into dense `u32` ids**
//! (see [`rcqa_data::interner`]). Everything here runs on ids: a partial
//! valuation is a flat `[u32]` slot vector (with [`UNBOUND_ID`] for unbound
//! slots), atoms are pre-resolved to [`CompiledLevels`] and then to id-level
//! terms against a concrete index's interner, and matching a fact is a few
//! `u32` column reads and slot writes with trail-based backtracking. The join
//! core hands each embedding to a caller-supplied sink as a borrowed slot
//! vector.
//!
//! Certainty is one component of the memoised bound recursion of
//! [`crate::glb`] over a [`Join`]: the rewriting of a constant
//! ([`Component::certainty`]), whose value exists exactly when
//! `F_ℓ ∧ ... ∧ F_n` is certain. Group discovery's existence probe is the
//! extremum of a constant ([`Component::existence`]), the same recursion
//! with no block dropped; here each runs alone, in an evaluator of its own.
//! Every memo (`LevelMemo`) is one id-tuple set per level keyed by the
//! level's **relevant slots**, the variables of `F_ℓ, ..., F_n`
//! (`CompiledLevels::relevant_slots`), and probed through a borrowed
//! projection: what the levels from `ℓ` on compute depends on nothing else of
//! a partial embedding, so every partial embedding — of any group — with the
//! same projection shares one entry. No `Value` is cloned, hashed, or
//! compared, and nothing is allocated per embedding or per memo probe.
//!
//! The ∀embedding condition at level `ℓ` depends on the prefix and the
//! level's key alone, so it is decided per **block** of `F_ℓ`'s relation,
//! never per embedding: the certainty component's value at `ℓ` with the
//! block's key bound.
//!
//! Values materialise only at the boundary: [`embeddings`], [`analyse`] and
//! [`analyse_group`] hand out [`Valuation`]s — the variable-to-value map the
//! symbolic rewritings are evaluated with — to the baselines, the
//! paper-experiment harness and the tests. The plan executor never builds
//! one, and lists embeddings only for the exact fallback.
//!
//! ## Delta enumeration: pinning a level by key
//!
//! The serving layer asks one question of this module after a commit: which
//! groups can the commit's dirty blocks have changed? The join core answers
//! it with an enumeration in which one level is **pinned by key** (`KeyPin`):
//! instead of the blocks its key pattern matches, that level walks the dirty
//! block *keys* of its relation the pattern admits — whether or not a block
//! with that key still exists. Why this finds every affected group:
//!
//! * A group's `[glb, lub]` is a function of its embeddings and of the blocks
//!   they touch: a repair keeps an embedding iff it picks the embedding's
//!   fact in each of those blocks. So a group's row can differ across a
//!   commit only if some embedding of the body that exists **before or
//!   after** the commit draws a fact from a block the commit changed — a
//!   group with no such embedding has the same embeddings over the same
//!   blocks on both sides.
//! * Take such an embedding and the **first** level `ℓ`, in enumeration
//!   order, at which its fact lies in a dirty block. Every block it uses
//!   before `ℓ` is clean, hence identical in the new index — so its prefix
//!   over the levels `< ℓ` is a partial embedding of the **new** index,
//!   whichever side of the commit the embedding itself lives on — and under
//!   that prefix the level-`ℓ` key pattern admits the dirty block's key.
//! * Enumerating, per level `ℓ` whose relation has dirty keys, the prefixes
//!   over the new index and the dirty keys each admits therefore reaches
//!   every such embedding at its first dirty level: births, value changes and
//!   retractions alike, from the new index and the list of dirty keys alone.
//!   Nothing has to be remembered from before the commit.
//!
//! What the enumeration can *report* at that point is what is bound there:
//! the prefix's variables and the key's own positions. When those cover the
//! free variables, the group key is reported at once — a dirty level 0 then
//! costs one instantiation per dirty key. When a free variable is bound only
//! by a non-key position of level `ℓ` or by a deeper level, the enumeration
//! extends the key through the facts of levels `ℓ, ℓ+1, …` — over the new
//! index with the retracted facts put back. The old instance lies inside it,
//! so an old embedding's facts from its first dirty level on, deeper ones
//! included, are there too (DRed's over-delete seeded with the deleted
//! tuples; [`crate::engine::RangeCqa::affected_keys`]).

use crate::glb::{BoundEvaluator, Component};
use crate::ids::{IdRows, IdTupleSet};
use crate::index::{BlocksMatching, DbIndex, FactColumns, IndexedBlock, RelationIndex};
use crate::prepared::{Level, PreparedBody};
use rcqa_data::{DatabaseInstance, Fact, Value, ValueInterner, UNBOUND_ID};
pub use rcqa_logic::Valuation;
use rcqa_query::{Atom, Term, Var};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

/// An interning table mapping the variables of a query body to dense slot
/// indices: the layout of the join core's id slot vectors. Built once per
/// compiled body.
#[derive(Clone, Debug, Default)]
pub struct VarTable {
    vars: Vec<Var>,
    slots: HashMap<Var, usize>,
}

impl VarTable {
    /// An empty table.
    pub fn new() -> VarTable {
        VarTable::default()
    }

    /// Collects every variable occurring in the atoms of `levels`, in
    /// first-occurrence order (deterministic for a fixed level list).
    pub fn from_levels(levels: &[Level]) -> VarTable {
        let mut table = VarTable::new();
        for level in levels {
            for term in level.atom.terms() {
                if let Some(v) = term.as_var() {
                    table.intern(v);
                }
            }
        }
        table
    }

    /// Interns a variable, returning its slot.
    fn intern(&mut self, v: &Var) -> usize {
        if let Some(&s) = self.slots.get(v) {
            return s;
        }
        let s = self.vars.len();
        self.vars.push(v.clone());
        self.slots.insert(v.clone(), s);
        s
    }

    /// The slot of a variable, if interned.
    pub fn slot(&self, v: &Var) -> Option<usize> {
        self.slots.get(v).copied()
    }

    /// The interned variables, in slot order.
    pub fn vars(&self) -> &[Var] {
        &self.vars
    }

    /// Number of interned variables.
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// Returns `true` if no variable is interned.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }
}

/// One position of a compiled atom: a constant to compare or a slot to
/// bind/check. Index-independent (constants are still [`Value`]s); resolved
/// against a concrete index's interner into [`RTerm`]s before joining.
#[derive(Clone, Debug)]
enum SlotTerm {
    Const(Value),
    Slot(usize),
}

/// One level of a topologically-sorted body with its atom pre-resolved to
/// slot indices.
#[derive(Clone, Debug)]
pub struct CompiledLevel {
    relation: String,
    key_len: usize,
    terms: Vec<SlotTerm>,
}

/// A body compiled for the slot-based join core: per-level slot-resolved
/// atoms plus the shared [`VarTable`].
#[derive(Clone, Debug)]
pub struct CompiledLevels {
    levels: Vec<CompiledLevel>,
    table: Arc<VarTable>,
}

impl CompiledLevels {
    /// Compiles a level list, interning its variables.
    pub fn new(levels: &[Level]) -> CompiledLevels {
        let table = Arc::new(VarTable::from_levels(levels));
        let compiled = levels
            .iter()
            .map(|level| {
                let slot = |v: &Var| table.slot(v).expect("level variable interned");
                CompiledLevel {
                    relation: level.atom.relation().to_string(),
                    key_len: level.key_len,
                    terms: level
                        .atom
                        .terms()
                        .iter()
                        .map(|t| match t {
                            Term::Const(c) => SlotTerm::Const(c.clone()),
                            Term::Var(v) => SlotTerm::Slot(slot(v)),
                        })
                        .collect(),
                }
            })
            .collect();
        CompiledLevels {
            levels: compiled,
            table,
        }
    }

    /// The shared variable table.
    pub fn table(&self) -> &Arc<VarTable> {
        &self.table
    }

    /// An unbound id slot vector over this body's variables (the join core's
    /// working representation).
    pub(crate) fn unbound_ids(&self) -> Vec<u32> {
        vec![UNBOUND_ID; self.table.len()]
    }

    /// For a delta enumeration pinned at `level` ([`KeyPin`]): how many
    /// levels must have matched a fact before every slot of `needed` is
    /// bound. `level` itself when the levels before it and the **key**
    /// positions of `level` bind them all — the group key can then be read
    /// off a dirty block key without the block; more when some needed slot is
    /// bound only at a non-key position of `level` or deeper.
    pub(crate) fn bound_by(&self, level: usize, needed: &[usize]) -> usize {
        let slots_of = |terms: &[SlotTerm]| -> Vec<usize> {
            terms
                .iter()
                .filter_map(|t| match t {
                    SlotTerm::Slot(s) => Some(*s),
                    SlotTerm::Const(_) => None,
                })
                .collect()
        };
        let mut bound: Vec<usize> = self.levels[..level]
            .iter()
            .flat_map(|l| slots_of(&l.terms))
            .collect();
        let pinned = &self.levels[level];
        bound.extend(slots_of(&pinned.terms[..pinned.key_len]));
        let mut matched = level;
        while !needed.iter().all(|s| bound.contains(s)) && matched < self.levels.len() {
            bound.extend(slots_of(&self.levels[matched].terms));
            matched += 1;
        }
        matched
    }

    /// For each level `ℓ` (and, last, an empty entry for "every level
    /// matched"), the sorted slots of the variables of `F_ℓ, ..., F_n`: what
    /// the levels from `ℓ` on read of a slot vector, and so the key a
    /// sub-problem rooted at `ℓ` is memoised under.
    pub(crate) fn relevant_slots(&self) -> Vec<Vec<usize>> {
        let n = self.levels.len();
        let mut relevant: Vec<Vec<usize>> = vec![Vec::new(); n + 1];
        for l in (0..n).rev() {
            let mut slots = relevant[l + 1].clone();
            for term in &self.levels[l].terms {
                if let SlotTerm::Slot(s) = term {
                    if !slots.contains(s) {
                        slots.push(*s);
                    }
                }
            }
            slots.sort_unstable();
            relevant[l] = slots;
        }
        relevant
    }

    /// Number of levels.
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// Returns `true` if there are no levels.
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }
}

/// One position of a compiled atom resolved against a concrete index's id
/// space: constants become interned ids (or [`rcqa_data::MISSING_ID`] when
/// the constant occurs in no fact — a constraint that matches nothing).
#[derive(Clone, Copy, Debug)]
enum RTerm {
    Const(u32),
    Slot(usize),
}

/// Resolves one level's terms against an interner.
fn resolve_level(level: &CompiledLevel, interner: &ValueInterner) -> Vec<RTerm> {
    level
        .terms
        .iter()
        .map(|t| match t {
            SlotTerm::Const(c) => RTerm::Const(interner.id_or_missing(c)),
            SlotTerm::Slot(s) => RTerm::Slot(*s),
        })
        .collect()
}

/// Resolves every level of a compiled body against an interner. Done once
/// per (body, index) pair, by [`Join::new`], so the join core never touches
/// a [`Value`].
fn resolve_terms(compiled: &CompiledLevels, interner: &ValueInterner) -> Vec<Vec<RTerm>> {
    compiled
        .levels
        .iter()
        .map(|lvl| resolve_level(lvl, interner))
        .collect()
}

/// Converts a boundary valuation into the join core's id slot vector over
/// `table`: variables it leaves unbound become [`UNBOUND_ID`], values absent
/// from the interner become [`rcqa_data::MISSING_ID`] (they can match no
/// fact, which is exactly what an absent value must do), and variables the
/// table does not name are dropped.
fn valuation_to_ids(table: &VarTable, valuation: &Valuation, interner: &ValueInterner) -> Vec<u32> {
    table
        .vars()
        .iter()
        .map(|v| {
            valuation
                .get(v)
                .map_or(UNBOUND_ID, |val| interner.id_or_missing(val))
        })
        .collect()
}

/// Materialises an id slot vector over `table` back into a [`Valuation`] —
/// the result boundary. Every bound id names an interned value here: join
/// outputs only ever bind slots to fact ids.
fn ids_to_valuation(table: &VarTable, ids: &[u32], interner: &ValueInterner) -> Valuation {
    table
        .vars()
        .iter()
        .zip(ids)
        .filter(|&(_, &id)| id != UNBOUND_ID)
        .map(|(v, &id)| (v.clone(), interner.value(id).clone()))
        .collect()
}

/// Binds one resolved term to the id `actual`: a constant or a bound slot
/// must equal it, an unbound slot takes it and is recorded on `trail`. Pure
/// integer work: id equality is value equality, and the sentinels
/// ([`UNBOUND_ID`], [`rcqa_data::MISSING_ID`]) never equal a fact id, so an
/// unresolved constant or stale bound value simply never matches.
#[inline]
fn bind_term(term: RTerm, actual: u32, slots: &mut [u32], trail: &mut Vec<usize>) -> bool {
    match term {
        RTerm::Const(c) => c == actual,
        RTerm::Slot(s) => {
            if slots[s] == UNBOUND_ID {
                slots[s] = actual;
                trail.push(s);
                true
            } else {
                slots[s] == actual
            }
        }
    }
}

/// Tries to match row `row` of a block's columns against the resolved
/// `terms` by mutating the id slot vector in place; newly bound slots are
/// recorded on `trail` (even on failure, so the caller can undo a partial
/// match).
#[inline]
fn match_level_ids(
    terms: &[RTerm],
    cols: &FactColumns,
    row: usize,
    slots: &mut [u32],
    trail: &mut Vec<usize>,
) -> bool {
    terms
        .iter()
        .enumerate()
        .all(|(p, &term)| bind_term(term, cols.id_at(row, p), slots, trail))
}

/// [`match_level_ids`] for the key positions alone (`terms` is the atom's key
/// prefix), against a block key that need not name a stored block.
#[inline]
fn bind_key_ids(terms: &[RTerm], key: &[u32], slots: &mut [u32], trail: &mut Vec<usize>) -> bool {
    terms
        .iter()
        .zip(key)
        .all(|(&term, &actual)| bind_term(term, actual, slots, trail))
}

/// Undoes the slot writes recorded after `mark` and truncates the trail.
#[inline]
pub(crate) fn unwind(slots: &mut [u32], trail: &mut Vec<usize>, mark: usize) {
    for &s in &trail[mark..] {
        slots[s] = UNBOUND_ID;
    }
    trail.truncate(mark);
}

/// The id a resolved term is fixed to under the current slots: its constant,
/// or its slot's binding if it has one. A `Some(MISSING_ID)` is deliberate —
/// a constraint that matches nothing.
#[inline]
fn bound_id(term: RTerm, slots: &[u32]) -> Option<u32> {
    match term {
        RTerm::Const(c) => Some(c),
        RTerm::Slot(s) => (slots[s] != UNBOUND_ID).then_some(slots[s]),
    }
}

/// The key id pattern of a resolved atom under the current slots: one entry
/// per key position, `Some(id)` when the position is a constant or a bound
/// slot (`blocks_matching` treats an unassigned id as matching nothing).
fn key_pattern_ids(terms: &[RTerm], key_len: usize, slots: &[u32]) -> Vec<Option<u32>> {
    terms[..key_len]
        .iter()
        .map(|&term| bound_id(term, slots))
        .collect()
}

/// Tries to match `fact` against `atom` under `valuation`; on success returns
/// the valuation extended with the newly bound variables.
///
/// This is the by-name, [`Value`]-level convenience entry point (used by the
/// baselines); the join core uses the interned [`CompiledLevels`] machinery
/// instead.
pub fn match_fact(atom: &Atom, fact: &Fact, valuation: &Valuation) -> Option<Valuation> {
    let mut extended = valuation.clone();
    for (p, term) in atom.terms().iter().enumerate() {
        let actual = fact.arg(p);
        match term {
            Term::Const(c) => {
                if c != actual {
                    return None;
                }
            }
            Term::Var(v) => match extended.get(v) {
                Some(bound) => {
                    if bound != actual {
                        return None;
                    }
                }
                None => {
                    extended.insert(v.clone(), actual.clone());
                }
            },
        }
    }
    Some(extended)
}

/// Answers to the sub-problems of a compiled body, per level, keyed by the
/// projection of the slot vector onto that level's key slots (for the bound
/// recursion, the level's relevant slots), `width` answers per entry (the
/// bound recursion's components; none for a visited set).
///
/// Keys are raw ids probed through the borrowed scratch projection `key`, so
/// a probe costs a small integer hash and allocates nothing. Two distinct
/// *absent* values both project to `MISSING_ID` and therefore share memo
/// entries — which is sound: `match_level_ids` only ever compares a slot
/// against fact ids (never slot against slot), and no fact id equals
/// `MISSING_ID`, so every absent value induces the same (all-matches-fail)
/// sub-problem.
pub(crate) struct LevelMemo<T> {
    slots: Vec<Vec<usize>>,
    key: Vec<u32>,
    width: usize,
    levels: Vec<(IdTupleSet, Vec<T>)>,
}

impl<T: Copy> LevelMemo<T> {
    /// An empty memo whose level `ℓ` is keyed by `slots[ℓ]`, holding `width`
    /// answers per entry.
    pub(crate) fn new(slots: Vec<Vec<usize>>, width: usize) -> LevelMemo<T> {
        let levels = slots
            .iter()
            .map(|slots| (IdTupleSet::new(slots.len()), Vec::new()))
            .collect();
        LevelMemo {
            slots,
            key: Vec::new(),
            width,
            levels,
        }
    }

    /// The answers memoised at `level` for the projection of `slots`, or — on
    /// a miss — the entry now reserved for them (holding `pending` until
    /// [`LevelMemo::settle`]). Deciding a sub-problem only ever consults
    /// deeper levels, whose tables are separate, so a reserved entry is never
    /// read before it is settled.
    #[inline]
    pub(crate) fn probe(&mut self, level: usize, slots: &[u32], pending: T) -> Result<&[T], usize> {
        self.key.clear();
        self.key.extend(self.slots[level].iter().map(|&s| slots[s]));
        let (seen, answers) = &mut self.levels[level];
        let (entry, new) = seen.insert(&self.key);
        if !new {
            return Ok(&answers[entry * self.width..(entry + 1) * self.width]);
        }
        answers.resize(answers.len() + self.width, pending);
        Err(entry)
    }

    /// Records the answers of the entry [`LevelMemo::probe`] reserved.
    #[inline]
    pub(crate) fn settle(&mut self, level: usize, entry: usize, answers: &[T]) {
        let width = self.width;
        self.levels[level].1[entry * width..(entry + 1) * width].copy_from_slice(answers);
    }
}

/// One reusable key-pattern buffer per level for a recursive walk, which
/// holds at most one pattern per level at a time: taken on entry to a level,
/// given back on leaving it, so the walk allocates its patterns once.
#[derive(Default)]
pub(crate) struct Patterns(Vec<Vec<Option<u32>>>);

impl Patterns {
    /// `level`'s buffer, holding the key id pattern of its atom under
    /// `slots` (for [`Join::blocks`]).
    pub(crate) fn take(
        &mut self,
        join: &Join<'_>,
        level: usize,
        slots: &[u32],
    ) -> Vec<Option<u32>> {
        if self.0.len() <= level {
            self.0.resize_with(level + 1, Vec::new);
        }
        let mut pattern = std::mem::take(&mut self.0[level]);
        let key_len = join.compiled.levels[level].key_len;
        pattern.clear();
        pattern.extend(
            join.resolved[level][..key_len]
                .iter()
                .map(|&term| bound_id(term, slots)),
        );
        pattern
    }

    /// Gives back the buffer [`Patterns::take`] handed out for `level`.
    pub(crate) fn give(&mut self, level: usize, pattern: Vec<Option<u32>>) {
        self.0[level] = pattern;
    }
}

/// Enumerates all embeddings of the body (atoms in topological order) in the
/// indexed database, starting from an initial valuation.
pub fn embeddings(levels: &[Level], index: &DbIndex, initial: &Valuation) -> Vec<Valuation> {
    let compiled = CompiledLevels::new(levels);
    let interner = index.interner();
    let initial_ids = valuation_to_ids(&compiled.table, initial, interner);
    let mut out = Vec::new();
    Join::new(&compiled, index).for_each(&initial_ids, |theta| {
        out.push(ids_to_valuation(&compiled.table, theta, interner))
    });
    out
}

/// One level of a delta enumeration pinned **by key**: the dirty block keys of
/// the level's relation, whether or not their blocks still exist. The module
/// docs ("Delta enumeration") state what enumerating through it finds, and
/// why.
pub(crate) struct KeyPin<'a> {
    /// The pinned level `ℓ`.
    pub(crate) level: usize,
    /// The dirty keys of the level's relation: one row of `key_len` ids each,
    /// in key value order, without duplicates.
    pub(crate) keys: &'a IdRows,
    /// How many levels a reported slot vector has matched facts of: `level`
    /// reports at the dirty key itself (the levels before it plus the key's
    /// positions are bound), a larger value extends through the facts of
    /// levels `level..stop` the enumerated index holds first.
    pub(crate) stop: usize,
}

/// A compiled body resolved against one index's id space, ready to enumerate
/// embeddings any number of times: the terms are resolved once, here, and
/// every enumeration below only reads them. The compiled body is borrowed —
/// a prepared query compiles its levels once ([`PreparedBody::compiled_levels`],
/// [`crate::prepared::PreparedAggQuery::compiled_open_levels`]) and every
/// join over them shares that copy. The memoised recursions of
/// [`crate::glb`] borrow one.
pub struct Join<'a> {
    compiled: &'a CompiledLevels,
    resolved: Vec<Vec<RTerm>>,
    /// Each level's relation, looked up once.
    relations: Vec<&'a RelationIndex>,
    index: &'a DbIndex,
}

impl<'a> Join<'a> {
    /// Resolves `compiled` against `index`.
    pub fn new(compiled: &'a CompiledLevels, index: &'a DbIndex) -> Join<'a> {
        Join {
            resolved: resolve_terms(compiled, index.interner()),
            relations: compiled
                .levels
                .iter()
                .map(|lvl| index.relation(&lvl.relation))
                .collect(),
            compiled,
            index,
        }
    }

    /// Number of levels.
    pub(crate) fn len(&self) -> usize {
        self.compiled.levels.len()
    }

    /// The compiled body.
    pub(crate) fn compiled(&self) -> &'a CompiledLevels {
        self.compiled
    }

    /// The index the body is resolved against.
    pub(crate) fn index(&self) -> &'a DbIndex {
        self.index
    }

    /// The id slot vector of a boundary valuation, over this body's table
    /// and index.
    pub(crate) fn slots_of(&self, valuation: &Valuation) -> Vec<u32> {
        valuation_to_ids(&self.compiled.table, valuation, self.index.interner())
    }

    /// The blocks of `level`'s relation a key pattern admits, in key order.
    pub(crate) fn blocks<'p>(
        &self,
        level: usize,
        pattern: &'p [Option<u32>],
    ) -> BlocksMatching<'a, 'p> {
        self.relations[level].blocks_matching(pattern, self.index.interner())
    }

    /// Binds `level`'s key positions to `block`'s key (`x̄_ℓ`, under the
    /// levels before it); `false` when a repeated variable or a constant
    /// disagrees with the key. Newly bound slots go on `trail`.
    pub(crate) fn bind_key(
        &self,
        level: usize,
        block: &IndexedBlock,
        slots: &mut [u32],
        trail: &mut Vec<usize>,
    ) -> bool {
        let key_len = self.compiled.levels[level].key_len;
        self.resolved[level][..key_len]
            .iter()
            .enumerate()
            .all(|(p, &term)| bind_term(term, block.key_at(p), slots, trail))
    }

    /// Matches fact `row` of `block` against `level`'s atom (see
    /// [`match_level_ids`]).
    #[inline]
    pub(crate) fn match_row(
        &self,
        level: usize,
        block: &IndexedBlock,
        row: usize,
        slots: &mut [u32],
        trail: &mut Vec<usize>,
    ) -> bool {
        match_level_ids(&self.resolved[level], &block.cols, row, slots, trail)
    }

    /// Hands every embedding extending `initial` to `sink`, in enumeration
    /// order.
    pub(crate) fn for_each(&self, initial: &[u32], mut sink: impl FnMut(&[u32])) {
        let mut slots = initial.to_vec();
        let stop = self.compiled.levels.len();
        self.embed(0, None, stop, &mut slots, &mut Vec::new(), &mut sink);
    }

    /// The delta enumeration: for every partial embedding over the levels
    /// before `pin.level` and every dirty key of `pin.keys` it admits, the
    /// slot vectors bound as [`KeyPin::stop`] says. The module docs ("Delta
    /// enumeration") state what this finds and why.
    pub(crate) fn for_each_through(&self, pin: &KeyPin<'_>, mut sink: impl FnMut(&[u32])) {
        let mut slots = self.compiled.unbound_ids();
        self.embed(
            0,
            Some(pin),
            pin.stop,
            &mut slots,
            &mut Vec::new(),
            &mut sink,
        );
    }

    /// Replaces `out` with the blocks the first level can draw facts from
    /// under `initial`, **in enumeration order**: the block-key shard axis
    /// of the executor's group discovery ([`GroupKeys::walk_blocks`]), and
    /// the blocks every bound of a group walks at level 0. Empty for a body
    /// without levels.
    pub(crate) fn level0_blocks(&self, initial: &[u32], out: &mut Vec<&'a IndexedBlock>) {
        out.clear();
        if let Some(lvl) = self.compiled.levels.first() {
            let pattern = key_pattern_ids(&self.resolved[0], lvl.key_len, initial);
            out.extend(self.blocks(0, &pattern));
        }
    }

    /// Hands `sink` the block each level draws its fact from under the full
    /// embedding `theta` (every variable bound) — named by its relation and
    /// its position in the relation's block list — and the fact's row in
    /// it: a repair keeps `theta` iff it picks that row in each of those
    /// blocks.
    pub(crate) fn blocks_of(
        &self,
        theta: &[u32],
        mut sink: impl FnMut((&'a str, usize), &'a IndexedBlock, usize),
    ) {
        let interner = self.index.interner();
        let mut key = Vec::new();
        for ((lvl, terms), &rel) in self
            .compiled
            .levels
            .iter()
            .zip(&self.resolved)
            .zip(&self.relations)
        {
            key.clear();
            key.extend(terms[..lvl.key_len].iter().map(|&term| {
                bound_id(term, theta).expect("an embedding binds every key position")
            }));
            let (pos, block) = rel
                .find_block(&key, interner)
                .expect("an embedding's fact lies in a stored block");
            let row = (0..block.cols.rows()).find(|&row| {
                (terms.iter().enumerate())
                    .all(|(pos, &term)| bound_id(term, theta) == Some(block.cols.id_at(row, pos)))
            });
            sink(
                (rel.name(), pos),
                block,
                row.expect("an embedding's fact is a row"),
            );
        }
    }

    /// Matches every row of `block` at `level` and recurses below each match.
    #[allow(clippy::too_many_arguments)]
    fn visit(
        &self,
        block: &IndexedBlock,
        level: usize,
        pin: Option<&KeyPin<'_>>,
        stop: usize,
        slots: &mut [u32],
        trail: &mut Vec<usize>,
        sink: &mut impl FnMut(&[u32]),
    ) {
        let terms = &self.resolved[level];
        for row in 0..block.cols.rows() {
            let mark = trail.len();
            if match_level_ids(terms, &block.cols, row, slots, trail) {
                self.embed(level + 1, pin, stop, slots, trail, sink);
            }
            unwind(slots, trail, mark);
        }
    }

    /// The recursive join core: reports `slots` once `stop` levels are
    /// matched, else walks the blocks the level's key pattern admits — or, at
    /// the pinned level, the dirty keys it admits ([`Join::through_keys`]).
    fn embed(
        &self,
        level: usize,
        pin: Option<&KeyPin<'_>>,
        stop: usize,
        slots: &mut [u32],
        trail: &mut Vec<usize>,
        sink: &mut impl FnMut(&[u32]),
    ) {
        if let Some(pin) = pin.filter(|pin| pin.level == level) {
            return self.through_keys(pin, slots, trail, sink);
        }
        if level >= stop {
            sink(slots);
            return;
        }
        let key_len = self.compiled.levels[level].key_len;
        let pattern = key_pattern_ids(&self.resolved[level], key_len, slots);
        for block in self.blocks(level, &pattern) {
            self.visit(block, level, pin, stop, slots, trail, sink);
        }
    }

    /// The pinned level of a delta enumeration: walks the dirty keys the
    /// level's key pattern admits under `slots` — in the key order
    /// `blocks_matching` would yield their blocks in — binds each key's
    /// positions, and reports at the key itself or, when the pin asks for
    /// more, below every fact of the block the key names now (if any).
    fn through_keys(
        &self,
        pin: &KeyPin<'_>,
        slots: &mut [u32],
        trail: &mut Vec<usize>,
        sink: &mut impl FnMut(&[u32]),
    ) {
        let lvl = &self.compiled.levels[pin.level];
        let key_terms = &self.resolved[pin.level][..lvl.key_len];
        let interner = self.index.interner();
        let rel = self.relations[pin.level];
        // A bound first component narrows the sorted keys to one run.
        let keys = pin.keys;
        let run = match key_terms.first().and_then(|&term| bound_id(term, slots)) {
            Some(v) if !interner.contains_id(v) => 0..0,
            Some(v) => {
                let lo = keys.partition_point(0..keys.len(), |k| {
                    interner.cmp_ids(k[0], v) == Ordering::Less
                });
                let hi = keys.partition_point(0..keys.len(), |k| {
                    interner.cmp_ids(k[0], v) != Ordering::Greater
                });
                lo..hi
            }
            None => 0..keys.len(),
        };
        for k in run {
            let key = keys.row(k);
            let mark = trail.len();
            if bind_key_ids(key_terms, key, slots, trail) {
                if pin.stop == pin.level {
                    sink(slots);
                } else if let Some(block) = rel.block_by_key_ids(key, interner) {
                    self.visit(block, pin.level, None, pin.stop, slots, trail, sink);
                }
            }
            unwind(slots, trail, mark);
        }
    }
}

/// The result of analysing a (closed) prepared body against a database
/// instance.
#[derive(Clone, Debug)]
pub struct ForallAnalysis {
    /// Whether `∃ū q(ū)` is true in every repair (the `0-∀embedding` exists).
    pub certain: bool,
    /// All embeddings of the body.
    pub embeddings: Vec<Valuation>,
    /// All ∀embeddings of the body (a subset of `embeddings`; empty when
    /// `certain` is false).
    pub forall_embeddings: Vec<Valuation>,
}

/// Computes embeddings and ∀embeddings of an acyclic prepared body (with no
/// free variables) in `db`.
///
/// # Panics
/// Panics if the body's attack graph is cyclic (the notion of ∀embedding is
/// defined relative to a topological sort).
pub fn analyse(body: &PreparedBody, db: &DatabaseInstance) -> ForallAnalysis {
    let index = DbIndex::new(db);
    analyse_with_index(body, &index)
}

/// Like [`analyse`], but reuses a prebuilt [`DbIndex`].
pub fn analyse_with_index(body: &PreparedBody, index: &DbIndex) -> ForallAnalysis {
    assert!(
        body.is_acyclic(),
        "∀embeddings are only defined for acyclic attack graphs"
    );
    debug_assert!(
        body.body().free_vars().is_empty(),
        "free variables must be substituted before analysis"
    );
    let join = Join::new(body.compiled_levels(), index);
    let certainty = &mut BoundEvaluator::new(&join, &[Component::certainty()]);
    analyse_group(certainty, &Valuation::new())
}

/// `CERTAINTY(q)` for an acyclic closed body: whether every repair of the
/// indexed instance has an embedding. The boundary through which the
/// baselines ask it.
pub fn is_certain(body: &PreparedBody, index: &DbIndex) -> bool {
    let join = Join::new(body.compiled_levels(), index);
    BoundEvaluator::new(&join, &[Component::certainty()]).bounds(&Valuation::new())[0].is_some()
}

/// Computes the per-group analysis — certainty, embeddings, ∀embeddings —
/// for the group fixed by `base` (free variables bound to the group key;
/// empty for closed queries) over the body `certainty` walks, sharing its
/// memo across groups. `certainty`'s first component is
/// [`Component::certainty`].
///
/// This is the one boundary that materialises an analysis: the embeddings
/// are enumerated on ids, the ∀embeddings by the same walk with each block
/// gated by the ∀embedding condition, and both lists become [`Valuation`]s
/// as they come out.
pub fn analyse_group(certainty: &mut BoundEvaluator<'_, '_>, base: &Valuation) -> ForallAnalysis {
    let join = certainty.join();
    let table = &join.compiled.table;
    let interner = join.index.interner();
    let mut slots = join.slots_of(base);
    let materialise = |theta: &[u32]| ids_to_valuation(table, theta, interner);
    let mut embeddings = Vec::new();
    join.for_each(&slots, |theta| embeddings.push(materialise(theta)));
    let mut forall_embeddings = Vec::new();
    for_each_forall(certainty, 0, &mut slots, &mut Vec::new(), &mut |theta| {
        forall_embeddings.push(materialise(theta))
    });
    ForallAnalysis {
        certain: certainty.holds(0, &mut slots),
        embeddings,
        forall_embeddings,
    }
}

/// Hands every **∀embedding** extending `slots` from `level` on to `sink`,
/// in enumeration order. The ∀embedding condition at a level is a property
/// of the prefix and the level's key, so it gates whole blocks: a block is
/// entered only when `certainty` finds `F_ℓ ∧ ... ∧ F_n` certain with the
/// levels before it and its key fixed.
fn for_each_forall(
    certainty: &mut BoundEvaluator<'_, '_>,
    level: usize,
    slots: &mut [u32],
    trail: &mut Vec<usize>,
    sink: &mut impl FnMut(&[u32]),
) {
    let join = certainty.join();
    if level == join.len() {
        return sink(slots);
    }
    let key_len = join.compiled.levels[level].key_len;
    let pattern = key_pattern_ids(&join.resolved[level], key_len, slots);
    for block in join.blocks(level, &pattern) {
        let mark = trail.len();
        if join.bind_key(level, block, slots, trail) && certainty.holds(level, slots) {
            for row in 0..block.cols.rows() {
                let row_mark = trail.len();
                if join.match_row(level, block, row, slots, trail) {
                    for_each_forall(certainty, level + 1, slots, trail, sink);
                }
                unwind(slots, trail, row_mark);
            }
        }
        unwind(slots, trail, mark);
    }
}

/// Group discovery: the distinct projections onto the free-variable slots
/// `free` of the embeddings of an open body — the group keys — found without
/// enumerating the embeddings.
///
/// Once every free slot is bound the key is complete and only its existence
/// is in question, which the existence component of the bound recursion
/// ([`Component::existence`]), alone in an evaluator, decides under its memo of the relevant
/// slots. Before that, `explored` records per level the projections onto
/// the relevant slots **and** the free slots already walked:
/// the keys found below a partial embedding are a function of that
/// projection, so a second arrival adds none. On `R(x|y) ⋈ S(y,z|r)` grouped
/// by `x` that is one existence probe per `R` fact and one `S` lookup per
/// distinct `y`; grouped by `z`, one walk of the `S` blocks per distinct `y`.
pub(crate) struct GroupKeys<'j, 'a> {
    join: &'j Join<'a>,
    free: &'j [usize],
    existence: BoundEvaluator<'j, 'a>,
    explored: LevelMemo<()>,
    patterns: Patterns,
    trail: Vec<usize>,
    /// The keys found so far, in discovery order: no key twice in a row,
    /// but not free of repeats (the caller sorts and deduplicates).
    pub(crate) found: IdRows,
}

impl<'j, 'a> GroupKeys<'j, 'a> {
    /// Discovery over `join`, whose free-variable slots are `free`.
    pub(crate) fn new(join: &'j Join<'a>, free: &'j [usize]) -> GroupKeys<'j, 'a> {
        let explored = join
            .compiled
            .relevant_slots()
            .iter()
            .map(|slots| {
                let mut slots = slots.clone();
                slots.extend(free);
                slots.sort_unstable();
                slots.dedup();
                slots
            })
            .collect();
        GroupKeys {
            join,
            free,
            existence: BoundEvaluator::new(join, &[Component::existence()]),
            explored: LevelMemo::new(explored, 0),
            patterns: Patterns::default(),
            trail: Vec::new(),
            found: IdRows::new(free.len()),
        }
    }

    /// Finds the keys of the embeddings extending `initial` whose level-0
    /// fact lies in one of `blocks` (a shard of [`Join::level0_blocks`]).
    pub(crate) fn walk_blocks(&mut self, initial: &[u32], blocks: &[&IndexedBlock]) {
        let mut slots = initial.to_vec();
        for block in blocks {
            for row in 0..block.cols.rows() {
                if self
                    .join
                    .match_row(0, block, row, &mut slots, &mut self.trail)
                {
                    self.discover(1, &mut slots);
                }
                unwind(&mut slots, &mut self.trail, 0);
            }
        }
    }

    fn discover(&mut self, level: usize, slots: &mut [u32]) {
        if self.free.iter().all(|&s| slots[s] != UNBOUND_ID) {
            // Runs of one key are the common case (facts of one level-0
            // block): the last key found needs no second look.
            let found = &self.found;
            let repeat = !found.is_empty()
                && (self.free.iter())
                    .zip(found.row(found.len() - 1))
                    .all(|(&s, &id)| slots[s] == id);
            if !repeat && self.existence.holds(level, slots) {
                self.found.push(self.free.iter().map(|&s| slots[s]));
            }
            return;
        }
        if self.explored.probe(level, slots, ()).is_ok() {
            return;
        }
        let join = self.join;
        let pattern = self.patterns.take(join, level, slots);
        for block in join.blocks(level, &pattern) {
            for row in 0..block.cols.rows() {
                let mark = self.trail.len();
                if join.match_row(level, block, row, slots, &mut self.trail) {
                    self.discover(level + 1, slots);
                }
                unwind(slots, &mut self.trail, mark);
            }
        }
        self.patterns.give(level, pattern);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prepared::PreparedAggQuery;
    use rcqa_data::{fact, rat, Schema, Signature};
    use rcqa_query::parse_agg_query;
    use std::collections::BTreeSet;

    /// The database instance of Fig. 1.
    fn db_stock() -> DatabaseInstance {
        let schema = Schema::new()
            .with_relation("Dealers", Signature::new(2, 1, []).unwrap())
            .with_relation("Stock", Signature::new(3, 2, [2]).unwrap());
        let mut db = DatabaseInstance::new(schema);
        db.insert_all([
            fact!("Dealers", "Smith", "Boston"),
            fact!("Dealers", "Smith", "New York"),
            fact!("Dealers", "James", "Boston"),
            fact!("Stock", "Tesla X", "Boston", 35),
            fact!("Stock", "Tesla X", "Boston", 40),
            fact!("Stock", "Tesla Y", "Boston", 35),
            fact!("Stock", "Tesla Y", "New York", 95),
            fact!("Stock", "Tesla Y", "New York", 96),
        ])
        .unwrap();
        db
    }

    /// The database instance db0 of Fig. 3.
    fn db0() -> DatabaseInstance {
        let schema = Schema::new()
            .with_relation("R", Signature::new(2, 1, []).unwrap())
            .with_relation("S", Signature::new(4, 2, [3]).unwrap());
        let mut db = DatabaseInstance::new(schema);
        db.insert_all([
            fact!("R", "a1", "b1"),
            fact!("R", "a1", "b2"),
            fact!("R", "a2", "b2"),
            fact!("R", "a2", "b3"),
            fact!("R", "a3", "b4"),
            fact!("S", "b1", "c1", "d", 1),
            fact!("S", "b1", "c1", "d", 2),
            fact!("S", "b1", "c2", "d", 3),
            fact!("S", "b2", "c3", "d", 5),
            fact!("S", "b2", "c3", "d", 6),
            fact!("S", "b3", "c4", "d", 5),
            fact!("S", "b4", "c5", "d", 7),
            fact!("S", "b4", "c5", "e", 8),
        ])
        .unwrap();
        db
    }

    fn prepared(datalog: &str, schema: &Schema) -> PreparedAggQuery {
        PreparedAggQuery::new(&parse_agg_query(datalog).unwrap(), schema).unwrap()
    }

    #[test]
    fn example_4_1_forall_embeddings() {
        // q0 = Dealers('James', t), Stock(p, t, 35): true in every repair.
        let db = db_stock();
        let q = prepared(
            "COUNT(*) <- Dealers('James', t), Stock(p, t, 35)",
            db.schema(),
        );
        let analysis = analyse(&q.body, &db);
        assert!(analysis.certain);
        // Embeddings: (Boston, Tesla X) and (Boston, Tesla Y).
        assert_eq!(analysis.embeddings.len(), 2);
        // Only (Boston, Tesla Y) is a ∀embedding (Example 4.1): the Tesla X
        // block also contains quantity 40.
        assert_eq!(analysis.forall_embeddings.len(), 1);
        let theta = &analysis.forall_embeddings[0];
        assert_eq!(theta.get(&Var::new("t")), Some(&Value::text("Boston")));
        assert_eq!(theta.get(&Var::new("p")), Some(&Value::text("Tesla Y")));
    }

    #[test]
    fn fig_3_forall_embeddings_m0() {
        // g0() = SUM(r) <- R(x, y), S(y, z, 'd', r) over db0: the set M0 of
        // ∀embeddings has exactly the 8 rows of Fig. 3.
        let db = db0();
        let q = prepared("SUM(r) <- R(x, y), S(y, z, 'd', r)", db.schema());
        let analysis = analyse(&q.body, &db);
        assert!(analysis.certain);
        // There are 9 embeddings in total; (a3, b4, c5, 7) is not a
        // ∀embedding because of the 'e' value in the last S-row.
        assert_eq!(analysis.embeddings.len(), 9);
        assert_eq!(analysis.forall_embeddings.len(), 8);
        let m0: BTreeSet<(String, String, String, i64)> = analysis
            .forall_embeddings
            .iter()
            .map(|b| {
                (
                    b[&Var::new("x")].to_string(),
                    b[&Var::new("y")].to_string(),
                    b[&Var::new("z")].to_string(),
                    b[&Var::new("r")].as_num().unwrap().numerator() as i64,
                )
            })
            .collect();
        let expected: BTreeSet<(String, String, String, i64)> = [
            ("a1", "b1", "c1", 1),
            ("a1", "b1", "c1", 2),
            ("a1", "b1", "c2", 3),
            ("a1", "b2", "c3", 5),
            ("a1", "b2", "c3", 6),
            ("a2", "b2", "c3", 5),
            ("a2", "b2", "c3", 6),
            ("a2", "b3", "c4", 5),
        ]
        .iter()
        .map(|(a, b, c, d)| (a.to_string(), b.to_string(), c.to_string(), *d))
        .collect();
        assert_eq!(m0, expected);
        // No ∀embedding maps x to a3.
        assert!(!analysis
            .forall_embeddings
            .iter()
            .any(|b| b[&Var::new("x")] == Value::text("a3")));
    }

    #[test]
    fn certainty_detects_falsifying_repair() {
        // Dealers('Smith', t), Stock('Tesla Z', t, q): Tesla Z is never in
        // stock, so no repair satisfies the query. ('Tesla Z' also resolves
        // to MISSING_ID — the id core must treat it as matching nothing, not
        // panic on it.)
        let db = db_stock();
        let q = prepared(
            "COUNT(*) <- Dealers('Smith', t), Stock('Tesla Z', t, q)",
            db.schema(),
        );
        let analysis = analyse(&q.body, &db);
        assert!(!analysis.certain);
        assert!(analysis.embeddings.is_empty());
        assert!(analysis.forall_embeddings.is_empty());

        // Dealers('Smith', t), Stock(p, t, y): Smith's town is uncertain, but
        // both Boston and New York stock something, so the query is certain.
        let q = prepared("SUM(y) <- Dealers('Smith', t), Stock(p, t, y)", db.schema());
        let analysis = analyse(&q.body, &db);
        assert!(analysis.certain);
        // No embedding through Smith/Boston or Smith/New York is a
        // ∀embedding at level 1 (Smith's town is uncertain), except... none.
        // Level-1 check fixes only x̄_1 = ∅ (the key 'Smith' is a constant),
        // so certainty of the whole query from level 0 is what matters; each
        // embedding also needs level-wise checks.
        assert_eq!(analysis.embeddings.len(), 5);
    }

    #[test]
    fn match_fact_handles_repeats_and_constants() {
        let atom = Atom::new("T", vec![Term::var("x"), Term::var("x"), Term::constant(3)]);
        let f_ok = fact!("T", "a", "a", 3);
        let f_bad_repeat = fact!("T", "a", "b", 3);
        let f_bad_const = fact!("T", "a", "a", 4);
        assert!(match_fact(&atom, &f_ok, &Valuation::new()).is_some());
        assert!(match_fact(&atom, &f_bad_repeat, &Valuation::new()).is_none());
        assert!(match_fact(&atom, &f_bad_const, &Valuation::new()).is_none());
        // Pre-bound variable must agree.
        let b = Valuation::from([(Var::new("x"), Value::text("z"))]);
        assert!(match_fact(&atom, &f_ok, &b).is_none());
        // Numeric values round-trip.
        let atom = Atom::new("U", vec![Term::var("r")]);
        let f = fact!("U", 7);
        let m = match_fact(&atom, &f, &Valuation::new()).unwrap();
        assert_eq!(m[&Var::new("r")].as_num(), Some(rat(7)));
    }

    #[test]
    fn empty_relation_makes_query_uncertain() {
        let schema = Schema::new()
            .with_relation("R", Signature::new(2, 1, []).unwrap())
            .with_relation("S", Signature::new(2, 1, [1]).unwrap());
        let db = DatabaseInstance::new(schema.clone());
        let q = prepared("SUM(r) <- R(x, y), S(y, r)", &schema);
        let analysis = analyse(&q.body, &db);
        assert!(!analysis.certain);
        assert!(analysis.embeddings.is_empty());
    }

    #[test]
    fn grouped_analysis_shares_one_checker() {
        // Group-by on the Fig. 1 instance: analysing Smith and James with one
        // shared certainty evaluator gives the same per-group results as
        // substituting.
        let db = db_stock();
        let index = DbIndex::new(&db);
        let q = prepared("(x, SUM(y)) <- Dealers(x, t), Stock(p, t, y)", db.schema());
        let join = Join::new(q.body.compiled_levels(), &index);
        let mut certainty = BoundEvaluator::new(&join, &[Component::certainty()]);
        for (dealer, n_embs) in [("Smith", 5), ("James", 3)] {
            let base = Valuation::from([(Var::new("x"), Value::text(dealer))]);
            let analysis = analyse_group(&mut certainty, &base);
            assert!(analysis.certain, "{dealer} group must be certain");
            assert_eq!(analysis.embeddings.len(), n_embs, "{dealer} embeddings");
        }
    }
}
