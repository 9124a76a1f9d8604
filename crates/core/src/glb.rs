//! The operational evaluation of range-consistent aggregate bounds over
//! ∀embeddings, following the proof of Theorem 6.1.
//!
//! For a monotone and associative aggregate operator `F⊕`, Corollary 6.4
//! expresses `GLB-CQA(g())` as the minimum, over all maximal consistent
//! subsets (MCS) of the set of ∀embeddings, of the aggregated `r`-values.
//! The proof of Theorem 6.1 computes this minimum by recursing over the
//! topological sort: alternatives within one block (same key values) are
//! mutually exclusive and resolved by `MIN`, while distinct key values are
//! independent branches combined with `F⊕` (Decomposition Lemma H.5 and
//! Consistent Extension Lemma H.9).
//!
//! The same recursion with the roles of `MIN`/`MAX` mirrored computes
//! `LUB-CQA` for `MIN`-queries (Theorem 7.11).
//!
//! ## The recursion runs over the index, memoised per sub-problem
//!
//! [`BoundEvaluator`] evaluates the recursion level by level straight over
//! the block index, never listing an embedding. At level `ℓ`, under a
//! partial embedding of the levels before it, `value(ℓ)`:
//!
//! * walks the blocks of `F_ℓ`'s relation its key pattern admits — one per
//!   value of `x̄_ℓ` — and keeps a block only if `F_ℓ ∧ ... ∧ F_n` is certain
//!   with the block's key fixed: exactly the ∀embedding condition at level
//!   `ℓ`, which depends on the prefix and the key alone;
//! * resolves the block's alternatives — its facts, one per value of
//!   `ȳ_ℓ` — with the [`Choice`] over their `value(ℓ + 1)`;
//! * combines the kept blocks with `F⊕`, and is `None` when none is kept.
//!
//! Past the last level the value is the aggregated term's. By induction
//! along the levels, `value(ℓ)` exists exactly when `F_ℓ ∧ ... ∧ F_n` is
//! certain: a kept block is a certain one, and a certain suffix has a block
//! all of whose facts have certain suffixes. So a block is kept exactly when
//! every one of its facts matches and has a `value(ℓ + 1)`, and the values
//! decide the ∀embedding condition themselves.
//!
//! `value(ℓ)` reads nothing of the prefix but the variables of
//! `F_ℓ, ..., F_n` (the relevant slots) and the aggregated variable, so it
//! is memoised per level under that projection: on `R(x|y) ⋈ S(y,z|r)`
//! grouped by `x`, the level-1 sub-aggregate is computed once per `y`,
//! however many groups join it. The free variables are slots like any
//! other, which is what lets one memo serve every group.
//!
//! The plain extremum of Theorem 7.10 (and its mirror in Theorem 7.11) is
//! the same recursion over **all** embeddings — no block is dropped — with
//! `F⊕` the extremum itself. It is the answer only for a certain group.
//!
//! ## Certainty and existence: the recursion of a constant
//!
//! With a constant leaf the rewriting's `value(ℓ)` says only whether it
//! exists, which by the induction above is whether `F_ℓ ∧ ... ∧ F_n` is
//! certain: that is [`Component::certainty`] (GLB-CQA is `⊥` exactly when
//! the body is not certain). The extremum of a constant has a value exactly
//! when some extension to an embedding exists: [`Component::existence`],
//! which decides whether a listed group has a row. Under `MIN`/`MAX` every
//! value of such a component is the constant, so the first value a level
//! finds settles it, as a plain `any` over the blocks would.
//!
//! ## One recursion answers every bound
//!
//! Every bound above is a **component** of the one recursion — a leaf term,
//! the `F⊕` that combines blocks, the [`Choice`] within a block, and whether
//! blocks are ∀-gated — and a [`BoundEvaluator`] evaluates a set of them in
//! one walk: a memo entry holds every component's value of its sub-problem,
//! so each block and each fact is visited once per sub-problem, however many
//! bounds — both bounds of each aggregate of a statement, certainty,
//! existence — are asked. Each component folds on its own and stops folding
//! once it has settled (a ∀-gated component on a block with a fact that has
//! no value, a constant's first value); a walk stops once every component
//! has settled. A memo entry is keyed by the relevant slots and every
//! component's leaf slot, so a component never reads an entry computed for
//! another value of its leaf.
//!
//! By the induction above, any ∀-gated component has a value exactly when
//! the suffix is certain, and any ungated one exactly when the slots extend
//! to an embedding, whatever its leaf: a statement with a rewriting reads
//! certainty off it, one with an extremum reads existence off that, and the
//! constant components are walked only for a statement that has neither.
//!
//! Results do not depend on the order of the walk: the values combined go
//! through `MIN`/`MAX` and an exact, commutative `F⊕` ([`Rational`]
//! arithmetic), which is why a warm index, whose interner assigned ids in
//! arrival order, answers exactly as a cold one. The only
//! [`rcqa_data::Value`] read is the one [`Rational`] per leaf.

use crate::forall::{unwind, Join, LevelMemo, Patterns, Valuation};
use crate::index::IndexedBlock;
use rcqa_data::{AggFunc, Rational, Value};
use rcqa_query::AggTerm;

/// How alternatives within one block (same key, different non-key values) are
/// resolved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Choice {
    /// Pick the alternative minimising the aggregate (GLB semantics).
    Minimise,
    /// Pick the alternative maximising the aggregate (LUB semantics for
    /// MIN-queries, via the order-reversal argument of Theorem 7.11).
    Maximise,
}

impl Choice {
    /// The better of two values under this choice.
    fn pick(self, a: Rational, b: Rational) -> Rational {
        match self {
            Choice::Minimise => a.min(b),
            Choice::Maximise => a.max(b),
        }
    }
}

/// The value of the aggregated term `r` under a valuation (the exact fallback
/// and the baselines; the plan executor reads leaves through
/// [`BoundEvaluator`]).
pub fn term_value(term: &AggTerm, valuation: &Valuation) -> Rational {
    match term {
        AggTerm::Const(c) => *c,
        AggTerm::Var(v) => valuation
            .get(v)
            .and_then(Value::as_num)
            .unwrap_or_else(|| panic!("aggregated variable {v} is unbound or non-numeric")),
    }
}

/// The aggregated term resolved against a slot table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum LeafTerm {
    Const(Rational),
    Slot(usize),
}

/// One bound the recursion of the module docs computes: what an embedding is
/// worth past the last level (the leaf term), the `F⊕` that combines the
/// blocks a level keeps, the [`Choice`] among the facts of one block, and
/// whether a block is kept only under the ∀embedding condition.
#[derive(Clone, Debug)]
pub struct Component {
    term: AggTerm,
    combine: AggFunc,
    choice: Choice,
    forall: bool,
}

impl Component {
    /// The Theorem 6.1 / 7.11 rewriting: `combine` aggregates independent
    /// branches, `choice` resolves the alternatives within a block, and a
    /// block counts only under the ∀embedding condition. `combine` must be
    /// associative ([`AggFunc::is_associative`]).
    pub fn rewriting(term: &AggTerm, combine: AggFunc, choice: Choice) -> Component {
        Component {
            term: term.clone(),
            combine,
            choice,
            forall: true,
        }
    }

    /// The Theorem 7.10 extremum over all embeddings — `MIN(r)`'s GLB for
    /// [`Choice::Minimise`], `MAX(r)`'s LUB for [`Choice::Maximise`]. It is
    /// the bound only of a certain group: a caller reads it beside a
    /// ∀-gated component of the same evaluator — a rewriting, or
    /// [`Component::certainty`].
    pub fn extremum(term: &AggTerm, choice: Choice) -> Component {
        let combine = match choice {
            Choice::Minimise => AggFunc::Min,
            Choice::Maximise => AggFunc::Max,
        };
        Component {
            term: term.clone(),
            combine,
            choice,
            forall: false,
        }
    }

    /// `CERTAINTY` of the body's suffixes: the rewriting of a constant under
    /// `MAX`, whose value exists exactly when `F_ℓ ∧ ... ∧ F_n` is certain —
    /// for a group, when its body is.
    pub fn certainty() -> Component {
        Component::rewriting(
            &AggTerm::Const(Rational::ONE),
            AggFunc::Max,
            Choice::Maximise,
        )
    }

    /// Existence of an embedding: the extremum of a constant, whose value
    /// exists exactly when the levels from `ℓ` on extend the slots — for a
    /// group, when it has an embedding.
    pub fn existence() -> Component {
        Component::extremum(&AggTerm::Const(Rational::ONE), Choice::Maximise)
    }
}

/// A [`Component`] resolved against a body's slot table.
#[derive(Clone, Copy, Debug)]
struct Resolved {
    leaf: LeafTerm,
    combine: AggFunc,
    choice: Choice,
    forall: bool,
    /// Whether the first value found settles a level: the leaf is a constant
    /// and `combine` is `MIN` or `MAX`, so every value is that constant.
    first_decides: bool,
}

impl Resolved {
    /// `F⊕` of the running value and one more branch's.
    fn combine(&self, acc: Rational, v: Rational) -> Rational {
        match self.combine {
            AggFunc::Sum => acc + v,
            AggFunc::Min => acc.min(v),
            AggFunc::Max => acc.max(v),
            other => other.apply(&[acc, v]).expect("two values"),
        }
    }
}

/// One component's fold over the blocks of a level or the facts of a block:
/// the value so far, and whether it has settled.
#[derive(Clone, Copy, Debug)]
struct Fold {
    value: Option<Rational>,
    settled: bool,
}

/// The memoised recursion of the module docs over a [`Join`], evaluating a
/// set of [`Component`]s in one walk: the bounds of a statement's groups, or
/// one component alone — certainty for the ∀embedding analysis, existence for
/// group discovery.
///
/// One evaluator answers any number of groups and keeps its memo across
/// them; the plan executor builds one per worker.
pub struct BoundEvaluator<'j, 'a> {
    join: &'j Join<'a>,
    components: Vec<Resolved>,
    /// Every component's value of a sub-problem, `components.len()` per
    /// entry.
    memo: LevelMemo<Option<Rational>>,
    /// Sub-problems evaluated (memo misses), per level.
    evaluated: Vec<usize>,
    /// The values handed up the recursion, `components.len()` per
    /// sub-problem or block: a callee pushes them, its caller reads and pops
    /// them.
    values: Vec<Option<Rational>>,
    /// The folds in progress, `components.len()` per open level and per open
    /// block: each call pops what it pushed.
    folds: Vec<Fold>,
    patterns: Patterns,
    trail: Vec<usize>,
}

impl<'j, 'a> BoundEvaluator<'j, 'a> {
    /// An evaluator of `components` over `join`, with an empty memo.
    ///
    /// # Panics
    /// Panics if an aggregated variable does not occur in the body, or a
    /// component's `combine` is not associative.
    pub fn new(join: &'j Join<'a>, components: &[Component]) -> BoundEvaluator<'j, 'a> {
        let table = join.compiled().table();
        let components: Vec<Resolved> = components
            .iter()
            .map(|c| {
                assert!(
                    c.combine.is_associative(),
                    "{} does not combine independent branches",
                    c.combine
                );
                let leaf = match &c.term {
                    AggTerm::Const(k) => LeafTerm::Const(*k),
                    AggTerm::Var(v) => LeafTerm::Slot(table.slot(v).unwrap_or_else(|| {
                        panic!("aggregated variable {v} does not occur in the body")
                    })),
                };
                Resolved {
                    leaf,
                    combine: c.combine,
                    choice: c.choice,
                    forall: c.forall,
                    first_decides: matches!(leaf, LeafTerm::Const(_))
                        && matches!(c.combine, AggFunc::Min | AggFunc::Max),
                }
            })
            .collect();
        let keys = join
            .compiled()
            .relevant_slots()
            .into_iter()
            .map(|mut slots| {
                for c in &components {
                    if let LeafTerm::Slot(s) = c.leaf {
                        if !slots.contains(&s) {
                            slots.push(s);
                        }
                    }
                }
                slots
            })
            .collect::<Vec<_>>();
        BoundEvaluator {
            join,
            evaluated: vec![0; keys.len()],
            memo: LevelMemo::new(keys, components.len()),
            components,
            values: Vec::new(),
            folds: Vec::new(),
            patterns: Patterns::default(),
            trail: Vec::new(),
        }
    }

    /// The body the evaluator walks.
    pub(crate) fn join(&self) -> &'j Join<'a> {
        self.join
    }

    /// Every component's value for the group fixed by `base` (free
    /// variables bound to the group key; empty for a closed query), in the
    /// order the components were given. `None` is the answer `⊥`: for a
    /// rewriting, the group's body is not certain; for an extremum, the
    /// group has no embedding (and the extremum is a bound only where
    /// certainty holds).
    pub fn bounds(&mut self, base: &Valuation) -> &[Option<Rational>] {
        let mut slots = self.join.slots_of(base);
        let mut level0 = Vec::new();
        self.join.level0_blocks(&slots, &mut level0);
        self.bounds_ids(&mut slots, &level0)
    }

    /// How many sub-problems rooted at `level` the evaluator has computed —
    /// memo misses, summed over every group it answered, each computing
    /// every component. Level 0 is the group itself, evaluated once per call.
    pub fn evaluated(&self, level: usize) -> usize {
        self.evaluated.get(level).copied().unwrap_or(0)
    }

    /// The sub-problems evaluated below level 0, over every level: the
    /// executor's measure of work done.
    pub(crate) fn work(&self) -> usize {
        self.evaluated[1..].iter().sum()
    }

    /// [`BoundEvaluator::bounds`] over the join's id slot vector, whose
    /// level-0 blocks (those its key pattern admits under `base`) the caller
    /// looked up. `base` is restored before returning.
    pub(crate) fn bounds_ids(
        &mut self,
        base: &mut [u32],
        level0: &[&IndexedBlock],
    ) -> &[Option<Rational>] {
        // Level 0 is not memoised: its key holds the group key, which no
        // other call repeats.
        self.values.clear();
        self.evaluated[0] += 1;
        self.evaluate(0, base, level0.iter().copied());
        &self.values
    }

    /// Whether the first component's `value(level)` exists under `slots`,
    /// through the memo: for certainty, whether `F_ℓ ∧ ... ∧ F_n` is certain
    /// (with the key of `level` bound, the ∀embedding condition of its
    /// block); for existence, whether `slots` extends to an embedding.
    pub(crate) fn holds(&mut self, level: usize, slots: &mut [u32]) -> bool {
        let at = self.values.len();
        self.value(level, slots);
        let holds = self.values[at].is_some();
        self.values.truncate(at);
        holds
    }

    /// Pushes every component's `value(level)` under `slots`, through the
    /// memo.
    fn value(&mut self, level: usize, slots: &mut [u32]) {
        let join = self.join;
        if level == join.len() {
            let interner = join.index().interner();
            // Components of one aggregate share their leaf: read it once.
            let mut last: Option<(LeafTerm, Rational)> = None;
            for c in &self.components {
                let leaf = match (c.leaf, last) {
                    (LeafTerm::Const(k), _) => k,
                    (leaf, Some((read, v))) if read == leaf => v,
                    (LeafTerm::Slot(s), _) => interner
                        .value(slots[s])
                        .as_num()
                        .expect("the aggregated variable is bound to a number"),
                };
                last = Some((c.leaf, leaf));
                self.values.push(Some(leaf));
            }
            return;
        }
        let entry = match self.memo.probe(level, slots, None) {
            Ok(hit) => return self.values.extend_from_slice(hit),
            Err(entry) => entry,
        };
        self.evaluated[level] += 1;
        let pattern = self.patterns.take(join, level, slots);
        self.evaluate(level, slots, join.blocks(level, &pattern));
        self.patterns.give(level, pattern);
        let at = self.values.len() - self.components.len();
        self.memo.settle(level, entry, &self.values[at..]);
    }

    /// One step of the induction (see the module docs) over the blocks
    /// `level`'s key pattern admits, uncached: pushes every component's
    /// value. Stops once every component has settled.
    fn evaluate<'b>(
        &mut self,
        level: usize,
        slots: &mut [u32],
        blocks: impl IntoIterator<Item = &'b IndexedBlock>,
    ) {
        let (join, k) = (self.join, self.components.len());
        let folds = self.folds.len();
        let open_fold = Fold {
            value: None,
            settled: false,
        };
        self.folds.resize(folds + k, open_fold);
        let mut open = k;
        for block in blocks {
            let key_mark = self.trail.len();
            if join.bind_key(level, block, slots, &mut self.trail) {
                self.alternatives(level, block, slots, folds);
                let at = self.values.len() - k;
                let branches = (self.components.iter())
                    .zip(&mut self.folds[folds..])
                    .zip(&self.values[at..]);
                for ((c, fold), &best) in branches {
                    if let (false, Some(v)) = (fold.settled, best) {
                        fold.value = Some(fold.value.map_or(v, |acc| c.combine(acc, v)));
                        if c.first_decides {
                            fold.settled = true;
                            open -= 1;
                        }
                    }
                }
                self.values.truncate(at);
            }
            unwind(slots, &mut self.trail, key_mark);
            if open == 0 {
                break;
            }
        }
        self.values
            .extend(self.folds[folds..].iter().map(|fold| fold.value));
        self.folds.truncate(folds);
    }

    /// Pushes every component's resolution of the alternatives of one block
    /// (its key bound in `slots`) with its choice. For a ∀-gated component,
    /// `None` unless **every** fact of the block matches and has a value:
    /// that is the ∀embedding condition of the block — `F_ℓ ∧ ... ∧ F_n`
    /// certain with its key fixed — since a suffix has a value exactly when
    /// it is certain (by the induction of the module docs). For an ungated
    /// one, the best of the facts that have a value. A component the level
    /// has already settled (its folds start at `level_folds`) is skipped,
    /// and the facts stop once every component has settled.
    fn alternatives(
        &mut self,
        level: usize,
        block: &IndexedBlock,
        slots: &mut [u32],
        level_folds: usize,
    ) {
        let (join, k) = (self.join, self.components.len());
        let folds = self.folds.len();
        self.folds.extend_from_within(level_folds..level_folds + k);
        let mut open = 0;
        for fold in &mut self.folds[folds..] {
            fold.value = None;
            open += usize::from(!fold.settled);
        }
        for row in 0..block.cols.rows() {
            if open == 0 {
                break;
            }
            let (mark, at) = (self.trail.len(), self.values.len());
            if join.match_row(level, block, row, slots, &mut self.trail) {
                self.value(level + 1, slots);
            } else {
                self.values.resize(at + k, None);
            }
            unwind(slots, &mut self.trail, mark);
            let facts = (self.components.iter())
                .zip(&mut self.folds[folds..])
                .zip(&self.values[at..]);
            for ((c, fold), &value) in facts {
                if fold.settled {
                    continue;
                }
                match value {
                    Some(v) if c.first_decides && !c.forall => {
                        fold.value = Some(v);
                        fold.settled = true;
                        open -= 1;
                    }
                    Some(v) => fold.value = Some(fold.value.map_or(v, |b| c.choice.pick(b, v))),
                    None if c.forall => {
                        fold.value = None;
                        fold.settled = true;
                        open -= 1;
                    }
                    None => {}
                }
            }
            self.values.truncate(at);
        }
        self.values
            .extend(self.folds[folds..].iter().map(|fold| fold.value));
        self.folds.truncate(folds);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forall::analyse_group;
    use crate::index::DbIndex;
    use crate::prepared::PreparedAggQuery;
    use rcqa_data::{fact, rat, DatabaseInstance, Schema, Signature};
    use rcqa_query::parse_agg_query;

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

    /// What the executor computes for the single group of a closed query.
    struct Bounds {
        certain: bool,
        embeddings: usize,
        forall_embeddings: usize,
        /// The rewriting recursion.
        optimal: Option<Rational>,
        /// The extremum over all embeddings: (min, max).
        extrema: (Option<Rational>, Option<Rational>),
    }

    /// Runs the executor's evaluator by hand — the rewriting, both extrema
    /// and certainty in one walk — beside the boundary analysis that counts
    /// the embeddings and ∀embeddings.
    fn bounds(datalog: &str, db: &DatabaseInstance, combine: AggFunc, choice: Choice) -> Bounds {
        let q = PreparedAggQuery::new(&parse_agg_query(datalog).unwrap(), db.schema()).unwrap();
        let index = DbIndex::new(db);
        let join = Join::new(q.body.compiled_levels(), &index);
        let base = Valuation::new();
        let certainty = &mut BoundEvaluator::new(&join, &[Component::certainty()]);
        let analysis = analyse_group(certainty, &base);
        let term = &q.normalised.term;
        let mut evaluator = BoundEvaluator::new(
            &join,
            &[
                Component::rewriting(term, combine, choice),
                Component::extremum(term, Choice::Minimise),
                Component::extremum(term, Choice::Maximise),
                Component::certainty(),
            ],
        );
        let values = evaluator.bounds(&base);
        // An extremum is a bound only of a certain group.
        let extremum = |v: Option<Rational>| v.filter(|_| values[3].is_some());
        Bounds {
            certain: analysis.certain,
            embeddings: analysis.embeddings.len(),
            forall_embeddings: analysis.forall_embeddings.len(),
            optimal: values[0],
            extrema: (extremum(values[1]), extremum(values[2])),
        }
    }

    #[test]
    fn section_6_1_running_example_glb_is_9() {
        // GLB-CQA(g0()) for SUM(r) <- R(x, y), S(y, z, 'd', r) on db0 is 9:
        // 4 for the group x = a1 (1 + 3) and 5 for x = a2 (Fig. 4 / Fig. 5).
        // Fig. 3: of the 9 embeddings, the 8 of M0 are ∀embeddings.
        let b = bounds(
            "SUM(r) <- R(x, y), S(y, z, 'd', r)",
            &db0(),
            AggFunc::Sum,
            Choice::Minimise,
        );
        assert!(b.certain);
        assert_eq!((b.embeddings, b.forall_embeddings), (9, 8));
        assert_eq!(b.optimal, Some(rat(9)));
    }

    #[test]
    fn fig1_smith_stock_glb_is_70() {
        // The introduction example: the lowest total quantity of cars in
        // Smith's town of operation is 70.
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
        let b = bounds(
            "SUM(y) <- Dealers('Smith', t), Stock(p, t, y)",
            &db,
            AggFunc::Sum,
            Choice::Minimise,
        );
        assert!(b.certain);
        assert_eq!(b.optimal, Some(rat(70)));
    }

    #[test]
    fn global_extrema() {
        let b = bounds(
            "MIN(r) <- R(x, y), S(y, z, 'd', r)",
            &db0(),
            AggFunc::Min,
            Choice::Maximise,
        );
        assert_eq!(b.extrema, (Some(rat(1)), Some(rat(7))));
        // No embedding, no extremum.
        let empty = DatabaseInstance::new(db0().schema().clone());
        let b = bounds(
            "MIN(r) <- R(x, y), S(y, z, 'd', r)",
            &empty,
            AggFunc::Min,
            Choice::Maximise,
        );
        assert_eq!(b.extrema, (None, None));
    }

    #[test]
    fn empty_forall_embeddings_yield_none() {
        // R's only block offers b1 and b9, and nothing joins b9: the query is
        // not certain, so the ∀set is empty although an embedding exists.
        let mut db = DatabaseInstance::new(db0().schema().clone());
        db.insert_all([
            fact!("R", "a1", "b1"),
            fact!("R", "a1", "b9"),
            fact!("S", "b1", "c1", "d", 1),
        ])
        .unwrap();
        let b = bounds(
            "SUM(r) <- R(x, y), S(y, z, 'd', r)",
            &db,
            AggFunc::Sum,
            Choice::Minimise,
        );
        assert!(!b.certain);
        assert_eq!((b.embeddings, b.forall_embeddings), (1, 0));
        assert_eq!(b.optimal, None);
    }

    #[test]
    fn a_constant_leaf_is_decided_by_its_first_value() {
        // On db0, R's first block `a1` joins `b1` and `b2`, both of which
        // reach a `'d'` fact in every S block: certainty alone stops after
        // those two level-1 sub-problems, existence alone after the first,
        // and the `SUM(1)` rewriting of the same body walks all four. In one
        // evaluator the three walk the four once, with the values each
        // computes alone.
        let db = db0();
        let q = PreparedAggQuery::new(
            &parse_agg_query("COUNT(*) <- R(x, y), S(y, z, 'd', r)").unwrap(),
            db.schema(),
        )
        .unwrap();
        let index = DbIndex::new(&db);
        let join = Join::new(q.body.compiled_levels(), &index);
        let base = Valuation::new();
        let term = &q.normalised.term;
        let components = [
            Component::certainty(),
            Component::existence(),
            Component::rewriting(term, AggFunc::Sum, Choice::Minimise),
        ];
        let mut alone = Vec::new();
        for component in &components {
            let mut evaluator = BoundEvaluator::new(&join, std::slice::from_ref(component));
            let value = evaluator.bounds(&base)[0];
            alone.push((value, evaluator.evaluated(1)));
        }
        let one = Some(rat(1));
        assert_eq!(alone, [(one, 2), (one, 1), (Some(rat(2)), 4)]);
        let mut fused = BoundEvaluator::new(&join, &components);
        assert_eq!(fused.bounds(&base), [one, one, Some(rat(2))]);
        assert_eq!(fused.evaluated(1), 4);
    }
}
