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
//! `F⊕` the extremum itself. It is the answer only for a certain group,
//! which the extremum asks of a certainty instance of its own.
//!
//! ## Certainty and existence: the recursion of a constant
//!
//! With a constant leaf the rewriting's `value(ℓ)` says only whether it
//! exists, which by the induction above is whether `F_ℓ ∧ ... ∧ F_n` is
//! certain: that is [`BoundEvaluator::certainty`] (GLB-CQA is `⊥` exactly
//! when the body is not certain). The extremum of a constant has a value
//! exactly when some extension to an embedding exists: group discovery's
//! existence probe. Under `MIN`/`MAX` every value of such an evaluator is
//! the constant, so the first value a level finds decides it and the walk
//! stops there, as a plain `any` over the blocks would.
//!
//! Results do not depend on the order of the walk: the values combined go
//! through `MIN`/`MAX` and an exact, commutative `F⊕` ([`AggFunc::apply`]
//! over [`Rational`]s), which is why a warm index, whose interner assigned
//! ids in arrival order, answers exactly as a cold one. The only
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
#[derive(Clone, Copy, Debug)]
enum LeafTerm {
    Const(Rational),
    Slot(usize),
}

/// The memoised recursion of the module docs over a [`Join`]: one bound of
/// a query per group — the Theorem 6.1 / 7.11 rewriting
/// ([`BoundEvaluator::rewriting`]) or the Theorem 7.10 extremum
/// ([`BoundEvaluator::extremum`]) — or, with a constant leaf, certainty
/// ([`BoundEvaluator::certainty`]) and existence.
///
/// One evaluator answers any number of groups and keeps its memo across
/// them; the plan executor builds one per bound per worker.
pub struct BoundEvaluator<'j, 'a> {
    join: &'j Join<'a>,
    leaf: LeafTerm,
    combine: AggFunc,
    choice: Choice,
    /// Whether a block must pass the ∀embedding condition (the rewriting)
    /// or every embedding counts (the extremum).
    forall: bool,
    /// Whether the first value found decides a level: every leaf is one
    /// constant and `combine` is `MIN` or `MAX`, so every value is it.
    first_decides: bool,
    /// The certainty instance an extremum's value is an answer only under.
    certainty: Option<Box<BoundEvaluator<'j, 'a>>>,
    memo: LevelMemo<Option<Rational>>,
    /// Sub-problems evaluated (memo misses), per level.
    evaluated: Vec<usize>,
    /// Pending branch values, shared by the whole recursion: each call pops
    /// what it pushed.
    branches: Vec<Rational>,
    patterns: Patterns,
    trail: Vec<usize>,
}

impl<'j, 'a> BoundEvaluator<'j, 'a> {
    /// The Theorem 6.1 / 7.11 rewriting: `combine` aggregates independent
    /// branches, `choice` resolves the alternatives within a block.
    ///
    /// # Panics
    /// Panics if the aggregated variable does not occur in the body.
    pub fn rewriting(
        join: &'j Join<'a>,
        term: &AggTerm,
        combine: AggFunc,
        choice: Choice,
    ) -> BoundEvaluator<'j, 'a> {
        BoundEvaluator::new(join, term, combine, choice, true)
    }

    /// The Theorem 7.10 extremum over all embeddings — `MIN(r)`'s GLB for
    /// [`Choice::Minimise`], `MAX(r)`'s LUB for [`Choice::Maximise`] — when
    /// the query is certain, else `None`.
    ///
    /// # Panics
    /// Panics if the aggregated variable does not occur in the body.
    pub fn extremum(join: &'j Join<'a>, term: &AggTerm, choice: Choice) -> BoundEvaluator<'j, 'a> {
        let combine = match choice {
            Choice::Minimise => AggFunc::Min,
            Choice::Maximise => AggFunc::Max,
        };
        let mut extremum = BoundEvaluator::new(join, term, combine, choice, false);
        extremum.certainty = Some(Box::new(BoundEvaluator::certainty(join)));
        extremum
    }

    /// `CERTAINTY` of the body's suffixes: the rewriting of a constant under
    /// `MAX`, whose value exists exactly when `F_ℓ ∧ ... ∧ F_n` is certain.
    /// [`BoundEvaluator::bound`] is `Some` exactly for a certain group.
    pub fn certainty(join: &'j Join<'a>) -> BoundEvaluator<'j, 'a> {
        let one = AggTerm::Const(Rational::ONE);
        BoundEvaluator::new(join, &one, AggFunc::Max, Choice::Maximise, true)
    }

    /// Existence of an embedding: the extremum of a constant, ungated, whose
    /// value exists exactly when the levels from `ℓ` on extend the slots.
    pub(crate) fn existence(join: &'j Join<'a>) -> BoundEvaluator<'j, 'a> {
        let one = AggTerm::Const(Rational::ONE);
        BoundEvaluator::new(join, &one, AggFunc::Max, Choice::Maximise, false)
    }

    fn new(
        join: &'j Join<'a>,
        term: &AggTerm,
        combine: AggFunc,
        choice: Choice,
        forall: bool,
    ) -> BoundEvaluator<'j, 'a> {
        let leaf = match term {
            AggTerm::Const(c) => LeafTerm::Const(*c),
            AggTerm::Var(v) => {
                LeafTerm::Slot(join.compiled().table().slot(v).unwrap_or_else(|| {
                    panic!("aggregated variable {v} does not occur in the body")
                }))
            }
        };
        let keys = join
            .compiled()
            .relevant_slots()
            .into_iter()
            .map(|mut slots| {
                if let LeafTerm::Slot(s) = leaf {
                    if !slots.contains(&s) {
                        slots.push(s);
                    }
                }
                slots
            })
            .collect::<Vec<_>>();
        BoundEvaluator {
            join,
            leaf,
            combine,
            choice,
            forall,
            first_decides: matches!(leaf, LeafTerm::Const(_))
                && matches!(combine, AggFunc::Min | AggFunc::Max),
            certainty: None,
            evaluated: vec![0; keys.len()],
            memo: LevelMemo::new(keys),
            branches: Vec::new(),
            patterns: Patterns::default(),
            trail: Vec::new(),
        }
    }

    /// The body the evaluator walks.
    pub(crate) fn join(&self) -> &'j Join<'a> {
        self.join
    }

    /// The bound of the group fixed by `base` (free variables bound to the
    /// group key; empty for a closed query). `None` is the answer `⊥`: the
    /// group's body is not certain.
    pub fn bound(&mut self, base: &Valuation) -> Option<Rational> {
        let mut slots = self.join.slots_of(base);
        let mut level0 = Vec::new();
        self.join.level0_blocks(&slots, &mut level0);
        self.bound_ids(&mut slots, &level0)
    }

    /// How many sub-problems rooted at `level` the evaluator has computed —
    /// memo misses, summed over every group it answered. Level 0 is the
    /// group itself, evaluated once per call.
    pub fn evaluated(&self, level: usize) -> usize {
        self.evaluated.get(level).copied().unwrap_or(0)
    }

    /// The sub-problems evaluated below level 0, over every level: the
    /// executor's measure of work done.
    pub(crate) fn work(&self) -> usize {
        self.evaluated[1..].iter().sum()
    }

    /// [`BoundEvaluator::bound`] over the join's id slot vector, whose
    /// level-0 blocks (those its key pattern admits under `base`) the caller
    /// looked up — once for both bounds of a group. `base` is restored
    /// before returning.
    pub(crate) fn bound_ids(
        &mut self,
        base: &mut [u32],
        level0: &[&IndexedBlock],
    ) -> Option<Rational> {
        // Level 0 is not memoised: its key holds the group key, which no
        // other call repeats.
        if let Some(certainty) = &mut self.certainty {
            certainty.bound_ids(base, level0)?;
        }
        self.evaluated[0] += 1;
        self.evaluate(0, base, level0.iter().copied())
    }

    /// Whether `value(level)` exists under `slots`, through the memo: for
    /// the certainty instance, whether `F_ℓ ∧ ... ∧ F_n` is certain (with
    /// the key of `level` bound, the ∀embedding condition of its block); for
    /// the existence instance, whether `slots` extends to an embedding.
    pub(crate) fn holds(&mut self, level: usize, slots: &mut [u32]) -> bool {
        self.value(level, slots).is_some()
    }

    /// `value(level)` under `slots`, through the memo.
    fn value(&mut self, level: usize, slots: &mut [u32]) -> Option<Rational> {
        let join = self.join;
        if level == join.len() {
            let leaf = match self.leaf {
                LeafTerm::Const(c) => c,
                LeafTerm::Slot(s) => join
                    .index()
                    .interner()
                    .value(slots[s])
                    .as_num()
                    .expect("the aggregated variable is bound to a number"),
            };
            return self.combine.apply(&[leaf]);
        }
        let entry = match self.memo.probe(level, slots, None) {
            Ok(value) => return value,
            Err(entry) => entry,
        };
        self.evaluated[level] += 1;
        let pattern = self.patterns.take(join, level, slots);
        let value = self.evaluate(level, slots, join.blocks(level, &pattern));
        self.patterns.give(level, pattern);
        self.memo.settle(level, entry, value);
        value
    }

    /// One step of the induction (see the module docs) over the blocks
    /// `level`'s key pattern admits, uncached.
    fn evaluate<'b>(
        &mut self,
        level: usize,
        slots: &mut [u32],
        blocks: impl IntoIterator<Item = &'b IndexedBlock>,
    ) -> Option<Rational> {
        let join = self.join;
        let mark = self.branches.len();
        for block in blocks {
            let key_mark = self.trail.len();
            if join.bind_key(level, block, slots, &mut self.trail) {
                let best = self.alternatives(level, block, slots);
                self.branches.extend(best);
            }
            unwind(slots, &mut self.trail, key_mark);
            if self.first_decides && self.branches.len() > mark {
                break;
            }
        }
        let value = (self.branches.len() > mark)
            .then(|| self.combine.apply(&self.branches[mark..]))
            .flatten();
        self.branches.truncate(mark);
        value
    }

    /// The alternatives of one block (its key bound in `slots`) resolved
    /// with the choice. For the rewriting, `None` unless **every** fact of
    /// the block matches and has a value: that is the ∀embedding condition
    /// of the block — `F_ℓ ∧ ... ∧ F_n` certain with its key fixed — since a
    /// suffix has a value exactly when it is certain (by the induction of the
    /// module docs). For the extremum, the best of the facts that have a
    /// value.
    fn alternatives(
        &mut self,
        level: usize,
        block: &IndexedBlock,
        slots: &mut [u32],
    ) -> Option<Rational> {
        let join = self.join;
        let mut best: Option<Rational> = None;
        for row in 0..block.cols.rows() {
            let mark = self.trail.len();
            let value = match join.match_row(level, block, row, slots, &mut self.trail) {
                true => self.value(level + 1, slots),
                false => None,
            };
            unwind(slots, &mut self.trail, mark);
            match value {
                Some(v) if self.first_decides && !self.forall => return Some(v),
                Some(v) => best = Some(best.map_or(v, |b| self.choice.pick(b, v))),
                None if self.forall => return None,
                None => {}
            }
        }
        best
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

    /// Runs the executor's evaluators by hand, beside the boundary analysis
    /// that counts the embeddings and ∀embeddings.
    fn bounds(datalog: &str, db: &DatabaseInstance, combine: AggFunc, choice: Choice) -> Bounds {
        let q = PreparedAggQuery::new(&parse_agg_query(datalog).unwrap(), db.schema()).unwrap();
        let index = DbIndex::new(db);
        let join = Join::new(q.body.compiled_levels(), &index);
        let base = Valuation::new();
        let analysis = analyse_group(&mut BoundEvaluator::certainty(&join), &base);
        let term = &q.normalised.term;
        let extremum = |choice| BoundEvaluator::extremum(&join, term, choice).bound(&base);
        Bounds {
            certain: analysis.certain,
            embeddings: analysis.embeddings.len(),
            forall_embeddings: analysis.forall_embeddings.len(),
            optimal: BoundEvaluator::rewriting(&join, term, combine, choice).bound(&base),
            extrema: (extremum(Choice::Minimise), extremum(Choice::Maximise)),
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
        // reach a `'d'` fact in every S block: certainty stops after those
        // two level-1 sub-problems, existence after the first, and the
        // `SUM(1)` rewriting of the same body walks all four.
        let db = db0();
        let q = PreparedAggQuery::new(
            &parse_agg_query("COUNT(*) <- R(x, y), S(y, z, 'd', r)").unwrap(),
            db.schema(),
        )
        .unwrap();
        let index = DbIndex::new(&db);
        let join = Join::new(q.body.compiled_levels(), &index);
        let base = Valuation::new();
        let mut certainty = BoundEvaluator::certainty(&join);
        let mut existence = BoundEvaluator::existence(&join);
        let term = &q.normalised.term;
        let mut count = BoundEvaluator::rewriting(&join, term, AggFunc::Sum, Choice::Minimise);
        assert!(certainty.bound(&base).is_some());
        assert!(existence.bound(&base).is_some());
        assert_eq!(count.bound(&base), Some(rat(2)));
        let level_1 = |e: &BoundEvaluator| e.evaluated(1);
        assert_eq!(
            (level_1(&certainty), level_1(&existence), level_1(&count)),
            (2, 1, 4)
        );
    }
}
