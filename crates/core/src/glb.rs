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
//! ## The recursion runs on id rows
//!
//! The ∀embeddings arrive as row indices into the executor's flat embedding
//! arena (fixed-width id rows over the closed body's slot table), and every level
//! groups them by sorting the index slice on the level's `x̄_ℓ`, then `ȳ_ℓ`,
//! **id** projections and walking the equal runs — no map, no allocation per
//! level. Raw id order is not value order (overlay ids are out of order), and
//! it does not need to be: the recursion only asks which rows *agree* on a
//! projection, id equality is value equality, and the branch values it then
//! combines go through `MIN`/`MAX` and an exact, commutative `F⊕`
//! ([`AggFunc::apply`] over [`Rational`]s), so the order in which groups are
//! visited cannot change the result — which is why a warm index, whose
//! interner assigned ids in arrival order, answers exactly as a cold one.
//! The only [`rcqa_data::Value`] read is the one [`Rational`] per leaf
//! (`Leaves::value`).

use crate::forall::{CompiledLevel, Valuation, VarTable};
use crate::ids::IdRows;
use rcqa_data::{AggFunc, Rational, Value, ValueInterner};
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
/// and the baselines; the plan executor reads leaves through `Leaves`).
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
#[derive(Debug)]
enum LeafTerm {
    Const(Rational),
    Slot(usize),
}

/// Reads embedding rows and the aggregated term's value under them: the one
/// place the bound computations touch a [`Value`].
#[derive(Debug)]
pub(crate) struct Leaves<'a> {
    embeddings: &'a IdRows,
    interner: &'a ValueInterner,
    term: LeafTerm,
}

impl<'a> Leaves<'a> {
    /// A reader for `term` over `embeddings`, whose rows are laid out by
    /// `table` and whose ids `interner` assigned.
    ///
    /// # Panics
    /// Panics if the aggregated variable has no slot in `table`.
    pub(crate) fn new(
        embeddings: &'a IdRows,
        table: &VarTable,
        term: &AggTerm,
        interner: &'a ValueInterner,
    ) -> Leaves<'a> {
        let term =
            match term {
                AggTerm::Const(c) => LeafTerm::Const(*c),
                AggTerm::Var(v) => LeafTerm::Slot(table.slot(v).unwrap_or_else(|| {
                    panic!("aggregated variable {v} does not occur in the body")
                })),
            };
        Leaves {
            embeddings,
            interner,
            term,
        }
    }

    /// The ids of embedding `row`.
    #[inline]
    fn row(&self, row: u32) -> &'a [u32] {
        self.embeddings.row(row as usize)
    }

    /// The ids of embedding `row` at `slots`.
    #[inline]
    fn project<'s>(&self, row: u32, slots: &'s [usize]) -> impl Iterator<Item = u32> + 's
    where
        'a: 's,
    {
        let ids = self.row(row);
        slots.iter().map(move |&s| ids[s])
    }

    /// The value of the aggregated term under embedding `row`.
    fn value(&self, row: u32) -> Rational {
        match self.term {
            LeafTerm::Const(c) => c,
            LeafTerm::Slot(s) => self
                .interner
                .value(self.row(row)[s])
                .as_num()
                .expect("the aggregated variable is bound to a number"),
        }
    }
}

/// Computes the optimal (minimal or maximal, per `choice`) aggregated value
/// over all maximal consistent subsets of the ∀embeddings `forall` (row
/// indices, reordered in place), combining independent branches with
/// `combine`. `levels` are the compiled levels of the body the rows range
/// over.
///
/// Returns `None` when the set of ∀embeddings is empty (which, for a certain
/// query, cannot happen).
pub(crate) fn optimal_aggregate(
    leaves: &Leaves<'_>,
    levels: &[CompiledLevel],
    forall: &mut [u32],
    combine: AggFunc,
    choice: Choice,
) -> Option<Rational> {
    if forall.is_empty() {
        return None;
    }
    let mut branches = Vec::new();
    Some(recurse(
        leaves,
        levels,
        forall,
        combine,
        choice,
        &mut branches,
    ))
}

/// One step of the induction: `rows` are the ∀embeddings extending the
/// current prefix, `levels` the levels still to resolve. `branches` is a
/// stack of pending branch values shared by the whole recursion (each call
/// pops what it pushed).
fn recurse(
    leaves: &Leaves<'_>,
    levels: &[CompiledLevel],
    rows: &mut [u32],
    combine: AggFunc,
    choice: Choice,
    branches: &mut Vec<Rational>,
) -> Rational {
    let Some((lvl, deeper)) = levels.split_first() else {
        // Base case of the induction in Appendix H.4: Ext(θ) = {θ} and the
        // F⊕-minimal value is F⊕({{θ(r)}}).
        return combine
            .apply(&[leaves.value(rows[0])])
            .expect("singleton aggregate");
    };
    let project = |row, slots| leaves.project(row, slots);
    let (keys, others) = (&lvl.new_key_slots[..], &lvl.new_other_slots[..]);
    rows.sort_unstable_by(|&a, &b| {
        project(a, keys)
            .chain(project(a, others))
            .cmp(project(b, keys).chain(project(b, others)))
    });
    let mark = branches.len();
    // Each run of equal x̄_{ℓ+1} is one (ℓ+1)-∀key-embedding γ_i extending the
    // current prefix.
    for block in rows.chunk_by_mut(|&a, &b| project(a, keys).eq(project(b, keys))) {
        // Within one key group, alternatives (distinct values of ȳ_{ℓ+1}) are
        // mutually exclusive: a repair picks exactly one fact of the block.
        let best = block
            .chunk_by_mut(|&a, &b| project(a, others).eq(project(b, others)))
            .map(|alternative| recurse(leaves, deeper, alternative, combine, choice, branches))
            .reduce(|a, b| choice.pick(a, b));
        branches.push(best.expect("non-empty key group"));
    }
    let value = combine
        .apply(&branches[mark..])
        .expect("non-empty branch values");
    branches.truncate(mark);
    value
}

/// Computes the plain (non-repair-aware) extremum of the aggregated term over
/// the embeddings `rows`: the value of `MIN(r)`'s GLB and `MAX(r)`'s LUB when
/// the query is certain (Theorem 7.10 and its mirror in Theorem 7.11).
pub(crate) fn global_extremum(
    leaves: &Leaves<'_>,
    rows: &[u32],
    maximise: bool,
) -> Option<Rational> {
    let values = rows.iter().map(|&r| leaves.value(r));
    if maximise {
        values.max()
    } else {
        values.min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forall::{for_each_embedding, forall_check, CertaintyChecker};
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
        /// `optimal_aggregate` over the ∀embeddings.
        optimal: Option<Rational>,
        /// `global_extremum` over all embeddings: (min, max).
        extrema: (Option<Rational>, Option<Rational>),
    }

    /// Runs the executor's id pipeline by hand — join into an arena,
    /// `ForallCheck`, then the bound functions of this module.
    fn bounds(datalog: &str, db: &DatabaseInstance, combine: AggFunc, choice: Choice) -> Bounds {
        let q = PreparedAggQuery::new(&parse_agg_query(datalog).unwrap(), db.schema()).unwrap();
        let index = DbIndex::new(db);
        let checker = CertaintyChecker::new(q.body.levels(), &index);
        let compiled = checker.compiled();
        let base = compiled.unbound_ids();
        let mut embeddings = IdRows::new(base.len());
        for_each_embedding(compiled, &index, &base, |theta| {
            embeddings.push(theta.iter().copied())
        });
        let rows: Vec<u32> = (0..embeddings.len() as u32).collect();
        let mut forall = Vec::new();
        let certain = forall_check(&checker, &base, &embeddings, &rows, true, &mut forall);
        let leaves = Leaves::new(
            &embeddings,
            compiled.table(),
            &q.normalised.term,
            index.interner(),
        );
        Bounds {
            certain,
            embeddings: rows.len(),
            forall_embeddings: forall.len(),
            optimal: optimal_aggregate(&leaves, compiled.levels(), &mut forall, combine, choice),
            extrema: (
                global_extremum(&leaves, &rows, false),
                global_extremum(&leaves, &rows, true),
            ),
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
}
