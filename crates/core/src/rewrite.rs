//! Symbolic construction of the AGGR\[FOL\] rewritings.
//!
//! This module produces the formulas promised by the paper:
//!
//! * the consistent first-order rewriting of an acyclic self-join-free body
//!   (used by Lemma 4.3 and the `⊥` test),
//! * the ∀embedding formula `φ(ū)` of Lemma 4.3,
//! * the GLB (and mirrored LUB) rewriting of Theorem 6.1, generalising the
//!   construction worked out on Fig. 5 of the paper,
//! * the simple extremum rewritings of Theorem 7.10 / 7.11 for MIN and MAX.
//!
//! Which of them answers a bound is not decided here: [`rewriting_for`] reads
//! the operator off the strategy table ([`BoundOp::choose`]) and builds that
//! operator's formula from its fields.
//!
//! The produced formulas can be pretty-printed (the practical analogue of
//! shipping SQL to a DBMS) and evaluated with [`rcqa_logic::Evaluator`], which
//! the test-suite uses to cross-check the operational evaluator on small
//! instances.
//!
//! Note on size: Theorem 1.1 shows a rewriting of at most quadratic length
//! exists. Our uniform construction re-embeds the ∀embedding formula once per
//! level and is therefore `O(|q|³)` in the worst case — still polynomial and
//! constructed in polynomial time; experiment E10 measures the actual growth.

use crate::glb::Choice;
use crate::plan::BoundOp;
use crate::prepared::{Level, PreparedAggQuery};
use rcqa_data::{AggFunc, AggOp, NumericDomain};
use rcqa_logic::{Formula, NumTerm, NumericalQuery};
use rcqa_query::{AggTerm, Atom, Term, Var};
use std::collections::{BTreeMap, BTreeSet};

/// A freshness counter for generated variable names.
#[derive(Default)]
struct Gensym(usize);

impl Gensym {
    fn fresh(&mut self, hint: &str) -> Var {
        self.0 += 1;
        Var::new(format!("{hint}__{}", self.0))
    }
}

/// Constructs the consistent first-order rewriting of the conjunction
/// `F_1 ∧ ... ∧ F_n` (atoms in attack-graph topological order), treating the
/// variables in `frozen` as constants (free variables of the produced
/// formula).
///
/// For every database instance `db` and valuation `θ` of the frozen
/// variables, the formula holds in `db` iff every repair of `db` satisfies
/// `∃(non-frozen vars) F_1 ∧ ... ∧ F_n` under `θ`.
pub fn certainty_rewriting(levels: &[Level], frozen: &BTreeSet<Var>) -> Formula {
    let mut gensym = Gensym::default();
    let atoms: Vec<(Atom, usize)> = levels.iter().map(|l| (l.atom.clone(), l.key_len)).collect();
    certain_rec(&atoms, &BTreeMap::new(), frozen, &mut gensym)
}

fn certain_rec(
    atoms: &[(Atom, usize)],
    subst: &BTreeMap<Var, Term>,
    bound: &BTreeSet<Var>,
    gensym: &mut Gensym,
) -> Formula {
    let Some(((atom, key_len), rest)) = atoms.split_first() else {
        return Formula::True;
    };
    let atom = atom.substitute(subst);
    let key_len = *key_len;

    // Variables of the atom that are not yet bound, split into key/non-key.
    let mut new_key_vars: Vec<Var> = Vec::new();
    let mut new_other_vars: Vec<Var> = Vec::new();
    for (p, term) in atom.terms().iter().enumerate() {
        if let Some(v) = term.as_var() {
            if bound.contains(v) || new_key_vars.contains(v) || new_other_vars.contains(v) {
                continue;
            }
            if p < key_len {
                new_key_vars.push(v.clone());
            } else {
                new_other_vars.push(v.clone());
            }
        }
    }

    // Fresh variables, one per non-key position, for the universal part.
    let fresh: Vec<Var> = (key_len..atom.arity())
        .map(|p| gensym.fresh(&format!("w{p}")))
        .collect();
    let universal_atom = Atom::new(
        atom.relation(),
        atom.terms()
            .iter()
            .take(key_len)
            .cloned()
            .chain(fresh.iter().map(|v| Term::Var(v.clone())))
            .collect::<Vec<Term>>(),
    );

    // Compatibility constraints and the substitution for the recursive call.
    let mut compat: Vec<Formula> = Vec::new();
    let mut rec_subst: BTreeMap<Var, Term> = subst.clone();
    let mut seen_new: BTreeMap<Var, Var> = BTreeMap::new();
    for (offset, p) in (key_len..atom.arity()).enumerate() {
        let fresh_var = &fresh[offset];
        match atom.term(p) {
            Term::Const(c) => compat.push(Formula::Eq(
                Term::Var(fresh_var.clone()),
                Term::Const(c.clone()),
            )),
            Term::Var(v) => {
                if bound.contains(v) || new_key_vars.contains(v) {
                    // Already determined (a constant from the rewriting's point
                    // of view, or fixed by the key of this atom).
                    compat.push(Formula::Eq(
                        Term::Var(fresh_var.clone()),
                        Term::Var(v.clone()),
                    ));
                } else if let Some(first) = seen_new.get(v) {
                    // Repeated new non-key variable within the atom.
                    compat.push(Formula::Eq(
                        Term::Var(fresh_var.clone()),
                        Term::Var(first.clone()),
                    ));
                } else {
                    seen_new.insert(v.clone(), fresh_var.clone());
                    rec_subst.insert(v.clone(), Term::Var(fresh_var.clone()));
                }
            }
        }
    }

    let mut rec_bound = bound.clone();
    rec_bound.extend(new_key_vars.iter().cloned());
    rec_bound.extend(fresh.iter().cloned());
    let inner = certain_rec(rest, &rec_subst, &rec_bound, gensym);

    let universal_part = Formula::forall(
        fresh.clone(),
        Formula::implies(
            Formula::Atom(universal_atom),
            Formula::and(compat.into_iter().chain([inner])),
        ),
    );

    Formula::exists(
        new_key_vars.into_iter().chain(new_other_vars),
        Formula::and([Formula::Atom(atom), universal_part]),
    )
}

/// Constructs the formula `φ(ū)` of Lemma 4.3: a valuation of `ū` satisfies it
/// iff it is a ∀embedding of the body.
pub fn forall_embedding_formula(levels: &[Level], frozen: &BTreeSet<Var>) -> Formula {
    let mut parts: Vec<Formula> = Vec::new();
    let mut bound: BTreeSet<Var> = frozen.clone();
    for (j, lvl) in levels.iter().enumerate() {
        let mut bound_j = bound.clone();
        bound_j.extend(lvl.new_key_vars.iter().cloned());
        // ω_{j+1}: certainty of the suffix with ū_j ∪ x̄_{j+1} frozen.
        let omega = certainty_rewriting(&levels[j..], &bound_j);
        parts.push(omega);
        parts.push(Formula::Atom(lvl.atom.clone()));
        bound.extend(lvl.new_key_vars.iter().cloned());
        bound.extend(lvl.new_other_vars.iter().cloned());
    }
    Formula::and(parts)
}

/// A constructed range-CQA rewriting.
#[derive(Clone, Debug)]
pub struct Rewriting {
    /// The consistent first-order rewriting of the body: the answer is `⊥`
    /// (for a group) exactly when this formula is false.
    pub certainty: Formula,
    /// The ∀embedding formula `φ(ū)` (Lemma 4.3).
    pub forall: Formula,
    /// The numerical term computing the bound, with the GROUP BY variables as
    /// its free variables.
    pub value: NumTerm,
    /// The GROUP BY variables.
    pub group_by: Vec<Var>,
}

impl Rewriting {
    /// Packages the rewriting as a numerical query guarded by the certainty
    /// formula (groups whose guard fails have answer `⊥`).
    pub fn as_numerical_query(&self) -> NumericalQuery {
        NumericalQuery {
            free_vars: self.group_by.clone(),
            term: self.value.clone(),
            guard: self.certainty.clone(),
        }
    }

    /// Total size (AST nodes) of the rewriting.
    pub fn size(&self) -> usize {
        self.certainty.size() + self.forall.size() + self.value.size()
    }
}

/// Which bound a rewriting computes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BoundKind {
    /// Greatest lower bound across repairs.
    Glb,
    /// Least upper bound across repairs.
    Lub,
}

/// The aggregate operator that resolves alternatives according to `choice`.
fn choice_op(choice: Choice) -> AggOp {
    AggOp::positive(match choice {
        Choice::Minimise => AggFunc::Min,
        Choice::Maximise => AggFunc::Max,
    })
}

/// What every rewriting of `prepared` shares — the `⊥` test, the ∀embedding
/// formula, the GROUP BY variables — with the aggregated term itself as its
/// `value`, for the caller to build on.
fn skeleton(prepared: &PreparedAggQuery) -> Rewriting {
    let levels = prepared.body.levels();
    let group_by = prepared.normalised.body.free_vars().to_vec();
    let frozen: BTreeSet<Var> = group_by.iter().cloned().collect();
    Rewriting {
        certainty: certainty_rewriting(levels, &frozen),
        forall: forall_embedding_formula(levels, &frozen),
        value: match &prepared.normalised.term {
            AggTerm::Var(v) => NumTerm::Var(v.clone()),
            AggTerm::Const(c) => NumTerm::Const(*c),
        },
        group_by,
    }
}

/// Constructs the Theorem 6.1-style rewriting for a prepared query with an
/// acyclic attack graph, combining independent branches with `combine` and
/// resolving same-key alternatives according to `choice`.
///
/// * `GLB` for a monotone, associative aggregate: `combine` = the aggregate,
///   `choice` = [`Choice::Minimise`] (Theorem 6.1).
/// * `LUB` for MIN-queries: `combine` = MIN, `choice` = [`Choice::Maximise`]
///   (Theorem 7.11 via order reversal).
pub fn construct_rewriting(
    prepared: &PreparedAggQuery,
    combine: AggFunc,
    choice: Choice,
) -> Rewriting {
    assert!(
        prepared.body.is_acyclic(),
        "rewritings exist only for acyclic attack graphs (Theorem 5.5)"
    );
    let levels = prepared.body.levels();
    // T_n: the aggregated term itself.
    let Rewriting {
        certainty,
        forall,
        value: mut term,
        group_by,
    } = skeleton(prepared);

    let choice_op = choice_op(choice);
    let combine_op = AggOp::positive(combine);

    // Walk levels from the innermost (F_n) outwards (F_1).
    for (l, lvl) in levels.iter().enumerate().rev() {
        // ψ_{ℓ+1}(ū_{ℓ+1}): the prefix extends to a ∀embedding.
        let later_vars: Vec<Var> = levels
            .iter()
            .skip(l + 1)
            .flat_map(|later| {
                later
                    .new_key_vars
                    .iter()
                    .chain(later.new_other_vars.iter())
                    .cloned()
            })
            .collect();
        let psi_full = Formula::exists(later_vars.clone(), forall.clone());
        // V_{ℓ+1}(ū_ℓ, x̄_{ℓ+1}) := choice over ȳ_{ℓ+1} of T_{ℓ+1}.
        let v_term = NumTerm::aggr(choice_op, lvl.new_other_vars.clone(), term, psi_full);
        // ψ^key_{ℓ+1}(ū_ℓ, x̄_{ℓ+1}): some extension of the key prefix is a
        // ∀embedding.
        let psi_key = Formula::exists(
            lvl.new_other_vars
                .iter()
                .cloned()
                .chain(later_vars)
                .collect::<Vec<Var>>(),
            forall.clone(),
        );
        // T_ℓ(ū_ℓ) := combine over x̄_{ℓ+1} of V_{ℓ+1}.
        term = NumTerm::aggr(combine_op, lvl.new_key_vars.clone(), v_term, psi_key);
    }

    Rewriting {
        certainty,
        forall,
        value: term,
        group_by,
    }
}

/// Constructs the simple extremum rewriting of Theorem 7.10 (GLB of MIN) or
/// its mirror (LUB of MAX): when the query is certain, the bound is just the
/// plain extremum of `r` — the one `choice` names — over all embeddings of the
/// body.
pub fn extremum_rewriting(prepared: &PreparedAggQuery, choice: Choice) -> Rewriting {
    let mut rewriting = skeleton(prepared);
    let body = prepared.normalised.body.atoms().iter().cloned();
    rewriting.value = NumTerm::aggr(
        choice_op(choice),
        prepared.body.all_vars(),
        rewriting.value,
        Formula::and(body.map(Formula::Atom)),
    );
    rewriting
}

/// The symbolic rewriting of the operator the strategy table
/// ([`BoundOp::choose`]) names for `bound` over `domain`, built from the
/// operator's own fields; `None` where the table says
/// [`BoundOp::ExactEnumeration`] — no rewriting is known, or the one that
/// exists for other premises is unsound here.
pub fn rewriting_for(
    prepared: &PreparedAggQuery,
    bound: BoundKind,
    domain: NumericDomain,
) -> Option<Rewriting> {
    match BoundOp::choose(prepared, bound, domain).0 {
        BoundOp::Rewrite { combine, choice } => {
            Some(construct_rewriting(prepared, combine, choice))
        }
        BoundOp::Extremum { choice } => Some(extremum_rewriting(prepared, choice)),
        BoundOp::ExactEnumeration => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcqa_data::{fact, rat, DatabaseInstance, Schema, Signature};
    use rcqa_logic::Evaluator;
    use rcqa_query::parse_agg_query;

    fn fig3_schema() -> Schema {
        Schema::new()
            .with_relation("R", Signature::new(2, 1, []).unwrap())
            .with_relation("S", Signature::new(4, 2, [3]).unwrap())
    }

    fn db0() -> DatabaseInstance {
        let mut db = DatabaseInstance::new(fig3_schema());
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

    fn prepared(text: &str, schema: &Schema) -> PreparedAggQuery {
        PreparedAggQuery::new(&parse_agg_query(text).unwrap(), schema).unwrap()
    }

    #[test]
    fn certainty_rewriting_matches_repairs_on_db0() {
        let db = db0();
        let q = prepared("SUM(r) <- R(x, y), S(y, z, 'd', r)", db.schema());
        let cert = certainty_rewriting(q.body.levels(), &BTreeSet::new());
        // Every repair of db0 satisfies the body, so the rewriting holds.
        let ev = Evaluator::new(&db);
        assert!(ev.eval_formula(&cert, &Default::default()));
        // Brute-force cross-check.
        let all_repairs_satisfy = db.repairs().all(|r| {
            let idx = crate::index::DbIndex::new(&r);
            !crate::forall::embeddings(q.body.levels(), &idx, &Default::default()).is_empty()
        });
        assert!(all_repairs_satisfy);

        // A query that is not certain: ask for products stocked in quantity 95
        // in James's town.
        let schema = Schema::new()
            .with_relation("Dealers", Signature::new(2, 1, []).unwrap())
            .with_relation("Stock", Signature::new(3, 2, [2]).unwrap());
        let mut db2 = DatabaseInstance::new(schema);
        db2.insert_all([
            fact!("Dealers", "James", "Boston"),
            fact!("Dealers", "James", "New York"),
            fact!("Stock", "Tesla Y", "New York", 95),
        ])
        .unwrap();
        let q2 = prepared(
            "SUM(y) <- Dealers('James', t), Stock(p, t, y)",
            db2.schema(),
        );
        let cert2 = certainty_rewriting(q2.body.levels(), &BTreeSet::new());
        let ev2 = Evaluator::new(&db2);
        assert!(!ev2.eval_formula(&cert2, &Default::default()));
    }

    #[test]
    fn forall_formula_selects_exactly_m0() {
        let db = db0();
        let q = prepared("SUM(r) <- R(x, y), S(y, z, 'd', r)", db.schema());
        let phi = forall_embedding_formula(q.body.levels(), &BTreeSet::new());
        let ev = Evaluator::new(&db);
        let analysis = crate::forall::analyse_with_index(&q.body, &crate::index::DbIndex::new(&db));
        // Every operational ∀embedding satisfies the formula, and every
        // operational embedding that is not a ∀embedding falsifies it.
        for emb in &analysis.embeddings {
            let by_formula = ev.eval_formula(&phi, emb);
            let by_operational = analysis.forall_embeddings.contains(emb);
            assert_eq!(by_formula, by_operational, "embedding {emb:?}");
        }
    }

    #[test]
    fn symbolic_glb_rewriting_agrees_with_exact_enumeration() {
        // Evaluating the nested AGGR[FOL] term with the active-domain
        // evaluator is exponential in the quantifier depth, so this
        // cross-check uses a trimmed version of db0.
        let mut db = DatabaseInstance::new(fig3_schema());
        db.insert_all([
            fact!("R", "a1", "b1"),
            fact!("R", "a1", "b2"),
            fact!("S", "b1", "c1", "d", 1),
            fact!("S", "b1", "c1", "d", 2),
            fact!("S", "b1", "c2", "d", 3),
            fact!("S", "b2", "c3", "d", 5),
        ])
        .unwrap();
        let q = prepared("SUM(r) <- R(x, y), S(y, z, 'd', r)", db.schema());
        let rewriting = rewriting_for(&q, BoundKind::Glb, NumericDomain::NonNegative).unwrap();
        let ev = Evaluator::new(&db);
        let rows = ev.eval_query(&rewriting.as_numerical_query());
        assert_eq!(rows.len(), 1);
        // Exact: the a1 block picks b1 or b2; b1 yields min(1,2) + 3 = 4,
        // b2 yields 5; the GLB is 4.
        assert_eq!(rows[0].1, Some(rat(4)));
        let exact = crate::exact::exact_bounds(&q, &db, 1 << 20).unwrap();
        assert_eq!(rows[0].1, exact.glb);
    }

    #[test]
    fn extremum_rewritings() {
        let db = db0();
        let q = prepared("MIN(r) <- R(x, y), S(y, z, 'd', r)", db.schema());
        let glb = rewriting_for(&q, BoundKind::Glb, NumericDomain::NonNegative).unwrap();
        let ev = Evaluator::new(&db);
        let rows = ev.eval_query(&glb.as_numerical_query());
        assert_eq!(rows[0].1, Some(rat(1)));

        let qmax = prepared("MAX(r) <- R(x, y), S(y, z, 'd', r)", db.schema());
        let lub = rewriting_for(&qmax, BoundKind::Lub, NumericDomain::NonNegative).unwrap();
        let rows = ev.eval_query(&lub.as_numerical_query());
        // The S-fact with value 8 has 'e' in the constant column, so it does
        // not embed; the plain maximum over embeddings is 7.
        assert_eq!(rows[0].1, Some(rat(7)));
    }

    #[test]
    fn no_rewriting_for_unsupported_cases() {
        let db = db0();
        let q = prepared("AVG(r) <- R(x, y), S(y, z, 'd', r)", db.schema());
        assert!(rewriting_for(&q, BoundKind::Glb, NumericDomain::NonNegative).is_none());
        let q = prepared("SUM(r) <- R(x, y), S(y, z, 'd', r)", db.schema());
        assert!(rewriting_for(&q, BoundKind::Lub, NumericDomain::NonNegative).is_none());
    }

    #[test]
    fn rewriting_size_is_polynomial_in_query_size() {
        // Chain queries R1(x1, x2), R2(x2, x3), ..., Rk(xk, xk+1) have acyclic
        // attack graphs; the rewriting size should grow polynomially (and the
        // certainty rewriting roughly quadratically).
        let mut sizes = Vec::new();
        for k in 1..=6usize {
            let mut schema = Schema::new();
            let mut atoms = Vec::new();
            for i in 0..k {
                schema.add_relation(format!("R{i}"), Signature::new(2, 1, [1]).unwrap());
                atoms.push(format!("R{i}(x{i}, x{})", i + 1));
            }
            let text = format!("SUM(x{k}) <- {}", atoms.join(", "));
            let q = PreparedAggQuery::new(&parse_agg_query(&text).unwrap(), &schema).unwrap();
            let rewriting = rewriting_for(&q, BoundKind::Glb, NumericDomain::NonNegative).unwrap();
            sizes.push((q.body.len(), rewriting.certainty.size(), rewriting.size()));
        }
        // Certainty rewriting grows and stays within a quadratic envelope.
        for (n, cert_size, _) in &sizes {
            assert!(
                *cert_size <= 40 * n * n + 40,
                "certainty size {cert_size} for n={n}"
            );
        }
        // Total rewriting size is monotonically increasing in query size.
        for w in sizes.windows(2) {
            assert!(w[1].2 > w[0].2);
        }
    }
}
