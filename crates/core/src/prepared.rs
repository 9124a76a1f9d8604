//! Query preparation: attack-graph analysis, topological sorting, and the
//! per-level variable structure used by Section 4 of the paper.
//!
//! For a topological sort `(F_1, ..., F_n)` of an acyclic attack graph, the
//! paper defines (Section 4):
//!
//! * `ū_ℓ` — all variables of `F_1, ..., F_ℓ`;
//! * `x̄_ℓ` — the variables of `Key(F_ℓ)` not occurring earlier;
//! * `ȳ_ℓ` — the variables of `notKey(F_ℓ)` not occurring earlier,
//!
//! so that `ū_ℓ = (ū_{ℓ-1}, x̄_ℓ, ȳ_ℓ)`. Free variables of the query are
//! treated as constants and excluded from all three.

use crate::error::CoreError;
use rcqa_data::{NumericDomain, Rational, Schema};
use rcqa_query::{
    AggQuery, AggTerm, Atom, AttackGraph, ConjunctiveQuery, QueryError, Var, VarPredicate,
};
use std::collections::BTreeSet;

/// The per-level variable structure for one atom of the topological sort.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Level {
    /// The atom `F_ℓ`.
    pub atom: Atom,
    /// Length of the primary key of the atom's relation.
    pub key_len: usize,
    /// `x̄_ℓ`: new key variables introduced at this level.
    pub new_key_vars: Vec<Var>,
    /// `ȳ_ℓ`: new non-key variables introduced at this level.
    pub new_other_vars: Vec<Var>,
    /// `ū_ℓ`: all (non-frozen) variables of `F_1, ..., F_ℓ`.
    pub prefix_vars: Vec<Var>,
}

/// A conjunctive-query body prepared for the operational algorithms: validated
/// against the schema, attack graph built, and (when acyclic) atoms arranged
/// in a topological sort with the per-level variable structure.
#[derive(Clone, Debug)]
pub struct PreparedBody {
    schema: Schema,
    body: ConjunctiveQuery,
    graph: AttackGraph,
    /// Topological sort as indices into `body.atoms()`, if the graph is
    /// acyclic.
    topo: Option<Vec<usize>>,
    /// Per-level structure, in topological order (empty when cyclic).
    levels: Vec<Level>,
}

impl PreparedBody {
    /// Prepares a query body: validates it and computes its attack graph and
    /// level structure.
    pub fn new(body: &ConjunctiveQuery, schema: &Schema) -> Result<PreparedBody, CoreError> {
        body.validate(schema)?;
        let graph = AttackGraph::new(body, schema);
        let topo = graph.topological_sort();
        let levels = match &topo {
            Some(order) => Self::build_levels(body, schema, order),
            None => Vec::new(),
        };
        Ok(PreparedBody {
            schema: schema.clone(),
            body: body.clone(),
            graph,
            topo,
            levels,
        })
    }

    fn build_levels(body: &ConjunctiveQuery, schema: &Schema, order: &[usize]) -> Vec<Level> {
        let frozen: BTreeSet<Var> = body.free_vars().iter().cloned().collect();
        let mut seen: BTreeSet<Var> = BTreeSet::new();
        let mut prefix: Vec<Var> = Vec::new();
        let mut levels = Vec::with_capacity(order.len());
        for &i in order {
            let atom = body.atoms()[i].clone();
            let key_len = schema
                .signature(atom.relation())
                .map(|s| s.key_len())
                .unwrap_or(atom.arity());
            let mut new_key_vars = Vec::new();
            let mut new_other_vars = Vec::new();
            // Preserve positional order for determinism.
            for (p, term) in atom.terms().iter().enumerate() {
                if let Some(v) = term.as_var() {
                    if frozen.contains(v) || seen.contains(v) {
                        continue;
                    }
                    if p < key_len {
                        if !new_key_vars.contains(v) {
                            new_key_vars.push(v.clone());
                        }
                    } else if !new_key_vars.contains(v) && !new_other_vars.contains(v) {
                        new_other_vars.push(v.clone());
                    }
                }
            }
            for v in new_key_vars.iter().chain(new_other_vars.iter()) {
                seen.insert(v.clone());
                prefix.push(v.clone());
            }
            levels.push(Level {
                atom,
                key_len,
                new_key_vars,
                new_other_vars,
                prefix_vars: prefix.clone(),
            });
        }
        levels
    }

    /// The schema the body was prepared against.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The original query body.
    pub fn body(&self) -> &ConjunctiveQuery {
        &self.body
    }

    /// The attack graph.
    pub fn attack_graph(&self) -> &AttackGraph {
        &self.graph
    }

    /// Returns `true` if the attack graph is acyclic.
    pub fn is_acyclic(&self) -> bool {
        self.topo.is_some()
    }

    /// The topological sort, if acyclic.
    pub fn topological_sort(&self) -> Option<&[usize]> {
        self.topo.as_deref()
    }

    /// The per-level structure, in topological order (empty if cyclic).
    pub fn levels(&self) -> &[Level] {
        &self.levels
    }

    /// Atoms in topological order (falls back to query order when cyclic).
    pub fn atoms_in_order(&self) -> Vec<Atom> {
        match &self.topo {
            Some(order) => order
                .iter()
                .map(|&i| self.body.atoms()[i].clone())
                .collect(),
            None => self.body.atoms().to_vec(),
        }
    }

    /// Number of atoms.
    pub fn len(&self) -> usize {
        self.body.atoms().len()
    }

    /// Returns `true` if the body has no atoms.
    pub fn is_empty(&self) -> bool {
        self.body.atoms().is_empty()
    }

    /// All non-frozen variables, in level order (`ū_n`).
    pub fn all_vars(&self) -> Vec<Var> {
        self.levels
            .last()
            .map(|l| l.prefix_vars.clone())
            .unwrap_or_default()
    }
}

/// A fully prepared aggregation query (COUNT normalised to SUM(1)).
#[derive(Clone, Debug)]
pub struct PreparedAggQuery {
    /// The original query as supplied by the user.
    pub original: AggQuery,
    /// The normalised query actually evaluated (COUNT → SUM(1)).
    pub normalised: AggQuery,
    /// The prepared body.
    pub body: PreparedBody,
    /// Level structure of the *open* body — the body with the GROUP BY
    /// variables un-frozen (the body itself for a closed query) — which
    /// enumerates every embedding of the body: candidate groups in one join
    /// pass, the delta enumeration, a repair's embeddings. Computed once here
    /// so evaluation never re-runs attack-graph analysis per call (let alone
    /// per group).
    open_levels: Vec<Level>,
}

impl PreparedAggQuery {
    /// Validates and prepares an aggregation query.
    pub fn new(query: &AggQuery, schema: &Schema) -> Result<PreparedAggQuery, CoreError> {
        query.validate(schema)?;
        let normalised = query.normalise_count();
        let body = PreparedBody::new(&normalised.body, schema)?;
        let open_levels = Self::build_open_levels(&body);
        Ok(PreparedAggQuery {
            original: query.clone(),
            normalised,
            body,
            open_levels,
        })
    }

    /// The numeric domain the *addends* of the normalised aggregate range
    /// over, on an instance whose numeric columns range over `instance`: the
    /// columns' own for an aggregated variable, the constant's sign for an
    /// aggregated constant (`COUNT` is `SUM(1)`). The one premise of the
    /// strategy table ([`crate::plan::BoundOp::choose`]) beyond the operator
    /// and the attack graph.
    pub fn addend_domain(&self, instance: NumericDomain) -> NumericDomain {
        match &self.normalised.term {
            AggTerm::Var(_) => instance,
            AggTerm::Const(c) if *c >= Rational::ZERO => NumericDomain::NonNegative,
            AggTerm::Const(_) => NumericDomain::Unconstrained,
        }
    }

    /// Refuses the first predicate whose variable occurs in no atom of the
    /// body: the one check [`crate::engine::RangeCqa::with_predicates`] and
    /// the exact oracle share.
    pub(crate) fn check_predicates(&self, predicates: &[VarPredicate]) -> Result<(), CoreError> {
        let atoms = self.normalised.body.atoms();
        let occurs = |v| {
            atoms
                .iter()
                .any(|a| a.terms().iter().any(|t| t.as_var() == Some(v)))
        };
        match predicates.iter().find(|p| !occurs(&p.var)) {
            Some(p) => Err(CoreError::Query(QueryError::Unsupported(format!(
                "predicate variable {} does not occur in the query body",
                p.var
            )))),
            None => Ok(()),
        }
    }

    /// The level structure of the open body: its topological sort, or — when
    /// its attack graph is cyclic — pseudo-levels in query order (enumeration
    /// needs no topological sort; only the atom and key length are used,
    /// the variable structure means nothing). One level per atom, always.
    pub fn open_levels(&self) -> &[Level] {
        &self.open_levels
    }

    fn build_open_levels(closed: &PreparedBody) -> Vec<Level> {
        let sorted = |body: &PreparedBody| body.is_acyclic().then(|| body.levels().to_vec());
        let atoms = closed.body.atoms();
        let open = if closed.body.free_vars().is_empty() {
            sorted(closed)
        } else {
            let open_body = ConjunctiveQuery::boolean(atoms.iter().cloned());
            PreparedBody::new(&open_body, &closed.schema)
                .ok()
                .and_then(|open| sorted(&open))
        };
        open.unwrap_or_else(|| {
            let query_order: Vec<usize> = (0..atoms.len()).collect();
            PreparedBody::build_levels(&closed.body, &closed.schema, &query_order)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcqa_data::Signature;
    use rcqa_query::parse_agg_query;

    fn fig3_schema() -> Schema {
        Schema::new()
            .with_relation("R", Signature::new(2, 1, []).unwrap())
            .with_relation("S", Signature::new(4, 2, [3]).unwrap())
    }

    #[test]
    fn levels_for_fig3_query() {
        // SUM(r) <- R(x, y), S(y, z, 'd', r)
        let q = parse_agg_query("SUM(r) <- R(x, y), S(y, z, 'd', r)").unwrap();
        let prepared = PreparedAggQuery::new(&q, &fig3_schema()).unwrap();
        let body = &prepared.body;
        assert!(body.is_acyclic());
        assert_eq!(body.topological_sort().unwrap(), &[0, 1]);
        let levels = body.levels();
        assert_eq!(levels.len(), 2);
        // Level 1: F_1 = R(x, y); x̄_1 = (x), ȳ_1 = (y).
        assert_eq!(levels[0].new_key_vars, vec![Var::new("x")]);
        assert_eq!(levels[0].new_other_vars, vec![Var::new("y")]);
        assert_eq!(levels[0].prefix_vars, vec![Var::new("x"), Var::new("y")]);
        // Level 2: F_2 = S(y, z, d, r); x̄_2 = (z), ȳ_2 = (r).
        assert_eq!(levels[1].new_key_vars, vec![Var::new("z")]);
        assert_eq!(levels[1].new_other_vars, vec![Var::new("r")]);
        assert_eq!(
            levels[1].prefix_vars,
            vec![Var::new("x"), Var::new("y"), Var::new("z"), Var::new("r")]
        );
        assert_eq!(body.all_vars().len(), 4);
    }

    #[test]
    fn frozen_free_variables_are_excluded() {
        let q = parse_agg_query("(x, SUM(r)) <- R(x, y), S(y, z, 'd', r)").unwrap();
        let prepared = PreparedAggQuery::new(&q, &fig3_schema()).unwrap();
        let levels = prepared.body.levels();
        // x is free, hence frozen: level 1 introduces only y.
        assert!(levels[0].new_key_vars.is_empty());
        assert_eq!(levels[0].new_other_vars, vec![Var::new("y")]);
        assert_eq!(prepared.body.all_vars().len(), 3);
    }

    #[test]
    fn count_is_normalised() {
        let q = parse_agg_query("COUNT(*) <- R(x, y), S(y, z, 'd', r)").unwrap();
        let prepared = PreparedAggQuery::new(&q, &fig3_schema()).unwrap();
        assert_eq!(prepared.original.agg, rcqa_data::AggFunc::Count);
        assert_eq!(prepared.normalised.agg, rcqa_data::AggFunc::Sum);
    }

    #[test]
    fn cyclic_body_has_no_levels() {
        let schema = Schema::new()
            .with_relation("R", Signature::new(2, 1, [1]).unwrap())
            .with_relation("S", Signature::new(2, 1, [1]).unwrap());
        let q = parse_agg_query("SUM(y) <- R(x, y), S(z, y)").unwrap();
        let prepared = PreparedAggQuery::new(&q, &schema).unwrap();
        assert!(!prepared.body.is_acyclic());
        assert!(prepared.body.levels().is_empty());
        assert_eq!(prepared.body.atoms_in_order().len(), 2);
    }

    #[test]
    fn invalid_query_is_rejected() {
        let q = parse_agg_query("SUM(r) <- R(x, y), Nope(z, r)").unwrap();
        assert!(PreparedAggQuery::new(&q, &fig3_schema()).is_err());
    }
}
