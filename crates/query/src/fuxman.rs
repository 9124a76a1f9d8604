//! Fuxman graphs and the classes Cforest / Caggforest (Appendix N of the
//! paper, after Fuxman's PhD thesis \[21\]).
//!
//! These classes underlie the ConQuer system and are used in Section 7.3 of
//! the paper, which refutes the claim that every query in Caggforest admits a
//! correct aggregate rewriting once negative numbers are allowed.

use crate::ast::{AggQuery, AggTerm, ConjunctiveQuery, Var};
use rcqa_data::{AggFunc, Schema};
use std::collections::BTreeSet;

/// The Fuxman graph of a self-join-free conjunctive query.
#[derive(Clone, Debug)]
pub struct FuxmanGraph {
    /// Adjacency: `edges[i]` contains `j` iff there is a directed edge from
    /// atom `i` to atom `j`.
    edges: Vec<BTreeSet<usize>>,
    /// For every edge `(i, j)`, whether the *full-join* condition
    /// `Key(S) \ free ⊆ notKey(R)` holds.
    full_join: Vec<Vec<bool>>,
    n: usize,
}

impl FuxmanGraph {
    /// Builds the Fuxman graph of `query` (key positions from `schema`).
    pub fn new(query: &ConjunctiveQuery, schema: &Schema) -> FuxmanGraph {
        let atoms = query.atoms();
        let n = atoms.len();
        let free: BTreeSet<Var> = query.free_vars().iter().cloned().collect();
        let key_len = |i: usize| {
            schema
                .signature(atoms[i].relation())
                .map(|s| s.key_len())
                .unwrap_or(atoms[i].arity())
        };
        let mut edges = vec![BTreeSet::new(); n];
        let mut full_join = vec![vec![false; n]; n];
        for i in 0..n {
            let non_key_bound: BTreeSet<Var> = atoms[i]
                .non_key_vars(key_len(i))
                .into_iter()
                .filter(|v| !free.contains(v))
                .collect();
            for j in 0..n {
                if i == j {
                    continue;
                }
                let shares = atoms[j].vars().iter().any(|v| non_key_bound.contains(v));
                if shares {
                    edges[i].insert(j);
                    let key_j_minus_free: BTreeSet<Var> = atoms[j]
                        .key_vars(key_len(j))
                        .into_iter()
                        .filter(|v| !free.contains(v))
                        .collect();
                    full_join[i][j] = key_j_minus_free.is_subset(&non_key_bound);
                }
            }
        }
        FuxmanGraph {
            edges,
            full_join,
            n,
        }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` if the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Returns `true` if there is an edge from atom `i` to atom `j`.
    pub fn has_edge(&self, i: usize, j: usize) -> bool {
        self.edges[i].contains(&j)
    }

    /// Returns `true` if the graph is a directed forest: no vertex has more
    /// than one incoming edge and there are no cycles.
    pub fn is_forest(&self) -> bool {
        let mut indegree = vec![0usize; self.n];
        for succ in &self.edges {
            for &j in succ {
                indegree[j] += 1;
                if indegree[j] > 1 {
                    return false;
                }
            }
        }
        // Cycle check via Kahn's algorithm.
        let mut order = 0;
        let mut avail: Vec<usize> = (0..self.n).filter(|&i| indegree[i] == 0).collect();
        let mut indeg = indegree;
        while let Some(i) = avail.pop() {
            order += 1;
            for &j in &self.edges[i] {
                indeg[j] -= 1;
                if indeg[j] == 0 {
                    avail.push(j);
                }
            }
        }
        order == self.n
    }

    /// Returns `true` if every edge satisfies the full-join condition
    /// `Key(S) \ free ⊆ notKey(R)`.
    pub fn all_joins_full(&self) -> bool {
        for i in 0..self.n {
            for &j in &self.edges[i] {
                if !self.full_join[i][j] {
                    return false;
                }
            }
        }
        true
    }
}

/// Returns `true` if the conjunctive query is in Fuxman's class Cforest
/// (Definition N.1): self-join-free, Fuxman graph is a directed forest, and
/// every edge is a full join.
pub fn is_cforest(query: &ConjunctiveQuery, schema: &Schema) -> bool {
    if !query.is_self_join_free() {
        return false;
    }
    let g = FuxmanGraph::new(query, schema);
    g.is_forest() && g.all_joins_full()
}

/// Returns `true` if the aggregation query is in the class Caggforest
/// (Definition N.1): the body is in Cforest and the aggregate is one of
/// MIN, MAX, SUM over a body variable, or COUNT(\*).
pub fn is_caggforest(query: &AggQuery, schema: &Schema) -> bool {
    if !is_cforest(&query.body, schema) {
        return false;
    }
    matches!(
        (&query.agg, &query.term),
        (AggFunc::Min | AggFunc::Max | AggFunc::Sum, AggTerm::Var(_)) | (AggFunc::Count, _)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Atom, Term};
    use rcqa_data::Signature;

    fn atom(rel: &str, vars: &[&str]) -> Atom {
        Atom::new(rel, vars.iter().map(|v| Term::var(*v)))
    }

    fn two_rel_schema() -> Schema {
        Schema::new()
            .with_relation("R", Signature::new(2, 1, []).unwrap())
            .with_relation("S", Signature::new(2, 1, [1]).unwrap())
    }

    #[test]
    fn full_join_is_cforest() {
        // R(x, y), S(y, r): the non-key y of R covers the whole key of S.
        let schema = two_rel_schema();
        let q = ConjunctiveQuery::boolean([atom("R", &["x", "y"]), atom("S", &["y", "r"])]);
        assert!(is_cforest(&q, &schema));
        let g = FuxmanGraph::new(&q, &schema);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
        assert!(g.is_forest());
        assert!(g.all_joins_full());
    }

    #[test]
    fn partial_join_is_not_cforest() {
        // R(x, y), S(y, z, r) with key(S) = {y, z}: the join only covers part
        // of S's key ("partial join"), which Cforest forbids but the paper's
        // rewriting handles.
        let schema = Schema::new()
            .with_relation("R", Signature::new(2, 1, []).unwrap())
            .with_relation("S", Signature::new(3, 2, [2]).unwrap());
        let q = ConjunctiveQuery::boolean([atom("R", &["x", "y"]), atom("S", &["y", "z", "r"])]);
        assert!(!is_cforest(&q, &schema));
        let g = FuxmanGraph::new(&q, &schema);
        assert!(g.has_edge(0, 1));
        assert!(!g.all_joins_full());
    }

    #[test]
    fn non_forest_rejected() {
        // Two parents pointing at the same child.
        let schema = Schema::new()
            .with_relation("R1", Signature::new(2, 1, []).unwrap())
            .with_relation("R2", Signature::new(2, 1, []).unwrap())
            .with_relation("S", Signature::new(1, 1, []).unwrap());
        let q = ConjunctiveQuery::boolean([
            atom("R1", &["x", "y"]),
            atom("R2", &["z", "y"]),
            atom("S", &["y"]),
        ]);
        let g = FuxmanGraph::new(&q, &schema);
        assert!(!g.is_forest());
        assert!(!is_cforest(&q, &schema));
    }

    #[test]
    fn caggforest_membership() {
        let schema = two_rel_schema();
        let body = ConjunctiveQuery::boolean([atom("R", &["x", "y"]), atom("S", &["y", "r"])]);
        let sum = AggQuery::closed(AggFunc::Sum, "r", body.clone());
        assert!(is_caggforest(&sum, &schema));
        let avg = AggQuery::closed(AggFunc::Avg, "r", body.clone());
        assert!(!is_caggforest(&avg, &schema));
        let count = AggQuery::new(
            AggFunc::Count,
            AggTerm::Const(rcqa_data::Rational::ONE),
            body.clone(),
        );
        assert!(is_caggforest(&count, &schema));
    }

    #[test]
    fn lemma_7_3_query_is_caggforest() {
        // g() := SUM(r) <- S1(x, c1), S2(y, c2), T(x, y, r) with T full-key on
        // (x, y). This is the Theorem 7.9 query: it *is* in Caggforest, which
        // is exactly why it refutes Fuxman's claim when -1 is allowed.
        let schema = Schema::new()
            .with_relation("S1", Signature::new(2, 1, []).unwrap())
            .with_relation("S2", Signature::new(2, 1, []).unwrap())
            .with_relation("T", Signature::new(3, 2, [2]).unwrap());
        let q = ConjunctiveQuery::boolean([
            Atom::new("S1", vec![Term::var("x"), Term::constant("c1")]),
            Atom::new("S2", vec![Term::var("y"), Term::constant("c2")]),
            Atom::new("T", vec![Term::var("x"), Term::var("y"), Term::var("r")]),
        ]);
        let g = FuxmanGraph::new(&q, &schema);
        // No atom has a bound non-key variable shared with another atom
        // (x and y are key variables of their atoms), so the graph has no edges.
        assert!(g.is_forest());
        assert!(is_cforest(&q, &schema));
        let sum = AggQuery::closed(AggFunc::Sum, "r", q);
        assert!(is_caggforest(&sum, &schema));
    }
}
