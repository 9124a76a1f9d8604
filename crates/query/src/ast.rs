//! Abstract syntax of conjunctive queries and aggregation queries
//! (the class AGGR\[sjfBCQ\] of Definition 5.4).

use crate::error::QueryError;
use rcqa_data::{AggFunc, Rational, Schema, Value};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// A comparison operator from the SQL surface. Both spellings of "not equal"
/// (`<>` and `!=`) normalise to the single [`CmpOp::Ne`] node at parse time,
/// so downstream layers never see the surface spelling.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `<>` / `!=`
    Ne,
}

impl CmpOp {
    /// Parses a surface spelling (`=`, `<`, `<=`, `>`, `>=`, `<>`, `!=`).
    pub fn parse(op: &str) -> Option<CmpOp> {
        match op {
            "=" => Some(CmpOp::Eq),
            "<" => Some(CmpOp::Lt),
            "<=" => Some(CmpOp::Le),
            ">" => Some(CmpOp::Gt),
            ">=" => Some(CmpOp::Ge),
            "<>" | "!=" => Some(CmpOp::Ne),
            _ => None,
        }
    }

    /// The canonical spelling (`Ne` renders as `<>`).
    pub fn symbol(&self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Ne => "<>",
        }
    }

    /// Whether `lhs OP rhs` holds given `lhs.cmp(&rhs)`.
    pub fn holds(&self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
            CmpOp::Ne => ord != Ordering::Equal,
        }
    }

    /// Whether the satisfying set `{x : x OP c}` is contiguous in the total
    /// value order (everything except `Ne`) — the precondition for answering
    /// the predicate with one ordered range seek instead of a filter scan.
    pub fn is_contiguous(&self) -> bool {
        !matches!(self, CmpOp::Ne)
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.symbol())
    }
}

/// A comparison predicate `v OP c` over a body variable, produced by the SQL
/// front-end for non-equality WHERE conditions (equality conditions are
/// applied by unification instead and never appear here).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VarPredicate {
    /// The body variable being constrained.
    pub var: Var,
    /// The comparison operator.
    pub op: CmpOp,
    /// The literal the variable is compared against.
    pub value: Value,
}

impl VarPredicate {
    /// Whether a concrete value satisfies the predicate, in the engine's
    /// total value order (numbers before text).
    pub fn holds_value(&self, v: &Value) -> bool {
        self.op.holds(v.cmp(&self.value))
    }
}

impl fmt::Display for VarPredicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.value {
            Value::Text(s) => write!(f, "{} {} '{s}'", self.var, self.op),
            other => write!(f, "{} {} {other}", self.var, self.op),
        }
    }
}

/// A variable.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(Arc<str>);

impl Var {
    /// Creates a variable with the given name.
    pub fn new(name: impl AsRef<str>) -> Var {
        Var(Arc::from(name.as_ref()))
    }

    /// The variable's name.
    pub fn name(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "?{}", self.0)
    }
}

impl From<&str> for Var {
    fn from(s: &str) -> Self {
        Var::new(s)
    }
}

/// A term: a variable or a constant.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// A variable.
    Var(Var),
    /// A constant.
    Const(Value),
}

impl Term {
    /// Creates a variable term.
    pub fn var(name: impl AsRef<str>) -> Term {
        Term::Var(Var::new(name))
    }

    /// Creates a constant term.
    pub fn constant(v: impl Into<Value>) -> Term {
        Term::Const(v.into())
    }

    /// Returns the variable, if this term is one.
    pub fn as_var(&self) -> Option<&Var> {
        match self {
            Term::Var(v) => Some(v),
            Term::Const(_) => None,
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Const(Value::Text(s)) => write!(f, "'{s}'"),
            Term::Const(c) => write!(f, "{c}"),
        }
    }
}

impl fmt::Debug for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl From<Var> for Term {
    fn from(v: Var) -> Self {
        Term::Var(v)
    }
}

/// An atom `R(u1, ..., un)` whose terms are variables or constants.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Atom {
    relation: Arc<str>,
    terms: Vec<Term>,
}

impl Atom {
    /// Creates an atom.
    pub fn new(relation: impl AsRef<str>, terms: impl IntoIterator<Item = Term>) -> Atom {
        Atom {
            relation: Arc::from(relation.as_ref()),
            terms: terms.into_iter().collect(),
        }
    }

    /// The relation name.
    pub fn relation(&self) -> &str {
        &self.relation
    }

    /// The terms of the atom, in positional order.
    pub fn terms(&self) -> &[Term] {
        &self.terms
    }

    /// The arity of the atom.
    pub fn arity(&self) -> usize {
        self.terms.len()
    }

    /// The term at position `p`.
    pub fn term(&self, p: usize) -> &Term {
        &self.terms[p]
    }

    /// All variables of the atom (`vars(F)`).
    pub fn vars(&self) -> BTreeSet<Var> {
        self.terms
            .iter()
            .filter_map(|t| t.as_var().cloned())
            .collect()
    }

    /// The variables occurring at primary-key positions (`Key(F)`), given the
    /// key length from the schema.
    pub fn key_vars(&self, key_len: usize) -> BTreeSet<Var> {
        self.terms
            .iter()
            .take(key_len)
            .filter_map(|t| t.as_var().cloned())
            .collect()
    }

    /// `notKey(F) := vars(F) \ Key(F)`.
    pub fn non_key_vars(&self, key_len: usize) -> BTreeSet<Var> {
        let key = self.key_vars(key_len);
        self.vars().difference(&key).cloned().collect()
    }

    /// Applies a substitution of variables by terms, returning a new atom.
    pub fn substitute(&self, subst: &BTreeMap<Var, Term>) -> Atom {
        Atom {
            relation: self.relation.clone(),
            terms: self
                .terms
                .iter()
                .map(|t| match t {
                    Term::Var(v) => subst.get(v).cloned().unwrap_or_else(|| t.clone()),
                    Term::Const(_) => t.clone(),
                })
                .collect(),
        }
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.relation)?;
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Debug for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// The body of a query: a conjunction of atoms, together with the set of
/// variables that are treated as *free* (Section 6.2: free variables are
/// handled as if they were constants).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConjunctiveQuery {
    atoms: Vec<Atom>,
    free_vars: Vec<Var>,
}

impl ConjunctiveQuery {
    /// Creates a Boolean conjunctive query (no free variables).
    pub fn boolean(atoms: impl IntoIterator<Item = Atom>) -> ConjunctiveQuery {
        ConjunctiveQuery {
            atoms: atoms.into_iter().collect(),
            free_vars: Vec::new(),
        }
    }

    /// Creates a conjunctive query with the given free variables.
    pub fn with_free_vars(
        atoms: impl IntoIterator<Item = Atom>,
        free_vars: impl IntoIterator<Item = Var>,
    ) -> ConjunctiveQuery {
        ConjunctiveQuery {
            atoms: atoms.into_iter().collect(),
            free_vars: free_vars.into_iter().collect(),
        }
    }

    /// The atoms of the body.
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// The free variables (GROUP BY variables for aggregation queries).
    pub fn free_vars(&self) -> &[Var] {
        &self.free_vars
    }

    /// All variables occurring in the body.
    pub fn vars(&self) -> BTreeSet<Var> {
        self.atoms.iter().flat_map(|a| a.vars()).collect()
    }

    /// Returns `true` if no two distinct atoms share a relation name.
    pub fn is_self_join_free(&self) -> bool {
        let mut seen = BTreeSet::new();
        self.atoms
            .iter()
            .all(|a| seen.insert(a.relation().to_string()))
    }

    /// Returns the unique atom with the given relation name, if any.
    pub fn atom_for(&self, relation: &str) -> Option<&Atom> {
        self.atoms.iter().find(|a| a.relation() == relation)
    }

    /// Returns a new query without the given atom.
    pub fn without_atom(&self, relation: &str) -> ConjunctiveQuery {
        ConjunctiveQuery {
            atoms: self
                .atoms
                .iter()
                .filter(|a| a.relation() != relation)
                .cloned()
                .collect(),
            free_vars: self.free_vars.clone(),
        }
    }

    /// Applies a substitution to every atom (free variables are untouched
    /// unless mentioned in the substitution).
    pub fn substitute(&self, subst: &BTreeMap<Var, Term>) -> ConjunctiveQuery {
        ConjunctiveQuery {
            atoms: self.atoms.iter().map(|a| a.substitute(subst)).collect(),
            free_vars: self.free_vars.clone(),
        }
    }

    /// Validates the query against a schema: every relation must be declared,
    /// arities must match, constants at numerical positions must be numeric,
    /// and the query must be self-join-free. Free variables must occur in the
    /// body.
    pub fn validate(&self, schema: &Schema) -> Result<(), QueryError> {
        if !self.is_self_join_free() {
            let mut seen = BTreeSet::new();
            for a in &self.atoms {
                if !seen.insert(a.relation().to_string()) {
                    return Err(QueryError::SelfJoin(a.relation().to_string()));
                }
            }
        }
        for atom in &self.atoms {
            let sig = schema
                .signature(atom.relation())
                .ok_or_else(|| QueryError::UnknownRelation(atom.relation().to_string()))?;
            if atom.arity() != sig.arity() {
                return Err(QueryError::ArityMismatch {
                    relation: atom.relation().to_string(),
                    expected: sig.arity(),
                    found: atom.arity(),
                });
            }
            for &p in sig.numeric_positions() {
                if let Term::Const(c) = atom.term(p) {
                    if !c.is_num() {
                        return Err(QueryError::NonNumericTerm {
                            relation: atom.relation().to_string(),
                            position: p,
                        });
                    }
                }
            }
        }
        let body_vars = self.vars();
        for v in &self.free_vars {
            if !body_vars.contains(v) {
                return Err(QueryError::FreeVariableNotInBody(v.name().to_string()));
            }
        }
        Ok(())
    }
}

impl fmt::Display for ConjunctiveQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, a) in self.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        Ok(())
    }
}

/// The term being aggregated: either a numeric variable of the body or a
/// constant rational number (as in `SUM(1)` for COUNT).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AggTerm {
    /// Aggregate over the values bound to a variable.
    Var(Var),
    /// Aggregate over a constant (every embedding contributes this value).
    Const(Rational),
}

impl fmt::Display for AggTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AggTerm::Var(v) => write!(f, "{v}"),
            AggTerm::Const(c) => write!(f, "{c}"),
        }
    }
}

/// An aggregation query `(x̄, AGG(r)) ← q(x̄, ȳ)` in the class AGGR\[sjfBCQ\]
/// (Definition 5.4 and Section 6.2).
///
/// The free variables `x̄` of the body play the role of SQL's `GROUP BY`
/// columns; when there are none the query is a *numerical query* `g()`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AggQuery {
    /// The aggregate symbol.
    pub agg: AggFunc,
    /// The aggregated term `r`.
    pub term: AggTerm,
    /// The body `q(x̄, ȳ)`.
    pub body: ConjunctiveQuery,
}

impl AggQuery {
    /// Creates an aggregation query.
    pub fn new(agg: AggFunc, term: AggTerm, body: ConjunctiveQuery) -> AggQuery {
        AggQuery { agg, term, body }
    }

    /// Convenience constructor for a closed query aggregating a variable.
    pub fn closed(agg: AggFunc, var: impl AsRef<str>, body: ConjunctiveQuery) -> AggQuery {
        AggQuery {
            agg,
            term: AggTerm::Var(Var::new(var)),
            body,
        }
    }

    /// The GROUP BY (free) variables.
    pub fn group_by(&self) -> &[Var] {
        self.body.free_vars()
    }

    /// Returns `true` if the query has no free variables (a numerical query
    /// `g()` in the paper's terminology).
    pub fn is_closed(&self) -> bool {
        self.body.free_vars().is_empty()
    }

    /// Validates the query against a schema. On top of the body validation,
    /// the aggregated variable (if any) must occur in the body at some
    /// numerical position.
    pub fn validate(&self, schema: &Schema) -> Result<(), QueryError> {
        self.body.validate(schema)?;
        if let AggTerm::Var(v) = &self.term {
            if !self.body.vars().contains(v) {
                return Err(QueryError::AggregatedVariableNotInBody(
                    v.name().to_string(),
                ));
            }
            let mut numeric = false;
            for atom in self.body.atoms() {
                if let Some(sig) = schema.signature(atom.relation()) {
                    for &p in sig.numeric_positions() {
                        if atom.term(p).as_var() == Some(v) {
                            numeric = true;
                        }
                    }
                }
            }
            if !numeric {
                return Err(QueryError::AggregatedVariableNotNumeric(
                    v.name().to_string(),
                ));
            }
        }
        Ok(())
    }

    /// Normalises a COUNT query into the equivalent `SUM(1)` query used by the
    /// paper's positive result (Theorem 6.1). Other queries are returned
    /// unchanged.
    pub fn normalise_count(&self) -> AggQuery {
        if self.agg == AggFunc::Count {
            AggQuery {
                agg: AggFunc::Sum,
                term: AggTerm::Const(Rational::ONE),
                body: self.body.clone(),
            }
        } else {
            self.clone()
        }
    }
}

impl fmt::Display for AggQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.group_by().is_empty() {
            write!(f, "{}({}) <- {}", self.agg, self.term, self.body)
        } else {
            write!(f, "(")?;
            for v in self.group_by() {
                write!(f, "{v}, ")?;
            }
            write!(f, "{}({})) <- {}", self.agg, self.term, self.body)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcqa_data::Signature;

    fn stock_schema() -> Schema {
        Schema::new()
            .with_relation("Dealers", Signature::new(2, 1, []).unwrap())
            .with_relation("Stock", Signature::new(3, 2, [2]).unwrap())
    }

    fn g0() -> AggQuery {
        // SUM(y) <- Dealers('Smith', t), Stock(p, t, y)
        let dealers = Atom::new("Dealers", vec![Term::constant("Smith"), Term::var("t")]);
        let stock = Atom::new(
            "Stock",
            vec![Term::var("p"), Term::var("t"), Term::var("y")],
        );
        AggQuery::closed(
            AggFunc::Sum,
            "y",
            ConjunctiveQuery::boolean([dealers, stock]),
        )
    }

    #[test]
    fn atom_vars_and_keys() {
        let stock = Atom::new(
            "Stock",
            vec![Term::var("p"), Term::var("t"), Term::var("y")],
        );
        assert_eq!(stock.vars().len(), 3);
        let key = stock.key_vars(2);
        assert!(key.contains(&Var::new("p")) && key.contains(&Var::new("t")));
        let nonkey = stock.non_key_vars(2);
        assert_eq!(nonkey.into_iter().collect::<Vec<_>>(), vec![Var::new("y")]);
    }

    #[test]
    fn substitute() {
        let stock = Atom::new(
            "Stock",
            vec![Term::var("p"), Term::var("t"), Term::var("y")],
        );
        let mut subst = BTreeMap::new();
        subst.insert(Var::new("t"), Term::constant("Boston"));
        let s2 = stock.substitute(&subst);
        assert_eq!(s2.term(1), &Term::constant("Boston"));
        assert_eq!(s2.term(0), &Term::var("p"));
    }

    #[test]
    fn query_validation() {
        let schema = stock_schema();
        let q = g0();
        assert!(q.validate(&schema).is_ok());
        assert!(q.is_closed());

        // Self-join is rejected.
        let a1 = Atom::new("Dealers", vec![Term::var("x"), Term::var("t")]);
        let a2 = Atom::new("Dealers", vec![Term::var("y"), Term::var("t")]);
        let sj = ConjunctiveQuery::boolean([a1, a2]);
        assert!(matches!(sj.validate(&schema), Err(QueryError::SelfJoin(_))));

        // Arity mismatch.
        let bad = ConjunctiveQuery::boolean([Atom::new("Dealers", vec![Term::var("x")])]);
        assert!(matches!(
            bad.validate(&schema),
            Err(QueryError::ArityMismatch { .. })
        ));

        // Unknown relation.
        let bad = ConjunctiveQuery::boolean([Atom::new("Nope", vec![Term::var("x")])]);
        assert!(matches!(
            bad.validate(&schema),
            Err(QueryError::UnknownRelation(_))
        ));

        // Aggregated variable must be numeric somewhere.
        let q = AggQuery::closed(
            AggFunc::Sum,
            "t",
            ConjunctiveQuery::boolean([Atom::new(
                "Dealers",
                vec![Term::constant("Smith"), Term::var("t")],
            )]),
        );
        assert!(matches!(
            q.validate(&schema),
            Err(QueryError::AggregatedVariableNotNumeric(_))
        ));

        // Aggregated variable must occur in the body.
        let q = AggQuery::closed(
            AggFunc::Sum,
            "zzz",
            ConjunctiveQuery::boolean([Atom::new(
                "Dealers",
                vec![Term::constant("Smith"), Term::var("t")],
            )]),
        );
        assert!(matches!(
            q.validate(&schema),
            Err(QueryError::AggregatedVariableNotInBody(_))
        ));
    }

    #[test]
    fn free_variables() {
        let schema = stock_schema();
        let dealers = Atom::new("Dealers", vec![Term::var("x"), Term::var("t")]);
        let stock = Atom::new(
            "Stock",
            vec![Term::var("p"), Term::var("t"), Term::var("y")],
        );
        let body = ConjunctiveQuery::with_free_vars([dealers, stock], [Var::new("x")]);
        let q = AggQuery::closed(AggFunc::Sum, "y", body);
        assert!(q.validate(&schema).is_ok());
        assert!(!q.is_closed());
        assert_eq!(q.group_by(), &[Var::new("x")]);

        let bad = ConjunctiveQuery::with_free_vars(
            [Atom::new("Dealers", vec![Term::var("a"), Term::var("b")])],
            [Var::new("zzz")],
        );
        assert!(matches!(
            bad.validate(&schema),
            Err(QueryError::FreeVariableNotInBody(_))
        ));
    }

    #[test]
    fn count_normalisation() {
        let q = AggQuery::new(
            AggFunc::Count,
            AggTerm::Const(Rational::ONE),
            g0().body.clone(),
        );
        let n = q.normalise_count();
        assert_eq!(n.agg, AggFunc::Sum);
        assert_eq!(n.term, AggTerm::Const(Rational::ONE));
        let sum = g0();
        assert_eq!(sum.normalise_count(), sum);
    }

    #[test]
    fn display() {
        let q = g0();
        assert_eq!(
            q.to_string(),
            "SUM(y) <- Dealers('Smith', t), Stock(p, t, y)"
        );
    }
}
