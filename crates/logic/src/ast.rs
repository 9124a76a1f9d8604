//! Abstract syntax of the aggregate logic AGGR\[FOL\] (Section 5.2 of the
//! paper, following Hella, Libkin, Nurmonen and Wong).
//!
//! AGGR\[FOL\] extends first-order logic over the database vocabulary with
//! numerical terms `Aggr_F ȳ [r, q(x̄, ȳ)]`, which aggregate the values of a
//! primitive numerical term `r` over all valuations of `ȳ` satisfying
//! `q(x̄, ȳ)`. The paper's rewritings (Fig. 5) are formulas of this logic;
//! evaluating them is what a SQL engine would do after translation.

use rcqa_data::{AggOp, Rational, Value};
use rcqa_query::{Atom, Term, Var};
use std::collections::BTreeSet;
use std::fmt;

/// A primitive or aggregate numerical term.
#[derive(Clone, Debug, PartialEq)]
pub enum NumTerm {
    /// A rational constant.
    Const(Rational),
    /// A numerical variable.
    Var(Var),
    /// An aggregate term `Aggr_F ȳ [r, φ(x̄, ȳ)]`: aggregate the value of `r`
    /// over all valuations of `ȳ` that satisfy `φ` (given values for the
    /// other free variables `x̄`).
    Aggr {
        /// The aggregate operator `F`.
        op: AggOp,
        /// The variables `ȳ` bound by the aggregation.
        bound: Vec<Var>,
        /// The aggregated primitive term `r`.
        arg: Box<NumTerm>,
        /// The formula `φ(x̄, ȳ)`.
        formula: Box<Formula>,
    },
}

impl NumTerm {
    /// Creates an aggregate term.
    pub fn aggr(
        op: AggOp,
        bound: impl IntoIterator<Item = Var>,
        arg: NumTerm,
        formula: Formula,
    ) -> NumTerm {
        NumTerm::Aggr {
            op,
            bound: bound.into_iter().collect(),
            arg: Box::new(arg),
            formula: Box::new(formula),
        }
    }

    /// Number of AST nodes (used to check the quadratic-size bound of
    /// Theorem 1.1).
    pub fn size(&self) -> usize {
        match self {
            NumTerm::Const(_) | NumTerm::Var(_) => 1,
            NumTerm::Aggr { arg, formula, .. } => 1 + arg.size() + formula.size(),
        }
    }

    /// Free variables of the term.
    pub fn free_vars(&self) -> BTreeSet<Var> {
        match self {
            NumTerm::Const(_) => BTreeSet::new(),
            NumTerm::Var(v) => std::iter::once(v.clone()).collect(),
            NumTerm::Aggr {
                bound,
                arg,
                formula,
                ..
            } => {
                let mut vars = formula.free_vars();
                vars.extend(arg.free_vars());
                for b in bound {
                    vars.remove(b);
                }
                vars
            }
        }
    }
}

impl fmt::Display for NumTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NumTerm::Const(c) => write!(f, "{c}"),
            NumTerm::Var(v) => write!(f, "{v}"),
            NumTerm::Aggr {
                op,
                bound,
                arg,
                formula,
            } => {
                write!(f, "Aggr[{op}]")?;
                if !bound.is_empty() {
                    write!(f, "(")?;
                    for (i, b) in bound.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{b}")?;
                    }
                    write!(f, ")")?;
                }
                write!(f, "[{arg}, {formula}]")
            }
        }
    }
}

/// A formula of AGGR\[FOL\].
#[derive(Clone, Debug, PartialEq)]
pub enum Formula {
    /// The constant true.
    True,
    /// The constant false.
    False,
    /// A relational atom `R(u1, ..., un)`.
    Atom(Atom),
    /// Equality of two (non-numeric or numeric) first-order terms.
    Eq(Term, Term),
    /// Comparison `t1 <= t2` between numerical terms.
    Leq(NumTerm, NumTerm),
    /// Comparison `t1 < t2` between numerical terms.
    Lt(NumTerm, NumTerm),
    /// Equality `t1 = t2` between numerical terms.
    NumEq(NumTerm, NumTerm),
    /// Negation.
    Not(Box<Formula>),
    /// Conjunction.
    And(Vec<Formula>),
    /// Disjunction.
    Or(Vec<Formula>),
    /// Implication.
    Implies(Box<Formula>, Box<Formula>),
    /// Existential quantification.
    Exists(Vec<Var>, Box<Formula>),
    /// Universal quantification.
    Forall(Vec<Var>, Box<Formula>),
}

impl Formula {
    /// Conjunction of the given formulas, flattening nested conjunctions and
    /// removing `True`.
    pub fn and(formulas: impl IntoIterator<Item = Formula>) -> Formula {
        let mut parts = Vec::new();
        for f in formulas {
            match f {
                Formula::True => {}
                Formula::And(inner) => parts.extend(inner),
                other => parts.push(other),
            }
        }
        match parts.len() {
            0 => Formula::True,
            1 => parts.pop().unwrap(),
            _ => Formula::And(parts),
        }
    }

    /// Disjunction of the given formulas, flattening nested disjunctions and
    /// removing `False`.
    pub fn or(formulas: impl IntoIterator<Item = Formula>) -> Formula {
        let mut parts = Vec::new();
        for f in formulas {
            match f {
                Formula::False => {}
                Formula::Or(inner) => parts.extend(inner),
                other => parts.push(other),
            }
        }
        match parts.len() {
            0 => Formula::False,
            1 => parts.pop().unwrap(),
            _ => Formula::Or(parts),
        }
    }

    /// Negation (a constructor taking the operand by value, not `ops::Not`).
    #[allow(clippy::should_implement_trait)]
    pub fn not(f: Formula) -> Formula {
        Formula::Not(Box::new(f))
    }

    /// Implication.
    pub fn implies(antecedent: Formula, consequent: Formula) -> Formula {
        Formula::Implies(Box::new(antecedent), Box::new(consequent))
    }

    /// Existential quantification (no-op if `vars` is empty).
    pub fn exists(vars: impl IntoIterator<Item = Var>, f: Formula) -> Formula {
        let vars: Vec<Var> = vars.into_iter().collect();
        if vars.is_empty() {
            f
        } else {
            Formula::Exists(vars, Box::new(f))
        }
    }

    /// Universal quantification (no-op if `vars` is empty).
    pub fn forall(vars: impl IntoIterator<Item = Var>, f: Formula) -> Formula {
        let vars: Vec<Var> = vars.into_iter().collect();
        if vars.is_empty() {
            f
        } else {
            Formula::Forall(vars, Box::new(f))
        }
    }

    /// Number of AST nodes (used to check the quadratic-size bound of
    /// Theorem 1.1).
    pub fn size(&self) -> usize {
        match self {
            Formula::True | Formula::False => 1,
            Formula::Atom(a) => 1 + a.arity(),
            Formula::Eq(_, _) => 3,
            Formula::Leq(a, b) | Formula::Lt(a, b) | Formula::NumEq(a, b) => {
                1 + a.size() + b.size()
            }
            Formula::Not(f) => 1 + f.size(),
            Formula::And(fs) | Formula::Or(fs) => 1 + fs.iter().map(Formula::size).sum::<usize>(),
            Formula::Implies(a, b) => 1 + a.size() + b.size(),
            Formula::Exists(vs, f) | Formula::Forall(vs, f) => 1 + vs.len() + f.size(),
        }
    }

    /// The free variables of the formula.
    pub fn free_vars(&self) -> BTreeSet<Var> {
        match self {
            Formula::True | Formula::False => BTreeSet::new(),
            Formula::Atom(a) => a.vars(),
            Formula::Eq(a, b) => {
                let mut s = BTreeSet::new();
                if let Some(v) = a.as_var() {
                    s.insert(v.clone());
                }
                if let Some(v) = b.as_var() {
                    s.insert(v.clone());
                }
                s
            }
            Formula::Leq(a, b) | Formula::Lt(a, b) | Formula::NumEq(a, b) => {
                let mut s = a.free_vars();
                s.extend(b.free_vars());
                s
            }
            Formula::Not(f) => f.free_vars(),
            Formula::And(fs) | Formula::Or(fs) => fs.iter().flat_map(Formula::free_vars).collect(),
            Formula::Implies(a, b) => {
                let mut s = a.free_vars();
                s.extend(b.free_vars());
                s
            }
            Formula::Exists(vs, f) | Formula::Forall(vs, f) => {
                let mut s = f.free_vars();
                for v in vs {
                    s.remove(v);
                }
                s
            }
        }
    }
}

fn fmt_var_list(f: &mut fmt::Formatter<'_>, vars: &[Var]) -> fmt::Result {
    for (i, v) in vars.iter().enumerate() {
        if i > 0 {
            write!(f, " ")?;
        }
        write!(f, "{v}")?;
    }
    Ok(())
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Formula::True => write!(f, "true"),
            Formula::False => write!(f, "false"),
            Formula::Atom(a) => write!(f, "{a}"),
            Formula::Eq(a, b) => write!(f, "{a} = {b}"),
            Formula::Leq(a, b) => write!(f, "{a} <= {b}"),
            Formula::Lt(a, b) => write!(f, "{a} < {b}"),
            Formula::NumEq(a, b) => write!(f, "{a} = {b}"),
            Formula::Not(inner) => write!(f, "NOT ({inner})"),
            Formula::And(fs) => {
                write!(f, "(")?;
                for (i, part) in fs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " AND ")?;
                    }
                    write!(f, "{part}")?;
                }
                write!(f, ")")
            }
            Formula::Or(fs) => {
                write!(f, "(")?;
                for (i, part) in fs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " OR ")?;
                    }
                    write!(f, "{part}")?;
                }
                write!(f, ")")
            }
            Formula::Implies(a, b) => write!(f, "({a} -> {b})"),
            Formula::Exists(vs, inner) => {
                write!(f, "EXISTS ")?;
                fmt_var_list(f, vs)?;
                write!(f, " ({inner})")
            }
            Formula::Forall(vs, inner) => {
                write!(f, "FORALL ")?;
                fmt_var_list(f, vs)?;
                write!(f, " ({inner})")
            }
        }
    }
}

/// A named numerical query: a numerical term together with the free variables
/// it reports (the GROUP BY columns), used as the output of the rewriting.
#[derive(Clone, Debug, PartialEq)]
pub struct NumericalQuery {
    /// The free (GROUP BY) variables, in output order.
    pub free_vars: Vec<Var>,
    /// The numerical term computing the answer for given values of the free
    /// variables.
    pub term: NumTerm,
    /// A guard formula over the free variables: the groups for which the term
    /// should be reported (for closed queries this is `True`).
    pub guard: Formula,
}

impl NumericalQuery {
    /// Creates a closed numerical query (no free variables).
    pub fn closed(term: NumTerm) -> NumericalQuery {
        NumericalQuery {
            free_vars: Vec::new(),
            term,
            guard: Formula::True,
        }
    }

    /// Total AST size of the query (term plus guard).
    pub fn size(&self) -> usize {
        self.term.size() + self.guard.size()
    }
}

impl fmt::Display for NumericalQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.free_vars.is_empty() {
            write!(f, "{}", self.term)
        } else {
            write!(f, "{{ (")?;
            for (i, v) in self.free_vars.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{v}")?;
            }
            write!(f, ", {}) | {} }}", self.term, self.guard)
        }
    }
}

/// Convenience helpers for constructing terms.
pub mod build {
    use super::*;

    /// A numerical variable term.
    pub fn nvar(name: &str) -> NumTerm {
        NumTerm::Var(Var::new(name))
    }

    /// A first-order variable term.
    pub fn var(name: &str) -> Term {
        Term::var(name)
    }

    /// A first-order constant term.
    pub fn constant(v: impl Into<Value>) -> Term {
        Term::constant(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcqa_data::{rat, AggFunc};

    fn atom(rel: &str, vars: &[&str]) -> Formula {
        Formula::Atom(Atom::new(rel, vars.iter().map(|v| Term::var(*v))))
    }

    #[test]
    fn builders_simplify() {
        assert_eq!(Formula::and([]), Formula::True);
        assert_eq!(Formula::or([]), Formula::False);
        assert_eq!(
            Formula::and([Formula::True, atom("R", &["x"])]),
            atom("R", &["x"])
        );
        let nested = Formula::and([
            Formula::And(vec![atom("R", &["x"]), atom("S", &["y"])]),
            atom("T", &["z"]),
        ]);
        assert!(matches!(nested, Formula::And(ref v) if v.len() == 3));
        assert_eq!(
            Formula::exists(Vec::<Var>::new(), atom("R", &["x"])),
            atom("R", &["x"])
        );
    }

    #[test]
    fn free_vars() {
        let f = Formula::exists(
            [Var::new("y")],
            Formula::and([atom("R", &["x", "y"]), atom("S", &["y", "z"])]),
        );
        let fv = f.free_vars();
        assert!(fv.contains(&Var::new("x")));
        assert!(fv.contains(&Var::new("z")));
        assert!(!fv.contains(&Var::new("y")));

        let t = NumTerm::aggr(
            AggOp::positive(AggFunc::Sum),
            [Var::new("y")],
            NumTerm::Var(Var::new("r")),
            atom("R", &["x", "y"]),
        );
        let fv = t.free_vars();
        assert!(fv.contains(&Var::new("x")));
        assert!(fv.contains(&Var::new("r")));
        assert!(!fv.contains(&Var::new("y")));
    }

    #[test]
    fn sizes() {
        let a = atom("R", &["x", "y"]);
        assert_eq!(a.size(), 3);
        let f = Formula::forall([Var::new("y")], Formula::implies(a.clone(), Formula::True));
        assert_eq!(f.size(), 1 + 1 + 1 + 3 + 1);
        let t = NumTerm::aggr(
            AggOp::positive(AggFunc::Sum),
            [Var::new("y")],
            NumTerm::Const(rat(1)),
            a,
        );
        assert_eq!(t.size(), 1 + 1 + 3);
    }

    #[test]
    fn display_formula() {
        let f = Formula::forall(
            [Var::new("y")],
            Formula::implies(atom("R", &["x", "y"]), atom("S", &["y"])),
        );
        assert_eq!(f.to_string(), "FORALL y ((R(x, y) -> S(y)))");
        let t = NumTerm::aggr(
            AggOp::positive(AggFunc::Sum),
            [Var::new("y")],
            NumTerm::Var(Var::new("r")),
            atom("R", &["y", "r"]),
        );
        assert_eq!(t.to_string(), "Aggr[SUM](y)[r, R(y, r)]");
        let q = NumericalQuery::closed(t);
        assert!(q.to_string().starts_with("Aggr[SUM]"));
    }
}
