//! Aggregate operators and their algebraic properties.
//!
//! Section 5.1 of the paper defines (positive) aggregate operators as
//! functions from finite multisets of non-negative rationals to rationals,
//! and identifies two properties that drive the main separation theorem:
//! *monotonicity* and *associativity*. Section 7 additionally uses
//! *(bounded) descending chains* (a manifestation of non-monotonicity) and
//! *dual* operators (Definition 7.6) to treat least upper bounds.

use crate::instance::NumericDomain;
use crate::rational::Rational;
use std::collections::BTreeSet;
use std::fmt;

/// The aggregate symbols supported by the query language.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AggFunc {
    /// `SUM`
    Sum,
    /// `COUNT` (counts embeddings; equivalent to `SUM(1)`)
    Count,
    /// `MIN`
    Min,
    /// `MAX`
    Max,
    /// `AVG`
    Avg,
    /// `COUNT(DISTINCT r)`
    CountDistinct,
    /// `SUM(DISTINCT r)`
    SumDistinct,
    /// `PRODUCT`
    Product,
}

impl AggFunc {
    /// All supported aggregate symbols.
    pub const ALL: [AggFunc; 8] = [
        AggFunc::Sum,
        AggFunc::Count,
        AggFunc::Min,
        AggFunc::Max,
        AggFunc::Avg,
        AggFunc::CountDistinct,
        AggFunc::SumDistinct,
        AggFunc::Product,
    ];

    /// The SQL spelling of the aggregate symbol.
    pub fn name(&self) -> &'static str {
        match self {
            AggFunc::Sum => "SUM",
            AggFunc::Count => "COUNT",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
            AggFunc::Avg => "AVG",
            AggFunc::CountDistinct => "COUNT-DISTINCT",
            AggFunc::SumDistinct => "SUM-DISTINCT",
            AggFunc::Product => "PRODUCT",
        }
    }

    /// Parses an aggregate symbol name (case-insensitive).
    pub fn parse(s: &str) -> Option<AggFunc> {
        let u = s.trim().to_ascii_uppercase();
        Some(match u.as_str() {
            "SUM" => AggFunc::Sum,
            "COUNT" => AggFunc::Count,
            "MIN" => AggFunc::Min,
            "MAX" => AggFunc::Max,
            "AVG" => AggFunc::Avg,
            "COUNT-DISTINCT" | "COUNT_DISTINCT" | "COUNTD" => AggFunc::CountDistinct,
            "SUM-DISTINCT" | "SUM_DISTINCT" | "SUMD" => AggFunc::SumDistinct,
            "PRODUCT" | "PROD" => AggFunc::Product,
            _ => return None,
        })
    }

    /// Applies the aggregate to a non-empty multiset of values.
    ///
    /// Returns `None` for the empty multiset: the paper's problems
    /// `GLB-CQA`/`LUB-CQA` return the distinguished constant `⊥` whenever some
    /// repair yields the empty multiset, so the library never needs an
    /// `f0` convention.
    pub fn apply(&self, values: &[Rational]) -> Option<Rational> {
        if values.is_empty() {
            return None;
        }
        Some(match self {
            AggFunc::Sum => values.iter().fold(Rational::ZERO, |acc, v| acc + *v),
            AggFunc::Count => Rational::from(values.len()),
            AggFunc::Min => values.iter().copied().fold(values[0], Rational::min),
            AggFunc::Max => values.iter().copied().fold(values[0], Rational::max),
            AggFunc::Avg => {
                let sum = values.iter().fold(Rational::ZERO, |acc, v| acc + *v);
                sum / Rational::from(values.len())
            }
            AggFunc::CountDistinct => {
                let distinct: BTreeSet<Rational> = values.iter().copied().collect();
                Rational::from(distinct.len())
            }
            AggFunc::SumDistinct => {
                let distinct: BTreeSet<Rational> = values.iter().copied().collect();
                distinct.into_iter().fold(Rational::ZERO, |acc, v| acc + v)
            }
            AggFunc::Product => values.iter().fold(Rational::ONE, |acc, v| acc * *v),
        })
    }

    /// Returns `true` if the operator is *associative* in the sense of
    /// Section 5.1: `F(X ⊎ Y) = F({{F(X)}} ⊎ Y)` for non-empty `X`.
    pub fn is_associative(&self) -> bool {
        matches!(
            self,
            AggFunc::Sum | AggFunc::Min | AggFunc::Max | AggFunc::Product
        )
    }

    /// Returns `true` if the operator is *monotone* (Section 5.1) over the
    /// given numeric domain.
    ///
    /// `SUM` is monotone over `Q≥0` but not once a single negative number is
    /// allowed (Section 7.3); `MAX` and `COUNT` are monotone over any domain;
    /// `MIN`, `AVG`, `COUNT-DISTINCT`, `SUM-DISTINCT` and `PRODUCT` are not
    /// monotone over `Q≥0`.
    pub fn is_monotone(&self, domain: NumericDomain) -> bool {
        match self {
            AggFunc::Sum => domain == NumericDomain::NonNegative,
            AggFunc::Count => true,
            AggFunc::Max => true,
            AggFunc::Min
            | AggFunc::Avg
            | AggFunc::CountDistinct
            | AggFunc::SumDistinct
            | AggFunc::Product => false,
        }
    }

    /// Returns `true` if the operator is known to have a *descending chain*
    /// (Definition 7.1) over the given domain.
    pub fn has_descending_chain(&self, domain: NumericDomain) -> bool {
        match self {
            AggFunc::Avg | AggFunc::Product => true,
            AggFunc::Sum => domain == NumericDomain::Unconstrained,
            _ => false,
        }
    }
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// An aggregate operator: a symbol plus an optional *dual* marker.
///
/// The dual `F^dual(X) = -F(X)` (Definition 7.6) is how the paper reduces
/// `LUB-CQA` to `GLB-CQA` (Proposition 7.7).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct AggOp {
    /// The underlying aggregate symbol.
    pub func: AggFunc,
    /// Whether this is the dual operator `-F`.
    pub dual: bool,
}

impl AggOp {
    /// The (positive) operator for a symbol.
    pub fn positive(func: AggFunc) -> AggOp {
        AggOp { func, dual: false }
    }

    /// The dual operator for a symbol.
    pub fn dual_of(func: AggFunc) -> AggOp {
        AggOp { func, dual: true }
    }

    /// Applies the operator to a non-empty multiset (`None` for empty).
    pub fn apply(&self, values: &[Rational]) -> Option<Rational> {
        let v = self.func.apply(values)?;
        Some(if self.dual { -v } else { v })
    }
}

impl fmt::Display for AggOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.dual {
            write!(f, "{}^dual", self.func)
        } else {
            write!(f, "{}", self.func)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rational::{rat, ratio};
    use proptest::prelude::*;

    #[test]
    fn apply_basics() {
        let vals = [rat(5), rat(6), rat(7), rat(8)];
        assert_eq!(AggFunc::Sum.apply(&vals), Some(rat(26)));
        assert_eq!(AggFunc::Count.apply(&vals), Some(rat(4)));
        assert_eq!(AggFunc::Min.apply(&vals), Some(rat(5)));
        assert_eq!(AggFunc::Max.apply(&vals), Some(rat(8)));
        assert_eq!(AggFunc::Avg.apply(&vals), Some(ratio(13, 2)));
        assert_eq!(
            AggFunc::Product.apply(&[rat(2), rat(3), rat(4)]),
            Some(rat(24))
        );
        assert_eq!(AggFunc::Sum.apply(&[]), None);
    }

    #[test]
    fn distinct_variants() {
        let vals = [rat(3), rat(3), rat(4)];
        assert_eq!(AggFunc::CountDistinct.apply(&vals), Some(rat(2)));
        assert_eq!(AggFunc::SumDistinct.apply(&vals), Some(rat(7)));
        assert_eq!(AggFunc::Count.apply(&vals), Some(rat(3)));
        assert_eq!(AggFunc::Sum.apply(&vals), Some(rat(10)));
    }

    /// Example 5.1 of the paper: COUNT is not associative.
    #[test]
    fn example_5_1_count_not_associative() {
        let x = [rat(5), rat(6), rat(7)];
        let full = [rat(5), rat(6), rat(7), rat(8)];
        let nested = [AggFunc::Count.apply(&x).unwrap(), rat(8)];
        assert_eq!(AggFunc::Count.apply(&full), Some(rat(4)));
        assert_eq!(AggFunc::Count.apply(&nested), Some(rat(2)));
        assert!(!AggFunc::Count.is_associative());
        assert!(AggFunc::Sum.is_associative());
        assert!(AggFunc::Min.is_associative());
        assert!(AggFunc::Max.is_associative());
        assert!(!AggFunc::Avg.is_associative());
        assert!(!AggFunc::SumDistinct.is_associative());
    }

    /// Example 5.2 of the paper: MIN and COUNT-DISTINCT are not monotone.
    #[test]
    fn example_5_2_monotonicity() {
        let d = NumericDomain::NonNegative;
        assert!(AggFunc::Max.is_monotone(d));
        assert!(AggFunc::Sum.is_monotone(d));
        assert!(AggFunc::Count.is_monotone(d));
        assert!(!AggFunc::Min.is_monotone(d));
        assert!(!AggFunc::CountDistinct.is_monotone(d));
        assert!(!AggFunc::Product.is_monotone(d));
        // SUM loses monotonicity over unconstrained domains (Section 7.3).
        assert!(!AggFunc::Sum.is_monotone(NumericDomain::Unconstrained));
    }

    #[test]
    fn descending_chains() {
        let d = NumericDomain::NonNegative;
        assert!(AggFunc::Avg.has_descending_chain(d));
        assert!(AggFunc::Product.has_descending_chain(d));
        assert!(!AggFunc::Sum.has_descending_chain(d));
        assert!(AggFunc::Sum.has_descending_chain(NumericDomain::Unconstrained));
    }

    #[test]
    fn duals() {
        let dual_sum = AggOp::dual_of(AggFunc::Sum);
        assert_eq!(dual_sum.apply(&[rat(3), rat(4)]), Some(rat(-7)));
        assert_eq!(dual_sum.apply(&[]), None);
        assert_eq!(AggOp::positive(AggFunc::Max).apply(&[rat(3)]), Some(rat(3)));
        assert_eq!(dual_sum.to_string(), "SUM^dual");
    }

    #[test]
    fn parse_names() {
        assert_eq!(AggFunc::parse("sum"), Some(AggFunc::Sum));
        assert_eq!(AggFunc::parse(" MAX "), Some(AggFunc::Max));
        assert_eq!(
            AggFunc::parse("count-distinct"),
            Some(AggFunc::CountDistinct)
        );
        assert_eq!(AggFunc::parse("median"), None);
        for f in AggFunc::ALL {
            assert_eq!(AggFunc::parse(f.name()), Some(f));
        }
    }

    fn values(max_len: usize) -> impl Strategy<Value = Vec<Rational>> {
        proptest::collection::vec((0i64..50).prop_map(rat), 1..=max_len)
    }

    proptest! {
        /// Associativity property check for the operators we declare associative.
        #[test]
        fn prop_associativity_holds(x in values(5), y in values(5)) {
            for f in [AggFunc::Sum, AggFunc::Min, AggFunc::Max, AggFunc::Product] {
                let mut union = x.clone();
                union.extend(y.iter().copied());
                let lhs = f.apply(&union).unwrap();
                let mut nested = vec![f.apply(&x).unwrap()];
                nested.extend(y.iter().copied());
                let rhs = f.apply(&nested).unwrap();
                prop_assert_eq!(lhs, rhs, "operator {}", f);
            }
        }

        /// Monotonicity property check: pointwise increase plus extension never
        /// decreases the aggregate, for the operators we declare monotone.
        #[test]
        fn prop_monotonicity_holds(x in values(5), extra in values(3), bumps in proptest::collection::vec(0i64..10, 5)) {
            for f in [AggFunc::Sum, AggFunc::Count, AggFunc::Max] {
                let bumped: Vec<Rational> = x
                    .iter()
                    .enumerate()
                    .map(|(i, v)| *v + rat(bumps[i % bumps.len()]))
                    .collect();
                let mut extended = bumped.clone();
                extended.extend(extra.iter().copied());
                prop_assert!(f.apply(&x).unwrap() <= f.apply(&extended).unwrap(), "operator {}", f);
            }
        }
    }
}
