//! Constants that may appear in database facts.
//!
//! The paper's domain `dom` contains arbitrary constants and includes the
//! non-negative rationals (Section 3). We model constants as either symbolic
//! text values or exact rationals. Ordering is total (numbers sort before
//! text), which is needed for the lexicographic tie-breaking order `⪯` used in
//! the rewriting of Fig. 5.

use crate::rational::Rational;
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// A constant from the database domain.
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum Value {
    /// A symbolic (non-numeric) constant such as `"Boston"` or `a1`.
    Text(Arc<str>),
    /// A numeric constant (exact rational).
    Num(Rational),
}

impl Value {
    /// Creates a symbolic constant.
    pub fn text(s: impl AsRef<str>) -> Value {
        Value::Text(Arc::from(s.as_ref()))
    }

    /// Creates a numeric constant from an integer.
    pub fn int(i: i64) -> Value {
        Value::Num(Rational::from_int(i))
    }

    /// Creates a numeric constant from a rational.
    pub fn num(r: Rational) -> Value {
        Value::Num(r)
    }

    /// Returns the numeric content, if this is a number.
    pub fn as_num(&self) -> Option<Rational> {
        match self {
            Value::Num(r) => Some(*r),
            Value::Text(_) => None,
        }
    }

    /// Returns `true` if this is a numeric constant.
    pub fn is_num(&self) -> bool {
        matches!(self, Value::Num(_))
    }

    /// A `u64` whose order **coarsens** value order: `a.order_prefix() <
    /// b.order_prefix()` implies `a < b`, and equal prefixes decide nothing.
    /// A bulk sort stores it beside each `&Value` and compares `(prefix,
    /// value)`, so most comparisons never follow the pointers.
    ///
    /// Text is its first eight bytes, big-endian and zero-padded (byte-wise
    /// string order, a proper prefix sorting first); every number is `0`,
    /// the least prefix, because numbers sort before text.
    pub fn order_prefix(&self) -> u64 {
        match self {
            Value::Num(_) => 0,
            Value::Text(s) => {
                let mut head = [0u8; 8];
                let n = s.len().min(8);
                head[..n].copy_from_slice(&s.as_bytes()[..n]);
                u64::from_be_bytes(head)
            }
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Num(a), Value::Num(b)) => a.cmp(b),
            (Value::Text(a), Value::Text(b)) => a.cmp(b),
            (Value::Num(_), Value::Text(_)) => Ordering::Less,
            (Value::Text(_), Value::Num(_)) => Ordering::Greater,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Text(s) => write!(f, "{s}"),
            Value::Num(r) => write!(f, "{r}"),
        }
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Text(s) => write!(f, "{s:?}"),
            Value::Num(r) => write!(f, "{r}"),
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::text(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Text(Arc::from(s.as_str()))
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::int(i)
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::int(i as i64)
    }
}

impl From<Rational> for Value {
    fn from(r: Rational) -> Self {
        Value::Num(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rational::{rat, ratio};
    use proptest::prelude::*;

    #[test]
    fn constructors_and_accessors() {
        let t = Value::text("Boston");
        assert_eq!(t.as_num(), None);
        assert!(!t.is_num());

        let n = Value::int(35);
        assert_eq!(n.as_num(), Some(rat(35)));
        assert!(n.is_num());
    }

    #[test]
    fn ordering_numbers_before_text() {
        let mut vals = vec![
            Value::text("a"),
            Value::int(5),
            Value::text("b"),
            Value::int(2),
        ];
        vals.sort();
        assert_eq!(
            vals,
            vec![
                Value::int(2),
                Value::int(5),
                Value::text("a"),
                Value::text("b")
            ]
        );
    }

    proptest! {
        /// `order_prefix` may only ever agree with `cmp` or abstain. The
        /// alphabet is three bytes (one of them NUL, the padding byte) and
        /// lengths straddle the eight-byte window, so draws share long
        /// prefixes, end inside the window, and differ only beyond it.
        #[test]
        fn order_prefix_coarsens_value_order(
            draws in proptest::collection::vec(
                (0u8..3, -2i64..3, proptest::collection::vec(0u8..3, 0..12)),
                2..10,
            ),
        ) {
            let values: Vec<Value> = draws
                .into_iter()
                .map(|(kind, n, bytes)| {
                    if kind == 0 {
                        Value::int(n)
                    } else {
                        let alphabet = ['\0', 'a', 'b'];
                        let text: String = bytes.iter().map(|&b| alphabet[usize::from(b)]).collect();
                        Value::text(text)
                    }
                })
                .collect();
            for a in &values {
                for b in &values {
                    let by_prefix = a.order_prefix().cmp(&b.order_prefix());
                    prop_assert!(
                        by_prefix == Ordering::Equal || by_prefix == a.cmp(b),
                        "{:?} vs {:?}", a, b
                    );
                }
            }
        }
    }

    #[test]
    fn order_prefix_reads_the_first_eight_bytes() {
        assert_eq!(Value::int(7).order_prefix(), 0);
        assert_eq!(Value::text("").order_prefix(), 0);
        assert_eq!(Value::text("a").order_prefix(), u64::from(b'a') << 56);
        assert_eq!(
            Value::text("abcdefgh").order_prefix(),
            Value::text("abcdefghi").order_prefix()
        );
        assert!(Value::text("abcdefg").order_prefix() < Value::text("abcdefgh").order_prefix());
    }

    #[test]
    fn display() {
        assert_eq!(Value::text("x").to_string(), "x");
        assert_eq!(Value::num(ratio(1, 2)).to_string(), "1/2");
        assert_eq!(format!("{:?}", Value::text("x")), "\"x\"");
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from("a"), Value::text("a"));
        assert_eq!(Value::from(3i64), Value::int(3));
        assert_eq!(Value::from(rat(4)), Value::int(4));
        assert_eq!(Value::from(String::from("s")), Value::text("s"));
    }
}
