//! Exact rational arithmetic.
//!
//! The paper restricts numeric columns to non-negative rationals `Q≥0`
//! (Section 3), and Section 7.3 additionally considers `N ∪ {−1}`. Aggregate
//! operators must be exact for monotonicity/associativity to hold, so the
//! library uses an exact rational type instead of floating point.
//!
//! The representation is a normalised `numerator / denominator` pair of
//! `i128`. All constructors normalise (gcd-reduced, denominator positive), so
//! equality and hashing are structural.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub};
use std::str::FromStr;

/// An exact rational number with `i128` numerator and denominator.
///
/// The value is always kept in normal form: the denominator is strictly
/// positive and `gcd(|numerator|, denominator) == 1`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rational {
    num: i128,
    den: i128,
}

/// Error returned when parsing or constructing a [`Rational`] fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RationalError {
    /// The denominator was zero.
    ZeroDenominator,
    /// The reduced value has no normal form in `i128` (e.g. `1 / i128::MIN`,
    /// whose positive denominator magnitude exceeds `i128::MAX`).
    Unrepresentable,
    /// The textual form could not be parsed.
    Parse(String),
}

impl fmt::Display for RationalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RationalError::ZeroDenominator => write!(f, "denominator must be non-zero"),
            RationalError::Unrepresentable => {
                write!(f, "reduced rational does not fit in i128")
            }
            RationalError::Parse(s) => write!(f, "cannot parse rational from {s:?}"),
        }
    }
}

impl std::error::Error for RationalError {}

fn gcd_u128(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

fn gcd(a: i128, b: i128) -> i128 {
    // Unsigned magnitudes: `i128::MIN.abs()` would overflow, but its
    // magnitude fits in u128. The result divides whichever operand is
    // non-zero and positive-representable, so the cast back is safe for
    // every call site (denominators are < 2^127).
    gcd_u128(a.unsigned_abs(), b.unsigned_abs()) as i128
}

impl Rational {
    /// The rational number zero.
    pub const ZERO: Rational = Rational { num: 0, den: 1 };
    /// The rational number one.
    pub const ONE: Rational = Rational { num: 1, den: 1 };

    /// Creates a rational from a numerator and denominator.
    ///
    /// Returns an error if the denominator is zero, or if the reduced value
    /// has no `i128` normal form (e.g. `1 / i128::MIN`: its positive
    /// denominator magnitude exceeds `i128::MAX`).
    pub fn new(num: i128, den: i128) -> Result<Rational, RationalError> {
        if den == 0 {
            return Err(RationalError::ZeroDenominator);
        }
        Self::checked_normalised(num, den).ok_or(RationalError::Unrepresentable)
    }

    /// Reduces `num / den` (`den != 0`) to normal form, working on unsigned
    /// magnitudes so every `i128` operand — `i128::MIN` included — is
    /// handled. `None` if the *reduced* magnitude does not fit back into
    /// `i128` (a positive denominator of 2^127, or a positive numerator of
    /// 2^127 after sign cancellation).
    fn checked_normalised(num: i128, den: i128) -> Option<Rational> {
        debug_assert!(den != 0);
        if num == 0 {
            return Some(Rational { num: 0, den: 1 });
        }
        let negative = (num < 0) != (den < 0);
        let mut n = num.unsigned_abs();
        let mut d = den.unsigned_abs();
        let g = gcd_u128(n, d);
        n /= g;
        d /= g;
        if d > i128::MAX as u128 {
            return None;
        }
        let num = if negative {
            if n > i128::MAX as u128 + 1 {
                return None;
            }
            // `n == 2^127` wraps to `i128::MIN` under `as`, whose wrapping
            // negation is itself — exactly the intended value.
            (n as i128).wrapping_neg()
        } else {
            if n > i128::MAX as u128 {
                return None;
            }
            n as i128
        };
        Some(Rational {
            num,
            den: d as i128,
        })
    }

    /// Infallible normalisation for internal arithmetic, whose operands are
    /// already in normal form: reduction can only shrink magnitudes, so the
    /// result always fits (the `expect` is a debug guard, not a code path).
    fn normalised(num: i128, den: i128) -> Rational {
        Self::checked_normalised(num, den).expect("reduced rational fits in i128")
    }

    /// Creates a rational from an integer.
    pub const fn from_int(i: i64) -> Rational {
        Rational {
            num: i as i128,
            den: 1,
        }
    }

    /// The numerator of the normal form (sign carried here).
    pub fn numerator(&self) -> i128 {
        self.num
    }

    /// The denominator of the normal form (always positive).
    pub fn denominator(&self) -> i128 {
        self.den
    }

    /// Returns `true` if the value is `>= 0`, i.e. lies in `Q≥0`.
    pub fn is_non_negative(&self) -> bool {
        self.num >= 0
    }

    /// Absolute value.
    ///
    /// # Panics
    /// Panics if the numerator is `i128::MIN` (whose magnitude is not
    /// representable); use [`Rational::checked_abs`] to handle that case.
    pub fn abs(&self) -> Rational {
        self.checked_abs()
            .expect("absolute value of i128::MIN numerator overflows")
    }

    /// Checked absolute value: `None` if the numerator is `i128::MIN`, whose
    /// magnitude does not fit in `i128`.
    pub fn checked_abs(&self) -> Option<Rational> {
        Some(Rational {
            num: self.num.checked_abs()?,
            den: self.den,
        })
    }

    /// Checked negation: `None` if the numerator is `i128::MIN`, whose
    /// negation does not fit in `i128`.
    pub fn checked_neg(&self) -> Option<Rational> {
        Some(Rational {
            num: self.num.checked_neg()?,
            den: self.den,
        })
    }

    /// Multiplicative inverse; `None` for zero and for the one
    /// unrepresentable case (a numerator of `i128::MIN`, whose reciprocal
    /// would need a positive denominator of 2^127).
    pub fn recip(&self) -> Option<Rational> {
        if self.num == 0 {
            None
        } else {
            Self::checked_normalised(self.den, self.num)
        }
    }

    /// Returns the value as `f64` (approximate; only for reporting).
    pub fn to_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Checked addition (guards against i128 overflow).
    pub fn checked_add(&self, other: &Rational) -> Option<Rational> {
        // Integer fast path: aggregate columns are overwhelmingly integers,
        // and an integer sum is already in normal form — skip the gcd.
        if self.den == 1 && other.den == 1 {
            return self
                .num
                .checked_add(other.num)
                .map(|num| Rational { num, den: 1 });
        }
        let num = self
            .num
            .checked_mul(other.den)?
            .checked_add(other.num.checked_mul(self.den)?)?;
        let den = self.den.checked_mul(other.den)?;
        Some(Self::normalised(num, den))
    }

    /// Checked multiplication (guards against i128 overflow).
    pub fn checked_mul(&self, other: &Rational) -> Option<Rational> {
        // Cross-reduce before multiplying to keep intermediate values small.
        let g1 = gcd(self.num, other.den).max(1);
        let g2 = gcd(other.num, self.den).max(1);
        let num = (self.num / g1).checked_mul(other.num / g2)?;
        let den = (self.den / g2).checked_mul(other.den / g1)?;
        Some(Self::normalised(num, den))
    }

    /// Minimum of two rationals.
    pub fn min(self, other: Rational) -> Rational {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Maximum of two rationals.
    pub fn max(self, other: Rational) -> Rational {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Default for Rational {
    fn default() -> Self {
        Rational::ZERO
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        // Integer fast path: two integers compare by numerator alone, with no
        // sign split or cross-multiplication.
        if self.den == 1 && other.den == 1 {
            return self.num.cmp(&other.num);
        }
        // Sign comparison first: it is exact, and it reduces the remaining
        // work to positive magnitudes (which `u128` holds even for an
        // `i128::MIN` numerator).
        let ls = self.num.signum();
        let rs = other.num.signum();
        if ls != rs {
            return ls.cmp(&rs);
        }
        if ls == 0 {
            return Ordering::Equal;
        }
        // a/b ? c/d  <=>  a*d ? c*b (b, d > 0) when the products fit.
        if let (Some(l), Some(r)) = (
            self.num.checked_mul(other.den),
            other.num.checked_mul(self.den),
        ) {
            return l.cmp(&r);
        }
        // Cross-multiplication overflowed: compare the magnitudes exactly by
        // continued-fraction (Euclidean) steps — never by floating point,
        // which can report Equal for distinct values and misorder bounds.
        let ord = cmp_pos_fractions(
            self.num.unsigned_abs(),
            self.den.unsigned_abs(),
            other.num.unsigned_abs(),
            other.den.unsigned_abs(),
        );
        if ls < 0 {
            ord.reverse()
        } else {
            ord
        }
    }
}

/// Exact comparison of `a/b` and `c/d` for strictly positive operands.
///
/// Compares integer parts, then recurses on the reciprocals of the remainders
/// (`a/b = q + r/b`, and `r1/b ? r2/d  <=>  d/r2 ? b/r1`). Each step is a
/// Euclidean division, so the operands shrink like a gcd computation and no
/// intermediate value can overflow.
fn cmp_pos_fractions(mut a: u128, mut b: u128, mut c: u128, mut d: u128) -> Ordering {
    loop {
        let (q1, r1) = (a / b, a % b);
        let (q2, r2) = (c / d, c % d);
        match q1.cmp(&q2) {
            Ordering::Equal => {}
            other => return other,
        }
        match (r1 == 0, r2 == 0) {
            (true, true) => return Ordering::Equal,
            (true, false) => return Ordering::Less,
            (false, true) => return Ordering::Greater,
            (false, false) => (a, b, c, d) = (d, r2, b, r1),
        }
    }
}

impl Add for Rational {
    type Output = Rational;
    fn add(self, rhs: Rational) -> Rational {
        self.checked_add(&rhs).expect("rational addition overflow")
    }
}

impl AddAssign for Rational {
    fn add_assign(&mut self, rhs: Rational) {
        *self = *self + rhs;
    }
}

impl Sub for Rational {
    type Output = Rational;
    fn sub(self, rhs: Rational) -> Rational {
        self + (-rhs)
    }
}

impl Mul for Rational {
    type Output = Rational;
    fn mul(self, rhs: Rational) -> Rational {
        self.checked_mul(&rhs)
            .expect("rational multiplication overflow")
    }
}

impl Div for Rational {
    type Output = Rational;
    // Division multiplies by the reciprocal, which clippy flags as suspicious.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: Rational) -> Rational {
        let r = rhs.recip().expect("division by zero rational");
        self * r
    }
}

impl Neg for Rational {
    type Output = Rational;
    /// # Panics
    /// Panics if the numerator is `i128::MIN` (see [`Rational::checked_neg`]);
    /// the unchecked `-` used to wrap silently in release builds.
    fn neg(self) -> Rational {
        self.checked_neg()
            .expect("negation of i128::MIN numerator overflows")
    }
}

impl From<i64> for Rational {
    fn from(i: i64) -> Self {
        Rational::from_int(i)
    }
}

impl From<i32> for Rational {
    fn from(i: i32) -> Self {
        Rational::from_int(i as i64)
    }
}

impl From<u32> for Rational {
    fn from(i: u32) -> Self {
        Rational::from_int(i as i64)
    }
}

impl From<usize> for Rational {
    fn from(i: usize) -> Self {
        Rational {
            num: i as i128,
            den: 1,
        }
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl FromStr for Rational {
    type Err = RationalError;

    /// Parses `"3"`, `"-3"`, `"3/4"`, or decimal notation `"3.25"`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        if let Some((n, d)) = s.split_once('/') {
            let n: i128 = n
                .trim()
                .parse()
                .map_err(|_| RationalError::Parse(s.to_string()))?;
            let d: i128 = d
                .trim()
                .parse()
                .map_err(|_| RationalError::Parse(s.to_string()))?;
            return Rational::new(n, d);
        }
        if let Some((int, frac)) = s.split_once('.') {
            let sign = if int.trim_start().starts_with('-') {
                -1
            } else {
                1
            };
            let int_part: i128 = if int.is_empty() || int == "-" {
                0
            } else {
                int.parse()
                    .map_err(|_| RationalError::Parse(s.to_string()))?
            };
            if frac.is_empty() || !frac.chars().all(|c| c.is_ascii_digit()) {
                return Err(RationalError::Parse(s.to_string()));
            }
            let frac_num: i128 = frac
                .parse()
                .map_err(|_| RationalError::Parse(s.to_string()))?;
            let den: i128 = 10i128
                .checked_pow(frac.len() as u32)
                .ok_or_else(|| RationalError::Parse(s.to_string()))?;
            let num = int_part
                .checked_mul(den)
                .and_then(|v| v.checked_add(sign * frac_num))
                .ok_or_else(|| RationalError::Parse(s.to_string()))?;
            return Rational::new(num, den);
        }
        let n: i128 = s.parse().map_err(|_| RationalError::Parse(s.to_string()))?;
        Ok(Rational { num: n, den: 1 })
    }
}

/// Convenience constructor: `rat(3)` is the integer 3 as a rational.
pub fn rat(i: i64) -> Rational {
    Rational::from_int(i)
}

/// Convenience constructor: `ratio(1, 2)` is one half.
///
/// # Panics
/// Panics if `den == 0`.
pub fn ratio(num: i64, den: i64) -> Rational {
    Rational::new(num as i128, den as i128).expect("non-zero denominator")
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn normalisation() {
        assert_eq!(Rational::new(2, 4).unwrap(), ratio(1, 2));
        assert_eq!(Rational::new(-2, -4).unwrap(), ratio(1, 2));
        assert_eq!(Rational::new(2, -4).unwrap(), ratio(-1, 2));
        assert_eq!(Rational::new(0, -7).unwrap(), Rational::ZERO);
        assert!(Rational::new(1, 0).is_err());
    }

    #[test]
    fn display_and_parse_roundtrip() {
        for s in ["3", "-3", "1/2", "-7/3", "0"] {
            let r: Rational = s.parse().unwrap();
            assert_eq!(r.to_string(), s);
        }
        assert_eq!("3.25".parse::<Rational>().unwrap(), ratio(13, 4));
        assert_eq!("-0.5".parse::<Rational>().unwrap(), ratio(-1, 2));
        assert_eq!(".".parse::<Rational>().ok(), None);
        assert!("abc".parse::<Rational>().is_err());
    }

    #[test]
    fn arithmetic() {
        assert_eq!(ratio(1, 2) + ratio(1, 3), ratio(5, 6));
        assert_eq!(ratio(1, 2) - ratio(1, 3), ratio(1, 6));
        assert_eq!(ratio(2, 3) * ratio(3, 4), ratio(1, 2));
        assert_eq!(ratio(1, 2) / ratio(1, 4), rat(2));
        assert_eq!(-ratio(1, 2), ratio(-1, 2));
        assert_eq!(rat(5).abs(), rat(5));
        assert_eq!(rat(-5).abs(), rat(5));
    }

    #[test]
    fn ordering() {
        assert!(ratio(1, 3) < ratio(1, 2));
        assert!(rat(-1) < Rational::ZERO);
        assert_eq!(rat(3).min(rat(4)), rat(3));
        assert_eq!(rat(3).max(rat(4)), rat(4));
    }

    #[test]
    fn ordering_is_exact_under_i128_overflow() {
        // Cross-multiplying these overflows i128 (|num·den'| ≈ 1e39), and both
        // values round to 10.0 as f64 — the old float fallback reported
        // Equal/misordered; the exact path must not.
        let big = 10i128.pow(20);
        let den = 10i128.pow(19);
        let hi = Rational::new(big + 1, den).unwrap(); // 10 + 1e-19
        let lo = Rational::new(big - 1, den).unwrap(); // 10 - 1e-19
        assert_eq!(hi.cmp(&lo), Ordering::Greater);
        assert_eq!(lo.cmp(&hi), Ordering::Less);
        assert_eq!(hi.cmp(&hi), Ordering::Equal);
        // min/max (used to order [glb, lub]) route through the same cmp.
        assert_eq!(hi.min(lo), lo);
        assert_eq!(hi.max(lo), hi);
        // Values differing only past f64 precision, with huge denominators.
        let a = Rational::new(2i128.pow(100) + 1, 2i128.pow(99)).unwrap();
        let b = Rational::new(2i128.pow(100) - 1, 2i128.pow(99)).unwrap();
        assert_eq!(a.cmp(&b), Ordering::Greater);
        // Mixed signs decide on sign alone even when magnitudes overflow.
        let neg = Rational::new(-(big + 1), den).unwrap();
        assert_eq!(neg.cmp(&hi), Ordering::Less);
        assert_eq!(neg.cmp(&neg), Ordering::Equal);
        // Negative pair: magnitude comparison is reversed.
        let neg_lo = Rational::new(-(big - 1), den).unwrap();
        assert_eq!(neg.cmp(&neg_lo), Ordering::Less);
    }

    #[test]
    fn min_numerator_is_ordered_and_checked() {
        let min = Rational::new(i128::MIN, 1).unwrap();
        let almost = Rational::new(i128::MIN + 1, 1).unwrap();
        assert_eq!(min.cmp(&almost), Ordering::Less);
        assert_eq!(min.cmp(&min), Ordering::Equal);
        assert!(min < Rational::ZERO);
        // The magnitude of i128::MIN is not representable: the checked paths
        // report None instead of wrapping.
        assert_eq!(min.checked_neg(), None);
        assert_eq!(min.checked_abs(), None);
        assert_eq!(
            almost.checked_neg(),
            Some(Rational::new(i128::MAX, 1).unwrap())
        );
        assert_eq!(
            almost.checked_abs(),
            Some(Rational::new(i128::MAX, 1).unwrap())
        );
        // A huge-denominator value against the integer MIN, both negative.
        let frac = Rational::new(i128::MIN + 1, i128::MAX).unwrap();
        assert_eq!(min.cmp(&frac), Ordering::Less);
        assert_eq!(frac.cmp(&min), Ordering::Greater);
        // Constructors report unrepresentable reductions as recoverable
        // errors instead of panicking: 1/MIN needs a denominator of 2^127.
        assert_eq!(
            Rational::new(1, i128::MIN),
            Err(RationalError::Unrepresentable)
        );
        assert_eq!(min.recip(), None, "reciprocal of MIN is unrepresentable");
        // Reduction can rescue a MIN operand when a factor cancels.
        assert_eq!(
            Rational::new(2, i128::MIN).unwrap(),
            Rational::new(-1, 2i128.pow(126)).unwrap()
        );
        assert_eq!(
            Rational::new(i128::MIN, 2).unwrap(),
            Rational::new(-(2i128.pow(126)), 1).unwrap()
        );
        assert_eq!(Rational::new(i128::MIN, i128::MIN).unwrap(), Rational::ONE);
    }

    #[test]
    #[should_panic(expected = "i128::MIN")]
    fn neg_of_min_numerator_panics_instead_of_wrapping() {
        let min = Rational::new(i128::MIN, 1).unwrap();
        let _ = -min;
    }

    #[test]
    fn predicates() {
        assert!(rat(0).is_non_negative());
        assert!(!rat(-1).is_non_negative());
        assert_eq!(ratio(2, 5).recip(), Some(ratio(5, 2)));
        assert_eq!(Rational::ZERO.recip(), None);
    }

    fn small_rational() -> impl Strategy<Value = Rational> {
        (-1000i128..1000, 1i128..100).prop_map(|(n, d)| Rational::new(n, d).unwrap())
    }

    fn huge_rational() -> impl Strategy<Value = Rational> {
        // Numerators/denominators big enough that cross-multiplication
        // overflows i128 for most pairs, forcing the Euclidean path.
        (i128::MIN..i128::MAX, 1i128..i128::MAX).prop_map(|(n, d)| Rational::new(n, d).unwrap())
    }

    /// Reference comparison via 256-bit widening cross-multiplication,
    /// independent of the Euclidean implementation under test.
    fn wide_cmp(a: &Rational, b: &Rational) -> Ordering {
        fn widening_mul(x: u128, y: u128) -> (u128, u128) {
            const MASK: u128 = (1 << 64) - 1;
            let (x0, x1) = (x & MASK, x >> 64);
            let (y0, y1) = (y & MASK, y >> 64);
            let lo_lo = x0 * y0;
            let mid1 = x1 * y0;
            let mid2 = x0 * y1;
            let hi_hi = x1 * y1;
            let (mid, carry1) = mid1.overflowing_add(mid2);
            let carry1 = (carry1 as u128) << 64;
            let (lo, carry2) = lo_lo.overflowing_add(mid << 64);
            let hi = hi_hi + (mid >> 64) + carry1 + carry2 as u128;
            (hi, lo)
        }
        let sign = |r: &Rational| r.numerator().signum();
        match (sign(a), sign(b)) {
            (sa, sb) if sa != sb => return sa.cmp(&sb),
            (0, _) => return Ordering::Equal,
            _ => {}
        }
        let l = widening_mul(a.numerator().unsigned_abs(), b.denominator().unsigned_abs());
        let r = widening_mul(b.numerator().unsigned_abs(), a.denominator().unsigned_abs());
        let mag = l.cmp(&r);
        if sign(a) < 0 {
            mag.reverse()
        } else {
            mag
        }
    }

    proptest! {
        #[test]
        fn prop_add_commutative(a in small_rational(), b in small_rational()) {
            prop_assert_eq!(a + b, b + a);
        }

        #[test]
        fn prop_add_associative(a in small_rational(), b in small_rational(), c in small_rational()) {
            prop_assert_eq!((a + b) + c, a + (b + c));
        }

        #[test]
        fn prop_mul_distributes(a in small_rational(), b in small_rational(), c in small_rational()) {
            prop_assert_eq!(a * (b + c), a * b + a * c);
        }

        #[test]
        fn prop_ordering_total(a in small_rational(), b in small_rational()) {
            let by_float = a.to_f64().partial_cmp(&b.to_f64()).unwrap();
            // Exact comparison must agree with float comparison on small inputs
            // unless the float comparison says Equal due to rounding.
            if a != b {
                prop_assert!(by_float == a.cmp(&b) || by_float == Ordering::Equal);
            }
        }

        #[test]
        fn prop_roundtrip_display(a in small_rational()) {
            let s = a.to_string();
            prop_assert_eq!(s.parse::<Rational>().unwrap(), a);
        }

        #[test]
        fn prop_neg_involution(a in small_rational()) {
            prop_assert_eq!(-(-a), a);
        }

        #[test]
        fn prop_cmp_is_exact_on_huge_operands(a in huge_rational(), b in huge_rational()) {
            let got = a.cmp(&b);
            prop_assert_eq!(got, wide_cmp(&a, &b), "{} vs {}", a, b);
            // Antisymmetry and Eq-consistency of the total order.
            prop_assert_eq!(b.cmp(&a), got.reverse());
            prop_assert_eq!(got == Ordering::Equal, a == b);
            prop_assert_eq!(a.cmp(&a), Ordering::Equal);
        }

        /// The `den == 1` comparison fast path agrees with the exact
        /// cross-multiplication reference, both int-vs-int and int-vs-ratio.
        #[test]
        fn prop_int_fast_cmp_matches_exact_reference(
            a in i64::MIN..i64::MAX,
            b in i64::MIN..i64::MAX,
            q in small_rational(),
        ) {
            let ra = Rational::from_int(a);
            let rb = Rational::from_int(b);
            prop_assert_eq!(ra.cmp(&rb), a.cmp(&b));
            prop_assert_eq!(ra.cmp(&rb), wide_cmp(&ra, &rb));
            // Mixed: only one side is on the fast path's `den == 1` shape.
            prop_assert_eq!(ra.cmp(&q), wide_cmp(&ra, &q));
            prop_assert_eq!(q.cmp(&ra), wide_cmp(&q, &ra));
        }

        /// The `den == 1` addition fast path produces the same normal form
        /// as the general cross-multiplying path.
        #[test]
        fn prop_int_fast_add_matches_general_path(
            a in i64::MIN..i64::MAX,
            b in i64::MIN..i64::MAX,
            q in small_rational(),
        ) {
            let ra = Rational::from_int(a);
            let rb = Rational::from_int(b);
            let sum = ra.checked_add(&rb).unwrap();
            prop_assert_eq!(sum.numerator(), a as i128 + b as i128);
            prop_assert_eq!(sum.denominator(), 1);
            // Fast path composes with the general path: (a + q) + (b - q)
            // routes through cross-multiplication yet lands on the same
            // normal form as the integer-only sum.
            if let Some(aq) = ra.checked_add(&q) {
                if let Some(bq) = rb.checked_add(&q.checked_neg().unwrap()) {
                    if let Some(roundabout) = aq.checked_add(&bq) {
                        prop_assert_eq!(roundabout, sum);
                    }
                }
            }
        }
    }
}
