//! Interval reasoning over range-consistent answers: HAVING trichotomy and
//! certain top-k.
//!
//! A range-consistent answer is an interval `[glb, lub]` bracketing the
//! query's value across all repairs. Comparisons against such an interval do
//! not yield booleans but a **trichotomy**: a HAVING condition is *certain*
//! (holds in every repair), *violated* (holds in none), or *possible*
//! (otherwise). Likewise `ORDER BY … LIMIT k` yields the rows **certainly**
//! in the top k — rows that outrank the competition in every repair — rather
//! than a guess at one repair's ordering.
//!
//! Both notions are conservative interval approximations: the answer set of
//! a group across repairs is a subset of `[glb, lub]` containing both
//! endpoints, so "certain"/"violated" verdicts are sound, while "possible"
//! may include conditions no repair actually realises (e.g. `= c` for a `c`
//! strictly inside an interval whose interior is never attained).

use crate::engine::GroupRange;
use rcqa_data::Rational;
use rcqa_query::CmpOp;
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;

/// The trichotomy of a HAVING condition evaluated against an interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum HavingStatus {
    /// The condition holds in **every** repair.
    Certain,
    /// The condition may hold in some repairs and fail in others (or the
    /// interval is `[⊥, ⊥]`, so no numeric comparison is meaningful).
    Possible,
    /// The condition holds in **no** repair.
    Violated,
}

impl fmt::Display for HavingStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HavingStatus::Certain => write!(f, "certain"),
            HavingStatus::Possible => write!(f, "possible"),
            HavingStatus::Violated => write!(f, "violated"),
        }
    }
}

/// Evaluates `agg op threshold` against the interval `[glb, lub]`.
///
/// `None` encodes the distinguished answer `⊥` (some repair yields the empty
/// multiset); a comparison against `⊥` is neither true nor false, so any
/// `None` bound yields [`HavingStatus::Possible`].
pub fn having_status(
    glb: Option<Rational>,
    lub: Option<Rational>,
    op: CmpOp,
    threshold: Rational,
) -> HavingStatus {
    let (Some(g), Some(l)) = (glb, lub) else {
        return HavingStatus::Possible;
    };
    let c = threshold;
    let (certain, violated) = match op {
        CmpOp::Lt => (l < c, g >= c),
        CmpOp::Le => (l <= c, g > c),
        CmpOp::Gt => (g > c, l <= c),
        CmpOp::Ge => (g >= c, l < c),
        // Equality is certain only for a degenerate interval pinned at `c`;
        // a `c` outside `[g, l]` is unattainable in every repair.
        CmpOp::Eq => (g == c && l == c, c < g || c > l),
        CmpOp::Ne => (c < g || c > l, g == c && l == c),
    };
    match (certain, violated) {
        (true, _) => HavingStatus::Certain,
        (_, true) => HavingStatus::Violated,
        _ => HavingStatus::Possible,
    }
}

/// Combines the statuses of a conjunction of HAVING conditions: violated if
/// **any** conjunct is violated, certain iff **all** are certain, possible
/// otherwise.
pub fn having_status_all(statuses: impl IntoIterator<Item = HavingStatus>) -> HavingStatus {
    let mut out = HavingStatus::Certain;
    for s in statuses {
        match s {
            HavingStatus::Violated => return HavingStatus::Violated,
            HavingStatus::Possible => out = HavingStatus::Possible,
            HavingStatus::Certain => {}
        }
    }
    out
}

fn bound_value(b: Option<crate::engine::BoundAnswer>) -> Option<Rational> {
    b.and_then(|b| b.value)
}

/// Compares two optional values under the requested direction; `None` (`⊥`)
/// sorts after every numeric value regardless of direction.
fn cmp_opt(a: Option<Rational>, b: Option<Rational>, descending: bool) -> Ordering {
    match (a, b) {
        (Some(x), Some(y)) => {
            if descending {
                y.cmp(&x)
            } else {
                x.cmp(&y)
            }
        }
        (Some(_), None) => Ordering::Less,
        (None, Some(_)) => Ordering::Greater,
        (None, None) => Ordering::Equal,
    }
}

/// The deterministic presentation order for `ORDER BY`: by `glb`, then
/// `lub` (both in the requested direction, `⊥` rows last), then group key
/// ascending. Returns the index permutation rather than moving the rows, so
/// callers can reorder any row-aligned data alongside.
///
/// Without a `LIMIT`, this is *only* a presentation order — the interval
/// semantics promise nothing about the relative order of overlapping
/// intervals across repairs.
///
/// Like the other row-list functions here, generic over owned rows and
/// borrowed ones (`&[GroupRange]`, `&[&GroupRange]`): the serving layer
/// hands in the HAVING survivors by reference instead of cloning them.
pub fn order_rows<R: Borrow<GroupRange>>(rows: &[R], descending: bool) -> Vec<usize> {
    let mut order: Vec<usize> = (0..rows.len()).collect();
    order.sort_by(|&a, &b| {
        let (ra, rb) = (rows[a].borrow(), rows[b].borrow());
        cmp_opt(bound_value(ra.glb), bound_value(rb.glb), descending)
            .then_with(|| cmp_opt(bound_value(ra.lub), bound_value(rb.lub), descending))
            .then_with(|| ra.key.cmp(&rb.key))
    });
    order
}

/// The rows **certainly** in the top `k` under the requested direction: a
/// row qualifies iff fewer than `k` other rows can possibly precede it in
/// any repair. Returns their indices in [`order_rows`] order; at most `k`
/// rows qualify ("possibly precedes" holds in at least one direction for
/// every pair, so certain rows form a chain). Rows with a `⊥` bound never
/// qualify.
///
/// Fewer than `k` rows may qualify — the honest answer when intervals
/// overlap is that the remaining top-k slots are not certain for anyone.
///
/// `O(n log n)`: `possibly_precedes` is a threshold test on one endpoint
/// of each row, so a row's preceder count is a rank. Descending, `h`
/// possibly precedes `g` iff `(h.lub, h.key)` sorts before `(g.glb, g.key)`
/// under (value descending, key ascending); ascending, iff `(h.glb, h.key)`
/// sorts before `(g.lub, g.key)` under (value ascending, key ascending). So:
/// sort the numeric rows once by their *challenging* endpoint, and each
/// row's count is one binary search for its *defending* endpoint, plus the
/// `⊥` rows (which precede everything), minus the row itself where its own
/// challenging endpoint beats its defending one (a non-degenerate interval).
pub fn certain_topk<R: Borrow<GroupRange>>(rows: &[R], k: usize, descending: bool) -> Vec<usize> {
    let key = |i: usize| &rows[i].borrow().key;
    // (challenging endpoint, defending endpoint) of each numeric row.
    let ends: Vec<Option<(Rational, Rational)>> = rows
        .iter()
        .map(|g| {
            let g = g.borrow();
            let (glb, lub) = (bound_value(g.glb)?, bound_value(g.lub)?);
            Some(if descending { (lub, glb) } else { (glb, lub) })
        })
        .collect();
    let toward = |a: Rational, b: Rational| if descending { b.cmp(&a) } else { a.cmp(&b) };
    // Sized up front: a filtered collect would grow in `log n` steps.
    let mut challengers: Vec<(Rational, usize)> = Vec::with_capacity(rows.len());
    challengers.extend(
        ends.iter()
            .enumerate()
            .filter_map(|(i, e)| e.map(|(challenge, _)| (challenge, i))),
    );
    challengers.sort_unstable_by(|&(a, i), &(b, j)| toward(a, b).then_with(|| key(i).cmp(key(j))));
    let bottoms = rows.len() - challengers.len();
    order_rows(rows, descending)
        .into_iter()
        .filter(|&i| {
            let Some((challenge, defence)) = ends[i] else {
                return false;
            };
            let ahead = challengers.partition_point(|&(c, h)| {
                toward(c, defence).then_with(|| key(h).cmp(key(i))) == Ordering::Less
            });
            let counted_itself = toward(challenge, defence) == Ordering::Less;
            bottoms + ahead - usize::from(counted_itself) < k
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{BoundAnswer, Method};
    use proptest::prelude::*;
    use rcqa_data::{rat, Value};

    fn row(key: &str, glb: Option<i64>, lub: Option<i64>) -> GroupRange {
        let bound = |v: Option<i64>| {
            Some(BoundAnswer {
                value: v.map(rat),
                method: Method::Rewriting,
            })
        };
        GroupRange {
            key: vec![Value::text(key)],
            glb: bound(glb),
            lub: bound(lub),
        }
    }

    /// Whether `h` can strictly precede `g` in the ordering of **some** repair.
    ///
    /// Value ties are broken by group key ascending (the same deterministic
    /// tiebreak as [`order_rows`]), so for `key_h < key_g` an overlap at a single
    /// point already lets `h` go first. Rows whose value is unknown (`⊥`
    /// possible) conservatively precede everything.
    fn possibly_precedes(h: &GroupRange, g: &GroupRange, descending: bool) -> bool {
        let (Some(h_glb), Some(h_lub)) = (bound_value(h.glb), bound_value(h.lub)) else {
            return true;
        };
        let (Some(g_glb), Some(g_lub)) = (bound_value(g.glb), bound_value(g.lub)) else {
            return true;
        };
        let wins_ties = h.key < g.key;
        if descending {
            if wins_ties {
                h_lub >= g_glb
            } else {
                h_lub > g_glb
            }
        } else if wins_ties {
            h_glb <= g_lub
        } else {
            h_glb < g_lub
        }
    }

    /// [`certain_topk`] as its documentation defines it: per row, count the
    /// other rows that possibly precede it. Quadratic; the oracle for the
    /// rank-based implementation.
    fn certain_topk_by_definition(rows: &[GroupRange], k: usize, descending: bool) -> Vec<usize> {
        order_rows(rows, descending)
            .into_iter()
            .filter(|&i| {
                let g = &rows[i];
                if bound_value(g.glb).is_none() || bound_value(g.lub).is_none() {
                    return false;
                }
                let preceders = rows
                    .iter()
                    .enumerate()
                    .filter(|&(j, h)| j != i && possibly_precedes(h, g, descending))
                    .count();
                preceders < k
            })
            .collect()
    }

    proptest! {
        /// Rank-based membership equals the pairwise definition: intervals
        /// drawn from a small value pool so that endpoints are shared across
        /// rows and point intervals are common, `⊥` on either or both sides,
        /// a few duplicated keys, both directions, and every interesting `k`.
        #[test]
        fn certain_topk_matches_its_definition(
            draws in proptest::collection::vec((0i64..8, 0i64..4, 0u8..10, 0usize..12), 0..14),
        ) {
            let rows: Vec<GroupRange> = draws
                .iter()
                .enumerate()
                .map(|(i, &(lo, width, bottom, key))| {
                    // Mostly distinct keys, as in a real result; now and then
                    // one drawn from a small pool, so some collide.
                    let key = if key < 3 { format!("k{key}") } else { format!("r{i}") };
                    let glb = (bottom != 0 && bottom != 2).then_some(lo);
                    let lub = (bottom != 1 && bottom != 2).then_some(lo + width);
                    row(&key, glb, lub)
                })
                .collect();
            let n = rows.len();
            for descending in [true, false] {
                for k in [0, 1, 3, n, n + 1] {
                    prop_assert_eq!(
                        certain_topk(&rows, k, descending),
                        certain_topk_by_definition(&rows, k, descending),
                        "k = {}, descending = {}, rows = {:?}",
                        k, descending, rows
                    );
                }
            }
        }
    }

    #[test]
    fn having_trichotomy_per_operator() {
        use HavingStatus::*;
        let s = |g: i64, l: i64, op, c: i64| having_status(Some(rat(g)), Some(rat(l)), op, rat(c));
        // [5, 10] vs thresholds around and inside the interval.
        assert_eq!(s(5, 10, CmpOp::Lt, 11), Certain);
        assert_eq!(s(5, 10, CmpOp::Lt, 10), Possible);
        assert_eq!(s(5, 10, CmpOp::Lt, 5), Violated);
        assert_eq!(s(5, 10, CmpOp::Le, 10), Certain);
        assert_eq!(s(5, 10, CmpOp::Le, 4), Violated);
        assert_eq!(s(5, 10, CmpOp::Gt, 4), Certain);
        assert_eq!(s(5, 10, CmpOp::Gt, 5), Possible);
        assert_eq!(s(5, 10, CmpOp::Gt, 10), Violated);
        assert_eq!(s(5, 10, CmpOp::Ge, 5), Certain);
        assert_eq!(s(5, 10, CmpOp::Ge, 11), Violated);
        assert_eq!(s(7, 7, CmpOp::Eq, 7), Certain);
        assert_eq!(s(5, 10, CmpOp::Eq, 7), Possible);
        assert_eq!(s(5, 10, CmpOp::Eq, 11), Violated);
        assert_eq!(s(5, 10, CmpOp::Ne, 11), Certain);
        assert_eq!(s(5, 10, CmpOp::Ne, 7), Possible);
        assert_eq!(s(7, 7, CmpOp::Ne, 7), Violated);
        // ⊥ bounds are never decidable.
        assert_eq!(having_status(None, None, CmpOp::Lt, rat(1)), Possible);
    }

    #[test]
    fn conjunction_combiner() {
        use HavingStatus::*;
        assert_eq!(having_status_all([]), Certain);
        assert_eq!(having_status_all([Certain, Certain]), Certain);
        assert_eq!(having_status_all([Certain, Possible]), Possible);
        assert_eq!(having_status_all([Possible, Violated, Certain]), Violated);
    }

    #[test]
    fn order_rows_is_deterministic_with_bottom_last() {
        let rows = vec![
            row("a", Some(5), Some(7)),
            row("b", None, None),
            row("c", Some(10), Some(10)),
            row("d", Some(5), Some(6)),
        ];
        assert_eq!(order_rows(&rows, false), vec![3, 0, 2, 1]);
        assert_eq!(order_rows(&rows, true), vec![2, 0, 3, 1]);
    }

    #[test]
    fn certain_topk_disjoint_and_overlapping() {
        // Disjoint intervals: the full prefix is certain.
        let rows = vec![
            row("a", Some(10), Some(10)),
            row("b", Some(8), Some(9)),
            row("c", Some(1), Some(2)),
        ];
        assert_eq!(certain_topk(&rows, 1, true), vec![0]);
        assert_eq!(certain_topk(&rows, 2, true), vec![0, 1]);
        assert_eq!(certain_topk(&rows, 3, true), vec![0, 1, 2]);
        // Ascending direction flips the ranking.
        assert_eq!(certain_topk(&rows, 1, false), vec![2]);

        // Overlap between b and c: only the clear winner is certain, and
        // the second slot is honestly unclaimed at k = 2.
        let rows = vec![
            row("a", Some(10), Some(10)),
            row("b", Some(5), Some(7)),
            row("c", Some(6), Some(8)),
        ];
        assert_eq!(certain_topk(&rows, 1, true), vec![0]);
        assert_eq!(certain_topk(&rows, 2, true), vec![0]);
        assert_eq!(certain_topk(&rows, 3, true), vec![0, 2, 1]);
    }

    #[test]
    fn bottom_rows_are_never_certain_but_block_nobody_below_them() {
        let rows = vec![row("a", Some(10), Some(10)), row("b", None, None)];
        // The ⊥ row conservatively precedes everything, so it consumes a
        // possible slot; a is only certain once k covers that possibility.
        assert_eq!(certain_topk(&rows, 1, true), Vec::<usize>::new());
        assert_eq!(certain_topk(&rows, 2, true), vec![0]);
    }
}
