//! Generator-driven agreement tests: on random small inconsistent instances
//! from `rcqa-gen`, every (aggregate, bound) pair with a known AGGR\[FOL\]
//! rewriting must (a) actually take the optimized rewriting/extremum path and
//! (b) agree with exhaustive repair enumeration — closed and GROUP BY alike —
//! and the cells that lose their rewriting to negative addends must take the
//! enumeration.

use rcqa::core::engine::{Method, RangeCqa};
use rcqa::core::exact::{exact_bounds, exact_bounds_by_group};
use rcqa::core::prepared::PreparedAggQuery;
use rcqa::core::rewrite::BoundKind;
use rcqa::data::NumericDomain::{self, NonNegative, Unconstrained};
use rcqa::data::{fact, DatabaseInstance};
use rcqa::gen::JoinWorkload;
use rcqa::query::parse_agg_query;

/// The cells of the strategy table the sweep pins, over the join workload's
/// schema (`R(x, y)`, `S(y, z, r)`): every (aggregate, bound) pair with a
/// known rewriting over the generated instance (non-negative `r`), and — over
/// a copy of it whose numeric column is unconstrained and holds a negative
/// number — the cells decided by the *addends* rather than the column: a
/// constant addend `c ≥ 0` keeps Theorem 6.1 (`COUNT` is `SUM(1)`), a negative
/// one loses it on any instance. With the expected evaluation method.
const CELLS: &[(&str, BoundKind, NumericDomain, Method)] = &[
    ("SUM(r)", BoundKind::Glb, NonNegative, Method::Rewriting),
    ("COUNT(*)", BoundKind::Glb, NonNegative, Method::Rewriting),
    ("MAX(r)", BoundKind::Glb, NonNegative, Method::Rewriting),
    ("MAX(r)", BoundKind::Lub, NonNegative, Method::PlainExtremum),
    ("MIN(r)", BoundKind::Glb, NonNegative, Method::PlainExtremum),
    ("MIN(r)", BoundKind::Lub, NonNegative, Method::Rewriting),
    (
        "SUM(-1)",
        BoundKind::Glb,
        NonNegative,
        Method::ExactEnumeration,
    ),
    (
        "SUM(r)",
        BoundKind::Glb,
        Unconstrained,
        Method::ExactEnumeration,
    ),
    (
        "SUM(-1)",
        BoundKind::Glb,
        Unconstrained,
        Method::ExactEnumeration,
    ),
    ("SUM(0)", BoundKind::Glb, Unconstrained, Method::Rewriting),
    ("COUNT(*)", BoundKind::Glb, Unconstrained, Method::Rewriting),
    ("COUNT(r)", BoundKind::Glb, Unconstrained, Method::Rewriting),
    ("MAX(r)", BoundKind::Glb, Unconstrained, Method::Rewriting),
];

/// A copy of `db` over unconstrained numeric columns, with one more
/// (consistent) `S` block holding a negative number under a joined `y`.
fn with_a_negative_number(db: &DatabaseInstance) -> DatabaseInstance {
    let mut out = DatabaseInstance::new_unconstrained(db.schema().clone());
    out.insert_all(db.facts().cloned()).unwrap();
    out.insert(fact!("S", "y0", "neg", -5)).unwrap();
    out
}

fn workloads() -> impl Iterator<Item = JoinWorkload> {
    [
        (1u64, 0.0),
        (2, 0.2),
        (3, 0.4),
        (5, 0.6),
        (8, 0.3),
        (13, 0.5),
    ]
    .into_iter()
    .map(|(seed, ratio)| JoinWorkload {
        r_blocks: 7,
        y_domain: 4,
        s_blocks_per_y: 2,
        inconsistency_ratio: ratio,
        block_size: 2,
        max_value: 25,
        seed,
    })
}

#[test]
fn optimized_paths_agree_with_repair_enumeration() {
    for cfg in workloads() {
        let db = cfg.generate();
        if db.repair_count().unwrap_or(u128::MAX) > 1 << 14 {
            continue;
        }
        let negative = with_a_negative_number(&db);
        for &(head, bound, domain, expected_method) in CELLS {
            let text = format!("{head} <- R(x, y), S(y, z, r)");
            let db = match domain {
                NonNegative => &db,
                Unconstrained => &negative,
            };
            let query = parse_agg_query(&text).unwrap();
            let engine = RangeCqa::new(&query, &cfg.schema()).unwrap();
            let prepared = PreparedAggQuery::new(&query, &cfg.schema()).unwrap();
            let exact = exact_bounds(&prepared, db, 1 << 20).unwrap();
            let (answer, exact_value) = match bound {
                BoundKind::Glb => (engine.glb(db).unwrap()[0].1, exact.glb),
                BoundKind::Lub => (engine.lub(db).unwrap()[0].1, exact.lub),
            };
            assert_eq!(
                answer.method, expected_method,
                "{text} {bound:?} over {domain:?}: the table's operator (seed {})",
                cfg.seed
            );
            assert_eq!(
                answer.value, exact_value,
                "{text} {bound:?} over {domain:?} disagrees with repair enumeration (seed {})",
                cfg.seed
            );
        }
    }
}

#[test]
fn optimized_grouped_paths_agree_with_repair_enumeration() {
    let grouped: &[(&str, BoundKind)] = &[
        ("(x, SUM(r)) <- R(x, y), S(y, z, r)", BoundKind::Glb),
        ("(x, MAX(r)) <- R(x, y), S(y, z, r)", BoundKind::Glb),
        ("(x, MAX(r)) <- R(x, y), S(y, z, r)", BoundKind::Lub),
        ("(x, MIN(r)) <- R(x, y), S(y, z, r)", BoundKind::Glb),
        ("(x, MIN(r)) <- R(x, y), S(y, z, r)", BoundKind::Lub),
    ];
    for cfg in workloads() {
        let db = cfg.generate();
        if db.repair_count().unwrap_or(u128::MAX) > 1 << 12 {
            continue;
        }
        for &(text, bound) in grouped {
            let query = parse_agg_query(text).unwrap();
            let engine = RangeCqa::new(&query, &cfg.schema()).unwrap();
            let prepared = PreparedAggQuery::new(&query, &cfg.schema()).unwrap();
            let exact = exact_bounds_by_group(&prepared, &db, 1 << 20).unwrap();
            let ours = match bound {
                BoundKind::Glb => engine.glb(&db).unwrap(),
                BoundKind::Lub => engine.lub(&db).unwrap(),
            };
            assert_eq!(
                ours.len(),
                exact.len(),
                "{text} group count (seed {})",
                cfg.seed
            );
            for ((key_a, answer), (key_b, bounds)) in ours.iter().zip(exact.iter()) {
                assert_eq!(key_a, key_b, "{text} group order (seed {})", cfg.seed);
                assert_ne!(
                    answer.method,
                    Method::ExactEnumeration,
                    "{text} {bound:?} must take the optimized path (seed {})",
                    cfg.seed
                );
                let exact_value = match bound {
                    BoundKind::Glb => bounds.glb,
                    BoundKind::Lub => bounds.lub,
                };
                assert_eq!(
                    answer.value, exact_value,
                    "{text} {bound:?} group {key_a:?} disagrees (seed {})",
                    cfg.seed
                );
            }
        }
    }
}

#[test]
fn range_is_consistent_with_individual_bounds_on_generated_data() {
    for cfg in workloads().take(3) {
        let db = cfg.generate();
        let query = parse_agg_query("(x, MAX(r)) <- R(x, y), S(y, z, r)").unwrap();
        let engine = RangeCqa::new(&query, &cfg.schema()).unwrap();
        let ranges = engine.range(&db).unwrap();
        let glb = engine.glb(&db).unwrap();
        let lub = engine.lub(&db).unwrap();
        assert_eq!(ranges.len(), glb.len());
        for ((range, (gk, g)), (lk, l)) in ranges.iter().zip(glb.iter()).zip(lub.iter()) {
            assert_eq!(&range.key, gk);
            assert_eq!(&range.key, lk);
            assert_eq!(range.glb.as_ref().unwrap(), g);
            assert_eq!(range.lub.as_ref().unwrap(), l);
            // A range answer is an interval: glb ≤ lub whenever both exist.
            if let (Some(lo), Some(hi)) = (g.value, l.value) {
                assert!(lo <= hi, "inverted interval for group {gk:?}");
            }
        }
    }
}
