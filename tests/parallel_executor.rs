//! Property test for the block-sharded parallel executor: on generator-driven
//! instances, evaluating at 2, 4, and 8 worker threads returns **identical**
//! `GroupRange` / bound vectors to the sequential plan (1 thread), across
//! every rewriting-backed `(aggregate, bound)` pair — same group keys, same
//! values, same methods, same order.

use rcqa::core::engine::{EngineOptions, GroupRange, Method, RangeCqa};
use rcqa::core::rewrite::BoundKind;
use rcqa::data::Value;
use rcqa::gen::JoinWorkload;
use rcqa::query::parse_agg_query;

/// Grouped query per rewriting-backed aggregate, with the bounds that are
/// rewriting-backed for it over the join workload's schema (`R(x, y)`,
/// `S(y, z, r)` with non-negative `r`).
const REWRITABLE_GROUPED: &[(&str, &[BoundKind])] = &[
    ("(x, SUM(r)) <- R(x, y), S(y, z, r)", &[BoundKind::Glb]),
    ("(x, COUNT(*)) <- R(x, y), S(y, z, r)", &[BoundKind::Glb]),
    (
        "(x, MAX(r)) <- R(x, y), S(y, z, r)",
        &[BoundKind::Glb, BoundKind::Lub],
    ),
    (
        "(x, MIN(r)) <- R(x, y), S(y, z, r)",
        &[BoundKind::Glb, BoundKind::Lub],
    ),
];

fn workloads() -> impl Iterator<Item = JoinWorkload> {
    [
        (21u64, 0.0, 5usize),
        (22, 0.2, 9),
        (23, 0.4, 16),
        (24, 0.6, 11),
        (25, 0.3, 24),
        (26, 0.5, 7),
    ]
    .into_iter()
    .map(|(seed, ratio, r_blocks)| JoinWorkload {
        r_blocks,
        y_domain: (r_blocks / 2).max(2),
        s_blocks_per_y: 3,
        inconsistency_ratio: ratio,
        block_size: 2,
        max_value: 40,
        seed,
    })
}

fn engine(text: &str, cfg: &JoinWorkload, threads: usize) -> RangeCqa {
    let query = parse_agg_query(text).unwrap();
    RangeCqa::new(&query, &cfg.schema())
        .unwrap()
        .with_options(EngineOptions { threads })
}

#[test]
fn parallel_executor_matches_sequential_per_bound() {
    for cfg in workloads() {
        let db = cfg.generate();
        for &(text, bounds) in REWRITABLE_GROUPED {
            for &bound in bounds {
                let baseline: Vec<(Vec<Value>, _)> = match bound {
                    BoundKind::Glb => engine(text, &cfg, 1).glb(&db).unwrap(),
                    BoundKind::Lub => engine(text, &cfg, 1).lub(&db).unwrap(),
                };
                assert!(
                    baseline
                        .iter()
                        .all(|(_, a)| a.method != Method::ExactEnumeration),
                    "{text} {bound:?} must be rewriting-backed (seed {})",
                    cfg.seed
                );
                for threads in [2usize, 4, 8] {
                    let parallel = match bound {
                        BoundKind::Glb => engine(text, &cfg, threads).glb(&db).unwrap(),
                        BoundKind::Lub => engine(text, &cfg, threads).lub(&db).unwrap(),
                    };
                    assert_eq!(
                        parallel, baseline,
                        "{text} {bound:?} at {threads} threads diverges from \
                         sequential (seed {})",
                        cfg.seed
                    );
                }
            }
        }
    }
}

#[test]
fn parallel_executor_matches_sequential_full_ranges() {
    // MIN and MAX are rewriting-backed on both bounds, so the whole
    // GroupRange vector (keys, both bounds, methods) must be identical.
    for cfg in workloads() {
        let db = cfg.generate();
        for text in [
            "(x, MAX(r)) <- R(x, y), S(y, z, r)",
            "(x, MIN(r)) <- R(x, y), S(y, z, r)",
        ] {
            let baseline: Vec<GroupRange> = engine(text, &cfg, 1).range(&db).unwrap();
            for threads in [2usize, 4, 8] {
                let parallel = engine(text, &cfg, threads).range(&db).unwrap();
                assert_eq!(
                    parallel, baseline,
                    "{text} range at {threads} threads diverges (seed {})",
                    cfg.seed
                );
            }
        }
    }
}

#[test]
fn env_override_is_respected_and_agrees() {
    // RCQA_THREADS drives the default worker count; an explicit option wins.
    // (Set/removed in one test to avoid races with parallel test threads —
    // this is the only test in the binary touching the variable.)
    let cfg = workloads().next().unwrap();
    let db = cfg.generate();
    let text = "(x, MAX(r)) <- R(x, y), S(y, z, r)";
    let baseline = engine(text, &cfg, 1).range(&db).unwrap();

    // Preserve whatever the harness (e.g. the CI RCQA_THREADS matrix) set, so
    // later tests in this process still see the intended default.
    let saved = std::env::var("RCQA_THREADS").ok();
    std::env::set_var("RCQA_THREADS", "3");
    let via_env = engine(text, &cfg, 0).range(&db).unwrap();
    // The env var drives the auto default; an explicit thread count wins.
    assert_eq!(EngineOptions::default().resolve_threads(), 3);
    let explicit = EngineOptions { threads: 1 };
    assert_eq!(explicit.resolve_threads(), 1);
    match saved {
        Some(value) => std::env::set_var("RCQA_THREADS", value),
        None => std::env::remove_var("RCQA_THREADS"),
    }

    assert_eq!(via_env, baseline);
}
