//! # rcqa-bench
//!
//! Experiment harness for the `rcqa` workspace. Every experiment listed in
//! `DESIGN.md` / `EXPERIMENTS.md` (E1–E10) is implemented here as a function
//! that returns a printable report; the `harness` binary runs them and the
//! Criterion benches time the performance-sensitive ones.

#![warn(missing_docs)]

use rcqa_baselines::{fuxman_sum_glb, maxsat_glb};
use rcqa_core::engine::{GroupRange, RangeCqa};
use rcqa_core::exact::exact_bounds;
use rcqa_core::prepared::PreparedAggQuery;
use rcqa_core::rewrite::{rewriting_for, BoundKind};
use rcqa_core::{classify, forall};
use rcqa_data::{fact, DatabaseInstance, NumericDomain, Schema, Signature, Value};
use rcqa_gen::{fuxman_counterexample, JoinWorkload};
use rcqa_query::{parse_agg_query, AttackGraph};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// The Fig. 1 database instance `dbStock`.
pub fn db_stock() -> DatabaseInstance {
    let schema = Schema::new()
        .with_relation("Dealers", Signature::new(2, 1, []).unwrap())
        .with_relation("Stock", Signature::new(3, 2, [2]).unwrap());
    let mut db = DatabaseInstance::new(schema);
    db.insert_all([
        fact!("Dealers", "Smith", "Boston"),
        fact!("Dealers", "Smith", "New York"),
        fact!("Dealers", "James", "Boston"),
        fact!("Stock", "Tesla X", "Boston", 35),
        fact!("Stock", "Tesla X", "Boston", 40),
        fact!("Stock", "Tesla Y", "Boston", 35),
        fact!("Stock", "Tesla Y", "New York", 95),
        fact!("Stock", "Tesla Y", "New York", 96),
    ])
    .unwrap();
    db
}

/// The Fig. 3 database instance `db0`.
pub fn db0() -> DatabaseInstance {
    let schema = Schema::new()
        .with_relation("R", Signature::new(2, 1, []).unwrap())
        .with_relation("S", Signature::new(4, 2, [3]).unwrap());
    let mut db = DatabaseInstance::new(schema);
    db.insert_all([
        fact!("R", "a1", "b1"),
        fact!("R", "a1", "b2"),
        fact!("R", "a2", "b2"),
        fact!("R", "a2", "b3"),
        fact!("R", "a3", "b4"),
        fact!("S", "b1", "c1", "d", 1),
        fact!("S", "b1", "c1", "d", 2),
        fact!("S", "b1", "c2", "d", 3),
        fact!("S", "b2", "c3", "d", 5),
        fact!("S", "b2", "c3", "d", 6),
        fact!("S", "b3", "c4", "d", 5),
        fact!("S", "b4", "c5", "d", 7),
        fact!("S", "b4", "c5", "e", 8),
    ])
    .unwrap();
    db
}

fn fmt_bound(v: Option<rcqa_data::Rational>) -> String {
    match v {
        Some(r) => r.to_string(),
        None => "⊥".to_string(),
    }
}

/// E1 — Fig. 1 and the introduction query g0: GLB should be 70.
pub fn e1() -> String {
    let db = db_stock();
    let q = parse_agg_query("SUM(y) <- Dealers('Smith', t), Stock(p, t, y)").unwrap();
    let engine = RangeCqa::new(&q, db.schema()).unwrap();
    let glb = engine.glb(&db).unwrap();
    let lub = engine.lub(&db).unwrap();
    let mut out = String::new();
    writeln!(out, "E1  Fig. 1 + query g0 (introduction)").unwrap();
    writeln!(out, "  query        : {q}").unwrap();
    writeln!(out, "  paper glb    : 70 (repair marked with † in Fig. 1)").unwrap();
    writeln!(out, "  measured glb : {}", fmt_bound(glb[0].1.value)).unwrap();
    writeln!(out, "  measured lub : {}", fmt_bound(lub[0].1.value)).unwrap();
    out
}

/// E2 — Fig. 2 / Example 3.1: attack graph of q0 and its instantiation.
pub fn e2() -> String {
    let schema = Schema::new()
        .with_relation("R", Signature::new(2, 1, []).unwrap())
        .with_relation("S", Signature::new(3, 2, []).unwrap())
        .with_relation("T", Signature::new(3, 2, []).unwrap())
        .with_relation("N", Signature::new(3, 2, []).unwrap())
        .with_relation("M", Signature::new(2, 2, []).unwrap());
    let body =
        rcqa_query::parse_body("R(x, y), S(y, z, u), T(y, z, w), N(u, v, r), M(u, w)").unwrap();
    let graph = AttackGraph::new(&body, &schema);
    let mut out = String::new();
    writeln!(out, "E2  Fig. 2 / Example 3.1: attack graph of q0").unwrap();
    for (i, j) in graph.edge_list() {
        writeln!(
            out,
            "  {} ⇝ {}   ({})",
            graph.atom(i).relation(),
            graph.atom(j).relation(),
            if graph.is_weak_attack(i, j) {
                "weak"
            } else {
                "strong"
            }
        )
        .unwrap();
    }
    writeln!(out, "  acyclic      : {}", graph.is_acyclic()).unwrap();
    writeln!(
        out,
        "  paper says   : acyclic, R attacks S, T, N, M; S attacks N, M; T attacks M"
    )
    .unwrap();
    out
}

/// E3 — Fig. 3–5 / Section 6.1: ∀embeddings M0 and GLB = 9, plus the symbolic
/// rewriting.
pub fn e3() -> String {
    let db = db0();
    let q = parse_agg_query("SUM(r) <- R(x, y), S(y, z, 'd', r)").unwrap();
    let prepared = PreparedAggQuery::new(&q, db.schema()).unwrap();
    let analysis = forall::analyse(&prepared.body, &db);
    let engine = RangeCqa::new(&q, db.schema()).unwrap();
    let glb = engine.glb(&db).unwrap();
    let rewriting = rewriting_for(&prepared, BoundKind::Glb).unwrap();
    let mut out = String::new();
    writeln!(out, "E3  Fig. 3–5 / Section 6.1 running example").unwrap();
    writeln!(out, "  query                  : {q}").unwrap();
    writeln!(
        out,
        "  |embeddings|           : {} (paper: 9)",
        analysis.embeddings.len()
    )
    .unwrap();
    writeln!(
        out,
        "  |∀embeddings| (M0)     : {} (paper: 8)",
        analysis.forall_embeddings.len()
    )
    .unwrap();
    writeln!(out, "  paper glb              : 9").unwrap();
    writeln!(
        out,
        "  measured glb           : {}",
        fmt_bound(glb[0].1.value)
    )
    .unwrap();
    writeln!(out, "  rewriting size (nodes) : {}", rewriting.size()).unwrap();
    writeln!(out, "  certainty rewriting    : {}", rewriting.certainty).unwrap();
    out
}

/// E4 — Examples 4.1 / 4.4: ∀embeddings over dbStock.
pub fn e4() -> String {
    let db = db_stock();
    let q = parse_agg_query("COUNT(*) <- Dealers('James', t), Stock(p, t, 35)").unwrap();
    let prepared = PreparedAggQuery::new(&q, db.schema()).unwrap();
    let analysis = forall::analyse(&prepared.body, &db);
    let mut out = String::new();
    writeln!(
        out,
        "E4  Examples 4.1 / 4.4: ∀embeddings of q0 over dbStock"
    )
    .unwrap();
    writeln!(
        out,
        "  certain (0-∀embedding exists) : {} (paper: yes)",
        analysis.certain
    )
    .unwrap();
    writeln!(
        out,
        "  embeddings                    : {} (paper: 2)",
        analysis.embeddings.len()
    )
    .unwrap();
    writeln!(
        out,
        "  ∀embeddings                   : {} (paper: 1, namely t=Boston, p=Tesla Y)",
        analysis.forall_embeddings.len()
    )
    .unwrap();
    for e in &analysis.forall_embeddings {
        writeln!(out, "    ∀embedding: {e:?}").unwrap();
    }
    out
}

/// E5 — The separation theorem (Theorem 1.1 / 7.11) on a suite of queries.
pub fn e5() -> String {
    let schema = Schema::new()
        .with_relation("R", Signature::new(2, 1, [1]).unwrap())
        .with_relation("S", Signature::new(4, 2, [3]).unwrap())
        .with_relation("S1", Signature::new(2, 1, []).unwrap())
        .with_relation("S2", Signature::new(2, 1, []).unwrap())
        .with_relation("T", Signature::new(3, 2, [2]).unwrap())
        .with_relation("U", Signature::new(2, 1, [1]).unwrap());
    let suite = [
        "SUM(r) <- R(x, r), S(x, z, 'd', r)",
        "SUM(r) <- S1(x, 'c1'), S2(y, 'c2'), T(x, y, r)",
        "SUM(y) <- R(x, y), U(y, x)",
        "MAX(r) <- R(x, r), S(x, z, 'd', r)",
        "MIN(r) <- R(x, r), S(x, z, 'd', r)",
        "AVG(r) <- R(x, r), S(x, z, 'd', r)",
        "COUNT(*) <- R(x, y), S(x, z, 'd', r)",
        "COUNT-DISTINCT(r) <- R(x, r)",
    ];
    let mut out = String::new();
    writeln!(
        out,
        "E5  Separation decision (Theorems 1.1, 5.5, 6.1, 7.10, 7.11)"
    )
    .unwrap();
    writeln!(
        out,
        "  {:<48} {:>8} {:>14} {:>14}",
        "query", "acyclic", "GLB", "LUB"
    )
    .unwrap();
    for text in suite {
        let q = parse_agg_query(text).unwrap();
        let c = classify(&q, &schema).unwrap();
        let short = |e: &rcqa_core::Expressibility| match e {
            rcqa_core::Expressibility::Rewritable { .. } => "rewritable",
            rcqa_core::Expressibility::NotRewritable { .. } => "no rewriting",
            rcqa_core::Expressibility::Open { .. } => "open/fallback",
        };
        writeln!(
            out,
            "  {:<48} {:>8} {:>14} {:>14}",
            text,
            c.attack_graph_acyclic,
            short(&c.glb),
            short(&c.lub)
        )
        .unwrap();
    }
    out
}

/// One row of the scaling experiment E6.
#[derive(Clone, Debug)]
pub struct ScalingRow {
    /// Number of facts in the instance.
    pub facts: usize,
    /// Number of inconsistent blocks.
    pub inconsistent_blocks: usize,
    /// GLB computed by the rewriting-based engine.
    pub rewriting_glb: Option<rcqa_data::Rational>,
    /// Time (milliseconds) of the rewriting-based engine.
    pub rewriting_ms: f64,
    /// Time (milliseconds) of the MaxSAT baseline (None if skipped).
    pub maxsat_ms: Option<f64>,
    /// Time (milliseconds) of exact repair enumeration (None if skipped).
    pub exact_ms: Option<f64>,
    /// Whether all computed answers agreed.
    pub agree: bool,
}

/// E6 — scaling of the rewriting-based engine vs the MaxSAT baseline vs exact
/// enumeration on the two-relation join workload.
pub fn e6(sizes: &[usize], with_baselines_up_to: usize) -> Vec<ScalingRow> {
    let mut rows = Vec::new();
    for &n in sizes {
        let cfg = JoinWorkload {
            r_blocks: n,
            y_domain: (n / 2).max(1),
            s_blocks_per_y: 2,
            inconsistency_ratio: 0.1,
            block_size: 2,
            max_value: 100,
            seed: 7,
        };
        let db = cfg.generate();
        let query = cfg.sum_query();
        let engine = RangeCqa::new(&query, &cfg.schema()).unwrap();
        let prepared = PreparedAggQuery::new(&query, &cfg.schema()).unwrap();

        let t0 = Instant::now();
        let glb = engine.glb(&db).unwrap()[0].1.value;
        let rewriting_ms = t0.elapsed().as_secs_f64() * 1e3;

        let (maxsat_ms, maxsat_glb_val) = if n <= with_baselines_up_to {
            let t = Instant::now();
            let m = maxsat_glb(&prepared, &db).ok();
            (Some(t.elapsed().as_secs_f64() * 1e3), m.and_then(|m| m.glb))
        } else {
            (None, None)
        };
        let (exact_ms, exact_glb_val) = if n <= with_baselines_up_to {
            let t = Instant::now();
            let e = exact_bounds(&prepared, &db, 1 << 24).ok();
            (Some(t.elapsed().as_secs_f64() * 1e3), e.and_then(|e| e.glb))
        } else {
            (None, None)
        };
        let agree = maxsat_glb_val.map(|m| Some(m) == glb).unwrap_or(true)
            && exact_glb_val.map(|e| Some(e) == glb).unwrap_or(true);
        rows.push(ScalingRow {
            facts: db.len(),
            inconsistent_blocks: db.inconsistent_block_count(),
            rewriting_glb: glb,
            rewriting_ms,
            maxsat_ms,
            exact_ms,
            agree,
        });
    }
    rows
}

/// Formats the E6 rows as a table.
pub fn format_e6(rows: &[ScalingRow]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "E6  GLB(SUM) scaling: rewriting vs MaxSAT vs exact enumeration"
    )
    .unwrap();
    writeln!(
        out,
        "  {:>8} {:>10} {:>12} {:>14} {:>14} {:>14} {:>7}",
        "facts", "bad blk", "glb", "rewriting ms", "maxsat ms", "exact ms", "agree"
    )
    .unwrap();
    for r in rows {
        writeln!(
            out,
            "  {:>8} {:>10} {:>12} {:>14.2} {:>14} {:>14} {:>7}",
            r.facts,
            r.inconsistent_blocks,
            fmt_bound(r.rewriting_glb),
            r.rewriting_ms,
            r.maxsat_ms
                .map(|v| format!("{v:.2}"))
                .unwrap_or_else(|| "-".into()),
            r.exact_ms
                .map(|v| format!("{v:.2}"))
                .unwrap_or_else(|| "-".into()),
            r.agree
        )
        .unwrap();
    }
    out
}

/// E7 — sensitivity to the inconsistency ratio at fixed size.
pub fn e7(ratios: &[f64]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "E7  Sensitivity to the inconsistency ratio (fixed ~600-fact instance)"
    )
    .unwrap();
    writeln!(
        out,
        "  {:>8} {:>8} {:>10} {:>12} {:>14}",
        "ratio", "facts", "bad blk", "glb", "rewriting ms"
    )
    .unwrap();
    for &ratio in ratios {
        let cfg = JoinWorkload {
            r_blocks: 200,
            y_domain: 100,
            s_blocks_per_y: 2,
            inconsistency_ratio: ratio,
            block_size: 2,
            max_value: 100,
            seed: 11,
        };
        let db = cfg.generate();
        let engine = RangeCqa::new(&cfg.sum_query(), &cfg.schema()).unwrap();
        let t0 = Instant::now();
        let glb = engine.glb(&db).unwrap()[0].1.value;
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        writeln!(
            out,
            "  {:>8.2} {:>8} {:>10} {:>12} {:>14.2}",
            ratio,
            db.len(),
            db.inconsistent_block_count(),
            fmt_bound(glb),
            ms
        )
        .unwrap();
    }
    out
}

/// E8 — GROUP BY range semantics (Section 6.2), answered through the SQL
/// session facade so the harness exercises the same
/// parse → classify → plan → execute path as every other consumer.
pub fn e8() -> String {
    let catalog = rcqa_query::Catalog::new()
        .with_table(
            rcqa_query::TableDef::new("Dealers")
                .key_column("Name")
                .column("Town"),
        )
        .with_table(
            rcqa_query::TableDef::new("Stock")
                .key_column("Product")
                .key_column("Town")
                .numeric_column("Qty"),
        );
    let session = rcqa_session::Session::with_instance(catalog, db_stock());
    let sql = "SELECT D.Name, SUM(S.Qty) FROM Dealers AS D, Stock AS S \
               WHERE D.Town = S.Town GROUP BY D.Name";
    let outcome = session.execute(sql).expect("E8 query executes");
    let mut out = String::new();
    writeln!(
        out,
        "E8  GROUP BY range semantics (Section 1 / 6.2 SQL example, via rcqa-session)"
    )
    .unwrap();
    writeln!(out, "  SQL: {sql}").unwrap();
    writeln!(out, "  {:<10} {:>8} {:>8}", "dealer", "glb", "lub").unwrap();
    for row in outcome.rows.iter() {
        writeln!(
            out,
            "  {:<10} {:>8} {:>8}",
            row.key[0].to_string(),
            fmt_bound(row.glb.unwrap().value),
            fmt_bound(row.lub.unwrap().value)
        )
        .unwrap();
    }
    writeln!(out, "  expected: James [70, 75], Smith [70, 96]").unwrap();
    out
}

/// E9 — the Section 7.3 refutation of Fuxman's Caggforest claim.
pub fn e9() -> String {
    let (db, query) = fuxman_counterexample();
    let prepared = PreparedAggQuery::new(&query, db.schema()).unwrap();
    let exact = exact_bounds(&prepared, &db, 1 << 20).unwrap();
    let fux = fuxman_sum_glb(&prepared, &db).unwrap();
    let engine = RangeCqa::new(&query, db.schema()).unwrap();
    let ours = engine.glb(&db).unwrap()[0].1;
    let classification =
        rcqa_core::classify_with_domain(&query, db.schema(), NumericDomain::Unconstrained).unwrap();
    let mut out = String::new();
    writeln!(
        out,
        "E9  Section 7.3: refuting the Caggforest claim of [21]"
    )
    .unwrap();
    writeln!(out, "  query                     : {query}").unwrap();
    writeln!(
        out,
        "  in Caggforest             : {}",
        classification.in_caggforest
    )
    .unwrap();
    writeln!(
        out,
        "  exact glb (ground truth)  : {}",
        fmt_bound(exact.glb)
    )
    .unwrap();
    writeln!(out, "  Fuxman-style rewriting    : {}", fux.glb).unwrap();
    writeln!(
        out,
        "  rcqa engine ({:?})  : {}",
        ours.method,
        fmt_bound(ours.value)
    )
    .unwrap();
    writeln!(
        out,
        "  flaw reproduced           : {} (Fuxman bound exceeds the true glb)",
        Some(fux.glb) > exact.glb
    )
    .unwrap();
    out
}

/// E10 — MIN/MAX separation (Theorem 7.11) and growth of the rewriting size
/// with query size (Theorem 1.1 promises a quadratic bound).
pub fn e10() -> String {
    let db = db0();
    let mut out = String::new();
    writeln!(out, "E10 MIN/MAX bounds and rewriting-size growth").unwrap();
    for text in [
        "MIN(r) <- R(x, y), S(y, z, 'd', r)",
        "MAX(r) <- R(x, y), S(y, z, 'd', r)",
    ] {
        let q = parse_agg_query(text).unwrap();
        let engine = RangeCqa::new(&q, db.schema()).unwrap();
        let glb = engine.glb(&db).unwrap()[0].1;
        let lub = engine.lub(&db).unwrap()[0].1;
        writeln!(
            out,
            "  {:<40} glb={:<4} ({:?}), lub={:<4} ({:?})",
            text,
            fmt_bound(glb.value),
            glb.method,
            fmt_bound(lub.value),
            lub.method
        )
        .unwrap();
    }
    writeln!(out, "  rewriting size vs query size (chain queries):").unwrap();
    writeln!(
        out,
        "  {:>6} {:>16} {:>16}",
        "atoms", "certainty size", "total size"
    )
    .unwrap();
    for k in 1..=6usize {
        let mut schema = Schema::new();
        let mut atoms = Vec::new();
        for i in 0..k {
            schema.add_relation(format!("C{i}"), Signature::new(2, 1, [1]).unwrap());
            atoms.push(format!("C{i}(x{i}, x{})", i + 1));
        }
        let text = format!("SUM(x{k}) <- {}", atoms.join(", "));
        let q = PreparedAggQuery::new(&parse_agg_query(&text).unwrap(), &schema).unwrap();
        let rewriting = rewriting_for(&q, BoundKind::Glb).unwrap();
        writeln!(
            out,
            "  {:>6} {:>16} {:>16}",
            k,
            rewriting.certainty.size(),
            rewriting.size()
        )
        .unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_experiments_report_expected_numbers() {
        assert!(e1().contains("measured glb : 70"));
        assert!(e2().contains("acyclic      : true"));
        let e3_out = e3();
        assert!(e3_out.contains("(M0)     : 8"));
        assert!(e3_out.contains("measured glb           : 9"));
        assert!(e4().contains("∀embeddings                   : 1"));
        assert!(e5().contains("rewritable"));
        assert!(e8().contains("James"));
        assert!(e9().contains("flaw reproduced           : true"));
        assert!(e10().contains("glb=1"));
    }

    #[test]
    fn scaling_experiment_small() {
        let rows = e6(&[20, 30], 25);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.agree));
        let table = format_e6(&rows);
        assert!(table.contains("rewriting ms"));
        assert!(e7(&[0.0, 0.2]).contains("Sensitivity"));
    }

    #[test]
    fn parallel_bench_agrees_and_serialises() {
        let bench = bench_parallel(24, 1);
        assert!(bench.groups > 0);
        assert!(bench.agree, "thread counts must return identical answers");
        assert_eq!(bench.threads, vec![1, 2, 4]);
        let json = bench.to_json();
        assert!(json.contains("\"threads\": [1, 2, 4]"));
        assert!(json.contains("\"speedup_at_4\": "));
        assert!(format_parallel(&bench).contains("answers agree : true"));
    }

    #[test]
    fn scale_bench_agrees_and_serialises() {
        let bench = bench_scale(3_000, 1);
        assert!(bench.facts >= 3_000);
        assert!(bench.groups > 0);
        assert!(
            bench.agree,
            "row and columnar layouts must compute identical group maps"
        );
        assert!(bench.row_peak_bytes > 0 && bench.columnar_peak_bytes > 0);
        let json = bench.to_json();
        assert!(json.contains("\"benchmark\": \"scale_interned_columnar_vs_row\""));
        assert!(json.contains("\"speedup\": "));
        assert!(json.contains("\"agree\": true"));
        assert!(format_scale(&bench).contains("answers agree   : true"));
    }

    #[test]
    fn range_bench_agrees_and_serialises() {
        let bench = bench_range(3_000, 1);
        assert!(bench.facts >= 3_000);
        assert!(bench.groups > 0);
        assert!(bench.matched_groups > 0, "the x9* family must be non-empty");
        assert!(
            bench.matched_groups < bench.groups,
            "the range predicate must be selective"
        );
        assert!(bench.agree, "seek and forced-scan arms must agree");
        assert!(bench.seek_path_used, "the planner must choose the seek");
        let json = bench.to_json();
        assert!(json.contains("\"benchmark\": \"range_seek_vs_full_scan\""));
        assert!(json.contains("\"speedup\": "));
        assert!(json.contains("\"agree\": true"));
        assert!(format_range(&bench).contains("answers agree  : true"));
    }

    #[test]
    fn groupby_bench_agrees_and_serialises() {
        let bench = bench_groupby(24, 2);
        assert!(bench.groups > 0);
        assert!(bench.agree, "one-pass and seed strategies must agree");
        let json = bench.to_json();
        assert!(json.contains("\"groups\": "));
        assert!(json.contains("\"speedup\": "));
        assert!(format_groupby(&bench).contains("answers agree : true"));
    }
}

/// The seed evaluation strategy for grouped GLB(SUM) queries, retained as a
/// regression baseline for the one-pass pipeline: enumerate candidate groups
/// (one index build), then **per group** re-substitute the key, re-run query
/// preparation (attack graph included), rebuild the database index, and
/// evaluate the closed query from scratch. A GROUP BY query over `G` groups
/// therefore pays `G + 1` index builds and `G` preparations per bound, which
/// is exactly what `BENCH_groupby.json` measures the new pipeline against.
pub mod legacy {
    use rcqa_core::engine::{candidate_groups, substitute_group};
    use rcqa_core::forall::analyse;
    use rcqa_core::glb::optimal_aggregate;
    use rcqa_core::prepared::PreparedAggQuery;
    use rcqa_core::Choice;
    use rcqa_data::{AggFunc, DatabaseInstance, Rational, Schema, Value};
    use rcqa_query::AggQuery;

    /// Grouped GLB of a SUM query, one full re-preparation and index rebuild
    /// per group (the pre-optimisation engine behaviour).
    pub fn grouped_sum_glb(
        query: &AggQuery,
        schema: &Schema,
        db: &DatabaseInstance,
    ) -> Vec<(Vec<Value>, Option<Rational>)> {
        let prepared = PreparedAggQuery::new(query, schema).expect("benchmark query prepares");
        let groups = candidate_groups(&prepared, db);
        let mut out = Vec::with_capacity(groups.len());
        for key in groups {
            let closed = substitute_group(&prepared, &key).expect("group key substitutes");
            let analysis = analyse(&closed.body, db);
            let value = if analysis.certain {
                optimal_aggregate(
                    closed.body.levels(),
                    &analysis.forall_embeddings,
                    &closed.normalised.term,
                    AggFunc::Sum,
                    Choice::Minimise,
                )
            } else {
                None
            };
            out.push((key, value));
        }
        out
    }
}

/// Result of the GROUP BY pipeline benchmark (E11): the one-pass engine vs
/// the seed per-group strategy on the same grouped SUM workload.
#[derive(Clone, Debug)]
pub struct GroupbyBench {
    /// Number of GROUP BY groups answered.
    pub groups: usize,
    /// Number of facts in the instance.
    pub facts: usize,
    /// Number of timed samples per arm (best sample reported).
    pub samples: usize,
    /// Best wall-clock time of the one-pass engine (milliseconds).
    pub optimized_ms: f64,
    /// Best wall-clock time of the seed strategy (milliseconds).
    pub legacy_ms: f64,
    /// `legacy_ms / optimized_ms`.
    pub speedup: f64,
    /// Whether both strategies returned identical per-group answers.
    pub agree: bool,
}

impl GroupbyBench {
    /// Machine-readable JSON encoding (no external serialisation crates in
    /// this offline workspace, so the fields are written by hand).
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"benchmark\": \"groupby_one_pass_vs_seed\",\n  \"groups\": {},\n  \
             \"facts\": {},\n  \"samples\": {},\n  \"optimized_ms\": {:.3},\n  \
             \"legacy_ms\": {:.3},\n  \"speedup\": {:.2},\n  \"agree\": {}\n}}\n",
            self.groups,
            self.facts,
            self.samples,
            self.optimized_ms,
            self.legacy_ms,
            self.speedup,
            self.agree
        )
    }
}

/// Best-of-`samples` wall-clock milliseconds for repeated runs of `f` (the
/// timing discipline shared by E11 and E12).
fn best_of_ms(samples: usize, f: &mut dyn FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..samples.max(1) {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// E11 — GROUP BY scaling: the one-pass shared-index pipeline vs the seed
/// per-group re-preparation strategy, on a grouped SUM workload with
/// `r_blocks` groups. Reports best-of-`samples` wall-clock per arm. Both
/// arms are pinned to one executor thread so the measurement isolates the
/// one-pass pipeline itself (E12 / `bench_parallel` measures threading).
pub fn bench_groupby(r_blocks: usize, samples: usize) -> GroupbyBench {
    let cfg = JoinWorkload {
        r_blocks,
        y_domain: (r_blocks / 2).max(1),
        s_blocks_per_y: 2,
        inconsistency_ratio: 0.1,
        block_size: 2,
        max_value: 100,
        seed: 13,
    };
    let db = cfg.generate();
    let query = cfg.grouped_sum_query();
    let schema = cfg.schema();
    let engine = RangeCqa::new(&query, &schema)
        .expect("benchmark query prepares")
        .with_options(rcqa_core::engine::EngineOptions {
            threads: 1,
            ..Default::default()
        });

    let best = |f: &mut dyn FnMut()| -> f64 { best_of_ms(samples, f) };

    let mut optimized: Vec<(Vec<rcqa_data::Value>, Option<rcqa_data::Rational>)> = Vec::new();
    let optimized_ms = best(&mut || {
        optimized = engine
            .glb(&db)
            .expect("benchmark query evaluates")
            .into_iter()
            .map(|(k, a)| (k, a.value))
            .collect();
    });
    let mut legacy_answers: Vec<(Vec<rcqa_data::Value>, Option<rcqa_data::Rational>)> = Vec::new();
    let legacy_ms = best(&mut || {
        legacy_answers = legacy::grouped_sum_glb(&query, &schema, &db);
    });

    GroupbyBench {
        groups: optimized.len(),
        facts: db.len(),
        samples: samples.max(1),
        optimized_ms,
        legacy_ms,
        speedup: legacy_ms / optimized_ms.max(f64::MIN_POSITIVE),
        agree: optimized == legacy_answers,
    }
}

/// Result of the parallel-executor scaling benchmark (E12): the block-sharded
/// worker pool at increasing thread counts on the grouped SUM workload.
#[derive(Clone, Debug)]
pub struct ParallelBench {
    /// Number of GROUP BY groups answered.
    pub groups: usize,
    /// Number of facts in the instance.
    pub facts: usize,
    /// Number of timed samples per arm (best sample reported).
    pub samples: usize,
    /// The thread counts measured (first entry is the sequential baseline).
    pub threads: Vec<usize>,
    /// Best wall-clock time (milliseconds) per thread count.
    pub ms: Vec<f64>,
    /// Speedup of 4 threads over 1 thread (`ms[1T] / ms[4T]`).
    pub speedup_at_4: f64,
    /// Whether every thread count returned answers identical to 1 thread.
    pub agree: bool,
    /// The machine's available parallelism while measuring. Scaling floors
    /// only make sense when this is at least the measured thread count: on a
    /// single-core box, 4 workers can only add overhead.
    pub available_parallelism: usize,
}

impl ParallelBench {
    /// Machine-readable JSON encoding (no external serialisation crates in
    /// this offline workspace, so the fields are written by hand).
    pub fn to_json(&self) -> String {
        let join = |xs: &[String]| xs.join(", ");
        format!(
            "{{\n  \"benchmark\": \"groupby_parallel_scaling\",\n  \"groups\": {},\n  \
             \"facts\": {},\n  \"samples\": {},\n  \"threads\": [{}],\n  \"ms\": [{}],\n  \
             \"speedup_at_4\": {:.2},\n  \"agree\": {},\n  \
             \"available_parallelism\": {}\n}}\n",
            self.groups,
            self.facts,
            self.samples,
            join(
                &self
                    .threads
                    .iter()
                    .map(|t| t.to_string())
                    .collect::<Vec<_>>()
            ),
            join(
                &self
                    .ms
                    .iter()
                    .map(|m| format!("{m:.3}"))
                    .collect::<Vec<_>>()
            ),
            self.speedup_at_4,
            self.agree,
            self.available_parallelism
        )
    }
}

/// E12 — parallel-executor scaling: the block-sharded worker pool at 1, 2, 4
/// (and, hardware permitting, 8) threads on a grouped SUM workload with
/// `r_blocks` groups. The GLB of SUM is rewriting-backed, so the whole run
/// stays on the one-pass pipeline; only the worker count varies. Reports
/// best-of-`samples` wall-clock per arm.
pub fn bench_parallel(r_blocks: usize, samples: usize) -> ParallelBench {
    // A wide y-domain keeps the per-group certainty sub-problems mostly
    // disjoint, so per-worker memoisation loses little against the shared
    // sequential memo and the parallel region scales close to linearly.
    let cfg = JoinWorkload {
        r_blocks,
        y_domain: r_blocks.max(1),
        s_blocks_per_y: 8,
        inconsistency_ratio: 0.3,
        block_size: 3,
        max_value: 100,
        seed: 17,
    };
    let db = cfg.generate();
    let query = cfg.grouped_sum_query();
    let schema = cfg.schema();

    let best = |f: &mut dyn FnMut()| -> f64 { best_of_ms(samples, f) };

    let thread_counts = vec![1usize, 2, 4];
    let mut ms = Vec::with_capacity(thread_counts.len());
    let mut baseline: Vec<(Vec<rcqa_data::Value>, rcqa_core::engine::BoundAnswer)> = Vec::new();
    let mut agree = true;
    for (i, &threads) in thread_counts.iter().enumerate() {
        let engine = RangeCqa::new(&query, &schema)
            .expect("benchmark query prepares")
            .with_options(rcqa_core::engine::EngineOptions {
                threads,
                ..Default::default()
            });
        let mut answers = Vec::new();
        ms.push(best(&mut || {
            answers = engine.glb(&db).expect("benchmark query evaluates");
        }));
        if i == 0 {
            baseline = answers;
        } else {
            agree = agree && answers == baseline;
        }
    }
    let speedup_at_4 =
        ms[0] / ms[thread_counts.iter().position(|&t| t == 4).unwrap()].max(f64::MIN_POSITIVE);
    ParallelBench {
        groups: baseline.len(),
        facts: db.len(),
        samples: samples.max(1),
        threads: thread_counts,
        ms,
        speedup_at_4,
        agree,
        available_parallelism: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    }
}

/// Formats the E12 report for the harness.
pub fn format_parallel(bench: &ParallelBench) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "E12 Parallel executor: block-sharded worker pool scaling (GLB of grouped SUM)"
    )
    .unwrap();
    writeln!(out, "  groups        : {}", bench.groups).unwrap();
    writeln!(out, "  facts         : {}", bench.facts).unwrap();
    for (t, ms) in bench.threads.iter().zip(bench.ms.iter()) {
        writeln!(out, "  threads = {t:<3} : {ms:.3} ms").unwrap();
    }
    writeln!(out, "  speedup @4T   : {:.2}x", bench.speedup_at_4).unwrap();
    writeln!(out, "  answers agree : {}", bench.agree).unwrap();
    writeln!(
        out,
        "  machine cores : {} (speedup is only meaningful with ≥4)",
        bench.available_parallelism
    )
    .unwrap();
    out
}

/// Formats the E11 report for the harness.
pub fn format_groupby(bench: &GroupbyBench) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "E11 GROUP BY: one-pass shared-index pipeline vs seed strategy"
    )
    .unwrap();
    writeln!(out, "  groups        : {}", bench.groups).unwrap();
    writeln!(out, "  facts         : {}", bench.facts).unwrap();
    writeln!(out, "  one-pass ms   : {:.3}", bench.optimized_ms).unwrap();
    writeln!(out, "  seed-strategy : {:.3} ms", bench.legacy_ms).unwrap();
    writeln!(out, "  speedup       : {:.2}x", bench.speedup).unwrap();
    writeln!(out, "  answers agree : {}", bench.agree).unwrap();
    out
}

/// Result of the serving-session benchmark (E13): one warm [`rcqa_session::Session`]
/// (statement cache + cached incrementally-maintained index + result cache)
/// against per-call cold sessions, on a repeated grouped MAX query, plus
/// insert-then-query latency through the delta path vs full cold rebuilds.
#[derive(Clone, Debug)]
pub struct ServingBench {
    /// Number of GROUP BY groups answered.
    pub groups: usize,
    /// Number of facts in the instance.
    pub facts: usize,
    /// Number of timed samples per arm (best sample reported).
    pub samples: usize,
    /// Repeated executions of the same SQL per throughput arm.
    pub queries: usize,
    /// Best wall-clock total (ms) for `queries` per-call cold sessions.
    pub cold_ms: f64,
    /// Best wall-clock total (ms) for `queries` executes on one warm session.
    pub warm_ms: f64,
    /// `cold_ms / warm_ms` — the serving-layer speedup.
    pub speedup: f64,
    /// Insert-then-query rounds per latency arm.
    pub updates: usize,
    /// Best per-round latency (ms) rebuilding a cold session per update.
    pub cold_update_ms: f64,
    /// Best per-round latency (ms) on the warm session (delta replay +
    /// dirty-group recomputation).
    pub warm_update_ms: f64,
    /// `cold_update_ms / warm_update_ms`.
    pub update_speedup: f64,
    /// Dirty-group (partial) recomputations the warm session performed during
    /// the update arm — evidence the delta path, not a rebuild, served it.
    pub warm_partial_recomputes: u64,
    /// Facts in the scaled-up instance of the write-cost arm (~10x `facts`:
    /// the written relation grown 20x, the other unchanged).
    pub large_facts: usize,
    /// Best per-write commit latency (ms) on the warm session over the base
    /// instance (insert only — no query — through the structurally-shared
    /// snapshot path).
    pub write_ms: f64,
    /// Best per-write commit latency (ms) on the warm session over the
    /// `large_facts` instance. It is the **written** relation that is larger
    /// in this arm; the rest of the database is the same.
    pub write_large_ms: f64,
    /// `write_large_ms / write_ms` — how write cost scales with the size of
    /// the written relation. Leaf-granular structural sharing keeps this
    /// near 1 (a write copies one spine and one leaf per touched block);
    /// sharing that stops at relation granularity scales it with the
    /// relation (that arm used to grow only the relations it did not write,
    /// and so never saw it).
    pub write_cost_ratio: f64,
    /// Whether every arm returned identical rows: warm vs cold, sequential vs
    /// 4-thread, before and after the update sequence.
    pub agree: bool,
}

impl ServingBench {
    /// Machine-readable JSON encoding (no external serialisation crates in
    /// this offline workspace, so the fields are written by hand).
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"benchmark\": \"serving_warm_session_vs_cold\",\n  \"groups\": {},\n  \
             \"facts\": {},\n  \"samples\": {},\n  \"queries\": {},\n  \"cold_ms\": {:.3},\n  \
             \"warm_ms\": {:.3},\n  \"speedup\": {:.2},\n  \"updates\": {},\n  \
             \"cold_update_ms\": {:.3},\n  \"warm_update_ms\": {:.3},\n  \
             \"update_speedup\": {:.2},\n  \"warm_partial_recomputes\": {},\n  \
             \"large_facts\": {},\n  \"write_ms\": {:.4},\n  \"write_large_ms\": {:.4},\n  \
             \"write_cost_ratio\": {:.2},\n  \"agree\": {}\n}}\n",
            self.groups,
            self.facts,
            self.samples,
            self.queries,
            self.cold_ms,
            self.warm_ms,
            self.speedup,
            self.updates,
            self.cold_update_ms,
            self.warm_update_ms,
            self.update_speedup,
            self.warm_partial_recomputes,
            self.large_facts,
            self.write_ms,
            self.write_large_ms,
            self.write_cost_ratio,
            self.agree
        )
    }
}

/// E13 — the serving layer: repeated-query throughput of one warm session
/// (statement + index + result caches) vs per-call cold sessions, and
/// insert-then-query latency through block-level delta maintenance vs cold
/// rebuilds. The grouped MAX query is rewriting-backed on both bounds, so
/// every arm stays on the one-pass pipeline. Instance clones happen outside
/// every timed region. The throughput arms pre-build their sessions and time
/// parse/classify/plan/index/evaluate work only; the **cold update arm
/// deliberately times per-round `Session` construction too** — standing up a
/// session over the mutated instance is exactly the cost a per-call cold
/// server pays, and is what `update_speedup` compares the warm delta path
/// against.
pub fn bench_serving(r_blocks: usize, queries: usize, samples: usize) -> ServingBench {
    use rcqa_data::{Fact, Value};
    use rcqa_query::{Catalog, TableDef};
    use rcqa_session::Session;

    let cfg = JoinWorkload {
        r_blocks,
        y_domain: (r_blocks / 2).max(1),
        s_blocks_per_y: 2,
        inconsistency_ratio: 0.1,
        block_size: 2,
        max_value: 100,
        seed: 13,
    };
    let db = cfg.generate();
    let catalog = || {
        Catalog::new()
            .with_table(TableDef::new("R").key_column("X").column("Y"))
            .with_table(
                TableDef::new("S")
                    .key_column("Y")
                    .key_column("Z")
                    .numeric_column("Qty"),
            )
    };
    let sql = "SELECT R.X, MAX(S.Qty) FROM R, S WHERE R.Y = S.Y GROUP BY R.X";
    let samples = samples.max(1);
    let queries = queries.max(2);

    // Repeated-query throughput: per-call cold sessions ...
    let mut cold_ms = f64::INFINITY;
    let mut cold_rows: Arc<[GroupRange]> = Arc::from(Vec::new());
    for _ in 0..samples {
        let sessions: Vec<Session> = (0..queries)
            .map(|_| Session::with_instance(catalog(), db.clone()))
            .collect();
        let t0 = Instant::now();
        for session in &sessions {
            cold_rows = session.execute(sql).expect("cold execute").rows;
        }
        cold_ms = cold_ms.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    // ... vs one warm session.
    let mut warm_ms = f64::INFINITY;
    let mut warm_rows: Arc<[GroupRange]> = Arc::from(Vec::new());
    for _ in 0..samples {
        let session = Session::with_instance(catalog(), db.clone());
        let t0 = Instant::now();
        for _ in 0..queries {
            warm_rows = session.execute(sql).expect("warm execute").rows;
        }
        warm_ms = warm_ms.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    let mut agree = cold_rows == warm_rows;
    // Caching must be thread-transparent too.
    for threads in [1usize, 4] {
        let session = Session::with_instance(catalog(), db.clone()).with_options(
            rcqa_core::engine::EngineOptions {
                threads,
                ..Default::default()
            },
        );
        session.execute(sql).expect("threaded warm-up");
        agree = agree && session.execute(sql).expect("threaded repeat").rows == warm_rows;
    }

    // Insert-then-query latency. Both arms apply the same update sequence:
    // a new `R` block per round (joins on y0, so the new group is non-empty).
    let updates = 16usize;
    let update_fact =
        |u: usize| Fact::new("R", [Value::text(format!("xu{u:03}")), Value::text("y0")]);
    let mut warm_update_ms = f64::INFINITY;
    let mut warm_partial_recomputes = 0;
    let mut warm_final_rows: Arc<[GroupRange]> = Arc::from(Vec::new());
    for _ in 0..samples {
        let session = Session::with_instance(catalog(), db.clone());
        session.execute(sql).expect("warm-up");
        let partials_before = session.stats().partial_recomputes;
        let t0 = Instant::now();
        for u in 0..updates {
            session.insert(update_fact(u)).expect("warm insert");
            warm_final_rows = session.execute(sql).expect("warm update query").rows;
        }
        warm_update_ms = warm_update_ms.min(t0.elapsed().as_secs_f64() * 1e3 / updates as f64);
        warm_partial_recomputes = session.stats().partial_recomputes - partials_before;
    }
    // Write-cost scaling: the same per-write commit (insert only, no query)
    // against the base instance and against one ~10x larger. It is the
    // written relation (`R`) that grows, 20x; `S` is identical in both — so
    // with leaf-granular sharing the two latencies coincide, while a write
    // path that copies the written relation scales with it. Each timed
    // write replays its delta into the warm index (the session is warmed
    // first), exactly like a serving write.
    let large_db = JoinWorkload {
        r_blocks: cfg.r_blocks * 20,
        ..cfg
    }
    .generate();
    let measure_write = |db: &DatabaseInstance| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..samples {
            let session = Session::with_instance(catalog(), db.clone());
            session.execute(sql).expect("write-arm warm-up");
            let t0 = Instant::now();
            for u in 0..updates {
                session.insert(update_fact(u)).expect("write-arm insert");
            }
            best = best.min(t0.elapsed().as_secs_f64() * 1e3 / updates as f64);
        }
        best
    };
    let write_ms = measure_write(&db);
    let write_large_ms = measure_write(&large_db);

    let mut cold_update_ms = f64::INFINITY;
    let mut cold_final_rows: Arc<[GroupRange]> = Arc::from(Vec::new());
    for _ in 0..samples {
        // Pre-materialise the post-update instances; the timed region covers
        // session construction, preparation, index build, and evaluation.
        let mut dbu = db.clone();
        let dbs: Vec<DatabaseInstance> = (0..updates)
            .map(|u| {
                dbu.insert(update_fact(u)).expect("cold insert");
                dbu.clone()
            })
            .collect();
        let t0 = Instant::now();
        for dbu in dbs {
            let session = Session::with_instance(catalog(), dbu);
            cold_final_rows = session.execute(sql).expect("cold update query").rows;
        }
        cold_update_ms = cold_update_ms.min(t0.elapsed().as_secs_f64() * 1e3 / updates as f64);
    }
    agree = agree && warm_final_rows == cold_final_rows;

    ServingBench {
        groups: warm_rows.len(),
        facts: db.len(),
        samples,
        queries,
        cold_ms,
        warm_ms,
        speedup: cold_ms / warm_ms.max(f64::MIN_POSITIVE),
        updates,
        cold_update_ms,
        warm_update_ms,
        update_speedup: cold_update_ms / warm_update_ms.max(f64::MIN_POSITIVE),
        warm_partial_recomputes,
        large_facts: large_db.len(),
        write_ms,
        write_large_ms,
        write_cost_ratio: write_large_ms / write_ms.max(f64::MIN_POSITIVE),
        agree,
    }
}

/// Formats the E13 report for the harness.
pub fn format_serving(bench: &ServingBench) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "E13 Serving session: warm statement/index/result caches vs per-call cold sessions"
    )
    .unwrap();
    writeln!(out, "  groups          : {}", bench.groups).unwrap();
    writeln!(out, "  facts           : {}", bench.facts).unwrap();
    writeln!(
        out,
        "  {} repeated queries   : cold {:.3} ms, warm {:.3} ms  ({:.2}x)",
        bench.queries, bench.cold_ms, bench.warm_ms, bench.speedup
    )
    .unwrap();
    writeln!(
        out,
        "  insert-then-query    : cold {:.3} ms, warm {:.3} ms  ({:.2}x, {} dirty-group patches)",
        bench.cold_update_ms,
        bench.warm_update_ms,
        bench.update_speedup,
        bench.warm_partial_recomputes
    )
    .unwrap();
    writeln!(
        out,
        "  per-write commit     : {:.4} ms at {} facts, {:.4} ms at {} facts  ({:.2}x)",
        bench.write_ms,
        bench.facts,
        bench.write_large_ms,
        bench.large_facts,
        bench.write_cost_ratio
    )
    .unwrap();
    writeln!(out, "  answers agree   : {}", bench.agree).unwrap();
    out
}

/// Result of the concurrent-serving benchmark (E14): one snapshot-isolated
/// [`rcqa_session::Session`] shared by 1/2/4 client threads on the warm
/// serving path, plus a readers-during-writer agreement check validated
/// against cold sessions at every pinned epoch.
#[derive(Clone, Debug)]
pub struct ConcurrentBench {
    /// Number of GROUP BY groups answered.
    pub groups: usize,
    /// Number of facts in the base instance.
    pub facts: usize,
    /// Number of timed samples per arm (best sample reported).
    pub samples: usize,
    /// Warm executes issued by **each** client thread per arm.
    pub queries_per_client: usize,
    /// The client thread counts measured (first entry is the baseline).
    pub clients: Vec<usize>,
    /// Best wall-clock time (milliseconds) per client count.
    pub ms: Vec<f64>,
    /// Aggregate throughput (warm executes per second) per client count.
    pub throughput_qps: Vec<f64>,
    /// Read-throughput scaling of 4 clients over 1 client.
    pub speedup_at_4: f64,
    /// Effective inserts the racing writer committed (per attempt).
    pub writer_rounds: usize,
    /// Reads that observed a **mid-commit** epoch (strictly between the base
    /// and the final write) — evidence the readers genuinely overlapped the
    /// writer, not just the arm's total read count.
    pub racing_reads: usize,
    /// Whether every read — warm, concurrent, and racing the writer — was
    /// byte-identical to a cold session over the instance at its pinned
    /// epoch.
    pub agree: bool,
    /// The machine's available parallelism while measuring. Scaling floors
    /// only make sense when this is at least the measured client count.
    pub available_parallelism: usize,
}

impl ConcurrentBench {
    /// Machine-readable JSON encoding (no external serialisation crates in
    /// this offline workspace, so the fields are written by hand).
    pub fn to_json(&self) -> String {
        let join = |xs: &[String]| xs.join(", ");
        format!(
            "{{\n  \"benchmark\": \"serving_concurrent_scaling\",\n  \"groups\": {},\n  \
             \"facts\": {},\n  \"samples\": {},\n  \"queries_per_client\": {},\n  \
             \"clients\": [{}],\n  \"ms\": [{}],\n  \"throughput_qps\": [{}],\n  \
             \"speedup_at_4\": {:.2},\n  \"writer_rounds\": {},\n  \"racing_reads\": {},\n  \
             \"agree\": {},\n  \"available_parallelism\": {}\n}}\n",
            self.groups,
            self.facts,
            self.samples,
            self.queries_per_client,
            join(
                &self
                    .clients
                    .iter()
                    .map(|t| t.to_string())
                    .collect::<Vec<_>>()
            ),
            join(
                &self
                    .ms
                    .iter()
                    .map(|m| format!("{m:.3}"))
                    .collect::<Vec<_>>()
            ),
            join(
                &self
                    .throughput_qps
                    .iter()
                    .map(|q| format!("{q:.0}"))
                    .collect::<Vec<_>>()
            ),
            self.speedup_at_4,
            self.writer_rounds,
            self.racing_reads,
            self.agree,
            self.available_parallelism
        )
    }
}

/// E14 — concurrent serving: `execute` holds no session-wide lock during
/// plan execution, so one warm session shared by N client threads should
/// scale its read throughput with the hardware. The throughput arms measure
/// the warm path (statement + result caches hot — the serving steady state);
/// the agreement arm races 4 readers against a writer committing inserts and
/// checks every read against a cold session over the instance at the read's
/// pinned epoch (snapshot isolation, not just eventual agreement).
pub fn bench_concurrent(
    r_blocks: usize,
    queries_per_client: usize,
    samples: usize,
) -> ConcurrentBench {
    use rcqa_core::engine::GroupRange;
    use rcqa_data::{Fact, Value};
    use rcqa_query::{Catalog, TableDef};
    use rcqa_session::Session;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Mutex;

    let cfg = JoinWorkload {
        r_blocks,
        y_domain: (r_blocks / 2).max(1),
        s_blocks_per_y: 2,
        inconsistency_ratio: 0.1,
        block_size: 2,
        max_value: 100,
        seed: 13,
    };
    let db = cfg.generate();
    let catalog = || {
        Catalog::new()
            .with_table(TableDef::new("R").key_column("X").column("Y"))
            .with_table(
                TableDef::new("S")
                    .key_column("Y")
                    .key_column("Z")
                    .numeric_column("Qty"),
            )
    };
    let sql = "SELECT R.X, MAX(S.Qty) FROM R, S WHERE R.Y = S.Y GROUP BY R.X";
    let samples = samples.max(1);
    let queries = queries_per_client.max(1);
    let cold_rows = |db: &DatabaseInstance| -> Arc<[GroupRange]> {
        Session::with_instance(catalog(), db.clone())
            .execute(sql)
            .expect("cold execute")
            .rows
    };

    // Warm-path throughput at 1/2/4 client threads: one shared session,
    // caches hot, every client hammering the same statement.
    let session = Session::with_instance(catalog(), db.clone());
    let baseline_rows = session.execute(sql).expect("warm-up").rows;
    let agree_flag = AtomicBool::new(true);
    let clients = vec![1usize, 2, 4];
    let mut ms = Vec::with_capacity(clients.len());
    let mut throughput_qps = Vec::with_capacity(clients.len());
    for &client_count in &clients {
        let mut best = f64::INFINITY;
        for _ in 0..samples {
            let t0 = Instant::now();
            std::thread::scope(|scope| {
                for _ in 0..client_count {
                    let session = &session;
                    let baseline_rows = &baseline_rows;
                    let agree_flag = &agree_flag;
                    scope.spawn(move || {
                        for _ in 0..queries {
                            let rows = session.execute(sql).expect("warm execute").rows;
                            if &rows != baseline_rows {
                                agree_flag.store(false, Ordering::Relaxed);
                            }
                        }
                    });
                }
            });
            best = best.min(t0.elapsed().as_secs_f64() * 1e3);
        }
        ms.push(best);
        throughput_qps.push((client_count * queries) as f64 / (best / 1e3).max(f64::MIN_POSITIVE));
    }
    let speedup_at_4 = throughput_qps[clients.iter().position(|&t| t == 4).unwrap()]
        / throughput_qps[0].max(f64::MIN_POSITIVE);

    // Readers-during-writer agreement: every read must be byte-identical to
    // a cold session over the instance at the read's pinned epoch.
    // `racing_reads` counts only the reads that *observed a mid-commit
    // epoch* (strictly between the base and the final write) — evidence the
    // readers genuinely overlapped the writer; since the overlap window
    // depends on scheduling, the arm retries on a fresh session until at
    // least one such read occurs.
    let writer_rounds = 16usize;
    let writes: Vec<Fact> = (0..writer_rounds)
        .map(|u| Fact::new("R", [Value::text(format!("zc{u:03}")), Value::text("y0")]))
        .collect();
    let expected_by_epoch: Vec<Arc<[GroupRange]>> = {
        let mut staged = db.clone();
        let mut all = vec![cold_rows(&staged)];
        for f in &writes {
            staged.insert(f.clone()).expect("staged insert");
            all.push(cold_rows(&staged));
        }
        all
    };
    let mut agree = agree_flag.load(Ordering::Relaxed);
    let mut racing_reads = 0usize;
    for _attempt in 0..8 {
        let racing = Session::with_instance(catalog(), db.clone());
        racing.execute(sql).expect("racing warm-up");
        let observed: Mutex<Vec<(u64, Arc<[GroupRange]>)>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let racing = &racing;
                let observed = &observed;
                scope.spawn(move || {
                    for _ in 0..queries {
                        let outcome = racing.execute(sql).expect("racing execute");
                        observed
                            .lock()
                            .expect("observed lock")
                            .push((outcome.epoch, outcome.rows));
                    }
                });
            }
            let racing = &racing;
            let writes = &writes;
            scope.spawn(move || {
                for f in writes {
                    racing.insert(f.clone()).expect("racing insert");
                    // Structurally-shared snapshots made commits so cheap
                    // that the whole write sequence can land inside one
                    // scheduler slice, leaving readers nothing to race.
                    // Yield after each commit so mid-commit epochs stay
                    // observable — this arm validates isolation, not write
                    // throughput.
                    std::thread::yield_now();
                }
            });
        });
        let observed = observed.into_inner().expect("observed lock");
        for (epoch, rows) in &observed {
            agree = agree && rows == &expected_by_epoch[*epoch as usize];
        }
        agree = agree
            && racing.execute(sql).expect("settled execute").rows
                == *expected_by_epoch.last().expect("at least the base epoch");
        racing_reads += observed
            .iter()
            .filter(|(e, _)| *e > 0 && (*e as usize) < writer_rounds)
            .count();
        if racing_reads > 0 {
            break;
        }
    }

    ConcurrentBench {
        groups: baseline_rows.len(),
        facts: db.len(),
        samples,
        queries_per_client: queries,
        clients,
        ms,
        throughput_qps,
        speedup_at_4,
        writer_rounds,
        racing_reads,
        agree,
        available_parallelism: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    }
}

/// Formats the E14 report for the harness.
pub fn format_concurrent(bench: &ConcurrentBench) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "E14 Concurrent serving: snapshot-isolated session shared by N client threads"
    )
    .unwrap();
    writeln!(out, "  groups          : {}", bench.groups).unwrap();
    writeln!(out, "  facts           : {}", bench.facts).unwrap();
    for (t, (ms, qps)) in bench
        .clients
        .iter()
        .zip(bench.ms.iter().zip(bench.throughput_qps.iter()))
    {
        writeln!(
            out,
            "  clients = {t:<3}   : {ms:.3} ms for {} reads  ({qps:.0} q/s)",
            t * bench.queries_per_client
        )
        .unwrap();
    }
    writeln!(out, "  scaling @4      : {:.2}x", bench.speedup_at_4).unwrap();
    writeln!(
        out,
        "  mid-commit reads: {} (epochs strictly inside the {}-write window)",
        bench.racing_reads, bench.writer_rounds
    )
    .unwrap();
    writeln!(out, "  answers agree   : {}", bench.agree).unwrap();
    writeln!(
        out,
        "  machine cores   : {} (scaling is only meaningful with ≥4)",
        bench.available_parallelism
    )
    .unwrap();
    out
}

/// Result of the durability benchmark (E15): per-commit overhead of the
/// write-ahead log under two fsync policies against the in-memory write
/// path, plus a timed crash recovery over a long log tail with a
/// byte-identical-answers check.
#[derive(Clone, Debug)]
pub struct DurabilityBench {
    /// Timed write commits per arm.
    pub commits: usize,
    /// Facts per commit (each commit is one `insert_all` batch).
    pub batch: usize,
    /// Number of timed samples per arm (best sample reported).
    pub samples: usize,
    /// Best per-commit latency (ms) of the in-memory session.
    pub mem_ms: f64,
    /// Best per-commit latency (ms) of a durable session under
    /// `SyncPolicy::EveryN(64)`.
    pub everyn_ms: f64,
    /// Best per-commit latency (ms) of a durable session under
    /// `SyncPolicy::Always` (one fsync per commit).
    pub always_ms: f64,
    /// `everyn_ms / mem_ms` — the amortized-fsync durability overhead.
    pub overhead_everyn: f64,
    /// `always_ms / mem_ms` — the fsync-per-commit durability overhead.
    pub overhead_always: f64,
    /// Events in the recovery arm's WAL tail (no checkpoint: recovery
    /// replays the whole log).
    pub recovery_events: usize,
    /// Wall-clock time (ms) for `Session::open` to recover that tail —
    /// parse + CRC-verify + replay through the live apply machinery.
    pub recovery_ms: f64,
    /// Whether the recovered session's answers are byte-identical to the
    /// pre-"crash" writer's and to cold in-memory sessions over the same
    /// instance at 1 and 4 executor threads.
    pub agree: bool,
}

impl DurabilityBench {
    /// Machine-readable JSON encoding (no external serialisation crates in
    /// this offline workspace, so the fields are written by hand).
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"benchmark\": \"durability_wal\",\n  \"commits\": {},\n  \
             \"batch\": {},\n  \"samples\": {},\n  \"mem_ms\": {:.4},\n  \
             \"everyn_ms\": {:.4},\n  \"always_ms\": {:.4},\n  \
             \"overhead_everyn\": {:.3},\n  \"overhead_always\": {:.3},\n  \
             \"recovery_events\": {},\n  \"recovery_ms\": {:.3},\n  \
             \"agree\": {}\n}}\n",
            self.commits,
            self.batch,
            self.samples,
            self.mem_ms,
            self.everyn_ms,
            self.always_ms,
            self.overhead_everyn,
            self.overhead_always,
            self.recovery_events,
            self.recovery_ms,
            self.agree
        )
    }
}

/// E15 — durability: what the write-ahead log costs on the commit path, and
/// what recovery costs after a crash.
///
/// Three write arms commit the same sequence of `batch`-fact `insert_all`
/// batches: an in-memory session, a durable session fsyncing every 64
/// appends, and a durable session fsyncing every append. Durable arms write
/// to a fresh temp directory per sample (checkpointing disabled, so the arm
/// times pure append + fsync overhead). The recovery arm writes a
/// `recovery_events`-event WAL tail, drops the session, and times
/// `Session::open` replaying it; its answers must be byte-identical to the
/// writer's and to cold sessions at 1 and 4 executor threads.
pub fn bench_durability(
    commits: usize,
    batch: usize,
    recovery_events: usize,
    samples: usize,
) -> DurabilityBench {
    use rcqa_data::{Fact, Value};
    use rcqa_query::{Catalog, TableDef};
    use rcqa_session::{Session, SyncPolicy, WalOptions};

    let catalog = || {
        Catalog::new()
            .with_table(TableDef::new("R").key_column("X").column("Y"))
            .with_table(
                TableDef::new("S")
                    .key_column("Y")
                    .key_column("Z")
                    .numeric_column("Qty"),
            )
    };
    let sql = "SELECT R.X, MAX(S.Qty) FROM R, S WHERE R.Y = S.Y GROUP BY R.X";
    let commits = commits.max(1);
    let batch = batch.max(1);
    let samples = samples.max(1);
    // Seed facts every arm starts from: the `S` side of the join.
    let seed: Vec<Fact> = (0..30u64)
        .map(|i| {
            Fact::new(
                "S",
                [
                    Value::text(format!("y{}", i % 3)),
                    Value::text(format!("z{i}")),
                    Value::int(1 + (i as i64 % 7)),
                ],
            )
        })
        .collect();
    // Unique `R` facts per commit: every event is effective, so the logged
    // epochs advance by exactly `batch` per commit.
    let commit_batch = |c: usize| -> Vec<Fact> {
        (0..batch)
            .map(|i| {
                Fact::new(
                    "R",
                    [
                        Value::text(format!("x{c:05}_{i:03}")),
                        Value::text(format!("y{}", (c + i) % 3)),
                    ],
                )
            })
            .collect()
    };

    // Times `commits` batch commits on `session`, returning per-commit ms.
    let run_commits = |session: &Session| -> f64 {
        session.insert_all(seed.iter().cloned()).expect("seed");
        session.execute(sql).expect("warm-up");
        let t0 = Instant::now();
        for c in 0..commits {
            session.insert_all(commit_batch(c)).expect("commit");
        }
        t0.elapsed().as_secs_f64() * 1e3 / commits as f64
    };

    let mut mem_ms = f64::INFINITY;
    for _ in 0..samples {
        let session = Session::new(catalog());
        mem_ms = mem_ms.min(run_commits(&session));
    }

    let durable_arm = |sync: SyncPolicy| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..samples {
            let dir = tempfile::TempDir::new().expect("tempdir");
            let options = WalOptions {
                sync,
                checkpoint_every: 0,
                ..WalOptions::default()
            };
            let session = Session::open_with(catalog(), dir.path(), options).expect("open");
            best = best.min(run_commits(&session));
        }
        best
    };
    let everyn_ms = durable_arm(SyncPolicy::EveryN(64));
    let always_ms = durable_arm(SyncPolicy::Always);

    // Recovery: a long WAL tail with no checkpoint, replayed by open().
    let recovery_commits = recovery_events.div_ceil(batch).max(1);
    let dir = tempfile::TempDir::new().expect("tempdir");
    let options = WalOptions {
        sync: SyncPolicy::EveryN(64),
        checkpoint_every: 0,
        ..WalOptions::default()
    };
    let (writer_rows, writer_epoch) = {
        let session = Session::open_with(catalog(), dir.path(), options).expect("open");
        session.insert_all(seed.iter().cloned()).expect("seed");
        for c in 0..recovery_commits {
            session.insert_all(commit_batch(c)).expect("commit");
        }
        session.sync().expect("final sync");
        (
            session.execute(sql).expect("writer execute").rows,
            session.epoch(),
        )
    };
    let t0 = Instant::now();
    let recovered = Session::open_with(catalog(), dir.path(), options).expect("recover");
    let recovery_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut agree = recovered.epoch() == writer_epoch
        && recovered.execute(sql).expect("recovered execute").rows == writer_rows;
    for threads in [1usize, 4] {
        let cold = Session::with_instance(catalog(), recovered.database()).with_options(
            rcqa_core::engine::EngineOptions {
                threads,
                ..Default::default()
            },
        );
        agree = agree && cold.execute(sql).expect("cold execute").rows == writer_rows;
    }

    DurabilityBench {
        commits,
        batch,
        samples,
        mem_ms,
        everyn_ms,
        always_ms,
        overhead_everyn: everyn_ms / mem_ms.max(f64::MIN_POSITIVE),
        overhead_always: always_ms / mem_ms.max(f64::MIN_POSITIVE),
        recovery_events: recovery_commits * batch,
        recovery_ms,
        agree,
    }
}

/// Allocation accounting for the scale benchmark (E16): a counting wrapper
/// around the system allocator. Peak live heap bytes are a portable proxy
/// for peak RSS — the workspace has no external crates, so there is no
/// platform RSS probe to lean on, and the quantity E16 compares (retained
/// size of two data layouts plus their join working set) is heap anyway.
pub mod alloc_stats {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicUsize, Ordering};

    static LIVE: AtomicUsize = AtomicUsize::new(0);
    static PEAK: AtomicUsize = AtomicUsize::new(0);

    /// A [`GlobalAlloc`] that forwards to [`System`] and tracks live and
    /// peak heap bytes in two relaxed atomics. The accounting is racy across
    /// threads by design (relaxed loads; realloc counts the new size before
    /// the old one is forgotten) — E16 measures single-threaded arms, and a
    /// few bytes of slack are irrelevant at the 10⁵-fact scale.
    pub struct CountingAllocator;

    fn on_alloc(size: usize) {
        let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }

    // SAFETY: every method forwards verbatim to `System`; the accounting
    // never observes or alters the returned pointers.
    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let ptr = unsafe { System.alloc(layout) };
            if !ptr.is_null() {
                on_alloc(layout.size());
            }
            ptr
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            let ptr = unsafe { System.alloc_zeroed(layout) };
            if !ptr.is_null() {
                on_alloc(layout.size());
            }
            ptr
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) };
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
            if !new_ptr.is_null() {
                on_alloc(new_size);
                LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            }
            new_ptr
        }
    }

    /// Resets the peak to the current live size and returns that baseline;
    /// `peak_bytes() - baseline` is then the incremental peak of a region.
    pub fn reset_peak() -> usize {
        let live = LIVE.load(Ordering::Relaxed);
        PEAK.store(live, Ordering::Relaxed);
        live
    }

    /// Peak live heap bytes since the last [`reset_peak`].
    pub fn peak_bytes() -> usize {
        PEAK.load(Ordering::Relaxed)
    }
}

/// Installed for every `rcqa-bench` binary and test, so E16 can report a
/// peak-heap proxy without platform-specific RSS probes.
#[global_allocator]
static GLOBAL_ALLOCATOR: alloc_stats::CountingAllocator = alloc_stats::CountingAllocator;

/// Result of the data-layout scale benchmark (E16): the same grouped
/// COUNT/SUM join executed over the interned columnar index vs a mirror of
/// the pre-interning row layout, on a Zipf-skewed 10⁵–10⁶-fact instance.
#[derive(Clone, Debug)]
pub struct ScaleBench {
    /// Number of facts in the instance.
    pub facts: usize,
    /// Number of join groups (distinct `x` keys with at least one match).
    pub groups: usize,
    /// Number of timed samples per arm (best sample reported).
    pub samples: usize,
    /// Best wall-clock time (ms) of the join over the row layout.
    pub row_ms: f64,
    /// Best wall-clock time (ms) of the join over the interned columns.
    pub columnar_ms: f64,
    /// `row_ms / columnar_ms` — the layout speedup.
    pub speedup: f64,
    /// Incremental peak heap bytes of the row arm (layout build + one join).
    pub row_peak_bytes: usize,
    /// Incremental peak heap bytes of the columnar arm (index build + one
    /// join, including the dense id→numeric table).
    pub columnar_peak_bytes: usize,
    /// `row_peak_bytes / columnar_peak_bytes`.
    pub mem_ratio: f64,
    /// Whether both layouts produced identical per-group (COUNT, SUM) maps.
    pub agree: bool,
    /// The machine's available parallelism while measuring.
    pub available_parallelism: usize,
}

impl ScaleBench {
    /// Machine-readable JSON encoding (no external serialisation crates in
    /// this offline workspace, so the fields are written by hand).
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"benchmark\": \"scale_interned_columnar_vs_row\",\n  \"facts\": {},\n  \
             \"groups\": {},\n  \"samples\": {},\n  \"row_ms\": {:.3},\n  \
             \"columnar_ms\": {:.3},\n  \"speedup\": {:.2},\n  \"row_peak_bytes\": {},\n  \
             \"columnar_peak_bytes\": {},\n  \"mem_ratio\": {:.2},\n  \"agree\": {},\n  \
             \"available_parallelism\": {}\n}}\n",
            self.facts,
            self.groups,
            self.samples,
            self.row_ms,
            self.columnar_ms,
            self.speedup,
            self.row_peak_bytes,
            self.columnar_peak_bytes,
            self.mem_ratio,
            self.agree,
            self.available_parallelism
        )
    }
}

/// A block of the pre-interning row layout: the key and the facts as owned
/// `Vec<Value>` rows, exactly how `IndexedBlock` stored them before the
/// columnar refactor.
struct RowBlock {
    key: Vec<Value>,
    rows: Vec<Vec<Value>>,
}

/// Rebuilds the pre-interning layout of one relation: blocks in key order,
/// rows as `Vec<Value>` (the instance iterates facts sorted, so a run scan
/// groups blocks and leaves the list key-sorted).
fn row_layout(db: &DatabaseInstance, relation: &str) -> Vec<RowBlock> {
    let key_len = db
        .schema()
        .signature(relation)
        .expect("relation in schema")
        .key_len();
    let mut blocks: Vec<RowBlock> = Vec::new();
    for f in db.facts().filter(|f| f.relation() == relation) {
        match blocks.last_mut() {
            Some(b) if b.key == f.args()[..key_len] => b.rows.push(f.args().to_vec()),
            _ => blocks.push(RowBlock {
                key: f.args()[..key_len].to_vec(),
                rows: vec![f.args().to_vec()],
            }),
        }
    }
    blocks
}

/// E16 — data-layout scaling: the same grouped `(COUNT, SUM)` join of
/// `R(x, y) ⋈ S(y, z, r)` executed twice on a Zipf-skewed instance sized in
/// the 10⁵–10⁶-fact range. Both arms run the identical algorithm — for every
/// `R` fact, binary-search the contiguous `S`-block span behind its `y`,
/// scan the span, accumulate per-`x` — so the measured gap is the layout:
/// the row arm compares and hashes `String`-backed [`Value`]s and walks
/// per-fact `Vec<Value>` rows; the columnar arm compares raw `u32` ids and
/// scans one dense column slice, materialising `Value`s only when the final
/// group map is built. Peak heap (allocation-counter proxy for RSS) is
/// recorded around each arm's layout build plus one join pass.
pub fn bench_scale(target_facts: usize, samples: usize) -> ScaleBench {
    use rcqa_core::index::DbIndex;
    use rcqa_data::Rational;
    use rcqa_gen::ScaleWorkload;
    use std::collections::{BTreeMap, HashMap};

    let cfg = ScaleWorkload {
        target_facts,
        ..Default::default()
    };
    let db = cfg.generate();
    let samples = samples.max(1);

    // Row arm: the pre-interning layout. Peak covers build + one join.
    let baseline = alloc_stats::reset_peak();
    let r_rows = row_layout(&db, "R");
    let s_rows = row_layout(&db, "S");
    let row_join = || -> HashMap<Value, (u64, Rational)> {
        let mut acc: HashMap<Value, (u64, Rational)> = HashMap::new();
        for rb in &r_rows {
            for row in &rb.rows {
                let y = &row[1];
                let lo = s_rows.partition_point(|b| b.key[0] < *y);
                let hi = lo + s_rows[lo..].partition_point(|b| b.key[0] == *y);
                if lo == hi {
                    continue;
                }
                let entry = acc.entry(row[0].clone()).or_insert((0, Rational::ZERO));
                for sb in &s_rows[lo..hi] {
                    for srow in &sb.rows {
                        entry.0 += 1;
                        entry.1 += srow[2].as_num().expect("numeric r column");
                    }
                }
            }
        }
        acc
    };
    let row_result: BTreeMap<Value, (u64, Rational)> = row_join().into_iter().collect();
    let row_peak_bytes = alloc_stats::peak_bytes().saturating_sub(baseline);
    let mut row_ms = f64::INFINITY;
    for _ in 0..samples {
        let t0 = Instant::now();
        let acc = row_join();
        row_ms = row_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        assert!(!acc.is_empty(), "join produced groups");
    }
    drop(r_rows);
    drop(s_rows);

    // Columnar arm: the interned index. Peak covers index build, the dense
    // id→numeric table, and one join.
    let baseline = alloc_stats::reset_peak();
    let idx = DbIndex::new(&db);
    let interner = idx.interner();
    let r_rel = idx.relation("R");
    let s_rel = idx.relation("S");
    // Materialise each distinct numeric id once (the result-boundary rule):
    // the join then reads a dense table instead of decoding per fact.
    let nums: Vec<Rational> = (0..interner.len() as u32)
        .map(|id| interner.value(id).as_num().unwrap_or(Rational::ZERO))
        .collect();
    let columnar_join = || -> HashMap<u32, (u64, Rational)> {
        let mut acc: HashMap<u32, (u64, Rational)> = HashMap::new();
        for block in r_rel.blocks() {
            for row in 0..block.cols.rows() {
                let x = block.cols.id_at(row, 0);
                let y = block.cols.id_at(row, 1);
                let pattern = [Some(y), None];
                let mut span = s_rel.blocks_matching(&pattern, interner).peekable();
                if span.peek().is_none() {
                    continue;
                }
                let entry = acc.entry(x).or_insert((0, Rational::ZERO));
                for sb in span {
                    for &rid in sb.cols.col(2) {
                        entry.0 += 1;
                        entry.1 += nums[rid as usize];
                    }
                }
            }
        }
        acc
    };
    let columnar_result: BTreeMap<Value, (u64, Rational)> = columnar_join()
        .into_iter()
        .map(|(id, agg)| (interner.value(id).clone(), agg))
        .collect();
    let columnar_peak_bytes = alloc_stats::peak_bytes().saturating_sub(baseline);
    let mut columnar_ms = f64::INFINITY;
    for _ in 0..samples {
        let t0 = Instant::now();
        let acc = columnar_join();
        columnar_ms = columnar_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        assert!(!acc.is_empty(), "join produced groups");
    }

    ScaleBench {
        facts: db.len(),
        groups: row_result.len(),
        samples,
        row_ms,
        columnar_ms,
        speedup: row_ms / columnar_ms.max(f64::MIN_POSITIVE),
        row_peak_bytes,
        columnar_peak_bytes,
        mem_ratio: row_peak_bytes as f64 / (columnar_peak_bytes as f64).max(f64::MIN_POSITIVE),
        agree: row_result == columnar_result,
        available_parallelism: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    }
}

/// Formats the E16 report for the harness.
pub fn format_scale(bench: &ScaleBench) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "E16 Scale: interned columnar layout vs pre-interning row layout (grouped join)"
    )
    .unwrap();
    writeln!(out, "  facts           : {}", bench.facts).unwrap();
    writeln!(out, "  groups          : {}", bench.groups).unwrap();
    writeln!(
        out,
        "  row layout      : {:.3} ms, peak {:.1} MiB",
        bench.row_ms,
        bench.row_peak_bytes as f64 / (1 << 20) as f64
    )
    .unwrap();
    writeln!(
        out,
        "  interned columns: {:.3} ms, peak {:.1} MiB",
        bench.columnar_ms,
        bench.columnar_peak_bytes as f64 / (1 << 20) as f64
    )
    .unwrap();
    writeln!(
        out,
        "  speedup         : {:.2}x   (memory ratio {:.2}x)",
        bench.speedup, bench.mem_ratio
    )
    .unwrap();
    writeln!(out, "  answers agree   : {}", bench.agree).unwrap();
    out
}

/// Result of the range-seek planner benchmark (E17): the same grouped MAX
/// query with a selective range predicate on the group key, answered once by
/// the cost-based seek plan and once with the planner forced onto the
/// full-scan baseline (`EngineOptions::force_scan`), over one shared index
/// of a Zipf-skewed [`rcqa_gen::ScaleWorkload`] instance.
#[derive(Clone, Debug)]
pub struct RangeBench {
    /// Number of facts in the instance.
    pub facts: usize,
    /// Total groups of the unrestricted query (what the scan arm evaluates).
    pub groups: usize,
    /// Groups surviving the range predicate (what both arms answer).
    pub matched_groups: usize,
    /// Number of timed samples per arm (best sample reported).
    pub samples: usize,
    /// Best wall-clock time (ms) of the forced full-scan arm.
    pub scan_ms: f64,
    /// Best wall-clock time (ms) of the cost-based seek arm.
    pub seek_ms: f64,
    /// `scan_ms / seek_ms` — the access-path speedup.
    pub speedup: f64,
    /// Whether the seek arm's plan actually chose a `Seek` leaf (from
    /// `explain`); false would mean the planner mis-costed the predicate.
    pub seek_path_used: bool,
    /// Whether both arms returned byte-identical rows.
    pub agree: bool,
    /// The machine's available parallelism while measuring.
    pub available_parallelism: usize,
}

impl RangeBench {
    /// Machine-readable JSON encoding (no external serialisation crates in
    /// this offline workspace, so the fields are written by hand).
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"benchmark\": \"range_seek_vs_full_scan\",\n  \"facts\": {},\n  \
             \"groups\": {},\n  \"matched_groups\": {},\n  \"samples\": {},\n  \
             \"scan_ms\": {:.3},\n  \"seek_ms\": {:.3},\n  \"speedup\": {:.2},\n  \
             \"seek_path_used\": {},\n  \"agree\": {},\n  \
             \"available_parallelism\": {}\n}}\n",
            self.facts,
            self.groups,
            self.matched_groups,
            self.samples,
            self.scan_ms,
            self.seek_ms,
            self.speedup,
            self.seek_path_used,
            self.agree,
            self.available_parallelism
        )
    }
}

/// E17 — cost-based range seek vs forced full scan: the grouped MAX query of
/// [`rcqa_gen::ScaleWorkload::range_query`] (`x >= 'x9'`, a contiguous
/// restriction matching a few percent of the `R` blocks) evaluated through
/// the full engine twice over one pre-built index. The seek arm lets the
/// planner slice the sorted block list by binary search and evaluate only
/// the matching groups; the forced-scan arm (`EngineOptions::force_scan`)
/// evaluates every group and filters the rows afterwards — the seed
/// behaviour before the range-seek planner. Both arms must return
/// byte-identical rows; the gap is the work the seek avoided.
pub fn bench_range(target_facts: usize, samples: usize) -> RangeBench {
    use rcqa_core::engine::EngineOptions;
    use rcqa_core::index::DbIndex;
    use rcqa_gen::ScaleWorkload;

    let cfg = ScaleWorkload {
        target_facts,
        ..Default::default()
    };
    let db = cfg.generate();
    let (query, predicate) = cfg.range_query();
    let samples = samples.max(1);
    let index = DbIndex::new(&db);

    let engine = |force_scan: bool| {
        RangeCqa::new(&query, &cfg.schema())
            .expect("workload query prepares")
            .with_predicates(vec![predicate.clone()])
            .expect("predicate variable occurs in the body")
            .with_options(EngineOptions {
                force_scan,
                ..EngineOptions::default()
            })
    };
    // Total group count of the unrestricted query, for scale reporting.
    let groups = RangeCqa::new(&query, &cfg.schema())
        .expect("workload query prepares")
        .range_with_index(&db, &index)
        .expect("unrestricted evaluation succeeds")
        .len();

    let run = |force_scan: bool| -> (Vec<GroupRange>, f64) {
        let engine = engine(force_scan);
        let rows = engine
            .range_with_index(&db, &index)
            .expect("restricted evaluation succeeds");
        let mut best = f64::INFINITY;
        for _ in 0..samples {
            let t0 = Instant::now();
            let again = engine
                .range_with_index(&db, &index)
                .expect("restricted evaluation succeeds");
            best = best.min(t0.elapsed().as_secs_f64() * 1e3);
            assert_eq!(again.len(), rows.len(), "evaluation must be stable");
        }
        (rows, best)
    };
    let (scan_rows, scan_ms) = run(true);
    let (seek_rows, seek_ms) = run(false);
    let seek_path_used = engine(false)
        .explain_with_index(&db, &index)
        .contains("Seek");

    RangeBench {
        facts: db.len(),
        groups,
        matched_groups: seek_rows.len(),
        samples,
        scan_ms,
        seek_ms,
        speedup: scan_ms / seek_ms.max(f64::MIN_POSITIVE),
        seek_path_used,
        agree: scan_rows == seek_rows,
        available_parallelism: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    }
}

/// Formats the E17 report for the harness.
pub fn format_range(bench: &RangeBench) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "E17 Range seek: cost-based seek vs forced full scan (grouped MAX, x >= 'x9')"
    )
    .unwrap();
    writeln!(out, "  facts          : {}", bench.facts).unwrap();
    writeln!(
        out,
        "  groups         : {} total, {} matching the predicate",
        bench.groups, bench.matched_groups
    )
    .unwrap();
    writeln!(out, "  full scan      : {:.3} ms", bench.scan_ms).unwrap();
    writeln!(out, "  range seek     : {:.3} ms", bench.seek_ms).unwrap();
    writeln!(out, "  speedup        : {:.2}x", bench.speedup).unwrap();
    writeln!(out, "  seek path used : {}", bench.seek_path_used).unwrap();
    writeln!(out, "  answers agree  : {}", bench.agree).unwrap();
    out
}

/// Formats the E15 report for the harness.
pub fn format_durability(bench: &DurabilityBench) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "E15 Durability: WAL append/fsync overhead and crash-recovery time"
    )
    .unwrap();
    writeln!(
        out,
        "  {} commits x {} facts : in-memory {:.4} ms/commit",
        bench.commits, bench.batch, bench.mem_ms
    )
    .unwrap();
    writeln!(
        out,
        "  fsync every 64       : {:.4} ms/commit  ({:.2}x in-memory)",
        bench.everyn_ms, bench.overhead_everyn
    )
    .unwrap();
    writeln!(
        out,
        "  fsync every commit   : {:.4} ms/commit  ({:.2}x in-memory)",
        bench.always_ms, bench.overhead_always
    )
    .unwrap();
    writeln!(
        out,
        "  recovery             : {} events replayed in {:.3} ms",
        bench.recovery_events, bench.recovery_ms
    )
    .unwrap();
    writeln!(out, "  answers agree   : {}", bench.agree).unwrap();
    out
}

/// One instance size of the incremental-maintenance benchmark (E18).
#[derive(Clone, Debug)]
pub struct IncrementalSize {
    /// GROUP BY groups in the answer before the update sequence.
    pub groups: usize,
    /// Facts in the instance.
    pub facts: usize,
    /// Best per-round insert-then-read latency (ms) on the support-patched
    /// warm session.
    pub patched_ms: f64,
    /// Best per-round insert-then-read latency (ms) with patching disabled
    /// (`dirty_log_cap = 0`), i.e. the pre-refactor full-recompute behaviour
    /// for this statement.
    pub full_ms: f64,
    /// `full_ms / patched_ms` at this size.
    pub speedup: f64,
    /// Stale results served by the supported-patch path in the patched arm.
    pub supported_patches: u64,
    /// Stale results that fell back to full recompute in the patched arm
    /// (must stay 0 here — every write localises to one group).
    pub patched_support_misses: u64,
    /// Stale results that fell back to full recompute in the disabled arm
    /// (one per write — the honest-miss counter at work).
    pub full_support_misses: u64,
    /// Top-k selections recomputed in the patched arm (0: no ORDER BY).
    pub topk_fallbacks: u64,
}

/// Result of the incremental-maintenance benchmark (E18): per-write warm-read
/// latency of the support-tracked patch path vs forced full recompute on a
/// statement the old `group_locality` certificate rejected (GROUP BY over a
/// non-key column, plus HAVING), across growing group counts. Each write
/// dirties exactly one `S` block, so the patched cost should track
/// |affected groups| = 1 while the full-recompute cost tracks |all groups|.
#[derive(Clone, Debug)]
pub struct IncrementalBench {
    /// Insert-then-read rounds per timed arm.
    pub updates: usize,
    /// Number of timed samples per arm (best sample reported).
    pub samples: usize,
    /// Per-size measurements, smallest to largest group count.
    pub sizes: Vec<IncrementalSize>,
    /// Patched-arm latency at the largest size over the smallest — flat
    /// (near 1) when cost scales with |affected groups|.
    pub patched_scaling: f64,
    /// Full-recompute latency at the largest size over the smallest — grows
    /// with |all groups|.
    pub full_scaling: f64,
    /// `full_ms / patched_ms` at the largest size (the CI-gated figure).
    pub speedup: f64,
    /// Whether every arm agreed with cold sessions at 1 and 4 threads after
    /// the full update sequence (rows, extra aggregates, and HAVING
    /// statuses).
    pub agree: bool,
    /// `std::thread::available_parallelism()` — CI gates the speedup floor
    /// only on >= 2 cores.
    pub available_parallelism: usize,
}

impl IncrementalBench {
    /// Machine-readable JSON encoding (hand-written; no serialisation crates
    /// in this offline workspace).
    pub fn to_json(&self) -> String {
        let sizes = self
            .sizes
            .iter()
            .map(|s| {
                format!(
                    "    {{ \"groups\": {}, \"facts\": {}, \"patched_ms\": {:.4}, \
                     \"full_ms\": {:.4}, \"speedup\": {:.2}, \"supported_patches\": {}, \
                     \"patched_support_misses\": {}, \"full_support_misses\": {}, \
                     \"topk_fallbacks\": {} }}",
                    s.groups,
                    s.facts,
                    s.patched_ms,
                    s.full_ms,
                    s.speedup,
                    s.supported_patches,
                    s.patched_support_misses,
                    s.full_support_misses,
                    s.topk_fallbacks
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        format!(
            "{{\n  \"benchmark\": \"incremental_support_patching\",\n  \"updates\": {},\n  \
             \"samples\": {},\n  \"sizes\": [\n{}\n  ],\n  \"patched_scaling\": {:.2},\n  \
             \"full_scaling\": {:.2},\n  \"speedup\": {:.2},\n  \"agree\": {},\n  \
             \"available_parallelism\": {}\n}}\n",
            self.updates,
            self.samples,
            sizes,
            self.patched_scaling,
            self.full_scaling,
            self.speedup,
            self.agree,
            self.available_parallelism
        )
    }
}

/// E18 — support-tracked differential maintenance. The statement groups by
/// `R.Y` (not a key column of `R`, so the old locality certificate refused to
/// patch it and every dirty block forced a full recompute) and carries a
/// HAVING clause re-decided from the patched rows. Each round inserts one
/// fresh `S` fact into the `y0` join key — exactly one dirty block, whose
/// support pattern `[Group(0), Any]` localises to the single `y0` group —
/// then reads the statement warm. The baseline arm runs the identical session
/// machinery with `dirty_log_cap = 0`, which disables patching and reproduces
/// the pre-refactor full-recompute path. MAX is rewriting-backed on both
/// bounds, so no arm falls off the one-pass pipeline.
pub fn bench_incremental(y_domains: &[usize], updates: usize, samples: usize) -> IncrementalBench {
    use rcqa_data::Fact;
    use rcqa_query::{Catalog, TableDef};
    use rcqa_session::{Session, SessionOptions};

    let catalog = || {
        Catalog::new()
            .with_table(TableDef::new("R").key_column("X").column("Y"))
            .with_table(
                TableDef::new("S")
                    .key_column("Y")
                    .key_column("Z")
                    .numeric_column("Qty"),
            )
    };
    let sql = "SELECT R.Y, MAX(S.Qty) FROM R, S WHERE R.Y = S.Y GROUP BY R.Y \
               HAVING MAX(S.Qty) > 50";
    let update_fact = |u: usize| {
        Fact::new(
            "S",
            [
                Value::text("y0"),
                Value::text(format!("zu{u:03}")),
                Value::int(40 + (u % 20) as i64),
            ],
        )
    };
    let updates = updates.max(1);
    let samples = samples.max(1);
    let mut agree = true;
    let mut sizes = Vec::new();
    for &y_domain in y_domains {
        let db = JoinWorkload {
            r_blocks: y_domain * 2,
            y_domain,
            s_blocks_per_y: 2,
            inconsistency_ratio: 0.1,
            block_size: 2,
            max_value: 100,
            seed: 19,
        }
        .generate();

        // The timed region covers one serving round trip: commit one fact,
        // then read the statement warm. Patching on (default options) vs off
        // (cap 0 ages every cached result past the dirty log immediately).
        let mut run = |options: SessionOptions| -> (f64, rcqa_session::SessionStats) {
            let mut best = f64::INFINITY;
            let mut stats = rcqa_session::SessionStats::default();
            for _ in 0..samples {
                let session =
                    Session::with_instance(catalog(), db.clone()).with_session_options(options);
                session.execute(sql).expect("warm-up");
                let before = session.stats();
                // Per-write warm-READ latency: the commit happens off the
                // clock (both arms pay the identical delta-replay cost); the
                // timed region is exactly the stale-result refresh the
                // support layer is responsible for.
                let mut elapsed = 0.0;
                for u in 0..updates {
                    session.insert(update_fact(u)).expect("insert");
                    let t0 = Instant::now();
                    session.execute(sql).expect("warm read");
                    elapsed += t0.elapsed().as_secs_f64();
                }
                best = best.min(elapsed * 1e3 / updates as f64);
                let after = session.stats();
                stats = rcqa_session::SessionStats {
                    supported_patches: after.supported_patches - before.supported_patches,
                    support_misses: after.support_misses - before.support_misses,
                    topk_fallbacks: after.topk_fallbacks - before.topk_fallbacks,
                    ..after
                };
                // Every arm must agree with cold sessions at 1 and 4 threads
                // over the final instance.
                let warm = session.execute(sql).expect("final warm read");
                for threads in [1usize, 4] {
                    let cold = Session::with_instance(catalog(), session.database().clone())
                        .with_options(rcqa_core::engine::EngineOptions {
                            threads,
                            ..Default::default()
                        });
                    let cold = cold.execute(sql).expect("cold read");
                    agree = agree
                        && cold.rows == warm.rows
                        && cold.more_aggregates == warm.more_aggregates
                        && cold.having == warm.having;
                }
            }
            (best, stats)
        };
        let (patched_ms, patched_stats) = run(SessionOptions::default());
        let (full_ms, full_stats) = run(SessionOptions {
            dirty_log_cap: 0,
            ..Default::default()
        });
        sizes.push(IncrementalSize {
            groups: y_domain,
            facts: db.len(),
            patched_ms,
            full_ms,
            speedup: full_ms / patched_ms.max(f64::MIN_POSITIVE),
            supported_patches: patched_stats.supported_patches,
            patched_support_misses: patched_stats.support_misses,
            full_support_misses: full_stats.support_misses,
            topk_fallbacks: patched_stats.topk_fallbacks,
        });
    }
    let (first, last) = (&sizes[0], &sizes[sizes.len() - 1]);
    IncrementalBench {
        updates,
        samples,
        patched_scaling: last.patched_ms / first.patched_ms.max(f64::MIN_POSITIVE),
        full_scaling: last.full_ms / first.full_ms.max(f64::MIN_POSITIVE),
        speedup: last.speedup,
        agree,
        available_parallelism: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        sizes,
    }
}

/// Formats the E18 report for the harness, surfacing the per-path
/// [`rcqa_session::SessionStats`] counters next to the latencies they
/// explain.
pub fn format_incremental(bench: &IncrementalBench) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "E18 Incremental maintenance: support-tracked patching vs full recompute \
         (GROUP BY R.Y + HAVING, one dirty S block per write)"
    )
    .unwrap();
    for s in &bench.sizes {
        writeln!(
            out,
            "  {:>5} groups ({:>6} facts) : patched {:.4} ms, full {:.4} ms  ({:.2}x)  \
             [patches={}, misses={}/{}, topk_fallbacks={}]",
            s.groups,
            s.facts,
            s.patched_ms,
            s.full_ms,
            s.speedup,
            s.supported_patches,
            s.patched_support_misses,
            s.full_support_misses,
            s.topk_fallbacks
        )
        .unwrap();
    }
    writeln!(
        out,
        "  patched scaling : {:.2}x across {:.0}x more groups (tracks |affected groups|)",
        bench.patched_scaling,
        bench.sizes[bench.sizes.len() - 1].groups as f64 / bench.sizes[0].groups as f64
    )
    .unwrap();
    writeln!(
        out,
        "  full scaling    : {:.2}x (tracks |all groups|)",
        bench.full_scaling
    )
    .unwrap();
    writeln!(out, "  speedup (largest size) : {:.2}x", bench.speedup).unwrap();
    writeln!(out, "  answers agree   : {}", bench.agree).unwrap();
    writeln!(
        out,
        "  machine cores   : {} (CI gates the floor only with >= 2)",
        bench.available_parallelism
    )
    .unwrap();
    out
}

/// Result of the sharded-serving benchmark (E19): a [`rcqa_session::ShardedSession`]
/// front-end at 1/2/4 shards on a write-then-warm-read serving loop, plus
/// group-commit write throughput against serial single-shard commits.
#[derive(Clone, Debug)]
pub struct ShardBench {
    /// Level-0 blocks in the seeded instance.
    pub blocks: usize,
    /// Facts in the seeded instance.
    pub facts: usize,
    /// Write-then-warm-read rounds per timed read arm.
    pub rounds: usize,
    /// Number of timed samples per arm (best sample reported).
    pub samples: usize,
    /// The shard counts measured (first entry is the unsharded baseline).
    pub shard_counts: Vec<usize>,
    /// Best per-round warm-read latency (milliseconds) per shard count.
    pub read_ms: Vec<f64>,
    /// Read speedup of 4 shards over 1 shard (`read_ms[1] / read_ms[4]`).
    /// The win is work confinement, not thread parallelism: a write dirties
    /// one shard, the other shards answer from their per-snapshot result
    /// caches, so only 1/N of the instance is recomputed per round.
    pub read_scaling_at_4: f64,
    /// Concurrent writer threads in the group-commit arm.
    pub writers: usize,
    /// Total committed write operations per write arm.
    pub write_ops: usize,
    /// Durable commits/second through the 4-shard group-commit coordinator.
    pub group_commit_ops_per_s: f64,
    /// Durable commits/second through one serial per-op session.
    pub serial_ops_per_s: f64,
    /// `group_commit_ops_per_s / serial_ops_per_s`.
    pub write_speedup: f64,
    /// Fan-out queries answered by the 4-shard read arm.
    pub fanout_queries: u64,
    /// Designated-shard queries answered by the 4-shard read arm.
    pub designated_queries: u64,
    /// Cross-shard combine queries answered by the 4-shard read arm.
    pub combine_queries: u64,
    /// Per-shard result-cache hits summed over the 4-shard read arm.
    pub result_hits: u64,
    /// Honest support misses (full recomputes) over the 4-shard read arm.
    pub support_misses: u64,
    /// Multi-event group commits coalesced in the write arm.
    pub group_commits: u64,
    /// Events carried by those multi-event group commits.
    pub group_commit_events: u64,
    /// Per-shard epoch frontier of the 4-shard read arm after all rounds.
    pub epoch_frontier: Vec<u64>,
    /// Whether every arm (all shard counts, read and write) answered every
    /// statement shape byte-identically to an unsharded session.
    pub agree: bool,
    /// The machine's available parallelism while measuring. The read
    /// scaling holds even on one core (it is work reduction); the write
    /// arm's group commit needs real concurrency to coalesce.
    pub available_parallelism: usize,
}

impl ShardBench {
    /// Machine-readable JSON encoding (hand-written; no serialisation
    /// crates in this offline workspace).
    pub fn to_json(&self) -> String {
        let join = |xs: &[String]| xs.join(", ");
        format!(
            "{{\n  \"benchmark\": \"sharded_serving\",\n  \"blocks\": {},\n  \
             \"facts\": {},\n  \"rounds\": {},\n  \"samples\": {},\n  \
             \"shard_counts\": [{}],\n  \"read_ms\": [{}],\n  \
             \"read_scaling_at_4\": {:.2},\n  \"writers\": {},\n  \
             \"write_ops\": {},\n  \"group_commit_ops_per_s\": {:.0},\n  \
             \"serial_ops_per_s\": {:.0},\n  \"write_speedup\": {:.2},\n  \
             \"fanout_queries\": {},\n  \"designated_queries\": {},\n  \
             \"combine_queries\": {},\n  \"result_hits\": {},\n  \
             \"support_misses\": {},\n  \"group_commits\": {},\n  \
             \"group_commit_events\": {},\n  \"epoch_frontier\": [{}],\n  \
             \"agree\": {},\n  \"available_parallelism\": {}\n}}\n",
            self.blocks,
            self.facts,
            self.rounds,
            self.samples,
            join(
                &self
                    .shard_counts
                    .iter()
                    .map(|s| s.to_string())
                    .collect::<Vec<_>>()
            ),
            join(
                &self
                    .read_ms
                    .iter()
                    .map(|m| format!("{m:.4}"))
                    .collect::<Vec<_>>()
            ),
            self.read_scaling_at_4,
            self.writers,
            self.write_ops,
            self.group_commit_ops_per_s,
            self.serial_ops_per_s,
            self.write_speedup,
            self.fanout_queries,
            self.designated_queries,
            self.combine_queries,
            self.result_hits,
            self.support_misses,
            self.group_commits,
            self.group_commit_events,
            join(
                &self
                    .epoch_frontier
                    .iter()
                    .map(|e| e.to_string())
                    .collect::<Vec<_>>()
            ),
            self.agree,
            self.available_parallelism
        )
    }
}

/// E19 — sharded serving. Two arms:
///
/// **Reads** run the E18-style serving loop (commit one fact off the clock,
/// read the statement warm on the clock) against a full-key grouped MAX at
/// 1, 2, and 4 shards with result patching disabled (`dirty_log_cap: 0`),
/// i.e. the support-miss regime E18 measures the escape from. Unsharded,
/// every write invalidates the whole cached result and the recompute covers
/// the full instance; sharded, the write dirties exactly one shard, the
/// rest answer from their per-snapshot result caches, and the recompute
/// covers 1/N of the facts. The speedup is work confinement, so it holds
/// even on a single core.
///
/// **Writes** commit the same fact set durably (`SyncPolicy::Always`, real
/// directories) two ways: `writers` concurrent threads through the 4-shard
/// group-commit coordinator (concurrent submits to one shard coalesce into
/// one WAL append + one fsync) vs one thread through a single session with
/// one append + fsync per commit.
///
/// Every arm's final answers are checked byte-identical to an unsharded
/// session over the same facts across all routing shapes (fan-out, HAVING,
/// top-k, subset-key combine, residual combine, designated closed lookup).
pub fn bench_shard(y_domain: usize, per_y: usize, rounds: usize, samples: usize) -> ShardBench {
    use rcqa_data::Fact;
    use rcqa_query::{Catalog, TableDef};
    use rcqa_session::{Session, SessionOptions, ShardedSession, SyncPolicy, WalOptions};

    let catalog = || {
        Catalog::new().with_table(
            TableDef::new("S")
                .key_column("Y")
                .key_column("Z")
                .numeric_column("Qty"),
        )
    };
    // One statement per routing shape; the first (full-key fan-out) is the
    // timed one.
    const TIMED: &str = "SELECT S.Y, S.Z, MAX(S.Qty) FROM S GROUP BY S.Y, S.Z";
    // MAX everywhere except the residual shape: MAX is rewriting-backed on
    // both bounds, so these stay on the one-pass pipeline. The residual
    // statement is *meant* to hit the exhaustive fallback (it routes
    // combine and enumerates repairs), which is why the seed keeps the
    // inconsistent-block count tiny.
    const STATEMENTS: &[&str] = &[
        TIMED,
        "SELECT S.Y, S.Z, MAX(S.Qty) FROM S GROUP BY S.Y, S.Z HAVING MAX(S.Qty) > 30",
        "SELECT S.Y, S.Z, MAX(S.Qty) FROM S GROUP BY S.Y, S.Z \
         ORDER BY MAX(S.Qty) DESC LIMIT 5",
        "SELECT S.Y, MAX(S.Qty) FROM S GROUP BY S.Y",
        "SELECT S.Y, S.Z, MIN(S.Qty) FROM S WHERE S.Qty > 15 GROUP BY S.Y, S.Z",
        "SELECT MAX(S.Qty) FROM S WHERE S.Y = 'y000' AND S.Z = 'z000'",
    ];
    let seed_facts = || -> Vec<Fact> {
        let mut facts = Vec::new();
        for y in 0..y_domain {
            for z in 0..per_y {
                let block = y * per_y + z;
                let qty = 10 + (block % 50) as i64;
                let mk = |q: i64| {
                    Fact::new(
                        "S",
                        [
                            Value::text(format!("y{y:03}")),
                            Value::text(format!("z{z:03}")),
                            Value::int(q),
                        ],
                    )
                };
                facts.push(mk(qty));
                if block < 4 {
                    // A handful of inconsistent blocks (two key-equal facts
                    // disagreeing on Qty) keeps the intervals non-trivial
                    // while the residual agree-check statement — whose exact
                    // fallback enumerates every repair — stays at 2^4 = 16
                    // repairs.
                    facts.push(mk(qty + 40));
                }
            }
        }
        facts
    };
    let round_fact = |u: usize| {
        Fact::new(
            "S",
            [
                Value::text(format!("y{:03}", u % y_domain)),
                Value::text(format!("zw{u:03}")),
                Value::int(10 + (u % 50) as i64),
            ],
        )
    };
    let rounds = rounds.max(1);
    let samples = samples.max(1);
    let seeded = seed_facts();
    let blocks = y_domain * per_y;
    let mut agree = true;

    // An unsharded reference at the post-rounds state, shared by every read
    // arm (each arm commits the identical facts).
    let reference = Session::new(catalog());
    reference
        .insert_all(seeded.clone())
        .expect("seed reference");
    for u in 0..rounds {
        reference.insert(round_fact(u)).expect("round fact");
    }

    let shard_counts = vec![1usize, 2, 4];
    let mut read_ms = Vec::with_capacity(shard_counts.len());
    let mut four_shard_stats = None;
    for &shards in &shard_counts {
        let mut best = f64::INFINITY;
        let mut last_session = None;
        for _ in 0..samples {
            let session =
                ShardedSession::new(catalog(), shards).with_session_options(SessionOptions {
                    dirty_log_cap: 0,
                    ..Default::default()
                });
            session.insert_all(seeded.clone()).expect("seed shards");
            session.execute(TIMED).expect("warm-up");
            let mut elapsed = 0.0;
            for u in 0..rounds {
                session.insert(round_fact(u)).expect("round insert");
                let t0 = Instant::now();
                session.execute(TIMED).expect("warm read");
                elapsed += t0.elapsed().as_secs_f64();
            }
            best = best.min(elapsed * 1e3 / rounds as f64);
            last_session = Some(session);
        }
        // Every statement shape must agree with the unsharded reference at
        // the final state. Each sample commits the identical facts, so one
        // check per arm covers them all (the residual statement's
        // exhaustive fallback is deliberately off the clock).
        let session = last_session.expect("at least one sample ran");
        for sql in STATEMENTS {
            let got = session.execute(sql).expect("sharded read");
            let want = reference.execute(sql).expect("reference read");
            agree = agree
                && got.rows == want.rows
                && got.more_aggregates == want.more_aggregates
                && got.having == want.having;
        }
        if shards == 4 {
            four_shard_stats = Some(session.stats());
        }
        read_ms.push(best);
    }
    let four_shard_stats = four_shard_stats.expect("the 4-shard arm ran");
    let read_scaling_at_4 = read_ms[0]
        / read_ms[shard_counts.iter().position(|&s| s == 4).unwrap()].max(f64::MIN_POSITIVE);

    // Write arm: the same durable fact set, group-committed by concurrent
    // writers vs serially committed one by one.
    let writers = 4usize;
    let per_writer = 64usize;
    let write_ops = writers * per_writer;
    let writer_fact = |w: usize, j: usize| {
        Fact::new(
            "S",
            [
                Value::text(format!("wy{w}-{j:03}")),
                Value::text("wz"),
                Value::int((10 + (w * per_writer + j) % 50) as i64),
            ],
        )
    };
    let wal = WalOptions {
        sync: SyncPolicy::Always,
        ..WalOptions::default()
    };
    let dir = tempfile::TempDir::new().expect("tempdir");
    let mut group_best = f64::INFINITY;
    let mut serial_best = f64::INFINITY;
    let mut group_commits = 0;
    let mut group_commit_events = 0;
    for sample in 0..samples {
        let sharded = ShardedSession::open_with(
            catalog(),
            dir.path().join(format!("group-{sample}")),
            4,
            wal,
        )
        .expect("open sharded");
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for w in 0..writers {
                let sharded = &sharded;
                scope.spawn(move || {
                    for j in 0..per_writer {
                        sharded.insert(writer_fact(w, j)).expect("group commit");
                    }
                });
            }
        });
        group_best = group_best.min(t0.elapsed().as_secs_f64());
        let stats = sharded.stats();
        group_commits = stats.group_commits;
        group_commit_events = stats.group_commit_events;

        let serial =
            Session::open_with(catalog(), dir.path().join(format!("serial-{sample}")), wal)
                .expect("open serial");
        let t0 = Instant::now();
        for w in 0..writers {
            for j in 0..per_writer {
                serial.insert(writer_fact(w, j)).expect("serial commit");
            }
        }
        serial_best = serial_best.min(t0.elapsed().as_secs_f64());
        // Both write arms hold the same facts; the sharded union must
        // answer identically to the serial session.
        let got = sharded.execute(TIMED).expect("sharded read");
        let want = serial.execute(TIMED).expect("serial read");
        agree = agree && got.rows == want.rows;
    }
    let group_commit_ops_per_s = write_ops as f64 / group_best.max(f64::MIN_POSITIVE);
    let serial_ops_per_s = write_ops as f64 / serial_best.max(f64::MIN_POSITIVE);

    ShardBench {
        blocks,
        facts: seeded.len(),
        rounds,
        samples,
        shard_counts,
        read_ms,
        read_scaling_at_4,
        writers,
        write_ops,
        group_commit_ops_per_s,
        serial_ops_per_s,
        write_speedup: group_commit_ops_per_s / serial_ops_per_s.max(f64::MIN_POSITIVE),
        fanout_queries: four_shard_stats.fanout_queries,
        designated_queries: four_shard_stats.designated_queries,
        combine_queries: four_shard_stats.combine_queries,
        result_hits: four_shard_stats.totals.result_hits,
        support_misses: four_shard_stats.totals.support_misses,
        group_commits,
        group_commit_events,
        epoch_frontier: four_shard_stats.epoch_frontier,
        agree,
        available_parallelism: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    }
}

/// Formats the E19 report for the harness, surfacing the aggregated
/// [`rcqa_session::ShardedStats`] route and cache counters next to the
/// latencies they explain.
pub fn format_shard(bench: &ShardBench) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "E19 Sharded serving: partitioned sessions, fan-out/merge reads, \
         group-commit writes"
    )
    .unwrap();
    writeln!(
        out,
        "  blocks / facts : {} / {} (+{} write rounds per read arm)",
        bench.blocks, bench.facts, bench.rounds
    )
    .unwrap();
    for (s, ms) in bench.shard_counts.iter().zip(bench.read_ms.iter()) {
        writeln!(
            out,
            "  shards = {s:<3} : {ms:.4} ms per write+warm-read round"
        )
        .unwrap();
    }
    writeln!(
        out,
        "  read scaling @4 shards : {:.2}x (work confinement: one dirty shard \
         recomputes, the rest serve cached rows)",
        bench.read_scaling_at_4
    )
    .unwrap();
    writeln!(
        out,
        "  group commit   : {:.0} ops/s ({} writers), serial {:.0} ops/s  ({:.2}x)",
        bench.group_commit_ops_per_s, bench.writers, bench.serial_ops_per_s, bench.write_speedup
    )
    .unwrap();
    writeln!(
        out,
        "  sharded stats  : fanout={}, designated={}, combine={}, \
         result_hits={}, support_misses={}",
        bench.fanout_queries,
        bench.designated_queries,
        bench.combine_queries,
        bench.result_hits,
        bench.support_misses
    )
    .unwrap();
    writeln!(
        out,
        "  group commits  : {} multi-event batches carrying {} events",
        bench.group_commits, bench.group_commit_events
    )
    .unwrap();
    writeln!(
        out,
        "  epoch frontier : [{}] (sums to the front-end epoch)",
        bench
            .epoch_frontier
            .iter()
            .map(|e| e.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    )
    .unwrap();
    writeln!(out, "  answers agree  : {}", bench.agree).unwrap();
    writeln!(
        out,
        "  machine cores  : {} (read scaling holds on one core; write \
         coalescing needs >= 2)",
        bench.available_parallelism
    )
    .unwrap();
    out
}
