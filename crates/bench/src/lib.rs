//! # rcqa-bench
//!
//! The paper's experiments (E1–E10: Figs. 1–5, Examples 3.1/4.1/4.4, the
//! rewriting-vs-MaxSAT-vs-enumeration scaling, the Section 7.3 refutation),
//! each a function that returns a printable report; the `harness` binary runs
//! them (E6, E7 and E10 report their own milliseconds). The repo's
//! performance is measured elsewhere, by the one benchmark declared in
//! `BENCHMARK.json` and driven by the standalone `benchmark/` package.

#![warn(missing_docs)]

use rcqa_baselines::{fuxman_sum_glb, maxsat_glb};
use rcqa_core::engine::RangeCqa;
use rcqa_core::exact::exact_bounds;
use rcqa_core::index::DbIndex;
use rcqa_core::prepared::PreparedAggQuery;
use rcqa_core::rewrite::{rewriting_for, BoundKind};
use rcqa_core::{classify, forall};
use rcqa_data::{fact, DatabaseInstance, NumericDomain, Schema, Signature};
use rcqa_gen::{fuxman_counterexample, JoinWorkload};
use rcqa_query::{parse_agg_query, AttackGraph};
use std::fmt::Write as _;
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
    let analysis = forall::analyse_with_index(&prepared.body, &DbIndex::new(&db));
    let engine = RangeCqa::new(&q, db.schema()).unwrap();
    let glb = engine.glb(&db).unwrap();
    let rewriting = rewriting_for(&prepared, BoundKind::Glb, db.numeric_domain()).unwrap();
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
    let analysis = forall::analyse_with_index(&prepared.body, &DbIndex::new(&db));
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

/// E10 — MIN/MAX separation (Theorem 7.11) and growth of the rewriting — its
/// size (Theorem 1.1 promises a quadratic bound) and its construction time —
/// with query size.
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
        "  {:>6} {:>16} {:>16} {:>14}",
        "atoms", "certainty size", "total size", "construct ms"
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
        let start = Instant::now();
        let rewriting = rewriting_for(&q, BoundKind::Glb, NumericDomain::NonNegative).unwrap();
        let construct_ms = start.elapsed().as_secs_f64() * 1e3;
        writeln!(
            out,
            "  {:>6} {:>16} {:>16} {:>14.3}",
            k,
            rewriting.certainty.size(),
            rewriting.size(),
            construct_ms
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
}
