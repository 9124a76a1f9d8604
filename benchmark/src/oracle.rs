//! Correctness checks: brute-force repair enumeration on a small instance
//! before timing, and byte-for-byte comparison against cold sessions after.

use crate::model::{self, Stmt};
use crate::stats::Digest;
use rcqa_core::engine::{BoundAnswer, GroupRange, Method};
use rcqa_core::exact::exact_bounds_by_group_filtered;
use rcqa_core::interval::{
    certain_topk, having_status, having_status_all, order_rows, HavingStatus,
};
use rcqa_core::prepared::PreparedAggQuery;
use rcqa_data::{DatabaseInstance, Rational, Value};
use rcqa_query::{parse_sql, SqlQuery};
use rcqa_session::{QueryOutcome, Session};

/// Checks run and checks failed; folded into the run's `attempted`/`failed`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn record(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("WRONG ANSWER: {what}");
        }
    }
}

type ValueRow = (Vec<Value>, Option<Rational>, Option<Rational>);

fn values(rows: &[GroupRange]) -> Vec<ValueRow> {
    rows.iter()
        .map(|r| {
            (
                r.key.clone(),
                r.glb.and_then(|b| b.value),
                r.lub.and_then(|b| b.value),
            )
        })
        .collect()
}

/// The answer of one SQL statement computed from exhaustive repair
/// enumeration: exact `[glb, lub]` per group and aggregate, then the same
/// HAVING trichotomy / certain top-k / ORDER BY pipeline over those exact
/// intervals. Returns per visible aggregate the `(key, glb, lub)` rows, and
/// the row-aligned HAVING statuses.
fn reference(sql: &str, db: &DatabaseInstance) -> (Vec<Vec<ValueRow>>, Vec<HavingStatus>) {
    let catalog = model::catalog();
    let q = parse_sql(sql, &catalog).expect("pool statement parses");
    let wrap = |value| {
        Some(BoundAnswer {
            value,
            method: Method::ExactEnumeration,
        })
    };
    let per_agg: Vec<Vec<GroupRange>> = q
        .aggregates
        .iter()
        .map(|agg| {
            let prepared = PreparedAggQuery::new(agg, db.schema()).expect("pool query prepares");
            exact_bounds_by_group_filtered(&prepared, db, 1 << 20, &q.predicates)
                .expect("the oracle instance is small enough to enumerate")
                .into_iter()
                .filter(|(_, b)| b.satisfiable)
                .map(|(key, b)| GroupRange {
                    key,
                    glb: wrap(b.glb),
                    lub: wrap(b.lub),
                })
                .collect()
        })
        .collect();
    let (rows, having) = post_process(&q, &per_agg);
    (rows.iter().map(|r| values(r)).collect(), having)
}

/// The session's post-processing, restated over the public `interval`
/// primitives: HAVING trichotomy (violated rows dropped), then ORDER BY /
/// certain top-k over the sort-key aggregate, then the SELECT-clause
/// projection. Returns the presented rows per visible aggregate and the
/// row-aligned HAVING statuses.
pub fn post_process(
    q: &SqlQuery,
    per_agg: &[Vec<GroupRange>],
) -> (Vec<Vec<GroupRange>>, Vec<HavingStatus>) {
    let n = per_agg[0].len();
    let statuses: Vec<HavingStatus> = if q.having.is_empty() {
        Vec::new()
    } else {
        (0..n)
            .map(|i| {
                having_status_all(q.having.iter().map(|c| {
                    let row = &per_agg[c.agg_index][i];
                    having_status(
                        row.glb.and_then(|b| b.value),
                        row.lub.and_then(|b| b.value),
                        c.op,
                        c.threshold,
                    )
                }))
            })
            .collect()
    };
    let kept: Vec<usize> = (0..n)
        .filter(|&i| statuses.is_empty() || statuses[i] != HavingStatus::Violated)
        .collect();
    let selected: Vec<usize> = match q.order_by {
        Some(spec) => {
            let sort_rows: Vec<GroupRange> = kept
                .iter()
                .map(|&i| per_agg[spec.agg_index][i].clone())
                .collect();
            let picked = match q.limit {
                Some(k) => certain_topk(&sort_rows, k, spec.descending),
                None => order_rows(&sort_rows, spec.descending),
            };
            picked.into_iter().map(|j| kept[j]).collect()
        }
        None => kept,
    };
    let rows = (0..q.visible_aggregates)
        .map(|a| selected.iter().map(|&i| per_agg[a][i].clone()).collect())
        .collect();
    let having = if statuses.is_empty() {
        Vec::new()
    } else {
        selected.iter().map(|&i| statuses[i]).collect()
    };
    (rows, having)
}

/// Before timing: every statement shape of the pool, on a ~120-fact instance
/// of the same generator (at most 2^5 repairs), against brute-force repair
/// enumeration — through a plain session and through a 4-shard front-end.
pub fn brute_force(seed: u64) -> Checks {
    let mut checks = Checks::default();
    // Inconsistent enough to have repairs to disagree on, small enough that
    // enumerating all of them per group and statement stays under a second:
    // every run pays for this check before its set-up. (The enumeration is
    // per group — at 200 facts and 2^6 repairs the pool takes 7 s.)
    let candidates: Vec<DatabaseInstance> = (0..32)
        .map(|i| model::instance(120, 0.05, seed.wrapping_add(i)))
        .filter(|db| db.repair_count().is_some_and(|n| n <= 1 << 5))
        .collect();
    let db = candidates
        .iter()
        .find(|db| db.repair_count().is_some_and(|n| n >= 1 << 4))
        .or(candidates.first())
        .expect("some 120-fact instance at ratio 0.05 has at most 2^5 repairs")
        .clone();
    let session = Session::with_instance(model::catalog(), db.clone());
    let sharded = rcqa_session::ShardedSession::new(model::catalog(), 4);
    sharded
        .insert_all(db.facts().cloned())
        .expect("generated facts conform to the schema");
    for stmt in Stmt::shapes() {
        let sql = stmt.sql();
        let (rows, having) = reference(&sql, &db);
        for (surface, outcome) in [
            ("session", session.execute(&sql)),
            ("sharded", sharded.execute(&sql)),
        ] {
            let ok = match &outcome {
                Ok(o) => {
                    let mut got = vec![values(&o.rows)];
                    got.extend(o.more_aggregates.iter().map(|m| values(m)));
                    got == rows && o.having[..] == having[..]
                }
                Err(_) => false,
            };
            checks.record(
                &format!("{} on {surface} vs repair enumeration", stmt.name()),
                ok,
            );
        }
    }
    checks
}

/// Byte-for-byte equality of two answers (intervals, methods, HAVING).
pub fn same_answer(a: &QueryOutcome, b: &QueryOutcome) -> bool {
    a.rows == b.rows && a.more_aggregates == b.more_aggregates && a.having == b.having
}

/// Folds an answer into a digest, so two commits can be compared on one seed.
pub fn digest_answer(digest: &mut Digest, stmt: Stmt, outcome: &QueryOutcome) {
    digest.eat(stmt.name().as_bytes());
    for rows in std::iter::once(&outcome.rows).chain(outcome.more_aggregates.iter()) {
        for row in rows.iter() {
            digest.eat(format!("{row:?}").as_bytes());
        }
    }
    digest.eat(format!("{:?}", outcome.having).as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn brute_force_oracle_accepts_the_engine_on_every_shape() {
        let checks = brute_force(3);
        assert_eq!(checks.attempted, 2 * Stmt::shapes().len() as u64);
        assert_eq!(checks.failed, 0);
    }

    #[test]
    fn the_oracle_notices_a_wrong_answer() {
        let db = model::instance(200, 0.06, 3);
        let (rows, _) = reference(&Stmt::Fanout.sql(), &db);
        let session = Session::with_instance(model::catalog(), db.clone());
        // A different statement's answer is not this statement's answer
        // (not `fanout_min`: over a full block key MAX and MIN range over the
        // same `[min r, max r]`).
        let other = session.execute(&Stmt::HavingY.sql()).unwrap();
        assert_ne!(vec![values(&other.rows)], rows);
    }
}
