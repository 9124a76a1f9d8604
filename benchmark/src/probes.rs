//! Layer probes: each layer's public functions timed in isolation on the
//! workload instance, from outside. They say what one call into a layer costs
//! at this scale; the shadow decomposition says what share of an op it is.

use crate::alloc;
use crate::metrics::{put, Metrics};
use crate::model::{self, Model, Op, OpGen, Stmt, WriteKind};
use crate::shadow;
use crate::stats::{median, Rng};
use crate::workloads::Params;
use rcqa_core::engine::{EngineOptions, GroupRange, RangeCqa};
use rcqa_core::forall::analyse_with_index;
use rcqa_core::index::DbIndex;
use rcqa_core::interval::{certain_topk, having_status, order_rows};
use rcqa_core::prepared::PreparedAggQuery;
use rcqa_data::codec::encode_event;
use rcqa_data::{rat, DatabaseInstance, DeltaEvent};
use rcqa_query::{normalize_sql, parse_agg_query, parse_sql, CmpOp, SqlQuery};
use rcqa_session::{Session, SyncPolicy, WalOptions};
use rcqa_wal::{FsStorage, Wal};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

/// Seconds taken by `f`.
fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = black_box(f());
    (out, t0.elapsed().as_secs_f64())
}

/// Median seconds of `f` over `n` calls.
fn median_time<T>(n: usize, mut f: impl FnMut(usize) -> T) -> f64 {
    let times: Vec<f64> = (0..n).map(|i| time(|| f(i)).1).collect();
    median(&times).expect("n > 0")
}

fn dir_bytes(dir: &std::path::Path, prefix: &str) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with(prefix))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}

fn parsed(stmt: Stmt) -> SqlQuery {
    parse_sql(&stmt.sql(), &model::catalog()).expect("pool statement parses")
}

pub fn run(p: &Params) -> Metrics {
    let mut m = Metrics::new();
    let catalog = model::catalog();
    let schema = catalog.schema();
    let db = model::instance(p.facts, 0.1, p.seed);
    let facts = db.len();
    let domain = db.numeric_domain();
    let options = EngineOptions::default();
    let shapes = Stmt::shapes();
    const CALLS: usize = 32;

    // query: normalize and parse, per pool statement.
    let sqls: Vec<String> = shapes.iter().map(Stmt::sql).collect();
    let per = |f: &dyn Fn(&str)| median_time(CALLS * sqls.len(), |i| f(&sqls[i % sqls.len()]));
    let n = CALLS * sqls.len();
    put(
        &mut m,
        "query.normalize_us_p50",
        per(&|s| drop(normalize_sql(s))) * 1e6,
        "us",
        n,
    );
    put(
        &mut m,
        "query.parse_us_p50",
        per(&|s| drop(parse_sql(s, &catalog).expect("parses"))) * 1e6,
        "us",
        n,
    );

    // core: prepare (engines, classification, row support) and plan.
    let queries: Vec<SqlQuery> = shapes.iter().map(|s| parsed(*s)).collect();
    let prepare = median_time(n, |i| {
        let engines = shadow::engines(&queries[i % queries.len()], &schema, options);
        let _ = black_box(engines[0].classification(domain));
        shadow::support(&engines, domain)
    });
    put(&mut m, "core.prepare_us_p50", prepare * 1e6, "us", n);
    let prepared: Vec<Vec<RangeCqa>> = queries
        .iter()
        .map(|q| shadow::engines(q, &schema, options))
        .collect();
    let plan = median_time(n, |i| {
        prepared[i % prepared.len()][0].plan(domain, true, true)
    });
    put(&mut m, "core.plan_us_p50", plan * 1e6, "us", n);

    // core.index: build, size, incremental maintenance, seek.
    let before = alloc::live();
    let index = DbIndex::new(&db);
    let index_bytes = alloc::live().saturating_sub(before);
    put(
        &mut m,
        "core.index.bytes_per_fact",
        index_bytes as f64 / facts as f64,
        "B",
        1,
    );
    let build = median_time(3, |_| DbIndex::new(&db));
    put(&mut m, "core.index.build_ms", build * 1e3, "ms", 3);
    let engines_of = |stmt: Stmt| shadow::engines(&parsed(stmt), &schema, options);
    let join_engines = engines_of(Stmt::JoinMax);
    let join_max = &join_engines[0];
    let mut generator = OpGen::new(
        Rng::new(p.seed).fork(77),
        Model::new(&db),
        model::WRITES_ONLY,
    );
    let mut encoded = Vec::new();
    let mut dirty_blocks = 0usize;
    let mut dirty_candidates = Vec::new();
    for (kind, delta_metric, apply_metric) in [
        (
            WriteKind::R,
            "core.index.apply_delta_r_us_p50",
            "data.apply_r_us_p50",
        ),
        (
            WriteKind::S,
            "core.index.apply_delta_s_us_p50",
            "data.apply_s_us_p50",
        ),
    ] {
        let events: Vec<DeltaEvent> = (0..CALLS)
            .map(|_| match generator.single_write(kind) {
                Op::Write { mut events, .. } => events.remove(0),
                Op::Read(_) => unreachable!("single_write hands out writes"),
            })
            .collect();
        // Each event against the pristine index and instance: the cost of a
        // single-fact commit's clone-and-apply, not of a growing batch.
        let mut delta_times = Vec::new();
        let mut apply_times = Vec::new();
        for event in &events {
            let ((next, dirty), t) = time(|| {
                let mut next = index.clone();
                let dirty = next.apply_delta(std::slice::from_ref(event));
                (next, dirty)
            });
            delta_times.push(t);
            dirty_blocks += dirty.len();
            dirty_candidates.push(time(|| join_max.dirty_candidate_keys(&next, &dirty)).1);
            apply_times.push(
                time(|| {
                    let mut next: DatabaseInstance = db.clone();
                    next.apply(event.clone()).expect("generated facts conform")
                })
                .1,
            );
            encode_event(event, &mut encoded);
        }
        put(
            &mut m,
            delta_metric,
            median(&delta_times).expect("CALLS > 0") * 1e6,
            "us",
            CALLS,
        );
        put(
            &mut m,
            apply_metric,
            median(&apply_times).expect("CALLS > 0") * 1e6,
            "us",
            CALLS,
        );
    }
    let events = 2 * CALLS;
    put(
        &mut m,
        "core.index.dirty_blocks_per_event",
        dirty_blocks as f64 / events as f64,
        "ratio",
        events,
    );
    put(
        &mut m,
        "data.encode_bytes_per_event",
        encoded.len() as f64 / events as f64,
        "B",
        events,
    );
    put(
        &mut m,
        "core.exec.dirty_candidates_us_p50",
        median(&dirty_candidates).expect("events > 0") * 1e6,
        "us",
        events,
    );
    let pushed = shadow::restrictions(&parsed(Stmt::Range), &schema);
    let restrict = median_time(CALLS, |_| index.restrict(&pushed, false));
    put(
        &mut m,
        "core.index.restrict_us_p50",
        restrict * 1e6,
        "us",
        CALLS,
    );

    // core.exec: full evaluation per statement, the executor pool, per-group
    // re-derivation, and the paper's headline bound.
    let full = |engines: &[RangeCqa]| -> (Vec<GroupRange>, f64) {
        let (mut rows, t) = time(|| {
            engines
                .iter()
                .map(|e| {
                    e.range_with_index(&db, &index)
                        .expect("pool statement evaluates")
                })
                .collect::<Vec<_>>()
        });
        (rows.swap_remove(0), t)
    };
    let (join_rows, join_t) = full(&join_engines);
    put(&mut m, "core.exec.full_ms.join_max", join_t * 1e3, "ms", 1);
    put(
        &mut m,
        "core.exec.groups_per_s",
        join_rows.len() as f64 / join_t,
        "1/s",
        join_rows.len(),
    );
    put(
        &mut m,
        "core.exec.full_ms.join_multi",
        full(&engines_of(Stmt::JoinMulti)).1 * 1e3,
        "ms",
        1,
    );
    put(
        &mut m,
        "core.exec.full_ms.fanout",
        full(&engines_of(Stmt::Fanout)).1 * 1e3,
        "ms",
        1,
    );
    let single = shadow::engines(
        &queries[0],
        &schema,
        EngineOptions {
            threads: 1,
            ..options
        },
    );
    put(
        &mut m,
        "core.exec.thread_speedup",
        full(&single).1 / join_t,
        "ratio",
        1,
    );
    let step = (join_rows.len() / 64).max(1);
    let keys: BTreeSet<_> = join_rows
        .iter()
        .step_by(step)
        .take(64)
        .map(|r| r.key.clone())
        .collect();
    let (_, t) = time(|| {
        join_max
            .range_for_groups(&db, &index, &keys)
            .expect("evaluates")
    });
    put(
        &mut m,
        "core.exec.for_groups_us_per_group",
        t * 1e6 / keys.len() as f64,
        "us",
        keys.len(),
    );
    let sum = parse_agg_query("(x, SUM(r)) <- R(x, y), S(y, z, r)").expect("fixed query");
    let glb_sum = RangeCqa::new(&sum, &schema).expect("fixed query prepares");
    put(
        &mut m,
        "core.exec.glb_sum_ms",
        time(|| glb_sum.glb(&db).expect("evaluates")).1 * 1e3,
        "ms",
        1,
    );

    // core.forall: embeddings and forall-embeddings of the closed join body,
    // over the seek-restricted view (the whole instance's embeddings would
    // not fit a sandbox's memory as materialised bindings).
    let closed = parse_agg_query("MAX(r) <- R(x, y), S(y, z, r)").expect("fixed query");
    let body = PreparedAggQuery::new(&closed, &schema)
        .expect("fixed query prepares")
        .body;
    let (view, _) = index.restrict(&pushed, false);
    let (analysis, t) = time(|| analyse_with_index(&body, &view));
    put(&mut m, "core.forall.analyse_ms", t * 1e3, "ms", 1);
    let embeddings = analysis.embeddings.len();
    put(
        &mut m,
        "core.forall.embeddings",
        embeddings as f64,
        "count",
        embeddings,
    );
    put(
        &mut m,
        "core.forall.forall_share",
        analysis.forall_embeddings.len() as f64 / embeddings.max(1) as f64,
        "ratio",
        embeddings,
    );
    drop(analysis);

    // core.interval: post-processing over the raw rows of topk_y.
    let (y_rows, _) = full(&engines_of(Stmt::TopkY));
    put(
        &mut m,
        "core.interval.topk_ms",
        time(|| certain_topk(&y_rows, 10, true)).1 * 1e3,
        "ms",
        y_rows.len(),
    );
    put(
        &mut m,
        "core.interval.order_rows_ms",
        time(|| order_rows(&y_rows, true)).1 * 1e3,
        "ms",
        y_rows.len(),
    );
    let (_, t) = time(|| {
        y_rows
            .iter()
            .map(|r| {
                having_status(
                    r.glb.and_then(|b| b.value),
                    r.lub.and_then(|b| b.value),
                    CmpOp::Ge,
                    rat(50),
                )
            })
            .collect::<Vec<_>>()
    });
    put(
        &mut m,
        "core.interval.having_us_per_row",
        t * 1e6 / y_rows.len().max(1) as f64,
        "us",
        y_rows.len(),
    );

    // wal: append, sync, checkpoint, and open on a scratch directory.
    let dir = p.out_dir.join(format!("probe-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let wal_options = WalOptions {
        sync: SyncPolicy::Never,
        checkpoint_every: 0,
        ..WalOptions::default()
    };
    let open = |dir: &std::path::Path| {
        let storage = FsStorage::open(dir).expect("the out directory is writable");
        Wal::open(Box::new(storage), wal_options).expect("a log this probe wrote opens")
    };
    let (mut wal, _) = open(&dir);
    let mut logged: Vec<DeltaEvent> = Vec::new();
    let (mut appends, mut syncs) = (Vec::new(), Vec::new());
    for i in 0..2 * CALLS {
        let kind = if i % 2 == 0 {
            WriteKind::R
        } else {
            WriteKind::S
        };
        let Op::Write { events, .. } = generator.single_write(kind) else {
            unreachable!("single_write hands out writes")
        };
        let epoch = wal.last_epoch() + 1;
        appends.push(time(|| wal.append(epoch, &events).expect("appends")).1);
        syncs.push(time(|| wal.sync().expect("syncs")).1);
        logged.extend(events);
    }
    put(
        &mut m,
        "wal.append_us_p50",
        median(&appends).expect("CALLS > 0") * 1e6,
        "us",
        appends.len(),
    );
    put(
        &mut m,
        "wal.sync_us_p50",
        median(&syncs).expect("CALLS > 0") * 1e6,
        "us",
        syncs.len(),
    );
    put(
        &mut m,
        "wal.bytes_per_event",
        dir_bytes(&dir, "wal-") as f64 / logged.len() as f64,
        "B",
        logged.len(),
    );
    let epoch = wal.last_epoch();
    let (_, t) = time(|| wal.checkpoint(epoch, db.facts()).expect("checkpoints"));
    put(&mut m, "wal.checkpoint_ms", t * 1e3, "ms", 1);
    put(
        &mut m,
        "wal.checkpoint_bytes_per_fact",
        dir_bytes(&dir, "ck-") as f64 / facts as f64,
        "B",
        facts,
    );
    drop(wal);
    put(&mut m, "wal.open_ms", time(|| open(&dir)).1 * 1e3, "ms", 1);
    if let Err(e) = std::fs::remove_dir_all(&dir) {
        eprintln!("warning: could not remove {}: {e}", dir.display());
    }

    // session: pin, result-cache hit, and preparation of an unseen statement.
    let session = Session::with_instance(catalog, db);
    let hit = Stmt::Range.sql();
    session.execute(&hit).expect("standing statement answers");
    const HOT: usize = 1000;
    put(
        &mut m,
        "session.pin_ns_p50",
        median_time(HOT, |_| session.snapshot()) * 1e9,
        "ns",
        HOT,
    );
    put(
        &mut m,
        "session.execute_hit_us_p50",
        median_time(HOT, |_| session.execute(&hit).expect("answers")) * 1e6,
        "us",
        HOT,
    );
    let unseen: Vec<String> = (0..200).map(|k| Stmt::PointJoin(k).sql()).collect();
    put(
        &mut m,
        "session.prepare_cold_us_p50",
        median_time(unseen.len(), |i| {
            session.prepare(&unseen[i]).expect("prepares")
        }) * 1e6,
        "us",
        unseen.len(),
    );
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_report_every_layer_probe_metric() {
        let p = Params {
            seed: 2,
            seconds: 1.0,
            max_ops: None,
            facts: 3_000,
            traced: true,
            out_dir: std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
        };
        std::fs::create_dir_all(&p.out_dir).unwrap();
        let m = run(&p);
        let probe_prefixes = ["query.", "core.", "data.", "wal."];
        for (name, _) in crate::metrics::PER_LAYER {
            let is_probe = probe_prefixes.iter().any(|pre| name.starts_with(pre))
                || [
                    "session.pin_ns_p50",
                    "session.execute_hit_us_p50",
                    "session.prepare_cold_us_p50",
                ]
                .contains(name);
            assert_eq!(m.contains_key(*name), is_probe, "{name}");
        }
        assert!(m["core.forall.embeddings"].value > 0.0);
        assert!(m["wal.bytes_per_event"].value > 0.0);
        // Events are generated against an evolving picture but each is applied
        // to the pristine index, so a few name facts it does not hold.
        assert!(m["core.index.dirty_blocks_per_event"].value > 0.5);
    }
}
