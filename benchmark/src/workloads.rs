//! The four workloads. Each is a closed loop (a client sends its next op only
//! after the previous one completed) over the public API in default options,
//! with the same lifecycle: set-up, a measured phase of `--seconds`, then a
//! restart from the final state that doubles as the correctness oracle.
//! Bursts of the reference kernel run between the ops and around every
//! repetition of set-up and restart, and every timing is reported at the
//! nominal machine speed (see `calib.rs`).

use crate::alloc;
use crate::calib::{self, Calibrator, BURSTS_AROUND};
use crate::metrics::{put, Metrics};
use crate::model::{self, Mix, Model, Op, OpGen, Stmt, WriteKind};
use crate::oracle;
use crate::shadow::{self, ReadPath, Shadow};
use crate::stats::{median, percentile, trimmed_mean, Digest, Rng};
use crate::trace::Recorder;
use rcqa_core::engine::RangeCqa;
use rcqa_core::index::{DbIndex, DirtyBlock};
use rcqa_data::{DatabaseInstance, DeltaEvent, DeltaOp};
use rcqa_query::{parse_agg_query, parse_sql};
use rcqa_session::{
    QueryOutcome, Session, SessionError, SessionStats, ShardedSession, ShardedStats,
};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub const NAMES: [&str; 4] = [
    "analytic_cold",
    "serve_read_heavy",
    "serve_write_heavy",
    "serve_sharded",
];

/// Shards of `serve_sharded`.
const SHARDS: usize = 4;
/// Every `SHADOW_EVERY`-th read and every `SHADOW_EVERY`-th write of a
/// traced serving run is decomposed (counted apart, so a read-heavy mix still
/// decomposes writes).
const SHADOW_EVERY: u64 = 16;
/// Set-up is done this often per run and the median reported.
const SETUPS: usize = 3;
/// Restart likewise; it is cheaper and was the noisier of the two at three.
const RESTARTS: usize = 7;

#[derive(Clone, Debug)]
pub struct Params {
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Ends the measured phase after this many ops instead (passes for
    /// `analytic_cold`): a fixed op count makes the path counters repeat
    /// exactly, which the determinism tests rely on.
    pub max_ops: Option<u64>,
    /// Facts per instance: 10^5, or 10^4 under `--smoke`.
    pub facts: usize,
    pub traced: bool,
    /// Where durable directories and trace files go; inside the checkout.
    pub out_dir: PathBuf,
}

/// What one run of one workload produced.
#[derive(Debug)]
pub struct Report {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Digest of the op sequence the generator handed out.
    pub ops_digest: u64,
    /// Digest of the final answers of the standing statements.
    pub answers_digest: u64,
    /// `SessionStats` delta over the measured phase (shards and mirror summed
    /// for `serve_sharded`).
    pub stats: SessionStats,
    /// Measured-phase throughput with the time spent in shadow
    /// decompositions left out (equals `ops_per_s` for an untraced run).
    pub ops_per_s_sans_shadow: f64,
    pub recorder: Option<Recorder>,
}

// ---------------------------------------------------------------------------
// Samples
// ---------------------------------------------------------------------------

/// Op latencies in seconds, by class.
#[derive(Clone, Debug, Default)]
struct Samples(BTreeMap<String, Vec<f64>>);

impl Samples {
    fn add(&mut self, class: &str, elapsed: Duration) {
        let secs = elapsed.as_secs_f64();
        match self.0.get_mut(class) {
            Some(v) => v.push(secs),
            None => drop(self.0.insert(class.to_string(), vec![secs])),
        }
    }

    fn absorb(&mut self, other: Samples) {
        for (class, mut v) in other.0 {
            self.0.entry(class).or_default().append(&mut v);
        }
    }

    fn get(&self, class: &str) -> &[f64] {
        self.0.get(class).map_or(&[], Vec::as_slice)
    }

    fn count(&self, class: &str) -> usize {
        self.get(class).len()
    }

    /// Puts `stat` of `class`, scaled, under `name` — if it has a value: a
    /// class without samples, or a tail without ten samples beyond it, is
    /// left out.
    fn put_stat(
        &self,
        m: &mut Metrics,
        name: &str,
        class: &str,
        stat: impl Fn(&[f64]) -> Option<f64>,
        (scale, unit): (f64, &'static str),
    ) {
        let v = self.get(class);
        if let Some(value) = stat(v) {
            put(m, name, value * scale, unit, v.len());
        }
    }

    fn put_median(&self, m: &mut Metrics, name: &str, class: &str, in_unit: (f64, &'static str)) {
        self.put_stat(m, name, class, median, in_unit);
    }

    /// The latency metrics every workload shares, from the classes it filled,
    /// at the nominal machine speed (`speed` as [`calib::speed`] gives it).
    fn latency_metrics(&self, m: &mut Metrics, speed: f64) {
        let us: (f64, &str) = (1e6 * speed, "us");
        let ms: (f64, &str) = (1e3 * speed, "ms");
        let mean = |v: &[f64]| (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64);
        let tail = |p: f64| move |v: &[f64]| percentile(v, p);
        self.put_median(m, "read_fresh_p50_us", "read_fresh", us);
        self.put_stat(m, "read_fresh_p99_us", "read_fresh", tail(99.0), us);
        self.put_stat(m, "read_stale_mean_ms", "read_stale", mean, ms);
        self.put_median(m, "read_stale_p50_ms", "read_stale", ms);
        self.put_stat(m, "read_stale_p95_ms", "read_stale", tail(95.0), ms);
        let middle = |v: &[f64]| trimmed_mean(v, 0.05);
        self.put_stat(m, "write_r_ms", "write_r", middle, ms);
        self.put_stat(m, "write_s_ms", "write_s", middle, ms);
        self.put_median(m, "write_r_p50_ms", "write_r", ms);
        self.put_median(m, "write_s_p50_ms", "write_s", ms);
        let singles: Vec<f64> = [self.get("write_r"), self.get("write_s")].concat();
        if let Some(v) = percentile(&singles, 95.0) {
            put(m, "write_p95_ms", v * ms.0, "ms", singles.len());
        }
        self.put_median(m, "write_batch_p50_ms", "write_batch", ms);
        self.put_median(m, "write_ckpt_p50_ms", "write_ckpt", ms);
        self.put_median(m, "sharded.fanout_fresh_read_us_p50", "fresh.fanout", us);
        self.put_median(m, "sharded.combine_fresh_read_us_p50", "fresh.combine", us);
    }
}

// ---------------------------------------------------------------------------
// The system under test, behind one shape
// ---------------------------------------------------------------------------

trait Target: Sync {
    fn execute(&self, sql: &str) -> Result<QueryOutcome, SessionError>;
    /// One event goes through the single-fact entry points, several through
    /// `apply_batch`; `true` when every event was effective.
    fn write(&self, events: &[DeltaEvent]) -> Result<bool, SessionError>;
    fn database(&self) -> Arc<DatabaseInstance>;
    fn checkpoints(&self) -> u64 {
        0
    }
    /// The plain session behind the target, when there is one (shadow
    /// decomposition pins its snapshots).
    fn session(&self) -> Option<&Session> {
        None
    }
    /// Session counters: shards and mirror summed for the front-end.
    fn stats(&self) -> SessionStats;
}

impl Target for Session {
    fn execute(&self, sql: &str) -> Result<QueryOutcome, SessionError> {
        Session::execute(self, sql)
    }
    fn write(&self, events: &[DeltaEvent]) -> Result<bool, SessionError> {
        Ok(self.apply_batch(events)?.into_iter().all(|f| f))
    }
    fn database(&self) -> Arc<DatabaseInstance> {
        Session::database(self)
    }
    fn checkpoints(&self) -> u64 {
        Session::stats(self).checkpoints
    }
    fn session(&self) -> Option<&Session> {
        Some(self)
    }
    fn stats(&self) -> SessionStats {
        Session::stats(self)
    }
}

impl Target for ShardedSession {
    fn execute(&self, sql: &str) -> Result<QueryOutcome, SessionError> {
        ShardedSession::execute(self, sql)
    }
    fn write(&self, events: &[DeltaEvent]) -> Result<bool, SessionError> {
        match events {
            // Single facts take the group-commit path, as a client's would.
            [e] if e.op == DeltaOp::Insert => self.insert(e.fact.clone()),
            [e] => self.delete(&e.fact),
            _ => Ok(self.apply_batch(events)?.into_iter().all(|f| f)),
        }
    }
    fn database(&self) -> Arc<DatabaseInstance> {
        ShardedSession::database(self).expect("in-memory front-end pins without I/O")
    }
    fn stats(&self) -> SessionStats {
        let s = ShardedSession::stats(self);
        s.totals.merge(s.mirror)
    }
}

fn stats_delta(after: SessionStats, before: SessionStats) -> SessionStats {
    SessionStats {
        statements_prepared: after.statements_prepared - before.statements_prepared,
        statement_hits: after.statement_hits - before.statement_hits,
        result_hits: after.result_hits - before.result_hits,
        partial_recomputes: after.partial_recomputes - before.partial_recomputes,
        full_recomputes: after.full_recomputes - before.full_recomputes,
        supported_patches: after.supported_patches - before.supported_patches,
        support_misses: after.support_misses - before.support_misses,
        topk_fallbacks: after.topk_fallbacks - before.topk_fallbacks,
        index_builds: after.index_builds - before.index_builds,
        deltas_applied: after.deltas_applied - before.deltas_applied,
        wal_appends: after.wal_appends - before.wal_appends,
        checkpoints: after.checkpoints - before.checkpoints,
        checkpoint_failures: after.checkpoint_failures - before.checkpoint_failures,
        batched_commits: after.batched_commits - before.batched_commits,
        batched_events: after.batched_events - before.batched_events,
        statements_evicted: after.statements_evicted - before.statements_evicted,
    }
}

// ---------------------------------------------------------------------------
// Fresh or stale, decided from outside
// ---------------------------------------------------------------------------

/// A read is *fresh* if its statement was read before and no commit was
/// acknowledged since, *stale* otherwise. Shared by all clients, because the
/// caches under measurement are.
#[derive(Default)]
struct Freshness {
    commits: AtomicU64,
    last_read: Mutex<HashMap<Stmt, u64>>,
}

impl Freshness {
    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<Stmt, u64>> {
        self.last_read
            .lock()
            .expect("no client panics while holding the freshness map")
    }

    /// Before a read: the commit count, and the count at which the statement
    /// was last read.
    fn before(&self, stmt: Stmt) -> (u64, Option<u64>) {
        // SeqCst: the count orders reads against acknowledged commits across
        // client threads.
        let now = self.commits.load(Ordering::SeqCst);
        (now, self.lock().get(&stmt).copied())
    }

    /// After the read: records it and says whether it was fresh — read before
    /// at this very commit count, and no commit acknowledged while it ran.
    fn after(&self, stmt: Stmt, (at, seen): (u64, Option<u64>)) -> bool {
        self.lock().insert(stmt, at);
        seen == Some(at) && self.commits.load(Ordering::SeqCst) == at
    }

    fn committed(&self) -> u64 {
        self.commits.fetch_add(1, Ordering::SeqCst) + 1
    }
}

// ---------------------------------------------------------------------------
// One closed-loop client
// ---------------------------------------------------------------------------

/// The recorder of a traced client, with the shadow decomposer when the
/// target is a plain session.
struct Tracing {
    rec: Recorder,
    shadow: Option<Shadow>,
    /// Blocks written, by commit number, for rebuilding a stale read's dirty
    /// set.
    dirty_log: Vec<(u64, DirtyBlock)>,
}

impl Tracing {
    /// Records the op that just completed, `elapsed` long, as a span.
    fn op_span(&mut self, name: &'static str, op: u64, elapsed: Duration) -> u32 {
        let end_ns = self.rec.now_ns();
        let start_ns = end_ns.saturating_sub(elapsed.as_nanos() as u64);
        self.rec.push(name, None, op, start_ns, end_ns)
    }
}

struct Client<'a> {
    target: &'a dyn Target,
    gen: OpGen,
    freshness: &'a Freshness,
    /// A second class a fresh read is filed under (the sharded route).
    fresh_detail: fn(Stmt) -> Option<&'static str>,
    samples: Samples,
    attempted: u64,
    failed: u64,
    seq: u64,
    /// Reads and writes so far, for picking the ops to decompose.
    seen: [u64; 2],
    tracing: Option<Tracing>,
    /// The reference kernel, run between ops.
    cal: Calibrator,
}

impl Client<'_> {
    fn run(&mut self, seconds: f64, max_ops: Option<u64>) {
        let started = Instant::now();
        while started.elapsed().as_secs_f64() < seconds && max_ops.is_none_or(|n| self.seq < n) {
            let op = self.gen.next_op();
            self.step(op);
            self.cal.keep_up(started.elapsed().as_secs_f64());
        }
    }

    fn step(&mut self, op: Op) {
        let seq = self.seq;
        self.seq += 1;
        self.attempted += 1;
        let session = self.target.session();
        let nth = &mut self.seen[usize::from(matches!(op, Op::Write { .. }))];
        let sampled = self.tracing.as_ref().is_some_and(|t| t.shadow.is_some())
            && nth.is_multiple_of(SHADOW_EVERY);
        *nth += 1;
        match op {
            Op::Read(stmt) => {
                let sql = stmt.sql();
                let stats_before = sampled.then(|| self.target.stats());
                let seen = self.freshness.before(stmt);
                let t0 = Instant::now();
                let outcome = self.target.execute(&sql);
                let elapsed = t0.elapsed();
                let fresh = self.freshness.after(stmt, seen);
                self.failed += u64::from(outcome.is_err());
                self.samples
                    .add(if fresh { "read_fresh" } else { "read_stale" }, elapsed);
                if let Some(detail) = (self.fresh_detail)(stmt).filter(|_| fresh) {
                    self.samples.add(detail, elapsed);
                }
                let Some(tracing) = self.tracing.as_mut() else {
                    return;
                };
                let span = tracing.op_span("op.read", seq, elapsed);
                if let (true, false, Some(session), Ok(outcome)) =
                    (sampled, fresh, session, &outcome)
                {
                    let delta =
                        stats_delta(session.stats(), stats_before.expect("taken when sampled"));
                    let path = ReadPath {
                        prepared: delta.statements_prepared > 0,
                        patched: delta.supported_patches > 0,
                    };
                    let since = seen.1.unwrap_or(0);
                    let dirty: Vec<DirtyBlock> = tracing
                        .dirty_log
                        .iter()
                        .filter(|(commit, _)| *commit > since)
                        .map(|(_, block)| block.clone())
                        .collect();
                    let shadow = tracing.shadow.as_mut().expect("sampled implies a shadow");
                    shadow.read(
                        &mut tracing.rec,
                        span,
                        seq,
                        session,
                        &sql,
                        path,
                        &dirty,
                        &outcome.rows,
                    );
                }
            }
            Op::Write { kind, events } => {
                let pre = session.filter(|_| sampled).map(Session::snapshot);
                let checkpoints = self.target.checkpoints();
                let t0 = Instant::now();
                let result = self.target.write(&events);
                let elapsed = t0.elapsed();
                let commit = self.freshness.committed();
                // The generator only emits effective events, so an `Ok(false)`
                // is a wrong answer about what the instance held.
                self.failed += u64::from(!matches!(result, Ok(true)));
                self.samples.add(
                    match kind {
                        WriteKind::R => "write_r",
                        WriteKind::S => "write_s",
                        WriteKind::Batch => "write_batch",
                    },
                    elapsed,
                );
                if self.target.checkpoints() > checkpoints {
                    self.samples.add("write_ckpt", elapsed);
                }
                let Some(tracing) = self.tracing.as_mut() else {
                    return;
                };
                let span = tracing.op_span("op.write", seq, elapsed);
                if let Some(shadow) = tracing.shadow.as_mut() {
                    tracing
                        .dirty_log
                        .extend(events.iter().map(|e| (commit, shadow.dirty_block(e))));
                    if let Some(pre) = pre {
                        shadow.write(&mut tracing.rec, span, seq, &pre, &events);
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The three serving workloads
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// In-memory `Session`.
    Plain,
    /// Durable `Session` over `FsStorage`, default `WalOptions`.
    Durable,
    /// In-memory `ShardedSession` of [`SHARDS`] shards.
    Sharded,
}

struct Serving {
    kind: Kind,
    mix: Mix,
    standing: &'static [Stmt],
    clients: usize,
    fresh_detail: fn(Stmt) -> Option<&'static str>,
}

fn no_detail(_: Stmt) -> Option<&'static str> {
    None
}

fn route_detail(stmt: Stmt) -> Option<&'static str> {
    match model::sharded_route(stmt) {
        "fanout" => Some("fresh.fanout"),
        "combine" => Some("fresh.combine"),
        _ => None,
    }
}

fn serving(name: &str) -> Option<Serving> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Some(match name {
        "serve_read_heavy" => Serving {
            kind: Kind::Plain,
            mix: Mix {
                writes_reads: (1, 19),
                batches_singles: (0, 1),
                batch_len: 1,
                reads: model::READ_HEAVY_READS,
            },
            standing: &model::STANDING,
            clients: 1,
            fresh_detail: no_detail,
        },
        "serve_write_heavy" => Serving {
            kind: Kind::Durable,
            // Half the writes are 64-event batches, so several checkpoints
            // (every 1024 epochs by default) fall inside the measured phase.
            mix: Mix {
                writes_reads: (1, 1),
                batches_singles: (1, 1),
                batch_len: 64,
                reads: model::WRITE_HEAVY_READS,
            },
            standing: &model::STANDING,
            clients: 1,
            fresh_detail: no_detail,
        },
        "serve_sharded" => Serving {
            kind: Kind::Sharded,
            mix: Mix {
                writes_reads: (3, 17),
                batches_singles: (3, 7),
                batch_len: 16,
                reads: model::SHARDED_READS,
            },
            standing: &model::SHARDED_STANDING,
            // The front-end fans a statement out over one thread per shard, so
            // a client needs two hardware threads to itself: two clients on
            // two cores measured the scheduler.
            clients: (nproc / 2).clamp(1, SHARDS),
            fresh_detail: route_detail,
        },
        _ => return None,
    })
}

/// The system under test of a serving workload.
enum Sut {
    Plain(Session),
    Durable(Session, PathBuf),
    Sharded(ShardedSession),
}

impl Sut {
    fn target(&self) -> &dyn Target {
        match self {
            Sut::Plain(s) | Sut::Durable(s, _) => s,
            Sut::Sharded(s) => s,
        }
    }
}

fn fresh_dir(out_dir: &Path, label: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = out_dir.join(format!(
        "{label}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    // A leftover of a killed run with the same pid would be recovered into
    // the session; start from nothing.
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("the out directory is writable");
    dir
}

fn remove_dir(dir: &Path) {
    if let Err(e) = std::fs::remove_dir_all(dir) {
        eprintln!("warning: could not remove {}: {e}", dir.display());
    }
}

/// Loads `db` into a new system under test — what set-up and restart share.
fn load(kind: Kind, db: Arc<DatabaseInstance>, out_dir: &Path) -> Sut {
    let catalog = model::catalog();
    match kind {
        Kind::Plain => Sut::Plain(Session::with_instance(catalog, db)),
        Kind::Durable => {
            let dir = fresh_dir(out_dir, "wal");
            let session = Session::open(catalog, &dir).expect("fresh directory opens");
            session
                .insert_all(db.facts().cloned())
                .expect("generated facts conform to the schema");
            Sut::Durable(session, dir)
        }
        Kind::Sharded => {
            let sharded = ShardedSession::new(catalog, SHARDS);
            sharded
                .insert_all(db.facts().cloned())
                .expect("generated facts conform to the schema");
            Sut::Sharded(sharded)
        }
    }
}

/// Runs `f` `n` times, dropping each result but the last before the next
/// starts, with bursts of the reference kernel before, between and after.
/// Returns the last result and the median duration at the nominal machine
/// speed.
fn repeated<T>(
    what: &str,
    n: usize,
    cal: &mut Calibrator,
    mut f: impl FnMut() -> T,
    mut discard: impl FnMut(T),
) -> (T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    cal.bursts.clear();
    for _ in 0..n {
        if let Some(previous) = last.take() {
            discard(previous);
        }
        cal.run(BURSTS_AROUND);
        let t0 = Instant::now();
        last = Some(f());
        times.push(t0.elapsed().as_secs_f64());
    }
    cal.run(BURSTS_AROUND);
    let (raw, speed) = (median(&times).expect("n > 0"), calib::speed(&cal.bursts));
    println!("# machine speed {speed:.4} of nominal over {n} {what}s; raw median {raw} s");
    (last.expect("n > 0"), raw * speed)
}

fn discard_sut(sut: Sut) {
    if let Sut::Durable(session, dir) = sut {
        drop(session);
        remove_dir(&dir);
    }
}

fn serve(name: &'static str, cfg: Serving, p: &Params) -> Report {
    let mut metrics = Metrics::new();
    let mut checks = oracle::brute_force(p.seed);
    let mut cal = Calibrator::new();
    let heap_before = alloc::live();

    // Set-up: generate, load, build the index, and answer every standing
    // statement once, so caches are full and lazy work is done before timing.
    let (sut, setup_s) = repeated(
        "set-up",
        SETUPS,
        &mut cal,
        || {
            let db = Arc::new(model::instance(p.facts, 0.1, p.seed));
            let sut = load(cfg.kind, db, &p.out_dir);
            for stmt in cfg.standing {
                sut.target()
                    .execute(&stmt.sql())
                    .expect("standing statement answers");
            }
            sut
        },
        discard_sut,
    );
    put(&mut metrics, "setup_s", setup_s, "s", SETUPS);
    let target = sut.target();
    let db = target.database();
    let facts = db.len();
    let live = alloc::live().saturating_sub(heap_before);
    put(
        &mut metrics,
        "mem_bytes_per_fact",
        live as f64 / facts as f64,
        "B",
        1,
    );

    // The measured phase.
    let scratch =
        (p.traced && cfg.kind == Kind::Durable).then(|| fresh_dir(&p.out_dir, "scratch-wal"));
    let freshness = Freshness::default();
    let rng = Rng::new(p.seed);
    let mut clients: Vec<Client<'_>> = Model::new(&db)
        .partition(cfg.clients)
        .into_iter()
        .enumerate()
        .map(|(c, model)| Client {
            target,
            gen: OpGen::new(rng.fork(1 + c as u64), model, cfg.mix),
            freshness: &freshness,
            fresh_detail: cfg.fresh_detail,
            samples: Samples::default(),
            attempted: 0,
            failed: 0,
            seq: 0,
            seen: [0; 2],
            cal: Calibrator::new(),
            tracing: p.traced.then(|| Tracing {
                rec: Recorder::new(),
                shadow: target.session().map(|_| {
                    Shadow::new(model::catalog(), scratch.as_deref())
                        .expect("the scratch log opens")
                }),
                dirty_log: Vec::new(),
            }),
        })
        .collect();
    drop(db);
    let sharded_before = match &sut {
        Sut::Sharded(s) => Some(s.stats()),
        _ => None,
    };
    let stats_before = target.stats();
    let per_client_ops = p.max_ops.map(|n| n.div_ceil(cfg.clients as u64));
    let started = Instant::now();
    std::thread::scope(|scope| {
        for client in &mut clients {
            scope.spawn(move || client.run(p.seconds, per_client_ops));
        }
    });
    let elapsed = started.elapsed().as_secs_f64();
    let stats = stats_delta(target.stats(), stats_before);
    let peak = alloc::peak();

    let mut samples = Samples::default();
    let mut ops = 0;
    let mut ops_digest = Digest::default();
    let mut recorder: Option<Recorder> = None;
    let mut shadow_ns = 0;
    let mut bursts = Vec::new();
    let mut in_bursts = 0.0;
    for mut client in clients {
        bursts.append(&mut client.cal.bursts);
        in_bursts += client.cal.spent / cfg.clients as f64;
        samples.absorb(client.samples);
        ops += client.seq;
        checks.attempted += client.attempted;
        checks.failed += client.failed;
        ops_digest.eat(&client.gen.digest().to_le_bytes());
        if let Some(tracing) = client.tracing {
            shadow_ns += tracing.shadow.map_or(0, |s| s.spent_ns);
            match recorder.as_mut() {
                Some(rec) => rec.absorb(tracing.rec),
                None => recorder = Some(tracing.rec),
            }
        }
    }
    // The clients ran their bursts side by side, so the phase lost one
    // client's share of its time to them.
    let elapsed = elapsed - in_bursts;
    let speed = calib::speed(&bursts);
    measured_phase_metrics(&mut metrics, ops, elapsed, speed, bursts.len());
    put(
        &mut metrics,
        "peak_bytes_per_fact",
        peak as f64 / facts as f64,
        "B",
        1,
    );
    samples.latency_metrics(&mut metrics, speed);

    let reads = samples.count("read_fresh") + samples.count("read_stale");
    let stale = samples.count("read_stale");
    let commits =
        samples.count("write_r") + samples.count("write_s") + samples.count("write_batch");
    let events = samples.count("write_r")
        + samples.count("write_s")
        + samples.count("write_batch") * cfg.mix.batch_len;
    session_path_metrics(&mut metrics, &stats, reads, stale, commits);
    put(
        &mut metrics,
        "session.index_builds",
        target.stats().index_builds as f64,
        "count",
        1,
    );
    if let (Sut::Sharded(s), Some(before)) = (&sut, sharded_before) {
        sharded_metrics(&mut metrics, &before, &s.stats(), reads, events);
    }
    if let Some(rec) = &recorder {
        shadow_metrics(&mut metrics, rec);
    }

    // Final answers of the warm system, then restart from the final state
    // and compare: restarted and cold answers must be byte-identical.
    let warm: Vec<QueryOutcome> = cfg
        .standing
        .iter()
        .map(|stmt| {
            target
                .execute(&stmt.sql())
                .expect("standing statement answers")
        })
        .collect();
    let mut answers = Digest::default();
    for (stmt, outcome) in cfg.standing.iter().zip(&warm) {
        oracle::digest_answer(&mut answers, *stmt, outcome);
    }
    let final_db = target.database();
    let first = cfg.standing[0].sql();
    let (restarted, restart_s) = match sut {
        Sut::Durable(session, dir) => {
            // Recovery: everything acknowledged must be readable from the
            // bytes on storage alone.
            session.sync().expect("the log syncs");
            drop(session);
            let (reopened, restart_s) = repeated(
                "restart",
                RESTARTS,
                &mut cal,
                || {
                    let s = Session::open(model::catalog(), &dir).expect("the directory recovers");
                    s.execute(&first).expect("standing statement answers");
                    s
                },
                drop,
            );
            checks.record(
                "the recovered instance equals the instance before the drop",
                *reopened.database() == *final_db,
            );
            (Sut::Durable(reopened, dir), restart_s)
        }
        other => {
            discard_sut(other);
            repeated(
                "restart",
                RESTARTS,
                &mut cal,
                || {
                    let sut = load(cfg.kind, final_db.clone(), &p.out_dir);
                    sut.target()
                        .execute(&first)
                        .expect("standing statement answers");
                    sut
                },
                discard_sut,
            )
        }
    };
    put(&mut metrics, "restart_s", restart_s, "s", RESTARTS);
    let cold = Session::with_instance(model::catalog(), final_db.clone());
    for (stmt, warm) in cfg.standing.iter().zip(&warm) {
        let expected = cold.execute(&stmt.sql());
        let again = restarted.target().execute(&stmt.sql());
        let ok = |got: &Result<QueryOutcome, SessionError>| match (got, &expected) {
            (Ok(got), Ok(expected)) => oracle::same_answer(got, expected),
            _ => false,
        };
        checks.record(
            &format!("{name}: warm {} equals a cold session's", stmt.name()),
            ok(&Ok(warm.clone())),
        );
        checks.record(
            &format!("{name}: restarted {} equals a cold session's", stmt.name()),
            ok(&again),
        );
    }
    discard_sut(restarted);
    if let Some(dir) = scratch {
        remove_dir(&dir);
    }

    Report {
        metrics,
        attempted: checks.attempted,
        failed: checks.failed,
        ops_digest: ops_digest.value(),
        answers_digest: answers.value(),
        stats,
        ops_per_s_sans_shadow: ops as f64 / (elapsed - shadow_ns as f64 / 1e9) / speed,
        recorder,
    }
}

/// Throughput at the nominal machine speed over `elapsed` seconds (bursts
/// left out), and what the reference kernel read during the phase.
fn measured_phase_metrics(m: &mut Metrics, ops: u64, elapsed: f64, speed: f64, bursts: usize) {
    put(
        m,
        "ops_per_s",
        ops as f64 / elapsed / speed,
        "1/s",
        ops as usize,
    );
    put(
        m,
        "calib.burst_us_mean",
        calib::NOMINAL_BURST_S / speed * 1e6,
        "us",
        bursts,
    );
    println!(
        "# machine speed {speed:.4} of nominal over the measured phase ({bursts} bursts); raw ops_per_s {}",
        ops as f64 / elapsed
    );
}

/// Session paths over the measured phase: `SessionStats` deltas over the
/// driver's own op counts.
fn session_path_metrics(
    m: &mut Metrics,
    s: &SessionStats,
    reads: usize,
    stale: usize,
    commits: usize,
) {
    let share = |n: u64, of: usize| if of == 0 { 0.0 } else { n as f64 / of as f64 };
    put(
        m,
        "session.result_hit_share",
        share(s.result_hits, reads),
        "ratio",
        reads,
    );
    put(
        m,
        "session.statement_hit_share",
        share(s.statement_hits, reads),
        "ratio",
        reads,
    );
    put(
        m,
        "session.statements_evicted",
        s.statements_evicted as f64,
        "count",
        reads,
    );
    put(
        m,
        "session.patch_share",
        share(s.supported_patches, stale),
        "ratio",
        stale,
    );
    put(
        m,
        "session.support_miss_share",
        share(s.support_misses, stale),
        "ratio",
        stale,
    );
    put(
        m,
        "session.topk_fallbacks",
        s.topk_fallbacks as f64,
        "count",
        stale,
    );
    put(
        m,
        "session.checkpoints",
        s.checkpoints as f64,
        "count",
        commits,
    );
    put(
        m,
        "session.wal_appends_per_commit",
        share(s.wal_appends, commits),
        "ratio",
        commits,
    );
}

fn sharded_metrics(
    m: &mut Metrics,
    before: &ShardedStats,
    after: &ShardedStats,
    reads: usize,
    events: usize,
) {
    let share = |n: u64, of: usize| if of == 0 { 0.0 } else { n as f64 / of as f64 };
    let fanout = after.fanout_queries - before.fanout_queries;
    let designated = after.designated_queries - before.designated_queries;
    let combine = after.combine_queries - before.combine_queries;
    put(
        m,
        "sharded.fanout_share",
        share(fanout, reads),
        "ratio",
        reads,
    );
    put(
        m,
        "sharded.designated_share",
        share(designated, reads),
        "ratio",
        reads,
    );
    put(
        m,
        "sharded.combine_share",
        share(combine, reads),
        "ratio",
        reads,
    );
    let mirrored = after.mirror_events - before.mirror_events;
    put(
        m,
        "sharded.mirror_events_per_write",
        share(mirrored, events),
        "ratio",
        events,
    );
    let syncs = after.mirror_syncs - before.mirror_syncs;
    put(m, "sharded.mirror_syncs", syncs as f64, "count", events);
    let groups = after.group_commits - before.group_commits;
    let grouped = after.group_commit_events - before.group_commit_events;
    put(
        m,
        "sharded.group_commit_coalescing",
        share(grouped, groups as usize),
        "ratio",
        groups as usize,
    );
    let frontier = &after.epoch_frontier;
    let mean = frontier.iter().sum::<u64>() as f64 / frontier.len() as f64;
    let spread = frontier.iter().max().unwrap_or(&0) - frontier.iter().min().unwrap_or(&0);
    put(
        m,
        "sharded.epoch_skew",
        spread as f64 / mean.max(1.0),
        "ratio",
        frontier.len(),
    );
}

/// The shadow decomposition's shares of the sampled ops.
fn shadow_metrics(m: &mut Metrics, rec: &Recorder) {
    for (root, prefix, unattributed) in [
        (
            "shadow.read",
            "shadow.read",
            "session.read_cold.unattributed_share",
        ),
        (
            "shadow.write",
            "shadow.write",
            "session.commit.unattributed_share",
        ),
    ] {
        let Some((shares, rest)) = shadow::shares(rec, root) else {
            continue;
        };
        let sampled = rec.spans().iter().filter(|s| s.name == root).count();
        for (layer, share) in shares {
            put(
                m,
                &format!("{prefix}.{layer}_share"),
                share,
                "ratio",
                sampled,
            );
        }
        put(m, unattributed, rest, "ratio", sampled);
    }
}

// ---------------------------------------------------------------------------
// analytic_cold
// ---------------------------------------------------------------------------

/// The statements an analyst session asks once, cold. The first one pays the
/// index build.
const COLD: [Stmt; 3] = [Stmt::Fanout, Stmt::JoinMax, Stmt::TopkY];
/// Re-displays of each answer per session (result-cache hits).
const COLD_FRESH: usize = 32;
/// Corrections filed per side at the desk after each cold answer.
const COLD_WRITES: usize = 4;

/// The sample class of one cold statement on one instance.
fn cold_class(stmt: &str, tag: &str) -> String {
    format!("cold.{stmt}.{tag}")
}

/// The tallies of an `analytic_cold` run, and the three things an analyst
/// does with a statement.
struct ColdRun {
    samples: Samples,
    tracing: Option<Tracing>,
    ops: u64,
    failed: u64,
    fresh_reads: usize,
    started: Instant,
    /// The reference kernel, run after every step of a pass.
    cal: Calibrator,
}

impl ColdRun {
    fn calibrate(&mut self) {
        self.cal.keep_up(self.started.elapsed().as_secs_f64());
    }

    /// Asks `stmt` for the first time in this session; returns the answer's
    /// digest.
    fn cold_read(&mut self, session: &Session, stmt: Stmt, tag: &str) -> u64 {
        let sql = stmt.sql();
        let t0 = Instant::now();
        let outcome = session.execute(&sql);
        let elapsed = t0.elapsed();
        self.samples.add("read_stale", elapsed);
        self.samples.add(&cold_class(stmt.name(), tag), elapsed);
        let mut digest = Digest::default();
        match &outcome {
            Ok(outcome) => oracle::digest_answer(&mut digest, stmt, outcome),
            Err(_) => self.failed += 1,
        }
        if let (Some(t), Ok(outcome)) = (self.tracing.as_mut(), &outcome) {
            let span = t.op_span("op.read", self.ops, elapsed);
            let path = ReadPath {
                prepared: true,
                patched: false,
            };
            let shadow = t.shadow.as_mut().expect("analytic_cold shadows");
            shadow.read(
                &mut t.rec,
                span,
                self.ops,
                session,
                &sql,
                path,
                &[],
                &outcome.rows,
            );
        }
        self.ops += 1;
        self.calibrate();
        digest.value()
    }

    /// Re-displays the answer [`COLD_FRESH`] times. A re-display is
    /// sub-microsecond, about what reading the clock costs, so the block is
    /// timed as a whole and enters as one sample: the time per read.
    fn redisplay(&mut self, session: &Session, stmt: Stmt) {
        let sql = stmt.sql();
        let t0 = Instant::now();
        for _ in 0..COLD_FRESH {
            self.failed += u64::from(session.execute(&sql).is_err());
        }
        self.samples
            .add("read_fresh", t0.elapsed() / COLD_FRESH as u32);
        self.ops += COLD_FRESH as u64;
        self.fresh_reads += COLD_FRESH;
    }

    /// Files [`COLD_WRITES`] single-fact corrections per side at the desk.
    /// They come in short bursts after every answer, spread over the whole
    /// run: commit latency on this machine wanders by a third over a second
    /// or two, and a median over a few long bursts wandered with it.
    fn correct(&mut self, session: &Session, generator: &mut OpGen) {
        for i in 0..2 * COLD_WRITES {
            let kind = if i % 2 == 0 {
                WriteKind::R
            } else {
                WriteKind::S
            };
            let Op::Write { events, .. } = generator.single_write(kind) else {
                unreachable!("single_write hands out writes")
            };
            let pre = self.tracing.as_ref().map(|_| session.snapshot());
            let t0 = Instant::now();
            let result = Target::write(session, &events);
            let elapsed = t0.elapsed();
            self.samples.add(
                if kind == WriteKind::R {
                    "write_r"
                } else {
                    "write_s"
                },
                elapsed,
            );
            self.failed += u64::from(!matches!(result, Ok(true)));
            // The first correction of each side in a burst is decomposed.
            if let (Some(t), Some(pre), true) = (self.tracing.as_mut(), pre, i < 2) {
                let span = t.op_span("op.write", self.ops, elapsed);
                let shadow = t.shadow.as_mut().expect("analytic_cold shadows");
                shadow.write(&mut t.rec, span, self.ops, &pre, &events);
            }
            self.ops += 1;
        }
        self.calibrate();
    }
}

/// One-shot answers on cold sessions: `core` does nearly all the work and
/// every session cache starts empty, so a core or kernel change shows here
/// and a caching change must show nothing in `ops_per_s` and
/// `read_stale_p50_ms`. A pass is one analyst session per instance
/// (inconsistency ratio 0.1, then 0.4 — the paper's axis): open the instance
/// cold, ask the wide statements once, ask the engine for the headline
/// GLB of grouped SUM (which SQL cannot ask for at this scale), re-display
/// each answer, file a few corrections, leave.
fn analytic_cold(p: &Params) -> Report {
    const NAME: &str = "analytic_cold";
    let mut metrics = Metrics::new();
    let mut checks = oracle::brute_force(p.seed);
    let mut cal = Calibrator::new();
    let heap_before = alloc::live();
    let catalog = model::catalog();

    let ((instances, desk), setup_s) = repeated(
        "set-up",
        SETUPS,
        &mut cal,
        || {
            let instances = [("r10", 0.1), ("r40", 0.4)]
                .map(|(tag, ratio)| (tag, Arc::new(model::instance(p.facts, ratio, p.seed))));
            // The desk: a session that stays open over the first instance and
            // takes the corrections while the analysts' sessions come and go.
            let desk = Session::with_instance(catalog.clone(), instances[0].1.clone());
            desk.execute(&COLD[0].sql())
                .expect("standing statement answers");
            (instances, desk)
        },
        drop,
    );
    put(&mut metrics, "setup_s", setup_s, "s", SETUPS);
    let facts: usize = instances.iter().map(|(_, db)| db.len()).sum();
    let live = alloc::live().saturating_sub(heap_before);
    put(
        &mut metrics,
        "mem_bytes_per_fact",
        live as f64 / facts as f64,
        "B",
        1,
    );

    let sum_query = parse_agg_query("(x, SUM(r)) <- R(x, y), S(y, z, r)").expect("fixed query");
    let glb_sum = RangeCqa::new(&sum_query, &catalog.schema()).expect("fixed query prepares");
    let mut generator = OpGen::new(
        Rng::new(p.seed).fork(1),
        Model::new(&instances[0].1),
        model::WRITES_ONLY,
    );

    let mut run = ColdRun {
        samples: Samples::default(),
        tracing: p.traced.then(|| Tracing {
            rec: Recorder::new(),
            shadow: Some(Shadow::new(catalog.clone(), None).expect("no scratch log to open")),
            dirty_log: Vec::new(),
        }),
        ops: 0,
        failed: 0,
        fresh_reads: 0,
        started: Instant::now(),
        cal: Calibrator::new(),
    };
    let mut first_pass: Vec<u64> = Vec::new();
    let mut ops_digest = Digest::default();
    let mut passes = 0u64;
    let mut stats = SessionStats::default();
    let desk_before = desk.stats();
    run.started = Instant::now();
    let started = run.started;
    while passes == 0
        || (started.elapsed().as_secs_f64() < p.seconds && p.max_ops.is_none_or(|n| passes < n))
    {
        let mut pass_answers: Vec<u64> = Vec::new();
        for (tag, db) in &instances {
            let session = Session::with_instance(catalog.clone(), db.clone());
            for stmt in COLD {
                pass_answers.push(run.cold_read(&session, stmt, tag));
                run.redisplay(&session, stmt);
                run.correct(&desk, &mut generator);
            }
            let t0 = Instant::now();
            let glb = glb_sum.glb(db);
            let elapsed = t0.elapsed();
            run.samples.add("read_stale", elapsed);
            run.samples.add(&cold_class("glb_sum", tag), elapsed);
            let mut digest = Digest::default();
            match &glb {
                Ok(rows) => digest.eat(format!("{rows:?}").as_bytes()),
                Err(_) => run.failed += 1,
            }
            pass_answers.push(digest.value());
            run.ops += 1;
            run.calibrate();
            run.correct(&desk, &mut generator);
            stats = stats.merge(session.stats());
        }
        if passes == 0 {
            first_pass = pass_answers;
        } else {
            checks.record(
                &format!("{NAME}: pass {passes} answers as pass 0 did"),
                pass_answers == first_pass,
            );
        }
        passes += 1;
    }
    let elapsed = started.elapsed().as_secs_f64();
    let peak = alloc::peak();
    let stats = stats.merge(stats_delta(desk.stats(), desk_before));
    ops_digest.eat(&generator.digest().to_le_bytes());
    let ColdRun {
        samples,
        tracing,
        ops,
        failed,
        fresh_reads,
        cal: phase_cal,
        ..
    } = run;
    checks.attempted += ops;
    checks.failed += failed;

    let elapsed = elapsed - phase_cal.spent;
    let speed = calib::speed(&phase_cal.bursts);
    let bursts = phase_cal.bursts.len();
    measured_phase_metrics(&mut metrics, ops, elapsed, speed, bursts);
    put(
        &mut metrics,
        "peak_bytes_per_fact",
        peak as f64 / facts as f64,
        "B",
        1,
    );
    samples.latency_metrics(&mut metrics, speed);
    for tag in ["r10", "r40"] {
        for stmt in ["fanout", "join_max", "topk_y", "glb_sum"] {
            let name = format!("session.cold_ms.{stmt}.{tag}");
            samples.put_median(
                &mut metrics,
                &name,
                &cold_class(stmt, tag),
                (1e3 * speed, "ms"),
            );
        }
    }
    let commits = samples.count("write_r") + samples.count("write_s");
    // The engine-level GLB-SUM answers bypass the session, so they are not
    // among the reads its counters can explain.
    let cold_reads = samples.count("read_stale")
        - samples.count("cold.glb_sum.r10")
        - samples.count("cold.glb_sum.r40");
    session_path_metrics(
        &mut metrics,
        &stats,
        cold_reads + fresh_reads,
        cold_reads,
        commits,
    );
    let sessions = passes * instances.len() as u64;
    put(
        &mut metrics,
        "session.index_builds",
        stats.index_builds as f64 / sessions as f64,
        "count",
        sessions as usize,
    );
    if let Some(t) = &tracing {
        shadow_metrics(&mut metrics, &t.rec);
    }

    // Restart: a cold session over the first instance until its first answer.
    let (tag, db) = &instances[0];
    let (session, restart_s) = repeated(
        "restart",
        RESTARTS,
        &mut cal,
        || {
            let s = Session::with_instance(catalog.clone(), db.clone());
            s.execute(&COLD[0].sql())
                .expect("standing statement answers");
            s
        },
        drop,
    );
    put(&mut metrics, "restart_s", restart_s, "s", RESTARTS);
    // `execute` against the engine called directly over an index of its own.
    let index = DbIndex::new(db);
    let mut answers = Digest::default();
    for stmt in [Stmt::Fanout, Stmt::JoinMax] {
        let q = parse_sql(&stmt.sql(), &catalog).expect("pool statement parses");
        let engine = &shadow::engines(&q, &catalog.schema(), session.options())[0];
        let direct = engine.range_with_index(db, &index);
        let served = session.execute(&stmt.sql());
        let ok = match (&direct, &served) {
            (Ok(direct), Ok(served)) => {
                oracle::digest_answer(&mut answers, stmt, served);
                direct[..] == served.rows[..]
            }
            _ => false,
        };
        checks.record(
            &format!(
                "{NAME}: execute({}) on {tag} equals range_with_index",
                stmt.name()
            ),
            ok,
        );
    }
    // The desk after all its corrections, against a cold session over its
    // final instance.
    let cold = Session::with_instance(catalog.clone(), desk.database());
    for stmt in [Stmt::Fanout, Stmt::Range] {
        let ok = match (desk.execute(&stmt.sql()), cold.execute(&stmt.sql())) {
            (Ok(warm), Ok(cold)) => {
                oracle::digest_answer(&mut answers, stmt, &warm);
                oracle::same_answer(&warm, &cold)
            }
            _ => false,
        };
        checks.record(
            &format!("{NAME}: the desk's {} equals a cold session's", stmt.name()),
            ok,
        );
    }

    let shadow_ns = tracing
        .as_ref()
        .and_then(|t| t.shadow.as_ref())
        .map_or(0, |s| s.spent_ns);
    Report {
        metrics,
        attempted: checks.attempted,
        failed: checks.failed,
        ops_digest: ops_digest.value(),
        answers_digest: answers.value(),
        stats,
        ops_per_s_sans_shadow: ops as f64 / (elapsed - shadow_ns as f64 / 1e9) / speed,
        recorder: tracing.map(|t| t.rec),
    }
}

/// Runs one workload by name.
pub fn run(name: &str, p: &Params) -> Option<Report> {
    std::fs::create_dir_all(&p.out_dir).expect("the out directory is writable");
    let name = NAMES.iter().copied().find(|n| *n == name)?;
    Some(match serving(name) {
        Some(cfg) => serve(name, cfg, p),
        None => analytic_cold(p),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(seed: u64, max_ops: u64) -> Params {
        Params {
            seed,
            seconds: 60.0,
            max_ops: Some(max_ops),
            facts: 3_000,
            traced: false,
            out_dir: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
        }
    }

    /// W1–W3 are single-client with a seeded op sequence: with a fixed op
    /// count, the path counters repeat exactly.
    #[test]
    fn same_seed_repeats_the_op_sequence_the_counters_and_the_answers() {
        for (name, ops) in [
            ("analytic_cold", 1),
            ("serve_read_heavy", 400),
            ("serve_write_heavy", 120),
        ] {
            let a = run(name, &params(21, ops)).unwrap();
            let b = run(name, &params(21, ops)).unwrap();
            let c = run(name, &params(22, ops)).unwrap();
            assert_eq!(a.failed, 0, "{name}");
            assert_eq!(a.ops_digest, b.ops_digest, "{name}");
            assert_eq!(a.stats, b.stats, "{name}");
            assert_eq!(a.answers_digest, b.answers_digest, "{name}");
            assert_eq!(a.attempted, b.attempted, "{name}");
            assert_ne!(a.ops_digest, c.ops_digest, "{name}");
        }
    }

    #[test]
    fn the_sharded_workload_answers_as_an_unsharded_cold_session() {
        let report = run("serve_sharded", &params(5, 300)).unwrap();
        assert_eq!(report.failed, 0);
        assert!(report.attempted >= 300);
        assert!(report.metrics["sharded.fanout_share"].value > 0.0);
        assert!(report.metrics["sharded.combine_share"].value > 0.0);
    }

    #[test]
    fn a_traced_run_attributes_sampled_ops_to_layers() {
        let mut p = params(8, 200);
        p.traced = true;
        for name in ["analytic_cold", "serve_read_heavy", "serve_write_heavy"] {
            let report = run(name, &p).unwrap();
            assert_eq!(report.failed, 0, "{name}");
            let rec = report
                .recorder
                .as_ref()
                .expect("a traced run keeps its spans");
            assert!(
                rec.spans().iter().any(|s| s.name == "shadow.read"),
                "{name}"
            );
            assert!(
                rec.spans().iter().any(|s| s.name == "shadow.write"),
                "{name}"
            );
            for metric in [
                "session.read_cold.unattributed_share",
                "session.commit.unattributed_share",
                "shadow.read.core.exec_share",
                "shadow.write.data.apply_share",
            ] {
                assert!(report.metrics.contains_key(metric), "{name}: no {metric}");
            }
        }
        let report = run("serve_write_heavy", &p).unwrap();
        assert!(report.metrics.contains_key("shadow.write.wal.sync_share"));
    }

    #[test]
    fn freshness_is_decided_by_acknowledged_commits() {
        let f = Freshness::default();
        let s = Stmt::Range;
        let seen = f.before(s);
        assert!(!f.after(s, seen), "never read before: stale");
        let seen = f.before(s);
        assert!(f.after(s, seen), "read before, no commit since: fresh");
        f.committed();
        let seen = f.before(s);
        assert!(!f.after(s, seen), "a commit since: stale");
        let seen = f.before(s);
        f.committed();
        assert!(!f.after(s, seen), "a commit while reading: stale");
    }
}
