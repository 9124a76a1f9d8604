//! A sharded serving front-end: N inner [`Session`] shards behind one
//! session-shaped API, with deterministic fan-out/merge reads and
//! group-commit batched writes.
//!
//! ## Partitioning rule
//!
//! Every fact is routed by a stable FNV-1a hash of its **level-0 block
//! key** — the relation name plus the fact's primary-key prefix
//! ([`Fact::key`]) — modulo the shard count. The block is the unit of repair
//! choice (a repair picks exactly one fact per block), so this rule keeps
//! each block, and with it each repair decision, entirely inside one shard:
//! shard-local repairs compose into exactly the global repairs and nothing
//! else. Every shard and the mirror opens over the catalog's schema on the
//! default numeric domain, as an unsharded [`Session::new`] does, so the
//! classification and the chosen plan are identical on every shard and on
//! the mirror.
//!
//! ## Read routing and the correctness argument
//!
//! A prepared statement carries the [`RowSupport`] of its rows (see
//! `rcqa_core::plan::exec`): instantiating the support's atom patterns with
//! a row's group key over-approximates every `(relation, block key)` pair
//! that row's evaluation may consult, and — the soundness property the
//! differential maintenance layer already relies on — **a row is a function
//! of its covered blocks alone**: births, deaths, and values are all
//! unchanged by edits to (or absence of) any uncovered block. Routes are
//! certificates over that support:
//!
//! * **Fan-out** — the support is a single atom whose key slots are all
//!   `Const` or `Group` (with at least one `Group`). Each row's instantiated
//!   pattern then names exactly one block, which the routing hash places on
//!   exactly one shard. Evaluating the statement on a shard equals
//!   evaluating it on the global instance with every other shard's blocks
//!   deleted — deletions that, by the support property, cannot affect any
//!   row whose block lives here, and cannot *produce* a row whose block
//!   lives elsewhere. Per-shard row sets are therefore disjoint, globally
//!   correct, and their union is the global raw row set. Which operator
//!   computes a bound never matters: the exact-enumeration fallback
//!   enumerates the repairs of the blocks its group's embeddings touch, so a
//!   single-atom `SUM` fans out like a single-atom `MAX`.
//!
//!   The **front-end owns the result**: the merged raw rows and their
//!   presentation, cached with the statement and stamped with the shard
//!   epochs they reflect — the only copy; shards never prepare, evaluate or
//!   cache a fan-out statement. A read at the same epochs is that cached
//!   answer. Since a group is a function of one shard's blocks, a group's
//!   change is visible in exactly one shard's dirty log, so a read at later
//!   epochs patches the merged result through the dirty logs of the shards
//!   that advanced — `affected_keys` over each such shard's index, reading
//!   that shard's dirty key ids (shards intern on their own, so ids never
//!   cross a shard; neither do the mirror's), those
//!   groups re-derived on that shard, spliced in place under the
//!   statement's lock by the same step ([`Session::try_patch`]) a single
//!   session patches with. Only a cold
//!   read or a patch miss evaluates every shard: raw rows are emitted in
//!   group-key **value order** (`sorted_groups` orders by
//!   `ValueInterner::cmp_id_tuples`, which is materialised [`Value`] order),
//!   so a k-way merge by `Vec<Value>` order reproduces the global row order
//!   byte-for-byte. Post-processing that is *per-row* (the HAVING
//!   trichotomy over each group's `[glb, lub]`) would be safe per shard,
//!   but certain top-k and ORDER BY/LIMIT compare rows **across** shards —
//!   so the front-end runs the statement's full post-processing
//!   ([`Session::post_process`], built on the `interval` primitives) over
//!   the merged rows, exactly as the unsharded session does.
//! * **Designated shard** — every key slot of the single support atom is
//!   `Const`: all blocks the statement can ever consult live on one
//!   computable shard, so that shard's answer *is* the global answer
//!   (again: all other shards' blocks are uncovered). Statements with a
//!   contradictory WHERE clause are answered statically and data-
//!   independently, so they are designated to shard 0.
//! * **Cross-shard combine** — everything else: joins (two or more support
//!   atoms: the same group key hashes to different shards under different
//!   relation names) and patterns with an `Any` slot (one row may consult
//!   blocks on several shards). These are
//!   answered **honestly, never silently wrong**, on the *mirror*: a full
//!   in-memory unsharded [`Session`] that the front-end keeps at the shards'
//!   union state by replaying every effective event. The mirror answer is
//!   the unsharded answer by definition.
//!
//! Merged outcomes are re-stamped with the front-end's global epoch (the
//! number of effective operations applied since open, which equals the sum
//! of the shard epochs) and with the number of shards consulted
//! ([`QueryOutcome::shards`]).
//!
//! ## Write path: group commit
//!
//! [`ShardedSession::insert`] / [`ShardedSession::delete`] enqueue the event
//! on its shard's commit coordinator and then contend for that shard's
//! leader lock. Whoever wins drains the whole queue, commits it through
//! [`Session::apply_batch`] — one snapshot publish and at most one WAL
//! append for every event that piled up while the previous commit was in
//! flight — and distributes per-event results to the waiting submitters.
//! Under a durable shard with [`SyncPolicy::Always`](crate::SyncPolicy::Always),
//! coalescing multiplies directly into fewer fsyncs: one per commit, not one
//! per event. Inserts are pre-validated individually
//! (schema and numeric domain are static), so one ill-typed event fails
//! alone without poisoning the batch it happened to share a leader with;
//! only a durability (I/O) failure fails a whole batch, and it fails every
//! submitter in it with the same error.
//!
//! [`ShardedSession::insert_all`] / [`ShardedSession::apply_batch`] span
//! shards: the batch is pre-validated in full (schema violations reject the
//! whole batch up front, matching the unsharded contract), split by routing,
//! and committed per shard under an exclusive *frontier* lock that readers
//! share — so no reader can pin a set of shard snapshots that contains one
//! slice of a cross-shard batch but not another. Each per-shard slice is
//! atomic on its shard and on its WAL; after a crash mid-batch, recovery is
//! honest about the remaining torn edge: a prefix of the per-shard slices
//! may be durable without the rest (per-shard WALs cannot promise more),
//! which the docs of [`ShardedSession::open`] spell out.
//!
//! ## Durability layout and recovery
//!
//! A durable front-end lays out `dir/SHARDS` (the shard count, refused on
//! mismatch — re-sharding a directory is not resharding the data) and one
//! WAL directory `dir/shard-NNN` per shard. [`ShardedSession::open`]
//! recovers every shard independently, **verifies the cross-shard frontier**
//! — every recovered fact must route to the shard that holds it — and
//! rebuilds the mirror from the recovered union.

use crate::{
    AtomicStats, CachedResult, Miss, PatchReasons, PatchSource, PreparedStatement, QueryOutcome,
    Session, SessionError, SessionStats, Snapshot, StatementResults, WalOptions,
};
use rcqa_core::engine::{EngineOptions, GroupRange};
use rcqa_core::plan::exec::run_shards;
use rcqa_core::SupportSlot;
use rcqa_data::{codec, DatabaseInstance, DeltaEvent, Fact, Value};
use rcqa_query::Catalog;
use rcqa_wal::WalError;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

fn lock<'a, T>(mutex: &'a Mutex<T>) -> MutexGuard<'a, T> {
    // Same poisoning stance as the session: every piece of guarded state is
    // rebuildable or monotonic, so a panicked holder cannot leave it torn.
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// The stable routing hash: FNV-1a over the relation name and the canonical
/// byte encoding ([`codec::encode_value`]) of each block-key value, with
/// separators so `("AB", ["C"])` and `("A", ["BC"])` cannot collide
/// structurally. Collisions only skew the *distribution* across shards,
/// never correctness — every fact of a block still lands on one shard.
fn shard_of(relation: &str, block_key: &[Value], shards: usize) -> usize {
    const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = BASIS;
    let mut eat = |byte: u8| {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(PRIME);
    };
    for byte in relation.bytes() {
        eat(byte);
    }
    eat(0xff);
    let mut buf = Vec::new();
    for value in block_key {
        buf.clear();
        codec::encode_value(value, &mut buf);
        for &byte in &buf {
            eat(byte);
        }
        eat(0xfe);
    }
    (hash % shards as u64) as usize
}

/// The read route certified by a statement's [`RowSupport`] — see the
/// module docs for why each route is answer-preserving.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Route {
    /// The front-end's merged result, patched through the shards' dirty
    /// logs (cold: evaluated on every shard and merged by group key).
    Fanout,
    /// Every block the statement can consult lives on this shard.
    Designated(usize),
    /// Evaluate on the synced mirror (support is not shard-local).
    Combine,
}

/// One waiting writer's slot in a group-commit batch.
struct Ticket {
    done: Mutex<Option<Result<bool, SessionError>>>,
}

/// Per-shard commit coordinator: submitters enqueue, then race for the
/// leader lock; the winner drains and commits the whole queue. There is no
/// condition variable — followers block on the leader lock itself, and a
/// follower whose ticket was fulfilled by the previous leader returns
/// without committing anything (the previous leader fulfilled every drained
/// ticket *before* releasing the lock the follower just acquired).
#[derive(Default)]
struct Coordinator {
    queue: Mutex<Vec<(DeltaEvent, Arc<Ticket>)>>,
    leader: Mutex<()>,
}

/// Route and coalescing counters of the front-end itself (the per-shard
/// [`SessionStats`] live in the shards).
#[derive(Default)]
struct FrontStats {
    /// Fan-out result hits, patches, full recomputes and misses.
    fanout: AtomicStats,
    fanout_queries: AtomicU64,
    designated_queries: AtomicU64,
    combine_queries: AtomicU64,
    group_commits: AtomicU64,
    group_commit_events: AtomicU64,
    mirror_syncs: AtomicU64,
    mirror_events: AtomicU64,
}

/// A consistent cut across the front-end: one pinned snapshot per shard,
/// the mirror pinned at the matching union state, and the global epoch —
/// taken while the frontier and every shard's leader lock were held, so no
/// write was mid-commit anywhere.
struct Pinned {
    snaps: Vec<Arc<Snapshot>>,
    mirror: Arc<Snapshot>,
    epoch: u64,
}

/// Aggregated observability of a [`ShardedSession`]: per-shard counters,
/// their field-wise total, the mirror's counters, the per-shard epoch
/// frontier, and the front-end's own route/coalescing counters.
#[derive(Clone, Debug)]
pub struct ShardedStats {
    /// Each shard's serving-layer counters, in shard order.
    pub shards: Vec<SessionStats>,
    /// The front-end's fan-out results: `result_hits`, `supported_patches`
    /// (with `partial_recomputes`), `full_recomputes`, `support_misses` and
    /// `topk_fallbacks`. One fan-out read counts once here; the shards never
    /// see it.
    pub fanout: SessionStats,
    /// Field-wise sum of `shards` and `fanout` — patch/miss behaviour stays
    /// observable under sharding through the same fields as a single
    /// session.
    pub totals: SessionStats,
    /// The mirror session's counters (cross-shard combines evaluate here;
    /// its `deltas_applied` counts replayed events).
    pub mirror: SessionStats,
    /// Each shard's epoch (effective operations committed to it). The
    /// front-end epoch is the sum of this vector.
    pub epoch_frontier: Vec<u64>,
    /// Grouped statements fanned out across every shard and merged.
    pub fanout_queries: u64,
    /// Statements answered entirely by one designated shard.
    pub designated_queries: u64,
    /// Statements answered by the cross-shard combine (mirror) route.
    pub combine_queries: u64,
    /// Leader-drained batches that coalesced more than one concurrent
    /// writer into a single shard commit.
    pub group_commits: u64,
    /// Events carried by those coalesced batches.
    pub group_commit_events: u64,
    /// Mirror catch-up rounds that replayed at least one pending event.
    pub mirror_syncs: u64,
    /// Events replayed into the mirror by those rounds.
    pub mirror_events: u64,
}

/// A partitioned serving front-end over N inner [`Session`] shards.
///
/// The API mirrors [`Session`] — insert/delete/insert_all, prepare/execute/
/// execute_many/explain, stats/epoch/sync — and every answer is
/// **byte-identical** to the same statement on one unsharded session holding
/// the same facts (`tests/session_sharded.rs` asserts this property across
/// random interleavings, shard counts, thread counts, and crash recovery).
/// See the module docs (`sharded.rs`) for the routing rule, the per-route
/// correctness argument, and the group-commit write path.
pub struct ShardedSession {
    shards: Vec<Session>,
    coordinators: Vec<Coordinator>,
    /// A full in-memory unsharded session kept at the shards' union state:
    /// statements prepare here (preparation is data-independent — schema
    /// and numeric domain are fixed at construction and identical
    /// everywhere), a fan-out statement's merged result is cached with its
    /// statement here (and evicted with it), and cross-shard combine queries
    /// are answered here.
    mirror: Session,
    /// Effective events committed to shards but not yet replayed into the
    /// mirror. Pushed under the committing shard's leader lock (same-block
    /// events are therefore pushed in commit order; cross-shard events
    /// touch disjoint blocks and commute), drained under `mirror_sync`.
    mirror_pending: Mutex<Vec<DeltaEvent>>,
    /// Serialises mirror catch-up so concurrent readers replay the pending
    /// queue exactly once and in order.
    mirror_sync: Mutex<()>,
    /// Cross-shard write frontier: readers share it while pinning their
    /// per-shard snapshot set; a cross-shard batch holds it exclusively
    /// across all its per-shard commits, so no reader ever observes a torn
    /// slice of an atomic batch.
    frontier: RwLock<()>,
    /// Effective operations applied through this front-end (initialised to
    /// the sum of recovered shard epochs on open) — the global epoch every
    /// outcome is stamped with.
    ops_applied: AtomicU64,
    stats: FrontStats,
}

impl std::fmt::Debug for ShardedSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedSession")
            .field("shards", &self.shards.len())
            .field("epoch", &self.epoch())
            .field("frontier", &self.epoch_frontier())
            .finish()
    }
}

impl ShardedSession {
    /// Opens an in-memory front-end of `shards` empty shards over the
    /// catalog's schema.
    ///
    /// # Panics
    /// With zero shards (there is nowhere to route anything).
    pub fn new(catalog: Catalog, shards: usize) -> ShardedSession {
        assert!(shards > 0, "a sharded session needs at least one shard");
        let sessions = (0..shards).map(|_| Session::new(catalog.clone())).collect();
        let mirror = Session::new(catalog);
        ShardedSession::assemble(sessions, mirror, 0)
    }

    fn assemble(shards: Vec<Session>, mirror: Session, ops: u64) -> ShardedSession {
        let coordinators = (0..shards.len()).map(|_| Coordinator::default()).collect();
        ShardedSession {
            shards,
            coordinators,
            mirror,
            mirror_pending: Mutex::new(Vec::new()),
            mirror_sync: Mutex::new(()),
            frontier: RwLock::new(()),
            ops_applied: AtomicU64::new(ops),
            stats: FrontStats::default(),
        }
    }

    /// Opens a **durable** front-end over `dir` with default [`WalOptions`]:
    /// one write-ahead-log directory per shard (`dir/shard-NNN`) plus a
    /// `SHARDS` manifest pinning the shard count. Every shard is recovered
    /// independently, the cross-shard frontier is verified (each recovered
    /// fact must route to the shard holding it — a fact on the wrong shard
    /// means the directory was produced under a different layout and
    /// answers could silently drop it), and the mirror is rebuilt from the
    /// recovered union. Opening an existing directory with a different
    /// shard count is refused as [`SessionError::Wal`].
    ///
    /// Durability granularity is per shard: a single-shard commit is atomic
    /// on its WAL, and a crash between the per-shard slices of a
    /// cross-shard [`ShardedSession::insert_all`] can leave a durable
    /// prefix of those slices without the rest. Readers never observe that
    /// torn state live (the frontier lock excludes them); it is only
    /// reachable through crash recovery, and each surviving slice is still
    /// a valid per-shard state.
    pub fn open(
        catalog: Catalog,
        dir: impl AsRef<Path>,
        shards: usize,
    ) -> Result<ShardedSession, SessionError> {
        ShardedSession::open_with(catalog, dir, shards, WalOptions::default())
    }

    /// [`ShardedSession::open`] with explicit [`WalOptions`], applied to
    /// every shard's log (fsync policy and checkpoint cadence).
    pub fn open_with(
        catalog: Catalog,
        dir: impl AsRef<Path>,
        shards: usize,
        options: WalOptions,
    ) -> Result<ShardedSession, SessionError> {
        assert!(shards > 0, "a sharded session needs at least one shard");
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let manifest = dir.join("SHARDS");
        match std::fs::read_to_string(&manifest) {
            Ok(text) => {
                let recorded: usize = text.trim().parse().map_err(|_| {
                    SessionError::Wal(WalError::Corrupt {
                        file: "SHARDS".to_string(),
                        offset: 0,
                        detail: format!("unreadable shard count {text:?}"),
                    })
                })?;
                if recorded != shards {
                    return Err(SessionError::Wal(WalError::Corrupt {
                        file: "SHARDS".to_string(),
                        offset: 0,
                        detail: format!(
                            "directory is laid out for {recorded} shards, opened with \
                             {shards}; re-sharding requires migrating the data, not \
                             reinterpreting the logs"
                        ),
                    }));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                std::fs::write(&manifest, format!("{shards}\n"))?;
            }
            Err(e) => return Err(e.into()),
        }
        let sessions: Vec<Session> = (0..shards)
            .map(|i| {
                Session::open_with(catalog.clone(), dir.join(format!("shard-{i:03}")), options)
            })
            .collect::<Result<_, _>>()?;
        // Verify the cross-shard frontier: every recovered fact routes to
        // the shard that holds it. (Within each shard the WAL already
        // verified itself; this is the *cross*-shard invariant that makes
        // the recovered union a faithful re-partitioning.) The same pass
        // collects the facts for the mirror, rebuilt at the recovered union
        // by one bulk load.
        let recovered: Vec<_> = sessions.iter().map(Session::snapshot).collect();
        let mut facts = Vec::with_capacity(recovered.iter().map(|snap| snap.index.len()).sum());
        for (i, snap) in recovered.iter().enumerate() {
            for fact in snap.index.rows().map(|row| row.to_fact()) {
                let home = route_fact(&catalog, &fact, shards);
                if home != i {
                    return Err(SessionError::Wal(WalError::Corrupt {
                        file: format!("shard-{i:03}"),
                        offset: 0,
                        detail: format!(
                            "recovered fact {fact} routes to shard {home}, not {i}: the \
                             directory was written under a different routing layout"
                        ),
                    }));
                }
                facts.push(fact);
            }
        }
        // Shards hold disjoint facts (each fact lives only on its routed
        // shard, just verified), so every fact is new to the union.
        let mut union = DatabaseInstance::new(catalog.schema());
        let held = facts.len();
        let loaded = union.load(facts)?;
        debug_assert_eq!(loaded, held, "routed shards hold disjoint facts");
        let mirror = Session::with_instance(catalog, union);
        let ops = sessions.iter().map(|s| s.epoch()).sum();
        Ok(ShardedSession::assemble(sessions, mirror, ops))
    }

    /// Overrides the engine options on every shard and on the mirror —
    /// identical options everywhere keep per-shard plans identical to the
    /// global plan (the byte-identity argument needs nothing more than the
    /// support property, but identical plans keep `explain` honest too).
    pub fn with_options(mut self, options: EngineOptions) -> ShardedSession {
        self.shards = self
            .shards
            .into_iter()
            .map(|s| s.with_options(options))
            .collect();
        self.mirror = self.mirror.with_options(options);
        self
    }

    /// The number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The front-end's catalog.
    pub fn catalog(&self) -> &Catalog {
        self.mirror.catalog()
    }

    /// The global epoch: effective operations applied through this
    /// front-end since (or before, via recovery) it opened. Equals the sum
    /// of [`ShardedSession::epoch_frontier`] whenever no commit is in
    /// flight.
    pub fn epoch(&self) -> u64 {
        self.ops_applied.load(Ordering::Relaxed)
    }

    /// The per-shard epoch frontier: each shard's effective-operation
    /// count, in shard order.
    pub fn epoch_frontier(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.epoch()).collect()
    }

    /// Whether the shards persist commits to write-ahead logs.
    pub fn is_durable(&self) -> bool {
        self.shards.iter().any(|s| s.is_durable())
    }

    /// The per-shard durable frontier (each shard's last fsync-covered
    /// epoch), or `None` for an in-memory front-end.
    pub fn durable_frontier(&self) -> Option<Vec<u64>> {
        self.shards.iter().map(|s| s.durable_epoch()).collect()
    }

    /// Forces an fsync of every shard's write-ahead log.
    pub fn sync(&self) -> Result<(), SessionError> {
        for shard in &self.shards {
            shard.sync()?;
        }
        Ok(())
    }

    /// Aggregated counters: per shard, the fan-out results, their total, the
    /// mirror, the epoch frontier, and the front-end's route/coalescing
    /// counters.
    pub fn stats(&self) -> ShardedStats {
        let shards: Vec<SessionStats> = self.shards.iter().map(|s| s.stats()).collect();
        let fanout = self.stats.fanout.snapshot();
        let totals = shards.iter().fold(fanout, |acc, s| acc.merge(*s));
        ShardedStats {
            shards,
            fanout,
            totals,
            mirror: self.mirror.stats(),
            epoch_frontier: self.epoch_frontier(),
            fanout_queries: self.stats.fanout_queries.load(Ordering::Relaxed),
            designated_queries: self.stats.designated_queries.load(Ordering::Relaxed),
            combine_queries: self.stats.combine_queries.load(Ordering::Relaxed),
            group_commits: self.stats.group_commits.load(Ordering::Relaxed),
            group_commit_events: self.stats.group_commit_events.load(Ordering::Relaxed),
            mirror_syncs: self.stats.mirror_syncs.load(Ordering::Relaxed),
            mirror_events: self.stats.mirror_events.load(Ordering::Relaxed),
        }
    }

    /// Why stale results missed the patch path, summed over the shards, the
    /// fan-out results and the mirror (the `totals` and mirror
    /// [`SessionStats::support_misses`] of [`ShardedSession::stats`] add up
    /// to its total).
    pub fn patch_reasons(&self) -> PatchReasons {
        self.shards.iter().fold(
            self.mirror
                .patch_reasons()
                .merge(self.stats.fanout.patch_reasons()),
            |acc, shard| acc.merge(shard.patch_reasons()),
        )
    }

    /// The union instance across all shards, at a consistent cut.
    pub fn database(&self) -> Result<Arc<DatabaseInstance>, SessionError> {
        Ok(self.pin()?.mirror.db().clone())
    }

    /// The shard a fact routes to.
    pub fn shard_for(&self, fact: &Fact) -> usize {
        route_fact(self.catalog(), fact, self.shards.len())
    }

    // ------------------------------------------------------------------
    // Write path
    // ------------------------------------------------------------------

    /// Inserts one fact through its shard's group-commit coordinator.
    /// Returns `true` if the fact was new. Concurrent writers to the same
    /// shard coalesce into one commit (one snapshot publish, one WAL
    /// append) — see the module docs.
    pub fn insert(&self, fact: Fact) -> Result<bool, SessionError> {
        self.submit(DeltaEvent::insert(fact))
    }

    /// Deletes one fact through its shard's group-commit coordinator.
    /// Returns `true` if it was present.
    pub fn delete(&self, fact: &Fact) -> Result<bool, SessionError> {
        self.submit(DeltaEvent::delete(fact.clone()))
    }

    /// Inserts many facts as one cross-shard batch: the whole batch is
    /// validated up front (a schema violation rejects everything, matching
    /// [`Session::insert_all`]), then each shard's slice commits atomically
    /// under the exclusive frontier lock, so readers observe all slices or
    /// none.
    pub fn insert_all(&self, facts: impl IntoIterator<Item = Fact>) -> Result<(), SessionError> {
        let events: Vec<DeltaEvent> = facts.into_iter().map(DeltaEvent::insert).collect();
        self.apply_batch(&events).map(drop)
    }

    /// Applies a batch of change events across shards, returning one
    /// effectiveness flag per event in order. Validation is all-or-nothing;
    /// durability failures mid-batch are reported as errors after earlier
    /// shards' slices committed (per-shard WALs cannot promise cross-shard
    /// atomicity through a crash — see [`ShardedSession::open`]).
    pub fn apply_batch(&self, events: &[DeltaEvent]) -> Result<Vec<bool>, SessionError> {
        // Pre-validate the whole batch against the (static) schema and
        // numeric domain so rejection is atomic, before any shard commits.
        let schema = self.shards[0].snapshot();
        for event in events {
            schema.validate(event)?;
        }
        let mut slices: Vec<Vec<(usize, DeltaEvent)>> = vec![Vec::new(); self.shards.len()];
        for (position, event) in events.iter().enumerate() {
            slices[self.shard_for(&event.fact)].push((position, event.clone()));
        }
        let mut flags = vec![false; events.len()];
        let _frontier = self.frontier.write().unwrap_or_else(|e| e.into_inner());
        for (shard, slice) in slices.iter().enumerate() {
            if slice.is_empty() {
                continue;
            }
            // Leader lock per shard: group-commit leaders push their mirror
            // events under it, so holding it here keeps the pending queue's
            // same-block ordering intact.
            let _leader = lock(&self.coordinators[shard].leader);
            let shard_events: Vec<DeltaEvent> = slice.iter().map(|(_, e)| e.clone()).collect();
            let shard_flags = self.shards[shard].apply_batch(&shard_events)?;
            let mut pending = lock(&self.mirror_pending);
            let mut effective = 0;
            for ((position, event), flag) in slice.iter().zip(&shard_flags) {
                flags[*position] = *flag;
                if *flag {
                    pending.push(event.clone());
                    effective += 1;
                }
            }
            drop(pending);
            self.ops_applied.fetch_add(effective, Ordering::Relaxed);
        }
        Ok(flags)
    }

    /// Enqueues one event on its shard's coordinator and waits for a leader
    /// (possibly this caller) to commit it.
    fn submit(&self, event: DeltaEvent) -> Result<bool, SessionError> {
        let shard = self.shard_for(&event.fact);
        let ticket = Arc::new(Ticket {
            done: Mutex::new(None),
        });
        lock(&self.coordinators[shard].queue).push((event, ticket.clone()));
        let _leader = lock(&self.coordinators[shard].leader);
        // Fulfilled while we waited: the previous leader drained our event
        // and filled the ticket before releasing the lock we now hold.
        if let Some(result) = lock(&ticket.done).take() {
            return result;
        }
        // We are the leader; our event is still queued (an unfulfilled
        // ticket cannot have been drained — leaders fulfil every drained
        // ticket before releasing the lock).
        let batch = std::mem::take(&mut *lock(&self.coordinators[shard].queue));
        self.commit_group(shard, batch);
        let result = lock(&ticket.done)
            .take()
            .expect("the leader fulfilled every drained ticket, its own included");
        result
    }

    /// Commits one leader-drained batch to `shard` (leader lock held by the
    /// caller). Inserts are pre-validated individually so an ill-typed
    /// event fails its own submitter without failing the batch; only
    /// durability failures fan the same error out to every valid submitter.
    fn commit_group(&self, shard: usize, batch: Vec<(DeltaEvent, Arc<Ticket>)>) {
        let schema = self.shards[shard].snapshot();
        let mut valid: Vec<(DeltaEvent, Arc<Ticket>)> = Vec::with_capacity(batch.len());
        for (event, ticket) in batch {
            if let Err(error) = schema.validate(&event) {
                *lock(&ticket.done) = Some(Err(SessionError::Data(error)));
                continue;
            }
            valid.push((event, ticket));
        }
        if valid.is_empty() {
            return;
        }
        let events: Vec<DeltaEvent> = valid.iter().map(|(e, _)| e.clone()).collect();
        match self.shards[shard].apply_batch(&events) {
            Ok(shard_flags) => {
                let mut pending = lock(&self.mirror_pending);
                let mut effective = 0;
                for ((event, ticket), flag) in valid.iter().zip(&shard_flags) {
                    if *flag {
                        pending.push(event.clone());
                        effective += 1;
                    }
                    *lock(&ticket.done) = Some(Ok(*flag));
                }
                drop(pending);
                self.ops_applied.fetch_add(effective, Ordering::Relaxed);
                if events.len() > 1 {
                    bump(&self.stats.group_commits);
                    self.stats
                        .group_commit_events
                        .fetch_add(events.len() as u64, Ordering::Relaxed);
                }
            }
            Err(error) => {
                for (_, ticket) in &valid {
                    *lock(&ticket.done) = Some(Err(error.clone()));
                }
            }
        }
    }

    /// Replays every pending effective event into the mirror. Serialised so
    /// concurrent readers drain the queue exactly once, in push order.
    fn sync_mirror(&self) -> Result<(), SessionError> {
        let _sync = lock(&self.mirror_sync);
        let drained = std::mem::take(&mut *lock(&self.mirror_pending));
        if drained.is_empty() {
            return Ok(());
        }
        self.mirror.apply_batch(&drained)?;
        bump(&self.stats.mirror_syncs);
        self.stats
            .mirror_events
            .fetch_add(drained.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Takes a consistent cut: with the frontier shared and every shard's
    /// leader lock held, no write is between its shard commit and its
    /// mirror-pending push, so after draining the queue the mirror equals
    /// the union of the pinned shard snapshots exactly. Lock order is
    /// frontier → leaders (ascending) → mirror machinery, the same order
    /// [`ShardedSession::apply_batch`] uses — no cycles.
    fn pin(&self) -> Result<Pinned, SessionError> {
        let _frontier = self.frontier.read().unwrap_or_else(|e| e.into_inner());
        let _leaders: Vec<MutexGuard<'_, ()>> =
            self.coordinators.iter().map(|c| lock(&c.leader)).collect();
        self.sync_mirror()?;
        Ok(Pinned {
            snaps: self.shards.iter().map(|s| s.snapshot()).collect(),
            mirror: self.mirror.snapshot(),
            epoch: self.ops_applied.load(Ordering::Relaxed),
        })
    }

    // ------------------------------------------------------------------
    // Read path
    // ------------------------------------------------------------------

    /// Parses, classifies, and plans a SQL statement (on the mirror, whose
    /// schema and numeric domain — and therefore preparation — are
    /// identical to every shard's).
    pub fn prepare(&self, sql: &str) -> Result<Arc<PreparedStatement>, SessionError> {
        self.mirror.prepare(sql)
    }

    /// Executes a SQL aggregation query across the shards. The answer —
    /// rows, order, classification, HAVING statuses — is byte-identical to
    /// [`Session::execute`] on one unsharded session holding the same
    /// facts; [`QueryOutcome::shards`] reports how many shards the route
    /// consulted and [`QueryOutcome::epoch`] carries the front-end's global
    /// epoch.
    pub fn execute(&self, sql: &str) -> Result<QueryOutcome, SessionError> {
        let pinned = self.pin()?;
        self.execute_pinned(&pinned, sql)
    }

    /// Executes a batch of SQL queries against **one** consistent cut:
    /// outcomes are mutually consistent even while writers commit
    /// concurrently, whatever mix of routes the statements take.
    pub fn execute_many<S: AsRef<str>>(
        &self,
        sqls: impl IntoIterator<Item = S>,
    ) -> Result<Vec<QueryOutcome>, SessionError> {
        let pinned = self.pin()?;
        sqls.into_iter()
            .map(|sql| self.execute_pinned(&pinned, sql.as_ref()))
            .collect()
    }

    fn execute_pinned(&self, pinned: &Pinned, sql: &str) -> Result<QueryOutcome, SessionError> {
        let stmt = self.mirror.prepare(sql)?;
        match self.route(&stmt) {
            Route::Fanout => {
                bump(&self.stats.fanout_queries);
                self.execute_fanout(pinned, &stmt)
            }
            Route::Designated(shard) => {
                bump(&self.stats.designated_queries);
                let (shard_stmt, rows) =
                    self.shards[shard].fetch_result_at(&pinned.snaps[shard], stmt.sql())?;
                // `outcome` stamps `shards: 1` — exactly right here.
                Ok(Session::outcome(&shard_stmt, rows, pinned.epoch))
            }
            Route::Combine => {
                bump(&self.stats.combine_queries);
                let mut out = self.mirror.execute_at(&pinned.mirror, stmt.sql())?;
                out.epoch = pinned.epoch;
                out.shards = self.shards.len();
                Ok(out)
            }
        }
    }

    /// The fan-out read, answered from the one merged result the front-end
    /// caches with the statement, stamped with the shard epochs it reflects.
    /// At the pinned frontier it is served as it is; behind it, it is patched
    /// in place, under the statement's lock, through the dirty logs of the
    /// shards that advanced ([`Session::try_patch`] with one source per such
    /// shard). Only a cold read or a miss evaluates every shard.
    fn execute_fanout(
        &self,
        pinned: &Pinned,
        stmt: &PreparedStatement,
    ) -> Result<QueryOutcome, SessionError> {
        let epochs = || pinned.snaps.iter().map(|snap| snap.epoch());
        let results = self.mirror.results(stmt.sql());
        let mut results = Session::lock_results(&results);
        let evaluate = || self.evaluate_fanout(pinned, stmt);
        let rows = match &results.fanout {
            Some(cached) if results.frontier.iter().copied().eq(epochs()) => {
                bump(&self.stats.fanout.result_hits);
                cached.rows.clone()
            }
            // Pinned frontiers are ordered: a result ahead of the pin on some
            // shard comes from a later pin, is useless to this reader, and
            // stays in place for current ones.
            Some(_)
                if results
                    .frontier
                    .iter()
                    .zip(epochs())
                    .any(|(&cached, pin)| cached > pin) =>
            {
                drop(results);
                bump(&self.stats.fanout.full_recomputes);
                evaluate()?.rows
            }
            _ => {
                let StatementResults {
                    fanout, frontier, ..
                } = &mut *results;
                let sources = |_: &CachedResult| self.advanced(pinned, frontier);
                Session::refresh(
                    &self.stats.fanout,
                    stmt,
                    fanout,
                    sources,
                    pinned.epoch,
                    evaluate,
                )?;
                results.frontier = epochs().collect();
                results.fanout.as_ref().expect("refreshed").rows.clone()
            }
        };
        let mut out = Session::outcome(stmt, rows, pinned.epoch);
        out.shards = self.shards.len();
        Ok(out)
    }

    /// The shards that advanced from `from` to the pin (which is at or past
    /// `from` on every shard), as the patch sources of a fan-out result
    /// stamped `from`.
    fn advanced<'p>(&self, pinned: &'p Pinned, from: &[u64]) -> Result<Vec<PatchSource<'p>>, Miss> {
        self.shards
            .iter()
            .zip(&pinned.snaps)
            .zip(from)
            .filter(|((_, snap), &from)| snap.epoch() > from)
            .map(|((shard, snap), &from)| shard.patch_source(snap, from))
            .collect()
    }

    /// The cold fan-out: evaluate on every shard (in parallel per
    /// [`EngineOptions::threads`] conventions), k-way merge the disjoint
    /// per-aggregate raw rows by group key, and run the statement's global
    /// post-processing over the merged set.
    fn evaluate_fanout(
        &self,
        pinned: &Pinned,
        stmt: &PreparedStatement,
    ) -> Result<CachedResult, SessionError> {
        let shards: Vec<&Arc<Snapshot>> = pinned.snaps.iter().collect();
        let evaluate = |snap: &Arc<Snapshot>| Session::raw_rows(stmt, snap);
        let evaluated: Vec<_> = if self.mirror.options().resolve_threads() > 1 {
            run_shards(shards, evaluate)
        } else {
            shards.into_iter().map(evaluate).collect()
        };
        let parts = evaluated.into_iter().collect::<Result<Vec<_>, _>>()?;
        let raw: Box<[Arc<[GroupRange]>]> = (0..stmt.engines.len())
            .map(|agg| {
                let lists: Vec<&[GroupRange]> = parts.iter().map(|part| &*part[agg]).collect();
                merge_by_key(&lists)
            })
            .collect();
        let rows = Session::post_process(stmt, &raw);
        Ok(CachedResult {
            epoch: pinned.epoch,
            raw,
            rows,
        })
    }

    /// An `EXPLAIN`-style rendering: the chosen shard route, then the
    /// mirror's plan rendering at a consistent cut (the plan is identical to
    /// every shard's — same options, same schema, same domain — and the
    /// access path's block counts are those of the union of the shards).
    pub fn explain(&self, sql: &str) -> Result<String, SessionError> {
        let pinned = self.pin()?;
        let stmt = self.mirror.prepare(sql)?;
        let route = match self.route(&stmt) {
            Route::Fanout => format!(
                "route: fan-out across {} shards — the front-end's merged result is patched \
                 from the shards' dirty logs (per-shard raw rows merge by group key when cold); \
                 HAVING / ORDER BY / certain top-k re-decided globally over the merged set\n",
                self.shards.len()
            ),
            Route::Designated(shard) => format!(
                "route: designated shard {shard} — every block the statement can consult \
                 lives there\n"
            ),
            Route::Combine => format!(
                "route: cross-shard combine on the mirror ({} shards synced) — the \
                 statement's support is not shard-local\n",
                self.shards.len()
            ),
        };
        let plan = self.mirror.explain_at(&pinned.mirror, sql)?;
        Ok(format!("{route}{plan}"))
    }

    /// The read route certified by the statement's support — see the module
    /// docs for the per-route correctness argument.
    fn route(&self, stmt: &PreparedStatement) -> Route {
        if stmt.unsatisfiable {
            // Answered statically, identically on any shard.
            return Route::Designated(0);
        }
        let [atom] = stmt.support().atoms() else {
            // Joins: the same group key hashes to different shards under
            // different relation names, so no single shard sees every block
            // a row may consult.
            return Route::Combine;
        };
        let mut key = Vec::new();
        let mut grouped = false;
        for slot in &atom.key {
            match slot {
                // One row may consult blocks on several shards.
                SupportSlot::Any => return Route::Combine,
                SupportSlot::Const(value) => key.push(value.clone()),
                SupportSlot::Group(_) => grouped = true,
            }
        }
        if grouped {
            // A single atom, every slot Const or Group, at least one Group:
            // each row's blocks live on exactly one (row-determined) shard.
            Route::Fanout
        } else {
            Route::Designated(shard_of(&atom.relation, &key, self.shards.len()))
        }
    }
}

/// Routes a fact by its level-0 block key (relation + primary-key prefix).
fn route_fact(catalog: &Catalog, fact: &Fact, shards: usize) -> usize {
    // Facts are validated against the schema, whose relation names are the
    // catalog's — an unknown relation only reaches here through `delete` of
    // a never-insertable fact, which is a no-op on any shard.
    let key_len = catalog
        .table(fact.relation())
        .map(|t| t.key_len())
        .unwrap_or(0);
    let key = &fact.args()[..key_len.min(fact.args().len())];
    shard_of(fact.relation(), key, shards)
}

/// K-way merge of per-shard raw row lists. Each list is sorted by group-key
/// value order and the key sets are pairwise disjoint (each group's block
/// lives on one shard), so a plain smallest-head merge reproduces the
/// global sorted order with no tie to break.
fn merge_by_key(lists: &[&[GroupRange]]) -> Arc<[GroupRange]> {
    let mut cursors = vec![0usize; lists.len()];
    let total = lists.iter().map(|l| l.len()).sum();
    // A mapped range has a trusted length: one allocation, exactly sized.
    (0..total)
        .map(|_| {
            let mut best = None;
            for (i, list) in lists.iter().enumerate() {
                let Some(row) = list.get(cursors[i]) else {
                    continue;
                };
                best = match best {
                    Some((_, head)) if head <= &row.key => best,
                    _ => Some((i, &row.key)),
                };
            }
            let (i, _) = best.expect("fewer rows taken than the lists hold");
            cursors[i] += 1;
            lists[i][cursors[i] - 1].clone()
        })
        .collect()
}

// The whole point: one front-end shared across reader and writer threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ShardedSession>();
    assert_send_sync::<ShardedStats>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use rcqa_data::fact;
    use rcqa_query::TableDef;

    fn catalog() -> Catalog {
        Catalog::new()
            .with_table(TableDef::new("Dealers").key_column("Name").column("Town"))
            .with_table(
                TableDef::new("Stock")
                    .key_column("Product")
                    .key_column("Town")
                    .numeric_column("Qty"),
            )
    }

    fn seed(s: &ShardedSession) {
        s.insert_all([
            fact!("Dealers", "Smith", "Boston"),
            fact!("Dealers", "Smith", "New York"),
            fact!("Dealers", "Jones", "Chicago"),
            fact!("Stock", "Tesla X", "Boston", 35),
            fact!("Stock", "Tesla X", "Boston", 40),
            fact!("Stock", "Tesla Y", "New York", 95),
            fact!("Stock", "Tesla Z", "Chicago", 12),
        ])
        .unwrap();
    }

    fn reference() -> Session {
        let session = Session::new(catalog());
        session
            .insert_all([
                fact!("Dealers", "Smith", "Boston"),
                fact!("Dealers", "Smith", "New York"),
                fact!("Dealers", "Jones", "Chicago"),
                fact!("Stock", "Tesla X", "Boston", 35),
                fact!("Stock", "Tesla X", "Boston", 40),
                fact!("Stock", "Tesla Y", "New York", 95),
                fact!("Stock", "Tesla Z", "Chicago", 12),
            ])
            .unwrap();
        session
    }

    fn assert_same(sharded: &ShardedSession, reference: &Session, sql: &str) {
        let a = sharded.execute(sql).unwrap();
        let b = reference.execute(sql).unwrap();
        assert_eq!(a.rows, b.rows, "{sql}");
        assert_eq!(a.more_aggregates, b.more_aggregates, "{sql}");
        assert_eq!(a.having, b.having, "{sql}");
        assert_eq!(a.columns, b.columns, "{sql}");
        assert_eq!(a.epoch, b.epoch, "{sql}");
    }

    #[test]
    fn facts_partition_across_shards_and_epochs_sum() {
        let sharded = ShardedSession::new(catalog(), 4);
        seed(&sharded);
        let per_shard: usize = sharded.shards.iter().map(|s| s.database().len()).sum();
        assert_eq!(per_shard, 7);
        assert_eq!(sharded.epoch(), 7);
        assert_eq!(sharded.epoch_frontier().iter().sum::<u64>(), 7);
        for (i, shard) in sharded.shards.iter().enumerate() {
            for fact in shard.database().facts() {
                assert_eq!(sharded.shard_for(fact), i);
            }
        }
    }

    /// The mirror holds exactly the union of the shards' facts, and every
    /// route's answer is the mirror's own: a fan-out merged from the shards,
    /// a designated shard's, and the combine the mirror evaluates.
    #[test]
    fn shard_and_mirror_agree_on_facts_and_answers() {
        let sharded = ShardedSession::new(catalog(), 4);
        seed(&sharded);
        let mirror = sharded.database().unwrap();
        let mut union = DatabaseInstance::new(catalog().schema());
        for shard in &sharded.shards {
            union
                .load(shard.database().facts().cloned().collect())
                .unwrap();
        }
        assert_eq!(*mirror, union);
        assert_eq!(mirror.len(), 7);
        for sql in [
            "SELECT S.Product, S.Town, MAX(S.Qty) FROM Stock AS S GROUP BY S.Product, S.Town",
            "SELECT MAX(S.Qty) FROM Stock AS S WHERE S.Product = 'Tesla X' AND S.Town = 'Boston'",
            "SELECT D.Name, MAX(S.Qty) FROM Dealers AS D, Stock AS S \
             WHERE D.Town = S.Town GROUP BY D.Name",
        ] {
            let routed = sharded.execute(sql).unwrap();
            let direct = sharded.mirror.execute(sql).unwrap();
            assert_eq!(routed.rows, direct.rows, "{sql}");
            assert_eq!(routed.more_aggregates, direct.more_aggregates, "{sql}");
            assert_eq!(routed.having, direct.having, "{sql}");
        }
        let stats = sharded.stats();
        assert_eq!(
            (
                stats.fanout_queries,
                stats.designated_queries,
                stats.combine_queries
            ),
            (1, 1, 1)
        );
    }

    #[test]
    fn grouped_query_fans_out_and_matches_unsharded() {
        let sharded = ShardedSession::new(catalog(), 4);
        seed(&sharded);
        let reference = reference();
        // Grouping by the *full* block key: every group's blocks live on one
        // shard, so the statement fans out.
        assert_same(
            &sharded,
            &reference,
            "SELECT S.Product, S.Town, MAX(S.Qty) FROM Stock AS S \
             GROUP BY S.Product, S.Town",
        );
        assert_eq!(sharded.stats().fanout_queries, 1);
        // Grouping by a proper subset of the key leaves an `Any` slot in the
        // support (one group's blocks scatter across shards), which must
        // route to the honest combine — and still match.
        assert_same(
            &sharded,
            &reference,
            "SELECT S.Product, MAX(S.Qty) FROM Stock AS S GROUP BY S.Product",
        );
        assert_eq!(sharded.stats().fanout_queries, 1);
        assert_eq!(sharded.stats().combine_queries, 1);
    }

    #[test]
    fn fanout_reads_serve_the_front_end_result_and_patch_it() {
        let sharded = ShardedSession::new(catalog(), 4);
        seed(&sharded);
        let reference = reference();
        let sql = "SELECT S.Product, S.Town, MAX(S.Qty) FROM Stock AS S \
                   GROUP BY S.Product, S.Town";
        let first = sharded.execute(sql).unwrap();
        let first_rows = first.rows.to_vec();
        assert_eq!(sharded.stats().fanout.full_recomputes, 1);
        // No write in between: the cached result answers, and no shard is
        // asked anything.
        let shards = sharded.stats().shards;
        let again = sharded.execute(sql).unwrap();
        assert!(Arc::ptr_eq(&first.rows, &again.rows));
        let stats = sharded.stats();
        assert_eq!(stats.shards, shards);
        assert_eq!(stats.fanout.result_hits, 1);
        let key = Session::normalize_sql(sql);
        for shard in &sharded.shards {
            assert!(!shard.read_statements().contains_key(&key));
        }
        // A write to the other relation: the one shard that advanced reports
        // no affected group, so the result is restamped, not spliced.
        let dealer = fact!("Dealers", "Lopez", "Boston");
        sharded.insert(dealer.clone()).unwrap();
        reference.insert(dealer).unwrap();
        let restamped = sharded.execute(sql).unwrap();
        assert!(Arc::ptr_eq(&first.rows, &restamped.rows));
        assert_eq!(restamped.rows, reference.execute(sql).unwrap().rows);
        let stats = sharded.stats();
        assert_eq!(stats.fanout.supported_patches, 1);
        assert_eq!(stats.fanout.full_recomputes, 1);
        // A cross-shard batch into the statement's relation: every advanced
        // shard patches its own groups into the merged rows.
        let stock = [
            fact!("Stock", "Tesla X", "Boston", 50),
            fact!("Stock", "Tesla W", "Dover", 7),
            fact!("Stock", "Tesla Q", "Erie", 3),
        ];
        sharded.insert_all(stock.clone()).unwrap();
        reference.insert_all(stock).unwrap();
        let spliced = sharded.execute(sql).unwrap();
        assert!(!Arc::ptr_eq(&first.rows, &spliced.rows));
        assert_same(&sharded, &reference, sql);
        let stats = sharded.stats();
        assert_eq!(stats.fanout.supported_patches, 2);
        assert_eq!(stats.fanout.full_recomputes, 1);
        assert_eq!(stats.totals.supported_patches, 2);
        assert_eq!(sharded.patch_reasons().total(), 0);
        assert_eq!(spliced.epoch, sharded.epoch());
        // The outcome held across both patches still reads its rows.
        assert_eq!(first.rows.to_vec(), first_rows);

        // Held outcomes never change, whatever the patch: a value change
        // (the group set stays), a new group and a vanished group, each read
        // while every earlier outcome is still held, for a plain, a HAVING
        // and a top-k statement.
        let base = "SELECT S.Product, S.Town, MAX(S.Qty), MIN(S.Qty) FROM Stock AS S \
                    GROUP BY S.Product, S.Town";
        let statements = [
            base.to_string(),
            format!("{base} HAVING MAX(S.Qty) > 36"),
            format!("{base} ORDER BY MAX(S.Qty) DESC LIMIT 2"),
        ];
        let copied = |out: &QueryOutcome| {
            let more: Vec<Vec<GroupRange>> =
                out.more_aggregates.iter().map(|r| r.to_vec()).collect();
            (out.rows.to_vec(), more, out.having.to_vec())
        };
        let mut held = Vec::new();
        let mut read_and_hold = |sharded: &ShardedSession, reference: &Session| {
            for sql in &statements {
                assert_same(sharded, reference, sql);
                let outcome = sharded.execute(sql).unwrap();
                let copy = copied(&outcome);
                held.push((outcome, copy));
            }
            for (outcome, copy) in &held {
                assert_eq!(copied(outcome), *copy);
            }
        };
        let write = |event: DeltaEvent| {
            sharded.apply_batch(std::slice::from_ref(&event)).unwrap();
            reference.apply_batch(&[event]).unwrap();
        };
        let before = sharded.stats().fanout;
        read_and_hold(&sharded, &reference);
        write(DeltaEvent::insert(fact!("Stock", "Tesla Z", "Chicago", 37)));
        read_and_hold(&sharded, &reference);
        write(DeltaEvent::insert(fact!("Stock", "Tesla R", "Flint", 4)));
        read_and_hold(&sharded, &reference);
        write(DeltaEvent::delete(fact!(
            "Stock", "Tesla Y", "New York", 95
        )));
        read_and_hold(&sharded, &reference);
        let stats = sharded.stats().fanout;
        assert_eq!(stats.full_recomputes - before.full_recomputes, 3);
        assert_eq!(stats.supported_patches - before.supported_patches, 9);
        // Every write changed the plain statement's rows.
        let plain: Vec<_> = held
            .iter()
            .step_by(statements.len())
            .map(|h| &h.1)
            .collect();
        assert!(plain.windows(2).all(|pair| pair[0] != pair[1]));

        // With no outcome held, a value change patches the cached rows where
        // they are.
        drop(held);
        let (rows, more, before) = {
            let out = sharded.execute(base).unwrap();
            (
                out.rows.as_ptr(),
                out.more_aggregates[0].as_ptr(),
                copied(&out),
            )
        };
        write(DeltaEvent::insert(fact!("Stock", "Tesla X", "Boston", 60)));
        assert_same(&sharded, &reference, base);
        let after = sharded.execute(base).unwrap();
        assert_ne!(copied(&after), before);
        assert_eq!(
            sharded.stats().fanout.supported_patches,
            stats.supported_patches + 1
        );
        assert_eq!(after.rows.as_ptr(), rows);
        assert_eq!(after.more_aggregates[0].as_ptr(), more);
    }

    #[test]
    fn join_routes_to_combine_and_matches_unsharded() {
        let sharded = ShardedSession::new(catalog(), 4);
        seed(&sharded);
        let reference = reference();
        assert_same(
            &sharded,
            &reference,
            "SELECT D.Name, SUM(S.Qty) FROM Dealers AS D, Stock AS S \
             WHERE D.Town = S.Town GROUP BY D.Name",
        );
        assert!(sharded.stats().combine_queries >= 1);
    }

    #[test]
    fn constant_key_query_routes_to_one_designated_shard() {
        let sharded = ShardedSession::new(catalog(), 4);
        seed(&sharded);
        let reference = reference();
        let sql = "SELECT MAX(S.Qty) FROM Stock AS S \
                   WHERE S.Product = 'Tesla X' AND S.Town = 'Boston'";
        let out = sharded.execute(sql).unwrap();
        let expect = reference.execute(sql).unwrap();
        assert_eq!(out.rows, expect.rows);
        assert_eq!(out.shards, 1);
        assert_eq!(sharded.stats().designated_queries, 1);
    }

    #[test]
    fn group_commit_coalesces_concurrent_writers() {
        let sharded = Arc::new(ShardedSession::new(catalog(), 1));
        let threads: Vec<_> = (0..8)
            .map(|i| {
                let front = sharded.clone();
                std::thread::spawn(move || {
                    front
                        .insert(fact!("Stock", format!("P{i}"), "Boston", i))
                        .unwrap()
                })
            })
            .collect();
        for t in threads {
            assert!(t.join().unwrap());
        }
        assert_eq!(sharded.epoch(), 8);
        let stats = sharded.stats();
        // Coalescing is timing-dependent, but every event must land in a
        // shard commit exactly once.
        assert_eq!(stats.epoch_frontier.iter().sum::<u64>(), 8);
        let out = sharded.execute("SELECT COUNT(*) FROM Stock AS S").unwrap();
        assert_eq!(out.rows.len(), 1);
        assert_eq!(sharded.database().unwrap().len(), 8);
    }

    #[test]
    fn invalid_insert_fails_alone_and_batch_rejects_atomically() {
        let sharded = ShardedSession::new(catalog(), 2);
        // Single op: schema violation errors the caller, nothing commits.
        assert!(sharded.insert(fact!("Stock", "P", "Boston")).is_err());
        assert_eq!(sharded.epoch(), 0);
        // Cross-shard batch: one bad event rejects the whole batch.
        let err = sharded.insert_all([
            fact!("Stock", "P1", "Boston", 5),
            fact!("Nope", "X"),
            fact!("Stock", "P2", "Boston", 6),
        ]);
        assert!(err.is_err());
        assert_eq!(sharded.epoch(), 0);
        assert_eq!(sharded.database().unwrap().len(), 0);
    }

    #[test]
    fn unsatisfiable_where_designates_shard_zero() {
        let sharded = ShardedSession::new(catalog(), 4);
        seed(&sharded);
        let reference = reference();
        let sql = "SELECT MAX(S.Qty) FROM Stock AS S WHERE S.Qty = 5 AND S.Qty < 3";
        assert_same(&sharded, &reference, sql);
        assert_eq!(sharded.stats().designated_queries, 1);
    }

    #[test]
    fn explain_names_the_route() {
        let sharded = ShardedSession::new(catalog(), 4);
        seed(&sharded);
        let fanout = sharded
            .explain(
                "SELECT S.Product, S.Town, MAX(S.Qty) FROM Stock AS S \
                 GROUP BY S.Product, S.Town",
            )
            .unwrap();
        assert!(
            fanout.starts_with("route: fan-out across 4 shards"),
            "{fanout}"
        );
        let combine = sharded
            .explain(
                "SELECT D.Name, SUM(S.Qty) FROM Dealers AS D, Stock AS S \
                 WHERE D.Town = S.Town GROUP BY D.Name",
            )
            .unwrap();
        assert!(
            combine.starts_with("route: cross-shard combine"),
            "{combine}"
        );
    }
}
