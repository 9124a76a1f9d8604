//! Shadow decomposition: after a sampled op, and outside its span, the same
//! work is redone layer by layer through the crates' public functions on the
//! same pinned snapshot, one span per layer call. What the layer spans do not
//! explain of the op's own span is the session's self time
//! (`session.*.unattributed_share`). Spans inside the crates are a later
//! change, which must keep these names.

use crate::oracle::post_process;
use crate::trace::Recorder;
use rcqa_core::engine::{EngineOptions, GroupRange, RangeCqa};
use rcqa_core::index::{BlockRestriction, DbIndex, DirtyBlock};
use rcqa_core::RowSupport;
use rcqa_data::codec::encode_event;
use rcqa_data::{DatabaseInstance, DeltaEvent, NumericDomain, Schema, Value};
use rcqa_query::{normalize_sql, parse_sql, Catalog, SqlQuery};
use rcqa_session::{Session, Snapshot, SyncPolicy, WalOptions};
use rcqa_wal::{FsStorage, Wal};
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;

/// One engine per aggregate of the statement, as the session prepares them.
pub fn engines(q: &SqlQuery, schema: &Schema, options: EngineOptions) -> Vec<RangeCqa> {
    q.aggregates
        .iter()
        .map(|agg| {
            RangeCqa::new(agg, schema)
                .and_then(|e| e.with_predicates(q.predicates.clone()))
                .expect("pool statement prepares")
                .with_options(options)
        })
        .collect()
}

/// The statement's row support: the merge over its engines'.
pub fn support(engines: &[RangeCqa], domain: NumericDomain) -> RowSupport {
    engines
        .iter()
        .skip(1)
        .fold(engines[0].row_support(domain), |acc, e| {
            acc.merge(e.row_support(domain))
        })
}

/// The block restrictions the statement's comparison predicates push down:
/// a predicate on a variable at a key position of some body atom.
pub fn restrictions(q: &SqlQuery, schema: &Schema) -> Vec<BlockRestriction> {
    let mut out = Vec::new();
    for p in &q.predicates {
        'atoms: for atom in q.query.body.atoms() {
            let Some(sig) = schema.signature(atom.relation()) else {
                continue;
            };
            for (pos, term) in atom.terms().iter().enumerate().take(sig.key_len()) {
                if term.as_var() == Some(&p.var) {
                    out.push(BlockRestriction {
                        relation: atom.relation().to_string(),
                        pos,
                        op: p.op,
                        value: p.value.clone(),
                    });
                    break 'atoms;
                }
            }
        }
    }
    out
}

/// What the session did for a sampled read, read off `SessionStats` deltas.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadPath {
    /// The statement was not in the statement cache and was prepared.
    pub prepared: bool,
    /// The stale result was patched rather than recomputed in full.
    pub patched: bool,
}

pub struct Shadow {
    catalog: Catalog,
    schema: Schema,
    /// A scratch log for the write decomposition of a durable workload;
    /// `None` for in-memory workloads, whose commits never touch a log.
    scratch: Option<Wal>,
    /// Time spent decomposing, so the traced run can leave it out of its
    /// throughput.
    pub spent_ns: u64,
}

impl Shadow {
    /// `scratch_dir` is given for a durable workload: the write decomposition
    /// then appends to and syncs a log of its own there.
    pub fn new(catalog: Catalog, scratch_dir: Option<&Path>) -> std::io::Result<Shadow> {
        let scratch = match scratch_dir {
            Some(dir) => {
                let options = WalOptions {
                    sync: SyncPolicy::Never,
                    checkpoint_every: 0,
                    ..WalOptions::default()
                };
                let (wal, _) = Wal::open(Box::new(FsStorage::open(dir)?), options)
                    .map_err(|e| std::io::Error::other(e.to_string()))?;
                Some(wal)
            }
            None => None,
        };
        Ok(Shadow {
            schema: catalog.schema(),
            catalog,
            scratch,
            spent_ns: 0,
        })
    }

    /// The level-0 block a written fact belongs to.
    pub fn dirty_block(&self, event: &DeltaEvent) -> DirtyBlock {
        let sig = self
            .schema
            .signature(event.fact.relation())
            .expect("generated facts name schema relations");
        DirtyBlock {
            relation: event.fact.relation().to_string(),
            key: event.fact.key(sig).to_vec(),
        }
    }

    /// Decomposes a stale read. `dirty` are the blocks written since the
    /// statement was last read and `presented` the rows the op returned, from
    /// which the patch path's affected key set is rebuilt.
    #[allow(clippy::too_many_arguments)]
    pub fn read(
        &mut self,
        rec: &mut Recorder,
        op_span: u32,
        op: u64,
        session: &Session,
        sql: &str,
        path: ReadPath,
        dirty: &[DirtyBlock],
        presented: &[GroupRange],
    ) {
        let began = rec.now_ns();
        let root = rec.open("shadow.read", Some(op_span), op);
        let parent = Some(root);
        let (key, _) = rec.span("query.normalize", parent, op, || normalize_sql(sql));
        let catalog = &self.catalog;
        let schema = &self.schema;
        let domain = session.database().numeric_domain();
        // The session parses and prepares only on a statement-cache miss; on
        // a hit the decomposition prepares off the record.
        let (q, engines) = if path.prepared {
            let (q, _) = rec.span("query.parse", parent, op, || {
                parse_sql(&key, catalog).expect("pool statement parses")
            });
            let prepare = rec.open("core.prepare", parent, op);
            let engines = engines(&q, schema, session.options());
            let _ = engines[0].classification(domain);
            rec.span("core.plan", Some(prepare), op, || {
                engines[0].plan(domain, true, true)
            });
            let _ = support(&engines, domain);
            rec.close(prepare);
            (q, engines)
        } else {
            let q = parse_sql(&key, catalog).expect("pool statement parses");
            let engines = engines(&q, schema, session.options());
            (q, engines)
        };
        let (snapshot, _) = rec.span("session.pin", parent, op, || session.snapshot());
        let db: &DatabaseInstance = snapshot.db();
        let index: Arc<DbIndex> = match snapshot.index() {
            Some(index) => index.clone(),
            // Cannot happen after a read of this snapshot; rebuild off the
            // record rather than fail the trace.
            None => Arc::new(DbIndex::new(db)),
        };
        let pushed = restrictions(&q, schema);
        let view = if pushed.is_empty() {
            None
        } else {
            let (view, _) = rec.span("core.index.restrict", parent, op, || {
                index.restrict(&pushed, false).0
            });
            Some(view)
        };
        let over: &DbIndex = view.as_ref().unwrap_or(&index);
        let exec = rec.open("core.exec", parent, op);
        let per_agg: Vec<Vec<GroupRange>> = if path.patched {
            let stmt_support = support(&engines, domain);
            let (mut affected, _) = rec.span("core.exec.dirty_candidates", Some(exec), op, || {
                engines[0].dirty_candidate_keys(&index, dirty)
            });
            affected.extend(
                presented
                    .iter()
                    .filter(|row| {
                        dirty
                            .iter()
                            .any(|b| stmt_support.hits(&row.key, &b.relation, &b.key))
                    })
                    .map(|row| row.key.clone()),
            );
            let affected: BTreeSet<Vec<Value>> = affected;
            engines
                .iter()
                .map(|e| {
                    e.range_for_groups(db, &index, &affected)
                        .expect("pool statement evaluates")
                })
                .collect()
        } else {
            engines
                .iter()
                .map(|e| {
                    e.range_with_index(db, over)
                        .expect("pool statement evaluates")
                })
                .collect()
        };
        rec.close(exec);
        rec.span("core.interval", parent, op, || post_process(&q, &per_agg));
        rec.close(root);
        self.spent_ns += rec.now_ns() - began;
    }

    /// Decomposes a commit of `events` on top of the snapshot `pre` pinned
    /// just before it, on clones and (for a durable workload) a scratch log.
    pub fn write(
        &mut self,
        rec: &mut Recorder,
        op_span: u32,
        op: u64,
        pre: &Snapshot,
        events: &[DeltaEvent],
    ) {
        let began = rec.now_ns();
        let root = rec.open("shadow.write", Some(op_span), op);
        let parent = Some(root);
        rec.span("data.apply", parent, op, || {
            let mut db = (**pre.db()).clone();
            for e in events {
                db.apply(e.clone()).expect("generated facts conform");
            }
            db
        });
        if let Some(index) = pre.index() {
            rec.span("core.index.apply_delta", parent, op, || {
                let mut index = (**index).clone();
                index.apply_delta(events);
                index
            });
        }
        if let Some(wal) = self.scratch.as_mut() {
            let append = rec.open("wal.append", parent, op);
            rec.span("data.encode", Some(append), op, || {
                let mut buf = Vec::new();
                for e in events {
                    encode_event(e, &mut buf);
                }
                buf
            });
            let epoch = wal.last_epoch() + events.len() as u64;
            wal.append(epoch, events).expect("scratch log appends");
            rec.close(append);
            rec.span("wal.sync", parent, op, || {
                wal.sync().expect("scratch log syncs")
            });
        }
        rec.close(root);
        self.spent_ns += rec.now_ns() - began;
    }
}

/// Per sampled op class (`shadow.read` / `shadow.write`): the share of the op
/// spans' total time that each direct child layer covers, and the share no
/// layer call explains. By construction the shares and the unattributed share
/// sum to one.
pub fn shares(rec: &Recorder, root_name: &str) -> Option<(Vec<(&'static str, f64)>, f64)> {
    let spans = rec.spans();
    let mut op_total = 0u64;
    let mut by_layer: std::collections::BTreeMap<&'static str, u64> = Default::default();
    for (id, s) in spans.iter().enumerate() {
        if s.name != root_name {
            continue;
        }
        let op_span = s.parent.expect("a shadow root hangs off its op span");
        op_total += rec.get(op_span).duration_ns();
        for child in spans.iter().filter(|c| c.parent == Some(id as u32)) {
            *by_layer.entry(child.name).or_insert(0) += child.duration_ns();
        }
    }
    if op_total == 0 {
        return None;
    }
    let explained: u64 = by_layer.values().sum();
    let shares = by_layer
        .into_iter()
        .map(|(name, ns)| (name, ns as f64 / op_total as f64))
        .collect();
    Some((shares, 1.0 - explained as f64 / op_total as f64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model;

    #[test]
    fn layer_shares_and_the_unattributed_share_sum_to_one() {
        let mut rec = Recorder::new();
        let op = rec.push("op.read", None, 0, 0, 1000);
        let root = rec.push("shadow.read", Some(op), 0, 1000, 2000);
        rec.push("query.parse", Some(root), 0, 1000, 1100);
        let exec = rec.push("core.exec", Some(root), 0, 1100, 1700);
        // A grandchild is part of its parent layer, not a layer of its own.
        rec.push("core.exec.dirty_candidates", Some(exec), 0, 1100, 1300);
        let (shares, unattributed) = shares(&rec, "shadow.read").unwrap();
        assert_eq!(shares, vec![("core.exec", 0.6), ("query.parse", 0.1)]);
        assert!((shares.iter().map(|s| s.1).sum::<f64>() + unattributed - 1.0).abs() < 1e-12);
        assert!((unattributed - 0.3).abs() < 1e-12);
        assert!(super::shares(&rec, "shadow.write").is_none());
    }

    #[test]
    fn decompositions_record_every_layer_of_a_read_and_a_write() {
        let db = model::instance(2_000, 0.1, 4);
        let session = Session::with_instance(model::catalog(), db);
        let sql = model::Stmt::RangeHaving.sql();
        let outcome = session.execute(&sql).unwrap();
        let mut rec = Recorder::new();
        let mut shadow = Shadow::new(model::catalog(), None).unwrap();
        let op = rec.push("op.read", None, 0, 0, 1);
        let path = ReadPath {
            prepared: true,
            patched: false,
        };
        shadow.read(&mut rec, op, 0, &session, &sql, path, &[], &outcome.rows);
        let pre = session.snapshot();
        let event = DeltaEvent::insert(rcqa_data::Fact::new(
            "S",
            [Value::text("y1"), Value::text("zz"), Value::int(7)],
        ));
        let op = rec.push("op.write", None, 1, 0, 1);
        shadow.write(&mut rec, op, 1, &pre, std::slice::from_ref(&event));
        let dirty = [shadow.dirty_block(&event)];
        session.apply_batch(&[event]).unwrap();
        let outcome = session.execute(&sql).unwrap();
        let op = rec.push("op.read", None, 2, 0, 1);
        let path = ReadPath {
            prepared: false,
            patched: true,
        };
        shadow.read(&mut rec, op, 2, &session, &sql, path, &dirty, &outcome.rows);
        let names: BTreeSet<&str> = rec.spans().iter().map(|s| s.name).collect();
        for expected in [
            "query.normalize",
            "query.parse",
            "core.prepare",
            "core.plan",
            "session.pin",
            "core.index.restrict",
            "core.exec",
            "core.exec.dirty_candidates",
            "core.interval",
            "data.apply",
            "core.index.apply_delta",
        ] {
            assert!(names.contains(expected), "no {expected} span in {names:?}");
        }
        assert!(shadow.spent_ns > 0);
    }
}
