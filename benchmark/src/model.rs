//! The inputs every workload shares: the catalog, the generated instance, the
//! statement pool, and the seeded stream of reads and writes. Everything here
//! is a function of `--seed`; the program under measurement receives only the
//! generated inputs.

use crate::stats::{Digest, Rng};
use rcqa_data::{DatabaseInstance, DeltaEvent, Fact, Value};
use rcqa_gen::ScaleWorkload;
use rcqa_query::{Catalog, TableDef};
use std::collections::HashSet;

/// Values of `S.r` are drawn from `0..=MAX_VALUE`, as the generator does.
pub const MAX_VALUE: i64 = 100;
/// Distinct `point_join(k)` statements: 8× the default statement cache (256),
/// so preparation and LRU eviction are part of the read path.
pub const POINT_JOIN_KEYS: usize = 2000;
/// Distinct `point_block(k)` statements (the sharded designated route).
pub const POINT_BLOCK_KEYS: usize = 500;

/// `R(x | y)`, `S(y, z | r)` — the paper's two-atom join shape.
pub fn catalog() -> Catalog {
    Catalog::new()
        .with_table(TableDef::new("R").key_column("x").column("y"))
        .with_table(
            TableDef::new("S")
                .key_column("y")
                .key_column("z")
                .numeric_column("r"),
        )
}

/// The Zipf-skewed instance all workloads run on.
pub fn instance(facts: usize, inconsistency_ratio: f64, seed: u64) -> DatabaseInstance {
    ScaleWorkload {
        target_facts: facts,
        zipf_exponent: 1.0,
        inconsistency_ratio,
        max_value: MAX_VALUE,
        seed,
    }
    .generate()
}

/// A statement of the pool. MAX/MIN only: at this scale `execute` cannot
/// answer SUM/COUNT (LUB-SUM has no rewriting and the exact fallback's repair
/// budget is exceeded), and a statement that always fails would only add a
/// constant to the failure count.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Stmt {
    JoinMax,
    JoinMulti,
    Fanout,
    FanoutMin,
    FanoutY9,
    HavingY,
    TopkY,
    Range,
    RangeHaving,
    RangeTopk,
    RangeMulti,
    PointJoin(u32),
    PointBlock(u32),
}

/// The six standing statements of the serving workloads: the seek path plus
/// post-processing at a size where one recompute is tens of milliseconds, the
/// full-block-key GROUP BY, and a partial-key group with HAVING.
pub const STANDING: [Stmt; 6] = [
    Stmt::Range,
    Stmt::RangeHaving,
    Stmt::RangeTopk,
    Stmt::RangeMulti,
    Stmt::Fanout,
    Stmt::HavingY,
];

impl Stmt {
    /// One representative of every statement shape, for the brute-force
    /// oracle and the per-statement layer probes.
    pub fn shapes() -> Vec<Stmt> {
        vec![
            Stmt::JoinMax,
            Stmt::JoinMulti,
            Stmt::Fanout,
            Stmt::FanoutMin,
            Stmt::FanoutY9,
            Stmt::HavingY,
            Stmt::TopkY,
            Stmt::Range,
            Stmt::RangeHaving,
            Stmt::RangeTopk,
            Stmt::RangeMulti,
            Stmt::PointJoin(3),
            // `y0`/`z0_0` exists at every instance size, the oracle's included.
            Stmt::PointBlock(0),
        ]
    }

    pub fn name(&self) -> &'static str {
        match self {
            Stmt::JoinMax => "join_max",
            Stmt::JoinMulti => "join_multi",
            Stmt::Fanout => "fanout",
            Stmt::FanoutMin => "fanout_min",
            Stmt::FanoutY9 => "fanout_y9",
            Stmt::HavingY => "having_y",
            Stmt::TopkY => "topk_y",
            Stmt::Range => "range",
            Stmt::RangeHaving => "range_having",
            Stmt::RangeTopk => "range_topk",
            Stmt::RangeMulti => "range_multi",
            Stmt::PointJoin(_) => "point_join",
            Stmt::PointBlock(_) => "point_block",
        }
    }

    pub fn sql(&self) -> String {
        const JOIN: &str = "FROM R, S WHERE R.y = S.y";
        match self {
            Stmt::JoinMax => format!("SELECT R.x, MAX(S.r) {JOIN} GROUP BY R.x"),
            Stmt::JoinMulti => format!("SELECT R.x, MAX(S.r), MIN(S.r) {JOIN} GROUP BY R.x"),
            Stmt::Fanout => "SELECT S.y, S.z, MAX(S.r) FROM S GROUP BY S.y, S.z".into(),
            Stmt::FanoutMin => "SELECT S.y, S.z, MIN(S.r) FROM S GROUP BY S.y, S.z".into(),
            Stmt::FanoutY9 => {
                "SELECT S.y, S.z, MAX(S.r) FROM S WHERE S.y >= 'y9' GROUP BY S.y, S.z".into()
            }
            Stmt::HavingY => "SELECT S.y, MIN(S.r) FROM S GROUP BY S.y HAVING MIN(S.r) <= 5".into(),
            Stmt::TopkY => {
                "SELECT S.y, MAX(S.r) FROM S GROUP BY S.y ORDER BY MAX(S.r) DESC LIMIT 10".into()
            }
            Stmt::Range => format!("SELECT R.x, MAX(S.r) {JOIN} AND R.x >= 'x9' GROUP BY R.x"),
            Stmt::RangeHaving => format!(
                "SELECT R.x, MAX(S.r) {JOIN} AND R.x >= 'x9' GROUP BY R.x HAVING MAX(S.r) >= 50"
            ),
            Stmt::RangeTopk => format!(
                "SELECT R.x, MAX(S.r) {JOIN} AND R.x >= 'x9' GROUP BY R.x \
                 ORDER BY MAX(S.r) DESC LIMIT 10"
            ),
            Stmt::RangeMulti => {
                format!("SELECT R.x, MAX(S.r), MIN(S.r) {JOIN} AND R.x >= 'x9' GROUP BY R.x")
            }
            Stmt::PointJoin(k) => format!("SELECT MAX(S.r) {JOIN} AND R.x = 'x{k}'"),
            Stmt::PointBlock(k) => {
                format!("SELECT MAX(S.r) FROM S WHERE S.y = 'y{k}' AND S.z = 'z{k}_0'")
            }
        }
    }
}

/// Which relation a write lands in. The two sides differ by an order of
/// magnitude in commit cost and in what the next read does (patch vs full
/// recompute), so they are generated in equal shares and timed apart.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteKind {
    /// One fact of `R`, the level-0 atom (~84 k blocks).
    R,
    /// One fact of `S`, the probed atom.
    S,
    /// A multi-event `apply_batch`, both sides mixed.
    Batch,
}

#[derive(Clone, Debug)]
pub enum Op {
    Read(Stmt),
    Write {
        kind: WriteKind,
        events: Vec<DeltaEvent>,
    },
}

/// The generator's own picture of the live facts, so deletes name live facts
/// and inserts never repeat one. A client owns the blocks it writes to (see
/// [`Model::partition`]), so the picture stays exact under concurrency.
#[derive(Clone, Debug)]
pub struct Model {
    r: Vec<Fact>,
    s: Vec<Fact>,
    live: HashSet<Fact>,
    y_count: usize,
    /// This client's index and the number of clients: fresh block names are
    /// `<counter * clients + client>`, disjoint between clients.
    client: usize,
    clients: usize,
    next_block: usize,
}

impl Model {
    pub fn new(db: &DatabaseInstance) -> Model {
        let r: Vec<Fact> = db.facts_of("R").cloned().collect();
        let s: Vec<Fact> = db.facts_of("S").cloned().collect();
        let y_count = s
            .iter()
            .map(|f| f.arg(0))
            .collect::<HashSet<_>>()
            .len()
            .max(1);
        let live = r.iter().chain(s.iter()).cloned().collect();
        Model {
            next_block: r.len() + s.len(),
            r,
            s,
            live,
            y_count,
            client: 0,
            clients: 1,
        }
    }

    /// Splits the picture between `clients` concurrent writers by **block**:
    /// a client owns every fact of the blocks that hash to it, so no two
    /// clients write the same fact — a conflicting insert stays inside its
    /// block, and a fresh block name carries its client's index.
    pub fn partition(self, clients: usize) -> Vec<Model> {
        let owner = |fact: &Fact, key_len: usize| -> usize {
            let mut block = Digest::default();
            for v in &fact.args()[..key_len] {
                block.eat(v.to_string().as_bytes());
            }
            (block.value() % clients as u64) as usize
        };
        (0..clients)
            .map(|c| {
                let own = |facts: &[Fact], key_len: usize| -> Vec<Fact> {
                    facts
                        .iter()
                        .filter(|f| owner(f, key_len) == c)
                        .cloned()
                        .collect()
                };
                let (r, s) = (own(&self.r, 1), own(&self.s, 2));
                Model {
                    live: r.iter().chain(s.iter()).cloned().collect(),
                    r,
                    s,
                    y_count: self.y_count,
                    client: c,
                    clients,
                    next_block: self.next_block,
                }
            })
            .collect()
    }

    fn fresh_block(&mut self) -> usize {
        let id = self.next_block * self.clients + self.client;
        self.next_block += 1;
        id
    }

    /// One single-fact event of the given kind on the given side. Block choice
    /// is Zipf-skewed towards the hot head of the instance.
    pub fn event(&mut self, rng: &mut Rng, side: WriteKind, kind: EventKind) -> DeltaEvent {
        let on_r = side == WriteKind::R;
        let pool_len = if on_r { self.r.len() } else { self.s.len() };
        if kind == EventKind::Delete && pool_len > 1 {
            let i = rng.zipf(pool_len);
            let pool = if on_r { &mut self.r } else { &mut self.s };
            let fact = pool.swap_remove(i);
            self.live.remove(&fact);
            return DeltaEvent::delete(fact);
        }
        let y = |rng: &mut Rng, n: usize| Value::text(format!("y{}", rng.zipf(n)));
        // A conflicting insert can collide with a live fact; redraw then, and
        // fall back to a new block, which never collides.
        for attempt in 0..4 {
            let conflicting = kind == EventKind::Conflict && attempt < 3 && pool_len > 0;
            let fact = match (on_r, conflicting) {
                (true, true) => {
                    let base = &self.r[rng.zipf(pool_len)];
                    Fact::new("R", [base.arg(0).clone(), y(rng, self.y_count)])
                }
                (true, false) => {
                    let x = Value::text(format!("x{}", self.fresh_block()));
                    Fact::new("R", [x, y(rng, self.y_count)])
                }
                (false, true) => {
                    let base = &self.s[rng.zipf(pool_len)];
                    let r = Value::int(rng.below(MAX_VALUE as usize + 1) as i64);
                    Fact::new("S", [base.arg(0).clone(), base.arg(1).clone(), r])
                }
                (false, false) => {
                    let z = Value::text(format!("zn{}", self.fresh_block()));
                    let r = Value::int(rng.below(MAX_VALUE as usize + 1) as i64);
                    Fact::new("S", [y(rng, self.y_count), z, r])
                }
            };
            if self.live.insert(fact.clone()) {
                if on_r {
                    self.r.push(fact.clone());
                } else {
                    self.s.push(fact.clone());
                }
                return DeltaEvent::insert(fact);
            }
        }
        unreachable!("a fresh block name cannot collide with a live fact")
    }
}

/// What a single-fact event does: 30 % delete a live fact, 35 % open a new
/// block, 35 % add a conflicting fact to an existing block (raising
/// inconsistency, the paper's axis).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    Delete,
    NewBlock,
    Conflict,
}

const EVENT_KINDS: [(u32, EventKind); 3] = [
    (6, EventKind::Delete),
    (7, EventKind::NewBlock),
    (7, EventKind::Conflict),
];

/// Choices dealt like cards: every round of `Σ weight` draws holds choice `i`
/// exactly `weight[i]` times, in an order the seeded generator shuffles. The
/// mix of a run is then the stated one whatever the seed — only the order
/// varies — where independent draws made the share of, say, full recomputes
/// among a few hundred stale reads wander by a tenth from seed to seed.
#[derive(Clone, Debug)]
pub struct Deck<T: Copy> {
    choices: Vec<(u32, T)>,
    cards: Vec<T>,
}

impl<T: Copy> Deck<T> {
    pub fn new(choices: &[(u32, T)]) -> Deck<T> {
        assert!(choices.iter().any(|(w, _)| *w > 0), "an empty deck");
        Deck {
            choices: choices.to_vec(),
            cards: Vec::new(),
        }
    }

    pub fn uniform(choices: &[T]) -> Deck<T> {
        Deck::new(&choices.iter().map(|c| (1, *c)).collect::<Vec<_>>())
    }

    pub fn draw(&mut self, rng: &mut Rng) -> T {
        if self.cards.is_empty() {
            for (weight, choice) in &self.choices {
                self.cards.extend((0..*weight).map(|_| *choice));
            }
            for i in (1..self.cards.len()).rev() {
                self.cards.swap(i, rng.below(i + 1));
            }
        }
        self.cards.pop().expect("refilled above")
    }
}

/// One way of choosing a statement to read.
#[derive(Clone, Copy, Debug)]
pub enum Pick {
    /// Dealt from these statements in equal shares.
    From(&'static [Stmt]),
    /// `point_join(k)`, `k` Zipf-skewed.
    PointJoin,
    /// `point_block(k)`, `k` Zipf-skewed.
    PointBlock,
}

/// The traffic mix of one serving workload, as weights of decks.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    /// Writes and reads per round of ops.
    pub writes_reads: (u32, u32),
    /// Multi-event batches and single facts per round of writes.
    pub batches_singles: (u32, u32),
    pub batch_len: usize,
    /// Weighted ways of choosing the statement of a read.
    pub reads: &'static [(u32, Pick)],
}

/// `serve_read_heavy`: 60 % of reads come from a statement population larger
/// than the statement cache, the rest from the standing statements.
pub const READ_HEAVY_READS: &[(u32, Pick)] = &[(3, Pick::PointJoin), (2, Pick::From(&STANDING))];

/// `serve_write_heavy`: the standing statements only.
pub const WRITE_HEAVY_READS: &[(u32, Pick)] = &[(1, Pick::From(&STANDING))];

/// A mix of single-fact writes only (the `analytic_cold` desk, the probes).
pub const WRITES_ONLY: Mix = Mix {
    writes_reads: (1, 0),
    batches_singles: (0, 1),
    batch_len: 1,
    reads: WRITE_HEAVY_READS,
};

/// The route the sharded front-end takes for a statement, as the driver
/// intends it when choosing the statement.
pub fn sharded_route(stmt: Stmt) -> &'static str {
    match stmt {
        Stmt::Fanout | Stmt::FanoutMin | Stmt::FanoutY9 => "fanout",
        Stmt::PointBlock(_) => "designated",
        _ => "combine",
    }
}

/// `serve_sharded`: 40 % fan-out, 20 % designated shard, 40 % combine (three
/// quarters of it the range statements, a quarter `point_join(k)`).
pub const SHARDED_READS: &[(u32, Pick)] = &[
    (
        4,
        Pick::From(&[Stmt::Fanout, Stmt::FanoutMin, Stmt::FanoutY9]),
    ),
    (2, Pick::PointBlock),
    (
        3,
        Pick::From(&[Stmt::Range, Stmt::RangeHaving, Stmt::RangeTopk]),
    ),
    (1, Pick::PointJoin),
];

/// The standing statements of `serve_sharded`, for set-up and verification.
pub const SHARDED_STANDING: [Stmt; 8] = [
    Stmt::Fanout,
    Stmt::FanoutMin,
    Stmt::FanoutY9,
    Stmt::Range,
    Stmt::RangeHaving,
    Stmt::RangeTopk,
    Stmt::PointBlock(0),
    Stmt::PointJoin(0),
];

/// A seeded, endless stream of ops for one client. Every choice between
/// kinds of op is dealt from a [`Deck`]; keys and blocks are drawn.
#[derive(Clone, Debug)]
pub struct OpGen {
    rng: Rng,
    model: Model,
    batch_len: usize,
    is_write: Deck<bool>,
    is_batch: Deck<bool>,
    /// Sides of single-fact writes, and of the events inside batches.
    single_side: Deck<WriteKind>,
    batch_side: Deck<WriteKind>,
    /// Event kinds, dealt per side so that each side gets the stated mix.
    event_kind: [Deck<EventKind>; 2],
    read_pick: Deck<usize>,
    /// One deck per `Pick::From` of the mix, by its place in `picks`.
    read_from: Vec<Option<Deck<Stmt>>>,
    picks: &'static [(u32, Pick)],
    digest: Digest,
}

const SIDES: [WriteKind; 2] = [WriteKind::R, WriteKind::S];

impl OpGen {
    pub fn new(rng: Rng, model: Model, mix: Mix) -> OpGen {
        let weighted = |(yes, no): (u32, u32)| Deck::new(&[(yes, true), (no, false)]);
        let picks: Vec<(u32, usize)> = mix
            .reads
            .iter()
            .enumerate()
            .map(|(i, (weight, _))| (*weight, i))
            .collect();
        OpGen {
            rng,
            model,
            batch_len: mix.batch_len,
            is_write: weighted(mix.writes_reads),
            is_batch: weighted(mix.batches_singles),
            single_side: Deck::uniform(&SIDES),
            batch_side: Deck::uniform(&SIDES),
            event_kind: [Deck::new(&EVENT_KINDS), Deck::new(&EVENT_KINDS)],
            read_pick: Deck::new(&picks),
            read_from: mix
                .reads
                .iter()
                .map(|(_, pick)| match pick {
                    Pick::From(stmts) => Some(Deck::uniform(stmts)),
                    Pick::PointJoin | Pick::PointBlock => None,
                })
                .collect(),
            picks: mix.reads,
            digest: Digest::default(),
        }
    }

    pub fn next_op(&mut self) -> Op {
        let op = if self.is_write.draw(&mut self.rng) {
            self.write()
        } else {
            Op::Read(self.read())
        };
        self.digest.eat(format!("{op:?}").as_bytes());
        op
    }

    fn read(&mut self) -> Stmt {
        let i = self.read_pick.draw(&mut self.rng);
        match self.picks[i].1 {
            Pick::From(_) => self.read_from[i]
                .as_mut()
                .expect("a deck for every `From`")
                .draw(&mut self.rng),
            Pick::PointJoin => Stmt::PointJoin(self.rng.zipf(POINT_JOIN_KEYS) as u32),
            Pick::PointBlock => Stmt::PointBlock(self.rng.zipf(POINT_BLOCK_KEYS) as u32),
        }
    }

    fn event(&mut self, side: WriteKind) -> DeltaEvent {
        let kind = self.event_kind[usize::from(side == WriteKind::S)].draw(&mut self.rng);
        self.model.event(&mut self.rng, side, kind)
    }

    fn write(&mut self) -> Op {
        if self.is_batch.draw(&mut self.rng) {
            let events = (0..self.batch_len)
                .map(|_| {
                    let side = self.batch_side.draw(&mut self.rng);
                    self.event(side)
                })
                .collect();
            Op::Write {
                kind: WriteKind::Batch,
                events,
            }
        } else {
            let kind = self.single_side.draw(&mut self.rng);
            Op::Write {
                kind,
                events: vec![self.event(kind)],
            }
        }
    }

    /// One single-fact write on the given side, outside the mix (the
    /// `analytic_cold` corrections, the layer probes).
    pub fn single_write(&mut self, kind: WriteKind) -> Op {
        let op = Op::Write {
            kind,
            events: vec![self.event(kind)],
        };
        self.digest.eat(format!("{op:?}").as_bytes());
        op
    }

    /// Digest of every op handed out so far.
    pub fn digest(&self) -> u64 {
        self.digest.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIX: Mix = Mix {
        writes_reads: (1, 1),
        batches_singles: (1, 1),
        batch_len: 8,
        reads: READ_HEAVY_READS,
    };

    fn digest_of(seed: u64, ops: usize) -> u64 {
        let db = instance(2_000, 0.1, seed);
        let mut gen = OpGen::new(Rng::new(seed).fork(1), Model::new(&db), MIX);
        for _ in 0..ops {
            gen.next_op();
        }
        gen.digest()
    }

    #[test]
    fn same_seed_same_op_sequence_and_another_seed_another() {
        assert_eq!(digest_of(11, 300), digest_of(11, 300));
        assert_ne!(digest_of(11, 300), digest_of(12, 300));
    }

    #[test]
    fn every_generated_write_is_effective_on_the_instance() {
        let mut db = instance(2_000, 0.1, 5);
        let mut gen = OpGen::new(Rng::new(5), Model::new(&db), MIX);
        let (mut writes, mut deletes) = (0, 0);
        for _ in 0..600 {
            if let Op::Write { events, .. } = gen.next_op() {
                for e in events {
                    writes += 1;
                    deletes += usize::from(e.op == rcqa_data::DeltaOp::Delete);
                    assert!(
                        db.apply(e.clone()).expect("conforms to schema").is_some(),
                        "no-op event {e:?}"
                    );
                }
            }
        }
        assert!(writes > 500 && deletes * 5 > writes && deletes * 2 < writes);
    }

    #[test]
    fn partitioned_clients_never_write_the_same_fact_or_block() {
        let db = instance(2_000, 0.1, 5);
        let parts = Model::new(&db).partition(3);
        assert_eq!(
            parts.iter().map(|m| m.r.len() + m.s.len()).sum::<usize>(),
            db.len()
        );
        let mut fact_owner = std::collections::HashMap::new();
        let mut block_owner = std::collections::HashMap::new();
        for (c, model) in parts.into_iter().enumerate() {
            let mut gen = OpGen::new(Rng::new(9).fork(c as u64), model, MIX);
            for _ in 0..300 {
                if let Op::Write { events, .. } = gen.next_op() {
                    for e in events {
                        let key_len = if e.fact.relation() == "R" { 1 } else { 2 };
                        let block = (
                            e.fact.relation().to_string(),
                            e.fact.args()[..key_len].to_vec(),
                        );
                        assert_eq!(*block_owner.entry(block).or_insert(c), c, "{:?}", e.fact);
                        assert_eq!(*fact_owner.entry(e.fact.clone()).or_insert(c), c);
                    }
                }
            }
        }
    }

    #[test]
    fn a_deck_deals_the_stated_mix_exactly_in_a_seeded_order() {
        let deal = |seed| {
            let mut rng = Rng::new(seed);
            let mut deck = Deck::new(&[(1, 'w'), (19, 'r')]);
            (0..200).map(|_| deck.draw(&mut rng)).collect::<String>()
        };
        let dealt = deal(3);
        for round in dealt.as_bytes().chunks(20) {
            assert_eq!(round.iter().filter(|&&c| c == b'w').count(), 1);
        }
        assert_eq!(dealt, deal(3));
        assert_ne!(dealt, deal(4));
    }

    #[test]
    fn every_statement_shape_parses() {
        for stmt in Stmt::shapes() {
            rcqa_query::parse_sql(&stmt.sql(), &catalog())
                .unwrap_or_else(|e| panic!("{}: {e}", stmt.name()));
        }
    }
}
