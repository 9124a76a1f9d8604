//! # rcqa-gen
//!
//! Synthetic inconsistent-database generators for the experiments. The paper
//! has no evaluation section of its own, so the benchmark workloads follow the
//! style of the systems it cites (ConQuer, AggCAvSAT): foreign-key style joins
//! over relations whose primary keys are violated in a controlled fraction of
//! blocks.

#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use rcqa_data::{DatabaseInstance, Fact, Schema, Signature, Value};
use rcqa_query::{parse_agg_query, AggQuery};

/// Configuration of the two-relation join workload
/// `SUM(r) <- R(x, y), S(y, z, r)` (the shape of the paper's running example,
/// Fig. 3, with a *partial* key join that Cforest does not support).
#[derive(Clone, Copy, Debug)]
pub struct JoinWorkload {
    /// Number of `R`-blocks (distinct `x` values).
    pub r_blocks: usize,
    /// Number of distinct `y` values that `R` tuples point to.
    pub y_domain: usize,
    /// Number of `S`-blocks per `y` value (distinct `z` values).
    pub s_blocks_per_y: usize,
    /// Fraction of blocks (in both relations) that violate their primary key.
    pub inconsistency_ratio: f64,
    /// Number of facts in an inconsistent block.
    pub block_size: usize,
    /// Values in the numeric column are drawn uniformly from `0..=max_value`.
    pub max_value: i64,
    /// RNG seed (the generator is fully deterministic given the seed).
    pub seed: u64,
}

impl Default for JoinWorkload {
    fn default() -> Self {
        JoinWorkload {
            r_blocks: 100,
            y_domain: 50,
            s_blocks_per_y: 2,
            inconsistency_ratio: 0.1,
            block_size: 2,
            max_value: 100,
            seed: 42,
        }
    }
}

impl JoinWorkload {
    /// The schema of the workload: `R(x, y)` with key `x`, `S(y, z, r)` with
    /// key `(y, z)` and numeric `r`.
    pub fn schema(&self) -> Schema {
        Schema::new()
            .with_relation("R", Signature::new(2, 1, []).unwrap())
            .with_relation("S", Signature::new(3, 2, [2]).unwrap())
    }

    /// The closed SUM query over the workload.
    pub fn sum_query(&self) -> AggQuery {
        parse_agg_query("SUM(r) <- R(x, y), S(y, z, r)").expect("fixed query parses")
    }

    /// The grouped variant of the workload query (GROUP BY `x`).
    pub fn grouped_sum_query(&self) -> AggQuery {
        parse_agg_query("(x, SUM(r)) <- R(x, y), S(y, z, r)").expect("fixed query parses")
    }

    /// Generates the database instance.
    pub fn generate(&self) -> DatabaseInstance {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut db = DatabaseInstance::new(self.schema());
        let y_of = |i: usize| Value::text(format!("y{i}"));
        // R blocks.
        for i in 0..self.r_blocks {
            let key = Value::text(format!("x{i}"));
            let copies = if rng.gen_bool(self.inconsistency_ratio) {
                self.block_size.max(2)
            } else {
                1
            };
            let mut used = std::collections::BTreeSet::new();
            for _ in 0..copies {
                let mut y = rng.gen_range(0..self.y_domain.max(1));
                // Ensure distinct facts within the block.
                let mut guard = 0;
                while used.contains(&y) && guard < 10 {
                    y = rng.gen_range(0..self.y_domain.max(1));
                    guard += 1;
                }
                if used.insert(y) {
                    db.insert(Fact::new("R", [key.clone(), y_of(y)]))
                        .expect("generated fact conforms to schema");
                }
            }
        }
        // S blocks: every y value stocks something, so the query is certain.
        for y in 0..self.y_domain.max(1) {
            for z in 0..self.s_blocks_per_y.max(1) {
                let zkey = Value::text(format!("z{y}_{z}"));
                let copies = if rng.gen_bool(self.inconsistency_ratio) {
                    self.block_size.max(2)
                } else {
                    1
                };
                let mut used = std::collections::BTreeSet::new();
                for _ in 0..copies {
                    let r = rng.gen_range(0..=self.max_value.max(1));
                    if used.insert(r) {
                        db.insert(Fact::new("S", [y_of(y), zkey.clone(), Value::int(r)]))
                            .expect("generated fact conforms to schema");
                    }
                }
            }
        }
        db
    }
}

/// The Section 7.3 counterexample database: a Caggforest SUM query over a
/// numeric column that contains `−1`, on which Fuxman-style lower-bound
/// rewritings are unsound.
pub fn fuxman_counterexample() -> (DatabaseInstance, AggQuery) {
    let schema = Schema::new()
        .with_relation("S1", Signature::new(2, 1, []).unwrap())
        .with_relation("S2", Signature::new(2, 1, []).unwrap())
        .with_relation("T", Signature::new(3, 2, [2]).unwrap());
    let mut db = DatabaseInstance::new_unconstrained(schema);
    db.insert_all([
        // An uncertain selection: u's S1-block contains both c1 and d.
        Fact::new("S1", [Value::text("u"), Value::text("c1")]),
        Fact::new("S1", [Value::text("u"), Value::text("d")]),
        Fact::new("S2", [Value::text("v"), Value::text("c2")]),
        Fact::new("T", [Value::text("u"), Value::text("v"), Value::int(-1)]),
        // Guard facts that keep the query certain in every repair.
        Fact::new("S1", [Value::text("bot"), Value::text("c1")]),
        Fact::new("S2", [Value::text("bot"), Value::text("c2")]),
        Fact::new("T", [Value::text("bot"), Value::text("bot"), Value::int(0)]),
    ])
    .expect("counterexample facts conform to schema");
    let query = parse_agg_query("SUM(r) <- S1(x, 'c1'), S2(y, 'c2'), T(x, y, r)")
        .expect("fixed query parses");
    (db, query)
}

/// A star-schema workload in the shape of Lemma 7.3 / Theorem 7.9:
/// `SUM(r) <- S1(x, 'c1'), S2(y, 'c2'), T(x, y, r)` with a full-key fact table
/// `T` and two uncertain dimension tables.
#[derive(Clone, Copy, Debug)]
pub struct StarWorkload {
    /// Number of dimension keys in each of `S1` and `S2`.
    pub dimension_keys: usize,
    /// Fraction of dimension blocks that are inconsistent.
    pub inconsistency_ratio: f64,
    /// Number of fact-table rows.
    pub fact_rows: usize,
    /// Maximum numeric value.
    pub max_value: i64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for StarWorkload {
    fn default() -> Self {
        StarWorkload {
            dimension_keys: 20,
            inconsistency_ratio: 0.2,
            fact_rows: 100,
            max_value: 50,
            seed: 7,
        }
    }
}

impl StarWorkload {
    /// The schema of the workload.
    pub fn schema(&self) -> Schema {
        Schema::new()
            .with_relation("S1", Signature::new(2, 1, []).unwrap())
            .with_relation("S2", Signature::new(2, 1, []).unwrap())
            .with_relation("T", Signature::new(3, 2, [2]).unwrap())
    }

    /// The SUM query over the workload.
    pub fn sum_query(&self) -> AggQuery {
        parse_agg_query("SUM(r) <- S1(x, 'c1'), S2(y, 'c2'), T(x, y, r)")
            .expect("fixed query parses")
    }

    /// Generates the database instance.
    pub fn generate(&self) -> DatabaseInstance {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut db = DatabaseInstance::new(self.schema());
        for (rel, tag) in [("S1", "a"), ("S2", "b")] {
            for i in 0..self.dimension_keys.max(1) {
                let key = Value::text(format!("{tag}{i}"));
                let wanted = if rel == "S1" { "c1" } else { "c2" };
                db.insert(Fact::new(rel, [key.clone(), Value::text(wanted)]))
                    .expect("generated fact conforms to schema");
                if rng.gen_bool(self.inconsistency_ratio) {
                    db.insert(Fact::new(rel, [key, Value::text("other")]))
                        .expect("generated fact conforms to schema");
                }
            }
        }
        // A guard row keeps the query certain.
        db.insert(Fact::new("S1", [Value::text("bot"), Value::text("c1")]))
            .unwrap();
        db.insert(Fact::new("S2", [Value::text("bot"), Value::text("c2")]))
            .unwrap();
        db.insert(Fact::new(
            "T",
            [Value::text("bot"), Value::text("bot"), Value::int(0)],
        ))
        .unwrap();
        for _ in 0..self.fact_rows {
            let x = rng.gen_range(0..self.dimension_keys.max(1));
            let y = rng.gen_range(0..self.dimension_keys.max(1));
            let r = rng.gen_range(0..=self.max_value.max(1));
            db.insert(Fact::new(
                "T",
                [
                    Value::text(format!("a{x}")),
                    Value::text(format!("b{y}")),
                    Value::int(r),
                ],
            ))
            .expect("generated fact conforms to schema");
        }
        db
    }
}

/// A large, Zipf-skewed variant of the two-relation join workload: the
/// instance the repo's benchmark (`benchmark/`) runs on. The schema and
/// queries are those of [`JoinWorkload`] — `R(x, y)` key `x`,
/// `S(y, z, r)` key `(y, z)` — but the
/// instance is sized in total facts (10⁵–10⁶) rather than in blocks, and the
/// join fan-out is skewed: the number of `S`-blocks behind a `y` value falls
/// off as `max_fanout / rank^zipf_exponent`, and `R` tuples pick their `y` by
/// a log-uniform rank draw, so a few hot `y` values carry most of the join.
/// The hot spans are long, so the per-fact cost of the join's inner loop
/// dominates end-to-end time.
#[derive(Clone, Copy, Debug)]
pub struct ScaleWorkload {
    /// Approximate total fact budget (`R` and `S` together). The generator
    /// stops opening new blocks once the budget is reached, so the realised
    /// size tracks the target within one block.
    pub target_facts: usize,
    /// Zipf exponent of the fan-out skew (1.0 is classic Zipf; 0.0 uniform).
    pub zipf_exponent: f64,
    /// Fraction of blocks (in both relations) that violate their primary key.
    pub inconsistency_ratio: f64,
    /// Values in the numeric column are drawn uniformly from `0..=max_value`.
    pub max_value: i64,
    /// RNG seed (the generator is fully deterministic given the seed).
    pub seed: u64,
}

impl Default for ScaleWorkload {
    fn default() -> Self {
        ScaleWorkload {
            target_facts: 100_000,
            zipf_exponent: 1.0,
            inconsistency_ratio: 0.1,
            max_value: 100,
            seed: 23,
        }
    }
}

impl ScaleWorkload {
    /// The schema of the workload (same shape as [`JoinWorkload`]).
    pub fn schema(&self) -> Schema {
        Schema::new()
            .with_relation("R", Signature::new(2, 1, []).unwrap())
            .with_relation("S", Signature::new(3, 2, [2]).unwrap())
    }

    /// The grouped SUM query over the workload (GROUP BY `x`).
    pub fn grouped_sum_query(&self) -> AggQuery {
        parse_agg_query("(x, SUM(r)) <- R(x, y), S(y, z, r)").expect("fixed query parses")
    }

    /// Number of distinct `y` values: wide enough that the Zipf tail is
    /// mostly singleton blocks, narrow enough that hot heads repeat a lot.
    fn y_domain(&self) -> usize {
        (self.target_facts / 16).clamp(1, 1 << 20)
    }

    /// Zipf-like fan-out: `S`-blocks behind the `y` of the given rank.
    fn fanout(&self, rank: usize) -> usize {
        let max_fanout = 64.0;
        let f = max_fanout / ((rank + 1) as f64).powf(self.zipf_exponent);
        (f as usize).max(1)
    }

    /// Generates the database instance.
    pub fn generate(&self) -> DatabaseInstance {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut db = DatabaseInstance::new(self.schema());
        let y_of = |i: usize| Value::text(format!("y{i}"));
        let budget = self.target_facts.max(16);
        // Half the budget on `S`: walk the ranks, opening `fanout(rank)`
        // blocks per `y`, until the half-budget is spent.
        let s_budget = budget / 2;
        let mut s_facts = 0usize;
        let mut y_open = 0usize;
        'srel: for y in 0..self.y_domain() {
            y_open = y + 1;
            for z in 0..self.fanout(y) {
                let zkey = Value::text(format!("z{y}_{z}"));
                let copies = if rng.gen_bool(self.inconsistency_ratio) {
                    2
                } else {
                    1
                };
                let mut used = std::collections::BTreeSet::new();
                for _ in 0..copies {
                    let r = rng.gen_range(0..=self.max_value.max(1));
                    if used.insert(r) {
                        db.insert(Fact::new("S", [y_of(y), zkey.clone(), Value::int(r)]))
                            .expect("generated fact conforms to schema");
                        s_facts += 1;
                    }
                }
                if s_facts >= s_budget {
                    break 'srel;
                }
            }
        }
        // The other half on `R`: every tuple picks its `y` by a log-uniform
        // rank draw over the opened `y` values, so low ranks (hot, high
        // fan-out) are exponentially more popular — the R-side of the skew.
        let r_budget = budget - s_facts;
        let mut r_facts = 0usize;
        let mut block = 0usize;
        while r_facts < r_budget {
            let key = Value::text(format!("x{block}"));
            block += 1;
            let copies = if rng.gen_bool(self.inconsistency_ratio) {
                2
            } else {
                1
            };
            let mut used = std::collections::BTreeSet::new();
            for _ in 0..copies {
                // Unit draw with 53 mantissa bits (the rand shim's gen_range
                // only covers integer ranges).
                let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                let y = ((y_open as f64).powf(u) as usize - 1).min(y_open - 1);
                if used.insert(y) {
                    db.insert(Fact::new("R", [key.clone(), y_of(y)]))
                        .expect("generated fact conforms to schema");
                    r_facts += 1;
                }
            }
        }
        db
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_workload_is_deterministic_and_valid() {
        let cfg = JoinWorkload {
            r_blocks: 30,
            y_domain: 10,
            s_blocks_per_y: 2,
            inconsistency_ratio: 0.3,
            block_size: 2,
            max_value: 20,
            seed: 1,
        };
        let db1 = cfg.generate();
        let db2 = cfg.generate();
        assert_eq!(db1, db2);
        assert!(db1.len() >= 30 + 20);
        assert!(db1.inconsistent_block_count() > 0);
        // The query parses and validates against the schema.
        assert!(cfg.sum_query().validate(&cfg.schema()).is_ok());
        assert!(cfg.grouped_sum_query().validate(&cfg.schema()).is_ok());
    }

    #[test]
    fn zero_inconsistency_yields_consistent_database() {
        let cfg = JoinWorkload {
            inconsistency_ratio: 0.0,
            r_blocks: 20,
            ..Default::default()
        };
        let db = cfg.generate();
        assert!(db.is_consistent());
        assert_eq!(db.repair_count(), Some(1));
    }

    #[test]
    fn scale_workload_hits_budget_and_is_skewed() {
        let cfg = ScaleWorkload {
            target_facts: 4_000,
            ..Default::default()
        };
        let db1 = cfg.generate();
        let db2 = cfg.generate();
        assert_eq!(db1, db2, "generator must be deterministic");
        // The realised size tracks the budget within one block.
        assert!(db1.len() >= cfg.target_facts);
        assert!(db1.len() <= cfg.target_facts + 4);
        assert!(db1.inconsistent_block_count() > 0);
        assert!(cfg.grouped_sum_query().validate(&cfg.schema()).is_ok());
        // Skew: the hottest y value backs far more S-blocks than the median.
        let hot = db1
            .facts()
            .filter(|f| f.relation() == "S" && f.args()[0] == Value::text("y0"))
            .count();
        let cold = db1
            .facts()
            .filter(|f| f.relation() == "S" && f.args()[0] == Value::text("y40"))
            .count();
        assert!(
            hot >= 8 * cold.max(1),
            "expected Zipf head ({hot}) ≫ tail ({cold})"
        );
    }

    #[test]
    fn star_workload_and_counterexample() {
        let cfg = StarWorkload::default();
        let db = cfg.generate();
        assert!(cfg.sum_query().validate(&cfg.schema()).is_ok());
        assert!(db.len() > cfg.dimension_keys);

        let (db, q) = fuxman_counterexample();
        assert!(q.validate(db.schema()).is_ok());
        assert_eq!(db.len(), 7);
        assert_eq!(db.inconsistent_block_count(), 1);
        assert_eq!(db.repair_count(), Some(2));
    }
}
