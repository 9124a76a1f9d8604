//! Database instances, blocks, and repairs.
//!
//! A database instance is a finite set of facts. A *block* is a ⊆-maximal set
//! of facts of the same relation that agree on the primary key. A *repair*
//! picks exactly one fact from each block (equivalently: a ⊆-maximal
//! consistent subset). See Sections 1 and 3 of the paper.

use crate::chunked::ChunkedSeq;
use crate::delta::{DeltaEvent, DeltaOp};
use crate::error::DataError;
use crate::fact::Fact;
use crate::schema::{NumericDomain, RelName, Schema};
use crate::value::Value;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// A block: all facts of one relation that share a primary-key value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Block {
    /// The relation the block belongs to.
    pub relation: RelName,
    /// The shared key value.
    pub key: Vec<Value>,
    /// The facts in the block (at least one).
    pub facts: Vec<Fact>,
}

impl Block {
    /// Number of facts in the block.
    pub fn len(&self) -> usize {
        self.facts.len()
    }

    /// A block never has zero facts; provided for API completeness.
    pub fn is_empty(&self) -> bool {
        self.facts.is_empty()
    }

    /// Returns `true` if the block contains more than one fact (i.e. violates
    /// the primary key).
    pub fn is_inconsistent(&self) -> bool {
        self.facts.len() > 1
    }
}

/// An in-memory database instance: a schema plus a set of facts per relation.
///
/// This is the paper's database: the type the generator produces, the
/// reference oracles and the repair enumeration ([`RepairIter`]) read, the
/// tests compare states by, and a session may be opened over. The serving
/// path keeps none: a session's snapshots store their facts once, in the
/// engine's interned block index, which records the schema and numeric
/// domain itself. A bulk load into an empty session and recovery from a
/// checkpoint build that index straight from the facts (`DbIndex::from_facts`
/// in `rcqa-core`), and an instance is materialised from an index only when
/// asked for (`Snapshot::db` in `rcqa-session`).
///
/// Each relation's facts are one sorted [`ChunkedSeq`] behind an [`Arc`]:
/// cloning an instance is one pointer bump per relation, and a mutation
/// copies, for the relation it touches, the sequence's spine and the one
/// leaf the fact lands in. Every insert path ([`DatabaseInstance::insert`],
/// [`DatabaseInstance::load`], [`DatabaseInstance::apply`]) stores a fact
/// under the schema's own relation name ([`Schema::intern`]), and a fact's
/// arguments sit behind one [`Arc`] that every copy of the fact shares.
///
/// Equality and iteration never see leaf boundaries: `==` compares contents
/// (an instance grown fact by fact and one bulk-loaded hold the same facts
/// in differently cut leaves), and [`DatabaseInstance::facts`] /
/// [`DatabaseInstance::facts_of`] yield facts in sorted order.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct DatabaseInstance {
    schema: Schema,
    domain: NumericDomain,
    /// Facts per relation, sorted; no entry is ever empty.
    relations: BTreeMap<RelName, Arc<ChunkedSeq<Fact>>>,
}

/// Position of `fact` in its relation's sorted sequence, or where it would be
/// inserted. Within one relation fact order is argument order, so the
/// comparison skips the (equal) relation names.
fn find(facts: &ChunkedSeq<Fact>, fact: &Fact) -> Result<usize, usize> {
    facts.search_by(|f| f.args().cmp(fact.args()))
}

/// Inserts `fact` at its sorted position unless it is present, copying only
/// the leaf it lands in. Returns whether it was new.
fn insert_sorted(facts: &mut Arc<ChunkedSeq<Fact>>, fact: Fact) -> bool {
    match find(facts, &fact) {
        Ok(_) => false,
        Err(pos) => {
            Arc::make_mut(facts).insert(pos, fact);
            true
        }
    }
}

impl DatabaseInstance {
    /// Creates an empty instance over `schema` with numeric columns restricted
    /// to `Q≥0`.
    pub fn new(schema: Schema) -> DatabaseInstance {
        DatabaseInstance::with_domain(schema, NumericDomain::NonNegative)
    }

    /// Creates an empty instance whose numeric columns are unconstrained
    /// (Section 7.3 of the paper).
    pub fn new_unconstrained(schema: Schema) -> DatabaseInstance {
        DatabaseInstance::with_domain(schema, NumericDomain::Unconstrained)
    }

    /// Creates an empty instance over `schema` whose numeric columns range
    /// over `domain`.
    pub fn with_domain(schema: Schema, domain: NumericDomain) -> DatabaseInstance {
        DatabaseInstance {
            schema,
            domain,
            relations: BTreeMap::new(),
        }
    }

    /// The schema of the instance.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The numeric-domain mode of the instance.
    pub fn numeric_domain(&self) -> NumericDomain {
        self.domain
    }

    /// [`Schema::validate`] under the instance's numeric domain.
    pub fn validate(&self, fact: &Fact) -> Result<(), DataError> {
        self.schema.validate(fact, self.domain)
    }

    /// Inserts a fact, validating it against the schema.
    ///
    /// Returns `true` if the fact was not already present. A no-op insert (the
    /// fact is already there) leaves the relation's shared storage untouched.
    pub fn insert(&mut self, fact: Fact) -> Result<bool, DataError> {
        self.validate(&fact)?;
        Ok(self.insert_valid(fact))
    }

    /// Inserts a fact already known to conform to the schema, under the
    /// schema's own relation name.
    fn insert_valid(&mut self, fact: Fact) -> bool {
        let name = self
            .schema
            .intern(fact.relation())
            .expect("fact relation in schema");
        let set = self.relations.entry(name.clone()).or_default();
        insert_sorted(set, fact.with_relation_name(name))
    }

    /// Bulk-loads `facts` (validated against the schema; nothing is loaded if
    /// any fact fails). A relation that holds no facts yet is built directly
    /// from the sorted, deduplicated facts in exact-capacity leaves, and any
    /// other falls back to per-fact inserts.
    /// Returns how many facts were new, so a caller expecting no duplicates
    /// can compare it with the number it passed.
    pub fn load(&mut self, facts: Vec<Fact>) -> Result<usize, DataError> {
        let mut by_relation: BTreeMap<RelName, Vec<Fact>> = BTreeMap::new();
        for fact in facts {
            self.validate(&fact)?;
            let name = self
                .schema
                .intern(fact.relation())
                .expect("validated relation exists");
            by_relation
                .entry(name.clone())
                .or_default()
                .push(fact.with_relation_name(name));
        }
        let mut new = 0;
        for (name, mut facts) in by_relation {
            match self.relations.entry(name) {
                Entry::Occupied(mut set) => {
                    new += facts
                        .into_iter()
                        .map(|f| insert_sorted(set.get_mut(), f))
                        .filter(|&inserted| inserted)
                        .count();
                }
                Entry::Vacant(slot) => {
                    facts.sort_unstable();
                    facts.dedup();
                    new += facts.len();
                    slot.insert(Arc::new(ChunkedSeq::from_sorted(facts)));
                }
            }
        }
        Ok(new)
    }

    /// Inserts many facts.
    pub fn insert_all(&mut self, facts: impl IntoIterator<Item = Fact>) -> Result<(), DataError> {
        for f in facts {
            self.insert(f)?;
        }
        Ok(())
    }

    /// Applies one change event: inserts or deletes its fact. Returns the
    /// event back when the mutation was effective (the insert was new / the
    /// deleted fact was present), so callers maintaining derived structures
    /// can replay exactly the mutations that happened.
    pub fn apply(&mut self, event: DeltaEvent) -> Result<Option<DeltaEvent>, DataError> {
        let effective = match event.op {
            DeltaOp::Insert => self.insert(event.fact.clone())?,
            DeltaOp::Delete => self.remove(&event.fact),
        };
        Ok(effective.then_some(event))
    }

    /// Removes a fact. Returns `true` if it was present. Deleting the last
    /// fact of a relation removes the relation's (now empty) entry entirely,
    /// so an emptied-then-repopulated instance is indistinguishable — by
    /// `==`, iteration, and derived structures — from one built fresh. A
    /// no-op removal leaves the relation's shared storage untouched.
    pub fn remove(&mut self, fact: &Fact) -> bool {
        let Some(set) = self.relations.get_mut(fact.relation()) else {
            return false;
        };
        let Ok(pos) = find(set, fact) else {
            return false;
        };
        Arc::make_mut(set).remove(pos);
        if set.is_empty() {
            self.relations.remove(fact.relation());
        }
        true
    }

    /// Returns `true` if the fact is present.
    pub fn contains(&self, fact: &Fact) -> bool {
        self.relations
            .get(fact.relation())
            .is_some_and(|set| find(set, fact).is_ok())
    }

    /// The facts of relation `name` (empty iterator if none).
    pub fn facts_of(&self, name: &str) -> impl Iterator<Item = &Fact> {
        self.relations.get(name).into_iter().flat_map(|s| s.iter())
    }

    /// All facts of the instance.
    pub fn facts(&self) -> impl Iterator<Item = &Fact> + Clone {
        self.relations.values().flat_map(|s| s.iter())
    }

    /// Total number of facts.
    pub fn len(&self) -> usize {
        self.relations.values().map(|s| s.len()).sum()
    }

    /// Returns `true` if the instance has no facts.
    pub fn is_empty(&self) -> bool {
        self.relations.values().all(|s| s.is_empty())
    }

    /// The blocks of relation `name`.
    pub fn blocks_of(&self, name: &str) -> Vec<Block> {
        let Some(sig) = self.schema.signature(name) else {
            return Vec::new();
        };
        let Some(facts) = self.relations.get(name) else {
            return Vec::new();
        };
        // Facts are stored sorted and the key is an args prefix, so facts of
        // a block are contiguous: one linear run-scan groups them with a
        // single key allocation per block (no `BTreeMap<Vec<Value>, _>`
        // probing and re-cloning of every key).
        let rel = self.schema.intern(name).expect("relation in schema");
        let mut blocks: Vec<Block> = Vec::new();
        for f in facts.iter() {
            match blocks.last_mut() {
                Some(b) if b.key.as_slice() == f.key(sig) => b.facts.push(f.clone()),
                _ => blocks.push(Block {
                    relation: rel.clone(),
                    key: f.key(sig).to_vec(),
                    facts: vec![f.clone()],
                }),
            }
        }
        blocks
    }

    /// All blocks of the instance, grouped per relation, in relation-name
    /// order.
    pub fn blocks(&self) -> Vec<Block> {
        let names: Vec<RelName> = self.relations.keys().cloned().collect();
        names.iter().flat_map(|n| self.blocks_of(n)).collect()
    }

    /// Returns `true` if the instance satisfies all primary keys.
    pub fn is_consistent(&self) -> bool {
        self.blocks().iter().all(|b| !b.is_inconsistent())
    }

    /// Number of blocks that violate their primary key.
    pub fn inconsistent_block_count(&self) -> usize {
        self.blocks().iter().filter(|b| b.is_inconsistent()).count()
    }

    /// The number of repairs of the instance, i.e. the product of block sizes.
    ///
    /// Returns `None` on overflow (more than `u128::MAX` repairs).
    pub fn repair_count(&self) -> Option<u128> {
        let mut count: u128 = 1;
        for b in self.blocks() {
            count = count.checked_mul(b.len() as u128)?;
        }
        Some(count)
    }

    /// Iterates over all repairs of the instance.
    ///
    /// Each repair is itself a (consistent) [`DatabaseInstance`] over the same
    /// schema. The number of repairs is exponential in the number of
    /// inconsistent blocks; this iterator is intended for ground-truth
    /// baselines and tests on small instances.
    pub fn repairs(&self) -> RepairIter<'_> {
        RepairIter::new(self)
    }

    /// The active domain: every constant appearing in the instance.
    pub fn active_domain(&self) -> BTreeSet<Value> {
        self.facts()
            .flat_map(|f| f.args().iter().cloned())
            .collect()
    }

    /// Returns one (arbitrary, deterministic) repair: the first fact of each
    /// block in sorted order.
    pub fn any_repair(&self) -> DatabaseInstance {
        self.with_facts(self.blocks().into_iter().map(|b| b.facts[0].clone()))
    }

    fn with_facts(&self, facts: impl IntoIterator<Item = Fact>) -> DatabaseInstance {
        let mut r = DatabaseInstance::with_domain(self.schema.clone(), self.domain);
        for f in facts {
            r.insert_valid(f);
        }
        r
    }
}

impl fmt::Debug for DatabaseInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DatabaseInstance {{")?;
        for (name, facts) in &self.relations {
            writeln!(f, "  {name}: {} facts", facts.len())?;
            for fact in facts.iter() {
                writeln!(f, "    {fact}")?;
            }
        }
        write!(f, "}}")
    }
}

/// Iterator over all repairs of a database instance.
pub struct RepairIter<'a> {
    instance: &'a DatabaseInstance,
    blocks: Vec<Block>,
    /// Odometer over block choices; `None` once exhausted.
    indices: Option<Vec<usize>>,
}

impl<'a> RepairIter<'a> {
    fn new(instance: &'a DatabaseInstance) -> RepairIter<'a> {
        let blocks = instance.blocks();
        RepairIter {
            instance,
            indices: Some(vec![0; blocks.len()]),
            blocks,
        }
    }
}

impl Iterator for RepairIter<'_> {
    type Item = DatabaseInstance;

    fn next(&mut self) -> Option<Self::Item> {
        let indices = self.indices.as_mut()?;
        let facts: Vec<Fact> = self
            .blocks
            .iter()
            .zip(indices.iter())
            .map(|(b, &i)| b.facts[i].clone())
            .collect();
        // Advance the odometer.
        let mut pos = self.blocks.len();
        loop {
            if pos == 0 {
                self.indices = None;
                break;
            }
            pos -= 1;
            let idx = &mut self.indices.as_mut().unwrap()[pos];
            *idx += 1;
            if *idx < self.blocks[pos].len() {
                break;
            }
            self.indices.as_mut().unwrap()[pos] = 0;
        }
        Some(self.instance.with_facts(facts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fact;
    use crate::schema::Signature;

    fn stock_schema() -> Schema {
        Schema::new()
            .with_relation("Dealers", Signature::new(2, 1, []).unwrap())
            .with_relation("Stock", Signature::new(3, 2, [2]).unwrap())
    }

    /// The database instance of Fig. 1 in the paper.
    pub(crate) fn db_stock() -> DatabaseInstance {
        let mut db = DatabaseInstance::new(stock_schema());
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

    #[test]
    fn insertion_and_validation() {
        let mut db = DatabaseInstance::new(stock_schema());
        assert!(db.insert(fact!("Dealers", "Smith", "Boston")).unwrap());
        // duplicate insert
        assert!(!db.insert(fact!("Dealers", "Smith", "Boston")).unwrap());
        // wrong arity
        assert!(matches!(
            db.insert(fact!("Dealers", "Smith")),
            Err(DataError::ArityMismatch { .. })
        ));
        // unknown relation
        assert!(matches!(
            db.insert(fact!("Nope", "x")),
            Err(DataError::UnknownRelation(_))
        ));
        // non-numeric value in numeric column
        assert!(matches!(
            db.insert(fact!("Stock", "Tesla X", "Boston", "many")),
            Err(DataError::NonNumericValue { .. })
        ));
        // negative value rejected under Q>=0
        assert!(matches!(
            db.insert(fact!("Stock", "Tesla X", "Boston", -1)),
            Err(DataError::NegativeValue { .. })
        ));
        // negative value allowed when unconstrained
        let mut db2 = DatabaseInstance::new_unconstrained(stock_schema());
        assert!(db2.insert(fact!("Stock", "Tesla X", "Boston", -1)).is_ok());
    }

    #[test]
    fn blocks_of_fig1() {
        let db = db_stock();
        assert_eq!(db.len(), 8);
        let dealer_blocks = db.blocks_of("Dealers");
        assert_eq!(dealer_blocks.len(), 2);
        let stock_blocks = db.blocks_of("Stock");
        assert_eq!(stock_blocks.len(), 3);
        assert_eq!(db.blocks().len(), 5);
        assert!(!db.is_consistent());
        assert_eq!(db.inconsistent_block_count(), 3);
    }

    #[test]
    fn repairs_of_fig1() {
        let db = db_stock();
        assert_eq!(db.repair_count(), Some(8));
        let repairs: Vec<_> = db.repairs().collect();
        assert_eq!(repairs.len(), 8);
        for r in &repairs {
            assert!(r.is_consistent());
            assert_eq!(r.len(), 5);
            // Every repair is a subset of the original instance.
            assert!(r.facts().all(|f| db.contains(f)));
        }
        // All repairs are distinct.
        for i in 0..repairs.len() {
            for j in (i + 1)..repairs.len() {
                assert_ne!(repairs[i], repairs[j]);
            }
        }
    }

    #[test]
    fn consistent_instance_has_one_repair() {
        let mut db = DatabaseInstance::new(stock_schema());
        db.insert(fact!("Dealers", "Smith", "Boston")).unwrap();
        db.insert(fact!("Dealers", "James", "Boston")).unwrap();
        assert!(db.is_consistent());
        assert_eq!(db.repair_count(), Some(1));
        let repairs: Vec<_> = db.repairs().collect();
        assert_eq!(repairs.len(), 1);
        assert_eq!(repairs[0], db);
    }

    #[test]
    fn empty_instance() {
        let db = DatabaseInstance::new(stock_schema());
        assert!(db.is_empty());
        assert!(db.is_consistent());
        assert_eq!(db.repair_count(), Some(1));
        assert_eq!(db.repairs().count(), 1);
        assert!(db.active_domain().is_empty());
    }

    #[test]
    fn active_domain_and_any_repair() {
        let db = db_stock();
        let adom = db.active_domain();
        assert!(adom.contains(&Value::text("Boston")));
        assert!(adom.contains(&Value::int(96)));
        let r = db.any_repair();
        assert!(r.is_consistent());
        assert_eq!(r.len(), 5);
    }

    #[test]
    fn apply_reports_effective_mutations() {
        let mut db = db_stock();
        let f = fact!("Dealers", "Jones", "Chicago");
        // A fresh insert is effective; repeating it is not.
        assert!(db.apply(DeltaEvent::insert(f.clone())).unwrap().is_some());
        assert!(db.apply(DeltaEvent::insert(f.clone())).unwrap().is_none());
        assert!(db.contains(&f));
        // Deleting it is effective once.
        assert!(db.apply(DeltaEvent::delete(f.clone())).unwrap().is_some());
        assert!(db.apply(DeltaEvent::delete(f.clone())).unwrap().is_none());
        assert!(!db.contains(&f));
        // Inserts are still validated.
        assert!(db.apply(DeltaEvent::insert(fact!("Dealers", "x"))).is_err());
    }

    #[test]
    fn a_write_to_a_clone_leaves_the_original() {
        let db = db_stock();
        let mut clone = db.clone();
        clone.insert(fact!("Dealers", "Lopez", "Chicago")).unwrap();
        assert!(!db.contains(&fact!("Dealers", "Lopez", "Chicago")));
        // No-op mutations (duplicate insert, absent delete) report so and
        // change nothing.
        let mut noop = db.clone();
        assert!(!noop.insert(fact!("Dealers", "Smith", "Boston")).unwrap());
        assert!(!noop.remove(&fact!("Dealers", "Nobody", "Nowhere")));
        assert_eq!(noop, db);
    }

    #[test]
    fn bulk_loads_and_single_fact_writes_compare_by_content() {
        let schema = Schema::new().with_relation("R", Signature::new(2, 1, []).unwrap());
        let mut base = DatabaseInstance::new(schema.clone());
        let facts: Vec<Fact> = (0..5000).map(|i| fact!("R", 2 * i, i)).collect();
        assert_eq!(base.load(facts.clone()).unwrap(), 5000);
        let mut next = base.clone();
        assert!(next.insert(fact!("R", 4001, 0)).unwrap());
        let mut next = base.clone();
        assert!(next.remove(&fact!("R", 4000, 2000)));
        // No-op writes change nothing.
        let mut noop = base.clone();
        assert!(!noop.insert(fact!("R", 4000, 2000)).unwrap());
        assert!(!noop.remove(&fact!("R", 4001, 0)));
        assert_eq!(noop, base);
        // An instance grown fact by fact is cut into different leaves than
        // the bulk-loaded one, and still equal to it, in the same order.
        let mut grown = DatabaseInstance::new(schema);
        grown.insert_all(facts.iter().rev().cloned()).unwrap();
        assert_eq!(grown, base);
        assert!(grown.facts().eq(facts.iter()));
        assert_ne!(grown, next);
        // Bulk loads validate everything first and count only new facts.
        assert_eq!(
            grown
                .load(vec![fact!("R", 0, 0), fact!("R", 1, 1)])
                .unwrap(),
            1
        );
        assert!(grown.load(vec![fact!("R", 3, 3), fact!("R", "x")]).is_err());
        assert!(!grown.contains(&fact!("R", 3, 3)));
    }

    #[test]
    fn stored_facts_carry_the_schemas_relation_name() {
        let mut db = DatabaseInstance::new(stock_schema());
        db.insert(fact!("Dealers", "Smith", "Boston")).unwrap();
        db.load(vec![
            fact!("Dealers", "James", "Boston"),
            fact!("Stock", "Tesla X", "Boston", 35),
        ])
        .unwrap();
        // A relation that already holds facts loads fact by fact.
        db.load(vec![fact!("Stock", "Tesla Y", "Boston", 35)])
            .unwrap();
        db.apply(DeltaEvent::insert(fact!("Dealers", "Jones", "Chicago")))
            .unwrap();
        assert_eq!(db.len(), 5);
        for f in db.facts() {
            let name = db.schema().intern(f.relation()).unwrap();
            assert!(Arc::ptr_eq(f.relation_name(), &name), "{f}");
        }
        // A fact copied into a second instance shares its arguments with the
        // first: a copy of a fact is reference-count bumps.
        let f = db.facts_of("Stock").next().unwrap();
        let mut other = DatabaseInstance::new(db.schema().clone());
        other.insert(f.clone()).unwrap();
        let g = other.facts().next().unwrap();
        assert_eq!(g.args().as_ptr(), f.args().as_ptr());
    }

    #[test]
    fn emptied_relation_leaves_no_residue() {
        let mut db = DatabaseInstance::new(stock_schema());
        db.insert(fact!("Dealers", "Smith", "Boston")).unwrap();
        let fresh = DatabaseInstance::new(stock_schema());
        assert_ne!(db, fresh);
        // Deleting the last fact must make the instance equal to (and
        // structurally indistinguishable from) a never-populated one: the
        // old code left an empty `relations` entry behind.
        assert!(db.remove(&fact!("Dealers", "Smith", "Boston")));
        assert_eq!(db, fresh);
        assert_eq!(db.blocks().len(), 0);
        // Repopulating keeps working.
        db.insert(fact!("Dealers", "James", "Boston")).unwrap();
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn remove_and_contains() {
        let mut db = db_stock();
        let f = fact!("Dealers", "Smith", "New York");
        assert!(db.contains(&f));
        assert!(db.remove(&f));
        assert!(!db.contains(&f));
        assert!(!db.remove(&f));
        assert_eq!(db.len(), 7);
    }
}
