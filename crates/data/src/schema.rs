//! Relation signatures and database schemas.
//!
//! Every relation name is associated with a *signature* `(n, k, J)` where `n`
//! is the arity, positions `1..=k` form the primary key, and `J` is the set of
//! numerical positions (Section 3 of the paper). Positions are 0-based in the
//! implementation.

use crate::error::DataError;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// Interned relation name.
pub type RelName = Arc<str>;

/// The signature `(n, k, J)` of a relation name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Signature {
    arity: usize,
    key_len: usize,
    numeric: BTreeSet<usize>,
}

impl Signature {
    /// Creates a signature with `arity` columns, the first `key_len` of which
    /// form the primary key, and `numeric` listing the 0-based numerical
    /// positions.
    ///
    /// A relation has at least one position: `arity == 0` is rejected (a
    /// 0-ary fact has no id row to index, and the paper's queries never name
    /// one). `key_len == 0` is allowed — the whole relation is one block.
    pub fn new(
        arity: usize,
        key_len: usize,
        numeric: impl IntoIterator<Item = usize>,
    ) -> Result<Signature, DataError> {
        if arity == 0 {
            return Err(DataError::InvalidSignature(
                "arity 0: a relation has at least one position".to_string(),
            ));
        }
        if key_len > arity {
            return Err(DataError::InvalidSignature(format!(
                "key length {key_len} exceeds arity {arity}"
            )));
        }
        let numeric: BTreeSet<usize> = numeric.into_iter().collect();
        if let Some(&p) = numeric.iter().find(|&&p| p >= arity) {
            return Err(DataError::InvalidSignature(format!(
                "numeric position {p} exceeds arity {arity}"
            )));
        }
        Ok(Signature {
            arity,
            key_len,
            numeric,
        })
    }

    /// Signature with no numerical positions.
    pub fn plain(arity: usize, key_len: usize) -> Result<Signature, DataError> {
        Signature::new(arity, key_len, [])
    }

    /// The arity `n`.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The number of key positions `k` (the key is the prefix `0..k`).
    pub fn key_len(&self) -> usize {
        self.key_len
    }

    /// The numerical positions `J`.
    pub fn numeric_positions(&self) -> &BTreeSet<usize> {
        &self.numeric
    }

    /// Returns `true` if position `p` is numerical.
    pub fn is_numeric(&self, p: usize) -> bool {
        self.numeric.contains(&p)
    }
}

impl fmt::Display for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "(arity={}, key={}, numeric={:?})",
            self.arity, self.key_len, self.numeric
        )
    }
}

/// A database schema: a mapping from relation names to signatures.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Schema {
    relations: BTreeMap<RelName, Signature>,
}

impl Schema {
    /// Creates an empty schema.
    pub fn new() -> Schema {
        Schema::default()
    }

    /// Adds (or replaces) a relation with the given signature.
    pub fn add_relation(&mut self, name: impl AsRef<str>, sig: Signature) -> &mut Self {
        self.relations.insert(Arc::from(name.as_ref()), sig);
        self
    }

    /// Builder-style variant of [`Schema::add_relation`].
    pub fn with_relation(mut self, name: impl AsRef<str>, sig: Signature) -> Self {
        self.add_relation(name, sig);
        self
    }

    /// Returns the signature of `name`, if declared.
    pub fn signature(&self, name: &str) -> Option<&Signature> {
        self.relations.get(name)
    }

    /// Returns the signature of `name` or an error.
    pub fn expect_signature(&self, name: &str) -> Result<&Signature, DataError> {
        self.signature(name)
            .ok_or_else(|| DataError::UnknownRelation(name.to_string()))
    }

    /// Iterates over `(name, signature)` pairs in name order.
    pub fn relations(&self) -> impl Iterator<Item = (&RelName, &Signature)> {
        self.relations.iter()
    }

    /// Returns the interned relation name equal to `name`, if declared.
    pub fn intern(&self, name: &str) -> Option<RelName> {
        self.relations.get_key_value(name).map(|(k, _)| k.clone())
    }

    /// Number of declared relations.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// Returns `true` if no relation is declared.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// Returns `true` if the relation `name` is declared.
    pub fn contains(&self, name: &str) -> bool {
        self.relations.contains_key(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signature_validation() {
        assert!(Signature::new(3, 4, []).is_err());
        assert!(Signature::new(3, 2, [3]).is_err());
        let s = Signature::new(3, 2, [2]).unwrap();
        assert_eq!(s.arity(), 3);
        assert_eq!(s.key_len(), 2);
        assert!(s.is_numeric(2));
        assert!(!s.is_numeric(0));
    }

    #[test]
    fn zero_arity_is_rejected_with_a_stable_message() {
        for key_len in [0, 1] {
            let err = Signature::new(0, key_len, []).unwrap_err();
            assert_eq!(
                err.to_string(),
                "invalid signature: arity 0: a relation has at least one position"
            );
        }
        assert!(Signature::plain(0, 0).is_err());
        // An empty key is not an empty relation: one block holds every fact.
        assert_eq!(Signature::new(1, 0, []).unwrap().key_len(), 0);
    }

    #[test]
    fn schema_lookup() {
        let mut schema = Schema::new();
        schema.add_relation("R", Signature::new(2, 1, []).unwrap());
        schema.add_relation("S", Signature::new(4, 2, [3]).unwrap());
        assert!(schema.contains("R"));
        assert!(!schema.contains("T"));
        assert_eq!(schema.len(), 2);
        assert_eq!(schema.signature("S").unwrap().arity(), 4);
        assert!(schema.expect_signature("T").is_err());
        let names: Vec<&str> = schema.relations().map(|(n, _)| n.as_ref()).collect();
        assert_eq!(names, vec!["R", "S"]);
    }

    #[test]
    fn builder_style() {
        let schema = Schema::new()
            .with_relation("A", Signature::plain(1, 1).unwrap())
            .with_relation("B", Signature::plain(2, 1).unwrap());
        assert_eq!(schema.len(), 2);
        assert!(schema.intern("A").is_some());
        assert!(schema.intern("Z").is_none());
    }
}
