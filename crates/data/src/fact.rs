//! Facts: ground atoms stored in a database instance.

use crate::schema::{RelName, Signature};
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// A fact `R(v1, ..., vn)`: an atom without variables.
///
/// Both parts sit behind an [`Arc`], so cloning a fact is two reference-count
/// bumps and allocates nothing: the copy-on-write storage above it (instance
/// leaves, the sharded front-end's mirror, the dirty log's retracted facts)
/// copies facts by the leaf. Equality, order and hashing are by content.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fact {
    relation: RelName,
    args: Arc<[Value]>,
}

impl Fact {
    /// Creates a fact for relation `relation` with the given arguments.
    ///
    /// The arguments are stored in one allocation when `args` reports its
    /// exact length — an array, a slice's or a range's `map` — and collected
    /// then copied otherwise; so pass an array, not a `vec!`.
    pub fn new(relation: impl AsRef<str>, args: impl IntoIterator<Item = Value>) -> Fact {
        Fact {
            relation: Arc::from(relation.as_ref()),
            args: args.into_iter().collect(),
        }
    }

    /// [`Fact::new`] under an interned relation name — a schema's own
    /// [`RelName`] — which the fact shares instead of allocating its own.
    pub fn with_name(relation: RelName, args: impl IntoIterator<Item = Value>) -> Fact {
        Fact {
            relation,
            args: args.into_iter().collect(),
        }
    }

    /// The same fact under `relation`, an equal name — the schema's own
    /// [`RelName`], so stored facts share one name allocation.
    pub(crate) fn with_relation_name(self, relation: RelName) -> Fact {
        debug_assert_eq!(self.relation, relation);
        Fact { relation, ..self }
    }

    /// The relation name of the fact.
    pub fn relation(&self) -> &str {
        &self.relation
    }

    /// The interned relation name.
    pub fn relation_name(&self) -> &RelName {
        &self.relation
    }

    /// The arguments of the fact.
    pub fn args(&self) -> &[Value] {
        &self.args
    }

    /// The arity of the fact.
    pub fn arity(&self) -> usize {
        self.args.len()
    }

    /// The argument at position `p`.
    pub fn arg(&self, p: usize) -> &Value {
        &self.args[p]
    }

    /// The key part of the fact, given the relation's signature.
    pub fn key(&self, sig: &Signature) -> &[Value] {
        &self.args[..sig.key_len()]
    }
}

impl fmt::Display for Fact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.relation)?;
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Debug for Fact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// Convenience macro for building a [`Fact`].
///
/// ```
/// use rcqa_data::fact;
/// let f = fact!("Stock", "Tesla X", "Boston", 35);
/// assert_eq!(f.relation(), "Stock");
/// assert_eq!(f.arity(), 3);
/// ```
#[macro_export]
macro_rules! fact {
    ($rel:expr $(, $arg:expr)* $(,)?) => {
        $crate::fact::Fact::new($rel, [$($crate::value::Value::from($arg)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Signature;

    #[test]
    fn key_and_nonkey() {
        let sig = Signature::new(3, 2, [2]).unwrap();
        let f = fact!("Stock", "Tesla X", "Boston", 35);
        assert_eq!(
            f.key(&sig),
            &[Value::text("Tesla X"), Value::text("Boston")]
        );
        assert_eq!(f.arg(2), &Value::int(35));
    }

    #[test]
    fn key_equality() {
        let sig = Signature::new(3, 2, [2]).unwrap();
        let a = fact!("Stock", "Tesla X", "Boston", 35);
        let b = fact!("Stock", "Tesla X", "Boston", 40);
        let c = fact!("Stock", "Tesla Y", "Boston", 35);
        let d = fact!("Other", "Tesla X", "Boston", 35);
        // A block is a relation name and a key.
        let block = |f: &Fact| (f.relation().to_string(), f.key(&sig).to_vec());
        assert_eq!(block(&a), block(&b));
        assert_ne!(block(&a), block(&c));
        assert_ne!(block(&a), block(&d));
    }

    #[test]
    fn display() {
        let f = fact!("Dealers", "Smith", "Boston");
        assert_eq!(f.to_string(), "Dealers(Smith, Boston)");
    }
}
