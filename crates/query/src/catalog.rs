//! A named-column catalog for the SQL front-end.
//!
//! The positional [`Schema`] used by the storage layer has
//! no column names; SQL queries refer to columns by name, so the SQL parser is
//! driven by a [`Catalog`] that records, per table, the ordered column names,
//! how many leading columns form the primary key, and which columns are
//! numerical. A catalog can be lowered to a positional schema.

use crate::error::QueryError;
use rcqa_data::{Schema, Signature};
use std::collections::BTreeMap;

/// Definition of one table: ordered columns, key prefix length, numeric flags.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TableDef {
    name: String,
    columns: Vec<String>,
    key_len: usize,
    numeric: Vec<bool>,
}

impl TableDef {
    /// Starts a table definition with the given name.
    pub fn new(name: impl Into<String>) -> TableDef {
        TableDef {
            name: name.into(),
            columns: Vec::new(),
            key_len: 0,
            numeric: Vec::new(),
        }
    }

    /// Adds a primary-key column. Key columns must be declared before non-key
    /// columns.
    pub fn key_column(mut self, name: impl Into<String>) -> TableDef {
        debug_assert_eq!(
            self.key_len,
            self.columns.len(),
            "key columns must be declared first"
        );
        self.columns.push(name.into());
        self.numeric.push(false);
        self.key_len += 1;
        self
    }

    /// Adds a non-key, non-numeric column.
    pub fn column(mut self, name: impl Into<String>) -> TableDef {
        self.columns.push(name.into());
        self.numeric.push(false);
        self
    }

    /// Adds a non-key numerical column.
    pub fn numeric_column(mut self, name: impl Into<String>) -> TableDef {
        self.columns.push(name.into());
        self.numeric.push(true);
        self
    }

    /// Adds a numerical primary-key column.
    pub fn numeric_key_column(mut self, name: impl Into<String>) -> TableDef {
        debug_assert_eq!(
            self.key_len,
            self.columns.len(),
            "key columns must be declared first"
        );
        self.columns.push(name.into());
        self.numeric.push(true);
        self.key_len += 1;
        self
    }

    /// The table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The ordered column names.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Number of leading key columns.
    pub fn key_len(&self) -> usize {
        self.key_len
    }

    /// Position of a column name (case-insensitive), if present.
    pub fn position_of(&self, column: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.eq_ignore_ascii_case(column))
    }

    /// Whether the column at position `p` is numerical.
    pub fn is_numeric(&self, p: usize) -> bool {
        self.numeric[p]
    }

    /// Lowers the table definition into a positional signature. Fails for a
    /// definition the storage layer has no signature for — one without
    /// columns.
    pub fn signature(&self) -> Result<Signature, QueryError> {
        let numeric: Vec<usize> = self
            .numeric
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| i)
            .collect();
        Signature::new(self.columns.len(), self.key_len, numeric).map_err(|reason| {
            QueryError::InvalidTable {
                table: self.name.clone(),
                reason,
            }
        })
    }
}

/// A collection of table definitions.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Catalog {
    tables: BTreeMap<String, TableDef>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Adds a table definition (builder style, for catalogs written out in
    /// code).
    ///
    /// # Panics
    /// Panics where [`Catalog::add_table`] returns an error.
    pub fn with_table(mut self, def: TableDef) -> Catalog {
        if let Err(e) = self.add_table(def) {
            panic!("{e}");
        }
        self
    }

    /// Adds a table definition, refusing one that does not lower to a
    /// signature ([`TableDef::signature`]) — every table of a catalog does,
    /// which is what lets [`Catalog::schema`] be infallible.
    pub fn add_table(&mut self, def: TableDef) -> Result<&mut Self, QueryError> {
        def.signature()?;
        self.tables.insert(def.name.clone(), def);
        Ok(self)
    }

    /// Looks up a table by name (case-insensitive).
    pub fn table(&self, name: &str) -> Option<&TableDef> {
        self.tables
            .values()
            .find(|t| t.name.eq_ignore_ascii_case(name))
    }

    /// Looks up a table by name or returns an error.
    pub fn expect_table(&self, name: &str) -> Result<&TableDef, QueryError> {
        self.table(name)
            .ok_or_else(|| QueryError::UnknownRelation(name.to_string()))
    }

    /// All table definitions.
    pub fn tables(&self) -> impl Iterator<Item = &TableDef> {
        self.tables.values()
    }

    /// Lowers the catalog to a positional schema.
    pub fn schema(&self) -> Schema {
        let mut schema = Schema::new();
        for t in self.tables.values() {
            let sig = t
                .signature()
                .expect("add_table admits only lowerable tables");
            schema.add_relation(&t.name, sig);
        }
        schema
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stock_catalog() -> Catalog {
        Catalog::new()
            .with_table(TableDef::new("Dealers").key_column("Name").column("Town"))
            .with_table(
                TableDef::new("Stock")
                    .key_column("Product")
                    .key_column("Town")
                    .numeric_column("Qty"),
            )
    }

    #[test]
    fn table_definition() {
        let cat = stock_catalog();
        let stock = cat.table("stock").unwrap();
        assert_eq!(stock.name(), "Stock");
        assert_eq!(stock.key_len(), 2);
        assert_eq!(stock.position_of("qty"), Some(2));
        assert_eq!(stock.position_of("Missing"), None);
        assert!(stock.is_numeric(2));
        assert!(!stock.is_numeric(0));
        assert!(cat.expect_table("Nope").is_err());
        assert_eq!(cat.tables().count(), 2);
    }

    #[test]
    fn lower_to_schema() {
        let cat = stock_catalog();
        let schema = cat.schema();
        let sig = schema.signature("Stock").unwrap();
        assert_eq!(sig.arity(), 3);
        assert_eq!(sig.key_len(), 2);
        assert!(sig.is_numeric(2));
        assert_eq!(schema.signature("Dealers").unwrap().key_len(), 1);
    }

    #[test]
    fn a_table_without_columns_never_enters_a_catalog() {
        let message =
            "table \"P\": invalid signature: arity 0: a relation has at least one position";
        let err = TableDef::new("P").signature().unwrap_err();
        assert_eq!(err.to_string(), message);
        let mut cat = stock_catalog();
        assert_eq!(cat.add_table(TableDef::new("P")).unwrap_err(), err);
        assert!(cat.table("P").is_none());
        assert_eq!(cat.schema().len(), 2);
        // The chained builder has no error to return: it panics with the
        // same message, at the definition instead of deep inside `schema()`.
        let panic =
            std::panic::catch_unwind(|| Catalog::new().with_table(TableDef::new("P"))).unwrap_err();
        assert_eq!(panic.downcast_ref::<String>().unwrap(), message);
        // A key-less table is fine: its one block holds every row.
        let keyless = TableDef::new("Log").column("Line");
        assert_eq!(keyless.signature().unwrap().key_len(), 0);
    }

    #[test]
    fn numeric_key_column() {
        let def = TableDef::new("Series")
            .numeric_key_column("Id")
            .numeric_column("Value");
        let sig = def.signature().unwrap();
        assert!(sig.is_numeric(0));
        assert!(sig.is_numeric(1));
        assert_eq!(sig.key_len(), 1);
    }
}
