//! SQL front-end: a parser for the SELECT-FROM-WHERE-GROUP BY-HAVING-ORDER
//! BY-LIMIT fragment the paper targets (Section 1), translating into
//! AGGR\[sjfBCQ\] plus the interval-level clauses evaluated over `[glb, lub]`
//! rows.
//!
//! Supported grammar (case-insensitive keywords):
//!
//! ```text
//! SELECT [col_ref ,]* AGG( col_ref | * | number ) (, AGG(...))*
//! FROM   table [AS alias] (, table [AS alias])*
//! [WHERE  col_ref = (col_ref | literal) (AND ...)*
//!         | col_ref (< | <= | > | >= | <> | !=) literal (AND ...)*]
//! [GROUP BY col_ref (, col_ref)*]
//! [HAVING AGG(...) (= | < | <= | > | >= | <> | !=) number (AND ...)*]
//! [ORDER BY AGG(...) [ASC | DESC] [LIMIT k]]
//! ```
//!
//! Every table occurrence becomes one atom; equality conditions are applied
//! by unifying variables or substituting constants; non-equality comparisons
//! against literals become [`VarPredicate`]s attached to the query; GROUP BY
//! columns become the free variables of the body. HAVING, ORDER BY and LIMIT
//! operate on the per-group answer *intervals* (certain/possible/violated
//! trichotomy and certain top-k), so they compare aggregates to numeric
//! literals only. Two occurrences of the same table (a self-join) are
//! rejected, matching the paper's restriction to self-join-free queries.
//!
//! Shapes that parse but fall outside the executable fragment (column-column
//! comparisons, ORDER BY a plain column, LIMIT without ORDER BY, …) fail with
//! a precise [`QueryError::Unsupported`] naming the shape — never a tokenizer
//! error.

use crate::ast::{AggQuery, AggTerm, Atom, CmpOp, ConjunctiveQuery, Term, Var, VarPredicate};
use crate::catalog::Catalog;
use crate::error::QueryError;
use rcqa_data::{AggFunc, Rational, Value};
use std::collections::BTreeMap;

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Str(String),
    Num(Rational),
    Comma,
    Dot,
    Star,
    Eq,
    /// A non-equality comparison operator (`<`, `<=`, `>`, `>=`, `<>`,
    /// `!=`). `<>` and `!=` are distinct tokens but normalise to the same
    /// [`CmpOp::Ne`] AST node in the parser.
    Cmp(&'static str),
    LParen,
    RParen,
    Semi,
}

fn tokenize(input: &str) -> Result<Vec<Tok>, QueryError> {
    let chars: Vec<char> = input.chars().collect();
    let mut toks = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        match c {
            c if c.is_whitespace() => i += 1,
            ',' => {
                toks.push(Tok::Comma);
                i += 1;
            }
            '.' => {
                toks.push(Tok::Dot);
                i += 1;
            }
            '*' => {
                toks.push(Tok::Star);
                i += 1;
            }
            '=' => {
                toks.push(Tok::Eq);
                i += 1;
            }
            '<' => {
                let (op, len) = match chars.get(i + 1) {
                    Some('=') => ("<=", 2),
                    Some('>') => ("<>", 2),
                    _ => ("<", 1),
                };
                toks.push(Tok::Cmp(op));
                i += len;
            }
            '>' => {
                let (op, len) = match chars.get(i + 1) {
                    Some('=') => (">=", 2),
                    _ => (">", 1),
                };
                toks.push(Tok::Cmp(op));
                i += len;
            }
            '!' if chars.get(i + 1) == Some(&'=') => {
                toks.push(Tok::Cmp("!="));
                i += 2;
            }
            '(' => {
                toks.push(Tok::LParen);
                i += 1;
            }
            ')' => {
                toks.push(Tok::RParen);
                i += 1;
            }
            ';' => {
                toks.push(Tok::Semi);
                i += 1;
            }
            '\'' | '"' => {
                let quote = c;
                let mut s = String::new();
                i += 1;
                loop {
                    match chars.get(i) {
                        None => {
                            return Err(QueryError::Parse("unterminated string literal".into()))
                        }
                        Some(&ch) if ch == quote => {
                            // SQL-standard escape: a doubled quote inside the
                            // literal denotes one quote character.
                            if chars.get(i + 1) == Some(&quote) {
                                s.push(quote);
                                i += 2;
                            } else {
                                i += 1;
                                break;
                            }
                        }
                        Some(&ch) => {
                            s.push(ch);
                            i += 1;
                        }
                    }
                }
                toks.push(Tok::Str(s));
            }
            c if c.is_ascii_digit()
                || (c == '-' && i + 1 < chars.len() && chars[i + 1].is_ascii_digit()) =>
            {
                let start = i;
                i += 1;
                while i < chars.len() && (chars[i].is_ascii_digit() || chars[i] == '.') {
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                let r: Rational = text
                    .parse()
                    .map_err(|_| QueryError::Parse(format!("bad number literal {text:?}")))?;
                toks.push(Tok::Num(r));
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                toks.push(Tok::Ident(chars[start..i].iter().collect()));
            }
            other => {
                return Err(QueryError::Parse(format!(
                    "unexpected character {other:?} in SQL query"
                )))
            }
        }
    }
    Ok(toks)
}

/// Normalizes SQL text into a canonical form suitable as a statement-cache
/// key: whitespace runs *outside* string literals collapse to a single space,
/// text outside string literals is case-folded to ASCII uppercase (keywords,
/// table/column identifiers, and aggregate names are all case-insensitive to
/// the parser, so `select sum(s.qty)` and `SELECT SUM(S.Qty)` must share one
/// prepared statement), surrounding whitespace is trimmed, and one trailing
/// statement terminator (`;`) is dropped. Literal contents — including
/// doubled-quote escapes — are preserved verbatim and stay case-sensitive.
///
/// This lives next to `tokenize` because the two must agree on where
/// string literals begin and end: two statements may share a normalized form
/// only if they parse identically. Unterminated literals are copied as-is;
/// the parser rejects them later.
pub fn normalize_sql(input: &str) -> String {
    let chars: Vec<char> = input.chars().collect();
    let mut out = String::with_capacity(input.len());
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '\'' || c == '"' {
            out.push(c);
            i += 1;
            while i < chars.len() {
                out.push(chars[i]);
                if chars[i] == c {
                    // Doubled closing quote: an escape, not a terminator.
                    if chars.get(i + 1) == Some(&c) {
                        out.push(c);
                        i += 2;
                        continue;
                    }
                    i += 1;
                    break;
                }
                i += 1;
            }
        } else if c.is_whitespace() {
            while i < chars.len() && chars[i].is_whitespace() {
                i += 1;
            }
            out.push(' ');
        } else {
            // Outside literals the language is case-insensitive; fold to the
            // conventional uppercase (ASCII-only, matching the parser's
            // `eq_ignore_ascii_case` comparisons).
            out.push(c.to_ascii_uppercase());
            i += 1;
        }
    }
    let trimmed = out.trim();
    let trimmed = trimmed
        .strip_suffix(';')
        .map(str::trim_end)
        .unwrap_or(trimmed);
    trimmed.to_string()
}

/// A column reference `alias.column` or bare `column`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ColRef {
    qualifier: Option<String>,
    column: String,
}

#[derive(Debug, Clone, PartialEq)]
enum SelectItem {
    Column(ColRef),
    Aggregate(AggFunc, AggArg),
}

#[derive(Debug, Clone, PartialEq)]
enum AggArg {
    Star,
    Column(ColRef),
    Number(Rational),
}

#[derive(Debug, Clone, PartialEq)]
enum RhsValue {
    Column(ColRef),
    Text(String),
    Number(Rational),
}

#[derive(Debug, Clone, PartialEq)]
struct ParsedSql {
    select: Vec<SelectItem>,
    from: Vec<(String, String)>, // (table, alias)
    conditions: Vec<(ColRef, RhsValue)>,
    /// Non-equality WHERE comparisons, always column-vs-literal (the parser
    /// rejects column-column comparisons with a precise error).
    comparisons: Vec<(ColRef, CmpOp, Value)>,
    group_by: Vec<ColRef>,
    /// `HAVING AGG(arg) OP number` conjuncts.
    having: Vec<(AggFunc, AggArg, CmpOp, Rational)>,
    /// `ORDER BY AGG(arg) [ASC|DESC]`.
    order_by: Option<(AggFunc, AggArg, bool)>,
    /// `LIMIT k` (requires ORDER BY).
    limit: Option<usize>,
}

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn peek_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.peek_keyword(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), QueryError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(QueryError::Parse(format!(
                "expected keyword {kw}, found {:?}",
                self.peek()
            )))
        }
    }

    fn expect(&mut self, tok: &Tok) -> Result<(), QueryError> {
        match self.next() {
            Some(t) if &t == tok => Ok(()),
            other => Err(QueryError::Parse(format!(
                "expected {tok:?}, found {other:?}"
            ))),
        }
    }

    fn parse_ident(&mut self) -> Result<String, QueryError> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            other => Err(QueryError::Parse(format!(
                "expected an identifier, found {other:?}"
            ))),
        }
    }

    fn parse_col_ref(&mut self) -> Result<ColRef, QueryError> {
        let first = self.parse_ident()?;
        if self.peek() == Some(&Tok::Dot) {
            self.next();
            let column = self.parse_ident()?;
            Ok(ColRef {
                qualifier: Some(first),
                column,
            })
        } else {
            Ok(ColRef {
                qualifier: None,
                column: first,
            })
        }
    }

    /// Parses `AGG( … )` if the upcoming tokens are an aggregate call;
    /// returns `Ok(None)` without consuming anything otherwise.
    fn parse_aggregate(&mut self) -> Result<Option<(AggFunc, AggArg)>, QueryError> {
        let Some(Tok::Ident(name)) = self.peek() else {
            return Ok(None);
        };
        if AggFunc::parse(name).is_none() || self.toks.get(self.pos + 1) != Some(&Tok::LParen) {
            return Ok(None);
        }
        let name = self.parse_ident()?;
        let mut agg = AggFunc::parse(&name).expect("checked above");
        self.expect(&Tok::LParen)?;
        let distinct = self.eat_keyword("DISTINCT");
        if distinct {
            agg = match agg {
                AggFunc::Count => AggFunc::CountDistinct,
                AggFunc::Sum => AggFunc::SumDistinct,
                other => {
                    return Err(QueryError::Unsupported(format!(
                        "DISTINCT is not supported for {other}"
                    )))
                }
            };
        }
        let arg = match self.peek() {
            Some(Tok::Star) => {
                self.next();
                AggArg::Star
            }
            Some(Tok::Num(_)) => {
                if let Some(Tok::Num(r)) = self.next() {
                    AggArg::Number(r)
                } else {
                    unreachable!()
                }
            }
            _ => AggArg::Column(self.parse_col_ref()?),
        };
        self.expect(&Tok::RParen)?;
        Ok(Some((agg, arg)))
    }

    fn parse_select_item(&mut self) -> Result<SelectItem, QueryError> {
        // Aggregate if identifier is a known aggregate name followed by '('.
        if let Some((agg, arg)) = self.parse_aggregate()? {
            return Ok(SelectItem::Aggregate(agg, arg));
        }
        Ok(SelectItem::Column(self.parse_col_ref()?))
    }

    /// Parses the comparison operator of a HAVING conjunct.
    fn parse_cmp_op(&mut self, clause: &str) -> Result<CmpOp, QueryError> {
        match self.next() {
            Some(Tok::Eq) => Ok(CmpOp::Eq),
            Some(Tok::Cmp(s)) => Ok(CmpOp::parse(s).expect("tokenizer emits known operators")),
            other => Err(QueryError::Parse(format!(
                "expected a comparison operator in {clause}, found {other:?}"
            ))),
        }
    }

    fn parse(&mut self) -> Result<ParsedSql, QueryError> {
        self.expect_keyword("SELECT")?;
        let mut select = vec![self.parse_select_item()?];
        while self.peek() == Some(&Tok::Comma) {
            self.next();
            select.push(self.parse_select_item()?);
        }
        self.expect_keyword("FROM")?;
        let mut from = Vec::new();
        loop {
            let table = self.parse_ident()?;
            let alias = if self.eat_keyword("AS") {
                self.parse_ident()?
            } else if let Some(Tok::Ident(s)) = self.peek() {
                // implicit alias, unless the identifier is a keyword
                if ["WHERE", "GROUP", "ORDER", "HAVING", "LIMIT"]
                    .iter()
                    .any(|kw| s.eq_ignore_ascii_case(kw))
                {
                    table.clone()
                } else {
                    self.parse_ident()?
                }
            } else {
                table.clone()
            };
            from.push((table, alias));
            if self.peek() == Some(&Tok::Comma) {
                self.next();
            } else {
                break;
            }
        }
        let mut conditions = Vec::new();
        let mut comparisons = Vec::new();
        if self.eat_keyword("WHERE") {
            loop {
                let lhs = self.parse_col_ref()?;
                // Non-equality comparisons restrict a column against a
                // literal; column-column comparisons stay outside the
                // executable fragment (equality joins go through the
                // unifier instead) and are rejected by name.
                if let Some(Tok::Cmp(op_str)) = self.peek().cloned() {
                    self.next();
                    let op = CmpOp::parse(op_str).expect("tokenizer emits known operators");
                    let rhs = match self.next() {
                        Some(Tok::Str(s)) => Value::text(s),
                        Some(Tok::Num(r)) => Value::Num(r),
                        Some(Tok::Ident(_)) => {
                            return Err(QueryError::Unsupported(format!(
                                "comparison operator {op_str} between two columns in WHERE: \
                                 non-equality comparisons must be against a literal \
                                 (column {op_str} constant)"
                            )))
                        }
                        other => {
                            return Err(QueryError::Parse(format!(
                                "expected a literal after {op_str}, found {other:?}"
                            )))
                        }
                    };
                    comparisons.push((lhs, op, rhs));
                } else {
                    self.expect(&Tok::Eq)?;
                    let rhs = match self.next() {
                        Some(Tok::Str(s)) => RhsValue::Text(s),
                        Some(Tok::Num(r)) => RhsValue::Number(r),
                        Some(Tok::Ident(name)) => {
                            if self.peek() == Some(&Tok::Dot) {
                                self.next();
                                let column = self.parse_ident()?;
                                RhsValue::Column(ColRef {
                                    qualifier: Some(name),
                                    column,
                                })
                            } else {
                                RhsValue::Column(ColRef {
                                    qualifier: None,
                                    column: name,
                                })
                            }
                        }
                        other => {
                            return Err(QueryError::Parse(format!(
                                "expected a column or literal, found {other:?}"
                            )))
                        }
                    };
                    conditions.push((lhs, rhs));
                }
                if !self.eat_keyword("AND") {
                    break;
                }
            }
        }
        let mut group_by = Vec::new();
        if self.eat_keyword("GROUP") {
            self.expect_keyword("BY")?;
            group_by.push(self.parse_col_ref()?);
            while self.peek() == Some(&Tok::Comma) {
                self.next();
                group_by.push(self.parse_col_ref()?);
            }
        }
        // HAVING conjuncts compare an aggregate's answer interval against a
        // numeric literal; anything else parses but is named unsupported.
        let mut having = Vec::new();
        if self.eat_keyword("HAVING") {
            loop {
                let Some((agg, arg)) = self.parse_aggregate()? else {
                    return Err(QueryError::Unsupported(
                        "HAVING over a non-aggregate expression: only conjunctions of \
                         AGG(...) OP number are supported (the interval trichotomy is \
                         defined over aggregate [glb, lub] bounds)"
                            .into(),
                    ));
                };
                let op = self.parse_cmp_op("HAVING")?;
                let threshold = match self.next() {
                    Some(Tok::Num(r)) => r,
                    Some(Tok::Str(_)) => {
                        return Err(QueryError::Unsupported(
                            "HAVING compares aggregate intervals to numeric literals only".into(),
                        ))
                    }
                    other => {
                        return Err(QueryError::Parse(format!(
                            "expected a number in HAVING, found {other:?}"
                        )))
                    }
                };
                having.push((agg, arg, op, threshold));
                if !self.eat_keyword("AND") {
                    break;
                }
            }
        }
        // ORDER BY an aggregate (certain top-k); plain columns are named
        // unsupported rather than silently reordered.
        let mut order_by = None;
        if self.eat_keyword("ORDER") {
            self.expect_keyword("BY")?;
            let Some((agg, arg)) = self.parse_aggregate()? else {
                let col = self.parse_col_ref()?;
                return Err(QueryError::Unsupported(format!(
                    "ORDER BY column {}: only ORDER BY over an aggregate is supported \
                     (certain top-k is defined over aggregate [glb, lub] intervals)",
                    col.column
                )));
            };
            let descending = if self.eat_keyword("DESC") {
                true
            } else {
                self.eat_keyword("ASC");
                false
            };
            if self.peek() == Some(&Tok::Comma) {
                return Err(QueryError::Unsupported(
                    "multiple ORDER BY keys: only a single aggregate sort key is supported".into(),
                ));
            }
            order_by = Some((agg, arg, descending));
        }
        let mut limit = None;
        if self.eat_keyword("LIMIT") {
            let k = match self.next() {
                Some(Tok::Num(r)) => r.to_string().parse::<usize>().map_err(|_| {
                    QueryError::Parse(format!("LIMIT must be a non-negative integer, got {r}"))
                })?,
                other => {
                    return Err(QueryError::Parse(format!(
                        "expected a number after LIMIT, found {other:?}"
                    )))
                }
            };
            if order_by.is_none() {
                return Err(QueryError::Unsupported(
                    "LIMIT without ORDER BY: certain top-k needs an aggregate sort key".into(),
                ));
            }
            limit = Some(k);
        }
        // A single statement terminator may close the query; anything after
        // it (or a second `;`) is trailing garbage, not more SQL.
        if self.peek() == Some(&Tok::Semi) {
            self.next();
        }
        if self.pos != self.toks.len() {
            return Err(QueryError::Parse(format!(
                "trailing tokens starting at {:?}",
                self.peek()
            )));
        }
        Ok(ParsedSql {
            select,
            from,
            conditions,
            comparisons,
            group_by,
            having,
            order_by,
            limit,
        })
    }
}

/// Union-find over variable indices, with an optional constant per class.
struct Unifier {
    parent: Vec<usize>,
    constant: Vec<Option<Value>>,
}

impl Unifier {
    fn new(n: usize) -> Unifier {
        Unifier {
            parent: (0..n).collect(),
            constant: vec![None; n],
        }
    }

    fn find(&mut self, i: usize) -> usize {
        if self.parent[i] != i {
            let root = self.find(self.parent[i]);
            self.parent[i] = root;
        }
        self.parent[i]
    }

    fn union(&mut self, a: usize, b: usize) -> Result<(), QueryError> {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return Ok(());
        }
        let merged = match (self.constant[ra].clone(), self.constant[rb].clone()) {
            (Some(x), Some(y)) if x != y => {
                return Err(QueryError::Parse(format!(
                    "contradictory constants {x} and {y} for the same column"
                )))
            }
            (Some(x), _) | (_, Some(x)) => Some(x),
            _ => None,
        };
        self.parent[rb] = ra;
        self.constant[ra] = merged;
        Ok(())
    }

    fn assign(&mut self, i: usize, v: Value) -> Result<(), QueryError> {
        let r = self.find(i);
        match &self.constant[r] {
            Some(existing) if existing != &v => Err(QueryError::Parse(format!(
                "contradictory constants {existing} and {v} for the same column"
            ))),
            _ => {
                self.constant[r] = Some(v);
                Ok(())
            }
        }
    }
}

/// A HAVING conjunct `AGG(...) OP number`, evaluated over the `[glb, lub]`
/// interval of the aggregate at `agg_index` in [`SqlQuery::aggregates`].
#[derive(Debug, Clone, PartialEq)]
pub struct HavingCond {
    /// Index into [`SqlQuery::aggregates`] of the compared aggregate.
    pub agg_index: usize,
    /// The comparison operator.
    pub op: CmpOp,
    /// The numeric threshold.
    pub threshold: Rational,
}

/// `ORDER BY AGG(...) [ASC|DESC]`, the sort key of certain top-k.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrderSpec {
    /// Index into [`SqlQuery::aggregates`] of the sort-key aggregate.
    pub agg_index: usize,
    /// `true` for DESC.
    pub descending: bool,
}

/// The result of translating a SQL query: one [`AggQuery`] per aggregate
/// (sharing the body), comparison predicates, and the interval-level
/// HAVING / ORDER BY / LIMIT clauses, plus the SELECT-clause column names in
/// output order (group-by columns followed by the aggregates).
#[derive(Debug, Clone, PartialEq)]
pub struct SqlQuery {
    /// The primary translated aggregation query (`aggregates[0]`).
    pub query: AggQuery,
    /// Human-readable output column names, one per GROUP BY column plus one
    /// per SELECT-clause aggregate.
    pub output_columns: Vec<String>,
    /// Every aggregate needed to answer the statement, sharing one body: the
    /// first [`SqlQuery::visible_aggregates`] are the SELECT-clause
    /// aggregates in order; the rest are hidden aggregates referenced only
    /// by HAVING / ORDER BY.
    pub aggregates: Vec<AggQuery>,
    /// How many leading entries of [`SqlQuery::aggregates`] are SELECT items.
    pub visible_aggregates: usize,
    /// Non-equality WHERE comparisons against literals.
    pub predicates: Vec<VarPredicate>,
    /// HAVING conjuncts (interval trichotomy).
    pub having: Vec<HavingCond>,
    /// ORDER BY sort key (certain top-k when paired with `limit`).
    pub order_by: Option<OrderSpec>,
    /// LIMIT k.
    pub limit: Option<usize>,
    /// `true` when a WHERE comparison on a column already forced to a
    /// constant is statically false: no repair has a satisfying embedding,
    /// so grouped queries answer with no rows and closed queries with `⊥`.
    pub unsatisfiable: bool,
}

/// Parses a SQL aggregation query against a [`Catalog`] and translates it into
/// AGGR\[sjfBCQ\].
pub fn parse_sql(input: &str, catalog: &Catalog) -> Result<SqlQuery, QueryError> {
    let mut parser = Parser {
        toks: tokenize(input)?,
        pos: 0,
    };
    let parsed = parser.parse()?;

    // Reject self-joins (same table twice).
    for i in 0..parsed.from.len() {
        for j in (i + 1)..parsed.from.len() {
            if parsed.from[i].0.eq_ignore_ascii_case(&parsed.from[j].0) {
                return Err(QueryError::SelfJoin(parsed.from[i].0.clone()));
            }
        }
    }

    // Reject duplicate aliases: every FROM item must bind a distinct name.
    // Variable ids are keyed `(alias, position)`, so a repeated alias would
    // silently overwrite the earlier relation's entries and conflate
    // variables across relations instead of erroring.
    for i in 0..parsed.from.len() {
        for j in (i + 1)..parsed.from.len() {
            if parsed.from[i].1.eq_ignore_ascii_case(&parsed.from[j].1) {
                return Err(QueryError::Parse(format!(
                    "duplicate table alias {:?} in FROM",
                    parsed.from[j].1
                )));
            }
        }
    }

    // Assign one variable id per (alias, column position).
    let mut var_ids: BTreeMap<(String, usize), usize> = BTreeMap::new();
    let mut var_names: Vec<String> = Vec::new();
    let mut alias_to_table: BTreeMap<String, String> = BTreeMap::new();
    for (table, alias) in &parsed.from {
        let def = catalog.expect_table(table)?;
        alias_to_table.insert(alias.to_ascii_lowercase(), def.name().to_string());
        for (p, col) in def.columns().iter().enumerate() {
            let id = var_names.len();
            var_names.push(format!(
                "{}_{}",
                alias.to_ascii_lowercase(),
                col.to_ascii_lowercase()
            ));
            var_ids.insert((alias.to_ascii_lowercase(), p), id);
        }
    }
    let mut unifier = Unifier::new(var_names.len());

    // The one shared enumeration of the FROM items that can supply a column
    // reference: alias filtering is case-insensitive, and each candidate
    // carries its variable id and the catalog's declared column spelling.
    // `resolve`, `resolve_root`, and `canonical_column` all feed off this,
    // so the qualifier-matching rules cannot drift apart.
    let candidates = |col: &ColRef| -> Vec<(usize, String)> {
        parsed
            .from
            .iter()
            .filter(|(_, alias)| match &col.qualifier {
                Some(q) => alias.eq_ignore_ascii_case(q),
                None => true,
            })
            .filter_map(|(table, alias)| {
                let def = catalog.table(table)?;
                let p = def.position_of(&col.column)?;
                let id = var_ids.get(&(alias.to_ascii_lowercase(), p)).copied()?;
                Some((id, def.columns()[p].clone()))
            })
            .collect()
    };
    let unknown_column = |col: &ColRef| QueryError::UnknownColumn {
        table: col.qualifier.clone().unwrap_or_else(|| "?".to_string()),
        column: col.column.clone(),
    };
    let ambiguous_column =
        |col: &ColRef| QueryError::Parse(format!("ambiguous column reference {}", col.column));

    // Resolve a column reference to a variable id (strict: used while the
    // unifier is still being built, so every candidate must be one id).
    let resolve = |col: &ColRef| -> Result<usize, QueryError> {
        let found = candidates(col);
        match found.len() {
            1 => Ok(found[0].0),
            0 => Err(unknown_column(col)),
            _ => Err(ambiguous_column(col)),
        }
    };

    // Apply WHERE conditions.
    for (lhs, rhs) in &parsed.conditions {
        let l = resolve(lhs)?;
        match rhs {
            RhsValue::Column(c) => {
                let r = resolve(c)?;
                unifier.union(l, r)?;
            }
            RhsValue::Text(s) => unifier.assign(l, Value::text(s))?,
            RhsValue::Number(r) => unifier.assign(l, Value::Num(*r))?,
        }
    }

    // Resolve a column reference *through the unifier*, for clauses examined
    // after the WHERE conditions were applied: the candidate variables (one
    // per FROM item that has the column) collapse to their union-find roots,
    // so a reference is unambiguous as soon as its candidates were equated —
    // `SELECT S.Town … WHERE D.Town = S.Town GROUP BY D.Town` names one
    // variable, while an un-equated unqualified `Town` over two tables stays
    // ambiguous.
    let resolve_root = |col: &ColRef, unifier: &mut Unifier| -> Result<usize, QueryError> {
        let found = candidates(col);
        if found.is_empty() {
            return Err(unknown_column(col));
        }
        let mut roots: Vec<usize> = Vec::new();
        for (id, _) in &found {
            let root = unifier.find(*id);
            if !roots.contains(&root) {
                roots.push(root);
            }
        }
        if roots.len() == 1 {
            Ok(roots[0])
        } else {
            Err(ambiguous_column(col))
        }
    };

    // Output columns report the catalog's declared spelling: statement text
    // may arrive case-folded by [`normalize_sql`] and the parser is
    // case-insensitive, so the query text's casing is not authoritative.
    let canonical_column = |col: &ColRef| -> String {
        candidates(col)
            .into_iter()
            .next()
            .map(|(_, name)| name)
            .unwrap_or_else(|| col.column.clone())
    };

    // Build the term for a variable id after unification.
    let term_of = |id: usize, unifier: &mut Unifier| -> Term {
        let root = unifier.find(id);
        match &unifier.constant[root] {
            Some(c) => Term::Const(c.clone()),
            None => Term::Var(Var::new(&var_names[root])),
        }
    };

    // Build atoms.
    let mut atoms = Vec::new();
    for (table, alias) in &parsed.from {
        let def = catalog.expect_table(table)?;
        let terms: Vec<Term> = (0..def.columns().len())
            .map(|p| {
                let id = var_ids[&(alias.to_ascii_lowercase(), p)];
                term_of(id, &mut unifier)
            })
            .collect();
        atoms.push(Atom::new(def.name(), terms));
    }

    // SELECT items: non-aggregate columns must be in GROUP BY.
    let mut select_aggs: Vec<(AggFunc, AggArg)> = Vec::new();
    let mut selected_columns: Vec<ColRef> = Vec::new();
    for item in &parsed.select {
        match item {
            SelectItem::Aggregate(agg, arg) => select_aggs.push((*agg, arg.clone())),
            SelectItem::Column(c) => selected_columns.push(c.clone()),
        }
    }
    if select_aggs.is_empty() {
        return Err(QueryError::Unsupported(
            "the SELECT clause must contain an aggregate".into(),
        ));
    }

    // GROUP BY columns resolve to union-find roots; a selected non-aggregate
    // column must name the same *variable* (root) as some GROUP BY column.
    // The old textual qualifier comparison got this wrong in both directions:
    // it rejected `SELECT S.Town … WHERE D.Town = S.Town GROUP BY D.Town`
    // (the columns are unified — one variable) and accepted an ambiguous
    // unqualified `SELECT Town` over two un-equated tables.
    let mut group_roots: Vec<usize> = Vec::new();
    for g in &parsed.group_by {
        group_roots.push(resolve_root(g, &mut unifier)?);
    }
    for c in &selected_columns {
        let root = resolve_root(c, &mut unifier)?;
        if !group_roots.contains(&root) {
            return Err(QueryError::Unsupported(format!(
                "selected column {} must appear in GROUP BY",
                c.column
            )));
        }
    }

    // GROUP BY columns become free variables.
    let mut free_vars: Vec<Var> = Vec::new();
    let mut output_columns: Vec<String> = Vec::new();
    for (g, &root) in parsed.group_by.iter().zip(&group_roots) {
        match &unifier.constant[root] {
            Some(_) => {
                // Grouping by a column forced to a constant is harmless: the
                // group key is fixed; we simply skip it as a free variable.
            }
            None => {
                let v = Var::new(&var_names[root]);
                if !free_vars.contains(&v) {
                    free_vars.push(v);
                }
            }
        }
        output_columns.push(canonical_column(g));
    }

    // Aggregate arguments resolve through the unifier (same rules for SELECT,
    // HAVING, and ORDER BY aggregates).
    let build_term =
        |agg: AggFunc, arg: &AggArg, unifier: &mut Unifier| -> Result<AggTerm, QueryError> {
            match arg {
                AggArg::Star => {
                    if agg != AggFunc::Count && agg != AggFunc::CountDistinct {
                        return Err(QueryError::Unsupported(format!(
                            "{agg}(*) is not supported"
                        )));
                    }
                    Ok(AggTerm::Const(Rational::ONE))
                }
                AggArg::Number(r) => Ok(AggTerm::Const(*r)),
                AggArg::Column(c) => {
                    let root = resolve_root(c, &mut *unifier)?;
                    match &unifier.constant[root] {
                        Some(Value::Num(r)) => Ok(AggTerm::Const(*r)),
                        Some(Value::Text(_)) => Err(QueryError::Unsupported(format!(
                            "aggregating the non-numeric constant column {}",
                            c.column
                        ))),
                        None => Ok(AggTerm::Var(Var::new(&var_names[root]))),
                    }
                }
            }
        };

    // SELECT aggregates come first (they define the output columns); HAVING
    // and ORDER BY aggregates reuse a matching SELECT aggregate or append a
    // hidden one sharing the same body.
    let mut agg_specs: Vec<(AggFunc, AggTerm)> = Vec::new();
    for (agg, arg) in &select_aggs {
        let term = build_term(*agg, arg, &mut unifier)?;
        output_columns.push(format!("{agg}"));
        agg_specs.push((*agg, term));
    }
    let visible_aggregates = agg_specs.len();
    let index_of = |specs: &mut Vec<(AggFunc, AggTerm)>, agg: AggFunc, term: AggTerm| {
        specs
            .iter()
            .position(|(a, t)| *a == agg && *t == term)
            .unwrap_or_else(|| {
                specs.push((agg, term));
                specs.len() - 1
            })
    };
    let mut having = Vec::new();
    for (agg, arg, op, threshold) in &parsed.having {
        let term = build_term(*agg, arg, &mut unifier)?;
        having.push(HavingCond {
            agg_index: index_of(&mut agg_specs, *agg, term),
            op: *op,
            threshold: *threshold,
        });
    }
    let order_by = match &parsed.order_by {
        None => None,
        Some((agg, arg, descending)) => {
            let term = build_term(*agg, arg, &mut unifier)?;
            Some(OrderSpec {
                agg_index: index_of(&mut agg_specs, *agg, term),
                descending: *descending,
            })
        }
    };

    // Non-equality WHERE comparisons: a comparison on a column the equality
    // conditions forced to a constant is decided statically; otherwise it
    // becomes a predicate on the column's body variable.
    let mut predicates: Vec<VarPredicate> = Vec::new();
    let mut unsatisfiable = false;
    for (lhs, op, value) in &parsed.comparisons {
        let root = resolve_root(lhs, &mut unifier)?;
        match &unifier.constant[root] {
            Some(c) => {
                if !op.holds(c.cmp(value)) {
                    unsatisfiable = true;
                }
            }
            None => predicates.push(VarPredicate {
                var: Var::new(&var_names[root]),
                op: *op,
                value: value.clone(),
            }),
        }
    }

    let body = ConjunctiveQuery::with_free_vars(atoms, free_vars);
    let aggregates: Vec<AggQuery> = agg_specs
        .into_iter()
        .map(|(agg, term)| AggQuery::new(agg, term, body.clone()))
        .collect();
    Ok(SqlQuery {
        query: aggregates[0].clone(),
        output_columns,
        aggregates,
        visible_aggregates,
        predicates,
        having,
        order_by,
        limit: parsed.limit,
        unsatisfiable,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::TableDef;
    use proptest::prelude::*;

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
    fn duplicate_from_aliases_are_rejected() {
        let cat = stock_catalog();
        // Explicit duplicate: `var_ids` entries keyed (alias, position) used
        // to be overwritten silently, conflating X across both relations.
        let err = parse_sql("SELECT SUM(X.Qty) FROM Dealers AS X, Stock AS X", &cat).unwrap_err();
        assert!(err.to_string().contains("duplicate table alias"), "{err}");
        // Case-insensitive, like every other identifier comparison.
        let err = parse_sql("SELECT SUM(x.Qty) FROM Dealers AS x, Stock AS X", &cat).unwrap_err();
        assert!(err.to_string().contains("duplicate table alias"), "{err}");
        // An implicit alias (the table name) colliding with an explicit one
        // is the same bug.
        let err =
            parse_sql("SELECT SUM(Stock.Qty) FROM Dealers AS Stock, Stock", &cat).unwrap_err();
        assert!(err.to_string().contains("duplicate table alias"), "{err}");
        // Distinct aliases keep working.
        assert!(parse_sql("SELECT SUM(S.Qty) FROM Dealers AS D, Stock AS S", &cat).is_ok());
    }

    #[test]
    fn select_resolves_through_the_unifier() {
        let cat = stock_catalog();
        // S.Town and D.Town are unified by the WHERE condition: selecting one
        // while grouping by the other names the same variable and must be
        // accepted (the textual qualifier comparison used to reject it).
        let sql = "SELECT S.Town, SUM(S.Qty) FROM Dealers AS D, Stock AS S \
                   WHERE D.Town = S.Town GROUP BY D.Town";
        let out = parse_sql(sql, &cat).unwrap();
        assert_eq!(
            out.output_columns,
            vec!["Town".to_string(), "SUM".to_string()]
        );
        assert_eq!(out.query.group_by().len(), 1);
        // An unqualified reference is unambiguous once its candidates are
        // unified …
        let sql = "SELECT Town, SUM(S.Qty) FROM Dealers AS D, Stock AS S \
                   WHERE D.Town = S.Town GROUP BY Town";
        assert!(parse_sql(sql, &cat).is_ok());
        // … but stays ambiguous without the equating condition — this used
        // to be silently accepted, grouping by an arbitrary Town.
        let sql = "SELECT Town, SUM(S.Qty) FROM Dealers AS D, Stock AS S \
                   WHERE D.Name = 'Smith' GROUP BY D.Town";
        let err = parse_sql(sql, &cat).unwrap_err();
        assert!(err.to_string().contains("ambiguous"), "{err}");
    }

    #[test]
    fn normalize_case_folds_outside_literals() {
        // Keywords, aliases, and column identifiers fold to uppercase;
        // literal contents are untouched.
        assert_eq!(
            normalize_sql("select  sum(s.qty) from Stock as s where s.Town = 'New  York'"),
            "SELECT SUM(S.QTY) FROM STOCK AS S WHERE S.TOWN = 'New  York'"
        );
        // The folded and original spellings parse to the same query.
        let cat = stock_catalog();
        let sql = "select d.Name, max(s.Qty) from Dealers as d, Stock as s \
                   where d.Town = s.Town group by d.Name";
        let a = parse_sql(sql, &cat).unwrap();
        let b = parse_sql(&normalize_sql(sql), &cat).unwrap();
        assert_eq!(a, b);
        // Output columns report the catalog's declared spelling either way.
        assert_eq!(
            a.output_columns,
            vec!["Name".to_string(), "MAX".to_string()]
        );
    }

    #[test]
    fn selected_column_with_mismatched_qualifier_is_rejected() {
        // D.Town and S.Town are distinct (un-equated) columns here, so
        // selecting one while grouping by the other must be an error rather
        // than silently grouping by the wrong column.
        let sql = "SELECT D.Town, SUM(S.Qty) \
                   FROM Dealers AS D, Stock AS S \
                   WHERE D.Name = 'Smith' \
                   GROUP BY S.Town";
        let err = parse_sql(sql, &stock_catalog()).unwrap_err();
        assert!(err.to_string().contains("must appear in GROUP BY"), "{err}");
        // Unqualified references to the grouped column stay accepted.
        let sql = "SELECT Name, SUM(S.Qty) \
                   FROM Dealers AS D, Stock AS S \
                   WHERE D.Town = S.Town \
                   GROUP BY D.Name";
        assert!(parse_sql(sql, &stock_catalog()).is_ok());
    }

    #[test]
    fn translate_introduction_query() {
        // The GROUP BY example from Section 1 of the paper.
        let sql = "SELECT D.Name, SUM(S.Qty) \
                   FROM Dealers AS D, Stock AS S \
                   WHERE D.Town = S.Town \
                   GROUP BY D.Name";
        let out = parse_sql(sql, &stock_catalog()).unwrap();
        let q = &out.query;
        assert_eq!(q.agg, AggFunc::Sum);
        assert_eq!(q.body.atoms().len(), 2);
        assert_eq!(q.group_by().len(), 1);
        // The shared Town variable must be the same in both atoms.
        let dealers = q.body.atom_for("Dealers").unwrap();
        let stock = q.body.atom_for("Stock").unwrap();
        assert_eq!(dealers.term(1), stock.term(1));
        assert_eq!(
            out.output_columns,
            vec!["Name".to_string(), "SUM".to_string()]
        );
        // Validation against the catalog's schema succeeds.
        assert!(q.validate(&stock_catalog().schema()).is_ok());
    }

    #[test]
    fn translate_constant_selection() {
        // g0 from the introduction: Smith's total stock.
        let sql = "SELECT SUM(S.Qty) FROM Dealers AS D, Stock AS S \
                   WHERE D.Town = S.Town AND D.Name = 'Smith'";
        let out = parse_sql(sql, &stock_catalog()).unwrap();
        let q = &out.query;
        assert!(q.is_closed());
        let dealers = q.body.atom_for("Dealers").unwrap();
        assert_eq!(dealers.term(0), &Term::Const(Value::text("Smith")));
        assert_eq!(q.agg, AggFunc::Sum);
    }

    #[test]
    fn count_star_and_numeric_literal_conditions() {
        let sql = "SELECT COUNT(*) FROM Stock AS S WHERE S.Qty = 35";
        let out = parse_sql(sql, &stock_catalog()).unwrap();
        assert_eq!(out.query.agg, AggFunc::Count);
        assert_eq!(out.query.term, AggTerm::Const(Rational::ONE));
        let stock = out.query.body.atom_for("Stock").unwrap();
        assert_eq!(stock.term(2), &Term::Const(Value::int(35)));
    }

    #[test]
    fn distinct_aggregates() {
        let sql = "SELECT COUNT(DISTINCT S.Qty) FROM Stock AS S";
        let out = parse_sql(sql, &stock_catalog()).unwrap();
        assert_eq!(out.query.agg, AggFunc::CountDistinct);
        let sql = "SELECT SUM(DISTINCT S.Qty) FROM Stock AS S";
        let out = parse_sql(sql, &stock_catalog()).unwrap();
        assert_eq!(out.query.agg, AggFunc::SumDistinct);
        let sql = "SELECT MIN(DISTINCT S.Qty) FROM Stock AS S";
        assert!(parse_sql(sql, &stock_catalog()).is_err());
    }

    #[test]
    fn unqualified_columns_and_implicit_alias() {
        let sql = "SELECT MAX(Qty) FROM Stock WHERE Product = 'Tesla X'";
        let out = parse_sql(sql, &stock_catalog()).unwrap();
        assert_eq!(out.query.agg, AggFunc::Max);
        let stock = out.query.body.atom_for("Stock").unwrap();
        assert_eq!(stock.term(0), &Term::Const(Value::text("Tesla X")));
    }

    #[test]
    fn doubled_quote_escapes_in_string_literals() {
        // SQL standard: '' inside a single-quoted literal is one quote.
        let sql = "SELECT SUM(S.Qty) FROM Dealers AS D, Stock AS S \
                   WHERE D.Town = S.Town AND D.Name = 'O''Brien'";
        let out = parse_sql(sql, &stock_catalog()).unwrap();
        let dealers = out.query.body.atom_for("Dealers").unwrap();
        assert_eq!(dealers.term(0), &Term::Const(Value::text("O'Brien")));
        // Same for double-quoted literals ("" is one double quote).
        let sql = "SELECT SUM(S.Qty) FROM Dealers AS D, Stock AS S \
                   WHERE D.Town = S.Town AND D.Name = \"the \"\"Dealer\"\"\"";
        let out = parse_sql(sql, &stock_catalog()).unwrap();
        let dealers = out.query.body.atom_for("Dealers").unwrap();
        assert_eq!(dealers.term(0), &Term::Const(Value::text("the \"Dealer\"")));
        // An escape at the very end must not swallow the terminator.
        let toks = tokenize("'a''' x").unwrap();
        assert_eq!(toks[0], Tok::Str("a'".to_string()));
        // Unterminated literals (including one ending in an escape) error.
        assert!(tokenize("'abc").is_err());
        assert!(tokenize("'abc''").is_err());
    }

    #[test]
    fn statement_terminator_only_trailing() {
        let cat = stock_catalog();
        // One trailing terminator is fine, with or without whitespace.
        assert!(parse_sql("SELECT SUM(S.Qty) FROM Stock AS S;", &cat).is_ok());
        assert!(parse_sql("SELECT SUM(S.Qty) FROM Stock AS S ; ", &cat).is_ok());
        // A semicolon in the middle of a statement is an error, not ignored:
        // this used to parse as `SELECT SUM(Qty) FROM Stock`.
        assert!(parse_sql("SELECT SUM(Qty) FROM ; Stock", &cat).is_err());
        assert!(parse_sql("SELECT SUM(S.Qty) FROM Stock AS S WHERE ; S.Qty = 1", &cat).is_err());
        // Doubled terminators and leading terminators are errors too.
        assert!(parse_sql("SELECT SUM(S.Qty) FROM Stock AS S;;", &cat).is_err());
        assert!(parse_sql("; SELECT SUM(S.Qty) FROM Stock AS S", &cat).is_err());
        // A second statement after the terminator is trailing garbage.
        assert!(parse_sql(
            "SELECT SUM(S.Qty) FROM Stock AS S; SELECT SUM(S.Qty) FROM Stock AS S",
            &cat
        )
        .is_err());
    }

    #[test]
    fn comparison_predicates_parse_and_normalise() {
        let cat = stock_catalog();
        // Every non-equality operator parses into a predicate on the column's
        // body variable; `<>` and `!=` normalise to the one `Ne` node.
        for (op, cmp) in [
            ("<", CmpOp::Lt),
            ("<=", CmpOp::Le),
            (">", CmpOp::Gt),
            (">=", CmpOp::Ge),
            ("<>", CmpOp::Ne),
            ("!=", CmpOp::Ne),
        ] {
            let sql = format!("SELECT SUM(S.Qty) FROM Stock AS S WHERE S.Qty {op} 35");
            let out = parse_sql(&sql, &cat).unwrap();
            assert_eq!(out.predicates.len(), 1, "{op}");
            assert_eq!(out.predicates[0].op, cmp, "{op}");
            assert_eq!(out.predicates[0].value, Value::int(35), "{op}");
            assert!(!out.unsatisfiable);
        }
        let a = parse_sql("SELECT SUM(S.Qty) FROM Stock AS S WHERE S.Qty <> 35", &cat).unwrap();
        let b = parse_sql("SELECT SUM(S.Qty) FROM Stock AS S WHERE S.Qty != 35", &cat).unwrap();
        assert_eq!(a, b, "<> and != must produce identical ASTs");
        // Comparisons compose with equality conditions mid-conjunction.
        let out = parse_sql(
            "SELECT SUM(S.Qty) FROM Dealers AS D, Stock AS S \
             WHERE D.Town = S.Town AND S.Qty >= 10",
            &cat,
        )
        .unwrap();
        assert_eq!(out.predicates.len(), 1);
        assert_eq!(out.predicates[0].op, CmpOp::Ge);
        // Column-column comparisons stay outside the fragment, named by
        // operator — not a tokenizer error.
        let err = parse_sql(
            "SELECT SUM(S.Qty) FROM Dealers AS D, Stock AS S \
             WHERE D.Town = S.Town AND S.Qty >= D.Name",
            &cat,
        )
        .unwrap_err();
        match &err {
            QueryError::Unsupported(msg) => {
                assert!(msg.contains(">="), "{msg}");
                assert!(msg.contains("two columns"), "{msg}");
            }
            other => panic!("expected Unsupported, got {other:?}"),
        }
        // A comparison on a column forced to a constant is decided statically.
        let out = parse_sql(
            "SELECT SUM(S.Qty) FROM Stock AS S WHERE S.Town = 'a' AND S.Town < 'b'",
            &cat,
        )
        .unwrap();
        assert!(out.predicates.is_empty() && !out.unsatisfiable);
        let out = parse_sql(
            "SELECT SUM(S.Qty) FROM Stock AS S WHERE S.Town = 'b' AND S.Town < 'a'",
            &cat,
        )
        .unwrap();
        assert!(out.unsatisfiable);
        // A bare `!` (not part of `!=`) stays a character-level parse error.
        assert!(matches!(
            parse_sql("SELECT SUM(S.Qty) FROM Stock AS S WHERE S.Qty ! 35", &cat),
            Err(QueryError::Parse(_))
        ));
        // Equality keeps working.
        assert!(parse_sql("SELECT SUM(S.Qty) FROM Stock AS S WHERE S.Qty = 35", &cat).is_ok());
    }

    #[test]
    fn having_order_by_and_limit_parse() {
        let cat = stock_catalog();
        let sql = "SELECT S.Town, SUM(S.Qty), COUNT(*) FROM Stock AS S GROUP BY S.Town \
                   HAVING SUM(S.Qty) > 10 AND MIN(S.Qty) <> 3 \
                   ORDER BY SUM(S.Qty) DESC LIMIT 2";
        let out = parse_sql(sql, &cat).unwrap();
        assert_eq!(out.visible_aggregates, 2);
        // SELECT SUM and COUNT, plus the hidden MIN from HAVING; the HAVING
        // SUM reuses the SELECT aggregate.
        assert_eq!(out.aggregates.len(), 3);
        assert_eq!(out.having.len(), 2);
        assert_eq!(out.having[0].agg_index, 0);
        assert_eq!(out.having[0].op, CmpOp::Gt);
        assert_eq!(out.having[1].agg_index, 2);
        assert_eq!(out.having[1].op, CmpOp::Ne);
        assert_eq!(
            out.order_by,
            Some(OrderSpec {
                agg_index: 0,
                descending: true
            })
        );
        assert_eq!(out.limit, Some(2));
        assert_eq!(out.output_columns, vec!["Town", "SUM", "COUNT"]);
        assert_eq!(out.query, out.aggregates[0]);
        // HAVING without GROUP BY (the single implicit group) parses too.
        let out = parse_sql(
            "SELECT SUM(S.Qty) FROM Stock AS S HAVING COUNT(*) >= 1",
            &cat,
        )
        .unwrap();
        assert_eq!(out.aggregates.len(), 2);
        assert_eq!(out.having[0].agg_index, 1);
        // ORDER BY ASC and bare ORDER BY both mean ascending.
        let asc = parse_sql(
            "SELECT S.Town, MAX(S.Qty) FROM Stock AS S GROUP BY S.Town ORDER BY MAX(S.Qty) ASC",
            &cat,
        )
        .unwrap();
        let bare = parse_sql(
            "SELECT S.Town, MAX(S.Qty) FROM Stock AS S GROUP BY S.Town ORDER BY MAX(S.Qty)",
            &cat,
        )
        .unwrap();
        assert_eq!(asc.order_by, bare.order_by);
        assert!(!asc.order_by.unwrap().descending);
    }

    #[test]
    fn staged_unsupported_shapes_are_named() {
        let cat = stock_catalog();
        let unsupported = |sql: &str| -> String {
            match parse_sql(sql, &cat).unwrap_err() {
                QueryError::Unsupported(msg) => msg,
                other => panic!("{sql}: expected Unsupported, got {other:?}"),
            }
        };
        // Each shape that parses but isn't executable fails with a message
        // naming the shape precisely.
        let msg = unsupported(
            "SELECT S.Town, SUM(S.Qty) FROM Stock AS S GROUP BY S.Town ORDER BY S.Town",
        );
        assert!(msg.contains("ORDER BY column Town"), "{msg}");
        let msg = unsupported("SELECT SUM(S.Qty) FROM Stock AS S LIMIT 5");
        assert!(msg.contains("LIMIT without ORDER BY"), "{msg}");
        let msg = unsupported(
            "SELECT S.Town, SUM(S.Qty) FROM Stock AS S GROUP BY S.Town HAVING S.Town = 'a'",
        );
        assert!(msg.contains("non-aggregate"), "{msg}");
        let msg = unsupported(
            "SELECT S.Town, SUM(S.Qty) FROM Stock AS S GROUP BY S.Town HAVING SUM(S.Qty) > 'a'",
        );
        assert!(msg.contains("numeric literals"), "{msg}");
        let msg = unsupported(
            "SELECT S.Town, MAX(S.Qty) FROM Stock AS S GROUP BY S.Town \
             ORDER BY MAX(S.Qty), MIN(S.Qty)",
        );
        assert!(msg.contains("multiple ORDER BY keys"), "{msg}");
    }

    #[test]
    fn errors() {
        let cat = stock_catalog();
        // self-join
        assert!(matches!(
            parse_sql("SELECT SUM(a.Qty) FROM Stock AS a, Stock AS b", &cat),
            Err(QueryError::SelfJoin(_))
        ));
        // unknown table
        assert!(parse_sql("SELECT SUM(x.Qty) FROM Nope AS x", &cat).is_err());
        // unknown column
        assert!(matches!(
            parse_sql("SELECT SUM(S.Weight) FROM Stock AS S", &cat),
            Err(QueryError::UnknownColumn { .. })
        ));
        // no aggregate
        assert!(parse_sql("SELECT S.Qty FROM Stock AS S", &cat).is_err());
        // selected column not grouped
        assert!(parse_sql("SELECT S.Town, SUM(S.Qty) FROM Stock AS S", &cat).is_err());
        // contradictory constants
        assert!(parse_sql(
            "SELECT SUM(S.Qty) FROM Stock AS S WHERE S.Town = 'a' AND S.Town = 'b'",
            &cat
        )
        .is_err());
        // trailing garbage
        assert!(parse_sql("SELECT SUM(S.Qty) FROM Stock AS S GARBAGE 5", &cat).is_err());
        // a fractional or negative LIMIT is a parse error
        assert!(matches!(
            parse_sql(
                "SELECT MAX(S.Qty) FROM Stock AS S ORDER BY MAX(S.Qty) LIMIT 2.5",
                &cat
            ),
            Err(QueryError::Parse(_))
        ));
        assert!(matches!(
            parse_sql(
                "SELECT MAX(S.Qty) FROM Stock AS S ORDER BY MAX(S.Qty) LIMIT -1",
                &cat
            ),
            Err(QueryError::Parse(_))
        ));
    }

    /// Deterministically re-spells `word` with a per-bit random case and
    /// appends it to `out`, prefixed by a random whitespace run.
    fn push_respelled(out: &mut String, word: &str, mut bits: u64) {
        const WS: &[&str] = &[" ", "  ", "\t", "\n ", " \t "];
        out.push_str(WS[(bits % WS.len() as u64) as usize]);
        bits /= WS.len() as u64;
        for c in word.chars() {
            if bits & 1 == 1 {
                out.extend(c.to_uppercase());
            } else {
                out.extend(c.to_lowercase());
            }
            bits >>= 1;
        }
    }

    /// Builds a syntactically valid statement over [`stock_catalog`] from a
    /// vector of draws: aggregate, shape (closed / grouped / unqualified),
    /// literal, optional comparison predicate, HAVING, ORDER BY / LIMIT, and
    /// terminator — each keyword and identifier re-spelled with random case
    /// and whitespace.
    const SQL_CHOICES: usize = 33;

    fn build_sql(choices: &[u64]) -> String {
        let pick = |i: usize, n: usize| (choices[i] % n as u64) as usize;
        let mut sql = String::new();
        let agg = ["SUM", "MIN", "MAX", "COUNT", "AVG"][pick(0, 5)];
        push_respelled(&mut sql, "SELECT", choices[1]);
        let grouped = pick(2, 2) == 1;
        if grouped {
            push_respelled(&mut sql, "D.Name,", choices[3]);
        }
        push_respelled(&mut sql, agg, choices[4]);
        sql.push('(');
        push_respelled(&mut sql, "S.Qty", choices[5]);
        sql.push(')');
        // Optionally a second SELECT aggregate (multi-aggregate lists).
        if pick(25, 2) == 1 {
            sql.push(',');
            push_respelled(&mut sql, "COUNT", choices[26]);
            sql.push_str("(*)");
        }
        push_respelled(&mut sql, "FROM", choices[6]);
        push_respelled(&mut sql, "Dealers", choices[7]);
        push_respelled(&mut sql, "AS", choices[8]);
        push_respelled(&mut sql, "D,", choices[9]);
        push_respelled(&mut sql, "Stock", choices[10]);
        push_respelled(&mut sql, "AS", choices[11]);
        push_respelled(&mut sql, "S", choices[12]);
        push_respelled(&mut sql, "WHERE", choices[13]);
        push_respelled(&mut sql, "D.Town", choices[14]);
        sql.push('=');
        push_respelled(&mut sql, "S.Town", choices[15]);
        match pick(16, 4) {
            0 => {}
            1 => {
                push_respelled(&mut sql, "AND", choices[17]);
                push_respelled(&mut sql, "D.Name", choices[18]);
                sql.push('=');
                // Literals keep their exact spelling, including escapes and
                // interior whitespace.
                sql.push_str(
                    ["'Smith'", "'O''Brien'", "'New  York'", "\"a \"\"b\"\"\""][pick(19, 4)],
                );
            }
            2 => {
                push_respelled(&mut sql, "AND", choices[17]);
                push_respelled(&mut sql, "S.Qty", choices[18]);
                sql.push('=');
                sql.push_str(["35", "3.5", "-7"][pick(19, 3)]);
            }
            _ => {
                // Comparison predicate over the new operator palette.
                push_respelled(&mut sql, "AND", choices[17]);
                push_respelled(&mut sql, "S.Qty", choices[18]);
                sql.push_str(["<", "<=", ">", ">=", "<>", "!="][pick(27, 6)]);
                sql.push_str(["35", "3.5", "-7"][pick(19, 3)]);
            }
        }
        if grouped {
            push_respelled(&mut sql, "GROUP", choices[20]);
            push_respelled(&mut sql, "BY", choices[21]);
            push_respelled(&mut sql, "D.Name", choices[22]);
        }
        if pick(28, 2) == 1 {
            push_respelled(&mut sql, "HAVING", choices[29]);
            push_respelled(&mut sql, "SUM", choices[26]);
            sql.push('(');
            push_respelled(&mut sql, "S.Qty", choices[5]);
            sql.push(')');
            sql.push_str(["=", "<", "<=", ">", ">=", "<>", "!="][pick(30, 7)]);
            sql.push_str("10");
        }
        if pick(31, 2) == 1 {
            push_respelled(&mut sql, "ORDER", choices[29]);
            push_respelled(&mut sql, "BY", choices[21]);
            push_respelled(&mut sql, "MAX", choices[26]);
            sql.push('(');
            push_respelled(&mut sql, "S.Qty", choices[5]);
            sql.push(')');
            match pick(32, 3) {
                0 => {}
                1 => push_respelled(&mut sql, "ASC", choices[29]),
                _ => push_respelled(&mut sql, "DESC", choices[29]),
            }
            if pick(24, 2) == 1 {
                push_respelled(&mut sql, "LIMIT", choices[29]);
                sql.push_str(" 3");
            }
        }
        if pick(23, 2) == 1 {
            push_respelled(&mut sql, ";", choices[24]);
        }
        sql
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The tokenizer and normalizer are total: no input panics them, and
        /// normalization never breaks tokenization that succeeded.
        #[test]
        fn prop_tokenize_never_panics(bytes in proptest::collection::vec(0u64..u64::MAX, 0..48)) {
            // A palette heavy on SQL punctuation, quote characters, and edge
            // cases (unterminated literals, doubled quotes, lone escapes),
            // plus arbitrary unicode drawn from the raw value.
            const PALETTE: &[char] = &[
                'a', 'Z', '0', '9', ' ', '\t', '\n', '\'', '"', ';', '.', ',', '*', '=', '(',
                ')', '_', '-', '/', '<', '>', '!', 'é', 'Ω',
            ];
            let s: String = bytes
                .iter()
                .map(|&b| {
                    if b % 4 == 0 {
                        char::from_u32((b >> 2) as u32 % 0x11_0000).unwrap_or('\u{FFFD}')
                    } else {
                        PALETTE[(b as usize / 4) % PALETTE.len()]
                    }
                })
                .collect();
            let direct = tokenize(&s);
            let normalized = normalize_sql(&s);
            let folded = tokenize(&normalized);
            // Tokenization of the normalized text can only fail if the
            // original failed too (normalization preserves literal structure).
            prop_assert!(direct.is_err() || folded.is_ok(), "{:?} vs {:?}", s, normalized);
        }

        /// Normalization is parse-transparent: for generated statements,
        /// parsing the normalized spelling yields exactly the same query as
        /// parsing the original.
        #[test]
        fn prop_parse_of_normalized_equals_parse(choices in proptest::collection::vec(0u64..u64::MAX, SQL_CHOICES)) {
            let cat = stock_catalog();
            let sql = build_sql(&choices);
            let direct = parse_sql(&sql, &cat);
            let normalized = parse_sql(&normalize_sql(&sql), &cat);
            match (direct, normalized) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "{}", sql),
                (Err(_), Err(_)) => {}
                (a, b) => panic!("normalization changed the outcome of {sql:?}: {a:?} vs {b:?}"),
            }
        }

        /// `<>` and `!=` are one operator: for any generated statement whose
        /// WHERE carries a not-equal comparison, the two spellings parse to
        /// identical ASTs.
        #[test]
        fn prop_ne_spellings_identical_ast(choices in proptest::collection::vec(0u64..u64::MAX, SQL_CHOICES)) {
            let cat = stock_catalog();
            let mut with_angle = choices.clone();
            with_angle[16] = 3; // force the comparison arm
            with_angle[27] = 4; // "<>"
            let mut with_bang = with_angle.clone();
            with_bang[27] = 5; // "!="
            let a = parse_sql(&build_sql(&with_angle), &cat);
            let b = parse_sql(&build_sql(&with_bang), &cat);
            prop_assert_eq!(a, b);
        }
    }
}
