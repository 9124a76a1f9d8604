//! Hand-rolled binary codecs for the durable serving layer.
//!
//! The workspace builds offline (no `serde`, no `bincode` — see
//! `crates/shims`), so the write-ahead log in `rcqa-wal` serialises facts
//! with these explicit, versioned byte layouts. The format is
//! **self-describing** (no schema needed to decode) and **exact**:
//! [`Rational`]s round-trip as their raw `i128` numerator/denominator pairs,
//! never through text or floating point.
//!
//! ## Byte layout
//!
//! All integers are little-endian. Strings are UTF-8.
//!
//! ```text
//! value   := 0x00 string            — Value::Text
//!          | 0x01 i128 i128         — Value::Num (numerator, denominator)
//! string  := [len: u32] [len bytes]
//! fact    := string                 — relation name
//!            [arity: u32] value*    — arguments
//! event   := [op: u8] fact          — 0x00 insert, 0x01 delete
//! ```
//!
//! Integrity is the **caller's** job: these codecs define layout only. The
//! WAL wraps every record in a length prefix and a CRC32 (see `rcqa-wal`),
//! so a [`DecodeError`] on checksum-valid bytes indicates real corruption,
//! not a torn write.

use crate::delta::{DeltaEvent, DeltaOp};
use crate::fact::Fact;
use crate::rational::Rational;
use crate::value::Value;
use std::fmt;

/// Value tag byte for [`Value::Text`].
const TAG_TEXT: u8 = 0x00;
/// Value tag byte for [`Value::Num`].
const TAG_NUM: u8 = 0x01;
/// Op tag byte for [`DeltaOp::Insert`].
const TAG_INSERT: u8 = 0x00;
/// Op tag byte for [`DeltaOp::Delete`].
const TAG_DELETE: u8 = 0x01;

/// A structural decode failure: the bytes do not describe a well-formed
/// value/fact/event.
///
/// `offset` is the position *within the decoded buffer* where the problem was
/// detected, so callers layering framing on top (the WAL) can report absolute
/// file offsets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Byte offset into the buffer where decoding failed.
    pub offset: usize,
    /// What was wrong at that offset.
    pub detail: &'static str,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "decode error at byte {}: {}", self.offset, self.detail)
    }
}

impl std::error::Error for DecodeError {}

/// A cursor over an immutable byte buffer, tracking the read offset for
/// error reporting.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over the whole buffer.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// The current read offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Whether the whole buffer has been consumed.
    pub fn is_at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn err(&self, detail: &'static str) -> DecodeError {
        DecodeError {
            offset: self.pos,
            detail,
        }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let slice = &self.buf[self.pos..end];
                self.pos = end;
                Ok(slice)
            }
            None => Err(self.err(what)),
        }
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1, "unexpected end of buffer reading u8")?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4, "unexpected end of buffer reading u32")?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8, "unexpected end of buffer reading u64")?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads a little-endian `i128`.
    pub fn i128(&mut self) -> Result<i128, DecodeError> {
        let b = self.take(16, "unexpected end of buffer reading i128")?;
        Ok(i128::from_le_bytes(b.try_into().expect("16 bytes")))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<&'a str, DecodeError> {
        let at = self.pos;
        let len = self.u32()? as usize;
        let bytes = self.take(len, "string extends past end of buffer")?;
        std::str::from_utf8(bytes).map_err(|_| DecodeError {
            offset: at,
            detail: "string is not valid UTF-8",
        })
    }
}

/// Appends a length-prefixed UTF-8 string.
pub fn encode_string(s: &str, out: &mut Vec<u8>) {
    debug_assert!(s.len() <= u32::MAX as usize, "string too long to encode");
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Appends one [`Value`].
pub fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Text(s) => {
            out.push(TAG_TEXT);
            encode_string(s, out);
        }
        Value::Num(r) => {
            out.push(TAG_NUM);
            out.extend_from_slice(&r.numerator().to_le_bytes());
            out.extend_from_slice(&r.denominator().to_le_bytes());
        }
    }
}

/// Decodes one [`Value`].
pub fn decode_value(r: &mut Reader<'_>) -> Result<Value, DecodeError> {
    let at = r.position();
    match r.u8()? {
        TAG_TEXT => Ok(Value::text(r.string()?)),
        TAG_NUM => {
            let num = r.i128()?;
            let den = r.i128()?;
            let rational = Rational::new(num, den).map_err(|_| DecodeError {
                offset: at,
                detail: "rational has no i128 normal form",
            })?;
            // Encoded rationals are always in normal form (the type invariant
            // guarantees it), so a non-normal pair here is corruption that
            // happened to survive the CRC — reject rather than silently
            // repair.
            if rational.numerator() != num || rational.denominator() != den {
                return Err(DecodeError {
                    offset: at,
                    detail: "rational is not in normal form",
                });
            }
            Ok(Value::Num(rational))
        }
        _ => Err(DecodeError {
            offset: at,
            detail: "unknown value tag",
        }),
    }
}

/// A fact as the encoder reads it — a relation name and its arguments —
/// wherever it is stored: a [`Fact`], or a row of a columnar index whose
/// values are looked up one by one, so a checkpoint of the index allocates no
/// fact per row.
pub trait FactRef {
    /// The relation name.
    fn relation(&self) -> &str;
    /// The number of arguments.
    fn arity(&self) -> usize;
    /// The arguments, in order.
    fn args(&self) -> impl Iterator<Item = &Value>;
}

impl FactRef for Fact {
    fn relation(&self) -> &str {
        Fact::relation(self)
    }

    fn arity(&self) -> usize {
        Fact::arity(self)
    }

    fn args(&self) -> impl Iterator<Item = &Value> {
        Fact::args(self).iter()
    }
}

impl<T: FactRef + ?Sized> FactRef for &T {
    fn relation(&self) -> &str {
        (**self).relation()
    }

    fn arity(&self) -> usize {
        (**self).arity()
    }

    fn args(&self) -> impl Iterator<Item = &Value> {
        (**self).args()
    }
}

/// Appends one fact.
pub fn encode_fact(fact: &impl FactRef, out: &mut Vec<u8>) {
    encode_string(fact.relation(), out);
    out.extend_from_slice(&(fact.arity() as u32).to_le_bytes());
    for arg in fact.args() {
        encode_value(arg, out);
    }
}

/// Decodes one [`Fact`].
pub fn decode_fact(r: &mut Reader<'_>) -> Result<Fact, DecodeError> {
    let relation = r.string()?;
    let at = r.position();
    let arity = r.u32()? as usize;
    // An arity prefix cannot promise more values than one byte each could
    // fit in the rest of the buffer; checking up front keeps a corrupt
    // prefix from reserving absurd capacity.
    if arity > r.buf.len() - r.position() {
        return Err(DecodeError {
            offset: at,
            detail: "fact arity exceeds remaining buffer",
        });
    }
    // Decoding through an exact-length iterator puts the arguments in one
    // allocation. After the first error the remaining seats get a
    // placeholder and the fact is discarded.
    let mut failed = None;
    let fact = Fact::new(
        relation,
        (0..arity).map(|_| match failed {
            Some(_) => Value::int(0),
            None => decode_value(r).unwrap_or_else(|e| {
                failed = Some(e);
                Value::int(0)
            }),
        }),
    );
    match failed {
        Some(e) => Err(e),
        None => Ok(fact),
    }
}

/// Appends one [`DeltaEvent`].
pub fn encode_event(event: &DeltaEvent, out: &mut Vec<u8>) {
    out.push(match event.op {
        DeltaOp::Insert => TAG_INSERT,
        DeltaOp::Delete => TAG_DELETE,
    });
    encode_fact(&event.fact, out);
}

/// Decodes one [`DeltaEvent`].
pub fn decode_event(r: &mut Reader<'_>) -> Result<DeltaEvent, DecodeError> {
    let at = r.position();
    let op = match r.u8()? {
        TAG_INSERT => DeltaOp::Insert,
        TAG_DELETE => DeltaOp::Delete,
        _ => {
            return Err(DecodeError {
                offset: at,
                detail: "unknown delta-op tag",
            })
        }
    };
    Ok(DeltaEvent {
        op,
        fact: decode_fact(r)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fact;
    use crate::rational::ratio;

    fn roundtrip_value(v: Value) {
        let mut buf = Vec::new();
        encode_value(&v, &mut buf);
        let mut r = Reader::new(&buf);
        assert_eq!(decode_value(&mut r).unwrap(), v);
        assert!(r.is_at_end());
    }

    #[test]
    fn values_roundtrip_exactly() {
        roundtrip_value(Value::text(""));
        roundtrip_value(Value::text("Boston"));
        roundtrip_value(Value::text("O'Brien — ünïcode ☃"));
        roundtrip_value(Value::int(0));
        roundtrip_value(Value::int(-7));
        roundtrip_value(Value::num(ratio(22, 7)));
        roundtrip_value(Value::num(ratio(-22, 7)));
        roundtrip_value(Value::num(Rational::new(i128::MAX, 2).unwrap()));
    }

    #[test]
    fn facts_and_events_roundtrip() {
        let f = fact!("Stock", "Tesla X", "Boston", 35);
        let mut buf = Vec::new();
        encode_fact(&f, &mut buf);
        let mut r = Reader::new(&buf);
        assert_eq!(decode_fact(&mut r).unwrap(), f);
        assert!(r.is_at_end());

        for event in [DeltaEvent::insert(f.clone()), DeltaEvent::delete(f)] {
            let mut buf = Vec::new();
            encode_event(&event, &mut buf);
            let mut r = Reader::new(&buf);
            assert_eq!(decode_event(&mut r).unwrap(), event);
            assert!(r.is_at_end());
        }
    }

    #[test]
    fn truncated_and_garbled_buffers_are_rejected_with_offsets() {
        let mut buf = Vec::new();
        encode_event(&DeltaEvent::insert(fact!("R", "a", 1)), &mut buf);
        // Every strict prefix fails to decode (and never panics).
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            assert!(decode_event(&mut r).is_err(), "prefix of {cut} decoded");
        }
        // An unknown tag reports the offset it sits at.
        let mut garbled = buf.clone();
        garbled[0] = 0xEE;
        let err = decode_event(&mut Reader::new(&garbled)).unwrap_err();
        assert_eq!(err.offset, 0);
        // Invalid UTF-8 in the relation name.
        let mut bad_utf8 = buf.clone();
        bad_utf8[5] = 0xFF; // first byte of the relation name "R"
        assert!(decode_event(&mut Reader::new(&bad_utf8)).is_err());
    }

    #[test]
    fn non_normal_rationals_are_corruption() {
        // 2/4 is not in normal form; hand-assemble the bytes.
        let mut buf = vec![TAG_NUM];
        buf.extend_from_slice(&2i128.to_le_bytes());
        buf.extend_from_slice(&4i128.to_le_bytes());
        let err = decode_value(&mut Reader::new(&buf)).unwrap_err();
        assert_eq!(err.detail, "rational is not in normal form");
        // Zero denominator.
        let mut buf = vec![TAG_NUM];
        buf.extend_from_slice(&1i128.to_le_bytes());
        buf.extend_from_slice(&0i128.to_le_bytes());
        assert!(decode_value(&mut Reader::new(&buf)).is_err());
    }
}
