//! On-disk formats: WAL records, segment parsing, and checkpoint files.
//!
//! ## Record layout
//!
//! A segment file is a plain concatenation of records. All integers are
//! little-endian; fact/value layouts come from [`rcqa_data::codec`].
//!
//! ```text
//! record  := [len: u32] [crc: u32] [payload: len bytes]
//! payload := [epoch: u64] [count: u32] event*
//! ```
//!
//! `crc` is the CRC-32 ([`crate::crc32`]) of `payload`. `epoch` is the
//! session epoch **after** the batch applied; since the session advances the
//! epoch by the number of effective events per commit, consecutive records
//! satisfy `epoch == previous_epoch + count` — an integrity invariant the
//! parser enforces, so a dropped, duplicated, or reordered record can never
//! replay silently.
//!
//! ## Torn tail vs interior corruption
//!
//! [`parse_segment`] distinguishes the two failure shapes a log can wake up
//! with:
//!
//! * a **torn tail** — the file ends mid-record (incomplete header, payload
//!   shorter than its length prefix, or a checksum-invalid record that runs
//!   to exactly end-of-file). That is what a crash mid-append leaves behind;
//!   the parser reports the valid prefix length and the caller truncates.
//! * **interior corruption** — a checksum/length/decode failure *followed by
//!   more bytes*, or a broken epoch chain. No crash produces that; it means
//!   the storage lied, and the parser refuses with [`WalError::Corrupt`]
//!   rather than silently dropping committed history.
//!
//! ## Checkpoint layout
//!
//! ```text
//! checkpoint := [magic: u32 = "RCK1"] [crc: u32] [payload]
//! payload    := [epoch: u64] [count: u64] fact*
//! ```
//!
//! `crc` guards `payload`. Checkpoints are streamed
//! ([`write_checkpoint`]) through
//! [`WalStorage::write_atomic`](crate::storage::WalStorage::write_atomic),
//! so a reader sees a complete checkpoint or none; a checksum failure here
//! means bit rot, and recovery falls back to the previous retained
//! checkpoint.

use crate::crc32::{crc32, Crc32};
use crate::storage::SeekWrite;
use crate::WalError;
use rcqa_data::codec::{self, FactRef, Reader};
use rcqa_data::{DeltaEvent, Fact};
use std::io::{self, SeekFrom};

/// Sanity cap on a single record's payload (256 MiB). A length prefix above
/// this is treated like any other bad length: torn if it runs to end-of-file,
/// corrupt otherwise.
pub const MAX_RECORD_LEN: u32 = 1 << 28;

/// Checkpoint file magic: `RCK1` little-endian.
const CHECKPOINT_MAGIC: u32 = u32::from_le_bytes(*b"RCK1");

/// One decoded WAL record: the batch of effective events that moved the
/// session to `epoch`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Batch {
    /// The session epoch after this batch applied.
    pub epoch: u64,
    /// The batch's effective events, in commit order.
    pub events: Vec<DeltaEvent>,
}

/// The outcome of parsing one segment file.
#[derive(Debug)]
pub struct ParsedSegment {
    /// The records, oldest first.
    pub batches: Vec<Batch>,
    /// Length of the valid prefix. Shorter than the file when a torn tail
    /// was dropped.
    pub valid_len: u64,
    /// Whether bytes past `valid_len` were discarded as a torn tail.
    pub torn: bool,
}

/// Encodes one record (length prefix + CRC + payload).
pub fn encode_record(epoch: u64, events: &[DeltaEvent]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(16 + events.len() * 32);
    payload.extend_from_slice(&epoch.to_le_bytes());
    payload.extend_from_slice(&(events.len() as u32).to_le_bytes());
    for event in events {
        codec::encode_event(event, &mut payload);
    }
    debug_assert!(payload.len() <= MAX_RECORD_LEN as usize, "record too large");
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

fn corrupt(file: &str, offset: u64, detail: impl Into<String>) -> WalError {
    WalError::Corrupt {
        file: file.to_string(),
        offset,
        detail: detail.into(),
    }
}

/// Parses a segment file's bytes.
///
/// `start_epoch` is the epoch the segment's name carries: the epoch the
/// session was at when the segment was started, which the first record must
/// continue from. `allow_torn_tail` is `true` only for the **newest**
/// segment — a crash can only tear the end of the log, so an earlier segment
/// that fails to parse is interior corruption no matter where it fails.
pub fn parse_segment(
    file: &str,
    bytes: &[u8],
    start_epoch: u64,
    allow_torn_tail: bool,
) -> Result<ParsedSegment, WalError> {
    let mut batches = Vec::new();
    let mut offset = 0usize;
    let mut epoch = start_epoch;
    loop {
        let remaining = bytes.len() - offset;
        if remaining == 0 {
            return Ok(ParsedSegment {
                batches,
                valid_len: offset as u64,
                torn: false,
            });
        }
        // A tail failure is only tolerable where a tail can be: the end of
        // the newest segment.
        let torn = |detail: &str| -> Result<ParsedSegment, WalError> {
            if allow_torn_tail {
                Ok(ParsedSegment {
                    batches: batches.clone(),
                    valid_len: offset as u64,
                    torn: true,
                })
            } else {
                Err(corrupt(file, offset as u64, detail))
            }
        };
        if remaining < 8 {
            return torn("incomplete record header");
        }
        let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().expect("4 bytes"));
        let stored_crc =
            u32::from_le_bytes(bytes[offset + 4..offset + 8].try_into().expect("4 bytes"));
        if len > MAX_RECORD_LEN || 8 + len as usize > remaining {
            // The declared payload runs past end-of-file (an absurd length
            // is the same condition: no file this size exists). Mid-file,
            // that leaves trailing bytes after the failure — corruption.
            if 8 + (len.min(MAX_RECORD_LEN) as usize) < remaining {
                return Err(corrupt(file, offset as u64, "bad record length"));
            }
            return torn("record payload extends past end of file");
        }
        let payload = &bytes[offset + 8..offset + 8 + len as usize];
        if crc32(payload) != stored_crc {
            if 8 + len as usize == remaining {
                // The checksum-invalid record is the very last thing in the
                // file: a torn final write.
                return torn("checksum mismatch on final record");
            }
            return Err(corrupt(file, offset as u64, "record checksum mismatch"));
        }
        // Checksummed bytes that fail to decode were corrupted before the
        // CRC was computed (or the CRC colluded — astronomically unlikely
        // from a torn write): report, never truncate.
        let mut reader = Reader::new(payload);
        let record_epoch = reader
            .u64()
            .map_err(|e| corrupt(file, offset as u64, e.to_string()))?;
        let count = reader
            .u32()
            .map_err(|e| corrupt(file, offset as u64, e.to_string()))?;
        let mut events = Vec::with_capacity((count as usize).min(payload.len()));
        for _ in 0..count {
            events.push(
                codec::decode_event(&mut reader)
                    .map_err(|e| corrupt(file, offset as u64, e.to_string()))?,
            );
        }
        if !reader.is_at_end() {
            return Err(corrupt(file, offset as u64, "trailing bytes in record"));
        }
        // The epoch chain: each batch advances the epoch by exactly its
        // event count. A record that breaks the chain was dropped,
        // duplicated, or reordered — never replay it.
        let expected = epoch
            .checked_add(events.len() as u64)
            .ok_or_else(|| corrupt(file, offset as u64, "epoch overflow"))?;
        if record_epoch != expected {
            return Err(corrupt(
                file,
                offset as u64,
                format!("epoch chain broken: record says {record_epoch}, expected {expected}"),
            ));
        }
        epoch = record_epoch;
        offset += 8 + len as usize;
        batches.push(Batch {
            epoch: record_epoch,
            events,
        });
    }
}

/// How many payload bytes [`write_checkpoint`] gathers before it checksums
/// and writes them: enough that the CRC runs its sliced loop over long
/// pieces and a write bypasses the storage's buffer, small enough that a
/// checkpoint holds only this much of its file in memory (plus the one fact
/// that crossed the mark).
const CHECKPOINT_CHUNK: usize = 64 << 10;

/// Streams the checkpoint file of the complete fact set at `epoch` into
/// `out`, with about 64 KiB of it in memory at a time. `facts` is walked
/// twice: once to count it, since the count heads the checksummed payload,
/// and once to encode it. The checksum is written as a placeholder, taken
/// over the payload chunk by chunk as it goes out, and patched into the
/// header last.
pub fn write_checkpoint(
    epoch: u64,
    facts: impl Iterator<Item = impl FactRef> + Clone,
    out: &mut dyn SeekWrite,
) -> io::Result<()> {
    let count = facts.clone().count() as u64;
    out.write_all(&CHECKPOINT_MAGIC.to_le_bytes())?;
    out.write_all(&0u32.to_le_bytes())?;
    let mut crc = Crc32::new();
    let mut payload = |bytes: &mut Vec<u8>| {
        crc.update(bytes);
        let written = out.write_all(bytes);
        bytes.clear();
        written
    };
    let mut chunk = Vec::with_capacity(CHECKPOINT_CHUNK);
    chunk.extend_from_slice(&epoch.to_le_bytes());
    chunk.extend_from_slice(&count.to_le_bytes());
    for fact in facts {
        codec::encode_fact(&fact, &mut chunk);
        if chunk.len() >= CHECKPOINT_CHUNK {
            payload(&mut chunk)?;
        }
    }
    payload(&mut chunk)?;
    out.seek(SeekFrom::Start(4))?;
    out.write_all(&crc.finish().to_le_bytes())?;
    out.seek(SeekFrom::End(0))?;
    Ok(())
}

/// Decodes and validates a checkpoint file, returning `(epoch, facts)`.
pub fn decode_checkpoint(file: &str, bytes: &[u8]) -> Result<(u64, Vec<Fact>), WalError> {
    if bytes.len() < 8 {
        return Err(corrupt(file, 0, "checkpoint shorter than its header"));
    }
    let magic = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes"));
    if magic != CHECKPOINT_MAGIC {
        return Err(corrupt(file, 0, "bad checkpoint magic"));
    }
    let stored_crc = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    let payload = &bytes[8..];
    if crc32(payload) != stored_crc {
        return Err(corrupt(file, 4, "checkpoint checksum mismatch"));
    }
    let mut reader = Reader::new(payload);
    let epoch = reader.u64().map_err(|e| corrupt(file, 8, e.to_string()))?;
    let count = reader.u64().map_err(|e| corrupt(file, 8, e.to_string()))?;
    let mut facts = Vec::with_capacity((count as usize).min(payload.len()));
    for _ in 0..count {
        facts.push(
            codec::decode_fact(&mut reader)
                .map_err(|e| corrupt(file, 8 + reader.position() as u64, e.to_string()))?,
        );
    }
    if !reader.is_at_end() {
        return Err(corrupt(file, 8, "trailing bytes in checkpoint"));
    }
    Ok((epoch, facts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rcqa_data::{fact, Rational, Value};
    use std::io::Cursor;

    /// [`write_checkpoint`] into memory.
    fn encode_checkpoint<'a>(epoch: u64, facts: impl Iterator<Item = &'a Fact> + Clone) -> Vec<u8> {
        let mut out = Cursor::new(Vec::new());
        write_checkpoint(epoch, facts, &mut out).expect("writing to memory cannot fail");
        out.into_inner()
    }

    fn batch(epoch: u64, n: usize) -> (u64, Vec<DeltaEvent>) {
        let events = (0..n)
            .map(|i| DeltaEvent::insert(fact!("R", format!("k{epoch}-{i}"), 1)))
            .collect();
        (epoch, events)
    }

    fn log(batches: &[(u64, Vec<DeltaEvent>)]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for (epoch, events) in batches {
            bytes.extend_from_slice(&encode_record(*epoch, events));
        }
        bytes
    }

    #[test]
    fn clean_segments_roundtrip() {
        let batches = vec![batch(2, 2), batch(3, 1), batch(7, 4)];
        let bytes = log(&batches);
        let parsed = parse_segment("wal", &bytes, 0, true).unwrap();
        assert!(!parsed.torn);
        assert_eq!(parsed.valid_len, bytes.len() as u64);
        assert_eq!(parsed.batches.len(), 3);
        assert_eq!(parsed.batches[2].epoch, 7);
        assert_eq!(parsed.batches[2].events, batches[2].1);
    }

    #[test]
    fn every_truncation_of_the_tail_recovers_the_longest_valid_prefix() {
        let batches = vec![batch(1, 1), batch(3, 2), batch(4, 1)];
        let bytes = log(&batches);
        let ends: Vec<u64> = {
            // Record boundaries: prefix sums of record sizes.
            let mut ends = vec![0u64];
            let mut at = 0u64;
            for (epoch, events) in &batches {
                at += encode_record(*epoch, events).len() as u64;
                ends.push(at);
            }
            ends
        };
        for cut in 0..=bytes.len() {
            let parsed = parse_segment("wal", &bytes[..cut], 0, true)
                .unwrap_or_else(|e| panic!("cut {cut}: {e}"));
            // The valid prefix is the largest record boundary <= cut, and
            // exactly the batches before it survive.
            let expect_len = *ends.iter().rfind(|&&e| e <= cut as u64).unwrap();
            assert_eq!(parsed.valid_len, expect_len, "cut {cut}");
            assert_eq!(parsed.torn, expect_len != cut as u64, "cut {cut}");
            let expect_batches = ends.iter().filter(|&&e| e != 0 && e <= cut as u64).count();
            assert_eq!(parsed.batches.len(), expect_batches, "cut {cut}");
        }
    }

    #[test]
    fn torn_tail_is_corruption_in_a_non_final_segment() {
        let bytes = log(&[batch(1, 1), batch(2, 1)]);
        let cut = bytes.len() - 3;
        assert!(parse_segment("wal", &bytes[..cut], 0, true).is_ok());
        let err = parse_segment("wal", &bytes[..cut], 0, false).unwrap_err();
        assert!(matches!(err, WalError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn interior_bitflips_are_reported_not_truncated() {
        let batches = vec![batch(1, 1), batch(2, 1), batch(3, 1)];
        let bytes = log(&batches);
        // Flip one payload byte of the FIRST record: later records are
        // intact, so this is interior corruption even with tails allowed.
        let mut tampered = bytes.clone();
        tampered[10] ^= 0x40;
        let err = parse_segment("wal", &tampered, 0, true).unwrap_err();
        match err {
            WalError::Corrupt { offset, .. } => assert_eq!(offset, 0),
            other => panic!("expected Corrupt, got {other}"),
        }
        // Flip a byte of the LAST record: that is a tearable tail.
        let mut tampered = bytes.clone();
        let last = tampered.len() - 1;
        tampered[last] ^= 0x01;
        let parsed = parse_segment("wal", &tampered, 0, true).unwrap();
        assert!(parsed.torn);
        assert_eq!(parsed.batches.len(), 2);
        // ... but still corruption for a non-final segment.
        assert!(parse_segment("wal", &tampered, 0, false).is_err());
    }

    #[test]
    fn epoch_chain_violations_are_corrupt() {
        // Duplicated record.
        let (epoch, events) = batch(1, 1);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&encode_record(epoch, &events));
        bytes.extend_from_slice(&encode_record(epoch, &events));
        let err = parse_segment("wal", &bytes, 0, true).unwrap_err();
        assert!(err.to_string().contains("epoch chain"), "{err}");
        // Gap: a segment starting at 0 whose first record claims epoch 5.
        let bytes = log(&[batch(5, 1)]);
        assert!(parse_segment("wal", &bytes, 0, true).is_err());
        // The same record is fine when the segment starts at 4.
        assert!(parse_segment("wal", &bytes, 4, true).is_ok());
    }

    #[test]
    fn checkpoints_roundtrip_and_reject_corruption() {
        let facts = vec![fact!("R", "a", 1), fact!("S", "b", "c", 2)];
        let bytes = encode_checkpoint(9, facts.iter());
        let (epoch, decoded) = decode_checkpoint("ck", &bytes).unwrap();
        assert_eq!(epoch, 9);
        assert_eq!(decoded, facts);
        // Any single-byte flip is caught (magic, crc, or payload).
        for i in 0..bytes.len() {
            let mut tampered = bytes.clone();
            tampered[i] ^= 0x10;
            assert!(decode_checkpoint("ck", &tampered).is_err(), "flip at {i}");
        }
        // Truncations are caught.
        for cut in 0..bytes.len() {
            assert!(decode_checkpoint("ck", &bytes[..cut]).is_err(), "cut {cut}");
        }
        // Empty instance checkpoints are fine.
        let empty = encode_checkpoint(0, [].iter());
        assert_eq!(decode_checkpoint("ck", &empty).unwrap(), (0, Vec::new()));
    }

    /// The `RCK1` layout, byte for byte: two facts at epoch 9, one field a
    /// line. Every checkpoint on disk is in this layout, so it must not move.
    #[test]
    fn a_checkpoint_keeps_its_byte_layout() {
        let golden = [
            // Magic "RCK1", the CRC-32 of the payload, epoch 9, two facts.
            "52434b31 02876551 0900000000000000 0200000000000000",
            // R, arity 2: the text 'a', then the rational 1/1.
            "01000000 52 02000000 00 01000000 61",
            "01 01000000000000000000000000000000 01000000000000000000000000000000",
            // S, arity 3: the texts 'b' and 'c', then the rational 2/1.
            "01000000 53 03000000 00 01000000 62 00 01000000 63",
            "01 02000000000000000000000000000000 01000000000000000000000000000000",
        ];
        let golden: Vec<u8> = golden
            .iter()
            .flat_map(|line| line.split_whitespace())
            .flat_map(|field| (0..field.len()).step_by(2).map(move |i| &field[i..i + 2]))
            .map(|byte| u8::from_str_radix(byte, 16).unwrap())
            .collect();
        let facts = vec![fact!("R", "a", 1), fact!("S", "b", "c", 2)];
        assert_eq!(encode_checkpoint(9, facts.iter()), golden);
        assert_eq!(decode_checkpoint("ck", &golden).unwrap(), (9, facts));
    }

    /// Applies `edits` to `bytes`, each `(at, kind, byte)` overwriting,
    /// inserting or removing one byte at `at` modulo the length.
    fn mutate(mut bytes: Vec<u8>, edits: &[(usize, u8, u8)]) -> Vec<u8> {
        for &(at, kind, byte) in edits {
            let at = at % (bytes.len() + 1);
            match kind {
                0 if at < bytes.len() => bytes[at] = byte,
                1 => bytes.insert(at, byte),
                _ if at < bytes.len() => {
                    bytes.remove(at);
                }
                _ => {}
            }
        }
        bytes
    }

    /// Facts over every value shape the codec has: text (empty and not),
    /// integers, negative and extreme rationals.
    fn sample_facts() -> Vec<Fact> {
        vec![
            fact!("R", "a", 1),
            fact!("Stock", "", -7, "Boston"),
            Fact::new(
                "S",
                [
                    Value::num(Rational::new(-22, 7).unwrap()),
                    Value::num(Rational::new(i128::MAX, 2).unwrap()),
                ],
            ),
        ]
    }

    /// What a decoder may answer on checksum-valid bytes: a value or
    /// [`WalError::Corrupt`] — never an I/O error, never a panic.
    fn assert_ok_or_corrupt<T>(result: Result<T, WalError>) {
        if let Err(err) = result {
            assert!(matches!(err, WalError::Corrupt { .. }), "{err}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The decoders behind the checksum: payloads with a *valid* CRC,
        /// either random bytes or a valid payload with a few bytes
        /// overwritten, inserted or removed, are decoded as a checkpoint and
        /// as segment records. Each decoder returns `Ok` or `Corrupt`.
        #[test]
        fn checksum_valid_garbage_decodes_or_is_corrupt(
            random in proptest::collection::vec(0u8..=255, 0..96),
            edits in proptest::collection::vec((0usize..4096, 0u8..3, 0u8..=255), 0..5),
            use_random in proptest::bool::ANY,
            records in 1usize..4,
            start_epoch in 0u64..4,
            allow_torn_tail in proptest::bool::ANY,
        ) {
            let facts = sample_facts();
            let payload = |valid: Vec<u8>| match use_random {
                true => random.clone(),
                false => mutate(valid, &edits),
            };

            let checkpoint = encode_checkpoint(3, facts.iter());
            let body = payload(checkpoint[8..].to_vec());
            let mut file = CHECKPOINT_MAGIC.to_le_bytes().to_vec();
            file.extend_from_slice(&crc32(&body).to_le_bytes());
            file.extend_from_slice(&body);
            assert_ok_or_corrupt(decode_checkpoint("ck", &file));

            let mut segment = Vec::new();
            for (i, fact) in facts.iter().cycle().take(records).enumerate() {
                let events = [DeltaEvent::insert(fact.clone()), DeltaEvent::delete(fact.clone())];
                let record = encode_record(start_epoch + 2 * (i as u64 + 1), &events);
                let body = payload(record[8..].to_vec());
                segment.extend_from_slice(&(body.len() as u32).to_le_bytes());
                segment.extend_from_slice(&crc32(&body).to_le_bytes());
                segment.extend_from_slice(&body);
            }
            assert_ok_or_corrupt(parse_segment("wal", &segment, start_epoch, allow_torn_tail));
        }
    }
}
