//! # rcqa-wal
//!
//! Durability for the rcqa serving layer: an **append-only, epoch-keyed
//! write-ahead log** of [`DeltaEvent`] batches plus **checkpointed
//! snapshots**, built for the session's snapshot-chain architecture — a
//! commit already produces an explicit effective-event batch and a monotone
//! epoch, which is exactly a log record.
//!
//! The workspace builds offline (no `serde`, no `crc`, no `tempfile` from
//! crates.io — see `crates/shims`), so the record format is hand-rolled:
//! length-prefixed binary records carrying epoch, op, and facts
//! ([`rcqa_data::codec`]: `Value`/`Rational` encoded exactly, `i128`
//! numerator/denominator as raw little-endian bytes), each guarded by an
//! in-tree CRC32 ([`crc32::crc32`]).
//!
//! ## Log structure
//!
//! A WAL directory holds **segments** (`wal-<start-epoch>.log`) and
//! **checkpoints** (`ck-<epoch>.snap`):
//!
//! * a segment named `wal-S` contains records for epochs `> S`, in order;
//!   consecutive records satisfy `epoch == previous + |events|`, an
//!   integrity chain the recovery parser enforces ([`record`]).
//! * a checkpoint named `ck-E` is the complete fact set at epoch `E`,
//!   published atomically (temp file + fsync + rename + directory fsync).
//!   Beginning one starts a fresh segment; **older segments are removed
//!   only once the oldest *retained* checkpoint durably covers them**, so
//!   every retained checkpoint always has a full replay chain behind it.
//!
//! ## Checkpoints off the writer's path
//!
//! A checkpoint is three steps, so that the file — megabytes at 10⁵ facts —
//! is not written while the log's writer waits:
//!
//! 1. [`Wal::begin_checkpoint`], by the writer: makes the log durable up to
//!    `E` and rolls the segment at `E`. That is all the coverage argument
//!    needs: every later record lands in a segment the checkpoint does not
//!    cover.
//! 2. [`CheckpointWrite::write`], on any thread, on a storage handle of its
//!    own ([`WalStorage::publish_handle`]): streams the facts at `E` into
//!    `ck-E` and publishes it, while the writer keeps appending.
//! 3. [`Wal::finish_checkpoint`], by the writer again: retains a published
//!    checkpoint and runs retention and eviction, or forgets a failed one.
//!
//! At most one checkpoint is in flight between steps 1 and 3. A crash in
//! between leaves the older checkpoint and every segment since, so recovery
//! replays from there. [`Wal::checkpoint`] runs the three steps in one call;
//! the serving session runs step 2 on a thread spawned per checkpoint, over
//! an immutable snapshot, and joins it at its next commit, `sync` or drop.
//!
//! ## Recovery semantics
//!
//! [`Wal::open`] loads the **newest valid checkpoint** (corrupt checkpoint
//! files are skipped — and deleted — in favour of older retained ones),
//! then parses the segment chain and returns the batches with epochs past
//! the checkpoint for the caller to replay. Failure handling is two-sided
//! by design:
//!
//! * a **torn tail** — the newest segment ends mid-record, exactly what a
//!   crash mid-append leaves — is truncated away, recovering the longest
//!   valid prefix;
//! * **interior corruption** — a bad length/checksum *before* the tail, a
//!   broken epoch chain, a gap between segments — is reported as
//!   [`WalError::Corrupt`] with the file and byte offset. Committed history
//!   is never silently dropped, reordered, or duplicated.
//!
//! ## Sync policies
//!
//! [`SyncPolicy`] trades write latency for the crash-durability window:
//!
//! * [`Always`](SyncPolicy::Always) — fsync before every commit
//!   acknowledgement; an acknowledged commit survives any crash.
//! * [`Never`](SyncPolicy::Never) — leave flushing to the OS (and to
//!   [`Wal::sync`], checkpoints and a clean drop); a process crash loses
//!   nothing (the bytes are in the page cache), an OS crash may lose any
//!   unflushed suffix — **as a suffix**, never a gap.
//!
//! If an append fails (disk full, permission lost, injected fault), the
//! partial record is rolled back by truncation and the error is returned —
//! the log never acknowledges a record it could not write whole. If even
//! the rollback fails, the WAL **poisons** itself: every later append fails
//! fast, while reads (and the owning session's in-memory serving) continue.
//!
//! ## Fault injection
//!
//! Every byte of I/O goes through the [`storage::WalStorage`] trait.
//! [`storage::FsStorage`] is the real directory; [`storage::MemStorage`] is
//! a shared in-memory map; [`storage::FailingStorage`] deterministically
//! tears writes after a byte budget or fails operations after an op budget,
//! which is how the crash-recovery test matrix drives every fault point
//! without a single real crash.

#![warn(missing_docs)]

pub mod crc32;
pub mod record;
pub mod storage;

pub use record::Batch;
pub use storage::{FailingStorage, FsStorage, MemStorage, WalStorage};

use rcqa_data::codec::FactRef;
use rcqa_data::{DeltaEvent, Fact};
use record::{decode_checkpoint, encode_record, parse_segment, write_checkpoint};
use std::fmt;
use std::io;
use std::sync::Arc;

/// Errors raised by the WAL.
///
/// `Io` chains the underlying [`std::io::Error`] through
/// [`std::error::Error::source`]; `Corrupt` pinpoints the file and byte
/// offset where recovery found interior damage.
#[derive(Debug, Clone)]
pub enum WalError {
    /// An I/O operation failed; the source error is attached.
    Io(Arc<io::Error>),
    /// The log or a checkpoint is damaged in a way a crash cannot explain
    /// (interior bad length/checksum, broken epoch chain, missing segment).
    Corrupt {
        /// The file the damage was found in.
        file: String,
        /// Byte offset of the damaged record within that file.
        offset: u64,
        /// What was wrong there.
        detail: String,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "WAL I/O error: {e}"),
            WalError::Corrupt {
                file,
                offset,
                detail,
            } => {
                write!(f, "WAL corrupt: {file} at byte {offset}: {detail}")
            }
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io(e) => Some(&**e),
            WalError::Corrupt { .. } => None,
        }
    }
}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> WalError {
        WalError::Io(Arc::new(e))
    }
}

/// When the log fsyncs relative to commit acknowledgement. See the
/// [crate docs](self) for the guarantee each policy buys.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Fsync before every commit acknowledgement.
    #[default]
    Always,
    /// Never fsync on append; flushing is the OS's business.
    Never,
}

/// Configuration of a [`Wal`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalOptions {
    /// Fsync cadence (default [`SyncPolicy::Always`]).
    pub sync: SyncPolicy,
    /// Write a checkpoint once at least this many epochs accumulated since
    /// the last one; `0` disables checkpointing (default `1024`).
    pub checkpoint_every: u64,
}

impl Default for WalOptions {
    fn default() -> WalOptions {
        WalOptions {
            sync: SyncPolicy::default(),
            checkpoint_every: 1024,
        }
    }
}

/// How many checkpoints a log keeps: the newest plus one fallback in case the
/// newest file rots.
const RETAIN_CHECKPOINTS: usize = 2;

/// What [`Wal::open`] recovered from storage: the newest valid checkpoint
/// (if any) and the log tail past it, ready for the caller to replay.
#[derive(Debug)]
pub struct Recovery {
    /// Epoch of the checkpoint the recovery starts from (0 when none).
    pub checkpoint_epoch: u64,
    /// The checkpoint's facts (empty when none).
    pub checkpoint_facts: Vec<Fact>,
    /// Log batches with epochs past the checkpoint, oldest first. Replaying
    /// them in order over the checkpoint reaches [`Recovery::epoch`].
    pub batches: Vec<Batch>,
    /// The recovered epoch: the last batch's, or the checkpoint's.
    pub epoch: u64,
    /// `Some((file, valid_len))` when a torn tail was found and truncated
    /// away at `valid_len`.
    pub torn_tail: Option<(String, u64)>,
    /// Corrupt checkpoint files that were skipped (and removed) in favour of
    /// an older retained checkpoint.
    pub skipped_checkpoints: Vec<String>,
}

/// The file name of the segment whose records have epochs `> start`.
pub fn segment_name(start: u64) -> String {
    format!("wal-{start:020}.log")
}

/// The file name of the checkpoint holding the fact set at `epoch`.
pub fn checkpoint_name(epoch: u64) -> String {
    format!("ck-{epoch:020}.snap")
}

fn parse_name(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    let digits = name.strip_prefix(prefix)?.strip_suffix(suffix)?;
    if digits.len() != 20 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// The write-ahead log: an owned [`WalStorage`] plus the in-memory cursor
/// state (active segment, epoch positions, sync debt).
///
/// A `Wal` is single-writer by construction — the owning session serialises
/// appends behind its writer lock. All mutating methods take `&mut self`.
#[derive(Debug)]
pub struct Wal {
    storage: Box<dyn WalStorage>,
    options: WalOptions,
    /// Start epochs of live segments, ascending; the last is the active one.
    segments: Vec<u64>,
    /// Epochs of retained checkpoints, ascending.
    checkpoints: Vec<u64>,
    /// Epoch of the checkpoint begun and not yet finished, if any.
    pending: Option<u64>,
    /// Byte length of the active segment's valid content.
    active_len: u64,
    /// Epoch of the last appended record.
    last_epoch: u64,
    /// Last epoch known durable (covered by an fsync or a checkpoint).
    durable_epoch: u64,
    /// Whether an append landed since the last fsync.
    unsynced: bool,
    /// Set when a failed append could not be rolled back: the log's tail is
    /// in an unknown state, so further appends must not land after it.
    poisoned: bool,
}

impl Wal {
    /// Opens a WAL over `storage`, recovering whatever a previous process
    /// left: the newest valid checkpoint plus the replayable log tail.
    ///
    /// A fresh (empty) storage opens at epoch 0 with an empty [`Recovery`].
    /// A torn tail on the newest segment is truncated; interior corruption
    /// is a [`WalError::Corrupt`].
    pub fn open(
        mut storage: Box<dyn WalStorage>,
        options: WalOptions,
    ) -> Result<(Wal, Recovery), WalError> {
        let names = storage.list()?;
        let mut segment_starts: Vec<u64> = Vec::new();
        let mut checkpoint_epochs: Vec<u64> = Vec::new();
        for name in &names {
            if let Some(start) = parse_name(name, "wal-", ".log") {
                segment_starts.push(start);
            } else if let Some(epoch) = parse_name(name, "ck-", ".snap") {
                checkpoint_epochs.push(epoch);
            } else if name.ends_with(".tmp") {
                // A checkpoint publication died before its rename; the
                // half-written temp file is garbage by construction.
                let _ = storage.remove(name);
            }
        }
        segment_starts.sort_unstable();
        checkpoint_epochs.sort_unstable();

        // Newest valid checkpoint wins; corrupt ones are skipped (and
        // deleted, so they can never later license segment eviction they
        // do not actually cover).
        let mut skipped_checkpoints = Vec::new();
        let mut checkpoint: Option<(u64, Vec<Fact>)> = None;
        while let Some(epoch) = checkpoint_epochs.pop() {
            let file = checkpoint_name(epoch);
            let valid = match storage.read(&file) {
                Ok(bytes) => match decode_checkpoint(&file, &bytes) {
                    Ok((payload_epoch, facts)) if payload_epoch == epoch => Some(facts),
                    _ => None,
                },
                Err(_) => None,
            };
            match valid {
                Some(facts) => {
                    checkpoint = Some((epoch, facts));
                    checkpoint_epochs.push(epoch);
                    break;
                }
                None => {
                    skipped_checkpoints.push(file.clone());
                    let _ = storage.remove(&file);
                }
            }
        }
        let base_epoch = checkpoint.as_ref().map(|(e, _)| *e).unwrap_or(0);

        // Parse every segment; only the newest may end in a torn tail.
        let mut batches: Vec<Batch> = Vec::new();
        let mut torn_tail = None;
        for (i, &start) in segment_starts.iter().enumerate() {
            let file = segment_name(start);
            let bytes = storage.read(&file)?;
            let newest = i + 1 == segment_starts.len();
            let parsed = parse_segment(&file, &bytes, start, newest)?;
            if parsed.torn {
                storage.truncate(&file, parsed.valid_len)?;
                torn_tail = Some((file.clone(), parsed.valid_len));
            }
            batches.extend(parsed.batches);
        }

        // Keep the tail past the checkpoint and verify it chains from it:
        // recovery must reach the pre-crash epoch through a gap-free,
        // duplicate-free sequence or refuse outright.
        batches.retain(|b| b.epoch > base_epoch);
        let mut prev = base_epoch;
        for batch in &batches {
            let expected = prev + batch.events.len() as u64;
            if batch.epoch != expected {
                return Err(WalError::Corrupt {
                    file: segment_name(*segment_starts.last().unwrap_or(&0)),
                    offset: 0,
                    detail: format!(
                        "log does not chain from checkpoint epoch {base_epoch}: \
                         found epoch {}, expected {expected}",
                        batch.epoch
                    ),
                });
            }
            prev = batch.epoch;
        }
        let epoch = prev;

        // Start (or reuse) the segment named after the recovered epoch. If
        // a segment of that name exists it cannot hold valid records —
        // records in `wal-E` have epochs > E, which would contradict E
        // being the recovered epoch — so the active length starts at 0.
        if segment_starts.last() != Some(&epoch) {
            segment_starts.push(epoch);
        }

        let (checkpoint_epoch, checkpoint_facts) = checkpoint.unwrap_or((0, Vec::new()));
        let recovery = Recovery {
            checkpoint_epoch,
            checkpoint_facts,
            batches,
            epoch,
            torn_tail,
            skipped_checkpoints,
        };
        let wal = Wal {
            storage,
            options,
            segments: segment_starts,
            checkpoints: checkpoint_epochs,
            pending: None,
            active_len: 0,
            last_epoch: epoch,
            // Everything recovered is on storage already; it is as durable
            // as the previous process left it.
            durable_epoch: epoch,
            unsynced: false,
            poisoned: false,
        };
        Ok((wal, recovery))
    }

    /// The WAL's configuration.
    pub fn options(&self) -> &WalOptions {
        &self.options
    }

    /// Epoch of the last appended record.
    pub fn last_epoch(&self) -> u64 {
        self.last_epoch
    }

    /// Last epoch known durable: covered by an fsync or a checkpoint. Under
    /// [`SyncPolicy::Never`] this only advances at checkpoints.
    pub fn durable_epoch(&self) -> u64 {
        self.durable_epoch
    }

    /// Whether a failed append left the log tail unrecoverable in-process
    /// (all further appends fail fast).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Start epochs of the live segments, oldest first (tests/observability).
    pub fn segment_starts(&self) -> &[u64] {
        &self.segments
    }

    /// Epochs of the retained checkpoints, oldest first.
    pub fn checkpoint_epochs(&self) -> &[u64] {
        &self.checkpoints
    }

    /// Whether the configured checkpoint interval has elapsed since the last
    /// checkpoint begun — the one in flight, else the newest retained (a
    /// failed one is forgotten, so the next commit retries). Callers pin the
    /// published state and call [`Wal::checkpoint`], or its three steps.
    pub fn checkpoint_due(&self) -> bool {
        let last = self.pending.or(self.checkpoints.last().copied());
        self.options.checkpoint_every > 0
            && self.last_epoch - last.unwrap_or(0) >= self.options.checkpoint_every
    }

    fn active_name(&self) -> String {
        segment_name(*self.segments.last().expect("always one segment"))
    }

    /// Appends one committed batch, then fsyncs per the [`SyncPolicy`].
    ///
    /// `epoch` must be the session epoch **after** the batch:
    /// `last_epoch() + events.len()`. On any failure the partial record is
    /// rolled back by truncation and nothing is acknowledged; if the
    /// rollback itself fails the WAL poisons itself (the owning session
    /// keeps serving reads, but no further writes can be made durable).
    pub fn append(&mut self, epoch: u64, events: &[DeltaEvent]) -> Result<(), WalError> {
        if self.poisoned {
            return Err(WalError::Io(Arc::new(io::Error::other(
                "WAL is poisoned: a failed append could not be rolled back",
            ))));
        }
        let expected = self.last_epoch + events.len() as u64;
        if events.is_empty() || epoch != expected {
            return Err(WalError::Io(Arc::new(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("append out of sequence: epoch {epoch}, expected {expected}"),
            ))));
        }
        let name = self.active_name();
        let record = encode_record(epoch, events);
        if let Err(e) = self.storage.append(&name, &record) {
            // A prefix may be on storage: truncate it back to the last good
            // record boundary so later appends cannot land after garbage.
            if self.storage.truncate(&name, self.active_len).is_err() {
                self.poisoned = true;
            }
            return Err(e.into());
        }
        self.active_len += record.len() as u64;
        self.last_epoch = epoch;
        if self.options.sync == SyncPolicy::Never {
            self.unsynced = true;
            return Ok(());
        }
        if let Err(e) = self.storage.sync(&name) {
            // The record is written but not durable, and the caller will
            // fail this commit: roll the record back so recovery cannot
            // replay a batch that was never acknowledged.
            self.active_len -= record.len() as u64;
            self.last_epoch = epoch - events.len() as u64;
            if self.storage.truncate(&name, self.active_len).is_err() {
                self.poisoned = true;
            }
            return Err(e.into());
        }
        self.durable_epoch = self.last_epoch;
        Ok(())
    }

    /// Forces an fsync of the active segment, making every appended record
    /// durable regardless of policy.
    pub fn sync(&mut self) -> Result<(), WalError> {
        let name = self.active_name();
        self.storage.sync(&name)?;
        self.unsynced = false;
        self.durable_epoch = self.last_epoch;
        Ok(())
    }

    /// Writes a checkpoint of the complete fact set at `epoch` (which must
    /// be [`Wal::last_epoch`] — checkpoints snapshot the just-published
    /// state), and evicts storage the retained checkpoints no longer need:
    /// [`Wal::begin_checkpoint`], [`CheckpointWrite::write`] and
    /// [`Wal::finish_checkpoint`] in one call, on the caller's thread. A
    /// fact is anything the codec reads as one ([`FactRef`]: a stored
    /// [`Fact`] or an index row); `facts` is walked twice, a count and the
    /// encode.
    ///
    /// On failure the log stays fully replayable from the older checkpoint
    /// (only the fresh segment stays begun); the caller may simply try again
    /// later.
    pub fn checkpoint(
        &mut self,
        epoch: u64,
        facts: impl Iterator<Item = impl FactRef> + Clone,
    ) -> Result<(), WalError> {
        let write = self.begin_checkpoint(epoch)?;
        let written = write.write(facts);
        self.finish_checkpoint(written)
    }

    /// Step 1 of a checkpoint at `epoch` (which must be [`Wal::last_epoch`]),
    /// the only one that needs the writer: makes the log durable up to
    /// `epoch` (an fsync only when the sync policy left appends unsynced)
    /// and starts a fresh segment there, so every later record lands past
    /// what the checkpoint will cover. Returns the write — step 2 — on a
    /// [`WalStorage::publish_handle`] of its own, which may run on any
    /// thread while the writer keeps appending. Until
    /// [`Wal::finish_checkpoint`], [`Wal::checkpoint_due`] counts from
    /// `epoch` and no other checkpoint may begin.
    ///
    /// Nothing is evicted yet: until the checkpoint is finished, recovery
    /// reads the older checkpoint plus the whole log.
    pub fn begin_checkpoint(&mut self, epoch: u64) -> Result<CheckpointWrite, WalError> {
        let refuse = |detail: String| {
            WalError::Io(Arc::new(io::Error::new(
                io::ErrorKind::InvalidInput,
                detail,
            )))
        };
        if epoch != self.last_epoch {
            return Err(refuse(format!(
                "checkpoint at epoch {epoch} but the log is at {}",
                self.last_epoch
            )));
        }
        if let Some(pending) = self.pending {
            return Err(refuse(format!(
                "checkpoint at epoch {epoch} while the one at {pending} is in flight"
            )));
        }
        // The segment about to be closed must be durable before any record
        // lands in the next one: should the checkpoint fail, a crash must
        // cost a suffix of the log, never open a gap in it.
        if self.unsynced {
            self.sync()?;
        }
        if self.segments.last() != Some(&epoch) {
            // Created lazily by the next append.
            self.segments.push(epoch);
            self.active_len = 0;
        }
        self.pending = Some(epoch);
        Ok(CheckpointWrite {
            epoch,
            storage: self.storage.publish_handle(),
        })
    }

    /// Step 3: takes the outcome of the pending checkpoint's
    /// [`CheckpointWrite::write`]. A published checkpoint is retained, and
    /// then, best-effort:
    ///
    /// 1. checkpoints beyond the newest two are removed;
    /// 2. segments whose every record is covered by the **oldest retained**
    ///    checkpoint are removed — only now that the write made that
    ///    coverage durable.
    ///
    /// A failed write is forgotten and returned: the log stays fully
    /// replayable from the older checkpoint, and the checkpoint is due
    /// again. Without a pending checkpoint this does nothing.
    pub fn finish_checkpoint(&mut self, written: Result<(), WalError>) -> Result<(), WalError> {
        let Some(epoch) = self.pending.take() else {
            return Ok(());
        };
        written?;
        self.checkpoints.push(epoch);
        // A file that refuses to die is harmless (recovery skips covered
        // records) and will be retried at the next checkpoint.
        while self.checkpoints.len() > RETAIN_CHECKPOINTS {
            let old = self.checkpoints.remove(0);
            let _ = self.storage.remove(&checkpoint_name(old));
        }
        let covered = self.checkpoints[0];
        while self.segments.len() >= 2 && self.segments[1] <= covered {
            let dead = self.segments[0];
            if self.storage.remove(&segment_name(dead)).is_err() {
                break;
            }
            self.segments.remove(0);
        }
        Ok(())
    }
}

/// Step 2 of a checkpoint, begun by [`Wal::begin_checkpoint`]: the file
/// `ck-E` still to be encoded and published, on a storage handle of its own.
/// It borrows nothing from the [`Wal`], so it may run on another thread
/// while the writer appends; its outcome goes back to
/// [`Wal::finish_checkpoint`].
#[derive(Debug)]
pub struct CheckpointWrite {
    epoch: u64,
    storage: Box<dyn WalStorage>,
}

impl CheckpointWrite {
    /// Streams the complete fact set at the epoch into `ck-E`
    /// ([`record::write_checkpoint`]: never encoded whole in memory) and
    /// publishes it atomically (temp + fsync + rename + directory fsync),
    /// so a crash at any point leaves the previous checkpoint intact.
    pub fn write(
        mut self,
        facts: impl Iterator<Item = impl FactRef> + Clone,
    ) -> Result<(), WalError> {
        let epoch = self.epoch;
        self.storage
            .write_atomic(&checkpoint_name(epoch), &mut |out| {
                write_checkpoint(epoch, facts.clone(), out)
            })?;
        Ok(())
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        // Best-effort: a cleanly dropped WAL leaves no sync debt behind.
        if self.unsynced && !self.poisoned {
            let name = self.active_name();
            let _ = self.storage.sync(&name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcqa_data::fact;

    fn ev(tag: &str) -> DeltaEvent {
        DeltaEvent::insert(fact!("R", tag, 1))
    }

    fn open_mem(mem: &MemStorage, options: WalOptions) -> (Wal, Recovery) {
        Wal::open(Box::new(mem.handle()), options).expect("open")
    }

    #[test]
    fn fresh_log_appends_and_recovers() {
        let mem = MemStorage::new();
        let (mut wal, rec) = open_mem(&mem, WalOptions::default());
        assert_eq!(rec.epoch, 0);
        assert!(rec.batches.is_empty());
        wal.append(2, &[ev("a"), ev("b")]).unwrap();
        wal.append(3, &[ev("c")]).unwrap();
        assert_eq!(wal.durable_epoch(), 3);
        drop(wal);

        let (wal, rec) = open_mem(&mem, WalOptions::default());
        assert_eq!(rec.epoch, 3);
        assert_eq!(rec.checkpoint_epoch, 0);
        assert_eq!(rec.batches.len(), 2);
        assert_eq!(rec.batches[0].events, vec![ev("a"), ev("b")]);
        assert_eq!(wal.last_epoch(), 3);
    }

    #[test]
    fn out_of_sequence_appends_are_rejected() {
        let mem = MemStorage::new();
        let (mut wal, _) = open_mem(&mem, WalOptions::default());
        assert!(wal.append(5, &[ev("a")]).is_err(), "gap");
        assert!(wal.append(0, &[]).is_err(), "empty batch");
        wal.append(1, &[ev("a")]).unwrap();
        assert!(wal.append(1, &[ev("b")]).is_err(), "duplicate epoch");
    }

    #[test]
    fn every_n_policy_tracks_durable_epoch() {
        let mem = MemStorage::new();
        let options = WalOptions {
            sync: SyncPolicy::Never,
            ..WalOptions::default()
        };
        let (mut wal, _) = open_mem(&mem, options);
        wal.append(1, &[ev("a")]).unwrap();
        wal.append(2, &[ev("b")]).unwrap();
        assert_eq!(wal.durable_epoch(), 0, "no fsync yet");
        wal.sync().unwrap();
        assert_eq!(wal.durable_epoch(), 2);
    }

    #[test]
    fn checkpoints_rotate_segments_and_evict_covered_history() {
        let mem = MemStorage::new();
        let options = WalOptions {
            checkpoint_every: 0, // manual checkpoints in this test
            ..WalOptions::default()
        };
        let (mut wal, _) = open_mem(&mem, options);
        let facts = [fact!("R", "a", 1)];
        wal.append(1, &[ev("a")]).unwrap();
        wal.checkpoint(1, facts.iter()).unwrap();
        wal.append(2, &[ev("b")]).unwrap();
        wal.checkpoint(2, facts.iter()).unwrap();
        wal.append(3, &[ev("c")]).unwrap();
        wal.checkpoint(3, facts.iter()).unwrap();
        // Two checkpoints retained; the oldest (ck-1) was evicted, and with
        // it every segment fully covered by ck-2: wal-0 and wal-1.
        assert_eq!(wal.checkpoint_epochs(), &[2, 3]);
        assert_eq!(wal.segment_starts(), &[2, 3]);
        assert!(mem.file(&checkpoint_name(1)).is_none());
        assert!(mem.file(&segment_name(0)).is_none());
        assert!(mem.file(&segment_name(1)).is_none());

        // Recovery uses the newest checkpoint and the (empty) tail.
        let (_, rec) = open_mem(&mem, options);
        assert_eq!(rec.checkpoint_epoch, 3);
        assert_eq!(rec.epoch, 3);
        assert!(rec.batches.is_empty());
    }

    /// Between its begin and its finish a checkpoint holds the segment
    /// roll only: appends go on into the fresh segment, no second one
    /// begins, the interval counts from it, and nothing is evicted until it
    /// is finished. A failed one is forgotten and due again.
    #[test]
    fn a_begun_checkpoint_evicts_nothing_until_it_is_finished() {
        let mem = MemStorage::new();
        let options = WalOptions {
            sync: SyncPolicy::Never,
            checkpoint_every: 2,
        };
        let (mut wal, _) = open_mem(&mem, options);
        let facts = [fact!("R", "a", 1), fact!("R", "b", 1)];
        wal.append(2, &[ev("a"), ev("b")]).unwrap();
        assert!(wal.checkpoint_due());
        let write = wal.begin_checkpoint(2).unwrap();
        assert_eq!(wal.durable_epoch(), 2, "the rolled segment was synced");
        assert!(!wal.checkpoint_due());
        wal.append(3, &[ev("c")]).unwrap();
        wal.append(4, &[ev("d")]).unwrap();
        assert!(wal.checkpoint_due(), "two epochs past the one in flight");
        assert!(wal.begin_checkpoint(4).is_err(), "one in flight");
        assert_eq!(wal.segment_starts(), &[0, 2]);
        write.write(facts.iter()).unwrap();
        assert!(mem.file(&segment_name(0)).is_some(), "not finished yet");
        wal.finish_checkpoint(Ok(())).unwrap();
        assert_eq!(wal.checkpoint_epochs(), &[2]);
        assert_eq!(wal.segment_starts(), &[2]);
        assert!(mem.file(&segment_name(0)).is_none());

        let write = wal.begin_checkpoint(4).unwrap();
        drop(write);
        let failed = WalError::from(io::Error::other("lost"));
        assert!(wal.finish_checkpoint(Err(failed)).is_err());
        assert_eq!(wal.checkpoint_epochs(), &[2]);
        assert_eq!(wal.segment_starts(), &[2, 4], "the roll stays");
        assert!(wal.checkpoint_due(), "retried at the next commit");
        drop(wal);
        let (_, rec) = open_mem(&mem, options);
        assert_eq!((rec.checkpoint_epoch, rec.epoch), (2, 4));
    }

    #[test]
    fn corrupt_newest_checkpoint_falls_back_to_the_previous_one() {
        let mem = MemStorage::new();
        let options = WalOptions {
            checkpoint_every: 0,
            ..WalOptions::default()
        };
        let (mut wal, _) = open_mem(&mem, options);
        wal.append(1, &[ev("a")]).unwrap();
        wal.checkpoint(1, [fact!("R", "a", 1)].iter()).unwrap();
        wal.append(2, &[ev("b")]).unwrap();
        wal.checkpoint(2, [fact!("R", "a", 1), fact!("R", "b", 1)].iter())
            .unwrap();
        wal.append(3, &[ev("c")]).unwrap();
        drop(wal);
        // Rot the newest checkpoint.
        let name = checkpoint_name(2);
        let mut bytes = mem.file(&name).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        mem.set_file(&name, bytes);

        let (_, rec) = open_mem(&mem, options);
        assert_eq!(rec.checkpoint_epoch, 1);
        assert_eq!(rec.checkpoint_facts, vec![fact!("R", "a", 1)]);
        // The tail replays from epoch 1: batches for epochs 2 and 3.
        assert_eq!(
            rec.batches.iter().map(|b| b.epoch).collect::<Vec<_>>(),
            vec![2, 3]
        );
        assert_eq!(rec.epoch, 3);
        assert_eq!(rec.skipped_checkpoints, vec![name.clone()]);
        // The rotten file was deleted so it can never shadow good state.
        assert!(mem.file(&name).is_none());
    }

    #[test]
    fn failed_append_rolls_back_and_keeps_the_log_replayable() {
        let mem = MemStorage::new();
        let (mut wal, _) = open_mem(&mem, WalOptions::default());
        wal.append(1, &[ev("a")]).unwrap();
        drop(wal);

        // Allow ~1.5 records worth of bytes: the second append tears.
        let good_len = mem.file(&segment_name(0)).unwrap().len() as u64;
        let failing = FailingStorage::new(mem.handle()).with_byte_budget(good_len / 2);
        let (mut wal, rec) = Wal::open(Box::new(failing), WalOptions::default()).unwrap();
        assert_eq!(rec.epoch, 1);
        let err = wal.append(2, &[ev("b")]).unwrap_err();
        assert!(matches!(err, WalError::Io(_)), "{err}");
        // The torn prefix was truncated away; the log still holds exactly
        // the acknowledged batch and recovers cleanly.
        assert!(!wal.is_poisoned());
        drop(wal);
        let (_, rec) = open_mem(&mem, WalOptions::default());
        assert_eq!(rec.epoch, 1);
        assert_eq!(rec.batches.len(), 1);
    }

    /// A checkpoint is charged its bytes as they were written: at every
    /// byte budget below its length it fails without a byte landing, and the
    /// old checkpoint plus the log recover the same epoch and facts; at its
    /// length it publishes.
    #[test]
    fn failed_checkpoint_leaves_old_state_intact() {
        let options = WalOptions {
            checkpoint_every: 0,
            ..WalOptions::default()
        };
        // A checkpoint at epoch 1 and the log record of epoch 2.
        let old_state = || {
            let mem = MemStorage::new();
            let (mut wal, _) = open_mem(&mem, options);
            wal.append(1, &[ev("a")]).unwrap();
            wal.checkpoint(1, [fact!("R", "a", 1)].iter()).unwrap();
            wal.append(2, &[ev("b")]).unwrap();
            mem
        };
        let facts = [fact!("R", "a", 1), fact!("R", "b", 1)];
        let len = {
            let mut out = io::Cursor::new(Vec::new());
            write_checkpoint(2, facts.iter(), &mut out).unwrap();
            out.into_inner().len() as u64
        };

        for budget in 0..=len {
            let mem = old_state();
            let failing = FailingStorage::new(mem.handle()).with_byte_budget(budget);
            let (mut wal, _) = Wal::open(Box::new(failing), options).unwrap();
            let result = wal.checkpoint(2, facts.iter());
            drop(wal);
            let (_, rec) = open_mem(&mem, options);
            assert_eq!(rec.epoch, 2, "budget {budget}");
            if budget < len {
                let err = result.unwrap_err();
                assert!(matches!(err, WalError::Io(_)), "budget {budget}: {err}");
                assert!(mem.file(&checkpoint_name(2)).is_none(), "budget {budget}");
                assert_eq!(rec.checkpoint_epoch, 1, "budget {budget}");
                assert_eq!(rec.checkpoint_facts, facts[..1], "budget {budget}");
                assert_eq!(rec.batches.len(), 1, "budget {budget}");
                assert_eq!(rec.batches[0].events, vec![ev("b")], "budget {budget}");
            } else {
                result.unwrap();
                assert_eq!(rec.checkpoint_epoch, 2);
                assert_eq!(rec.checkpoint_facts, facts);
                assert!(rec.batches.is_empty());
            }
        }
    }

    /// A checkpoint walks its facts twice: a count, which heads the
    /// checksummed payload, and the encode.
    #[test]
    fn a_checkpoint_walks_its_facts_twice() {
        let mem = MemStorage::new();
        let (mut wal, _) = open_mem(&mem, WalOptions::default());
        wal.append(1, &[ev("a")]).unwrap();
        let facts = [fact!("R", "a", 1), fact!("R", "b", 1), fact!("S", "c", 2)];
        let visits = std::cell::Cell::new(0);
        wal.checkpoint(1, facts.iter().inspect(|_| visits.set(visits.get() + 1)))
            .unwrap();
        assert_eq!(visits.get(), 2 * facts.len());
    }

    #[test]
    fn missing_segment_between_checkpoint_and_tail_is_corrupt() {
        let mem = MemStorage::new();
        let options = WalOptions {
            checkpoint_every: 0,
            ..WalOptions::default()
        };
        let (mut wal, _) = open_mem(&mem, options);
        wal.append(1, &[ev("a")]).unwrap();
        wal.append(2, &[ev("b")]).unwrap();
        wal.checkpoint(2, [fact!("R", "a", 1), fact!("R", "b", 1)].iter())
            .unwrap();
        wal.append(3, &[ev("c")]).unwrap();
        wal.append(4, &[ev("d")]).unwrap();
        drop(wal);
        // The checkpoint's own eviction already removed the pre-checkpoint
        // segment; losing the checkpoint too leaves a tail (epochs 3, 4)
        // that no longer chains from anything.
        assert!(mem.file(&segment_name(0)).is_none());
        let mut handle = mem.handle();
        handle.remove(&checkpoint_name(2)).unwrap();
        let err = Wal::open(Box::new(mem.handle()), options).unwrap_err();
        assert!(matches!(err, WalError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn fs_storage_roundtrips_through_a_real_directory() {
        let dir = tempfile::TempDir::new().expect("tempdir");
        let options = WalOptions {
            checkpoint_every: 0,
            ..WalOptions::default()
        };
        {
            let storage = FsStorage::open(dir.path()).unwrap();
            let (mut wal, rec) = Wal::open(Box::new(storage), options).unwrap();
            assert_eq!(rec.epoch, 0);
            wal.append(1, &[ev("a")]).unwrap();
            wal.append(3, &[ev("b"), ev("c")]).unwrap();
            wal.checkpoint(3, [fact!("R", "a", 1)].iter()).unwrap();
            wal.append(4, &[ev("d")]).unwrap();
        }
        let storage = FsStorage::open(dir.path()).unwrap();
        let (wal, rec) = Wal::open(Box::new(storage), options).unwrap();
        assert_eq!(rec.checkpoint_epoch, 3);
        assert_eq!(rec.checkpoint_facts, vec![fact!("R", "a", 1)]);
        assert_eq!(rec.batches.len(), 1);
        assert_eq!(rec.epoch, 4);
        assert_eq!(wal.last_epoch(), 4);
    }
}
