//! Storage backends for the WAL: a real directory, an in-memory map, and a
//! deterministic fault injector.
//!
//! The [`WalStorage`] trait is the seam the crash-recovery test matrix is
//! built on: the [`Wal`](crate::Wal) performs every byte of I/O through it,
//! so swapping [`FsStorage`] for a [`FailingStorage`] turns "what if the disk
//! dies after N bytes" into an ordinary deterministic unit test.
//!
//! ## Trait contract
//!
//! A `WalStorage` is a flat namespace of byte files. Implementations must
//! guarantee:
//!
//! * [`append`](WalStorage::append) appends at the end of the named file,
//!   creating it if absent. On error, a **prefix** of the bytes may have been
//!   written (a torn write) — the caller rolls back with
//!   [`truncate`](WalStorage::truncate).
//! * [`sync`](WalStorage::sync) makes previously appended bytes durable
//!   (`fsync`); on success, everything appended before the call survives a
//!   crash.
//! * [`write_atomic`](WalStorage::write_atomic) publishes a complete file
//!   **all-or-nothing**: after a crash at any point, readers see either the
//!   old content (or absence) or the complete new content, never a prefix.
//!   The caller streams the bytes into a seekable writer (it may go back to
//!   patch a header); the file's length is whatever the stream produced. The
//!   filesystem implementation writes a temporary file, fsyncs it, and
//!   renames it over the target, so a file as large as a checkpoint is never
//!   held in memory whole.
//! * [`truncate`](WalStorage::truncate) shortens a file to a byte length;
//!   [`remove`](WalStorage::remove) deletes it; [`read`](WalStorage::read)
//!   returns the full content; [`list`](WalStorage::list) enumerates file
//!   names (no ordering guarantee).
//! * [`publish_handle`](WalStorage::publish_handle) hands out a second
//!   handle onto the same files, owned by another thread: the WAL's
//!   checkpointer publishes a checkpoint through it while the writer keeps
//!   appending through the first. The checkpointer calls only
//!   `write_atomic`, on a file no other handle touches while it runs, so a
//!   handle needs no coordination with its siblings beyond sharing their
//!   files (and, for [`FailingStorage`], their fault budgets).
//!
//! All other methods take `&mut self`: the WAL owns its storage and
//! serialises access behind the session's writer lock.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// The byte-file namespace the WAL runs on. See the [module docs](self) for
/// the contract each method must honour.
pub trait WalStorage: Send + std::fmt::Debug {
    /// Lists the file names present (order unspecified).
    fn list(&mut self) -> io::Result<Vec<String>>;
    /// Reads a whole file.
    fn read(&mut self, name: &str) -> io::Result<Vec<u8>>;
    /// Appends bytes at the end of a file, creating it if absent. On error a
    /// prefix may have been written.
    fn append(&mut self, name: &str, bytes: &[u8]) -> io::Result<()>;
    /// Makes previously appended bytes of the named file durable.
    fn sync(&mut self, name: &str) -> io::Result<()>;
    /// Publishes the file `write` streams atomically and durably
    /// (all-or-nothing even across a crash); the writer it is handed starts
    /// empty at offset 0, and the file is every byte it holds when `write`
    /// returns.
    fn write_atomic(&mut self, name: &str, write: StreamBytes<'_>) -> io::Result<()>;
    /// Shortens a file to `len` bytes.
    fn truncate(&mut self, name: &str, len: u64) -> io::Result<()>;
    /// Deletes a file. Deleting an absent file is an error.
    fn remove(&mut self, name: &str) -> io::Result<()>;
    /// Another handle onto the same files, for a checkpoint published off
    /// the writer's thread.
    fn publish_handle(&self) -> Box<dyn WalStorage>;
}

/// The producer of a file's bytes for [`WalStorage::write_atomic`].
pub type StreamBytes<'a> = &'a mut dyn FnMut(&mut dyn SeekWrite) -> io::Result<()>;

/// A writer that can also seek: what [`StreamBytes`] writes into.
pub trait SeekWrite: Write + Seek {}

impl<W: Write + Seek> SeekWrite for W {}

/// Directory-backed storage: each WAL file is a real file under `dir`.
///
/// Append handles are cached so the steady-state commit path is one
/// `write(2)` (plus one `fdatasync(2)` when the sync policy asks for it).
/// [`write_atomic`](WalStorage::write_atomic) is temp-file + `fdatasync` +
/// `rename` + directory `fsync`, the standard crash-safe publication dance.
#[derive(Debug)]
pub struct FsStorage {
    dir: PathBuf,
    handles: BTreeMap<String, File>,
}

impl FsStorage {
    /// Opens (creating if needed) the directory the WAL lives in.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<FsStorage> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        Ok(FsStorage {
            dir,
            handles: BTreeMap::new(),
        })
    }

    /// The directory backing this storage.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    fn handle(&mut self, name: &str) -> io::Result<&mut File> {
        if !self.handles.contains_key(name) {
            let file = OpenOptions::new()
                .create(true)
                .append(true)
                .open(self.path(name))?;
            self.handles.insert(name.to_string(), file);
        }
        Ok(self.handles.get_mut(name).expect("just inserted"))
    }

    fn sync_dir(&self) -> io::Result<()> {
        // Durability of creates/renames/removes requires fsyncing the parent
        // directory, not just the file.
        File::open(&self.dir)?.sync_all()
    }
}

impl WalStorage for FsStorage {
    fn list(&mut self) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                if let Ok(name) = entry.file_name().into_string() {
                    names.push(name);
                }
            }
        }
        Ok(names)
    }

    fn read(&mut self, name: &str) -> io::Result<Vec<u8>> {
        std::fs::read(self.path(name))
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.handle(name)?.write_all(bytes)
    }

    fn sync(&mut self, name: &str) -> io::Result<()> {
        match self.handles.get(name) {
            Some(file) => file.sync_data(),
            // Nothing was appended through us; sync whatever is on disk.
            None => match File::open(self.path(name)) {
                Ok(file) => file.sync_data(),
                Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
                Err(e) => Err(e),
            },
        }
    }

    fn write_atomic(&mut self, name: &str, write: StreamBytes<'_>) -> io::Result<()> {
        let tmp = self.path(&format!("{name}.tmp"));
        let target = self.path(name);
        {
            let mut file = io::BufWriter::new(File::create(&tmp)?);
            write(&mut file)?;
            file.into_inner()?.sync_data()?;
        }
        std::fs::rename(&tmp, &target)?;
        self.handles.remove(name);
        self.sync_dir()
    }

    fn truncate(&mut self, name: &str, len: u64) -> io::Result<()> {
        // The cached handle is in append mode; reopen for truncation and
        // drop the cache so the next append reopens at the new length.
        self.handles.remove(name);
        let file = OpenOptions::new().write(true).open(self.path(name))?;
        file.set_len(len)?;
        file.sync_data()
    }

    fn remove(&mut self, name: &str) -> io::Result<()> {
        self.handles.remove(name);
        std::fs::remove_file(self.path(name))?;
        self.sync_dir()
    }

    /// A fresh handle on the directory, with no append handles cached.
    fn publish_handle(&self) -> Box<dyn WalStorage> {
        Box::new(FsStorage {
            dir: self.dir.clone(),
            handles: BTreeMap::new(),
        })
    }
}

/// In-memory storage: a shared map of named byte vectors.
///
/// `MemStorage` is cheaply cloneable and **shares** its contents across
/// clones ([`handle`](MemStorage::handle)), so a test can hand one handle to
/// a session's WAL, "crash" the session by dropping it, and recover a new
/// session from the bytes the first one left behind — the in-memory analogue
/// of remounting a disk.
#[derive(Clone, Debug, Default)]
pub struct MemStorage {
    files: Arc<Mutex<BTreeMap<String, Vec<u8>>>>,
}

impl MemStorage {
    /// An empty storage.
    pub fn new() -> MemStorage {
        MemStorage::default()
    }

    /// Another handle onto the **same** underlying files.
    pub fn handle(&self) -> MemStorage {
        self.clone()
    }

    /// The current content of a file, if present (test observation).
    pub fn file(&self, name: &str) -> Option<Vec<u8>> {
        self.files
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .cloned()
    }

    /// Overwrites a file's content wholesale (test tampering: bit flips,
    /// truncations, garbage injection).
    pub fn set_file(&self, name: &str, bytes: Vec<u8>) {
        self.files
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(name.to_string(), bytes);
    }

    fn with_files<T>(&self, f: impl FnOnce(&mut BTreeMap<String, Vec<u8>>) -> T) -> T {
        f(&mut self.files.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

impl WalStorage for MemStorage {
    fn list(&mut self) -> io::Result<Vec<String>> {
        Ok(self.with_files(|files| files.keys().cloned().collect()))
    }

    fn read(&mut self, name: &str) -> io::Result<Vec<u8>> {
        self.with_files(|files| files.get(name).cloned())
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("no file {name:?}")))
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.with_files(|files| {
            files
                .entry(name.to_string())
                .or_default()
                .extend_from_slice(bytes)
        });
        Ok(())
    }

    fn sync(&mut self, _name: &str) -> io::Result<()> {
        Ok(())
    }

    fn write_atomic(&mut self, name: &str, write: StreamBytes<'_>) -> io::Result<()> {
        let mut bytes = io::Cursor::new(Vec::new());
        write(&mut bytes)?;
        self.with_files(|files| files.insert(name.to_string(), bytes.into_inner()));
        Ok(())
    }

    fn truncate(&mut self, name: &str, len: u64) -> io::Result<()> {
        self.with_files(|files| match files.get_mut(name) {
            Some(content) => {
                content.truncate(len as usize);
                Ok(())
            }
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no file {name:?}"),
            )),
        })
    }

    fn remove(&mut self, name: &str) -> io::Result<()> {
        self.with_files(|files| match files.remove(name) {
            Some(_) => Ok(()),
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no file {name:?}"),
            )),
        })
    }

    fn publish_handle(&self) -> Box<dyn WalStorage> {
        Box::new(self.handle())
    }
}

/// Deterministic fault injection over a [`MemStorage`]: fail (and tear)
/// writes after a byte budget, or fail any mutating operation after an
/// operation budget.
///
/// * The **byte budget** counts bytes successfully appended (or atomically
///   written). An [`append`](WalStorage::append) that would exceed it writes
///   only the remaining allowance — a *torn write*, exactly what a crash
///   mid-`write(2)` leaves on disk — then fails; every later write fails
///   outright. A [`write_atomic`](WalStorage::write_atomic) is charged the
///   bytes its stream produced: one that exceeds the budget fails **without
///   touching the file**, preserving the all-or-nothing contract, and spends
///   the rest of the budget.
/// * The **operation budget** counts mutating calls (`append`, `sync`,
///   `write_atomic`, `truncate`, `remove`); once spent, each fails before
///   doing anything.
///
/// Reads and listings never fail, so a "crashed" storage can always be
/// inspected and recovered from via the shared [`MemStorage`] handle.
///
/// A [`publish_handle`](WalStorage::publish_handle) shares the files and
/// both budgets: a checkpoint published off the writer's thread spends the
/// same bytes and operations it would have spent on the writer's.
#[derive(Debug)]
pub struct FailingStorage {
    inner: MemStorage,
    budgets: Arc<Mutex<Budgets>>,
}

/// What a [`FailingStorage`] and its publish handles may still spend.
#[derive(Debug)]
struct Budgets {
    bytes: u64,
    ops: u64,
}

impl FailingStorage {
    /// Unlimited-budget injection over (a handle of) `inner`.
    pub fn new(inner: MemStorage) -> FailingStorage {
        FailingStorage {
            inner,
            budgets: Arc::new(Mutex::new(Budgets {
                bytes: u64::MAX,
                ops: u64::MAX,
            })),
        }
    }

    /// Fails (tearing appends) after `n` more written bytes.
    pub fn with_byte_budget(self, n: u64) -> FailingStorage {
        self.budgets().bytes = n;
        self
    }

    /// Fails any mutating operation after `n` more of them.
    pub fn with_op_budget(self, n: u64) -> FailingStorage {
        self.budgets().ops = n;
        self
    }

    /// A handle onto the surviving bytes (what "the disk" holds).
    pub fn surviving(&self) -> MemStorage {
        self.inner.handle()
    }

    fn fault(what: &str) -> io::Error {
        io::Error::other(format!("fault injection: {what}"))
    }

    fn budgets(&self) -> std::sync::MutexGuard<'_, Budgets> {
        self.budgets.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn take_op(&mut self, what: &str) -> io::Result<()> {
        let mut budgets = self.budgets();
        if budgets.ops == 0 {
            return Err(Self::fault(what));
        }
        budgets.ops -= 1;
        Ok(())
    }
}

impl WalStorage for FailingStorage {
    fn list(&mut self) -> io::Result<Vec<String>> {
        self.inner.list()
    }

    fn read(&mut self, name: &str) -> io::Result<Vec<u8>> {
        self.inner.read(name)
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.take_op("append op budget exhausted")?;
        let allowed = {
            let mut budgets = self.budgets();
            let allowed = budgets.bytes.min(bytes.len() as u64);
            budgets.bytes -= allowed;
            allowed as usize
        };
        if allowed == bytes.len() {
            return self.inner.append(name, bytes);
        }
        // Torn write: persist the prefix the budget still allowed, then die.
        self.inner.append(name, &bytes[..allowed])?;
        Err(Self::fault("byte budget exhausted mid-append (torn write)"))
    }

    fn sync(&mut self, name: &str) -> io::Result<()> {
        self.take_op("sync op budget exhausted")?;
        self.inner.sync(name)
    }

    fn write_atomic(&mut self, name: &str, write: StreamBytes<'_>) -> io::Result<()> {
        self.take_op("write_atomic op budget exhausted")?;
        let mut bytes = io::Cursor::new(Vec::new());
        write(&mut bytes)?;
        let bytes = bytes.into_inner();
        {
            let mut budgets = self.budgets();
            if bytes.len() as u64 > budgets.bytes {
                // Atomic: the target is untouched on failure.
                budgets.bytes = 0;
                return Err(Self::fault("byte budget exhausted by write_atomic"));
            }
            budgets.bytes -= bytes.len() as u64;
        }
        self.inner
            .write_atomic(name, &mut |out| out.write_all(&bytes))
    }

    fn truncate(&mut self, name: &str, len: u64) -> io::Result<()> {
        self.take_op("truncate op budget exhausted")?;
        self.inner.truncate(name, len)
    }

    fn remove(&mut self, name: &str) -> io::Result<()> {
        self.take_op("remove op budget exhausted")?;
        self.inner.remove(name)
    }

    fn publish_handle(&self) -> Box<dyn WalStorage> {
        Box::new(FailingStorage {
            inner: self.inner.handle(),
            budgets: self.budgets.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_storage_handles_share_content() {
        let mut a = MemStorage::new();
        let mut b = a.handle();
        a.append("f", b"hello").unwrap();
        assert_eq!(b.read("f").unwrap(), b"hello");
        b.truncate("f", 2).unwrap();
        assert_eq!(a.read("f").unwrap(), b"he");
        assert!(a.remove("missing").is_err());
    }

    #[test]
    fn failing_storage_tears_appends_at_the_byte_budget() {
        let mem = MemStorage::new();
        let mut failing = FailingStorage::new(mem.handle()).with_byte_budget(7);
        failing.append("f", b"hello").unwrap();
        // 2 bytes of budget left: the next append tears.
        assert!(failing.append("f", b"world").is_err());
        assert_eq!(mem.file("f").unwrap(), b"hellowo");
        // And every later write fails without effect.
        assert!(failing.append("f", b"!").is_err());
        assert_eq!(mem.file("f").unwrap(), b"hellowo");
    }

    #[test]
    fn failing_storage_keeps_write_atomic_all_or_nothing() {
        let mem = MemStorage::new();
        let mut failing = FailingStorage::new(mem.handle()).with_byte_budget(5);
        failing
            .write_atomic("ck", &mut |out| out.write_all(b"abc"))
            .unwrap();
        assert!(failing
            .write_atomic("ck", &mut |out| out.write_all(b"xyzw"))
            .is_err());
        assert_eq!(mem.file("ck").unwrap(), b"abc", "old content intact");
        // The failed write spent the budget: even a byte that would have fit
        // before it fails now.
        assert!(failing
            .write_atomic("ck", &mut |out| out.write_all(b"x"))
            .is_err());
        assert_eq!(mem.file("ck").unwrap(), b"abc");
    }

    #[test]
    fn a_publish_handle_shares_the_files_and_the_budgets() {
        let mem = MemStorage::new();
        let mut failing = FailingStorage::new(mem.handle())
            .with_byte_budget(5)
            .with_op_budget(3);
        let mut publisher = failing.publish_handle();
        publisher
            .write_atomic("ck", &mut |out| out.write_all(b"abc"))
            .unwrap();
        assert_eq!(failing.read("ck").unwrap(), b"abc");
        // Two bytes and two operations left, whichever handle spends them.
        assert!(failing.append("f", b"xyz").is_err(), "torn");
        assert_eq!(mem.file("f").unwrap(), b"xy");
        assert!(publisher.remove("ck").is_ok());
        assert!(failing.remove("f").is_err(), "op budget spent");
    }

    #[test]
    fn failing_storage_op_budget_counts_mutations_only() {
        let mem = MemStorage::new();
        let mut failing = FailingStorage::new(mem.handle()).with_op_budget(2);
        failing.append("f", b"a").unwrap();
        failing.sync("f").unwrap();
        assert!(failing.append("f", b"b").is_err());
        // Reads stay available after the "crash".
        assert_eq!(failing.read("f").unwrap(), b"a");
        assert_eq!(failing.list().unwrap(), vec!["f".to_string()]);
    }
}
