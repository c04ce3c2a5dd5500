//! Crash-safe persistence for the per-user spend ledger: a write-ahead
//! journal plus checksummed snapshots, in the offline-cache-v2 style
//! (magic + version + FNV-1a checksums, atomic temp-file + rename
//! commits).
//!
//! ## The invariant everything here serves
//!
//! **Recovered spend ≥ actual (served) spend, per user.** A crash may
//! waste budget — a journaled request whose response never went out is
//! still counted — but it must never forget budget, because forgotten
//! spend would let a user's composed ε exceed their cap after a restart.
//! Every protocol decision below is the fail-closed direction of that
//! inequality:
//!
//! * a spend is acknowledged (and the request served) only **after** its
//!   WAL record is fully written *and* fsynced. A group of records
//!   ([`Journal::append_many`]) shares one write and one fsync and is
//!   acknowledged whole or not at all;
//! * a torn or flush-failed append is refused, and the journal repairs
//!   its tail (truncate back to the last acknowledged record) before any
//!   later append is acknowledged — so an acknowledged record is never
//!   ordered after unsynced bytes;
//! * snapshot commits are atomic (temp file + rename); the rename is the
//!   commit point, and a generation number ties each WAL segment to the
//!   snapshot that covers it, so replay never double-applies or misses a
//!   fold.
//!
//! ## On-disk layout
//!
//! One snapshot and a chain of WAL segments in the journal directory,
//! all little-endian, all carrying FNV-1a 64 checksums:
//!
//! ```text
//! ledger.snap                       ledger.wal.<gen> (one per segment)
//!   magic    8B "GEOINDSN"            magic    8B "GEOINDWL"
//!   version  u32 = 1                  version  u32 = 1
//!   gen      u64                      gen      u64 (= the file's <gen>)
//!   epoch    u64                      epoch    u64
//!   count    u64                      header_sum u64 (over the 20 bytes above)
//!   header_sum u64 (over the 28      record × N (32B each):
//!     bytes above)                      user    u64
//!   entry × count:                      eps     f64 bits
//!     user   u64                        seq     u64 (1-based within the segment)
//!     spent  f64 bits                   rec_sum u64 (over the 24 bytes above)
//!   body_sum u64 (over all entries)
//! ```
//!
//! Snapshot generation `S` holds the folded state of every segment with
//! a generation below `S`; segments `S, S+1, …` hold the deltas since.
//! Recovery deletes the segments below `S` (already folded in), replays
//! `S, S+1, …` in order — a gap in that chain is [`JournalError::Corrupt`]
//! — and in each segment stops at the first torn, checksum-failed, or
//! out-of-sequence record and truncates the tail there. The highest
//! segment becomes the active one that appends extend.
//!
//! ## Folding without the lock
//!
//! A fold has two halves. [`Journal::rotate`] runs under the caller's
//! lock and makes no file-system call: it switches appends to a durable,
//! already-created spare segment `active + 1`. A [`Fold`] then runs on
//! any thread, in this order: commit snapshot `T` (the new active
//! generation) from a capture of the state at the segment boundary,
//! delete the segments below `T`, create the next spare `T + 1`. A
//! segment is deleted only after the snapshot covering it has
//! committed, so recovered ≥ served holds at every crash point. A failed
//! step is retried from that step; the capture stays valid for snapshot
//! `T` until it commits.
//!
//! Every journal step carries a deterministic failpoint site
//! (`serve.journal.*`, `serve.snapshot.*`, `serve.wal.reset` — see
//! [`geoind_testkit::failpoint::SITES`]); the crash-replay suite in
//! `tests/crash_replay.rs` proves the invariant holds with a crash forced
//! at each of them.

use geoind_rng::fnv1a64;
use geoind_testkit::failpoint;
use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Snapshot file magic.
const SNAP_MAGIC: &[u8; 8] = b"GEOINDSN";
/// WAL file magic.
const WAL_MAGIC: &[u8; 8] = b"GEOINDWL";
/// On-disk format version of both files.
const FORMAT_VERSION: u32 = 1;
/// Bytes of a WAL header: magic 8 + version 4 + gen 8 + epoch 8 + sum 8.
const WAL_HEADER_LEN: u64 = 36;
/// Bytes of one WAL record: user 8 + eps 8 + seq 8 + sum 8.
const RECORD_LEN: u64 = 32;
/// Bytes of a snapshot header: magic 8 + version 4 + gen 8 + epoch 8 +
/// count 8 + sum 8.
const SNAP_HEADER_LEN: u64 = 44;
/// Refuse snapshots claiming more users than any sane deployment shard
/// holds — bounds the replay allocation exactly like the offline cache
/// bounds its entry count.
const MAX_SNAP_ENTRIES: u64 = 50_000_000;

/// Why a journal operation failed. Every variant is fail-closed: the
/// caller must refuse the request (or refuse to open), never serve
/// unaccounted ε.
#[derive(Debug)]
pub enum JournalError {
    /// An I/O operation failed; `step` names which journal step.
    Io {
        /// The journal step that failed (`"wal append"`, `"snapshot commit"`, …).
        step: &'static str,
        /// The underlying I/O error.
        source: io::Error,
    },
    /// A committed (checksummed) region failed validation — not a normal
    /// crash artifact, so recovery refuses rather than guessing.
    Corrupt {
        /// Which file/section failed (`"snapshot header"`, `"wal header"`, …).
        section: String,
        /// What was wrong with it.
        detail: String,
    },
    /// A deterministic failpoint forced this step to fail (tests/CI only;
    /// production builds compile the sites out).
    Injected(&'static str),
    /// The journal on disk belongs to a *later* epoch than the one
    /// requested — the caller's epoch source went backwards. Serving
    /// against stale budget caps could over-spend, so the open is refused.
    EpochRegression {
        /// The epoch persisted in the journal.
        persisted: u64,
        /// The (older) epoch the caller asked to open.
        requested: u64,
    },
    /// The device refused the write with `ENOSPC`: the disk is full, so
    /// no spend can be made durable. The request must be refused (never
    /// served unjournaled) — a full disk is a capacity outage, not a
    /// privacy leak.
    DiskFull {
        /// The journal step that hit the full disk.
        step: &'static str,
    },
}

impl Clone for JournalError {
    fn clone(&self) -> Self {
        match self {
            // io::Error is not Clone; rebuild from the OS code when there
            // is one, else carry kind + message.
            JournalError::Io { step, source } => JournalError::Io {
                step,
                source: match source.raw_os_error() {
                    Some(code) => io::Error::from_raw_os_error(code),
                    None => io::Error::new(source.kind(), source.to_string()),
                },
            },
            JournalError::Corrupt { section, detail } => JournalError::Corrupt {
                section: section.clone(),
                detail: detail.clone(),
            },
            JournalError::Injected(site) => JournalError::Injected(site),
            JournalError::EpochRegression {
                persisted,
                requested,
            } => JournalError::EpochRegression {
                persisted: *persisted,
                requested: *requested,
            },
            JournalError::DiskFull { step } => JournalError::DiskFull { step },
        }
    }
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io { step, .. } => write!(f, "journal i/o failed at {step}"),
            JournalError::Corrupt { section, detail } => {
                write!(f, "journal corrupt at {section}: {detail}")
            }
            JournalError::Injected(site) => write!(f, "injected journal fault ({site})"),
            JournalError::EpochRegression {
                persisted,
                requested,
            } => write!(
                f,
                "epoch regression: journal is at epoch {persisted}, caller requested {requested}"
            ),
            JournalError::DiskFull { step } => {
                write!(f, "journal disk full at {step}; refusing unjournaled spend")
            }
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// `ENOSPC` as the kernel reports it (errno 28 on every unix this
/// workspace targets) — detected without a libc dependency.
const ENOSPC: i32 = 28;
/// `EIO`: a transient device-level read/write error worth retrying.
const EIO: i32 = 5;

fn io_err(step: &'static str) -> impl FnOnce(io::Error) -> JournalError {
    move |source| {
        if source.raw_os_error() == Some(ENOSPC) {
            JournalError::DiskFull { step }
        } else {
            JournalError::Io { step, source }
        }
    }
}

/// Whether this error is a transient device fault (`EIO`) that a bounded
/// retry may clear — as opposed to a full disk or corruption, which it
/// cannot.
pub fn is_transient_io(err: &JournalError) -> bool {
    matches!(err, JournalError::Io { source, .. } if source.raw_os_error() == Some(EIO))
}

fn corrupt(section: impl Into<String>, detail: impl Into<String>) -> JournalError {
    JournalError::Corrupt {
        section: section.into(),
        detail: detail.into(),
    }
}

/// Write `bytes` to `path` atomically: temp file in the same directory,
/// fsync, rename over the destination, best-effort directory sync. A
/// crash at any point leaves either the old file or the new one — never a
/// truncated hybrid. (Also the crash-safe export primitive for the CLI.)
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = tmp_sibling(path);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    sync_parent_dir(path);
    Ok(())
}

/// `<path>.tmp` in the same directory (same filesystem, so the rename is
/// atomic).
fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".tmp");
    PathBuf::from(name)
}

/// Durability of the rename itself requires fsyncing the directory; not
/// all platforms allow opening a directory, so this is best-effort.
fn sync_parent_dir(path: &Path) {
    if let Some(parent) = path.parent() {
        if let Ok(dir) = File::open(parent) {
            let _ = dir.sync_all();
        }
    }
}

/// The snapshot file's name in a journal directory.
const SNAP_FILE: &str = "ledger.snap";
/// Prefix of a WAL segment's file name: `ledger.wal.<gen>`.
const SEGMENT_PREFIX: &str = "ledger.wal.";

/// The path of WAL segment `gen` in `dir`.
fn segment_path(dir: &Path, gen: u64) -> PathBuf {
    dir.join(format!("{SEGMENT_PREFIX}{gen}"))
}

/// The generations of the WAL segments in `dir`, ascending. Temp files
/// (`ledger.wal.<gen>.tmp`) are not segments.
fn list_segments(dir: &Path) -> Result<Vec<u64>, JournalError> {
    let mut gens = Vec::new();
    for entry in fs::read_dir(dir).map_err(io_err("journal dir read"))? {
        let name = entry.map_err(io_err("journal dir read"))?.file_name();
        if let Some(gen) = name
            .to_str()
            .and_then(|n| n.strip_prefix(SEGMENT_PREFIX))
            .and_then(|g| g.parse::<u64>().ok())
        {
            gens.push(gen);
        }
    }
    gens.sort_unstable();
    Ok(gens)
}

/// Remove leftover temp files: they are uncommitted by definition.
fn remove_temp_files(dir: &Path) {
    let _ = fs::remove_file(tmp_sibling(&dir.join(SNAP_FILE)));
    if let Ok(entries) = fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with(SEGMENT_PREFIX) && name.ends_with(".tmp") {
                let _ = fs::remove_file(entry.path());
            }
        }
    }
}

/// The state a [`Journal::open`] recovered from disk.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredState {
    /// The epoch the recovered spends belong to.
    pub epoch: u64,
    /// Per-user recovered spend (snapshot fold + WAL replay).
    pub spent: BTreeMap<u64, f64>,
}

/// The write-ahead journal for one ledger directory. See the module docs
/// for the format and the recovery rules.
#[derive(Debug)]
pub struct Journal {
    dir: PathBuf,
    /// The active segment, positioned at `committed_len`.
    wal: File,
    /// The active segment's generation.
    active: u64,
    epoch: u64,
    /// Records acknowledged in the active segment; also the next
    /// record's `seq - 1`.
    records: u64,
    /// File length covering exactly the acknowledged records. The tail
    /// beyond it is repaired (truncated) before any further append.
    committed_len: u64,
    /// True when a failed append left unacknowledged bytes that could not
    /// be truncated away. Appends must strictly repair the tail first.
    tail_dirty: bool,
    /// The durable, empty segment `active + 1` that [`Self::rotate`]
    /// switches to, once a fold has created it.
    spare: Option<File>,
}

impl Journal {
    /// Open (or create) the journal in `dir` and recover its state.
    ///
    /// `epoch` is the caller's current epoch: a journal persisted at an
    /// older epoch is reset (budgets renew across epochs — the old spends
    /// are intentionally dropped *with* a fresh committed snapshot); a
    /// journal at a newer epoch refuses with
    /// [`JournalError::EpochRegression`].
    ///
    /// # Errors
    /// [`JournalError`] on I/O failure, committed-region corruption, a
    /// gap in the segment chain, or epoch regression. Never panics on any
    /// on-disk state.
    pub fn open(dir: &Path, epoch: u64) -> Result<(Self, RecoveredState), JournalError> {
        fs::create_dir_all(dir).map_err(io_err("journal dir create"))?;
        let snap_path = dir.join(SNAP_FILE);
        remove_temp_files(dir);
        let segments = list_segments(dir)?;
        let renewed = |gen| -> Result<(Self, RecoveredState), JournalError> {
            let journal = Self::fresh(dir, gen, epoch)?;
            Ok((
                journal,
                RecoveredState {
                    epoch,
                    spent: BTreeMap::new(),
                },
            ))
        };

        if !snap_path.exists() {
            if !segments.is_empty() {
                return Err(corrupt(
                    "journal dir",
                    "WAL segment present without a snapshot (snapshots are written \
                     first); refusing to guess at the missing committed state",
                ));
            }
            // Fresh directory: commit an empty snapshot, then segment 1.
            commit_snapshot(dir, 1, epoch, &mut snapshot_image([]))?;
            return renewed(1);
        }

        let (snap_gen, snap_epoch, mut spent) = read_snapshot_file(&snap_path)?;
        if snap_epoch > epoch {
            return Err(JournalError::EpochRegression {
                persisted: snap_epoch,
                requested: epoch,
            });
        }
        if snap_epoch < epoch {
            // New epoch: budgets renew. Commit the reset before returning
            // so a crash right after open cannot resurrect old spends into
            // the new epoch. Its generation covers every segment on disk.
            let gen = segments.last().map_or(snap_gen, |&g| g.max(snap_gen)) + 1;
            commit_snapshot(dir, gen, epoch, &mut snapshot_image([]))?;
            retire_segments(dir, gen)?;
            return renewed(gen);
        }

        // Segments below the snapshot's generation are already folded in.
        retire_segments(dir, snap_gen)?;
        let live: Vec<u64> = segments.into_iter().filter(|&g| g >= snap_gen).collect();
        if live.is_empty() {
            // A crash between the snapshot commit and the creation of its
            // segment: no record in that segment was ever acknowledged.
            let journal = Self::fresh(dir, snap_gen, epoch)?;
            return Ok((journal, RecoveredState { epoch, spent }));
        }
        if let Some((want, _)) = (snap_gen..).zip(&live).find(|(want, gen)| want != *gen) {
            return Err(corrupt(
                format!("wal segment {want}"),
                format!(
                    "missing from the chain after snapshot generation {snap_gen} \
                     (segments on disk: {live:?})"
                ),
            ));
        }
        // Replay the chain in order; the highest segment stays open as
        // the active one.
        let mut replayed = None;
        for &gen in &live {
            replayed = Some((gen, replay_segment(dir, gen, snap_epoch, &mut spent)?));
        }
        let (active, (wal, records, committed_len)) = replayed.expect("the chain is not empty");
        let journal = Self {
            dir: dir.to_path_buf(),
            wal,
            active,
            epoch,
            records,
            committed_len,
            tail_dirty: false,
            spare: None,
        };
        Ok((journal, RecoveredState { epoch, spent }))
    }

    /// A journal appending to a freshly created, empty segment `gen`.
    fn fresh(dir: &Path, gen: u64, epoch: u64) -> Result<Self, JournalError> {
        Ok(Self {
            dir: dir.to_path_buf(),
            wal: create_segment(dir, gen, epoch)?,
            active: gen,
            epoch,
            records: 0,
            committed_len: WAL_HEADER_LEN,
            tail_dirty: false,
            spare: None,
        })
    }

    /// The journal's current epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The generation of the active segment, the one appends extend.
    pub fn active_segment(&self) -> u64 {
        self.active
    }

    /// Records acknowledged in the active segment.
    pub fn segment_records(&self) -> u64 {
        self.records
    }

    /// Durably append one spend record: the one-record case of
    /// [`Self::append_many`].
    ///
    /// # Errors
    /// [`JournalError`] on any step failure (including injected faults).
    pub fn append(&mut self, user: u64, eps: f64) -> Result<(), JournalError> {
        self.append_many(&[(user, eps)])
    }

    /// Durably append a group of spend records with one write and one
    /// fsync. On `Ok`, every record is fully written **and fsynced** —
    /// only then may the caller serve the requests. On `Err` none of them
    /// is acknowledged: the caller must refuse them all, and the journal
    /// repairs its tail so the failed bytes can never be ordered ahead of
    /// a later acknowledged record. An empty group touches nothing.
    ///
    /// # Errors
    /// [`JournalError`] on any step failure (including injected faults).
    pub fn append_many(&mut self, group: &[(u64, f64)]) -> Result<(), JournalError> {
        if group.is_empty() {
            return Ok(());
        }
        // Self-heal before acknowledging anything: a dirty tail is
        // truncated back to the last acknowledged record.
        if self.tail_dirty {
            self.wal
                .set_len(self.committed_len)
                .and_then(|()| self.wal.sync_data())
                .and_then(|()| self.wal.seek(SeekFrom::Start(self.committed_len)))
                .map_err(io_err("wal tail repair"))?;
            self.tail_dirty = false;
        }
        if failpoint::hit("serve.journal.append") {
            return Err(JournalError::Injected("serve.journal.append"));
        }
        if failpoint::hit("serve.journal.enospc") {
            // Injected full disk: the write is refused before any byte
            // lands, exactly as a real ENOSPC from write_all would be
            // classified. Nothing to repair, nothing acknowledged.
            return Err(JournalError::DiskFull { step: "wal append" });
        }
        if failpoint::hit("serve.journal.eio") {
            // Injected transient device error: bytes may or may not have
            // landed, so the tail is repaired like any failed write. The
            // typed error carries the real EIO code so the shard layer's
            // bounded retry recognizes it as transient.
            self.repair_tail();
            return Err(JournalError::Io {
                step: "wal append",
                source: io::Error::from_raw_os_error(EIO),
            });
        }
        let mut bytes = Vec::with_capacity(group.len() * RECORD_LEN as usize);
        for (seq, &(user, eps)) in (self.records + 1..).zip(group) {
            bytes.extend_from_slice(&encode_record(user, eps, seq));
        }

        if failpoint::hit("serve.journal.torn") {
            // Simulate a write cut inside the group's last record: every
            // earlier record lands whole, then a prefix of the last. The
            // repair below truncates it all away; were the repair lost to
            // a crash, recovery would count the complete but unacknowledged
            // records — over-counting, the safe direction.
            let _ = self
                .wal
                .write_all(&bytes[..bytes.len() - RECORD_LEN as usize + 13]);
            let _ = self.wal.sync_data();
            self.repair_tail();
            return Err(JournalError::Injected("serve.journal.torn"));
        }
        if let Err(e) = self.wal.write_all(&bytes) {
            self.repair_tail();
            return Err(JournalError::Io {
                step: "wal append",
                source: e,
            });
        }
        let flush_fault = failpoint::hit("serve.journal.flush");
        let synced = if flush_fault {
            Err(JournalError::Injected("serve.journal.flush"))
        } else {
            self.wal.sync_data().map_err(io_err("wal flush"))
        };
        if let Err(e) = synced {
            // The group's bytes may or may not be durable; either way none
            // of it was acknowledged, so truncate it back out. If the
            // truncation itself cannot be confirmed, recovery may count
            // the records — the safe direction.
            self.repair_tail();
            return Err(e);
        }
        self.records += group.len() as u64;
        self.committed_len += group.len() as u64 * RECORD_LEN;
        Ok(())
    }

    /// Truncate the WAL back to the last acknowledged record. On failure
    /// the tail is marked dirty and every later append strictly retries
    /// the repair before acknowledging anything.
    fn repair_tail(&mut self) {
        let repaired = self
            .wal
            .set_len(self.committed_len)
            .and_then(|()| self.wal.sync_data())
            .and_then(|()| self.wal.seek(SeekFrom::Start(self.committed_len)))
            .is_ok();
        self.tail_dirty = !repaired;
    }

    /// Hand the journal the spare segment a [`Fold`] created.
    pub(crate) fn install_spare(&mut self, spare: File) {
        self.spare = Some(spare);
    }

    /// Seal the active segment and start appending to the spare, without
    /// a single file-system call. Returns the new active generation — the
    /// snapshot generation that will cover the sealed segments — and the
    /// sealed segment's handle, to be closed off the caller's lock; `None`
    /// (and nothing changes) while no spare exists.
    pub(crate) fn rotate(&mut self) -> Option<(u64, File)> {
        let spare = self.spare.take()?;
        let sealed = std::mem::replace(&mut self.wal, spare);
        self.active += 1;
        self.records = 0;
        self.committed_len = WAL_HEADER_LEN;
        // A dirty tail stays behind in the sealed segment: replay stops at
        // it, and the bytes were never acknowledged.
        self.tail_dirty = false;
        Some((self.active, sealed))
    }
}

/// How many folds committed their snapshot, and how many fold steps
/// failed — counted by whichever thread ran the fold.
#[derive(Debug, Default)]
pub(crate) struct FoldCounts {
    /// Snapshots committed by folds.
    pub(crate) folds: AtomicU64,
    /// Fold steps that failed (each is retried later).
    pub(crate) faults: AtomicU64,
}

/// The next step of a [`Fold`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FoldStep {
    /// Commit snapshot `target` from the image.
    Commit,
    /// Delete the segments below `target`.
    Retire,
    /// Create the spare segment `target + 1`.
    Spare,
    /// Nothing left to do.
    Done,
}

/// One snapshot fold, runnable on any thread: commit snapshot `target`
/// from a capture of the state at the start of segment `target`, delete
/// the segments it covers, create the spare `target + 1` (module docs).
/// One `Fold` serves a ledger for its lifetime, so its snapshot image
/// buffer is reused fold to fold.
#[derive(Debug)]
pub(crate) struct Fold {
    dir: PathBuf,
    epoch: u64,
    target: u64,
    /// Snapshot `target`'s image: header room, then every account's
    /// `(user, spent)` at the start of segment `target`, in user order.
    image: Vec<u8>,
    step: FoldStep,
    /// The sealed segment's handle, closed by the fold.
    sealed: Option<File>,
    /// Failpoint arming of the thread that queued the fold.
    scope: failpoint::Scope,
    counts: Arc<FoldCounts>,
}

impl Fold {
    /// The first fold of an opened journal: it has nothing to commit and
    /// only creates the spare segment after the active one.
    pub(crate) fn first_spare(journal: &Journal, counts: Arc<FoldCounts>) -> Self {
        Self {
            dir: journal.dir.clone(),
            epoch: journal.epoch,
            target: journal.active,
            image: Vec::new(),
            step: FoldStep::Spare,
            sealed: None,
            scope: failpoint::Scope::current(),
            counts,
        }
    }

    /// Whether a step is left to run: a new fold, or a failed one to
    /// retry from the step that failed.
    pub(crate) fn pending(&self) -> bool {
        self.step != FoldStep::Done
    }

    /// Start the fold of a [`Journal::rotate`] into segment `target`,
    /// capturing `state` — every account's spend at that segment
    /// boundary — straight into the snapshot image.
    pub(crate) fn start(
        &mut self,
        target: u64,
        sealed: File,
        state: impl Iterator<Item = (u64, f64)>,
    ) {
        self.target = target;
        fill_snapshot_image(&mut self.image, state);
        self.sealed = Some(sealed);
        self.step = FoldStep::Commit;
    }

    /// Make the current thread's failpoint arming the one the fold runs
    /// under (it is captured here and entered by [`Self::run`]).
    pub(crate) fn rescope(&mut self) {
        self.scope = failpoint::Scope::current();
    }

    /// Run the remaining steps in order and return the new spare
    /// segment. A failed step is counted and left to be retried; the
    /// image stays valid for snapshot `target` until it commits.
    ///
    /// # Errors
    /// The failed step's [`JournalError`].
    pub(crate) fn run(&mut self) -> Result<File, JournalError> {
        let _scope = self.scope.enter();
        drop(self.sealed.take());
        let result = self.steps();
        if result.is_err() {
            self.counts.faults.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    fn steps(&mut self) -> Result<File, JournalError> {
        if self.step == FoldStep::Commit {
            commit_snapshot(&self.dir, self.target, self.epoch, &mut self.image)?;
            self.counts.folds.fetch_add(1, Ordering::Relaxed);
            self.step = FoldStep::Retire;
        }
        if self.step == FoldStep::Retire {
            retire_segments(&self.dir, self.target)?;
            self.step = FoldStep::Spare;
        }
        if failpoint::hit("serve.wal.reset") {
            return Err(JournalError::Injected("serve.wal.reset"));
        }
        let spare = create_segment(&self.dir, self.target + 1, self.epoch)?;
        self.step = FoldStep::Done;
        Ok(spare)
    }
}

/// Commit snapshot `gen` from `image` (see [`fill_snapshot_image`])
/// atomically: fill in its header, write it and the body checksum to a
/// temp file, fsync, rename — the commit point — then sync the directory.
fn commit_snapshot(dir: &Path, gen: u64, epoch: u64, image: &mut [u8]) -> Result<(), JournalError> {
    if failpoint::hit("serve.snapshot.write") {
        return Err(JournalError::Injected("serve.snapshot.write"));
    }
    let snap_path = dir.join(SNAP_FILE);
    let body_sum = seal_snapshot_image(gen, epoch, image);
    let tmp = tmp_sibling(&snap_path);
    {
        let mut f = File::create(&tmp).map_err(io_err("snapshot temp create"))?;
        if failpoint::hit("serve.snapshot.enospc") {
            // Injected full disk at the temp-file write boundary: the
            // old committed snapshot is untouched, only the fold is
            // refused — spends stay durable in the WAL.
            let _ = fs::remove_file(&tmp);
            return Err(JournalError::DiskFull {
                step: "snapshot temp write",
            });
        }
        f.write_all(image)
            .and_then(|()| f.write_all(&body_sum.to_le_bytes()))
            .map_err(io_err("snapshot temp write"))?;
        f.sync_all().map_err(io_err("snapshot temp sync"))?;
    }
    if failpoint::hit("serve.snapshot.commit") {
        let _ = fs::remove_file(&tmp);
        return Err(JournalError::Injected("serve.snapshot.commit"));
    }
    fs::rename(&tmp, &snap_path).map_err(io_err("snapshot commit"))?;
    sync_parent_dir(&snap_path);
    Ok(())
}

/// Delete every segment below generation `below` — only ever called once
/// a snapshot covering them has committed.
fn retire_segments(dir: &Path, below: u64) -> Result<(), JournalError> {
    for gen in list_segments(dir)?.into_iter().take_while(|&g| g < below) {
        match fs::remove_file(segment_path(dir, gen)) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => {
                return Err(io_err("segment retire")(e));
            }
            _ => {}
        }
    }
    Ok(())
}

/// Create the empty segment `gen` durably (temp + rename + directory
/// sync) and return it opened for append.
fn create_segment(dir: &Path, gen: u64, epoch: u64) -> Result<File, JournalError> {
    let path = segment_path(dir, gen);
    atomic_write(&path, &encode_wal_header(gen, epoch)).map_err(io_err("segment create"))?;
    let mut wal = OpenOptions::new()
        .write(true)
        .open(&path)
        .map_err(io_err("segment open"))?;
    wal.seek(SeekFrom::Start(WAL_HEADER_LEN))
        .map_err(io_err("segment open seek"))?;
    Ok(wal)
}

/// Encode one 32-byte spend record — the WAL on-disk format *and* the
/// replication wire format share these bytes, so a shipped record is
/// checksummed end to end by the same FNV-1a the journal verifies.
pub(crate) fn encode_record(user: u64, eps: f64, seq: u64) -> [u8; RECORD_LEN as usize] {
    let mut record = [0u8; RECORD_LEN as usize];
    record[0..8].copy_from_slice(&user.to_le_bytes());
    record[8..16].copy_from_slice(&eps.to_bits().to_le_bytes());
    record[16..24].copy_from_slice(&seq.to_le_bytes());
    let sum = fnv1a64(&record[0..24]);
    record[24..32].copy_from_slice(&sum.to_le_bytes());
    record
}

/// Decode and verify one 32-byte spend record: checksum, finite
/// non-negative ε. `None` means the record cannot be trusted.
pub(crate) fn decode_record(rec: &[u8]) -> Option<(u64, f64, u64)> {
    if rec.len() != RECORD_LEN as usize {
        return None;
    }
    let word = |at: usize| -> u64 {
        u64::from_le_bytes(
            rec[at..at + 8]
                .try_into()
                .expect("8-byte slice of a checked buffer"),
        )
    };
    if word(24) != fnv1a64(&rec[0..24]) {
        return None;
    }
    let eps = f64::from_bits(word(8));
    if !eps.is_finite() || eps < 0.0 {
        return None;
    }
    Some((word(0), eps, word(16)))
}

/// Magic of the replication fence-generation file (`repl.gen`).
const FENCE_MAGIC: &[u8; 8] = b"GIREPLGN";

/// Read the replication fence generation persisted in `dir`, if a
/// verifiable one exists. `None` (missing or unverifiable) is treated by
/// callers as "no fence recorded", which is the safe direction on the
/// primary side: a primary that lost its generation ships at the floor
/// generation and gets fenced, never the other way around.
pub fn read_fence_gen(dir: &Path) -> Option<u64> {
    let bytes = fs::read(dir.join("repl.gen")).ok()?;
    if bytes.len() != 24 || &bytes[0..8] != FENCE_MAGIC {
        return None;
    }
    let word = |at: usize| -> u64 {
        u64::from_le_bytes(
            bytes[at..at + 8]
                .try_into()
                .expect("8-byte slice of a checked buffer"),
        )
    };
    (word(16) == fnv1a64(&bytes[8..16])).then(|| word(8))
}

/// Durably persist the replication fence generation in `dir` (atomic
/// temp + rename, same discipline as every other committed file here).
///
/// # Errors
/// [`JournalError`] when the write cannot be made durable.
pub fn write_fence_gen(dir: &Path, gen: u64) -> Result<(), JournalError> {
    let mut bytes = Vec::with_capacity(24);
    bytes.extend_from_slice(FENCE_MAGIC);
    bytes.extend_from_slice(&gen.to_le_bytes());
    let sum = fnv1a64(&bytes[8..16]);
    bytes.extend_from_slice(&sum.to_le_bytes());
    atomic_write(&dir.join("repl.gen"), &bytes).map_err(io_err("fence gen write"))
}

fn encode_wal_header(gen: u64, epoch: u64) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(WAL_HEADER_LEN as usize);
    bytes.extend_from_slice(WAL_MAGIC);
    bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&gen.to_le_bytes());
    bytes.extend_from_slice(&epoch.to_le_bytes());
    let sum = fnv1a64(&bytes[8..28]);
    bytes.extend_from_slice(&sum.to_le_bytes());
    bytes
}

/// Make `image` a snapshot image of `state` (one entry per user, in user
/// order): room for the header, then the entries. Reuses its capacity.
fn fill_snapshot_image(image: &mut Vec<u8>, state: impl IntoIterator<Item = (u64, f64)>) {
    image.clear();
    image.resize(SNAP_HEADER_LEN as usize, 0);
    for (user, spent) in state {
        image.extend_from_slice(&user.to_le_bytes());
        image.extend_from_slice(&spent.to_bits().to_le_bytes());
    }
}

/// A fresh snapshot image of `state`.
fn snapshot_image(state: impl IntoIterator<Item = (u64, f64)>) -> Vec<u8> {
    let mut image = Vec::new();
    fill_snapshot_image(&mut image, state);
    image
}

/// Write snapshot `gen`'s header into `image` and return the body
/// checksum that follows the entries on disk.
fn seal_snapshot_image(gen: u64, epoch: u64, image: &mut [u8]) -> u64 {
    let count = (image.len() as u64 - SNAP_HEADER_LEN) / 16;
    image[0..8].copy_from_slice(SNAP_MAGIC);
    image[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    image[12..20].copy_from_slice(&gen.to_le_bytes());
    image[20..28].copy_from_slice(&epoch.to_le_bytes());
    image[28..36].copy_from_slice(&count.to_le_bytes());
    let header_sum = fnv1a64(&image[8..36]);
    image[36..44].copy_from_slice(&header_sum.to_le_bytes());
    fnv1a64(&image[SNAP_HEADER_LEN as usize..])
}

fn read_snapshot_file(path: &Path) -> Result<(u64, u64, BTreeMap<u64, f64>), JournalError> {
    let bytes = fs::read(path).map_err(io_err("snapshot read"))?;
    if bytes.len() < SNAP_HEADER_LEN as usize + 8 {
        return Err(corrupt("snapshot header", "file shorter than its header"));
    }
    if &bytes[0..8] != SNAP_MAGIC {
        return Err(corrupt("snapshot header", "bad magic"));
    }
    let word_u32 = |at: usize| {
        u32::from_le_bytes(
            bytes[at..at + 4]
                .try_into()
                .expect("4-byte slice of a checked buffer"),
        )
    };
    let word = |at: usize| {
        u64::from_le_bytes(
            bytes[at..at + 8]
                .try_into()
                .expect("8-byte slice of a checked buffer"),
        )
    };
    let version = word_u32(8);
    if version != FORMAT_VERSION {
        return Err(corrupt(
            "snapshot header",
            format!("unsupported format version {version} (expected {FORMAT_VERSION})"),
        ));
    }
    let (gen, epoch, count) = (word(12), word(20), word(28));
    if word(36) != fnv1a64(&bytes[8..36]) {
        return Err(corrupt("snapshot header", "header checksum mismatch"));
    }
    if count > MAX_SNAP_ENTRIES {
        return Err(corrupt("snapshot header", "implausible entry count"));
    }
    let body_start = SNAP_HEADER_LEN as usize;
    let body_len = (count as usize)
        .checked_mul(16)
        .ok_or_else(|| corrupt("snapshot header", "entry count overflows"))?;
    let expect_len = body_start + body_len + 8;
    if bytes.len() != expect_len {
        return Err(corrupt(
            "snapshot body",
            format!("file is {} bytes, header implies {expect_len}", bytes.len()),
        ));
    }
    let body = &bytes[body_start..body_start + body_len];
    let declared = word(body_start + body_len);
    if declared != fnv1a64(body) {
        return Err(corrupt("snapshot body", "body checksum mismatch"));
    }
    let mut spent = BTreeMap::new();
    for i in 0..count as usize {
        let user = u64::from_le_bytes(
            body[16 * i..16 * i + 8]
                .try_into()
                .expect("8-byte slice of a checked buffer"),
        );
        let amount = f64::from_bits(u64::from_le_bytes(
            body[16 * i + 8..16 * i + 16]
                .try_into()
                .expect("8-byte slice of a checked buffer"),
        ));
        if !amount.is_finite() || amount < 0.0 {
            return Err(corrupt(
                format!("snapshot entry {i}"),
                "non-finite or negative spend",
            ));
        }
        if spent.insert(user, amount).is_some() {
            return Err(corrupt(
                format!("snapshot entry {i}"),
                format!("duplicate user {user}"),
            ));
        }
    }
    Ok((gen, epoch, spent))
}

/// Validate segment `gen` against the snapshot's `epoch` and replay its
/// records onto `spent`, truncating any unreplayable tail. Returns the
/// segment opened for append at its committed end, its record count and
/// its committed length.
fn replay_segment(
    dir: &Path,
    gen: u64,
    epoch: u64,
    spent: &mut BTreeMap<u64, f64>,
) -> Result<(File, u64, u64), JournalError> {
    let path = segment_path(dir, gen);
    let section = || format!("wal segment {gen} header");
    let bytes = fs::read(&path).map_err(io_err("wal read"))?;
    // Segments are created whole (temp + rename), so a header that does
    // not verify is damage, not a crash artifact.
    let (header_gen, header_epoch) = parse_wal_header(&bytes).ok_or_else(|| {
        corrupt(
            section(),
            "short file, bad magic or version, or bad checksum",
        )
    })?;
    if header_gen != gen {
        return Err(corrupt(
            section(),
            format!("header generation {header_gen} disagrees with the file name"),
        ));
    }
    if header_epoch != epoch {
        return Err(corrupt(
            section(),
            format!("WAL epoch {header_epoch} disagrees with snapshot epoch {epoch}"),
        ));
    }

    // Replay: apply every valid record, stop at the first torn/corrupt/
    // out-of-sequence one and truncate the tail there.
    let mut offset = WAL_HEADER_LEN as usize;
    let mut records = 0u64;
    while let Some((user, eps, seq)) = bytes
        .get(offset..offset + RECORD_LEN as usize)
        .and_then(decode_record)
    {
        if seq != records + 1 {
            break;
        }
        *spent.entry(user).or_insert(0.0) += eps;
        records += 1;
        offset += RECORD_LEN as usize;
    }
    let committed_len = offset as u64;

    let mut wal = OpenOptions::new()
        .write(true)
        .open(&path)
        .map_err(io_err("wal reopen"))?;
    if (bytes.len() as u64) > committed_len {
        // Torn or corrupt tail from the crash: truncate it so new appends
        // extend a clean, fully-replayable file.
        wal.set_len(committed_len).map_err(io_err("wal truncate"))?;
        wal.sync_data().map_err(io_err("wal truncate sync"))?;
    }
    wal.seek(SeekFrom::Start(committed_len))
        .map_err(io_err("wal reopen seek"))?;
    Ok((wal, records, committed_len))
}

/// What a successful [`scavenge`] salvaged and committed.
#[derive(Debug, Clone)]
pub struct ScavengeReport {
    /// Per-user salvaged spend, now folded into the fresh snapshot.
    pub salvaged: BTreeMap<u64, f64>,
    /// WAL records whose checksum verified and were folded in.
    pub wal_records: u64,
    /// Checksum-valid records applied despite an unverifiable context
    /// (corrupt segment header, out-of-sequence position, or a gap left
    /// by a checksum-failed neighbour). Each may already be folded into
    /// the snapshot — applying it anyway over-counts, which is the safe
    /// direction: recovered spend ≥ served spend stays provable.
    pub ambiguous_records: u64,
    /// True when a provably stale (already-folded) segment was discarded
    /// — the one case where *not* applying records is provably safe.
    pub stale_wal_discarded: bool,
}

/// Parse a WAL header if — and only if — every one of its integrity
/// checks passes. `None` means the header cannot be trusted, not that
/// the file holds no records.
fn parse_wal_header(bytes: &[u8]) -> Option<(u64, u64)> {
    if bytes.len() < WAL_HEADER_LEN as usize || &bytes[0..8] != WAL_MAGIC {
        return None;
    }
    let word = |at: usize| -> u64 {
        u64::from_le_bytes(
            bytes[at..at + 8]
                .try_into()
                .expect("8-byte slice of a checked buffer"),
        )
    };
    let version = u32::from_le_bytes(
        bytes[8..12]
            .try_into()
            .expect("4-byte slice of a checked buffer"),
    );
    if version != FORMAT_VERSION || word(28) != fnv1a64(&bytes[8..28]) {
        return None;
    }
    Some((word(12), word(20)))
}

/// Salvage a damaged journal directory into a fresh committed snapshot,
/// resolving every ambiguity **upward** so the fail-closed invariant
/// (recovered spend ≥ served spend, per user) stays provable:
///
/// * the committed snapshot is the base — if it is missing-with-segments
///   or fails its checksums, the served base is unknowable and the
///   scavenge **abandons** (typed error; the shard stays refused);
/// * every WAL segment on disk is read. One whose header verifies at its
///   own generation, *below* the snapshot's, is provably already folded
///   in and is discarded (the only downward resolution, because it is
///   proven);
/// * from every other segment each checksum-valid record is applied —
///   even when the segment header is corrupt or a record is out of
///   sequence. An applied record can at worst double-count spend that
///   the snapshot already folded; skipping it could forget an
///   acknowledged serve;
/// * torn tails and checksum-failed records are skipped (they were never
///   acknowledged, or their content cannot be trusted at all);
/// * the salvaged state is committed via the standard atomic temp+rename
///   snapshot at a generation past every segment, the old segments are
///   deleted, and a fresh empty segment is created — ready for a normal
///   [`Journal::open`] to verify.
///
/// An epoch ahead of `epoch` abandons ([`JournalError::EpochRegression`]);
/// an epoch behind it salvages to an empty state (budgets renewed).
///
/// # Errors
/// Any [`JournalError`] that makes the salvage unprovable or the commit
/// impossible; until the new snapshot commits, the directory is left no
/// worse than it was found.
pub fn scavenge(dir: &Path, epoch: u64) -> Result<ScavengeReport, JournalError> {
    let snap_path = dir.join(SNAP_FILE);
    remove_temp_files(dir);
    let segments = list_segments(dir)?;

    let (snap_gen, snap_epoch, mut salvaged) = if snap_path.exists() {
        // Abandons on any committed-region corruption: without a trusted
        // base the salvage cannot bound what was served.
        read_snapshot_file(&snap_path)?
    } else if !segments.is_empty() {
        return Err(corrupt(
            "journal dir",
            "WAL segment present without a snapshot; the committed base is unknowable",
        ));
    } else {
        (0, epoch, BTreeMap::new())
    };
    if snap_epoch > epoch {
        return Err(JournalError::EpochRegression {
            persisted: snap_epoch,
            requested: epoch,
        });
    }

    let mut wal_records = 0u64;
    let mut ambiguous_records = 0u64;
    let mut stale_wal_discarded = false;
    if snap_epoch < epoch {
        // Budgets renew across epochs: the old spends (snapshot and WAL
        // alike) are intentionally dropped.
        salvaged = BTreeMap::new();
    } else {
        for &gen in &segments {
            let bytes = match fs::read(segment_path(dir, gen)) {
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                Err(e) => return Err(io_err("scavenge wal read")(e)),
                Ok(bytes) => bytes,
            };
            let header = parse_wal_header(&bytes)
                .filter(|&(header_gen, ep)| header_gen == gen && ep == snap_epoch);
            if header.is_some() && gen < snap_gen {
                // Provably stale: the snapshot at a later generation
                // already folded these records in.
                stale_wal_discarded = true;
                continue;
            }
            let trusted = header.is_some();
            // Acknowledged records always sit at fixed 32-byte strides
            // (the tail-repair discipline guarantees it), so scan every
            // slot and apply whatever verifies.
            for (slot, rec) in (1u64..).zip(
                bytes[WAL_HEADER_LEN.min(bytes.len() as u64) as usize..]
                    .chunks_exact(RECORD_LEN as usize),
            ) {
                // A failed checksum: never acknowledged, or untrustable.
                let Some((user, eps, seq)) = decode_record(rec) else {
                    continue;
                };
                if !trusted || seq != slot {
                    ambiguous_records += 1;
                }
                *salvaged.entry(user).or_insert(0.0) += eps;
                wal_records += 1;
            }
        }
    }

    // Commit the salvage: a fresh snapshot past every segment on disk,
    // then a fresh empty segment — exactly the state a standard open
    // verifies.
    let next_gen = segments
        .last()
        .map_or(snap_gen, |&g| g.max(snap_gen))
        .saturating_add(1);
    let mut image = snapshot_image(salvaged.iter().map(|(&user, &spent)| (user, spent)));
    commit_snapshot(dir, next_gen, epoch, &mut image)?;
    retire_segments(dir, next_gen)?;
    drop(create_segment(dir, next_gen, epoch)?);
    Ok(ScavengeReport {
        salvaged,
        wal_records,
        ambiguous_records,
        stale_wal_discarded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use geoind_testkit::failpoint::{FailSpec, Session};

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "geoind-journal-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn spends(journal: &mut Journal, items: &[(u64, f64)]) {
        for &(user, eps) in items {
            journal.append(user, eps).expect("append");
        }
    }

    /// Start segment `active + 1` on a spare made on the spot, without
    /// folding: the segments before it stay live. Returns what
    /// [`Journal::rotate`] does.
    fn rotate_unfolded(journal: &mut Journal) -> (u64, File) {
        let next = journal.active_segment() + 1;
        let spare = create_segment(&journal.dir, next, journal.epoch).expect("spare");
        journal.install_spare(spare);
        journal.rotate().expect("spare installed")
    }

    /// Rotate and fold `state` (the spend before the new segment) the way
    /// the ledger does, returning the fold's outcome.
    fn rotate_and_fold(journal: &mut Journal, state: &[(u64, f64)]) -> Result<(), JournalError> {
        let (target, sealed) = rotate_unfolded(journal);
        let mut fold = Fold::first_spare(journal, Arc::default());
        fold.start(target, sealed, state.iter().copied());
        fold.rescope();
        journal.install_spare(fold.run()?);
        Ok(())
    }

    fn on_disk(dir: &Path) -> Vec<u64> {
        list_segments(dir).expect("list segments")
    }

    #[test]
    fn fresh_open_then_reopen_roundtrips_spend() {
        let dir = temp_dir("roundtrip");
        let (mut j, rec) = Journal::open(&dir, 0).expect("open");
        assert!(rec.spent.is_empty());
        spends(&mut j, &[(1, 0.5), (2, 0.25), (1, 0.5)]);
        drop(j); // crash: no checkpoint
        let (_, rec) = Journal::open(&dir, 0).expect("reopen");
        assert!((rec.spent[&1] - 1.0).abs() < 1e-12);
        assert!((rec.spent[&2] - 0.25).abs() < 1e-12);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_folds_and_wal_restarts() {
        let dir = temp_dir("fold");
        let (mut j, _) = Journal::open(&dir, 3).expect("open");
        spends(&mut j, &[(7, 0.3), (7, 0.3)]);
        rotate_and_fold(&mut j, &[(7, 0.6)]).expect("fold");
        assert_eq!(j.segment_records(), 0);
        // The fold retired segment 1 and left segment 3 as the spare.
        assert_eq!(on_disk(&dir), [2, 3]);
        spends(&mut j, &[(7, 0.1)]);
        drop(j);
        let (j2, rec) = Journal::open(&dir, 3).expect("reopen");
        assert!((rec.spent[&7] - 0.7).abs() < 1e-12);
        // The empty spare is the highest segment, so it becomes active.
        assert_eq!(j2.active_segment(), 3);
        assert_eq!(j2.segment_records(), 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_and_prior_records_kept() {
        let dir = temp_dir("torn");
        let (mut j, _) = Journal::open(&dir, 0).expect("open");
        spends(&mut j, &[(4, 0.2), (5, 0.4)]);
        drop(j);
        // Simulate a crash mid-append: garbage partial record at the tail.
        let wal_path = segment_path(&dir, 1);
        let mut f = OpenOptions::new().append(true).open(&wal_path).unwrap();
        f.write_all(&[0xAB; 17]).unwrap();
        drop(f);
        let (mut j2, rec) = Journal::open(&dir, 0).expect("recover");
        assert!((rec.spent[&4] - 0.2).abs() < 1e-12);
        assert!((rec.spent[&5] - 0.4).abs() < 1e-12);
        // The repaired file accepts and round-trips further appends.
        spends(&mut j2, &[(4, 0.3)]);
        drop(j2);
        let (_, rec) = Journal::open(&dir, 0).expect("reopen");
        assert!((rec.spent[&4] - 0.5).abs() < 1e-12);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn newer_epoch_resets_spend_older_epoch_refused() {
        let dir = temp_dir("epoch");
        let (mut j, _) = Journal::open(&dir, 5).expect("open");
        spends(&mut j, &[(9, 1.0)]);
        drop(j);
        let (_, rec) = Journal::open(&dir, 6).expect("advance epoch");
        assert!(rec.spent.is_empty(), "old-epoch spend leaked: {rec:?}");
        let err = Journal::open(&dir, 5).expect_err("regression must refuse");
        assert!(matches!(
            err,
            JournalError::EpochRegression {
                persisted: 6,
                requested: 5
            }
        ));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn committed_region_corruption_is_refused_not_guessed() {
        let dir = temp_dir("corrupt");
        let (mut j, _) = Journal::open(&dir, 0).expect("open");
        spends(&mut j, &[(1, 0.5)]);
        drop(j);
        // Flip a bit inside the snapshot header (committed region).
        let snap = dir.join(SNAP_FILE);
        let mut bytes = fs::read(&snap).unwrap();
        bytes[9] ^= 0x40;
        fs::write(&snap, &bytes).unwrap();
        let err = Journal::open(&dir, 0).expect_err("corrupt snapshot admitted");
        assert!(matches!(err, JournalError::Corrupt { .. }), "{err:?}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_without_snapshot_is_refused() {
        let dir = temp_dir("nosnap");
        fs::create_dir_all(&dir).unwrap();
        fs::write(segment_path(&dir, 1), encode_wal_header(1, 0)).unwrap();
        let err = Journal::open(&dir, 0).expect_err("orphan WAL admitted");
        assert!(matches!(err, JournalError::Corrupt { .. }), "{err:?}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn atomic_write_replaces_or_keeps_never_mixes() {
        let dir = temp_dir("atomic");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("blob.bin");
        atomic_write(&path, b"first version").unwrap();
        atomic_write(&path, b"second").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        assert!(!tmp_sibling(&path).exists(), "temp file left behind");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_touches_no_file() {
        let dir = temp_dir("rotate");
        let (mut j, _) = Journal::open(&dir, 0).expect("open");
        assert!(j.rotate().is_none(), "rotated without a spare");
        spends(&mut j, &[(1, 0.5)]);
        let spare = create_segment(&dir, 2, 0).expect("spare");
        j.install_spare(spare);
        let before = on_disk(&dir);
        let (target, _sealed) = j.rotate().expect("rotate onto the spare");
        assert_eq!((target, j.active_segment(), j.segment_records()), (2, 2, 0));
        assert_eq!(on_disk(&dir), before, "rotation changed the directory");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_with_a_sealed_and_an_active_segment_recovers_exactly() {
        let dir = temp_dir("sealed");
        let (mut j, _) = Journal::open(&dir, 0).expect("open");
        spends(&mut j, &[(1, 0.5), (2, 0.25), (1, 0.5)]);
        let mut fp = Session::new();
        fp.arm("serve.snapshot.commit", FailSpec::always());
        let err = rotate_and_fold(&mut j, &[(1, 1.0), (2, 0.25)]).expect_err("commit faults");
        assert!(matches!(
            err,
            JournalError::Injected("serve.snapshot.commit")
        ));
        assert_eq!(fp.fired("serve.snapshot.commit"), 1);
        drop(fp);
        spends(&mut j, &[(2, 0.5)]);
        drop(j); // crash: segment 1 sealed, segment 2 active, snapshot 1
        assert_eq!(on_disk(&dir), [1, 2]);
        let (j2, rec) = Journal::open(&dir, 0).expect("recover");
        assert!((rec.spent[&1] - 1.0).abs() < 1e-12, "{rec:?}");
        assert!((rec.spent[&2] - 0.75).abs() < 1e-12, "{rec:?}");
        assert_eq!((j2.active_segment(), j2.segment_records()), (2, 1));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_missing_middle_segment_is_refused_as_corrupt() {
        let dir = temp_dir("gap");
        let (mut j, _) = Journal::open(&dir, 0).expect("open");
        spends(&mut j, &[(1, 0.5)]);
        rotate_unfolded(&mut j);
        spends(&mut j, &[(1, 0.5)]);
        rotate_unfolded(&mut j);
        spends(&mut j, &[(1, 0.5)]);
        drop(j);
        fs::remove_file(segment_path(&dir, 2)).unwrap();
        let err = Journal::open(&dir, 0).expect_err("a gap in the chain admitted");
        assert!(
            matches!(&err, JournalError::Corrupt { section, .. } if section == "wal segment 2"),
            "{err:?}"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_torn_sealed_segment_is_truncated_and_the_active_one_still_replays() {
        let dir = temp_dir("tornsealed");
        let (mut j, _) = Journal::open(&dir, 0).expect("open");
        spends(&mut j, &[(4, 0.2), (5, 0.4)]);
        rotate_unfolded(&mut j);
        spends(&mut j, &[(4, 0.3)]);
        drop(j);
        let sealed = segment_path(&dir, 1);
        let mut f = OpenOptions::new().append(true).open(&sealed).unwrap();
        f.write_all(&[0xCD; 19]).unwrap();
        drop(f);
        let (j2, rec) = Journal::open(&dir, 0).expect("recover");
        assert!((rec.spent[&4] - 0.5).abs() < 1e-12, "{rec:?}");
        assert!((rec.spent[&5] - 0.4).abs() < 1e-12, "{rec:?}");
        assert_eq!(
            fs::metadata(&sealed).unwrap().len(),
            WAL_HEADER_LEN + 2 * RECORD_LEN,
            "torn tail of the sealed segment kept"
        );
        assert_eq!((j2.active_segment(), j2.segment_records()), (2, 1));
        fs::remove_dir_all(&dir).ok();
    }
}
