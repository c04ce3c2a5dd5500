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
//!   commit point, and a generation number ties the WAL to its snapshot
//!   so replay never double-applies or misses a fold.
//!
//! ## On-disk layout
//!
//! Two files in the journal directory, both little-endian, both carrying
//! FNV-1a 64 checksums:
//!
//! ```text
//! ledger.snap                       ledger.wal
//!   magic    8B "GEOINDSN"            magic    8B "GEOINDWL"
//!   version  u32 = 1                  version  u32 = 1
//!   gen      u64                      gen      u64
//!   epoch    u64                      epoch    u64
//!   count    u64                      header_sum u64 (over the 20 bytes above)
//!   header_sum u64 (over the 28      record × N (32B each):
//!     bytes above)                      user    u64
//!   entry × count:                      eps     f64 bits
//!     user   u64                        seq     u64 (1-based since snapshot)
//!     spent  f64 bits                   rec_sum u64 (over the 24 bytes above)
//!   body_sum u64 (over all entries)
//! ```
//!
//! The snapshot holds the folded state as of generation `gen`; the WAL
//! holds the deltas since. On recovery the WAL is replayed **only if its
//! generation matches the snapshot's** — a stale WAL (crash between
//! snapshot commit and WAL reset) is discarded because its records are
//! already folded in. Replay stops at the first torn, checksum-failed, or
//! out-of-sequence record and truncates the tail there; everything before
//! it is applied.
//!
//! Every journal step carries a deterministic failpoint site
//! (`serve.journal.*`, `serve.snapshot.*`, `serve.wal.reset` — see
//! [`geoind_testkit::failpoint::SITES`]); the crash-replay suite in
//! `tests/crash_replay.rs` proves the invariant holds with a crash forced
//! at each of them.

use geoind_testkit::failpoint;
use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

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

/// FNV-1a 64-bit — the workspace's standard corruption check (integrity,
/// not authenticity), matching the offline channel-cache format. Also the
/// shard router's hash ([`crate::shard::shard_of`]): user-to-shard
/// placement must be stable across restarts, so it reuses the journal's
/// pinned hash rather than anything process-seeded.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

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
    wal: File,
    gen: u64,
    epoch: u64,
    /// Records acknowledged since the last snapshot; also the next
    /// record's `seq - 1`.
    records: u64,
    /// File length covering exactly the acknowledged records. The tail
    /// beyond it is repaired (truncated) before any further append.
    committed_len: u64,
    /// Generation stamped in the WAL file currently on disk. Falls behind
    /// `gen` when a snapshot committed but the fresh-WAL swap failed; the
    /// next append then swaps in a fresh WAL (safe: a stale-generation
    /// WAL's records are already folded into the snapshot).
    wal_file_gen: u64,
    /// True when a failed append left unacknowledged bytes that could not
    /// be truncated away. Appends must strictly repair the tail first —
    /// never reset the file, which still holds acknowledged records.
    tail_dirty: bool,
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
    /// [`JournalError`] on I/O failure, committed-region corruption, or
    /// epoch regression. Never panics on any on-disk state.
    pub fn open(dir: &Path, epoch: u64) -> Result<(Self, RecoveredState), JournalError> {
        fs::create_dir_all(dir).map_err(io_err("journal dir create"))?;
        let snap_path = dir.join("ledger.snap");
        let wal_path = dir.join("ledger.wal");
        // Leftover temp files are uncommitted by definition.
        let _ = fs::remove_file(tmp_sibling(&snap_path));
        let _ = fs::remove_file(tmp_sibling(&wal_path));

        if !snap_path.exists() {
            if wal_path.exists() {
                return Err(corrupt(
                    "journal dir",
                    "WAL present without a snapshot (snapshots are written first); \
                     refusing to guess at the missing committed state",
                ));
            }
            // Fresh directory: commit an empty snapshot, then a fresh WAL.
            write_snapshot_file(&snap_path, 1, epoch, &BTreeMap::new())?;
            let wal = create_wal_file(&wal_path, 1, epoch)?;
            let journal = Self {
                dir: dir.to_path_buf(),
                wal,
                gen: 1,
                epoch,
                records: 0,
                committed_len: WAL_HEADER_LEN,
                wal_file_gen: 1,
                tail_dirty: false,
            };
            return Ok((
                journal,
                RecoveredState {
                    epoch,
                    spent: BTreeMap::new(),
                },
            ));
        }

        let (snap_gen, snap_epoch, mut spent) = read_snapshot_file(&snap_path)?;
        if snap_epoch > epoch {
            return Err(JournalError::EpochRegression {
                persisted: snap_epoch,
                requested: epoch,
            });
        }

        // Recover the WAL against the snapshot's generation.
        let (wal, records, committed_len) =
            recover_wal(&wal_path, snap_gen, snap_epoch, &mut spent)?;

        let mut journal = Self {
            dir: dir.to_path_buf(),
            wal,
            gen: snap_gen,
            epoch: snap_epoch,
            records,
            committed_len,
            wal_file_gen: snap_gen,
            tail_dirty: false,
        };

        if snap_epoch < epoch {
            // New epoch: budgets renew. Commit the reset before returning
            // so a crash right after open cannot resurrect old spends into
            // the new epoch.
            journal.epoch = epoch;
            journal.snapshot(&BTreeMap::new())?;
            return Ok((
                journal,
                RecoveredState {
                    epoch,
                    spent: BTreeMap::new(),
                },
            ));
        }

        Ok((journal, RecoveredState { epoch, spent }))
    }

    /// The journal's current epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The generation of the committed snapshot (bumped by every
    /// [`Self::snapshot`]). The WAL on disk carries the same number, which
    /// is how recovery proves a stale WAL is already folded in.
    pub fn generation(&self) -> u64 {
        self.gen
    }

    /// Records acknowledged since the last committed snapshot.
    pub fn records_since_snapshot(&self) -> u64 {
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
        // Self-heal before acknowledging anything. The two failure modes
        // need opposite treatments: a stale-generation WAL is *replaced*
        // (its records are already folded into the committed snapshot),
        // while a dirty tail is *truncated* — the file still holds
        // acknowledged records that a reset would forget.
        if self.wal_file_gen != self.gen {
            self.reset_wal()?;
        } else if self.tail_dirty {
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

    /// Fold `state` into a new committed snapshot (generation `gen + 1`)
    /// and start a fresh WAL. The snapshot rename is the commit point: a
    /// crash before it keeps the old snapshot + WAL, a crash after it
    /// leaves a stale-generation WAL that recovery discards as already
    /// folded.
    ///
    /// # Errors
    /// [`JournalError`] on any step failure. If the failure happens
    /// *after* the commit point (the fresh-WAL swap failed), the
    /// snapshot stands and appends self-heal on the next call.
    pub fn snapshot(&mut self, state: &BTreeMap<u64, f64>) -> Result<(), JournalError> {
        if failpoint::hit("serve.snapshot.write") {
            return Err(JournalError::Injected("serve.snapshot.write"));
        }
        let snap_path = self.dir.join("ledger.snap");
        let next_gen = self.gen + 1;
        let bytes = encode_snapshot(next_gen, self.epoch, state);
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
            f.write_all(&bytes).map_err(io_err("snapshot temp write"))?;
            f.sync_all().map_err(io_err("snapshot temp sync"))?;
        }
        if failpoint::hit("serve.snapshot.commit") {
            let _ = fs::remove_file(&tmp);
            return Err(JournalError::Injected("serve.snapshot.commit"));
        }
        fs::rename(&tmp, &snap_path).map_err(io_err("snapshot commit"))?;
        sync_parent_dir(&snap_path);
        // Commit point passed: the old WAL is now stale whatever happens
        // (wal_file_gen lags self.gen until the swap below succeeds, and
        // appends self-heal by retrying it).
        self.gen = next_gen;
        self.reset_wal()
    }

    /// Swap in a fresh empty WAL at the current generation (atomic:
    /// temp + rename). On success `wal_file_gen` catches up to `gen`.
    fn reset_wal(&mut self) -> Result<(), JournalError> {
        let wal_path = self.dir.join("ledger.wal");
        let tmp = tmp_sibling(&wal_path);
        {
            let mut f = File::create(&tmp).map_err(io_err("wal reset create"))?;
            f.write_all(&encode_wal_header(self.gen, self.epoch))
                .map_err(io_err("wal reset write"))?;
            f.sync_all().map_err(io_err("wal reset sync"))?;
        }
        if failpoint::hit("serve.wal.reset") {
            let _ = fs::remove_file(&tmp);
            return Err(JournalError::Injected("serve.wal.reset"));
        }
        fs::rename(&tmp, &wal_path).map_err(io_err("wal reset commit"))?;
        sync_parent_dir(&wal_path);
        let mut wal = OpenOptions::new()
            .write(true)
            .open(&wal_path)
            .map_err(io_err("wal reopen"))?;
        wal.seek(SeekFrom::Start(WAL_HEADER_LEN))
            .map_err(io_err("wal reopen seek"))?;
        self.wal = wal;
        self.records = 0;
        self.committed_len = WAL_HEADER_LEN;
        self.wal_file_gen = self.gen;
        self.tail_dirty = false;
        Ok(())
    }
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

fn encode_snapshot(gen: u64, epoch: u64, state: &BTreeMap<u64, f64>) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(SNAP_HEADER_LEN as usize + state.len() * 16 + 8);
    bytes.extend_from_slice(SNAP_MAGIC);
    bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&gen.to_le_bytes());
    bytes.extend_from_slice(&epoch.to_le_bytes());
    bytes.extend_from_slice(&(state.len() as u64).to_le_bytes());
    let header_sum = fnv1a64(&bytes[8..36]);
    bytes.extend_from_slice(&header_sum.to_le_bytes());
    let body_start = bytes.len();
    for (&user, &spent) in state {
        bytes.extend_from_slice(&user.to_le_bytes());
        bytes.extend_from_slice(&spent.to_bits().to_le_bytes());
    }
    let body_sum = fnv1a64(&bytes[body_start..]);
    bytes.extend_from_slice(&body_sum.to_le_bytes());
    bytes
}

fn write_snapshot_file(
    path: &Path,
    gen: u64,
    epoch: u64,
    state: &BTreeMap<u64, f64>,
) -> Result<(), JournalError> {
    if failpoint::hit("serve.snapshot.write") {
        return Err(JournalError::Injected("serve.snapshot.write"));
    }
    atomic_write(path, &encode_snapshot(gen, epoch, state)).map_err(io_err("snapshot commit"))
}

fn create_wal_file(path: &Path, gen: u64, epoch: u64) -> Result<File, JournalError> {
    atomic_write(path, &encode_wal_header(gen, epoch)).map_err(io_err("wal create"))?;
    let mut wal = OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(io_err("wal reopen"))?;
    wal.seek(SeekFrom::Start(WAL_HEADER_LEN))
        .map_err(io_err("wal reopen seek"))?;
    Ok(wal)
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

/// Validate and replay the WAL onto `spent`, truncating any unreplayable
/// tail, and return the file reopened for append plus the replayed record
/// count and committed length.
fn recover_wal(
    path: &Path,
    snap_gen: u64,
    snap_epoch: u64,
    spent: &mut BTreeMap<u64, f64>,
) -> Result<(File, u64, u64), JournalError> {
    let bytes = match fs::read(path) {
        Ok(b) => b,
        // Only reachable by a crash during initial creation (the snapshot
        // commits first, before any record was ever acknowledged) — a
        // fresh WAL loses nothing.
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            let wal = create_wal_file(path, snap_gen, snap_epoch)?;
            return Ok((wal, 0, WAL_HEADER_LEN));
        }
        Err(e) => return Err(io_err("wal read")(e)),
    };

    if bytes.len() < WAL_HEADER_LEN as usize {
        // Torn header: the file was being created when the process died,
        // so no record in it was ever acknowledged. Start fresh.
        let wal = create_wal_file(path, snap_gen, snap_epoch)?;
        return Ok((wal, 0, WAL_HEADER_LEN));
    }
    if &bytes[0..8] != WAL_MAGIC {
        return Err(corrupt("wal header", "bad magic"));
    }
    let version = u32::from_le_bytes(
        bytes[8..12]
            .try_into()
            .expect("4-byte slice of a checked buffer"),
    );
    if version != FORMAT_VERSION {
        return Err(corrupt(
            "wal header",
            format!("unsupported format version {version} (expected {FORMAT_VERSION})"),
        ));
    }
    let word = |at: usize| {
        u64::from_le_bytes(
            bytes[at..at + 8]
                .try_into()
                .expect("8-byte slice of a checked buffer"),
        )
    };
    let (wal_gen, wal_epoch) = (word(12), word(20));
    if word(28) != fnv1a64(&bytes[8..28]) {
        return Err(corrupt("wal header", "header checksum mismatch"));
    }
    if wal_gen > snap_gen {
        return Err(corrupt(
            "wal header",
            format!("WAL generation {wal_gen} is ahead of snapshot generation {snap_gen}"),
        ));
    }
    if wal_gen < snap_gen {
        // Stale WAL: the crash hit between snapshot commit and WAL reset.
        // Its records are already folded into the snapshot — discard it.
        let wal = create_wal_file(path, snap_gen, snap_epoch)?;
        return Ok((wal, 0, WAL_HEADER_LEN));
    }
    if wal_epoch != snap_epoch {
        return Err(corrupt(
            "wal header",
            format!("WAL epoch {wal_epoch} disagrees with snapshot epoch {snap_epoch}"),
        ));
    }

    // Replay: apply every valid record, stop at the first torn/corrupt/
    // out-of-sequence one and truncate the tail there.
    let mut offset = WAL_HEADER_LEN as usize;
    let mut records = 0u64;
    while bytes.len() - offset >= RECORD_LEN as usize {
        let rec = &bytes[offset..offset + RECORD_LEN as usize];
        let sum = u64::from_le_bytes(
            rec[24..32]
                .try_into()
                .expect("8-byte slice of a checked buffer"),
        );
        if sum != fnv1a64(&rec[0..24]) {
            break;
        }
        let user = u64::from_le_bytes(
            rec[0..8]
                .try_into()
                .expect("8-byte slice of a checked buffer"),
        );
        let eps = f64::from_bits(u64::from_le_bytes(
            rec[8..16]
                .try_into()
                .expect("8-byte slice of a checked buffer"),
        ));
        let seq = u64::from_le_bytes(
            rec[16..24]
                .try_into()
                .expect("8-byte slice of a checked buffer"),
        );
        if seq != records + 1 || !eps.is_finite() || eps < 0.0 {
            break;
        }
        *spent.entry(user).or_insert(0.0) += eps;
        records += 1;
        offset += RECORD_LEN as usize;
    }
    let committed_len = offset as u64;

    let mut wal = OpenOptions::new()
        .write(true)
        .open(path)
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
    /// (corrupt WAL header, out-of-sequence position, or a gap left by a
    /// checksum-failed neighbour). Each may already be folded into the
    /// snapshot — applying it anyway over-counts, which is the safe
    /// direction: recovered spend ≥ served spend stays provable.
    pub ambiguous_records: u64,
    /// True when a provably stale (already-folded) WAL was discarded —
    /// the one case where *not* applying records is provably safe.
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
/// * the committed snapshot is the base — if it is missing-with-a-WAL or
///   fails its checksums, the served base is unknowable and the scavenge
///   **abandons** (typed error; the shard stays refused);
/// * a WAL whose header verifies at a generation *behind* the snapshot
///   is provably already folded in and is discarded (the only downward
///   resolution, because it is proven);
/// * otherwise every checksum-valid record is applied — even when the
///   WAL header is corrupt or a record is out of sequence. An applied
///   record can at worst double-count spend that the snapshot already
///   folded; skipping it could forget an acknowledged serve;
/// * torn tails and checksum-failed records are skipped (they were never
///   acknowledged, or their content cannot be trusted at all);
/// * the salvaged state is committed via the standard atomic temp+rename
///   snapshot, with a fresh empty WAL — ready for a normal
///   [`Journal::open`] to verify.
///
/// An epoch ahead of `epoch` abandons ([`JournalError::EpochRegression`]);
/// an epoch behind it salvages to an empty state (budgets renewed).
///
/// # Errors
/// Any [`JournalError`] that makes the salvage unprovable or the commit
/// impossible; the directory is left no worse than it was found.
pub fn scavenge(dir: &Path, epoch: u64) -> Result<ScavengeReport, JournalError> {
    let snap_path = dir.join("ledger.snap");
    let wal_path = dir.join("ledger.wal");
    // Leftover temp files are uncommitted by definition.
    let _ = fs::remove_file(tmp_sibling(&snap_path));
    let _ = fs::remove_file(tmp_sibling(&wal_path));

    let (snap_gen, snap_epoch, mut salvaged) = if snap_path.exists() {
        // Abandons on any committed-region corruption: without a trusted
        // base the salvage cannot bound what was served.
        read_snapshot_file(&snap_path)?
    } else if wal_path.exists() {
        return Err(corrupt(
            "journal dir",
            "WAL present without a snapshot; the committed base is unknowable",
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
        match fs::read(&wal_path) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(io_err("scavenge wal read")(e)),
            Ok(bytes) => {
                let header = parse_wal_header(&bytes);
                if matches!(header, Some((gen, ep)) if gen < snap_gen && ep == snap_epoch) {
                    // Provably stale: the snapshot at a later generation
                    // already folded these records in.
                    stale_wal_discarded = true;
                } else {
                    let trusted =
                        matches!(header, Some((gen, ep)) if gen == snap_gen && ep == snap_epoch);
                    // Acknowledged records always sit at fixed 32-byte
                    // strides (the tail-repair discipline guarantees it),
                    // so scan every slot and apply whatever verifies.
                    let mut offset = WAL_HEADER_LEN as usize;
                    let mut slot = 0u64;
                    while bytes.len() >= offset + RECORD_LEN as usize {
                        let rec = &bytes[offset..offset + RECORD_LEN as usize];
                        offset += RECORD_LEN as usize;
                        slot += 1;
                        let sum = u64::from_le_bytes(
                            rec[24..32]
                                .try_into()
                                .expect("8-byte slice of a checked buffer"),
                        );
                        if sum != fnv1a64(&rec[0..24]) {
                            continue; // never acknowledged, or untrustable
                        }
                        let user = u64::from_le_bytes(
                            rec[0..8]
                                .try_into()
                                .expect("8-byte slice of a checked buffer"),
                        );
                        let eps = f64::from_bits(u64::from_le_bytes(
                            rec[8..16]
                                .try_into()
                                .expect("8-byte slice of a checked buffer"),
                        ));
                        let seq = u64::from_le_bytes(
                            rec[16..24]
                                .try_into()
                                .expect("8-byte slice of a checked buffer"),
                        );
                        if !eps.is_finite() || eps < 0.0 {
                            continue; // checksum collision artifact
                        }
                        if !trusted || seq != slot {
                            ambiguous_records += 1;
                        }
                        *salvaged.entry(user).or_insert(0.0) += eps;
                        wal_records += 1;
                    }
                }
            }
        }
    }

    // Commit the salvage: fresh snapshot one generation past the base,
    // fresh empty WAL — exactly the state a standard open verifies.
    let next_gen = snap_gen.saturating_add(1);
    write_snapshot_file(&snap_path, next_gen, epoch, &salvaged)?;
    drop(create_wal_file(&wal_path, next_gen, epoch)?);
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
    use std::sync::atomic::{AtomicU64, Ordering};

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
        let state = BTreeMap::from([(7u64, 0.6f64)]);
        j.snapshot(&state).expect("snapshot");
        assert_eq!(j.records_since_snapshot(), 0);
        spends(&mut j, &[(7, 0.1)]);
        drop(j);
        let (j2, rec) = Journal::open(&dir, 3).expect("reopen");
        assert!((rec.spent[&7] - 0.7).abs() < 1e-12);
        assert_eq!(j2.records_since_snapshot(), 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_and_prior_records_kept() {
        let dir = temp_dir("torn");
        let (mut j, _) = Journal::open(&dir, 0).expect("open");
        spends(&mut j, &[(4, 0.2), (5, 0.4)]);
        drop(j);
        // Simulate a crash mid-append: garbage partial record at the tail.
        let wal_path = dir.join("ledger.wal");
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
        let snap = dir.join("ledger.snap");
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
        fs::write(dir.join("ledger.wal"), encode_wal_header(1, 0)).unwrap();
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
}
