//! Warm-standby replication: WAL-shipped ε-budget records with fenced
//! failover.
//!
//! The primary attaches a [`Shipper`] to its [`ShardedLedger`]: every
//! served spend is journaled locally, published to a per-shard pending
//! queue, then shipped as a checksummed batch (`POST /replicate`) to
//! the follower — and the request is answered **only after the
//! follower acks the record as durable**. The follower applies each
//! batch's new records as one group through the standard verified
//! `SpendLedger` path (one journal write and fsync, then the in-memory
//! fold), so the fail-closed invariant (recovered-spend ≥ served-spend)
//! holds across machines: a spend the primary served exists on the
//! follower before the client hears `served`.
//!
//! **Lag bound.** The pending queue holds records journaled locally
//! but not yet acked. `--max-replica-lag` bounds it *strictly*: a
//! shard's spends ask [`Shipper::room`] for room under the shard's slot
//! lock, where they are journaled and published, so no other spend of
//! the shard can take that room meanwhile and nothing is reserved. A
//! bound full of unacked records is shipped from there (no other spend
//! of the shard could proceed anyway), and the spend is refused with
//! `replica_lag` only when shipping frees nothing, or when no follower
//! has registered at all. Fail-closed, because the follower is the
//! source of truth for failover.
//!
//! **Shipping.** Whichever thread needs an ack ships, while no other
//! thread is shipping that shard: one step sends everything pending
//! from `acked_seq + 1`, with the shard's ship-state lock dropped for
//! the exchange, and folds the ack in under it. A thread that finds a
//! shipment in flight waits for its outcome instead — group commit,
//! applied to the network. Each shard keeps one HTTP/1.1 connection to
//! the follower; one that the follower has closed meanwhile (it reaps
//! idle connections) is replaced once within the same step, and the
//! resent batch dedups by sequence.
//!
//! **Sequence handshake.** The shipper's per-shard sequence counters
//! live in memory, but the registered peer persists in `replica.peer`
//! — so a restarted primary must not re-number new spends from 1 while
//! the follower's durable watermark sits at N (the follower would
//! dedup-skip every new record yet still ack N, silently
//! un-replicating served spends). So the first thing a shard ships to
//! a follower is an *empty* batch at `first_seq = 1` (which the
//! follower applies nothing for and never adopts a watermark from);
//! before the shard's first publish, its ack seeds `last_seq =
//! acked_seq` with the follower's durable sequence. A follower
//! registered at another address gets the same handshake before any
//! record, so it cannot adopt records it never received; its ack below
//! the shard's `acked_seq` fails the exchange, since it lacks records
//! already counted as replicated, and pending records are never
//! renumbered. Until a handshake succeeds the shard's spends are
//! refused `replica_lag`, and one refused `fenced` by a promoted
//! follower hard-fences the primary before it can serve a single spend.
//!
//! **Fencing.** Replication runs under a *fence generation*, persisted
//! as `repl.gen` next to the shard directories (see
//! [`journal::read_fence_gen`]). The primary stamps every batch with
//! its generation; promotion bumps the follower's fence generation
//! past the highest generation it has ever seen and checkpoints, after
//! which any batch from a revived stale primary carries
//! `gen < fence_gen` and is refused (`fenced` nack). The refused
//! primary hard-fences itself — [`Shipper::room`] then refuses every
//! spend — so a split brain cannot double-spend: the old primary
//! cannot serve (no acks), and the new one owns the budget. This is
//! the same stale-generation-discard principle the journal already
//! uses to tie WALs to snapshots, applied one level up.
//!
//! A `fenced` nack is authoritative only when the follower's fence
//! generation is *newer* than the shipper's own: a transient refusal
//! at the same generation (e.g. the `serve.repl.stale_gen` failpoint)
//! keeps the records pending and retries, because no promotion has
//! actually happened.

use crate::http::{self, Conn};
use crate::journal::{self, JournalError};
use crate::json::Json;
use crate::ledger::SpendError;
use crate::shard::ShardedLedger;
use geoind_testkit::failpoint;
use std::collections::VecDeque;
use std::io::ErrorKind;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Magic prefix of every replication batch (`POST /replicate` body).
pub(crate) const BATCH_MAGIC: &[u8; 8] = b"GIREPL01";

/// Fixed batch header: magic (8) + shard (4) + total shards (4) +
/// generation (8) + epoch (8) + first sequence (8) + record count (4).
const BATCH_HEADER_LEN: usize = 44;

/// Each shipped record reuses the 32-byte checksummed WAL record
/// layout (`journal::encode_record`).
const BATCH_RECORD_LEN: usize = 32;

/// Failed exchanges a caller ships or waits out before it refuses with
/// `replica_lag`.
const SHIP_ATTEMPTS: u32 = 3;

/// File (next to the shard directories) remembering the registered
/// follower, so a restarted primary resumes shipping — and, if the
/// follower was promoted meanwhile, provably gets fenced instead of
/// silently serving. No checksum: a corrupt address fails to connect,
/// which degrades to `replica_lag` refusals (fail-closed).
const PEER_FILE: &str = "replica.peer";

/// One decoded replication batch.
pub(crate) struct ReplBatch {
    pub shard: u32,
    pub total_shards: u32,
    pub gen: u64,
    pub epoch: u64,
    pub first_seq: u64,
    /// `(user, eps)` pairs; record `i` carries sequence `first_seq + i`
    /// (enforced by [`decode_batch`]).
    pub records: Vec<(u64, f64)>,
}

/// Render a batch from already-encoded 32-byte records starting at
/// `first_seq`.
pub(crate) fn encode_batch(
    shard: u32,
    total_shards: u32,
    gen: u64,
    epoch: u64,
    first_seq: u64,
    records: &[[u8; BATCH_RECORD_LEN]],
) -> Vec<u8> {
    let mut body = Vec::with_capacity(BATCH_HEADER_LEN + records.len() * BATCH_RECORD_LEN);
    body.extend_from_slice(BATCH_MAGIC);
    body.extend_from_slice(&shard.to_le_bytes());
    body.extend_from_slice(&total_shards.to_le_bytes());
    body.extend_from_slice(&gen.to_le_bytes());
    body.extend_from_slice(&epoch.to_le_bytes());
    body.extend_from_slice(&first_seq.to_le_bytes());
    body.extend_from_slice(&(records.len() as u32).to_le_bytes());
    for record in records {
        body.extend_from_slice(record);
    }
    body
}

/// Decode and fully verify a batch: magic, exact length, per-record
/// checksums, and gap-free sequence numbering from `first_seq`.
pub(crate) fn decode_batch(body: &[u8]) -> Result<ReplBatch, String> {
    if body.len() < BATCH_HEADER_LEN {
        return Err("short batch header".into());
    }
    if &body[0..8] != BATCH_MAGIC {
        return Err("bad batch magic".into());
    }
    let le32 = |at: usize| {
        u32::from_le_bytes(
            body[at..at + 4]
                .try_into()
                .expect("4-byte slice of a checked buffer"),
        )
    };
    let le64 = |at: usize| {
        u64::from_le_bytes(
            body[at..at + 8]
                .try_into()
                .expect("8-byte slice of a checked buffer"),
        )
    };
    let shard = le32(8);
    let total_shards = le32(12);
    let gen = le64(16);
    let epoch = le64(24);
    let first_seq = le64(32);
    let count = le32(40) as usize;
    if first_seq == 0 {
        return Err("first_seq must be positive".into());
    }
    if body.len() != BATCH_HEADER_LEN + count * BATCH_RECORD_LEN {
        return Err(format!(
            "length {} does not match {count} records",
            body.len()
        ));
    }
    let mut records = Vec::with_capacity(count);
    for i in 0..count {
        let at = BATCH_HEADER_LEN + i * BATCH_RECORD_LEN;
        let (user, eps, seq) = journal::decode_record(&body[at..at + BATCH_RECORD_LEN])
            .ok_or_else(|| format!("corrupt record {i}"))?;
        if seq != first_seq + i as u64 {
            return Err(format!("sequence gap at record {i}"));
        }
        records.push((user, eps));
    }
    Ok(ReplBatch {
        shard,
        total_shards,
        gen,
        epoch,
        first_seq,
        records,
    })
}

/// Tuning for a primary-side [`Shipper`].
#[derive(Debug, Clone)]
pub struct ShipperConfig {
    /// Ledger base directory (holds `repl.gen` and `replica.peer`);
    /// `None` keeps both in memory only.
    pub dir: Option<PathBuf>,
    /// Shard count — must match the follower's.
    pub shards: usize,
    /// Budget epoch — must match the follower's.
    pub epoch: u64,
    /// Maximum locally-journaled-but-unacked records per shard before
    /// spends are refused with `replica_lag` (clamped to ≥ 1).
    pub max_lag: u64,
    /// Per-attempt socket timeout for `/replicate` calls.
    pub timeout_ms: u64,
    /// Bearer token the follower requires, if any.
    pub auth_token: Option<String>,
}

#[derive(Debug, Default)]
struct ShipShard {
    /// The follower this shard has handshaken with (see the module docs
    /// on the sequence handshake). Only the handshake is shipped to any
    /// other, and nothing is published until it is the registered one.
    synced_with: Option<String>,
    /// Highest sequence number assigned so far (sequences start at the
    /// follower's watermark + 1).
    last_seq: u64,
    /// Highest sequence the follower has durably acked.
    acked_seq: u64,
    /// Encoded records `acked_seq+1 ..= last_seq`, oldest first.
    pending: VecDeque<[u8; BATCH_RECORD_LEN]>,
    /// A thread is shipping this shard; every other one waits for it.
    shipping: bool,
    /// Shipments finished so far, and whether the latest one failed.
    shipments: u64,
    failed: bool,
    /// The kept-alive connection and the follower it reaches: out while
    /// a shipment uses it, dropped after a failed exchange.
    conn: Option<(String, Conn)>,
}

/// Primary-side replication state: per-shard pending queues, the fence
/// generation batches are stamped with, and the registered follower.
///
/// Attached to a [`ShardedLedger`] via
/// [`ShardedLedger::attach_shipper`]; `try_spend_many` then asks
/// [`Shipper::room`] under a shard's slot lock before it journals each
/// chunk of that shard's charges, [`Shipper::publish`]es the chunk under
/// the same lock, and calls [`Shipper::wait_acked`] once per chunk after
/// it, on the calling thread.
#[derive(Debug)]
pub struct Shipper {
    config: ShipperConfig,
    /// Fence generation this primary ships under, fixed at startup.
    gen: u64,
    peer: Mutex<Option<String>>,
    /// Set once a follower refuses us with a *newer* fence generation:
    /// we have been superseded, and every further spend is refused.
    fenced: AtomicBool,
    shards: Vec<Mutex<ShipShard>>,
    /// Per shard: signalled whenever a shipment finishes.
    shipped: Vec<Condvar>,
}

impl Shipper {
    /// Build a shipper, loading (and persisting) the fence generation
    /// and any previously registered follower from `config.dir`.
    ///
    /// # Errors
    /// Propagates the fence-generation write failure — a primary that
    /// cannot persist its generation must not ship under it.
    pub fn new(config: ShipperConfig) -> Result<Self, JournalError> {
        // A directory that never held a fence generation starts at 1;
        // a directory whose `repl.gen` is unreadable also restarts at
        // 1, which is the safe direction — shipping at the floor can
        // only get us fenced, never accepted as too-new.
        let gen = config
            .dir
            .as_deref()
            .and_then(journal::read_fence_gen)
            .unwrap_or(1);
        let peer = config.dir.as_deref().and_then(|dir| {
            let text = std::fs::read_to_string(dir.join(PEER_FILE)).ok()?;
            let addr = text.trim();
            (!addr.is_empty()).then(|| addr.to_string())
        });
        if let Some(dir) = config.dir.as_deref() {
            journal::write_fence_gen(dir, gen)?;
        }
        let shards = (0..config.shards.max(1))
            .map(|_| Mutex::new(ShipShard::default()))
            .collect();
        let shipped = (0..config.shards.max(1)).map(|_| Condvar::new()).collect();
        Ok(Self {
            config,
            gen,
            peer: Mutex::new(peer),
            fenced: AtomicBool::new(false),
            shards,
            shipped,
        })
    }

    /// The fence generation batches are stamped with.
    pub fn generation(&self) -> u64 {
        self.gen
    }

    /// Whether a follower with a newer fence generation has refused us.
    pub fn is_fenced(&self) -> bool {
        self.fenced.load(Ordering::SeqCst)
    }

    /// The registered follower address, if any.
    pub fn peer(&self) -> Option<String> {
        self.peer
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Register (and persist) the follower to ship to. Each shard
    /// handshakes with a follower at another address before shipping it
    /// any record (see the module docs on the sequence handshake).
    ///
    /// # Errors
    /// Propagates the `replica.peer` persistence failure; the
    /// in-memory registration still takes effect for this process.
    pub fn set_peer(&self, addr: &str) -> Result<(), JournalError> {
        *self.peer.lock().unwrap_or_else(PoisonError::into_inner) = Some(addr.to_string());
        if let Some(dir) = self.config.dir.as_deref() {
            journal::atomic_write(&dir.join(PEER_FILE), addr.as_bytes()).map_err(|source| {
                JournalError::Io {
                    step: "replica peer write",
                    source,
                }
            })?;
        }
        Ok(())
    }

    /// Records journaled locally but not yet acked by the follower.
    pub fn lag(&self, shard: usize) -> u64 {
        self.ship_shard(shard).pending.len() as u64
    }

    /// How many of `want` (≥ 1) charges the shard's lag bound has room
    /// for: `max_lag − pending`, at most `want` and at least one. Asked
    /// under the shard's slot lock, where the charges are then journaled
    /// and [`Self::publish`]ed, so no other spend of the shard can take
    /// the room meanwhile. A shard not yet handshaken with the
    /// registered follower makes its handshake shipment first, and a
    /// full bound is shipped from here.
    ///
    /// # Errors
    /// Those of [`Self::ship_until`].
    pub(crate) fn room(&self, shard: usize, want: usize) -> Result<usize, SpendError> {
        let max_lag = self.config.max_lag.max(1);
        self.ship_until(shard, |s, synced| {
            let pending = s.pending.len() as u64;
            (synced && pending < max_lag).then(|| (max_lag - pending).min(want as u64) as usize)
        })
    }

    /// Queue a just-journaled spend for shipping and return its sequence
    /// number. Called under the shard's slot lock, after
    /// [`Self::room`], so queue order matches journal order and the
    /// bound has room.
    pub(crate) fn publish(&self, shard: usize, user: u64, eps: f64) -> u64 {
        let mut s = self.ship_shard(shard);
        debug_assert!(
            (s.pending.len() as u64) < self.config.max_lag.max(1),
            "publish past the lag bound of shard {shard}"
        );
        s.last_seq += 1;
        let seq = s.last_seq;
        s.pending.push_back(journal::encode_record(user, eps, seq));
        seq
    }

    /// Ship until the follower has durably acked `seq`. Called *after*
    /// the slot lock is released.
    ///
    /// # Errors
    /// Those of [`Self::ship_until`]. A refusal leaves the spend
    /// journaled locally and queued — refusing the request over-counts
    /// at worst, which is the safe direction.
    pub(crate) fn wait_acked(&self, shard: usize, seq: u64) -> Result<(), SpendError> {
        self.ship_until(shard, |s, _| (s.acked_seq >= seq).then_some(()))
    }

    /// Best-effort shipment of every shard's pending queue (graceful
    /// shutdown, and a newly registered follower catching up).
    pub fn flush_all(&self) {
        for shard in 0..self.shards.len() {
            let _ = self.ship_until(shard, |s, _| s.pending.is_empty().then_some(()));
        }
    }

    /// Test-only: mark the shard synced with the registered follower at
    /// `watermark`, exactly as a successful handshake shipment would.
    #[cfg(test)]
    fn force_synced(&self, shard: usize, watermark: u64) {
        let peer = self.peer();
        let mut s = self.ship_shard(shard);
        s.synced_with = peer;
        s.last_seq = watermark;
        s.acked_seq = watermark;
    }

    fn ship_shard(&self, shard: usize) -> MutexGuard<'_, ShipShard> {
        self.shards[shard]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Take ship steps on `shard` until `done` answers from its state
    /// and whether it has handshaken with the registered follower.
    ///
    /// # Errors
    /// [`SpendError::Fenced`] once a newer-generation follower has
    /// refused us; [`SpendError::ReplicaLag`] when no follower is
    /// registered, after [`SHIP_ATTEMPTS`] failed exchanges, or once
    /// `timeout_ms` has passed without `done` answering.
    fn ship_until<T>(
        &self,
        shard: usize,
        done: impl Fn(&ShipShard, bool) -> Option<T>,
    ) -> Result<T, SpendError> {
        let deadline = Instant::now() + Duration::from_millis(self.config.timeout_ms.max(1));
        let mut failures = 0;
        loop {
            if self.is_fenced() {
                return Err(SpendError::Fenced);
            }
            let peer = self.peer();
            let s = self.ship_shard(shard);
            let synced = peer.is_some() && s.synced_with == peer;
            if let Some(answer) = done(&s, synced) {
                return Ok(answer);
            }
            let lag = s.pending.len() as u64;
            let Some(peer) = peer else {
                // Fail-closed: with a lag bound configured, serving with
                // no standby at all would be unbounded lag.
                return Err(SpendError::ReplicaLag { lag });
            };
            if failures >= SHIP_ATTEMPTS || Instant::now() >= deadline {
                return Err(SpendError::ReplicaLag { lag });
            }
            if !self.step(shard, s, &peer, synced, deadline) {
                failures += 1;
            }
        }
    }

    /// One ship step, entered holding the shard's ship state. With no
    /// shipment in flight, ship everything pending from `acked_seq + 1`
    /// to a `synced` follower, and the empty handshake batch at
    /// sequence 1 to any other: the connection is taken out of the
    /// state, the lock dropped for the exchange, and the ack folded in
    /// under it. Otherwise wait, until `deadline`, for the in-flight
    /// shipment. Returns whether the shipment made or waited on
    /// succeeded.
    fn step(
        &self,
        shard: usize,
        mut s: MutexGuard<'_, ShipShard>,
        peer: &str,
        synced: bool,
        deadline: Instant,
    ) -> bool {
        if s.shipping {
            let seen = s.shipments;
            while s.shipments == seen {
                let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                    return false;
                };
                s = self.shipped[shard]
                    .wait_timeout(s, left)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
            return !s.failed;
        }
        let (first_seq, records) = if synced {
            (s.acked_seq + 1, &*s.pending.make_contiguous())
        } else {
            (1, &[][..])
        };
        let body = encode_batch(
            shard as u32,
            self.config.shards as u32,
            self.gen,
            self.config.epoch,
            first_seq,
            records,
        );
        let kept = s
            .conn
            .take()
            .filter(|(to, _)| to == peer)
            .map(|(_, conn)| conn);
        s.shipping = true;
        drop(s);
        let outcome = self.exchange(peer, kept, &body);
        let mut s = self.ship_shard(shard);
        s.shipping = false;
        s.shipments += 1;
        // A follower acking less than was acked before lacks records
        // already counted as replicated: it must not be shipped to.
        let acked = outcome.ok().filter(|&(acked, _)| acked >= s.acked_seq);
        s.failed = acked.is_none();
        if let Some((acked, conn)) = acked {
            let newly = (acked - s.acked_seq).min(s.pending.len() as u64);
            s.pending.drain(..newly as usize);
            s.acked_seq = acked;
            if !synced {
                // Seeds the numbering before the first publish; pending
                // records keep their sequence numbers.
                s.last_seq = s.last_seq.max(acked);
                s.synced_with = Some(peer.to_string());
            }
            s.conn = Some((peer.to_string(), conn));
        }
        self.shipped[shard].notify_all();
        !s.failed
    }

    /// One ship-and-parse exchange: `POST /replicate` the batch, decode
    /// the JSON verdict, and fold any authoritative `fenced` nack into
    /// [`Self::is_fenced`]. Returns the follower's durable sequence and
    /// the connection to keep.
    fn exchange(&self, peer: &str, kept: Option<Conn>, body: &[u8]) -> Result<(u64, Conn), String> {
        let (answer, conn) = self.post_replicate(peer, kept, body)?;
        let parsed = Json::parse(&answer).map_err(|e| format!("unparseable ack: {e}"))?;
        if parsed.get("ok") != Some(&Json::Bool(true)) {
            if parsed.get("fenced") == Some(&Json::Bool(true)) {
                let fence_gen = parsed
                    .get("fence_gen")
                    .and_then(Json::as_u64)
                    .unwrap_or(u64::MAX);
                if fence_gen > self.gen {
                    // The follower was promoted past us: we are the
                    // stale primary. Hard-fence — every further spend
                    // is refused until an operator restarts us in a
                    // legitimate role.
                    self.fenced.store(true, Ordering::SeqCst);
                    return Err(format!("fenced by follower at generation {fence_gen}"));
                }
                // Same-or-older generation refusals are transient
                // glitches, not a promotion; keep the records pending.
                return Err("transient stale-generation refusal".into());
            }
            let detail = parsed
                .get("detail")
                .and_then(Json::as_str)
                .unwrap_or("unspecified");
            return Err(format!("follower refused batch: {detail}"));
        }
        let acked = parsed
            .get("acked_seq")
            .and_then(Json::as_u64)
            .ok_or_else(|| "ack missing acked_seq".to_string())?;
        Ok((acked, conn))
    }

    /// One `POST /replicate` exchange on the `kept` connection, or on a
    /// new one. A kept connection the follower has closed meanwhile fails
    /// at once; the batch is then resent once on a new connection, and
    /// dedups by sequence if it had landed. A timeout is not retried.
    /// The `serve.repl.ship_torn` failpoint cuts the write mid-body (the
    /// follower sees a torn frame and applies nothing);
    /// `serve.repl.ack_lost` drops the connection with the follower's
    /// answer unread (the follower applied, the retransmit dedups by
    /// sequence).
    fn post_replicate(
        &self,
        peer: &str,
        kept: Option<Conn>,
        body: &[u8],
    ) -> Result<(String, Conn), String> {
        let open =
            || Conn::open(peer, self.config.timeout_ms).map_err(|e| format!("connect {peer}: {e}"));
        let request = http::request(
            "POST",
            "/replicate",
            "application/octet-stream",
            self.config.auth_token.as_deref(),
            body,
        );
        let mut reused = kept.is_some();
        let mut conn = match kept {
            Some(conn) => conn,
            None => open()?,
        };
        if failpoint::hit("serve.repl.ship_torn") {
            let _ = conn.send(&request[..request.len() / 2]);
            return Err("ship torn (failpoint)".into());
        }
        loop {
            match conn.exchange(&request) {
                Ok(_) if failpoint::hit("serve.repl.ack_lost") => {
                    return Err("ack lost (failpoint)".into())
                }
                Ok((200, answer)) => return Ok((answer, conn)),
                Ok((status, _)) => return Err(format!("/replicate answered {status}")),
                Err(e)
                    if reused
                        && !matches!(e.kind(), ErrorKind::TimedOut | ErrorKind::WouldBlock) =>
                {
                    reused = false;
                    conn = open()?;
                }
                Err(e) => return Err(format!("ship {peer}: {e}")),
            }
        }
    }
}

/// Follower-side replication state: the fence generation incoming
/// batches are checked against, per-shard applied sequences, and the
/// standby flag gating `/protect`.
#[derive(Debug)]
pub struct Applier {
    dir: PathBuf,
    fence_gen: AtomicU64,
    /// Highest generation any accepted batch carried; promotion bumps
    /// past `max(fence_gen, max_seen_gen)` so the promoted follower
    /// outranks every primary it ever heard from.
    max_seen_gen: AtomicU64,
    /// Per-shard highest durably applied sequence.
    applied: Vec<Mutex<u64>>,
    standby: AtomicBool,
    fenced: AtomicU64,
    applied_records: AtomicU64,
    deduped: AtomicU64,
}

impl Applier {
    /// Build an applier for `ledger`, loading any persisted fence
    /// generation; `standby` gates `/protect` until promotion.
    pub fn new(ledger: &ShardedLedger, standby: bool) -> Self {
        let dir = ledger.base_dir();
        let fence_gen = journal::read_fence_gen(&dir).unwrap_or(0);
        Self {
            dir,
            fence_gen: AtomicU64::new(fence_gen),
            max_seen_gen: AtomicU64::new(fence_gen),
            applied: (0..ledger.shards().max(1)).map(|_| Mutex::new(0)).collect(),
            standby: AtomicBool::new(standby),
            fenced: AtomicU64::new(0),
            applied_records: AtomicU64::new(0),
            deduped: AtomicU64::new(0),
        }
    }

    /// Whether `/protect` is still refused pending promotion.
    pub fn standby(&self) -> bool {
        self.standby.load(Ordering::SeqCst)
    }

    /// The current fence generation.
    pub fn fence_gen(&self) -> u64 {
        self.fence_gen.load(Ordering::SeqCst)
    }

    /// Stale-generation batches refused so far.
    pub fn fenced_total(&self) -> u64 {
        self.fenced.load(Ordering::SeqCst)
    }

    /// Records durably applied through the replication path.
    pub fn applied_total(&self) -> u64 {
        self.applied_records.load(Ordering::SeqCst)
    }

    /// Retransmitted records skipped by sequence dedup.
    pub fn deduped_total(&self) -> u64 {
        self.deduped.load(Ordering::SeqCst)
    }

    /// Promote this node: bump the fence generation past everything
    /// ever seen, persist it, checkpoint the ledger (folding all
    /// replicated records into committed snapshots — the journal
    /// generation bump that ties the WAL machinery in), and open
    /// `/protect`. Returns the new fence generation. Idempotent in
    /// effect: a second call bumps again, which is harmless.
    ///
    /// # Errors
    /// Fence-generation persistence or checkpoint failures; the node
    /// stays in standby so a failed promotion is visible.
    pub fn promote(&self, ledger: &ShardedLedger) -> Result<u64, SpendError> {
        // Hold every per-shard applied lock across the fence bump and
        // checkpoint: [`Self::handle`] checks the fence and applies its
        // batch under its shard's applied lock, so an in-flight
        // old-generation batch either finishes (and is folded by the
        // checkpoint below) before the bump, or re-reads the fence
        // after it and is refused. Without this, a batch that passed
        // the fence check could be applied and acked *after* promotion,
        // letting the stale primary serve briefly past the fence.
        let _applied: Vec<_> = self
            .applied
            .iter()
            .map(|m| m.lock().unwrap_or_else(PoisonError::into_inner))
            .collect();
        let new_gen = self
            .fence_gen
            .load(Ordering::SeqCst)
            .max(self.max_seen_gen.load(Ordering::SeqCst))
            + 1;
        journal::write_fence_gen(&self.dir, new_gen).map_err(SpendError::Journal)?;
        self.fence_gen.store(new_gen, Ordering::SeqCst);
        ledger.checkpoint_all().map_err(SpendError::Journal)?;
        self.standby.store(false, Ordering::SeqCst);
        Ok(new_gen)
    }

    /// Decode, verify, and apply one `/replicate` body against
    /// `ledger`, returning the JSON ack to send back.
    ///
    /// Stale-generation batches are refused with a `fenced` nack
    /// carrying our fence generation. Otherwise the records above the
    /// shard's applied sequence are applied through the verified ledger
    /// path as one group (one fsync); the ack reports the durable
    /// sequence, so a failed group simply makes the primary retransmit
    /// it. A batch holding a record that routes to another shard is
    /// nacked with nothing applied.
    pub fn handle(&self, ledger: &ShardedLedger, body: &[u8]) -> String {
        let batch = match decode_batch(body) {
            Ok(batch) => batch,
            Err(detail) => return nack(&detail),
        };
        if batch.epoch != ledger.epoch() {
            return nack(&format!(
                "epoch mismatch: batch {} vs ledger {}",
                batch.epoch,
                ledger.epoch()
            ));
        }
        if batch.total_shards as usize != ledger.shards() {
            return nack(&format!(
                "shard count mismatch: batch {} vs ledger {}",
                batch.total_shards,
                ledger.shards()
            ));
        }
        let Some(applied) = self.applied.get(batch.shard as usize) else {
            return nack(&format!("shard {} out of range", batch.shard));
        };
        let mut applied = applied.lock().unwrap_or_else(PoisonError::into_inner);
        // The fence check runs under the shard's applied lock, which
        // [`Self::promote`] holds across its generation bump — so the
        // check-then-apply below is atomic against promotion, and no
        // batch stamped with a pre-promotion generation can be applied
        // and acked after the fence has moved.
        let fence_gen = self.fence_gen.load(Ordering::SeqCst);
        if failpoint::hit("serve.repl.stale_gen") || batch.gen < fence_gen {
            self.fenced.fetch_add(1, Ordering::SeqCst);
            return format!(r#"{{"ok":false,"fenced":true,"fence_gen":{fence_gen}}}"#);
        }
        self.max_seen_gen.fetch_max(batch.gen, Ordering::SeqCst);
        // The primary ships strictly from its acked sequence, and acks
        // only ever came from us (possibly a previous incarnation — our
        // in-memory counter resets on restart, the journal does not).
        // Everything below first_seq is therefore already durable here;
        // adopt it.
        let durable = (*applied).max(batch.first_seq - 1);
        // Records at or below the watermark are retransmits; the rest
        // land as one group with one fsync: all of it durable and acked,
        // or none of it. A failed group acks the old watermark and the
        // primary retransmits it whole; a misrouted one changes nothing.
        let skip = (durable + 1 - batch.first_seq).min(batch.records.len() as u64);
        let fresh = &batch.records[skip as usize..];
        let landed = match fresh {
            [] => 0,
            _ => match ledger.apply_replicated_many(batch.shard as usize, fresh) {
                Ok(()) => fresh.len() as u64,
                Err(misrouted @ SpendError::Misrouted { .. }) => {
                    return nack(&misrouted.to_string())
                }
                Err(_) => 0,
            },
        };
        self.deduped.fetch_add(skip, Ordering::SeqCst);
        self.applied_records.fetch_add(landed, Ordering::SeqCst);
        *applied = durable + landed;
        format!(
            r#"{{"ok":true,"acked_seq":{},"gen":{fence_gen}}}"#,
            *applied
        )
    }
}

fn nack(detail: &str) -> String {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(false)),
        ("detail".into(), Json::Str(detail.into())),
    ])
    .render()
}

/// Register `self_addr` as the follower of the primary at `primary`:
/// one `POST /follow` exchange. The caller owns the retry loop.
///
/// # Errors
/// Connectivity, non-200 answers, and unparseable bodies, as strings.
pub fn register_with_primary(
    primary: &str,
    self_addr: &str,
    auth_token: Option<&str>,
    timeout_ms: u64,
) -> Result<(), String> {
    let body = Json::Obj(vec![("addr".into(), Json::Str(self_addr.into()))]).render();
    let request = http::request(
        "POST",
        "/follow",
        "application/json",
        auth_token,
        body.as_bytes(),
    );
    let mut conn =
        Conn::open(primary, timeout_ms).map_err(|e| format!("connect {primary}: {e}"))?;
    conn.send(&request)
        .map_err(|e| format!("follow {primary}: {e}"))?;
    let (status, answer) = conn.read_response().map_err(|e| e.to_string())?;
    if status != 200 {
        return Err(format!("/follow answered {status}: {answer}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::shard_of;

    fn sample_records(first_seq: u64, n: usize) -> Vec<[u8; BATCH_RECORD_LEN]> {
        (0..n)
            .map(|i| journal::encode_record(7 + i as u64, 0.25, first_seq + i as u64))
            .collect()
    }

    #[test]
    fn batch_round_trips() {
        let records = sample_records(4, 3);
        let body = encode_batch(2, 8, 5, 11, 4, &records);
        let batch = decode_batch(&body).unwrap();
        assert_eq!(
            (
                batch.shard,
                batch.total_shards,
                batch.gen,
                batch.epoch,
                batch.first_seq
            ),
            (2, 8, 5, 11, 4)
        );
        assert_eq!(batch.records, vec![(7, 0.25), (8, 0.25), (9, 0.25)]);
    }

    #[test]
    fn empty_batch_round_trips() {
        let body = encode_batch(0, 1, 1, 0, 1, &[]);
        assert_eq!(decode_batch(&body).unwrap().records.len(), 0);
    }

    #[test]
    fn torn_and_corrupt_batches_are_refused() {
        let records = sample_records(1, 2);
        let body = encode_batch(0, 4, 1, 0, 1, &records);
        // Every strict prefix is refused.
        for cut in 0..body.len() {
            assert!(decode_batch(&body[..cut]).is_err(), "cut={cut}");
        }
        // A flipped record byte fails the per-record checksum.
        let mut flipped = body.clone();
        flipped[BATCH_HEADER_LEN + 3] ^= 0x40;
        assert!(decode_batch(&flipped).is_err());
        // A sequence gap inside the batch is refused.
        let gap: Vec<[u8; BATCH_RECORD_LEN]> = vec![
            journal::encode_record(1, 0.5, 1),
            journal::encode_record(2, 0.5, 3),
        ];
        assert!(decode_batch(&encode_batch(0, 4, 1, 0, 1, &gap)).is_err());
        // first_seq 0 is refused outright.
        assert!(decode_batch(&encode_batch(0, 4, 1, 0, 0, &[])).is_err());
    }

    #[test]
    fn applier_refuses_a_batch_with_another_shards_record() {
        // A batch applies as one group on its shard, so a record routed
        // elsewhere is refused before anything lands.
        let dir = std::env::temp_dir().join(format!("geoind-replica-route-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = crate::ledger::LedgerConfig {
            cap_per_user: 10.0,
            epoch: 0,
            compact_after: 0,
        };
        let ledger = ShardedLedger::open(&dir, config, 2);
        let applier = Applier::new(&ledger, true);
        let home = (0..)
            .find(|&u| shard_of(u, 2) == 0)
            .expect("a shard-0 user");
        let stray = (0..)
            .find(|&u| shard_of(u, 2) == 1)
            .expect("a shard-1 user");
        let records = [
            journal::encode_record(home, 0.5, 1),
            journal::encode_record(stray, 0.5, 2),
        ];
        let ack = applier.handle(&ledger, &encode_batch(0, 2, 1, 0, 1, &records));
        assert!(ack.contains(r#""ok":false"#), "{ack}");
        assert_eq!(ledger.total_spent(), 0.0);
        assert_eq!(applier.applied_total(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shipper_without_peer_fails_closed() {
        let shipper = Shipper::new(ShipperConfig {
            dir: None,
            shards: 2,
            epoch: 0,
            max_lag: 4,
            timeout_ms: 50,
            auth_token: None,
        })
        .unwrap();
        assert!(matches!(
            shipper.room(0, 1),
            Err(SpendError::ReplicaLag { lag: 0 })
        ));
        // Sequences are per-shard and monotonic from 1.
        assert_eq!(shipper.publish(0, 9, 0.5), 1);
        assert_eq!(shipper.publish(0, 9, 0.5), 2);
        assert_eq!(shipper.publish(1, 9, 0.5), 1);
        assert_eq!(shipper.lag(0), 2);
    }

    fn test_shipper(max_lag: u64) -> Shipper {
        test_shipper_with_timeout(max_lag, 50)
    }

    fn test_shipper_with_timeout(max_lag: u64, timeout_ms: u64) -> Shipper {
        let shipper = Shipper::new(ShipperConfig {
            dir: None,
            shards: 1,
            epoch: 0,
            max_lag,
            timeout_ms,
            auth_token: None,
        })
        .unwrap();
        // A real peer address is never contacted below: the shard is
        // force-synced (or expected to refuse before any publish), and
        // port 9 refuses connections immediately.
        shipper.set_peer("127.0.0.1:9").unwrap();
        shipper
    }

    #[test]
    fn unsynced_shard_refuses_until_the_watermark_probe_succeeds() {
        let shipper = test_shipper(4);
        // The handshake probe cannot reach the follower: shipping blind
        // could silently un-replicate, so the spend is refused.
        assert!(matches!(
            shipper.room(0, 1),
            Err(SpendError::ReplicaLag { lag: 0 })
        ));
    }

    #[test]
    fn publish_continues_from_the_seeded_watermark() {
        let shipper = test_shipper(4);
        shipper.force_synced(0, 41);
        // A restarted primary must number past the follower's durable
        // watermark, never from 1 into its dedup window.
        assert_eq!(shipper.publish(0, 9, 0.5), 42);
        assert_eq!(shipper.publish(0, 9, 0.5), 43);
    }

    #[test]
    fn room_bounds_unacked_spends_strictly() {
        let shipper = test_shipper(3);
        shipper.force_synced(0, 0);
        // A group larger than the bound is granted the bound, not refused.
        assert_eq!(shipper.room(0, 5).expect("room for three"), 3);
        // Published records hold their room until the follower acks them.
        for _ in 0..2 {
            shipper.publish(0, 5, 0.25);
        }
        assert_eq!(shipper.room(0, 5).expect("one left"), 1);
        shipper.publish(0, 5, 0.25);
        assert_eq!(shipper.lag(0), 3);
        // A full bound is shipped before any room is granted; a follower
        // that cannot be reached frees none, so the spend is refused.
        assert!(matches!(
            shipper.room(0, 1),
            Err(SpendError::ReplicaLag { lag: 3 })
        ));
    }

    /// A follower that keeps connections alive, for the shipper's tests:
    /// one connection at a time, each carrying any number of
    /// `POST /replicate` exchanges answered by an [`Applier`]. It counts
    /// the connections it accepts and the batches it answers, and closes
    /// the connection after an answer once `close` is set.
    struct KeptFollower {
        listener: std::net::TcpListener,
        ledger: ShardedLedger,
        applier: Applier,
        accepted: AtomicU64,
        answered: AtomicU64,
        close: AtomicBool,
        stop: AtomicBool,
    }

    impl KeptFollower {
        fn start(dir: &std::path::Path) -> Self {
            let config = crate::ledger::LedgerConfig {
                cap_per_user: 100.0,
                epoch: 0,
                compact_after: 0,
            };
            let ledger = ShardedLedger::open(dir, config, 1);
            let applier = Applier::new(&ledger, true);
            Self {
                listener: std::net::TcpListener::bind("127.0.0.1:0").expect("bind"),
                ledger,
                applier,
                accepted: AtomicU64::new(0),
                answered: AtomicU64::new(0),
                close: AtomicBool::new(false),
                stop: AtomicBool::new(false),
            }
        }

        fn addr(&self) -> String {
            self.listener.local_addr().expect("addr").to_string()
        }

        fn run(&self) {
            use std::io::{Read, Write};
            for stream in self.listener.incoming() {
                if self.stop.load(Ordering::SeqCst) {
                    return;
                }
                let Ok(mut stream) = stream else { continue };
                let _ = stream.set_read_timeout(Some(Duration::from_millis(20)));
                self.accepted.fetch_add(1, Ordering::SeqCst);
                let mut pending = Vec::new();
                let mut buf = [0u8; 4096];
                'requests: loop {
                    let frame = match http::parse_head(&pending) {
                        Ok(Some(head)) => Some(head.body_at..head.body_at + head.content_length)
                            .filter(|body| body.end <= pending.len()),
                        _ => None,
                    };
                    let Some(body) = frame else {
                        match stream.read(&mut buf) {
                            Ok(n) if n > 0 => pending.extend_from_slice(&buf[..n]),
                            Err(e)
                                if matches!(
                                    e.kind(),
                                    ErrorKind::WouldBlock | ErrorKind::TimedOut
                                ) && !self.stop.load(Ordering::SeqCst) => {}
                            _ => break 'requests,
                        }
                        continue;
                    };
                    let verdict = self.applier.handle(&self.ledger, &pending[body.clone()]);
                    pending.drain(..body.end);
                    self.answered.fetch_add(1, Ordering::SeqCst);
                    let _ = stream.write_all(http::response(200, &verdict).as_bytes());
                    if self.close.swap(false, Ordering::SeqCst) {
                        break;
                    }
                }
            }
        }

        /// Close the connection in use and stop accepting.
        fn stop(&self) {
            self.stop.store(true, Ordering::SeqCst);
            let _ = std::net::TcpStream::connect(self.addr());
        }
    }

    fn shipper_to(follower: &KeptFollower, max_lag: u64) -> Shipper {
        let shipper = Shipper::new(ShipperConfig {
            dir: None,
            shards: 1,
            epoch: 0,
            max_lag,
            timeout_ms: 2_000,
            auth_token: None,
        })
        .unwrap();
        shipper.set_peer(&follower.addr()).unwrap();
        shipper
    }

    #[test]
    fn room_grants_what_fits_and_ships_a_full_bound() {
        let dir = std::env::temp_dir().join(format!("geoind-replica-room-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let follower = KeptFollower::start(&dir);
        let shipper = shipper_to(&follower, 4);
        std::thread::scope(|scope| {
            scope.spawn(|| follower.run());
            // The first ask makes the handshake shipment, then grants a
            // group larger than the bound the whole bound.
            assert_eq!(shipper.room(0, 6).expect("room for four"), 4);
            assert_eq!(follower.answered.load(Ordering::SeqCst), 1);
            for user in 0..4 {
                shipper.publish(0, user, 0.25);
            }
            // A full bound is shipped from `room` itself, and its ack frees
            // the whole bound.
            assert_eq!(shipper.room(0, 6).expect("room after the ack"), 4);
            assert_eq!(shipper.lag(0), 0);
            assert_eq!(follower.answered.load(Ordering::SeqCst), 2);
            assert!((follower.ledger.total_spent() - 1.0).abs() < 1e-12);
            drop(shipper);
            follower.stop();
        });
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_shard_ships_over_one_kept_alive_connection_and_reconnects_once_closed() {
        let dir = std::env::temp_dir().join(format!("geoind-replica-conn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let follower = KeptFollower::start(&dir.join("follower"));
        std::thread::scope(|scope| {
            scope.spawn(|| follower.run());
            let config = crate::ledger::LedgerConfig {
                cap_per_user: 100.0,
                epoch: 0,
                compact_after: 0,
            };
            let primary = ShardedLedger::open(&dir.join("primary"), config, 1);
            assert!(primary.attach_shipper(std::sync::Arc::new(shipper_to(&follower, 4))));
            for _ in 0..20 {
                primary.try_spend(7, 0.25).expect("served");
            }
            // The handshake and all twenty batches rode one connection.
            assert_eq!(follower.accepted.load(Ordering::SeqCst), 1);
            assert_eq!(follower.answered.load(Ordering::SeqCst), 21);
            // The follower closes the connection after its next answer;
            // the spend after that finds it closed, reconnects once, and
            // is served.
            follower.close.store(true, Ordering::SeqCst);
            primary.try_spend(7, 0.25).expect("served before the close");
            primary
                .try_spend(7, 0.25)
                .expect("served over a new connection");
            assert_eq!(follower.accepted.load(Ordering::SeqCst), 2);
            assert!((follower.ledger.total_spent() - 5.5).abs() < 1e-12);
            drop(primary);
            follower.stop();
        });
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A follower registered in another's place is handshaken with
    /// before it gets any record, so it never adopts spends it was not
    /// shipped: one that lacks acked records is refused, and the
    /// follower that holds them serves again once re-registered.
    #[test]
    fn a_newly_registered_follower_is_never_credited_with_unshipped_spends() {
        let dir = std::env::temp_dir().join(format!("geoind-replica-swap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let a = KeptFollower::start(&dir.join("a"));
        let b = KeptFollower::start(&dir.join("b"));
        // Outcomes are checked once the followers have stopped, so that a
        // failed check cannot leave the scope waiting on them.
        let (first, to_b, back_to_a) = std::thread::scope(|scope| {
            scope.spawn(|| a.run());
            scope.spawn(|| b.run());
            let config = crate::ledger::LedgerConfig {
                cap_per_user: 100.0,
                epoch: 0,
                compact_after: 0,
            };
            let primary = ShardedLedger::open(&dir.join("primary"), config, 1);
            let shipper = std::sync::Arc::new(shipper_to(&a, 4));
            assert!(primary.attach_shipper(std::sync::Arc::clone(&shipper)));
            let first: Result<Vec<()>, _> = (0..5).map(|_| primary.try_spend(7, 0.25)).collect();
            let _ = shipper.set_peer(&b.addr());
            let to_b = primary.try_spend(7, 0.25);
            let _ = shipper.set_peer(&a.addr());
            let back_to_a = primary.try_spend(7, 0.25);
            drop(primary);
            a.stop();
            b.stop();
            (first, to_b, back_to_a)
        });
        first.expect("five spends served through A");
        assert!(
            matches!(to_b, Err(SpendError::ReplicaLag { .. })),
            "{to_b:?}"
        );
        assert_eq!(b.applier.applied_total(), 0);
        assert_eq!(b.ledger.total_spent(), 0.0);
        back_to_a.expect("served once A is registered again");
        assert_eq!(a.applier.applied_total(), 6);
        assert!((a.ledger.total_spent() - 1.5).abs() < 1e-12);
        std::fs::remove_dir_all(&dir).ok();
    }
}
