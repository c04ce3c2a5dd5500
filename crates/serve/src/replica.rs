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
//! but not yet acked. `--max-replica-lag` bounds it *strictly*:
//! [`Shipper::admit`] reserves pending-queue slots under the shard's
//! ship lock (so concurrent admits cannot collectively overshoot the
//! bound). Slots held by other callers' reservations are waited for —
//! those spends are journaling and will publish — and published records
//! are flushed to make room; the spend is refused with `replica_lag`
//! only when a flush frees nothing, or when no follower has registered
//! at all. Fail-closed, because the follower is the source of truth for
//! failover.
//!
//! **Sequence handshake.** The shipper's per-shard sequence counters
//! live in memory, but the registered peer persists in `replica.peer`
//! — so a restarted primary must not re-number new spends from 1 while
//! the follower's durable watermark sits at N (the follower would
//! dedup-skip every new record yet still ack N, silently
//! un-replicating served spends). Before the first publish of each
//! shard, [`Shipper::admit`] probes the follower with an *empty* batch
//! at `first_seq = 1` (which the follower applies nothing for and
//! never adopts a watermark from) and seeds `last_seq = acked_seq`
//! from the returned durable sequence; until the probe succeeds the
//! shard's spends are refused `replica_lag` (and a probe refused
//! `fenced` by a promoted follower hard-fences the primary before it
//! can serve a single spend).
//!
//! **Fencing.** Replication runs under a *fence generation*, persisted
//! as `repl.gen` next to the shard directories (see
//! [`journal::read_fence_gen`]). The primary stamps every batch with
//! its generation; promotion bumps the follower's fence generation
//! past the highest generation it has ever seen and checkpoints, after
//! which any batch from a revived stale primary carries
//! `gen < fence_gen` and is refused (`fenced` nack). The refused
//! primary hard-fences itself — [`Shipper::admit`] then refuses every
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

/// Flush attempts per [`Shipper::wait_acked`] call before the spend is
/// refused with `replica_lag`.
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
    /// Sequence state seeded from the follower's durable watermark (see
    /// the module docs on the sequence handshake). Nothing may be
    /// published before this is true.
    synced: bool,
    /// Highest sequence number assigned so far (sequences start at the
    /// follower's watermark + 1).
    last_seq: u64,
    /// Highest sequence the follower has durably acked.
    acked_seq: u64,
    /// Admitted spends not yet published: slots reserved against the
    /// lag bound by [`Shipper::admit`], consumed by
    /// [`Shipper::publish`] or given back by [`Shipper::release`].
    reserved: u64,
    /// Encoded records `acked_seq+1 ..= last_seq`, oldest first.
    pending: VecDeque<[u8; BATCH_RECORD_LEN]>,
}

/// Primary-side replication state: per-shard pending queues, the fence
/// generation batches are stamped with, and the registered follower.
///
/// Attached to a [`ShardedLedger`] via
/// [`ShardedLedger::attach_shipper`]; `try_spend_many` then runs
/// [`Shipper::admit`] before spending each chunk of a shard's charges
/// and [`Shipper::wait_acked`] once per chunk after, on the calling
/// thread.
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
    /// Per shard: signalled whenever lag-bound room may have changed
    /// (a reservation published or released, acked records popped).
    room: Vec<Condvar>,
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
        let room = (0..config.shards.max(1)).map(|_| Condvar::new()).collect();
        Ok(Self {
            config,
            gen,
            peer: Mutex::new(peer),
            fenced: AtomicBool::new(false),
            shards,
            room,
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

    /// Register (and persist) the follower to ship to.
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

    /// Pre-spend gate for up to `want` (≥ 1) charges: refuse when
    /// fenced, when no follower has registered, or when the shard's
    /// sequence state cannot be seeded from the follower; otherwise
    /// reserve as many free pending-queue slots as possible, up to
    /// `want`, and return how many (at least one). [`Self::publish`]
    /// consumes a reserved slot and [`Self::release`] must give back one
    /// whose spend never publishes — so the bound is strict even under
    /// concurrent admits.
    ///
    /// A bound filled by other callers' reservations is waited out (up to
    /// the per-attempt timeout): those spends are journaling and will
    /// publish. A bound filled by published records is flushed to make
    /// room, and the charges are refused only when a flush frees nothing.
    ///
    /// # Errors
    /// [`SpendError::Fenced`] / [`SpendError::ReplicaLag`] as above.
    pub(crate) fn admit(&self, shard: usize, want: usize) -> Result<usize, SpendError> {
        if self.is_fenced() {
            return Err(SpendError::Fenced);
        }
        if self.peer().is_none() {
            // Fail-closed: with a lag bound configured, serving with
            // no standby at all would be unbounded lag.
            return Err(SpendError::ReplicaLag { lag: 0 });
        }
        self.ensure_synced(shard)?;
        let max_lag = self.config.max_lag.max(1);
        let deadline = Instant::now() + Duration::from_millis(self.config.timeout_ms.max(1));
        let mut stalled = false;
        loop {
            let mut s = self.ship_shard(shard);
            while s.pending.len() as u64 + s.reserved >= max_lag && s.reserved > 0 {
                let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                    break;
                };
                s = self.room[shard]
                    .wait_timeout(s, left)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
            let inflight = s.pending.len() as u64 + s.reserved;
            if inflight < max_lag {
                let granted = (max_lag - inflight).min(want as u64);
                s.reserved += granted;
                return Ok(granted as usize);
            }
            if stalled {
                return Err(SpendError::ReplicaLag { lag: inflight });
            }
            let acked = s.acked_seq;
            drop(s);
            // Full of published records: ship them. A flush that frees
            // nothing (the follower is down or behind), or a spent wait
            // budget, refuses on the next look.
            let shipped = self.flush(shard);
            stalled = !matches!(shipped, Ok(now) if now > acked) || Instant::now() >= deadline;
            if self.is_fenced() {
                return Err(SpendError::Fenced);
            }
        }
    }

    /// Seed the shard's sequence state from the follower's durable
    /// watermark before this process's first publish: an empty probe
    /// batch at `first_seq = 1` — which the follower applies nothing
    /// for and never adopts a watermark from — answers with its highest
    /// durably applied sequence. Without this, a restarted primary
    /// (the peer file persists, the counters do not) would re-number
    /// new spends from 1 and the follower's dedup would skip them while
    /// still acking its old watermark: served spends silently
    /// un-replicated until the counter caught up, re-granted as budget
    /// by a later failover.
    ///
    /// The probe also means a revived stale primary is hard-fenced at
    /// its first admit, before any spend is journaled locally.
    fn ensure_synced(&self, shard: usize) -> Result<(), SpendError> {
        let Some(peer) = self.peer() else {
            return Err(SpendError::ReplicaLag { lag: 0 });
        };
        let mut s = self.ship_shard(shard);
        if s.synced {
            return Ok(());
        }
        let probe = encode_batch(
            shard as u32,
            self.config.shards as u32,
            self.gen,
            self.config.epoch,
            1,
            &[],
        );
        match self.exchange(&peer, &probe) {
            Ok(acked) => {
                s.last_seq = acked;
                s.acked_seq = acked;
                s.synced = true;
                Ok(())
            }
            Err(_) if self.is_fenced() => Err(SpendError::Fenced),
            // The follower could not confirm its watermark; shipping
            // blind could silently un-replicate, so refuse fail-closed.
            Err(_) => Err(SpendError::ReplicaLag { lag: 0 }),
        }
    }

    fn ship_shard(&self, shard: usize) -> MutexGuard<'_, ShipShard> {
        self.shards[shard]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Give back a slot reserved by a successful [`Self::admit`] whose
    /// spend never reached [`Self::publish`] (the local journal refused
    /// it, or the owning shard was unavailable).
    pub(crate) fn release(&self, shard: usize) {
        let mut s = self.ship_shard(shard);
        s.reserved = s.reserved.saturating_sub(1);
        self.room[shard].notify_all();
    }

    /// Queue a just-journaled spend for shipping and return its
    /// sequence number, consuming the caller's reserved slot. Called
    /// under the shard's slot lock, so queue order matches journal
    /// order.
    pub(crate) fn publish(&self, shard: usize, user: u64, eps: f64) -> u64 {
        let mut s = self.ship_shard(shard);
        s.reserved = s.reserved.saturating_sub(1);
        s.last_seq += 1;
        let seq = s.last_seq;
        s.pending.push_back(journal::encode_record(user, eps, seq));
        // A waiting admit may now flush this record to make room.
        self.room[shard].notify_all();
        seq
    }

    /// Ship until the follower has durably acked `seq`, retrying a
    /// bounded number of times. Called *after* the slot lock is
    /// released.
    ///
    /// # Errors
    /// [`SpendError::Fenced`] when a newer-generation follower refused
    /// us; [`SpendError::ReplicaLag`] when the ack did not arrive in
    /// budget (the spend stays journaled locally and queued — refusing
    /// the request over-counts at worst, which is the safe direction).
    pub(crate) fn wait_acked(&self, shard: usize, seq: u64) -> Result<(), SpendError> {
        for attempt in 0..SHIP_ATTEMPTS {
            if self.is_fenced() {
                return Err(SpendError::Fenced);
            }
            if attempt > 0 {
                std::thread::sleep(Duration::from_millis(2u64 << attempt));
            }
            if let Ok(acked) = self.flush(shard) {
                if acked >= seq {
                    return Ok(());
                }
            }
        }
        if self.is_fenced() {
            return Err(SpendError::Fenced);
        }
        Err(SpendError::ReplicaLag {
            lag: self.lag(shard),
        })
    }

    /// Test-only: mark the shard synced at `watermark`, exactly as a
    /// successful handshake probe would.
    #[cfg(test)]
    fn force_synced(&self, shard: usize, watermark: u64) {
        let mut s = self.ship_shard(shard);
        s.synced = true;
        s.last_seq = watermark;
        s.acked_seq = watermark;
    }

    /// Best-effort flush of every shard's pending queue (graceful
    /// shutdown path).
    pub fn flush_all(&self) {
        for shard in 0..self.shards.len() {
            let _ = self.flush(shard);
        }
    }

    /// Ship the shard's whole pending queue and fold in the ack.
    /// Returns the follower's durable sequence. The shard's ship lock
    /// is held across the exchange, serializing replication per shard.
    fn flush(&self, shard: usize) -> Result<u64, String> {
        let Some(peer) = self.peer() else {
            return Err("no follower registered".into());
        };
        let mut s = self.ship_shard(shard);
        if s.pending.is_empty() {
            return Ok(s.acked_seq);
        }
        let records: Vec<[u8; BATCH_RECORD_LEN]> = s.pending.iter().copied().collect();
        let body = encode_batch(
            shard as u32,
            self.config.shards as u32,
            self.gen,
            self.config.epoch,
            s.acked_seq + 1,
            &records,
        );
        let acked = self.exchange(&peer, &body)?;
        if acked > s.acked_seq {
            let newly = (acked - s.acked_seq).min(s.pending.len() as u64);
            for _ in 0..newly {
                s.pending.pop_front();
            }
            s.acked_seq = acked;
            self.room[shard].notify_all();
        }
        Ok(s.acked_seq)
    }

    /// One ship-and-parse exchange: `POST /replicate` the batch, decode
    /// the JSON verdict, and fold any authoritative `fenced` nack into
    /// [`Self::is_fenced`]. Returns the follower's durable sequence.
    fn exchange(&self, peer: &str, body: &[u8]) -> Result<u64, String> {
        let answer = self.post_replicate(peer, body)?;
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
        parsed
            .get("acked_seq")
            .and_then(Json::as_u64)
            .ok_or_else(|| "ack missing acked_seq".to_string())
    }

    /// One `POST /replicate` exchange. The `serve.repl.ship_torn`
    /// failpoint cuts the write mid-body (the follower sees a torn
    /// frame and applies nothing); `serve.repl.ack_lost` sends the
    /// full batch but drops the connection before reading the ack (the
    /// follower applies, the retransmit dedups by sequence).
    fn post_replicate(&self, peer: &str, body: &[u8]) -> Result<String, String> {
        let mut conn =
            Conn::open(peer, self.config.timeout_ms).map_err(|e| format!("connect {peer}: {e}"))?;
        let request = http::request(
            "POST",
            "/replicate",
            "application/octet-stream",
            self.config.auth_token.as_deref(),
            body,
        );
        if failpoint::hit("serve.repl.ship_torn") {
            let _ = conn.send(&request[..request.len() / 2]);
            return Err("ship torn (failpoint)".into());
        }
        conn.send(&request)
            .map_err(|e| format!("ship {peer}: {e}"))?;
        if failpoint::hit("serve.repl.ack_lost") {
            return Err("ack lost (failpoint)".into());
        }
        let (status, answer) = conn
            .read_response()
            .map_err(|e| format!("ack from {peer}: {e}"))?;
        if status != 200 {
            return Err(format!("/replicate answered {status}"));
        }
        Ok(answer)
    }
}

/// Follower-side replication state: the fence generation incoming
/// batches are checked against, per-shard applied sequences, and the
/// standby flag gating `/protect`.
#[derive(Debug)]
pub struct Applier {
    dir: Option<PathBuf>,
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
        let fence_gen = dir
            .as_deref()
            .and_then(journal::read_fence_gen)
            .unwrap_or(0);
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
        if let Some(dir) = self.dir.as_deref() {
            journal::write_fence_gen(dir, new_gen).map_err(SpendError::Journal)?;
        }
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
            shipper.admit(0, 1),
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
            shipper.admit(0, 1),
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
    fn admit_reservations_bound_concurrent_spends_strictly() {
        let shipper = test_shipper(3);
        shipper.force_synced(0, 0);
        // Three workers admit before any of them publishes: all pass.
        for _ in 0..3 {
            shipper.admit(0, 1).expect("reserve within the bound");
        }
        // A fourth concurrent admit is refused even though the pending
        // queue is still empty — reservations make the bound strict.
        assert!(matches!(
            shipper.admit(0, 1),
            Err(SpendError::ReplicaLag { lag: 3 })
        ));
        // A spend that failed after admission gives its slot back.
        shipper.release(0);
        shipper.admit(0, 1).expect("released slot reopens");
        // Publishing converts reservations into pending records without
        // changing the inflight total: still at the bound.
        for _ in 0..3 {
            shipper.publish(0, 5, 0.25);
        }
        assert_eq!(shipper.lag(0), 3);
        assert!(matches!(
            shipper.admit(0, 1),
            Err(SpendError::ReplicaLag { lag: 3 })
        ));
    }

    #[test]
    fn admit_grants_what_fits_and_waits_out_sibling_reservations() {
        let shipper = test_shipper_with_timeout(4, 100);
        shipper.force_synced(0, 0);
        // A group larger than the bound is granted the bound, not refused.
        assert_eq!(shipper.admit(0, 6).expect("room for four"), 4);
        // Reservations are spends still journaling: an admit that meets a
        // bound full of them waits for room — here until its budget runs
        // out, since nothing publishes — instead of refusing at once.
        let started = Instant::now();
        assert!(matches!(
            shipper.admit(0, 1),
            Err(SpendError::ReplicaLag { lag: 4 })
        ));
        assert!(started.elapsed() >= Duration::from_millis(100));

        // Room given back while a sibling waits is granted to it.
        let shipper = test_shipper_with_timeout(4, 10_000);
        shipper.force_synced(0, 0);
        assert_eq!(shipper.admit(0, 4).expect("room for four"), 4);
        let shipper = &shipper;
        std::thread::scope(|scope| {
            let (started, admitting) = std::sync::mpsc::channel();
            let sibling = scope.spawn(move || {
                started.send(()).expect("main thread listens");
                shipper.admit(0, 3)
            });
            admitting.recv().expect("sibling started");
            shipper.release(0);
            assert_eq!(sibling.join().expect("sibling admit").expect("room"), 1);
        });
    }
}
