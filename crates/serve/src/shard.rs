//! User-sharded spend accounting: N independent [`SpendLedger`]s behind
//! one façade, so fsync and compaction in one shard never serialize
//! against spends landing in another.
//!
//! ## Layout and routing
//!
//! Shard `k` journals under `<dir>/shard-<k>/` with the exact on-disk
//! format of a single ledger ([`crate::journal`]). A user's shard is
//! `fnv1a64(user_le_bytes) % shards` ([`shard_of`]) — pinned, so the
//! same user always lands on the same shard across restarts. Changing
//! the shard count of an existing directory is a migration, not a
//! reconfiguration; [`ShardedLedger::open`] refuses a mismatch.
//!
//! ## Fail-closed recovery and self-healing repair
//!
//! [`ShardedLedger::open`] recovers every shard independently. A shard
//! whose journal fails recovery (I/O error, corruption of a committed
//! region, epoch regression) refuses its users with
//! [`SpendError::ShardUnavailable`] rather than aborting the whole
//! server. With repair enabled ([`RepairMode::Auto`] or
//! [`RepairMode::Manual`]) the shard is not terminal: it walks a typed
//! state machine
//!
//! ```text
//! Quarantined → Scavenging → Open{probation} → Open (Ready)
//!       ↘ (salvage unprovable) → Failed
//! ```
//!
//! A background repair task [`crate::journal::scavenge`]s the damaged
//! directory — salvaging every record whose checksum and generation
//! chain verify, resolving ambiguity *upward* so recovered spend ≥
//! served spend stays provable — commits a fresh snapshot atomically,
//! re-runs the standard [`SpendLedger::open`] against it, verifies the
//! recovered totals cover the salvage, and only then swaps the slot
//! back in. A freshly repaired shard serves on *probation* until its
//! first durable append proves the device writes again; a shard whose
//! salvage cannot be proven stays refused with the real typed
//! [`JournalError`] (never a stringified copy).
//!
//! A live shard that hits a persistent write fault (three consecutive
//! failed group appends, e.g. a full disk) self-quarantines and enters
//! the same repair loop rather than serving unjournaled spends; transient
//! `EIO` appends are retried in place, whole, with seeded exponential
//! backoff first. The per-shard invariant is always the single-ledger one —
//! recovered spend is never less than the spend of requests actually
//! served — and refusing an unhealthy shard's users is what keeps it.

use crate::journal::{self, JournalError};
use crate::ledger::{LedgerConfig, SpendError, SpendLedger};
use crate::replica::Shipper;
use geoind_rng::{fnv1a64, Rng, SeededRng};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Consecutive failed group appends after which a shard self-quarantines
/// (repair enabled) instead of refusing group by group forever.
const QUARANTINE_STRIKES: u32 = 3;
/// In-place retries of a transient-`EIO` group append before the refusal
/// is surfaced (each retry backs off exponentially with seeded jitter).
const EIO_RETRY_LIMIT: u32 = 3;
/// Scavenge attempts per repair task before the shard is abandoned to
/// `Failed` (corruption abandons immediately; only transient refusals —
/// full disk, device errors, injected faults — are retried).
const REPAIR_ATTEMPTS: u32 = 5;
/// Base backoff between repair attempts / EIO retries, milliseconds.
const BACKOFF_BASE_MS: u64 = 1;

/// One shard's slot in the repair state machine.
#[derive(Debug)]
pub(crate) enum Slot {
    /// The shard serves. `probation` is true after a repair until the
    /// first durable append proves the device writes again; `strikes`
    /// counts consecutive failed group appends toward self-quarantine.
    Open {
        /// The recovered (or repaired) ledger.
        ledger: SpendLedger,
        /// Repaired but not yet re-proven by a durable append.
        probation: bool,
        /// Consecutive failed group appends (reset by any success).
        strikes: u32,
    },
    /// Refusing fail-closed, waiting for a repair task to pick it up.
    Quarantined {
        /// The typed error that took the shard down.
        error: JournalError,
    },
    /// A repair task owns the shard's files right now.
    Scavenging {
        /// The typed error that took the shard down.
        error: JournalError,
    },
    /// Salvage could not prove the fail-closed invariant (or repair is
    /// disabled); refusing with the real typed reason.
    Failed {
        /// The typed error that refused recovery or repair.
        error: JournalError,
    },
}

impl Slot {
    /// `Ok` while the slot serves; otherwise the typed refusal for every
    /// request routed to it (fail-closed, retryable once repaired).
    fn serving(&self, shard: usize) -> Result<(), SpendError> {
        let detail = match self {
            Slot::Open { .. } => return Ok(()),
            Slot::Quarantined { error } => format!("quarantined for repair: {error}"),
            Slot::Scavenging { error } => format!("repair in progress: {error}"),
            Slot::Failed { error } => error.to_string(),
        };
        Err(SpendError::ShardUnavailable {
            shard: shard as u64,
            detail,
        })
    }
}

/// Externally visible health of one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardHealth {
    /// Serving normally.
    Ready,
    /// Repaired and serving, not yet re-proven by a durable append.
    Probation,
    /// Refusing, waiting for repair.
    Quarantined,
    /// Refusing, repair in progress.
    Scavenging,
    /// Refusing terminally (salvage unprovable or repair disabled).
    Failed,
}

/// Per-state shard counts, the `GET /healthz` payload.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardHealthCounts {
    /// Shards serving normally.
    pub ready: u64,
    /// Shards serving on post-repair probation.
    pub probation: u64,
    /// Shards quarantined awaiting repair.
    pub quarantined: u64,
    /// Shards being scavenged right now.
    pub scavenging: u64,
    /// Shards refused terminally.
    pub failed: u64,
}

impl ShardHealthCounts {
    /// True when every shard is serving (ready or probation).
    pub fn all_serving(&self) -> bool {
        self.quarantined == 0 && self.scavenging == 0 && self.failed == 0
    }
}

/// When damaged shards are repaired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairMode {
    /// Quarantined shards (at open or live) spawn a repair task
    /// immediately.
    Auto,
    /// Damaged shards quarantine and wait for
    /// [`ShardedLedger::repair_now`] (`POST /repair` on the wire).
    Manual,
    /// Legacy terminal behavior: a damaged shard is `Failed` forever.
    Off,
}

impl RepairMode {
    /// Parse the CLI grammar `auto|manual|off`: the mode whose
    /// [`Self::name`] is `s`.
    pub fn parse(s: &str) -> Result<Self, String> {
        [Self::Auto, Self::Manual, Self::Off]
            .into_iter()
            .find(|mode| mode.name() == s)
            .ok_or_else(|| format!("unknown repair mode {s:?} (auto|manual|off)"))
    }

    /// The mode's CLI name, as [`Self::parse`] reads it.
    pub fn name(self) -> &'static str {
        match self {
            Self::Auto => "auto",
            Self::Manual => "manual",
            Self::Off => "off",
        }
    }
}

/// The shard index `user` routes to among `shards` shards.
///
/// Pinned to FNV-1a-64 over the user id's little-endian bytes — the same
/// hash the journal uses for record checksums — so placement is stable
/// across restarts and across processes. Public so tests and operators
/// can predict which `shard-<k>/` directory holds a given account.
///
/// # Panics
/// Panics if `shards` is zero (a configuration bug, not a runtime
/// condition).
pub fn shard_of(user: u64, shards: usize) -> usize {
    assert!(shards > 0, "shard count must be positive");
    (fnv1a64(&user.to_le_bytes()) % shards as u64) as usize
}

/// Shard `k`'s journal directory under `dir`.
fn shard_dir(dir: &Path, k: usize) -> PathBuf {
    dir.join(format!("shard-{k}"))
}

/// Shared state behind the façade: the slots plus everything a
/// background repair task needs to swap one back in.
#[derive(Debug)]
struct ShardSet {
    slots: Vec<Mutex<Slot>>,
    /// The directory holding every `shard-<k>/`.
    dir: PathBuf,
    config: LedgerConfig,
    repair_mode: RepairMode,
    /// Completed quarantine→repair→serving round trips.
    repaired_shards: AtomicU64,
    /// WAL records + snapshot accounts salvaged by completed repairs.
    scavenged: AtomicU64,
    /// Repair tasks that ended with the shard still refused (`Failed`).
    abandoned: AtomicU64,
    /// Folds and fold faults of the ledgers self-quarantine dropped, so
    /// the fleet-wide counts never go backwards across a repair.
    retired_folds: AtomicU64,
    retired_fold_faults: AtomicU64,
    /// Durable group appends on the request path that admitted at least
    /// one charge: one `fdatasync` each (follower applies not counted).
    group_commits: AtomicU64,
    /// Repair tasks running or finished since the last spawn joined the
    /// finished ones.
    repair_handles: Mutex<Vec<JoinHandle<()>>>,
    /// Warm-standby replication, when this node is a primary with a
    /// lag bound (see [`crate::replica`]). Set once at startup.
    shipper: OnceLock<Arc<Shipper>>,
}

/// N independent spend ledgers routed by user hash. See the module docs
/// for layout, routing, and the fail-closed repair contract.
#[derive(Debug)]
pub struct ShardedLedger {
    inner: Arc<ShardSet>,
}

impl ShardedLedger {
    /// Open (or create) `shards` ledgers under `dir/shard-<k>/` with
    /// repair disabled ([`RepairMode::Off`]): a shard whose recovery
    /// errors is held `Failed` and its users are refused fail-closed,
    /// while the healthy shards serve. Callers that want recovery to be
    /// all-or-nothing can check `failed_shards().is_empty()` after
    /// opening; callers that want self-healing use
    /// [`Self::open_with_repair`].
    ///
    /// # Panics
    /// Panics if `shards` is zero or `config.cap_per_user` is invalid
    /// (the latter via [`SpendLedger::open`]).
    pub fn open(dir: &Path, config: LedgerConfig, shards: usize) -> Self {
        Self::open_with_repair(dir, config, shards, RepairMode::Off)
    }

    /// [`Self::open`] with an explicit [`RepairMode`]. Under `Auto` a
    /// shard that fails recovery is quarantined and a repair task starts
    /// immediately; under `Manual` it quarantines and waits for
    /// [`Self::repair_now`].
    ///
    /// # Panics
    /// Panics if `shards` is zero or `config.cap_per_user` is invalid.
    pub fn open_with_repair(
        dir: &Path,
        config: LedgerConfig,
        shards: usize,
        repair_mode: RepairMode,
    ) -> Self {
        assert!(shards > 0, "shard count must be positive");
        let slots = (0..shards)
            .map(|k| {
                Mutex::new(match SpendLedger::open(&shard_dir(dir, k), config) {
                    Ok(ledger) => Slot::Open {
                        ledger,
                        probation: false,
                        strikes: 0,
                    },
                    Err(error) => match repair_mode {
                        RepairMode::Off => Slot::Failed { error },
                        _ => Slot::Quarantined { error },
                    },
                })
            })
            .collect();
        let this = Self {
            inner: Arc::new(ShardSet {
                slots,
                dir: dir.to_path_buf(),
                config,
                repair_mode,
                repaired_shards: AtomicU64::new(0),
                scavenged: AtomicU64::new(0),
                abandoned: AtomicU64::new(0),
                retired_folds: AtomicU64::new(0),
                retired_fold_faults: AtomicU64::new(0),
                group_commits: AtomicU64::new(0),
                repair_handles: Mutex::new(Vec::new()),
                shipper: OnceLock::new(),
            }),
        };
        if repair_mode == RepairMode::Auto {
            this.repair_now();
        }
        this
    }

    /// Attach warm-standby replication: every subsequent spend is
    /// admitted against the shipper's lag bound and served only after
    /// the follower acks it durably. Returns false (and changes
    /// nothing) when a shipper was already attached.
    pub fn attach_shipper(&self, shipper: Arc<Shipper>) -> bool {
        self.inner.shipper.set(shipper).is_ok()
    }

    /// The attached shipper, if this node replicates to a standby.
    pub fn shipper(&self) -> Option<Arc<Shipper>> {
        self.inner.shipper.get().map(Arc::clone)
    }

    /// The directory the `shard-<k>/` subdirectories live under.
    pub(crate) fn base_dir(&self) -> PathBuf {
        self.inner.dir.clone()
    }

    fn lock_slot(&self, shard: usize) -> MutexGuard<'_, Slot> {
        self.inner.slots[shard]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn slot_for(&self, user: u64) -> MutexGuard<'_, Slot> {
        self.lock_slot(shard_of(user, self.inner.slots.len()))
    }

    /// Spend `eps` from `user`'s budget, durably: the one-charge case of
    /// [`Self::try_spend_many`].
    ///
    /// # Errors
    /// Whatever [`Self::try_spend_many`] returns for the charge.
    pub fn try_spend(&self, user: u64, eps: f64) -> Result<(), SpendError> {
        self.try_spend_many(&[(user, eps)])
            .pop()
            .expect("one result per charge")
    }

    /// Spend a group of `(user, eps)` charges durably, returning one
    /// result per charge in input order.
    ///
    /// The charges are split by owning shard, keeping input order within
    /// each shard. Each shard's part is one [`SpendLedger::try_spend_many`]
    /// group — one WAL write and one fsync under that shard's lock, taken
    /// once — and holds no other shard's lock, so spends on other shards
    /// proceed concurrently, including through their fsyncs.
    ///
    /// A transient-`EIO` group append is retried in place, whole (bounded,
    /// seeded exponential backoff), before the refusal is surfaced. With
    /// repair enabled, [`QUARANTINE_STRIKES`] consecutive failed group
    /// appends self-quarantine the shard — it stops serving unjournaled
    /// spends and enters the repair loop.
    ///
    /// With a shipper attached, a shard's part runs in chunks of as many
    /// charges as the lag bound has room for, asked of [`Shipper::room`]
    /// under the shard lock (the whole part when the bound has room).
    /// Each chunk is one group: journaled and published under that same
    /// lock, then answered once the follower has acked its last record
    /// (one wait per chunk, after the lock is dropped). A chunk the
    /// follower did not ack is refused whole. A bound full of unacked
    /// records is shipped from under the lock, so a part larger than the
    /// bound, or one that meets another thread's unacked charges, waits
    /// for room instead of being refused on capacity — as one-at-a-time
    /// charges would not be.
    ///
    /// Per-charge errors: the probe refusals of
    /// [`SpendLedger::try_spend_many`] and its failed append as
    /// [`SpendError::Journal`], plus [`SpendError::ShardUnavailable`]
    /// while the owning shard is quarantined, scavenging, or failed; with
    /// a shipper attached, also [`SpendError::ReplicaLag`] /
    /// [`SpendError::Fenced`] (nothing was spent on the pre-spend
    /// refusals; a post-spend replication refusal leaves the spend
    /// journaled and queued — refusing anyway over-counts at worst, never
    /// under).
    pub fn try_spend_many(&self, charges: &[(u64, f64)]) -> Vec<Result<(), SpendError>> {
        let mut parts: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (at, &(user, _)) in charges.iter().enumerate() {
            parts
                .entry(shard_of(user, self.inner.slots.len()))
                .or_default()
                .push(at);
        }
        let mut results: Vec<Result<(), SpendError>> = charges.iter().map(|_| Ok(())).collect();
        for (shard, positions) in parts {
            let part: Vec<(u64, f64)> = positions.iter().map(|&at| charges[at]).collect();
            for (at, result) in positions
                .into_iter()
                .zip(self.try_spend_shard(shard, &part))
            {
                results[at] = result;
            }
        }
        results
    }

    /// One shard's part of [`Self::try_spend_many`], chunk by chunk.
    fn try_spend_shard(&self, shard: usize, charges: &[(u64, f64)]) -> Vec<Result<(), SpendError>> {
        let shipper = self.shipper();
        let mut results = Vec::with_capacity(charges.len());
        while results.len() < charges.len() {
            let rest = &charges[results.len()..];
            results.extend(self.spend_chunk(shard, rest, shipper.as_deref()));
        }
        results
    }

    /// Answer the longest prefix of `charges` the lag bound has room for:
    /// journaled as one group under the slot lock and, with a shipper
    /// attached, published under it and acked by the follower after it.
    /// A refusal before anything is spent answers every charge.
    fn spend_chunk(
        &self,
        shard: usize,
        charges: &[(u64, f64)],
        shipper: Option<&Shipper>,
    ) -> Vec<Result<(), SpendError>> {
        let mut guard = self.lock_slot(shard);
        let Slot::Open {
            ledger,
            probation,
            strikes,
        } = &mut *guard
        else {
            let refusal = guard.serving(shard);
            return charges.iter().map(|_| refusal.clone()).collect();
        };
        // Room is asked for under the slot lock, where the chunk is
        // journaled and published: no other spend of this shard can take
        // it meanwhile.
        let chunk = match shipper.map_or(Ok(charges.len()), |s| s.room(shard, charges.len())) {
            Ok(granted) => &charges[..granted],
            Err(refusal) => return charges.iter().map(|_| Err(refusal.clone())).collect(),
        };
        let mut rng = SeededRng::from_seed(0x5eed ^ chunk[0].0 ^ ((shard as u64) << 32));
        let mut attempt = 0u32;
        let (probes, append) = loop {
            let (probes, append) = ledger.try_spend_many(chunk);
            match &append {
                Err(e) if journal::is_transient_io(e) && attempt < EIO_RETRY_LIMIT => {
                    attempt += 1;
                    backoff_sleep(&mut rng, attempt);
                }
                _ => break (probes, append),
            }
        };
        let mut quarantine = None;
        match &append {
            Err(error) => {
                *strikes += 1;
                if self.inner.repair_mode != RepairMode::Off && *strikes >= QUARANTINE_STRIKES {
                    // Persistent write fault: stop fielding (and refusing)
                    // requests one by one and hand the shard to the repair
                    // loop.
                    quarantine = Some(error.clone());
                }
            }
            Ok(()) if probes.iter().any(Result::is_ok) => {
                self.inner.group_commits.fetch_add(1, Ordering::Relaxed);
                *strikes = 0;
                // First durable append after a repair: probation is over,
                // the device provably writes again.
                *probation = false;
            }
            Ok(()) => {}
        }
        // `outcome` answers every charge the cap probe admitted. They are
        // published under the slot lock so the pending queue's order
        // matches journal order.
        let outcome = append.map_err(SpendError::Journal);
        let mut last_seq = None;
        let mut results = Vec::with_capacity(chunk.len());
        for (&(user, eps), probe) in chunk.iter().zip(probes) {
            let result = probe.and_then(|()| outcome.clone());
            if let (Some(s), Ok(())) = (shipper, &result) {
                last_seq = Some(s.publish(shard, user, eps));
            }
            results.push(result);
        }
        if let Some(error) = quarantine {
            if let Slot::Open { ledger, .. } =
                std::mem::replace(&mut *guard, Slot::Quarantined { error })
            {
                // The ledger's fold finishes before it drops, under the
                // slot lock: a repair's scavenge never races a fold.
                self.inner.retire_ledger(ledger);
            }
            drop(guard);
            if self.inner.repair_mode == RepairMode::Auto {
                spawn_repair(&self.inner, shard);
            }
        } else {
            drop(guard);
        }
        // Ship outside the slot lock: the spends are durable locally; now
        // they must be durable on the follower before they are served.
        if let (Some(shipper), Some(seq)) = (shipper, last_seq) {
            if let Err(e) = shipper.wait_acked(shard, seq) {
                for result in results.iter_mut().filter(|r| r.is_ok()) {
                    *result = Err(e.clone());
                }
            }
        }
        results
    }

    /// Apply a shipped batch's records for `shard` from the primary as one
    /// [`SpendLedger::apply_replicated_many`] group (one fsync) on that
    /// shard's verified ledger path. No cap probe: the primary already
    /// served them.
    ///
    /// # Errors
    /// [`SpendError::Misrouted`] when a record's user does not route to
    /// `shard` (nothing is applied), [`SpendError::ShardUnavailable`]
    /// while the shard is not serving, otherwise whatever the
    /// single-ledger apply returns. Any `Err` means none of the records is
    /// durable here and none may be acked.
    pub fn apply_replicated_many(
        &self,
        shard: usize,
        records: &[(u64, f64)],
    ) -> Result<(), SpendError> {
        if let Some(&(user, _)) = records
            .iter()
            .find(|&&(user, _)| shard_of(user, self.inner.slots.len()) != shard)
        {
            return Err(SpendError::Misrouted {
                user,
                shard: shard as u64,
            });
        }
        match &mut *self.lock_slot(shard) {
            Slot::Open {
                ledger, probation, ..
            } => {
                ledger.apply_replicated_many(records)?;
                // A durable replicated append proves the device writes.
                *probation = false;
                Ok(())
            }
            slot => slot.serving(shard),
        }
    }

    /// Spawn repair tasks for every quarantined or failed shard and
    /// return how many were started. Under [`RepairMode::Off`] this is a
    /// no-op (returns 0) — terminal means terminal.
    pub fn repair_now(&self) -> usize {
        if self.inner.repair_mode == RepairMode::Off {
            return 0;
        }
        let mut started = 0;
        for shard in 0..self.inner.slots.len() {
            if spawn_repair(&self.inner, shard) {
                started += 1;
            }
        }
        started
    }

    /// Block until every outstanding repair task finishes. Called during
    /// shutdown so the final report reflects settled slots; tests use it
    /// to await a deterministic post-repair state.
    pub fn await_repairs(&self) {
        loop {
            let handles: Vec<JoinHandle<()>> = self
                .inner
                .repair_handles
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .drain(..)
                .collect();
            if handles.is_empty() {
                return;
            }
            for handle in handles {
                let _ = handle.join();
            }
        }
    }

    /// Checkpoint every serving shard (fold WAL into snapshot). All
    /// shards are attempted even if an early one fails; the first error
    /// is returned.
    ///
    /// # Errors
    /// The first [`JournalError`] any shard's checkpoint produced.
    pub fn checkpoint_all(&self) -> Result<(), JournalError> {
        let mut first_err = None;
        for slot in &self.inner.slots {
            let mut guard = slot.lock().unwrap_or_else(PoisonError::into_inner);
            if let Slot::Open { ledger, .. } = &mut *guard {
                if let Err(e) = ledger.checkpoint() {
                    first_err.get_or_insert(e);
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Composed ε already spent by `user` this epoch, or `None` when the
    /// owning shard is not serving — an unavailable shard's accounts are
    /// *unknown*, not zero (the refusal is what protects its users; this
    /// read is what keeps fleet-wide sums honest).
    pub fn spent(&self, user: u64) -> Option<f64> {
        match &*self.slot_for(user) {
            Slot::Open { ledger, .. } => Some(ledger.spent(user)),
            _ => None,
        }
    }

    /// ε remaining for `user` this epoch, or `None` when the owning
    /// shard is not serving.
    pub fn remaining(&self, user: u64) -> Option<f64> {
        match &*self.slot_for(user) {
            Slot::Open { ledger, .. } => Some(ledger.remaining(user)),
            _ => None,
        }
    }

    /// Number of distinct users with recorded spend across serving
    /// shards — a partial sum when [`Self::unaccounted_shards`] is
    /// nonzero.
    pub fn users(&self) -> usize {
        self.fold(0, |acc, l| acc + l.users())
    }

    /// Sum of all spends across serving shards this epoch — a partial
    /// sum when [`Self::unaccounted_shards`] is nonzero.
    pub fn total_spent(&self) -> f64 {
        self.fold(0.0, |acc, l| acc + l.total_spent())
    }

    /// Shards whose accounts are *not* included in [`Self::users`] /
    /// [`Self::total_spent`] right now (quarantined, scavenging, or
    /// failed). Surfaced in the serve report so a partial sum is never
    /// mistaken for the fleet total.
    pub fn unaccounted_shards(&self) -> u64 {
        self.inner
            .slots
            .iter()
            .filter(|slot| {
                !matches!(
                    &*slot.lock().unwrap_or_else(PoisonError::into_inner),
                    Slot::Open { .. }
                )
            })
            .count() as u64
    }

    /// The shard count this instance was opened with.
    pub fn shards(&self) -> usize {
        self.inner.slots.len()
    }

    /// The per-user ε cap all shards share.
    pub fn cap_per_user(&self) -> f64 {
        self.inner.config.cap_per_user
    }

    /// The epoch all shards were opened at.
    pub fn epoch(&self) -> u64 {
        self.inner.config.epoch
    }

    /// The repair mode this instance was opened with.
    pub fn repair_mode(&self) -> RepairMode {
        self.inner.repair_mode
    }

    /// Health of every shard, indexed by shard number.
    pub fn shard_states(&self) -> Vec<ShardHealth> {
        self.inner
            .slots
            .iter()
            .map(
                |slot| match &*slot.lock().unwrap_or_else(PoisonError::into_inner) {
                    Slot::Open {
                        probation: false, ..
                    } => ShardHealth::Ready,
                    Slot::Open {
                        probation: true, ..
                    } => ShardHealth::Probation,
                    Slot::Quarantined { .. } => ShardHealth::Quarantined,
                    Slot::Scavenging { .. } => ShardHealth::Scavenging,
                    Slot::Failed { .. } => ShardHealth::Failed,
                },
            )
            .collect()
    }

    /// Per-state shard counts (the `GET /healthz` payload).
    pub fn health_counts(&self) -> ShardHealthCounts {
        let mut counts = ShardHealthCounts::default();
        for state in self.shard_states() {
            match state {
                ShardHealth::Ready => counts.ready += 1,
                ShardHealth::Probation => counts.probation += 1,
                ShardHealth::Quarantined => counts.quarantined += 1,
                ShardHealth::Scavenging => counts.scavenging += 1,
                ShardHealth::Failed => counts.failed += 1,
            }
        }
        counts
    }

    /// The shards refused terminally, with the error that refused each
    /// (rendered; the typed error lives in the slot). Empty when every
    /// shard is serving or repairable.
    pub fn failed_shards(&self) -> Vec<(usize, String)> {
        self.inner
            .slots
            .iter()
            .enumerate()
            .filter_map(|(k, slot)| {
                let guard = slot.lock().unwrap_or_else(PoisonError::into_inner);
                match &*guard {
                    Slot::Failed { error } => Some((k, error.to_string())),
                    _ => None,
                }
            })
            .collect()
    }

    /// Completed quarantine→repair→serving round trips.
    pub fn repaired_shards(&self) -> u64 {
        self.inner.repaired_shards.load(Ordering::Relaxed)
    }

    /// WAL records + snapshot accounts salvaged by completed repairs.
    pub fn scavenged_records(&self) -> u64 {
        self.inner.scavenged.load(Ordering::Relaxed)
    }

    /// Repair tasks that ended with the shard still refused.
    pub fn abandoned_repairs(&self) -> u64 {
        self.inner.abandoned.load(Ordering::Relaxed)
    }

    /// Repair tasks running right now.
    pub fn repairs_running(&self) -> u64 {
        self.inner
            .repair_handles
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .filter(|handle| !handle.is_finished())
            .count() as u64
    }

    /// Snapshot folds committed across shards, background and
    /// checkpoint alike ([`SpendLedger::folds`]).
    pub fn folds(&self) -> u64 {
        self.inner.retired_folds.load(Ordering::Relaxed) + self.fold(0, |acc, l| acc + l.folds())
    }

    /// Fold steps that failed across shards ([`SpendLedger::fold_faults`]).
    /// Spends are still served while folds fail, but each shard's WAL
    /// grows and its recovery slows until a fold succeeds.
    pub fn fold_faults(&self) -> u64 {
        self.inner.retired_fold_faults.load(Ordering::Relaxed)
            + self.fold(0, |acc, l| acc + l.fold_faults())
    }

    /// Durable group appends the request path has made: one WAL write
    /// and one `fdatasync` each, counted only when the group admitted a
    /// charge. Served reports divided by this is the mean group size per
    /// `fdatasync`. A follower's applies are not counted.
    pub fn group_commits(&self) -> u64 {
        self.inner.group_commits.load(Ordering::Relaxed)
    }

    fn fold<T>(&self, init: T, mut f: impl FnMut(T, &SpendLedger) -> T) -> T {
        let mut acc = init;
        for slot in &self.inner.slots {
            let guard = slot.lock().unwrap_or_else(PoisonError::into_inner);
            if let Slot::Open { ledger, .. } = &*guard {
                acc = f(acc, ledger);
            }
        }
        acc
    }

    /// Hold the lock of the shard owning `user` — lets tests stall the
    /// serving path exactly where a slow fsync would.
    #[cfg(test)]
    pub(crate) fn lock_shard(&self, user: u64) -> MutexGuard<'_, Slot> {
        self.slot_for(user)
    }
}

impl ShardSet {
    /// Keep the fold counts of a ledger leaving its slot, once its
    /// in-flight fold has finished.
    fn retire_ledger(&self, mut ledger: SpendLedger) {
        ledger.await_fold();
        self.retired_folds
            .fetch_add(ledger.folds(), Ordering::Relaxed);
        self.retired_fold_faults
            .fetch_add(ledger.fold_faults(), Ordering::Relaxed);
    }
}

/// Seeded exponential backoff: `base·2^min(attempt,6)` plus jitter in
/// `[0, base)` milliseconds — deterministic per (user, shard) seed.
fn backoff_sleep(rng: &mut SeededRng, attempt: u32) {
    let exp = BACKOFF_BASE_MS.saturating_mul(1u64 << attempt.min(6));
    let jitter = (rng.gen_f64() * BACKOFF_BASE_MS as f64) as u64;
    std::thread::sleep(Duration::from_millis(exp + jitter));
}

/// Claim `shard` for repair (Quarantined/Failed → Scavenging) and spawn
/// the background task. Returns false when the slot is not claimable
/// (already serving, or already being scavenged).
fn spawn_repair(inner: &Arc<ShardSet>, shard: usize) -> bool {
    {
        let mut guard = inner.slots[shard]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        // Two-step move: the placeholder below is overwritten before the
        // lock drops, whichever way the match goes.
        let prev = std::mem::replace(
            &mut *guard,
            Slot::Scavenging {
                error: JournalError::Injected("repair claim in progress"),
            },
        );
        match prev {
            Slot::Quarantined { error } | Slot::Failed { error } => {
                *guard = Slot::Scavenging { error };
            }
            serving => {
                *guard = serving;
                return false;
            }
        }
    }
    let set = Arc::clone(inner);
    let handle = std::thread::spawn(move || repair_shard(&set, shard));
    let mut handles = inner
        .repair_handles
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    // A finished thread keeps its stack mapped until it is joined.
    for done in handles.extract_if(.., |handle| handle.is_finished()) {
        let _ = done.join();
    }
    handles.push(handle);
    true
}

/// The repair task: scavenge the shard's directory (retrying transient
/// refusals with seeded backoff), re-run the standard open against the
/// salvage, verify recovered ≥ salvaged per user, and swap the slot back
/// to serving-on-probation. The slot is `Scavenging` for the duration,
/// so no other thread touches the files; the lock is only held for the
/// final swap.
fn repair_shard(set: &ShardSet, shard: usize) {
    let dir = &shard_dir(&set.dir, shard);
    let mut rng = SeededRng::from_seed(0x4efa_15ed ^ shard as u64);
    let mut outcome: Result<(journal::ScavengeReport, SpendLedger), JournalError> =
        Err(JournalError::Injected("repair never attempted"));
    for attempt in 0..REPAIR_ATTEMPTS {
        if attempt > 0 {
            backoff_sleep(&mut rng, attempt);
        }
        outcome = journal::scavenge(dir, set.config.epoch).and_then(|report| {
            // Verified re-admission: the standard open (full checksum +
            // generation validation) must accept the salvage and recover
            // at least what was salvaged, per user.
            let ledger = SpendLedger::open(dir, set.config)?;
            for (&user, &spend) in &report.salvaged {
                if ledger.spent(user) < spend - 1e-9 {
                    return Err(JournalError::Corrupt {
                        section: format!("repair verification (shard {shard})"),
                        detail: format!(
                            "re-open recovered {} for user {user}, salvage proved {spend}",
                            ledger.spent(user)
                        ),
                    });
                }
            }
            Ok((report, ledger))
        });
        match &outcome {
            Ok(_) => break,
            // Corruption and epoch regression are not transient: no
            // retry budget will make the salvage provable.
            Err(JournalError::Corrupt { .. } | JournalError::EpochRegression { .. }) => break,
            Err(_) => {}
        }
    }
    let mut guard = set.slots[shard]
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    match outcome {
        Ok((report, ledger)) => {
            set.scavenged.fetch_add(
                report.wal_records + report.salvaged.len() as u64,
                Ordering::Relaxed,
            );
            set.repaired_shards.fetch_add(1, Ordering::Relaxed);
            *guard = Slot::Open {
                ledger,
                probation: true,
                strikes: 0,
            };
        }
        Err(error) => {
            set.abandoned.fetch_add(1, Ordering::Relaxed);
            *guard = Slot::Failed { error };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geoind_testkit::failpoint::{FailSpec, Session};
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "geoind-shard-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn config(cap: f64) -> LedgerConfig {
        LedgerConfig {
            cap_per_user: cap,
            epoch: 0,
            compact_after: 0,
        }
    }

    fn corrupt_snapshot(dir: &Path, shard: usize) {
        let snap = dir.join(format!("shard-{shard}")).join("ledger.snap");
        let mut bytes = std::fs::read(&snap).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&snap, &bytes).unwrap();
    }

    #[test]
    fn repair_mode_names_parse_back() {
        for mode in [RepairMode::Auto, RepairMode::Manual, RepairMode::Off] {
            assert_eq!(RepairMode::parse(mode.name()), Ok(mode));
        }
        assert!(RepairMode::parse("sometimes").is_err());
    }

    #[test]
    fn routing_is_stable_and_covers_every_shard() {
        // Pinned hash: the same user must land on the same shard in
        // every process, ever.
        for user in 0..256u64 {
            assert_eq!(shard_of(user, 8), shard_of(user, 8));
        }
        // And the router must actually spread load: with 256 users and
        // 8 shards, every shard owns someone.
        let mut seen = [false; 8];
        for user in 0..256u64 {
            seen[shard_of(user, 8)] = true;
        }
        assert!(seen.iter().all(|&s| s), "a shard owns no users: {seen:?}");
    }

    #[test]
    fn spends_split_by_shard_and_survive_reopen() {
        let dir = temp_dir("reopen");
        let ledger = ShardedLedger::open(&dir, config(1.0), 4);
        for user in 0..20u64 {
            ledger.try_spend(user, 0.25).unwrap();
        }
        assert_eq!(ledger.users(), 20);
        assert!((ledger.total_spent() - 5.0).abs() < 1e-12);
        ledger.checkpoint_all().unwrap();
        drop(ledger);

        // Each populated shard directory exists with the single-ledger
        // on-disk format.
        let populated = (0..4)
            .filter(|&k| dir.join(format!("shard-{k}")).join("ledger.snap").exists())
            .count();
        assert!(populated >= 1);

        let reopened = ShardedLedger::open(&dir, config(1.0), 4);
        assert!(reopened.failed_shards().is_empty());
        assert_eq!(reopened.unaccounted_shards(), 0);
        for user in 0..20u64 {
            let spent = reopened.spent(user).expect("serving shard");
            assert!((spent - 0.25).abs() < 1e-12, "user {user}");
        }
    }

    #[test]
    fn failed_shard_refuses_its_users_while_others_serve() {
        let dir = temp_dir("failclosed");
        let ledger = ShardedLedger::open(&dir, config(1.0), 4);
        for user in 0..20u64 {
            ledger.try_spend(user, 0.25).unwrap();
        }
        ledger.checkpoint_all().unwrap();
        drop(ledger);

        // Corrupt one shard's snapshot so its recovery fails.
        let bad = 1usize;
        corrupt_snapshot(&dir, bad);

        let reopened = ShardedLedger::open(&dir, config(1.0), 4);
        let failed = reopened.failed_shards();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].0, bad);
        assert_eq!(reopened.unaccounted_shards(), 1);

        for user in 0..20u64 {
            let on_bad = shard_of(user, 4) == bad;
            match reopened.try_spend(user, 0.25) {
                Ok(()) => assert!(!on_bad, "user {user} served from a failed shard"),
                Err(SpendError::ShardUnavailable { shard, .. }) => {
                    assert!(on_bad, "user {user} refused by a healthy shard");
                    assert_eq!(shard, bad as u64);
                }
                Err(e) => panic!("unexpected refusal for user {user}: {e}"),
            }
            // The accounting read is typed, not silently zero.
            assert_eq!(reopened.spent(user).is_none(), on_bad, "user {user}");
        }
    }

    #[test]
    fn open_refuses_a_zero_shard_count() {
        let result = std::panic::catch_unwind(|| shard_of(3, 0));
        assert!(result.is_err());
    }

    #[test]
    fn auto_repair_heals_a_wal_header_corruption_at_open() {
        let dir = temp_dir("autorepair");
        // Serve, checkpoint, then spend more so the WAL holds records.
        {
            let ledger = ShardedLedger::open(&dir, config(10.0), 2);
            for user in 0..8u64 {
                ledger.try_spend(user, 0.5).unwrap();
            }
            ledger.checkpoint_all().unwrap();
            for user in 0..8u64 {
                ledger.try_spend(user, 0.25).unwrap();
            }
            // Crash: no checkpoint — the 0.25 spends live only in WALs.
        }
        // Corrupt shard 0's WAL *header* (a committed region): the
        // standard open refuses, but every record checksum still
        // verifies, so a scavenge salvages them (resolved upward).
        // The checkpoint folded segment 1; the later spends are in 2.
        let wal = dir.join("shard-0").join("ledger.wal.2");
        let mut bytes = std::fs::read(&wal).unwrap();
        bytes[9] ^= 0x20;
        std::fs::write(&wal, &bytes).unwrap();
        assert!(
            SpendLedger::open(&dir.join("shard-0"), config(10.0)).is_err(),
            "corrupt WAL header must refuse the standard open"
        );

        let ledger = ShardedLedger::open_with_repair(&dir, config(10.0), 2, RepairMode::Auto);
        ledger.await_repairs();
        assert_eq!(ledger.repaired_shards(), 1);
        assert_eq!(ledger.abandoned_repairs(), 0);
        assert_eq!(ledger.unaccounted_shards(), 0);
        let states = ledger.shard_states();
        assert_eq!(states[0], ShardHealth::Probation);
        // Every user recovered at least what was served — nothing was
        // forgotten by the repair.
        for user in 0..8u64 {
            let spent = ledger.spent(user).expect("repaired shard serves");
            assert!(spent >= 0.75 - 1e-9, "user {user} lost spend: {spent}");
        }
        // Probation ends at the first durable append.
        let probed = (0..64)
            .find(|&u| shard_of(u, 2) == 0)
            .expect("a user on shard 0");
        ledger.try_spend(probed, 0.25).unwrap();
        assert_eq!(ledger.shard_states()[0], ShardHealth::Ready);
    }

    #[test]
    fn unprovable_salvage_is_abandoned_with_the_typed_reason() {
        let dir = temp_dir("abandon");
        {
            let ledger = ShardedLedger::open(&dir, config(1.0), 2);
            for user in 0..8u64 {
                ledger.try_spend(user, 0.25).unwrap();
            }
            ledger.checkpoint_all().unwrap();
        }
        // Corrupt shard 1's *snapshot* (the committed base): a scavenge
        // cannot bound what was served, so repair must abandon.
        corrupt_snapshot(&dir, 1);
        let ledger = ShardedLedger::open_with_repair(&dir, config(1.0), 2, RepairMode::Auto);
        ledger.await_repairs();
        assert_eq!(ledger.repaired_shards(), 0);
        assert_eq!(ledger.abandoned_repairs(), 1);
        assert_eq!(ledger.shard_states()[1], ShardHealth::Failed);
        let failed = ledger.failed_shards();
        assert_eq!(failed.len(), 1);
        assert!(
            failed[0].1.contains("corrupt"),
            "typed reason lost: {}",
            failed[0].1
        );
    }

    #[test]
    fn fold_faults_are_counted_and_spends_still_served() {
        let dir = temp_dir("foldfault");
        let cfg = LedgerConfig {
            compact_after: 2,
            ..config(100.0)
        };
        let ledger = ShardedLedger::open(&dir, cfg, 2);
        let user = 5u64;
        let settle = || match &mut *ledger.lock_shard(user) {
            Slot::Open { ledger, .. } => ledger.await_fold(),
            _ => panic!("shard not serving"),
        };
        let mut fp = Session::new();
        fp.arm("serve.snapshot.write", FailSpec::always());
        for _ in 0..6 {
            ledger
                .try_spend(user, 0.5)
                .expect("served despite fold faults");
            settle();
        }
        assert!(fp.fired("serve.snapshot.write") > 1);
        let faults = ledger.fold_faults();
        assert!(faults >= 2, "fold faults not counted: {faults}");
        assert_eq!(ledger.folds(), 0);
        drop(fp);
        // Disarmed, the retried fold commits.
        ledger.try_spend(user, 0.5).expect("spend");
        settle();
        assert_eq!(ledger.folds(), 1);
        assert_eq!(ledger.fold_faults(), faults);
        assert!((ledger.spent(user).expect("serving") - 3.5).abs() < 1e-12);
    }

    #[test]
    fn manual_mode_waits_for_repair_now() {
        let dir = temp_dir("manual");
        {
            let ledger = ShardedLedger::open(&dir, config(10.0), 2);
            for user in 0..8u64 {
                ledger.try_spend(user, 0.5).unwrap();
            }
            ledger.checkpoint_all().unwrap();
        }
        // The active segment after the checkpoint's fold.
        let wal = dir.join("shard-1").join("ledger.wal.2");
        let mut bytes = std::fs::read(&wal).unwrap();
        bytes[9] ^= 0x20;
        std::fs::write(&wal, &bytes).unwrap();

        let ledger = ShardedLedger::open_with_repair(&dir, config(10.0), 2, RepairMode::Manual);
        assert_eq!(ledger.shard_states()[1], ShardHealth::Quarantined);
        // Quarantined users are refused with a typed ShardUnavailable.
        let user = (0..64)
            .find(|&u| shard_of(u, 2) == 1)
            .expect("a user on shard 1");
        assert!(matches!(
            ledger.try_spend(user, 0.5),
            Err(SpendError::ShardUnavailable { shard: 1, .. })
        ));
        assert_eq!(ledger.repairs_running(), 0);
        assert_eq!(ledger.repair_now(), 1);
        // `repairs_running` counts the repair threads still running, so
        // it falls to zero when the repair ends, with nothing joined.
        let started = std::time::Instant::now();
        while ledger.repairs_running() > 0 {
            assert!(started.elapsed() < Duration::from_secs(10), "repair hung");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(ledger.repaired_shards(), 1);
        assert_eq!(ledger.shard_states()[1], ShardHealth::Probation);
        ledger.try_spend(user, 0.5).expect("repaired shard serves");
    }
}
