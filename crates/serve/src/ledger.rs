//! The per-user ε-budget ledger: epoch-scoped composed-ε accounting
//! backed by the write-ahead [`Journal`].
//!
//! By the composability property of GeoInd, `k` reports through an
//! ε-GeoInd mechanism are jointly `k·ε`-GeoInd at worst — without
//! explicit accounting, repeated releases silently exhaust the effective
//! guarantee (Oya et al.). [`SpendLedger`] makes the accounting explicit
//! and crash-safe:
//!
//! * every user holds a [`BudgetLedger`] account capped at
//!   `cap_per_user` composed ε per epoch;
//! * a spend is **journaled before it is acknowledged** — the caller may
//!   serve the request only after [`SpendLedger::try_spend`] returns
//!   `Ok`, which implies a durable WAL record exists. A group of charges
//!   ([`SpendLedger::try_spend_many`]) shares one WAL write and one fsync;
//! * a request whose spend would exceed the cap is refused with a typed
//!   [`SpendError::Exhausted`] and *nothing* is journaled or spent — the
//!   request is never served at reduced privacy;
//! * after a crash, recovery replays the journal; recovered spend is
//!   always ≥ the spend of requests actually served (see the journal
//!   module docs), so an exhausted user stays exhausted across restarts.
//!
//! Snapshot folds stay off the request path. Every `compact_after`
//! records a group rotates the journal onto a spare WAL segment — no
//! file-system call under the caller's lock — and hands a capture of the
//! accounts to the folder thread, which commits the snapshot, retires
//! the covered segments and creates the next spare. At most one fold per
//! ledger is in flight; a rotation that finds one, or no spare yet, waits
//! for a later group.

use crate::journal::{Fold, FoldCounts, Journal, JournalError};
use geoind_core::{BudgetError, BudgetLedger};
use std::collections::{BTreeMap, VecDeque};
use std::fs::File;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

/// Configuration of a [`SpendLedger`].
#[derive(Debug, Clone, Copy)]
pub struct LedgerConfig {
    /// Maximum composed ε any single user may spend per epoch.
    pub cap_per_user: f64,
    /// The current epoch. Budgets renew when the epoch advances; opening
    /// a journal persisted at a newer epoch is refused.
    pub epoch: u64,
    /// Start a snapshot fold once the active WAL segment holds this many
    /// records (`0` disables automatic compaction;
    /// [`SpendLedger::checkpoint`] stays available). The fold runs on the
    /// folder thread; while one is in flight the segment keeps
    /// growing past this count, and the next group after it finishes
    /// starts the next fold.
    pub compact_after: u64,
}

impl Default for LedgerConfig {
    fn default() -> Self {
        Self {
            cap_per_user: 2.0,
            epoch: 0,
            compact_after: 4096,
        }
    }
}

/// Why a spend was refused. Nothing is spent or journaled on refusal.
#[derive(Debug, Clone)]
pub enum SpendError {
    /// The user's epoch budget cannot cover this request. Serving anyway
    /// would exceed the composed-ε cap, so the request must be refused —
    /// never served at reduced privacy.
    Exhausted {
        /// The refused user.
        user: u64,
        /// The ε the request would have spent.
        requested: f64,
        /// The ε the user has left this epoch (possibly 0).
        remaining: f64,
    },
    /// The spend could not be made durable; fail-closed refusal.
    Journal(JournalError),
    /// The requested charge is invalid (non-positive or non-finite).
    BadCharge(f64),
    /// The ledger shard holding this user's account failed recovery (see
    /// [`crate::shard::ShardedLedger`]). Without the shard's durable spend
    /// record the user's composed-ε position is unknown, so every request
    /// routed to it is refused — fail-closed, never served blind.
    ShardUnavailable {
        /// Index of the unavailable shard.
        shard: u64,
        /// Why the shard failed to recover.
        detail: String,
    },
    /// The warm standby has not durably acked this spend and the
    /// replication lag bound is reached (or no follower is registered
    /// at all). The follower is the source of truth for failover, so
    /// serving ahead of it would let a promoted follower re-grant
    /// budget the primary already served — refused fail-closed. The
    /// spend may already be journaled locally; refusing anyway
    /// over-counts at worst, never under.
    ReplicaLag {
        /// Locally journaled records the follower has not acked.
        lag: u64,
    },
    /// A follower with a newer fence generation refused this primary's
    /// replication stream: this node has been superseded by a promoted
    /// standby and must not serve spends under its stale generation.
    Fenced,
    /// A replicated record was shipped on a shard that does not own its
    /// user. Booking it there would hide the spend from the user's own
    /// shard, so the whole batch is refused.
    Misrouted {
        /// The record's user.
        user: u64,
        /// The shard the record was shipped on.
        shard: u64,
    },
}

impl std::fmt::Display for SpendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpendError::Exhausted {
                user,
                requested,
                remaining,
            } => write!(
                f,
                "user {user} budget exhausted: requested {requested}, remaining {remaining}"
            ),
            SpendError::Journal(_) => write!(f, "spend could not be journaled"),
            SpendError::BadCharge(eps) => write!(f, "invalid spend {eps}"),
            SpendError::ShardUnavailable { shard, detail } => {
                write!(
                    f,
                    "ledger shard {shard} unavailable ({detail}); refusing fail-closed"
                )
            }
            SpendError::ReplicaLag { lag } => {
                write!(
                    f,
                    "replication lag bound reached ({lag} unacked); refusing fail-closed"
                )
            }
            SpendError::Fenced => {
                write!(f, "fenced by a promoted follower; refusing all spends")
            }
            SpendError::Misrouted { user, shard } => {
                write!(f, "user {user} does not route to shard {shard}")
            }
        }
    }
}

impl std::error::Error for SpendError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SpendError::Journal(e) => Some(e),
            _ => None,
        }
    }
}

/// Crash-safe per-user spend accounting for one epoch. See the module
/// docs for the protocol.
#[derive(Debug)]
pub struct SpendLedger {
    config: LedgerConfig,
    journal: Journal,
    accounts: BTreeMap<u64, BudgetLedger>,
    folder: Folder,
    /// The most recent fold fault (the spends it covered were already
    /// durable; the fold is retried).
    last_compaction_fault: Option<String>,
}

/// A fold and the outcome of running it.
type FoldDone = (Box<Fold>, Result<File, JournalError>);

/// Where a ledger's finished fold waits to be collected.
type Reply = (Mutex<Option<FoldDone>>, Condvar);

/// Folds queued for the folder thread, each with its ledger's reply slot.
#[derive(Debug, Default)]
struct Queue {
    jobs: VecDeque<(Box<Fold>, Arc<Reply>)>,
    closed: bool,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The process's folder thread, shared by every open ledger: started by
/// the first fold any ledger submits, joined when the last ledger holding
/// it drops. One thread rather than one per ledger: glibc gives each
/// thread its own malloc arena, and a thread per shard spread the
/// server's allocations over that many more arenas (DESIGN.md §9).
#[derive(Debug)]
struct FolderThread {
    queue: Arc<(Mutex<Queue>, Condvar)>,
    thread: Option<JoinHandle<()>>,
}

impl FolderThread {
    /// The running folder thread, started if no ledger holds it.
    fn get() -> std::io::Result<Arc<Self>> {
        static RUNNING: Mutex<Weak<FolderThread>> = Mutex::new(Weak::new());
        let mut running = lock(&RUNNING);
        if let Some(folder) = running.upgrade() {
            return Ok(folder);
        }
        let queue: Arc<(Mutex<Queue>, Condvar)> = Arc::default();
        let theirs = Arc::clone(&queue);
        let thread = std::thread::Builder::new()
            .name("ledger-fold".into())
            .spawn(move || fold_loop(&theirs))?;
        let folder = Arc::new(Self {
            queue,
            thread: Some(thread),
        });
        *running = Arc::downgrade(&folder);
        Ok(folder)
    }

    fn submit(&self, fold: Box<Fold>, reply: Arc<Reply>) {
        lock(&self.queue.0).jobs.push_back((fold, reply));
        self.queue.1.notify_one();
    }

    fn alive(&self) -> bool {
        self.thread.as_ref().is_some_and(|t| !t.is_finished())
    }
}

/// The folder thread: run each queued fold under the failpoint arming
/// of the thread that queued it, and put it back in its ledger's reply
/// slot, until the last ledger lets go.
fn fold_loop((queue, wake): &(Mutex<Queue>, Condvar)) {
    let mut pending = lock(queue);
    loop {
        if let Some((mut fold, reply)) = pending.jobs.pop_front() {
            drop(pending);
            let result = fold.run();
            *lock(&reply.0) = Some((fold, result));
            reply.1.notify_all();
            pending = lock(queue);
        } else if pending.closed {
            return;
        } else {
            pending = wake.wait(pending).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl Drop for FolderThread {
    /// Finish the queued folds, then join the thread.
    fn drop(&mut self) {
        lock(&self.queue.0).closed = true;
        self.queue.1.notify_all();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// A ledger's side of folding. Its one [`Fold`] is either held here
/// (`fold`), or queued, running or finished on the folder thread.
#[derive(Debug)]
struct Folder {
    fold: Option<Box<Fold>>,
    reply: Arc<Reply>,
    thread: Option<Arc<FolderThread>>,
    counts: Arc<FoldCounts>,
}

impl Folder {
    /// The folder of a freshly opened journal. Its first fold creates the
    /// spare segment; the first durable group submits it.
    fn new(journal: &Journal) -> Self {
        let counts = Arc::new(FoldCounts::default());
        Self {
            fold: Some(Box::new(Fold::first_spare(journal, Arc::clone(&counts)))),
            reply: Arc::default(),
            thread: None,
            counts,
        }
    }

    /// Queue the fold for the folder thread, under the caller's failpoint
    /// arming. If the thread cannot start, the fold stays here and the
    /// next group tries again.
    fn submit(&mut self) {
        if self.thread.is_none() {
            self.thread = FolderThread::get().ok();
        }
        if let (Some(thread), Some(mut fold)) = (&self.thread, self.fold.take()) {
            fold.rescope();
            thread.submit(fold, Arc::clone(&self.reply));
        }
    }

    /// The fold in flight once it has finished — waited for when `wait`.
    /// `None` when no fold is in flight or (not waiting) it is still
    /// queued or running.
    fn finished(&self, wait: bool) -> Option<FoldDone> {
        if self.fold.is_some() {
            return None;
        }
        let (slot, wake) = &*self.reply;
        let mut done = lock(slot);
        let alive = || self.thread.as_ref().is_some_and(|t| t.alive());
        while wait && done.is_none() && alive() {
            done = wake
                .wait_timeout(done, Duration::from_millis(50))
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        done.take()
    }
}

impl Drop for Folder {
    /// Wait for the ledger's fold in flight, so a dropped ledger leaves a
    /// directory no fold is writing; the last ledger joins the thread.
    fn drop(&mut self) {
        drop(self.finished(true));
    }
}

impl SpendLedger {
    /// Open (or create) the ledger journaled in `dir`, recovering any
    /// prior state for `config.epoch`. The first durable group hands the
    /// folder thread this ledger's first fold, which creates the first
    /// spare segment.
    ///
    /// # Errors
    /// Any [`JournalError`] from recovery (I/O, corruption of a committed
    /// region, epoch regression).
    ///
    /// # Panics
    /// Panics if `config.cap_per_user` is not a positive finite number —
    /// a programming error, not a runtime condition.
    pub fn open(dir: &Path, config: LedgerConfig) -> Result<Self, JournalError> {
        assert!(
            config.cap_per_user > 0.0 && config.cap_per_user.is_finite(),
            "cap_per_user must be positive and finite"
        );
        let (journal, recovered) = Journal::open(dir, config.epoch)?;
        let accounts = recovered
            .spent
            .into_iter()
            .map(|(user, spent)| (user, BudgetLedger::with_spent(config.cap_per_user, spent)))
            .collect();
        Ok(Self {
            config,
            folder: Folder::new(&journal),
            journal,
            accounts,
            last_compaction_fault: None,
        })
    }

    /// Spend `eps` from `user`'s epoch budget, durably: the one-charge
    /// case of [`Self::try_spend_many`]. `Ok` means the spend is journaled
    /// and fsynced — the caller may now serve the request. Any `Err` means
    /// nothing was spent and the request must be refused.
    ///
    /// # Errors
    /// [`SpendError::Exhausted`] when the cap cannot cover the request,
    /// [`SpendError::Journal`] when the spend could not be made durable,
    /// [`SpendError::BadCharge`] on an invalid `eps`.
    pub fn try_spend(&mut self, user: u64, eps: f64) -> Result<(), SpendError> {
        let (mut probes, append) = self.try_spend_many(&[(user, eps)]);
        probes.pop().expect("one probe per charge")?;
        append.map_err(SpendError::Journal)
    }

    /// Spend a group of `(user, eps)` charges with one journal write and
    /// one fsync. Returns each charge's cap-probe verdict, in input order,
    /// and the outcome of the group's one append: the admitted (`Ok`)
    /// charges are spent — durable, serve them — exactly when the append
    /// is `Ok`. A failed append spent nothing; the group is acknowledged
    /// whole or not at all.
    ///
    /// The charges are probed in order, so an earlier admitted charge
    /// counts against a later one by the same user: every refusal,
    /// including [`SpendError::Exhausted`]'s `remaining`, matches what
    /// one-at-a-time [`Self::try_spend`] calls would return.
    pub fn try_spend_many(
        &mut self,
        charges: &[(u64, f64)],
    ) -> (Vec<Result<(), SpendError>>, Result<(), JournalError>) {
        let cap = self.config.cap_per_user;
        // Probe every charge before journaling: a refused charge must not
        // leave a record (it spends nothing). A user's trial account starts
        // from the live one and carries the group's earlier charges.
        let mut trial: BTreeMap<u64, BudgetLedger> = BTreeMap::new();
        let mut admitted = Vec::with_capacity(charges.len());
        let probes: Vec<Result<(), SpendError>> = charges
            .iter()
            .map(|&(user, eps)| {
                let account = trial.entry(user).or_insert_with(|| {
                    self.accounts
                        .entry(user)
                        .or_insert_with(|| BudgetLedger::new(cap))
                        .clone()
                });
                account
                    .try_charge(eps)
                    .map_err(|e| budget_refusal(user, e))?;
                admitted.push((user, eps));
                Ok(())
            })
            .collect();
        if admitted.is_empty() {
            return (probes, Ok(()));
        }
        // Write-ahead: durable records first, in-memory spend second. A
        // crash between the two recovers the spends from the journal —
        // over-counting relative to what was served, never under.
        if let Err(e) = self.journal.append_many(&admitted) {
            return (probes, Err(e));
        }
        // The trial accounts proved the charges fit and already hold them.
        self.accounts.extend(trial);
        self.fold_if_due();
        (probes, Ok(()))
    }

    /// Apply a group of replicated spends from the primary: journal them
    /// durably with one write and one fsync, then fold them into the
    /// in-memory accounts — **without** the cap probe. The primary
    /// already served the requests, so the records must land even if they
    /// push an account past the local cap (recovery tolerates over-cap
    /// state the same way, via `BudgetLedger::with_spent`); dropping one
    /// would let the user re-spend after failover. `Ok` means every
    /// record is durable and may be acked.
    ///
    /// # Errors
    /// [`SpendError::BadCharge`] when any `eps` is invalid (nothing is
    /// journaled), [`SpendError::Journal`] when the group could not be
    /// made durable — the caller must ack none of it.
    pub fn apply_replicated_many(&mut self, records: &[(u64, f64)]) -> Result<(), SpendError> {
        if let Some(&(_, eps)) = records
            .iter()
            .find(|&&(_, eps)| !(eps > 0.0 && eps.is_finite()))
        {
            return Err(SpendError::BadCharge(eps));
        }
        self.journal
            .append_many(records)
            .map_err(SpendError::Journal)?;
        let cap = self.config.cap_per_user;
        for &(user, eps) in records {
            self.accounts
                .entry(user)
                .or_insert_with(|| BudgetLedger::new(cap))
                .force_spend(eps);
        }
        self.fold_if_due();
        Ok(())
    }

    /// Keep folds moving after a durable group, making no file-system
    /// call: collect a finished fold, resubmit a failed one, or — once
    /// the active segment holds `compact_after` records, no fold is in
    /// flight and a spare exists — rotate onto the spare and submit the
    /// fold of the sealed segments. The spends are already durable, so a
    /// fold fault is recorded but fails no request.
    fn fold_if_due(&mut self) {
        if let Some(done) = self.folder.finished(false) {
            self.collect(done);
        }
        let Some(fold) = self.folder.fold.as_mut() else {
            return; // one fold in flight
        };
        if !fold.pending() {
            if self.config.compact_after == 0
                || self.journal.segment_records() < self.config.compact_after
            {
                return;
            }
            let Some((target, sealed)) = self.journal.rotate() else {
                return; // no spare yet
            };
            fold.start(target, sealed, spends(&self.accounts));
        }
        self.folder.submit();
    }

    /// Take back a fold from the folder thread and settle its outcome.
    fn collect(&mut self, (fold, result): FoldDone) {
        self.folder.fold = Some(fold);
        let _ = self.settle(result);
    }

    /// Install the spare a successful fold created, or record its fault.
    fn settle(&mut self, result: Result<File, JournalError>) -> Result<(), JournalError> {
        match result {
            Ok(spare) => {
                self.journal.install_spare(spare);
                Ok(())
            }
            Err(e) => {
                self.last_compaction_fault = Some(e.to_string());
                Err(e)
            }
        }
    }

    /// Block until the in-flight fold, if any, finishes, and collect its
    /// outcome. Folds otherwise complete in the background and are
    /// collected by the next group; this makes a fold's effects (and its
    /// injected faults) observable at a chosen point.
    pub fn await_fold(&mut self) {
        if let Some(done) = self.folder.finished(true) {
            self.collect(done);
        }
    }

    /// Fold the current state into a committed snapshot, synchronously on
    /// the caller's thread, once any in-flight fold has finished: finish
    /// a failed fold first (it leaves the spare), rotate onto the spare,
    /// and run the fold of everything before it — the same code the
    /// folder thread runs. Called by [`Self::close`], shutdown,
    /// promotion and `ShardedLedger::checkpoint_all`; automatic folds
    /// every `compact_after` records run in the background instead.
    ///
    /// # Errors
    /// Any [`JournalError`]; the ledger remains consistent and appendable
    /// whether or not the fold succeeded, and a failed fold is retried.
    pub fn checkpoint(&mut self) -> Result<(), JournalError> {
        self.await_fold();
        let mut fold = self.folder.fold.take().ok_or_else(|| JournalError::Io {
            step: "fold thread",
            source: std::io::Error::other("the folder thread exited holding the fold"),
        })?;
        fold.rescope();
        let result = self.fold_now(&mut fold);
        self.folder.fold = Some(fold);
        result
    }

    /// Finish a failed fold (which creates the spare), then rotate onto
    /// the spare and fold everything before it.
    fn fold_now(&mut self, fold: &mut Fold) -> Result<(), JournalError> {
        if fold.pending() {
            let finished = fold.run();
            self.settle(finished)?;
        }
        let (target, sealed) = self
            .journal
            .rotate()
            .expect("a finished fold leaves a spare segment");
        fold.start(target, sealed, spends(&self.accounts));
        let folded = fold.run();
        self.settle(folded)
    }

    /// Checkpoint and close cleanly. (Dropping without `close` is always
    /// safe — that is the crash path the journal exists for.)
    ///
    /// # Errors
    /// Any [`JournalError`] from the final checkpoint.
    pub fn close(mut self) -> Result<(), JournalError> {
        self.checkpoint()
    }

    /// The ε `user` has spent this epoch (0 for unknown users).
    pub fn spent(&self, user: u64) -> f64 {
        self.accounts.get(&user).map_or(0.0, BudgetLedger::spent)
    }

    /// The ε `user` may still spend this epoch.
    pub fn remaining(&self, user: u64) -> f64 {
        self.accounts
            .get(&user)
            .map_or(self.config.cap_per_user, BudgetLedger::remaining)
    }

    /// Number of users with any recorded spend this epoch.
    pub fn users(&self) -> usize {
        self.accounts.len()
    }

    /// Total ε spent across all users this epoch.
    pub fn total_spent(&self) -> f64 {
        self.accounts.values().map(BudgetLedger::spent).sum()
    }

    /// The ledger's epoch.
    pub fn epoch(&self) -> u64 {
        self.journal.epoch()
    }

    /// Per-user cap.
    pub fn cap_per_user(&self) -> f64 {
        self.config.cap_per_user
    }

    /// The most recent fold fault, if any (the associated spends were
    /// already durable; this is operational telemetry).
    pub fn last_compaction_fault(&self) -> Option<&str> {
        self.last_compaction_fault.as_deref()
    }

    /// Snapshots committed by this ledger's folds, counted as the folds
    /// finish (background or [`Self::checkpoint`]).
    pub fn folds(&self) -> u64 {
        self.folder.counts.folds.load(Ordering::Relaxed)
    }

    /// Fold steps that failed and were left to retry. A failing fold
    /// grows the WAL and slows recovery without refusing any request.
    pub fn fold_faults(&self) -> u64 {
        self.folder.counts.faults.load(Ordering::Relaxed)
    }
}

/// Every account's `(user, spent)`, in user order.
fn spends(accounts: &BTreeMap<u64, BudgetLedger>) -> impl Iterator<Item = (u64, f64)> + '_ {
    accounts.iter().map(|(&user, acct)| (user, acct.spent()))
}

/// The ledger's typed refusal for an account's [`BudgetError`].
fn budget_refusal(user: u64, err: BudgetError) -> SpendError {
    match err {
        BudgetError::Exhausted {
            requested,
            remaining,
        } => SpendError::Exhausted {
            user,
            requested,
            remaining,
        },
        BudgetError::BadCharge(v) => SpendError::BadCharge(v),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geoind_testkit::failpoint::{FailSpec, Session};
    use std::fs;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "geoind-ledger-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn config(cap: f64) -> LedgerConfig {
        LedgerConfig {
            cap_per_user: cap,
            epoch: 0,
            compact_after: 0,
        }
    }

    #[test]
    fn cap_is_enforced_and_refusals_spend_nothing() {
        let dir = temp_dir("cap");
        let mut ledger = SpendLedger::open(&dir, config(1.0)).expect("open");
        assert!(ledger.try_spend(1, 0.4).is_ok());
        assert!(ledger.try_spend(1, 0.4).is_ok());
        let err = ledger.try_spend(1, 0.4).expect_err("over cap");
        assert!(
            matches!(err, SpendError::Exhausted { user: 1, .. }),
            "{err:?}"
        );
        assert!((ledger.spent(1) - 0.8).abs() < 1e-12);
        // A smaller request still fits.
        assert!(ledger.try_spend(1, 0.2).is_ok());
        assert!(matches!(
            ledger.try_spend(1, 0.01),
            Err(SpendError::Exhausted { .. })
        ));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spend_survives_crash_and_exhausted_user_stays_refused() {
        let dir = temp_dir("crash");
        let mut ledger = SpendLedger::open(&dir, config(1.0)).expect("open");
        for _ in 0..4 {
            ledger.try_spend(9, 0.25).expect("spend");
        }
        assert!(matches!(
            ledger.try_spend(9, 0.25),
            Err(SpendError::Exhausted { .. })
        ));
        drop(ledger); // crash: no close()
        let mut recovered = SpendLedger::open(&dir, config(1.0)).expect("reopen");
        assert!((recovered.spent(9) - 1.0).abs() < 1e-12);
        assert!(matches!(
            recovered.try_spend(9, 0.25),
            Err(SpendError::Exhausted { .. })
        ));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn automatic_compaction_preserves_state() {
        let dir = temp_dir("compact");
        let mut cfg = config(10.0);
        cfg.compact_after = 3;
        let mut ledger = SpendLedger::open(&dir, cfg).expect("open");
        for i in 0..10u64 {
            ledger.try_spend(i % 2, 0.5).expect("spend");
        }
        assert!(ledger.last_compaction_fault().is_none());
        drop(ledger);
        let recovered = SpendLedger::open(&dir, cfg).expect("reopen");
        assert!((recovered.spent(0) - 2.5).abs() < 1e-12);
        assert!((recovered.spent(1) - 2.5).abs() < 1e-12);
        assert!((recovered.total_spent() - 5.0).abs() < 1e-12);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn epoch_advance_renews_budgets() {
        let dir = temp_dir("epoch");
        let mut cfg = config(0.5);
        let mut ledger = SpendLedger::open(&dir, cfg).expect("open");
        ledger.try_spend(3, 0.5).expect("spend");
        assert!(matches!(
            ledger.try_spend(3, 0.5),
            Err(SpendError::Exhausted { .. })
        ));
        ledger.close().expect("close");
        cfg.epoch = 1;
        let mut renewed = SpendLedger::open(&dir, cfg).expect("open new epoch");
        assert_eq!(renewed.users(), 0);
        assert!(renewed.try_spend(3, 0.5).is_ok());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_group_is_flushed_once_and_acknowledged_whole() {
        // The flush site passes its first hit and fires on its second.
        // One flush per group: the first 8-record group is acknowledged
        // whole and the second refused whole. (A flush per record would
        // fail the first group's second record instead.)
        let dir = temp_dir("flush-count");
        let mut ledger = SpendLedger::open(&dir, config(100.0)).expect("open");
        let group: Vec<(u64, f64)> = (0..8).map(|i| (i % 3, 0.25)).collect();
        let mut fp = Session::new();
        fp.arm("serve.journal.flush", FailSpec::after(1, 1));
        let (probes, append) = ledger.try_spend_many(&group);
        assert!(probes.iter().all(Result::is_ok), "{probes:?}");
        assert!(append.is_ok(), "{append:?}");
        assert_eq!(ledger.total_spent(), 2.0);
        let (probes, append) = ledger.try_spend_many(&group);
        assert!(probes.iter().all(Result::is_ok), "{probes:?}");
        assert!(
            matches!(append, Err(JournalError::Injected("serve.journal.flush"))),
            "{append:?}"
        );
        assert_eq!(fp.fired("serve.journal.flush"), 1);
        assert_eq!(ledger.total_spent(), 2.0, "a refused group spent");
        drop(fp);
        drop(ledger); // crash: no checkpoint
        let recovered = SpendLedger::open(&dir, config(100.0)).expect("reopen");
        assert_eq!(recovered.total_spent(), 2.0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_charges_are_typed() {
        let dir = temp_dir("badcharge");
        let mut ledger = SpendLedger::open(&dir, config(1.0)).expect("open");
        assert!(matches!(
            ledger.try_spend(1, 0.0),
            Err(SpendError::BadCharge(_))
        ));
        assert!(matches!(
            ledger.try_spend(1, f64::NAN),
            Err(SpendError::BadCharge(_))
        ));
        assert_eq!(ledger.users(), 1); // account exists, nothing spent
        assert_eq!(ledger.spent(1), 0.0);
        fs::remove_dir_all(&dir).ok();
    }
}
