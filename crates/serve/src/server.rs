//! Multi-threaded serving front-end: bounded admission queue, per-request
//! deadlines, budget-gated sampling through the degradation ladder.
//!
//! The request path is strictly ordered to keep every outcome
//! privacy-safe:
//!
//! 1. **Admission** — requests arrive in groups ([`Server::submit_group`];
//!    [`Server::submit`] is a group of one). A group takes the longest
//!    prefix that fits in the queue's free room and each request after
//!    it is shed (`SubmitError::QueueFull`); nothing downstream runs for
//!    a shed request.
//! 2. **Deadline** — a worker checks the request's deadline *before any
//!    sampling*. An expired request is counted and answered
//!    [`Response::Expired`] with the user's budget untouched.
//! 3. **Budget** — the spend is journaled durably. A worker drains whole
//!    groups, never splitting one, and charges its drained batch's live
//!    requests as one
//!    [`ShardedLedger::try_spend_many`] group: one WAL write and one
//!    fsync per shard the batch touches, acknowledged whole or not at
//!    all. A refusal ([`Response::BudgetExhausted`] or
//!    [`Response::JournalFault`]) means no noise is ever sampled: a
//!    request is never served at reduced privacy or without a durable
//!    spend record.
//! 4. **Sampling** — only now does the request reach
//!    [`ResilientMechanism::report_with_tier`], which itself degrades
//!    GeoInd-safely under faults.
//!
//! Shutdown is a graceful drain: admission closes, workers finish the
//! queued backlog, and the ledger is checkpointed.

use crate::ledger::SpendError;
use crate::shard::ShardedLedger;
use geoind_core::{ResilientMechanism, Tier};
use geoind_rng::SeededRng;
use geoind_spatial::geom::Point;
use geoind_testkit::clock::Clock;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

/// Tuning knobs for [`Server`].
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Worker threads draining the queue (clamped to at least 1).
    pub workers: usize,
    /// Bounded queue depth; submissions beyond it are shed.
    pub queue_capacity: usize,
    /// Base seed for the per-worker RNGs (worker `i` uses `seed + i`).
    pub seed: u64,
    /// How many queued requests a worker drains per queue-lock
    /// acquisition (clamped to at least 1). A worker drains whole
    /// admission groups: it takes the first whole, however long (a
    /// protect array arrives as one group), and adds each next group
    /// only while it then holds at most `batch` requests. The batch is
    /// gated first (deadline, budget — neither consumes randomness) and
    /// the admitted points are sampled through one
    /// [`ResilientMechanism::report_many`] call, so any batch size
    /// produces the same bits as serving the jobs one at a time. The
    /// batch is also the fsync group: its live spends are journaled with
    /// one WAL write and one fsync per ledger shard it touches.
    pub batch: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_capacity: 64,
            seed: 0,
            batch: 1,
        }
    }
}

/// A location-report request.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    /// Identity the spend is accounted against.
    pub user: u64,
    /// True location to perturb.
    pub point: Point,
    /// Absolute deadline in [`Clock`] nanos; `None` means no deadline.
    pub deadline_nanos: Option<u64>,
}

/// Terminal outcome of a request, delivered on the channel returned by
/// [`Server::submit`] or [`Server::submit_group`].
#[derive(Debug, Clone)]
pub enum Response {
    /// The sanitized location and the ladder tier that produced it.
    Served {
        /// Perturbed location.
        point: Point,
        /// Which tier of the degradation ladder served it.
        tier: Tier,
    },
    /// The user's epoch budget cannot cover the request.
    BudgetExhausted {
        /// ε the user still has this epoch.
        remaining: f64,
    },
    /// The deadline passed before sampling; the budget is untouched.
    Expired,
    /// The spend could not be made durable; fail-closed refusal.
    JournalFault(String),
    /// The shard owning the user's account is quarantined, scavenging,
    /// or failed; fail-closed refusal, retryable once repair completes.
    /// The budget is untouched.
    ShardUnavailable {
        /// The unavailable shard's index.
        shard: u64,
    },
    /// The journal device is out of space; fail-closed refusal,
    /// retryable. The budget is untouched.
    DiskFull,
    /// The warm standby has not acked this spend within the replication
    /// lag bound (or no follower is registered); fail-closed refusal,
    /// retryable. The spend may be journaled locally but was not
    /// served — over-counted at worst, never under.
    ReplicaLag {
        /// Locally journaled records the follower has not acked.
        lag: u64,
    },
    /// This node was superseded by a promoted follower and refuses all
    /// spends under its stale generation. Not retryable here — clients
    /// should fail over to the promoted follower.
    Fenced,
}

/// Why a submission was not accepted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is full; the request was shed at admission.
    QueueFull,
    /// The server is draining or stopped.
    Closed,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "admission queue full; request shed"),
            SubmitError::Closed => write!(f, "server is not accepting requests"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// The counts this server keeps itself: the gate outcomes, plus the
/// wire layer's socket and retry-table counts (which stay 0 for an
/// in-process [`Server`]). Served counts per tier live in the ladder.
#[derive(Debug, Default)]
pub(crate) struct ServeCounters {
    refused_budget: AtomicU64,
    expired: AtomicU64,
    shed: AtomicU64,
    journal_faults: AtomicU64,
    refused_shard: AtomicU64,
    disk_full: AtomicU64,
    replica_lag: AtomicU64,
    fenced: AtomicU64,
    drained: AtomicU64,
    pub(crate) shed_net: AtomicU64,
    pub(crate) torn: AtomicU64,
    pub(crate) retried: AtomicU64,
    pub(crate) idem_evicted: AtomicU64,
    pub(crate) unauthorized: AtomicU64,
}

impl ServeCounters {
    /// Snapshot, folding in the ladder's per-tier and
    /// channel-certification counters and the sharded ledger's repair
    /// and fold accounting so one report line carries the whole serving
    /// story. [`Server::start`] takes the ladder by value, so nothing
    /// else serves through it: its tier counts are exactly this server's
    /// serves.
    fn snapshot(
        &self,
        ladder: &geoind_core::DegradationReport,
        ledger: &ShardedLedger,
    ) -> ServeReport {
        ServeReport {
            served_by_tier: ladder.served_by_tier,
            refused_budget: self.refused_budget.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            journal_faults: self.journal_faults.load(Ordering::Relaxed),
            refused_shard: self.refused_shard.load(Ordering::Relaxed),
            disk_full: self.disk_full.load(Ordering::Relaxed),
            replica_lag: self.replica_lag.load(Ordering::Relaxed),
            fenced: self.fenced.load(Ordering::Relaxed),
            shed_net: self.shed_net.load(Ordering::Relaxed),
            torn: self.torn.load(Ordering::Relaxed),
            retried: self.retried.load(Ordering::Relaxed),
            idem_evicted: self.idem_evicted.load(Ordering::Relaxed),
            unauthorized: self.unauthorized.load(Ordering::Relaxed),
            // The follower's applier owns these; the wire layer folds
            // them in.
            replica_applied: 0,
            replica_deduped: 0,
            drained: self.drained.load(Ordering::Relaxed),
            repaired: ladder.served_repaired,
            quarantined: ladder.quarantined,
            dedup: ladder.dedup_suppressed,
            sampled_flat: ladder.sampled_flat,
            repaired_shards: ledger.repaired_shards(),
            scavenged: ledger.scavenged_records(),
            abandoned: ledger.abandoned_repairs(),
            unaccounted_shards: ledger.unaccounted_shards(),
            folds: ledger.folds(),
            fold_faults: ledger.fold_faults(),
            group_commits: ledger.group_commits(),
        }
    }
}

/// Point-in-time outcome counts for a [`Server`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeReport {
    /// Requests served, indexed by [`Tier::index`].
    pub served_by_tier: [u64; 2],
    /// Requests refused because the user's budget was exhausted.
    pub refused_budget: u64,
    /// Requests whose deadline expired before sampling.
    pub expired: u64,
    /// Requests shed at admission (queue full).
    pub shed: u64,
    /// Requests refused because the spend could not be journaled.
    pub journal_faults: u64,
    /// Requests refused because the shard owning the user's account is
    /// quarantined, scavenging, or failed (retryable once repaired).
    pub refused_shard: u64,
    /// Requests refused because the journal device is out of space
    /// (retryable; the budget is never charged).
    pub disk_full: u64,
    /// Requests refused because the warm standby had not acked within
    /// the replication lag bound, or no follower was registered
    /// (retryable; the spend may be journaled locally — over-counted
    /// at worst).
    pub replica_lag: u64,
    /// On a primary: requests refused because a promoted follower
    /// superseded this node. On a follower: stale-generation
    /// replication batches refused (folded in by the wire layer).
    pub fenced: u64,
    /// Idempotency-table entries evicted by the per-user cap or the TTL
    /// sweep (telemetry, not an outcome — excluded from
    /// [`Self::total`]; always 0 for an in-process [`Server`]).
    pub idem_evicted: u64,
    /// Wire exchanges refused `401 unauthorized` (bad or missing bearer
    /// token; they never became logical requests). Always 0 for an
    /// in-process [`Server`].
    pub unauthorized: u64,
    /// Connections shed at the wire layer before reaching the admission
    /// queue (accept-cap refusals, dropped accepts, malformed frames).
    /// Always 0 for an in-process [`Server`]; filled by the wire layer.
    pub shed_net: u64,
    /// Wire exchanges cut mid-frame: a request that arrived torn (no
    /// budget burned) or a response whose write was cut after the spend
    /// was journaled (retryable — the idempotency table replays the
    /// outcome). Always 0 for an in-process [`Server`].
    pub torn: u64,
    /// Idempotent replays served from the wire layer's retry table
    /// (telemetry, not an outcome — excluded from [`Self::total`];
    /// always 0 for an in-process [`Server`]).
    pub retried: u64,
    /// On a follower: replicated spend records durably applied
    /// (excluded from [`Self::total`]; 0 on a primary).
    pub replica_applied: u64,
    /// On a follower: retransmitted replication records skipped by
    /// sequence dedup (excluded from [`Self::total`]; 0 on a primary).
    pub replica_deduped: u64,
    /// Requests that were still queued when shutdown began and were
    /// gated/served during the graceful drain (a subset of the terminal
    /// outcomes above — excluded from [`Self::total`]).
    pub drained: u64,
    /// Tier-0 serves that used at least one gate-repaired channel (a
    /// subset of `served_by_tier[0]`, not an extra outcome — excluded
    /// from [`Self::total`]).
    pub repaired: u64,
    /// Requests whose optimal descent was refused by a channel quarantine
    /// and served by a lower tier (a subset of the degraded serves —
    /// excluded from [`Self::total`]).
    pub quarantined: u64,
    /// Duplicate channel fills suppressed by the mechanism cache's
    /// single-flight discipline (concurrent misses of one node coalesced
    /// into a single LP solve — excluded from [`Self::total`]).
    pub dedup: u64,
    /// Tier-0 serves answered by the fused flattened-tree walk built at
    /// admission (a subset of `served_by_tier[0]` — excluded from
    /// [`Self::total`]).
    pub sampled_flat: u64,
    /// Ledger shards that completed a quarantine→repair→serving round
    /// trip (repair accounting, not an outcome — excluded from
    /// [`Self::total`]).
    pub repaired_shards: u64,
    /// Journal records (snapshot accounts + WAL records) salvaged by
    /// completed repairs (excluded from [`Self::total`]).
    pub scavenged: u64,
    /// Repair attempts that ended with the shard still refused
    /// (excluded from [`Self::total`]).
    pub abandoned: u64,
    /// Shards whose accounts are missing from the fleet-wide spend sums
    /// right now (quarantined/scavenging/failed — excluded from
    /// [`Self::total`]).
    pub unaccounted_shards: u64,
    /// Snapshot folds committed across shards, background and checkpoint
    /// alike (excluded from [`Self::total`]).
    pub folds: u64,
    /// Background folds that failed; spends are still served, but the
    /// shard's WAL grows until a fold succeeds (excluded from
    /// [`Self::total`]).
    pub fold_faults: u64,
    /// Durable group appends on the request path: one WAL write and one
    /// `fdatasync` each ([`ShardedLedger::group_commits`]). `served()`
    /// over this is the mean group size per `fdatasync` (excluded from
    /// [`Self::total`]).
    pub group_commits: u64,
}

impl ServeReport {
    /// Requests served at any tier.
    pub fn served(&self) -> u64 {
        self.served_by_tier.iter().sum()
    }

    /// Every request that reached the server, whatever its outcome,
    /// plus wire-level exchanges that never became logical requests
    /// (`shed_net`, `torn`).
    pub fn total(&self) -> u64 {
        self.served()
            + self.refused_budget
            + self.expired
            + self.shed
            + self.journal_faults
            + self.refused_shard
            + self.disk_full
            + self.replica_lag
            + self.fenced
            + self.shed_net
            + self.torn
            + self.unauthorized
    }

    /// Every count, in log-line order: the single list each rendering
    /// of this report (the log line, `GET /report`) is generated from.
    /// Tests pin the order; a name is removed only together with the
    /// thing it counts.
    pub fn counters(&self) -> [(&'static str, u64); 31] {
        [
            ("total", self.total()),
            ("served", self.served()),
            ("optimal", self.served_by_tier[0]),
            ("per_level", self.served_by_tier[1]),
            ("refused_budget", self.refused_budget),
            ("expired", self.expired),
            ("shed", self.shed),
            ("journal_faults", self.journal_faults),
            ("repaired", self.repaired),
            ("quarantined", self.quarantined),
            ("dedup", self.dedup),
            ("sampled_flat", self.sampled_flat),
            ("shed_net", self.shed_net),
            ("torn", self.torn),
            ("drained", self.drained),
            ("refused_shard", self.refused_shard),
            ("disk_full", self.disk_full),
            ("repaired_shards", self.repaired_shards),
            ("scavenged", self.scavenged),
            ("abandoned", self.abandoned),
            ("unaccounted_shards", self.unaccounted_shards),
            ("replica_lag", self.replica_lag),
            ("fenced", self.fenced),
            ("idem_evicted", self.idem_evicted),
            ("unauthorized", self.unauthorized),
            ("retried", self.retried),
            ("replica_applied", self.replica_applied),
            ("replica_deduped", self.replica_deduped),
            ("folds", self.folds),
            ("fold_faults", self.fold_faults),
            ("group_commits", self.group_commits),
        ]
    }

    /// Stable single-line form for machine-scraped logs: `serve`, then
    /// `key=value` for each entry of [`Self::counters`]. The format is
    /// pinned by tests.
    pub fn log_line(&self) -> String {
        let fields: String = self
            .counters()
            .iter()
            .map(|(name, value)| format!(" {name}={value}"))
            .collect();
        format!("serve{fields}")
    }
}

struct Job {
    request: Request,
    reply: mpsc::Sender<Response>,
}

struct QueueState {
    /// Admitted groups, oldest first; a worker never splits one.
    groups: VecDeque<Vec<Job>>,
    /// Requests across `groups`: what `queue_capacity` bounds.
    queued: usize,
    accepting: bool,
}

struct Shared {
    queue: Mutex<QueueState>,
    queue_capacity: usize,
    not_empty: Condvar,
    mechanism: ResilientMechanism,
    // Internally sharded and internally locked: concurrent spends on
    // different shards proceed in parallel, including their fsyncs.
    ledger: ShardedLedger,
    eps_per_request: f64,
    clock: Arc<dyn Clock>,
    counters: ServeCounters,
}

/// The serving front-end. See the module docs for the request path.
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("workers", &self.workers.len())
            .field("report", &self.report())
            .finish()
    }
}

impl Server {
    /// Start the worker pool. Each request spends the mechanism's full ε
    /// (`mechanism.msm().epsilon()`) from the submitting user's budget.
    pub fn start(
        mechanism: ResilientMechanism,
        ledger: ShardedLedger,
        clock: Arc<dyn Clock>,
        config: ServeConfig,
    ) -> Self {
        let eps_per_request = mechanism.msm().epsilon();
        // Flatten the admitted channels into the fused serving tree up
        // front (this also warms the channel cache). A failed build — a
        // per-node solve fault, or a hierarchy too tall to fuse — is
        // tolerated: workers then serve through the per-level cache path,
        // which produces the same bits at a higher per-request cost. Say
        // so once, so an operator can see why serving is slower.
        if let Err(e) = mechanism.flatten() {
            eprintln!("warning: serving unfused (per-level channel path): {e}");
        }
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState {
                groups: VecDeque::new(),
                queued: 0,
                accepting: true,
            }),
            queue_capacity: config.queue_capacity.max(1),
            not_empty: Condvar::new(),
            mechanism,
            ledger,
            eps_per_request,
            clock,
            counters: ServeCounters::default(),
        });
        let batch = config.batch.max(1);
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                let seed = config.seed.wrapping_add(i as u64);
                std::thread::spawn(move || worker_loop(&shared, seed, batch))
            })
            .collect();
        Self { shared, workers }
    }

    /// Submit a request: the one-request case of [`Self::submit_group`].
    /// On `Ok` the outcome arrives on the returned channel; on
    /// [`SubmitError::QueueFull`] the request was shed (and counted).
    ///
    /// # Errors
    /// [`SubmitError::QueueFull`] when the bounded queue is at capacity,
    /// [`SubmitError::Closed`] once shutdown has begun.
    pub fn submit(&self, request: Request) -> Result<mpsc::Receiver<Response>, SubmitError> {
        self.submit_group(&[request])
            .pop()
            .expect("one submit result per request")
    }

    /// Submit `requests` as one admission group, returning one result
    /// per request in order. The group takes the longest prefix that
    /// fits in the queue's free room (`queue_capacity` counts requests);
    /// each request after it is shed [`SubmitError::QueueFull`] and
    /// counted. One worker drains the admitted prefix whole, so its live
    /// spends are charged by one [`ShardedLedger::try_spend_many`] — one
    /// WAL write and one `fdatasync` per shard it touches — and its
    /// points sampled by one [`ResilientMechanism::report_many`], in
    /// order. Once shutdown has begun every request is refused
    /// [`SubmitError::Closed`].
    pub fn submit_group(
        &self,
        requests: &[Request],
    ) -> Vec<Result<mpsc::Receiver<Response>, SubmitError>> {
        let mut queue = self
            .shared
            .queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if !queue.accepting {
            return requests.iter().map(|_| Err(SubmitError::Closed)).collect();
        }
        let room = self.shared.queue_capacity.saturating_sub(queue.queued);
        let (admitted, shed) = requests.split_at(requests.len().min(room));
        let (jobs, mut results): (Vec<Job>, Vec<_>) = admitted
            .iter()
            .map(|&request| {
                let (tx, rx) = mpsc::channel();
                (Job { request, reply: tx }, Ok(rx))
            })
            .unzip();
        if !jobs.is_empty() {
            queue.queued += jobs.len();
            queue.groups.push_back(jobs);
            drop(queue);
            self.shared.not_empty.notify_one();
        } else {
            drop(queue);
        }
        if !shed.is_empty() {
            self.shared
                .counters
                .shed
                .fetch_add(shed.len() as u64, Ordering::Relaxed);
            results.extend(shed.iter().map(|_| Err(SubmitError::QueueFull)));
        }
        results
    }

    /// Counters so far.
    pub fn report(&self) -> ServeReport {
        self.shared.counters.snapshot(
            &self.shared.mechanism.degradation_report(),
            &self.shared.ledger,
        )
    }

    /// The counters the wire layer adds its socket and retry-table
    /// counts to.
    pub(crate) fn counters(&self) -> &ServeCounters {
        &self.shared.counters
    }

    /// Total ε spent across all users this epoch (healthy shards).
    pub fn ledger_total_spent(&self) -> f64 {
        self.shared.ledger.total_spent()
    }

    /// Ledger shards that failed recovery and are refusing their users
    /// fail-closed (empty when every shard is healthy).
    pub fn failed_shards(&self) -> Vec<(usize, String)> {
        self.shared.ledger.failed_shards()
    }

    /// The sharded ledger behind this server — health, repair triggers,
    /// and counters for the wire layer's `/healthz` and `/repair`.
    pub fn ledger(&self) -> &ShardedLedger {
        &self.shared.ledger
    }

    /// Stop accepting requests, drain the backlog, checkpoint the ledger,
    /// and return the final accounting. (A checkpoint failure is reported,
    /// not fatal: every served spend is already durable in the WAL.)
    pub fn shutdown(mut self) -> ShutdownOutcome {
        {
            let mut queue = self
                .shared
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            queue.accepting = false;
        }
        self.shared.not_empty.notify_all();
        for handle in self.workers.drain(..) {
            // A panicked worker must not hide the remaining drain.
            let _ = handle.join();
        }
        // Settle in-flight shard repairs before the final checkpoint so
        // the report reflects resolved slots, not a mid-scavenge state.
        self.shared.ledger.await_repairs();
        let checkpoint = self.shared.ledger.checkpoint_all();
        let degradation = self.shared.mechanism.degradation_report();
        ShutdownOutcome {
            report: self
                .shared
                .counters
                .snapshot(&degradation, &self.shared.ledger),
            degradation,
            checkpoint,
        }
    }
}

/// What a graceful [`Server::shutdown`] drain left behind.
#[derive(Debug)]
pub struct ShutdownOutcome {
    /// Final per-outcome counters (post-drain).
    pub report: ServeReport,
    /// The degradation ladder's per-tier accounting (post-drain).
    pub degradation: geoind_core::DegradationReport,
    /// Outcome of the final ledger checkpoint.
    pub checkpoint: Result<(), crate::journal::JournalError>,
}

fn worker_loop(shared: &Shared, seed: u64, batch: usize) {
    let mut rng = SeededRng::from_seed(seed);
    loop {
        let jobs: Vec<Job> = {
            let mut queue = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(mut jobs) = queue.groups.pop_front() {
                    // Whole groups only: the first however long, then
                    // more while the batch stays within `batch`.
                    while let Some(next) = queue
                        .groups
                        .pop_front_if(|next| jobs.len() + next.len() <= batch)
                    {
                        jobs.extend(next);
                    }
                    queue.queued -= jobs.len();
                    if !queue.accepting {
                        // Popped after shutdown began: these are the
                        // graceful drain, counted so the final report can
                        // attest the backlog was served, not dropped.
                        shared
                            .counters
                            .drained
                            .fetch_add(jobs.len() as u64, Ordering::Relaxed);
                    }
                    break jobs;
                }
                if !queue.accepting {
                    return;
                }
                queue = shared
                    .not_empty
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        handle_batch(shared, jobs, &mut rng);
    }
}

/// The deadline gate: `Some(Expired)` refuses a request whose deadline
/// has passed, before it can consume budget or sample noise.
fn deadline_gate(shared: &Shared, request: &Request) -> Option<Response> {
    let deadline = request.deadline_nanos?;
    if shared.clock.now_nanos() <= deadline {
        return None;
    }
    shared.counters.expired.fetch_add(1, Ordering::Relaxed);
    Some(Response::Expired)
}

/// The budget gate's verdict for one charge: `Some` is a terminal
/// refusal (counted), `None` admits the request to sampling.
fn budget_gate(shared: &Shared, spent: Result<(), SpendError>) -> Option<Response> {
    match spent {
        Ok(()) => None,
        Err(SpendError::Exhausted { remaining, .. }) => {
            shared
                .counters
                .refused_budget
                .fetch_add(1, Ordering::Relaxed);
            Some(Response::BudgetExhausted { remaining })
        }
        Err(SpendError::ShardUnavailable { shard, .. }) => {
            // Fail-closed like a journal fault, but typed and retryable:
            // the shard may be mid-repair, and its users should retry,
            // not give up.
            shared
                .counters
                .refused_shard
                .fetch_add(1, Ordering::Relaxed);
            Some(Response::ShardUnavailable { shard })
        }
        Err(SpendError::Journal(crate::journal::JournalError::DiskFull { .. })) => {
            // Full disk: the spend was never journaled, so nothing was
            // charged; the caller may retry once space frees up.
            shared.counters.disk_full.fetch_add(1, Ordering::Relaxed);
            Some(Response::DiskFull)
        }
        Err(SpendError::ReplicaLag { lag }) => {
            // The standby is behind (or absent): fail-closed, retryable.
            // The spend may be journaled locally but is NOT served —
            // over-counted at worst, never under.
            shared.counters.replica_lag.fetch_add(1, Ordering::Relaxed);
            Some(Response::ReplicaLag { lag })
        }
        Err(SpendError::Fenced) => {
            // Superseded by a promoted follower: refuse everything so
            // the split brain cannot double-spend.
            shared.counters.fenced.fetch_add(1, Ordering::Relaxed);
            Some(Response::Fenced)
        }
        Err(
            err
            @ (SpendError::Journal(_) | SpendError::BadCharge(_) | SpendError::Misrouted { .. }),
        ) => {
            // Any other journal fault is fail-closed: no durable spend
            // record, so no serve. (`Misrouted` only arises when applying
            // a replicated batch; the serving path routes every charge.)
            shared
                .counters
                .journal_faults
                .fetch_add(1, Ordering::Relaxed);
            Some(Response::JournalFault(err.to_string()))
        }
    }
}

/// Serve a drained batch: gate every job's deadline in pop order, charge
/// the live jobs as one [`ShardedLedger::try_spend_many`] group (one WAL
/// write and one fsync per shard the batch touches), then sample all
/// admitted points through one [`ResilientMechanism::report_many`] call
/// (one fused-tree resolution for the whole batch). Neither gate consumes
/// randomness, and the group charge answers each job as one-at-a-time
/// charges would, so any batch size produces the same outcomes and bits
/// as serving the jobs one at a time.
fn handle_batch(shared: &Shared, jobs: Vec<Job>, rng: &mut SeededRng) {
    let mut gated: Vec<(Job, Option<Response>)> = jobs
        .into_iter()
        .map(|job| {
            let outcome = deadline_gate(shared, &job.request);
            (job, outcome)
        })
        .collect();
    let charges: Vec<(u64, f64)> = gated
        .iter()
        .filter(|(_, outcome)| outcome.is_none())
        .map(|(job, _)| (job.request.user, shared.eps_per_request))
        .collect();
    let mut spent = shared.ledger.try_spend_many(&charges).into_iter();
    for (_, outcome) in gated.iter_mut().filter(|(_, outcome)| outcome.is_none()) {
        *outcome = budget_gate(shared, spent.next().expect("one result per live job"));
    }
    let points: Vec<Point> = gated
        .iter()
        .filter(|(_, outcome)| outcome.is_none())
        .map(|(job, _)| job.request.point)
        .collect();
    let mut served = shared.mechanism.report_many(&points, rng).into_iter();
    for (job, outcome) in gated {
        let response = outcome.unwrap_or_else(|| {
            let (point, tier) = served.next().expect("one sample per admitted request");
            Response::Served { point, tier }
        });
        // The submitter may have dropped the receiver; the outcome is
        // still counted (the ladder counts every serve).
        let _ = job.reply.send(response);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::LedgerConfig;
    use geoind_core::alloc::AllocationStrategy;
    use geoind_core::msm::MsmMechanism;
    use geoind_data::prior::GridPrior;
    use geoind_spatial::geom::BBox;
    use geoind_testkit::clock::ManualClock;
    use std::fs;
    use std::path::PathBuf;
    use std::time::Duration;

    const EPS: f64 = 0.8;

    fn mechanism() -> ResilientMechanism {
        let domain = BBox::square(8.0);
        let prior = GridPrior::uniform(domain, 8);
        ResilientMechanism::from_builder(
            MsmMechanism::builder(domain, prior)
                .epsilon(EPS)
                .granularity(2)
                .strategy(AllocationStrategy::FixedHeight(2)),
        )
        .expect("build mechanism")
    }

    fn temp_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::AtomicU64;
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "geoind-server-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn ledger(dir: &std::path::Path, cap: f64) -> ShardedLedger {
        ShardedLedger::open(
            dir,
            LedgerConfig {
                cap_per_user: cap,
                epoch: 0,
                compact_after: 0,
            },
            1,
        )
    }

    fn request(user: u64) -> Request {
        Request {
            user,
            point: Point::new(1.0, 1.0),
            deadline_nanos: None,
        }
    }

    #[test]
    fn serves_within_budget_then_refuses_typed() {
        let dir = temp_dir("budget");
        // Cap fits exactly two requests at ε = EPS each.
        let server = Server::start(
            mechanism(),
            ledger(&dir, 2.0 * EPS),
            Arc::new(ManualClock::new(0)),
            ServeConfig {
                workers: 2,
                queue_capacity: 16,
                seed: 42,
                batch: 1,
            },
        );
        let receivers: Vec<_> = (0..3)
            .map(|_| server.submit(request(7)).expect("submit"))
            .collect();
        let mut served = 0;
        let mut refused = 0;
        for rx in receivers {
            match rx.recv().expect("response") {
                Response::Served { .. } => served += 1,
                Response::BudgetExhausted { remaining } => {
                    assert!(remaining < EPS);
                    refused += 1;
                }
                other => panic!("unexpected response {other:?}"),
            }
        }
        assert_eq!((served, refused), (2, 1));
        let outcome = server.shutdown();
        outcome.checkpoint.expect("checkpoint");
        let report = outcome.report;
        assert_eq!(report.served(), 2);
        assert_eq!(report.refused_budget, 1);
        assert_eq!(report.total(), 3);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn expired_requests_spend_nothing() {
        let dir = temp_dir("deadline");
        let clock = Arc::new(ManualClock::new(1_000));
        let server = Server::start(
            mechanism(),
            ledger(&dir, 10.0),
            clock,
            ServeConfig {
                workers: 1,
                queue_capacity: 16,
                seed: 1,
                batch: 1,
            },
        );
        let rx = server
            .submit(Request {
                deadline_nanos: Some(999), // already past
                ..request(1)
            })
            .expect("submit");
        assert!(matches!(rx.recv().expect("response"), Response::Expired));
        let rx = server
            .submit(Request {
                deadline_nanos: Some(2_000), // still live
                ..request(1)
            })
            .expect("submit");
        assert!(matches!(
            rx.recv().expect("response"),
            Response::Served { .. }
        ));
        assert!((server.ledger_total_spent() - EPS).abs() < 1e-12);
        let outcome = server.shutdown();
        outcome.checkpoint.expect("checkpoint");
        let report = outcome.report;
        assert_eq!(report.expired, 1);
        assert_eq!(report.served(), 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn full_queue_sheds_and_counts() {
        let dir = temp_dir("shed");
        let server = Server::start(
            mechanism(),
            ledger(&dir, 100.0),
            Arc::new(ManualClock::new(0)),
            ServeConfig {
                workers: 1,
                queue_capacity: 1,
                seed: 3,
                batch: 1,
            },
        );
        // Stall the single worker by holding the shard lock of user 1, so
        // queued jobs cannot drain while we overfill the queue.
        let guard = server.shared.ledger.lock_shard(1);
        let rx_a = server.submit(request(1)).expect("admit A");
        // Wait until the worker has popped A and is blocked on the ledger,
        // leaving the queue empty again.
        for _ in 0..500 {
            if server
                .shared
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .groups
                .is_empty()
            {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let rx_b = server.submit(request(2)).expect("admit B fills the queue");
        let shed = server.submit(request(3));
        assert_eq!(shed.expect_err("C must shed"), SubmitError::QueueFull);
        drop(guard);
        assert!(matches!(rx_a.recv().expect("A"), Response::Served { .. }));
        assert!(matches!(rx_b.recv().expect("B"), Response::Served { .. }));
        let outcome = server.shutdown();
        outcome.checkpoint.expect("checkpoint");
        let report = outcome.report;
        assert_eq!(report.shed, 1);
        assert_eq!(report.served(), 2);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_group_longer_than_the_free_room_admits_its_prefix() {
        let dir = temp_dir("group-prefix");
        let server = Server::start(
            mechanism(),
            ledger(&dir, 100.0),
            Arc::new(ManualClock::new(0)),
            ServeConfig {
                workers: 1,
                queue_capacity: 4,
                seed: 3,
                batch: 1,
            },
        );
        // Stall the single worker on the ledger with A in hand, so the
        // queue's free room is exactly what the submits below leave.
        let guard = server.shared.ledger.lock_shard(1);
        let rx_a = server.submit(request(1)).expect("admit A");
        while server
            .shared
            .queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .queued
            > 0
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        let rx_b = server.submit(request(2)).expect("admit B");
        // Three of four slots are free: the group's first three are
        // admitted, its last two shed in order.
        let group: Vec<Request> = (10..15).map(request).collect();
        let mut results = server.submit_group(&group);
        let shed = results.split_off(3);
        assert!(shed
            .iter()
            .all(|r| matches!(r, Err(SubmitError::QueueFull))));
        // A full queue admits nothing of the next group.
        let refused = server.submit_group(&[request(20), request(21)]);
        assert!(refused
            .iter()
            .all(|r| matches!(r, Err(SubmitError::QueueFull))));
        drop(guard);
        let admitted = results.into_iter().map(|r| r.expect("admitted prefix"));
        for rx in [rx_a, rx_b].into_iter().chain(admitted) {
            assert!(matches!(
                rx.recv().expect("response"),
                Response::Served { .. }
            ));
        }
        let outcome = server.shutdown();
        outcome.checkpoint.expect("checkpoint");
        assert_eq!(outcome.report.shed, 4);
        assert_eq!(outcome.report.served(), 5);
        assert_eq!(outcome.report.total(), 9);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shutdown_drains_backlog_and_checkpoints() {
        let dir = temp_dir("drain");
        let server = Server::start(
            mechanism(),
            ledger(&dir, 1000.0),
            Arc::new(ManualClock::new(0)),
            ServeConfig {
                workers: 3,
                queue_capacity: 64,
                seed: 9,
                batch: 1,
            },
        );
        let receivers: Vec<_> = (0..40)
            .map(|i| server.submit(request(i % 5)).expect("submit"))
            .collect();
        let outcome = server.shutdown();
        outcome.checkpoint.expect("checkpoint");
        let report = outcome.report;
        // Graceful drain: every accepted request got a terminal response.
        for rx in receivers {
            assert!(matches!(
                rx.recv().expect("drained"),
                Response::Served { .. }
            ));
        }
        assert_eq!(report.served(), 40);
        assert_eq!(report.total(), 40);
        // The ladder saw exactly the served requests, none degraded.
        assert_eq!(outcome.degradation.total(), 40);
        assert_eq!(outcome.degradation.degraded(), 0);
        // Ledger state survives the checkpoint.
        let reopened = ledger(&dir, 1000.0);
        assert!((reopened.total_spent() - 40.0 * EPS).abs() < 1e-9);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batched_draining_is_bit_identical_to_single_request_serving() {
        // One worker, same seed: whatever batch size the worker drains
        // with, the gates consume no randomness, the group charge answers
        // each job as one-at-a-time charges would, and report_many walks
        // the admitted points in pop order — so the served/refused
        // pattern, the served points' bits and the spend must all match.
        // Every third request is user 9, whose cap binds at its fifth
        // request (index 14). The worker drains request 0 alone, then
        // the rest in full batches, so index 14 sits inside a group
        // charge for every batch size above 1. The same holds when the
        // rest arrive through `submit_group`: as one group longer than
        // the batch (drained whole) or in groups of 3 (combined while
        // they fit the batch).
        let serve = |batch: usize, group: usize| -> (Vec<Option<Point>>, u64) {
            let dir = temp_dir(&format!("batch-bits-{batch}-{group}"));
            let server = Server::start(
                mechanism(),
                ledger(&dir, 4.5 * EPS),
                Arc::new(ManualClock::new(0)),
                ServeConfig {
                    workers: 1,
                    queue_capacity: 64,
                    seed: 77,
                    batch,
                },
            );
            let request = |i: u64| Request {
                user: if i % 3 == 2 { 9 } else { i % 5 },
                point: Point::new((i % 8) as f64 + 0.3, (i % 7) as f64 + 0.6),
                deadline_nanos: None,
            };
            let submit = |i: u64| server.submit(request(i)).expect("submit");
            // Stall the worker on the ledger with request 0 in hand, queue
            // the rest behind it, then let it drain.
            let guard = server.shared.ledger.lock_shard(9);
            let mut receivers = vec![submit(0)];
            while !server
                .shared
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .groups
                .is_empty()
            {
                std::thread::sleep(Duration::from_millis(1));
            }
            if group == 1 {
                receivers.extend((1..30).map(submit));
            } else {
                let rest: Vec<Request> = (1..30).map(request).collect();
                for chunk in rest.chunks(group) {
                    let admitted = server.submit_group(chunk).into_iter();
                    receivers.extend(admitted.map(|rx| rx.expect("submit")));
                }
            }
            drop(guard);
            let outcomes = receivers
                .into_iter()
                .map(|rx| match rx.recv().expect("response") {
                    Response::Served { point, tier } => {
                        assert_eq!(tier, Tier::Optimal);
                        Some(point)
                    }
                    Response::BudgetExhausted { .. } => None,
                    other => panic!("unexpected response {other:?}"),
                })
                .collect();
            let spent = server.ledger_total_spent().to_bits();
            server.shutdown().checkpoint.expect("checkpoint");
            fs::remove_dir_all(&dir).ok();
            (outcomes, spent)
        };
        let (single, single_spent) = serve(1, 1);
        assert_eq!(single.iter().filter(|o| o.is_none()).count(), 6);
        for (batch, group) in [(2, 1), (8, 1), (64, 1), (4, 29), (8, 3)] {
            let (batched, batched_spent) = serve(batch, group);
            assert_eq!(single.len(), batched.len());
            for (a, b) in single.iter().zip(&batched) {
                match (a, b) {
                    (Some(a), Some(b)) => {
                        assert_eq!(a.x.to_bits(), b.x.to_bits(), "batch={batch} group={group}");
                        assert_eq!(a.y.to_bits(), b.y.to_bits(), "batch={batch} group={group}");
                    }
                    (None, None) => {}
                    _ => panic!("batch={batch} group={group}: served/refused pattern differs"),
                }
            }
            assert_eq!(single_spent, batched_spent, "batch={batch} group={group}");
        }
    }

    #[test]
    fn batched_counters_account_for_mixed_outcomes() {
        // A batch that mixes served, budget-refused, and expired requests
        // must account for every element exactly once, and every tier-0
        // serve must have come from the fused flattened walk installed at
        // Server::start.
        let dir = temp_dir("batch-mixed");
        // Cap fits exactly three requests per user at EPS each.
        let server = Server::start(
            mechanism(),
            ledger(&dir, 3.0 * EPS),
            Arc::new(ManualClock::new(1_000)),
            ServeConfig {
                workers: 1,
                queue_capacity: 64,
                seed: 5,
                batch: 16,
            },
        );
        let mut receivers = Vec::new();
        for i in 0..5u64 {
            receivers.push(
                server
                    .submit(Request {
                        user: 1,
                        point: Point::new((i % 8) as f64, 2.0),
                        // Every third request is already expired.
                        deadline_nanos: if i % 3 == 2 { Some(999) } else { None },
                    })
                    .expect("submit"),
            );
        }
        let mut served = 0;
        let mut refused = 0;
        let mut expired = 0;
        for rx in receivers {
            match rx.recv().expect("response") {
                Response::Served { .. } => served += 1,
                Response::BudgetExhausted { .. } => refused += 1,
                Response::Expired => expired += 1,
                other => panic!("unexpected response {other:?}"),
            }
        }
        assert_eq!((served, refused, expired), (3, 1, 1));
        let outcome = server.shutdown();
        outcome.checkpoint.expect("checkpoint");
        let report = outcome.report;
        assert_eq!(report.served_by_tier, [3, 0]);
        assert_eq!(report.refused_budget, 1);
        assert_eq!(report.expired, 1);
        assert_eq!(report.total(), 5);
        assert_eq!(
            report.sampled_flat, 3,
            "every tier-0 serve must use the fused walk"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_report_log_line_format_is_pinned() {
        let report = ServeReport {
            served_by_tier: [40, 2],
            refused_budget: 5,
            expired: 3,
            shed: 2,
            journal_faults: 1,
            refused_shard: 7,
            disk_full: 2,
            replica_lag: 2,
            fenced: 1,
            idem_evicted: 5,
            unauthorized: 3,
            shed_net: 2,
            torn: 1,
            retried: 4,
            replica_applied: 8,
            replica_deduped: 2,
            drained: 3,
            repaired: 4,
            quarantined: 1,
            dedup: 6,
            sampled_flat: 40,
            repaired_shards: 1,
            scavenged: 9,
            abandoned: 1,
            unaccounted_shards: 1,
            folds: 12,
            fold_faults: 2,
            group_commits: 11,
        };
        assert_eq!(
            report.log_line(),
            "serve total=71 served=42 optimal=40 per_level=2 refused_budget=5 expired=3 shed=2 journal_faults=1 repaired=4 quarantined=1 dedup=6 sampled_flat=40 shed_net=2 torn=1 drained=3 refused_shard=7 disk_full=2 repaired_shards=1 scavenged=9 abandoned=1 unaccounted_shards=1 replica_lag=2 fenced=1 idem_evicted=5 unauthorized=3 retried=4 replica_applied=8 replica_deduped=2 folds=12 fold_faults=2 group_commits=11"
        );
    }

    #[test]
    fn drain_counter_attests_the_backlog_popped_after_shutdown() {
        // One stalled worker, a backlog, then shutdown: every job still
        // queued when admission closed must be counted as drained (and
        // still served).
        let dir = temp_dir("drain-count");
        let server = Server::start(
            mechanism(),
            ledger(&dir, 1000.0),
            Arc::new(ManualClock::new(0)),
            ServeConfig {
                workers: 1,
                queue_capacity: 64,
                seed: 11,
                batch: 4,
            },
        );
        // A holder thread pins the shard lock of user 1 (stalling the
        // worker), and releases it only after shutdown has closed
        // admission — so most of the backlog is popped during the drain.
        use std::sync::atomic::AtomicBool;
        let shared = Arc::clone(&server.shared);
        let locked = AtomicBool::new(false);
        let release = AtomicBool::new(false);
        let outcome = std::thread::scope(|s| {
            let holder = s.spawn(|| {
                let guard = shared.ledger.lock_shard(1);
                locked.store(true, Ordering::SeqCst);
                while !release.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                drop(guard);
            });
            while !locked.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
            let receivers: Vec<_> = (0..9)
                .map(|_| server.submit(request(1)).expect("submit"))
                .collect();
            let releaser = s.spawn(|| {
                std::thread::sleep(Duration::from_millis(50));
                release.store(true, Ordering::SeqCst);
            });
            let outcome = server.shutdown();
            holder.join().expect("holder thread");
            releaser.join().expect("releaser thread");
            (outcome, receivers)
        });
        let (outcome, receivers) = outcome;
        outcome.checkpoint.expect("checkpoint");
        for rx in receivers {
            assert!(matches!(
                rx.recv().expect("drained"),
                Response::Served { .. }
            ));
        }
        assert_eq!(outcome.report.served(), 9);
        // The first batch (up to 4 jobs) may have been popped before
        // admission closed; everything popped after must be attested.
        assert!(
            outcome.report.drained >= 5,
            "drained={} of 9 backlogged jobs",
            outcome.report.drained
        );
    }
}
