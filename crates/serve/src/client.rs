//! Closed-loop load generator for the wire server (`geoind loadgen`).
//!
//! Each connection thread owns a slice of the request ids and drives
//! them to a **terminal** outcome: retryable refusals (`overloaded`,
//! `draining`, `in_flight`, `shard_unavailable`, `disk_full`), torn
//! responses, resets and timeouts are retried with seeded exponential
//! backoff + jitter under the same idempotency id, so a retry after a
//! torn response replays the journaled outcome instead of spending
//! again. Shard-repair refusals are tallied separately from overload
//! sheds, so the report distinguishes "the queue was full" from "my
//! shard was down".
//!
//! At the end the client fetches `GET /report` and reconciles its own
//! terminal tallies against the server's gate counters **exactly** —
//! every logical request must appear in exactly one terminal bucket on
//! both sides — then polls `GET /healthz` and reports shard
//! availability (ready/total, repair round trips). `geoind loadgen`
//! exits nonzero on any mismatch, which is what lets CI drive the
//! failpoint-armed server and still demand perfect accounting.
//!
//! With a `failover` address configured the client survives primary
//! loss: connect failures, torn exchanges, and `fenced` refusals make
//! one thread win a promotion race (`POST /promote` to the follower)
//! and every thread re-point its load; the final reconciliation then
//! sums gate counters across **both** servers, skipping whichever is
//! unreachable. Retries draw from a global token budget
//! (`retry_budget`) on top of the per-request attempt cap, so a dead
//! primary with no failover fails fast with the typed
//! [`ClientError::RetryBudgetExhausted`] instead of grinding through
//! backoff forever.

use crate::http::{self, Conn};
use crate::json::Json;
use crate::shard::backoff_sleep;
use geoind_rng::SeededRng;
use std::net::{SocketAddr, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Tuning knobs for [`run_load`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Server address, e.g. `127.0.0.1:4770`.
    pub addr: String,
    /// Concurrent connection threads (clamped to at least 1).
    pub connections: usize,
    /// Total logical requests to drive to a terminal outcome.
    pub requests: u64,
    /// Requests cycle over users `0..users` (clamped to at least 1).
    pub users: u64,
    /// Per-attempt socket timeout (connect, read, write).
    pub timeout_ms: u64,
    /// Attempts per logical request before giving up (clamped to ≥ 1).
    pub max_attempts: u32,
    /// Base backoff; attempt `k` waits `base·2^min(k,6)` plus seeded
    /// jitter in `[0, base)`.
    pub backoff_base_ms: u64,
    /// Seed for the per-thread jitter RNGs.
    pub seed: u64,
    /// Post `/shutdown` after a successful reconciliation.
    pub shutdown_after: bool,
    /// Warm-standby follower to fail over to. On primary loss (or a
    /// `fenced` refusal) one thread wins a promotion race, posts
    /// `/promote` here, and every thread re-points its load; the final
    /// reconciliation then sums gate counters across **both** servers,
    /// skipping whichever is unreachable.
    pub failover: Option<String>,
    /// Bearer token sent as `Authorization` on every request when set.
    pub auth_token: Option<String>,
    /// Global retry-token budget shared by all threads (`None` =
    /// unbounded). Each retry attempt consumes one token; once dry,
    /// requests that cannot terminate are abandoned and the run fails
    /// with the typed [`ClientError::RetryBudgetExhausted`] — a dead,
    /// un-promoted primary fails fast instead of grinding through
    /// per-request backoff forever.
    pub retry_budget: Option<u64>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:4770".into(),
            connections: 4,
            requests: 100,
            users: 10,
            timeout_ms: 2_000,
            max_attempts: 12,
            backoff_base_ms: 10,
            seed: 1,
            shutdown_after: false,
            failover: None,
            auth_token: None,
            retry_budget: None,
        }
    }
}

/// Client-side terminal tallies plus throughput/latency, produced by
/// [`run_load`] after a successful reconciliation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoadReport {
    /// Requests that ended `served`.
    pub served: u64,
    /// Requests that ended `budget_exhausted`.
    pub refused_budget: u64,
    /// Requests that ended `expired`.
    pub expired: u64,
    /// Requests that ended `journal_fault`.
    pub journal_faults: u64,
    /// Retry attempts beyond each request's first (all causes).
    pub retries: u64,
    /// `503 overloaded` refusals observed (queue-full sheds).
    pub shed_seen: u64,
    /// Exchanges the client had to abandon mid-flight: timeouts, resets,
    /// torn/unparseable responses.
    pub torn_seen: u64,
    /// Idempotent replays the server reported at the end.
    pub server_retried: u64,
    /// `503 shard_unavailable` refusals observed (the user's shard was
    /// quarantined/scavenging/failed; retried, not terminal).
    pub shard_unavailable_seen: u64,
    /// `503 disk_full` refusals observed (retried, not terminal).
    pub disk_full_seen: u64,
    /// Shards serving (ready or probation) at the final `/healthz` poll.
    pub shards_ready: u64,
    /// Total ledger shards at the final `/healthz` poll.
    pub shards_total: u64,
    /// Quarantine→repair→serving round trips the server completed.
    pub repaired_shards: u64,
    /// Requests abandoned because the global retry-token budget ran
    /// dry (zero on a healthy run; nonzero makes [`run_load`] return
    /// the typed [`ClientError::RetryBudgetExhausted`]).
    pub retry_budget_exhausted: u64,
    /// Whether the run re-pointed its load at the failover address.
    pub failed_over: bool,
    /// Wall-clock for the whole run, seconds, rounded to the ms.
    pub wall_s: f64,
    /// Terminal outcomes per wall-clock second, rounded to 0.1.
    pub req_per_s: f64,
    /// Median latency (first send → terminal outcome), milliseconds,
    /// rounded to the µs.
    pub p50_ms: f64,
    /// 99th-percentile latency, milliseconds, rounded to the µs.
    pub p99_ms: f64,
}

impl LoadReport {
    /// Terminal outcomes the client accounted for.
    pub fn total(&self) -> u64 {
        self.served + self.refused_budget + self.expired + self.journal_faults
    }

    /// Every field, in log-line order: the single list the log line and
    /// the `--json-out` artifact are generated from.
    pub fn counters(&self) -> [(&'static str, Json); 20] {
        let n = |v: u64| Json::Num(v as f64);
        [
            ("total", n(self.total())),
            ("served", n(self.served)),
            ("refused", n(self.refused_budget)),
            ("expired", n(self.expired)),
            ("journal_faults", n(self.journal_faults)),
            ("retries", n(self.retries)),
            ("shed_seen", n(self.shed_seen)),
            ("torn_seen", n(self.torn_seen)),
            ("server_retried", n(self.server_retried)),
            ("wall_s", Json::Num(self.wall_s)),
            ("req_per_s", Json::Num(self.req_per_s)),
            ("p50_ms", Json::Num(self.p50_ms)),
            ("p99_ms", Json::Num(self.p99_ms)),
            ("shard_unavailable_seen", n(self.shard_unavailable_seen)),
            ("disk_full_seen", n(self.disk_full_seen)),
            ("shards_ready", n(self.shards_ready)),
            ("shards_total", n(self.shards_total)),
            ("repaired_shards", n(self.repaired_shards)),
            ("retry_budget_exhausted", n(self.retry_budget_exhausted)),
            ("failed_over", Json::Bool(self.failed_over)),
        ]
    }

    /// Stable single-line form, mirroring the server's log-line
    /// discipline: `loadgen`, then `key=value` for each entry of
    /// [`Self::counters`].
    pub fn log_line(&self) -> String {
        let fields: String = self
            .counters()
            .iter()
            .map(|(name, value)| format!(" {name}={}", value.render()))
            .collect();
        format!("loadgen{fields}")
    }

    /// The benchmark artifact `geoind loadgen --json-out` writes: one
    /// JSON object line, `label` and `requests` first, then
    /// [`Self::counters`].
    pub fn json_artifact(&self, label: &str, requests: u64) -> String {
        let head = [
            ("label", Json::Str(label.into())),
            ("requests", Json::Num(requests as f64)),
        ];
        let fields = head
            .into_iter()
            .chain(self.counters())
            .map(|(name, value)| (name.to_string(), value))
            .collect();
        format!("{}\n", Json::Obj(fields).render())
    }

    /// Fold one connection thread's client-side tallies into the run's.
    fn absorb(&mut self, other: &LoadReport) {
        self.served += other.served;
        self.refused_budget += other.refused_budget;
        self.expired += other.expired;
        self.journal_faults += other.journal_faults;
        self.retries += other.retries;
        self.shed_seen += other.shed_seen;
        self.torn_seen += other.torn_seen;
        self.shard_unavailable_seen += other.shard_unavailable_seen;
        self.disk_full_seen += other.disk_full_seen;
        self.retry_budget_exhausted += other.retry_budget_exhausted;
    }
}

/// `v` rounded to the nearest `1/scale` (`scale` a power of ten), so
/// every rendering prints the same short value.
fn rounded(v: f64, scale: f64) -> f64 {
    (v * scale).round() / scale
}

/// Why a load run failed. Any of these makes `geoind loadgen` exit
/// nonzero.
#[derive(Debug)]
pub enum ClientError {
    /// Could not resolve or reach the server at all.
    Io(String),
    /// The server answered something the protocol does not allow.
    Protocol(String),
    /// A logical request exhausted its retry budget.
    RetriesExhausted {
        /// The request id that gave up.
        id: u64,
        /// Attempts made.
        attempts: u32,
    },
    /// The global retry-token budget ran dry: requests that could not
    /// terminate were abandoned — the fast, typed verdict for a dead
    /// primary with no promoted failover.
    RetryBudgetExhausted {
        /// Logical requests abandoned without a terminal outcome.
        abandoned: u64,
        /// The partial client-side tallies for the post-mortem.
        report: Box<LoadReport>,
    },
    /// The client's terminal tallies do not match the server's gate
    /// counters.
    Mismatch {
        /// What disagreed.
        detail: String,
        /// The client-side tallies for the post-mortem.
        report: Box<LoadReport>,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(detail) => write!(f, "i/o: {detail}"),
            ClientError::Protocol(detail) => write!(f, "protocol violation: {detail}"),
            ClientError::RetriesExhausted { id, attempts } => {
                write!(f, "request {id} gave up after {attempts} attempts")
            }
            ClientError::RetryBudgetExhausted { abandoned, .. } => {
                write!(
                    f,
                    "retry budget exhausted: {abandoned} requests abandoned without a terminal outcome"
                )
            }
            ClientError::Mismatch { detail, .. } => {
                write!(f, "reconciliation failed: {detail}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

/// State every connection thread shares: which endpoint is live and
/// the global retry-token pool.
struct SharedRun {
    /// `[primary]` or `[primary, failover]`.
    targets: Vec<SocketAddr>,
    /// Index into `targets` the load is currently pointed at.
    active: std::sync::atomic::AtomicUsize,
    /// Promotion race: 0 = nobody promoting, 1 = in flight, 2 = done.
    /// One thread wins the CAS and posts `/promote`; losers keep
    /// retrying and pick up the new `active` index.
    promote_state: std::sync::atomic::AtomicUsize,
    /// Remaining retry tokens (`u64::MAX` = unbounded).
    retry_tokens: std::sync::atomic::AtomicU64,
}

impl SharedRun {
    fn new(targets: Vec<SocketAddr>, retry_budget: Option<u64>) -> Self {
        Self {
            targets,
            active: std::sync::atomic::AtomicUsize::new(0),
            promote_state: std::sync::atomic::AtomicUsize::new(0),
            retry_tokens: std::sync::atomic::AtomicU64::new(retry_budget.unwrap_or(u64::MAX)),
        }
    }

    fn active_addr(&self) -> SocketAddr {
        use std::sync::atomic::Ordering;
        self.targets[self
            .active
            .load(Ordering::SeqCst)
            .min(self.targets.len() - 1)]
    }

    fn failed_over(&self) -> bool {
        self.active.load(std::sync::atomic::Ordering::SeqCst) > 0
    }

    /// Take one retry token; false when the pool is dry.
    fn take_retry_token(&self) -> bool {
        use std::sync::atomic::Ordering;
        self.retry_tokens
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                if n == u64::MAX {
                    Some(n) // unbounded: never decrements
                } else {
                    n.checked_sub(1)
                }
            })
            .is_ok()
    }

    /// The active endpoint looks dead (connect refused, timeout) or
    /// answered `fenced`: fail over if a failover target exists. One
    /// thread wins the right to post `/promote`; the rest re-point as
    /// soon as `active` flips. `already_promoted` skips the promotion
    /// (a `fenced` refusal proves someone else promoted the follower).
    fn note_primary_trouble(&self, config: &ClientConfig, already_promoted: bool) {
        use std::sync::atomic::Ordering;
        if self.targets.len() < 2 || self.active.load(Ordering::SeqCst) != 0 {
            return;
        }
        if already_promoted {
            self.promote_state.store(2, Ordering::SeqCst);
            self.active.store(1, Ordering::SeqCst);
            return;
        }
        if self
            .promote_state
            .compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return;
        }
        let follower = self.targets[1];
        if promote_follower(follower, config) {
            self.promote_state.store(2, Ordering::SeqCst);
            self.active.store(1, Ordering::SeqCst);
        } else {
            // Promotion did not land (follower slow to boot, transient
            // fault): release the race so a later retry re-attempts.
            self.promote_state.store(0, Ordering::SeqCst);
        }
    }
}

/// Post `/promote` to the follower; true on an acknowledged promotion.
fn promote_follower(addr: SocketAddr, config: &ClientConfig) -> bool {
    let Ok(mut conn) = Conn::open(addr, config.timeout_ms) else {
        return false;
    };
    matches!(
        conn.exchange(&render(config, "POST", "/promote", "{}")),
        Ok((200, _))
    )
}

/// Render one request of this run: a JSON body, with the run's bearer
/// token when one is configured.
fn render(config: &ClientConfig, method: &str, path: &str, body: &str) -> Vec<u8> {
    http::request(
        method,
        path,
        "application/json",
        config.auth_token.as_deref(),
        body.as_bytes(),
    )
}

/// Drive `config.requests` logical requests to terminal outcomes over
/// `config.connections` threads, then reconcile against the server's
/// own counters.
///
/// # Errors
/// [`ClientError::Mismatch`] when any gate counter disagrees with the
/// client tally; the other variants for connectivity, protocol, or
/// retry-budget failures.
pub fn run_load(config: &ClientConfig) -> Result<LoadReport, ClientError> {
    let mut targets = vec![resolve(&config.addr)?];
    if let Some(failover) = config.failover.as_deref() {
        targets.push(resolve(failover)?);
    }
    let shared = SharedRun::new(targets, config.retry_budget);
    let connections = config.connections.max(1);
    let users = config.users.max(1);
    let started = Instant::now();
    let results: Vec<Result<(LoadReport, Vec<f64>), ClientError>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..connections)
            .map(|t| {
                let config = config.clone();
                let shared = &shared;
                s.spawn(move || connection_thread(t, connections, users, shared, &config))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(ClientError::Io("client thread panicked".into())))
            })
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();

    let mut report = LoadReport::default();
    let mut latencies = Vec::new();
    for result in results {
        let (tally, mut lat) = result?;
        report.absorb(&tally);
        latencies.append(&mut lat);
    }
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let percentile = |q: f64| -> f64 {
        if latencies.is_empty() {
            return 0.0;
        }
        let idx = ((latencies.len() as f64 - 1.0) * q).round() as usize;
        rounded(latencies[idx.min(latencies.len() - 1)], 1_000.0)
    };
    report.failed_over = shared.failed_over();
    report.wall_s = rounded(wall_s, 1_000.0);
    // req_per_s counts all terminal outcomes, not just serves.
    if wall_s > 0.0 {
        report.req_per_s = rounded(report.total() as f64 / wall_s, 10.0);
    }
    report.p50_ms = percentile(0.50);
    report.p99_ms = percentile(0.99);

    if report.retry_budget_exhausted > 0 {
        // Abandoned requests never reached a terminal outcome, so no
        // reconciliation can balance: fail fast with the typed verdict.
        return Err(ClientError::RetryBudgetExhausted {
            abandoned: report.retry_budget_exhausted,
            report: Box::new(report),
        });
    }

    reconcile(&shared.targets, config, &mut report)?;
    poll_health(shared.active_addr(), config, &mut report)?;

    if config.shutdown_after {
        // Drain every endpoint still alive; a dead (killed) primary is
        // skipped, but at least one server must acknowledge.
        let mut acknowledged = false;
        let mut last = String::new();
        for &addr in &shared.targets {
            match control_exchange(addr, config, "POST", "/shutdown", "{}") {
                Ok((200, _)) => acknowledged = true,
                Ok((status, _)) => {
                    return Err(ClientError::Protocol(format!("shutdown answered {status}")));
                }
                Err(e) => last = e.to_string(),
            }
        }
        if !acknowledged {
            return Err(ClientError::Io(format!(
                "no endpoint took /shutdown: {last}"
            )));
        }
    }
    Ok(report)
}

/// Control-plane exchange with its own retry loop: an armed
/// `serve.net.*` failpoint may drop or tear the `/report` or
/// `/shutdown` connection too, and a server at its connection cap
/// refuses it like any other; the run must not fail on either.
fn control_exchange(
    addr: SocketAddr,
    config: &ClientConfig,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, String), ClientError> {
    let request = render(config, method, path, body);
    let mut last = String::new();
    for attempt in 0..8u64 {
        if attempt > 0 {
            std::thread::sleep(Duration::from_millis(50 * attempt));
        }
        let answer = Conn::open(addr, config.timeout_ms)
            .map_err(|e| format!("connect {addr}: {e}"))
            .and_then(|mut conn| conn.exchange(&request).map_err(|e| e.to_string()));
        match answer {
            Ok((503, body)) if body.contains("too_many_connections") => last = body,
            Ok(answer) => return Ok(answer),
            Err(e) => last = e,
        }
    }
    Err(ClientError::Io(format!("{method} {path} failed: {last}")))
}

/// Fetch `GET /report` from every endpoint the run touched — after a
/// failover that is **both** servers — and demand exact agreement
/// between the client's terminal tallies and the *sum* of the gate
/// counters (each logical request terminates on exactly one server).
/// An unreachable endpoint (the killed primary) is skipped; at least
/// one must answer. Wire-only telemetry (`shed_net`, `torn`) is
/// deliberately not matched: a stalled handler may count a tear
/// *after* this snapshot, and those exchanges never reached the gate.
///
/// When the run failed over **and** an endpoint died with its counters,
/// exact equality is unobtainable — the dead primary's tallies are
/// gone. What stays provable from the survivors is still checked hard:
/// every serve the client saw either terminated on a reachable server
/// or, by the ack-before-serve replication contract, was durably
/// applied on the follower before the primary answered. So reachable
/// serves bound the client's count from below and serves plus
/// `replica_applied` bound it from above, and every reachable refusal
/// counter must be covered by the client's tally.
fn reconcile(
    targets: &[SocketAddr],
    config: &ClientConfig,
    report: &mut LoadReport,
) -> Result<(), ClientError> {
    let mut sums: [u64; 5] = [0; 5];
    let mut replica_applied = 0u64;
    let mut reachable = 0usize;
    let mut unreachable = 0usize;
    let mut last_err = String::new();
    for &addr in targets {
        let (status, body) = match control_exchange(addr, config, "GET", "/report", "") {
            Ok(answer) => answer,
            Err(e) => {
                last_err = e.to_string();
                unreachable += 1;
                continue;
            }
        };
        if status != 200 {
            return Err(ClientError::Protocol(format!("/report answered {status}")));
        }
        let parsed = Json::parse(&body)
            .map_err(|e| ClientError::Protocol(format!("unparseable /report body: {e}")))?;
        let field = |name: &str| -> Result<u64, ClientError> {
            parsed
                .get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| ClientError::Protocol(format!("/report missing {name}")))
        };
        sums[0] += field("served")?;
        sums[1] += field("refused_budget")?;
        sums[2] += field("expired")?;
        sums[3] += field("journal_faults")?;
        sums[4] += field("retried")?;
        replica_applied += field("replica_applied")?;
        reachable += 1;
    }
    if reachable == 0 {
        return Err(ClientError::Io(format!(
            "no endpoint answered /report: {last_err}"
        )));
    }
    report.server_retried = sums[4];
    if report.failed_over && unreachable > 0 {
        let mut mismatches = Vec::new();
        if sums[0] > report.served || report.served > sums[0] + replica_applied {
            mismatches.push(format!(
                "served: client={} outside [{}, {}]",
                report.served,
                sums[0],
                sums[0] + replica_applied
            ));
        }
        for (name, server, client) in [
            ("refused_budget", sums[1], report.refused_budget),
            ("expired", sums[2], report.expired),
            ("journal_faults", sums[3], report.journal_faults),
        ] {
            if server > client {
                mismatches.push(format!("{name}: server={server} > client={client}"));
            }
        }
        if !mismatches.is_empty() {
            return Err(ClientError::Mismatch {
                detail: mismatches.join(", "),
                report: Box::new(report.clone()),
            });
        }
        return Ok(());
    }
    let pairs = [
        ("served", sums[0], report.served),
        ("refused_budget", sums[1], report.refused_budget),
        ("expired", sums[2], report.expired),
        ("journal_faults", sums[3], report.journal_faults),
    ];
    let mut mismatches = Vec::new();
    for (name, server, client) in pairs {
        if server != client {
            mismatches.push(format!("{name}: server={server} client={client}"));
        }
    }
    if !mismatches.is_empty() {
        return Err(ClientError::Mismatch {
            detail: mismatches.join(", "),
            report: Box::new(report.clone()),
        });
    }
    Ok(())
}

/// Poll `GET /healthz` once after reconciliation and fold shard
/// availability into the report. A `503` here is *degraded*, not an
/// error: the body still carries the per-state counts.
fn poll_health(
    addr: SocketAddr,
    config: &ClientConfig,
    report: &mut LoadReport,
) -> Result<(), ClientError> {
    let (status, body) = control_exchange(addr, config, "GET", "/healthz", "")?;
    if status != 200 && status != 503 {
        return Err(ClientError::Protocol(format!("/healthz answered {status}")));
    }
    let parsed = Json::parse(&body)
        .map_err(|e| ClientError::Protocol(format!("unparseable /healthz body: {e}")))?;
    let field = |name: &str| -> Result<u64, ClientError> {
        parsed
            .get(name)
            .and_then(Json::as_u64)
            .ok_or_else(|| ClientError::Protocol(format!("/healthz missing {name}")))
    };
    report.shards_total = field("shards")?;
    report.shards_ready = field("ready")? + field("probation")?;
    report.repaired_shards = field("repaired_shards")?;
    Ok(())
}

fn connection_thread(
    thread_index: usize,
    connections: usize,
    users: u64,
    shared: &SharedRun,
    config: &ClientConfig,
) -> Result<(LoadReport, Vec<f64>), ClientError> {
    let mut rng = SeededRng::from_seed(config.seed.wrapping_add(thread_index as u64));
    let mut tally = LoadReport::default();
    let mut latencies = Vec::new();
    let mut stream: Option<Conn> = None;
    let max_attempts = config.max_attempts.max(1);
    'requests: for id in (thread_index as u64..config.requests).step_by(connections) {
        let user = id % users;
        // The point is deterministic in the id so reruns are comparable.
        let x = (id % 7) as f64 * 0.9 - 3.0;
        let y = (id % 5) as f64 * 1.1 - 2.0;
        let body = format!(r#"{{"user":{user},"id":{id},"x":{x},"y":{y}}}"#);
        let request = render(config, "POST", "/protect", &body);
        let first_send = Instant::now();
        let mut attempt = 0u32;
        loop {
            if attempt >= max_attempts {
                return Err(ClientError::RetriesExhausted {
                    id,
                    attempts: attempt,
                });
            }
            if attempt > 0 {
                if !shared.take_retry_token() {
                    // The global pool is dry: abandon this request (it
                    // has no terminal outcome) and move on — the run
                    // fails with the typed verdict once threads join.
                    tally.retry_budget_exhausted += 1;
                    continue 'requests;
                }
                tally.retries += 1;
                backoff_sleep(&mut rng, config.backoff_base_ms, attempt);
            }
            attempt += 1;
            let addr = shared.active_addr();
            let mut conn = match stream.take() {
                Some(conn) => conn,
                None => match Conn::open(addr, config.timeout_ms) {
                    Ok(conn) => conn,
                    Err(_) => {
                        // Server mid-restart, accept-dropped, or dead:
                        // a configured failover gets promoted here.
                        shared.note_primary_trouble(config, false);
                        continue;
                    }
                },
            };
            match conn.exchange(&request) {
                Err(_) => {
                    // Timeout, reset, torn response: abandon the
                    // connection and retry the same id — the server's
                    // idempotency table makes this at-most-once.
                    tally.torn_seen += 1;
                    shared.note_primary_trouble(config, false);
                    continue;
                }
                Ok((status, response_body)) => {
                    let outcome = Json::parse(&response_body)
                        .ok()
                        .and_then(|v| v.get("status").and_then(Json::as_str).map(String::from));
                    let Some(outcome) = outcome else {
                        tally.torn_seen += 1;
                        continue;
                    };
                    match (status, outcome.as_str()) {
                        (200, "served") => {
                            tally.served += 1;
                        }
                        (200, "budget_exhausted") => {
                            tally.refused_budget += 1;
                        }
                        (200, "expired") => {
                            tally.expired += 1;
                        }
                        (200, "journal_fault") => {
                            tally.journal_faults += 1;
                        }
                        (503, "overloaded") => {
                            tally.shed_seen += 1;
                            stream = Some(conn);
                            continue;
                        }
                        (503, "shard_unavailable") => {
                            // The user's shard is down for repair: retry
                            // (the idempotency key was released server-side)
                            // and tally separately from overload sheds.
                            tally.shard_unavailable_seen += 1;
                            stream = Some(conn);
                            continue;
                        }
                        (503, "disk_full") => {
                            tally.disk_full_seen += 1;
                            stream = Some(conn);
                            continue;
                        }
                        (503, "replica_lag") => {
                            // The primary is ahead of its follower's
                            // acks: backpressure, same family as a
                            // queue-full shed. Retry on the same
                            // connection once the follower catches up.
                            tally.shed_seen += 1;
                            stream = Some(conn);
                            continue;
                        }
                        (503, "fenced") => {
                            // A promoted follower fenced this server:
                            // drop the connection and re-point — the
                            // promotion already happened elsewhere.
                            shared.note_primary_trouble(config, true);
                            continue;
                        }
                        (503, "standby") => {
                            // An un-promoted follower: win the
                            // promotion race (or wait for the winner)
                            // and retry against whoever is active.
                            shared.note_primary_trouble(config, false);
                            continue;
                        }
                        (503, "draining" | "in_flight") => {
                            stream = Some(conn);
                            continue;
                        }
                        (503, "too_many_connections") => {
                            // The server closes a connection right after
                            // refusing it at the accept cap: drop it and
                            // reconnect on the retry. Reusing it would
                            // tear the retry and fail over away from a
                            // healthy primary.
                            continue;
                        }
                        (s, o) => {
                            return Err(ClientError::Protocol(format!(
                                "request {id}: unexpected {s} {o:?}"
                            )));
                        }
                    }
                    latencies.push(first_send.elapsed().as_secs_f64() * 1_000.0);
                    stream = Some(conn);
                    break;
                }
            }
        }
    }
    Ok((tally, latencies))
}

fn resolve(addr: &str) -> Result<SocketAddr, ClientError> {
    addr.to_socket_addrs()
        .map_err(|e| ClientError::Io(format!("cannot resolve {addr}: {e}")))?
        .next()
        .ok_or_else(|| ClientError::Io(format!("{addr} resolves to nothing")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_report_log_line_format_is_pinned() {
        let report = LoadReport {
            served: 10,
            refused_budget: 2,
            expired: 1,
            journal_faults: 1,
            retries: 3,
            shed_seen: 2,
            torn_seen: 1,
            server_retried: 1,
            shard_unavailable_seen: 4,
            disk_full_seen: 2,
            shards_ready: 3,
            shards_total: 4,
            repaired_shards: 1,
            retry_budget_exhausted: 7,
            failed_over: true,
            wall_s: 0.5,
            req_per_s: 28.0,
            p50_ms: 1.25,
            p99_ms: 9.5,
        };
        assert_eq!(
            report.log_line(),
            "loadgen total=14 served=10 refused=2 expired=1 journal_faults=1 retries=3 shed_seen=2 torn_seen=1 server_retried=1 wall_s=0.5 req_per_s=28 p50_ms=1.25 p99_ms=9.5 shard_unavailable_seen=4 disk_full_seen=2 shards_ready=3 shards_total=4 repaired_shards=1 retry_budget_exhausted=7 failed_over=true"
        );
    }

    #[test]
    fn backoff_is_bounded_and_jittered() {
        // Attempt 60 must not overflow the shift.
        let mut rng = SeededRng::from_seed(9);
        let start = Instant::now();
        backoff_sleep(&mut rng, 1, 60);
        assert!(start.elapsed() < Duration::from_millis(500));
    }
}
