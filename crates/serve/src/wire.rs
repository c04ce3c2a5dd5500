//! Networked front door: a std-only HTTP/1.1 listener over the
//! admission-controlled [`Server`].
//!
//! ## Wire format
//!
//! Eight endpoints. Every body is JSON except `/replicate`'s binary
//! batch; the framing itself lives in [`crate::http`].
//!
//! * `POST /protect` — one request object
//!   `{"user":7,"id":3,"x":1.0,"y":2.0}` or an array of them. An array
//!   is one admission group ([`Server::submit_group`]): its elements are
//!   checked first, and the live ones are admitted by prefix (those
//!   beyond the queue's free room answer `overloaded`) and never split,
//!   so one worker charges them with one group commit — one `fdatasync`
//!   per ledger shard — and samples them with one
//!   [`geoind_core::ResilientMechanism::report_many`], answered in order.
//!   Terminal outcomes answer `200` with a `status` field
//!   (`served`, `budget_exhausted`, `expired`, `journal_fault`);
//!   retryable refusals answer `503` (`overloaded`, `draining`,
//!   `in_flight`, `shard_unavailable`, `disk_full`). `id` is the
//!   client's idempotency key, scoped per user: retrying `(user, id)`
//!   after a torn response replays the already-journaled outcome
//!   instead of spending again. A `shard_unavailable`/`disk_full`
//!   refusal releases the key — the retry re-attempts against the
//!   (possibly repaired) shard rather than replaying the refusal.
//! * `GET /report` — every entry of [`ServeReport::counters`], then
//!   the state that is not a count (`standby`, `fence_gen`,
//!   `failed_shards`), then the pinned [`ServeReport::log_line`];
//!   control traffic, not counted.
//! * `GET /healthz` — readiness: `200` while every ledger shard serves
//!   (ready or probation), `503` with per-state counts and repair
//!   progress while any shard is quarantined, scavenging, or failed.
//! * `POST /repair` — spawn repair tasks for every quarantined/failed
//!   shard (a no-op under `RepairMode::Off`); answers how many started.
//! * `POST /replicate` — binary replication batch from the primary's
//!   [`crate::replica::Shipper`]; applied by the [`crate::replica::Applier`]
//!   and answered with a durable-seq ack or a fenced/shape nack.
//! * `POST /promote` — fenced failover: bump and persist the fence
//!   generation, checkpoint, and start serving (`SIGUSR1` does the
//!   same out-of-band).
//! * `POST /follow` — a follower registering `{"addr":...}` as this
//!   primary's replication peer.
//! * `POST /shutdown` — requests a graceful drain; the process that
//!   owns the [`WireServer`] observes
//!   [`WireServer::shutdown_requested`] and calls
//!   [`WireServer::shutdown`]. The same drain runs when the process
//!   catches `SIGTERM`/`SIGINT`: the owner polls that flag too (see
//!   [`crate::signal`]).
//!
//! ## Overload and abuse
//!
//! Every refusal is explicit and counted, never a hang: connections
//! beyond the accept cap get a best-effort `503` and `shed_net`;
//! malformed or oversized frames get `400`/`413` and `shed_net`; a
//! frame cut mid-read burns **no budget** and counts `torn`; a
//! response cut after the spend was journaled counts `torn` and is
//! replayed verbatim on retry (at-most-once server-side). Socket
//! faults are injectable at the `serve.net.*` failpoint sites for
//! deterministic abuse testing.
//!
//! With [`WireConfig::auth_token`] set, every endpoint but `/healthz`
//! requires `Authorization: Bearer <token>` (compared in constant
//! time); failures answer `401` and count `unauthorized`. The retry
//! table is bounded per user ([`WireConfig::idem_max_per_user`]) and
//! by TTL ([`WireConfig::idem_ttl_ms`]); evictions count
//! `idem_evicted`.
//!
//! ## Drain ordering
//!
//! Every wait here ends on its own event, not on a timer. The listener
//! blocks in `accept`; [`WireServer::shutdown`] stops accepting by
//! waking it with one connection to the listener's own address, which
//! the loop drops before counting anything. It then shuts the read half
//! of every open connection, so an idle handler ends at once while one
//! mid-exchange still writes its response, and joins the handlers. Only
//! then does it drain the admission queue and flush the journals via
//! [`Server::shutdown`], and snapshot the final [`ServeReport`] — so
//! the report reconciles exactly with what clients observed.

use crate::http;
use crate::json::Json;
use crate::replica::Applier;
use crate::server::{Request, Response, ServeConfig, ServeReport, Server, SubmitError};
use crate::shard::ShardedLedger;
use geoind_core::ResilientMechanism;
use geoind_testkit::clock::Clock;
use geoind_testkit::failpoint;
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{
    IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Mutex, PoisonError, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

/// Tuning knobs for [`WireServer`].
#[derive(Debug, Clone)]
pub struct WireConfig {
    /// The inner worker pool's configuration.
    pub serve: ServeConfig,
    /// Concurrent connections beyond this are refused with a counted
    /// `503` at accept time (clamped to at least 1).
    pub max_connections: usize,
    /// Per-connection socket read deadline. A frame stalled mid-read
    /// longer than this counts `torn`, and an idle connection is checked
    /// against [`Self::idle_timeout_ms`] this often. Shutdown does not
    /// wait it out: it shuts the read half of every connection.
    pub read_timeout_ms: u64,
    /// Per-connection socket write deadline.
    pub write_timeout_ms: u64,
    /// Request bodies beyond this answer `413` and close (bounds parse
    /// memory per connection).
    pub max_body_bytes: usize,
    /// Keep-alive idle cap: a pipelined connection with no frame in
    /// progress for this long is reaped. Responses are written before
    /// the next read begins, so reaping never drops an in-flight
    /// response. The default (5000 ms) sits three orders of magnitude
    /// above the measured steady-state p99 request latency
    /// (`BENCH_serve.json`: ~2.4 ms), so only genuinely abandoned
    /// connections are reaped.
    pub idle_timeout_ms: u64,
    /// When set, every protect request gets an absolute deadline this
    /// many milliseconds from its dispatch ([`Clock`] time), enforced by
    /// the worker's deadline gate.
    pub deadline_ms: Option<u64>,
    /// Start as a warm standby: `/protect` answers `503 standby` until
    /// a promotion (`POST /promote` or `SIGUSR1`) clears the flag;
    /// `/replicate` applies the primary's shipped records meanwhile.
    pub standby: bool,
    /// When set, every endpoint except `GET /healthz` requires
    /// `Authorization: Bearer <token>` (constant-time compare);
    /// failures answer `401` and count `unauthorized`.
    pub auth_token: Option<String>,
    /// Settled idempotency outcomes retained per user; the oldest
    /// settled entry is evicted (counted `idem_evicted`) when a new
    /// outcome would exceed the cap. In-flight entries are never
    /// evicted. Clamped to at least 1.
    pub idem_max_per_user: usize,
    /// Settled idempotency outcomes older than this are evicted
    /// (counted `idem_evicted`) by the next settle, whichever user and
    /// connection it comes from. `0` disables the TTL (the per-user cap
    /// still bounds the table).
    pub idem_ttl_ms: u64,
}

impl Default for WireConfig {
    fn default() -> Self {
        Self {
            serve: ServeConfig::default(),
            max_connections: 64,
            read_timeout_ms: 2_000,
            write_timeout_ms: 2_000,
            max_body_bytes: 64 * 1024,
            idle_timeout_ms: 5_000,
            deadline_ms: None,
            standby: false,
            auth_token: None,
            idem_max_per_user: 256,
            idem_ttl_ms: 60_000,
        }
    }
}

/// Idempotency bookkeeping for one `(user, id)` key.
enum IdemState {
    /// The request is being gated/served right now; a concurrent retry
    /// gets `503 in_flight` rather than a double submit.
    Pending,
    /// Terminal outcome already produced (and any spend journaled); a
    /// retry replays this body verbatim without touching the gate.
    Done(String),
}

/// The retry table, bounded two ways so keep-alive clients minting
/// unique ids cannot grow memory without limit: a per-user cap on
/// *settled* outcomes (oldest evicted first; in-flight entries are
/// never evicted — they are bounded by the admission queue) and a TTL
/// that every settle enforces on the whole table. Evictions trade the
/// replay guarantee for that key: a retry after eviction re-attempts
/// instead of replaying, which at worst double-*refuses* — a spend is
/// only re-attempted if the client violated the retry contract by
/// waiting past the TTL.
struct IdemTable {
    entries: HashMap<(u64, u64), IdemState>,
    /// Per user, the settled ids oldest first, each with its settle
    /// number. Its length is what the cap bounds.
    settled: HashMap<u64, VecDeque<(u64, u64)>>,
    /// With a TTL, every settle as `(settle time, user)`, oldest first;
    /// the front is settle number `settles - expiry.len()`. A settle the
    /// cap has already evicted is no longer its user's oldest when it
    /// expires, so it expires as a no-op.
    expiry: VecDeque<(u64, u64)>,
    /// Settles so far: the next settle's number.
    settles: u64,
    cap: usize,
    ttl_nanos: u64,
}

impl IdemTable {
    fn new(config: &WireConfig) -> Self {
        Self {
            entries: HashMap::new(),
            settled: HashMap::new(),
            expiry: VecDeque::new(),
            settles: 0,
            cap: config.idem_max_per_user.max(1),
            ttl_nanos: config.idem_ttl_ms.saturating_mul(1_000_000),
        }
    }

    /// Drop the in-flight marker of `key` without settling it
    /// (retryable refusal / worker loss).
    fn release(&mut self, key: (u64, u64)) {
        self.entries.remove(&key);
    }

    /// Record the terminal outcome for `key` at [`Clock`] time `now`,
    /// then evict the user's oldest settled outcomes beyond the cap and
    /// every outcome in the table older than the TTL. Returns how many
    /// were evicted.
    fn settle(&mut self, key: (u64, u64), body: String, now: u64) -> u64 {
        let (user, id) = key;
        self.entries.insert(key, IdemState::Done(body));
        let queue = self.settled.entry(user).or_default();
        queue.push_back((id, self.settles));
        self.settles += 1;
        let excess = queue.len().saturating_sub(self.cap);
        for (old, _) in queue.drain(..excess) {
            self.entries.remove(&(user, old));
        }
        let mut evicted = excess as u64;
        if self.ttl_nanos == 0 {
            return evicted;
        }
        self.expiry.push_back((now, user));
        while let Some(&(at, user)) = self.expiry.front() {
            if now.saturating_sub(at) < self.ttl_nanos {
                break;
            }
            let number = self.settles - self.expiry.len() as u64;
            self.expiry.pop_front();
            let Some(queue) = self.settled.get_mut(&user) else {
                continue;
            };
            if let Some(&(id, _)) = queue.front().filter(|&&(_, n)| n == number) {
                queue.pop_front();
                if queue.is_empty() {
                    self.settled.remove(&user);
                }
                self.entries.remove(&(user, id));
                evicted += 1;
            }
        }
        evicted
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// A connection's handler thread, and its stream while the handler
/// holds it, so that shutdown can end the handler's read.
struct Handler {
    thread: JoinHandle<()>,
    stream: Weak<TcpStream>,
}

struct WireShared {
    server: Server,
    applier: Applier,
    clock: Arc<dyn Clock>,
    draining: AtomicBool,
    shutdown_requested: AtomicBool,
    idem: Mutex<IdemTable>,
    /// One per open connection: the accept loop joins finished ones.
    handlers: Mutex<Vec<Handler>>,
    config: WireConfig,
}

/// The networked serving front-end. See the module docs for the wire
/// format and the drain contract.
pub struct WireServer {
    shared: Arc<WireShared>,
    accept_handle: Option<JoinHandle<()>>,
    local_addr: SocketAddr,
}

impl std::fmt::Debug for WireServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WireServer")
            .field("addr", &self.local_addr)
            .field("report", &self.report())
            .finish()
    }
}

/// What a graceful [`WireServer::shutdown`] left behind.
#[derive(Debug)]
pub struct WireShutdownOutcome {
    /// Final counters, the follower-side replication counts folded in —
    /// this is the report clients reconcile against.
    pub report: ServeReport,
    /// The degradation ladder's per-tier accounting.
    pub degradation: geoind_core::DegradationReport,
    /// Outcome of the final per-shard ledger checkpoint.
    pub checkpoint: Result<(), crate::journal::JournalError>,
    /// Idempotent replays served from the retry table (`report.retried`).
    pub retried: u64,
}

impl WireServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`), start the inner worker pool,
    /// and begin accepting connections.
    ///
    /// # Errors
    /// Any I/O error from binding the listener.
    pub fn start(
        mechanism: ResilientMechanism,
        ledger: ShardedLedger,
        clock: Arc<dyn Clock>,
        config: WireConfig,
        addr: impl ToSocketAddrs,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let applier = Applier::new(&ledger, config.standby);
        let server = Server::start(mechanism, ledger, Arc::clone(&clock), config.serve);
        let shared = Arc::new(WireShared {
            server,
            applier,
            clock,
            draining: AtomicBool::new(false),
            shutdown_requested: AtomicBool::new(false),
            idem: Mutex::new(IdemTable::new(&config)),
            handlers: Mutex::new(Vec::new()),
            config,
        });
        let accept_shared = Arc::clone(&shared);
        let accept_handle = std::thread::spawn(move || accept_loop(&accept_shared, listener));
        Ok(Self {
            shared,
            accept_handle: Some(accept_handle),
            local_addr,
        })
    }

    /// The bound address (resolves the port when started with `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Whether a client has posted `/shutdown`. The owner polls this and
    /// calls [`Self::shutdown`]; handlers never tear the server down
    /// from inside a connection.
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown_requested.load(Ordering::Relaxed)
    }

    /// Counters so far, the follower-side replication counts folded in.
    pub fn report(&self) -> ServeReport {
        with_applier(self.shared.server.report(), &self.shared.applier)
    }

    /// Live idempotency-table entries (test/ops visibility for the
    /// per-user cap and the TTL).
    pub fn idem_entries(&self) -> usize {
        self.shared
            .idem
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Whether this server is still a warm standby (refusing `/protect`
    /// with `503 standby` while applying the primary's records).
    pub fn standby(&self) -> bool {
        self.shared.applier.standby()
    }

    /// The fence generation this server enforces on `/replicate`.
    pub fn fence_gen(&self) -> u64 {
        self.shared.applier.fence_gen()
    }

    /// Promote this standby to primary: bump and persist the fence
    /// generation past everything ever seen, checkpoint every shard,
    /// and start serving `/protect`. Idempotent (a second promotion
    /// just bumps the generation again). Same effect as `POST
    /// /promote` or `SIGUSR1`.
    ///
    /// # Errors
    /// [`crate::ledger::SpendError::Journal`] when persisting the
    /// generation or checkpointing fails — the standby stays fenced-off
    /// rather than serving with an unpersisted generation.
    pub fn promote(&self) -> Result<u64, crate::ledger::SpendError> {
        self.shared.applier.promote(self.shared.server.ledger())
    }

    /// Total ε spent across all users this epoch (healthy shards).
    pub fn ledger_total_spent(&self) -> f64 {
        self.shared.server.ledger_total_spent()
    }

    /// Ledger shards refusing their users fail-closed after a failed
    /// recovery.
    pub fn failed_shards(&self) -> Vec<(usize, String)> {
        self.shared.server.failed_shards()
    }

    /// Graceful drain: stop accepting → end every connection's reads
    /// and join its handler (in-flight exchanges finish) → drain the
    /// admission queue → flush the journals → snapshot the final report.
    /// See the module docs.
    pub fn shutdown(mut self) -> WireShutdownOutcome {
        self.shared.draining.store(true, Ordering::SeqCst);
        // Wake the accept loop blocked in `accept`: it sees `draining`
        // and drops this connection before counting it.
        let _ = TcpStream::connect(wake_addr(self.local_addr));
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        let handlers: Vec<Handler> = self
            .shared
            .handlers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .drain(..)
            .collect();
        // An idle handler's read returns end-of-stream at once; one
        // mid-exchange writes its response, then sees `draining`.
        for handler in &handlers {
            if let Some(stream) = handler.stream.upgrade() {
                let _ = stream.shutdown(Shutdown::Read);
            }
        }
        for handler in handlers {
            // A panicked handler must not hide the remaining drain.
            let _ = handler.thread.join();
        }
        let Ok(shared) = Arc::try_unwrap(self.shared) else {
            // Accept loop and every handler are joined; no other clone
            // can exist.
            unreachable!("wire shared state still referenced after joining all threads");
        };
        // Ship any still-pending replication records before the journals
        // close: a graceful drain must leave the follower caught up.
        if let Some(shipper) = shared.server.ledger().shipper() {
            shipper.flush_all();
        }
        let inner = shared.server.shutdown();
        let report = with_applier(inner.report, &shared.applier);
        WireShutdownOutcome {
            report,
            degradation: inner.degradation,
            checkpoint: inner.checkpoint,
            retried: report.retried,
        }
    }
}

/// The one place the applier's counts — owned by the follower side —
/// join the server's: `GET /report`, [`WireServer::report`] and
/// [`WireServer::shutdown`] all report through it.
fn with_applier(mut report: ServeReport, applier: &Applier) -> ServeReport {
    // `fenced` folds both sides of the fence: spends the gate refused
    // because the local shipper is fenced, and stale-generation batches
    // this applier nacked.
    report.fenced += applier.fenced_total();
    report.replica_applied = applier.applied_total();
    report.replica_deduped = applier.deduped_total();
    report
}

/// The address [`WireServer::shutdown`] connects to in order to wake
/// the accept loop: the listener's own, on loopback when it is bound to
/// a wildcard address.
fn wake_addr(mut addr: SocketAddr) -> SocketAddr {
    match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => addr.set_ip(Ipv4Addr::LOCALHOST.into()),
        IpAddr::V6(ip) if ip.is_unspecified() => addr.set_ip(Ipv6Addr::LOCALHOST.into()),
        _ => {}
    }
    addr
}

fn accept_loop(shared: &Arc<WireShared>, listener: TcpListener) {
    let counters = shared.server.counters();
    for stream in listener.incoming() {
        if shared.draining.load(Ordering::SeqCst) {
            // The wake-up connection of `WireServer::shutdown`, or a
            // client racing it: dropped uncounted.
            return;
        }
        let Ok(stream) = stream else {
            // Transient accept error (e.g. EMFILE): back off and keep
            // listening rather than killing the server.
            std::thread::sleep(Duration::from_millis(2));
            continue;
        };
        if failpoint::hit("serve.net.accept") {
            // Injected accept fault: the connection vanishes before a
            // byte is read — the client sees a reset and retries.
            counters.shed_net.fetch_add(1, Ordering::Relaxed);
            drop(stream);
            continue;
        }
        let mut handlers = shared
            .handlers
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        // Join the handlers whose connection has closed: a finished
        // thread keeps its stack mapped until joined, and the handlers
        // left are the open connections the cap counts.
        for done in handlers.extract_if(.., |handler| handler.thread.is_finished()) {
            let _ = done.thread.join();
        }
        if handlers.len() >= shared.config.max_connections.max(1) {
            drop(handlers);
            // Over the accept cap: explicit counted refusal, never a
            // hang. Best-effort write; the shed is counted either way.
            counters.shed_net.fetch_add(1, Ordering::Relaxed);
            refuse_connection(stream);
            continue;
        }
        let stream = Arc::new(stream);
        let weak = Arc::downgrade(&stream);
        let conn_shared = Arc::clone(shared);
        let thread = std::thread::spawn(move || handle_connection(&conn_shared, &stream));
        handlers.push(Handler {
            thread,
            stream: weak,
        });
    }
}

fn refuse_connection(mut stream: TcpStream) {
    let body = r#"{"status":"too_many_connections"}"#;
    let _ = stream.set_write_timeout(Some(Duration::from_millis(200)));
    let _ = stream.write_all(http::response(503, body).as_bytes());
}

/// One parsed HTTP frame.
struct Frame {
    method: String,
    path: String,
    /// `Authorization` header value, verbatim, when present.
    auth: Option<String>,
    body: Vec<u8>,
}

enum ReadOutcome {
    /// A complete frame arrived (leftover pipelined bytes stay buffered).
    Request(Frame),
    /// Read deadline passed with no frame in progress — idle connection.
    Idle,
    /// Clean close with nothing buffered.
    Closed,
    /// The peer vanished or stalled mid-frame: the request is torn and
    /// must burn no budget.
    Torn,
    /// The declared body exceeds the cap.
    TooLarge,
    /// The head is not parseable HTTP.
    BadHead,
}

fn read_frame(mut stream: &TcpStream, pending: &mut Vec<u8>, max_body: usize) -> ReadOutcome {
    let mut buf = [0u8; 4096];
    loop {
        if let Some(outcome) = try_extract_frame(pending, max_body) {
            return outcome;
        }
        // With no frame in progress a deadline means idle and an EOF or
        // error a close; mid-frame, either tears the request.
        let stopped = match stream.read(&mut buf) {
            Ok(0) => ReadOutcome::Closed,
            Ok(n) => {
                pending.extend_from_slice(&buf[..n]);
                continue;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                ReadOutcome::Idle
            }
            Err(_) => ReadOutcome::Closed,
        };
        return if pending.is_empty() {
            stopped
        } else {
            ReadOutcome::Torn
        };
    }
}

/// Cut the next complete frame off the front of `pending`; `None` while
/// more bytes are needed.
fn try_extract_frame(pending: &mut Vec<u8>, max_body: usize) -> Option<ReadOutcome> {
    let head = match http::parse_head(pending) {
        Ok(Some(head)) => head,
        // Bound the head: a peer streaming garbage without ever sending
        // CRLFCRLF must not grow the buffer unboundedly.
        Ok(None) if pending.len() <= max_body + 4096 => return None,
        Ok(None) | Err(_) => return Some(ReadOutcome::BadHead),
    };
    let mut parts = head.start.split(' ');
    let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
        return Some(ReadOutcome::BadHead);
    };
    if method.is_empty() || path.is_empty() {
        return Some(ReadOutcome::BadHead);
    }
    if head.content_length > max_body {
        return Some(ReadOutcome::TooLarge);
    }
    let total = head.body_at + head.content_length;
    if pending.len() < total {
        return None;
    }
    let frame = Frame {
        method: method.to_string(),
        path: path.to_string(),
        auth: head.auth.map(str::to_string),
        body: pending[head.body_at..total].to_vec(),
    };
    // Keep any pipelined follow-on bytes for the next frame.
    pending.drain(..total);
    Some(ReadOutcome::Request(frame))
}

/// Constant-time bearer-token check: the comparison XOR-folds every
/// byte so a mismatch at byte 0 takes as long as one at byte N (no
/// early exit an attacker could time). The length itself is not
/// secret.
fn authorized(header: Option<&str>, token: &str) -> bool {
    let Some(value) = header else {
        return false;
    };
    let Some(presented) = value.strip_prefix("Bearer ") else {
        return false;
    };
    let (a, b) = (presented.trim().as_bytes(), token.as_bytes());
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b) {
        diff |= x ^ y;
    }
    diff == 0
}

fn handle_connection(shared: &Arc<WireShared>, mut stream: &TcpStream) {
    let counters = shared.server.counters();
    let _ = stream.set_nodelay(true);
    let read_timeout = Duration::from_millis(shared.config.read_timeout_ms.max(1));
    let _ = stream.set_read_timeout(Some(read_timeout));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(
        shared.config.write_timeout_ms.max(1),
    )));
    let mut pending = Vec::new();
    let idle_cap = Duration::from_millis(shared.config.idle_timeout_ms.max(1));
    let mut last_activity = std::time::Instant::now();
    loop {
        if shared.draining.load(Ordering::SeqCst) {
            break;
        }
        match read_frame(stream, &mut pending, shared.config.max_body_bytes) {
            ReadOutcome::Idle => {
                // No frame in progress and nothing in flight (responses
                // are written before the next read begins): reap the
                // connection once it has idled past the cap.
                if last_activity.elapsed() >= idle_cap {
                    break;
                }
                continue;
            }
            ReadOutcome::Closed => break,
            ReadOutcome::Torn => {
                // Cut mid-frame: nothing was parsed, no budget burned.
                counters.torn.fetch_add(1, Ordering::Relaxed);
                break;
            }
            ReadOutcome::TooLarge => {
                counters.shed_net.fetch_add(1, Ordering::Relaxed);
                let _ =
                    stream.write_all(http::response(413, r#"{"status":"too_large"}"#).as_bytes());
                break;
            }
            ReadOutcome::BadHead => {
                counters.shed_net.fetch_add(1, Ordering::Relaxed);
                let _ =
                    stream.write_all(http::response(400, r#"{"status":"bad_request"}"#).as_bytes());
                break;
            }
            ReadOutcome::Request(frame) => {
                last_activity = std::time::Instant::now();
                if failpoint::hit("serve.net.read_torn") {
                    // The frame arrived but is treated as torn before any
                    // parse or gate: a torn request burns no budget.
                    counters.torn.fetch_add(1, Ordering::Relaxed);
                    break;
                }
                if failpoint::hit("serve.net.stall") {
                    // Simulated peer stall mid-exchange: hold the
                    // connection until the read deadline would have
                    // fired, then drop it without a response.
                    std::thread::sleep(read_timeout);
                    counters.torn.fetch_add(1, Ordering::Relaxed);
                    break;
                }
                if let Some(token) = shared.config.auth_token.as_deref() {
                    // `/healthz` stays open: probes and orchestrators
                    // must see readiness without holding the secret.
                    if frame.path != "/healthz" && !authorized(frame.auth.as_deref(), token) {
                        counters.unauthorized.fetch_add(1, Ordering::Relaxed);
                        let rendered = http::response(401, r#"{"status":"unauthorized"}"#);
                        if stream.write_all(rendered.as_bytes()).is_err() {
                            counters.torn.fetch_add(1, Ordering::Relaxed);
                            break;
                        }
                        continue;
                    }
                }
                let is_protect = frame.method == "POST" && frame.path == "/protect";
                let (status, body) = dispatch(shared, &frame);
                let rendered = http::response(status, &body);
                if is_protect && failpoint::hit("serve.net.write_short") {
                    // The outcome (and any spend) is already journaled
                    // and parked in the idempotency table; cut the
                    // response short so the client must retry — the
                    // retry replays, it does not spend again.
                    let half = rendered.len() / 2;
                    let _ = stream.write_all(&rendered.as_bytes()[..half]);
                    counters.torn.fetch_add(1, Ordering::Relaxed);
                    break;
                }
                if stream.write_all(rendered.as_bytes()).is_err() {
                    counters.torn.fetch_add(1, Ordering::Relaxed);
                    break;
                }
            }
        }
    }
}

fn dispatch(shared: &Arc<WireShared>, frame: &Frame) -> (u16, String) {
    let counters = shared.server.counters();
    match (frame.method.as_str(), frame.path.as_str()) {
        ("POST", "/protect") => {
            if shared.applier.standby() {
                // A warm standby never spends on its own: clients that
                // find it before promotion get a counted, retryable
                // refusal (their failover logic decides what next).
                counters.shed_net.fetch_add(1, Ordering::Relaxed);
                (503, r#"{"status":"standby"}"#.to_string())
            } else {
                dispatch_protect(shared, &frame.body)
            }
        }
        ("GET", "/report") => (200, report_body(shared)),
        ("GET", "/healthz") => healthz_body(shared),
        ("POST", "/repair") => {
            let started = shared.server.ledger().repair_now();
            (200, format!(r#"{{"status":"repair","started":{started}}}"#))
        }
        ("POST", "/replicate") => {
            // Always 200 with a JSON verdict: transport-level success,
            // ack/nack decided by the applier (fencing, epoch, shape).
            (
                200,
                shared.applier.handle(shared.server.ledger(), &frame.body),
            )
        }
        ("POST", "/promote") => match shared.applier.promote(shared.server.ledger()) {
            Ok(gen) => (200, format!(r#"{{"status":"promoted","gen":{gen}}}"#)),
            Err(e) => {
                let detail = Json::Str(e.to_string()).render();
                (
                    500,
                    format!(r#"{{"status":"promote_failed","detail":{detail}}}"#),
                )
            }
        },
        ("POST", "/follow") => dispatch_follow(shared, &frame.body),
        ("POST", "/shutdown") => {
            shared.shutdown_requested.store(true, Ordering::SeqCst);
            (200, r#"{"status":"draining"}"#.to_string())
        }
        _ => (404, r#"{"status":"not_found"}"#.to_string()),
    }
}

/// `POST /follow {"addr":"host:port"}` — a follower registering itself
/// as this primary's replication peer. Refused when the server was not
/// started with a shipper (no `--max-replica-lag` mode).
fn dispatch_follow(shared: &Arc<WireShared>, body: &[u8]) -> (u16, String) {
    let addr = std::str::from_utf8(body)
        .ok()
        .and_then(|text| Json::parse(text).ok())
        .and_then(|json| json.get("addr").and_then(Json::as_str).map(str::to_string));
    let Some(addr) = addr else {
        return (
            400,
            r#"{"status":"bad_request","detail":"missing addr"}"#.into(),
        );
    };
    let Some(shipper) = shared.server.ledger().shipper() else {
        return (503, r#"{"status":"not_replicating"}"#.into());
    };
    match shipper.set_peer(&addr) {
        Ok(()) => {
            // Push whatever is already pending so the new follower
            // catches up without waiting for the next spend.
            shipper.flush_all();
            (
                200,
                format!(r#"{{"status":"following","gen":{}}}"#, shipper.generation()),
            )
        }
        Err(e) => {
            let detail = Json::Str(e.to_string()).render();
            (
                500,
                format!(r#"{{"status":"follow_failed","detail":{detail}}}"#),
            )
        }
    }
}

fn dispatch_protect(shared: &Arc<WireShared>, body: &[u8]) -> (u16, String) {
    let counters = shared.server.counters();
    let text = match std::str::from_utf8(body) {
        Ok(t) => t,
        Err(_) => {
            counters.shed_net.fetch_add(1, Ordering::Relaxed);
            return (
                400,
                r#"{"status":"bad_request","detail":"body is not utf-8"}"#.into(),
            );
        }
    };
    let parsed = match Json::parse(text) {
        Ok(v) => v,
        Err(e) => {
            counters.shed_net.fetch_add(1, Ordering::Relaxed);
            let detail = Json::Str(format!("bad json: {e}")).render();
            return (
                400,
                format!(r#"{{"status":"bad_request","detail":{detail}}}"#),
            );
        }
    };
    match parsed {
        Json::Arr(items) => {
            let bodies: Vec<String> = protect_group(shared, &items)
                .into_iter()
                .map(|(_, body)| body)
                .collect();
            (200, format!("[{}]", bodies.join(",")))
        }
        item => protect_group(shared, std::slice::from_ref(&item))
            .pop()
            .expect("one outcome per element"),
    }
}

/// Answer protect elements in order: check every element first, submit
/// the live ones as one admission group, then settle them in order. The
/// group is never split (one worker charges its spends with one group
/// commit and samples them with one `report_many`), and it is admitted
/// by prefix: elements beyond the queue's free room answer `overloaded`.
fn protect_group(shared: &Arc<WireShared>, items: &[Json]) -> Vec<(u16, String)> {
    let checked: Vec<Checked> = items.iter().map(|item| check_one(shared, item)).collect();
    let live: Vec<Request> = checked
        .iter()
        .filter_map(|checked| match checked {
            Checked::Live(request, _) => Some(*request),
            Checked::Terminal(..) => None,
        })
        .collect();
    let mut submitted = shared.server.submit_group(&live).into_iter();
    checked
        .into_iter()
        .map(|checked| match checked {
            Checked::Terminal(status, body) => (status, body),
            Checked::Live(_, key) => settle_one(
                shared,
                submitted
                    .next()
                    .expect("one submit result per live element"),
                key,
            ),
        })
        .collect()
}

/// A protect element after its checks: either already terminal (replay,
/// in-flight or malformed) or a request to submit.
enum Checked {
    Terminal(u16, String),
    /// To submit; the idempotency key (if any) holds an in-flight marker
    /// and must be settled or released once the request is answered.
    Live(Request, Option<(u64, u64)>),
}

fn check_one(shared: &Arc<WireShared>, item: &Json) -> Checked {
    let counters = shared.server.counters();
    let Some(user) = item.get("user").and_then(Json::as_u64) else {
        counters.shed_net.fetch_add(1, Ordering::Relaxed);
        return Checked::Terminal(
            400,
            r#"{"status":"bad_request","detail":"missing user"}"#.into(),
        );
    };
    let (Some(x), Some(y)) = (
        item.get("x").and_then(Json::as_f64),
        item.get("y").and_then(Json::as_f64),
    ) else {
        counters.shed_net.fetch_add(1, Ordering::Relaxed);
        return Checked::Terminal(
            400,
            r#"{"status":"bad_request","detail":"missing x/y"}"#.into(),
        );
    };
    let key = item.get("id").and_then(Json::as_u64).map(|id| (user, id));
    if let Some(key) = key {
        let mut idem = shared.idem.lock().unwrap_or_else(PoisonError::into_inner);
        match idem.entries.get(&key) {
            Some(IdemState::Done(body)) => {
                // Retry of a settled request: replay the journaled
                // outcome verbatim; the gate is not consulted and no
                // budget is spent — at-most-once server-side.
                let body = body.clone();
                counters.retried.fetch_add(1, Ordering::Relaxed);
                return Checked::Terminal(200, body);
            }
            Some(IdemState::Pending) => {
                return Checked::Terminal(503, r#"{"status":"in_flight"}"#.into());
            }
            None => {
                idem.entries.insert(key, IdemState::Pending);
            }
        }
    }
    let deadline_nanos = shared.config.deadline_ms.map(|ms| {
        shared
            .clock
            .now_nanos()
            .saturating_add(ms.saturating_mul(1_000_000))
    });
    let request = Request {
        user,
        point: geoind_spatial::geom::Point::new(x, y),
        deadline_nanos,
    };
    Checked::Live(request, key)
}

/// Answer one submitted element, and settle or release its idempotency
/// key: only a terminal (`200`) outcome is kept for replay. A refusal
/// before the gate (shed, draining), a retryable refusal or a lost worker
/// releases the key, so a retry re-attempts instead of replaying it or
/// seeing `in_flight` forever.
fn settle_one(
    shared: &Arc<WireShared>,
    submitted: Result<Receiver<Response>, SubmitError>,
    key: Option<(u64, u64)>,
) -> (u16, String) {
    let (status, body) = match submitted.map(|rx| rx.recv()) {
        Err(SubmitError::QueueFull) => (503, r#"{"status":"overloaded"}"#.to_string()),
        Err(SubmitError::Closed) => (503, r#"{"status":"draining"}"#.to_string()),
        // The worker dropped the reply without answering (it panicked):
        // fail closed.
        Ok(Err(_)) => (500, r#"{"status":"internal"}"#.to_string()),
        // Retryable: the condition may clear (repair, freed space,
        // follower caught up, client failing over).
        Ok(Ok(
            response @ (Response::ShardUnavailable { .. }
            | Response::DiskFull
            | Response::ReplicaLag { .. }
            | Response::Fenced),
        )) => (503, render_outcome(&response)),
        Ok(Ok(response)) => (200, render_outcome(&response)),
    };
    if let Some(key) = key {
        let mut idem = shared.idem.lock().unwrap_or_else(PoisonError::into_inner);
        if status == 200 {
            let evicted = idem.settle(key, body.clone(), shared.clock.now_nanos());
            if evicted > 0 {
                let counters = shared.server.counters();
                counters.idem_evicted.fetch_add(evicted, Ordering::Relaxed);
            }
        } else {
            idem.release(key);
        }
    }
    (status, body)
}

fn render_outcome(response: &Response) -> String {
    match response {
        Response::Served { point, tier } => Json::Obj(vec![
            ("status".into(), Json::Str("served".into())),
            ("x".into(), Json::Num(point.x)),
            ("y".into(), Json::Num(point.y)),
            ("tier".into(), Json::Num(tier.index() as f64)),
        ])
        .render(),
        Response::BudgetExhausted { remaining } => Json::Obj(vec![
            ("status".into(), Json::Str("budget_exhausted".into())),
            ("remaining".into(), Json::Num(*remaining)),
        ])
        .render(),
        Response::Expired => r#"{"status":"expired"}"#.to_string(),
        Response::JournalFault(detail) => Json::Obj(vec![
            ("status".into(), Json::Str("journal_fault".into())),
            ("detail".into(), Json::Str(detail.clone())),
        ])
        .render(),
        Response::ShardUnavailable { shard } => {
            format!(r#"{{"status":"shard_unavailable","shard":{shard}}}"#)
        }
        Response::DiskFull => r#"{"status":"disk_full"}"#.to_string(),
        Response::ReplicaLag { lag } => {
            format!(r#"{{"status":"replica_lag","lag":{lag}}}"#)
        }
        Response::Fenced => r#"{"status":"fenced"}"#.to_string(),
    }
}

/// `GET /healthz`: `200` while every shard serves, `503` otherwise,
/// with per-state counts and repair progress either way.
fn healthz_body(shared: &Arc<WireShared>) -> (u16, String) {
    let ledger = shared.server.ledger();
    let counts = ledger.health_counts();
    let serving = counts.all_serving();
    let body = Json::Obj(vec![
        (
            "status".into(),
            Json::Str(if serving { "ready" } else { "degraded" }.into()),
        ),
        ("shards".into(), Json::Num(ledger.shards() as f64)),
        ("ready".into(), Json::Num(counts.ready as f64)),
        ("probation".into(), Json::Num(counts.probation as f64)),
        ("quarantined".into(), Json::Num(counts.quarantined as f64)),
        ("scavenging".into(), Json::Num(counts.scavenging as f64)),
        ("failed".into(), Json::Num(counts.failed as f64)),
        (
            "repairs_running".into(),
            Json::Num(ledger.repairs_running() as f64),
        ),
        (
            "repaired_shards".into(),
            Json::Num(ledger.repaired_shards() as f64),
        ),
        (
            "scavenged".into(),
            Json::Num(ledger.scavenged_records() as f64),
        ),
        (
            "abandoned".into(),
            Json::Num(ledger.abandoned_repairs() as f64),
        ),
        // Failover probes read these without the auth token: a client
        // that lost the primary learns here whether this peer has been
        // promoted (standby=false) before re-pointing its load.
        ("standby".into(), Json::Bool(shared.applier.standby())),
        (
            "fence_gen".into(),
            Json::Num(shared.applier.fence_gen() as f64),
        ),
    ])
    .render();
    (if serving { 200 } else { 503 }, body)
}

fn report_body(shared: &Arc<WireShared>) -> String {
    let report = with_applier(shared.server.report(), &shared.applier);
    let failed: Vec<Json> = shared
        .server
        .failed_shards()
        .into_iter()
        .map(|(k, detail)| {
            Json::Obj(vec![
                ("shard".into(), Json::Num(k as f64)),
                ("detail".into(), Json::Str(detail)),
            ])
        })
        .collect();
    let mut fields: Vec<(String, Json)> = report
        .counters()
        .iter()
        .map(|&(name, value)| (name.into(), Json::Num(value as f64)))
        .collect();
    fields.extend([
        ("standby".into(), Json::Bool(shared.applier.standby())),
        (
            "fence_gen".into(),
            Json::Num(shared.applier.fence_gen() as f64),
        ),
        ("failed_shards".into(), Json::Arr(failed)),
        ("log_line".into(), Json::Str(report.log_line())),
    ]);
    Json::Obj(fields).render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::LedgerConfig;
    use geoind_core::alloc::AllocationStrategy;
    use geoind_core::msm::MsmMechanism;
    use geoind_data::prior::GridPrior;
    use geoind_spatial::geom::BBox;
    use geoind_testkit::clock::SystemClock;
    use std::time::Instant;

    /// An id the cap evicted and the client then settled again expires a
    /// TTL after its second settle, not after its first.
    #[test]
    fn a_resettled_id_expires_from_its_last_settle() {
        let mut table = IdemTable::new(&WireConfig {
            idem_max_per_user: 1,
            idem_ttl_ms: 1,
            ..WireConfig::default()
        });
        let ms = 1_000_000;
        assert_eq!(table.settle((1, 5), "a".into(), 0), 0);
        assert_eq!(table.settle((1, 6), "b".into(), ms / 10), 1);
        assert_eq!(table.settle((1, 5), "c".into(), ms / 5), 1);
        // The first settle of (1, 5) expires here; the second must not.
        assert_eq!(table.settle((2, 9), "d".into(), ms), 0);
        assert!(matches!(table.entries.get(&(1, 5)), Some(IdemState::Done(body)) if body == "c"));
        assert_eq!(table.settle((2, 10), "e".into(), ms + ms / 5), 2);
        assert_eq!(table.len(), 1);
    }

    /// A closed connection's handler is joined by the accept loop, not
    /// kept until shutdown: a finished thread keeps its stack mapped until
    /// it is joined, so a long-lived server would grow by one stack per
    /// connection it ever served.
    #[test]
    fn the_accept_loop_joins_the_handlers_of_closed_connections() {
        let dir = std::env::temp_dir().join(format!("geoind-wire-reap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let domain = BBox::square(8.0);
        let mechanism = ResilientMechanism::from_builder(
            MsmMechanism::builder(domain, GridPrior::uniform(domain, 8))
                .epsilon(0.8)
                .granularity(2)
                .strategy(AllocationStrategy::FixedHeight(2)),
        )
        .expect("build mechanism");
        let config = LedgerConfig {
            cap_per_user: 1.0,
            epoch: 0,
            compact_after: 0,
        };
        let server = WireServer::start(
            mechanism,
            ShardedLedger::open(&dir, config, 1),
            Arc::new(SystemClock),
            WireConfig::default(),
            "127.0.0.1:0",
        )
        .expect("bind");
        let healthz = || {
            let mut conn = http::Conn::open(server.local_addr(), 2_000).expect("connect");
            let request = http::request("GET", "/healthz", "application/json", None, b"");
            assert_eq!(conn.exchange(&request).expect("healthz").0, 200);
        };
        let kept = || server.shared.handlers.lock().unwrap().len();
        for _ in 0..50 {
            healthz();
        }
        // Each accept joins the handlers that finished before it, so once
        // the last clients' handlers have exited, one more connection
        // leaves only its own.
        let started = Instant::now();
        while kept() > 2 {
            assert!(
                started.elapsed() < Duration::from_secs(5),
                "{} connection handlers kept after 50 closed connections",
                kept()
            );
            std::thread::sleep(Duration::from_millis(10));
            healthz();
        }
        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}
