//! Real-socket suite for the wire layer: loopback TCP, the actual
//! loadgen client, and the `serve.net.*` failpoints.
//!
//! Wire failpoints fire on the server's handler threads, so arming is
//! **process-global** (`arm_global`) rather than thread-scoped — every
//! test that arms a site serializes on [`NET_FAULTS`] and disarms on
//! the way out. The invariant under every injected fault is the same:
//! the client's terminal tallies reconcile *exactly* with the server's
//! gate counters, a torn request burns no budget, and a torn response
//! is replayed (never re-spent) on retry.

use geoind_core::alloc::AllocationStrategy;
use geoind_core::msm::MsmMechanism;
use geoind_core::ResilientMechanism;
use geoind_data::prior::GridPrior;
use geoind_serve::client::{run_load, ClientConfig};
use geoind_serve::ledger::LedgerConfig;
use geoind_serve::replica::{register_with_primary, Shipper, ShipperConfig};
use geoind_serve::shard::{shard_of, ShardedLedger};
use geoind_serve::wire::{WireConfig, WireServer};
use geoind_serve::{Json, ServeConfig};
use geoind_spatial::geom::BBox;
use geoind_testkit::clock::{ManualClock, SystemClock};
use geoind_testkit::failpoint::{self, FailSpec};
use std::io::{Read, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const EPS: f64 = 0.8;

/// Serializes every test in this file: arming is process-wide, so a
/// fault armed by one test would fire inside a concurrently running
/// server of another and corrupt its exact counts.
static NET_FAULTS: Mutex<()> = Mutex::new(());

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
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "geoind-wire-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn sharded(dir: &std::path::Path, cap: f64, shards: usize) -> ShardedLedger {
    ShardedLedger::open(
        dir,
        LedgerConfig {
            cap_per_user: cap,
            epoch: 0,
            compact_after: 0,
        },
        shards,
    )
}

fn wire_config() -> WireConfig {
    WireConfig {
        serve: ServeConfig {
            workers: 2,
            queue_capacity: 32,
            seed: 42,
            batch: 4,
        },
        max_connections: 32,
        read_timeout_ms: 250,
        write_timeout_ms: 1_000,
        max_body_bytes: 64 * 1024,
        deadline_ms: None,
        idle_timeout_ms: 5_000,
        standby: false,
        auth_token: None,
        idem_max_per_user: 256,
        idem_ttl_ms: 60_000,
    }
}

fn start_server(dir: &std::path::Path, cap: f64) -> WireServer {
    WireServer::start(
        mechanism(),
        sharded(dir, cap, 4),
        Arc::new(SystemClock),
        wire_config(),
        "127.0.0.1:0",
    )
    .expect("bind wire server")
}

fn client_config(addr: std::net::SocketAddr, requests: u64) -> ClientConfig {
    ClientConfig {
        addr: addr.to_string(),
        connections: 4,
        requests,
        users: 5,
        timeout_ms: 2_000,
        max_attempts: 16,
        backoff_base_ms: 5,
        seed: 7,
        shutdown_after: false,
        failover: None,
        auth_token: None,
        retry_budget: None,
    }
}

/// Raw-socket exchange helper for the tests that need byte-level control.
fn raw_exchange(addr: std::net::SocketAddr, request: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_millis(2_000)))
        .expect("read timeout");
    stream.write_all(request.as_bytes()).expect("write");
    // One response frame: read until the declared body is complete.
    let mut pending = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        if let Some(end) = frame_end(&pending) {
            return String::from_utf8_lossy(&pending[..end]).into_owned();
        }
        match stream.read(&mut buf) {
            Ok(0) => return String::from_utf8_lossy(&pending).into_owned(),
            Ok(n) => pending.extend_from_slice(&buf[..n]),
            Err(e) => panic!("raw read failed with {pending:?} buffered: {e}"),
        }
    }
}

fn frame_end(pending: &[u8]) -> Option<usize> {
    let head_end = pending.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&pending[..head_end]).ok()?;
    let mut content_length = 0usize;
    for line in head.split("\r\n").skip(1) {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().ok()?;
            }
        }
    }
    let total = head_end + 4 + content_length;
    (pending.len() >= total).then_some(total)
}

fn protect_request(user: u64, id: u64) -> String {
    let body = format!(r#"{{"user":{user},"id":{id},"x":1.0,"y":2.0}}"#);
    format!(
        "POST /protect HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

#[test]
fn closed_loop_over_loopback_reconciles_exactly() {
    let _guard = NET_FAULTS.lock().unwrap_or_else(|e| e.into_inner());
    let dir = temp_dir("plain");
    // Cap fits 4 requests per user: 40 requests over 5 users → 20
    // served, 20 budget-refused, every one accounted on both sides.
    let server = start_server(&dir, 4.0 * EPS);
    let report = run_load(&client_config(server.local_addr(), 40)).expect("load reconciles");
    assert_eq!(report.served, 20);
    assert_eq!(report.refused_budget, 20);
    assert_eq!(report.total(), 40);
    let outcome = server.shutdown();
    outcome.checkpoint.expect("checkpoint");
    assert_eq!(outcome.report.served(), 20);
    assert_eq!(outcome.report.refused_budget, 20);
    // Budget actually burned exactly once per serve.
    let reopened = sharded(&dir, 4.0 * EPS, 4);
    assert!((reopened.total_spent() - 20.0 * EPS).abs() < 1e-9);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_net_failpoint_preserves_exact_reconciliation() {
    let _guard = NET_FAULTS.lock().unwrap_or_else(|e| e.into_inner());
    for site in [
        "serve.net.accept",
        "serve.net.read_torn",
        "serve.net.write_short",
        "serve.net.stall",
    ] {
        failpoint::reset_global();
        let dir = temp_dir(&format!("sweep-{}", site.replace('.', "-")));
        let server = start_server(&dir, 100.0);
        // Fault a few exchanges mid-run; the retrying client must still
        // drive every request to a terminal outcome that reconciles.
        failpoint::arm_global(site, FailSpec::after(3, 3));
        let result = run_load(&client_config(server.local_addr(), 30));
        // Read the fire count before disarming: disarm drops the state.
        let fired = failpoint::fired(site);
        failpoint::disarm_global(site);
        let report = result.unwrap_or_else(|e| panic!("{site}: {e}"));
        assert_eq!(report.total(), 30, "{site}");
        assert_eq!(report.served, 30, "{site}: cap is generous, all serve");
        assert!(fired > 0, "{site} never fired");
        let outcome = server.shutdown();
        outcome.checkpoint.expect("checkpoint");
        assert_eq!(outcome.report.served(), 30, "{site}");
        match site {
            "serve.net.accept" => assert!(outcome.report.shed_net >= fired, "{site}"),
            _ => assert!(outcome.report.torn >= fired, "{site}"),
        }
        // At-most-once: the ledger burned exactly one ε per logical
        // serve, no matter how many wire attempts it took.
        assert!(
            (server_spent(&dir) - 30.0 * EPS).abs() < 1e-9,
            "{site}: spend drifted"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
    failpoint::reset_global();
}

fn server_spent(dir: &std::path::Path) -> f64 {
    sharded(dir, 100.0, 4).total_spent()
}

#[test]
fn torn_request_burns_no_budget() {
    let _guard = NET_FAULTS.lock().unwrap_or_else(|e| e.into_inner());
    failpoint::reset_global();
    let dir = temp_dir("torn-req");
    let server = start_server(&dir, 100.0);
    // A frame that declares more body than it ever sends, then a dead
    // socket: the server must count it torn and never reach the gate.
    {
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream
            .write_all(b"POST /protect HTTP/1.1\r\nContent-Length: 60\r\n\r\n{\"user\":1,")
            .expect("write partial");
        // Dropping the stream closes it mid-frame.
    }
    // The handler notices on its next read (bounded by the read timeout).
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let report = server.report();
        if report.torn >= 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "torn counter never moved: {report:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(server.ledger_total_spent(), 0.0, "torn request spent ε");
    let outcome = server.shutdown();
    assert_eq!(outcome.report.served(), 0);
    assert!(outcome.report.torn >= 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_response_is_replayed_not_respent() {
    let _guard = NET_FAULTS.lock().unwrap_or_else(|e| e.into_inner());
    failpoint::reset_global();
    let dir = temp_dir("torn-resp");
    let server = start_server(&dir, 100.0);
    let addr = server.local_addr();

    // First attempt: the spend journals, then the response write is cut.
    failpoint::arm_global("serve.net.write_short", FailSpec::times(1));
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_millis(2_000)))
            .expect("timeout");
        stream
            .write_all(protect_request(3, 17).as_bytes())
            .expect("write");
        let mut tail = Vec::new();
        let _ = stream.read_to_end(&mut tail);
        // The cut must be observable: fewer bytes than a full frame.
        assert!(
            frame_end(&tail).is_none(),
            "expected a torn response, got {:?}",
            String::from_utf8_lossy(&tail)
        );
    }
    assert_eq!(failpoint::fired("serve.net.write_short"), 1);
    failpoint::disarm_global("serve.net.write_short");
    assert!(
        (server.ledger_total_spent() - EPS).abs() < 1e-12,
        "the spend was journaled before the tear"
    );

    // Retry with the same (user, id): the journaled outcome replays
    // verbatim; no second spend.
    let replay = raw_exchange(addr, &protect_request(3, 17));
    assert!(replay.contains("200 OK"), "{replay}");
    assert!(replay.contains(r#""status":"served""#), "{replay}");
    assert!(
        (server.ledger_total_spent() - EPS).abs() < 1e-12,
        "replay must not spend again"
    );
    let outcome = server.shutdown();
    assert_eq!(outcome.report.served(), 1, "one logical serve");
    assert_eq!(outcome.retried, 1, "one idempotent replay");
    assert!(outcome.report.torn >= 1);
    failpoint::reset_global();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pipelined_array_is_answered_in_order() {
    let _guard = NET_FAULTS.lock().unwrap_or_else(|e| e.into_inner());
    let dir = temp_dir("pipeline");
    let server = start_server(&dir, 100.0);
    let items: Vec<String> = (0..8)
        .map(|i| format!(r#"{{"user":{},"id":{i},"x":{}.5,"y":1.0}}"#, i % 3, i % 4))
        .collect();
    let body = format!("[{}]", items.join(","));
    let request = format!(
        "POST /protect HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let response = raw_exchange(server.local_addr(), &request);
    assert!(response.contains("200 OK"), "{response}");
    assert_eq!(
        response.matches(r#""status":"served""#).count(),
        8,
        "{response}"
    );
    let outcome = server.shutdown();
    assert_eq!(outcome.report.served(), 8);
    std::fs::remove_dir_all(&dir).ok();
}

/// A protect array is one admission group: a 32-point trajectory from
/// one user (one shard) is served whole, in order, by one group commit,
/// though it is eight times the batch and as long as the queue.
#[test]
fn a_single_user_array_is_served_by_one_group_commit() {
    let _guard = NET_FAULTS.lock().unwrap_or_else(|e| e.into_inner());
    let dir = temp_dir("group");
    let server = start_server(&dir, 100.0);
    let addr = server.local_addr();
    let items: Vec<String> = (0..32)
        .map(|i| format!(r#"{{"user":6,"id":{i},"x":{}.5,"y":{}.25}}"#, i % 8, i % 7))
        .collect();
    let body = format!("[{}]", items.join(","));
    let request = format!(
        "POST /protect HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let response = raw_exchange(addr, &request);
    assert_eq!(
        response.matches(r#""status":"served""#).count(),
        32,
        "{response}"
    );
    let report = raw_exchange(addr, "GET /report HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
    assert_eq!(report_count(&report, "served"), 32, "{report}");
    assert_eq!(report_count(&report, "group_commits"), 1, "{report}");
    let outcome = server.shutdown();
    outcome.checkpoint.expect("checkpoint");
    assert_eq!(outcome.report.group_commits, 1);
    assert!((server_spent(&dir) - 32.0 * EPS).abs() < 1e-9);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn connections_beyond_the_cap_are_shed_with_an_explicit_503() {
    let _guard = NET_FAULTS.lock().unwrap_or_else(|e| e.into_inner());
    let dir = temp_dir("conn-cap");
    let config = WireConfig {
        max_connections: 1,
        ..wire_config()
    };
    let server = WireServer::start(
        mechanism(),
        sharded(&dir, 100.0, 2),
        Arc::new(SystemClock),
        config,
        "127.0.0.1:0",
    )
    .expect("bind");
    let addr = server.local_addr();
    // First connection occupies the only slot (prove it works end to
    // end), then further connections must get the explicit refusal.
    let mut held = TcpStream::connect(addr).expect("first connect");
    held.set_read_timeout(Some(Duration::from_millis(2_000)))
        .expect("timeout");
    held.write_all(protect_request(1, 1).as_bytes())
        .expect("write");
    let mut buf = [0u8; 4096];
    let n = held.read(&mut buf).expect("first connection serves");
    assert!(String::from_utf8_lossy(&buf[..n]).contains("served"));

    let mut refused = 0u64;
    for _ in 0..3 {
        let response = raw_exchange(addr, ""); // refusal arrives unprompted
        if response.contains("too_many_connections") {
            refused += 1;
        }
    }
    assert!(refused >= 1, "no connection saw the 503 refusal");
    drop(held);
    let outcome = server.shutdown();
    assert!(outcome.report.shed_net >= refused);
    assert_eq!(outcome.report.served(), 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// The server closes a connection right after refusing it at the accept
/// cap. A loadgen that reused it would tear its retry, read the tear as
/// primary loss, and promote the standby away from a healthy primary.
#[test]
fn connection_cap_refusals_never_fail_over_from_a_healthy_primary() {
    let _guard = NET_FAULTS.lock().unwrap_or_else(|e| e.into_inner());
    failpoint::reset_global();
    let primary_dir = temp_dir("cap-primary");
    let standby_dir = temp_dir("cap-standby");
    let standby = start_follower(&standby_dir, 100.0);
    let primary = WireServer::start(
        mechanism(),
        sharded(&primary_dir, 100.0, 4),
        Arc::new(SystemClock),
        WireConfig {
            max_connections: 1,
            ..wire_config()
        },
        "127.0.0.1:0",
    )
    .expect("bind primary");
    let report = run_load(&ClientConfig {
        connections: 3,
        failover: Some(standby.local_addr().to_string()),
        ..client_config(primary.local_addr(), 30)
    })
    .expect("capped load reconciles");
    assert_eq!(report.served, 30);
    assert_eq!(report.torn_seen, 0, "a refused connection was reused");
    assert!(!report.failed_over, "failed over from a healthy primary");
    assert!(standby.standby(), "the standby was promoted");
    let outcome = primary.shutdown();
    assert_eq!(outcome.report.served(), 30);
    assert!(outcome.report.shed_net >= 1, "the cap refused nothing");
    standby.shutdown();
    std::fs::remove_dir_all(&primary_dir).ok();
    std::fs::remove_dir_all(&standby_dir).ok();
}

#[test]
fn failed_shard_refuses_over_the_wire_while_healthy_shards_serve() {
    let _guard = NET_FAULTS.lock().unwrap_or_else(|e| e.into_inner());
    let dir = temp_dir("shard-refuse");
    // Populate all four shards, then corrupt one on disk.
    {
        let ledger = sharded(&dir, 100.0, 4);
        for k in 0..4usize {
            let user = (0..64u64)
                .find(|&u| shard_of(u, 4) == k)
                .expect("user for shard");
            ledger.try_spend(user, EPS).expect("seed spend");
        }
        ledger.checkpoint_all().expect("checkpoint");
    }
    let bad = 2usize;
    let snap = dir.join(format!("shard-{bad}")).join("ledger.snap");
    let mut bytes = std::fs::read(&snap).expect("read snap");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&snap, &bytes).expect("corrupt snap");

    let server = WireServer::start(
        mechanism(),
        sharded(&dir, 100.0, 4),
        Arc::new(SystemClock),
        wire_config(),
        "127.0.0.1:0",
    )
    .expect("bind");
    assert_eq!(server.failed_shards().len(), 1);
    let addr = server.local_addr();

    let unlucky = (0..64)
        .find(|&u| shard_of(u, 4) == bad)
        .expect("user on bad shard");
    let lucky = (0..64)
        .find(|&u| shard_of(u, 4) != bad)
        .expect("user off bad shard");

    // The outage is typed, retryable, and names the shard — distinct
    // from a journal fault on a serving shard.
    let refusal = raw_exchange(addr, &protect_request(unlucky, 1));
    assert!(refusal.contains("503"), "{refusal}");
    assert!(
        refusal.contains(r#""status":"shard_unavailable""#),
        "{refusal}"
    );
    assert!(refusal.contains(r#""shard":2"#), "{refusal}");

    let served = raw_exchange(addr, &protect_request(lucky, 2));
    assert!(served.contains(r#""status":"served""#), "{served}");

    // /report exposes the failed shard for operators.
    let report = raw_exchange(addr, "GET /report HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
    assert!(
        report.contains(r#""failed_shards":[{"shard":2,"#),
        "{report}"
    );
    // Readiness reflects the terminal failure (repair is off here).
    let health = raw_exchange(addr, "GET /healthz HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
    assert!(health.contains("503"), "{health}");
    assert!(health.contains(r#""status":"degraded""#), "{health}");
    assert!(health.contains(r#""failed":1"#), "{health}");

    let outcome = server.shutdown();
    assert_eq!(outcome.report.served(), 1);
    assert_eq!(outcome.report.refused_shard, 1, "typed shard refusal");
    assert_eq!(outcome.report.journal_faults, 0);
    assert_eq!(outcome.report.unaccounted_shards, 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// Full online round trip, no restart: a shard whose WAL header was
/// corrupted opens quarantined, `GET /healthz` reports degraded,
/// `POST /repair` scavenges it back, readiness returns to `ready`, and
/// the very (user, id) that was refused during the outage is *served* on
/// retry — the retryable refusal released its idempotency key instead of
/// pinning the outage as that request's permanent answer.
#[test]
fn repair_over_the_wire_heals_a_quarantined_shard() {
    use geoind_serve::shard::RepairMode;
    let _guard = NET_FAULTS.lock().unwrap_or_else(|e| e.into_inner());
    let dir = temp_dir("wire-repair");
    let bad = 2usize;
    let unlucky = (0..64)
        .find(|&u| shard_of(u, 4) == bad)
        .expect("user on bad shard");
    {
        let ledger = sharded(&dir, 100.0, 4);
        // No checkpoint: the spend lives in the WAL the corruption hits.
        ledger.try_spend(unlucky, EPS).expect("seed spend");
    }
    let wal = dir.join(format!("shard-{bad}")).join("ledger.wal.1");
    let mut bytes = std::fs::read(&wal).expect("read wal");
    bytes[9] ^= 0x20; // header integrity word: open refuses, scavenge salvages
    std::fs::write(&wal, &bytes).expect("corrupt wal header");

    let ledger = ShardedLedger::open_with_repair(
        &dir,
        LedgerConfig {
            cap_per_user: 100.0,
            epoch: 0,
            compact_after: 0,
        },
        4,
        RepairMode::Manual,
    );
    let server = WireServer::start(
        mechanism(),
        ledger,
        Arc::new(SystemClock),
        wire_config(),
        "127.0.0.1:0",
    )
    .expect("bind");
    let addr = server.local_addr();

    let health = raw_exchange(addr, "GET /healthz HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
    assert!(health.contains("503"), "{health}");
    assert!(health.contains(r#""status":"degraded""#), "{health}");
    assert!(health.contains(r#""quarantined":1"#), "{health}");

    let refusal = raw_exchange(addr, &protect_request(unlucky, 7));
    assert!(
        refusal.contains(r#""status":"shard_unavailable""#),
        "{refusal}"
    );

    let kicked = raw_exchange(addr, "POST /repair HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
    assert!(kicked.contains(r#""started":1"#), "{kicked}");

    // Readiness flips back once the scavenge commits and the standard
    // open verifies it.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let health = raw_exchange(addr, "GET /healthz HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
        if health.contains(r#""status":"ready""#) {
            assert!(health.contains("200"), "{health}");
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "repair never completed: {health}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // Same (user, id) as the refusal: served now, not replayed.
    let served = raw_exchange(addr, &protect_request(unlucky, 7));
    assert!(served.contains(r#""status":"served""#), "{served}");

    let outcome = server.shutdown();
    assert!(outcome.report.refused_shard >= 1);
    assert_eq!(outcome.report.repaired_shards, 1);
    assert_eq!(outcome.report.served(), 1);
    // Fail-closed across the round trip: the pre-outage spend and the
    // post-repair serve are both on the books, each exactly once.
    let reopened = sharded(&dir, 100.0, 4);
    let spent = reopened.spent(unlucky).expect("repaired shard serves");
    assert!(
        (spent - 2.0 * EPS).abs() < 1e-9,
        "salvage lost or double-charged: {spent}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A keep-alive connection that goes quiet is reaped once it idles past
/// `idle_timeout_ms`; the listener itself keeps serving new connections.
#[test]
fn idle_connections_are_reaped_after_the_timeout() {
    let _guard = NET_FAULTS.lock().unwrap_or_else(|e| e.into_inner());
    let dir = temp_dir("idle-reap");
    let config = WireConfig {
        read_timeout_ms: 25,
        idle_timeout_ms: 100,
        ..wire_config()
    };
    let server = WireServer::start(
        mechanism(),
        sharded(&dir, 100.0, 2),
        Arc::new(SystemClock),
        config,
        "127.0.0.1:0",
    )
    .expect("bind");
    let addr = server.local_addr();

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    stream
        .write_all(protect_request(1, 1).as_bytes())
        .expect("write");
    let mut buf = [0u8; 4096];
    let n = stream.read(&mut buf).expect("served before idling");
    assert!(n > 0, "no response before idle");

    // Go quiet: the reaper must close the socket (EOF) well before the
    // client's own 5s timeout would fire.
    let start = std::time::Instant::now();
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break, // reaped
            Ok(_) => {}     // tail of the response frame
            Err(e) => panic!("expected EOF from the idle reaper, got {e}"),
        }
    }
    assert!(
        start.elapsed() < Duration::from_secs(4),
        "idle reap took {:?}",
        start.elapsed()
    );

    // Only the idle connection died; the server still serves.
    let fresh = raw_exchange(addr, &protect_request(2, 2));
    assert!(fresh.contains(r#""status":"served""#), "{fresh}");
    let outcome = server.shutdown();
    assert_eq!(outcome.report.served(), 2);
    std::fs::remove_dir_all(&dir).ok();
}

/// Shutdown ends idle keep-alive connections at once rather than
/// waiting out their read deadline, and wakes the accept loop of a
/// server bound to a wildcard address over loopback.
#[test]
fn shutdown_ends_idle_keep_alive_connections_at_once() {
    let _guard = NET_FAULTS.lock().unwrap_or_else(|e| e.into_inner());
    let dir = temp_dir("idle-drain");
    let server = WireServer::start(
        mechanism(),
        sharded(&dir, 100.0, 2),
        Arc::new(SystemClock),
        WireConfig {
            read_timeout_ms: 5_000,
            ..wire_config()
        },
        "0.0.0.0:0",
    )
    .expect("bind");
    let addr = SocketAddr::from((Ipv4Addr::LOCALHOST, server.local_addr().port()));
    let mut idle: Vec<TcpStream> = (0..3)
        .map(|_| {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .expect("timeout");
            stream
                .write_all(b"GET /healthz HTTP/1.1\r\nContent-Length: 0\r\n\r\n")
                .expect("write");
            let response = read_one_frame(&mut stream);
            assert!(response.contains("200 OK"), "{response}");
            stream
        })
        .collect();
    let started = Instant::now();
    let outcome = server.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "shutdown took {:?} with three idle connections",
        started.elapsed()
    );
    outcome.checkpoint.expect("checkpoint");
    for stream in &mut idle {
        assert_eq!(
            stream.read(&mut [0u8; 64]).expect("closed, not timed out"),
            0
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Settled outcomes expire as later ones settle, whichever connection
/// they come from: a connection that never idles still enforces the TTL.
#[test]
fn idempotency_ttl_expires_outcomes_on_a_busy_connection() {
    let _guard = NET_FAULTS.lock().unwrap_or_else(|e| e.into_inner());
    let dir = temp_dir("idem-ttl");
    let clock = Arc::new(ManualClock::new(0));
    let server = WireServer::start(
        mechanism(),
        sharded(&dir, 100.0, 4),
        clock.clone(),
        WireConfig {
            idem_ttl_ms: 100,
            read_timeout_ms: 60_000,
            ..wire_config()
        },
        "127.0.0.1:0",
    )
    .expect("bind");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_millis(2_000)))
        .expect("timeout");
    let mut settle = |users: std::ops::Range<u64>| {
        for user in users {
            stream
                .write_all(protect_request(user, 1).as_bytes())
                .expect("write");
            let response = read_one_frame(&mut stream);
            assert!(response.contains(r#""status":"served""#), "{response}");
        }
    };
    settle(0..10);
    clock.advance(5_000_000_000);
    settle(10..20);
    assert_eq!(server.idem_entries(), 10, "the first ten outlived the TTL");
    assert_eq!(server.report().idem_evicted, 10);
    let outcome = server.shutdown();
    assert_eq!(outcome.report.served(), 20);
    std::fs::remove_dir_all(&dir).ok();
}

/// Read exactly one HTTP response frame off an already-open stream
/// (keep-alive counterpart of [`raw_exchange`]).
fn read_one_frame(stream: &mut TcpStream) -> String {
    let mut pending = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        if let Some(end) = frame_end(&pending) {
            return String::from_utf8_lossy(&pending[..end]).into_owned();
        }
        match stream.read(&mut buf) {
            Ok(0) => return String::from_utf8_lossy(&pending).into_owned(),
            Ok(n) => pending.extend_from_slice(&buf[..n]),
            Err(e) => panic!("keep-alive read failed with {pending:?} buffered: {e}"),
        }
    }
}

fn protect_request_auth(user: u64, id: u64, token: &str) -> String {
    let body = format!(r#"{{"user":{user},"id":{id},"x":1.0,"y":2.0}}"#);
    format!(
        "POST /protect HTTP/1.1\r\nAuthorization: Bearer {token}\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

/// A primary with a shipper attached: spends require the follower at
/// `--max-replica-lag` semantics (fail-closed before registration).
fn start_primary(dir: &std::path::Path, cap: f64, max_lag: u64) -> WireServer {
    let ledger = sharded(dir, cap, 4);
    let shipper = Shipper::new(ShipperConfig {
        dir: Some(dir.to_path_buf()),
        shards: 4,
        epoch: 0,
        max_lag,
        timeout_ms: 2_000,
        auth_token: None,
    })
    .expect("build shipper");
    assert!(ledger.attach_shipper(Arc::new(shipper)));
    WireServer::start(
        mechanism(),
        ledger,
        Arc::new(SystemClock),
        wire_config(),
        "127.0.0.1:0",
    )
    .expect("bind primary")
}

fn start_follower(dir: &std::path::Path, cap: f64) -> WireServer {
    WireServer::start(
        mechanism(),
        sharded(dir, cap, 4),
        Arc::new(SystemClock),
        WireConfig {
            standby: true,
            ..wire_config()
        },
        "127.0.0.1:0",
    )
    .expect("bind follower")
}

/// Satellite: Bearer auth. Requests without the token (or with a wrong
/// one) get a typed `401` that burns no budget; the right token — raw
/// or through the loadgen client — serves; `/healthz` stays open for
/// unauthenticated failover probes.
#[test]
fn bearer_auth_rejects_wrong_tokens_and_admits_the_right_one() {
    let _guard = NET_FAULTS.lock().unwrap_or_else(|e| e.into_inner());
    let dir = temp_dir("auth");
    let server = WireServer::start(
        mechanism(),
        sharded(&dir, 100.0, 4),
        Arc::new(SystemClock),
        WireConfig {
            auth_token: Some("open-sesame".into()),
            ..wire_config()
        },
        "127.0.0.1:0",
    )
    .expect("bind");
    let addr = server.local_addr();

    // The loadgen client carries the token and reconciles exactly (it
    // runs first: reconciliation demands the client's tallies match the
    // server's gate counters with nothing out of band).
    let report = run_load(&ClientConfig {
        auth_token: Some("open-sesame".into()),
        ..client_config(addr, 10)
    })
    .expect("authed load reconciles");
    assert_eq!(report.served, 10);

    // User/id outside the loadgen's (user = id % users, id < requests)
    // space above, so this raw serve is never a replay of one of its ids.
    let bare = raw_exchange(addr, &protect_request(42, 10_001));
    assert!(bare.contains("401"), "{bare}");
    assert!(bare.contains(r#""status":"unauthorized""#), "{bare}");
    let wrong = raw_exchange(addr, &protect_request_auth(42, 10_001, "open-sesame-NOT"));
    assert!(wrong.contains("401"), "{wrong}");
    assert!(
        (server.ledger_total_spent() - 10.0 * EPS).abs() < 1e-9,
        "401s must not spend"
    );

    let right = raw_exchange(addr, &protect_request_auth(42, 10_001, "open-sesame"));
    assert!(right.contains(r#""status":"served""#), "{right}");

    // Health stays unauthenticated: failover probes read standby state
    // without holding the secret.
    let health = raw_exchange(addr, "GET /healthz HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
    assert!(!health.contains("401"), "{health}");
    assert!(health.contains(r#""standby":false"#), "{health}");

    let outcome = server.shutdown();
    assert_eq!(outcome.report.unauthorized, 2);
    assert_eq!(outcome.report.served(), 11);
    assert!(
        (server_spent(&dir) - 11.0 * EPS).abs() < 1e-9,
        "unauthorized requests reached the ledger"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite regression: a keep-alive client posting ever-fresh ids for
/// one user must not grow the idempotency table without bound — settled
/// entries are capped per user, oldest evicted first, and the evictions
/// are counted.
#[test]
fn idempotency_table_stays_bounded_under_unique_ids() {
    let _guard = NET_FAULTS.lock().unwrap_or_else(|e| e.into_inner());
    let dir = temp_dir("idem-bound");
    let cap = 8usize;
    let server = WireServer::start(
        mechanism(),
        sharded(&dir, 1_000.0, 4),
        Arc::new(SystemClock),
        WireConfig {
            idem_max_per_user: cap,
            idem_ttl_ms: 0, // isolate the cap: no TTL sweeping
            ..wire_config()
        },
        "127.0.0.1:0",
    )
    .expect("bind");

    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_millis(2_000)))
        .expect("timeout");
    let total = 40u64;
    for id in 0..total {
        stream
            .write_all(protect_request(1, id).as_bytes())
            .expect("write");
        let response = read_one_frame(&mut stream);
        assert!(response.contains(r#""status":"served""#), "{response}");
    }
    assert!(
        server.idem_entries() <= cap,
        "idempotency table grew to {} entries (cap {cap})",
        server.idem_entries()
    );

    let outcome = server.shutdown();
    assert_eq!(outcome.report.served(), total);
    assert_eq!(
        outcome.report.idem_evicted,
        total - cap as u64,
        "every settle past the cap evicts exactly the oldest entry"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Tentpole round trip over real sockets: a primary refuses spends
/// before any follower registers (fail-closed), ships every served
/// spend synchronously once one does, the follower refuses `/protect`
/// while in standby, promotion opens it for serving, and the stale
/// primary's very next spend is fenced — with the books on both
/// directories proving zero double-spend.
#[test]
fn replicated_standby_promotes_and_fences_the_stale_primary() {
    let _guard = NET_FAULTS.lock().unwrap_or_else(|e| e.into_inner());
    failpoint::reset_global();
    let primary_dir = temp_dir("repl-primary");
    let follower_dir = temp_dir("repl-follower");
    let follower = start_follower(&follower_dir, 100.0);
    let primary = start_primary(&primary_dir, 100.0, 8);
    let p_addr = primary.local_addr();
    let f_addr = follower.local_addr();

    // Fail-closed: with a lag bound configured and nobody to ship to,
    // the primary refuses rather than serving with unbounded lag.
    let lagged = raw_exchange(p_addr, &protect_request(1, 7_777));
    assert!(lagged.contains("503"), "{lagged}");
    assert!(lagged.contains(r#""status":"replica_lag""#), "{lagged}");
    assert_eq!(
        primary.ledger_total_spent(),
        0.0,
        "refusal must pre-empt the spend"
    );

    register_with_primary(&p_addr.to_string(), &f_addr.to_string(), None, 2_000)
        .expect("follower registers");

    // A standby never spends on its own.
    let standby = raw_exchange(f_addr, &protect_request(1, 7_778));
    assert!(standby.contains(r#""status":"standby""#), "{standby}");

    let report = run_load(&client_config(p_addr, 20)).expect("replicated load reconciles");
    assert_eq!(report.served, 20);

    // Every serve was acked durable on the follower before answering.
    let f_report = raw_exchange(f_addr, "GET /report HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
    assert!(f_report.contains(r#""replica_applied":20"#), "{f_report}");

    let promoted = raw_exchange(
        f_addr,
        "POST /promote HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
    );
    assert!(promoted.contains(r#""status":"promoted""#), "{promoted}");
    assert!(promoted.contains(r#""gen":2"#), "{promoted}");
    assert!(!follower.standby(), "promotion opens /protect");
    let f_served = raw_exchange(f_addr, &protect_request(1, 9_000));
    assert!(f_served.contains(r#""status":"served""#), "{f_served}");

    // The stale primary's next spend journals locally, ships, and is
    // refused by the newer-generation follower: hard-fenced, refused,
    // and refused again without even reaching the wire.
    let fenced = raw_exchange(p_addr, &protect_request(1, 9_001));
    assert!(fenced.contains("503"), "{fenced}");
    assert!(fenced.contains(r#""status":"fenced""#), "{fenced}");
    let fenced_again = raw_exchange(p_addr, &protect_request(2, 9_002));
    assert!(
        fenced_again.contains(r#""status":"fenced""#),
        "{fenced_again}"
    );

    let p_outcome = primary.shutdown();
    assert_eq!(p_outcome.report.served(), 20);
    assert!(p_outcome.report.replica_lag >= 1);
    assert!(p_outcome.report.fenced >= 2);
    let f_outcome = follower.shutdown();
    assert_eq!(f_outcome.report.served(), 1, "one post-promotion serve");
    assert!(f_outcome.report.fenced >= 1, "the stale batch was counted");

    // Zero double-spend: the follower holds exactly the 20 replicated
    // spends plus its own serve. The fenced primary's first refused
    // spend is journaled locally (over-counting is the safe direction);
    // the second was pre-empted before spending.
    assert!(
        (server_spent(&follower_dir) - 21.0 * EPS).abs() < 1e-9,
        "follower books drifted: {}",
        server_spent(&follower_dir)
    );
    assert!(
        (server_spent(&primary_dir) - 21.0 * EPS).abs() < 1e-9,
        "primary books drifted: {}",
        server_spent(&primary_dir)
    );
    std::fs::remove_dir_all(&primary_dir).ok();
    std::fs::remove_dir_all(&follower_dir).ok();
}

/// Tentpole fault sweep: each `serve.repl.*` failpoint fires mid-run
/// and the system still reconciles exactly, with the follower's books
/// matching the primary's serve count — retransmits dedup by sequence,
/// so a lost ack or torn ship never double-spends.
#[test]
fn every_replication_failpoint_preserves_exact_books_on_both_nodes() {
    let _guard = NET_FAULTS.lock().unwrap_or_else(|e| e.into_inner());
    for site in [
        "serve.repl.ship_torn",
        "serve.repl.ack_lost",
        "serve.repl.stale_gen",
    ] {
        failpoint::reset_global();
        let tag = site.replace('.', "-");
        let primary_dir = temp_dir(&format!("sweep-{tag}-p"));
        let follower_dir = temp_dir(&format!("sweep-{tag}-f"));
        let follower = start_follower(&follower_dir, 100.0);
        let primary = start_primary(&primary_dir, 100.0, 8);
        register_with_primary(
            &primary.local_addr().to_string(),
            &follower.local_addr().to_string(),
            None,
            2_000,
        )
        .expect("follower registers");

        // Two consecutive ship failures: the in-request retry loop must
        // absorb them without surfacing a refusal to the client.
        failpoint::arm_global(site, FailSpec::after(2, 2));
        let result = run_load(&client_config(primary.local_addr(), 20));
        let fired = failpoint::fired(site);
        failpoint::disarm_global(site);
        let report = result.unwrap_or_else(|e| panic!("{site}: {e}"));
        assert_eq!(report.served, 20, "{site}");
        assert_eq!(report.total(), 20, "{site}");
        assert!(fired > 0, "{site} never fired");

        let p_outcome = primary.shutdown();
        assert_eq!(p_outcome.report.served(), 20, "{site}");
        follower.shutdown();
        assert!(
            (server_spent(&primary_dir) - 20.0 * EPS).abs() < 1e-9,
            "{site}: primary spend drifted"
        );
        assert!(
            (server_spent(&follower_dir) - 20.0 * EPS).abs() < 1e-9,
            "{site}: follower double-applied or lost records"
        );
        std::fs::remove_dir_all(&primary_dir).ok();
        std::fs::remove_dir_all(&follower_dir).ok();
    }
    failpoint::reset_global();
}

/// The `"key":N` count in a `/report` body.
fn report_count(report: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\":");
    let at = report
        .find(&needle)
        .unwrap_or_else(|| panic!("{key} missing from {report}"))
        + needle.len();
    report[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("{key} is not a count in {report}"))
}

/// Background snapshot folds are visible to an operator: `/report`
/// counts them as they commit, with no fault among them, and the final
/// report and its log line carry the same counters.
#[test]
fn report_counts_background_folds() {
    let _guard = NET_FAULTS.lock().unwrap_or_else(|e| e.into_inner());
    let dir = temp_dir("folds");
    let ledger = ShardedLedger::open(
        &dir,
        LedgerConfig {
            cap_per_user: 100.0,
            epoch: 0,
            compact_after: 4,
        },
        4,
    );
    let server = WireServer::start(
        mechanism(),
        ledger,
        Arc::new(SystemClock),
        wire_config(),
        "127.0.0.1:0",
    )
    .expect("bind");
    let addr = server.local_addr();
    // One user, one shard: every fourth spend starts a fold, which
    // commits in the background while the exchanges go on.
    let mut report = String::new();
    for id in 0..40 {
        let response = raw_exchange(addr, &protect_request(3, id));
        assert!(response.contains(r#""status":"served""#), "{response}");
        report = raw_exchange(addr, "GET /report HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
        if report_count(&report, "folds") > 0 {
            break;
        }
    }
    let folded = report_count(&report, "folds");
    assert!(folded > 0, "{report}");
    assert_eq!(report_count(&report, "fold_faults"), 0, "{report}");
    // `/report` renders its fields and its log line from one snapshot.
    assert!(
        report.contains(&format!(" folds={folded} fold_faults=0")),
        "{report}"
    );
    let outcome = server.shutdown();
    outcome.checkpoint.expect("checkpoint");
    let last = outcome.report;
    assert!(last.folds >= folded, "{last:?}");
    assert_eq!(last.fold_faults, 0, "{last:?}");
    assert!(
        last.log_line()
            .contains(&format!(" folds={} fold_faults=0 ", last.folds)),
        "{}",
        last.log_line()
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `GET /report` and its embedded log line are both rendered from
/// `ServeReport::counters`: every `(name, value)` appears in each, the
/// JSON's counts come first and in list order, and none is missing from
/// either rendering.
#[test]
fn report_and_its_log_line_carry_every_counter() {
    let _guard = NET_FAULTS.lock().unwrap_or_else(|e| e.into_inner());
    let dir = temp_dir("counters");
    // The cap fits exactly two reports per user.
    let server = start_server(&dir, 2.0 * EPS);
    let addr = server.local_addr();
    for id in 0..2 {
        let response = raw_exchange(addr, &protect_request(4, id));
        assert!(response.contains(r#""status":"served""#), "{response}");
    }
    let refused = raw_exchange(addr, &protect_request(4, 2));
    assert!(refused.contains("budget_exhausted"), "{refused}");
    let replay = raw_exchange(addr, &protect_request(4, 0));
    assert!(replay.contains(r#""status":"served""#), "{replay}");

    let response = raw_exchange(addr, "GET /report HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
    let (_, body) = response.split_once("\r\n\r\n").expect("a framed response");
    let parsed = Json::parse(body).expect("/report is JSON");
    let Json::Obj(fields) = &parsed else {
        panic!("/report is not an object: {body}");
    };
    let log_line = parsed
        .get("log_line")
        .and_then(Json::as_str)
        .expect("/report carries its log line");
    let tokens: Vec<&str> = log_line.split(' ').collect();
    let report = server.report();
    let counters = report.counters();
    for (name, value) in counters {
        assert_eq!(
            parsed.get(name).and_then(Json::as_u64),
            Some(value),
            "/report {name}: {body}"
        );
        assert!(
            tokens.contains(&format!("{name}={value}").as_str()),
            "log line {name}={value}: {log_line}"
        );
    }
    let names: Vec<&str> = fields.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(
        names[..counters.len()],
        counters.map(|(name, _)| name),
        "/report lists the counts first, in list order"
    );
    assert_eq!(
        tokens.len(),
        counters.len() + 1,
        "the log line is its prefix and the list: {log_line}"
    );
    assert_eq!(
        (
            report.served(),
            report.refused_budget,
            report.retried,
            report.total()
        ),
        (2, 1, 1, 3)
    );
    assert_eq!(report.sampled_flat, 2, "{log_line}");
    server.shutdown().checkpoint.expect("checkpoint");
    std::fs::remove_dir_all(&dir).ok();
}
