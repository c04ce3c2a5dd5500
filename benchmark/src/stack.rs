//! The system under test, built the way `geoind serve --listen` builds
//! it: `MsmMechanism::builder` → `precompute_jobs` →
//! `ResilientMechanism::new`, `ShardedLedger::open_with_repair` on a
//! real-disk directory, an optional `Shipper` with a warm standby that
//! registers through `register_with_primary`, and `WireServer::start`.
//! Unlike the CLI it fixes the index height, which `geoind serve` cannot.

use crate::http::{self, Conn};
use crate::loadgen::{Clock, Outcome, RealClock, Session};
use crate::workload::{self, Exchange, Generator, IdMint, Workload};
use geoind::data::checkin::Dataset;
use geoind::data::prior::GridPrior;
use geoind::mechanisms::{AllocationStrategy, MsmMechanism, ResilientMechanism, Tier};
use geoind::serve::clock::SystemClock;
use geoind::serve::{
    register_with_primary, LedgerConfig, RepairMode, Response, ServeConfig, Server, ShardedLedger,
    Shipper, ShipperConfig, WireConfig, WireServer,
};
use geoind::spatial::geom::BBox;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn ledger_config() -> LedgerConfig {
    LedgerConfig {
        cap_per_user: workload::CAP_PER_USER,
        epoch: 0,
        // The `geoind serve` value: fold the WAL every 64 spends.
        compact_after: 64,
    }
}

/// Open a ledger directory as `geoind serve` does (repair on), refusing
/// one with any shard not serving.
pub fn open_ledger(dir: &Path) -> Result<ShardedLedger, String> {
    let ledger =
        ShardedLedger::open_with_repair(dir, ledger_config(), workload::SHARDS, RepairMode::Auto);
    match ledger.failed_shards().first() {
        None if ledger.health_counts().all_serving() => Ok(ledger),
        None => Err(format!("{}: a ledger shard is not serving", dir.display())),
        Some((k, e)) => Err(format!("{}: shard {k} failed recovery: {e}", dir.display())),
    }
}

/// Charge every user once into a fresh ledger at `dir`, so each shard's
/// snapshot already holds its full account set. Returns the total spend.
pub fn warm_up(dir: &Path, workers: usize) -> Result<f64, String> {
    let ledger = open_ledger(dir)?;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers.max(1) as u64)
            .map(|w| {
                let ledger = &ledger;
                s.spawn(move || -> Result<(), String> {
                    for user in (1..=workload::USERS).filter(|u| u % workers as u64 == w) {
                        ledger
                            .try_spend(user, workload::EPS)
                            .map_err(|e| format!("warm-up spend for user {user}: {e}"))?;
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("warm-up thread panicked"))
    })?;
    ledger
        .checkpoint_all()
        .map_err(|e| format!("warm-up checkpoint: {e}"))?;
    Ok(ledger.total_spent())
}

/// Recursive copy of a ledger directory (plain files only).
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("mkdir {}: {e}", to.display()))?;
    let entries = std::fs::read_dir(from).map_err(|e| format!("{}: {e}", from.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let target = to.join(entry.file_name());
        if entry.path().is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target)
                .map_err(|e| format!("copy {}: {e}", entry.path().display()))?;
        }
    }
    Ok(())
}

/// The mechanism builder, as `geoind serve` configures it but at fixed
/// height.
fn builder(city: &Dataset) -> geoind::mechanisms::msm::MsmBuilder {
    MsmMechanism::builder(
        city.domain(),
        GridPrior::from_dataset(city, workload::PRIOR_GRANULARITY),
    )
    .epsilon(workload::EPS)
    .granularity(workload::G)
    .strategy(AllocationStrategy::FixedHeight(workload::HEIGHT))
}

/// A mechanism provisioned from an exported channel bundle: every
/// channel is checksummed and re-certified on import, nothing is solved.
pub fn from_bundle(city: &Dataset, bundle: &[u8]) -> Result<MsmMechanism, String> {
    let msm = builder(city).build().map_err(|e| e.to_string())?;
    let report = msm
        .import_cache(&mut &bundle[..])
        .map_err(|e| format!("bundle import: {e}"))?;
    if report.loaded != workload::CHANNELS || !report.quarantined.is_empty() {
        return Err(format!(
            "bundle import loaded {} of {} channels, {} quarantined",
            report.loaded,
            workload::CHANNELS,
            report.quarantined.len()
        ));
    }
    Ok(msm)
}

fn wire_config(seed: u64, standby: bool) -> WireConfig {
    WireConfig {
        serve: serve_config(seed),
        standby,
        ..WireConfig::default()
    }
}

/// `geoind serve` defaults with `workers = nproc`.
pub fn serve_config(seed: u64) -> ServeConfig {
    ServeConfig {
        workers: crate::env::cores(),
        queue_capacity: 64,
        seed,
        batch: 8,
    }
}

pub fn shipper(dir: &Path) -> Result<Arc<Shipper>, String> {
    Shipper::new(ShipperConfig {
        dir: Some(dir.to_path_buf()),
        shards: workload::SHARDS,
        epoch: 0,
        max_lag: 64,
        timeout_ms: 2_000,
        auth_token: None,
    })
    .map(Arc::new)
    .map_err(|e| format!("starting the shipper: {e}"))
}

/// Start a warm standby on `dir` serving `bundle`'s channels.
pub fn start_standby(
    city: &Dataset,
    bundle: &[u8],
    dir: &Path,
    seed: u64,
) -> Result<WireServer, String> {
    let ladder = ResilientMechanism::new(from_bundle(city, bundle)?);
    WireServer::start(
        ladder,
        open_ledger(dir)?,
        Arc::new(SystemClock),
        wire_config(seed, true),
        "127.0.0.1:0",
    )
    .map_err(|e| format!("binding the standby: {e}"))
}

/// A running primary (and standby, when replicated).
pub struct Stack {
    pub primary: WireServer,
    pub follower: Option<WireServer>,
}

impl Stack {
    pub fn addr(&self) -> SocketAddr {
        self.primary.local_addr()
    }
}

/// What one set-up measured. Times are [`RealClock`] nanoseconds.
pub struct Setup {
    pub stack: Stack,
    /// Set-up time, excluding the untimed flat-table audit (and, when
    /// unreplicated, the bundle export that only the replays use).
    pub seconds: f64,
    pub precompute: (u64, u64),
    pub ledger_open: (u64, u64),
    pub pivots: u64,
    pub rows_active_share: f64,
    /// The solved channels, exported for standbys and replays.
    pub bundle: Vec<u8>,
}

pub struct Dirs {
    pub primary: PathBuf,
    pub follower: PathBuf,
}

/// Build and start the stack, then serve its first report over HTTP.
pub fn setup(
    clock: &RealClock,
    city: &Dataset,
    w: Workload,
    dirs: &Dirs,
    seed: u64,
    first: (&Exchange, u64),
) -> Result<Setup, String> {
    let t0 = clock.now();
    let msm = builder(city).build().map_err(|e| e.to_string())?;
    let solved = msm
        .precompute_jobs(usize::MAX, crate::env::cores())
        .map_err(|e| format!("precompute: {e}"))?;
    let t1 = clock.now();
    if solved != workload::CHANNELS {
        return Err(format!(
            "precompute admitted {solved} channels, expected {}",
            workload::CHANNELS
        ));
    }
    // Untimed: audit the admitted alias tables against the certified
    // matrices (any drift fails the run).
    let audit = msm.audit_flat_tables();
    if !audit.failures.is_empty() || audit.flattened != workload::CHANNELS {
        return Err(format!(
            "flat-table audit: {} of {} flattened, {} failures (worst {:.3e})",
            audit.flattened,
            audit.channels,
            audit.failures.len(),
            audit.worst_error
        ));
    }
    let pivots = msm.lp_pivot_count();
    let (active, total) = msm
        .level_solve_stats()
        .iter()
        .fold((0u64, 0u64), |(a, t), (_, s)| {
            (a + s.rows_active, t + s.rows_total)
        });
    let mut bundle = Vec::new();
    let export = |bundle: &mut Vec<u8>| {
        msm.export_cache(bundle)
            .map_err(|e| format!("bundle export: {e}"))
    };
    if !w.replicated {
        export(&mut bundle)?;
    }
    let t2 = clock.now();
    if w.replicated {
        export(&mut bundle)?;
    }
    let ladder = ResilientMechanism::new(msm);
    let open_start = clock.now();
    let ledger = open_ledger(&dirs.primary)?;
    let ledger_open = (open_start, clock.now());
    if w.replicated {
        ledger.attach_shipper(shipper(&dirs.primary)?);
    }
    let primary = WireServer::start(
        ladder,
        ledger,
        Arc::new(SystemClock),
        wire_config(seed, false),
        "127.0.0.1:0",
    )
    .map_err(|e| format!("binding the primary: {e}"))?;
    let follower = if w.replicated {
        let follower = start_standby(city, &bundle, &dirs.follower, seed ^ 1)?;
        register(primary.local_addr(), follower.local_addr())?;
        Some(follower)
    } else {
        None
    };
    let stack = Stack { primary, follower };
    let (ex, id) = first;
    let mut conn = Conn::new(stack.addr());
    let outcome = protect(&mut conn, &workload::body(ex, id), city.domain());
    let t3 = clock.now();
    if outcome.served != outcome.reports {
        return Err(format!("first report not served: {:?}", outcome.error));
    }
    Ok(Setup {
        stack,
        seconds: ((t1 - t0) + (t3 - t2)) as f64 / 1e9,
        precompute: (t0, t1),
        ledger_open,
        pivots,
        rows_active_share: active as f64 / total.max(1) as f64,
        bundle,
    })
}

fn register(primary: SocketAddr, follower: SocketAddr) -> Result<(), String> {
    let mut last = String::new();
    for attempt in 0..20 {
        if attempt > 0 {
            std::thread::sleep(std::time::Duration::from_millis(100));
        }
        match register_with_primary(&primary.to_string(), &follower.to_string(), None, 2_000) {
            Ok(()) => return Ok(()),
            Err(e) => last = e,
        }
    }
    Err(format!("standby could not register: {last}"))
}

/// One `POST /protect` exchange and its checked outcome.
pub fn protect(conn: &mut Conn, body: &str, domain: BBox) -> Outcome {
    protect_raw(conn, &http::request("POST", "/protect", Some(body)), domain)
}

fn protect_raw(conn: &mut Conn, req: &[u8], domain: BBox) -> Outcome {
    let reports = if req.ends_with(b"]") {
        bytecount(req, b"\"user\"")
    } else {
        1
    };
    match conn.send(req) {
        Ok((200, body)) => {
            let (served, error) = http::served_points(&body, domain);
            Outcome {
                reports,
                served,
                error,
            }
        }
        Ok((status, body)) => Outcome {
            reports,
            served: 0,
            error: Some(format!("HTTP {status}: {body}")),
        },
        Err(e) => Outcome {
            reports,
            served: 0,
            error: Some(e),
        },
    }
}

fn bytecount(hay: &[u8], needle: &[u8]) -> u32 {
    hay.windows(needle.len()).filter(|w| *w == needle).count() as u32
}

/// Open-loop HTTP session over pre-rendered requests.
pub struct PreRendered<'a> {
    pub conn: Conn,
    pub requests: &'a [Vec<u8>],
    pub domain: BBox,
}

impl Session for PreRendered<'_> {
    fn exchange(&mut self, index: usize) -> Outcome {
        protect_raw(&mut self.conn, &self.requests[index], self.domain)
    }
}

/// Render each exchange's full HTTP request with fresh ids.
pub fn render(items: &[Exchange], mint: &IdMint) -> Vec<Vec<u8>> {
    items
        .iter()
        .map(|ex| {
            let body = workload::body(ex, mint.take(ex.points.len()));
            http::request("POST", "/protect", Some(&body))
        })
        .collect()
}

/// Closed-loop HTTP session drawing its own exchanges.
pub struct Drawn<'a> {
    pub conn: Conn,
    pub gen: Generator<'a>,
    pub mint: &'a IdMint,
    pub domain: BBox,
}

impl Session for Drawn<'_> {
    fn exchange(&mut self, _index: usize) -> Outcome {
        let ex = self.gen.exchange();
        let body = workload::body(&ex, self.mint.take(ex.points.len()));
        protect(&mut self.conn, &body, self.domain)
    }
}

/// A request the wire answers without touching queue, ledger or
/// sampler: an unknown path, answered `404` by the dispatcher. Its round
/// trip is the wire layer alone.
pub struct Probe {
    pub conn: Conn,
}

impl Session for Probe {
    fn exchange(&mut self, _index: usize) -> Outcome {
        match self
            .conn
            .send(&http::request("GET", "/bench-wire-probe", None))
        {
            Ok((404, _)) => Outcome {
                reports: 1,
                served: 1,
                error: None,
            },
            Ok((status, body)) => Outcome {
                reports: 1,
                served: 0,
                error: Some(format!("probe answered {status}: {body}")),
            },
            Err(e) => Outcome {
                reports: 1,
                served: 0,
                error: Some(e),
            },
        }
    }
}

/// The in-process path behind the wire: `Server::submit` each point of
/// the exchange, then wait for every response (the wire handler's
/// submit-all-then-settle order for arrays).
pub struct Submit<'a> {
    pub server: &'a Server,
    pub items: &'a [Exchange],
    pub domain: BBox,
}

impl Session for Submit<'_> {
    fn exchange(&mut self, index: usize) -> Outcome {
        let ex = &self.items[index];
        let mut out = Outcome {
            reports: ex.points.len() as u32,
            ..Outcome::default()
        };
        let pending: Vec<_> = ex
            .points
            .iter()
            .map(|&point| {
                self.server.submit(geoind::serve::Request {
                    user: ex.user,
                    point,
                    deadline_nanos: None,
                })
            })
            .collect();
        for rx in pending {
            match rx.map_err(|e| e.to_string()).and_then(|rx| {
                rx.recv()
                    .map_err(|_| "worker dropped the reply".to_string())
            }) {
                Ok(Response::Served { point, tier })
                    if tier == Tier::Optimal && http::inside(point, self.domain) =>
                {
                    out.served += 1;
                }
                Ok(other) => {
                    out.error.get_or_insert(format!("{other:?}"));
                }
                Err(e) => {
                    out.error.get_or_insert(e);
                }
            }
        }
        out
    }
}

/// Counters of one stack instance after its drain.
pub struct Drained {
    pub served: u64,
    pub applied: u64,
}

/// Drain a stack and check its books against what the client saw:
/// `/report` counters equal the client tallies, no request was answered
/// from the retry table, every served report went through the fused
/// tier-0 walk, and (replicated) the standby applied exactly the served
/// spends.
pub fn drain(stack: Stack, client_attempted: u64, client_served: u64) -> Result<Drained, String> {
    let mut errors = Vec::new();
    let mut conn = Conn::new(stack.addr());
    let report = conn
        .send(&http::request("GET", "/report", None))
        .map(|(_, body)| body)
        .map_err(|e| format!("GET /report: {e}"))?;
    let field = |key: &str| http::counter(&report, key).unwrap_or(u64::MAX);
    fn check(errors: &mut Vec<String>, what: &str, server: u64, client: u64) {
        if server != client {
            errors.push(format!("{what}: server {server}, expected {client}"));
        }
    }
    check(
        &mut errors,
        "/report served vs client",
        field("served"),
        client_served,
    );
    check(
        &mut errors,
        "/report total vs client attempted",
        field("total"),
        client_attempted,
    );
    check(&mut errors, "/report retried", field("retried"), 0);
    drop(conn);
    let outcome = stack.primary.shutdown();
    if let Err(e) = outcome.checkpoint {
        errors.push(format!("final checkpoint: {e}"));
    }
    let served = outcome.report.served();
    check(
        &mut errors,
        "drained served vs client",
        served,
        client_served,
    );
    check(
        &mut errors,
        "sampled_flat vs served",
        outcome.report.sampled_flat,
        served,
    );
    check(&mut errors, "replays after drain", outcome.retried, 0);
    let mut applied = 0;
    if let Some(follower) = stack.follower {
        let mut conn = Conn::new(follower.local_addr());
        let body = conn
            .send(&http::request("GET", "/report", None))
            .map(|(_, body)| body)
            .map_err(|e| format!("standby GET /report: {e}"))?;
        applied = http::counter(&body, "replica_applied").unwrap_or(u64::MAX);
        check(
            &mut errors,
            "standby replica_applied vs primary served",
            applied,
            served,
        );
        drop(conn);
        if let Err(e) = follower.shutdown().checkpoint {
            errors.push(format!("standby checkpoint: {e}"));
        }
    }
    if errors.is_empty() {
        Ok(Drained { served, applied })
    } else {
        Err(errors.join("; "))
    }
}

/// Check that a ledger directory's recovered spend is its warm-up spend
/// plus ε for every report charged to it since.
pub fn check_spend(dir: &Path, warm_total: f64, charged: u64) -> Result<f64, String> {
    let total = open_ledger(dir)?.total_spent();
    let want = warm_total + charged as f64 * workload::EPS;
    if (total - want).abs() > 1e-9 * want.max(1.0) {
        return Err(format!(
            "{}: recovered total_spent {total} != warm-up {warm_total} + {charged} x {}",
            dir.display(),
            workload::EPS
        ));
    }
    Ok(total)
}
