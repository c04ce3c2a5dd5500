//! The repository benchmark: serving workloads against the MSM stack at
//! g = 4, height 3, over loopback HTTP, with the ε ledger on real disk.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload point-durable --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Run it from the repository root; ledgers live under `.bench_work/` and
//! are removed on exit, spans of traced runs go to `.bench_trace/`.
//! `--trace 0` measures the end-to-end metrics; `--trace 1` replays the
//! same inputs into each layer's public entry point and reports the
//! per-layer breakdown. Human-readable lines come first; the last line
//! of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Any failed correctness gate exits 1.
//!
//! `BENCHMARK.json` lists `point-durable` and `batch-durable`.
//! `point-replicated` runs too, but its run-to-run spread on a shared
//! two-core machine exceeded the 25% regression bound, so it is not part
//! of the regression set; its replica layer is still timed in every
//! traced run.

mod env;
mod http;
mod loadgen;
mod stack;
mod stats;
mod trace;
mod workload;

use geoind::data::checkin::Dataset;
use geoind::data::synth::SyntheticCity;
use geoind::mechanisms::{ResilientMechanism, Tier};
use geoind::rng::SeededRng;
use geoind::serve::clock::SystemClock;
use geoind::serve::Server;
use http::Conn;
use loadgen::{Clock, RealClock, Record, Session};
use stack::{Dirs, Drawn, PreRendered, Probe, Submit};
use stats::{mean, median, quantile, sorted, tail_quantile};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use trace::Tracer;
use workload::{Exchange, Generator, IdMint, Workload};

const USAGE: &str =
    "usage: benchmark --workload point-durable|batch-durable|point-replicated --seed N --seconds S --trace 0|1";

/// Traced replays cover at least this many exchanges (so their p99 has
/// ten samples beyond it) and at least [`REPLAY_MIN_S`] of schedule.
const REPLAY_MIN: usize = 1_000;
const REPLAY_MIN_S: f64 = 2.5;
/// Ledger charges timed without and with a shipper.
const CHARGE_REPLAY: usize = 3_000;
const SHIP_REPLAY: usize = 1_200;
/// Head start before the first open-loop exchange is due.
const LEAD_NS: u64 = 20_000_000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = workload::find(name).ok_or(format!("unknown workload '{name}'"))?;
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "--seed: expected an integer")?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds: expected a number")?;
    if !(seconds.is_finite() && seconds >= 1.0) {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace: expected 0 or 1, got '{other}'")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// A run's result: the JSON line plus the gate verdicts.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        if value.is_finite() {
            println!("metric {name} = {value:.6} {unit}");
            self.metrics.push((name, value, unit));
        } else {
            self.problems.push(format!("{name} is not finite"));
        }
    }

    /// Record a gate result.
    fn gate(&mut self, result: Result<(), String>) {
        if let Err(e) = result {
            self.problems.push(e);
        }
    }

    fn count(&mut self, records: &[Record]) {
        let (attempted, failed) = loadgen::tally(records);
        self.attempted += attempted;
        self.failed += failed;
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let base = PathBuf::from(".bench_work");
    let work = base.join(format!("{}-{}", args.workload.name, std::process::id()));
    let result = std::fs::create_dir_all(&work)
        .map_err(|e| format!("creating {}: {e}", work.display()))
        .and_then(|()| run(&args, &work));
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(&base);
    match result {
        Ok(report) => {
            for p in &report.problems {
                println!("# GATE FAILED: {p}");
            }
            println!("{}", report.json());
            if !report.problems.is_empty() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// Inputs and state shared by both kinds of run.
struct Ctx<'a> {
    args: &'a Args,
    w: Workload,
    city: &'a Dataset,
    clock: RealClock,
    mint: IdMint,
    dirs: Dirs,
    warm: PathBuf,
    warm_total: f64,
    /// Open-loop schedule (due offsets, ns) and its exchanges.
    due: Vec<u64>,
    items: Vec<Exchange>,
    /// Draws each set-up's first report.
    firsts: Generator<'a>,
}

fn run(args: &Args, work: &Path) -> Result<Report, String> {
    // Probe first: the failpoint probe must run before any thread starts.
    let env = env::RunEnv::probe(work)?;
    let w = args.workload;
    println!(
        "# workload {} (seed {}, {} s): {} reports/s open loop, {} point(s) per exchange, {} ms limit{}",
        w.name,
        args.seed,
        args.seconds,
        w.rate,
        w.batch,
        w.limit_ms,
        if w.replicated { ", warm standby" } else { "" }
    );
    println!(
        "# env: cores={} ledger_fs={} profile={} commit={}",
        env.cores, env.ledger_fs, env.profile, env.commit
    );
    println!(
        "# stack: g={} height={} channels={} eps={} shards={} workers={} connections={}",
        workload::G,
        workload::HEIGHT,
        workload::CHANNELS,
        workload::EPS,
        workload::SHARDS,
        env.cores,
        env.cores
    );
    let city = &SyntheticCity::austin_like()
        .generate_with_size(workload::CITY_CHECKINS, workload::CITY_USERS);
    let warm = work.join("warm");
    let warm_total = stack::warm_up(&warm, env.cores)?;
    let dirs = Dirs {
        primary: work.join("primary"),
        follower: work.join("follower"),
    };
    stack::copy_dir(&warm, &dirs.primary)?;
    if w.replicated {
        stack::copy_dir(&warm, &dirs.follower)?;
    }
    env::settle_disk();
    let open_s = args.seconds * workload::OPEN_SHARE;
    let (due, items) = Generator::new(w, city, args.seed, 1).open_loop(open_s);
    let ctx = Ctx {
        args,
        w,
        city,
        clock: RealClock::new(),
        mint: IdMint::default(),
        dirs,
        warm,
        warm_total,
        due,
        items,
        firsts: Generator::new(w, city, args.seed, 0),
    };
    if args.trace {
        traced(ctx, work)
    } else {
        end_to_end(ctx)
    }
}

fn http_sessions<'a>(
    addr: std::net::SocketAddr,
    requests: &'a [Vec<u8>],
    domain: geoind::spatial::geom::BBox,
) -> impl Fn(usize) -> Box<dyn Session + 'a> + Sync + 'a {
    move |_| {
        Box::new(PreRendered {
            conn: Conn::new(addr),
            requests,
            domain,
        })
    }
}

/// Due offsets shifted to start `LEAD_NS` from now.
fn start_of(clock: &RealClock) -> u64 {
    clock.now() + LEAD_NS
}

fn latencies_ms(records: &[Record]) -> Vec<f64> {
    sorted(records.iter().map(|r| r.latency() as f64 / 1e6).collect())
}

fn first_errors(records: &[Record]) {
    for e in records.iter().filter_map(|r| r.error.as_deref()).take(3) {
        println!("# error: {e}");
    }
}

fn end_to_end(mut ctx: Ctx<'_>) -> Result<Report, String> {
    let (w, seed) = (ctx.w, ctx.args.seed);
    let domain = ctx.city.domain();
    let mut report = Report::default();
    let mut setup_s = Vec::new();
    let (mut charged, mut applied) = (0u64, 0u64);
    let mut live = None;
    for k in 0..workload::SETUPS {
        let ex = ctx.firsts.exchange();
        let id = ctx.mint.take(ex.points.len());
        let s = stack::setup(&ctx.clock, ctx.city, w, &ctx.dirs, seed, (&ex, id))?;
        let n = ex.points.len() as u64;
        report.attempted += n;
        setup_s.push(s.seconds);
        println!("# setup {}: {:.3} s", k + 1, s.seconds);
        if k + 1 < workload::SETUPS {
            let d = stack::drain(s.stack, n, n)?;
            charged += d.served;
            applied += d.applied;
        } else {
            live = Some((s.stack, n));
        }
    }
    let (stack, first_reports) = live.expect("at least one setup");

    // The phases alternate in WINDOWS segments: an open-loop stretch of
    // the schedule, then a closed-loop stretch. Interference from other
    // tenants comes in bursts of seconds; interleaving spreads both
    // phases' windows over the whole run, so one burst cannot take all
    // of either.
    let requests = stack::render(&ctx.items, &ctx.mint);
    let segments = stats::WINDOWS;
    let per_segment = ctx.items.len() / segments;
    let closed_ns =
        (ctx.args.seconds * (1.0 - workload::OPEN_SHARE) * 1e9) as u64 / segments as u64;
    let (city, mint) = (ctx.city, &ctx.mint);
    let (mut open, mut closed) = (Vec::new(), Vec::new());
    let (mut p50s, mut rates) = (Vec::new(), Vec::new());
    let mut peak_rss = 0.0;
    let mut closed_s = 0.0;
    for k in 0..segments {
        let end = if k + 1 == segments {
            ctx.items.len()
        } else {
            (k + 1) * per_segment
        };
        let range = k * per_segment..end;
        let base = ctx.due[range.start];
        let due: Vec<u64> = ctx.due[range.clone()].iter().map(|d| d - base).collect();
        let make = http_sessions(stack.addr(), &requests[range], domain);
        let part = loadgen::open_loop(&ctx.clock, &due, start_of(&ctx.clock), env::cores(), &make);
        p50s.push(median(&latencies_ms(&part)));
        open.extend(part);
        if k == 0 {
            // Peak memory after set-up plus a fixed amount of traffic:
            // later, the retry table grows with the closed loop's
            // throughput.
            peak_rss = env::peak_rss_mb();
        }
        let make_closed = |c: usize| -> Box<dyn Session + '_> {
            Box::new(Drawn {
                conn: Conn::new(stack.addr()),
                gen: Generator::new(w, city, seed, 100 + (k * segments + c) as u64),
                mint,
                domain,
            })
        };
        let (part, elapsed) = loadgen::closed_loop(
            &ctx.clock,
            ctx.clock.now() + closed_ns,
            env::cores(),
            &make_closed,
        );
        rates.push(loadgen::goodput(&part, w.limit_ns(), elapsed));
        closed_s += elapsed as f64 / 1e9;
        closed.extend(part);
    }
    report.count(&open);
    report.count(&closed);
    first_errors(&open);
    first_errors(&closed);

    let (a_open, f_open) = loadgen::tally(&open);
    let (a_closed, f_closed) = loadgen::tally(&closed);
    let attempted = first_reports + a_open + a_closed;
    let served = attempted - f_open - f_closed;
    match stack::drain(stack, attempted, served) {
        Ok(d) => {
            charged += d.served;
            applied += d.applied;
        }
        Err(e) => report.problems.push(e),
    }
    report.gate(stack::check_spend(&ctx.dirs.primary, ctx.warm_total, charged).map(drop));
    if w.replicated {
        report.gate(stack::check_spend(&ctx.dirs.follower, ctx.warm_total, applied).map(drop));
    }

    let lat = latencies_ms(&open);
    let late = sorted(open.iter().map(|r| r.late() as f64 / 1e6).collect());
    let show = |v: &[f64], digits: usize| {
        v.iter()
            .map(|x| format!("{x:.digits$}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "# open loop: {} exchanges, {} reports; p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms; lateness p99 {:.3} ms",
        open.len(),
        a_open,
        quantile(&lat, 500),
        quantile(&lat, 900),
        quantile(&lat, 990),
        quantile(&late, 990)
    );
    println!("# open-loop p50 per segment (ms): {}", show(&p50s, 3));
    println!(
        "# closed loop: {} exchanges, {} reports in {closed_s:.3} s",
        closed.len(),
        a_closed,
    );
    println!(
        "# closed-loop goodput per segment (reports/s): {}",
        show(&rates, 0)
    );
    println!(
        "# error_share = {:.6} ({} of {} reports not served)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    report.metric("setup_s", median(&setup_s), "s");
    report.metric("latency_p50_ms", stats::quiet_window(&p50s, true), "ms");
    report.metric(
        "goodput_rps",
        stats::quiet_window(&rates, false),
        "reports/s",
    );
    report.metric("peak_rss_mb", peak_rss, "MB");
    Ok(report)
}

/// Exchanges in the traced replays: enough for a supported p99 and at
/// least `REPLAY_MIN_S` of schedule.
fn replay_len(due: &[u64], min: usize, min_s: f64) -> usize {
    let by_time = due.partition_point(|&d| (d as f64) < min_s * 1e9);
    by_time.max(min).min(due.len())
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

fn traced(mut ctx: Ctx<'_>, work: &Path) -> Result<Report, String> {
    let (w, seed) = (ctx.w, ctx.args.seed);
    let domain = ctx.city.domain();
    let clock = &ctx.clock;
    let mut report = Report::default();
    let mut tr = Tracer::default();

    let ex = ctx.firsts.exchange();
    let id = ctx.mint.take(ex.points.len());
    let s = stack::setup(clock, ctx.city, w, &ctx.dirs, seed, (&ex, id))?;
    let first_reports = ex.points.len() as u64;
    report.attempted += first_reports;
    let setup_root = tr.span("setup", (s.precompute.0, clock.now()), None);
    tr.span("precompute", s.precompute, Some(setup_root));
    tr.span("ledger.open", s.ledger_open, Some(setup_root));

    // Untraced open loop over the full schedule: the baseline for the
    // tracing overhead and the generator's lateness.
    let requests = stack::render(&ctx.items, &ctx.mint);
    let make = http_sessions(s.stack.addr(), &requests, domain);
    let open = loadgen::open_loop(clock, &ctx.due, start_of(clock), env::cores(), &make);

    // Traced replays on a prefix of the same schedule.
    let n = replay_len(&ctx.due, REPLAY_MIN, REPLAY_MIN_S);
    let replay_requests = stack::render(&ctx.items[..n], &ctx.mint);
    let make = http_sessions(s.stack.addr(), &replay_requests, domain);
    let http = loadgen::open_loop(clock, &ctx.due[..n], start_of(clock), env::cores(), &make);
    tr.phase("replay.http", "wire.exchange", &http);
    let n_probe = replay_len(&ctx.due, 100, REPLAY_MIN_S);
    let make_probe = |_| -> Box<dyn Session> {
        Box::new(Probe {
            conn: Conn::new(s.stack.addr()),
        })
    };
    let probe = loadgen::open_loop(
        clock,
        &ctx.due[..n_probe],
        start_of(clock),
        env::cores(),
        &make_probe,
    );
    tr.phase("replay.probe", "wire.probe", &probe);
    report.count(&open);
    report.count(&http);
    first_errors(&open);
    first_errors(&http);
    first_errors(&probe);
    if probe.iter().any(|r| r.error.is_some()) {
        report.problems.push("wire probe failed".into());
    }

    let (a1, f1) = loadgen::tally(&open);
    let (a2, f2) = loadgen::tally(&http);
    let attempted = first_reports + a1 + a2;
    let mut charged = 0;
    match stack::drain(s.stack, attempted, attempted - f1 - f2) {
        Ok(d) => charged = d.served,
        Err(e) => report.problems.push(e),
    }
    report.gate(stack::check_spend(&ctx.dirs.primary, ctx.warm_total, charged).map(drop));

    // Off the serving path: each layer alone, on the same inputs.
    let sample_msm = stack::from_bundle(ctx.city, &s.bundle)?;
    let f0 = clock.now();
    sample_msm.flatten().map_err(|e| format!("flatten: {e}"))?;
    tr.span("flat.flatten", (f0, clock.now()), None);
    let sampler = ResilientMechanism::new(sample_msm);

    // Every replay starts from its own copy of the warmed ledger, written
    // back before any replay is timed.
    let replay_dir = |name: &str| work.join(format!("replay-{name}"));
    for name in ["standby", "submit", "charge", "ship"] {
        stack::copy_dir(&ctx.warm, &replay_dir(name))?;
    }
    env::settle_disk();
    let standby_dir = replay_dir("standby");
    let standby = stack::start_standby(ctx.city, &s.bundle, &standby_dir, seed ^ 2)?;
    let standby_addr = standby.local_addr().to_string();
    let with_shipper = |dir: &Path, ship: bool| -> Result<geoind::serve::ShardedLedger, String> {
        let ledger = stack::open_ledger(dir)?;
        if ship {
            let shipper = stack::shipper(dir)?;
            shipper
                .set_peer(&standby_addr)
                .map_err(|e| format!("registering the replay standby: {e}"))?;
            ledger.attach_shipper(shipper);
        }
        Ok(ledger)
    };
    let mut shipped = 0u64;

    // Server::submit → Response on the same schedule, same ledger shape.
    let server = Server::start(
        ResilientMechanism::new(stack::from_bundle(ctx.city, &s.bundle)?),
        with_shipper(&replay_dir("submit"), w.replicated)?,
        Arc::new(SystemClock),
        stack::serve_config(seed),
    );
    let items = &ctx.items[..n];
    let make_submit = |_| -> Box<dyn Session + '_> {
        Box::new(Submit {
            server: &server,
            items,
            domain,
        })
    };
    let submit = loadgen::open_loop(
        clock,
        &ctx.due[..n],
        start_of(clock),
        env::cores(),
        &make_submit,
    );
    tr.phase("replay.submit", "server.exchange", &submit);
    first_errors(&submit);
    let (submitted, submit_failed) = loadgen::tally(&submit);
    let outcome = server.shutdown();
    if submit_failed > 0 || outcome.report.sampled_flat != submitted {
        report.problems.push(format!(
            "submit replay: {submit_failed} of {submitted} not served, sampled_flat {}",
            outcome.report.sampled_flat
        ));
    }
    if w.replicated {
        shipped += submitted;
    }

    // try_spend on the same user sequence: bare, then shipped to the
    // live standby.
    let users: Vec<u64> = ctx
        .items
        .iter()
        .flat_map(|ex| std::iter::repeat_n(ex.user, ex.points.len()))
        .cycle()
        .take(CHARGE_REPLAY)
        .collect();
    let mut charge = |root: &'static str,
                      name: &'static str,
                      ledger: &geoind::serve::ShardedLedger,
                      users: &[u64]| {
        let start = clock.now();
        let root = tr.span(root, (start, start), None);
        let mut failed = 0;
        for &user in users {
            let t = clock.now();
            failed += usize::from(ledger.try_spend(user, workload::EPS).is_err());
            tr.span(name, (t, clock.now()), Some(root));
        }
        failed
    };
    let bare = with_shipper(&replay_dir("charge"), false)?;
    let bytes0 = env::write_bytes();
    let mut failed_charges = charge("replay.charge", "ledger.charge", &bare, &users);
    let bytes1 = env::write_bytes();
    drop(bare);
    let shipped_ledger = with_shipper(&replay_dir("ship"), true)?;
    failed_charges += charge(
        "replay.ship",
        "ledger.charge.shipped",
        &shipped_ledger,
        &users[..SHIP_REPLAY],
    );
    drop(shipped_ledger);
    shipped += SHIP_REPLAY as u64;
    if failed_charges > 0 {
        report
            .problems
            .push(format!("{failed_charges} replayed charges refused"));
    }
    let mut conn = Conn::new(standby.local_addr());
    let applied = conn
        .send(&http::request("GET", "/report", None))
        .ok()
        .and_then(|(_, body)| http::counter(&body, "replica_applied"));
    drop(conn);
    if applied != Some(shipped) {
        report.problems.push(format!(
            "replay standby applied {applied:?}, expected {shipped}"
        ));
    }
    let _ = standby.shutdown();

    // ResilientMechanism::report_many with the workload's batch shape.
    let mut rng = SeededRng::from_seed(seed);
    let root = tr.span("replay.sample", (clock.now(), clock.now()), None);
    let mut bad_samples = 0;
    for ex in &ctx.items {
        let t = clock.now();
        let out = sampler.report_many(&ex.points, &mut rng);
        let t1 = clock.now();
        tr.span("sample.report_many", (t, t1), Some(root));
        bad_samples += out
            .iter()
            .filter(|(p, tier)| *tier != Tier::Optimal || !http::inside(*p, domain))
            .count();
    }
    if bad_samples > 0 {
        report.problems.push(format!(
            "{bad_samples} replayed samples off tier 0 or out of domain"
        ));
    }

    // Per-layer metrics.
    let dur = |name: &str| sorted(tr.durations(name));
    let charge_ns = dur("ledger.charge");
    let shipped_ns = dur("ledger.charge.shipped");
    let exchange_ns = dur("server.exchange");
    let http_ns = dur("wire.exchange");
    let probe_ns = dur("wire.probe");
    let sample_ns = dur("sample.report_many");
    let untraced_ns = sorted(open[..n].iter().map(|r| (r.done - r.sent) as f64).collect());
    let traced_p50 = quantile(&http_ns, 500);
    let tail = |v: &[f64], what: &str, problems: &mut Vec<String>| {
        tail_quantile(v, 990).unwrap_or_else(|e| {
            problems.push(format!("{what}: {e}"));
            f64::NAN
        })
    };
    let mut problems = Vec::new();
    let charge_p99 = tail(&charge_ns, "ledger.charge p99", &mut problems);
    let shipped_p99 = tail(&shipped_ns, "ledger.charge.shipped p99", &mut problems);
    let exchange_p99 = tail(&exchange_ns, "server.exchange p99", &mut problems);
    let late = sorted(open.iter().map(|r| r.late() as f64 / 1e6).collect());
    let late_p99 = tail(&late, "loadgen lateness p99", &mut problems);
    let open_p99 = tail(&latencies_ms(&open), "open-loop latency p99", &mut problems);
    report.problems.extend(problems);

    let batch = w.batch as f64;
    let points: usize = ctx.items.iter().map(|ex| ex.points.len()).sum();
    let sample_per_exchange = sample_ns.iter().sum::<f64>() / ctx.items.len() as f64;
    let charge_mean = mean(&charge_ns);
    let ship_mean = mean(&shipped_ns) - charge_mean;
    let on_path_ship = if w.replicated { ship_mean } else { 0.0 };
    let queue = mean(&exchange_ns) - batch * (charge_mean + on_path_ship) - sample_per_exchange;
    // The layers timed alone: the wire (a 404 round trip) and the
    // in-process exchange behind it (queue + charges + sampling). What
    // the client sees beyond their sum is `/protect`'s own wire work
    // (JSON, retry table, rendering) plus drift between the replays.
    let client = mean(&http_ns);
    let layers = mean(&probe_ns) + mean(&exchange_ns);
    let write_per_report = match (bytes0, bytes1) {
        (Some(a), Some(b)) => (b - a) as f64 / users.len() as f64,
        _ => f64::NAN,
    };

    println!("# traced layers, mean per exchange (us):");
    println!(
        "#   wire round trip (404 probe)   {:>10.1}",
        us(mean(&probe_ns))
    );
    println!("#   admission queue (derived)     {:>10.1}", us(queue));
    println!(
        "#   ledger charge x{:<3}           {:>10.1}",
        w.batch,
        us(batch * charge_mean)
    );
    if w.replicated {
        println!(
            "#   replica ship+ack x{:<3}        {:>10.1}",
            w.batch,
            us(batch * ship_mean)
        );
    } else {
        println!(
            "#   replica ship+ack               (not on this path; alone {:.1} per charge)",
            us(ship_mean)
        );
    }
    println!(
        "#   fused sampling                {:>10.1}",
        us(sample_per_exchange)
    );
    println!("#   sum of layers                 {:>10.1}", us(layers));
    println!("#   client, traced HTTP           {:>10.1}", us(client));
    println!(
        "#   unexplained residual          {:>10.1} ({:.1}% of client)",
        us(client - layers),
        100.0 * (client - layers) / client
    );
    println!(
        "#   tracing overhead at p50       {:.2}% (traced {:.1} vs untraced {:.1})",
        100.0 * (traced_p50 - quantile(&untraced_ns, 500)) / quantile(&untraced_ns, 500),
        us(traced_p50),
        us(quantile(&untraced_ns, 500))
    );
    println!(
        "# replays: {n} HTTP/submit exchanges, {n_probe} probes, {} charges, {SHIP_REPLAY} shipped charges, {} sampled exchanges",
        users.len(),
        ctx.items.len()
    );

    let precompute_s = (s.precompute.1 - s.precompute.0) as f64 / 1e9;
    report.metric("precompute.wall_s", precompute_s, "s");
    report.metric("lp.pivots", s.pivots as f64, "count");
    report.metric("lp.rows_active_share", s.rows_active_share, "fraction");
    report.metric(
        "flat.flatten_ms",
        tr.durations("flat.flatten")[0] / 1e6,
        "ms",
    );
    report.metric(
        "ledger.open_ms",
        (s.ledger_open.1 - s.ledger_open.0) as f64 / 1e6,
        "ms",
    );
    report.metric(
        "sample.ns_per_report",
        sample_ns.iter().sum::<f64>() / points as f64,
        "ns",
    );
    report.metric("ledger.charge_us.p50", us(quantile(&charge_ns, 500)), "us");
    report.metric("ledger.charge_us.p99", us(charge_p99), "us");
    report.metric(
        "journal.write_bytes_per_report",
        write_per_report,
        "B/report",
    );
    report.metric(
        "replica.ship_ack_us.p50",
        us(quantile(&shipped_ns, 500) - quantile(&charge_ns, 500)),
        "us",
    );
    report.metric(
        "replica.ship_ack_us.p99",
        us(shipped_p99 - charge_p99),
        "us",
    );
    report.metric(
        "server.exchange_us.p50",
        us(quantile(&exchange_ns, 500)),
        "us",
    );
    report.metric("server.exchange_us.p99", us(exchange_p99), "us");
    report.metric("server.queue_wait_us", us(queue), "us");
    report.metric(
        "wire.overhead_us.p50",
        us(traced_p50 - quantile(&exchange_ns, 500)),
        "us",
    );
    report.metric("loadgen.late_ms.p99", late_p99, "ms");
    report.metric("loadgen.latency_p99_ms", open_p99, "ms");
    report.metric(
        "trace.residual_share",
        (client - layers) / client,
        "fraction",
    );
    report.metric(
        "trace.overhead_share",
        (traced_p50 - quantile(&untraced_ns, 500)) / quantile(&untraced_ns, 500),
        "fraction",
    );

    let out = PathBuf::from(".bench_trace").join(format!("{}-seed{}.jsonl", w.name, seed));
    tr.write(&out)
        .map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!("# {} spans written to {}", tr.len(), out.display());
    Ok(report)
}
