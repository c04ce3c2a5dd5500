//! `geoind` — command-line front end for the library.
//!
//! ```text
//! geoind protect    --lat 30.2672 --lon -97.7431 --eps 0.5        # sanitize one location
//! geoind eval       --eps 0.3 --queries 2000                      # PL vs MSM utility
//! geoind audit      --eps 0.5 --samples 20000                     # black-box GeoInd check
//! geoind precompute --out cache.bin --eps 0.5 --g 4               # offline channel bundle
//! geoind serve      --listen 127.0.0.1:0 --shards 4               # networked serving over TCP
//! geoind loadgen    --connect 127.0.0.1:4770 --requests 500       # retrying closed-loop client
//! geoind doctor     --cache cache.bin --eps 0.5 --g 4             # certify every channel
//! ```
//!
//! All commands run on a synthetic city by default; pass
//! `--gowalla <file>` (SNAP format) with `--window austin|vegas` to use
//! real check-ins.

use geoind::data::loader::{load_gowalla, AUSTIN, LAS_VEGAS};
use geoind::mechanisms::audit::{audit_geoind, AuditConfig};
use geoind::mechanisms::resilient::ResilientMechanism;
use geoind::mechanisms::Mechanism;
use geoind::prelude::*;
use geoind::serve::clock::{Clock, SystemClock};
use geoind::serve::{
    install_promote_handler, install_termination_handler, register_with_primary, run_load,
    take_promote_requested, termination_requested, ClientConfig, ClientError, LedgerConfig,
    RepairMode, ServeConfig, ShardedLedger, Shipper, ShipperConfig, WireConfig, WireServer,
};
use geoind_rng::SeededRng;
use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(command) = args.next() else {
        print_help();
        return ExitCode::from(2);
    };
    let flags = match parse_flags(args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match command.as_str() {
        "protect" => cmd_protect(&flags),
        "eval" => cmd_eval(&flags),
        "audit" => cmd_audit(&flags),
        "precompute" => cmd_precompute(&flags),
        "serve" => cmd_serve(&flags),
        "loadgen" => cmd_loadgen(&flags),
        "doctor" => cmd_doctor(&flags),
        "help" | "--help" | "-h" => {
            print_help();
            Ok(())
        }
        other => Err(format!("unknown command '{other}'")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

type Flags = HashMap<String, String>;

fn parse_flags(args: impl Iterator<Item = String>) -> Result<Flags, String> {
    let mut flags = HashMap::new();
    let mut args = args.peekable();
    while let Some(a) = args.next() {
        let Some(name) = a.strip_prefix("--") else {
            return Err(format!("expected a --flag, got '{a}'"));
        };
        let value = args
            .next()
            .ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name.to_string(), value);
    }
    Ok(flags)
}

fn get_f64(flags: &Flags, name: &str, default: f64) -> Result<f64, String> {
    flags.get(name).map_or(Ok(default), |v| {
        v.parse().map_err(|_| format!("--{name}: bad number '{v}'"))
    })
}

fn get_u64(flags: &Flags, name: &str, default: u64) -> Result<u64, String> {
    flags.get(name).map_or(Ok(default), |v| {
        v.parse()
            .map_err(|_| format!("--{name}: bad integer '{v}'"))
    })
}

/// `--resilience on|off` (default off).
fn resilience_on(flags: &Flags) -> Result<bool, String> {
    match flags.get("resilience").map(String::as_str) {
        None | Some("off") => Ok(false),
        Some("on") => Ok(true),
        Some(other) => Err(format!("--resilience: expected on|off, got '{other}'")),
    }
}

/// Resolve the dataset; with `--resilience on`, a failing real-data load
/// degrades to the synthetic city (with a warning) instead of aborting.
fn dataset_resilient(flags: &Flags, resilient: bool) -> Result<Dataset, String> {
    match dataset(flags) {
        Ok(d) => Ok(d),
        Err(e) if resilient => {
            eprintln!("warning: {e}; degrading to the synthetic city");
            let size = get_u64(flags, "synthetic-size", 80_000)? as usize;
            Ok(SyntheticCity::austin_like().generate_with_size(size, size / 10))
        }
        Err(e) => Err(e),
    }
}

/// Resolve the dataset: real Gowalla file or the synthetic default.
fn dataset(flags: &Flags) -> Result<Dataset, String> {
    match flags.get("gowalla") {
        Some(path) => {
            let window = match flags.get("window").map(String::as_str) {
                None | Some("austin") => AUSTIN,
                Some("vegas") => LAS_VEGAS,
                Some(other) => return Err(format!("--window: unknown '{other}'")),
            };
            load_gowalla(path, window).map_err(|e| format!("loading {path}: {e}"))
        }
        None => {
            let size = get_u64(flags, "synthetic-size", 80_000)? as usize;
            Ok(SyntheticCity::austin_like().generate_with_size(size, size / 10))
        }
    }
}

/// `--constraints full|spanner:<δ>` and `--cutgen on|off`, forwarded to
/// every per-node OPT solve. A bundle is only portable between commands
/// run with the same pair (doctor re-certifies a spanner bundle under the
/// spanner spec, so it needs the flags the precompute used).
fn opt_options_from_flags(flags: &Flags) -> Result<OptOptions, String> {
    let mut opts = OptOptions::default();
    match flags.get("constraints").map(String::as_str) {
        None | Some("full") => {}
        Some(s) => match s.strip_prefix("spanner:") {
            Some(d) => {
                let dilation: f64 = d
                    .parse()
                    .map_err(|_| format!("--constraints: bad spanner dilation '{d}'"))?;
                if !(dilation.is_finite() && dilation >= 1.0) {
                    return Err(format!(
                        "--constraints: spanner dilation must be >= 1, got {dilation}"
                    ));
                }
                opts.constraints = ConstraintSet::Spanner { dilation };
            }
            None => {
                return Err(format!(
                    "--constraints: expected full or spanner:<dilation>, got '{s}'"
                ))
            }
        },
    }
    match flags.get("cutgen").map(String::as_str) {
        None => {}
        Some("on") => opts.cutgen = true,
        Some("off") => opts.cutgen = false,
        Some(other) => return Err(format!("--cutgen: expected on|off, got '{other}'")),
    }
    Ok(opts)
}

fn build_msm(flags: &Flags, data: &Dataset) -> Result<MsmMechanism, String> {
    let eps = get_f64(flags, "eps", 0.5)?;
    let g = get_u64(flags, "g", 4)? as u32;
    let rho = get_f64(flags, "rho", 0.8)?;
    let fine = g.pow(3).clamp(g * g, 64);
    MsmMechanism::builder(data.domain(), GridPrior::from_dataset(data, fine))
        .epsilon(eps)
        .granularity(g)
        .rho(rho)
        .opt_options(opt_options_from_flags(flags)?)
        .build()
        .map_err(|e| e.to_string())
}

fn cmd_protect(flags: &Flags) -> Result<(), String> {
    let resilient = resilience_on(flags)?;
    let data = dataset_resilient(flags, resilient)?;
    let eps = get_f64(flags, "eps", 0.5)?;
    let seed = get_u64(flags, "seed", 42)?;
    // Location: either --x/--y (km-plane) or --lat/--lon with a window.
    let x = if flags.contains_key("lat") || flags.contains_key("lon") {
        let lat = get_f64(flags, "lat", f64::NAN)?;
        let lon = get_f64(flags, "lon", f64::NAN)?;
        let window = match flags.get("window").map(String::as_str) {
            None | Some("austin") => AUSTIN,
            Some("vegas") => LAS_VEGAS,
            Some(other) => return Err(format!("--window: unknown '{other}'")),
        };
        if !window.contains(lat, lon) {
            return Err(format!("({lat}, {lon}) is outside the selected window"));
        }
        window.to_plane(lat, lon)
    } else {
        Point::new(get_f64(flags, "x", 10.0)?, get_f64(flags, "y", 10.0)?)
    };
    let mut rng = SeededRng::from_seed(seed);
    let z = match flags.get("mechanism").map(String::as_str) {
        Some("pl") => PlanarLaplace::new(eps).report(x, &mut rng),
        None | Some("msm") => {
            let msm = build_msm(flags, &data)?;
            println!(
                "# msm: g={}, height={}, effective {}x{} leaf grid, budgets {:?}",
                msm.granularity(),
                msm.height(),
                msm.effective_granularity(),
                msm.effective_granularity(),
                msm.budgets().budgets()
            );
            if resilient {
                let ladder = ResilientMechanism::new(msm);
                let (z, tier) = ladder.report_with_tier(x, &mut rng);
                println!("# served by tier: {tier}");
                println!("{}", ladder.degradation_report());
                z
            } else {
                msm.report(x, &mut rng)
            }
        }
        Some(other) => return Err(format!("--mechanism: unknown '{other}'")),
    };
    println!("true     (km): {:.4}, {:.4}", x.x, x.y);
    println!("reported (km): {:.4}, {:.4}", z.x, z.y);
    println!("loss     (km): {:.4}", x.dist(z));
    Ok(())
}

fn cmd_eval(flags: &Flags) -> Result<(), String> {
    let resilient = resilience_on(flags)?;
    let data = dataset_resilient(flags, resilient)?;
    let eps = get_f64(flags, "eps", 0.5)?;
    let queries = get_u64(flags, "queries", 1_000)? as usize;
    let seed = get_u64(flags, "seed", 42)?;
    let evaluator = Evaluator::sample_from(&data, queries, seed);
    let msm = build_msm(flags, &data)?;
    let pl = PlanarLaplace::new(eps)
        .with_grid_remap(Grid::new(data.domain(), msm.effective_granularity()));
    if resilient {
        let ladder = ResilientMechanism::new(msm);
        for metric in [QualityMetric::Euclidean, QualityMetric::SqEuclidean] {
            println!("{}", evaluator.measure(&pl, metric, seed + 1).summary());
            println!("{}", evaluator.measure(&ladder, metric, seed + 1).summary());
        }
        println!("{}", ladder.degradation_report());
    } else {
        for metric in [QualityMetric::Euclidean, QualityMetric::SqEuclidean] {
            println!("{}", evaluator.measure(&pl, metric, seed + 1).summary());
            println!("{}", evaluator.measure(&msm, metric, seed + 1).summary());
        }
    }
    Ok(())
}

fn cmd_audit(flags: &Flags) -> Result<(), String> {
    let data = dataset(flags)?;
    let eps = get_f64(flags, "eps", 0.5)?;
    let samples = get_u64(flags, "samples", 20_000)? as usize;
    let seed = get_u64(flags, "seed", 42)?;
    let side = data.domain().side();
    let c = side / 2.0;
    let pairs = vec![
        (Point::new(c, c), Point::new(c + side * 0.1, c)),
        (Point::new(c * 0.5, c), Point::new(c * 0.5, c + side * 0.08)),
        (Point::new(c, c * 0.5), Point::new(c * 1.2, c * 0.5)),
    ];
    let grid = Grid::new(data.domain(), 8);
    let mut rng = SeededRng::from_seed(seed);
    let report = match flags.get("mechanism").map(String::as_str) {
        Some("pl") | None => audit_geoind(
            &PlanarLaplace::new(eps),
            eps,
            &pairs,
            &grid,
            AuditConfig {
                samples,
                min_cell_count: 50,
            },
            &mut rng,
        ),
        Some("msm") => {
            let msm = build_msm(flags, &data)?;
            // Audit against MSM's composition bound per pair (its actual
            // guarantee); use the loosest effective epsilon across pairs.
            let eff = pairs
                .iter()
                .map(|(a, b)| msm.composition_bound(*a, *b) / a.dist(*b))
                .fold(0.0f64, f64::max);
            if eff <= 0.0 {
                // Every audit pair snapped to the same cell at every level:
                // the mechanism treats the pair identically (bound 0), so a
                // positive-eps audit is meaningless at this granularity.
                return Err(
                    "audit pairs are indistinguishable under this MSM configuration \
                     (composition bound 0); raise --eps or --g so the hierarchy \
                     separates them"
                        .into(),
                );
            }
            println!("# auditing MSM against its composition bound (eff eps {eff:.3})");
            let report = audit_geoind(
                &msm,
                eff,
                &pairs,
                &grid,
                AuditConfig {
                    samples,
                    min_cell_count: 50,
                },
                &mut rng,
            );
            // The empirical estimate above is sampling-noisy; the sampled
            // matrix channels admit an exact check, so print the
            // certifier's measurement next to it for comparison.
            let certs = msm.recertify_cache();
            let exact = certs
                .iter()
                .map(|(_, c)| c.max_violation)
                .fold(0.0f64, f64::max);
            println!(
                "# certifier: exact max scaled violation {exact:.3e} over {} \
                 cached matrix channels (vs empirical worst excess {:+.3})",
                certs.len(),
                report.worst_excess()
            );
            report
        }
        Some(other) => return Err(format!("--mechanism: unknown '{other}'")),
    };
    for f in &report.findings {
        println!(
            "pair ({:.1},{:.1})~({:.1},{:.1}): log-ratio {:.3}, allowance {:.3}, excess {:+.3}",
            f.a.x,
            f.a.y,
            f.b.x,
            f.b.y,
            f.log_ratio,
            f.allowance,
            f.excess()
        );
    }
    let slack = 0.45;
    if report.passes(slack) {
        println!(
            "PASS (worst excess {:+.3} <= slack {slack})",
            report.worst_excess()
        );
        Ok(())
    } else {
        Err(format!(
            "AUDIT FAILED: worst excess {:+.3} > slack {slack}",
            report.worst_excess()
        ))
    }
}

/// `--jobs N` (default: available parallelism). The worker count never
/// changes the output bytes — only how many sibling LP solves run at once.
fn get_jobs(flags: &Flags) -> Result<usize, String> {
    let default = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
    let jobs = get_u64(flags, "jobs", default)?;
    if jobs == 0 {
        return Err("--jobs: must be at least 1".into());
    }
    Ok(jobs as usize)
}

fn cmd_precompute(flags: &Flags) -> Result<(), String> {
    let data = dataset(flags)?;
    let out = flags.get("out").ok_or("--out <file> is required")?;
    let jobs = get_jobs(flags)?;
    let msm = build_msm(flags, &data)?;
    let nodes = msm
        .precompute_jobs(get_u64(flags, "max-nodes", 100_000)? as usize, jobs)
        .map_err(|e| e.to_string())?;
    let mut blob = Vec::new();
    msm.export_cache(&mut blob).map_err(|e| e.to_string())?;
    // Crash-safe export: temp file + fsync + atomic rename, so a killed
    // precompute can never leave a truncated bundle at --out.
    geoind::serve::atomic_write(std::path::Path::new(out), &blob)
        .map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "precomputed {nodes} channels ({} bytes) -> {out}",
        blob.len()
    );
    // Per-level solve telemetry: rows_active vs rows_total is what the
    // delayed-constraint solve saved at each level; warm_fallbacks and
    // discarded_pivots are what abandoned sibling warm starts cost.
    for (level, s) in msm.level_solve_stats() {
        println!(
            "# level {level}: solves {} cut_rounds {} rows_active {} rows_total {} \
             warm_fallbacks {} discarded_pivots {}",
            s.solves,
            s.cut_rounds,
            s.rows_active,
            s.rows_total,
            s.warm_fallbacks,
            s.discarded_pivots
        );
    }
    let (primal, dual) = msm.lp_residual_watermark();
    println!("# lp residual watermark: primal {primal:.3e} dual {dual:.3e}");
    println!("# load on-device with MsmMechanism::import_cache");
    Ok(())
}

/// `geoind doctor`: health-check the channel pipeline end to end and exit
/// nonzero if anything fails certification — suitable for cron.
///
/// With `--cache FILE` (a `precompute` bundle built with the same flags)
/// the cache is imported through the certify-on-load gate; otherwise the
/// channels are solved fresh. Every cached channel is then re-certified at
/// the strict post-repair tolerance, the LP residual watermark is
/// re-checked, and the degradation ladder is exercised with a seeded
/// workload.
fn cmd_doctor(flags: &Flags) -> Result<(), String> {
    let data = dataset(flags)?;
    let seed = get_u64(flags, "seed", 42)?;
    let msm = build_msm(flags, &data)?;
    let mut quarantines = 0u64;

    match flags.get("cache") {
        Some(path) => {
            let blob = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
            let report = msm
                .import_cache(&mut blob.as_slice())
                .map_err(|e| format!("importing {path}: {e}"))?;
            println!(
                "# cache import: {} entries loaded, {} quarantined",
                report.loaded,
                report.quarantined.len()
            );
            for (cell, cert) in &report.quarantined {
                println!(
                    "#   quarantined level {} cell {}: scaled violation {:.3e}",
                    cell.level, cell.id, cert.max_violation
                );
            }
            quarantines += report.quarantined.len() as u64;
        }
        None => {
            let nodes = msm
                .precompute_jobs(
                    get_u64(flags, "max-nodes", 100_000)? as usize,
                    get_jobs(flags)?,
                )
                .map_err(|e| e.to_string())?;
            println!("# precomputed {nodes} channels for inspection");
        }
    }

    // Alias tables are derived data: re-derive each table's row marginals
    // and compare against the certified matrix at the strict admission
    // tolerance. A drifted table would sample from a distribution the
    // certificate never vouched for.
    let audit = msm.audit_flat_tables();
    for (cell, err) in &audit.failures {
        println!(
            "#   FLAT TABLE DRIFT level {} cell {}: marginal error {:.3e}",
            cell.level, cell.id, err
        );
        quarantines += 1;
    }
    println!(
        "# flat tables: {} of {} cached channels flattened, worst marginal error {:.3e}",
        audit.flattened, audit.channels, audit.worst_error
    );

    let certs = msm.recertify_cache();
    let mut worst = 0.0f64;
    for (cell, cert) in &certs {
        worst = worst.max(cert.max_violation);
        if cert.verdict == geoind::mechanisms::certify::Verdict::Quarantined {
            println!(
                "#   re-certify QUARANTINE level {} cell {}: scaled violation {:.3e}",
                cell.level, cell.id, cert.max_violation
            );
            quarantines += 1;
        }
    }
    println!(
        "# re-certified {} cached channels: worst scaled violation {worst:.3e}",
        certs.len()
    );

    // Iterative refinement keeps the solver residuals near machine
    // precision; 1e-6 here means the LP path is numerically unhealthy.
    let (primal, dual) = msm.lp_residual_watermark();
    println!("# lp residual watermark: primal {primal:.3e} dual {dual:.3e}");
    let residuals_ok = primal <= 1e-6 && dual <= 1e-6;
    if !residuals_ok {
        println!("#   LP RESIDUALS OUT OF BOUNDS (limit 1e-6)");
    }

    let ladder = ResilientMechanism::new(msm);
    let mut rng = SeededRng::from_seed(seed);
    let checkins = data.checkins();
    let n = get_u64(flags, "requests", 64)?.max(1);
    for i in 0..n {
        let x = checkins[i as usize % checkins.len()].location;
        let _ = ladder.report_with_tier(x, &mut rng);
    }
    let dr = ladder.degradation_report();
    println!("{}", dr.log_line());
    quarantines += dr.quarantined;

    if quarantines == 0 && residuals_ok {
        println!(
            "# doctor: healthy ({} channels certified, {n} ladder requests served)",
            certs.len()
        );
        Ok(())
    } else {
        Err(format!(
            "doctor found problems: {quarantines} quarantine(s), lp residuals ok: {residuals_ok}"
        ))
    }
}

/// `geoind serve --listen ADDR`: the serving front end. Binds a TCP
/// listener, serves JSON protect queries over HTTP/1.1 through the
/// admission-controlled worker pool, and drains gracefully when a client
/// posts `/shutdown`. `geoind loadgen` drives it and reconciles its books.
///
/// The budget ledger is sharded by user hash (`--shards`, default 4);
/// a shard whose journal fails recovery refuses exactly its own users
/// fail-closed while the rest keep serving.
fn cmd_serve(flags: &Flags) -> Result<(), String> {
    let listen = flags
        .get("listen")
        .ok_or("serve needs --listen ADDR (drive it with `geoind loadgen`)")?;
    let data = dataset_resilient(flags, true)?;
    let cap = get_f64(flags, "cap", 1.6)?;
    let epoch = get_u64(flags, "epoch", 0)?;
    let seed = get_u64(flags, "seed", 42)?;
    let shards = get_u64(flags, "shards", 4)?.max(1) as usize;
    let msm = build_msm(flags, &data)?;
    let eps = msm.epsilon();
    let ladder = ResilientMechanism::new(msm);

    let (dir, ephemeral) = match flags.get("ledger-dir") {
        Some(d) => (std::path::PathBuf::from(d), false),
        None => (
            std::env::temp_dir().join(format!("geoind-wire-{}", std::process::id())),
            true,
        ),
    };
    let repair = RepairMode::parse(flags.get("repair").map(String::as_str).unwrap_or("auto"))?;
    let ledger = ShardedLedger::open_with_repair(
        &dir,
        LedgerConfig {
            cap_per_user: cap,
            epoch,
            compact_after: 64,
        },
        shards,
        repair,
    );
    for (shard, detail) in ledger.failed_shards() {
        eprintln!("warning: ledger shard {shard} failed recovery, refusing its users: {detail}");
    }
    let counts = ledger.health_counts();
    if !counts.all_serving() {
        eprintln!(
            "warning: {} of {shards} shards not serving at open (quarantined {} scavenging {} failed {})",
            counts.quarantined + counts.scavenging + counts.failed,
            counts.quarantined,
            counts.scavenging,
            counts.failed
        );
    }
    println!(
        "# ledger: {} ({shards} shards, epoch {epoch}, cap {cap} eps/user, {eps} eps/request, repair {})",
        dir.display(),
        repair.name()
    );

    let clock: Arc<dyn Clock> = Arc::new(SystemClock);
    while clock.now_nanos() == 0 {
        std::thread::yield_now();
    }
    let follow = flags.get("follow").cloned();
    let auth_token = flags.get("auth-token").cloned();
    let max_replica_lag = flags.get("max-replica-lag").map(|v| {
        v.parse::<u64>()
            .map_err(|_| format!("--max-replica-lag: bad integer '{v}'"))
    });
    let config = WireConfig {
        serve: ServeConfig {
            workers: get_u64(flags, "workers", 4)? as usize,
            queue_capacity: get_u64(flags, "queue", 64)? as usize,
            seed,
            batch: get_u64(flags, "batch", 8)? as usize,
        },
        max_connections: get_u64(flags, "max-conns", 64)? as usize,
        read_timeout_ms: get_u64(flags, "read-timeout-ms", 2_000)?,
        write_timeout_ms: get_u64(flags, "write-timeout-ms", 2_000)?,
        max_body_bytes: get_u64(flags, "max-body", 64 * 1024)? as usize,
        // Default three orders of magnitude above the measured steady
        // p99 (~2.4 ms, BENCH_serve.json): only abandoned connections
        // are reaped.
        idle_timeout_ms: get_u64(flags, "idle-timeout-ms", 5_000)?,
        deadline_ms: flags
            .get("deadline-ms")
            .map(|_| get_u64(flags, "deadline-ms", 0))
            .transpose()?,
        standby: follow.is_some(),
        auth_token: auth_token.clone(),
        idem_max_per_user: get_u64(flags, "idem-max", 256)?.max(1) as usize,
        idem_ttl_ms: get_u64(flags, "idem-ttl-ms", 60_000)?,
    };
    if let Some(max_lag) = max_replica_lag.transpose()? {
        // Primary mode: spends ship to the follower registered via
        // POST /follow, and are served only after its durable ack.
        let shipper = Shipper::new(ShipperConfig {
            dir: Some(dir.clone()),
            shards,
            epoch,
            max_lag,
            timeout_ms: get_u64(flags, "replicate-timeout-ms", 2_000)?,
            auth_token: auth_token.clone(),
        })
        .map_err(|e| format!("starting replication shipper: {e}"))?;
        println!(
            "# replicating: fence generation {}, max lag {max_lag}{}",
            shipper.generation(),
            match shipper.peer() {
                Some(peer) => format!(", resuming to {peer}"),
                None => ", waiting for a follower".into(),
            }
        );
        ledger.attach_shipper(std::sync::Arc::new(shipper));
    }
    // SIGTERM/SIGINT trigger the same graceful drain as POST /shutdown;
    // SIGUSR1 requests a follower promotion out-of-band.
    install_termination_handler();
    install_promote_handler();
    let server = WireServer::start(ladder, ledger, clock, config, listen)
        .map_err(|e| format!("binding {listen}: {e}"))?;
    // CI and scripts poll this line to learn the bound port; the pipe to
    // them is block-buffered, so flush explicitly.
    println!("# listening on {}", server.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    if let Some(primary) = follow.as_deref() {
        // Warm standby: register with the primary so its shipper knows
        // where to push. Retried — the primary may still be booting —
        // and non-fatal: the operator can re-point the primary later.
        // The registered address must be routable *from the primary*:
        // a wildcard bind (0.0.0.0 / [::]) only resolves back to this
        // standby when both processes share a host, so it needs an
        // explicit --advertise-addr instead of silently degrading to
        // replica_lag refusals on the primary.
        let self_addr = match flags.get("advertise-addr") {
            Some(addr) => addr.clone(),
            None => {
                let local = server.local_addr();
                if local.ip().is_unspecified() {
                    return Err(format!(
                        "--follow with a wildcard bind ({local}): pass \
                         --advertise-addr HOST:PORT so the primary can reach this standby"
                    ));
                }
                local.to_string()
            }
        };
        let mut registered = false;
        for attempt in 0..20u64 {
            if attempt > 0 {
                std::thread::sleep(std::time::Duration::from_millis(100));
            }
            match register_with_primary(primary, &self_addr, auth_token.as_deref(), 2_000) {
                Ok(()) => {
                    registered = true;
                    break;
                }
                Err(_) if attempt < 19 => {}
                Err(e) => eprintln!("warning: could not register with {primary}: {e}"),
            }
        }
        println!(
            "# following {primary} (registered: {registered}, fence generation {})",
            server.fence_gen()
        );
        let _ = std::io::stdout().flush();
    }

    // Serve until a client posts /shutdown or a termination signal
    // lands; handlers never tear the server down from inside a
    // connection, the owner does it here. SIGUSR1 promotes a standby
    // without stopping the loop.
    while !server.shutdown_requested() && !termination_requested() {
        if take_promote_requested() {
            match server.promote() {
                Ok(gen) => println!("# promoted to primary (fence generation {gen})"),
                Err(e) => eprintln!("warning: promotion failed: {e}"),
            }
            let _ = std::io::stdout().flush();
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    if termination_requested() {
        println!("# termination signal received; draining");
    }
    let outcome = server.shutdown();
    outcome
        .checkpoint
        .map_err(|e| format!("final ledger checkpoint: {e}"))?;
    println!("{}", outcome.report.log_line());
    if let Some(fault) = &outcome.degradation.last_fault {
        println!("# last fault: {fault}");
    }
    if ephemeral {
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok(())
}

/// `geoind loadgen`: closed-loop multi-connection load generator with
/// seeded backoff, per-request timeouts and idempotent retries. Exits
/// nonzero unless its terminal tallies reconcile exactly with the
/// server's own gate counters.
fn cmd_loadgen(flags: &Flags) -> Result<(), String> {
    let config = ClientConfig {
        addr: flags
            .get("connect")
            .cloned()
            .unwrap_or_else(|| "127.0.0.1:4770".into()),
        connections: get_u64(flags, "connections", 4)?.max(1) as usize,
        requests: get_u64(flags, "requests", 200)?,
        users: get_u64(flags, "users", 16)?.max(1),
        timeout_ms: get_u64(flags, "timeout-ms", 2_000)?,
        max_attempts: get_u64(flags, "max-attempts", 12)?.max(1) as u32,
        backoff_base_ms: get_u64(flags, "backoff-ms", 10)?,
        seed: get_u64(flags, "seed", 1)?,
        shutdown_after: flags.get("shutdown").map(String::as_str) == Some("on"),
        failover: flags.get("failover").cloned(),
        auth_token: flags.get("auth-token").cloned(),
        retry_budget: flags
            .get("retry-budget")
            .map(|_| get_u64(flags, "retry-budget", 0))
            .transpose()?,
    };
    let report = match run_load(&config) {
        Ok(report) => report,
        Err(ClientError::Mismatch { detail, report }) => {
            // Print the client's books before failing: the mismatch
            // post-mortem needs both sides.
            println!("{}", report.log_line());
            return Err(format!("reconciliation failed: {detail}"));
        }
        Err(ClientError::RetryBudgetExhausted { abandoned, report }) => {
            println!("{}", report.log_line());
            return Err(format!(
                "retry budget exhausted: {abandoned} requests abandoned"
            ));
        }
        Err(e) => return Err(e.to_string()),
    };
    println!("{}", report.log_line());
    println!(
        "# reconciled: {} terminal outcomes match the server's gate counters exactly",
        report.total()
    );
    if let Some(path) = flags.get("json-out") {
        let label = flags.get("label").map(String::as_str).unwrap_or("loadgen");
        std::fs::write(path, report.json_artifact(label, config.requests))
            .map_err(|e| format!("writing {path}: {e}"))?;
    }
    Ok(())
}

fn print_help() {
    println!(
        "geoind — utility-preserving geo-indistinguishability (EDBT 2019)

USAGE: geoind <COMMAND> [--flag value]...

COMMANDS
  protect     sanitize one location        (--lat/--lon + --window, or --x/--y km)
  eval        compare PL vs MSM utility    (--queries N)
  audit       empirical GeoInd check       (--mechanism pl|msm, --samples N)
  precompute  build offline channel bundle (--out FILE; atomic temp+rename
              write; --jobs N parallel LP solves, default all cores — the
              output bytes are identical at any --jobs)
  serve       crash-safe serving front-end: --listen ADDR serves JSON
              protect queries over HTTP/1.1 (--cap EPS_PER_USER, --workers W,
               --queue DEPTH requests, --batch B requests drained per
               worker pass (a protect array is one group: admitted by
               prefix, drained whole), --epoch E, --ledger-dir DIR to
               persist budgets,
               --shards K user-hash ledger shards, --max-conns C,
               --read-timeout-ms/--write-timeout-ms, --deadline-ms D,
               --max-body BYTES, --idle-timeout-ms I to reap idle
               keep-alive connections, --repair auto|manual|off for
               damaged-shard scavenge-and-readmit — POST /repair triggers
               it under manual, GET /healthz reports per-shard state;
               POST /shutdown or SIGTERM/SIGINT drain gracefully;
               --max-replica-lag N ships every spend to a registered
               follower and refuses past N unacked records,
               --follow PRIMARY starts as that primary's warm standby
               (POST /promote or SIGUSR1 promotes it, fencing the old
               primary; --advertise-addr HOST:PORT is the address it
               registers — required when bound to a wildcard address),
               --auth-token T requires a bearer token on every
               endpoint but /healthz, --idem-max K / --idem-ttl-ms T
               bound the per-user idempotency retry table)
  loadgen     closed-loop load generator against `serve --listen`
              (--connect ADDR, --requests N, --connections C, --users U,
               --timeout-ms T, --max-attempts A, --backoff-ms B, --seed S,
               --shutdown on to drain the server after reconciling,
               --failover ADDR to promote and re-point at a warm standby
               on primary loss (reconciles against both servers),
               --retry-budget N global retry tokens for fast failure,
               --auth-token T bearer token,
               --json-out FILE --label L for benchmark artifacts); exits
              nonzero unless client tallies match the server's counters;
              polls /healthz and reports shard availability separately
              from overload sheds
  doctor      re-certify every channel, audit alias-table marginals against
              the certified matrices, check LP residuals, exercise the
              ladder; exits nonzero on any quarantine (--cache FILE to
              inspect a precomputed bundle, --requests N ladder probes;
              pass the same --constraints/--cutgen the precompute used —
              a spanner bundle is re-certified under the spanner spec,
              not the tighter full-set tolerance)

COMMON FLAGS
  --eps E            privacy budget per km (default 0.5)
  --g G              MSM per-level granularity (default 4)
  --rho R            self-map target for budget allocation (default 0.8)
  --constraints C    full (default) or spanner:<dilation> — which GeoInd
                     rows the per-node OPT targets; spanner:<d> enforces
                     only greedy d-spanner edges at eps/d (still eps-GeoInd
                     by path chaining, utility >= exact optimum's loss)
  --cutgen M         on (default) or off: delayed constraint generation —
                     solve with a seed row subset, append only violated
                     rows (certify's own separation check), warm-restart
                     from the previous basis until no violations remain;
                     exact fixed point, certified against the full target
  --mechanism M      msm (default) or pl
  --gowalla FILE     real SNAP-format check-ins (else synthetic city)
  --window W         austin (default) or vegas, for --gowalla and --lat/--lon
  --seed S           RNG seed (default 42)
  --resilience R     on|off (default off): serve through the degradation
                     ladder (MSM/OPT -> per-level Laplace) and print its
                     degradation line"
    );
}
