//! End-to-end tests of the `geoind` CLI binary.

use std::io::{BufRead, BufReader, Read};
use std::process::Command;

fn geoind() -> Command {
    Command::new(env!("CARGO_BIN_EXE_geoind"))
}

/// Spawn `geoind serve --listen 127.0.0.1:0` on a ledger under `dir` with
/// `args` appended, and wait for the "# listening on IP:PORT" line (all
/// before it is startup chatter). Returns the child, its remaining
/// stdout, and the bound address.
fn spawn_server(
    dir: &std::path::Path,
    args: &[&str],
) -> (
    std::process::Child,
    BufReader<std::process::ChildStdout>,
    String,
) {
    let mut server = geoind()
        .args(["serve", "--listen", "127.0.0.1:0", "--ledger-dir"])
        .arg(dir)
        .args(args)
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("server spawns");
    let mut reader = BufReader::new(server.stdout.take().expect("stdout piped"));
    let addr = loop {
        let mut line = String::new();
        assert_ne!(
            reader.read_line(&mut line).expect("server stdout readable"),
            0,
            "server exited before announcing its port"
        );
        if let Some(rest) = line.trim().strip_prefix("# listening on ") {
            break rest.to_string();
        }
    };
    (server, reader, addr)
}

/// Drain a server's remaining stdout and wait for it to exit 0.
fn finish_server(
    mut server: std::process::Child,
    mut reader: BufReader<std::process::ChildStdout>,
) -> String {
    let mut rest = String::new();
    reader
        .read_to_string(&mut rest)
        .expect("server stdout drains");
    let status = server.wait().expect("server exits");
    assert!(status.success(), "server exited nonzero:\n{rest}");
    rest
}

/// Run `geoind loadgen` against `addr` and return its stdout; it must
/// reconcile (exit 0).
fn loadgen(addr: &str, args: &[&str]) -> String {
    let out = geoind()
        .args(["loadgen", "--connect", addr])
        .args(args)
        .output()
        .expect("loadgen runs");
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "loadgen failed:\nstdout: {text}\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    text
}

#[test]
fn help_lists_commands() {
    let out = geoind().arg("help").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for cmd in [
        "protect",
        "eval",
        "audit",
        "precompute",
        "serve",
        "loadgen",
        "doctor",
    ] {
        assert!(text.contains(cmd), "help missing {cmd}");
    }
}

#[test]
fn no_command_exits_nonzero() {
    let out = geoind().output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn unknown_command_reports_error() {
    let out = geoind().arg("frobnicate").output().expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn protect_km_plane_roundtrip() {
    let out = geoind()
        .args([
            "protect",
            "--x",
            "9.5",
            "--y",
            "9.0",
            "--eps",
            "0.5",
            "--g",
            "2",
            "--synthetic-size",
            "5000",
            "--seed",
            "7",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("reported (km):"));
    assert!(text.contains("loss     (km):"));
}

#[test]
fn protect_rejects_out_of_window_coordinates() {
    let out = geoind()
        .args([
            "protect",
            "--lat",
            "48.85",
            "--lon",
            "2.35",
            "--synthetic-size",
            "2000",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("outside"));
}

#[test]
fn bad_flag_value_is_a_usage_error() {
    let out = geoind()
        .args(["protect", "--eps", "not-a-number"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad number"));

    // Values that parse but are out of range exit 1 with a message, never
    // a panic: ε on the planar-Laplace paths (an infinite ε would report
    // the true location) and ρ outside (0, 1).
    let mut bad: Vec<Vec<&str>> = Vec::new();
    for eps in ["nan", "0", "-1", "inf"] {
        bad.push(vec!["protect", "--mechanism", "pl", "--eps", eps]);
        bad.push(vec!["audit", "--mechanism", "pl", "--eps", eps]);
    }
    for rho in ["0", "1", "1.5", "nan", "-0.2"] {
        bad.push(vec!["protect", "--rho", rho]);
    }
    for args in &bad {
        let out = geoind()
            .args(args)
            .args(["--synthetic-size", "2000", "--samples", "100"])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
    }

    // g ≥ 9 builds: its prior grid is g² fine, above the 64 cap that
    // smaller g take.
    let path = std::env::temp_dir().join(format!("geoind-cli-g9-{}.bin", std::process::id()));
    let out = geoind()
        .args(["precompute", "--out", path.to_str().unwrap()])
        .args(["--g", "9", "--max-nodes", "0", "--synthetic-size", "2000"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn precompute_writes_a_loadable_bundle() {
    let path = std::env::temp_dir().join(format!("geoind-cli-cache-{}.bin", std::process::id()));
    let out = geoind()
        .args([
            "precompute",
            "--out",
            path.to_str().unwrap(),
            "--eps",
            "0.6",
            "--g",
            "2",
            "--synthetic-size",
            "5000",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let blob = std::fs::read(&path).expect("bundle written");
    // v2 checksummed container format (see geoind_core::offline).
    assert!(blob.starts_with(b"GEOINDCH"));
    // The write is atomic (temp + rename): no temp sibling may linger.
    let tmp = format!("{}.tmp", path.display());
    assert!(
        !std::path::Path::new(&tmp).exists(),
        "export left its temp file behind"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn precompute_prints_each_level_before_the_summary() {
    let path = std::env::temp_dir().join(format!("geoind-cli-levels-{}.bin", std::process::id()));
    // ε 1.0 at g 2 builds a height-3 tree: 1, 4 and 16 channels.
    let out = geoind()
        .args(["precompute", "--out", path.to_str().unwrap()])
        .args(["--eps", "1.0", "--g", "2", "--synthetic-size", "5000"])
        .output()
        .expect("binary runs");
    std::fs::remove_file(&path).ok();
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "stdout: {text}");
    let lines: Vec<&str> = text.lines().collect();
    let summary = lines
        .iter()
        .position(|l| l.starts_with("precomputed "))
        .expect("summary line");
    let mut levels = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let Some(rest) = line.strip_prefix("# level ") else {
            continue;
        };
        assert!(i < summary, "level line after the summary: {line}");
        levels.push(rest.split(':').next().unwrap().parse::<u32>().unwrap());
        let words: Vec<&str> = line.split_whitespace().collect();
        let [.., pivots, n, wall, s] = words[..] else {
            panic!("short level line: {line}");
        };
        assert_eq!((pivots, wall), ("pivots", "wall_s"), "{line}");
        assert!(
            n.parse::<u64>().is_ok() && s.parse::<f64>().is_ok(),
            "{line}"
        );
    }
    assert_eq!(levels, [1, 2, 3], "stdout: {text}");
}

#[test]
fn doctor_passes_on_a_healthy_cache_and_fails_on_a_corrupt_one() {
    let path = std::env::temp_dir().join(format!("geoind-cli-doctor-{}.bin", std::process::id()));
    let common = [
        "--eps",
        "0.6",
        "--g",
        "2",
        "--synthetic-size",
        "5000",
        "--seed",
        "7",
    ];
    let out = geoind()
        .args(["precompute", "--out", path.to_str().unwrap()])
        .args(common)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("# lp residual watermark over 5 solves: primal "),
        "precompute must surface the solver residuals and their solve count:\n{text}"
    );

    // Healthy bundle, same flags: every channel re-certifies, exit 0.
    let out = geoind()
        .args(["doctor", "--cache", path.to_str().unwrap()])
        .args(common)
        .output()
        .expect("binary runs");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "doctor failed on a healthy cache:\nstdout: {text}\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(text.contains("# doctor: healthy"), "{text}");
    assert!(text.contains("quarantined=0"), "{text}");
    // An import solves no LP, so there is no residual to check, and doctor
    // says so rather than passing a watermark of zeros.
    assert!(
        text.contains("# lp residual watermark: no LP ran"),
        "{text}"
    );
    assert!(
        text.contains("lp residuals not checked: no LP ran"),
        "{text}"
    );
    assert!(!text.contains("primal 0.000e0"), "{text}");
    assert!(
        text.contains("# flat tables:"),
        "doctor must audit the alias tables against the certified matrices:\n{text}"
    );

    // Flip one payload byte: the import gate must refuse the bundle and
    // doctor must exit nonzero.
    let mut blob = std::fs::read(&path).expect("bundle written");
    let mid = blob.len() / 2;
    blob[mid] ^= 0x40;
    std::fs::write(&path, &blob).expect("rewrite bundle");
    let out = geoind()
        .args(["doctor", "--cache", path.to_str().unwrap()])
        .args(common)
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(1),
        "doctor must exit nonzero on a corrupt cache\nstdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn networked_serve_reconciles_with_loadgen_over_loopback() {
    let dir = std::env::temp_dir().join(format!("geoind-cli-wire-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (server, reader, addr) = spawn_server(&dir, &SERVER_ARGS);
    let artifact_path = dir.with_extension("json");
    let mut args = LOAD_ARGS_24.to_vec();
    let artifact_arg = artifact_path.to_str().expect("utf-8 temp path");
    args.extend(["--json-out", artifact_arg, "--label", "loopback \"g=2\""]);
    let client_text = loadgen(&addr, &args);
    assert!(
        client_text.contains("loadgen total=24 served=24"),
        "every request must be served under a generous cap:\n{client_text}"
    );
    assert!(client_text.contains("# reconciled: 24"), "{client_text}");

    // The --json-out artifact is the same list as the loadgen line,
    // after the escaped label and the request count.
    let artifact = std::fs::read_to_string(&artifact_path).expect("--json-out written");
    assert!(
        artifact.starts_with(r#"{"label":"loopback \"g=2\"","requests":24,"#),
        "{artifact}"
    );
    let line = client_text
        .lines()
        .find(|line| line.starts_with("loadgen "))
        .expect("loadgen line");
    for field in line.split(' ').skip(1) {
        let (key, value) = field.split_once('=').expect("key=value");
        let entry = format!("\"{key}\":{value}");
        assert!(
            artifact.contains(&format!("{entry},")) || artifact.contains(&format!("{entry}}}")),
            "{field} missing from {artifact}"
        );
    }
    std::fs::remove_file(&artifact_path).ok();

    // --shutdown on posted /shutdown: the server drains and exits 0, and
    // its final report carries the wire counters.
    let rest = finish_server(server, reader);
    assert!(
        rest.contains("served=24") && rest.contains("shed_net="),
        "final server report missing or missing wire counters:\n{rest}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Server flags shared by the networked tests: a generous cap, so every
/// request is served.
const SERVER_ARGS: [&str; 16] = [
    "--shards",
    "4",
    "--cap",
    "10.0",
    "--workers",
    "2",
    "--queue",
    "16",
    "--seed",
    "7",
    "--eps",
    "0.4",
    "--g",
    "2",
    "--synthetic-size",
    "3000",
];

/// 24 requests from 4 users over 3 connections, then `POST /shutdown`.
const LOAD_ARGS_24: [&str; 10] = [
    "--requests",
    "24",
    "--connections",
    "3",
    "--users",
    "4",
    "--seed",
    "9",
    "--shutdown",
    "on",
];

/// `kill -TERM` must run the same graceful drain as `POST /shutdown`:
/// the server stops accepting, finishes what it owes, checkpoints the
/// shards, prints the final report, and exits 0 — reconciling exactly
/// with what the load generator observed.
#[test]
#[cfg(unix)]
fn sigterm_drains_the_networked_server_gracefully() {
    let dir = std::env::temp_dir().join(format!("geoind-cli-sigterm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (server, reader, addr) = spawn_server(&dir, &SERVER_ARGS);

    // Drive a load WITHOUT --shutdown: the server must stay up until the
    // signal arrives.
    let client_text = loadgen(&addr, &LOAD_ARGS_24[..8]);
    assert!(
        client_text.contains("loadgen total=24 served=24"),
        "{client_text}"
    );
    // The loadgen readiness probe saw the full healthy fleet.
    assert!(
        client_text.contains("shards_ready=4") && client_text.contains("shards_total=4"),
        "loadgen must report shard availability from /healthz:\n{client_text}"
    );

    // SIGTERM instead of POST /shutdown.
    let pid = server.id().to_string();
    let killed = std::process::Command::new("kill")
        .args(["-TERM", &pid])
        .status()
        .expect("kill runs");
    assert!(killed.success(), "kill -TERM failed");

    let rest = finish_server(server, reader);
    assert!(
        rest.contains("# termination signal received; draining"),
        "signal path not taken:\n{rest}"
    );
    assert!(
        rest.contains("served=24"),
        "final report does not reconcile with the load:\n{rest}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_without_listen_is_a_usage_error() {
    let out = geoind()
        .args(["serve", "--eps", "0.4"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--listen"));
}

#[test]
fn serve_closed_loop_balances_and_persists_budgets() {
    let dir = std::env::temp_dir().join(format!("geoind-cli-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Each run is a fresh server on the same ledger dir, driven by a
    // reconciling loadgen. Cap 0.8 at eps 0.4 = 2 serves per user.
    let run = |extra: &[&str]| {
        let mut args = SERVER_ARGS.to_vec();
        assert_eq!(args[2], "--cap");
        args[3] = "0.8";
        args.extend_from_slice(extra);
        let (server, reader, addr) = spawn_server(&dir, &args);
        let client = loadgen(&addr, &LOAD_ARGS_24);
        (client, finish_server(server, reader))
    };

    // 4 users => 8 served, the rest refused.
    let (client, server) = run(&[]);
    assert!(
        client.contains("loadgen total=24 served=8 refused=16"),
        "{client}"
    );
    assert!(
        server.contains("serve total=24 served=8"),
        "log line drifted:\n{server}"
    );

    // Same epoch, same ledger dir: budgets persist, so every request is
    // now refused — nothing is served twice.
    let (client, server) = run(&[]);
    assert!(
        client.contains("loadgen total=24 served=0 refused=24"),
        "{client}"
    );
    assert!(
        server.contains("serve total=24 served=0"),
        "spent budgets were resurrected across a restart:\n{server}"
    );

    // Epoch advance renews the budgets.
    let (client, server) = run(&["--epoch", "1"]);
    assert!(
        client.contains("loadgen total=24 served=8 refused=16"),
        "{client}"
    );
    assert!(
        server.contains("serve total=24 served=8"),
        "epoch renewal failed:\n{server}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
