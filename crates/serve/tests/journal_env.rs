//! Environment-driven journal fault sweep, the target of `scripts/ci.sh`'s
//! `GEOIND_FAILPOINTS=<serve site>=<spec>` rotation.
//!
//! Whichever journal site the environment arms, the ledger must stay
//! fail-closed end to end: a faulted step refuses the request (never
//! serves unaccounted ε), a crash mid-workload loses no acknowledged
//! spend, and recovery after the faults clear restores exactly the
//! acknowledged state. The workload runs twice under the same armed
//! spec: one charge at a time, then as 8-record group commits, where a
//! faulted group must acknowledge none of its records. Each group waits
//! for the snapshot fold it may have started, so the armed site — on the
//! request path or in the folder thread — fires at a
//! deterministic position, and the test checks that it did fire. Global
//! arming is process-wide, so this lives in its own binary with a single
//! test (mirroring `resilience_env.rs` in the core crate).

use geoind_serve::ledger::{LedgerConfig, SpendError, SpendLedger};
use geoind_testkit::failpoint;
use std::collections::BTreeMap;
use std::fs;

const EPS: f64 = 0.4;
const USERS: u64 = 4;
const REQUESTS: u64 = 32;

#[test]
fn env_armed_journal_faults_never_lose_acknowledged_spend() {
    for group in [1, 8] {
        // Fold in whatever the sweep armed; when run bare, arm a
        // count-based append fault ourselves so the refusal path still
        // runs.
        failpoint::reset_global();
        let from_env = failpoint::arm_from_env().expect("GEOIND_FAILPOINTS must parse");
        let sites: Vec<String> = match std::env::var("GEOIND_FAILPOINTS") {
            Ok(list) if from_env > 0 => list
                .split(',')
                .filter_map(|pair| pair.split_once('='))
                .map(|(site, _)| site.trim().to_string())
                .collect(),
            _ => {
                failpoint::arm_global("serve.journal.flush", failpoint::FailSpec::times(2));
                vec!["serve.journal.flush".to_string()]
            }
        };
        crash_and_recover(group, &sites);
    }
}

/// Drive the workload in groups of `group` charges (`1` = one
/// `try_spend` at a time) under the armed faults, check that every armed
/// site fired, crash, disarm, and recover.
fn crash_and_recover(group: usize, sites: &[String]) {
    let dir =
        std::env::temp_dir().join(format!("geoind-journal-env-{}-{group}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let config = LedgerConfig {
        cap_per_user: 100.0,
        epoch: 0,
        compact_after: 5,
    };

    // Armed sites can fire during recovery itself (the fresh open writes
    // a snapshot and a WAL); a refused open must be retryable, not
    // corrupting. Count-based specs exhaust, so bounded retries suffice.
    let mut ledger = None;
    for _ in 0..8 {
        match SpendLedger::open(&dir, config) {
            Ok(l) => {
                ledger = Some(l);
                break;
            }
            Err(e) => {
                // A faulted open must leave the directory recoverable.
                eprintln!("open refused (retrying): {e}");
            }
        }
    }
    let mut ledger = ledger.expect("open must succeed once count-based faults exhaust");

    let charges: Vec<(u64, f64)> = (0..REQUESTS).map(|i| (i % USERS, EPS)).collect();
    let mut served: BTreeMap<u64, f64> = BTreeMap::new();
    let mut refused = 0u64;
    for chunk in charges.chunks(group) {
        let results = match chunk {
            [(user, eps)] => vec![ledger.try_spend(*user, *eps)],
            _ => {
                let (probes, append) = ledger.try_spend_many(chunk);
                probes
                    .into_iter()
                    .map(|probe| probe.and_then(|()| append.clone().map_err(SpendError::Journal)))
                    .collect()
            }
        };
        let faulted = results.iter().filter(|r| r.is_err()).count();
        assert!(
            faulted == 0 || faulted == chunk.len(),
            "a faulted group acknowledged {} of its {} records",
            chunk.len() - faulted,
            chunk.len()
        );
        for (&(user, eps), result) in chunk.iter().zip(results) {
            match result {
                Ok(()) => *served.entry(user).or_insert(0.0) += eps,
                Err(SpendError::Journal(e)) => {
                    eprintln!("group of {group}: user {user} refused fail-closed: {e}");
                    refused += 1;
                }
                Err(other) => panic!("unexpected refusal: {other:?}"),
            }
        }
        ledger.await_fold();
    }
    for site in sites {
        assert!(
            failpoint::fired(site) > 0,
            "group of {group}: the armed site {site} never fired"
        );
    }
    let served_total: f64 = served.values().sum();
    assert!(
        (served_total - (REQUESTS - refused) as f64 * EPS).abs() < 1e-9,
        "served/refused bookkeeping drifted"
    );
    drop(ledger); // crash: no checkpoint

    // "Restart": the faults are gone (fresh process in the real sweep),
    // the journal is whatever the crash left on disk.
    failpoint::reset_global();
    let recovered = SpendLedger::open(&dir, config).expect("recovery must succeed once disarmed");
    for user in 0..USERS {
        let s = served.get(&user).copied().unwrap_or(0.0);
        let r = recovered.spent(user);
        assert!(
            r >= s - 1e-9,
            "group of {group}, user {user}: recovered {r} < served {s} — \
             the fail-closed invariant is broken"
        );
    }
    assert!(
        (recovered.total_spent() - served_total).abs() < 1e-9,
        "group of {group}: recovered total {} != served total {served_total}",
        recovered.total_spent()
    );
    fs::remove_dir_all(&dir).ok();
}
