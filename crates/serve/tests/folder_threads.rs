//! The folder thread lives exactly as long as some ledger holds it: a
//! dropped ledger waits for its in-flight snapshot fold, and the last one
//! to drop joins the thread. The test counts the process's threads, so it
//! has a binary of its own.

use geoind_serve::ledger::{LedgerConfig, SpendLedger};
use std::fs;

/// The `Threads:` count of `/proc/self/status`, where procfs exists.
fn threads() -> Option<u64> {
    fs::read_to_string("/proc/self/status")
        .ok()?
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))?
        .trim()
        .parse()
        .ok()
}

#[test]
fn dropped_ledgers_join_their_folder_threads() {
    let dir = std::env::temp_dir().join(format!("geoind-folder-threads-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let config = LedgerConfig {
        cap_per_user: 100.0,
        epoch: 0,
        // Every spend that finds a spare starts a fold, so most drops
        // below land while a fold is in flight.
        compact_after: 1,
    };
    let before = threads();
    for i in 0..200u64 {
        let mut ledger = SpendLedger::open(&dir, config).expect("open");
        ledger.try_spend(i % 7, 0.25).expect("spend");
    }
    assert_eq!(threads(), before, "a folder thread outlived its ledger");
    let recovered = SpendLedger::open(&dir, config).expect("recover");
    assert!((recovered.total_spent() - 50.0).abs() < 1e-9);
    drop(recovered);
    fs::remove_dir_all(&dir).ok();
}
