//! Group commit is invisible to callers: charging a list as
//! `try_spend_many` groups answers, spends and recovers exactly as
//! charging it one `try_spend` at a time — for the single ledger and for
//! a 4-shard ledger, with tight caps, repeated users, and folds landing
//! mid-group.

use geoind_serve::ledger::{LedgerConfig, SpendError, SpendLedger};
use geoind_serve::shard::ShardedLedger;
use geoind_testkit::gens::{f64_range, usize_range, vec_of};
use geoind_testkit::{check, ensure_eq, Config, PropResult};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const USERS: u64 = 6;

/// `(user, eps)` charges, group size, per-user cap, `compact_after`.
type Case = (Vec<(usize, f64)>, usize, f64, usize);

/// The ledger surface both implementations share.
trait Ledger {
    fn open(dir: &Path, config: LedgerConfig) -> Self;
    fn spend(&mut self, user: u64, eps: f64) -> Result<(), SpendError>;
    fn spend_many(&mut self, charges: &[(u64, f64)]) -> Vec<Result<(), SpendError>>;
    fn spent(&self, user: u64) -> f64;
    fn users(&self) -> usize;
}

impl Ledger for SpendLedger {
    fn open(dir: &Path, config: LedgerConfig) -> Self {
        SpendLedger::open(dir, config).expect("open ledger")
    }
    fn spend(&mut self, user: u64, eps: f64) -> Result<(), SpendError> {
        self.try_spend(user, eps)
    }
    fn spend_many(&mut self, charges: &[(u64, f64)]) -> Vec<Result<(), SpendError>> {
        let (probes, append) = self.try_spend_many(charges);
        probes
            .into_iter()
            .map(|probe| probe.and_then(|()| append.clone().map_err(SpendError::Journal)))
            .collect()
    }
    fn spent(&self, user: u64) -> f64 {
        SpendLedger::spent(self, user)
    }
    fn users(&self) -> usize {
        SpendLedger::users(self)
    }
}

impl Ledger for ShardedLedger {
    fn open(dir: &Path, config: LedgerConfig) -> Self {
        ShardedLedger::open(dir, config, 4)
    }
    fn spend(&mut self, user: u64, eps: f64) -> Result<(), SpendError> {
        self.try_spend(user, eps)
    }
    fn spend_many(&mut self, charges: &[(u64, f64)]) -> Vec<Result<(), SpendError>> {
        self.try_spend_many(charges)
    }
    fn spent(&self, user: u64) -> f64 {
        ShardedLedger::spent(self, user).expect("every shard serves")
    }
    fn users(&self) -> usize {
        ShardedLedger::users(self)
    }
}

/// A ledger directory removed when the case ends, pass or fail.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "geoind-group-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Self(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn group_matches_sequential<L: Ledger>(case: &Case, tag: &str) -> PropResult {
    let (charges, group, cap, compact_after) = case;
    let charges: Vec<(u64, f64)> = charges.iter().map(|&(u, eps)| (u as u64, eps)).collect();
    let config = LedgerConfig {
        cap_per_user: *cap,
        epoch: 0,
        compact_after: *compact_after as u64,
    };
    let (one_dir, many_dir) = (TempDir::new(tag), TempDir::new(tag));
    let mut one = L::open(&one_dir.0, config);
    let mut many = L::open(&many_dir.0, config);
    let one_results: Vec<_> = charges.iter().map(|&(u, eps)| one.spend(u, eps)).collect();
    let many_results: Vec<_> = charges
        .chunks(*group)
        .flat_map(|chunk| many.spend_many(chunk))
        .collect();
    // Debug renders each f64 exactly, so `remaining` must match bit for bit.
    ensure_eq!(format!("{one_results:?}"), format!("{many_results:?}"));
    ensure_eq!(one.users(), many.users());
    for user in 0..USERS {
        ensure_eq!(one.spent(user).to_bits(), many.spent(user).to_bits());
    }
    // Crash both without a checkpoint: the recovered spend must agree
    // too, whichever group boundaries the folds landed on. (Recovered
    // `users()` may not: a refused charge's zero-spend account survives
    // only if a fold happened after it, and folds land per group.)
    drop((one, many));
    let (one, many) = (L::open(&one_dir.0, config), L::open(&many_dir.0, config));
    for user in 0..USERS {
        ensure_eq!(one.spent(user).to_bits(), many.spent(user).to_bits());
    }
    Ok(())
}

fn cases() -> impl geoind_testkit::Gen<Value = Case> {
    (
        vec_of((usize_range(0, USERS as usize), f64_range(0.0, 0.9)), 1, 40),
        usize_range(1, 9),
        f64_range(0.5, 2.0),
        usize_range(1, 6),
    )
}

#[test]
fn single_ledger_groups_match_sequential_spends() {
    check(
        "SpendLedger::try_spend_many == sequential try_spend",
        Config::default(),
        &cases(),
        |case| group_matches_sequential::<SpendLedger>(case, "single"),
    );
}

#[test]
fn sharded_ledger_groups_match_sequential_spends() {
    check(
        "ShardedLedger::try_spend_many == sequential try_spend",
        Config::default(),
        &cases(),
        |case| group_matches_sequential::<ShardedLedger>(case, "sharded"),
    );
}
