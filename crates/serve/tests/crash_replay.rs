//! Deterministic crash-replay suite for the spend journal.
//!
//! For every `serve.*` failpoint site, a workload is driven with a fault
//! forced at that site, the process "crashes" (the ledger is dropped
//! without a checkpoint), and recovery must uphold the fail-closed
//! invariant: **recovered spend ≥ spend of requests actually served**,
//! per user. A faulted request is always refused, never served — so a
//! crash can waste budget, but can never mint it back.
//!
//! Arming is thread-scoped ([`Session`]) so these tests run concurrently;
//! the process-restart version of the same sweep lives in
//! `journal_env.rs` and is driven by `scripts/ci.sh` via
//! `GEOIND_FAILPOINTS`.

use geoind_serve::journal::{Journal, JournalError};
use geoind_serve::ledger::{LedgerConfig, SpendError, SpendLedger};
use geoind_testkit::failpoint::{FailSpec, Session};
use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

const EPS: f64 = 0.4;
const USERS: u64 = 5;
const REQUESTS: u64 = 40;

/// The journal's failpoint sites, as swept by this suite. The drift guard
/// in `tests/failpoint_drift.rs` checks that every `serve.journal.*`,
/// `serve.snapshot.*` and `serve.wal.*` entry of the canonical
/// [`geoind_testkit::failpoint::SITES`] list is here.
const JOURNAL_SITES: &[&str] = &[
    "serve.journal.append",
    "serve.journal.torn",
    "serve.journal.flush",
    "serve.journal.enospc",
    "serve.journal.eio",
    "serve.snapshot.write",
    "serve.snapshot.commit",
    "serve.snapshot.enospc",
    "serve.wal.reset",
];

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "geoind-crashreplay-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn config(cap: f64, compact_after: u64) -> LedgerConfig {
    LedgerConfig {
        cap_per_user: cap,
        epoch: 0,
        compact_after,
    }
}

/// Drive `REQUESTS` spends round-robin over `USERS` users with `site`
/// armed, then crash (drop without close). Each spend waits for the fold
/// it may have started, so fold-site faults fire at deterministic
/// positions. Returns per-user ε of the requests that were actually
/// acknowledged (served).
fn drive_and_crash(
    dir: &std::path::Path,
    site: &str,
    spec: FailSpec,
    compact_after: u64,
) -> BTreeMap<u64, f64> {
    let mut ledger = SpendLedger::open(dir, config(100.0, compact_after)).expect("open");
    let mut fp = Session::new();
    fp.arm(site, spec);
    let mut served: BTreeMap<u64, f64> = BTreeMap::new();
    let mut refused = 0u64;
    for i in 0..REQUESTS {
        let user = i % USERS;
        match ledger.try_spend(user, EPS) {
            Ok(()) => *served.entry(user).or_insert(0.0) += EPS,
            Err(SpendError::Journal(_)) => refused += 1,
            Err(other) => panic!("unexpected refusal under {site}: {other:?}"),
        }
        ledger.await_fold();
    }
    // The armed site must actually have fired, on whichever thread ran
    // it: snapshot and spare-segment sites fire in the folder.
    assert!(
        fp.fired(site) > 0,
        "{site} {spec:?}: the armed fault never fired"
    );
    // Append-path faults must refuse at least once. Snapshot faults are
    // absorbed (the spends were already durable) — except `serve.wal.reset`,
    // which the next append retries as its self-heal and so may surface.
    if site.starts_with("serve.journal.") {
        assert!(refused > 0, "{site}: append fault never refused a request");
    } else if site != "serve.wal.reset" {
        assert_eq!(refused, 0, "{site}: snapshot fault leaked into a refusal");
    }
    drop(fp);
    drop(ledger); // crash: no checkpoint
    served
}

#[test]
fn every_journal_site_recovers_at_least_the_served_spend() {
    for &site in JOURNAL_SITES {
        // Sweep a few fault positions: first hit, mid-workload, and a
        // repeating burst.
        for spec in [
            FailSpec::after(0, 1),
            FailSpec::after(7, 1),
            FailSpec::times(3),
        ] {
            let dir = temp_dir("sweep");
            // compact_after=4 forces snapshots (and their failpoints) to
            // fire mid-workload.
            let served = drive_and_crash(&dir, site, spec, 4);
            let recovered = SpendLedger::open(&dir, config(100.0, 4)).expect("recover");
            for user in 0..USERS {
                let s = served.get(&user).copied().unwrap_or(0.0);
                let r = recovered.spent(user);
                // The invariant: recovery may over-count (a journaled
                // record whose response never went out) but never
                // under-count.
                assert!(
                    r >= s - 1e-9,
                    "{site} {spec:?}: user {user} recovered {r} < served {s}"
                );
                // In-process injection repairs the tail before the crash,
                // so here recovery is in fact exact.
                assert!(
                    (r - s).abs() < 1e-9,
                    "{site} {spec:?}: user {user} recovered {r} != served {s}"
                );
            }
            fs::remove_dir_all(&dir).ok();
        }
    }
}

#[test]
fn exhausted_user_stays_refused_after_faulted_crash() {
    let dir = temp_dir("exhausted");
    let cap = 2.0 * EPS;
    let mut ledger = SpendLedger::open(&dir, config(cap, 0)).expect("open");
    let mut fp = Session::new();
    // Fault the second append: the user pays for requests 1 and 3, the
    // faulted request 2 is refused and spends nothing.
    fp.arm("serve.journal.flush", FailSpec::after(1, 1));
    assert!(ledger.try_spend(1, EPS).is_ok());
    assert!(matches!(
        ledger.try_spend(1, EPS),
        Err(SpendError::Journal(JournalError::Injected(_)))
    ));
    assert!(ledger.try_spend(1, EPS).is_ok());
    assert!(matches!(
        ledger.try_spend(1, EPS),
        Err(SpendError::Exhausted { .. })
    ));
    drop(fp);
    drop(ledger); // crash
    let mut recovered = SpendLedger::open(&dir, config(cap, 0)).expect("recover");
    assert!((recovered.spent(1) - cap).abs() < 1e-9);
    assert!(
        matches!(
            recovered.try_spend(1, EPS),
            Err(SpendError::Exhausted { .. })
        ),
        "an exhausted user must stay exhausted across a restart"
    );
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn crash_after_the_snapshot_commit_before_the_spare_exists_never_double_counts() {
    let dir = temp_dir("nospare");
    let mut ledger = SpendLedger::open(&dir, config(100.0, 2)).expect("open");
    ledger.try_spend(3, EPS).expect("spend"); // its group creates the spare
    ledger.await_fold();
    let mut fp = Session::new();
    // The fold commits its snapshot and retires the sealed segment; the
    // next spare's creation is where the "crash" lands.
    fp.arm("serve.wal.reset", FailSpec::always());
    ledger.try_spend(3, EPS).expect("spend"); // rotates, starts the fold
    ledger.await_fold();
    assert_eq!(fp.fired("serve.wal.reset"), 1);
    assert_eq!(ledger.folds(), 1, "the snapshot did not commit");
    assert!(ledger.last_compaction_fault().is_some());
    drop(fp);
    drop(ledger); // crash
    let names: Vec<String> = fs::read_dir(&dir)
        .expect("list dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("ledger.wal"))
        .collect();
    assert_eq!(
        names,
        ["ledger.wal.2"],
        "covered segment kept or spare made"
    );
    let (_, recovered) = Journal::open(&dir, 0).expect("recover");
    // The covered segment's two records are already folded into the
    // snapshot; replaying them too would double-charge the user.
    assert!(
        (recovered.spent[&3] - 2.0 * EPS).abs() < 1e-9,
        "covered segment replayed on top of its own fold: {recovered:?}"
    );
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn wal_reset_fault_self_heals_on_the_next_append() {
    let dir = temp_dir("selfheal");
    let mut cfg = config(100.0, 3);
    let mut ledger = SpendLedger::open(&dir, cfg).expect("open");
    let mut fp = Session::new();
    fp.arm("serve.wal.reset", FailSpec::after(0, 1));
    for _ in 0..9 {
        // The first spare-segment creation faults once; the spends stay
        // durable, and the next group retries the fold.
        ledger.try_spend(2, EPS).expect("spend");
        ledger.await_fold();
    }
    assert!(ledger.last_compaction_fault().is_some());
    drop(fp);
    drop(ledger); // crash
    cfg.compact_after = 0;
    let recovered = SpendLedger::open(&dir, cfg).expect("recover");
    assert!(
        (recovered.spent(2) - 9.0 * EPS).abs() < 1e-9,
        "self-healed WAL lost or double-counted: spent {}",
        recovered.spent(2)
    );
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn fault_during_epoch_advance_open_never_leaks_old_spend() {
    let dir = temp_dir("epochfault");
    let mut ledger = SpendLedger::open(&dir, config(100.0, 0)).expect("open");
    for _ in 0..4 {
        ledger.try_spend(8, EPS).expect("spend");
    }
    drop(ledger); // crash in epoch 0
                  // The epoch-1 open commits a budget-reset snapshot before returning;
                  // fault that commit, as a crash mid-advance would.
    let mut fp = Session::new();
    fp.arm("serve.snapshot.commit", FailSpec::after(0, 1));
    let mut cfg = config(100.0, 0);
    cfg.epoch = 1;
    let err = SpendLedger::open(&dir, cfg).expect_err("advance must fault");
    assert!(matches!(
        err,
        JournalError::Injected("serve.snapshot.commit")
    ));
    drop(fp);
    // Retry in epoch 1: budgets renew, nothing from epoch 0 leaks in.
    let recovered = SpendLedger::open(&dir, cfg).expect("retry open");
    assert_eq!(recovered.users(), 0, "epoch-0 spend leaked: {recovered:?}");
    // And the old epoch can no longer be opened (regression refused).
    let err = SpendLedger::open(&dir, config(100.0, 0)).expect_err("regression");
    assert!(matches!(err, JournalError::EpochRegression { .. }));
    fs::remove_dir_all(&dir).ok();
}

/// Sharded variant of the crash sweep: one shard's journal is damaged
/// beyond recovery while an append fault is also in play. The damaged
/// shard must refuse its users fail-closed; every *healthy* shard must
/// recover exactly what it served — and only what **it** served, never a
/// record that belongs to another shard (no cross-shard double-count).
#[test]
fn sharded_crash_refuses_damaged_shard_and_recovers_the_rest_exactly() {
    use geoind_serve::shard::{shard_of, ShardedLedger};

    const SHARDS: usize = 4;
    const DAMAGED: usize = 1;
    // Crash one shard mid-append at three fault positions: first hit,
    // mid-workload, and a repeating burst.
    for spec in [
        FailSpec::after(0, 1),
        FailSpec::after(7, 1),
        FailSpec::times(3),
    ] {
        let dir = temp_dir("sharded");
        // Phase 1 (clean): put committed, snapshotted spend on every
        // shard so the damage in phase 3 hits a checksummed region.
        let mut served: BTreeMap<u64, f64> = BTreeMap::new();
        {
            let ledger = ShardedLedger::open(&dir, config(100.0, 0), SHARDS);
            for k in 0..SHARDS {
                let user = (0..64)
                    .find(|&u| shard_of(u, SHARDS) == k)
                    .expect("a user per shard");
                ledger.try_spend(user, EPS).expect("clean spend");
                *served.entry(user).or_insert(0.0) += EPS;
            }
            ledger.checkpoint_all().expect("checkpoint");
        }
        // Phase 2 (faulted): more spends with the append site armed;
        // the session is thread-scoped and try_spend runs right here,
        // so the fault lands inside whichever shard the user routes to.
        let mut refused = 0u64;
        {
            let ledger = ShardedLedger::open(&dir, config(100.0, 0), SHARDS);
            let mut fp = Session::new();
            fp.arm("serve.journal.append", spec);
            for i in 0..REQUESTS {
                let user = i % USERS;
                match ledger.try_spend(user, EPS) {
                    Ok(()) => *served.entry(user).or_insert(0.0) += EPS,
                    Err(SpendError::Journal(_)) => refused += 1,
                    Err(other) => panic!("unexpected refusal: {other:?}"),
                }
            }
            drop(fp);
            // Crash: dropped without checkpoint.
        }
        assert!(refused > 0, "{spec:?}: append fault never refused");

        // Phase 3: damage the snapshot of one shard (a committed,
        // checksummed region — not a recoverable torn tail).
        let snap = dir.join(format!("shard-{DAMAGED}")).join("ledger.snap");
        let mut bytes = fs::read(&snap).expect("read snap");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&snap, &bytes).expect("write damaged snap");

        let recovered = ShardedLedger::open(&dir, config(100.0, 0), SHARDS);
        let failed = recovered.failed_shards();
        assert_eq!(failed.len(), 1, "{spec:?}: exactly one shard damaged");
        assert_eq!(failed[0].0, DAMAGED);

        let mut healthy_expected = 0.0;
        for (&user, &spend) in &served {
            if shard_of(user, SHARDS) == DAMAGED {
                // Fail-closed: without the shard's record the user's
                // position is unknown — refuse, never serve.
                match recovered.try_spend(user, EPS) {
                    Err(SpendError::ShardUnavailable { shard, .. }) => {
                        assert_eq!(shard, DAMAGED as u64);
                    }
                    other => panic!("{spec:?}: damaged shard answered {other:?}"),
                }
            } else {
                // Healthy shards recover exactly what they served: the
                // in-process fault repairs the tail before the crash, and
                // no record from another shard can leak in.
                let r = recovered.spent(user).expect("healthy shard serves");
                assert!(
                    (r - spend).abs() < 1e-9,
                    "{spec:?}: user {user} recovered {r}, served {spend}"
                );
                healthy_expected += spend;
            }
        }
        assert!(
            (recovered.total_spent() - healthy_expected).abs() < 1e-9,
            "{spec:?}: cross-shard double-count"
        );
        fs::remove_dir_all(&dir).ok();
    }
}

// ---------------------------------------------------------------------------
// Scavenge matrix: each damage class × whether salvage succeeds or abandons.
// The invariant under test throughout: after quarantine → scavenge →
// re-admission, recovered spend ≥ served spend, and nothing is charged twice.
// ---------------------------------------------------------------------------

mod scavenge_matrix {
    use super::*;
    use geoind_serve::journal::{scavenge, ScavengeReport};
    use geoind_serve::shard::{RepairMode, ShardHealth, ShardedLedger};

    /// A corrupt committed snapshot is *unsalvageable by design*: without
    /// a trusted base the scavenge cannot bound what was served, so it
    /// abandons with the typed corruption reason rather than guessing.
    #[test]
    fn corrupt_snapshot_abandons_with_typed_reason() {
        let dir = temp_dir("sc-snapcorrupt");
        let mut ledger = SpendLedger::open(&dir, config(100.0, 0)).expect("open");
        for _ in 0..3 {
            ledger.try_spend(4, EPS).expect("spend");
        }
        ledger.checkpoint().expect("checkpoint");
        drop(ledger); // crash
        let snap = dir.join("ledger.snap");
        let mut bytes = fs::read(&snap).expect("read snap");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&snap, &bytes).expect("damage snap");
        let err = scavenge(&dir, 0).expect_err("corrupt base must abandon");
        assert!(
            matches!(err, JournalError::Corrupt { .. }),
            "want typed Corrupt, got {err:?}"
        );
        fs::remove_dir_all(&dir).ok();
    }

    /// A torn WAL tail (write cut mid-record) salvages every complete
    /// checksummed record and truncates the partial one away — then the
    /// *standard* open verifies the committed salvage with no
    /// double-count.
    #[test]
    fn torn_wal_tail_salvages_complete_records_exactly() {
        let dir = temp_dir("sc-torntail");
        let mut ledger = SpendLedger::open(&dir, config(100.0, 0)).expect("open");
        for _ in 0..5 {
            ledger.try_spend(9, EPS).expect("spend");
        }
        drop(ledger); // crash with 5 records in the WAL
        let wal = dir.join("ledger.wal.1");
        let len = fs::metadata(&wal).expect("stat wal").len();
        // Cut the 5th record mid-write: 13 of its 32 bytes survive.
        fs::OpenOptions::new()
            .write(true)
            .open(&wal)
            .and_then(|f| f.set_len(len - 19))
            .expect("tear tail");
        let report: ScavengeReport = scavenge(&dir, 0).expect("salvage");
        assert_eq!(report.wal_records, 4, "complete records salvaged");
        assert_eq!(report.ambiguous_records, 0, "trusted header, in-seq");
        assert!((report.salvaged[&9] - 4.0 * EPS).abs() < 1e-9);
        // Standard open over the committed salvage: exact, no replay of
        // the salvaged records on top of their own fold.
        let recovered = SpendLedger::open(&dir, config(100.0, 0)).expect("verify open");
        assert!(
            (recovered.spent(9) - 4.0 * EPS).abs() < 1e-9,
            "double-charge or loss after salvage: {}",
            recovered.spent(9)
        );
        fs::remove_dir_all(&dir).ok();
    }

    /// A stale-generation segment (one a committed snapshot covers, left
    /// behind by a crash before its deletion) is the one case where
    /// *discarding* records is provably safe: the later-generation
    /// snapshot already folded them in. Applying them anyway would
    /// double-charge.
    #[test]
    fn stale_generation_wal_is_discarded_not_replayed() {
        let dir = temp_dir("sc-stalegen");
        let mut ledger = SpendLedger::open(&dir, config(100.0, 0)).expect("open");
        ledger.try_spend(3, EPS).expect("spend");
        ledger.try_spend(3, EPS).expect("spend");
        let old_wal = fs::read(dir.join("ledger.wal.1")).expect("save old segment");
        ledger.checkpoint().expect("checkpoint");
        drop(ledger);
        // Re-plant the folded segment: its header generation now trails
        // the snapshot's — exactly what a crash between the snapshot
        // commit and the segment's deletion leaves behind.
        fs::write(dir.join("ledger.wal.1"), &old_wal).expect("replant stale segment");
        let report = scavenge(&dir, 0).expect("salvage");
        assert!(report.stale_wal_discarded, "stale WAL must be recognized");
        assert_eq!(report.wal_records, 0, "stale records must not be applied");
        assert!(
            (report.salvaged[&3] - 2.0 * EPS).abs() < 1e-9,
            "snapshot base double-counted: {:?}",
            report.salvaged
        );
        let recovered = SpendLedger::open(&dir, config(100.0, 0)).expect("verify open");
        assert!((recovered.spent(3) - 2.0 * EPS).abs() < 1e-9);
        fs::remove_dir_all(&dir).ok();
    }

    /// Scavenge reads every segment: a stale one is discarded, a sealed
    /// one behind a damaged header is applied as ambiguous (upward), and
    /// the active one is applied as trusted — then everything is folded
    /// into one snapshot and one fresh segment.
    #[test]
    fn scavenge_salvages_every_non_stale_segment() {
        let dir = temp_dir("sc-segments");
        let mut ledger = SpendLedger::open(&dir, config(100.0, 2)).expect("open");
        ledger.try_spend(5, EPS).expect("spend"); // its group creates the spare
        ledger.await_fold();
        let stale = fs::read(dir.join("ledger.wal.1")).expect("save segment 1");
        ledger.try_spend(5, EPS).expect("spend"); // fold 1: snapshot 2
        ledger.await_fold();
        let mut fp = Session::new();
        fp.arm("serve.snapshot.commit", FailSpec::always());
        ledger.try_spend(5, EPS).expect("spend");
        ledger.try_spend(5, EPS).expect("spend"); // seals segment 2; fold faults
        ledger.await_fold();
        ledger.try_spend(5, EPS).expect("spend"); // into active segment 3
        ledger.await_fold();
        assert!(fp.fired("serve.snapshot.commit") > 0);
        drop(fp);
        drop(ledger); // crash: snapshot 2, segments 2 (sealed) and 3
        fs::write(dir.join("ledger.wal.1"), &stale).expect("replant stale segment");
        let sealed = dir.join("ledger.wal.2");
        let mut bytes = fs::read(&sealed).expect("read sealed segment");
        bytes[9] ^= 0x20; // header version byte: checksum no longer verifies
        fs::write(&sealed, &bytes).expect("damage header");

        let report = scavenge(&dir, 0).expect("salvage");
        assert!(report.stale_wal_discarded);
        assert_eq!(report.wal_records, 3, "sealed 2 + active 1");
        assert_eq!(report.ambiguous_records, 2, "the sealed segment's records");
        assert!((report.salvaged[&5] - 5.0 * EPS).abs() < 1e-9, "{report:?}");
        let names: Vec<String> = fs::read_dir(&dir)
            .expect("list dir")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with("ledger.wal"))
            .collect();
        assert_eq!(names, ["ledger.wal.4"], "one fresh segment past all");
        let recovered = SpendLedger::open(&dir, config(100.0, 2)).expect("verify open");
        assert!((recovered.spent(5) - 5.0 * EPS).abs() < 1e-9);
        fs::remove_dir_all(&dir).ok();
    }

    /// A WAL whose header is corrupted but whose records verify is the
    /// ambiguity case: the records *might* already be folded into the
    /// snapshot, so scavenge applies them anyway — over-counting is the
    /// safe direction (recovered ≥ served stays provable), under-counting
    /// would void the privacy guarantee.
    #[test]
    fn untrusted_wal_header_resolves_ambiguity_upward() {
        let dir = temp_dir("sc-ambiguous");
        let mut ledger = SpendLedger::open(&dir, config(100.0, 0)).expect("open");
        for _ in 0..3 {
            ledger.try_spend(6, EPS).expect("spend");
        }
        drop(ledger); // crash
        let wal = dir.join("ledger.wal.1");
        let mut bytes = fs::read(&wal).expect("read wal");
        bytes[9] ^= 0x20; // header version byte: checksum no longer verifies
        fs::write(&wal, &bytes).expect("damage header");
        let report = scavenge(&dir, 0).expect("salvage");
        assert_eq!(report.wal_records, 3);
        assert_eq!(
            report.ambiguous_records, 3,
            "records under an untrusted header must be counted ambiguous"
        );
        let recovered = SpendLedger::open(&dir, config(100.0, 0)).expect("verify open");
        // Upward resolution: at least what was served; here the WAL was
        // never folded, so it is also exact.
        assert!(recovered.spent(6) >= 3.0 * EPS - 1e-9);
        fs::remove_dir_all(&dir).ok();
    }

    /// A fault during the salvage *commit* abandons that attempt typed —
    /// and leaves the directory untouched, so a later retry (disk freed)
    /// salvages the same records.
    #[test]
    fn faulted_salvage_commit_abandons_then_retries_clean() {
        let dir = temp_dir("sc-commitfault");
        let mut ledger = SpendLedger::open(&dir, config(100.0, 0)).expect("open");
        for _ in 0..2 {
            ledger.try_spend(7, EPS).expect("spend");
        }
        drop(ledger); // crash
        let mut fp = Session::new();
        fp.arm("serve.snapshot.write", FailSpec::after(0, 1));
        let err = scavenge(&dir, 0).expect_err("salvage commit must fault");
        assert!(matches!(
            err,
            JournalError::Injected("serve.snapshot.write")
        ));
        drop(fp);
        // Nothing was committed, nothing was lost: the retry salvages.
        let report = scavenge(&dir, 0).expect("retry salvage");
        assert!((report.salvaged[&7] - 2.0 * EPS).abs() < 1e-9);
        fs::remove_dir_all(&dir).ok();
    }

    /// ENOSPC mid-append, end to end through the sharded ledger (manual
    /// repair so every transition is deterministic): three `DiskFull`
    /// refusals quarantine the shard, its users get the typed
    /// `ShardUnavailable` while the sibling shard keeps serving, the
    /// aggregate read reports the shard unaccounted rather than zero, and
    /// after `repair_now` the shard walks Probation → Ready with the
    /// budget exactly as served — the refused spends were never charged.
    #[test]
    fn enospc_quarantine_repairs_to_ready_without_double_charge() {
        use geoind_serve::shard::shard_of;
        const SHARDS: usize = 2;
        let dir = temp_dir("sc-enospc");
        let ledger =
            ShardedLedger::open_with_repair(&dir, config(100.0, 0), SHARDS, RepairMode::Manual);
        let user_a = (0..64).find(|&u| shard_of(u, SHARDS) == 0).expect("user a");
        let user_b = (0..64).find(|&u| shard_of(u, SHARDS) == 1).expect("user b");
        for _ in 0..4 {
            ledger.try_spend(user_a, EPS).expect("baseline a");
            ledger.try_spend(user_b, EPS).expect("baseline b");
        }

        // Disk fills: three consecutive refused (never charged) appends
        // strike the shard out.
        let mut fp = Session::new();
        fp.arm("serve.journal.enospc", FailSpec::times(3));
        for _ in 0..3 {
            match ledger.try_spend(user_a, EPS) {
                Err(SpendError::Journal(JournalError::DiskFull { .. })) => {}
                other => panic!("want typed DiskFull, got {other:?}"),
            }
        }
        drop(fp);

        // Quarantined: exactly this shard's users refuse typed; the
        // sibling shard and the fleet-wide accounting stay honest.
        match ledger.try_spend(user_a, EPS) {
            Err(SpendError::ShardUnavailable { shard: 0, detail }) => {
                assert!(detail.contains("quarantined"), "detail: {detail}");
            }
            other => panic!("quarantined shard answered {other:?}"),
        }
        ledger.try_spend(user_b, EPS).expect("sibling shard serves");
        assert!(ledger.spent(user_a).is_none(), "unknown, not zero");
        assert_eq!(ledger.unaccounted_shards(), 1);
        assert_eq!(ledger.shard_states()[0], ShardHealth::Quarantined);

        // Operator-triggered repair: scavenge re-reads snapshot + WAL,
        // the standard open verifies the salvage, the shard re-admits on
        // probation.
        assert_eq!(ledger.repair_now(), 1);
        ledger.await_repairs();
        assert_eq!(ledger.repaired_shards(), 1);
        assert_eq!(ledger.abandoned_repairs(), 0);
        assert_eq!(ledger.shard_states()[0], ShardHealth::Probation);

        // Exactly the served spend survived: 4 charged, 3 refused-free.
        let back = ledger.spent(user_a).expect("repaired shard serves");
        assert!(
            (back - 4.0 * EPS).abs() < 1e-9,
            "refused DiskFull spends were charged: {back}"
        );
        // First durable append clears probation: Ready.
        ledger.try_spend(user_a, EPS).expect("probation spend");
        assert_eq!(ledger.shard_states()[0], ShardHealth::Ready);
        assert!((ledger.spent(user_a).expect("ready") - 5.0 * EPS).abs() < 1e-9);
        fs::remove_dir_all(&dir).ok();
    }

    /// A shard that strikes out while its fold is in flight hands the
    /// repair a quiet directory: quarantine waits for the fold before the
    /// slot changes hands, so the scavenge never races a snapshot commit
    /// or a segment deletion, and the repaired shard recovers at least
    /// what was served.
    #[test]
    fn quarantine_waits_for_the_fold_before_the_scavenge() {
        let dir = temp_dir("sc-foldrepair");
        // compact_after 1: after every durable spend a fold is in flight.
        let ledger = ShardedLedger::open_with_repair(&dir, config(100.0, 1), 1, RepairMode::Manual);
        let mut served = 0.0;
        for _ in 0..10_000 {
            ledger.try_spend(7, EPS).expect("spend");
            served += EPS;
            if ledger.folds() > 0 {
                break;
            }
        }
        assert!(ledger.folds() > 0, "no fold ever committed");
        // The flush-faulted groups never reach the fold step, so the fold
        // the last spend left in flight is still in flight at the strike.
        let mut fp = Session::new();
        fp.arm("serve.journal.flush", FailSpec::times(3));
        for _ in 0..3 {
            assert!(matches!(
                ledger.try_spend(7, EPS),
                Err(SpendError::Journal(JournalError::Injected(_)))
            ));
        }
        drop(fp);
        assert_eq!(ledger.shard_states()[0], ShardHealth::Quarantined);

        // The in-flight fold finished before the quarantine took effect:
        // its snapshot covers every segment but the active one and the
        // spare, and no temp file is left half-written.
        let shard = dir.join("shard-0");
        let snap = fs::read(shard.join("ledger.snap")).expect("read snapshot");
        let snap_gen = u64::from_le_bytes(snap[12..20].try_into().expect("gen word"));
        let mut files: Vec<String> = fs::read_dir(&shard)
            .expect("list shard")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        files.sort();
        let mut want = vec![
            "ledger.snap".to_string(),
            format!("ledger.wal.{snap_gen}"),
            format!("ledger.wal.{}", snap_gen + 1),
        ];
        want.sort();
        assert_eq!(files, want, "the fold was still running at quarantine");
        let folds = ledger.folds();

        assert_eq!(ledger.repair_now(), 1);
        ledger.await_repairs();
        assert_eq!(ledger.repaired_shards(), 1);
        let recovered = ledger.spent(7).expect("repaired shard serves");
        assert!(
            recovered >= served - 1e-9,
            "recovered {recovered} < served {served}"
        );
        assert!(ledger.folds() >= folds, "fold count went backwards");
        fs::remove_dir_all(&dir).ok();
    }

    /// The same ENOSPC outage under `RepairMode::Auto`: the third strike
    /// both quarantines the shard *and* spawns the repair, which heals to
    /// Ready with no operator involvement and no restart.
    #[test]
    fn enospc_auto_repair_heals_without_operator() {
        let dir = temp_dir("sc-autoenospc");
        let ledger = ShardedLedger::open_with_repair(&dir, config(100.0, 0), 1, RepairMode::Auto);
        for _ in 0..2 {
            ledger.try_spend(11, EPS).expect("baseline");
        }
        let mut fp = Session::new();
        fp.arm("serve.journal.enospc", FailSpec::times(3));
        for _ in 0..3 {
            match ledger.try_spend(11, EPS) {
                Err(SpendError::Journal(JournalError::DiskFull { .. })) => {}
                other => panic!("want typed DiskFull, got {other:?}"),
            }
        }
        drop(fp);
        // The strike-out spawned the repair itself; joining it is the
        // only synchronization the test needs.
        ledger.await_repairs();
        assert_eq!(ledger.repaired_shards(), 1);
        let back = ledger.spent(11).expect("healed shard serves");
        assert!((back - 2.0 * EPS).abs() < 1e-9, "charged a refusal: {back}");
        ledger.try_spend(11, EPS).expect("serves after self-heal");
        assert_eq!(ledger.shard_states()[0], ShardHealth::Ready);
        fs::remove_dir_all(&dir).ok();
    }
}

// ---------------------------------------------------------------------------
// Promotion matrix: the primary is killed with one request at each stage of
// the replication pipeline — never shipped, torn mid-ship, shipped but
// unacked, fully acked — then the follower is promoted. The invariants at
// every position: the follower holds every *served* spend exactly once
// (retransmits dedup by sequence, nothing is double-counted), the refused
// spend is replayable on the promoted follower, and a revived stale primary
// is fenced before any of its records can land.
// ---------------------------------------------------------------------------

mod promotion_matrix {
    use super::*;
    use geoind_serve::replica::{Applier, Shipper, ShipperConfig};
    use geoind_serve::shard::{shard_of, ShardedLedger};
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::time::Duration;

    const SHARDS: usize = 2;
    const BASELINE: u64 = 6;
    const FAULT_USER: u64 = 1;

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Position {
        /// The follower drops connections before reading a byte.
        PreShip,
        /// `serve.repl.ship_torn`: the batch is cut mid-write.
        TornShip,
        /// `serve.repl.ack_lost`: applied durably, ack never returns.
        ShippedUnacked,
        /// No fault: the spend is acked, then the primary dies.
        Acked,
    }

    /// The smallest honest stand-in for the follower's wire layer: an
    /// accept loop where each connection carries one `POST /replicate`,
    /// answered with the applier's verdict.
    struct MiniFollower {
        addr: String,
        refuse: Arc<AtomicBool>,
        stop: Arc<AtomicBool>,
        handle: Option<std::thread::JoinHandle<()>>,
    }

    impl MiniFollower {
        fn start(applier: Arc<Applier>, ledger: Arc<ShardedLedger>) -> Self {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind mini follower");
            let addr = listener.local_addr().expect("local addr").to_string();
            let refuse = Arc::new(AtomicBool::new(false));
            let stop = Arc::new(AtomicBool::new(false));
            let (refuse_l, stop_l) = (Arc::clone(&refuse), Arc::clone(&stop));
            let handle = std::thread::spawn(move || {
                for conn in listener.incoming() {
                    if stop_l.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(mut stream) = conn else { continue };
                    if refuse_l.load(Ordering::SeqCst) {
                        continue; // dropped before a single byte is read
                    }
                    let Some(body) = read_replicate_body(&mut stream) else {
                        continue; // torn ship: apply nothing
                    };
                    let verdict = applier.handle(&ledger, &body);
                    // A lost ack is the sender's problem, not ours.
                    let _ = stream.write_all(
                        format!(
                            "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n{verdict}",
                            verdict.len()
                        )
                        .as_bytes(),
                    );
                }
            });
            Self {
                addr,
                refuse,
                stop,
                handle: Some(handle),
            }
        }
    }

    impl Drop for MiniFollower {
        fn drop(&mut self) {
            self.stop.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(&self.addr); // unblock accept
            if let Some(handle) = self.handle.take() {
                let _ = handle.join();
            }
        }
    }

    /// Read one `POST /replicate` frame's body; `None` on a torn frame.
    fn read_replicate_body(stream: &mut TcpStream) -> Option<Vec<u8>> {
        stream
            .set_read_timeout(Some(Duration::from_millis(2_000)))
            .ok()?;
        let mut pending = Vec::new();
        let mut buf = [0u8; 4096];
        loop {
            if let Some(head_end) = pending.windows(4).position(|w| w == b"\r\n\r\n") {
                let head = std::str::from_utf8(&pending[..head_end]).ok()?;
                let mut content_length = 0usize;
                for line in head.split("\r\n").skip(1) {
                    if let Some((name, value)) = line.split_once(':') {
                        if name.eq_ignore_ascii_case("content-length") {
                            content_length = value.trim().parse().ok()?;
                        }
                    }
                }
                let body_start = head_end + 4;
                while pending.len() < body_start + content_length {
                    match stream.read(&mut buf) {
                        Ok(0) => return None,
                        Ok(n) => pending.extend_from_slice(&buf[..n]),
                        Err(_) => return None,
                    }
                }
                return Some(pending[body_start..body_start + content_length].to_vec());
            }
            match stream.read(&mut buf) {
                Ok(0) => return None,
                Ok(n) => pending.extend_from_slice(&buf[..n]),
                Err(_) => return None,
            }
        }
    }

    fn shipper_for(dir: &std::path::Path, peer: Option<&str>) -> Shipper {
        let shipper = Shipper::new(ShipperConfig {
            dir: Some(dir.to_path_buf()),
            shards: SHARDS,
            epoch: 0,
            max_lag: 4,
            timeout_ms: 500,
            auth_token: None,
        })
        .expect("build shipper");
        if let Some(peer) = peer {
            shipper.set_peer(peer).expect("register peer");
        }
        shipper
    }

    /// Run the matrix at `position` with a final request of `group`
    /// same-shard charges: one `try_spend` when `group` is 1, otherwise
    /// one `try_spend_many` group that must be acked, booked and refused
    /// whole.
    fn run_position(tag: &str, position: Position, group: usize) {
        let p_dir = temp_dir(&format!("promo-{tag}-p"));
        let f_dir = temp_dir(&format!("promo-{tag}-f"));
        let follower_ledger = Arc::new(ShardedLedger::open(&f_dir, config(100.0, 0), SHARDS));
        let applier = Arc::new(Applier::new(&follower_ledger, true));
        let follower = MiniFollower::start(Arc::clone(&applier), Arc::clone(&follower_ledger));

        let primary = ShardedLedger::open(&p_dir, config(100.0, 0), SHARDS);
        assert!(primary.attach_shipper(Arc::new(shipper_for(&p_dir, Some(&follower.addr)))));

        for i in 0..BASELINE {
            primary.try_spend(i % USERS, EPS).expect("baseline spend");
        }
        assert!(
            (follower_ledger.total_spent() - BASELINE as f64 * EPS).abs() < 1e-9,
            "every served spend must be acked durable on the follower first"
        );

        // The position-specific final request, then the primary dies.
        let finals: Vec<(u64, f64)> = (FAULT_USER..)
            .filter(|&u| shard_of(u, SHARDS) == shard_of(FAULT_USER, SHARDS))
            .take(group)
            .map(|u| (u, EPS))
            .collect();
        let mut fp = Session::new();
        match position {
            Position::PreShip => {
                follower.refuse.store(true, Ordering::SeqCst);
            }
            Position::TornShip => {
                fp.arm("serve.repl.ship_torn", FailSpec::always());
            }
            Position::ShippedUnacked => {
                fp.arm("serve.repl.ack_lost", FailSpec::always());
            }
            Position::Acked => {}
        }
        let answers = match finals.as_slice() {
            [(user, eps)] => vec![primary.try_spend(*user, *eps)],
            _ => primary.try_spend_many(&finals),
        };
        for answer in answers {
            match (position, answer) {
                (Position::Acked, Ok(())) => {}
                (Position::Acked, other) => panic!("{tag}: clean spend answered {other:?}"),
                (_, Err(SpendError::ReplicaLag { .. })) => {}
                (_, other) => panic!("{tag}: want a replica-lag refusal, got {other:?}"),
            }
        }
        drop(fp);
        follower.refuse.store(false, Ordering::SeqCst);
        drop(primary); // crash: no checkpoint, no graceful flush

        // Every acked serve is on the follower; the in-flight record only
        // where the whole batch actually landed — and even with the
        // in-request retransmits of the unacked case, exactly once.
        let landed = matches!(position, Position::ShippedUnacked | Position::Acked);
        let on_follower = BASELINE + if landed { group as u64 } else { 0 };
        assert!(
            (follower_ledger.total_spent() - on_follower as f64 * EPS).abs() < 1e-9,
            "{tag}: follower books {} != {on_follower} records",
            follower_ledger.total_spent()
        );
        // Per user, too: the whole group exactly once, or none of it.
        for &(user, _) in &finals {
            let baseline = (0..BASELINE).filter(|i| i % USERS == user).count();
            let want = (baseline + usize::from(landed)) as f64 * EPS;
            let booked = follower_ledger.spent(user).expect("follower shard serves");
            assert!(
                (booked - want).abs() < 1e-9,
                "{tag}: follower books {booked} for user {user}, want {want}"
            );
        }

        // Fenced failover: promotion bumps past every generation seen.
        let gen = applier.promote(&follower_ledger).expect("promote");
        assert_eq!(gen, 2, "{tag}");

        // The request the dead primary refused is replayable on the
        // promoted follower. (In the acked/unacked positions the record
        // already landed, and the wire layer's idempotency replays the
        // journaled outcome instead — covered in `tests/wire.rs`.)
        if !landed {
            for (user, eps) in finals.iter().copied() {
                follower_ledger
                    .try_spend(user, eps)
                    .expect("refused spend replays on the promoted follower");
            }
        }
        let settled = follower_ledger.total_spent();

        // The revived stale primary recovers its full journal — the
        // refused spend stays charged locally (over-counting, never
        // minting) — and resumes shipping to its persisted peer. The
        // newer generation refuses the first batch: hard fence, and not
        // one stale record lands on the promoted node.
        let revived = ShardedLedger::open(&p_dir, config(100.0, 0), SHARDS);
        assert!(
            (revived.total_spent() - (BASELINE + group as u64) as f64 * EPS).abs() < 1e-9,
            "{tag}: revived primary lost or minted records: {}",
            revived.total_spent()
        );
        let shipper = shipper_for(&p_dir, None);
        assert_eq!(
            shipper.peer().as_deref(),
            Some(follower.addr.as_str()),
            "{tag}: peer registration must survive the crash"
        );
        assert_eq!(shipper.generation(), 1, "{tag}: stale generation persisted");
        assert!(revived.attach_shipper(Arc::new(shipper)));
        for attempt in 0..2 {
            match revived.try_spend(FAULT_USER, EPS) {
                Err(SpendError::Fenced) => {}
                other => panic!("{tag}: revived primary attempt {attempt} answered {other:?}"),
            }
        }
        assert!(
            (follower_ledger.total_spent() - settled).abs() < 1e-9,
            "{tag}: a fenced batch changed the promoted node's books"
        );

        drop(follower);
        fs::remove_dir_all(&p_dir).ok();
        fs::remove_dir_all(&f_dir).ok();
    }

    /// A restarted primary (peer file persisted, in-memory sequence
    /// counters gone) must resume shipping at the follower's durable
    /// watermark. Without the handshake probe it would re-number new
    /// spends from 1: the follower's dedup would skip every one while
    /// still acking its old watermark, so the client hears `served`
    /// for spends the follower never applied — budget a later failover
    /// would silently re-grant.
    #[test]
    fn restarted_primary_resumes_at_the_followers_watermark() {
        let p_dir = temp_dir("promo-resume-p");
        let f_dir = temp_dir("promo-resume-f");
        let follower_ledger = Arc::new(ShardedLedger::open(&f_dir, config(100.0, 0), SHARDS));
        let applier = Arc::new(Applier::new(&follower_ledger, true));
        let follower = MiniFollower::start(Arc::clone(&applier), Arc::clone(&follower_ledger));

        {
            let primary = ShardedLedger::open(&p_dir, config(100.0, 0), SHARDS);
            assert!(primary.attach_shipper(Arc::new(shipper_for(&p_dir, Some(&follower.addr)))));
            for i in 0..BASELINE {
                primary.try_spend(i % USERS, EPS).expect("baseline spend");
            }
            // Crash: dropped without a flush. The peer registration
            // survives on disk; the shipper's counters do not.
        }

        let revived = ShardedLedger::open(&p_dir, config(100.0, 0), SHARDS);
        let shipper = shipper_for(&p_dir, None);
        assert_eq!(
            shipper.peer().as_deref(),
            Some(follower.addr.as_str()),
            "peer registration must survive the restart"
        );
        assert!(revived.attach_shipper(Arc::new(shipper)));
        for i in 0..BASELINE {
            revived
                .try_spend(i % USERS, EPS)
                .expect("post-restart spend");
        }
        assert!(
            (follower_ledger.total_spent() - 2.0 * BASELINE as f64 * EPS).abs() < 1e-9,
            "post-restart spends vanished into the follower's dedup window: \
             follower books {} want {}",
            follower_ledger.total_spent(),
            2.0 * BASELINE as f64 * EPS
        );

        drop(follower);
        fs::remove_dir_all(&p_dir).ok();
        fs::remove_dir_all(&f_dir).ok();
    }

    /// `per_user` interleaved charges for each of `users` users that all
    /// live on `FAULT_USER`'s shard.
    fn same_shard_charges(users: usize, per_user: usize) -> Vec<(u64, f64)> {
        let owners: Vec<u64> = (FAULT_USER..)
            .filter(|&u| shard_of(u, SHARDS) == shard_of(FAULT_USER, SHARDS))
            .take(users)
            .collect();
        (0..per_user)
            .flat_map(|_| owners.iter().map(|&user| (user, EPS)))
            .collect()
    }

    /// Serve `charges` on a fresh replicated pair (lag bound 4), as one
    /// `try_spend_many` group or one `try_spend` at a time. Returns the
    /// rendered answers and, per user, the spend booked on the primary
    /// and on the follower.
    fn serve_replicated(
        tag: &str,
        charges: &[(u64, f64)],
        cap: f64,
        grouped: bool,
    ) -> (String, BTreeMap<u64, (f64, f64)>) {
        let p_dir = temp_dir(&format!("{tag}-p"));
        let f_dir = temp_dir(&format!("{tag}-f"));
        let follower_ledger = Arc::new(ShardedLedger::open(&f_dir, config(cap, 0), SHARDS));
        let applier = Arc::new(Applier::new(&follower_ledger, true));
        let follower = MiniFollower::start(Arc::clone(&applier), Arc::clone(&follower_ledger));
        let primary = ShardedLedger::open(&p_dir, config(cap, 0), SHARDS);
        assert!(primary.attach_shipper(Arc::new(shipper_for(&p_dir, Some(&follower.addr)))));
        let answers: Vec<Result<(), SpendError>> = if grouped {
            primary.try_spend_many(charges)
        } else {
            charges
                .iter()
                .map(|&(user, eps)| primary.try_spend(user, eps))
                .collect()
        };
        let books = charges
            .iter()
            .map(|&(user, _)| {
                let on_primary = primary.spent(user).expect("primary shard serves");
                let on_follower = follower_ledger.spent(user).expect("follower shard serves");
                (user, (on_primary, on_follower))
            })
            .collect();
        drop(follower);
        fs::remove_dir_all(&p_dir).ok();
        fs::remove_dir_all(&f_dir).ok();
        // Debug renders each f64 exactly, so `remaining` must match bit for bit.
        (format!("{answers:?}"), books)
    }

    /// A shard group three times the lag bound is served in chunks the
    /// bound admits, never refused on its own reservations: every answer
    /// (caps binding mid-group included) and every booked spend equals
    /// one-at-a-time serving, and the follower holds all of it.
    #[test]
    fn a_group_larger_than_the_lag_bound_answers_like_sequential_spends() {
        let charges = same_shard_charges(3, 4);
        let cap = 3.5 * EPS; // each user's fourth charge is refused
        let sequential = serve_replicated("lag-seq", &charges, cap, false);
        let grouped = serve_replicated("lag-group", &charges, cap, true);
        assert_eq!(sequential, grouped);
        assert_eq!(grouped.0.matches("Ok(())").count(), 9, "{}", grouped.0);
        assert_eq!(grouped.0.matches("Exhausted").count(), 3, "{}", grouped.0);
        for (user, (on_primary, on_follower)) in grouped.1 {
            assert!(
                (on_primary - 3.0 * EPS).abs() < 1e-9 && on_primary == on_follower,
                "user {user}: primary {on_primary}, follower {on_follower}"
            );
        }
    }

    /// Two threads charging one shard at once, each group filling the lag
    /// bound: the later group waits for the earlier one's reservations to
    /// publish and be acked instead of being refused on them, so every
    /// charge is served, as one-at-a-time serving would, and every one is
    /// on the follower.
    #[test]
    fn concurrent_groups_on_one_shard_wait_for_each_others_reservations() {
        const ROUNDS: usize = 20;
        let p_dir = temp_dir("lag-concurrent-p");
        let f_dir = temp_dir("lag-concurrent-f");
        let follower_ledger = Arc::new(ShardedLedger::open(&f_dir, config(1e6, 0), SHARDS));
        let applier = Arc::new(Applier::new(&follower_ledger, true));
        let follower = MiniFollower::start(Arc::clone(&applier), Arc::clone(&follower_ledger));
        let primary = ShardedLedger::open(&p_dir, config(1e6, 0), SHARDS);
        assert!(primary.attach_shipper(Arc::new(shipper_for(&p_dir, Some(&follower.addr)))));
        let group = same_shard_charges(2, 2); // as many charges as the bound
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        (0..ROUNDS)
                            .flat_map(|_| {
                                barrier.wait();
                                primary.try_spend_many(&group)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for worker in workers {
                for answer in worker.join().expect("worker") {
                    assert!(answer.is_ok(), "refused: {answer:?}");
                }
            }
        });
        let served = (2 * ROUNDS * group.len()) as f64 * EPS;
        assert!((primary.total_spent() - served).abs() < 1e-6);
        assert!(
            (follower_ledger.total_spent() - served).abs() < 1e-6,
            "follower books {} of {served}",
            follower_ledger.total_spent()
        );
        drop(follower);
        fs::remove_dir_all(&p_dir).ok();
        fs::remove_dir_all(&f_dir).ok();
    }

    #[test]
    fn killed_before_shipping_promotes_without_the_refused_spend() {
        run_position("preship", Position::PreShip, 1);
    }

    #[test]
    fn killed_mid_ship_applies_nothing_and_promotes_clean() {
        run_position("torn", Position::TornShip, 1);
    }

    #[test]
    fn killed_after_ship_before_ack_keeps_exactly_one_copy() {
        run_position("unacked", Position::ShippedUnacked, 1);
    }

    #[test]
    fn killed_after_ack_loses_nothing() {
        run_position("acked", Position::Acked, 1);
    }

    #[test]
    fn killed_before_shipping_a_group_promotes_without_any_of_it() {
        run_position("preship-group", Position::PreShip, 4);
    }

    #[test]
    fn killed_mid_ship_of_a_group_applies_none_of_it() {
        run_position("torn-group", Position::TornShip, 4);
    }

    #[test]
    fn killed_after_shipping_a_group_before_ack_keeps_one_copy_of_all_of_it() {
        run_position("unacked-group", Position::ShippedUnacked, 4);
    }

    #[test]
    fn killed_after_a_group_ack_loses_none_of_it() {
        run_position("acked-group", Position::Acked, 4);
    }
}
