//! Crash-safe serving front-end for geo-indistinguishable location
//! reporting.
//!
//! The paper's mechanism ([`geoind_core::MsmMechanism`], wrapped by the
//! [`geoind_core::ResilientMechanism`] degradation ladder) answers a
//! single report. A real deployment answers millions, concurrently, from
//! users whose privacy guarantee *composes* across reports — and it
//! crashes. This crate adds the serving layer that makes repeated,
//! concurrent use safe:
//!
//! * [`journal`] — a write-ahead journal with checksummed records,
//!   snapshot compaction via atomic rename, and recovery that tolerates
//!   truncated tails and torn records. Its invariant: **recovered spend
//!   is never less than the spend of requests actually served.**
//! * [`ledger`] — per-user, epoch-scoped ε-budget accounting on top of
//!   the journal. A request that would exceed the cap gets a typed
//!   refusal; it is never served at reduced privacy.
//! * [`server`] — a bounded-queue worker pool with load shedding,
//!   per-request deadlines checked before any sampling, graceful drain
//!   on shutdown, and per-tier/per-outcome counters.
//! * [`shard`] — the ledger split by user hash into N independent
//!   journals (`shard-<k>/`) so fsync and compaction never serialize;
//!   a shard that fails recovery refuses its users fail-closed while
//!   the rest keep serving, and (with repair enabled) walks a
//!   `Quarantined → Scavenging → Probation → Ready` state machine that
//!   salvages the journal and re-admits the shard only after the
//!   standard open verifies the salvage.
//! * [`replica`] — warm-standby replication: each served spend ships
//!   as a checksummed WAL record to a follower, over one kept-alive
//!   connection per shard, and is answered only after the follower's
//!   durable ack. The lag bound is checked under the shard's slot lock,
//!   and whichever worker needs an ack ships while no other one is
//!   shipping that shard (group commit over the network). Failover is
//!   fenced by a persisted generation so a revived stale primary is
//!   refused and split-brain cannot double-spend.
//! * [`signal`] — a libc-crate-free `SIGTERM`/`SIGINT` flag so
//!   `kill -TERM` runs the same graceful drain as `POST /shutdown`
//!   (plus `SIGUSR1` for follower promotion).
//! * [`wire`] — a std-only HTTP/1.1 front door over the worker pool:
//!   bounded accept backlog, per-connection deadlines, pipelined
//!   batches, idempotent retry keys, socket-level failpoints, and a
//!   graceful drain that reconciles exactly with what clients saw.
//! * [`client`] — the closed-loop load generator used by `geoind
//!   loadgen`: seeded exponential backoff with jitter, per-request
//!   timeouts, and end-of-run reconciliation against the server's own
//!   counters.
//!
//! Everything is std-only and deterministic under test: time comes from
//! [`geoind_testkit::clock::Clock`], randomness from seeded
//! [`geoind_rng::SeededRng`], and every fallible journal step carries a
//! named failpoint site for crash-replay testing.

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod client;
pub(crate) mod http;
pub mod journal;
pub(crate) mod json;
pub mod ledger;
pub mod replica;
pub mod server;
pub mod shard;
pub mod signal;
pub mod wire;

pub use client::{run_load, ClientConfig, ClientError, LoadReport};
pub use geoind_testkit::clock;
pub use journal::{
    atomic_write, is_transient_io, read_fence_gen, scavenge, write_fence_gen, Journal,
    JournalError, RecoveredState, ScavengeReport,
};
pub use json::Json;
pub use ledger::{LedgerConfig, SpendError, SpendLedger};
pub use replica::{register_with_primary, Applier, Shipper, ShipperConfig};
pub use server::{
    Request, Response, ServeConfig, ServeReport, Server, ShutdownOutcome, SubmitError,
};
pub use shard::{shard_of, RepairMode, ShardHealth, ShardHealthCounts, ShardedLedger};
pub use signal::{
    install_promote_handler, install_termination_handler, take_promote_requested,
    termination_requested,
};
pub use wire::{WireConfig, WireServer};
