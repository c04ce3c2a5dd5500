//! Signal-driven drain: a libc-crate-free `SIGTERM`/`SIGINT` handler
//! that does nothing but raise an atomic flag.
//!
//! An async-signal-safe handler may not lock, allocate, or touch the
//! server — so the handler here only stores into a `static AtomicBool`.
//! One loop polls the flag: the process owner's (the `geoind serve
//! --listen` command), which then runs the same graceful drain
//! `POST /shutdown` triggers, [`crate::wire::WireServer::shutdown`] —
//! accept-stop → handler-join → queue-drain → shard flush → final
//! report. The server's own threads wait on their events, not on this
//! flag: the drain wakes the blocked accept and ends every
//! connection's read itself. A `kill -TERM` therefore loses nothing a
//! client was promised: every acknowledged spend is journaled and
//! every in-flight exchange finishes before the process exits.
//!
//! The registration goes through the C runtime's `signal(2)` directly
//! (an `extern "C"` declaration against the libc every Rust binary
//! already links) — no new dependency, per the workspace's std-only
//! rule. On non-Unix targets installation is a no-op and the flag
//! simply never rises.

use std::sync::atomic::{AtomicBool, Ordering};

/// Raised by the handler; never cleared (termination is one-way).
static TERMINATE: AtomicBool = AtomicBool::new(false);

/// Raised by `SIGUSR1`; consumed by [`take_promote_requested`] so a
/// second delivery can request a second (harmless) promotion.
static PROMOTE: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod imp {
    use super::{Ordering, PROMOTE, TERMINATE};

    const SIGINT: i32 = 2;
    const SIGUSR1: i32 = 10;
    const SIGTERM: i32 = 15;

    extern "C" {
        // `signal(2)` from the C runtime the binary already links.
        // Returns the previous handler (unused).
        fn signal(signum: i32, handler: usize) -> usize;
    }

    // Async-signal-safe: a single relaxed store, nothing else.
    extern "C" fn on_terminate(_signum: i32) {
        TERMINATE.store(true, Ordering::Relaxed);
    }

    extern "C" fn on_promote(_signum: i32) {
        PROMOTE.store(true, Ordering::Relaxed);
    }

    pub(super) fn install() {
        // SAFETY: `signal` is the C runtime's registration call and
        // `on_terminate` is an `extern "C" fn(i32)` that only performs
        // an atomic store — async-signal-safe by construction.
        unsafe {
            signal(SIGTERM, on_terminate as *const () as usize);
            signal(SIGINT, on_terminate as *const () as usize);
        }
    }

    pub(super) fn install_promote() {
        // SAFETY: same contract as `install` — `on_promote` only
        // performs an atomic store.
        unsafe {
            signal(SIGUSR1, on_promote as *const () as usize);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    pub(super) fn install() {}
    pub(super) fn install_promote() {}
}

/// Install the `SIGTERM`/`SIGINT` handler. Idempotent; call once before
/// serving. On non-Unix targets this is a no-op.
pub fn install_termination_handler() {
    imp::install();
}

/// True once `SIGTERM` or `SIGINT` has been delivered (never resets).
pub fn termination_requested() -> bool {
    TERMINATE.load(Ordering::Relaxed)
}

/// Install the `SIGUSR1` handler that requests follower promotion —
/// the operator's out-of-band `POST /promote`, usable when the wire
/// port is busy or firewalled. Idempotent; no-op off Unix.
pub fn install_promote_handler() {
    imp::install_promote();
}

/// Consume a pending `SIGUSR1` promotion request: true at most once
/// per delivery. The serve poll loop calls this each tick.
pub fn take_promote_requested() -> bool {
    PROMOTE.swap(false, Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_starts_low_and_install_is_idempotent() {
        // The handler must not fire spuriously, and installing twice
        // must be harmless. (Actually delivering a signal to the test
        // process would poison sibling tests; the end-to-end delivery
        // path is exercised by the CLI SIGTERM test against a child
        // process.)
        install_termination_handler();
        install_termination_handler();
        assert!(!termination_requested());
    }

    #[test]
    fn promote_flag_is_consumed_once() {
        install_promote_handler();
        assert!(!take_promote_requested());
        PROMOTE.store(true, Ordering::Relaxed);
        assert!(take_promote_requested());
        assert!(!take_promote_requested());
    }
}
