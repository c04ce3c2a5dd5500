//! # Deterministic failpoints — seeded, count-based fault injection
//!
//! A registry of **named injection sites** compiled into library code.
//! Each site is a single line at a hot failure seam:
//!
//! ```ignore
//! if failpoint::hit("cache.import.corrupt") {
//!     return Err(MechanismError::CacheCorrupt { /* injected */ });
//! }
//! ```
//!
//! Design constraints, in priority order:
//!
//! 1. **Absent from production builds.** The whole registry is gated
//!    behind the `failpoints` cargo feature (off by default). Without it
//!    [`hit`] compiles to a constant `false` — the sites vanish from the
//!    object code and the `GEOIND_FAILPOINTS` environment variable is
//!    ignored, so a deployment can never have faults forced on it by an
//!    inherited or injected variable. Test targets get the feature
//!    through dev-dependencies; see the workspace `Cargo.toml`s.
//! 2. **Cheap when compiled in but disarmed.** The fast path is two
//!    relaxed atomic loads. No lock, no string hash, no allocation until
//!    at least one site is armed — and even then, thread-scoped arming
//!    ([`Session`]) is kept in thread-local storage, so a session on one
//!    thread never makes another thread touch a lock.
//! 3. **Deterministic.** Arming is *count-based*, never random: a
//!    [`FailSpec`] says "skip the first `skip` hits, then fire `times`
//!    times". The same program with the same armed specs fires the same
//!    faults at the same call sites in the same order — which is what
//!    makes fault-injected runs bit-reproducible (see
//!    `tests/determinism.rs`).
//! 4. **Test-isolated.** Tests in one binary run on concurrent threads;
//!    a globally armed fault in one test would trip unrelated tests.
//!    [`Session`] therefore arms sites *for the current thread only* and
//!    disarms them on drop. Global arming (used by CI via the
//!    `GEOIND_FAILPOINTS` environment variable) affects every thread.
//!    Work a thread hands to a helper thread carries the thread's arming
//!    with it through a [`Scope`]: the helper enters the captured scope
//!    and its hits count against the same sites (e.g. the ledger's
//!    background snapshot fold).
//!
//! ## Environment grammar
//!
//! `GEOIND_FAILPOINTS` is a comma-separated list of `site=spec` pairs:
//!
//! ```text
//! GEOIND_FAILPOINTS="cache.import.corrupt=1,lp.iterations.exhausted=*"
//! ```
//!
//! * `site=N`   — fire the first `N` hits, then pass.
//! * `site=*`   — fire on every hit.
//! * `site=K:N` — skip the first `K` hits, then fire `N` times.
//!
//! The environment is read once, lazily, on the first [`hit`] call (and
//! only in `failpoints` builds).
//!
//! ## Naming convention
//!
//! Site names are `<area>.<component>.<event>`, e.g.
//! `lp.refactor.singular` — the area is the crate or subsystem, the
//! component is the specific module/structure, the event is what goes
//! wrong. The canonical list lives in [`SITES`].

/// The named injection sites wired into the workspace, with the failure
/// each one simulates. Kept in one place so tests can sweep all of them.
pub const SITES: &[&str] = &[
    "lp.refactor.singular",      // LU refactorization produces a singular basis
    "lp.iterations.exhausted",   // simplex hits its iteration budget
    "cache.import.corrupt",      // offline channel-cache blob fails validation
    "cache.lock.poisoned",       // in-memory channel-cache lock is poisoned
    "alloc.budget.infeasible",   // per-level budget allocation has no solution
    "data.loader.truncated",     // check-in file ends mid-record
    "serve.journal.append",      // ledger WAL record write fails before any byte lands
    "serve.journal.torn",        // ledger WAL record write is cut mid-record (torn tail)
    "serve.journal.flush",       // ledger WAL flush fails after a complete record write
    "serve.journal.enospc",      // ledger WAL append refused by a full disk (ENOSPC)
    "serve.journal.eio",         // ledger WAL append hits a transient device error (EIO)
    "serve.snapshot.write",      // ledger snapshot temp-file write fails
    "serve.snapshot.commit",     // ledger snapshot rename commit fails
    "serve.snapshot.enospc",     // ledger snapshot temp-file write refused by a full disk
    "serve.wal.reset",           // creating the spare WAL segment after a fold fails
    "certify.channel.violation", // channel certification finds an ε·d constraint violation
    "certify.repair.fail",       // post-repair re-certification still fails (quarantine)
    "serve.net.accept",          // accepted connection is dropped before any byte is read
    "serve.net.read_torn",       // request frame arrives torn (cut mid-read); no budget burns
    "serve.net.write_short",     // response write is cut short after the spend is journaled
    "serve.net.stall",           // peer stalls mid-exchange until the read deadline fires
    "serve.repl.ship_torn", // replication batch write is cut mid-body; follower applies nothing
    "serve.repl.ack_lost",  // replication batch lands but the ack is lost; primary retransmits
    "serve.repl.stale_gen", // follower treats a batch as stale-generation and refuses it fenced
];

/// When an armed site fires: skip the first `skip` hits, then fire
/// `times` times (`u64::MAX` ⇒ forever), then pass again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailSpec {
    /// Number of initial hits that pass through unfired.
    pub skip: u64,
    /// Number of hits (after `skip`) that fire. `u64::MAX` means always.
    pub times: u64,
}

impl FailSpec {
    /// Fire the first `n` hits.
    pub fn times(n: u64) -> Self {
        Self { skip: 0, times: n }
    }

    /// Fire on every hit.
    pub fn always() -> Self {
        Self {
            skip: 0,
            times: u64::MAX,
        }
    }

    /// Skip the first `skip` hits, then fire `times` times.
    pub fn after(skip: u64, times: u64) -> Self {
        Self { skip, times }
    }

    /// Parse the env grammar: `N`, `*`, or `K:N`.
    pub fn parse(s: &str) -> Result<Self, String> {
        let s = s.trim();
        if s == "*" {
            return Ok(Self::always());
        }
        if let Some((skip, times)) = s.split_once(':') {
            let skip = skip
                .trim()
                .parse()
                .map_err(|_| format!("bad skip count '{skip}'"))?;
            let times = if times.trim() == "*" {
                u64::MAX
            } else {
                times
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad fire count '{times}'"))?
            };
            return Ok(Self { skip, times });
        }
        s.parse()
            .map(Self::times)
            .map_err(|_| format!("bad failpoint spec '{s}'"))
    }
}

/// Check an injection site. In a build without the `failpoints` feature
/// this is a constant `false`: sites cost nothing and cannot be armed.
#[cfg(not(feature = "failpoints"))]
#[inline(always)]
pub fn hit(_site: &str) -> bool {
    false
}

#[cfg(feature = "failpoints")]
pub use enabled::{
    arm_from_env, arm_from_spec_list, arm_global, disarm_global, fired, hit, reset_all,
    reset_global, Scope, ScopeGuard, Session,
};

/// A thread's scoped arming, captured to be entered on another thread.
/// Without the `failpoints` feature it is a zero-sized no-op.
#[cfg(not(feature = "failpoints"))]
#[derive(Debug, Clone, Copy, Default)]
pub struct Scope;

/// Restores a thread's own arming when dropped (no-op without the
/// `failpoints` feature).
#[cfg(not(feature = "failpoints"))]
#[derive(Debug)]
pub struct ScopeGuard;

#[cfg(not(feature = "failpoints"))]
impl Scope {
    /// Capture the current thread's scoped arming (nothing to capture).
    #[inline(always)]
    pub fn current() -> Self {
        Scope
    }

    /// Enter the captured arming on this thread (nothing to enter).
    #[inline(always)]
    pub fn enter(&self) -> ScopeGuard {
        ScopeGuard
    }
}

#[cfg(feature = "failpoints")]
mod enabled {
    use super::FailSpec;
    use std::cell::RefCell;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex, MutexGuard, Once, OnceLock, PoisonError};

    /// Mutable per-site state: the spec plus how many hits have occurred.
    #[derive(Debug, Clone, Copy)]
    struct SiteState {
        spec: FailSpec,
        hits: u64,
        fired: u64,
    }

    impl SiteState {
        fn new(spec: FailSpec) -> Self {
            Self {
                spec,
                hits: 0,
                fired: 0,
            }
        }

        /// Record one hit and decide whether it fires.
        fn on_hit(&mut self) -> bool {
            let n = self.hits;
            self.hits += 1;
            let fires = n >= self.spec.skip
                && (self.spec.times == u64::MAX
                    || n < self.spec.skip.saturating_add(self.spec.times));
            if fires {
                self.fired += 1;
            }
            fires
        }
    }

    /// Fast-path flags, checked before any lock or map: is the global map
    /// non-empty, and how many scoped sites are armed across all threads?
    static GLOBAL_ARMED: AtomicBool = AtomicBool::new(false);
    static SCOPED_SITES: AtomicUsize = AtomicUsize::new(0);
    static ENV_INIT: Once = Once::new();

    /// One thread's scoped sites. Shared only with the threads that
    /// entered a [`Scope`] captured from it.
    type Sites = Arc<Mutex<HashMap<String, SiteState>>>;

    thread_local! {
        /// Sites armed for this thread only (test isolation via [`Session`]).
        /// Per thread, so scoped lookups never allocate and never touch
        /// the global mutex — a session on one thread cannot serialize
        /// unrelated threads (e.g. concurrent LP solves in a test binary).
        static SCOPED: RefCell<Sites> = RefCell::new(Sites::default());
    }

    /// Run `f` on the current thread's scoped sites.
    fn with_scoped<T>(f: impl FnOnce(&mut HashMap<String, SiteState>) -> T) -> T {
        SCOPED.with(|sites| f(&mut lock(&sites.borrow())))
    }

    fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
        m.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Sites armed process-wide (environment / explicit [`arm_global`]).
    fn global() -> &'static Mutex<HashMap<String, SiteState>> {
        static GLOBAL: OnceLock<Mutex<HashMap<String, SiteState>>> = OnceLock::new();
        GLOBAL.get_or_init(|| Mutex::new(HashMap::new()))
    }

    fn lock_global() -> MutexGuard<'static, HashMap<String, SiteState>> {
        // A panic while holding this lock (e.g. a test assertion) must not
        // wedge every later failpoint check.
        lock(global())
    }

    /// Check an injection site. Returns `true` when the armed spec says
    /// this hit fires. Disarmed sites cost two relaxed atomic loads; a
    /// site armed only in another thread's [`Session`] costs one
    /// thread-local map miss, never the global lock.
    pub fn hit(site: &str) -> bool {
        ENV_INIT.call_once(|| {
            if let Ok(spec) = std::env::var("GEOIND_FAILPOINTS") {
                // Ignore parse errors here: library code must not panic on a
                // malformed operator-supplied variable. `arm_from_env` gives
                // callers the checked version.
                let _ = arm_from_spec_list(&spec);
            }
        });
        let scoped_somewhere = SCOPED_SITES.load(Ordering::Relaxed) > 0;
        let global_armed = GLOBAL_ARMED.load(Ordering::Acquire);
        if !scoped_somewhere && !global_armed {
            return false;
        }
        if scoped_somewhere {
            // Scoped arming shadows a global arming of the same site on
            // this thread. Borrows `site` directly — no allocation.
            let scoped = with_scoped(|m| m.get_mut(site).map(SiteState::on_hit));
            if let Some(fires) = scoped {
                return fires;
            }
        }
        if global_armed {
            return lock_global().get_mut(site).is_some_and(SiteState::on_hit);
        }
        false
    }

    /// Arm `site` process-wide. Prefer [`Session`] in tests.
    pub fn arm_global(site: &str, spec: FailSpec) {
        let mut map = lock_global();
        map.insert(site.to_string(), SiteState::new(spec));
        GLOBAL_ARMED.store(true, Ordering::Release);
    }

    /// Disarm one globally armed site.
    pub fn disarm_global(site: &str) {
        let mut map = lock_global();
        map.remove(site);
        GLOBAL_ARMED.store(!map.is_empty(), Ordering::Release);
    }

    /// Disarm every globally armed site and reset its counters.
    pub fn reset_global() {
        lock_global().clear();
        GLOBAL_ARMED.store(false, Ordering::Release);
    }

    /// Disarm every globally armed site plus the *current thread's*
    /// scoped sites. Other threads' [`Session`]s are unaffected (they
    /// disarm themselves on drop).
    pub fn reset_all() {
        reset_global();
        let removed = with_scoped(|map| {
            let n = map.len();
            map.clear();
            n
        });
        SCOPED_SITES.fetch_sub(removed, Ordering::Relaxed);
    }

    /// How many times `site` has fired (scoped state for this thread if
    /// present, else global). Unarmed sites report 0.
    pub fn fired(site: &str) -> u64 {
        if let Some(n) = with_scoped(|m| m.get(site).map(|s| s.fired)) {
            return n;
        }
        lock_global().get(site).map_or(0, |s| s.fired)
    }

    /// Parse a `site=spec,site=spec` list and arm each site globally.
    /// Returns the number of sites armed.
    pub fn arm_from_spec_list(list: &str) -> Result<usize, String> {
        let mut n = 0;
        for pair in list.split(',') {
            let pair = pair.trim();
            if pair.is_empty() {
                continue;
            }
            let (site, spec) = pair
                .split_once('=')
                .ok_or_else(|| format!("failpoint '{pair}' is missing '=spec'"))?;
            arm_global(site.trim(), FailSpec::parse(spec)?);
            n += 1;
        }
        Ok(n)
    }

    /// Arm sites globally from `GEOIND_FAILPOINTS`, reporting parse errors.
    /// Returns the number of sites armed (0 when the variable is unset).
    pub fn arm_from_env() -> Result<usize, String> {
        match std::env::var("GEOIND_FAILPOINTS") {
            Ok(spec) => arm_from_spec_list(&spec),
            Err(_) => Ok(0),
        }
    }

    /// Thread-scoped arming with RAII disarm — the test-friendly interface.
    ///
    /// Sites armed through a `Session` fire only on the creating thread and
    /// are disarmed (counters discarded) when the session drops, so parallel
    /// tests cannot see each other's faults. Scoped arming shadows a global
    /// arming of the same site on this thread.
    ///
    /// ```
    /// use geoind_testkit::failpoint::{self, FailSpec, Session};
    ///
    /// let mut fp = Session::new();
    /// fp.arm("cache.import.corrupt", FailSpec::times(1));
    /// assert!(failpoint::hit("cache.import.corrupt"));   // fires once
    /// assert!(!failpoint::hit("cache.import.corrupt"));  // then passes
    /// drop(fp);
    /// assert!(!failpoint::hit("cache.import.corrupt"));  // disarmed
    /// ```
    #[derive(Debug, Default)]
    pub struct Session {
        armed: Vec<String>,
    }

    impl Session {
        /// Start an empty session for the current thread.
        pub fn new() -> Self {
            Self::default()
        }

        /// Arm `site` for the current thread (re-arming resets its counters).
        pub fn arm(&mut self, site: &str, spec: FailSpec) -> &mut Self {
            let fresh = with_scoped(|m| m.insert(site.to_string(), SiteState::new(spec)).is_none());
            if fresh {
                SCOPED_SITES.fetch_add(1, Ordering::Relaxed);
            }
            if !self.armed.iter().any(|s| s == site) {
                self.armed.push(site.to_string());
            }
            self
        }

        /// How many times a site armed in this session has fired.
        pub fn fired(&self, site: &str) -> u64 {
            with_scoped(|m| m.get(site).map_or(0, |s| s.fired))
        }
    }

    impl Drop for Session {
        fn drop(&mut self) {
            for site in self.armed.drain(..) {
                let removed = with_scoped(|m| m.remove(&site).is_some());
                if removed {
                    SCOPED_SITES.fetch_sub(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// A thread's scoped arming, captured so work handed to another
    /// thread fires the same [`Session`] sites there: the other thread
    /// [`Scope::enter`]s it, and its hits count against the capturing
    /// thread's sites (visible through that thread's
    /// [`Session::fired`]). A session dropped meanwhile disarms its
    /// sites for every thread in the scope.
    ///
    /// ```
    /// use geoind_testkit::failpoint::{self, FailSpec, Scope, Session};
    ///
    /// let mut fp = Session::new();
    /// fp.arm("tests.doc.scope", FailSpec::times(1));
    /// let scope = Scope::current();
    /// let fired = std::thread::spawn(move || {
    ///     let _entered = scope.enter();
    ///     failpoint::hit("tests.doc.scope")
    /// })
    /// .join()
    /// .unwrap();
    /// assert!(fired);
    /// assert_eq!(fp.fired("tests.doc.scope"), 1);
    /// ```
    #[derive(Debug, Clone, Default)]
    pub struct Scope {
        sites: Sites,
    }

    impl Scope {
        /// Capture the current thread's scoped arming.
        pub fn current() -> Self {
            SCOPED.with(|sites| Self {
                sites: Arc::clone(&sites.borrow()),
            })
        }

        /// Make the captured arming this thread's until the guard drops.
        pub fn enter(&self) -> ScopeGuard {
            let own = SCOPED.with(|sites| sites.replace(Arc::clone(&self.sites)));
            ScopeGuard { own: Some(own) }
        }
    }

    /// Restores the thread's own scoped arming when dropped.
    #[derive(Debug)]
    pub struct ScopeGuard {
        own: Option<Sites>,
    }

    impl Drop for ScopeGuard {
        fn drop(&mut self) {
            if let Some(own) = self.own.take() {
                SCOPED.with(|sites| *sites.borrow_mut() = own);
            }
        }
    }
}

#[cfg(all(test, feature = "failpoints"))]
mod tests {
    use super::*;

    #[test]
    fn unarmed_site_never_fires() {
        assert!(!hit("tests.nothing.armed"));
        assert_eq!(fired("tests.nothing.armed"), 0);
    }

    #[test]
    fn spec_parser_accepts_the_grammar() {
        assert_eq!(FailSpec::parse("3").unwrap(), FailSpec::times(3));
        assert_eq!(FailSpec::parse("*").unwrap(), FailSpec::always());
        assert_eq!(FailSpec::parse("2:5").unwrap(), FailSpec::after(2, 5));
        assert_eq!(
            FailSpec::parse(" 1 : * ").unwrap(),
            FailSpec::after(1, u64::MAX)
        );
        assert!(FailSpec::parse("x").is_err());
        assert!(FailSpec::parse("1:y").is_err());
    }

    #[test]
    fn count_based_firing_is_deterministic() {
        let mut fp = Session::new();
        fp.arm("tests.count.site", FailSpec::after(2, 2));
        let pattern: Vec<bool> = (0..6).map(|_| hit("tests.count.site")).collect();
        assert_eq!(pattern, [false, false, true, true, false, false]);
        assert_eq!(fp.fired("tests.count.site"), 2);
    }

    #[test]
    fn session_is_thread_scoped() {
        let mut fp = Session::new();
        fp.arm("tests.scoped.site", FailSpec::always());
        assert!(hit("tests.scoped.site"));
        // Another thread does not see the scoped arming.
        let other = std::thread::spawn(|| hit("tests.scoped.site"))
            .join()
            .unwrap();
        assert!(!other);
    }

    #[test]
    fn drop_disarms() {
        {
            let mut fp = Session::new();
            fp.arm("tests.drop.site", FailSpec::always());
            assert!(hit("tests.drop.site"));
        }
        assert!(!hit("tests.drop.site"));
    }

    #[test]
    fn spec_list_arms_multiple_sites() {
        assert_eq!(
            arm_from_spec_list("tests.list.a=1, tests.list.b=*").unwrap(),
            2
        );
        // Global arming is visible across threads.
        let seen = std::thread::spawn(|| hit("tests.list.b")).join().unwrap();
        assert!(seen);
        disarm_global("tests.list.a");
        disarm_global("tests.list.b");
        assert!(arm_from_spec_list("nospec").is_err());
    }

    #[test]
    fn an_entered_scope_fires_the_capturing_sessions_sites() {
        let mut fp = Session::new();
        fp.arm("tests.scope.site", FailSpec::after(1, 1));
        let scope = Scope::current();
        let pattern = std::thread::spawn(move || {
            let outside = hit("tests.scope.site");
            let entered = scope.enter();
            let inside: Vec<bool> = (0..3).map(|_| hit("tests.scope.site")).collect();
            drop(entered);
            (outside, inside, hit("tests.scope.site"))
        })
        .join()
        .unwrap();
        assert_eq!(pattern, (false, vec![false, true, false], false));
        // The helper's hits counted against this thread's session.
        assert_eq!(fp.fired("tests.scope.site"), 1);
        assert!(!hit("tests.scope.site"));
    }

    #[test]
    fn scoped_arming_never_locks_other_threads_registry() {
        // A session on this thread must not force another thread through
        // the global path at all: the other thread sees only its (empty)
        // thread-local map and the un-armed global flag.
        let mut fp = Session::new();
        fp.arm("tests.tls.site", FailSpec::always());
        let handles: Vec<_> = (0..4)
            .map(|_| std::thread::spawn(|| (0..1000).filter(|_| hit("tests.tls.site")).count()))
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 0);
        }
        assert!(hit("tests.tls.site"));
    }
}
