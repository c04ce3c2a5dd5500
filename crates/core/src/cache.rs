//! Sharded single-flight channel cache.
//!
//! Both multi-step mechanisms memoize one solved channel per internal
//! index node. The original design — a single `RwLock<HashMap>` with a
//! read-check / drop / solve / write-insert sequence — had two scaling
//! problems under the parallel precompute path:
//!
//! * **duplicate solves**: N workers missing the same node all dropped the
//!   read lock, each paid a full LP solve (and ran the certify→repair→admit
//!   gate N times), and the last insert won;
//! * **a single lock**: every fetch on every level contended on one map.
//!
//! [`ShardedCache`] fixes both. Keys are spread over a fixed set of shards
//! by an FNV-1a hash of their canonical bytes, and each shard entry is
//! either a ready value or an in-flight *fill* that later arrivals block
//! on. Exactly one caller runs the fill closure per missing key — so the
//! admission gate runs exactly once per channel — and every blocked caller
//! that is handed the winner's value is counted as a *suppressed duplicate
//! fill* ([`ShardedCache::dedup_suppressed`]).
//!
//! Failed fills are never cached: the slot is removed, waiters wake and
//! retry (one of them becomes the next filler). A filler that panics also
//! clears its slot on unwind, so waiters see the miss again instead of
//! deadlocking.
//!
//! ## Fault injection
//!
//! The `cache.lock.poisoned` failpoint is checked **exactly once per
//! [`ShardedCache::get_or_fill`] call**, at entry — the same budget the
//! old single-map design charged per warm fetch. Count-based fault
//! schedules in the resilience suite depend on this accounting.

use crate::MechanismError;
use geoind_rng::fnv1a64;
use geoind_spatial::hier::LevelCell;
use geoind_testkit::failpoint;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};

/// Number of shards. A small power of two: enough to keep the per-level
/// worker fan-out (`--jobs`) off a single lock, small enough that a full
/// snapshot stays cheap.
const SHARDS: usize = 16;

/// A cache key that knows its canonical byte representation (for shard
/// selection; must be stable across runs so shard layout is deterministic).
pub(crate) trait ShardKey: Copy + Eq + std::hash::Hash + Send + Sync {
    /// Canonical little-endian byte form fed to FNV-1a.
    fn shard_bytes(&self) -> [u8; 12];
}

impl ShardKey for LevelCell {
    fn shard_bytes(&self) -> [u8; 12] {
        let mut b = [0u8; 12];
        b[..4].copy_from_slice(&self.level.to_le_bytes());
        b[4..].copy_from_slice(&(self.id as u64).to_le_bytes());
        b
    }
}

impl ShardKey for usize {
    fn shard_bytes(&self) -> [u8; 12] {
        let mut b = [0u8; 12];
        b[4..].copy_from_slice(&(*self as u64).to_le_bytes());
        b
    }
}

/// The state a blocked caller waits on while another caller fills the key.
#[derive(Debug, Default)]
struct FillState {
    done: Mutex<bool>,
    cv: Condvar,
}

impl FillState {
    fn wait(&self) {
        let mut done = self.done.lock().unwrap_or_else(PoisonError::into_inner);
        while !*done {
            done = self.cv.wait(done).unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn finish(&self) {
        *self.done.lock().unwrap_or_else(PoisonError::into_inner) = true;
        self.cv.notify_all();
    }
}

#[derive(Debug)]
enum Slot<V> {
    /// A committed value.
    Ready(Arc<V>),
    /// Some caller is solving this key right now.
    Filling(Arc<FillState>),
}

/// Removes the in-flight slot and wakes waiters if the filler unwinds
/// before publishing (LP panic ⇒ waiters retry the miss, never deadlock).
struct FillGuard<'a, K: ShardKey, V> {
    shard: &'a RwLock<HashMap<K, Slot<V>>>,
    key: K,
    state: Arc<FillState>,
    published: bool,
}

impl<K: ShardKey, V> Drop for FillGuard<'_, K, V> {
    fn drop(&mut self) {
        if !self.published {
            self.shard
                .write()
                .unwrap_or_else(PoisonError::into_inner)
                .remove(&self.key);
        }
        self.state.finish();
    }
}

/// A sharded map of immutable values with single-flight fills.
#[derive(Debug)]
pub(crate) struct ShardedCache<K: ShardKey, V> {
    shards: Vec<RwLock<HashMap<K, Slot<V>>>>,
    /// Which lock the poisoning error names (matches the legacy per-cache
    /// error strings the resilience suite pins).
    name: &'static str,
    /// Duplicate fills suppressed: callers that blocked on another
    /// caller's in-flight fill and were handed its value.
    dedup: AtomicU64,
}

impl<K: ShardKey, V> ShardedCache<K, V> {
    pub(crate) fn new(name: &'static str) -> Self {
        Self {
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            name,
            dedup: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &K) -> &RwLock<HashMap<K, Slot<V>>> {
        &self.shards[(fnv1a64(&key.shard_bytes()) % SHARDS as u64) as usize]
    }

    fn poisoned(&self) -> MechanismError {
        MechanismError::LockPoisoned(self.name)
    }

    /// The value for `key`, filling it with `fill` on a miss.
    ///
    /// Exactly one caller runs `fill` per missing key; concurrent callers
    /// block until it publishes and then share the `Arc`. A failed fill is
    /// not cached — its error goes to the filler, and each waiter retries
    /// (one becomes the next filler).
    ///
    /// # Errors
    /// [`MechanismError::LockPoisoned`] via the `cache.lock.poisoned`
    /// failpoint (checked once, at entry) or a genuinely poisoned shard
    /// lock; otherwise whatever `fill` returns.
    pub(crate) fn get_or_fill(
        &self,
        key: K,
        fill: impl FnOnce() -> Result<V, MechanismError>,
    ) -> Result<Arc<V>, MechanismError> {
        if failpoint::hit("cache.lock.poisoned") {
            return Err(self.poisoned());
        }
        let shard = self.shard(&key);
        let mut fill = Some(fill);
        let mut waited = false;
        loop {
            // Fast path: shared read.
            let seen = {
                let map = shard.read().map_err(|_| self.poisoned())?;
                map.get(&key).map(|slot| match slot {
                    Slot::Ready(v) => Ok(Arc::clone(v)),
                    Slot::Filling(state) => Err(Arc::clone(state)),
                })
            };
            match seen {
                Some(Ok(v)) => {
                    if waited {
                        self.dedup.fetch_add(1, Ordering::Relaxed);
                    }
                    return Ok(v);
                }
                Some(Err(state)) => {
                    state.wait();
                    waited = true;
                    continue;
                }
                None => {}
            }
            // Miss: race to claim the fill under the write lock.
            let mut claimed = None;
            let seen = {
                let mut map = shard.write().map_err(|_| self.poisoned())?;
                match map.get(&key) {
                    Some(Slot::Ready(v)) => Some(Ok(Arc::clone(v))),
                    Some(Slot::Filling(state)) => Some(Err(Arc::clone(state))),
                    None => {
                        let state = Arc::new(FillState::default());
                        map.insert(key, Slot::Filling(Arc::clone(&state)));
                        claimed = Some(state);
                        None
                    }
                }
            };
            match seen {
                Some(Ok(v)) => {
                    if waited {
                        self.dedup.fetch_add(1, Ordering::Relaxed);
                    }
                    return Ok(v);
                }
                Some(Err(state)) => {
                    // Lost the race; wait outside the lock and retry.
                    state.wait();
                    waited = true;
                    continue;
                }
                None => {}
            }
            let state = claimed.expect("slot claimed on miss");
            // We own the fill. Solve outside any lock.
            let mut guard = FillGuard {
                shard,
                key,
                state,
                published: false,
            };
            let f = fill.take().expect("fill claimed at most once per call");
            let value = f()?; // guard clears the slot + wakes waiters on error
            let value = Arc::new(value);
            shard
                .write()
                .map_err(|_| self.poisoned())?
                .insert(key, Slot::Ready(Arc::clone(&value)));
            guard.published = true;
            return Ok(value); // guard wakes waiters, slot stays Ready
        }
    }

    /// The committed value for `key`, if any (in-flight fills don't count).
    pub(crate) fn get(&self, key: &K) -> Option<Arc<V>> {
        match self
            .shard(key)
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(key)
        {
            Some(Slot::Ready(v)) => Some(Arc::clone(v)),
            _ => None,
        }
    }

    /// Commit a value directly (offline import path; overwrites).
    pub(crate) fn insert(&self, key: K, value: Arc<V>) {
        self.shard(&key)
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(key, Slot::Ready(value));
    }

    /// Number of committed values.
    pub(crate) fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.read()
                    .unwrap_or_else(PoisonError::into_inner)
                    .values()
                    .filter(|slot| matches!(slot, Slot::Ready(_)))
                    .count()
            })
            .sum()
    }

    /// Drop every committed value (in-flight fills keep their slots and
    /// will still publish).
    pub(crate) fn clear(&self) {
        for s in &self.shards {
            s.write()
                .unwrap_or_else(PoisonError::into_inner)
                .retain(|_, slot| matches!(slot, Slot::Filling(_)));
        }
    }

    /// All committed `(key, value)` pairs, in unspecified order (callers
    /// sort by their own canonical key order).
    pub(crate) fn entries(&self) -> Vec<(K, Arc<V>)> {
        let mut out = Vec::new();
        for s in &self.shards {
            for (k, slot) in s.read().unwrap_or_else(PoisonError::into_inner).iter() {
                if let Slot::Ready(v) = slot {
                    out.push((*k, Arc::clone(v)));
                }
            }
        }
        out
    }

    /// Duplicate fills suppressed by single-flight so far.
    pub(crate) fn dedup_suppressed(&self) -> u64 {
        self.dedup.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn fill_runs_once_and_everyone_shares_the_value() {
        let cache: ShardedCache<usize, u64> = ShardedCache::new("test cache");
        let solves = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let cache = &cache;
                    let solves = &solves;
                    scope.spawn(move || {
                        cache
                            .get_or_fill(7, || {
                                solves.fetch_add(1, Ordering::SeqCst);
                                // Widen the race window so late arrivals
                                // actually block on the in-flight fill.
                                std::thread::sleep(std::time::Duration::from_millis(20));
                                Ok(42u64)
                            })
                            .map(|v| *v)
                    })
                })
                .collect();
            for h in handles {
                assert_eq!(h.join().unwrap().unwrap(), 42);
            }
        });
        assert_eq!(solves.load(Ordering::SeqCst), 1, "duplicate solve leaked");
        assert_eq!(cache.len(), 1);
        // Everyone but the filler was a suppressed duplicate (timing can
        // let a waiter arrive after publication, which is a plain hit, so
        // the count is bounded, not exact).
        assert!(cache.dedup_suppressed() <= 7);
    }

    #[test]
    fn failed_fills_are_not_cached_and_waiters_retry() {
        let cache: ShardedCache<usize, u64> = ShardedCache::new("test cache");
        let attempts = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let cache = &cache;
                    let attempts = &attempts;
                    scope.spawn(move || {
                        cache.get_or_fill(3, || {
                            let n = attempts.fetch_add(1, Ordering::SeqCst);
                            std::thread::sleep(std::time::Duration::from_millis(10));
                            if n == 0 {
                                Err(MechanismError::BadParameter("first fill fails".into()))
                            } else {
                                Ok(9u64)
                            }
                        })
                    })
                })
                .collect();
            let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            // Exactly one caller saw the injected failure; everyone else
            // ended with the value.
            assert_eq!(results.iter().filter(|r| r.is_err()).count(), 1);
            assert!(results
                .iter()
                .filter_map(|r| r.as_ref().ok())
                .all(|v| **v == 9));
        });
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn panicking_fill_clears_the_slot() {
        let cache: ShardedCache<usize, u64> = ShardedCache::new("test cache");
        let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = cache.get_or_fill(1, || panic!("lp exploded"));
        }));
        assert!(boom.is_err());
        // The key is a clean miss again — the next caller fills it.
        let v = cache.get_or_fill(1, || Ok(5u64)).unwrap();
        assert_eq!(*v, 5);
    }

    #[test]
    fn clear_and_len_see_only_committed_values() {
        let cache: ShardedCache<usize, u64> = ShardedCache::new("test cache");
        for k in 0..40 {
            let _ = cache.get_or_fill(k, || Ok(k as u64));
        }
        assert_eq!(cache.len(), 40);
        assert_eq!(cache.entries().len(), 40);
        cache.clear();
        assert_eq!(cache.len(), 0);
        assert!(cache.get(&7).is_none());
    }

    #[test]
    fn failpoint_budget_is_one_check_per_get() {
        let mut session = failpoint::Session::new();
        session.arm("cache.lock.poisoned", failpoint::FailSpec::times(1));
        let cache: ShardedCache<usize, u64> = ShardedCache::new("msm channel cache");
        let err = cache.get_or_fill(0, || Ok(1u64)).unwrap_err();
        assert!(matches!(
            err,
            MechanismError::LockPoisoned("msm channel cache")
        ));
        // The single armed hit is spent: the same call now succeeds, and a
        // warm fetch costs exactly one (now unarmed) check.
        assert_eq!(*cache.get_or_fill(0, || Ok(1u64)).unwrap(), 1);
        assert_eq!(*cache.get_or_fill(0, || unreachable!()).unwrap(), 1);
        drop(session);
    }
}
