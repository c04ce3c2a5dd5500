//! Zero-dependency scoped worker pool with input-ordered results.
//!
//! [`Pool::map`] fans a batch of independent work items out over
//! [`std::thread::scope`] threads and returns the results in input order.
//! Which worker runs which item, and when, depends on thread timing; the
//! output does not. A caller whose per-item function is deterministic
//! gets bit-identical results at any job count.
//!
//! With `jobs == 1` the batch runs inline on the calling thread (no thread
//! is spawned), which keeps thread-local state — e.g. thread-scoped
//! failpoint sessions — visible to the work exactly as in a plain loop.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A fixed-width worker pool. Cheap to construct; spawns scoped threads
/// per [`Pool::map`] call and never outlives it.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    jobs: usize,
}

impl Pool {
    /// A pool running `jobs` workers per batch (clamped to at least 1).
    pub fn new(jobs: usize) -> Self {
        Self { jobs: jobs.max(1) }
    }

    /// Worker count per batch.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Apply `f` to every item, returning results in input order.
    ///
    /// Each worker takes the next untaken item from a shared cursor until
    /// none is left, so a worker that drew cheap items keeps drawing while
    /// another is busy with an expensive one. Every result is stored at
    /// its item's index, so the output is exactly
    /// `items.into_iter().map(f).collect()` regardless of `jobs`.
    ///
    /// # Panics
    /// Re-raises the first worker panic on the calling thread, like the
    /// equivalent sequential loop would.
    pub fn map<I, T, F>(&self, items: Vec<I>, f: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(I) -> T + Sync,
    {
        let n = items.len();
        if self.jobs == 1 || n <= 1 {
            return items.into_iter().map(f).collect();
        }
        // The cursor hands out indices and publishes nothing: each item
        // moves to its worker through its slot's mutex.
        let slots: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
        let cursor = AtomicUsize::new(0);
        let (f, slots, cursor) = (&f, &slots, &cursor);
        let worker = move || {
            let mut done = Vec::new();
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(slot) = slots.get(i) else {
                    return done;
                };
                let item = slot
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .take()
                    .expect("each index is drawn once");
                done.push((i, f(item)));
            }
        };
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.jobs.min(n)).map(|_| scope.spawn(worker)).collect();
            let mut out: Vec<Option<T>> = std::iter::repeat_with(|| None).take(n).collect();
            for handle in handles {
                match handle.join() {
                    Ok(done) => {
                        for (i, t) in done {
                            out[i] = Some(t);
                        }
                    }
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
            out.into_iter()
                .map(|t| t.expect("every item was mapped"))
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_input_order_at_any_job_count() {
        let items: Vec<u64> = (0..103).collect();
        let expect: Vec<u64> = items.iter().map(|i| i * i).collect();
        for jobs in [1, 2, 3, 4, 7, 16, 200] {
            let got = Pool::new(jobs).map(items.clone(), |i| i * i);
            assert_eq!(got, expect, "jobs={jobs}");
        }
        // Uneven costs: item i spins for about i² steps, so later items
        // finish after earlier ones started on other workers.
        let spin = |i: u64| {
            let mut acc = i;
            for step in 0..i * i * 64 {
                acc = std::hint::black_box(acc.wrapping_mul(31).wrapping_add(step));
            }
            (i, acc)
        };
        let items: Vec<u64> = (0..40).collect();
        let expect: Vec<(u64, u64)> = items.iter().map(|&i| spin(i)).collect();
        for jobs in [2, 4, 7] {
            let got = Pool::new(jobs).map(items.clone(), spin);
            assert_eq!(got, expect, "uneven costs, jobs={jobs}");
        }
    }

    #[test]
    fn empty_and_singleton_batches() {
        let pool = Pool::new(4);
        assert_eq!(pool.map(Vec::<u32>::new(), |x| x), Vec::<u32>::new());
        assert_eq!(pool.map(vec![9], |x| x + 1), vec![10]);
    }

    #[test]
    fn jobs_clamped_to_one() {
        assert_eq!(Pool::new(0).jobs(), 1);
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            Pool::new(3).map(vec![1, 2, 3, 4, 5, 6], |i| {
                assert!(i != 4, "boom");
                i
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn single_job_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ids = Pool::new(1).map(vec![(), ()], |()| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
    }
}
