//! Zero-dependency scoped worker pool with deterministic chunked
//! scheduling.
//!
//! [`Pool::map`] fans a batch of independent work items out over
//! [`std::thread::scope`] threads. Scheduling is *static*: the input is cut
//! into at most `jobs` contiguous chunks up front, chunk `k` is owned by
//! worker `k`, and results are returned in input order. Nothing about the
//! output — order, content, or which item ran where — depends on thread
//! timing, so a caller whose per-item function is deterministic gets
//! bit-identical results at any job count.
//!
//! With `jobs == 1` the batch runs inline on the calling thread (no thread
//! is spawned), which keeps thread-local state — e.g. thread-scoped
//! failpoint sessions — visible to the work exactly as in a plain loop.

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
    /// The items are split into contiguous chunks (at most one per worker,
    /// sized as evenly as possible); each scoped worker maps its chunk in
    /// order and the chunk results are concatenated — so the output is
    /// exactly `items.into_iter().map(f).collect()` regardless of `jobs`.
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
        let workers = self.jobs.min(n);
        let chunk = n.div_ceil(workers);
        let mut chunks: Vec<Vec<I>> = Vec::with_capacity(workers);
        let mut items = items.into_iter();
        loop {
            let piece: Vec<I> = items.by_ref().take(chunk).collect();
            if piece.is_empty() {
                break;
            }
            chunks.push(piece);
        }
        let f = &f;
        std::thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .into_iter()
                .map(|piece| scope.spawn(move || piece.into_iter().map(f).collect::<Vec<T>>()))
                .collect();
            let mut out = Vec::with_capacity(n);
            for handle in handles {
                match handle.join() {
                    Ok(part) => out.extend(part),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
            out
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
