//! Ordered parallel map over scoped threads.
//!
//! [`map_ordered`] is the workspace's one way to run independent jobs
//! concurrently. Jobs are pulled from a shared counter, so a long job
//! does not hold up the short ones queued behind it, and results come
//! back in job order, so the caller's output never depends on the host's
//! thread count or on scheduling.

use std::num::NonZeroUsize;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Run `f(0)`, …, `f(n - 1)` and return the results in index order.
///
/// The jobs run on the calling thread plus up to
/// `available_parallelism() − 1` scoped helper threads, never more
/// workers than jobs. Each worker pulls the next unclaimed index from a
/// shared counter. With one CPU, or with `n <= 1`, this is a plain loop
/// on the calling thread.
///
/// ```
/// let squares = afsb_rt::par::map_ordered(5, |i| i * i);
/// assert_eq!(squares, [0, 1, 4, 9, 16]);
/// ```
///
/// # Panics
///
/// If a job panics, the workers stop claiming new jobs, every worker is
/// joined, and the panic is re-raised on the calling thread with its
/// original payload. No partial result is returned.
pub fn map_ordered<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = thread::available_parallelism()
        .map_or(1, NonZeroUsize::get)
        .min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }

    // Relaxed suffices: the counter only hands out indices, and results
    // reach the caller through the joins below.
    let next = AtomicUsize::new(0);
    let work = || {
        let _stop = StopOnPanic { next: &next, n };
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return done;
            }
            done.push((i, f(i)));
        }
    };

    let mut done = thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        let mut done = work();
        for helper in helpers {
            done.extend(
                helper
                    .join()
                    .unwrap_or_else(|payload| resume_unwind(payload)),
            );
        }
        done
    });
    // Each index was claimed exactly once.
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, value)| value).collect()
}

/// Moves the job counter past the end when a job panics, so the other
/// workers finish their current job and stop instead of draining the
/// rest of the queue.
struct StopOnPanic<'a> {
    next: &'a AtomicUsize,
    n: usize,
}

impl Drop for StopOnPanic<'_> {
    fn drop(&mut self) {
        if thread::panicking() {
            self.next.store(self.n, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Mutex;

    #[test]
    fn results_come_back_in_index_order_when_jobs_differ_in_size() {
        // With two or more workers, job 0 is the long one: it waits until
        // every other job has finished, so it finishes last.
        let parallel = thread::available_parallelism().map_or(1, NonZeroUsize::get) > 1;
        let finished = Mutex::new(Vec::new());
        let out = map_ordered(12, |i| {
            if i == 0 && parallel {
                while finished.lock().expect("no job panics").len() < 11 {
                    thread::yield_now();
                }
            }
            finished.lock().expect("no job panics").push(i);
            i * 10
        });
        assert_eq!(out, (0..12).map(|i| i * 10).collect::<Vec<_>>());
        if parallel {
            assert_eq!(
                finished.into_inner().expect("no job panics").last(),
                Some(&0)
            );
        }
    }

    #[test]
    fn zero_and_one_jobs() {
        let none: Vec<usize> = map_ordered(0, |i| i);
        assert!(none.is_empty());
        let caller = thread::current().id();
        assert_eq!(map_ordered(1, |_| thread::current().id()), [caller]);
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let calls = AtomicUsize::new(0);
        let out = map_ordered(100, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i * 2
        });
        assert_eq!(calls.into_inner(), 100);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn a_panicking_job_panics_the_caller_with_its_message() {
        for bad in [0, 5, 9] {
            let result = catch_unwind(AssertUnwindSafe(|| {
                map_ordered(10, |i| {
                    assert_ne!(i, bad, "job {i} failed");
                    i
                })
            }));
            let payload = result.expect_err("a panicking job must not yield a vector");
            let message = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert!(message.contains(&format!("job {bad} failed")), "{message}");
        }
    }
}
