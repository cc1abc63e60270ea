//! Ordered parallel map and fork-join over scoped threads.
//!
//! [`map_ordered`] and [`join`] are the workspace's only ways to run
//! work concurrently. `map_ordered` pulls jobs from a shared counter, so
//! a long job does not hold up the short ones queued behind it, and
//! returns results in job order. `join` runs two closures side by side
//! and returns both results in place. Either way, the caller's output
//! never depends on the host's thread count or on scheduling.

use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
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
    let workers = cpus().min(n);
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

/// Run `a` on the calling thread and `b` beside it on one scoped helper
/// thread, and return both results.
///
/// `a` always runs on the caller, so whatever it allocates stays in the
/// caller's malloc arena. With one CPU, `a` and then `b` run inline on
/// the calling thread.
///
/// ```
/// let (sum, product) = afsb_rt::par::join(|| 2 + 3, || 2 * 3);
/// assert_eq!((sum, product), (5, 6));
/// ```
///
/// # Panics
///
/// If either closure panics, the other still runs to completion, and
/// then the panic is re-raised on the calling thread with its original
/// payload (`a`'s, if both panic).
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA,
    B: FnOnce() -> RB + Send,
    RB: Send,
{
    join_on(cpus() > 1, a, b)
}

/// [`join`] with the choice between a helper thread and the inline path
/// made by the caller, so both paths can be tested on any host.
fn join_on<A, B, RA, RB>(helper: bool, a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA,
    B: FnOnce() -> RB + Send,
    RB: Send,
{
    let (ra, rb) = if helper {
        thread::scope(|scope| {
            let b = scope.spawn(b);
            let ra = catch_unwind(AssertUnwindSafe(a));
            (ra, b.join())
        })
    } else {
        (
            catch_unwind(AssertUnwindSafe(a)),
            catch_unwind(AssertUnwindSafe(b)),
        )
    };
    match (ra, rb) {
        (Ok(ra), Ok(rb)) => (ra, rb),
        (Err(payload), _) | (_, Err(payload)) => resume_unwind(payload),
    }
}

/// CPUs this process may run on.
fn cpus() -> usize {
    thread::available_parallelism().map_or(1, NonZeroUsize::get)
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
    use std::sync::atomic::AtomicBool;
    use std::sync::{mpsc, Mutex};

    #[test]
    fn results_come_back_in_index_order_when_jobs_differ_in_size() {
        // With two or more workers, job 0 is the long one: it waits until
        // every other job has finished, so it finishes last.
        let parallel = cpus() > 1;
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

    fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    #[test]
    fn join_returns_both_results_in_place_and_runs_a_on_the_caller() {
        let caller = thread::current().id();
        for helper in [true, false] {
            let ((a, a_thread), (b, b_thread)) = join_on(
                helper,
                || ("a", thread::current().id()),
                || (7u64, thread::current().id()),
            );
            assert_eq!((a, b), ("a", 7));
            assert_eq!(a_thread, caller, "helper: {helper}");
            assert_eq!(b_thread == caller, !helper, "helper: {helper}");
        }
        // The public entry takes the helper path exactly when this
        // process may use more than one CPU.
        let (a_thread, b_thread) = join(|| thread::current().id(), || thread::current().id());
        assert_eq!(a_thread, caller);
        assert_eq!(b_thread == caller, cpus() == 1);
    }

    #[test]
    fn join_on_one_cpu_runs_a_then_b_inline() {
        let caller = thread::current().id();
        let order = Mutex::new(Vec::new());
        let log = |name| {
            assert_eq!(thread::current().id(), caller);
            order.lock().expect("no closure panics").push(name);
        };
        join_on(false, || log("a"), || log("b"));
        assert_eq!(order.into_inner().expect("no closure panics"), ["a", "b"]);
    }

    #[test]
    fn a_panic_in_either_closure_reaches_the_caller_after_both_finish() {
        for helper in [true, false] {
            // `b` waits until `a` has panicked, so a re-raise that did
            // not wait for `b` would find it unfinished.
            let finished = AtomicBool::new(false);
            let done = &finished;
            let (tx, rx) = mpsc::channel();
            let result = catch_unwind(AssertUnwindSafe(|| {
                join_on(
                    helper,
                    move || {
                        tx.send(()).expect("b holds the receiver");
                        panic!("a failed")
                    },
                    move || {
                        rx.recv().expect("a signals before it panics");
                        done.store(true, Ordering::SeqCst);
                    },
                )
            }));
            let payload = result.expect_err("a panicking closure must not return");
            assert_eq!(panic_message(&*payload), "a failed", "helper: {helper}");
            assert!(finished.load(Ordering::SeqCst), "helper: {helper}");

            // With a helper, `a` waits until `b` has panicked; inline,
            // `a` runs first and cannot wait.
            let finished = AtomicBool::new(false);
            let done = &finished;
            let (tx, rx) = mpsc::channel();
            let result = catch_unwind(AssertUnwindSafe(|| {
                join_on(
                    helper,
                    move || {
                        if helper {
                            rx.recv().expect("b signals before it panics");
                        }
                        done.store(true, Ordering::SeqCst);
                    },
                    move || {
                        // Inline, `a` has already returned and dropped
                        // the receiver.
                        let _ = tx.send(());
                        panic!("b failed")
                    },
                )
            }));
            let payload = result.expect_err("a panicking closure must not return");
            assert_eq!(panic_message(&*payload), "b failed", "helper: {helper}");
            assert!(finished.load(Ordering::SeqCst), "helper: {helper}");
        }
    }

    #[test]
    fn when_both_closures_panic_the_caller_sees_a() {
        for helper in [true, false] {
            let result = catch_unwind(AssertUnwindSafe(|| {
                join_on(helper, || panic!("a failed"), || panic!("b failed"))
            }));
            let payload = result.expect_err("a panicking closure must not return");
            assert_eq!(panic_message(&*payload), "a failed", "helper: {helper}");
        }
    }
}
