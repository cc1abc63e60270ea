//! Ordered parallel map and a buffered pipeline over scoped threads.
//!
//! [`map_ordered`] and [`pipeline`] are the workspace's only ways to run
//! work concurrently. `map_ordered` pulls jobs from a shared counter, so
//! a long job does not hold up the short ones queued behind it, and
//! returns results in job order. `pipeline` fills streams of buffers
//! ahead of a consumer on the calling thread, which takes each stream's
//! buffers in the order they were filled, and lets every thread do slices
//! of other work while it would wait. Either way, the caller's output
//! never depends on the host's thread count or on scheduling.

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
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

/// Fill each stream's buffers ahead of `consume`, which runs on the
/// calling thread and takes each stream's buffers in the order they were
/// filled, and fill every thread's idle time with slices of `spare`
/// work.
///
/// `states[i]` is stream `i`'s producer state. Each call of
/// `produce(&mut states[i], &mut buffer)` fills one buffer and returns
/// `true`, or returns `false`, leaving the buffer unused, once the stream
/// has nothing more. One thread at a time fills a stream, so its buffers
/// come out in the order they were filled. `consume` gets a [`Feed`]:
/// [`Feed::next`] returns stream `i`'s next filled buffer, or `None` once
/// the stream has ended, and [`Feed::recycle`] hands a buffer back to be
/// filled again. Each stream owns `slots` buffers, all built by `buffer`
/// on the calling thread before any helper starts, so no stream runs more
/// than `slots` buffers ahead of the consumer and no helper allocates a
/// buffer.
///
/// `min(streams, available_parallelism() − 1)` scoped helper threads fill
/// the streams in turn, skipping any that another thread is filling or
/// that has no free buffer, so with the calling thread every CPU has one
/// thread. When [`Feed::next`] finds no filled buffer and no helper
/// filling the stream, it fills the next one on the calling thread. With
/// one CPU, or no streams, nothing is spawned and every buffer is filled
/// that way, when it is asked for.
///
/// Each call of `spare` does one short slice of work that depends on no
/// stream and returns `true`, or returns `false` if it found nothing to
/// do. A helper calls it when no stream can be filled, and [`Feed::next`]
/// while a helper fills the stream it waits for. When `consume` returns,
/// the calling thread runs `spare` until it finds nothing to do, stops and
/// joins the helpers, and runs it again until it finds nothing.
///
/// ```
/// use std::sync::atomic::{AtomicU32, Ordering};
///
/// let mut counters = [0u32, 10];
/// let spare_left = AtomicU32::new(5);
/// let sums = afsb_rt::par::pipeline(
///     &mut counters,
///     2,
///     Vec::new,
///     |next, buf: &mut Vec<u32>| {
///         if *next % 10 == 3 {
///             return false;
///         }
///         buf.clear();
///         buf.push(*next);
///         *next += 1;
///         true
///     },
///     || {
///         let take = |left: u32| left.checked_sub(1);
///         spare_left.fetch_update(Ordering::SeqCst, Ordering::SeqCst, take).is_ok()
///     },
///     |feed| {
///         let mut sums = [0, 0];
///         for (stream, sum) in sums.iter_mut().enumerate() {
///             while let Some(buf) = feed.next(stream) {
///                 *sum += buf[0];
///                 feed.recycle(stream, buf);
///             }
///         }
///         sums
///     },
/// );
/// assert_eq!(sums, [3, 33]);
/// assert_eq!(spare_left.into_inner(), 0);
/// ```
///
/// # Panics
///
/// Panics if `slots == 0`. If `produce`, `spare` or `consume` panics on
/// any thread, every helper is stopped and joined, and the panic is
/// re-raised on the calling thread with its original payload (a
/// helper's, if several threads panic). [`Feed::next`] panics instead of
/// waiting forever when the consumer already holds all `slots` buffers of
/// the stream.
pub fn pipeline<S, B, R>(
    states: &mut [S],
    slots: usize,
    buffer: impl FnMut() -> B,
    produce: impl Fn(&mut S, &mut B) -> bool + Sync,
    spare: impl Fn() -> bool + Sync,
    consume: impl FnOnce(&mut Feed<'_, B>) -> R,
) -> R
where
    S: Send,
    B: Send,
{
    let helpers = (cpus() - 1).min(states.len());
    pipeline_on(helpers, states, slots, buffer, produce, spare, consume)
}

/// [`pipeline`] with `helpers` scoped helper threads, or none, so every
/// path can be tested on any host.
fn pipeline_on<S, B, R>(
    helpers: usize,
    states: &mut [S],
    slots: usize,
    mut buffer: impl FnMut() -> B,
    produce: impl Fn(&mut S, &mut B) -> bool + Sync,
    spare: impl Fn() -> bool + Sync,
    consume: impl FnOnce(&mut Feed<'_, B>) -> R,
) -> R
where
    S: Send,
    B: Send,
{
    assert!(slots > 0, "a pipeline stream needs at least one buffer");
    let streams = states.len();
    let free: Vec<Vec<B>> = (0..streams)
        .map(|_| (0..slots).map(|_| buffer()).collect())
        .collect();
    let shared = Shared {
        lanes: Mutex::new(Lanes {
            states: states.iter_mut().map(Some).collect(),
            full: (0..streams)
                .map(|_| VecDeque::with_capacity(slots))
                .collect(),
            free,
            ended: vec![false; streams],
            stop: false,
        }),
        filled: Condvar::new(),
        freed: Condvar::new(),
        helpers,
        produce: &produce,
        spare: &spare,
    };
    let mut feed = Feed {
        held: vec![0; streams],
        slots,
        pipe: &shared,
    };
    let (helped, consumed) = thread::scope(|scope| {
        let workers: Vec<_> = (0..helpers)
            .map(|h| {
                let shared = &shared;
                scope.spawn(move || shared.serve(h))
            })
            .collect();
        let consumed = catch_unwind(AssertUnwindSafe(|| {
            let result = consume(&mut feed);
            while spare() {}
            result
        }));
        shared.stop();
        let mut helped = Ok(());
        for worker in workers {
            if let Err(payload) = worker.join() {
                if helped.is_ok() {
                    helped = Err(payload);
                }
            }
        }
        (helped, consumed)
    });
    match (helped, consumed) {
        (Err(payload), _) | (Ok(()), Err(payload)) => resume_unwind(payload),
        (Ok(()), Ok(result)) => {
            while spare() {}
            result
        }
    }
}

/// The consumer's end of a [`pipeline`].
pub struct Feed<'a, B> {
    /// Buffers of each stream the consumer holds.
    held: Vec<usize>,
    slots: usize,
    pipe: &'a (dyn Pipe<B> + 'a),
}

impl<B> Feed<'_, B> {
    /// Stream `stream`'s next buffer, in the order it was filled, or
    /// `None` once the stream has ended. If no filled buffer is waiting
    /// and no helper is filling the stream, fills the next one on the
    /// calling thread; while a helper is filling it, runs slices of the
    /// pipeline's spare work, and waits once there is none.
    ///
    /// # Panics
    ///
    /// Panics if the consumer holds all the stream's buffers: none would
    /// be left to fill.
    pub fn next(&mut self, stream: usize) -> Option<B> {
        assert!(
            self.held[stream] < self.slots,
            "stream {stream}: the consumer holds all {} buffers; recycle one first",
            self.slots
        );
        let buf = self.pipe.take(stream)?;
        self.held[stream] += 1;
        Some(buf)
    }

    /// Hand `buf`, taken from stream `stream`, back to be filled again.
    pub fn recycle(&mut self, stream: usize, buf: B) {
        self.held[stream] = self.held[stream]
            .checked_sub(1)
            .expect("recycle only buffers taken from the same stream");
        self.pipe.give_back(stream, buf);
    }
}

/// The consumer's view of a pipeline, without its producer state type.
trait Pipe<B> {
    /// The side of [`Feed::next`] that needs the shared state.
    fn take(&self, stream: usize) -> Option<B>;
    /// The side of [`Feed::recycle`] that needs the shared state.
    fn give_back(&self, stream: usize, buf: B);
}

/// The state a pipeline's helpers and consumer share.
struct Shared<'a, S, B> {
    lanes: Mutex<Lanes<'a, S, B>>,
    /// Wakes the consumer when a buffer is filled or the pipeline stops.
    filled: Condvar,
    /// Wakes a helper when a buffer comes back, or every helper when the
    /// pipeline stops.
    freed: Condvar,
    helpers: usize,
    produce: &'a (dyn Fn(&mut S, &mut B) -> bool + Sync),
    spare: &'a (dyn Fn() -> bool + Sync),
}

struct Lanes<'a, S, B> {
    /// Each stream's producer state, or `None` while a thread fills one
    /// of its buffers, so each stream is filled by one thread at a time
    /// and its buffers come out in order.
    states: Vec<Option<&'a mut S>>,
    /// Filled buffers of each stream, oldest first.
    full: Vec<VecDeque<B>>,
    /// Buffers of each stream that nobody holds.
    free: Vec<Vec<B>>,
    /// Whether each stream's producer has returned `false`.
    ended: Vec<bool>,
    /// Set when the consumer is done or a helper panicked.
    stop: bool,
}

impl<'a, S, B> Lanes<'a, S, B> {
    /// Whether stream `i` can be filled now: not ended, its state free,
    /// and a buffer free.
    fn fillable(&self, i: usize) -> bool {
        !self.ended[i] && self.states[i].is_some() && !self.free[i].is_empty()
    }

    /// Take stream `i`'s state and a free buffer to fill.
    fn claim(&mut self, i: usize) -> (&'a mut S, B) {
        let state = self.states[i].take().expect("a fillable stream's state");
        let buf = self.free[i].pop().expect("a fillable stream's buffer");
        (state, buf)
    }

    /// Return stream `i`'s state after filling `buf`: queue the buffer, or
    /// end the stream if `produce` had nothing for it.
    fn release(&mut self, i: usize, state: &'a mut S, buf: B, more: bool) -> Option<B> {
        self.states[i] = Some(state);
        if more {
            Some(buf)
        } else {
            self.free[i].push(buf);
            self.ended[i] = true;
            None
        }
    }
}

/// The payload the consumer unwinds with when a helper has panicked; the
/// calling thread re-raises the helper's payload in its place.
struct HelperPanicked;

impl<'a, S, B> Shared<'a, S, B> {
    fn lock(&self) -> MutexGuard<'_, Lanes<'a, S, B>> {
        // No code that can panic runs while the lock is held.
        self.lanes
            .lock()
            .expect("no pipeline thread panics holding the lock")
    }

    /// Helper `helper`'s loop: fill the streams in turn, starting from
    /// its own, and run a slice of spare work when none can be filled,
    /// until the pipeline stops or every stream has ended and no spare
    /// work is left.
    fn serve(&self, helper: usize) {
        let _stop = StopPipelineOnPanic(self);
        let mut lanes = self.lock();
        let n = lanes.states.len();
        let mut turn = helper;
        loop {
            if lanes.stop {
                return;
            }
            if let Some(i) = (0..n).map(|k| (turn + k) % n).find(|&i| lanes.fillable(i)) {
                let (state, mut buf) = lanes.claim(i);
                drop(lanes);
                turn = i + 1;
                let more = (self.produce)(state, &mut buf);
                lanes = self.lock();
                if let Some(buf) = lanes.release(i, state, buf, more) {
                    lanes.full[i].push_back(buf);
                }
                self.filled.notify_one();
                continue;
            }
            drop(lanes);
            let worked = (self.spare)();
            lanes = self.lock();
            if worked {
                continue;
            }
            if lanes.ended.iter().all(|&ended| ended) {
                return;
            }
            // Nothing to fill and no spare work: wait for a buffer to
            // come back, unless one came back during the slice above.
            if !lanes.stop && !(0..n).any(|i| lanes.fillable(i)) {
                lanes = self
                    .freed
                    .wait(lanes)
                    .expect("no pipeline thread panics holding the lock");
            }
        }
    }

    /// Stop every helper at its next buffer or slice and wake every
    /// waiter.
    fn stop(&self) {
        // A panicking helper may stop the pipeline while another holds
        // the lock; recover it, since setting the flag leaves it valid.
        self.lanes
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .stop = true;
        self.filled.notify_all();
        self.freed.notify_all();
    }
}

impl<S, B> Pipe<B> for Shared<'_, S, B> {
    fn take(&self, stream: usize) -> Option<B> {
        let mut lanes = self.lock();
        let mut spare_left = true;
        loop {
            if let Some(buf) = lanes.full[stream].pop_front() {
                return Some(buf);
            }
            if lanes.ended[stream] {
                return None;
            }
            if lanes.stop {
                drop(lanes);
                resume_unwind(Box::new(HelperPanicked));
            }
            if lanes.fillable(stream) {
                // No helper is filling the stream: fill its next buffer
                // here. Nothing is queued, so it is the next in order.
                let (state, mut buf) = lanes.claim(stream);
                drop(lanes);
                let more = (self.produce)(state, &mut buf);
                return self.lock().release(stream, state, buf, more);
            }
            if spare_left {
                drop(lanes);
                spare_left = (self.spare)();
                lanes = self.lock();
            } else {
                lanes = self
                    .filled
                    .wait(lanes)
                    .expect("no pipeline thread panics holding the lock");
            }
        }
    }

    fn give_back(&self, stream: usize, buf: B) {
        self.lock().free[stream].push(buf);
        if self.helpers > 0 {
            self.freed.notify_one();
        }
    }
}

/// Stops the pipeline when a helper panics, so the consumer and the other
/// helpers do not wait for it forever.
struct StopPipelineOnPanic<'s, 'a, S, B>(&'s Shared<'a, S, B>);

impl<S, B> Drop for StopPipelineOnPanic<'_, '_, S, B> {
    fn drop(&mut self) {
        if thread::panicking() {
            self.0.stop();
        }
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

    /// A producer that fills stream `i` with `(i, 0)`, …, `(i, len - 1)`.
    struct Counter {
        stream: usize,
        next: usize,
        len: usize,
    }

    fn counters(lens: &[usize]) -> Vec<Counter> {
        lens.iter()
            .enumerate()
            .map(|(stream, &len)| Counter {
                stream,
                next: 0,
                len,
            })
            .collect()
    }

    fn count(counter: &mut Counter, buf: &mut Vec<(usize, usize)>) -> bool {
        if counter.next == counter.len {
            return false;
        }
        buf.clear();
        buf.push((counter.stream, counter.next));
        counter.next += 1;
        true
    }

    /// A `spare` that does `slices` slices in all, one per call.
    fn spare_slices(left: &AtomicUsize) -> impl Fn() -> bool + Sync + '_ {
        || {
            left.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .is_ok()
        }
    }

    #[test]
    fn pipeline_delivers_every_stream_in_fill_order_and_all_spare_work() {
        let lens = [7, 0, 13, 1, 5];
        for helpers in 0..=3 {
            for reverse in [false, true] {
                let mut states = counters(&lens);
                let spare_left = AtomicUsize::new(40);
                let got = pipeline_on(
                    helpers,
                    &mut states,
                    2,
                    Vec::new,
                    count,
                    spare_slices(&spare_left),
                    |feed| {
                        // One buffer per live stream per turn, in either
                        // stream order.
                        let mut got = vec![Vec::new(); lens.len()];
                        let mut live: Vec<usize> = (0..lens.len()).collect();
                        if reverse {
                            live.reverse();
                        }
                        while !live.is_empty() {
                            live.retain(|&i| match feed.next(i) {
                                Some(buf) => {
                                    got[i].extend_from_slice(&buf);
                                    feed.recycle(i, buf);
                                    true
                                }
                                None => false,
                            });
                        }
                        got
                    },
                );
                for (i, &len) in lens.iter().enumerate() {
                    let want: Vec<_> = (0..len).map(|k| (i, k)).collect();
                    assert_eq!(got[i], want, "helpers {helpers}, reverse {reverse}");
                }
                assert_eq!(spare_left.into_inner(), 0, "helpers {helpers}");
            }
        }
    }

    #[test]
    fn with_no_helpers_every_buffer_is_filled_on_the_caller_when_asked_for() {
        let caller = thread::current().id();
        let log = Mutex::new(Vec::new());
        let consumed = AtomicBool::new(false);
        let mut states = counters(&[3]);
        pipeline_on(
            0,
            &mut states,
            4,
            Vec::new,
            |counter, buf| {
                assert_eq!(thread::current().id(), caller);
                let more = count(counter, buf);
                if more {
                    log.lock().expect("no test thread panics").push("fill");
                }
                more
            },
            || {
                assert_eq!(thread::current().id(), caller);
                assert!(consumed.load(Ordering::SeqCst), "spare runs after consume");
                false
            },
            |feed| {
                while let Some(buf) = feed.next(0) {
                    log.lock().expect("no test thread panics").push("take");
                    feed.recycle(0, buf);
                }
                consumed.store(true, Ordering::SeqCst);
            },
        );
        let log = log.into_inner().expect("no test thread panics");
        assert_eq!(log, ["fill", "take", "fill", "take", "fill", "take"]);
    }

    #[test]
    fn a_helper_fills_ahead_of_the_consumer_up_to_its_slots() {
        let caller = thread::current().id();
        let (tx, rx) = mpsc::channel();
        let mut states = counters(&[6]);
        let fillers = pipeline_on(
            1,
            &mut states,
            3,
            Vec::new,
            |counter, buf| {
                let more = count(counter, buf);
                if more {
                    tx.send(thread::current().id())
                        .expect("the consumer listens");
                }
                more
            },
            || false,
            |feed| {
                // The helper fills all three slots before the consumer
                // asks for anything.
                let ahead: Vec<_> = (0..3).map(|_| rx.recv().expect("a fill")).collect();
                while let Some(buf) = feed.next(0) {
                    feed.recycle(0, buf);
                }
                ahead
            },
        );
        assert!(fillers.iter().all(|&id| id != caller), "{fillers:?}");
    }

    #[test]
    fn a_panic_in_produce_reaches_the_caller_with_its_payload() {
        for helpers in 0..=2 {
            let mut states = counters(&[5, 5, 5]);
            let result = catch_unwind(AssertUnwindSafe(|| {
                pipeline_on(
                    helpers,
                    &mut states,
                    2,
                    Vec::new,
                    |counter, buf| {
                        assert!(counter.stream != 1 || counter.next < 3, "stream 1 failed");
                        count(counter, buf)
                    },
                    || false,
                    |feed| {
                        for i in (0..3).cycle() {
                            if let Some(buf) = feed.next(i) {
                                feed.recycle(i, buf);
                            }
                        }
                    },
                )
            }));
            let payload = result.expect_err("a failed stream must not return");
            assert_eq!(
                panic_message(&*payload),
                "stream 1 failed",
                "helpers {helpers}"
            );
        }
    }

    #[test]
    fn a_panic_in_consume_stops_the_helpers_and_reaches_the_caller() {
        for helpers in 0..=2 {
            // Endless streams: the helpers stop only because the consumer
            // failed.
            let mut states = counters(&[usize::MAX, usize::MAX]);
            let result = catch_unwind(AssertUnwindSafe(|| {
                pipeline_on(
                    helpers,
                    &mut states,
                    2,
                    Vec::new,
                    count,
                    || false,
                    |feed| {
                        let buf = feed.next(1).expect("an endless stream");
                        feed.recycle(1, buf);
                        panic!("consumer failed")
                    },
                )
            }));
            let payload = result.expect_err("a failed consumer must not return");
            assert_eq!(
                panic_message(&*payload),
                "consumer failed",
                "helpers {helpers}"
            );
        }
    }

    #[test]
    fn a_panic_in_spare_reaches_the_caller_with_its_payload() {
        for helpers in 0..=2 {
            let calls = AtomicUsize::new(0);
            let mut states = counters(&[50, 50]);
            let result = catch_unwind(AssertUnwindSafe(|| {
                pipeline_on(
                    helpers,
                    &mut states,
                    1,
                    Vec::new,
                    count,
                    || {
                        let n = calls.fetch_add(1, Ordering::SeqCst);
                        assert!(n < 2, "spare failed");
                        true
                    },
                    |feed| {
                        for i in [0, 1].into_iter().cycle() {
                            match feed.next(i) {
                                Some(buf) => feed.recycle(i, buf),
                                None => break,
                            }
                        }
                    },
                )
            }));
            let payload = result.expect_err("failed spare work must not return");
            assert_eq!(
                panic_message(&*payload),
                "spare failed",
                "helpers {helpers}"
            );
        }
    }

    #[test]
    fn asking_for_a_buffer_while_holding_every_slot_panics() {
        for helpers in 0..=1 {
            let mut states = counters(&[10]);
            let result = catch_unwind(AssertUnwindSafe(|| {
                pipeline_on(
                    helpers,
                    &mut states,
                    2,
                    Vec::new,
                    count,
                    || false,
                    |feed| {
                        let held: Vec<_> = (0..3).map(|_| feed.next(0)).collect();
                        held.len()
                    },
                )
            }));
            let payload = result.expect_err("a third buffer could never come");
            let message = panic_message(&*payload);
            assert!(message.contains("holds all 2 buffers"), "{message}");
        }
    }

    #[test]
    fn pipeline_uses_one_helper_per_cpu_beside_the_caller() {
        let caller = thread::current().id();
        let fillers = Mutex::new(Vec::new());
        let mut states = counters(&[64, 64, 64]);
        pipeline(
            &mut states,
            1,
            Vec::new,
            |counter, buf| {
                fillers
                    .lock()
                    .expect("no test thread panics")
                    .push(thread::current().id());
                count(counter, buf)
            },
            || false,
            |feed| {
                for i in 0..3 {
                    while let Some(buf) = feed.next(i) {
                        feed.recycle(i, buf);
                    }
                }
            },
        );
        let mut fillers = fillers.into_inner().expect("no test thread panics");
        fillers.sort_by_key(|id| format!("{id:?}"));
        fillers.dedup();
        fillers.retain(|&id| id != caller);
        assert!(
            fillers.len() < cpus(),
            "{} helpers on {} CPUs",
            fillers.len(),
            cpus()
        );
    }
}
