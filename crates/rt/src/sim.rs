//! `rt::sim` — the deterministic discrete-event simulation engine.
//!
//! Everything in the suite that pretends to be a running system — the
//! multi-query server, the fault injector, the resilient executor — used
//! to keep its own ad-hoc notion of simulated time: the serving
//! scheduler re-scanned per-request state on every step (O(steps ·
//! requests)), the injector compared a private clock against
//! `not_before` stamps, the retry loop summed floats by hand. This
//! module replaces all of that with the one structure a discrete-event
//! simulator needs (the LLMServingSim shape): a **binary-heap event
//! queue** keyed on `(sim_time, seq)` driving a **monotone clock**, so
//! a sweep over N requests costs O(events · log n) instead of a rescan
//! per step.
//!
//! Determinism rules:
//!
//! - The clock only moves when an event is popped ([`SimEngine::pop`])
//!   or explicitly advanced ([`SimEngine::advance`] /
//!   [`SimEngine::advance_to`]); it never reads wall time.
//! - Same-timestamp events pop in **insertion order**: every
//!   [`SimEngine::schedule`] stamps a monotonically increasing sequence
//!   number that breaks heap ties, so the pop order is a pure function
//!   of the schedule calls.
//! - Timers are **cancellable** ([`SimEngine::cancel`]) in O(1): a
//!   per-seq liveness flag turns the heap entry into a tombstone that
//!   is skipped at pop time and never observed by the consumer — this
//!   is how per-request deadlines disarm on completion and how a
//!   consumed fault leaves the queue.
//! - Event times must be finite and are clamped to the current clock
//!   (an event scheduled "in the past" fires immediately, it does not
//!   rewind time).
//!
//! The typed event vocabulary ([`Event`]) is shared by every consumer:
//! `serve` drives arrivals, MSA completions, cache fills and GPU
//! batching through it; `rt::fault` schedules `Fault(kind)` deliveries;
//! `core::resilience` arms `DeadlineExpired` timers and retry wake-ups.
//!
//! # Provenance (the causal profiler's substrate)
//!
//! With [`SimEngine::record_provenance`] armed, every schedule call
//! also records a [`ProvenanceEdge`]: the event's causal **parent**
//! (the event being handled when it was scheduled — `None` for events
//! scheduled before the first pop — or an earlier delivered event the
//! consumer names via [`SimEngine::schedule_with_parent`]) and a typed
//! [`WaitEdge`] label naming the resource the child waited on
//! (supplied by the consumer via [`SimEngine::schedule_tagged`]; plain
//! [`SimEngine::schedule`] tags [`WaitEdge::External`]). Cancelled
//! timers can never appear as parents: a parent is by definition a
//! *popped* event, and cancelled entries are skipped at pop time.
//! Recording is pure bookkeeping — it allocates no floats into the
//! schedule and leaves pop order, clock motion and every
//! consumer-visible value byte-identical ([`crate::obs::causal`] walks
//! the edges afterwards).

use crate::fault::FaultKind;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Handle to a scheduled event; pass to [`SimEngine::cancel`] to disarm
/// it. Equal to the event's tie-breaking sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerId(u64);

impl TimerId {
    /// The raw sequence number (insertion order of the schedule call).
    pub fn seq(self) -> u64 {
        self.0
    }
}

/// The typed event vocabulary shared by every engine consumer. Payloads
/// are plain indices into the consumer's own tables (request ids,
/// worker slots) so the engine stays free of domain types.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// A request enters the system.
    Arrival {
        /// Stream position of the arriving request.
        request: usize,
    },
    /// A CPU pool worker finished a request's MSA phase.
    MsaDone {
        /// The request whose features are now computed.
        request: usize,
        /// The pool worker slot that ran it.
        worker: usize,
    },
    /// A feature-cache fill (or cached-feature load) completed for a
    /// request — its features are now GPU-ready.
    CacheFill {
        /// The request whose features finished loading.
        request: usize,
    },
    /// The GPU should evaluate its ready queue and close a batch.
    BatchClose,
    /// A GPU dispatch completed.
    GpuDone,
    /// A deadline armed for `request` elapsed without being cancelled.
    DeadlineExpired {
        /// The request (or phase ordinal) whose budget ran out.
        request: usize,
    },
    /// A scheduled fault becomes deliverable ([`crate::fault`]).
    Fault(FaultKind),
    /// A retry backoff elapsed: `request` re-enters dispatch (the
    /// serving recovery layer's requeue path).
    Requeue {
        /// The request whose retry backoff expired.
        request: usize,
    },
    /// A worker-pool circuit breaker's cooldown elapsed — the circuit
    /// half-closes and parked requests re-dispatch.
    BreakerClose,
}

impl Event {
    /// Stable short label used for trace instants and logs.
    pub fn label(&self) -> &'static str {
        match self {
            Event::Arrival { .. } => "arrival",
            Event::MsaDone { .. } => "msa-done",
            Event::CacheFill { .. } => "cache-fill",
            Event::BatchClose => "batch-close",
            Event::GpuDone => "gpu-done",
            Event::DeadlineExpired { .. } => "deadline-expired",
            Event::Fault(kind) => kind.label(),
            Event::Requeue { .. } => "requeue",
            Event::BreakerClose => "breaker-close",
        }
    }
}

/// The typed wait-edge vocabulary: which resource a scheduled event
/// waited on before it could fire. Consumers tag each
/// [`SimEngine::schedule_tagged`] call with the blocking resource; the
/// critical-path walker ([`crate::obs::causal`]) aggregates blame by
/// this label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WaitEdge {
    /// Externally driven (arrival streams, fault plans, anything
    /// scheduled without a resource tag).
    External,
    /// Waited for a CPU pool worker (queue + MSA service).
    WorkerBusy,
    /// Waited for a storage-priced feature-cache fill or load.
    CacheFill,
    /// Waited for the batch-formation trigger to close a GPU batch.
    BatchClose,
    /// Waited for the GPU (dispatch queue + inference service).
    GpuBusy,
    /// Waited for admission control (retry backoff, breaker cooldown).
    Admission,
    /// A deadline timer armed against the request's latency budget.
    Deadline,
}

impl WaitEdge {
    /// Every edge kind, in the canonical report order.
    pub const ALL: [WaitEdge; 7] = [
        WaitEdge::External,
        WaitEdge::WorkerBusy,
        WaitEdge::CacheFill,
        WaitEdge::BatchClose,
        WaitEdge::GpuBusy,
        WaitEdge::Admission,
        WaitEdge::Deadline,
    ];

    /// Stable short label used in blame tables and collapsed stacks.
    pub fn label(self) -> &'static str {
        match self {
            WaitEdge::External => "external",
            WaitEdge::WorkerBusy => "worker-busy",
            WaitEdge::CacheFill => "cache-fill",
            WaitEdge::BatchClose => "batch-close",
            WaitEdge::GpuBusy => "gpu-busy",
            WaitEdge::Admission => "admission",
            WaitEdge::Deadline => "deadline",
        }
    }

    /// Position in [`WaitEdge::ALL`] (canonical report order).
    pub fn index(self) -> usize {
        match self {
            WaitEdge::External => 0,
            WaitEdge::WorkerBusy => 1,
            WaitEdge::CacheFill => 2,
            WaitEdge::BatchClose => 3,
            WaitEdge::GpuBusy => 4,
            WaitEdge::Admission => 5,
            WaitEdge::Deadline => 6,
        }
    }
}

/// One recorded causal edge: event `seq` was scheduled to fire at
/// `at_s` while `parent` was being handled, after waiting on `edge`.
/// Indexed by `seq` in [`SimEngine::provenance`] — every schedule call
/// appends exactly one record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProvenanceEdge {
    /// The scheduled event's sequence number (== its [`TimerId::seq`]).
    pub seq: u64,
    /// Sequence number of the event being handled at schedule time;
    /// `None` when scheduled outside any event handler (seeding).
    pub parent: Option<u64>,
    /// The resource the child waited on before firing.
    pub edge: WaitEdge,
    /// The (clamp-adjusted) simulated second the event fires at.
    pub at_s: f64,
    /// The event's stable label ([`Event::label`]).
    pub label: &'static str,
    /// Whether the timer was cancelled before firing. Cancelled
    /// entries are never popped, so they can never be a `parent`.
    pub cancelled: bool,
    /// Whether the event has been popped (delivered) yet.
    pub delivered: bool,
}

/// One heap entry. Ordered by `(time, seq)` — the heap is a max-heap,
/// so the comparison is reversed to pop the earliest time first and,
/// within a timestamp, the lowest sequence number (insertion order).
#[derive(Debug, Clone)]
struct Scheduled {
    at_s: f64,
    seq: u64,
    event: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Scheduled) -> bool {
        self.seq == other.seq
    }
}
impl Eq for Scheduled {}

impl Ord for Scheduled {
    fn cmp(&self, other: &Scheduled) -> Ordering {
        // Reversed: the "greatest" entry is the earliest (time, seq).
        // Times are validated finite at schedule time, so total_cmp
        // agrees with the IEEE order the consumers reason about.
        other
            .at_s
            .total_cmp(&self.at_s)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Scheduled) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The deterministic discrete-event engine: one monotone clock, one
/// `(time, seq)`-ordered event queue, cancellable timers.
#[derive(Debug, Clone, Default)]
pub struct SimEngine {
    now_s: f64,
    next_seq: u64,
    heap: BinaryHeap<Scheduled>,
    /// Liveness flag per schedule call, indexed by seq: set at
    /// schedule, cleared at cancel or pop. A heap entry whose flag is
    /// clear is a cancelled tombstone, skipped when it surfaces.
    live: Vec<bool>,
    /// Cancelled tombstones still in the heap.
    cancelled: usize,
    /// Causal edge log, one record per schedule call, indexed by seq.
    /// `None` until [`SimEngine::record_provenance`] arms it.
    provenance: Option<Vec<ProvenanceEdge>>,
    /// Seq of the event currently being handled (set at pop) — the
    /// causal parent attributed to every schedule call made while the
    /// consumer processes that event.
    current: Option<u64>,
}

impl SimEngine {
    /// An empty engine with the clock at simulated second zero.
    pub fn new() -> SimEngine {
        SimEngine::default()
    }

    /// The current simulated time in seconds.
    pub fn now_seconds(&self) -> f64 {
        self.now_s
    }

    /// Advance the clock by `seconds` without popping anything.
    /// Non-finite or negative deltas are ignored — a fault must never
    /// corrupt the timeline (same rule as [`Tracer::advance`]).
    pub fn advance(&mut self, seconds: f64) {
        if seconds.is_finite() && seconds > 0.0 {
            self.now_s += seconds;
        }
    }

    /// Move the clock forward to `seconds` (never backwards).
    pub fn advance_to(&mut self, seconds: f64) {
        if seconds.is_finite() && seconds > self.now_s {
            self.now_s = seconds;
        }
    }

    /// Schedule `event` at absolute simulated time `at_s`, returning a
    /// cancellable handle. A time earlier than the clock is clamped to
    /// "now" (the event fires on the next pop, it cannot rewind time).
    ///
    /// # Panics
    ///
    /// Panics when `at_s` is NaN or infinite — a non-finite timestamp
    /// would silently corrupt the heap order.
    pub fn schedule(&mut self, at_s: f64, event: Event) -> TimerId {
        self.schedule_tagged(at_s, event, WaitEdge::External)
    }

    /// [`SimEngine::schedule`] with an explicit [`WaitEdge`] naming the
    /// resource the event waited on — the tag the causal profiler
    /// aggregates blame by. With provenance off the tag is dropped and
    /// the call is identical to `schedule`.
    pub fn schedule_tagged(&mut self, at_s: f64, event: Event, edge: WaitEdge) -> TimerId {
        self.schedule_with_parent(at_s, event, edge, self.current())
    }

    /// [`SimEngine::schedule_tagged`] with an explicit causal `parent`
    /// instead of the event being handled: a consumer that defers work
    /// (a queue drained later) hangs the deferred event off the event
    /// that enqueued it. Naming [`SimEngine::current`] is exactly
    /// `schedule_tagged`; `None` records a root. With provenance off
    /// the parent is dropped like the tag.
    ///
    /// # Panics
    ///
    /// Panics when `at_s` is not finite, and (provenance armed) when
    /// `parent` has not been delivered yet — an undelivered or
    /// cancelled event cannot be a cause, and a delivered one always
    /// precedes the child in `(time, seq)`.
    pub fn schedule_with_parent(
        &mut self,
        at_s: f64,
        event: Event,
        edge: WaitEdge,
        parent: Option<TimerId>,
    ) -> TimerId {
        assert!(at_s.is_finite(), "event time must be finite, got {at_s}");
        let seq = self.next_seq;
        self.next_seq += 1;
        let at_s = at_s.max(self.now_s);
        if let Some(edges) = self.provenance.as_mut() {
            if let Some(p) = parent {
                assert!(
                    edges.get(p.0 as usize).is_some_and(|e| e.delivered),
                    "causal parent {} has not been delivered",
                    p.0
                );
            }
            edges.push(ProvenanceEdge {
                seq,
                parent: parent.map(TimerId::seq),
                edge,
                at_s,
                label: event.label(),
                cancelled: false,
                delivered: false,
            });
        }
        self.live.push(true);
        self.heap.push(Scheduled { at_s, seq, event });
        TimerId(seq)
    }

    /// Schedule `event` `delay_s` seconds after the current clock
    /// (negative or non-finite delays clamp to zero).
    pub fn schedule_in(&mut self, delay_s: f64, event: Event) -> TimerId {
        let d = if delay_s.is_finite() {
            delay_s.max(0.0)
        } else {
            0.0
        };
        self.schedule(self.now_s + d, event)
    }

    /// Cancel a scheduled event in O(1). Returns whether the handle was
    /// live (scheduled, not yet popped, not already cancelled). A
    /// cancelled event is never returned by [`SimEngine::pop`].
    pub fn cancel(&mut self, id: TimerId) -> bool {
        if !self.take_live(id.0) {
            return false;
        }
        self.cancelled += 1;
        if let Some(edges) = self.provenance.as_mut() {
            edges[id.0 as usize].cancelled = true;
        }
        true
    }

    /// Clear `seq`'s liveness flag, returning whether it was set (the
    /// event was scheduled and neither popped nor cancelled yet).
    fn take_live(&mut self, seq: u64) -> bool {
        self.live
            .get_mut(seq as usize)
            .is_some_and(|live| std::mem::replace(live, false))
    }

    /// Pop the next event: advances the clock to its timestamp and
    /// returns `(time, event)`. Cancelled entries are skipped silently.
    /// `None` when the queue is drained.
    pub fn pop(&mut self) -> Option<(f64, Event)> {
        self.pop_with_id().map(|(t, ev, _)| (t, ev))
    }

    /// [`SimEngine::pop`] that also returns the popped event's handle —
    /// consumers that need the original schedule order (e.g. the fault
    /// injector's plan-order delivery) read it from [`TimerId::seq`].
    pub fn pop_with_id(&mut self) -> Option<(f64, Event, TimerId)> {
        while let Some(s) = self.heap.pop() {
            if !self.take_live(s.seq) {
                self.cancelled -= 1;
                continue;
            }
            self.advance_to(s.at_s);
            self.current = Some(s.seq);
            if let Some(edges) = self.provenance.as_mut() {
                edges[s.seq as usize].delivered = true;
            }
            return Some((s.at_s, s.event, TimerId(s.seq)));
        }
        None
    }

    /// The event being handled: the last one popped (`None` before the
    /// first pop). Schedule calls name it as their causal parent.
    pub fn current(&self) -> Option<TimerId> {
        self.current.map(TimerId)
    }

    /// Timestamp of the next live event without popping it.
    pub fn peek_time(&mut self) -> Option<f64> {
        loop {
            let s = self.heap.peek()?;
            if self.live[s.seq as usize] {
                return Some(s.at_s);
            }
            self.heap.pop();
            self.cancelled -= 1;
        }
    }

    /// Live (scheduled, uncancelled) events still in the queue.
    pub fn pending(&self) -> usize {
        self.heap.len() - self.cancelled
    }

    /// Whether no live event remains.
    pub fn is_drained(&self) -> bool {
        self.pending() == 0
    }

    /// Arm causal-edge recording. Must be called before the first
    /// schedule so the edge log stays seq-indexed.
    ///
    /// # Panics
    ///
    /// Panics when events have already been scheduled.
    pub fn record_provenance(&mut self) {
        assert!(
            self.next_seq == 0,
            "record_provenance must be armed before any event is scheduled"
        );
        self.provenance = Some(Vec::new());
    }

    /// The recorded causal edges, one per schedule call, indexed by
    /// seq. Empty unless [`SimEngine::record_provenance`] was armed.
    pub fn provenance(&self) -> &[ProvenanceEdge] {
        self.provenance.as_deref().unwrap_or(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order_and_advances_the_clock() {
        let mut e = SimEngine::new();
        e.schedule(5.0, Event::BatchClose);
        e.schedule(1.0, Event::Arrival { request: 0 });
        e.schedule(3.0, Event::Arrival { request: 1 });
        assert_eq!(e.pending(), 3);
        assert_eq!(e.peek_time(), Some(1.0));
        let (t0, ev0) = e.pop().unwrap();
        assert_eq!((t0, ev0), (1.0, Event::Arrival { request: 0 }));
        assert_eq!(e.now_seconds(), 1.0);
        assert_eq!(e.pop().unwrap().0, 3.0);
        assert_eq!(e.pop().unwrap().0, 5.0);
        assert_eq!(e.pop(), None);
        assert!(e.is_drained());
    }

    #[test]
    fn same_timestamp_pops_in_insertion_order() {
        let mut e = SimEngine::new();
        for request in 0..8 {
            e.schedule(2.0, Event::Arrival { request });
        }
        for want in 0..8 {
            match e.pop().unwrap().1 {
                Event::Arrival { request } => assert_eq!(request, want),
                other => panic!("unexpected event {other:?}"),
            }
        }
    }

    #[test]
    fn cancelled_timers_never_fire() {
        let mut e = SimEngine::new();
        let keep = e.schedule(1.0, Event::Arrival { request: 0 });
        let kill = e.schedule(1.0, Event::DeadlineExpired { request: 0 });
        assert!(e.cancel(kill));
        assert!(!e.cancel(kill), "double-cancel reports dead");
        let popped: Vec<Event> = std::iter::from_fn(|| e.pop().map(|(_, ev)| ev)).collect();
        assert_eq!(popped, vec![Event::Arrival { request: 0 }]);
        assert!(!e.cancel(keep), "popped timers cannot be cancelled");
    }

    #[test]
    fn past_events_clamp_to_now_and_fire_immediately() {
        let mut e = SimEngine::new();
        e.advance(10.0);
        e.schedule(3.0, Event::BatchClose); // in the past: clamps to 10
        let (t, _) = e.pop().unwrap();
        assert_eq!(t, 10.0);
        assert_eq!(e.now_seconds(), 10.0);
    }

    #[test]
    fn schedule_in_clamps_bad_delays() {
        let mut e = SimEngine::new();
        e.advance(5.0);
        e.schedule_in(-3.0, Event::BatchClose);
        e.schedule_in(f64::NAN, Event::BatchClose);
        assert_eq!(e.pop().unwrap().0, 5.0);
        assert_eq!(e.pop().unwrap().0, 5.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_times_are_rejected() {
        SimEngine::new().schedule(f64::INFINITY, Event::BatchClose);
    }

    #[test]
    fn provenance_records_parents_and_tags() {
        let mut e = SimEngine::new();
        e.record_provenance();
        // Seeded before any pop: no parent, default External tag.
        e.schedule(1.0, Event::Arrival { request: 0 });
        let (_, _ev) = e.pop().unwrap();
        // Scheduled while handling the arrival: parent is its seq.
        let msa = e.schedule_tagged(
            4.0,
            Event::MsaDone {
                request: 0,
                worker: 0,
            },
            WaitEdge::WorkerBusy,
        );
        e.pop().unwrap();
        let close = e.schedule_tagged(4.0, Event::BatchClose, WaitEdge::BatchClose);
        let edges = e.provenance();
        assert_eq!(edges.len(), 3);
        assert_eq!(edges[0].parent, None);
        assert_eq!(edges[0].edge, WaitEdge::External);
        assert_eq!(edges[msa.seq() as usize].parent, Some(0));
        assert_eq!(edges[msa.seq() as usize].edge, WaitEdge::WorkerBusy);
        assert_eq!(edges[msa.seq() as usize].label, "msa-done");
        assert!(edges[msa.seq() as usize].delivered);
        assert_eq!(edges[close.seq() as usize].parent, Some(msa.seq()));
        assert!(!edges[close.seq() as usize].delivered);
    }

    #[test]
    fn provenance_marks_cancelled_timers() {
        let mut e = SimEngine::new();
        e.record_provenance();
        let keep = e.schedule(1.0, Event::Arrival { request: 0 });
        let kill = e.schedule(2.0, Event::DeadlineExpired { request: 0 });
        assert!(e.cancel(kill));
        while e.pop().is_some() {}
        let edges = e.provenance();
        assert!(edges[kill.seq() as usize].cancelled);
        assert!(!edges[kill.seq() as usize].delivered);
        assert!(edges[keep.seq() as usize].delivered);
        // A cancelled timer is never handled, so nothing scheduled
        // afterwards can name it as a parent.
        assert!(edges.iter().all(|x| x.parent != Some(kill.seq())));
    }

    #[test]
    fn provenance_off_records_nothing() {
        let mut e = SimEngine::new();
        e.schedule(1.0, Event::BatchClose);
        assert!(e.provenance().is_empty());
    }

    #[test]
    #[should_panic(expected = "before any event")]
    fn provenance_cannot_arm_mid_run() {
        let mut e = SimEngine::new();
        e.schedule(1.0, Event::BatchClose);
        e.record_provenance();
    }

    #[test]
    fn peek_skips_cancelled_entries() {
        let mut e = SimEngine::new();
        let first = e.schedule(1.0, Event::BatchClose);
        e.schedule(2.0, Event::GpuDone);
        assert!(e.cancel(first));
        assert_eq!(e.peek_time(), Some(2.0));
        assert_eq!(e.pending(), 1);
    }
}
