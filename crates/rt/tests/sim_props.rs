//! Property tests for the discrete-event engine (`rt::sim`): the three
//! invariants every consumer's determinism proof rests on.
//!
//! 1. Same-timestamp events pop in insertion (`seq`) order.
//! 2. A cancelled timer never fires, and cancellation never perturbs
//!    the order of the surviving events.
//! 3. An interleaved push/pop schedule drawn from a seeded RNG drains
//!    identically across two replays — the queue itself is a pure
//!    function of the schedule calls.
//!
//! Plus the provenance invariants the causal profiler
//! (`rt::obs::causal`) walks over:
//!
//! 4. Every recorded parent precedes its child in `(time, seq)` order.
//! 5. A cancelled timer never appears as anyone's parent.
//! 6. Two same-seed runs record byte-identical edge lists.
//!
//! And for explicit parents (`schedule_with_parent`, how a lazily
//! drained queue hangs a deferred event off the event that enqueued
//! it):
//!
//! 7. A named parent is an already-delivered event that precedes the
//!    child in `(time, seq)`; a cancelled timer is never named.
//! 8. Naming the current event reproduces `schedule_tagged` edge for
//!    edge.
//!
//! And against an independent oracle:
//!
//! 9. Every observable agrees, op for op, with a naive reference model
//!    that shares no code with the engine.

use afsb_rt::check::{run, Config};
use afsb_rt::sim::{Event, SimEngine, TimerId, WaitEdge};

/// Drain the engine, returning `(time, request-payload)` pairs.
fn drain(e: &mut SimEngine) -> Vec<(f64, usize)> {
    let mut out = Vec::new();
    while let Some((t, ev)) = e.pop() {
        if let Event::Arrival { request } = ev {
            out.push((t, request));
        }
    }
    out
}

#[test]
fn same_timestamp_events_pop_in_insertion_order() {
    run(
        "same_timestamp_events_pop_in_insertion_order",
        Config::cases(128),
        |g| {
            // A handful of distinct timestamps, many events per stamp.
            let stamps: Vec<f64> = (0..g.range(1usize..5)).map(|k| k as f64 * 10.0).collect();
            let n = g.range(2usize..40);
            let mut e = SimEngine::new();
            let mut expected: Vec<(f64, usize)> = Vec::new();
            for request in 0..n {
                let at = stamps[g.range(0..stamps.len())];
                e.schedule(at, Event::Arrival { request });
                expected.push((at, request));
            }
            // Stable sort by time alone preserves insertion order within
            // a timestamp — exactly the engine's (time, seq) contract.
            expected.sort_by(|a, b| a.0.total_cmp(&b.0));
            assert_eq!(drain(&mut e), expected);
        },
    );
}

#[test]
fn cancellation_never_fires_and_keeps_survivor_order() {
    run(
        "cancellation_never_fires_and_keeps_survivor_order",
        Config::cases(128),
        |g| {
            let n = g.range(1usize..50);
            let mut all = SimEngine::new();
            let mut pruned = SimEngine::new();
            let mut ids: Vec<(TimerId, usize)> = Vec::new();
            let times: Vec<f64> = (0..n).map(|_| g.range(0.0..100.0)).collect();
            for (request, &at) in times.iter().enumerate() {
                let id = all.schedule(at, Event::Arrival { request });
                ids.push((id, request));
            }
            // Cancel a random subset; schedule only the survivors into
            // the control engine (in the same insertion order).
            let mut survivors = Vec::new();
            for (id, request) in ids {
                if g.bool() {
                    assert!(all.cancel(id), "live timer must cancel");
                    assert!(!all.cancel(id), "second cancel reports dead");
                } else {
                    survivors.push(request);
                    pruned.schedule(times[request], Event::Arrival { request });
                }
            }
            let got = drain(&mut all);
            let want = drain(&mut pruned);
            assert_eq!(
                got.iter().map(|&(_, r)| r).collect::<Vec<_>>(),
                survivors.clone().tap_sort_by_time(&times),
                "cancelled events leaked or reordered the survivors"
            );
            assert_eq!(got, want, "pruned control engine must agree");
            assert!(all.is_drained() && all.pending() == 0);
        },
    );
}

/// Test helper: order request ids by `(time, insertion)` like the engine.
trait TapSort {
    fn tap_sort_by_time(self, times: &[f64]) -> Vec<usize>;
}
impl TapSort for Vec<usize> {
    fn tap_sort_by_time(mut self, times: &[f64]) -> Vec<usize> {
        self.sort_by(|&a, &b| times[a].total_cmp(&times[b]).then(a.cmp(&b)));
        self
    }
}

#[test]
fn interleaved_push_pop_replays_identically() {
    run(
        "interleaved_push_pop_replays_identically",
        Config::cases(64),
        |g| {
            // One seeded schedule of interleaved operations, executed on
            // two engines in lockstep: every observable must agree.
            let ops = g.vec(1..200, |g| {
                (
                    g.range(0u64..4),
                    g.range(0.0..1000.0),
                    g.range(0u64..1 << 30),
                )
            });
            let mut a = SimEngine::new();
            let mut b = SimEngine::new();
            let mut live: Vec<TimerId> = Vec::new();
            let mut log_a: Vec<(f64, usize)> = Vec::new();
            let mut log_b: Vec<(f64, usize)> = Vec::new();
            for (i, &(op, at, pick)) in ops.iter().enumerate() {
                match op {
                    // push
                    0 | 1 => {
                        let ida = a.schedule(at, Event::Arrival { request: i });
                        let idb = b.schedule(at, Event::Arrival { request: i });
                        assert_eq!(ida, idb, "timer ids are part of the replay");
                        live.push(ida);
                    }
                    // pop
                    2 => {
                        let ra = a.pop();
                        let rb = b.pop();
                        assert_eq!(ra, rb);
                        if let Some((t, Event::Arrival { request })) = ra {
                            log_a.push((t, request));
                        }
                        if let Some((t, Event::Arrival { request })) = rb {
                            log_b.push((t, request));
                        }
                    }
                    // cancel a previously issued timer (may be dead)
                    _ => {
                        if !live.is_empty() {
                            let id = live[pick as usize % live.len()];
                            assert_eq!(a.cancel(id), b.cancel(id));
                        }
                    }
                }
                assert_eq!(a.pending(), b.pending());
                assert_eq!(a.now_seconds(), b.now_seconds());
            }
            log_a.extend(drain(&mut a));
            log_b.extend(drain(&mut b));
            assert_eq!(log_a, log_b, "two replays of one schedule diverged");
            // Popped times are monotone per engine run.
            assert!(log_a.windows(2).all(|w| w[0].0 <= w[1].0));
        },
    );
}

/// The reference model of property 9: every live event as a
/// `(clamped time, seq)` pair in a `Vec`, scanned for the minimum, and
/// each seq's fate (`None` live, `Some(true)` cancelled, `Some(false)`
/// popped).
#[derive(Default)]
struct NaiveQueue {
    now_s: f64,
    live: Vec<(f64, u64)>,
    fate: Vec<Option<bool>>,
}

impl NaiveQueue {
    fn head(&self) -> Option<usize> {
        (0..self.live.len()).min_by(|&a, &b| {
            let (ta, sa) = self.live[a];
            let (tb, sb) = self.live[b];
            ta.total_cmp(&tb).then(sa.cmp(&sb))
        })
    }

    fn schedule(&mut self, at_s: f64) -> u64 {
        let seq = self.fate.len() as u64;
        self.live.push((at_s.max(self.now_s), seq));
        self.fate.push(None);
        seq
    }

    fn pop(&mut self) -> Option<(f64, u64)> {
        let (at_s, seq) = self.live.remove(self.head()?);
        self.now_s = at_s;
        self.fate[seq as usize] = Some(false);
        Some((at_s, seq))
    }

    fn cancel(&mut self, seq: u64) -> bool {
        let Some(i) = self.live.iter().position(|&(_, s)| s == seq) else {
            return false;
        };
        self.live.remove(i);
        self.fate[seq as usize] = Some(true);
        true
    }
}

/// The seq of the event `e` popped last.
fn popped_seq(e: &SimEngine) -> u64 {
    e.current().expect("a pop names the popped event").seq()
}

#[test]
fn engine_agrees_with_a_naive_reference_model() {
    run(
        "engine_agrees_with_a_naive_reference_model",
        Config::cases(128),
        |g| {
            let mut e = SimEngine::new();
            e.record_provenance();
            let mut model = NaiveQueue::default();
            let mut issued: Vec<TimerId> = Vec::new();
            for _ in 0..g.range(1usize..300) {
                match g.range(0u32..8) {
                    // Coarse stamps force same-time ties, and a stamp
                    // behind the clock exercises the clamp.
                    0..=2 => {
                        let at = g.range(0u32..20) as f64 * 5.0;
                        let id = e.schedule(at, Event::Arrival { request: 0 });
                        assert_eq!(id.seq(), model.schedule(at));
                        issued.push(id);
                    }
                    3..=5 => {
                        let got = e.pop().map(|(t, _)| (t, popped_seq(&e)));
                        assert_eq!(got, model.pop());
                    }
                    // Cancel any handle ever issued: live, already
                    // cancelled or already popped.
                    _ => {
                        if !issued.is_empty() {
                            let id = *g.pick(&issued);
                            assert_eq!(e.cancel(id), model.cancel(id.seq()), "cancel {id:?}");
                        }
                    }
                }
                assert_eq!(e.pending(), model.live.len());
                assert_eq!(e.is_drained(), model.live.is_empty());
                assert_eq!(e.now_seconds(), model.now_s);
                assert_eq!(e.provenance().len(), model.fate.len());
                for (edge, fate) in e.provenance().iter().zip(&model.fate) {
                    assert_eq!(edge.cancelled, *fate == Some(true), "seq {}", edge.seq);
                    assert_eq!(edge.delivered, *fate == Some(false), "seq {}", edge.seq);
                }
            }
            while let Some((t, _)) = e.pop() {
                assert_eq!(Some((t, popped_seq(&e))), model.pop());
            }
            assert!(model.live.is_empty(), "the model outlived the engine");
        },
    );
}

/// How a cascade names each child's causal parent.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Parent {
    /// `schedule_tagged`: the event being handled, implicitly.
    Implicit,
    /// `schedule_with_parent` naming `current()` explicitly.
    Current,
    /// `schedule_with_parent` naming a random already-delivered event.
    Delivered,
}

/// Drive a provenance-armed engine through a seeded cascade: seed
/// `roots` as untagged arrivals, then on each pop consume one op —
/// schedule a tagged child at `now + delay` (its parent named per
/// `parent`), or cancel a previously issued timer. Returns the engine
/// fully drained.
fn simulate_cascade(roots: &[f64], ops: &[(u64, f64, u64)], parent: Parent) -> SimEngine {
    let mut e = SimEngine::new();
    e.record_provenance();
    let mut live: Vec<TimerId> = Vec::new();
    let mut delivered: Vec<TimerId> = Vec::new();
    for (request, &at) in roots.iter().enumerate() {
        live.push(e.schedule(at, Event::Arrival { request }));
    }
    let mut next_op = 0;
    while let Some((now, _)) = e.pop() {
        delivered.push(e.current().expect("a pop names the popped event"));
        if next_op >= ops.len() {
            continue; // ops exhausted: drain the remainder untouched
        }
        let (kind, delay, pick) = ops[next_op];
        next_op += 1;
        match kind % 3 {
            // Two in three ops extend the cascade with a tagged child.
            0 | 1 => {
                let edge = WaitEdge::ALL[(pick % WaitEdge::ALL.len() as u64) as usize];
                let event = Event::Arrival { request: next_op };
                let at = now + delay;
                live.push(match parent {
                    Parent::Implicit => e.schedule_tagged(at, event, edge),
                    Parent::Current => e.schedule_with_parent(at, event, edge, e.current()),
                    Parent::Delivered => {
                        let named = delivered[(pick / 7) as usize % delivered.len()];
                        e.schedule_with_parent(at, event, edge, Some(named))
                    }
                });
            }
            // One in three cancels a previously issued timer (it may
            // already have fired or been cancelled — both are legal).
            _ => {
                if !live.is_empty() {
                    let id = live[pick as usize % live.len()];
                    e.cancel(id);
                }
            }
        }
    }
    e
}

#[test]
fn provenance_parent_precedes_child_in_time_seq_order() {
    run(
        "provenance_parent_precedes_child_in_time_seq_order",
        Config::cases(128),
        |g| {
            let roots: Vec<f64> = (0..g.range(1usize..6))
                .map(|_| g.range(0.0..50.0))
                .collect();
            let ops = g.vec(1..150, |g| {
                (g.range(0u64..3), g.range(0.0..50.0), g.range(0u64..1 << 30))
            });
            let e = simulate_cascade(&roots, &ops, Parent::Implicit);
            let prov = e.provenance();
            assert!(!prov.is_empty(), "cascade must record edges");
            for (i, edge) in prov.iter().enumerate() {
                assert_eq!(edge.seq, i as u64, "edges are indexed by seq");
                let Some(p) = edge.parent else { continue };
                let parent = &prov[p as usize];
                assert!(
                    parent.seq < edge.seq,
                    "parent {} must precede child {} in seq",
                    parent.seq,
                    edge.seq
                );
                assert!(
                    parent.at_s <= edge.at_s,
                    "parent fires at {} but child fires earlier at {}",
                    parent.at_s,
                    edge.at_s
                );
                assert!(parent.delivered, "a parent must have been popped");
            }
        },
    );
}

#[test]
fn provenance_cancelled_timers_are_never_parents() {
    run(
        "provenance_cancelled_timers_are_never_parents",
        Config::cases(128),
        |g| {
            let roots: Vec<f64> = (0..g.range(1usize..6))
                .map(|_| g.range(0.0..50.0))
                .collect();
            // Bias toward cancellation (kinds 2..6 all cancel under
            // `% 3` only for 2 and 5 — draw from 0..6 to get ~1/3).
            let ops = g.vec(1..150, |g| {
                (g.range(0u64..6), g.range(0.0..50.0), g.range(0u64..1 << 30))
            });
            let e = simulate_cascade(&roots, &ops, Parent::Implicit);
            let prov = e.provenance();
            for edge in prov {
                assert!(
                    !(edge.cancelled && edge.delivered),
                    "a cancelled timer must never fire"
                );
                if let Some(p) = edge.parent {
                    assert!(
                        !prov[p as usize].cancelled,
                        "cancelled timer {p} appears as a parent"
                    );
                }
            }
        },
    );
}

#[test]
fn provenance_same_seed_runs_record_identical_edge_lists() {
    run(
        "provenance_same_seed_runs_record_identical_edge_lists",
        Config::cases(64),
        |g| {
            let roots: Vec<f64> = (0..g.range(1usize..6))
                .map(|_| g.range(0.0..50.0))
                .collect();
            let ops = g.vec(1..150, |g| {
                (g.range(0u64..3), g.range(0.0..50.0), g.range(0u64..1 << 30))
            });
            let a = simulate_cascade(&roots, &ops, Parent::Implicit);
            let b = simulate_cascade(&roots, &ops, Parent::Implicit);
            assert_eq!(
                a.provenance().len(),
                b.provenance().len(),
                "edge counts diverged"
            );
            // Byte-identical: the Debug rendering covers every field,
            // including the f64 times formatted exactly.
            assert_eq!(
                format!("{:?}", a.provenance()),
                format!("{:?}", b.provenance()),
                "same schedule must record byte-identical provenance"
            );
        },
    );
}

/// Property 4 and 5 under explicit parents: whichever delivered event
/// a child names, the recorded parent was delivered before the child
/// was scheduled, precedes it in `(time, seq)`, and is never a
/// cancelled timer.
#[test]
fn explicit_parents_are_delivered_predecessors() {
    run(
        "explicit_parents_are_delivered_predecessors",
        Config::cases(128),
        |g| {
            let roots: Vec<f64> = (0..g.range(1usize..6))
                .map(|_| g.range(0.0..50.0))
                .collect();
            let ops = g.vec(1..150, |g| {
                (g.range(0u64..6), g.range(0.0..50.0), g.range(0u64..1 << 30))
            });
            let e = simulate_cascade(&roots, &ops, Parent::Delivered);
            let prov = e.provenance();
            for edge in prov {
                let Some(p) = edge.parent else { continue };
                let parent = &prov[p as usize];
                assert!(parent.delivered, "named parent {p} was never delivered");
                assert!(!parent.cancelled, "cancelled timer {p} was named");
                assert!(
                    parent.seq < edge.seq,
                    "parent {p} follows child {}",
                    edge.seq
                );
                assert!(
                    parent.at_s <= edge.at_s,
                    "parent fires at {} after its child at {}",
                    parent.at_s,
                    edge.at_s
                );
            }
        },
    );
}

/// Property 8: `schedule_with_parent(current())` is `schedule_tagged`.
#[test]
fn naming_the_current_event_matches_schedule_tagged() {
    run(
        "naming_the_current_event_matches_schedule_tagged",
        Config::cases(64),
        |g| {
            let roots: Vec<f64> = (0..g.range(1usize..6))
                .map(|_| g.range(0.0..50.0))
                .collect();
            let ops = g.vec(1..150, |g| {
                (g.range(0u64..3), g.range(0.0..50.0), g.range(0u64..1 << 30))
            });
            let implicit = simulate_cascade(&roots, &ops, Parent::Implicit);
            let explicit = simulate_cascade(&roots, &ops, Parent::Current);
            assert_eq!(
                format!("{:?}", implicit.provenance()),
                format!("{:?}", explicit.provenance()),
                "naming current() must record the implicit edges exactly"
            );
        },
    );
}

#[test]
#[should_panic(expected = "has not been delivered")]
fn naming_a_cancelled_timer_panics() {
    let mut e = SimEngine::new();
    e.record_provenance();
    let dead = e.schedule(1.0, Event::Arrival { request: 0 });
    e.schedule(2.0, Event::Arrival { request: 1 });
    assert!(e.cancel(dead));
    e.pop();
    e.schedule_with_parent(3.0, Event::BatchClose, WaitEdge::BatchClose, Some(dead));
}

#[test]
#[should_panic(expected = "has not been delivered")]
fn naming_a_pending_event_panics() {
    let mut e = SimEngine::new();
    e.record_provenance();
    e.schedule(1.0, Event::Arrival { request: 0 });
    let pending = e.schedule(5.0, Event::Arrival { request: 1 });
    e.pop();
    e.schedule_with_parent(6.0, Event::BatchClose, WaitEdge::BatchClose, Some(pending));
}
