//! The serving loop and its pluggable scheduling policies.
//!
//! `BENCH_serve.json` shows the paper's phase imbalance live in the
//! simulator: ~3% GPU occupancy with p50 latency pinned at the deadline
//! cap, because the CPU MSA phase starves the GPU. The causal profiler
//! measured the levers; this module pulls them. It holds the one
//! serving loop — [`crate::server::run_serve`] and
//! [`crate::chaos::run_serve_chaos`] are [`run_serve_policy`] under
//! plain FIFO — which keeps only the MSA side: a central queue ordered
//! by `(discipline key, request id)` and one running job per pool
//! worker. Cache, GPU batch close, recovery steps and the report fold
//! are the shared `ServeCore` in [`crate::chaos`]. The scheduling
//! decisions are factored into a [`PolicyConfig`]:
//!
//! - **queue discipline** — which queued MSA request a freed pool
//!   worker takes next: [`QueueDiscipline::Fifo`] (arrival order, the
//!   reference-equivalent baseline), [`QueueDiscipline::Sjf`]
//!   (estimator-predicted cost: shortest remaining priced MSA first),
//!   or [`QueueDiscipline::Edf`] (earliest absolute deadline first),
//! - **shape-bucketed GPU batching** — when the GPU frees, batch the
//!   dominant [`SampleId`] bucket of the ready set instead of the
//!   arrival-order prefix, so a batch's `xla_compile`/compute stream
//!   stays shape-uniform,
//! - **checkpoint-yield preemption** — when a predicted-short request
//!   arrives and every worker is busy, the job with the most remaining
//!   work parks at its last durable jackhmmer checkpoint (the
//!   `1/checkpoint_units` salvage grid of the run's
//!   [`RecoveryPolicy`](crate::chaos::RecoveryPolicy), shared with
//!   kills) and re-queues; only the non-durable tail is redone,
//! - **speculative admission** — a request that joins a backlog past a
//!   threshold steps down the `core::resilience`
//!   `DegradeStep::MsaDepthCap` rung (shallower, faster searches at
//!   lower quality), trading goodput for latency under overload.
//!
//! **Lazy dispatch, eager-equivalent FIFO.** A request waits in the
//! queue until a worker actually frees. For FIFO that is the schedule
//! of an eager least-loaded pool: the worker that frees first *is* the
//! least-loaded worker, and `start = max(worker_free, enqueued_at)`
//! reproduces the eager `max(workers[w], arrival)` bit for bit.
//! `tests/equivalence.rs` pins the fault-free FIFO run byte-identical
//! to the frozen seed scheduler in [`crate::reference`].
//!
//! **Miss coalescing.** With `coalesce_misses`, the first miss for an
//! entity is its producer and later misses wait on it as coalesced
//! cache hits. A waiter's feature load is scheduled when the
//! producer's `MsaDone` pops, landing at `done + load_s` — the time an
//! eager pool knows at arrival. A producer keeps its waiters across
//! kills and preemptions, is never shed while it has any, and fails
//! them if it fails terminally.
//!
//! **Degradation at admission.** One rule serves speculation and the
//! chaos recovery policy: the MsaDepthCap rung is decided when a
//! request enters the queue (a miss arrival or a requeue), against the
//! backlog it joins (queued + parked), at the factor and depth of the
//! run's [`RecoveryPolicy`](crate::chaos::RecoveryPolicy). Deciding it
//! at dispatch would consult the backlog left *behind* the request,
//! which in an overloaded run stays past the threshold until the queue
//! drains: the requests dispatched first — the early arrivals, the
//! only ones that can still finish on time at full quality — would run
//! degraded.
//!
//! **Causal shape.** A lazily dispatched `MsaDone` hangs off its
//! enqueue event (arrival, requeue or the preempting arrival) via
//! [`afsb_rt::sim::SimEngine::schedule_with_parent`], with the split
//! `wait = start − enqueued_at`. The provenance DAG then has the eager
//! shape the [`crate::whatif`] projections replay: adding workers
//! shrinks exactly that wait.
//!
//! The loop accepts a [`ChaosConfig`] under every policy: the full
//! fault vocabulary and recovery machinery apply, so the
//! request-conservation invariant ([`ChaosReport::conserves_requests`])
//! is testable across the whole matrix. A kill frees its worker for the
//! next queued request at once (the pool is work-conserving).

use crate::chaos::{ChaosConfig, ChaosReport, ServeCore};
use crate::scenario::SERVE_SEED;
use crate::server::{non_negative, CostTable, RequestOutcome, ServeConfig};
use crate::whatif::{predict_makespan, WhatIf};
use afsb_core::report::ascii_table;
use afsb_rt::fault::FaultKind;
use afsb_rt::obs::ObsSession;
use afsb_rt::sim::{Event, TimerId, WaitEdge};
use afsb_seq::samples::SampleId;
use afsb_simarch::Platform;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Which queued MSA request a freed pool worker takes next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueDiscipline {
    /// Arrival order — the reference-equivalent baseline.
    Fifo,
    /// Shortest predicted job first: the estimator's priced remaining
    /// MSA seconds (`(1 - durable) · msa_s`), so a preempted job's
    /// salvaged checkpoints shorten its key.
    Sjf,
    /// Earliest deadline first: absolute deadline `arrival + limit`
    /// (requests without a deadline sort last).
    Edf,
}

impl QueueDiscipline {
    /// Stable report label.
    pub fn as_str(self) -> &'static str {
        match self {
            QueueDiscipline::Fifo => "fifo",
            QueueDiscipline::Sjf => "sjf",
            QueueDiscipline::Edf => "edf",
        }
    }
}

/// One scheduling policy: a queue discipline plus the optional
/// load-adaptive mechanisms layered on it. The checkpoint grid and the
/// degraded rung's cost come from the run's
/// [`RecoveryPolicy`](crate::chaos::RecoveryPolicy).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyConfig {
    /// MSA queue discipline.
    pub queue: QueueDiscipline,
    /// Shape-bucketed GPU batching: each batch takes the dominant
    /// [`SampleId`] bucket of the ready set instead of the
    /// arrival-order prefix.
    pub shape_batching: bool,
    /// Checkpoint-yield preemption: an arriving short job may park the
    /// longest-remaining running MSA job at its last durable
    /// checkpoint.
    pub preempt: bool,
    /// Preempt only when the victim's remaining seconds exceed the
    /// arriving job's full MSA seconds by this factor (hysteresis so
    /// near-peers never thrash).
    pub preempt_min_ratio: f64,
    /// Per-request preemption budget (a job yields at most this many
    /// times, then runs to completion).
    pub max_preemptions: u32,
    /// Speculative admission: queue depth (queued + parked) at which a
    /// request entering the queue steps down the MSA-depth degradation
    /// rung. `0` disables speculation.
    pub speculate_queue_depth: usize,
}

impl PolicyConfig {
    /// The baseline: plain FIFO, what [`crate::server::run_serve`]
    /// runs.
    pub fn fifo() -> PolicyConfig {
        PolicyConfig {
            queue: QueueDiscipline::Fifo,
            shape_batching: false,
            preempt: false,
            preempt_min_ratio: 2.0,
            max_preemptions: 2,
            speculate_queue_depth: 0,
        }
    }

    /// Estimator-predicted-cost SJF on the MSA queue.
    pub fn sjf() -> PolicyConfig {
        PolicyConfig {
            queue: QueueDiscipline::Sjf,
            ..PolicyConfig::fifo()
        }
    }

    /// Deadline-driven EDF on the MSA queue.
    pub fn edf() -> PolicyConfig {
        PolicyConfig {
            queue: QueueDiscipline::Edf,
            ..PolicyConfig::fifo()
        }
    }

    /// FIFO with shape-bucketed continuous GPU batching.
    pub fn shape_batched() -> PolicyConfig {
        PolicyConfig {
            shape_batching: true,
            ..PolicyConfig::fifo()
        }
    }

    /// SJF plus checkpoint-yield preemption.
    pub fn sjf_preempt() -> PolicyConfig {
        PolicyConfig {
            queue: QueueDiscipline::Sjf,
            preempt: true,
            ..PolicyConfig::fifo()
        }
    }

    /// FIFO plus speculative admission at the given queue depth.
    pub fn speculative(depth: usize) -> PolicyConfig {
        PolicyConfig {
            speculate_queue_depth: depth,
            ..PolicyConfig::fifo()
        }
    }

    /// Everything on: SJF, preemption and speculation — the
    /// load-adaptive kitchen sink.
    pub fn adaptive(depth: usize) -> PolicyConfig {
        PolicyConfig {
            queue: QueueDiscipline::Sjf,
            preempt: true,
            speculate_queue_depth: depth,
            ..PolicyConfig::fifo()
        }
    }

    /// Whether this policy is the byte-identical baseline (no
    /// reordering, no bucketing, no preemption, no speculation). Gates
    /// the extra `serve.policy.*` metrics and render line so the FIFO
    /// row's output never drifts from [`crate::server::run_serve`].
    pub fn is_plain_fifo(&self) -> bool {
        self.queue == QueueDiscipline::Fifo
            && !self.shape_batching
            && !self.preempt
            && self.speculate_queue_depth == 0
    }

    /// Short stable name for tables and metric keys.
    pub fn label(&self) -> String {
        let mut parts = vec![self.queue.as_str().to_owned()];
        if self.shape_batching {
            parts.push("shape".to_owned());
        }
        if self.preempt {
            parts.push("preempt".to_owned());
        }
        if self.speculate_queue_depth > 0 {
            parts.push(format!("spec{}", self.speculate_queue_depth));
        }
        parts.join("+")
    }

    /// Check the numbers for degenerate values, returning an error that
    /// names the field: a NaN `preempt_min_ratio` fails every
    /// `remaining <= ratio · incoming` test, so every arrival would
    /// preempt.
    pub fn validate(&self) -> Result<(), String> {
        non_negative("policy: preempt_min_ratio", self.preempt_min_ratio)
    }
}

impl Default for PolicyConfig {
    fn default() -> PolicyConfig {
        PolicyConfig::fifo()
    }
}

/// Everything one policy run produced: the chaos-shaped report (which
/// wraps the base [`crate::server::ServeReport`] and the disposition accounting) plus
/// the policy layer's own counters.
#[derive(Debug, Clone)]
pub struct PolicyReport {
    /// The underlying report (base serve fold + dispositions).
    pub chaos: ChaosReport,
    /// The policy that produced it.
    pub policy: PolicyConfig,
    /// Checkpoint-yield preemptions performed.
    pub preemptions: u64,
    /// Simulated seconds of non-durable work redone because of
    /// preemption (spent minus checkpoint-salvaged).
    pub preempt_lost_s: f64,
}

impl PolicyReport {
    /// Exact latency of the request sitting at quantile `p` (the same
    /// rank statistic `percentile_outcome` uses — not the
    /// bucket-quantized histogram estimate, which pins cold p50 at the
    /// top bucket bound).
    pub fn exact_percentile_s(&self, p: f64) -> f64 {
        self.chaos
            .base
            .percentile_outcome(p)
            .map_or(f64::NAN, |o| o.latency_s())
    }

    /// Human-readable block: the chaos render plus a policy line when
    /// any non-baseline mechanism is armed (so the plain-FIFO render
    /// stays byte-identical to the fault-free server's).
    pub fn render(&self) -> String {
        let mut out = self.chaos.render();
        if !self.policy.is_plain_fifo() {
            let _ = writeln!(
                out,
                "  policy {}: {} preemptions ({:.0} s redone), {} degraded dispatches",
                self.policy.label(),
                self.preemptions,
                self.preempt_lost_s,
                self.chaos.degraded_attempts
            );
        }
        out
    }
}

/// One MSA job running on a pool worker (at most one per worker — the
/// rest of the backlog waits in the central queue).
#[derive(Debug, Clone, Copy)]
struct Running {
    request: usize,
    start_s: f64,
    done_s: f64,
    timer: TimerId,
}

/// `f64::total_cmp`'s order as an integer (the same bit transform), so
/// float queue keys sort in a `BTreeSet`.
pub(crate) fn total_order(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// The MSA side of one run over the shared [`ServeCore`]: the ordered
/// central queue, one running job per worker, and the coalescing
/// producer/waiter maps.
struct PolicyLoop<'a> {
    core: ServeCore<'a>,
    obs: &'a mut ObsSession,
    /// Backlog (queued + parked) at which an entering request degrades:
    /// speculation's threshold, else the armed recovery policy's, else
    /// 0 (off).
    deg_depth: usize,
    /// Queued requests keyed `(discipline key, request id)`.
    msa_queue: BTreeSet<(i64, usize)>,
    enqueued_at: Vec<f64>,
    /// The event that enqueued each request (its arrival, requeue or
    /// the preempting arrival): its `MsaDone`'s causal parent.
    enqueued_by: Vec<Option<TimerId>>,
    running: Vec<Option<Running>>,
    workers: Vec<f64>,
    /// Miss coalescing: entity → the request computing its features,
    /// and the requests waiting on that producer.
    producers: BTreeMap<usize, usize>,
    waiters: BTreeMap<usize, Vec<usize>>,
    preempt_count: Vec<u32>,
    preemptions: u64,
    preempt_lost_s: f64,
}

impl PolicyLoop<'_> {
    /// The discipline's queue key for `r` (lower is better; the request
    /// id breaks every tie). Fixed while `r` is queued.
    fn queue_key(&self, r: usize) -> (i64, usize) {
        let core = &self.core;
        let key = match core.pol.queue {
            QueueDiscipline::Fifo => self.enqueued_at[r],
            QueueDiscipline::Sjf => {
                (1.0 - core.durable[r]).max(0.0) * core.costs.shape(core.requests[r].sample).msa_s
            }
            QueueDiscipline::Edf => core
                .config
                .deadline
                .limit_seconds()
                .map_or(f64::INFINITY, |l| core.requests[r].arrival_s + l),
        };
        (total_order(key), r)
    }

    /// Queue `r`, enqueued at `now` by the event being handled.
    fn enqueue(&mut self, r: usize, now: f64) {
        self.enqueued_at[r] = now;
        self.enqueued_by[r] = self.core.engine.current();
        self.msa_queue.insert(self.queue_key(r));
    }

    /// A miss arrival or a requeue enters the queue. The one
    /// degradation rule: `r` steps down the MsaDepthCap rung when the
    /// backlog it joins (queued + parked) is at the threshold.
    fn admit(&mut self, r: usize, now: f64) {
        if self.deg_depth > 0
            && !self.core.degraded_req[r]
            && self.msa_queue.len() + self.core.parked.len() >= self.deg_depth
        {
            self.core.degrade(r, now, self.obs);
        }
        self.enqueue(r, now);
    }

    /// Dispatch the queue head onto the earliest-free idle worker
    /// (lowest index breaks ties) until one side runs out.
    fn dispatch_ready(&mut self) {
        while let Some(&(_, r)) = self.msa_queue.first() {
            let Some(w) = (0..self.workers.len())
                .filter(|&w| self.running[w].is_none())
                .min_by(|&a, &b| self.workers[a].total_cmp(&self.workers[b]).then(a.cmp(&b)))
            else {
                break;
            };
            self.msa_queue.pop_first();
            self.dispatch(w, r);
        }
    }

    /// Start `r`'s MSA attempt on worker `w`: the non-durable remainder
    /// of its search, at the degraded rung's cost if it was degraded.
    fn dispatch(&mut self, w: usize, r: usize) {
        let core = &mut self.core;
        let mut msa_s =
            (1.0 - core.durable[r]).max(0.0) * core.costs.shape(core.requests[r].sample).msa_s;
        if core.degraded_req[r] {
            msa_s *= core.chaos.policy.degrade_msa_factor;
        }
        let enqueued_at = self.enqueued_at[r];
        let start = self.workers[w].max(enqueued_at);
        let done = start + msa_s;
        self.workers[w] = done;
        // The edge hangs off the enqueue event, so it spans the queue
        // wait plus the service — the split the what-if replay scales.
        let timer = core.engine.schedule_with_parent(
            done,
            Event::MsaDone {
                request: r,
                worker: w,
            },
            WaitEdge::WorkerBusy,
            self.enqueued_by[r],
        );
        core.record_split(timer, start - enqueued_at, done - start);
        self.running[w] = Some(Running {
            request: r,
            start_s: start,
            done_s: done,
            timer,
        });
        let o = &mut core.outcomes[r];
        o.segments.msa_queue_wait_s += start - enqueued_at;
        o.segments.msa_service_s += done - start;
        o.ready_s = done;
    }

    /// Take worker `w`'s running job off the pool at `now` (a kill or a
    /// checkpoint yield): cancel its completion, drop its un-run tail
    /// from the attribution (a redispatch adds its own segments) and
    /// free the worker. Durable progress floors to the jackhmmer
    /// checkpoint grid, so a retry redoes only the non-durable tail.
    /// Returns the request and the seconds lost (spent minus salvaged).
    fn stop_running(&mut self, w: usize, now: f64) -> (usize, f64) {
        let j = self.running[w].take().expect("worker is running");
        let core = &mut self.core;
        core.engine.cancel(j.timer);
        let r = j.request;
        core.outcomes[r].segments.msa_service_s -= j.done_s - now;
        self.workers[w] = now;
        let span = j.done_s - j.start_s;
        let progress = if j.start_s >= now || span <= 0.0 {
            0.0
        } else {
            ((now - j.start_s) / span).clamp(0.0, 1.0)
        };
        let before = core.durable[r];
        let units = core.chaos.policy.checkpoint_units as f64;
        core.durable[r] = ((before + progress * (1.0 - before)) * units).floor() / units;
        let salvaged = (core.durable[r] - before) * core.costs.shape(core.requests[r].sample).msa_s;
        (r, ((now - j.start_s).max(0.0) - salvaged).max(0.0))
    }

    /// Checkpoint-yield: park the running job with the most remaining
    /// work if an arriving job of `incoming_msa_s` full seconds is
    /// enough shorter.
    fn maybe_preempt(&mut self, incoming_msa_s: f64, now: f64) {
        if self.running.iter().any(Option::is_none) {
            return;
        }
        let mut victim: Option<(f64, usize)> = None;
        for (w, j) in self.running.iter().enumerate() {
            if let Some(j) = j {
                let rem = j.done_s - now;
                if victim.is_none_or(|(best, _)| rem > best) {
                    victim = Some((rem, w));
                }
            }
        }
        let Some((rem, w)) = victim else {
            return;
        };
        let r = self.running[w].expect("victim worker is running").request;
        let pol = self.core.pol;
        if rem <= incoming_msa_s * pol.preempt_min_ratio
            || self.preempt_count[r] >= pol.max_preemptions
        {
            return;
        }
        // Identical salvage to a chaos kill, but voluntary.
        let (r, lost) = self.stop_running(w, now);
        self.preempt_lost_s += lost;
        self.preemptions += 1;
        self.preempt_count[r] += 1;
        self.enqueue(r, now);
        self.obs.tracer.instant_at(now, "preempt:checkpoint-yield");
    }

    /// Retire `r` as its entity's producer (when it is one), returning
    /// the requests coalesced onto it.
    fn release_waiters(&mut self, r: usize) -> Vec<usize> {
        let entity = self.core.requests[r].entity;
        if self.producers.get(&entity) != Some(&r) {
            return Vec::new();
        }
        self.producers.remove(&entity);
        self.waiters.remove(&entity).unwrap_or_default()
    }

    /// Deadline shedding: drop `r` if it is still waiting — queued,
    /// parked, in retry backoff, or coalesced onto a producer. A
    /// producer with waiters is never shed. Returns whether `r` was
    /// dropped.
    fn shed_waiting(&mut self, r: usize) -> bool {
        let entity = self.core.requests[r].entity;
        if let Some(waiting) = self.waiters.get_mut(&entity) {
            if self.producers.get(&entity) == Some(&r) {
                return false;
            }
            if let Some(pos) = waiting.iter().position(|&x| x == r) {
                waiting.remove(pos);
                if waiting.is_empty() {
                    self.waiters.remove(&entity);
                }
                return true;
            }
        }
        let key = self.queue_key(r);
        let core = &mut self.core;
        let dropped = if self.msa_queue.remove(&key) {
            true
        } else if let Some(pos) = core.parked.iter().position(|&x| x == r) {
            core.parked.remove(pos);
            true
        } else if let Some(timer) = core.requeue_timers[r].take() {
            core.engine.cancel(timer);
            true
        } else {
            false
        };
        if dropped {
            self.release_waiters(r);
        }
        dropped
    }
}

/// Pick and remove a GPU batch from the `(ready_s, id)`-ordered pool:
/// the prefix ready by `start` (the reference rule, at least one
/// request), or with `shape_batching` the dominant shape bucket of
/// everything ready by `start`.
fn pick_batch(
    pool: &mut BTreeSet<(i64, usize)>,
    outcomes: &[RequestOutcome],
    start: f64,
    gpu_batch: usize,
    shape_batching: bool,
) -> Vec<usize> {
    let ready = |&&(key, i): &&(i64, usize)| {
        debug_assert_eq!(
            key,
            total_order(outcomes[i].ready_s),
            "a pooled request's ready_s changed"
        );
        outcomes[i].ready_s <= start
    };
    if !shape_batching {
        let take = pool.iter().take(gpu_batch).take_while(ready).count().max(1);
        return std::iter::from_fn(|| pool.pop_first())
            .take(take)
            .map(|(_, i)| i)
            .collect();
    }
    let eligible = pool.iter().take_while(ready).count().max(1);
    // Dominant shape of the whole eligible window (not just the first
    // B): max count, earliest first appearance breaking ties.
    let mut counts: Vec<(SampleId, usize)> = Vec::new();
    for &(_, i) in pool.iter().take(eligible) {
        let s = outcomes[i].request.sample;
        match counts.iter_mut().find(|(cs, _)| *cs == s) {
            Some((_, c)) => *c += 1,
            None => counts.push((s, 1)),
        }
    }
    let mut dom = counts[0].0;
    let mut dom_count = counts[0].1;
    for &(s, c) in &counts[1..] {
        if c > dom_count {
            dom = s;
            dom_count = c;
        }
    }
    let taken: Vec<(i64, usize)> = pool
        .iter()
        .take(eligible)
        .filter(|&&(_, i)| outcomes[i].request.sample == dom)
        .take(gpu_batch)
        .copied()
        .collect();
    for key in &taken {
        pool.remove(key);
    }
    taken.into_iter().map(|(_, i)| i).collect()
}

/// Run the serving simulation under a scheduling policy, optionally
/// with a fault plan — the one serving loop. [`crate::server::run_serve`]
/// is this call under `PolicyConfig::fifo()` and an empty plan, and
/// [`crate::chaos::run_serve_chaos`] under `PolicyConfig::fifo()`.
///
/// # Panics
///
/// Panics with the validation error of a degenerate config, cost
/// table, recovery policy or policy.
pub fn run_serve_policy(
    config: &ServeConfig,
    pol: &PolicyConfig,
    chaos: &ChaosConfig,
    costs: &CostTable,
    obs: &mut ObsSession,
) -> PolicyReport {
    let core = ServeCore::new(config, pol, chaos, costs, obs);
    let n = core.requests.len();
    let deg_depth = if pol.speculate_queue_depth > 0 {
        pol.speculate_queue_depth
    } else if core.active {
        chaos.policy.degrade_queue_depth
    } else {
        0
    };
    let mut lp = PolicyLoop {
        core,
        obs,
        deg_depth,
        msa_queue: BTreeSet::new(),
        enqueued_at: vec![0.0; n],
        enqueued_by: vec![None; n],
        running: vec![None; config.cpu_workers],
        workers: vec![0.0; config.cpu_workers],
        producers: BTreeMap::new(),
        waiters: BTreeMap::new(),
        preempt_count: vec![0; n],
        preemptions: 0,
        preempt_lost_s: 0.0,
    };

    while let Some((now, event)) = lp.core.next_event() {
        match event {
            Event::Arrival { request } => lp.on_arrival(request, now),
            // A pool worker finished: the features enter the cache, the
            // loads of any coalesced waiters start, the request becomes
            // GPU-ready and the worker takes the queue head.
            Event::MsaDone { request, worker } => {
                debug_assert!(lp.running[worker].is_some_and(|j| j.request == request));
                lp.running[worker] = None;
                lp.core.commit_fill(request);
                for waiter in lp.release_waiters(request) {
                    let load_s = costs.shape(lp.core.requests[waiter].sample).feature_load_s;
                    lp.core.start_fill(waiter, now + load_s, load_s);
                }
                lp.core.mark_ready(request, now);
                lp.dispatch_ready();
            }
            Event::CacheFill { request, .. } => lp.core.fill_landed(request, now),
            Event::BatchClose => {
                let shape_batching = pol.shape_batching;
                lp.core
                    .close_batch(now, lp.obs, |pool, outcomes, start, cap| {
                        pick_batch(pool, outcomes, start, cap, shape_batching)
                    });
            }
            Event::GpuDone { .. } => lp.core.gpu_done(now),
            Event::DeadlineExpired { request } => {
                if lp.core.may_shed(request) && lp.shed_waiting(request) {
                    lp.core.shed(request, now, lp.obs);
                }
                lp.core.outcomes[request].deadline_missed = true;
            }
            Event::Fault(kind) => lp.on_fault(kind, now),
            Event::Requeue { request } => {
                if lp.core.requeue(request, now, lp.obs) {
                    lp.admit(request, now);
                    lp.dispatch_ready();
                }
            }
            Event::BreakerClose => lp.core.close_breaker(now, lp.obs),
        }
        let queued = || lp.msa_queue.len() + lp.running.iter().flatten().count();
        lp.core.sample(now, queued, &lp.workers);
    }

    // The shared fold, plus the policy layer's own metrics when a
    // non-baseline mechanism is armed.
    let report = lp.core.fold(lp.obs);
    if !pol.is_plain_fifo() {
        let m = &mut lp.obs.metrics;
        m.inc("serve.policy.preemptions", lp.preemptions);
        m.inc("serve.policy.degraded_attempts", report.degraded_attempts);
        m.set_gauge("serve.policy.preempt_lost_s", lp.preempt_lost_s);
    }
    PolicyReport {
        chaos: report,
        policy: *pol,
        preemptions: lp.preemptions,
        preempt_lost_s: lp.preempt_lost_s,
    }
}

impl PolicyLoop<'_> {
    fn on_arrival(&mut self, request: usize, now: f64) {
        let req = self.core.requests[request];
        let shape = *self.core.costs.shape(req.sample);
        if !shape.admitted {
            self.core.push_pending(request, true);
        } else if self.producers.contains_key(&req.entity) {
            // Coalesce onto the in-flight search instead of duplicating
            // it: a hit whose load starts when the producer finishes.
            self.core.cache.coalesced_hit();
            self.core.push_pending(request, false);
            self.core.outcomes[request].cache_hit = true;
            self.waiters.entry(req.entity).or_default().push(request);
        } else if self.core.cache.lookup(req.entity) {
            self.core.admit_hit(request, shape.feature_load_s);
        } else {
            // Miss: enqueue, optionally yield a long-running job, then
            // let the dispatcher fill free workers. For plain FIFO with a
            // free worker this schedules the MsaDone timer at exactly the
            // point an eager pool would, so event seq numbers (and thus
            // same-timestamp ordering) are preserved.
            self.core.push_pending(request, false);
            if self.core.config.coalesce_misses {
                self.producers.insert(req.entity, request);
            }
            self.admit(request, now);
            if self.core.pol.preempt {
                self.maybe_preempt(shape.msa_s, now);
            }
            self.dispatch_ready();
        }
        self.core.finish_arrival(request, shape.admitted);
    }

    fn on_fault(&mut self, kind: FaultKind, now: f64) {
        let Some(fired) = self.core.fire(kind, now, self.obs) else {
            return;
        };
        match fired {
            FaultKind::OomKill { at_fraction } | FaultKind::WorkerCrash { at_fraction } => {
                let busy: Vec<usize> = (0..self.workers.len())
                    .filter(|&w| self.running[w].is_some())
                    .collect();
                if busy.is_empty() {
                    return;
                }
                let frac = at_fraction.clamp(0.0, 1.0);
                let w = busy[((frac * busy.len() as f64) as usize).min(busy.len() - 1)];
                // Work-conserving: the slot frees at once and the queue
                // head takes it. A terminal failure fails the waiters
                // coalesced onto the killed request too.
                let (r, lost) = self.stop_running(w, now);
                self.core.injector.charge(lost);
                if self.core.retry_or_fail(r, now, self.obs) {
                    for waiter in self.release_waiters(r) {
                        self.core.fail(waiter, now, self.obs);
                    }
                }
                self.dispatch_ready();
            }
            FaultKind::Straggler { factor } => {
                if let Some(w) = self.running.iter().position(Option::is_some) {
                    let old_done = self.running[w].expect("worker is running").done_s;
                    let new_done = now + (old_done - now) * factor.max(1.0);
                    self.retime_running(w, new_done);
                    self.core.injector.charge(new_done - old_done);
                }
            }
            FaultKind::StorageReadError => self.core.storage_read_error(fired),
            FaultKind::StorageStall { stall_seconds } => {
                let mut lost = self.core.delay_fills(Some(stall_seconds));
                // The device stall also reaches the database scans of
                // every running MSA job.
                for w in 0..self.workers.len() {
                    if let Some(j) = self.running[w] {
                        self.retime_running(w, j.done_s + stall_seconds);
                        lost += stall_seconds;
                    }
                }
                self.core.settle_stall(fired, lost);
            }
            FaultKind::GpuInitFailure | FaultKind::XlaCompileStall { .. } => {
                self.core.gpu_fault(fired)
            }
        }
    }

    /// Extend worker `w`'s running job to `new_done` (straggler or
    /// storage-stall inflation), preserving its start.
    fn retime_running(&mut self, w: usize, new_done: f64) {
        let j = self.running[w].expect("worker is running");
        let core = &mut self.core;
        core.engine.cancel(j.timer);
        let r = j.request;
        core.outcomes[r].segments.msa_service_s += new_done - j.done_s;
        let timer = core.engine.schedule_tagged(
            new_done,
            Event::MsaDone {
                request: r,
                worker: w,
            },
            WaitEdge::WorkerBusy,
        );
        self.running[w] = Some(Running {
            done_s: new_done,
            timer,
            ..j
        });
        self.workers[w] = new_done;
        core.outcomes[r].ready_s = new_done;
    }
}

/// Backlog depth at which the canonical speculation rows degrade a
/// request entering the MSA queue. The cold scenario's backlog crosses
/// this within the first hour, so nearly every later arrival runs
/// depth-capped — which is what makes the measured makespan comparable
/// to the `whatif` full-fleet MSA-speedup projection.
pub const SPECULATE_DEPTH: usize = 16;

/// A named policy-matrix row.
#[derive(Debug, Clone, Copy)]
pub struct PolicyScenario {
    /// Short stable name.
    pub name: &'static str,
    /// The serving configuration (the canonical `cold` scenario).
    pub config: ServeConfig,
    /// The scheduling policy.
    pub policy: PolicyConfig,
}

/// One executed policy run with its observability session.
pub struct PolicyRun {
    /// The row name.
    pub name: &'static str,
    /// The policy report.
    pub report: PolicyReport,
    /// Trace + metrics captured during the run.
    pub obs: ObsSession,
}

/// Validation of the winning policy against the causal profiler's
/// virtual-speedup projection.
#[derive(Debug, Clone)]
pub struct PolicyWhatIf {
    /// The winning (dominating, speculation-armed) row.
    pub winner: &'static str,
    /// The matching virtual MSA speedup (`1 / degrade_msa_factor` of
    /// the run's [`RecoveryPolicy`](crate::chaos::RecoveryPolicy)).
    pub speedup: f64,
    /// Makespan [`predict_makespan`] projects for that speedup from the
    /// FIFO run's causal log.
    pub predicted_makespan_s: f64,
    /// Projected makespan reduction vs FIFO, percent.
    pub predicted_delta_pct: f64,
    /// The winner's measured makespan.
    pub measured_makespan_s: f64,
    /// Measured makespan reduction vs FIFO, percent.
    pub measured_delta_pct: f64,
    /// |predicted − measured| in percentage points — the CI gate allows
    /// at most [`POLICY_WHATIF_TOLERANCE_PP`].
    pub error_pp: f64,
}

/// Maximum percentage-point gap between the winner's measured makespan
/// delta and the matching what-if projection.
pub const POLICY_WHATIF_TOLERANCE_PP: f64 = 10.0;

/// The whole `serve-policy` result: every row plus the what-if
/// validation of the winner.
pub struct PolicyMatrixReport {
    /// One run per policy, FIFO first.
    pub runs: Vec<PolicyRun>,
    /// What-if validation (`None` only if no speculation row dominates
    /// FIFO — the CI gate fails in that case).
    pub whatif: Option<PolicyWhatIf>,
}

impl PolicyMatrixReport {
    /// The FIFO baseline row.
    pub fn fifo(&self) -> &PolicyRun {
        self.runs
            .iter()
            .find(|r| r.report.policy.is_plain_fifo())
            .expect("the matrix always includes the fifo baseline")
    }

    /// Rows that strictly dominate FIFO on *both* queries/hour and
    /// exact p99 latency — the CI gate requires at least one.
    pub fn dominating(&self) -> Vec<&PolicyRun> {
        let fifo = self.fifo();
        let fifo_qph = fifo.report.chaos.base.throughput_qph;
        let fifo_p99 = fifo.report.exact_percentile_s(0.99);
        self.runs
            .iter()
            .filter(|r| {
                !r.report.policy.is_plain_fifo()
                    && r.report.chaos.base.throughput_qph > fifo_qph
                    && r.report.exact_percentile_s(0.99) < fifo_p99
            })
            .collect()
    }
}

/// The canonical policy matrix over the `cold` scenario: the baseline
/// plus each mechanism in isolation, then the combinations.
pub fn policy_scenarios(quick: bool) -> Vec<PolicyScenario> {
    let config = crate::scenario::default_scenarios(quick)
        .into_iter()
        .find(|s| s.name == "cold")
        .expect("cold scenario exists")
        .config;
    vec![
        PolicyScenario {
            name: "fifo",
            config,
            policy: PolicyConfig::fifo(),
        },
        PolicyScenario {
            name: "sjf",
            config,
            policy: PolicyConfig::sjf(),
        },
        PolicyScenario {
            name: "edf",
            config,
            policy: PolicyConfig::edf(),
        },
        PolicyScenario {
            name: "shape-batch",
            config,
            policy: PolicyConfig::shape_batched(),
        },
        PolicyScenario {
            name: "sjf-preempt",
            config,
            policy: PolicyConfig::sjf_preempt(),
        },
        PolicyScenario {
            name: "speculate",
            config,
            policy: PolicyConfig::speculative(SPECULATE_DEPTH),
        },
        PolicyScenario {
            name: "adaptive",
            config,
            policy: PolicyConfig::adaptive(SPECULATE_DEPTH),
        },
    ]
}

/// Price the cost table once, run the whole matrix fault-free, and
/// validate the winner against the causal profiler's projection. The
/// FIFO row runs with provenance on (observation-only) so its causal
/// log can drive [`predict_makespan`].
pub fn run_policy_matrix(quick: bool) -> PolicyMatrixReport {
    let costs = CostTable::build(Platform::Server, quick, 4, SERVE_SEED);
    let chaos = ChaosConfig::none();
    let runs: Vec<PolicyRun> = policy_scenarios(quick)
        .into_iter()
        .map(|s| {
            let mut config = s.config;
            config.provenance = s.policy.is_plain_fifo();
            let mut obs = ObsSession::new();
            let report = run_serve_policy(&config, &s.policy, &chaos, &costs, &mut obs);
            PolicyRun {
                name: s.name,
                report,
                obs,
            }
        })
        .collect();

    let mut matrix = PolicyMatrixReport { runs, whatif: None };
    let fifo_makespan = matrix.fifo().report.chaos.base.makespan_s;
    let causal = matrix
        .fifo()
        .report
        .chaos
        .base
        .causal
        .clone()
        .expect("fifo row runs with provenance");
    let fifo_config = matrix.fifo().report.chaos.base.config;
    // The winner is the best dominating speculation row: speculation is
    // the one mechanism with a matching virtual speedup (depth-capped
    // MSA ⇒ every search `1/factor`× faster), so its measured delta is
    // directly comparable to the what-if projection.
    let winner = matrix
        .dominating()
        .into_iter()
        .filter(|r| r.report.policy.speculate_queue_depth > 0)
        .max_by(|a, b| {
            a.report
                .chaos
                .base
                .throughput_qph
                .total_cmp(&b.report.chaos.base.throughput_qph)
        })
        .map(|r| (r.name, r.report.chaos.base.makespan_s));
    if let Some((name, measured_makespan_s)) = winner {
        let speedup = 1.0 / chaos.policy.degrade_msa_factor;
        let predicted_makespan_s =
            predict_makespan(&causal, &fifo_config, WhatIf::ScaleMsa(speedup));
        let predicted_delta_pct = (fifo_makespan - predicted_makespan_s) / fifo_makespan * 100.0;
        let measured_delta_pct = (fifo_makespan - measured_makespan_s) / fifo_makespan * 100.0;
        matrix.whatif = Some(PolicyWhatIf {
            winner: name,
            speedup,
            predicted_makespan_s,
            predicted_delta_pct,
            measured_makespan_s,
            measured_delta_pct,
            error_pp: (predicted_delta_pct - measured_delta_pct).abs(),
        });
    }
    matrix
}

/// Cross-policy comparison table, the dominance verdict, the what-if
/// validation and the per-run blocks.
pub fn render_policy_matrix(matrix: &PolicyMatrixReport) -> String {
    let headers = [
        "policy",
        "queries/h",
        "p50 s",
        "p99 s",
        "gpu occ",
        "goodput",
        "compl",
        "degr",
        "preempt",
    ];
    let rows: Vec<Vec<String>> = matrix
        .runs
        .iter()
        .map(|run| {
            let r = &run.report;
            vec![
                run.name.to_string(),
                format!("{:.2}", r.chaos.base.throughput_qph),
                format!("{:.0}", r.exact_percentile_s(0.50)),
                format!("{:.0}", r.exact_percentile_s(0.99)),
                format!("{:.1}%", r.chaos.base.gpu_occupancy * 100.0),
                format!("{:.1}%", r.chaos.goodput * 100.0),
                format!("{}", r.chaos.completed),
                format!("{}", r.chaos.degraded),
                format!("{}", r.preemptions),
            ]
        })
        .collect();
    let mut out = String::new();
    let w = &matrix.fifo().report.chaos.base.config;
    let _ = writeln!(
        out,
        "policy matrix over the cold scenario ({} requests, {} workers, batch {}); p50/p99 are exact rank statistics:",
        w.workload.num_requests, w.cpu_workers, w.gpu_batch
    );
    out.push_str(&ascii_table(&headers, &rows));
    out.push('\n');
    let dominating = matrix.dominating();
    if dominating.is_empty() {
        let _ = writeln!(
            out,
            "dominance: no policy strictly beats fifo on both queries/hour and p99"
        );
    } else {
        let names: Vec<&str> = dominating.iter().map(|r| r.name).collect();
        let fifo = matrix.fifo();
        let fifo_qph = fifo.report.chaos.base.throughput_qph;
        let fifo_p99 = fifo.report.exact_percentile_s(0.99);
        let best = dominating
            .iter()
            .max_by(|a, b| {
                a.report
                    .chaos
                    .base
                    .throughput_qph
                    .total_cmp(&b.report.chaos.base.throughput_qph)
            })
            .expect("dominating set is non-empty");
        let _ = writeln!(
            out,
            "dominance: {} beat fifo on both axes; best is {} ({:+.1}% qph, {:+.1}% p99)",
            names.join(", "),
            best.name,
            (best.report.chaos.base.throughput_qph / fifo_qph - 1.0) * 100.0,
            (best.report.exact_percentile_s(0.99) / fifo_p99 - 1.0) * 100.0
        );
    }
    match &matrix.whatif {
        Some(v) => {
            let _ = writeln!(
                out,
                "whatif check: msa {:.2}x (the degraded rung's speedup) predicts {:.1}% makespan reduction; {} measured {:.1}% (error {:.1} pp, tolerance {:.0} pp)",
                v.speedup,
                v.predicted_delta_pct,
                v.winner,
                v.measured_delta_pct,
                v.error_pp,
                POLICY_WHATIF_TOLERANCE_PP
            );
        }
        None => {
            let _ = writeln!(out, "whatif check: n/a (no speculation row dominates fifo)");
        }
    }
    for run in &matrix.runs {
        out.push('\n');
        let _ = writeln!(out, "[{}]", run.name);
        out.push_str(&run.report.render());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::default_scenarios;

    fn cold_config(quick: bool) -> ServeConfig {
        default_scenarios(quick)
            .into_iter()
            .find(|s| s.name == "cold")
            .expect("cold scenario exists")
            .config
    }

    fn costs() -> &'static CostTable {
        static COSTS: std::sync::OnceLock<CostTable> = std::sync::OnceLock::new();
        COSTS.get_or_init(|| CostTable::build(Platform::Server, true, 4, SERVE_SEED))
    }

    fn run(pol: &PolicyConfig) -> PolicyReport {
        let config = cold_config(true);
        let mut obs = ObsSession::new();
        run_serve_policy(&config, pol, &ChaosConfig::none(), costs(), &mut obs)
    }

    #[test]
    fn preemption_fires_and_is_bounded() {
        let r = run(&PolicyConfig::sjf_preempt());
        assert!(r.preemptions > 0, "the cold backlog must trigger yields");
        assert!(
            r.preemptions <= r.chaos.admitted as u64 * 2,
            "per-request preemption budget holds"
        );
        assert!(r.preempt_lost_s >= 0.0);
        assert!(r.chaos.conserves_requests());
    }

    #[test]
    fn speculation_degrades_under_backlog() {
        let r = run(&PolicyConfig::speculative(SPECULATE_DEPTH));
        assert!(
            r.chaos.degraded > 0,
            "the cold queue crosses depth {SPECULATE_DEPTH} almost immediately"
        );
        assert!(r.chaos.degraded_attempts >= r.chaos.degraded as u64);
        assert!(r.chaos.conserves_requests());
        let fifo = run(&PolicyConfig::fifo());
        assert!(
            r.chaos.base.makespan_s < fifo.chaos.base.makespan_s,
            "depth-capped searches must shorten the makespan"
        );
    }

    #[test]
    fn sjf_reorders_but_conserves_work() {
        let sjf = run(&PolicyConfig::sjf());
        let fifo = run(&PolicyConfig::fifo());
        assert!(sjf.chaos.conserves_requests());
        assert_eq!(sjf.chaos.admitted, fifo.chaos.admitted);
        assert_eq!(
            sjf.chaos.completed + sjf.chaos.degraded,
            fifo.chaos.completed + fifo.chaos.degraded,
            "reordering must not lose or invent completions"
        );
    }

    #[test]
    fn policy_validate_names_preempt_min_ratio() {
        for pol in policy_scenarios(true).iter().map(|s| s.policy) {
            assert_eq!(pol.validate(), Ok(()), "{}", pol.label());
        }
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            let pol = PolicyConfig {
                preempt_min_ratio: bad,
                ..PolicyConfig::sjf_preempt()
            };
            let err = pol.validate().expect_err("bad ratio");
            assert!(err.contains("preempt_min_ratio"), "{bad}: {err}");
        }
    }

    #[test]
    #[should_panic(expected = "preempt_min_ratio")]
    fn nan_preempt_ratio_panics_instead_of_preempting_every_arrival() {
        run(&PolicyConfig {
            preempt_min_ratio: f64::NAN,
            ..PolicyConfig::sjf_preempt()
        });
    }

    #[test]
    fn policy_labels_are_stable() {
        assert_eq!(PolicyConfig::fifo().label(), "fifo");
        assert_eq!(PolicyConfig::sjf_preempt().label(), "sjf+preempt");
        assert_eq!(PolicyConfig::speculative(16).label(), "fifo+spec16");
        assert_eq!(PolicyConfig::adaptive(16).label(), "sjf+preempt+spec16");
        assert!(PolicyConfig::fifo().is_plain_fifo());
        assert!(!PolicyConfig::shape_batched().is_plain_fifo());
    }
}
