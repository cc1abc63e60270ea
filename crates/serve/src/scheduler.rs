//! The phase-decoupled serving scheduler: the one event loop every
//! serving run drives.
//!
//! ParaFold's architecture on our cost model: the CPU-side MSA phase
//! and the GPU-side inference phase run as separate queues so neither
//! resource idles waiting for the other.
//!
//! - **CPU pool** — `cpu_workers` workers drain a central MSA queue
//!   ordered by `(discipline key, request id)` (the earliest-free idle
//!   worker takes the head, lowest index breaks ties). A cache hit skips
//!   the pool entirely and charges only the storage-priced feature load.
//! - **GPU queue** — requests whose features are ready queue for the
//!   GPU, which greedily takes up to `gpu_batch` ready requests per
//!   dispatch. The first batch pays the cold runtime init (driver,
//!   imports, weights load — Fig. 8's dominant slice); each *shape*
//!   (benchmark sample) pays `xla_compile` once, on its first
//!   appearance; each batch pays one warm dispatch setup; each request
//!   pays its kernel-execution seconds. That is exactly the
//!   amortization Fig. 8 and the persistent-session ablation price for
//!   a single query, applied across a stream.
//! - **Admission & deadlines** — the §VI estimator verdict rejects
//!   shapes whose paper-scale MSA peak cannot fit the platform (the
//!   `admitted` flag of each [`crate::server::ShapeCost`]), and every
//!   served request is checked against a per-request
//!   [`afsb_core::resilience::Deadline`].
//!
//! [`run_serve_policy`] is the loop: [`crate::server::run_serve`] is it
//! under plain FIFO and an empty fault plan, and
//! [`crate::chaos::run_serve_chaos`] under plain FIFO. It runs on the
//! shared discrete-event engine ([`afsb_rt::sim`]): one
//! `(time, seq)`-ordered queue carries arrivals, MSA completions, cache
//! fills, GPU batch closes, deadline timers, faults and requeues,
//! costing O(events · log n) instead of a per-step rescan. Same seed,
//! same config, byte-identical report — and bit-identical to the frozen
//! seed scheduler kept in [`crate::reference`] (enforced by
//! `tests/equivalence.rs`). A run's whole state is one private
//! `Scheduler`; the policy and the fault plan are configuration it reads.
//!
//! **Lazy dispatch, eager-equivalent FIFO.** A request waits in the
//! queue until a worker actually frees. For FIFO that is the schedule
//! of an eager least-loaded pool: the worker that frees first *is* the
//! least-loaded worker, and `start = max(worker_free, enqueued_at)`
//! reproduces the eager `max(workers[w], arrival)` bit for bit.
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
//! **Faults.** The loop accepts a fault plan under every policy: the
//! full fault vocabulary and recovery machinery apply, so the
//! request-conservation invariant
//! ([`ChaosReport::conserves_requests`]) is testable across the whole
//! policy matrix. A kill frees its worker for the next queued request
//! at once (the pool is work-conserving). Pended side effects (a
//! storage fault with nothing in flight, a compile stall awaiting the
//! next new shape) are charged to the most recently fired fault when
//! they finally apply. With an empty plan that state stays empty, and
//! the loop makes no extra engine or tracer call.

use crate::cache::FeatureCache;
use crate::chaos::{ChaosConfig, ChaosReport, Disposition};
use crate::policy::{PolicyConfig, PolicyReport, QueueDiscipline};
use crate::server::{
    CausalLog, CostTable, PhaseSegments, RequestOutcome, SegmentSplit, ServeConfig, ServeReport,
    LATENCY_BOUNDS, TIMELINE_COLUMNS,
};
use crate::workload::{self, Request};
use afsb_core::resilience::{CircuitBreaker, DegradeStep};
use afsb_rt::fault::{FaultInjector, FaultKind};
use afsb_rt::obs::timeline::{SloMonitor, TimelineSampler};
use afsb_rt::obs::{Histogram, ObsSession};
use afsb_rt::rng::mix;
use afsb_rt::sim::{Event, SimEngine, TimerId, WaitEdge};
use afsb_seq::samples::SampleId;
use std::collections::{BTreeMap, BTreeSet};

/// Salt for the per-request retry-backoff jitter stream.
const BACKOFF_SALT: u64 = 0xC4A05;

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
fn total_order(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// The state of one serving run: event queue, MSA queue and pool,
/// feature cache, GPU queue, per-request outcome and recovery state,
/// and the observation-only records.
struct Scheduler<'a> {
    config: &'a ServeConfig,
    pol: &'a PolicyConfig,
    chaos: &'a ChaosConfig,
    costs: &'a CostTable,
    obs: &'a mut ObsSession,
    requests: Vec<Request>,
    engine: SimEngine,
    cache: FeatureCache,
    /// Whether a fault plan is armed. It gates shedding, the recovery
    /// policy's degradation threshold and the chaos metrics, which keeps
    /// the empty-plan run bit-identical to the frozen seed scheduler.
    /// State that only a fired fault fills needs no gate.
    active: bool,
    injector: FaultInjector,
    /// In-flight feature loads: request → its scheduled `CacheFill`.
    fills: BTreeMap<usize, TimerId>,
    pending_storage: Vec<FaultKind>,

    // MSA side.
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

    // GPU side.
    /// GPU-ready requests keyed `(total_order(ready_s), request)`. A
    /// pooled request's `ready_s` never changes, so the set stays in
    /// `(ready_s, id)` order without re-sorting.
    pool: BTreeSet<(i64, usize)>,
    gpu_free: f64,
    gpu_busy: f64,
    batches: usize,
    compiled: BTreeSet<SampleId>,
    inited: bool,
    gpu_penalty_s: f64,
    pending_compile_factor: Option<f64>,

    // Outcome + recovery state.
    outcomes: Vec<RequestOutcome>,
    disposition: Vec<Option<Disposition>>,
    degraded_req: Vec<bool>,
    durable: Vec<f64>,
    attempts: Vec<u32>,
    deadline_timers: Vec<Option<TimerId>>,
    requeue_timers: Vec<Option<TimerId>>,
    /// Start of each request's current admission wait (set at a kill or
    /// breaker park, consumed by the next requeue dispatch).
    wait_since: Vec<f64>,
    parked: Vec<usize>,
    breaker: CircuitBreaker,
    breaker_open: bool,
    requeues: u64,
    breaker_opens: u64,
    degraded_attempts: u64,

    // Observation-only: gauge rows, SLO observations and causal
    // annotations never feed back into scheduling or priced floats.
    timeline: Option<TimelineSampler>,
    slo_obs: Vec<(f64, bool)>,
    splits: BTreeMap<u64, SegmentSplit>,
    completions: Vec<Option<u64>>,
    best_done: Option<(f64, u64)>,
}

impl<'a> Scheduler<'a> {
    /// Validate every input, generate the stream, prewarm the cache,
    /// open the `serve` span and queue the plan's faults ahead of the
    /// first arrival (so a fault at an arrival's timestamp is delivered
    /// first).
    ///
    /// # Panics
    ///
    /// Panics with the first error of [`ServeConfig::validate`],
    /// [`CostTable::validate`],
    /// [`RecoveryPolicy::validate`](crate::chaos::RecoveryPolicy::validate),
    /// [`FaultPlan::validate`](afsb_rt::fault::FaultPlan::validate) or
    /// [`PolicyConfig::validate`].
    fn new(
        config: &'a ServeConfig,
        pol: &'a PolicyConfig,
        chaos: &'a ChaosConfig,
        costs: &'a CostTable,
        obs: &'a mut ObsSession,
    ) -> Scheduler<'a> {
        let valid = config
            .validate()
            .and_then(|()| costs.validate())
            .and_then(|()| chaos.policy.validate())
            .and_then(|()| chaos.plan.validate())
            .and_then(|()| pol.validate());
        if let Err(e) = valid {
            panic!("{e}");
        }
        let requests = workload::generate(&config.workload);
        let n = requests.len();
        let mut cache = FeatureCache::new(config.cache_capacity_bytes);
        if config.prewarm_cache {
            for entity in 0..config.workload.catalog_size {
                let shape = costs.shape(workload::sample_for_entity(entity));
                cache.insert(entity, shape.feature_bytes);
            }
        }
        obs.tracer.begin("serve");
        let mut engine = SimEngine::new();
        if config.provenance {
            engine.record_provenance();
        }
        let timeline = (config.telemetry.timeline_interval_s > 0.0).then(|| {
            let mut tl =
                TimelineSampler::new(config.telemetry.timeline_interval_s, &TIMELINE_COLUMNS);
            tl.set_many(&[0.0, 0.0, 0.0, cache.len() as f64, 0.0, 0.0, 0.0]);
            tl
        });
        for f in chaos.plan.faults() {
            engine.schedule(f.not_before_s, Event::Fault(f.kind));
        }
        if let Some(first) = requests.first() {
            engine.schedule(first.arrival_s, Event::Arrival { request: 0 });
        }
        let active = chaos.is_active();
        let deg_depth = if pol.speculate_queue_depth > 0 {
            pol.speculate_queue_depth
        } else if active {
            chaos.policy.degrade_queue_depth
        } else {
            0
        };
        Scheduler {
            config,
            pol,
            chaos,
            costs,
            obs,
            requests,
            engine,
            cache,
            active,
            injector: chaos.plan.injector(),
            fills: BTreeMap::new(),
            pending_storage: Vec::new(),
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
            pool: BTreeSet::new(),
            gpu_free: 0.0,
            gpu_busy: 0.0,
            batches: 0,
            compiled: BTreeSet::new(),
            inited: false,
            gpu_penalty_s: 0.0,
            pending_compile_factor: None,
            outcomes: Vec::with_capacity(n),
            disposition: vec![None; n],
            degraded_req: vec![false; n],
            durable: vec![0.0; n],
            attempts: vec![0; n],
            deadline_timers: vec![None; n],
            requeue_timers: vec![None; n],
            wait_since: vec![0.0; n],
            parked: Vec::new(),
            breaker: CircuitBreaker::new(chaos.policy.breaker_threshold),
            breaker_open: false,
            requeues: 0,
            breaker_opens: 0,
            degraded_attempts: 0,
            timeline,
            slo_obs: Vec::new(),
            splits: BTreeMap::new(),
            completions: vec![None; n],
            best_done: None,
        }
    }

    /// Pop events until the queue drains — advancing the timeline
    /// sampler to each one, handling it, then recording the post-event
    /// gauge row — and fold the run into its report.
    fn run(mut self) -> PolicyReport {
        while let Some((now, event)) = self.engine.pop() {
            if let Some(tl) = self.timeline.as_mut() {
                tl.advance_to(now);
            }
            match event {
                Event::Arrival { request } => self.on_arrival(request, now),
                Event::MsaDone { request, worker } => self.on_msa_done(request, worker, now),
                // A cached (or coalesced) feature load landed.
                Event::CacheFill { request } => {
                    self.fills.remove(&request);
                    self.mark_ready(request, now);
                }
                Event::BatchClose => self.close_batch(now),
                // The GPU freed up: if anything queued meanwhile, close
                // the next batch immediately.
                Event::GpuDone => {
                    if !self.pool.is_empty() {
                        self.engine
                            .schedule_tagged(now, Event::BatchClose, WaitEdge::BatchClose);
                    }
                }
                // An expiring deadline sheds `request` when shedding is
                // armed and the request is admitted, still unresolved
                // and still waiting.
                Event::DeadlineExpired { request } => {
                    if self.active
                        && self.chaos.policy.shed_expired
                        && !self.outcomes[request].rejected
                        && self.disposition[request].is_none()
                        && self.shed_waiting(request)
                    {
                        self.disposition[request] = Some(Disposition::Shed);
                        self.obs.tracer.instant_at(now, "shed");
                        if self.config.telemetry.slo.is_some() {
                            self.slo_obs.push((now, false));
                        }
                    }
                    self.outcomes[request].deadline_missed = true;
                }
                Event::Fault(kind) => self.on_fault(kind, now),
                Event::Requeue { request } => self.requeue(request, now),
                Event::BreakerClose => self.close_breaker(now),
            }
            self.sample(now);
        }
        self.fold()
    }

    /// Record the post-event gauge row: outstanding MSA requests
    /// (queued, running and breaker-parked — counted only when a
    /// timeline samples) and the pool's busy workers.
    fn sample(&mut self, now: f64) {
        if let Some(tl) = self.timeline.as_mut() {
            let msa_q = self.msa_queue.len() + self.running.iter().flatten().count();
            tl.set_many(&[
                (msa_q + self.parked.len()) as f64,
                self.workers.iter().filter(|&&t| t > now).count() as f64,
                if self.gpu_free > now { 1.0 } else { 0.0 },
                self.cache.len() as f64,
                self.cache.hit_rate(),
                self.fills.len() as f64,
                if self.breaker_open { 1.0 } else { 0.0 },
            ]);
        }
    }

    /// A pool worker finished: the features enter the cache, the loads
    /// of any coalesced waiters start, the request becomes GPU-ready and
    /// the worker takes the queue head.
    fn on_msa_done(&mut self, request: usize, worker: usize, now: f64) {
        debug_assert!(self.running[worker].is_some_and(|j| j.request == request));
        self.running[worker] = None;
        // The seed sweep only ever committed fills that a later arrival
        // passed, so once the stream has drained the insert is skipped —
        // keeping the eviction counters bit-identical to it.
        if self.outcomes.len() < self.requests.len() {
            let req = &self.requests[request];
            self.cache
                .insert(req.entity, self.costs.shape(req.sample).feature_bytes);
        }
        for waiter in self.release_waiters(request) {
            let load_s = self
                .costs
                .shape(self.requests[waiter].sample)
                .feature_load_s;
            self.start_fill(waiter, now + load_s);
        }
        self.mark_ready(request, now);
        self.dispatch_ready();
    }

    fn on_arrival(&mut self, request: usize, now: f64) {
        let req = self.requests[request];
        let shape = *self.costs.shape(req.sample);
        if !shape.admitted {
            self.push_pending(request, true);
        } else if self.producers.contains_key(&req.entity) {
            // Coalesce onto the in-flight search instead of duplicating
            // it: a hit whose load starts when the producer finishes.
            self.cache.coalesced_hit();
            self.push_pending(request, false);
            self.outcomes[request].cache_hit = true;
            self.waiters.entry(req.entity).or_default().push(request);
        } else if self.cache.lookup(req.entity) {
            // A hit's feature load lands `load_s` after arrival, plus
            // any storage fault pended with nothing in flight.
            let load_s = shape.feature_load_s;
            let mut delay = 0.0;
            for kind in self.pending_storage.drain(..) {
                delay += match kind {
                    FaultKind::StorageStall { stall_seconds } => stall_seconds,
                    FaultKind::StorageReadError => load_s,
                    _ => 0.0,
                };
            }
            self.injector.charge(delay);
            self.push_pending(request, false);
            self.outcomes[request].cache_hit = true;
            self.start_fill(request, req.arrival_s + load_s + delay);
        } else {
            // Miss: enqueue, optionally yield a long-running job, then
            // let the dispatcher fill free workers. For plain FIFO with a
            // free worker this schedules the MsaDone timer at exactly the
            // point an eager pool would, so event seq numbers (and thus
            // same-timestamp ordering) are preserved.
            self.push_pending(request, false);
            if self.config.coalesce_misses {
                self.producers.insert(req.entity, request);
            }
            self.admit(request, now);
            if self.pol.preempt {
                self.maybe_preempt(shape.msa_s, now);
            }
            self.dispatch_ready();
        }
        // Arm an admitted request's deadline timer, then chain the next
        // arrival. Arrivals are chained lazily so every readiness event
        // carries a lower sequence number than any later arrival (an MSA
        // job finishing exactly at a future arrival's timestamp pops
        // first — the seed sweep's inclusive fill rule).
        if let (true, Some(limit)) = (shape.admitted, self.config.deadline.limit_seconds()) {
            self.deadline_timers[request] = Some(self.engine.schedule_tagged(
                req.arrival_s + limit,
                Event::DeadlineExpired { request },
                WaitEdge::Deadline,
            ));
        }
        if let Some(next) = self.requests.get(request + 1) {
            self.engine.schedule(
                next.arrival_s,
                Event::Arrival {
                    request: request + 1,
                },
            );
        }
    }

    /// Push the outcome of an arriving request, ready at arrival until
    /// its features are computed or loaded.
    fn push_pending(&mut self, request: usize, rejected: bool) {
        let req = self.requests[request];
        self.outcomes.push(RequestOutcome {
            request: req,
            cache_hit: false,
            rejected,
            ready_s: req.arrival_s,
            done_s: 0.0,
            deadline_missed: false,
            finished: false,
            segments: PhaseSegments::default(),
        });
    }

    /// Schedule `request`'s feature load to land at `ready`; the wait
    /// since its current readiness is cache wait.
    fn start_fill(&mut self, request: usize, ready: f64) {
        let timer =
            self.engine
                .schedule_tagged(ready, Event::CacheFill { request }, WaitEdge::CacheFill);
        self.fills.insert(request, timer);
        let o = &mut self.outcomes[request];
        o.segments.cache_wait_s += ready - o.ready_s;
        o.ready_s = ready;
    }

    /// `request`'s features are ready: queue it for the GPU and, if the
    /// GPU is idle, close a batch (after every same-timestamp event).
    fn mark_ready(&mut self, request: usize, now: f64) {
        self.pool
            .insert((total_order(self.outcomes[request].ready_s), request));
        if now >= self.gpu_free {
            self.engine
                .schedule_tagged(now, Event::BatchClose, WaitEdge::BatchClose);
        }
    }

    /// The discipline's queue key for `r` (lower is better; the request
    /// id breaks every tie). Fixed while `r` is queued.
    fn queue_key(&self, r: usize) -> (i64, usize) {
        let key = match self.pol.queue {
            QueueDiscipline::Fifo => self.enqueued_at[r],
            QueueDiscipline::Sjf => {
                (1.0 - self.durable[r]).max(0.0) * self.costs.shape(self.requests[r].sample).msa_s
            }
            QueueDiscipline::Edf => self
                .config
                .deadline
                .limit_seconds()
                .map_or(f64::INFINITY, |l| self.requests[r].arrival_s + l),
        };
        (total_order(key), r)
    }

    /// Queue `r`, enqueued at `now` by the event being handled.
    fn enqueue(&mut self, r: usize, now: f64) {
        self.enqueued_at[r] = now;
        self.enqueued_by[r] = self.engine.current();
        self.msa_queue.insert(self.queue_key(r));
    }

    /// A miss arrival or a requeue enters the queue. The one
    /// degradation rule: `r` steps down the MsaDepthCap rung when the
    /// backlog it joins (queued + parked) is at the threshold.
    fn admit(&mut self, r: usize, now: f64) {
        if self.deg_depth > 0
            && !self.degraded_req[r]
            && self.msa_queue.len() + self.parked.len() >= self.deg_depth
        {
            self.degraded_req[r] = true;
            self.degraded_attempts += 1;
            let depth = self.chaos.policy.degraded_msa_depth;
            self.obs.tracer.instant_at(
                now,
                format!("degrade:{}", DegradeStep::MsaDepthCap { depth }),
            );
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
        let mut msa_s =
            (1.0 - self.durable[r]).max(0.0) * self.costs.shape(self.requests[r].sample).msa_s;
        if self.degraded_req[r] {
            msa_s *= self.chaos.policy.degrade_msa_factor;
        }
        let enqueued_at = self.enqueued_at[r];
        let start = self.workers[w].max(enqueued_at);
        let done = start + msa_s;
        self.workers[w] = done;
        // The edge hangs off the enqueue event, so it spans the queue
        // wait plus the service — the split the what-if replay scales.
        let timer = self.engine.schedule_with_parent(
            done,
            Event::MsaDone {
                request: r,
                worker: w,
            },
            WaitEdge::WorkerBusy,
            self.enqueued_by[r],
        );
        if self.config.provenance {
            self.splits.insert(
                timer.seq(),
                SegmentSplit {
                    wait_s: start - enqueued_at,
                    service_s: done - start,
                    compile_s: 0.0,
                },
            );
        }
        self.running[w] = Some(Running {
            request: r,
            start_s: start,
            done_s: done,
            timer,
        });
        let o = &mut self.outcomes[r];
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
        self.engine.cancel(j.timer);
        let r = j.request;
        self.outcomes[r].segments.msa_service_s -= j.done_s - now;
        self.workers[w] = now;
        let span = j.done_s - j.start_s;
        let progress = if j.start_s >= now || span <= 0.0 {
            0.0
        } else {
            ((now - j.start_s) / span).clamp(0.0, 1.0)
        };
        let before = self.durable[r];
        let units = self.chaos.policy.checkpoint_units as f64;
        self.durable[r] = ((before + progress * (1.0 - before)) * units).floor() / units;
        let salvaged = (self.durable[r] - before) * self.costs.shape(self.requests[r].sample).msa_s;
        (r, ((now - j.start_s).max(0.0) - salvaged).max(0.0))
    }

    /// Extend worker `w`'s running job to `new_done` (straggler or
    /// storage-stall inflation), preserving its start.
    fn retime_running(&mut self, w: usize, new_done: f64) {
        let j = self.running[w].expect("worker is running");
        self.engine.cancel(j.timer);
        let r = j.request;
        self.outcomes[r].segments.msa_service_s += new_done - j.done_s;
        let timer = self.engine.schedule_tagged(
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
        self.outcomes[r].ready_s = new_done;
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
        if rem <= incoming_msa_s * self.pol.preempt_min_ratio
            || self.preempt_count[r] >= self.pol.max_preemptions
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
        let entity = self.requests[r].entity;
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
        let entity = self.requests[r].entity;
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
        let dropped = if self.msa_queue.remove(&self.queue_key(r)) {
            true
        } else if let Some(pos) = self.parked.iter().position(|&x| x == r) {
            self.parked.remove(pos);
            true
        } else if let Some(timer) = self.requeue_timers[r].take() {
            self.engine.cancel(timer);
            true
        } else {
            false
        };
        if dropped {
            self.release_waiters(r);
        }
        dropped
    }

    /// Deliver a fault event through the injector (it may decline it)
    /// and apply what fired to the serving state.
    fn on_fault(&mut self, kind: FaultKind, now: f64) {
        self.injector.sync_to(now);
        let Some(fired) = self.injector.poll(kind.site()) else {
            return;
        };
        self.obs
            .tracer
            .instant_at(now, format!("fault:{}", fired.label()));
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
                self.injector.charge(lost);
                self.retry_or_fail(r, now);
                self.dispatch_ready();
            }
            FaultKind::Straggler { factor } => {
                if let Some(w) = self.running.iter().position(Option::is_some) {
                    let old_done = self.running[w].expect("worker is running").done_s;
                    let new_done = now + (old_done - now) * factor.max(1.0);
                    self.retime_running(w, new_done);
                    self.injector.charge(new_done - old_done);
                }
            }
            // A read error re-reads every in-flight load, or pends until
            // the next load when nothing is in flight.
            FaultKind::StorageReadError => {
                if self.fills.is_empty() {
                    self.pending_storage.push(fired);
                } else {
                    let lost = self.delay_fills(None);
                    self.injector.charge(lost);
                }
            }
            FaultKind::StorageStall { stall_seconds } => {
                let mut lost = self.delay_fills(Some(stall_seconds));
                // The device stall also reaches the database scans of
                // every running MSA job.
                for w in 0..self.workers.len() {
                    if let Some(j) = self.running[w] {
                        self.retime_running(w, j.done_s + stall_seconds);
                        lost += stall_seconds;
                    }
                }
                // A stall that reached nothing pends until the next load.
                if lost > 0.0 {
                    self.injector.charge(lost);
                } else {
                    self.pending_storage.push(fired);
                }
            }
            // An init failure's process-level re-init drops the
            // in-process XLA cache: shapes recompile, and the next batch
            // waits out a priced re-init on top of the cold init it now
            // pays again.
            FaultKind::GpuInitFailure => {
                self.gpu_penalty_s += self.costs.init_s;
                self.inited = false;
                self.compiled.clear();
            }
            // A compile stall inflates the next new shape's `xla_compile`.
            FaultKind::XlaCompileStall { factor } => {
                let f = self.pending_compile_factor.unwrap_or(1.0) * factor.max(1.0);
                self.pending_compile_factor = Some(f);
            }
        }
    }

    /// Push every in-flight feature load out by `stall_s` seconds
    /// (`None`: a read error re-reads, costing each load its own
    /// `load_s`). Returns the seconds lost.
    fn delay_fills(&mut self, stall_s: Option<f64>) -> f64 {
        let mut lost = 0.0;
        let waiters: Vec<usize> = self.fills.keys().copied().collect();
        for waiter in waiters {
            let load_s = self
                .costs
                .shape(self.requests[waiter].sample)
                .feature_load_s;
            let delay = stall_s.unwrap_or(load_s);
            self.engine.cancel(self.fills[&waiter]);
            let ready = self.outcomes[waiter].ready_s + delay;
            self.outcomes[waiter].segments.cache_wait_s += delay;
            self.outcomes[waiter].ready_s = ready;
            let timer = self.engine.schedule_tagged(
                ready,
                Event::CacheFill { request: waiter },
                WaitEdge::CacheFill,
            );
            self.fills.insert(waiter, timer);
            lost += delay;
        }
        lost
    }

    /// Terminally fail `r`.
    fn fail(&mut self, r: usize, now: f64) {
        self.disposition[r] = Some(Disposition::Failed);
        self.obs.tracer.instant_at(now, "failed");
        if self.config.telemetry.slo.is_some() {
            self.slo_obs.push((now, false));
        }
        if let Some(timer) = self.deadline_timers[r].take() {
            self.engine.cancel(timer);
        }
    }

    /// After a kill of `r`'s MSA attempt: once the attempt budget is
    /// spent, fail it and the waiters coalesced onto it; else requeue it
    /// after a jittered backoff and count the failure against the
    /// circuit breaker.
    fn retry_or_fail(&mut self, r: usize, now: f64) {
        let policy = &self.chaos.policy;
        self.wait_since[r] = now;
        self.attempts[r] += 1;
        if self.attempts[r] >= policy.max_attempts.max(1) {
            self.fail(r, now);
            for waiter in self.release_waiters(r) {
                self.fail(waiter, now);
            }
            return;
        }
        let backoff = policy.retry.backoff_seconds(
            self.attempts[r],
            mix(self.config.workload.seed, BACKOFF_SALT ^ r as u64),
        );
        self.requeue_timers[r] = Some(self.engine.schedule_tagged(
            now + backoff,
            Event::Requeue { request: r },
            WaitEdge::Admission,
        ));
        if self.breaker.record_failure() && !self.breaker_open {
            self.breaker_open = true;
            self.breaker_opens += 1;
            self.obs.tracer.instant_at(now, "circuit-open");
            self.engine.schedule_tagged(
                now + policy.breaker_cooldown_s,
                Event::BreakerClose,
                WaitEdge::Admission,
            );
        }
    }

    /// A requeue timer fired: unless `request` already resolved, book
    /// its admission wait and put it back in the queue, or park it while
    /// the circuit is open.
    fn requeue(&mut self, request: usize, now: f64) {
        self.requeue_timers[request] = None;
        if self.disposition[request].is_some() {
            return;
        }
        self.requeues += 1;
        self.obs.tracer.instant_at(now, "requeue");
        self.outcomes[request].segments.admission_wait_s += now - self.wait_since[request];
        if self.breaker_open {
            self.wait_since[request] = now;
            self.parked.push(request);
            return;
        }
        self.admit(request, now);
        self.dispatch_ready();
    }

    /// The circuit half-closes: re-dispatch every parked request.
    fn close_breaker(&mut self, now: f64) {
        self.breaker.record_success();
        self.breaker_open = false;
        self.obs.tracer.instant_at(now, "circuit-closed");
        for r in self.parked.drain(..) {
            self.requeue_timers[r] = Some(self.engine.schedule_tagged(
                now,
                Event::Requeue { request: r },
                WaitEdge::Admission,
            ));
        }
    }

    /// Close one GPU batch: fix the batch start from the head of the
    /// `(ready_s, id)`-ordered ready pool, remove the members by
    /// [`pick_batch`], then price the batch — re-init and compile-stall
    /// charges included — lay the `gpu_batch` span tree, close each
    /// member's outcome, segments and disposition, and record the
    /// provenance split. A close always pops after every same-timestamp
    /// readiness event, so the pool is complete; duplicate closes fall
    /// through the guard.
    fn close_batch(&mut self, now: f64) {
        let head = match self.pool.first() {
            Some(&(_, head)) if now >= self.gpu_free => head,
            _ => return,
        };
        let start = self.gpu_free.max(self.outcomes[head].ready_s);
        let batch = pick_batch(
            &mut self.pool,
            &self.outcomes,
            start,
            self.config.gpu_batch,
            self.pol.shape_batching,
        );

        // Price the batch first so the enclosing span carries its full
        // duration when created, then lay the child spans end to end.
        let costs = self.costs;
        let pay_init = !self.inited;
        let new_shapes: Vec<SampleId> = batch
            .iter()
            .map(|&idx| self.outcomes[idx].request.sample)
            .filter(|&s| self.compiled.insert(s))
            .collect();
        let compile_factor = if new_shapes.is_empty() {
            1.0
        } else {
            self.pending_compile_factor.take().unwrap_or(1.0)
        };
        let reinit_s = std::mem::take(&mut self.gpu_penalty_s);
        let mut service = if pay_init { costs.init_s } else { 0.0 }
            + costs.dispatch_s
            + new_shapes
                .iter()
                .map(|&s| costs.shape(s).compile_s * compile_factor)
                .sum::<f64>()
            + batch
                .iter()
                .map(|&idx| costs.shape(self.outcomes[idx].request.sample).compute_s)
                .sum::<f64>();
        if reinit_s > 0.0 {
            service += reinit_s;
            self.injector.charge(reinit_s);
        }
        if compile_factor > 1.0 {
            let base_compile: f64 = new_shapes.iter().map(|&s| costs.shape(s).compile_s).sum();
            self.injector
                .charge(base_compile * compile_factor - base_compile);
        }
        let done = start + service;

        let tracer = &mut self.obs.tracer;
        let batch_span = tracer.closed_span("gpu_batch", start, service);
        let mut at = start;
        if reinit_s > 0.0 {
            tracer.child_span(batch_span, "gpu_reinit", at, reinit_s);
            at += reinit_s;
        }
        if pay_init {
            self.inited = true;
            tracer.child_span(batch_span, "init", at, costs.init_s);
            at += costs.init_s;
        }
        tracer.child_span(batch_span, "dispatch", at, costs.dispatch_s);
        at += costs.dispatch_s;
        let compile_begin = at;
        for &s in &new_shapes {
            let compile_s = costs.shape(s).compile_s * compile_factor;
            tracer.child_span(batch_span, "xla_compile", at, compile_s);
            at += compile_s;
        }
        let compile_total = at - compile_begin;
        for &idx in &batch {
            let shape = costs.shape(self.outcomes[idx].request.sample);
            tracer.child_span(batch_span, "gpu_compute", at, shape.compute_s);
            at += shape.compute_s;
        }
        debug_assert!((at - done).abs() < 1e-9);
        for &idx in &batch {
            let o = &mut self.outcomes[idx];
            o.done_s = done;
            o.finished = true;
            o.segments.batch_wait_s += start - o.ready_s;
            o.segments.xla_compile_s += compile_total;
            o.segments.close(o.done_s - o.request.arrival_s);
            o.deadline_missed = self.config.deadline.exceeded(o.latency_s());
            let on_time = !o.deadline_missed;
            // A met deadline disarms its timer; a missed one is left to
            // fire (redundant but harmless).
            if on_time {
                if let Some(timer) = self.deadline_timers[idx].take() {
                    self.engine.cancel(timer);
                }
            }
            self.disposition[idx] = Some(if self.degraded_req[idx] {
                Disposition::Degraded
            } else {
                Disposition::Completed
            });
            if self.config.telemetry.slo.is_some() {
                self.slo_obs
                    .push((done, on_time && !self.degraded_req[idx]));
            }
        }
        self.gpu_busy += done - start;
        self.gpu_free = done;
        self.batches += 1;
        let timer = self
            .engine
            .schedule_tagged(done, Event::GpuDone, WaitEdge::GpuBusy);
        if self.config.provenance {
            // The gpu-busy edge spans from this close to the dispatch
            // completing: queueing behind the previous batch, then
            // service, of which the one-time compiles are separable.
            self.splits.insert(
                timer.seq(),
                SegmentSplit {
                    wait_s: start - now,
                    service_s: (done - start) - compile_total,
                    compile_s: compile_total,
                },
            );
            for &idx in &batch {
                self.completions[idx] = Some(timer.seq());
            }
            if self.best_done.is_none_or(|(t, _)| done >= t) {
                self.best_done = Some((done, timer.seq()));
            }
        }
    }

    /// Fold the run into the report + metrics. The base report covers
    /// *finished* requests — under an empty plan that is every admitted
    /// request, so the fold (and its bits) coincide with the frozen seed
    /// scheduler's. A non-baseline policy appends its own metrics after
    /// the fold.
    fn fold(mut self) -> PolicyReport {
        // Every admitted request must have terminated in a disposition.
        for (i, o) in self.outcomes.iter().enumerate() {
            if !o.rejected && self.disposition[i].is_none() {
                debug_assert!(false, "request {i} escaped without a disposition");
                self.disposition[i] = Some(Disposition::Failed);
            }
        }
        let outcomes = self.outcomes;
        let disposition = self.disposition;
        let count = |d: Disposition| disposition.iter().filter(|&&x| x == Some(d)).count();
        let finished = |i: usize| {
            matches!(
                disposition[i],
                Some(Disposition::Completed) | Some(Disposition::Degraded)
            )
        };
        let last_arrival = self.requests.last().map_or(0.0, |r| r.arrival_s);
        let makespan_s = outcomes
            .iter()
            .enumerate()
            .filter(|&(i, _)| finished(i))
            .map(|(_, o)| o.done_s)
            .fold(last_arrival, f64::max);
        let served = (0..outcomes.len()).filter(|&i| finished(i)).count();
        let rejected = outcomes.iter().filter(|o| o.rejected).count();
        let deadline_missed = outcomes.iter().filter(|o| o.deadline_missed).count();
        let throughput_qph = if makespan_s > 0.0 {
            served as f64 / makespan_s * 3600.0
        } else {
            0.0
        };
        let gpu_occupancy = if makespan_s > 0.0 {
            self.gpu_busy / makespan_s
        } else {
            0.0
        };

        let obs = &mut *self.obs;
        let mut latency_hist = Histogram::new(&LATENCY_BOUNDS);
        for (i, o) in outcomes.iter().enumerate() {
            if finished(i) {
                latency_hist.observe(o.latency_s());
                obs.metrics
                    .observe("serve.latency_s", o.latency_s(), &LATENCY_BOUNDS);
            }
        }

        obs.tracer.advance(makespan_s);
        obs.tracer.end();

        if let Some(tl) = self.timeline.as_mut() {
            tl.finish(makespan_s);
        }
        let slo = self.config.telemetry.slo.map(|slo_config| {
            let mut monitor = SloMonitor::new(slo_config);
            for &(t, good) in &self.slo_obs {
                monitor.observe(t, good);
            }
            let outcome = monitor.evaluate();
            for tr in &outcome.transitions {
                obs.tracer
                    .instant_at(tr.at_s, if tr.firing { "slo:burn" } else { "slo:clear" });
                obs.tracer.instant_attr("burn", tr.burn);
            }
            let m = &mut obs.metrics;
            m.inc("slo.burn_events", outcome.burn_events);
            m.inc("slo.clear_events", outcome.clear_events);
            m.set_gauge("slo.max_burn", outcome.max_burn);
            m.set_gauge("slo.alert_seconds", outcome.alert_seconds);
            outcome
        });

        let completed = count(Disposition::Completed);
        let degraded = count(Disposition::Degraded);
        let shed = count(Disposition::Shed);
        let failed = count(Disposition::Failed);
        let admitted = outcomes.len() - rejected;
        let of_admitted = |x: usize| {
            if admitted > 0 {
                x as f64 / admitted as f64
            } else {
                1.0
            }
        };
        let availability = of_admitted(completed + degraded);
        let on_time = (0..outcomes.len())
            .filter(|&i| {
                disposition[i] == Some(Disposition::Completed) && !outcomes[i].deadline_missed
            })
            .count();
        let goodput = of_admitted(on_time);
        // An empty-iterator f64 sum is -0.0 on current rustc; pin the
        // zero's sign so the fault-free row renders `0`, not `-0`.
        let lost_seconds = self.injector.total_lost_seconds();
        let lost_seconds = if lost_seconds == 0.0 {
            0.0
        } else {
            lost_seconds
        };

        let cache = &self.cache;
        let m = &mut obs.metrics;
        m.inc("serve.requests", self.requests.len() as u64);
        m.inc("serve.served", served as u64);
        m.inc("serve.rejected", rejected as u64);
        m.inc("serve.deadline_missed", deadline_missed as u64);
        m.inc("serve.cache.hits", cache.hits());
        m.inc("serve.cache.misses", cache.misses());
        m.inc("serve.cache.evictions", cache.evictions());
        if self.config.coalesce_misses {
            m.inc("serve.cache.coalesced", cache.coalesced());
        }
        m.inc("serve.gpu.batches", self.batches as u64);
        m.inc("serve.gpu.compiled_shapes", self.compiled.len() as u64);
        m.set_gauge("serve.throughput_qph", throughput_qph);
        m.set_gauge("serve.makespan_s", makespan_s);
        m.set_gauge("serve.gpu.occupancy", gpu_occupancy);
        m.set_gauge("serve.cache.hit_rate", cache.hit_rate());
        if self.active {
            m.inc("serve.chaos.completed", completed as u64);
            m.inc("serve.chaos.degraded", degraded as u64);
            m.inc("serve.chaos.shed", shed as u64);
            m.inc("serve.chaos.failed", failed as u64);
            m.inc("serve.chaos.degraded_attempts", self.degraded_attempts);
            m.inc("serve.chaos.requeues", self.requeues);
            m.inc("serve.chaos.breaker_opens", self.breaker_opens);
            m.inc("serve.chaos.faults", self.injector.events().len() as u64);
            m.set_gauge("serve.chaos.availability", availability);
            m.set_gauge("serve.chaos.goodput", goodput);
            m.set_gauge("serve.chaos.lost_s", lost_seconds);
        }
        if !self.pol.is_plain_fifo() {
            m.inc("serve.policy.preemptions", self.preemptions);
            m.inc("serve.policy.degraded_attempts", self.degraded_attempts);
            m.set_gauge("serve.policy.preempt_lost_s", self.preempt_lost_s);
        }

        let causal = self.config.provenance.then(|| CausalLog {
            edges: self.engine.provenance().to_vec(),
            makespan_event: self.best_done.map(|(_, seq)| seq),
            completions: self.completions,
            splits: self.splits,
        });
        let base = ServeReport {
            config: *self.config,
            served,
            rejected,
            deadline_missed,
            makespan_s,
            throughput_qph,
            gpu_busy_s: self.gpu_busy,
            gpu_occupancy,
            batches: self.batches,
            compiled_shapes: self.compiled.len(),
            cache_hits: cache.hits(),
            cache_misses: cache.misses(),
            cache_evictions: cache.evictions(),
            cache_hit_rate: cache.hit_rate(),
            cache_coalesced: cache.coalesced(),
            latency: latency_hist.summary(),
            timeline: self.timeline,
            slo,
            causal,
            outcomes,
        };
        PolicyReport {
            chaos: ChaosReport {
                base,
                chaos_active: self.active,
                dispositions: disposition,
                admitted,
                completed,
                degraded,
                shed,
                failed,
                degraded_attempts: self.degraded_attempts,
                requeues: self.requeues,
                breaker_opens: self.breaker_opens,
                fault_events: self.injector.events().to_vec(),
                lost_seconds,
                availability,
                goodput,
            },
            policy: *self.pol,
            preemptions: self.preemptions,
            preempt_lost_s: self.preempt_lost_s,
        }
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
/// table, recovery policy, fault plan or policy.
pub fn run_serve_policy(
    config: &ServeConfig,
    pol: &PolicyConfig,
    chaos: &ChaosConfig,
    costs: &CostTable,
    obs: &mut ObsSession,
) -> PolicyReport {
    Scheduler::new(config, pol, chaos, costs, obs).run()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Outcomes for `(ready_s, shape index)` pairs, one per request id,
    /// and the ready pool holding all of them.
    fn pooled(reqs: &[(f64, usize)]) -> (Vec<RequestOutcome>, BTreeSet<(i64, usize)>) {
        let outcomes: Vec<RequestOutcome> = reqs
            .iter()
            .enumerate()
            .map(|(id, &(ready_s, shape))| RequestOutcome {
                request: Request {
                    id,
                    entity: id,
                    sample: SampleId::all()[shape],
                    arrival_s: 0.0,
                },
                cache_hit: false,
                rejected: false,
                ready_s,
                done_s: 0.0,
                deadline_missed: false,
                finished: false,
                segments: PhaseSegments::default(),
            })
            .collect();
        let pool = outcomes
            .iter()
            .map(|o| (total_order(o.ready_s), o.request.id))
            .collect();
        (outcomes, pool)
    }

    fn ids(pool: &BTreeSet<(i64, usize)>) -> Vec<usize> {
        pool.iter().map(|&(_, i)| i).collect()
    }

    #[test]
    fn prefix_rule_takes_the_ready_head_in_ready_then_id_order() {
        // Pool order by (ready_s, id): 1, 5, 2, 3, 0, 4.
        let reqs = [(5.0, 0), (1.0, 0), (3.0, 0), (3.0, 0), (9.0, 0), (2.0, 0)];
        let (outcomes, mut pool) = pooled(&reqs);
        assert_eq!(pick_batch(&mut pool, &outcomes, 4.0, 3, false), [1, 5, 2]);
        assert_eq!(ids(&pool), [3, 0, 4]);
        // Fewer ready than the batch size: only the ready ones go.
        let (outcomes, mut pool) = pooled(&reqs);
        assert_eq!(
            pick_batch(&mut pool, &outcomes, 3.0, 8, false),
            [1, 5, 2, 3]
        );
        assert_eq!(ids(&pool), [0, 4]);
        // Nothing ready by `start` still closes a batch of the head.
        let (outcomes, mut pool) = pooled(&reqs);
        assert_eq!(pick_batch(&mut pool, &outcomes, 0.5, 3, false), [1]);
        assert_eq!(ids(&pool), [5, 2, 3, 0, 4]);
    }

    #[test]
    fn shape_rule_takes_the_dominant_shape_of_the_whole_window() {
        // Window ready by 10: shapes A A B B B (ids 0-4); B dominates
        // although the first two are A. Id 5 is B but not yet ready.
        let reqs = [(1.0, 0), (2.0, 0), (3.0, 1), (4.0, 1), (5.0, 1), (20.0, 1)];
        let (outcomes, mut pool) = pooled(&reqs);
        assert_eq!(pick_batch(&mut pool, &outcomes, 10.0, 2, true), [2, 3]);
        assert_eq!(ids(&pool), [0, 1, 4, 5]);
        // The batch cap leaves room, but an unready request of the
        // dominant shape stays pooled.
        let (outcomes, mut pool) = pooled(&reqs);
        assert_eq!(pick_batch(&mut pool, &outcomes, 10.0, 8, true), [2, 3, 4]);
        assert_eq!(ids(&pool), [0, 1, 5]);
    }

    #[test]
    fn shape_rule_breaks_ties_by_first_appearance() {
        // Window C A A C (C = shape 2 first): a 2-2 tie goes to C, taken
        // in pool order; the other shape stays pooled.
        let reqs = [(1.0, 2), (2.0, 0), (3.0, 0), (4.0, 2), (5.0, 1)];
        let (outcomes, mut pool) = pooled(&reqs);
        assert_eq!(pick_batch(&mut pool, &outcomes, 4.0, 4, true), [0, 3]);
        assert_eq!(ids(&pool), [1, 2, 4]);
        // Nothing ready by `start`: the head alone forms the window.
        let (outcomes, mut pool) = pooled(&reqs);
        assert_eq!(pick_batch(&mut pool, &outcomes, 0.0, 4, true), [0]);
        assert_eq!(ids(&pool), [1, 2, 3, 4]);
    }
}
