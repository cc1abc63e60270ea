//! Fault-tolerant serving: the fault plan, the recovery policy that
//! answers it, and `ServeCore`, the state every serving run shares.
//!
//! [`run_serve_chaos`] is the one serving loop ([`crate::policy`])
//! under plain FIFO; [`crate::server::run_serve`] is it under an empty
//! plan ("how fast is serving when nothing breaks"). With a plan armed
//! it answers "how does it degrade when everything does":
//!
//! - **Fault wiring** — every fault of a [`FaultPlan`] is scheduled as
//!   an [`Event::Fault`] on the serving engine and delivered through a
//!   per-run [`FaultInjector`]: kills abort the running MSA job on a
//!   CPU worker (redone from the last jackhmmer checkpoint, not from
//!   zero) and free the worker for the next queued request, stragglers
//!   stretch one running job, storage faults stall or re-read
//!   in-flight feature loads (a device stall also stretches every
//!   running MSA job), GPU init failures force a priced re-init that
//!   drops the in-process XLA cache, and compile stalls inflate the
//!   next batch's `xla_compile` spans.
//! - **Recovery policy** — a per-request attempt budget with capped
//!   exponential backoff ([`RetryPolicy`]) requeues killed MSA jobs, a
//!   worker-pool [`CircuitBreaker`] parks requeues while open,
//!   deadline-aware load shedding drops still-waiting requests whose
//!   deadline expired, and a request that enters the MSA queue behind a
//!   deep backlog steps down the [`DegradeStep::MsaDepthCap`] rung of
//!   the `core::resilience` ladder (reduced MSA depth ⇒ cheaper
//!   searches at lower quality).
//! - **Dispositions** — every admitted request terminates in exactly
//!   one [`Disposition`] (completed | degraded | shed | failed), the
//!   request-conservation invariant checked by
//!   [`ChaosReport::conserves_requests`].
//!
//! With an *empty* plan the loop takes no extra branches and makes no
//! extra engine or tracer calls, so it reduces bit-for-bit to the
//! frozen seed scheduler in [`crate::reference`] — `tests/equivalence.rs`
//! pins report, outcomes, metrics text and Chrome trace byte-identical.
//!
//! Everything but MSA dispatch lives in `ServeCore`: cache, GPU batch
//! close, report fold and the recovery steps (retry/fail, requeue,
//! breaker, shedding).
//! Pended side effects (a storage fault with nothing in flight, a
//! compile stall awaiting the next new shape) are charged to the most
//! recently fired fault when they finally apply.

use crate::cache::FeatureCache;
use crate::policy::{run_serve_policy, total_order, PolicyConfig};
use crate::server::{
    non_negative, CausalLog, CostTable, PhaseSegments, RequestOutcome, SegmentSplit, ServeConfig,
    ServeReport, LATENCY_BOUNDS, TIMELINE_COLUMNS,
};
use crate::workload::{self, Request};
use afsb_core::report::ascii_table;
use afsb_core::resilience::{CircuitBreaker, DegradeStep, RetryPolicy};
use afsb_rt::fault::{FaultEvent, FaultInjector, FaultKind, FaultPlan};
use afsb_rt::obs::timeline::{SloMonitor, TimelineSampler};
use afsb_rt::obs::{Histogram, ObsSession};
use afsb_rt::rng::mix;
use afsb_rt::sim::{Event, SimEngine, TimerId, WaitEdge};
use afsb_seq::samples::SampleId;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fmt::Write as _;

/// Salt for the per-request retry-backoff jitter stream.
const BACKOFF_SALT: u64 = 0xC4A05;

/// Terminal state of one admitted request under chaos serving.
///
/// The serving-level analogue of `RunOutcome`: ordered by severity so
/// the worst disposition of a set is its `max`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Disposition {
    /// Finished at full quality.
    Completed,
    /// Finished after the MSA-depth degradation rung was applied.
    Degraded,
    /// Dropped by deadline-aware load shedding while still queued.
    Shed,
    /// Terminally failed: the per-request attempt budget ran out (or
    /// the request waited on a producer that did).
    Failed,
}

impl Disposition {
    /// Stable serialization label.
    pub fn as_str(self) -> &'static str {
        match self {
            Disposition::Completed => "completed",
            Disposition::Degraded => "degraded",
            Disposition::Shed => "shed",
            Disposition::Failed => "failed",
        }
    }
}

impl fmt::Display for Disposition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The serving-level recovery policy: what happens after a fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    /// Backoff schedule between MSA attempts of one request.
    pub retry: RetryPolicy,
    /// Total MSA attempts a request may consume before it is
    /// [`Disposition::Failed`] (its *attempt budget*).
    pub max_attempts: u32,
    /// Consecutive kill-failures across the pool before the circuit
    /// opens and requeues park until the cooldown elapses.
    pub breaker_threshold: u32,
    /// Seconds the open circuit waits before half-closing and
    /// re-dispatching parked requests.
    pub breaker_cooldown_s: f64,
    /// Shed still-queued requests when their deadline expires instead
    /// of letting them finish arbitrarily late.
    pub shed_expired: bool,
    /// Queue depth (queued MSA requests + parked requests) at which a
    /// request entering the MSA queue degrades to the reduced-depth MSA
    /// rung. `0` disables degradation.
    pub degrade_queue_depth: usize,
    /// MSA duration multiplier under degradation (in `(0, 1]`: a
    /// shallower search finishes faster). Speculative admission
    /// ([`crate::policy::PolicyConfig::speculate_queue_depth`]) uses
    /// the same rung.
    pub degrade_msa_factor: f64,
    /// MSA depth cap reported for the degradation rung (the ladder's
    /// [`DegradeStep::MsaDepthCap`] parameter).
    pub degraded_msa_depth: usize,
    /// Checkpoint granularity of the jackhmmer driver: durable progress
    /// is a stopped attempt's progress (killed or preempted) floored to
    /// `1/checkpoint_units` steps, so a retry redoes only the
    /// non-durable tail.
    pub checkpoint_units: usize,
}

impl RecoveryPolicy {
    /// The canonical policy the `serve-chaos` matrix runs with.
    pub fn standard() -> RecoveryPolicy {
        RecoveryPolicy {
            retry: RetryPolicy::default(),
            max_attempts: 4,
            breaker_threshold: 3,
            breaker_cooldown_s: 900.0,
            shed_expired: true,
            degrade_queue_depth: 0,
            degrade_msa_factor: 0.6,
            degraded_msa_depth: 128,
            checkpoint_units: 8,
        }
    }

    /// Check every number for a degenerate value, returning an error
    /// that names the field: a NaN backoff or cooldown would reach the
    /// engine as a non-finite event time.
    pub fn validate(&self) -> Result<(), String> {
        let r = &self.retry;
        for (field, value) in [
            ("retry.base_backoff_s", r.base_backoff_s),
            ("retry.multiplier", r.multiplier),
            ("retry.cap_s", r.cap_s),
            ("retry.jitter_fraction", r.jitter_fraction),
            ("breaker_cooldown_s", self.breaker_cooldown_s),
        ] {
            non_negative(&format!("recovery: {field}"), value)?;
        }
        if !(self.degrade_msa_factor > 0.0 && self.degrade_msa_factor <= 1.0) {
            return Err(format!(
                "recovery: degrade_msa_factor must be in (0, 1], got {}",
                self.degrade_msa_factor
            ));
        }
        for (field, value) in [
            ("max_attempts", self.max_attempts as usize),
            ("degraded_msa_depth", self.degraded_msa_depth),
            ("checkpoint_units", self.checkpoint_units),
        ] {
            if value == 0 {
                return Err(format!("recovery: {field} must be at least 1"));
            }
        }
        Ok(())
    }
}

impl Default for RecoveryPolicy {
    fn default() -> RecoveryPolicy {
        RecoveryPolicy::standard()
    }
}

/// A fault plan plus the recovery policy that answers it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChaosConfig {
    /// The faults to inject (empty = the fault-free baseline).
    pub plan: FaultPlan,
    /// How the serving layer recovers. Inert while the plan is empty.
    pub policy: RecoveryPolicy,
}

impl ChaosConfig {
    /// No faults, default policy: the byte-identical baseline.
    pub fn none() -> ChaosConfig {
        ChaosConfig::default()
    }

    /// Whether any chaos machinery is armed. Every extra branch of the
    /// chaos loop is gated on this, which is what makes the empty-plan
    /// run ([`crate::server::run_serve`]) bit-identical to the frozen
    /// seed scheduler.
    pub fn is_active(&self) -> bool {
        !self.plan.is_empty()
    }
}

/// Everything one chaos serving run produced: the fault-free report
/// shape plus the disposition and recovery accounting.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The base serving report (folded over *finished* requests, which
    /// under an empty plan is every admitted request — exactly the
    /// report [`crate::server::run_serve`] returns).
    pub base: ServeReport,
    /// Whether a fault plan was armed (gates the chaos render block).
    pub chaos_active: bool,
    /// Per-request disposition, indexed by request id (`None` for
    /// admission-rejected requests).
    pub dispositions: Vec<Option<Disposition>>,
    /// Requests admitted (not rejected) — the conservation total.
    pub admitted: usize,
    /// Requests that finished at full quality.
    pub completed: usize,
    /// Requests that finished degraded.
    pub degraded: usize,
    /// Requests shed at their deadline.
    pub shed: usize,
    /// Requests that terminally failed.
    pub failed: usize,
    /// Degradation rung applications (MSA-depth cap decisions), counted
    /// per dispatch attempt — a later shed or failure does not erase the
    /// attempt, so this is nonzero whenever `degrade:` instants fired
    /// even if no *finished* request kept the degraded flag.
    pub degraded_attempts: u64,
    /// MSA attempts re-dispatched after a kill.
    pub requeues: u64,
    /// Times the worker-pool circuit opened.
    pub breaker_opens: u64,
    /// Every fault that fired, with its charged cost.
    pub fault_events: Vec<FaultEvent>,
    /// Simulated seconds charged to faults (redone work, stalls,
    /// re-inits, inflated compiles).
    pub lost_seconds: f64,
    /// Finished (completed + degraded) fraction of admitted requests.
    pub availability: f64,
    /// On-time full-quality fraction of admitted requests: completed
    /// within deadline, no degradation. A *fraction*, not a rate —
    /// shedding shortens the makespan, so a rate would reward dropping
    /// work.
    pub goodput: f64,
}

impl ChaosReport {
    /// The no-lost-requests invariant: every admitted request ended in
    /// exactly one disposition.
    pub fn conserves_requests(&self) -> bool {
        self.admitted == self.completed + self.degraded + self.shed + self.failed
            && self
                .dispositions
                .iter()
                .zip(&self.base.outcomes)
                .all(|(d, o)| d.is_some() != o.rejected)
    }

    /// Human-readable report: the base block, plus the chaos block when
    /// a plan was armed (so the passive render stays byte-identical to
    /// the fault-free report).
    pub fn render(&self) -> String {
        let mut out = self.base.render();
        if self.chaos_active {
            let _ = writeln!(
                out,
                "  chaos: {} completed, {} degraded, {} shed, {} failed of {} admitted (availability {:.1}%)",
                self.completed,
                self.degraded,
                self.shed,
                self.failed,
                self.admitted,
                self.availability * 100.0
            );
            let _ = writeln!(
                out,
                "  recovery: {} requeues, {} breaker opens, {} faults, {:.0} s lost; goodput {:.1}% on-time full-quality",
                self.requeues,
                self.breaker_opens,
                self.fault_events.len(),
                self.lost_seconds,
                self.goodput * 100.0
            );
            for e in &self.fault_events {
                let _ = writeln!(out, "    {e}");
            }
        }
        out
    }
}

/// One in-flight feature load (a scheduled `CacheFill`).
#[derive(Debug, Clone, Copy)]
struct Fill {
    timer: TimerId,
    entity: usize,
    load_s: f64,
}

/// The state of one serving run outside MSA dispatch: event queue,
/// feature cache, GPU queue, per-request outcome and recovery state,
/// and the observation-only records. The serving loop
/// ([`crate::policy`]) keeps only the MSA queue and pool and drives
/// everything else through these methods — one batch close
/// ([`ServeCore::close_batch`]) and one report fold
/// ([`ServeCore::fold`]).
pub(crate) struct ServeCore<'a> {
    pub(crate) config: &'a ServeConfig,
    pub(crate) pol: &'a PolicyConfig,
    pub(crate) chaos: &'a ChaosConfig,
    pub(crate) costs: &'a CostTable,
    pub(crate) requests: Vec<Request>,
    pub(crate) engine: SimEngine,
    pub(crate) cache: FeatureCache,
    /// Whether a fault plan is armed. Every recovery branch is gated on
    /// it, which keeps the empty-plan run bit-identical to the frozen
    /// seed scheduler.
    pub(crate) active: bool,
    pub(crate) injector: FaultInjector,
    fills: BTreeMap<usize, Fill>,
    pending_storage: Vec<FaultKind>,

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

    // Outcome + recovery state (inert while the plan is empty).
    pub(crate) outcomes: Vec<RequestOutcome>,
    disposition: Vec<Option<Disposition>>,
    pub(crate) degraded_req: Vec<bool>,
    pub(crate) durable: Vec<f64>,
    attempts: Vec<u32>,
    deadline_timers: Vec<Option<TimerId>>,
    pub(crate) requeue_timers: Vec<Option<TimerId>>,
    /// Start of each request's current admission wait (set at a kill or
    /// breaker park, consumed by the next requeue dispatch).
    wait_since: Vec<f64>,
    pub(crate) parked: Vec<usize>,
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

impl<'a> ServeCore<'a> {
    /// Validate every input, generate the stream, prewarm the cache,
    /// open the `serve` span and queue the plan's faults ahead of the
    /// first arrival (so a fault at an arrival's timestamp is delivered
    /// first).
    ///
    /// # Panics
    ///
    /// Panics with the first error of [`ServeConfig::validate`],
    /// [`CostTable::validate`], [`RecoveryPolicy::validate`] or
    /// [`PolicyConfig::validate`].
    pub(crate) fn new(
        config: &'a ServeConfig,
        pol: &'a PolicyConfig,
        chaos: &'a ChaosConfig,
        costs: &'a CostTable,
        obs: &mut ObsSession,
    ) -> ServeCore<'a> {
        let valid = config
            .validate()
            .and_then(|()| costs.validate())
            .and_then(|()| chaos.policy.validate())
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
        let active = chaos.is_active();
        if active {
            for f in chaos.plan.faults() {
                engine.schedule(f.not_before_s, Event::Fault(f.kind));
            }
        }
        if let Some(first) = requests.first() {
            engine.schedule(first.arrival_s, Event::Arrival { request: 0 });
        }
        ServeCore {
            config,
            pol,
            chaos,
            costs,
            requests,
            engine,
            cache,
            active,
            injector: chaos.plan.injector(),
            fills: BTreeMap::new(),
            pending_storage: Vec::new(),
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

    /// Pop the next event, first advancing the timeline sampler to it.
    pub(crate) fn next_event(&mut self) -> Option<(f64, Event)> {
        let (now, event) = self.engine.pop()?;
        if let Some(tl) = self.timeline.as_mut() {
            tl.advance_to(now);
        }
        Some((now, event))
    }

    /// Record the post-event gauge row: `msa_q()` outstanding MSA
    /// requests (counted only when a timeline samples, plus the
    /// breaker-parked ones) and the pool's per-worker busy-until times.
    pub(crate) fn sample(&mut self, now: f64, msa_q: impl FnOnce() -> usize, workers: &[f64]) {
        if let Some(tl) = self.timeline.as_mut() {
            tl.set_many(&[
                (msa_q() + self.parked.len()) as f64,
                workers.iter().filter(|&&t| t > now).count() as f64,
                if self.gpu_free > now { 1.0 } else { 0.0 },
                self.cache.len() as f64,
                self.cache.hit_rate(),
                self.fills.len() as f64,
                if self.breaker_open { 1.0 } else { 0.0 },
            ]);
        }
    }

    /// Push the outcome of an arriving request, ready at arrival until
    /// its features are computed or loaded.
    pub(crate) fn push_pending(&mut self, request: usize, rejected: bool) {
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

    /// Admit `request` as a cache hit: its outcome is pushed and its
    /// feature load lands `load_s` after arrival (plus any storage fault
    /// pended with nothing in flight).
    pub(crate) fn admit_hit(&mut self, request: usize, load_s: f64) {
        let mut ready = self.requests[request].arrival_s + load_s;
        if self.active && !self.pending_storage.is_empty() {
            let mut delay = 0.0;
            for kind in self.pending_storage.drain(..) {
                delay += match kind {
                    FaultKind::StorageStall { stall_seconds } => stall_seconds,
                    FaultKind::StorageReadError => load_s,
                    _ => 0.0,
                };
            }
            ready += delay;
            self.injector.charge(delay);
        }
        self.push_pending(request, false);
        self.outcomes[request].cache_hit = true;
        self.start_fill(request, ready, load_s);
    }

    /// Schedule `request`'s `load_s`-second feature load to land at
    /// `ready`; the wait since its current readiness is cache wait.
    pub(crate) fn start_fill(&mut self, request: usize, ready: f64, load_s: f64) {
        let entity = self.requests[request].entity;
        let timer = self.engine.schedule_tagged(
            ready,
            Event::CacheFill { request, entity },
            WaitEdge::CacheFill,
        );
        self.fills.insert(
            request,
            Fill {
                timer,
                entity,
                load_s,
            },
        );
        let o = &mut self.outcomes[request];
        o.segments.cache_wait_s += ready - o.ready_s;
        o.ready_s = ready;
    }

    /// The tail of every arrival: arm an admitted request's deadline
    /// timer, then chain the next arrival. Arrivals are chained lazily
    /// so every readiness event carries a lower sequence number than any
    /// later arrival (an MSA job finishing exactly at a future arrival's
    /// timestamp pops first — the seed sweep's inclusive fill rule).
    pub(crate) fn finish_arrival(&mut self, request: usize, admitted: bool) {
        if let (true, Some(limit)) = (admitted, self.config.deadline.limit_seconds()) {
            self.deadline_timers[request] = Some(self.engine.schedule_tagged(
                self.requests[request].arrival_s + limit,
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

    /// Record the wait/service split of an MSA worker-busy edge
    /// (provenance runs only).
    pub(crate) fn record_split(&mut self, timer: TimerId, wait_s: f64, service_s: f64) {
        if self.config.provenance {
            self.splits.insert(
                timer.seq(),
                SegmentSplit {
                    wait_s,
                    service_s,
                    compile_s: 0.0,
                },
            );
        }
    }

    /// A pool worker finished `request`'s MSA: its features enter the
    /// cache. The seed sweep only ever committed fills that a later
    /// arrival passed, so once the stream has drained the insert is
    /// skipped — keeping the eviction counters bit-identical to it.
    pub(crate) fn commit_fill(&mut self, request: usize) {
        if self.outcomes.len() < self.requests.len() {
            let req = &self.requests[request];
            self.cache
                .insert(req.entity, self.costs.shape(req.sample).feature_bytes);
        }
    }

    /// `request`'s features are ready: queue it for the GPU and, if the
    /// GPU is idle, close a batch (after every same-timestamp event).
    pub(crate) fn mark_ready(&mut self, request: usize, now: f64) {
        self.pool
            .insert((total_order(self.outcomes[request].ready_s), request));
        if now >= self.gpu_free {
            self.engine
                .schedule_tagged(now, Event::BatchClose, WaitEdge::BatchClose);
        }
    }

    /// A cached (or coalesced) feature load landed.
    pub(crate) fn fill_landed(&mut self, request: usize, now: f64) {
        self.fills.remove(&request);
        self.mark_ready(request, now);
    }

    /// The GPU freed up: if anything queued meanwhile, close the next
    /// batch immediately.
    pub(crate) fn gpu_done(&mut self, now: f64) {
        if !self.pool.is_empty() {
            self.engine
                .schedule_tagged(now, Event::BatchClose, WaitEdge::BatchClose);
        }
    }

    /// Step `r` down the MSA-depth degradation rung.
    pub(crate) fn degrade(&mut self, r: usize, now: f64, obs: &mut ObsSession) {
        self.degraded_req[r] = true;
        self.degraded_attempts += 1;
        let depth = self.chaos.policy.degraded_msa_depth;
        obs.tracer.instant_at(
            now,
            format!("degrade:{}", DegradeStep::MsaDepthCap { depth }),
        );
    }

    /// Whether an expiring deadline may shed `request`: shedding is
    /// armed and the request is admitted and still unresolved.
    pub(crate) fn may_shed(&self, request: usize) -> bool {
        self.active
            && self.chaos.policy.shed_expired
            && !self.outcomes[request].rejected
            && self.disposition[request].is_none()
    }

    /// Record `request` as shed at its deadline.
    pub(crate) fn shed(&mut self, request: usize, now: f64, obs: &mut ObsSession) {
        self.disposition[request] = Some(Disposition::Shed);
        obs.tracer.instant_at(now, "shed");
        if self.config.telemetry.slo.is_some() {
            self.slo_obs.push((now, false));
        }
    }

    /// Deliver a fault event through the injector; `None` when the
    /// injector declines it.
    pub(crate) fn fire(
        &mut self,
        kind: FaultKind,
        now: f64,
        obs: &mut ObsSession,
    ) -> Option<FaultKind> {
        self.injector.sync_to(now);
        let fired = self.injector.poll(kind.site())?;
        obs.tracer
            .instant_at(now, format!("fault:{}", fired.label()));
        Some(fired)
    }

    /// GPU faults. An init failure's process-level re-init drops the
    /// in-process XLA cache: shapes recompile, and the next batch waits
    /// out a priced re-init on top of the cold init it now pays again.
    /// A compile stall inflates the next new shape's `xla_compile`.
    pub(crate) fn gpu_fault(&mut self, fired: FaultKind) {
        if let FaultKind::XlaCompileStall { factor } = fired {
            let f = self.pending_compile_factor.unwrap_or(1.0) * factor.max(1.0);
            self.pending_compile_factor = Some(f);
        } else {
            self.gpu_penalty_s += self.costs.init_s;
            self.inited = false;
            self.compiled.clear();
        }
    }

    /// Push every in-flight feature load out by `stall_s` seconds
    /// (`None`: a read error re-reads, costing each load its own
    /// `load_s`). Returns the seconds lost.
    pub(crate) fn delay_fills(&mut self, stall_s: Option<f64>) -> f64 {
        let mut lost = 0.0;
        let waiters: Vec<usize> = self.fills.keys().copied().collect();
        for waiter in waiters {
            let fill = self.fills[&waiter];
            let delay = stall_s.unwrap_or(fill.load_s);
            self.engine.cancel(fill.timer);
            let ready = self.outcomes[waiter].ready_s + delay;
            self.outcomes[waiter].segments.cache_wait_s += delay;
            self.outcomes[waiter].ready_s = ready;
            let timer = self.engine.schedule_tagged(
                ready,
                Event::CacheFill {
                    request: waiter,
                    entity: fill.entity,
                },
                WaitEdge::CacheFill,
            );
            self.fills.get_mut(&waiter).expect("fill present").timer = timer;
            lost += delay;
        }
        lost
    }

    /// A storage read error re-reads every in-flight load, or pends
    /// until the next load when nothing is in flight.
    pub(crate) fn storage_read_error(&mut self, fired: FaultKind) {
        if self.fills.is_empty() {
            self.pending_storage.push(fired);
        } else {
            let lost = self.delay_fills(None);
            self.injector.charge(lost);
        }
    }

    /// Charge a storage stall's `lost` seconds, or pend it until the
    /// next load when it reached nothing.
    pub(crate) fn settle_stall(&mut self, fired: FaultKind, lost: f64) {
        if lost > 0.0 {
            self.injector.charge(lost);
        } else {
            self.pending_storage.push(fired);
        }
    }

    /// Terminally fail `r`.
    pub(crate) fn fail(&mut self, r: usize, now: f64, obs: &mut ObsSession) {
        self.disposition[r] = Some(Disposition::Failed);
        obs.tracer.instant_at(now, "failed");
        if self.config.telemetry.slo.is_some() {
            self.slo_obs.push((now, false));
        }
        if let Some(timer) = self.deadline_timers[r].take() {
            self.engine.cancel(timer);
        }
    }

    /// After a kill of `r`'s MSA attempt: fail it once the attempt
    /// budget is spent (returns `true`), else requeue it after a jittered
    /// backoff and count the failure against the circuit breaker.
    pub(crate) fn retry_or_fail(&mut self, r: usize, now: f64, obs: &mut ObsSession) -> bool {
        let policy = &self.chaos.policy;
        self.wait_since[r] = now;
        self.attempts[r] += 1;
        if self.attempts[r] >= policy.max_attempts.max(1) {
            self.fail(r, now, obs);
            return true;
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
            obs.tracer.instant_at(now, "circuit-open");
            self.engine.schedule_tagged(
                now + policy.breaker_cooldown_s,
                Event::BreakerClose,
                WaitEdge::Admission,
            );
        }
        false
    }

    /// A requeue timer fired. Returns whether the request should be
    /// dispatched now (`false` when it already resolved, or the open
    /// circuit parked it).
    pub(crate) fn requeue(&mut self, request: usize, now: f64, obs: &mut ObsSession) -> bool {
        self.requeue_timers[request] = None;
        if self.disposition[request].is_some() {
            return false;
        }
        self.requeues += 1;
        obs.tracer.instant_at(now, "requeue");
        self.outcomes[request].segments.admission_wait_s += now - self.wait_since[request];
        if self.breaker_open {
            self.wait_since[request] = now;
            self.parked.push(request);
            return false;
        }
        true
    }

    /// The circuit half-closes: re-dispatch every parked request.
    pub(crate) fn close_breaker(&mut self, now: f64, obs: &mut ObsSession) {
        self.breaker.record_success();
        self.breaker_open = false;
        obs.tracer.instant_at(now, "circuit-closed");
        for r in self.parked.drain(..) {
            self.requeue_timers[r] = Some(self.engine.schedule_tagged(
                now,
                Event::Requeue { request: r },
                WaitEdge::Admission,
            ));
        }
    }

    /// Close one GPU batch: fix the batch start from the head of the
    /// `(ready_s, id)`-ordered ready pool, let `pick` remove the members
    /// (given the pool, outcomes, start and `gpu_batch`), then price the
    /// batch — re-init and compile-stall charges included — lay the
    /// `gpu_batch` span tree, close each member's outcome, segments and
    /// disposition, and record the provenance split. Returns `false`
    /// when nothing closed: a close always pops after every
    /// same-timestamp readiness event, so the pool is complete, and
    /// duplicate closes fall through the guard.
    pub(crate) fn close_batch(
        &mut self,
        now: f64,
        obs: &mut ObsSession,
        pick: impl FnOnce(&mut BTreeSet<(i64, usize)>, &[RequestOutcome], f64, usize) -> Vec<usize>,
    ) -> bool {
        let head = match self.pool.first() {
            Some(&(_, head)) if now >= self.gpu_free => head,
            _ => return false,
        };
        let start = self.gpu_free.max(self.outcomes[head].ready_s);
        let batch = pick(&mut self.pool, &self.outcomes, start, self.config.gpu_batch);

        // Price the batch first so the enclosing span carries its full
        // duration when created, then lay the child spans end to end.
        let costs = self.costs;
        let pay_init = !self.inited;
        let new_shapes: Vec<SampleId> = batch
            .iter()
            .map(|&idx| self.outcomes[idx].request.sample)
            .filter(|&s| self.compiled.insert(s))
            .collect();
        let compile_factor = if self.active && !new_shapes.is_empty() {
            self.pending_compile_factor.take().unwrap_or(1.0)
        } else {
            1.0
        };
        let reinit_s = if self.active {
            std::mem::take(&mut self.gpu_penalty_s)
        } else {
            0.0
        };
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

        let batch_span = obs.tracer.closed_span("gpu_batch", start, service);
        let mut at = start;
        if reinit_s > 0.0 {
            obs.tracer
                .child_span(batch_span, "gpu_reinit", at, reinit_s);
            at += reinit_s;
        }
        if pay_init {
            self.inited = true;
            obs.tracer.child_span(batch_span, "init", at, costs.init_s);
            at += costs.init_s;
        }
        obs.tracer
            .child_span(batch_span, "dispatch", at, costs.dispatch_s);
        at += costs.dispatch_s;
        let compile_begin = at;
        for &s in &new_shapes {
            let compile_s = costs.shape(s).compile_s * compile_factor;
            obs.tracer
                .child_span(batch_span, "xla_compile", at, compile_s);
            at += compile_s;
        }
        let compile_total = at - compile_begin;
        for &idx in &batch {
            let shape = costs.shape(self.outcomes[idx].request.sample);
            obs.tracer
                .child_span(batch_span, "gpu_compute", at, shape.compute_s);
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
        let timer = self.engine.schedule_tagged(
            done,
            Event::GpuDone {
                batch: self.batches,
            },
            WaitEdge::GpuBusy,
        );
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
        true
    }

    /// Fold the run into the report + metrics. The base report covers
    /// *finished* requests — under an empty plan that is every admitted
    /// request, so the fold (and its bits) coincide with the frozen seed
    /// scheduler's.
    pub(crate) fn fold(mut self, obs: &mut ObsSession) -> ChaosReport {
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
        ChaosReport {
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
        }
    }
}

/// Run the serving loop under a fault plan with plain FIFO dispatch:
/// [`run_serve_policy`] under [`PolicyConfig::fifo`].
///
/// Identical contract to [`crate::server::run_serve`] (which is this
/// call under [`ChaosConfig::none`]), plus a [`ChaosConfig`]. A fresh
/// [`FaultInjector`] is built from the plan *inside this call* (one
/// injector per run — see [`FaultPlan::injector`]), so a long-lived
/// `ChaosConfig` can drive any number of runs without double-firing.
///
/// # Panics
///
/// Panics with the validation error of a degenerate config, cost table
/// or recovery policy.
pub fn run_serve_chaos(
    config: &ServeConfig,
    chaos: &ChaosConfig,
    costs: &CostTable,
    obs: &mut ObsSession,
) -> ChaosReport {
    run_serve_policy(config, &PolicyConfig::fifo(), chaos, costs, obs).chaos
}

/// A named chaos serving scenario.
#[derive(Debug, Clone)]
pub struct ChaosScenario {
    /// Short stable name (used in reports and summaries).
    pub name: &'static str,
    /// The serving configuration (shared across the matrix — the
    /// canonical `cold` config, so `baseline` is byte-identical to it).
    pub config: ServeConfig,
    /// The fault plan + recovery policy.
    pub chaos: ChaosConfig,
}

/// One executed chaos scenario with its observability session.
pub struct ChaosScenarioRun {
    /// The scenario name.
    pub name: &'static str,
    /// The chaos serving report.
    pub report: ChaosReport,
    /// Trace + metrics captured during the run.
    pub obs: ObsSession,
}

/// The canonical `serve-chaos` matrix: the `cold` serving config under
/// an empty plan (`baseline`), three single-dimension fault campaigns,
/// and their union (`kitchen-sink`, which also arms the overload
/// degradation rung). Fault times sit inside the arrival window so
/// every campaign hits live work.
pub fn chaos_scenarios(quick: bool) -> Vec<ChaosScenario> {
    let config = crate::scenario::default_scenarios(quick)
        .into_iter()
        .find(|s| s.name == "cold")
        .expect("cold scenario exists")
        .config;
    let policy = RecoveryPolicy::standard();

    let worker_churn = FaultPlan::none()
        .with_at(FaultKind::WorkerCrash { at_fraction: 0.3 }, 600.0)
        .with_at(FaultKind::Straggler { factor: 2.5 }, 1800.0)
        .with_at(FaultKind::OomKill { at_fraction: 0.6 }, 3600.0)
        .with_at(FaultKind::WorkerCrash { at_fraction: 0.8 }, 7200.0)
        .with_at(FaultKind::Straggler { factor: 1.8 }, 12000.0);
    let storage_brownout = FaultPlan::none()
        .with_at(
            FaultKind::StorageStall {
                stall_seconds: 1800.0,
            },
            900.0,
        )
        .with_at(FaultKind::StorageReadError, 2400.0)
        .with_at(
            FaultKind::StorageStall {
                stall_seconds: 3600.0,
            },
            4800.0,
        )
        .with_at(FaultKind::StorageReadError, 8000.0)
        .with_at(
            FaultKind::StorageStall {
                stall_seconds: 2400.0,
            },
            12000.0,
        );
    // GPU faults only matter near the deadline boundary: arrivals stop
    // by ~1.1 h, so an early flap adds minutes of latency against a
    // 24 h deadline and flips nothing. Pairing an init failure (drops
    // the in-process XLA cache) with a large compile stall right where
    // the MSA queue crosses the deadline turns each recompile into
    // hours of GPU backlog, pushing near-boundary completions late.
    let gpu_flap = FaultPlan::none()
        .with_at(FaultKind::GpuInitFailure, 60_000.0)
        .with_at(FaultKind::XlaCompileStall { factor: 60.0 }, 60_060.0)
        .with_at(FaultKind::GpuInitFailure, 68_000.0)
        .with_at(FaultKind::XlaCompileStall { factor: 60.0 }, 68_060.0)
        .with_at(FaultKind::GpuInitFailure, 76_000.0)
        .with_at(FaultKind::XlaCompileStall { factor: 60.0 }, 76_060.0)
        .with_at(FaultKind::GpuInitFailure, 84_000.0)
        .with_at(FaultKind::XlaCompileStall { factor: 60.0 }, 84_060.0)
        .with_at(FaultKind::GpuInitFailure, 92_000.0)
        .with_at(FaultKind::XlaCompileStall { factor: 60.0 }, 92_060.0);
    // Everything at once, plus two late brownout pulses of its own:
    // the union alone ties storage-brownout (the early stalls dominate
    // and the GPU flap lands where its completions are already late),
    // so the compound scenario keeps degrading storage right where the
    // survivors' MSA jobs cross the deadline boundary.
    let mut kitchen_sink = FaultPlan::none();
    for plan in [&worker_churn, &storage_brownout, &gpu_flap] {
        for f in plan.faults() {
            kitchen_sink = kitchen_sink.with_at(f.kind, f.not_before_s);
        }
    }
    kitchen_sink = kitchen_sink
        .with_at(
            FaultKind::StorageStall {
                stall_seconds: 5400.0,
            },
            45_000.0,
        )
        .with_at(
            FaultKind::StorageStall {
                stall_seconds: 5400.0,
            },
            70_000.0,
        );

    vec![
        ChaosScenario {
            name: "baseline",
            config,
            chaos: ChaosConfig::none(),
        },
        ChaosScenario {
            name: "worker-churn",
            config,
            chaos: ChaosConfig {
                plan: worker_churn,
                policy,
            },
        },
        ChaosScenario {
            name: "storage-brownout",
            config,
            chaos: ChaosConfig {
                plan: storage_brownout,
                policy,
            },
        },
        ChaosScenario {
            name: "gpu-flap",
            config,
            chaos: ChaosConfig {
                plan: gpu_flap,
                policy,
            },
        },
        ChaosScenario {
            name: "kitchen-sink",
            config,
            chaos: ChaosConfig {
                plan: kitchen_sink,
                policy: RecoveryPolicy {
                    degrade_queue_depth: 64,
                    ..policy
                },
            },
        },
    ]
}

/// Run the whole `serve-chaos` matrix on [`CostTable::canonical`] with
/// both observation-only instruments armed, as in
/// [`crate::scenario::run_default`]: every disposition and float
/// matches an unarmed run bit for bit. Each run builds its own
/// injector, so the shared plans never double-fire across scenarios.
pub fn run_chaos(quick: bool) -> Vec<ChaosScenarioRun> {
    let costs = CostTable::canonical(quick);
    chaos_scenarios(quick)
        .into_iter()
        .map(|scenario| {
            let config = scenario.config.observed(quick);
            let mut obs = ObsSession::new();
            let report = run_serve_chaos(&config, &scenario.chaos, costs, &mut obs);
            ChaosScenarioRun {
                name: scenario.name,
                report,
                obs,
            }
        })
        .collect()
}

/// Cross-scenario comparison table plus the per-scenario blocks.
pub fn render_chaos_summary(runs: &[ChaosScenarioRun]) -> String {
    let headers = [
        "scenario", "avail", "goodput", "compl", "degr", "degr att", "shed", "failed", "requeue",
        "faults", "lost s",
    ];
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|run| {
            let r = &run.report;
            vec![
                run.name.to_string(),
                format!("{:.1}%", r.availability * 100.0),
                format!("{:.1}%", r.goodput * 100.0),
                format!("{}", r.completed),
                format!("{}", r.degraded),
                format!("{}", r.degraded_attempts),
                format!("{}", r.shed),
                format!("{}", r.failed),
                format!("{}", r.requeues),
                format!("{}", r.fault_events.len()),
                format!("{:.0}", r.lost_seconds),
            ]
        })
        .collect();
    let mut out = ascii_table(&headers, &rows);
    out.push('\n');
    for run in runs {
        out.push('\n');
        out.push_str(&format!("[{}]\n", run.name));
        out.push_str(&run.report.render());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ShapeCost;
    use crate::workload::WorkloadConfig;
    use afsb_simarch::Platform;

    #[test]
    fn recovery_policy_validate_names_each_bad_field() {
        assert_eq!(RecoveryPolicy::standard().validate(), Ok(()));
        type Set = fn(&mut RecoveryPolicy);
        let cases: [(&str, Set); 12] = [
            ("retry.base_backoff_s", |p| {
                p.retry.base_backoff_s = f64::NAN
            }),
            ("retry.multiplier", |p| p.retry.multiplier = -2.0),
            ("retry.cap_s", |p| p.retry.cap_s = f64::INFINITY),
            ("retry.jitter_fraction", |p| {
                p.retry.jitter_fraction = f64::NAN
            }),
            ("breaker_cooldown_s", |p| p.breaker_cooldown_s = f64::NAN),
            ("breaker_cooldown_s", |p| p.breaker_cooldown_s = -1.0),
            ("degrade_msa_factor", |p| p.degrade_msa_factor = f64::NAN),
            ("degrade_msa_factor", |p| p.degrade_msa_factor = 0.0),
            ("degrade_msa_factor", |p| p.degrade_msa_factor = 1.5),
            ("max_attempts", |p| p.max_attempts = 0),
            ("degraded_msa_depth", |p| p.degraded_msa_depth = 0),
            ("checkpoint_units", |p| p.checkpoint_units = 0),
        ];
        for (field, set) in cases {
            let mut policy = RecoveryPolicy::standard();
            set(&mut policy);
            let err = policy.validate().expect_err(field);
            assert!(err.contains(field), "error names {field}: {err}");
        }
    }

    #[test]
    #[should_panic(expected = "breaker_cooldown_s")]
    fn nan_breaker_cooldown_panics_naming_the_field() {
        // Used to surface as "event time must be finite" once the
        // breaker opened and scheduled its close.
        let shape = ShapeCost {
            msa_s: 60.0,
            feature_bytes: 1 << 20,
            feature_load_s: 0.1,
            peak_msa_bytes: 1 << 30,
            admitted: true,
            compile_s: 5.0,
            compute_s: 5.0,
        };
        let costs = CostTable {
            platform: Platform::Server,
            msa_threads: 4,
            init_s: 10.0,
            dispatch_s: 1.0,
            shapes: SampleId::all().iter().map(|&id| (id, shape)).collect(),
        };
        let config = ServeConfig {
            workload: WorkloadConfig {
                num_requests: 8,
                ..WorkloadConfig::default()
            },
            ..ServeConfig::default()
        };
        let chaos = ChaosConfig {
            plan: FaultPlan::none().with_at(FaultKind::WorkerCrash { at_fraction: 0.0 }, 1.0),
            policy: RecoveryPolicy {
                breaker_cooldown_s: f64::NAN,
                ..RecoveryPolicy::standard()
            },
        };
        run_serve_chaos(&config, &chaos, &costs, &mut ObsSession::new());
    }
}
