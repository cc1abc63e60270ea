//! The resilience layer: retries, deadlines, checkpoint-aware recovery
//! and graceful degradation around the simulated AF3 pipeline.
//!
//! The paper documents a brittle pipeline: no admission check, so a
//! long-RNA job burns hours of MSA and then dies on an OOM kill
//! (§III-C); a single mid-scan worker failure discards the whole search.
//! This module is the serving-stack answer the paper's §VI gestures at:
//!
//! - [`RetryPolicy`] — capped exponential backoff with deterministic
//!   jitter, charged in *simulated* seconds,
//! - [`Deadline`] — per-phase wall-time budgets (an XLA compile stall
//!   becomes a timeout instead of a hang),
//! - [`CircuitBreaker`] — consecutive failures open the circuit and the
//!   job lands in a terminal [`RunOutcome::Failed`],
//! - the graceful-degradation ladder ([`DegradeStep`]) driven by the
//!   §VI static estimator: CXL-tier expansion, then an nhmmer window
//!   cap, then reduced MSA depth — each trading quality for survival,
//! - [`run_resilient`] — the executor tying it together over a seeded
//!   [`FaultPlan`], with per-iteration checkpointing so a mid-MSA kill
//!   redoes only the non-durable tail of the work.
//!
//! Everything is deterministic: the same inputs, options and fault plan
//! produce the same [`RunOutcome`], the same retry/recovery accounting
//! and byte-identical serialized reports.

use crate::context::SampleSearchData;
use crate::estimator::MemoryEstimator;
use crate::inference_phase::{self, InferenceOptions, InferencePhaseResult};
use crate::msa_phase::{self, MsaPhaseResult};
use crate::pipeline::{PipelineOptions, PipelineResult};
use afsb_model::ModelConfig;
use afsb_rt::fault::{FaultEvent, FaultInjector, FaultKind, FaultPlan, FaultSite};
use afsb_rt::obs::ObsSession;
use afsb_rt::rng::{mix, Rng};
use afsb_rt::sim::{Event, SimEngine, TimerId};
use afsb_rt::Json;
use afsb_simarch::memory::CapacityModel;
use afsb_simarch::Platform;
use std::fmt;

/// Terminal state of a pipeline run. Replaces the old NaN sentinel: a
/// run that did not finish has *no* wall time, not a poisoned one.
///
/// Ordering is by severity (`Completed < Degraded < Oom < Failed`), so
/// the outcome of a composite is the `max` of its parts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RunOutcome {
    /// Finished at full quality.
    Completed,
    /// Finished, but only after a quality-reducing degradation step.
    Degraded,
    /// Killed by the memory admission check (the paper's Fig. 2 OOM).
    Oom,
    /// Terminally failed: retry budget exhausted, circuit open, or a
    /// phase deadline exceeded.
    Failed,
}

impl RunOutcome {
    /// Whether the run produced a structure (possibly degraded).
    pub fn finished(self) -> bool {
        matches!(self, RunOutcome::Completed | RunOutcome::Degraded)
    }

    /// Whether the run finished at full quality.
    pub fn is_completed(self) -> bool {
        self == RunOutcome::Completed
    }

    /// Stable serialization label.
    pub fn as_str(self) -> &'static str {
        match self {
            RunOutcome::Completed => "completed",
            RunOutcome::Degraded => "degraded",
            RunOutcome::Oom => "oom",
            RunOutcome::Failed => "failed",
        }
    }

    /// Parse a label produced by [`Self::as_str`].
    pub fn parse(s: &str) -> Option<RunOutcome> {
        match s {
            "completed" => Some(RunOutcome::Completed),
            "degraded" => Some(RunOutcome::Degraded),
            "oom" => Some(RunOutcome::Oom),
            "failed" => Some(RunOutcome::Failed),
            _ => None,
        }
    }
}

impl fmt::Display for RunOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Capped exponential backoff with deterministic jitter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum retry attempts before the job is declared failed.
    pub max_retries: u32,
    /// Backoff before the first retry, in simulated seconds.
    pub base_backoff_s: f64,
    /// Backoff growth factor per attempt.
    pub multiplier: f64,
    /// Backoff ceiling in simulated seconds.
    pub cap_s: f64,
    /// Jitter as a fraction of the backoff (`0.1` = up to +10 %).
    pub jitter_fraction: f64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 3,
            base_backoff_s: 5.0,
            multiplier: 2.0,
            cap_s: 60.0,
            jitter_fraction: 0.1,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry `attempt` (1-based), in simulated seconds.
    /// The jitter is drawn from `(seed, attempt)` alone, so the same
    /// schedule always replays identically.
    pub fn backoff_seconds(&self, attempt: u32, seed: u64) -> f64 {
        debug_assert!(attempt >= 1, "retry attempts are 1-based");
        let n = attempt.max(1) - 1;
        // `multiplier.powi` overflows to `inf` long before large attempt
        // numbers reach the cap. Once the uncapped backoff would pass the
        // ceiling the schedule is constant, so short-circuit to `cap_s`
        // instead of evaluating the power.
        let exp = if self.base_backoff_s <= 0.0 {
            0.0
        } else if self.multiplier > 1.0 {
            let steps_to_cap = (self.cap_s.max(f64::MIN_POSITIVE) / self.base_backoff_s)
                .ln()
                .max(0.0)
                / self.multiplier.ln();
            if n as f64 >= steps_to_cap {
                self.cap_s
            } else {
                self.base_backoff_s * self.multiplier.powi(n as i32)
            }
        } else {
            // Non-growing multipliers only shrink with `n`; powi
            // underflows safely toward zero.
            let n = i32::try_from(n).unwrap_or(i32::MAX);
            self.base_backoff_s * self.multiplier.powi(n)
        };
        let capped = exp.min(self.cap_s);
        let mut rng = Rng::seed_from_u64(mix(seed, 0xB0FF ^ attempt as u64));
        capped * (1.0 + self.jitter_fraction * rng.gen_range(0.0..1.0))
    }
}

/// A per-phase wall-time budget in simulated seconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Deadline {
    limit_s: Option<f64>,
}

impl Deadline {
    /// A deadline of `limit_s` simulated seconds (`None` = unbounded).
    pub fn new(limit_s: Option<f64>) -> Deadline {
        Deadline { limit_s }
    }

    /// The configured limit, if any.
    pub fn limit_seconds(&self) -> Option<f64> {
        self.limit_s
    }

    /// Whether `spent_s` simulated seconds exceed the budget.
    pub fn exceeded(&self, spent_s: f64) -> bool {
        self.limit_s.is_some_and(|l| spent_s > l)
    }
}

/// Opens after a run of consecutive failures; any success closes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CircuitBreaker {
    threshold: u32,
    consecutive: u32,
}

impl CircuitBreaker {
    /// A breaker that opens at `threshold` consecutive failures.
    pub fn new(threshold: u32) -> CircuitBreaker {
        CircuitBreaker {
            threshold: threshold.max(1),
            consecutive: 0,
        }
    }

    /// Record a failure; returns whether the circuit is now open.
    pub fn record_failure(&mut self) -> bool {
        self.consecutive += 1;
        self.is_open()
    }

    /// Record a success, closing the circuit.
    pub fn record_success(&mut self) {
        self.consecutive = 0;
    }

    /// Whether the circuit is open (job must stop).
    pub fn is_open(&self) -> bool {
        self.consecutive >= self.threshold
    }
}

/// One rung of the graceful-degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeStep {
    /// Attach extra CXL capacity (slower tier, full quality).
    CxlExpansion {
        /// Bytes of expansion attached.
        bytes: u64,
    },
    /// Cap the nhmmer query window (alignments split across windows).
    RnaWindowCap {
        /// Window cap in nucleotides.
        cap: usize,
    },
    /// Reduce MSA depth and run searches single-threaded (shallower
    /// evolutionary signal for inference).
    MsaDepthCap {
        /// Maximum MSA depth fed to inference.
        depth: usize,
    },
}

impl fmt::Display for DegradeStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradeStep::CxlExpansion { bytes } => {
                write!(f, "cxl-expansion(+{} GiB)", bytes >> 30)
            }
            DegradeStep::RnaWindowCap { cap } => write!(f, "rna-window-cap({cap} nt)"),
            DegradeStep::MsaDepthCap { depth } => write!(f, "msa-depth-cap({depth})"),
        }
    }
}

/// Options for the resilient executor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResilienceOptions {
    /// Retry/backoff policy shared by both phases.
    pub retry: RetryPolicy,
    /// Wall-time budget for the MSA phase (simulated seconds).
    pub msa_deadline_s: Option<f64>,
    /// Wall-time budget for one inference attempt (simulated seconds).
    pub inference_deadline_s: Option<f64>,
    /// Consecutive failures before the circuit opens.
    pub breaker_threshold: u32,
    /// Checkpoint completed per-database searches so a kill redoes only
    /// the non-durable tail.
    pub checkpointing: bool,
    /// Enable the pre-flight graceful-degradation ladder.
    pub degradation: bool,
    /// Rung 1: CXL bytes to attach when the stock capacity rejects.
    pub cxl_expansion_bytes: u64,
    /// Rung 2: nhmmer window cap in nucleotides.
    pub rna_window_cap: usize,
    /// Rung 3: MSA depth ceiling (searches also drop to one thread).
    pub degraded_msa_depth: usize,
}

impl Default for ResilienceOptions {
    fn default() -> ResilienceOptions {
        ResilienceOptions {
            retry: RetryPolicy::default(),
            msa_deadline_s: None,
            inference_deadline_s: None,
            breaker_threshold: 4,
            checkpointing: true,
            degradation: true,
            cxl_expansion_bytes: 256 << 30,
            rna_window_cap: 900,
            degraded_msa_depth: 128,
        }
    }
}

/// Result of a resilient execution.
#[derive(Debug, Clone)]
pub struct ResilientResult {
    /// Sample name.
    pub sample: String,
    /// Platform.
    pub platform: Platform,
    /// Requested worker threads.
    pub threads: usize,
    /// Terminal outcome.
    pub outcome: RunOutcome,
    /// The pipeline result when the run finished (`None` for
    /// [`RunOutcome::Oom`] / [`RunOutcome::Failed`]).
    pub pipeline: Option<PipelineResult>,
    /// Retry attempts consumed across both phases.
    pub retries: u64,
    /// Simulated seconds lost to faults: redone non-durable work,
    /// wasted failed-phase time and retry backoffs.
    pub recovery_seconds: f64,
    /// Degradation rungs applied, in ladder order.
    pub degrade_steps: Vec<DegradeStep>,
    /// Every fault that fired, with its charged cost.
    pub fault_events: Vec<FaultEvent>,
    /// End-to-end simulated wall seconds including recovery overhead.
    pub wall_seconds: f64,
}

/// How far an injected abort got through the in-flight MSA attempt.
fn abort_fraction(kind: FaultKind) -> f64 {
    match kind {
        FaultKind::OomKill { at_fraction } | FaultKind::WorkerCrash { at_fraction } => {
            at_fraction.clamp(0.01, 1.0)
        }
        _ => 1.0,
    }
}

/// Record an instant event when a session is attached (the traced
/// executor's narration points: retries, deadline kills, breaker
/// transitions, checkpoint restores).
fn note(obs: &mut Option<&mut ObsSession>, at_s: f64, name: &str, attrs: &[(&str, Json)]) {
    if let Some(o) = obs.as_deref_mut() {
        o.tracer.instant_at(at_s, name);
        for (k, v) in attrs {
            o.tracer.instant_attr(*k, v.clone());
        }
    }
}

/// Record one retry: the instant plus a `backoff` span covering the
/// charged wait.
fn note_retry(
    obs: &mut Option<&mut ObsSession>,
    at_s: f64,
    phase: &str,
    attempt: u64,
    backoff_s: f64,
) {
    if let Some(o) = obs.as_deref_mut() {
        o.tracer.instant_at(at_s, "retry");
        o.tracer.instant_attr("phase", phase);
        o.tracer.instant_attr("attempt", attempt);
        o.tracer.instant_attr("backoff_seconds", backoff_s);
        o.tracer.closed_span("backoff", at_s, backoff_s);
        o.metrics.inc("resilience.retries", 1);
    }
}

/// The resilient executor's wall clock, expressed on the shared
/// discrete-event engine ([`SimEngine`]): work is charged with
/// [`ExecClock::advance`], retry backoffs sleep through a scheduled
/// wake-up event ([`ExecClock::wait`]), and phase budgets are armed as
/// cancellable `DeadlineExpired` timers. A timer counts as *expired*
/// only once the clock has moved **strictly** past its firing time —
/// exactly [`Deadline`]'s strict-`>` rule, so the engine-timer
/// executor accounts bit-identically to the old float arithmetic.
struct ExecClock {
    engine: SimEngine,
    /// `(timer, at_s)` of every `DeadlineExpired` pop so far. A timer
    /// popped exactly at the current clock has not elapsed yet; it
    /// becomes expired when the clock moves past `at_s`.
    fired: Vec<(TimerId, f64)>,
    waits: usize,
}

impl ExecClock {
    fn new() -> ExecClock {
        ExecClock {
            engine: SimEngine::new(),
            fired: Vec::new(),
            waits: 0,
        }
    }

    fn now(&self) -> f64 {
        self.engine.now_seconds()
    }

    /// Charge `seconds` of simulated work.
    fn advance(&mut self, seconds: f64) {
        self.engine.advance(seconds);
    }

    /// Arm `deadline` as a timer `limit` seconds from now (`None` when
    /// the deadline is unbounded).
    fn arm(&mut self, deadline: &Deadline) -> Option<TimerId> {
        deadline.limit_seconds().map(|l| {
            self.engine
                .schedule_in(l, Event::DeadlineExpired { request: 0 })
        })
    }

    /// Sleep through a retry backoff: schedule a wake-up event and pop
    /// the queue up to it. Deadline timers overtaken by the sleep are
    /// recorded for [`ExecClock::expired`].
    fn wait(&mut self, seconds: f64) {
        let wake = self.engine.schedule_in(
            seconds,
            Event::Arrival {
                request: self.waits,
            },
        );
        self.waits += 1;
        while let Some((at_s, event, id)) = self.engine.pop_with_id() {
            if id == wake {
                break;
            }
            debug_assert!(matches!(event, Event::DeadlineExpired { .. }));
            self.fired.push((id, at_s));
        }
    }

    /// Whether an armed timer has elapsed: drains everything strictly
    /// before the clock, then checks whether `timer` fired strictly in
    /// the past.
    fn expired(&mut self, timer: Option<TimerId>) -> bool {
        let Some(t) = timer else { return false };
        while self
            .engine
            .peek_time()
            .is_some_and(|at| at < self.engine.now_seconds())
        {
            let (at_s, _, id) = self.engine.pop_with_id().expect("peeked event exists");
            self.fired.push((id, at_s));
        }
        let now = self.engine.now_seconds();
        self.fired.iter().any(|&(id, at)| id == t && at < now)
    }

    /// Disarm a timer whose phase succeeded.
    fn disarm(&mut self, timer: Option<TimerId>) {
        if let Some(t) = timer {
            self.engine.cancel(t);
        }
    }
}

/// One attempt's budget: a `DeadlineExpired` timer on an attempt-local
/// clock. Each attempt measures its own wall time from zero, so the
/// strict `spent > limit` comparison stays exact no matter how far the
/// global clock has advanced.
struct AttemptBudget {
    engine: SimEngine,
    timer: Option<TimerId>,
}

impl AttemptBudget {
    fn arm(deadline: &Deadline) -> AttemptBudget {
        let mut engine = SimEngine::new();
        let timer = deadline
            .limit_seconds()
            .map(|l| engine.schedule_in(l, Event::DeadlineExpired { request: 0 }));
        AttemptBudget { engine, timer }
    }

    /// Charge the attempt's `seconds`; returns whether the budget
    /// timer fired strictly inside them.
    fn charge(&mut self, seconds: f64) -> bool {
        self.engine.advance(seconds);
        let expired = self.timer.is_some()
            && self
                .engine
                .peek_time()
                .is_some_and(|at| at < self.engine.now_seconds());
        if expired {
            self.engine.pop();
            self.timer = None;
        }
        expired
    }
}

/// Execute the pipeline under a fault plan with retries, deadlines,
/// checkpointing and graceful degradation.
///
/// With [`FaultPlan::none`] and default options on an admissible input
/// this reproduces [`crate::pipeline::run_pipeline`] exactly — same
/// phase results, zero retries, zero recovery seconds.
///
/// # Panics
///
/// Panics if `threads == 0`, or with the [`FaultPlan::validate`] error
/// of a plan holding a non-finite or out-of-range fault parameter.
pub fn run_resilient(
    data: &SampleSearchData,
    platform: Platform,
    threads: usize,
    pipeline_options: &PipelineOptions,
    options: &ResilienceOptions,
    plan: &FaultPlan,
) -> ResilientResult {
    run_resilient_impl(
        data,
        platform,
        threads,
        pipeline_options,
        options,
        plan,
        None,
    )
}

/// [`run_resilient`] with the run recorded into an [`ObsSession`]: a
/// `resilient_run` root span holding every attempt span, phase trace and
/// backoff window, plus one instant event per injected fault
/// (`fault:<kind>` at its simulated firing time), retry, checkpoint
/// restore, circuit-breaker transition, deadline kill and degradation
/// rung. Identical accounting to the untraced executor — the returned
/// result is byte-for-byte the same.
pub fn run_resilient_traced(
    data: &SampleSearchData,
    platform: Platform,
    threads: usize,
    pipeline_options: &PipelineOptions,
    options: &ResilienceOptions,
    plan: &FaultPlan,
    obs: &mut ObsSession,
) -> ResilientResult {
    obs.tracer.begin("resilient_run");
    obs.tracer.attr("sample", data.sample.id.name());
    obs.tracer.attr("platform", platform.to_string());
    obs.tracer.attr("threads", threads as u64);
    obs.tracer.attr("seed", pipeline_options.seed);
    let result = run_resilient_impl(
        data,
        platform,
        threads,
        pipeline_options,
        options,
        plan,
        Some(obs),
    );
    // The injector's event log is the authoritative fault record — one
    // instant per fired fault, stamped at its simulated firing time.
    for step in &result.degrade_steps {
        obs.tracer.instant_at(0.0, format!("degrade:{step}"));
        obs.metrics.inc("resilience.degrade_rungs", 1);
    }
    for e in &result.fault_events {
        obs.tracer
            .instant_at(e.at_s, format!("fault:{}", e.kind.label()));
        obs.tracer.instant_attr("site", e.site.to_string());
        obs.tracer.instant_attr("lost_seconds", e.lost_s);
        obs.metrics
            .inc(&format!("resilience.faults.{}", e.kind.label()), 1);
    }
    obs.tracer.set_clock(result.wall_seconds);
    obs.tracer.instant(format!("outcome:{}", result.outcome));
    obs.metrics
        .inc(&format!("resilience.outcome.{}", result.outcome), 1);
    obs.metrics
        .set_gauge("resilience.wall_seconds", result.wall_seconds);
    obs.metrics
        .set_gauge("resilience.recovery_seconds", result.recovery_seconds);
    obs.tracer.end_all();
    result
}

fn run_resilient_impl(
    data: &SampleSearchData,
    platform: Platform,
    threads: usize,
    pipeline_options: &PipelineOptions,
    options: &ResilienceOptions,
    plan: &FaultPlan,
    mut obs: Option<&mut ObsSession>,
) -> ResilientResult {
    assert!(threads > 0, "need at least one thread");
    if let Err(e) = plan.validate() {
        panic!("{e}");
    }
    let mut injector = plan.injector();
    let mut retries = 0u64;
    let mut recovery_seconds = 0.0;
    // The wall clock: one engine drives work charges, backoff sleeps
    // and deadline timers, and the injector is kept on it via
    // `sync_to` — one clock across executor and fault delivery.
    let mut clock = ExecClock::new();
    let mut degrade_steps = Vec::new();
    let mut msa_opts = pipeline_options.msa;
    let mut eff_threads = threads;
    let mut msa_depth = data.msa_depth;
    let seed = pipeline_options.seed;

    // Pre-flight: the §VI static estimator drives the degradation
    // ladder *before* any simulated work is spent, which is the whole
    // point — the paper's pipeline discovers OOM only after hours.
    if options.degradation {
        let estimator = MemoryEstimator::new(threads);
        let assembly = &data.sample.assembly;
        let stock = CapacityModel::new(&platform.spec());
        let peak = estimator.msa_peak_bytes(assembly);
        if !stock.admit(peak).completes() {
            msa_opts.cxl_expansion_bytes = options.cxl_expansion_bytes;
            degrade_steps.push(DegradeStep::CxlExpansion {
                bytes: options.cxl_expansion_bytes,
            });
            let expanded = stock.clone().with_extra_cxl(options.cxl_expansion_bytes);
            if !expanded.admit(peak).completes() {
                msa_opts.rna_window_cap = Some(options.rna_window_cap);
                degrade_steps.push(DegradeStep::RnaWindowCap {
                    cap: options.rna_window_cap,
                });
                let capped =
                    estimator.msa_peak_bytes_capped(assembly, Some(options.rna_window_cap));
                if !expanded.admit(capped).completes() {
                    eff_threads = 1;
                    msa_depth = msa_depth.min(options.degraded_msa_depth);
                    degrade_steps.push(DegradeStep::MsaDepthCap {
                        depth: options.degraded_msa_depth,
                    });
                }
            }
        }
    }

    let fail = |outcome: RunOutcome,
                retries: u64,
                recovery_seconds: f64,
                degrade_steps: Vec<DegradeStep>,
                injector: &FaultInjector,
                wall_seconds: f64| ResilientResult {
        sample: data.sample.id.name().to_owned(),
        platform,
        threads,
        outcome,
        pipeline: None,
        retries,
        recovery_seconds,
        degrade_steps,
        fault_events: injector.events().to_vec(),
        wall_seconds,
    };

    // ---- MSA phase: attempt loop with checkpoint-aware recovery ----
    //
    // Durable progress is tracked as a fraction of the phase; the
    // checkpoint granularity is one completed per-database search, so a
    // kill at fraction `k` preserves `floor(k·units)/units` of the work
    // when checkpointing is on, and nothing otherwise.
    let units = data
        .chains
        .iter()
        .map(|c| c.per_db.len())
        .sum::<usize>()
        .max(1) as f64;
    let mut breaker = CircuitBreaker::new(options.breaker_threshold);
    let mut breaker_tripped = false;
    // The MSA budget as an engine timer: the phase starts at clock
    // zero, so the timer sits at the limit itself and `expired` is the
    // strict `spent > limit` rule on the shared clock.
    let msa_timer = clock.arm(&Deadline::new(options.msa_deadline_s));
    let mut progress = 0.0f64;

    let msa: MsaPhaseResult = loop {
        if let Some(kind) = injector.poll(FaultSite::MsaAbort) {
            // The attempt dies part-way through its remaining work.
            let clean = msa_phase::run_msa_phase(data, platform, eff_threads, &msa_opts);
            if !clean.outcome.finished() {
                // Genuine OOM: the kill is moot, the admission check
                // already rejects the job.
                note(
                    &mut obs,
                    clock.now(),
                    "admission-reject",
                    &[("phase", "msa".into())],
                );
                return fail(
                    RunOutcome::Oom,
                    retries,
                    recovery_seconds,
                    degrade_steps,
                    &injector,
                    clock.now(),
                );
            }
            let full = clean.wall_seconds();
            let kill_at = progress + abort_fraction(kind) * (1.0 - progress);
            let spent_this = (kill_at - progress) * full;
            let durable = if options.checkpointing {
                ((kill_at * units).floor() / units).max(progress)
            } else {
                0.0
            };
            let wasted = (kill_at - durable) * full;
            injector.charge(wasted);
            if let Some(o) = obs.as_deref_mut() {
                let id = o
                    .tracer
                    .closed_span("msa_attempt_aborted", clock.now(), spent_this);
                o.tracer.span_attr(id, "fault", kind.label());
                o.tracer.span_attr(id, "kill_fraction", kill_at);
                o.tracer.span_attr(id, "durable_fraction", durable);
                o.tracer.span_attr(id, "wasted_seconds", wasted);
            }
            retries += 1;
            clock.advance(spent_this);
            let open = breaker.record_failure();
            breaker_tripped = true;
            if open || retries > options.retry.max_retries as u64 {
                let name = if open {
                    "circuit-open"
                } else {
                    "retry-budget-exhausted"
                };
                note(&mut obs, clock.now(), name, &[("phase", "msa".into())]);
                return fail(
                    RunOutcome::Failed,
                    retries,
                    recovery_seconds,
                    degrade_steps,
                    &injector,
                    clock.now(),
                );
            }
            let backoff = options.retry.backoff_seconds(retries as u32, seed);
            note_retry(&mut obs, clock.now(), "msa", retries, backoff);
            recovery_seconds += wasted + backoff;
            clock.wait(backoff);
            injector.sync_to(clock.now());
            progress = durable;
            if options.checkpointing && progress > 0.0 {
                note(
                    &mut obs,
                    clock.now(),
                    "checkpoint-restore",
                    &[("durable_fraction", progress.into())],
                );
                if let Some(o) = obs.as_deref_mut() {
                    o.metrics.inc("resilience.checkpoint_restores", 1);
                }
            }
            if clock.expired(msa_timer) {
                note(
                    &mut obs,
                    clock.now(),
                    "deadline-exceeded",
                    &[("phase", "msa".into())],
                );
                return fail(
                    RunOutcome::Failed,
                    retries,
                    recovery_seconds,
                    degrade_steps,
                    &injector,
                    clock.now(),
                );
            }
            continue;
        }

        // No abort pending: run the attempt, absorbing storage and
        // straggler faults into its wall time.
        let r =
            msa_phase::run_msa_phase_faulted(data, platform, eff_threads, &msa_opts, &mut injector);
        if !r.outcome.finished() {
            note(
                &mut obs,
                clock.now(),
                "admission-reject",
                &[("phase", "msa".into())],
            );
            return fail(
                RunOutcome::Oom,
                retries,
                recovery_seconds,
                degrade_steps,
                &injector,
                clock.now(),
            );
        }
        breaker.record_success();
        if breaker_tripped {
            note(&mut obs, clock.now(), "circuit-closed", &[]);
            breaker_tripped = false;
        }
        let attempt = (1.0 - progress) * r.wall_seconds();
        if let Some(o) = obs.as_deref_mut() {
            o.tracer.set_clock(clock.now());
            crate::trace::record_msa_phase_window(data, &r, o, attempt);
        }
        clock.advance(attempt);
        injector.sync_to(clock.now());
        if clock.expired(msa_timer) {
            note(
                &mut obs,
                clock.now(),
                "deadline-exceeded",
                &[("phase", "msa".into())],
            );
            return fail(
                RunOutcome::Failed,
                retries,
                recovery_seconds,
                degrade_steps,
                &injector,
                clock.now(),
            );
        }
        clock.disarm(msa_timer);
        break r;
    };

    // ---- Inference phase: init-failure retries + compile deadline ----
    let inference_options = InferenceOptions {
        model: pipeline_options.model.unwrap_or_else(ModelConfig::paper),
        msa_depth,
        threads,
        seed: seed ^ 0x99,
    };
    let inference_deadline = Deadline::new(options.inference_deadline_s);

    let inference: InferencePhaseResult = loop {
        // Each attempt arms its own budget timer on an attempt-local
        // clock (per-attempt budgets restart from zero).
        let mut budget = AttemptBudget::arm(&inference_deadline);
        match inference_phase::run_inference_phase_faulted(
            &data.sample.assembly,
            platform,
            &inference_options,
            &mut injector,
        ) {
            Err(fault) => {
                if let Some(o) = obs.as_deref_mut() {
                    let id = o.tracer.closed_span(
                        "inference_attempt_failed",
                        clock.now(),
                        fault.wasted_seconds,
                    );
                    o.tracer
                        .span_attr(id, "wasted_seconds", fault.wasted_seconds);
                }
                retries += 1;
                clock.advance(fault.wasted_seconds);
                let open = breaker.record_failure();
                breaker_tripped = true;
                if open || retries > options.retry.max_retries as u64 {
                    let name = if open {
                        "circuit-open"
                    } else {
                        "retry-budget-exhausted"
                    };
                    note(
                        &mut obs,
                        clock.now(),
                        name,
                        &[("phase", "inference".into())],
                    );
                    return fail(
                        RunOutcome::Failed,
                        retries,
                        recovery_seconds,
                        degrade_steps,
                        &injector,
                        clock.now(),
                    );
                }
                let backoff = options.retry.backoff_seconds(retries as u32, seed);
                note_retry(&mut obs, clock.now(), "inference", retries, backoff);
                recovery_seconds += fault.wasted_seconds + backoff;
                clock.wait(backoff);
                injector.sync_to(clock.now());
            }
            Ok(r) => {
                let t = r.wall_seconds();
                if budget.charge(t) {
                    // A stalled compile blew the phase budget: the
                    // attempt is killed at the deadline and retried
                    // (the stall fault is consumed, so the retry
                    // compiles at normal speed).
                    let limit = inference_deadline
                        .limit_seconds()
                        .expect("an expired budget implies a limit");
                    if let Some(o) = obs.as_deref_mut() {
                        let id =
                            o.tracer
                                .closed_span("inference_attempt_timeout", clock.now(), limit);
                        o.tracer.span_attr(id, "limit_seconds", limit);
                    }
                    note(
                        &mut obs,
                        clock.now() + limit,
                        "deadline-exceeded",
                        &[("phase", "inference".into())],
                    );
                    retries += 1;
                    clock.advance(limit);
                    let open = breaker.record_failure();
                    breaker_tripped = true;
                    if open || retries > options.retry.max_retries as u64 {
                        let name = if open {
                            "circuit-open"
                        } else {
                            "retry-budget-exhausted"
                        };
                        note(
                            &mut obs,
                            clock.now(),
                            name,
                            &[("phase", "inference".into())],
                        );
                        return fail(
                            RunOutcome::Failed,
                            retries,
                            recovery_seconds,
                            degrade_steps,
                            &injector,
                            clock.now(),
                        );
                    }
                    let backoff = options.retry.backoff_seconds(retries as u32, seed);
                    note_retry(&mut obs, clock.now(), "inference", retries, backoff);
                    recovery_seconds += limit + backoff;
                    clock.wait(backoff);
                    injector.sync_to(clock.now());
                    continue;
                }
                breaker.record_success();
                if breaker_tripped {
                    note(&mut obs, clock.now(), "circuit-closed", &[]);
                }
                if let Some(o) = obs.as_deref_mut() {
                    o.tracer.set_clock(clock.now());
                    crate::trace::record_inference_phase(&r, o);
                }
                clock.advance(t);
                injector.sync_to(clock.now());
                break r;
            }
        }
    };

    let mut inference = inference;
    if degrade_steps
        .iter()
        .any(|s| matches!(s, DegradeStep::MsaDepthCap { .. }))
    {
        inference.outcome = inference.outcome.max(RunOutcome::Degraded);
    }
    let pipeline = PipelineResult {
        sample: data.sample.id.name().to_owned(),
        platform,
        threads,
        msa,
        inference,
    };
    let ladder = if degrade_steps.is_empty() {
        RunOutcome::Completed
    } else {
        RunOutcome::Degraded
    };
    let outcome = pipeline.outcome().max(ladder);
    ResilientResult {
        sample: data.sample.id.name().to_owned(),
        platform,
        threads,
        outcome,
        pipeline: Some(pipeline),
        retries,
        recovery_seconds,
        degrade_steps,
        fault_events: injector.events().to_vec(),
        wall_seconds: clock.now(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_severity_ordering() {
        assert!(RunOutcome::Completed < RunOutcome::Degraded);
        assert!(RunOutcome::Degraded < RunOutcome::Oom);
        assert!(RunOutcome::Oom < RunOutcome::Failed);
        assert_eq!(RunOutcome::Completed.max(RunOutcome::Oom), RunOutcome::Oom);
    }

    #[test]
    fn outcome_labels_roundtrip() {
        for o in [
            RunOutcome::Completed,
            RunOutcome::Degraded,
            RunOutcome::Oom,
            RunOutcome::Failed,
        ] {
            assert_eq!(RunOutcome::parse(o.as_str()), Some(o));
            assert_eq!(o.to_string(), o.as_str());
        }
        assert_eq!(RunOutcome::parse("nope"), None);
    }

    #[test]
    fn backoff_grows_caps_and_replays() {
        let p = RetryPolicy::default();
        let b1 = p.backoff_seconds(1, 7);
        let b2 = p.backoff_seconds(2, 7);
        let b9 = p.backoff_seconds(9, 7);
        assert!(b1 >= p.base_backoff_s && b1 <= p.base_backoff_s * 1.1);
        assert!(b2 > b1, "backoff must grow");
        assert!(b9 <= p.cap_s * 1.1, "backoff must cap: {b9}");
        assert_eq!(b1, p.backoff_seconds(1, 7), "same seed, same jitter");
        assert_ne!(b1, p.backoff_seconds(1, 8), "seed changes jitter");
    }

    #[test]
    fn deadline_semantics() {
        let d = Deadline::new(Some(100.0));
        assert!(!d.exceeded(100.0));
        assert!(d.exceeded(100.1));
        assert!(!Deadline::new(None).exceeded(1e12));
    }

    #[test]
    fn breaker_opens_and_closes() {
        let mut b = CircuitBreaker::new(2);
        assert!(!b.record_failure());
        assert!(b.record_failure());
        assert!(b.is_open());
        b.record_success();
        assert!(!b.is_open());
    }

    #[test]
    fn degrade_step_display() {
        assert_eq!(
            DegradeStep::CxlExpansion { bytes: 256 << 30 }.to_string(),
            "cxl-expansion(+256 GiB)"
        );
        assert_eq!(
            DegradeStep::RnaWindowCap { cap: 900 }.to_string(),
            "rna-window-cap(900 nt)"
        );
        assert_eq!(
            DegradeStep::MsaDepthCap { depth: 128 }.to_string(),
            "msa-depth-cap(128)"
        );
    }
}
