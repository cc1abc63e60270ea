//! The resilience layer: retries, deadlines, checkpoint-aware recovery
//! and graceful degradation around the simulated AF3 pipeline.
//!
//! The paper documents a brittle pipeline: no admission check, so a
//! long-RNA job burns hours of MSA and then dies on an OOM kill
//! (§III-C); a single mid-scan worker failure discards the whole search.
//! This module is the serving-stack answer the paper's §VI gestures at:
//!
//! - [`RetryPolicy`] — capped exponential backoff with deterministic
//!   jitter, charged in *simulated* seconds; a run that spends its retry
//!   budget lands in a terminal [`RunOutcome::Failed`],
//! - [`Deadline`] — the wall-time budget of one inference attempt (an
//!   XLA compile stall becomes a timeout instead of a hang),
//! - the graceful-degradation ladder ([`DegradeStep`]) driven by the
//!   §VI static estimator: CXL-tier expansion, then an nhmmer window
//!   cap, then reduced MSA depth — each trading quality for survival,
//! - [`run_resilient`] — the executor tying it together over a seeded
//!   [`FaultPlan`], with per-search checkpointing so a mid-MSA kill
//!   redoes only the non-durable tail of the work.
//!
//! Everything is deterministic: the same inputs, options and fault plan
//! produce the same [`RunOutcome`], the same retry/recovery accounting
//! and byte-identical serialized reports.

use crate::context::SampleSearchData;
use crate::estimator::MemoryEstimator;
use crate::inference_phase::{self, InferenceOptions, InferencePhaseResult};
use crate::msa_phase::{self, MsaPhaseOptions, MsaPhaseResult};
use crate::pipeline::{PipelineOptions, PipelineResult};
use afsb_model::ModelConfig;
use afsb_rt::fault::{FaultEvent, FaultInjector, FaultKind, FaultPlan, FaultSite};
use afsb_rt::obs::ObsSession;
use afsb_rt::rng::{mix, Rng};
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
    /// Terminally failed: the retry budget ran out.
    Failed,
}

impl RunOutcome {
    /// Whether the run produced a structure (possibly degraded).
    pub fn finished(self) -> bool {
        matches!(self, RunOutcome::Completed | RunOutcome::Degraded)
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

/// A wall-time budget in simulated seconds: one inference attempt's
/// here, one request's latency in the serving loop.
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

/// Rung 1 of the ladder: CXL bytes attached when the stock capacity
/// rejects the job.
const CXL_EXPANSION_BYTES: u64 = 256 << 30;

/// Rung 2 of the ladder: the nhmmer window cap in nucleotides.
const RNA_WINDOW_CAP: usize = 900;

/// The MsaDepthCap rung's MSA depth ceiling, shared by this executor's
/// ladder (rung 3, which also drops searches to one thread) and the
/// serving loop's degradation rung.
pub const DEGRADED_MSA_DEPTH: usize = 128;

/// Options for the resilient executor. Retries follow
/// `RetryPolicy::default()`; the ladder is always armed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResilienceOptions {
    /// Wall-time budget for one inference attempt (simulated seconds).
    pub inference_deadline_s: Option<f64>,
    /// Checkpoint completed per-database searches so a kill redoes only
    /// the non-durable tail.
    pub checkpointing: bool,
}

impl Default for ResilienceOptions {
    fn default() -> ResilienceOptions {
        ResilienceOptions {
            inference_deadline_s: None,
            checkpointing: true,
        }
    }
}

impl ResilienceOptions {
    /// Check the inference deadline, returning an error that names the
    /// field: a NaN, infinite or non-positive budget would decide every
    /// attempt's timeout wrongly instead of failing up front.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(limit) = self.inference_deadline_s {
            if !(limit > 0.0 && limit.is_finite()) {
                return Err(format!(
                    "resilience: inference_deadline_s must be positive and finite, got {limit}"
                ));
            }
        }
        Ok(())
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
/// of a plan holding a non-finite or out-of-range fault parameter, or
/// with the [`ResilienceOptions::validate`] error of a degenerate
/// inference deadline.
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
/// restore, deadline kill, exhausted retry budget and degradation
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
    obs: Option<&mut ObsSession>,
) -> ResilientResult {
    assert!(threads > 0, "need at least one thread");
    if let Err(e) = plan.validate().and_then(|()| options.validate()) {
        panic!("{e}");
    }
    let mut degrade_steps = Vec::new();
    let mut msa_opts = pipeline_options.msa;
    let mut eff_threads = threads;
    let mut msa_depth = data.msa_depth;

    // Pre-flight: the §VI static estimator drives the degradation
    // ladder *before* any simulated work is spent, which is the whole
    // point — the paper's pipeline discovers OOM only after hours.
    let estimator = MemoryEstimator::new(threads);
    let assembly = &data.sample.assembly;
    let stock = CapacityModel::new(&platform.spec());
    let peak = estimator.msa_peak_bytes(assembly);
    if !stock.admit(peak).completes() {
        msa_opts.cxl_expansion_bytes = CXL_EXPANSION_BYTES;
        degrade_steps.push(DegradeStep::CxlExpansion {
            bytes: CXL_EXPANSION_BYTES,
        });
        let expanded = stock.with_extra_cxl(CXL_EXPANSION_BYTES);
        if !expanded.admit(peak).completes() {
            msa_opts.rna_window_cap = Some(RNA_WINDOW_CAP);
            degrade_steps.push(DegradeStep::RnaWindowCap {
                cap: RNA_WINDOW_CAP,
            });
            let capped = estimator.msa_peak_bytes_capped(assembly, Some(RNA_WINDOW_CAP));
            if !expanded.admit(capped).completes() {
                eff_threads = 1;
                msa_depth = msa_depth.min(DEGRADED_MSA_DEPTH);
                degrade_steps.push(DegradeStep::MsaDepthCap {
                    depth: DEGRADED_MSA_DEPTH,
                });
            }
        }
    }

    let mut run = Attempts {
        now: 0.0,
        retries: 0,
        recovery_seconds: 0.0,
        injector: plan.injector(),
        obs,
        seed: pipeline_options.seed,
    };
    let inference_options = InferenceOptions {
        model: pipeline_options.model.unwrap_or_else(ModelConfig::paper),
        msa_depth,
        threads,
        seed: pipeline_options.seed ^ 0x99,
    };
    let deadline = Deadline::new(options.inference_deadline_s);
    let phases = run
        .msa(
            data,
            platform,
            eff_threads,
            &msa_opts,
            options.checkpointing,
        )
        .and_then(|msa| {
            let inference = run.inference(data, platform, &inference_options, deadline)?;
            Ok((msa, inference))
        });
    let (outcome, pipeline) = match phases {
        Ok((msa, mut inference)) => {
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
            (pipeline.outcome().max(ladder), Some(pipeline))
        }
        Err(outcome) => (outcome, None),
    };
    ResilientResult {
        sample: data.sample.id.name().to_owned(),
        platform,
        threads,
        outcome,
        pipeline,
        retries: run.retries,
        recovery_seconds: run.recovery_seconds,
        degrade_steps,
        fault_events: run.injector.events().to_vec(),
        wall_seconds: run.now,
    }
}

/// The executor's running accounts: the simulated wall clock, the retry
/// budget and the trace they narrate into. Once the plan and the options
/// are validated every charge is finite and non-negative, so the clock
/// is a plain sum.
struct Attempts<'a> {
    now: f64,
    retries: u64,
    recovery_seconds: f64,
    injector: FaultInjector,
    obs: Option<&'a mut ObsSession>,
    seed: u64,
}

impl Attempts<'_> {
    /// Record an instant event when a session is attached (the traced
    /// executor's narration points: deadline kills, an exhausted retry
    /// budget, checkpoint restores, admission rejects).
    fn note(&mut self, at_s: f64, name: &str, attrs: &[(&str, Json)]) {
        if let Some(o) = self.obs.as_deref_mut() {
            o.tracer.instant_at(at_s, name);
            for (k, v) in attrs {
                o.tracer.instant_attr(*k, v.clone());
            }
        }
    }

    /// One failed attempt of `phase` that ran `spent_s` and lost
    /// `lost_s`: count it against the retry budget, then either stop
    /// (`false`, noted as `retry-budget-exhausted`) or sleep through the
    /// backoff, recorded as a `retry` instant and a `backoff` span, and
    /// book the loss plus the backoff as recovery (`true`).
    fn retry(&mut self, phase: &str, spent_s: f64, lost_s: f64) -> bool {
        let policy = RetryPolicy::default();
        self.retries += 1;
        self.now += spent_s;
        if self.retries > policy.max_retries as u64 {
            self.note(
                self.now,
                "retry-budget-exhausted",
                &[("phase", phase.into())],
            );
            return false;
        }
        let backoff = policy.backoff_seconds(self.retries as u32, self.seed);
        if let Some(o) = self.obs.as_deref_mut() {
            o.tracer.instant_at(self.now, "retry");
            o.tracer.instant_attr("phase", phase);
            o.tracer.instant_attr("attempt", self.retries);
            o.tracer.instant_attr("backoff_seconds", backoff);
            o.tracer.closed_span("backoff", self.now, backoff);
            o.metrics.inc("resilience.retries", 1);
        }
        self.recovery_seconds += lost_s + backoff;
        self.now += backoff;
        self.injector.sync_to(self.now);
        true
    }

    /// The MSA phase's attempt loop with checkpoint-aware recovery.
    ///
    /// Durable progress is tracked as a fraction of the phase; the
    /// checkpoint granularity is one completed per-database search, so
    /// a kill at fraction `k` preserves `floor(k·units)/units` of the
    /// work when checkpointing is on, and nothing otherwise.
    fn msa(
        &mut self,
        data: &SampleSearchData,
        platform: Platform,
        threads: usize,
        opts: &MsaPhaseOptions,
        checkpointing: bool,
    ) -> Result<MsaPhaseResult, RunOutcome> {
        let units = data
            .chains
            .iter()
            .map(|c| c.per_db.len())
            .sum::<usize>()
            .max(1) as f64;
        let mut progress = 0.0f64;
        loop {
            // A pending abort kills the attempt part-way through its
            // remaining work, priced from the clean run; otherwise the
            // attempt absorbs storage and straggler faults into its
            // wall time.
            let abort = self.injector.poll(FaultSite::MsaAbort);
            let r = match abort {
                Some(_) => msa_phase::run_msa_phase(data, platform, threads, opts),
                None => msa_phase::run_msa_phase_faulted(
                    data,
                    platform,
                    threads,
                    opts,
                    &mut self.injector,
                ),
            };
            if !r.outcome.finished() {
                // Genuine OOM: a pending kill is moot, the admission
                // check already rejects the job.
                self.note(self.now, "admission-reject", &[("phase", "msa".into())]);
                return Err(RunOutcome::Oom);
            }
            let Some(kind) = abort else {
                let attempt = (1.0 - progress) * r.wall_seconds();
                if let Some(o) = self.obs.as_deref_mut() {
                    o.tracer.set_clock(self.now);
                    crate::trace::record_msa_phase_window(data, &r, o, attempt);
                }
                self.now += attempt;
                self.injector.sync_to(self.now);
                return Ok(r);
            };
            let full = r.wall_seconds();
            let kill_at = progress + abort_fraction(kind) * (1.0 - progress);
            let spent_this = (kill_at - progress) * full;
            let durable = if checkpointing {
                ((kill_at * units).floor() / units).max(progress)
            } else {
                0.0
            };
            let wasted = (kill_at - durable) * full;
            self.injector.charge(wasted);
            if let Some(o) = self.obs.as_deref_mut() {
                let id = o
                    .tracer
                    .closed_span("msa_attempt_aborted", self.now, spent_this);
                o.tracer.span_attr(id, "fault", kind.label());
                o.tracer.span_attr(id, "kill_fraction", kill_at);
                o.tracer.span_attr(id, "durable_fraction", durable);
                o.tracer.span_attr(id, "wasted_seconds", wasted);
            }
            if !self.retry("msa", spent_this, wasted) {
                return Err(RunOutcome::Failed);
            }
            progress = durable;
            if checkpointing && progress > 0.0 {
                self.note(
                    self.now,
                    "checkpoint-restore",
                    &[("durable_fraction", progress.into())],
                );
                if let Some(o) = self.obs.as_deref_mut() {
                    o.metrics.inc("resilience.checkpoint_restores", 1);
                }
            }
        }
    }

    /// The inference phase's attempt loop: an injected init failure
    /// retries, and an attempt past `deadline` is killed at the limit
    /// and retried (the stall fault is consumed, so the retry compiles
    /// at normal speed).
    fn inference(
        &mut self,
        data: &SampleSearchData,
        platform: Platform,
        options: &InferenceOptions,
        deadline: Deadline,
    ) -> Result<InferencePhaseResult, RunOutcome> {
        loop {
            let r = match inference_phase::run_inference_phase_faulted(
                &data.sample.assembly,
                platform,
                options,
                &mut self.injector,
            ) {
                Ok(r) => r,
                Err(fault) => {
                    if let Some(o) = self.obs.as_deref_mut() {
                        let id = o.tracer.closed_span(
                            "inference_attempt_failed",
                            self.now,
                            fault.wasted_seconds,
                        );
                        o.tracer
                            .span_attr(id, "wasted_seconds", fault.wasted_seconds);
                    }
                    if !self.retry("inference", fault.wasted_seconds, fault.wasted_seconds) {
                        return Err(RunOutcome::Failed);
                    }
                    continue;
                }
            };
            let t = r.wall_seconds();
            if deadline.exceeded(t) {
                let limit = deadline
                    .limit_seconds()
                    .expect("an exceeded deadline has a limit");
                if let Some(o) = self.obs.as_deref_mut() {
                    let id = o
                        .tracer
                        .closed_span("inference_attempt_timeout", self.now, limit);
                    o.tracer.span_attr(id, "limit_seconds", limit);
                }
                self.note(
                    self.now + limit,
                    "deadline-exceeded",
                    &[("phase", "inference".into())],
                );
                if !self.retry("inference", limit, limit) {
                    return Err(RunOutcome::Failed);
                }
                continue;
            }
            if let Some(o) = self.obs.as_deref_mut() {
                o.tracer.set_clock(self.now);
                crate::trace::record_inference_phase(&r, o);
            }
            self.now += t;
            self.injector.sync_to(self.now);
            return Ok(r);
        }
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
    fn outcome_labels_display_as_themselves() {
        for (o, label) in [
            (RunOutcome::Completed, "completed"),
            (RunOutcome::Degraded, "degraded"),
            (RunOutcome::Oom, "oom"),
            (RunOutcome::Failed, "failed"),
        ] {
            assert_eq!(o.as_str(), label);
            assert_eq!(o.to_string(), label);
        }
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
    fn options_validate_the_inference_deadline() {
        assert_eq!(ResilienceOptions::default().validate(), Ok(()));
        let with = |limit| ResilienceOptions {
            inference_deadline_s: Some(limit),
            ..ResilienceOptions::default()
        };
        assert_eq!(with(1.5).validate(), Ok(()));
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -1.0] {
            let err = with(bad).validate().expect_err("degenerate deadline");
            assert!(err.contains("inference_deadline_s"), "{bad}: {err}");
        }
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
