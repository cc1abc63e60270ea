//! Fault-tolerant serving: the fault plan and the recovery policy that
//! answers it, the chaos report and the `serve-chaos` matrix.
//!
//! [`run_serve_chaos`] is the one serving loop ([`crate::scheduler`])
//! under plain FIFO; [`crate::server::run_serve`] is it under an empty
//! plan ("how fast is serving when nothing breaks"). With a plan armed
//! it answers "how does it degrade when everything does":
//!
//! - **Fault wiring** — every fault of a [`FaultPlan`] is scheduled as
//!   an `Event::Fault` on the serving engine and delivered through a
//!   per-run `FaultInjector`: kills abort the running MSA job on a
//!   CPU worker (redone from the last jackhmmer checkpoint, not from
//!   zero) and free the worker for the next queued request, stragglers
//!   stretch one running job, storage faults stall or re-read
//!   in-flight feature loads (a device stall also stretches every
//!   running MSA job), GPU init failures force a priced re-init that
//!   drops the in-process XLA cache, and compile stalls inflate the
//!   next batch's `xla_compile` spans.
//! - **Recovery policy** — a per-request attempt budget with capped
//!   exponential backoff ([`RetryPolicy`]) requeues killed MSA jobs, a
//!   worker-pool `CircuitBreaker` parks requeues while open,
//!   deadline-aware load shedding drops still-waiting requests whose
//!   deadline expired, and a request that enters the MSA queue behind a
//!   deep backlog steps down the `DegradeStep::MsaDepthCap` rung of
//!   the `core::resilience` ladder (reduced MSA depth ⇒ cheaper
//!   searches at lower quality).
//! - **Dispositions** — every admitted request terminates in exactly
//!   one [`Disposition`] (completed | degraded | shed | failed), the
//!   request-conservation invariant checked by
//!   [`ChaosReport::conserves_requests`].
//!
//! With an *empty* plan the loop makes no extra engine or tracer calls
//! and charges nothing, so it reduces bit-for-bit to the frozen seed
//! scheduler in [`crate::reference`] — `tests/equivalence.rs` pins
//! report, outcomes, metrics text and Chrome trace byte-identical.

use crate::policy::PolicyConfig;
use crate::scheduler::run_serve_policy;
use crate::server::{non_negative, CostTable, ServeConfig, ServeReport};
use afsb_core::report::ascii_table;
use afsb_core::resilience::RetryPolicy;
use afsb_rt::fault::{FaultEvent, FaultKind, FaultPlan};
use afsb_rt::obs::ObsSession;
use std::fmt;
use std::fmt::Write as _;

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
    /// `DegradeStep::MsaDepthCap` parameter).
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

    /// Whether any chaos machinery is armed. Shedding, the recovery
    /// degradation threshold, the chaos metrics and the render block are
    /// gated on this, which is what makes the empty-plan run
    /// ([`crate::server::run_serve`]) bit-identical to the frozen seed
    /// scheduler.
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

/// Run the serving loop under a fault plan with plain FIFO dispatch:
/// [`run_serve_policy`] under [`PolicyConfig::fifo`].
///
/// Identical contract to [`crate::server::run_serve`] (which is this
/// call under [`ChaosConfig::none`]), plus a [`ChaosConfig`]. A fresh
/// `FaultInjector` is built from the plan *inside this call* (one
/// injector per run — see [`FaultPlan::injector`]), so a long-lived
/// `ChaosConfig` can drive any number of runs without double-firing.
///
/// # Panics
///
/// Panics with the validation error of a degenerate config, cost
/// table, recovery policy or fault plan.
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
    use afsb_seq::samples::SampleId;
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

    /// Serve eight requests on a flat synthetic cost table under `chaos`.
    fn tiny_chaos_run(chaos: &ChaosConfig) -> ChaosReport {
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
        run_serve_chaos(&config, chaos, &costs, &mut ObsSession::new())
    }

    #[test]
    #[should_panic(expected = "breaker_cooldown_s")]
    fn nan_breaker_cooldown_panics_naming_the_field() {
        // Used to surface as "event time must be finite" once the
        // breaker opened and scheduled its close.
        tiny_chaos_run(&ChaosConfig {
            plan: FaultPlan::none().with_at(FaultKind::WorkerCrash { at_fraction: 0.0 }, 1.0),
            policy: RecoveryPolicy {
                breaker_cooldown_s: f64::NAN,
                ..RecoveryPolicy::standard()
            },
        });
    }

    /// A plan whose one fault is a storage stall of `stall_seconds`.
    fn stall(stall_seconds: f64) -> ChaosConfig {
        ChaosConfig {
            plan: FaultPlan::none().with_at(FaultKind::StorageStall { stall_seconds }, 5.0),
            policy: RecoveryPolicy::standard(),
        }
    }

    #[test]
    #[should_panic(expected = "fault 0 stall_seconds must be finite and >= 0, got -300")]
    fn negative_stall_panics_naming_the_field() {
        // Used to book a -295 s cache wait without complaint.
        tiny_chaos_run(&stall(-300.0));
    }

    #[test]
    #[should_panic(expected = "fault 0 stall_seconds must be finite and >= 0, got NaN")]
    fn nan_stall_panics_naming_the_field() {
        // Used to surface as "event time must be finite" from the engine.
        tiny_chaos_run(&stall(f64::NAN));
    }
}
