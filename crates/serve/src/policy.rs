//! Pluggable scheduling policies for the serving loop, and the
//! `serve-policy` matrix.
//!
//! `BENCH_serve.json` shows the paper's phase imbalance live in the
//! simulator: ~3% GPU occupancy with p50 latency pinned at the deadline
//! cap, because the CPU MSA phase starves the GPU. The causal profiler
//! measured the levers; this module pulls them. The one serving loop
//! ([`crate::scheduler`]; [`crate::server::run_serve`] and
//! [`crate::chaos::run_serve_chaos`] are [`run_serve_policy`] under
//! plain FIFO) reads its scheduling decisions from a [`PolicyConfig`]:
//!
//! - **queue discipline** — which queued MSA request a freed pool
//!   worker takes next: [`QueueDiscipline::Fifo`] (arrival order, the
//!   reference-equivalent baseline), [`QueueDiscipline::Sjf`]
//!   (estimator-predicted cost: shortest remaining priced MSA first),
//!   or [`QueueDiscipline::Edf`] (earliest absolute deadline first),
//! - **shape-bucketed GPU batching** — when the GPU frees, batch the
//!   dominant [`SampleId`](afsb_seq::samples::SampleId) bucket of the
//!   ready set instead of the arrival-order prefix, so a batch's
//!   `xla_compile`/compute stream stays shape-uniform,
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
//! The loop accepts a [`ChaosConfig`] under every policy, so the
//! request-conservation invariant ([`ChaosReport::conserves_requests`])
//! is testable across the whole matrix.

use crate::chaos::{ChaosConfig, ChaosReport};
pub use crate::scheduler::run_serve_policy;
use crate::server::{non_negative, CostTable, ServeConfig};
use crate::whatif::{predict_makespan, WhatIf};
use afsb_core::report::ascii_table;
use afsb_rt::obs::ObsSession;
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
    /// [`SampleId`](afsb_seq::samples::SampleId) bucket of the ready
    /// set instead of the arrival-order prefix.
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

/// Run the whole matrix fault-free on [`CostTable::canonical`] and
/// validate the winner against the causal profiler's projection. The
/// FIFO row runs with provenance on (observation-only) so its causal
/// log can drive [`predict_makespan`].
pub fn run_policy_matrix(quick: bool) -> PolicyMatrixReport {
    let costs = CostTable::canonical(quick);
    let chaos = ChaosConfig::none();
    let runs: Vec<PolicyRun> = policy_scenarios(quick)
        .into_iter()
        .map(|s| {
            let mut config = s.config;
            config.provenance = s.policy.is_plain_fifo();
            let mut obs = ObsSession::new();
            let report = run_serve_policy(&config, &s.policy, &chaos, costs, &mut obs);
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

    fn run(pol: &PolicyConfig) -> PolicyReport {
        let config = cold_config(true);
        let mut obs = ObsSession::new();
        run_serve_policy(
            &config,
            pol,
            &ChaosConfig::none(),
            CostTable::canonical(true),
            &mut obs,
        )
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
