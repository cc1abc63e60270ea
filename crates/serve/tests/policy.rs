//! The scheduling-policy gates. (FIFO byte-identity needs no gate of
//! its own: `run_serve` *is* the policy loop under `PolicyConfig::fifo()`,
//! and `tests/equivalence.rs` pins that run to the frozen seed
//! scheduler byte for byte.)
//!
//! 1. **Request conservation** — every policy in the matrix, fault-free
//!    and under the kitchen-sink fault campaign, leaves every admitted
//!    request with exactly one disposition
//!    (`ChaosReport::conserves_requests`).
//! 2. **Dominance** — at least one policy strictly beats FIFO on both
//!    queries/hour and exact p99 latency. CI runs this as a hard gate.
//! 3. **What-if validation** — the winning speculation policy's
//!    measured makespan delta sits within
//!    `POLICY_WHATIF_TOLERANCE_PP` of the causal profiler's
//!    virtual-MSA-speedup projection for the matching factor.

use afsb_rt::obs::ObsSession;
use afsb_serve::chaos::{chaos_scenarios, ChaosConfig};
use afsb_serve::policy::{
    policy_scenarios, run_policy_matrix, run_serve_policy, PolicyConfig, PolicyMatrixReport,
    PolicyReport, POLICY_WHATIF_TOLERANCE_PP, SPECULATE_DEPTH,
};
use afsb_serve::scenario::default_scenarios;
use afsb_serve::server::{CostTable, ServeConfig};
use std::sync::OnceLock;

fn matrix() -> &'static PolicyMatrixReport {
    static MATRIX: OnceLock<PolicyMatrixReport> = OnceLock::new();
    MATRIX.get_or_init(|| run_policy_matrix(true))
}

#[test]
fn every_policy_conserves_requests_fault_free_and_under_chaos() {
    let kitchen_sink = chaos_scenarios(true)
        .into_iter()
        .find(|s| s.name == "kitchen-sink")
        .expect("kitchen-sink campaign exists")
        .chaos;
    for scenario in policy_scenarios(true) {
        for (label, chaos) in [
            ("fault-free", ChaosConfig::none()),
            ("kitchen-sink", kitchen_sink.clone()),
        ] {
            let mut obs = ObsSession::new();
            let report = run_serve_policy(
                &scenario.config,
                &scenario.policy,
                &chaos,
                CostTable::canonical(true),
                &mut obs,
            );
            assert!(
                report.chaos.conserves_requests(),
                "{} under {label}: admitted {} != {} completed + {} degraded + {} shed + {} failed",
                scenario.name,
                report.chaos.admitted,
                report.chaos.completed,
                report.chaos.degraded,
                report.chaos.shed,
                report.chaos.failed,
            );
        }
    }
}

#[test]
fn at_least_one_policy_strictly_dominates_fifo() {
    let m = matrix();
    let fifo = m.fifo();
    let dominating = m.dominating();
    assert!(
        !dominating.is_empty(),
        "no policy beats fifo ({:.2} qph, p99 {:.0} s) on both axes:\n{}",
        fifo.report.chaos.base.throughput_qph,
        fifo.report.exact_percentile_s(0.99),
        afsb_serve::policy::render_policy_matrix(m)
    );
    for run in &dominating {
        assert!(run.report.chaos.base.throughput_qph > fifo.report.chaos.base.throughput_qph);
        assert!(run.report.exact_percentile_s(0.99) < fifo.report.exact_percentile_s(0.99));
    }
}

#[test]
fn winning_policy_matches_the_whatif_projection() {
    let m = matrix();
    let v = m
        .whatif
        .as_ref()
        .expect("a speculation policy dominates fifo, so the what-if check runs");
    assert!(
        v.error_pp <= POLICY_WHATIF_TOLERANCE_PP,
        "{}: predicted {:.1}% makespan reduction vs measured {:.1}% — {:.1} pp apart \
         (tolerance {:.0} pp)",
        v.winner,
        v.predicted_delta_pct,
        v.measured_delta_pct,
        v.error_pp,
        POLICY_WHATIF_TOLERANCE_PP
    );
    assert!(v.predicted_makespan_s > 0.0 && v.measured_makespan_s > 0.0);
    assert!(v.speedup > 1.0, "the degraded rung must be a speedup");
}

#[test]
fn matrix_report_renders_every_row_and_the_verdicts() {
    let text = afsb_serve::policy::render_policy_matrix(matrix());
    for scenario in policy_scenarios(true) {
        assert!(
            text.contains(&format!("[{}]", scenario.name)),
            "missing per-run block for {}:\n{text}",
            scenario.name
        );
    }
    assert!(text.contains("dominance:"), "missing dominance verdict");
    assert!(text.contains("whatif check:"), "missing what-if verdict");
}

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
