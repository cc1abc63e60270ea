//! Gates for the causal profiler (ISSUE 9):
//!
//! 1. **Passive observer** — arming provenance recording changes
//!    nothing observable about the serving results: outcomes, float
//!    bits, and rendered reports are byte-identical to a bare run, on
//!    all four canonical scenarios and the kitchen-sink chaos campaign.
//! 2. **What-if CI gates** — on the quick cold scenario: MSA is the
//!    dominant critical-path blame; a virtual GPU 2× moves the
//!    projection AND the measured re-run by under 1%; every on-path
//!    projection validates within [`WHATIF_ON_PATH_TOLERANCE_PP`]
//!    points of the ground-truth re-run, and every off-path projection
//!    predicts near-zero.
//! 3. **Residual clamp regression** — a multi-requeue chaos campaign
//!    (one worker, repeated crash kills) keeps every request's phase
//!    attribution closed to 1e-9 with a non-negative GPU residual.

use afsb_rt::fault::{FaultKind, FaultPlan};
use afsb_rt::obs::ObsSession;
use afsb_rt::sim::WaitEdge;
use afsb_serve::chaos::{chaos_scenarios, run_serve_chaos, ChaosConfig};
use afsb_serve::scenario::{default_scenarios, SERVE_SEED};
use afsb_serve::server::{run_serve, CostTable};
use afsb_serve::whatif::{scaled_config, scaled_costs};
use afsb_serve::workload::WorkloadConfig;
use afsb_serve::{
    predict_makespan, run_whatif, WhatIf, WHATIF_OFF_PATH_DELTA_PP, WHATIF_ON_PATH_SHARE,
    WHATIF_ON_PATH_TOLERANCE_PP,
};

/// Provenance recording must be a passive observer: every field except
/// `causal` is byte-identical with and without it.
#[test]
fn provenance_is_observation_only_on_canonical_scenarios() {
    let costs = CostTable::canonical(true);
    for scenario in default_scenarios(true) {
        let mut bare_obs = ObsSession::new();
        let bare = run_serve(&scenario.config, costs, &mut bare_obs);

        let mut config = scenario.config;
        config.provenance = true;
        let mut armed_obs = ObsSession::new();
        let armed = run_serve(&config, costs, &mut armed_obs);

        assert_eq!(
            bare.outcomes, armed.outcomes,
            "{}: outcomes changed under provenance",
            scenario.name
        );
        assert_eq!(
            bare.throughput_qph.to_bits(),
            armed.throughput_qph.to_bits(),
            "{}: throughput changed under provenance",
            scenario.name
        );
        assert_eq!(
            bare.makespan_s.to_bits(),
            armed.makespan_s.to_bits(),
            "{}: makespan changed under provenance",
            scenario.name
        );
        assert_eq!(bare.latency, armed.latency, "{}: latency", scenario.name);
        assert_eq!(
            bare.deadline_missed, armed.deadline_missed,
            "{}: deadline misses",
            scenario.name
        );
        assert_eq!(bare.render(), armed.render(), "{}: render", scenario.name);
        assert!(
            bare.causal.is_none(),
            "{}: bare run has no log",
            scenario.name
        );
        let log = armed.causal.as_ref().expect("provenance log recorded");
        assert!(!log.edges.is_empty(), "{}: edges recorded", scenario.name);
        assert!(
            log.makespan_event.is_some(),
            "{}: makespan event identified",
            scenario.name
        );
    }
}

/// Same gate through the chaos scheduler: the kitchen-sink campaign's
/// dispositions and floats must not move when provenance is armed.
#[test]
fn provenance_is_observation_only_under_chaos() {
    let costs = CostTable::canonical(true);
    let scenario = chaos_scenarios(true)
        .into_iter()
        .find(|s| s.name == "kitchen-sink")
        .expect("kitchen-sink scenario exists");

    let mut bare_obs = ObsSession::new();
    let bare = run_serve_chaos(&scenario.config, &scenario.chaos, costs, &mut bare_obs);

    let mut config = scenario.config;
    config.provenance = true;
    let mut armed_obs = ObsSession::new();
    let armed = run_serve_chaos(&config, &scenario.chaos, costs, &mut armed_obs);

    assert_eq!(bare.base.outcomes, armed.base.outcomes, "outcomes moved");
    assert_eq!(bare.dispositions, armed.dispositions, "dispositions moved");
    assert_eq!(
        bare.availability.to_bits(),
        armed.availability.to_bits(),
        "availability moved"
    );
    assert_eq!(bare.goodput.to_bits(), armed.goodput.to_bits(), "goodput");
    assert_eq!(bare.requeues, armed.requeues);
    assert_eq!(bare.degraded_attempts, armed.degraded_attempts);
    assert_eq!(bare.base.render(), armed.base.render());
    assert!(bare.base.causal.is_none());
    assert!(armed.base.causal.is_some(), "chaos run records a log");
}

/// The ISSUE 9 CI gates over the validated what-if projections.
#[test]
fn whatif_projections_validate_within_tolerance() {
    let r = run_whatif(true);
    assert!(r.baseline_makespan_s > 0.0);

    // Gate (i): the cold scenario's binding constraint is the MSA
    // worker pool — the paper's headline result, recovered causally.
    let shares = r.path.blame_shares(0.0);
    let (_, _, msa_share) = shares
        .iter()
        .find(|(e, _, _)| *e == WaitEdge::WorkerBusy)
        .expect("worker-busy share present");
    let msa_share = *msa_share;
    for &(edge, _, share) in &shares {
        if edge != WaitEdge::WorkerBusy {
            assert!(
                msa_share > share,
                "worker-busy ({msa_share:.3}) must dominate {} ({share:.3})",
                edge.label()
            );
        }
    }
    assert!(
        msa_share > 0.5,
        "cold critical path must be MSA-dominated, got {msa_share:.3}"
    );

    // Gate (ii): a virtual GPU 2× barely moves the makespan — in the
    // projection AND the ground-truth re-run.
    let gpu = r
        .rows
        .iter()
        .find(|row| row.label == "gpu_2x")
        .expect("gpu_2x row");
    assert!(
        gpu.predicted_delta_pct(r.baseline_makespan_s).abs() < WHATIF_OFF_PATH_DELTA_PP,
        "GPU 2x predicted {:.2}% but the GPU is off the critical path",
        gpu.predicted_delta_pct(r.baseline_makespan_s)
    );
    assert!(
        gpu.actual_delta_pct(r.baseline_makespan_s).abs() < WHATIF_OFF_PATH_DELTA_PP,
        "GPU 2x measured {:.2}% but the GPU is off the critical path",
        gpu.actual_delta_pct(r.baseline_makespan_s)
    );

    // Gate (iii): on-path projections validate against the re-run
    // within the documented tolerance; off-path projections are
    // near-zero by construction.
    let mut on_path_rows = 0;
    for row in &r.rows {
        let err = row.error_pp(r.baseline_makespan_s);
        if row.on_path {
            on_path_rows += 1;
            assert!(row.target_share >= WHATIF_ON_PATH_SHARE);
            assert!(
                err <= WHATIF_ON_PATH_TOLERANCE_PP,
                "{}: projection off by {err:.2}pp (tolerance {WHATIF_ON_PATH_TOLERANCE_PP}pp)",
                row.label
            );
        } else {
            assert!(
                row.predicted_delta_pct(r.baseline_makespan_s).abs() < WHATIF_OFF_PATH_DELTA_PP,
                "{}: off-path what-if predicted {:.2}%",
                row.label,
                row.predicted_delta_pct(r.baseline_makespan_s)
            );
        }
    }
    assert!(
        on_path_rows >= 2,
        "msa_2x and workers_plus4 must both be on-path, got {on_path_rows}"
    );
}

/// ISSUE 9 satellite: the `PhaseSegments::close` residual clamp. A
/// single-worker campaign under repeated crash kills forces requests
/// through two or more requeue cycles, the float-drift path that used
/// to push the GPU residual a few ulps negative.
#[test]
fn multi_requeue_attribution_stays_closed_and_non_negative() {
    let mut config = default_scenarios(true)[0].config;
    config.cpu_workers = 1;
    config.workload = WorkloadConfig {
        num_requests: 48,
        catalog_size: 6,
        arrival_rate_per_s: 0.05,
        zipf_exponent: 1.1,
        seed: SERVE_SEED,
    };

    // Crash the lone worker over and over: every kill requeues the
    // in-flight MSA job, so popular requests see multiple attempts.
    let mut plan = FaultPlan::none();
    for i in 0..12u64 {
        plan = plan.with_at(
            FaultKind::WorkerCrash { at_fraction: 0.5 },
            600.0 + i as f64 * 900.0,
        );
    }
    let chaos = ChaosConfig {
        plan,
        degrade_queue_depth: 0,
    };

    let mut obs = ObsSession::new();
    let report = run_serve_chaos(&config, &chaos, CostTable::canonical(true), &mut obs);
    assert!(
        report.requeues >= 2,
        "campaign must force multiple requeues, got {}",
        report.requeues
    );

    let mut finished = 0;
    for o in &report.base.outcomes {
        if o.rejected || o.done_s <= 0.0 {
            continue;
        }
        finished += 1;
        assert!(
            o.segments.gpu_service_s >= 0.0,
            "request {}: gpu_service went negative: {}",
            o.request.id,
            o.segments.gpu_service_s
        );
        let total = o.segments.total();
        let latency = o.latency_s();
        assert!(
            (total - latency).abs() <= 1e-9,
            "request {}: segments sum {total} != latency {latency}",
            o.request.id
        );
    }
    assert!(finished > 0, "campaign must finish requests");
}

#[test]
fn projection_is_exact_at_scale_one() {
    let r = run_whatif(true);
    // Replaying with a 1× "speedup" must telescope back to the
    // recorded makespan (float re-accumulation only).
    let config = default_scenarios(true)[0].config;
    let identity = predict_makespan(&r.log, &config, WhatIf::ScaleMsa(1.0));
    let err = (identity - r.baseline_makespan_s).abs() / r.baseline_makespan_s;
    assert!(err < 1e-9, "identity replay drifted: {err}");
}

#[test]
fn scaled_costs_touch_only_their_target() {
    let costs = CostTable::canonical(true);
    let msa = scaled_costs(costs, WhatIf::ScaleMsa(2.0));
    let gpu = scaled_costs(costs, WhatIf::ScaleGpu(2.0));
    let xla = scaled_costs(costs, WhatIf::ScaleCompile(2.0));
    for (id, base) in &costs.shapes {
        assert_eq!(msa.shapes[id].msa_s, base.msa_s / 2.0);
        assert_eq!(msa.shapes[id].compute_s, base.compute_s);
        assert_eq!(gpu.shapes[id].compute_s, base.compute_s / 2.0);
        assert_eq!(gpu.shapes[id].msa_s, base.msa_s);
        assert_eq!(xla.shapes[id].compile_s, base.compile_s / 2.0);
        assert_eq!(xla.shapes[id].compute_s, base.compute_s);
    }
    assert_eq!(gpu.init_s, costs.init_s / 2.0);
    assert_eq!(xla.init_s, costs.init_s);
    let cfg = default_scenarios(true)[0].config;
    assert_eq!(
        scaled_config(&cfg, WhatIf::AddWorkers(4)).cpu_workers,
        cfg.cpu_workers + 4
    );
    assert_eq!(
        scaled_config(&cfg, WhatIf::InfiniteCache).cache_capacity_bytes,
        u64::MAX
    );
}
