//! Gates for the serving-telemetry layer (ISSUE 8):
//!
//! 1. **Observation-only** — arming the timeline sampler and SLO
//!    monitor changes nothing observable about the serving results:
//!    outcomes (including phase segments), rendered reports and
//!    latency floats are byte-identical to a telemetry-off run, on all
//!    four canonical scenarios and one chaos campaign.
//! 2. **Attribution closure** — per-request phase segments sum to
//!    `latency_s()` within 1e-9 on every finished request, across
//!    seeded workloads *and* chaos runs with requeues.
//! 3. **Byte-identity** — two runs of the sampler render identical
//!    bytes; the cold timeline shows the GPU-idle gap; the brownout
//!    campaign fires `slo:burn` then `slo:clear`.

use afsb_rt::check::{self, Config, Gen};
use afsb_rt::obs::ObsSession;
use afsb_serve::chaos::{chaos_scenarios, run_serve_chaos};
use afsb_serve::scenario::default_scenarios;
use afsb_serve::server::{run_serve, CostTable, TelemetryConfig, TIMELINE_COLUMNS};
use afsb_serve::workload::WorkloadConfig;
use afsb_serve::{render_telemetry, run_telemetry};

/// Telemetry must not perturb the serving results: every field except
/// `timeline`/`slo` is byte-identical with and without it.
#[test]
fn telemetry_is_observation_only_on_canonical_scenarios() {
    let costs = CostTable::canonical(true);
    for scenario in default_scenarios(true) {
        let mut bare_obs = ObsSession::new();
        let bare = run_serve(&scenario.config, costs, &mut bare_obs);

        let mut config = scenario.config;
        config.telemetry = TelemetryConfig::standard(true);
        let mut tel_obs = ObsSession::new();
        let tel = run_serve(&config, costs, &mut tel_obs);

        assert_eq!(
            bare.outcomes, tel.outcomes,
            "{}: outcomes changed under telemetry",
            scenario.name
        );
        assert_eq!(
            bare.throughput_qph.to_bits(),
            tel.throughput_qph.to_bits(),
            "{}: throughput changed under telemetry",
            scenario.name
        );
        assert_eq!(
            bare.makespan_s.to_bits(),
            tel.makespan_s.to_bits(),
            "{}: makespan changed under telemetry",
            scenario.name
        );
        assert_eq!(bare.latency, tel.latency, "{}: latency", scenario.name);
        assert_eq!(
            bare.deadline_missed, tel.deadline_missed,
            "{}: deadline misses",
            scenario.name
        );
        // The rendered report ignores telemetry fields entirely.
        assert_eq!(bare.render(), tel.render(), "{}: render", scenario.name);
        assert!(bare.timeline.is_none() && bare.slo.is_none());
        assert!(tel.timeline.is_some() && tel.slo.is_some());
    }
}

/// Same gate for the chaos scheduler: a faulted campaign's dispositions
/// and floats must not move when telemetry is armed.
#[test]
fn telemetry_is_observation_only_under_chaos() {
    let costs = CostTable::canonical(true);
    let scenario = chaos_scenarios(true)
        .into_iter()
        .find(|s| s.name == "kitchen-sink")
        .expect("kitchen-sink scenario exists");

    let mut bare_obs = ObsSession::new();
    let bare = run_serve_chaos(&scenario.config, &scenario.chaos, costs, &mut bare_obs);

    let mut config = scenario.config;
    config.telemetry = TelemetryConfig::standard(true);
    let mut tel_obs = ObsSession::new();
    let tel = run_serve_chaos(&config, &scenario.chaos, costs, &mut tel_obs);

    assert_eq!(bare.base.outcomes, tel.base.outcomes, "outcomes moved");
    assert_eq!(bare.dispositions, tel.dispositions, "dispositions moved");
    assert_eq!(
        bare.availability.to_bits(),
        tel.availability.to_bits(),
        "availability moved"
    );
    assert_eq!(bare.goodput.to_bits(), tel.goodput.to_bits(), "goodput");
    assert_eq!(bare.requeues, tel.requeues);
    assert_eq!(bare.degraded_attempts, tel.degraded_attempts);
    assert_eq!(bare.base.render(), tel.base.render());
}

fn assert_segments_close(report: &afsb_serve::ServeReport, label: &str) {
    let mut finished = 0;
    for o in &report.outcomes {
        if o.rejected || o.done_s <= 0.0 {
            continue;
        }
        finished += 1;
        let total = o.segments.total();
        let latency = o.latency_s();
        assert!(
            (total - latency).abs() <= 1e-9,
            "{label}: request {} segments sum {total} != latency {latency}",
            o.request.id
        );
        for (i, name) in afsb_serve::PhaseSegments::NAMES.iter().enumerate() {
            assert!(
                o.segments.get(i).is_finite(),
                "{label}: request {} phase {name} not finite",
                o.request.id
            );
        }
    }
    assert!(finished > 0, "{label}: no finished requests to check");
}

/// Property: phase segments sum to `latency_s()` within 1e-9 across
/// seeded workloads, canonical and randomized.
#[test]
fn segments_sum_to_latency_on_seeded_workloads() {
    let costs = CostTable::canonical(true);
    for scenario in default_scenarios(true) {
        let mut obs = ObsSession::new();
        let report = run_serve(&scenario.config, costs, &mut obs);
        assert_segments_close(&report, scenario.name);
    }

    // Randomized streams over the cold config: vary load, catalog and
    // batch to hit different queueing/batching interleavings.
    let base = default_scenarios(true)[0].config;
    check::run(
        "serve segments sum to latency",
        Config::cases(12),
        |g: &mut Gen| {
            let mut config = base;
            config.workload = WorkloadConfig {
                num_requests: g.range(40usize..160),
                catalog_size: g.range(3usize..24),
                arrival_rate_per_s: 0.02 + g.range(1u64..50) as f64 * 0.01,
                zipf_exponent: 0.8 + g.range(0u64..8) as f64 * 0.1,
                seed: g.range(1u64..(1 << 20)),
            };
            config.gpu_batch = g.range(1usize..8);
            config.prewarm_cache = g.bool();
            config.coalesce_misses = g.bool();
            let mut obs = ObsSession::new();
            let report = run_serve(&config, costs, &mut obs);
            assert_segments_close(&report, "randomized");
        },
    );
}

/// The same closure property must hold through the chaos scheduler —
/// including campaigns whose kills force requeues, so a request's
/// segments span multiple MSA attempts.
#[test]
fn segments_sum_to_latency_under_chaos_requeues() {
    let costs = CostTable::canonical(true);
    let mut saw_requeues = false;
    for scenario in chaos_scenarios(true) {
        let mut obs = ObsSession::new();
        let report = run_serve_chaos(&scenario.config, &scenario.chaos, costs, &mut obs);
        saw_requeues |= report.requeues > 0;
        assert_segments_close(&report.base, scenario.name);
    }
    assert!(
        saw_requeues,
        "chaos matrix must exercise the requeue attribution path"
    );
}

/// Two telemetry runs render byte-identical timelines and dashboards.
#[test]
fn timeline_output_is_byte_identical_across_runs() {
    let a = run_telemetry(true);
    let b = run_telemetry(true);
    for (ra, rb) in a.scenarios.iter().zip(&b.scenarios) {
        let ta = ra.report.timeline.as_ref().expect("timeline");
        let tb = rb.report.timeline.as_ref().expect("timeline");
        assert_eq!(ta.render(), tb.render(), "{}: timeline bytes", ra.name);
        assert_eq!(
            ta.render_sparklines(),
            tb.render_sparklines(),
            "{}: sparkline bytes",
            ra.name
        );
    }
    assert_eq!(
        afsb_serve::render_telemetry(&a),
        afsb_serve::render_telemetry(&b),
        "full dashboard bytes"
    );
}

/// The paper's headline serving pathology must be visible in the cold
/// timeline: early rows where the MSA queue is deep while the GPU sits
/// idle (the CPU phase starves the accelerator).
#[test]
fn cold_timeline_shows_the_gpu_idle_gap() {
    let report = run_telemetry(true);
    let cold = &report.scenarios[0];
    assert_eq!(cold.name, "cold");
    let tl = cold.report.timeline.as_ref().expect("timeline");
    assert_eq!(tl.columns(), TIMELINE_COLUMNS);
    let gap_rows = (0..tl.rows().len())
        .filter(|&i| tl.value(i, "gpu") == 0.0 && tl.value(i, "msa_q") > 0.0)
        .count();
    assert!(
        gap_rows > 0,
        "cold scenario must show GPU idle while the MSA queue is deep"
    );
}

/// The storage brownout must drive the SLO alert through a full
/// burn → clear cycle, visible both in the outcome transitions and as
/// trace instants in order.
#[test]
fn brownout_fires_and_clears_the_slo_alert() {
    let run = run_telemetry(true).brownout;
    let slo = run.report.base.slo.as_ref().expect("slo evaluated");
    assert!(
        slo.burn_events >= 1,
        "brownout must fire the SLO alert at least once"
    );
    assert_eq!(
        slo.burn_events, slo.clear_events,
        "every burn must clear by end of run"
    );
    let first = slo.transitions.first().expect("transitions recorded");
    let last = slo.transitions.last().expect("transitions recorded");
    assert!(
        first.firing && !last.firing,
        "burn precedes the final clear"
    );
    assert!(slo.alert_seconds > 0.0);

    let names = run.obs.tracer.instant_names();
    let instants: Vec<&str> = names
        .into_iter()
        .filter(|n| n.starts_with("slo:"))
        .collect();
    let first_burn = instants.iter().position(|n| *n == "slo:burn");
    let first_clear = instants.iter().position(|n| *n == "slo:clear");
    match (first_burn, first_clear) {
        (Some(b), Some(c)) => assert!(b < c, "slo:burn must precede slo:clear"),
        _ => panic!("missing slo:burn/slo:clear instants: {instants:?}"),
    }
}

/// The PR 7 caveat: the kitchen-sink campaign applies degradation rungs
/// whose requests are later shed, so the old `degr` disposition count
/// hid them. `degraded_attempts` must be nonzero there.
#[test]
fn kitchen_sink_counts_degraded_attempts() {
    let costs = CostTable::canonical(true);
    let scenario = chaos_scenarios(true)
        .into_iter()
        .find(|s| s.name == "kitchen-sink")
        .expect("kitchen-sink scenario exists");
    let mut obs = ObsSession::new();
    let report = run_serve_chaos(&scenario.config, &scenario.chaos, costs, &mut obs);
    let degrade_instants = obs
        .tracer
        .instant_names()
        .iter()
        .filter(|n| n.starts_with("degrade:"))
        .count() as u64;
    assert_eq!(
        report.degraded_attempts, degrade_instants,
        "degraded_attempts must count degrade: instants exactly"
    );
    assert!(
        report.degraded_attempts > 0,
        "kitchen-sink must apply at least one degradation rung"
    );
    assert!(
        report.degraded_attempts >= report.degraded as u64,
        "attempts include requests later shed or failed"
    );
}

#[test]
fn telemetry_runs_arm_the_sampler_and_monitor() {
    let report = run_telemetry(true);
    assert_eq!(report.scenarios.len(), 4);
    for run in &report.scenarios {
        let tl = run.report.timeline.as_ref().expect("timeline sampled");
        assert!(!tl.rows().is_empty(), "{}: timeline has rows", run.name);
        assert!(run.report.slo.is_some(), "{}: slo evaluated", run.name);
    }
    assert!(report.brownout.report.base.timeline.is_some());
}

#[test]
fn dashboard_renders_every_section() {
    let report = run_telemetry(true);
    let text = render_telemetry(&report);
    for needle in [
        "[cold]",
        "[warm_b1]",
        "[chaos:storage-brownout]",
        "timeline (",
        "latency attribution over",
        "p99 waterfall",
        "slo:",
    ] {
        assert!(text.contains(needle), "dashboard contains {needle:?}");
    }
}
