//! The canonical serving scenarios behind `afsysbench serve`.
//!
//! Four runs of the same seeded request stream isolate the two levers
//! the paper's amortization data points at:
//!
//! - `cold`      — empty cache, batch 4: the baseline server,
//! - `nocache`   — caching disabled: every request pays the CPU phase,
//! - `warm`      — prewarmed cache, batch 4: steady-state serving,
//! - `warm_b1`   — prewarmed cache, batch 1: no dispatch amortization.
//!
//! `cold` vs `nocache` prices the MSA feature cache; `warm` vs
//! `warm_b1` prices GPU batching with the CPU phase out of the way.

use crate::server::{run_serve, CostTable, ServeConfig, ServeReport, TelemetryConfig};
use crate::workload::WorkloadConfig;
use afsb_core::report::ascii_table;
use afsb_core::resilience::Deadline;
use afsb_rt::obs::ObsSession;
use afsb_simarch::config::GIB;
use afsb_simarch::Platform;

/// The fixed seed every canonical serving scenario runs with.
pub const SERVE_SEED: u64 = 17;

/// A named serving configuration.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Short stable name (used in reports and metric prefixes).
    pub name: &'static str,
    /// The configuration to serve.
    pub config: ServeConfig,
}

/// One executed scenario with its observability session.
pub struct ScenarioRun {
    /// The scenario name.
    pub name: &'static str,
    /// The serving report.
    pub report: ServeReport,
    /// Trace + metrics captured during the run.
    pub obs: ObsSession,
}

/// The canonical scenario set. `quick` shrinks the stream for CI.
pub fn default_scenarios(quick: bool) -> Vec<Scenario> {
    // The stream must outlast the popular entities' MSA times (so a
    // cold cache can start hitting mid-stream) while keeping arrival
    // gaps well under the GPU service time (so batching has a backlog
    // to amortize over) — hence many requests at a 10 s mean gap.
    let workload = WorkloadConfig {
        num_requests: if quick { 384 } else { 1024 },
        catalog_size: if quick { 12 } else { 40 },
        arrival_rate_per_s: 0.1,
        zipf_exponent: 1.1,
        seed: SERVE_SEED,
    };
    let base = ServeConfig {
        platform: Platform::Server,
        workload,
        cpu_workers: 4,
        gpu_batch: 4,
        cache_capacity_bytes: 64 * GIB,
        prewarm_cache: false,
        deadline: Deadline::new(Some(24.0 * 3600.0)),
        coalesce_misses: false,
        telemetry: TelemetryConfig::default(),
        provenance: false,
    };
    vec![
        Scenario {
            name: "cold",
            config: base,
        },
        Scenario {
            name: "nocache",
            config: ServeConfig {
                cache_capacity_bytes: 0,
                ..base
            },
        },
        Scenario {
            name: "warm",
            config: ServeConfig {
                prewarm_cache: true,
                ..base
            },
        },
        Scenario {
            name: "warm_b1",
            config: ServeConfig {
                prewarm_cache: true,
                gpu_batch: 1,
                ..base
            },
        },
    ]
}

/// Run every canonical scenario on [`CostTable::canonical`] with the
/// observation-only telemetry and provenance armed: reports differ from
/// unarmed runs only in `timeline`, `slo` and `causal`
/// (`tests/telemetry.rs`, `tests/causal.rs`).
pub fn run_default(quick: bool) -> Vec<ScenarioRun> {
    let scenarios = default_scenarios(quick)
        .into_iter()
        .map(|s| Scenario {
            config: s.config.observed(quick),
            ..s
        })
        .collect();
    run_set(scenarios, quick)
}

/// The XL scenario set behind `afsysbench serve-xl` — the same four
/// ablations at production scale: a catalog one to two orders of
/// magnitude larger, Poisson arrivals an order of magnitude denser, a
/// wider CPU pool, deeper GPU batches, a three-day deadline, and miss
/// coalescing on (concurrent misses on a hot entity collapse onto the
/// in-flight MSA fill instead of each paying the CPU phase). This is
/// the event engine's scale exercise: ~10× the canonical stream in
/// quick mode, ~100× in full mode, all through one event queue.
pub fn xl_scenarios(quick: bool) -> Vec<Scenario> {
    let workload = WorkloadConfig {
        num_requests: if quick { 10_000 } else { 100_000 },
        catalog_size: if quick { 500 } else { 2_000 },
        arrival_rate_per_s: 1.0,
        zipf_exponent: 1.1,
        seed: SERVE_SEED,
    };
    let base = ServeConfig {
        platform: Platform::Server,
        workload,
        cpu_workers: 64,
        gpu_batch: 8,
        cache_capacity_bytes: 256 * GIB,
        prewarm_cache: false,
        deadline: Deadline::new(Some(72.0 * 3600.0)),
        coalesce_misses: true,
        telemetry: TelemetryConfig::default(),
        provenance: false,
    };
    vec![
        Scenario {
            name: "cold",
            config: base,
        },
        Scenario {
            // The whole cache subsystem is off — no capacity AND no
            // coalescing — so every request pays the CPU phase, the
            // ablation the canonical `nocache` scenario prices.
            name: "nocache",
            config: ServeConfig {
                cache_capacity_bytes: 0,
                coalesce_misses: false,
                ..base
            },
        },
        Scenario {
            name: "warm",
            config: ServeConfig {
                prewarm_cache: true,
                ..base
            },
        },
        Scenario {
            name: "warm_b1",
            config: ServeConfig {
                prewarm_cache: true,
                gpu_batch: 1,
                ..base
            },
        },
    ]
}

/// Run every XL scenario on [`CostTable::canonical`]. The instruments
/// stay off: armed, they would add `slo.*` metrics to
/// `BENCH_serve_xl.json` and record provenance for every one of the
/// 100k full-mode requests.
pub fn run_xl(quick: bool) -> Vec<ScenarioRun> {
    run_set(xl_scenarios(quick), quick)
}

fn run_set(scenarios: Vec<Scenario>, quick: bool) -> Vec<ScenarioRun> {
    let costs = CostTable::canonical(quick);
    scenarios
        .into_iter()
        .map(|scenario| {
            let mut obs = ObsSession::new();
            let report = run_serve(&scenario.config, costs, &mut obs);
            ScenarioRun {
                name: scenario.name,
                report,
                obs,
            }
        })
        .collect()
}

/// Cross-scenario comparison table plus the per-scenario blocks.
pub fn render_summary(runs: &[ScenarioRun]) -> String {
    let headers = [
        "scenario",
        "queries/h",
        "hit rate",
        "gpu occ",
        "p50 s",
        "p99 s",
        "missed",
    ];
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|run| {
            let r = &run.report;
            let (p50, p99) = r
                .latency
                .as_ref()
                .map_or((f64::NAN, f64::NAN), |l| (l.p50, l.p99));
            vec![
                run.name.to_string(),
                format!("{:.2}", r.throughput_qph),
                format!("{:.1}%", r.cache_hit_rate * 100.0),
                format!("{:.1}%", r.gpu_occupancy * 100.0),
                format!("{p50:.0}"),
                format!("{p99:.0}"),
                format!("{}", r.deadline_missed),
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

    #[test]
    fn scenario_set_covers_both_ablations() {
        let scenarios = default_scenarios(true);
        let names: Vec<&str> = scenarios.iter().map(|s| s.name).collect();
        assert_eq!(names, ["cold", "nocache", "warm", "warm_b1"]);
        let by_name = |n: &str| {
            scenarios
                .iter()
                .find(|s| s.name == n)
                .expect("scenario present")
                .config
        };
        assert_eq!(by_name("nocache").cache_capacity_bytes, 0);
        assert!(by_name("warm").prewarm_cache);
        assert_eq!(by_name("warm_b1").gpu_batch, 1);
        // All four serve the identical stream.
        for s in &scenarios {
            assert_eq!(s.config.workload, by_name("cold").workload);
        }
    }

    #[test]
    fn xl_set_mirrors_the_canonical_ablations_at_scale() {
        let xl = xl_scenarios(true);
        let names: Vec<&str> = xl.iter().map(|s| s.name).collect();
        assert_eq!(names, ["cold", "nocache", "warm", "warm_b1"]);
        for s in &xl {
            assert!(s.config.workload.num_requests >= 10_000);
            assert_eq!(
                s.config.coalesce_misses,
                s.name != "nocache",
                "coalescing is part of the cache subsystem: on everywhere but nocache"
            );
            assert_eq!(s.config.workload, xl[0].config.workload);
        }
        assert!(xl_scenarios(false)[0].config.workload.num_requests >= 100_000);
    }
}
