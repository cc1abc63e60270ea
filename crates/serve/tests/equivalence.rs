//! The equivalence golden gate: the event-driven scheduler (the one
//! serving loop, `serve::scheduler::run_serve_policy`, under plain FIFO
//! and an empty fault plan — what `serve::server::run_serve` and
//! `serve::chaos::run_serve_chaos` run) must match the frozen seed
//! step-scan scheduler (`serve::reference`) **byte for byte** —
//! reports, per-request outcomes, metrics text and Chrome traces — on
//! the four canonical scenarios and on a sweep of synthetic edge
//! configurations, while staying passive: every admitted request
//! completes, no fault fires, and neither a chaos block nor a policy
//! line renders. Kept forever so engine changes cannot silently move
//! the serving baselines. It also checks that the per-process
//! `CostTable::canonical` memo is exactly a fresh `CostTable::build`,
//! and pins every field of that table to a committed digest.

use afsb_core::resilience::Deadline;
use afsb_rt::obs::ObsSession;
use afsb_seq::samples::SampleId;
use afsb_serve::chaos::{ChaosConfig, ChaosReport};
use afsb_serve::policy::{run_serve_policy, PolicyConfig};
use afsb_serve::reference::run_serve_reference;
use afsb_serve::scenario::{default_scenarios, SERVE_SEED};
use afsb_serve::server::{CostTable, ServeConfig, ShapeCost};
use afsb_serve::workload::WorkloadConfig;
use afsb_simarch::Platform;
use std::collections::BTreeMap;

/// Run the engine under plain FIFO and an empty plan and assert it
/// stayed passive: dispositions are still assigned, every admitted
/// request completes at full quality with no fault fired, and the
/// report renders as the fault-free base report.
fn run_passive(
    name: &str,
    config: &ServeConfig,
    costs: &CostTable,
    obs: &mut ObsSession,
) -> ChaosReport {
    let policy = run_serve_policy(
        config,
        &PolicyConfig::fifo(),
        &ChaosConfig::none(),
        costs,
        obs,
    );
    assert_eq!(
        policy.render(),
        policy.chaos.base.render(),
        "{name}: the plain-FIFO render must grow neither a chaos block nor a policy line"
    );
    let report = policy.chaos;
    assert!(report.conserves_requests(), "{name}: conservation broken");
    assert!(!report.chaos_active);
    assert_eq!(
        report.completed, report.admitted,
        "{name}: passive run degraded/shed/failed"
    );
    assert!(report.fault_events.is_empty());
    report
}

/// Assert every observable of one (config, costs) run agrees between
/// the two schedulers, down to the bytes.
fn assert_equivalent(name: &str, config: &ServeConfig, costs: &CostTable) {
    let mut engine_obs = ObsSession::new();
    let mut seed_obs = ObsSession::new();
    let engine = run_passive(name, config, costs, &mut engine_obs).base;
    let seed = run_serve_reference(config, costs, &mut seed_obs);

    assert_eq!(engine.outcomes, seed.outcomes, "{name}: outcomes diverged");
    assert_eq!(
        engine.makespan_s.to_bits(),
        seed.makespan_s.to_bits(),
        "{name}: makespan not bit-identical"
    );
    assert_eq!(
        engine.throughput_qph.to_bits(),
        seed.throughput_qph.to_bits(),
        "{name}: throughput not bit-identical"
    );
    assert_eq!(
        engine.gpu_busy_s.to_bits(),
        seed.gpu_busy_s.to_bits(),
        "{name}: gpu busy not bit-identical"
    );
    assert_eq!(
        (engine.served, engine.rejected, engine.deadline_missed),
        (seed.served, seed.rejected, seed.deadline_missed),
        "{name}: outcome counters diverged"
    );
    assert_eq!(
        (
            engine.batches,
            engine.compiled_shapes,
            engine.cache_hits,
            engine.cache_misses,
            engine.cache_evictions
        ),
        (
            seed.batches,
            seed.compiled_shapes,
            seed.cache_hits,
            seed.cache_misses,
            seed.cache_evictions
        ),
        "{name}: resource counters diverged"
    );
    assert_eq!(
        engine.render(),
        seed.render(),
        "{name}: report text diverged"
    );
    assert_eq!(
        engine_obs.metrics.render_text(),
        seed_obs.metrics.render_text(),
        "{name}: metrics text diverged"
    );
    assert_eq!(
        engine_obs.tracer.chrome_trace_events().pretty(),
        seed_obs.tracer.chrome_trace_events().pretty(),
        "{name}: Chrome trace diverged"
    );
}

/// The per-process memo every runner and test prices through is the
/// table a fresh build prices, and is priced once: in-process pricing
/// determinism, now that the replay tests share one table.
#[test]
fn the_memoised_cost_table_is_the_fresh_build() {
    let memo = CostTable::canonical(true);
    assert!(
        std::ptr::eq(memo, CostTable::canonical(true)),
        "a second call must return the same table"
    );
    assert_eq!(
        format!("{memo:?}"),
        format!(
            "{:?}",
            CostTable::build(Platform::Server, true, 4, SERVE_SEED)
        ),
        "the memo must match a fresh build field for field"
    );
}

/// FNV-1a over every field of the quick canonical table (floats by
/// their bits), computed while `CostTable::build` still ran the model to
/// read its cost log.
const COST_TABLE_DIGEST: u64 = 0xdbb8_419f_ab0b_9916;

/// The quick table every serve experiment prices with is pinned: a
/// change to how a shape is priced on the host (who computes the cost
/// log, in what order the layers run) must leave every field's bits
/// alone.
#[test]
fn the_canonical_cost_table_matches_the_pinned_digest() {
    struct Fnv(u64);
    impl Fnv {
        fn bytes(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        fn u64(&mut self, v: u64) {
            self.bytes(&v.to_le_bytes());
        }
    }
    let CostTable {
        platform,
        msa_threads,
        init_s,
        dispatch_s,
        shapes,
    } = CostTable::canonical(true);
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.bytes(platform.to_string().as_bytes());
    h.u64(*msa_threads as u64);
    h.u64(init_s.to_bits());
    h.u64(dispatch_s.to_bits());
    h.u64(shapes.len() as u64);
    for (id, shape) in shapes {
        let ShapeCost {
            msa_s,
            feature_bytes,
            feature_load_s,
            peak_msa_bytes,
            admitted,
            compile_s,
            compute_s,
        } = *shape;
        h.bytes(id.name().as_bytes());
        h.u64(msa_s.to_bits());
        h.u64(feature_bytes);
        h.u64(feature_load_s.to_bits());
        h.u64(peak_msa_bytes);
        h.u64(u64::from(admitted));
        h.u64(compile_s.to_bits());
        h.u64(compute_s.to_bits());
    }
    assert_eq!(
        h.0, COST_TABLE_DIGEST,
        "cost table digest moved: {:#018x}",
        h.0
    );
}

#[test]
fn canonical_scenarios_match_the_seed_scheduler_byte_for_byte() {
    let costs = CostTable::canonical(true);
    for scenario in default_scenarios(true) {
        assert_equivalent(scenario.name, &scenario.config, costs);
    }
}

/// Hand-priced costs (MSA in minutes, GPU in seconds — the paper's
/// §III shape) so the edge sweep below stays fast.
fn synthetic_costs(admit_all: bool) -> CostTable {
    let mut shapes = BTreeMap::new();
    for (k, &id) in SampleId::all().iter().enumerate() {
        shapes.insert(
            id,
            ShapeCost {
                msa_s: 120.0 + 30.0 * k as f64,
                feature_bytes: 10 << 20,
                feature_load_s: 0.1,
                peak_msa_bytes: 1 << 30,
                admitted: admit_all || k % 2 == 0,
                compile_s: 20.0,
                compute_s: 25.0 + k as f64,
            },
        );
    }
    CostTable {
        platform: Platform::Server,
        msa_threads: 4,
        init_s: 30.0,
        dispatch_s: 1.5,
        shapes,
    }
}

#[test]
fn edge_configurations_match_the_seed_scheduler() {
    let base = ServeConfig {
        workload: WorkloadConfig {
            num_requests: 96,
            catalog_size: 8,
            arrival_rate_per_s: 0.2,
            zipf_exponent: 1.1,
            seed: 23,
        },
        ..ServeConfig::default()
    };
    let cases: Vec<(&str, ServeConfig)> = vec![
        ("base", base),
        (
            "nocache",
            ServeConfig {
                cache_capacity_bytes: 0,
                ..base
            },
        ),
        (
            "prewarmed_b1",
            ServeConfig {
                prewarm_cache: true,
                gpu_batch: 1,
                ..base
            },
        ),
        (
            "one_worker",
            ServeConfig {
                cpu_workers: 1,
                ..base
            },
        ),
        (
            "tight_deadline",
            ServeConfig {
                deadline: Deadline::new(Some(1.0)),
                ..base
            },
        ),
        (
            "no_deadline",
            ServeConfig {
                deadline: Deadline::new(None),
                ..base
            },
        ),
    ];
    for (name, config) in &cases {
        assert_equivalent(name, config, &synthetic_costs(true));
    }
    // Admission rejections interleaved with served requests.
    assert_equivalent("half_admitted", &base, &synthetic_costs(false));
    // The seed scheduler predates miss coalescing, so the coalescing
    // engine path has no oracle; it must still stay passive.
    let coalescing = ServeConfig {
        coalesce_misses: true,
        ..base
    };
    let report = run_passive(
        "coalescing",
        &coalescing,
        &synthetic_costs(true),
        &mut ObsSession::new(),
    );
    assert!(
        report.base.cache_coalesced > 0,
        "coalescing: nothing coalesced"
    );
}
