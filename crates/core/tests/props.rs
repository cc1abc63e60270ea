//! Property-based tests for the estimator and cost-mapping invariants.

use afsb_core::calib;
use afsb_core::context::{ChainSearch, SampleSearchData};
use afsb_core::msa_phase::{run_msa_phase, MsaPhaseOptions};
use afsb_core::resilience::RetryPolicy;
use afsb_core::MemoryEstimator;
use afsb_hmmer::{jackhmmer, nhmmer};
use afsb_rt::check::{run, Config};
use afsb_seq::alphabet::MoleculeKind;
use afsb_seq::samples::{self, ComplexityClass, Sample, SampleId};
use afsb_simarch::Platform;

#[test]
fn estimator_monotone_in_rna_length() {
    run("estimator_monotone_in_rna_length", Config::cases(48), |g| {
        let a = g.range(100usize..1500);
        let delta = g.range(1usize..500);
        let est = MemoryEstimator::new(8);
        let small = est.msa_peak_bytes(&samples::rna_memory_probe(a));
        let large = est.msa_peak_bytes(&samples::rna_memory_probe(a + delta));
        assert!(large > small);
    });
}

#[test]
fn estimator_monotone_in_threads() {
    run("estimator_monotone_in_threads", Config::cases(48), |g| {
        let threads = g.range(1usize..16);
        let asm = samples::sample(samples::SampleId::S1yy9).assembly;
        let less = MemoryEstimator::new(threads).msa_peak_bytes(&asm);
        let more = MemoryEstimator::new(threads + 1).msa_peak_bytes(&asm);
        assert!(more >= less);
    });
}

#[test]
fn protein_memory_model_linear_in_length() {
    run(
        "protein_memory_model_linear_in_length",
        Config::cases(48),
        |g| {
            let len = g.range(100usize..3000);
            let threads = g.range(1usize..9);
            let one = jackhmmer::paper_peak_bytes(len, threads);
            let two = jackhmmer::paper_peak_bytes(2 * len, threads);
            let ratio = two as f64 / one as f64;
            assert!((ratio - 2.0).abs() < 0.01, "ratio {ratio}");
        },
    );
}

#[test]
fn nhmmer_memory_model_superlinear_midrange() {
    run(
        "nhmmer_memory_model_superlinear_midrange",
        Config::cases(48),
        |g| {
            // Between the first two Fig. 2 anchors the curve grows much
            // faster than linear.
            let len = g.range(621usize..900);
            let a = nhmmer::paper_peak_gib(len);
            let b = nhmmer::paper_peak_gib(len + 50);
            let growth = b / a;
            let linear = (len as f64 + 50.0) / len as f64;
            assert!(growth > linear, "growth {growth} vs linear {linear}");
        },
    );
}

#[test]
fn preflight_never_panics_and_is_consistent() {
    run(
        "preflight_never_panics_and_is_consistent",
        Config::cases(48),
        |g| {
            let rna_len = g.range(50usize..2000);
            let threads = g.range(1usize..12);
            let est = MemoryEstimator::new(threads);
            let asm = samples::rna_memory_probe(rna_len);
            for platform in Platform::all() {
                let r = est.preflight(&asm, platform);
                // safe() must agree with the admission outcome.
                assert_eq!(r.safe(), r.msa.outcome.completes());
                // Unsafe verdicts always come with a warning.
                if !r.safe() {
                    assert!(!r.warnings.is_empty());
                }
            }
        },
    );
}

/// Search data mirroring [`samples::rna_memory_probe`]: the same chain
/// geometry the estimator sees, with no executed counters (the
/// admission check reads only lengths and kinds).
fn probe_data(rna_len: usize) -> SampleSearchData {
    let assembly = samples::rna_memory_probe(rna_len);
    SampleSearchData {
        sample: Sample {
            id: SampleId::S6qnr,
            assembly,
            complexity: ComplexityClass::High,
            characteristic: "synthetic RNA memory probe",
        },
        chains: vec![
            ChainSearch {
                chain_id: "A".into(),
                kind: MoleculeKind::Protein,
                query_len: 150,
                low_complexity_fraction: 0.0,
                per_db: Vec::new(),
            },
            ChainSearch {
                chain_id: "R".into(),
                kind: MoleculeKind::Rna,
                query_len: rna_len,
                low_complexity_fraction: 0.0,
                per_db: Vec::new(),
            },
        ],
        msa_depth: 64,
    }
}

fn assert_estimate_matches_simulation(rna_len: usize) {
    let est = MemoryEstimator::new(8);
    let data = probe_data(rna_len);
    let opts = MsaPhaseOptions {
        sample_cap: 1,
        ..MsaPhaseOptions::default()
    };
    for platform in Platform::all() {
        let predicted_safe = est.preflight(&data.sample.assembly, platform).safe();
        let simulated = run_msa_phase(&data, platform, 8, &opts);
        assert_eq!(
            predicted_safe,
            simulated.outcome.finished(),
            "{platform} at {rna_len} nt: estimator says safe={predicted_safe}, simulation says {}",
            simulated.outcome
        );
    }
}

#[test]
fn estimator_oom_prediction_matches_simulated_admission() {
    // The §VI promise: the pre-flight verdict from the input JSON alone
    // must agree with what the simulated run actually does — at random
    // lengths and exactly at the Fig. 2 anchor thresholds.
    run(
        "estimator_oom_prediction_matches_simulated_admission",
        Config::cases(24),
        |g| {
            let rna_len = g.range(200usize..2000);
            assert_estimate_matches_simulation(rna_len);
        },
    );
    for rna_len in [621, 935, 1135, 1335] {
        assert_estimate_matches_simulation(rna_len);
    }
}

#[test]
fn backoff_schedule_finite_nondecreasing_and_capped() {
    run(
        "backoff_schedule_finite_nondecreasing_and_capped",
        Config::cases(64),
        |g| {
            let policy = RetryPolicy {
                max_retries: 3,
                base_backoff_s: g.range(0.01f64..120.0),
                multiplier: g.range(1.0f64..8.0),
                cap_s: g.range(0.5f64..600.0),
                jitter_fraction: g.range(0.0f64..0.5),
            };
            let no_jitter = RetryPolicy {
                jitter_fraction: 0.0,
                ..policy
            };
            let seed = g.range(0u64..u64::MAX);
            let ceiling = policy.cap_s * (1.0 + policy.jitter_fraction) + 1e-9;
            let mut attempts: Vec<u32> = (1..=128).collect();
            attempts.extend([256, 512, 1024, 4096, 10_000]);
            let mut prev = 0.0f64;
            for attempt in attempts {
                let jittered = policy.backoff_seconds(attempt, seed);
                assert!(
                    jittered.is_finite(),
                    "attempt {attempt}: backoff {jittered} not finite ({policy:?})"
                );
                assert!(
                    jittered <= ceiling,
                    "attempt {attempt}: backoff {jittered} above cap·(1+jitter) = {ceiling}"
                );
                // The un-jittered schedule is nondecreasing; jitter only
                // ever adds a bounded fraction on top.
                let bare = no_jitter.backoff_seconds(attempt, seed);
                assert!(
                    bare >= prev - 1e-12,
                    "attempt {attempt}: schedule decreased {prev} -> {bare}"
                );
                assert!(jittered >= bare - 1e-12);
                prev = bare;
            }
        },
    );
}

#[test]
fn burst_run_bounded_and_monotone() {
    run("burst_run_bounded_and_monotone", Config::cases(48), |g| {
        let frac_a = g.range(0.0f64..1.0);
        let frac_b = g.range(0.0f64..1.0);
        let (lo, hi) = if frac_a <= frac_b {
            (frac_a, frac_b)
        } else {
            (frac_b, frac_a)
        };
        assert!(calib::burst_run(lo) <= calib::burst_run(hi));
        assert!(calib::burst_run(hi) <= calib::BURST_RUN_BASE + calib::BURST_RUN_LOWCX_BONUS);
        assert!(calib::burst_run(lo) >= calib::BURST_RUN_BASE);
    });
}

#[test]
fn cost_model_shares_are_probabilities() {
    // The simulated traffic and its L1-resident remainder
    // (`1 - traffic`) are both shares of `calc_band`'s accesses.
    let traffic = calib::BAND_BURST_WEIGHT + calib::BAND_RANDOM_WEIGHT;
    for share in [
        calib::BAND9_SHARE,
        calib::BAND_BURST_WEIGHT,
        calib::BAND_RANDOM_WEIGHT,
        traffic,
        calib::COPY_GATHER_WEIGHT,
    ] {
        assert!((0.0..=1.0).contains(&share), "{share}");
    }
}
