//! Chaos tests: the resilient executor under deterministic fault
//! injection.
//!
//! Everything here is seeded and simulated — the same fault plan always
//! yields the same terminal [`RunOutcome`], the same retry/recovery
//! accounting and byte-identical serialized reports. `AFSB_CHAOS_SEED`
//! overrides the default seed set so CI can sweep seeds without a
//! recompile.

use afsysbench::core::context::{BenchContext, ChainSearch, ContextConfig, SampleSearchData};
use afsysbench::core::msa_phase::{run_msa_phase, MsaPhaseOptions};
use afsysbench::core::pipeline::{run_pipeline, PipelineOptions};
use afsysbench::core::report::resilience_table;
use afsysbench::core::resilience::{
    run_resilient, run_resilient_traced, DegradeStep, ResilienceOptions, ResilientResult,
    RunOutcome,
};
use afsysbench::core::results::{to_json, PipelineRecord};
use afsysbench::model::ModelConfig;
use afsysbench::rt::fault::{FaultKind, FaultPlan};
use afsysbench::rt::{Json, ObsSession};
use afsysbench::seq::alphabet::MoleculeKind;
use afsysbench::seq::samples::{self, ComplexityClass, Sample, SampleId};
use afsysbench::simarch::Platform;

use std::sync::{Mutex, OnceLock};

fn shared_data(id: SampleId) -> std::sync::Arc<SampleSearchData> {
    static CTX: OnceLock<Mutex<BenchContext>> = OnceLock::new();
    CTX.get_or_init(|| Mutex::new(BenchContext::new(ContextConfig::test())))
        .lock()
        .expect("context lock")
        .sample_data(id)
}

fn options() -> PipelineOptions {
    PipelineOptions {
        msa: MsaPhaseOptions {
            sample_cap: 200_000,
            ..MsaPhaseOptions::default()
        },
        model: Some(ModelConfig::paper()),
        seed: 9,
    }
}

/// Search data for the synthetic RNA memory probe (no executed
/// counters; admission reads only chain geometry).
fn rna_probe(len: usize) -> SampleSearchData {
    let assembly = samples::rna_memory_probe(len);
    SampleSearchData {
        sample: Sample {
            id: SampleId::S6qnr,
            assembly,
            complexity: ComplexityClass::High,
            characteristic: "synthetic RNA memory probe",
        },
        chains: vec![ChainSearch {
            chain_id: "R".into(),
            kind: MoleculeKind::Rna,
            query_len: len,
            low_complexity_fraction: 0.0,
            per_db: Vec::new(),
        }],
        msa_depth: 64,
    }
}

fn report_bytes(r: &ResilientResult) -> String {
    let record = PipelineRecord::from_resilient(r);
    format!(
        "{}\n{}",
        to_json(std::slice::from_ref(&record)),
        resilience_table(std::slice::from_ref(r))
    )
}

#[test]
fn empty_plan_reproduces_the_baseline_exactly() {
    let data = shared_data(SampleId::S7rce);
    let baseline = run_pipeline(&data, Platform::Server, 4, &options());
    let r = run_resilient(
        &data,
        Platform::Server,
        4,
        &options(),
        &ResilienceOptions::default(),
        &FaultPlan::none(),
    );
    assert_eq!(r.outcome, RunOutcome::Completed);
    assert_eq!(r.retries, 0);
    assert_eq!(r.recovery_seconds, 0.0);
    assert!(r.fault_events.is_empty());
    assert!(r.degrade_steps.is_empty());
    assert_eq!(r.wall_seconds, baseline.total_seconds());
    let pipeline = r.pipeline.as_ref().expect("completed run has a pipeline");
    assert_eq!(pipeline.msa_seconds(), baseline.msa_seconds());
    assert_eq!(pipeline.inference_seconds(), baseline.inference_seconds());
    // The flattened records are indistinguishable too.
    assert_eq!(
        to_json(&[PipelineRecord::from_resilient(&r)]),
        to_json(&[PipelineRecord::from(&baseline)])
    );
}

#[test]
fn seeded_plans_terminate_deterministically() {
    let seeds: Vec<u64> = match std::env::var("AFSB_CHAOS_SEED") {
        Ok(s) => vec![s.parse().expect("AFSB_CHAOS_SEED must be an integer")],
        Err(_) => vec![101, 202, 303],
    };
    let data = shared_data(SampleId::S7rce);
    for seed in seeds {
        let plan = FaultPlan::seeded(seed);
        let run = || {
            run_resilient(
                &data,
                Platform::Server,
                4,
                &options(),
                &ResilienceOptions::default(),
                &plan,
            )
        };
        let a = run();
        let b = run();
        // Terminal state reached, deterministically.
        assert!(
            matches!(
                a.outcome,
                RunOutcome::Completed | RunOutcome::Degraded | RunOutcome::Failed
            ),
            "seed {seed}: 7RCE fits everywhere, outcome {} must not be OOM",
            a.outcome
        );
        assert_eq!(a.outcome, b.outcome, "seed {seed}");
        assert_eq!(a.retries, b.retries, "seed {seed}");
        // Byte-identical reports, including retry/recovery accounting.
        assert_eq!(report_bytes(&a), report_bytes(&b), "seed {seed}");
    }
}

#[test]
fn checkpointed_kill_recovers_cheaper_than_full_rerun() {
    let data = shared_data(SampleId::S7rce);
    let plan = FaultPlan::none().with(FaultKind::OomKill { at_fraction: 0.7 });
    let run = |checkpointing: bool| {
        run_resilient(
            &data,
            Platform::Server,
            4,
            &options(),
            &ResilienceOptions {
                checkpointing,
                ..ResilienceOptions::default()
            },
            &plan,
        )
    };
    let ckpt = run(true);
    let rerun = run(false);
    for r in [&ckpt, &rerun] {
        assert_eq!(r.outcome, RunOutcome::Completed);
        assert_eq!(r.retries, 1);
        assert_eq!(r.fault_events.len(), 1);
    }
    // The whole point of checkpointing: only the non-durable tail of the
    // killed attempt is redone, so recovery is strictly cheaper than the
    // from-scratch rerun — and so is the end-to-end wall.
    assert!(
        ckpt.recovery_seconds < rerun.recovery_seconds,
        "checkpointed recovery {:.1}s must beat full rerun {:.1}s",
        ckpt.recovery_seconds,
        rerun.recovery_seconds
    );
    assert!(ckpt.wall_seconds < rerun.wall_seconds);
    // And the redone work is bounded by the kill point: the rerun redoes
    // everything up to the kill, the checkpoint only the tail.
    let clean_msa = run_msa_phase(&data, Platform::Server, 4, &options().msa);
    assert!(ckpt.recovery_seconds < 0.7 * clean_msa.wall_seconds());
}

#[test]
fn degradation_ladder_first_rung_cxl() {
    // Fig. 2: 1,335 nt (~810 GiB) beats the server's stock 764 GiB but
    // fits after attaching another 256 GiB of CXL — rung 1 suffices.
    let data = rna_probe(1335);
    let r = run_resilient(
        &data,
        Platform::Server,
        8,
        &options(),
        &ResilienceOptions::default(),
        &FaultPlan::none(),
    );
    assert_eq!(r.outcome, RunOutcome::Degraded);
    assert_eq!(
        r.degrade_steps,
        vec![DegradeStep::CxlExpansion { bytes: 256 << 30 }]
    );
    assert!(r.pipeline.is_some());
    assert_eq!(r.retries, 0);
}

#[test]
fn degradation_ladder_second_rung_window_cap() {
    // 2,000 nt overflows even the expanded tier; capping the nhmmer
    // window at 900 nt brings the peak back under it (rungs 1+2).
    let data = rna_probe(2000);
    let r = run_resilient(
        &data,
        Platform::Server,
        8,
        &options(),
        &ResilienceOptions::default(),
        &FaultPlan::none(),
    );
    assert_eq!(r.outcome, RunOutcome::Degraded);
    assert_eq!(
        r.degrade_steps,
        vec![
            DegradeStep::CxlExpansion { bytes: 256 << 30 },
            DegradeStep::RnaWindowCap { cap: 900 },
        ]
    );
    assert!(r.pipeline.is_some());
}

#[test]
fn degradation_ladder_exhausted_is_still_oom() {
    // The desktop cannot hold even the fully degraded 1,135-nt job: all
    // three rungs are tried and the run still lands in OOM — but the
    // attempted steps are recorded for the operator.
    let data = rna_probe(1135);
    let r = run_resilient(
        &data,
        Platform::Desktop,
        8,
        &options(),
        &ResilienceOptions::default(),
        &FaultPlan::none(),
    );
    assert_eq!(r.outcome, RunOutcome::Oom);
    assert!(r.pipeline.is_none());
    assert_eq!(r.degrade_steps.len(), 3);
    assert!(matches!(
        r.degrade_steps[2],
        DegradeStep::MsaDepthCap { .. }
    ));
}

#[test]
#[should_panic(expected = "fault 1 stall_seconds must be finite and >= 0")]
fn invalid_fault_plan_panics_naming_the_fault_and_field() {
    // Checked before any simulated work: the probe needs no search.
    let plan = FaultPlan::none()
        .with(FaultKind::GpuInitFailure)
        .with(FaultKind::StorageStall {
            stall_seconds: -300.0,
        });
    run_resilient(
        &rna_probe(200),
        Platform::Server,
        4,
        &options(),
        &ResilienceOptions::default(),
        &plan,
    );
}

#[test]
fn gpu_init_failure_retries_to_the_clean_result() {
    let data = shared_data(SampleId::S2pv7);
    let baseline = run_pipeline(&data, Platform::Desktop, 2, &options());
    let r = run_resilient(
        &data,
        Platform::Desktop,
        2,
        &options(),
        &ResilienceOptions::default(),
        &FaultPlan::none().with(FaultKind::GpuInitFailure),
    );
    assert_eq!(r.outcome, RunOutcome::Completed);
    assert_eq!(r.retries, 1);
    assert!(r.recovery_seconds > 0.0);
    // The retried inference is indistinguishable from a clean run.
    let pipeline = r.pipeline.expect("completed");
    assert_eq!(
        pipeline.inference.wall_seconds(),
        baseline.inference.wall_seconds()
    );
    // The wasted init + backoff landed on the wall.
    assert!(r.wall_seconds > baseline.total_seconds());
}

#[test]
fn repeated_kills_exhaust_the_retry_budget() {
    let data = shared_data(SampleId::S2pv7);
    let mut plan = FaultPlan::none();
    for _ in 0..4 {
        plan = plan.with(FaultKind::OomKill { at_fraction: 0.5 });
    }
    let r = run_resilient(
        &data,
        Platform::Server,
        4,
        &options(),
        &ResilienceOptions::default(),
        &plan,
    );
    assert_eq!(r.outcome, RunOutcome::Failed);
    assert!(r.pipeline.is_none());
    assert_eq!(r.retries, 4);
    assert_eq!(r.fault_events.len(), 4);
    assert!(r.recovery_seconds > 0.0);
}

#[test]
fn absorbed_faults_slow_the_run_without_retries() {
    let data = shared_data(SampleId::S7rce);
    let baseline = run_pipeline(&data, Platform::Desktop, 4, &options());
    let r = run_resilient(
        &data,
        Platform::Desktop,
        4,
        &options(),
        &ResilienceOptions::default(),
        &FaultPlan::none()
            .with(FaultKind::StorageStall {
                stall_seconds: 25.0,
            })
            .with(FaultKind::Straggler { factor: 1.5 }),
    );
    assert_eq!(r.outcome, RunOutcome::Completed);
    assert_eq!(r.retries, 0);
    assert_eq!(r.fault_events.len(), 2);
    assert!(
        r.wall_seconds > baseline.total_seconds(),
        "stall + straggler must cost wall time: {} vs {}",
        r.wall_seconds,
        baseline.total_seconds()
    );
}

#[test]
fn traced_chaos_run_is_deterministic_and_names_fired_faults() {
    let data = shared_data(SampleId::S7rce);
    let plan = FaultPlan::none()
        .with(FaultKind::OomKill { at_fraction: 0.7 })
        .with(FaultKind::StorageStall {
            stall_seconds: 30.0,
        })
        .with(FaultKind::GpuInitFailure);
    let resilience = ResilienceOptions::default();
    let run = || {
        let mut obs = ObsSession::new();
        let r = run_resilient_traced(
            &data,
            Platform::Server,
            4,
            &options(),
            &resilience,
            &plan,
            &mut obs,
        );
        (r, obs)
    };
    let (a, obs_a) = run();
    let (_b, obs_b) = run();

    // Tracing must not perturb the executor: accounting is identical to
    // the untraced run, and two traced runs are byte-identical.
    let plain = run_resilient(&data, Platform::Server, 4, &options(), &resilience, &plan);
    assert_eq!(report_bytes(&a), report_bytes(&plain));
    let trace = obs_a.chrome_trace_text();
    assert_eq!(
        trace,
        obs_b.chrome_trace_text(),
        "same plan+seed must export a byte-identical Chrome trace"
    );

    // The export round-trips through rt::json.
    let parsed = Json::parse(&trace).expect("chrome trace must be valid JSON");
    let events = parsed
        .field("traceEvents")
        .expect("traceEvents key")
        .as_array()
        .expect("traceEvents array");
    assert!(!events.is_empty());

    // Nested MSA + inference spans with paper-symbol attribution, plus
    // the resilience narration spans.
    let names = obs_a.tracer.span_names();
    for expected in [
        "resilient_run",
        "msa_attempt_aborted",
        "backoff",
        "msa_phase",
        "hmmer_scan",
        "calc_band_9",
        "storage_io",
        "inference_phase",
        "xla_compile",
        "_M_fill_insert",
        "gpu_compute",
    ] {
        assert!(names.contains(&expected), "missing span {expected}");
    }

    // One instant event per fault the plan actually fired, named after
    // the fault kind.
    assert_eq!(a.fault_events.len(), 3, "all three scheduled faults fire");
    for e in &a.fault_events {
        let name = format!("fault:{}", e.kind.label());
        let fired = a
            .fault_events
            .iter()
            .filter(|f| f.kind.label() == e.kind.label())
            .count();
        assert_eq!(obs_a.tracer.instant_count(&name), fired, "{name}");
    }

    // Retry/checkpoint/outcome narration rides along.
    assert!(obs_a.tracer.instant_count("retry") >= 2);
    assert!(obs_a.tracer.instant_count("checkpoint-restore") >= 1);
    assert_eq!(
        obs_a
            .tracer
            .instant_count(&format!("outcome:{}", a.outcome)),
        1
    );
    assert!(obs_a.metrics.counter("resilience.retries") >= 2);
    assert!(obs_a.metrics.counter("msa.hmmer.calc_band_9.cells") > 0);
}

#[test]
fn compile_stall_converts_to_deadline_retry() {
    let data = shared_data(SampleId::S2pv7);
    let baseline = run_pipeline(&data, Platform::Server, 2, &options());
    let clean_inference = baseline.inference.wall_seconds();
    let r = run_resilient(
        &data,
        Platform::Server,
        2,
        &options(),
        &ResilienceOptions {
            inference_deadline_s: Some(clean_inference * 1.2),
            ..ResilienceOptions::default()
        },
        &FaultPlan::none().with(FaultKind::XlaCompileStall { factor: 10.0 }),
    );
    // The stalled attempt blows the phase deadline; the retry (stall
    // already consumed) compiles at normal speed and finishes in budget.
    assert_eq!(r.outcome, RunOutcome::Completed);
    assert_eq!(r.retries, 1);
    assert!(r.recovery_seconds >= clean_inference * 1.2);
    let pipeline = r.pipeline.expect("completed");
    assert_eq!(pipeline.inference.wall_seconds(), clean_inference);
}
