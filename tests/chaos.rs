//! Chaos tests: the resilient executor under deterministic fault
//! injection.
//!
//! Everything here is seeded and simulated — the same fault plan always
//! yields the same terminal [`RunOutcome`], the same retry/recovery
//! accounting and byte-identical serialized reports. `AFSB_CHAOS_SEED`
//! overrides the default seed set so CI can sweep seeds without a
//! recompile. The executor digest reads fixed seeds only, so every such
//! re-run checks it again.
//!
//! Each fixed run is traced once per test binary ([`pinned_runs`]): the
//! digest hashes all of them, and each behavioural test asserts on the
//! run with its inputs instead of running it again.

use afsysbench::core::context::{BenchContext, ChainSearch, ContextConfig, SampleSearchData};
use afsysbench::core::msa_phase::{run_msa_phase, MsaPhaseOptions};
use afsysbench::core::pipeline::{run_pipeline, PipelineOptions, PipelineResult};
use afsysbench::core::report::resilience_table;
use afsysbench::core::resilience::{
    run_resilient, run_resilient_traced, DegradeStep, ResilienceOptions, ResilientResult,
    RunOutcome,
};
use afsysbench::model::ModelConfig;
use afsysbench::rt::fault::{FaultKind, FaultPlan};
use afsysbench::rt::{Json, ObsSession};
use afsysbench::seq::alphabet::MoleculeKind;
use afsysbench::seq::samples::{self, ComplexityClass, Sample, SampleId};
use afsysbench::simarch::Platform;

use afsysbench::rt::par::map_ordered;
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

/// The Debug text of a run's phase results. A simarch `PerfReport`
/// keeps its symbols in a `HashMap`, whose Debug order differs from map
/// to map, so each report is rendered as its sorted `top_by_cycles`.
fn phase_text(p: &PipelineResult) -> String {
    let mut p = p.clone();
    let msa = std::mem::take(&mut p.msa.sim.report).top_by_cycles();
    let host = std::mem::take(&mut p.inference.host_sim.report).top_by_cycles();
    format!("{p:?}\n{msa:?}\n{host:?}")
}

/// The executor's accounting as text: outcome, retries, the bits of the
/// recovery and wall seconds, degrade steps, fault events, the phase
/// results, then the resilience table.
fn report_bytes(r: &ResilientResult) -> String {
    format!(
        "{} retries={} recovery={:#018x} wall={:#018x}\n{:?}\n{:?}\n{}\n{}",
        r.outcome,
        r.retries,
        r.recovery_seconds.to_bits(),
        r.wall_seconds.to_bits(),
        r.degrade_steps,
        r.fault_events,
        r.pipeline.as_ref().map_or_else(String::new, phase_text),
        resilience_table(std::slice::from_ref(r))
    )
}

/// One fixed executor run, traced.
struct PinnedRun {
    /// Names the run for the test that asserts on it.
    label: &'static str,
    result: ResilientResult,
    obs: ObsSession,
}

/// A pinned run's inputs: label, data, platform, threads, options, plan.
type PinnedSpec<'a> = (
    &'static str,
    &'a SampleSearchData,
    Platform,
    usize,
    ResilienceOptions,
    FaultPlan,
);

/// The seeded plans every run of the suite pins, whatever
/// `AFSB_CHAOS_SEED` says.
const PINNED_SEEDS: [(u64, &str); 3] = [
    (101, "seeded 101"),
    (202, "seeded 202"),
    (303, "seeded 303"),
];

fn kill() -> FaultPlan {
    FaultPlan::none().with(FaultKind::OomKill { at_fraction: 0.7 })
}

/// Every fixed run of this file, in digest order, traced once per test
/// binary on the CPUs the host has. Tracing leaves the accounting
/// byte-identical to an untraced run
/// (`traced_chaos_run_is_deterministic_and_names_fired_faults`), so the
/// behavioural tests assert on these results.
fn pinned_runs() -> &'static [PinnedRun] {
    static RUNS: OnceLock<Vec<PinnedRun>> = OnceLock::new();
    RUNS.get_or_init(|| {
        let s7rce: &SampleSearchData = &shared_data(SampleId::S7rce);
        let s2pv7: &SampleSearchData = &shared_data(SampleId::S2pv7);
        let (cxl, window_cap, exhausted) = (rna_probe(1335), rna_probe(2000), rna_probe(1135));
        let clean_inference = run_pipeline(s2pv7, Platform::Server, 2, &options())
            .inference
            .wall_seconds();
        let stall_deadline = ResilienceOptions {
            inference_deadline_s: Some(clean_inference * 1.2),
            ..ResilienceOptions::default()
        };
        let rerun = ResilienceOptions {
            checkpointing: false,
            ..ResilienceOptions::default()
        };
        let default = ResilienceOptions::default();
        let mut four_kills = FaultPlan::none();
        for _ in 0..4 {
            four_kills = four_kills.with(FaultKind::OomKill { at_fraction: 0.5 });
        }
        let mut specs: Vec<PinnedSpec> = vec![
            (
                "empty plan",
                s7rce,
                Platform::Server,
                4,
                default,
                FaultPlan::none(),
            ),
            (
                "kill, checkpointed",
                s7rce,
                Platform::Server,
                4,
                default,
                kill(),
            ),
            ("kill, rerun", s7rce, Platform::Server, 4, rerun, kill()),
            (
                "cxl rung",
                &cxl,
                Platform::Server,
                8,
                default,
                FaultPlan::none(),
            ),
            (
                "window-cap rung",
                &window_cap,
                Platform::Server,
                8,
                default,
                FaultPlan::none(),
            ),
            (
                "ladder exhausted",
                &exhausted,
                Platform::Desktop,
                8,
                default,
                FaultPlan::none(),
            ),
            (
                "gpu init failure",
                s2pv7,
                Platform::Desktop,
                2,
                default,
                FaultPlan::none().with(FaultKind::GpuInitFailure),
            ),
            (
                "four kills",
                s2pv7,
                Platform::Server,
                4,
                default,
                four_kills,
            ),
            (
                "stall and straggler",
                s7rce,
                Platform::Desktop,
                4,
                default,
                FaultPlan::none()
                    .with(FaultKind::StorageStall {
                        stall_seconds: 25.0,
                    })
                    .with(FaultKind::Straggler { factor: 1.5 }),
            ),
            (
                "kill, stall, gpu init",
                s7rce,
                Platform::Server,
                4,
                default,
                kill()
                    .with(FaultKind::StorageStall {
                        stall_seconds: 30.0,
                    })
                    .with(FaultKind::GpuInitFailure),
            ),
            (
                "compile stall",
                s2pv7,
                Platform::Server,
                2,
                stall_deadline,
                FaultPlan::none().with(FaultKind::XlaCompileStall { factor: 10.0 }),
            ),
        ];
        for (seed, label) in PINNED_SEEDS {
            specs.push((
                label,
                s7rce,
                Platform::Server,
                4,
                default,
                FaultPlan::seeded(seed),
            ));
        }
        map_ordered(specs.len(), |i| {
            let (label, data, platform, threads, resilience, plan) = &specs[i];
            let mut obs = ObsSession::new();
            let result = run_resilient_traced(
                data,
                *platform,
                *threads,
                &options(),
                resilience,
                plan,
                &mut obs,
            );
            PinnedRun { label, result, obs }
        })
    })
}

/// The pinned run named `label`.
fn pinned(label: &str) -> &'static PinnedRun {
    pinned_runs()
        .iter()
        .find(|p| p.label == label)
        .unwrap_or_else(|| panic!("no pinned run {label:?}"))
}

#[test]
fn empty_plan_reproduces_the_baseline_exactly() {
    let data = shared_data(SampleId::S7rce);
    let baseline = run_pipeline(&data, Platform::Server, 4, &options());
    let r = &pinned("empty plan").result;
    assert_eq!(r.outcome, RunOutcome::Completed);
    assert_eq!(r.retries, 0);
    assert_eq!(r.recovery_seconds, 0.0);
    assert!(r.fault_events.is_empty());
    assert!(r.degrade_steps.is_empty());
    assert_eq!(r.wall_seconds, baseline.total_seconds());
    let pipeline = r.pipeline.as_ref().expect("completed run has a pipeline");
    assert_eq!(pipeline.msa_seconds(), baseline.msa_seconds());
    assert_eq!(pipeline.inference_seconds(), baseline.inference_seconds());
    // The phase results are indistinguishable too.
    assert_eq!(phase_text(pipeline), phase_text(&baseline));
}

#[test]
fn seeded_plans_terminate_deterministically() {
    let seeds: Vec<u64> = match std::env::var("AFSB_CHAOS_SEED") {
        Ok(s) => vec![s.parse().expect("AFSB_CHAOS_SEED must be an integer")],
        Err(_) => PINNED_SEEDS.iter().map(|&(seed, _)| seed).collect(),
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
        // A pinned seed's first run is its traced pinned run; any other
        // seed runs twice here.
        let a = match PINNED_SEEDS.iter().find(|&&(s, _)| s == seed) {
            Some(&(_, label)) => pinned(label).result.clone(),
            None => run(),
        };
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
    let ckpt = &pinned("kill, checkpointed").result;
    let rerun = &pinned("kill, rerun").result;
    for r in [ckpt, rerun] {
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
    let r = &pinned("cxl rung").result;
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
    let r = &pinned("window-cap rung").result;
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
    let r = &pinned("ladder exhausted").result;
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
#[should_panic(expected = "inference_deadline_s must be positive and finite, got NaN")]
fn nan_inference_deadline_panics_naming_the_field() {
    // Refused before any simulated work: no attempt can be measured
    // against a NaN budget.
    run_resilient(
        &rna_probe(200),
        Platform::Server,
        4,
        &options(),
        &ResilienceOptions {
            inference_deadline_s: Some(f64::NAN),
            ..ResilienceOptions::default()
        },
        &FaultPlan::none(),
    );
}

#[test]
fn gpu_init_failure_retries_to_the_clean_result() {
    let data = shared_data(SampleId::S2pv7);
    let baseline = run_pipeline(&data, Platform::Desktop, 2, &options());
    let r = &pinned("gpu init failure").result;
    assert_eq!(r.outcome, RunOutcome::Completed);
    assert_eq!(r.retries, 1);
    assert!(r.recovery_seconds > 0.0);
    // The retried inference is indistinguishable from a clean run.
    let pipeline = r.pipeline.as_ref().expect("completed");
    assert_eq!(
        pipeline.inference.wall_seconds(),
        baseline.inference.wall_seconds()
    );
    // The wasted init + backoff landed on the wall.
    assert!(r.wall_seconds > baseline.total_seconds());
}

#[test]
fn repeated_kills_exhaust_the_retry_budget() {
    let r = &pinned("four kills").result;
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
    let r = &pinned("stall and straggler").result;
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
    let plan = kill()
        .with(FaultKind::StorageStall {
            stall_seconds: 30.0,
        })
        .with(FaultKind::GpuInitFailure);
    let resilience = ResilienceOptions::default();
    let PinnedRun {
        result: a,
        obs: obs_a,
        ..
    } = pinned("kill, stall, gpu init");
    let mut obs_b = ObsSession::new();
    run_resilient_traced(
        &data,
        Platform::Server,
        4,
        &options(),
        &resilience,
        &plan,
        &mut obs_b,
    );

    // Tracing must not perturb the executor: accounting is identical to
    // the untraced run, and two traced runs are byte-identical.
    let plain = run_resilient(&data, Platform::Server, 4, &options(), &resilience, &plan);
    assert_eq!(report_bytes(a), report_bytes(&plain));
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

/// FNV-1a over the report, Chrome trace and flamegraph of every pinned
/// run ([`pinned_runs`]), in its order, computed once the executor's
/// circuit breaker was removed: its traces lost their `circuit-closed`
/// instants, and the four-kill run's terminal instant reads
/// `retry-budget-exhausted`.
const EXECUTOR_DIGEST: u64 = 0xdab5_e75c_a4d2_d79f;

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn text(&mut self, text: &str) {
        self.bytes(&(text.len() as u64).to_le_bytes());
        self.bytes(text.as_bytes());
    }
}

#[test]
fn executor_output_matches_the_pinned_digest() {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for run in pinned_runs() {
        h.text(&report_bytes(&run.result));
        h.text(&run.obs.chrome_trace_text());
        h.text(&run.obs.tracer.flamegraph());
    }
    assert_eq!(
        h.0, EXECUTOR_DIGEST,
        "executor digest moved to {:#018x}: the report, trace or flamegraph of a pinned run changed",
        h.0
    );
}

#[test]
fn compile_stall_converts_to_deadline_retry() {
    let data = shared_data(SampleId::S2pv7);
    let baseline = run_pipeline(&data, Platform::Server, 2, &options());
    let clean_inference = baseline.inference.wall_seconds();
    // The pinned run's inference deadline is `clean_inference * 1.2`.
    let r = &pinned("compile stall").result;
    // The stalled attempt blows the phase deadline; the retry (stall
    // already consumed) compiles at normal speed and finishes in budget.
    assert_eq!(r.outcome, RunOutcome::Completed);
    assert_eq!(r.retries, 1);
    assert!(r.recovery_seconds >= clean_inference * 1.2);
    let pipeline = r.pipeline.as_ref().expect("completed");
    assert_eq!(pipeline.inference.wall_seconds(), clean_inference);
}
