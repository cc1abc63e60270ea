//! AFSysBench — the AlphaFold3 workload-characterization suite.
//!
//! This crate is the paper's primary artifact: it orchestrates the two
//! characterized phases end to end and regenerates every table and figure
//! of the evaluation.
//!
//! - [`context`]: builds the per-sample search data (synthetic databases,
//!   executed jackhmmer/nhmmer runs) once and caches it,
//! - [`msa_cost`]: converts executed search work counters into the access
//!   -trace programs the architecture simulator replays (the calibrated
//!   symbol ↔ pattern mapping behind Tables III & IV),
//! - [`msa_phase`]: the CPU-side MSA stage — per-chain database searches,
//!   simulated wall time per platform/thread-count, storage and memory
//!   behaviour,
//! - [`inference_phase`]: the GPU-side stage — featurize → model cost log
//!   → XLA compile + runtime lifecycle per platform (Figs. 6 & 8, Tables
//!   V & VI),
//! - [`pipeline`]: end-to-end runs combining both phases (Figs. 3 & 7),
//! - [`estimator`]: the static memory estimator proposed in §VI,
//! - [`resilience`]: the fault-tolerant executor — retries with capped
//!   exponential backoff, an inference deadline, checkpoint/resume for
//!   the MSA phase and the graceful-degradation ladder driven by the
//!   estimator's pre-flight verdict,
//! - [`runner`]: thread sweeps, repeat handling and the adaptive
//!   thread-count recommendation,
//! - [`trace`]: the observability adapters — every phase recorded into
//!   an [`afsb_rt::ObsSession`] as deterministic simulated-clock spans
//!   with paper-symbol attribution, exportable as a Chrome trace,
//!   flamegraph or ASCII tree,
//! - [`report`]: paper-shaped table/figure renderers (ASCII + CSV),
//! - [`calib`]: every tunable constant, with provenance notes.

pub mod calib;
pub mod context;
pub mod estimator;
pub mod inference_phase;
pub mod msa_cost;
pub mod msa_phase;
pub mod pipeline;
pub mod report;
pub mod resilience;
pub mod runner;
pub mod trace;

pub use context::BenchContext;
pub use estimator::MemoryEstimator;
pub use pipeline::{run_pipeline, PipelineResult};
pub use resilience::{
    run_resilient, run_resilient_traced, Deadline, DegradeStep, ResilienceOptions, ResilientResult,
    RetryPolicy, RunOutcome,
};
pub use trace::{record_pipeline, run_pipeline_traced};
