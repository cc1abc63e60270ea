//! `afsb-serve`: a deterministic multi-query serving simulator.
//!
//! The paper characterizes one query at a time; this crate turns that
//! single-run model into the serving system its own data points at.
//! MSA dominates end-to-end latency (§III), while `xla_compile` and
//! runtime init amortize across runs (Fig. 8 / Table V) — so a server
//! that (a) caches MSA features for repeated entities and (b) keeps a
//! warm GPU session forming batches pays the dominant costs once
//! instead of per request:
//!
//! - [`workload`]: a seeded request-arrival generator over the
//!   benchmark samples — Poisson arrivals, Zipf-like entity repetition
//!   (popular complexes recur, as in PPI screening),
//! - [`cache`]: a content-addressed, capacity-bounded LRU cache of MSA
//!   feature files — a hit skips the entire CPU phase and charges only
//!   a storage-priced feature load,
//! - [`server`]: the serving types (config, cost table, outcomes,
//!   report) and the fault-free entry point [`run_serve`],
//! - [`scheduler`]: the one serving loop, [`run_serve_policy`] — a CPU
//!   worker pool drains an MSA queue while the GPU queue forms
//!   inference batches of size B, paying `xla_compile` once per shape
//!   and runtime init once per process (reusing `gpu::runtime`'s
//!   cold/warm split), with per-request
//!   [`afsb_core::resilience::Deadline`]s and the §VI admission check;
//!   its whole state is one private struct,
//! - [`scenario`]: the canonical scenario set behind `afsysbench
//!   serve` and the `profile serve` baseline,
//! - [`reference`](mod@reference): the frozen seed step-scan
//!   scheduler, kept verbatim as the byte-equivalence oracle,
//! - [`chaos`]: fault-tolerant serving — `rt::fault` plans delivered
//!   into the event loop and answered by a recovery policy (requeue
//!   with backoff, circuit breaker, deadline shedding, overload
//!   degradation), every admitted request ending in exactly one
//!   disposition,
//! - [`whatif`]: the causal profiler's projection engine — virtual
//!   speedups (MSA ×k, GPU ×k, XLA ×k, +N workers, infinite cache)
//!   replayed Coz-style over the provenance DAG the engine recorded,
//!   each prediction validated against a ground-truth re-run with
//!   scaled cost tables (`rt::obs::causal` extracts the critical path
//!   and blame shares the projections are built on),
//! - [`policy`]: pluggable scheduling policies for the loop —
//!   FIFO (byte-identical baseline), predicted-cost SJF, EDF,
//!   shape-bucketed GPU batching, checkpoint-yield preemption and
//!   speculative MSA-depth degradation — run as a matrix and validated
//!   against the [`whatif`] projections.
//!
//! There is one serving loop, [`run_serve_policy`]: a lazy central MSA
//! queue ordered by discipline, with miss coalescing. [`run_serve`] is
//! it under plain FIFO and an empty plan, [`run_serve_chaos`] under
//! plain FIFO, and every scenario, chaos, telemetry, what-if and policy
//! runner drives it. `tests/equivalence.rs` pins the fault-free FIFO run
//! to the frozen [`reference`](mod@reference) scheduler byte for byte.
//! Everything runs on the simulated clock: the same seed yields
//! byte-identical reports, metrics and traces.
//!
//! Pricing happens once per process: every runner and test reads
//! [`CostTable::canonical`]. [`run_default`] and [`run_chaos`] always
//! arm the observation-only telemetry and provenance; [`run_xl`] does not.

pub mod cache;
pub mod chaos;
pub mod policy;
pub mod reference;
pub mod scenario;
pub mod scheduler;
pub mod server;
pub mod telemetry;
pub mod whatif;
pub mod workload;

pub use cache::FeatureCache;
pub use chaos::{
    chaos_scenarios, render_chaos_summary, run_chaos, run_serve_chaos, ChaosConfig, ChaosReport,
    ChaosScenario, ChaosScenarioRun, Disposition, RecoveryPolicy,
};
pub use policy::{
    policy_scenarios, render_policy_matrix, run_policy_matrix, PolicyConfig, PolicyMatrixReport,
    PolicyReport, PolicyRun, PolicyScenario, PolicyWhatIf, QueueDiscipline,
    POLICY_WHATIF_TOLERANCE_PP, SPECULATE_DEPTH,
};
pub use reference::run_serve_reference;
pub use scenario::{
    default_scenarios, render_summary, run_default, run_xl, xl_scenarios, Scenario, ScenarioRun,
};
pub use scheduler::run_serve_policy;
pub use server::{
    run_serve, CausalLog, CostTable, PhaseSegments, RequestOutcome, SegmentSplit, ServeConfig,
    ServeReport, TelemetryConfig, TIMELINE_COLUMNS,
};
pub use telemetry::{
    render_telemetry, render_timeline_block, run_telemetry, TelemetryReport,
    TELEMETRY_CHAOS_SCENARIO,
};
pub use whatif::{
    canonical_whatifs, predict_makespan, render_whatif, run_whatif, WhatIf, WhatIfReport,
    WhatIfRow, WHATIF_OFF_PATH_DELTA_PP, WHATIF_ON_PATH_SHARE, WHATIF_ON_PATH_TOLERANCE_PP,
};
pub use workload::{generate, Request, WorkloadConfig};
