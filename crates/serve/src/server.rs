//! The serving layer's shared types — configuration, cost table,
//! outcomes, report — and [`run_serve`]: the one serving loop
//! ([`crate::scheduler`]) under plain FIFO and an empty fault plan,
//! bit-identical to the frozen seed scheduler kept in
//! [`crate::reference`] (enforced by `tests/equivalence.rs`).

use crate::chaos::{run_serve_chaos, ChaosConfig};
use crate::scenario::SERVE_SEED;
use crate::workload::{Request, WorkloadConfig};
use afsb_core::calib;
use afsb_core::context::{scale, BenchContext};
use afsb_core::inference_phase::gpu_for;
use afsb_core::msa_phase::{run_msa_phase, MsaPhaseOptions};
use afsb_core::resilience::Deadline;
use afsb_gpu::runtime::{GpuRuntime, HostCpuModel};
use afsb_model::{price_inference, ModelConfig};
use afsb_rt::obs::timeline::{SloConfig, SloOutcome, TimelineSampler};
use afsb_rt::obs::{HistogramSummary, ObsSession};
use afsb_rt::sim::ProvenanceEdge;
use afsb_seq::samples::SampleId;
use afsb_simarch::config::GIB;
use afsb_simarch::memory::CapacityModel;
use afsb_simarch::Platform;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::OnceLock;

/// Latency histogram bucket bounds (simulated seconds): sub-minute for
/// warm cache+session hits through multi-day for queued cold misses.
pub const LATENCY_BOUNDS: [f64; 16] = [
    1.0, 2.0, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0, 600.0, 1800.0, 3600.0, 7200.0, 14400.0, 43200.0,
    86400.0, 259200.0,
];

/// Fixed per-file open/seek overhead of a cached-feature load.
const FEATURE_LOAD_BASE_S: f64 = 0.05;

/// Bytes per (MSA row × residue) cell of a serialized feature file.
const FEATURE_CELL_BYTES: u64 = 16;

/// Serving-simulation configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Platform served on.
    pub platform: Platform,
    /// The request stream.
    pub workload: WorkloadConfig,
    /// MSA worker-pool width (concurrent MSA jobs).
    pub cpu_workers: usize,
    /// GPU batch size B (requests per dispatch).
    pub gpu_batch: usize,
    /// Feature-cache capacity in bytes (`0` disables caching).
    pub cache_capacity_bytes: u64,
    /// Start with every catalog entity's features cached (steady-state
    /// serving) instead of an empty cache (cold start).
    pub prewarm_cache: bool,
    /// Per-request latency deadline.
    pub deadline: Deadline,
    /// Coalesce concurrent misses for the same entity: instead of
    /// duplicating the MSA search, the second miss waits on the
    /// in-flight fill (readiness via a `CacheFill` event) and counts as
    /// a coalesced cache hit. Off by default — the canonical scenarios
    /// predate the feature and their baselines must not move.
    pub coalesce_misses: bool,
    /// Observation-only telemetry (timeline sampler + SLO monitor).
    /// Never changes scheduling decisions or priced floats; off by
    /// default so existing baselines do not move.
    pub telemetry: TelemetryConfig,
    /// Record causal provenance (the event engine's parent edges plus
    /// the serve-side wait/service splits) into
    /// [`ServeReport::causal`] for critical-path extraction and
    /// what-if projection. Observation-only: outcomes, floats and
    /// rendered reports are byte-identical with it on or off
    /// (`tests/causal.rs`). Off by default.
    pub provenance: bool,
}

/// Serving-telemetry switches. Everything here is observation-only:
/// enabling any of it leaves `ServeReport` results byte-identical to a
/// run without it (enforced by `tests/telemetry.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TelemetryConfig {
    /// Timeline sampling interval in simulated seconds (`0` disables
    /// the sampler).
    pub timeline_interval_s: f64,
    /// Windowed burn-rate SLO monitor (`None` disables it).
    pub slo: Option<SloConfig>,
}

impl TelemetryConfig {
    /// The serving default: a dashboard-friendly sampling interval
    /// (one row per 2 simulated hours quick, 4 full) plus the standard
    /// goodput SLO.
    pub fn standard(quick: bool) -> TelemetryConfig {
        TelemetryConfig {
            timeline_interval_s: if quick { 7200.0 } else { 14400.0 },
            slo: Some(SloConfig::standard()),
        }
    }

    /// Check the instruments' numbers before a run, returning an error
    /// that names the field (a NaN interval would switch the sampler off).
    pub fn validate(&self) -> Result<(), String> {
        non_negative("telemetry: timeline_interval_s", self.timeline_interval_s)?;
        match &self.slo {
            Some(slo) => slo.validate().map_err(|e| format!("telemetry: {e}")),
            None => Ok(()),
        }
    }
}

/// Gauge columns sampled by the serving timeline, in emission order:
/// outstanding MSA jobs, busy pool workers, GPU busy flag, cache
/// entries, cache hit rate, in-flight cache fills, breaker-open flag
/// (always 0 without a fault plan).
pub const TIMELINE_COLUMNS: [&str; 7] = [
    "msa_q", "workers", "gpu", "cache", "hit_rate", "fills", "brk",
];

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            platform: Platform::Server,
            workload: WorkloadConfig::default(),
            cpu_workers: 4,
            gpu_batch: 4,
            cache_capacity_bytes: 64 * GIB,
            prewarm_cache: false,
            deadline: Deadline::new(Some(3.0 * 86400.0)),
            coalesce_misses: false,
            telemetry: TelemetryConfig::default(),
            provenance: false,
        }
    }
}

impl ServeConfig {
    /// Check the config for degenerate values up front, returning an
    /// error that names the offending field instead of running a
    /// degenerate simulation (a NaN deadline, say, silently flags no
    /// request late, because `spent > NaN` is always false).
    pub fn validate(&self) -> Result<(), String> {
        self.workload.validate()?;
        self.telemetry.validate()?;
        if self.cpu_workers == 0 {
            return Err("serve: cpu_workers must be at least 1".to_owned());
        }
        if self.gpu_batch == 0 {
            return Err("serve: gpu_batch must be at least 1".to_owned());
        }
        if let Some(limit) = self.deadline.limit_seconds() {
            if !(limit > 0.0 && limit.is_finite()) {
                return Err(format!(
                    "serve: deadline limit must be positive and finite, got {limit}"
                ));
            }
        }
        Ok(())
    }

    /// This config with both observation-only instruments armed:
    /// [`TelemetryConfig::standard`] and causal provenance.
    pub(crate) fn observed(self, quick: bool) -> ServeConfig {
        ServeConfig {
            telemetry: TelemetryConfig::standard(quick),
            provenance: true,
            ..self
        }
    }
}

/// `Err` naming `field` unless `value` is finite and at least 0.
pub(crate) fn non_negative(field: &str, value: f64) -> Result<(), String> {
    if value.is_finite() && value >= 0.0 {
        Ok(())
    } else {
        Err(format!("{field} must be finite and >= 0, got {value}"))
    }
}

/// Priced costs of one request shape (one benchmark sample).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShapeCost {
    /// Full MSA-phase wall seconds on a pool worker.
    pub msa_s: f64,
    /// Serialized MSA feature-file size.
    pub feature_bytes: u64,
    /// Seconds to load the feature file from NVMe on a cache hit.
    pub feature_load_s: f64,
    /// Paper-scale MSA peak memory (drives admission).
    pub peak_msa_bytes: u64,
    /// Whether the §VI admission check lets the shape run.
    pub admitted: bool,
    /// One-time XLA compilation seconds for the shape.
    pub compile_s: f64,
    /// Kernel-execution seconds per request.
    pub compute_s: f64,
}

/// Priced costs for every shape plus the process-wide constants.
#[derive(Debug, Clone)]
pub struct CostTable {
    /// Platform the table was priced on.
    pub platform: Platform,
    /// MSA threads per pool worker used for pricing and admission.
    pub msa_threads: usize,
    /// One-time cold runtime init (first batch only).
    pub init_s: f64,
    /// Warm dispatch setup + output writeback per batch.
    pub dispatch_s: f64,
    /// Per-shape costs.
    pub shapes: BTreeMap<SampleId, ShapeCost>,
}

impl CostTable {
    /// `build(Platform::Server, quick, 4, SERVE_SEED)`, priced on first
    /// use and shared by every serving runner and test in the process.
    pub fn canonical(quick: bool) -> &'static CostTable {
        static QUICK: OnceLock<CostTable> = OnceLock::new();
        static FULL: OnceLock<CostTable> = OnceLock::new();
        let table = if quick { &QUICK } else { &FULL };
        table.get_or_init(|| CostTable::build(Platform::Server, quick, 4, SERVE_SEED))
    }

    /// Price every benchmark shape on `platform`. `quick` selects the
    /// test-scale databases and sampling budget
    /// ([`afsb_core::context::scale`]); `msa_threads` is the per-worker
    /// thread count. The GPU cost of a shape comes from
    /// [`price_inference`], which never runs the model, so the table
    /// does not depend on `_seed`: it only ever seeded model weights
    /// whose output the table discarded, and stays in the signature
    /// for the callers that pass it.
    pub fn build(platform: Platform, quick: bool, msa_threads: usize, _seed: u64) -> CostTable {
        let (config, sample_cap) = scale(quick);
        let mut ctx = BenchContext::new(config);
        let runtime = GpuRuntime::new(
            gpu_for(platform),
            HostCpuModel {
                single_core_score: calib::host_cpu_score(platform),
            },
        );
        let capacity = CapacityModel::new(&platform.spec());
        let storage_bps = platform.spec().storage.seq_read_gibs * GIB as f64;

        let mut shapes = BTreeMap::new();
        let mut init_s = 0.0f64;
        let mut dispatch_s = 0.0f64;
        for &id in &SampleId::all() {
            let data = ctx.sample_data(id);
            let msa = run_msa_phase(
                &data,
                platform,
                msa_threads,
                &MsaPhaseOptions {
                    sample_cap,
                    ..MsaPhaseOptions::default()
                },
            );
            let peak = data.paper_peak_msa_bytes(msa_threads);
            let admitted = capacity.admit(peak).completes() && msa.completed();
            let model =
                price_inference(&data.sample.assembly, data.msa_depth, &ModelConfig::paper());
            let cold = runtime.run_cold(&model.cost_log, model.working_set_bytes);
            let warm = runtime.run_warm(&model.cost_log, model.working_set_bytes);
            init_s = cold.init_s;
            dispatch_s = warm.init_s + warm.finalize_s;
            let feature_bytes = data.msa_depth as u64
                * data.sample.assembly.total_residues() as u64
                * FEATURE_CELL_BYTES;
            shapes.insert(
                id,
                ShapeCost {
                    msa_s: msa.wall_seconds(),
                    feature_bytes,
                    feature_load_s: FEATURE_LOAD_BASE_S + feature_bytes as f64 / storage_bps,
                    peak_msa_bytes: peak,
                    admitted,
                    compile_s: cold.xla_compile_s,
                    compute_s: warm.gpu_compute_s,
                },
            );
        }
        CostTable {
            platform,
            msa_threads,
            init_s,
            dispatch_s,
            shapes,
        }
    }

    /// Check that every cost is finite and at least 0, returning an
    /// error that names the field. The serving loop relies on it: SJF
    /// orders its queue by `msa_s`, the GPU pool is ordered by
    /// readiness, and a NaN would reach the engine as an event time.
    pub fn validate(&self) -> Result<(), String> {
        non_negative("cost table: init_s", self.init_s)?;
        non_negative("cost table: dispatch_s", self.dispatch_s)?;
        for (id, s) in &self.shapes {
            for (field, value) in [
                ("msa_s", s.msa_s),
                ("feature_load_s", s.feature_load_s),
                ("compile_s", s.compile_s),
                ("compute_s", s.compute_s),
            ] {
                non_negative(&format!("cost table: {} {field}", id.name()), value)?;
            }
        }
        Ok(())
    }

    /// The cost of one shape.
    ///
    /// # Panics
    ///
    /// Panics when the shape was never priced.
    pub fn shape(&self, id: SampleId) -> &ShapeCost {
        self.shapes
            .get(&id)
            .unwrap_or_else(|| panic!("shape {} not in the cost table", id.name()))
    }
}

/// Where one request's latency went, split into named phases that sum
/// to [`RequestOutcome::latency_s`] (the GPU-service field is closed as
/// the exact residual, so the reconstruction is bit-faithful up to one
/// rounding ulp — `tests/telemetry.rs` property-checks 1e-9).
///
/// All fields accumulate (`+=`) across scheduling decisions, so chaos
/// requeues, retimes and storage stalls attribute naturally: a killed
/// attempt's un-run tail is subtracted, backoff and breaker-parked time
/// lands in `admission_wait_s`, and a re-dispatched attempt adds its own
/// queue and service segments.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseSegments {
    /// Chaos-only: requeue backoff plus breaker-parked seconds between
    /// a kill and the next dispatch (0 in fault-free runs).
    pub admission_wait_s: f64,
    /// Seconds queued for a free MSA pool worker.
    pub msa_queue_wait_s: f64,
    /// Seconds of MSA service actually run on a worker.
    pub msa_service_s: f64,
    /// Cache-path wait: storage-priced feature load, coalesced wait on
    /// an in-flight fill, and chaos storage-stall inflation.
    pub cache_wait_s: f64,
    /// Seconds between feature readiness and the GPU batch opening.
    pub batch_wait_s: f64,
    /// This batch's `xla_compile` seconds (shared by every member of
    /// the batch that triggered the compile).
    pub xla_compile_s: f64,
    /// GPU service residual: init, reinit, dispatch and kernel compute.
    pub gpu_service_s: f64,
}

impl PhaseSegments {
    /// Phase names in canonical (roughly chronological) order, matching
    /// [`PhaseSegments::get`].
    pub const NAMES: [&'static str; 7] = [
        "admission_wait",
        "msa_queue_wait",
        "msa_service",
        "cache_wait",
        "batch_wait",
        "xla_compile",
        "gpu_service",
    ];

    /// The `i`-th phase value in [`PhaseSegments::NAMES`] order.
    pub fn get(&self, i: usize) -> f64 {
        match i {
            0 => self.admission_wait_s,
            1 => self.msa_queue_wait_s,
            2 => self.msa_service_s,
            3 => self.cache_wait_s,
            4 => self.batch_wait_s,
            5 => self.xla_compile_s,
            6 => self.gpu_service_s,
            _ => panic!("phase index {i} out of range"),
        }
    }

    /// Sum of every non-GPU phase, in fixed field order (the same order
    /// [`PhaseSegments::total`] uses, so the residual closure is exact).
    fn non_gpu_total(&self) -> f64 {
        self.admission_wait_s
            + self.msa_queue_wait_s
            + self.msa_service_s
            + self.cache_wait_s
            + self.batch_wait_s
            + self.xla_compile_s
    }

    /// Sum of all phases; reproduces `latency_s()` for finished
    /// requests.
    pub fn total(&self) -> f64 {
        self.non_gpu_total() + self.gpu_service_s
    }

    /// Close the attribution at completion: the GPU-service phase is
    /// the exact residual between the observed latency and every other
    /// phase, so the seven fields always reconstruct `latency_s()`.
    /// Float drift across chaos requeue accumulation can push the
    /// residual a few ulps negative; it is clamped to 0 so the phase
    /// never reads as negative time (the closure property still holds
    /// at 1e-9).
    pub(crate) fn close(&mut self, latency_s: f64) {
        let residual = latency_s - self.non_gpu_total();
        debug_assert!(
            residual > -1e-9,
            "gpu_service residual {residual} is more than rounding-negative"
        );
        self.gpu_service_s = residual.max(0.0);
    }
}

/// Per-request outcome of a serving run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestOutcome {
    /// The request served.
    pub request: Request,
    /// Whether the MSA features came from the cache.
    pub cache_hit: bool,
    /// Whether admission control rejected the request.
    pub rejected: bool,
    /// When the features were ready (MSA done or cache load done).
    pub ready_s: f64,
    /// When inference completed (0 for rejected requests).
    pub done_s: f64,
    /// Whether the request finished past its deadline.
    pub deadline_missed: bool,
    /// Whether GPU inference actually completed. Explicit so reports
    /// never infer "finished" from the `done_s > 0.0` sentinel — a
    /// request arriving at simulated t = 0 whose phases all cost zero
    /// legitimately finishes at `done_s == 0.0`, while a chaos-shed or
    /// failed request keeps `finished == false`.
    pub finished: bool,
    /// Latency attribution (all-zero for rejected requests; partial for
    /// chaos-shed/failed ones, whose `done_s` stays 0).
    pub segments: PhaseSegments,
}

impl RequestOutcome {
    /// Arrival-to-completion latency in simulated seconds.
    pub fn latency_s(&self) -> f64 {
        self.done_s - self.request.arrival_s
    }
}

/// The non-queue portion of one provenance edge, recorded by the
/// serving loop alongside the engine's edge log so the what-if
/// projector can scale service and queueing differently (adding
/// workers shrinks the queue but not the service; a faster GPU shrinks
/// both but not the one-time compile).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SegmentSplit {
    /// Queue/contention seconds inside the edge (waiting for a free
    /// worker, or for the GPU to drain the previous batch).
    pub wait_s: f64,
    /// Pure service seconds (MSA compute; GPU init + dispatch +
    /// kernel execution).
    pub service_s: f64,
    /// One-time XLA compilation seconds inside a GPU edge.
    pub compile_s: f64,
}

/// Observation-only causal record of one serving run: the engine's
/// provenance edges plus the serve-side annotations the causal
/// profiler needs. Populated when [`ServeConfig::provenance`] is set;
/// carrying it changes nothing about the run itself
/// (`tests/causal.rs` gates byte-identity).
#[derive(Debug, Clone, Default)]
pub struct CausalLog {
    /// The engine's causal edge log, indexed by event seq.
    pub edges: Vec<ProvenanceEdge>,
    /// Seq of the completion event that terminates the makespan (the
    /// last batch's `GpuDone`), `None` when nothing was served.
    pub makespan_event: Option<u64>,
    /// Per-request completion event seq (its batch's `GpuDone`);
    /// `None` for rejected / shed / failed requests.
    pub completions: Vec<Option<u64>>,
    /// Wait/service splits for worker-busy and gpu-busy edges, keyed
    /// by event seq.
    pub splits: BTreeMap<u64, SegmentSplit>,
}

/// Everything one serving run produced.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// The configuration served.
    pub config: ServeConfig,
    /// Per-request outcomes in arrival order.
    pub outcomes: Vec<RequestOutcome>,
    /// Requests served to completion.
    pub served: usize,
    /// Requests rejected by admission control.
    pub rejected: usize,
    /// Served requests that missed their deadline.
    pub deadline_missed: usize,
    /// End-to-end makespan (last completion, at least the last arrival).
    pub makespan_s: f64,
    /// Throughput in queries per hour.
    pub throughput_qph: f64,
    /// Seconds the GPU spent busy.
    pub gpu_busy_s: f64,
    /// GPU busy fraction of the makespan.
    pub gpu_occupancy: f64,
    /// GPU dispatches issued.
    pub batches: usize,
    /// Distinct shapes compiled.
    pub compiled_shapes: usize,
    /// Feature-cache hits.
    pub cache_hits: u64,
    /// Feature-cache misses.
    pub cache_misses: u64,
    /// Feature-cache evictions.
    pub cache_evictions: u64,
    /// Cache hit rate over lookups.
    pub cache_hit_rate: f64,
    /// Hits that piggybacked on an in-flight fill (always `0` unless
    /// `coalesce_misses` is on).
    pub cache_coalesced: u64,
    /// Latency distribution of served requests (`None` when none).
    pub latency: Option<HistogramSummary>,
    /// Gauge timeline (populated when `telemetry.timeline_interval_s`
    /// is set; observation-only).
    pub timeline: Option<TimelineSampler>,
    /// SLO burn-rate evaluation (populated when `telemetry.slo` is set;
    /// observation-only).
    pub slo: Option<SloOutcome>,
    /// Causal provenance record (populated when `config.provenance`
    /// is set; observation-only).
    pub causal: Option<CausalLog>,
}

impl ServeReport {
    /// Human-readable per-run report block.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let w = &self.config.workload;
        let _ = writeln!(
            out,
            "serve: {} requests over {} entities on {} (workers {}, batch {}, cache {} GiB{}{})",
            w.num_requests,
            w.catalog_size,
            self.config.platform,
            self.config.cpu_workers,
            self.config.gpu_batch,
            self.config.cache_capacity_bytes / GIB,
            if self.config.prewarm_cache {
                ", prewarmed"
            } else {
                ""
            },
            if self.config.coalesce_misses {
                ", coalescing"
            } else {
                ""
            }
        );
        let _ = writeln!(
            out,
            "  throughput {:.2} queries/h over {:.0} s makespan ({} served, {} rejected, {} deadline-missed)",
            self.throughput_qph, self.makespan_s, self.served, self.rejected, self.deadline_missed
        );
        let _ = writeln!(
            out,
            "  cache: {:.1}% hit rate ({} hits / {} misses, {} evictions{})",
            self.cache_hit_rate * 100.0,
            self.cache_hits,
            self.cache_misses,
            self.cache_evictions,
            if self.config.coalesce_misses {
                format!(", {} coalesced", self.cache_coalesced)
            } else {
                String::new()
            }
        );
        let _ = writeln!(
            out,
            "  gpu: {:.1}% occupancy ({:.0} s busy, {} batches, {} shapes compiled)",
            self.gpu_occupancy * 100.0,
            self.gpu_busy_s,
            self.batches,
            self.compiled_shapes
        );
        match &self.latency {
            Some(l) => {
                let _ = writeln!(
                    out,
                    "  latency: p50 {:.0} s  p90 {:.0} s  p99 {:.0} s  (mean {:.0} s)",
                    l.p50, l.p90, l.p99, l.mean
                );
            }
            None => {
                let _ = writeln!(out, "  latency: n/a (no requests served)");
            }
        }
        out
    }

    /// Outcomes that finished (not rejected, not chaos-shed/failed),
    /// sorted by latency with request id breaking ties. Uses the
    /// explicit [`RequestOutcome::finished`] disposition, not the old
    /// `done_s > 0.0` sentinel, so a request that legitimately
    /// completes at simulated t = 0 still counts.
    fn finished_by_latency(&self) -> Vec<&RequestOutcome> {
        let mut v: Vec<&RequestOutcome> = self.outcomes.iter().filter(|o| o.finished).collect();
        v.sort_by(|a, b| {
            a.latency_s()
                .partial_cmp(&b.latency_s())
                .expect("finite latencies")
                .then(a.request.id.cmp(&b.request.id))
        });
        v
    }

    /// The exact finished request sitting at quantile `p` of the
    /// latency distribution (rank `ceil(p·n)`), or `None` when nothing
    /// finished.
    pub fn percentile_outcome(&self, p: f64) -> Option<&RequestOutcome> {
        let sorted = self.finished_by_latency();
        if sorted.is_empty() {
            return None;
        }
        let rank = (p.clamp(0.0, 1.0) * sorted.len() as f64).ceil().max(1.0) as usize;
        Some(sorted[rank - 1])
    }

    /// Mean share of finished-request latency attributed to each phase,
    /// as `(name, share)` pairs summing to ~1, or `None` when nothing
    /// finished.
    pub fn attribution_shares(&self) -> Option<[(&'static str, f64); 7]> {
        let finished = self.finished_by_latency();
        if finished.is_empty() {
            return None;
        }
        let total: f64 = finished.iter().map(|o| o.latency_s()).sum();
        if total <= 0.0 {
            return None;
        }
        let mut out = [("", 0.0); 7];
        for (i, slot) in out.iter_mut().enumerate() {
            let phase: f64 = finished.iter().map(|o| o.segments.get(i)).sum();
            *slot = (PhaseSegments::NAMES[i], phase / total);
        }
        Some(out)
    }

    /// "Where does p50/p90/p99 live" — per-phase mean seconds and share
    /// over finished requests, plus the exact p50/p90/p99 requests'
    /// own segments.
    pub fn render_attribution(&self) -> String {
        let finished = self.finished_by_latency();
        if finished.is_empty() {
            return "latency attribution: n/a (no requests finished)\n".to_owned();
        }
        let n = finished.len();
        let mean_latency: f64 = finished.iter().map(|o| o.latency_s()).sum::<f64>() / n as f64;
        let pick = |p: f64| {
            self.percentile_outcome(p)
                .expect("finished set is non-empty")
        };
        let (p50, p90, p99) = (pick(0.50), pick(0.90), pick(0.99));
        let mut out = String::new();
        let _ = writeln!(out, "latency attribution over {n} finished requests:");
        let _ = writeln!(
            out,
            "  {:<16} {:>11} {:>7} {:>11} {:>11} {:>11}",
            "phase", "mean s", "share", "p50 req s", "p90 req s", "p99 req s"
        );
        for (i, name) in PhaseSegments::NAMES.iter().enumerate() {
            let mean = finished.iter().map(|o| o.segments.get(i)).sum::<f64>() / n as f64;
            let _ = writeln!(
                out,
                "  {:<16} {:>11.1} {:>6.1}% {:>11.1} {:>11.1} {:>11.1}",
                name,
                mean,
                mean / mean_latency * 100.0,
                p50.segments.get(i),
                p90.segments.get(i),
                p99.segments.get(i)
            );
        }
        let _ = writeln!(
            out,
            "  {:<16} {:>11.1} {:>6.1}% {:>11.1} {:>11.1} {:>11.1}",
            "total",
            mean_latency,
            100.0,
            p50.latency_s(),
            p90.latency_s(),
            p99.latency_s()
        );
        out
    }

    /// ASCII waterfall of the exact p99 request: one bar per phase at
    /// its cumulative offset within the request's latency.
    pub fn render_p99_waterfall(&self) -> String {
        const BAR_W: usize = 36;
        let Some(o) = self.percentile_outcome(0.99) else {
            return "p99 waterfall: n/a (no requests finished)\n".to_owned();
        };
        let latency = o.latency_s();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "p99 waterfall: request #{} (entity {}, {}) arrival {:.1} s, latency {:.1} s:",
            o.request.id,
            o.request.entity,
            o.request.sample.name(),
            o.request.arrival_s,
            latency
        );
        let _ = writeln!(
            out,
            "  {:<16} {:>11} {:>11}  |{:<36}|",
            "phase", "start s", "dur s", "0% .. 100% of latency"
        );
        let mut offset = 0.0f64;
        for (i, name) in PhaseSegments::NAMES.iter().enumerate() {
            let dur = o.segments.get(i);
            // Half-open-inclusive extents: the start cell floors, the
            // end cell ceils, and any nonzero duration paints at least
            // one cell (capped at BAR_W). Flooring both ends erased
            // short phases entirely and let a phase ending exactly at
            // the right edge clip to nothing.
            let (lo, hi) = if dur > 0.0 {
                let lo = (((offset / latency) * BAR_W as f64).floor() as usize).min(BAR_W - 1);
                let hi = ((((offset + dur) / latency) * BAR_W as f64).ceil() as usize)
                    .min(BAR_W)
                    .max(lo + 1);
                (lo, hi)
            } else {
                (0, 0)
            };
            let mut bar = vec![b'.'; BAR_W];
            for cell in bar.iter_mut().take(hi).skip(lo) {
                *cell = b'#';
            }
            let _ = writeln!(
                out,
                "  {:<16} {:>11.1} {:>11.1}  |{}|",
                name,
                offset,
                dur,
                String::from_utf8(bar).expect("ascii bar")
            );
            offset += dur;
        }
        out
    }
}

/// Run the fault-free serving simulation: the serving loop of
/// [`crate::scheduler`] under plain FIFO and an empty fault plan, which
/// reduces bit-for-bit to the frozen seed scheduler in
/// [`crate::reference`] (`tests/equivalence.rs` enforces this). The
/// tracer in `obs` must be fresh (the run lays its spans from simulated
/// second 0); counters, gauges and the latency histogram are published
/// into `obs.metrics`.
///
/// # Panics
///
/// Panics with the [`ServeConfig::validate`] or [`CostTable::validate`]
/// error on a degenerate config or cost table.
pub fn run_serve(config: &ServeConfig, costs: &CostTable, obs: &mut ObsSession) -> ServeReport {
    run_serve_chaos(config, &ChaosConfig::none(), costs, obs).base
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-priced cost table: MSA dominates (minutes) while the GPU
    /// serves in seconds — the paper's §III shape.
    fn synthetic_costs() -> CostTable {
        let mut shapes = BTreeMap::new();
        for (k, &id) in SampleId::all().iter().enumerate() {
            shapes.insert(
                id,
                ShapeCost {
                    msa_s: 120.0 + 30.0 * k as f64,
                    feature_bytes: 10 << 20,
                    feature_load_s: 0.1,
                    peak_msa_bytes: 1 << 30,
                    admitted: true,
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

    fn base_config() -> ServeConfig {
        ServeConfig {
            workload: WorkloadConfig {
                num_requests: 48,
                catalog_size: 10,
                arrival_rate_per_s: 0.1,
                zipf_exponent: 1.1,
                seed: 17,
            },
            ..ServeConfig::default()
        }
    }

    fn run(config: &ServeConfig) -> ServeReport {
        run_serve(config, &synthetic_costs(), &mut ObsSession::new())
    }

    #[test]
    fn run_is_deterministic_including_trace_and_metrics() {
        let cfg = base_config();
        let mut a_obs = ObsSession::new();
        let mut b_obs = ObsSession::new();
        let a = run_serve(&cfg, &synthetic_costs(), &mut a_obs);
        let b = run_serve(&cfg, &synthetic_costs(), &mut b_obs);
        assert_eq!(a.render(), b.render());
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(
            a_obs.metrics.render_text(),
            b_obs.metrics.render_text(),
            "metrics must replay byte-identically"
        );
    }

    #[test]
    fn caching_strictly_increases_throughput() {
        let with_cache = run(&base_config());
        let no_cache = run(&ServeConfig {
            cache_capacity_bytes: 0,
            ..base_config()
        });
        assert!(with_cache.cache_hit_rate > no_cache.cache_hit_rate);
        assert_eq!(no_cache.cache_hits, 0);
        assert!(
            with_cache.throughput_qph > no_cache.throughput_qph,
            "cache hits must strictly raise queries/hour: {} vs {}",
            with_cache.throughput_qph,
            no_cache.throughput_qph
        );
    }

    #[test]
    fn bigger_gpu_batches_strictly_increase_throughput_under_backlog() {
        // Steady-state serving: everything hits the cache, so the GPU is
        // the bottleneck and batching amortizes the dispatch setup.
        let warm = ServeConfig {
            prewarm_cache: true,
            ..base_config()
        };
        let b1 = run(&ServeConfig {
            gpu_batch: 1,
            ..warm
        });
        let b4 = run(&ServeConfig {
            gpu_batch: 4,
            ..warm
        });
        let b8 = run(&ServeConfig {
            gpu_batch: 8,
            ..warm
        });
        assert!(
            b4.throughput_qph > b1.throughput_qph,
            "B=4 {} vs B=1 {}",
            b4.throughput_qph,
            b1.throughput_qph
        );
        assert!(
            b8.throughput_qph >= b4.throughput_qph,
            "B=8 {} vs B=4 {}",
            b8.throughput_qph,
            b4.throughput_qph
        );
        assert!(b4.batches < b1.batches);
    }

    #[test]
    fn compile_paid_once_per_shape_and_init_once() {
        let r = run(&ServeConfig {
            prewarm_cache: true,
            ..base_config()
        });
        assert!(r.compiled_shapes <= SampleId::all().len());
        assert!(r.batches > 0);
        // Total GPU busy accounts one init, one compile per shape, one
        // dispatch per batch and one compute per request.
        let costs = synthetic_costs();
        let expected: f64 = costs.init_s
            + r.batches as f64 * costs.dispatch_s
            + costs
                .shapes
                .iter()
                .filter(|(id, _)| r.outcomes.iter().any(|o| o.request.sample == **id))
                .map(|(_, s)| s.compile_s)
                .sum::<f64>()
            + r.outcomes
                .iter()
                .filter(|o| !o.rejected)
                .map(|o| costs.shape(o.request.sample).compute_s)
                .sum::<f64>();
        assert!(
            (r.gpu_busy_s - expected).abs() < 1e-6,
            "gpu busy {} vs expected {expected}",
            r.gpu_busy_s
        );
    }

    #[test]
    fn coalescing_concurrent_misses_improves_hit_rate_and_throughput() {
        // Cold cache + slow MSA: popular entities miss repeatedly while
        // the first fill is still in flight, so coalescing turns the
        // duplicate searches into waits on the in-flight fill.
        let off = run(&base_config());
        let on = run(&ServeConfig {
            coalesce_misses: true,
            ..base_config()
        });
        assert_eq!(off.cache_coalesced, 0);
        assert!(on.cache_coalesced > 0, "no concurrent misses to coalesce");
        assert!(
            on.cache_hit_rate > off.cache_hit_rate,
            "hit rate must improve: {} vs {}",
            on.cache_hit_rate,
            off.cache_hit_rate
        );
        assert!(
            on.throughput_qph > off.throughput_qph,
            "qph must improve: {} vs {}",
            on.throughput_qph,
            off.throughput_qph
        );
        assert!(on.render().contains("coalesced"));

        // Steady state (prewarmed cache) has no misses to coalesce:
        // the flag must be a no-op there.
        let warm = ServeConfig {
            prewarm_cache: true,
            ..base_config()
        };
        let warm_on = run(&ServeConfig {
            coalesce_misses: true,
            ..warm
        });
        let warm_off = run(&warm);
        assert_eq!(warm_on.cache_coalesced, 0);
        assert_eq!(warm_on.outcomes, warm_off.outcomes);
    }

    #[test]
    fn admission_rejects_unadmitted_shapes() {
        let mut costs = synthetic_costs();
        for shape in costs.shapes.values_mut() {
            shape.admitted = false;
        }
        let r = run_serve(&base_config(), &costs, &mut ObsSession::new());
        assert_eq!(r.served, 0);
        assert_eq!(r.rejected, r.outcomes.len());
        assert_eq!(r.throughput_qph, 0.0);
        assert!(r.latency.is_none());
        assert!(r.render().contains("n/a"));
    }

    #[test]
    fn deadlines_flag_slow_requests() {
        let tight = run(&ServeConfig {
            deadline: Deadline::new(Some(1.0)),
            ..base_config()
        });
        assert_eq!(
            tight.deadline_missed, tight.served,
            "a 1 s deadline must flag every served request"
        );
        let loose = run(&ServeConfig {
            deadline: Deadline::new(None),
            ..base_config()
        });
        assert_eq!(loose.deadline_missed, 0);
    }

    #[test]
    fn validate_accepts_a_sane_config() {
        assert_eq!(base_config().validate(), Ok(()));
        let unbounded = ServeConfig {
            deadline: Deadline::new(None),
            ..base_config()
        };
        assert_eq!(unbounded.validate(), Ok(()));
    }

    #[test]
    fn validate_names_each_degenerate_field() {
        let cases = [
            (
                ServeConfig {
                    cpu_workers: 0,
                    ..base_config()
                },
                "cpu_workers",
            ),
            (
                ServeConfig {
                    gpu_batch: 0,
                    ..base_config()
                },
                "gpu_batch",
            ),
            (
                ServeConfig {
                    workload: WorkloadConfig {
                        catalog_size: 0,
                        ..base_config().workload
                    },
                    ..base_config()
                },
                "catalog_size",
            ),
        ];
        for (config, field) in cases {
            let err = config.validate().expect_err(field);
            assert!(err.contains(field), "error names {field}: {err}");
        }
        for limit in [f64::NAN, f64::INFINITY, 0.0, -1.0] {
            let config = ServeConfig {
                deadline: Deadline::new(Some(limit)),
                ..base_config()
            };
            let err = config.validate().expect_err("bad deadline");
            assert!(err.contains("deadline"), "limit {limit}: {err}");
        }
    }

    #[test]
    #[should_panic(expected = "deadline")]
    fn nan_deadline_panics_instead_of_never_flagging() {
        run(&ServeConfig {
            deadline: Deadline::new(Some(f64::NAN)),
            ..base_config()
        });
    }

    #[test]
    fn validate_names_each_bad_telemetry_field() {
        let armed = |telemetry| ServeConfig {
            telemetry,
            ..base_config()
        };
        assert_eq!(armed(TelemetryConfig::standard(true)).validate(), Ok(()));
        assert_eq!(armed(TelemetryConfig::default()).validate(), Ok(()));
        type Set = fn(&mut TelemetryConfig, f64);
        fn slo(t: &mut TelemetryConfig) -> &mut SloConfig {
            t.slo.as_mut().expect("standard arms the SLO")
        }
        let cases: [(&str, Set, &[f64]); 5] = [
            (
                "timeline_interval_s",
                |t, v| t.timeline_interval_s = v,
                &[f64::NAN, f64::INFINITY, -1.0],
            ),
            (
                "window_s",
                |t, v| slo(t).window_s = v,
                &[f64::NAN, f64::INFINITY, 0.0, -1.0],
            ),
            (
                "availability_target",
                |t, v| slo(t).availability_target = v,
                &[f64::NAN, 1.0, -0.1],
            ),
            (
                "clear_burn",
                |t, v| slo(t).clear_burn = v,
                &[f64::NAN, f64::INFINITY, -1.0],
            ),
            (
                "fire_burn",
                |t, v| slo(t).fire_burn = v,
                &[f64::NAN, f64::INFINITY, 0.25, 0.0],
            ),
        ];
        for (field, set, bads) in cases {
            for &bad in bads {
                let mut telemetry = TelemetryConfig::standard(true);
                set(&mut telemetry, bad);
                let err = armed(telemetry).validate().expect_err(field);
                assert!(err.contains(field), "{field} = {bad}: {err}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "clear_burn")]
    fn nan_clear_burn_panics_before_the_run() {
        // Used to run the whole simulation, then trip the "SLO alert
        // must clear" assert when the monitor was evaluated.
        let mut telemetry = TelemetryConfig::standard(true);
        telemetry
            .slo
            .as_mut()
            .expect("standard arms the SLO")
            .clear_burn = f64::NAN;
        run(&ServeConfig {
            telemetry,
            ..base_config()
        });
    }

    #[test]
    fn cost_table_validate_names_each_bad_field() {
        assert_eq!(synthetic_costs().validate(), Ok(()));
        type Set = fn(&mut CostTable, f64);
        let fields: [(&str, Set); 6] = [
            ("init_s", |c, v| c.init_s = v),
            ("dispatch_s", |c, v| c.dispatch_s = v),
            ("msa_s", |c, v| {
                c.shapes.values_mut().last().unwrap().msa_s = v
            }),
            ("feature_load_s", |c, v| {
                c.shapes.values_mut().last().unwrap().feature_load_s = v
            }),
            ("compile_s", |c, v| {
                c.shapes.values_mut().last().unwrap().compile_s = v
            }),
            ("compute_s", |c, v| {
                c.shapes.values_mut().last().unwrap().compute_s = v
            }),
        ];
        for (field, set) in fields {
            for bad in [f64::NAN, f64::INFINITY, -1.0] {
                let mut costs = synthetic_costs();
                set(&mut costs, bad);
                let err = costs.validate().expect_err(field);
                assert!(err.contains(field), "{field} = {bad}: {err}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "msa_s")]
    fn nan_msa_cost_panics_naming_the_field() {
        // Used to surface as "event time must be finite" deep inside
        // the engine.
        let mut costs = synthetic_costs();
        costs.shapes.values_mut().next().unwrap().msa_s = f64::NAN;
        run_serve(&base_config(), &costs, &mut ObsSession::new());
    }

    #[test]
    fn cache_inserts_respect_completion_time_causality() {
        // Two requests for the same entity arriving before the first
        // one's MSA completes must both miss; a third arriving after
        // must hit.
        let cfg = ServeConfig {
            workload: WorkloadConfig {
                num_requests: 128,
                catalog_size: 4,
                arrival_rate_per_s: 0.2,
                zipf_exponent: 2.0,
                ..WorkloadConfig::default()
            },
            ..base_config()
        };
        let r = run(&cfg);
        for o in r.outcomes.iter().filter(|o| o.cache_hit) {
            // Some earlier request for the same entity finished its MSA
            // (or the features were already present) strictly before
            // this arrival.
            let producer = r.outcomes.iter().any(|p| {
                p.request.entity == o.request.entity
                    && !p.cache_hit
                    && p.ready_s <= o.request.arrival_s
            });
            let chained = r.outcomes.iter().any(|p| {
                p.request.entity == o.request.entity && p.cache_hit && p.request.id < o.request.id
            });
            assert!(
                producer || chained,
                "hit without a completed producer: {:?}",
                o.request
            );
        }
        // And with this much repetition there are real hits to check.
        assert!(r.cache_hits > 0);
    }

    /// A report whose only contents are the hand-built `outcomes` —
    /// enough for exercising the latency-attribution helpers, which
    /// read nothing else.
    fn report_with_outcomes(outcomes: Vec<RequestOutcome>) -> ServeReport {
        ServeReport {
            config: ServeConfig::default(),
            outcomes,
            served: 0,
            rejected: 0,
            deadline_missed: 0,
            makespan_s: 0.0,
            throughput_qph: 0.0,
            gpu_busy_s: 0.0,
            gpu_occupancy: 0.0,
            batches: 0,
            compiled_shapes: 0,
            cache_hits: 0,
            cache_misses: 0,
            cache_evictions: 0,
            cache_hit_rate: 0.0,
            cache_coalesced: 0,
            latency: None,
            timeline: None,
            slo: None,
            causal: None,
        }
    }

    fn outcome(id: usize, arrival_s: f64, done_s: f64, finished: bool) -> RequestOutcome {
        RequestOutcome {
            request: Request {
                id,
                entity: id,
                sample: SampleId::all()[0],
                arrival_s,
            },
            cache_hit: false,
            rejected: false,
            ready_s: arrival_s,
            done_s,
            deadline_missed: false,
            finished,
            segments: PhaseSegments::default(),
        }
    }

    #[test]
    fn zero_time_completion_at_t0_still_counts_as_finished() {
        // Regression: `finished_by_latency` used the `done_s > 0.0`
        // sentinel, so a request arriving at simulated t = 0 whose
        // phases all cost zero (done_s == 0.0) was silently dropped
        // from percentiles/attribution, conflated with the chaos
        // shed/failed outcomes that legitimately keep done_s == 0.
        let report = report_with_outcomes(vec![
            outcome(0, 0.0, 0.0, true),  // finished instantly at t = 0
            outcome(1, 5.0, 0.0, false), // shed: unfinished, done_s sentinel 0
            outcome(2, 6.0, 10.0, true),
        ]);
        let p99 = report
            .percentile_outcome(0.99)
            .expect("two requests finished");
        assert_eq!(p99.request.id, 2);
        let p0 = report.percentile_outcome(0.0).expect("finished set");
        assert_eq!(
            p0.request.id, 0,
            "the t=0 zero-latency completion must be ranked, not dropped"
        );
        // The shed request must stay excluded: only two finished.
        let text = report.render_attribution();
        assert!(
            text.contains("over 2 finished requests"),
            "attribution counts exactly the finished outcomes: {text}"
        );
    }

    #[test]
    fn waterfall_paints_every_nonzero_phase_at_least_one_cell() {
        // Regression: both bar extents floored, so a short nonzero
        // phase rendered zero-width and a phase ending exactly at the
        // right edge could clip to nothing.
        let mut o = outcome(0, 0.0, 3600.0, true);
        o.segments.msa_queue_wait_s = 3594.0;
        o.segments.xla_compile_s = 1.0; // 0.01 bar cells wide
        o.segments.gpu_service_s = 5.0; // ends exactly at 100%
        let report = report_with_outcomes(vec![o]);
        let text = report.render_p99_waterfall();
        for line in text.lines() {
            if line.trim_start().starts_with("xla_compile") {
                assert!(
                    line.contains('#'),
                    "1 s phase must paint at least one cell: {line}"
                );
            }
            if line.trim_start().starts_with("gpu_service") {
                assert!(
                    line.contains('#'),
                    "the right-edge phase must stay visible: {line}"
                );
                assert!(
                    line.contains("#|"),
                    "a phase ending at 100% reaches the last cell: {line}"
                );
            }
            if line.trim_start().starts_with("admission_wait") {
                assert!(!line.contains('#'), "zero phases paint nothing: {line}");
            }
        }
    }
}
