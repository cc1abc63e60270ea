//! The MSA phase: simulated execution of one sample's database searches
//! on one platform at one thread count.

use crate::calib;
use crate::context::SampleSearchData;
use crate::msa_cost;
use crate::resilience::RunOutcome;
use afsb_rt::fault::{FaultInjector, FaultKind, FaultSite};
use afsb_simarch::memory::{AdmissionOutcome, CapacityModel, PageCache};
use afsb_simarch::storage::{IoPhase, IostatSample, StorageModel};
use afsb_simarch::{Platform, SimEngine, SimResult};

/// Options for an MSA-phase simulation.
#[derive(Debug, Clone, Copy)]
pub struct MsaPhaseOptions {
    /// Engine sampling budget.
    pub sample_cap: u64,
    /// Preload databases into the page cache before execution (§VI
    /// storage strategy 2). Only effective when DRAM can hold them.
    pub preload_databases: bool,
    /// Extra CXL capacity attached by the degradation ladder (0 = the
    /// platform's stock memory).
    pub cxl_expansion_bytes: u64,
    /// nhmmer query-window cap from the degradation ladder (`None` =
    /// uncapped full-length windows).
    pub rna_window_cap: Option<usize>,
    /// Deterministic seed.
    pub seed: u64,
}

impl Default for MsaPhaseOptions {
    fn default() -> MsaPhaseOptions {
        MsaPhaseOptions {
            sample_cap: calib::DEFAULT_SAMPLE_CAP,
            preload_databases: false,
            cxl_expansion_bytes: 0,
            rna_window_cap: None,
            seed: 42,
        }
    }
}

/// Result of one MSA-phase simulation.
#[derive(Debug, Clone)]
pub struct MsaPhaseResult {
    /// Platform simulated.
    pub platform: Platform,
    /// Worker threads.
    pub threads: usize,
    /// CPU wall seconds (simulated).
    pub cpu_seconds: f64,
    /// Per-thread overhead wall seconds (spawn/join, merge, allocator
    /// serialization — grows with thread count).
    pub thread_overhead_seconds: f64,
    /// Extra wall seconds the storage path added (cold database loads not
    /// overlapped with compute).
    pub io_added_seconds: f64,
    /// The architecture-simulation result (per-symbol counters, IPC…).
    pub sim: SimResult,
    /// iostat-shaped sample of the scan I/O.
    pub iostat: IostatSample,
    /// Cold bytes read from the device.
    pub cold_bytes: u64,
    /// Paper-scale peak memory of the phase.
    pub peak_memory_bytes: u64,
    /// Memory admission outcome (OOM behaviour per Fig. 2).
    pub admission: AdmissionOutcome,
    /// Phase outcome: `Oom` when admission rejects, `Degraded` when a
    /// degradation option was load-bearing, `Completed` otherwise.
    pub outcome: RunOutcome,
}

impl MsaPhaseResult {
    /// Total wall seconds.
    pub fn wall_seconds(&self) -> f64 {
        self.cpu_seconds + self.io_added_seconds + self.thread_overhead_seconds
    }

    /// Whether the phase produced timings (possibly degraded).
    pub fn completed(&self) -> bool {
        self.outcome.finished()
    }
}

/// Simulate the MSA phase.
///
/// # Panics
///
/// Panics if `threads == 0`.
pub fn run_msa_phase(
    data: &SampleSearchData,
    platform: Platform,
    threads: usize,
    options: &MsaPhaseOptions,
) -> MsaPhaseResult {
    run_msa_phase_faulted(data, platform, threads, options, &mut FaultInjector::none())
}

/// Simulate the MSA phase under fault injection: storage faults are
/// absorbed via [`StorageModel::evaluate_faulted`] and a due straggler
/// ([`FaultSite::MsaCompute`]) inflates the slowest worker's share of
/// the wall time. Abort-class faults ([`FaultSite::MsaAbort`]) are NOT
/// polled here — the resilient executor owns the retry loop around
/// them. With nothing pending this is exactly [`run_msa_phase`].
///
/// # Panics
///
/// Panics if `threads == 0`.
pub fn run_msa_phase_faulted(
    data: &SampleSearchData,
    platform: Platform,
    threads: usize,
    options: &MsaPhaseOptions,
    injector: &mut FaultInjector,
) -> MsaPhaseResult {
    assert!(threads > 0, "need at least one thread");
    let spec = platform.spec();

    // Memory admission (Fig. 2 / §III-C): the phase peak must fit.
    // Degradation options change both sides of the check: a window cap
    // lowers the RNA peak, extra CXL raises the capacity.
    let peak_memory_bytes = data.paper_peak_msa_bytes_capped(threads, options.rna_window_cap);
    let stock = CapacityModel::new(&spec);
    let capacity = stock.clone().with_extra_cxl(options.cxl_expansion_bytes);
    let admission = capacity.admit(peak_memory_bytes);
    if !admission.completes() {
        // The paper's behaviour: the process is OOM-killed mid-run; no
        // timing is produced.
        let engine = SimEngine::new(spec.clone()).with_sample_cap(1);
        let sim = engine.run(&[afsb_simarch::trace::ThreadProgram::new()], options.seed);
        return MsaPhaseResult {
            platform,
            threads,
            cpu_seconds: 0.0,
            thread_overhead_seconds: 0.0,
            io_added_seconds: 0.0,
            sim,
            iostat: StorageModel::new(spec.storage).evaluate(IoPhase {
                cold_bytes: 0,
                compute_seconds: 0.0,
                sequential: true,
            }),
            cold_bytes: 0,
            peak_memory_bytes,
            admission,
            outcome: RunOutcome::Oom,
        };
    }
    // The run survives — was a degradation option load-bearing?
    let uncapped_peak = data.paper_peak_msa_bytes(threads);
    let degraded = !stock.admit(uncapped_peak).completes();
    let outcome = if degraded {
        RunOutcome::Degraded
    } else {
        RunOutcome::Completed
    };

    // CPU simulation.
    let programs = msa_cost::build_programs(data, threads, platform);
    let engine = SimEngine::new(spec.clone()).with_sample_cap(options.sample_cap);
    let sim = engine.run(&programs, options.seed);
    let cpu_seconds = sim.wall_seconds();

    // Per-thread overhead: worker spawn/join, merge serialization and
    // allocator churn per search. RNA (nhmmer) searches pay far more —
    // their per-thread window state is GiB-scale (§III-C) — which is why
    // 6QNR degrades beyond 4 threads (Fig. 5).
    let mut thread_overhead_seconds = 0.0;
    for chain in &data.chains {
        let per = match chain.kind {
            afsb_seq::alphabet::MoleculeKind::Rna => calib::RNA_SEARCH_THREAD_OVERHEAD_S,
            _ => calib::PROTEIN_SEARCH_THREAD_OVERHEAD_S,
        };
        thread_overhead_seconds += per * chain.per_db.len() as f64 * (threads - 1) as f64;
    }

    // A straggling worker stretches the phase: the scan completes only
    // when its slowest thread does, so the straggler's excess lands on
    // the wall as extra overhead.
    if let Some(FaultKind::Straggler { factor }) = injector.poll(FaultSite::MsaCompute) {
        let extra = cpu_seconds * (factor.max(1.0) - 1.0);
        injector.charge(extra);
        thread_overhead_seconds += extra;
    }

    // Storage behaviour (§V-B2c): page-cache residency decides cold
    // bytes. Preloading warms the cache when capacity allows.
    let mut page_cache = PageCache::new(capacity.page_cache_budget(peak_memory_bytes));
    let mut registered = std::collections::HashSet::new();
    for chain in &data.chains {
        for db in &chain.per_db {
            if registered.insert(db.db_name.clone()) {
                page_cache.register(db.db_name.clone(), db.paper_bytes);
            }
        }
    }
    let mut cold_bytes = 0u64;
    for chain in &data.chains {
        for db in &chain.per_db {
            // Each search streams the database once per iteration; cold
            // fraction re-applies per scan since an oversubscribed cache
            // evicts between scans. Scan count is recovered from the
            // paper-scale copied-byte volume.
            let scans = (db.paper_counters().copied_bytes / db.paper_bytes.max(1)).max(1);
            let per_scan = if options.preload_databases
                && page_cache.registered_bytes() <= capacity.page_cache_budget(peak_memory_bytes)
            {
                0
            } else {
                page_cache.cold_bytes(&db.db_name)
            };
            cold_bytes += per_scan * scans;
        }
    }
    let storage = StorageModel::new(spec.storage);
    let iostat = storage.evaluate_faulted(
        IoPhase {
            cold_bytes,
            compute_seconds: cpu_seconds,
            sequential: true,
        },
        injector,
    );

    MsaPhaseResult {
        platform,
        threads,
        cpu_seconds,
        thread_overhead_seconds,
        io_added_seconds: iostat.io_added_seconds,
        sim,
        iostat,
        cold_bytes,
        peak_memory_bytes,
        admission,
        outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{BenchContext, ChainSearch, ContextConfig, SampleSearchData};
    use afsb_rt::fault::{FaultKind, FaultPlan};
    use afsb_seq::alphabet::MoleculeKind;
    use afsb_seq::samples::{self, ComplexityClass, Sample, SampleId};
    use std::sync::Arc;

    fn options() -> MsaPhaseOptions {
        MsaPhaseOptions {
            sample_cap: 120_000,
            ..MsaPhaseOptions::default()
        }
    }

    fn data(id: SampleId) -> Arc<crate::context::SampleSearchData> {
        let mut ctx = BenchContext::new(ContextConfig::test());
        ctx.sample_data(id)
    }

    #[test]
    fn msa_runs_on_both_platforms() {
        let d = data(SampleId::S7rce);
        for platform in Platform::all() {
            let r = run_msa_phase(&d, platform, 2, &options());
            assert!(r.completed());
            assert!(r.cpu_seconds > 0.0, "{platform}");
            assert!(r.sim.totals.instructions > 0);
        }
    }

    #[test]
    fn two_threads_nearly_halve_time() {
        let d = data(SampleId::S1yy9);
        let t1 = run_msa_phase(&d, Platform::Server, 1, &options());
        let t2 = run_msa_phase(&d, Platform::Server, 2, &options());
        let speedup = t1.cpu_seconds / t2.cpu_seconds;
        assert!(
            (1.5..2.4).contains(&speedup),
            "1→2T speedup should be near-ideal, got {speedup:.2}"
        );
    }

    #[test]
    fn speedup_saturates_beyond_four_threads() {
        let d = data(SampleId::S1yy9);
        let t4 = run_msa_phase(&d, Platform::Server, 4, &options());
        let t8 = run_msa_phase(&d, Platform::Server, 8, &options());
        let marginal = t4.wall_seconds() / t8.wall_seconds();
        assert!(
            marginal < 1.7,
            "4→8T speedup must saturate, got {marginal:.2}"
        );
    }

    #[test]
    fn desktop_faster_than_server_at_msa() {
        // Paper Observation 1: higher clocks win the CPU-bound phase.
        let d = data(SampleId::S2pv7);
        let server = run_msa_phase(&d, Platform::Server, 4, &options());
        let desktop = run_msa_phase(&d, Platform::Desktop, 4, &options());
        assert!(
            desktop.wall_seconds() < server.wall_seconds(),
            "desktop {} vs server {}",
            desktop.wall_seconds(),
            server.wall_seconds()
        );
    }

    #[test]
    fn desktop_reads_cold_server_stays_warm() {
        let d = data(SampleId::Promo);
        let server = run_msa_phase(&d, Platform::Server, 4, &options());
        let desktop = run_msa_phase(&d, Platform::Desktop, 4, &options());
        assert_eq!(server.cold_bytes, 0, "512 GiB keeps databases cached");
        assert!(desktop.cold_bytes > 0, "64 GiB cannot hold the databases");
        assert!(desktop.iostat.util_pct > server.iostat.util_pct);
    }

    /// Search data for the synthetic RNA memory probe: no executed
    /// counters (the admission check happens before any work), just the
    /// chain geometry the peak-memory model reads.
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

    #[test]
    fn oversized_rna_ooms_with_outcome_not_nan() {
        // Fig. 2: 1,135 nt needs ~644 GiB — far beyond the desktop.
        let r = run_msa_phase(&rna_probe(1135), Platform::Desktop, 8, &options());
        assert_eq!(r.outcome, RunOutcome::Oom);
        assert!(!r.completed());
        assert!(!r.admission.completes());
        // No NaN sentinel: an unfinished run reports zero work, and the
        // outcome carries the terminal state.
        assert_eq!(r.wall_seconds(), 0.0);
    }

    #[test]
    fn cxl_expansion_turns_oom_into_degraded() {
        // 1,335 nt (~810 GiB) exceeds the server's stock 764 GiB but
        // fits once the ladder attaches another 256 GiB of CXL.
        let d = rna_probe(1335);
        let stock = run_msa_phase(&d, Platform::Server, 8, &options());
        assert_eq!(stock.outcome, RunOutcome::Oom);
        let expanded = run_msa_phase(
            &d,
            Platform::Server,
            8,
            &MsaPhaseOptions {
                cxl_expansion_bytes: 256 << 30,
                ..options()
            },
        );
        assert_eq!(expanded.outcome, RunOutcome::Degraded);
        assert!(expanded.completed());
    }

    #[test]
    fn faulted_with_empty_injector_matches_clean_run() {
        let d = data(SampleId::S7rce);
        let clean = run_msa_phase(&d, Platform::Desktop, 2, &options());
        let mut inj = FaultInjector::none();
        let faulted = run_msa_phase_faulted(&d, Platform::Desktop, 2, &options(), &mut inj);
        assert_eq!(clean.wall_seconds(), faulted.wall_seconds());
        assert_eq!(clean.cold_bytes, faulted.cold_bytes);
        assert_eq!(clean.outcome, faulted.outcome);
        assert!(inj.events().is_empty());
    }

    #[test]
    fn straggler_fault_stretches_wall_time() {
        let d = data(SampleId::S7rce);
        let clean = run_msa_phase(&d, Platform::Server, 4, &options());
        let mut inj = FaultPlan::none()
            .with(FaultKind::Straggler { factor: 1.5 })
            .injector();
        let slow = run_msa_phase_faulted(&d, Platform::Server, 4, &options(), &mut inj);
        let expected = clean.cpu_seconds * 0.5;
        assert!((slow.wall_seconds() - clean.wall_seconds() - expected).abs() < 1e-9);
        assert_eq!(inj.events().len(), 1);
        assert!((inj.total_lost_seconds() - expected).abs() < 1e-9);
    }

    #[test]
    fn storage_stall_lands_on_io_time() {
        let d = data(SampleId::S7rce);
        let clean = run_msa_phase(&d, Platform::Desktop, 2, &options());
        let mut inj = FaultPlan::none()
            .with(FaultKind::StorageStall { stall_seconds: 9.0 })
            .injector();
        let stalled = run_msa_phase_faulted(&d, Platform::Desktop, 2, &options(), &mut inj);
        assert!((stalled.io_added_seconds - clean.io_added_seconds - 9.0).abs() < 1e-9);
        assert!((inj.total_lost_seconds() - 9.0).abs() < 1e-9);
    }

    #[test]
    fn perf_symbols_attributed() {
        let d = data(SampleId::S2pv7);
        let r = run_msa_phase(&d, Platform::Server, 1, &options());
        let report = &r.sim.report;
        assert!(report.cycles_share("calc_band_9") > 0.1);
        assert!(report.cycles_share("calc_band_10") > 0.1);
        assert!(report.symbol("copy_to_iter").is_some());
    }
}
