//! Calibration constants, each pinned to the paper observation it
//! reproduces.
//!
//! Everything tunable in the simulation lives here so the provenance is
//! auditable. Work *counts* (DP cells, scanned bytes, survivors) come
//! from executing the real algorithms; these constants translate counts
//! into instructions/accesses and declare the locality structure of each
//! profiled symbol.

use afsb_simarch::Platform;

// Instruction and access rates of the MSA-phase symbols (Table IV).

/// Instructions per SSV/MSV filter cell (16-lane striped SIMD: ~0.2
/// scalar-equivalent instructions per cell).
pub const INSTR_PER_FILTER_CELL: f64 = 0.2;

/// Instructions per banded Viterbi cell (scalar max-plus kernel).
pub const INSTR_PER_BAND_CELL: f64 = 16.0;

/// Instructions per Forward cell (log-sum-exp is expensive).
pub const INSTR_PER_FORWARD_CELL: f64 = 30.0;

/// Fraction of filter+band+forward work in the `calc_band_9` kernel;
/// the rest is `calc_band_10`. HMMER's striped filter splits row
/// processing across two generated kernel variants; Table IV shows
/// 28.7 % vs 26.3 % of cycles, i.e. a ~52/48 split.
pub const BAND9_SHARE: f64 = 0.52;

/// `addbuf` instructions per copied byte (buffer management: Table IV
/// shows ~16 % of cycles).
pub const ADDBUF_INSTR_PER_BYTE: f64 = 14.0;

/// `seebuf` instructions per copied byte (lookahead: ~6 % of cycles).
pub const SEEBUF_INSTR_PER_BYTE: f64 = 5.2;

/// `copy_to_iter` instructions per copied byte (kernel copy loop).
pub const COPY_INSTR_PER_BYTE: f64 = 4.4;

/// Memory accesses per instruction across the phase.
pub const ACCESSES_PER_INSTR: f64 = 0.30;

/// Shared hot region (page-cache scan window + candidate index)
/// visible to all workers. 55 MiB: above the Xeon's 30 MiB LLC
/// (persistently high miss rate, Table III) but under the Ryzen's
/// 64 MiB at low thread counts (1.1 % at 1T).
pub const SHARED_HOT_BYTES: u64 = 55 << 20;

/// Private per-worker state (DP matrices, buffers). Grows the
/// aggregate footprint with thread count — the Ryzen's LLC saturates
/// by 6T (41.4 %, Table III).
pub const PRIVATE_HOT_BYTES: u64 = 5 << 20;

/// Serial (non-parallelizable) instructions per search: profile
/// build, calibration, hit merge, MSA assembly.
pub const SERIAL_INSTR_PER_SEARCH: f64 = 6.0e9;

/// Per-thread synchronization/startup instructions per search (drives
/// the 6–8T degradation on small inputs, Fig. 5).
pub const SYNC_INSTR_PER_THREAD: f64 = 1.2e9;

/// Wall seconds of per-thread overhead per *protein* search: worker
/// spawn/join, hit merge serialization, allocator churn. Scales with
/// thread count, so it sets the optimal-thread knee (Observation 3).
pub const PROTEIN_SEARCH_THREAD_OVERHEAD_S: f64 = 25.0;

/// Same for RNA (nhmmer) searches — much heavier due to its giant
/// per-thread window state (§III-C), which is what makes 6QNR
/// *degrade* beyond 4 threads (Fig. 5) while protein-only samples
/// merely saturate.
pub const RNA_SEARCH_THREAD_OVERHEAD_S: f64 = 150.0;

// Locality structure of the trace generator.
//
// The DP kernels' hit hierarchy: the overwhelming majority of accesses
// stay in the L1-resident band rows and profile tables (that is how
// HMMER sustains IPC ≈ 3, Table III); the ~1 % that escapes —
// candidate-window rescans and scattered hit state — is what the cache
// hierarchy fights over. Only that escaping traffic is simulated; the
// rest, `1 − (BAND_BURST_WEIGHT + BAND_RANDOM_WEIGHT)` of `calc_band`'s
// accesses, is declared L1-resident.

/// Share of `calc_band` accesses hitting the shared candidate window
/// (short bursts at random offsets — rescans of filter survivors). This
/// is the LLC-capacity traffic behind Table III's Intel-vs-AMD contrast.
pub const BAND_BURST_WEIGHT: f64 = 0.004;

/// Share of `calc_band` accesses hitting private scattered state (hash
/// tables, hit lists). Grows the per-thread LLC footprint — the Ryzen's
/// 6T saturation.
pub const BAND_RANDOM_WEIGHT: f64 = 0.002;

/// Share of `copy_to_iter` accesses gathering from the shared
/// page-cache window (the rest is buffer-local). Dominates LLC misses
/// at 1T, diluted as band traffic grows with threads (Table IV).
pub const COPY_GATHER_WEIGHT: f64 = 0.06;

/// Burst run length (accesses) for a maximally diverse query; longer,
/// prefetch-friendly runs for low-complexity queries (the `promo`
/// effect: §V-B2a "regular access patterns align with hardware
/// prefetchers").
pub const BURST_RUN_BASE: u32 = 4;

/// Extra run length at low-complexity fraction 1.0.
pub const BURST_RUN_LOWCX_BONUS: u32 = 44;

/// Byte stride inside a burst.
pub const BURST_STRIDE: u32 = 192;

/// Server branch regularity (calibrated to Table III's branch miss
/// rows: Intel ~0.22 %).
pub const BRANCH_REGULARITY_SERVER: f64 = 0.9955;

/// Desktop branch regularity (Table III: AMD ~0.9 %).
pub const BRANCH_REGULARITY_DESKTOP: f64 = 0.982;

// The shared window sits between the two LLCs, and the simulated
// traffic stays around 1 % of `calc_band`'s accesses.
const _: () = assert!(SHARED_HOT_BYTES > 30 << 20 && SHARED_HOT_BYTES < 64 << 20);
const _: () = assert!(BAND9_SHARE > 0.5 && BAND9_SHARE < 0.6);
const _: () = assert!(INSTR_PER_FORWARD_CELL > INSTR_PER_BAND_CELL);
const _: () = assert!(BAND_BURST_WEIGHT + BAND_RANDOM_WEIGHT < 0.02);

/// Branch regularity for a platform.
pub fn branch_regularity(platform: Platform) -> f64 {
    match platform {
        Platform::Server => BRANCH_REGULARITY_SERVER,
        Platform::Desktop => BRANCH_REGULARITY_DESKTOP,
    }
}

/// Burst run length for a query with the given low-complexity
/// fraction.
pub fn burst_run(low_complexity_fraction: f64) -> u32 {
    let boost = (low_complexity_fraction * 6.0).min(1.0);
    BURST_RUN_BASE + (BURST_RUN_LOWCX_BONUS as f64 * boost).round() as u32
}

/// Host-side single-core throughput scores for the GPU runtime path
/// (desktop Ryzen boost = 1.0; the Xeon's lower clock and slower
/// allocation path give ~0.4 — calibrated so XLA compile lands at ~10 s
/// on the Desktop and ~25 s on the Server for 2PV7, Fig. 8).
pub fn host_cpu_score(platform: Platform) -> f64 {
    match platform {
        Platform::Server => 0.4,
        Platform::Desktop => 1.0,
    }
}

/// Engine sampling budget for phase simulations (accesses simulated for
/// the longest thread). Benches may lower it for speed.
pub const DEFAULT_SAMPLE_CAP: u64 = 6_000_000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_complexity_lengthens_bursts() {
        assert!(burst_run(0.0) < burst_run(0.16));
        assert!(burst_run(0.16) <= burst_run(1.0));
        assert_eq!(burst_run(0.0), BURST_RUN_BASE);
        assert_eq!(burst_run(1.0), BURST_RUN_BASE + BURST_RUN_LOWCX_BONUS);
    }

    #[test]
    fn host_scores_ordered() {
        assert!(host_cpu_score(Platform::Desktop) > host_cpu_score(Platform::Server));
    }
}
