//! Executed work counters → simulator trace programs.
//!
//! This is the calibrated boundary between the real search engine and the
//! architecture simulator. Each profiled symbol gets:
//!
//! - an **instruction count** derived from executed work (DP cells,
//!   copied bytes) via the rates in [`calib`], and
//! - an **access-pattern mix** declaring its locality structure:
//!
//! | Symbol         | Derived from                 | Locality |
//! |----------------|------------------------------|----------|
//! | `calc_band_9`  | 52 % of filter/band/forward cells | sequential DP rows + bursty candidate rescans + scattered state |
//! | `calc_band_10` | the other 48 %               | same mix |
//! | `addbuf`       | copied bytes                 | sequential buffer fill + small-buffer reuse |
//! | `seebuf`       | copied bytes                 | small-buffer lookahead (cache-resident) |
//! | `copy_to_iter` | copied bytes                 | record-granularity gather from the page-cache window (cold lines) |
//!
//! Low-complexity queries lengthen the candidate-rescan bursts
//! (prefetch-friendly — the `promo` effect of §V-B2a); thread count
//! shrinks each worker's share of the scan but multiplies the private
//! footprints contending for the shared LLC.

use crate::calib;
use crate::context::SampleSearchData;
use afsb_hmmer::counters::WorkCounters;
use afsb_simarch::trace::{
    AccessPattern, AddressSpace, Region, Segment, ThreadProgram, WeightedPattern,
};
use afsb_simarch::Platform;

/// Per-worker address regions (only traffic-visible regions are
/// simulated; L1-resident structures are analytic).
#[derive(Debug, Clone, Copy)]
struct WorkerRegions {
    private_hot: Region,
}

/// Divide paper-scale counters evenly across workers (database chunks are
/// uniform, so per-worker work is the per-thread share of the scan).
fn per_thread_share(total: &WorkCounters, threads: usize) -> WorkCounters {
    let d = |v: u64| v / threads as u64;
    WorkCounters {
        db_sequences: d(total.db_sequences),
        db_residues: d(total.db_residues),
        ssv_cells: d(total.ssv_cells),
        msv_cells: d(total.msv_cells),
        band_cells_mi: d(total.band_cells_mi),
        band_cells_ds: d(total.band_cells_ds),
        forward_cells: d(total.forward_cells),
        traceback_cells: d(total.traceback_cells),
        ssv_survivors: d(total.ssv_survivors),
        msv_survivors: d(total.msv_survivors),
        viterbi_survivors: d(total.viterbi_survivors),
        hits: d(total.hits),
        rescans: d(total.rescans),
        rescan_bytes: d(total.rescan_bytes),
        buffer_fills: d(total.buffer_fills),
        buffer_peeks: d(total.buffer_peeks),
        copied_bytes: d(total.copied_bytes),
        peak_state_bytes: total.peak_state_bytes,
    }
}

/// Build one thread's segments for one search's per-thread counter share.
fn push_search_segments(
    program: &mut ThreadProgram,
    share: &WorkCounters,
    low_complexity: f64,
    regions: &WorkerRegions,
    shared_hot: Region,
    platform: Platform,
) {
    let kernel_instr = share.ssv_cells as f64 * calib::INSTR_PER_FILTER_CELL
        + share.msv_cells as f64 * calib::INSTR_PER_FILTER_CELL
        + (share.band_cells_mi + share.band_cells_ds) as f64 * calib::INSTR_PER_BAND_CELL
        + share.forward_cells as f64 * calib::INSTR_PER_FORWARD_CELL
        + share.traceback_cells as f64 * 8.0;
    let regularity = calib::branch_regularity(platform);
    let burst_run = calib::burst_run(low_complexity);

    // Only cache-hierarchy traffic is simulated; the L1-resident
    // majority (band rows, profile tables) is declared analytically.
    let traffic_weight = calib::BAND_BURST_WEIGHT + calib::BAND_RANDOM_WEIGHT;
    let band_traffic_patterns = || {
        vec![
            WeightedPattern {
                weight: calib::BAND_BURST_WEIGHT,
                pattern: AccessPattern::BurstRandom {
                    region: shared_hot,
                    run: burst_run,
                    stride: calib::BURST_STRIDE,
                },
            },
            WeightedPattern {
                weight: calib::BAND_RANDOM_WEIGHT,
                pattern: AccessPattern::Random {
                    region: regions.private_hot,
                },
            },
        ]
    };

    for (symbol, share_fraction) in [
        ("calc_band_9", calib::BAND9_SHARE),
        ("calc_band_10", 1.0 - calib::BAND9_SHARE),
    ] {
        let instr = (kernel_instr * share_fraction) as u64;
        let total_accesses = instr as f64 * calib::ACCESSES_PER_INSTR;
        program.push(Segment {
            symbol,
            instructions: instr,
            accesses: (total_accesses * traffic_weight) as u64,
            l1_resident_accesses: (total_accesses * (1.0 - traffic_weight)) as u64,
            patterns: band_traffic_patterns(),
            branches: instr / 7,
            branch_regularity: regularity,
            page_faults: 0,
        });
    }

    let copied = share.copied_bytes as f64;
    // Buffer management works entirely inside the (L1-resident) stdio
    // buffer: no hierarchy traffic, only base-IPC work.
    let addbuf_instr = (copied * calib::ADDBUF_INSTR_PER_BYTE) as u64;
    program.push(Segment {
        symbol: "addbuf",
        instructions: addbuf_instr,
        accesses: 0,
        l1_resident_accesses: (addbuf_instr as f64 * calib::ACCESSES_PER_INSTR) as u64,
        patterns: Vec::new(),
        branches: addbuf_instr / 9,
        branch_regularity: (regularity - 0.01).max(0.5),
        page_faults: 0,
    });

    let seebuf_instr = (copied * calib::SEEBUF_INSTR_PER_BYTE) as u64;
    program.push(Segment {
        symbol: "seebuf",
        instructions: seebuf_instr,
        accesses: 0,
        l1_resident_accesses: (seebuf_instr as f64 * calib::ACCESSES_PER_INSTR) as u64,
        patterns: Vec::new(),
        branches: seebuf_instr / 9,
        branch_regularity: regularity,
        page_faults: 0,
    });

    // copy_to_iter gathers records from the shared page-cache scan window
    // — the cold-line source behind its Table IV cache-miss share.
    let copy_instr = (copied * calib::COPY_INSTR_PER_BYTE) as u64;
    let copy_accesses = copy_instr as f64 * calib::ACCESSES_PER_INSTR;
    program.push(Segment {
        symbol: "copy_to_iter",
        instructions: copy_instr,
        accesses: (copy_accesses * calib::COPY_GATHER_WEIGHT) as u64,
        l1_resident_accesses: (copy_accesses * (1.0 - calib::COPY_GATHER_WEIGHT)) as u64,
        patterns: vec![WeightedPattern {
            weight: 1.0,
            pattern: AccessPattern::BurstRandom {
                region: shared_hot,
                run: 8,
                stride: 64,
            },
        }],
        branches: copy_instr / 12,
        branch_regularity: (regularity - 0.004).max(0.5),
        page_faults: 0,
    });
}

/// Build the per-thread trace programs for one sample's whole MSA phase.
///
/// # Panics
///
/// Panics if `threads == 0`.
pub fn build_programs(
    data: &SampleSearchData,
    threads: usize,
    platform: Platform,
) -> Vec<ThreadProgram> {
    assert!(threads > 0, "need at least one thread");
    let mut space = AddressSpace::new();
    let shared_hot = space.alloc(calib::SHARED_HOT_BYTES);
    let worker_regions: Vec<WorkerRegions> = (0..threads)
        .map(|_| WorkerRegions {
            private_hot: space.alloc(calib::PRIVATE_HOT_BYTES),
        })
        .collect();

    let mut programs = vec![ThreadProgram::new(); threads];
    let mut search_count = 0usize;
    for chain in &data.chains {
        for db in &chain.per_db {
            search_count += 1;
            let share = per_thread_share(&db.paper_counters(), threads);
            for (t, program) in programs.iter_mut().enumerate() {
                push_search_segments(
                    program,
                    &share,
                    chain.low_complexity_fraction,
                    &worker_regions[t],
                    shared_hot,
                    platform,
                );
            }
        }
    }

    // Serial sections (profile build, calibration, merge) run on thread 0
    // only; synchronization overhead grows with the thread count and hits
    // every worker.
    let serial_instr = (calib::SERIAL_INSTR_PER_SEARCH * search_count as f64) as u64;
    programs[0].push(Segment {
        symbol: "serial_setup",
        instructions: serial_instr,
        accesses: 0,
        l1_resident_accesses: (serial_instr as f64 * calib::ACCESSES_PER_INSTR * 0.5) as u64,
        patterns: Vec::new(),
        branches: serial_instr / 8,
        branch_regularity: 0.97,
        page_faults: 0,
    });
    let sync_instr = (calib::SYNC_INSTR_PER_THREAD * threads as f64 * search_count as f64) as u64;
    for (t, program) in programs.iter_mut().enumerate() {
        program.push(Segment {
            symbol: "thread_sync",
            instructions: sync_instr,
            accesses: (sync_instr as f64 * 0.02) as u64,
            l1_resident_accesses: (sync_instr as f64 * 0.18) as u64,
            patterns: vec![WeightedPattern {
                weight: 1.0,
                pattern: AccessPattern::Random { region: shared_hot },
            }],
            branches: sync_instr / 6,
            branch_regularity: 0.85,
            page_faults: 0,
        });
        let _ = t;
    }
    programs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{BenchContext, ContextConfig};
    use afsb_seq::samples::SampleId;

    fn programs_for(id: SampleId, threads: usize) -> Vec<ThreadProgram> {
        let mut ctx = BenchContext::new(ContextConfig::test());
        let data = ctx.sample_data(id);
        build_programs(&data, threads, Platform::Server)
    }

    #[test]
    fn one_program_per_thread() {
        for t in [1, 2, 4, 6, 8] {
            let p = programs_for(SampleId::S7rce, t);
            assert_eq!(p.len(), t);
            assert!(p.iter().all(|tp| !tp.segments.is_empty()));
        }
    }

    #[test]
    fn total_work_conserved_across_thread_counts() {
        let p1 = programs_for(SampleId::S2pv7, 1);
        let p4 = programs_for(SampleId::S2pv7, 4);
        let sum = |ps: &[ThreadProgram], sym: &str| -> u64 {
            ps.iter()
                .flat_map(|p| p.segments.iter())
                .filter(|s| s.symbol == sym)
                .map(|s| s.instructions)
                .sum()
        };
        for sym in ["calc_band_9", "calc_band_10", "addbuf", "copy_to_iter"] {
            let w1 = sum(&p1, sym);
            let w4 = sum(&p4, sym);
            let drift = (w1 as f64 - w4 as f64).abs() / w1 as f64;
            assert!(drift < 0.01, "{sym}: {w1} vs {w4}");
        }
    }

    #[test]
    fn expected_symbols_present() {
        let p = programs_for(SampleId::S2pv7, 2);
        let symbols: std::collections::HashSet<&str> = p
            .iter()
            .flat_map(|tp| tp.segments.iter().map(|s| s.symbol))
            .collect();
        for sym in [
            "calc_band_9",
            "calc_band_10",
            "addbuf",
            "seebuf",
            "copy_to_iter",
            "serial_setup",
            "thread_sync",
        ] {
            assert!(symbols.contains(sym), "missing {sym}");
        }
    }

    #[test]
    fn promo_bursts_longer_than_2pv7() {
        let mut ctx = BenchContext::new(ContextConfig::test());
        let promo = ctx.sample_data(SampleId::Promo);
        let pv7 = ctx.sample_data(SampleId::S2pv7);
        let run_promo = calib::burst_run(promo.chains[0].low_complexity_fraction);
        let run_pv7 = calib::burst_run(pv7.chains[0].low_complexity_fraction);
        assert!(run_promo > run_pv7, "{run_promo} vs {run_pv7}");
    }

    #[test]
    fn serial_segment_only_on_thread_zero() {
        let p = programs_for(SampleId::S7rce, 4);
        assert!(p[0].segments.iter().any(|s| s.symbol == "serial_setup"));
        for tp in &p[1..] {
            assert!(tp.segments.iter().all(|s| s.symbol != "serial_setup"));
        }
    }
}
