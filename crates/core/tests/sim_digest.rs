//! Bit-identity gates for the simarch engine and the search engine.
//!
//! Every gate reads the five quick samples' search data, searched once
//! per test binary. The simarch gate runs the MSA phase on the
//! benchmark's 20 msa-grid cells (every sample × {Server, Desktop} ×
//! {1, 4} threads at the quick sampling cap) and folds the engine's
//! cycle counts, sampling rate, bandwidth demand and factor and every
//! per-symbol counter into one FNV-1a hash. The thread-count gate folds
//! the same fields over 2PV7 and promo × {Server, Desktop} × {2, 6, 8}
//! threads: Table III's 6 and the thread sweep's 2 and 8, whose
//! round-robin interleavings the 1- and 4-thread cells do not reach.
//! The search gate folds every (chain entity × database) search's work
//! counters, hit and MSA-row counts, paper bytes and scale factor into
//! another. Each hash must equal a committed constant. A host-speed
//! change to the engines (cache layout, bookkeeping hoists, overlapped
//! or split passes, shared calibration, filter loop order) must leave
//! them all alone; a change that moves a simulated counter must update
//! the constant in the same change and say why.

use afsb_core::context::{BenchContext, ContextConfig, DbSearch, SampleSearchData};
use afsb_core::msa_phase::{run_msa_phase, MsaPhaseOptions};
use afsb_hmmer::WorkCounters;
use afsb_seq::samples::SampleId;
use afsb_simarch::perf::SymbolStats;
use afsb_simarch::{Platform, SimResult};
use std::sync::{Arc, OnceLock};

/// FNV-1a over the cells below, in msa-grid order (threads, then
/// sample, then platform), computed before the per-segment stats, the
/// hoisted charges and the overlapped overhead pass landed.
const SIM_DIGEST: u64 = 0x1107_af43_1c15_3c7c;

/// FNV-1a over the {2, 6, 8}-thread cells of 2PV7 and promo, in the
/// same order, computed before the cache walk was split at the LLC.
const THREADS_DIGEST: u64 = 0xd64f_5780_7ba2_3e26;

/// FNV-1a over every sample's searches, in sample, chain entity and
/// database order, computed before the round-1 calibration was shared
/// across an entity's databases and before SSV scanned row-wise.
const SEARCH_DIGEST: u64 = 0xf28c_0e14_1a5d_2660;

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

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

fn fold_stats(h: &mut Fnv, s: &SymbolStats) {
    for v in [
        s.instructions,
        s.accesses,
        s.l1_misses,
        s.l2_misses,
        s.llc_accesses,
        s.llc_misses,
        s.tlb_l1_misses,
        s.tlb_walks,
        s.branches,
        s.mispredicts,
        s.page_faults,
        s.base_cycles,
        s.stall_cycles,
    ] {
        h.u64(v);
    }
}

fn fold_sim(h: &mut Fnv, sim: &SimResult) {
    h.u64(sim.wall_cycles);
    h.u64(sim.per_thread_cycles.len() as u64);
    for &c in &sim.per_thread_cycles {
        h.u64(c);
    }
    h.u64(sim.sample_rate.to_bits());
    h.u64(sim.bandwidth_factor.to_bits());
    h.u64(sim.bandwidth_demand_gibs.to_bits());
    let mut symbols: Vec<_> = sim.report.symbols().iter().collect();
    symbols.sort_by_key(|(name, _)| **name);
    for (name, stats) in symbols {
        h.bytes(name.as_bytes());
        fold_stats(h, stats);
    }
}

fn fold_search(h: &mut Fnv, search: &DbSearch) {
    h.bytes(search.db_name.as_bytes());
    h.u64(search.paper_bytes);
    h.u64(search.scale_factor.to_bits());
    h.u64(search.hits as u64);
    h.u64(search.msa_rows as u64);
    // Destructured so that a new counter fails to compile here until it
    // is folded in.
    let WorkCounters {
        db_sequences,
        db_residues,
        ssv_cells,
        msv_cells,
        band_cells_mi,
        band_cells_ds,
        forward_cells,
        traceback_cells,
        ssv_survivors,
        msv_survivors,
        viterbi_survivors,
        hits,
        rescans,
        rescan_bytes,
        buffer_fills,
        buffer_peeks,
        copied_bytes,
        peak_state_bytes,
    } = search.counters;
    for v in [
        db_sequences,
        db_residues,
        ssv_cells,
        msv_cells,
        band_cells_mi,
        band_cells_ds,
        forward_cells,
        traceback_cells,
        ssv_survivors,
        msv_survivors,
        viterbi_survivors,
        hits,
        rescans,
        rescan_bytes,
        buffer_fills,
        buffer_peeks,
        copied_bytes,
        peak_state_bytes,
    ] {
        h.u64(v);
    }
}

/// Every quick sample's search data, searched once for both gates.
fn sample_data() -> &'static [Arc<SampleSearchData>] {
    static DATA: OnceLock<Vec<Arc<SampleSearchData>>> = OnceLock::new();
    DATA.get_or_init(|| {
        let mut ctx = BenchContext::new(ContextConfig::test());
        SampleId::all()
            .into_iter()
            .map(|id| ctx.sample_data(id))
            .collect()
    })
}

#[test]
fn search_counters_match_the_committed_digest() {
    let mut h = Fnv::new();
    for d in sample_data() {
        for chain in &d.chains {
            h.bytes(chain.chain_id.as_bytes());
            for search in &chain.per_db {
                fold_search(&mut h, search);
            }
        }
    }
    assert_eq!(
        h.0, SEARCH_DIGEST,
        "search digest moved: got {:#018x}, expected {SEARCH_DIGEST:#018x}",
        h.0
    );
}

/// FNV-1a over the MSA phase of every `samples` × {Server, Desktop} ×
/// `threads` cell at the quick sampling cap, in threads, sample, then
/// platform order.
fn msa_digest(threads: &[usize], samples: &[SampleId]) -> u64 {
    let options = MsaPhaseOptions {
        sample_cap: 400_000,
        ..MsaPhaseOptions::default()
    };
    let mut h = Fnv::new();
    for &threads in threads {
        for d in sample_data() {
            let id = d.sample.id;
            if !samples.contains(&id) {
                continue;
            }
            for platform in Platform::all() {
                let msa = run_msa_phase(d, platform, threads, &options);
                assert!(msa.completed(), "{id:?} {platform:?} x{threads}");
                fold_sim(&mut h, &msa.sim);
            }
        }
    }
    h.0
}

#[test]
fn simarch_counters_match_the_committed_digest() {
    let got = msa_digest(&[1, 4], &SampleId::all());
    assert_eq!(
        got, SIM_DIGEST,
        "simarch digest moved: got {got:#018x}, expected {SIM_DIGEST:#018x}"
    );
}

#[test]
fn simarch_thread_counts_match_the_committed_digest() {
    let got = msa_digest(&[2, 6, 8], &[SampleId::S2pv7, SampleId::Promo]);
    assert_eq!(
        got, THREADS_DIGEST,
        "thread-count digest moved: got {got:#018x}, expected {THREADS_DIGEST:#018x}"
    );
}
