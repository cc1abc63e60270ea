//! Bit-identity gate for the simarch engine.
//!
//! Runs the MSA phase on the benchmark's 20 msa-grid cells (every sample
//! × {Server, Desktop} × {1, 4} threads at the quick sampling cap) and
//! folds the engine's cycle counts, sampling rate, bandwidth demand and
//! factor and every per-symbol counter into one FNV-1a hash, which must
//! equal a committed constant. A host-speed change to the engine (cache
//! layout, bookkeeping hoists, overlapped passes, parallel cells) must
//! leave this hash alone; a change that moves a simulated counter must
//! update the constant in the same change and say why.

use afsb_core::context::{BenchContext, ContextConfig};
use afsb_core::msa_phase::{run_msa_phase, MsaPhaseOptions};
use afsb_seq::samples::SampleId;
use afsb_simarch::perf::SymbolStats;
use afsb_simarch::{Platform, SimResult};

/// FNV-1a over the cells below, in msa-grid order (threads, then
/// sample, then platform), computed before the per-segment stats, the
/// hoisted charges and the overlapped overhead pass landed.
const SIM_DIGEST: u64 = 0x1107_af43_1c15_3c7c;

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

#[test]
fn simarch_counters_match_the_committed_digest() {
    let mut ctx = BenchContext::new(ContextConfig::test());
    let options = MsaPhaseOptions {
        sample_cap: 400_000,
        ..MsaPhaseOptions::default()
    };
    let data: Vec<_> = SampleId::all()
        .into_iter()
        .map(|id| ctx.sample_data(id))
        .collect();
    let mut h = Fnv::new();
    for threads in [1, 4] {
        for d in &data {
            for platform in Platform::all() {
                let msa = run_msa_phase(d, platform, threads, &options);
                let id = d.sample.id;
                assert!(msa.completed(), "{id:?} {platform:?} x{threads}");
                fold_sim(&mut h, &msa.sim);
            }
        }
    }
    assert_eq!(
        h.0, SIM_DIGEST,
        "simarch digest moved: got {:#018x}, expected {SIM_DIGEST:#018x}",
        h.0
    );
}
