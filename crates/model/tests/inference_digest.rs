//! Bit-identity gate for inference.
//!
//! One FNV-1a hash over `run_inference` for every benchmark sample ×
//! {`ModelConfig::paper()`, `ModelConfig::tiny()`} × MSA depth {1, 100,
//! 512}: the executed structure (coordinate and pLDDT bits) and the
//! paper-scale cost log (every entry's label, FLOP and byte bits and
//! launch count, in record order) plus the working set. It must equal a
//! committed constant. A change to how inference runs or is priced
//! (module layout, who records which cost entry) must leave it alone; a
//! change that moves a simulated number must update the constant in the
//! same change and say why.
//!
//! Beside it, a property: `price_inference`, which prices from the cost
//! formulas without running the model, yields exactly `run_inference`'s
//! cost log and working set, so callers that need only the price may
//! skip the run.

use afsb_model::{price_inference, run_inference, InferenceResult, ModelConfig};
use afsb_seq::samples::{sample, SampleId};
use afsb_tensor::CostLog;

/// FNV-1a over the runs below, in sample, config and depth order,
/// computed while every forward pass still recorded its own cost
/// entries.
const INFERENCE_DIGEST: u64 = 0x0baa_5150_9d9f_20c8;

/// The weight seed of every run.
const SEED: u64 = 17;

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

fn fold(h: &mut Fnv, r: &InferenceResult) {
    let structure = &r.structure;
    h.u64(structure.len() as u64);
    for c in structure.coords() {
        for v in c {
            h.u64(u64::from(v.to_bits()));
        }
    }
    for v in structure.plddt() {
        h.u64(u64::from(v.to_bits()));
    }
    let entries = r.cost_log.entries();
    h.u64(entries.len() as u64);
    for e in entries {
        h.bytes(e.label.as_bytes());
        h.u64(e.flops.to_bits());
        h.u64(e.bytes.to_bits());
        h.u64(e.launches);
    }
    h.u64(r.working_set_bytes);
}

#[test]
fn inference_matches_the_pinned_digest() {
    let mut h = Fnv::new();
    for id in SampleId::all() {
        let asm = sample(id).assembly;
        for config in [ModelConfig::paper(), ModelConfig::tiny()] {
            for depth in [1, 100, 512] {
                fold(&mut h, &run_inference(&asm, depth, &config, SEED));
            }
        }
    }
    assert_eq!(
        h.0, INFERENCE_DIGEST,
        "inference digest moved: {:#018x}",
        h.0
    );
}

/// Every entry's label, FLOP and byte bits and launch count.
fn entry_bits(log: &CostLog) -> Vec<(String, u64, u64, u64)> {
    log.entries()
        .iter()
        .map(|e| {
            (
                e.label.clone(),
                e.flops.to_bits(),
                e.bytes.to_bits(),
                e.launches,
            )
        })
        .collect()
}

#[test]
fn price_inference_is_the_executed_cost_log_bit_for_bit() {
    for id in SampleId::all() {
        let asm = sample(id).assembly;
        for (name, config) in [
            ("paper", ModelConfig::paper()),
            ("tiny", ModelConfig::tiny()),
        ] {
            for depth in [0, 1, 7, 512, 5000] {
                let ran = run_inference(&asm, depth, &config, SEED);
                let priced = price_inference(&asm, depth, &config);
                let case = format!("{id} {name} depth {depth}");
                assert_eq!(
                    entry_bits(&priced.cost_log),
                    entry_bits(&ran.cost_log),
                    "{case}: cost log"
                );
                assert_eq!(
                    priced.working_set_bytes, ran.working_set_bytes,
                    "{case}: working set"
                );
            }
        }
    }
}
