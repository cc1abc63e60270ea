//! Confidence heads (pLDDT).

use crate::config::ModelConfig;
use afsb_tensor::cost::CostLog;
use afsb_tensor::nn::{softmax, Linear};
use afsb_tensor::Tensor;

/// Number of pLDDT bins.
const PLDDT_BINS: usize = 50;

/// The confidence heads at simulation width.
#[derive(Debug, Clone)]
pub struct ConfidenceHeads {
    plddt: Linear,
    c_single: usize,
}

impl ConfidenceHeads {
    /// Build for a config.
    pub fn new(config: &ModelConfig, seed: u64) -> ConfidenceHeads {
        let c_single = config.sim_dim(config.c_single);
        ConfidenceHeads {
            plddt: Linear::new(c_single, PLDDT_BINS, seed),
            c_single,
        }
    }

    /// Per-token pLDDT in `[0, 100]` from the sim-width single rep,
    /// broadcast/tiled to the real token count.
    pub fn plddt(&self, single: &Tensor, n_paper: usize) -> Vec<f32> {
        assert_eq!(single.dims()[1], self.c_single, "single width");
        let logits = self.plddt.forward(single);
        let probs = softmax(&logits);
        let n_sim = single.dims()[0];
        let mut per_sim = Vec::with_capacity(n_sim);
        for row in probs.data().chunks(PLDDT_BINS) {
            // Expected bin center, scaled to [0, 100].
            let mut expected = 0.0;
            for (b, &p) in row.iter().enumerate() {
                expected += p * ((b as f32 + 0.5) / PLDDT_BINS as f32);
            }
            per_sim.push(expected * 100.0);
        }
        (0..n_paper).map(|i| per_sim[i % n_sim]).collect()
    }

    /// Log the paper-scale pLDDT head cost for `n_tokens` tokens.
    pub fn log_paper_costs(n_tokens: usize, config: &ModelConfig, log: &mut CostLog) {
        let nf = n_tokens as f64;
        log.record(
            "confidence/plddt",
            2.0 * nf * (config.c_single * PLDDT_BINS) as f64,
            4.0 * nf * config.c_single as f64,
            1,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plddt_in_range_and_tiled() {
        let cfg = ModelConfig::tiny();
        let heads = ConfidenceHeads::new(&cfg, 1);
        let single = Tensor::randn(vec![6, cfg.sim_dim(cfg.c_single)], 2);
        let plddt = heads.plddt(&single, 100);
        assert_eq!(plddt.len(), 100);
        assert!(plddt.iter().all(|&v| (0.0..=100.0).contains(&v)));
        // Tiling repeats the sim values.
        assert_eq!(plddt[0], plddt[6]);
        let mut log = CostLog::new();
        ConfidenceHeads::log_paper_costs(100, &cfg, &mut log);
        assert_eq!(log.entries().len(), 1);
    }
}
