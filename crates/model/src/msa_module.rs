//! The reduced MSA module.
//!
//! AF3 keeps only a slim MSA stack: the MSA feature block communicates
//! with the pair representation through an outer-product mean and
//! pair-weighted averaging, then is discarded — the Pairformer never sees
//! it (§II-A: "its role is greatly diminished").

use crate::config::ModelConfig;
use afsb_tensor::cost::CostLog;
use afsb_tensor::nn::{layer_norm, Linear, Transition};
use afsb_tensor::Tensor;

/// MSA feature channels at paper scale.
const C_MSA: usize = 64;

/// One MSA-module block at simulation width.
#[derive(Debug, Clone)]
pub struct MsaBlock {
    msa_proj: Linear,
    outer_a: Linear,
    outer_b: Linear,
    pair_update: Linear,
    msa_transition: Transition,
    c_msa: usize,
    c_pair: usize,
}

impl MsaBlock {
    /// Build one block.
    pub fn new(c_msa: usize, c_pair: usize, seed: u64) -> MsaBlock {
        let rank = (c_msa / 2).max(2);
        MsaBlock {
            msa_proj: Linear::new_no_bias(c_msa, c_msa, seed),
            outer_a: Linear::new_no_bias(c_msa, rank, seed ^ 0x51),
            outer_b: Linear::new_no_bias(c_msa, rank, seed ^ 0x52),
            pair_update: Linear::new_no_bias(rank * rank, c_pair, seed ^ 0x53),
            msa_transition: Transition::new(c_msa, 2, seed ^ 0x54),
            c_msa,
            c_pair,
        }
    }

    /// Apply: MSA `[m, n, c_msa]`, pair `[n, n, c_pair]` → updated pair
    /// and MSA.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches.
    pub fn forward(&self, msa: &Tensor, pair: &Tensor) -> (Tensor, Tensor) {
        let m = msa.dims()[0];
        let n = msa.dims()[1];
        assert_eq!(msa.dims()[2], self.c_msa, "msa channels");
        assert_eq!(pair.dims(), &[n, n, self.c_pair], "pair shape");

        let msa_n = layer_norm(msa);
        let a = self.outer_a.forward(&msa_n); // [m, n, r]
        let b = self.outer_b.forward(&msa_n); // [m, n, r]
        let r = a.dims()[2];

        // Outer-product mean over sequences: [n, n, r*r].
        let mut outer = Tensor::zeros(vec![n, n, r * r]);
        for i in 0..n {
            for j in 0..n {
                for s in 0..m {
                    for x in 0..r {
                        let av = a.data()[(s * n + i) * r + x];
                        if av == 0.0 {
                            continue;
                        }
                        for y in 0..r {
                            let bv = b.data()[(s * n + j) * r + y];
                            outer.data_mut()[(i * n + j) * r * r + x * r + y] += av * bv;
                        }
                    }
                }
            }
        }
        let outer = outer.scale(1.0 / m as f32);
        let pair = pair.add(&self.pair_update.forward(&outer));

        let msa = msa.add(&self.msa_proj.forward(&msa_n));
        let msa = msa.add(&self.msa_transition.forward(&msa));
        (msa, pair)
    }
}

/// The reduced MSA stack.
#[derive(Debug, Clone)]
pub struct MsaModule {
    blocks: Vec<MsaBlock>,
    config: ModelConfig,
}

impl MsaModule {
    /// Build at simulation width.
    pub fn new(config: &ModelConfig, seed: u64) -> MsaModule {
        let c_msa = config.sim_dim(C_MSA);
        let c_pair = config.sim_dim(config.c_pair);
        let blocks = (0..config.msa_blocks)
            .map(|b| MsaBlock::new(c_msa, c_pair, seed ^ ((b as u64) << 12)))
            .collect();
        MsaModule {
            blocks,
            config: *config,
        }
    }

    /// Run on a random sim-scale MSA block of the given real depth
    /// (at most 8 rows execute).
    ///
    /// Returns the updated pair representation.
    pub fn run(&self, pair: Tensor, msa_depth: usize, seed: u64) -> Tensor {
        let n = pair.dims()[0];
        let m_sim = msa_depth.clamp(1, 8);
        let c_msa = self.config.sim_dim(C_MSA);
        let mut msa = Tensor::randn(vec![m_sim, n, c_msa], seed);
        let mut p = pair;
        for block in &self.blocks {
            let (new_msa, new_pair) = block.forward(&msa, &p);
            msa = new_msa;
            p = new_pair;
        }
        p
    }

    /// Log the paper-scale cost of every block for an MSA of
    /// `msa_depth` rows over `n_tokens` tokens: outer-product mean
    /// M·N²·r², pair-weighted averaging 2·M·N²·c, transitions 8·M·N·c².
    pub fn log_paper_costs(
        msa_depth: usize,
        n_tokens: usize,
        config: &ModelConfig,
        log: &mut CostLog,
    ) {
        let mf = msa_depth.max(1) as f64;
        let nf = n_tokens as f64;
        let c = C_MSA as f64;
        let r = c / 2.0;
        let flops = mf * nf * nf * r * r * 2.0 + 2.0 * mf * nf * nf * c + 8.0 * mf * nf * c * c;
        let bytes = 2.0 * mf * nf * c * 4.0 + 2.0 * nf * nf * config.c_pair as f64;
        for _ in 0..config.msa_blocks {
            log.record("msa_module", flops, bytes, 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn updates_pair_and_logs() {
        let cfg = ModelConfig::tiny();
        let module = MsaModule::new(&cfg, 1);
        let n = 5;
        let pair = Tensor::randn(vec![n, n, cfg.sim_dim(cfg.c_pair)], 2);
        let out = module.run(pair.clone(), 100, 3);
        assert_eq!(out.dims(), pair.dims());
        assert!(!out.approx_eq(&pair, 1e-9));
        let mut log = CostLog::new();
        MsaModule::log_paper_costs(100, 306, &cfg, &mut log);
        assert_eq!(log.entries().len(), cfg.msa_blocks);
    }

    #[test]
    fn cost_scales_with_msa_depth() {
        let cfg = ModelConfig::tiny();
        let mk = |depth| {
            let mut log = CostLog::new();
            MsaModule::log_paper_costs(depth, 306, &cfg, &mut log);
            log.total_flops()
        };
        let shallow = mk(10);
        let deep = mk(1000);
        assert!(
            (deep / shallow - 100.0).abs() < 1.0,
            "cost linear in depth: {}",
            deep / shallow
        );
    }

    #[test]
    fn outer_product_mean_is_mean() {
        // With m identical sequences, the outer product mean equals the
        // single-sequence outer product (scale-invariance check).
        let block = MsaBlock::new(8, 8, 9);
        let n = 3;
        let row = Tensor::randn(vec![1, n, 8], 10);
        let mut stacked_data = Vec::new();
        for _ in 0..4 {
            stacked_data.extend_from_slice(row.data());
        }
        let stacked = Tensor::from_vec(vec![4, n, 8], stacked_data);
        let pair = Tensor::randn(vec![n, n, 8], 11);
        let (_, p1) = block.forward(&row, &pair);
        let (_, p4) = block.forward(&stacked, &pair);
        assert!(p1.approx_eq(&p4, 1e-4));
    }
}
