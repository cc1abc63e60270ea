//! Input embedder: featurized tokens → initial single & pair
//! representations.

use crate::config::ModelConfig;
use crate::features::FeaturizedInput;
use afsb_tensor::cost::CostLog;
use afsb_tensor::nn::Linear;
use afsb_tensor::Tensor;

/// Residue one-hot width (largest alphabet + ambiguity) plus molecule
/// kind one-hot.
const TOKEN_FEATURES: usize = 21 + 5;
/// Relative-position buckets (−32..=32 plus cross-chain marker).
const RELPOS_BUCKETS: usize = 66;

/// The input embedder at simulation width.
#[derive(Debug, Clone)]
pub struct InputEmbedder {
    single_proj: Linear,
    pair_proj: Linear,
    c_single: usize,
    c_pair: usize,
}

impl InputEmbedder {
    /// Build for a config.
    pub fn new(config: &ModelConfig, seed: u64) -> InputEmbedder {
        let c_single = config.sim_dim(config.c_single);
        let c_pair = config.sim_dim(config.c_pair);
        InputEmbedder {
            single_proj: Linear::new_no_bias(TOKEN_FEATURES, c_single, seed),
            pair_proj: Linear::new_no_bias(RELPOS_BUCKETS, c_pair, seed ^ 0xe1),
            c_single,
            c_pair,
        }
    }

    /// Embed the (sim-truncated) tokens: returns `(single, pair)` at sim
    /// width.
    pub fn embed(&self, input: &FeaturizedInput, config: &ModelConfig) -> (Tensor, Tensor) {
        let n = config.sim_tokens(input.n_tokens());

        // Single features: residue one-hot + kind one-hot.
        let mut feats = Tensor::zeros(vec![n, TOKEN_FEATURES]);
        for (i, token) in input.tokens.iter().take(n).enumerate() {
            let r = (token.residue as usize).min(20);
            feats.set(&[i, r], 1.0);
            let kind_slot = 21 + (token.kind as usize).min(4);
            feats.set(&[i, kind_slot], 1.0);
        }
        let single = self.single_proj.forward(&feats);

        // Pair features: relative-position bucket one-hot.
        let mut rel = Tensor::zeros(vec![n, n, RELPOS_BUCKETS]);
        for i in 0..n {
            for j in 0..n {
                let bucket = (input.relpos(i, j) + 32).clamp(0, RELPOS_BUCKETS as i32 - 1);
                rel.set(&[i, j, bucket as usize], 1.0);
            }
        }
        let pair = self.pair_proj.forward(&rel);

        debug_assert_eq!(single.dims(), &[n, self.c_single]);
        debug_assert_eq!(pair.dims(), &[n, n, self.c_pair]);
        (single, pair)
    }

    /// Log the paper-scale embedding cost for `n_tokens` tokens.
    pub fn log_paper_costs(n_tokens: usize, config: &ModelConfig, log: &mut CostLog) {
        let nf = n_tokens as f64;
        let flops = 2.0 * nf * (TOKEN_FEATURES * config.c_single) as f64
            + 2.0 * nf * nf * (RELPOS_BUCKETS * config.c_pair) as f64;
        let bytes = 2.0 * nf * nf * config.c_pair as f64 + 2.0 * nf * config.c_single as f64;
        log.record("embedder", flops, bytes, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::featurize;
    use afsb_seq::samples::{sample, SampleId};

    #[test]
    fn embeds_to_config_dims() {
        let cfg = ModelConfig::tiny();
        let emb = InputEmbedder::new(&cfg, 1);
        let input = featurize(&sample(SampleId::S7rce).assembly);
        let (s, p) = emb.embed(&input, &cfg);
        let n = cfg.sim_tokens(306);
        assert_eq!(s.dims(), &[n, cfg.sim_dim(cfg.c_single)]);
        assert_eq!(p.dims(), &[n, n, cfg.sim_dim(cfg.c_pair)]);
        let mut log = CostLog::new();
        InputEmbedder::log_paper_costs(input.n_tokens(), &cfg, &mut log);
        assert_eq!(log.entries().len(), 1);
        assert!(log.total_flops() > 0.0);
    }

    #[test]
    fn different_sequences_embed_differently() {
        let cfg = ModelConfig::tiny();
        let emb = InputEmbedder::new(&cfg, 2);
        let a = emb.embed(&featurize(&sample(SampleId::S2pv7).assembly), &cfg);
        let b = emb.embed(&featurize(&sample(SampleId::S1yy9).assembly), &cfg);
        assert!(!a.0.approx_eq(&b.0, 1e-9));
    }

    #[test]
    fn paper_cost_quadratic_in_tokens() {
        let cfg = ModelConfig::paper();
        let mut log_small = CostLog::new();
        let mut log_large = CostLog::new();
        InputEmbedder::log_paper_costs(
            featurize(&sample(SampleId::S7rce).assembly).n_tokens(),
            &cfg,
            &mut log_small,
        );
        InputEmbedder::log_paper_costs(
            featurize(&sample(SampleId::S6qnr).assembly).n_tokens(),
            &cfg,
            &mut log_large,
        );
        let ratio = log_large.total_flops() / log_small.total_flops();
        let n_ratio = 1395.0_f64 / 306.0;
        assert!(ratio > n_ratio * n_ratio * 0.8, "ratio {ratio}");
    }
}
