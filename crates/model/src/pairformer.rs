//! The Pairformer stack (AF3's replacement for AF2's Evoformer).
//!
//! Each of the 48 blocks updates the pair representation with the four
//! triangle layers and a transition, then updates the single
//! representation with pair-biased attention and a transition. No MSA
//! representation flows through the stack — the architectural change the
//! paper's motivation section centers on.

use crate::config::ModelConfig;
use crate::triangle::{self, Orientation, TriangleAttention, TriangleMultiplication};
use afsb_tensor::attention::MultiHeadAttention;
use afsb_tensor::cost::CostLog;
use afsb_tensor::nn::{Linear, Transition};
use afsb_tensor::Tensor;

/// One Pairformer block at simulation width.
#[derive(Debug, Clone)]
pub struct PairformerBlock {
    tri_mult_out: TriangleMultiplication,
    tri_mult_in: TriangleMultiplication,
    tri_attn_start: TriangleAttention,
    tri_attn_end: TriangleAttention,
    pair_transition: Transition,
    single_attention: MultiHeadAttention,
    single_bias: Linear,
    single_transition: Transition,
    c_pair: usize,
}

impl PairformerBlock {
    /// Build one block.
    pub fn new(c_pair: usize, c_single: usize, heads: usize, seed: u64) -> PairformerBlock {
        PairformerBlock {
            tri_mult_out: TriangleMultiplication::new(c_pair, Orientation::Outgoing, seed),
            tri_mult_in: TriangleMultiplication::new(c_pair, Orientation::Incoming, seed ^ 1),
            tri_attn_start: TriangleAttention::new(c_pair, heads, Orientation::Outgoing, seed ^ 2),
            tri_attn_end: TriangleAttention::new(c_pair, heads, Orientation::Incoming, seed ^ 3),
            pair_transition: Transition::new(c_pair, 4, seed ^ 4),
            single_attention: MultiHeadAttention::new(c_single, heads.max(2), seed ^ 5),
            single_bias: Linear::new_no_bias(c_pair, heads.max(2), seed ^ 6),
            single_transition: Transition::new(c_single, 4, seed ^ 7),
            c_pair,
        }
    }

    /// Apply the block: returns updated `(single, pair)`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches.
    pub fn forward(&self, single: &Tensor, pair: &Tensor) -> (Tensor, Tensor) {
        let n = pair.dims()[0];
        assert_eq!(pair.dims(), &[n, n, self.c_pair], "pair shape");
        assert_eq!(single.dims()[0], n, "single/pair token mismatch");

        let pair = self.tri_mult_out.forward(pair);
        let pair = self.tri_mult_in.forward(&pair);
        let pair = self.tri_attn_start.forward(&pair);
        let pair = self.tri_attn_end.forward(&pair);
        let pair = pair.add(&self.pair_transition.forward(&pair));

        // Single attention with pair bias.
        let heads = self.single_attention.heads();
        let bias_map = self.single_bias.forward(&pair); // [n, n, heads]
        let mut bias = Tensor::zeros(vec![heads, n, n]);
        for h in 0..heads {
            for i in 0..n {
                for j in 0..n {
                    let v = bias_map.data()[(i * n + j) * heads + h];
                    bias.data_mut()[(h * n + i) * n + j] = v;
                }
            }
        }
        let attended = self.single_attention.forward(single, single, Some(&bias));
        let single = single.add(&attended);
        let single = single.add(&self.single_transition.forward(&single));
        (single, pair)
    }

    /// Log one block's paper-scale costs.
    pub fn log_paper_costs(n: usize, config: &ModelConfig, log: &mut CostLog) {
        let cp = config.c_pair;
        let cs = config.c_single;
        triangle::log_block_costs(n, cp, config.tri_heads, log);
        let nf = n as f64;
        // Pair transition: two [N², c]×[c, 4c] matmuls.
        let pt_flops = 16.0 * nf * nf * (cp * cp) as f64;
        log.record(
            "pairformer/pair_transition",
            pt_flops,
            6.0 * nf * nf * cp as f64,
            1,
        );
        // Single attention with pair bias: projections + N² logits/values
        // + bias projection from the pair map.
        let sa_flops = 8.0 * nf * (cs * cs) as f64
            + 4.0 * nf * nf * cs as f64
            + 2.0 * nf * nf * (cp * config.single_heads) as f64;
        log.record(
            "pairformer/single_attention",
            sa_flops,
            4.0 * nf * nf * config.single_heads as f64 + 6.0 * nf * cs as f64,
            1,
        );
        let st_flops = 16.0 * nf * (cs * cs) as f64;
        log.record(
            "pairformer/single_transition",
            st_flops,
            6.0 * nf * cs as f64,
            1,
        );
    }
}

/// The full Pairformer stack.
#[derive(Debug, Clone)]
pub struct Pairformer {
    blocks: Vec<PairformerBlock>,
}

impl Pairformer {
    /// Build the stack at simulation width.
    pub fn new(config: &ModelConfig, seed: u64) -> Pairformer {
        let cp = config.sim_dim(config.c_pair);
        let cs = config.sim_dim(config.c_single);
        let heads = config.tri_heads.min(cp / 4).max(1);
        let blocks = (0..config.pairformer_blocks)
            .map(|b| PairformerBlock::new(cp, cs, heads, seed ^ ((b as u64) << 8)))
            .collect();
        Pairformer { blocks }
    }

    /// Number of blocks.
    pub fn depth(&self) -> usize {
        self.blocks.len()
    }

    /// Run the stack on sim-width tensors.
    pub fn run(&self, single: Tensor, pair: Tensor) -> (Tensor, Tensor) {
        let mut s = single;
        let mut p = pair;
        for block in &self.blocks {
            let (ns, np) = block.forward(&s, &p);
            s = ns;
            p = np;
        }
        (s, p)
    }

    /// Log every block's paper-scale costs for `n_tokens` tokens.
    pub fn log_paper_costs(n_tokens: usize, config: &ModelConfig, log: &mut CostLog) {
        for _ in 0..config.pairformer_blocks {
            PairformerBlock::log_paper_costs(n_tokens, config, log);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_io(n: usize, cfg: &ModelConfig) -> (Tensor, Tensor) {
        let cs = cfg.sim_dim(cfg.c_single);
        let cp = cfg.sim_dim(cfg.c_pair);
        (
            Tensor::randn(vec![n, cs], 21),
            Tensor::randn(vec![n, n, cp], 22),
        )
    }

    #[test]
    fn stack_runs_and_logs() {
        let cfg = ModelConfig::tiny();
        let pf = Pairformer::new(&cfg, 1);
        assert_eq!(pf.depth(), 2);
        let (s, p) = tiny_io(6, &cfg);
        let (s2, p2) = pf.run(s.clone(), p.clone());
        assert_eq!(s2.dims(), s.dims());
        assert_eq!(p2.dims(), p.dims());
        assert!(!p2.approx_eq(&p, 1e-9));
        let mut log = CostLog::new();
        Pairformer::log_paper_costs(484, &cfg, &mut log);
        // 2 blocks x 5 labels.
        assert_eq!(log.by_label().len(), 5);
        let by = log.by_label();
        assert!(by["pairformer/triangle_attention"].2 >= 4);
    }

    #[test]
    fn triangle_layers_dominate_block_cost() {
        // The paper's Fig. 9: triangle layers are the Pairformer hotspots.
        let cfg = ModelConfig::paper();
        let mut log = CostLog::new();
        PairformerBlock::log_paper_costs(484, &cfg, &mut log);
        let by = log.by_label();
        let tri = by["pairformer/triangle_attention"].0 + by["pairformer/triangle_mult_update"].0;
        let total: f64 = by.values().map(|v| v.0).sum();
        let share = tri / total;
        assert!(
            (0.4..0.95).contains(&share),
            "triangle share {share} should dominate but not be everything"
        );
    }

    #[test]
    fn pairformer_cost_superlinear_in_tokens() {
        let cfg = ModelConfig::paper();
        let mut small = CostLog::new();
        let mut large = CostLog::new();
        PairformerBlock::log_paper_costs(484, &cfg, &mut small);
        PairformerBlock::log_paper_costs(857, &cfg, &mut large);
        let ratio = large.total_flops() / small.total_flops();
        let len_ratio = 857.0_f64 / 484.0;
        assert!(
            ratio > len_ratio * 1.7,
            "Pairformer must grow superlinearly: {ratio} vs {len_ratio}"
        );
    }

    #[test]
    fn deterministic_stack() {
        let cfg = ModelConfig::tiny();
        let pf = Pairformer::new(&cfg, 5);
        let (s, p) = tiny_io(5, &cfg);
        let (a1, b1) = pf.run(s.clone(), p.clone());
        let (a2, b2) = pf.run(s, p);
        assert_eq!(a1, a2);
        assert_eq!(b1, b2);
    }
}
