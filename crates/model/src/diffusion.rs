//! The diffusion module: iterative denoising of atomic coordinates.
//!
//! AF3 replaces AF2's structure module with a generative denoiser: noisy
//! coordinates are refined over 8–16 steps, each step running an
//! atom-level **sequence-local attention encoder**, a token-level
//! **global attention** transformer, and a **local attention decoder**
//! (§II-C). The iteration re-reads conditioning tensors every step — the
//! recurrent memory traffic the paper calls out as new relative to AF2.

use crate::config::ModelConfig;
use afsb_rt::Rng;
use afsb_tensor::attention::MultiHeadAttention;
use afsb_tensor::cost::CostLog;
use afsb_tensor::nn::{Linear, Transition};
use afsb_tensor::Tensor;

/// Number of token-transformer blocks at paper scale.
const GLOBAL_BLOCKS: usize = 24;
/// Number of atom encoder/decoder blocks at paper scale.
const LOCAL_BLOCKS: usize = 3;
/// Diffusion samples generated per request (AF3 default).
pub const DIFFUSION_SAMPLES: usize = 5;
/// Inventory multiplier for the atom transformer: the itemized formula
/// below covers the attention/transition matmuls only; the full AF3 atom
/// transformer adds atom-pair embeddings, conditioning projections and
/// gating. Calibrated against Fig. 9's encoder/decoder slices.
const LOCAL_COST_SCALE: f64 = 10.0;

/// Karras-style noise schedule: geometrically decaying sigmas.
pub fn noise_schedule(steps: usize, sigma_max: f32, sigma_min: f32) -> Vec<f32> {
    assert!(steps >= 1, "need at least one step");
    assert!(sigma_max > sigma_min && sigma_min > 0.0, "sigma order");
    let rho = 7.0f32;
    (0..steps)
        .map(|i| {
            let t = i as f32 / (steps.max(2) - 1) as f32;
            let a = sigma_max.powf(1.0 / rho);
            let b = sigma_min.powf(1.0 / rho);
            (a + t * (b - a)).powf(rho)
        })
        .collect()
}

/// One local-attention block over a windowed sequence.
#[derive(Debug, Clone)]
struct LocalBlock {
    attention: MultiHeadAttention,
    transition: Transition,
    window: usize,
}

impl LocalBlock {
    fn new(dim: usize, window: usize, seed: u64) -> LocalBlock {
        LocalBlock {
            attention: MultiHeadAttention::new(dim, 2.min(dim / 4).max(1), seed),
            transition: Transition::new(dim, 2, seed ^ 0x77),
            window: window.max(2),
        }
    }

    /// Windowed self-attention: rows attend only within their window.
    fn forward(&self, x: &Tensor) -> Tensor {
        let n = x.dims()[0];
        let d = x.dims()[1];
        let mut out = Tensor::zeros(vec![n, d]);
        let mut start = 0;
        while start < n {
            let end = (start + self.window).min(n);
            let len = end - start;
            let win = Tensor::from_vec(vec![len, d], x.data()[start * d..end * d].to_vec());
            let attended = self.attention.forward(&win, &win, None);
            out.data_mut()[start * d..end * d].copy_from_slice(attended.data());
            start = end;
        }
        let out = x.add(&out);
        out.add(&self.transition.forward(&out))
    }
}

/// The diffusion module at simulation width.
#[derive(Debug, Clone)]
pub struct DiffusionModule {
    atom_encoder: Vec<LocalBlock>,
    token_blocks: Vec<(MultiHeadAttention, Transition)>,
    atom_decoder: Vec<LocalBlock>,
    atom_in: Linear,
    atom_out: Linear,
    token_in: Linear,
    config: ModelConfig,
}

impl DiffusionModule {
    /// Build at simulation width (fewer executed blocks; full counts are
    /// used in the cost log).
    pub fn new(config: &ModelConfig, seed: u64) -> DiffusionModule {
        let c_atom = config.sim_dim(config.c_atom);
        let c_token = config.sim_dim(config.c_token);
        let local_exec = LOCAL_BLOCKS.min(2);
        let global_exec = GLOBAL_BLOCKS.min(3);
        DiffusionModule {
            atom_encoder: (0..local_exec)
                .map(|b| LocalBlock::new(c_atom, config.atom_window, seed ^ (b as u64)))
                .collect(),
            token_blocks: (0..global_exec)
                .map(|b| {
                    (
                        MultiHeadAttention::new(c_token, 2, seed ^ 0x100 ^ (b as u64)),
                        Transition::new(c_token, 2, seed ^ 0x200 ^ (b as u64)),
                    )
                })
                .collect(),
            atom_decoder: (0..local_exec)
                .map(|b| LocalBlock::new(c_atom, config.atom_window, seed ^ 0x300 ^ (b as u64)))
                .collect(),
            atom_in: Linear::new_no_bias(3 + 1, c_atom, seed ^ 0x400),
            atom_out: Linear::new_no_bias(c_atom, 3, seed ^ 0x500),
            token_in: Linear::new_no_bias(c_atom, c_token, seed ^ 0x600),
            config: *config,
        }
    }

    /// One denoising step on sim-width tensors: coordinates `[m, 3]` at
    /// noise level `sigma` → denoised coordinates.
    fn denoise_step(&self, coords: &Tensor, sigma: f32) -> Tensor {
        let m = coords.dims()[0];
        // Atom features: coordinates + noise level.
        let mut feats = Tensor::zeros(vec![m, 4]);
        for i in 0..m {
            for d in 0..3 {
                feats.set(&[i, d], coords.at(&[i, d]) / (1.0 + sigma));
            }
            feats.set(&[i, 3], sigma.ln());
        }
        let mut atoms = self.atom_in.forward(&feats);
        for block in &self.atom_encoder {
            atoms = block.forward(&atoms);
        }
        // Pool atoms to tokens (fixed ratio), run global attention, then
        // broadcast back.
        let tokens_n = (m / 4).max(1);
        let c_token = self.config.sim_dim(self.config.c_token);
        let pooled = {
            let c_atom = atoms.dims()[1];
            let mut t = Tensor::zeros(vec![tokens_n, c_atom]);
            for i in 0..m {
                let ti = (i * tokens_n / m).min(tokens_n - 1);
                for d in 0..c_atom {
                    t.data_mut()[ti * c_atom + d] += atoms.at(&[i, d]) / 4.0;
                }
            }
            self.token_in.forward(&t)
        };
        let mut tokens = pooled;
        for (attn, trans) in &self.token_blocks {
            let attended = attn.forward(&tokens, &tokens, None);
            tokens = tokens.add(&attended);
            tokens = tokens.add(&trans.forward(&tokens));
        }
        // Broadcast token context back to atoms (simple add of the mean).
        let mean_ctx = {
            let mut mean = vec![0.0f32; c_token];
            for row in tokens.data().chunks(c_token) {
                for (m_v, &v) in mean.iter_mut().zip(row) {
                    *m_v += v / tokens_n as f32;
                }
            }
            mean
        };
        let c_atom = atoms.dims()[1];
        for row in atoms.data_mut().chunks_mut(c_atom) {
            for (d, v) in row.iter_mut().enumerate() {
                *v += mean_ctx[d % c_token] * 0.1;
            }
        }
        let mut atoms_dec = atoms;
        for block in &self.atom_decoder {
            atoms_dec = block.forward(&atoms_dec);
        }
        let predicted_clean = self
            .atom_out
            .forward(&afsb_tensor::nn::layer_norm(&atoms_dec))
            .scale(2.0);
        // Move toward the predicted clean coordinates; the step size grows
        // as noise anneals (standard ancestral-sampler contraction).
        let alpha = 0.4 + 0.2 / (1.0 + sigma);
        coords.zip(&predicted_clean, |c, p| c + alpha * (p - c))
    }

    /// Run the full sampling loop.
    ///
    /// Executes `config.diffusion_steps` denoising steps on sim-width
    /// atoms for `n_tokens` tokens and returns the final sim-width
    /// coordinates.
    pub fn sample(&self, n_tokens: usize, seed: u64) -> Tensor {
        let m_sim = (self.config.sim_tokens(n_tokens) * 4).max(8);
        let mut rng = Rng::seed_from_u64(seed);
        let mut coords = Tensor::zeros(vec![m_sim, 3]);
        let sigmas = noise_schedule(self.config.diffusion_steps, 160.0, 0.05);
        for v in coords.data_mut() {
            *v = rng.gen_range(-1.0f32..1.0) * sigmas[0];
        }
        for &sigma in &sigmas {
            coords = self.denoise_step(&coords, sigma);
        }
        coords
    }

    /// Log the paper-scale cost of every denoising step for the true
    /// counts (`n_tokens` tokens, `atoms` atoms, [`DIFFUSION_SAMPLES`]
    /// samples).
    pub fn log_paper_costs(n_tokens: usize, atoms: usize, config: &ModelConfig, log: &mut CostLog) {
        for _ in 0..config.diffusion_steps {
            DiffusionModule::log_step_costs(n_tokens, atoms, config, log);
        }
    }

    /// Paper-scale cost of one denoising step (all diffusion samples).
    fn log_step_costs(n_tokens: usize, atoms: usize, config: &ModelConfig, log: &mut CostLog) {
        let s = DIFFUSION_SAMPLES as f64;
        let m = atoms as f64;
        let n = n_tokens as f64;
        let ca = config.c_atom as f64;
        let ct = config.c_token as f64;
        let w = config.atom_window as f64;

        // Local attention (encoder): per block, projections 12·M·c² plus
        // windowed logits/values 4·M·W·c plus token-conditioning reads,
        // times the inventory multiplier (see LOCAL_COST_SCALE).
        let local_flops = LOCAL_COST_SCALE
            * LOCAL_BLOCKS as f64
            * (12.0 * m * ca * ca + 4.0 * m * w * ca + 2.0 * m * ct * ca);
        let local_bytes = LOCAL_COST_SCALE * LOCAL_BLOCKS as f64 * 10.0 * m * ca;
        log.record(
            "diffusion/local_attention_encoder",
            s * local_flops,
            s * local_bytes,
            LOCAL_BLOCKS as u64,
        );

        // Global attention: 24 token blocks, projections + transitions
        // (24·c²·N terms) plus full N² attention with pair conditioning
        // (the 12·N²·c term: logits, values and the conditioning bias all
        // touch every token pair).
        let global_flops =
            GLOBAL_BLOCKS as f64 * (8.0 * n * ct * ct + 12.0 * n * n * ct + 16.0 * n * ct * ct);
        let global_bytes = GLOBAL_BLOCKS as f64 * (8.0 * n * ct + 6.0 * n * n);
        log.record(
            "diffusion/global_attention",
            s * global_flops,
            s * global_bytes,
            GLOBAL_BLOCKS as u64,
        );

        // Local attention (decoder): slightly lighter than the encoder.
        log.record(
            "diffusion/local_attention_decoder",
            s * local_flops * 0.8,
            s * local_bytes * 0.8,
            LOCAL_BLOCKS as u64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_decreasing() {
        let s = noise_schedule(16, 160.0, 0.05);
        assert_eq!(s.len(), 16);
        for w in s.windows(2) {
            assert!(w[0] > w[1], "sigmas must decay: {w:?}");
        }
        assert!((s[0] - 160.0).abs() < 1e-3);
    }

    #[test]
    fn sampling_denoises_coordinates() {
        let cfg = ModelConfig::tiny();
        let module = DiffusionModule::new(&cfg, 1);
        let coords = module.sample(40, 2);
        // The final coordinates must be far tamer than the initial noise
        // scale (sigma_max = 160).
        assert!(
            coords.max_abs() < 80.0,
            "coords magnitude {}",
            coords.max_abs()
        );
        assert!(coords.max_abs() > 0.0);
    }

    #[test]
    fn step_costs_logged_per_step() {
        let cfg = ModelConfig::tiny();
        let mut log = CostLog::new();
        DiffusionModule::log_paper_costs(100, 800, &cfg, &mut log);
        let by = log.by_label();
        assert_eq!(by.len(), 3);
        // Steps × 3 labels entries.
        assert_eq!(log.entries().len(), cfg.diffusion_steps * 3);
        // Global attention dominates (Fig. 9's diffusion finding).
        assert!(by["diffusion/global_attention"].0 > by["diffusion/local_attention_encoder"].0);
    }

    #[test]
    fn global_share_grows_with_tokens() {
        // Fig. 9: promo's global-attention share exceeds 2PV7's.
        let cfg = ModelConfig::paper();
        let share = |n: usize, atoms: usize| {
            let mut log = CostLog::new();
            DiffusionModule::log_step_costs(n, atoms, &cfg, &mut log);
            let by = log.by_label();
            let total: f64 = by.values().map(|v| v.0).sum();
            by["diffusion/global_attention"].0 / total
        };
        let small = share(484, 3872);
        let large = share(857, 7896);
        assert!(
            large > small,
            "global attention share must grow: {small} -> {large}"
        );
        assert!(
            small > 0.5,
            "global attention dominates even at 2PV7: {small}"
        );
    }

    #[test]
    fn deterministic_sampling() {
        let cfg = ModelConfig::tiny();
        let module = DiffusionModule::new(&cfg, 5);
        let a = module.sample(30, 9);
        let b = module.sample(30, 9);
        assert_eq!(a, b);
    }
}
