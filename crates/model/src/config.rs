//! Model hyper-parameters: paper-scale dimensions and the reduced
//! simulation width.

/// AF3 model configuration.
///
/// `paper()` carries the published AF3 dimensions used for *cost
/// accounting*; `sim()` is the reduced width the tensors actually run at.
/// Both travel together in [`ModelConfig`]: layers execute at `sim_*`
/// sizes and log costs at the paper sizes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelConfig {
    /// Pair representation channels (paper: 128).
    pub c_pair: usize,
    /// Single representation channels (paper: 384).
    pub c_single: usize,
    /// Diffusion token channels (paper: 768).
    pub c_token: usize,
    /// Atom representation channels (paper: 128).
    pub c_atom: usize,
    /// Triangle attention heads.
    pub tri_heads: usize,
    /// Single-attention heads.
    pub single_heads: usize,
    /// Pairformer blocks (paper: 48).
    pub pairformer_blocks: usize,
    /// MSA module blocks (paper: 4).
    pub msa_blocks: usize,
    /// Diffusion denoising steps (paper: 8–16 depending on preset).
    pub diffusion_steps: usize,
    /// Atom-attention window (sequence-local attention span).
    pub atom_window: usize,
    /// Transition expansion factor.
    pub transition_expansion: usize,
    /// Maximum tokens the *executed* tensors use (inputs are truncated to
    /// this for the real run; costs always use the true token count).
    pub sim_max_tokens: usize,
    /// Executed channel width divisor (sim dims = paper dims / divisor).
    pub sim_width_divisor: usize,
}

impl ModelConfig {
    /// Paper-faithful dimensions with a practical executed width.
    pub fn paper() -> ModelConfig {
        ModelConfig {
            c_pair: 128,
            c_single: 384,
            c_token: 768,
            c_atom: 128,
            tri_heads: 4,
            single_heads: 16,
            pairformer_blocks: 48,
            msa_blocks: 4,
            diffusion_steps: 16,
            atom_window: 32,
            transition_expansion: 4,
            sim_max_tokens: 24,
            sim_width_divisor: 8,
        }
    }

    /// Small everything — fast unit tests.
    pub fn tiny() -> ModelConfig {
        ModelConfig {
            c_pair: 16,
            c_single: 32,
            c_token: 32,
            c_atom: 16,
            tri_heads: 2,
            single_heads: 4,
            pairformer_blocks: 2,
            msa_blocks: 1,
            diffusion_steps: 2,
            atom_window: 8,
            transition_expansion: 2,
            sim_max_tokens: 12,
            sim_width_divisor: 1,
        }
    }

    /// Check that the config describes a model that runs and costs
    /// something, returning an error that names the field: the
    /// simulation width divides by `sim_width_divisor`, the noise
    /// schedule needs a step, and a zero channel count prices a layer
    /// at nothing.
    pub fn validate(&self) -> Result<(), String> {
        for (field, value) in [
            ("c_pair", self.c_pair),
            ("c_single", self.c_single),
            ("c_token", self.c_token),
            ("c_atom", self.c_atom),
            ("diffusion_steps", self.diffusion_steps),
            ("sim_width_divisor", self.sim_width_divisor),
        ] {
            if value == 0 {
                return Err(format!("model config: {field} must be at least 1, got 0"));
            }
        }
        Ok(())
    }

    /// Executed (sim) channel width for a paper channel count.
    pub fn sim_dim(&self, paper_dim: usize) -> usize {
        (paper_dim / self.sim_width_divisor).max(4)
    }

    /// Executed token count for a real token count.
    pub fn sim_tokens(&self, tokens: usize) -> usize {
        tokens.min(self.sim_max_tokens).max(2)
    }

    /// Key/value trace attributes describing the model shape on an
    /// inference span.
    pub fn trace_attrs(&self) -> Vec<(String, afsb_rt::Json)> {
        vec![
            ("c_pair".into(), (self.c_pair as u64).into()),
            ("c_single".into(), (self.c_single as u64).into()),
            (
                "pairformer_blocks".into(),
                (self.pairformer_blocks as u64).into(),
            ),
            (
                "diffusion_steps".into(),
                (self.diffusion_steps as u64).into(),
            ),
            ("sim_max_tokens".into(), (self.sim_max_tokens as u64).into()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_dims_match_af3() {
        let c = ModelConfig::paper();
        assert_eq!(c.c_pair, 128);
        assert_eq!(c.c_single, 384);
        assert_eq!(c.pairformer_blocks, 48);
        assert!(c.diffusion_steps >= 8 && c.diffusion_steps <= 16);
    }

    #[test]
    fn sim_reduction() {
        let c = ModelConfig::paper();
        assert_eq!(c.sim_dim(128), 16);
        assert_eq!(c.sim_tokens(484), 24);
        assert_eq!(c.sim_tokens(8), 8);
        // Floors apply.
        assert_eq!(c.sim_dim(16), 4);
    }

    #[test]
    fn tiny_runs_full_width() {
        let c = ModelConfig::tiny();
        assert_eq!(c.sim_dim(c.c_pair), 16);
    }

    #[test]
    fn validate_accepts_paper_and_tiny() {
        assert_eq!(ModelConfig::paper().validate(), Ok(()));
        assert_eq!(ModelConfig::tiny().validate(), Ok(()));
    }

    /// Assert that `zero` makes both presets invalid with an error
    /// naming `field`.
    fn rejects(field: &str, zero: fn(&mut ModelConfig)) {
        for mut config in [ModelConfig::paper(), ModelConfig::tiny()] {
            zero(&mut config);
            let err = config.validate().expect_err(field);
            assert!(err.contains(field), "{field}: {err}");
        }
    }

    #[test]
    fn validate_names_each_zero_field() {
        rejects("sim_width_divisor", |c| c.sim_width_divisor = 0);
        rejects("diffusion_steps", |c| c.diffusion_steps = 0);
        rejects("c_pair", |c| c.c_pair = 0);
        rejects("c_single", |c| c.c_single = 0);
        rejects("c_token", |c| c.c_token = 0);
        rejects("c_atom", |c| c.c_atom = 0);
    }
}
