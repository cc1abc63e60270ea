//! End-to-end inference (featurize → embed → MSA module → Pairformer →
//! Diffusion → confidence) and its paper-scale price.

use crate::confidence::ConfidenceHeads;
use crate::config::ModelConfig;
use crate::diffusion::{DiffusionModule, DIFFUSION_SAMPLES};
use crate::embedder::InputEmbedder;
use crate::features::{featurize, FeaturizedInput};
use crate::msa_module::MsaModule;
use crate::pairformer::Pairformer;
use crate::structure::Structure;
use afsb_seq::chain::Assembly;
use afsb_tensor::cost::CostLog;

/// Result of one inference run.
#[derive(Debug, Clone)]
pub struct InferenceResult {
    /// The predicted structure (one coordinate per token).
    pub structure: Structure,
    /// Featurized input (token/atom counts used for cost accounting).
    pub features: FeaturizedInput,
    /// Paper-scale kernel cost log (price with `afsb-gpu`).
    pub cost_log: CostLog,
    /// Peak device working set at paper scale, in bytes.
    pub working_set_bytes: u64,
    /// MSA depth the run conditioned on.
    pub msa_depth: usize,
}

impl InferenceResult {
    /// Token count `N`.
    pub fn n_tokens(&self) -> usize {
        self.features.n_tokens()
    }
}

/// Peak device memory at paper scale: pair-representation buffers
/// dominate, one set per diffusion sample batch (~7 live `bf16` copies —
/// activations, residuals, attention workspace). Calibrated so 6QNR
/// (N = 1395) exceeds the RTX 4080's 16 GiB — forcing the unified-memory
/// fallback the paper describes in §III-B — while 1YY9 (N = 881) fits.
pub fn working_set_bytes(n_tokens: usize, atoms: usize, config: &ModelConfig) -> u64 {
    let n = n_tokens as u64;
    let pair = n * n * config.c_pair as u64 * 2 * 7 * DIFFUSION_SAMPLES as u64;
    let atom = atoms as u64 * config.c_atom as u64 * 2 * 4 * DIFFUSION_SAMPLES as u64;
    let weights = 1u64 << 30;
    pair + atom + weights
}

/// The paper-scale price of one inference: what device pricing needs,
/// without the structure.
#[derive(Debug, Clone)]
pub struct InferenceCost {
    /// Paper-scale kernel cost log (price with `afsb-gpu`).
    pub cost_log: CostLog,
    /// Peak device working set at paper scale, in bytes.
    pub working_set_bytes: u64,
}

/// Price inference for an assembly from each module's cost formula
/// alone, without running the model.
///
/// Every entry is a closed-form function of the token count, the atom
/// count, `msa_depth` and `config`, recorded in execution order: the
/// embedder, one entry per MSA block, five per Pairformer block, three
/// per diffusion step, then the pLDDT and PAE heads. [`run_inference`]
/// takes its log and working set from here.
///
/// # Panics
///
/// Panics with [`ModelConfig::validate`]'s message if the config is
/// invalid.
pub fn price_inference(
    assembly: &Assembly,
    msa_depth: usize,
    config: &ModelConfig,
) -> InferenceCost {
    if let Err(e) = config.validate() {
        panic!("{e}");
    }
    let features = featurize(assembly);
    let n = features.n_tokens();
    let mut log = CostLog::new();
    InputEmbedder::log_paper_costs(n, config, &mut log);
    MsaModule::log_paper_costs(msa_depth, n, config, &mut log);
    Pairformer::log_paper_costs(n, config, &mut log);
    DiffusionModule::log_paper_costs(n, features.atoms, config, &mut log);
    ConfidenceHeads::log_paper_costs(n, config, &mut log);
    // The PAE head maps pair features to 64 distance bins. No benchmark
    // reads its output, so it is priced but never run.
    let nf = n as f64;
    log.record(
        "confidence/pae",
        2.0 * nf * nf * (config.c_pair * 64) as f64,
        4.0 * nf * nf * config.c_pair as f64,
        1,
    );
    InferenceCost {
        cost_log: log,
        working_set_bytes: working_set_bytes(n, features.atoms, config),
    }
}

/// Run inference for an assembly.
///
/// The tensors execute at the config's simulation width (real math, real
/// shapes) and decide the predicted structure; the cost log and working
/// set are [`price_inference`]'s, at paper scale for the assembly's true
/// token count, ready for device pricing.
///
/// # Panics
///
/// Panics with [`ModelConfig::validate`]'s message if the config is
/// invalid.
pub fn run_inference(
    assembly: &Assembly,
    msa_depth: usize,
    config: &ModelConfig,
    seed: u64,
) -> InferenceResult {
    let cost = price_inference(assembly, msa_depth, config);
    let features = featurize(assembly);
    let n_paper = features.n_tokens();

    let embedder = InputEmbedder::new(config, seed);
    let (single, pair) = embedder.embed(&features, config);

    let msa_module = MsaModule::new(config, seed ^ 0x11);
    let pair = msa_module.run(pair, msa_depth, seed ^ 0x12);

    let pairformer = Pairformer::new(config, seed ^ 0x13);
    let (single, _pair) = pairformer.run(single, pair);

    let diffusion = DiffusionModule::new(config, seed ^ 0x14);
    let sim_coords = diffusion.sample(n_paper, seed ^ 0x15);

    let heads = ConfidenceHeads::new(config, seed ^ 0x16);
    let plddt = heads.plddt(&single, n_paper);

    // Token coordinates: tile the sim-width fold along the chain with a
    // deterministic per-token offset (structure *shape* statistics, not
    // accuracy, are what downstream consumers use).
    let m_sim = sim_coords.dims()[0];
    let coords = (0..n_paper)
        .map(|i| {
            let base = sim_coords.data();
            let j = (i * 4) % m_sim;
            [
                base[j * 3] + (i / m_sim) as f32 * 3.8,
                base[j * 3 + 1],
                base[j * 3 + 2],
            ]
        })
        .collect();

    InferenceResult {
        structure: Structure::new(coords, plddt),
        features,
        cost_log: cost.cost_log,
        working_set_bytes: cost.working_set_bytes,
        msa_depth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afsb_seq::samples::{sample, SampleId};

    #[test]
    fn inference_runs_on_every_sample() {
        let cfg = ModelConfig::tiny();
        for id in SampleId::all() {
            let asm = sample(id).assembly;
            let r = run_inference(&asm, 100, &cfg, 7);
            assert_eq!(r.structure.len(), asm.total_residues(), "{id}");
            assert!(r.cost_log.total_flops() > 0.0, "{id}");
            assert!(r.structure.mean_plddt() > 0.0, "{id}");
        }
    }

    #[test]
    fn cost_grows_with_input_size() {
        let cfg = ModelConfig::tiny();
        let small = run_inference(&sample(SampleId::S7rce).assembly, 100, &cfg, 7);
        let large = run_inference(&sample(SampleId::S6qnr).assembly, 100, &cfg, 7);
        assert!(
            large.cost_log.total_flops() > small.cost_log.total_flops() * 4.0,
            "6QNR must cost far more than 7RCE"
        );
    }

    #[test]
    fn working_set_crosses_16gib_at_6qnr() {
        let cfg = ModelConfig::paper();
        let yy9 = sample(SampleId::S1yy9).assembly;
        let qnr = sample(SampleId::S6qnr).assembly;
        let ws_yy9 = working_set_bytes(881, yy9.total_residues() * 8, &cfg);
        let ws_qnr = working_set_bytes(1395, qnr.total_residues() * 9, &cfg);
        assert!(ws_yy9 < 16 << 30, "1YY9 fits the RTX 4080: {ws_yy9}");
        assert!(
            ws_qnr > 16 << 30,
            "6QNR must spill on the RTX 4080: {ws_qnr}"
        );
        // And both fit the H100's 80 GiB.
        assert!(ws_qnr < 80 << 30);
    }

    #[test]
    fn deterministic_inference() {
        let cfg = ModelConfig::tiny();
        let asm = sample(SampleId::S2pv7).assembly;
        let a = run_inference(&asm, 50, &cfg, 3);
        let b = run_inference(&asm, 50, &cfg, 3);
        assert_eq!(a.structure, b.structure);
        assert_eq!(a.cost_log, b.cost_log);
    }

    #[test]
    fn pae_cost_quadratic() {
        let cfg = ModelConfig::paper();
        let pae = |id| {
            let cost = price_inference(&sample(id).assembly, 100, &cfg);
            cost.cost_log.by_label()["confidence/pae"].0
        };
        let ratio = pae(SampleId::S6qnr) / pae(SampleId::S7rce);
        let expected = (1395.0f64 / 306.0).powi(2);
        assert!((ratio - expected).abs() / expected < 1e-6);
    }

    #[test]
    #[should_panic(expected = "model config: sim_width_divisor must be at least 1")]
    fn run_inference_refuses_an_invalid_config() {
        let cfg = ModelConfig {
            sim_width_divisor: 0,
            ..ModelConfig::tiny()
        };
        run_inference(&sample(SampleId::S7rce).assembly, 100, &cfg, 7);
    }

    #[test]
    #[should_panic(expected = "model config: diffusion_steps must be at least 1")]
    fn price_inference_refuses_an_invalid_config() {
        let cfg = ModelConfig {
            diffusion_steps: 0,
            ..ModelConfig::paper()
        };
        price_inference(&sample(SampleId::S7rce).assembly, 100, &cfg);
    }

    #[test]
    fn paper_config_labels_complete() {
        let cfg = ModelConfig::tiny();
        let r = run_inference(&sample(SampleId::S2pv7).assembly, 100, &cfg, 7);
        let by = r.cost_log.by_label();
        for label in [
            "embedder",
            "msa_module",
            "pairformer/triangle_attention",
            "pairformer/triangle_mult_update",
            "pairformer/pair_transition",
            "diffusion/global_attention",
            "diffusion/local_attention_encoder",
            "diffusion/local_attention_decoder",
            "confidence/plddt",
        ] {
            assert!(by.contains_key(label), "missing {label}");
        }
    }
}
