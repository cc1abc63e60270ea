//! The AlphaFold3 inference network.
//!
//! Implements the modules the paper's inference-phase characterization
//! targets (§V-C): the **Pairformer** stack — triangle multiplicative
//! updates, triangle attention, pair transitions and pair-biased single
//! attention — and the **Diffusion module** — atom-level local attention
//! encoder/decoder around a token-level global-attention transformer,
//! applied iteratively over the denoising schedule. Plus the surrounding
//! pieces: featurization, input embedding, the reduced MSA module, and
//! confidence heads.
//!
//! Weights are seeded-random (the paper measures compute/memory shape,
//! not prediction accuracy). Every layer *runs* as real tensor math at a
//! reduced simulation width, so shapes and invariants are exercised end
//! to end and the run decides the predicted structure. Its paper-scale
//! FLOP/byte cost is a closed-form formula next to the layer (a
//! `log_paper_costs` function of token count, atom count, MSA depth and
//! [`ModelConfig`]); [`price_inference`] records them all into an
//! [`afsb_tensor::CostLog`], which `afsb-gpu` prices per device, without
//! running anything.
//!
//! Dimension conventions follow the AF3 paper: `N` tokens (residues),
//! pair representation `[N, N, c_pair]`, single representation
//! `[N, c_single]`, atoms `M ≈ N × atoms_per_token`.

pub mod confidence;
pub mod config;
pub mod diffusion;
pub mod embedder;
pub mod features;
pub mod inference;
pub mod msa_module;
pub mod pairformer;
pub mod structure;
pub mod triangle;

pub use config::ModelConfig;
pub use inference::{price_inference, run_inference, InferenceCost, InferenceResult};
pub use structure::Structure;
