//! Profile hidden-Markov-model homology search engine.
//!
//! A from-scratch reimplementation of the HMMER-family search stack that
//! the AlphaFold3 MSA phase runs on: `jackhmmer` (iterative protein search)
//! and `nhmmer` (windowed nucleotide search). The paper identifies these
//! tools — and specifically their banded alignment kernels and buffered
//! database I/O — as the dominant CPU consumers of the whole AF3 pipeline
//! (Table IV), so this crate implements the real algorithms:
//!
//! - [`substitution`]: BLOSUM62 and nucleotide scoring matrices,
//! - [`profile`]: profile HMMs built from a query or from an MSA
//!   (for jackhmmer iterations),
//! - [`msv`]: the ungapped SSV/MSV acceleration filter,
//! - [`dp`]: full Viterbi and Forward dynamic programming,
//! - [`banded`]: banded Viterbi split into the two row kernels that
//!   dominate the paper's function-level profile (`calc_band_9` /
//!   `calc_band_10` analogues),
//! - [`evalue`]: Gumbel-calibrated E-values,
//! - [`pipeline`]: the staged acceleration pipeline
//!   (SSV → MSV → Viterbi → Forward) with per-stage survivor counters,
//! - [`io_model`]: a buffered database reader whose fill/lookahead/copy
//!   operations mirror the `addbuf`/`seebuf`/`copy_to_iter` kernel symbols
//!   of Table IV,
//! - [`search`]: one buffered pass over a database, counted in one
//!   [`counters::WorkCounters`] block,
//! - [`jackhmmer`] and [`nhmmer`]: the two driver programs, and
//! - [`msa`]: MSA assembly from hit alignments.
//!
//! Every executed kernel reports exact work counts (DP cells, scanned
//! bytes, survivors, rescans); `afsb-core` converts those into the access
//! traces that the architecture simulator replays.

pub mod banded;
pub mod counters;
pub mod dp;
pub mod evalue;
pub mod hits;
pub mod io_model;
pub mod jackhmmer;
pub mod msa;
pub mod msv;
pub mod nhmmer;
pub mod pipeline;
pub mod profile;
pub mod search;
pub mod substitution;

pub use counters::WorkCounters;
pub use hits::{Alignment, Hit};
pub use pipeline::{Pipeline, PipelineConfig};
pub use profile::ProfileHmm;
