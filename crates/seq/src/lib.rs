//! Biomolecular sequence substrate for AFSysBench-RS.
//!
//! This crate provides everything the AlphaFold3 workload characterization
//! needs on the *input* side:
//!
//! - residue [`alphabet`]s for proteins, DNA and RNA,
//! - typed [`sequence`]s and multi-chain [`chain::Assembly`] inputs,
//! - the AF3 structured-JSON [`input`] format (parse + serialize),
//! - sequence [`complexity`] metrics (Shannon entropy, SEG-like
//!   low-complexity masking) that drive MSA cost behaviour,
//! - seeded random [`generate`]-ors (Markov background, homolog mutation,
//!   poly-Q repeat injection),
//! - synthetic homology-search [`database`]s with planted families, and
//! - the five paper benchmark [`samples`] (2PV7, 7RCE, 1YY9, promo, 6QNR).
//!
//! # Example
//!
//! ```
//! use afsb_seq::samples::{self, SampleId};
//!
//! let sample = samples::sample(SampleId::S2pv7);
//! assert_eq!(sample.assembly.total_residues(), 484);
//! assert_eq!(sample.assembly.chain_count(), 2); // homodimer: 2 copies
//! assert_eq!(sample.assembly.entity_count(), 1); // of 1 sequence entity
//! ```

pub mod alphabet;
pub mod chain;
pub mod complexity;
pub mod database;
pub mod generate;
pub mod input;
pub mod samples;
pub mod sequence;

pub use alphabet::{Alphabet, MoleculeKind};
pub use chain::{Assembly, Chain};
pub use sequence::Sequence;

use std::fmt;

/// Errors produced while parsing or validating sequence inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ParseSeqError {
    /// A residue character was not valid for the declared alphabet.
    InvalidResidue {
        /// The offending character.
        residue: char,
        /// Byte offset within the sequence string.
        position: usize,
        /// The alphabet the sequence was declared to use.
        kind: MoleculeKind,
    },
    /// The sequence was empty.
    Empty,
    /// A chain identifier was duplicated within one assembly.
    DuplicateChainId(String),
    /// The AF3 input JSON was structurally invalid.
    Json(String),
}

impl fmt::Display for ParseSeqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseSeqError::InvalidResidue {
                residue,
                position,
                kind,
            } => write!(
                f,
                "invalid residue {residue:?} at position {position} for {kind} alphabet"
            ),
            ParseSeqError::Empty => write!(f, "sequence is empty"),
            ParseSeqError::DuplicateChainId(id) => {
                write!(f, "duplicate chain id {id:?} in assembly")
            }
            ParseSeqError::Json(msg) => write!(f, "invalid AF3 input json: {msg}"),
        }
    }
}

impl std::error::Error for ParseSeqError {}
