//! Profile hidden Markov models (plan7-style, local alignment mode).
//!
//! A profile has `K` match states with per-residue emission log-odds
//! (bits vs. the background), plus insert and delete states with shared
//! transition costs. Profiles are built either from a single query
//! sequence (first jackhmmer iteration — emissions from the substitution
//! matrix row of each query residue) or from per-column residue counts of
//! an MSA (later iterations — frequencies with background pseudocounts).

use crate::substitution::SubstitutionMatrix;
use afsb_seq::alphabet::{Alphabet, MoleculeKind};
use afsb_seq::sequence::Sequence;

/// Default transition scores in bits (log₂ probability).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transitions {
    /// Match → match.
    pub mm: f32,
    /// Match → insert.
    pub mi: f32,
    /// Match → delete.
    pub md: f32,
    /// Insert → match.
    pub im: f32,
    /// Insert → insert.
    pub ii: f32,
    /// Delete → match.
    pub dm: f32,
    /// Delete → delete.
    pub dd: f32,
}

impl Default for Transitions {
    fn default() -> Transitions {
        Transitions {
            mm: -0.044,
            mi: -6.64,
            md: -6.64,
            im: -0.74,
            ii: -1.32,
            dm: -0.74,
            dd: -1.32,
        }
    }
}

/// A profile HMM over one alphabet.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileHmm {
    query_id: String,
    kind: MoleculeKind,
    k: usize,
    dim: usize,
    /// `dim * k` match emission scores in bits, residue-major: residue
    /// `x`'s scores at every column are `match_scores[x * k..(x + 1) * k]`,
    /// so every DP kernel, which fixes a target residue per row, reads
    /// one contiguous row.
    match_scores: Vec<f32>,
    transitions: Transitions,
    /// Local-entry score B→Mₖ (uniform over positions).
    entry: f32,
}

impl ProfileHmm {
    /// Build a profile from a single query sequence using a substitution
    /// matrix (BLAST-style position-independent log-odds).
    ///
    /// # Panics
    ///
    /// Panics if the matrix kind differs from the query kind.
    pub fn from_query(query: &Sequence, matrix: &SubstitutionMatrix) -> ProfileHmm {
        assert_eq!(
            query.kind(),
            matrix.kind(),
            "matrix and query must share an alphabet"
        );
        let alphabet = query.alphabet();
        let dim = alphabet.len() + 1;
        let k = query.len();
        let mut match_scores = Vec::with_capacity(dim * k);
        for x in 0..dim as u8 {
            for &q in query.codes() {
                match_scores.push(matrix.score_bits(q, x));
            }
        }
        ProfileHmm {
            query_id: query.id().to_owned(),
            kind: query.kind(),
            k,
            dim,
            match_scores,
            transitions: Transitions::default(),
            entry: -(k as f32).log2(),
        }
    }

    /// Build a profile from per-column residue counts of an MSA
    /// (`counts[k][x]` over canonical codes), with background
    /// pseudocounts. Used by jackhmmer's second and later iterations.
    ///
    /// # Panics
    ///
    /// Panics if `counts` is empty or a column's width differs from the
    /// alphabet size.
    pub fn from_column_counts(
        query_id: impl Into<String>,
        kind: MoleculeKind,
        counts: &[Vec<f64>],
    ) -> ProfileHmm {
        assert!(!counts.is_empty(), "profile needs at least one column");
        let alphabet = Alphabet::for_kind(kind);
        let n = alphabet.len();
        let bg = alphabet.background();
        let dim = n + 1;
        let k = counts.len();
        // Pseudocount weight (Dirichlet-ish, flat).
        let tau = 2.0;
        // Every residue row is filled column by column; the ambiguity
        // code's row stays mildly negative.
        let mut match_scores = vec![-0.5; dim * k];
        for (q, col) in counts.iter().enumerate() {
            assert_eq!(col.len(), n, "column width must equal alphabet size");
            let total: f64 = col.iter().sum();
            for x in 0..n {
                let p = (col[x] + tau * f64::from(bg[x])) / (total + tau);
                match_scores[x * k + q] = (p / f64::from(bg[x])).log2() as f32;
            }
        }
        ProfileHmm {
            query_id: query_id.into(),
            kind,
            k,
            dim,
            match_scores,
            transitions: Transitions::default(),
            entry: -(k as f32).log2(),
        }
    }

    /// The query/profile identifier.
    pub fn query_id(&self) -> &str {
        &self.query_id
    }

    /// Molecule kind.
    pub fn kind(&self) -> MoleculeKind {
        self.kind
    }

    /// Number of match states (columns).
    pub fn len(&self) -> usize {
        self.k
    }

    /// Whether the profile has no columns (never true for constructed
    /// profiles).
    pub fn is_empty(&self) -> bool {
        self.k == 0
    }

    /// Transition scores.
    pub fn transitions(&self) -> &Transitions {
        &self.transitions
    }

    /// Local entry score (B → any match column).
    pub fn entry(&self) -> f32 {
        self.entry
    }

    /// Match emission score (bits) of residue code `x` at column `k`
    /// (0-based).
    #[inline]
    pub fn match_score(&self, k: usize, x: u8) -> f32 {
        debug_assert!(k < self.k);
        self.match_scores[x as usize * self.k + k]
    }

    /// Match emission scores (bits) of residue code `x` at every column,
    /// in column order.
    #[inline]
    pub fn residue_scores(&self, x: u8) -> &[f32] {
        let at = x as usize * self.k;
        &self.match_scores[at..at + self.k]
    }

    /// The highest emission score in column `k`.
    pub fn max_match_score(&self, k: usize) -> f32 {
        (0..self.dim as u8)
            .map(|x| self.match_score(k, x))
            .fold(f32::NEG_INFINITY, f32::max)
    }

    /// In-memory size of the profile's score tables (bytes) — feeds the
    /// memory model.
    pub fn state_bytes(&self) -> u64 {
        (self.match_scores.len() * std::mem::size_of::<f32>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afsb_seq::generate::{background_sequence, rng_for};

    fn query(text: &str) -> Sequence {
        Sequence::parse("q", MoleculeKind::Protein, text).unwrap()
    }

    #[test]
    fn from_query_mirrors_matrix() {
        let m = SubstitutionMatrix::blosum62();
        let q = query("WAQ");
        let p = ProfileHmm::from_query(&q, &m);
        assert_eq!(p.len(), 3);
        let w = Alphabet::PROTEIN.encode('W').unwrap();
        assert!((p.match_score(0, w) - 5.5).abs() < 1e-6); // W-W = 11 half-bits
        let a = Alphabet::PROTEIN.encode('A').unwrap();
        assert!((p.match_score(1, a) - 2.0).abs() < 1e-6); // A-A = 4 half-bits
    }

    #[test]
    fn residue_rows_are_the_matrix_rows_of_the_query() {
        let m = SubstitutionMatrix::blosum62();
        let q = query("WAQKY");
        let p = ProfileHmm::from_query(&q, &m);
        for x in 0..=Alphabet::PROTEIN.any_code() {
            let row: Vec<f32> = q.codes().iter().map(|&c| m.score_bits(c, x)).collect();
            assert_eq!(p.residue_scores(x), row.as_slice(), "residue {x}");
        }
        let counts = vec![vec![1.0; 20]; 3];
        let p = ProfileHmm::from_column_counts("it2", MoleculeKind::Protein, &counts);
        assert_eq!(p.residue_scores(Alphabet::PROTEIN.any_code()), [-0.5; 3]);
    }

    #[test]
    fn query_scores_highest_on_itself() {
        let m = SubstitutionMatrix::blosum62();
        let mut rng = rng_for("p", 3);
        let q = background_sequence("q", MoleculeKind::Protein, 50, &mut rng);
        let p = ProfileHmm::from_query(&q, &m);
        for (k, &c) in q.codes().iter().enumerate() {
            assert!(
                (p.match_score(k, c) - p.max_match_score(k)).abs() < 1e-6,
                "column {k}"
            );
        }
    }

    #[test]
    fn column_counts_favor_conserved_residue() {
        // Column 0: all W. Column 1: uniform noise.
        let n = 20;
        let mut col0 = vec![0.0; n];
        let w = Alphabet::PROTEIN.encode('W').unwrap() as usize;
        col0[w] = 30.0;
        let col1 = vec![1.5; n];
        let p = ProfileHmm::from_column_counts("it2", MoleculeKind::Protein, &[col0, col1]);
        // Conserved W scores strongly positive; rare residue negative.
        assert!(p.match_score(0, w as u8) > 3.0);
        let a = Alphabet::PROTEIN.encode('A').unwrap();
        assert!(p.match_score(0, a) < 0.0);
        // Uniform column is near-zero information.
        assert!(p.match_score(1, a).abs() < 1.0);
    }

    #[test]
    fn entry_decreases_with_length() {
        let m = SubstitutionMatrix::blosum62();
        let short = ProfileHmm::from_query(&query("WAQ"), &m);
        let long = ProfileHmm::from_query(&query(&"WAQ".repeat(20)), &m);
        assert!(long.entry() < short.entry());
    }

    #[test]
    #[should_panic(expected = "share an alphabet")]
    fn kind_mismatch_panics() {
        let m = SubstitutionMatrix::nucleotide(MoleculeKind::Rna);
        let q = query("WAQ");
        let _ = ProfileHmm::from_query(&q, &m);
    }
}
