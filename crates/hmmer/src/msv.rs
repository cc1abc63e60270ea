//! SSV/MSV acceleration filter (ungapped diagonal scoring).
//!
//! The first — and by far the most-executed — stage of the HMMER pipeline:
//! every database residue is scored against the profile without gaps. Our
//! SSV computes, for each diagonal of the (query × target) matrix, the
//! best Kadane segment of match emission scores; MSV additionally credits
//! a second, disjoint high-scoring diagonal (multi-hit behaviour,
//! simplified from HMMER's multi-segment Viterbi — documented deviation).
//!
//! The scan runs row by row over the target rather than diagonal by
//! diagonal, so that its inner loop is a branch-free pass over one
//! contiguous residue row of the profile that the compiler vectorises.
//! Every diagonal still sees its cells in the same order, so each
//! diagonal's running score and best score are bit for bit those of a
//! per-diagonal Kadane.

use crate::counters::WorkCounters;
use crate::profile::ProfileHmm;

/// Result of the SSV/MSV scan of one target sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MsvResult {
    /// Best single ungapped diagonal segment score (bits).
    pub ssv_bits: f32,
    /// Multi-hit score: best plus a discounted second diagonal (bits).
    pub msv_bits: f32,
    /// Diagonal offset (`target_pos - query_pos`) of the best segment.
    pub best_diag: i64,
    /// Target position where the best segment ends (exclusive).
    pub best_end: usize,
    /// Length of the best segment.
    pub best_len: usize,
}

/// Scan one target with the SSV/MSV filter.
///
/// Costs `profile.len() * target.len()` cell evaluations, accounted in
/// `counters.ssv_cells`.
///
/// Diagonal `d = i - q` (target index `i`, query column `q`) lives in
/// slot `d + K - 1` of two arrays: its running Kadane score and its best
/// score so far. Row `i` touches exactly the slots `[i, i + K)`, slot
/// `i + m` holding column `K - 1 - m`, so the row is the residue's score
/// row read in reverse. A slot's first touch is its diagonal's first
/// cell, and every slot starts at a running score of 0, so the
/// recurrence matches a per-diagonal Kadane from its first cell on. The
/// diagonals' bests are then merged in ascending `d` with strict
/// comparisons, and only the winning diagonal is walked again for the
/// end and length of its best segment.
pub fn msv_scan(profile: &ProfileHmm, target: &[u8], counters: &mut WorkCounters) -> MsvResult {
    let k = profile.len();
    let l = target.len();
    counters.ssv_cells += (k as u64) * (l as u64);

    let slots = (k + l).saturating_sub(1);
    let mut run = vec![0.0f32; slots];
    let mut diag_best = vec![f32::NEG_INFINITY; slots];
    for (i, &x) in target.iter().enumerate() {
        let row = profile.residue_scores(x);
        let run = &mut run[i..i + k];
        let diag_best = &mut diag_best[i..i + k];
        // Selects, not branches: this loop must stay vectorised.
        for ((r, b), &s) in run
            .iter_mut()
            .zip(diag_best.iter_mut())
            .zip(row.iter().rev())
        {
            let v = if *r <= 0.0 { s } else { *r + s };
            *r = v;
            *b = if v > *b { v } else { *b };
        }
    }

    let mut best = (f32::NEG_INFINITY, None);
    let mut second = f32::NEG_INFINITY;
    let min_d = -(k as i64 - 1);
    for (d, &score) in (min_d..).zip(&diag_best) {
        if score > best.0 {
            second = best.0;
            best = (score, Some(d));
        } else if score > second {
            second = score;
        }
    }
    let (best_diag, best_end, best_len) = match best.1 {
        Some(d) => {
            let (end, len) = best_segment(profile, target, d);
            (d, end, len)
        }
        None => (0, 0, 0),
    };

    // Entry cost: one local entry for the single hit, two for multi-hit.
    let entry = profile.entry();
    let ssv_bits = best.0 + entry;
    let msv_bits = if second > 0.0 {
        ssv_bits + (second + entry).max(0.0) * 0.7
    } else {
        ssv_bits
    };
    MsvResult {
        ssv_bits,
        msv_bits,
        best_diag,
        best_end,
        best_len,
    }
}

/// Kadane over diagonal `d` alone: the target end (exclusive) and the
/// length of its first best-scoring segment.
fn best_segment(profile: &ProfileHmm, target: &[u8], d: i64) -> (usize, usize) {
    let q_start = if d < 0 { d.unsigned_abs() as usize } else { 0 };
    let i_start = if d < 0 { 0 } else { d as usize };
    let len = (profile.len() - q_start).min(target.len() - i_start);
    let mut run = 0.0f32;
    let mut run_len = 0;
    let mut best = (f32::NEG_INFINITY, 0, 0);
    for j in 0..len {
        let s = profile.match_score(q_start + j, target[i_start + j]);
        if run <= 0.0 {
            run = s;
            run_len = 1;
        } else {
            run += s;
            run_len += 1;
        }
        if run > best.0 {
            best = (run, i_start + j + 1, run_len);
        }
    }
    (best.1, best.2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::substitution::SubstitutionMatrix;
    use afsb_seq::alphabet::MoleculeKind;
    use afsb_seq::generate::{background_sequence, mutate_homolog, rng_for};
    use afsb_seq::sequence::Sequence;

    fn profile_of(text: &str) -> ProfileHmm {
        let q = Sequence::parse("q", MoleculeKind::Protein, text).unwrap();
        ProfileHmm::from_query(&q, &SubstitutionMatrix::blosum62())
    }

    #[test]
    fn exact_match_scores_high_on_main_diagonal() {
        let p = profile_of("WKDYEWMHNC");
        let target = Sequence::parse("t", MoleculeKind::Protein, "WKDYEWMHNC").unwrap();
        let mut c = WorkCounters::default();
        let r = msv_scan(&p, target.codes(), &mut c);
        assert_eq!(r.best_diag, 0);
        assert!(
            r.ssv_bits > 10.0,
            "self-match should score high: {}",
            r.ssv_bits
        );
        assert_eq!(c.ssv_cells, 100);
    }

    #[test]
    fn embedded_match_found_at_offset() {
        let p = profile_of("WKDYEWMHNC");
        let mut rng = rng_for("t", 5);
        let pad = background_sequence("pad", MoleculeKind::Protein, 30, &mut rng);
        let mut codes = pad.codes().to_vec();
        let q = Sequence::parse("q", MoleculeKind::Protein, "WKDYEWMHNC").unwrap();
        codes.extend_from_slice(q.codes());
        let mut c = WorkCounters::default();
        let r = msv_scan(&p, &codes, &mut c);
        assert_eq!(r.best_diag, 30);
        assert_eq!(r.best_end, 40);
        assert_eq!(r.best_len, 10);
    }

    #[test]
    fn homolog_outscores_random() {
        let mut rng = rng_for("t", 6);
        let q = background_sequence("q", MoleculeKind::Protein, 80, &mut rng);
        let p = ProfileHmm::from_query(&q, &SubstitutionMatrix::blosum62());
        let hom = mutate_homolog(&q, "h", 0.8, 0.0, &mut rng);
        let rnd = background_sequence("r", MoleculeKind::Protein, 80, &mut rng);
        let mut c = WorkCounters::default();
        let rh = msv_scan(&p, hom.codes(), &mut c);
        let rr = msv_scan(&p, rnd.codes(), &mut c);
        assert!(
            rh.ssv_bits > rr.ssv_bits + 10.0,
            "homolog {} vs random {}",
            rh.ssv_bits,
            rr.ssv_bits
        );
    }

    #[test]
    fn msv_at_least_ssv() {
        let mut rng = rng_for("t", 7);
        let q = background_sequence("q", MoleculeKind::Protein, 40, &mut rng);
        let p = ProfileHmm::from_query(&q, &SubstitutionMatrix::blosum62());
        for i in 0..10 {
            let t = background_sequence(format!("t{i}"), MoleculeKind::Protein, 120, &mut rng);
            let mut c = WorkCounters::default();
            let r = msv_scan(&p, t.codes(), &mut c);
            assert!(r.msv_bits >= r.ssv_bits - 1e-6);
        }
    }

    #[test]
    fn poly_q_target_inflates_score_for_poly_q_query() {
        // Q-Q scores +5 half-bits: repeats against repeats light up.
        let p = profile_of(&"Q".repeat(30));
        let mut rng = rng_for("t", 8);
        let mut c = WorkCounters::default();
        let qs = Sequence::parse("t", MoleculeKind::Protein, &"Q".repeat(60)).unwrap();
        let r_poly = msv_scan(&p, qs.codes(), &mut c);
        let rnd = background_sequence("r", MoleculeKind::Protein, 60, &mut rng);
        let r_rnd = msv_scan(&p, rnd.codes(), &mut c);
        assert!(r_poly.ssv_bits > r_rnd.ssv_bits + 20.0);
    }
}
