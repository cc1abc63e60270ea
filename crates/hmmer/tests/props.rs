//! Property-based tests for the search engine's core invariants.

use afsb_hmmer::banded::{banded_viterbi, Band};
use afsb_hmmer::counters::WorkCounters;
use afsb_hmmer::dp;
use afsb_hmmer::evalue::GumbelFit;
use afsb_hmmer::msv::{msv_scan, MsvResult};
use afsb_hmmer::profile::ProfileHmm;
use afsb_hmmer::substitution::SubstitutionMatrix;
use afsb_rt::check::{run, Config};
use afsb_seq::alphabet::{Alphabet, MoleculeKind};
use afsb_seq::generate::{background_sequence, markov_sequence, rng_for};
use afsb_seq::sequence::Sequence;

fn profile_and_target(
    seed: u64,
    qlen: usize,
    tlen: usize,
) -> (ProfileHmm, afsb_seq::sequence::Sequence) {
    let mut rng = rng_for("hprop", seed);
    let q = background_sequence("q", MoleculeKind::Protein, qlen, &mut rng);
    let t = background_sequence("t", MoleculeKind::Protein, tlen, &mut rng);
    (
        ProfileHmm::from_query(&q, &SubstitutionMatrix::blosum62()),
        t,
    )
}

#[test]
fn forward_dominates_viterbi() {
    run("forward_dominates_viterbi", Config::cases(48), |g| {
        let seed = g.range(0u64..10_000);
        let qlen = g.range(8usize..60);
        let tlen = g.range(8usize..120);
        let (p, t) = profile_and_target(seed, qlen, tlen);
        let mut c = WorkCounters::default();
        let v = dp::viterbi_score(&p, t.codes(), &mut c);
        let f = dp::forward_score(&p, t.codes(), &mut c);
        assert!(f >= v - 1e-3, "forward {f} < viterbi {v}");
    });
}

#[test]
fn banded_never_beats_full() {
    run("banded_never_beats_full", Config::cases(48), |g| {
        let seed = g.range(0u64..10_000);
        let diag = g.range(-20i64..60);
        let width = g.range(2usize..20);
        let (p, t) = profile_and_target(seed, 40, 90);
        let mut c = WorkCounters::default();
        let full = dp::viterbi_score(&p, t.codes(), &mut c);
        let banded = banded_viterbi(
            &p,
            t.codes(),
            Band {
                diag,
                half_width: width,
            },
            &mut c,
        );
        assert!(banded.score_bits <= full + 1e-3);
    });
}

#[test]
fn wider_band_never_worse() {
    run("wider_band_never_worse", Config::cases(48), |g| {
        let seed = g.range(0u64..10_000);
        let (p, t) = profile_and_target(seed, 40, 90);
        let mut c = WorkCounters::default();
        let narrow = banded_viterbi(
            &p,
            t.codes(),
            Band {
                diag: 0,
                half_width: 4,
            },
            &mut c,
        );
        let wide = banded_viterbi(
            &p,
            t.codes(),
            Band {
                diag: 0,
                half_width: 16,
            },
            &mut c,
        );
        assert!(wide.score_bits >= narrow.score_bits - 1e-3);
    });
}

#[test]
fn traceback_monotone_and_in_bounds() {
    run("traceback_monotone_and_in_bounds", Config::cases(48), |g| {
        let seed = g.range(0u64..10_000);
        let (p, t) = profile_and_target(seed, 50, 100);
        let mut c = WorkCounters::default();
        let r = banded_viterbi(
            &p,
            t.codes(),
            Band {
                diag: 10,
                half_width: 12,
            },
            &mut c,
        );
        if let Some(a) = r.alignment {
            assert!(a.is_monotonic());
            for &(q, ti) in &a.pairs {
                assert!((q as usize) < p.len());
                assert!((ti as usize) < t.len());
            }
        }
    });
}

#[test]
fn msv_cell_count_exact() {
    run("msv_cell_count_exact", Config::cases(48), |g| {
        let seed = g.range(0u64..10_000);
        let qlen = g.range(5usize..50);
        let tlen = g.range(5usize..120);
        let (p, t) = profile_and_target(seed, qlen, tlen);
        let mut c = WorkCounters::default();
        msv_scan(&p, t.codes(), &mut c);
        assert_eq!(c.ssv_cells, (qlen * tlen) as u64);
    });
}

#[test]
fn msv_at_least_ssv() {
    run("msv_at_least_ssv", Config::cases(48), |g| {
        let seed = g.range(0u64..10_000);
        let (p, t) = profile_and_target(seed, 30, 80);
        let mut c = WorkCounters::default();
        let r = msv_scan(&p, t.codes(), &mut c);
        assert!(r.msv_bits >= r.ssv_bits - 1e-6);
        assert!(r.best_len >= 1);
        assert!(r.best_end <= t.len());
    });
}

/// The SSV/MSV filter as a Kadane scan of one diagonal at a time: the
/// reference model for the row-wise [`msv_scan`].
fn diagonal_kadane(profile: &ProfileHmm, target: &[u8]) -> MsvResult {
    #[derive(Clone, Copy)]
    struct SegBest {
        score: f32,
        diag: i64,
        end: usize,
        len: usize,
    }
    const NONE: SegBest = SegBest {
        score: f32::NEG_INFINITY,
        diag: 0,
        end: 0,
        len: 0,
    };
    let k = profile.len();
    let l = target.len();
    let mut best = NONE;
    let mut second = NONE;
    for d in -(k as i64 - 1)..=l as i64 - 1 {
        let q_start = if d < 0 { (-d) as usize } else { 0 };
        let i_start = if d < 0 { 0usize } else { d as usize };
        let len = (k - q_start).min(l - i_start);
        let mut run = 0.0f32;
        let mut run_len = 0usize;
        let mut diag_best = NONE;
        for j in 0..len {
            let s = profile.match_score(q_start + j, target[i_start + j]);
            if run <= 0.0 {
                run = s;
                run_len = 1;
            } else {
                run += s;
                run_len += 1;
            }
            if run > diag_best.score {
                diag_best = SegBest {
                    score: run,
                    diag: d,
                    end: i_start + j + 1,
                    len: run_len,
                };
            }
        }
        if diag_best.score > best.score {
            second = best;
            best = diag_best;
        } else if diag_best.score > second.score {
            second = diag_best;
        }
    }
    let entry = profile.entry();
    let ssv_bits = best.score + entry;
    let msv_bits = if second.score > 0.0 {
        ssv_bits + (second.score + entry).max(0.0) * 0.7
    } else {
        ssv_bits
    };
    MsvResult {
        ssv_bits,
        msv_bits,
        best_diag: best.diag,
        best_end: best.end,
        best_len: best.len,
    }
}

/// Residue codes of one of four shapes: background, sticky Markov
/// (low complexity), a homopolymer (poly-Q for proteins), or uniform
/// over every code including the ambiguity code.
fn codes(g: &mut afsb_rt::check::Gen, kind: MoleculeKind, len: usize) -> Vec<u8> {
    let dim = Alphabet::for_kind(kind).len() as u8 + 1;
    match g.range(0u32..4) {
        0 => background_sequence("s", kind, len, g.rng())
            .codes()
            .to_vec(),
        1 => {
            let stickiness = g.range(0.8f64..0.97);
            markov_sequence("s", kind, len, stickiness, g.rng())
                .codes()
                .to_vec()
        }
        2 => {
            let alphabet = Alphabet::for_kind(kind);
            let residue = if kind == MoleculeKind::Protein {
                'Q'
            } else {
                'A'
            };
            vec![alphabet.encode(residue).unwrap(); len]
        }
        _ => (0..len).map(|_| g.range(0..dim)).collect(),
    }
}

#[test]
fn row_wise_msv_equals_the_diagonal_kadane_bit_for_bit() {
    run(
        "row_wise_msv_equals_the_diagonal_kadane_bit_for_bit",
        Config::cases(384),
        |g| {
            let kind = *g.pick(&[MoleculeKind::Protein, MoleculeKind::Rna]);
            let k = if g.range(0u32..6) == 0 {
                1
            } else {
                g.range(1usize..90)
            };
            let profile = if g.bool() {
                let query = Sequence::from_codes("q", kind, codes(g, kind, k));
                ProfileHmm::from_query(&query, &SubstitutionMatrix::for_kind(kind))
            } else {
                let n = Alphabet::for_kind(kind).len();
                let counts: Vec<Vec<f64>> = (0..k)
                    .map(|_| (0..n).map(|_| g.range(0.0f64..20.0)).collect())
                    .collect();
                ProfileHmm::from_column_counts("cols", kind, &counts)
            };
            let l = match g.range(0u32..8) {
                0 => 0,
                1 => 1,
                _ => g.range(1usize..180),
            };
            let target = if l == 0 {
                Vec::new()
            } else {
                codes(g, kind, l)
            };
            let mut c = WorkCounters::default();
            let got = msv_scan(&profile, &target, &mut c);
            let want = diagonal_kadane(&profile, &target);
            let case = format!("{kind:?} K={k} L={l}");
            assert_eq!(got.ssv_bits.to_bits(), want.ssv_bits.to_bits(), "{case}");
            assert_eq!(got.msv_bits.to_bits(), want.msv_bits.to_bits(), "{case}");
            assert_eq!(got.best_diag, want.best_diag, "{case}");
            assert_eq!(got.best_end, want.best_end, "{case}");
            assert_eq!(got.best_len, want.best_len, "{case}");
            assert_eq!(c.ssv_cells, (k * l) as u64, "{case}");
        },
    );
}

#[test]
fn gumbel_survival_monotone() {
    run("gumbel_survival_monotone", Config::cases(48), |g| {
        let mu = g.range(-20.0f64..20.0);
        let lambda = g.range(0.1f64..3.0);
        let a = g.range(-50.0f64..50.0);
        let delta = g.range(0.0f64..50.0);
        let fit = GumbelFit { lambda, mu };
        let pa = fit.survival(a);
        let pb = fit.survival(a + delta);
        assert!(pb <= pa + 1e-12);
        assert!((0.0..=1.0).contains(&pa));
    });
}

#[test]
fn evalue_linear_in_database_size() {
    run("evalue_linear_in_database_size", Config::cases(48), |g| {
        let score = g.range(-5.0f64..60.0);
        let n = g.range(1u64..1_000_000);
        let fit = GumbelFit {
            lambda: 0.67,
            mu: 6.0,
        };
        let e1 = fit.evalue(score, n);
        let e2 = fit.evalue(score, 2 * n);
        assert!((e2 - 2.0 * e1).abs() <= 1e-9 * e1.max(1.0));
    });
}
