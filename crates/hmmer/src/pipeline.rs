//! The staged acceleration pipeline: SSV/MSV → bias → banded Viterbi →
//! Forward.
//!
//! Mirrors HMMER3's filter cascade: the cheap ungapped scan rejects the
//! overwhelming majority of the database; survivors pass through
//! progressively more expensive stages gated by P-value thresholds
//! (`F1`/`F2`/`F3`). P-values come from per-profile Gumbel calibration
//! against background sequences.
//!
//! The paper's `promo` pathology emerges here mechanistically: a
//! low-complexity (poly-Q) query inflates SSV scores on repetitive decoys,
//! so many more candidates survive into the expensive stages *and then
//! fail* — each one is an "ambiguous partial alignment that still must be
//! scored and filtered" (§IV-B), counted in
//! [`WorkCounters::rescans`](crate::counters::WorkCounters::rescans).

use crate::banded::{banded_viterbi, Band};
use crate::counters::WorkCounters;
use crate::dp;
use crate::evalue::GumbelFit;
use crate::hits::Hit;
use crate::msv::msv_scan;
use crate::profile::ProfileHmm;
use crate::substitution::SubstitutionMatrix;
use afsb_seq::complexity;
use afsb_seq::generate::{background_sequence, rng_for};
use afsb_seq::sequence::Sequence;

/// Pipeline stage thresholds and parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// MSV-stage P-value threshold (HMMER default 0.02).
    pub f1: f64,
    /// Viterbi-stage P-value threshold (HMMER default 1e-3).
    pub f2: f64,
    /// Forward-stage P-value threshold (HMMER default 1e-5).
    pub f3: f64,
    /// Half-width of the Viterbi band around the best SSV diagonal.
    pub band_half_width: usize,
    /// Whether the composition-bias correction runs before F1.
    pub bias_filter: bool,
    /// Calibration sample count.
    pub calibration_samples: usize,
    /// Calibration target length.
    pub calibration_target_len: usize,
    /// Calibration RNG seed.
    pub seed: u64,
}

impl Default for PipelineConfig {
    fn default() -> PipelineConfig {
        PipelineConfig {
            f1: 0.02,
            f2: 1e-3,
            f3: 1e-5,
            band_half_width: 16,
            bias_filter: true,
            calibration_samples: 160,
            calibration_target_len: 224,
            seed: 0x5eed,
        }
    }
}

impl PipelineConfig {
    /// Check the thresholds and the calibration budget before anything
    /// is scored, returning an error that names the offending field (a
    /// calibration with fewer than 8 samples would otherwise run to the
    /// end before the Gumbel fit rejects it).
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in [("f1", self.f1), ("f2", self.f2), ("f3", self.f3)] {
            if !(p > 0.0 && p <= 1.0) {
                return Err(format!(
                    "pipeline: {name} must be a P-value in (0, 1], got {p}"
                ));
            }
        }
        if self.calibration_samples < 8 {
            return Err(format!(
                "pipeline: calibration_samples must be at least 8, got {}",
                self.calibration_samples
            ));
        }
        if self.calibration_target_len == 0 {
            return Err("pipeline: calibration_target_len must be at least 1".to_owned());
        }
        Ok(())
    }
}

/// A calibrated search pipeline for one profile.
#[derive(Debug, Clone)]
pub struct Pipeline {
    profile: ProfileHmm,
    config: PipelineConfig,
    ssv_fit: GumbelFit,
    vit_fit: GumbelFit,
    fwd_fit: GumbelFit,
}

impl Pipeline {
    /// Build and calibrate a pipeline for `profile`.
    ///
    /// Calibration scores `config.calibration_samples` background
    /// sequences through every stage and fits a Gumbel per stage. The work
    /// is *not* charged to search counters (HMMER calibrates offline too).
    ///
    /// # Panics
    ///
    /// Panics with [`PipelineConfig::validate`]'s message if the
    /// configuration is invalid.
    pub fn new(profile: ProfileHmm, config: PipelineConfig) -> Pipeline {
        if let Err(e) = config.validate() {
            panic!("{e}");
        }
        let mut rng = rng_for("pipeline-calibration", config.seed);
        let mut scratch = WorkCounters::default();
        let mut ssv_scores = Vec::with_capacity(config.calibration_samples);
        let mut vit_scores = Vec::with_capacity(config.calibration_samples);
        let mut fwd_scores = Vec::with_capacity(config.calibration_samples);
        for i in 0..config.calibration_samples {
            let target = background_sequence(
                format!("calib{i}"),
                profile.kind(),
                config.calibration_target_len,
                &mut rng,
            );
            let m = msv_scan(&profile, target.codes(), &mut scratch);
            ssv_scores.push(m.msv_bits);
            let band = Band {
                diag: m.best_diag,
                half_width: config.band_half_width,
            };
            let v = banded_viterbi(&profile, target.codes(), band, &mut scratch);
            vit_scores.push(v.score_bits.max(-30.0));
            fwd_scores.push(dp::forward_score(&profile, target.codes(), &mut scratch));
        }
        Pipeline {
            profile,
            config,
            ssv_fit: GumbelFit::fit(&ssv_scores),
            vit_fit: GumbelFit::fit(&vit_scores),
            fwd_fit: GumbelFit::fit(&fwd_scores),
        }
    }

    /// Build and calibrate round 1's pipeline for `query`: its
    /// single-query profile, scored with the substitution matrix of the
    /// query's kind. Both search drivers take this pipeline for their
    /// first round instead of calibrating it themselves, so a caller
    /// that searches one query against several databases calibrates it
    /// once.
    ///
    /// # Panics
    ///
    /// Panics if the query's kind has no substitution matrix, or as
    /// [`Pipeline::new`] does.
    pub fn for_query(query: &Sequence, config: PipelineConfig) -> Pipeline {
        Pipeline::new(query_profile(query), config)
    }

    /// Whether this is [`Pipeline::for_query`]'s pipeline for `query`
    /// and `config`: the same profile and configuration, hence the same
    /// calibration.
    pub fn is_for_query(&self, query: &Sequence, config: &PipelineConfig) -> bool {
        self.config == *config && self.profile == query_profile(query)
    }

    /// The profile being searched.
    pub fn profile(&self) -> &ProfileHmm {
        &self.profile
    }

    /// The configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The calibrated MSV-stage score statistics.
    pub fn ssv_fit(&self) -> &GumbelFit {
        &self.ssv_fit
    }

    /// Composition-bias correction (bits) for a target: repetitive
    /// (low-entropy) targets are penalized, approximating HMMER's bias
    /// filter. Costs a linear pass, charged as MSV cells.
    fn bias_bits(&self, target: &Sequence, counters: &mut WorkCounters) -> f32 {
        counters.msv_cells += target.len() as u64;
        let h = complexity::shannon_entropy(target.codes());
        let full = if self.profile.kind().is_polymer() {
            (target.alphabet().len() as f64).log2()
        } else {
            4.32
        };
        ((full - h).max(0.0) * 1.2) as f32
    }

    /// Scan one target through the full cascade.
    ///
    /// `n_db` is the database size used for E-values. Returns a [`Hit`]
    /// when every stage passes.
    pub fn scan(&self, target: &Sequence, n_db: u64, counters: &mut WorkCounters) -> Option<Hit> {
        // Stage 1: SSV/MSV ungapped filter.
        let m = msv_scan(&self.profile, target.codes(), counters);
        let mut score = m.msv_bits;
        if self.config.bias_filter {
            score -= self.bias_bits(target, counters);
        }
        let p1 = self.ssv_fit.survival(f64::from(score));
        if p1 > self.config.f1 {
            return None;
        }
        counters.ssv_survivors += 1;
        counters.msv_survivors += 1;

        // Stage 2: banded Viterbi around the SSV diagonal. The candidate
        // window is re-read from the record buffer: a rescan.
        counters.rescans += 1;
        counters.rescan_bytes += target.len() as u64;
        let band = Band {
            diag: m.best_diag,
            half_width: self.config.band_half_width,
        };
        let v = banded_viterbi(&self.profile, target.codes(), band, counters);
        let p2 = self.vit_fit.survival(f64::from(v.score_bits));
        if p2 > self.config.f2 {
            return None; // ambiguous partial match, scored then dropped
        }
        counters.viterbi_survivors += 1;

        // Stage 3: full Forward rescoring.
        let f = dp::forward_score(&self.profile, target.codes(), counters);
        let p3 = self.fwd_fit.survival(f64::from(f));
        if p3 > self.config.f3 {
            return None;
        }
        let alignment = v.alignment?;
        counters.hits += 1;
        Some(Hit {
            target_id: target.id().to_owned(),
            score_bits: f,
            evalue: self.fwd_fit.evalue(f64::from(f), n_db),
            alignment,
        })
    }
}

/// Round 1's profile of `query`.
fn query_profile(query: &Sequence) -> ProfileHmm {
    ProfileHmm::from_query(query, &SubstitutionMatrix::for_kind(query.kind()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use afsb_seq::alphabet::MoleculeKind;
    use afsb_seq::generate::{insert_homopolymer, mutate_homolog};

    fn pipeline_for(query: &Sequence) -> Pipeline {
        let profile = ProfileHmm::from_query(query, &SubstitutionMatrix::blosum62());
        Pipeline::new(
            profile,
            PipelineConfig {
                calibration_samples: 80,
                calibration_target_len: 128,
                ..PipelineConfig::default()
            },
        )
    }

    fn query(seed: u64, len: usize) -> Sequence {
        let mut rng = rng_for("plq", seed);
        background_sequence("q", MoleculeKind::Protein, len, &mut rng)
    }

    /// Assert that `set` makes the default config invalid with an error
    /// naming `field`, for every value in `bad`.
    fn rejects<T: Copy + std::fmt::Debug>(field: &str, bad: &[T], set: fn(&mut PipelineConfig, T)) {
        for &v in bad {
            let mut config = PipelineConfig::default();
            set(&mut config, v);
            let err = config.validate().expect_err(field);
            assert!(err.contains(field), "{field} = {v:?}: {err}");
        }
    }

    const BAD_P: [f64; 5] = [0.0, -0.1, 1.5, f64::NAN, f64::INFINITY];

    #[test]
    fn validate_accepts_the_defaults_and_a_p_value_of_one() {
        assert_eq!(PipelineConfig::default().validate(), Ok(()));
        let edge = PipelineConfig {
            f1: 1.0,
            calibration_samples: 8,
            calibration_target_len: 1,
            ..PipelineConfig::default()
        };
        assert_eq!(edge.validate(), Ok(()));
    }

    #[test]
    fn validate_names_f1() {
        rejects("f1", &BAD_P, |c, v| c.f1 = v);
    }

    #[test]
    fn validate_names_f2() {
        rejects("f2", &BAD_P, |c, v| c.f2 = v);
    }

    #[test]
    fn validate_names_f3() {
        rejects("f3", &BAD_P, |c, v| c.f3 = v);
    }

    #[test]
    fn validate_names_calibration_samples() {
        rejects("calibration_samples", &[0, 1, 7], |c, v| {
            c.calibration_samples = v
        });
    }

    #[test]
    fn validate_names_calibration_target_len() {
        rejects("calibration_target_len", &[0], |c, v| {
            c.calibration_target_len = v
        });
    }

    #[test]
    #[should_panic(expected = "calibration_samples must be at least 8")]
    fn new_panics_before_calibrating_with_too_few_samples() {
        let profile = ProfileHmm::from_query(&query(9, 20), &SubstitutionMatrix::blosum62());
        Pipeline::new(
            profile,
            PipelineConfig {
                calibration_samples: 7,
                ..PipelineConfig::default()
            },
        );
    }

    #[test]
    fn homolog_reported_random_rejected() {
        let q = query(1, 90);
        let p = pipeline_for(&q);
        let mut rng = rng_for("plt", 2);
        let hom = mutate_homolog(&q, "hom", 0.85, 0.01, &mut rng);
        let rnd = background_sequence("rnd", MoleculeKind::Protein, 90, &mut rng);
        let mut c = WorkCounters::default();
        let hit = p.scan(&hom, 1000, &mut c);
        assert!(hit.is_some(), "homolog must be reported");
        let hit = hit.unwrap();
        assert!(hit.evalue < 1e-3, "evalue {}", hit.evalue);
        assert!(hit.alignment.matches() > 40);
        assert!(
            p.scan(&rnd, 1000, &mut c).is_none(),
            "decoy must be rejected"
        );
        assert_eq!(c.hits, 1);
    }

    #[test]
    fn most_background_rejected_at_stage_one() {
        let q = query(3, 80);
        let p = pipeline_for(&q);
        let mut rng = rng_for("plt", 4);
        let mut c = WorkCounters::default();
        let n = 150;
        for i in 0..n {
            let t = background_sequence(format!("t{i}"), MoleculeKind::Protein, 150, &mut rng);
            p.scan(&t, 1000, &mut c);
        }
        // F1 = 0.02: expect ~3 survivors out of 150, allow slack.
        assert!(
            c.msv_survivors <= 12,
            "too many stage-1 survivors: {}",
            c.msv_survivors
        );
        assert_eq!(c.hits, 0);
        // SSV cells dominate the work profile.
        assert!(c.ssv_cells > c.band_cells_mi * 3);
    }

    #[test]
    fn poly_q_query_inflates_survivors_and_rescans() {
        // A diverse query vs. the same query with a poly-Q insertion,
        // scanned over a decoy set containing sticky (repetitive) decoys.
        let base = query(5, 120);
        let poly = insert_homopolymer(&base, 60, 'Q', 48);
        let p_base = pipeline_for(&base);
        let p_poly = pipeline_for(&poly);
        let mut rng = rng_for("plt", 6);
        let mut decoys = Vec::new();
        for i in 0..120 {
            let t = if i % 3 == 0 {
                afsb_seq::generate::markov_sequence(
                    format!("sticky{i}"),
                    MoleculeKind::Protein,
                    160,
                    0.8,
                    &mut rng,
                )
            } else {
                background_sequence(format!("bg{i}"), MoleculeKind::Protein, 160, &mut rng)
            };
            decoys.push(t);
        }
        let mut c_base = WorkCounters::default();
        let mut c_poly = WorkCounters::default();
        for t in &decoys {
            p_base.scan(t, 1000, &mut c_base);
            p_poly.scan(t, 1000, &mut c_poly);
        }
        assert!(
            c_poly.rescans > c_base.rescans,
            "poly-Q rescans {} must exceed baseline {}",
            c_poly.rescans,
            c_base.rescans
        );
        assert!(c_poly.band_cells_mi > c_base.band_cells_mi);
    }

    #[test]
    fn bias_filter_suppresses_some_survivors() {
        let base = query(7, 100);
        let poly = insert_homopolymer(&base, 50, 'Q', 40);
        let profile = ProfileHmm::from_query(&poly, &SubstitutionMatrix::blosum62());
        let mk = |bias: bool| {
            Pipeline::new(
                profile.clone(),
                PipelineConfig {
                    bias_filter: bias,
                    calibration_samples: 80,
                    calibration_target_len: 128,
                    ..PipelineConfig::default()
                },
            )
        };
        let with_bias = mk(true);
        let without = mk(false);
        let mut rng = rng_for("plt", 8);
        let mut c_with = WorkCounters::default();
        let mut c_without = WorkCounters::default();
        for i in 0..100 {
            let t = afsb_seq::generate::markov_sequence(
                format!("s{i}"),
                MoleculeKind::Protein,
                140,
                0.85,
                &mut rng,
            );
            with_bias.scan(&t, 1000, &mut c_with);
            without.scan(&t, 1000, &mut c_without);
        }
        assert!(
            c_with.msv_survivors <= c_without.msv_survivors,
            "bias filter must not increase survivors ({} vs {})",
            c_with.msv_survivors,
            c_without.msv_survivors
        );
    }
}
