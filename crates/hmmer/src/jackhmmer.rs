//! Iterative protein search (`jackhmmer` driver).
//!
//! Round 1 searches with a single-query profile; hits below the inclusion
//! E-value are stacked into an MSA, a new profile is estimated from the
//! MSA's column counts, and the database is searched again. Iteration
//! stops at convergence (no new included targets) or the round limit.
//! This is the tool the AF3 MSA phase runs once per protein chain per
//! database, and the paper's dominant cycle consumer.

use crate::counters::WorkCounters;
use crate::hits::Hit;
use crate::msa::Msa;
use crate::pipeline::{Pipeline, PipelineConfig};
use crate::profile::ProfileHmm;
use crate::search::search_database;
use afsb_seq::alphabet::MoleculeKind;
use afsb_seq::database::SequenceDatabase;
use afsb_seq::sequence::Sequence;
use std::collections::HashMap;

/// Bytes of paper-scale peak memory per GiB constant parts (see
/// [`paper_peak_bytes`]).
const GIB_F: f64 = (1u64 << 30) as f64;

/// jackhmmer configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JackhmmerConfig {
    /// Maximum search rounds (AF3 uses few iterations; default 2).
    pub max_iterations: usize,
    /// Inclusion E-value for MSA membership.
    pub inclusion_evalue: f64,
    /// Filter pipeline parameters.
    pub pipeline: PipelineConfig,
}

impl Default for JackhmmerConfig {
    fn default() -> JackhmmerConfig {
        JackhmmerConfig {
            max_iterations: 2,
            inclusion_evalue: 1e-3,
            pipeline: PipelineConfig::default(),
        }
    }
}

/// Result of a jackhmmer run.
#[derive(Debug, Clone)]
pub struct JackhmmerResult {
    /// The final MSA (query row first).
    pub msa: Msa,
    /// Final-round hits, sorted by E-value.
    pub hits: Vec<Hit>,
    /// Aggregate counters over all rounds: work sums, and since the
    /// rounds run one after another, the peak is the largest round's.
    pub counters: WorkCounters,
    /// Rounds actually executed.
    pub iterations_run: usize,
}

/// Run jackhmmer for a protein query against a database.
///
/// Round 1 searches with `round1`, the query's calibrated
/// [`Pipeline::for_query`] pipeline, which a caller searching several
/// databases builds once and lends to each search; every later round
/// calibrates the profile re-estimated from the previous round's MSA.
///
/// # Panics
///
/// Panics if the query is not a protein, `max_iterations == 0`, or
/// `round1` was not built for this query and `config.pipeline`.
pub fn run(
    query: &Sequence,
    db: &SequenceDatabase,
    config: &JackhmmerConfig,
    round1: &Pipeline,
) -> JackhmmerResult {
    assert_eq!(
        query.kind(),
        MoleculeKind::Protein,
        "jackhmmer searches proteins"
    );
    assert!(config.max_iterations > 0, "need at least one iteration");
    assert!(
        round1.is_for_query(query, &config.pipeline),
        "round-1 pipeline was built for another query or configuration"
    );

    let by_id: HashMap<&str, &Sequence> = db.sequences().iter().map(|s| (s.id(), s)).collect();
    let mut counters = WorkCounters::default();
    let mut included = Vec::new();
    let mut later: Option<Pipeline> = None;

    for round in 0..config.max_iterations {
        let result = search_database(later.as_ref().unwrap_or(round1), db);
        counters.merge(&result.counters);

        let mut msa = Msa::seed(query);
        let mut new_included = Vec::new();
        for hit in &result.hits {
            if hit.evalue <= config.inclusion_evalue {
                if let Some(target) = by_id.get(hit.target_id.as_str()) {
                    msa.add_aligned_row(hit, target);
                    new_included.push(hit.target_id.clone());
                }
            }
        }
        let converged = new_included == included;
        included = new_included;

        if converged || round + 1 == config.max_iterations {
            return JackhmmerResult {
                msa,
                hits: result.hits,
                counters,
                iterations_run: round + 1,
            };
        }
        // Re-estimate the profile from the MSA for the next round.
        let profile = ProfileHmm::from_column_counts(
            format!("{}-r{}", query.id(), round + 2),
            query.kind(),
            &msa.column_counts(),
        );
        later = Some(Pipeline::new(profile, config.pipeline));
    }
    unreachable!("loop always returns");
}

/// Paper-scale peak memory model for a protein jackhmmer search.
///
/// Calibrated to §III-C: a 1,000-residue chain peaked at ~0.23 GiB single-
/// threaded and ~0.9 GiB at 8 threads; 2,000 residues at 8 threads used
/// ~1.7 GiB. The model is `(shared + threads · per_thread) · L/1000` with
/// `shared = 0.134 GiB`, `per_thread = 0.096 GiB`.
pub fn paper_peak_bytes(query_len: usize, threads: usize) -> u64 {
    let scale = query_len as f64 / 1000.0;
    ((0.134 + 0.096 * threads as f64) * scale * GIB_F) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use afsb_seq::database::DatabaseSpec;
    use afsb_seq::generate::{background_sequence, rng_for};

    fn setup() -> (Sequence, SequenceDatabase) {
        let mut rng = rng_for("jh", 1);
        let query = background_sequence("q", MoleculeKind::Protein, 60, &mut rng);
        let spec = DatabaseSpec {
            num_decoys: 100,
            family_size: 8,
            ..DatabaseSpec::tiny(MoleculeKind::Protein)
        };
        let db = SequenceDatabase::build_with_queries(spec, std::slice::from_ref(&query));
        (query, db)
    }

    fn fast_config() -> JackhmmerConfig {
        JackhmmerConfig {
            pipeline: PipelineConfig {
                calibration_samples: 60,
                calibration_target_len: 100,
                ..PipelineConfig::default()
            },
            ..JackhmmerConfig::default()
        }
    }

    #[test]
    fn builds_msa_from_planted_family() {
        let (query, db) = setup();
        let config = fast_config();
        let r = run(
            &query,
            &db,
            &config,
            &Pipeline::for_query(&query, config.pipeline),
        );
        assert!(r.msa.depth() >= 4, "MSA depth {}", r.msa.depth());
        assert_eq!(r.msa.columns(), 60);
        assert!(r.iterations_run >= 1 && r.iterations_run <= 2);
        assert!(r.counters.db_sequences >= db.len() as u64);
    }

    #[test]
    fn second_iteration_deepens_or_maintains_msa() {
        let (query, db) = setup();
        let pipeline = Pipeline::for_query(&query, fast_config().pipeline);
        let one = run(
            &query,
            &db,
            &JackhmmerConfig {
                max_iterations: 1,
                ..fast_config()
            },
            &pipeline,
        );
        let two = run(&query, &db, &fast_config(), &pipeline);
        assert!(
            two.msa.depth() >= one.msa.depth(),
            "iteration 2 depth {} < iteration 1 depth {}",
            two.msa.depth(),
            one.msa.depth()
        );
    }

    #[test]
    fn a_two_round_run_peaks_at_its_larger_round() {
        let (query, db) = setup();
        let config = fast_config();
        let pipeline = Pipeline::for_query(&query, config.pipeline);
        let two = run(&query, &db, &config, &pipeline);
        assert_eq!(two.iterations_run, 2, "the planted family needs round 2");
        let one = run(
            &query,
            &db,
            &JackhmmerConfig {
                max_iterations: 1,
                ..config
            },
            &pipeline,
        );
        // Round 2 searches with the profile re-estimated from round 1's MSA.
        let profile = ProfileHmm::from_column_counts(
            format!("{}-r2", query.id()),
            query.kind(),
            &one.msa.column_counts(),
        );
        let round1 = one.counters;
        let round2 = search_database(&Pipeline::new(profile, config.pipeline), &db).counters;
        assert!(round1.peak_state_bytes > 0 && round2.peak_state_bytes > 0);
        assert_eq!(
            two.counters.peak_state_bytes,
            round1.peak_state_bytes.max(round2.peak_state_bytes)
        );
        assert_eq!(
            two.counters.db_sequences,
            round1.db_sequences + round2.db_sequences
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let (query, db) = setup();
        let pipeline = Pipeline::for_query(&query, fast_config().pipeline);
        let a = run(&query, &db, &fast_config(), &pipeline);
        let b = run(&query, &db, &fast_config(), &pipeline);
        let ids_a: Vec<&str> = a.hits.iter().map(|h| h.target_id.as_str()).collect();
        let ids_b: Vec<&str> = b.hits.iter().map(|h| h.target_id.as_str()).collect();
        assert_eq!(ids_a, ids_b);
        assert_eq!(a.msa.depth(), b.msa.depth());
        assert_eq!(a.counters, b.counters);
    }

    #[test]
    #[should_panic(expected = "round-1 pipeline was built for another query or configuration")]
    fn a_pipeline_for_another_query_is_refused() {
        let (query, db) = setup();
        let mut rng = rng_for("jh", 2);
        let other = background_sequence("q", MoleculeKind::Protein, 60, &mut rng);
        let config = fast_config();
        run(
            &query,
            &db,
            &config,
            &Pipeline::for_query(&other, config.pipeline),
        );
    }

    #[test]
    #[should_panic(expected = "round-1 pipeline was built for another query or configuration")]
    fn a_pipeline_for_another_config_is_refused() {
        let (query, db) = setup();
        let config = fast_config();
        let looser = JackhmmerConfig {
            pipeline: PipelineConfig {
                f1: 0.05,
                ..config.pipeline
            },
            ..config
        };
        run(
            &query,
            &db,
            &config,
            &Pipeline::for_query(&query, looser.pipeline),
        );
    }

    #[test]
    fn paper_memory_model_matches_section_iii_c() {
        let gib = |b: u64| b as f64 / (1u64 << 30) as f64;
        // 1,000 residues, 1 thread: ~0.23 GiB.
        assert!((gib(paper_peak_bytes(1000, 1)) - 0.23).abs() < 0.02);
        // 1,000 residues, 8 threads: ~0.9 GiB.
        assert!((gib(paper_peak_bytes(1000, 8)) - 0.9).abs() < 0.05);
        // 2,000 residues, 8 threads: ~1.7–1.8 GiB.
        let g = gib(paper_peak_bytes(2000, 8));
        assert!((1.6..=1.9).contains(&g), "2k@8T = {g}");
    }
}
