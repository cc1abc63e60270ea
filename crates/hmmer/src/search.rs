//! Database search: one buffered pass over the records.
//!
//! A search reads its records in order through one [`BufferedDbReader`],
//! counts the pass's work in one [`WorkCounters`] block and returns its
//! hits sorted by E-value. It has no worker pool: the MSA phase runs
//! whole searches side by side on the host (`afsb-core`'s
//! `BenchContext`), and the simulator's thread programs split each
//! search's counters evenly across simulated threads
//! (`afsb-core::msa_cost`).

use crate::counters::WorkCounters;
use crate::hits::Hit;
use crate::io_model::BufferedDbReader;
use crate::pipeline::Pipeline;
use afsb_seq::database::SequenceDatabase;
use afsb_seq::sequence::Sequence;

/// Result of a database search.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// All reported hits, sorted by ascending E-value (ties by id).
    pub hits: Vec<Hit>,
    /// The pass's work counters.
    pub counters: WorkCounters,
}

/// Search a database.
pub fn search_database(pipeline: &Pipeline, db: &SequenceDatabase) -> SearchResult {
    search_records(pipeline, db.sequences())
}

/// Search an arbitrary record list (used by nhmmer's windowed scan).
pub fn search_records(pipeline: &Pipeline, records: &[Sequence]) -> SearchResult {
    let n_db = records.len() as u64;
    let mut counters = WorkCounters::default();
    let mut reader = BufferedDbReader::new(records);
    let mut hits = Vec::new();
    while let Some(seq) = reader.next_record(&mut counters) {
        if let Some(hit) = pipeline.scan(seq, n_db, &mut counters) {
            hits.push(hit);
        }
    }
    hits.sort_by(Hit::compare);
    SearchResult { hits, counters }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PipelineConfig;
    use crate::profile::ProfileHmm;
    use crate::substitution::SubstitutionMatrix;
    use afsb_seq::alphabet::MoleculeKind;
    use afsb_seq::database::DatabaseSpec;
    use afsb_seq::generate::{background_sequence, rng_for};

    fn setup() -> (Pipeline, SequenceDatabase) {
        let mut rng = rng_for("search", 1);
        let query = background_sequence("q", MoleculeKind::Protein, 70, &mut rng);
        let spec = DatabaseSpec {
            num_decoys: 120,
            family_size: 6,
            ..DatabaseSpec::tiny(MoleculeKind::Protein)
        };
        let db = SequenceDatabase::build_with_queries(spec, std::slice::from_ref(&query));
        let profile = ProfileHmm::from_query(&query, &SubstitutionMatrix::blosum62());
        let pipeline = Pipeline::new(
            profile,
            PipelineConfig {
                calibration_samples: 60,
                calibration_target_len: 120,
                ..PipelineConfig::default()
            },
        );
        (pipeline, db)
    }

    #[test]
    fn finds_planted_family() {
        let (pipeline, db) = setup();
        let result = search_database(&pipeline, &db);
        // At least the close family members must be found.
        assert!(
            result.hits.len() >= 3,
            "expected planted hits, got {}",
            result.hits.len()
        );
        assert!(result.hits.iter().all(|h| h.target_id.contains("fam")));
        // Sorted by E-value.
        for w in result.hits.windows(2) {
            assert!(w[0].evalue <= w[1].evalue);
        }
    }

    #[test]
    fn one_pass_reads_every_record_once() {
        let (pipeline, db) = setup();
        let r = search_database(&pipeline, &db);
        let n = db.len() as u64;
        assert_eq!(r.counters.db_sequences, n);
        assert_eq!(r.counters.buffer_peeks, n);
        let residues: usize = db.sequences().iter().map(Sequence::len).sum();
        assert_eq!(r.counters.db_residues, residues as u64);
        assert_eq!(r.counters.hits, r.hits.len() as u64);
    }

    #[test]
    fn no_records_no_work() {
        let (pipeline, _) = setup();
        let r = search_records(&pipeline, &[]);
        assert!(r.hits.is_empty());
        assert_eq!(r.counters, WorkCounters::default());
    }
}
