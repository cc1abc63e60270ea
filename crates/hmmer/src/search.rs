//! Multi-threaded database search.
//!
//! The database is split into contiguous chunks, one simulated worker per
//! chunk (matching HMMER's `--cpu` worker model and the paper's 1–8 thread
//! sweeps). Each chunk is scanned with its own [`BufferedDbReader`] and a
//! private [`WorkCounters`] block, so per-thread work attribution — the
//! basis of the simulator's thread programs — is exact. The chunks are
//! scanned concurrently on the host through [`afsb_rt::par::map_ordered`],
//! and hit merging is deterministic regardless of host thread scheduling.

use crate::counters::WorkCounters;
use crate::hits::Hit;
use crate::io_model::BufferedDbReader;
use crate::pipeline::Pipeline;
use afsb_seq::database::SequenceDatabase;
use afsb_seq::sequence::Sequence;

/// Result of a parallel database search.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// All reported hits, sorted by ascending E-value (ties by id).
    pub hits: Vec<Hit>,
    /// Per-worker counters, in chunk order.
    pub per_worker: Vec<WorkCounters>,
    /// Aggregate counters (sums; peak memory is summed across concurrent
    /// workers).
    pub total: WorkCounters,
    /// Thread count used.
    pub threads: usize,
}

impl SearchResult {
    /// Find the hit for a target id.
    pub fn hit(&self, target_id: &str) -> Option<&Hit> {
        self.hits.iter().find(|h| h.target_id == target_id)
    }
}

/// Scan one database chunk with a private counter block.
fn scan_chunk(pipeline: &Pipeline, chunk: &[Sequence], n_db: u64) -> (Vec<Hit>, WorkCounters) {
    let mut counters = WorkCounters::default();
    let mut reader = BufferedDbReader::new(chunk);
    let mut hits = Vec::new();
    while let Some(seq) = reader.next_record(&mut counters) {
        if let Some(hit) = pipeline.scan(seq, n_db, &mut counters) {
            hits.push(hit);
        }
    }
    (hits, counters)
}

/// Search a database with `threads` worker threads.
///
/// # Panics
///
/// Panics if `threads == 0`.
pub fn search_database(pipeline: &Pipeline, db: &SequenceDatabase, threads: usize) -> SearchResult {
    search_records(pipeline, db.sequences(), threads)
}

/// Search an arbitrary record list (used by nhmmer's windowed scan).
///
/// # Panics
///
/// Panics if `threads == 0`.
pub fn search_records(pipeline: &Pipeline, records: &[Sequence], threads: usize) -> SearchResult {
    assert!(threads > 0, "need at least one thread");
    let n_db = records.len() as u64;
    let chunks: Vec<&[Sequence]> = if records.is_empty() {
        Vec::new()
    } else {
        let per = records.len().div_ceil(threads);
        records.chunks(per).collect()
    };

    // Chunks come back in chunk order whatever the host's CPU count, so
    // the counter merge below is deterministic.
    let results =
        afsb_rt::par::map_ordered(chunks.len(), |c| scan_chunk(pipeline, chunks[c], n_db));

    let mut hits = Vec::new();
    let mut per_worker = Vec::with_capacity(results.len());
    let mut total = WorkCounters::default();
    for (chunk_hits, counters) in results {
        hits.extend(chunk_hits);
        total.merge_concurrent(&counters);
        per_worker.push(counters);
    }
    hits.sort_by(Hit::compare);
    SearchResult {
        hits,
        per_worker,
        total,
        threads,
    }
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
        let result = search_database(&pipeline, &db, 1);
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
    fn thread_count_does_not_change_results() {
        let (pipeline, db) = setup();
        let r1 = search_database(&pipeline, &db, 1);
        let r4 = search_database(&pipeline, &db, 4);
        let ids1: Vec<&str> = r1.hits.iter().map(|h| h.target_id.as_str()).collect();
        let ids4: Vec<&str> = r4.hits.iter().map(|h| h.target_id.as_str()).collect();
        assert_eq!(ids1, ids4);
        // Total scanned work identical.
        assert_eq!(r1.total.db_sequences, r4.total.db_sequences);
        assert_eq!(r1.total.ssv_cells, r4.total.ssv_cells);
    }

    #[test]
    fn per_worker_counters_partition_the_database() {
        let (pipeline, db) = setup();
        let r = search_database(&pipeline, &db, 4);
        assert_eq!(r.per_worker.len(), 4);
        let sum: u64 = r.per_worker.iter().map(|c| c.db_sequences).sum();
        assert_eq!(sum, db.len() as u64);
        // Chunks are near-even.
        let max = r.per_worker.iter().map(|c| c.db_sequences).max().unwrap();
        let min = r.per_worker.iter().map(|c| c.db_sequences).min().unwrap();
        assert!(
            max - min <= (db.len() as u64 / 3),
            "imbalanced: {min}..{max}"
        );
    }

    #[test]
    fn concurrent_peak_memory_sums_over_workers() {
        let (pipeline, db) = setup();
        let r1 = search_database(&pipeline, &db, 1);
        let r4 = search_database(&pipeline, &db, 4);
        assert!(
            r4.total.peak_state_bytes > r1.total.peak_state_bytes,
            "peak must grow with concurrent workers ({} vs {})",
            r4.total.peak_state_bytes,
            r1.total.peak_state_bytes
        );
    }

    #[test]
    fn worker_count_determinism_regression() {
        // The hermetic-build determinism guarantee: the same search on the
        // same records must produce identical aggregate work and identical
        // hit lists with 1, 2 and 4 workers. Two counters are intentional
        // exceptions: `peak_state_bytes` (merge_concurrent sums peaks
        // across live workers, so it grows with the worker count by
        // design) and `buffer_fills` (each worker's private reader refills
        // its own buffer, so refill boundaries depend on the chunking).
        let (pipeline, db) = setup();
        let baseline = search_database(&pipeline, &db, 1);
        for threads in [2usize, 4] {
            let r = search_database(&pipeline, &db, threads);
            let mut total = r.total;
            total.peak_state_bytes = baseline.total.peak_state_bytes;
            total.buffer_fills = baseline.total.buffer_fills;
            assert_eq!(
                total, baseline.total,
                "aggregate counters must not depend on worker count ({threads} workers)"
            );
            let base_hits: Vec<(&str, f32, f64)> = baseline
                .hits
                .iter()
                .map(|h| (h.target_id.as_str(), h.score_bits, h.evalue))
                .collect();
            let hits: Vec<(&str, f32, f64)> = r
                .hits
                .iter()
                .map(|h| (h.target_id.as_str(), h.score_bits, h.evalue))
                .collect();
            assert_eq!(
                hits, base_hits,
                "sorted hit list must not depend on worker count ({threads} workers)"
            );
        }
    }

    #[test]
    fn more_threads_than_sequences_is_fine() {
        let (pipeline, _) = setup();
        let tiny = SequenceDatabase::build(DatabaseSpec {
            num_decoys: 3,
            ..DatabaseSpec::tiny(MoleculeKind::Protein)
        });
        let r = search_database(&pipeline, &tiny, 8);
        assert!(r.per_worker.len() <= 8);
        assert_eq!(r.total.db_sequences, tiny.len() as u64);
    }
}
