//! Build a custom AF3 job from scratch — the crate as a *library*: define
//! an assembly in the AF3 JSON dialect, search it, and characterize it on
//! a platform of your choice.
//!
//! ```text
//! cargo run --release --example custom_input
//! ```

use afsysbench::core::estimator::MemoryEstimator;
use afsysbench::core::inference_phase::{run_inference_phase, InferenceOptions};
use afsysbench::hmmer::jackhmmer::{self, JackhmmerConfig};
use afsysbench::hmmer::Pipeline;
use afsysbench::model::ModelConfig;
use afsysbench::seq::database::{SequenceDatabase, StandardDb};
use afsysbench::seq::input;
use afsysbench::simarch::Platform;

const JOB: &str = r#"{
    "name": "my_dimer",
    "modelSeeds": [42],
    "sequences": [
        { "protein": { "id": ["A", "B"],
            "sequence": "MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQAPILSRVGDGTQDNLSGAEKAVQVKVKALPDAQFEVVHSLAKWKRQTLGQHDFSAGEGLYTHMKALRPDEDRLSPLHSVYVDQWDWERVMGDGERQFSTLKSTVEAIWAGIKATEAAVSEEFGLAPFLPDQIHFVHSQELLSRYPDLDAKGRERAIAKDLGAVFLVGIGGKLSDGHRHDVRAPDYDDWS" } },
        { "dna": { "id": "C", "sequence": "ATGCGTACGTTAGCCGGATTACGCTTAA" } }
    ],
    "dialect": "alphafold3",
    "version": 1
}"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Parse the AF3 job document.
    let assembly = input::parse_job(JOB)?;
    println!("parsed job: {assembly}");

    // 2. Pre-flight the memory footprint (§VI).
    let estimator = MemoryEstimator::new(8);
    let preflight = estimator.preflight(&assembly, Platform::Desktop);
    print!("{preflight}");
    assert!(preflight.safe(), "estimator must approve this small job");

    // 3. MSA: jackhmmer for the protein entity against a synthetic
    //    UniRef90 stand-in (DNA chains skip MSA, exactly as AF3 does).
    let protein = assembly.chains()[0].sequence();
    let db = SequenceDatabase::build_with_queries(
        StandardDb::Uniref90.spec(),
        std::slice::from_ref(protein),
    );
    println!("\nsearching {} sequences with jackhmmer…", db.len());
    // Round 1's calibrated pipeline; searching more databases with the
    // same query would lend each search this one pipeline.
    let config = JackhmmerConfig::default();
    let round1 = Pipeline::for_query(protein, config.pipeline);
    let result = jackhmmer::run(protein, &db, &config, &round1);
    println!(
        "  {} hits, MSA depth {}, {:.1}e9 DP cells executed",
        result.hits.len(),
        result.msa.depth(),
        result.counters.total_dp_cells() as f64 / 1e9
    );
    for hit in result.hits.iter().take(3) {
        println!("  top hit: {hit}");
    }

    // 4. Inference characterization on the Desktop.
    let inference = run_inference_phase(
        &assembly,
        Platform::Desktop,
        &InferenceOptions {
            model: ModelConfig::paper(),
            msa_depth: result.msa.depth(),
            threads: 1,
            seed: 42,
        },
    );
    println!(
        "\ninference on the RTX 4080: {:.0}s total ({:.0}% GPU compute)\n{}",
        inference.wall_seconds(),
        (1.0 - inference.breakdown.overhead_share()) * 100.0,
        inference.breakdown.timeline
    );
    Ok(())
}
