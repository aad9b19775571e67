//! Quickstart: score two protein sequences, then search a small database
//! on the simulated Tesla C1060.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use cudasw_core::{CudaSwConfig, CudaSwDriver};
use cudasw_repro::prelude::*;
use gpu_sim::DeviceSpec;
use sw_align::Alphabet;
use sw_db::{Database, Sequence};

fn main() {
    // 1. Pairwise score with the scalar reference.
    let params = SwParams::cudasw_default(); // BLOSUM62, gap open 10 / extend 2
    let query = encode_protein("MKVLAWGGSCRDWLQAHKEE").expect("valid residues");
    let target = encode_protein("MKVLWGGSCRDWAAALQAHKEE").expect("valid residues");
    let score = sw_score(&params, &query, &target);
    println!("Smith-Waterman score: {score}");

    // 2. Database search on the simulated GPU.
    let db = Database::new(
        "demo",
        Alphabet::Protein,
        vec![
            Sequence::new("exact", target.clone()),
            Sequence::new("self", query.clone()),
            Sequence::new("unrelated", encode_protein("PPPPGGGGPPPPGGGG").unwrap()),
            Sequence::new("related", encode_protein("AAMKVLAWGGSCRDWAAAAA").unwrap()),
        ],
    );
    let mut driver = CudaSwDriver::new(DeviceSpec::tesla_c1060(), CudaSwConfig::improved());
    let result = driver.search(&query, &db).expect("search succeeds");
    println!(
        "searched {} sequences, {} cells",
        db.len(),
        result.total_cells()
    );
    println!(
        "simulated GPU time: {:.3} ms",
        result.kernel_seconds() * 1e3
    );
    println!("top hits:");
    for (idx, score) in result.top_hits(3) {
        println!("  {:<10} score {}", db.sequences()[idx].id, score);
    }
}
