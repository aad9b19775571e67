//! Device comparison: the same search on the Tesla C1060 (GT200), the
//! Tesla C2050 (Fermi) and the C2050 with its L1/L2 caches disabled — the
//! configuration of the paper's Figure 6 — plus the SWPS3-style CPU
//! baseline for reference.
//!
//! ```sh
//! cargo run --release --example gpu_comparison
//! ```

use cudasw_core::{CudaSwConfig, CudaSwDriver};
use gpu_sim::DeviceSpec;
use sw_align::SwParams;
use sw_db::catalog::PaperDb;
use sw_db::synth::make_query;
use sw_simd::{search_sequences, Precision, QueryEngine};

fn main() {
    let db = PaperDb::Swissprot.generate(1_200, 3);
    let query = make_query(464, 9);
    println!(
        "query 464 vs {} sequences ({} cells)\n",
        db.len(),
        db.total_cells(query.len())
    );

    println!(
        "{:<28} {:>10} {:>9} {:>12} {:>12}",
        "configuration", "sim ms", "GCUPs", "L1/tex hits", "L2 hits"
    );
    let mut reference_scores: Option<Vec<i32>> = None;
    for (label, spec, cfg) in [
        (
            "C1060 / original kernel",
            DeviceSpec::tesla_c1060(),
            CudaSwConfig::original(),
        ),
        (
            "C1060 / improved kernel",
            DeviceSpec::tesla_c1060(),
            CudaSwConfig::improved(),
        ),
        (
            "C2050 / original kernel",
            DeviceSpec::tesla_c2050(),
            CudaSwConfig::original(),
        ),
        (
            "C2050 / improved kernel",
            DeviceSpec::tesla_c2050(),
            CudaSwConfig::improved(),
        ),
        (
            "C2050 caches off / orig",
            DeviceSpec::tesla_c2050_caches_off(),
            CudaSwConfig::original(),
        ),
        (
            "C2050 caches off / impr",
            DeviceSpec::tesla_c2050_caches_off(),
            CudaSwConfig::improved(),
        ),
    ] {
        let mut driver = CudaSwDriver::new(spec, cfg);
        let r = driver.search(&query, &db).expect("search");
        let mem = driver.dev.memory_stats();
        println!(
            "{label:<28} {:>10.3} {:>9.2} {:>12} {:>12}",
            r.kernel_seconds() * 1e3,
            r.gcups(),
            mem.l1.hits + mem.tex_cache.hits,
            mem.l2.hits + mem.tex_l2_stats.hits,
        );
        match &reference_scores {
            None => reference_scores = Some(r.scores),
            Some(expected) => assert_eq!(&r.scores, expected, "{label} diverged"),
        }
    }

    // CPU baseline: real wall-clock throughput of the striped kernel.
    let engine = QueryEngine::new(SwParams::cudasw_default(), &query);
    let r = search_sequences(&engine, db.sequences(), 4, Precision::Adaptive);
    println!(
        "{:<28} {:>10.3} {:>9.2}   (host-measured, {}, up to 4 threads)",
        "SWPS3-style CPU baseline",
        r.seconds * 1e3,
        db.total_cells(query.len()) as f64 / r.seconds / 1.0e9,
        engine.kind()
    );
    assert_eq!(
        &r.scores,
        reference_scores.as_ref().unwrap(),
        "CPU and GPU paths must agree"
    );
    println!("\nall configurations produced identical optimal scores.");
}
