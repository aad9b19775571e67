//! How much of the gap to the paper's Table I is the functional runs'
//! trimmed device? One search each with the improved and the original
//! intra-task kernel on the Tesla C2050 *as shipped* — 14 SMs, 256-thread
//! blocks — over the benchmark's `device_fermi` database recipe scaled to
//! one full inter-task group (14,336 subjects below the threshold) plus
//! its seven long subjects: 1.43 × 10⁹ cells per search (the first line
//! printed), against 5 × 10⁷ on the benchmark's 4-SM × 32-thread trim.
//! Prints the two counted ratios and the wall time (EXPERIMENTS.md,
//! "Simulator host speed").
//!
//! ```sh
//! cargo run --release --offline --example untrimmed_fermi
//! ```

use cudasw_core::{CudaSwConfig, CudaSwDriver};
use gpu_sim::DeviceSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use sw_align::Alphabet;
use sw_db::catalog::{PaperDb, DEFAULT_THRESHOLD};
use sw_db::synth::{database_with_lengths, make_query};
use sw_db::{Database, Sequence};

const SEED: u64 = 2011;
const QUERY_LEN: usize = 375;
const TAIL_SUBJECTS: usize = 7;
const TAIL_LEN: (usize, usize) = (3_200, 6_000);

fn main() {
    let mut drivers = [CudaSwConfig::improved(), CudaSwConfig::original()]
        .map(|config| CudaSwDriver::new(DeviceSpec::tesla_c2050(), config));
    let body_len = drivers[0].group_size();
    let mut seqs: Vec<Sequence> = PaperDb::Swissprot
        .generate(body_len + body_len / 8, SEED)
        .sequences()
        .iter()
        .filter(|s| s.len() < DEFAULT_THRESHOLD)
        .take(body_len)
        .cloned()
        .collect();
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x5441_494C);
    let step = (TAIL_LEN.1 - TAIL_LEN.0) / TAIL_SUBJECTS;
    let tail: Vec<usize> = (0..TAIL_SUBJECTS)
        .map(|i| TAIL_LEN.0 + i * step + rng.gen_range(0..step))
        .collect();
    seqs.extend_from_slice(database_with_lengths("tail", &tail, SEED).sequences());
    let db = Database::new("untrimmed_fermi", Alphabet::Protein, seqs);
    let query = make_query(QUERY_LEN, SEED);
    println!(
        "{} subjects ({} below the threshold), {:.2e} cells per search",
        db.len(),
        body_len,
        db.total_cells(QUERY_LEN) as f64
    );

    let t0 = Instant::now();
    let [improved, original] = drivers.each_mut().map(|driver| {
        // A recorder scope per search, as the benchmark does: the driver
        // reads its simulated seconds back from the thread's registry.
        let (result, _) = obs::capture(|| driver.search(&query, &db));
        result.expect("fault-free search")
    });
    let wall = t0.elapsed().as_secs_f64();
    assert_eq!(improved.scores, original.scores);
    println!(
        "Table I transaction ratio (original : improved): {:.1} : 1  ({} vs {})",
        original.intra.global_transactions as f64 / improved.intra.global_transactions as f64,
        original.intra.global_transactions,
        improved.intra.global_transactions
    );
    println!(
        "intra-task speed-up (simulated seconds): {:.2}x",
        original.intra.seconds / improved.intra.seconds
    );
    println!(
        "application GCUPS (simulated): improved {:.2}, original {:.2}",
        improved.gcups(),
        original.gcups()
    );
    println!("wall: {wall:.1} s for both searches");
}
