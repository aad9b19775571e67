//! Every synthetic database, pinned byte for byte.
//!
//! Experiments cannot ship the paper's six databases, so they synthesize
//! them; every simulated count, golden and benchmark fixture rests on the
//! generators returning the same bytes for the same seed. Two FNV-1a
//! digests cover the generators' whole public surface — one over lengths
//! and residues, one over ids — so a faster sampler or a renamed id shows
//! here, attributed to the half it moved.

use sw_db::catalog::PaperDb;
use sw_db::synth::{database_with_lengths, make_query, uniform_database};
use sw_db::Database;

/// Lengths and residues of everything below. Must never move: the
/// residue stream is what every count in the repository is computed on.
const PINNED_RESIDUE_DIGEST: u64 = 0x0a31_0ffd_10b6_2df9;
/// Sequence ids of every database below.
const PINNED_ID_DIGEST: u64 = 0x605c_8b40_4bbe_cbfa;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// A length-prefixed record, so adjacent records cannot trade bytes.
    fn record(&mut self, bytes: &[u8]) {
        self.bytes(&(bytes.len() as u64).to_le_bytes());
        self.bytes(bytes);
    }
}

fn databases() -> Vec<Database> {
    let mut dbs = Vec::new();
    for seed in [1, 2011] {
        dbs.extend(PaperDb::all().map(|db| db.generate(2_000, seed)));
    }
    // The benchmark's scan fixture at its two seeds.
    dbs.push(PaperDb::Swissprot.generate(40_000, 2011));
    dbs.push(PaperDb::Swissprot.generate(40_000, 7));
    dbs.push(database_with_lengths(
        "fixed lengths",
        &[1, 7, 64, 300, 3072, 5000],
        41,
    ));
    dbs.push(uniform_database("uniform", 500, 10, 900, 23));
    dbs
}

#[test]
fn synthetic_residues_and_ids_are_pinned() {
    let mut residues = Fnv::new();
    let mut ids = Fnv::new();
    for db in databases() {
        for seq in db.sequences() {
            residues.record(&seq.residues);
            ids.record(seq.id.as_bytes());
        }
    }
    for len in [1, 64, 375, 5478] {
        for seed in [5, 2011] {
            residues.record(&make_query(len, seed));
        }
    }
    assert_eq!(
        (residues.0, ids.0),
        (PINNED_RESIDUE_DIGEST, PINNED_ID_DIGEST),
        "synthetic databases moved: (residues {:#018x}, ids {:#018x})",
        residues.0,
        ids.0
    );
}
