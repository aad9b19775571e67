//! Property tests for the checkpoint log format.
//!
//! The contract under attack: arbitrary chunk records round-trip exactly;
//! any truncation and any single-bit flip is *detected* — the decoder
//! returns an intact prefix of what was written (possibly empty, i.e. a
//! clean full restart), never a misparsed record.

use cudasw_core::checkpoint::{decode_log, encode_log, ChunkPhase, ChunkRecord};
use obs::MetricsRegistry;
use proptest::prelude::*;

const COUNTER_NAMES: [&str; 4] = [
    "cudasw.core.phase.launches",
    "cudasw.core.phase.seconds",
    "cudasw.gpu_sim.xfer.bytes",
    "cudasw.core.recovery.retries",
];

fn record_strategy() -> impl Strategy<Value = ChunkRecord> {
    (
        any::<bool>(),
        0usize..500,
        proptest::collection::vec(any::<i32>(), 1..40),
        any::<u32>(),
        proptest::collection::vec((0usize..COUNTER_NAMES.len(), any::<u32>()), 0..5),
        any::<u32>(),
    )
        .prop_map(|(intra, start, scores, secs, counters, credit)| {
            let mut metrics = MetricsRegistry::new();
            for (i, v) in counters {
                metrics.counter_add(COUNTER_NAMES[i], &[("phase", "inter")], f64::from(v) / 7.0);
            }
            let end = start + scores.len();
            ChunkRecord {
                phase: if intra {
                    ChunkPhase::Intra
                } else {
                    ChunkPhase::Inter
                },
                start,
                end,
                scores,
                transfer_seconds: f64::from(secs) * 1.0e-9,
                metrics,
                // The payload's last field: a cut or flip here must not
                // leave a record that still parses.
                stream_credit: f64::from(credit) * 1.0e-10,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn arbitrary_records_roundtrip_exactly(
        fp in any::<u64>(),
        records in proptest::collection::vec(record_strategy(), 0..6),
    ) {
        let bytes = encode_log(fp, &records);
        let loaded = decode_log(&bytes, fp);
        prop_assert_eq!(&loaded.records, &records);
        prop_assert!(loaded.issue.is_none());
    }

    #[test]
    fn any_truncation_yields_an_intact_prefix(
        records in proptest::collection::vec(record_strategy(), 1..5),
        cut_seed in any::<usize>(),
    ) {
        let bytes = encode_log(11, &records);
        let cut = cut_seed % bytes.len();
        let loaded = decode_log(&bytes[..cut], 11);
        // Never more than written, and byte-exact where kept.
        prop_assert!(loaded.records.len() <= records.len());
        for (i, rec) in loaded.records.iter().enumerate() {
            prop_assert_eq!(rec, &records[i]);
        }
        // A cut exactly on a frame boundary looks like a crash that
        // happened *before* the next append — a legitimately complete,
        // shorter log. Any other cut must be reported as damage.
        if loaded.issue.is_none() {
            prop_assert_eq!(encode_log(11, &loaded.records).len(), cut);
        } else {
            prop_assert!(loaded.records.len() < records.len());
        }
    }

    #[test]
    fn any_single_bit_flip_is_detected_not_misparsed(
        records in proptest::collection::vec(record_strategy(), 1..4),
        pos_seed in any::<usize>(),
        bit in 0usize..8,
    ) {
        let mut bytes = encode_log(3, &records);
        let pos = pos_seed % bytes.len();
        bytes[pos] ^= 1 << bit;
        let loaded = decode_log(&bytes, 3);
        // Wherever the flip landed — header, frame length, CRC, payload —
        // the decoder must keep only records that verify, all of them
        // byte-exact copies of what was written, and must flag the damage.
        prop_assert!(loaded.records.len() < records.len());
        for (i, rec) in loaded.records.iter().enumerate() {
            prop_assert_eq!(rec, &records[i]);
        }
        prop_assert!(loaded.issue.is_some());
    }
}
