//! Decoders that cannot abort or over-allocate.
//!
//! Seeded mutations of a checkpoint log (`checkpoint::decode_log`), a FASTA
//! file (`fasta::parse_fasta`) and a JSON document (`obs::json::parse`):
//! truncation at every byte, bit flips, and — in the checkpoint's frames,
//! whose CRC is recomputed so the payload decoder sees them — every 4-byte
//! field set to `u32::MAX`, plus the score count inflated with its range.
//! Every input must come back as a value (`Ok`, `Err` or a log's intact
//! prefix) and no single allocation request of the decode may exceed
//! `64 × input length + 64 KiB`.
//!
//! This binary's global allocator counts each thread's largest request and
//! refuses any over 1 GiB: the process then aborts with "memory allocation
//! of N bytes failed", naming the request, instead of reserving it.

use cudasw_core::checkpoint::{decode_log, encode_log};
use cudasw_core::{ChunkPhase, ChunkRecord};
use gpu_sim::crc32;
use obs::{Histogram, MetricsRegistry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use sw_align::Alphabet;
use sw_db::fasta::parse_fasta;

/// Requests above this are refused.
const REFUSE_ABOVE: usize = 1 << 30;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

/// Record a request of `size` bytes; whether to grant it.
fn grant(size: usize) -> bool {
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
    size <= REFUSE_ABOVE
}

// SAFETY: every call is forwarded to `System` unchanged, or refused with
// the null pointer the `GlobalAlloc` contract allows (`alloc_zeroed` is
// the provided one, through `alloc`).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        match grant(layout.size()) {
            // SAFETY: the caller's contract, passed on.
            true => unsafe { System.alloc(layout) },
            false => std::ptr::null_mut(),
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        match grant(new_size) {
            // SAFETY: the caller's contract, passed on.
            true => unsafe { System.realloc(ptr, layout, new_size) },
            false => std::ptr::null_mut(),
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed on.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Decode `input`, failing if any single request exceeded the bound.
fn bounded<T>(what: &str, input: &[u8], decode: impl FnOnce(&[u8]) -> T) -> T {
    LARGEST.with(|l| l.set(0));
    let out = decode(input);
    let (largest, bound) = (LARGEST.with(Cell::get), 64 * input.len() + (64 << 10));
    assert!(
        largest <= bound,
        "{what}: a {largest}-byte request decoding {} bytes (bound {bound})",
        input.len()
    );
    out
}

/// Every truncation of `input`, then `flips` copies with one to three
/// seeded bit flips each.
fn mutations(input: &[u8], seed: u64, flips: usize) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out: Vec<Vec<u8>> = (0..input.len()).map(|n| input[..n].to_vec()).collect();
    for _ in 0..flips {
        let mut m = input.to_vec();
        for _ in 0..rng.gen_range(1..=3) {
            let at = rng.gen_range(0..m.len());
            m[at] ^= 1u8 << rng.gen_range(0..8u32);
        }
        out.push(m);
    }
    out
}

/// A log of three records whose metrics hold counters, a gauge and a
/// histogram, so every length field of the format occurs.
fn checkpoint_log() -> Vec<u8> {
    let records: Vec<ChunkRecord> = (0..3)
        .map(|i| {
            let mut metrics = MetricsRegistry::new();
            metrics.counter_add("cudasw.core.cells", &[("kernel", "inter")], 1e6 + i as f64);
            metrics.gauge_set("cudasw.core.occupancy", &[], 0.5);
            let histogram = Histogram {
                bounds: vec![1.0, 2.0, 4.0],
                counts: vec![1, 2, 3, i],
                sum: 9.0,
                count: 6 + i,
            };
            metrics.histogram_insert("cudasw.core.launch_s", &[("phase", "x")], histogram);
            ChunkRecord {
                phase: [ChunkPhase::Inter, ChunkPhase::Intra][i as usize % 2],
                start: 10 * i as usize,
                end: 10 * i as usize + 5,
                scores: vec![7, -1, 300, 0, 42],
                transfer_seconds: 0.25,
                metrics,
                stream_credit: 0.0,
            }
        })
        .collect();
    encode_log(0xF1F0, &records)
}

/// Header bytes before the first frame: magic, version, fingerprint, CRC.
const LOG_HEADER: usize = 24;

/// The log with `edit` applied to record `k`'s payload and its frame's CRC
/// recomputed.
fn edit_frame(log: &[u8], k: usize, edit: impl FnOnce(&mut [u8])) -> Vec<u8> {
    let mut out = log.to_vec();
    let mut at = LOG_HEADER;
    for _ in 0..k {
        at += 8 + u32::from_le_bytes(log[at..at + 4].try_into().unwrap()) as usize;
    }
    let len = u32::from_le_bytes(log[at..at + 4].try_into().unwrap()) as usize;
    let payload = &mut out[at + 8..at + 8 + len];
    edit(payload);
    let crc = crc32(payload);
    out[at + 4..at + 8].copy_from_slice(&crc.to_le_bytes());
    out
}

#[test]
fn checkpoint_logs_decode_within_the_bound() {
    let log = checkpoint_log();
    let fingerprint = 0xF1F0;
    let clean = decode_log(&log, fingerprint);
    assert_eq!((clean.records.len(), clean.issue), (3, None));
    // Truncated or bit-flipped, a log keeps an intact prefix of its records.
    let mut damaged = 0;
    for input in mutations(&log, 1, 3000) {
        let loaded = bounded("checkpoint", &input, |b| decode_log(b, fingerprint));
        assert_eq!(loaded.records[..], clean.records[..loaded.records.len()]);
        damaged += usize::from(loaded.issue.is_some());
    }
    assert!(damaged > 3000, "the mutations must damage the log");
    // Past the CRC, every 4-byte field at `u32::MAX`.
    let mut edited = Vec::new();
    let payload_len = u32::from_le_bytes(log[LOG_HEADER..LOG_HEADER + 4].try_into().unwrap());
    for k in 0..3 {
        for field in 0..payload_len as usize - 3 {
            edited.push(edit_frame(&log, k, |p| {
                p[field..field + 4].copy_from_slice(&u32::MAX.to_le_bytes())
            }));
        }
        // The score count at its largest, with the range to match: a frame
        // that passes every check before the scores are read.
        edited.push(edit_frame(&log, k, |p| {
            let start = u64::from_le_bytes(p[1..9].try_into().unwrap());
            p[9..17].copy_from_slice(&(start + u32::MAX as u64).to_le_bytes());
            p[17..21].copy_from_slice(&u32::MAX.to_le_bytes());
        }));
    }
    for input in &edited {
        let loaded = bounded("checkpoint", input, |b| decode_log(b, fingerprint));
        assert!(loaded.records.len() <= 3);
    }
}

#[test]
fn fasta_files_parse_within_the_bound() {
    let text = b">sp|P1 first record\nMKVLAWGGSC\nMKVL\n\n>sp|P2\r\nACDEFGHIKLMNPQRSTVWYBZX*\r\n>p3 x\nWWWW\n";
    let clean = parse_fasta(&text[..], Alphabet::Protein);
    assert_eq!(clean.map(|s| s.len()).ok(), Some(3));
    let mut parsed = 0;
    for input in mutations(text, 2, 4000) {
        parsed +=
            usize::from(bounded("fasta", &input, |b| parse_fasta(b, Alphabet::Protein)).is_ok());
    }
    assert!(parsed > 0, "some mutations must still parse");
}

#[test]
fn json_documents_parse_within_the_bound() {
    let doc = r#"{"schema": "cudasw.bench.device/v2", "rows": [{"a": [1, 2.5, -3e2, true, null],
        "s": "q\"\\\/\b\f\n\r\té ☃", "o": {"k": [[], {}, [[0]]]}}], "n": -0.0}"#;
    assert!(obs::json::parse(doc).is_ok());
    let doc = doc.as_bytes();
    let mut parsed = 0;
    for input in mutations(doc, 3, 4000) {
        let text = String::from_utf8_lossy(&input);
        parsed += usize::from(bounded("json", text.as_bytes(), |b| {
            obs::json::parse(std::str::from_utf8(b).unwrap_or_default()).is_ok()
        }));
    }
    assert!(parsed > 0, "some mutations must still parse");
}
