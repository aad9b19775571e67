//! Checkpointed database search: the chunk-completion log.
//!
//! A whole-database scan is a long linear pass; a fatal device loss or a
//! process crash mid-scan should not throw away every completed chunk.
//! This module implements the on-disk log that makes
//! [`CudaSwDriver::search_resilient`](crate::CudaSwDriver::search_resilient)
//! resumable when its policy names a log
//! ([`RecoveryPolicy::checkpoint`](crate::RecoveryPolicy::checkpoint)):
//!
//! * **Append-only records.** Every completed chunk appends one
//!   [`ChunkRecord`] carrying the chunk cursor (phase + half-open
//!   sequence range), the chunk's scores (of which the top-k are a view,
//!   [`ChunkRecord::top_hits`]), its transfer seconds, the
//!   metrics-registry delta the chunk produced, and the overlap credit it
//!   left in the search's `streamed_h2d` session — enough to replay the
//!   chunk's entire observable effect without re-running it.
//! * **Versioned, fingerprinted header.** The header binds the log to one
//!   exact run ([`run_fingerprint`] over the configuration, query and
//!   database); a log from a different run, format version, or corrupted
//!   header is ignored wholesale and the search restarts cleanly.
//! * **CRC-checksummed frames.** Each record frame is
//!   `[len][crc32][payload]` (the same CRC-32 the transfer integrity
//!   layer uses, [`gpu_sim::crc32`]). A truncated or bit-flipped tail is
//!   *detected*, dropped, and the scan resumes from the last intact
//!   record — never misparsed ([`LoadIssue::CorruptTail`]).
//! * **Atomic appends.** [`CheckpointFile::append`] writes the whole log
//!   to a sibling `.tmp` file and renames it over the original, so a
//!   crash mid-write leaves either the old log or the new one, never a
//!   torn file. (A real deployment would `append + fsync` and lean on the
//!   CRC tail-drop; at simulation scale the rewrite keeps the atomicity
//!   story airtight, and the tail-drop path is tested anyway.)
//!
//! The encode/decode layer ([`encode_log`] / [`decode_log`]) is pure —
//! no filesystem — so property tests can round-trip arbitrary records and
//! attack the format with truncations and bit flips directly.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use gpu_sim::crc32;
use obs::{Histogram, MetricsRegistry};
use sw_db::Database;

/// Log file magic (8 bytes).
pub const MAGIC: [u8; 8] = *b"CSWCKPT\n";

/// Current log format version. Version 1 records had no
/// [`ChunkRecord::stream_credit`]; such a log is a [`LoadIssue::BadHeader`].
pub const FORMAT_VERSION: u32 = 2;

/// Which driver phase a chunk belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkPhase {
    /// Inter-task (short-sequence) windowed group.
    Inter,
    /// Intra-task (long-sequence) chunk.
    Intra,
}

impl ChunkPhase {
    fn to_byte(self) -> u8 {
        match self {
            ChunkPhase::Inter => 0,
            ChunkPhase::Intra => 1,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        match b {
            0 => Some(ChunkPhase::Inter),
            1 => Some(ChunkPhase::Intra),
            _ => None,
        }
    }
}

/// One completed chunk: everything needed to replay its effect.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkRecord {
    /// Phase the chunk ran in.
    pub phase: ChunkPhase,
    /// First sequence index of the chunk (phase-relative, half-open).
    pub start: usize,
    /// One past the last sequence index (phase-relative).
    pub end: usize,
    /// Scores for sequences `start..end`, in phase order.
    pub scores: Vec<i32>,
    /// Simulated transfer seconds the chunk spent.
    pub transfer_seconds: f64,
    /// Metrics-registry delta recorded while the chunk ran.
    pub metrics: MetricsRegistry,
    /// Unspent overlap credit of the search's `streamed_h2d` session once
    /// the chunk was done (0 with the flag off): what the next chunk's
    /// uploads may hide behind, so a resumed search restores it after
    /// replaying this record.
    pub stream_credit: f64,
}

impl ChunkRecord {
    /// The `k` best-scoring sequences of this chunk, best first
    /// (phase-relative indices).
    pub fn top_hits(&self, k: usize) -> Vec<(usize, i32)> {
        let mut ranked: Vec<(usize, i32)> = self
            .scores
            .iter()
            .copied()
            .enumerate()
            .map(|(i, s)| (self.start + i, s))
            .collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.truncate(k);
        ranked
    }
}

/// Why (part of) a log was discarded at load time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadIssue {
    /// The header is unusable (wrong magic, unknown version, or a header
    /// checksum mismatch) — the whole log is ignored, clean full restart.
    BadHeader,
    /// The log belongs to a different run (configuration, query or
    /// database changed) — ignored wholesale, clean full restart.
    FingerprintMismatch,
    /// A record frame was truncated or failed its CRC; that record and
    /// everything after it were dropped. The intact prefix is kept.
    CorruptTail,
}

/// Result of decoding a log image.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadedLog {
    /// The intact record prefix (empty on header-level issues).
    pub records: Vec<ChunkRecord>,
    /// What, if anything, was discarded.
    pub issue: Option<LoadIssue>,
}

// --- byte-level helpers -------------------------------------------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.bytes.len() {
            return None;
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u32(&mut self) -> Option<u32> {
        let b = self.take(4)?;
        Some(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Option<u64> {
        let b = self.take(8)?;
        Some(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.u64()?))
    }

    fn i32(&mut self) -> Option<i32> {
        Some(self.u32()? as i32)
    }

    fn str(&mut self) -> Option<String> {
        let n = self.u32()? as usize;
        String::from_utf8(self.take(n)?.to_vec()).ok()
    }

    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }

    /// Bytes left to read: the most a count read from the input can hold,
    /// so no reservation trusts the count beyond it.
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }
}

// --- metrics registry (de)serialization ---------------------------------

fn put_key(buf: &mut Vec<u8>, name: &str, labels: &[(String, String)]) {
    put_str(buf, name);
    put_u32(buf, labels.len() as u32);
    for (k, v) in labels {
        put_str(buf, k);
        put_str(buf, v);
    }
}

fn read_key(r: &mut Reader<'_>) -> Option<(String, Vec<(String, String)>)> {
    let name = r.str()?;
    let n = r.u32()? as usize;
    let mut labels = Vec::with_capacity(n.min(64));
    for _ in 0..n {
        labels.push((r.str()?, r.str()?));
    }
    Some((name, labels))
}

fn encode_metrics(buf: &mut Vec<u8>, m: &MetricsRegistry) {
    let counters: Vec<_> = m.counters().collect();
    put_u32(buf, counters.len() as u32);
    for (k, v) in counters {
        put_key(buf, &k.name, &k.labels);
        put_f64(buf, v);
    }
    let gauges: Vec<_> = m.gauges().collect();
    put_u32(buf, gauges.len() as u32);
    for (k, v) in gauges {
        put_key(buf, &k.name, &k.labels);
        put_f64(buf, v);
    }
    let hists: Vec<_> = m.histograms().collect();
    put_u32(buf, hists.len() as u32);
    for (k, h) in hists {
        put_key(buf, &k.name, &k.labels);
        put_u32(buf, h.bounds.len() as u32);
        for b in &h.bounds {
            put_f64(buf, *b);
        }
        for c in &h.counts {
            put_u64(buf, *c);
        }
        put_f64(buf, h.sum);
        put_u64(buf, h.count);
    }
}

fn decode_metrics(r: &mut Reader<'_>) -> Option<MetricsRegistry> {
    let mut m = MetricsRegistry::new();
    fn as_refs(labels: &[(String, String)]) -> Vec<(&str, &str)> {
        labels
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect()
    }
    for _ in 0..r.u32()? {
        let (name, labels) = read_key(r)?;
        let v = r.f64()?;
        m.counter_add(&name, &as_refs(&labels), v);
    }
    for _ in 0..r.u32()? {
        let (name, labels) = read_key(r)?;
        let v = r.f64()?;
        m.gauge_set(&name, &as_refs(&labels), v);
    }
    for _ in 0..r.u32()? {
        let (name, labels) = read_key(r)?;
        let n_bounds = r.u32()? as usize;
        let mut bounds = Vec::with_capacity(n_bounds.min(1024));
        for _ in 0..n_bounds {
            bounds.push(r.f64()?);
        }
        let mut counts = Vec::with_capacity(n_bounds + 1);
        for _ in 0..n_bounds + 1 {
            counts.push(r.u64()?);
        }
        let sum = r.f64()?;
        let count = r.u64()?;
        m.histogram_insert(
            &name,
            &as_refs(&labels),
            Histogram {
                bounds,
                counts,
                sum,
                count,
            },
        );
    }
    Some(m)
}

// --- record + log (de)serialization -------------------------------------

fn encode_payload(rec: &ChunkRecord) -> Vec<u8> {
    let mut p = Vec::new();
    p.push(rec.phase.to_byte());
    put_u64(&mut p, rec.start as u64);
    put_u64(&mut p, rec.end as u64);
    put_u32(&mut p, rec.scores.len() as u32);
    for s in &rec.scores {
        put_u32(&mut p, *s as u32);
    }
    put_f64(&mut p, rec.transfer_seconds);
    encode_metrics(&mut p, &rec.metrics);
    put_f64(&mut p, rec.stream_credit);
    p
}

fn decode_payload(payload: &[u8]) -> Option<ChunkRecord> {
    let mut r = Reader::new(payload);
    let phase = ChunkPhase::from_byte(r.u8()?)?;
    let start = usize::try_from(r.u64()?).ok()?;
    let end = usize::try_from(r.u64()?).ok()?;
    let n = r.u32()? as usize;
    if end <= start || end - start != n {
        return None;
    }
    let mut scores = Vec::with_capacity(n.min(r.remaining() / 4));
    for _ in 0..n {
        scores.push(r.i32()?);
    }
    let transfer_seconds = r.f64()?;
    let metrics = decode_metrics(&mut r)?;
    let stream_credit = r.f64()?;
    if !r.done() {
        return None; // trailing garbage inside a checksummed frame
    }
    Some(ChunkRecord {
        phase,
        start,
        end,
        scores,
        transfer_seconds,
        metrics,
        stream_credit,
    })
}

/// Append one framed record to an encoded log image.
fn encode_record(buf: &mut Vec<u8>, rec: &ChunkRecord) {
    let payload = encode_payload(rec);
    put_u32(buf, payload.len() as u32);
    put_u32(buf, crc32(&payload));
    buf.extend_from_slice(&payload);
}

const HEADER_LEN: usize = 8 + 4 + 8 + 4; // magic + version + fingerprint + crc

/// Serialize a complete log image: header + one framed record per chunk.
pub fn encode_log(fingerprint: u64, records: &[ChunkRecord]) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&MAGIC);
    put_u32(&mut buf, FORMAT_VERSION);
    put_u64(&mut buf, fingerprint);
    let crc = crc32(&buf);
    put_u32(&mut buf, crc);
    for rec in records {
        encode_record(&mut buf, rec);
    }
    buf
}

/// Decode a log image. Header-level damage (or a fingerprint that does
/// not match `expected_fingerprint`) discards everything; a damaged
/// record discards itself and every record after it. The returned record
/// list is always an intact prefix of what was written.
pub fn decode_log(bytes: &[u8], expected_fingerprint: u64) -> LoadedLog {
    let empty = |issue| LoadedLog {
        records: Vec::new(),
        issue: Some(issue),
    };
    if bytes.len() < HEADER_LEN || bytes[..8] != MAGIC {
        return empty(LoadIssue::BadHeader);
    }
    let mut r = Reader::new(&bytes[8..HEADER_LEN]);
    // The length check above guarantees these reads; a short header is
    // still reported as damage, never a panic.
    let (Some(version), Some(fingerprint), Some(header_crc)) = (r.u32(), r.u64(), r.u32()) else {
        return empty(LoadIssue::BadHeader);
    };
    if crc32(&bytes[..HEADER_LEN - 4]) != header_crc || version != FORMAT_VERSION {
        return empty(LoadIssue::BadHeader);
    }
    if fingerprint != expected_fingerprint {
        return empty(LoadIssue::FingerprintMismatch);
    }

    let mut records = Vec::new();
    let mut r = Reader::new(&bytes[HEADER_LEN..]);
    while !r.done() {
        let frame = (|| {
            let len = r.u32()? as usize;
            let crc = r.u32()?;
            let payload = r.take(len)?;
            if crc32(payload) != crc {
                return None;
            }
            decode_payload(payload)
        })();
        match frame {
            Some(rec) => records.push(rec),
            None => {
                return LoadedLog {
                    records,
                    issue: Some(LoadIssue::CorruptTail),
                }
            }
        }
    }
    LoadedLog {
        records,
        issue: None,
    }
}

/// Fingerprint binding a checkpoint log to one exact run: a stable FNV-1a
/// hash over the caller's configuration description, the query, and every
/// database sequence. Any difference — other matrix, other threshold,
/// other device, other database — yields a different fingerprint, and a
/// stale log is ignored instead of replayed into the wrong search.
pub fn run_fingerprint(setup: &str, query: &[u8], db: &Database) -> u64 {
    let mut h = Fnv::new();
    h.update(setup.as_bytes());
    h.update(&[0xFF]);
    h.update(&(query.len() as u64).to_le_bytes());
    h.update(query);
    h.update(&(db.len() as u64).to_le_bytes());
    for seq in db.sequences() {
        h.update(&(seq.residues.len() as u64).to_le_bytes());
        h.update(&seq.residues);
    }
    h.finish()
}

/// FNV-1a 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

// --- completed-interval bookkeeping -------------------------------------

/// Sorted, disjoint, half-open completed intervals of one phase. The
/// resume loop skips covered ranges and caps fresh windows at the next
/// completed interval, so a resumed run computes exactly the chunks the
/// crashed run did not.
#[derive(Debug, Clone, Default)]
pub struct Intervals {
    runs: Vec<(usize, usize)>,
}

impl Intervals {
    /// Record `[start, end)` as completed, coalescing with neighbours.
    pub fn add(&mut self, start: usize, end: usize) {
        if end <= start {
            return;
        }
        let mut merged = (start, end);
        let mut out = Vec::with_capacity(self.runs.len() + 1);
        for &(s, e) in &self.runs {
            if e < merged.0 || s > merged.1 {
                out.push((s, e));
            } else {
                merged = (merged.0.min(s), merged.1.max(e));
            }
        }
        out.push(merged);
        out.sort_unstable();
        self.runs = out;
    }

    /// If `i` lies inside a completed interval, its (exclusive) end.
    pub fn covered_end(&self, i: usize) -> Option<usize> {
        self.runs
            .iter()
            .find(|&&(s, e)| s <= i && i < e)
            .map(|&(_, e)| e)
    }

    /// Start of the first completed interval strictly after `i`, if any
    /// (the cap for a fresh window starting at `i`).
    pub fn next_start_after(&self, i: usize) -> Option<usize> {
        self.runs.iter().map(|&(s, _)| s).find(|&s| s > i)
    }

    /// True when `i` is inside a completed interval.
    pub fn contains(&self, i: usize) -> bool {
        self.covered_end(i).is_some()
    }

    /// True when nothing is recorded.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }
}

// --- the on-disk file ---------------------------------------------------

/// An open checkpoint log bound to one run.
#[derive(Debug)]
pub struct CheckpointFile {
    path: PathBuf,
    fingerprint: u64,
    bytes: Vec<u8>,
    records: Vec<ChunkRecord>,
}

impl CheckpointFile {
    /// Open (or create) the log at `path` for the run identified by
    /// `fingerprint`. A missing file is an empty log; a stale or damaged
    /// log is pruned to its intact prefix (the returned [`LoadIssue`]
    /// says what was discarded).
    pub fn open(path: &Path, fingerprint: u64) -> io::Result<(Self, Option<LoadIssue>)> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                fs::create_dir_all(dir)?;
            }
        }
        let raw = match fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let loaded = if raw.is_empty() {
            LoadedLog {
                records: Vec::new(),
                issue: None,
            }
        } else {
            decode_log(&raw, fingerprint)
        };
        let bytes = encode_log(fingerprint, &loaded.records);
        Ok((
            Self {
                path: path.to_path_buf(),
                fingerprint,
                bytes,
                records: loaded.records,
            },
            loaded.issue,
        ))
    }

    /// The run fingerprint this log is bound to.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Records replayable from this log, in completion order.
    pub fn records(&self) -> &[ChunkRecord] {
        &self.records
    }

    /// Append one completed chunk, atomically: the full log is written to
    /// a sibling `.tmp` file and renamed over the original, so a crash
    /// mid-append leaves either the old log or the new one.
    pub fn append(&mut self, record: ChunkRecord) -> io::Result<()> {
        encode_record(&mut self.bytes, &record);
        let name = self
            .path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "checkpoint".to_string());
        let tmp = self.path.with_file_name(format!("{name}.tmp"));
        fs::write(&tmp, &self.bytes)?;
        fs::rename(&tmp, &self.path)?;
        self.records.push(record);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<ChunkRecord> {
        let mut m1 = MetricsRegistry::new();
        m1.counter_add("cudasw.core.phase.launches", &[("phase", "inter")], 1.0);
        m1.counter_add("cudasw.core.phase.seconds", &[("phase", "inter")], 0.125);
        m1.gauge_set("cudasw.gpu_sim.mem.allocated_words", &[], 4096.0);
        m1.histogram_observe(
            "cudasw.gpu_sim.launch.duration_seconds",
            &[],
            &[1e-6, 1e-3, 1.0],
            0.5e-3,
        );
        let mut m2 = MetricsRegistry::new();
        m2.counter_add("cudasw.core.phase.launches", &[("phase", "intra")], 1.0);
        vec![
            ChunkRecord {
                phase: ChunkPhase::Inter,
                start: 0,
                end: 4,
                scores: vec![10, -3, 0, 99],
                transfer_seconds: 1.5e-4,
                metrics: m1,
                stream_credit: 3.25e-5,
            },
            ChunkRecord {
                phase: ChunkPhase::Intra,
                start: 0,
                end: 2,
                scores: vec![123, 456],
                transfer_seconds: 2.5e-5,
                metrics: m2,
                stream_credit: 0.0,
            },
        ]
    }

    #[test]
    fn log_roundtrips_exactly() {
        let records = sample_records();
        let bytes = encode_log(42, &records);
        let loaded = decode_log(&bytes, 42);
        assert_eq!(loaded.records, records);
        assert_eq!(loaded.issue, None);
    }

    #[test]
    fn empty_log_roundtrips() {
        let bytes = encode_log(7, &[]);
        let loaded = decode_log(&bytes, 7);
        assert!(loaded.records.is_empty());
        assert_eq!(loaded.issue, None);
    }

    #[test]
    fn fingerprint_mismatch_discards_everything() {
        let bytes = encode_log(42, &sample_records());
        let loaded = decode_log(&bytes, 43);
        assert!(loaded.records.is_empty());
        assert_eq!(loaded.issue, Some(LoadIssue::FingerprintMismatch));
    }

    #[test]
    fn bad_magic_and_bad_version_are_header_issues() {
        let mut bytes = encode_log(42, &sample_records());
        bytes[0] ^= 0x40;
        assert_eq!(decode_log(&bytes, 42).issue, Some(LoadIssue::BadHeader));

        let mut bytes = encode_log(42, &sample_records());
        bytes[8] ^= 0x01; // version byte — header CRC catches it too
        assert_eq!(decode_log(&bytes, 42).issue, Some(LoadIssue::BadHeader));

        assert_eq!(decode_log(b"short", 42).issue, Some(LoadIssue::BadHeader));

        // A log an older build wrote: intact header, right run, version 1.
        let mut bytes = encode_log(42, &sample_records());
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        let crc = crc32(&bytes[..HEADER_LEN - 4]);
        bytes[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
        let loaded = decode_log(&bytes, 42);
        assert_eq!(loaded.issue, Some(LoadIssue::BadHeader));
        assert!(loaded.records.is_empty());
    }

    #[test]
    fn truncation_drops_the_tail_only() {
        let records = sample_records();
        let full = encode_log(42, &records);
        let one = encode_log(42, &records[..1]);
        // Cut anywhere inside the second record: the first must survive.
        for cut in one.len() + 1..full.len() {
            let loaded = decode_log(&full[..cut], 42);
            assert_eq!(loaded.records, records[..1], "cut at {cut}");
            assert_eq!(loaded.issue, Some(LoadIssue::CorruptTail));
        }
    }

    #[test]
    fn bit_flip_in_a_record_drops_it_and_the_rest() {
        let records = sample_records();
        let full = encode_log(42, &records);
        let one = encode_log(42, &records[..1]);
        // Flip one bit inside the *first* record's frame: everything goes.
        let mut bytes = full.clone();
        bytes[HEADER_LEN + 9] ^= 0x10;
        let loaded = decode_log(&bytes, 42);
        assert!(loaded.records.is_empty());
        assert_eq!(loaded.issue, Some(LoadIssue::CorruptTail));
        // Flip one bit inside the second record: the first survives.
        let mut bytes = full;
        bytes[one.len() + 9] ^= 0x10;
        let loaded = decode_log(&bytes, 42);
        assert_eq!(loaded.records, records[..1]);
        assert_eq!(loaded.issue, Some(LoadIssue::CorruptTail));
    }

    #[test]
    fn a_record_claiming_more_scores_than_it_holds_is_a_corrupt_tail() {
        let records = sample_records();
        let mut bytes = encode_log(42, &records[..1]);
        // A checksummed frame that claims u32::MAX scores and holds two:
        // decoding must not reserve room for the claim before reading.
        let mut payload = vec![ChunkPhase::Inter.to_byte()];
        put_u64(&mut payload, 0);
        put_u64(&mut payload, u64::from(u32::MAX));
        put_u32(&mut payload, u32::MAX);
        put_u32(&mut payload, 7);
        put_u32(&mut payload, 9);
        put_u32(&mut bytes, payload.len() as u32);
        put_u32(&mut bytes, crc32(&payload));
        bytes.extend_from_slice(&payload);
        let loaded = decode_log(&bytes, 42);
        assert_eq!(loaded.records, records[..1]);
        assert_eq!(loaded.issue, Some(LoadIssue::CorruptTail));
    }

    #[test]
    fn top_hits_are_ranked_and_phase_relative() {
        let rec = &sample_records()[0];
        let top = rec.top_hits(2);
        assert_eq!(top, vec![(3, 99), (0, 10)]);
    }

    #[test]
    fn fingerprint_is_sensitive_to_every_input() {
        let db = sw_db::synth::database_with_lengths("fp", &[10, 20], 3);
        let db2 = sw_db::synth::database_with_lengths("fp", &[10, 21], 3);
        let base = run_fingerprint("cfg", b"QUERY", &db);
        assert_eq!(base, run_fingerprint("cfg", b"QUERY", &db));
        assert_ne!(base, run_fingerprint("cfg2", b"QUERY", &db));
        assert_ne!(base, run_fingerprint("cfg", b"QUERZ", &db));
        assert_ne!(base, run_fingerprint("cfg", b"QUERY", &db2));
    }

    #[test]
    fn intervals_coalesce_and_answer_queries() {
        let mut iv = Intervals::default();
        assert!(iv.is_empty());
        iv.add(10, 20);
        iv.add(30, 40);
        iv.add(20, 30); // bridges the gap
        assert_eq!(iv.covered_end(10), Some(40));
        assert_eq!(iv.covered_end(39), Some(40));
        assert_eq!(iv.covered_end(40), None);
        assert!(!iv.contains(9));
        assert!(iv.contains(25));
        iv.add(50, 60);
        assert_eq!(iv.next_start_after(40), Some(50));
        assert_eq!(iv.next_start_after(55), None);
        assert_eq!(iv.next_start_after(0), Some(10));
        iv.add(0, 0); // empty interval is a no-op
        assert_eq!(iv.covered_end(0), None);
    }

    #[test]
    fn file_appends_are_replayable_and_prune_corrupt_tails() {
        let dir = std::env::temp_dir().join(format!(
            "cswckpt-test-{}-{:x}",
            std::process::id(),
            run_fingerprint(
                "uniq",
                b"file_appends",
                &Database::new("e", sw_align::Alphabet::Protein, vec![])
            )
        ));
        let path = dir.join("log.ckpt");
        let records = sample_records();

        let (mut f, issue) = CheckpointFile::open(&path, 42).unwrap();
        assert_eq!(issue, None);
        assert!(f.records().is_empty());
        f.append(records[0].clone()).unwrap();
        f.append(records[1].clone()).unwrap();
        assert_eq!(f.fingerprint(), 42);

        // Reopen: both records replay.
        let (f2, issue) = CheckpointFile::open(&path, 42).unwrap();
        assert_eq!(issue, None);
        assert_eq!(f2.records(), &records[..]);

        // Torn append: truncate mid-record, reopen keeps the prefix and a
        // further append continues from there.
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let (mut f3, issue) = CheckpointFile::open(&path, 42).unwrap();
        assert_eq!(issue, Some(LoadIssue::CorruptTail));
        assert_eq!(f3.records(), &records[..1]);
        f3.append(records[1].clone()).unwrap();
        let (f4, _) = CheckpointFile::open(&path, 42).unwrap();
        assert_eq!(f4.records(), &records[..]);

        // A different run ignores the log entirely.
        let (f5, issue) = CheckpointFile::open(&path, 77).unwrap();
        assert_eq!(issue, Some(LoadIssue::FingerprintMismatch));
        assert!(f5.records().is_empty());

        fs::remove_dir_all(&dir).ok();
    }
}
