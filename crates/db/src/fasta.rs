//! FASTA parsing and writing.
//!
//! The real CUDASW++ consumes FASTA protein databases (Swissprot etc.).
//! This module provides a strict, streaming parser over any `BufRead`
//! plus a writer, so users can run the reproduction against their own
//! FASTA files.
//!
//! The parser treats its input as **hostile**: it reads bytes (not
//! `String` lines), accepts LF / CRLF / lone-CR line endings, bounds
//! every line at [`MAX_LINE_BYTES`] so a malformed multi-gigabyte
//! "line" cannot exhaust memory, and turns every malformed shape —
//! truncated records, non-UTF-8 headers, non-ASCII residue bytes, empty
//! input — into a typed [`FastaError`]. It never panics.

use crate::database::{Database, Sequence};
use std::fmt;
use std::io::{self, BufRead, Write};
use sw_align::Alphabet;

/// Upper bound on one logical line, bytes (1 MiB). Real FASTA wraps at
/// 60–120 columns; a line beyond this is a malformed or adversarial
/// file, and the parser refuses it *without buffering it first*.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// FASTA-level errors.
#[derive(Debug)]
pub enum FastaError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Residue characters outside the alphabet.
    BadResidue {
        /// 1-based line number.
        line: usize,
        /// Offending character.
        ch: char,
    },
    /// A residue byte outside ASCII (no protein/DNA alphabet has any;
    /// binary or multi-byte-encoded input lands here with the byte
    /// preserved, where a lossy `char` decode would mangle it).
    NonAsciiResidue {
        /// 1-based line number.
        line: usize,
        /// Offending byte.
        byte: u8,
    },
    /// A header line that is not valid UTF-8 (ids and descriptions are
    /// `String`s downstream).
    InvalidUtf8 {
        /// 1-based line number.
        line: usize,
    },
    /// A line longer than [`MAX_LINE_BYTES`] — malformed or adversarial
    /// input; the parser stops before buffering the whole line.
    LineTooLong {
        /// 1-based line number.
        line: usize,
        /// The enforced bound, bytes.
        limit: usize,
    },
    /// The input contained no records at all (empty file, or whitespace
    /// only). Explicit because an accidentally empty database path
    /// otherwise surfaces much later as a mysteriously empty result.
    EmptyInput,
    /// Sequence data before any `>` header.
    MissingHeader {
        /// 1-based line number.
        line: usize,
    },
    /// A header with no sequence lines following it.
    EmptyRecord {
        /// The record's id.
        id: String,
    },
    /// A `>` header with no id at all (anonymous records would collide
    /// in any downstream index keyed by id).
    EmptyId {
        /// 1-based line number of the header.
        line: usize,
    },
    /// Two records share the same id.
    DuplicateId {
        /// The repeated id.
        id: String,
        /// 1-based line number of the second header.
        line: usize,
    },
}

impl fmt::Display for FastaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FastaError::Io(e) => write!(f, "I/O error: {e}"),
            FastaError::BadResidue { line, ch } => {
                write!(f, "invalid residue {ch:?} on line {line}")
            }
            FastaError::NonAsciiResidue { line, byte } => {
                write!(f, "non-ASCII residue byte 0x{byte:02x} on line {line}")
            }
            FastaError::InvalidUtf8 { line } => {
                write!(f, "header on line {line} is not valid UTF-8")
            }
            FastaError::LineTooLong { line, limit } => {
                write!(f, "line {line} exceeds the {limit}-byte limit")
            }
            FastaError::EmptyInput => write!(f, "input contains no FASTA records"),
            FastaError::MissingHeader { line } => {
                write!(f, "sequence data before any '>' header on line {line}")
            }
            FastaError::EmptyRecord { id } => write!(f, "record {id:?} has no residues"),
            FastaError::EmptyId { line } => {
                write!(f, "header on line {line} has no id")
            }
            FastaError::DuplicateId { id, line } => {
                write!(f, "duplicate record id {id:?} on line {line}")
            }
        }
    }
}

impl std::error::Error for FastaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FastaError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FastaError {
    fn from(e: io::Error) -> Self {
        FastaError::Io(e)
    }
}

/// Read one logical line (terminated by LF, CRLF, or a lone CR) into
/// `buf` without its terminator. Returns `false` at end of input with
/// nothing read. The line cap is enforced *while* reading, so an
/// adversarial terminator-free stream fails fast instead of being
/// buffered whole.
fn read_logical_line(
    reader: &mut impl BufRead,
    buf: &mut Vec<u8>,
    line_no: usize,
) -> Result<bool, FastaError> {
    buf.clear();
    let mut saw_any = false;
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            return Ok(saw_any);
        }
        saw_any = true;
        if let Some(pos) = chunk.iter().position(|&b| b == b'\n' || b == b'\r') {
            if buf.len() + pos > MAX_LINE_BYTES {
                return Err(FastaError::LineTooLong {
                    line: line_no,
                    limit: MAX_LINE_BYTES,
                });
            }
            let is_cr = chunk[pos] == b'\r';
            buf.extend_from_slice(&chunk[..pos]);
            reader.consume(pos + 1);
            if is_cr {
                // CRLF: the LF is the same terminator, not a blank line.
                let next = reader.fill_buf()?;
                if next.first() == Some(&b'\n') {
                    reader.consume(1);
                }
            }
            return Ok(true);
        }
        let len = chunk.len();
        if buf.len() + len > MAX_LINE_BYTES {
            return Err(FastaError::LineTooLong {
                line: line_no,
                limit: MAX_LINE_BYTES,
            });
        }
        buf.extend_from_slice(chunk);
        reader.consume(len);
    }
}

/// Parse a FASTA stream into sequences encoded over `alphabet`.
///
/// The parser is strict about record identity — every record must carry a
/// unique, non-empty id ([`FastaError::EmptyId`],
/// [`FastaError::DuplicateId`]) — and lenient about line endings: LF,
/// CRLF, and classic-Mac lone-CR files all parse identically. Input with
/// no records at all is refused ([`FastaError::EmptyInput`]).
pub fn parse_fasta(
    mut reader: impl BufRead,
    alphabet: Alphabet,
) -> Result<Vec<Sequence>, FastaError> {
    let mut sequences = Vec::new();
    let mut seen_ids = std::collections::HashSet::new();
    let mut current: Option<Sequence> = None;
    let mut buf = Vec::new();
    let mut line_no = 0usize;
    loop {
        line_no += 1;
        if !read_logical_line(&mut reader, &mut buf, line_no)? {
            break;
        }
        let trimmed = trim_ascii_end(&buf);
        if trimmed.is_empty() {
            continue;
        }
        if trimmed[0] == b'>' {
            if let Some(done) = current.take() {
                if done.is_empty() {
                    return Err(FastaError::EmptyRecord { id: done.id });
                }
                sequences.push(done);
            }
            // Headers become `String`s downstream, so they must be UTF-8;
            // residue lines below are byte-validated instead.
            let header = std::str::from_utf8(&trimmed[1..])
                .map_err(|_| FastaError::InvalidUtf8 { line: line_no })?;
            let mut parts = header.splitn(2, char::is_whitespace);
            let id = parts.next().unwrap_or("").to_string();
            if id.is_empty() {
                return Err(FastaError::EmptyId { line: line_no });
            }
            if !seen_ids.insert(id.clone()) {
                return Err(FastaError::DuplicateId { id, line: line_no });
            }
            let description = parts.next().unwrap_or("").trim().to_string();
            current = Some(Sequence {
                id,
                description,
                residues: Vec::new(),
            });
        } else {
            let seq = current
                .as_mut()
                .ok_or(FastaError::MissingHeader { line: line_no })?;
            for &b in trimmed {
                if b.is_ascii_whitespace() {
                    continue;
                }
                if !b.is_ascii() {
                    return Err(FastaError::NonAsciiResidue {
                        line: line_no,
                        byte: b,
                    });
                }
                let ch = b as char;
                match alphabet.encode_char(ch) {
                    Some(code) => seq.residues.push(code),
                    None => return Err(FastaError::BadResidue { line: line_no, ch }),
                }
            }
        }
    }
    if let Some(done) = current.take() {
        if done.is_empty() {
            return Err(FastaError::EmptyRecord { id: done.id });
        }
        sequences.push(done);
    }
    if sequences.is_empty() {
        return Err(FastaError::EmptyInput);
    }
    Ok(sequences)
}

/// `&[u8]` analogue of `str::trim_end` over ASCII whitespace.
fn trim_ascii_end(bytes: &[u8]) -> &[u8] {
    let mut end = bytes.len();
    while end > 0 && bytes[end - 1].is_ascii_whitespace() {
        end -= 1;
    }
    &bytes[..end]
}

/// Parse a FASTA string into a [`Database`].
pub fn database_from_fasta_str(
    name: impl Into<String>,
    text: &str,
    alphabet: Alphabet,
) -> Result<Database, FastaError> {
    let sequences = parse_fasta(text.as_bytes(), alphabet)?;
    Ok(Database::new(name, alphabet, sequences))
}

/// Write sequences in FASTA format (60 columns per line).
///
/// A record whose header would parse back differently fails the call with
/// [`io::ErrorKind::InvalidInput`] before anything is written: the parser
/// ends an id at the header's first whitespace, a description at its line,
/// and trims the description.
pub fn write_fasta(
    mut writer: impl Write,
    sequences: &[Sequence],
    alphabet: Alphabet,
) -> io::Result<()> {
    for seq in sequences {
        let why = if seq.id.is_empty() {
            "empty id"
        } else if seq.id.contains(char::is_whitespace) {
            "whitespace in the id"
        } else if seq.description.contains(['\n', '\r']) {
            "line break in the description"
        } else if seq.description.trim() != seq.description {
            "whitespace around the description"
        } else {
            continue;
        };
        let msg = format!("record {:?} cannot be written as FASTA: {why}", seq.id);
        return Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
    }
    for seq in sequences {
        if seq.description.is_empty() {
            writeln!(writer, ">{}", seq.id)?;
        } else {
            writeln!(writer, ">{} {}", seq.id, seq.description)?;
        }
        for chunk in seq.residues.chunks(60) {
            let line: String = chunk.iter().map(|&c| alphabet.decode_code(c)).collect();
            writeln!(writer, "{line}")?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
>sp|P1|FIRST first protein
MKVLAW
GGSC
>sp|P2|SECOND
WWWW
";

    #[test]
    fn parses_two_records() {
        let seqs = parse_fasta(SAMPLE.as_bytes(), Alphabet::Protein).unwrap();
        assert_eq!(seqs.len(), 2);
        assert_eq!(seqs[0].id, "sp|P1|FIRST");
        assert_eq!(seqs[0].description, "first protein");
        assert_eq!(seqs[0].len(), 10);
        assert_eq!(seqs[1].id, "sp|P2|SECOND");
        assert_eq!(seqs[1].description, "");
        assert_eq!(seqs[1].len(), 4);
    }

    #[test]
    fn roundtrip_through_writer() {
        let seqs = parse_fasta(SAMPLE.as_bytes(), Alphabet::Protein).unwrap();
        let mut out = Vec::new();
        write_fasta(&mut out, &seqs, Alphabet::Protein).unwrap();
        let reparsed = parse_fasta(out.as_slice(), Alphabet::Protein).unwrap();
        assert_eq!(seqs, reparsed);
    }

    #[test]
    fn every_preset_round_trips_through_fasta() {
        for preset in crate::catalog::PaperDb::all() {
            let db = preset.generate(50, 3);
            let mut out = Vec::new();
            write_fasta(&mut out, db.sequences(), Alphabet::Protein).unwrap();
            let reparsed = parse_fasta(out.as_slice(), Alphabet::Protein).unwrap();
            assert_eq!(reparsed, db.sequences(), "{}", preset.name());
        }
    }

    #[test]
    fn headers_that_would_not_parse_back_are_refused() {
        let with = |id: &str, description: &str| Sequence {
            id: id.into(),
            description: description.into(),
            residues: vec![0],
        };
        for bad in [
            with("", ""),
            with("two words", ""),
            with("tab\tbed", ""),
            with("x", "line\nbreak"),
            with("x", "carriage\rreturn"),
            with("x", " padded"),
        ] {
            let mut out = Vec::new();
            let err = write_fasta(
                &mut out,
                &[with("ok", "fine"), bad.clone()],
                Alphabet::Protein,
            )
            .unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{bad:?}");
            assert!(out.is_empty(), "{bad:?}: wrote {} bytes", out.len());
        }
    }

    #[test]
    fn long_sequence_wraps_at_60() {
        let seq = Sequence::new("long", vec![0u8; 150]);
        let mut out = Vec::new();
        write_fasta(&mut out, &[seq], Alphabet::Protein).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4); // header + 60 + 60 + 30
        assert_eq!(lines[1].len(), 60);
        assert_eq!(lines[3].len(), 30);
    }

    #[test]
    fn missing_header_rejected() {
        let err = parse_fasta("MKVLAW\n".as_bytes(), Alphabet::Protein).unwrap_err();
        assert!(matches!(err, FastaError::MissingHeader { line: 1 }));
    }

    #[test]
    fn bad_residue_rejected_with_line() {
        let text = ">x\nMKO\n";
        let err = parse_fasta(text.as_bytes(), Alphabet::Protein).unwrap_err();
        match err {
            FastaError::BadResidue { line, ch } => {
                assert_eq!(line, 2);
                assert_eq!(ch, 'O');
            }
            other => panic!("unexpected: {other}"),
        }
    }

    #[test]
    fn empty_record_rejected() {
        let text = ">x\n>y\nMK\n";
        let err = parse_fasta(text.as_bytes(), Alphabet::Protein).unwrap_err();
        assert!(matches!(err, FastaError::EmptyRecord { .. }));
        let text2 = ">only\n";
        assert!(matches!(
            parse_fasta(text2.as_bytes(), Alphabet::Protein),
            Err(FastaError::EmptyRecord { .. })
        ));
    }

    #[test]
    fn blank_lines_and_case_tolerated() {
        let text = ">x\n\nmkv\n  \nLAW\n";
        let seqs = parse_fasta(text.as_bytes(), Alphabet::Protein).unwrap();
        assert_eq!(seqs[0].len(), 6);
    }

    #[test]
    fn database_from_str_sorts() {
        let db = database_from_fasta_str("sample", SAMPLE, Alphabet::Protein).unwrap();
        assert_eq!(db.len(), 2);
        assert!(db.sequences()[0].len() <= db.sequences()[1].len());
    }

    #[test]
    fn empty_id_rejected() {
        for text in [">\nMK\n", "> described but anonymous\nMK\n"] {
            let err = parse_fasta(text.as_bytes(), Alphabet::Protein).unwrap_err();
            assert!(matches!(err, FastaError::EmptyId { line: 1 }), "{text:?}");
        }
    }

    #[test]
    fn duplicate_id_rejected_with_line() {
        let text = ">a\nMK\n>b\nVL\n>a other copy\nAW\n";
        let err = parse_fasta(text.as_bytes(), Alphabet::Protein).unwrap_err();
        match err {
            FastaError::DuplicateId { id, line } => {
                assert_eq!(id, "a");
                assert_eq!(line, 5);
            }
            other => panic!("unexpected: {other}"),
        }
    }

    #[test]
    fn crlf_line_endings_parse_like_lf() {
        let crlf = SAMPLE.replace('\n', "\r\n");
        let seqs = parse_fasta(crlf.as_bytes(), Alphabet::Protein).unwrap();
        let lf = parse_fasta(SAMPLE.as_bytes(), Alphabet::Protein).unwrap();
        assert_eq!(seqs, lf);
        assert_eq!(seqs[0].description, "first protein");
    }

    #[test]
    fn dna_alphabet_supported() {
        let text = ">d\nACGTN\n";
        let seqs = parse_fasta(text.as_bytes(), Alphabet::Dna).unwrap();
        assert_eq!(seqs[0].residues, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn lone_cr_line_endings_parse_like_lf() {
        let cr = SAMPLE.replace('\n', "\r");
        let seqs = parse_fasta(cr.as_bytes(), Alphabet::Protein).unwrap();
        let lf = parse_fasta(SAMPLE.as_bytes(), Alphabet::Protein).unwrap();
        assert_eq!(seqs, lf);
    }

    #[test]
    fn mixed_line_endings_parse() {
        let text = ">a one\r\nMKV\rLAW\n>b\rWW\r\n";
        let seqs = parse_fasta(text.as_bytes(), Alphabet::Protein).unwrap();
        assert_eq!(seqs.len(), 2);
        assert_eq!(seqs[0].len(), 6);
        assert_eq!(seqs[1].len(), 2);
    }

    #[test]
    fn missing_final_newline_parses() {
        let seqs = parse_fasta(">x\nMKVL".as_bytes(), Alphabet::Protein).unwrap();
        assert_eq!(seqs[0].len(), 4);
    }

    #[test]
    fn empty_and_whitespace_only_input_rejected() {
        for text in ["", "\n", "  \n\t\n", "\r\n\r\n"] {
            assert!(
                matches!(
                    parse_fasta(text.as_bytes(), Alphabet::Protein),
                    Err(FastaError::EmptyInput)
                ),
                "{text:?}"
            );
        }
    }

    #[test]
    fn non_ascii_residue_byte_rejected_with_position() {
        let bytes = b">x\nMK\xc3\xa9VL\n";
        match parse_fasta(&bytes[..], Alphabet::Protein).unwrap_err() {
            FastaError::NonAsciiResidue { line, byte } => {
                assert_eq!(line, 2);
                assert_eq!(byte, 0xc3);
            }
            other => panic!("unexpected: {other}"),
        }
    }

    #[test]
    fn non_utf8_header_rejected() {
        let bytes = b">id\xff junk\nMK\n";
        assert!(matches!(
            parse_fasta(&bytes[..], Alphabet::Protein),
            Err(FastaError::InvalidUtf8 { line: 1 })
        ));
    }

    #[test]
    fn oversized_line_rejected_without_buffering_it() {
        let mut text = b">x\n".to_vec();
        text.extend(std::iter::repeat_n(b'A', MAX_LINE_BYTES + 10));
        text.push(b'\n');
        match parse_fasta(&text[..], Alphabet::Protein).unwrap_err() {
            FastaError::LineTooLong { line, limit } => {
                assert_eq!(line, 2);
                assert_eq!(limit, MAX_LINE_BYTES);
            }
            other => panic!("unexpected: {other}"),
        }
        // An oversized *terminator-free* stream (no newline at all) must
        // also fail at the cap, not attempt to buffer the input whole.
        let headerless = vec![b'A'; MAX_LINE_BYTES * 2];
        assert!(matches!(
            parse_fasta(&headerless[..], Alphabet::Protein),
            Err(FastaError::LineTooLong { line: 1, .. })
        ));
    }

    #[test]
    fn binary_garbage_yields_typed_errors_never_panics() {
        // Deterministic pseudo-random byte soup, various shapes. The
        // assertion is the absence of panics plus every outcome being a
        // typed error (garbage cannot form a valid record).
        let mut state = 0x9E3779B97F4A7C15u64;
        for len in [0usize, 1, 7, 64, 511, 4096] {
            let bytes: Vec<u8> = (0..len)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (state >> 33) as u8
                })
                .collect();
            let r = parse_fasta(&bytes[..], Alphabet::Protein);
            assert!(r.is_err(), "len={len} parsed as FASTA?");
        }
    }

    #[test]
    fn truncated_header_at_eof_rejected() {
        // A file ending right after a header (truncated download).
        for text in [">last", ">a\nMK\n>last", ">a\nMK\n>last\n \n"] {
            assert!(
                matches!(
                    parse_fasta(text.as_bytes(), Alphabet::Protein),
                    Err(FastaError::EmptyRecord { .. })
                ),
                "{text:?}"
            );
        }
    }
}
