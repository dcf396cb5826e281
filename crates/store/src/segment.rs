//! Segment file codec: the store's immutable on-disk unit.
//!
//! A segment holds serialized [`WindowState`] records between a fixed
//! header and a footer *index* that is readable from the file tail
//! without decoding any record:
//!
//! ```text
//! header  (8)  "DOSG" | version u8 | level u8 | reserved u16
//! records (..) N × SKW1 record            (sketchwire::write_record)
//! footer  (..) one "DOSF" envelope        (feed::envelope)
//! trailer (8)  footer_envelope_len u32 LE | "DOSE"
//! ```
//!
//! The footer payload carries the segment's time range, window and
//! record counts, dataset names, and a [`KeyBloom`] over every entry
//! key — everything a query needs to decide whether the record body is
//! worth decoding. The trailer's length-then-magic lets a reader find
//! the footer with one seek from the end.
//!
//! Decoding is total: every malformed input — truncated file, flipped
//! byte, impossible length — maps to a typed [`StoreError`] naming the
//! segment, never a panic.

use crate::bloom::KeyBloom;
use crate::StoreError;
use feed::envelope::Format;
use feed::{ByteReader, FeedError};
use sketchwire::WindowState;
use std::collections::BTreeSet;

/// Segment header magic.
pub const SEGMENT_MAGIC: [u8; 4] = *b"DOSG";
/// Footer envelope magic.
pub const FOOTER_MAGIC: [u8; 4] = *b"DOSF";
/// Trailer end magic.
pub const END_MAGIC: [u8; 4] = *b"DOSE";
/// Segment format version, in the header and the footer envelope.
pub const SEGMENT_VERSION: u8 = 2;

/// The footer envelope; a larger footer is corruption.
const FOOTER: Format = Format {
    magic: FOOTER_MAGIC,
    version: SEGMENT_VERSION,
    max_len: 16 << 20,
};

/// Fixed header length.
const HEADER_LEN: usize = 8;
/// Fixed trailer length (footer-envelope length + end magic).
const TRAILER_LEN: usize = 8;

/// Microseconds per second — the same window-key convention the
/// aggregator uses on the wire (`window_us = round(start · 10⁶)`).
const US: f64 = 1e6;

/// A window's µs key from its start time.
pub fn window_us(start: f64) -> u64 {
    (start * US).round() as u64
}

/// The decoded footer index of one segment.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentFooter {
    /// Compaction level (0 = raw appends, then hour/day/month).
    pub level: u8,
    /// Earliest window start in the segment, µs.
    pub start_us: u64,
    /// Latest window end (start + length) in the segment, µs.
    pub end_us: u64,
    /// Serialized record count.
    pub records: u32,
    /// Distinct window starts covered.
    pub windows: u32,
    /// Sorted distinct dataset names present.
    pub datasets: Vec<String>,
    /// Bloom over every entry key in the segment.
    pub bloom: KeyBloom,
}

/// Encode a complete segment for `states` at compaction `level`.
///
/// Returns the file image and its footer. `states` must be non-empty;
/// the footer's time range and window count are derived from the states
/// themselves, so the index can never disagree with the body.
pub fn encode_segment(level: u8, states: &[WindowState]) -> (Vec<u8>, SegmentFooter) {
    assert!(!states.is_empty(), "a segment holds at least one record");
    let mut out = Vec::new();
    out.extend_from_slice(&SEGMENT_MAGIC);
    out.push(SEGMENT_VERSION);
    out.push(level);
    out.extend_from_slice(&[0u8, 0u8]);

    let mut windows = BTreeSet::new();
    let mut datasets = BTreeSet::new();
    let mut nkeys = 0usize;
    let (mut start_us, mut end_us) = (u64::MAX, 0u64);
    for ws in states {
        sketchwire::write_record(ws, &mut out);
        windows.insert(window_us(ws.start));
        datasets.insert(ws.topk.dataset.clone());
        nkeys += ws.topk.entries.len();
        start_us = start_us.min(window_us(ws.start));
        end_us = end_us.max(window_us(ws.start + ws.length));
    }
    let mut bloom = KeyBloom::with_keys(nkeys);
    for ws in states {
        for e in &ws.topk.entries {
            bloom.insert(e.key.as_bytes());
        }
    }
    let footer = SegmentFooter {
        level,
        start_us,
        end_us,
        records: states.len() as u32,
        windows: windows.len() as u32,
        datasets: datasets.into_iter().collect(),
        bloom,
    };
    let footer_start = out.len();
    FOOTER.write(&mut out, |payload| encode_footer(&footer, payload));
    let footer_len = (out.len() - footer_start) as u32;
    out.extend_from_slice(&footer_len.to_le_bytes());
    out.extend_from_slice(&END_MAGIC);
    (out, footer)
}

fn encode_footer(f: &SegmentFooter, payload: &mut Vec<u8>) {
    payload.push(f.level);
    payload.extend_from_slice(&f.start_us.to_le_bytes());
    payload.extend_from_slice(&f.end_us.to_le_bytes());
    payload.extend_from_slice(&f.records.to_le_bytes());
    payload.extend_from_slice(&f.windows.to_le_bytes());
    payload.extend_from_slice(&(f.datasets.len() as u16).to_le_bytes());
    for name in &f.datasets {
        payload.extend_from_slice(&(name.len() as u16).to_le_bytes());
        payload.extend_from_slice(name.as_bytes());
    }
    payload.extend_from_slice(&(f.bloom.bits().len() as u32).to_le_bytes());
    payload.extend_from_slice(f.bloom.bits());
}

fn decode_footer(payload: &[u8]) -> Result<SegmentFooter, FeedError> {
    let mut r = ByteReader::new(payload);
    let level = r.u8("footer level")?;
    let start_us = r.u64("footer start")?;
    let end_us = r.u64("footer end")?;
    if end_us < start_us {
        return Err(FeedError::Invalid("footer time range inverted"));
    }
    let records = r.u32("footer records")?;
    let windows = r.u32("footer windows")?;
    let nds = r.u16("footer dataset count")?;
    let mut datasets = Vec::with_capacity(nds as usize);
    for _ in 0..nds {
        let len = r.u16("footer dataset name")?;
        let raw = r.bytes(len as usize, "footer dataset name")?;
        let name =
            std::str::from_utf8(raw).map_err(|_| FeedError::Invalid("dataset name not utf-8"))?;
        datasets.push(name.to_string());
    }
    let bloom_len = r.u32("footer bloom length")?;
    let bits = r.bytes(bloom_len as usize, "footer bloom")?;
    let bloom = KeyBloom::from_bits(bits.to_vec()).ok_or(FeedError::Invalid("bad bloom length"))?;
    r.finish()?;
    Ok(SegmentFooter {
        level,
        start_us,
        end_us,
        records,
        windows,
        datasets,
        bloom,
    })
}

fn corrupt(segment: &str, what: &'static str) -> StoreError {
    StoreError::Corrupt {
        segment: segment.to_string(),
        what,
    }
}

fn bad(segment: &str) -> impl FnOnce(FeedError) -> StoreError + '_ {
    move |source| StoreError::Segment {
        segment: segment.to_string(),
        source,
    }
}

/// Decode only the footer index of a segment image (header + tail are
/// validated; the record body is *not* decoded). Returns the footer and
/// the byte range of the record region.
pub fn read_footer(
    bytes: &[u8],
    segment: &str,
) -> Result<(SegmentFooter, std::ops::Range<usize>), StoreError> {
    if bytes.len() < HEADER_LEN + TRAILER_LEN {
        return Err(corrupt(segment, "file shorter than header + trailer"));
    }
    if bytes[..4] != SEGMENT_MAGIC {
        return Err(corrupt(segment, "bad segment magic"));
    }
    if bytes[4] != SEGMENT_VERSION {
        return Err(corrupt(segment, "unsupported segment version"));
    }
    let header_level = bytes[5];
    if bytes[6] != 0 || bytes[7] != 0 {
        return Err(corrupt(segment, "reserved header bytes not zero"));
    }
    let tail = &bytes[bytes.len() - TRAILER_LEN..];
    if tail[4..] != END_MAGIC {
        return Err(corrupt(segment, "bad end magic"));
    }
    let footer_len = u32::from_le_bytes([tail[0], tail[1], tail[2], tail[3]]) as usize;
    let body_len = bytes.len() - TRAILER_LEN;
    let footer_start = body_len
        .checked_sub(footer_len)
        .filter(|&s| s >= HEADER_LEN)
        .ok_or_else(|| corrupt(segment, "footer overlaps header"))?;
    let payload = FOOTER
        .open(&bytes[footer_start..body_len])
        .map_err(bad(segment))?;
    let footer = decode_footer(payload).map_err(bad(segment))?;
    if footer.level != header_level {
        return Err(corrupt(segment, "footer level disagrees with header"));
    }
    Ok((footer, HEADER_LEN..footer_start))
}

/// Decode a whole segment image: footer, then every record, with the
/// footer's record count cross-checked against the body.
pub fn decode_segment(
    bytes: &[u8],
    segment: &str,
) -> Result<(SegmentFooter, Vec<WindowState>), StoreError> {
    let (footer, body) = read_footer(bytes, segment)?;
    let states = sketchwire::read_all(&bytes[body]).map_err(bad(segment))?;
    if states.len() != footer.records as usize {
        return Err(corrupt(segment, "footer record count disagrees with body"));
    }
    Ok((footer, states))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketchwire::{FeatureState, TopKEntry, TopKState};

    fn tiny_state(start: f64, dataset: &str, keys: &[&str]) -> WindowState {
        let entries = keys
            .iter()
            .enumerate()
            .map(|(i, k)| TopKEntry {
                key: k.to_string(),
                count: 5 + i as u64,
                error: 0,
                inserted_at: 0.0,
                features: FeatureState {
                    adds: vec![3, 1],
                    maxes: vec![2],
                    hlls: vec![],
                    source_cap: 4,
                    sources: vec![1],
                    tops: vec![],
                    hists: vec![],
                },
            })
            .collect();
        WindowState {
            upstream: 1,
            start,
            length: 600.0,
            topk: TopKState {
                dataset: dataset.to_string(),
                capacity: 8,
                observed: 20,
                min_count: 0,
                error_bound: 2,
                evictions: 0,
                kept: 10,
                dropped: 0,
                filtered: 0,
                chunk: 0,
                chunks: 1,
                entries,
                gate: None,
            },
        }
    }

    #[test]
    fn roundtrip_and_footer_index() {
        let states = vec![
            tiny_state(0.0, "esld", &["a.example", "b.example"]),
            tiny_state(600.0, "esld", &["a.example"]),
            tiny_state(600.0, "qtype", &["A", "AAAA"]),
        ];
        let (bytes, footer) = encode_segment(0, &states);
        assert_eq!(footer.records, 3);
        assert_eq!(footer.windows, 2);
        assert_eq!(footer.start_us, 0);
        assert_eq!(footer.end_us, 1_200_000_000);
        assert_eq!(footer.datasets, vec!["esld", "qtype"]);
        assert!(footer.bloom.maybe_contains(b"a.example"));

        let (tail_footer, _) = read_footer(&bytes, "t.seg").expect("footer");
        assert_eq!(tail_footer, footer);
        let (full_footer, back) = decode_segment(&bytes, "t.seg").expect("decode");
        assert_eq!(full_footer, footer);
        assert_eq!(back, states);
    }

    #[test]
    fn truncation_anywhere_is_a_typed_error() {
        let (bytes, _) = encode_segment(1, &[tiny_state(0.0, "esld", &["a"])]);
        for cut in 0..bytes.len() {
            let err = decode_segment(&bytes[..cut], "t.seg").expect_err("truncated");
            assert_eq!(err.bad_segment(), Some("t.seg"), "cut at {cut}: {err}");
        }
    }

    #[test]
    fn flipped_byte_is_a_typed_error() {
        let (bytes, _) = encode_segment(0, &[tiny_state(0.0, "esld", &["a", "b"])]);
        // Flipping any single byte must never produce a clean decode of
        // different content, and must never panic.
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            if let Ok((_, states)) = decode_segment(&bad, "t.seg") {
                panic!("flip at {i} decoded cleanly to {} states", states.len());
            }
        }
    }

    /// A segment in the version-1 layout (no footer envelope version), as
    /// the previous release wrote it, is refused with a typed error that
    /// names the segment.
    #[test]
    fn version_1_segment_is_rejected() {
        let v1 = "444f534701000000534b57310142000000010000000000c082400000000000c0\
                  82400465736c6408140002000a000000010109612e6578616d706c6505010000\
                  0000000000000203010102000401010000000022088323444f53462d00000000\
                  0046c32300000000008c86470000000001000000010000000100040065736c64\
                  08000000000008000003004027d1159139000000444f5345";
        let bytes: Vec<u8> = (0..v1.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&v1[i..i + 2], 16).unwrap())
            .collect();
        assert_eq!(bytes.len(), 152);
        let err = decode_segment(&bytes, "v1.seg").expect_err("v1 refused");
        assert_eq!(err.bad_segment(), Some("v1.seg"));
        assert!(matches!(
            err,
            StoreError::Corrupt {
                what: "unsupported segment version",
                ..
            }
        ));
    }
}
