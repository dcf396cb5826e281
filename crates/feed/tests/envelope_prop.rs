//! Totality of the envelope every binary state format shares (feed
//! `DOF1`, pub/sub `DOP1`, sketchwire `SKW1`, store `DOSF`): payloads
//! survive any segmentation, every single-byte flip and every truncation
//! is a typed outcome, an oversized length is sticky, garbage never
//! panics, and a CRC failure leaves the stream aligned. The per-format
//! suites keep only their payload-level cases.

use feed::envelope::{Format, Reader, HEADER_LEN, TRAILER_LEN};
use feed::FeedError;
use proptest::prelude::*;

const FORMAT: Format = Format {
    magic: *b"TST1",
    version: 2,
    max_len: 256,
};

fn stream_of(payloads: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::new();
    for p in payloads {
        FORMAT.write(&mut out, |o| o.extend_from_slice(p));
    }
    out
}

/// Split `bytes` at the given points into successive chunks.
fn chunk_at(bytes: &[u8], cuts: &[usize]) -> Vec<Vec<u8>> {
    let mut points: Vec<usize> = cuts.iter().map(|&c| c % (bytes.len() + 1)).collect();
    points.sort_unstable();
    points.dedup();
    let mut chunks = Vec::new();
    let mut prev = 0;
    for p in points {
        chunks.push(bytes[prev..p].to_vec());
        prev = p;
    }
    chunks.push(bytes[prev..].to_vec());
    chunks
}

/// Everything a reader hands out for `stream` pushed in one piece, up to
/// its first error (which is returned alongside).
fn read_stream(stream: &[u8]) -> (Vec<Vec<u8>>, Option<FeedError>) {
    let mut reader = Reader::new(FORMAT);
    reader.push(stream);
    let mut got = Vec::new();
    loop {
        match reader.next_payload() {
            Ok(Some(p)) => got.push(p.to_vec()),
            Ok(None) => return (got, None),
            Err(e) => return (got, Some(e)),
        }
    }
}

fn arb_payloads() -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::vec(prop::collection::vec(any::<u8>(), 0..=48), 1..=4)
}

proptest! {
    /// Any payloads survive any segmentation of the stream, through the
    /// streaming reader and the strict whole-buffer decoder alike.
    #[test]
    fn roundtrip_under_any_segmentation(
        payloads in arb_payloads(),
        cuts in prop::collection::vec(any::<usize>(), 0..=9),
    ) {
        let stream = stream_of(&payloads);
        let mut reader = Reader::new(FORMAT);
        let mut got = Vec::new();
        for chunk in chunk_at(&stream, &cuts) {
            reader.push(&chunk);
            while let Some(p) = reader.next_payload().expect("clean stream") {
                got.push(p.to_vec());
            }
        }
        prop_assert_eq!(&got, &payloads);
        prop_assert_eq!(reader.buffered(), 0);
        let all = FORMAT.decode_all(&stream, |p| Ok(p.to_vec())).expect("clean buffer");
        prop_assert_eq!(&all, &payloads);
    }

    /// Flipping any single byte of an envelope is a typed error on a
    /// complete buffer, and never yields a payload from the stream
    /// reader (a grown length only makes it wait).
    #[test]
    fn every_single_byte_flip_is_a_typed_error(
        payload in prop::collection::vec(any::<u8>(), 0..=48),
        flip in 1u8..=255,
    ) {
        let stream = stream_of(&[payload]);
        for pos in 0..stream.len() {
            let mut bad = stream.clone();
            bad[pos] ^= flip;
            let strict = FORMAT.decode_all(&bad, |p| Ok(p.to_vec()));
            prop_assert!(strict.is_err(), "flip at {} decoded cleanly", pos);
            let (got, _) = read_stream(&bad);
            prop_assert!(got.is_empty(), "flip at {} yielded a payload", pos);
        }
    }

    /// Every truncation waits on a stream and is `Truncated` on a
    /// complete buffer (a cut on an envelope boundary is a shorter valid
    /// stream).
    #[test]
    fn every_truncation_is_none_or_truncated(payloads in arb_payloads()) {
        let stream = stream_of(&payloads);
        let mut boundaries = vec![0];
        for p in &payloads {
            boundaries.push(boundaries.last().unwrap() + HEADER_LEN + p.len() + TRAILER_LEN);
        }
        for cut in 0..=stream.len() {
            let whole = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            let (got, err) = read_stream(&stream[..cut]);
            prop_assert_eq!(err, None);
            prop_assert_eq!(&got[..], &payloads[..whole]);
            match FORMAT.decode_all(&stream[..cut], |p| Ok(p.to_vec())) {
                Ok(all) => {
                    prop_assert!(boundaries.contains(&cut), "cut at {} accepted", cut);
                    prop_assert_eq!(&all[..], &payloads[..whole]);
                }
                Err(e) => prop_assert!(matches!(e, FeedError::Truncated(_)), "cut at {}: {}", cut, e),
            }
        }
    }

    /// A declared length above the format maximum is fatal and sticky:
    /// valid envelopes pushed afterwards are never decoded.
    #[test]
    fn oversized_length_is_sticky(
        excess in 1u32..=u32::MAX - 256,
        payloads in arb_payloads(),
    ) {
        let mut header = FORMAT.magic.to_vec();
        header.push(FORMAT.version);
        header.extend_from_slice(&(256 + excess).to_le_bytes());
        let mut reader = Reader::new(FORMAT);
        reader.push(&header);
        let err = reader.next_payload().unwrap_err();
        prop_assert_eq!(&err, &FeedError::TooLarge { len: 256 + excess as usize, max: 256 });
        prop_assert!(err.is_fatal());
        reader.push(&stream_of(&payloads));
        for _ in 0..payloads.len() + 1 {
            prop_assert_eq!(reader.next_payload().unwrap_err(), err.clone());
        }
    }

    /// Arbitrary bytes never panic any entry point; a stream's first error
    /// that is fatal repeats.
    #[test]
    fn arbitrary_bytes_never_panic(
        mut bytes in prop::collection::vec(any::<u8>(), 0..=96),
        magic_prefix in any::<bool>(),
    ) {
        if magic_prefix && bytes.len() >= 5 {
            // Reach past the magic and version checks too.
            bytes[..4].copy_from_slice(&FORMAT.magic);
            bytes[4] = FORMAT.version;
        }
        let _ = FORMAT.open(&bytes);
        let _ = FORMAT.decode_all(&bytes, |p| Ok(p.len()));
        let mut reader = Reader::new(FORMAT);
        reader.push(&bytes);
        for _ in 0..bytes.len() + 2 {
            match reader.next_payload() {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(e) if e.is_fatal() => {
                    prop_assert_eq!(reader.next_payload().unwrap_err(), e);
                    break;
                }
                Err(_) => {}
            }
        }
    }

    /// A CRC failure consumes its envelope: the next one still decodes.
    #[test]
    fn crc_error_still_decodes_next_frame(
        payloads in arb_payloads(),
        pos in any::<usize>(),
        flip in 1u8..=255,
    ) {
        let first = stream_of(&payloads[..1]);
        // Damage the payload or CRC of the first envelope, not its header.
        let pos = HEADER_LEN + pos % (first.len() - HEADER_LEN);
        let mut stream = stream_of(&payloads);
        stream[pos] ^= flip;
        let mut reader = Reader::new(FORMAT);
        reader.push(&stream);
        let crc_failed = matches!(reader.next_payload(), Err(FeedError::Crc { .. }));
        prop_assert!(crc_failed, "damage at {} was not a CRC error", pos);
        let mut rest = Vec::new();
        while let Some(p) = reader.next_payload().expect("aligned after a CRC error") {
            rest.push(p.to_vec());
        }
        prop_assert_eq!(&rest[..], &payloads[1..]);
    }
}
