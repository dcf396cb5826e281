//! Property tests for the feed codec: any representable `TxSummary` must
//! survive the sensor→collector wire byte-for-byte, under any TCP
//! segmentation, and single-byte corruption must be *detected* — a clean
//! error or a wait-for-more-bytes, never a panic and never a silently
//! different summary.

use dns_observatory::{Outcome, TxSummary};
use dnswire::{Name, RecordType};
use feed::frame::{decode_payload, encode_frame};
use feed::{ByteReader, FeedError, FeedItem, Frame, FrameReader};
use proptest::prelude::*;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

fn arb_label() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(
        prop_oneof![
            prop::char::range('a', 'z').prop_map(|c| c as u8),
            prop::char::range('0', '9').prop_map(|c| c as u8),
            Just(b'-'),
        ],
        1..=12,
    )
}

fn arb_name() -> impl Strategy<Value = Name> {
    prop::collection::vec(arb_label(), 0..=5).prop_map(|labels| {
        if labels.is_empty() {
            Name::root()
        } else {
            Name::from_labels(labels).expect("labels are valid")
        }
    })
}

fn arb_ip() -> impl Strategy<Value = IpAddr> {
    prop_oneof![
        any::<u32>().prop_map(|v| IpAddr::V4(Ipv4Addr::from(v))),
        any::<u64>().prop_map(|v| IpAddr::V6(Ipv6Addr::from((v as u128) << 64 | 0x1))),
    ]
}

fn arb_outcome() -> impl Strategy<Value = Outcome> {
    any::<u8>().prop_map(|v| match v % 6 {
        0 => Outcome::Unanswered,
        1 => Outcome::NoError,
        2 => Outcome::NxDomain,
        3 => Outcome::Refused,
        4 => Outcome::ServFail,
        _ => Outcome::OtherError,
    })
}

fn arb_opt_string() -> impl Strategy<Value = Option<String>> {
    prop::option::of(
        prop::collection::vec(prop::char::range('a', 'z'), 0..=12)
            .prop_map(|chars| chars.into_iter().collect::<String>()),
    )
}

// The stub's tuple strategies cap out well below TxSummary's field
// count, so the struct is generated in three slices and stitched.

prop_compose! {
    fn arb_question()(
        time in 0.0f64..1e9,
        resolver in arb_ip(),
        contributor in any::<u16>(),
        nameserver in arb_ip(),
        qname in arb_name(),
        qtype_code in any::<u16>(),
        qdots in any::<u8>(),
        outcome in arb_outcome(),
    ) -> (f64, IpAddr, u16, IpAddr, Name, u16, u8, Outcome) {
        (time, resolver, contributor, nameserver, qname, qtype_code, qdots, outcome)
    }
}

prop_compose! {
    fn arb_answer()(
        bools in prop::collection::vec(any::<bool>(), 6),
        answer_count in any::<u8>(),
        authority_ns_count in any::<u8>(),
        ip4s in prop::collection::vec(any::<u32>().prop_map(Ipv4Addr::from), 0..=4),
        ip6s in prop::collection::vec(
            any::<u64>().prop_map(|v| Ipv6Addr::from((v as u128) << 32)), 0..=3),
        answer_ttl in prop::option::of(any::<u32>()),
        ns_ttl in prop::option::of(any::<u32>()),
        soa_minimum in prop::option::of(any::<u32>()),
    ) -> (Vec<bool>, u8, u8, Vec<Ipv4Addr>, Vec<Ipv6Addr>, Option<u32>, Option<u32>, Option<u32>) {
        (bools, answer_count, authority_ns_count, ip4s, ip6s, answer_ttl, ns_ttl, soa_minimum)
    }
}

prop_compose! {
    fn arb_extras()(
        delay_ms in prop::option::of(0.0f64..1e6),
        hops in prop::option::of(any::<u8>()),
        resp_size in prop::option::of(any::<u32>()),
        answer_data_hashes in prop::collection::vec(any::<u64>(), 0..=6),
        ns_name_hashes in prop::collection::vec(any::<u64>(), 0..=6),
        etld in arb_opt_string(),
        esld in arb_opt_string(),
        tld in arb_opt_string(),
    ) -> (Option<f64>, Option<u8>, Option<u32>, Vec<u64>, Vec<u64>,
          Option<String>, Option<String>, Option<String>) {
        (delay_ms, hops, resp_size, answer_data_hashes, ns_name_hashes, etld, esld, tld)
    }
}

prop_compose! {
    fn arb_summary()(
        q in arb_question(),
        a in arb_answer(),
        x in arb_extras(),
    ) -> TxSummary {
        let (time, resolver, contributor, nameserver, qname, qtype_code, qdots, outcome) = q;
        let (bools, answer_count, authority_ns_count, ip4s, ip6s, answer_ttl, ns_ttl, soa_minimum) = a;
        let (delay_ms, hops, resp_size, answer_data_hashes, ns_name_hashes, etld, esld, tld) = x;
        TxSummary {
            time,
            resolver,
            contributor,
            nameserver,
            qname,
            qtype: RecordType::from_code(qtype_code),
            qdots,
            outcome,
            aa: bools[0],
            ok_ans: bools[1],
            ok_ns: bools[2],
            ok_add: bools[3],
            do_flag: bools[4],
            dnssec_ok: bools[5],
            answer_count,
            authority_ns_count,
            ip4s,
            ip6s,
            answer_ttl,
            ns_ttl,
            soa_minimum,
            delay_ms,
            hops,
            resp_size,
            answer_data_hashes,
            ns_name_hashes,
            etld,
            esld,
            tld,
        }
    }
}

/// Split `bytes` at the given fractions into successive chunks.
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

proptest! {
    /// Item codec: arbitrary summaries round-trip exactly (Debug covers
    /// every field, including NaN-stable float rendering).
    #[test]
    fn summary_roundtrips(summary in arb_summary()) {
        let mut buf = Vec::new();
        summary.encode(&mut buf);
        let mut r = ByteReader::new(&buf);
        let back = TxSummary::decode(&mut r).expect("valid encoding decodes");
        prop_assert!(r.is_empty(), "decoder must consume exactly what encode wrote");
        prop_assert_eq!(format!("{:?}", summary), format!("{:?}", back));
    }

    /// Frame + stream layer: a batch of arbitrary summaries survives any
    /// TCP segmentation of the byte stream.
    #[test]
    fn batch_roundtrips_under_any_segmentation(
        items in prop::collection::vec(arb_summary(), 0..=4),
        sensor in any::<u64>(),
        seq in any::<u64>(),
        cuts in prop::collection::vec(any::<usize>(), 0..=9),
    ) {
        let frame = Frame::Batch { sensor, seq, items };
        let mut stream = Vec::new();
        encode_frame(&frame, &mut stream);
        let mut reader = FrameReader::<TxSummary>::new();
        let mut got = Vec::new();
        for chunk in chunk_at(&stream, &cuts) {
            reader.push(&chunk);
            while let Some(f) = reader.next_frame().expect("clean stream decodes") {
                got.push(f);
            }
        }
        prop_assert_eq!(got.len(), 1);
        prop_assert_eq!(format!("{:?}", &got[0]), format!("{:?}", &frame));
    }

    /// Integrity: flip any single byte anywhere in the encoded stream —
    /// the reader must either report an error, keep waiting for bytes
    /// (corrupted length prefix), or in no case hand back a frame that
    /// differs from what was sent.
    #[test]
    fn single_byte_corruption_never_silently_wrong(
        items in prop::collection::vec(arb_summary(), 1..=3),
        pos in any::<usize>(),
        flip in 1u8..=255,
    ) {
        let frame = Frame::Batch { sensor: 1, seq: 0, items };
        let mut stream = Vec::new();
        encode_frame(&frame, &mut stream);
        let pos = pos % stream.len();
        stream[pos] ^= flip;

        let mut reader = FrameReader::<TxSummary>::new();
        reader.push(&stream);
        match reader.next_frame() {
            Err(_) => {}        // detected: CRC, framing, or decode error
            Ok(None) => {}      // length prefix grew: reader waits, no lie
            Ok(Some(got)) => {
                prop_assert_eq!(
                    format!("{:?}", got), format!("{:?}", frame),
                    "corruption at byte {} (^{:#04x}) produced a different frame",
                    pos, flip
                );
            }
        }
    }

    /// Robustness: arbitrary garbage never panics the reader and never
    /// yields a frame from thin air with a valid CRC… statistically.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..=64)) {
        let mut reader = FrameReader::<TxSummary>::new();
        reader.push(&bytes);
        // Drain until the reader wants more input or errors; either is fine.
        while let Ok(Some(_)) = reader.next_frame() {}
    }

    /// The payload decoder itself (CRC already verified) also never
    /// panics on arbitrary bytes.
    #[test]
    fn decode_payload_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..=64)) {
        let _ = decode_payload::<TxSummary>(&bytes);
    }
}

/// Deterministic spot-check of CRC detection: every single-byte flip
/// inside the payload and CRC of a HELLO must fail the CRC (guaranteed
/// for CRC-32 burst errors ≤ 32 bits), not just be caught incidentally.
/// Header flips are the envelope's and covered by its own suite.
#[test]
fn every_payload_byte_flip_fails_crc() {
    let frame: Frame<TxSummary> = Frame::Hello {
        sensor: 42,
        next_seq: 7,
        item_version: TxSummary::ITEM_VERSION,
    };
    let mut stream = Vec::new();
    encode_frame(&frame, &mut stream);
    for pos in feed::envelope::HEADER_LEN..stream.len() {
        let mut bad = stream.clone();
        bad[pos] ^= 0xa5;
        let mut reader = FrameReader::<TxSummary>::new();
        reader.push(&bad);
        assert!(
            matches!(reader.next_frame(), Err(FeedError::Crc { .. })),
            "flip at {pos} went undetected"
        );
    }
}
