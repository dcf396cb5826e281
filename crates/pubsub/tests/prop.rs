//! Property tests for the subscription wire format and the delta
//! algebra, mirroring `sketchwire/tests/prop.rs`:
//!
//! * **Codec**: every frame round-trips exactly, however the stream is
//!   split. Truncation and corruption are envelope-level and covered once
//!   for every format by `feed/tests/envelope_prop.rs`.
//! * **Delta algebra**: for any window sequence, a snapshot followed by
//!   the per-window deltas reassembles each window's canonical state
//!   exactly — the subscriber's view equals the direct fold.

use proptest::prelude::*;
use pubsub::{
    apply_delta, canonicalize, diff_states, strip_features, EvictReason, Frame, FrameReader, Topic,
    WindowDelta,
};
use sketchwire::{FeatureState, TopKEntry, TopKState, WindowState};

// ---------------------------------------------------------------------
// Strategies.
// ---------------------------------------------------------------------

prop_compose! {
    fn arb_features()(
        adds in prop::collection::vec(0u64..1_000, 0..3),
        maxes in prop::collection::vec(0u64..255, 0..2),
        raw_sources in prop::collection::vec(any::<u16>(), 0..4),
    ) -> FeatureState {
        let mut sources = raw_sources;
        sources.sort_unstable();
        sources.dedup();
        FeatureState {
            adds,
            maxes,
            hlls: Vec::new(),
            source_cap: 8,
            sources,
            tops: Vec::new(),
            hists: Vec::new(),
        }
    }
}

// Tracker state over a small key pool so consecutive samples overlap on
// some keys (unchanged / changed) and differ on others (added /
// removed) — every delta path gets exercised.
prop_compose! {
    fn arb_topk()(
        raw_entries in prop::collection::vec(
            (0usize..8, 1u64..500, 0u64..20, arb_features()),
            0..=6,
        ),
        capacity in 1u64..64,
        extra_observed in 0u64..1_000,
        min_c in 0u64..40,
        bound_extra in 0u64..100,
        evictions in 0u64..50,
        kept in 0u64..1_000,
        dropped in 0u64..100,
        filtered in 0u64..100,
    ) -> TopKState {
        let mut entries: Vec<TopKEntry> = Vec::new();
        for (idx, count, err, features) in raw_entries {
            let key = format!("k{idx}");
            if entries.iter().any(|e| e.key == key) {
                continue;
            }
            entries.push(TopKEntry {
                key,
                count,
                error: err.min(count),
                inserted_at: 0.0,
                features,
            });
        }
        let max_count = entries.iter().map(|e| e.count).max().unwrap_or(0);
        let observed = (max_count + extra_observed).max(entries.len() as u64);
        let min_count = min_c.min(observed);
        for e in &mut entries {
            e.error = e.error.min(min_count);
        }
        TopKState {
            dataset: "esld".to_string(),
            capacity,
            observed,
            min_count,
            error_bound: min_count + bound_extra,
            evictions,
            kept,
            dropped,
            filtered,
            chunk: 0,
            chunks: 1,
            entries,
            gate: None,
        }
    }
}

prop_compose! {
    fn arb_window(window: u64)(topk in arb_topk()) -> WindowState {
        WindowState {
            upstream: 0,
            start: window as f64 * 600.0,
            length: 600.0,
            topk,
        }
    }
}

fn arb_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        // Hello is version-checked at decode time, so only the live
        // protocol round-trips; mismatches are covered by unit tests.
        Just(Frame::Hello {
            item_version: <WindowState as feed::FeedItem>::ITEM_VERSION,
        }),
        prop::collection::vec(
            prop_oneof![
                Just(Topic::Topk),
                Just(Topic::Features),
                Just(Topic::Meta),
                "[a-z]{1,8}".prop_map(Topic::Dataset),
            ],
            0..4,
        )
        .prop_map(|topics| Frame::Subscribe { topics }),
        arb_window(3).prop_map(|ws| Frame::Snapshot(Box::new(ws))),
        (arb_topk(), arb_topk()).prop_map(|(prev, next)| {
            let prev = canonicalize(prev);
            let next = canonicalize(next);
            Frame::Delta(Box::new(diff_states(
                600_000_000,
                &prev,
                1_200_000_000,
                1200.0,
                600.0,
                &next,
            )))
        }),
        (any::<u32>(), prop::collection::vec(any::<u8>(), 0..64)).prop_map(|(start, bytes)| {
            Frame::Meta {
                start_us: start as u64,
                bytes,
            }
        }),
        (0u64..1_000).prop_map(|undelivered| Frame::Evict {
            reason: EvictReason::TooSlow,
            undelivered,
        }),
        Just(Frame::Bye),
    ]
}

fn encode(frame: &Frame) -> Vec<u8> {
    pubsub::encode_frame_vec(frame)
}

fn decode_all(bytes: &[u8]) -> Result<Vec<Frame>, feed::FeedError> {
    let mut rd = FrameReader::new();
    rd.push(bytes);
    let mut out = Vec::new();
    while let Some(f) = rd.next_frame()? {
        out.push(f);
    }
    Ok(out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // --- codec ---------------------------------------------------------

    #[test]
    fn frames_roundtrip(frame in arb_frame()) {
        let back = decode_all(&encode(&frame)).expect("valid frame decodes");
        prop_assert_eq!(back, vec![frame]);
    }

    #[test]
    fn split_delivery_is_invisible(frame in arb_frame(), split in any::<u16>()) {
        // Reassembly across arbitrary read boundaries yields the same
        // frame as one contiguous push.
        let buf = encode(&frame);
        let cut = split as usize % buf.len();
        let mut rd = FrameReader::new();
        rd.push(&buf[..cut]);
        prop_assert!(matches!(rd.next_frame(), Ok(None)) || cut == buf.len());
        rd.push(&buf[cut..]);
        let got = rd.next_frame().expect("whole frame decodes").expect("one frame");
        prop_assert_eq!(got, frame);
    }

    // --- delta algebra -------------------------------------------------

    #[test]
    fn delta_roundtrips_on_the_wire(prev in arb_topk(), next in arb_topk()) {
        let prev = canonicalize(prev);
        let next = canonicalize(next);
        let d = diff_states(600_000_000, &prev, 1_200_000_000, 1200.0, 600.0, &next);
        let mut buf = Vec::new();
        d.encode(&mut buf);
        let mut r = feed::ByteReader::new(&buf);
        let back = WindowDelta::decode(&mut r).expect("valid delta decodes");
        prop_assert!(r.is_empty(), "decode must consume every byte");
        prop_assert_eq!(back, d);
    }

    #[test]
    fn snapshot_plus_deltas_equals_direct_fold(
        states in prop::collection::vec(arb_topk(), 1..6),
    ) {
        // The subscriber's state machine: install the first window as a
        // snapshot, then apply one delta per later window. After every
        // step the reassembled state must equal the canonical direct
        // state — including the features, which reset each window.
        let canonical: Vec<TopKState> = states.into_iter().map(canonicalize).collect();
        let mut held = canonical[0].clone();
        for (i, next) in canonical.iter().enumerate().skip(1) {
            let prev_us = i as u64 * 600_000_000;
            let next_us = (i as u64 + 1) * 600_000_000;
            let d = diff_states(
                prev_us,
                &held,
                next_us,
                next_us as f64 / 1e6,
                600.0,
                next,
            );
            held = apply_delta(&held, &d).expect("in-sequence delta applies");
            prop_assert_eq!(&held, next, "window {} diverged", i);
        }
    }

    #[test]
    fn stripped_states_diff_and_apply_too(prev in arb_topk(), next in arb_topk()) {
        // The topk topic replays the same algebra over feature-stripped
        // states: stripping then diffing equals diffing the stripped.
        let prev = canonicalize(strip_features(&prev));
        let next = canonicalize(strip_features(&next));
        let d = diff_states(600_000_000, &prev, 1_200_000_000, 1200.0, 600.0, &next);
        let got = apply_delta(&prev, &d).expect("stripped delta applies");
        prop_assert_eq!(got, next);
    }
}
