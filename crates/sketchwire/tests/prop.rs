//! Property tests for the sketch-state wire format and merge laws.
//!
//! Three guarantees are pinned here:
//!
//! * **Codec**: every representable record round-trips byte-for-byte,
//!   and arbitrary truncation or corruption of an encoded stream is a
//!   typed error — never a panic, never a silently different state.
//! * **Merge ⋄ codec**: merging decoded copies equals merging the
//!   originals — serialization is transparent to the merge algebra.
//! * **Merge algebra**: `merge_states`/`merge_features` are commutative
//!   and associative, so an aggregation tree produces the same global
//!   state regardless of arrival order or tree shape; the stated error
//!   bound is the sum of the inputs' and no entry's error exceeds it.
//! * **One merge**: the k-way `merge_states` equals a left fold of the
//!   pairwise reference law below, byte for byte.

use std::collections::BTreeMap;

use feed::{ByteReader, FeedItem};
use proptest::prelude::*;
use sketchwire::{
    merge_chunks, merge_features, merge_states, read_all, write_record, FeatureState,
    HistogramState, HllState, StateError, TopKEntry, TopKState, TopValuesState, WindowState,
};

// ---------------------------------------------------------------------
// Reference: the pairwise cross-collector merge the k-way merge
// replaced, kept verbatim as the oracle `merge_states` must match.
// ---------------------------------------------------------------------

/// Merge two assembled tracker states from *different* sources (the
/// cross-collector Space-Saving merge law). Inputs must be whole windows
/// (`chunks == 1`); chunks of one source reassemble with
/// [`merge_chunks`] first — the absent-key adjustment below would be
/// wrong within a single source.
pub fn merge_topk(a: &TopKState, b: &TopKState) -> Result<TopKState, StateError> {
    if a.dataset != b.dataset {
        return Err(StateError::DatasetMismatch);
    }
    if a.chunks != 1 || b.chunks != 1 {
        return Err(StateError::ChunkMismatch("merging unassembled chunk"));
    }
    let mut keys: BTreeMap<&str, (Option<&TopKEntry>, Option<&TopKEntry>)> = BTreeMap::new();
    for e in &a.entries {
        keys.entry(&e.key).or_default().0 = Some(e);
    }
    for e in &b.entries {
        keys.entry(&e.key).or_default().1 = Some(e);
    }
    let mut entries = Vec::with_capacity(keys.len());
    for (key, pair) in keys {
        let e = match pair {
            (Some(x), Some(y)) => TopKEntry {
                key: key.to_string(),
                count: x.count.saturating_add(y.count),
                error: x.error.saturating_add(y.error),
                inserted_at: x.inserted_at.min(y.inserted_at),
                features: merge_features(&x.features, &y.features)?,
            },
            // A key one side never tracked has a true count of at most
            // that side's min_count — add it to both the count (upper
            // bound stays an upper bound) and the error (the lower bound
            // concedes it may be zero).
            (Some(x), None) => TopKEntry {
                key: key.to_string(),
                count: x.count.saturating_add(b.min_count),
                error: x.error.saturating_add(b.min_count),
                inserted_at: x.inserted_at,
                features: x.features.clone(),
            },
            (None, Some(y)) => TopKEntry {
                key: key.to_string(),
                count: y.count.saturating_add(a.min_count),
                error: y.error.saturating_add(a.min_count),
                inserted_at: y.inserted_at,
                features: y.features.clone(),
            },
            (None, None) => unreachable!("key came from one of the inputs"),
        };
        entries.push(e);
    }
    Ok(TopKState {
        dataset: a.dataset.clone(),
        capacity: a.capacity.min(b.capacity),
        observed: a.observed.saturating_add(b.observed),
        min_count: a.min_count.saturating_add(b.min_count),
        error_bound: a.error_bound.saturating_add(b.error_bound),
        evictions: a.evictions.saturating_add(b.evictions),
        kept: a.kept.saturating_add(b.kept),
        dropped: a.dropped.saturating_add(b.dropped),
        filtered: a.filtered.saturating_add(b.filtered),
        chunk: 0,
        chunks: 1,
        entries,
        // A merge output is an aggregate of two trackers, not a live
        // tracker: no single gate describes it, so it carries none.
        gate: None,
    })
}

/// Left fold of the pairwise reference over `states` (non-empty).
fn pairwise_fold(states: &[TopKState]) -> TopKState {
    let mut acc = states[0].clone();
    for next in &states[1..] {
        acc = merge_topk(&acc, next).expect("fixed layout merges");
    }
    acc
}

fn merge2(a: &TopKState, b: &TopKState) -> TopKState {
    merge_states(vec![a.clone(), b.clone()]).expect("fixed layout merges")
}

// ---------------------------------------------------------------------
// Strategies. All values respect the decoder's invariants (the decoder
// is the gatekeeper; the corruption tests cover invalid bytes).
// ---------------------------------------------------------------------

fn arb_hll() -> impl Strategy<Value = HllState> {
    prop_oneof![
        prop::collection::vec(0u8..=61, 16).prop_map(|registers| HllState { p: 4, registers }),
        prop::collection::vec(0u8..=60, 32).prop_map(|registers| HllState { p: 5, registers }),
    ]
}

// A top-values table with a caller-fixed capacity (merge requires equal
// capacities; round-trip uses a few different ones).
prop_compose! {
    fn arb_topvalues(capacity: u64)(
        raw in prop::collection::vec((any::<u16>(), 1u64..50), 0..=4),
        extra in 0u64..100,
    ) -> TopValuesState {
        let mut slots: Vec<(u64, u64)> = Vec::new();
        for (v, c) in raw {
            let v = v as u64;
            if slots.len() < capacity as usize && !slots.iter().any(|&(sv, _)| sv == v) {
                slots.push((v, c));
            }
        }
        let observed = slots.iter().map(|&(_, c)| c).sum::<u64>() + extra;
        TopValuesState { capacity, observed, slots }
    }
}

// A histogram over a caller-fixed layout (merge requires equal layouts).
prop_compose! {
    fn arb_hist(min_c: u32, base_c: u32, buckets: usize)(
        counts in prop::collection::vec(0u64..50, 1),
        lo in 1u32..1_000,
        hi in 1u32..1_000,
    ) -> HistogramState {
        let counts = vec![counts[0]; 1].into_iter().chain(
            (1..buckets).map(|i| (lo as u64 + i as u64) % 7)
        ).collect::<Vec<u64>>();
        let total: u64 = counts.iter().sum();
        let (observed_min, observed_max) = if total == 0 {
            (f64::INFINITY, f64::NEG_INFINITY)
        } else {
            let (a, b) = (lo.min(hi), lo.max(hi));
            (a as f64 / 10.0, b as f64 / 10.0)
        };
        HistogramState {
            min: min_c as f64 / 100.0,
            base: base_c as f64 / 100.0,
            counts,
            observed_min,
            observed_max,
        }
    }
}

// Feature state in the *fixed* layout the merge laws require: shapes,
// HLL precisions, capacities, and histogram layouts all agree.
prop_compose! {
    fn arb_features()(
        adds in prop::collection::vec(0u64..1_000, 3),
        maxes in prop::collection::vec(0u64..255, 1),
        hll in prop::collection::vec(0u8..=61, 16),
        raw_sources in prop::collection::vec(any::<u16>(), 0..=5),
        top in arb_topvalues(4),
        hist in arb_hist(150, 200, 3),
    ) -> FeatureState {
        let mut sources = raw_sources;
        sources.sort_unstable();
        sources.dedup();
        FeatureState {
            adds,
            maxes,
            hlls: vec![HllState { p: 4, registers: hll }],
            source_cap: 16,
            sources,
            tops: vec![top],
            hists: vec![hist],
        }
    }
}

// Tracker state over a small key pool (so different samples overlap on
// some keys and differ on others — both merge paths get exercised).
prop_compose! {
    fn arb_topk()(
        raw_entries in prop::collection::vec(
            (0usize..8, 0u64..500, 0u64..500, 0u32..10_000, arb_features()),
            0..=5,
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
        for (idx, count, err, at, features) in raw_entries {
            let key = format!("k{idx}");
            if entries.iter().any(|e| e.key == key) {
                continue;
            }
            entries.push(TopKEntry {
                key,
                count,
                error: err.min(count),
                inserted_at: at as f64 / 100.0,
                features,
            });
        }
        let max_count = entries.iter().map(|e| e.count).max().unwrap_or(0);
        let observed = max_count + extra_observed;
        let min_count = min_c.min(observed);
        // Space-Saving invariant: an entry's error is the min_count at
        // insertion time, which never exceeds the current min_count.
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
    fn arb_window()(
        topk in arb_topk(),
        upstream in 0u64..9,
        window in 0u32..500,
    ) -> WindowState {
        WindowState {
            upstream,
            start: window as f64 * 60.0,
            length: 60.0,
            topk,
        }
    }
}

fn encode_ws(ws: &WindowState) -> Vec<u8> {
    let mut buf = Vec::new();
    ws.encode(&mut buf);
    buf
}

fn roundtrip(ws: &WindowState) -> WindowState {
    let buf = encode_ws(ws);
    let mut r = ByteReader::new(&buf);
    let back = WindowState::decode(&mut r).expect("strategy output must decode");
    assert!(r.is_empty(), "decode must consume every byte");
    back
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // --- codec ---------------------------------------------------------

    #[test]
    fn window_state_roundtrips(ws in arb_window()) {
        prop_assert_eq!(roundtrip(&ws), ws);
    }

    #[test]
    fn hll_shape_variants_roundtrip(hll in arb_hll(), ws in arb_window()) {
        // Codec (unlike merge) must handle mixed HLL precisions.
        let mut ws = ws;
        if let Some(e) = ws.topk.entries.first_mut() {
            e.features.hlls[0] = hll;
        }
        prop_assert_eq!(roundtrip(&ws), ws);
    }

    #[test]
    fn record_stream_roundtrips(a in arb_window(), b in arb_window()) {
        let mut buf = Vec::new();
        write_record(&a, &mut buf);
        write_record(&b, &mut buf);
        let back = read_all(&buf).expect("valid stream");
        prop_assert_eq!(back, vec![a, b]);
    }

    #[test]
    fn truncation_is_detected(ws in arb_window(), cut in any::<u16>()) {
        let mut buf = Vec::new();
        write_record(&ws, &mut buf);
        let cut = cut as usize % buf.len();
        // A prefix is only valid when cut at a record boundary (here:
        // empty). Anything else must be a typed error, not a panic.
        match read_all(&buf[..cut]) {
            Ok(records) => prop_assert!(cut == 0 && records.is_empty()),
            Err(_) => prop_assert!(cut > 0),
        }
    }

    #[test]
    fn corruption_is_detected(ws in arb_window(), pos in any::<u16>(), flip in 1u8..=255) {
        let mut buf = Vec::new();
        write_record(&ws, &mut buf);
        let pos = pos as usize % buf.len();
        buf[pos] ^= flip;
        // Either a typed error, or (if the flip hit the length field and
        // made the record look longer) a wait-for-more-bytes truncation
        // error — also typed. A silently *different* record is the one
        // forbidden outcome.
        if let Ok(records) = read_all(&buf) {
            prop_assert_eq!(records, vec![ws]);
        }
    }

    // --- merge ⋄ codec -------------------------------------------------

    #[test]
    fn merge_commutes_with_codec(a in arb_window(), b in arb_window()) {
        let direct = merge2(&a.topk, &b.topk);
        let via_wire = merge2(&roundtrip(&a).topk, &roundtrip(&b).topk);
        prop_assert_eq!(direct, via_wire);
    }

    // --- merge algebra -------------------------------------------------

    #[test]
    fn merge_states_is_commutative(a in arb_topk(), b in arb_topk()) {
        prop_assert_eq!(merge2(&a, &b), merge2(&b, &a));
    }

    #[test]
    fn merge_states_is_associative(a in arb_topk(), b in arb_topk(), c in arb_topk()) {
        let left = merge2(&merge2(&a, &b), &c);
        let right = merge2(&a, &merge2(&b, &c));
        prop_assert_eq!(&left, &right);
        // And one three-way pass lands on the same state.
        let once = merge_states(vec![a, b, c]).expect("abc");
        prop_assert_eq!(once, left);
    }

    #[test]
    fn merged_bound_is_sum_and_covers_entries(a in arb_topk(), b in arb_topk()) {
        let m = merge2(&a, &b);
        prop_assert_eq!(m.error_bound, a.error_bound + b.error_bound);
        prop_assert_eq!(m.min_count, a.min_count + b.min_count);
        // Every entry's error gained at most the other side's min_count,
        // and min_count ≤ error_bound on each input, so the merged bound
        // still covers the worst entry.
        prop_assert!(m.max_entry_error() <= m.error_bound);
        // Conservation: per-window transaction accounting adds up.
        prop_assert_eq!(m.kept, a.kept + b.kept);
        prop_assert_eq!(m.dropped, a.dropped + b.dropped);
        prop_assert_eq!(m.filtered, a.filtered + b.filtered);
        prop_assert_eq!(m.observed, a.observed + b.observed);
    }

    #[test]
    fn merge_features_is_commutative(a in arb_features(), b in arb_features()) {
        let ab = merge_features(&a, &b).expect("merge");
        let ba = merge_features(&b, &a).expect("merge");
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn merge_features_is_associative(
        a in arb_features(),
        b in arb_features(),
        c in arb_features(),
    ) {
        let left = merge_features(&merge_features(&a, &b).expect("ab"), &c).expect("ab_c");
        let right = merge_features(&a, &merge_features(&b, &c).expect("bc")).expect("a_bc");
        prop_assert_eq!(left, right);
    }

    // --- chunking ------------------------------------------------------

    #[test]
    fn chunks_reassemble_losslessly(topk in arb_topk(), max in 1usize..4) {
        let chunks = topk.clone().into_chunks(max);
        prop_assert!(chunks.iter().all(|c| c.entries.len() <= max));
        let back = merge_chunks(chunks).expect("reassemble");
        let mut want = topk;
        want.entries.sort_by(|a, b| a.key.cmp(&b.key));
        prop_assert_eq!(back, want);
    }

    #[test]
    fn chunks_roundtrip_the_wire(ws in arb_window(), max in 1usize..4) {
        // Chunk, ship each chunk as its own record, reassemble the
        // decoded copies: still lossless.
        let chunks = ws.topk.clone().into_chunks(max);
        let mut buf = Vec::new();
        for c in &chunks {
            write_record(
                &WindowState { topk: c.clone(), ..ws.clone() },
                &mut buf,
            );
        }
        let shipped = read_all(&buf).expect("valid stream");
        let parts: Vec<TopKState> = shipped.into_iter().map(|w| w.topk).collect();
        let back = merge_chunks(parts).expect("reassemble");
        let mut want = ws.topk;
        want.entries.sort_by(|a, b| a.key.cmp(&b.key));
        prop_assert_eq!(back, want);
    }

    // --- compaction hierarchy ------------------------------------------

    #[test]
    fn hierarchical_fold_matches_oneshot(
        states in prop::collection::vec(arb_topk(), 2..=12),
        cuts_hourly in prop::collection::vec(any::<bool>(), 11),
        cuts_daily in prop::collection::vec(any::<bool>(), 11),
    ) {
        // The store's compactor rolls 10-min windows into hours, hours
        // into days, days into months — i.e. it re-associates the same
        // linear fold. Whatever consecutive partition each level picks,
        // the final state must be byte-identical to the one-shot fold.
        let fold = |group: &[TopKState]| -> TopKState {
            merge_states(group.to_vec()).expect("fixed layout merges")
        };
        // Split `items` into consecutive runs, cutting after position i
        // when cuts[i] is set.
        let split = |items: &[TopKState], cuts: &[bool]| -> Vec<Vec<TopKState>> {
            let mut groups = vec![Vec::new()];
            for (i, item) in items.iter().enumerate() {
                groups.last_mut().expect("non-empty").push(item.clone());
                if i + 1 < items.len() && cuts.get(i).copied().unwrap_or(false) {
                    groups.push(Vec::new());
                }
            }
            groups
        };
        let oneshot = fold(&states);
        let hourly: Vec<TopKState> =
            split(&states, &cuts_hourly).iter().map(|g| fold(g)).collect();
        let daily: Vec<TopKState> =
            split(&hourly, &cuts_daily).iter().map(|g| fold(g)).collect();
        let rolled = fold(&daily);
        // Struct equality, then byte equality after rendering to the
        // wire — the canonical form a segment file would store.
        prop_assert_eq!(&rolled, &oneshot);
        let wrap = |topk: TopKState| WindowState {
            upstream: 0,
            start: 0.0,
            length: 600.0,
            topk,
        };
        prop_assert_eq!(encode_ws(&wrap(rolled)), encode_ws(&wrap(oneshot)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn merge_states_equals_pairwise_left_fold(
        states in prop::collection::vec(arb_topk(), 1..=8),
        disjoint in prop::collection::vec(any::<bool>(), 8),
    ) {
        // Some inputs get keys no other input holds; arb_topk emits its
        // keys in arbitrary order, so unsorted inputs are covered too.
        let states: Vec<TopKState> = states
            .into_iter()
            .zip(&disjoint)
            .enumerate()
            .map(|(i, (mut s, &own))| {
                if own {
                    for e in &mut s.entries {
                        e.key = format!("u{i}-{}", e.key);
                    }
                }
                s
            })
            .collect();
        let want = pairwise_fold(&states);
        let got = merge_states(states).expect("fixed layout merges");
        prop_assert_eq!(&got, &want);
        let wrap = |topk: TopKState| WindowState {
            upstream: 0,
            start: 0.0,
            length: 600.0,
            topk,
        };
        prop_assert_eq!(encode_ws(&wrap(got)), encode_ws(&wrap(want)));
    }
}
