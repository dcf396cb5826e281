//! Differential test of the broker's on-demand frame encoding.
//!
//! The broker builds the feature-stripped view, the snapshot frames and
//! the delta frames of a window only when some client will receive
//! them. The reference here is the eager encoding — every window's four
//! frames built up front from `canonicalize`, `strip_features`,
//! `diff_states` and `encode_frame_vec` — and every frame the broker
//! sends must be byte-equal to the reference frame of its kind, dataset,
//! window and fidelity. The scripted clients cover both fidelities, a
//! dataset filter, late joiners and a client that degrades and resyncs.

use std::collections::BTreeMap;
use std::sync::Arc;

use pubsub::{
    canonicalize, diff_states, encode_frame_vec, strip_features, window_id_us, Action,
    BrokerConfig, BrokerCore, Frame, FrameReader, Topic,
};
use sketchwire::{FeatureState, TopKEntry, TopKState, WindowState};

const DATASETS: [&str; 2] = ["esld", "qtype"];
const WINDOWS: u64 = 10;
const LENGTH: f64 = 60.0;
/// Connects after this many windows sealed.
const LATE_AFTER: u64 = 3;
/// Never drained until this window has sealed, so it degrades first.
const SLOW_UNTIL: u64 = 5;

fn entry(key: String, count: u64, w: u64) -> TopKEntry {
    TopKEntry {
        key,
        count,
        error: 0,
        inserted_at: (w as f64) * LENGTH,
        features: FeatureState {
            adds: vec![count, w],
            maxes: vec![w % 3],
            hlls: Vec::new(),
            source_cap: 4,
            sources: vec![(w % 4) as u16],
            tops: Vec::new(),
            hists: Vec::new(),
        },
    }
}

/// Dataset `d`'s tracker state in window `w`: keys drift in and out and
/// counts change on some keys only; entries are deliberately unsorted.
fn state(d: usize, w: u64) -> TopKState {
    let entries: Vec<TopKEntry> = (0..6u64)
        .rev()
        .map(|i| (i + w + d as u64) % 9)
        .map(|k| entry(format!("{}-k{k}", DATASETS[d]), 10 + k * (1 + w % 2), w))
        .collect();
    let observed = entries.iter().map(|e| e.count).sum();
    TopKState {
        dataset: DATASETS[d].to_string(),
        capacity: 8,
        observed,
        min_count: 1,
        error_bound: 2,
        evictions: w,
        kept: observed,
        dropped: 0,
        filtered: 0,
        chunk: 0,
        chunks: 1,
        entries,
        gate: None,
    }
}

/// The sealed batch for window `w`; odd windows arrive chunked.
fn sealed(w: u64) -> Vec<WindowState> {
    (0..DATASETS.len())
        .flat_map(|d| {
            let s = state(d, w);
            let parts = if w % 2 == 1 {
                s.into_chunks(2)
            } else {
                vec![s]
            };
            parts.into_iter().map(move |topk| WindowState {
                upstream: 9,
                start: w as f64 * LENGTH,
                length: LENGTH,
                topk,
            })
        })
        .collect()
}

/// The eager reference frames of one window, keyed by
/// `(dataset, is_delta, features)`.
fn eager(w: u64) -> BTreeMap<(String, bool, bool), Vec<u8>> {
    let mut frames = BTreeMap::new();
    let start = w as f64 * LENGTH;
    for (d, ds) in DATASETS.iter().enumerate() {
        let full = canonicalize(state(d, w));
        let topk_only = strip_features(&full);
        for (features, topk) in [(true, &full), (false, &topk_only)] {
            let snap = Frame::Snapshot(Box::new(WindowState {
                upstream: 0,
                start,
                length: LENGTH,
                topk: topk.clone(),
            }));
            frames.insert((ds.to_string(), false, features), encode_frame_vec(&snap));
        }
        if w > 1 {
            let prev_full = canonicalize(state(d, w - 1));
            let prev_topk = strip_features(&prev_full);
            let prev_us = window_id_us((w - 1) as f64 * LENGTH);
            let us = window_id_us(start);
            let df = diff_states(prev_us, &prev_full, us, start, LENGTH, &full);
            let dt = diff_states(prev_us, &prev_topk, us, start, LENGTH, &topk_only);
            for (features, delta) in [(true, df), (false, dt)] {
                frames.insert(
                    (ds.to_string(), true, features),
                    encode_frame_vec(&Frame::Delta(Box::new(delta))),
                );
            }
        }
    }
    frames
}

struct Scripted {
    id: u64,
    topics: Vec<Topic>,
    late: bool,
    slow: bool,
}

/// Check every send in `actions` against the reference frames of the
/// currently published window `w`, counting `(snapshots, deltas)` per
/// client into `seen`.
fn check_sends(
    actions: &[Action],
    w: u64,
    fidelity: &BTreeMap<u64, bool>,
    seen: &mut BTreeMap<u64, (u64, u64)>,
) {
    let want = eager(w);
    for a in actions {
        let Action::Send { client, frame } = a else {
            continue;
        };
        let mut rd = FrameReader::new();
        rd.push(frame);
        let (dataset, is_delta) = match rd.next_frame().expect("valid frame") {
            Some(Frame::Snapshot(ws)) => {
                assert_eq!(ws.start, w as f64 * LENGTH, "snapshot of window {w}");
                (ws.topk.dataset, false)
            }
            Some(Frame::Delta(d)) => {
                assert_eq!(d.start, w as f64 * LENGTH, "delta into window {w}");
                (d.dataset, true)
            }
            other => panic!("unexpected frame {other:?}"),
        };
        let features = fidelity[client];
        let reference = &want[&(dataset.clone(), is_delta, features)];
        assert_eq!(
            frame.as_slice(),
            reference.as_slice(),
            "client {client}, window {w}, {dataset}, delta={is_delta}, features={features}"
        );
        let counts = seen.entry(*client).or_default();
        if is_delta {
            counts.1 += 1;
        } else {
            counts.0 += 1;
        }
    }
}

#[test]
fn on_demand_frames_equal_the_eager_encoding() {
    let clients = [
        Scripted {
            id: 1,
            topics: vec![Topic::Features],
            late: false,
            slow: false,
        },
        Scripted {
            id: 2,
            topics: vec![Topic::Topk],
            late: false,
            slow: false,
        },
        Scripted {
            id: 3,
            topics: vec![Topic::Dataset("qtype".to_string())],
            late: false,
            slow: false,
        },
        Scripted {
            id: 4,
            topics: vec![Topic::Topk, Topic::Dataset("esld".to_string())],
            late: false,
            slow: false,
        },
        Scripted {
            id: 5,
            topics: Vec::new(),
            late: true,
            slow: false,
        },
        Scripted {
            id: 6,
            topics: vec![Topic::Topk],
            late: true,
            slow: false,
        },
        Scripted {
            id: 7,
            topics: vec![Topic::Features],
            late: false,
            slow: true,
        },
    ];
    let fidelity: BTreeMap<u64, bool> = clients
        .iter()
        .map(|c| (c.id, !c.topics.contains(&Topic::Topk)))
        .collect();
    let mut broker = BrokerCore::new(BrokerConfig {
        egress_frames: 3,
        snapshot_every: 2,
        evict_after: 100,
    });
    let mut actions = Vec::new();
    for c in clients.iter().filter(|c| !c.late) {
        broker.on_client_connect(c.id, &c.topics, &mut actions);
    }
    assert!(actions.is_empty(), "nothing is published yet");

    let mut seen = BTreeMap::new();
    let mut degraded_seen = false;
    for w in 1..=WINDOWS {
        broker.on_sealed(sealed(w), &mut actions).expect("seal");
        if w == LATE_AFTER {
            for c in clients.iter().filter(|c| c.late) {
                broker.on_client_connect(c.id, &c.topics, &mut actions);
            }
        }
        check_sends(&actions, w, &fidelity, &mut seen);
        actions.clear();
        degraded_seen |= broker.client_degraded(7) == Some(true);
        for c in &clients {
            if c.slow && w <= SLOW_UNTIL {
                continue;
            }
            if let Some(depth) = broker.client_depth(c.id) {
                broker.on_drained(c.id, depth as u64);
            }
        }
    }

    assert!(degraded_seen, "the slow client degraded");
    assert_eq!(broker.client_degraded(7), Some(false), "and resynced");
    for c in &clients {
        let (snaps, deltas) = seen[&c.id];
        assert!(snaps > 0 && deltas > 0, "client {} saw both kinds", c.id);
    }
    // The dataset filter held: client 3 only ever got qtype frames, one
    // per window.
    let (snaps, deltas) = seen[&3];
    assert_eq!(snaps + deltas, WINDOWS);
    let report = broker.finish(&mut actions);
    assert_eq!(
        report.frames_pushed,
        report.frames_delivered + report.undelivered
    );
}

#[test]
fn one_encoding_is_shared_by_every_client() {
    // Two clients of one fidelity share the same encoded bytes.
    let mut broker = BrokerCore::new(BrokerConfig::default());
    let mut actions = Vec::new();
    broker.on_client_connect(1, &[], &mut actions);
    broker.on_client_connect(2, &[], &mut actions);
    broker.on_sealed(sealed(2), &mut actions).expect("seal");
    let frames: Vec<&Arc<Vec<u8>>> = actions
        .iter()
        .filter_map(|a| match a {
            Action::Send { frame, .. } => Some(frame),
            _ => None,
        })
        .collect();
    assert_eq!(frames.len(), 4, "two datasets to two clients");
    assert!(Arc::ptr_eq(frames[0], frames[2]));
    assert!(Arc::ptr_eq(frames[1], frames[3]));
}
