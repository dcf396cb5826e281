//! Cross-stack check of the historical store as a DNSDB substitute: the
//! paper's Table-4 renumbering validation must survive the store round
//! trip — append synthetic 10-minute windows with planted renumbering
//! events, compact them up the hierarchy, and re-detect the events from
//! the *queried* (chunk-reassembled, possibly rolled-up) windows.
//!
//! Two resolutions are pinned:
//!
//! * hour-level compaction keeps every day-boundary event detectable —
//!   the query layer recovers the exact planted schedule, no phantoms;
//! * the exact per-window hit counters (`features.adds[0]` deltas) are
//!   conserved through any rollup, so `history` sums to ground truth at
//!   every compaction level.

use dns_observatory::analysis::ttl::{detect_changes, ChangeCategory};
use dns_observatory::synth::{renumber_truth, SynthConfig, SynthStream};
use std::path::{Path, PathBuf};

const WINDOWS_PER_DAY: usize = 144;

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dnsobs-xstore-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cfg(days: usize) -> SynthConfig {
    SynthConfig {
        seed: 9,
        start: 0.0,
        window_secs: 600.0,
        windows: days * WINDOWS_PER_DAY,
        keys: 6,
        datasets: vec!["aafqdn".to_string()],
        capacity: 24,
        renumber_every: WINDOWS_PER_DAY,
    }
}

fn build(dir: &Path, cfg: &SynthConfig, policy: &store::CompactionPolicy) -> store::Store {
    let (mut s, _) = store::Store::open(dir).expect("open");
    let mut stream = SynthStream::new(cfg.clone());
    // One level-0 segment per hour, so hour buckets have inputs to roll
    // (a segment can only compact into a bucket that spans it).
    for _ in 0..cfg.windows / 6 {
        let mut batch = Vec::new();
        for _ in 0..6 {
            batch.extend(stream.next_window().expect("sized stream"));
        }
        s.append(&batch).expect("append");
    }
    store::compact(&mut s, policy).expect("compact");
    s
}

/// Hour-level rollups keep day-boundary renumbering events visible: the
/// TTL-change scan over the queried windows recovers the planted
/// schedule exactly — every event, no phantoms.
#[test]
fn renumbering_schedule_survives_hourly_compaction() {
    let cfg = cfg(3);
    let truth = renumber_truth(&cfg);
    assert!(!truth.is_empty(), "synth planted nothing");

    let dir = temp_store("renumber");
    let policy = store::CompactionPolicy {
        spans_us: vec![3_600_000_000],
    };
    let s = build(&dir, &cfg, &policy);
    assert!(
        s.segments().iter().any(|m| m.level > 0),
        "compaction must actually roll something"
    );

    let span_us = cfg.windows as u64 * 600_000_000;
    let (groups, stats) =
        store::query::windows_in(&s, "aafqdn", 0, span_us + 1, None).expect("windows_in");
    assert!(stats.records_decoded > 0);
    let dumps: Vec<_> = groups
        .iter()
        .map(|g| dns_observatory::render_state(&g.state, g.start, g.length).expect("render"))
        .collect();
    let refs: Vec<&dns_observatory::WindowDump> = dumps.iter().collect();
    let found: Vec<_> = detect_changes(&refs)
        .into_iter()
        .filter(|c| c.category == ChangeCategory::Renumbering)
        .collect();

    assert_eq!(found.len(), truth.len(), "event count diverged");
    for event in &truth {
        assert!(
            found
                .iter()
                .any(|c| c.key == event.key && (c.at - event.window_start).abs() < 1e-6),
            "planted event at t={}s key {} not re-detected from the store",
            event.window_start,
            event.key
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// The exact per-window hit deltas sum to the same ground truth no
/// matter how coarsely the store is compacted, and every point's stated
/// interval `[count − error, count]` holds the generator's truth.
#[test]
fn history_hits_are_conserved_across_compaction_levels() {
    let cfg = cfg(2);
    let span_us = cfg.windows as u64 * 600_000_000;

    // The key's cumulative count in every raw window: the truth each
    // (possibly rolled-up) point's count must bound.
    let mut stream = SynthStream::new(cfg.clone());
    let mut counts = Vec::new();
    while let Some(window) = stream.next_window() {
        let ws = window.iter().find(|ws| ws.topk.dataset == "aafqdn");
        let entry = ws.and_then(|ws| ws.topk.entries.iter().find(|e| e.key == "host1.example."));
        counts.push(entry.map_or(0, |e| e.count));
    }
    let truth = |start: f64, length: f64| -> u64 {
        let lo = (start / 600.0).round() as usize;
        let hi = ((start + length) / 600.0).round() as usize;
        counts[lo.min(counts.len())..hi.min(counts.len())]
            .iter()
            .sum()
    };

    let mut totals = Vec::new();
    for (tag, spans) in [
        ("raw", vec![]),
        ("hourly", vec![3_600_000_000]),
        ("daily", vec![3_600_000_000, 86_400_000_000]),
    ] {
        let dir = temp_store(tag);
        let s = build(&dir, &cfg, &store::CompactionPolicy { spans_us: spans });
        let (points, total_error, _) =
            store::query::history(&s, "aafqdn", "host1.example.", 0, span_us + 1).expect("history");
        assert!(!points.is_empty(), "{tag}: no history points");
        for p in &points {
            let t = truth(p.start, p.length);
            assert!(
                p.count - p.error <= t && t <= p.count,
                "{tag}: point at {}s: truth {t} outside [{}, {}]",
                p.start,
                p.count - p.error,
                p.count
            );
        }
        let count: u64 = points.iter().map(|p| p.count).sum();
        let true_total: u64 = points.iter().map(|p| truth(p.start, p.length)).sum();
        assert!(
            count - total_error <= true_total && true_total <= count,
            "{tag}: total truth {true_total} outside the stated interval"
        );
        totals.push((tag, points.iter().map(|p| p.hits).sum::<u64>()));
        let _ = std::fs::remove_dir_all(&dir);
    }
    let (_, raw_total) = totals[0];
    for (tag, total) in &totals {
        assert_eq!(
            *total, raw_total,
            "{tag}: per-window hit deltas not conserved"
        );
    }
}
