//! `history`: analysts' historical questions against the store.
//!
//! Set-up builds the `query_latency` store: 92 days of 144 ten-minute
//! `SynthStream` windows (datasets aafqdn and esld, 8 keys, one planted
//! renumbering a day), appended one day per batch, then compacted with
//! `store::compact` up the hour/day/month hierarchy. The measured phase
//! is a seeded closed-loop mix of the three `dnsobs query` verbs, in
//! equal shares: `query::history` of one key (each in turn) over 1–92
//! days, `query::topk_at` at one instant, and a renumbering scan
//! (`windows_in` → `render_state` → `detect_changes`) over at least 7
//! days. Interval lengths, positions and instants are seeded.

use crate::common::{median, percentile, secs, spin, MemProbe, Opts, Outcome, Rng, WorkDir};
use dns_observatory::analysis::ttl::{detect_changes, ChangeCategory};
use dns_observatory::synth::{key_name, renumber_truth, RenumberEvent, SynthConfig, SynthStream};
use dns_observatory::{render_state, WindowDump};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;
use store::{QueryStats, Store, StoreError};

const DAYS: u64 = 92;
const WINDOWS_PER_DAY: u64 = 144;
const WINDOW_US: u64 = 600_000_000;
const DAY_US: u64 = WINDOWS_PER_DAY * WINDOW_US;
const SPAN_US: u64 = DAYS * DAY_US;
const KEYS: usize = 8;
const DATASETS: [&str; 2] = ["aafqdn", "esld"];
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Distinct queries per run (a multiple of 3, so the verbs are even).
const MIN_QUERIES: usize = 1_002;
/// Fewest rounds of the query sequence per run.
const MIN_ROUNDS: usize = 2;

fn synth_cfg(seed: u64) -> SynthConfig {
    SynthConfig {
        seed,
        start: 0.0,
        window_secs: 600.0,
        windows: (DAYS * WINDOWS_PER_DAY) as usize,
        keys: KEYS,
        datasets: DATASETS.iter().map(|d| d.to_string()).collect(),
        capacity: KEYS as u64 * 4,
        renumber_every: WINDOWS_PER_DAY as usize,
    }
}

/// Build and compact the store; returns it with the build and compact
/// times.
fn build(dir: &Path, seed: u64) -> (Store, f64, f64) {
    let (mut s, _) = Store::open(dir).expect("open a fresh store");
    let mut stream = SynthStream::new(synth_cfg(seed));
    let t0 = Instant::now();
    for _ in 0..DAYS {
        let mut batch = Vec::new();
        for _ in 0..WINDOWS_PER_DAY {
            batch.extend(stream.next_window().expect("stream sized to DAYS"));
        }
        s.append(&batch).expect("append one day");
    }
    let build_s = secs(t0);
    let t1 = Instant::now();
    store::compact(&mut s, &store::CompactionPolicy::default()).expect("compact");
    (s, build_s, secs(t1))
}

/// One query of the seeded mix.
#[derive(Debug, Clone)]
enum Query {
    History {
        dataset: &'static str,
        key: usize,
        t0: u64,
        t1: u64,
    },
    TopkAt {
        dataset: &'static str,
        at: u64,
    },
    Renumber {
        t0: u64,
        t1: u64,
    },
}

/// The seeded query sequence. The verbs rotate, so every three queries
/// hold one of each; within a verb, interval lengths, positions and
/// instants follow seeded low-discrepancy (Weyl) sequences, so every seed
/// covers the store evenly and asks for about the same total work.
fn queries(seed: u64, n: usize) -> Vec<Query> {
    let mut rng = Rng::new(seed);
    let mut weyl = [0.0f64; 5].map(|_| rng.next_u64() as f64 / u64::MAX as f64);
    // Steps: fractional parts of √2, √3, √5, √7 and √11.
    let steps = [0.41421356, 0.73205081, 0.23606798, 0.64575131, 0.31662479];
    let mut next = |i: usize| {
        weyl[i] = (weyl[i] + steps[i]).fract();
        weyl[i]
    };
    let pick = |u: f64, lo: u64, hi: u64| lo + ((u * (hi - lo + 1) as f64) as u64).min(hi - lo);
    (0..n)
        .map(|i| {
            let k = i / 3;
            let dataset = DATASETS[k % DATASETS.len()];
            match i % 3 {
                0 => {
                    let days = pick(next(0), 1, DAYS);
                    let first = pick(next(1), 0, DAYS - days);
                    Query::History {
                        dataset,
                        key: (k / DATASETS.len()) % KEYS,
                        t0: first * DAY_US,
                        t1: (first + days) * DAY_US,
                    }
                }
                1 => Query::TopkAt {
                    dataset,
                    at: pick(next(2), 0, SPAN_US - 1),
                },
                _ => {
                    let days = pick(next(3), 7, DAYS);
                    let first = pick(next(4), 0, DAYS - days);
                    Query::Renumber {
                        t0: first * DAY_US,
                        t1: (first + days) * DAY_US,
                    }
                }
            }
        })
        .collect()
}

/// What a query returned, kept for the oracles.
enum Answer {
    /// (window start, window length, hits) per point.
    History(Vec<(f64, f64, u64)>),
    TopkAt(Option<(f64, f64)>),
    /// Window (start, length) per group, and the renumbering detections
    /// as (key, at).
    Renumber(Vec<(f64, f64)>, Vec<(String, f64)>),
}

/// Per-query layer costs (traced mode).
#[derive(Default)]
struct Layers {
    render_s: f64,
    renders: u64,
    stats: Vec<QueryStats>,
}

/// Run one query through the public calls; the planted delay sits in the
/// benchmark's wrapper around `store::query::history`.
fn ask(s: &Store, q: &Query, plant_ns: u64, layers: &mut Layers) -> Result<Answer, StoreError> {
    match *q {
        Query::History {
            dataset,
            key,
            t0,
            t1,
        } => {
            spin(plant_ns);
            let key = key_name(dataset, key);
            let (points, _, stats) = store::query::history(s, dataset, &key, t0, t1)?;
            layers.stats.push(stats);
            Ok(Answer::History(
                points.iter().map(|p| (p.start, p.length, p.hits)).collect(),
            ))
        }
        Query::TopkAt { dataset, at } => {
            let (g, stats) = store::query::topk_at(s, dataset, at)?;
            layers.stats.push(stats);
            Ok(Answer::TopkAt(g.map(|g| (g.start, g.length))))
        }
        Query::Renumber { t0, t1 } => {
            let (groups, stats) = store::query::windows_in(s, "aafqdn", t0, t1, None)?;
            layers.stats.push(stats);
            let t = Instant::now();
            let dumps = groups
                .iter()
                .map(|g| render_state(&g.state, g.start, g.length))
                .collect::<Result<Vec<WindowDump>, _>>()
                .map_err(|source| StoreError::Merge {
                    context: "render".into(),
                    source,
                })?;
            layers.render_s += secs(t);
            layers.renders += 1;
            let refs: Vec<&WindowDump> = dumps.iter().collect();
            let found = detect_changes(&refs)
                .into_iter()
                .filter(|c| c.category == ChangeCategory::Renumbering)
                .map(|c| (c.key, c.at))
                .collect();
            Ok(Answer::Renumber(
                groups.iter().map(|g| (g.start, g.length)).collect(),
                found,
            ))
        }
    }
}

/// What the measured loop saw.
struct Measured {
    queries: Vec<Query>,
    /// Each query's latency in every round, in ms.
    lat_ms: Vec<Vec<f64>>,
    /// Every answer, round after round.
    answers: Vec<Result<Answer, StoreError>>,
    /// The first round's layer costs.
    layers: Layers,
}

/// The measured closed loop: the seeded query sequence (`MIN_QUERIES`
/// queries, whole rounds of the three verbs) asked in rounds until
/// `seconds` have passed, at least twice.
fn measure(s: &Store, seed: u64, seconds: f64, plant_ns: u64) -> Measured {
    let queries = queries(seed, MIN_QUERIES);
    let mut layers = Layers::default();
    let mut answers = Vec::new();
    let mut lat_ms = vec![Vec::new(); queries.len()];
    let t0 = Instant::now();
    let mut round = 0;
    while round < MIN_ROUNDS || secs(t0) < seconds {
        let mut scratch = Layers::default();
        let costs = if round == 0 {
            &mut layers
        } else {
            &mut scratch
        };
        for (i, q) in queries.iter().enumerate() {
            let t = Instant::now();
            let a = ask(s, q, plant_ns, costs);
            lat_ms[i].push(t.elapsed().as_secs_f64() * 1e3);
            answers.push(a);
        }
        round += 1;
    }
    Measured {
        queries,
        lat_ms,
        answers,
        layers,
    }
}

/// Per-key, per-window exact hits, recomputed from the same
/// `SynthStream` the store was built from.
fn truth_hits(seed: u64) -> BTreeMap<(String, String), Vec<u64>> {
    let mut stream = SynthStream::new(synth_cfg(seed));
    let mut hits: BTreeMap<(String, String), Vec<u64>> = BTreeMap::new();
    while let Some(window) = stream.next_window() {
        for ws in window {
            for e in &ws.topk.entries {
                hits.entry((ws.topk.dataset.clone(), e.key.clone()))
                    .or_default()
                    .push(e.features.adds[0]);
            }
        }
    }
    hits
}

fn base_windows(start: f64, length: f64) -> std::ops::Range<usize> {
    let lo = (start / 600.0).round() as usize;
    let hi = ((start + length) / 600.0).round() as usize;
    lo.min((DAYS * WINDOWS_PER_DAY) as usize)..hi.min((DAYS * WINDOWS_PER_DAY) as usize)
}

/// Windows tile `[t0, t1)` without gaps or overlaps.
fn tiles(windows: &[(f64, f64)], t0: u64, t1: u64) -> bool {
    let us = |s: f64| (s * 1e6).round() as u64;
    let Some(first) = windows.first() else {
        return false;
    };
    let last = windows.last().expect("non-empty");
    us(first.0) <= t0
        && us(last.0 + last.1) >= t1
        && windows
            .windows(2)
            .all(|w| us(w[0].0 + w[0].1) == us(w[1].0))
}

/// Output oracles over every answer of every round; returns (failures,
/// renumbering detections recovered).
fn check(
    out: &mut Outcome,
    seed: u64,
    queries: &[Query],
    answers: &[Result<Answer, StoreError>],
) -> (u64, u64) {
    let truth = truth_hits(seed);
    let planted = renumber_truth(&synth_cfg(seed));
    let mut failed = 0;
    let mut recovered = 0;
    for (i, (q, a)) in queries.iter().cycle().zip(answers).enumerate() {
        let before = out.mismatches.len();
        match (q, a) {
            (_, Err(e)) => out.check(false, || format!("query {i} failed: {e}")),
            (
                Query::History {
                    dataset,
                    key,
                    t0,
                    t1,
                },
                Ok(Answer::History(points)),
            ) => {
                let name = key_name(dataset, *key);
                let per_window = &truth[&(dataset.to_string(), name.clone())];
                let want: u64 = points
                    .iter()
                    .map(|&(s, l, _)| per_window[base_windows(s, l)].iter().sum::<u64>())
                    .sum();
                let got: u64 = points.iter().map(|p| p.2).sum();
                let spans: Vec<(f64, f64)> = points.iter().map(|&(s, l, _)| (s, l)).collect();
                out.check(got == want, || {
                    format!("query {i}: history of {name} in {dataset}: {got} hits, truth {want}")
                });
                out.check(tiles(&spans, *t0, *t1), || {
                    format!("query {i}: history windows do not tile the interval")
                });
            }
            (Query::TopkAt { at, .. }, Ok(Answer::TopkAt(g))) => {
                let covers = g.is_some_and(|(s, l)| {
                    let (s, e) = ((s * 1e6).round() as u64, ((s + l) * 1e6).round() as u64);
                    s <= *at && *at < e
                });
                out.check(covers, || format!("query {i}: no window covers t={at}us"));
            }
            (Query::Renumber { t0, t1 }, Ok(Answer::Renumber(groups, found))) => {
                out.check(tiles(groups, *t0, *t1), || {
                    format!("query {i}: renumber windows do not tile the interval")
                });
                for (key, at) in found {
                    if recovers(&planted, groups, key, *at) {
                        recovered += 1;
                    } else {
                        out.check(false, || {
                            format!("query {i}: renumbering of {key} at t={at}s was never planted")
                        });
                    }
                }
            }
            _ => out.check(false, || format!("query {i}: answer of the wrong kind")),
        }
        if out.mismatches.len() > before {
            failed += 1;
        }
    }
    out.check(recovered > 0, || {
        "no renumbering scan recovered a planted event".into()
    });
    (failed, recovered)
}

/// A detection is genuine when its key was renumbered inside the scanned
/// windows, no later than the end of the window it was reported at.
fn recovers(planted: &[RenumberEvent], groups: &[(f64, f64)], key: &str, at: f64) -> bool {
    let Some(&(first, _)) = groups.first() else {
        return false;
    };
    let Some(&(s, l)) = groups.iter().find(|(s, _)| (s - at).abs() < 1e-6) else {
        return false;
    };
    planted
        .iter()
        .any(|e| e.key == key && e.window_start > first && e.window_start < s + l)
}

pub fn run(opts: &Opts) -> Outcome {
    let work = WorkDir::new("history");
    let mut setup_secs = Vec::new();
    let (mut build_s, mut compact_s) = (Vec::new(), Vec::new());
    let mut built = None;
    for i in 0..SETUPS {
        drop(built.take());
        let t0 = Instant::now();
        let (s, b, c) = build(&work.fresh(&format!("store{i}")), opts.seed);
        setup_secs.push(secs(t0));
        build_s.push(b);
        compact_s.push(c);
        built = Some(s);
    }
    let s = built.expect("at least one set-up");
    eprintln!(
        "history: {} live segments after compaction",
        s.segments().len()
    );

    let mut out = Outcome::default();
    // Warm-up round, not measured: page cache and allocator.
    let _ = measure(&s, opts.seed ^ 1, 0.0, 0);

    let mem = opts.trace.then(MemProbe::start);
    let Measured {
        queries,
        lat_ms: lat_rounds,
        answers,
        layers,
    } = measure(&s, opts.seed, opts.seconds, opts.plant_ns);
    let mem_mb = mem.map_or(0.0, |m| m.growth_mb());
    // Each query's latency is its best over the rounds: on a shared host
    // contention only ever adds time, and the rounds spread each query's
    // repetitions over the whole measured phase.
    let lat: Vec<f64> = lat_rounds
        .iter()
        .map(|v| v.iter().copied().fold(f64::INFINITY, f64::min))
        .collect();

    let (failed, recovered) = check(&mut out, opts.seed, &queries, &answers);
    out.attempted = answers.len() as u64;
    out.failed = failed;
    let total_s: f64 = lat.iter().sum::<f64>() / 1e3;
    eprintln!(
        "history: {} queries, p50 {:.3} ms, p99 {:.3} ms, {recovered} renumbering events recovered",
        queries.len(),
        median(&lat),
        percentile(&lat, 99.0)
    );
    if opts.trace {
        let rounds = lat_rounds[0].len();
        let round_s: Vec<f64> = (0..rounds)
            .map(|r| lat_rounds.iter().map(|v| v[r]).sum::<f64>() / 1e3)
            .collect();
        traced(
            &mut out,
            &s,
            opts,
            &queries,
            median(&round_s),
            layers,
            &build_s,
            &compact_s,
            mem_mb,
        );
        return out;
    }
    // One caller in a closed loop: throughput is a round's queries over
    // the time spent answering them, at each query's best latency.
    out.push("ops_per_s", queries.len() as f64 / total_s, "1/s");
    out.push("latency_p50_ms", median(&lat), "ms");
    out.push("latency_tail_ms", percentile(&lat, 99.0), "ms");
    out.push("setup_s", median(&setup_secs), "s");
    out
}

/// Per-layer lines: the same query sequence again with `fold_states`
/// replayed from outside for each query's windows, plus timed footer and
/// segment reads of every live segment.
#[allow(clippy::too_many_arguments)]
fn traced(
    out: &mut Outcome,
    s: &Store,
    opts: &Opts,
    queries: &[Query],
    untraced_s: f64,
    layers: Layers,
    build_s: &[f64],
    compact_s: &[f64],
    mem_mb: f64,
) {
    let q = queries.len() as f64;
    // Traced replay of the same queries: each query timed, then its
    // windows re-folded from outside.
    let mut traced_s = 0.0;
    let mut fold_s = 0.0;
    let mut scratch = Layers::default();
    for query in queries {
        let t = Instant::now();
        let _ = ask(s, query, opts.plant_ns, &mut scratch);
        traced_s += secs(t);
        fold_s += refold(s, query);
    }

    let (mut footer_s, mut footers, mut decode_s, mut decodes, mut bytes) = (0.0, 0, 0.0, 0, 0);
    for _ in 0..3 {
        for meta in s.segments() {
            let t = Instant::now();
            let ok = s.read_footer(meta).is_ok();
            footer_s += secs(t);
            footers += 1;
            let t = Instant::now();
            let ok = ok && s.read_segment(meta).is_ok();
            decode_s += secs(t);
            decodes += 1;
            out.check(ok, || format!("segment {} does not read back", meta.name));
            bytes += std::fs::metadata(s.dir().join(&meta.name)).map_or(0, |m| m.len());
        }
    }

    let stats = &layers.stats;
    let sum = |f: &dyn Fn(&QueryStats) -> usize| stats.iter().map(f).sum::<usize>() as f64;
    let total = sum(&|s| s.segments_total);
    let pruned = sum(&|s| s.pruned_time + s.pruned_dataset + s.pruned_bloom);
    let lines = [
        ("store.build_s", median(build_s)),
        ("store.compact_s", median(compact_s)),
        ("store.footer_us_per_call", footer_s * 1e6 / footers as f64),
        (
            "store.segment_decode_ms_per_call",
            decode_s * 1e3 / decodes as f64,
        ),
        (
            "store.segment_decode_mb_per_s",
            bytes as f64 / 1e6 / decode_s,
        ),
        (
            "store.segments_scanned_per_query",
            sum(&|s| s.segments_scanned) / q,
        ),
        (
            "store.records_decoded_per_query",
            sum(&|s| s.records_decoded) / q,
        ),
        ("store.pruned_share", pruned / total),
        ("query.fold_ms_per_query", fold_s * 1e3 / q),
        (
            "query.render_ms_per_query",
            layers.render_s * 1e3 / layers.renders.max(1) as f64,
        ),
        ("process.mem_peak_growth_mb", mem_mb),
        ("ops.failed_ratio", out.failed as f64 / out.attempted as f64),
        ("trace.overhead_share", traced_s / untraced_s - 1.0),
    ];
    crate::fill_layers(out, &lines);
}

/// Re-fold one query's windows with `store::fold_states`, timed: the
/// segments the query would scan are read back, their states grouped by
/// window, and each group folded as the query path folds it.
fn refold(s: &Store, q: &Query) -> f64 {
    let (dataset, t0, t1) = match *q {
        Query::History {
            dataset, t0, t1, ..
        } => (dataset, t0, t1),
        Query::TopkAt { dataset, at } => (dataset, at, at + 1),
        Query::Renumber { t0, t1 } => ("aafqdn", t0, t1),
    };
    let mut windows: BTreeMap<u64, Vec<sketchwire::WindowState>> = BTreeMap::new();
    for meta in s.segments() {
        if meta.end_us <= t0 || meta.start_us >= t1 {
            continue;
        }
        let Ok((_, states)) = s.read_segment(meta) else {
            continue;
        };
        for ws in states {
            let w_us = (ws.start * 1e6).round() as u64;
            let end_us = ((ws.start + ws.length) * 1e6).round() as u64;
            if ws.topk.dataset == dataset && end_us > t0 && w_us < t1 {
                windows.entry(w_us).or_default().push(ws);
            }
        }
    }
    let t = Instant::now();
    for states in windows.values() {
        let _ = std::hint::black_box(store::fold_states(states));
    }
    secs(t)
}
