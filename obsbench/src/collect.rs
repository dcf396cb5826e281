//! `collect`: the paper's single-collector deployment.
//!
//! The `SimConfig::default()` world (12 k arrivals/s, a key population
//! far above tracker capacity, so Space-Saving evicts) is folded by the
//! threaded pipeline under `dnsobs`'s 5-dataset plan at `--topk 10000`
//! with the paper's 60 s windows, and rendered with `tsv::render_store`.
//! Summarize, route and observe do nearly all the work; the one window
//! seals when the input ends.

use crate::common::{median, percentile, secs, spin, MemProbe, Opts, Outcome};
use dns_observatory::{
    tsv, Dataset, Observatory, ObservatoryConfig, ThreadedPipeline, TopKTracker, TxSummary,
    WindowDump,
};
use simnet::{SimConfig, Simulation, Transaction};
use std::time::Instant;
use telemetry::Registry;

/// Simulated seconds of traffic per pass (about 210 k transactions).
const SIM_SECS: f64 = 10.0;
/// Summarizer workers and tracker shards. One shard keeps the threaded
/// output byte-identical to the single-threaded fold even with saturated
/// caches; two shards would give each shard its own capacity and differ.
const WORKERS: usize = 2;
const SHARDS: usize = 1;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest measured passes per run, whatever `--seconds` says.
const MIN_PASSES: usize = 3;

/// `dnsobs`'s dataset plan at `--topk 10000`.
pub fn plan(cap: usize) -> Vec<(Dataset, usize)> {
    vec![
        (Dataset::SrvIp, cap),
        (Dataset::Esld, cap),
        (Dataset::Qname, cap),
        (Dataset::Qtype, 64.min(cap)),
        (Dataset::Rcode, 16.min(cap)),
    ]
}

fn cfg() -> ObservatoryConfig {
    ObservatoryConfig {
        datasets: plan(10_000),
        window_secs: 60.0,
        ..ObservatoryConfig::default()
    }
}

fn datasets() -> Vec<Dataset> {
    cfg().datasets.iter().map(|&(ds, _)| ds).collect()
}

type Rendered = Vec<(String, Vec<u8>)>;

struct Pass {
    secs: f64,
    /// Last transaction handed to the pipeline → last window rendered.
    flush_ms: f64,
    rendered: Rendered,
}

/// One closed-loop pass: the calling thread is the load generator, and
/// the clock runs from the first transaction in to the last window out.
fn pass(pipeline: &ThreadedPipeline, txs: &[Transaction], plant_ns: u64) -> Pass {
    let mut last_in = None;
    let input = txs
        .iter()
        .map(|tx| {
            spin(plant_ns);
            tx.clone()
        })
        .chain(std::iter::from_fn(|| {
            last_in = Some(Instant::now());
            None
        }));
    let t0 = Instant::now();
    let store = pipeline.run(input);
    let rendered = tsv::render_store(&store, &datasets());
    let secs = secs(t0);
    let flush_ms = last_in.map_or(0.0, |t| t.elapsed().as_secs_f64() * 1e3);
    Pass {
        secs,
        flush_ms,
        rendered,
    }
}

/// The reference: a single-threaded `Observatory` fold of the same stream.
fn fold(txs: &[Transaction]) -> (Rendered, f64) {
    let t0 = Instant::now();
    let mut obs = Observatory::new(cfg());
    for tx in txs {
        obs.ingest(tx);
    }
    let store = obs.finish();
    let secs = secs(t0);
    (tsv::render_store(&store, &datasets()), secs)
}

fn setup(seed: u64) -> (Vec<Transaction>, ThreadedPipeline) {
    let mut sim = Simulation::from_config(SimConfig {
        seed,
        ..SimConfig::default()
    });
    let txs = sim.collect(SIM_SECS);
    (txs, ThreadedPipeline::with_shards(cfg(), WORKERS, SHARDS))
}

pub fn run(opts: &Opts) -> Outcome {
    let mut setup_secs = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let t0 = Instant::now();
        built = Some(setup(opts.seed));
        setup_secs.push(secs(t0));
    }
    let (txs, pipeline) = built.expect("at least one set-up");
    let n = txs.len() as u64;
    eprintln!("collect: {n} transactions, {WORKERS} workers x {SHARDS} shard(s)");

    let mut out = Outcome::default();
    if opts.trace {
        traced(opts, &txs, &mut out);
        return out;
    }

    // Warm-up pass, not measured: thread stacks, pools and page faults.
    let _ = pass(&pipeline, &txs, opts.plant_ns);
    let t0 = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < MIN_PASSES || secs(t0) < opts.seconds {
        passes.push(pass(&pipeline, &txs, opts.plant_ns));
    }

    let (reference, _) = fold(&txs);
    out.attempted = n * passes.len() as u64;
    for (i, p) in passes.iter().enumerate() {
        let same = p.rendered == reference;
        if !same {
            out.failed += n;
        }
        out.check(same, || {
            format!("pass {i}: threaded TSV render differs from the Observatory fold")
        });
    }

    // Each pass is one batch job: its latency runs from the first
    // transaction in to the last window rendered.
    let pass_ms: Vec<f64> = passes.iter().map(|p| p.secs * 1e3).collect();
    eprintln!(
        "collect: {} passes, {:.0} tx/s at the median pass",
        passes.len(),
        n as f64 * 1e3 / median(&pass_ms)
    );
    out.push("ops_per_s", n as f64 * 1e3 / median(&pass_ms), "1/s");
    out.push("latency_p50_ms", median(&pass_ms), "ms");
    out.push("latency_tail_ms", percentile(&pass_ms, 90.0), "ms");
    out.push("setup_s", median(&setup_secs), "s");
    out
}

/// Per-layer lines, timed from outside: one threaded pass with an
/// isolated metrics registry (shard skew, batch size), the
/// single-threaded fold, and a single-threaded replay of the same stream
/// through `TxSummary::from_transaction`, `TopKTracker::observe` and
/// `TopKTracker::dump` with a timer around each call.
fn traced(opts: &Opts, txs: &[Transaction], out: &mut Outcome) {
    let n = txs.len() as f64;
    let _warm_up = pass(
        &ThreadedPipeline::with_shards(cfg(), WORKERS, SHARDS),
        txs,
        opts.plant_ns,
    );
    let registry = Registry::new();
    let pipeline =
        ThreadedPipeline::with_shards(cfg(), WORKERS, SHARDS).with_registry(registry.clone());
    let mem = MemProbe::start();
    let threaded = pass(&pipeline, txs, opts.plant_ns);
    let mem_mb = mem.growth_mb();
    let snap = registry.snapshot(0);
    let ingest_tx_per_s = n / threaded.secs;

    let kept: Vec<f64> = (0..SHARDS)
        .map(|sh| {
            datasets()
                .iter()
                .map(|ds| {
                    let labels = format!("{{dataset=\"{}\",shard=\"{sh}\"}}", ds.name());
                    snap.counter(&format!("pipeline_kept_total{labels}")) as f64
                })
                .sum()
        })
        .collect();
    let mean_kept = kept.iter().sum::<f64>() / kept.len() as f64;
    let skew = kept.iter().cloned().fold(0.0, f64::max) / mean_kept;
    let batches = snap.counter("pipeline_batches_total") as f64;
    let batch_mean = snap.counter("pipeline_ingested_total") as f64 / batches;

    let (reference, fold_secs) = fold(txs);
    let replay = replay(txs);
    out.check(replay.rendered == reference, || {
        "traced replay render differs from the Observatory fold".into()
    });
    out.check(threaded.rendered == reference, || {
        "threaded TSV render differs from the Observatory fold".into()
    });
    out.attempted = txs.len() as u64;
    out.failed = if out.mismatches.is_empty() {
        0
    } else {
        out.attempted
    };

    let fold_tx_per_s = n / fold_secs;
    let layers = [
        ("summarize.ns_per_tx", replay.summarize_s * 1e9 / n),
        ("topk.observe_ns_per_tx", replay.observe_s * 1e9 / n),
        (
            "topk.seal_ms_per_window",
            replay.seal_s * 1e3 / replay.windows as f64,
        ),
        (
            "topk.evictions_per_window",
            replay.evictions as f64 / replay.windows as f64,
        ),
        ("pipeline.fold_tx_per_s", fold_tx_per_s),
        ("pipeline.speedup", ingest_tx_per_s / fold_tx_per_s),
        ("pipeline.shard_skew", skew),
        ("pipeline.batch_mean", batch_mean),
        ("pipeline.flush_ms", threaded.flush_ms),
        ("process.mem_peak_growth_mb", mem_mb),
        ("ops.failed_ratio", out.failed as f64 / out.attempted as f64),
        // The replay does the fold's work plus the timers.
        ("trace.overhead_share", replay.secs / fold_secs - 1.0),
    ];
    crate::fill_layers(out, &layers);
}

struct Replay {
    rendered: Rendered,
    secs: f64,
    summarize_s: f64,
    observe_s: f64,
    seal_s: f64,
    windows: u64,
    evictions: u64,
}

/// `Observatory`'s fold, re-assembled from the layers' public calls so
/// each can be timed: same windowing, same trackers, same dumps.
fn replay(txs: &[Transaction]) -> Replay {
    let cfg = cfg();
    let psl = psl::Psl::embedded();
    let mut trackers: Vec<TopKTracker> = cfg
        .datasets
        .iter()
        .map(|&(ds, k)| TopKTracker::new(ds, k, cfg.feature_cfg, cfg.bloom_gate))
        .collect();
    let mut prev_stats = vec![(0u64, 0u64, 0u64); trackers.len()];
    let mut prev_evictions = vec![0u64; trackers.len()];
    let mut store = dns_observatory::TimeSeriesStore::new();
    let mut r = Replay {
        rendered: Vec::new(),
        secs: 0.0,
        summarize_s: 0.0,
        observe_s: 0.0,
        seal_s: 0.0,
        windows: 0,
        evictions: 0,
    };
    let mut seal = |start: f64, trackers: &mut [TopKTracker], r: &mut Replay| {
        for (i, t) in trackers.iter_mut().enumerate() {
            let t0 = Instant::now();
            let rows = t.dump(start);
            r.seal_s += secs(t0);
            let (kept, dropped, filtered) = t.stats();
            let (pk, pd, pf) = prev_stats[i];
            prev_stats[i] = (kept, dropped, filtered);
            r.evictions += t.evictions() - prev_evictions[i];
            prev_evictions[i] = t.evictions();
            store.push(WindowDump {
                dataset: t.dataset().name().to_string(),
                start,
                length: cfg.window_secs,
                rows,
                kept: kept - pk,
                dropped: dropped - pd,
                filtered: filtered - pf,
            });
        }
        r.windows += 1;
    };
    let t_all = Instant::now();
    let mut window_start: Option<f64> = None;
    for tx in txs {
        let t0 = Instant::now();
        let summary = TxSummary::from_transaction(tx, &psl);
        let t1 = Instant::now();
        r.summarize_s += (t1 - t0).as_secs_f64();
        let start = *window_start.get_or_insert(summary.time);
        if summary.time >= start + cfg.window_secs {
            seal(start, &mut trackers, &mut r);
            let skipped = ((summary.time - start) / cfg.window_secs).floor();
            window_start = Some(start + skipped * cfg.window_secs);
        }
        let t2 = Instant::now();
        for t in &mut trackers {
            t.observe(&summary);
        }
        r.observe_s += secs(t2);
    }
    if let Some(start) = window_start {
        seal(start, &mut trackers, &mut r);
    }
    r.secs = secs(t_all);
    r.rendered = tsv::render_store(&store, &datasets());
    r
}
