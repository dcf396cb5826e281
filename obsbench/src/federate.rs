//! `federate`: the README's federation quick start, run in-process.
//!
//! `SimConfig::small()` traffic is split over four `StateExporter`s by
//! `tx.sensor_index(4)` (the plan at `--topk 200`, 1 s windows,
//! `--chunk-entries 1024`). Every exported batch crosses the live wire
//! codec (`feed::frame::encode_frame` → `feed::FrameReader`), merges in
//! `AggregatorCore` (`on_state` + `poll`), and every sealed global window
//! fans out to three sinks: the TSV render (into memory), a fresh
//! `store::Store` (`append` then `compact`, as `dnsobs` does), and a
//! `BrokerCore` with 256 subscribers. One subscriber decodes every frame
//! through `pubsub::FrameReader` and `SubscriberCore`; the frames are
//! shared bytes, so the other 255 would decode the same bytes and would
//! measure the consumers rather than the server.

use crate::collect::plan;
use crate::common::{median, percentile, secs, spin, MemProbe, Opts, Outcome, WorkDir};
use dns_observatory::{
    render_global, render_state, tsv, ObservatoryConfig, StateExporter, TxSummary,
};
use feed::frame::{encode_frame, Frame};
use pubsub::{Action, BrokerConfig, BrokerCore, SubEvent, SubscriberCore};
use simnet::{SimConfig, Simulation, Transaction};
use sketchwire::{AggregatorConfig, AggregatorCore, AggregatorReport, GlobalWindow, WindowState};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Simulated seconds per pass (about 96 k transactions, 45 windows).
const SIM_SECS: f64 = 45.0;
const UPSTREAMS: usize = 4;
const TOPK: usize = 200;
const CHUNK_ENTRIES: usize = 1024;
const SUBSCRIBERS: u64 = 256;
/// The one subscriber that decodes and applies its frames.
const DECODER: u64 = 1;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest measured passes per run, whatever `--seconds` says.
const MIN_PASSES: usize = 2;
/// Window-state records per exported batch: one per dataset, since no
/// tracker at `--topk 200` needs a second chunk.
pub const RECORDS_PER_BATCH: u64 = 5;

fn cfg() -> ObservatoryConfig {
    ObservatoryConfig {
        datasets: plan(TOPK),
        window_secs: 1.0,
        ..ObservatoryConfig::default()
    }
}

/// Accumulated layer costs of one pass (traced mode only).
#[derive(Default)]
struct Layers {
    summarize_s: f64,
    observe_s: f64,
    observe_calls: u64,
    export_s: f64,
    encode_s: f64,
    decode_s: f64,
    bytes: u64,
    merge_s: f64,
    render_s: f64,
    store_s: f64,
    broker_s: f64,
    apply_s: f64,
    delta_frames: u64,
}

/// A timer that only reads the clock in traced mode.
struct Lap(Option<Instant>);

impl Lap {
    fn start(on: bool) -> Lap {
        Lap(on.then(Instant::now))
    }

    fn stop(self, acc: &mut f64) {
        if let Some(t) = self.0 {
            *acc += secs(t);
        }
    }
}

/// Everything one pass measured or needs for its oracles.
#[derive(Default)]
struct PassStats {
    secs: f64,
    latencies_ms: Vec<f64>,
    records: u64,
    frames_sent: u64,
    decode_errors: u64,
    rejected: u64,
    sink_errors: u64,
    evictions: u64,
    windows: u64,
    /// The TSV sink's latest rendered window, per dataset.
    tsv: BTreeMap<String, Vec<u8>>,
    last: Option<GlobalWindow>,
    layers: Layers,
}

/// The system under test for one pass, built before the clock starts.
struct Federation {
    psl: psl::Psl,
    exporters: Vec<StateExporter>,
    readers: Vec<feed::FrameReader<WindowState>>,
    seqs: Vec<u64>,
    core: AggregatorCore,
    store: store::Store,
    policy: store::CompactionPolicy,
    broker: BrokerCore,
    actions: Vec<Action>,
    sub_reader: pubsub::FrameReader,
    sub: SubscriberCore,
    trace: bool,
    plant_ns: u64,
}

impl Federation {
    fn new(dir: &Path, trace: bool, plant_ns: u64) -> Federation {
        let (store, _) = store::Store::open(dir).expect("open a fresh store");
        let mut broker = BrokerCore::new(BrokerConfig::default());
        let mut actions = Vec::new();
        for id in 1..=SUBSCRIBERS {
            broker.on_client_connect(id, &[], &mut actions);
        }
        assert!(
            actions.is_empty(),
            "nothing is published before the first seal"
        );
        Federation {
            psl: psl::Psl::embedded(),
            exporters: (0..UPSTREAMS)
                .map(|u| StateExporter::new(cfg(), u as u64, CHUNK_ENTRIES))
                .collect(),
            readers: (0..UPSTREAMS).map(|_| feed::FrameReader::new()).collect(),
            seqs: vec![0; UPSTREAMS],
            core: AggregatorCore::new(&AggregatorConfig::new(UPSTREAMS)),
            store,
            policy: store::CompactionPolicy::default(),
            broker,
            actions,
            sub_reader: pubsub::FrameReader::new(),
            sub: SubscriberCore::new(),
            trace,
            plant_ns,
        }
    }

    /// One closed-loop pass over `txs`; returns the measurements and the
    /// aggregator's final report.
    fn pass(mut self, txs: &[Transaction]) -> (PassStats, AggregatorReport, Federation) {
        let tr = self.trace;
        let mut st = PassStats::default();
        let mut out = Vec::new();
        let t0 = Instant::now();
        for tx in txs {
            let t_in = Instant::now();
            let summary = TxSummary::from_transaction(tx, &self.psl);
            let summarized = Instant::now();
            let u = tx.sensor_index(UPSTREAMS);
            self.exporters[u].ingest_summary(summary, &mut out);
            if tr {
                let ingested = Instant::now();
                st.layers.summarize_s += (summarized - t_in).as_secs_f64();
                if out.is_empty() {
                    st.layers.observe_s += (ingested - summarized).as_secs_f64();
                    st.layers.observe_calls += 1;
                } else {
                    st.layers.export_s += (ingested - summarized).as_secs_f64();
                }
            }
            if !out.is_empty() {
                self.deliver(u, std::mem::take(&mut out), t_in, &mut st);
            }
        }
        // End of input closes every exporter's last window.
        let t_end = Instant::now();
        for (u, exporter) in std::mem::take(&mut self.exporters).into_iter().enumerate() {
            let lap = Lap::start(tr);
            exporter.finish(&mut out);
            lap.stop(&mut st.layers.export_s);
            self.deliver(u, std::mem::take(&mut out), t_end, &mut st);
        }
        let mut sealed = Vec::new();
        let core = std::mem::replace(
            &mut self.core,
            AggregatorCore::new(&AggregatorConfig::new(UPSTREAMS)),
        );
        let lap = Lap::start(tr);
        let report = core.finish(&mut sealed);
        lap.stop(&mut st.layers.merge_s);
        for gw in sealed {
            self.sinks(gw, t_end, &mut st);
        }
        st.secs = secs(t0);
        (st, report, self)
    }

    /// One exporter's closed-window batch: wire codec, then merge, then
    /// the sinks for every window the merge seals.
    fn deliver(&mut self, u: usize, items: Vec<WindowState>, t_in: Instant, st: &mut PassStats) {
        if items.is_empty() {
            return;
        }
        let tr = self.trace;
        let lap = Lap::start(tr);
        let mut wire = Vec::new();
        encode_frame(
            &Frame::Batch {
                sensor: u as u64,
                seq: self.seqs[u],
                items,
            },
            &mut wire,
        );
        self.seqs[u] += 1;
        lap.stop(&mut st.layers.encode_s);
        st.layers.bytes += wire.len() as u64;

        let lap = Lap::start(tr);
        self.readers[u].push(&wire);
        let items = match self.readers[u].next_frame() {
            Ok(Some(Frame::Batch { items, .. })) => items,
            _ => {
                st.decode_errors += 1;
                Vec::new()
            }
        };
        lap.stop(&mut st.layers.decode_s);

        let lap = Lap::start(tr);
        let mut sealed = Vec::new();
        for ws in items {
            spin(self.plant_ns);
            st.records += 1;
            if self.core.on_state(ws).is_err() {
                st.rejected += 1;
            }
        }
        self.core.poll(&mut sealed);
        lap.stop(&mut st.layers.merge_s);
        for gw in sealed {
            self.sinks(gw, t_in, st);
        }
    }

    /// Fan one sealed global window out to the TSV, store and broker
    /// sinks; the window's latency ends when the subscriber applied it.
    fn sinks(&mut self, gw: GlobalWindow, t_in: Instant, st: &mut PassStats) {
        let tr = self.trace;
        let lap = Lap::start(tr);
        match render_global(&gw) {
            Ok(dumps) => {
                for dump in &dumps {
                    let buf = st.tsv.entry(dump.dataset.clone()).or_default();
                    buf.clear();
                    tsv::write_window(buf, dump).expect("writing to memory cannot fail");
                }
            }
            Err(_) => st.sink_errors += 1,
        }
        lap.stop(&mut st.layers.render_s);

        let batch = to_batch(&gw);
        let lap = Lap::start(tr);
        if self.store.append(&batch).is_err()
            || store::compact(&mut self.store, &self.policy).is_err()
        {
            st.sink_errors += 1;
        }
        lap.stop(&mut st.layers.store_s);

        let lap = Lap::start(tr);
        if self.broker.on_sealed(batch, &mut self.actions).is_err() {
            st.sink_errors += 1;
        }
        let mut pushed = Vec::new();
        for action in self.actions.drain(..) {
            match action {
                Action::Send { client, frame } => {
                    st.frames_sent += 1;
                    if client == DECODER {
                        self.sub_reader.push(&frame);
                    }
                    if tr {
                        pushed.push(frame);
                    }
                }
                Action::Evict { .. } => st.evictions += 1,
            }
        }
        for id in 1..=SUBSCRIBERS {
            if let Some(depth) = self.broker.client_depth(id) {
                self.broker.on_drained(id, depth as u64);
            }
        }
        lap.stop(&mut st.layers.broker_s);
        let mut kinds = Vec::new();
        for frame in &pushed {
            if is_delta(frame, &mut kinds) {
                st.layers.delta_frames += 1;
            }
        }

        let lap = Lap::start(tr);
        loop {
            match self.sub_reader.next_frame() {
                Ok(Some(frame)) => {
                    if self.sub.on_frame(frame).is_err() {
                        st.decode_errors += 1;
                    }
                }
                Ok(None) => break,
                Err(_) => st.decode_errors += 1,
            }
        }
        lap.stop(&mut st.layers.apply_s);

        st.latencies_ms.push(t_in.elapsed().as_secs_f64() * 1e3);
        st.windows += 1;
        st.last = Some(gw);
    }
}

/// Whether a broker frame is a delta, decoding each distinct shared
/// frame once per window (traced mode only).
fn is_delta(frame: &Arc<Vec<u8>>, seen: &mut Vec<(*const Vec<u8>, bool)>) -> bool {
    let ptr = Arc::as_ptr(frame);
    if let Some(&(_, d)) = seen.iter().find(|(p, _)| *p == ptr) {
        return d;
    }
    let mut reader = pubsub::FrameReader::new();
    reader.push(frame);
    let d = matches!(reader.next_frame(), Ok(Some(pubsub::Frame::Delta(_))));
    seen.push((ptr, d));
    d
}

/// The batch `dnsobs` hands the store and the broker for one window.
fn to_batch(gw: &GlobalWindow) -> Vec<WindowState> {
    gw.datasets
        .iter()
        .map(|topk| WindowState {
            upstream: 0,
            start: gw.start,
            length: gw.length,
            topk: topk.clone(),
        })
        .collect()
}

fn generate(seed: u64) -> Vec<Transaction> {
    let mut sim = Simulation::from_config(SimConfig {
        seed,
        ..SimConfig::small()
    });
    sim.collect(SIM_SECS)
}

/// Output oracles for one finished pass (outside the timed region).
fn check(
    out: &mut Outcome,
    fed: &mut Federation,
    st: &PassStats,
    report: &AggregatorReport,
) -> u64 {
    let before = out.mismatches.len();
    // The subscriber's held windows render byte-identical to the TSV sink.
    let mut held = BTreeMap::new();
    for (ds, h) in fed.sub.held_windows() {
        let mut bytes = Vec::new();
        match render_state(&h.state, h.start, h.length) {
            Ok(dump) => tsv::write_window(&mut bytes, &dump).expect("memory write"),
            Err(e) => out.check(false, || format!("held {ds} window does not render: {e}")),
        }
        held.insert(ds.clone(), bytes);
    }
    out.check(held == st.tsv, || {
        "subscriber's held windows differ from the TSV sink".into()
    });
    let applied = fed.sub.snapshots_applied() + fed.sub.deltas_applied();
    out.check(applied == st.windows * RECORDS_PER_BATCH, || {
        format!(
            "subscriber applied {applied} frames for {} windows",
            st.windows
        )
    });
    // The store's newest window is the last sealed batch.
    let mut want = st.last.as_ref().map(to_batch).unwrap_or_default();
    want.sort_by(|a, b| a.topk.dataset.cmp(&b.topk.dataset));
    match fed.store.last_window() {
        Ok(Some((start, states))) => out.check(
            Some(start) == st.last.as_ref().map(|g| g.start) && states == want,
            || "Store::last_window differs from the last sealed batch".into(),
        ),
        other => out.check(false, || {
            format!(
                "Store::last_window returned {:?}",
                other.map(|o| o.is_some())
            )
        }),
    }
    // The merge is clean.
    let gaps: u64 = report.upstreams.values().map(|u| u.window_gaps).sum();
    out.check(
        report.rejected == 0
            && report.late_records == 0
            && gaps == 0
            && report.merge_conflicts == 0,
        || {
            format!(
                "aggregator: {} rejected, {} late, {gaps} gaps, {} conflicts",
                report.rejected, report.late_records, report.merge_conflicts
            )
        },
    );
    out.check(report.windows_sealed == st.windows, || {
        "sealed windows differ from windows delivered to the sinks".into()
    });
    // The broker conserves every frame and evicts nobody.
    let mut actions = Vec::new();
    let b = fed.broker.finish(&mut actions);
    let evicted = b
        .departures
        .iter()
        .filter(|d| d.reason != pubsub::EvictReason::Shutdown)
        .count() as u64;
    out.check(
        b.frames_pushed == b.frames_delivered + b.undelivered
            && b.frames_dropped == 0
            && evicted == 0
            && b.frames_pushed == st.frames_sent,
        || {
            format!(
                "broker: {} pushed, {} delivered, {} undelivered, {} dropped, {evicted} evicted",
                b.frames_pushed, b.frames_delivered, b.undelivered, b.frames_dropped
            )
        },
    );
    for a in actions {
        if let Action::Send {
            client: DECODER,
            frame,
        } = a
        {
            fed.sub_reader.push(&frame);
        }
    }
    let end = matches!(
        fed.sub_reader
            .next_frame()
            .map(|f| f.map(|f| fed.sub.on_frame(f))),
        Ok(Some(Ok(Some(SubEvent::End))))
    );
    out.check(end, || {
        "subscriber did not see a clean end of stream".into()
    });

    let failures = st.decode_errors
        + st.rejected
        + st.sink_errors
        + st.evictions
        + report.late_records
        + gaps
        + b.frames_dropped
        + b.undelivered
        + evicted;
    failures + (out.mismatches.len() - before) as u64
}

pub fn run(opts: &Opts) -> Outcome {
    let work = WorkDir::new("federate");
    let mut setup_secs = Vec::new();
    let mut txs = Vec::new();
    for i in 0..SETUPS {
        let t0 = Instant::now();
        txs = generate(opts.seed);
        let fed = Federation::new(&work.fresh(&format!("setup{i}")), opts.trace, opts.plant_ns);
        setup_secs.push(secs(t0));
        drop(fed);
    }
    eprintln!(
        "federate: {} transactions over {UPSTREAMS} exporters",
        txs.len()
    );

    let mut out = Outcome::default();
    // Warm-up on a prefix, not measured.
    let warm = txs.len() / 10;
    let _ = Federation::new(&work.fresh("warm"), false, opts.plant_ns).pass(&txs[..warm]);

    // Traced mode alternates untraced and traced passes, so the tracing
    // overhead compares like with like.
    let mem = opts.trace.then(MemProbe::start);
    let t0 = Instant::now();
    let mut passes = Vec::new();
    let mut reports = Vec::new();
    let mut feds = Vec::new();
    while passes.len() < MIN_PASSES || secs(t0) < opts.seconds {
        let dir = work.fresh(&format!("pass{}", passes.len()));
        let traced_pass = opts.trace && passes.len() % 2 == 1;
        let (st, report, fed) = Federation::new(&dir, traced_pass, opts.plant_ns).pass(&txs);
        passes.push((traced_pass, st));
        reports.push(report);
        feds.push(fed);
    }
    let mem_mb = mem.map_or(0.0, |m| m.growth_mb());

    for (((_, st), report), fed) in passes.iter().zip(&reports).zip(&mut feds) {
        out.attempted += st.records + st.frames_sent;
        out.failed += check(&mut out, fed, st, report);
    }
    drop(feds);

    let n = txs.len() as f64;
    let (traced_passes, passes): (Vec<_>, Vec<_>) = passes.into_iter().partition(|(t, _)| *t);
    let passes: Vec<PassStats> = passes.into_iter().map(|(_, p)| p).collect();
    let traced_passes: Vec<PassStats> = traced_passes.into_iter().map(|(_, p)| p).collect();
    let pass_secs: Vec<f64> = passes.iter().map(|p| p.secs).collect();
    let lat: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.latencies_ms.iter().copied())
        .collect();
    let windows: u64 = passes.iter().map(|p| p.windows).sum();
    eprintln!(
        "federate: {} passes, {windows} windows, {:.0} tx/s, window latency p50 {:.1} ms p90 {:.1} ms",
        passes.len(),
        n / median(&pass_secs),
        median(&lat),
        percentile(&lat, 90.0)
    );
    if opts.trace {
        let overhead = median(&traced_passes.iter().map(|p| p.secs).collect::<Vec<_>>())
            / median(&pass_secs)
            - 1.0;
        traced(&mut out, &traced_passes, n, overhead, mem_mb);
        return out;
    }
    out.push("ops_per_s", n / median(&pass_secs), "1/s");
    out.push("latency_p50_ms", median(&lat), "ms");
    out.push("latency_tail_ms", percentile(&lat, 90.0), "ms");
    out.push("setup_s", median(&setup_secs), "s");
    out
}

/// Per-layer lines from the traced passes; `overhead` is the traced
/// pass time over the untraced one, minus 1.
fn traced(out: &mut Outcome, passes: &[PassStats], n: f64, overhead: f64, mem_mb: f64) {
    let sum = |f: &dyn Fn(&PassStats) -> f64| passes.iter().map(f).sum::<f64>();
    let w = sum(&|p| p.windows as f64);
    let per_window_ms = |f: &dyn Fn(&Layers) -> f64| sum(&|p| f(&p.layers)) * 1e3 / w;
    let txs = n * passes.len() as f64;
    let observe_calls = sum(&|p| p.layers.observe_calls as f64);
    let frames = sum(&|p| p.frames_sent as f64);
    let layers = [
        (
            "summarize.ns_per_tx",
            sum(&|p| p.layers.summarize_s) * 1e9 / txs,
        ),
        (
            "federate.export_ms_per_window",
            per_window_ms(&|l| l.export_s),
        ),
        (
            "federate.records_per_window",
            sum(&|p| p.records as f64) / w,
        ),
        (
            "federate.observe_ns_per_tx",
            sum(&|p| p.layers.observe_s) * 1e9 / observe_calls,
        ),
        ("feed.encode_ms_per_window", per_window_ms(&|l| l.encode_s)),
        ("feed.decode_ms_per_window", per_window_ms(&|l| l.decode_s)),
        ("feed.bytes_per_window", sum(&|p| p.layers.bytes as f64) / w),
        (
            "sketchwire.merge_ms_per_window",
            per_window_ms(&|l| l.merge_s),
        ),
        ("sketchwire.rejected_records", sum(&|p| p.rejected as f64)),
        ("tsv.render_ms_per_window", per_window_ms(&|l| l.render_s)),
        ("store.append_ms_per_window", per_window_ms(&|l| l.store_s)),
        (
            "pubsub.broker_ms_per_window",
            per_window_ms(&|l| l.broker_s),
        ),
        ("pubsub.frames_per_window", frames / w),
        (
            "pubsub.delta_share",
            sum(&|p| p.layers.delta_frames as f64) / frames,
        ),
        ("pubsub.apply_ms_per_window", per_window_ms(&|l| l.apply_s)),
        ("ops.failed_ratio", out.failed as f64 / out.attempted as f64),
        ("process.mem_peak_growth_mb", mem_mb),
        ("trace.overhead_share", overhead),
    ];
    crate::fill_layers(out, &layers);
}
